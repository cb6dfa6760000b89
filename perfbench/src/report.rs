//! Metric collection and the result line.

use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or a count).
    pub samples: usize,
}

#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        let name = name.into();
        debug_assert!(self.get(&name).is_none(), "metric {name} reported twice");
        // A metric the run could not measure reads 0, never NaN: the result
        // line must stay valid JSON.
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// A count (its own single sample).
    pub fn count(&mut self, name: &str, value: u64) {
        self.add(name, value as f64, "count", 1);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    /// `"name": {"value": v, "unit": u}` entries, comma-separated.
    fn json_entries(&self, out: &mut String) {
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub e2e: Metrics,
    /// Unbounded wire tails, printed on every run.
    pub tails: Metrics,
    pub layers: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks and failed operations, one line each.
    pub failures: Vec<String>,
    /// Run-record fields specific to the workload (corpus sizes, journal
    /// policy), in print order.
    pub record: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Count one failed operation or check, keeping the first few messages.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final stdout line: `correct`, `attempted`, `failed` and the metrics
/// of the run kind (end-to-end untraced, per-layer traced).
pub fn result_line(outcome: &Outcome, metrics: &Metrics) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    metrics.json_entries(&mut out);
    out.push_str("}}");
    out
}

/// Human-readable table of one metric set.
pub fn print_table(title: &str, metrics: &Metrics) {
    println!("{title}");
    for m in metrics.iter() {
        println!(
            "  {:<28} {:>16.4} {:<6} (samples: {})",
            m.name, m.value, m.unit, m.samples
        );
    }
}
