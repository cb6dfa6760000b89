//! In-memory span recording for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Every span has a name, a layer, a start, an end, the span that caused
//! it and the id of the request it belongs to. Spans stay in memory until
//! [`Tracer::write_jsonl`] writes them out at the end of the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The crate the timed call belongs to (`recon`, `index`, …).
    pub layer: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub request: u64,
}

/// Records spans when enabled; when disabled, `open`/`close` cost one
/// branch, so the same replay code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

/// Handle of an open span (`None` on a disabled tracer).
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Spans opened from now on belong to request `id`.
    pub fn request(&mut self, id: u64) {
        self.request = id;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            layer,
            start,
            end: start,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span; returns its duration in nanoseconds (0 when
    /// disabled).
    pub fn close(&mut self, open: Open) -> u64 {
        let Some(idx) = open.0 else { return 0 };
        let end = self.now();
        self.spans[idx].end = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        end - self.spans[idx].start
    }

    /// Time `f` under a span.
    pub fn time<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.open(layer, name);
        let out = f();
        self.close(open);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean duration in microseconds and count of the spans named `name`.
    pub fn mean_us(&self, name: &str) -> (f64, usize) {
        let durations: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect();
        if durations.is_empty() {
            return (0.0, 0);
        }
        let total: u64 = durations.iter().sum();
        (total as f64 / durations.len() as f64 / 1e3, durations.len())
    }

    /// Self time per layer in nanoseconds, summed over every span.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            *out.entry(s.layer).or_insert(0) += self_time((s.start, s.end), kids);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.layer, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children may overlap each other (parallel work) and
/// may spill past the parent; only the covered part of the parent's own
/// interval is subtracted, once.
pub fn self_time(parent: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (lo, hi) = parent;
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), &mut [(10, 20), (50, 80)]), 60);
        assert_eq!(self_time((0, 100), &mut []), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // [10,30] and [20,50] overlap: together they cover [10,50].
        assert_eq!(self_time((0, 100), &mut [(20, 50), (10, 30)]), 60);
        // A child nested inside another covers nothing new.
        assert_eq!(self_time((0, 100), &mut [(10, 90), (20, 30)]), 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time((0, 100), &mut [(90, 120), (10, 50)]), 50);
        assert_eq!(self_time((10, 20), &mut [(0, 5), (25, 30)]), 10);
        assert_eq!(self_time((10, 20), &mut [(0, 30)]), 0);
    }

    #[test]
    fn tracer_links_parents_and_sums_self_time_by_layer() {
        let mut tr = Tracer::new(true);
        tr.request(7);
        let root = tr.open("serve", "op");
        tr.time("index", "search", || std::hint::black_box(1 + 1));
        tr.close(root);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        let by_layer = tr.self_time_by_layer();
        let total = spans[0].end - spans[0].start;
        assert_eq!(by_layer["serve"] + by_layer["index"], total);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let o = tr.open("serve", "op");
        tr.close(o);
        assert!(tr.spans().is_empty());
    }
}
