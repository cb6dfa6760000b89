//! Per-layer metrics of a traced run. Layers are named after the crates
//! whose public functions the spans time. Counters come from the timed
//! run's own reports (`ServeReport`, `ReconReport`); times come from the
//! spans of the step-by-step build and the in-process replay.

use crate::report::Metrics;
use crate::serving::{self, LoopOut, Replay};
use crate::space::{ReconCounts, TracedBuild};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use semex_serve::ServeReport;
use std::path::Path;

const LAYERS: [&str; 9] = [
    "extract", "recon", "index", "core", "journal", "query", "cache", "tenant", "serve",
];

/// Reconciliation numbers of the run's timed builds.
pub struct Recon {
    /// Recon wall time of one set-up, summed over its builds.
    pub ms: f64,
    /// Counters of the last set-up's builds.
    pub counts: ReconCounts,
    pub blocking_ms: f64,
}

pub struct Inputs<'a> {
    /// Spans of the step-by-step build(s).
    pub build: &'a Tracer,
    pub traced: TracedBuild,
    pub recon: Recon,
    /// The traced replay of the operation log.
    pub replay: &'a Replay,
    /// Per-operation wall time of the same replay untraced.
    pub plain_op_us: f64,
    pub wire: &'a LoopOut,
    pub report: &'a ServeReport,
    /// Journal bytes added by the timed run's commits.
    pub journal_growth: u64,
    /// Untraced `SemexBuilder::build` times of the run's set-ups.
    pub build_s: &'a [f64],
}

fn total_ms(tr: &Tracer, name: &str) -> (f64, usize) {
    let (mean_us, n) = tr.mean_us(name);
    (mean_us * n as f64 / 1e3, n)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn collect(i: &Inputs) -> Metrics {
    let mut m = Metrics::default();
    let replay = &i.replay.tracer;
    let mean_span = |m: &mut Metrics, metric: &str, span: &str| {
        let (us, n) = replay.mean_us(span);
        m.add(metric, us, "us", n);
    };

    let (ms, n) = total_ms(i.build, "extract");
    m.add("extract.ms", ms, "ms", n);
    m.count("extract.objects", i.traced.extract_objects);

    let rc = &i.recon.counts;
    m.add("recon.ms", i.recon.ms, "ms", 1);
    m.add("recon.blocking_ms", i.recon.blocking_ms, "ms", 1);
    m.count("recon.refs", rc.refs);
    m.count("recon.candidates", rc.candidates);
    m.count("recon.iterations", rc.iterations);
    m.count("recon.merges", rc.merges);
    m.add(
        "recon.merge_yield",
        ratio(rc.merges as f64, rc.candidates as f64),
        "frac",
        1,
    );
    m.count("recon.memo_hits", rc.memo_hits);
    m.count("recon.shards", rc.shards);

    let (ms, n) = total_ms(i.build, "index.build");
    m.add("index.build_ms", ms, "ms", n);
    mean_span(&mut m, "index.search_us", "index.search");
    mean_span(&mut m, "index.delta_us", "index.delta");
    m.count("index.apply_calls", i.replay.counts.apply_calls);

    m.add("core.build_s", median(i.build_s), "s", i.build_s.len());
    mean_span(&mut m, "core.ingest_us", "core.ingest");
    mean_span(&mut m, "core.publish_us", "core.publish");

    mean_span(&mut m, "journal.commit_us", "journal.commit");
    let batches = i.report.writer.batches;
    m.add(
        "journal.bytes_per_commit",
        ratio(i.journal_growth as f64, batches as f64),
        "B",
        batches as usize,
    );

    mean_span(&mut m, "query.path_us", "query.path");
    let per_path = &i.replay.counts.results_per_path;
    m.add(
        "query.results_per_path",
        mean(per_path),
        "count",
        per_path.len(),
    );
    mean_span(&mut m, "query.join_us", "query.join");
    mean_span(&mut m, "query.summary_us", "query.summary");

    let pool = &i.report.tenants;
    let cold: Vec<f64> = pool
        .cold_open_us
        .iter()
        .map(|&us| us as f64 / 1e3)
        .collect();
    m.add("tenant.cold_open_ms", median(&cold), "ms", cold.len());
    m.count("tenant.activations", pool.activations);
    m.count("tenant.cold_opens", pool.cold_opens);
    m.add(
        "tenant.cold_open_ratio",
        ratio(pool.cold_opens as f64, pool.activations as f64),
        "frac",
        pool.activations as usize,
    );
    m.count("tenant.evictions", pool.evictions);
    m.count("tenant.max_resident", pool.max_resident_tenants as u64);

    let cache = i.report.cache.unwrap_or_default();
    m.add(
        "cache.hit_ratio",
        ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
        "frac",
        (cache.hits + cache.misses) as usize,
    );
    m.count("cache.hits", cache.hits);
    m.count("cache.misses", cache.misses);
    m.count("cache.coalesced", cache.coalesced);
    m.count("cache.evictions", cache.evictions);
    m.add("cache.resident_bytes", cache.resident_bytes as f64, "B", 1);
    let hits = &i.replay.counts.cache_hit_us;
    m.add("cache.hit_us", mean(hits), "us", hits.len());

    let ops = i.replay.ops.max(1) as f64;
    let (codec_ms, n) = total_ms(replay, "serve.codec");
    m.add("serve.codec_us", codec_ms * 1e3 / ops, "us", n);
    m.count("serve.requests", i.report.requests);
    m.count(
        "serve.shed",
        i.report.shed_connections + i.report.shed_writes + pool.shed_inflight,
    );
    m.count("serve.write_batches", batches);
    m.add(
        "serve.writes_per_batch",
        ratio(i.report.writer.writes_ok as f64, batches as f64),
        "count",
        batches as usize,
    );
    for t in serving::wire_tails(i.wire).iter() {
        m.add(t.name.clone(), t.value, t.unit, t.samples);
    }
    let wire_us: Vec<f64> = i.wire.samples.iter().map(|s| s.ms * 1e3).collect();
    let (op_us, traced_ops) = replay.mean_us("serve.op");
    m.add(
        "serve.overhead_us",
        mean(&wire_us) - op_us,
        "us",
        wire_us.len(),
    );

    let mut self_ns = i.build.self_time_by_layer();
    for (layer, ns) in replay.self_time_by_layer() {
        *self_ns.entry(layer).or_insert(0) += ns;
    }
    for layer in LAYERS {
        let ns = self_ns.get(layer).copied().unwrap_or(0);
        m.add(format!("{layer}.self_ms"), ns as f64 / 1e6, "ms", 1);
    }

    let (build_us, builds) = i.build.mean_us("core.build");
    m.add("trace.build_s", build_us / 1e6, "s", builds);
    m.add("trace.op_us", i.replay.op_us, "us", traced_ops);
    m.add(
        "trace.op_untraced_us",
        i.plain_op_us,
        "us",
        i.replay.ops as usize,
    );
    m.add(
        "trace.overhead_frac",
        ratio(i.replay.op_us, i.plain_op_us) - 1.0,
        "frac",
        1,
    );
    m
}

/// Write the run's spans out (JSON lines) once the run is over.
pub fn write_spans(dir: &Path, build: &Tracer, replay: &Tracer) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    build
        .write_jsonl(&dir.join("spans-build.jsonl"))
        .and_then(|()| replay.write_jsonl(&dir.join("spans-replay.jsonl")))
        .map_err(|e| format!("writing spans: {e}"))
}
