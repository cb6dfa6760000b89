//! `serve_mixed`: one user's durable space, built from the paper-sized
//! corpus, served by the default server configuration (read cache off)
//! to two closed-loop clients sending ~90% reads and ~10% writes.

use crate::report::Outcome;
use crate::rng::Rng;
use crate::serving::{self, closed_loop, comparable, read_response, Kind, Op, OpLog};
use crate::space::{self, missed_merges, PairCounts, Space};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{layers, mem, Args};
use semex_core::JournalConfig;
use semex_corpus::CorpusConfig;
use semex_serve::protocol::{IngestFormat, Request};
use semex_serve::{serve, Client, Master, PoolConfig, ServeConfig};
use semex_tenant::TenantPool;
use std::path::Path;

/// Set-ups per run (each a full build of its own corpus); the last one is
/// served.
const SETUPS: u64 = 4;
/// Operations of the log replayed in-process by the traced run.
const REPLAY_OPS: u64 = 1500;
const CLIENTS: usize = 2;

/// Who and what the operation log can name, taken from the served space.
struct MixedLog {
    seed: u64,
    /// `(object id, label)` of people with a full-name label.
    persons: Vec<(u64, String)>,
    /// `(canonical name, primary e-mail)` of the corpus's true people.
    people: Vec<(String, String)>,
    /// Words that occur in the corpus (family names, title words, venue
    /// abbreviations).
    terms: Vec<String>,
    /// Reference pairs the build failed to merge (ground truth says they
    /// are one entity).
    same: Vec<(u64, u64)>,
}

impl MixedLog {
    fn new(seed: u64, space: &Space) -> MixedLog {
        MixedLog {
            seed,
            persons: space.persons(),
            people: space.people(),
            terms: space.terms(),
            same: missed_merges(space),
        }
    }

    fn search_text(&self, r: &mut Rng) -> String {
        if r.unit() < 0.5 {
            r.pick(&self.terms).clone()
        } else {
            format!("{} {}", r.pick(&self.terms), r.pick(&self.terms))
        }
    }
}

impl OpLog for MixedLog {
    fn op(&self, i: u64) -> Op {
        let mut r = Rng::derive(self.seed, i);
        let x = r.unit();
        let (id, label) = r.pick(&self.persons).clone();
        let (kind, request) = if x < 0.36 {
            let query = self.search_text(&mut r);
            (
                Kind::Search,
                Request::Search {
                    query,
                    k: 10,
                    exhaustive: false,
                },
            )
        } else if x < 0.58 {
            let steps = *r.pick(&[
                "<-AuthoredBy ->AuthoredBy",
                "<-Sender ->Recipient",
                "<-AuthoredBy ->PublishedIn",
                "<-Sender ->Recipient <-AuthoredBy",
                "<-AuthoredBy ->Cites ->AuthoredBy",
            ]);
            (
                Kind::Path,
                Request::PathQuery {
                    path: format!("Person(\"{label}\") {steps}"),
                    page: 20,
                    cursor: None,
                },
            )
        } else if x < 0.70 {
            let pattern = if r.unit() < 0.5 {
                format!("?pub AuthoredBy o{id} . ?pub PublishedIn ?v")
            } else {
                format!("?m Sender o{id} . ?m Recipient ?q")
            };
            (Kind::Join, Request::Query { pattern })
        } else if x < 0.80 {
            (Kind::View, Request::View { query: label })
        } else if x < 0.90 {
            (Kind::Browse, Request::Browse { query: label })
        } else if x < 0.98 || self.same.is_empty() {
            let (a_name, a_mail) = r.pick(&self.people).clone();
            let (b_name, b_mail) = r.pick(&self.people).clone();
            let request = if x < 0.96 {
                let subject = self.search_text(&mut r);
                Request::Ingest {
                    format: IngestFormat::Mbox,
                    name: format!("perf-mail-{i}"),
                    content: format!(
                        "From: {a_name} <{a_mail}>\nTo: {b_name} <{b_mail}>\n\
                         Subject: {subject} follow-up\nMessage-ID: <perf-{i}@bench.example>\n\n\
                         Notes on {subject} for {b_name}.\n"
                    ),
                }
            } else {
                Request::Ingest {
                    format: IngestFormat::Vcard,
                    name: format!("perf-card-{i}"),
                    content: format!(
                        "BEGIN:VCARD\nVERSION:3.0\nFN:{a_name}\nEMAIL:{a_mail}\nEND:VCARD\n"
                    ),
                }
            };
            (Kind::Ingest, request)
        } else {
            let &(a, b) = r.pick(&self.same);
            (Kind::Assert, Request::AssertSame { a, b })
        };
        Op {
            kind,
            tenant: None,
            request,
        }
    }
}

/// Reads whose answers must agree between the live server, a sequential
/// replay of its recorded writes, and the space reopened from disk.
fn probes(log: &MixedLog) -> Vec<Request> {
    (0..400u64)
        .map(|i| log.op(u64::MAX - i))
        .filter(|op| !op.kind.is_write())
        .take(40)
        .map(|op| op.request)
        .collect()
}

fn answers(snap: &semex_core::Snapshot, probes: &[Request]) -> Vec<String> {
    let mut off = Tracer::new(false);
    probes
        .iter()
        .map(|p| comparable(&read_response(snap, 0, p, &mut off)))
        .collect()
}

pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut recon_ms = Vec::new();
    let mut pairs = PairCounts::default();
    let mut space = None;
    for i in 0..SETUPS {
        let cfg = CorpusConfig {
            seed: Rng::derive(args.seed, i).next_u64(),
            ..CorpusConfig::default()
        };
        let s = space::set_up(
            &cfg,
            &work.join(format!("src-{i}")),
            &work.join(format!("space-{i}")),
        )?;
        setup_s.push(s.setup_s);
        build_s.push(s.build_s);
        recon_ms.push(s.recon.ms);
        pairs.add(&s.pairs);
        space = Some(s);
    }
    let space = space.expect("at least one set-up");
    let log = MixedLog::new(Rng::derive(args.seed, 99).next_u64(), &space);
    let probes = probes(&log);
    let reference = work.join("reference");
    space::copy_dir(&space.dir, &reference).map_err(|e| format!("copy space: {e}"))?;
    let initial_bytes = space::dir_bytes(&space.dir);
    out.record = vec![
        ("corpus", "CorpusConfig::default()".into()),
        ("objects", space.durable.store().object_count().to_string()),
        ("refs", space.refs.to_string()),
        ("input_bytes", space.input_bytes.to_string()),
        (
            "flush_policy",
            format!("fsync={}", JournalConfig::default().fsync),
        ),
        (
            "snapshot_format",
            format!("{:?}", JournalConfig::default().snapshot_format),
        ),
        ("clients", CLIENTS.to_string()),
    ];

    // The timed phase: two closed-loop clients over the wire.
    let (space_dir, src, input_bytes, recon_counts) = (
        space.dir.clone(),
        space.src.clone(),
        space.input_bytes,
        space.recon,
    );
    let config = ServeConfig {
        record_writes: true,
        ..ServeConfig::default()
    };
    let handle = serve(Master::Durable(space.durable), "127.0.0.1:0", config)
        .map_err(|e| format!("bind: {e}"))?;
    let ticks = serving::cpu_ticks();
    let memory = mem::PeakWindow::start();
    let wire = closed_loop(handle.addr(), &log, CLIENTS, args.seconds);
    let peak = memory.finish();
    if let Some(steal) = serving::steal_frac(ticks, serving::cpu_ticks()) {
        out.record.push(("steal_frac", format!("{steal:.4}")));
    }
    out.record
        .push(("quiet_windows", wire.quiet_windows().len().to_string()));
    let mut live = Vec::new();
    match Client::connect(handle.addr()) {
        Ok(mut client) => {
            for p in &probes {
                match client.request(p) {
                    Ok(r) => live.push(comparable(&r)),
                    Err(e) => out.fail(format!("probe: {e}")),
                }
            }
        }
        Err(e) => out.fail(format!("probe connect: {e}")),
    }
    out.attempted += probes.len() as u64;
    let mut report = handle.join();
    // Seal the served master so its journal can be reopened below.
    drop(report.master.take());
    out.attempted += wire.issued;
    for f in &wire.failures {
        out.fail(f.clone());
    }

    // Check 1: a sequential platform replaying the recorded writes answers
    // every probe exactly as the live server did.
    let mut sequential = space::reopen(&reference)?;
    for cmd in &report.writer.applied {
        out.attempted += 1;
        if let Err(refused) = cmd.apply(&mut sequential) {
            out.fail(format!("sequential replay refused {cmd:?}: {refused:?}"));
        }
    }
    let expected = answers(&sequential.snapshot(), &probes);
    drop(sequential);
    // Check 2: the space reopened from disk after shutdown holds every
    // acknowledged ingest and answers the same.
    let disk_bytes = space::dir_bytes(&space_dir);
    let reopened = space::reopen(&space_dir)?;
    let recovered = answers(&reopened.snapshot(), &probes);
    let sources: std::collections::HashSet<&str> = reopened
        .store()
        .sources()
        .map(|(_, s)| s.name.as_str())
        .collect();
    for a in &wire.acked {
        out.attempted += 1;
        if !sources.contains(a.name.as_str()) {
            out.fail(format!("acknowledged ingest {} lost after reopen", a.name));
        }
    }
    if live.len() == probes.len() {
        for (i, ((l, e), r)) in live.iter().zip(&expected).zip(&recovered).enumerate() {
            out.attempted += 2;
            if l != e {
                out.fail(format!("probe {i}: live {l} != sequential {e}"));
            }
            if l != r {
                out.fail(format!("probe {i}: live {l} != reopened {r}"));
            }
        }
    }
    drop(reopened);
    let acked_bytes: u64 = wire.acked.iter().map(|a| a.bytes).sum();

    out.tails = serving::wire_tails(&wire);
    let m = &mut out.e2e;
    m.add("setup_s", median(&setup_s), "s", setup_s.len());
    m.add("recon_f1", pairs.f1(), "frac", SETUPS as usize);
    m.add("peak_mem_mb", peak as f64 / 1e6, "MB", 1);
    serving::wire_metrics(&wire, m);
    m.add(
        "disk_bytes_per_input_byte",
        disk_bytes as f64 / (input_bytes + acked_bytes) as f64,
        "ratio",
        1,
    );

    if args.trace {
        let mut build_tr = Tracer::new(true);
        let traced = space::traced_build(&src, &mut build_tr)?;
        let fresh_pool = |name: &str| {
            let dir = work.join(name);
            space::copy_dir(&reference, &dir).map_err(|e| format!("copy: {e}"))?;
            Ok(TenantPool::single(
                Master::Durable(space::reopen(&dir)?),
                PoolConfig::default(),
            ))
        };
        let (replay, plain_op_us) = serving::replays(fresh_pool, &log, REPLAY_OPS, &mut out)?;
        let recon = layers::Recon {
            ms: median(&recon_ms),
            counts: recon_counts,
            blocking_ms: traced.blocking_ms,
        };
        out.layers = layers::collect(&layers::Inputs {
            build: &build_tr,
            traced,
            recon,
            replay: &replay,
            plain_op_us,
            wire: &wire,
            report: &report,
            journal_growth: disk_bytes.saturating_sub(initial_bytes),
            build_s: &build_s,
        });
        layers::write_spans(&args.trace_dir, &build_tr, &replay.tracer)?;
    }
    Ok(out)
}
