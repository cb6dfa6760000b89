//! What both serving workloads share: the seeded operation log, the
//! closed-loop wire clients, and the in-process replay of the same log
//! through the public functions the server calls (protocol codec,
//! `TenantPool::activate`, `ReadCache::get_or_compute`, `Snapshot::search`,
//! `semex_query`, `Semex::ingest`, `flush_index`, `commit`, `snapshot`).

use crate::report::{Metrics, Outcome};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use semex_cache::CacheKey;
use semex_core::Snapshot;
use semex_query::{exec::run_page, ExecConfig};
use semex_serve::json::Json;
use semex_serve::protocol::{PathItemWire, Request, RequestFrame, Response, WireHit};
use semex_serve::{Applied, Client, TenantId, WriteCommand};
use semex_tenant::TenantPool;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Mirrors of the server's response limits.
const MAX_SOLUTION_ROWS: usize = 50;
const MAX_PATH_PAGE: usize = 500;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Search,
    Path,
    Join,
    View,
    Browse,
    Ingest,
    Assert,
}

impl Kind {
    pub fn is_write(self) -> bool {
        matches!(self, Kind::Ingest | Kind::Assert)
    }

    fn accepts(self, response: &Response) -> bool {
        matches!(
            (self, response),
            (Kind::Search, Response::Hits { .. })
                | (Kind::Path, Response::PathPage { .. })
                | (Kind::Join, Response::Solutions { .. })
                | (Kind::View, Response::View { .. })
                | (Kind::Browse, Response::Links { .. })
                | (Kind::Ingest, Response::Ingested { .. })
                | (Kind::Assert, Response::Asserted { .. })
        )
    }
}

#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    /// `None` addresses the default (single) space.
    pub tenant: Option<String>,
    pub request: Request,
}

/// The seeded operation log: operation `i` is a pure function of the seed
/// and `i`, so every run, client interleaving and replay sees the same
/// sequence.
pub trait OpLog: Sync {
    fn op(&self, i: u64) -> Op;
}

/// Judge one answer: the expected response variant, or a failure message.
pub fn check(op: &Op, response: &Response) -> Result<(), String> {
    if op.kind.accepts(response) {
        Ok(())
    } else {
        let mut text = format!("{response:?}");
        text.truncate(200);
        Err(format!("{:?} answered {text}", op.kind))
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    pub ms: f64,
    pub at: f64,
}

/// The timed phase is cut into this many equal windows; each end-to-end
/// serving metric is the median of its values over the quiet windows.
const WINDOWS: usize = 10;
/// A window is quiet when the hypervisor took at most this much more of
/// the CPU during it than during the quietest window of the run.
const QUIET_MARGIN: f64 = 0.05;
/// At least this many of the least-disturbed windows always count.
const MIN_QUIET: usize = 4;

/// An acknowledged ingest: which space, which source name, how many bytes.
#[derive(Debug, Clone)]
pub struct Acked {
    pub tenant: Option<String>,
    pub name: String,
    pub bytes: u64,
}

/// What the wire clients saw.
#[derive(Debug, Default)]
pub struct LoopOut {
    /// Every successful operation: its kind, latency in milliseconds, and
    /// when it completed (seconds into the timed phase).
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    /// Operations issued (log prefix consumed).
    pub issued: u64,
    pub failures: Vec<String>,
    pub acked: Vec<Acked>,
    /// `(seconds into the phase, all CPU ticks, stolen ticks)` of the
    /// machine, sampled every 100 ms.
    pub cpu: Vec<(f64, u64, u64)>,
}

/// Run `clients` closed-loop connections with no think time against
/// `addr` for `seconds`: each client takes the next operation of the log,
/// sends it, and waits for its answer before taking another.
pub fn closed_loop(addr: SocketAddr, log: &dyn OpLog, clients: usize, seconds: f64) -> LoopOut {
    let next = AtomicU64::new(0);
    let merged = Mutex::new(LoopOut::default());
    let start = Instant::now();
    let run_for = Duration::from_secs_f64(seconds);
    let done = AtomicBool::new(false);
    let mut cpu = Vec::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                if let Some((all, stolen)) = cpu_ticks() {
                    cpu.push((start.elapsed().as_secs_f64(), all, stolen));
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            if let Some((all, stolen)) = cpu_ticks() {
                cpu.push((start.elapsed().as_secs_f64(), all, stolen));
            }
        });
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut out = LoopOut::default();
                    let mut client = match Client::connect(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            out.failures.push(format!("connect: {e}"));
                            merged.lock().expect("loop lock poisoned").absorb(out);
                            return;
                        }
                    };
                    while start.elapsed() < run_for {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let op = log.op(i);
                        if let Some(t) = &op.tenant {
                            client = client.with_tenant(t.clone());
                        }
                        let t0 = Instant::now();
                        let answer = client.request(&op.request);
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        let at = start.elapsed().as_secs_f64();
                        match answer.map_err(|e| format!("{:?}: {e}", op.kind)) {
                            Ok(r) => match check(&op, &r) {
                                Ok(()) => {
                                    out.samples.push(Sample {
                                        kind: op.kind,
                                        ms,
                                        at,
                                    });
                                    if let Request::Ingest { name, content, .. } = &op.request {
                                        out.acked.push(Acked {
                                            tenant: op.tenant.clone(),
                                            name: name.clone(),
                                            bytes: content.len() as u64,
                                        });
                                    }
                                }
                                Err(e) => out.failures.push(e),
                            },
                            Err(e) => {
                                out.failures.push(e);
                                // The connection may be desynchronized.
                                match Client::connect(addr) {
                                    Ok(c) => client = c,
                                    Err(_) => break,
                                }
                            }
                        }
                    }
                    merged.lock().expect("loop lock poisoned").absorb(out);
                })
            })
            .collect();
        for w in workers {
            w.join().expect("client thread panicked");
        }
        done.store(true, Ordering::SeqCst);
    });
    let mut out = merged.into_inner().expect("loop lock poisoned");
    out.wall_s = start.elapsed().as_secs_f64();
    out.issued = next.load(Ordering::Relaxed);
    out.cpu = cpu;
    out
}

impl LoopOut {
    fn absorb(&mut self, other: LoopOut) {
        self.samples.extend(other.samples);
        self.failures.extend(other.failures);
        self.acked.extend(other.acked);
    }

    pub fn latencies(&self, pred: impl Fn(Kind) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| pred(s.kind))
            .map(|s| s.ms)
            .collect()
    }

    /// The samples of each of [`WINDOWS`] equal slices of the timed phase.
    fn windows(&self) -> Vec<Vec<Sample>> {
        let mut windows = vec![Vec::new(); WINDOWS];
        for s in &self.samples {
            let w = (s.at / self.wall_s * WINDOWS as f64) as usize;
            windows[w.min(WINDOWS - 1)].push(*s);
        }
        windows
    }

    /// Share of the machine's CPU the hypervisor took during each window
    /// (0 where `/proc/stat` is unavailable).
    fn window_steal(&self) -> Vec<f64> {
        let at = |t: f64| {
            self.cpu
                .iter()
                .min_by(|a, b| (a.0 - t).abs().total_cmp(&(b.0 - t).abs()))
                .map(|&(_, all, stolen)| (all, stolen))
        };
        let len = self.wall_s / WINDOWS as f64;
        (0..WINDOWS)
            .map(|w| {
                let from = at(w as f64 * len);
                let to = at((w + 1) as f64 * len);
                steal_frac(from, to).unwrap_or(0.0)
            })
            .collect()
    }

    /// Indexes of the quiet windows: within [`QUIET_MARGIN`] of the least
    /// stolen window, and never fewer than [`MIN_QUIET`].
    pub fn quiet_windows(&self) -> Vec<usize> {
        let steal = self.window_steal();
        let mut order: Vec<usize> = (0..WINDOWS).collect();
        order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
        let floor = steal[order[0]];
        order
            .into_iter()
            .enumerate()
            .take_while(|&(rank, w)| rank < MIN_QUIET || steal[w] <= floor + QUIET_MARGIN)
            .map(|(_, w)| w)
            .collect()
    }
}

fn path_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// Evaluate a read against one pinned snapshot, as the server's read path
/// does, with a span around each layer call.
pub fn read_response(snap: &Snapshot, epoch: u64, request: &Request, tr: &mut Tracer) -> Response {
    let store = snap.store();
    let not_found = |query: &str| Response::Error {
        kind: semex_serve::protocol::ErrorKindWire::NotFound,
        message: format!("no object matches {query:?}"),
    };
    let invalid = |message: String| Response::Error {
        kind: semex_serve::protocol::ErrorKindWire::InvalidQuery,
        message,
    };
    match request {
        Request::Search {
            query,
            k,
            exhaustive,
        } => {
            let results = tr.time("index", "index.search", || {
                if *exhaustive {
                    snap.search_exhaustive(query, *k)
                } else {
                    snap.search(query, *k)
                }
            });
            Response::Hits {
                epoch,
                hits: results
                    .into_iter()
                    .map(|r| WireHit {
                        object: r.object.0,
                        label: r.label,
                        class: r.class,
                        score: r.score,
                    })
                    .collect(),
            }
        }
        Request::Query { pattern } => {
            tr.time(
                "query",
                "query.join",
                || match semex_query::join::query_str(store, pattern) {
                    Ok(bindings) => Response::Solutions {
                        epoch,
                        total: bindings.len(),
                        rows: bindings
                            .iter()
                            .take(MAX_SOLUTION_ROWS)
                            .map(|binding| {
                                let mut row: Vec<(String, String)> = binding
                                    .iter()
                                    .map(|(var, &obj)| (var.clone(), store.label(obj)))
                                    .collect();
                                row.sort();
                                row
                            })
                            .collect(),
                    },
                    Err(e) => invalid(format!("bad pattern query: {e}")),
                },
            )
        }
        Request::PathQuery { path, page, cursor } => tr.time("query", "query.path", || {
            let plan = match semex_query::parse::parse(store, path) {
                Ok(plan) => plan.optimize(),
                Err(e) => return invalid(format!("bad path query: {e}")),
            };
            if cursor.is_some() {
                return invalid("the benchmark issues first pages only".into());
            }
            let cfg = ExecConfig {
                threads: path_threads(),
                ..ExecConfig::default()
            };
            match run_page(
                store,
                &plan,
                &cfg,
                epoch,
                (*page).clamp(1, MAX_PATH_PAGE),
                None,
            ) {
                Ok(out) => Response::PathPage {
                    epoch,
                    total: out.total,
                    items: out
                        .items
                        .iter()
                        .map(|&obj| PathItemWire {
                            object: obj.0,
                            label: store.label(obj),
                            class: store.model().class_def(store.class_of(obj)).name.clone(),
                        })
                        .collect(),
                    cursor: out.next.map(|c| c.encode()),
                },
                Err(e) => invalid(format!("query refused: {e:?}")),
            }
        }),
        Request::View { query } => {
            match tr.time("index", "index.search", || {
                snap.search(query, 1).into_iter().next()
            }) {
                Some(hit) => Response::View {
                    epoch,
                    object: hit.object.0,
                    text: tr.time("core", "core.view", || snap.view(hit.object).to_string()),
                },
                None => not_found(query),
            }
        }
        Request::Browse { query } => {
            match tr.time("index", "index.search", || {
                snap.search(query, 1).into_iter().next()
            }) {
                Some(hit) => Response::Links {
                    epoch,
                    object: hit.object.0,
                    label: hit.label,
                    links: tr.time("query", "query.summary", || {
                        semex_query::summary::neighborhood_summary(store, hit.object)
                    }),
                },
                None => not_found(query),
            }
        }
        other => Response::Error {
            kind: semex_serve::protocol::ErrorKindWire::Internal,
            message: format!("not a read: {other:?}"),
        },
    }
}

/// The read cache's key text for a cacheable read, as the server forms it.
fn cache_key_text(snap: &Snapshot, request: &Request) -> Option<String> {
    match request {
        Request::Search { .. }
        | Request::Query { .. }
        | Request::View { .. }
        | Request::Browse { .. } => Some(request.to_json().encode()),
        Request::PathQuery { path, page, cursor } => {
            let plan = semex_query::parse::parse(snap.store(), path)
                .ok()?
                .optimize();
            let canon = plan.canonical(snap.store().model());
            let page = (*page).clamp(1, MAX_PATH_PAGE);
            let cursor = cursor.as_deref().unwrap_or("-");
            Some(format!("pathq {canon} page={page} cursor={cursor}"))
        }
        _ => None,
    }
}

fn ack(applied: Applied, epoch: u64) -> Response {
    match applied {
        Applied::Ingested {
            records,
            objects,
            triples,
        } => Response::Ingested {
            epoch,
            records,
            objects,
            triples,
        },
        Applied::Asserted { merged } => Response::Asserted { epoch, merged },
        other => Response::Error {
            kind: semex_serve::protocol::ErrorKindWire::Internal,
            message: format!("unexpected write outcome {other:?}"),
        },
    }
}

/// Counts the replay gathers beside its spans.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    /// `flush_index` calls that had buffered events to fold in.
    pub apply_calls: u64,
    pub results_per_path: Vec<f64>,
    /// Microseconds of each read answered from the cache.
    pub cache_hit_us: Vec<f64>,
}

/// Replay one operation in-process through the pool the server would use,
/// under spans: client encode and server decode, tenant activation, the
/// write path (apply, index delta, journal commit, publication) or the
/// read path (cache, then snapshot evaluation and encode), client decode.
pub fn replay_op(
    pool: &TenantPool<WriteCommand>,
    op: &Op,
    tr: &mut Tracer,
    counts: &mut ReplayCounts,
) -> Result<Response, String> {
    let root = tr.open("serve", "serve.op");
    let result = replay_inner(pool, op, tr, counts);
    tr.close(root);
    result
}

fn replay_inner(
    pool: &TenantPool<WriteCommand>,
    op: &Op,
    tr: &mut Tracer,
    counts: &mut ReplayCounts,
) -> Result<Response, String> {
    let frame = tr.time("serve", "serve.codec", || {
        let frame = match &op.tenant {
            Some(t) => RequestFrame::for_tenant(t.clone(), op.request.clone()),
            None => RequestFrame::new(op.request.clone()),
        };
        let text = frame.to_json().encode();
        Json::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|j| RequestFrame::from_json(&j).map_err(|e| e.to_string()))
    })?;
    let name = frame.tenant.as_deref().unwrap_or(TenantId::DEFAULT);
    let tenant = tr
        .time("tenant", "tenant.activate", || pool.activate(name))
        .map_err(|e| e.to_string())?;
    let payload: String = if let Some(cmd) = WriteCommand::from_request(&frame.request) {
        pool.enqueue(&tenant, cmd)
            .map_err(|_| "write queue refused the job".to_string())?;
        let serviced = pool.next_dispatch().ok_or("pool closed")?;
        let mut response = Err("write was not serviced".to_string());
        pool.service(&serviced, |master, engine, batch| {
            let mut outcomes = Vec::new();
            for cmd in batch {
                let name = match cmd {
                    WriteCommand::Ingest { .. } => "core.ingest",
                    _ => "core.assert",
                };
                outcomes.push(tr.time("core", name, || cmd.apply(master.semex_mut())));
            }
            if master.semex().store().pending_events() > 0 {
                counts.apply_calls += 1;
            }
            tr.time("index", "index.delta", || master.semex_mut().flush_index());
            let committed = tr.time("journal", "journal.commit", || master.commit());
            let n = match committed {
                Ok(n) => n as u64,
                Err(e) => {
                    response = Err(format!("commit failed: {e}"));
                    return;
                }
            };
            let snap = tr.time("core", "core.publish", || master.snapshot());
            let epoch = tr.time("tenant", "tenant.publish", || {
                engine.publish_advance(snap, n)
            });
            if let Some(outcome) = outcomes.pop() {
                response = match outcome {
                    Ok(applied) => Ok(ack(applied, epoch)),
                    Err(refused) => Ok(refused),
                };
            }
        });
        if let Some(cache) = pool.read_cache() {
            cache.note_epoch(name, tenant.engine().epoch());
        }
        let response = response?;
        tr.time("serve", "serve.codec", || response.to_json().encode())
    } else {
        let at = tenant.engine().load();
        let request = &frame.request;
        let key = match pool.read_cache() {
            Some(_) => tr.time("cache", "cache.key", || cache_key_text(&at.snap, request)),
            None => None,
        };
        match (pool.read_cache(), key) {
            (Some(cache), Some(text)) => {
                let key = CacheKey {
                    tenant: name.to_string(),
                    epoch: at.epoch,
                    request: text,
                };
                let mut computed = false;
                let open = tr.open("cache", "cache.get_or_compute");
                let bytes = cache.get_or_compute(key, || {
                    computed = true;
                    let response = read_response(&at.snap, at.epoch, request, tr);
                    let text = tr.time("serve", "serve.codec", || response.to_json().encode());
                    Arc::new(text.into_bytes())
                });
                let ns = tr.close(open);
                if !computed {
                    counts.cache_hit_us.push(ns as f64 / 1e3);
                }
                String::from_utf8(bytes.to_vec()).map_err(|e| e.to_string())?
            }
            _ => {
                let response = read_response(&at.snap, at.epoch, request, tr);
                tr.time("serve", "serve.codec", || response.to_json().encode())
            }
        }
    };
    let response = tr.time("serve", "serve.codec", || {
        Json::parse(&payload)
            .map_err(|e| e.to_string())
            .and_then(|j| Response::from_json(&j).map_err(|e| e.to_string()))
    })?;
    if let Response::PathPage { items, .. } = &response {
        counts.results_per_path.push(items.len() as f64);
    }
    check(op, &response)?;
    Ok(response)
}

/// A response with its epoch zeroed, encoded: what two evaluations of the
/// same read over the same state must agree on, whatever epoch numbering
/// their write histories produced.
pub fn comparable(response: &Response) -> String {
    let mut r = response.clone();
    match &mut r {
        Response::Hits { epoch, .. }
        | Response::Solutions { epoch, .. }
        | Response::PathPage { epoch, .. }
        | Response::View { epoch, .. }
        | Response::Links { epoch, .. } => *epoch = 0,
        _ => {}
    }
    // A next-page cursor pins the epoch it was minted at.
    if let Response::PathPage { cursor, .. } = &mut r {
        *cursor = cursor.as_ref().map(|_| "next".to_string());
    }
    r.to_json().encode()
}

/// End-to-end serving metrics from the wire clients' samples: the median
/// over the quiet windows of each window's median latency or throughput,
/// so CPU the hypervisor takes from the machine for part of the phase is
/// not read as a slower program.
pub fn wire_metrics(out: &LoopOut, m: &mut Metrics) {
    let all = out.windows();
    let windows: Vec<&Vec<Sample>> = out.quiet_windows().into_iter().map(|w| &all[w]).collect();
    let window_s = out.wall_s / WINDOWS as f64;
    let p50 = |m: &mut Metrics, name: &str, pred: &dyn Fn(Kind) -> bool| {
        let per_window: Vec<f64> = windows
            .iter()
            .map(|w| {
                w.iter()
                    .filter(|s| pred(s.kind))
                    .map(|s| s.ms)
                    .collect::<Vec<_>>()
            })
            .filter(|ms| !ms.is_empty())
            .map(|ms| median(&ms))
            .collect();
        m.add(name, median(&per_window), "ms", out.latencies(pred).len());
    };
    p50(m, "read_p50_ms", &|k| !k.is_write());
    p50(m, "search_p50_ms", &|k| k == Kind::Search);
    p50(m, "path_p50_ms", &|k| k == Kind::Path);
    p50(m, "write_ack_p50_ms", &Kind::is_write);
    let rates: Vec<f64> = windows.iter().map(|w| w.len() as f64 / window_s).collect();
    m.add("ops_per_s", median(&rates), "1/s", out.samples.len());
}

/// The wire tails: p99 (or the highest percentile with ten samples beyond
/// it) of reads and of write acks. Reported on every run but carried
/// unbounded, as serve-layer metrics: on a shared 2-core host they swing
/// with CPU availability by more than any bound a regression gate may use.
pub fn wire_tails(out: &LoopOut) -> Metrics {
    let mut m = Metrics::default();
    let reads = tail(&out.latencies(|k| !k.is_write()), 0.99);
    m.add("serve.read_p99_ms", reads.value, "ms", reads.samples);
    let writes = tail(&out.latencies(Kind::is_write), 0.99);
    m.add("serve.write_ack_p99_ms", writes.value, "ms", writes.samples);
    m
}

/// Share of CPU time the hypervisor took from this machine between two
/// `/proc/stat` readings (`None` where there is no such file).
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((t0, s0), (t1, s1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// `(all ticks, steal ticks)` of the machine so far.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// The first `n` operations of the log replayed in-process, with the
/// replay's own per-operation wall time.
pub struct Replay {
    pub tracer: Tracer,
    pub counts: ReplayCounts,
    pub op_us: f64,
    pub ops: u64,
}

fn replay(
    pool: &TenantPool<WriteCommand>,
    log: &dyn OpLog,
    n: u64,
    traced: bool,
    outcome: &mut Outcome,
) -> Replay {
    let mut tracer = Tracer::new(traced);
    let mut counts = ReplayCounts::default();
    let start = Instant::now();
    for i in 0..n {
        let op = log.op(i);
        tracer.request(i);
        outcome.attempted += 1;
        if let Err(e) = replay_op(pool, &op, &mut tracer, &mut counts) {
            outcome.fail(format!("replay op {i}: {e}"));
        }
    }
    let op_us = start.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64;
    pool.close();
    let _sealed = pool.finalize();
    Replay {
        tracer,
        counts,
        op_us,
        ops: n,
    }
}

/// Replay the log prefix untraced, traced, then untraced again, each on a
/// fresh copy of the initial state from `fresh_pool`. Returns the traced
/// replay and the mean per-operation time of the two untraced ones, which
/// bracket it so that warm-up order does not bias the tracing overhead.
pub fn replays(
    fresh_pool: impl Fn(&str) -> Result<TenantPool<WriteCommand>, String>,
    log: &dyn OpLog,
    n: u64,
    outcome: &mut Outcome,
) -> Result<(Replay, f64), String> {
    let before = replay(&fresh_pool("replay-plain-1")?, log, n, false, outcome);
    let traced = replay(&fresh_pool("replay-traced")?, log, n, true, outcome);
    let after = replay(&fresh_pool("replay-plain-2")?, log, n, false, outcome);
    Ok((traced, (before.op_us + after.op_us) / 2.0))
}
