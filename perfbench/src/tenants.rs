//! `tenants_zipf`: many small durable spaces under `serve_tenants`, with a
//! residency budget below the tenant working set (cold opens and evictions
//! recur) and a read cache sized for the hot set. Requests pick a tenant
//! and one of its fixed queries with a zipf skew; ~2% are ingests.

use crate::report::Outcome;
use crate::rng::{Rng, Zipf};
use crate::serving::{self, closed_loop, comparable, read_response, Kind, Op, OpLog};
use crate::space::{self, PairCounts, ReconCounts, Space, TracedBuild};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{layers, mem, Args};
use semex_core::JournalConfig;
use semex_corpus::CorpusConfig;
use semex_serve::protocol::{IngestFormat, Request};
use semex_serve::{serve_tenants, Client, PoolConfig, ServeConfig, TenantId, TenantRegistry};
use semex_tenant::{resident_cost, TenantPool};
use std::collections::{HashMap, HashSet};
use std::path::Path;

const TENANTS: usize = 48;
/// Whole-fleet set-ups per run; the last fleet is served.
const SETUPS: u64 = 3;
/// Share of the fleet's resident cost the pool may hold.
const RESIDENT_SHARE: f64 = 0.85;
/// Read-cache budget: the fleet's whole query set fits.
const CACHE_BUDGET: usize = 16 << 20;
const QUERIES: usize = 16;
const WRITE_SHARE: f64 = 0.02;
const REPLAY_OPS: u64 = 2000;
const CLIENTS: usize = 2;

fn tenant_name(t: usize) -> String {
    format!("space-{t:03}")
}

/// One tenant's fixed query set and the people its ingests name.
struct TenantVocab {
    queries: Vec<(Kind, Request)>,
    people: Vec<(String, String)>,
}

fn vocab(space: &Space, seed: u64) -> TenantVocab {
    let persons = space.persons();
    let words = space.terms();
    let mut r = Rng::new(seed);
    let queries = (0..QUERIES)
        .map(|q| {
            let (id, label) = r.pick(&persons).clone();
            match q % 8 {
                0..=2 => (
                    Kind::Search,
                    Request::Search {
                        query: r.pick(&words).clone(),
                        k: 10,
                        exhaustive: false,
                    },
                ),
                3 | 4 => (
                    Kind::Path,
                    Request::PathQuery {
                        path: format!("Person(\"{label}\") <-AuthoredBy ->AuthoredBy"),
                        page: 20,
                        cursor: None,
                    },
                ),
                5 => (Kind::View, Request::View { query: label }),
                6 => (Kind::Browse, Request::Browse { query: label }),
                _ => (
                    Kind::Join,
                    Request::Query {
                        pattern: format!("?m Sender o{id} . ?m Recipient ?q"),
                    },
                ),
            }
        })
        .collect();
    TenantVocab {
        queries,
        people: space.people(),
    }
}

struct ZipfLog {
    seed: u64,
    tenants: Vec<TenantVocab>,
    pick_tenant: Zipf,
    pick_query: Zipf,
}

impl OpLog for ZipfLog {
    fn op(&self, i: u64) -> Op {
        let mut r = Rng::derive(self.seed, i);
        let t = self.pick_tenant.sample(&mut r);
        let v = &self.tenants[t];
        let (kind, request) = if r.unit() < WRITE_SHARE {
            let (a_name, a_mail) = r.pick(&v.people).clone();
            let (b_name, b_mail) = r.pick(&v.people).clone();
            (
                Kind::Ingest,
                Request::Ingest {
                    format: IngestFormat::Mbox,
                    name: format!("perf-mail-{i}"),
                    content: format!(
                        "From: {a_name} <{a_mail}>\nTo: {b_name} <{b_mail}>\n\
                         Subject: catching up\nMessage-ID: <perf-{i}@bench.example>\n\n\
                         A note for {b_name}.\n"
                    ),
                },
            )
        } else {
            v.queries[self.pick_query.sample(&mut r)].clone()
        };
        Op {
            kind,
            tenant: Some(tenant_name(t)),
            request,
        }
    }
}

/// One fleet: every tenant's space built and journaled under `root`.
struct Fleet {
    spaces: Vec<Space>,
    setup_s: f64,
}

fn set_up_fleet(seed: u64, round: u64, work: &Path, root: &Path) -> Result<Fleet, String> {
    let registry = TenantRegistry::open(root).map_err(|e| format!("registry: {e}"))?;
    let mut spaces = Vec::with_capacity(TENANTS);
    for t in 0..TENANTS {
        let cfg = CorpusConfig::tiny(Rng::derive(seed, round * 1000 + t as u64).next_u64());
        let id = TenantId::new(&tenant_name(t)).map_err(|e| e.to_string())?;
        let src = work.join(format!("src-{round}")).join(tenant_name(t));
        spaces.push(space::set_up(&cfg, &src, &registry.dir(&id))?);
    }
    // The fleet's set-up time sums each space's timed set-up; scoring
    // against ground truth runs outside those timings.
    let setup_s = spaces.iter().map(|s| s.setup_s).sum();
    Ok(Fleet { spaces, setup_s })
}

pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut fleet = None;
    for round in 0..SETUPS {
        let root = work.join(format!("tenants-{round}"));
        let f = set_up_fleet(args.seed, round, work, &root)?;
        setup_s.push(f.setup_s);
        build_s.extend(f.spaces.iter().map(|s| s.build_s));
        fleet = Some((f, root));
    }
    let (fleet, root) = fleet.expect("at least one set-up");
    let mut pairs = PairCounts::default();
    let mut recon = ReconCounts::default();
    let mut input_bytes = 0;
    let mut costs = 0usize;
    let mut objects = 0usize;
    let mut refs = 0u64;
    for s in &fleet.spaces {
        pairs.add(&s.pairs);
        recon.add(&s.recon);
        input_bytes += s.input_bytes;
        costs += resident_cost(&s.durable);
        objects += s.durable.store().object_count();
        refs += s.refs;
    }
    let log = ZipfLog {
        seed: Rng::derive(args.seed, 99).next_u64(),
        tenants: fleet
            .spaces
            .iter()
            .enumerate()
            .map(|(t, s)| vocab(s, Rng::derive(args.seed, 5000 + t as u64).next_u64()))
            .collect(),
        pick_tenant: Zipf::new(TENANTS, 1.2),
        pick_query: Zipf::new(QUERIES, 1.0),
    };
    let srcs: Vec<_> = fleet.spaces.iter().map(|s| s.src.clone()).collect();
    drop(fleet); // closes every journal before the server opens them
    let reference = work.join("reference");
    space::copy_dir(&root, &reference).map_err(|e| format!("copy fleet: {e}"))?;
    let initial_bytes = space::dir_bytes(&root);
    let budget = (costs as f64 * RESIDENT_SHARE) as usize;
    out.record = vec![
        ("corpus", format!("{TENANTS} x CorpusConfig::tiny")),
        ("objects", objects.to_string()),
        ("refs", refs.to_string()),
        ("input_bytes", input_bytes.to_string()),
        (
            "flush_policy",
            format!("fsync={}", JournalConfig::default().fsync),
        ),
        (
            "snapshot_format",
            format!("{:?}", JournalConfig::default().snapshot_format),
        ),
        ("clients", CLIENTS.to_string()),
        ("memory_budget_bytes", budget.to_string()),
        ("cache_budget_bytes", CACHE_BUDGET.to_string()),
    ];
    let pool_config = PoolConfig {
        memory_budget: budget,
        cache_budget: CACHE_BUDGET,
        create_missing: false,
        ..PoolConfig::default()
    };
    let registry = TenantRegistry::open(&root).map_err(|e| format!("registry: {e}"))?;
    let handle = serve_tenants(
        registry,
        "127.0.0.1:0",
        ServeConfig::default(),
        pool_config.clone(),
    )
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
    // Probe answers from the live server: each tenant's first two queries.
    let probes: Vec<(usize, Request)> = (0..TENANTS)
        .flat_map(|t| {
            log.tenants[t].queries[..2]
                .iter()
                .map(move |(_, q)| (t, q.clone()))
        })
        .collect();
    let mut live = Vec::new();
    match Client::connect(handle.addr()) {
        Ok(mut client) => {
            for (t, p) in &probes {
                client = client.with_tenant(tenant_name(*t));
                match client.request(p) {
                    Ok(r) => live.push(comparable(&r)),
                    Err(e) => out.fail(format!("probe: {e}")),
                }
            }
        }
        Err(e) => out.fail(format!("probe connect: {e}")),
    }
    out.attempted += probes.len() as u64;
    let report = handle.join();
    out.attempted += wire.issued;
    for f in &wire.failures {
        out.fail(f.clone());
    }
    let disk_bytes = space::dir_bytes(&root);

    // After shutdown every tenant's journal must hold its acknowledged
    // ingests and answer the probes as the live server did.
    let mut acked: HashMap<String, Vec<&str>> = HashMap::new();
    for a in &wire.acked {
        let t = a.tenant.clone().unwrap_or_default();
        acked.entry(t).or_default().push(&a.name);
    }
    let registry = TenantRegistry::open(&root).map_err(|e| format!("registry: {e}"))?;
    for t in 0..TENANTS {
        let id = TenantId::new(&tenant_name(t)).map_err(|e| e.to_string())?;
        let reopened = space::reopen(&registry.dir(&id))?;
        let sources: HashSet<&str> = reopened
            .store()
            .sources()
            .map(|(_, s)| s.name.as_str())
            .collect();
        for name in acked.get(&tenant_name(t)).into_iter().flatten() {
            out.attempted += 1;
            if !sources.contains(name) {
                out.fail(format!(
                    "{}: acknowledged ingest {name} lost",
                    tenant_name(t)
                ));
            }
        }
        let snap = reopened.snapshot();
        let mut off = Tracer::new(false);
        for (k, (pt, p)) in probes.iter().enumerate() {
            if *pt != t || live.len() != probes.len() {
                continue;
            }
            out.attempted += 1;
            let recovered = comparable(&read_response(&snap, 0, p, &mut off));
            if recovered != live[k] {
                out.fail(format!(
                    "{}: probe {k} live {} != reopened {recovered}",
                    tenant_name(t),
                    live[k]
                ));
            }
        }
    }
    let acked_bytes: u64 = wire.acked.iter().map(|a| a.bytes).sum();

    out.tails = serving::wire_tails(&wire);
    let m = &mut out.e2e;
    m.add("setup_s", median(&setup_s), "s", setup_s.len());
    m.add("recon_f1", pairs.f1(), "frac", TENANTS);
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
        let mut traced = TracedBuild::default();
        for src in &srcs {
            let one = space::traced_build(src, &mut build_tr)?;
            traced.extract_objects += one.extract_objects;
            traced.blocking_ms += one.blocking_ms;
        }
        let fresh_pool = |name: &str| {
            let dir = work.join(name);
            space::copy_dir(&reference, &dir).map_err(|e| format!("copy: {e}"))?;
            let registry = TenantRegistry::open(&dir).map_err(|e| format!("registry: {e}"))?;
            Ok(TenantPool::with_registry(registry, pool_config.clone()))
        };
        let (replay, plain_op_us) = serving::replays(fresh_pool, &log, REPLAY_OPS, &mut out)?;
        let recon = layers::Recon {
            ms: recon.ms,
            counts: recon,
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
