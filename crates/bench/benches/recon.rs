//! Criterion bench backing experiment E5: reconciliation throughput per
//! variant, the blocking and scoring phases in isolation, and one
//! incremental ingest on a settled paper-sized platform.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use semex_bench::{build_platform, extract_corpus, two_person_mbox};
use semex_corpus::{generate_personal, CorpusConfig};
use semex_recon::{blocking, reconcile, ReconConfig, RefTable, Variant};

fn bench_corpus(scale: f64) -> semex_store::Store {
    let cfg = CorpusConfig {
        seed: 7,
        people: 40,
        organizations: 4,
        venues: 6,
        publications: 80,
        messages: 300,
        ..CorpusConfig::default()
    }
    .scaled_size(scale);
    extract_corpus(&generate_personal(&cfg))
}

fn bench_variants(c: &mut Criterion) {
    let store = bench_corpus(1.0);
    let mut group = c.benchmark_group("recon_variants");
    group.sample_size(10);
    for v in Variant::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(v.name()), &v, |b, &v| {
            b.iter(|| {
                let mut s = store.clone();
                reconcile(&mut s, v, &ReconConfig::sequential())
            });
        });
    }
    group.finish();
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("recon_scaling");
    group.sample_size(10);
    let mut stores: Vec<(&str, semex_store::Store)> = [0.5, 1.0, 2.0]
        .into_iter()
        .map(|scale| ("", bench_corpus(scale)))
        .collect();
    // The paper-sized corpus of experiment E2 and of perfbench's
    // `serve_mixed` build.
    stores.push((
        "paper-",
        extract_corpus(&generate_personal(&CorpusConfig::default())),
    ));
    for (label, store) in &stores {
        let refs = RefTable::build(store, 64).len();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{label}{refs}refs")),
            store,
            |b, store| {
                b.iter(|| {
                    let mut s = store.clone();
                    reconcile(&mut s, Variant::Full, &ReconConfig::sequential())
                });
            },
        );
    }
    group.finish();
}

fn bench_phases(c: &mut Criterion) {
    let store = bench_corpus(1.0);
    let mut group = c.benchmark_group("recon_phases");
    group.bench_function("ref_table_build", |b| {
        b.iter(|| RefTable::build(&store, 64));
    });
    let table = RefTable::build(&store, 64);
    group.bench_function("blocking", |b| {
        b.iter(|| blocking::candidate_pairs(&table));
    });
    group.finish();
}

fn bench_parallel_scoring(c: &mut Criterion) {
    let store = bench_corpus(2.0);
    let mut group = c.benchmark_group("recon_threads");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{threads}t")),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let mut s = store.clone();
                    let cfg = ReconConfig {
                        threads,
                        ..ReconConfig::default()
                    };
                    reconcile(&mut s, Variant::Full, &cfg)
                });
            },
        );
    }
    group.finish();
}

/// One two-person mbox through `Semex::ingest` on the settled paper-sized
/// platform: extraction, incremental reconciliation and the index delta.
/// Every iteration ingests a new message, so the space grows by a few
/// objects per iteration, as it does under a live write load.
fn bench_incremental(c: &mut Criterion) {
    let corpus = generate_personal(&CorpusConfig::default());
    let mut semex = build_platform(&corpus, "bench-recon-incremental");
    let mut i = 0;
    let mut group = c.benchmark_group("recon_incremental");
    group.bench_function("paper_two_person_mbox", |b| {
        b.iter(|| {
            i += 1;
            semex
                .ingest(two_person_mbox(&corpus, i))
                .expect("mail ingests")
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_variants,
    bench_scaling,
    bench_phases,
    bench_parallel_scoring,
    bench_incremental
);
criterion_main!(benches);
