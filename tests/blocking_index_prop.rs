//! The persistent blocking-key index behind incremental reconciliation.
//!
//! * After random write sequences — new references, merges made outside
//!   reconciliation (before and after the index has seen their slots),
//!   must-link and cannot-link feedback, incremental runs — every key of
//!   every live reference has the live bucket a fresh reference table
//!   gives, and a run against the persistent index finds exactly the
//!   candidates of the full table and merges exactly as a run against a
//!   fresh index does.
//! * A platform reopened from its journal, loaded from a renumbered
//!   (compacted) snapshot, or adopted under a journal starts a fresh index:
//!   every ingest there reconciles exactly as a fresh-index run of the same
//!   source on the same store.

mod common;

use common::extract_corpus;
use proptest::prelude::*;
use semex::core::SourceSpec;
use semex::corpus::{generate_personal, CorpusConfig, PersonalCorpus};
use semex::extract::{email::extract_mbox, ExtractContext};
use semex::recon::blocking::{candidate_pairs, key_hash, visit_keys, BlockingIndex};
use semex::recon::{
    reconcile, reconcile_incremental, reconcile_incremental_with, ReconConfig, ReconReport,
    RefTable, Variant,
};
use semex::store::{ObjectId, SourceInfo, SourceKind, Store};
use semex::{JournalConfig, Semex, SemexConfig};
use std::collections::{BTreeMap, HashSet};
use std::sync::OnceLock;

/// A reconciled tiny corpus every case starts from.
fn base() -> &'static (Store, PersonalCorpus) {
    static BASE: OnceLock<(Store, PersonalCorpus)> = OnceLock::new();
    BASE.get_or_init(|| {
        let corpus = generate_personal(&CorpusConfig::tiny(17));
        let mut store = extract_corpus(&corpus);
        reconcile(&mut store, Variant::Full, &ReconConfig::sequential());
        (store, corpus)
    })
}

#[derive(Debug, Clone)]
enum Op {
    /// A new person reference: a name and/or an e-mail from the pools.
    Person(usize, usize, u8),
    /// A new publication reference: a title from the pool.
    Publication(usize),
    /// Reconcile every slot added since the previous run.
    Reconcile,
    /// Merge two live references of one class outside reconciliation.
    Merge(usize, usize),
    /// Merge the newest reference into an older live one of its class —
    /// the loser's values move to a winner the index may have seen.
    AbsorbNewest(usize),
    /// Record a must-link between two live references.
    MustLink(usize, usize),
    /// Record a cannot-link between two live references.
    CannotLink(usize, usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..64, 0usize..64, 0u8..3).prop_map(|(n, e, shape)| Op::Person(n, e, shape)),
        (0usize..64).prop_map(Op::Publication),
        Just(Op::Reconcile),
        (0usize..1000, 0usize..1000).prop_map(|(a, b)| Op::Merge(a, b)),
        (0usize..1000).prop_map(Op::AbsorbNewest),
        (0usize..1000, 0usize..1000).prop_map(|(a, b)| Op::MustLink(a, b)),
        (0usize..1000, 0usize..1000).prop_map(|(a, b)| Op::CannotLink(a, b)),
    ]
}

/// Names, e-mails and titles that collide with the corpus and each other.
struct Pools {
    names: Vec<String>,
    emails: Vec<String>,
    titles: Vec<String>,
}

fn pools(corpus: &PersonalCorpus) -> Pools {
    let mut names = Vec::new();
    let mut emails = Vec::new();
    for p in corpus.world.people.iter().take(8) {
        names.push(p.canonical_name());
        names.push(format!("{}. {}", &p.first[..1], p.last));
        names.push(format!("{}, {}", p.last, p.first));
        emails.extend(p.emails.iter().cloned());
    }
    let titles = corpus
        .world
        .pubs
        .iter()
        .take(8)
        .flat_map(|p| {
            let short: String = p
                .title
                .split_whitespace()
                .take(3)
                .collect::<Vec<_>>()
                .join(" ");
            [p.title.clone(), short]
        })
        .collect();
    Pools {
        names,
        emails,
        titles,
    }
}

/// The `i`-th live reference of `class` (modulo their count).
fn live_ref(store: &Store, class: &str, i: usize) -> Option<ObjectId> {
    let c = store.model().class(class)?;
    let live: Vec<ObjectId> = store.objects_of_class(c).collect();
    (!live.is_empty()).then(|| live[i % live.len()])
}

/// The index invariant: for every key of every live reference, the
/// index's live bucket is the bucket of a fresh reference table.
fn check_buckets(store: &Store, keys: &BlockingIndex) {
    let mut probe = keys.clone();
    probe.sync(store);
    let table = RefTable::build(store, 64);
    let mut fresh: BTreeMap<(u16, u64), Vec<ObjectId>> = BTreeMap::new();
    for e in &table.entries {
        let mut hashes = Vec::new();
        visit_keys(e, |ns, body| hashes.push(key_hash(ns, body)));
        hashes.sort_unstable();
        hashes.dedup();
        for h in hashes {
            fresh.entry((e.class.0, h)).or_default().push(e.obj);
        }
    }
    for ((class, h), mut want) in fresh {
        want.sort_unstable();
        let got = probe.bucket(store, semex::model::ClassId(class), h);
        assert_eq!(got, want.as_slice(), "bucket ({class}, {h:#x})");
    }
}

/// Where `resolve` sends every slot.
fn resolved(store: &Store) -> Vec<ObjectId> {
    (0..store.slot_count() as u64)
        .map(|s| store.resolve(ObjectId(s)))
        .collect()
}

fn outcome(r: &ReconReport) -> (usize, usize, usize, usize, usize, Vec<Vec<ObjectId>>) {
    (
        r.refs,
        r.candidates,
        r.iterations,
        r.memo_hits,
        r.merges,
        r.clusters.clone(),
    )
}

/// Candidate pairs of a fresh full table that touch the new objects.
fn full_table_candidates(store: &Store, new_objects: &[ObjectId]) -> usize {
    let table = RefTable::build(store, 64);
    let new: HashSet<u32> = new_objects
        .iter()
        .filter_map(|&o| table.index_of.get(&store.resolve(o)).copied())
        .collect();
    candidate_pairs(&table)
        .into_iter()
        .filter(|(a, b)| new.contains(a) || new.contains(b))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn persistent_index_matches_a_fresh_table(ops in prop::collection::vec(op(), 1..28)) {
        let (base_store, corpus) = base();
        let pools = pools(corpus);
        let mut store = base_store.clone();
        let mut keys = BlockingIndex::new();
        let mut cfg = ReconConfig::sequential();
        let model = store.model().clone();
        let c_person = model.class("Person").unwrap();
        let c_pub = model.class("Publication").unwrap();
        let (a_name, a_email, a_title) = (
            model.attr("name").unwrap(),
            model.attr("email").unwrap(),
            model.attr("title").unwrap(),
        );
        let mut first_new = store.slot_count() as u64;
        for op in ops.iter().cloned().chain([Op::Reconcile]) {
            match op {
                Op::Person(n, e, shape) => {
                    let o = store.add_object(c_person);
                    if shape != 1 {
                        let name = pools.names[n % pools.names.len()].as_str();
                        store.add_attr(o, a_name, name.into()).unwrap();
                    }
                    if shape != 0 {
                        let email = pools.emails[e % pools.emails.len()].as_str();
                        store.add_attr(o, a_email, email.into()).unwrap();
                    }
                }
                Op::Publication(t) => {
                    let o = store.add_object(c_pub);
                    let title = pools.titles[t % pools.titles.len()].as_str();
                    store.add_attr(o, a_title, title.into()).unwrap();
                }
                Op::Reconcile => {
                    let new: Vec<ObjectId> =
                        (first_new..store.slot_count() as u64).map(ObjectId).collect();
                    first_new = store.slot_count() as u64;
                    let want_candidates = full_table_candidates(&store, &new);
                    let mut twin = store.clone();
                    let fresh = reconcile_incremental(&mut twin, &new, Variant::Full, &cfg);
                    let got = reconcile_incremental_with(
                        &mut store, &mut keys, &new, Variant::Full, &cfg,
                    );
                    prop_assert_eq!(got.candidates, want_candidates);
                    prop_assert_eq!(outcome(&got), outcome(&fresh));
                    prop_assert_eq!(resolved(&store), resolved(&twin));
                    check_buckets(&store, &keys);
                }
                Op::Merge(a, b) => {
                    let class = if a % 3 == 0 { "Publication" } else { "Person" };
                    let (Some(x), Some(y)) =
                        (live_ref(&store, class, a), live_ref(&store, class, b))
                    else {
                        continue;
                    };
                    if x != y {
                        store.merge(x, y).unwrap();
                    }
                }
                Op::AbsorbNewest(a) => {
                    let newest = ObjectId(store.slot_count() as u64 - 1);
                    if store.resolve(newest) != newest {
                        continue;
                    }
                    let class = store.class_of(newest);
                    let older: Vec<ObjectId> =
                        store.objects_of_class(class).filter(|&o| o < newest).collect();
                    if !older.is_empty() {
                        store.merge(older[a % older.len()], newest).unwrap();
                    }
                }
                Op::MustLink(a, b) => {
                    if let (Some(x), Some(y)) =
                        (live_ref(&store, "Person", a), live_ref(&store, "Person", b))
                    {
                        cfg.must_link.push((x, y));
                    }
                }
                Op::CannotLink(a, b) => {
                    if let (Some(x), Some(y)) =
                        (live_ref(&store, "Person", a), live_ref(&store, "Person", b))
                    {
                        if store.resolve(x) != store.resolve(y) {
                            cfg.cannot_link.push((x, y));
                        }
                    }
                }
            }
        }
        check_buckets(&store, &keys);
    }
}

/// The `i`-th new mail of a platform-level test.
fn mail(corpus: &PersonalCorpus, i: usize) -> SourceSpec {
    semex_bench::two_person_mbox(corpus, i)
}

/// Ingest `spec` into `semex` and check the run against a fresh-index
/// replay of the same ingest on a copy of the store.
fn ingest_checked(semex: &mut Semex, spec: SourceSpec) {
    let SourceSpec::Mbox { name, content } = &spec else {
        unreachable!("platform tests ingest mail");
    };
    let mut twin = semex.store().clone();
    let sid = twin.register_source(SourceInfo::new(name, SourceKind::Email));
    let first_new = twin.slot_count() as u64;
    extract_mbox(content, &mut ExtractContext::new(&mut twin, sid)).unwrap();
    let new: Vec<ObjectId> = (first_new..twin.slot_count() as u64)
        .map(ObjectId)
        .collect();
    let want = reconcile_incremental(
        &mut twin,
        &new,
        semex.config().recon_variant,
        &semex.config().recon,
    );
    semex.ingest(spec).unwrap();
    let got = semex.last_ingest_recon().expect("ingest reconciled");
    assert!(got.candidates > 0, "the mail names known people");
    assert_eq!(outcome(got), outcome(&want));
    assert_eq!(resolved(semex.store()), resolved(&twin));
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("semex-blocking-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn journal_config() -> JournalConfig {
    JournalConfig {
        fsync: false,
        ..JournalConfig::default()
    }
}

#[test]
fn durable_reopen_starts_a_fresh_index() {
    let corpus = generate_personal(&CorpusConfig::tiny(3));
    let dir = temp_dir("reopen");
    let semex = semex_bench::build_platform(&corpus, "blocking-reopen-corpus");
    let mut durable = semex
        .into_durable(dir.join("space"), journal_config())
        .unwrap();
    for i in 0..3 {
        ingest_checked(&mut durable, mail(&corpus, i));
    }
    durable.commit().unwrap();
    drop(durable);

    let (mut reopened, _) =
        Semex::open_durable_with(dir.join("space"), SemexConfig::default(), journal_config())
            .unwrap();
    for i in 3..6 {
        ingest_checked(&mut reopened, mail(&corpus, i));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn renumbered_and_adopted_stores_start_fresh_indexes() {
    let corpus = generate_personal(&CorpusConfig::tiny(4));
    let dir = temp_dir("renumber");
    let mut semex = semex_bench::build_platform(&corpus, "blocking-renumber-corpus");
    for i in 0..3 {
        ingest_checked(&mut semex, mail(&corpus, i));
    }

    // A compacted snapshot renumbers every object.
    let snapshot = dir.join("compacted.json");
    semex.save_compacted(&snapshot).unwrap();
    let mut loaded = Semex::load(&snapshot, SemexConfig::default()).unwrap();
    assert!(loaded.store().slot_count() < semex.store().slot_count());
    for i in 3..6 {
        ingest_checked(&mut loaded, mail(&corpus, i));
    }

    // Adopting a platform under a journal swaps its store in.
    let mut durable = semex
        .into_durable(dir.join("space"), journal_config())
        .unwrap();
    for i in 6..9 {
        ingest_checked(&mut durable, mail(&corpus, i));
    }
    std::fs::remove_dir_all(&dir).ok();
}
