//! The reconciliation engine: dependency-graph propagation with reference
//! enrichment over blocked candidate pairs.

use crate::blocking::{self, BlockingIndex, BlockingStats};
use crate::memo::PersonMemo;
use crate::refs::{reconcilable_classes, CachedAttrs, RefEntry, RefKind, RefTable};
use crate::score::{organization_score, person_score, publication_score, venue_score, Pool};
use crate::worklist::{allowed, propagate, Oracle};
use crate::{ReconConfig, UnionFind, Variant};
use semex_model::names::assoc as an;
use semex_model::ClassId;
use semex_store::{ObjectId, Store};
use std::borrow::Cow;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Outcome of a reconciliation run.
#[derive(Debug, Clone)]
pub struct ReconReport {
    /// The variant that ran.
    pub variant: Variant,
    /// Live references in the store (incremental runs included, though
    /// they only read the candidates' neighbourhoods).
    pub refs: usize,
    /// Candidate pairs after blocking.
    pub candidates: usize,
    /// Blocking statistics.
    pub blocking: BlockingStats,
    /// Merges applied to the store.
    pub merges: usize,
    /// Worklist iterations (candidate evaluations, including re-runs).
    pub iterations: usize,
    /// Propagation worklists run: 1 for a propagating variant with at least
    /// one candidate pair, else 0 (non-propagating variants evaluate each
    /// candidate exactly once).
    pub shards: usize,
    /// Pooled-score memo hits: re-activated candidates whose clusters had
    /// not changed, skipping pooling and attribute scoring entirely.
    pub memo_hits: usize,
    /// Wall-clock time of the reconciliation (excluding store mutation).
    pub elapsed: Duration,
    /// Wall-clock time per phase, store mutation included.
    pub phases: ReconPhases,
    /// Clusters with more than one member, as store object ids.
    pub clusters: Vec<Vec<ObjectId>>,
}

/// Wall-clock time of each phase of a reconciliation run. The phases run
/// one after the other, so their sum is at most the run's wall-clock time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReconPhases {
    /// Reference-table build, blocking and constraint resolution.
    pub blocking: Duration,
    /// The first scoring pass over singleton pools (the threaded phase).
    pub first_pass: Duration,
    /// The propagation worklist, or the single decision pass of the
    /// non-propagating variants.
    pub propagation: Duration,
    /// Applying the merges to the store.
    pub apply: Duration,
}

impl ReconPhases {
    /// Sum of the phases.
    pub fn total(&self) -> Duration {
        self.blocking + self.first_pass + self.propagation + self.apply
    }
}

/// Run reconciliation on a store and apply the resulting merges.
pub fn reconcile(store: &mut Store, variant: Variant, cfg: &ReconConfig) -> ReconReport {
    let start = Instant::now();
    let table = RefTable::build(store, cfg.max_fanout);
    let pairs = blocking::candidate_pairs(&table);
    let stats = BlockingStats::compute(&table, &pairs);
    run(store, variant, cfg, start, table, pairs, stats)
}

/// Incremental reconciliation: consider only candidate pairs that involve
/// at least one of `new_objects` (the references added since the last
/// run). Evidence still flows through the *whole* reference graph, so a
/// new reference can merge with any existing one; what is skipped is the
/// re-evaluation of old-old pairs, which previous runs already settled.
///
/// This blocks against a fresh [`BlockingIndex`], which costs one pass
/// over the store's references; a caller that reconciles the same store
/// again and again — the platform's ingest loop — keeps one index and
/// calls [`reconcile_incremental_with`] instead. Either way the outcome is
/// the one a full reference table would give.
pub fn reconcile_incremental(
    store: &mut Store,
    new_objects: &[ObjectId],
    variant: Variant,
    cfg: &ReconConfig,
) -> ReconReport {
    reconcile_incremental_with(store, &mut BlockingIndex::new(), new_objects, variant, cfg)
}

/// [`reconcile_incremental`] against a persistent blocking-key index: the
/// index is synced over the store slots added since its last use, the
/// candidate pairs come from the new references' buckets, and the run
/// works on a local reference table of the candidates' endpoints, the
/// constraint references and the endpoints' evidence neighbours. Its cost
/// follows the new references and their neighbourhoods, not the store.
///
/// The local table is indexed in the global reference order, so the
/// worklist, the union-find and the merge order see the same problem as a
/// run over the full table, and the merges are identical. The report
/// counts references and the quadratic pair space over the whole store.
pub fn reconcile_incremental_with(
    store: &mut Store,
    keys: &mut BlockingIndex,
    new_objects: &[ObjectId],
    variant: Variant,
    cfg: &ReconConfig,
) -> ReconReport {
    let start = Instant::now();
    keys.sync(store);
    let classes = reconcilable_classes(store);
    // The live reference a known id resolves to, if any.
    let live_ref = |o: ObjectId| -> Option<(ObjectId, ClassId, RefKind)> {
        store.object_raw(o)?;
        let live = store.resolve(o);
        let class = store.class_of(live);
        let &(_, kind) = classes.iter().find(|&&(c, _)| c == class)?;
        Some((live, class, kind))
    };

    // The new references and their candidate pairs, as live ids.
    let mut new_refs: Vec<_> = new_objects.iter().filter_map(|&o| live_ref(o)).collect();
    new_refs.sort_unstable_by_key(|&(o, _, _)| o);
    new_refs.dedup_by_key(|&mut (o, _, _)| o);
    let attrs = CachedAttrs::of(store);
    let entries: Vec<RefEntry> = new_refs
        .iter()
        .map(|&(o, class, kind)| RefEntry::of_object(store, &attrs, o, class, kind))
        .collect();
    let obj_pairs = keys.pairs_touching(store, &entries);

    let mut endpoints: Vec<ObjectId> = obj_pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
    endpoints.sort_unstable();
    endpoints.dedup();
    let constraint_refs = cfg
        .must_link
        .iter()
        .chain(&cfg.cannot_link)
        .flat_map(|&(a, b)| [a, b])
        .filter_map(|o| live_ref(o).map(|(live, _, _)| live));
    let mut attributed: Vec<ObjectId> = endpoints.iter().copied().chain(constraint_refs).collect();
    attributed.sort_unstable();
    attributed.dedup();
    let table = RefTable::local(store, &attributed, &endpoints, cfg.max_fanout);

    let mut pairs: Vec<(u32, u32)> = obj_pairs
        .iter()
        .map(|(a, b)| (table.index_of[a], table.index_of[b]))
        .collect();
    pairs.sort_unstable();
    let counts = classes.iter().map(|&(c, _)| store.class_count(c));
    let stats = BlockingStats {
        refs: counts.clone().sum(),
        pairs: pairs.len(),
        exhaustive_pairs: counts.map(|n| n * n.saturating_sub(1) / 2).sum(),
    };
    run(store, variant, cfg, start, table, pairs, stats)
}

/// Reconcile the blocked candidate `pairs` of `table` and apply the
/// merges; `start` is when blocking began.
fn run(
    store: &mut Store,
    variant: Variant,
    cfg: &ReconConfig,
    start: Instant,
    table: RefTable,
    pairs: Vec<(u32, u32)>,
    blocking_stats: BlockingStats,
) -> ReconReport {
    let n = table.len();

    // User feedback: resolve must-link and cannot-link pairs to reference
    // indices. Constraints naming non-reconcilable or unknown objects are
    // ignored.
    let ref_index = |o: ObjectId| -> Option<u32> {
        store.object_raw(o)?; // unknown ids are ignored, not fatal
        table.index_of.get(&store.resolve(o)).copied()
    };
    let cannot: Vec<(u32, u32)> = cfg
        .cannot_link
        .iter()
        .filter_map(|&(a, b)| Some((ref_index(a)?, ref_index(b)?)))
        .collect();
    let must_refs: Vec<(u32, u32)> = cfg
        .must_link
        .iter()
        .filter_map(|&(a, b)| Some((ref_index(a)?, ref_index(b)?)))
        .collect();

    let weights = channel_weights(store);
    let mut phases = ReconPhases {
        blocking: start.elapsed(),
        ..ReconPhases::default()
    };

    // Base attribute scores over singleton pools.
    let mark = Instant::now();
    let base = score_pairs(&table, &pairs, cfg.threads);
    phases.first_pass = mark.elapsed();

    let mark = Instant::now();
    let (mut uf, iterations, memo_hits, shards) = match variant {
        Variant::AttrOnly => {
            let uf = decide_once(n, &pairs, &must_refs, &cannot, cfg.threshold, |ci, _, _| {
                base[ci]
            });
            (uf, pairs.len(), 0, 0)
        }
        Variant::Context => {
            // Static association evidence: a neighbour pair counts as
            // "matching" when its *attribute* score is conclusive — no
            // decisions feed back.
            let pair_index: HashMap<(u32, u32), usize> =
                pairs.iter().enumerate().map(|(ci, &p)| (p, ci)).collect();
            let strong = |x: u32, y: u32| -> bool {
                if x == y {
                    return true;
                }
                let key = if x < y { (x, y) } else { (y, x) };
                pair_index
                    .get(&key)
                    .map(|&ci| base[ci] >= 0.9)
                    .unwrap_or(false)
            };
            let uf = decide_once(n, &pairs, &must_refs, &cannot, cfg.threshold, |ci, a, b| {
                combine(base[ci], evidence(&table, &weights, a, b, &strong), cfg)
            });
            (uf, pairs.len(), 0, 0)
        }
        Variant::Propagation | Variant::Full => {
            let mut oracle = TableOracle {
                table: &table,
                weights: &weights,
                base: &base,
                pairs: &pairs,
                cfg,
                enrich: variant.enriches(),
                persons: None,
            };
            let out = propagate(n, &pairs, &must_refs, &cannot, &mut oracle);
            let shards = usize::from(!pairs.is_empty());
            (out.uf, out.iterations, out.memo_hits, shards)
        }
    };
    phases.propagation = mark.elapsed();
    let elapsed = start.elapsed();

    // Materialize clusters and apply merges to the store.
    let mark = Instant::now();
    let mut clusters = Vec::new();
    let mut merge_pairs: Vec<(ObjectId, ObjectId)> = Vec::new();
    for cluster in uf.clusters() {
        if cluster.len() < 2 {
            continue;
        }
        let mut objs: Vec<ObjectId> = cluster.iter().map(|&i| table.entries[i].obj).collect();
        objs.sort();
        for &loser in &objs[1..] {
            merge_pairs.push((objs[0], loser));
        }
        clusters.push(objs);
    }
    let merges = store
        .merge_all(&merge_pairs)
        .expect("reconciliation merges are class-consistent by construction");
    phases.apply = mark.elapsed();

    ReconReport {
        variant,
        refs: blocking_stats.refs,
        candidates: pairs.len(),
        blocking: blocking_stats,
        merges,
        iterations,
        shards,
        memo_hits,
        elapsed,
        phases,
        clusters,
    }
}

/// The non-propagating variants: seed the must-links, then evaluate each
/// candidate exactly once, in order, merging those whose `score` clears the
/// threshold unless a cannot-link forbids it.
fn decide_once(
    n: usize,
    pairs: &[(u32, u32)],
    must: &[(u32, u32)],
    cannot: &[(u32, u32)],
    threshold: f64,
    score: impl Fn(usize, u32, u32) -> f64,
) -> UnionFind {
    let mut uf = UnionFind::new(n);
    for &(a, b) in must {
        uf.union(a as usize, b as usize);
    }
    for (ci, &(a, b)) in pairs.iter().enumerate() {
        if score(ci, a, b) >= threshold && allowed(&mut uf, a as usize, b as usize, cannot) {
            uf.union(a as usize, b as usize);
        }
    }
    uf
}

/// The production [`Oracle`]: scores from the reference table, evidence
/// over its channel graph.
struct TableOracle<'a> {
    table: &'a RefTable,
    weights: &'a HashMap<u32, f64>,
    base: &'a [f64],
    pairs: &'a [(u32, u32)],
    cfg: &'a ReconConfig,
    enrich: bool,
    /// The person-kernel memo, built by the first pooled person scoring.
    persons: Option<PersonMemo<'a>>,
}

impl Oracle for TableOracle<'_> {
    fn base(&self, ci: u32) -> f64 {
        self.base[ci as usize]
    }
    fn pooled_attr(&mut self, ci: u32, ma: &[u32], mb: &[u32]) -> f64 {
        let (a, _) = self.pairs[ci as usize];
        let kind = self.table.entries[a as usize].kind;
        if kind == RefKind::Person {
            let table = self.table;
            let memo = self.persons.get_or_insert_with(|| PersonMemo::new(table));
            return memo.pooled_score(ma, mb);
        }
        let pa = pooled(self.table, ma);
        let pb = pooled(self.table, mb);
        attr_score(kind, &pa, &pb)
    }
    fn evidence(&self, a: u32, b: u32, root_of: &mut dyn FnMut(u32) -> u64) -> f64 {
        evidence_tokens(self.table, self.weights, a, b, root_of)
    }
    fn combine(&self, attr: f64, ev: f64) -> f64 {
        combine(attr, ev, self.cfg)
    }
    fn threshold(&self) -> f64 {
        self.cfg.threshold
    }
    fn enrich(&self) -> bool {
        self.enrich
    }
    fn neighbors(&self, r: u32, sink: &mut dyn FnMut(u32)) {
        for x in self.table.entries[r as usize].all_neighbors() {
            sink(x);
        }
    }
}

/// Combined score: attribute similarity lifted toward 1 by association
/// evidence.
fn combine(attr: f64, ev: f64, cfg: &ReconConfig) -> f64 {
    (attr + cfg.evidence_weight * ev * (1.0 - attr)).clamp(0.0, 1.0)
}

/// Association evidence under the current clustering (propagation path):
/// per shared channel, resolve both neighbour lists to opaque cluster
/// tokens via `root_of`, then count matches — a direct scan for tiny
/// channels, a sorted-token intersection for large ones (O(n log n)
/// instead of the quadratic blow-up).
fn evidence_tokens(
    table: &RefTable,
    weights: &HashMap<u32, f64>,
    a: u32,
    b: u32,
    root_of: &mut dyn FnMut(u32) -> u64,
) -> f64 {
    let ea = &table.entries[a as usize];
    let eb = &table.entries[b as usize];
    let mut ev = 0.0f64;
    let mut roots_b: Vec<u64> = Vec::new();
    for (ch, na) in &ea.neighbors {
        let nb = eb.channel(*ch);
        if na.is_empty() || nb.is_empty() {
            continue;
        }
        // Typical neighbour lists are tiny (one venue, a few co-authors);
        // a direct scan beats sorting there. Large channels use the sorted
        // token intersection to avoid the quadratic blow-up.
        let mut shared = 0usize;
        if na.len() * nb.len() <= 64 {
            for &x in na {
                let rx = root_of(x);
                for &y in nb {
                    if y == x || root_of(y) == rx {
                        shared += 1;
                        break;
                    }
                }
            }
        } else {
            roots_b.clear();
            for &y in nb {
                roots_b.push(root_of(y));
            }
            roots_b.sort_unstable();
            for &x in na {
                if roots_b.binary_search(&root_of(x)).is_ok() {
                    shared += 1;
                }
            }
        }
        if shared == 0 {
            continue;
        }
        let frac = shared as f64 / na.len().min(nb.len()) as f64;
        let default = if ch & (1 << 24) != 0 { 0.25 } else { 0.4 };
        let w = weights.get(ch).copied().unwrap_or(default);
        ev = 1.0 - (1.0 - ev) * (1.0 - w * frac);
    }
    ev
}

/// Association evidence for a pair: per shared channel, the fraction of the
/// smaller neighbour set that matches the other side (under `same`),
/// weighted by the channel's evidential strength and combined noisy-or.
fn evidence(
    table: &RefTable,
    weights: &HashMap<u32, f64>,
    a: u32,
    b: u32,
    same: &dyn Fn(u32, u32) -> bool,
) -> f64 {
    let ea = &table.entries[a as usize];
    let eb = &table.entries[b as usize];
    let mut ev = 0.0f64;
    for (ch, na) in &ea.neighbors {
        let nb = eb.channel(*ch);
        if na.is_empty() || nb.is_empty() {
            continue;
        }
        let mut shared = 0usize;
        for &x in na {
            if nb.iter().any(|&y| same(x, y)) {
                shared += 1;
            }
        }
        if shared == 0 {
            continue;
        }
        let frac = shared as f64 / na.len().min(nb.len()) as f64;
        // Unlisted direct channels default to 0.4; unlisted two-hop
        // channels (e.g. correspondence through messages) are weaker —
        // people e-mail overlapping circles all the time.
        let default = if ch & (1 << 24) != 0 { 0.25 } else { 0.4 };
        let w = weights.get(ch).copied().unwrap_or(default);
        ev = 1.0 - (1.0 - ev) * (1.0 - w * frac);
    }
    ev
}

/// Evidential strength per channel. Sharing a venue is weak (every SIGMOD
/// paper shares it); sharing an author or a publication is strong.
fn channel_weights(store: &Store) -> HashMap<u32, f64> {
    use crate::refs::direct_channel;
    let model = store.model();
    let mut w = HashMap::new();
    let mut set = |name: &str, fwd: f64, inv: f64| {
        if let Some(a) = model.assoc(name) {
            w.insert(direct_channel(a.0, false), fwd);
            w.insert(direct_channel(a.0, true), inv);
        }
    };
    // Two *publication* references sharing an author is weak (the same
    // author writes many papers); two *person* references sharing a merged
    // publication is strong (an author list names each person once).
    set(an::AUTHORED_BY, 0.15, 0.85);
    set(an::PUBLISHED_IN, 0.15, 0.9); // pubs sharing a venue (weak) / venues sharing pubs (strong)
    set(an::WORKS_FOR, 0.25, 0.7); // people sharing an employer (weak-ish)
    set(an::CITES, 0.5, 0.5);
    set(an::MENTIONS, 0.3, 0.3);
    set(an::ATTENDEE, 0.4, 0.4);
    // Two-hop channels. The co-author channel (person → publication →
    // person) carries the strongest signal in the paper's PIM domain; hops
    // landing on venues or organizations are nearly vacuous and must not
    // lift ambiguous pairs on their own. Unlisted hop channels default to
    // 0.4 via the lookup fallback in `evidence`.
    {
        use crate::refs::hop_channel;
        let mut hop = |first: &str, second: &str, weight: f64| {
            if let (Some(a), Some(b)) = (model.assoc(first), model.assoc(second)) {
                w.insert(hop_channel(a.0, b.0), weight);
            }
        };
        hop(an::AUTHORED_BY, an::AUTHORED_BY, 0.85); // co-authors
        hop(an::AUTHORED_BY, an::PUBLISHED_IN, 0.05); // shared venue via papers
        hop(an::AUTHORED_BY, an::CITES, 0.1);
        hop(an::AUTHORED_BY, an::WORKS_FOR, 0.1); // papers sharing author employers
        hop(an::PUBLISHED_IN, an::AUTHORED_BY, 0.3); // venues sharing paper authors
        hop(an::WORKS_FOR, an::WORKS_FOR, 0.25);
        hop(an::MENTIONS, an::MENTIONS, 0.2);
        hop(an::ATTENDEE, an::ATTENDEE, 0.35); // co-attendees
    }
    w
}

/// Per-field cap on a cluster's pooled values, so a runaway cluster cannot
/// make scoring quadratic.
pub(crate) const POOL_CAP: usize = 12;

/// Pool the attribute values of a cluster's members: the first
/// [`POOL_CAP`] values of each field in member order, then repeats dropped.
/// Every comparator folds its value pairs with a max or an "any", so a
/// repeat adds nothing; it still counts towards the cap, which keeps the
/// admitted values those of the plain capped pool. Years keep their
/// repeats, because publication scoring reads the first one. Person
/// clusters are scored through [`PersonMemo`] instead, so names carry no
/// parses here.
fn pooled<'a>(table: &'a RefTable, members: &[u32]) -> Pool<'a> {
    let mut p = Pool::default();
    for &m in members {
        let e = &table.entries[m as usize];
        for v in &e.names {
            if p.names.len() < POOL_CAP {
                p.names.push(v.as_str());
            }
        }
        for v in &e.emails {
            if p.emails.len() < POOL_CAP {
                p.emails.push(v.as_str());
            }
        }
        for v in &e.titles {
            if p.titles.len() < POOL_CAP {
                p.titles.push(v.as_str());
            }
        }
        for v in &e.abbrevs {
            if p.abbrevs.len() < POOL_CAP {
                p.abbrevs.push(v.as_str());
            }
        }
        for &y in &e.years {
            if p.years.len() < POOL_CAP {
                p.years.to_mut().push(y);
            }
        }
    }
    drop_repeats(&mut p.names);
    drop_repeats(&mut p.emails);
    drop_repeats(&mut p.titles);
    drop_repeats(&mut p.abbrevs);
    p
}

/// Drop repeated values, keeping each one's first occurrence, in order.
/// Pools hold at most [`POOL_CAP`] values, so the quadratic scan is cheap.
pub(crate) fn drop_repeats<T: PartialEq>(v: &mut Vec<T>) {
    let mut kept = 0;
    for i in 0..v.len() {
        if !v[..kept].contains(&v[i]) {
            v.swap(kept, i);
            kept += 1;
        }
    }
    v.truncate(kept);
}

/// Singleton pool of one reference — every field borrows from the table.
fn singleton<'a>(table: &'a RefTable, i: u32) -> Pool<'a> {
    let e = &table.entries[i as usize];
    Pool {
        names: e.names.iter().map(String::as_str).collect(),
        parsed_names: e.parsed_names.iter().collect(),
        emails: e.emails.iter().map(String::as_str).collect(),
        titles: e.titles.iter().map(String::as_str).collect(),
        abbrevs: e.abbrevs.iter().map(String::as_str).collect(),
        years: Cow::Borrowed(e.years.as_slice()),
    }
}

/// Dispatch the per-class comparator.
fn attr_score(kind: RefKind, a: &Pool<'_>, b: &Pool<'_>) -> f64 {
    match kind {
        RefKind::Person => person_score(a, b),
        RefKind::Publication => publication_score(a, b),
        RefKind::Venue => venue_score(a, b),
        RefKind::Organization | RefKind::Other => organization_score(a, b),
    }
}

/// Score all candidate pairs over singleton pools, optionally in parallel.
fn score_pairs(table: &RefTable, pairs: &[(u32, u32)], threads: usize) -> Vec<f64> {
    if pairs.is_empty() {
        return Vec::new();
    }
    let score_one = |&(a, b): &(u32, u32)| -> f64 {
        let pa = singleton(table, a);
        let pb = singleton(table, b);
        attr_score(table.entries[a as usize].kind, &pa, &pb)
    };
    if threads <= 1 || pairs.len() < 512 {
        return pairs.iter().map(score_one).collect();
    }
    let chunk = pairs.len().div_ceil(threads);
    let mut out = vec![0.0; pairs.len()];
    std::thread::scope(|s| {
        let score_one = &score_one;
        for (slot, work) in out.chunks_mut(chunk).zip(pairs.chunks(chunk)) {
            s.spawn(move || {
                for (o, p) in slot.iter_mut().zip(work) {
                    *o = score_one(p);
                }
            });
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use semex_extract::{
        bibtex::extract_bibtex, email::extract_mbox, vcard::extract_vcards, ExtractContext,
    };
    use semex_model::names::{attr, class};
    use semex_store::{SourceInfo, SourceKind};

    fn store_with(bib: &str, mbox: &str, vcf: &str) -> Store {
        let mut st = Store::with_builtin_model();
        let src = st.register_source(SourceInfo::new("t", SourceKind::Synthetic));
        let mut ctx = ExtractContext::new(&mut st, src);
        if !bib.is_empty() {
            extract_bibtex(bib, &mut ctx).unwrap();
        }
        if !mbox.is_empty() {
            extract_mbox(mbox, &mut ctx).unwrap();
        }
        if !vcf.is_empty() {
            extract_vcards(vcf, &mut ctx).unwrap();
        }
        st
    }

    fn person_count(st: &Store) -> usize {
        st.class_count(st.model().class(class::PERSON).unwrap())
    }

    #[test]
    fn attr_only_merges_obvious_duplicates() {
        let mut st = store_with(
            "@inproceedings{a, title={T1 alpha beta}, author={Michael Carey}, booktitle={V}, year=2001}\n\
             @inproceedings{b, title={T2 gamma delta}, author={Michael J. Carey}, booktitle={V}, year=2002}",
            "",
            "",
        );
        assert_eq!(person_count(&st), 2);
        let r = reconcile(&mut st, Variant::AttrOnly, &ReconConfig::sequential());
        assert_eq!(person_count(&st), 1);
        assert_eq!(r.merges, 1);
        assert_eq!(r.clusters.len(), 1);
    }

    #[test]
    fn attr_only_leaves_ambiguous_initials_apart() {
        let mut st = store_with(
            "@inproceedings{a, title={T1 alpha beta}, author={M. Carey}, booktitle={V1}, year=2001}\n\
             @inproceedings{b, title={T2 gamma delta}, author={Michael Carey}, booktitle={V2}, year=2002}",
            "",
            "",
        );
        reconcile(&mut st, Variant::AttrOnly, &ReconConfig::sequential());
        assert_eq!(person_count(&st), 2, "initials alone must not merge");
    }

    #[test]
    fn context_uses_shared_coauthors() {
        // "M. Carey" and "Michael Carey" share a co-author who matches
        // conclusively on attributes → context evidence tips the pair.
        let bib = "@inproceedings{a, title={T1 alpha beta}, author={M. Carey and Alon Halevy}, booktitle={V1}, year=2001}\n\
                   @inproceedings{b, title={T2 gamma delta}, author={Michael Carey and Alon Halevy}, booktitle={V2}, year=2002}";
        let mut st1 = store_with(bib, "", "");
        reconcile(&mut st1, Variant::AttrOnly, &ReconConfig::sequential());
        // attr-only: Halevy merges (identical), Carey does not.
        assert_eq!(person_count(&st1), 3);

        let mut st2 = store_with(bib, "", "");
        let r = reconcile(&mut st2, Variant::Context, &ReconConfig::sequential());
        assert_eq!(
            person_count(&st2),
            2,
            "context must merge the Careys: {r:?}"
        );
    }

    #[test]
    fn propagation_chains_decisions() {
        // A two-link chain of ambiguity: the Dong pair is conclusive on
        // attributes; merging it gives the Carey pair its co-author
        // evidence; merging the Careys gives the Halevy pair *its*
        // co-author evidence. Context (static, one inference step) merges
        // the Careys but cannot reach the Halevys; propagation chains
        // through to all three.
        let bib = "@inproceedings{t1, title={T1 alpha beta}, author={M. Carey and Alon Halevy and Xin Dong}, booktitle={V1}, year=2001}\n\
                   @inproceedings{t2, title={T2 gamma delta}, author={Michael Carey and Dong, Xin}, booktitle={V2}, year=2002}\n\
                   @inproceedings{t3, title={T3 epsilon zeta}, author={Michael Carey and A. Halevy}, booktitle={V3}, year=2003}";
        // References: "M. Carey", "Michael Carey", "Alon Halevy",
        // "A. Halevy", "Xin Dong", "Dong, Xin" — three true people.
        let mut ctx_store = store_with(bib, "", "");
        reconcile(&mut ctx_store, Variant::Context, &ReconConfig::sequential());
        let after_context = person_count(&ctx_store);

        let mut prop_store = store_with(bib, "", "");
        let r = reconcile(
            &mut prop_store,
            Variant::Propagation,
            &ReconConfig::sequential(),
        );
        let after_prop = person_count(&prop_store);
        assert!(
            after_prop <= after_context,
            "propagation can only consolidate further ({after_prop} vs {after_context}); {r:?}"
        );
        assert_eq!(
            after_prop, 3,
            "Carey, Halevy and Dong all consolidate: {r:?}"
        );
        assert!(after_context > 3, "context alone must not finish the chain");
    }

    #[test]
    fn enrichment_pools_emails() {
        // Reference 1: "M. Carey" + mcarey@ibm.com (from e-mail).
        // Reference 2: "Michael Carey" + mcarey@ibm.com (vCard) — merges
        // with 1 via the shared address. Reference 3: "Michael Carey"
        // (bib, no e-mail) — ambiguous against 1, conclusive against 2;
        // after 2 and 3 merge, enrichment gives the cluster the address.
        let mbox = "From: M. Carey <mcarey@ibm.com>\nTo: someone@x.edu\nSubject: s\n\nb";
        let vcf = "BEGIN:VCARD\nFN:Michael Carey\nEMAIL:mcarey@ibm.com\nEND:VCARD\n";
        let bib =
            "@inproceedings{a, title={T1 alpha}, author={Michael Carey}, booktitle={V}, year=2001}";
        let mut st = store_with(bib, mbox, vcf);
        assert_eq!(person_count(&st), 4); // 3 Carey refs + someone@x.edu
        let r = reconcile(&mut st, Variant::Full, &ReconConfig::sequential());
        assert_eq!(person_count(&st), 2, "{r:?}");
    }

    #[test]
    fn publications_and_venues_reconcile() {
        let bib = "@inproceedings{a, title={Adaptive federated queries over archives}, author={Ann Walker}, booktitle={International Conference on Management of Data}, year=2004}\n\
                   @inproceedings{b, title={Adaptive federated queries archives}, author={Walker, Ann}, booktitle={ICMD}, year=2004}";
        let mut st = store_with(bib, "", "");
        let model_pub = st.model().class(class::PUBLICATION).unwrap();
        let model_venue = st.model().class(class::VENUE).unwrap();
        assert_eq!(st.class_count(model_pub), 2);
        assert_eq!(st.class_count(model_venue), 2);
        reconcile(&mut st, Variant::Full, &ReconConfig::sequential());
        assert_eq!(st.class_count(model_pub), 1);
        assert_eq!(st.class_count(model_venue), 1);
        assert_eq!(person_count(&st), 1);
    }

    #[test]
    fn merged_objects_pool_attributes_in_store() {
        let mbox = "From: Michael Carey <mcarey@ibm.com>\nTo: a@b.c\nSubject: s\n\nb";
        let vcf =
            "BEGIN:VCARD\nFN:Michael J. Carey\nEMAIL:mcarey@ibm.com\nTEL:+1-555-1234\nEND:VCARD\n";
        let mut st = store_with("", mbox, vcf);
        reconcile(&mut st, Variant::Full, &ReconConfig::sequential());
        let c_person = st.model().class(class::PERSON).unwrap();
        let a_name = st.model().attr(attr::NAME).unwrap();
        let carey = st
            .objects_of_class(c_person)
            .find(|&p| st.object(p).strs(a_name).any(|n| n.contains("Carey")))
            .unwrap();
        let names: Vec<&str> = st.object(carey).strs(a_name).collect();
        assert!(
            names.len() >= 2,
            "both spellings survive on the merged object: {names:?}"
        );
    }

    #[test]
    fn variant_ladder_is_monotone_on_a_small_corpus() {
        let bib = "@inproceedings{a, title={Alpha beta gamma delta}, author={M. Carey and A. Halevy and Xin Dong}, booktitle={V1}, year=2001}\n\
                   @inproceedings{b, title={Epsilon zeta eta theta}, author={Michael Carey and Alon Halevy}, booktitle={V2}, year=2002}\n\
                   @inproceedings{c, title={Iota kappa lambda mu}, author={Mike Carey and Halevy, Alon and Dong, Xin}, booktitle={V1}, year=2003}";
        let mut counts = Vec::new();
        for v in Variant::ALL {
            let mut st = store_with(bib, "", "");
            reconcile(&mut st, v, &ReconConfig::sequential());
            counts.push(person_count(&st));
        }
        // More machinery ⇒ at most as many surviving person objects.
        assert!(counts.windows(2).all(|w| w[1] <= w[0]), "{counts:?}");
    }

    #[test]
    fn parallel_scoring_matches_sequential() {
        let bib: String = (0..40)
            .map(|i| {
                format!(
                    "@inproceedings{{k{i}, title={{Paper number {i} on caches}}, author={{Person{} Name{}}}, booktitle={{V{}}}, year={}}}\n",
                    i % 7, i % 7, i % 3, 2000 + (i % 5)
                )
            })
            .collect();
        let mut st1 = store_with(&bib, "", "");
        let mut st2 = store_with(&bib, "", "");
        let seq = reconcile(&mut st1, Variant::Full, &ReconConfig::sequential());
        let par = reconcile(
            &mut st2,
            Variant::Full,
            &ReconConfig {
                threads: 4,
                ..ReconConfig::default()
            },
        );
        assert_eq!(seq.merges, par.merges);
        assert_eq!(seq.clusters, par.clusters);
        assert_eq!(seq.iterations, par.iterations, "same worklist");
        assert_eq!(seq.memo_hits, par.memo_hits);
    }

    #[test]
    fn shards_count_propagating_runs_with_candidates() {
        // Two independent families of duplicates still run as one worklist.
        let bib = "@inproceedings{a, title={T1 alpha beta}, author={Michael Carey}, booktitle={V1}, year=2001}\n\
                   @inproceedings{b, title={T2 gamma delta}, author={Michael J. Carey}, booktitle={V1}, year=2002}\n\
                   @inproceedings{c, title={T3 epsilon zeta}, author={Laura Bennett}, booktitle={V2}, year=2003}\n\
                   @inproceedings{d, title={T4 eta theta}, author={Laura J. Bennett}, booktitle={V2}, year=2004}";
        for v in Variant::ALL {
            let mut st = store_with(bib, "", "");
            let r = reconcile(&mut st, v, &ReconConfig::sequential());
            assert!(r.candidates > 0, "{v}: {r:?}");
            assert_eq!(r.shards, usize::from(v.propagates()), "{v}: {r:?}");
            if !v.enriches() {
                assert_eq!(r.memo_hits, 0, "{v}: only pooled scores are memoized");
            }
        }
        let mut empty = Store::with_builtin_model();
        for v in Variant::ALL {
            let r = reconcile(&mut empty, v, &ReconConfig::sequential());
            assert_eq!(r.shards, 0, "{v}: no candidates, no worklist");
        }
    }

    #[test]
    fn cannot_link_vetoes_transitively() {
        // Two identical-name references would merge; the user says no.
        let bib = "@inproceedings{a, title={T1 alpha beta}, author={Michael Carey}, booktitle={V1}, year=2001}\n\
                   @inproceedings{b, title={T2 gamma delta}, author={Michael J. Carey}, booktitle={V2}, year=2002}";
        let mut st = store_with(bib, "", "");
        let c = st.model().class(class::PERSON).unwrap();
        let people: Vec<_> = st.objects_of_class(c).collect();
        assert_eq!(people.len(), 2);
        let cfg = ReconConfig {
            cannot_link: vec![(people[0], people[1])],
            ..ReconConfig::sequential()
        };
        let r = reconcile(&mut st, Variant::Full, &cfg);
        assert_eq!(person_count(&st), 2, "{r:?}");
    }

    #[test]
    fn must_link_seeds_and_propagates() {
        // "Q. Carey" and "Zed Nobody" would never merge on their own; the
        // user asserts they are the same, and that seed survives into the
        // final clustering.
        let bib = "@inproceedings{a, title={T1 alpha beta}, author={Q. Carey}, booktitle={V1}, year=2001}\n\
                   @inproceedings{b, title={T2 gamma delta}, author={Zed Nobody}, booktitle={V2}, year=2002}";
        let mut st = store_with(bib, "", "");
        let c = st.model().class(class::PERSON).unwrap();
        let people: Vec<_> = st.objects_of_class(c).collect();
        let cfg = ReconConfig {
            must_link: vec![(people[0], people[1])],
            ..ReconConfig::sequential()
        };
        reconcile(&mut st, Variant::Full, &cfg);
        assert_eq!(person_count(&st), 1);
    }

    #[test]
    fn constraints_on_unknown_objects_are_ignored() {
        let bib =
            "@inproceedings{a, title={T1 alpha}, author={Solo Author}, booktitle={V}, year=2001}";
        let mut st = store_with(bib, "", "");
        let cfg = ReconConfig {
            must_link: vec![(semex_store::ObjectId(9999), semex_store::ObjectId(10000))],
            cannot_link: vec![(semex_store::ObjectId(9999), semex_store::ObjectId(10000))],
            ..ReconConfig::sequential()
        };
        let r = reconcile(&mut st, Variant::Full, &cfg);
        assert_eq!(r.merges, 0);
    }

    #[test]
    fn pooled_drops_repeats_after_the_cap_and_keeps_years() {
        // Raw names N0 N0 N1 N1 N2 N2 N0 N3 N1 N4 N2 N5 | N0 N6 N1 N7: the
        // cap admits the first twelve, of which six are distinct. Dropping
        // repeats first would admit N6 and N7 as well.
        let entries = (0..8)
            .map(|i| crate::RefEntry {
                names: vec![format!("N{}", i % 3), format!("N{i}")],
                titles: vec!["Same title".to_owned()],
                years: vec![2000 + i64::from(i % 2 == 1), 2000],
                ..Default::default()
            })
            .collect();
        let table = RefTable {
            entries,
            index_of: HashMap::new(),
        };
        let members: Vec<u32> = (0..8).collect();
        let p = pooled(&table, &members);
        assert_eq!(p.names, ["N0", "N1", "N2", "N3", "N4", "N5"]);
        assert_eq!(p.titles, ["Same title"]);
        // Years keep their repeats and order, capped at twelve.
        let raw: Vec<i64> = table.entries.iter().flat_map(|e| e.years.clone()).collect();
        assert_eq!(*p.years, raw[..POOL_CAP]);
    }

    #[test]
    fn phases_are_timed_and_fit_in_the_run() {
        let bib = "@inproceedings{a, title={T1 alpha beta}, author={Michael Carey}, booktitle={V1}, year=2001}\n\
                   @inproceedings{b, title={T2 gamma delta}, author={Michael J. Carey}, booktitle={V1}, year=2002}";
        let mut st = store_with(bib, "", "");
        let wall = Instant::now();
        let r = reconcile(&mut st, Variant::Full, &ReconConfig::sequential());
        let wall = wall.elapsed();
        let p = r.phases;
        assert!(r.merges > 0, "{r:?}");
        for (phase, t) in [
            ("blocking", p.blocking),
            ("first pass", p.first_pass),
            ("propagation", p.propagation),
            ("apply", p.apply),
        ] {
            assert!(t > Duration::ZERO, "{phase} not timed: {p:?}");
        }
        assert!(
            p.blocking + p.first_pass + p.propagation <= r.elapsed,
            "{p:?}"
        );
        assert!(p.total() <= wall, "{p:?} vs {wall:?}");
    }

    #[test]
    fn empty_store_is_fine() {
        let mut st = Store::with_builtin_model();
        let r = reconcile(&mut st, Variant::Full, &ReconConfig::sequential());
        assert_eq!(r.refs, 0);
        assert_eq!(r.merges, 0);
        assert!(r.clusters.is_empty());
    }
}
