//! The propagation worklist.
//!
//! [`propagate`] computes the engine's dependency-graph fixed point: a FIFO
//! of candidate evaluations with merge-triggered re-activation, one
//! union-find and members table over the reference indices, and a
//! pooled-attribute-score memo. Scoring is abstracted behind [`Oracle`] so
//! the worklist can be driven by the real reference table or by a test
//! double.

use crate::UnionFind;
use std::collections::VecDeque;

/// Scoring and graph callbacks the worklist needs from the engine.
///
/// `root_of` in [`Oracle::evidence`] maps a reference index to an opaque
/// cluster token: two references get the same token iff they are currently
/// clustered together.
pub(crate) trait Oracle {
    /// Singleton-pool attribute score of candidate `ci`.
    fn base(&self, ci: u32) -> f64;
    /// Pooled attribute score of candidate `ci` over the two clusters'
    /// member lists (reference indices, in merge order).
    fn pooled_attr(&mut self, ci: u32, ma: &[u32], mb: &[u32]) -> f64;
    /// Association evidence for the pair `(a, b)` under the clustering
    /// described by `root_of`.
    fn evidence(&self, a: u32, b: u32, root_of: &mut dyn FnMut(u32) -> u64) -> f64;
    /// Combine an attribute score with association evidence.
    fn combine(&self, attr: f64, ev: f64) -> f64;
    /// Merge threshold.
    fn threshold(&self) -> f64;
    /// Whether clusters pool attributes (reference enrichment).
    fn enrich(&self) -> bool;
    /// Every evidence neighbour of reference `r`, any channel.
    fn neighbors(&self, r: u32, sink: &mut dyn FnMut(u32));
}

/// What the worklist produced.
pub(crate) struct Outcome {
    /// Candidate evaluations, including re-runs.
    pub iterations: usize,
    /// Pooled-score memo hits (evaluations that skipped pooling + scoring).
    pub memo_hits: usize,
    /// The final clustering of all references.
    pub uf: UnionFind,
}

/// A union of `a` and `b` is allowed iff it would not connect any
/// cannot-link pair.
pub(crate) fn allowed(uf: &mut UnionFind, a: usize, b: usize, cannot: &[(u32, u32)]) -> bool {
    if cannot.is_empty() {
        return true;
    }
    let (ra, rb) = (uf.find(a), uf.find(b));
    for &(x, y) in cannot {
        let (rx, ry) = (uf.find(x as usize), uf.find(y as usize));
        if (rx == ra && ry == rb) || (rx == rb && ry == ra) {
            return false;
        }
    }
    true
}

/// Union the clusters of `a` and `b` (which must differ) and append the
/// loser's members to the winner's list; returns the new root.
fn join(uf: &mut UnionFind, members: &mut [Vec<u32>], a: usize, b: usize) -> usize {
    let (ra, rb) = (uf.find(a), uf.find(b));
    uf.union(ra, rb);
    let root = uf.find(ra);
    let other = if root == ra { rb } else { ra };
    let moved = std::mem::take(&mut members[other]);
    members[root].extend(moved);
    root
}

/// Run the propagation worklist over `n` references and the candidate
/// `pairs`. `must` and `cannot` are resolved constraint pairs: must-links
/// are seeded in order before any evaluation, cannot-links veto merges.
pub(crate) fn propagate<O: Oracle>(
    n: usize,
    pairs: &[(u32, u32)],
    must: &[(u32, u32)],
    cannot: &[(u32, u32)],
    oracle: &mut O,
) -> Outcome {
    let k = pairs.len();
    let mut uf = UnionFind::new(n);
    let mut members: Vec<Vec<u32>> = (0..n as u32).map(|r| vec![r]).collect();

    // Cluster-version counters for the memo: bumped whenever a cluster's
    // member list changes, so a memoized score is valid iff both endpoint
    // roots still carry the version it was computed under.
    let mut version: Vec<u32> = vec![0; n];
    let mut next_version: u32 = 0;

    for &(a, b) in must {
        if !uf.same(a as usize, b as usize) {
            let root = join(&mut uf, &mut members, a as usize, b as usize);
            next_version += 1;
            version[root] = next_version;
        }
    }

    // Incidence: reference → candidate indices, ascending.
    let mut incident: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (ci, &(a, b)) in pairs.iter().enumerate() {
        incident[a as usize].push(ci as u32);
        incident[b as usize].push(ci as u32);
    }

    let mut queue: VecDeque<u32> = (0..k as u32).collect();
    let mut queued = vec![true; k];
    let mut decided = vec![false; k];
    // Memo entries: (root_a, version_a, root_b, version_b, score).
    type MemoEntry = (u32, u32, u32, u32, f64);
    let mut memo: Vec<Option<MemoEntry>> = vec![None; k];
    let cap = k.saturating_mul(64).max(1024);
    let mut iterations = 0usize;
    let mut memo_hits = 0usize;

    while let Some(ci) = queue.pop_front() {
        let i = ci as usize;
        queued[i] = false;
        if decided[i] {
            continue;
        }
        iterations += 1;
        if iterations > cap {
            break; // safety valve; monotone merging makes this unreachable in practice
        }
        let (a, b) = pairs[i];
        let (ia, ib) = (a as usize, b as usize);
        if uf.same(ia, ib) {
            decided[i] = true;
            continue;
        }
        let attr = if oracle.enrich() {
            let (ra, rb) = (uf.find(ia), uf.find(ib));
            let key = (ra as u32, version[ra], rb as u32, version[rb]);
            match memo[i] {
                Some((ka, va, kb, vb, s)) if (ka, va, kb, vb) == key => {
                    memo_hits += 1;
                    s
                }
                _ => {
                    let s = oracle.pooled_attr(ci, &members[ra], &members[rb]);
                    memo[i] = Some((key.0, key.1, key.2, key.3, s));
                    s
                }
            }
        } else {
            oracle.base(ci)
        };
        let ev = oracle.evidence(a, b, &mut |r| uf.find_const(r as usize) as u64);
        let combined = oracle.combine(attr, ev);
        if combined < oracle.threshold() {
            continue; // may be re-activated by a future merge
        }
        if !allowed(&mut uf, ia, ib, cannot) {
            decided[i] = true; // permanently vetoed
            continue;
        }
        let root = join(&mut uf, &mut members, ia, ib);
        next_version += 1;
        version[root] = next_version;
        decided[i] = true;

        // Re-activate candidates whose evidence (or pool) changed:
        // everything incident to the merged references' neighbours, and —
        // under enrichment — to the merged cluster itself.
        let mut touched: Vec<u32> = Vec::new();
        for &r in [a, b].iter() {
            oracle.neighbors(r, &mut |x| touched.push(x));
        }
        if oracle.enrich() {
            touched.extend(members[root].iter().copied());
        }
        touched.sort_unstable();
        touched.dedup();
        for t in touched {
            for &cid in &incident[t as usize] {
                if !queued[cid as usize] && !decided[cid as usize] {
                    queued[cid as usize] = true;
                    queue.push_back(cid);
                }
            }
        }
    }

    Outcome {
        iterations,
        memo_hits,
        uf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// An oracle over an explicit score table and neighbour graph. When
    /// `evidence_if_same` maps a candidate pair to a reference pair, the
    /// candidate gains evidence 1.0 once that reference pair shares a
    /// cluster token — enough to model propagation chains without a
    /// reference table.
    struct FixedOracle {
        base: Vec<f64>,
        evidence_if_same: HashMap<(u32, u32), (u32, u32)>,
        neighbors: Vec<Vec<u32>>,
        threshold: f64,
        enrich: bool,
    }

    impl FixedOracle {
        fn plain(base: Vec<f64>, neighbors: Vec<Vec<u32>>, enrich: bool) -> FixedOracle {
            FixedOracle {
                base,
                evidence_if_same: HashMap::new(),
                neighbors,
                threshold: 0.82,
                enrich,
            }
        }
    }

    impl Oracle for FixedOracle {
        fn base(&self, ci: u32) -> f64 {
            self.base[ci as usize]
        }
        fn pooled_attr(&mut self, ci: u32, _ma: &[u32], _mb: &[u32]) -> f64 {
            self.base[ci as usize]
        }
        fn evidence(&self, a: u32, b: u32, root_of: &mut dyn FnMut(u32) -> u64) -> f64 {
            match self.evidence_if_same.get(&(a, b)) {
                Some(&(x, y)) if root_of(x) == root_of(y) => 1.0,
                _ => 0.0,
            }
        }
        fn combine(&self, attr: f64, ev: f64) -> f64 {
            (attr + ev).clamp(0.0, 1.0)
        }
        fn threshold(&self) -> f64 {
            self.threshold
        }
        fn enrich(&self) -> bool {
            self.enrich
        }
        fn neighbors(&self, r: u32, sink: &mut dyn FnMut(u32)) {
            for &n in &self.neighbors[r as usize] {
                sink(n);
            }
        }
    }

    /// Multi-member clusters of a run, ascending.
    fn clusters(out: &mut Outcome) -> Vec<Vec<usize>> {
        out.uf
            .clusters()
            .into_iter()
            .filter(|c| c.len() >= 2)
            .collect()
    }

    #[test]
    fn conclusive_pairs_merge_and_chain() {
        // 0-1 conclusive, 1-2 conclusive: one cluster of three.
        let pairs = [(0, 1), (1, 2)];
        let mut oracle = FixedOracle::plain(vec![0.9, 0.9], vec![vec![], vec![], vec![]], false);
        let mut out = propagate(3, &pairs, &[], &[], &mut oracle);
        assert_eq!(clusters(&mut out), vec![vec![0, 1, 2]]);
        assert_eq!(out.iterations, 2);
    }

    #[test]
    fn below_threshold_pairs_stay_apart() {
        let pairs = [(0, 1)];
        let mut oracle = FixedOracle::plain(vec![0.5], vec![vec![], vec![]], false);
        let mut out = propagate(2, &pairs, &[], &[], &mut oracle);
        assert!(clusters(&mut out).is_empty());
    }

    #[test]
    fn merges_reactivate_and_chain_through_evidence() {
        // Pair (0,1) is ambiguous alone but conclusive once 2 and 3 merge;
        // the 2-3 merge touches neighbour 0 and re-activates it.
        let pairs = [(0, 1), (2, 3)];
        let mut oracle = FixedOracle::plain(
            vec![0.7, 0.9],
            vec![vec![2], vec![3], vec![0], vec![1]],
            false,
        );
        oracle.evidence_if_same.insert((0, 1), (2, 3));
        let mut out = propagate(4, &pairs, &[], &[], &mut oracle);
        assert_eq!(clusters(&mut out), vec![vec![0, 1], vec![2, 3]]);
        assert!(out.iterations >= 3, "pair (0,1) must be re-evaluated");
    }

    #[test]
    fn cannot_link_vetoes_and_must_link_seeds() {
        let pairs = [(0, 1), (2, 3)];
        let mut oracle =
            FixedOracle::plain(vec![0.9, 0.1], vec![vec![], vec![], vec![], vec![]], false);
        let mut out = propagate(4, &pairs, &[(2, 3)], &[(0, 1)], &mut oracle);
        // 0-1 scores high but is vetoed; 2-3 scores low but is seeded.
        assert_eq!(clusters(&mut out), vec![vec![2, 3]]);
    }

    #[test]
    fn memo_skips_unchanged_rescores() {
        // Pair (0,1) is below threshold; merging (2,3) re-activates it via
        // the neighbour graph but changes neither of its clusters, so the
        // second evaluation is a memo hit.
        let pairs = [(0, 1), (2, 3)];
        let mut oracle = FixedOracle::plain(
            vec![0.5, 0.9],
            // 2's merge touches neighbour 0, re-activating pair (0,1).
            vec![vec![], vec![], vec![0], vec![]],
            true,
        );
        let mut out = propagate(4, &pairs, &[], &[], &mut oracle);
        assert_eq!(clusters(&mut out), vec![vec![2, 3]]);
        assert!(out.iterations >= 3, "pair (0,1) re-evaluated");
        assert_eq!(out.memo_hits, 1, "unchanged clusters skip rescoring");
    }
}
