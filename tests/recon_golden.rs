//! Golden reconciliation: the Full variant, run sequentially on a few tiny
//! synthetic corpora and on the paper-sized one, must reproduce exactly the
//! recorded counts and clustering. Any change to blocking, scoring, the worklist order or the
//! memo that alters a single evaluation or merge trips this test, so an
//! optimisation that claims to preserve answers has to keep it green
//! unchanged.

mod common;

use common::extract_corpus;
use semex::corpus::{generate_personal, CorpusConfig};
use semex::recon::{reconcile, ReconConfig, Variant};
use semex::store::ObjectId;

/// What one run is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    refs: usize,
    candidates: usize,
    iterations: usize,
    memo_hits: usize,
    merges: usize,
    /// FNV-1a over the sorted clusters (see [`fingerprint`]).
    clusters: u64,
}

/// FNV-1a (64-bit) over the clusters: each cluster's ids sorted, clusters
/// sorted, every id as 8 little-endian bytes and each cluster closed by
/// eight 0xff bytes.
fn fingerprint(clusters: &[Vec<ObjectId>]) -> u64 {
    let mut sorted: Vec<Vec<ObjectId>> = clusters.to_vec();
    for c in &mut sorted {
        c.sort();
    }
    sorted.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: [u8; 8]| {
        for b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for c in &sorted {
        for id in c {
            eat(id.0.to_le_bytes());
        }
        eat(u64::MAX.to_le_bytes());
    }
    h
}

fn run(cfg: &CorpusConfig) -> Golden {
    let corpus = generate_personal(cfg);
    let mut store = extract_corpus(&corpus);
    let r = reconcile(&mut store, Variant::Full, &ReconConfig::sequential());
    Golden {
        refs: r.refs,
        candidates: r.candidates,
        iterations: r.iterations,
        memo_hits: r.memo_hits,
        merges: r.merges,
        clusters: fingerprint(&r.clusters),
    }
}

#[test]
fn full_reconciliation_matches_the_recorded_runs() {
    let expected = [
        (
            1,
            Golden {
                refs: 181,
                candidates: 571,
                iterations: 745,
                memo_hits: 42,
                merges: 118,
                clusters: 0xa371_7139_45ed_87dc,
            },
        ),
        (
            6,
            Golden {
                refs: 182,
                candidates: 956,
                iterations: 1660,
                memo_hits: 185,
                merges: 115,
                clusters: 0xa6c6_01c5_a055_ffec,
            },
        ),
        (
            11,
            Golden {
                refs: 183,
                candidates: 498,
                iterations: 705,
                memo_hits: 45,
                merges: 115,
                clusters: 0xd106_471e_0fe8_28c2,
            },
        ),
        (
            25,
            Golden {
                refs: 217,
                candidates: 1078,
                iterations: 1519,
                memo_hits: 122,
                merges: 140,
                clusters: 0x2d49_2a7f_e9eb_39a2,
            },
        ),
    ];
    for (seed, want) in expected {
        assert_eq!(
            run(&CorpusConfig::tiny(seed)),
            want,
            "tiny corpus seed {seed}"
        );
    }
}

/// The paper-sized corpus every experiment and the `serve_mixed` build use
/// (`CorpusConfig::default()`, seed 2005): at this scale clusters grow past
/// the pool cap and pools repeat values, which the tiny corpora rarely
/// exercise.
#[test]
fn full_reconciliation_matches_the_recorded_paper_run() {
    let want = Golden {
        refs: 1786,
        candidates: 27_603,
        iterations: 46_474,
        memo_hits: 6_404,
        merges: 1_223,
        clusters: 0x699c_7313_f2c1_c00e,
    };
    assert_eq!(run(&CorpusConfig::default()), want, "paper corpus");
}
