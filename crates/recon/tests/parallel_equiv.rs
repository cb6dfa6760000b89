//! Property test: reconciliation at any thread count is **byte-identical**
//! to sequential execution — for every [`Variant`], on randomized corpora,
//! with randomized must-link / cannot-link feedback.
//!
//! This is the hard guarantee behind [`semex_recon::ReconConfig::threads`]:
//! splitting the first scoring pass across workers must never change a
//! single merge, cluster, or even the iteration count, and must-links and
//! cannot-links must be honoured the same way at every thread count.

use proptest::prelude::*;
use semex_extract::{bibtex::extract_bibtex, email::extract_mbox, ExtractContext};
use semex_recon::{reconcile, ReconConfig, RefTable, Variant};
use semex_store::{SourceInfo, SourceKind, Store};

const GIVEN: &[&str] = &[
    "Michael", "Alon", "Xin", "Ann", "Bob", "Jayant", "Luna", "Zack",
];
const SURNAMES: &[&str] = &[
    "Carey", "Halevy", "Dong", "Walker", "Fisher", "Madhavan", "Bennett", "Ives",
];
const WORDS: &[&str] = &[
    "semantic",
    "desktop",
    "search",
    "data",
    "integration",
    "reconciliation",
    "references",
    "personal",
    "information",
    "management",
    "streaming",
    "joins",
];
const VENUES: &[&str] = &["SIGMOD", "VLDB", "CIDR", "WebDB"];

fn author(g: usize, s: usize, form: u8) -> String {
    let (g, s) = (GIVEN[g % GIVEN.len()], SURNAMES[s % SURNAMES.len()]);
    match form % 3 {
        0 => format!("{g} {s}"),
        1 => format!("{s}, {g}"),
        _ => format!("{}. {s}", &g[..1]),
    }
}

type PubSpec = (Vec<(usize, usize, u8)>, Vec<usize>, usize, i64);
type MailSpec = ((usize, usize), (usize, usize), usize);

/// Render a random corpus as one bibtex string plus individual messages.
/// Sampling names and title words from small pools guarantees candidate
/// pairs, shared-evidence links and multi-reference clusters.
fn render(pubs: &[PubSpec], mails: &[MailSpec]) -> (String, Vec<String>) {
    let mut bib = String::new();
    for (i, (authors, title, venue, year)) in pubs.iter().enumerate() {
        let authors: Vec<String> = authors.iter().map(|&(g, s, f)| author(g, s, f)).collect();
        let title: Vec<&str> = title.iter().map(|&w| WORDS[w % WORDS.len()]).collect();
        bib.push_str(&format!(
            "@inproceedings{{p{i}, title={{{}}}, author={{{}}}, booktitle={{{}}}, year={year}}}\n",
            title.join(" "),
            authors.join(" and "),
            VENUES[venue % VENUES.len()],
        ));
    }
    let mail = |&(g, s): &(usize, usize)| {
        let (g, s) = (GIVEN[g % GIVEN.len()], SURNAMES[s % SURNAMES.len()]);
        format!("{g} {s} <{}.{}@x.edu>", g.to_lowercase(), s.to_lowercase())
    };
    let mails = mails
        .iter()
        .map(|(from, to, subj)| {
            format!(
                "From: {}\nTo: {}\nSubject: about {}\n\nbody\n",
                mail(from),
                mail(to),
                WORDS[subj % WORDS.len()],
            )
        })
        .collect();
    (bib, mails)
}

fn corpus_strategy() -> impl Strategy<Value = (String, Vec<String>)> {
    let author = (0..GIVEN.len(), 0..SURNAMES.len(), any::<u8>());
    let publication = (
        prop::collection::vec(author, 1..4),
        prop::collection::vec(0..WORDS.len(), 2..6),
        0..VENUES.len(),
        2001i64..2006,
    );
    let mail = (
        (0..GIVEN.len(), 0..SURNAMES.len()),
        (0..GIVEN.len(), 0..SURNAMES.len()),
        0..WORDS.len(),
    );
    (
        prop::collection::vec(publication, 2..10),
        prop::collection::vec(mail, 0..6),
    )
        .prop_map(|(pubs, mails)| render(&pubs, &mails))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn parallel_reconciliation_is_byte_identical(
        (bib, mails) in corpus_strategy(),
        links in prop::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 0..4),
    ) {
        let mut store = Store::with_builtin_model();
        let src = store.register_source(SourceInfo::new("t", SourceKind::Synthetic));
        let mut ctx = ExtractContext::new(&mut store, src);
        extract_bibtex(&bib, &mut ctx).unwrap();
        for m in &mails {
            extract_mbox(m, &mut ctx).unwrap();
        }

        // Random user feedback over same-class reference pairs.
        let table = RefTable::build(&store, 64);
        let mut must = Vec::new();
        let mut cannot = Vec::new();
        if !table.is_empty() {
            for &(a, b, is_must) in &links {
                let ea = &table.entries[a as usize % table.len()];
                let eb = &table.entries[b as usize % table.len()];
                if ea.obj == eb.obj || ea.class != eb.class {
                    continue;
                }
                if is_must {
                    must.push((ea.obj, eb.obj));
                } else {
                    cannot.push((ea.obj, eb.obj));
                }
            }
        }
        // Drop directly contradictory feedback; that input is undefined.
        cannot.retain(|&(a, b)| !must.contains(&(a, b)) && !must.contains(&(b, a)));

        for variant in Variant::ALL {
            let run = |threads: usize| {
                let mut st = store.clone();
                let cfg = ReconConfig {
                    threads,
                    must_link: must.clone(),
                    cannot_link: cannot.clone(),
                    ..ReconConfig::default()
                };
                let r = reconcile(&mut st, variant, &cfg);
                (r.merges, r.iterations, r.shards, r.clusters, st.object_count())
            };
            let seq = run(1);
            for threads in [2usize, 4, 8] {
                let par = run(threads);
                prop_assert_eq!(
                    &seq, &par,
                    "variant {} diverged at {} threads", variant, threads
                );
            }
        }
    }
}
