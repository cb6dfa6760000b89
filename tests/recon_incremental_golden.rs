//! Golden incremental reconciliation: build a space, then replay a seeded
//! sequence of writes through the facade — mbox and vCard ingests naming
//! existing people, `assert_same` on merges the build missed, one
//! `assert_distinct` and one CSV `integrate` — and pin every step's
//! counters plus the final alias structure of the whole store.
//!
//! Every ingest reconciles incrementally, so any change to how the
//! incremental path finds candidates, builds its reference table or orders
//! its worklist that alters a single evaluation or merge trips this test.

mod common;

use common::label_references;
use semex::corpus::{generate_personal, CorpusConfig};
use semex::store::ObjectId;
use semex::{Semex, SemexBuilder};
use std::collections::BTreeMap;

/// One pinned step: the operation and six counters.
///
/// * `mbox` / `vcard` — the ingest's reconciliation report: refs,
///   candidates, iterations, memo hits, merges; then live objects.
/// * `same` — 0, 0, 0, 0, 0; then live objects.
/// * `distinct` — 1 when the constraint was recorded, else 0; then
///   0, 0, 0, 0; then live objects.
/// * `csv` — rows created, rows merged into existing objects; then
///   0, 0, 0; then live objects.
type Step = (&'static str, [usize; 6]);

/// Xorshift64: a tiny deterministic generator for the write sequence.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Build a space from a corpus the way `semex build <dir>` does.
fn build(cfg: &CorpusConfig, tag: &str) -> (Semex, semex::corpus::PersonalCorpus) {
    let corpus = generate_personal(cfg);
    let dir = std::env::temp_dir().join(format!(
        "semex-inc-golden-{tag}-{}-{}",
        cfg.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    corpus.write_to(&dir).unwrap();
    let semex = SemexBuilder::new()
        .add_directory("home", &dir)
        .build()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    (semex, corpus)
}

/// Pairs of live objects the ground truth says are one entity: the
/// `assert_same` feedback a user would give after the build.
fn missed_merges(
    semex: &Semex,
    corpus: &semex::corpus::PersonalCorpus,
) -> Vec<(ObjectId, ObjectId)> {
    let labels = label_references(semex.store(), &corpus.truth);
    let mut by_label: BTreeMap<u64, Vec<ObjectId>> = BTreeMap::new();
    for (obj, label) in labels {
        by_label.entry(label).or_default().push(obj);
    }
    let mut pairs = Vec::new();
    for objs in by_label.values_mut() {
        objs.sort();
        for &o in &objs[1..] {
            pairs.push((objs[0], o));
        }
    }
    pairs
}

/// A display form of a person's name: canonical, initial + family name,
/// "Family, Given", or given + family without a middle name.
fn name_form(p: &semex::corpus::TruePerson, form: usize) -> String {
    let initial: String = p.first.chars().take(1).collect();
    match form {
        0 => p.canonical_name(),
        1 => format!("{initial}. {}", p.last),
        2 => format!("{}, {}", p.last, p.first),
        _ => format!("{} {}", p.first, p.last),
    }
}

fn live_objects(semex: &Semex) -> usize {
    semex.store().object_count()
}

fn recon_step(op: &'static str, semex: &Semex) -> Step {
    let r = semex.last_ingest_recon().expect("ingest reconciled");
    (
        op,
        [
            r.refs,
            r.candidates,
            r.iterations,
            r.memo_hits,
            r.merges,
            live_objects(semex),
        ],
    )
}

/// FNV-1a over `resolve` of every slot, each as 8 little-endian bytes.
fn resolve_fingerprint(semex: &Semex) -> u64 {
    let store = semex.store();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for slot in 0..store.slot_count() as u64 {
        for b in store.resolve(ObjectId(slot)).0.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Replay the seeded write sequence on a built space.
fn replay(cfg: &CorpusConfig, tag: &str, writes: usize) -> (Vec<Step>, u64) {
    let (mut semex, corpus) = build(cfg, tag);
    let people = &corpus.world.people;
    let mut missed = missed_merges(&semex, &corpus).into_iter();
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ cfg.seed);
    let mut steps = Vec::new();
    for i in 0..writes {
        if i == writes / 3 {
            // A cannot-link between two references of one true person:
            // later ingests naming that person must respect it.
            let (a, b) = missed.next().unwrap_or((ObjectId(0), ObjectId(1)));
            let recorded = semex.assert_distinct(a, b);
            steps.push((
                "distinct",
                [usize::from(recorded), 0, 0, 0, 0, live_objects(&semex)],
            ));
            continue;
        }
        if i == 2 * writes / 3 {
            let mut csv = String::from("name,email\n");
            for _ in 0..4 {
                let p = &people[rng.below(people.len())];
                let name = name_form(p, rng.below(4));
                let mail = &p.emails[rng.below(p.emails.len())];
                csv.push_str(&format!("{name},{mail}\n"));
            }
            let (_, report) = semex
                .integrate(&format!("golden-{i}.csv"), &csv)
                .unwrap()
                .expect("a name,email table maps onto Person");
            steps.push((
                "csv",
                [
                    report.created,
                    report.merged_into_existing,
                    0,
                    0,
                    0,
                    live_objects(&semex),
                ],
            ));
            continue;
        }
        if i % 9 == 4 {
            if let Some((a, b)) = missed.next() {
                semex.assert_same(a, b).unwrap();
                steps.push(("same", [0, 0, 0, 0, 0, live_objects(&semex)]));
                continue;
            }
        }
        let a = &people[rng.below(people.len())];
        let b = &people[rng.below(people.len())];
        let a_name = name_form(a, rng.below(4));
        let b_name = name_form(b, rng.below(4));
        let a_mail = &a.emails[rng.below(a.emails.len())];
        let b_mail = &b.emails[rng.below(b.emails.len())];
        if rng.below(4) == 0 {
            let content =
                format!("BEGIN:VCARD\nVERSION:3.0\nFN:{a_name}\nEMAIL:{a_mail}\nEND:VCARD\n");
            semex
                .ingest(semex::core::SourceSpec::Vcard {
                    name: format!("golden-card-{i}"),
                    content,
                })
                .unwrap();
            steps.push(recon_step("vcard", &semex));
        } else {
            let to = if rng.below(3) == 0 {
                b_mail.clone()
            } else {
                format!("{b_name} <{b_mail}>")
            };
            let content = format!(
                "From: {a_name} <{a_mail}>\nTo: {to}\nSubject: golden note {i}\n\
                 Message-ID: <golden-{i}@test.example>\n\nNotes for {b_name}.\n"
            );
            semex
                .ingest(semex::core::SourceSpec::Mbox {
                    name: format!("golden-mail-{i}"),
                    content,
                })
                .unwrap();
            steps.push(recon_step("mbox", &semex));
        }
    }
    (steps, resolve_fingerprint(&semex))
}

/// Compare step by step; on a mismatch print the whole actual run in the
/// source form of the expected tables.
fn check(name: &str, got: &(Vec<Step>, u64), want_steps: &[Step], want_fp: u64) {
    let (steps, fp) = got;
    let matches = steps.as_slice() == want_steps && *fp == want_fp;
    if !matches {
        let mut dump = String::new();
        for (op, c) in steps {
            dump.push_str(&format!("        (\"{op}\", {c:?}),\n"));
        }
        eprintln!("{name}: actual run\n{dump}    fingerprint {fp:#018x}");
        for (i, (g, w)) in steps.iter().zip(want_steps).enumerate() {
            assert_eq!(g, w, "{name}: step {i}");
        }
        assert_eq!(steps.len(), want_steps.len(), "{name}: step count");
        assert_eq!(*fp, want_fp, "{name}: resolve fingerprint");
    }
}

#[test]
fn paper_corpus_writes_match_the_recorded_run() {
    let got = replay(&CorpusConfig::default(), "paper", 64);
    check("paper", &got, PAPER, PAPER_FP);
}

fn tiny(seed: u64, want: &[Step], fp: u64) {
    let got = replay(&CorpusConfig::tiny(seed), "tiny", 60);
    check(&format!("tiny seed {seed}"), &got, want, fp);
}

#[test]
fn tiny_seed_1_writes_match_the_recorded_run() {
    tiny(1, TINY_1, TINY_1_FP);
}

#[test]
fn tiny_seed_6_writes_match_the_recorded_run() {
    tiny(6, TINY_6, TINY_6_FP);
}

#[test]
fn tiny_seed_11_writes_match_the_recorded_run() {
    tiny(11, TINY_11, TINY_11_FP);
}

#[test]
fn tiny_seed_25_writes_match_the_recorded_run() {
    tiny(25, TINY_25, TINY_25_FP);
}

const PAPER: &[Step] = &[
    ("mbox", [610, 19, 25, 3, 2, 2299]),
    ("mbox", [611, 31, 43, 5, 2, 2301]),
    ("mbox", [611, 10, 13, 3, 2, 2302]),
    ("mbox", [611, 8, 9, 1, 2, 2303]),
    ("same", [0, 0, 0, 0, 0, 2302]),
    ("mbox", [610, 14, 16, 0, 2, 2303]),
    ("vcard", [609, 12, 15, 0, 2, 2302]),
    ("mbox", [609, 19, 23, 0, 2, 2303]),
    ("mbox", [610, 20, 26, 2, 2, 2305]),
    ("mbox", [610, 14, 17, 0, 2, 2306]),
    ("mbox", [611, 29, 48, 9, 2, 2308]),
    ("vcard", [610, 13, 13, 0, 1, 2308]),
    ("mbox", [611, 15, 17, 2, 2, 2309]),
    ("same", [0, 0, 0, 0, 0, 2308]),
    ("vcard", [609, 8, 8, 0, 1, 2308]),
    ("mbox", [611, 19, 22, 0, 2, 2310]),
    ("mbox", [611, 20, 28, 1, 2, 2311]),
    ("mbox", [613, 17, 27, 7, 2, 2314]),
    ("mbox", [614, 25, 33, 4, 2, 2316]),
    ("mbox", [615, 35, 57, 15, 2, 2318]),
    ("mbox", [615, 16, 19, 2, 2, 2319]),
    ("distinct", [1, 0, 0, 0, 0, 2319]),
    ("same", [0, 0, 0, 0, 0, 2318]),
    ("vcard", [613, 15, 18, 0, 1, 2318]),
    ("mbox", [614, 10, 13, 1, 2, 2319]),
    ("mbox", [615, 37, 53, 9, 2, 2321]),
    ("vcard", [614, 10, 14, 0, 1, 2321]),
    ("mbox", [615, 17, 21, 2, 2, 2322]),
    ("mbox", [615, 15, 17, 0, 2, 2323]),
    ("mbox", [616, 28, 33, 3, 2, 2325]),
    ("mbox", [617, 44, 58, 9, 2, 2327]),
    ("same", [0, 0, 0, 0, 0, 2326]),
    ("mbox", [616, 18, 20, 0, 2, 2327]),
    ("mbox", [616, 13, 16, 0, 2, 2328]),
    ("mbox", [617, 42, 57, 11, 2, 2330]),
    ("mbox", [618, 24, 30, 3, 2, 2332]),
    ("vcard", [617, 9, 11, 0, 1, 2332]),
    ("vcard", [617, 14, 21, 0, 1, 2332]),
    ("vcard", [617, 9, 13, 0, 1, 2332]),
    ("mbox", [620, 24, 31, 4, 2, 2335]),
    ("same", [0, 0, 0, 0, 0, 2334]),
    ("mbox", [619, 20, 25, 2, 2, 2335]),
    ("csv", [4, 4, 0, 0, 0, 2335]),
    ("mbox", [620, 15, 19, 2, 2, 2337]),
    ("vcard", [619, 10, 10, 0, 1, 2337]),
    ("vcard", [619, 4, 6, 0, 1, 2337]),
    ("mbox", [620, 18, 22, 3, 2, 2338]),
    ("mbox", [620, 12, 17, 1, 2, 2339]),
    ("mbox", [621, 14, 17, 1, 2, 2341]),
    ("same", [0, 0, 0, 0, 0, 2340]),
    ("mbox", [622, 30, 38, 3, 2, 2343]),
    ("vcard", [621, 17, 22, 0, 1, 2343]),
    ("mbox", [622, 15, 19, 1, 2, 2344]),
    ("mbox", [622, 17, 20, 0, 2, 2345]),
    ("mbox", [622, 27, 37, 2, 2, 2346]),
    ("mbox", [622, 18, 24, 0, 2, 2347]),
    ("vcard", [621, 10, 14, 0, 1, 2347]),
    ("mbox", [622, 7, 9, 0, 2, 2348]),
    ("same", [0, 0, 0, 0, 0, 2347]),
    ("vcard", [620, 11, 18, 0, 1, 2347]),
    ("mbox", [622, 23, 27, 1, 2, 2349]),
    ("vcard", [621, 7, 10, 0, 1, 2349]),
    ("vcard", [621, 6, 9, 0, 1, 2349]),
    ("mbox", [623, 17, 19, 0, 2, 2351]),
];
const PAPER_FP: u64 = 0xcf9f_75b7_307c_00dd;

const TINY_1: &[Step] = &[
    ("mbox", [68, 3, 3, 0, 2, 181]),
    ("mbox", [68, 3, 3, 0, 2, 182]),
    ("vcard", [67, 2, 3, 0, 1, 182]),
    ("mbox", [69, 4, 5, 0, 2, 184]),
    ("same", [0, 0, 0, 0, 0, 183]),
    ("mbox", [68, 4, 4, 0, 2, 184]),
    ("vcard", [67, 2, 2, 0, 1, 184]),
    ("mbox", [69, 7, 8, 0, 2, 186]),
    ("mbox", [69, 2, 2, 0, 2, 187]),
    ("mbox", [69, 7, 7, 0, 2, 188]),
    ("mbox", [69, 2, 2, 0, 2, 189]),
    ("mbox", [69, 4, 4, 0, 2, 190]),
    ("mbox", [69, 3, 3, 0, 2, 191]),
    ("same", [0, 0, 0, 0, 0, 190]),
    ("mbox", [68, 4, 4, 0, 2, 191]),
    ("mbox", [68, 4, 4, 0, 2, 192]),
    ("mbox", [68, 3, 4, 0, 2, 193]),
    ("mbox", [70, 9, 11, 0, 2, 196]),
    ("mbox", [70, 6, 6, 0, 2, 197]),
    ("vcard", [69, 1, 1, 0, 1, 197]),
    ("distinct", [1, 0, 0, 0, 0, 197]),
    ("mbox", [71, 4, 5, 0, 2, 199]),
    ("same", [0, 0, 0, 0, 0, 198]),
    ("mbox", [70, 3, 3, 0, 2, 199]),
    ("mbox", [70, 3, 3, 0, 2, 200]),
    ("mbox", [71, 5, 6, 0, 2, 202]),
    ("mbox", [71, 5, 6, 0, 2, 203]),
    ("mbox", [71, 5, 5, 0, 2, 204]),
    ("vcard", [70, 3, 3, 0, 1, 204]),
    ("vcard", [70, 1, 1, 0, 1, 204]),
    ("mbox", [72, 9, 10, 0, 2, 206]),
    ("same", [0, 0, 0, 0, 0, 205]),
    ("mbox", [72, 9, 12, 1, 2, 207]),
    ("mbox", [73, 5, 6, 0, 2, 209]),
    ("mbox", [75, 12, 18, 2, 2, 212]),
    ("mbox", [75, 3, 3, 0, 2, 213]),
    ("mbox", [75, 7, 9, 0, 2, 214]),
    ("vcard", [74, 2, 2, 0, 1, 214]),
    ("mbox", [75, 3, 3, 0, 2, 215]),
    ("mbox", [75, 6, 6, 0, 2, 216]),
    ("csv", [4, 3, 0, 0, 0, 217]),
    ("vcard", [75, 1, 1, 0, 1, 217]),
    ("mbox", [77, 4, 5, 0, 2, 219]),
    ("mbox", [77, 7, 7, 0, 2, 220]),
    ("vcard", [76, 2, 2, 0, 1, 220]),
    ("mbox", [78, 12, 17, 1, 2, 222]),
    ("vcard", [77, 2, 2, 0, 1, 222]),
    ("mbox", [78, 3, 3, 0, 2, 223]),
    ("mbox", [78, 7, 7, 0, 2, 224]),
    ("same", [0, 0, 0, 0, 0, 223]),
    ("mbox", [77, 3, 3, 0, 2, 224]),
    ("mbox", [77, 6, 6, 0, 2, 225]),
    ("mbox", [77, 3, 4, 0, 2, 226]),
    ("mbox", [78, 13, 17, 1, 2, 228]),
    ("mbox", [79, 9, 12, 1, 2, 230]),
    ("mbox", [79, 5, 5, 0, 2, 231]),
    ("mbox", [79, 5, 5, 0, 2, 232]),
    ("mbox", [79, 3, 3, 0, 2, 233]),
    ("same", [0, 0, 0, 0, 0, 232]),
    ("vcard", [77, 2, 2, 0, 1, 232]),
];
const TINY_1_FP: u64 = 0x13cc_86bb_a618_6b6b;

const TINY_6: &[Step] = &[
    ("mbox", [75, 16, 21, 2, 2, 189]),
    ("mbox", [75, 2, 2, 0, 2, 190]),
    ("mbox", [76, 10, 12, 1, 2, 192]),
    ("mbox", [76, 12, 14, 0, 2, 193]),
    ("same", [0, 0, 0, 0, 0, 192]),
    ("mbox", [75, 7, 9, 0, 2, 193]),
    ("mbox", [75, 11, 11, 0, 2, 194]),
    ("mbox", [77, 10, 13, 1, 2, 197]),
    ("mbox", [77, 8, 10, 0, 2, 198]),
    ("mbox", [77, 9, 10, 0, 2, 199]),
    ("mbox", [78, 14, 15, 0, 2, 201]),
    ("mbox", [78, 9, 12, 1, 2, 202]),
    ("vcard", [77, 5, 5, 0, 1, 202]),
    ("same", [0, 0, 0, 0, 0, 201]),
    ("mbox", [77, 6, 6, 0, 2, 202]),
    ("vcard", [76, 7, 8, 0, 1, 202]),
    ("mbox", [78, 24, 31, 2, 2, 204]),
    ("mbox", [79, 12, 16, 2, 2, 206]),
    ("mbox", [80, 16, 17, 0, 2, 208]),
    ("mbox", [81, 16, 19, 1, 2, 210]),
    ("distinct", [1, 0, 0, 0, 0, 210]),
    ("mbox", [81, 3, 3, 0, 2, 211]),
    ("same", [0, 0, 0, 0, 0, 210]),
    ("vcard", [79, 8, 8, 0, 1, 210]),
    ("mbox", [81, 14, 17, 1, 2, 212]),
    ("mbox", [80, 8, 9, 0, 1, 213]),
    ("mbox", [83, 22, 28, 2, 2, 216]),
    ("mbox", [83, 13, 17, 0, 2, 217]),
    ("vcard", [82, 5, 7, 0, 2, 216]),
    ("mbox", [82, 4, 4, 0, 2, 217]),
    ("mbox", [83, 9, 13, 0, 2, 219]),
    ("same", [0, 0, 0, 0, 0, 218]),
    ("mbox", [82, 9, 10, 0, 2, 219]),
    ("mbox", [82, 7, 8, 1, 2, 220]),
    ("mbox", [82, 17, 17, 0, 2, 221]),
    ("vcard", [81, 4, 6, 0, 1, 221]),
    ("vcard", [81, 7, 9, 0, 1, 221]),
    ("vcard", [81, 1, 1, 0, 1, 221]),
    ("mbox", [82, 4, 4, 0, 2, 222]),
    ("mbox", [82, 9, 10, 0, 2, 223]),
    ("csv", [4, 4, 0, 0, 0, 223]),
    ("mbox", [82, 10, 12, 0, 2, 224]),
    ("mbox", [83, 17, 19, 0, 2, 226]),
    ("vcard", [82, 1, 1, 0, 1, 226]),
    ("vcard", [82, 8, 8, 0, 1, 226]),
    ("mbox", [83, 7, 7, 0, 2, 227]),
    ("vcard", [82, 8, 8, 0, 1, 227]),
    ("mbox", [84, 5, 6, 0, 2, 229]),
    ("mbox", [84, 10, 12, 1, 2, 230]),
    ("same", [0, 0, 0, 0, 0, 229]),
    ("mbox", [83, 2, 2, 0, 2, 230]),
    ("mbox", [84, 11, 16, 2, 2, 232]),
    ("mbox", [84, 8, 10, 0, 2, 233]),
    ("mbox", [85, 17, 21, 2, 2, 235]),
    ("vcard", [84, 2, 2, 0, 1, 235]),
    ("mbox", [85, 9, 10, 0, 2, 236]),
    ("mbox", [85, 10, 10, 0, 2, 237]),
    ("mbox", [85, 15, 19, 1, 2, 238]),
    ("same", [0, 0, 0, 0, 0, 237]),
    ("mbox", [85, 19, 23, 2, 2, 239]),
];
const TINY_6_FP: u64 = 0x46ba_bf9c_5c01_6b8c;

const TINY_11: &[Step] = &[
    ("mbox", [74, 2, 2, 0, 2, 186]),
    ("vcard", [73, 2, 3, 0, 1, 186]),
    ("mbox", [75, 12, 17, 2, 3, 187]),
    ("mbox", [74, 2, 2, 0, 2, 188]),
    ("same", [0, 0, 0, 0, 0, 187]),
    ("vcard", [72, 1, 1, 0, 1, 187]),
    ("vcard", [72, 3, 4, 0, 1, 187]),
    ("mbox", [74, 6, 8, 0, 2, 189]),
    ("vcard", [73, 1, 1, 0, 1, 189]),
    ("mbox", [75, 4, 5, 0, 2, 191]),
    ("mbox", [76, 6, 7, 0, 2, 193]),
    ("mbox", [76, 4, 4, 0, 2, 194]),
    ("mbox", [76, 2, 2, 0, 2, 195]),
    ("same", [0, 0, 0, 0, 0, 194]),
    ("mbox", [75, 3, 4, 1, 2, 195]),
    ("mbox", [75, 4, 4, 0, 2, 196]),
    ("mbox", [75, 3, 4, 1, 2, 197]),
    ("mbox", [76, 4, 5, 0, 2, 199]),
    ("mbox", [76, 4, 4, 0, 2, 200]),
    ("mbox", [76, 6, 8, 0, 2, 201]),
    ("distinct", [1, 0, 0, 0, 0, 201]),
    ("vcard", [75, 3, 3, 0, 1, 201]),
    ("same", [0, 0, 0, 0, 0, 200]),
    ("mbox", [76, 5, 7, 2, 2, 202]),
    ("mbox", [76, 3, 3, 0, 2, 203]),
    ("vcard", [75, 5, 5, 0, 1, 203]),
    ("mbox", [77, 9, 11, 1, 2, 205]),
    ("vcard", [76, 3, 3, 0, 1, 205]),
    ("vcard", [76, 3, 3, 0, 1, 205]),
    ("mbox", [77, 2, 2, 0, 2, 206]),
    ("mbox", [77, 7, 8, 0, 2, 207]),
    ("same", [0, 0, 0, 0, 0, 207]),
    ("mbox", [77, 6, 7, 1, 3, 207]),
    ("mbox", [78, 9, 13, 0, 2, 210]),
    ("mbox", [78, 4, 4, 0, 2, 211]),
    ("mbox", [78, 5, 6, 0, 2, 212]),
    ("mbox", [79, 11, 13, 0, 2, 214]),
    ("mbox", [80, 9, 11, 0, 2, 216]),
    ("mbox", [80, 5, 5, 0, 2, 217]),
    ("mbox", [80, 5, 5, 0, 2, 218]),
    ("csv", [4, 3, 0, 0, 0, 219]),
    ("mbox", [82, 5, 7, 0, 2, 221]),
    ("vcard", [81, 3, 3, 0, 1, 221]),
    ("mbox", [82, 3, 4, 1, 2, 222]),
    ("mbox", [82, 9, 9, 0, 2, 223]),
    ("mbox", [82, 5, 5, 0, 2, 224]),
    ("vcard", [81, 3, 3, 0, 1, 224]),
    ("mbox", [83, 8, 9, 0, 2, 226]),
    ("mbox", [84, 6, 9, 1, 2, 228]),
    ("same", [0, 0, 0, 0, 0, 227]),
    ("vcard", [82, 4, 4, 0, 1, 227]),
    ("mbox", [83, 9, 11, 0, 2, 228]),
    ("mbox", [83, 7, 7, 0, 2, 229]),
    ("mbox", [84, 7, 8, 0, 2, 231]),
    ("vcard", [83, 2, 2, 0, 1, 231]),
    ("mbox", [84, 8, 9, 1, 2, 232]),
    ("mbox", [84, 6, 7, 0, 2, 233]),
    ("vcard", [83, 3, 3, 0, 1, 233]),
    ("same", [0, 0, 0, 0, 0, 232]),
    ("vcard", [82, 1, 1, 0, 1, 232]),
];
const TINY_11_FP: u64 = 0xfed7_7e1e_2c3c_1540;

const TINY_25: &[Step] = &[
    ("mbox", [81, 5, 6, 0, 2, 196]),
    ("mbox", [81, 5, 6, 0, 3, 196]),
    ("mbox", [81, 13, 15, 0, 3, 197]),
    ("mbox", [80, 3, 4, 1, 2, 198]),
    ("same", [0, 0, 0, 0, 0, 197]),
    ("mbox", [79, 7, 9, 0, 2, 198]),
    ("mbox", [79, 7, 9, 0, 2, 199]),
    ("mbox", [79, 5, 5, 0, 2, 200]),
    ("mbox", [78, 5, 5, 0, 1, 201]),
    ("vcard", [78, 2, 2, 0, 1, 201]),
    ("mbox", [80, 8, 9, 0, 2, 203]),
    ("mbox", [81, 18, 19, 0, 2, 205]),
    ("mbox", [83, 9, 13, 2, 2, 208]),
    ("same", [0, 0, 0, 0, 0, 207]),
    ("mbox", [82, 6, 6, 0, 2, 208]),
    ("mbox", [83, 5, 6, 0, 2, 210]),
    ("mbox", [83, 6, 6, 0, 2, 211]),
    ("mbox", [83, 10, 12, 0, 2, 212]),
    ("mbox", [83, 9, 11, 2, 2, 213]),
    ("mbox", [83, 8, 12, 0, 2, 214]),
    ("distinct", [1, 0, 0, 0, 0, 214]),
    ("vcard", [82, 3, 3, 0, 1, 214]),
    ("same", [0, 0, 0, 0, 0, 213]),
    ("mbox", [82, 8, 9, 0, 2, 214]),
    ("mbox", [82, 11, 16, 0, 2, 215]),
    ("mbox", [83, 5, 6, 0, 2, 217]),
    ("mbox", [84, 10, 14, 1, 2, 219]),
    ("mbox", [84, 10, 11, 1, 2, 220]),
    ("vcard", [83, 4, 4, 0, 1, 220]),
    ("mbox", [85, 11, 13, 0, 2, 222]),
    ("vcard", [84, 7, 9, 0, 1, 222]),
    ("same", [0, 0, 0, 0, 0, 221]),
    ("mbox", [86, 20, 24, 2, 2, 224]),
    ("mbox", [86, 9, 14, 2, 3, 224]),
    ("mbox", [85, 4, 4, 0, 2, 225]),
    ("mbox", [85, 5, 5, 0, 2, 226]),
    ("mbox", [86, 8, 10, 1, 2, 228]),
    ("mbox", [87, 10, 14, 1, 2, 230]),
    ("vcard", [86, 5, 7, 0, 1, 230]),
    ("vcard", [86, 3, 3, 0, 1, 230]),
    ("csv", [4, 2, 0, 0, 0, 232]),
    ("mbox", [90, 9, 10, 0, 2, 234]),
    ("mbox", [91, 12, 13, 0, 2, 236]),
    ("vcard", [90, 4, 4, 0, 1, 236]),
    ("mbox", [92, 13, 17, 2, 2, 238]),
    ("mbox", [92, 5, 7, 2, 2, 239]),
    ("mbox", [93, 10, 14, 1, 2, 241]),
    ("mbox", [94, 11, 14, 1, 2, 243]),
    ("mbox", [94, 11, 13, 0, 2, 244]),
    ("same", [0, 0, 0, 0, 0, 243]),
    ("vcard", [92, 4, 4, 0, 1, 243]),
    ("mbox", [94, 13, 15, 1, 2, 245]),
    ("mbox", [94, 7, 7, 0, 2, 246]),
    ("mbox", [94, 8, 12, 1, 2, 247]),
    ("mbox", [94, 7, 9, 0, 2, 248]),
    ("vcard", [93, 2, 2, 0, 1, 248]),
    ("mbox", [94, 13, 13, 0, 2, 249]),
    ("vcard", [93, 4, 5, 0, 1, 249]),
    ("same", [0, 0, 0, 0, 0, 248]),
    ("mbox", [94, 15, 18, 0, 2, 250]),
];
const TINY_25_FP: u64 = 0xf3ba_a64e_48b5_4b16;
