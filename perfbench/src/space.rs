//! Personal spaces: generate a seeded corpus, build it the way
//! `semex build <dir>` does, persist it under a journal, score its
//! reconciliation against the corpus ground truth, and repeat the build
//! step by step under the tracer.

use crate::trace::Tracer;
use semex_bench::label_references;
use semex_core::{DurableSemex, JournalConfig, Semex, SemexBuilder, SemexConfig};
use semex_corpus::{generate_personal, CorpusConfig, PersonalCorpus};
use semex_extract::{fswalk::extract_tree, ExtractContext};
use semex_index::SearchIndex;
use semex_model::names::class;
use semex_recon::{blocking, pair_metrics, reconcile, ReconConfig, RefTable, Variant};
use semex_store::{ObjectId, SourceInfo, SourceKind, Store};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Reconciliation counters of one build, copied out of its `ReconReport`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReconCounts {
    pub ms: f64,
    pub refs: u64,
    pub candidates: u64,
    pub iterations: u64,
    pub merges: u64,
    pub memo_hits: u64,
    pub shards: u64,
}

impl ReconCounts {
    pub fn add(&mut self, o: &ReconCounts) {
        self.ms += o.ms;
        self.refs += o.refs;
        self.candidates += o.candidates;
        self.iterations += o.iterations;
        self.merges += o.merges;
        self.memo_hits += o.memo_hits;
        self.shards += o.shards;
    }
}

/// Pairwise reconciliation outcome against ground truth.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairCounts {
    pub tp: u64,
    pub fp: u64,
    pub fn_: u64,
}

impl PairCounts {
    pub fn add(&mut self, o: &PairCounts) {
        self.tp += o.tp;
        self.fp += o.fp;
        self.fn_ += o.fn_;
    }

    pub fn f1(&self) -> f64 {
        let denom = 2 * self.tp + self.fp + self.fn_;
        if denom == 0 {
            1.0
        } else {
            2.0 * self.tp as f64 / denom as f64
        }
    }
}

/// One built, journal-backed personal space.
pub struct Space {
    pub durable: DurableSemex,
    pub corpus: PersonalCorpus,
    /// The corpus as files (what the build walked).
    pub src: PathBuf,
    /// The journal directory.
    pub dir: PathBuf,
    /// Source bytes the space was built from.
    pub input_bytes: u64,
    pub setup_s: f64,
    pub build_s: f64,
    pub recon: ReconCounts,
    pub pairs: PairCounts,
    /// Pre-merge reference → true entity.
    pub labels: HashMap<ObjectId, u64>,
    /// References in the extracted corpus.
    pub refs: u64,
}

/// Set up one space: generate the corpus, write it to `src`, build it
/// from the directory with the default configuration, and put it under a
/// journal in `dir` with the default journal configuration. `setup_s`
/// covers all of that, `build_s` the build alone. Scoring against ground
/// truth runs afterwards, outside both timings.
pub fn set_up(cfg: &CorpusConfig, src: &Path, dir: &Path) -> Result<Space, String> {
    let t0 = Instant::now();
    let corpus = generate_personal(cfg);
    corpus
        .write_to(src)
        .map_err(|e| format!("writing corpus: {e}"))?;
    let tb = Instant::now();
    let semex = SemexBuilder::new()
        .add_directory("home", src)
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let build_s = tb.elapsed().as_secs_f64();
    let report = semex.report().recon.as_ref().ok_or("build ran no recon")?;
    let recon = ReconCounts {
        ms: report.elapsed.as_secs_f64() * 1e3,
        refs: report.refs as u64,
        candidates: report.candidates as u64,
        iterations: report.iterations as u64,
        merges: report.merges as u64,
        memo_hits: report.memo_hits as u64,
        shards: report.shards as u64,
    };
    let clusters = report.clusters.clone();
    let durable = semex
        .into_durable(dir, JournalConfig::default())
        .map_err(|e| format!("into_durable: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();

    // Ground truth: label the *pre-merge* references. An extract-only
    // build of the same directory assigns the same object ids.
    let raw = SemexBuilder::new()
        .with_config(SemexConfig {
            skip_recon: true,
            ..SemexConfig::default()
        })
        .add_directory("home", src)
        .build()
        .map_err(|e| format!("extract-only build: {e}"))?;
    let labels = label_references(raw.store(), &corpus.truth);
    let m = pair_metrics(&clusters, &labels);
    Ok(Space {
        durable,
        input_bytes: corpus.byte_size() as u64,
        corpus,
        src: src.to_path_buf(),
        dir: dir.to_path_buf(),
        setup_s,
        build_s,
        pairs: PairCounts {
            tp: m.tp,
            fp: m.fp,
            fn_: m.fn_,
        },
        refs: recon.refs,
        recon,
        labels,
    })
}

impl Space {
    /// `(object id, label)` of the space's people whose label is a full
    /// name, in id order: the anchors of person-centred reads.
    pub fn persons(&self) -> Vec<(u64, String)> {
        let store = self.durable.store();
        let c_person = store.model().class(class::PERSON).expect("builtin class");
        let mut persons: Vec<(u64, String)> = store
            .objects_of_class(c_person)
            .map(|o| (o.0, store.label(o)))
            .filter(|(_, l)| l.contains(' ') && !l.contains('"'))
            .collect();
        persons.sort();
        persons
    }

    /// `(canonical name, primary e-mail)` of the corpus's true people: who
    /// ingested mail and contacts name.
    pub fn people(&self) -> Vec<(String, String)> {
        let people = &self.corpus.world.people;
        people
            .iter()
            .map(|p| (p.canonical_name(), p.emails[0].clone()))
            .collect()
    }

    /// Words that occur in the corpus: family names, longer title words and
    /// venue abbreviations.
    pub fn terms(&self) -> Vec<String> {
        let world = &self.corpus.world;
        let mut terms: Vec<String> = world.people.iter().map(|p| p.last.clone()).collect();
        for p in &world.pubs {
            terms.extend(
                p.title
                    .split(|c: char| !c.is_alphabetic())
                    .filter(|w| w.len() >= 5)
                    .map(str::to_lowercase),
            );
        }
        terms.extend(world.venues.iter().map(|v| v.abbrev.clone()));
        terms.sort();
        terms.dedup();
        terms
    }
}

/// Reopen a journaled space with the default configuration.
pub fn reopen(dir: &Path) -> Result<DurableSemex, String> {
    Semex::open_durable(dir, SemexConfig::default())
        .map(|(d, _)| d)
        .map_err(|e| format!("reopen {}: {e}", dir.display()))
}

/// Per-layer numbers of one step-by-step build.
#[derive(Debug, Default, Clone, Copy)]
pub struct TracedBuild {
    pub extract_objects: u64,
    /// `blocking::candidate_pairs` timed on its own, outside the spans.
    pub blocking_ms: f64,
}

/// Repeat `SemexBuilder::build` for a directory step by step through the
/// public functions — extraction with an `ExtractContext`, `reconcile`,
/// `SearchIndex::build_threaded` — under spans.
pub fn traced_build(src: &Path, tr: &mut Tracer) -> Result<TracedBuild, String> {
    let cfg = ReconConfig::default();
    let root = tr.open("core", "core.build");
    let mut store = Store::with_builtin_model();
    let sid = store.register_source(SourceInfo::new("home", SourceKind::FileSystem));
    let stats = tr
        .time("extract", "extract", || {
            let mut ctx = ExtractContext::new(&mut store, sid);
            extract_tree(src, &mut ctx)
        })
        .map_err(|e| format!("extract: {e}"))?;
    let report = tr.time("recon", "recon", || {
        reconcile(&mut store, Variant::Full, &cfg)
    });
    let index = tr.time("index", "index.build", || {
        SearchIndex::build_threaded(&store, cfg.threads.max(1))
    });
    tr.close(root);
    std::hint::black_box((&report, &index));

    // Blocking alone, on a freshly extracted store (recon has merged the
    // one above).
    let mut fresh = Store::with_builtin_model();
    let sid = fresh.register_source(SourceInfo::new("home", SourceKind::FileSystem));
    extract_tree(src, &mut ExtractContext::new(&mut fresh, sid))
        .map_err(|e| format!("extract: {e}"))?;
    let table = RefTable::build(&fresh, cfg.max_fanout);
    let t = Instant::now();
    let pairs = blocking::candidate_pairs(&table);
    let blocking_ms = t.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(pairs.len());
    Ok(TracedBuild {
        extract_objects: stats.objects as u64,
        blocking_ms,
    })
}

/// Pairs of references the ground truth says are one entity but the
/// build left apart: the `assert_same` feedback a user would give.
pub fn missed_merges(space: &Space) -> Vec<(u64, u64)> {
    let store = space.durable.store();
    let mut first_of: HashMap<u64, ObjectId> = HashMap::new();
    let mut ids: Vec<(&ObjectId, &u64)> = space.labels.iter().collect();
    ids.sort();
    let mut out = Vec::new();
    for (&obj, &label) in ids {
        match first_of.get(&label) {
            None => {
                first_of.insert(label, obj);
            }
            Some(&first) => {
                if store.resolve(first) != store.resolve(obj) {
                    out.push((first.0, obj.0));
                }
            }
        }
    }
    out
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

/// Copy a directory tree (a journal) file by file.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
