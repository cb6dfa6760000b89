//! Dual-read equivalence: a space served from a binary snapshot (and its
//! index sidecar) must answer every query byte-identically to the same
//! space served from the JSON heap path, across commits, reopens, and
//! compactions — and the epochs must march in lockstep.

use semex::core::SourceSpec;
use semex::corpus::{generate_personal, CorpusConfig};
use semex::{JournalConfig, Semex, SemexBuilder, SemexConfig, SnapshotFormat};
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    // Tests in this binary run concurrently: a pid-keyed path alone would
    // let two tests clobber each other's directories.
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let p = std::env::temp_dir().join(format!("semex-fmt-equiv-{tag}-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn config(format: SnapshotFormat) -> JournalConfig {
    JournalConfig {
        fsync: false,
        snapshot_format: format,
        ..JournalConfig::default()
    }
}

/// Render the corpus exactly once per process: extraction records absolute
/// paths and file mtimes, so twins must be built from the *same* rendered
/// tree to be byte-identical.
fn corpus_dir() -> &'static Path {
    static DIR: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();
    DIR.get_or_init(|| {
        let p = std::env::temp_dir().join(format!("semex-fmt-equiv-corpus-{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        generate_personal(&CorpusConfig::tiny(2005))
            .write_to(&p)
            .unwrap();
        p
    })
}

fn built() -> Semex {
    SemexBuilder::new()
        .add_directory("demo", corpus_dir())
        .build()
        .unwrap()
}

const QUERIES: [&str; 6] = [
    "garcia",
    "class:Person data",
    "class:Publication integration",
    "semex personal information",
    "class:Message meeting",
    "nothingmatchesthis",
];

/// Full-precision rendering: hits must be *byte*-identical, scores included.
fn results(semex: &Semex, query: &str) -> Vec<String> {
    semex
        .search(query, 10)
        .into_iter()
        .map(|h| format!("{}|{}|{}|{}", h.object.0, h.label, h.class, h.score))
        .collect()
}

fn assert_equiv(a: &Semex, b: &Semex, at: &str) {
    for q in QUERIES {
        assert_eq!(results(a, q), results(b, q), "{at}: query {q:?}");
    }
    assert_eq!(
        a.store().to_json().unwrap(),
        b.store().to_json().unwrap(),
        "{at}: store state"
    );
}

/// Sorted names of the files in a journal directory that start with
/// `prefix` and end with `suffix`.
fn files(dir: &Path, prefix: &str, suffix: &str) -> Vec<String> {
    let mut v: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().to_str().map(str::to_owned))
        .filter(|n| n.starts_with(prefix) && n.ends_with(suffix))
        .collect();
    v.sort();
    v
}

fn sidecar_files(dir: &Path) -> Vec<String> {
    files(dir, "index-", ".idx")
}

fn snapshot_files(dir: &Path) -> Vec<String> {
    files(dir, "snapshot-", "")
}

/// A copy of a journal directory without its index sidecars, so opening
/// the copy rebuilds the keyword index from the store.
fn copy_without_sidecars(dir: &Path) -> PathBuf {
    let copy = scratch("no-sidecar");
    std::fs::create_dir_all(&copy).unwrap();
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name();
        if !name.to_string_lossy().ends_with(".idx") {
            std::fs::copy(dir.join(&name), copy.join(&name)).unwrap();
        }
    }
    copy
}

#[test]
fn binary_and_json_twins_stay_byte_identical() {
    let json_dir = scratch("twin-json");
    let bin_dir = scratch("twin-bin");
    let semex = built();
    let twin = built();

    // Seed twin journals, one per format.
    let d_json = semex
        .into_durable(&json_dir, config(SnapshotFormat::Json))
        .unwrap();
    let d_bin = twin
        .into_durable(&bin_dir, config(SnapshotFormat::Binary))
        .unwrap();
    assert_eq!(d_json.journal().epoch(), d_bin.journal().epoch());
    assert_equiv(&d_json, &d_bin, "after init");
    for dir in [&json_dir, &bin_dir] {
        assert_eq!(
            sidecar_files(dir),
            vec!["index-0000000000.idx".to_string()],
            "init writes the index sidecar under either format"
        );
    }
    drop(d_json);
    drop(d_bin);

    // Cold reopen: JSON recovers via the heap decode, binary maps the
    // snapshot; both restore the index sidecar. Same answers.
    let (mut d_json, r1) = Semex::open_durable_with(
        &json_dir,
        SemexConfig::default(),
        config(SnapshotFormat::Json),
    )
    .unwrap();
    let (mut d_bin, r2) = Semex::open_durable_with(
        &bin_dir,
        SemexConfig::default(),
        config(SnapshotFormat::Binary),
    )
    .unwrap();
    assert_eq!(r1.epoch, r2.epoch);
    assert_equiv(&d_json, &d_bin, "after cold reopen");

    // Identical writes on both twins, committed.
    let vcf = "BEGIN:VCARD\nFN:Nova Garcia\nEMAIL:nova@example.edu\nEND:VCARD\n";
    for d in [&mut d_json, &mut d_bin] {
        d.ingest(SourceSpec::Vcard {
            name: "late-contacts".into(),
            content: vcf.into(),
        })
        .unwrap();
        d.commit().unwrap();
    }
    assert_equiv(&d_json, &d_bin, "after identical writes");
    drop(d_json);
    drop(d_bin);

    // Reopen again: the sidecars are now *behind* the journal tail, so the
    // restores must fold the replayed events in — still identical.
    let (mut d_json, _) = Semex::open_durable_with(
        &json_dir,
        SemexConfig::default(),
        config(SnapshotFormat::Json),
    )
    .unwrap();
    let (mut d_bin, _) = Semex::open_durable_with(
        &bin_dir,
        SemexConfig::default(),
        config(SnapshotFormat::Binary),
    )
    .unwrap();
    assert_equiv(&d_json, &d_bin, "after reopen with journal tail");

    // Compaction advances the epochs in lockstep and re-stamps the sidecar.
    let c1 = d_json.compact().unwrap();
    let c2 = d_bin.compact().unwrap();
    assert_eq!(c1.epoch, c2.epoch);
    assert_eq!(d_json.journal().epoch(), d_bin.journal().epoch());
    assert_equiv(&d_json, &d_bin, "after compaction");
    assert_eq!(
        sidecar_files(&bin_dir),
        vec![format!("index-{:010}.idx", c2.epoch)],
        "compaction replaces the sidecar"
    );
    drop(d_json);
    drop(d_bin);

    let (d_json, _) = Semex::open_durable_with(
        &json_dir,
        SemexConfig::default(),
        config(SnapshotFormat::Json),
    )
    .unwrap();
    let (d_bin, _) = Semex::open_durable_with(
        &bin_dir,
        SemexConfig::default(),
        config(SnapshotFormat::Binary),
    )
    .unwrap();
    assert_equiv(&d_json, &d_bin, "after post-compaction reopen");

    std::fs::remove_dir_all(&json_dir).ok();
    std::fs::remove_dir_all(&bin_dir).ok();
}

#[test]
fn sidecar_restore_equals_index_rebuild() {
    let dir = scratch("restore-vs-rebuild");
    let semex = built();
    let d = semex
        .into_durable(&dir, config(SnapshotFormat::Binary))
        .unwrap();
    drop(d);

    // A copy of the space without its sidecar forces a full index
    // rebuild: the restored index must be indistinguishable from it.
    let (restored, _) =
        Semex::open_durable_with(&dir, SemexConfig::default(), config(SnapshotFormat::Binary))
            .unwrap();
    let (rebuilt, _) = Semex::open_durable_with(
        copy_without_sidecars(&dir),
        SemexConfig::default(),
        config(SnapshotFormat::Binary),
    )
    .unwrap();
    assert_equiv(&restored, &rebuilt, "sidecar restore vs rebuild");
    drop(rebuilt);

    // A stale (deleted) sidecar is only advisory: the open falls back to a
    // rebuild and answers identically.
    let side = dir.join("index-0000000000.idx");
    assert!(side.exists());
    std::fs::remove_file(&side).unwrap();
    let (fallback, _) =
        Semex::open_durable_with(&dir, SemexConfig::default(), config(SnapshotFormat::Binary))
            .unwrap();
    assert_equiv(&restored, &fallback, "missing sidecar falls back");

    // A corrupted sidecar must never poison the open either.
    let bytes = {
        let d2 = fallback;
        // The fallback open rebuilt and re-wrote the sidecar; corrupt it.
        drop(d2);
        let mut b = std::fs::read(&side).unwrap();
        let mid = b.len() / 2;
        b[mid] ^= 0xFF;
        b
    };
    std::fs::write(&side, &bytes).unwrap();
    let (corrupted, _) =
        Semex::open_durable_with(&dir, SemexConfig::default(), config(SnapshotFormat::Binary))
            .unwrap();
    assert_equiv(&restored, &corrupted, "corrupt sidecar falls back");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn default_config_writes_binary_and_restores_its_sidecar() {
    let dir = scratch("default");
    let d = built()
        .into_durable(&dir, JournalConfig::default())
        .unwrap();
    assert_eq!(d.journal().config().snapshot_format, SnapshotFormat::Binary);
    drop(d);
    assert_eq!(
        snapshot_files(&dir),
        vec!["snapshot-0000000000.bin".to_string()]
    );
    assert_eq!(
        sidecar_files(&dir),
        vec!["index-0000000000.idx".to_string()]
    );

    // The default open restores the sidecar; a sidecar-less copy rebuilds
    // the index from the store. Both answer every probe identically, and
    // identically to the platform the space was built from.
    let (restored, report) = Semex::open_durable(&dir, SemexConfig::default()).unwrap();
    assert!(report.damage.is_none(), "{report:?}");
    let (rebuilt, _) =
        Semex::open_durable(copy_without_sidecars(&dir), SemexConfig::default()).unwrap();
    assert_equiv(&restored, &rebuilt, "default open vs rebuild");
    assert_equiv(&restored, &built(), "default open vs the build");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn json_space_gains_a_sidecar_on_its_first_default_open() {
    use semex::journal::DurableStore;
    let dir = scratch("json-legacy");
    let semex = built();
    // A JSON space as written before the binary default: the journal
    // alone, with a JSON snapshot and no index sidecar.
    let store = semex.store().clone();
    let (durable, report) =
        DurableStore::open_with(&dir, config(SnapshotFormat::Json), store).unwrap();
    assert!(report.initialized);
    drop(durable);
    assert_eq!(
        snapshot_files(&dir),
        vec!["snapshot-0000000000.json".to_string()]
    );
    assert!(sidecar_files(&dir).is_empty());

    // The first default-config open reads the JSON snapshot, rebuilds the
    // index and stamps a sidecar for it; the snapshot stays JSON until the
    // next compaction.
    let (first, _) = Semex::open_durable(&dir, SemexConfig::default()).unwrap();
    assert_equiv(&first, &semex, "first default open of a JSON space");
    drop(first);
    assert_eq!(
        sidecar_files(&dir),
        vec!["index-0000000000.idx".to_string()]
    );
    assert_eq!(
        snapshot_files(&dir),
        vec!["snapshot-0000000000.json".to_string()]
    );

    // The second open restores that sidecar and answers identically.
    let (mut second, _) = Semex::open_durable(&dir, SemexConfig::default()).unwrap();
    assert_equiv(&second, &semex, "sidecar-restored JSON space");

    // Compaction migrates the space to a binary snapshot.
    let c = second.compact().unwrap();
    drop(second);
    assert_eq!(
        snapshot_files(&dir),
        vec![format!("snapshot-{:010}.bin", c.epoch)]
    );
    let (migrated, _) = Semex::open_durable(&dir, SemexConfig::default()).unwrap();
    assert_equiv(&migrated, &semex, "migrated space");

    std::fs::remove_dir_all(&dir).ok();
}
