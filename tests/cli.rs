//! End-to-end test of the `semex` CLI binary: demo-build a snapshot, then
//! exercise every read command against it.

use std::path::PathBuf;
use std::process::Command;

fn semex_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_semex"))
}

fn run(args: &[&str]) -> (bool, String) {
    let out = semex_bin().args(args).output().expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.success(), format!("{stdout}{stderr}"))
}

fn snapshot_path() -> PathBuf {
    std::env::temp_dir().join(format!("semex-cli-test-{}.json", std::process::id()))
}

#[test]
fn cli_full_session() {
    let snap = snapshot_path();
    let snap_str = snap.to_string_lossy().into_owned();

    // demo: build a snapshot from a small generated corpus.
    let (ok, out) = run(&["demo", "-o", &snap_str, "--seed", "41", "--scale", "0.12"]);
    assert!(ok, "{out}");
    assert!(out.contains("snapshot written"), "{out}");
    assert!(out.contains("reconciled"), "{out}");

    // stats
    let (ok, out) = run(&["stats", &snap_str]);
    assert!(ok, "{out}");
    assert!(out.contains("Person"), "{out}");
    assert!(out.contains("Message"), "{out}");

    // search
    let (ok, out) = run(&["search", &snap_str, "class:Person", "michael"]);
    assert!(ok, "{out}");
    assert!(
        out.contains("[Person]") || out.contains("no results"),
        "{out}"
    );

    // show + explain on whatever search surfaces.
    let (ok, out) = run(&["show", &snap_str, "class:Publication", "adaptive"]);
    assert!(ok, "{out}");
    assert!(out.contains("[Publication]"), "{out}");
    let (ok, out) = run(&["explain", &snap_str, "class:Publication", "adaptive"]);
    assert!(ok, "{out}");
    assert!(out.contains("facts about"), "{out}");

    // pattern query
    let (ok, out) = run(&["query", &snap_str, "?pub AuthoredBy ?p"]);
    assert!(ok, "{out}");
    assert!(out.contains("solution(s)"), "{out}");

    // importance ranking
    let (ok, out) = run(&["top", &snap_str]);
    assert!(ok, "{out}");
    assert!(out.contains("most important people"), "{out}");

    // analysis commands
    let (ok, out) = run(&["communities", &snap_str]);
    assert!(ok, "{out}");
    assert!(out.contains("CoAuthor communities"), "{out}");
    let (ok, out) = run(&["timeline", &snap_str, "class:Person", "michael"]);
    assert!(ok || out.contains("no such person"), "{out}");

    std::fs::remove_file(&snap).ok();
}

#[test]
fn cli_repl_session() {
    use std::io::Write;
    use std::process::Stdio;
    let snap = std::env::temp_dir().join(format!("semex-repl-test-{}.json", std::process::id()));
    let snap_str = snap.to_string_lossy().into_owned();
    let (ok, out) = run(&["demo", "-o", &snap_str, "--seed", "43", "--scale", "0.12"]);
    assert!(ok, "{out}");

    let mut child = semex_bin()
        .args(["repl", &snap_str])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"help\ns class:Person michael\nb class:Person michael\nq ?pub AuthoredBy ?p\nbogus\nquit\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("semex repl"), "{text}");
    assert!(text.contains("keyword search"), "help shown: {text}");
    assert!(text.contains("solution(s)"), "{text}");
    assert!(text.contains("unknown command"), "{text}");
    std::fs::remove_file(&snap).ok();
}

#[test]
fn cli_durable_session() {
    let dir = std::env::temp_dir().join(format!("semex-cli-journal-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dir_str = dir.to_string_lossy().into_owned();

    // demo --durable: build into a journal directory instead of a snapshot.
    let (ok, out) = run(&[
        "demo",
        "--durable",
        "-o",
        &dir_str,
        "--seed",
        "47",
        "--scale",
        "0.12",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("journal initialized"), "{out}");
    assert!(
        out.contains("Binary snapshot"),
        "spaces are written binary: {out}"
    );
    assert!(dir.is_dir());
    assert!(
        std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().starts_with("snapshot-")),
        "journal directory holds an epoch snapshot"
    );

    // Read commands accept the journal directory wherever a snapshot goes.
    let (ok, out) = run(&["stats", &dir_str]);
    assert!(ok, "{out}");
    assert!(out.contains("Person"), "{out}");
    let (ok, out) = run(&["search", &dir_str, "class:Publication", "adaptive"]);
    assert!(ok, "{out}");
    assert!(
        out.contains("[Publication]") || out.contains("no results"),
        "{out}"
    );

    // journal-compact folds the log into the next epoch.
    let (ok, out) = run(&["journal-compact", &dir_str]);
    assert!(ok, "{out}");
    assert!(out.contains("compacted into epoch 1"), "{out}");
    let (ok, out) = run(&["stats", &dir_str]);
    assert!(ok, "post-compaction open: {out}");
    assert!(out.contains("Person"), "{out}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_errors_cleanly() {
    let (ok, out) = run(&[]);
    assert!(!ok);
    assert!(out.contains("usage"), "{out}");

    let (ok, out) = run(&["bogus-command"]);
    assert!(!ok);
    assert!(out.contains("usage"), "{out}");

    let (ok, out) = run(&["stats", "/definitely/not/here.json"]);
    assert!(!ok);
    assert!(out.contains("cannot load snapshot"), "{out}");

    let (ok, out) = run(&["build", "/nope"]);
    assert!(!ok);
    assert!(out.contains("-o"), "{out}");

    // There is one snapshot format to write, so no `--format` flag.
    let out_path = std::env::temp_dir().join(format!("semex-cli-noflag-{}", std::process::id()));
    let out_str = out_path.to_string_lossy().into_owned();
    let (ok, out) = run(&["demo", "--format", "json", "-o", &out_str]);
    assert!(!ok);
    assert!(out.contains("unknown demo flag"), "{out}");
    let (ok, out) = run(&["journal-compact", &out_str, "--format", "json"]);
    assert!(!ok);
    assert!(out.contains("requires a journal directory"), "{out}");
    assert!(!out_path.exists());
}

/// Names of the snapshot and index-sidecar files in a journal directory.
fn epoch_files(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("snapshot-") || n.starts_with("index-"))
        .collect();
    names.sort();
    names
}

#[test]
fn cli_compact_migrates_a_json_space() {
    use semex::journal::{DurableStore, JournalConfig, SnapshotFormat};
    let dir = std::env::temp_dir().join(format!("semex-cli-json-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dir_str = dir.to_string_lossy().into_owned();

    // A JSON-format space: a JSON snapshot and no index sidecar.
    let semex = semex::SemexBuilder::new()
        .add_mbox(
            "inbox",
            "From: Xin Dong <luna@cs.example.edu>\nTo: Alon Halevy <alon@cs.example.edu>\nSubject: semex demo\n\nSee you Friday.\n",
        )
        .build()
        .unwrap();
    let json = JournalConfig {
        snapshot_format: SnapshotFormat::Json,
        ..JournalConfig::default()
    };
    drop(DurableStore::open_with(&dir, json, semex.store().clone()).unwrap());
    assert_eq!(epoch_files(&dir), vec!["snapshot-0000000000.json"]);
    let (ok, before) = run(&["search", &dir_str, "semex demo"]);
    assert!(ok, "{before}");

    let (ok, out) = run(&["journal-compact", &dir_str]);
    assert!(ok, "{out}");
    assert!(out.contains("compacted into epoch 1"), "{out}");
    assert!(out.contains("Binary snapshot"), "{out}");
    assert_eq!(
        epoch_files(&dir),
        vec!["index-0000000001.idx", "snapshot-0000000001.bin"]
    );
    let (ok, after) = run(&["search", &dir_str, "semex demo"]);
    assert!(ok, "{after}");
    assert_eq!(before, after, "the migrated space answers identically");

    std::fs::remove_dir_all(&dir).ok();
}
