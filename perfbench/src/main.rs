//! `semex-perfbench`: the SEMEX benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_mixed --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Runs one seeded workload against the real SEMEX crates, checks the
//! answers, prints every metric with its unit and sample count, and ends
//! with one JSON result line. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` additionally replays the workload in-process under spans
//! and reports the per-layer metrics. See `perfbench/README.md`.

mod layers;
mod mem;
mod mixed;
mod report;
mod rng;
mod serving;
mod space;
mod stats;
mod tenants;
mod trace;

use report::{print_table, result_line, Outcome};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const WORKLOADS: [&str; 2] = ["serve_mixed", "tenants_zipf"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub trace_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed: u64 = seed.ok_or("--seed is required")?;
    let trace_dir = PathBuf::from(".bench_work")
        .join("traces")
        .join(format!("{workload}-{seed}"));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        trace_dir,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The run record: one schema for every workload.
fn run_record(args: &Args, outcome: &Outcome) -> String {
    let mut fields: Vec<(&str, String)> = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        // Only a checkout that is itself a repository is asked: git would
        // otherwise search the directories above the working directory.
        (
            "commit",
            if Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".into()
            },
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("rustc", command_line("rustc", &["--version"])),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
    ];
    fields.extend(outcome.record.iter().cloned());
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", report::json_str(k), report::json_str(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "serve_mixed" => mixed::run(args, work),
        _ => tenants::run(args, work),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("semex-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("semex-perfbench: {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("semex-perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    // The bounded form of failed_frac: a regression bound relative to a
    // median of zero would mean nothing.
    let attempted = outcome.attempted.max(1);
    outcome.e2e.add(
        "ok_frac",
        1.0 - outcome.failed as f64 / attempted as f64,
        "frac",
        attempted as usize,
    );
    println!("run_record {}", run_record(&args, &outcome));
    for f in &outcome.failures {
        println!("FAILED: {f}");
    }
    println!(
        "attempted {} failed {} failed_frac {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    print_table("end-to-end (untraced):", &outcome.e2e);
    print_table("wire tails (untraced, unbounded):", &outcome.tails);
    if args.trace {
        print_table("per-layer (traced run):", &outcome.layers);
        println!("spans written to {}", args.trace_dir.display());
    }
    let metrics = if args.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    println!("{}", result_line(&outcome, metrics));
    ExitCode::SUCCESS
}
