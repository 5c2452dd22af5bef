//! Benchmark of the e2gcl workspace: three workloads, each one process in
//! one role, timed from outside through the crates' public APIs.
//!
//! ```sh
//! cargo run --release --offline --manifest-path gclbench/Cargo.toml -- \
//!     --workload train-e2gcl --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run it from the repository root: it pins the kernel configuration to
//! the committed `kernel_tune.json` there. `--trace 0` prints the
//! end-to-end metrics and runs the output checks; `--trace 1` prints the
//! per-layer metrics of the traced replay. The last line of standard
//! output is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. See `README.md` in this directory.

mod metrics;
mod serve;
mod trace;
mod train;

use e2gcl::linalg::dispatch;
use metrics::{Report, SERVE_MIXED, TRAIN_E2GCL, TRAIN_GRACE, WORKLOADS};
use std::process::ExitCode;

/// Worker threads of the vendored rayon pool.
const THREADS: &str = "2";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Pins the thread count and the kernel tune file before any kernel or
/// pool runs, and checks that the pin took. Both settings are read once per
/// process, on first use.
fn pin_environment() -> Result<Vec<String>, String> {
    let tune = std::env::current_dir()
        .map_err(|e| format!("current directory: {e}"))?
        .join(dispatch::TUNE_FILE_DEFAULT);
    if !tune.is_file() {
        return Err(format!(
            "{} not found; run from the repository root",
            tune.display()
        ));
    }
    let tune = tune.to_string_lossy().into_owned();
    // Still single-threaded here: nothing has spawned a thread yet.
    std::env::set_var("RAYON_NUM_THREADS", THREADS);
    std::env::set_var(dispatch::CONFIG_ENV, &tune);
    if let Some(e) = dispatch::startup_error() {
        return Err(format!("kernel configuration: {e}"));
    }
    let source = dispatch::active_source();
    if source != format!("file:{tune}") {
        return Err(format!(
            "kernel source is {source}, not the pinned file:{tune}"
        ));
    }
    let sel = dispatch::active_selection();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Ok(vec![
        format!("env: kernel source {source}"),
        format!(
            "env: dispatch path {}, tiles tall {:?} square {:?} spmm {:?}",
            sel.path.as_str(),
            sel.tall,
            sel.square,
            sel.spmm
        ),
        format!("env: RAYON_NUM_THREADS={THREADS}, nproc {nproc}"),
        format!(
            "env: cpu features {}",
            dispatch::detected_features().join(",")
        ),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: gclbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    match pin_environment() {
        Ok(lines) => report.notes = lines,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    }
    let w = args.workload.as_str();
    match (w, args.trace) {
        (TRAIN_E2GCL, false) => {
            train::run(train::Kind::E2gcl, args.seed, args.seconds, &mut report)
        }
        (TRAIN_GRACE, false) => train::run(
            train::Kind::GraceMinibatch,
            args.seed,
            args.seconds,
            &mut report,
        ),
        (TRAIN_E2GCL, true) => train::run_traced(train::Kind::E2gcl, args.seed, &mut report),
        (TRAIN_GRACE, true) => {
            train::run_traced(train::Kind::GraceMinibatch, args.seed, &mut report)
        }
        (SERVE_MIXED, false) => serve::run(args.seed, args.seconds, &mut report),
        (SERVE_MIXED, true) => serve::run_traced(args.seed, args.seconds, &mut report),
        _ => unreachable!("workload names are checked in parse_args"),
    }
    report.verify_complete(w, args.trace);
    for line in report.lines() {
        println!("{line}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
