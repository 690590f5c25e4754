//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload slide|read|mixed --seed N --seconds S --trace 0|1
//!           [--work-dir DIR] [--commit ID]
//! ```
//!
//! Generates the inputs from the seed, runs one workload, checks sampled
//! answers against `exact_ppr`, and prints two JSON lines: the run's
//! metadata (every metric by name and unit, the parameters, `nproc`, the
//! failure ratio), then the result line `{correct, attempted, failed,
//! metrics}` — end-to-end metrics untraced, per-layer metrics traced.
//! An invalid run (stream drained, generator behind schedule, too few
//! samples) prints no result line and exits with code 3.

mod check;
mod inputs;
mod json;
mod openloop;
mod query;
mod replay;
mod report;
mod server;
mod slide;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Exact solves the answer check may spend per run.
const MAX_SOLVES: usize = 12;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
    pub commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from(".bench_work"),
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--work-dir" => a.work_dir = PathBuf::from(value),
            "--commit" => a.commit = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(a.seconds >= 1.0 && a.seconds <= 120.0) {
        return Err("--seconds must lie in [1, 120]".into());
    }
    Ok(a)
}

/// Length of one `qps_at_slo` search step.
pub fn search_step(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds / 8.0).max(0.5))
}

/// Writes a traced run's spans under the work dir; returns the path.
pub fn write_trace(args: &Args, tracer: &trace::Tracer) -> String {
    let path = args
        .work_dir
        .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("not written: {e}"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    let inputs = inputs::Inputs::generate(args.seed);
    let out = match args.workload.as_str() {
        "slide" => slide::run(&args, &inputs),
        "read" => server::run(&args, &inputs, &server::READ),
        "mixed" => server::run(&args, &inputs, &server::MIXED),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (slide|read|mixed)");
            std::process::exit(2);
        }
    };
    let checks = check::check_answers(&inputs.stream, &out.answers, MAX_SOLVES);
    std::process::exit(out.print(&args, checks.checked, checks.failures));
}
