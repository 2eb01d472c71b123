//! One benchmark for the offline pipeline, serve reads and serve writes.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline|serve_read|serve_write --seed N --seconds S --trace 0|1
//! ```
//!
//! Inputs come from `omnet_mobility` presets seeded by `--seed`. Each run
//! sets up, measures closed-loop ops for `--seconds`, checks the outputs,
//! and prints one JSON result as its last stdout line: the end-to-end
//! metrics with `--trace 0`, the per-layer split with `--trace 1`. See
//! `perfbench/README.md` for the workloads and the metric map.

mod gen;
mod offline;
mod report;
mod serve_read;
mod serve_write;
mod served;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Per-layer run. `offline` measures the first half of the window
    /// untraced (for `trace.overhead_pct`) and the second half traced; the
    /// serve workloads split their round trips after the window, so their
    /// whole window is measured the same way as an untraced run.
    pub traced: bool,
    /// Executor participants (`OMNET_THREADS`).
    pub threads: usize,
    /// Scratch directory of this run, removed at exit.
    pub work: PathBuf,
}

impl Config {
    /// Whether an op starting now falls in the traced half of the window.
    pub fn tracing_at(&self, start: Instant) -> bool {
        self.traced && start.elapsed() >= self.window / 2
    }
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn usage() -> String {
    "usage: perfbench --workload offline|serve_read|serve_write --seed N --seconds S \
     --trace 0|1 [--threads N]"
        .to_string()
}

fn parse_flag<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value for {flag}: {value}"))
}

fn parse_args(args: &[String]) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut threads = 2usize;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(parse_flag::<u64>(flag, value)?),
            "--seconds" => seconds = Some(parse_flag::<f64>(flag, value)?),
            "--trace" => traced = parse_flag::<u8>(flag, value)? != 0,
            "--threads" => threads = parse_flag::<usize>(flag, value)?.max(1),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    let seconds = seconds.ok_or_else(usage)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let work = PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
    Ok((
        workload,
        Config {
            seed: seed.ok_or_else(usage)?,
            window: Duration::from_secs_f64(seconds),
            traced,
            threads,
            work,
        },
    ))
}

fn run(args: &[String]) -> Result<String, String> {
    let (workload, cfg) = parse_args(args)?;
    // Pin the executor before anything touches it.
    std::env::set_var("OMNET_THREADS", cfg.threads.to_string());
    std::fs::create_dir_all(&cfg.work)
        .map_err(|e| format!("cannot create {}: {e}", cfg.work.display()))?;
    let _cleanup = WorkDir(cfg.work.clone());
    let outcome = match workload.as_str() {
        "offline" => offline::run(&cfg)?,
        "serve_read" => serve_read::run(&cfg)?,
        "serve_write" => serve_write::run(&cfg)?,
        other => return Err(format!("unknown workload {other}\n{}", usage())),
    };
    if !outcome.correct {
        eprintln!(
            "perfbench: output checks FAILED ({} of {} ops)",
            outcome.failed, outcome.attempted
        );
    }
    outcome.json(cfg.traced)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
