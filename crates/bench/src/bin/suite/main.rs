#![deny(unsafe_code)]
//! The repository benchmark: four seeded workloads over the three paths
//! users run — a served query, a reference solve and a training step —
//! each in its own process.
//!
//! ```text
//! cargo run --release --offline --manifest-path crates/bench/src/bin/suite/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload measures for `--seconds` seconds. Its items — requests,
//! solves, batches or steps — come from a seeded stream in a fixed order,
//! so two builds given the same seed measure the same inputs, a faster
//! one a longer prefix of them. An untraced run (`--trace 0`, the
//! default) installs no telemetry recorder and reports the end-to-end
//! metrics; a traced run (`--trace 1`, or a bare `--trace`) reports the
//! per-layer ledger instead. Every run prints each metric as
//! `name value unit`, writes a JSON summary under `target/bench-suite/`,
//! ends stdout with a one-line JSON result, and exits nonzero when an
//! output check fails. See `README.md` beside this file for the
//! workloads, metrics, bounds and measurement protocol.

mod inputs;
mod ledger;
mod report;
mod serve;
mod solve;
mod stats;
mod train;

use std::time::Instant;

use deepoheat_bench::{Args, BenchError};

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["serve_field", "solve_single", "solve_sweep", "train_physics"];

/// Worker-pool width used unless `DEEPOHEAT_NUM_THREADS` is already set.
const DEFAULT_POOL_THREADS: &str = "2";

/// How long a run measures, in seconds: `run_seconds` in
/// `BENCHMARK.json` (a unit test keeps the two equal) and the default of
/// `--seconds`.
pub const RUN_SECONDS: u64 = 28;

/// One run's parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunConfig {
    fn from_args(args: &Args) -> Result<RunConfig, BenchError> {
        let workload = args.get_str("workload", "");
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("--workload must be one of {WORKLOADS:?}, got {workload:?}").into());
        }
        let seed = args.get_usize("seed", 0)? as u64;
        let seconds = args.get_f64("seconds", RUN_SECONDS as f64)?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds must be positive, got {seconds}").into());
        }
        let trace = args.flag("trace")
            || match args.get_str("trace", "0").as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace expects 0 or 1, got {other:?}").into()),
            };
        Ok(RunConfig { workload, seed, seconds, trace })
    }

    /// The measured phase of an untraced run.
    pub fn measured(&self) -> Items {
        Items::For(self.seconds)
    }

    /// The untraced phase of a traced run; its traced phase then repeats
    /// the same items.
    pub fn traced_third(&self) -> Items {
        Items::For(self.seconds / 3.0)
    }
}

/// How many items a phase runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Items {
    /// Every item that starts within this many seconds, and at least one.
    For(f64),
    /// Exactly this many.
    Count(usize),
}

impl Items {
    /// Starts the phase's clock and returns whether item `i` (counting
    /// from 0) may start.
    pub fn start(self) -> impl Fn(usize) -> bool {
        let start = Instant::now();
        move |i| match self {
            Items::For(seconds) => i == 0 || start.elapsed().as_secs_f64() < seconds,
            Items::Count(count) => i < count,
        }
    }
}

/// Set-up repetitions taken before the measured phase, and again after.
const SETUP_REPS: usize = 4;

/// Set-up wall times of one run. `setup_s` is their median over
/// repetitions at both ends of the run: a machine that changes speed
/// during a run then moves it halfway instead of all the way.
#[derive(Debug)]
pub struct SetupTimes(Vec<f64>);

/// Runs `build` [`SETUP_REPS`] times before the measured phase and keeps
/// the last product for it.
pub fn setup_before<T>(
    build: &mut impl FnMut() -> Result<T, BenchError>,
) -> Result<(SetupTimes, T), BenchError> {
    let mut times = SetupTimes(Vec::with_capacity(2 * SETUP_REPS));
    let mut product = None;
    for _ in 0..SETUP_REPS {
        // The previous product is dropped before the next build starts,
        // so repeated set-ups never hold two copies at once.
        drop(product.take());
        product = Some(times.time(build)?);
    }
    Ok((times, product.ok_or("no set-up product")?))
}

impl SetupTimes {
    fn time<T>(
        &mut self,
        build: &mut impl FnMut() -> Result<T, BenchError>,
    ) -> Result<T, BenchError> {
        let start = Instant::now();
        let product = build()?;
        self.0.push(start.elapsed().as_secs_f64());
        Ok(product)
    }

    /// Runs `build` [`SETUP_REPS`] more times after the measured phase
    /// (call it once the measured product is dropped, so peak memory is
    /// not raised) and returns the median of every set-up.
    pub fn after<T>(
        mut self,
        build: &mut impl FnMut() -> Result<T, BenchError>,
    ) -> Result<f64, BenchError> {
        for _ in 0..SETUP_REPS {
            drop(self.time(build)?);
        }
        stats::median(&self.0).ok_or_else(|| "no set-up sample".into())
    }
}

fn run() -> Result<i32, BenchError> {
    let config = RunConfig::from_args(&Args::from_env())?;
    let outcome = match config.workload.as_str() {
        "serve_field" => serve::field(&config)?,
        "solve_single" => solve::single(&config)?,
        "solve_sweep" => solve::sweep(&config)?,
        "train_physics" => train::physics(&config)?,
        other => return Err(format!("unknown workload {other:?}").into()),
    };
    report::finish(&config.workload, config.seed, config.seconds, config.trace, outcome)
}

fn main() {
    // The pool is sized once, at first use, from this variable.
    if std::env::var_os(deepoheat_parallel::ENV_NUM_THREADS).is_none() {
        std::env::set_var(deepoheat_parallel::ENV_NUM_THREADS, DEFAULT_POOL_THREADS);
    }
    let code = match run() {
        Ok(code) => code,
        Err(err) => {
            eprintln!("suite: error: {err}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunConfig, BenchError> {
        RunConfig::from_args(&args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let config =
            parse(&["--workload", "solve_sweep", "--seed", "17", "--seconds", "9", "--trace", "1"])
                .unwrap();
        assert_eq!(
            config,
            RunConfig { workload: "solve_sweep".into(), seed: 17, seconds: 9.0, trace: true }
        );
        let bare = parse(&["--workload", "serve_field", "--trace"]).unwrap();
        assert!(bare.trace);
        assert_eq!(bare.seconds, RUN_SECONDS as f64);
        assert!(!parse(&["--workload", "train_physics", "--trace", "0"]).unwrap().trace);
    }

    #[test]
    fn phases_run_for_their_time_or_their_count() {
        let more = Items::Count(3).start();
        assert_eq!((0..10).filter(|&i| more(i)).count(), 3);
        // An exhausted budget still runs one item.
        let more = Items::For(0.0).start();
        assert!(more(0) && !more(1));
        let more = Items::For(60.0).start();
        assert!(more(0) && more(1000));
        let config = parse(&["--workload", "solve_single", "--seconds", "9"]).unwrap();
        assert_eq!(config.measured(), Items::For(9.0));
        assert_eq!(config.traced_third(), Items::For(3.0));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "serve_field", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "serve_field", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "serve_field", "--seed", "-1"]).is_err());
    }

    /// The settings of a manifest's `[profile.release]` table.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|line| *line != "[profile.release]")
            .skip(1)
            .take_while(|line| !line.starts_with('['))
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .collect()
    }

    #[test]
    fn release_profile_matches_the_workspace() {
        let own = release_profile(include_str!("Cargo.toml"));
        let workspace = release_profile(include_str!("../../../../../Cargo.toml"));
        assert_eq!(own, workspace);
        assert_eq!(
            release_profile("[a]\nx = 1\n[profile.release]\n# c\nlto = true\n\n[b]"),
            ["lto = true"]
        );
    }

    #[test]
    fn set_up_is_timed_at_both_ends_and_keeps_the_last_product_before() {
        let mut built = 0;
        let mut build = || {
            built += 1;
            Ok(built)
        };
        let (times, product) = setup_before(&mut build).unwrap();
        assert_eq!(product, SETUP_REPS);
        assert!(times.after(&mut build).unwrap() >= 0.0);
        assert_eq!(built, 2 * SETUP_REPS);
    }
}
