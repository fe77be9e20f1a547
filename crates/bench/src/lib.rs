#![deny(unsafe_code)]
//! Shared helpers for the experiment-regeneration and measurement binaries
//! of the DeepOHeat reproduction.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §5 for the experiment index):
//!
//! | binary | paper artefact |
//! |---|---|
//! | `table1` | Table I (MAPE/PAPE for p₁…p₁₀) |
//! | `fig3_fields` | Fig. 3 (temperature fields) |
//! | `fig4_powermaps` | Fig. 4 (training vs tile vs interpolated maps) |
//! | `fig5_htc` | Fig. 5 + §V.B metrics |
//! | `speedup` | §V.A.7 / §V.B speedup comparison |

use std::collections::HashMap;
use std::time::Instant;

/// Boxed error type shared by the harness binaries' fallible bodies.
pub type BenchError = Box<dyn std::error::Error>;

/// Entry-point wrapper for the harness binaries: runs `body` and, on
/// error, flushes telemetry, prints a one-line `name: error: …`
/// diagnostic to stderr, and exits with a nonzero status instead of
/// panicking.
pub fn run_or_exit(name: &str, body: impl FnOnce() -> Result<(), BenchError>) {
    if let Err(err) = body() {
        finish_telemetry();
        eprintln!("{name}: error: {err}");
        std::process::exit(1);
    }
}

/// The upper median of `samples`: the middle sample after sorting, the
/// upper of the two middle ones for an even count.
///
/// # Errors
///
/// Returns an error when `samples` is empty.
pub fn median(mut samples: Vec<f64>) -> Result<f64, BenchError> {
    samples.sort_by(f64::total_cmp);
    samples
        .get(samples.len() / 2)
        .copied()
        .ok_or_else(|| "no samples to take the median of: the repeat count must be positive".into())
}

/// The median wall-clock seconds of `repeats` runs of `f`.
///
/// # Errors
///
/// Propagates the first error of `f`, and fails when `repeats` is zero.
pub fn time_median<F>(repeats: usize, mut f: F) -> Result<f64, BenchError>
where
    F: FnMut() -> Result<(), BenchError>,
{
    let mut samples = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t = Instant::now();
        f()?;
        samples.push(t.elapsed().as_secs_f64());
    }
    median(samples)
}

/// Minimal `--key value` / `--flag` argument parser for the harness
/// binaries (avoids a CLI dependency).
///
/// # Examples
///
/// ```
/// use deepoheat_bench::Args;
/// let args = Args::from_iter(["--iterations", "100", "--quick"].iter().map(|s| s.to_string()));
/// assert_eq!(args.get_usize("iterations", 5)?, 100);
/// assert!(args.flag("quick"));
/// assert_eq!(args.get_str("mode", "physics"), "physics");
/// # Ok::<(), deepoheat_bench::BenchError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl FromIterator<String> for Args {
    /// Parses an explicit argument list.
    fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut iter = iter.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else { continue };
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    values.insert(key.to_string(), iter.next().expect("peeked"));
                }
                _ => flags.push(key.to_string()),
            }
        }
        Args { values, flags }
    }
}

impl Args {
    /// Parses the process arguments (skipping `argv[0]`).
    pub fn from_env() -> Self {
        std::env::args().skip(1).collect()
    }

    /// Returns a `usize` option or the default.
    ///
    /// # Errors
    ///
    /// Returns a usage message if the value does not parse.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, BenchError> {
        match self.values.get(key) {
            Some(v) => {
                v.parse().map_err(|_| format!("--{key} expects an integer, got {v:?}").into())
            }
            None => Ok(default),
        }
    }

    /// Returns an `f64` option or the default.
    ///
    /// # Errors
    ///
    /// Returns a usage message if the value does not parse.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, BenchError> {
        match self.values.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key} expects a number, got {v:?}").into()),
            None => Ok(default),
        }
    }

    /// Returns a string option or the default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.values.get(key).cloned().unwrap_or_else(|| default.to_string())
    }

    /// Returns `true` if `--key` was passed without a value.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

/// Formats a duration in human-friendly seconds.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.1}s", d.as_secs_f64())
}

/// Handle returned by [`init_telemetry`]; finishing it writes the run's
/// exposition and profiling artefacts alongside the manifest.
#[must_use = "call finish() to write the manifest, metrics snapshot, and flamegraph"]
#[derive(Debug)]
pub struct BenchTelemetry {
    events_path: std::path::PathBuf,
    folded_path: std::path::PathBuf,
    metrics_out: Option<std::path::PathBuf>,
    /// Byte length of the (append-mode) event log when this run started;
    /// the flamegraph folds only this run's spans, not earlier runs'.
    events_start: u64,
}

impl BenchTelemetry {
    /// Finishes the run: dumps the Prometheus snapshot (when
    /// `--metrics-out` was passed), writes the manifest via
    /// [`finish_telemetry`], and renders this run's span tree as a
    /// folded-stack flamegraph next to the event log
    /// (`BENCH_<name>.folded`). All output is best-effort: profiling
    /// failures warn, they never fail the bench.
    pub fn finish(self) {
        if let Some(path) = &self.metrics_out {
            match deepoheat_telemetry::expose_text() {
                Some(text) => {
                    if let Err(err) = std::fs::write(path, text) {
                        eprintln!("telemetry: cannot write {}: {err}", path.display());
                    } else {
                        eprintln!("telemetry: metrics snapshot written ({})", path.display());
                    }
                }
                None => eprintln!("telemetry: no recorder installed, skipping --metrics-out"),
            }
        }
        finish_telemetry();
        match std::fs::read_to_string(&self.events_path) {
            Ok(contents) => {
                let this_run = contents.get(self.events_start as usize..).unwrap_or("");
                let records: Vec<deepoheat_telemetry::SpanRecord> = this_run
                    .lines()
                    .filter_map(deepoheat_telemetry::SpanRecord::from_jsonl_line)
                    .collect();
                let folded = deepoheat_telemetry::fold_stacks(&records);
                if let Err(err) = std::fs::write(&self.folded_path, &folded) {
                    eprintln!("telemetry: cannot write {}: {err}", self.folded_path.display());
                } else {
                    eprintln!(
                        "telemetry: flamegraph folded stacks written ({}, {} span(s))",
                        self.folded_path.display(),
                        records.len()
                    );
                }
            }
            Err(err) => {
                eprintln!("telemetry: cannot re-read {}: {err}", self.events_path.display());
            }
        }
    }
}

/// Installs the global telemetry recorder for a bench binary.
///
/// The final run manifest is written to `BENCH_<name>.json` in the
/// working directory; the raw event stream goes to
/// `target/BENCH_<name>.jsonl` so only the summary artefact lands at the
/// repo root. Passing `--telemetry-dir <dir>` puts both files under
/// `<dir>` instead. Passing `--trace` additionally mirrors events to
/// stderr, and `--metrics-out <path>` dumps a Prometheus-text snapshot of
/// every metric at the end of the run. Call [`BenchTelemetry::finish`] at
/// the end of `main` to flush the manifest and write the profiling
/// artefacts (a `BENCH_<name>.folded` flamegraph lands next to the event
/// log).
pub fn init_telemetry(name: &str, args: &Args) -> BenchTelemetry {
    let (manifest_dir, events_dir) = match args.values.get("telemetry-dir") {
        Some(dir) => (std::path::PathBuf::from(dir), std::path::PathBuf::from(dir)),
        None => (std::path::PathBuf::from("."), std::path::PathBuf::from("target")),
    };
    if !events_dir.as_os_str().is_empty() {
        // Best-effort: a missing events dir downgrades to the warning below.
        let _ = std::fs::create_dir_all(&events_dir);
    }
    let events_path = events_dir.join(format!("BENCH_{name}.jsonl"));
    let manifest_path = manifest_dir.join(format!("BENCH_{name}.json"));
    let mut builder = deepoheat_telemetry::Recorder::builder(name);
    // The worker-pool width shapes every timing, so it is part of every
    // run manifest (results are bit-identical across widths by the
    // deepoheat-parallel contract, but wall-clock is not).
    builder = builder.config("threads", deepoheat_parallel::num_threads());
    // Every CLI option/flag lands in the manifest config, so runs stay
    // reproducible from their artefacts alone.
    for (key, value) in &args.values {
        builder = builder.config(key, value);
    }
    for flag in &args.flags {
        builder = builder.config(flag, "true");
    }
    // Append mode with torn-tail repair: an interrupted earlier run (e.g.
    // a crashed perf_baseline sweep) leaves its flushed events intact and
    // any half-written final line is dropped on startup.
    match deepoheat_telemetry::JsonlSink::append(&events_path) {
        Ok(sink) => {
            builder = builder.sink(Box::new(sink.with_manifest_path(manifest_path)));
        }
        Err(err) => eprintln!("telemetry: cannot open {}: {err}", events_path.display()),
    }
    if args.flag("trace") {
        builder = builder.console();
    }
    builder.install();
    // Measured *after* the sink's torn-tail repair truncated the log.
    let events_start = std::fs::metadata(&events_path).map(|m| m.len()).unwrap_or(0);
    BenchTelemetry {
        folded_path: events_dir.join(format!("BENCH_{name}.folded")),
        events_path,
        metrics_out: args.values.get("metrics-out").map(std::path::PathBuf::from),
        events_start,
    }
}

/// Records `config` key/values as gauges/events and finishes the run,
/// writing the manifest. Prints where it landed.
pub fn finish_telemetry() {
    if let Some(manifest) = deepoheat_telemetry::finish() {
        eprintln!(
            "telemetry: run '{}' manifest written (BENCH_{}.json)",
            manifest.name, manifest.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_values_and_flags() {
        let a = Args::from_iter(
            ["--iterations", "42", "--mode", "supervised", "--quick", "--scale", "2.5"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(a.get_usize("iterations", 0).unwrap(), 42);
        assert_eq!(a.get_str("mode", "x"), "supervised");
        assert!((a.get_f64("scale", 0.0).unwrap() - 2.5).abs() < 1e-12);
        assert!(a.flag("quick"));
        assert!(!a.flag("missing"));
        assert_eq!(a.get_usize("absent", 7).unwrap(), 7);
    }

    #[test]
    fn trailing_flag_is_a_flag() {
        let a = Args::from_iter(["--verbose"].iter().map(|s| s.to_string()));
        assert!(a.flag("verbose"));
    }

    #[test]
    fn median_takes_the_upper_middle_sample() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]).unwrap(), 3.0);
    }

    #[test]
    fn median_of_zero_samples_is_an_error() {
        assert!(median(Vec::new()).is_err());
        let mut runs = 0;
        assert!(time_median(0, || {
            runs += 1;
            Ok(())
        })
        .is_err());
        assert_eq!(runs, 0);
    }

    #[test]
    fn bad_integer_is_a_one_line_error() {
        let a = Args::from_iter(["--n", "abc"].iter().map(|s| s.to_string()));
        let err = a.get_usize("n", 0).unwrap_err().to_string();
        assert!(err.contains("expects an integer"), "{err}");
        assert!(!err.contains('\n'), "diagnostics must be one line: {err}");
    }
}
