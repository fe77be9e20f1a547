//! `cargo xtask benchcheck` — the CI perf-regression gate.
//!
//! Reads the committed baseline at `xtask/bench-baseline.json`, loads the
//! bench manifests it references (fresh `BENCH_*.json` files produced by
//! the bench binaries), and compares each tracked gauge against its
//! recorded value within a per-check tolerance band. Prints a delta
//! table; any gauge outside its band (or any missing manifest/gauge)
//! fails the run.
//!
//! Only machine-robust gauges belong in the baseline: ratios such as
//! batched-vs-naive speedups and deterministic quantities such as cache
//! hit rates. Raw wall-clock seconds and queries/sec vary across runners
//! and would make the gate flaky; they are still present in the uploaded
//! manifests for human inspection.
//!
//! `--update-baseline` rewrites the recorded values (keeping directions
//! and tolerances) from the current manifests.

use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, Json};

/// Relative path of the committed bench baseline.
pub const BENCH_BASELINE_PATH: &str = "xtask/bench-baseline.json";

/// Relative path of the committed accuracy baseline (the `accuracycheck`
/// gate over `BENCH_accuracy.json`).
pub const ACCURACY_BASELINE_PATH: &str = "xtask/accuracy-baseline.json";

/// Header comment re-emitted into `xtask/bench-baseline.json` on
/// `--update-baseline`.
pub const BENCH_BASELINE_COMMENT: &str = "Perf-regression gate reference values. Regenerate with: cargo run --release -p deepoheat-bench --bin perf_baseline -- --quick && cargo run --release -p deepoheat-bench --bin serve_throughput -- --quick && cargo xtask benchcheck --update-baseline. Only machine-robust gauges (ratios, deterministic rates) belong here.";

/// Header comment re-emitted into `xtask/accuracy-baseline.json` on
/// `--update-baseline`.
pub const ACCURACY_BASELINE_COMMENT: &str = "Accuracy-gate reference values for the surrogate-vs-reference sweep. Regenerate with: cargo run --release -p deepoheat-bench --bin accuracy_sweep -- --quick && cargo xtask accuracycheck --update-baseline. The sweep is seeded and bit-identical across pool widths, so these bands only need to absorb cross-platform libm drift and wall-clock noise on the speedup ratio.";

/// Which direction of drift counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// The gauge should stay high (speedups, hit rates): regression when
    /// `value < baseline · (1 − tolerance)`.
    HigherIsBetter,
    /// The gauge should stay low (overheads): regression when
    /// `value > baseline · (1 + tolerance)`.
    LowerIsBetter,
}

impl Direction {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "higher" => Ok(Direction::HigherIsBetter),
            "lower" => Ok(Direction::LowerIsBetter),
            other => Err(format!("unknown direction `{other}` (expected `higher` or `lower`)")),
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Direction::HigherIsBetter => "higher",
            Direction::LowerIsBetter => "lower",
        }
    }
}

/// One tracked gauge from the baseline file.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Manifest file name, e.g. `BENCH_serve.json`.
    pub manifest: String,
    /// Gauge key inside `metrics.gauges`.
    pub gauge: String,
    /// Which drift direction is a regression.
    pub direction: Direction,
    /// Recorded reference value.
    pub baseline: f64,
    /// Fractional tolerance band around the baseline (e.g. `0.25`).
    pub tolerance: f64,
}

impl Check {
    /// The bound the current value must respect.
    fn bound(&self) -> f64 {
        match self.direction {
            Direction::HigherIsBetter => self.baseline * (1.0 - self.tolerance),
            Direction::LowerIsBetter => self.baseline * (1.0 + self.tolerance),
        }
    }

    /// Whether `value` is within the band.
    fn passes(&self, value: f64) -> bool {
        match self.direction {
            Direction::HigherIsBetter => value >= self.bound(),
            Direction::LowerIsBetter => value <= self.bound(),
        }
    }
}

/// Parses a baseline document, citing `label` (normally the file's
/// relative path) in every diagnostic.
///
/// # Errors
///
/// Returns a message for malformed JSON or missing/ill-typed fields.
pub fn parse_baseline_at(label: &str, text: &str) -> Result<Vec<Check>, String> {
    let doc = json::parse(text).map_err(|e| format!("{label}: {e}"))?;
    let checks = doc
        .get("checks")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{label}: missing `checks` array"))?;
    let mut out = Vec::with_capacity(checks.len());
    for (i, check) in checks.iter().enumerate() {
        let field = |key: &str| {
            check.get(key).ok_or_else(|| format!("{label}: check {i}: missing `{key}`"))
        };
        let str_field = |key: &str| {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{label}: check {i}: `{key}` must be a string"))
        };
        let num_field = |key: &str| {
            field(key)?
                .as_f64()
                .ok_or_else(|| format!("{label}: check {i}: `{key}` must be a number"))
        };
        let tolerance = num_field("tolerance")?;
        if !(0.0..1.0).contains(&tolerance) {
            return Err(format!(
                "{label}: check {i}: tolerance must be in [0, 1), got {tolerance}"
            ));
        }
        out.push(Check {
            manifest: str_field("manifest")?,
            gauge: str_field("gauge")?,
            direction: Direction::parse(&str_field("direction")?)
                .map_err(|e| format!("{label}: check {i}: {e}"))?,
            baseline: num_field("baseline")?,
            tolerance,
        });
    }
    if out.is_empty() {
        return Err(format!("{label}: `checks` is empty — nothing to gate"));
    }
    Ok(out)
}

/// The outcome of comparing one check against a fresh manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckResult {
    /// The check that ran.
    pub check: Check,
    /// The fresh gauge value, or an error message when it could not be
    /// read.
    pub value: Result<f64, String>,
    /// Whether the check passed.
    pub ok: bool,
}

/// Compares every check against the manifests under `dir`.
pub fn run_checks(dir: &Path, checks: &[Check]) -> Vec<CheckResult> {
    // Parse each referenced manifest once.
    let mut manifests: Vec<(String, Result<Json, String>)> = Vec::new();
    for check in checks {
        if manifests.iter().any(|(name, _)| *name == check.manifest) {
            continue;
        }
        let path = dir.join(&check.manifest);
        let parsed = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|text| {
                json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
            });
        manifests.push((check.manifest.clone(), parsed));
    }
    checks
        .iter()
        .map(|check| {
            let manifest = manifests
                .iter()
                .find(|(name, _)| *name == check.manifest)
                .map(|(_, parsed)| parsed)
                .expect("invariant: every check's manifest was just loaded");
            let value = match manifest {
                Err(e) => Err(e.clone()),
                Ok(doc) => doc
                    .get_path(&["metrics", "gauges", &check.gauge])
                    .and_then(Json::as_f64)
                    .ok_or_else(|| {
                        format!("gauge `{}` not found in {}", check.gauge, check.manifest)
                    }),
            };
            let ok = matches!(value, Ok(v) if check.passes(v));
            CheckResult { check: check.clone(), value, ok }
        })
        .collect()
}

/// Renders the delta table, labelling the summary line with `name`
/// (`benchcheck` or `accuracycheck`).
pub fn format_table_for(name: &str, results: &[CheckResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<34} {:>10} {:>10} {:>8} {:>10}  status",
        "gauge", "baseline", "current", "delta", "bound"
    );
    for r in results {
        match &r.value {
            Ok(v) => {
                let delta = if r.check.baseline != 0.0 {
                    (v - r.check.baseline) / r.check.baseline * 100.0
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "{:<34} {:>10.4} {:>10.4} {:>7.1}% {:>10.4}  {}",
                    r.check.gauge,
                    r.check.baseline,
                    v,
                    delta,
                    r.check.bound(),
                    if r.ok { "ok" } else { "REGRESSED" },
                );
            }
            Err(e) => {
                let _ = writeln!(
                    out,
                    "{:<34} {:>10.4} {:>21}  {e}",
                    r.check.gauge, r.check.baseline, "-"
                );
            }
        }
    }
    let failed = results.iter().filter(|r| !r.ok).count();
    if failed == 0 {
        let _ = writeln!(out, "\n{name}: all {} tracked gauges within tolerance", results.len());
    } else {
        let _ = writeln!(
            out,
            "\n{name}: {failed} of {} tracked gauges regressed (or could not be read)",
            results.len()
        );
    }
    out
}

/// Re-emits the baseline document with values replaced by the fresh
/// measurements (directions and tolerances preserved), under the header
/// comment `comment`.
///
/// # Errors
///
/// Returns a message when any fresh value is unavailable.
pub fn render_updated_baseline_with_comment(
    results: &[CheckResult],
    comment: &str,
) -> Result<String, String> {
    let mut out = format!("{{\n  \"comment\": \"{comment}\",\n  \"checks\": [\n");
    for (i, r) in results.iter().enumerate() {
        let value = r
            .value
            .as_ref()
            .map_err(|e| format!("cannot update baseline for `{}`: {e}", r.check.gauge))?;
        // `{}` keeps the shortest round-trip representation: `{:.4}`
        // would flatten sub-1e-4 gauges (e.g. f32-divergence maxima) to
        // 0.0000 and make their bands vacuous.
        let _ = write!(
            out,
            "    {{\"manifest\": \"{}\", \"gauge\": \"{}\", \"direction\": \"{}\", \"baseline\": {}, \"tolerance\": {}}}",
            r.check.manifest,
            r.check.gauge,
            r.check.direction.as_str(),
            value,
            r.check.tolerance,
        );
        out.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_baseline(text: &str) -> Result<Vec<Check>, String> {
        parse_baseline_at(BENCH_BASELINE_PATH, text)
    }

    fn format_table(results: &[CheckResult]) -> String {
        format_table_for("benchcheck", results)
    }

    fn render_updated_baseline(results: &[CheckResult]) -> Result<String, String> {
        render_updated_baseline_with_comment(results, BENCH_BASELINE_COMMENT)
    }

    fn baseline_doc() -> &'static str {
        r#"{
          "checks": [
            {"manifest": "BENCH_serve.json", "gauge": "serve.speedup_warm_vs_naive",
             "direction": "higher", "baseline": 5.3, "tolerance": 0.25},
            {"manifest": "BENCH_serve.json", "gauge": "serve.cache_hit_rate",
             "direction": "higher", "baseline": 0.6667, "tolerance": 0.02}
          ]
        }"#
    }

    #[test]
    fn parses_and_bands() {
        let checks = parse_baseline(baseline_doc()).unwrap();
        assert_eq!(checks.len(), 2);
        let speedup = &checks[0];
        assert_eq!(speedup.direction, Direction::HigherIsBetter);
        assert!(speedup.passes(5.3));
        assert!(speedup.passes(4.0), "within the 25% band");
        assert!(!speedup.passes(3.9), "below the band");
    }

    #[test]
    fn lower_is_better_flips_the_band() {
        let check = Check {
            manifest: "m".into(),
            gauge: "g".into(),
            direction: Direction::LowerIsBetter,
            baseline: 1.0,
            tolerance: 0.1,
        };
        assert!(check.passes(1.05));
        assert!(!check.passes(1.2));
    }

    #[test]
    fn rejects_malformed_baselines() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline(r#"{"checks": []}"#).is_err());
        assert!(parse_baseline(
            r#"{"checks": [{"manifest": "m", "gauge": "g", "direction": "sideways",
                "baseline": 1.0, "tolerance": 0.1}]}"#
        )
        .is_err());
        assert!(parse_baseline(
            r#"{"checks": [{"manifest": "m", "gauge": "g", "direction": "higher",
                "baseline": 1.0, "tolerance": 1.5}]}"#
        )
        .is_err());
    }

    #[test]
    fn end_to_end_against_a_manifest_on_disk() {
        let dir = std::env::temp_dir().join("deepoheat-benchcheck-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("BENCH_serve.json"),
            r#"{"name":"serve","metrics":{"gauges":{
                "serve.speedup_warm_vs_naive":5.1,"serve.cache_hit_rate":0.6667}}}"#,
        )
        .unwrap();
        let checks = parse_baseline(baseline_doc()).unwrap();
        let results = run_checks(&dir, &checks);
        assert!(results.iter().all(|r| r.ok), "{}", format_table(&results));

        // A missing gauge is a failure, not a silent pass.
        std::fs::write(dir.join("BENCH_serve.json"), r#"{"name":"serve","metrics":{"gauges":{}}}"#)
            .unwrap();
        let results = run_checks(&dir, &checks);
        assert!(results.iter().all(|r| !r.ok));
        assert!(format_table(&results).contains("not found"));
    }

    #[test]
    fn tiny_baselines_survive_update_round_trips() {
        // The f32-divergence gauge sits near 1e-7; a fixed-precision
        // renderer would flatten it to 0 and make its band vacuous.
        let check = Check {
            manifest: "BENCH_accuracy.json".into(),
            gauge: "accuracy.f32.divergence.max".into(),
            direction: Direction::LowerIsBetter,
            baseline: 0.0,
            tolerance: 0.9,
        };
        let results = vec![CheckResult { check, value: Ok(7.61e-8), ok: true }];
        let text = render_updated_baseline_with_comment(&results, ACCURACY_BASELINE_COMMENT)
            .expect("renderable");
        let reparsed = parse_baseline_at(ACCURACY_BASELINE_PATH, &text).expect("parseable");
        assert!((reparsed[0].baseline - 7.61e-8).abs() < 1e-15, "{}", reparsed[0].baseline);
    }

    #[test]
    fn parse_errors_cite_the_requested_label() {
        let err = parse_baseline_at("xtask/custom.json", "{}").unwrap_err();
        assert!(err.contains("xtask/custom.json"), "{err}");
    }

    #[test]
    fn updated_baseline_round_trips() {
        let checks = parse_baseline(baseline_doc()).unwrap();
        let results: Vec<CheckResult> = checks
            .iter()
            .map(|c| CheckResult { check: c.clone(), value: Ok(c.baseline * 1.1), ok: true })
            .collect();
        let text = render_updated_baseline(&results).unwrap();
        let reparsed = parse_baseline(&text).unwrap();
        assert_eq!(reparsed.len(), checks.len());
        assert!((reparsed[0].baseline - 5.3 * 1.1).abs() < 1e-3);
        assert_eq!(reparsed[0].tolerance, checks[0].tolerance);
    }
}
