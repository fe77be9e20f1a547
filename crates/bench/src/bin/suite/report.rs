#![deny(unsafe_code)]
//! The metric catalogue and the run's output: one `name value unit` line
//! per metric, a JSON summary (and, when traced, the layer ledger) under
//! `target/bench-suite/`, and a final one-line JSON result on stdout.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use deepoheat_bench::BenchError;

use crate::ledger::{Ceilings, Ledger};
use crate::stats::{median, tail};

/// End-to-end metrics, measured with no telemetry recorder installed and
/// reported by every workload.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("latency_p50_ms", "ms"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics, reported by every `--trace` run. A layer a workload
/// does not run reads 0; no time metric is ever workload-specific, so a
/// 0 never stands for a time.
pub const PER_LAYER: [(&str, &str); 57] = [
    // Every workload.
    ("layers.coverage", "ratio"),
    ("layers.e2e_1t_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("ceiling.gemm_gflops", "GFLOP/s"),
    ("ceiling.stream_gbs", "GB/s"),
    // Serving: where a request's time went, and the query path's layers.
    ("serve.queue_wait.share", "ratio"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.retries_per_req", "count"),
    ("nn.fourier.share", "ratio"),
    ("nn.trunk.dense0.share", "ratio"),
    ("nn.trunk.dense0.gemm_frac", "ratio"),
    ("nn.trunk.dense1.share", "ratio"),
    ("nn.trunk.dense1.gemm_frac", "ratio"),
    ("nn.trunk.dense2.share", "ratio"),
    ("nn.trunk.dense2.gemm_frac", "ratio"),
    ("nn.trunk.dense3.share", "ratio"),
    ("nn.trunk.dense3.gemm_frac", "ratio"),
    ("nn.trunk.dense4.share", "ratio"),
    ("nn.trunk.dense4.gemm_frac", "ratio"),
    ("nn.trunk.dense5.share", "ratio"),
    ("nn.trunk.dense5.gemm_frac", "ratio"),
    ("linalg.combine.share", "ratio"),
    ("linalg.combine.gemm_frac", "ratio"),
    // Reference solve, one map at a time.
    ("fdm.assemble.share", "ratio"),
    ("fdm.solve.share", "ratio"),
    ("fdm.precond_build.share", "ratio"),
    ("fdm.cg.iterations.p50", "count"),
    ("fdm.cg.attempts_per_solve", "count"),
    ("linalg.spmv.share", "ratio"),
    ("linalg.spmv.gbs", "GB/s"),
    ("linalg.spmv.bw_frac", "ratio"),
    ("linalg.precond_apply.share", "ratio"),
    ("linalg.precond_apply.gbs", "GB/s"),
    ("linalg.precond_apply.bw_frac", "ratio"),
    ("linalg.level1.share", "ratio"),
    ("linalg.level1.gbs", "GB/s"),
    ("linalg.level1.bw_frac", "ratio"),
    // Reference solve, a batch of maps against one operator.
    ("fdm.batch.assemble.share", "ratio"),
    ("fdm.batch.solve.share", "ratio"),
    ("fdm.batch.polish.share", "ratio"),
    ("fdm.block_cg.iterations", "count"),
    ("fdm.block_cg.recycle_hit_ratio", "ratio"),
    ("fdm.batch.polished_frac", "ratio"),
    ("linalg.spmm.share", "ratio"),
    ("linalg.spmm.gbs", "GB/s"),
    ("linalg.spmm.bw_frac", "ratio"),
    ("linalg.block_update.share", "ratio"),
    ("linalg.block_update.gemm_frac", "ratio"),
    // Physics-informed training step.
    ("grf.sample.share", "ratio"),
    ("core.collocation.share", "ratio"),
    ("core.bind.share", "ratio"),
    ("core.branch.share", "ratio"),
    ("core.trunk_jet.share", "ratio"),
    ("core.combine_jet.share", "ratio"),
    ("core.residual.share", "ratio"),
    ("autodiff.backward.share", "ratio"),
    ("nn.adam.share", "ratio"),
];

/// Whether `name` is a valid metric name (`[A-Za-z0-9_.-]+`).
pub fn valid_name(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// One output check of a run.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, passed: bool, detail: impl Into<String>) -> Self {
        Check { name, passed, detail: detail.into() }
    }
}

/// What a workload hands back to the reporter.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Items the measured phase attempted and how many failed (shed,
    /// deadline, shard error, degraded solve, diverged step).
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Metric values by catalogue name.
    pub metrics: BTreeMap<String, f64>,
    /// Run details for the JSON summary (sample counts, tails, sizes).
    pub info: Vec<(String, Json)>,
    /// The layer ledger of a traced run, with its ceilings and the
    /// measured tracing overhead.
    pub ledger: Option<(Ledger, Ceilings, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn info(&mut self, key: &str, value: Json) {
        self.info.push((key.to_string(), value));
    }

    pub fn check(&mut self, check: Check) {
        self.checks.push(check);
    }

    /// Records `peak_rss_mb` as of now. Workloads call it when the
    /// measured phase ends, before the output checks, whose reference
    /// computations are not part of the workload.
    pub fn record_peak_rss(&mut self) -> Result<(), BenchError> {
        self.set("peak_rss_mb", peak_rss_mb()?);
        Ok(())
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mb() -> Result<f64, BenchError> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for VmHWM: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// Prints the run's metrics and result, writes the JSON artefacts, and
/// returns the process exit code (0, or 1 when an output check failed).
pub fn finish(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    mut outcome: Outcome,
) -> Result<i32, BenchError> {
    let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    if let Some((bad, _)) = catalogue.iter().find(|(name, _)| !valid_name(name)) {
        return Err(format!("metric name {bad:?} does not match [A-Za-z0-9_.-]+").into());
    }
    if let Some((ledger, ceilings, overhead)) = &outcome.ledger {
        let mut values = ledger.metric_values(ceilings);
        for (name, value) in [
            ("layers.coverage", ledger.coverage()),
            ("layers.e2e_1t_ms", 1e3 * ledger.e2e_seconds / ledger.items.max(1) as f64),
            ("trace.overhead_frac", *overhead),
            ("ceiling.gemm_gflops", ceilings.gemm_gflops),
            ("ceiling.stream_gbs", ceilings.stream_gbs),
        ] {
            values.insert(name.to_string(), value);
        }
        outcome.metrics.extend(values);
    }
    if let Some(stray) = outcome.metrics.keys().find(|k| !catalogue.iter().any(|(n, _)| n == k)) {
        return Err(format!("{workload} produced {stray:?}, which is not in the catalogue").into());
    }
    let mut metrics = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let value = match outcome.metrics.get(*name) {
            Some(v) => *v,
            // Layers this workload does not run read 0; an end-to-end
            // metric must always be measured.
            None if trace => 0.0,
            None => return Err(format!("{workload} did not measure {name}").into()),
        };
        if !value.is_finite() {
            return Err(format!("{workload}: {name} is not finite ({value})").into());
        }
        metrics.push((*name, value, *unit));
    }

    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    for check in &outcome.checks {
        let verdict = if check.passed { "ok" } else { "FAILED" };
        eprintln!("check {}: {verdict} ({})", check.name, check.detail);
    }
    let correct = outcome.checks.iter().all(|c| c.passed);

    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    (*name).to_string(),
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    );
    let checks_json = Json::Arr(
        outcome
            .checks
            .iter()
            .map(|c| {
                Json::obj([
                    ("name", Json::str(c.name)),
                    ("passed", Json::Bool(c.passed)),
                    ("detail", Json::str(&c.detail)),
                ])
            })
            .collect(),
    );
    let mut summary = vec![
        ("workload".to_string(), Json::str(workload)),
        ("seed".to_string(), Json::Int(seed)),
        ("seconds".to_string(), Json::Num(seconds)),
        ("trace".to_string(), Json::Bool(trace)),
        ("pool_threads".to_string(), Json::Int(deepoheat_parallel::num_threads() as u64)),
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Int(outcome.attempted)),
        ("failed".to_string(), Json::Int(outcome.failed)),
        ("metrics".to_string(), metrics_json.clone()),
        ("checks".to_string(), checks_json),
    ];
    summary.extend(outcome.info);
    let dir = PathBuf::from("target").join("bench-suite");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let suffix = if trace { "trace" } else { "run" };
    write_json(&dir.join(format!("{workload}.{suffix}.json")), &Json::Obj(summary))?;
    if let Some((ledger, ceilings, overhead)) = &outcome.ledger {
        write_json(
            &dir.join(format!("{workload}.layers.json")),
            &ledger.to_json(ceilings, *overhead),
        )?;
    }

    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(outcome.attempted.max(1))),
        ("failed", Json::Int(outcome.failed)),
        ("metrics", metrics_json),
    ]);
    println!("{}", result.render());
    Ok(if correct { 0 } else { 1 })
}

/// A sample of durations (seconds) as its count, median and the highest
/// percentile it supports, in milliseconds, and every sample in the order
/// taken (a drift within the run shows there).
pub fn latency_json(seconds: &[f64]) -> Json {
    let ms: Vec<f64> = seconds.iter().map(|s| s * 1e3).collect();
    let tail = match tail(&ms) {
        Some((pct, v)) => Json::obj([("percentile", Json::Num(pct)), ("ms", Json::Num(v))]),
        None => Json::Null,
    };
    Json::obj([
        ("samples", Json::Int(ms.len() as u64)),
        ("p50_ms", median(&ms).map_or(Json::Null, Json::Num)),
        ("tail", tail),
        ("in_order_ms", Json::nums(&ms)),
    ])
}

fn write_json(path: &std::path::Path, value: &Json) -> Result<(), BenchError> {
    let mut text = value.render();
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()).into())
}

/// A JSON value, rendered compactly with every digit of each number.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // `{}` prints the shortest string that round-trips; JSON has
            // no spelling for NaN or infinity.
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark definition (`BENCHMARK.json`), checked against the
    /// catalogue this binary emits.
    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    /// Minimal JSON reader for the test: objects, arrays, strings,
    /// numbers, booleans and null.
    #[derive(Debug, Clone, PartialEq)]
    enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        fn get(&self, key: &str) -> &Value {
            match self {
                Value::Obj(pairs) => &pairs.iter().find(|(k, _)| k == key).expect(key).1,
                other => panic!("{other:?} is not an object"),
            }
        }

        fn items(&self) -> &[Value] {
            match self {
                Value::Arr(items) => items,
                other => panic!("{other:?} is not an array"),
            }
        }

        fn text(&self) -> &str {
            match self {
                Value::Str(s) => s,
                other => panic!("{other:?} is not a string"),
            }
        }
    }

    fn parse(text: &str) -> Value {
        fn ws(b: &[u8], i: &mut usize) {
            while *i < b.len() && b[*i].is_ascii_whitespace() {
                *i += 1;
            }
        }
        fn string(b: &[u8], i: &mut usize) -> String {
            assert_eq!(b[*i], b'"');
            *i += 1;
            let mut out = String::new();
            while b[*i] != b'"' {
                if b[*i] == b'\\' {
                    *i += 1;
                }
                out.push(b[*i] as char);
                *i += 1;
            }
            *i += 1;
            out
        }
        fn value(b: &[u8], i: &mut usize) -> Value {
            ws(b, i);
            match b[*i] {
                b'{' => {
                    *i += 1;
                    let mut pairs = Vec::new();
                    loop {
                        ws(b, i);
                        if b[*i] == b'}' {
                            *i += 1;
                            return Value::Obj(pairs);
                        }
                        let key = string(b, i);
                        ws(b, i);
                        assert_eq!(b[*i], b':');
                        *i += 1;
                        pairs.push((key, value(b, i)));
                        ws(b, i);
                        if b[*i] == b',' {
                            *i += 1;
                        }
                    }
                }
                b'[' => {
                    *i += 1;
                    let mut items = Vec::new();
                    loop {
                        ws(b, i);
                        if b[*i] == b']' {
                            *i += 1;
                            return Value::Arr(items);
                        }
                        items.push(value(b, i));
                        ws(b, i);
                        if b[*i] == b',' {
                            *i += 1;
                        }
                    }
                }
                b'"' => Value::Str(string(b, i)),
                b't' => {
                    *i += 4;
                    Value::Bool(true)
                }
                b'f' => {
                    *i += 5;
                    Value::Bool(false)
                }
                b'n' => {
                    *i += 4;
                    Value::Null
                }
                _ => {
                    let start = *i;
                    while *i < b.len() && b"+-.eE0123456789".contains(&b[*i]) {
                        *i += 1;
                    }
                    Value::Num(std::str::from_utf8(&b[start..*i]).unwrap().parse().unwrap())
                }
            }
        }
        let bytes = text.as_bytes();
        let mut i = 0;
        let v = value(bytes, &mut i);
        ws(bytes, &mut i);
        assert_eq!(i, bytes.len(), "trailing text after the JSON value");
        v
    }

    fn listed(section: &str) -> Vec<(String, String)> {
        parse(BENCHMARK_JSON)
            .get(section)
            .items()
            .iter()
            .map(|m| (m.get("name").text().to_string(), m.get("unit").text().to_string()))
            .collect()
    }

    fn emitted(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
        catalogue.iter().map(|(n, u)| ((*n).to_string(), (*u).to_string())).collect()
    }

    #[test]
    fn emitted_metrics_match_the_benchmark_definition() {
        assert_eq!(emitted(&END_TO_END), listed("end_to_end"));
        assert_eq!(emitted(&PER_LAYER), listed("per_layer"));
    }

    #[test]
    fn workloads_match_the_benchmark_definition() {
        let names: Vec<String> = parse(BENCHMARK_JSON)
            .get("workloads")
            .items()
            .iter()
            .map(|w| w.get("name").text().to_string())
            .collect();
        assert_eq!(names, crate::WORKLOADS.map(String::from).to_vec());
    }

    #[test]
    fn run_length_matches_the_benchmark_definition() {
        let root = parse(BENCHMARK_JSON);
        assert_eq!(root.get("run_seconds"), &Value::Num(crate::RUN_SECONDS as f64));
        let solve_sweep = root
            .get("workloads")
            .items()
            .iter()
            .find(|w| w.get("name").text() == "solve_sweep")
            .expect("solve_sweep is listed")
            .get("why")
            .text();
        let batch = format!("{} maps", crate::solve::SWEEP_BATCH);
        assert!(solve_sweep.contains(&batch), "{solve_sweep:?} does not say {batch:?}");
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        for bad in ["", "a b", "p99%", "x/y", "é"] {
            assert!(!valid_name(bad), "{bad:?} accepted");
        }
        assert!(valid_name("nn.trunk.dense0.gemm_frac"));
        assert!(valid_name("latency_p50_ms"));
    }

    #[test]
    fn end_to_end_bounds_are_at_most_a_quarter_and_setup_is_listed() {
        let root = parse(BENCHMARK_JSON);
        for metric in root.get("end_to_end").items() {
            let Value::Num(bound) = metric.get("bound") else { panic!("bound") };
            assert!(*bound > 0.0 && *bound <= 0.25, "{metric:?}");
        }
        let setup = root
            .get("end_to_end")
            .items()
            .iter()
            .find(|m| m.get("name").text() == "setup_s")
            .expect("setup_s is listed");
        assert_eq!(setup.get("better").text(), "lower");
    }

    #[test]
    fn json_numbers_keep_every_digit_and_strings_escape() {
        let v = Json::obj([
            ("x", Json::Num(0.1 + 0.2)),
            ("s", Json::str("a\"b\\c\n")),
            ("n", Json::Num(f64::NAN)),
        ]);
        let text = v.render();
        assert_eq!(text, r#"{"x": 0.30000000000000004, "s": "a\"b\\c\u000a", "n": null}"#);
        assert_eq!(parse(&text).get("x"), &Value::Num(0.30000000000000004));
    }
}
