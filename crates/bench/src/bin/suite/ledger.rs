#![deny(unsafe_code)]
//! The per-layer ledger of a `--trace` run: self time, call count, share
//! of end to end, and achieved rate against same-run ceilings.
//!
//! Layer times come from three sources, recorded on each entry:
//!
//! - `replay`: the suite times calls into a layer's public functions from
//!   its own files, on a 1-thread pool, and the entries are compared with
//!   the same items' 1-thread end-to-end time (`layers.coverage`);
//! - `span`: spans the program already emits, read back from the traced
//!   phase's JSONL log through `SpanRecord::from_jsonl_line`;
//! - `modelled`: solver kernels the program does not expose, timed per
//!   call on a 7-point replay operator of the assembled size and
//!   multiplied by the call counts the solver reports.
//!
//! The suite's own spans stay in memory ([`LayerTimer`]); nothing here
//! emits telemetry.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use deepoheat_bench::BenchError;
use deepoheat_linalg::Matrix;
use deepoheat_telemetry::{JsonlSink, Recorder, SpanRecord};

use crate::report::Json;
use crate::stats::median;

/// What bounds a layer, and the work it did (computed from operand
/// shapes, not measured).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Work {
    /// No meaningful rate.
    None,
    /// Floating-point operations; compared with the GEMM ceiling.
    Flops(f64),
    /// Bytes moved; compared with the streaming ceiling.
    Bytes(f64),
}

/// Where a layer's time came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Replay,
    Span,
    Modelled,
}

impl Source {
    fn label(self) -> &'static str {
        match self {
            Source::Replay => "replay",
            Source::Span => "span",
            Source::Modelled => "modelled",
        }
    }
}

/// One layer's accumulated entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    pub name: String,
    pub source: Source,
    pub seconds: f64,
    pub calls: u64,
    pub work: Work,
    /// End-to-end time the share is taken against.
    pub denominator: f64,
    /// Whether the entry is one of the disjoint layers summed into
    /// `layers.coverage`.
    pub covered: bool,
}

impl Layer {
    pub fn share(&self) -> f64 {
        ratio(self.seconds, self.denominator)
    }
}

/// Wall-clock self time per named layer, kept in memory.
#[derive(Debug, Default)]
pub struct LayerTimer {
    entries: BTreeMap<&'static str, (f64, u64, f64)>,
}

impl LayerTimer {
    /// Runs `f`, charging its wall time to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        self.time_work(layer, 0.0, f)
    }

    /// As [`LayerTimer::time`], also accumulating `work` units (flops or
    /// bytes, as the layer's [`Work`] kind says).
    pub fn time_work<T>(&mut self, layer: &'static str, work: f64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed().as_secs_f64();
        let entry = self.entries.entry(layer).or_insert((0.0, 0, 0.0));
        entry.0 += elapsed;
        entry.1 += 1;
        entry.2 += work;
        out
    }

    /// `(seconds, calls, work)` charged to `layer` so far.
    pub fn get(&self, layer: &str) -> (f64, u64, f64) {
        self.entries.get(layer).copied().unwrap_or((0.0, 0, 0.0))
    }
}

/// Same-run machine ceilings the achieved rates are compared with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ceilings {
    pub gemm_gflops: f64,
    pub stream_gbs: f64,
    pub stream_array_bytes: usize,
    /// Last-level cache size from sysfs (0 when unreadable).
    pub llc_bytes: usize,
}

/// Largest streaming array allocated; beyond it the probe would take
/// hundreds of MiB on hosts reporting very large shared caches.
const STREAM_ARRAY_CAP: usize = 32 << 20;

impl Ceilings {
    /// Measures both ceilings on a 1-thread pool: a 512² `matmul` and a
    /// triad `a = b + s·c` over arrays four times the last-level cache
    /// (capped at [`STREAM_ARRAY_CAP`] bytes each).
    pub fn measure() -> Result<Ceilings, BenchError> {
        let pool = deepoheat_parallel::ThreadPool::new(1);
        let n = 512;
        let a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 17) as f64 * 0.01);
        let b = Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 11) % 13) as f64 * 0.02);
        let mut samples = Vec::new();
        for _ in 0..4 {
            let start = Instant::now();
            let c = pool.install(|| a.matmul(&b))?;
            samples.push(start.elapsed().as_secs_f64());
            std::hint::black_box(c);
        }
        let gemm_seconds = median(&samples[1..]).unwrap_or(f64::NAN);
        let gemm_gflops = 2.0 * (n * n * n) as f64 / gemm_seconds / 1e9;

        let llc_bytes = last_level_cache_bytes();
        let stream_array_bytes = (4 * llc_bytes).clamp(1 << 20, STREAM_ARRAY_CAP);
        let len = stream_array_bytes / 8;
        let mut x = vec![0.0f64; len];
        let y: Vec<f64> = (0..len).map(|i| (i % 251) as f64).collect();
        let z: Vec<f64> = (0..len).map(|i| (i % 241) as f64).collect();
        let mut samples = Vec::new();
        for pass in 0..6 {
            let s = 1.0 + pass as f64 * 1e-3;
            let start = Instant::now();
            for ((xi, &yi), &zi) in x.iter_mut().zip(&y).zip(&z) {
                *xi = yi + s * zi;
            }
            samples.push(start.elapsed().as_secs_f64());
            std::hint::black_box(&x);
        }
        let stream_seconds = median(&samples[1..]).unwrap_or(f64::NAN);
        let stream_gbs = (3 * stream_array_bytes) as f64 / stream_seconds / 1e9;
        Ok(Ceilings { gemm_gflops, stream_gbs, stream_array_bytes, llc_bytes })
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("gemm_gflops", Json::Num(self.gemm_gflops)),
            ("gemm_shape", Json::str("512x512x512, 1 thread")),
            ("stream_gbs", Json::Num(self.stream_gbs)),
            ("stream_kernel", Json::str("triad a = b + s*c, 3 arrays, 1 thread")),
            ("stream_array_bytes", Json::Int(self.stream_array_bytes as u64)),
            ("llc_bytes", Json::Int(self.llc_bytes as u64)),
            (
                "stream_arrays_exceed_4x_llc",
                Json::Bool(self.stream_array_bytes >= 4 * self.llc_bytes),
            ),
        ])
    }
}

/// Size of the highest-level cache sysfs reports for CPU 0, or 0.
fn last_level_cache_bytes() -> usize {
    let mut best = (0usize, 0usize);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |file: &str| std::fs::read_to_string(format!("{dir}/{file}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else { continue };
        let Ok(level) = level.trim().parse::<usize>() else { continue };
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<usize>().map(|k| k << 10),
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<usize>().map(|m| m << 20),
                None => size.parse::<usize>(),
            },
        };
        if let Ok(bytes) = bytes {
            if level >= best.0 {
                best = (level, bytes);
            }
        }
    }
    best.1
}

/// Where a traced phase's span log goes.
pub fn span_log_path(workload: &str, phase: &str) -> PathBuf {
    PathBuf::from("target").join("bench-suite").join(format!("{workload}.{phase}.spans.jsonl"))
}

/// Installs a telemetry recorder that writes the program's spans to
/// `path`, so the phase that follows runs with tracing on.
pub fn start_span_log(path: &Path) -> Result<(), BenchError> {
    let sink = JsonlSink::create(path)
        .map_err(|e| format!("cannot create span log {}: {e}", path.display()))?;
    Recorder::builder("bench-suite").sink(Box::new(sink)).install();
    Ok(())
}

/// What a traced phase recorded: per-name span statistics and the
/// program's counters.
#[derive(Debug, Default)]
pub struct TracedPhase {
    pub spans: BTreeMap<String, SpanStat>,
    pub counters: BTreeMap<String, u64>,
}

/// Uninstalls the recorder and reads its span log back.
pub fn stop_span_log(path: &Path) -> Result<TracedPhase, BenchError> {
    let manifest = deepoheat_telemetry::finish().ok_or("no telemetry recorder was installed")?;
    Ok(TracedPhase { spans: read_spans(path)?, counters: manifest.metrics.counters })
}

/// Count, total and self seconds of every span name in a JSONL log.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStat {
    pub count: u64,
    pub total_seconds: f64,
    pub self_seconds: f64,
}

/// Reads a telemetry JSONL log back into per-name span statistics. A
/// span's self time is its duration minus its direct children's.
pub fn read_spans(path: &Path) -> Result<BTreeMap<String, SpanStat>, BenchError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read span log {}: {e}", path.display()))?;
    let records: Vec<SpanRecord> = text.lines().filter_map(SpanRecord::from_jsonl_line).collect();
    Ok(span_stats(&records))
}

fn span_stats(records: &[SpanRecord]) -> BTreeMap<String, SpanStat> {
    let mut child_seconds: BTreeMap<u64, f64> = BTreeMap::new();
    for r in records {
        if let Some(parent) = r.parent {
            *child_seconds.entry(parent).or_insert(0.0) += r.seconds;
        }
    }
    let mut stats: BTreeMap<String, SpanStat> = BTreeMap::new();
    for r in records {
        let stat = stats.entry(r.name.clone()).or_default();
        stat.count += 1;
        stat.total_seconds += r.seconds;
        stat.self_seconds +=
            (r.seconds - child_seconds.get(&r.span).copied().unwrap_or(0.0)).max(0.0);
    }
    stats
}

/// `num / den`, or 0 when the denominator is not positive.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer ledger of one traced run.
#[derive(Debug)]
pub struct Ledger {
    pub layers: Vec<Layer>,
    /// 1-thread end-to-end seconds of the replayed items (the coverage
    /// denominator) and how many items that is.
    pub e2e_seconds: f64,
    pub items: usize,
    pub spans: BTreeMap<String, SpanStat>,
    /// Per-layer metrics that are not layer times (counts, ratios).
    pub extra: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Ledger {
    pub fn new(e2e_seconds: f64, items: usize) -> Self {
        Ledger {
            layers: Vec::new(),
            e2e_seconds,
            items,
            spans: BTreeMap::new(),
            extra: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Adds one of the disjoint layers whose sum is compared with the
    /// 1-thread end-to-end time.
    pub fn covered(&mut self, name: &str, source: Source, seconds: f64, calls: u64, work: Work) {
        let denominator = self.e2e_seconds;
        self.layers.push(Layer {
            name: name.to_string(),
            source,
            seconds,
            calls,
            work,
            denominator,
            covered: true,
        });
    }

    /// Adds a layer reported beside the covered set (e.g. a span that
    /// contains covered layers), with its own end-to-end denominator.
    pub fn aside(
        &mut self,
        name: &str,
        source: Source,
        seconds: f64,
        calls: u64,
        denominator: f64,
    ) {
        self.layers.push(Layer {
            name: name.to_string(),
            source,
            seconds,
            calls,
            work: Work::None,
            denominator,
            covered: false,
        });
    }

    /// Adds the replay timer's entry for `layer` as a covered layer.
    pub fn covered_from(&mut self, timer: &LayerTimer, layer: &str, kind: fn(f64) -> Work) {
        let (seconds, calls, work) = timer.get(layer);
        let work = if work > 0.0 { kind(work) } else { Work::None };
        self.covered(layer, Source::Replay, seconds, calls, work);
    }

    /// Layer sum over the 1-thread end-to-end time.
    pub fn coverage(&self) -> f64 {
        let sum: f64 = self.layers.iter().filter(|l| l.covered).map(|l| l.seconds).sum();
        ratio(sum, self.e2e_seconds)
    }

    /// The per-layer metric values this ledger defines: `<layer>.share`
    /// for every layer, `<layer>.gemm_frac` for compute layers, and
    /// `<layer>.gbs` / `<layer>.bw_frac` for memory layers, plus the extra
    /// counts and ratios.
    pub fn metric_values(&self, ceilings: &Ceilings) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for layer in &self.layers {
            out.insert(format!("{}.share", layer.name), layer.share());
            match layer.work {
                Work::None => {}
                Work::Flops(flops) => {
                    let gflops = ratio(flops, layer.seconds) / 1e9;
                    out.insert(
                        format!("{}.gemm_frac", layer.name),
                        ratio(gflops, ceilings.gemm_gflops),
                    );
                }
                Work::Bytes(bytes) => {
                    let gbs = ratio(bytes, layer.seconds) / 1e9;
                    out.insert(format!("{}.gbs", layer.name), gbs);
                    out.insert(format!("{}.bw_frac", layer.name), ratio(gbs, ceilings.stream_gbs));
                }
            }
        }
        for (name, value) in &self.extra {
            out.insert((*name).to_string(), *value);
        }
        out
    }

    pub fn to_json(&self, ceilings: &Ceilings, overhead: f64) -> Json {
        let layers = self
            .layers
            .iter()
            .map(|l| {
                let (achieved, unit, frac) = match l.work {
                    Work::None => (Json::Null, Json::Null, Json::Null),
                    Work::Flops(f) => {
                        let g = ratio(f, l.seconds) / 1e9;
                        (
                            Json::Num(g),
                            Json::str("GFLOP/s"),
                            Json::Num(ratio(g, ceilings.gemm_gflops)),
                        )
                    }
                    Work::Bytes(b) => {
                        let g = ratio(b, l.seconds) / 1e9;
                        (Json::Num(g), Json::str("GB/s"), Json::Num(ratio(g, ceilings.stream_gbs)))
                    }
                };
                Json::obj([
                    ("name", Json::str(&l.name)),
                    ("source", Json::str(l.source.label())),
                    ("self_ms", Json::Num(l.seconds * 1e3)),
                    ("calls", Json::Int(l.calls)),
                    ("share", Json::Num(l.share())),
                    ("in_coverage_sum", Json::Bool(l.covered)),
                    ("achieved", achieved),
                    ("achieved_unit", unit),
                    ("ceiling_frac", frac),
                ])
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|(name, s)| {
                Json::obj([
                    ("name", Json::str(name)),
                    ("count", Json::Int(s.count)),
                    ("total_ms", Json::Num(s.total_seconds * 1e3)),
                    ("self_ms", Json::Num(s.self_seconds * 1e3)),
                ])
            })
            .collect();
        Json::obj([
            ("items_replayed", Json::Int(self.items as u64)),
            ("e2e_1thread_ms", Json::Num(self.e2e_seconds * 1e3)),
            ("coverage", Json::Num(self.coverage())),
            ("trace_overhead_frac", Json::Num(overhead)),
            ("ceilings", ceilings.to_json()),
            ("layers", Json::Arr(layers)),
            ("program_spans", Json::Arr(spans)),
            ("notes", Json::Arr(self.notes.iter().map(|n| Json::str(n)).collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_self_time_subtracts_direct_children() {
        let rec = |span, parent, name: &str, seconds| SpanRecord {
            trace: 1,
            span,
            parent,
            name: name.to_string(),
            seconds,
        };
        let stats = span_stats(&[
            rec(2, Some(1), "fdm.assemble", 0.2),
            rec(3, Some(1), "fdm.solve", 0.5),
            rec(4, Some(3), "fdm.cg.attempt", 0.4),
            rec(1, None, "root", 1.0),
        ]);
        assert_eq!(stats["root"].count, 1);
        assert!((stats["root"].self_seconds - 0.3).abs() < 1e-12);
        assert!((stats["fdm.solve"].self_seconds - 0.1).abs() < 1e-12);
        assert!((stats["fdm.cg.attempt"].total_seconds - 0.4).abs() < 1e-12);
    }

    #[test]
    fn coverage_sums_only_covered_layers() {
        let mut ledger = Ledger::new(2.0, 1);
        ledger.covered("a", Source::Replay, 1.0, 1, Work::Flops(4e9));
        ledger.covered("b", Source::Modelled, 0.9, 3, Work::Bytes(1.8e9));
        ledger.aside("c", Source::Span, 5.0, 1, 10.0);
        assert!((ledger.coverage() - 0.95).abs() < 1e-12);
        let ceilings =
            Ceilings { gemm_gflops: 8.0, stream_gbs: 4.0, stream_array_bytes: 0, llc_bytes: 0 };
        let values = ledger.metric_values(&ceilings);
        assert!((values["a.share"] - 0.5).abs() < 1e-12);
        assert!((values["a.gemm_frac"] - 0.5).abs() < 1e-12);
        assert!((values["b.gbs"] - 2.0).abs() < 1e-12);
        assert!((values["b.bw_frac"] - 0.5).abs() < 1e-12);
        assert!((values["c.share"] - 0.5).abs() < 1e-12);
    }
}
