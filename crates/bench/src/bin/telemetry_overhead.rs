#![deny(unsafe_code)]
//! Self-overhead guard for the telemetry layer: measures what the
//! instrumentation itself costs on a serving-shaped hot path, with the
//! recorder disabled (must be near-zero — one atomic load per call) and
//! installed (must stay under the 5% budget gated by `xtask benchcheck`),
//! and writes both fractions to `BENCH_telemetry.json`.
//!
//! ```text
//! cargo run --release -p deepoheat-bench --bin telemetry_overhead -- \
//!     [--quick] [--iterations N] [--repeats N]
//! ```
//!
//! Each iteration does one small **serial** matmul (the kind of work one
//! trunk chunk performs, hand-rolled here so worker-pool scheduling
//! jitter doesn't drown the sub-microsecond cost being measured) wrapped
//! in the instrumentation a served request pays: one span, one histogram
//! observation, one counter. The workload is timed bare and instrumented
//! back to back within each repeat, and the overhead fraction is the
//! median of the per-repeat `(instrumented − bare)/bare` samples. The
//! enabled phase runs *inside* the already-installed bench recorder, so
//! its cost includes the real sink fan-out.

use std::time::Instant;

use deepoheat_bench::{init_telemetry, median, run_or_exit, Args, BenchError};
use deepoheat_telemetry as telemetry;

fn main() {
    run_or_exit("telemetry", run);
}

/// Square row-major matrices for the hand-rolled workload.
struct Probe {
    n: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

impl Probe {
    fn new(n: usize) -> Probe {
        let gen = |s: usize, t: usize, scale: f64, shift: f64| {
            (0..n * n).map(|i| ((i * s) % t) as f64 * scale - shift).collect()
        };
        Probe { n, a: gen(31, 17, 0.1, 0.8), b: gen(13, 23, 0.05, 0.5), c: vec![0.0; n * n] }
    }
}

/// One unit of request-shaped work: a small serial matmul, like one trunk
/// chunk — deliberately not routed through the worker pool, whose
/// scheduling jitter is far larger than the overhead under test.
fn workload(p: &mut Probe) -> Result<f64, BenchError> {
    let n = p.n;
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..n {
                acc += p.a[i * n + k] * p.b[k * n + j];
            }
            p.c[i * n + j] = acc;
        }
    }
    Ok(p.c[0] + p.c[n * n - 1])
}

/// The same unit wrapped in per-request instrumentation: one span, one
/// histogram observation, one counter — what `serve.request` costs.
fn instrumented(p: &mut Probe) -> Result<f64, BenchError> {
    let span = telemetry::span("telemetry.probe");
    let sum = workload(p)?;
    telemetry::observe("telemetry.probe.sum", sum.abs());
    telemetry::counter("telemetry.probe.count", 1);
    drop(span);
    Ok(sum)
}

/// Seconds for `iterations` calls to `f`.
fn time_loop(
    iterations: usize,
    mut f: impl FnMut() -> Result<f64, BenchError>,
) -> Result<f64, BenchError> {
    let t = Instant::now();
    let mut acc = 0.0;
    for _ in 0..iterations {
        acc += f()?;
    }
    std::hint::black_box(acc);
    Ok(t.elapsed().as_secs_f64())
}

/// Measures the instrumentation overhead fraction. Host noise (CPU
/// frequency shifts, scheduler steal in shared containers) swamps the
/// sub-microsecond cost under test if the two sides are timed in long
/// separate blocks, so this uses many short **paired** samples instead:
/// each repeat times a bare loop and an instrumented loop back to back —
/// close enough in time to see the same clock conditions — and yields one
/// `(instrumented − bare)/bare` sample; the reported fraction is the
/// median of those samples, which discards the repeats a preemption
/// landed in. An untimed warmup loop runs first so the first sample
/// doesn't pay allocator and cache-warming costs.
fn measure_overhead(
    repeats: usize,
    iterations: usize,
    p: &mut Probe,
) -> Result<(f64, f64, f64), BenchError> {
    time_loop(iterations, || instrumented(p))?;
    let mut bare = Vec::with_capacity(repeats);
    let mut instr = Vec::with_capacity(repeats);
    let mut fractions = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let bare_secs = time_loop(iterations, || workload(p))?;
        let instr_secs = time_loop(iterations, || instrumented(p))?;
        bare.push(bare_secs);
        instr.push(instr_secs);
        fractions.push(if bare_secs > 0.0 { (instr_secs - bare_secs) / bare_secs } else { 0.0 });
    }
    Ok((median(fractions)?, median(bare)?, median(instr)?))
}

fn run() -> Result<(), BenchError> {
    let args = Args::from_env();
    let quick = args.flag("quick");
    let iterations = args.get_usize("iterations", if quick { 100 } else { 200 })?;
    let repeats = args.get_usize("repeats", if quick { 11 } else { 31 })?;

    let n = 64;
    let mut probe = Probe::new(n);
    println!("== telemetry_overhead: {iterations} × serial {n}x{n} matmul, {repeats} repeat(s) ==");

    // --- 1 · recorder absent ------------------------------------------------
    // Measured before init_telemetry so the instrumentation really is on
    // its disabled path (one atomic load, no clock read).
    let (disabled_fraction, bare_off, instr_off) =
        measure_overhead(repeats, iterations, &mut probe)?;
    println!(
        "disabled   bare {bare_off:>9.4}s   instrumented {instr_off:>9.4}s   overhead {:>7.3}%",
        disabled_fraction * 100.0
    );

    // --- 2 · recorder installed ---------------------------------------------
    let bench_telemetry = init_telemetry("telemetry", &args);
    let (enabled_fraction, bare_on, instr_on) = measure_overhead(repeats, iterations, &mut probe)?;
    println!(
        "enabled    bare {bare_on:>9.4}s   instrumented {instr_on:>9.4}s   overhead {:>7.3}%",
        enabled_fraction * 100.0
    );

    telemetry::gauge("telemetry.overhead.iterations", iterations as f64);
    telemetry::gauge("telemetry.overhead.bare_secs", bare_on);
    telemetry::gauge("telemetry.overhead.instrumented_secs", instr_on);
    // Timing noise can make either fraction dip below zero; clamp so the
    // "lower is better" benchcheck bound stays meaningful.
    telemetry::gauge("telemetry.overhead.disabled_fraction", disabled_fraction.max(0.0));
    telemetry::gauge("telemetry.overhead.enabled_fraction", enabled_fraction.max(0.0));

    println!("manifest: BENCH_telemetry.json");
    bench_telemetry.finish();
    Ok(())
}
