#![deny(unsafe_code)]
//! Serving-throughput benchmark for the `deepoheat-serve` inference
//! engine: compares naive per-query full-network evaluation against the
//! batched split path (branch embedding encoded once, trunk chunked
//! through the worker pool), exercises the branch-embedding cache with a
//! repeated-design request stream, and writes queries/sec, cache hit
//! rate, and the batched-vs-naive speedups to `BENCH_serve.json`.
//!
//! A final overload phase drives the concurrent [`ServeFrontend`] with an
//! open-loop Zipf-popularity request schedule at 1× and 2× of measured
//! capacity (the pipelined throughput of one shard), recording shed rate,
//! served-latency quantiles, and the queue high-watermark as
//! `serve.overload.*` gauges — `benchcheck` holds the 2× run to a nonzero
//! shed rate and a queue depth bounded by its capacity.
//!
//! ```text
//! cargo run --release -p deepoheat-bench --bin serve_throughput -- \
//!     [--quick] [--points N] [--designs N] [--rounds N] [--repeats N] \
//!     [--shards N] [--overload-points N] [--overload-requests N]
//! ```
//!
//! The naive column evaluates every branch net *and* the trunk once per
//! query point — what a caller without the split API pays. The warm
//! column answers the same queries from a cached embedding, so its
//! advantage is algorithmic (branch cost amortised to zero), not a
//! thread-scaling artefact: the ratio holds on a single-core host. The
//! binary verifies the batched results are bit-identical to the naive
//! ones before reporting any timing.

use std::time::Instant;

use deepoheat::{DeepOHeat, DeepOHeatConfig};
use deepoheat_bench::{init_telemetry, run_or_exit, Args, BenchError};
use deepoheat_linalg::Matrix;
use deepoheat_parallel as parallel;
use deepoheat_serve::{
    FrontendOptions, InferenceEngine, ServeError, ServeFrontend, ServeOptions, Ticket,
};
use deepoheat_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

fn main() {
    run_or_exit("serve", run);
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median wall-clock of `repeats` runs of `f`.
fn time_median<F>(repeats: usize, mut f: F) -> Result<f64, BenchError>
where
    F: FnMut() -> Result<(), BenchError>,
{
    let mut samples = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t = Instant::now();
        f()?;
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok(median(samples))
}

/// A paper-scale surrogate: 21×21 power-map sensors through the §IV.A
/// branch stack, Fourier-featured trunk, Kelvin output transform.
fn model() -> Result<DeepOHeat, BenchError> {
    let sensors = 21 * 21;
    let cfg = DeepOHeatConfig::single_branch(sensors, &[128, 128, 128, 128], &[64, 64, 64], 64)
        .with_fourier(32, 1.0)
        .with_output_transform(300.0, 50.0);
    let mut rng = StdRng::seed_from_u64(2024);
    Ok(DeepOHeat::new(&cfg, &mut rng)?)
}

/// Deterministic pseudo-random power maps (one row of sensor values per
/// design).
fn designs(n: usize, sensors: usize) -> Vec<Matrix> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..n).map(|_| Matrix::from_fn(1, sensors, |_, _| rng.gen_range(0.0..1.0))).collect()
}

/// A deterministic batch of query coordinates in the unit cube.
fn query_points(n: usize) -> Matrix {
    Matrix::from_fn(n, 3, |i, j| {
        let t = (i * 3 + j) as f64 * 0.618_034;
        t - t.floor()
    })
}

fn run() -> Result<(), BenchError> {
    let args = Args::from_env();
    let bench_telemetry = init_telemetry("serve", &args);
    let quick = args.flag("quick");
    let points = args.get_usize("points", if quick { 512 } else { 4096 })?;
    let n_designs = args.get_usize("designs", if quick { 4 } else { 8 })?;
    let rounds = args.get_usize("rounds", if quick { 3 } else { 4 })?;
    let repeats = args.get_usize("repeats", 3)?;
    let threads = parallel::num_threads();
    telemetry::gauge("serve.threads", threads as f64);
    telemetry::gauge("serve.points", points as f64);
    telemetry::gauge("serve.designs", n_designs as f64);
    telemetry::gauge("serve.rounds", rounds as f64);

    let m = model()?;
    let sensors = m.branch_input_dim(0);
    let maps = designs(n_designs, sensors);
    let coords = query_points(points);
    println!(
        "== serve_throughput: {points} queries, {n_designs} designs × {rounds} rounds, \
         {threads} thread(s) =="
    );

    // --- correctness gate: batched must equal naive, bitwise ---------------
    let probe = &maps[0];
    let naive_rows: Vec<Matrix> = (0..points.min(64))
        .map(|i| {
            let row = coords.row_block(i..i + 1)?;
            Ok::<Matrix, BenchError>(m.predict(&[probe], &row)?)
        })
        .collect::<Result<_, _>>()?;
    let mut engine = InferenceEngine::new(m.clone(), ServeOptions::default())?;
    let batched = engine.predict(&[probe], &coords)?;
    for (i, row) in naive_rows.iter().enumerate() {
        if row.as_slice() != &batched.as_slice()[i..i + 1] {
            return Err(format!(
                "batched result diverges from naive per-query evaluation at point {i}"
            )
            .into());
        }
    }
    println!(
        "correctness: batched == naive per-query, bitwise ({} points checked)",
        64.min(points)
    );

    // --- 1 · naive per-query full-network evaluation -----------------------
    // Every query pays the branch nets AND the trunk.
    let naive_secs = time_median(repeats, || {
        let mut acc = 0.0;
        for i in 0..points {
            let row = coords.row_block(i..i + 1)?;
            let out = m.predict(&[probe], &row)?;
            acc += out.as_slice()[0];
        }
        std::hint::black_box(acc);
        Ok(())
    })?;

    // --- 2 · batched, cold cache (encode + chunked trunk) ------------------
    // The clock stops *before* each fresh engine drops: engine shutdown
    // flushes telemetry sinks (an fsync), which is not a cold-path cost.
    let cold_secs = {
        let mut samples = Vec::with_capacity(repeats);
        for _ in 0..repeats {
            let t = Instant::now();
            let mut fresh = InferenceEngine::new(m.clone(), ServeOptions::default())?;
            let out = fresh.predict(&[probe], &coords)?;
            std::hint::black_box(out.as_slice()[0]);
            samples.push(t.elapsed().as_secs_f64());
            drop(fresh);
        }
        median(samples)
    };

    // --- 3 · batched, warm cache (combine only) ----------------------------
    // `engine` already holds the probe design and the query mesh's trunk
    // basis from the correctness gate, so a warm request is one combine.
    let warm_secs = time_median(repeats, || {
        let out = engine.predict(&[probe], &coords)?;
        std::hint::black_box(out.as_slice()[0]);
        Ok(())
    })?;

    let speedup_cold = if cold_secs > 0.0 { naive_secs / cold_secs } else { 1.0 };
    let speedup_warm = if warm_secs > 0.0 { naive_secs / warm_secs } else { 1.0 };
    telemetry::gauge("serve.naive_secs", naive_secs);
    telemetry::gauge("serve.batched_cold_secs", cold_secs);
    telemetry::gauge("serve.batched_warm_secs", warm_secs);
    telemetry::gauge("serve.speedup_cold_vs_naive", speedup_cold);
    telemetry::gauge("serve.speedup_warm_vs_naive", speedup_warm);
    println!("naive per-query      {naive_secs:>9.4}s");
    println!("batched cold cache   {cold_secs:>9.4}s   speedup {speedup_cold:>6.2}x");
    println!("batched warm cache   {warm_secs:>9.4}s   speedup {speedup_warm:>6.2}x");

    // --- 4 · repeated-design request stream --------------------------------
    // `rounds` sweeps over the design set: round one misses, the rest hit.
    let mut stream = InferenceEngine::new(
        m.clone(),
        ServeOptions { cache_capacity: n_designs, ..ServeOptions::default() },
    )?;
    let stream_secs = {
        let t = Instant::now();
        let mut acc = 0.0;
        for _ in 0..rounds {
            for map in &maps {
                let out = stream.predict(&[map], &coords)?;
                acc += out.as_slice()[0];
            }
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64()
    };
    let stats = stream.cache_stats();
    // Emits the final serve.cache.hit_rate gauge and flushes the event
    // log; explicit so it lands before the manifest snapshot below.
    stream.shutdown();
    let total_queries = (rounds * n_designs * points) as f64;
    let qps = if stream_secs > 0.0 { total_queries / stream_secs } else { 0.0 };
    telemetry::gauge("serve.stream_secs", stream_secs);
    telemetry::gauge("serve.queries_per_sec", qps);
    telemetry::gauge("serve.cache_hit_rate", stats.hit_rate());
    println!(
        "request stream       {stream_secs:>9.4}s   {qps:>10.0} queries/s   hit rate {:.2} \
         ({} hits / {} misses / {} evictions)",
        stats.hit_rate(),
        stats.hits,
        stats.misses,
        stats.evictions
    );

    // --- 5 · request-latency quantiles -------------------------------------
    // Every engine predict in this run fed the serve.request.seconds
    // histogram; surface its bounded-error quantiles as benchcheck-visible
    // gauges.
    if let Some(latency) = telemetry::histogram_snapshot("serve.request.seconds") {
        telemetry::gauge("serve.request.seconds.p50", latency.p50());
        telemetry::gauge("serve.request.seconds.p99", latency.p99());
        telemetry::gauge("serve.request.seconds.p999", latency.p999());
        println!(
            "request latency      p50 {:.4}s   p99 {:.4}s   p99.9 {:.4}s   ({} request(s))",
            latency.p50(),
            latency.p99(),
            latency.p999(),
            latency.count
        );
    }

    // --- 6 · overload: open-loop Zipf load against the front-end -----------
    // Measures what the admission layer does when arrivals outrun service:
    // at 1× the measured capacity the queue should stay shallow; at 2× the
    // bounded queues must shed (typed `Overloaded`) rather than grow, and
    // the tail latency of *served* requests stays bounded by queue depth ×
    // service time. `benchcheck` gates the 2× shed rate (must be nonzero),
    // the p99.9, and the queue high-watermark (structurally ≤ capacity).
    let overload_points = args.get_usize("overload-points", if quick { 128 } else { 256 })?;
    let overload_requests = args.get_usize("overload-requests", if quick { 200 } else { 400 })?;
    let shards = args.get_usize("shards", 2)?;
    let queue_capacity = 16;
    let small_coords = query_points(overload_points);
    let frontend_options = || FrontendOptions {
        shards,
        queue_capacity,
        retry_backoff_micros: 0,
        engine: ServeOptions { cache_capacity: n_designs, ..ServeOptions::default() },
        ..FrontendOptions::default()
    };

    // Correctness gate first: front-end answers must be bit-identical to
    // the single-caller engine before any overload timing is trusted.
    let mut reference = InferenceEngine::new(m.clone(), frontend_options().engine)?;
    let mut probe_frontend = ServeFrontend::new(m.clone(), frontend_options())?;
    for (i, map) in maps.iter().enumerate() {
        let expect = reference.predict(&[map], &small_coords)?;
        let served = probe_frontend.call(&[map], &small_coords)?;
        if expect.as_slice() != served.values.as_slice() {
            return Err(format!(
                "front-end result diverges from the single-caller engine for design {i}"
            )
            .into());
        }
    }
    println!(
        "correctness: front-end == single-caller engine, bitwise ({n_designs} designs, \
         {shards} shard(s))"
    );

    // Capacity estimate: pipelined service rate of one shard — the hot
    // design's home shard, its queue kept fed by a window of in-flight
    // requests — so the estimate is the shard's throughput, not a client
    // round trip. Warm requests cost tens of microseconds once the trunk
    // basis is cached, which a closed loop's hand-off latency would
    // swamp. Deliberately NOT scaled by shard count: Zipf popularity
    // concentrates load on the hot design's home shard, so the extra
    // shards are headroom for the skew, not a multiplier. This keeps "1×"
    // sustainable and "2×" overloaded. Median of a few runs, since one
    // run takes about a millisecond.
    let capacity_calls = if quick { 40 } else { 80 };
    let window = queue_capacity / 2;
    let hot = &maps[0];
    let service_secs = time_median(5, || {
        let mut in_flight = std::collections::VecDeque::with_capacity(window);
        for _ in 0..capacity_calls {
            if in_flight.len() == window {
                if let Some(ticket) = in_flight.pop_front() {
                    Ticket::wait(ticket)?;
                }
            }
            in_flight.push_back(probe_frontend.submit(&[hot], &small_coords)?);
        }
        for ticket in in_flight {
            std::hint::black_box(ticket.wait()?.values.as_slice()[0]);
        }
        Ok(())
    })? / capacity_calls as f64;
    probe_frontend.shutdown();
    let capacity_qps = if service_secs > 0.0 { 1.0 / service_secs } else { 1.0 };
    telemetry::gauge("serve.overload.capacity_qps", capacity_qps);
    println!(
        "capacity estimate    {capacity_qps:>9.0} requests/s (pipelined, one shard, {:.6}s/request, \
         {shards} shard(s))",
        service_secs
    );

    // Zipf(1.1) design popularity: design 0 is hot, the tail is cold —
    // the shape a branch-embedding cache sees in practice.
    let zipf_cdf: Vec<f64> = {
        let weights: Vec<f64> = (0..n_designs).map(|i| 1.0 / ((i + 1) as f64).powf(1.1)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect()
    };

    struct Overload {
        shed_rate: f64,
        p50: f64,
        p99: f64,
        p999: f64,
        max_depth: usize,
        served: usize,
    }
    let run_overload = |label: &str, rate_qps: f64| -> Result<Overload, BenchError> {
        let mut frontend = ServeFrontend::new(m.clone(), frontend_options())?;
        // Warm every design's home shard so the run measures admission
        // behaviour, not first-touch encode cost.
        for map in &maps {
            frontend.call(&[map], &small_coords)?;
        }
        let mut rng = StdRng::seed_from_u64(11);
        let interarrival = 1.0 / rate_qps;
        let mut tickets = Vec::with_capacity(overload_requests);
        let mut shed = 0usize;
        let t0 = Instant::now();
        for i in 0..overload_requests {
            // Open-loop arrivals: the schedule does not slow down when the
            // server falls behind — that is the whole point.
            let target = interarrival * i as f64;
            while t0.elapsed().as_secs_f64() < target {
                std::hint::spin_loop();
            }
            let u: f64 = rng.gen_range(0.0..1.0);
            let design = zipf_cdf.iter().position(|&c| u <= c).unwrap_or(n_designs - 1);
            match frontend.submit(&[&maps[design]], &small_coords) {
                Ok(ticket) => tickets.push(ticket),
                Err(ServeError::Overloaded { .. } | ServeError::DeadlineExceeded { .. }) => {
                    shed += 1;
                }
                Err(other) => return Err(other.into()),
            }
        }
        let mut latencies = Vec::with_capacity(tickets.len());
        for ticket in tickets {
            match ticket.wait() {
                Ok(served) => latencies.push(served.total_micros as f64 * 1e-6),
                Err(ServeError::Overloaded { .. } | ServeError::DeadlineExceeded { .. }) => {
                    shed += 1;
                }
                Err(other) => return Err(other.into()),
            }
        }
        let max_depth = frontend.queue_max_depth();
        frontend.shutdown();
        latencies.sort_by(f64::total_cmp);
        let quantile = |q: f64| -> f64 {
            if latencies.is_empty() {
                return 0.0;
            }
            let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
            latencies[idx]
        };
        let result = Overload {
            shed_rate: shed as f64 / overload_requests as f64,
            p50: quantile(0.50),
            p99: quantile(0.99),
            p999: quantile(0.999),
            max_depth,
            served: latencies.len(),
        };
        println!(
            "overload {label:<4} {rate_qps:>7.0} req/s   shed {:>5.1}%   p50 {:.4}s   \
             p99 {:.4}s   p99.9 {:.4}s   queue high-water {:>2}   ({} served)",
            100.0 * result.shed_rate,
            result.p50,
            result.p99,
            result.p999,
            result.max_depth,
            result.served,
        );
        Ok(result)
    };

    let at_1x = run_overload("1x", capacity_qps)?;
    telemetry::gauge("serve.overload.1x.shed_rate", at_1x.shed_rate);
    telemetry::gauge("serve.overload.1x.p50_seconds", at_1x.p50);
    telemetry::gauge("serve.overload.1x.p99_seconds", at_1x.p99);
    telemetry::gauge("serve.overload.1x.p999_seconds", at_1x.p999);
    telemetry::gauge("serve.overload.1x.queue_max_depth", at_1x.max_depth as f64);

    let at_2x = run_overload("2x", 2.0 * capacity_qps)?;
    telemetry::gauge("serve.overload.2x.shed_rate", at_2x.shed_rate);
    telemetry::gauge("serve.overload.2x.p50_seconds", at_2x.p50);
    telemetry::gauge("serve.overload.2x.p99_seconds", at_2x.p99);
    telemetry::gauge("serve.overload.2x.p999_seconds", at_2x.p999);
    telemetry::gauge("serve.overload.2x.queue_max_depth", at_2x.max_depth as f64);

    println!("\nthreads = {threads} (set DEEPOHEAT_NUM_THREADS to override)");
    println!("manifest: BENCH_serve.json");
    bench_telemetry.finish();
    Ok(())
}
