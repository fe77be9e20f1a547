//! Telemetry emission regressions for the serving layer.
//!
//! Guards two contracts: shutdown paths (engine and front-end) emit their
//! summary gauges and sink flushes **exactly once** even when `shutdown()`
//! is called explicitly and the value is then dropped, and a chaos run
//! streams a replayable JSONL telemetry log (the artifact the CI chaos
//! job uploads).
//!
//! The telemetry recorder is process-global, so every test here holds one
//! mutex; keep recorder-installing tests in this file only.

use std::sync::{Arc, Mutex, MutexGuard};

use deepoheat::{DeepOHeat, DeepOHeatConfig};
use deepoheat_linalg::Matrix;
use deepoheat_serve::{
    FrontendOptions, InferenceEngine, ServeError, ServeFaultPlan, ServeFrontend, ServeOptions,
};
use deepoheat_telemetry::{EventKind, JsonlSink, MemorySink, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    TELEMETRY_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn model() -> DeepOHeat {
    let cfg = DeepOHeatConfig::single_branch(4, &[8], &[8], 6);
    let mut rng = StdRng::seed_from_u64(7);
    DeepOHeat::new(&cfg, &mut rng).expect("config is valid")
}

fn gauge_count(sink: &MemorySink, name: &str) -> usize {
    sink.events().iter().filter(|e| e.kind == EventKind::Gauge && e.name == name).count()
}

#[test]
fn engine_shutdown_emits_hit_rate_exactly_once() {
    let _guard = lock();
    deepoheat_telemetry::finish();
    let sink = MemorySink::new();
    Recorder::builder("serve-emission-test").sink(Box::new(Arc::clone(&sink))).install();

    let mut engine = InferenceEngine::new(model(), ServeOptions::default()).expect("valid options");
    let input = Matrix::filled(1, 4, 0.5);
    let queries = Matrix::filled(5, 3, 0.1);
    engine.predict(&[&input], &queries).expect("predict");
    engine.predict(&[&input], &queries).expect("predict");
    // Explicit shutdown followed by drop: the gauge must not double.
    engine.shutdown();
    engine.shutdown();
    drop(engine);

    for gauge in ["serve.cache.hit_rate", "serve.basis.hit_rate"] {
        assert_eq!(gauge_count(&sink, gauge), 1, "shutdown + drop must emit {gauge} exactly once");
    }
    deepoheat_telemetry::finish();
}

#[test]
fn frontend_shutdown_emits_summary_gauges_exactly_once() {
    let _guard = lock();
    deepoheat_telemetry::finish();
    let sink = MemorySink::new();
    Recorder::builder("serve-frontend-emission-test").sink(Box::new(Arc::clone(&sink))).install();

    let mut plan = ServeFaultPlan::none();
    plan.admission_reject.insert(1);
    let opts = FrontendOptions {
        shards: 2,
        retry_backoff_micros: 0,
        faults: plan,
        ..FrontendOptions::default()
    };
    let mut frontend = ServeFrontend::new(model(), opts).expect("valid options");
    let input = Matrix::filled(1, 4, 0.5);
    let queries = Matrix::filled(5, 3, 0.1);
    assert!(frontend.call(&[&input], &queries).is_ok());
    assert!(frontend.call(&[&input], &queries).is_err(), "id 1 shed at admission");
    frontend.shutdown();
    frontend.shutdown();
    drop(frontend);

    // The shards share one basis cache, so its hit rate is the front-end's
    // to report: once, not once per shard.
    for gauge in ["serve.queue.max_depth", "serve.shed.rate", "serve.basis.hit_rate"] {
        assert_eq!(gauge_count(&sink, gauge), 1, "shutdown + drop must emit {gauge} exactly once");
    }
    // Each shard engine emits its own hit-rate gauge once at worker exit
    // (2 shards => 2 emissions, not 4).
    assert_eq!(gauge_count(&sink, "serve.cache.hit_rate"), 2);
    deepoheat_telemetry::finish();
}

#[test]
fn frontend_rejects_non_finite_inputs_before_either_cache() {
    let _guard = lock();
    deepoheat_telemetry::finish();
    let sink = MemorySink::new();
    Recorder::builder("serve-invalid-input-test").sink(Box::new(Arc::clone(&sink))).install();

    let opts = FrontendOptions { shards: 1, retry_backoff_micros: 0, ..FrontendOptions::default() };
    let mut frontend = ServeFrontend::new(model(), opts).expect("valid options");
    let input = Matrix::filled(1, 4, 0.5);
    let queries = Matrix::from_fn(7, 3, |i, j| 0.1 * (i + j) as f64);
    let mut bad_input = input.clone();
    bad_input[(0, 1)] = f64::INFINITY;
    let mut bad_queries = queries.clone();
    bad_queries[(3, 2)] = f64::NAN;
    // A bad sensor with a good mesh, then a good design with a bad mesh:
    // had either request filled a cache, the first valid request below
    // would hit it.
    for (u, y) in [(&bad_input, &queries), (&input, &bad_queries)] {
        let err = frontend.call(&[u], y).expect_err("non-finite input");
        assert!(matches!(err, ServeError::InvalidInput { .. }), "{err}");
    }
    assert_eq!(frontend.basis_len(), 0);
    frontend.call(&[&input], &queries).expect("first valid request");
    frontend.call(&[&input], &queries).expect("repeat");
    frontend.shutdown();
    assert_eq!(frontend.stats().retries, 0, "invalid input is never retried");
    deepoheat_telemetry::finish();

    let manifest = sink.take_manifest().expect("finish delivers the manifest");
    for counter in ["serve.cache.hits", "serve.basis.hits"] {
        assert_eq!(manifest.metrics.counters.get(counter), Some(&1), "only the repeat hits");
    }
}

#[test]
fn chaos_run_streams_replayable_jsonl_telemetry() {
    let _guard = lock();
    deepoheat_telemetry::finish();
    // CI points DEEPOHEAT_CHAOS_DIR at a workspace path and uploads it as
    // the chaos artifact; local runs fall back to the test tmpdir.
    let dir = std::env::var_os("DEEPOHEAT_CHAOS_DIR")
        .map_or_else(|| std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")), Into::into);
    let path = dir.join("chaos_serve.jsonl");
    let sink = JsonlSink::create(&path).expect("create chaos JSONL log");
    Recorder::builder("serve-chaos")
        .config("seed", 4242)
        .config("fault_percent", 35)
        .sink(Box::new(sink))
        .install();

    const REQUESTS: u64 = 40;
    let opts = FrontendOptions {
        shards: 2,
        max_retries: 1,
        retry_backoff_micros: 0,
        faults: ServeFaultPlan::from_seed(4242, REQUESTS, 35),
        ..FrontendOptions::default()
    };
    let mut frontend = ServeFrontend::new(model(), opts).expect("valid options");
    let queries = Matrix::from_fn(16, 3, |i, j| (i + j) as f64 * 0.05);
    let mut outcomes = [0u64; 2];
    for r in 0..REQUESTS {
        let input = Matrix::from_fn(1, 4, |_, j| 0.1 * ((r % 4) as f64 + 1.0) + 0.05 * j as f64);
        match frontend.call(&[&input], &queries) {
            Ok(_) => outcomes[0] += 1,
            Err(_) => outcomes[1] += 1,
        }
    }
    assert_eq!(outcomes[0] + outcomes[1], REQUESTS);
    frontend.shutdown();
    deepoheat_telemetry::finish();

    let log = std::fs::read_to_string(&path).expect("chaos JSONL exists");
    let lines: Vec<&str> = log.lines().collect();
    assert!(!lines.is_empty(), "chaos run streamed telemetry events");
    assert!(
        lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')),
        "every JSONL line is a complete object"
    );
    assert!(
        lines.iter().any(|l| l.contains("serve.shed.rate")),
        "the shutdown summary reached the log"
    );
}
