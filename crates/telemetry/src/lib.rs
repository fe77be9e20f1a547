#![deny(unsafe_code)]
//! Dependency-free structured tracing, metrics, and run manifests for the
//! DeepOHeat reproduction.
//!
//! The paper's claims are quantitative — PDE-residual loss curves, CG
//! convergence inside the reference solver, end-to-end speedups — so every
//! layer of the workspace reports into this crate:
//!
//! * **Metrics** — named counters, gauges, and log-bucketed quantile
//!   histograms in a thread-safe [`MetricRegistry`], snapshotted into the
//!   run manifest with `p50/p90/p99/p999`. Names follow
//!   `subsystem.name.unit` (`fdm.solve.seconds`, `nn.adam.lr`,
//!   `linalg.cg.iterations`).
//! * **Spans** — RAII timers ([`span`]) that record wall time into a
//!   histogram and emit a `span` event on completion. Each span carries a
//!   request-scoped trace ID and a parent link, so the JSONL stream (or a
//!   captured event, [`SpanRecord::from_event`]) can be reconstructed into
//!   span trees ([`SpanRecord`]) and folded-stack flamegraphs
//!   ([`fold_stacks`]). A span's [`Span::context`] handed to
//!   [`span_with_parent`] parents a span on another thread under it.
//! * **Events** — structured records ([`event`]) with typed fields, e.g.
//!   one per training step carrying the per-loss-term breakdown.
//! * **Sinks** — pluggable outputs: [`ConsoleSink`] for humans
//!   ([`RecorderBuilder::console`]), [`JsonlSink`] for append-only run
//!   logs plus a final [`RunManifest`] JSON at
//!   [`JsonlSink::manifest_path`], and [`MemorySink`] for tests, which
//!   read it back with [`MemorySink::events`] and
//!   [`MemorySink::take_manifest`]; sink tests start from
//!   [`RunManifest::empty_for_tests`].
//!
//! A histogram counts its non-finite observations apart
//! ([`Histogram::nonfinite`]), so they never skew its quantiles.
//!
//! Telemetry is **opt-in and near-zero cost when off**: every recording
//! function first checks one atomic; with no recorder installed the
//! instrumented hot paths do no other work.
//!
//! # Examples
//!
//! ```
//! use deepoheat_telemetry as telemetry;
//!
//! let sink = telemetry::MemorySink::new();
//! telemetry::Recorder::builder("demo")
//!     .config("iterations", 100)
//!     .sink(Box::new(sink.clone()))
//!     .install();
//!
//! {
//!     let _span = telemetry::span("demo.work");
//!     telemetry::counter("demo.items.count", 3);
//!     telemetry::gauge("demo.lr", 1e-3);
//!     telemetry::event("demo.step", &[("loss", 0.5.into())]);
//! } // span drops here, recording demo.work.seconds
//!
//! let manifest = telemetry::finish().expect("recorder was installed");
//! assert_eq!(manifest.metrics.counters["demo.items.count"], 3);
//! assert!(manifest.metrics.histograms.contains_key("demo.work.seconds"));
//! assert!(!telemetry::is_enabled());
//! ```

mod expose;
mod manifest;
mod metrics;
mod sink;
mod trace;
mod value;

pub use expose::render_prometheus;
pub use manifest::RunManifest;
pub use metrics::{Histogram, HistogramSnapshot, MetricRegistry, MetricsSnapshot};
pub use sink::{ConsoleSink, Event, EventKind, JsonlSink, MemorySink, Sink};
pub use trace::{fold_stacks, SpanRecord};
pub use value::Value;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant, SystemTime};

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: RwLock<Option<Arc<Recorder>>> = RwLock::new(None);

/// Whether a recorder is currently installed.
///
/// Instrumented code can use this to skip work that only feeds telemetry
/// (e.g. computing a gradient norm).
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The active telemetry pipeline: run identity, metric registry, and
/// sinks. Built with [`Recorder::builder`], then [`RecorderBuilder::install`]ed
/// globally.
pub struct Recorder {
    name: String,
    run_id: String,
    started_unix_secs: u64,
    started: Instant,
    config: BTreeMap<String, String>,
    registry: MetricRegistry,
    sinks: Vec<Box<dyn Sink>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("name", &self.name)
            .field("run_id", &self.run_id)
            .field("sinks", &self.sinks.len())
            .finish_non_exhaustive()
    }
}

impl Recorder {
    /// Starts building a recorder for a run called `name`.
    pub fn builder(name: impl Into<String>) -> RecorderBuilder {
        RecorderBuilder { name: name.into(), config: BTreeMap::new(), sinks: Vec::new() }
    }

    fn emit(&self, kind: EventKind, name: &str, fields: Vec<(String, Value)>) {
        let event = Event { kind, name: name.to_string(), elapsed: self.started.elapsed(), fields };
        for sink in &self.sinks {
            sink.record(&event);
        }
    }

    fn into_manifest(self: Arc<Self>) -> RunManifest {
        let manifest = RunManifest {
            name: self.name.clone(),
            run_id: self.run_id.clone(),
            started_unix_secs: self.started_unix_secs,
            wall_seconds: self.started.elapsed().as_secs_f64(),
            config: self.config.clone(),
            metrics: self.registry.snapshot(),
        };
        for sink in &self.sinks {
            sink.manifest(&manifest);
            sink.flush();
        }
        manifest
    }
}

/// Builder for [`Recorder`]; see the [crate-level example](crate).
pub struct RecorderBuilder {
    name: String,
    config: BTreeMap<String, String>,
    sinks: Vec<Box<dyn Sink>>,
}

impl RecorderBuilder {
    /// Records a configuration key/value into the run manifest (values
    /// are stringified with `Display`).
    pub fn config(mut self, key: impl Into<String>, value: impl std::fmt::Display) -> Self {
        self.config.insert(key.into(), value.to_string());
        self
    }

    /// Adds a sink.
    pub fn sink(mut self, sink: Box<dyn Sink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Adds a [`ConsoleSink`].
    pub fn console(self) -> Self {
        self.sink(Box::new(ConsoleSink::new()))
    }

    /// Adds a [`JsonlSink`] writing to `path` (manifest alongside).
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn jsonl(self, path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(self.sink(Box::new(JsonlSink::create(path)?)))
    }

    /// Installs the recorder globally, replacing (and finishing) any
    /// previous one. Telemetry calls from any thread are live once this
    /// returns.
    pub fn install(self) {
        let now_unix = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let recorder = Arc::new(Recorder {
            run_id: format!("{now_unix}-{}", std::process::id()),
            name: self.name,
            started_unix_secs: now_unix,
            started: Instant::now(),
            config: self.config,
            registry: MetricRegistry::new(),
            sinks: self.sinks,
        });
        let previous = {
            let mut slot = RECORDER.write().expect("telemetry recorder lock poisoned");
            let previous = slot.take();
            *slot = Some(recorder);
            ENABLED.store(true, Ordering::Relaxed);
            previous
        };
        if let Some(previous) = previous {
            previous.into_manifest();
        }
    }
}

/// Runs `f` with the installed recorder, if any.
fn with_recorder<T>(f: impl FnOnce(&Recorder) -> T) -> Option<T> {
    if !is_enabled() {
        return None;
    }
    let guard = RECORDER.read().expect("telemetry recorder lock poisoned");
    guard.as_deref().map(f)
}

/// Finishes the run: snapshots metrics, hands the [`RunManifest`] to every
/// sink, flushes, and uninstalls the recorder. Returns `None` if no
/// recorder was installed.
pub fn finish() -> Option<RunManifest> {
    let recorder = {
        let mut slot = RECORDER.write().expect("telemetry recorder lock poisoned");
        ENABLED.store(false, Ordering::Relaxed);
        slot.take()
    }?;
    Some(recorder.into_manifest())
}

/// Flushes every installed sink **without** finishing the run. Useful at
/// natural checkpoints (engine shutdown, end of a bench phase) so short
/// runs don't lose buffered tail events to a crash. No-op when telemetry
/// is off.
pub fn flush() {
    with_recorder(|r| {
        for sink in &r.sinks {
            sink.flush();
        }
    });
}

/// Snapshot of one named histogram from the live registry, or `None` when
/// telemetry is off or the histogram has recorded nothing. Lets callers
/// surface quantiles (e.g. `serve.request.seconds.p99`) as gauges before
/// the run finishes.
pub fn histogram_snapshot(name: &str) -> Option<HistogramSnapshot> {
    with_recorder(|r| r.registry.histogram_snapshot(name)).flatten()
}

/// Renders the current metric registry in Prometheus text exposition
/// format (see [`render_prometheus`]), or `None` when telemetry is off.
pub fn expose_text() -> Option<String> {
    with_recorder(|r| render_prometheus(&r.registry.snapshot(), &r.name))
}

static MONOTONIC_EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();

/// Microseconds elapsed on a monotonic clock since an arbitrary
/// process-local epoch (fixed on first call). This is the one wall-time
/// primitive exported to result-producing crates: the determinism lints
/// confine [`std::time::Instant`] to this crate, so deadline bookkeeping
/// elsewhere (e.g. `deepoheat-serve` request budgets) reads time through
/// here — and swaps in a manual clock for deterministic tests. Works with
/// or without a recorder installed.
pub fn monotonic_micros() -> u64 {
    let epoch = MONOTONIC_EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Adds `delta` to the named counter. No-op when telemetry is off.
#[inline]
pub fn counter(name: &str, delta: u64) {
    with_recorder(|r| r.registry.counter(name, delta));
}

/// Sets the named gauge and emits a `gauge` event. No-op when telemetry
/// is off.
#[inline]
pub fn gauge(name: &str, value: f64) {
    with_recorder(|r| {
        r.registry.gauge(name, value);
        r.emit(EventKind::Gauge, name, vec![("value".to_string(), Value::F64(value))]);
    });
}

/// Records an observation in the named histogram (registry only — high
/// frequency observations do not flood the sinks). No-op when telemetry
/// is off.
#[inline]
pub fn observe(name: &str, value: f64) {
    with_recorder(|r| r.registry.observe(name, value));
}

/// Emits a structured event with typed fields. No-op when telemetry is
/// off.
///
/// The slice is only materialised when a recorder is installed, so
/// callers on hot paths should gate any *expensive* field computation on
/// [`is_enabled`].
#[inline]
pub fn event(name: &str, fields: &[(&str, Value)]) {
    with_recorder(|r| {
        let fields = fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
        r.emit(EventKind::Event, name, fields);
    });
}

/// A request-scoped trace identity: the trace a unit of work belongs to
/// and the span currently in scope. Obtained from [`current_context`] and
/// handed across threads to [`span_with_parent`] so worker-side spans stay
/// attached to the originating request's tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace ID shared by every span of one request (never 0).
    pub trace: u64,
    /// Span ID of the innermost active span (never 0).
    pub span: u64,
}

use std::cell::Cell;
use std::sync::atomic::AtomicU64;

/// Monotonic ID wells. Span IDs are unique per process across traces, so a
/// parent link is unambiguous even when events from concurrent requests
/// interleave in one JSONL stream. 0 is reserved for "none".
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The innermost active span on this thread. Spans are thread-affine:
    /// the context propagates to nested spans on the same thread
    /// automatically, and crosses threads only explicitly via
    /// [`span_with_parent`].
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// The trace context of the innermost active span on this thread, if any.
/// Capture it before handing work to another thread, then open the
/// worker-side span with [`span_with_parent`].
pub fn current_context() -> Option<TraceContext> {
    CURRENT.with(Cell::get)
}

/// Starts an RAII span timer. On drop it records the wall time into the
/// `<name>.seconds` histogram and emits a `span` event carrying `trace`,
/// `span`, and (for non-root spans) `parent` IDs. Nested spans on the same
/// thread link to the enclosing span automatically; a root span starts a
/// fresh trace. Inert (no clock read, no IDs) when telemetry is off.
#[must_use = "a span records its timing when dropped"]
#[inline]
pub fn span(name: &'static str) -> Span {
    Span::start(name, if is_enabled() { current_context() } else { None })
}

/// Starts a span parented to an explicit [`TraceContext`] instead of this
/// thread's current one — the cross-thread propagation primitive. Pass
/// `None` to force a new root trace.
#[must_use = "a span records its timing when dropped"]
pub fn span_with_parent(name: &'static str, parent: Option<TraceContext>) -> Span {
    Span::start(name, parent)
}

/// RAII guard returned by [`span`] / [`span_with_parent`].
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
    /// This span's identity (`None` when telemetry was off at creation).
    context: Option<TraceContext>,
    /// Span ID of the parent, if this span is not a trace root.
    parent: Option<u64>,
    /// The thread-local context to restore on drop.
    saved: Option<TraceContext>,
}

impl Span {
    fn start(name: &'static str, parent: Option<TraceContext>) -> Span {
        if !is_enabled() {
            return Span { name, start: None, context: None, parent: None, saved: None };
        }
        let trace = parent.map_or_else(|| NEXT_TRACE.fetch_add(1, Ordering::Relaxed), |p| p.trace);
        let context = TraceContext { trace, span: NEXT_SPAN.fetch_add(1, Ordering::Relaxed) };
        let saved = CURRENT.with(|c| c.replace(Some(context)));
        Span {
            name,
            start: Some(Instant::now()),
            context: Some(context),
            parent: parent.map(|p| p.span),
            saved,
        }
    }

    /// Elapsed time so far (`None` when telemetry was off at creation).
    pub fn elapsed(&self) -> Option<Duration> {
        self.start.map(|s| s.elapsed())
    }

    /// This span's trace context (`None` when telemetry was off at
    /// creation). Hand it to [`span_with_parent`] on another thread to
    /// parent worker spans under this one.
    pub fn context(&self) -> Option<TraceContext> {
        self.context
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let seconds = start.elapsed().as_secs_f64();
            CURRENT.with(|c| c.set(self.saved));
            let context = self.context;
            let parent = self.parent;
            with_recorder(|r| {
                r.registry.observe(&format!("{}.seconds", self.name), seconds);
                let mut fields = vec![("seconds".to_string(), Value::F64(seconds))];
                if let Some(ctx) = context {
                    fields.push(("trace".to_string(), Value::U64(ctx.trace)));
                    fields.push(("span".to_string(), Value::U64(ctx.span)));
                }
                if let Some(parent) = parent {
                    fields.push(("parent".to_string(), Value::U64(parent)));
                }
                r.emit(EventKind::Span, self.name, fields);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The recorder is process-global, so tests that install one must not
    /// run concurrently.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn monotonic_micros_is_nondecreasing_and_recorder_free() {
        // No lock needed: the monotonic clock is independent of the
        // recorder slot.
        let a = monotonic_micros();
        let b = monotonic_micros();
        assert!(b >= a);
        std::thread::sleep(Duration::from_millis(2));
        assert!(monotonic_micros() > a);
    }

    #[test]
    fn disabled_by_default_and_calls_are_noops() {
        let _guard = lock();
        finish();
        assert!(!is_enabled());
        counter("x.count", 1);
        gauge("x.g", 1.0);
        observe("x.h", 1.0);
        event("x.e", &[("a", 1u64.into())]);
        let span = span("x.span");
        assert!(span.elapsed().is_none());
        drop(span);
        assert!(finish().is_none());
    }

    #[test]
    fn full_pipeline_records_and_finishes() {
        let _guard = lock();
        let sink = MemorySink::new();
        Recorder::builder("test-run")
            .config("mode", "physics")
            .sink(Box::new(sink.clone()))
            .install();
        assert!(is_enabled());

        counter("a.count", 2);
        gauge("a.lr", 1e-3);
        observe("a.h", 0.5);
        event("a.step", &[("loss", 0.25.into()), ("iteration", 7u64.into())]);
        {
            let _span = span("a.work");
            std::thread::sleep(Duration::from_millis(2));
        }

        let manifest = finish().expect("recorder installed");
        assert!(!is_enabled());
        assert_eq!(manifest.name, "test-run");
        assert_eq!(manifest.config["mode"], "physics");
        assert_eq!(manifest.metrics.counters["a.count"], 2);
        assert_eq!(manifest.metrics.gauges["a.lr"], 1e-3);
        let work = &manifest.metrics.histograms["a.work.seconds"];
        assert_eq!(work.count, 1);
        assert!(work.max >= 0.002);

        let events = sink.events();
        let kinds: Vec<_> = events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::Gauge));
        assert!(kinds.contains(&EventKind::Event));
        assert!(kinds.contains(&EventKind::Span));
        let manifest_copy = sink.take_manifest().expect("manifest delivered to sink");
        assert_eq!(manifest_copy.metrics, manifest.metrics);
    }

    #[test]
    fn reinstall_finishes_previous_run() {
        let _guard = lock();
        let first = MemorySink::new();
        Recorder::builder("one").sink(Box::new(first.clone())).install();
        counter("one.count", 1);
        Recorder::builder("two").install();
        // Installing "two" finished "one" and delivered its manifest.
        let manifest = first.take_manifest().expect("previous run finished");
        assert_eq!(manifest.name, "one");
        assert_eq!(manifest.metrics.counters["one.count"], 1);
        assert!(finish().is_some());
    }

    #[test]
    fn span_timings_accumulate_in_named_histogram() {
        let _guard = lock();
        Recorder::builder("spans").install();
        for _ in 0..3 {
            let _span = span("unit.op");
        }
        let manifest = finish().unwrap();
        assert_eq!(manifest.metrics.histograms["unit.op.seconds"].count, 3);
    }

    #[test]
    fn nested_spans_share_a_trace_and_link_parents() {
        let _guard = lock();
        let sink = MemorySink::new();
        Recorder::builder("trace").sink(Box::new(sink.clone())).install();
        assert!(current_context().is_none(), "no span open yet");
        {
            let root = span("outer");
            let root_ctx = root.context().expect("enabled");
            assert_eq!(current_context(), Some(root_ctx));
            {
                let inner = span("inner");
                let inner_ctx = inner.context().unwrap();
                assert_eq!(inner_ctx.trace, root_ctx.trace, "same trace");
                assert_ne!(inner_ctx.span, root_ctx.span, "fresh span id");
                assert_eq!(current_context(), Some(inner_ctx));
            }
            assert_eq!(current_context(), Some(root_ctx), "restored after child drop");
        }
        assert!(current_context().is_none(), "restored after root drop");
        finish();

        let records: Vec<SpanRecord> =
            sink.events().iter().filter_map(SpanRecord::from_event).collect();
        assert_eq!(records.len(), 2);
        // Events arrive in drop order: inner first.
        let (inner, outer) = (&records[0], &records[1]);
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.trace, outer.trace);
        assert_eq!(inner.parent, Some(outer.span));
        assert_eq!(outer.parent, None, "root span has no parent");
    }

    #[test]
    fn separate_roots_get_separate_traces() {
        let _guard = lock();
        let sink = MemorySink::new();
        Recorder::builder("traces").sink(Box::new(sink.clone())).install();
        drop(span("first"));
        drop(span("second"));
        finish();
        let records: Vec<SpanRecord> =
            sink.events().iter().filter_map(SpanRecord::from_event).collect();
        assert_eq!(records.len(), 2);
        assert_ne!(records[0].trace, records[1].trace);
    }

    #[test]
    fn span_with_parent_crosses_threads() {
        let _guard = lock();
        let sink = MemorySink::new();
        Recorder::builder("xthread").sink(Box::new(sink.clone())).install();
        {
            let root = span("request");
            let ctx = root.context();
            std::thread::spawn(move || {
                drop(span_with_parent("worker", ctx));
            })
            .join()
            .unwrap();
        }
        finish();
        let records: Vec<SpanRecord> =
            sink.events().iter().filter_map(SpanRecord::from_event).collect();
        let worker = records.iter().find(|r| r.name == "worker").unwrap();
        let request = records.iter().find(|r| r.name == "request").unwrap();
        assert_eq!(worker.trace, request.trace, "context crossed the thread");
        assert_eq!(worker.parent, Some(request.span));
    }

    #[test]
    fn flush_and_live_accessors_work_mid_run() {
        let _guard = lock();
        Recorder::builder("live").install();
        observe("live.op.seconds", 0.5);
        observe("live.op.seconds", 0.5);
        flush(); // must not finish the run
        assert!(is_enabled());
        let snap = histogram_snapshot("live.op.seconds").expect("recorded");
        assert_eq!(snap.count, 2);
        assert!(histogram_snapshot("absent").is_none());
        let text = expose_text().expect("enabled");
        assert!(text.contains("deepoheat_live_op_seconds_count{run=\"live\"} 2"));
        finish();
        assert!(histogram_snapshot("live.op.seconds").is_none());
        assert!(expose_text().is_none());
    }
}
