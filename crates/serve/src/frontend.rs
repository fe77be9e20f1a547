//! Overload-safe concurrent serving front-end.
//!
//! [`ServeFrontend`] puts a robustness contract in front of N
//! [`InferenceEngine`] shards:
//!
//! - **Sharding** — designs route by the existing content hash
//!   ([`CacheKey::of`]`.hash() % shards`), so a repeated design always
//!   lands on the shard whose branch-embedding cache already holds it and
//!   the per-shard caches keep their deterministic eviction contract. The
//!   shards share one model, one lowered trunk and one trunk-basis cache:
//!   a mesh any shard has evaluated is a basis hit on every shard.
//! - **Bounded admission** — each shard owns a capacity-bounded queue; a
//!   full queue sheds at the door with a typed
//!   [`ServeError::Overloaded`], never an unbounded queue or a hang.
//! - **Deadlines** — requests carry an absolute deadline (stamped from an
//!   injectable [`Clock`]); expiry is checked at admission, at dequeue,
//!   and in the engine: **between trunk-basis chunks** when the mesh's
//!   basis must be built, once before the combine when it is cached. A
//!   half-built basis stops burning shard time once its budget is gone
//!   ([`ServeError::DeadlineExceeded`]) and is never cached.
//! - **Retry with backoff** — transient shard errors (injected faults,
//!   panics caught at the shard boundary) are retried up to
//!   [`FrontendOptions::max_retries`] times with bounded exponential
//!   backoff; exhaustion surfaces as [`ServeError::ShardFailed`].
//! - **Degradation** — a per-shard circuit breaker opens after
//!   [`FrontendOptions::breaker_threshold`] consecutive failures; while
//!   open, traffic reroutes to a healthy shard and the response carries
//!   [`Served::degraded`]` = true` (cache locality lost), mirroring the
//!   CG ladder's degraded `Solution` flag. After
//!   [`FrontendOptions::breaker_cooldown`] routing decisions a single
//!   probe is let through to close the breaker again.
//!
//! - **Validation** — non-finite sensor values or coordinates fail with a
//!   permanent [`ServeError::InvalidInput`]: never retried, never counted
//!   against a shard's health, never cached.
//!
//! Results are **bit-identical** to the single-caller engine at any shard
//! count and thread count: every shard evaluates the same model, basis
//! chunk boundaries derive from the query count alone, and rows are
//! independent, so rerouting or retrying never changes a bit of a
//! successful answer.
//!
//! Fault injection for all of the above is deterministic and replayable —
//! see [`crate::ServeFaultPlan`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use deepoheat::DeepOHeat;
use deepoheat_linalg::Matrix;
use deepoheat_parallel::{spawn_service, ServiceHandle};
use deepoheat_telemetry as telemetry;

use crate::cache::{CacheKey, CacheStats};
use crate::clock::{Clock, WallClock};
use crate::engine::{InferenceEngine, ServeOptions, SharedBases, SharedParts};
use crate::error::ServeError;
use crate::fault::{ChaosStage, ServeFaultPlan};
use crate::queue::{BoundedQueue, PushRefused};

/// Hard cap on one retry backoff sleep (microseconds), so exponential
/// growth cannot park a shard for seconds.
const MAX_BACKOFF_MICROS: u64 = 50_000;

/// Validated configuration of a [`ServeFrontend`].
#[derive(Debug, Clone, PartialEq)]
pub struct FrontendOptions {
    /// Number of engine shards (each owns a worker thread, an engine, and
    /// a branch-embedding cache; all share the model and the trunk-basis
    /// cache). Must be positive.
    pub shards: usize,
    /// Admission-queue capacity per shard. A push against a full queue is
    /// shed with [`ServeError::Overloaded`]. Must be positive.
    pub queue_capacity: usize,
    /// Retries after the first failed attempt before a request is
    /// completed with [`ServeError::ShardFailed`].
    pub max_retries: u32,
    /// Base backoff before a retry is re-enqueued; doubles per attempt,
    /// capped internally. `0` disables backoff (deterministic tests).
    pub retry_backoff_micros: u64,
    /// Deadline budget applied to requests submitted without an explicit
    /// one; `None` means no deadline.
    pub default_deadline_micros: Option<u64>,
    /// Consecutive failures that open a shard's circuit breaker. Must be
    /// positive.
    pub breaker_threshold: u32,
    /// Routing decisions an open breaker deflects before letting one
    /// probe request through.
    pub breaker_cooldown: u32,
    /// Options for each shard's [`InferenceEngine`].
    pub engine: ServeOptions,
    /// Deterministic fault schedule (chaos harness); empty in production.
    pub faults: ServeFaultPlan,
}

impl Default for FrontendOptions {
    fn default() -> Self {
        FrontendOptions {
            shards: 2,
            queue_capacity: 64,
            max_retries: 2,
            retry_backoff_micros: 200,
            default_deadline_micros: None,
            breaker_threshold: 3,
            breaker_cooldown: 8,
            engine: ServeOptions::default(),
            faults: ServeFaultPlan::none(),
        }
    }
}

impl FrontendOptions {
    /// Checks the options for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidOptions`] when `shards`,
    /// `queue_capacity`, or `breaker_threshold` is zero, or when the
    /// nested engine options fail [`ServeOptions::validate`].
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.shards == 0 {
            return Err(ServeError::InvalidOptions {
                what: "shards must be positive (number of engine shards)".into(),
            });
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidOptions {
                what: "queue_capacity must be positive (bounded admission queue per shard)".into(),
            });
        }
        if self.breaker_threshold == 0 {
            return Err(ServeError::InvalidOptions {
                what: "breaker_threshold must be positive (consecutive failures to open)".into(),
            });
        }
        self.engine.validate()
    }
}

/// A successful response from the front-end.
///
/// `values` is bit-identical to what the single-caller
/// [`InferenceEngine`] returns for the same request, whatever shard
/// served it and however many retries it took.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// The `n_configs × n_points` temperature matrix.
    pub values: Matrix,
    /// Shard that produced the final answer.
    pub shard: usize,
    /// Shard the content hash originally routed to.
    pub home_shard: usize,
    /// True when the request was served away from its home shard (open
    /// circuit breaker or retry reroute): the answer is exact but cache
    /// locality was lost — the serving-path analogue of the CG ladder's
    /// degraded `Solution` flag.
    pub degraded: bool,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Microseconds spent queued before the serving attempt started.
    pub queue_micros: u64,
    /// Microseconds from admission to completion.
    pub total_micros: u64,
}

/// Counter snapshot of the front-end's lifetime, via
/// [`ServeFrontend::stats`]. All counts are monotone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Requests presented to [`ServeFrontend::submit`].
    pub submitted: u64,
    /// Requests completed successfully.
    pub served: u64,
    /// Requests shed with [`ServeError::Overloaded`] (full queue or
    /// injected admission fault).
    pub shed_overloaded: u64,
    /// Requests rejected with [`ServeError::DeadlineExceeded`].
    pub shed_deadline: u64,
    /// Retry attempts scheduled after transient failures.
    pub retries: u64,
    /// Routing decisions deflected away from an unhealthy home shard.
    pub reroutes: u64,
    /// Successful responses flagged [`Served::degraded`].
    pub degraded_served: u64,
    /// Transient shard failures observed (before retry accounting).
    pub shard_failures: u64,
    /// Circuit-breaker open transitions.
    pub breaker_opens: u64,
    /// Requests completed with [`ServeError::ShardFailed`] (retry budget
    /// exhausted).
    pub failed: u64,
}

#[derive(Debug, Default)]
struct StatCells {
    submitted: AtomicU64,
    served: AtomicU64,
    shed_overloaded: AtomicU64,
    shed_deadline: AtomicU64,
    retries: AtomicU64,
    reroutes: AtomicU64,
    degraded_served: AtomicU64,
    shard_failures: AtomicU64,
    breaker_opens: AtomicU64,
    failed: AtomicU64,
}

impl StatCells {
    fn snapshot(&self) -> FrontendStats {
        FrontendStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            shed_overloaded: self.shed_overloaded.load(Ordering::Relaxed),
            shed_deadline: self.shed_deadline.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            reroutes: self.reroutes.load(Ordering::Relaxed),
            degraded_served: self.degraded_served.load(Ordering::Relaxed),
            shard_failures: self.shard_failures.load(Ordering::Relaxed),
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
        }
    }
}

/// Per-shard circuit-breaker state, guarded by one mutex for all shards
/// (routing touches at most two entries and holds the lock briefly).
#[derive(Debug, Clone, Copy, Default)]
struct ShardHealth {
    consecutive_failures: u32,
    open: bool,
    cooldown_left: u32,
}

/// One admitted request travelling through the pipeline.
#[derive(Debug)]
struct Job {
    id: u64,
    attempt: u32,
    home_shard: usize,
    degraded: bool,
    inputs: Vec<Matrix>,
    coords: Matrix,
    /// Absolute deadline in clock micros; `None` = no deadline.
    deadline: Option<u64>,
    admitted_micros: u64,
    completion: Arc<Completion>,
}

/// Single-writer completion slot; the first completion wins, later ones
/// (e.g. the abort guard racing a typed completion) are ignored.
#[derive(Debug)]
struct Completion {
    slot: Mutex<Option<Result<Served, ServeError>>>,
    done: Condvar,
}

impl Completion {
    fn new() -> Arc<Self> {
        Arc::new(Completion { slot: Mutex::new(None), done: Condvar::new() })
    }

    fn lock(&self) -> MutexGuard<'_, Option<Result<Served, ServeError>>> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn complete(&self, result: Result<Served, ServeError>) {
        let mut slot = self.lock();
        if slot.is_none() {
            *slot = Some(result);
            self.done.notify_all();
        }
    }

    fn wait(&self) -> Result<Served, ServeError> {
        let mut slot = self.lock();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.done.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Handle to one in-flight request. Obtained from
/// [`ServeFrontend::submit`]; [`Ticket::wait`] blocks until the request
/// resolves — the front-end guarantees every admitted request does.
#[derive(Debug)]
pub struct Ticket {
    completion: Arc<Completion>,
}

impl Ticket {
    /// Blocks until the request completes.
    ///
    /// # Errors
    ///
    /// Whatever typed rejection the pipeline produced —
    /// [`ServeError::Overloaded`], [`ServeError::DeadlineExceeded`],
    /// [`ServeError::ShardFailed`], [`ServeError::ShuttingDown`], or
    /// [`ServeError::Model`].
    pub fn wait(self) -> Result<Served, ServeError> {
        self.completion.wait()
    }
}

/// Sticky one-shot gate the chaos harness parks held requests behind.
#[derive(Debug, Default)]
struct Gate {
    released: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn wait(&self) {
        let mut released = self.released.lock().unwrap_or_else(PoisonError::into_inner);
        while !*released {
            released = self.cv.wait(released).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn release(&self) {
        *self.released.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.cv.notify_all();
    }
}

#[derive(Debug)]
struct Shared {
    options: FrontendOptions,
    queues: Vec<BoundedQueue<Job>>,
    health: Mutex<Vec<ShardHealth>>,
    gate: Gate,
    clock: Arc<dyn Clock>,
    accepting: AtomicBool,
    next_id: AtomicU64,
    stats: StatCells,
}

impl Shared {
    fn health_lock(&self) -> MutexGuard<'_, Vec<ShardHealth>> {
        self.health.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Picks the shard a request (or retry) should run on. Returns the
    /// target and whether the choice is a degradation (home was deflected
    /// by an open breaker).
    fn route(&self, home: usize) -> (usize, bool) {
        let shards = self.options.shards;
        let mut health = self.health_lock();
        if !health[home].open {
            return (home, false);
        }
        if health[home].cooldown_left == 0 {
            // Probe: let this request through to home; re-arm the
            // cooldown so a failed probe keeps the breaker open for
            // another full period.
            health[home].cooldown_left = self.options.breaker_cooldown;
            return (home, false);
        }
        health[home].cooldown_left -= 1;
        for step in 1..shards {
            let candidate = (home + step) % shards;
            if !health[candidate].open {
                return (candidate, true);
            }
        }
        // Every shard unhealthy: home is as good as any.
        (home, false)
    }

    fn record_failure(&self, shard: usize) {
        let mut health = self.health_lock();
        let entry = &mut health[shard];
        entry.consecutive_failures = entry.consecutive_failures.saturating_add(1);
        if !entry.open && entry.consecutive_failures >= self.options.breaker_threshold {
            entry.open = true;
            entry.cooldown_left = self.options.breaker_cooldown;
            drop(health);
            self.stats.breaker_opens.fetch_add(1, Ordering::Relaxed);
            telemetry::counter("serve.shard.breaker_opens", 1);
        }
    }

    fn record_success(&self, shard: usize) {
        let mut health = self.health_lock();
        health[shard].consecutive_failures = 0;
        health[shard].open = false;
    }

    fn expired(&self, deadline: Option<u64>) -> bool {
        deadline.is_some_and(|d| self.clock.now_micros() >= d)
    }
}

/// Why one serving attempt did not produce values.
enum AttemptError {
    /// Retryable: injected fault or a panic caught at the shard boundary.
    Transient(String),
    /// The deadline expired mid-attempt; completes immediately, does not
    /// count against the shard's health.
    Deadline(&'static str),
    /// Deterministic request error (shape mismatch, non-finite input);
    /// retrying cannot help.
    Permanent(ServeError),
}

impl From<ServeError> for AttemptError {
    fn from(err: ServeError) -> Self {
        match err {
            ServeError::DeadlineExceeded { stage } => AttemptError::Deadline(stage),
            other => AttemptError::Permanent(other),
        }
    }
}

/// The concurrent, overload-safe serving front-end (see the module docs
/// for the full contract).
#[derive(Debug)]
pub struct ServeFrontend {
    shared: Arc<Shared>,
    workers: Vec<ServiceHandle>,
    /// The shards' shared trunk-basis cache.
    bases: SharedBases,
    shut_down: bool,
}

impl ServeFrontend {
    /// Builds the front-end over `model` (owned, or shared through an
    /// [`Arc`]) with the production wall clock.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidOptions`] when the options fail
    /// [`FrontendOptions::validate`].
    pub fn new(
        model: impl Into<Arc<DeepOHeat>>,
        options: FrontendOptions,
    ) -> Result<Self, ServeError> {
        Self::new_with_clock(model, options, Arc::new(WallClock))
    }

    /// Builds the front-end with an injected [`Clock`] — the chaos
    /// harness passes a [`ManualClock`](crate::ManualClock) so deadline
    /// expiry is a scripted fact instead of a race.
    ///
    /// # Errors
    ///
    /// As [`ServeFrontend::new`].
    pub fn new_with_clock(
        model: impl Into<Arc<DeepOHeat>>,
        options: FrontendOptions,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, ServeError> {
        options.validate()?;
        let parts = SharedParts::new(model.into(), options.engine.precision);
        let engines: Vec<InferenceEngine> = (0..options.shards)
            .map(|_| InferenceEngine::with_parts(parts.clone(), false, options.engine.clone()))
            .collect();
        let bases = parts.bases.clone();
        let shared = Arc::new(Shared {
            queues: (0..options.shards)
                .map(|_| BoundedQueue::new(options.queue_capacity))
                .collect(),
            health: Mutex::new(vec![ShardHealth::default(); options.shards]),
            gate: Gate::default(),
            clock,
            accepting: AtomicBool::new(true),
            next_id: AtomicU64::new(0),
            stats: StatCells::default(),
            options,
        });
        let workers = engines
            .into_iter()
            .enumerate()
            .map(|(shard, engine)| {
                let shared = Arc::clone(&shared);
                spawn_service(&format!("deepoheat-serve-shard-{shard}"), move || {
                    worker_loop(&shared, shard, engine);
                })
            })
            .collect();
        Ok(ServeFrontend { shared, workers, bases, shut_down: false })
    }

    /// The shard the content hash routes this design to (ignoring
    /// breaker state).
    #[must_use]
    pub fn home_shard(&self, branch_inputs: &[&Matrix]) -> usize {
        (CacheKey::of(branch_inputs).hash() as usize) % self.shared.options.shards
    }

    /// Lifetime counter snapshot.
    #[must_use]
    pub fn stats(&self) -> FrontendStats {
        self.shared.stats.snapshot()
    }

    /// Counter snapshot of the trunk-basis cache the shards share.
    #[must_use]
    pub fn basis_stats(&self) -> CacheStats {
        self.bases.counters()
    }

    /// Number of trunk bases resident in the shared cache.
    #[must_use]
    pub fn basis_len(&self) -> usize {
        self.bases.resident()
    }

    /// Current per-shard queue depths.
    #[must_use]
    pub fn queue_depths(&self) -> Vec<usize> {
        self.shared.queues.iter().map(BoundedQueue::len).collect()
    }

    /// Highest queue depth any shard ever reached — structurally bounded
    /// by [`FrontendOptions::queue_capacity`].
    #[must_use]
    pub fn queue_max_depth(&self) -> usize {
        self.shared.queues.iter().map(BoundedQueue::max_depth).max().unwrap_or(0)
    }

    /// Releases every request the fault plan parked at the pre-encode
    /// gate. Idempotent; [`ServeFrontend::shutdown`] calls it too, so
    /// held requests can never outlive the front-end.
    pub fn release_holds(&self) {
        self.shared.gate.release();
    }

    /// Submits a request with the default deadline budget.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] after shutdown began,
    /// [`ServeError::Overloaded`] when the target queue is full (or the
    /// fault plan rejects at admission), and
    /// [`ServeError::DeadlineExceeded`] for an already-expired budget.
    pub fn submit(&self, branch_inputs: &[&Matrix], coords: &Matrix) -> Result<Ticket, ServeError> {
        self.submit_with_budget(branch_inputs, coords, self.shared.options.default_deadline_micros)
    }

    /// Submits a request with an explicit deadline budget (microseconds
    /// from now), overriding the default.
    ///
    /// # Errors
    ///
    /// As [`ServeFrontend::submit`].
    pub fn submit_with_budget(
        &self,
        branch_inputs: &[&Matrix],
        coords: &Matrix,
        budget_micros: Option<u64>,
    ) -> Result<Ticket, ServeError> {
        let shared = &self.shared;
        if !shared.accepting.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
        shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let admitted = shared.clock.now_micros();
        let deadline = budget_micros.map(|b| admitted.saturating_add(b));
        let home = self.home_shard(branch_inputs);
        if budget_micros == Some(0) {
            shared.stats.shed_deadline.fetch_add(1, Ordering::Relaxed);
            telemetry::counter("serve.shed.deadline", 1);
            return Err(ServeError::DeadlineExceeded { stage: "admission" });
        }
        if shared.options.faults.fails(ChaosStage::Admission, id, 0) {
            shared.stats.shed_overloaded.fetch_add(1, Ordering::Relaxed);
            telemetry::counter("serve.shed.overloaded", 1);
            return Err(ServeError::Overloaded { shard: home, depth: shared.queues[home].len() });
        }
        let (target, degraded) = shared.route(home);
        if degraded {
            shared.stats.reroutes.fetch_add(1, Ordering::Relaxed);
            telemetry::counter("serve.shard.reroutes", 1);
        }
        let completion = Completion::new();
        let job = Job {
            id,
            attempt: 0,
            home_shard: home,
            degraded,
            inputs: branch_inputs.iter().map(|m| (*m).clone()).collect(),
            coords: coords.clone(),
            deadline,
            admitted_micros: admitted,
            completion: Arc::clone(&completion),
        };
        match shared.queues[target].try_push(job) {
            Ok(depth) => {
                telemetry::counter("serve.queue.enqueued", 1);
                telemetry::observe("serve.queue.depth", depth as f64);
                Ok(Ticket { completion })
            }
            Err(PushRefused::Full(_)) => {
                shared.stats.shed_overloaded.fetch_add(1, Ordering::Relaxed);
                telemetry::counter("serve.shed.overloaded", 1);
                Err(ServeError::Overloaded { shard: target, depth: shared.options.queue_capacity })
            }
            Err(PushRefused::Closed(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// One-call convenience: [`submit`](Self::submit) then
    /// [`Ticket::wait`].
    ///
    /// # Errors
    ///
    /// As [`ServeFrontend::submit`] plus whatever the pipeline completes
    /// the ticket with.
    pub fn call(&self, branch_inputs: &[&Matrix], coords: &Matrix) -> Result<Served, ServeError> {
        self.submit(branch_inputs, coords)?.wait()
    }

    /// Stops admission, drains the queues, joins every shard worker, and
    /// emits the summary gauges (`serve.queue.max_depth`,
    /// `serve.shed.rate`, `serve.basis.hit_rate`) exactly once.
    /// Idempotent; called on drop.
    /// Already-admitted requests still resolve — a close never discards
    /// queued work.
    ///
    /// Shards stop one at a time, last shard first: each queue is closed
    /// and its worker joined before the next one down. Shards start in
    /// index order ([`spawn_service`] returns once a thread runs), so a
    /// front-end built after this one gives each shard the allocator
    /// arena of the same shard here, and a mesh's home shard finds the
    /// room its basis took instead of growing another arena by the basis
    /// and its scratch (about 10 MiB at the paper's mesh).
    pub fn shutdown(&mut self) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        self.shared.accepting.store(false, Ordering::SeqCst);
        self.shared.gate.release();
        for (queue, worker) in self.shared.queues.iter().zip(self.workers.drain(..)).rev() {
            queue.close();
            worker.join();
        }
        // Belt and braces: if a worker died outside its panic boundary,
        // complete whatever it left queued so no ticket can hang.
        for queue in &self.shared.queues {
            while let Some(job) = queue.pop() {
                job.completion.complete(Err(ServeError::ShuttingDown));
            }
        }
        if telemetry::is_enabled() {
            telemetry::gauge("serve.queue.max_depth", self.queue_max_depth() as f64);
            let stats = self.stats();
            let shed = stats.shed_overloaded + stats.shed_deadline;
            let rate =
                if stats.submitted == 0 { 0.0 } else { shed as f64 / stats.submitted as f64 };
            telemetry::gauge("serve.shed.rate", rate);
            let basis_rate = self.basis_stats().hit_rate();
            telemetry::gauge("serve.basis.hit_rate", basis_rate);
            telemetry::flush();
        }
    }
}

impl Drop for ServeFrontend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Arc<Shared>, shard: usize, mut engine: InferenceEngine) {
    while let Some(job) = shared.queues[shard].pop() {
        handle_job(shared, shard, &mut engine, job);
    }
    engine.shutdown();
}

fn handle_job(shared: &Arc<Shared>, shard: usize, engine: &mut InferenceEngine, mut job: Job) {
    let dequeued = shared.clock.now_micros();
    if shared.expired(job.deadline) {
        shared.stats.shed_deadline.fetch_add(1, Ordering::Relaxed);
        telemetry::counter("serve.shed.deadline", 1);
        job.completion.complete(Err(ServeError::DeadlineExceeded { stage: "queue" }));
        return;
    }
    telemetry::observe(
        "serve.queue.wait.seconds",
        dequeued.saturating_sub(job.admitted_micros) as f64 / 1e6,
    );
    if shared.options.faults.holds(job.id) {
        shared.gate.wait();
        // Time may have passed while parked.
        if shared.expired(job.deadline) {
            shared.stats.shed_deadline.fetch_add(1, Ordering::Relaxed);
            telemetry::counter("serve.shed.deadline", 1);
            job.completion.complete(Err(ServeError::DeadlineExceeded { stage: "queue" }));
            return;
        }
    }
    // Panic boundary: model evaluation is the only code here that can
    // panic, and a panicking shard must look like a transient shard
    // failure, not a hung ticket.
    let outcome = catch_unwind(AssertUnwindSafe(|| run_attempt(shared, engine, &job)));
    let outcome = match outcome {
        Ok(result) => result,
        Err(_) => Err(AttemptError::Transient("panic during model evaluation".into())),
    };
    match outcome {
        Ok(values) => {
            let now = shared.clock.now_micros();
            shared.record_success(shard);
            shared.stats.served.fetch_add(1, Ordering::Relaxed);
            if job.degraded {
                shared.stats.degraded_served.fetch_add(1, Ordering::Relaxed);
                telemetry::counter("serve.shard.degraded", 1);
            }
            let total = now.saturating_sub(job.admitted_micros);
            telemetry::observe("serve.frontend.seconds", total as f64 / 1e6);
            job.completion.complete(Ok(Served {
                values,
                shard,
                home_shard: job.home_shard,
                degraded: job.degraded,
                attempts: job.attempt + 1,
                queue_micros: dequeued.saturating_sub(job.admitted_micros),
                total_micros: total,
            }));
        }
        Err(AttemptError::Deadline(stage)) => {
            shared.stats.shed_deadline.fetch_add(1, Ordering::Relaxed);
            telemetry::counter("serve.shed.deadline", 1);
            job.completion.complete(Err(ServeError::DeadlineExceeded { stage }));
        }
        Err(AttemptError::Permanent(err)) => {
            job.completion.complete(Err(err));
        }
        Err(AttemptError::Transient(what)) => {
            shared.stats.shard_failures.fetch_add(1, Ordering::Relaxed);
            telemetry::counter("serve.shard.failures", 1);
            shared.record_failure(shard);
            if job.attempt >= shared.options.max_retries {
                shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                job.completion.complete(Err(ServeError::ShardFailed {
                    shard,
                    attempts: job.attempt + 1,
                    what,
                }));
                return;
            }
            shared.stats.retries.fetch_add(1, Ordering::Relaxed);
            telemetry::counter("serve.shard.retries", 1);
            if shared.options.retry_backoff_micros > 0 {
                let backoff = shared
                    .options
                    .retry_backoff_micros
                    .saturating_mul(1u64 << job.attempt.min(16))
                    .min(MAX_BACKOFF_MICROS);
                std::thread::sleep(std::time::Duration::from_micros(backoff));
            }
            job.attempt += 1;
            let (target, rerouted) = shared.route(job.home_shard);
            if rerouted {
                shared.stats.reroutes.fetch_add(1, Ordering::Relaxed);
                telemetry::counter("serve.shard.reroutes", 1);
            }
            job.degraded = job.degraded || rerouted || target != job.home_shard;
            match shared.queues[target].try_push(job) {
                Ok(depth) => {
                    telemetry::observe("serve.queue.depth", depth as f64);
                }
                Err(PushRefused::Full(job)) => {
                    shared.stats.shed_overloaded.fetch_add(1, Ordering::Relaxed);
                    telemetry::counter("serve.shed.overloaded", 1);
                    job.completion.complete(Err(ServeError::Overloaded {
                        shard: target,
                        depth: shared.options.queue_capacity,
                    }));
                }
                Err(PushRefused::Closed(job)) => {
                    job.completion.complete(Err(ServeError::ShuttingDown));
                }
            }
        }
    }
}

/// One serving attempt: injected-fault checks around the engine's request
/// path, which owns validation, both caches and the deadline checks.
fn run_attempt(
    shared: &Shared,
    engine: &mut InferenceEngine,
    job: &Job,
) -> Result<Matrix, AttemptError> {
    let faults = &shared.options.faults;
    if faults.fails(ChaosStage::Shard, job.id, job.attempt) {
        return Err(AttemptError::Transient("injected shard fault".into()));
    }
    if faults.fails(ChaosStage::Encode, job.id, job.attempt) {
        return Err(AttemptError::Transient("injected encode fault".into()));
    }
    let input_refs: Vec<&Matrix> = job.inputs.iter().collect();
    let expired = || shared.expired(job.deadline);
    engine.serve(&input_refs, &job.coords, &expired, || {
        if faults.fails(ChaosStage::Trunk, job.id, job.attempt) {
            return Err(AttemptError::Transient("injected trunk fault".into()));
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> DeepOHeat {
        let cfg = deepoheat::DeepOHeatConfig::single_branch(4, &[8], &[8], 6);
        let mut rng = StdRng::seed_from_u64(7);
        DeepOHeat::new(&cfg, &mut rng).expect("invariant: config is valid")
    }

    fn options() -> FrontendOptions {
        FrontendOptions { retry_backoff_micros: 0, ..FrontendOptions::default() }
    }

    #[test]
    fn call_matches_single_engine_bitwise() {
        let m = model();
        let input = Matrix::from_fn(1, 4, |_, j| 0.1 * (j as f64 + 1.0));
        let coords = Matrix::from_fn(33, 3, |i, j| (i as f64).mul_add(0.05, j as f64 * 0.3));
        let expected = m.predict(&[&input], &coords).expect("invariant: shapes match");
        let frontend = ServeFrontend::new(m, options()).expect("valid options");
        let served = frontend.call(&[&input], &coords).expect("served");
        assert_eq!(served.values.as_slice(), expected.as_slice());
        assert!(!served.degraded);
        assert_eq!(served.attempts, 1);
        assert_eq!(served.shard, served.home_shard);
    }

    #[test]
    fn deadline_chunked_path_is_bitwise_identical() {
        let m = model();
        let input = Matrix::filled(1, 4, 0.5);
        // Several basis chunks' worth of queries with a deadline set, so
        // the deadline is checked between chunks.
        let coords = Matrix::from_fn(70, 3, |i, j| (i + j) as f64 * 0.01);
        let expected = m.predict(&[&input], &coords).expect("invariant: shapes match");
        let opts = FrontendOptions {
            engine: ServeOptions { trunk_chunk: 16, ..ServeOptions::default() },
            default_deadline_micros: Some(60_000_000),
            ..options()
        };
        let frontend = ServeFrontend::new(m, opts).expect("valid options");
        let served = frontend.call(&[&input], &coords).expect("served");
        assert_eq!(served.values.as_slice(), expected.as_slice());
    }

    #[test]
    fn zero_row_queries_are_served_or_rejected_with_and_without_deadline() {
        let frontend = ServeFrontend::new(model(), options()).expect("valid options");
        let input = Matrix::filled(2, 4, 0.5);
        for budget in [None, Some(60_000_000)] {
            let served = frontend
                .submit_with_budget(&[&input], &Matrix::zeros(0, 3), budget)
                .and_then(Ticket::wait)
                .expect("an empty mesh is a valid query");
            assert_eq!(served.values.shape(), (2, 0), "budget {budget:?}");
            let err = frontend
                .submit_with_budget(&[&input], &Matrix::zeros(0, 2), budget)
                .and_then(Ticket::wait)
                .expect_err("coordinates must be points x 3");
            assert!(matches!(err, ServeError::Model(_)), "budget {budget:?}: {err}");
        }
        assert_eq!(frontend.stats().retries, 0);
    }

    #[test]
    fn non_finite_inputs_are_permanent_and_spare_shard_health() {
        let opts = FrontendOptions { shards: 1, breaker_threshold: 2, ..options() };
        let frontend = ServeFrontend::new(model(), opts).expect("valid options");
        let input = Matrix::filled(1, 4, 0.5);
        let coords = Matrix::from_fn(6, 3, |i, j| 0.1 * (i + j) as f64);
        let mut bad_input = input.clone();
        bad_input[(0, 3)] = f64::NAN;
        let mut bad_coords = coords.clone();
        bad_coords[(5, 0)] = f64::NEG_INFINITY;
        for _ in 0..3 {
            for (u, y) in [(&bad_input, &coords), (&input, &bad_coords)] {
                let err = frontend.call(&[u], y).expect_err("non-finite input");
                assert!(matches!(err, ServeError::InvalidInput { .. }), "{err}");
            }
        }
        let stats = frontend.stats();
        assert_eq!((stats.retries, stats.shard_failures, stats.breaker_opens), (0, 0, 0));
        assert_eq!(frontend.basis_len(), 0, "a rejected request never fills the basis cache");
        let served = frontend.call(&[&input], &coords).expect("valid request");
        assert!(!served.degraded);
        assert_eq!(served.attempts, 1);
    }

    #[test]
    fn shape_errors_are_permanent_not_retried() {
        let frontend = ServeFrontend::new(model(), options()).expect("valid options");
        let wrong = Matrix::filled(1, 3, 1.0);
        let coords = Matrix::filled(2, 3, 0.5);
        let err = frontend.call(&[&wrong], &coords).expect_err("shape mismatch");
        assert!(matches!(err, ServeError::Model(_)), "{err}");
        assert_eq!(frontend.stats().retries, 0);
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let mut frontend = ServeFrontend::new(model(), options()).expect("valid options");
        frontend.shutdown();
        let input = Matrix::filled(1, 4, 0.5);
        let coords = Matrix::filled(2, 3, 0.5);
        let err = frontend.submit(&[&input], &coords).expect_err("shut down");
        assert!(matches!(err, ServeError::ShuttingDown));
    }

    #[test]
    fn zero_budget_is_rejected_at_admission() {
        let frontend = ServeFrontend::new(model(), options()).expect("valid options");
        let input = Matrix::filled(1, 4, 0.5);
        let coords = Matrix::filled(2, 3, 0.5);
        let err =
            frontend.submit_with_budget(&[&input], &coords, Some(0)).expect_err("zero budget");
        assert!(matches!(err, ServeError::DeadlineExceeded { stage: "admission" }));
    }

    #[test]
    fn options_validation_rejects_degenerate_configs() {
        for (opts, needle) in [
            (FrontendOptions { shards: 0, ..options() }, "shards"),
            (FrontendOptions { queue_capacity: 0, ..options() }, "queue_capacity"),
            (FrontendOptions { breaker_threshold: 0, ..options() }, "breaker_threshold"),
            (
                FrontendOptions {
                    engine: ServeOptions { trunk_chunk: 0, ..ServeOptions::default() },
                    ..options()
                },
                "trunk_chunk",
            ),
        ] {
            let err = opts.validate().expect_err(needle);
            assert!(err.to_string().contains(needle), "{err} should mention {needle}");
        }
    }
}
