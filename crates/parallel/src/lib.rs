//! Persistent scoped worker pool with **deterministic** chunked helpers.
//!
//! Every other crate in the workspace funnels its data parallelism through
//! this one, so the determinism contract lives in exactly one place:
//!
//! 1. **Chunk boundaries are derived from problem size and fixed constants
//!    only** — never from the thread count. A reduction over `n` elements
//!    always splits into the same `⌈n / chunk⌉` ranges whether it runs on
//!    1 thread or 64.
//! 2. **Partial results combine in chunk-index order.** [`par_reduce`]
//!    sums the per-chunk partials left to right, so the floating-point
//!    rounding sequence is independent of which worker finished first.
//! 3. **The serial fallback executes the identical chunked code path**, so
//!    a 1-thread pool is bit-for-bit the same computation, not a separate
//!    implementation that happens to agree.
//!
//! Together these make every result bit-identical across thread counts,
//! which is what lets the checkpoint/resume layer keep its bit-identical
//! replay guarantee while the hot paths run on all cores.
//!
//! # Pool model
//!
//! A [`ThreadPool`] owns `threads - 1` OS workers parked on one shared
//! queue; the thread that submits a batch of scoped jobs participates in
//! draining the queue, so `threads == 1` means "no workers, run inline".
//! The global pool is created lazily on first use, sized from the
//! `DEEPOHEAT_NUM_THREADS` environment variable when set (and ≥ 1) or from
//! [`std::thread::available_parallelism`] otherwise. Tests and embedders
//! can pin a differently-sized pool for a closure with
//! [`ThreadPool::install`].
//!
//! Jobs submitted from inside a worker run inline instead of re-entering
//! the queue, so nested parallel calls cannot deadlock the pool.

use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier, Condvar, Mutex, OnceLock};
use std::thread;

/// Environment variable consulted (once, at first use) to size the global
/// pool. Values below 1 or unparsable values fall back to the detected
/// hardware parallelism.
pub const ENV_NUM_THREADS: &str = "DEEPOHEAT_NUM_THREADS";

/// A unit of work whose borrows have been erased to `'static`; soundness
/// is restored by [`ThreadPool::scope`], which does not return until every
/// job it submitted has completed.
type RawJob = Box<dyn FnOnce() + Send + 'static>;

/// A scoped job as accepted from callers: may borrow from the submitting
/// stack frame for the duration of the scope.
pub type Job<'scope> = Box<dyn FnOnce() + Send + 'scope>;

// ---------------------------------------------------------------------------
// Completion latch
// ---------------------------------------------------------------------------

struct LatchState {
    remaining: usize,
    panicked: bool,
}

/// Counts down as a scope's jobs finish; the submitting thread blocks on it
/// before returning, which is what makes the `'scope` lifetime erasure in
/// [`ThreadPool::scope`] sound.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Arc<Self> {
        Arc::new(Latch {
            state: Mutex::new(LatchState { remaining: count, panicked: false }),
            done: Condvar::new(),
        })
    }

    fn complete(&self, panicked: bool) {
        let mut state = self.state.lock().expect("latch lock");
        state.remaining -= 1;
        state.panicked |= panicked;
        if state.remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every job has completed; returns whether any panicked.
    fn wait(&self) -> bool {
        let mut state = self.state.lock().expect("latch lock");
        while state.remaining > 0 {
            state = self.done.wait(state).expect("latch wait");
        }
        state.panicked
    }
}

// ---------------------------------------------------------------------------
// Shared job queue
// ---------------------------------------------------------------------------

struct Task {
    job: RawJob,
    latch: Arc<Latch>,
}

impl Task {
    /// Runs the job, trapping panics so a poisoned task cannot take a
    /// worker thread down; the panic is re-raised on the submitting thread.
    fn run(self) {
        let panicked = catch_unwind(AssertUnwindSafe(self.job)).is_err();
        self.latch.complete(panicked);
    }
}

#[derive(Default)]
struct QueueState {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

#[derive(Default)]
struct Queue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl Queue {
    fn pop_or_park(&self) -> Option<Task> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(task) = state.tasks.pop_front() {
                return Some(task);
            }
            if state.shutdown {
                return None;
            }
            state = self.ready.wait(state).expect("queue wait");
        }
    }

    fn try_pop(&self) -> Option<Task> {
        self.state.lock().expect("queue lock").tasks.pop_front()
    }
}

fn worker_loop(queue: Arc<Queue>) {
    IN_WORKER.with(|w| w.set(true));
    while let Some(task) = queue.pop_or_park() {
        task.run();
    }
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

/// A persistent pool of worker threads executing scoped jobs.
///
/// The pool size counts the submitting thread: a pool of `threads == n`
/// spawns `n - 1` OS workers and the caller drains the queue alongside
/// them, so `ThreadPool::new(1)` spawns nothing and runs everything
/// inline — the graceful serial fallback.
pub struct ThreadPool {
    queue: Arc<Queue>,
    workers: Vec<thread::JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Creates a pool that executes jobs on `threads` threads in total
    /// (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let queue = Arc::new(Queue::default());
        let workers = (1..threads)
            .map(|_| {
                let queue = Arc::clone(&queue);
                thread::Builder::new()
                    .name("deepoheat-worker".into())
                    .spawn(move || worker_loop(queue))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { queue, workers, threads }
    }

    /// Total threads executing jobs, including the submitting thread.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` with this pool installed as the calling thread's current
    /// pool: every chunked helper in this crate dispatches to it instead
    /// of the global pool. Installation is per-thread and restored on
    /// exit (including on panic), so tests can pin 1/2/8-thread pools
    /// without touching process-wide state.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<*const ThreadPool>);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT_POOL.with(|c| c.set(self.0));
            }
        }
        let previous = CURRENT_POOL.with(|c| c.replace(Some(std::ptr::from_ref(self))));
        let _restore = Restore(previous);
        f()
    }

    /// Executes every job, blocking until all have finished. Jobs may
    /// borrow from the caller's stack. If any job panics, the panic is
    /// re-raised here after the whole batch has drained.
    ///
    /// Runs inline — same order, same thread — when the pool is serial,
    /// the batch has at most one job, or the caller is itself a pool
    /// worker (nested parallelism).
    pub fn scope<'scope>(&self, jobs: Vec<Job<'scope>>) {
        if self.threads == 1 || jobs.len() <= 1 || IN_WORKER.with(Cell::get) {
            for job in jobs {
                job();
            }
            return;
        }
        let latch = Latch::new(jobs.len());
        {
            let mut state = self.queue.state.lock().expect("queue lock");
            for job in jobs {
                // SAFETY: `Job<'scope>` and `RawJob` are the same type up
                // to the closure's borrow lifetime (`'scope` vs `'static`),
                // so the transmute only erases a lifetime — layout is
                // identical. The erased borrows stay valid because this
                // function does not return until `latch.wait` has observed
                // every job complete, i.e. no job can outlive `'scope`.
                //
                // Happens-before chain (loom-style), per job:
                //
                //   [submit]  push onto `state.tasks` under `queue.state`
                //             mutex ──(mutex release/acquire)──▶
                //   [worker]  pop in `try_pop` under the same mutex; run
                //             the closure ──(program order)──▶
                //   [worker]  `latch.complete()`: decrement under the
                //             latch mutex, notify ──(mutex release/acquire
                //             on the latch mutex)──▶
                //   [submit]  `latch.wait()` observes count == 0 and
                //             returns, after which `scope` may return and
                //             the `'scope` borrows may die.
                //
                // Every edge is a mutex release→acquire pair, so each
                // job's entire execution is ordered strictly before
                // `scope` returns; the closure therefore never touches its
                // borrows after they are invalidated. A panicking job
                // still reaches `latch.complete()` (the decrement runs in
                // `Task::run`'s unwind path via `catch_unwind`), so the
                // chain holds on panic too.
                let job = unsafe { std::mem::transmute::<Job<'scope>, RawJob>(job) };
                state.tasks.push_back(Task { job, latch: Arc::clone(&latch) });
            }
            self.queue.ready.notify_all();
        }
        // The submitting thread works the queue rather than parking. It may
        // pick up tasks from an unrelated concurrent scope — harmless, it
        // just helps that scope along while waiting for its own.
        while let Some(task) = self.queue.try_pop() {
            task.run();
        }
        if latch.wait() {
            panic!("deepoheat-parallel: a pooled job panicked");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.queue.state.lock().expect("queue lock").shutdown = true;
        self.queue.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Global / current pool
// ---------------------------------------------------------------------------

static GLOBAL_POOL: OnceLock<ThreadPool> = OnceLock::new();

thread_local! {
    static CURRENT_POOL: Cell<Option<*const ThreadPool>> = const { Cell::new(None) };
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn default_threads() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn configured_threads() -> usize {
    match std::env::var(ENV_NUM_THREADS) {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

/// The process-wide pool, created on first use. Its size is fixed for the
/// life of the process; use [`ThreadPool::install`] for scoped overrides.
pub fn global() -> &'static ThreadPool {
    GLOBAL_POOL.get_or_init(|| ThreadPool::new(configured_threads()))
}

fn with_current<R>(f: impl FnOnce(&ThreadPool) -> R) -> R {
    match CURRENT_POOL.with(Cell::get) {
        // SAFETY: the pointer cannot dangle. It was stored by `install`,
        // whose `&self` borrow of the pool is held across the entire
        // `f()` call — the borrow checker therefore forbids dropping (or
        // moving) the pool while the pointer is published. `install`
        // restores the previous slot value before returning via the
        // `Restore` drop guard, which runs even if `f` unwinds, so the
        // pointer is unpublished strictly before the `&self` borrow ends.
        // The slot is thread-local and never handed to another thread,
        // so no other thread can observe the pointer after that.
        // `with_current` runs either inside `install`'s dynamic extent
        // (pointer valid) or outside it (slot is `None`); there is no
        // third state.
        Some(pool) => f(unsafe { &*pool }),
        None => f(global()),
    }
}

/// Threads of the calling thread's current pool (installed or global).
#[must_use]
pub fn num_threads() -> usize {
    with_current(ThreadPool::threads)
}

/// Runs a batch of scoped jobs on the current pool.
pub fn run_scope(jobs: Vec<Job<'_>>) {
    with_current(|pool| pool.scope(jobs));
}

// ---------------------------------------------------------------------------
// Long-lived services
// ---------------------------------------------------------------------------

/// Owner of one long-lived service thread started by [`spawn_service`].
///
/// Dropping the handle joins the thread, so a service must have an
/// external shutdown signal (closed queue, flag, …) that its loop observes
/// before the handle is dropped — the handle itself carries no way to
/// interrupt the closure. A panic inside the service is contained to the
/// service thread; [`ServiceHandle::join`] reports it as `true` instead of
/// propagating.
#[derive(Debug)]
pub struct ServiceHandle {
    name: String,
    handle: Option<thread::JoinHandle<()>>,
}

impl ServiceHandle {
    /// The name the service was spawned with.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Waits for the service to finish. Returns `true` when the service
    /// panicked, `false` when it returned normally. Idempotent via
    /// consumption: the handle is gone afterwards.
    pub fn join(mut self) -> bool {
        match self.handle.take() {
            Some(h) => h.join().is_err(),
            None => false,
        }
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            // Swallow the panic payload: drop-time joins run on unwind
            // paths where a second panic would abort the process.
            let _ = h.join();
        }
    }
}

/// Spawns a named long-lived OS thread outside the scoped pool.
///
/// The pool above serves *fork-join* parallelism; services (shard workers,
/// background drains) need a thread that outlives any one scope. This
/// crate is the only one permitted to call [`std::thread::spawn`] (the
/// determinism lints enforce that), so service threads are minted here and
/// handed out as [`ServiceHandle`]s. The service closure may freely use
/// the scoped helpers; it runs as an ordinary external submitter, not a
/// pool worker.
///
/// Returns once the new thread is running, so services spawned one after
/// another start in spawn order. A starting thread takes its allocator
/// arena (glibc hands it the one the most recently exited thread
/// released), so services started in a fixed order and stopped in the
/// reverse order reuse, one for one, the memory of the services they
/// replace rather than whichever arena a race left on top.
pub fn spawn_service<F>(name: &str, f: F) -> ServiceHandle
where
    F: FnOnce() + Send + 'static,
{
    let started = Arc::new(Barrier::new(2));
    let running = Arc::clone(&started);
    let builder = thread::Builder::new().name(name.to_string());
    let handle = builder
        .spawn(move || {
            running.wait();
            f();
        })
        .expect("invariant: OS refused to spawn a service thread (resource exhaustion)");
    started.wait();
    ServiceHandle { name: name.to_string(), handle: Some(handle) }
}

// ---------------------------------------------------------------------------
// Deterministic chunked helpers
// ---------------------------------------------------------------------------

/// The fixed chunk decomposition of `0..n`: `⌈n / chunk⌉` ranges of
/// `chunk` elements with a short tail. Depends only on `n` and `chunk`.
pub fn chunk_ranges(n: usize, chunk: usize) -> impl Iterator<Item = Range<usize>> {
    let chunk = chunk.max(1);
    (0..n.div_ceil(chunk)).map(move |i| i * chunk..((i + 1) * chunk).min(n))
}

/// Maps every fixed chunk of `0..n` through `f` on the current pool and
/// returns the per-chunk results **in chunk-index order**. A problem that
/// fits in one chunk never touches the pool.
pub fn par_map_chunks<T, F>(n: usize, chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let chunk = chunk.max(1);
    if n == 0 {
        return Vec::new();
    }
    if n <= chunk {
        return vec![f(0..n)];
    }
    let count = n.div_ceil(chunk);
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    let jobs: Vec<Job<'_>> = slots
        .iter_mut()
        .enumerate()
        .map(|(i, slot)| {
            let f = &f;
            Box::new(move || {
                let range = i * chunk..((i + 1) * chunk).min(n);
                *slot = Some(f(range));
            }) as Job<'_>
        })
        .collect();
    run_scope(jobs);
    slots.into_iter().map(|slot| slot.expect("every chunk job ran")).collect()
}

/// Sum-reduction with the deterministic contract: `f` produces one partial
/// per fixed chunk and the partials are added **left to right in chunk
/// order**, so the rounding sequence — and therefore the bits of the
/// result — is independent of the thread count.
pub fn par_reduce<F>(n: usize, chunk: usize, f: F) -> f64
where
    F: Fn(Range<usize>) -> f64 + Sync,
{
    par_map_chunks(n, chunk, f).into_iter().sum()
}

/// Splits `data` into fixed `chunk`-sized pieces and applies
/// `f(chunk_index, piece)` to each on the current pool. Pieces are
/// disjoint, so any elementwise computation is bitwise independent of the
/// partition. A slice that fits in one chunk never touches the pool.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk = chunk.max(1);
    if data.len() <= chunk {
        if !data.is_empty() {
            f(0, data);
        }
        return;
    }
    let jobs: Vec<Job<'_>> = data
        .chunks_mut(chunk)
        .enumerate()
        .map(|(i, piece)| {
            let f = &f;
            Box::new(move || f(i, piece)) as Job<'_>
        })
        .collect();
    run_scope(jobs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let mut hits = 0;
        let jobs: Vec<Job<'_>> = vec![Box::new(|| hits += 1)];
        pool.scope(jobs);
        assert_eq!(hits, 1);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn scope_runs_every_job_exactly_once() {
        let pool = ThreadPool::new(4);
        let counter = AtomicUsize::new(0);
        let jobs: Vec<Job<'_>> = (0..64)
            .map(|_| {
                let counter = &counter;
                Box::new(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as Job<'_>
            })
            .collect();
        pool.scope(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn scope_jobs_may_borrow_the_stack() {
        let pool = ThreadPool::new(4);
        let mut out = vec![0usize; 8];
        let jobs: Vec<Job<'_>> = out
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| Box::new(move || *slot = i) as Job<'_>)
            .collect();
        pool.scope(jobs);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn pooled_panic_propagates_to_submitter() {
        let pool = ThreadPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Job<'_>> =
                (0..4).map(|i| Box::new(move || assert!(i != 2, "boom")) as Job<'_>).collect();
            pool.scope(jobs);
        }));
        assert!(caught.is_err());
        // The pool stays usable after a panic.
        let counter = AtomicUsize::new(0);
        let jobs: Vec<Job<'_>> = (0..4)
            .map(|_| {
                let counter = &counter;
                Box::new(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as Job<'_>
            })
            .collect();
        pool.scope(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn install_overrides_the_current_pool() {
        let pool = ThreadPool::new(3);
        assert_eq!(pool.install(num_threads), 3);
        let inner = ThreadPool::new(2);
        let (outer_seen, inner_seen) = pool.install(|| (num_threads(), inner.install(num_threads)));
        assert_eq!((outer_seen, inner_seen), (3, 2));
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        let ranges: Vec<_> = chunk_ranges(10, 4).collect();
        assert_eq!(ranges, vec![0..4, 4..8, 8..10]);
        assert_eq!(chunk_ranges(0, 4).count(), 0);
        assert_eq!(chunk_ranges(4, 4).collect::<Vec<_>>(), vec![0..4]);
    }

    #[test]
    fn par_reduce_is_bitwise_stable_across_pool_sizes() {
        let data: Vec<f64> = (0..100_000).map(|i| ((i * 37) % 101) as f64 * 0.013 - 0.5).collect();
        let sum = |pool: &ThreadPool| {
            pool.install(|| par_reduce(data.len(), 4096, |r| data[r].iter().sum::<f64>()))
        };
        let s1 = sum(&ThreadPool::new(1));
        let s2 = sum(&ThreadPool::new(2));
        let s8 = sum(&ThreadPool::new(8));
        assert_eq!(s1.to_bits(), s2.to_bits());
        assert_eq!(s1.to_bits(), s8.to_bits());
    }

    #[test]
    fn par_map_chunks_preserves_chunk_order() {
        let pool = ThreadPool::new(4);
        let ids = pool.install(|| par_map_chunks(10, 3, |r| r.start));
        assert_eq!(ids, vec![0, 3, 6, 9]);
        assert_eq!(par_map_chunks(0, 3, |r| r.start), Vec::<usize>::new());
    }

    #[test]
    fn par_chunks_mut_touches_every_element_once() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0u32; 1000];
        pool.install(|| {
            par_chunks_mut(&mut data, 64, |i, piece| {
                for (j, v) in piece.iter_mut().enumerate() {
                    *v += (i * 64 + j) as u32;
                }
            });
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn nested_parallel_calls_run_inline_without_deadlock() {
        let pool = ThreadPool::new(2);
        let counter = AtomicUsize::new(0);
        pool.install(|| {
            let jobs: Vec<Job<'_>> = (0..4)
                .map(|_| {
                    let counter = &counter;
                    Box::new(move || {
                        // A nested scope from a worker must not re-enter the
                        // queue it is draining.
                        run_scope(
                            (0..4)
                                .map(|_| {
                                    Box::new(move || {
                                        counter.fetch_add(1, Ordering::SeqCst);
                                    }) as Job<'_>
                                })
                                .collect(),
                        );
                    }) as Job<'_>
                })
                .collect();
            run_scope(jobs);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn service_runs_named_and_joins_cleanly() {
        let hits = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let hits2 = Arc::clone(&hits);
        let svc = spawn_service("svc-test", move || {
            assert_eq!(thread::current().name(), Some("svc-test"));
            hits2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        assert_eq!(svc.name(), "svc-test");
        assert!(!svc.join(), "service returned normally");
        assert_eq!(hits.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn service_panic_is_contained_and_reported() {
        let svc = spawn_service("svc-panic", || panic!("deliberate test panic"));
        assert!(svc.join(), "join reports the panic");
        // Drop-time join of a panicked service must not propagate either.
        let svc = spawn_service("svc-panic-drop", || panic!("deliberate test panic"));
        drop(svc);
    }

    #[test]
    fn service_can_use_scoped_helpers() {
        let svc = spawn_service("svc-pool", || {
            let total = par_reduce(100, 16, |r| r.map(|i| i as f64).sum());
            assert!((total - 4950.0).abs() < 1e-12);
        });
        assert!(!svc.join());
    }
}
