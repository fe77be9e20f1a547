//! The batched inference engine: validated options, cache-aware branch
//! encoding, and cache-aware trunk bases.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use deepoheat::{
    BranchEmbedding, DeepOHeat, DeepOHeatError, Trunk, TrunkBasis, DEFAULT_TRUNK_CHUNK,
};
use deepoheat_linalg::Matrix;
use deepoheat_telemetry as telemetry;

use crate::cache::{BasisCache, CacheKey, CacheStats, EmbeddingCache};
use crate::error::ServeError;

/// Byte budget of an engine's trunk-basis cache (shared by every shard of
/// a [`ServeFrontend`](crate::ServeFrontend)): room for one paper-scale
/// full-mesh basis — 4851 points × 128 latent features in `f64`, 4.9 MiB
/// with its key — and a few smaller meshes. It is also the most the cache
/// adds to resident memory when meshes never repeat. A basis larger than
/// the whole budget is served but never cached.
pub const BASIS_CACHE_BYTES: usize = 8 << 20;

/// Numeric precision of the trunk-evaluation hot path.
///
/// `F64` (the default) computes exactly what [`DeepOHeat::predict`] does.
/// `F32` lowers the trunk-side parameters once at engine construction and
/// runs every query through the single-precision fused kernels — roughly
/// half the memory traffic on the memory-bound serving matmuls — at the
/// cost of ~1e-4 relative divergence from the `f64` answer (bounded by an
/// accuracy test in `deepoheat`). Each precision is individually
/// deterministic: results are bitwise independent of thread count and
/// chunking, but the two precisions are *not* bit-comparable to each
/// other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Double precision; bit-identical to the offline model (default).
    #[default]
    F64,
    /// Single precision via the lowered trunk; opt-in.
    F32,
}

/// Validated configuration of an [`InferenceEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Maximum number of branch embeddings kept resident. `0` disables
    /// the cache entirely (every request re-encodes).
    pub cache_capacity: usize,
    /// Rows per trunk-basis chunk dispatched through the worker pool
    /// (rounded up to the kernel's 8-row panel width). Must be positive;
    /// chunk boundaries depend only on this value and the query count,
    /// never on the thread count, so results are bit-identical at any
    /// pool width.
    pub trunk_chunk: usize,
    /// Numeric precision of the trunk hot path.
    pub precision: Precision,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            cache_capacity: 64,
            trunk_chunk: DEFAULT_TRUNK_CHUNK,
            precision: Precision::F64,
        }
    }
}

impl ServeOptions {
    /// Checks the options for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidOptions`] when `trunk_chunk` is zero.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.trunk_chunk == 0 {
            return Err(ServeError::InvalidOptions {
                what: "trunk_chunk must be positive (rows per dispatched chunk)".into(),
            });
        }
        Ok(())
    }
}

/// A trunk-basis cache that front-end shards share.
#[derive(Debug, Clone)]
pub(crate) struct SharedBases {
    cache: Arc<Mutex<BasisCache>>,
}

impl SharedBases {
    fn new() -> Self {
        SharedBases { cache: Arc::new(Mutex::new(BasisCache::new(BASIS_CACHE_BYTES))) }
    }

    /// Held for one lookup or insert below, never across a basis build or
    /// a telemetry call.
    fn lock(&self) -> MutexGuard<'_, BasisCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, key: &CacheKey) -> Option<Arc<TrunkBasis>> {
        self.lock().get(key)
    }

    /// Inserts a complete basis; returns the number of entries evicted.
    fn insert(&self, key: CacheKey, basis: Arc<TrunkBasis>) -> u64 {
        self.lock().insert(key, basis)
    }

    pub(crate) fn counters(&self) -> CacheStats {
        self.lock().stats()
    }

    pub(crate) fn resident(&self) -> usize {
        self.lock().len()
    }
}

/// The parts an engine shares with the other shards of a front-end: the
/// model, its lowered trunk (for [`Precision::F32`]) and the trunk-basis
/// cache. A standalone engine owns its own.
#[derive(Debug, Clone)]
pub(crate) struct SharedParts {
    model: Arc<DeepOHeat>,
    lowered: Option<Arc<Trunk<f32>>>,
    pub(crate) bases: SharedBases,
}

impl SharedParts {
    pub(crate) fn new(model: Arc<DeepOHeat>, precision: Precision) -> Self {
        let lowered = match precision {
            Precision::F64 => None,
            Precision::F32 => Some(Arc::new(model.lower_trunk())),
        };
        SharedParts { model, lowered, bases: SharedBases::new() }
    }
}

/// A basis-cache lookup: the cached basis, or the key to build it under.
enum BasisLookup {
    Hit(Arc<TrunkBasis>),
    Miss(CacheKey),
}

/// A serving front-end over a trained [`DeepOHeat`] model.
///
/// The engine splits evaluation along the MIONet factorisation
/// `T(u)(y) = offset + scale · Σ_q B_q(u) Φ_q(y)` and caches both halves.
/// [`encode_branches`] runs every branch net exactly once per distinct
/// input-function set and memoises the [`BranchEmbedding`] in an LRU
/// cache keyed by the content of the sensor values. [`eval_trunk_batch`]
/// looks the query mesh up in a byte-budgeted LRU of [`TrunkBasis`]
/// values keyed by coordinate content — building `Φ` in fixed chunks
/// through the shared worker pool on a miss — and combines it with the
/// embedding in one fused product. Repeated designs pay the branch cost
/// once, repeated meshes pay the trunk cost once, and answers are
/// bit-identical to [`DeepOHeat::predict`].
///
/// Inputs are checked for non-finite values on the cache-miss path only:
/// an invalid input is never inserted, so it can never hit, and hits pay
/// nothing for the check.
///
/// [`encode_branches`]: InferenceEngine::encode_branches
/// [`eval_trunk_batch`]: InferenceEngine::eval_trunk_batch
#[derive(Debug)]
pub struct InferenceEngine {
    parts: SharedParts,
    /// Whether the basis cache is this engine's alone; front-end shards
    /// share one, whose hit-rate gauge the front-end emits.
    owns_bases: bool,
    options: ServeOptions,
    cache: EmbeddingCache,
    shut_down: bool,
}

impl InferenceEngine {
    /// Wraps a model (owned, or shared through an [`Arc`]) with validated
    /// serving options.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidOptions`] when the options fail
    /// [`ServeOptions::validate`].
    pub fn new(
        model: impl Into<Arc<DeepOHeat>>,
        options: ServeOptions,
    ) -> Result<Self, ServeError> {
        options.validate()?;
        let parts = SharedParts::new(model.into(), options.precision);
        Ok(InferenceEngine::with_parts(parts, true, options))
    }

    /// An engine over shared parts; `options` must already be validated
    /// and match the precision `parts` were built for.
    pub(crate) fn with_parts(parts: SharedParts, owns_bases: bool, options: ServeOptions) -> Self {
        let cache = EmbeddingCache::new(options.cache_capacity);
        InferenceEngine { parts, owns_bases, options, cache, shut_down: false }
    }

    /// The wrapped model.
    pub fn model(&self) -> &DeepOHeat {
        &self.parts.model
    }

    /// The options the engine was built with.
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// Snapshot of the embedding cache's hit/miss/eviction counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of embeddings currently resident in the cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Snapshot of the trunk-basis cache's counters (shared with the
    /// other shards of a front-end).
    pub fn basis_stats(&self) -> CacheStats {
        self.parts.bases.counters()
    }

    /// Number of trunk bases currently resident.
    pub fn basis_len(&self) -> usize {
        self.parts.bases.resident()
    }

    /// Returns the branch embedding for one input-function set, encoding
    /// it if absent and serving it from the cache otherwise. Emits the
    /// `serve.cache.hits` / `serve.cache.misses` / `serve.cache.evictions`
    /// telemetry counters.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidInput`] for a non-finite sensor value
    /// and [`ServeError::Model`] when the inputs do not match the model's
    /// branch shapes; neither is cached.
    pub fn encode_branches(
        &mut self,
        branch_inputs: &[&Matrix],
    ) -> Result<Arc<BranchEmbedding>, ServeError> {
        let key = CacheKey::of(branch_inputs);
        if let Some(cached) = self.cache.get(&key) {
            telemetry::counter("serve.cache.hits", 1);
            return Ok(cached);
        }
        telemetry::counter("serve.cache.misses", 1);
        for input in branch_inputs {
            check_finite("sensor", input)?;
        }
        let _span = telemetry::span("serve.encode");
        let embedding = Arc::new(self.parts.model.encode_branches(branch_inputs)?);
        let evicted = self.cache.insert(key, Arc::clone(&embedding));
        if evicted > 0 {
            telemetry::counter("serve.cache.evictions", evicted);
        }
        Ok(embedding)
    }

    /// Evaluates a batch of query coordinates (rows of `coords`) against a
    /// previously encoded embedding: the mesh's trunk basis, from the
    /// cache or built in `trunk_chunk`-row chunks through the worker pool,
    /// then one fused combine. Returns the `n_configs × n_points`
    /// temperature matrix. Emits the `serve.queries` counter.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidInput`] for a non-finite coordinate,
    /// and [`ServeError::Model`] when the embedding's latent width or the
    /// coordinate dimension does not match the model.
    pub fn eval_trunk_batch(
        &self,
        embedding: &BranchEmbedding,
        coords: &Matrix,
    ) -> Result<Matrix, ServeError> {
        let lookup = self.lookup_basis(coords)?;
        self.finish(embedding, coords, lookup, &|| false)
    }

    /// One-call convenience: cache-aware branch encoding followed by a
    /// cache-aware trunk evaluation. The whole call is wrapped in a
    /// `serve.request` span — one trace per request — feeding the
    /// `serve.request.seconds` latency histogram with child spans for the
    /// encode (`serve.encode`, embedding-cache misses only) and trunk
    /// (`serve.trunk`, with `serve.basis` on basis-cache misses) phases.
    /// Both inputs are validated before either cache is filled, so a
    /// rejected request leaves both caches as they were.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`InferenceEngine::encode_branches`] and
    /// [`InferenceEngine::eval_trunk_batch`].
    pub fn predict(
        &mut self,
        branch_inputs: &[&Matrix],
        coords: &Matrix,
    ) -> Result<Matrix, ServeError> {
        let _span = telemetry::span("serve.request");
        self.serve(branch_inputs, coords, &|| false, || Ok::<(), ServeError>(()))
    }

    /// The request path [`predict`](Self::predict) and the front-end's
    /// shards share. The basis lookup (and, on a miss, the coordinate
    /// check) runs before the branch encode, so invalid coordinates never
    /// leave an embedding behind. `before_trunk` runs between the encode
    /// and the trunk phase. `expired` is the deadline: checked between
    /// basis chunks on a miss, once before the combine on a hit.
    pub(crate) fn serve<E: From<ServeError>>(
        &mut self,
        branch_inputs: &[&Matrix],
        coords: &Matrix,
        expired: &(dyn Fn() -> bool + Sync),
        before_trunk: impl FnOnce() -> Result<(), E>,
    ) -> Result<Matrix, E> {
        let lookup = self.lookup_basis(coords)?;
        let embedding = self.encode_branches(branch_inputs)?;
        before_trunk()?;
        Ok(self.finish(&embedding, coords, lookup, expired)?)
    }

    /// Probes the basis cache for `coords`, checking the coordinates on a
    /// miss. Emits `serve.basis.hits` / `serve.basis.misses`.
    fn lookup_basis(&self, coords: &Matrix) -> Result<BasisLookup, ServeError> {
        let key = CacheKey::of(&[coords]);
        match self.parts.bases.get(&key) {
            Some(basis) => {
                telemetry::counter("serve.basis.hits", 1);
                Ok(BasisLookup::Hit(basis))
            }
            None => {
                telemetry::counter("serve.basis.misses", 1);
                check_finite("coordinate", coords)?;
                Ok(BasisLookup::Miss(key))
            }
        }
    }

    /// The trunk phase: the looked-up basis (built on a miss, with the
    /// deadline checked before each chunk, and cached only when complete)
    /// combined with `embedding`.
    fn finish(
        &self,
        embedding: &BranchEmbedding,
        coords: &Matrix,
        lookup: BasisLookup,
        expired: &(dyn Fn() -> bool + Sync),
    ) -> Result<Matrix, ServeError> {
        let _span = telemetry::span("serve.trunk");
        let basis = match lookup {
            BasisLookup::Hit(basis) => {
                if expired() {
                    return Err(ServeError::DeadlineExceeded { stage: "trunk" });
                }
                basis
            }
            BasisLookup::Miss(key) => self.build_basis(key, coords, expired)?,
        };
        let out = basis.combine(embedding)?;
        telemetry::counter("serve.queries", coords.rows() as u64);
        Ok(out)
    }

    fn build_basis(
        &self,
        key: CacheKey,
        coords: &Matrix,
        expired: &(dyn Fn() -> bool + Sync),
    ) -> Result<Arc<TrunkBasis>, ServeError> {
        let _span = telemetry::span("serve.basis");
        let chunk = self.options.trunk_chunk;
        let built = match &self.parts.lowered {
            Some(lowered) => lowered.trunk_basis(coords, chunk, expired),
            None => self.parts.model.trunk_basis(coords, chunk, expired),
        };
        let basis = match built {
            Ok(basis) => Arc::new(basis),
            Err(DeepOHeatError::Stopped) => {
                return Err(ServeError::DeadlineExceeded { stage: "trunk" });
            }
            Err(e) => return Err(e.into()),
        };
        let evicted = self.parts.bases.insert(key, Arc::clone(&basis));
        if evicted > 0 {
            telemetry::counter("serve.basis.evictions", evicted);
        }
        Ok(basis)
    }

    /// Finishes the engine's telemetry story: emits the final
    /// `serve.cache.hit_rate` gauge (and `serve.basis.hit_rate` when the
    /// basis cache is this engine's alone) and flushes every sink so short
    /// runs don't lose buffered tail events. Called automatically on drop;
    /// call it explicitly to control *when* the flush cost is paid (e.g.
    /// outside a timed region). Idempotent.
    pub fn shutdown(&mut self) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        if telemetry::is_enabled() {
            telemetry::gauge("serve.cache.hit_rate", self.cache.stats().hit_rate());
            if self.owns_bases {
                let rate = self.basis_stats().hit_rate();
                telemetry::gauge("serve.basis.hit_rate", rate);
            }
            telemetry::flush();
        }
    }
}

impl Drop for InferenceEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Rejects NaN and ±∞ with a typed error naming the first offender.
fn check_finite(what: &str, values: &Matrix) -> Result<(), ServeError> {
    match values.iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(i) => Err(ServeError::InvalidInput {
            what: format!("{what} value {} at flat index {i} is not finite", values.as_slice()[i]),
        }),
    }
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

    #[test]
    fn zero_trunk_chunk_is_rejected() {
        let opts = ServeOptions { trunk_chunk: 0, ..ServeOptions::default() };
        assert!(opts.validate().is_err());
        assert!(InferenceEngine::new(model(), opts).is_err());
    }

    #[test]
    fn predict_matches_model_predict_bitwise() {
        let m = model();
        let input = Matrix::from_fn(1, 4, |_, j| 0.1 * (j as f64 + 1.0));
        let coords = Matrix::from_fn(17, 3, |i, j| (i as f64).mul_add(0.05, j as f64 * 0.3));
        let expected = m.predict(&[&input], &coords).expect("invariant: shapes match");

        let mut engine = InferenceEngine::new(m, ServeOptions::default()).expect("valid options");
        let cold = engine.predict(&[&input], &coords).expect("cold predict");
        let warm = engine.predict(&[&input], &coords).expect("warm predict");
        assert_eq!(cold.as_slice(), expected.as_slice());
        assert_eq!(warm.as_slice(), expected.as_slice());

        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn repeated_designs_encode_once() {
        let mut engine = InferenceEngine::new(
            model(),
            ServeOptions { cache_capacity: 2, trunk_chunk: 8, ..ServeOptions::default() },
        )
        .expect("valid options");
        let a = Matrix::filled(1, 4, 0.5);
        let b = Matrix::filled(1, 4, 0.25);
        let coords = Matrix::from_fn(5, 3, |i, j| (i + j) as f64 * 0.1);
        for _ in 0..3 {
            engine.predict(&[&a], &coords).expect("predict a");
            engine.predict(&[&b], &coords).expect("predict b");
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 2, "each design encoded exactly once");
        assert_eq!(stats.hits, 4);
        assert_eq!(engine.cache_len(), 2);
    }

    #[test]
    fn shutdown_is_idempotent_and_safe_without_telemetry() {
        let mut engine =
            InferenceEngine::new(model(), ServeOptions::default()).expect("valid options");
        let input = Matrix::filled(1, 4, 0.5);
        let coords = Matrix::filled(3, 3, 0.1);
        engine.predict(&[&input], &coords).expect("predict");
        // No recorder installed: shutdown (and the later drop) must be
        // inert no-ops rather than panicking or emitting.
        engine.shutdown();
        engine.shutdown();
    }

    #[test]
    fn f32_precision_is_deterministic_and_tracks_f64() {
        let m = model();
        let input = Matrix::from_fn(1, 4, |_, j| 0.1 * (j as f64 + 1.0));
        let coords = Matrix::from_fn(33, 3, |i, j| 0.03 * i as f64 + 0.2 * j as f64);
        let mut full = InferenceEngine::new(m.clone(), ServeOptions::default()).unwrap();
        let opts32 = ServeOptions { precision: Precision::F32, ..ServeOptions::default() };
        let mut narrow = InferenceEngine::new(m, opts32).unwrap();

        let expected = full.predict(&[&input], &coords).unwrap();
        let got = narrow.predict(&[&input], &coords).unwrap();
        assert_eq!(expected.shape(), got.shape());
        let scale = expected.iter().fold(1.0f64, |s, v| s.max(v.abs()));
        for (a, b) in expected.iter().zip(got.iter()) {
            assert!((a - b).abs() <= 1e-4 * scale, "{a} vs {b}");
        }

        // Within the f32 precision: bit-identical across repeats and
        // pool widths (the same contract the f64 path guarantees), whether
        // the basis is built or cached.
        let emb = narrow.encode_branches(&[&input]).unwrap();
        let base = narrow.eval_trunk_batch(&emb, &coords).unwrap();
        for threads in [1, 2, 4] {
            let pool = deepoheat_parallel::ThreadPool::new(threads);
            let opts32 = ServeOptions { precision: Precision::F32, ..ServeOptions::default() };
            let cold = InferenceEngine::new(model(), opts32).unwrap();
            let (built, cached) = pool.install(|| {
                (cold.eval_trunk_batch(&emb, &coords), narrow.eval_trunk_batch(&emb, &coords))
            });
            assert_eq!(base, built.unwrap(), "threads = {threads}");
            assert_eq!(base, cached.unwrap(), "threads = {threads}");
        }
    }

    #[test]
    fn non_finite_inputs_are_rejected_before_either_cache() {
        let mut engine =
            InferenceEngine::new(model(), ServeOptions::default()).expect("valid options");
        let input = Matrix::from_fn(1, 4, |_, j| 0.1 * (j as f64 + 1.0));
        let coords = Matrix::from_fn(9, 3, |i, j| 0.1 * (i + j) as f64);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut sensors = input.clone();
            sensors[(0, 2)] = bad;
            let mut points = coords.clone();
            points[(4, 1)] = bad;
            for (u, y) in [(&sensors, &coords), (&input, &points), (&sensors, &points)] {
                let err = engine.predict(&[u], y).expect_err("non-finite input");
                assert!(matches!(err, ServeError::InvalidInput { .. }), "{err}");
                assert_eq!((engine.cache_len(), engine.basis_len()), (0, 0), "{err}");
            }
            let err = engine.encode_branches(&[&sensors]).expect_err("non-finite sensor");
            assert!(matches!(err, ServeError::InvalidInput { .. }));
            let emb = model().encode_branches(&[&input]).expect("valid sensors");
            let err = engine.eval_trunk_batch(&emb, &points).expect_err("non-finite point");
            assert!(matches!(err, ServeError::InvalidInput { .. }));
            assert_eq!((engine.cache_len(), engine.basis_len()), (0, 0));
        }
        // The same design and mesh, now valid, are first-time misses.
        engine.predict(&[&input], &coords).expect("valid request");
        assert_eq!((engine.cache_stats().hits, engine.basis_stats().hits), (0, 0));
        engine.predict(&[&input], &coords).expect("valid request");
        assert_eq!((engine.cache_stats().hits, engine.basis_stats().hits), (1, 1));
    }

    #[test]
    fn deadline_stops_a_basis_build_between_chunks_and_caches_nothing() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let opts = ServeOptions { trunk_chunk: 8, ..ServeOptions::default() };
        let mut engine = InferenceEngine::new(model(), opts).expect("valid options");
        let input = Matrix::filled(1, 4, 0.5);
        let coords = Matrix::from_fn(40, 3, |i, j| 0.02 * (i + j) as f64);
        // The deadline passes after the first two of five chunk checks.
        let checks = AtomicUsize::new(0);
        let expired = || checks.fetch_add(1, Ordering::SeqCst) >= 2;
        let ok = || Ok::<(), ServeError>(());
        let err = engine.serve(&[&input], &coords, &expired, ok).expect_err("expired mid-build");
        assert!(matches!(err, ServeError::DeadlineExceeded { stage: "trunk" }), "{err}");
        assert_eq!(checks.load(Ordering::SeqCst), 5, "checked once per chunk");
        assert_eq!(engine.basis_len(), 0, "a stopped build is never cached");

        let expected = engine.model().predict(&[&input], &coords).expect("reference");
        let never = || false;
        let served = engine.serve(&[&input], &coords, &never, ok).expect("no deadline");
        assert_eq!(served, expected);
        assert_eq!(engine.basis_len(), 1);
        // On a hit the deadline is checked once, before the combine.
        let err = engine.serve(&[&input], &coords, &|| true, ok).expect_err("expired hit");
        assert!(matches!(err, ServeError::DeadlineExceeded { stage: "trunk" }), "{err}");
    }

    #[test]
    fn bad_branch_shape_surfaces_model_error() {
        let mut engine =
            InferenceEngine::new(model(), ServeOptions::default()).expect("valid options");
        let wrong = Matrix::filled(1, 3, 1.0);
        let coords = Matrix::filled(2, 3, 0.5);
        let err = engine.predict(&[&wrong], &coords).expect_err("shape mismatch");
        assert!(matches!(err, ServeError::Model(_)));
        // A failed encode must not pollute the cache.
        assert_eq!(engine.cache_len(), 0);
    }
}
