//! Batched inference serving for DeepOHeat surrogates.
//!
//! Training produces a model; design-space exploration then evaluates it
//! thousands of times — often for the *same* power map or boundary
//! condition at many query points, or for small edits of a design. This
//! crate exploits the DeepONet factorisation `T(u)(y) = Σ_q B_q(u) Φ_q(y)`:
//! the branch nets depend only on the input functions `u`, the trunk only
//! on the query coordinate `y`, so serving splits into
//!
//! 1. [`InferenceEngine::encode_branches`] — run the branch nets once per
//!    distinct design and memoise the resulting [`BranchEmbedding`]
//!    ([`deepoheat::BranchEmbedding`], re-exported here) in a
//!    deterministic, capacity-bounded LRU cache keyed by the **content**
//!    of the sensor values ([`CacheKey`]);
//! 2. [`InferenceEngine::eval_trunk_batch`] — look the query mesh up in a
//!    byte-budgeted LRU of [`TrunkBasis`] values keyed by coordinate
//!    content (building the trunk features in fixed-size chunks through
//!    the shared worker pool on a miss, packed for the combine) and
//!    combine it with the embedding in one fused product.
//!
//! Results are bit-identical to a cold per-query evaluation at any
//! `DEEPOHEAT_NUM_THREADS` setting: chunk boundaries derive only from the
//! batch size and [`ServeOptions::trunk_chunk`], and every row is computed
//! independently of the others. Both caches share one [`LruCache`] type
//! and are likewise deterministic — logical-tick LRU, no wall clock — so a
//! replayed request sequence hits, misses, and evicts identically every
//! run. Non-finite sensor values and coordinates are rejected with
//! [`ServeError::InvalidInput`] before either cache is filled.
//!
//! Telemetry: the engine emits `serve.cache.*` and `serve.basis.*`
//! hit/miss/eviction counters and `serve.queries` through
//! [`deepoheat_telemetry`] when a recorder is installed, and is free of
//! overhead otherwise.
//!
//! # Concurrent front-end
//!
//! [`ServeFrontend`] layers an overload-safe concurrent request path over
//! N sharded engines sharing one model and one trunk-basis cache:
//! content-hash routing to per-shard embedding caches, bounded
//! admission queues with typed [`ServeError::Overloaded`] shedding,
//! per-request deadlines propagated into trunk-basis chunking
//! ([`ServeError::DeadlineExceeded`]), retry with bounded backoff for
//! transient shard errors, and per-shard circuit breakers that reroute
//! around an unhealthy shard with a [`Served::degraded`] flag. The whole
//! pipeline is chaos-testable through a deterministic, replayable
//! [`ServeFaultPlan`]; see the [`frontend`] module docs for the contract.
//!
//! ```
//! use deepoheat::{DeepOHeat, DeepOHeatConfig};
//! use deepoheat_linalg::Matrix;
//! use deepoheat_serve::{InferenceEngine, ServeOptions};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let cfg = DeepOHeatConfig::single_branch(4, &[8], &[8], 6);
//! let model = DeepOHeat::new(&cfg, &mut StdRng::seed_from_u64(0)).unwrap();
//! let mut engine = InferenceEngine::new(model, ServeOptions::default()).unwrap();
//!
//! let power_map = Matrix::filled(1, 4, 0.5);
//! let queries = Matrix::from_fn(64, 3, |i, j| (i as f64 * 0.01) + j as f64 * 0.3);
//! let warm_embedding = engine.encode_branches(&[&power_map]).unwrap();
//! let field = engine.eval_trunk_batch(&warm_embedding, &queries).unwrap();
//! assert_eq!(field.rows(), 1);
//! assert_eq!(field.cols(), 64);
//! assert_eq!(engine.cache_stats().misses, 1);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod clock;
mod engine;
mod error;
mod fault;
pub mod frontend;
mod queue;

pub use cache::{BasisCache, CacheKey, CacheStats, CacheWeight, EmbeddingCache, LruCache};
pub use clock::{Clock, ManualClock, WallClock};
pub use engine::{InferenceEngine, Precision, ServeOptions, BASIS_CACHE_BYTES};
pub use error::ServeError;
pub use fault::{ChaosStage, ServeFaultPlan};
pub use frontend::{FrontendOptions, FrontendStats, ServeFrontend, Served, Ticket};

pub use deepoheat::{BranchEmbedding, TrunkBasis};
