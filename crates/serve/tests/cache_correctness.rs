//! Cache-correctness contract of the serving engine:
//!
//! * a warm (cached) evaluation is bit-identical to the cold evaluation
//!   that populated the cache, and to the model's unpacked path (the
//!   Fourier layer and trunk over the whole mesh, then an unpacked fused
//!   combine);
//! * the LRU eviction sequence is a pure function of the request
//!   sequence — replaying the requests reproduces hits, misses, and
//!   evictions exactly;
//! * batched serving is bit-identical across worker-pool widths and
//!   trunk-chunk sizes;
//! * trunk-basis hits and misses equal that unpacked path bit for bit in
//!   either precision, basis keys never alias on a forged hash, byte-budget
//!   eviction replays exactly, and an over-budget basis is served without
//!   being cached;
//! * front-end shards share one model and one basis cache.

#![deny(unsafe_code)]

use std::sync::Arc;

use deepoheat::{DeepOHeat, DeepOHeatConfig};
use deepoheat_linalg::{Element, Matrix};
use deepoheat_parallel::ThreadPool;
use deepoheat_serve::{
    BasisCache, CacheKey, EmbeddingCache, FrontendOptions, InferenceEngine, Precision,
    ServeFrontend, ServeOptions, BASIS_CACHE_BYTES,
};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

fn model() -> DeepOHeat {
    let cfg = DeepOHeatConfig::single_branch(9, &[16, 16], &[16, 16], 12)
        .with_fourier(8, 1.0)
        .with_output_transform(300.0, 50.0);
    let mut rng = StdRng::seed_from_u64(11);
    DeepOHeat::new(&cfg, &mut rng).expect("config is valid")
}

fn design(rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(1, 9, |_, _| rng.gen_range(0.0..1.0))
}

fn queries(n: usize) -> Matrix {
    Matrix::from_fn(n, 3, |i, j| {
        let t = i as f64 / n as f64;
        (t + j as f64 * 0.37).sin() * 0.5 + 0.5
    })
}

#[test]
fn warm_hit_is_bit_identical_to_cold_eval() {
    let m = model();
    let input = design(&mut StdRng::seed_from_u64(1));
    let coords = queries(257);
    let reference = unpacked_reference::<f64>(&m, &input, &coords);

    let mut engine = InferenceEngine::new(
        m,
        ServeOptions { cache_capacity: 4, trunk_chunk: 32, ..ServeOptions::default() },
    )
    .expect("valid options");
    let cold = engine.predict(&[&input], &coords).expect("cold eval");
    assert_eq!(engine.cache_stats().misses, 1);

    let warm = engine.predict(&[&input], &coords).expect("warm eval");
    assert_eq!(engine.cache_stats().hits, 1);

    assert_eq!(cold.as_slice(), reference.as_slice(), "cold batched == unbatched, bitwise");
    assert_eq!(warm.as_slice(), cold.as_slice(), "warm cache hit == cold eval, bitwise");
}

#[test]
fn eviction_sequence_is_a_pure_function_of_requests() {
    // Drive two identical engines through the same 40-request sequence of
    // 7 designs against a 3-entry cache and demand identical counters,
    // identical residency, and identical recency order at every step.
    let mut rng = StdRng::seed_from_u64(2);
    let designs: Vec<Matrix> = (0..7).map(|_| design(&mut rng)).collect();
    let sequence: Vec<usize> = (0..40).map(|i| (i * 5 + i / 3) % designs.len()).collect();
    let coords = queries(16);

    let opts = ServeOptions { cache_capacity: 3, trunk_chunk: 8, ..ServeOptions::default() };
    let mut a = InferenceEngine::new(model(), opts.clone()).expect("valid options");
    let mut b = InferenceEngine::new(model(), opts).expect("valid options");

    for &idx in &sequence {
        let input = &designs[idx];
        let out_a = a.predict(&[input], &coords).expect("engine a");
        let out_b = b.predict(&[input], &coords).expect("engine b");
        assert_eq!(out_a.as_slice(), out_b.as_slice());
        assert_eq!(a.cache_stats(), b.cache_stats(), "counters diverged");
        assert_eq!(a.cache_len(), b.cache_len());
    }
    let stats = a.cache_stats();
    assert!(stats.evictions > 0, "sequence must exercise eviction");
    assert_eq!(stats.hits + stats.misses, sequence.len() as u64);
}

#[test]
fn raw_cache_replay_reproduces_recency_order() {
    // Same property at the EmbeddingCache level, checking the exact
    // LRU order (not just counters) after a replay.
    let m = model();
    let keys: Vec<(CacheKey, Matrix)> = (0..5)
        .map(|i| {
            let input = Matrix::filled(1, 9, 0.1 * (i as f64 + 1.0));
            (CacheKey::of(&[&input]), input)
        })
        .collect();

    let run = || {
        let mut cache = EmbeddingCache::new(2);
        for (key, input) in &keys {
            if cache.get(key).is_none() {
                let emb = m.encode_branches(&[input]).expect("encode");
                cache.insert(key.clone(), std::sync::Arc::new(emb));
            }
        }
        // Touch the oldest resident to rotate the order.
        let order: Vec<CacheKey> = cache.keys_by_recency().into_iter().cloned().collect();
        if let Some(first) = order.first() {
            let _ = cache.get(first);
        }
        (cache.stats(), cache.keys_by_recency().iter().map(|k| k.hash()).collect::<Vec<u64>>())
    };

    let (stats1, order1) = run();
    let (stats2, order2) = run();
    assert_eq!(stats1, stats2);
    assert_eq!(order1, order2);
    assert_eq!(stats1.evictions, 3, "5 inserts into capacity 2");
}

#[test]
fn serving_is_bit_identical_across_pool_widths_and_chunk_sizes() {
    let input = design(&mut StdRng::seed_from_u64(3));
    let coords = queries(301);
    let reference = unpacked_reference::<f64>(&model(), &input, &coords);

    for threads in [1usize, 2, 4, 8] {
        for chunk in [1usize, 13, 64, 1024] {
            let pool = ThreadPool::new(threads);
            let out = pool.install(|| {
                let mut engine = InferenceEngine::new(
                    model(),
                    ServeOptions {
                        cache_capacity: 2,
                        trunk_chunk: chunk,
                        ..ServeOptions::default()
                    },
                )
                .expect("valid options");
                // Twice: cover both the cold and the cached path under
                // this pool width.
                let cold = engine.predict(&[&input], &coords).expect("cold");
                let warm = engine.predict(&[&input], &coords).expect("warm");
                assert_eq!(cold.as_slice(), warm.as_slice());
                cold
            });
            assert_eq!(
                out.as_slice(),
                reference.as_slice(),
                "threads={threads} chunk={chunk} must be bit-identical to the serial reference"
            );
        }
    }
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.iter().map(|v| v.to_bits()).collect()
}

/// The answer in precision `T` computed without a trunk basis: the
/// Fourier layer and trunk (narrowed to `T`) over the whole mesh, then the
/// unpacked fused combine against the narrowed embedding, widened back.
fn unpacked_reference<T: Element>(m: &DeepOHeat, input: &Matrix, coords: &Matrix) -> Matrix {
    let embedding = m.encode_branches(&[input]).expect("encode");
    let coords = coords.cast::<T>();
    let h = match m.fourier() {
        Some(ff) => ff.cast::<T>().forward_inference(&coords).expect("fourier"),
        None => coords,
    };
    let phi = m.trunk().cast::<T>().forward_inference(&h).expect("trunk");
    let (offset, scale) = m.output_transform();
    let (offset, scale) = (T::from_f64(offset), T::from_f64(scale));
    let b = embedding.features().cast::<T>();
    b.matmul_transposed_affine(&phi, offset, scale).expect("combine").cast()
}

#[test]
fn basis_hits_and_misses_equal_predict_across_pool_widths_and_chunks() {
    let m = model();
    let mut rng = StdRng::seed_from_u64(5);
    let (a, b) = (design(&mut rng), design(&mut rng));
    let mesh = queries(301);
    let expect_a = unpacked_reference::<f64>(&m, &a, &mesh);
    let expect_b = unpacked_reference::<f64>(&m, &b, &mesh);

    for threads in [1usize, 2, 4] {
        for chunk in [1usize, 7, 64, 256, 1024] {
            let pool = ThreadPool::new(threads);
            let opts = ServeOptions { trunk_chunk: chunk, ..ServeOptions::default() };
            let mut engine = InferenceEngine::new(m.clone(), opts).expect("valid options");
            let (miss, hit, other) = pool.install(|| {
                let miss = engine.predict(&[&a], &mesh).expect("basis miss");
                let hit = engine.predict(&[&a], &mesh).expect("basis hit");
                let other = engine.predict(&[&b], &mesh).expect("basis hit, new design");
                (miss, hit, other)
            });
            let at = format!("threads={threads} chunk={chunk}");
            assert_eq!(bits(&miss), bits(&expect_a), "miss, {at}");
            assert_eq!(bits(&hit), bits(&expect_a), "hit, {at}");
            assert_eq!(bits(&other), bits(&expect_b), "hit for another design, {at}");
            let basis = engine.basis_stats();
            assert_eq!((basis.misses, basis.hits), (1, 2), "{at}");
            assert_eq!(engine.basis_len(), 1);
        }
    }
}

#[test]
fn f32_basis_equals_the_unpacked_f32_answers() {
    let m = model();
    let input = design(&mut StdRng::seed_from_u64(6));
    let mesh = queries(203);
    let reference = unpacked_reference::<f32>(&m, &input, &mesh);
    for threads in [1usize, 2, 4] {
        for chunk in [1usize, 13, 256] {
            let pool = ThreadPool::new(threads);
            let opts = ServeOptions {
                trunk_chunk: chunk,
                precision: Precision::F32,
                ..ServeOptions::default()
            };
            let mut engine = InferenceEngine::new(m.clone(), opts).expect("valid options");
            let (miss, hit) = pool.install(|| {
                let miss = engine.predict(&[&input], &mesh).expect("f32 miss");
                (miss, engine.predict(&[&input], &mesh).expect("f32 hit"))
            });
            assert_eq!(bits(&miss), bits(&reference), "miss, threads={threads} chunk={chunk}");
            assert_eq!(bits(&hit), bits(&reference), "hit, threads={threads} chunk={chunk}");
        }
    }
}

#[test]
fn forged_hash_basis_keys_do_not_alias() {
    let m = model();
    let (mesh_a, mesh_b) = (queries(40), queries(41));
    let input = design(&mut StdRng::seed_from_u64(7));
    let embedding = m.encode_branches(&[&input]).expect("encode");
    let basis = |mesh: &Matrix| Arc::new(m.trunk_basis(mesh, 16, &|| false).expect("basis"));

    let real = CacheKey::of(&[&mesh_a]);
    let forged = CacheKey::of(&[&mesh_b]).with_hash(real.hash());
    assert_eq!(real.hash(), forged.hash());
    let mut cache = BasisCache::new(BASIS_CACHE_BYTES);
    cache.insert(real.clone(), basis(&mesh_a));
    assert!(cache.get(&forged).is_none(), "a colliding mesh must not alias");
    cache.insert(forged.clone(), basis(&mesh_b));
    assert_eq!(cache.len(), 2, "colliding keys coexist as separate entries");
    for (key, mesh) in [(&real, &mesh_a), (&forged, &mesh_b)] {
        let served = cache.get(key).expect("resident").combine(&embedding).expect("combine");
        assert_eq!(bits(&served), bits(&unpacked_reference::<f64>(&m, &input, mesh)));
    }
}

#[test]
fn byte_budget_eviction_replays_exactly() {
    let m = model();
    let meshes: Vec<Matrix> = (0..6).map(|i| queries(24 + 8 * i)).collect();
    let entries: Vec<(CacheKey, Arc<deepoheat::TrunkBasis>)> = meshes
        .iter()
        .map(|mesh| {
            let basis = m.trunk_basis(mesh, 16, &|| false).expect("basis");
            (CacheKey::of(&[mesh]), Arc::new(basis))
        })
        .collect();
    let weight = |i: usize| entries[i].1.bytes() + entries[i].0.bytes();
    // Room for roughly the three smallest meshes, so the sequence evicts.
    let budget = weight(0) + weight(1) + weight(2);
    let sequence: Vec<usize> = (0..40).map(|i| (i * 5 + i / 3) % meshes.len()).collect();

    let run = || {
        let mut cache = BasisCache::new(budget);
        let mut trace = Vec::new();
        for &i in &sequence {
            let (key, basis) = &entries[i];
            if cache.get(key).is_none() {
                cache.insert(key.clone(), Arc::clone(basis));
            }
            let resident: usize = cache
                .keys_by_recency()
                .into_iter()
                .filter_map(|key| entries.iter().position(|(k, _)| k == key))
                .map(weight)
                .sum();
            assert!(resident <= budget, "the budget bounds the resident bytes");
            let order: Vec<u64> = cache.keys_by_recency().iter().map(|k| k.hash()).collect();
            trace.push((cache.stats(), order));
        }
        trace
    };
    let (first, second) = (run(), run());
    assert_eq!(first, second, "eviction order is a pure function of the requests");
    let last = first.last().expect("non-empty sequence").0;
    assert!(last.evictions > 0, "the sequence must exercise eviction");
    assert_eq!(last.hits + last.misses, sequence.len() as u64);

    let mut tight = BasisCache::new(weight(0));
    tight.insert(entries[0].0.clone(), Arc::clone(&entries[0].1));
    tight.insert(entries[5].0.clone(), Arc::clone(&entries[5].1));
    assert_eq!(tight.len(), 1, "an over-budget basis is not cached");
    assert_eq!(tight.stats().evictions, 0, "and evicts nothing");
}

#[test]
fn over_budget_basis_is_served_but_not_cached() {
    // 10 000 points × 128 latent features in f64 is ~10 MB of packed
    // basis, past the 8 MiB budget.
    let cfg = DeepOHeatConfig::single_branch(9, &[16], &[16, 16], 128)
        .with_fourier(8, 1.0)
        .with_output_transform(300.0, 50.0);
    let m = DeepOHeat::new(&cfg, &mut StdRng::seed_from_u64(12)).expect("config is valid");
    let input = design(&mut StdRng::seed_from_u64(8));
    let mesh = queries(10_000);
    let expected = unpacked_reference::<f64>(&m, &input, &mesh);

    let mut engine = InferenceEngine::new(m, ServeOptions::default()).expect("valid options");
    for _ in 0..2 {
        let served = engine.predict(&[&input], &mesh).expect("served");
        assert_eq!(bits(&served), bits(&expected));
        assert_eq!(engine.basis_len(), 0, "a basis past the budget is never cached");
    }
    let stats = engine.basis_stats();
    assert_eq!((stats.misses, stats.hits, stats.evictions), (2, 0, 0));
    const { assert!(BASIS_CACHE_BYTES < 128 * 8 * 10_000) };
}

#[test]
fn frontend_shards_share_one_model_and_one_basis() {
    let m = Arc::new(model());
    let mesh = queries(257);
    let opts = FrontendOptions { shards: 3, retry_backoff_micros: 0, ..FrontendOptions::default() };
    let frontend = ServeFrontend::new(Arc::clone(&m), opts).expect("valid options");
    assert_eq!(Arc::strong_count(&m), 1 + 3, "every shard holds the one model");

    // Two designs that route to different shards.
    let mut rng = StdRng::seed_from_u64(9);
    let first = design(&mut rng);
    let home = frontend.home_shard(&[&first]);
    let second = std::iter::repeat_with(|| design(&mut rng))
        .find(|d| frontend.home_shard(&[d]) != home)
        .expect("some design routes elsewhere");

    let a = frontend.call(&[&first], &mesh).expect("served");
    assert_eq!((frontend.basis_stats().misses, frontend.basis_stats().hits), (1, 0));
    let b = frontend.call(&[&second], &mesh).expect("served");
    assert_ne!(a.shard, b.shard);
    let stats = frontend.basis_stats();
    assert_eq!((stats.misses, stats.hits), (1, 1), "the second shard's first request hits");
    assert_eq!(frontend.basis_len(), 1);
    assert_eq!(bits(&a.values), bits(&unpacked_reference::<f64>(&m, &first, &mesh)));
    assert_eq!(bits(&b.values), bits(&unpacked_reference::<f64>(&m, &second, &mesh)));

    drop(frontend);
    assert_eq!(Arc::strong_count(&m), 1, "shutdown releases every shard's handle");
}
