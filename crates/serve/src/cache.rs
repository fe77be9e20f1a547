//! Deterministic, budget-bounded LRU caches keyed by input content.
//!
//! One [`LruCache`] type backs both caches of the serving layer: the
//! branch-embedding cache ([`EmbeddingCache`], bounded by entry count) and
//! the trunk-basis cache ([`BasisCache`], bounded by bytes). What an entry
//! costs against the budget is the value type's [`CacheWeight`].
//!
//! Caches are keyed by the **content** of their input (shapes plus the
//! exact `f64` bit patterns of sensor values or query coordinates), so two
//! requests for the same design or mesh hit the same entry no matter how
//! the caller produced the matrices. A 64-bit hash narrows the candidate
//! set, but every probe compares the full payload, so hash collisions
//! between distinct inputs can never alias two entries.
//!
//! The hash reads the payload's 64-bit words in four independent
//! xor–multiply–rotate lanes and folds them through murmur3's `fmix64`
//! finalizer, so a full-mesh key (4,851 × 3 coordinates) hashes in about
//! 8 µs. The hash is a fixed function of the payload words, so it is the
//! same on every platform and in every run. A front-end routes a design
//! to shard `hash % shards`, so any change to the hash moves designs
//! between shards, as the switch to it from a byte-at-a-time FNV-1a
//! (about 0.19 ms per full-mesh key) did.
//!
//! Recency is a logical tick counter (no wall clock — the serving layer
//! lives under the workspace determinism lints), and eviction removes the
//! entry with the smallest last-used tick until the newcomer fits. Ticks
//! are unique, so the eviction order is a pure function of the request
//! sequence: replaying the same requests against the same budget always
//! evicts the same keys in the same order. A value heavier than the whole
//! budget is never cached (and evicts nothing).

use std::sync::Arc;

use deepoheat::{BranchEmbedding, TrunkBasis};
use deepoheat_linalg::Matrix;

/// Odd 64-bit multiplier of the lane rounds (xxHash64's first prime).
const LANE_PRIME: u64 = 0x9e37_79b1_85eb_ca87;

/// Starting states of the four hash lanes.
const LANE_SEEDS: [u64; 4] =
    [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344, 0xa409_3822_299f_31d0, 0x082e_fa98_ec4e_6c89];

/// Folds one word into a lane: xor, multiply, rotate. Each step is a
/// bijection of the lane and of the word, so two payloads that differ in
/// one word never collide. A multiply carries bits only upwards; the
/// rotation brings the high ones (a sign, say) down before the next
/// multiply, so two sign flips in one lane do not cancel. One multiply
/// per word keeps the four chains at the multiplier's throughput.
#[inline(always)]
fn round(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(LANE_PRIME).rotate_left(31)
}

/// murmur3's 64-bit finalizer: every input bit reaches every output bit.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The content hash of a key payload: word `i` goes to lane `i % 4`, so
/// the four lanes' multiply chains run side by side, then the word count
/// and the lanes fold into one value.
fn content_hash(words: &[u64]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut quads = words.chunks_exact(4);
    for quad in &mut quads {
        for (lane, &word) in lanes.iter_mut().zip(quad) {
            *lane = round(*lane, word);
        }
    }
    for (lane, &word) in lanes.iter_mut().zip(quads.remainder()) {
        *lane = round(*lane, word);
    }
    fmix64(lanes.iter().fold(words.len() as u64, |hash, &lane| round(hash, lane)))
}

/// Content-addressed identity of one set of input matrices (the branch
/// inputs of a design, or the coordinates of a query mesh): a fast 64-bit
/// hash plus the full payload (shapes and raw `f64` bits) used for exact
/// comparison on every probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    pub(crate) hash: u64,
    pub(crate) payload: Vec<u64>,
}

impl CacheKey {
    /// Builds the key for a set of input matrices. The payload encodes
    /// the matrix count, each matrix's shape, and each value's
    /// exact bit pattern, so any difference in content — including the
    /// sign of zero or a NaN payload — produces a different key.
    pub fn of(inputs: &[&Matrix]) -> Self {
        let mut payload = Vec::with_capacity(1 + inputs.iter().map(|m| 2 + m.len()).sum::<usize>());
        payload.push(inputs.len() as u64);
        for m in inputs {
            payload.push(m.rows() as u64);
            payload.push(m.cols() as u64);
            payload.extend(m.iter().map(|v| v.to_bits()));
        }
        CacheKey { hash: content_hash(&payload), payload }
    }

    /// The 64-bit content hash (exposed for telemetry/debugging; equality
    /// always compares the full payload too).
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Bytes the key holds (its payload is a full copy of the input).
    pub fn bytes(&self) -> usize {
        self.payload.len() * std::mem::size_of::<u64>()
    }

    /// The same payload under a different hash: forges a collision, so
    /// tests can check that probes compare full payloads.
    #[doc(hidden)]
    #[must_use]
    pub fn with_hash(self, hash: u64) -> Self {
        CacheKey { hash, ..self }
    }
}

/// What one cached value costs against its cache's budget.
pub trait CacheWeight {
    /// The cost of holding `self` under `key`.
    fn weight(&self, key: &CacheKey) -> usize;
}

/// Embeddings are small and uniform: the embedding cache's budget is an
/// entry count.
impl CacheWeight for Arc<BranchEmbedding> {
    fn weight(&self, _key: &CacheKey) -> usize {
        1
    }
}

/// Bases are large and sized by their mesh: the basis cache's budget is
/// in bytes, the packed features plus the key's copy of the coordinates.
impl CacheWeight for Arc<TrunkBasis> {
    fn weight(&self, key: &CacheKey) -> usize {
        self.bytes() + key.bytes()
    }
}

/// Hit/miss/eviction counters of an [`LruCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a cached value.
    pub hits: u64,
    /// Lookups that found nothing (the caller then computes and inserts).
    pub misses: u64,
    /// Entries displaced by budget pressure.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct CacheEntry<V> {
    key: CacheKey,
    value: V,
    weight: usize,
    last_used: u64,
}

/// A deterministic, budget-bounded LRU map from input content to values.
/// The `cache` module docs give the keying and eviction contract.
#[derive(Debug)]
pub struct LruCache<V> {
    entries: Vec<CacheEntry<V>>,
    budget: usize,
    used: usize,
    tick: u64,
    stats: CacheStats,
}

/// Branch embeddings keyed by sensor content, bounded by entry count.
pub type EmbeddingCache = LruCache<Arc<BranchEmbedding>>;

/// Trunk bases keyed by coordinate content, bounded by bytes.
pub type BasisCache = LruCache<Arc<TrunkBasis>>;

impl<V: Clone + CacheWeight> LruCache<V> {
    /// Creates a cache whose resident values weigh at most `budget` in
    /// total (`budget == 0` disables caching: every lookup misses and
    /// inserts are dropped). For an [`EmbeddingCache`] the budget is the
    /// entry count; for a [`BasisCache`] it is bytes.
    pub fn new(budget: usize) -> Self {
        LruCache { entries: Vec::new(), budget, used: 0, tick: 0, stats: CacheStats::default() }
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn position(&self, key: &CacheKey) -> Option<usize> {
        self.entries.iter().position(|e| e.key.hash == key.hash && e.key.payload == key.payload)
    }

    /// Looks up a key, refreshing its recency on a hit. Probes compare
    /// `hash` first and then the full payload, so colliding keys with
    /// different content miss correctly.
    pub fn get(&mut self, key: &CacheKey) -> Option<V> {
        self.tick += 1;
        match self.position(key) {
            Some(i) => {
                let entry = &mut self.entries[i];
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(entry.value.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a value, first evicting least-recently-used entries until
    /// it fits the budget, and returns how many were evicted. A value
    /// heavier than the whole budget is not cached and evicts nothing.
    /// Re-inserting an existing key replaces its value and refreshes its
    /// recency.
    pub fn insert(&mut self, key: CacheKey, value: V) -> u64 {
        let weight = value.weight(&key);
        if weight > self.budget || self.budget == 0 {
            return 0;
        }
        let before = self.stats.evictions;
        self.tick += 1;
        if let Some(i) = self.position(&key) {
            let old = self.entries.swap_remove(i);
            self.used -= old.weight;
        }
        while self.used + weight > self.budget {
            // Ticks are unique, so the minimum is unique: deterministic
            // LRU eviction regardless of insertion interleavings.
            let Some(victim) =
                self.entries.iter().enumerate().min_by_key(|(_, e)| e.last_used).map(|(i, _)| i)
            else {
                break;
            };
            let evicted = self.entries.swap_remove(victim);
            self.used -= evicted.weight;
            self.stats.evictions += 1;
        }
        self.used += weight;
        self.entries.push(CacheEntry { key, value, weight, last_used: self.tick });
        self.stats.evictions - before
    }

    /// The resident keys ordered least- to most-recently used — the order
    /// the next evictions would occur in. Exposed for tests and
    /// introspection.
    pub fn keys_by_recency(&self) -> Vec<&CacheKey> {
        let mut indexed: Vec<&CacheEntry<V>> = self.entries.iter().collect();
        indexed.sort_by_key(|e| e.last_used);
        indexed.into_iter().map(|e| &e.key).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mints a real embedding whose content depends on `seed`. Identity is
    /// all these tests need; the cold-vs-warm value checks live in the
    /// integration suite.
    fn embedding(seed: f64) -> Arc<BranchEmbedding> {
        use rand::SeedableRng;
        let cfg = deepoheat::DeepOHeatConfig::single_branch(2, &[4], &[4], 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let model =
            deepoheat::DeepOHeat::new(&cfg, &mut rng).expect("invariant: tiny model builds");
        let input = Matrix::filled(1, 2, seed);
        Arc::new(model.encode_branches(&[&input]).expect("invariant: shapes match config"))
    }

    fn key(vals: &[f64]) -> CacheKey {
        let m = Matrix::from_fn(1, vals.len(), |_, j| vals[j]);
        CacheKey::of(&[&m])
    }

    #[test]
    fn content_keying_ignores_provenance_but_not_bits() {
        let a = Matrix::from_fn(1, 3, |_, j| j as f64);
        let b = Matrix::from_vec(1, 3, vec![0.0, 1.0, 2.0]).unwrap();
        assert_eq!(CacheKey::of(&[&a]), CacheKey::of(&[&b]));
        // -0.0 == 0.0 numerically but is a different design key.
        let c = Matrix::from_vec(1, 3, vec![-0.0, 1.0, 2.0]).unwrap();
        assert_ne!(CacheKey::of(&[&a]), CacheKey::of(&[&c]));
        // Same data, different shape.
        let d = Matrix::from_vec(3, 1, vec![0.0, 1.0, 2.0]).unwrap();
        assert_ne!(CacheKey::of(&[&a]), CacheKey::of(&[&d]));
    }

    /// Payloads of 0–9 words leave every remainder of the four lanes,
    /// with 0–3 tail words folded outside the main loop. In each, a change
    /// to one word (its lowest or its sign bit) changes the hash, and
    /// payloads of different lengths hash apart.
    #[test]
    fn every_word_reaches_the_hash_at_every_lane_remainder() {
        let mut seen = std::collections::BTreeSet::new();
        for len in 0..=9u64 {
            let words: Vec<u64> = (0..len).map(|i| i.wrapping_mul(0x0123_4567_89ab_cdef)).collect();
            let hash = content_hash(&words);
            assert_eq!(hash, content_hash(&words.clone()), "deterministic");
            assert!(seen.insert(hash), "{len} words hash like a shorter payload");
            for i in 0..words.len() {
                for bit in [0, 63] {
                    let mut changed = words.clone();
                    changed[i] ^= 1 << bit;
                    assert_ne!(content_hash(&changed), hash, "word {i}, bit {bit}, {len} words");
                }
            }
        }
        // Two sign flips in one lane (words 0 and 4) must not cancel.
        let zeros = [0u64; 8];
        let mut flipped = zeros;
        flipped[0] ^= 1 << 63;
        flipped[4] ^= 1 << 63;
        assert_ne!(content_hash(&flipped), content_hash(&zeros));
    }

    #[test]
    fn lru_eviction_order_is_deterministic() {
        let mut cache = EmbeddingCache::new(2);
        let (k1, k2, k3) = (key(&[1.0]), key(&[2.0]), key(&[3.0]));
        cache.insert(k1.clone(), embedding(1.0));
        cache.insert(k2.clone(), embedding(2.0));
        // Touch k1 so k2 becomes the LRU victim.
        assert!(cache.get(&k1).is_some());
        cache.insert(k3.clone(), embedding(3.0));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&k2).is_none(), "k2 was least recently used");
        assert!(cache.get(&k1).is_some());
        assert!(cache.get(&k3).is_some());
        // Recency order after the gets above: k1 then k3.
        let order: Vec<u64> = cache.keys_by_recency().iter().map(|k| k.hash()).collect();
        assert_eq!(order, vec![k1.hash(), k3.hash()]);
    }

    #[test]
    fn hash_collisions_compare_full_payload() {
        let mut cache = EmbeddingCache::new(4);
        let real = key(&[1.0, 2.0]);
        // Forge a key with the same hash but different content: a probe
        // must treat it as a distinct design, not a hit.
        let forged = CacheKey { hash: real.hash, payload: vec![9, 9, 9] };
        cache.insert(real.clone(), embedding(1.0));
        assert!(cache.get(&forged).is_none(), "collision must not alias");
        cache.insert(forged.clone(), embedding(2.0));
        assert_eq!(cache.len(), 2, "colliding keys coexist as separate entries");
        assert!(cache.get(&real).is_some());
        assert!(cache.get(&forged).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = EmbeddingCache::new(0);
        let k = key(&[1.0]);
        cache.insert(k.clone(), embedding(1.0));
        assert!(cache.get(&k).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut cache = EmbeddingCache::new(2);
        let (k1, k2) = (key(&[1.0]), key(&[2.0]));
        cache.insert(k1.clone(), embedding(1.0));
        cache.insert(k2.clone(), embedding(2.0));
        cache.insert(k1.clone(), embedding(3.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
        // k2 is now the LRU entry.
        assert_eq!(cache.keys_by_recency().first().map(|k| k.hash()), Some(k2.hash()));
    }

    #[test]
    fn hit_rate_tracks_lookups() {
        let mut cache = EmbeddingCache::new(2);
        let k = key(&[1.0]);
        assert_eq!(cache.stats().hit_rate(), 0.0);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), embedding(1.0));
        assert!(cache.get(&k).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-15);
    }
}
