#![deny(unsafe_code)]
//! Seeded input generation. Every input the program sees — designs and
//! the order they are asked for, power maps, probe coordinates, model
//! weights and the training seed — is derived from the run's `--seed`
//! through a named stream, so one seed always yields the same bytes and
//! the program receives only the generated values.

use deepoheat_bench::BenchError;
use deepoheat_grf::TilePowerMap;
use deepoheat_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Independent input streams derived from one run seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Surrogate weights.
    Model = 1,
    /// The repeated design set and its popularity draws.
    Designs = 2,
    /// The designs a serving client asks for, in order.
    Requests = 3,
    /// Reference-solver power maps.
    Maps = 5,
    /// Training seed.
    Train = 6,
    /// Which requests, columns or steps the output checks sample.
    Checks = 7,
    /// Inputs used only to warm caches during set-up.
    Warmup = 8,
    /// Inputs of the traced and replayed phases (kept apart from the
    /// measured phase so tracing never changes the untraced inputs).
    Trace = 9,
}

/// Tile grid every generated floorplan is drawn on (the paper's 20 × 20).
pub const TILE_SIDE: usize = 20;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The generator of `stream` (item `index` within it) for run `seed`.
pub fn rng(seed: u64, stream: Stream, index: u64) -> StdRng {
    let key = splitmix(seed ^ splitmix(stream as u64)) ^ splitmix(index.wrapping_add(1) << 8);
    StdRng::seed_from_u64(splitmix(key))
}

/// A seed for a program component that takes a plain `u64`.
pub fn derived_seed(seed: u64, stream: Stream) -> u64 {
    rng(seed, stream, 0).next_u64()
}

/// A random block floorplan on the 20 × 20 tile grid — two to six
/// rectangular sources with unit powers in `[0.25, 1.5)` — interpolated
/// onto a `grid_side × grid_side` node grid.
pub fn floorplan(rng: &mut StdRng, grid_side: usize) -> Result<Matrix, BenchError> {
    let mut map = TilePowerMap::new(TILE_SIDE, TILE_SIDE);
    for _ in 0..rng.gen_range(2..=6usize) {
        let height = rng.gen_range(2..=8usize);
        let width = rng.gen_range(2..=8usize);
        let row = rng.gen_range(0..=TILE_SIDE - height);
        let col = rng.gen_range(0..=TILE_SIDE - width);
        map.add_block(row, col, height, width, rng.gen_range(0.25..1.5))?;
    }
    Ok(map.to_grid(grid_side))
}

/// A floorplan flattened to the `1 × side²` branch-input row.
pub fn branch_row(map: Matrix) -> Result<Matrix, BenchError> {
    let n = map.len();
    Ok(Matrix::from_vec(1, n, map.into_vec())?)
}

/// `n` probe points uniform in the normalised unit cube.
pub fn probes(rng: &mut StdRng, n: usize) -> Matrix {
    Matrix::from_fn(n, 3, |_, _| rng.gen_range(0.0..1.0))
}

/// Cumulative Zipf(`exponent`) popularity over `n` items, item 0 hottest.
pub fn zipf_cdf(n: usize, exponent: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-exponent)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Draws an item from a cumulative distribution.
pub fn pick(rng: &mut StdRng, cdf: &[f64]) -> usize {
    let u: f64 = rng.gen_range(0.0..1.0);
    cdf.iter().position(|&c| u <= c).unwrap_or(cdf.len().saturating_sub(1))
}

/// `count` indices out of `0..n`, drawn without repetition and sorted.
pub fn sample_indices(rng: &mut StdRng, n: usize, count: usize) -> Vec<usize> {
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < count.min(n) {
        chosen.insert(rng.gen_range(0..n));
    }
    chosen.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(m: &Matrix) -> Vec<u64> {
        m.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn same_seed_gives_the_same_bytes() {
        for seed in [0, 7, u64::MAX] {
            let a = floorplan(&mut rng(seed, Stream::Maps, 3), 41).unwrap();
            let b = floorplan(&mut rng(seed, Stream::Maps, 3), 41).unwrap();
            assert_eq!(bits(&a), bits(&b));
            let cdf = zipf_cdf(16, 1.1);
            let picks = |r: &mut StdRng| (0..96).map(|_| pick(r, &cdf)).collect::<Vec<_>>();
            assert_eq!(
                picks(&mut rng(seed, Stream::Requests, 0)),
                picks(&mut rng(seed, Stream::Requests, 0))
            );
            assert_eq!(bits(&probes(&mut rng(seed, Stream::Warmup, 5), 64)), {
                bits(&probes(&mut rng(seed, Stream::Warmup, 5), 64))
            });
            assert_eq!(derived_seed(seed, Stream::Train), derived_seed(seed, Stream::Train));
        }
    }

    #[test]
    fn different_seeds_and_streams_differ() {
        let a = floorplan(&mut rng(1, Stream::Maps, 0), 21).unwrap();
        let b = floorplan(&mut rng(2, Stream::Maps, 0), 21).unwrap();
        let c = floorplan(&mut rng(1, Stream::Designs, 0), 21).unwrap();
        assert_ne!(bits(&a), bits(&b));
        assert_ne!(bits(&a), bits(&c));
    }

    #[test]
    fn floorplans_of_one_stream_do_not_repeat() {
        let mut seen = std::collections::BTreeSet::new();
        for index in 0..2000 {
            let map = floorplan(&mut rng(42, Stream::Maps, index), 21).unwrap();
            assert_eq!(map.shape(), (21, 21));
            assert!(seen.insert(bits(&map)), "map {index} repeats an earlier one");
        }
    }

    #[test]
    fn zipf_cdf_is_monotone_and_ends_at_one() {
        let cdf = zipf_cdf(16, 1.1);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
        assert!((cdf[15] - 1.0).abs() < 1e-12);
        assert!(cdf[0] > 1.0 / 16.0, "item 0 is the hottest");
    }

    #[test]
    fn sampled_indices_are_distinct_and_in_range() {
        let picked = sample_indices(&mut rng(9, Stream::Checks, 0), 50, 8);
        assert_eq!(picked.len(), 8);
        assert!(picked.windows(2).all(|w| w[0] < w[1]));
        assert!(picked.iter().all(|&i| i < 50));
    }
}
