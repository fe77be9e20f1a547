//! Property tests pinning the packed, register-blocked matmul kernels to
//! the naive triple-loop reference — **bitwise**, not approximately.
//!
//! The blocked kernel (and its AVX2 tile) accumulates every output element
//! in ascending-`k` order with separate multiply and add, exactly like the
//! reference, so any shape — including tails that are not multiples of the
//! register tile, single rows/columns and empty operands — must reproduce
//! the reference bits. The fused epilogues (bias, bias+map, affine) must
//! likewise match their two-pass formulations bit for bit.
//!
//! The pre-packed combine (`matmul_packed_affine` against an operand packed
//! whole or chunk by chunk) must reproduce `matmul_transposed_affine` to
//! the bit, in both precisions, at any pool width, and with the AVX2 tile
//! forced off — the one-row product (one design against a mesh) included,
//! which runs a kernel of its own.
//!
//! Under Miri (which runs only the portable scalar path) the case count is
//! reduced to keep the interpreted suite fast; the shapes exercised stay
//! the same.

use deepoheat_linalg::{LinalgError, Matrix};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

#[cfg(miri)]
const CASES: u32 = 4;
#[cfg(not(miri))]
const CASES: u32 = 96;

/// Dimensions that deliberately straddle the MR×NR = 4×8 register tile:
/// empty, degenerate (1), tile-aligned, off-by-one and multi-tile.
const DIMS: [usize; 8] = [0, 1, 3, 4, 8, 9, 19, 33];

/// Strategy: one entry of [`DIMS`].
fn dim() -> impl Strategy<Value = usize> {
    (0usize..DIMS.len()).prop_map(|i| DIMS[i])
}

/// Builds a `rows × cols` matrix from a seed, mixing ordinary magnitudes
/// with the bit-identity hazards: signed zeros and tiny values whose sums
/// underflow.
fn matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| match rng.gen_range(0u8..7) {
            0 => 0.0,
            1 => -0.0,
            2 => 1e-300,
            _ => rng.gen_range(-3.0..3.0),
        })
        .collect();
    Matrix::from_vec(rows, cols, data).expect("sized by construction")
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.iter().map(|v| v.to_bits()).collect()
}

fn bits32(m: &Matrix<f32>) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Asserts that `a · tᵀ` under the affine epilogue gives the same bits
/// through the unpacked call, a whole-operand pack (one chunk) and a
/// `chunk`-row chunked pack, in f64 and in f32.
fn assert_packed_affine_matches(a: &Matrix, t: &Matrix, chunk: usize, offset: f64, scale: f64) {
    let (n, k) = t.shape();
    let reference = a.matmul_transposed_affine(t, offset, scale).unwrap();
    let packed_whole = Matrix::pack_row_chunks(n, k, n, |rows| t.row_block(rows)).unwrap();
    let whole = a.matmul_packed_affine(&packed_whole, offset, scale).unwrap();
    let chunked = Matrix::pack_row_chunks(n, k, chunk, |rows| t.row_block(rows)).unwrap();
    assert_eq!(chunked.shape(), (n, k));
    let from_chunks = a.matmul_packed_affine(&chunked, offset, scale).unwrap();
    assert_eq!(bits(&whole), bits(&reference), "whole pack, {:?} x {:?}", a.shape(), t.shape());
    assert_eq!(bits(&from_chunks), bits(&reference), "chunk {chunk}");

    let (a32, t32) = (a.cast::<f32>(), t.cast::<f32>());
    let (offset32, scale32) = (offset as f32, scale as f32);
    let reference32 = a32.matmul_transposed_affine(&t32, offset32, scale32).unwrap();
    let packed_whole32 = Matrix::pack_row_chunks(n, k, n, |rows| {
        Ok::<_, LinalgError>(t.row_block(rows)?.cast::<f32>())
    })
    .unwrap();
    let whole32 = a32.matmul_packed_affine(&packed_whole32, offset32, scale32).unwrap();
    let chunked32 = Matrix::pack_row_chunks(n, k, chunk, |rows| {
        Ok::<_, LinalgError>(t.row_block(rows)?.cast::<f32>())
    })
    .unwrap();
    let from_chunks32 = a32.matmul_packed_affine(&chunked32, offset32, scale32).unwrap();
    assert_eq!(bits32(&whole32), bits32(&reference32), "f32 whole pack");
    assert_eq!(bits32(&from_chunks32), bits32(&reference32), "f32 chunk {chunk}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn packed_affine_is_bitwise_equal_to_unpacked(
        m in dim(), k in dim(), n in dim(), chunk in 1usize..=20,
        offset in -10.0f64..10.0, scale in 0.1f64..10.0, seed in 0u64..1 << 48
    ) {
        let a = matrix(m, k, seed);
        let t = matrix(n, k, seed ^ 8);
        assert_packed_affine_matches(&a, &t, chunk, offset, scale);
    }

    #[test]
    fn blocked_matmul_is_bitwise_equal_to_naive(
        m in dim(), k in dim(), n in dim(), seed in 0u64..1 << 48
    ) {
        let a = matrix(m, k, seed);
        let b = matrix(k, n, seed ^ 1);
        let blocked = a.matmul(&b).unwrap();
        let naive = a.matmul_naive(&b).unwrap();
        prop_assert_eq!(blocked, naive);

        let (a32, b32) = (a.cast::<f32>(), b.cast::<f32>());
        let blocked32 = a32.matmul(&b32).unwrap();
        let naive32 = a32.matmul_naive(&b32).unwrap();
        prop_assert_eq!(bits32(&blocked32), bits32(&naive32));
    }

    #[test]
    fn transposed_matmul_is_bitwise_equal_to_naive_of_transpose(
        m in dim(), k in dim(), n in dim(), seed in 0u64..1 << 48
    ) {
        let a = matrix(m, k, seed);
        let t = matrix(n, k, seed ^ 2);
        let fused = a.matmul_transposed(&t).unwrap();
        let reference = a.matmul_naive(&t.transpose()).unwrap();
        prop_assert_eq!(fused, reference);
    }

    #[test]
    fn bias_epilogue_is_bitwise_equal_to_two_pass(
        m in dim(), k in dim(), n in 1usize..=19, seed in 0u64..1 << 48
    ) {
        let a = matrix(m, k, seed);
        let b = matrix(k, n, seed ^ 3);
        let bias = matrix(1, n, seed ^ 4);
        let fused = a.matmul_bias(&b, bias.as_slice()).unwrap();
        let two_pass = a.matmul(&b).unwrap().add_row_broadcast(&bias).unwrap();
        prop_assert_eq!(fused, two_pass);
    }

    #[test]
    fn bias_map_epilogue_is_bitwise_equal_to_two_pass(
        m in dim(), k in dim(), n in 1usize..=19, seed in 0u64..1 << 48
    ) {
        let a = matrix(m, k, seed);
        let b = matrix(k, n, seed ^ 5);
        let bias = matrix(1, n, seed ^ 6);
        // A Swish-like map: nonlinear, uses the input twice.
        let f = |v: f64| v / (1.0 + (-v).exp());
        let fused = a.matmul_bias_map(&b, bias.as_slice(), f).unwrap();
        let two_pass = a.matmul(&b).unwrap().add_row_broadcast(&bias).unwrap().map(f);
        prop_assert_eq!(fused, two_pass);
    }

    #[test]
    fn affine_epilogue_is_bitwise_equal_to_two_pass(
        m in dim(), k in dim(), n in dim(),
        offset in -10.0f64..10.0, scale in 0.1f64..10.0, seed in 0u64..1 << 48
    ) {
        let a = matrix(m, k, seed);
        let t = matrix(n, k, seed ^ 7);
        let fused = a.matmul_transposed_affine(&t, offset, scale).unwrap();
        let two_pass = a.matmul_transposed(&t).unwrap().map(|v| offset + scale * v);
        prop_assert_eq!(fused, two_pass);
    }

    #[test]
    fn zero_times_nonfinite_propagates_ieee(
        m in 1usize..=6, n in 1usize..=6
    ) {
        // The old row kernel skipped k-steps where the A element was zero;
        // the packed kernel must not: 0 · ∞ = NaN per IEEE 754.
        let a = Matrix::zeros(m, 2);
        let mut b = Matrix::zeros(2, n);
        b[(0, 0)] = f64::INFINITY;
        let out = a.matmul(&b).unwrap();
        prop_assert!(out[(0, 0)].is_nan());
        prop_assert_eq!(a.matmul_naive(&b).unwrap()[(0, 0)].is_nan(), out[(0, 0)].is_nan());
    }
}

/// The fused trunk-combine kernel must be bit-identical across pool
/// widths: band boundaries derive from the problem size alone.
#[test]
#[cfg_attr(miri, ignore = "thread pools are too slow under the interpreter")]
fn fused_combine_is_bit_identical_across_pool_widths() {
    let a = Matrix::from_fn(130, 96, |r, c| ((r * 31 + c * 7) % 23) as f64 * 0.37 - 2.0);
    let t = Matrix::from_fn(201, 96, |r, c| ((r * 13 + c * 3) % 17) as f64 * 0.21 - 1.5);
    let serial = a.matmul_transposed_affine(&t, 298.15, 10.0).unwrap();
    assert_eq!(serial, a.matmul_transposed(&t).unwrap().map(|v| 298.15 + 10.0 * v));
    for threads in [1, 2, 4] {
        let pool = deepoheat_parallel::ThreadPool::new(threads);
        let under = pool.install(|| a.matmul_transposed_affine(&t, 298.15, 10.0)).unwrap();
        assert_eq!(serial, under, "threads = {threads}");
    }
}

/// Reduction lengths past one `KC = 256` slab exercise the panel offsets
/// of later slabs, which the property shapes above never reach.
#[test]
fn packed_affine_spans_several_reduction_slabs() {
    for (m, k, n) in [(1, 300, 19), (5, 513, 9), (4, 256, 8)] {
        let a = matrix(m, k, 11);
        let t = matrix(n, k, 12);
        assert_packed_affine_matches(&a, &t, 8, 298.15, 10.0);
    }
}

/// One row against a packed operand runs the one-row kernel; the unpacked
/// reference runs the tile path or, for tiny products, the naive loop.
/// Widths straddle the 8-lane strip (a lone column, a partial strip, one,
/// one plus a column, several plus a column), and the reduction lengths
/// include none, a partial slab and two `KC = 256` slabs.
#[test]
fn packed_affine_one_row_is_bitwise_equal_to_unpacked() {
    for n in [1, 7, 8, 9, 33] {
        for k in [0, 1, 13, 128, 300] {
            let a = matrix(1, k, 31 + k as u64);
            let t = matrix(n, k, 37 + n as u64);
            assert_packed_affine_matches(&a, &t, 8, 298.15, 10.0);
            assert_packed_affine_matches(&a, &t, 3, -1.5, 0.25);
        }
    }
}

/// The pre-packed combine and the chunked pack are bit-identical across
/// pool widths: chunk boundaries derive from the shapes alone. The shapes
/// include one design against a whole mesh and a multi-slab reduction.
#[test]
#[cfg_attr(miri, ignore = "thread pools are too slow under the interpreter")]
fn packed_affine_is_bit_identical_across_pool_widths() {
    for (m, k, n, chunk) in [
        (1, 96, 201, 13),
        (3, 33, 19, 1),
        (9, 130, 257, 64),
        (4, 8, 1, 7),
        (1, 128, 1203, 256),
        (3, 300, 333, 16),
        (40, 64, 90, 32),
    ] {
        let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 23) as f64 * 0.37 - 2.0);
        let t = Matrix::from_fn(n, k, |r, c| ((r * 13 + c * 3) % 17) as f64 * 0.21 - 1.5);
        for threads in [1, 2, 4] {
            let pool = deepoheat_parallel::ThreadPool::new(threads);
            pool.install(|| assert_packed_affine_matches(&a, &t, chunk, 298.15, 10.0));
        }
    }
}

/// Re-runs this binary's packed-operand tests and the blocked-against-naive
/// property with the AVX2 builds switched off (`DEEPOHEAT_SCALAR_KERNELS=1`
/// is read once per process), so the portable and the AVX2 builds of every
/// kernel — the f64 tile, the f32 tile and the one-row product — are held
/// to the same references.
#[test]
#[cfg_attr(miri, ignore = "the interpreter runs only the scalar tile and cannot spawn processes")]
fn packed_affine_holds_with_the_scalar_tile_forced() {
    if std::env::var_os("DEEPOHEAT_SCALAR_KERNELS").is_some() {
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let run = std::process::Command::new(exe)
        .args(["packed_affine", "blocked_matmul", "--test-threads=1"])
        .env("DEEPOHEAT_SCALAR_KERNELS", "1")
        .output()
        .expect("re-run the test binary");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success() && stdout.contains("test result: ok. 6 passed"),
        "packed-operand tests with the scalar tile forced:\n{stdout}{}",
        String::from_utf8_lossy(&run.stderr)
    );
}
