//! AVX2 code paths behind runtime feature detection.
//!
//! This is the only module in the crate allowed to contain `unsafe` code
//! (see the audited-paths list in `xtask/src/lints.rs`); everything else
//! stays under `#![deny(unsafe_code)]`. It holds two things:
//!
//! * the f64 GEMM microkernel, bit-identical to
//!   [`scalar_tile`](super::scalar_tile): lanes span output columns, the
//!   `k` loop stays sequential per element, and products are combined
//!   with separate multiply and add (never FMA);
//! * [`run_avx2`], which runs a portable [`Multiversion`] kernel body (the
//!   SpMM lane groups, the fused block-update tiles, the `f32` GEMM tile
//!   and the two one-row products) compiled with AVX2 enabled. It is the
//!   same Rust source, so it performs the same IEEE operations in the same
//!   order; only the vector width LLVM picks for the independent lanes
//!   changes.
//!
//! Enabling or disabling either path can never change a result — it is a
//! pure throughput switch. Set `DEEPOHEAT_SCALAR_KERNELS=1` to force the
//! portable paths (useful for A/B benchmarking and for reproducing the CI
//! scalar/Miri configuration).

use core::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_broadcast_sd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_setzero_pd,
    _mm256_storeu_pd,
};
use std::sync::OnceLock;

use super::{Multiversion, MR, NR};

/// Whether the AVX2 paths may be used on this machine. Detected once; the
/// choice depends on the host CPU and an env override only — never on the
/// thread count — and both branches produce identical bits anyway.
fn avx2_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        std::env::var_os("DEEPOHEAT_SCALAR_KERNELS").is_none()
            && std::arch::is_x86_feature_detected!("avx2")
    })
}

/// Runs `kernel` compiled with AVX2 enabled and returns `true`, or
/// returns `false` (having done nothing) when AVX2 is unavailable — the
/// caller then runs the portable build of the same body.
pub(crate) fn run_avx2<K: Multiversion>(kernel: &mut K) -> bool {
    if !avx2_enabled() {
        return false;
    }
    // SAFETY: `run_with_avx2` is safe code whose only requirement is the
    // AVX2 target feature it is compiled for, and `avx2_enabled()` above
    // verified that this CPU has it.
    unsafe { run_with_avx2(kernel) };
    true
}

/// The AVX2 build of a [`Multiversion`] body: `run` is
/// `#[inline(always)]`, so LLVM inlines it here and compiles its loops
/// with 256-bit vectors.
#[target_feature(enable = "avx2")]
fn run_with_avx2<K: Multiversion>(kernel: &mut K) {
    kernel.run();
}

/// Runs one full `MR × NR` f64 tile with AVX2, accumulating over a packed
/// B strip in ascending-`k` order. Returns `false` (having done nothing)
/// if AVX2 is unavailable or any operand is too short for the fixed-size
/// tile — the caller then takes the scalar tile, which is bit-identical.
pub(crate) fn tile_f64(
    a: &[f64],
    lda: usize,
    bstrip: &[f64],
    ks: usize,
    c: &mut [f64],
    ldc: usize,
    first: bool,
) -> bool {
    if !avx2_enabled() {
        return false;
    }
    // Bounds that make every pointer access below in-range: the kernel
    // reads a[r*lda + kk] for r < MR, kk < ks; reads bstrip[kk*NR + lane]
    // for lane < NR; and loads/stores c[r*ldc + j] for j < NR.
    if ks > 0 && a.len() < (MR - 1) * lda + ks {
        return false;
    }
    if bstrip.len() < ks * NR || c.len() < (MR - 1) * ldc + NR {
        return false;
    }
    // SAFETY: AVX2 availability was verified by `avx2_enabled()` above, so
    // the #[target_feature(enable = "avx2")] function may be called. The
    // slice-length checks above guarantee every raw read and write inside
    // stays within the bounds of `a`, `bstrip` and `c` respectively (the
    // access pattern is documented on the checks); `a`/`bstrip` are only
    // read and `c` is exclusively borrowed, so no aliasing rule is broken.
    unsafe {
        tile_f64_avx2(a.as_ptr(), lda, bstrip.as_ptr(), ks, c.as_mut_ptr(), ldc, first);
    }
    true
}

/// The 4×8 register tile: 8 ymm accumulators (4 rows × 2 vectors), one
/// broadcast register for the A operand, B loaded fresh each `k` step.
///
/// # Safety
///
/// Caller must ensure AVX2 is available and that `a` is valid for reads of
/// `(MR-1)*lda + ks` f64s, `bstrip` for `ks * NR`, and `c` for reads and
/// writes of `(MR-1)*ldc + NR`.
// SAFETY: the `# Safety` contract above is discharged by the single caller,
// `tile_f64`, which checks feature availability and slice bounds first.
#[target_feature(enable = "avx2")]
unsafe fn tile_f64_avx2(
    a: *const f64,
    lda: usize,
    bstrip: *const f64,
    ks: usize,
    c: *mut f64,
    ldc: usize,
    first: bool,
) {
    // SAFETY: all pointer arithmetic below stays inside the caller-promised
    // bounds restated in the function's safety contract.
    unsafe {
        let mut acc: [[__m256d; 2]; MR] = if first {
            [[_mm256_setzero_pd(); 2]; MR]
        } else {
            [
                [_mm256_loadu_pd(c), _mm256_loadu_pd(c.add(4))],
                [_mm256_loadu_pd(c.add(ldc)), _mm256_loadu_pd(c.add(ldc + 4))],
                [_mm256_loadu_pd(c.add(2 * ldc)), _mm256_loadu_pd(c.add(2 * ldc + 4))],
                [_mm256_loadu_pd(c.add(3 * ldc)), _mm256_loadu_pd(c.add(3 * ldc + 4))],
            ]
        };
        for kk in 0..ks {
            let b0 = _mm256_loadu_pd(bstrip.add(kk * NR));
            let b1 = _mm256_loadu_pd(bstrip.add(kk * NR + 4));
            for (r, row) in acc.iter_mut().enumerate() {
                let av = _mm256_broadcast_sd(&*a.add(r * lda + kk));
                // Separate mul + add, not FMA: the contraction would round
                // differently from the scalar kernel.
                row[0] = _mm256_add_pd(row[0], _mm256_mul_pd(av, b0));
                row[1] = _mm256_add_pd(row[1], _mm256_mul_pd(av, b1));
            }
        }
        for (r, row) in acc.iter().enumerate() {
            _mm256_storeu_pd(c.add(r * ldc), row[0]);
            _mm256_storeu_pd(c.add(r * ldc + 4), row[1]);
        }
    }
}
