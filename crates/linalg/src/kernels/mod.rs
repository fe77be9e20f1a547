//! Packed, register-blocked dense multiplication kernels.
//!
//! Every dense product in the crate funnels through [`gemm`]: the right-hand
//! side is packed once into cache-friendly `NR`-wide column panels, then the
//! output is produced tile by tile with an `MR × NR` register-blocked
//! microkernel. (A one-row product reads an untransposed right-hand side in
//! place instead: it would use each packed element once.) The same driver
//! serves four call shapes — plain `A·B`, `A·Bᵀ` (the DeepONet combine
//! step), and either of those with a fused [`Epilogue`] (bias add, affine
//! output transform, or bias + activation) — so the fused paths never
//! materialise an intermediate matrix.
//!
//! # Determinism contract
//!
//! The kernels uphold the crate-wide rule that results are bitwise
//! independent of thread count *and* of instruction set:
//!
//! * Each output element accumulates its `k` products in ascending-`k`
//!   order, exactly like a naive dot product. Vector lanes span output
//!   *columns*, never the reduction dimension, and no FMA contraction is
//!   used, so the AVX2 microkernel, the scalar microkernel and the naive
//!   reference produce identical bits for every element.
//! * When `k` exceeds one [`KC`] slab the microkernel reloads the partial
//!   sum from the output tile and continues accumulating in registers —
//!   a plain continuation of the same add sequence, not a second reduction
//!   tree (`c = acc` stores, never `c += acc`), so signed zeros and
//!   rounding match the single-pass order exactly.
//! * Blocking constants ([`MR`], [`NR`], [`KC`]) and the row-band split in
//!   [`dispatch_rows`] are derived from the problem shape only, never from
//!   the pool width.
//!
//! The one deliberate behaviour change versus the pre-blocking kernels is
//! the removal of the `if a == 0.0 { continue; }` skip: on finite inputs
//! the result is bit-identical (skipping `acc += 0.0 * b` never changes a
//! finite sum), but a `0.0 · ∞` or `0.0 · NaN` product now propagates NaN
//! as IEEE arithmetic specifies instead of being silently dropped.

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[allow(unsafe_code)]
mod simd;

use std::ops::Range;

use deepoheat_parallel::{self as parallel, Job};

use crate::LinalgError;

/// Rows per register tile. Four accumulator rows of [`NR`] lanes fit in the
/// 16 ymm registers with room for the broadcast operand.
pub(crate) const MR: usize = 4;

/// Columns per register tile: two 4-wide f64 vectors (or one cache line).
pub(crate) const NR: usize = 8;

/// Reduction-dimension slab length, sized so one packed B strip
/// (`KC × NR × 8 B = 16 KiB`) stays resident in L1 across the row tiles
/// that consume it, and a full 512-wide slab (`KC × 512 × 8 B = 1 MiB`)
/// still fits L2. The hot shapes (trunk width ≤ 256, sensor count ≤ 441)
/// pack into a single slab.
pub(crate) const KC: usize = 256;

/// Output rows per cache chunk: the `MC × KC` block of A a chunk touches
/// (`128 KiB`) stays L2-resident while each B strip is re-read from L1 by
/// the `MC / MR` row tiles inside the chunk.
pub(crate) const MC: usize = 64;

/// Multiply-add count below which the naive loop runs directly with no
/// packing: biases, jets and 2–3-wide coordinate batches never pay the
/// `O(k·n)` pack cost. Both paths are bit-identical, so the cutover is a
/// pure heuristic and cannot affect results.
const TINY_GEMM_WORK: usize = 8 * 1024;

/// Multiply-add count below which [`gemm`] stays on the calling thread and
/// never touches the worker pool. Retuned for the blocked microkernel: the
/// packed kernel moves ~4× more multiply-adds per microsecond than the old
/// scalar loop did, so the work equivalent of the pool's few-microsecond
/// dispatch cost moves up accordingly (32k → 128k).
const PARALLEL_MATMUL_THRESHOLD: usize = 128 * 1024;

/// Target multiply-adds per pooled matmul job. Larger than the dispatch
/// threshold so each job amortises its queue round-trip; derived from the
/// problem shape only, never from the thread count.
const MATMUL_CHUNK_WORK: usize = 1024 * 1024;

/// Minimum rows per pooled band, and the band size is rounded up to a
/// multiple of [`MR`]: a band shorter than this would fragment the
/// register tiles (partial `mr` on every band) and re-stream the whole
/// packed B per handful of rows, turning the kernel memory-bound again.
const MIN_BAND_ROWS: usize = 32;

/// A matrix element type: `f64`, the default everywhere, or `f32` for
/// single-precision inference. Every dense kernel is generic over it, so
/// both precisions run the same code. Sealed: the kernels' determinism
/// contract is argued for these two types only.
pub trait Element: sealed::Kernel {
    /// The additive identity.
    const ZERO: Self;

    /// `v` rounded to nearest in this precision: the identity for `f64`,
    /// and the one place an `f64` narrows to `f32`.
    fn from_f64(v: f64) -> Self;

    /// `self` widened to `f64`, exactly.
    fn to_f64(self) -> f64;
}

mod sealed {
    /// The kernel hooks of [`Element`](super::Element). Outside the crate
    /// this trait cannot be named, so no other type can be an element.
    pub trait Kernel: Copy + Send + Sync {
        fn mul(self, rhs: Self) -> Self;
        fn add(self, rhs: Self) -> Self;
        /// Runs one `mr × nr` output tile against a packed B strip,
        /// accumulating in ascending-`k` order. `first` selects
        /// zero-initialised accumulators (first slab) versus continuing
        /// from the partial sums already stored in `c`. Implementations may
        /// use SIMD only if the result stays bit-identical to
        /// `scalar_tile`.
        #[allow(clippy::too_many_arguments)] // one GEMM operand descriptor per slot
        fn run_tile(
            a: &[Self],
            lda: usize,
            bstrip: &[Self],
            ks: usize,
            c: &mut [Self],
            ldc: usize,
            mr: usize,
            nr: usize,
            first: bool,
        );
    }
}

impl Element for f64 {
    const ZERO: f64 = 0.0;
    #[inline(always)]
    fn from_f64(v: f64) -> f64 {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
}

impl sealed::Kernel for f64 {
    #[inline(always)]
    fn mul(self, rhs: f64) -> f64 {
        self * rhs
    }
    #[inline(always)]
    fn add(self, rhs: f64) -> f64 {
        self + rhs
    }
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // one GEMM operand descriptor per slot
    fn run_tile(
        a: &[f64],
        lda: usize,
        bstrip: &[f64],
        ks: usize,
        c: &mut [f64],
        ldc: usize,
        mr: usize,
        nr: usize,
        first: bool,
    ) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if mr == MR && nr == NR && simd::tile_f64(a, lda, bstrip, ks, c, ldc, first) {
            return;
        }
        scalar_tile(a, lda, bstrip, ks, c, ldc, mr, nr, first);
    }
}

impl Element for f32 {
    const ZERO: f32 = 0.0;
    #[inline(always)]
    fn from_f64(v: f64) -> f32 {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
}

impl sealed::Kernel for f32 {
    #[inline(always)]
    fn mul(self, rhs: f32) -> f32 {
        self * rhs
    }
    #[inline(always)]
    fn add(self, rhs: f32) -> f32 {
        self + rhs
    }
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // one GEMM operand descriptor per slot
    fn run_tile(
        a: &[f32],
        lda: usize,
        bstrip: &[f32],
        ks: usize,
        c: &mut [f32],
        ldc: usize,
        mr: usize,
        nr: usize,
        first: bool,
    ) {
        // Baseline x86-64 (SSE2) has no 8-lane f32 arithmetic, so the
        // portable tile runs built for the widest vectors the host offers.
        run_widest(&mut Tile { a, lda, bstrip, ks, c, ldc, mr, nr, first });
    }
}

/// A kernel body built twice: once for the baseline target and, on x86-64
/// hosts with AVX2, once with AVX2 enabled ([`run_widest`] picks). `run`
/// must be `#[inline(always)]` so the AVX2 build actually inlines it. Both
/// builds are the same Rust operations in the same order — IEEE multiply
/// and add round identically at any vector width, and Rust never contracts
/// them into FMA — so the choice cannot change a bit of the result.
///
/// Five kernels use it, all with lanes contiguous in memory: the SpMM lane
/// groups and the fused block-update tiles (PERFORMANCE.md, "Block-CG
/// kernels", has the measurements), the `f32` GEMM tile, the one-row
/// packed product ("Warm requests") and the one-row product against an
/// unpacked operand ("Cold requests"). The lane paths of the reductions read
/// one element of each of several rows per step; built with AVX2 they ran
/// slower, so they are built once.
pub(crate) trait Multiversion {
    fn run(&mut self);
}

/// Runs `kernel` with the widest vector instructions the host offers.
pub(crate) fn run_widest<K: Multiversion>(kernel: &mut K) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if simd::run_avx2(kernel) {
        return;
    }
    kernel.run();
}

/// What [`lane_groups`] does with a tail of sums that fills no group of
/// 8, 4 or 2 lanes exactly.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneTail {
    /// Run it in the next wider group: 5–7 sums take 8 lanes, 3 take 4,
    /// and the kernel fills the spare lanes and never stores them. For the
    /// sweeps over a matrix (SSOR, SpMM), which are bound by streaming the
    /// matrix and by each row's dependence chain: spare lanes ride in the
    /// same loads and cost less than another sweep.
    Pad,
    /// Split it into exact groups: 5–7 sums become 4 + 2 + 1, 3 become
    /// 2 + 1. For the reductions ([`gram`](crate::gram),
    /// [`row_norms`](crate::row_norms)), where every lane streams a vector
    /// of its own, so a spare lane would cost a whole vector's loads.
    Split,
}

/// Splits `total` independent sums into groups of 8, 4, 2 or 1 lanes:
/// full groups of 8 first, then the tail as `tail` says. Yields `(first,
/// count, lanes)` per group, with `count <= lanes` sums starting at
/// `first`. The grouping depends on `total` only, never on the pool.
pub(crate) fn lane_groups(
    total: usize,
    tail: LaneTail,
) -> impl Iterator<Item = (usize, usize, usize)> {
    let mut first = 0;
    std::iter::from_fn(move || {
        let left = total - first;
        let (count, lanes) = match left {
            0 => return None,
            8.. => (8, 8),
            _ if tail == LaneTail::Pad => (left, left.next_power_of_two()),
            4.. => (4, 4),
            2.. => (2, 2),
            _ => (1, 1),
        };
        let group = (first, count, lanes);
        first += count;
        Some(group)
    })
}

/// Splits each of `rows` (equal lengths) into fixed `band`-element pieces
/// and groups the pieces by band: entry `b` holds band `b`'s piece of
/// every row, in row order — one pool job's share of a row-major block
/// whose jobs own column ranges. `n` is the row length.
pub(crate) fn bands_of<'a>(
    rows: impl IntoIterator<Item = &'a mut [f64]>,
    n: usize,
    band: usize,
) -> Vec<Vec<&'a mut [f64]>> {
    let band = band.max(1);
    let mut bands: Vec<Vec<&mut [f64]>> = (0..n.div_ceil(band)).map(|_| Vec::new()).collect();
    for row in rows {
        for (pieces, piece) in bands.iter_mut().zip(row.chunks_mut(band)) {
            pieces.push(piece);
        }
    }
    bands
}

/// Per-element transform fused into the microkernel's final store, applied
/// while the output tile is still hot in L1. Replicates the rounding of the
/// separate passes it replaces exactly: the raw ascending-`k` sum is fully
/// formed first, then the epilogue expression is evaluated once on it.
pub(crate) enum Epilogue<'a, T> {
    /// Plain product: store the raw sum.
    None,
    /// `offset + scale * acc` — the trunk-combine output transform.
    Affine { offset: T, scale: T },
    /// `acc + bias[col]` — a fused dense-layer bias row broadcast.
    Bias(&'a [T]),
    /// `f(acc + bias[col])` — fused dense layer + activation.
    BiasMap { bias: &'a [T], f: &'a (dyn Fn(T) -> T + Sync) },
}

impl<T: Element> Epilogue<'_, T> {
    #[inline(always)]
    fn apply(&self, acc: T, col: usize) -> T {
        match self {
            Epilogue::None => acc,
            Epilogue::Affine { offset, scale } => offset.add(scale.mul(acc)),
            Epilogue::Bias(bias) => acc.add(bias[col]),
            Epilogue::BiasMap { bias, f } => f(acc.add(bias[col])),
        }
    }
}

/// The right-hand operand of a product, packed once into the kernel's
/// `KC × NR` panel layout so it can be reused by any number of products
/// (build one with [`Matrix::pack_row_chunks`](crate::Matrix::pack_row_chunks)).
///
/// Layout: `NR`-wide column strips are concatenated; each strip holds its
/// `k` reduction rows in ascending order with the `NR` values of one row
/// contiguous (`strip[kk * NR + lane]`), so slab `s` of a strip is the
/// contiguous `KC × NR` panel starting at row `s * KC`. The tail strip is
/// zero-padded to `NR` lanes — padded lanes accumulate garbage that is
/// never stored back. Strips are outermost so that any run of whole
/// strips, i.e. any `NR`-aligned range of operand rows, is one contiguous
/// region: that is what lets `pack_rows_chunked` pack each chunk into
/// place from its own job.
pub struct PackedRhs<T> {
    buf: Vec<T>,
    k: usize,
    n: usize,
}

impl<T> PackedRhs<T> {
    /// Rows of the operand before packing: the output columns of a product
    /// with it.
    pub fn rows(&self) -> usize {
        self.n
    }

    /// Columns of the operand before packing: the reduction length.
    pub fn cols(&self) -> usize {
        self.k
    }

    /// `(rows, cols)` of the operand before packing.
    pub fn shape(&self) -> (usize, usize) {
        (self.n, self.k)
    }

    /// Bytes held by the packed panels (the tail strip's padding included).
    pub fn bytes(&self) -> usize {
        self.buf.len() * std::mem::size_of::<T>()
    }

    /// The `ks × NR` panel of strip `strip` for slab `s`.
    #[inline]
    fn panel(&self, s: usize, strip: usize) -> &[T] {
        let start = strip * self.k * NR + s * KC * NR;
        &self.buf[start..start + slab_len(self.k, s) * NR]
    }
}

impl<T> std::fmt::Debug for PackedRhs<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedRhs").field("rows", &self.n).field("cols", &self.k).finish()
    }
}

#[inline]
fn slab_len(k: usize, s: usize) -> usize {
    (k - s * KC).min(KC)
}

#[inline]
fn slab_count(k: usize) -> usize {
    // One (empty) slab even at k == 0 so the store + epilogue still run.
    k.div_ceil(KC).max(1)
}

/// Zeroed panel storage for an operand with `n` rows (output columns) and
/// reduction length `k`.
fn panel_storage<T: Element>(k: usize, n: usize) -> Vec<T> {
    vec![T::ZERO; n.div_ceil(NR) * NR * k]
}

/// Packs `rows` rows of a row-major `rows × k` block into `panels`, the
/// storage of the whole strips those rows start (strip-aligned).
fn pack_rows_into<T: Element>(panels: &mut [T], src: &[T], rows: usize, k: usize) {
    for (strip, panel) in panels.chunks_mut(k * NR).enumerate() {
        let j0 = strip * NR;
        let width = NR.min(rows - j0);
        for (kk, lanes) in panel.chunks_exact_mut(NR).enumerate() {
            for (lane, v) in lanes.iter_mut().enumerate().take(width) {
                *v = src[(j0 + lane) * k + kk];
            }
        }
    }
}

/// Packs `src` into panel form. `src` is row-major `k × n` when
/// `transposed` is false, or row-major `n × k` (the un-transposed operand
/// of an `A·Bᵀ` product) when true — both land in the identical packed
/// layout, which is how the two public multiplication shapes share one
/// microkernel.
pub(crate) fn pack_b<T: Element>(src: &[T], k: usize, n: usize, transposed: bool) -> PackedRhs<T> {
    let mut buf = panel_storage(k, n);
    if k == 0 || n == 0 {
        return PackedRhs { buf, k, n };
    }
    if transposed {
        pack_rows_into(&mut buf, src, n, k);
    } else {
        for (strip, panel) in buf.chunks_mut(k * NR).enumerate() {
            let j0 = strip * NR;
            let width = NR.min(n - j0);
            for (kk, lanes) in panel.chunks_exact_mut(NR).enumerate() {
                lanes[..width].copy_from_slice(&src[kk * n + j0..kk * n + j0 + width]);
            }
        }
    }
    PackedRhs { buf, k, n }
}

/// Packs an `n × k` row-major operand (the un-transposed right-hand side
/// of `A·Bᵀ`) that `produce` computes chunk by chunk: each chunk of rows
/// runs as one job on the current pool, and its block is packed straight
/// into its own panels and dropped, so the unpacked operand is never held
/// whole. `data` views a produced block as its row-major elements.
///
/// Chunks are `chunk_rows` rounded up to a multiple of [`NR`], so every
/// chunk owns whole strips; boundaries depend on `n` and `chunk_rows`
/// only. Every chunk runs, and the error returned is the one of the
/// lowest-indexed failing chunk, whatever the scheduling.
pub(crate) fn pack_rows_chunked<T, V, E, F>(
    n: usize,
    k: usize,
    chunk_rows: usize,
    produce: F,
    data: fn(&V) -> &[T],
) -> Result<PackedRhs<T>, E>
where
    T: Element,
    E: Send + From<LinalgError>,
    F: Fn(Range<usize>) -> Result<V, E> + Sync,
{
    let mut buf = panel_storage(k, n);
    if n == 0 || k == 0 {
        return Ok(PackedRhs { buf, k, n });
    }
    // Clamped to the row count first: a chunk past it is one chunk either
    // way, and rounding `usize::MAX` up would wrap to zero.
    let rows_per_chunk = chunk_rows.clamp(1, n).next_multiple_of(NR);
    let region = rows_per_chunk * k;
    let mut failures: Vec<Option<E>> = (0..n.div_ceil(rows_per_chunk)).map(|_| None).collect();
    let jobs: Vec<Job<'_>> = buf
        .chunks_mut(region)
        .zip(failures.iter_mut())
        .enumerate()
        .map(|(i, (panels, failure))| {
            let produce = &produce;
            Box::new(move || {
                let rows = i * rows_per_chunk..((i + 1) * rows_per_chunk).min(n);
                let len = rows.len();
                match produce(rows) {
                    Ok(block) if data(&block).len() == len * k => {
                        pack_rows_into(panels, data(&block), len, k);
                    }
                    Ok(block) => {
                        *failure = Some(E::from(LinalgError::DataLengthMismatch {
                            expected: len * k,
                            actual: data(&block).len(),
                        }));
                    }
                    Err(e) => *failure = Some(e),
                }
            }) as Job<'_>
        })
        .collect();
    parallel::run_scope(jobs);
    match failures.into_iter().flatten().next() {
        Some(e) => Err(e),
        None => Ok(PackedRhs { buf, k, n }),
    }
}

/// Portable microkernel: an `mr × nr` tile accumulated over one packed
/// strip in ascending-`k` order. The accumulator array is sized `MR × NR`
/// with fixed bounds so LLVM unrolls and vectorizes the lane loop; partial
/// tiles simply compute (and discard) the padded lanes. Always inlined, so
/// that [`Tile`]'s AVX2 build vectorizes it with 256-bit registers.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // full GEMM problem descriptor
fn scalar_tile<T: Element>(
    a: &[T],
    lda: usize,
    bstrip: &[T],
    ks: usize,
    c: &mut [T],
    ldc: usize,
    mr: usize,
    nr: usize,
    first: bool,
) {
    let mut acc = [[T::ZERO; NR]; MR];
    if !first {
        for (r, row) in acc.iter_mut().enumerate().take(mr) {
            row[..nr].copy_from_slice(&c[r * ldc..r * ldc + nr]);
        }
    }
    let acc = tile_sums(acc, a, lda, bstrip, ks, mr);
    for (r, row) in acc.iter().enumerate().take(mr) {
        c[r * ldc..r * ldc + nr].copy_from_slice(&row[..nr]);
    }
}

/// The `k` loop of [`scalar_tile`], taking and returning the accumulators
/// by value and reading each `NR`-lane row of the strip as an array. With
/// the tile's loads and stores outside it, LLVM keeps the accumulators in
/// vector registers; in one body with them it kept them on the stack, and
/// the `f32` tile ran about 5× slower (a 4,851 × 128 by 128 × 128 product
/// on one thread: 42.6–45.7 ms against 8.6–9.3 ms, 2-vCPU Xeon).
#[inline(always)]
fn tile_sums<T: Element>(
    mut acc: [[T; NR]; MR],
    a: &[T],
    lda: usize,
    bstrip: &[T],
    ks: usize,
    mr: usize,
) -> [[T; NR]; MR] {
    for (kk, brow) in bstrip[..ks * NR].as_chunks::<NR>().0.iter().enumerate() {
        for (r, row) in acc.iter_mut().enumerate().take(mr) {
            let av = a[r * lda + kk];
            for (v, &b) in row.iter_mut().zip(brow) {
                *v = v.add(av.mul(b));
            }
        }
    }
    acc
}

/// One [`scalar_tile`] call, run through [`run_widest`]: the `f32` tile.
struct Tile<'a, T> {
    a: &'a [T],
    lda: usize,
    bstrip: &'a [T],
    ks: usize,
    c: &'a mut [T],
    ldc: usize,
    mr: usize,
    nr: usize,
    first: bool,
}

impl<T: Element> Multiversion for Tile<'_, T> {
    #[inline(always)]
    fn run(&mut self) {
        let Tile { a, lda, bstrip, ks, ldc, mr, nr, first, .. } = *self;
        scalar_tile(a, lda, bstrip, ks, self.c, ldc, mr, nr, first);
    }
}

/// Applies `epi` to an `mr × nr` output tile in place (last slab only).
#[inline]
fn epilogue_tile<T: Element>(
    c: &mut [T],
    ldc: usize,
    col0: usize,
    mr: usize,
    nr: usize,
    epi: &Epilogue<'_, T>,
) {
    if matches!(epi, Epilogue::None) {
        return;
    }
    for r in 0..mr {
        for j in 0..nr {
            let v = c[r * ldc + j];
            c[r * ldc + j] = epi.apply(v, col0 + j);
        }
    }
}

/// Runs `nrows` output rows of `lhs · packed` into `out`, tile by tile.
/// `out` must be zeroed (`Matrix::zeros` storage); each element is written
/// by exactly one microkernel store per slab.
fn gemm_band<T: Element>(
    lhs: &[T],
    packed: &PackedRhs<T>,
    out: &mut [T],
    nrows: usize,
    epi: &Epilogue<'_, T>,
) {
    let (k, n) = (packed.k, packed.n);
    let strips = n.div_ceil(NR);
    let slabs = slab_count(k);
    for s in 0..slabs {
        let ks = slab_len(k, s);
        let last = s + 1 == slabs;
        let first = s == 0;
        // Cache loop order: the B strip (≤ 16 KiB) is the innermost reuse
        // unit — it stays in L1 while every row tile of the MC chunk runs
        // against it; the chunk's A rows stay in L2 across strips.
        let mut rc = 0;
        while rc < nrows {
            let mc = MC.min(nrows - rc);
            for strip in 0..strips {
                let j0 = strip * NR;
                let nr = NR.min(n - j0);
                let bstrip = packed.panel(s, strip);
                let mut r = rc;
                while r < rc + mc {
                    let mr = MR.min(rc + mc - r);
                    let a = &lhs[r * k + s * KC..];
                    let c = &mut out[r * n + j0..];
                    T::run_tile(a, k, bstrip, ks, c, n, mr, nr, first);
                    if last {
                        epilogue_tile(c, n, j0, mr, nr, epi);
                    }
                    r += mr;
                }
            }
            rc += mc;
        }
    }
}

/// Naive reference path for tiny products: plain ascending-`k` loops with
/// the epilogue applied after each row's sums are complete. Bit-identical
/// to the blocked path by the determinism contract above; also reused as
/// the property-test and benchmark reference via `Matrix::matmul_naive`,
/// and, built through [`run_widest`], as the one-row product ([`OneRowInPlace`]).
#[inline(always)]
#[allow(clippy::too_many_arguments)] // full GEMM problem descriptor
pub(crate) fn gemm_naive<T: Element>(
    lhs: &[T],
    rhs: &[T],
    out: &mut [T],
    m: usize,
    k: usize,
    n: usize,
    rhs_transposed: bool,
    epi: &Epilogue<'_, T>,
) {
    for r in 0..m {
        let a = &lhs[r * k..(r + 1) * k];
        let o = &mut out[r * n..(r + 1) * n];
        if rhs_transposed {
            for (c, v) in o.iter_mut().enumerate() {
                let b = &rhs[c * k..(c + 1) * k];
                let mut acc = T::ZERO;
                for i in 0..k {
                    acc = acc.add(a[i].mul(b[i]));
                }
                *v = acc;
            }
        } else {
            for (i, &av) in a.iter().enumerate() {
                let b = &rhs[i * n..(i + 1) * n];
                for (v, &bv) in o.iter_mut().zip(b) {
                    *v = v.add(av.mul(bv));
                }
            }
        }
        for (c, v) in o.iter_mut().enumerate() {
            *v = epi.apply(*v, c);
        }
    }
}

/// The single entry point for every dense product: `out = lhs · rhs`
/// (`m × k` times `k × n`, or times the transpose of a row-major `n × k`
/// `rhs` when `rhs_transposed`), with `epi` fused into the final store.
/// `out` must be the zeroed `m × n` destination.
///
/// Tiny products run the naive loop directly, and so does one row against
/// an untransposed `rhs` ([`OneRowInPlace`]); everything else packs `rhs`
/// once and row-band-dispatches to the worker pool via [`dispatch_rows`].
#[allow(clippy::too_many_arguments)] // full GEMM problem descriptor
pub(crate) fn gemm<T: Element>(
    lhs: &[T],
    rhs: &[T],
    out: &mut [T],
    m: usize,
    k: usize,
    n: usize,
    rhs_transposed: bool,
    epi: &Epilogue<'_, T>,
) {
    if m == 1 && !rhs_transposed {
        run_widest(&mut OneRowInPlace { a: lhs, rhs, out, k, n, epi });
        return;
    }
    if m * k * n <= TINY_GEMM_WORK {
        gemm_naive(lhs, rhs, out, m, k, n, rhs_transposed, epi);
        return;
    }
    let packed = pack_b(rhs, k, n, rhs_transposed);
    dispatch_rows(lhs, out, m, k, n, |lhs_rows, out_band, nrows| {
        gemm_band(lhs_rows, &packed, out_band, nrows, epi);
    });
}

/// The one-row product `out = epi(a · rhs)` against a row-major `k × n`
/// `rhs` read where it lies: one design's input against a layer's weights,
/// each used once, so packing them would copy every weight for a single
/// pass. It is [`gemm_naive`]'s row, whose lanes run along the row of
/// `rhs` — the same operations in the same order as the tile path, so the
/// bits are the same — built for the widest vectors the host offers.
struct OneRowInPlace<'a, 'e, T> {
    a: &'a [T],
    rhs: &'a [T],
    out: &'a mut [T],
    k: usize,
    n: usize,
    epi: &'a Epilogue<'e, T>,
}

impl<T: Element> Multiversion for OneRowInPlace<'_, '_, T> {
    #[inline(always)]
    fn run(&mut self) {
        gemm_naive(self.a, self.rhs, self.out, 1, self.k, self.n, false, self.epi);
    }
}

/// `out = lhs · packed` with `epi` fused into the final store, against an
/// operand packed ahead of time (`m × k` times the packed `k × n`). `out`
/// must be the zeroed `m × n` destination. Always a blocked path — one row
/// runs [`OneRow`], more run [`gemm_band`] — and both are bit-identical to
/// the naive loop [`gemm`] takes for tiny products, so a packed operand
/// gives the same bits as the unpacked product it stands for.
///
/// Runs on the calling thread. A pre-packed operand is reused against few
/// rows — one design's embedding against a whole mesh — and below
/// [`MIN_BAND_ROWS`] rows [`dispatch_rows`] would run the product as one
/// band on the calling thread anyway; a product that never enters the
/// pool cannot reach its job-panic re-raise.
pub(crate) fn gemm_packed<T: Element>(
    lhs: &[T],
    packed: &PackedRhs<T>,
    out: &mut [T],
    m: usize,
    epi: &Epilogue<'_, T>,
) {
    if m == 1 {
        run_widest(&mut OneRow { a: lhs, packed, out, epi });
    } else {
        gemm_band(lhs, packed, out, m, epi);
    }
}

/// The one-row product `out = epi(a · packed)`: one design's embedding
/// against a whole mesh's basis. Each strip is read once, front to back
/// (its slabs are contiguous), into an `NR`-lane accumulator that carries
/// the partial sums from slab to slab, and `epi` is applied to the
/// finished sums as they are stored. Every element sees the operations of
/// the tile path in the same order — a zero start, then `acc + a·b` in
/// ascending `k` with separate multiply and add, then the epilogue — so
/// the bits are the same.
struct OneRow<'a, 'e, T> {
    a: &'a [T],
    packed: &'a PackedRhs<T>,
    out: &'a mut [T],
    epi: &'a Epilogue<'e, T>,
}

impl<T: Element> Multiversion for OneRow<'_, '_, T> {
    #[inline(always)]
    fn run(&mut self) {
        let k = self.packed.k;
        let a = &self.a[..k];
        for (strip, out) in self.out.chunks_mut(NR).enumerate() {
            let bstrip = &self.packed.buf[strip * k * NR..(strip + 1) * k * NR];
            let mut acc = [T::ZERO; NR];
            for (&av, brow) in a.iter().zip(bstrip.chunks_exact(NR)) {
                for (v, &b) in acc.iter_mut().zip(brow) {
                    *v = v.add(av.mul(b));
                }
            }
            for (j, (o, &v)) in out.iter_mut().zip(&acc).enumerate() {
                *o = self.epi.apply(v, strip * NR + j);
            }
        }
    }
}

/// The single pool-integration point for the multiplication kernels:
/// splits the `rows × n` output into fixed row bands of roughly
/// [`MATMUL_CHUNK_WORK`] multiply-adds each and runs
/// `kernel(lhs_rows, out_band, band_rows)` for every band on the current
/// pool. Products under [`PARALLEL_MATMUL_THRESHOLD`] multiply-adds run the
/// kernel directly on the calling thread — the small-matrix fast path.
///
/// Each output row is produced in full by exactly one kernel invocation,
/// so the result is bitwise independent of how bands map to threads; band
/// boundaries depend only on `(rows, k, n)`.
pub(crate) fn dispatch_rows<T, K>(
    lhs: &[T],
    out: &mut [T],
    rows: usize,
    k: usize,
    n: usize,
    kernel: K,
) where
    T: Element,
    K: Fn(&[T], &mut [T], usize) + Sync,
{
    let work_per_row = k * n;
    if rows * work_per_row < PARALLEL_MATMUL_THRESHOLD || rows < 2 {
        kernel(lhs, out, rows);
        return;
    }
    let band_rows =
        (MATMUL_CHUNK_WORK / work_per_row.max(1)).max(MIN_BAND_ROWS).next_multiple_of(MR).min(rows);
    parallel::par_chunks_mut(out, band_rows * n, |band, out_band| {
        let r0 = band * band_rows;
        let nrows = out_band.len() / n.max(1);
        kernel(&lhs[r0 * k..(r0 + nrows) * k], out_band, nrows);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_groups_cover_every_sum_once() {
        let groups = |total, tail| lane_groups(total, tail).collect::<Vec<_>>();
        assert_eq!(groups(0, LaneTail::Pad), []);
        assert_eq!(groups(7, LaneTail::Pad), [(0, 7, 8)]);
        assert_eq!(groups(7, LaneTail::Split), [(0, 4, 4), (4, 2, 2), (6, 1, 1)]);
        assert_eq!(groups(11, LaneTail::Pad), [(0, 8, 8), (8, 3, 4)]);
        assert_eq!(groups(11, LaneTail::Split), [(0, 8, 8), (8, 2, 2), (10, 1, 1)]);
        for total in 0..=40 {
            for tail in [LaneTail::Pad, LaneTail::Split] {
                let mut next = 0;
                for (first, count, lanes) in lane_groups(total, tail) {
                    assert_eq!(first, next);
                    assert!(count >= 1 && count <= lanes && [1, 2, 4, 8].contains(&lanes));
                    assert!(tail == LaneTail::Pad || count == lanes, "split groups are exact");
                    next += count;
                }
                assert_eq!(next, total);
            }
        }
    }
}
