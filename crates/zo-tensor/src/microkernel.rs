//! Packed register-tiled GEMM micro-kernel (paper Sec. 5.1's
//! "hand-optimized" CPU compute floor), dispatched at run time to the
//! host's vector width.
//!
//! All three matmul variants in [`mod@crate::matmul`] lower onto one
//! driver, `gemm_packed`: the `k` dimension is split into [`KC`]-deep
//! panels,
//! the operands for each panel are repacked into contiguous buffers in a
//! reusable thread-local scratch, and an `MR`×`NR` register-tiled
//! micro-kernel drives plain multiply–add chains over the packed data.
//! Packing is what turns the transposed variants' strided walks (the old
//! `a_bt` kernel dotted a *column* of row-major `B` per output element)
//! into the same contiguous inner loop as the plain variant — each
//! variant differs only in its pack closures.
//!
//! # Two kernels, one driver
//!
//! * The portable kernel is stable Rust over an [`MR`]×[`NR`] (4×8) tile
//!   that the autovectorizer maps onto baseline x86-64's SSE2 registers.
//!   It runs on every target and is the oracle the tests hold the other
//!   kernel to.
//! * On an x86-64 CPU with AVX, `gemm_packed` takes the `avx` kernel: an
//!   [`MR`]×16 tile of eight `__m256` accumulators over 16-column packed
//!   `B` blocks, ≈ 2× the portable kernel's GFLOP/s on the benchmark's
//!   shapes. The check is one `is_x86_feature_detected!("avx")` per call
//!   (a cached flag). No environment variable, config field or cargo
//!   feature selects the kernel: the CPU does.
//!
//! # Why bit-identity survives register tiling and the vector width
//!
//! The repo's load-bearing invariant is parallel ≡ serial, bit-identical
//! at any thread count, and it holds on either kernel, with the same
//! bits from both. It survives because every output element's
//! floating-point op sequence is a function of the `k` loop alone:
//!
//! * element `(i, j)` accumulates `acc = a[i,k]·b[k,j] + acc` for `k` in
//!   panel order, then adds one `acc` into `C` per panel — a fixed
//!   sequence determined entirely by `ka` and [`KC`];
//! * which tile owns the element, and how wide that tile is, changes
//!   *which register* (and which lane) holds its accumulator, never the
//!   sequence: row tails run the same per-element chain through a
//!   narrower monomorphized kernel, and column tails are zero-padded in
//!   the packed buffer but only valid columns are written back;
//! * row partitioning moves tile boundaries but boundaries carry no state
//!   — so any `parts` and any `ZO_THREADS` produce identical bits.
//!
//! # No fused multiply–add, on either kernel
//!
//! Each step is a multiply rounded to f32 and then an add rounded to
//! f32: `a * b + acc` in the portable kernel (not `f32::mul_add`, which
//! on the baseline target lowers to a per-element libm `fmaf` call), and
//! `_mm256_mul_ps` followed by `_mm256_add_ps` in the AVX kernel (never
//! an FMA intrinsic, and the kernel enables `avx` only, so the compiler
//! cannot contract the pair either). A fused op rounds once, so it would
//! move bits only on hosts that take the fast path. `scripts/ci.sh`'s
//! `lint_no_mul_add` refuses both spellings.
//!
//! # Two orders through the tiles
//!
//! A product with an inner dimension of at least `BLOCK_ORDER_MIN_K`
//! (64) runs in *block order*: each part packs its `A` tiles once per `k`
//! panel and packs `B` one column block at a time, just before the kernel
//! reads that block from L1 for every row tile. A shallower product runs
//! in *panel order*: it packs the whole `KC`×`n` `B` panel once and walks
//! it with one packed `A` tile at a time, so `C` is written along its
//! rows. The order in which tiles run moves no bits, by the argument
//! above.

use core::cell::RefCell;
use core::ops::Range;

/// Depth of one packed `k` panel. Per-element accumulation order depends
/// on this constant (one `C += acc` per panel), so changing it changes
/// the trajectory fingerprint — it is part of the numerics, not just a
/// tuning knob.
pub const KC: usize = 128;

/// Rows per micro-tile (register rows), on both kernels.
pub const MR: usize = 4;

/// Columns per micro-tile of the portable kernel. 8 f32 columns × 4
/// rows = 32 accumulators = 8 of the 16 SSE2 xmm registers, leaving room
/// for the `A` broadcast and `B` loads; 16 columns would spill on the
/// baseline target. (The AVX kernel's tile is 16 columns wide.)
pub const NR: usize = 8;

/// Products with an inner dimension at least this deep run in block
/// order, shallower ones in panel order. Block order writes `C` one
/// column block at a time down all of a part's rows, `ldc` apart; below
/// this depth the kernel's short `k` chain no longer covers those strided
/// `C` accesses, and re-reading a packed panel is cheaper. Measured on
/// AVX in both orders (EXPERIMENTS.md, "GEMM at the host's vector
/// width"): at `k` = 16 and 32 block order ran up to 1.9× slower on 256
/// rows × 8192 columns, at 48 up to 1.10×; from 64 it tied or won, by
/// up to 27 % where the `B` panel outgrows L2.
const BLOCK_ORDER_MIN_K: usize = 64;

/// Reusable per-thread packing scratch: `a` holds the packed `A` tile (in
/// block order, all of a part's tiles), `b` the packed `B` panel (in
/// block order, one block). Reused across calls on the same worker, so
/// steady-state packing allocates nothing.
#[derive(Default)]
struct PackScratch {
    a: Vec<f32>,
    b: Vec<f32>,
}

thread_local! {
    static SCRATCH: RefCell<PackScratch> = RefCell::new(PackScratch::default());
}

/// The portable inner kernel over one packed tile pair: `M` rows of
/// packed `A` (`ap[k*M + r]`) against NR columns of packed `B`
/// (`bp[k*NR + c]`), accumulating into `M`×`jw` elements of `c`, whose
/// rows are `ldc` apart.
///
/// `M` is a const generic so row tails (M < MR) monomorphize into kernels
/// running the identical per-element arithmetic with fewer accumulator
/// rows. `bp` columns `>= jw` hold zeros and are never written back.
// The index-based loop shape below is load-bearing: the `0..M` /
// `0..NR` counted loops over const bounds are what LLVM fully unrolls
// and maps onto vector registers at baseline x86-64. The
// iterator-chain form clippy prefers (zip over `acc.iter_mut()`)
// measured ~7× slower at 512³ — it defeats the unroll.
#[allow(clippy::assign_op_pattern, clippy::needless_range_loop)]
#[inline(always)]
fn kernel_m<const M: usize>(ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize, jw: usize) {
    let mut acc = [[0.0f32; NR]; M];
    // chunks_exact pairs (A column, B row) per k step with no bounds
    // checks; the fully unrolled M×NR body keeps every accumulator in a
    // register across the k loop.
    for (ak, bk) in ap.chunks_exact(M).zip(bp.chunks_exact(NR)) {
        for r in 0..M {
            let a = ak[r];
            for c in 0..NR {
                acc[r][c] = a * bk[c] + acc[r][c];
            }
        }
    }
    for r in 0..M {
        for (cv, av) in c[r * ldc..r * ldc + jw].iter_mut().zip(&acc[r][..jw]) {
            *cv += *av;
        }
    }
}

/// The portable kernel for an `mh`-row tile (`1 ≤ mh ≤ MR`).
fn portable_tile(mh: usize, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize, jw: usize) {
    match mh {
        4 => kernel_m::<4>(ap, bp, c, ldc, jw),
        3 => kernel_m::<3>(ap, bp, c, ldc, jw),
        2 => kernel_m::<2>(ap, bp, c, ldc, jw),
        _ => kernel_m::<1>(ap, bp, c, ldc, jw),
    }
}

/// Drives the packed micro-kernel over output rows `rows` of a `(·, n)`
/// product with inner dimension `ka`; `cd` holds exactly those rows, each
/// `ldc ≥ n` elements apart. Takes the AVX kernel when the CPU has AVX,
/// the portable one otherwise; both give the same bits.
///
/// The operand layouts live in the two pack closures:
///
/// * `pack_a(ap, row, mh, k0, kc)` writes the `mh`-row tile starting at
///   global output row `row`, panel `k0..k0+kc`, as `ap[k*mh + r]`;
/// * `pack_b(bp, nr, k0, kc, cols)` writes columns `cols` of the panel
///   as `nr`-column blocks, `bp[jb*kc*nr + k*nr + c]`, zero-padding the
///   final partial block.
pub(crate) fn gemm_packed(
    rows: Range<usize>,
    ka: usize,
    n: usize,
    cd: &mut [f32],
    ldc: usize,
    pack_a: impl Fn(&mut [f32], usize, usize, usize, usize),
    pack_b: impl Fn(&mut [f32], usize, usize, usize, Range<usize>),
) {
    #[cfg(target_arch = "x86_64")]
    if avx::available() {
        let tile = |mh, ap: &[f32], bp: &[f32], c: &mut [f32], ldc, jw| {
            // SAFETY: `available` confirmed the CPU supports AVX.
            unsafe { avx::tile(mh, ap, bp, c, ldc, jw) }
        };
        drive(avx::NR, rows, ka, n, cd, ldc, pack_a, pack_b, tile);
        return;
    }
    gemm_packed_portable(rows, ka, n, cd, ldc, pack_a, pack_b);
}

/// [`gemm_packed`] on the portable kernel, whatever the CPU.
fn gemm_packed_portable(
    rows: Range<usize>,
    ka: usize,
    n: usize,
    cd: &mut [f32],
    ldc: usize,
    pack_a: impl Fn(&mut [f32], usize, usize, usize, usize),
    pack_b: impl Fn(&mut [f32], usize, usize, usize, Range<usize>),
) {
    drive(NR, rows, ka, n, cd, ldc, pack_a, pack_b, portable_tile);
}

/// The one tile loop behind both kernels: `tile(mh, ap, bp, c, ldc, jw)`
/// runs an `mh`-row, `nr`-column register tile whose output starts at
/// `c[0]`.
#[allow(clippy::too_many_arguments)]
fn drive(
    nr: usize,
    rows: Range<usize>,
    ka: usize,
    n: usize,
    cd: &mut [f32],
    ldc: usize,
    pack_a: impl Fn(&mut [f32], usize, usize, usize, usize),
    pack_b: impl Fn(&mut [f32], usize, usize, usize, Range<usize>),
    tile: impl Fn(usize, &[f32], &[f32], &mut [f32], usize, usize),
) {
    if n == 0 || rows.is_empty() {
        return;
    }
    let local_m = rows.len();
    let block_order = ka >= BLOCK_ORDER_MIN_K;
    let kc_max = KC.min(ka);
    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let PackScratch { a: ap, b: bp } = &mut *scratch;
        if block_order {
            ap.resize(kc_max * local_m, 0.0);
            bp.resize(kc_max * nr, 0.0);
        } else {
            ap.resize(kc_max * MR, 0.0);
            bp.resize(kc_max * nr * n.div_ceil(nr), 0.0);
        }
        for k0 in (0..ka).step_by(KC) {
            let kc = KC.min(ka - k0);
            if block_order {
                for li0 in (0..local_m).step_by(MR) {
                    let mh = MR.min(local_m - li0);
                    pack_a(&mut ap[li0 * kc..], rows.start + li0, mh, k0, kc);
                }
                for j0 in (0..n).step_by(nr) {
                    let jw = nr.min(n - j0);
                    pack_b(bp, nr, k0, kc, j0..j0 + jw);
                    for li0 in (0..local_m).step_by(MR) {
                        let mh = MR.min(local_m - li0);
                        let apk = &ap[li0 * kc..(li0 + mh) * kc];
                        tile(mh, apk, &bp[..kc * nr], &mut cd[li0 * ldc + j0..], ldc, jw);
                    }
                }
            } else {
                pack_b(bp, nr, k0, kc, 0..n);
                for li0 in (0..local_m).step_by(MR) {
                    let mh = MR.min(local_m - li0);
                    pack_a(ap, rows.start + li0, mh, k0, kc);
                    let apk = &ap[..kc * mh];
                    for (jb, j0) in (0..n).step_by(nr).enumerate() {
                        let jw = nr.min(n - j0);
                        let bpk = &bp[jb * kc * nr..(jb + 1) * kc * nr];
                        tile(mh, apk, bpk, &mut cd[li0 * ldc + j0..], ldc, jw);
                    }
                }
            }
        }
    });
}

/// The AVX kernel: an [`MR`]×16 tile of `__m256` accumulators, each step
/// `_mm256_mul_ps` then `_mm256_add_ps` — the portable kernel's two
/// roundings per element, eight lanes at a time. Both kernels run under
/// the MXCSR state Rust leaves in place (no flush-to-zero, no
/// denormals-are-zero), so subnormals round alike in either.
///
/// The functions carry `#[target_feature(enable = "avx")]` themselves: a
/// closure or a caller does not pass the feature on, and without it every
/// intrinsic is an out-of-line call (a kernel built that way ran at
/// ≈ 0.6 GFLOP/s).
#[cfg(target_arch = "x86_64")]
mod avx {
    use core::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    /// Columns per AVX tile: two `__m256` of eight f32 lanes.
    pub(super) const NR: usize = 16;

    /// Whether this CPU has the AVX extension [`tile`] needs.
    pub(super) fn available() -> bool {
        std::is_x86_feature_detected!("avx")
    }

    /// The AVX kernel for an `mh`-row tile (`1 ≤ mh ≤ MR`); the arguments
    /// are the portable kernel's, with `bp` in 16-column blocks.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX ([`available`]).
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn tile(
        mh: usize,
        ap: &[f32],
        bp: &[f32],
        c: &mut [f32],
        ldc: usize,
        jw: usize,
    ) {
        // SAFETY: the caller guarantees AVX, which `kernel` needs.
        unsafe {
            match mh {
                4 => kernel::<4>(ap, bp, c, ldc, jw),
                3 => kernel::<3>(ap, bp, c, ldc, jw),
                2 => kernel::<2>(ap, bp, c, ldc, jw),
                _ => kernel::<1>(ap, bp, c, ldc, jw),
            }
        }
    }

    /// `M` rows of packed `A` against one 16-column block of packed `B`,
    /// accumulated into `M`×`jw` elements of `c` (rows `ldc` apart).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX.
    #[allow(clippy::needless_range_loop)]
    #[target_feature(enable = "avx")]
    #[inline]
    unsafe fn kernel<const M: usize>(ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize, jw: usize) {
        let mut acc = [[_mm256_setzero_ps(); 2]; M];
        for (ak, bk) in ap.chunks_exact(M).zip(bp.chunks_exact(NR)) {
            // SAFETY: `bk` holds NR = 16 readable f32 (two 32-byte
            // loads); `_mm256_loadu_ps` takes unaligned pointers.
            let (b0, b1) = unsafe {
                (
                    _mm256_loadu_ps(bk.as_ptr()),
                    _mm256_loadu_ps(bk.as_ptr().add(8)),
                )
            };
            for r in 0..M {
                let a = _mm256_set1_ps(ak[r]);
                acc[r][0] = _mm256_add_ps(_mm256_mul_ps(a, b0), acc[r][0]);
                acc[r][1] = _mm256_add_ps(_mm256_mul_ps(a, b1), acc[r][1]);
            }
        }
        for r in 0..M {
            let row = &mut c[r * ldc..r * ldc + jw];
            if jw == NR {
                // SAFETY: `row` holds NR = 16 readable and writable f32;
                // the loads and stores take unaligned pointers.
                unsafe {
                    let p = row.as_mut_ptr();
                    _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), acc[r][0]));
                    let p = p.add(8);
                    _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), acc[r][1]));
                }
            } else {
                let mut lanes = [0.0f32; NR];
                // SAFETY: `lanes` holds NR = 16 writable f32.
                unsafe {
                    _mm256_storeu_ps(lanes.as_mut_ptr(), acc[r][0]);
                    _mm256_storeu_ps(lanes.as_mut_ptr().add(8), acc[r][1]);
                }
                for (cv, av) in row.iter_mut().zip(&lanes) {
                    *cv += *av;
                }
            }
        }
    }
}

/// Packs an `mh`-row tile of row-major `A` `(m, ka)`: output rows are
/// `A` rows. Layout `ap[k*mh + r] = A[row+r, k0+k]`.
pub(crate) fn pack_a_rows(
    ad: &[f32],
    ka: usize,
    ap: &mut [f32],
    row: usize,
    mh: usize,
    k0: usize,
    kc: usize,
) {
    for r in 0..mh {
        let src = &ad[(row + r) * ka + k0..(row + r) * ka + k0 + kc];
        for (k, &v) in src.iter().enumerate() {
            ap[k * mh + r] = v;
        }
    }
}

/// Packs an `mh`-row tile of `Aᵀ` where `A` is row-major `(ka, m)`:
/// output rows are `A` *columns*, so each `k` step copies `mh`
/// contiguous elements of an `A` row.
pub(crate) fn pack_a_transposed(
    ad: &[f32],
    m: usize,
    ap: &mut [f32],
    row: usize,
    mh: usize,
    k0: usize,
    kc: usize,
) {
    for k in 0..kc {
        let src = &ad[(k0 + k) * m + row..(k0 + k) * m + row + mh];
        ap[k * mh..k * mh + mh].copy_from_slice(src);
    }
}

/// Packs columns `cols` of a `kc`-deep panel of row-major `B` `(ka, ·)`,
/// whose rows are `stride` elements apart, into `nr`-column blocks. The
/// final block's missing columns are zeroed (the scratch is reused
/// across calls, so stale values would otherwise leak in).
pub(crate) fn pack_b_rows(
    bd: &[f32],
    stride: usize,
    bp: &mut [f32],
    nr: usize,
    k0: usize,
    kc: usize,
    cols: Range<usize>,
) {
    for (jb, j0) in cols.clone().step_by(nr).enumerate() {
        let jw = nr.min(cols.end - j0);
        let dst = &mut bp[jb * kc * nr..(jb + 1) * kc * nr];
        if jw < nr {
            dst.fill(0.0);
        }
        for k in 0..kc {
            let src = &bd[(k0 + k) * stride + j0..(k0 + k) * stride + j0 + jw];
            dst[k * nr..k * nr + jw].copy_from_slice(src);
        }
    }
}

/// Packs columns `cols` of a `kc`-deep panel of `Bᵀ` where `B` is
/// row-major `(·, ka)` — the layout the input-gradient kernel
/// (`C += A · Bᵀ`) sees — into `nr`-column blocks. Each packed column is
/// a contiguous run of a `B` row, so the micro-kernel's inner loop
/// becomes contiguous multiply–adds instead of the old strided column
/// dot.
pub(crate) fn pack_b_transposed(
    bd: &[f32],
    ka: usize,
    bp: &mut [f32],
    nr: usize,
    k0: usize,
    kc: usize,
    cols: Range<usize>,
) {
    for (jb, j0) in cols.clone().step_by(nr).enumerate() {
        let jw = nr.min(cols.end - j0);
        let dst = &mut bp[jb * kc * nr..(jb + 1) * kc * nr];
        if jw < nr {
            dst.fill(0.0);
        }
        for c in 0..jw {
            let src = &bd[(j0 + c) * ka + k0..(j0 + c) * ka + k0 + kc];
            for (k, &v) in src.iter().enumerate() {
                dst[k * nr + c] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Which pack closures a product uses: `A·B`, `Aᵀ·B` or `A·Bᵀ`.
    #[derive(Clone, Copy, Debug)]
    enum Layout {
        Nn,
        Tn,
        Nt,
    }

    /// `c[i·ldc + j] += Σ op(a)·op(b)` over the `(m, k)`·`(k, n)` product
    /// stored in `layout`, on the dispatched kernel or the portable one.
    #[allow(clippy::too_many_arguments)]
    fn product(
        portable: bool,
        layout: Layout,
        (m, k, n): (usize, usize, usize),
        ad: &[f32],
        bd: &[f32],
        c: &mut [f32],
        ldc: usize,
    ) {
        let pack_a = |ap: &mut [f32], row, mh, k0, kc| match layout {
            Layout::Tn => pack_a_transposed(ad, m, ap, row, mh, k0, kc),
            _ => pack_a_rows(ad, k, ap, row, mh, k0, kc),
        };
        let pack_b = |bp: &mut [f32], nr, k0, kc, cols| match layout {
            Layout::Nt => pack_b_transposed(bd, k, bp, nr, k0, kc, cols),
            _ => pack_b_rows(bd, n, bp, nr, k0, kc, cols),
        };
        if portable {
            gemm_packed_portable(0..m, k, n, c, ldc, pack_a, pack_b);
        } else {
            gemm_packed(0..m, k, n, c, ldc, pack_a, pack_b);
        }
    }

    /// The packed driver against a direct per-element reference that
    /// replays the documented sequence (panel-local accumulate, one
    /// `C +=` per panel) — the numerics contract everything else pins —
    /// on both kernels, in panel order (k < `BLOCK_ORDER_MIN_K`) and block
    /// order.
    #[test]
    fn packed_matches_panelwise_reference() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (4, 8, 8),
            (5, 3, 9),
            (7, 300, 11), // k crosses a KC panel boundary
            (9, 513, 17),
            (13, 129, 40),
        ] {
            let ad: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
            let bd: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.11).cos()).collect();
            let mut want = vec![0.5f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    for k0 in (0..k).step_by(KC) {
                        let kc = KC.min(k - k0);
                        let mut acc = 0.0f32;
                        for kk in k0..k0 + kc {
                            acc += ad[i * k + kk] * bd[kk * n + j];
                        }
                        want[i * n + j] += acc;
                    }
                }
            }
            for portable in [false, true] {
                let mut got = vec![0.5f32; m * n];
                product(portable, Layout::Nn, (m, k, n), &ad, &bd, &mut got, n);
                assert_eq!(got, want, "m={m} k={k} n={n} portable={portable}");
            }
        }
    }

    /// Scratch reuse across calls with shrinking `n` must not leak stale
    /// packed columns into the zero-padded tail block: `n` shrinks from
    /// three 16-column blocks to a partial second one, so the stale
    /// columns sit inside a block either kernel reads, in panel order
    /// (k = 4) and block order (k = `BLOCK_ORDER_MIN_K`).
    #[test]
    fn scratch_reuse_does_not_leak_padding() {
        for portable in [false, true] {
            for (m, k) in [
                (2usize, 4usize),
                (12, 4),
                (2, BLOCK_ORDER_MIN_K),
                (12, BLOCK_ORDER_MIN_K),
            ] {
                let ad = vec![1.0f32; m * k];
                let big_b = vec![9.0f32; k * 48];
                let mut c_big = vec![0.0f32; m * 48];
                product(
                    portable,
                    Layout::Nn,
                    (m, k, 48),
                    &ad,
                    &big_b,
                    &mut c_big,
                    48,
                );
                let small_b = vec![2.0f32; k * 19];
                let mut c_small = vec![0.0f32; m * 19];
                product(
                    portable,
                    Layout::Nn,
                    (m, k, 19),
                    &ad,
                    &small_b,
                    &mut c_small,
                    19,
                );
                assert_eq!(
                    c_small,
                    vec![2.0 * k as f32; m * 19],
                    "m={m} k={k} portable={portable}"
                );
            }
        }
    }

    /// A deterministic `(rows, cols)` matrix of values in `[-0.5, 0.5)`
    /// with ±0, subnormals and products that underflow sprinkled in, and
    /// ±Inf and NaN where `poisoned(r, c)`.
    fn specials(
        rows: usize,
        cols: usize,
        seed: u32,
        poisoned: impl Fn(usize, usize) -> bool,
    ) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
        let mut out = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let u = (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5;
                out.push(match state & 15 {
                    0 => -0.0,
                    1 => 0.0,
                    2 => u * 1e-38, // subnormal
                    3 => u * 1e-20, // products underflow
                    4 if poisoned(r, c) => [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][r % 3],
                    _ => u,
                });
            }
        }
        out
    }

    /// Output bits, with every NaN read as the one canonical NaN: IEEE 754
    /// leaves the sign and payload of an arithmetic NaN unspecified, and
    /// the compiler may commute an `a + b` whose operands are both NaN.
    fn bits(v: f32) -> u32 {
        if v.is_nan() {
            f32::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    /// The dispatched kernel (AVX where the CPU has it) gives the portable
    /// kernel's bits on every tile-edge shape, for all three pack layouts,
    /// with an output row stride wider than the product, on inputs with
    /// ±0, subnormals, ±Inf and NaN. Rows 3, 8, 13 of `A` and columns 5,
    /// 12, 19, 26 of `B` carry the non-finite values, so most outputs stay
    /// finite and are compared bit for bit.
    #[test]
    fn dispatched_kernel_matches_portable_bitwise() {
        let ns = [1usize, 7, 8, 9, 15, 16, 17, 33];
        let ks = [1usize, 127, 128, 129, 300];
        for m in 1..=13usize {
            for &n in &ns {
                for &k in &ks {
                    let a = specials(m, k, (m * 131 + k) as u32, |r, _| r % 5 == 3);
                    let b = specials(k, n, (k * 71 + n) as u32, |_, c| c % 7 == 5);
                    let at: Vec<f32> = (0..k * m).map(|i| a[(i % m) * k + i / m]).collect();
                    let bt: Vec<f32> = (0..n * k).map(|i| b[(i % k) * n + i / k]).collect();
                    let ldc = n + 3;
                    let c0 = specials(m, ldc, (m + n + k) as u32, |_, _| false);
                    for (layout, ad, bd) in [
                        (Layout::Nn, &a, &b),
                        (Layout::Tn, &at, &b),
                        (Layout::Nt, &a, &bt),
                    ] {
                        let mut want = c0.clone();
                        product(true, layout, (m, k, n), ad, bd, &mut want, ldc);
                        let mut got = c0.clone();
                        product(false, layout, (m, k, n), ad, bd, &mut got, ldc);
                        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                            assert_eq!(
                                bits(*w),
                                bits(*g),
                                "{layout:?} m={m} n={n} k={k} at ({}, {}): {w} vs {g}",
                                i / ldc,
                                i % ldc
                            );
                        }
                        // Columns past `n` are never written.
                        for r in 0..m {
                            let tail = r * ldc + n..(r + 1) * ldc;
                            assert_eq!(
                                got[tail.clone()]
                                    .iter()
                                    .map(|v| v.to_bits())
                                    .collect::<Vec<_>>(),
                                c0[tail].iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                            );
                        }
                    }
                }
            }
        }
    }
}
