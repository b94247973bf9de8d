//! Packed register-tiled GEMM micro-kernel (paper Sec. 5.1's
//! "hand-optimized" CPU compute floor, in portable stable Rust).
//!
//! All three matmul variants in [`mod@crate::matmul`] lower onto one
//! driver, `gemm_packed`: the `k` dimension is split into [`KC`]-deep
//! panels,
//! the operands for each panel are repacked into contiguous buffers in a
//! reusable thread-local scratch, and an [`MR`]×[`NR`] register-tiled
//! micro-kernel drives plain multiply–add chains over the packed data.
//! Packing is what turns the transposed variants' strided walks (the old
//! `a_bt` kernel dotted a *column* of row-major `B` per output element)
//! into the same contiguous, autovectorizable inner loop as the plain
//! variant — each variant differs only in its pack closures.
//!
//! # Why bit-identity survives register tiling
//!
//! The repo's load-bearing invariant is parallel ≡ serial, bit-identical
//! at any thread count. It survives this kernel because every output
//! element's floating-point op sequence is a function of the `k` loop
//! alone:
//!
//! * element `(i, j)` accumulates `acc = a[i,k]·b[k,j] + acc` for `k` in
//!   panel order, then adds one `acc` into `C` per panel — a fixed
//!   sequence determined entirely by `ka` and [`KC`];
//! * which MR×NR tile owns the element changes *which register* holds its
//!   accumulator, never the sequence: row tails run the same per-element
//!   chain through a narrower monomorphized kernel, and column tails are
//!   zero-padded in the packed buffer but only valid columns are written
//!   back;
//! * row partitioning moves tile boundaries but boundaries carry no state
//!   — so any `parts` and any `ZO_THREADS` produce identical bits.
//!
//! The multiply–add is deliberately written `a * b + acc` (not
//! `f32::mul_add`): on the default x86-64 target fused multiply-add is
//! not a native instruction and lowers to a per-element libm call, which
//! is what made the old kernels slow.

use core::cell::RefCell;
use core::ops::Range;

/// Depth of one packed `k` panel. Per-element accumulation order depends
/// on this constant (one `C += acc` per panel), so changing it changes
/// the trajectory fingerprint — it is part of the numerics, not just a
/// tuning knob.
pub const KC: usize = 128;

/// Rows per micro-tile (register rows).
pub const MR: usize = 4;

/// Columns per micro-tile. 8 f32 columns × 4 rows = 32 accumulators =
/// 8 of the 16 SSE2 xmm registers, leaving room for the `A` broadcast
/// and `B` loads; 16 columns would spill on the baseline target.
pub const NR: usize = 8;

/// Reusable per-thread packing scratch: `a` holds one MR×KC tile, `b`
/// one KC×n panel (padded to a multiple of NR columns). Reused across
/// calls on the same worker, so steady-state packing allocates nothing.
#[derive(Default)]
struct PackScratch {
    a: Vec<f32>,
    b: Vec<f32>,
}

thread_local! {
    static SCRATCH: RefCell<PackScratch> = RefCell::new(PackScratch::default());
}

/// The register-tiled inner kernel over one packed tile pair: `M` rows of
/// packed `A` (`ap[k*M + r]`) against NR columns of packed `B`
/// (`bp[k*NR + c]`), accumulating into `M`×`jw` elements of `cd` at
/// (`row0`, `col0`) with row stride `ldc`.
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
fn kernel_m<const M: usize>(
    ap: &[f32],
    bp: &[f32],
    cd: &mut [f32],
    row0: usize,
    col0: usize,
    ldc: usize,
    jw: usize,
) {
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
        let start = (row0 + r) * ldc + col0;
        for (cv, av) in cd[start..start + jw].iter_mut().zip(&acc[r][..jw]) {
            *cv += *av;
        }
    }
}

/// Drives the packed micro-kernel over output rows `rows` of a `(·, n)`
/// product with inner dimension `ka`; `cd` holds exactly those rows, each
/// `ldc ≥ n` elements apart.
///
/// The operand layouts live in the two pack closures:
///
/// * `pack_a(ap, row, mh, k0, kc)` writes the `mh`-row tile starting at
///   global output row `row`, panel `k0..k0+kc`, as `ap[k*mh + r]`;
/// * `pack_b(bp, k0, kc)` writes the full panel as NR-column blocks,
///   `bp[jb*kc*NR + k*NR + c]`, zero-padding the final partial block.
pub(crate) fn gemm_packed(
    rows: Range<usize>,
    ka: usize,
    n: usize,
    cd: &mut [f32],
    ldc: usize,
    pack_a: impl Fn(&mut [f32], usize, usize, usize, usize),
    pack_b: impl Fn(&mut [f32], usize, usize),
) {
    if n == 0 || rows.is_empty() {
        return;
    }
    let n_blocks = n.div_ceil(NR);
    let local_m = rows.len();
    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let PackScratch { a: ap, b: bp } = &mut *scratch;
        ap.resize(KC * MR, 0.0);
        bp.resize(KC * n_blocks * NR, 0.0);
        for k0 in (0..ka).step_by(KC) {
            let kc = KC.min(ka - k0);
            pack_b(bp, k0, kc);
            for li0 in (0..local_m).step_by(MR) {
                let mh = MR.min(local_m - li0);
                pack_a(ap, rows.start + li0, mh, k0, kc);
                let apk = &ap[..kc * mh];
                for jb in 0..n_blocks {
                    let j0 = jb * NR;
                    let jw = NR.min(n - j0);
                    let bpk = &bp[jb * kc * NR..(jb + 1) * kc * NR];
                    match mh {
                        4 => kernel_m::<4>(apk, bpk, cd, li0, j0, ldc, jw),
                        3 => kernel_m::<3>(apk, bpk, cd, li0, j0, ldc, jw),
                        2 => kernel_m::<2>(apk, bpk, cd, li0, j0, ldc, jw),
                        _ => kernel_m::<1>(apk, bpk, cd, li0, j0, ldc, jw),
                    }
                }
            }
        }
    });
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

/// Packs a `kc`-deep panel of row-major `B` `(ka, n)`, whose rows are
/// `stride` elements apart, into NR-column blocks. The final block's
/// missing columns are zeroed (the scratch is reused across calls, so
/// stale values would otherwise leak in).
pub(crate) fn pack_b_rows(
    bd: &[f32],
    stride: usize,
    n: usize,
    bp: &mut [f32],
    k0: usize,
    kc: usize,
) {
    let n_blocks = n.div_ceil(NR);
    for jb in 0..n_blocks {
        let j0 = jb * NR;
        let jw = NR.min(n - j0);
        let dst = &mut bp[jb * kc * NR..(jb + 1) * kc * NR];
        if jw < NR {
            dst.fill(0.0);
        }
        for k in 0..kc {
            let src = &bd[(k0 + k) * stride + j0..(k0 + k) * stride + j0 + jw];
            dst[k * NR..k * NR + jw].copy_from_slice(src);
        }
    }
}

/// Packs a `kc`-deep panel of `Bᵀ` where `B` is row-major `(n, ka)` —
/// the layout the input-gradient kernel (`C += A · Bᵀ`) sees. Each
/// packed column is a contiguous run of a `B` row, so the micro-kernel's
/// inner loop becomes contiguous multiply–adds instead of the old
/// strided column dot.
pub(crate) fn pack_b_transposed(
    bd: &[f32],
    ka: usize,
    bp: &mut [f32],
    n: usize,
    k0: usize,
    kc: usize,
) {
    let n_blocks = n.div_ceil(NR);
    for jb in 0..n_blocks {
        let j0 = jb * NR;
        let jw = NR.min(n - j0);
        let dst = &mut bp[jb * kc * NR..(jb + 1) * kc * NR];
        if jw < NR {
            dst.fill(0.0);
        }
        for c in 0..jw {
            let src = &bd[(j0 + c) * ka + k0..(j0 + c) * ka + k0 + kc];
            for (k, &v) in src.iter().enumerate() {
                dst[k * NR + c] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The packed driver against a direct per-element reference that
    /// replays the documented sequence (panel-local accumulate, one
    /// `C +=` per panel) — the numerics contract everything else pins.
    #[test]
    fn packed_matches_panelwise_reference() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (4, 8, 8),
            (5, 3, 9),
            (7, 300, 11), // k crosses a KC panel boundary
            (9, 513, 17),
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
            let mut got = vec![0.5f32; m * n];
            gemm_packed(
                0..m,
                k,
                n,
                &mut got,
                n,
                |ap, row, mh, k0, kc| pack_a_rows(&ad, k, ap, row, mh, k0, kc),
                |bp, k0, kc| pack_b_rows(&bd, n, n, bp, k0, kc),
            );
            assert_eq!(got, want, "m={m} k={k} n={n}");
        }
    }

    /// Scratch reuse across calls with shrinking `n` must not leak stale
    /// packed columns into the zero-padded tail block.
    #[test]
    fn scratch_reuse_does_not_leak_padding() {
        let k = 4;
        let ad = vec![1.0f32; 2 * k];
        let big_b = vec![9.0f32; k * 16];
        let mut c_big = vec![0.0f32; 2 * 16];
        gemm_packed(
            0..2,
            k,
            16,
            &mut c_big,
            16,
            |ap, row, mh, k0, kc| pack_a_rows(&ad, k, ap, row, mh, k0, kc),
            |bp, k0, kc| pack_b_rows(&big_b, 16, 16, bp, k0, kc),
        );
        // Now a 3-column product on the same thread: columns 3..8 of the
        // scratch still hold 9.0 unless the pack zeroes them.
        let small_b = vec![2.0f32; k * 3];
        let mut c_small = vec![0.0f32; 2 * 3];
        gemm_packed(
            0..2,
            k,
            3,
            &mut c_small,
            3,
            |ap, row, mh, k0, kc| pack_a_rows(&ad, k, ap, row, mh, k0, kc),
            |bp, k0, kc| pack_b_rows(&small_b, 3, 3, bp, k0, kc),
        );
        assert_eq!(c_small, vec![8.0f32; 6]);
    }
}
