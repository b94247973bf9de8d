//! Cache-blocked matrix multiplication kernels.
//!
//! Three variants cover everything a manual-backward NN needs:
//!
//! * `matmul`      — `C = A · B`          (forward)
//! * `matmul_at_b` — `C = Aᵀ · B`         (weight gradients)
//! * `matmul_a_bt` — `C = A · Bᵀ`         (input gradients)
//!
//! All kernels accumulate into `C` (caller zeroes it first if needed),
//! which lets gradient accumulation reuse the same entry points.
//!
//! All three variants lower onto the packed register-tiled micro-kernel
//! in [`crate::microkernel`]: operands are repacked per k-panel into a
//! thread-local scratch and an MR×NR register tile runs contiguous
//! multiply–adds. The variants differ only in how they hand their
//! operands to [`gemm_view`]: as rows or as the transpose of a strided
//! [`View`]. Callers with operands inside larger buffers (attention heads)
//! call [`gemm_view`] directly.
//!
//! # Parallelism and determinism
//!
//! The `_acc` entry points partition the **output rows** of `C` into
//! contiguous ranges and run one range per task on the shared
//! [`pool`]. Every output element is produced by exactly the
//! same sequence of floating-point operations regardless of how the rows
//! are partitioned — a row's accumulation order depends only on the inner
//! (`k`) loop and the fixed panel depth [`crate::microkernel::KC`], never on
//! which task (or which register tile) owns the row — so parallel results
//! are **bit-identical** to the serial kernels at any thread count. The
//! `*_serial` variants run the identical arithmetic inline and exist as
//! the reference for tests and benches; `*_on` variants take an explicit
//! pool and partition count (benches force 1/2/4/8-way scaling through
//! them).
//!
//! Small products are not worth a pool round-trip; below
//! [`MIN_PARALLEL_FLOPS`] the default entry points run serially inline.

use crate::error::TensorError;
use crate::microkernel::{
    gemm_packed, pack_a_rows, pack_a_transposed, pack_b_rows, pack_b_transposed,
};
use crate::pool::{self, Pool};
use crate::tensor::Tensor;

/// Products below this many flops (`2·m·k·n`) always run inline: pool
/// dispatch costs more than it saves.
///
/// Calibrated for the portable packed micro-kernel (min-of-N wall clock
/// over square shapes): serial sustains ≈ 16 GFLOP/s at 16³ rising to
/// ≈ 27 GFLOP/s by 128³, and a 4-task pool round-trip costs ≈ 3 µs (the
/// pool-minus-serial gap at 16³, where per-part kernel work is
/// negligible). Each part re-packs its own B panels, so parallel
/// overhead also grows with `k·n`; requiring the serial kernel time
/// (≈ 65 µs at 96³) to be ≥ ~20× the fixed round-trip keeps dispatch
/// plus duplicated packing under ~10 % of the work being split.
///
/// Re-measured for the AVX kernel (≈ 2× faster) on a 2-vCPU Xeon guest
/// with AVX-512, the isolated break-even moves up: a two-part split of
/// a square product lost at 96³ and 112³ in six runs of seven, was a
/// toss-up at 128³ (0.83–1.28× the serial time) and won from 160³, and
/// at 2·16·256·256 flops (the `wide-*` projections) it lost 1.0–1.8×.
/// But moving the bar to 2·128³ made whole training steps slower
/// (`wide-optim` and `serve-mixed` in the benchmark, 13 of 17
/// alternating pairs), so it stays: in a step, a split also keeps the
/// second worker awake for the split that follows, which an isolated
/// probe does not see.
pub const MIN_PARALLEL_FLOPS: usize = 2 * 96 * 96 * 96;

fn check_shapes(
    op: &'static str,
    op_out: &'static str,
    lhs: (usize, usize),
    rhs: (usize, usize),
    inner: (usize, usize),
    out_want: (usize, usize),
    out_got: (usize, usize),
) -> Result<(), TensorError> {
    if inner.0 != inner.1 {
        return Err(TensorError::ShapeMismatch { op, lhs, rhs });
    }
    if out_want != out_got {
        return Err(TensorError::ShapeMismatch {
            op: op_out,
            lhs: out_want,
            rhs: out_got,
        });
    }
    Ok(())
}

/// Decides the partition count for an auto-parallel kernel call: the
/// global pool's thread count clamped to `m` (a tall pool on a short
/// matrix must not produce empty row-ranges that still pay boxing and
/// dispatch), unless the product is too small to pay for dispatch at all
/// (then 1, meaning inline serial execution).
fn auto_parts(m: usize, k: usize, n: usize) -> usize {
    let threads = pool::global().threads();
    if threads <= 1
        || 2usize.saturating_mul(m).saturating_mul(k).saturating_mul(n) < MIN_PARALLEL_FLOPS
    {
        1
    } else {
        threads.min(m)
    }
}

// ---- C += A · B ----

/// The `matmul_acc` inner kernel over output rows `rows`; `cd` holds
/// exactly those rows.
fn matmul_rows(
    ad: &[f32],
    bd: &[f32],
    cd: &mut [f32],
    rows: core::ops::Range<usize>,
    ka: usize,
    n: usize,
) {
    gemm_view(
        rows.len(),
        ka,
        n,
        Operand::Rows(View::new(ad, ka).at(rows.start, 0)),
        Operand::Rows(View::new(bd, n)),
        cd,
        n,
    );
}

/// `c += a · b` where `a` is `(m, k)` and `b` is `(k, n)`, parallelized
/// over the global pool (bit-identical to [`matmul_acc_serial`]).
///
/// Returns [`TensorError::ShapeMismatch`] if the inner dimensions differ or
/// `c` is not `(m, n)`.
pub fn matmul_acc(a: &Tensor, b: &Tensor, c: &mut Tensor) -> Result<(), TensorError> {
    let (m, ka) = a.shape();
    let (_, n) = b.shape();
    matmul_acc_on(pool::global(), auto_parts(m, ka, n), a, b, c)
}

/// [`matmul_acc`] with the work always run inline on the calling thread.
pub fn matmul_acc_serial(a: &Tensor, b: &Tensor, c: &mut Tensor) -> Result<(), TensorError> {
    let (m, ka) = a.shape();
    let (kb, n) = b.shape();
    check_shapes(
        "matmul",
        "matmul(out)",
        a.shape(),
        b.shape(),
        (ka, kb),
        (m, n),
        c.shape(),
    )?;
    matmul_rows(a.data(), b.data(), c.data_mut(), 0..m, ka, n);
    Ok(())
}

/// [`matmul_acc`] on an explicit pool with an explicit partition count
/// (results are bit-identical for every `parts`).
pub fn matmul_acc_on(
    pool: &Pool,
    parts: usize,
    a: &Tensor,
    b: &Tensor,
    c: &mut Tensor,
) -> Result<(), TensorError> {
    let (m, ka) = a.shape();
    let (kb, n) = b.shape();
    check_shapes(
        "matmul",
        "matmul(out)",
        a.shape(),
        b.shape(),
        (ka, kb),
        (m, n),
        c.shape(),
    )?;
    let (ad, bd) = (a.data(), b.data());
    pool::run_partitioned(pool, parts, m, n, c.data_mut(), |rows, cd| {
        matmul_rows(ad, bd, cd, rows, ka, n);
    });
    Ok(())
}

/// `C = A · B`, allocating the output.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let mut c = Tensor::zeros(a.rows(), b.cols());
    matmul_acc(a, b, &mut c)?;
    Ok(c)
}

// ---- C += Aᵀ · B ----

/// The `matmul_at_b_acc` inner kernel over output rows `rows` (columns of
/// `A`).
fn matmul_at_b_rows(
    ad: &[f32],
    bd: &[f32],
    cd: &mut [f32],
    rows: core::ops::Range<usize>,
    ka: usize,
    m: usize,
    n: usize,
) {
    gemm_view(
        rows.len(),
        ka,
        n,
        Operand::Transposed(View::new(ad, m).at(0, rows.start)),
        Operand::Rows(View::new(bd, n)),
        cd,
        n,
    );
}

/// `c += aᵀ · b` where `a` is `(k, m)` and `b` is `(k, n)`, parallelized
/// over the global pool (bit-identical to [`matmul_at_b_acc_serial`]).
///
/// This is the weight-gradient kernel: for a linear layer `y = x · W`,
/// `dW = xᵀ · dy`.
pub fn matmul_at_b_acc(a: &Tensor, b: &Tensor, c: &mut Tensor) -> Result<(), TensorError> {
    let (ka, m) = a.shape();
    let (_, n) = b.shape();
    matmul_at_b_acc_on(pool::global(), auto_parts(m, ka, n), a, b, c)
}

/// [`matmul_at_b_acc`] with the work always run inline.
pub fn matmul_at_b_acc_serial(a: &Tensor, b: &Tensor, c: &mut Tensor) -> Result<(), TensorError> {
    let (ka, m) = a.shape();
    let (kb, n) = b.shape();
    check_shapes(
        "matmul_at_b",
        "matmul_at_b(out)",
        a.shape(),
        b.shape(),
        (ka, kb),
        (m, n),
        c.shape(),
    )?;
    matmul_at_b_rows(a.data(), b.data(), c.data_mut(), 0..m, ka, m, n);
    Ok(())
}

/// [`matmul_at_b_acc`] on an explicit pool with an explicit partition
/// count (results are bit-identical for every `parts`).
pub fn matmul_at_b_acc_on(
    pool: &Pool,
    parts: usize,
    a: &Tensor,
    b: &Tensor,
    c: &mut Tensor,
) -> Result<(), TensorError> {
    let (ka, m) = a.shape();
    let (kb, n) = b.shape();
    check_shapes(
        "matmul_at_b",
        "matmul_at_b(out)",
        a.shape(),
        b.shape(),
        (ka, kb),
        (m, n),
        c.shape(),
    )?;
    let (ad, bd) = (a.data(), b.data());
    pool::run_partitioned(pool, parts, m, n, c.data_mut(), |rows, cd| {
        matmul_at_b_rows(ad, bd, cd, rows, ka, m, n);
    });
    Ok(())
}

/// `C = Aᵀ · B`, allocating the output.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let mut c = Tensor::zeros(a.cols(), b.cols());
    matmul_at_b_acc(a, b, &mut c)?;
    Ok(c)
}

// ---- C += A · Bᵀ ----

/// The `matmul_a_bt_acc` inner kernel over output rows `rows`.
fn matmul_a_bt_rows(
    ad: &[f32],
    bd: &[f32],
    cd: &mut [f32],
    rows: core::ops::Range<usize>,
    ka: usize,
    n: usize,
) {
    gemm_view(
        rows.len(),
        ka,
        n,
        Operand::Rows(View::new(ad, ka).at(rows.start, 0)),
        Operand::Transposed(View::new(bd, ka)),
        cd,
        n,
    );
}

/// `c += a · bᵀ` where `a` is `(m, k)` and `b` is `(n, k)`, parallelized
/// over the global pool (bit-identical to [`matmul_a_bt_acc_serial`]).
///
/// This is the input-gradient kernel: for `y = x · W`, `dx = dy · Wᵀ`.
pub fn matmul_a_bt_acc(a: &Tensor, b: &Tensor, c: &mut Tensor) -> Result<(), TensorError> {
    let (m, ka) = a.shape();
    let (n, _) = b.shape();
    matmul_a_bt_acc_on(pool::global(), auto_parts(m, ka, n), a, b, c)
}

/// [`matmul_a_bt_acc`] with the work always run inline.
pub fn matmul_a_bt_acc_serial(a: &Tensor, b: &Tensor, c: &mut Tensor) -> Result<(), TensorError> {
    let (m, ka) = a.shape();
    let (n, kb) = b.shape();
    check_shapes(
        "matmul_a_bt",
        "matmul_a_bt(out)",
        a.shape(),
        b.shape(),
        (ka, kb),
        (m, n),
        c.shape(),
    )?;
    matmul_a_bt_rows(a.data(), b.data(), c.data_mut(), 0..m, ka, n);
    Ok(())
}

/// [`matmul_a_bt_acc`] on an explicit pool with an explicit partition
/// count (results are bit-identical for every `parts`).
pub fn matmul_a_bt_acc_on(
    pool: &Pool,
    parts: usize,
    a: &Tensor,
    b: &Tensor,
    c: &mut Tensor,
) -> Result<(), TensorError> {
    let (m, ka) = a.shape();
    let (n, kb) = b.shape();
    check_shapes(
        "matmul_a_bt",
        "matmul_a_bt(out)",
        a.shape(),
        b.shape(),
        (ka, kb),
        (m, n),
        c.shape(),
    )?;
    let (ad, bd) = (a.data(), b.data());
    pool::run_partitioned(pool, parts, m, n, c.data_mut(), |rows, cd| {
        matmul_a_bt_rows(ad, bd, cd, rows, ka, n);
    });
    Ok(())
}

/// `C = A · Bᵀ`, allocating the output.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let mut c = Tensor::zeros(a.rows(), b.rows());
    matmul_a_bt_acc(a, b, &mut c)?;
    Ok(c)
}

// ---- strided views ----

/// A read-only view of a row-major matrix inside a larger buffer: element
/// `(r, c)` is `data[r * stride + c]`.
///
/// One attention head's `(seq, head_dim)` block of a `(tokens, hidden)`
/// activation is the view `View::new(x.data(), hidden).at(t0, h * head_dim)`:
/// the GEMM packs read it in place, so no head is copied out.
#[derive(Debug, Clone, Copy)]
pub struct View<'a> {
    data: &'a [f32],
    stride: usize,
}

impl<'a> View<'a> {
    /// A view of `data` with rows `stride` elements apart.
    pub fn new(data: &'a [f32], stride: usize) -> View<'a> {
        View { data, stride }
    }

    /// The view whose `(0, 0)` is this view's `(row, col)`; empty when
    /// that lies past the end of the buffer (an operand with no elements,
    /// such as a zero-depth product's).
    pub fn at(self, row: usize, col: usize) -> View<'a> {
        let start = (row * self.stride + col).min(self.data.len());
        View {
            data: &self.data[start..],
            stride: self.stride,
        }
    }
}

/// How [`gemm_view`] reads an operand's [`View`].
#[derive(Debug, Clone, Copy)]
pub enum Operand<'a> {
    /// The operand is the view itself.
    Rows(View<'a>),
    /// The operand is the view's transpose.
    Transposed(View<'a>),
}

/// `c[i·ldc + j] += Σ_k op(a)[i][k] · op(b)[k][j]` for `i < m`, `j < n`,
/// `k < ka`, inline on the calling thread.
///
/// The operands are strided [`View`]s read straight into the packed
/// micro-kernel, and each element's arithmetic is the packed kernel's
/// (one `C +=` per [`KC`](crate::microkernel::KC)-deep panel), so the
/// result is bit-identical to [`matmul_acc_serial`] and its transposed
/// siblings on the same values. Callers that split work across the pool
/// call it once per part.
///
/// # Panics
///
/// Panics if `n > ldc` or a view or `c` is too short for the product.
pub fn gemm_view(
    m: usize,
    ka: usize,
    n: usize,
    a: Operand<'_>,
    b: Operand<'_>,
    c: &mut [f32],
    ldc: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(n <= ldc, "gemm_view: {n} columns in rows {ldc} apart");
    assert!(c.len() >= (m - 1) * ldc + n, "gemm_view: output too short");
    let pack_a = |ap: &mut [f32], row, mh, k0, kc| match a {
        Operand::Rows(v) => pack_a_rows(v.data, v.stride, ap, row, mh, k0, kc),
        Operand::Transposed(v) => pack_a_transposed(v.data, v.stride, ap, row, mh, k0, kc),
    };
    let pack_b = |bp: &mut [f32], nr, k0, kc, cols| match b {
        Operand::Rows(v) => pack_b_rows(v.data, v.stride, bp, nr, k0, kc, cols),
        Operand::Transposed(v) => pack_b_transposed(v.data, v.stride, bp, nr, k0, kc, cols),
    };
    gemm_packed(0..m, ka, n, c, ldc, pack_a, pack_b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// A real multi-worker pool shared by the parallel-equivalence tests
    /// (spawned once; these tests must not depend on `ZO_THREADS`).
    fn test_pool() -> &'static std::sync::Arc<Pool> {
        static POOL: OnceLock<std::sync::Arc<Pool>> = OnceLock::new();
        POOL.get_or_init(|| Pool::new(4))
    }

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape();
        let (_, n) = b.shape();
        let mut c = Tensor::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.get(i, p).unwrap() * b.get(p, j).unwrap();
                }
                c.set(i, j, s).unwrap();
            }
        }
        c
    }

    fn randomish(rows: usize, cols: usize, seed: u32) -> Tensor {
        // Deterministic pseudo-random fill without pulling in `rand` here.
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        let mut t = Tensor::zeros(rows, cols);
        for v in t.data_mut() {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            *v = ((state >> 8) as f32 / (1u32 << 24) as f32) - 0.5;
        }
        t
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol, "{x} != {y}");
        }
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(
            c,
            Tensor::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn matches_naive_on_odd_shapes() {
        // Shapes straddling the block boundary exercise the tail handling.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (64, 64, 64),
            (65, 63, 130),
            (100, 1, 9),
        ] {
            let a = randomish(m, k, (m * 31 + k) as u32);
            let b = randomish(k, n, (k * 17 + n) as u32);
            assert_close(&matmul(&a, &b).unwrap(), &naive(&a, &b), 1e-4);
        }
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let a = randomish(13, 7, 1);
        let b = randomish(13, 9, 2);
        let want = naive(&a.transposed(), &b);
        assert_close(&matmul_at_b(&a, &b).unwrap(), &want, 1e-4);

        let a2 = randomish(6, 11, 3);
        let b2 = randomish(8, 11, 4);
        let want2 = naive(&a2, &b2.transposed());
        assert_close(&matmul_a_bt(&a2, &b2).unwrap(), &want2, 1e-4);
    }

    #[test]
    fn parallel_bit_identical_to_serial_at_any_part_count() {
        let pool = test_pool();
        for &(m, k, n) in &[
            (1usize, 3usize, 2usize),
            (5, 9, 4),
            (65, 63, 30),
            (80, 17, 70),
        ] {
            let a = randomish(m, k, (m * 7 + k) as u32);
            let b = randomish(k, n, (k * 13 + n) as u32);
            let a_t = randomish(k, m, (m * 5 + 1) as u32);
            let b_t = randomish(n, k, (n * 3 + 2) as u32);
            let mut want = Tensor::full(m, n, 0.25);
            let mut want_atb = want.clone();
            let mut want_abt = want.clone();
            matmul_acc_serial(&a, &b, &mut want).unwrap();
            matmul_at_b_acc_serial(&a_t, &b, &mut want_atb).unwrap();
            matmul_a_bt_acc_serial(&a, &b_t, &mut want_abt).unwrap();
            for parts in [1usize, 2, 3, 7] {
                let mut got = Tensor::full(m, n, 0.25);
                matmul_acc_on(pool, parts, &a, &b, &mut got).unwrap();
                assert_eq!(
                    got.data(),
                    want.data(),
                    "matmul m={m} k={k} n={n} parts={parts}"
                );
                let mut got = Tensor::full(m, n, 0.25);
                matmul_at_b_acc_on(pool, parts, &a_t, &b, &mut got).unwrap();
                assert_eq!(got.data(), want_atb.data(), "at_b m={m} parts={parts}");
                let mut got = Tensor::full(m, n, 0.25);
                matmul_a_bt_acc_on(pool, parts, &a, &b_t, &mut got).unwrap();
                assert_eq!(got.data(), want_abt.data(), "a_bt m={m} parts={parts}");
            }
        }
    }

    #[test]
    fn zero_heavy_inputs_still_correct() {
        // The old kernels skipped zero elements of A with a per-element
        // branch; the dense kernels must produce the same products.
        let mut a = randomish(20, 30, 3);
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            if i % 3 != 0 {
                *v = 0.0;
            }
        }
        let b = randomish(30, 10, 4);
        assert_close(&matmul(&a, &b).unwrap(), &naive(&a, &b), 1e-4);
        let b2 = randomish(20, 10, 5);
        let want_atb = naive(&a.transposed(), &b2);
        assert_close(&matmul_at_b(&a, &b2).unwrap(), &want_atb, 1e-4);
    }

    #[test]
    fn shape_errors() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(4, 5);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul_at_b(&a, &b).is_err());
        assert!(matmul_a_bt(&a, &b).is_err());
        let mut bad_out = Tensor::zeros(1, 1);
        let b_ok = Tensor::zeros(3, 5);
        assert!(matmul_acc(&a, &b_ok, &mut bad_out).is_err());
        assert!(matmul_acc_serial(&a, &b_ok, &mut bad_out).is_err());
        assert!(matmul_acc_on(test_pool(), 2, &a, &b_ok, &mut bad_out).is_err());
    }

    #[test]
    fn accumulating_entry_points_accumulate() {
        let a = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let b = Tensor::from_rows(&[&[2.0, 0.0], &[0.0, 2.0]]).unwrap();
        let mut c = Tensor::full(2, 2, 1.0);
        matmul_acc(&a, &b, &mut c).unwrap();
        assert_eq!(c, Tensor::from_rows(&[&[3.0, 1.0], &[1.0, 3.0]]).unwrap());
    }

    #[test]
    fn strided_views_match_the_tensor_kernels_bitwise() {
        // Operands embedded at an offset inside wider buffers, and an
        // output with a row stride wider than the product.
        let (m, k, n) = (9usize, 37usize, 11usize);
        let (pad, ldc) = (5usize, 16usize);
        let a = randomish(m, k, 1);
        let b = randomish(k, n, 2);
        let a_t = randomish(k, m, 3);
        let b_t = randomish(n, k, 4);
        let embed = |t: &Tensor| -> (Vec<f32>, usize) {
            let stride = t.cols() + pad;
            let mut buf = vec![f32::NAN; (t.rows() + 1) * stride];
            for r in 0..t.rows() {
                buf[(r + 1) * stride + 2..(r + 1) * stride + 2 + t.cols()]
                    .copy_from_slice(t.row(r));
            }
            (buf, stride)
        };
        fn view(buf: &(Vec<f32>, usize)) -> View<'_> {
            View::new(&buf.0, buf.1).at(1, 2)
        }
        let (ea, eb, eat, ebt) = (embed(&a), embed(&b), embed(&a_t), embed(&b_t));
        for (want, ao, bo) in [
            (
                matmul(&a, &b).unwrap(),
                Operand::Rows(view(&ea)),
                Operand::Rows(view(&eb)),
            ),
            (
                matmul_at_b(&a_t, &b).unwrap(),
                Operand::Transposed(view(&eat)),
                Operand::Rows(view(&eb)),
            ),
            (
                matmul_a_bt(&a, &b_t).unwrap(),
                Operand::Rows(view(&ea)),
                Operand::Transposed(view(&ebt)),
            ),
        ] {
            let mut c = vec![-7.0f32; m * ldc];
            for r in 0..m {
                c[r * ldc..r * ldc + n].fill(0.0);
            }
            gemm_view(m, k, n, ao, bo, &mut c, ldc);
            for r in 0..m {
                assert_eq!(&c[r * ldc..r * ldc + n], want.row(r));
                assert!(c[r * ldc + n..(r + 1) * ldc].iter().all(|&v| v == -7.0));
            }
        }
    }
}
