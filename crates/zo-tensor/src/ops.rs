//! Elementwise and reduction kernels over `f32` slices.
//!
//! These are the building blocks shared by the NN substrate (`zo-nn`) and
//! the optimizers (`zo-optim`). They operate on flat slices so that the
//! same kernels serve both `Tensor` data and raw parameter buffers.
//!
//! # Transcendentals
//!
//! The training step's `exp`, `tanh` and `ln` are computed here, not by
//! libm. On the baseline x86-64 target `f32::exp`/`tanh`/`ln` are one
//! libm call per element (≈ 3–5 ns for `expf`, ≈ 22–33 ns for `tanhf`)
//! and block vectorization of every loop they sit in. [`exp`], [`tanh`] and
//! [`ln`] are branch-free: range reduction, a short polynomial and
//! compare/select for the special cases, in plain multiplies and adds
//! (no `mul_add`, which is itself a libm call on that target).
//! [`map_lanes`] and [`zip_map_lanes`] run them over fixed
//! [`LANES`]-element chunks, which the autovectorizer maps onto vector
//! registers; the remainder runs the same function one value at a time,
//! so a value's bits never depend on where a chunk starts.
//!
//! Semantics follow libm's: NaN in gives NaN out, `exp(-inf) == 0` and
//! very negative inputs underflow through the subnormals to `+0`,
//! `exp(x)` overflows to `+inf`, `tanh(±inf) == ±1`, `ln(0) == -inf`,
//! `ln(x < 0)` is NaN and `ln(+inf) == +inf`. Accuracy against the exact
//! result, asserted on a strided sweep by the unit tests and on all 2³²
//! inputs by an ignored exhaustive test (measured worst case in
//! brackets): [`exp`] within 1 ulp [0.99], counting subnormal outputs in
//! units of the smallest subnormal; [`ln`] within 1 ulp [0.83]; [`tanh`]
//! within 1.5 ulp [1.33] and 1e-7 absolute [7.9e-8].
//!
//! The GELU kernels ([`gelu_on`], [`gelu_grad_mul_on`]) compute with
//! [`tanh`] and split their pass over the worker pool above
//! [`MIN_PARALLEL_GELU_ELEMS`]; every element's arithmetic is the same in
//! any part, so the result is bit-identical for every split.

use crate::error::TensorError;
use crate::pool::{self, Pool};

/// Checks that two slices have equal length for operation `op`.
#[inline]
fn check_len(op: &'static str, a: usize, b: usize) -> Result<(), TensorError> {
    if a == b {
        Ok(())
    } else {
        Err(TensorError::LengthMismatch {
            op,
            expected: a,
            actual: b,
        })
    }
}

/// `dst += src`.
pub fn add_assign(dst: &mut [f32], src: &[f32]) -> Result<(), TensorError> {
    check_len("add_assign", dst.len(), src.len())?;
    for (d, s) in dst.iter_mut().zip(src) {
        *d += *s;
    }
    Ok(())
}

/// `dst -= src`.
pub fn sub_assign(dst: &mut [f32], src: &[f32]) -> Result<(), TensorError> {
    check_len("sub_assign", dst.len(), src.len())?;
    for (d, s) in dst.iter_mut().zip(src) {
        *d -= *s;
    }
    Ok(())
}

/// `dst *= src` elementwise.
pub fn mul_assign(dst: &mut [f32], src: &[f32]) -> Result<(), TensorError> {
    check_len("mul_assign", dst.len(), src.len())?;
    for (d, s) in dst.iter_mut().zip(src) {
        *d *= *s;
    }
    Ok(())
}

/// `dst *= alpha`.
pub fn scale(dst: &mut [f32], alpha: f32) {
    for d in dst.iter_mut() {
        *d *= alpha;
    }
}

/// `dst += alpha * src` (the BLAS `axpy`), as a separate multiply and add
/// so the loop vectorizes on targets without a guaranteed FMA unit.
pub fn axpy(alpha: f32, src: &[f32], dst: &mut [f32]) -> Result<(), TensorError> {
    check_len("axpy", dst.len(), src.len())?;
    for (d, s) in dst.iter_mut().zip(src) {
        *d += alpha * *s;
    }
    Ok(())
}

/// Dot product of two slices, accumulated in `f64` for stability.
pub fn dot(a: &[f32], b: &[f32]) -> Result<f64, TensorError> {
    check_len("dot", a.len(), b.len())?;
    Ok(a.iter()
        .zip(b)
        .map(|(x, y)| (*x as f64) * (*y as f64))
        .sum())
}

/// Sum of all elements, accumulated in `f64`.
pub fn sum(a: &[f32]) -> f64 {
    a.iter().map(|x| *x as f64).sum()
}

/// L2 norm, accumulated in `f64`.
pub fn l2_norm(a: &[f32]) -> f64 {
    a.iter()
        .map(|x| (*x as f64) * (*x as f64))
        .sum::<f64>()
        .sqrt()
}

/// Maximum absolute value, or 0.0 for an empty slice.
pub fn max_abs(a: &[f32]) -> f32 {
    a.iter().fold(0.0f32, |m, x| m.max(x.abs()))
}

/// Returns `true` if any element is NaN or infinite.
///
/// Mixed-precision training uses this for the dynamic loss scaler's
/// overflow check on fp16 gradients.
pub fn has_non_finite(a: &[f32]) -> bool {
    a.iter().any(|x| !x.is_finite())
}

/// In-place numerically stable softmax over one row.
///
/// The exponentials run through [`exp`] in [`LANES`]-element chunks; the
/// denominator is accumulated in `f64`, serially in element order.
pub fn softmax_row(row: &mut [f32]) {
    let max = row.iter().fold(f32::NEG_INFINITY, |m, x| m.max(*x));
    exp_normalize(row, max);
}

/// [`softmax_row`] of `row · scale`, with the scaling fused into the
/// pass that finds the maximum (attention's `softmax(q·k / √d)`).
pub fn scaled_softmax_row(row: &mut [f32], scale: f32) {
    let mut max = f32::NEG_INFINITY;
    for v in row.iter_mut() {
        *v *= scale;
        max = max.max(*v);
    }
    exp_normalize(row, max);
}

/// `row = exp(row - max) / Σ exp(row - max)`, the sum in `f64`.
fn exp_normalize(row: &mut [f32], max: f32) {
    if row.is_empty() {
        return;
    }
    map_lanes(row, |v| exp(v - max));
    let mut denom = 0.0f64;
    for v in row.iter() {
        denom += *v as f64;
    }
    let inv = (1.0 / denom) as f32;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Width of the fixed chunks [`map_lanes`] and [`zip_map_lanes`] hand to
/// the autovectorizer: eight `f32` lanes fill two SSE2 registers or one
/// AVX register.
pub const LANES: usize = 8;

/// `x = f(x)` for every element, over [`LANES`]-element chunks.
///
/// For a branch-free `f` (such as [`exp`], [`tanh`] or [`ln`]) the
/// unrolled chunk body vectorizes. The tail runs `f` one element at a
/// time; since it is the same function, every element gets the same bits
/// wherever the chunk boundaries fall.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // the counted 0..LANES loop is what unrolls
pub fn map_lanes(xs: &mut [f32], f: impl Fn(f32) -> f32) {
    let mut chunks = xs.chunks_exact_mut(LANES);
    for c in &mut chunks {
        for i in 0..LANES {
            c[i] = f(c[i]);
        }
    }
    for v in chunks.into_remainder() {
        *v = f(*v);
    }
}

/// `dst[i] = f(dst[i], src[i])` for every element, over [`LANES`]-element
/// chunks (see [`map_lanes`]).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // the counted 0..LANES loop is what unrolls
pub fn zip_map_lanes(dst: &mut [f32], src: &[f32], f: impl Fn(f32, f32) -> f32) {
    assert_eq!(dst.len(), src.len(), "zip_map_lanes length mismatch");
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (dc, sc) in (&mut d).zip(&mut s) {
        for i in 0..LANES {
            dc[i] = f(dc[i], sc[i]);
        }
    }
    for (dv, sv) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dv = f(*dv, *sv);
    }
}

/// `e^x`, branch-free; see the module docs for its semantics and bound.
///
/// Cody–Waite reduction `x = n·ln2 + r` with `|r| ≤ ln2/2` (the high half
/// of `ln2` has 9 significant bits, so `n·LN2_HI` is exact without a
/// fused multiply-add), Cephes' minimax polynomial for `e^r`, and
/// `2^n` applied as two normal factors `2^⌊n/2⌋ · 2^(n-⌊n/2⌋)` so that
/// results in the subnormal range round once, from the exact
/// `e^r · 2^⌊n/2⌋`. The input is clamped to `[-104, 88.8]` first:
/// `e^-104` is below half the smallest subnormal (so it rounds to `+0`,
/// as does `-inf`) and `e^88.8` overflows to `+inf` (as does `+inf`). The
/// clamp is a compare/select, so a NaN passes through it and is returned.
#[inline]
pub fn exp(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_4; // 355/512
    const LN2_LO: f32 = -2.121_944_4e-4;
    // 1.5·2^23: adding it rounds |v| < 2^22 to an integer in the low
    // mantissa bits.
    const ROUND: f32 = 12_582_912.0;
    let xc = if x > 88.8 { 88.8 } else { x };
    let xc = if xc < -104.0 { -104.0 } else { xc };
    let t = xc * LOG2E + ROUND;
    let n = t - ROUND;
    let ni = (t.to_bits() as i32).wrapping_sub(ROUND.to_bits() as i32);
    let r = (xc - n * LN2_HI) - n * LN2_LO;
    let z = r * r;
    let p = (((((1.987_569_1e-4 * r + 1.398_199_9e-3) * r + 8.333_452e-3) * r + 4.166_579_6e-2)
        * r
        + 1.666_666_5e-1)
        * r
        + 0.5)
        * z
        + r
        + 1.0;
    let n1 = ni >> 1;
    let n2 = ni.wrapping_sub(n1);
    let s1 = f32::from_bits((n1.wrapping_add(127) as u32) << 23);
    let s2 = f32::from_bits((n2.wrapping_add(127) as u32) << 23);
    let y = p * s1 * s2;
    if x.is_nan() {
        x + x
    } else {
        y
    }
}

/// `tanh(x)`, branch-free; see the module docs for its semantics and
/// bound.
///
/// On `|x|`: below 0.625 an odd polynomial (Cephes' minimax fit), which
/// keeps full relative accuracy near 0, and above it
/// `1 - 2/(e^{2|x|} + 1)` through [`exp`]; then `x`'s sign bit is set
/// on the result (so `tanh(-0.0)` is `-0.0`). Both arms are computed and
/// one is selected, so the lanes never branch. For large `|x|` the
/// exponential overflows to `+inf` and the result is exactly `±1`; a NaN
/// propagates through [`exp`].
#[inline]
pub fn tanh(x: f32) -> f32 {
    let a = x.abs();
    let z = a * a;
    let small =
        ((((-5.704_988_7e-3 * z + 2.063_909e-2) * z - 5.373_971_6e-2) * z + 1.333_144_2e-1) * z
            - 3.333_328e-1)
            * z
            * a
            + a;
    let e = exp(a + a);
    let big = 1.0 - 2.0 / (e + 1.0);
    let t = if a < 0.625 { small } else { big };
    f32::from_bits(t.to_bits() | (x.to_bits() & 0x8000_0000))
}

/// `ln(x)`, branch-free; see the module docs for its semantics and bound.
///
/// Subnormal inputs are scaled by `2^23` first (and the exponent
/// corrected), then `x = m·2^e` with `m ∈ [√½, √2)` splits off by bit
/// manipulation, and `ln(1 + f)` for `f = m - 1` (exact) is Cephes'
/// minimax polynomial, with `e·ln2` added in two parts as in [`exp`].
/// Zero (of either sign), negative, infinite and NaN inputs are selected
/// at the end.
#[inline]
pub fn ln(x: f32) -> f32 {
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    let sub = x < f32::MIN_POSITIVE;
    let xs = if sub { x * 8_388_608.0 } else { x };
    let bits = xs.to_bits();
    let e = ((bits >> 23) & 0xFF) as i32 - if sub { 127 + 23 } else { 127 };
    let m = f32::from_bits((bits & 0x007F_FFFF) | 0x3F80_0000);
    let big = m > std::f32::consts::SQRT_2;
    let m = if big { m * 0.5 } else { m };
    let e = if big { e + 1 } else { e };
    let f = m - 1.0;
    let ef = e as f32;
    let z = f * f;
    let y = ((((((((7.037_683_6e-2 * f - 1.151_461e-1) * f + 1.167_699_9e-1) * f
        - 1.242_014_1e-1)
        * f
        + 1.424_932_3e-1)
        * f
        - 1.666_805_8e-1)
        * f
        + 2.000_071_4e-1)
        * f
        - 2.499_999_4e-1)
        * f
        + 3.333_333e-1)
        * f
        * z;
    let y = y + ef * LN2_LO;
    let y = y - 0.5 * z;
    let r = (f + y) + ef * LN2_HI;
    let r = if x == f32::INFINITY { x } else { r };
    let r = if x == 0.0 { f32::NEG_INFINITY } else { r };
    let r = if x < 0.0 { f32::NAN } else { r };
    if x.is_nan() {
        x + x
    } else {
        r
    }
}

/// GELU's inner argument `sqrt(2/pi)·(x + 0.044715·x³)`.
#[inline(always)]
fn gelu_inner(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    C * (x + 0.044715 * x * x * x)
}

/// GELU activation (tanh approximation, as used by GPT-2/BERT), through
/// the in-repo [`tanh`].
#[inline]
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + tanh(gelu_inner(x)))
}

/// Derivative of [`gelu`] with respect to its input.
#[inline]
pub fn gelu_grad(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let t = tanh(gelu_inner(x));
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x)
}

/// GELU passes over fewer elements than this run inline.
///
/// A GELU element costs ≈ 4 ns a pass through [`tanh`], several times a
/// memory-bound pass's, so the split pays off well below
/// [`pool::MIN_PARALLEL_ELEMS`]. Measured on a 2-vCPU host (forward plus
/// backward on the global pool, min over interleaved rounds), two parts
/// against one: 1.56× as long at 4 Ki elements, 1.07× at 8 Ki, 0.83× at
/// 16 Ki and 0.58× at 256 Ki (the `dense-compute` MLP's 256 × 1024). The
/// bar sits where the split stops losing.
pub const MIN_PARALLEL_GELU_ELEMS: usize = 1 << 14;

/// `y = gelu(x)` in one pass, split into `parts` ranges on `pool`
/// (bit-identical for every `parts`).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn gelu_on(pool: &Pool, parts: usize, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "gelu length mismatch");
    pool::run_partitioned(pool, parts, x.len(), 1, y, |range, out| {
        zip_map_lanes(out, &x[range], |_, v| gelu(v));
    });
}

/// `d *= gelu'(x)` in one pass (the GELU backward, with `d` holding the
/// upstream gradient), split into `parts` ranges on `pool`
/// (bit-identical for every `parts`).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn gelu_grad_mul_on(pool: &Pool, parts: usize, x: &[f32], d: &mut [f32]) {
    assert_eq!(x.len(), d.len(), "gelu_grad length mismatch");
    pool::run_partitioned(pool, parts, x.len(), 1, d, |range, out| {
        zip_map_lanes(out, &x[range], |g, v| g * gelu_grad(v));
    });
}

/// ReLU activation.
#[inline]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Derivative of [`relu`] (subgradient 0 at the kink).
#[inline]
pub fn relu_grad(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_mul_scale() {
        let mut d = vec![1.0, 2.0, 3.0];
        add_assign(&mut d, &[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(d, vec![2.0, 3.0, 4.0]);
        sub_assign(&mut d, &[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(d, vec![1.0, 2.0, 3.0]);
        mul_assign(&mut d, &[2.0, 2.0, 2.0]).unwrap();
        assert_eq!(d, vec![2.0, 4.0, 6.0]);
        scale(&mut d, 0.5);
        assert_eq!(d, vec![1.0, 2.0, 3.0]);
        assert!(add_assign(&mut d, &[1.0]).is_err());
    }

    #[test]
    fn axpy_and_dot() {
        let mut d = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut d).unwrap();
        assert_eq!(d, vec![7.0, 9.0]);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]).unwrap(), 11.0);
        assert!(dot(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn reductions() {
        assert_eq!(sum(&[1.0, 2.0, 3.0]), 6.0);
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(max_abs(&[-7.0, 3.0]), 7.0);
        assert_eq!(max_abs(&[]), 0.0);
        assert!(!has_non_finite(&[1.0, 2.0]));
        assert!(has_non_finite(&[1.0, f32::NAN]));
        assert!(has_non_finite(&[f32::INFINITY]));
    }

    #[test]
    fn softmax_properties() {
        let mut row = vec![1.0, 2.0, 3.0];
        softmax_row(&mut row);
        let total: f32 = row.iter().sum();
        assert!((total - 1.0).abs() < 1e-5);
        assert!(row[2] > row[1] && row[1] > row[0]);
        // Stability under large inputs.
        let mut big = vec![1000.0, 1000.0];
        softmax_row(&mut big);
        assert!((big[0] - 0.5).abs() < 1e-6);
        // Empty row is a no-op.
        softmax_row(&mut []);
    }

    #[test]
    fn gelu_matches_reference_points() {
        assert_eq!(gelu(0.0), 0.0);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.1588).abs() < 1e-3);
        // Large positive ~ identity, large negative ~ 0.
        assert!((gelu(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let h = 1e-3;
            let fd = (gelu(x + h) - gelu(x - h)) / (2.0 * h);
            assert!(
                (gelu_grad(x) - fd).abs() < 1e-2,
                "gelu'({x}) = {} vs fd {}",
                gelu_grad(x),
                fd
            );
        }
    }

    #[test]
    fn relu_and_grad() {
        assert_eq!(relu(-1.0), 0.0);
        assert_eq!(relu(2.0), 2.0);
        assert_eq!(relu_grad(-1.0), 0.0);
        assert_eq!(relu_grad(2.0), 1.0);
    }

    /// `got`'s distance from the exact `want` in units of the last place
    /// of `want`'s binade (subnormal outputs share the binade of
    /// `f32::MIN_POSITIVE`). Infinite or NaN results count only when the
    /// correctly rounded value is the same.
    fn ulp_error(got: f32, want: f64) -> f64 {
        let rounded = want as f32;
        if !rounded.is_finite() || !got.is_finite() {
            let same = got.to_bits() == rounded.to_bits() || (got.is_nan() && rounded.is_nan());
            return if same { 0.0 } else { f64::INFINITY };
        }
        let binade = if want == 0.0 {
            -126
        } else {
            (want.abs().log2().floor() as i32).max(-126)
        };
        (got as f64 - want).abs() / 2f64.powi(binade - 23)
    }

    /// The worst error of `f` (run through [`map_lanes`]) against the f64
    /// reference `reference` over every `stride`-th bit pattern, each with
    /// its two neighbours unless `stride` is 1. Returns
    /// `(max ulp, max absolute error, input at the max ulp)`.
    fn sweep(
        f: fn(f32) -> f32,
        reference: fn(f64) -> f64,
        stride: u64,
        keep: impl Fn(f32) -> bool,
    ) -> (f64, f64, f32) {
        const CHUNK: usize = 1 << 14;
        let (mut worst_ulp, mut worst_abs, mut at) = (0.0f64, 0.0f64, 0.0f32);
        let mut xs = Vec::with_capacity(CHUNK * 3);
        let mut k = 0u64;
        while k < 1 << 32 {
            xs.clear();
            while xs.len() < CHUNK * 3 && k < 1 << 32 {
                let b = k as u32;
                if stride == 1 {
                    xs.push(f32::from_bits(b));
                } else {
                    xs.extend([b.wrapping_sub(1), b, b.wrapping_add(1)].map(f32::from_bits));
                }
                k += stride;
            }
            xs.retain(|&x| keep(x));
            let mut ys = xs.clone();
            map_lanes(&mut ys, f);
            for (&x, &y) in xs.iter().zip(&ys) {
                let want = reference(x as f64);
                let ulp = ulp_error(y, want);
                if ulp > worst_ulp {
                    (worst_ulp, at) = (ulp, x);
                }
                if y.is_finite() {
                    worst_abs = worst_abs.max((y as f64 - want).abs());
                }
            }
        }
        (worst_ulp, worst_abs, at)
    }

    /// Inputs whose exact `e^x` is representable or overflows cleanly;
    /// NaN inputs are the non-finite test's.
    fn exp_domain(x: f32) -> bool {
        !x.is_nan()
    }

    fn tanh_domain(x: f32) -> bool {
        !x.is_nan()
    }

    fn ln_domain(x: f32) -> bool {
        x >= 0.0 && !x.is_nan()
    }

    const EXP_MAX_ULP: f64 = 1.0;
    const TANH_MAX_ULP: f64 = 1.5;
    const TANH_MAX_ABS: f64 = 1e-7;
    const LN_MAX_ULP: f64 = 1.0;

    #[test]
    fn exp_is_within_its_ulp_bound_on_a_strided_sweep() {
        let (ulp, _, at) = sweep(exp, f64::exp, 4099, exp_domain);
        assert!(ulp <= EXP_MAX_ULP, "exp: {ulp} ulp at {at:e}");
    }

    #[test]
    fn tanh_is_within_its_bounds_on_a_strided_sweep() {
        let (ulp, abs, at) = sweep(tanh, f64::tanh, 4099, tanh_domain);
        assert!(ulp <= TANH_MAX_ULP, "tanh: {ulp} ulp at {at:e}");
        assert!(abs <= TANH_MAX_ABS, "tanh: absolute error {abs:e}");
    }

    #[test]
    fn ln_is_within_its_ulp_bound_on_a_strided_sweep() {
        let (ulp, _, at) = sweep(ln, f64::ln, 4099, ln_domain);
        assert!(ulp <= LN_MAX_ULP, "ln: {ulp} ulp at {at:e}");
    }

    #[test]
    #[ignore = "exhaustive 2^32 sweep, ~minutes in release; run on demand"]
    fn transcendentals_exhaustively_within_their_bounds() {
        let (ulp, _, at) = sweep(exp, f64::exp, 1, exp_domain);
        assert!(ulp <= EXP_MAX_ULP, "exp: {ulp} ulp at {at:e}");
        let (ulp, abs, at) = sweep(tanh, f64::tanh, 1, tanh_domain);
        assert!(ulp <= TANH_MAX_ULP, "tanh: {ulp} ulp at {at:e}");
        assert!(abs <= TANH_MAX_ABS, "tanh: absolute error {abs:e}");
        let (ulp, _, at) = sweep(ln, f64::ln, 1, ln_domain);
        assert!(ulp <= LN_MAX_ULP, "ln: {ulp} ulp at {at:e}");
    }

    #[test]
    fn non_finite_and_signed_zero_cases_match_libm() {
        let nan = f32::NAN;
        let inf = f32::INFINITY;
        assert!(exp(nan).is_nan() && exp(-nan).is_nan());
        assert_eq!(exp(-inf).to_bits(), 0.0f32.to_bits());
        assert_eq!(exp(inf), inf);
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(89.0), inf);
        assert_eq!(exp(f32::MAX), inf);
        assert_eq!(exp(-104.0).to_bits(), 0);
        assert_eq!(exp(f32::MIN).to_bits(), 0);
        // Subnormal outputs round once, like the exact result.
        for x in [-87.5f32, -95.0, -100.0, -103.0, -103.9] {
            let (got, want) = (exp(x), (x as f64).exp() as f32);
            assert!(got.is_subnormal() && want.is_subnormal(), "e^{x} = {got:e}");
            assert!(
                (got.to_bits() as i64 - want.to_bits() as i64).abs() <= 1,
                "e^{x}"
            );
        }

        assert!(tanh(nan).is_nan());
        assert_eq!(tanh(inf), 1.0);
        assert_eq!(tanh(-inf), -1.0);
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh(1e-30), 1e-30);
        assert_eq!(tanh(f32::from_bits(1)), f32::from_bits(1));
        assert_eq!(tanh(20.0), 1.0);
        assert_eq!(tanh(-20.0), -1.0);

        assert!(ln(nan).is_nan());
        assert!(ln(-1.0).is_nan());
        assert!(ln(-inf).is_nan());
        assert!(ln(-f32::from_bits(1)).is_nan());
        assert_eq!(ln(0.0), -inf);
        assert_eq!(ln(-0.0), -inf);
        assert_eq!(ln(inf), inf);
        assert_eq!(ln(1.0).to_bits(), 0.0f32.to_bits());
        let tiny = f32::from_bits(1); // 2^-149
        assert!((ln(tiny) as f64 - (tiny as f64).ln()).abs() < 1e-5);

        // The derived kernels see NaN/Inf the way the libm versions did.
        assert!(gelu(nan).is_nan() && gelu_grad(nan).is_nan());
        assert_eq!(gelu(inf), inf);
        assert!(gelu(-inf).is_nan());
        let mut row = [1.0, nan, 2.0];
        softmax_row(&mut row);
        assert!(row.iter().all(|v| v.is_nan()));
        let mut row = [0.0, f32::NEG_INFINITY, 0.0];
        softmax_row(&mut row);
        assert_eq!(row, [0.5, 0.0, 0.5]);
    }

    #[test]
    fn lanes_give_the_scalar_bits_at_every_alignment() {
        let xs: Vec<f32> = (0..203)
            .map(|i| f32::from_bits((i as u32).wrapping_mul(0x9E37_79B9)))
            .chain([f32::NAN, f32::INFINITY, -f32::INFINITY, -0.0, 0.0, 1e-40])
            .collect();
        for f in [exp as fn(f32) -> f32, tanh, ln, gelu, gelu_grad] {
            for start in 0..LANES {
                let mut got = xs[start..].to_vec();
                map_lanes(&mut got, f);
                for (x, g) in xs[start..].iter().zip(&got) {
                    let want = f(*x);
                    assert!(
                        g.to_bits() == want.to_bits() || (g.is_nan() && want.is_nan()),
                        "{x:e} at offset {start}"
                    );
                }
            }
        }
    }

    #[test]
    fn softmax_row_matches_an_f64_reference_at_every_alignment() {
        let base: Vec<f32> = (0..37).map(|i| (i as f32 * 1.37).sin() * 9.0).collect();
        let mut want = base.clone();
        softmax_row(&mut want);
        let max = base.iter().fold(f32::NEG_INFINITY, |m, x| m.max(*x)) as f64;
        let denom: f64 = base.iter().map(|&v| (v as f64 - max).exp()).sum();
        for (w, &v) in want.iter().zip(&base) {
            assert!((*w as f64 - (v as f64 - max).exp() / denom).abs() < 1e-6);
        }
        // The same row inside a longer buffer, at every offset mod LANES.
        for start in 0..LANES {
            let mut buf = vec![0.0f32; start];
            buf.extend_from_slice(&base);
            softmax_row(&mut buf[start..]);
            assert_eq!(&buf[start..], &want[..], "offset {start}");
        }
    }
}
