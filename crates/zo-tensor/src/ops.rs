//! Elementwise and reduction kernels over `f32` slices.
//!
//! These are the building blocks shared by the NN substrate (`zo-nn`) and
//! the optimizers (`zo-optim`). They operate on flat slices so that the
//! same kernels serve both `Tensor` data and raw parameter buffers.

use crate::error::TensorError;

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
pub fn softmax_row(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().fold(f32::NEG_INFINITY, |m, x| m.max(*x));
    let mut denom = 0.0f64;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        denom += *v as f64;
    }
    let inv = (1.0 / denom) as f32;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// GELU activation (tanh approximation, as used by GPT-2/BERT).
#[inline]
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

/// Derivative of [`gelu`] with respect to its input.
#[inline]
pub fn gelu_grad(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = 0.044715 * x * x * x;
    let t = (C * (x + x3)).tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x)
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
}
