//! A minimal row-major 2-D `f32` tensor.
//!
//! The real-execution training path of the library (used for the
//! convergence experiments, Figs. 12–13 of the paper) only needs dense 2-D
//! math: batched activations are `(batch*seq, features)` matrices and every
//! layer's forward/backward is expressible with matmuls and elementwise
//! kernels from [`crate::ops`].

use crate::error::TensorError;
use crate::f16::F16;
use crate::pool;

/// A dense, row-major matrix of `f32` values.
///
/// # Examples
///
/// ```
/// use zo_tensor::Tensor;
///
/// let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// assert_eq!(t.get(1, 0), Some(3.0));
/// assert_eq!(t.shape(), (2, 2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Tensor {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Tensor, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch {
                op: "from_vec",
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Tensor { rows, cols, data })
    }

    /// Creates a tensor from a slice of equal-length rows.
    ///
    /// Returns [`TensorError::LengthMismatch`] if the rows differ in length.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Tensor, TensorError> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(TensorError::LengthMismatch {
                    op: "from_rows",
                    expected: c,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Tensor {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Returns the shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns the number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Returns the number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the flat row-major data slice.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Returns the flat row-major data slice mutably.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat buffer.
    #[inline]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the element at `(row, col)`, or `None` if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Option<f32> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Sets the element at `(row, col)`.
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) -> Result<(), TensorError> {
        if row < self.rows && col < self.cols {
            self.data[row * self.cols + col] = value;
            Ok(())
        } else {
            Err(TensorError::IndexOutOfBounds {
                index: (row, col),
                shape: (self.rows, self.cols),
            })
        }
    }

    /// Returns row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    #[inline]
    pub fn row(&self, row: usize) -> &[f32] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Returns row `row` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Returns the transpose as a new tensor.
    pub fn transposed(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Fills the tensor with zeros in place, split over the shared worker
    /// pool when it holds at least [`pool::MIN_PARALLEL_ELEMS`] elements
    /// (a layer's gradient buffer at the start of every step).
    pub fn fill_zero(&mut self) {
        let n = self.data.len();
        pool::run_partitioned(
            pool::global(),
            pool::elementwise_parts(n),
            n,
            1,
            &mut self.data,
            |_, part| part.fill(0.0),
        );
    }

    /// Reshapes in place without moving data.
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element count differs.
    pub fn reshape(&mut self, rows: usize, cols: usize) -> Result<(), TensorError> {
        if rows * cols != self.data.len() {
            return Err(TensorError::LengthMismatch {
                op: "reshape",
                expected: self.data.len(),
                actual: rows * cols,
            });
        }
        self.rows = rows;
        self.cols = cols;
        Ok(())
    }

    /// Rounds every element through fp16 and back.
    ///
    /// This models storing a tensor in half precision (the paper keeps fp16
    /// parameters on GPU): the values that come back are exactly the values
    /// an fp16 buffer would hold.
    pub fn quantize_f16(&mut self) {
        for v in &mut self.data {
            *v = F16::from_f32(*v).to_f32();
        }
    }

    /// Returns a copy of the given row range as a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the row count.
    pub fn slice_rows(&self, range: core::ops::Range<usize>) -> Tensor {
        assert!(
            range.end <= self.rows,
            "row range {range:?} exceeds {}",
            self.rows
        );
        let data = self.data[range.start * self.cols..range.end * self.cols].to_vec();
        Tensor {
            rows: range.len(),
            cols: self.cols,
            data,
        }
    }

    /// Returns a copy of the given column range as a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the column count.
    pub fn slice_cols(&self, range: core::ops::Range<usize>) -> Tensor {
        assert!(
            range.end <= self.cols,
            "column range {range:?} exceeds {}",
            self.cols
        );
        let mut out = Tensor::zeros(self.rows, range.len());
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[range.clone()]);
        }
        out
    }

    /// Stacks tensors vertically (all must share the column count).
    ///
    /// Returns [`TensorError::ShapeMismatch`] on a column-count conflict
    /// and an empty `0x0` tensor for an empty input.
    pub fn concat_rows(parts: &[&Tensor]) -> Result<Tensor, TensorError> {
        let Some(first) = parts.first() else {
            return Ok(Tensor::zeros(0, 0));
        };
        let cols = first.cols;
        let mut data = Vec::new();
        let mut rows = 0;
        for p in parts {
            if p.cols != cols {
                return Err(TensorError::ShapeMismatch {
                    op: "concat_rows",
                    lhs: (rows, cols),
                    rhs: p.shape(),
                });
            }
            data.extend_from_slice(&p.data);
            rows += p.rows;
        }
        Ok(Tensor { rows, cols, data })
    }

    /// Returns the Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data
            .iter()
            .map(|v| (*v as f64) * (*v as f64))
            .sum::<f64>()
            .sqrt() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut t = Tensor::zeros(2, 3);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
        t.set(1, 2, 5.0).unwrap();
        assert_eq!(t.get(1, 2), Some(5.0));
        assert_eq!(t.get(2, 0), None);
        assert!(t.set(0, 3, 1.0).is_err());
    }

    #[test]
    fn fill_zero_clears_small_and_split_tensors() {
        // One tensor below the split threshold and one above it (split
        // whenever the global pool has more than one worker).
        for cols in [3usize, pool::MIN_PARALLEL_ELEMS / 64 + 5] {
            let mut t = Tensor::full(64, cols, -0.5);
            t.fill_zero();
            assert!(t.data().iter().all(|v| v.to_bits() == 0), "{cols} cols");
        }
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Tensor::from_vec(2, 2, vec![1.0; 5]).is_err());
    }

    #[test]
    fn from_rows_validates_raggedness() {
        let ok = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(ok.row(1), &[3.0, 4.0]);
        let bad: &[&[f32]] = &[&[1.0, 2.0], &[3.0]];
        assert!(Tensor::from_rows(bad).is_err());
    }

    #[test]
    fn transpose() {
        let t = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let tt = t.transposed();
        assert_eq!(tt.shape(), (3, 2));
        assert_eq!(tt.get(0, 1), Some(4.0));
        assert_eq!(tt.get(2, 0), Some(3.0));
        assert_eq!(tt.transposed(), t);
    }

    #[test]
    fn reshape_preserves_data() {
        let mut t = Tensor::from_vec(2, 3, (0..6).map(|i| i as f32).collect()).unwrap();
        t.reshape(3, 2).unwrap();
        assert_eq!(t.get(2, 1), Some(5.0));
        assert!(t.reshape(4, 2).is_err());
    }

    #[test]
    fn quantize_f16_rounds() {
        let mut t = Tensor::from_vec(1, 2, vec![1.0, 1.0 + 2.0f32.powi(-12)]).unwrap();
        t.quantize_f16();
        // The second value is below half an fp16 ulp above 1.0: rounds to 1.
        assert_eq!(t.data(), &[1.0, 1.0]);
    }

    #[test]
    fn frobenius_norm() {
        let t = Tensor::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]).unwrap();
        assert!((t.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn slicing_and_concat() {
        let t = Tensor::from_vec(4, 3, (0..12).map(|i| i as f32).collect()).unwrap();
        let mid = t.slice_rows(1..3);
        assert_eq!(mid.shape(), (2, 3));
        assert_eq!(mid.row(0), &[3.0, 4.0, 5.0]);
        let right = t.slice_cols(1..3);
        assert_eq!(right.shape(), (4, 2));
        assert_eq!(right.row(2), &[7.0, 8.0]);
        // Slices re-concatenate to the original.
        let top = t.slice_rows(0..1);
        let rest = t.slice_rows(1..4);
        assert_eq!(Tensor::concat_rows(&[&top, &rest]).unwrap(), t);
        // Mismatched columns rejected; empty input is the empty tensor.
        let narrow = Tensor::zeros(1, 2);
        assert!(Tensor::concat_rows(&[&top, &narrow]).is_err());
        assert_eq!(Tensor::concat_rows(&[]).unwrap().shape(), (0, 0));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn slice_rows_bounds_checked() {
        Tensor::zeros(2, 2).slice_rows(1..3);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut t = Tensor::zeros(2, 2);
        t.row_mut(1).copy_from_slice(&[7.0, 8.0]);
        assert_eq!(t.get(1, 0), Some(7.0));
        assert_eq!(t.get(1, 1), Some(8.0));
    }
}
