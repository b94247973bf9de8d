//! Cross-entropy loss over logits, with fused softmax backward.
//!
//! Rows are independent (softmax + one-hot subtraction per row), so the
//! per-row work parallelizes across the shared worker pool. The softmax
//! and the target's log-prob use `zo_tensor::ops`' in-repo `exp` and
//! `ln`, not libm. The scalar loss is reduced **serially in row order**
//! from per-row log-probs, so the f64 accumulation sequence — and the
//! returned loss — is bit-identical to the serial implementation at any
//! thread count.

use zo_tensor::{ops, pool, Tensor, TensorError};

/// Mean cross-entropy of `logits` `(n, classes)` against integer `targets`.
///
/// Returns `(loss, dlogits)` where `dlogits = (softmax - onehot) / n` —
/// the gradient of the mean loss, ready to feed the model backward.
/// Large batches run across the shared worker pool with bit-identical
/// results.
///
/// Returns [`TensorError::LengthMismatch`] if `targets.len() != n`, and
/// [`TensorError::IndexOutOfBounds`] for a target outside `[0, classes)`.
pub fn cross_entropy(logits: &Tensor, targets: &[usize]) -> Result<(f32, Tensor), TensorError> {
    let (n, classes) = logits.shape();
    let threads = pool::global().threads();
    // Small batches aren't worth a pool round-trip.
    let parts = if n * classes < (1 << 16) { 1 } else { threads };
    cross_entropy_on(pool::global(), parts, logits, targets)
}

/// [`cross_entropy`] on an explicit pool with an explicit partition count
/// over rows (bit-identical for every `parts`).
pub fn cross_entropy_on(
    pool: &pool::Pool,
    parts: usize,
    logits: &Tensor,
    targets: &[usize],
) -> Result<(f32, Tensor), TensorError> {
    let (n, classes) = logits.shape();
    if targets.len() != n {
        return Err(TensorError::LengthMismatch {
            op: "cross_entropy",
            expected: n,
            actual: targets.len(),
        });
    }
    for (r, &t) in targets.iter().enumerate() {
        if t >= classes {
            return Err(TensorError::IndexOutOfBounds {
                index: (r, t),
                shape: (n, classes),
            });
        }
    }
    let mut dlogits = logits.clone();
    let inv_n = 1.0 / n as f32;
    // Per-row log-probs, filled by the (possibly parallel) row pass and
    // reduced serially below so the f64 sum order never changes.
    let mut row_logp = vec![0.0f64; n];
    let row_pass = |rows: core::ops::Range<usize>, drows: &mut [f32], logp: &mut [f64]| {
        for (li, r) in rows.enumerate() {
            let row = &mut drows[li * classes..(li + 1) * classes];
            let t = targets[r];
            ops::softmax_row(row);
            // Guard against log(0) when the target prob underflows.
            logp[li] = ops::ln(row[t].max(1e-30)) as f64;
            row[t] -= 1.0;
            for v in row.iter_mut() {
                *v *= inv_n;
            }
        }
    };
    let ranges = pool::partition(n, parts);
    if ranges.len() <= 1 {
        row_pass(0..n, dlogits.data_mut(), &mut row_logp);
    } else {
        let mut tasks: Vec<Box<dyn FnOnce() + Send>> = Vec::with_capacity(ranges.len());
        let mut d_rest = dlogits.data_mut();
        let mut l_rest = row_logp.as_mut_slice();
        let row_pass = &row_pass;
        for rows in ranges {
            let (d_head, d_tail) = d_rest.split_at_mut(rows.len() * classes);
            let (l_head, l_tail) = l_rest.split_at_mut(rows.len());
            tasks.push(Box::new(move || row_pass(rows, d_head, l_head)));
            d_rest = d_tail;
            l_rest = l_tail;
        }
        pool.run(tasks);
    }
    let mut loss = 0.0f64;
    for lp in &row_logp {
        loss -= lp;
    }
    Ok(((loss / n as f64) as f32, dlogits))
}

/// Fraction of rows whose argmax equals the target (accuracy).
pub fn accuracy(logits: &Tensor, targets: &[usize]) -> f32 {
    if targets.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for (r, &t) in targets.iter().enumerate() {
        let row = logits.row(r);
        let argmax = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        if argmax == t {
            correct += 1;
        }
    }
    correct as f32 / targets.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_classes() {
        let logits = Tensor::zeros(3, 4);
        let (loss, _) = cross_entropy(&logits, &[0, 1, 2]).unwrap();
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let mut logits = Tensor::zeros(1, 3);
        logits.set(0, 1, 10.0).unwrap();
        let (loss, _) = cross_entropy(&logits, &[1]).unwrap();
        assert!(loss < 1e-3);
        let (bad, _) = cross_entropy(&logits, &[0]).unwrap();
        assert!(bad > 5.0);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Tensor::from_rows(&[&[0.3, -0.7, 1.1], &[0.0, 0.5, -0.5]]).unwrap();
        let targets = [2usize, 0];
        let (_, d) = cross_entropy(&logits, &targets).unwrap();
        let h = 1e-3;
        for r in 0..2 {
            for c in 0..3 {
                let mut lp = logits.clone();
                lp.set(r, c, logits.get(r, c).unwrap() + h).unwrap();
                let mut lm = logits.clone();
                lm.set(r, c, logits.get(r, c).unwrap() - h).unwrap();
                let (up, _) = cross_entropy(&lp, &targets).unwrap();
                let (down, _) = cross_entropy(&lm, &targets).unwrap();
                let fd = (up - down) / (2.0 * h);
                assert!((d.get(r, c).unwrap() - fd).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Tensor::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        let (_, d) = cross_entropy(&logits, &[0]).unwrap();
        let s: f32 = d.row(0).iter().sum();
        assert!(s.abs() < 1e-6);
    }

    #[test]
    fn parallel_loss_bit_identical_to_serial() {
        let pool = pool::Pool::new(4);
        let mut init = zo_tensor::Init::new(21);
        let n = 37;
        let classes = 13;
        let logits = init.normal_tensor(n, classes, 2.0);
        let targets: Vec<usize> = (0..n).map(|r| (r * 5 + 1) % classes).collect();
        let (want_loss, want_d) = cross_entropy_on(&pool, 1, &logits, &targets).unwrap();
        for parts in [2usize, 3, 7] {
            let (loss, d) = cross_entropy_on(&pool, parts, &logits, &targets).unwrap();
            assert_eq!(loss.to_bits(), want_loss.to_bits(), "parts={parts}");
            assert_eq!(d.data(), want_d.data(), "parts={parts}");
        }
        // Pools of 1–4 workers, split as many ways and three more.
        for threads in 1..=4 {
            let pool = pool::Pool::new(threads);
            for parts in [threads, threads + 3] {
                let (loss, d) = cross_entropy_on(&pool, parts, &logits, &targets).unwrap();
                assert_eq!(loss.to_bits(), want_loss.to_bits(), "{threads}/{parts}");
                assert_eq!(d.data(), want_d.data(), "{threads}/{parts}");
            }
        }
        // And the public entry point agrees bit-for-bit too.
        let (loss, d) = cross_entropy(&logits, &targets).unwrap();
        assert_eq!(loss.to_bits(), want_loss.to_bits());
        assert_eq!(d.data(), want_d.data());
    }

    #[test]
    fn errors_on_bad_inputs() {
        let logits = Tensor::zeros(2, 3);
        assert!(cross_entropy(&logits, &[0]).is_err());
        assert!(cross_entropy(&logits, &[0, 3]).is_err());
    }

    #[test]
    fn accuracy_counts_argmax() {
        let logits = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.2, 0.1]]).unwrap();
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(accuracy(&Tensor::zeros(0, 2), &[]), 0.0);
    }
}
