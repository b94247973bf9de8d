//! Global gradient-norm clipping.
//!
//! Norm computation is an O(M) reduction, which is exactly the class of
//! computation the paper's Sec. 3.2 assigns to the CPU ("norm calculations,
//! weight updates etc that have a complexity of O(M)").

/// One shard's sum of squares, accumulated in f64 — the partial sum a
/// data-parallel rank contributes to the global norm.
pub fn sum_squares(shard: &[f32]) -> f64 {
    shard.iter().map(|g| (*g as f64) * (*g as f64)).sum()
}

/// Computes the global L2 norm over several gradient shards.
///
/// Accepts shards so that per-layer (or per-partition) gradient buffers can
/// be clipped jointly without concatenation.
pub fn global_norm(shards: &[&[f32]]) -> f64 {
    shards.iter().map(|s| sum_squares(s)).sum::<f64>().sqrt()
}

/// Scales gradient shards by `max_norm / norm` when their global `norm`
/// exceeds `max_norm`; otherwise leaves them untouched.
pub fn clip_to_norm(shards: &mut [&mut [f32]], norm: f64, max_norm: f64) {
    if norm > max_norm && norm > 0.0 {
        let factor = (max_norm / norm) as f32;
        for shard in shards.iter_mut() {
            zo_tensor::ops::scale(shard, factor);
        }
    }
}

/// Clips gradient shards to a maximum global L2 norm.
///
/// Returns the pre-clip norm. If the norm exceeds `max_norm`, every shard
/// is scaled by `max_norm / norm`; otherwise gradients are untouched.
pub fn clip_global_norm(shards: &mut [&mut [f32]], max_norm: f64) -> f64 {
    let norm = {
        let views: Vec<&[f32]> = shards.iter().map(|s| &**s).collect();
        global_norm(&views)
    };
    clip_to_norm(shards, norm, max_norm);
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_over_shards() {
        let a = [3.0f32];
        let b = [4.0f32];
        assert!((global_norm(&[&a, &b]) - 5.0).abs() < 1e-12);
        assert_eq!(global_norm(&[]), 0.0);
    }

    #[test]
    fn clip_scales_when_above() {
        let mut a = vec![3.0f32];
        let mut b = vec![4.0f32];
        let pre = clip_global_norm(&mut [&mut a, &mut b], 1.0);
        assert!((pre - 5.0).abs() < 1e-12);
        assert!((a[0] - 0.6).abs() < 1e-6);
        assert!((b[0] - 0.8).abs() < 1e-6);
        let post = global_norm(&[&a, &b]);
        assert!((post - 1.0).abs() < 1e-6);
    }

    #[test]
    fn clip_noop_when_below() {
        let mut a = vec![0.3f32, 0.4];
        let pre = clip_global_norm(&mut [&mut a], 1.0);
        assert!((pre - 0.5).abs() < 1e-6);
        assert_eq!(a, vec![0.3, 0.4]);
    }

    #[test]
    fn zero_gradients_untouched() {
        let mut a = vec![0.0f32; 4];
        clip_global_norm(&mut [&mut a], 1.0);
        assert_eq!(a, vec![0.0; 4]);
    }
}
