//! Naive Adam — the "PT-CPU" baseline of Table 4.
//!
//! PyTorch's CPU Adam executes eagerly, one whole-array operator at a time,
//! materializing temporaries between ops. This implementation reproduces
//! that execution style faithfully — eight separate passes over the data
//! with four heap-allocated temporaries per step — while computing the same
//! recurrence as [`crate::adam::adam_reference_step`]. The performance gap
//! between this and [`crate::CpuAdam`] is the quantity Table 4 measures.

use crate::adam::{AdamParams, AdamState};
use crate::error::OptimError;

/// Op-by-op Adam with per-op temporaries (PyTorch-CPU execution analog).
#[derive(Debug, Clone)]
pub struct NaiveAdam {
    hp: AdamParams,
    state: AdamState,
}

impl NaiveAdam {
    /// Creates a naive Adam optimizer for `n` parameters.
    pub fn new(hp: AdamParams, n: usize) -> NaiveAdam {
        NaiveAdam {
            hp,
            state: AdamState::new(n),
        }
    }

    /// Returns the hyper-parameters.
    pub fn params(&self) -> &AdamParams {
        &self.hp
    }

    /// Returns the optimizer state.
    pub fn state(&self) -> &AdamState {
        &self.state
    }

    /// Completed step count.
    pub fn step_count(&self) -> u64 {
        self.state.step
    }

    /// Performs one optimizer step, op by op.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) -> Result<(), OptimError> {
        self.state.check(params, grads)?;
        self.state.step += 1;
        let (bc1, bc2) = self.hp.bias_corrections(self.state.step);
        let hp = self.hp;
        let m = &mut self.state.m;
        let v = &mut self.state.v;

        // Each block below is one "operator" over the whole array, with
        // temporaries materialized between them — deliberately mirroring
        // eager tensor-library execution.

        // g_eff = grads (+ weight_decay * p)
        let mut g_eff: Vec<f32> = grads.to_vec();
        if hp.weight_decay != 0.0 {
            for (g, p) in g_eff.iter_mut().zip(params.iter()) {
                *g += hp.weight_decay * *p;
            }
        }

        // m *= beta1
        for mi in m.iter_mut() {
            *mi *= hp.beta1;
        }
        // tmp1 = g * (1 - beta1)
        let tmp1: Vec<f32> = g_eff.iter().map(|g| g * (1.0 - hp.beta1)).collect();
        // m += tmp1
        for (mi, t) in m.iter_mut().zip(&tmp1) {
            *mi += *t;
        }

        // v *= beta2
        for vi in v.iter_mut() {
            *vi *= hp.beta2;
        }
        // tmp2 = g * g * (1 - beta2)
        let tmp2: Vec<f32> = g_eff.iter().map(|g| g * g * (1.0 - hp.beta2)).collect();
        // v += tmp2
        for (vi, t) in v.iter_mut().zip(&tmp2) {
            *vi += *t;
        }

        // denom = sqrt(v) * bc2 + eps
        let denom: Vec<f32> = v.iter().map(|vi| vi.sqrt() * bc2 + hp.eps).collect();
        // upd = m / denom
        let upd: Vec<f32> = m.iter().zip(&denom).map(|(mi, d)| mi / d).collect();
        // p += bc1 * upd
        for (p, u) in params.iter_mut().zip(&upd) {
            *p += bc1 * *u;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::adam_reference_step;

    fn seeded(n: usize, scale: f32, seed: u32) -> Vec<f32> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) as f32 / (1u32 << 24) as f32 - 0.5) * scale
            })
            .collect()
    }

    #[test]
    fn matches_reference_within_rounding() {
        // The op-by-op ordering differs from the fused single pass, so demand
        // agreement only to a few ulps, over several steps.
        let hp = AdamParams {
            lr: 0.01,
            weight_decay: 0.01,
            ..AdamParams::default()
        };
        let n = 257;
        let mut p_naive = seeded(n, 2.0, 1);
        let mut p_ref = p_naive.clone();
        let mut naive = NaiveAdam::new(hp, n);
        let mut st = AdamState::new(n);
        for step in 0..10 {
            let g = seeded(n, 0.5, 100 + step);
            naive.step(&mut p_naive, &g).unwrap();
            adam_reference_step(&hp, &mut st, &mut p_ref, &g).unwrap();
        }
        for (a, b) in p_naive.iter().zip(&p_ref) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
        assert_eq!(naive.step_count(), 10);
    }

    #[test]
    fn rejects_mismatched_lengths() {
        let mut opt = NaiveAdam::new(AdamParams::default(), 4);
        let mut p = vec![0.0; 4];
        assert!(opt.step(&mut p, &[0.0; 3]).is_err());
        let mut p5 = vec![0.0; 5];
        assert!(opt.step(&mut p5, &[0.0; 5]).is_err());
    }

    #[test]
    fn converges_on_quadratic() {
        // Minimize f(p) = 0.5 * p^2 (gradient = p): Adam should drive p to 0.
        let hp = AdamParams {
            lr: 0.05,
            ..AdamParams::default()
        };
        let mut opt = NaiveAdam::new(hp, 1);
        let mut p = vec![3.0f32];
        for _ in 0..500 {
            let g = vec![p[0]];
            opt.step(&mut p, &g).unwrap();
        }
        assert!(p[0].abs() < 0.05, "did not converge: {}", p[0]);
    }
}
