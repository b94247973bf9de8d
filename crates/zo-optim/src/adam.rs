//! Shared Adam hyper-parameters, state, and the scalar reference update.
//!
//! Every Adam implementation in this crate (the naive PT-CPU analog and the
//! optimized CPU-Adam) computes the exact same recurrence, written in the
//! form of the paper's Algorithm 1 so that implementations can be compared
//! against each other:
//!
//! ```text
//! bc1 = -alpha / (1 - beta1^t)
//! bc2 = 1 / sqrt(1 - beta2^t)
//! m   = beta1 * m + (1 - beta1) * g
//! v   = beta2 * v + (1 - beta2) * g^2
//! d   = sqrt(v) * bc2 + eps
//! p   = p + bc1 * (m / d)
//! ```

use serde::{Deserialize, Serialize};

use crate::error::OptimError;

/// Adam hyper-parameters.
///
/// # Examples
///
/// ```
/// let hp = zo_optim::AdamParams::default();
/// assert_eq!(hp.beta1, 0.9);
/// assert_eq!(hp.beta2, 0.999);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct AdamParams {
    /// Learning rate (alpha).
    pub lr: f32,
    /// Exponential decay rate for the first moment.
    pub beta1: f32,
    /// Exponential decay rate for the second moment.
    pub beta2: f32,
    /// Denominator fuzz term.
    pub eps: f32,
    /// Weight decay strength (0 disables).
    pub weight_decay: f32,
    /// Decoupled (AdamW) decay: subtract `lr·wd·p` directly from the
    /// parameter instead of folding the decay into the gradient.
    pub decoupled_weight_decay: bool,
}

impl Default for AdamParams {
    fn default() -> AdamParams {
        AdamParams {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            decoupled_weight_decay: false,
        }
    }
}

impl AdamParams {
    /// AdamW defaults: decoupled decay of 0.01 (the BERT recipe).
    pub fn adamw(lr: f32) -> AdamParams {
        AdamParams {
            lr,
            weight_decay: 0.01,
            decoupled_weight_decay: true,
            ..AdamParams::default()
        }
    }
}

impl AdamParams {
    /// Returns the step-dependent bias corrections `(bc1, bc2)` of
    /// Algorithm 1 for 1-based step `t`.
    #[inline]
    pub fn bias_corrections(&self, t: u64) -> (f32, f32) {
        let b1t = (self.beta1 as f64).powi(t as i32);
        let b2t = (self.beta2 as f64).powi(t as i32);
        let bc1 = (-(self.lr as f64) / (1.0 - b1t)) as f32;
        let bc2 = (1.0 / (1.0 - b2t).sqrt()) as f32;
        (bc1, bc2)
    }
}

/// Per-parameter Adam state: first and second moment vectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdamState {
    /// First moment (momentum), fp32.
    pub m: Vec<f32>,
    /// Second moment (variance), fp32.
    pub v: Vec<f32>,
    /// Number of completed steps.
    pub step: u64,
}

impl AdamState {
    /// Creates zeroed state for `n` parameters.
    pub fn new(n: usize) -> AdamState {
        AdamState {
            m: vec![0.0; n],
            v: vec![0.0; n],
            step: 0,
        }
    }

    /// Number of parameters this state covers.
    pub fn len(&self) -> usize {
        self.m.len()
    }

    /// Returns `true` if the state covers zero parameters.
    pub fn is_empty(&self) -> bool {
        self.m.is_empty()
    }

    /// Bytes of optimizer state held (momentum + variance, fp32).
    ///
    /// This is the `8M` portion of the paper's `16M` model-state budget.
    pub fn bytes(&self) -> usize {
        (self.m.len() + self.v.len()) * core::mem::size_of::<f32>()
    }

    /// Validates buffer lengths against this state.
    pub fn check(&self, params: &[f32], grads: &[f32]) -> Result<(), OptimError> {
        self.check_lens(params.len(), grads.len())
    }

    /// [`AdamState::check`] on the lengths alone (the gradients may be in
    /// another element type).
    pub(crate) fn check_lens(&self, params: usize, grads: usize) -> Result<(), OptimError> {
        if params != grads {
            return Err(OptimError::LengthMismatch { params, grads });
        }
        if params != self.m.len() {
            return Err(OptimError::StateMismatch {
                state: self.m.len(),
                given: params,
            });
        }
        Ok(())
    }
}

/// The scalar reference update for one element: the single definition of
/// the recurrence.
///
/// Both `CpuAdam` and the property tests use this exact sequence, so the
/// optimized implementation can be compared bit-for-bit. Every step is a
/// separate multiply and add: on the baseline x86-64 target (no FMA
/// unit assumed) `f32::mul_add` lowers to a libm `fmaf` *call*, which
/// also keeps the surrounding `sqrt` and `/` from vectorising.
#[inline(always)]
pub fn adam_element(
    hp: &AdamParams,
    bc1: f32,
    bc2: f32,
    p: &mut f32,
    g: f32,
    m: &mut f32,
    v: &mut f32,
) {
    let g = if hp.weight_decay != 0.0 && !hp.decoupled_weight_decay {
        g + hp.weight_decay * *p
    } else {
        g
    };
    *m = g * (1.0 - hp.beta1) + hp.beta1 * *m;
    *v = (g * g) * (1.0 - hp.beta2) + hp.beta2 * *v;
    let d = v.sqrt() * bc2 + hp.eps;
    *p += (*m / d) * bc1;
    if hp.decoupled_weight_decay && hp.weight_decay != 0.0 {
        // AdamW: decay applied outside the adaptive rescaling.
        *p -= hp.lr * hp.weight_decay * *p;
    }
}

/// Applies the reference update to whole slices (used by tests and as the
/// golden model for equivalence checks).
pub fn adam_reference_step(
    hp: &AdamParams,
    state: &mut AdamState,
    params: &mut [f32],
    grads: &[f32],
) -> Result<(), OptimError> {
    state.check(params, grads)?;
    state.step += 1;
    let (bc1, bc2) = hp.bias_corrections(state.step);
    for i in 0..params.len() {
        adam_element(
            hp,
            bc1,
            bc2,
            &mut params[i],
            grads[i],
            &mut state.m[i],
            &mut state.v[i],
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bias_corrections_match_closed_form() {
        let hp = AdamParams {
            lr: 0.1,
            ..AdamParams::default()
        };
        let (bc1, bc2) = hp.bias_corrections(1);
        // t=1: 1-beta1^1 = 0.1, so bc1 = -0.1/0.1 = -1.
        assert!((bc1 + 1.0).abs() < 1e-6);
        // 1-beta2 = 0.001; bc2 = 1/sqrt(0.001).
        assert!((bc2 - (1.0f32 / 0.001f32.sqrt())).abs() < 1e-3);
        // Corrections decay toward (-lr, 1) as t grows.
        let (bc1_inf, bc2_inf) = hp.bias_corrections(100_000);
        assert!((bc1_inf + 0.1).abs() < 1e-6);
        assert!((bc2_inf - 1.0).abs() < 1e-6);
    }

    #[test]
    fn reference_step_moves_against_gradient() {
        let hp = AdamParams::default();
        let mut st = AdamState::new(2);
        let mut p = vec![1.0f32, -1.0];
        // Positive gradient on p[0] must decrease it; negative on p[1]
        // must increase it.
        adam_reference_step(&hp, &mut st, &mut p, &[0.5, -0.5]).unwrap();
        assert!(p[0] < 1.0);
        assert!(p[1] > -1.0);
        assert_eq!(st.step, 1);
    }

    #[test]
    fn first_step_is_close_to_lr_sized() {
        // With bias correction, the very first Adam step has magnitude
        // ~lr (for eps << sqrt(v-hat)).
        let hp = AdamParams {
            lr: 0.01,
            ..AdamParams::default()
        };
        let mut st = AdamState::new(1);
        let mut p = vec![0.0f32];
        adam_reference_step(&hp, &mut st, &mut p, &[3.0]).unwrap();
        assert!((p[0] + 0.01).abs() < 1e-4, "step was {}", p[0]);
    }

    #[test]
    fn zero_gradient_is_fixed_point_from_zero_state() {
        let hp = AdamParams::default();
        let mut st = AdamState::new(3);
        let mut p = vec![1.0f32, 2.0, 3.0];
        let before = p.clone();
        adam_reference_step(&hp, &mut st, &mut p, &[0.0, 0.0, 0.0]).unwrap();
        assert_eq!(p, before);
    }

    #[test]
    fn weight_decay_pulls_toward_zero() {
        let hp = AdamParams {
            weight_decay: 0.1,
            ..AdamParams::default()
        };
        let mut st = AdamState::new(1);
        let mut p = vec![5.0f32];
        adam_reference_step(&hp, &mut st, &mut p, &[0.0]).unwrap();
        assert!(p[0] < 5.0);
    }

    #[test]
    fn adamw_decay_is_decoupled() {
        // With zero gradients, AdamW still shrinks parameters by exactly
        // lr*wd*p per step; coupled L2 moves them through the adaptive
        // denominator instead (different magnitude).
        let hp = AdamParams::adamw(0.1);
        let mut st = AdamState::new(1);
        let mut p = vec![10.0f32];
        adam_reference_step(&hp, &mut st, &mut p, &[0.0]).unwrap();
        assert!((p[0] - 10.0 * (1.0 - 0.1 * 0.01)).abs() < 1e-5, "{}", p[0]);
        // Coupled decay with the same strength takes a different path.
        let hp2 = AdamParams {
            decoupled_weight_decay: false,
            ..hp
        };
        let mut st2 = AdamState::new(1);
        let mut p2 = vec![10.0f32];
        adam_reference_step(&hp2, &mut st2, &mut p2, &[0.0]).unwrap();
        assert!(p2[0] < 10.0);
        assert_ne!(p[0], p2[0]);
    }

    #[test]
    fn state_checks() {
        let st = AdamState::new(4);
        assert_eq!(st.len(), 4);
        assert!(!st.is_empty());
        assert_eq!(st.bytes(), 32);
        assert!(st.check(&[0.0; 4], &[0.0; 4]).is_ok());
        assert!(matches!(
            st.check(&[0.0; 4], &[0.0; 3]),
            Err(OptimError::LengthMismatch { .. })
        ));
        assert!(matches!(
            st.check(&[0.0; 5], &[0.0; 5]),
            Err(OptimError::StateMismatch { .. })
        ));
    }
}
