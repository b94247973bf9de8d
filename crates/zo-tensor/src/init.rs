//! Deterministic parameter initialization.
//!
//! Convergence experiments compare *variants of the same training run*
//! (baseline vs. offload vs. offload+DPU), so initialization must be exactly
//! reproducible from a seed regardless of which engine consumes it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tensor::Tensor;

/// A seeded source of initial parameter values.
///
/// # Examples
///
/// ```
/// use zo_tensor::Init;
///
/// let mut a = Init::new(42);
/// let mut b = Init::new(42);
/// assert_eq!(a.normal_tensor(2, 3, 0.02).data(), b.normal_tensor(2, 3, 0.02).data());
/// ```
pub struct Init {
    rng: StdRng,
}

impl Init {
    /// Creates an initializer from a seed.
    pub fn new(seed: u64) -> Init {
        Init {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws one standard-normal sample via Box–Muller.
    pub fn standard_normal(&mut self) -> f32 {
        // Box–Muller on two uniforms in (0, 1]. The libm `ln`/`sqrt`/`cos`
        // run once per parameter at construction, never in a training
        // step, so this is the one libm site the CI lint allows (and the
        // one place the trajectory still depends on the host's libm).
        let u1: f64 = 1.0 - self.rng.random::<f64>();
        let u2: f64 = self.rng.random::<f64>();
        ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }

    /// Fills a slice with `N(0, std^2)` samples.
    pub fn normal(&mut self, dst: &mut [f32], std: f32) {
        for v in dst {
            *v = self.standard_normal() * std;
        }
    }

    /// Returns a `(rows, cols)` tensor of `N(0, std^2)` samples.
    pub fn normal_tensor(&mut self, rows: usize, cols: usize, std: f32) -> Tensor {
        let mut t = Tensor::zeros(rows, cols);
        self.normal(t.data_mut(), std);
        t
    }

    /// Returns a tensor with Xavier/Glorot scaling `std = sqrt(2/(in+out))`.
    pub fn xavier(&mut self, rows: usize, cols: usize) -> Tensor {
        let std = (2.0 / (rows + cols) as f32).sqrt();
        self.normal_tensor(rows, cols, std)
    }

    /// Draws a uniform value in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + self.rng.random::<f32>() * (hi - lo)
    }

    /// Draws a uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.rng.random_range(0..n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Init::new(7);
        let mut b = Init::new(7);
        for _ in 0..100 {
            assert_eq!(a.standard_normal(), b.standard_normal());
        }
        let mut c = Init::new(8);
        assert_ne!(Init::new(7).standard_normal(), c.standard_normal());
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut init = Init::new(123);
        let mut buf = vec![0.0f32; 20_000];
        init.normal(&mut buf, 2.0);
        let mean = buf.iter().map(|v| *v as f64).sum::<f64>() / buf.len() as f64;
        let var = buf.iter().map(|v| (*v as f64 - mean).powi(2)).sum::<f64>() / buf.len() as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn xavier_scales_with_fan() {
        let mut init = Init::new(5);
        let t = init.xavier(100, 100);
        let var = t.data().iter().map(|v| (*v as f64).powi(2)).sum::<f64>() / t.len() as f64;
        // Expected variance 2/200 = 0.01.
        assert!((var - 0.01).abs() < 0.005, "var {var}");
    }

    #[test]
    fn uniform_and_index_bounds() {
        let mut init = Init::new(9);
        for _ in 0..1000 {
            let v = init.uniform(-1.0, 3.0);
            assert!((-1.0..3.0).contains(&v));
            let i = init.index(17);
            assert!(i < 17);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn index_zero_panics() {
        Init::new(1).index(0);
    }
}
