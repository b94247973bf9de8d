//! Stateless activation layers (GELU, ReLU).
//!
//! GELU computes through `zo_tensor::ops`' in-repo `tanh`, one pass per
//! direction. The forward writes `y` straight from `x`; the backward
//! recomputes `tanh` from the cached input rather than caching it, so the
//! layer holds no activation memory beyond that input. The MLP hands its
//! tensors over (`forward_owned`, `backward_owned`): its pre-activation
//! becomes the cache and its upstream gradient becomes `dx`, uncopied.
//! Both passes split over the shared worker pool above
//! [`ops::MIN_PARALLEL_GELU_ELEMS`], bit-identically for every split.

use zo_tensor::{ops, pool, Tensor};

/// Which nonlinearity to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// GELU (tanh approximation), the transformer default.
    Gelu,
    /// ReLU.
    Relu,
}

/// Saved forward input for the backward pass.
#[derive(Debug, Clone)]
pub struct ActivationCache {
    /// The forward input.
    pub x: Tensor,
}

impl Activation {
    /// Applies the nonlinearity elementwise.
    pub fn forward(&self, x: &Tensor) -> (Tensor, ActivationCache) {
        self.forward_owned(x.clone())
    }

    /// [`Activation::forward`] taking ownership of the input, which
    /// becomes the cache without a copy.
    pub(crate) fn forward_owned(&self, x: Tensor) -> (Tensor, ActivationCache) {
        self.forward_on(pool::global(), parts(x.len()), x)
    }

    /// The forward pass split into `parts` ranges on `pool`
    /// (bit-identical for every `parts`).
    fn forward_on(&self, pool: &pool::Pool, parts: usize, x: Tensor) -> (Tensor, ActivationCache) {
        let mut y = Tensor::zeros(x.rows(), x.cols());
        match self {
            Activation::Gelu => ops::gelu_on(pool, parts, x.data(), y.data_mut()),
            Activation::Relu => ops::zip_map_lanes(y.data_mut(), x.data(), |_, v| ops::relu(v)),
        }
        (y, ActivationCache { x })
    }

    /// Chain rule through the nonlinearity.
    pub fn backward(&self, cache: &ActivationCache, dy: &Tensor) -> Tensor {
        self.backward_owned(cache, dy.clone())
    }

    /// [`Activation::backward`] taking ownership of the upstream gradient,
    /// which is turned into `dx` in place.
    pub(crate) fn backward_owned(&self, cache: &ActivationCache, dy: Tensor) -> Tensor {
        self.backward_on(pool::global(), parts(dy.len()), cache, dy)
    }

    /// The backward pass split into `parts` ranges on `pool`
    /// (bit-identical for every `parts`).
    fn backward_on(
        &self,
        pool: &pool::Pool,
        parts: usize,
        cache: &ActivationCache,
        mut dx: Tensor,
    ) -> Tensor {
        let x = cache.x.data();
        match self {
            Activation::Gelu => ops::gelu_grad_mul_on(pool, parts, x, dx.data_mut()),
            Activation::Relu => ops::zip_map_lanes(dx.data_mut(), x, |d, v| d * ops::relu_grad(v)),
        }
        dx
    }
}

/// The partition count for an activation pass over `n` elements.
fn parts(n: usize) -> usize {
    pool::parts_from(n, ops::MIN_PARALLEL_GELU_ELEMS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zo_tensor::{Init, Pool};

    #[test]
    fn relu_forward_backward() {
        let x = Tensor::from_rows(&[&[-1.0, 2.0]]).unwrap();
        let (y, cache) = Activation::Relu.forward(&x);
        assert_eq!(y.data(), &[0.0, 2.0]);
        let dy = Tensor::from_rows(&[&[1.0, 1.0]]).unwrap();
        let dx = Activation::Relu.backward(&cache, &dy);
        assert_eq!(dx.data(), &[0.0, 1.0]);
    }

    #[test]
    fn gelu_backward_matches_finite_difference() {
        let mut init = Init::new(4);
        let x = init.normal_tensor(2, 5, 1.0);
        let (_, cache) = Activation::Gelu.forward(&x);
        let dy = Tensor::full(2, 5, 1.0);
        let dx = Activation::Gelu.backward(&cache, &dy);
        let h = 1e-3;
        for r in 0..2 {
            for j in 0..5 {
                let mut xp = x.clone();
                xp.set(r, j, x.get(r, j).unwrap() + h).unwrap();
                let mut xm = x.clone();
                xm.set(r, j, x.get(r, j).unwrap() - h).unwrap();
                let (yp, _) = Activation::Gelu.forward(&xp);
                let (ym, _) = Activation::Gelu.forward(&xm);
                let fd =
                    (yp.data().iter().sum::<f32>() - ym.data().iter().sum::<f32>()) / (2.0 * h);
                assert!((dx.get(r, j).unwrap() - fd).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn split_passes_match_the_one_part_pass_bitwise() {
        let mut init = Init::new(6);
        // 37 × 29 elements: a multiple of neither LANES nor any part count.
        let x = init.normal_tensor(37, 29, 3.0);
        let dy = init.normal_tensor(37, 29, 1.0);
        for act in [Activation::Gelu, Activation::Relu] {
            let one = Pool::new(1);
            let (want_y, cache) = act.forward_on(&one, 1, x.clone());
            let want_dx = act.backward_on(&one, 1, &cache, dy.clone());
            for threads in 1..=4 {
                let pool = Pool::new(threads);
                for parts in [threads, threads + 3] {
                    let (y, cache) = act.forward_on(&pool, parts, x.clone());
                    assert_eq!(y.data(), want_y.data(), "{act:?} fwd {threads}/{parts}");
                    let dx = act.backward_on(&pool, parts, &cache, dy.clone());
                    assert_eq!(dx.data(), want_dx.data(), "{act:?} bwd {threads}/{parts}");
                }
            }
            let (y, cache) = act.forward(&x);
            assert_eq!(y.data(), want_y.data());
            assert_eq!(act.backward(&cache, &dy).data(), want_dx.data());
        }
    }
}
