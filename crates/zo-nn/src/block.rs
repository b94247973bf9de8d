//! The pre-LN transformer block (attention + MLP with residuals).

use zo_tensor::{ops, Init, Tensor, TensorError};

use crate::activation::{Activation, ActivationCache};
use crate::attention::{AttentionCache, CausalSelfAttention};
use crate::layernorm::{LayerNorm, LayerNormCache};
use crate::linear::{Linear, LinearCache};

/// The 4×-expansion feed-forward network of a transformer block.
#[derive(Debug, Clone)]
pub struct Mlp {
    /// Expansion projection `(h, 4h)`.
    pub fc1: Linear,
    /// Contraction projection `(4h, h)`.
    pub fc2: Linear,
    act: Activation,
}

/// Saved forward state of the MLP.
#[derive(Debug, Clone)]
pub struct MlpCache {
    c1: LinearCache,
    ca: ActivationCache,
    c2: LinearCache,
}

impl Mlp {
    /// Creates the MLP for hidden size `h` with GELU.
    pub fn new(hidden: usize, init: &mut Init) -> Mlp {
        Mlp {
            fc1: Linear::new(hidden, 4 * hidden, init),
            fc2: Linear::new(4 * hidden, hidden, init),
            act: Activation::Gelu,
        }
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.fc1.num_params() + self.fc2.num_params()
    }

    /// Forward pass.
    pub fn forward(&self, x: &Tensor) -> Result<(Tensor, MlpCache), TensorError> {
        let (h1, c1) = self.fc1.forward(x)?;
        let (a, ca) = self.act.forward_owned(h1);
        let (y, c2) = self.fc2.forward(&a)?;
        Ok((y, MlpCache { c1, ca, c2 }))
    }

    /// Backward pass.
    pub fn backward(&mut self, cache: &MlpCache, dy: &Tensor) -> Result<Tensor, TensorError> {
        let da = self.fc2.backward(&cache.c2, dy)?;
        let dh1 = self.act.backward_owned(&cache.ca, da);
        self.fc1.backward(&cache.c1, &dh1)
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.fc1.zero_grads();
        self.fc2.zero_grads();
    }
}

/// One pre-LN transformer block: `x + attn(ln1(x))`, then `x + mlp(ln2(x))`.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    /// Attention sub-layer norm.
    pub ln1: LayerNorm,
    /// Self-attention.
    pub attn: CausalSelfAttention,
    /// MLP sub-layer norm.
    pub ln2: LayerNorm,
    /// Feed-forward network.
    pub mlp: Mlp,
}

/// Saved forward state of a block.
#[derive(Debug, Clone)]
pub struct BlockCache {
    cl1: LayerNormCache,
    cattn: AttentionCache,
    cl2: LayerNormCache,
    cmlp: MlpCache,
}

impl TransformerBlock {
    /// Creates a block for `hidden` features and `heads` attention heads.
    pub fn new(hidden: usize, heads: usize, init: &mut Init) -> TransformerBlock {
        TransformerBlock {
            ln1: LayerNorm::new(hidden, init),
            attn: CausalSelfAttention::new(hidden, heads, init),
            ln2: LayerNorm::new(hidden, init),
            mlp: Mlp::new(hidden, init),
        }
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.ln1.num_params()
            + self.attn.num_params()
            + self.ln2.num_params()
            + self.mlp.num_params()
    }

    /// Forward pass over `(batch*seq, hidden)` activations.
    pub fn forward(
        &self,
        x: &Tensor,
        batch: usize,
        seq: usize,
    ) -> Result<(Tensor, BlockCache), TensorError> {
        let (n1, cl1) = self.ln1.forward(x)?;
        let (a, cattn) = self.attn.forward(&n1, batch, seq)?;
        let mut mid = x.clone();
        ops::add_assign(mid.data_mut(), a.data())?;
        let (n2, cl2) = self.ln2.forward(&mid)?;
        let (m, cmlp) = self.mlp.forward(&n2)?;
        let mut out = mid;
        ops::add_assign(out.data_mut(), m.data())?;
        Ok((
            out,
            BlockCache {
                cl1,
                cattn,
                cl2,
                cmlp,
            },
        ))
    }

    /// Backward pass; accumulates all sub-layer grads, returns `dx`.
    pub fn backward(&mut self, cache: &BlockCache, dy: &Tensor) -> Result<Tensor, TensorError> {
        // out = mid + mlp(ln2(mid)): residual splits the gradient.
        let dm = self.mlp.backward(&cache.cmlp, dy)?;
        let dn2 = self.ln2.backward(&cache.cl2, &dm)?;
        let mut dmid = dy.clone();
        ops::add_assign(dmid.data_mut(), dn2.data())?;
        // mid = x + attn(ln1(x)).
        let da = self.attn.backward(&cache.cattn, &dmid)?;
        let dn1 = self.ln1.backward(&cache.cl1, &da)?;
        let mut dx = dmid;
        ops::add_assign(dx.data_mut(), dn1.data())?;
        Ok(dx)
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.ln1.zero_grads();
        self.attn.zero_grads();
        self.ln2.zero_grads();
        self.mlp.zero_grads();
    }

    /// Visits every `(param, grad)` slice pair of this block, in the same
    /// canonical order `GptModel` uses. Lets engines page a single block's
    /// parameters in and out (the L2L layer-streaming baseline).
    pub fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.ln1.gamma, &mut self.ln1.dgamma);
        f(&mut self.ln1.beta, &mut self.ln1.dbeta);
        for lin in [
            &mut self.attn.wq,
            &mut self.attn.wk,
            &mut self.attn.wv,
            &mut self.attn.wo,
        ] {
            f(lin.w.data_mut(), lin.dw.data_mut());
            f(&mut lin.b, &mut lin.db);
        }
        f(&mut self.ln2.gamma, &mut self.ln2.dgamma);
        f(&mut self.ln2.beta, &mut self.ln2.dbeta);
        for lin in [&mut self.mlp.fc1, &mut self.mlp.fc2] {
            f(lin.w.data_mut(), lin.dw.data_mut());
            f(&mut lin.b, &mut lin.db);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_count_matches_formula() {
        // 12h² + 13h per block (attention 4h²+4h, MLP 8h²+5h, two LNs 4h).
        let mut init = Init::new(1);
        let h = 16;
        let block = TransformerBlock::new(h, 2, &mut init);
        assert_eq!(block.num_params(), 12 * h * h + 13 * h);
    }

    #[test]
    fn forward_shapes_preserved() {
        let mut init = Init::new(2);
        let block = TransformerBlock::new(8, 2, &mut init);
        let x = init.normal_tensor(6, 8, 1.0);
        let (y, _) = block.forward(&x, 2, 3).unwrap();
        assert_eq!(y.shape(), (6, 8));
    }

    #[test]
    fn block_gradient_check() {
        let mut init = Init::new(3);
        let mut block = TransformerBlock::new(4, 1, &mut init);
        let mut rng = Init::new(4);
        let x = rng.normal_tensor(4, 4, 0.7); // batch=2, seq=2
        let loss = |b: &TransformerBlock, x: &Tensor| -> f32 {
            let (y, _) = b.forward(x, 2, 2).unwrap();
            y.data()
                .iter()
                .enumerate()
                .map(|(i, v)| v * (0.2 + 0.03 * i as f32))
                .sum()
        };
        let (_, cache) = block.forward(&x, 2, 2).unwrap();
        let mut dy = Tensor::zeros(4, 4);
        for i in 0..dy.len() {
            dy.data_mut()[i] = 0.2 + 0.03 * i as f32;
        }
        let dx = block.backward(&cache, &dy).unwrap();
        let h = 1e-3;
        for r in 0..4 {
            for c in 0..4 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c).unwrap() + h).unwrap();
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c).unwrap() - h).unwrap();
                let fd = (loss(&block, &xp) - loss(&block, &xm)) / (2.0 * h);
                let got = dx.get(r, c).unwrap();
                assert!((got - fd).abs() < 3e-2, "dx[{r}][{c}] {got} vs {fd}");
            }
        }
        // A parameter gradient deep inside the MLP.
        let got = block.mlp.fc1.dw.get(0, 0).unwrap();
        let orig = block.mlp.fc1.w.get(0, 0).unwrap();
        block.mlp.fc1.w.set(0, 0, orig + h).unwrap();
        let up = loss(&block, &x);
        block.mlp.fc1.w.set(0, 0, orig - h).unwrap();
        let down = loss(&block, &x);
        block.mlp.fc1.w.set(0, 0, orig).unwrap();
        let fd = (up - down) / (2.0 * h);
        assert!((got - fd).abs() < 3e-2, "fc1.dw {got} vs {fd}");
    }

    #[test]
    fn visit_params_covers_num_params() {
        let mut init = Init::new(9);
        let mut block = TransformerBlock::new(8, 2, &mut init);
        let mut total = 0;
        block.visit_params_mut(&mut |p, g| {
            assert_eq!(p.len(), g.len());
            total += p.len();
        });
        assert_eq!(total, block.num_params());
    }

    #[test]
    fn zero_grads_clears_everything() {
        let mut init = Init::new(5);
        let mut block = TransformerBlock::new(4, 2, &mut init);
        let x = init.normal_tensor(2, 4, 1.0);
        let (_, cache) = block.forward(&x, 1, 2).unwrap();
        let dy = Tensor::full(2, 4, 1.0);
        block.backward(&cache, &dy).unwrap();
        assert!(block.mlp.fc1.dw.data().iter().any(|&v| v != 0.0));
        block.zero_grads();
        assert!(block.mlp.fc1.dw.data().iter().all(|&v| v == 0.0));
        assert!(block.attn.wq.dw.data().iter().all(|&v| v == 0.0));
        assert!(block.ln1.dgamma.iter().all(|&v| v == 0.0));
    }
}
