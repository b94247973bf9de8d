//! Complete models and the parameter-visitation interface engines use.
//!
//! Training engines (ZeRO-Offload and the baselines) never see layer
//! structs; they see a [`Model`]: an ordered sequence of `(layer, param,
//! grad)` slices. That is exactly the shape the paper's schedules need —
//! parameters flatten into the fp32 master copy on the CPU, gradients
//! stream out layer by layer during backward, and updated parameters load
//! back in.

use zo_tensor::{cast_f16_to_f32_on, pool, Init, Pool, Tensor, TensorError, F16};

use crate::block::{BlockCache, TransformerBlock};
use crate::embedding::Embedding;
use crate::layernorm::LayerNorm;
use crate::linear::Linear;
use crate::loss::cross_entropy;

/// The visitor callback [`Model::visit_mut`] feeds: one call per
/// `(layer_bucket, param, grad)` slice triple.
pub type ParamVisitor<'a> = dyn FnMut(usize, &mut [f32], &mut [f32]) + 'a;

/// Observes backward progress as gradients become final, bucket by bucket.
///
/// This is the streaming interface behind the paper's overlapped gradient
/// offload (Sec. 4.1): during backward, each finished layer bucket can be
/// shipped to the CPU while earlier layers are still computing. Buckets
/// fire in backward order — head first, blocks reversed, embeddings last.
///
/// Within a bucket, [`BackwardHook::on_grads`] receives the bucket's
/// gradient slices in the *canonical* [`Model::visit_mut`] order, so the
/// concatenation of a bucket's slices equals that bucket's segment of
/// [`Model::copy_grads_to`]. [`BackwardHook::on_bucket`] then marks the
/// bucket complete.
pub trait BackwardHook {
    /// A finished gradient slice of `bucket`, in canonical visitation
    /// order. Slices of one bucket are contiguous in the flat layout.
    fn on_grads(&mut self, bucket: usize, grads: &[f32]) {
        let _ = (bucket, grads);
    }

    /// Layer bucket `bucket` has its final gradients for this micro-batch.
    fn on_bucket(&mut self, bucket: usize);
}

impl<H: BackwardHook + ?Sized> BackwardHook for &mut H {
    fn on_grads(&mut self, bucket: usize, grads: &[f32]) {
        (**self).on_grads(bucket, grads);
    }

    fn on_bucket(&mut self, bucket: usize) {
        (**self).on_bucket(bucket);
    }
}

/// Adapter for the closure-based `train_step` entry points: a plain
/// `FnMut(usize)` observes bucket completion and ignores the slices.
struct FnBucketHook<F>(F);

impl<F: FnMut(usize)> BackwardHook for FnBucketHook<F> {
    fn on_bucket(&mut self, bucket: usize) {
        (self.0)(bucket);
    }
}

/// Parameter visitation: every model exposes its `(param, grad)` slices in
/// a stable canonical order, tagged with a layer index used as the
/// offload/streaming bucket.
pub trait Model {
    /// Number of layer buckets (embeddings and head count as buckets).
    fn num_layer_buckets(&self) -> usize;

    /// Total parameter count.
    fn num_params(&self) -> usize;

    /// Visits every `(layer_bucket, param, grad)` triple in canonical order.
    fn visit_mut(&mut self, f: &mut ParamVisitor);

    /// Zeroes all gradients.
    fn zero_grads(&mut self);

    /// Copies all parameters into `flat` (canonical order).
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != self.num_params()`.
    fn copy_params_to(&mut self, flat: &mut [f32]) {
        assert_eq!(flat.len(), self.num_params(), "flat buffer length");
        let mut off = 0;
        self.visit_mut(&mut |_, p, _| {
            flat[off..off + p.len()].copy_from_slice(p);
            off += p.len();
        });
    }

    /// Loads all parameters from `flat` (canonical order).
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != self.num_params()`.
    fn load_params_from(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.num_params(), "flat buffer length");
        let mut off = 0;
        self.visit_mut(&mut |_, p, _| {
            p.copy_from_slice(&flat[off..off + p.len()]);
            off += p.len();
        });
    }

    /// Loads all parameters from the fp16 values `flat` (canonical order),
    /// widening each parameter tensor exactly, in place — the device
    /// replica's copy-back without an fp32 staging copy of the whole
    /// model. Tensors of at least [`pool::MIN_PARALLEL_ELEMS`] elements are
    /// widened across the shared pool; the result equals
    /// [`Model::load_params_from`] of the widened values bit for bit.
    ///
    /// Must not be called from inside a task of the shared pool.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != self.num_params()`.
    fn load_params_f16(&mut self, flat: &[F16]) {
        let pool = pool::global();
        load_f16(self, flat, pool, pool::elementwise_parts);
    }

    /// [`Model::load_params_f16`] on an explicit pool, splitting every
    /// parameter tensor into `parts` ranges whatever its size
    /// (bit-identical for every `parts`).
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != self.num_params()`.
    fn load_params_f16_on(&mut self, pool: &Pool, parts: usize, flat: &[F16]) {
        load_f16(self, flat, pool, |_| parts);
    }

    /// Copies all gradients into `flat` (canonical order).
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != self.num_params()`.
    fn copy_grads_to(&mut self, flat: &mut [f32]) {
        assert_eq!(flat.len(), self.num_params(), "flat buffer length");
        let mut off = 0;
        self.visit_mut(&mut |_, _, g| {
            flat[off..off + g.len()].copy_from_slice(g);
            off += g.len();
        });
    }

    /// The flat-offset range of each layer bucket, in canonical order.
    fn layer_ranges(&mut self) -> Vec<core::ops::Range<usize>> {
        let buckets = self.num_layer_buckets();
        let mut sizes = vec![0usize; buckets];
        self.visit_mut(&mut |l, p, _| sizes[l] += p.len());
        let mut ranges = Vec::with_capacity(buckets);
        let mut off = 0;
        for s in sizes {
            ranges.push(off..off + s);
            off += s;
        }
        ranges
    }

    /// Loads the parameters covering flat-offset `range` from `flat`
    /// (indexed relative to `range.start`), leaving everything outside the
    /// range untouched. This is the stage-3 materialisation hook: a
    /// parameter-partitioned engine writes gathered layer slices in place
    /// without ever holding a full flat replica.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != range.len()` or the range exceeds
    /// `num_params()`.
    fn load_param_range(&mut self, range: core::ops::Range<usize>, flat: &[f32]) {
        assert_eq!(flat.len(), range.len(), "flat buffer length");
        assert!(range.end <= self.num_params(), "range exceeds num_params");
        let mut off = 0;
        self.visit_mut(&mut |_, p, _| {
            let start = off;
            off += p.len();
            let lo = range.start.max(start);
            let hi = range.end.min(off);
            if lo < hi {
                p[lo - start..hi - start]
                    .copy_from_slice(&flat[lo - range.start..hi - range.start]);
            }
        });
    }

    /// Zeroes the parameters covering flat-offset `range`, leaving
    /// everything outside untouched. Stage-3 engines call this after a
    /// layer's non-owned shard is released so tests can prove the model
    /// really runs without a resident full replica.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds `num_params()`.
    fn clear_param_range(&mut self, range: core::ops::Range<usize>) {
        assert!(range.end <= self.num_params(), "range exceeds num_params");
        let mut off = 0;
        self.visit_mut(&mut |_, p, _| {
            let start = off;
            off += p.len();
            let lo = range.start.max(start);
            let hi = range.end.min(off);
            if lo < hi {
                p[lo - start..hi - start].fill(0.0);
            }
        });
    }
}

/// Widens `flat` into `model`'s parameters tensor by tensor, each split
/// into `parts(len)` ranges on `pool`.
fn load_f16<M: Model + ?Sized>(
    model: &mut M,
    flat: &[F16],
    pool: &Pool,
    parts: impl Fn(usize) -> usize,
) {
    assert_eq!(flat.len(), model.num_params(), "flat buffer length");
    let mut off = 0;
    model.visit_mut(&mut |_, p, _| {
        cast_f16_to_f32_on(pool, parts(p.len()), &flat[off..off + p.len()], p);
        off += p.len();
    });
}

/// Configuration of the small real-execution GPT model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GptConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Maximum sequence length (position table size).
    pub seq_len: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// Transformer blocks.
    pub layers: usize,
}

/// A GPT-2-style decoder-only LM, small enough to actually train.
pub struct GptModel {
    cfg: GptConfig,
    tok_emb: Embedding,
    pos_emb: Embedding,
    blocks: Vec<TransformerBlock>,
    final_ln: LayerNorm,
    lm_head: Linear,
    /// Recompute block activations in backward instead of caching them.
    checkpoint_activations: bool,
}

/// Forward state of a full GPT pass.
pub struct GptCache {
    tok_cache: crate::embedding::EmbeddingCache,
    pos_cache: crate::embedding::EmbeddingCache,
    block_caches: Vec<BlockCache>,
    ln_cache: crate::layernorm::LayerNormCache,
    head_cache: crate::linear::LinearCache,
}

impl GptModel {
    /// Builds a model with seeded initialization.
    pub fn new(cfg: GptConfig, seed: u64) -> GptModel {
        let mut init = Init::new(seed);
        GptModel {
            cfg,
            tok_emb: Embedding::new(cfg.vocab, cfg.hidden, &mut init),
            pos_emb: Embedding::new(cfg.seq_len, cfg.hidden, &mut init),
            blocks: (0..cfg.layers)
                .map(|_| TransformerBlock::new(cfg.hidden, cfg.heads, &mut init))
                .collect(),
            final_ln: LayerNorm::new(cfg.hidden, &mut init),
            lm_head: Linear::new(cfg.hidden, cfg.vocab, &mut init),
            checkpoint_activations: false,
        }
    }

    /// Enables or disables activation checkpointing.
    ///
    /// When enabled, [`GptModel::train_step`] stores only each block's
    /// input during the forward pass and recomputes the block forward
    /// during backward — the paper's activation-memory recipe (Fig. 2
    /// caption). Gradients are bit-identical either way.
    pub fn set_activation_checkpointing(&mut self, enabled: bool) {
        self.checkpoint_activations = enabled;
    }

    /// Whether activation checkpointing is enabled.
    pub fn activation_checkpointing(&self) -> bool {
        self.checkpoint_activations
    }

    /// The configuration.
    pub fn config(&self) -> &GptConfig {
        &self.cfg
    }

    /// Forward pass to logits.
    ///
    /// `inputs` is `batch*seq` token ids, row-major by sequence.
    pub fn forward(
        &self,
        inputs: &[usize],
        batch: usize,
        seq: usize,
    ) -> Result<(Tensor, GptCache), TensorError> {
        if inputs.len() != batch * seq {
            return Err(TensorError::LengthMismatch {
                op: "gpt forward",
                expected: batch * seq,
                actual: inputs.len(),
            });
        }
        let (tok, tok_cache) = self.tok_emb.forward(inputs)?;
        let positions: Vec<usize> = (0..batch * seq).map(|i| i % seq).collect();
        let (pos, pos_cache) = self.pos_emb.forward(&positions)?;
        let mut x = tok;
        zo_tensor::ops::add_assign(x.data_mut(), pos.data())?;

        let mut block_caches = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            let (nx, cache) = block.forward(&x, batch, seq)?;
            x = nx;
            block_caches.push(cache);
        }
        let (nx, ln_cache) = self.final_ln.forward(&x)?;
        let (logits, head_cache) = self.lm_head.forward(&nx)?;
        Ok((
            logits,
            GptCache {
                tok_cache,
                pos_cache,
                block_caches,
                ln_cache,
                head_cache,
            },
        ))
    }

    /// Forward + cross-entropy + full backward.
    ///
    /// Gradients accumulate into the layer grad buffers. `on_bucket` fires
    /// as each layer bucket's gradients become final, in backward order —
    /// head bucket first, blocks in reverse, embeddings last — mirroring
    /// the paper's per-layer gradient streaming to CPU (Sec. 4.1). To also
    /// receive the finished gradient slices, use
    /// [`GptModel::train_step_hooked`].
    pub fn train_step(
        &mut self,
        inputs: &[usize],
        targets: &[usize],
        batch: usize,
        seq: usize,
        on_bucket: impl FnMut(usize),
    ) -> Result<f32, TensorError> {
        self.train_step_hooked(inputs, targets, batch, seq, &mut FnBucketHook(on_bucket))
    }

    /// [`GptModel::train_step`] with a full [`BackwardHook`]: the hook sees
    /// each bucket's finished gradient slices *during* backward, which is
    /// what lets an engine overlap the device-to-host gradient offload with
    /// the remaining backward compute (paper Fig. 6).
    pub fn train_step_hooked(
        &mut self,
        inputs: &[usize],
        targets: &[usize],
        batch: usize,
        seq: usize,
        hook: &mut dyn BackwardHook,
    ) -> Result<f32, TensorError> {
        if self.checkpoint_activations {
            return self.train_step_checkpointed(inputs, targets, batch, seq, hook);
        }
        let (logits, cache) = self.forward(inputs, batch, seq)?;
        let (loss, dlogits) = cross_entropy(&logits, targets)?;
        let dx = self.lm_head.backward(&cache.head_cache, &dlogits)?;
        let mut dx = self.final_ln.backward(&cache.ln_cache, &dx)?;
        self.stream_head_grads(hook); // Head bucket is final.
        for (i, block) in self.blocks.iter_mut().enumerate().rev() {
            dx = block.backward(&cache.block_caches[i], &dx)?;
            stream_block_grads(hook, i + 1, block);
            hook.on_bucket(i + 1);
        }
        self.tok_emb.backward(&cache.tok_cache, &dx)?;
        self.pos_emb.backward(&cache.pos_cache, &dx)?;
        self.stream_embedding_grads(hook);
        Ok(loss)
    }

    /// Emits the head bucket (final LN + LM head) to `hook`.
    fn stream_head_grads(&self, hook: &mut dyn BackwardHook) {
        let head = self.blocks.len() + 1;
        stream_ln_grads(hook, head, &self.final_ln);
        stream_linear_grads(hook, head, &self.lm_head);
        hook.on_bucket(head);
    }

    /// Emits the embeddings bucket (bucket 0) to `hook`.
    fn stream_embedding_grads(&self, hook: &mut dyn BackwardHook) {
        hook.on_grads(0, self.tok_emb.dtable.data());
        hook.on_grads(0, self.pos_emb.dtable.data());
        hook.on_bucket(0);
    }

    /// Training step with activation checkpointing: the forward pass keeps
    /// only each block's input; backward recomputes block internals.
    fn train_step_checkpointed(
        &mut self,
        inputs: &[usize],
        targets: &[usize],
        batch: usize,
        seq: usize,
        hook: &mut dyn BackwardHook,
    ) -> Result<f32, TensorError> {
        if inputs.len() != batch * seq {
            return Err(TensorError::LengthMismatch {
                op: "gpt forward",
                expected: batch * seq,
                actual: inputs.len(),
            });
        }
        // Forward, storing only block inputs (the checkpoints).
        let (tok, tok_cache) = self.tok_emb.forward(inputs)?;
        let positions: Vec<usize> = (0..batch * seq).map(|i| i % seq).collect();
        let (pos, pos_cache) = self.pos_emb.forward(&positions)?;
        let mut x = tok;
        zo_tensor::ops::add_assign(x.data_mut(), pos.data())?;
        let mut checkpoints: Vec<Tensor> = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            checkpoints.push(x.clone());
            let (nx, cache) = block.forward(&x, batch, seq)?;
            // The full cache is dropped: this is the memory saving.
            drop(cache);
            x = nx;
        }
        let (nx, ln_cache) = self.final_ln.forward(&x)?;
        let (logits, head_cache) = self.lm_head.forward(&nx)?;
        let (loss, dlogits) = cross_entropy(&logits, targets)?;

        // Backward with per-block recompute.
        let dx = self.lm_head.backward(&head_cache, &dlogits)?;
        let mut dx = self.final_ln.backward(&ln_cache, &dx)?;
        self.stream_head_grads(hook);
        for (i, block) in self.blocks.iter_mut().enumerate().rev() {
            let (_, cache) = block.forward(&checkpoints[i], batch, seq)?;
            dx = block.backward(&cache, &dx)?;
            stream_block_grads(hook, i + 1, block);
            hook.on_bucket(i + 1);
        }
        self.tok_emb.backward(&tok_cache, &dx)?;
        self.pos_emb.backward(&pos_cache, &dx)?;
        self.stream_embedding_grads(hook);
        Ok(loss)
    }

    /// Mean loss on a batch without touching gradients.
    pub fn eval_loss(
        &self,
        inputs: &[usize],
        targets: &[usize],
        batch: usize,
        seq: usize,
    ) -> Result<f32, TensorError> {
        let (logits, _) = self.forward(inputs, batch, seq)?;
        Ok(cross_entropy(&logits, targets)?.0)
    }
}

/// Visits one [`Linear`] as two `(param, grad)` pairs.
fn visit_linear(layer: usize, lin: &mut Linear, f: &mut ParamVisitor) {
    f(layer, lin.w.data_mut(), lin.dw.data_mut());
    f(layer, &mut lin.b, &mut lin.db);
}

/// Visits one [`LayerNorm`].
fn visit_ln(layer: usize, ln: &mut LayerNorm, f: &mut ParamVisitor) {
    f(layer, &mut ln.gamma, &mut ln.dgamma);
    f(layer, &mut ln.beta, &mut ln.dbeta);
}

/// Streams one [`Linear`]'s gradients in the same order [`visit_linear`]
/// visits its parameters — the streamed concat must match the flat layout.
fn stream_linear_grads(hook: &mut dyn BackwardHook, bucket: usize, lin: &Linear) {
    hook.on_grads(bucket, lin.dw.data());
    hook.on_grads(bucket, &lin.db);
}

/// Streams one [`LayerNorm`]'s gradients (order of [`visit_ln`]).
fn stream_ln_grads(hook: &mut dyn BackwardHook, bucket: usize, ln: &LayerNorm) {
    hook.on_grads(bucket, &ln.dgamma);
    hook.on_grads(bucket, &ln.dbeta);
}

/// Streams one transformer block's gradients (order of the block's leg of
/// [`GptModel`]'s `visit_mut`).
fn stream_block_grads(hook: &mut dyn BackwardHook, bucket: usize, b: &TransformerBlock) {
    stream_ln_grads(hook, bucket, &b.ln1);
    stream_linear_grads(hook, bucket, &b.attn.wq);
    stream_linear_grads(hook, bucket, &b.attn.wk);
    stream_linear_grads(hook, bucket, &b.attn.wv);
    stream_linear_grads(hook, bucket, &b.attn.wo);
    stream_ln_grads(hook, bucket, &b.ln2);
    stream_linear_grads(hook, bucket, &b.mlp.fc1);
    stream_linear_grads(hook, bucket, &b.mlp.fc2);
}

impl Model for GptModel {
    fn num_layer_buckets(&self) -> usize {
        // Bucket 0: embeddings; 1..=L: blocks; L+1: final LN + LM head.
        self.blocks.len() + 2
    }

    fn num_params(&self) -> usize {
        self.tok_emb.num_params()
            + self.pos_emb.num_params()
            + self.blocks.iter().map(|b| b.num_params()).sum::<usize>()
            + self.final_ln.num_params()
            + self.lm_head.num_params()
    }

    fn visit_mut(&mut self, f: &mut ParamVisitor) {
        f(
            0,
            self.tok_emb.table.data_mut(),
            self.tok_emb.dtable.data_mut(),
        );
        f(
            0,
            self.pos_emb.table.data_mut(),
            self.pos_emb.dtable.data_mut(),
        );
        for (i, b) in self.blocks.iter_mut().enumerate() {
            let l = i + 1;
            visit_ln(l, &mut b.ln1, f);
            visit_linear(l, &mut b.attn.wq, f);
            visit_linear(l, &mut b.attn.wk, f);
            visit_linear(l, &mut b.attn.wv, f);
            visit_linear(l, &mut b.attn.wo, f);
            visit_ln(l, &mut b.ln2, f);
            visit_linear(l, &mut b.mlp.fc1, f);
            visit_linear(l, &mut b.mlp.fc2, f);
        }
        let head = self.blocks.len() + 1;
        visit_ln(head, &mut self.final_ln, f);
        visit_linear(head, &mut self.lm_head, f);
    }

    fn zero_grads(&mut self) {
        self.tok_emb.zero_grads();
        self.pos_emb.zero_grads();
        for b in &mut self.blocks {
            b.zero_grads();
        }
        self.final_ln.zero_grads();
        self.lm_head.zero_grads();
    }
}

/// A small MLP classifier (the BERT-fine-tuning analog of Fig. 13).
pub struct Classifier {
    /// Input projection.
    pub fc_in: Linear,
    /// Hidden projection.
    pub fc_mid: Linear,
    /// Output head.
    pub fc_out: Linear,
    act: crate::activation::Activation,
}

impl Classifier {
    /// Builds `dim → hidden → hidden → classes` with GELU.
    pub fn new(dim: usize, hidden: usize, classes: usize, seed: u64) -> Classifier {
        let mut init = Init::new(seed);
        Classifier {
            fc_in: Linear::new(dim, hidden, &mut init),
            fc_mid: Linear::new(hidden, hidden, &mut init),
            fc_out: Linear::new(hidden, classes, &mut init),
            act: crate::activation::Activation::Gelu,
        }
    }

    /// Forward to logits.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor, TensorError> {
        let (h1, _) = self.fc_in.forward(x)?;
        let (a1, _) = self.act.forward(&h1);
        let (h2, _) = self.fc_mid.forward(&a1)?;
        let (a2, _) = self.act.forward(&h2);
        Ok(self.fc_out.forward(&a2)?.0)
    }

    /// Forward + cross-entropy + backward; `on_bucket` fires per layer in
    /// backward order (2 = head, 1 = mid, 0 = input).
    pub fn train_step(
        &mut self,
        x: &Tensor,
        targets: &[usize],
        on_bucket: impl FnMut(usize),
    ) -> Result<f32, TensorError> {
        self.train_step_hooked(x, targets, &mut FnBucketHook(on_bucket))
    }

    /// [`Classifier::train_step`] with a full [`BackwardHook`] that also
    /// receives each layer's finished gradient slices during backward.
    pub fn train_step_hooked(
        &mut self,
        x: &Tensor,
        targets: &[usize],
        hook: &mut dyn BackwardHook,
    ) -> Result<f32, TensorError> {
        let (h1, c_in) = self.fc_in.forward(x)?;
        let (a1, ca1) = self.act.forward(&h1);
        let (h2, c_mid) = self.fc_mid.forward(&a1)?;
        let (a2, ca2) = self.act.forward(&h2);
        let (logits, c_out) = self.fc_out.forward(&a2)?;
        let (loss, dlogits) = cross_entropy(&logits, targets)?;
        let da2 = self.fc_out.backward(&c_out, &dlogits)?;
        stream_linear_grads(hook, 2, &self.fc_out);
        hook.on_bucket(2);
        let dh2 = self.act.backward(&ca2, &da2);
        let da1 = self.fc_mid.backward(&c_mid, &dh2)?;
        stream_linear_grads(hook, 1, &self.fc_mid);
        hook.on_bucket(1);
        let dh1 = self.act.backward(&ca1, &da1);
        self.fc_in.backward(&c_in, &dh1)?;
        stream_linear_grads(hook, 0, &self.fc_in);
        hook.on_bucket(0);
        Ok(loss)
    }

    /// Mean loss without touching gradients.
    pub fn eval_loss(&self, x: &Tensor, targets: &[usize]) -> Result<f32, TensorError> {
        Ok(cross_entropy(&self.forward(x)?, targets)?.0)
    }
}

impl Model for Classifier {
    fn num_layer_buckets(&self) -> usize {
        3
    }

    fn num_params(&self) -> usize {
        self.fc_in.num_params() + self.fc_mid.num_params() + self.fc_out.num_params()
    }

    fn visit_mut(&mut self, f: &mut ParamVisitor) {
        visit_linear(0, &mut self.fc_in, f);
        visit_linear(1, &mut self.fc_mid, f);
        visit_linear(2, &mut self.fc_out, f);
    }

    fn zero_grads(&mut self) {
        self.fc_in.zero_grads();
        self.fc_mid.zero_grads();
        self.fc_out.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> GptModel {
        GptModel::new(
            GptConfig {
                vocab: 16,
                seq_len: 8,
                hidden: 8,
                heads: 2,
                layers: 2,
            },
            42,
        )
    }

    #[test]
    fn num_params_matches_visitation() {
        let mut m = tiny();
        let mut total = 0;
        m.visit_mut(&mut |_, p, g| {
            assert_eq!(p.len(), g.len());
            total += p.len();
        });
        assert_eq!(total, m.num_params());
    }

    #[test]
    fn layer_ranges_tile_params() {
        let mut m = tiny();
        let ranges = m.layer_ranges();
        assert_eq!(ranges.len(), m.num_layer_buckets());
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, m.num_params());
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn params_roundtrip_through_flat_buffer() {
        let mut m = tiny();
        let n = m.num_params();
        let mut flat = vec![0.0f32; n];
        m.copy_params_to(&mut flat);
        assert!(flat.iter().any(|&v| v != 0.0));
        let mut scaled = flat.clone();
        for v in &mut scaled {
            *v *= 2.0;
        }
        m.load_params_from(&scaled);
        let mut back = vec![0.0f32; n];
        m.copy_params_to(&mut back);
        assert_eq!(back, scaled);
    }

    #[test]
    fn param_range_load_and_clear_touch_only_the_range() {
        let mut m = tiny();
        let n = m.num_params();
        let mut orig = vec![0.0f32; n];
        m.copy_params_to(&mut orig);
        // Each layer bucket: clear it, check only that range went to zero,
        // then load it back and check full restoration.
        for range in m.layer_ranges() {
            m.clear_param_range(range.clone());
            let mut now = vec![0.0f32; n];
            m.copy_params_to(&mut now);
            for (i, (&a, &b)) in now.iter().zip(&orig).enumerate() {
                if range.contains(&i) {
                    assert_eq!(a, 0.0, "index {i} not cleared");
                } else {
                    assert_eq!(a.to_bits(), b.to_bits(), "index {i} perturbed");
                }
            }
            m.load_param_range(range.clone(), &orig[range.clone()]);
            let mut back = vec![0.0f32; n];
            m.copy_params_to(&mut back);
            assert_eq!(back, orig, "range {range:?} did not restore");
        }
        // An unaligned slice spanning bucket boundaries also roundtrips.
        let mid = n / 3..2 * n / 3 + 1;
        m.clear_param_range(mid.clone());
        m.load_param_range(mid.clone(), &orig[mid]);
        let mut back = vec![0.0f32; n];
        m.copy_params_to(&mut back);
        assert_eq!(back, orig);
    }

    #[test]
    fn train_step_reduces_loss_on_fixed_batch() {
        let mut m = tiny();
        // One fixed batch: repeated steps must overfit it.
        let inputs: Vec<usize> = (0..16).map(|i| i % 16).collect();
        let targets: Vec<usize> = (0..16).map(|i| (i + 1) % 16).collect();
        let first = m.eval_loss(&inputs, &targets, 2, 8).unwrap();
        let mut opt = zo_optim::Sgd::new(
            zo_optim::SgdParams {
                lr: 0.2,
                momentum: 0.9,
                weight_decay: 0.0,
            },
            m.num_params(),
        );
        for _ in 0..30 {
            m.zero_grads();
            m.train_step(&inputs, &targets, 2, 8, |_| {}).unwrap();
            let n = m.num_params();
            let mut p = vec![0.0; n];
            let mut g = vec![0.0; n];
            m.copy_params_to(&mut p);
            m.copy_grads_to(&mut g);
            opt.step(&mut p, &g).unwrap();
            m.load_params_from(&p);
        }
        let last = m.eval_loss(&inputs, &targets, 2, 8).unwrap();
        assert!(last < first * 0.7, "loss did not drop: {first} -> {last}");
    }

    #[test]
    fn bucket_callback_order_is_backward() {
        let mut m = tiny();
        let inputs = vec![0usize; 8];
        let targets = vec![1usize; 8];
        let mut order = Vec::new();
        m.train_step(&inputs, &targets, 1, 8, |b| order.push(b))
            .unwrap();
        // Head (3), blocks reversed (2, 1), embeddings (0).
        assert_eq!(order, vec![3, 2, 1, 0]);
    }

    /// Collects every streamed slice, tagged by bucket, in arrival order.
    struct Collector {
        per_bucket: Vec<Vec<f32>>,
        bucket_order: Vec<usize>,
    }

    impl BackwardHook for Collector {
        fn on_grads(&mut self, bucket: usize, grads: &[f32]) {
            self.per_bucket[bucket].extend_from_slice(grads);
        }

        fn on_bucket(&mut self, bucket: usize) {
            self.bucket_order.push(bucket);
        }
    }

    #[test]
    fn streamed_grad_slices_match_flat_layout() {
        let mut m = tiny();
        let inputs: Vec<usize> = (0..16).map(|i| (i * 3) % 16).collect();
        let targets: Vec<usize> = (0..16).map(|i| (i * 3 + 1) % 16).collect();
        let mut hook = Collector {
            per_bucket: vec![Vec::new(); m.num_layer_buckets()],
            bucket_order: Vec::new(),
        };
        m.zero_grads();
        m.train_step_hooked(&inputs, &targets, 2, 8, &mut hook)
            .unwrap();
        assert_eq!(hook.bucket_order, vec![3, 2, 1, 0]);

        let n = m.num_params();
        let mut flat = vec![0.0f32; n];
        m.copy_grads_to(&mut flat);
        let ranges = m.layer_ranges();
        for (bucket, range) in ranges.iter().enumerate() {
            assert_eq!(
                hook.per_bucket[bucket],
                &flat[range.clone()],
                "bucket {bucket} streamed slices diverge from the flat layout"
            );
        }
    }

    #[test]
    fn checkpointed_streaming_matches_plain() {
        let cfg = GptConfig {
            vocab: 16,
            seq_len: 8,
            hidden: 8,
            heads: 2,
            layers: 2,
        };
        let inputs = vec![3usize; 8];
        let targets = vec![5usize; 8];
        let collect = |ckpt: bool| {
            let mut m = GptModel::new(cfg, 11);
            m.set_activation_checkpointing(ckpt);
            let mut hook = Collector {
                per_bucket: vec![Vec::new(); m.num_layer_buckets()],
                bucket_order: Vec::new(),
            };
            m.train_step_hooked(&inputs, &targets, 1, 8, &mut hook)
                .unwrap();
            hook.per_bucket
        };
        assert_eq!(collect(false), collect(true));
    }

    #[test]
    fn classifier_streamed_grads_match_flat_layout() {
        let mut m = Classifier::new(4, 8, 2, 7);
        let mut x = Tensor::zeros(4, 4);
        for r in 0..4 {
            for c in 0..4 {
                x.set(r, c, (r * 4 + c) as f32 * 0.1 - 0.5).unwrap();
            }
        }
        let y = vec![0usize, 1, 0, 1];
        let mut hook = Collector {
            per_bucket: vec![Vec::new(); 3],
            bucket_order: Vec::new(),
        };
        m.zero_grads();
        m.train_step_hooked(&x, &y, &mut hook).unwrap();
        assert_eq!(hook.bucket_order, vec![2, 1, 0]);
        let n = m.num_params();
        let mut flat = vec![0.0f32; n];
        m.copy_grads_to(&mut flat);
        for (bucket, range) in m.layer_ranges().iter().enumerate() {
            assert_eq!(hook.per_bucket[bucket], &flat[range.clone()]);
        }
    }

    #[test]
    fn classifier_learns_separable_task() {
        let mut m = Classifier::new(4, 16, 2, 7);
        let mut init = Init::new(3);
        // Class = sign of first feature.
        let mut make_batch = |n: usize| {
            let mut x = Tensor::zeros(n, 4);
            let mut y = Vec::new();
            for r in 0..n {
                for c in 0..4 {
                    x.set(r, c, init.standard_normal()).unwrap();
                }
                y.push(usize::from(x.get(r, 0).unwrap() > 0.0));
            }
            (x, y)
        };
        let (xe, ye) = make_batch(64);
        let before = m.eval_loss(&xe, &ye).unwrap();
        let mut opt = zo_optim::Sgd::new(
            zo_optim::SgdParams {
                lr: 0.1,
                momentum: 0.9,
                weight_decay: 0.0,
            },
            m.num_params(),
        );
        for _ in 0..60 {
            let (x, y) = make_batch(32);
            m.zero_grads();
            m.train_step(&x, &y, |_| {}).unwrap();
            let n = m.num_params();
            let mut p = vec![0.0; n];
            let mut g = vec![0.0; n];
            m.copy_params_to(&mut p);
            m.copy_grads_to(&mut g);
            opt.step(&mut p, &g).unwrap();
            m.load_params_from(&p);
        }
        let after = m.eval_loss(&xe, &ye).unwrap();
        assert!(
            after < before * 0.5,
            "classifier did not learn: {before} -> {after}"
        );
    }

    #[test]
    fn forward_validates_input_length() {
        let m = tiny();
        assert!(m.forward(&[0; 7], 1, 8).is_err());
    }

    fn param_bits<M: Model>(m: &mut M) -> Vec<u32> {
        let mut flat = vec![0.0f32; m.num_params()];
        m.copy_params_to(&mut flat);
        flat.iter().map(|v| v.to_bits()).collect()
    }

    /// `load_params_f16` on pools of 1–4 workers, split into as many parts
    /// and into three more, and on the auto path, leaves exactly the bits
    /// `load_params_from` of the exactly widened values does — for fp16
    /// parameters of every class (signaling and quiet NaNs, ±Inf,
    /// subnormals, signed zeros, normals).
    fn assert_f16_load_matches_widened_load<M: Model>(make: impl Fn() -> M) {
        let mut reference = make();
        let p16: Vec<F16> = (0..reference.num_params())
            .map(|i| F16::from_bits((i as u16).wrapping_mul(40_503)))
            .collect();
        let widened: Vec<f32> = p16.iter().map(|h| h.to_f32()).collect();
        reference.load_params_from(&widened);
        let expect = param_bits(&mut reference);
        static POOLS: std::sync::OnceLock<Vec<std::sync::Arc<Pool>>> = std::sync::OnceLock::new();
        for pool in POOLS.get_or_init(|| (1..=4).map(Pool::new).collect()) {
            for parts in [1, pool.threads(), pool.threads() + 3] {
                let mut m = make();
                m.load_params_f16_on(pool, parts, &p16);
                assert_eq!(param_bits(&mut m), expect, "{parts} parts");
            }
        }
        let mut m = make();
        m.load_params_f16(&p16);
        assert_eq!(param_bits(&mut m), expect, "auto split");
    }

    #[test]
    fn f16_load_matches_widened_load_bitwise() {
        assert_f16_load_matches_widened_load(tiny);
        // Tensors of 185, 37, 1369, 37, 111 and 3 elements.
        assert_f16_load_matches_widened_load(|| Classifier::new(5, 37, 3, 9));
        // fc_mid holds 520² = 270 400 elements, enough for the auto path
        // to split it over the shared pool.
        const { assert!(520 * 520 >= pool::MIN_PARALLEL_ELEMS) };
        assert_f16_load_matches_widened_load(|| Classifier::new(3, 520, 3, 9));
    }

    #[test]
    #[should_panic(expected = "flat buffer length")]
    fn f16_load_checks_length() {
        tiny().load_params_f16(&[F16::ZERO; 3]);
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;

    #[test]
    fn checkpointed_training_is_bit_identical() {
        let cfg = GptConfig {
            vocab: 16,
            seq_len: 8,
            hidden: 8,
            heads: 2,
            layers: 3,
        };
        let mut plain = GptModel::new(cfg, 77);
        let mut ckpt = GptModel::new(cfg, 77);
        ckpt.set_activation_checkpointing(true);
        assert!(ckpt.activation_checkpointing());

        let inputs: Vec<usize> = (0..16).map(|i| (i * 5) % 16).collect();
        let targets: Vec<usize> = (0..16).map(|i| (i * 5 + 1) % 16).collect();
        let l1 = plain.train_step(&inputs, &targets, 2, 8, |_| {}).unwrap();
        let l2 = ckpt.train_step(&inputs, &targets, 2, 8, |_| {}).unwrap();
        assert_eq!(l1, l2);

        let n = plain.num_params();
        let mut g1 = vec![0.0f32; n];
        let mut g2 = vec![0.0f32; n];
        plain.copy_grads_to(&mut g1);
        ckpt.copy_grads_to(&mut g2);
        assert_eq!(g1, g2, "recompute changed the gradients");
    }

    #[test]
    fn checkpointed_bucket_order_unchanged() {
        let cfg = GptConfig {
            vocab: 16,
            seq_len: 8,
            hidden: 8,
            heads: 2,
            layers: 2,
        };
        let mut m = GptModel::new(cfg, 1);
        m.set_activation_checkpointing(true);
        let inputs = vec![0usize; 8];
        let targets = vec![1usize; 8];
        let mut order = Vec::new();
        m.train_step(&inputs, &targets, 1, 8, |b| order.push(b))
            .unwrap();
        assert_eq!(order, vec![3, 2, 1, 0]);
    }
}
