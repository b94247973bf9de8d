//! Causal multi-head self-attention with manual backward.
//!
//! Activations flow as `(batch·seq, hidden)` matrices; the layer is told
//! the `(batch, seq)` factorization so it can address per-sequence,
//! per-head blocks for the attention core.
//!
//! The four projections use the parallel [`zo_tensor::matmul`] kernels.
//! The attention core reads each head's `(seq, head_dim)` block of Q, K,
//! V and the upstream gradient in place, as strided [`View`]s fed to the
//! packed GEMM ([`gemm_view`]), and writes its context and gradient
//! blocks straight into the `(batch·seq, hidden)` outputs: no head is
//! copied out and nothing is allocated per (sequence, head). Work runs
//! in row blocks of `ROW_BLOCK` query rows, so the masked upper
//! triangle is skipped in the score, softmax and softmax-backward work
//! (a block computes only the key columns up to its last row, and the
//! products against the probabilities skip the rows and columns that
//! are zero). Scale, mask and softmax are one pass per row. Sequences are
//! split across the shared worker pool; each part owns its sequences'
//! output rows and one reusable `(seq, seq)` scratch, and every element's
//! arithmetic is the same in any part, so the result is bit-identical
//! for every split.

use zo_tensor::matmul::{gemm_view, Operand, View, MIN_PARALLEL_FLOPS};
use zo_tensor::{ops, pool, Init, Tensor, TensorError};

use crate::linear::{Linear, LinearCache};

/// Query rows per block of the attention core. A block computes scores
/// against the keys up to its own last row, so the work above the
/// diagonal is at most a `ROW_BLOCK`-wide band.
const ROW_BLOCK: usize = 16;

/// Causal multi-head self-attention.
#[derive(Debug, Clone)]
pub struct CausalSelfAttention {
    /// Query projection.
    pub wq: Linear,
    /// Key projection.
    pub wk: Linear,
    /// Value projection.
    pub wv: Linear,
    /// Output projection.
    pub wo: Linear,
    heads: usize,
}

/// Saved forward state for the backward pass.
#[derive(Debug, Clone)]
pub struct AttentionCache {
    q_cache: LinearCache,
    k_cache: LinearCache,
    v_cache: LinearCache,
    o_cache: LinearCache,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Softmax probabilities: per sequence, one row-major `(seq, seq)`
    /// block per head (zero above the diagonal). One buffer per sequence
    /// rather than one per layer: a single `batch·heads·seq²` buffer
    /// (256 KB at the benchmark's shapes) measured 0.9 MB more peak RSS
    /// on the 4-layer model, from how the allocator places it.
    probs: Vec<Vec<f32>>,
    batch: usize,
    seq: usize,
}

/// The shapes of one attention core call.
#[derive(Debug, Clone, Copy)]
struct Dims {
    seq: usize,
    heads: usize,
    head_dim: usize,
    hidden: usize,
    scale: f32,
}

impl Dims {
    /// Head `h`'s block of sequence-local activation rows `x` (a
    /// `(seq, hidden)` slab) as a strided view.
    fn head<'a>(&self, x: &'a [f32], h: usize) -> View<'a> {
        View::new(x, self.hidden).at(0, h * self.head_dim)
    }

    /// The blocks `[i0, i1)` of the query rows.
    fn row_blocks(&self) -> impl DoubleEndedIterator<Item = (usize, usize)> {
        let seq = self.seq;
        (0..seq)
            .step_by(ROW_BLOCK)
            .map(move |i0| (i0, (i0 + ROW_BLOCK).min(seq)))
    }
}

/// The partition count over sequences for a core of `batch` sequences:
/// inline when the core's dense score product is below
/// [`MIN_PARALLEL_FLOPS`], otherwise one part per worker (at most one per
/// sequence).
fn core_parts(batch: usize, d: &Dims) -> usize {
    let flops = 2 * batch * d.heads * d.seq * d.seq * d.head_dim;
    if flops < MIN_PARALLEL_FLOPS {
        1
    } else {
        pool::global().threads().min(batch)
    }
}

/// The forward core for one sequence's rows: fills `ctx` (its
/// `(seq, hidden)` rows, zeroed) and `probs` (its `heads` zeroed
/// `(seq, seq)` blocks) from the sequence's `q`, `k`, `v` rows.
fn core_forward(d: &Dims, q: &[f32], k: &[f32], v: &[f32], ctx: &mut [f32], probs: &mut [f32]) {
    let (seq, hd) = (d.seq, d.head_dim);
    for (h, p) in probs.chunks_exact_mut(seq * seq).enumerate() {
        let (qh, kh, vh) = (d.head(q, h), d.head(k, h), d.head(v, h));
        for (i0, i1) in d.row_blocks() {
            // S[i0..i1, ..i1] = Q[i0..i1] · K[..i1]ᵀ.
            gemm_view(
                i1 - i0,
                hd,
                i1,
                Operand::Rows(qh.at(i0, 0)),
                Operand::Transposed(kh),
                &mut p[i0 * seq..],
                seq,
            );
            for i in i0..i1 {
                let row = &mut p[i * seq..i * seq + i1];
                ops::scaled_softmax_row(&mut row[..=i], d.scale);
                row[i + 1..].fill(0.0);
            }
            // ctx[i0..i1] = P[i0..i1, ..i1] · V[..i1].
            gemm_view(
                i1 - i0,
                i1,
                hd,
                Operand::Rows(View::new(p, seq).at(i0, 0)),
                Operand::Rows(vh),
                &mut ctx[i0 * d.hidden + h * hd..],
                d.hidden,
            );
        }
    }
}

/// One sequence's output rows of the backward core: `dq`, `dk`, `dv`
/// (its `(seq, hidden)` rows of each, zeroed).
struct CoreGrads<'a> {
    dq: &'a mut [f32],
    dk: &'a mut [f32],
    dv: &'a mut [f32],
}

/// The backward core for one sequence: accumulates its `dq`, `dk`, `dv`
/// rows from its cached `q`, `k`, `v` rows, probabilities and upstream
/// `dctx` rows, using `ds` (`seq²` elements) as scratch.
///
/// Row blocks run last to first: `dK[j0..j1]` needs the rows of `dS` at
/// and below `j0`, which are then complete.
#[allow(clippy::too_many_arguments)]
fn core_backward(
    d: &Dims,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    probs: &[f32],
    dctx: &[f32],
    out: &mut CoreGrads<'_>,
    ds: &mut [f32],
) {
    let (seq, hd) = (d.seq, d.head_dim);
    for (h, p) in probs.chunks_exact(seq * seq).enumerate() {
        let (qh, kh, vh, gh) = (d.head(q, h), d.head(k, h), d.head(v, h), d.head(dctx, h));
        let col = h * hd;
        for (i0, i1) in d.row_blocks().rev() {
            // dP[i0..i1, ..i1] = dctx[i0..i1] · V[..i1]ᵀ, into ds.
            for i in i0..i1 {
                ds[i * seq..i * seq + i1].fill(0.0);
            }
            gemm_view(
                i1 - i0,
                hd,
                i1,
                Operand::Rows(gh.at(i0, 0)),
                Operand::Transposed(vh),
                &mut ds[i0 * seq..],
                seq,
            );
            // Softmax backward per row: ds = p ⊙ (dp - Σ dp⊙p) · scale.
            for i in i0..i1 {
                let prow = &p[i * seq..i * seq + i + 1];
                let dsrow = &mut ds[i * seq..i * seq + i1];
                let dot: f32 = prow.iter().zip(&*dsrow).map(|(a, b)| a * b).sum();
                for (s, &pv) in dsrow.iter_mut().zip(prow) {
                    *s = pv * (*s - dot) * d.scale;
                }
                dsrow[i + 1..].fill(0.0);
            }
            // dQ[i0..i1] = dS[i0..i1, ..i1] · K[..i1].
            gemm_view(
                i1 - i0,
                i1,
                hd,
                Operand::Rows(View::new(ds, seq).at(i0, 0)),
                Operand::Rows(kh),
                &mut out.dq[i0 * d.hidden + col..],
                d.hidden,
            );
            // dV[i0..i1] = P[i0.., i0..i1]ᵀ · dctx[i0..];
            // dK[i0..i1] = dS[i0.., i0..i1]ᵀ · Q[i0..].
            gemm_view(
                i1 - i0,
                seq - i0,
                hd,
                Operand::Transposed(View::new(p, seq).at(i0, i0)),
                Operand::Rows(gh.at(i0, 0)),
                &mut out.dv[i0 * d.hidden + col..],
                d.hidden,
            );
            gemm_view(
                i1 - i0,
                seq - i0,
                hd,
                Operand::Transposed(View::new(ds, seq).at(i0, i0)),
                Operand::Rows(qh.at(i0, 0)),
                &mut out.dk[i0 * d.hidden + col..],
                d.hidden,
            );
        }
    }
}

impl CausalSelfAttention {
    /// Creates attention over `hidden` features with `heads` heads.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not divisible by `heads`.
    pub fn new(hidden: usize, heads: usize, init: &mut Init) -> CausalSelfAttention {
        assert!(
            heads > 0 && hidden.is_multiple_of(heads),
            "hidden must divide into heads"
        );
        CausalSelfAttention {
            wq: Linear::new(hidden, hidden, init),
            wk: Linear::new(hidden, hidden, init),
            wv: Linear::new(hidden, hidden, init),
            wo: Linear::new(hidden, hidden, init),
            heads,
        }
    }

    /// Head count.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.wq.num_params() + self.wk.num_params() + self.wv.num_params() + self.wo.num_params()
    }

    fn dims(&self, seq: usize) -> Dims {
        let hidden = self.wq.fan_in();
        let head_dim = hidden / self.heads;
        Dims {
            seq,
            heads: self.heads,
            head_dim,
            hidden,
            scale: 1.0 / (head_dim as f32).sqrt(),
        }
    }

    /// Forward pass over `(batch*seq, hidden)` activations.
    pub fn forward(
        &self,
        x: &Tensor,
        batch: usize,
        seq: usize,
    ) -> Result<(Tensor, AttentionCache), TensorError> {
        let d = self.dims(seq);
        self.forward_on(pool::global(), core_parts(batch, &d), x, batch, seq)
    }

    /// [`CausalSelfAttention::forward`] with the attention core split into
    /// `parts` ranges of sequences on `pool` (bit-identical for every
    /// `parts`).
    fn forward_on(
        &self,
        pool: &pool::Pool,
        parts: usize,
        x: &Tensor,
        batch: usize,
        seq: usize,
    ) -> Result<(Tensor, AttentionCache), TensorError> {
        let d = self.dims(seq);
        if x.rows() != batch * seq || x.cols() != d.hidden {
            return Err(TensorError::ShapeMismatch {
                op: "attention",
                lhs: (batch * seq, d.hidden),
                rhs: x.shape(),
            });
        }
        let (q, q_cache) = self.wq.forward(x)?;
        let (k, k_cache) = self.wk.forward(x)?;
        let (v, v_cache) = self.wv.forward(x)?;

        let rows = seq * d.hidden;
        let mut ctx = Tensor::zeros(batch * seq, d.hidden);
        let mut probs: Vec<Vec<f32>> = (0..batch)
            .map(|_| vec![0.0f32; self.heads * seq * seq])
            .collect();
        let mut slabs: Vec<(&mut [f32], &mut [f32])> = ctx
            .data_mut()
            .chunks_exact_mut(rows.max(1))
            .zip(probs.iter_mut().map(Vec::as_mut_slice))
            .collect();
        let (qd, kd, vd) = (q.data(), k.data(), v.data());
        pool::run_partitioned(pool, parts, slabs.len(), 1, &mut slabs, |seqs, slabs| {
            for (b, (ctx, probs)) in seqs.zip(slabs) {
                let r = b * rows..(b + 1) * rows;
                core_forward(&d, &qd[r.clone()], &kd[r.clone()], &vd[r], ctx, probs);
            }
        });
        let (out, o_cache) = self.wo.forward(&ctx)?;
        Ok((
            out,
            AttentionCache {
                q_cache,
                k_cache,
                v_cache,
                o_cache,
                q,
                k,
                v,
                probs,
                batch,
                seq,
            },
        ))
    }

    /// Backward pass; accumulates projection grads, returns `dx`.
    pub fn backward(&mut self, cache: &AttentionCache, dy: &Tensor) -> Result<Tensor, TensorError> {
        let d = self.dims(cache.seq);
        let parts = core_parts(cache.batch, &d);
        self.backward_on(pool::global(), parts, cache, dy)
    }

    /// [`CausalSelfAttention::backward`] with the attention core split
    /// into `parts` ranges of sequences on `pool` (bit-identical for every
    /// `parts`).
    fn backward_on(
        &mut self,
        pool: &pool::Pool,
        parts: usize,
        cache: &AttentionCache,
        dy: &Tensor,
    ) -> Result<Tensor, TensorError> {
        let (batch, seq) = (cache.batch, cache.seq);
        let d = self.dims(seq);
        let dctx = self.wo.backward(&cache.o_cache, dy)?;

        let rows = seq * d.hidden;
        let mut dq = Tensor::zeros(batch * seq, d.hidden);
        let mut dk = Tensor::zeros(batch * seq, d.hidden);
        let mut dv = Tensor::zeros(batch * seq, d.hidden);
        let mut slabs: Vec<CoreGrads<'_>> = dq
            .data_mut()
            .chunks_exact_mut(rows.max(1))
            .zip(dk.data_mut().chunks_exact_mut(rows.max(1)))
            .zip(dv.data_mut().chunks_exact_mut(rows.max(1)))
            .map(|((dq, dk), dv)| CoreGrads { dq, dk, dv })
            .collect();
        let (qd, kd, vd, gd) = (cache.q.data(), cache.k.data(), cache.v.data(), dctx.data());
        pool::run_partitioned(pool, parts, slabs.len(), 1, &mut slabs, |seqs, slabs| {
            let mut ds = vec![0.0f32; seq * seq];
            for (b, out) in seqs.zip(slabs) {
                let r = b * rows..(b + 1) * rows;
                core_backward(
                    &d,
                    &qd[r.clone()],
                    &kd[r.clone()],
                    &vd[r.clone()],
                    &cache.probs[b],
                    &gd[r],
                    out,
                    &mut ds,
                );
            }
        });

        let mut dx = self.wq.backward(&cache.q_cache, &dq)?;
        let dxk = self.wk.backward(&cache.k_cache, &dk)?;
        let dxv = self.wv.backward(&cache.v_cache, &dv)?;
        ops::add_assign(dx.data_mut(), dxk.data())?;
        ops::add_assign(dx.data_mut(), dxv.data())?;
        Ok(dx)
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.wq.zero_grads();
        self.wk.zero_grads();
        self.wv.zero_grads();
        self.wo.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zo_tensor::{matmul, matmul_a_bt, matmul_at_b};

    #[test]
    fn causality_holds() {
        // Changing a future token must not change past outputs.
        let mut init = Init::new(10);
        let attn = CausalSelfAttention::new(8, 2, &mut init);
        let mut rng = Init::new(11);
        let x = rng.normal_tensor(6, 8, 1.0); // batch=1, seq=6
        let (y, _) = attn.forward(&x, 1, 6).unwrap();
        let mut x2 = x.clone();
        for j in 0..8 {
            x2.set(5, j, 9.0).unwrap(); // Perturb the last position.
        }
        let (y2, _) = attn.forward(&x2, 1, 6).unwrap();
        for t in 0..5 {
            assert_eq!(y.row(t), y2.row(t), "position {t} leaked future info");
        }
        assert_ne!(y.row(5), y2.row(5));
    }

    #[test]
    fn attention_rows_are_distributions() {
        let mut init = Init::new(12);
        let attn = CausalSelfAttention::new(8, 2, &mut init);
        let mut rng = Init::new(13);
        let x = rng.normal_tensor(8, 8, 1.0); // batch=2, seq=4
        let (_, cache) = attn.forward(&x, 2, 4).unwrap();
        assert_eq!(cache.probs.len(), 2); // 2 sequences of 2 heads
        for p in cache.probs.iter().flat_map(|s| s.chunks_exact(16)) {
            for i in 0..4 {
                let row = &p[i * 4..(i + 1) * 4];
                let total: f32 = row.iter().sum();
                assert!((total - 1.0).abs() < 1e-5);
                for (j, &v) in row.iter().enumerate() {
                    if j > i {
                        assert_eq!(v, 0.0, "mass above the diagonal");
                    }
                }
            }
        }
    }

    /// Copies the `(seq, head_dim)` block of head `h` in sequence `b` out
    /// of a `(batch*seq, hidden)` tensor.
    fn head_block(x: &Tensor, b: usize, h: usize, seq: usize, head_dim: usize) -> Tensor {
        let mut out = Tensor::zeros(seq, head_dim);
        for t in 0..seq {
            let src = &x.row(b * seq + t)[h * head_dim..(h + 1) * head_dim];
            out.row_mut(t).copy_from_slice(src);
        }
        out
    }

    /// Adds a `(seq, head_dim)` block back into its position in `dst`.
    fn add_head_block(dst: &mut Tensor, block: &Tensor, b: usize, h: usize, head_dim: usize) {
        let seq = block.rows();
        for t in 0..seq {
            let d = &mut dst.row_mut(b * seq + t)[h * head_dim..(h + 1) * head_dim];
            for (dv, sv) in d.iter_mut().zip(block.row(t)) {
                *dv += *sv;
            }
        }
    }

    /// The per-head layer this one replaced, kept as the reference: each
    /// head copied out, a full `(seq, seq)` score matrix per (sequence,
    /// head) through the tensor GEMMs, the mask as `-inf` before a plain
    /// softmax. Returns `(y, dx)` and accumulates the projection grads.
    fn reference_fwd_bwd(
        attn: &mut CausalSelfAttention,
        x: &Tensor,
        dy: &Tensor,
        batch: usize,
        seq: usize,
    ) -> (Tensor, Tensor) {
        let hidden = attn.wq.fan_in();
        let hd = hidden / attn.heads;
        let scale = 1.0 / (hd as f32).sqrt();
        let (q, qc) = attn.wq.forward(x).unwrap();
        let (k, kc) = attn.wk.forward(x).unwrap();
        let (v, vc) = attn.wv.forward(x).unwrap();
        let mut ctx = Tensor::zeros(batch * seq, hidden);
        let mut probs = Vec::new();
        for b in 0..batch {
            for h in 0..attn.heads {
                let (qb, kb) = (head_block(&q, b, h, seq, hd), head_block(&k, b, h, seq, hd));
                let mut scores = matmul_a_bt(&qb, &kb).unwrap();
                for i in 0..seq {
                    let row = scores.row_mut(i);
                    for (j, s) in row.iter_mut().enumerate() {
                        *s = if j > i { f32::NEG_INFINITY } else { *s * scale };
                    }
                    ops::softmax_row(row);
                }
                let ctx_b = matmul(&scores, &head_block(&v, b, h, seq, hd)).unwrap();
                add_head_block(&mut ctx, &ctx_b, b, h, hd);
                probs.push(scores);
            }
        }
        let (y, oc) = attn.wo.forward(&ctx).unwrap();
        let dctx = attn.wo.backward(&oc, dy).unwrap();
        let mut dq = Tensor::zeros(batch * seq, hidden);
        let mut dk = Tensor::zeros(batch * seq, hidden);
        let mut dv = Tensor::zeros(batch * seq, hidden);
        for b in 0..batch {
            for h in 0..attn.heads {
                let p = &probs[b * attn.heads + h];
                let g = head_block(&dctx, b, h, seq, hd);
                let dv_b = matmul_at_b(p, &g).unwrap();
                let dp = matmul_a_bt(&g, &head_block(&v, b, h, seq, hd)).unwrap();
                let mut ds = Tensor::zeros(seq, seq);
                for i in 0..seq {
                    let dot: f32 = p.row(i).iter().zip(dp.row(i)).map(|(a, b)| a * b).sum();
                    for j in 0..seq {
                        let val = p.row(i)[j] * (dp.row(i)[j] - dot) * scale;
                        ds.row_mut(i)[j] = val;
                    }
                }
                let dq_b = matmul(&ds, &head_block(&k, b, h, seq, hd)).unwrap();
                let dk_b = matmul_at_b(&ds, &head_block(&q, b, h, seq, hd)).unwrap();
                add_head_block(&mut dq, &dq_b, b, h, hd);
                add_head_block(&mut dk, &dk_b, b, h, hd);
                add_head_block(&mut dv, &dv_b, b, h, hd);
            }
        }
        let mut dx = attn.wq.backward(&qc, &dq).unwrap();
        ops::add_assign(dx.data_mut(), attn.wk.backward(&kc, &dk).unwrap().data()).unwrap();
        ops::add_assign(dx.data_mut(), attn.wv.backward(&vc, &dv).unwrap().data()).unwrap();
        (y, dx)
    }

    fn grad_bits(attn: &CausalSelfAttention) -> Vec<u32> {
        [&attn.wq, &attn.wk, &attn.wv, &attn.wo]
            .iter()
            .flat_map(|l| l.dw.data().iter().chain(&l.db))
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn batched_core_matches_the_per_head_reference_bitwise() {
        // Sequences shorter than, equal to and not a multiple of
        // ROW_BLOCK; one head, and head widths off the GEMM tile sizes.
        for &(batch, seq, hidden, heads) in &[
            (1usize, 1usize, 4usize, 1usize),
            (2, 16, 8, 2),
            (3, 37, 24, 3),
            (2, 70, 20, 4),
        ] {
            let mut init = Init::new(seq as u64);
            let attn = CausalSelfAttention::new(hidden, heads, &mut init);
            let x = init.normal_tensor(batch * seq, hidden, 1.0);
            let dy = init.normal_tensor(batch * seq, hidden, 1.0);
            let mut reference = attn.clone();
            let (want_y, want_dx) = reference_fwd_bwd(&mut reference, &x, &dy, batch, seq);
            let mut got = attn.clone();
            let (y, cache) = got.forward(&x, batch, seq).unwrap();
            let dx = got.backward(&cache, &dy).unwrap();
            let shape = (batch, seq, hidden, heads);
            assert_eq!(y.data(), want_y.data(), "forward {shape:?}");
            assert_eq!(dx.data(), want_dx.data(), "dx {shape:?}");
            assert_eq!(grad_bits(&got), grad_bits(&reference), "grads {shape:?}");
        }
    }

    #[test]
    fn core_split_over_sequences_is_bitwise_invariant() {
        let (batch, seq, hidden) = (5, 23, 12);
        let mut init = Init::new(40);
        let attn = CausalSelfAttention::new(hidden, 3, &mut init);
        let x = init.normal_tensor(batch * seq, hidden, 1.0);
        let dy = init.normal_tensor(batch * seq, hidden, 1.0);
        let one = zo_tensor::Pool::new(1);
        let mut base = attn.clone();
        let (want_y, cache) = base.forward_on(&one, 1, &x, batch, seq).unwrap();
        let want_dx = base.backward_on(&one, 1, &cache, &dy).unwrap();
        for threads in 1..=4 {
            let pool = zo_tensor::Pool::new(threads);
            for parts in [threads, threads + 3] {
                let mut a = attn.clone();
                let (y, cache) = a.forward_on(&pool, parts, &x, batch, seq).unwrap();
                let dx = a.backward_on(&pool, parts, &cache, &dy).unwrap();
                assert_eq!(y.data(), want_y.data(), "{threads}/{parts}");
                assert_eq!(dx.data(), want_dx.data(), "{threads}/{parts}");
                assert_eq!(grad_bits(&a), grad_bits(&base), "{threads}/{parts}");
            }
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut init = Init::new(14);
        let mut attn = CausalSelfAttention::new(4, 2, &mut init);
        let mut rng = Init::new(15);
        let x = rng.normal_tensor(3, 4, 0.8); // batch=1, seq=3
        let loss = |attn: &CausalSelfAttention, x: &Tensor| -> f32 {
            let (y, _) = attn.forward(x, 1, 3).unwrap();
            // Weighted sum for non-uniform dy.
            y.data()
                .iter()
                .enumerate()
                .map(|(i, v)| v * (0.1 * i as f32 + 0.5))
                .sum()
        };
        let (y, cache) = attn.forward(&x, 1, 3).unwrap();
        let mut dy = Tensor::zeros(3, 4);
        for i in 0..dy.len() {
            dy.data_mut()[i] = 0.1 * i as f32 + 0.5;
        }
        let _ = y;
        let dx = attn.backward(&cache, &dy).unwrap();
        let h = 1e-3;

        // Check every dx entry.
        for r in 0..3 {
            for c in 0..4 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c).unwrap() + h).unwrap();
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c).unwrap() - h).unwrap();
                let fd = (loss(&attn, &xp) - loss(&attn, &xm)) / (2.0 * h);
                let got = dx.get(r, c).unwrap();
                assert!((got - fd).abs() < 2e-2, "dx[{r}][{c}] {got} vs {fd}");
            }
        }

        // Spot-check a weight gradient in each projection.
        fn proj(attn: &mut CausalSelfAttention, i: usize) -> &mut Linear {
            match i {
                0 => &mut attn.wq,
                1 => &mut attn.wk,
                2 => &mut attn.wv,
                _ => &mut attn.wo,
            }
        }
        for i in 0..4 {
            let got = proj(&mut attn, i).dw.get(1, 2).unwrap();
            let orig = proj(&mut attn, i).w.get(1, 2).unwrap();
            proj(&mut attn, i).w.set(1, 2, orig + h).unwrap();
            let up = loss(&attn, &x);
            proj(&mut attn, i).w.set(1, 2, orig - h).unwrap();
            let down = loss(&attn, &x);
            proj(&mut attn, i).w.set(1, 2, orig).unwrap();
            let fd = (up - down) / (2.0 * h);
            assert!((got - fd).abs() < 2e-2, "projection {i} dw {got} vs {fd}");
        }
    }

    #[test]
    fn shape_validation() {
        let mut init = Init::new(16);
        let attn = CausalSelfAttention::new(8, 2, &mut init);
        let x = Tensor::zeros(5, 8);
        assert!(attn.forward(&x, 2, 3).is_err()); // 5 != 2*3
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn heads_must_divide_hidden() {
        let mut init = Init::new(17);
        CausalSelfAttention::new(10, 3, &mut init);
    }
}
