//! Token and position embeddings with manual backward.
//!
//! The backward scatter-add parallelizes over contiguous **table-row
//! ranges** on the shared worker pool: each task scans the id list in
//! order and applies only the rows it owns, so duplicate ids accumulate
//! in exactly the serial order and results are bit-identical at any
//! thread count (same argument as the matmul kernels).

use zo_tensor::{pool, Init, Tensor, TensorError};

/// A learned embedding table.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// Table, `(vocab, dim)`.
    pub table: Tensor,
    /// Gradients for the table.
    pub dtable: Tensor,
}

/// Saved token ids for the backward pass.
#[derive(Debug, Clone)]
pub struct EmbeddingCache {
    /// The looked-up ids, one per output row.
    pub ids: Vec<usize>,
}

impl Embedding {
    /// Creates a table of `vocab` rows of size `dim` (std 0.02, GPT-2's
    /// initialization scale).
    pub fn new(vocab: usize, dim: usize, init: &mut Init) -> Embedding {
        Embedding {
            table: init.normal_tensor(vocab, dim, 0.02),
            dtable: Tensor::zeros(vocab, dim),
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.table.cols()
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.table.len()
    }

    /// Looks up `ids`, producing one row per id.
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for an id outside the
    /// vocabulary.
    pub fn forward(&self, ids: &[usize]) -> Result<(Tensor, EmbeddingCache), TensorError> {
        let mut out = Tensor::zeros(ids.len(), self.dim());
        for (r, &id) in ids.iter().enumerate() {
            if id >= self.vocab() {
                return Err(TensorError::IndexOutOfBounds {
                    index: (id, 0),
                    shape: (self.vocab(), self.dim()),
                });
            }
            out.row_mut(r).copy_from_slice(self.table.row(id));
        }
        Ok((out, EmbeddingCache { ids: ids.to_vec() }))
    }

    /// Scatters `dy` rows back into the table gradient.
    ///
    /// Large scatters run across the shared worker pool, partitioned by
    /// table row so duplicate-id accumulation order — and therefore every
    /// bit of the result — matches the serial path.
    pub fn backward(&mut self, cache: &EmbeddingCache, dy: &Tensor) -> Result<(), TensorError> {
        if dy.rows() != cache.ids.len() || dy.cols() != self.dim() {
            return Err(TensorError::ShapeMismatch {
                op: "embedding backward",
                lhs: (cache.ids.len(), self.dim()),
                rhs: dy.shape(),
            });
        }
        let threads = pool::global().threads();
        // Below ~64k accumulated elements the scan cost dominates; stay
        // serial (identical arithmetic either way).
        let parts = if cache.ids.len() * self.dim() < (1 << 16) {
            1
        } else {
            threads
        };
        self.scatter_on(pool::global(), parts, &cache.ids, dy);
        Ok(())
    }

    /// The scatter-add behind [`Embedding::backward`], on an explicit
    /// pool with an explicit partition count over table rows
    /// (bit-identical for every `parts`; exposed for tests and benches).
    pub fn scatter_on(&mut self, pool: &pool::Pool, parts: usize, ids: &[usize], dy: &Tensor) {
        let (vocab, dim) = (self.vocab(), self.dim());
        pool::run_partitioned(
            pool,
            parts,
            vocab,
            dim,
            self.dtable.data_mut(),
            |rows, part| {
                for (r, &id) in ids.iter().enumerate() {
                    if rows.contains(&id) {
                        let local = (id - rows.start) * dim;
                        let dst = &mut part[local..local + dim];
                        for (d, s) in dst.iter_mut().zip(dy.row(r)) {
                            *d += *s;
                        }
                    }
                }
            },
        );
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.dtable.fill_zero();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_copies_rows() {
        let mut init = Init::new(1);
        let emb = Embedding::new(4, 3, &mut init);
        let (out, _) = emb.forward(&[2, 0, 2]).unwrap();
        assert_eq!(out.row(0), emb.table.row(2));
        assert_eq!(out.row(1), emb.table.row(0));
        assert_eq!(out.row(2), emb.table.row(2));
    }

    #[test]
    fn out_of_vocab_rejected() {
        let mut init = Init::new(1);
        let emb = Embedding::new(4, 3, &mut init);
        assert!(emb.forward(&[4]).is_err());
    }

    #[test]
    fn backward_scatters_and_accumulates_duplicates() {
        let mut init = Init::new(2);
        let mut emb = Embedding::new(5, 2, &mut init);
        let (_, cache) = emb.forward(&[1, 1, 3]).unwrap();
        let dy = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        emb.backward(&cache, &dy).unwrap();
        // Token 1 appears twice: gradients add.
        assert_eq!(emb.dtable.row(1), &[4.0, 6.0]);
        assert_eq!(emb.dtable.row(3), &[5.0, 6.0]);
        assert_eq!(emb.dtable.row(0), &[0.0, 0.0]);
        emb.zero_grads();
        assert!(emb.dtable.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn parallel_scatter_bit_identical_to_serial() {
        let pool = pool::Pool::new(4);
        let mut init = Init::new(9);
        let dim = 6;
        let vocab = 11;
        // Duplicate-heavy id pattern across the whole table.
        let ids: Vec<usize> = (0..200).map(|i| (i * 7 + i / 3) % vocab).collect();
        let dy = init.normal_tensor(ids.len(), dim, 1.0);
        let mut want = Embedding::new(vocab, dim, &mut Init::new(1));
        want.scatter_on(&pool, 1, &ids, &dy);
        for parts in [2usize, 3, 7] {
            let mut got = Embedding::new(vocab, dim, &mut Init::new(1));
            got.scatter_on(&pool, parts, &ids, &dy);
            assert_eq!(
                got.dtable.data(),
                want.dtable.data(),
                "parts={parts} must be bit-identical"
            );
        }
    }

    #[test]
    fn backward_shape_checked() {
        let mut init = Init::new(3);
        let mut emb = Embedding::new(5, 2, &mut init);
        let (_, cache) = emb.forward(&[0]).unwrap();
        let bad = Tensor::zeros(2, 2);
        assert!(emb.backward(&cache, &bad).is_err());
    }
}
