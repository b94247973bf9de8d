//! Multi-rank ZeRO-Offload: the symbiosis with ZeRO-2 (paper Sec. 4.2),
//! executed for real with threads as data-parallel ranks.
//!
//! Each rank holds a full fp16 model replica but owns only a `1/N`
//! contiguous shard of the optimizer state (fp32 master, momentum,
//! variance) — the ZeRO-2 partitioning. Per step: gradients are averaged
//! with reduce-scatter so each rank receives exactly its shard, the shard
//! crosses the "PCIe link" as checksummed fp16 frames, the rank's CPU-Adam
//! updates its shard, and the updated fp16 parameters are re-assembled on
//! every rank with all-gather (the broadcast sequence of Fig. 5).
//!
//! A rank is the one [`ZeroOffloadEngine`] over its rank's communicator —
//! the single-GPU engine is the same placement at world 1 — so this
//! module only adds the rank-facing API and the thread harness.

use zo_collectives::Communicator;
use zo_nn::Model;

use crate::config::ZeroOffloadConfig;
use crate::engine::RankEngine;

/// One data-parallel rank of a ZeRO-2 + offload training group.
pub type Zero2OffloadEngine<M> = RankEngine<M, false>;

/// The rank harness behind [`run_ranks`] and
/// [`run_zero3_ranks`](crate::run_zero3_ranks): one scoped thread per rank
/// of a `world`-rank group builds its engine with `make` and runs `body`
/// on it. Returns each rank's output in rank order.
pub(crate) fn spawn_ranks<E, T>(
    world: usize,
    make: impl Fn(Communicator) -> E + Sync,
    body: impl Fn(&mut E) -> T + Sync,
) -> Vec<T>
where
    T: Send,
{
    let comms = Communicator::group(world);
    std::thread::scope(|scope| {
        let (make, body) = (&make, &body);
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| scope.spawn(move || body(&mut make(comm))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .collect()
    })
}

/// Runs `world` ranks on threads; `body` receives each rank's engine.
///
/// Convenience harness used by tests, examples and benches. Returns each
/// rank's output in rank order.
///
/// # Panics
///
/// Propagates panics from worker threads.
pub fn run_ranks<M, T, F>(
    world: usize,
    cfg: ZeroOffloadConfig,
    make_model: impl Fn(usize) -> M + Send + Sync,
    body: F,
) -> Vec<T>
where
    M: Model + Send,
    T: Send,
    F: Fn(&mut Zero2OffloadEngine<M>) -> T + Send + Sync,
{
    spawn_ranks(
        world,
        |comm| Zero2OffloadEngine::new(make_model(comm.rank()), cfg, comm),
        body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ZeroOffloadEngine;
    use zo_models::BigramLm;
    use zo_nn::{GptConfig, GptModel};
    use zo_optim::{AdamParams, LossScaleConfig};

    fn tiny_model(seed: u64) -> GptModel {
        GptModel::new(
            GptConfig {
                vocab: 16,
                seq_len: 8,
                hidden: 8,
                heads: 2,
                layers: 2,
            },
            seed,
        )
    }

    fn cfg() -> ZeroOffloadConfig {
        ZeroOffloadConfig {
            loss_scale: LossScaleConfig {
                init_scale: 256.0,
                ..Default::default()
            },
            adam: AdamParams {
                lr: 3e-3,
                ..AdamParams::default()
            },
            ..ZeroOffloadConfig::default()
        }
    }

    /// Global batch for a step, deterministic; rank r takes its slice.
    ///
    /// The chain (task) is fixed by one seed; `step` advances the sampling
    /// stream so every rank sees the same global batch for a given step.
    fn global_batch(step: usize, batch: usize) -> zo_models::LmBatch {
        let mut lm = BigramLm::new(16, 0.05, 1000);
        let mut b = lm.batch(batch, 8);
        for _ in 0..step {
            b = lm.batch(batch, 8);
        }
        b
    }

    #[test]
    fn ranks_stay_in_exact_sync() {
        let finals = run_ranks(
            3,
            cfg(),
            |_| tiny_model(7),
            |engine| {
                for step in 0..5 {
                    let b = global_batch(step, 3);
                    let rank = engine.rank();
                    let inputs = b.inputs[rank * 8..(rank + 1) * 8].to_vec();
                    let targets = b.targets[rank * 8..(rank + 1) * 8].to_vec();
                    engine
                        .step(|m| m.train_step(&inputs, &targets, 1, 8, |_| {}))
                        .unwrap();
                }
                let mut p = vec![0.0f32; engine.model_mut().num_params()];
                engine.model_mut().copy_params_to(&mut p);
                p
            },
        );
        assert_eq!(finals[0], finals[1]);
        assert_eq!(finals[1], finals[2]);
    }

    #[test]
    fn partitioned_update_matches_single_process() {
        // Two ranks, each on half of a 4-sequence global batch, must match
        // a single process training on the full batch (ZeRO-2 is pure
        // systems restructuring — same math).
        let steps = 4;
        let multi = run_ranks(
            2,
            cfg(),
            |_| tiny_model(21),
            |engine| {
                for step in 0..steps {
                    let b = global_batch(step, 4);
                    let rank = engine.rank();
                    let inputs = b.inputs[rank * 16..(rank + 1) * 16].to_vec();
                    let targets = b.targets[rank * 16..(rank + 1) * 16].to_vec();
                    engine
                        .step(|m| m.train_step(&inputs, &targets, 2, 8, |_| {}))
                        .unwrap();
                }
                let mut p = vec![0.0f32; engine.model_mut().num_params()];
                engine.model_mut().copy_params_to(&mut p);
                p
            },
        );

        let mut single = ZeroOffloadEngine::new(tiny_model(21), cfg());
        for step in 0..steps {
            let b = global_batch(step, 4);
            single
                .step(|m| m.train_step(&b.inputs, &b.targets, 4, 8, |_| {}))
                .unwrap();
        }
        let mut p_single = vec![0.0f32; single.model_mut().num_params()];
        single.model_mut().copy_params_to(&mut p_single);

        let max_diff = multi[0]
            .iter()
            .zip(&p_single)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        // Summation order differs (per-rank partial sums vs one batch) and
        // parameters live in fp16 (ulp ~ 1e-3 near 1.0), so allow a few
        // fp16 ulps of drift over the run.
        assert!(
            max_diff < 6e-3,
            "partitioned vs replicated update diverged: max diff {max_diff}"
        );
    }

    #[test]
    fn each_rank_offloads_only_its_shard() {
        let stats = run_ranks(
            4,
            cfg(),
            |_| tiny_model(5),
            |engine| {
                for step in 0..3 {
                    let b = global_batch(step, 4);
                    let rank = engine.rank();
                    let inputs = b.inputs[rank * 8..(rank + 1) * 8].to_vec();
                    let targets = b.targets[rank * 8..(rank + 1) * 8].to_vec();
                    engine
                        .step(|m| m.train_step(&inputs, &targets, 1, 8, |_| {}))
                        .unwrap();
                }
                (
                    engine.master_shard().len(),
                    engine.stats().d2h_bytes,
                    engine.model_mut().num_params(),
                )
            },
        );
        let n = stats[0].2;
        let total_shards: usize = stats.iter().map(|s| s.0).sum();
        assert_eq!(total_shards, n, "shards must tile the parameter space");
        for (shard_len, d2h, _) in &stats {
            // 3 steps × 2 bytes × shard: aggregate PCIe volume is constant
            // (= one full model) regardless of the DP degree.
            assert_eq!(*d2h, 3 * 2 * *shard_len as u64);
        }
    }

    #[test]
    fn multi_rank_training_converges() {
        let fast = ZeroOffloadConfig {
            adam: AdamParams {
                lr: 0.01,
                ..AdamParams::default()
            },
            ..cfg()
        };
        let losses = run_ranks(
            2,
            fast,
            |_| tiny_model(2),
            |engine| {
                let mut out = Vec::new();
                for step in 0..150 {
                    let b = global_batch(step, 4);
                    let rank = engine.rank();
                    let inputs = b.inputs[rank * 16..(rank + 1) * 16].to_vec();
                    let targets = b.targets[rank * 16..(rank + 1) * 16].to_vec();
                    let o = engine
                        .step(|m| m.train_step(&inputs, &targets, 2, 8, |_| {}))
                        .unwrap();
                    out.push(o.loss());
                }
                out
            },
        );
        let head: f32 = losses[0][..10].iter().sum::<f32>() / 10.0;
        let tail: f32 = losses[0][140..].iter().sum::<f32>() / 10.0;
        assert!(tail < head * 0.9, "did not converge: {head} -> {tail}");
    }

    #[test]
    fn dpu_in_data_parallel_mode() {
        let dpu_cfg = ZeroOffloadConfig {
            dpu_warmup: Some(3),
            ..cfg()
        };
        let finals = run_ranks(
            2,
            dpu_cfg,
            |_| tiny_model(12),
            |engine| {
                for step in 0..8 {
                    let b = global_batch(step, 2);
                    let rank = engine.rank();
                    let inputs = b.inputs[rank * 8..(rank + 1) * 8].to_vec();
                    let targets = b.targets[rank * 8..(rank + 1) * 8].to_vec();
                    engine
                        .step(|m| m.train_step(&inputs, &targets, 1, 8, |_| {}))
                        .unwrap();
                }
                let mut p = vec![0.0f32; engine.model_mut().num_params()];
                engine.model_mut().copy_params_to(&mut p);
                p
            },
        );
        assert_eq!(finals[0], finals[1], "DPU ranks must stay in sync");
    }
}
