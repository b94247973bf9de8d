//! Multi-rank ZeRO-Offload: the symbiosis with ZeRO-2 (paper Sec. 4.2),
//! executed for real with threads as data-parallel ranks.
//!
//! Each rank holds a full fp16 model replica but owns only a `1/N`
//! contiguous shard of the optimizer state (fp32 master, momentum,
//! variance) — the ZeRO-2 partitioning. Per step: gradients are averaged
//! with reduce-scatter so each rank receives exactly its shard, the shard
//! crosses the "PCIe link" (fp16 rounding), the rank's CPU-Adam updates
//! its shard, and the updated fp16 parameters are re-assembled on every
//! rank with all-gather (the broadcast sequence of Fig. 5).
//!
//! The step state machine is the shared [`StepPipeline`] from
//! [`crate::pipeline`] — the same one behind the single-GPU engine — so
//! this module only supplies the sharded [`Placement`]: the collectives,
//! the per-rank tracks, and the lock-step bookkeeping.

use zo_collectives::{partition_range, Communicator};
use zo_fault::{lane, with_retry, FaultError, FaultSession, Site};
use zo_nn::Model;
use zo_optim::DynamicLossScaler;
use zo_tensor::{cast_f32_to_f16, F16};
use zo_trace::Tracer;

use crate::checkpoint::{CheckpointError, TrainingCheckpoint};
use crate::config::{resolve_fault_plan, resolve_tracer, ZeroOffloadConfig};
use crate::engine::{EngineStats, StepOutcome};
use crate::pipeline::{build_offload_updater, GradStream, Placement, StepError, StepPipeline};
use crate::wire::roundtrip_grads;

/// The ZeRO-2 placement: reduce-scatter in, shard-wise fp16 rounding,
/// all-gather out; overflow agreed by all-reduce so every rank skips (or
/// applies) the same step.
struct ShardPlacement {
    comm: Communicator,
    shard_start: usize,
    num_params: usize,
    track: String,
    /// Full-model gradient staging for the reduce-scatter, reused.
    full_grads: Vec<f32>,
    /// fp32 widening scratch for the all-gather, reused across steps.
    shard_f32: Vec<f32>,
}

impl ShardPlacement {
    /// All-gathers the fp16 shards and loads the full model. Gated by the
    /// `collective.allgather` fault site (the communicator's session, so
    /// every rank draws the same decision and errors in lock-step).
    fn gather_and_load<M: Model>(
        &mut self,
        model: &mut M,
        p16: &[F16],
        stats: &mut EngineStats,
        tracer: &Tracer,
    ) -> Result<(), FaultError> {
        let _gather = tracer.span(&self.track, "all_gather");
        self.shard_f32.resize(p16.len(), 0.0);
        F16::to_f32_slice(p16, &mut self.shard_f32);
        let full = self.comm.try_all_gather(&self.shard_f32, self.num_params)?;
        model.load_params_from(&full);
        stats.h2d_bytes += 2 * p16.len() as u64;
        tracer.add(&self.track, "h2d_bytes", 2 * p16.len() as u64);
        Ok(())
    }
}

impl<M: Model> Placement<M> for ShardPlacement {
    fn fwd_track(&self) -> &str {
        &self.track
    }

    fn counter_track(&self) -> &str {
        &self.track
    }

    fn transfer(
        &mut self,
        model: &mut M,
        grads: &mut [f32],
        scale: f32,
        denom: f32,
        _stream: &mut GradStream,
        stats: &mut EngineStats,
        tracer: &Tracer,
        faults: &mut FaultSession,
    ) -> Result<bool, FaultError> {
        // Reduce-scatter the averaged gradients: this rank receives its
        // owned shard only (Fig. 5, line 29).
        {
            let _rs = tracer.span(&self.track, "reduce_scatter");
            model.copy_grads_to(&mut self.full_grads);
            let shard = self.comm.try_reduce_scatter_mean(&self.full_grads)?;
            grads.copy_from_slice(&shard);
        }
        // The reduced shard crosses PCIe: the per-rank wire gate.
        with_retry(faults, Site::WireD2h, tracer, &self.track, || ())?;

        // The shard crosses PCIe as fp16, with loss scaling.
        let overflow = roundtrip_grads(grads, denom, scale);
        stats.d2h_bytes += 2 * grads.len() as u64;
        tracer.add(&self.track, "d2h_bytes", 2 * grads.len() as u64);
        Ok(overflow)
    }

    fn combine_overflow(&mut self, local: bool) -> bool {
        // Overflow anywhere must skip the step everywhere.
        let mut flag = vec![if local { 1.0f32 } else { 0.0 }];
        self.comm.all_reduce_sum(&mut flag);
        flag[0] > 0.0
    }

    fn clip_grads(&mut self, _grads: &mut [f32], _max_norm: f64) {
        // A faithful global-norm clip would need another collective over
        // the shards; the sharded engine does not clip.
    }

    fn update_span(&self) -> (&str, &str) {
        (&self.track, "partition_update")
    }

    fn publish(
        &mut self,
        model: &mut M,
        p16: &[F16],
        stats: &mut EngineStats,
        tracer: &Tracer,
        _faults: &mut FaultSession,
    ) -> Result<(), FaultError> {
        // The all-gather is the sharded copy-back; its gate lives on the
        // communicator's shared session, not the per-rank one.
        self.gather_and_load(model, p16, stats, tracer)
    }

    fn on_skip(
        &mut self,
        model: &mut M,
        p16: &[F16],
        stats: &mut EngineStats,
        tracer: &Tracer,
    ) -> Result<(), FaultError> {
        // Parameters unchanged, but ranks must stay in lock-step through
        // the same collective sequence.
        self.gather_and_load(model, p16, stats, tracer)
    }

    fn closes_step(&self) -> bool {
        // One rank closes the step boundary: `StepMetrics` sums counter
        // deltas over tracks, so the per-step row aggregates all ranks.
        self.comm.rank() == 0
    }
}

/// One data-parallel rank of a ZeRO-2 + offload training group.
pub struct Zero2OffloadEngine<M: Model> {
    model: M,
    pipe: StepPipeline,
    placement: ShardPlacement,
    /// Inert: the sharded path transfers via reduce-scatter, not the
    /// per-layer wire stream.
    stream: GradStream,
}

impl<M: Model> Zero2OffloadEngine<M> {
    /// Wraps one rank's model replica.
    ///
    /// All ranks must construct identically-initialized models (same seed)
    /// — exactly as data-parallel training requires.
    pub fn new(mut model: M, cfg: ZeroOffloadConfig, comm: Communicator) -> Zero2OffloadEngine<M> {
        let n = model.num_params();
        let range = partition_range(n, comm.world(), comm.rank());
        let mut full = vec![0.0f32; n];
        model.copy_params_to(&mut full);
        let master = full[range.clone()].to_vec();
        let shard_len = master.len();
        let tracer = resolve_tracer(cfg.tracer);
        let track = format!("rank{}", comm.rank());
        let updater = build_offload_updater(&cfg, &master, &tracer, &format!("{track}_optimizer"));
        let mut p16 = vec![F16::ZERO; shard_len];
        cast_f32_to_f16(&master, &mut p16);
        let plan = resolve_fault_plan(cfg.faults);
        let placement = ShardPlacement {
            comm,
            shard_start: range.start,
            num_params: n,
            track,
            full_grads: vec![0.0f32; n],
            shard_f32: Vec::new(),
        };
        let pipe = StepPipeline {
            master,
            p16,
            grads: vec![0.0f32; shard_len],
            updater,
            scaler: DynamicLossScaler::new(cfg.loss_scale),
            micro_in_window: 0,
            stats: EngineStats::default(),
            tracer,
            grad_accumulation: cfg.grad_accumulation,
            max_grad_norm: 0.0,
            pool_base: zo_tensor::pool::global().stats(),
            // All ranks share lane ENGINE (no rank offset): lock-step SPMD
            // execution visits every site in the same order, so identical
            // lanes make identical per-rank fault decisions — a fatal
            // `wire.d2h` or `optim.cpu_step` fault errors on *every* rank
            // before the next collective, never deadlocking a barrier.
            faults: FaultSession::new(plan.clone(), lane::ENGINE),
            overflow_storm_limit: cfg.overflow_storm_limit,
        };
        let mut engine = Zero2OffloadEngine {
            model,
            pipe,
            placement,
            stream: GradStream::inert(),
        };
        // Start from the fp16 rounding of the initial parameters, agreed
        // across ranks through the same gather path used in training. The
        // communicator's fault gate is installed only *after* this
        // initialization sync — construction itself is not a fault site.
        engine
            .placement
            .gather_and_load(
                &mut engine.model,
                &engine.pipe.p16,
                &mut engine.pipe.stats,
                &engine.pipe.tracer,
            )
            .expect("initial gather runs before fault gates are installed");
        if plan.is_enabled() {
            engine.placement.comm.install_faults(
                FaultSession::new(plan, lane::COLLECTIVE),
                engine.pipe.tracer.clone(),
                &engine.placement.track,
            );
        }
        engine
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.placement.comm.rank()
    }

    /// Group size.
    pub fn world(&self) -> usize {
        self.placement.comm.world()
    }

    /// Cumulative counters for this rank.
    pub fn stats(&self) -> &EngineStats {
        &self.pipe.stats
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the wrapped model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// This rank's fp32 master shard.
    pub fn master_shard(&self) -> &[f32] {
        &self.pipe.master
    }

    /// Flat-parameter range owned by this rank (ZeRO-2 partition).
    pub fn shard_range(&self) -> core::ops::Range<usize> {
        self.placement.shard_start..self.placement.shard_start + self.pipe.master.len()
    }

    /// One micro-batch; at window boundaries, the partitioned update.
    ///
    /// All ranks must call `step` the same number of times (collectives
    /// synchronize them).
    pub fn step<E>(
        &mut self,
        run_backward: impl FnOnce(&mut M) -> Result<f32, E>,
    ) -> Result<StepOutcome, StepError<E>> {
        self.pipe.step(
            &mut self.model,
            &mut self.placement,
            &mut self.stream,
            |m, _| run_backward(m),
        )
    }

    /// Captures this rank's training state (shard-sized: master, moments,
    /// scaler, DPU clock, counters). Every rank checkpoints its own
    /// shard; restoring all shards restores the run.
    pub fn save_checkpoint(&self) -> TrainingCheckpoint {
        self.pipe.capture_state()
    }

    /// Restores a checkpoint saved by the same rank of an identically
    /// configured group, then all-gathers the restored shards to reload
    /// the full fp16 replica.
    ///
    /// The reload is a collective: **all ranks must restore
    /// concurrently**, like [`Zero2OffloadEngine::step`].
    pub fn restore_checkpoint(&mut self, ckpt: &TrainingCheckpoint) -> Result<(), CheckpointError> {
        self.pipe.restore_state(ckpt)?;
        self.placement
            .gather_and_load(
                &mut self.model,
                &self.pipe.p16,
                &mut self.pipe.stats,
                &self.pipe.tracer,
            )
            .map_err(CheckpointError::Fault)
    }
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
    let comms = Communicator::group(world);
    std::thread::scope(|scope| {
        let body = &body;
        let make_model = &make_model;
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                scope.spawn(move || {
                    let rank = comm.rank();
                    let mut engine = Zero2OffloadEngine::new(make_model(rank), cfg, comm);
                    body(&mut engine)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .collect()
    })
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
