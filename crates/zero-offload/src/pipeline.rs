//! The pipelined step executor behind every training engine.
//!
//! The single-accelerator engine and the ZeRO-2/3 ranks run the *same*
//! step state machine — accumulation window, loss scaling, gradient
//! transfer, overflow skip, clipping, optimizer update, fp16 copy-back.
//! This module owns that machine once, as [`StepPipeline`], over the one
//! [`Placement`] (in [`crate::engine`]) that says where data lives and
//! how it moves.
//!
//! The executor also realizes the paper's two overlaps (Sec. 4.1, Fig. 6):
//!
//! * **Streamed gradient offload** — [`GradStream`] is a
//!   [`BackwardHook`] that pushes each layer bucket through the
//!   [`GradBucketer`](crate::bucket::GradBucketer) wire path from *inside*
//!   backward, so the `grad_offload` span interleaves with `fwd_bwd`
//!   instead of following it.
//! * **Delayed parameter update** — [`Dpu`] stashes step *i*'s
//!   gradients, and step *i+1*'s backward runs beside a scoped thread
//!   that computes their CPU-Adam update; step *i+1*'s update stage swaps
//!   the result in. The observable arithmetic is bit-identical to the
//!   synchronous [`DelayedUpdate`](zo_optim::DelayedUpdate).

use zo_fault::{with_retry, FaultError, FaultSession, Site};
use zo_nn::{BackwardHook, Model};
use zo_optim::{
    adam_reference_step, AdamParams, AdamState, CpuAdam, CpuAdamConfig, DynamicLossScaler,
};
use zo_tensor::{cast_f32_to_f16, F16};
use zo_trace::{names, Tracer};

use crate::bucket::GradBucketer;
use crate::config::{OffloadDevice, ZeroOffloadConfig};
use crate::engine::{EngineStats, Placement, StepOutcome};
use crate::overlap::Dpu;
use crate::tier::{NvmeTier, TierError, TierKind, TieredAdam, TieredStepError};

/// Why a training step failed.
///
/// Every failure mode of the offload schedule is typed: the model's own
/// backward error, a non-recoverable injected (or real) transport fault,
/// a memory-tier I/O failure, and the overflow-storm degradation signal.
/// Transient faults never show up here — they are retried inside the step
/// and the step succeeds.
#[derive(Debug, Clone, PartialEq)]
pub enum StepError<E> {
    /// The model's forward/backward pass failed.
    Backward(E),
    /// A transfer, collective, optimizer or checkpoint site surfaced a
    /// fatal or retry-exhausted fault.
    Fault(FaultError),
    /// The optimizer-state tier failed a partition read or write partway
    /// through the tiled update (file gone, device full, frame invalid).
    /// Tiles before the failure are already updated, so the tier state is
    /// torn — restore from a checkpoint, exactly as after a fatal
    /// `tier.write` fault.
    Tier(TierError),
    /// The loss scaler skipped too many consecutive steps — the run is
    /// no longer making progress (see
    /// [`ZeroOffloadConfig::overflow_storm_limit`](crate::ZeroOffloadConfig::overflow_storm_limit)).
    OverflowStorm {
        /// Consecutive overflow-skipped steps observed.
        consecutive: u32,
    },
}

impl<E> StepError<E> {
    /// The fault behind this error, if it came from an injection site.
    pub fn fault(&self) -> Option<FaultError> {
        match self {
            StepError::Fault(f) => Some(*f),
            _ => None,
        }
    }
}

impl<E> From<FaultError> for StepError<E> {
    fn from(f: FaultError) -> StepError<E> {
        StepError::Fault(f)
    }
}

impl<E> From<TieredStepError> for StepError<E> {
    fn from(e: TieredStepError) -> StepError<E> {
        match e {
            TieredStepError::Fault(f) => StepError::Fault(f),
            TieredStepError::Tier(t) => StepError::Tier(t),
        }
    }
}

impl<E: core::fmt::Display> core::fmt::Display for StepError<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StepError::Backward(e) => write!(f, "backward pass failed: {e}"),
            StepError::Fault(fault) => write!(f, "step fault: {fault}"),
            StepError::Tier(e) => write!(f, "optimizer-state tier failed mid-step: {e}"),
            StepError::OverflowStorm { consecutive } => {
                write!(f, "overflow storm: {consecutive} consecutive skipped steps")
            }
        }
    }
}

impl<E: core::fmt::Display + core::fmt::Debug> std::error::Error for StepError<E> {}

/// The optimizer behind the update stage.
pub(crate) enum Updater {
    /// Non-offload reference path (scalar Adam, same recurrence).
    Reference(AdamState, AdamParams),
    /// The offloaded CPU-Adam, synchronous.
    Cpu(CpuAdam),
    /// The offloaded CPU-Adam, one step delayed beside the next backward.
    Dpu(Dpu),
    /// The memory-tier streaming optimizer: fp32 states live on a
    /// [`MemoryTier`](crate::tier::MemoryTier) and the Adam update is
    /// tiled through a bounded DRAM scratch. Bit-identical to [`Cpu`].
    ///
    /// [`Cpu`]: Updater::Cpu
    Tiered(TieredAdam),
}

/// Builds the optimizer behind the update stage from the config's
/// offload knobs, for this rank's master shard.
///
/// Without offload it is the scalar reference Adam. With offload,
/// [`TierKind::Dram`] is the classic resident [`CpuAdam`] — delayed by
/// one step when `dpu_warmup` is set — and [`TierKind::Nvme`] streams the
/// states through a file-backed [`NvmeTier`] under the configured DRAM
/// scratch budget. [`ZeroOffloadConfig::validate`] has already refused
/// DPU without offload or off DRAM.
pub(crate) fn build_updater(
    cfg: &ZeroOffloadConfig,
    master: &[f32],
    tracer: &Tracer,
    track: &str,
) -> Updater {
    if cfg.offload == OffloadDevice::None {
        return Updater::Reference(AdamState::new(master.len()), cfg.adam);
    }
    let opt_cfg = CpuAdamConfig {
        hp: cfg.adam,
        num_threads: cfg.resolved_optimizer_threads(),
        tile_width: cfg.tile_width,
    };
    match (cfg.optimizer_tier, cfg.dpu_warmup) {
        (TierKind::Dram, None) => Updater::Cpu(CpuAdam::new(opt_cfg, master.len())),
        (TierKind::Dram, Some(warmup)) => {
            Updater::Dpu(Dpu::new(opt_cfg, master.len(), warmup, tracer, track))
        }
        (TierKind::Nvme, _) => Updater::Tiered(TieredAdam::new(
            Box::new(NvmeTier::new().expect("create NVMe spill directory")),
            cfg.adam,
            master,
            cfg.tier_scratch_bytes,
            tracer.clone(),
            track,
        )),
    }
}

/// A [`BackwardHook`] that ships gradients through the bucketer/wire path
/// *during* backward — the paper's overlapped gradient offload.
///
/// The hook is inert until armed by the engine for a window-final
/// micro-batch; a plain [`ZeroOffloadEngine::step`](crate::ZeroOffloadEngine::step)
/// never arms it and transfers post hoc instead. Streaming applies the
/// same loss-scale fp16 rounding, pushes slices at the same flat offsets
/// in the same backward order (head first, blocks reversed, embeddings
/// last), and therefore produces byte-identical wire frames — scheduling
/// changes, numerics never do.
pub struct GradStream {
    pub(crate) tracer: Tracer,
    pub(crate) ranges: Vec<core::ops::Range<usize>>,
    pub(crate) bucket_bytes: usize,
    pub(crate) armed: bool,
    pub(crate) scale: f32,
    pub(crate) denom: f32,
    pub(crate) overflow: bool,
    /// Elements streamed so far within each bucket.
    pub(crate) written: Vec<usize>,
    /// Total elements streamed this window.
    pub(crate) streamed: usize,
    pub(crate) bucketer: GradBucketer,
    /// Timestamp of the first streamed slice (span start).
    pub(crate) start_us: Option<u64>,
    /// Mid-backward transfer fault session (lane `STREAM`): every pushed
    /// slice passes the `wire.d2h` gate.
    pub(crate) faults: FaultSession,
    /// Set when a non-recoverable fault hit mid-backward: staged frames
    /// were dropped and the window must fall back to the post-hoc path.
    poisoned: bool,
}

impl GradStream {
    /// A disarmed stream for a model with the given layer ranges; every
    /// pushed slice passes the `wire.d2h` gate of `faults` (lane `STREAM`).
    pub(crate) fn new(
        tracer: Tracer,
        ranges: Vec<core::ops::Range<usize>>,
        bucket_bytes: usize,
        faults: FaultSession,
    ) -> GradStream {
        let buckets = ranges.len();
        GradStream {
            tracer,
            ranges,
            bucket_bytes,
            armed: false,
            scale: 1.0,
            denom: 1.0,
            overflow: false,
            written: vec![0; buckets],
            streamed: 0,
            bucketer: GradBucketer::new(2),
            start_us: None,
            faults,
            poisoned: false,
        }
    }

    /// Arms the stream for the closing micro-batch of a window: slices
    /// arriving from backward will be rounded and framed immediately.
    pub(crate) fn arm(&mut self, scale: f32, denom: f32) {
        self.armed = true;
        self.scale = scale;
        self.denom = denom;
        self.overflow = false;
        self.written.clear();
        self.written.resize(self.ranges.len(), 0);
        self.streamed = 0;
        self.bucketer = GradBucketer::traced(self.bucket_bytes, self.tracer.clone(), "pcie");
        self.start_us = None;
        self.poisoned = false;
    }

    /// Consumes the poisoned flag: `true` means the streamed window was
    /// abandoned mid-backward and the caller must retransmit post hoc.
    pub(crate) fn take_poisoned(&mut self) -> bool {
        core::mem::take(&mut self.poisoned)
    }

    /// Disarms; returns the `grad_offload` span start if the window was
    /// actually streamed (`None` means: fall back to the post-hoc path).
    ///
    /// # Panics
    ///
    /// Panics if only part of the model was streamed — the transfer would
    /// silently use stale gradients for the rest.
    pub(crate) fn take_streamed(&mut self) -> Option<u64> {
        if !self.armed {
            return None;
        }
        self.armed = false;
        if self.poisoned {
            // Degraded window: partial frames were dropped mid-backward;
            // the gradients themselves are intact on the device, so the
            // caller retransmits them post hoc.
            self.streamed = 0;
            return None;
        }
        if self.streamed == 0 {
            return None;
        }
        let expected = self.ranges.last().map_or(0, |r| r.end);
        assert_eq!(
            self.streamed, expected,
            "streamed gradient slices must cover the whole model"
        );
        Some(self.start_us.unwrap_or_else(|| self.tracer.now_us()))
    }
}

impl BackwardHook for GradStream {
    fn on_grads(&mut self, bucket: usize, grads: &[f32]) {
        if !self.armed || self.poisoned {
            return;
        }
        if self.start_us.is_none() {
            self.start_us = Some(self.tracer.now_us());
        }
        if self.faults.enabled() {
            // Each mid-backward slice crosses the wire gate. A transient
            // retries invisibly; a non-recoverable fault poisons the
            // window — staged frames are dropped and the step falls back
            // to the post-hoc transfer (graceful degradation, not abort).
            let gate = with_retry(&mut self.faults, Site::WireD2h, &self.tracer, "pcie", || ());
            if gate.is_err() {
                self.poisoned = true;
                self.bucketer = GradBucketer::new(2);
                self.tracer.add("pcie", names::FAULT_STREAM_FALLBACK, 1);
                return;
            }
        }
        let offset = self.ranges[bucket].start + self.written[bucket];
        self.overflow |= self
            .bucketer
            .push_grads(offset as u64, grads, self.denom, self.scale);
        self.written[bucket] += grads.len();
        self.streamed += grads.len();
    }

    fn on_bucket(&mut self, _bucket: usize) {}
}

/// The step state machine shared by every engine.
///
/// Owns everything placement-independent: the fp32 master copy (this
/// rank's shard: the full model at world 1), its fp16 mirror, the optimizer-input gradient buffer, the
/// updater, the dynamic loss scaler, the accumulation window and the
/// cumulative stats.
pub(crate) struct StepPipeline {
    pub(crate) master: Vec<f32>,
    pub(crate) p16: Vec<F16>,
    pub(crate) grads: Vec<f32>,
    pub(crate) updater: Updater,
    pub(crate) scaler: DynamicLossScaler,
    pub(crate) micro_in_window: u32,
    pub(crate) stats: EngineStats,
    pub(crate) tracer: Tracer,
    pub(crate) grad_accumulation: u32,
    pub(crate) max_grad_norm: f64,
    /// Shared-pool counters at the last emitted step boundary; the delta
    /// becomes the step's `pool.tasks` / `pool.busy_ns` counters.
    pub(crate) pool_base: zo_tensor::PoolStats,
    /// Step-level fault session (lane `ENGINE` + rank): gates the
    /// transfer, optimizer and publish stages.
    pub(crate) faults: FaultSession,
    /// Consecutive overflow skips tolerated before
    /// [`StepError::OverflowStorm`] (0 disables).
    pub(crate) overflow_storm_limit: u32,
}

impl StepPipeline {
    /// Captures the pipeline-owned training state (master copy, optimizer
    /// moments, loss scaler, DPU bookkeeping, step counters) as a
    /// [`TrainingCheckpoint`]. Shared by every engine stage: for the
    /// single-GPU engine the master spans the full model, for the sharded
    /// engines it is this rank's partition — the checkpoint is shard-sized
    /// either way, and the engine wrapper decides what "whole run" means.
    pub(crate) fn capture_state(&self) -> crate::checkpoint::TrainingCheckpoint {
        let (optim, dpu) = self.updater_state();
        crate::checkpoint::TrainingCheckpoint {
            master: self.master.clone(),
            optim,
            loss_scale: self.scaler.snapshot(),
            dpu,
            steps_applied: self.stats.steps_applied,
            steps_skipped: self.stats.steps_skipped,
        }
    }

    /// Restores the pipeline-owned state from a checkpoint of the same
    /// shard size: master, optimizer, scaler, counters, and the fp16
    /// mirror (recomputed from the master — it is a pure function of it).
    ///
    /// Does NOT reload the wrapped model: every placement materializes its
    /// device view differently (full replica gather, stage-3 shard reset),
    /// so the engine wrapper finishes the job.
    pub(crate) fn restore_state(
        &mut self,
        ckpt: &crate::checkpoint::TrainingCheckpoint,
    ) -> Result<(), crate::checkpoint::CheckpointError> {
        let n = self.master.len();
        if ckpt.master.len() != n || ckpt.optim.len() != n {
            return Err(crate::checkpoint::CheckpointError::SizeMismatch {
                checkpoint: ckpt.master.len(),
                engine: n,
            });
        }
        self.master.copy_from_slice(&ckpt.master);
        // Order matters: the tiered updater rewrites its partitions from
        // the pipeline master, so it must already hold the checkpointed copy.
        self.set_updater_state(&ckpt.optim, ckpt.dpu.as_ref())?;
        self.scaler.restore(ckpt.loss_scale);
        self.stats.steps_applied = ckpt.steps_applied;
        self.stats.steps_skipped = ckpt.steps_skipped;
        let mut p16 = vec![F16::ZERO; ckpt.master.len()];
        cast_f32_to_f16(&ckpt.master, &mut p16);
        self.p16 = p16;
        Ok(())
    }

    /// Snapshot of optimizer state + DPU bookkeeping (checkpointing).
    pub(crate) fn updater_state(&self) -> (AdamState, Option<crate::checkpoint::DpuCheckpoint>) {
        match &self.updater {
            Updater::Reference(state, _) => (state.clone(), None),
            Updater::Cpu(opt) => (opt.state().clone(), None),
            Updater::Dpu(dpu) => {
                let (state, dpu) = dpu.checkpoint();
                (state, Some(dpu))
            }
            Updater::Tiered(tiered) => (tiered.state(), None),
        }
    }

    /// Restores optimizer + DPU state (checkpointing). The pipeline master
    /// must already hold the restored parameters.
    pub(crate) fn set_updater_state(
        &mut self,
        optim: &AdamState,
        dpu: Option<&crate::checkpoint::DpuCheckpoint>,
    ) -> Result<(), crate::checkpoint::CheckpointError> {
        let mismatch =
            |have: usize, want: usize| crate::checkpoint::CheckpointError::SizeMismatch {
                checkpoint: have,
                engine: want,
            };
        match (&mut self.updater, dpu) {
            (Updater::Reference(state, _), None) => {
                *state = optim.clone();
                Ok(())
            }
            (Updater::Cpu(opt), None) => opt
                .load_state(optim.clone())
                .map_err(|_| mismatch(optim.len(), self.master.len())),
            (Updater::Dpu(dpu), Some(d)) => dpu.restore(optim, d),
            (Updater::Tiered(tiered), None) => {
                if optim.len() != self.master.len() {
                    return Err(mismatch(optim.len(), self.master.len()));
                }
                // Rewriting the tier partitions from the restored master
                // also heals any torn partition a fatal write left behind.
                tiered.restore(&self.master, optim);
                Ok(())
            }
            _ => Err(crate::checkpoint::CheckpointError::ModeMismatch),
        }
    }

    /// Emits the shared worker pool's activity since the last boundary as
    /// `pool.tasks` / `pool.busy_ns` counters on the `pool` track, so the
    /// step-timeline shows how much kernel work ran on pool workers.
    ///
    /// Only the step-closing member calls this (the pool counters are
    /// process-global; per-rank emission would double-count).
    fn emit_pool_counters(&mut self) {
        let now = zo_tensor::pool::global().stats();
        let tasks = now.tasks.saturating_sub(self.pool_base.tasks);
        let busy_ns = now.busy_ns.saturating_sub(self.pool_base.busy_ns);
        if tasks > 0 {
            self.tracer.add("pool", "pool.tasks", tasks);
            self.tracer.add("pool", "pool.busy_ns", busy_ns);
        }
        self.pool_base = now;
    }

    /// One micro-batch through the state machine; at window boundaries,
    /// the full transfer → overflow → clip → update → publish sequence.
    ///
    /// Every terminal path — applied, skipped, backward error, fault —
    /// closes the tracer step boundary (on the member that owns it), so
    /// partial spans never leak into the next step's record.
    pub(crate) fn step<M, E, F>(
        &mut self,
        model: &mut M,
        placement: &mut Placement,
        stream: &mut GradStream,
        run_backward: F,
    ) -> Result<StepOutcome, StepError<E>>
    where
        M: Model,
        F: FnOnce(&mut M, &mut GradStream) -> Result<f32, E>,
    {
        let out = self.run(model, placement, stream, run_backward);
        if !matches!(out, Ok(StepOutcome::Accumulating { .. })) && placement.closes_step() {
            self.emit_pool_counters();
            self.tracer.finish_step();
        }
        out
    }

    /// [`StepPipeline::step`] up to its step boundary.
    fn run<M, E, F>(
        &mut self,
        model: &mut M,
        placement: &mut Placement,
        stream: &mut GradStream,
        run_backward: F,
    ) -> Result<StepOutcome, StepError<E>>
    where
        M: Model,
        F: FnOnce(&mut M, &mut GradStream) -> Result<f32, E>,
    {
        if self.micro_in_window == 0 {
            model.zero_grads();
        }
        // Stage-3 placements gather the layers this micro-batch needs
        // before compute starts; a fatal gather fault surfaces before any
        // state mutates, on every rank together (shared collective lane).
        placement.pre_forward(model, &self.p16, &self.tracer)?;
        let fwd = self.tracer.span(placement.track("gpu"), "fwd_bwd");
        let backward = || {
            let loss = run_backward(model, stream);
            drop(fwd);
            loss
        };
        // A DPU's deferred update runs beside the window-closing backward.
        let closing = self.micro_in_window + 1 >= self.grad_accumulation;
        let (loss, ran) = match &mut self.updater {
            Updater::Dpu(dpu) if closing => dpu.beside(&self.master, backward),
            _ => (backward(), false),
        };
        let loss = loss.map_err(|e| {
            // A failed backward leaves partial streamed state;
            // disarm so the next window starts clean.
            stream.armed = false;
            StepError::Backward(e)
        })?;
        self.micro_in_window += 1;
        if self.micro_in_window < self.grad_accumulation {
            return Ok(StepOutcome::Accumulating { loss });
        }
        self.micro_in_window = 0;

        let scale = self.scaler.scale();
        let denom = self.grad_accumulation as f32;
        let mut local_overflow = placement.transfer(
            model,
            &mut self.grads,
            scale,
            denom,
            stream,
            &mut self.stats,
            &self.tracer,
            &mut self.faults,
        )?;
        // Injected NaN gradient bucket: corrupt the host-side copy and let
        // the standard skip-and-rescale machinery absorb it — the fault
        // model's claim is that a flipped payload is *survivable*.
        if self.faults.grad_nan(Site::WireD2h) {
            if let Some(g) = self.grads.first_mut() {
                *g = f32::NAN;
            }
            local_overflow = true;
            self.tracer
                .add(placement.track("engine"), names::FAULT_GRAD_NAN, 1);
        }
        let overflow = placement.combine_overflow(local_overflow);
        let (update_track, update_span) = (
            placement.track("cpu"),
            placement.name("cpu_adam", "partition_update"),
        );

        if !self.scaler.update(overflow) {
            self.stats.steps_skipped += 1;
            self.tracer
                .add(placement.track("engine"), "steps_skipped", 1);
            self.tracer
                .add(placement.track("engine"), names::OPTIM_OVERFLOW, 1);
            // The optimizer never runs on a skipped step, but the step
            // record must still carry its update phase: a zero-length
            // span keeps the row's schema identical to an applied step.
            let now = self.tracer.now_us();
            self.tracer.record_span(update_track, update_span, now, 0);
            placement.on_skip(
                model,
                &self.p16,
                &mut self.stats,
                &self.tracer,
                &mut self.faults,
            )?;
            if self.overflow_storm_limit > 0
                && self.scaler.consecutive_skips() >= self.overflow_storm_limit
            {
                return Err(StepError::OverflowStorm {
                    consecutive: self.scaler.consecutive_skips(),
                });
            }
            return Ok(StepOutcome::SkippedOverflow { loss });
        }

        if self.max_grad_norm > 0.0 {
            placement.clip_grads(&mut self.grads, self.max_grad_norm);
        }

        // The optimizer gate fires *before* any updater state mutates: a
        // fatal `optim.cpu_step` fault leaves master, moments and the
        // scaler exactly as checkpointed. The tiered updater adds its own
        // `tier.read`/`tier.write` gates, also before any tile mutates.
        with_retry(
            &mut self.faults,
            Site::OptimCpuStep,
            &self.tracer,
            update_track,
            || (),
        )?;
        {
            let _update = self.tracer.span(update_track, update_span);
            match &mut self.updater {
                Updater::Reference(state, hp) => {
                    // The recurrence is identical to CpuAdam's, bit for bit.
                    adam_reference_step(hp, state, &mut self.master, &self.grads)
                        .expect("pipeline buffers are sized together");
                    cast_f32_to_f16(&self.master, &mut self.p16);
                }
                Updater::Cpu(opt) => {
                    opt.step_mixed(&mut self.master, &self.grads, &mut self.p16)
                        .expect("pipeline buffers are sized together");
                }
                Updater::Dpu(dpu) => {
                    dpu.step(ran, &mut self.grads, &mut self.master, &mut self.p16)
                }
                Updater::Tiered(tiered) => tiered.step(
                    &self.grads,
                    &mut self.master,
                    &mut self.p16,
                    &mut self.faults,
                )?,
            }
        }
        placement.publish(
            model,
            &self.p16,
            &mut self.stats,
            &self.tracer,
            &mut self.faults,
        )?;
        self.stats.steps_applied += 1;
        self.tracer
            .add(placement.track("engine"), "steps_applied", 1);
        Ok(StepOutcome::Applied { loss })
    }
}
