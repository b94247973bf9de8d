//! The shared pipelined step executor behind both training engines.
//!
//! [`ZeroOffloadEngine`](crate::ZeroOffloadEngine) (single accelerator,
//! full replica) and [`Zero2OffloadEngine`](crate::Zero2OffloadEngine)
//! (ZeRO-2 shards) run the *same* step state machine — accumulation
//! window, loss scaling, gradient transfer, overflow skip, clipping,
//! optimizer update, fp16 copy-back. This module owns that machine once,
//! as [`StepPipeline`], parameterized by a [`Placement`] strategy that
//! supplies only the parts that genuinely differ: how gradients leave the
//! device, how overflow is agreed on, and how updated parameters get back
//! into the model.
//!
//! The executor also realizes the paper's two overlaps (Sec. 4.1, Fig. 6):
//!
//! * **Streamed gradient offload** — [`GradStream`] is a
//!   [`BackwardHook`] that pushes each layer bucket through the
//!   [`GradBucketer`](crate::bucket::GradBucketer) wire path from *inside*
//!   backward, so the `grad_offload` span interleaves with `fwd_bwd`
//!   instead of following it.
//! * **Asynchronous DPU** — [`PipelinedDpu`] drives the
//!   [`AsyncDpu`](crate::AsyncDpu) optimizer thread: after the transfer of
//!   step *i*'s gradients it submits them and returns immediately, so the
//!   CPU Adam step runs while the caller computes step *i+1*'s
//!   forward/backward; the result is collected at step *i+1*'s update
//!   stage. The observable arithmetic is bit-identical to the synchronous
//!   [`DelayedUpdate`](zo_optim::DelayedUpdate).

use zo_fault::{with_retry, FaultError, FaultSession, Site};
use zo_nn::{BackwardHook, Model};
use zo_optim::{adam_reference_step, AdamParams, AdamState, CpuAdamConfig, DynamicLossScaler};
use zo_tensor::{cast_f32_to_f16, F16};
use zo_trace::{names, Tracer};

use crate::bucket::GradBucketer;
use crate::config::ZeroOffloadConfig;
use crate::engine::{EngineStats, StepOutcome};
use crate::overlap::AsyncDpu;
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

/// The stages of the step state machine that differ between the
/// full-replica and the ZeRO-2 sharded placements.
///
/// [`StepPipeline::step`] calls these in a fixed order; implementations
/// must not change step semantics, only *where* data lives and moves.
pub(crate) trait Placement<M: Model> {
    /// Track carrying the `fwd_bwd` span.
    fn fwd_track(&self) -> &str;

    /// Track carrying the `steps_applied` / `steps_skipped` counters.
    fn counter_track(&self) -> &str;

    /// Materialises whatever parameters the upcoming forward/backward
    /// needs. A no-op for placements that keep a full replica; the stage-3
    /// placement runs its gather/release schedule here (gated by the
    /// `collective.param_allgather` / `param.release` fault sites).
    fn pre_forward(
        &mut self,
        _model: &mut M,
        _p16: &[F16],
        _stats: &mut EngineStats,
        _tracer: &Tracer,
    ) -> Result<(), FaultError> {
        Ok(())
    }

    /// Moves this member's gradients off the device into `grads` (sized
    /// for the optimizer input: full model or shard), applying loss-scale
    /// fp16 rounding. Returns the *local* overflow flag. Transfer-layer
    /// fault sites (`wire.d2h`, `collective.reduce_scatter`) are consulted
    /// through `faults`; transients are retried internally, so an `Err`
    /// is always fatal or retry-exhausted.
    #[allow(clippy::too_many_arguments)]
    fn transfer(
        &mut self,
        model: &mut M,
        grads: &mut [f32],
        scale: f32,
        denom: f32,
        stream: &mut GradStream,
        stats: &mut EngineStats,
        tracer: &Tracer,
        faults: &mut FaultSession,
    ) -> Result<bool, FaultError>;

    /// Folds the local overflow flag across the group (collective for
    /// multi-rank placements; identity for a single replica).
    fn combine_overflow(&mut self, local: bool) -> bool {
        local
    }

    /// Gradient clipping. The replica clips the full gradient; shards
    /// skip it (a faithful global norm would need another collective).
    fn clip_grads(&mut self, grads: &mut [f32], max_norm: f64);

    /// `(track, name)` of the optimizer-update span.
    fn update_span(&self) -> (&str, &str);

    /// Publishes the fp16 parameters back into the model — the h2d
    /// parameter copy for a replica, all-gather for a shard. Gated by the
    /// `wire.h2d` / `collective.allgather` fault sites.
    fn publish(
        &mut self,
        model: &mut M,
        p16: &[F16],
        stats: &mut EngineStats,
        tracer: &Tracer,
        faults: &mut FaultSession,
    ) -> Result<(), FaultError>;

    /// Runs on an overflow-skipped step, after counters. Shard placements
    /// must still execute their collectives to keep ranks in lock-step
    /// (which is also why this can fault).
    fn on_skip(
        &mut self,
        model: &mut M,
        p16: &[F16],
        stats: &mut EngineStats,
        tracer: &Tracer,
    ) -> Result<(), FaultError>;

    /// Whether this member closes the tracer step boundary (rank 0 or
    /// the single replica).
    fn closes_step(&self) -> bool {
        true
    }
}

/// The optimizer behind the update stage.
pub(crate) enum Updater {
    /// Non-offload reference path (scalar Adam, same recurrence).
    Reference(AdamState, AdamParams),
    /// The offloaded CPU-Adam, synchronous.
    Cpu(zo_optim::CpuAdam),
    /// CPU-Adam on the optimizer thread, one step delayed (async DPU).
    Async(PipelinedDpu),
    /// The memory-tier streaming optimizer: fp32 states live on a
    /// [`MemoryTier`](crate::tier::MemoryTier) and the Adam update is
    /// tiled through a bounded DRAM scratch. Bit-identical to [`Cpu`].
    ///
    /// [`Cpu`]: Updater::Cpu
    Tiered(TieredAdam),
}

/// Builds the host-side optimizer for an offloaded engine (single
/// replica, ZeRO-2 shard or ZeRO-3 shard) from the config's offload
/// knobs.
///
/// Precedence: `dpu_warmup` wins over `optimizer_tier` — the DPU's
/// optimizer thread owns a DRAM-resident copy of the states by design,
/// so a tier setting is ignored while DPU is on. Otherwise
/// [`TierKind::Dram`] is the classic resident [`CpuAdam`], and
/// [`TierKind::Nvme`] streams the states through a file-backed
/// [`NvmeTier`] under the configured DRAM scratch budget.
///
/// [`CpuAdam`]: zo_optim::CpuAdam
pub(crate) fn build_offload_updater(
    cfg: &ZeroOffloadConfig,
    master: &[f32],
    tracer: &Tracer,
    track: &str,
) -> Updater {
    let opt_cfg = CpuAdamConfig {
        hp: cfg.adam,
        num_threads: cfg.resolved_optimizer_threads(),
        tile_width: cfg.tile_width,
    };
    if let Some(warmup) = cfg.dpu_warmup {
        return Updater::Async(PipelinedDpu::spawn(
            master.to_vec(),
            opt_cfg,
            warmup,
            tracer.clone(),
            track,
        ));
    }
    match cfg.optimizer_tier {
        TierKind::Dram => Updater::Cpu(zo_optim::CpuAdam::new(opt_cfg, master.len())),
        TierKind::Nvme => Updater::Tiered(TieredAdam::new(
            Box::new(NvmeTier::new().expect("create NVMe spill directory")),
            cfg.adam,
            master,
            cfg.tier_scratch_bytes,
            tracer.clone(),
            track,
        )),
    }
}

/// Drives the [`AsyncDpu`] optimizer thread with the delayed-parameter-
/// update schedule, bit-identical to the synchronous
/// [`DelayedUpdate`](zo_optim::DelayedUpdate):
///
/// * steps `1..=warmup`: submit and wait inline (no delay, no staleness);
/// * first post-warmup step: stash the gradients, leave them in flight,
///   and *do not* touch the parameters (the transition step);
/// * every later step: collect the in-flight update (computed during this
///   step's forward/backward — the Fig. 6 overlap), then put the current
///   gradients in flight.
///
/// The struct keeps caller-side mirrors of the worker's Adam state that
/// exclude any in-flight update, so a checkpoint taken mid-flight is
/// identical to one taken by the synchronous path: master and moments as
/// of the last *collected* update, plus the pending gradient.
pub(crate) struct PipelinedDpu {
    dpu: AsyncDpu,
    cfg: CpuAdamConfig,
    tracer: Tracer,
    track: String,
    warmup: u64,
    steps_seen: u64,
    pending: Option<Vec<f32>>,
    /// Mirror of the worker's Adam state excluding in-flight work.
    state: AdamState,
}

impl PipelinedDpu {
    /// Spawns the optimizer thread owning a copy of `master`; the caller
    /// keeps its own copy as the checkpoint-consistent mirror.
    pub(crate) fn spawn(
        master: Vec<f32>,
        cfg: CpuAdamConfig,
        warmup: u64,
        tracer: Tracer,
        track: &str,
    ) -> PipelinedDpu {
        let n = master.len();
        PipelinedDpu {
            dpu: AsyncDpu::spawn_on_track(master, cfg, None, tracer.clone(), track),
            cfg,
            tracer,
            track: track.to_string(),
            warmup,
            steps_seen: 0,
            pending: None,
            state: AdamState::new(n),
        }
    }

    /// One DPU step at the pipeline's update stage. `master` and `p16`
    /// are the engine-side mirrors; on steps that apply an update they
    /// are replaced with the worker's result.
    pub(crate) fn step(&mut self, grads: &[f32], master: &mut Vec<f32>, p16: &mut Vec<F16>) {
        self.steps_seen += 1;
        if self.steps_seen <= self.warmup {
            // Warm-up: synchronous semantics — submit and wait inline.
            self.dpu.submit(grads.to_vec());
            self.collect(master, p16);
            return;
        }
        if self.pending.is_some() {
            // Steady state: the previous step's update ran on the worker
            // while this step's forward/backward executed; collect it now.
            self.collect(master, p16);
        }
        // Put this step's gradients in flight; they apply one step later.
        self.pending = Some(grads.to_vec());
        self.dpu.submit(grads.to_vec());
    }

    /// Blocks on the in-flight update and installs it into the mirrors.
    fn collect(&mut self, master: &mut Vec<f32>, p16: &mut Vec<F16>) {
        let done = self.dpu.wait_update();
        *master = done.master;
        *p16 = done.p16;
        self.state = done.state;
        self.pending = None;
    }

    /// Adam-state mirror (excludes in-flight work) for checkpointing.
    pub(crate) fn state(&self) -> &AdamState {
        &self.state
    }

    /// Steps observed so far (the DPU schedule's clock).
    pub(crate) fn steps_seen(&self) -> u64 {
        self.steps_seen
    }

    /// The stashed in-flight gradient, if any.
    pub(crate) fn pending(&self) -> Option<&[f32]> {
        self.pending.as_deref()
    }

    /// Restores from a checkpoint: tears down the old worker (draining
    /// any in-flight update) and spawns a fresh one owning the restored
    /// master and moments; a restored pending gradient is re-submitted so
    /// the schedule resumes exactly where it left off.
    pub(crate) fn restore(
        &mut self,
        master: &[f32],
        state: &AdamState,
        steps_seen: u64,
        pending: Option<Vec<f32>>,
    ) {
        self.dpu = AsyncDpu::spawn_on_track(
            master.to_vec(),
            self.cfg,
            Some(state.clone()),
            self.tracer.clone(),
            &self.track,
        );
        self.state = state.clone();
        self.steps_seen = steps_seen;
        self.pending = pending;
        if let Some(p) = &self.pending {
            self.dpu.submit(p.clone());
        }
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
    /// A stream that never fires (placements that cannot stream).
    pub(crate) fn inert() -> GradStream {
        GradStream::new(Tracer::disabled(), Vec::new(), 2)
    }

    /// A disarmed stream for a model with the given layer ranges.
    pub(crate) fn new(
        tracer: Tracer,
        ranges: Vec<core::ops::Range<usize>>,
        bucket_bytes: usize,
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
            faults: FaultSession::disabled(),
            poisoned: false,
        }
    }

    /// Installs the stream's fault session (lane `STREAM`).
    pub(crate) fn set_faults(&mut self, faults: FaultSession) {
        self.faults = faults;
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

/// The step state machine shared by both engines.
///
/// Owns everything placement-independent: the fp32 master copy (full or
/// shard), its fp16 mirror, the optimizer-input gradient buffer, the
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
    ///
    /// For the async DPU this reads the caller-side mirrors, which exclude
    /// any in-flight update — the snapshot is identical to one taken by a
    /// synchronous delayed update, without draining the worker.
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
        // Order matters: the Async/Tiered updaters re-mirror from the
        // pipeline master, so it must already hold the checkpointed copy.
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
            Updater::Async(dpu) => (
                dpu.state().clone(),
                Some(crate::checkpoint::DpuCheckpoint {
                    steps_seen: dpu.steps_seen(),
                    pending: dpu.pending().map(|p| p.to_vec()),
                }),
            ),
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
            (Updater::Async(pipelined), Some(d)) => {
                if optim.len() != self.master.len() {
                    return Err(mismatch(optim.len(), self.master.len()));
                }
                pipelined.restore(&self.master, optim, d.steps_seen, d.pending.clone());
                Ok(())
            }
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

    /// Closes the tracer step boundary if this member owns it. Called on
    /// *every* terminal path — applied, skipped, backward error, fault —
    /// so partial spans never leak into the next step's record.
    fn close_boundary(&mut self, closes: bool) {
        if closes {
            self.emit_pool_counters();
            self.tracer.finish_step();
        }
    }

    /// One micro-batch through the state machine; at window boundaries,
    /// the full transfer → overflow → clip → update → publish sequence.
    pub(crate) fn step<M, P, E, F>(
        &mut self,
        model: &mut M,
        placement: &mut P,
        stream: &mut GradStream,
        run_backward: F,
    ) -> Result<StepOutcome, StepError<E>>
    where
        M: Model,
        P: Placement<M>,
        F: FnOnce(&mut M, &mut GradStream) -> Result<f32, E>,
    {
        if self.micro_in_window == 0 {
            model.zero_grads();
        }
        // Stage-3 placements gather the layers this micro-batch needs
        // before compute starts; a fatal gather fault surfaces before any
        // state mutates, on every rank together (shared collective lane).
        if let Err(f) = placement.pre_forward(model, &self.p16, &mut self.stats, &self.tracer) {
            let closes = placement.closes_step();
            self.close_boundary(closes);
            return Err(StepError::Fault(f));
        }
        let loss = {
            let _fwd = self.tracer.span(placement.fwd_track(), "fwd_bwd");
            match run_backward(model, stream) {
                Ok(loss) => loss,
                Err(e) => {
                    // A failed backward leaves partial streamed state;
                    // disarm so the next window starts clean.
                    stream.armed = false;
                    let closes = placement.closes_step();
                    drop(_fwd);
                    self.close_boundary(closes);
                    return Err(StepError::Backward(e));
                }
            }
        };
        self.micro_in_window += 1;
        if self.micro_in_window < self.grad_accumulation {
            return Ok(StepOutcome::Accumulating { loss });
        }
        self.micro_in_window = 0;

        let scale = self.scaler.scale();
        let denom = self.grad_accumulation as f32;
        let mut local_overflow = match placement.transfer(
            model,
            &mut self.grads,
            scale,
            denom,
            stream,
            &mut self.stats,
            &self.tracer,
            &mut self.faults,
        ) {
            Ok(flag) => flag,
            Err(f) => {
                let closes = placement.closes_step();
                self.close_boundary(closes);
                return Err(StepError::Fault(f));
            }
        };
        // Injected NaN gradient bucket: corrupt the host-side copy and let
        // the standard skip-and-rescale machinery absorb it — the fault
        // model's claim is that a flipped payload is *survivable*.
        if self.faults.grad_nan(Site::WireD2h) {
            if let Some(g) = self.grads.first_mut() {
                *g = f32::NAN;
            }
            local_overflow = true;
            self.tracer
                .add(placement.counter_track(), names::FAULT_GRAD_NAN, 1);
        }
        let overflow = placement.combine_overflow(local_overflow);

        if !self.scaler.update(overflow) {
            self.stats.steps_skipped += 1;
            self.tracer
                .add(placement.counter_track(), "steps_skipped", 1);
            self.tracer
                .add(placement.counter_track(), names::OPTIM_OVERFLOW, 1);
            // The optimizer never runs on a skipped step, but the step
            // record must still carry its update phase: a zero-length
            // span keeps the row's schema identical to an applied step.
            let (utrack, uname) = placement.update_span();
            let now = self.tracer.now_us();
            self.tracer.record_span(utrack, uname, now, 0);
            if let Err(f) = placement.on_skip(model, &self.p16, &mut self.stats, &self.tracer) {
                let closes = placement.closes_step();
                self.close_boundary(closes);
                return Err(StepError::Fault(f));
            }
            let closes = placement.closes_step();
            self.close_boundary(closes);
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

        let update_result = {
            let (track, name) = placement.update_span();
            // The optimizer gate fires *before* any updater state mutates:
            // a fatal `optim.cpu_step` fault leaves master, moments and
            // the scaler exactly as checkpointed. The tiered updater adds
            // its own `tier.read`/`tier.write` gates, also before any
            // tile mutates.
            if let Err(f) = with_retry(
                &mut self.faults,
                Site::OptimCpuStep,
                &self.tracer,
                track,
                || (),
            ) {
                let closes = placement.closes_step();
                self.close_boundary(closes);
                return Err(StepError::Fault(f));
            }
            let _update = self.tracer.span(track, name);
            match &mut self.updater {
                Updater::Reference(state, hp) => {
                    // The recurrence is identical to CpuAdam's, bit for bit.
                    adam_reference_step(hp, state, &mut self.master, &self.grads)
                        .expect("pipeline buffers are sized together");
                    cast_f32_to_f16(&self.master, &mut self.p16);
                    Ok(())
                }
                Updater::Cpu(opt) => {
                    opt.step_mixed(&mut self.master, &self.grads, &mut self.p16)
                        .expect("pipeline buffers are sized together");
                    Ok(())
                }
                Updater::Async(dpu) => {
                    dpu.step(&self.grads, &mut self.master, &mut self.p16);
                    Ok(())
                }
                Updater::Tiered(tiered) => tiered.step(
                    &self.grads,
                    &mut self.master,
                    &mut self.p16,
                    &mut self.faults,
                ),
            }
        };
        if let Err(e) = update_result {
            let closes = placement.closes_step();
            self.close_boundary(closes);
            return Err(e.into());
        }
        if let Err(f) = placement.publish(
            model,
            &self.p16,
            &mut self.stats,
            &self.tracer,
            &mut self.faults,
        ) {
            let closes = placement.closes_step();
            self.close_boundary(closes);
            return Err(StepError::Fault(f));
        }
        self.stats.steps_applied += 1;
        self.tracer
            .add(placement.counter_track(), "steps_applied", 1);
        let closes = placement.closes_step();
        self.close_boundary(closes);
        Ok(StepOutcome::Applied { loss })
    }
}
