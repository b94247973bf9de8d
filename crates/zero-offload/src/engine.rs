//! The real-execution ZeRO-Offload engine and its one data-parallel
//! placement.
//!
//! Runs actual training with the paper's data placement faithfully
//! emulated: the model computes forward/backward on **fp16-rounded
//! parameters** (what the GPU would hold), gradients leave the "device" by
//! being **rounded through fp16** (the PCIe transfer), and the fp32 master
//! parameters, momentum and variance live in a separate host-side buffer
//! updated by [`CpuAdam`](zo_optim::CpuAdam) — optionally one step
//! delayed (DPU), in which case the update runs on a scoped thread beside
//! the next step's forward/backward.
//!
//! The step state machine itself lives in [`crate::pipeline`]; this module
//! supplies the one [`Placement`] it runs over and the public engine type.
//! The paper's single-GPU schedule (Sec. 4.1) is the one-rank case of its
//! ZeRO-2 schedule (Sec. 4.2): [`ZeroOffloadEngine::new`] places the model
//! over a one-rank [`Communicator`], whose collectives are never entered,
//! and the ZeRO-2/3 rank engines ([`crate::Zero2OffloadEngine`],
//! [`crate::Zero3OffloadEngine`]) wrap the same engine over a real group.
//! The engine is generic over [`Model`], so the same code trains the GPT
//! LM of Fig. 12 and the classifier of Fig. 13.

use core::ops::Range;

use zo_collectives::{partition_range, Communicator};
use zo_fault::{lane, with_retry, FaultError, FaultSession, Site};
use zo_nn::Model;
use zo_optim::{clip, DynamicLossScaler};
use zo_tensor::{cast_f32_to_f16, F16};
use zo_trace::Tracer;

use crate::bucket::{scatter_frame, GradBucketer};
use crate::checkpoint::{CheckpointError, TrainingCheckpoint};
use crate::config::{resolve_fault_plan, resolve_tracer, ZeroOffloadConfig};
use crate::pipeline::{build_updater, GradStream, StepError, StepPipeline};
use crate::wire::decode_frame_traced;
use crate::zero3::{Residency, Zero3Cache, Zero3Plan};

/// What a call to [`ZeroOffloadEngine::step`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepOutcome {
    /// A micro-batch was accumulated; no optimizer activity yet.
    Accumulating {
        /// Micro-batch loss.
        loss: f32,
    },
    /// The optimizer step ran (possibly DPU-delayed by one step).
    Applied {
        /// Micro-batch loss.
        loss: f32,
    },
    /// fp16 gradient overflow: the loss scale backed off, step skipped.
    SkippedOverflow {
        /// Micro-batch loss.
        loss: f32,
    },
}

impl StepOutcome {
    /// The micro-batch loss regardless of outcome.
    pub fn loss(&self) -> f32 {
        match self {
            StepOutcome::Accumulating { loss }
            | StepOutcome::Applied { loss }
            | StepOutcome::SkippedOverflow { loss } => *loss,
        }
    }
}

/// Cumulative engine counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Optimizer steps applied.
    pub steps_applied: u64,
    /// Steps skipped due to fp16 overflow.
    pub steps_skipped: u64,
    /// Simulated device→host traffic (fp16 gradient payload), bytes.
    pub d2h_bytes: u64,
    /// Simulated host→device traffic (fp16 parameters), bytes.
    pub h2d_bytes: u64,
    /// On-the-wire gradient bytes including frame headers.
    pub wire_bytes: u64,
    /// Gradient frames shipped.
    pub frames: u64,
}

/// Which engine stage a placement serves. The stage fixes the trace
/// names and whether parameters are partitioned; the world size alone
/// decides whether collectives run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// The single-accelerator engine (always world 1).
    Single,
    /// ZeRO-2: every rank keeps a full fp16 replica.
    Zero2,
    /// ZeRO-3: every rank keeps its fp16 shard plus what the gather/release
    /// schedule materialises.
    Zero3,
}

/// Widens `p16` exactly into the reusable buffer `out`.
fn widen(p16: &[F16], out: &mut Vec<f32>) {
    out.resize(p16.len(), 0.0);
    F16::to_f32_slice(p16, out);
}

/// The one data-parallel placement: where one rank's parameters,
/// gradients and optimizer state live and how they move between device,
/// link and host.
///
/// The rank owns the contiguous [`partition_range`] shard of the flat
/// parameters — all of them at world 1. Gradients are reduce-scattered to
/// the owner (at world > 1), cross the link as checksummed fp16 frames,
/// and the owner's updated fp16 shard comes back to the model: over the
/// link at world 1, by all-gather otherwise, or as the owned slice of a
/// ZeRO-3 gather/release schedule when `residency` is set.
pub(crate) struct Placement {
    comm: Communicator,
    /// Flat parameter range this rank owns.
    own: Range<usize>,
    /// Total parameter count.
    total: usize,
    /// Flat offset ranges of each layer bucket, in canonical order.
    layer_ranges: Vec<Range<usize>>,
    bucket_bytes: usize,
    /// The sharded ranks' one trace track, `rank{r}`; `None` for the
    /// single engine, which writes the paper's device/link/host tracks.
    rank_track: Option<String>,
    /// Full-model gradient staging for the reduce-scatter; empty at
    /// world 1, where gradients are copied straight into the optimizer
    /// input.
    full_grads: Vec<f32>,
    /// fp32 widening of the owned fp16 parameters for the collectives and
    /// the ZeRO-3 schedule, which move f32; empty for the one-rank replica,
    /// whose model widens the fp16 parameters itself.
    widened: Vec<f32>,
    /// ZeRO-3's gather/release schedule; `None` keeps a full replica.
    residency: Option<Residency>,
}

impl Placement {
    /// The track the single engine calls `single` (`gpu`, `pcie`, `cpu`
    /// or `engine`), or this rank's track.
    pub(crate) fn track<'a>(&'a self, single: &'a str) -> &'a str {
        self.rank_track.as_deref().unwrap_or(single)
    }

    /// A span name: the single engine's, or the sharded ranks'.
    pub(crate) fn name(&self, single: &'static str, sharded: &'static str) -> &'static str {
        if self.rank_track.is_none() {
            single
        } else {
            sharded
        }
    }

    /// Whether this rank closes the tracer step boundary. `StepMetrics`
    /// sums counter deltas over tracks, so rank 0's row covers every rank.
    pub(crate) fn closes_step(&self) -> bool {
        self.comm.rank() == 0
    }

    /// Materialises what the upcoming forward/backward needs: the ZeRO-3
    /// gather/release schedule (gated by the `collective.param_allgather`
    /// and `param.release` sites); nothing for a full replica.
    pub(crate) fn pre_forward<M: Model>(
        &mut self,
        model: &mut M,
        p16: &[F16],
        tracer: &Tracer,
    ) -> Result<(), FaultError> {
        let Some(residency) = &mut self.residency else {
            return Ok(());
        };
        widen(p16, &mut self.widened);
        residency.micro_batch(&self.comm, model, &self.widened, tracer)
    }

    /// Moves this rank's gradients off the device into `grads` (its owned
    /// shard), applying loss-scale fp16 rounding. Returns the *local*
    /// overflow flag; an `Err` is a fatal or retry-exhausted fault.
    ///
    /// A streamed window (world 1 only) already crossed the wire from
    /// inside backward; only the tail remains. Otherwise the gradients are
    /// copied out — reduce-scattered in f32 at world > 1, so the rank
    /// receives its averaged shard — and each layer bucket's owned piece
    /// is pushed through the bucketer in backward order (head first,
    /// blocks reversed, embeddings last: the order they become ready in
    /// Sec. 4.1), framed, verified and widened·unscaled into `grads`.
    ///
    /// Every layer bucket passes the `wire.d2h` gate before its push,
    /// whether this rank owns a piece of it or not, so all ranks draw the
    /// gate equally often and — on the shared engine lane — agree on every
    /// decision.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn transfer<M: Model>(
        &mut self,
        model: &mut M,
        grads: &mut [f32],
        scale: f32,
        denom: f32,
        stream: &mut GradStream,
        stats: &mut EngineStats,
        tracer: &Tracer,
        faults: &mut FaultSession,
    ) -> Result<bool, FaultError> {
        if let Some(start) = stream.take_streamed() {
            let mut bucketer = core::mem::replace(&mut stream.bucketer, GradBucketer::new(2));
            self.finish_offload(&mut bucketer, grads, scale, stats, tracer);
            let end = tracer.now_us();
            tracer.record_span(
                self.track("pcie"),
                self.name("grad_offload", "reduce_scatter"),
                start,
                end.saturating_sub(start),
            );
            return Ok(stream.overflow);
        }
        // A poisoned stream means the mid-backward transfer died; this
        // post-hoc pass is the *recovery* retransmission after backward
        // completed, so it bypasses the wire gate.
        let mut gate = (!stream.take_poisoned()).then_some(faults);
        let _transfer = tracer.span(
            self.track("pcie"),
            self.name("grad_offload", "reduce_scatter"),
        );
        if self.comm.world() > 1 {
            model.copy_grads_to(&mut self.full_grads);
            let shard = self.comm.try_reduce_scatter_mean(&self.full_grads)?;
            grads.copy_from_slice(&shard);
        } else {
            model.copy_grads_to(grads);
        }
        let (lo, hi) = (self.own.start, self.own.end);
        let mut overflow = false;
        let mut bucketer =
            GradBucketer::traced(self.bucket_bytes, tracer.clone(), self.track("pcie"));
        for range in self.layer_ranges.iter().rev() {
            if let Some(session) = gate.as_deref_mut() {
                with_retry(session, Site::WireD2h, tracer, self.track("pcie"), || ())?;
            }
            let piece = range.start.clamp(lo, hi) - lo..range.end.clamp(lo, hi) - lo;
            if !piece.is_empty() {
                overflow |= bucketer.push_grads(piece.start as u64, &grads[piece], denom, scale);
            }
        }
        self.finish_offload(&mut bucketer, grads, scale, stats, tracer);
        Ok(overflow)
    }

    /// Closes the bucketer, validates each staged frame and widens·unscales
    /// it straight into its span of `grads` (split over the shared pool,
    /// once the frame's checksum has verified), and updates traffic
    /// counters and memory high-water marks — the tail of the gradient
    /// offload shared by the streamed and post-hoc transfers.
    fn finish_offload(
        &self,
        bucketer: &mut GradBucketer,
        grads: &mut [f32],
        scale: f32,
        stats: &mut EngineStats,
        tracer: &Tracer,
    ) {
        bucketer.flush();
        let unscale = Some(1.0 / scale);
        for raw in bucketer.take_frames() {
            let frame = decode_frame_traced(tracer, self.track("pcie"), raw)
                .expect("loopback frames are well-formed");
            scatter_frame(&frame, grads, unscale);
        }
        stats.d2h_bytes += bucketer.payload_bytes();
        stats.wire_bytes += bucketer.wire_bytes();
        stats.frames += u64::from(bucketer.frames_emitted());
        tracer.add(self.track("pcie"), "d2h_bytes", bucketer.payload_bytes());
        // Memory high-water marks: fp16 parameters + the transient staging
        // bucket on the device; master + Adam moments + fp32 gradient buffer
        // on the host.
        let n = grads.len() as f64;
        tracer.gauge_max("gpu_hwm_bytes", 2.0 * n + bucketer.wire_bytes() as f64);
        tracer.gauge_max("cpu_hwm_bytes", 16.0 * n);
    }

    /// Folds the local overflow flag across the group, so every rank
    /// skips (or applies) the same step.
    pub(crate) fn combine_overflow(&self, local: bool) -> bool {
        self.comm.all_reduce_sum_f64(f64::from(u8::from(local))) > 0.0
    }

    /// Global-norm clipping over the shards: each rank's f64 sum of
    /// squares, added in rank order by the scalar all-reduce, then one
    /// factor on every rank — at world 1 exactly
    /// [`clip::clip_global_norm`].
    pub(crate) fn clip_grads(&self, grads: &mut [f32], max_norm: f64) {
        let norm = self
            .comm
            .all_reduce_sum_f64(clip::sum_squares(grads))
            .sqrt();
        clip::clip_to_norm(&mut [grads], norm, max_norm);
    }

    /// Publishes the owned fp16 parameters back into the model. At world 1
    /// they cross the link behind the `wire.h2d` gate; at world > 1 the
    /// all-gather is the copy-back (gated by `collective.allgather` on the
    /// communicator's shared session); with ZeRO-3 residency the owned
    /// slice is loaded and the cache refreshed from the new shards.
    pub(crate) fn publish<M: Model>(
        &mut self,
        model: &mut M,
        p16: &[F16],
        stats: &mut EngineStats,
        tracer: &Tracer,
        faults: &mut FaultSession,
    ) -> Result<(), FaultError> {
        if self.residency.is_some() {
            widen(p16, &mut self.widened);
            model.load_param_range(self.own.clone(), &self.widened);
        } else {
            let _copy = tracer.span(
                self.track("pcie"),
                self.name("param_copy_back", "all_gather"),
            );
            if self.comm.world() == 1 {
                // The h2d gate sits *before* the model sees the new
                // parameters: a fatal fault here is the "killed between DPU
                // update and copy-back" crash point the recovery tests
                // exercise.
                with_retry(faults, Site::WireH2d, tracer, self.track("pcie"), || ())?;
                model.load_params_f16(p16);
            } else {
                widen(p16, &mut self.widened);
                let full = self.comm.try_all_gather(&self.widened, self.total)?;
                model.load_params_from(&full);
            }
        }
        let h2d = 2 * p16.len() as u64;
        stats.h2d_bytes += h2d;
        tracer.add(self.track("pcie"), "h2d_bytes", h2d);
        match &mut self.residency {
            Some(residency) => residency.refresh(&self.comm, model, &self.widened, tracer),
            None => Ok(()),
        }
    }

    /// The step boundary of an overflow-skipped step. Parameters are
    /// unchanged, so a one-rank replica has nothing to publish; ranks
    /// re-run the copy-back collectives to stay in lock-step, and ZeRO-3
    /// re-establishes its between-steps residency.
    pub(crate) fn on_skip<M: Model>(
        &mut self,
        model: &mut M,
        p16: &[F16],
        stats: &mut EngineStats,
        tracer: &Tracer,
        faults: &mut FaultSession,
    ) -> Result<(), FaultError> {
        if self.comm.world() == 1 && self.residency.is_none() {
            return Ok(());
        }
        self.publish(model, p16, stats, tracer, faults)
    }

    /// Loads the model's device view of the owned fp16 parameters at
    /// construction and after a restore: the full replica at world 1
    /// (untraced — no step is running), the all-gathered replica at
    /// world > 1 (a collective: every rank must call it), and with ZeRO-3
    /// residency a cold cache and a model holding only the owned shard.
    fn reload<M: Model>(
        &mut self,
        model: &mut M,
        p16: &[F16],
        stats: &mut EngineStats,
        tracer: &Tracer,
        faults: &mut FaultSession,
    ) -> Result<(), FaultError> {
        if self.comm.world() > 1 && self.residency.is_none() {
            // The all-gather never draws the step's own session.
            return self.publish(model, p16, stats, tracer, faults);
        }
        match &mut self.residency {
            Some(residency) => {
                widen(p16, &mut self.widened);
                residency.reset(model, &self.widened);
            }
            None => model.load_params_f16(p16),
        }
        Ok(())
    }
}

/// A training engine applying the ZeRO-Offload schedule. Built with
/// [`ZeroOffloadEngine::new`] it is the single-accelerator engine; the
/// ZeRO-2/3 rank engines each wrap one over their rank's communicator.
pub struct ZeroOffloadEngine<M: Model> {
    model: M,
    /// The step pipeline (checkpoint state lives there).
    pub(crate) pipe: StepPipeline,
    placement: Placement,
    stream: GradStream,
}

impl<M: Model> ZeroOffloadEngine<M> {
    /// Wraps `model` for training under `cfg`.
    ///
    /// The model's initial parameters become the fp32 master copy; the
    /// model itself is immediately switched to their fp16 rounding, as a
    /// GPU would hold them.
    ///
    /// # Panics
    ///
    /// Panics if [`ZeroOffloadConfig::validate`] refuses `cfg`.
    pub fn new(model: M, cfg: ZeroOffloadConfig) -> ZeroOffloadEngine<M> {
        let comm = Communicator::group(1).pop().expect("a one-rank group");
        ZeroOffloadEngine::on_rank(model, cfg, comm, Stage::Single)
    }

    /// Builds `comm`'s rank of a `stage` group. The rank's shard of the
    /// model's initial parameters becomes its fp32 master copy, and the
    /// model is switched to the fp16 view the stage keeps on the device.
    /// At world > 1 every rank must construct concurrently, from
    /// identically initialized models (ZeRO-2 all-gathers here).
    ///
    /// # Panics
    ///
    /// Panics if [`ZeroOffloadConfig::validate`] refuses `cfg`.
    pub(crate) fn on_rank(
        mut model: M,
        cfg: ZeroOffloadConfig,
        comm: Communicator,
        stage: Stage,
    ) -> ZeroOffloadEngine<M> {
        if let Err(why) = cfg.validate() {
            panic!("invalid ZeroOffloadConfig: {why}");
        }
        let n = model.num_params();
        let (world, rank) = (comm.world(), comm.rank());
        let own = partition_range(n, world, rank);
        let layer_ranges = model.layer_ranges();
        let mut master = vec![0.0f32; n];
        model.copy_params_to(&mut master);
        if world > 1 {
            master = master[own.clone()].to_vec();
        }
        let mut p16 = vec![F16::ZERO; own.len()];
        cast_f32_to_f16(&master, &mut p16);
        let tracer = resolve_tracer(cfg.tracer);
        let rank_track = (stage != Stage::Single).then(|| format!("rank{rank}"));

        let track = match &rank_track {
            Some(rank) => format!("{rank}_optimizer"),
            None => "optimizer".into(),
        };
        let updater = build_updater(&cfg, &master, &tracer, &track);
        let plan = resolve_fault_plan(cfg.faults);
        let stream = GradStream::new(
            tracer.clone(),
            layer_ranges.clone(),
            cfg.bucket_bytes,
            FaultSession::new(plan.clone(), lane::STREAM),
        );
        let residency = (stage == Stage::Zero3).then(|| {
            let plan = Zero3Plan::new(
                layer_ranges.clone(),
                n,
                world,
                rank,
                cfg.prefetch_layers,
                cfg.persistent_param_bytes,
            );
            Residency::new(plan, rank)
        });
        let placement = Placement {
            comm,
            total: n,
            layer_ranges,
            bucket_bytes: cfg.bucket_bytes,
            rank_track,
            full_grads: if world > 1 { vec![0.0; n] } else { Vec::new() },
            widened: Vec::new(),
            residency,
            own,
        };
        let pipe = StepPipeline {
            grads: vec![0.0f32; master.len()],
            master,
            p16,
            updater,
            scaler: DynamicLossScaler::new(cfg.loss_scale),
            micro_in_window: 0,
            stats: EngineStats::default(),
            tracer,
            grad_accumulation: cfg.grad_accumulation,
            max_grad_norm: cfg.max_grad_norm,
            pool_base: zo_tensor::pool::global().stats(),
            // All ranks share lane ENGINE (no rank offset): lock-step SPMD
            // execution visits every site equally often in the same order,
            // so identical lanes make identical per-rank fault decisions —
            // a fatal `wire.d2h` or `optim.cpu_step` fault errors on
            // *every* rank before the next collective, never deadlocking a
            // barrier.
            faults: FaultSession::new(plan.clone(), lane::ENGINE),
            overflow_storm_limit: cfg.overflow_storm_limit,
        };
        let mut engine = ZeroOffloadEngine {
            model,
            pipe,
            placement,
            stream,
        };
        // The communicator's fault gate is installed only *after* the
        // initial load — construction itself is not a fault site.
        engine
            .sync_model_params()
            .expect("the initial load runs before fault gates are installed");
        if plan.is_enabled() {
            engine.placement.comm.install_faults(
                FaultSession::new(plan, lane::COLLECTIVE),
                engine.pipe.tracer.clone(),
                engine.placement.track("pcie"),
            );
        }
        engine
    }

    /// The engine's tracer (disabled unless the config installed one).
    pub fn tracer(&self) -> &zo_trace::Tracer {
        &self.pipe.tracer
    }

    /// The wrapped model (parameters are the fp16 view).
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the wrapped model (for evaluation passes).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &EngineStats {
        &self.pipe.stats
    }

    /// Current loss scale.
    pub fn loss_scale(&self) -> f32 {
        self.pipe.scaler.scale()
    }

    /// The fp32 master parameters (host side).
    pub fn master_params(&self) -> &[f32] {
        &self.pipe.master
    }

    /// Loads the model's device view of the fp16 master parameters.
    pub(crate) fn sync_model_params(&mut self) -> Result<(), FaultError> {
        let pipe = &mut self.pipe;
        self.placement.reload(
            &mut self.model,
            &pipe.p16,
            &mut pipe.stats,
            &pipe.tracer,
            &mut pipe.faults,
        )
    }

    /// Runs one micro-batch and, at window boundaries, the offloaded
    /// optimizer step, transferring gradients post hoc (after backward
    /// completes).
    ///
    /// `run_backward` must perform forward + backward on the model,
    /// accumulating gradients, and return the loss. The engine zeroes
    /// gradients at the start of each accumulation window.
    ///
    /// Errors are typed ([`StepError`]): the model's own backward error,
    /// a non-recoverable fault at one of the offload path's injection
    /// sites, or an overflow storm. Transient faults are retried inside
    /// the step and never surface here.
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

    /// Like [`ZeroOffloadEngine::step`], but streams gradients through the
    /// wire path from *inside* backward — paper Sec. 4.1's overlapped
    /// gradient offload.
    ///
    /// `run_backward` receives the armed [`GradStream`] and must hand it to
    /// the model's hooked backward (e.g.
    /// [`GptModel::train_step_hooked`](zo_nn::GptModel::train_step_hooked)),
    /// which feeds each layer's gradients to the stream as soon as that
    /// layer's backward completes. The `grad_offload` span then overlaps
    /// the same step's `fwd_bwd` span. Numerics are bit-identical to the
    /// post-hoc path: the same values cross the wire in the same order
    /// with the same frame boundaries, only earlier.
    ///
    /// The stream is armed only for the window-closing micro-batch (with
    /// gradient accumulation, earlier micro-batches hold incomplete sums);
    /// if `run_backward` never feeds the stream, the engine falls back to
    /// the post-hoc transfer.
    pub fn step_streamed<E>(
        &mut self,
        run_backward: impl FnOnce(&mut M, &mut GradStream) -> Result<f32, E>,
    ) -> Result<StepOutcome, StepError<E>> {
        if self.pipe.micro_in_window + 1 >= self.pipe.grad_accumulation {
            let scale = self.pipe.scaler.scale();
            let denom = self.pipe.grad_accumulation as f32;
            self.stream.arm(scale, denom);
        }
        self.pipe.step(
            &mut self.model,
            &mut self.placement,
            &mut self.stream,
            |m, s| run_backward(m, s),
        )
    }
}

/// One data-parallel rank of a ZeRO-2 (`ZERO3 = false`) or ZeRO-3
/// (`ZERO3 = true`) + offload training group: the one
/// engine over the rank's communicator. A ZeRO-2 rank keeps
/// a full fp16 replica; a ZeRO-3 rank keeps only its shard plus what the
/// gather/release schedule materialises.
pub struct RankEngine<M: Model, const ZERO3: bool> {
    engine: ZeroOffloadEngine<M>,
}

impl<M: Model, const ZERO3: bool> RankEngine<M, ZERO3> {
    /// Wraps one rank's model.
    ///
    /// All ranks must construct identically-initialized models (same seed)
    /// — exactly as data-parallel training requires — and concurrently:
    /// ZeRO-2 agrees on the initial fp16 view through the copy-back
    /// all-gather. ZeRO-3 construction performs *no* collectives: the
    /// model is reduced to the fp16 view of the owned shard (everything
    /// else zeroed), and the first step's pre-forward schedule
    /// materialises what compute needs.
    pub fn new(model: M, cfg: ZeroOffloadConfig, comm: Communicator) -> RankEngine<M, ZERO3> {
        let stage = if ZERO3 { Stage::Zero3 } else { Stage::Zero2 };
        RankEngine {
            engine: ZeroOffloadEngine::on_rank(model, cfg, comm, stage),
        }
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.engine.placement.comm.rank()
    }

    /// Group size.
    pub fn world(&self) -> usize {
        self.engine.placement.comm.world()
    }

    /// Cumulative counters for this rank.
    pub fn stats(&self) -> &EngineStats {
        self.engine.stats()
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        self.engine.model()
    }

    /// Mutable access to the wrapped model.
    pub fn model_mut(&mut self) -> &mut M {
        self.engine.model_mut()
    }

    /// This rank's fp32 master shard.
    pub fn master_shard(&self) -> &[f32] {
        self.engine.master_params()
    }

    /// Flat-parameter range owned by this rank.
    pub fn shard_range(&self) -> Range<usize> {
        self.engine.placement.own.clone()
    }

    /// One micro-batch; at window boundaries, the partitioned update.
    ///
    /// All ranks must call `step` the same number of times (collectives
    /// synchronize them).
    pub fn step<E>(
        &mut self,
        run_backward: impl FnOnce(&mut M) -> Result<f32, E>,
    ) -> Result<StepOutcome, StepError<E>> {
        self.engine.step(run_backward)
    }

    /// Captures this rank's training state (shard-sized: master, moments,
    /// scaler, DPU clock, counters). Every rank checkpoints its own
    /// shard; restoring all shards restores the run.
    pub fn save_checkpoint(&self) -> TrainingCheckpoint {
        self.engine.save_checkpoint()
    }

    /// Restores a checkpoint saved by the same rank of an identically
    /// configured group and reloads the model's fp16 view: ZeRO-2
    /// all-gathers the restored shards, so **all ranks must restore
    /// concurrently**, like [`RankEngine::step`]; ZeRO-3 restarts its
    /// cache cold — re-gathers are value-idempotent, so a cold resume
    /// continues the trajectory bit-identically.
    pub fn restore_checkpoint(&mut self, ckpt: &TrainingCheckpoint) -> Result<(), CheckpointError> {
        self.engine.restore_checkpoint(ckpt)
    }
}

impl<M: Model> RankEngine<M, true> {
    fn residency(&self) -> &Residency {
        let residency = self.engine.placement.residency.as_ref();
        residency.expect("stage 3 places with residency")
    }

    /// The rank's gather/release schedule model (replayable by tests).
    pub fn plan(&self) -> &Zero3Plan {
        &self.residency().plan
    }

    /// The live persistent-parameters cache state.
    pub fn cache(&self) -> &Zero3Cache {
        &self.residency().cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn small_scale_cfg() -> ZeroOffloadConfig {
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

    fn run_steps(engine: &mut ZeroOffloadEngine<GptModel>, steps: usize, seed: u64) -> Vec<f32> {
        let mut data = zo_models::BigramLm::new(16, 0.05, seed);
        let mut losses = Vec::new();
        for _ in 0..steps {
            let b = data.batch(4, 8);
            let out = engine
                .step(|m| m.train_step(&b.inputs, &b.targets, 4, 8, |_| {}))
                .unwrap();
            losses.push(out.loss());
        }
        losses
    }

    fn run_steps_streamed(
        engine: &mut ZeroOffloadEngine<GptModel>,
        steps: usize,
        seed: u64,
    ) -> Vec<f32> {
        let mut data = zo_models::BigramLm::new(16, 0.05, seed);
        let mut losses = Vec::new();
        for _ in 0..steps {
            let b = data.batch(4, 8);
            let out = engine
                .step_streamed(|m, s| m.train_step_hooked(&b.inputs, &b.targets, 4, 8, s))
                .unwrap();
            losses.push(out.loss());
        }
        losses
    }

    #[test]
    fn training_reduces_loss() {
        let mut engine = ZeroOffloadEngine::new(tiny_model(1), small_scale_cfg());
        let losses = run_steps(&mut engine, 120, 7);
        let head: f32 = losses[..10].iter().sum::<f32>() / 10.0;
        let tail: f32 = losses[losses.len() - 10..].iter().sum::<f32>() / 10.0;
        assert!(tail < head * 0.9, "loss did not fall: {head} -> {tail}");
        assert!(engine.stats().steps_applied > 100);
    }

    #[test]
    fn offload_path_matches_reference_path_exactly() {
        // The offload strategy performs only system optimizations: the
        // training dynamics must be bit-identical to the non-offload
        // reference (the paper's exactly-overlapping curves in Fig. 12).
        let mut offload = ZeroOffloadEngine::new(tiny_model(5), small_scale_cfg());
        let mut reference =
            ZeroOffloadEngine::new(tiny_model(5), small_scale_cfg().without_offload());
        let l1 = run_steps(&mut offload, 40, 9);
        let l2 = run_steps(&mut reference, 40, 9);
        assert_eq!(l1, l2);
        assert_eq!(offload.master_params(), reference.master_params());
    }

    #[test]
    fn streamed_offload_matches_post_hoc_exactly() {
        // Streaming only reschedules the transfer; the trajectory must be
        // bit-identical to the post-hoc path.
        let mut streamed = ZeroOffloadEngine::new(tiny_model(5), small_scale_cfg());
        let mut post_hoc = ZeroOffloadEngine::new(tiny_model(5), small_scale_cfg());
        let l1 = run_steps_streamed(&mut streamed, 40, 9);
        let l2 = run_steps(&mut post_hoc, 40, 9);
        assert_eq!(l1, l2);
        assert_eq!(streamed.master_params(), post_hoc.master_params());
        assert_eq!(streamed.stats(), post_hoc.stats());
    }

    #[test]
    fn streamed_offload_with_accumulation_matches_post_hoc() {
        let cfg = ZeroOffloadConfig {
            grad_accumulation: 3,
            ..small_scale_cfg()
        };
        let mut streamed = ZeroOffloadEngine::new(tiny_model(6), cfg);
        let mut post_hoc = ZeroOffloadEngine::new(tiny_model(6), cfg);
        let l1 = run_steps_streamed(&mut streamed, 12, 17);
        let l2 = run_steps(&mut post_hoc, 12, 17);
        assert_eq!(l1, l2);
        assert_eq!(streamed.master_params(), post_hoc.master_params());
        assert_eq!(streamed.stats(), post_hoc.stats());
    }

    #[test]
    fn dpu_trails_by_one_step_then_converges() {
        let cfg = ZeroOffloadConfig {
            dpu_warmup: Some(5),
            ..small_scale_cfg()
        };
        let mut dpu = ZeroOffloadEngine::new(tiny_model(3), cfg);
        let losses = run_steps(&mut dpu, 150, 11);
        let head: f32 = losses[..10].iter().sum::<f32>() / 10.0;
        let tail: f32 = losses[losses.len() - 10..].iter().sum::<f32>() / 10.0;
        assert!(
            tail < head * 0.9,
            "DPU run did not converge: {head} -> {tail}"
        );
    }

    #[test]
    #[should_panic(
        expected = "`dpu_warmup` delays the offloaded CPU-Adam: it needs `offload: Cpu`"
    )]
    fn dpu_without_offload_is_refused_at_construction() {
        let cfg = small_scale_cfg().with_dpu().without_offload();
        ZeroOffloadEngine::new(tiny_model(1), cfg);
    }

    #[test]
    #[should_panic(expected = "`dpu_warmup` keeps the optimizer states resident")]
    fn dpu_off_dram_is_refused_at_construction() {
        let cfg = ZeroOffloadConfig {
            optimizer_tier: crate::TierKind::Nvme,
            ..small_scale_cfg().with_dpu()
        };
        ZeroOffloadEngine::new(tiny_model(1), cfg);
    }

    #[test]
    fn dpu_matches_plain_during_warmup() {
        let cfg = ZeroOffloadConfig {
            dpu_warmup: Some(20),
            ..small_scale_cfg()
        };
        let mut dpu = ZeroOffloadEngine::new(tiny_model(4), cfg);
        let mut plain = ZeroOffloadEngine::new(tiny_model(4), small_scale_cfg());
        let l1 = run_steps(&mut dpu, 20, 13);
        let l2 = run_steps(&mut plain, 20, 13);
        assert_eq!(l1, l2, "warm-up steps must be identical");
        // Past the warm-up the parameter trajectories diverge (staleness).
        run_steps(&mut dpu, 5, 14);
        run_steps(&mut plain, 5, 14);
        assert_ne!(dpu.master_params(), plain.master_params());
    }

    #[test]
    fn communication_is_4m_bytes_per_step() {
        let mut engine = ZeroOffloadEngine::new(tiny_model(2), small_scale_cfg());
        run_steps(&mut engine, 10, 15);
        let n = engine.model_mut().num_params() as u64;
        let s = engine.stats();
        // 2 bytes/param down + 2 bytes/param up, per applied+skipped step.
        let total_steps = s.steps_applied + s.steps_skipped;
        assert_eq!(s.d2h_bytes, 2 * n * total_steps);
        assert_eq!(s.h2d_bytes, 2 * n * s.steps_applied);
    }

    #[test]
    fn gradient_accumulation_windows() {
        let cfg = ZeroOffloadConfig {
            grad_accumulation: 4,
            ..small_scale_cfg()
        };
        let mut engine = ZeroOffloadEngine::new(tiny_model(6), cfg);
        let mut data = zo_models::BigramLm::new(16, 0.05, 20);
        let mut outcomes = Vec::new();
        for _ in 0..8 {
            let b = data.batch(2, 8);
            let out = engine
                .step(|m| m.train_step(&b.inputs, &b.targets, 2, 8, |_| {}))
                .unwrap();
            outcomes.push(matches!(out, StepOutcome::Applied { .. }));
        }
        assert_eq!(
            outcomes,
            vec![false, false, false, true, false, false, false, true]
        );
        assert_eq!(engine.stats().steps_applied, 2);
    }

    #[test]
    fn overflow_backs_off_scale_and_skips() {
        // A huge init scale forces immediate fp16 overflow.
        let cfg = ZeroOffloadConfig {
            loss_scale: LossScaleConfig {
                init_scale: 3.4e38,
                ..Default::default()
            },
            ..ZeroOffloadConfig::default()
        };
        let mut engine = ZeroOffloadEngine::new(tiny_model(8), cfg);
        let mut data = zo_models::BigramLm::new(16, 0.05, 21);
        let b = data.batch(2, 8);
        let before = engine.loss_scale();
        let out = engine
            .step(|m| m.train_step(&b.inputs, &b.targets, 2, 8, |_| {}))
            .unwrap();
        assert!(matches!(out, StepOutcome::SkippedOverflow { .. }));
        assert!(engine.loss_scale() < before);
        assert_eq!(engine.stats().steps_applied, 0);
        assert_eq!(engine.stats().steps_skipped, 1);
    }

    #[test]
    fn tier_io_failure_mid_step_surfaces_as_step_error_tier() {
        use crate::pipeline::Updater;
        use crate::tier::{NvmeTier, TierError, TieredAdam};
        let mut engine = ZeroOffloadEngine::new(tiny_model(4), small_scale_cfg());
        // Swap in a tiered updater over a spill directory the test knows.
        let tier = NvmeTier::new().expect("spill dir");
        let dir = tier.spill_dir().to_path_buf();
        let pipe = &mut engine.pipe;
        pipe.updater = Updater::Tiered(TieredAdam::new(
            Box::new(tier),
            small_scale_cfg().adam,
            &pipe.master,
            4096,
            pipe.tracer.clone(),
            "optimizer",
        ));
        run_steps(&mut engine, 2, 7);
        std::fs::remove_file(dir.join("part-1.zot")).unwrap();
        let mut data = zo_models::BigramLm::new(16, 0.05, 7);
        let b = data.batch(4, 8);
        let err = engine
            .step(|m| m.train_step(&b.inputs, &b.targets, 4, 8, |_| {}))
            .unwrap_err();
        assert_eq!(err, StepError::Tier(TierError::Missing { part: 1 }));
        assert_eq!(err.fault(), None);
        assert_eq!(
            engine.stats().steps_applied,
            2,
            "the failed step is not counted"
        );
    }

    #[test]
    fn model_holds_fp16_rounded_params() {
        let mut engine = ZeroOffloadEngine::new(tiny_model(9), small_scale_cfg());
        run_steps(&mut engine, 3, 22);
        let n = engine.model_mut().num_params();
        let mut current = vec![0.0f32; n];
        engine.model_mut().copy_params_to(&mut current);
        for (c, m) in current.iter().zip(engine.master_params()) {
            assert_eq!(*c, F16::from_f32(*m).to_f32());
        }
    }
}
