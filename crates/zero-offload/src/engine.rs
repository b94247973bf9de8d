//! The real-execution ZeRO-Offload engine (single accelerator).
//!
//! Runs actual training with the paper's data placement faithfully
//! emulated: the model computes forward/backward on **fp16-rounded
//! parameters** (what the GPU would hold), gradients leave the "device" by
//! being **rounded through fp16** (the PCIe transfer), and the fp32 master
//! parameters, momentum and variance live in a separate host-side buffer
//! updated by [`CpuAdam`](zo_optim::CpuAdam) — optionally one step
//! delayed (DPU), in which
//! case the update runs on the [`AsyncDpu`](crate::AsyncDpu) optimizer
//! thread overlapped with the next step's forward/backward.
//!
//! The step state machine itself lives in [`crate::pipeline`]; this module
//! supplies the full-replica [`Placement`] (everything moves as one piece)
//! and the public engine type. The engine is generic over [`Model`], so
//! the same code trains the GPT LM of Fig. 12 and the classifier of
//! Fig. 13.

use zo_fault::{lane, with_retry, FaultError, FaultSession, Site};
use zo_nn::Model;
use zo_optim::{clip, AdamState, DynamicLossScaler};
use zo_tensor::{cast_f32_to_f16, F16};
use zo_trace::Tracer;

use crate::bucket::{scatter_frame, GradBucketer};
use crate::config::{resolve_fault_plan, resolve_tracer, OffloadDevice, ZeroOffloadConfig};
use crate::pipeline::{
    build_offload_updater, GradStream, Placement, StepError, StepPipeline, Updater,
};
use crate::wire::{decode_frame_traced, ship_frame};

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

/// Ships the staged frames, validates each and widens·unscales it straight
/// into its span of the host gradient buffer, and updates traffic counters
/// and memory high-water marks — the tail of the gradient offload shared
/// by the streamed and post-hoc transfer paths.
///
/// With a fault session, every frame passes the `wire.d2h` gate (bounded
/// retry; fatal faults abort the transfer with a typed error). Pass `None`
/// when the frames already crossed a gate — the streamed path gates each
/// slice at push time, and the degraded post-hoc retransmission models
/// recovery *after* the faulty window.
fn finish_offload(
    bucketer: &mut GradBucketer,
    grads: &mut [f32],
    scale: f32,
    stats: &mut EngineStats,
    tracer: &Tracer,
    mut faults: Option<&mut FaultSession>,
) -> Result<(), FaultError> {
    bucketer.flush();
    let unscale = Some(1.0 / scale);
    for raw in bucketer.take_frames() {
        let raw = match faults.as_deref_mut() {
            Some(session) => ship_frame(raw, session, tracer, "pcie")?,
            None => raw,
        };
        let frame =
            decode_frame_traced(tracer, "pcie", raw).expect("loopback frames are well-formed");
        scatter_frame(&frame, grads, unscale);
    }
    stats.d2h_bytes += bucketer.payload_bytes();
    stats.wire_bytes += bucketer.wire_bytes();
    stats.frames += u64::from(bucketer.frames_emitted());
    tracer.add("pcie", "d2h_bytes", bucketer.payload_bytes());
    // Memory high-water marks: fp16 parameters + the transient staging
    // bucket on the device; master + Adam moments + fp32 gradient buffer
    // on the host.
    let n = grads.len() as f64;
    tracer.gauge_max("gpu_hwm_bytes", 2.0 * n + bucketer.wire_bytes() as f64);
    tracer.gauge_max("cpu_hwm_bytes", 16.0 * n);
    Ok(())
}

/// The single-accelerator placement: one full fp16 replica on the device,
/// the whole fp32 state on the host, gradients crossing "PCIe" in layer
/// buckets (streamed from backward when armed, post hoc otherwise).
pub(crate) struct ReplicaPlacement {
    /// Flat offset ranges of each layer bucket, in canonical order.
    layer_ranges: Vec<core::ops::Range<usize>>,
    bucket_bytes: usize,
    /// fp32 widening scratch for the h2d parameter copy, reused.
    widened: Vec<f32>,
}

impl ReplicaPlacement {
    /// Loads the fp16 view into the model through the reusable widening
    /// scratch (no per-step allocation).
    fn load_model<M: Model>(&mut self, model: &mut M, p16: &[F16]) {
        self.widened.resize(p16.len(), 0.0);
        F16::to_f32_slice(p16, &mut self.widened);
        model.load_params_from(&self.widened);
    }
}

impl<M: Model> Placement<M> for ReplicaPlacement {
    fn fwd_track(&self) -> &str {
        "gpu"
    }

    fn counter_track(&self) -> &str {
        "engine"
    }

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
    ) -> Result<bool, FaultError> {
        if let Some(start) = stream.take_streamed() {
            // The gradients already crossed the wire from inside backward
            // (each slice passed the gate at push time); only the tail
            // (final flush, reassembly, unscale) remains.
            let mut bucketer = core::mem::replace(&mut stream.bucketer, GradBucketer::new(2));
            finish_offload(&mut bucketer, grads, scale, stats, tracer, None)?;
            let end = tracer.now_us();
            tracer.record_span("pcie", "grad_offload", start, end.saturating_sub(start));
            return Ok(stream.overflow);
        }
        // A poisoned stream means the mid-backward transfer died; this
        // post-hoc pass is the *recovery* retransmission after backward
        // completed, so it bypasses the wire gate.
        let degraded = stream.take_poisoned();
        // Post-hoc transfer: scale, cast to fp16, pack the layer spans into
        // wire frames in backward order (head bucket first, blocks
        // reversed, embeddings last — the order they become ready in
        // Sec. 4.1), ship, validate, scatter into host memory.
        let _transfer = tracer.span("pcie", "grad_offload");
        model.copy_grads_to(grads);
        let mut overflow = false;
        let mut bucketer = GradBucketer::traced(self.bucket_bytes, tracer.clone(), "pcie");
        for range in self.layer_ranges.iter().rev() {
            overflow |=
                bucketer.push_grads(range.start as u64, &grads[range.clone()], denom, scale);
        }
        let gate = if degraded { None } else { Some(faults) };
        finish_offload(&mut bucketer, grads, scale, stats, tracer, gate)?;
        Ok(overflow)
    }

    fn clip_grads(&mut self, grads: &mut [f32], max_norm: f64) {
        clip::clip_global_norm(&mut [grads], max_norm);
    }

    fn update_span(&self) -> (&str, &str) {
        ("cpu", "cpu_adam")
    }

    fn publish(
        &mut self,
        model: &mut M,
        p16: &[F16],
        stats: &mut EngineStats,
        tracer: &Tracer,
        faults: &mut FaultSession,
    ) -> Result<(), FaultError> {
        let _copy = tracer.span("pcie", "param_copy_back");
        // The h2d gate sits *before* the model sees the new parameters: a
        // fatal fault here is the "killed between DPU update and copy-back"
        // crash point the recovery tests exercise.
        with_retry(faults, Site::WireH2d, tracer, "pcie", || ())?;
        stats.h2d_bytes += 2 * p16.len() as u64;
        tracer.add("pcie", "h2d_bytes", 2 * p16.len() as u64);
        self.load_model(model, p16);
        Ok(())
    }

    fn on_skip(
        &mut self,
        _model: &mut M,
        _p16: &[F16],
        _stats: &mut EngineStats,
        _tracer: &Tracer,
    ) -> Result<(), FaultError> {
        // Parameters unchanged; nothing to publish.
        Ok(())
    }
}

/// A training engine applying the ZeRO-Offload single-GPU schedule.
pub struct ZeroOffloadEngine<M: Model> {
    model: M,
    pipe: StepPipeline,
    placement: ReplicaPlacement,
    stream: GradStream,
}

impl<M: Model> ZeroOffloadEngine<M> {
    /// Wraps `model` for training under `cfg`.
    ///
    /// The model's initial parameters become the fp32 master copy; the
    /// model itself is immediately switched to their fp16 rounding, as a
    /// GPU would hold them.
    pub fn new(mut model: M, cfg: ZeroOffloadConfig) -> ZeroOffloadEngine<M> {
        let n = model.num_params();
        let layer_ranges = model.layer_ranges();
        let mut master = vec![0.0f32; n];
        model.copy_params_to(&mut master);
        let mut p16 = vec![F16::ZERO; n];
        cast_f32_to_f16(&master, &mut p16);
        let tracer = resolve_tracer(cfg.tracer);

        let updater = match cfg.offload {
            OffloadDevice::None => Updater::Reference(AdamState::new(n), cfg.adam),
            OffloadDevice::Cpu => build_offload_updater(&cfg, &master, &tracer, "optimizer"),
        };
        let placement = ReplicaPlacement {
            layer_ranges: layer_ranges.clone(),
            bucket_bytes: cfg.bucket_bytes,
            widened: Vec::new(),
        };
        let plan = resolve_fault_plan(cfg.faults);
        let mut stream = GradStream::new(tracer.clone(), layer_ranges, cfg.bucket_bytes);
        stream.set_faults(FaultSession::new(plan.clone(), lane::STREAM));
        let pipe = StepPipeline {
            master,
            p16,
            grads: vec![0.0f32; n],
            updater,
            scaler: DynamicLossScaler::new(cfg.loss_scale),
            micro_in_window: 0,
            stats: EngineStats::default(),
            tracer,
            grad_accumulation: cfg.grad_accumulation,
            max_grad_norm: cfg.max_grad_norm,
            pool_base: zo_tensor::pool::global().stats(),
            faults: FaultSession::new(plan, lane::ENGINE),
            overflow_storm_limit: cfg.overflow_storm_limit,
        };
        let mut engine = ZeroOffloadEngine {
            model,
            pipe,
            placement,
            stream,
        };
        engine.sync_model_params();
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

    /// The shared step pipeline (checkpoint state lives there).
    pub(crate) fn pipe(&self) -> &StepPipeline {
        &self.pipe
    }

    /// Mutable access to the shared step pipeline (checkpointing).
    pub(crate) fn pipe_mut(&mut self) -> &mut StepPipeline {
        &mut self.pipe
    }

    /// The step-level fault session (checkpoint-write gating).
    pub(crate) fn faults_mut(&mut self) -> &mut FaultSession {
        &mut self.pipe.faults
    }

    /// Loads the fp16 view of the master parameters into the model.
    pub(crate) fn sync_model_params(&mut self) {
        self.placement.load_model(&mut self.model, &self.pipe.p16);
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
        use crate::tier::{NvmeTier, TierError, TieredAdam};
        let mut engine = ZeroOffloadEngine::new(tiny_model(4), small_scale_cfg());
        // Swap in a tiered updater over a spill directory the test knows.
        let tier = NvmeTier::new().expect("spill dir");
        let dir = tier.spill_dir().to_path_buf();
        let pipe = engine.pipe_mut();
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
