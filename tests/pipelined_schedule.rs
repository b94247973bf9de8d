//! The pipelined step executor's schedule claims, asserted on wall-clock
//! trace data (paper Sec. 4.1 and Fig. 6):
//!
//! 1. with streamed offload, the `grad_offload` span *overlaps the same
//!    step's* `fwd_bwd` span — gradients leave the device while backward
//!    is still running;
//! 2. with DPU enabled, the optimizer thread's `cpu_adam_step` span
//!    *overlaps the next step's* `fwd_bwd` span — the CPU update hides
//!    behind the accelerator's compute;
//! 3. both are pure scheduling changes: trajectories stay bit-identical,
//!    and a checkpoint taken while an update is in flight resumes exactly.

use zero_offload::{TracerRef, ZeroOffloadConfig, ZeroOffloadEngine};
use zo_models::BigramLm;
use zo_nn::{GptConfig, GptModel};
use zo_optim::{AdamParams, LossScaleConfig};

/// Large enough that forward/backward and the CPU Adam step take
/// measurable wall-clock time — the overlap tests compare real spans.
const GPT: GptConfig = GptConfig {
    vocab: 32,
    seq_len: 16,
    hidden: 128,
    heads: 4,
    layers: 3,
};

/// Small model for the numeric (bit-exactness) tests, where size only
/// costs time.
const GPT_SMALL: GptConfig = GptConfig {
    vocab: 32,
    seq_len: 16,
    hidden: 32,
    heads: 2,
    layers: 2,
};

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

fn batches(steps: usize) -> Vec<zo_models::LmBatch> {
    let mut data = BigramLm::new(GPT.vocab, 0.05, 11);
    (0..steps).map(|_| data.batch(8, GPT.seq_len)).collect()
}

/// One streamed training session; returns `(overlapping, total)` — the
/// number of steps whose `grad_offload` span starts before the same
/// step's `fwd_bwd` ends *and* shares wall-clock time with it. The
/// span-count structure is asserted here; the wall-clock fraction is the
/// caller's to judge.
fn streamed_overlap_session() -> (usize, usize) {
    let tracer = zo_trace::Tracer::new();
    let cfg = ZeroOffloadConfig {
        tracer: Some(TracerRef::install(tracer.clone())),
        ..cfg()
    };
    let mut engine = ZeroOffloadEngine::new(GptModel::new(GPT, 3), cfg);
    let steps = 8;
    for b in batches(steps) {
        engine
            .step_streamed(|m, s| m.train_step_hooked(&b.inputs, &b.targets, 8, GPT.seq_len, s))
            .unwrap();
    }

    let offloads = tracer.spans_named("grad_offload");
    let forwards = tracer.spans_named("fwd_bwd");
    assert_eq!(offloads.len(), steps);
    assert_eq!(forwards.len(), steps);
    let overlapping = offloads
        .iter()
        .zip(&forwards)
        .filter(|(g, f)| g.start_us < f.end_us() && g.overlaps(f))
        .count();
    (overlapping, steps)
}

/// Paper Sec. 4.1: "transfer these gradients ... to the CPU memory
/// immediately after they are computed". The streamed path must make the
/// transfer overlap backward in wall-clock terms.
///
/// Whether two concurrent spans actually interleave on the wall clock is
/// scheduling luck on a loaded single-vCPU CI host, so — like
/// `tier_offload`'s overlap test — this is an existence claim over a few
/// independent sessions: at least one must overlap on every step. A
/// schedule that serialized the transfer by construction would fail
/// every attempt deterministically.
#[test]
fn streamed_grad_offload_overlaps_same_steps_backward() {
    let mut best = (0usize, 1usize);
    for _ in 0..4 {
        let (overlapping, total) = streamed_overlap_session();
        if overlapping == total {
            return;
        }
        if overlapping * best.1 > best.0 * total {
            best = (overlapping, total);
        }
    }
    panic!(
        "no session overlapped every step; best {}/{} grad_offload spans overlapped fwd_bwd",
        best.0, best.1
    );
}

/// Streaming reschedules the transfer but must not change a single bit:
/// the streamed trajectory equals the post-hoc one, which in turn equals
/// the non-offload reference (Fig. 12's exactly-overlapping curves).
#[test]
fn streamed_trajectory_is_bit_identical_to_reference() {
    let mut streamed = ZeroOffloadEngine::new(GptModel::new(GPT_SMALL, 5), cfg());
    let mut post_hoc = ZeroOffloadEngine::new(GptModel::new(GPT_SMALL, 5), cfg());
    let mut reference =
        ZeroOffloadEngine::new(GptModel::new(GPT_SMALL, 5), cfg().without_offload());
    let mut losses = (Vec::new(), Vec::new(), Vec::new());
    for b in batches(15) {
        losses.0.push(
            streamed
                .step_streamed(|m, s| m.train_step_hooked(&b.inputs, &b.targets, 8, GPT.seq_len, s))
                .unwrap()
                .loss(),
        );
        losses.1.push(
            post_hoc
                .step(|m| m.train_step(&b.inputs, &b.targets, 8, GPT.seq_len, |_| {}))
                .unwrap()
                .loss(),
        );
        losses.2.push(
            reference
                .step(|m| m.train_step(&b.inputs, &b.targets, 8, GPT.seq_len, |_| {}))
                .unwrap()
                .loss(),
        );
    }
    assert_eq!(losses.0, losses.1, "streamed vs post-hoc losses diverged");
    assert_eq!(losses.0, losses.2, "streamed vs reference losses diverged");
    assert_eq!(streamed.master_params(), post_hoc.master_params());
    assert_eq!(streamed.master_params(), reference.master_params());
    // Identical wire traffic too: same frames, same bytes, just earlier.
    assert_eq!(streamed.stats(), post_hoc.stats());
}

/// One DPU training session; returns `(overlapped, eligible)` — how many
/// post-warm-up optimizer-thread updates shared wall-clock time with the
/// next step's `fwd_bwd`. Span-count structure and the warm-up
/// synchronicity claim (deterministic by construction: the engine waits
/// for warm-up updates before the next forward) are asserted here.
fn dpu_overlap_session() -> (usize, usize) {
    let tracer = zo_trace::Tracer::new();
    let warmup = 2usize;
    let cfg = ZeroOffloadConfig {
        dpu_warmup: Some(warmup as u64),
        tracer: Some(TracerRef::install(tracer.clone())),
        ..cfg()
    };
    let mut engine = ZeroOffloadEngine::new(GptModel::new(GPT, 7), cfg);
    let steps = 10;
    for b in batches(steps) {
        engine
            .step(|m| m.train_step(&b.inputs, &b.targets, 8, GPT.seq_len, |_| {}))
            .unwrap();
    }
    assert_eq!(engine.stats().steps_applied, steps as u64);

    let updates = tracer.spans_named("cpu_adam_step");
    let forwards = tracer.spans_named("fwd_bwd");
    assert_eq!(forwards.len(), steps);
    // One worker update per applied step, minus the one still in flight
    // when the trace is read (it drains at engine drop).
    assert!(updates.len() >= steps - 1, "only {} updates", updates.len());

    // During warm-up no update can overlap the next forward.
    for k in 0..warmup {
        assert!(
            !updates[k].overlaps(&forwards[k + 1]),
            "warm-up update {k} overlapped the next forward"
        );
    }
    // Each later update `k` is submitted at the end of step `k` and runs
    // while step `k+1` computes.
    let eligible: Vec<usize> = (warmup..updates.len().min(steps - 1)).collect();
    let overlapped = eligible
        .iter()
        .filter(|&&k| updates[k].overlaps(&forwards[k + 1]))
        .count();
    (overlapped, eligible.len())
}

/// Fig. 6: with delayed parameter update, "the CPU computation of the
/// p-th step is overlapped with the GPU computation of the (p+1)-th
/// step". The optimizer-thread span submitted at step `k` must run
/// concurrently with step `k+1`'s forward/backward.
///
/// Asserted as an existence claim over a few independent sessions (see
/// `streamed_grad_offload_overlaps_same_steps_backward`): at least one
/// session must overlap a majority of its post-warm-up updates. A
/// genuinely serial optimizer would fail every attempt.
#[test]
fn dpu_update_overlaps_next_steps_backward() {
    let mut best = (0usize, 1usize);
    for _ in 0..4 {
        let (overlapped, eligible) = dpu_overlap_session();
        if overlapped * 2 > eligible {
            return;
        }
        if overlapped * best.1 > best.0 * eligible {
            best = (overlapped, eligible);
        }
    }
    panic!(
        "no session reached the overlap bar; best {}/{} post-warmup updates \
         overlapped the next step's fwd_bwd",
        best.0, best.1
    );
}

/// A checkpoint taken while the optimizer thread still holds an in-flight
/// update must capture the delayed-update semantics exactly: the stashed
/// gradient is saved, the snapshot round-trips through the checkpoint file
/// format bit-exactly, and the resumed run matches an uninterrupted one
/// bitwise.
#[test]
fn checkpoint_with_update_in_flight_resumes_bitwise() {
    let dpu_cfg = ZeroOffloadConfig {
        dpu_warmup: Some(3),
        ..cfg()
    };
    let all = batches(14);

    let mut continuous = ZeroOffloadEngine::new(GptModel::new(GPT_SMALL, 9), dpu_cfg);
    let mut continuous_losses = Vec::new();
    for b in &all {
        continuous_losses.push(
            continuous
                .step(|m| m.train_step(&b.inputs, &b.targets, 8, GPT.seq_len, |_| {}))
                .unwrap()
                .loss(),
        );
    }

    // Interrupted run: past warm-up, `step` returns with the new update
    // already submitted — the checkpoint below is taken while the
    // optimizer thread works on it.
    let mut first = ZeroOffloadEngine::new(GptModel::new(GPT_SMALL, 9), dpu_cfg);
    for b in &all[..8] {
        first
            .step(|m| m.train_step(&b.inputs, &b.targets, 8, GPT.seq_len, |_| {}))
            .unwrap();
    }
    let ckpt = first.save_checkpoint();
    let dpu_state = ckpt.dpu.as_ref().expect("DPU engine checkpoints DPU state");
    assert!(
        dpu_state.pending.is_some(),
        "past warm-up a gradient must be in flight at checkpoint time"
    );
    // Dropping the engine drains the in-flight update cleanly; the saved
    // snapshot must not be affected by it (it excludes in-flight work).
    let bytes = zero_offload::encode_checkpoint_bytes(&ckpt);
    drop(first);
    let reloaded = zero_offload::decode_checkpoint_bytes(&bytes).unwrap();
    assert_eq!(reloaded, ckpt, "checkpoint file round-trip drifted");

    let mut resumed = ZeroOffloadEngine::new(GptModel::new(GPT_SMALL, 1), dpu_cfg);
    resumed.restore_checkpoint(&reloaded).unwrap();
    let mut tail = Vec::new();
    for b in &all[8..] {
        tail.push(
            resumed
                .step(|m| m.train_step(&b.inputs, &b.targets, 8, GPT.seq_len, |_| {}))
                .unwrap()
                .loss(),
        );
    }
    assert_eq!(&continuous_losses[8..], &tail[..]);
    assert_eq!(continuous.master_params(), resumed.master_params());
}
