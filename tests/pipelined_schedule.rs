//! The pipelined step executor's schedule claims, asserted on trace data
//! (paper Sec. 4.1 and Fig. 6):
//!
//! 1. with streamed offload, the `grad_offload` span *overlaps the same
//!    step's* `fwd_bwd` span — gradients leave the device while backward
//!    is still running;
//! 2. with DPU enabled, the update of step *k*'s gradients is launched
//!    inside step *k+1*'s `fwd_bwd` span and collected after it — the CPU
//!    update runs beside the accelerator's compute (checked on the
//!    schedule, not on wall-clock overlap);
//! 3. both are pure scheduling changes: trajectories stay bit-identical,
//!    and a checkpoint taken while a gradient awaits its delayed update
//!    resumes exactly.

use zero_offload::{TracerRef, ZeroOffloadConfig, ZeroOffloadEngine};
use zo_models::BigramLm;
use zo_nn::{GptConfig, GptModel};
use zo_optim::{AdamParams, LossScaleConfig};

/// Large enough that forward/backward takes measurable wall-clock time —
/// the streamed overlap test compares real spans.
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

/// Fig. 6: with delayed parameter update, "the CPU computation of the
/// p-th step is overlapped with the GPU computation of the (p+1)-th
/// step". Asserted on the schedule, not on wall-clock luck: for every
/// step `k+1` after the warm-up, the update of step `k`'s gradients is
/// launched after step `k+1`'s `fwd_bwd` opens and before its backward
/// body starts, and joined (its span is recorded at the join) after that
/// `fwd_bwd` closes — so after `run_backward` returned — and before the
/// step's gradient transfer. Warm-up updates finish before the next
/// step's `fwd_bwd` opens.
///
/// Every comparison is between two instants ordered by the program
/// itself (the tracer's clock is monotonic), or a position in the
/// tracer's completion order; no verdict reads a duration, so the test
/// cannot flake on a loaded host.
#[test]
fn dpu_update_overlaps_next_steps_backward() {
    let tracer = zo_trace::Tracer::new();
    let warmup = 2usize;
    let cfg = ZeroOffloadConfig {
        dpu_warmup: Some(warmup as u64),
        tracer: Some(TracerRef::install(tracer.clone())),
        ..cfg()
    };
    let mut engine = ZeroOffloadEngine::new(GptModel::new(GPT_SMALL, 7), cfg);
    let steps = 10;
    let mut body_start = Vec::new();
    for b in batches(steps) {
        engine
            .step(|m| {
                body_start.push(tracer.now_us());
                m.train_step(&b.inputs, &b.targets, 8, GPT.seq_len, |_| {})
            })
            .unwrap();
    }
    assert_eq!(engine.stats().steps_applied, steps as u64);

    let spans = tracer.spans();
    let position = |name: &str, nth: usize| {
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .nth(nth)
            .map(|(i, _)| i)
            .unwrap()
    };
    let updates = tracer.spans_named("cpu_adam_step");
    let forwards = tracer.spans_named("fwd_bwd");
    assert_eq!(forwards.len(), steps);
    // Every applied update but the transition step's, none in flight.
    assert_eq!(updates.len(), steps - 1);
    assert_eq!(
        tracer.counter_on("optimizer", "optimizer_steps"),
        steps as u64 - 1
    );
    for k in 0..warmup {
        assert!(
            updates[k].end_us() <= forwards[k + 1].start_us,
            "warm-up update {k} ran into the next step"
        );
    }
    for k in warmup..steps - 1 {
        let (update, next) = (&updates[k], &forwards[k + 1]);
        assert!(
            next.start_us <= update.start_us && update.start_us <= body_start[k + 1],
            "update {k} was not launched between step {}'s fwd_bwd opening and its backward",
            k + 1
        );
        let joined = position("cpu_adam_step", k);
        assert!(
            position("fwd_bwd", k + 1) < joined && joined < position("grad_offload", k + 1),
            "update {k} was not joined between step {}'s fwd_bwd and its transfer",
            k + 1
        );
    }
}

/// A checkpoint taken while a gradient awaits its delayed update must
/// capture the delayed-update semantics exactly: the stashed
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

    // Interrupted run: past warm-up, `step` returns with its gradients
    // stashed for the next step's deferred update — the checkpoint below
    // must carry them.
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
    // The saved snapshot is independent of the engine it came from.
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

/// The DPU trajectory, pinned: `zo_serve::fingerprint_run` over the
/// losses and final master of one world-1 run and one ZeRO-2 world-2 run.
/// Each run takes overflow skips after the warm-up (a two-step
/// loss-scale growth interval keeps the scale hitting fp16's ceiling)
/// and is cut mid-run by a checkpoint that is encoded to bytes, decoded
/// and resumed into a fresh engine. The values were recorded before the
/// delayed update moved onto a scoped thread; the DPU's bits must not
/// move with its mechanism.
const DPU_PIN_WORLD1: u64 = 0xb2a5a90040bb6c61;
const DPU_PIN_ZERO2: u64 = 0x9931ee21afb0a62f;

const PIN_STEPS: usize = 18;
const PIN_SPLIT: usize = 9;
const PIN_WARMUP: usize = 3;

fn pin_cfg() -> ZeroOffloadConfig {
    ZeroOffloadConfig {
        dpu_warmup: Some(PIN_WARMUP as u64),
        loss_scale: LossScaleConfig {
            init_scale: 16384.0,
            growth_interval: 2,
            ..Default::default()
        },
        ..cfg()
    }
}

/// Steps `engine`'s rows of `all[range]`; returns the losses and the
/// indices (into `all`) of the overflow-skipped steps.
fn pin_steps<M: FnMut(&zo_models::LmBatch) -> zero_offload::StepOutcome>(
    all: &[zo_models::LmBatch],
    range: core::ops::Range<usize>,
    mut step: M,
) -> (Vec<f32>, Vec<usize>) {
    let mut losses = Vec::new();
    let mut skipped = Vec::new();
    for i in range {
        let out = step(&all[i]);
        if matches!(out, zero_offload::StepOutcome::SkippedOverflow { .. }) {
            skipped.push(i);
        }
        losses.push(out.loss());
    }
    (losses, skipped)
}

/// The skips the pin relies on happen after the warm-up and on both
/// sides of the checkpoint.
fn assert_pin_covers(skipped: &[usize]) {
    assert!(
        skipped.iter().any(|&i| i > PIN_WARMUP && i < PIN_SPLIT)
            && skipped.iter().any(|&i| i >= PIN_SPLIT),
        "the pinned run must skip steps after the warm-up on both sides of \
         the checkpoint; skipped {skipped:?}"
    );
}

fn dpu_pin_world1() -> u64 {
    let all = batches(PIN_STEPS);
    let train = |engine: &mut ZeroOffloadEngine<GptModel>, range| {
        pin_steps(&all, range, |b| {
            engine
                .step(|m| m.train_step(&b.inputs, &b.targets, 8, GPT.seq_len, |_| {}))
                .unwrap()
        })
    };
    let mut first = ZeroOffloadEngine::new(GptModel::new(GPT_SMALL, 9), pin_cfg());
    let (mut losses, mut skipped) = train(&mut first, 0..PIN_SPLIT);
    let ckpt = first.save_checkpoint();
    assert!(ckpt.dpu.as_ref().unwrap().pending.is_some());
    let bytes = zero_offload::encode_checkpoint_bytes(&ckpt);
    drop(first);
    let mut resumed = ZeroOffloadEngine::new(GptModel::new(GPT_SMALL, 1), pin_cfg());
    resumed
        .restore_checkpoint(&zero_offload::decode_checkpoint_bytes(&bytes).unwrap())
        .unwrap();
    let (tail, tail_skipped) = train(&mut resumed, PIN_SPLIT..PIN_STEPS);
    losses.extend(tail);
    skipped.extend(tail_skipped);
    assert_pin_covers(&skipped);
    zo_serve::fingerprint_run(&losses, resumed.master_params())
}

fn dpu_pin_zero2() -> u64 {
    const WORLD: usize = 2;
    let all = batches(PIN_STEPS);
    let rows = 8 / WORLD;
    let train = |engine: &mut zero_offload::Zero2OffloadEngine<GptModel>, range| {
        let r = engine.rank();
        let cols = rows * GPT.seq_len;
        pin_steps(&all, range, |b| {
            let inputs = &b.inputs[r * cols..(r + 1) * cols];
            let targets = &b.targets[r * cols..(r + 1) * cols];
            engine
                .step(|m| m.train_step(inputs, targets, rows, GPT.seq_len, |_| {}))
                .unwrap()
        })
    };
    let first = zero_offload::run_ranks(
        WORLD,
        pin_cfg(),
        |_| GptModel::new(GPT_SMALL, 9),
        |engine| {
            let (losses, skipped) = train(engine, 0..PIN_SPLIT);
            let ckpt = engine.save_checkpoint();
            assert!(ckpt.dpu.as_ref().unwrap().pending.is_some());
            (
                losses,
                skipped,
                zero_offload::encode_checkpoint_bytes(&ckpt),
            )
        },
    );
    let resumed = zero_offload::run_ranks(
        WORLD,
        pin_cfg(),
        |_| GptModel::new(GPT_SMALL, 1),
        |engine| {
            let bytes = &first[engine.rank()].2;
            engine
                .restore_checkpoint(&zero_offload::decode_checkpoint_bytes(bytes).unwrap())
                .unwrap();
            let (losses, skipped) = train(engine, PIN_SPLIT..PIN_STEPS);
            (losses, skipped, engine.master_shard().to_vec())
        },
    );
    let (mut losses, mut master) = (Vec::new(), Vec::new());
    for rank in 0..WORLD {
        let mut skipped = first[rank].1.clone();
        skipped.extend(&resumed[rank].1);
        assert_pin_covers(&skipped);
        losses.extend(&first[rank].0);
        losses.extend(&resumed[rank].0);
        master.extend(&resumed[rank].2);
    }
    zo_serve::fingerprint_run(&losses, &master)
}

#[test]
fn dpu_trajectory_matches_its_pin() {
    let (world1, zero2) = (dpu_pin_world1(), dpu_pin_zero2());
    assert_eq!(
        (format!("{world1:016x}"), format!("{zero2:016x}")),
        (
            format!("{DPU_PIN_WORLD1:016x}"),
            format!("{DPU_PIN_ZERO2:016x}")
        ),
        "DPU trajectory moved (world 1, ZeRO-2 world 2)"
    );
}
