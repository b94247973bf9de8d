//! Deterministic trajectory fingerprints, shared by the `fingerprint`
//! binary and by the pin test below.
//!
//! A *trajectory fingerprint* is one FNV-1a hash over every per-step loss
//! bit pattern and the final master parameters of a fixed training run
//! ([`zo_serve::fingerprint_run`], the same hash `zo-serve` reports per
//! job). The repo's load-bearing invariant is that this hash does not move
//! under any execution-placement knob: `ZO_THREADS` (1 or 4), `ZO_TIER`
//! (dram or nvme), `ZO_FAULTS` (off or transient-heavy) and kernel
//! partition counts all produce the same bits. CI diffs the hash across
//! those axes.
//!
//! The *expected* hash for the current kernels is pinned exactly once, in
//! [`PINNED_TRAJECTORY_FINGERPRINT`]. When a PR intentionally changes
//! kernel numerics (e.g. the packed GEMM micro-kernel replacing the old
//! `mul_add` loops), this is the only constant to update — the invariance
//! diffs in `scripts/ci.sh` stay relative and keep passing on their own.

use zero_offload::{run_zero3_ranks, TierKind, ZeroOffloadConfig, ZeroOffloadEngine};
use zo_models::BigramLm;
use zo_nn::{GptConfig, GptModel};
use zo_optim::{AdamParams, LossScaleConfig};
use zo_serve::fingerprint_run;

/// The trajectory hash of [`run_single`] with the default 30 steps.
///
/// Pinned with `adam_element` written as separate multiplies and adds
/// (each of its four steps rounds twice; the fused `f32::mul_add` form it
/// replaced rounded once, so that change moved the trajectory). Every
/// test or script that wants the absolute expected fingerprint must
/// reference this constant instead of pinning its own.
pub const PINNED_TRAJECTORY_FINGERPRINT: u64 = 0xbd0b_a162_654d_a985;

/// Steps the pinned fingerprint run trains for.
pub const PINNED_STEPS: usize = 30;

/// Outcome of a fingerprint run.
pub struct TrajectoryRun {
    /// FNV-1a over per-step loss bits then final master parameter bits.
    pub hash: u64,
    /// Optimizer steps the run trained.
    pub steps: usize,
}

/// The fixed model every fingerprint run trains.
pub fn fingerprint_model() -> GptConfig {
    GptConfig {
        vocab: 32,
        seq_len: 16,
        hidden: 32,
        heads: 2,
        layers: 2,
    }
}

/// The fixed engine config (optimizer threads follow `ZO_THREADS` via the
/// shared pool; the optimizer tier is the one placement axis callers pick).
pub fn fingerprint_config(tier: TierKind) -> ZeroOffloadConfig {
    ZeroOffloadConfig {
        adam: AdamParams {
            lr: 3e-3,
            ..AdamParams::default()
        },
        loss_scale: LossScaleConfig {
            init_scale: 256.0,
            ..Default::default()
        },
        // 0 = auto: follow the shared pool, i.e. ZO_THREADS.
        optimizer_threads: 0,
        optimizer_tier: tier,
        ..ZeroOffloadConfig::default()
    }
}

/// Trains the fixed GPT on the streamed single-GPU engine and returns the
/// trajectory hash.
pub fn run_single(steps: usize, tier: TierKind) -> TrajectoryRun {
    let gpt = fingerprint_model();
    let mut engine = ZeroOffloadEngine::new(GptModel::new(gpt, 42), fingerprint_config(tier));
    let mut data = BigramLm::new(gpt.vocab, 0.02, 7);
    let mut losses = Vec::with_capacity(steps);
    for _ in 0..steps {
        let b = data.batch(4, gpt.seq_len);
        let outcome = engine
            .step_streamed(|m, s| m.train_step_hooked(&b.inputs, &b.targets, 4, gpt.seq_len, s))
            .expect("training step");
        losses.push(outcome.loss());
    }
    TrajectoryRun {
        hash: fingerprint_run(&losses, engine.master_params()),
        steps,
    }
}

/// The same fingerprint over a two-rank ZeRO-3 run (rank 0's per-step
/// losses, then every rank's master shard in rank order).
pub fn run_zero3(steps: usize, tier: TierKind) -> TrajectoryRun {
    let gpt = fingerprint_model();
    const WORLD: usize = 2;
    let traces = run_zero3_ranks(
        WORLD,
        fingerprint_config(tier),
        move |_| GptModel::new(gpt, 42),
        move |engine| {
            let mut data = BigramLm::new(gpt.vocab, 0.02, 7);
            let mut losses = Vec::with_capacity(steps);
            for _ in 0..steps {
                let b = data.batch(WORLD, gpt.seq_len);
                let r = engine.rank();
                let n = gpt.seq_len;
                let inputs = b.inputs[r * n..(r + 1) * n].to_vec();
                let targets = b.targets[r * n..(r + 1) * n].to_vec();
                let out = engine
                    .step(|m| m.train_step(&inputs, &targets, 1, n, |_| {}))
                    .expect("training step");
                losses.push(out.loss());
            }
            (losses, engine.master_shard().to_vec())
        },
    );
    let master: Vec<f32> = traces
        .iter()
        .flat_map(|(_, shard)| shard.iter().copied())
        .collect();
    TrajectoryRun {
        hash: fingerprint_run(&traces[0].0, &master),
        steps,
    }
}

/// Checks a run against the pinned fingerprint. A run is comparable only
/// if it trained exactly [`PINNED_STEPS`] steps (the pin is a hash over
/// a specific step count — comparing a shorter run would "fail" for the
/// wrong reason, and accepting it would prove nothing), so a wrong-length
/// run is rejected outright rather than compared.
pub fn verify_pinned(run: &TrajectoryRun) -> Result<(), String> {
    let steps = run.steps;
    if steps != PINNED_STEPS {
        return Err(format!(
            "run trained {steps} steps; the pinned fingerprint is defined over {PINNED_STEPS} — \
             not comparable"
        ));
    }
    if run.hash != PINNED_TRAJECTORY_FINGERPRINT {
        return Err(format!(
            "trajectory fingerprint moved: got {:016x}, pinned {:016x} — if the numerics \
             change is intentional, re-pin PINNED_TRAJECTORY_FINGERPRINT",
            run.hash, PINNED_TRAJECTORY_FINGERPRINT
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The single place the absolute trajectory fingerprint is checked.
    /// If a PR intentionally changes kernel numerics, update
    /// [`PINNED_TRAJECTORY_FINGERPRINT`] (and only it) with the value this
    /// test prints on failure.
    #[test]
    fn trajectory_fingerprint_is_pinned() {
        let run = run_single(PINNED_STEPS, TierKind::Dram);
        verify_pinned(&run).expect("pinned trajectory");
    }

    /// The fingerprint must not depend on the optimizer tier (the DRAM/NVMe
    /// diff also runs cross-process in ci.sh; this is the in-process pin).
    #[test]
    fn trajectory_fingerprint_tier_invariant() {
        let nvme = run_single(PINNED_STEPS, TierKind::Nvme);
        assert_eq!(nvme.hash, PINNED_TRAJECTORY_FINGERPRINT);
    }

    /// Red path: a perturbed fingerprint must be rejected with a message
    /// naming both hashes, and a wrong-length run must be rejected as
    /// not comparable instead of silently passing or failing.
    #[test]
    fn verify_pinned_rejects_perturbed_and_wrong_length_runs() {
        let comparable = TrajectoryRun {
            hash: PINNED_TRAJECTORY_FINGERPRINT,
            steps: PINNED_STEPS,
        };
        verify_pinned(&comparable).expect("exact pin must verify");

        let perturbed = TrajectoryRun {
            hash: PINNED_TRAJECTORY_FINGERPRINT ^ 1,
            steps: PINNED_STEPS,
        };
        let err = verify_pinned(&perturbed).expect_err("one flipped bit must be rejected");
        assert!(err.contains("re-pin"), "unhelpful message: {err}");

        let short = TrajectoryRun {
            hash: PINNED_TRAJECTORY_FINGERPRINT,
            steps: 2,
        };
        let err = verify_pinned(&short).expect_err("a 2-step run is not comparable to the pin");
        assert!(err.contains("not comparable"), "unhelpful message: {err}");
    }
}
