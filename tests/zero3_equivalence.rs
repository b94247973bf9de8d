//! Stage-3 equivalence: the paper-claim harness for the ZeRO-3 engine.
//!
//! ZeRO partitioning is pure systems restructuring — where data lives and
//! when it moves — so the training trajectory must be *bitwise* identical
//! to the less-partitioned stages on the same seeds. These tests pin
//! that: ZeRO-3 vs ZeRO-2 at each world size, ZeRO-3 at world 1 vs the
//! single-GPU engine, and a mid-run checkpoint/resume, all compared bit
//! for bit over 24 optimizer steps.
//!
//! (Engines at *different* world sizes are only close, not bitwise equal:
//! per-rank partial sums change the fp32 summation order. Every pairing
//! here keeps the world size fixed.)

use zero_offload::{
    run_ranks, run_zero3_ranks, TrainingCheckpoint, ZeroOffloadConfig, ZeroOffloadEngine,
};
use zo_models::BigramLm;
use zo_nn::{GptConfig, GptModel};
use zo_optim::{AdamParams, LossScaleConfig};

const GPT: GptConfig = GptConfig {
    vocab: 16,
    seq_len: 8,
    hidden: 16,
    heads: 2,
    layers: 2,
};

const STEPS: usize = 24;
const MODEL_SEED: u64 = 21;

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
fn global_batch(step: usize, batch: usize) -> zo_models::LmBatch {
    let mut lm = BigramLm::new(16, 0.05, 1000);
    let mut b = lm.batch(batch, 8);
    for _ in 0..step {
        b = lm.batch(batch, 8);
    }
    b
}

/// Trains `steps` on `world` ZeRO-2 ranks; returns each rank's
/// (shard range, master shard, per-step losses).
type RankTrace = (core::ops::Range<usize>, Vec<f32>, Vec<f32>);

fn zero2_trace(world: usize, steps: usize) -> Vec<RankTrace> {
    run_ranks(
        world,
        cfg(),
        |_| GptModel::new(GPT, MODEL_SEED),
        move |engine| {
            let mut losses = Vec::new();
            for step in 0..steps {
                let b = global_batch(step, world);
                let r = engine.rank();
                let inputs = b.inputs[r * 8..(r + 1) * 8].to_vec();
                let targets = b.targets[r * 8..(r + 1) * 8].to_vec();
                let out = engine
                    .step(|m| m.train_step(&inputs, &targets, 1, 8, |_| {}))
                    .unwrap();
                losses.push(out.loss());
            }
            (engine.shard_range(), engine.master_shard().to_vec(), losses)
        },
    )
}

fn zero3_trace(world: usize, steps: usize, engine_cfg: ZeroOffloadConfig) -> Vec<RankTrace> {
    run_zero3_ranks(
        world,
        engine_cfg,
        |_| GptModel::new(GPT, MODEL_SEED),
        move |engine| {
            let mut losses = Vec::new();
            for step in 0..steps {
                let b = global_batch(step, world);
                let r = engine.rank();
                let inputs = b.inputs[r * 8..(r + 1) * 8].to_vec();
                let targets = b.targets[r * 8..(r + 1) * 8].to_vec();
                let out = engine
                    .step(|m| m.train_step(&inputs, &targets, 1, 8, |_| {}))
                    .unwrap();
                losses.push(out.loss());
            }
            (engine.shard_range(), engine.master_shard().to_vec(), losses)
        },
    )
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    let diverged = a
        .iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits());
    assert_eq!(
        diverged, None,
        "{what}: first bit divergence at {diverged:?}"
    );
}

/// The acceptance claim: at every world size in {1, 2, 4}, the ZeRO-3
/// trajectory (losses and final master shards) is bitwise identical to
/// ZeRO-2 on the same seeds — parameter partitioning moved data, not
/// math.
#[test]
fn stage3_matches_zero2_bitwise_at_each_world() {
    for world in [1usize, 2, 4] {
        let z2 = zero2_trace(world, STEPS);
        let z3 = zero3_trace(world, STEPS, cfg());
        for rank in 0..world {
            assert_eq!(z2[rank].0, z3[rank].0, "world {world} rank {rank} range");
            assert_bits_eq(
                &z2[rank].1,
                &z3[rank].1,
                &format!("world {world} rank {rank} master shard"),
            );
            assert_bits_eq(
                &z2[rank].2,
                &z3[rank].2,
                &format!("world {world} rank {rank} losses"),
            );
        }
    }
}

/// The persistent cache and the prefetch window reorder gathers and skip
/// redundant ones — they must never change a bit of the trajectory.
#[test]
fn cache_and_prefetch_knobs_do_not_perturb_the_trajectory() {
    let base = zero3_trace(2, STEPS, cfg());
    for (prefetch, budget) in [(0usize, 0usize), (3, 0), (1, usize::MAX), (3, 200)] {
        let knobs = ZeroOffloadConfig {
            prefetch_layers: prefetch,
            persistent_param_bytes: budget,
            ..cfg()
        };
        let got = zero3_trace(2, STEPS, knobs);
        for rank in 0..2 {
            assert_bits_eq(
                &base[rank].1,
                &got[rank].1,
                &format!("prefetch {prefetch} budget {budget} rank {rank} shard"),
            );
            assert_bits_eq(
                &base[rank].2,
                &got[rank].2,
                &format!("prefetch {prefetch} budget {budget} rank {rank} losses"),
            );
        }
    }
}

/// At world 1 the stage-3 engine collapses to the single-GPU schedule
/// (gathers become local copies) and must match [`ZeroOffloadEngine`]
/// bitwise on the same full batches.
#[test]
fn stage3_at_world_one_matches_single_gpu() {
    let z3 = zero3_trace(1, STEPS, cfg());

    let mut single = ZeroOffloadEngine::new(GptModel::new(GPT, MODEL_SEED), cfg());
    let mut losses = Vec::new();
    for step in 0..STEPS {
        let b = global_batch(step, 1);
        let out = single
            .step(|m| m.train_step(&b.inputs, &b.targets, 1, 8, |_| {}))
            .unwrap();
        losses.push(out.loss());
    }

    assert_eq!(z3[0].0, 0..single.master_params().len());
    assert_bits_eq(&z3[0].1, single.master_params(), "master params");
    assert_bits_eq(&z3[0].2, &losses, "losses");
}

/// Mid-run checkpoint/resume: each rank checkpoints its shard at step 10;
/// fresh engines restore (cache cold) and finish the run. Both the
/// uninterrupted original and the resumed run must land on bit-identical
/// shards and losses.
#[test]
fn mid_run_checkpoint_resume_is_bitwise() {
    const WORLD: usize = 2;
    const SPLIT: usize = 10;

    // Uninterrupted reference.
    let straight = zero3_trace(WORLD, STEPS, cfg());

    // First half: train to the split, checkpoint, keep training.
    let halves: Vec<(TrainingCheckpoint, Vec<f32>, Vec<f32>)> = run_zero3_ranks(
        WORLD,
        cfg(),
        |_| GptModel::new(GPT, MODEL_SEED),
        |engine| {
            let mut losses = Vec::new();
            for step in 0..SPLIT {
                let b = global_batch(step, WORLD);
                let r = engine.rank();
                let inputs = b.inputs[r * 8..(r + 1) * 8].to_vec();
                let targets = b.targets[r * 8..(r + 1) * 8].to_vec();
                losses.push(
                    engine
                        .step(|m| m.train_step(&inputs, &targets, 1, 8, |_| {}))
                        .unwrap()
                        .loss(),
                );
            }
            let ckpt = engine.save_checkpoint();
            for step in SPLIT..STEPS {
                let b = global_batch(step, WORLD);
                let r = engine.rank();
                let inputs = b.inputs[r * 8..(r + 1) * 8].to_vec();
                let targets = b.targets[r * 8..(r + 1) * 8].to_vec();
                losses.push(
                    engine
                        .step(|m| m.train_step(&inputs, &targets, 1, 8, |_| {}))
                        .unwrap()
                        .loss(),
                );
            }
            (ckpt, engine.master_shard().to_vec(), losses)
        },
    );

    for rank in 0..WORLD {
        assert_bits_eq(
            &halves[rank].1,
            &straight[rank].1,
            &format!("continued run rank {rank} shard"),
        );
        assert_bits_eq(
            &halves[rank].2,
            &straight[rank].2,
            &format!("continued run rank {rank} losses"),
        );
    }

    // Second half: fresh engines, restore each rank's checkpoint, resume.
    let ckpts: Vec<TrainingCheckpoint> = halves.iter().map(|h| h.0.clone()).collect();
    let ckpts_ref = &ckpts;
    let resumed = run_zero3_ranks(
        WORLD,
        cfg(),
        |_| GptModel::new(GPT, MODEL_SEED),
        move |engine| {
            engine
                .restore_checkpoint(&ckpts_ref[engine.rank()])
                .unwrap();
            assert_eq!(engine.stats().steps_applied, SPLIT as u64);
            let mut losses = Vec::new();
            for step in SPLIT..STEPS {
                let b = global_batch(step, WORLD);
                let r = engine.rank();
                let inputs = b.inputs[r * 8..(r + 1) * 8].to_vec();
                let targets = b.targets[r * 8..(r + 1) * 8].to_vec();
                losses.push(
                    engine
                        .step(|m| m.train_step(&inputs, &targets, 1, 8, |_| {}))
                        .unwrap()
                        .loss(),
                );
            }
            (engine.master_shard().to_vec(), losses)
        },
    );

    for rank in 0..WORLD {
        assert_bits_eq(
            &resumed[rank].0,
            &straight[rank].1,
            &format!("resumed run rank {rank} shard"),
        );
        assert_bits_eq(
            &resumed[rank].1,
            &straight[rank].2[SPLIT..],
            &format!("resumed run rank {rank} losses"),
        );
    }
}

/// DPU (delayed parameter update) composes with stage 3 exactly as with
/// stage 2: ranks stay in sync and the schedule is deterministic.
#[test]
fn dpu_composes_with_stage3() {
    let dpu_cfg = ZeroOffloadConfig {
        dpu_warmup: Some(3),
        ..cfg()
    };
    let a = zero3_trace(2, 10, dpu_cfg);
    let b = zero3_trace(2, 10, dpu_cfg);
    for rank in 0..2 {
        assert_bits_eq(&a[rank].1, &b[rank].1, &format!("dpu rank {rank} shard"));
    }
}

// ---------------------------------------------------------------------------
// Global-norm clipping on every stage.
// ---------------------------------------------------------------------------

/// A clip that fires on every step: the tiny GPT's global gradient norm
/// sits well above it.
fn clipped_cfg() -> ZeroOffloadConfig {
    ZeroOffloadConfig {
        max_grad_norm: 0.05,
        ..cfg()
    }
}

/// [`zero2_trace`] under an explicit engine config.
fn zero2_trace_with(world: usize, steps: usize, engine_cfg: ZeroOffloadConfig) -> Vec<RankTrace> {
    run_ranks(
        world,
        engine_cfg,
        |_| GptModel::new(GPT, MODEL_SEED),
        move |engine| {
            let mut losses = Vec::new();
            for step in 0..steps {
                let b = global_batch(step, world);
                let r = engine.rank();
                let inputs = b.inputs[r * 8..(r + 1) * 8].to_vec();
                let targets = b.targets[r * 8..(r + 1) * 8].to_vec();
                let out = engine
                    .step(|m| m.train_step(&inputs, &targets, 1, 8, |_| {}))
                    .unwrap();
                losses.push(out.loss());
            }
            (engine.shard_range(), engine.master_shard().to_vec(), losses)
        },
    )
}

/// The global norm is one rank-ordered sum of per-shard partial sums, so
/// clipped ZeRO-2 and clipped ZeRO-3 stay bitwise identical at every
/// world size, exactly as their unclipped runs do.
#[test]
fn clipped_stage3_matches_clipped_zero2_bitwise_at_each_world() {
    for world in [1usize, 2, 4] {
        let z2 = zero2_trace_with(world, STEPS, clipped_cfg());
        let z3 = zero3_trace(world, STEPS, clipped_cfg());
        for rank in 0..world {
            let what = format!("clipped world {world} rank {rank}");
            assert_bits_eq(&z2[rank].1, &z3[rank].1, &format!("{what} master shard"));
            assert_bits_eq(&z2[rank].2, &z3[rank].2, &format!("{what} losses"));
        }
    }
}

/// At world 1 the sharded clip is the single engine's clip, bit for bit.
#[test]
fn clipped_zero2_at_world_one_matches_clipped_single_gpu() {
    let z2 = zero2_trace_with(1, STEPS, clipped_cfg());

    let mut single = ZeroOffloadEngine::new(GptModel::new(GPT, MODEL_SEED), clipped_cfg());
    let mut losses = Vec::new();
    for step in 0..STEPS {
        let b = global_batch(step, 1);
        let out = single
            .step(|m| m.train_step(&b.inputs, &b.targets, 1, 8, |_| {}))
            .unwrap();
        losses.push(out.loss());
    }

    assert_bits_eq(&z2[0].1, single.master_params(), "clipped master params");
    assert_bits_eq(&z2[0].2, &losses, "clipped losses");
}

/// `max_grad_norm` is honoured, not dropped: on every stage and world, a
/// clipped run leaves its unclipped twin.
#[test]
fn clipping_changes_the_sharded_trajectory() {
    for world in [1usize, 2, 4] {
        let runs = [
            (
                zero2_trace(world, STEPS),
                zero2_trace_with(world, STEPS, clipped_cfg()),
            ),
            (
                zero3_trace(world, STEPS, cfg()),
                zero3_trace(world, STEPS, clipped_cfg()),
            ),
        ];
        for (stage, (plain, clipped)) in ["zero2", "zero3"].iter().zip(&runs) {
            for rank in 0..world {
                assert!(
                    plain[rank].1 != clipped[rank].1,
                    "{stage} world {world} rank {rank}: clipping left the shard unchanged"
                );
            }
        }
    }
}
