//! The fault matrix: every injection site, both fault classes.
//!
//! For each site the resilience layer must satisfy two contracts:
//!
//! * **transient** faults are retried with bounded backoff and the
//!   training trajectory is *bit-identical* to a fault-free run — retries
//!   may only cost time, never perturb numerics;
//! * **fatal** (and retry-exhausted) faults surface as typed errors at
//!   the step or checkpoint API — no panics, no silent corruption, and in
//!   the multi-rank engine no deadlocked barriers.
//!
//! Run under `ZO_FAULTS=off` and `ZO_FAULTS=transient-heavy` by
//! `scripts/ci.sh` (the CI job matrix): the explicit plans installed here
//! take precedence over the environment, except for the env-driven test
//! at the bottom which is the one the matrix actually varies.

use std::sync::Arc;

use zero_offload::{
    CheckpointError, FaultsRef, StepError, StepOutcome, TracerRef, ZeroOffloadConfig,
    ZeroOffloadEngine,
};
use zo_fault::{FaultError, FaultKind, FaultPlan, FaultPlanBuilder, Site, SiteSpec};
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

fn cfg() -> ZeroOffloadConfig {
    ZeroOffloadConfig {
        adam: AdamParams {
            lr: 3e-3,
            ..AdamParams::default()
        },
        loss_scale: LossScaleConfig {
            init_scale: 256.0,
            ..Default::default()
        },
        ..ZeroOffloadConfig::default()
    }
}

fn with_plan(base: ZeroOffloadConfig, plan: FaultPlan) -> ZeroOffloadConfig {
    ZeroOffloadConfig {
        faults: Some(FaultsRef::install(plan)),
        ..base
    }
}

fn transient(site: Site, prob: f64) -> FaultPlanBuilder {
    FaultPlan::builder(0xFA11).site(
        site,
        SiteSpec {
            kind: FaultKind::Transient,
            prob,
            depth: 2,
        },
    )
}

fn fatal_plan(site: Site) -> FaultPlan {
    FaultPlan::builder(0xFA11)
        .site(
            site,
            SiteSpec {
                kind: FaultKind::Fatal,
                prob: 1.0,
                depth: 1,
            },
        )
        .build()
}

/// Runs `steps` optimizer steps (post-hoc transfer), returning losses.
fn run(engine: &mut ZeroOffloadEngine<GptModel>, from: usize, steps: usize) -> Vec<f32> {
    let mut data = BigramLm::new(GPT.vocab, 0.05, 7);
    let mut batches = Vec::new();
    for _ in 0..from + steps {
        batches.push(data.batch(4, GPT.seq_len));
    }
    batches[from..]
        .iter()
        .map(|b| {
            engine
                .step(|m| m.train_step(&b.inputs, &b.targets, 4, GPT.seq_len, |_| {}))
                .unwrap()
                .loss()
        })
        .collect()
}

/// Runs `steps` streamed steps (mid-backward transfer), returning losses.
fn run_streamed(engine: &mut ZeroOffloadEngine<GptModel>, steps: usize) -> Vec<f32> {
    let mut data = BigramLm::new(GPT.vocab, 0.05, 7);
    (0..steps)
        .map(|_| {
            let b = data.batch(4, GPT.seq_len);
            engine
                .step_streamed(|m, s| m.train_step_hooked(&b.inputs, &b.targets, 4, GPT.seq_len, s))
                .unwrap()
                .loss()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Transient faults: retried, trajectory bit-identical to fault-free.
// ---------------------------------------------------------------------------

#[test]
fn transient_wire_faults_leave_trajectory_bit_identical() {
    for site in [Site::WireD2h, Site::WireH2d, Site::OptimCpuStep] {
        let tracer = zo_trace::Tracer::new();
        let faulty_cfg = ZeroOffloadConfig {
            tracer: Some(TracerRef::install(tracer.clone())),
            ..with_plan(cfg(), transient(site, 0.5).build())
        };
        let mut faulty = ZeroOffloadEngine::new(GptModel::new(GPT, 42), faulty_cfg);
        let mut clean = ZeroOffloadEngine::new(
            GptModel::new(GPT, 42),
            with_plan(cfg(), FaultPlan::disabled()),
        );
        let lf = run(&mut faulty, 0, 25);
        let lc = run(&mut clean, 0, 25);
        assert_eq!(lf, lc, "site {site}: losses diverged under transients");
        assert_eq!(
            faulty.master_params(),
            clean.master_params(),
            "site {site}: master parameters diverged under transients"
        );
        assert!(
            tracer.counter_total(zo_trace::names::RETRY_ATTEMPTS) > 0,
            "site {site}: p=0.5 over 25 steps must trigger retries"
        );
    }
}

#[test]
fn transient_streamed_faults_leave_trajectory_bit_identical() {
    let tracer = zo_trace::Tracer::new();
    let faulty_cfg = ZeroOffloadConfig {
        tracer: Some(TracerRef::install(tracer.clone())),
        ..with_plan(cfg(), transient(Site::WireD2h, 0.3).build())
    };
    let mut faulty = ZeroOffloadEngine::new(GptModel::new(GPT, 42), faulty_cfg);
    let mut clean = ZeroOffloadEngine::new(
        GptModel::new(GPT, 42),
        with_plan(cfg(), FaultPlan::disabled()),
    );
    let lf = run_streamed(&mut faulty, 25);
    let lc = run_streamed(&mut clean, 25);
    assert_eq!(lf, lc);
    assert_eq!(faulty.master_params(), clean.master_params());
    assert!(tracer.counter_total(zo_trace::names::RETRY_ATTEMPTS) > 0);
}

#[test]
fn transient_collective_faults_leave_all_ranks_bit_identical() {
    for site in [Site::CollectiveReduceScatter, Site::CollectiveAllGather] {
        let plan = transient(site, 0.4).build();
        let faulty = zero_offload::run_ranks(
            2,
            with_plan(cfg(), plan),
            |_| GptModel::new(GPT, 21),
            |engine| {
                let mut data = BigramLm::new(GPT.vocab, 0.05, 1000);
                let mut losses = Vec::new();
                for _ in 0..10 {
                    let b = data.batch(4, GPT.seq_len);
                    let rank = engine.rank();
                    let inputs = b.inputs[rank * 16..(rank + 1) * 16].to_vec();
                    let targets = b.targets[rank * 16..(rank + 1) * 16].to_vec();
                    losses.push(
                        engine
                            .step(|m| m.train_step(&inputs, &targets, 2, GPT.seq_len, |_| {}))
                            .unwrap()
                            .loss(),
                    );
                }
                (losses, engine.master_shard().to_vec())
            },
        );
        let clean = zero_offload::run_ranks(
            2,
            with_plan(cfg(), FaultPlan::disabled()),
            |_| GptModel::new(GPT, 21),
            |engine| {
                let mut data = BigramLm::new(GPT.vocab, 0.05, 1000);
                let mut losses = Vec::new();
                for _ in 0..10 {
                    let b = data.batch(4, GPT.seq_len);
                    let rank = engine.rank();
                    let inputs = b.inputs[rank * 16..(rank + 1) * 16].to_vec();
                    let targets = b.targets[rank * 16..(rank + 1) * 16].to_vec();
                    losses.push(
                        engine
                            .step(|m| m.train_step(&inputs, &targets, 2, GPT.seq_len, |_| {}))
                            .unwrap()
                            .loss(),
                    );
                }
                (losses, engine.master_shard().to_vec())
            },
        );
        assert_eq!(faulty, clean, "site {site}: sharded trajectory diverged");
    }
}

// ---------------------------------------------------------------------------
// Fatal faults: typed errors, no panics, no deadlocks.
// ---------------------------------------------------------------------------

#[test]
fn fatal_wire_d2h_is_a_typed_step_error() {
    let mut engine = ZeroOffloadEngine::new(
        GptModel::new(GPT, 3),
        with_plan(cfg(), fatal_plan(Site::WireD2h)),
    );
    let mut data = BigramLm::new(GPT.vocab, 0.05, 7);
    let b = data.batch(4, GPT.seq_len);
    let err = engine
        .step(|m| m.train_step(&b.inputs, &b.targets, 4, GPT.seq_len, |_| {}))
        .unwrap_err();
    assert_eq!(
        err.fault(),
        Some(FaultError::Fatal {
            site: Site::WireD2h
        })
    );
    assert_eq!(engine.stats().steps_applied, 0);
}

#[test]
fn fatal_optim_step_fails_before_state_mutates() {
    let mut engine = ZeroOffloadEngine::new(
        GptModel::new(GPT, 3),
        with_plan(cfg(), fatal_plan(Site::OptimCpuStep)),
    );
    let master_before = engine.master_params().to_vec();
    let scale_before = engine.loss_scale();
    let mut data = BigramLm::new(GPT.vocab, 0.05, 7);
    let b = data.batch(4, GPT.seq_len);
    let err = engine
        .step(|m| m.train_step(&b.inputs, &b.targets, 4, GPT.seq_len, |_| {}))
        .unwrap_err();
    assert_eq!(
        err.fault(),
        Some(FaultError::Fatal {
            site: Site::OptimCpuStep
        })
    );
    assert_eq!(
        engine.master_params(),
        &master_before[..],
        "a fatal optimizer fault must not touch the master copy"
    );
    // The scaler already saw the (clean) overflow flag — that's fine; the
    // *parameters and moments* are what recovery restores.
    let _ = scale_before;
}

#[test]
fn fatal_collectives_error_on_every_rank_without_deadlock() {
    for site in [Site::CollectiveReduceScatter, Site::CollectiveAllGather] {
        let results = zero_offload::run_ranks(
            2,
            with_plan(cfg(), fatal_plan(site)),
            |_| GptModel::new(GPT, 5),
            |engine| {
                let mut data = BigramLm::new(GPT.vocab, 0.05, 1000);
                let b = data.batch(2, GPT.seq_len);
                let rank = engine.rank();
                let inputs = b.inputs[rank * 8..(rank + 1) * 8].to_vec();
                let targets = b.targets[rank * 8..(rank + 1) * 8].to_vec();
                engine.step(|m| m.train_step(&inputs, &targets, 1, GPT.seq_len, |_| {}))
            },
        );
        for r in results {
            match r {
                Err(StepError::Fault(FaultError::Fatal { site: s })) => assert_eq!(s, site),
                other => panic!("site {site}: expected fatal fault on every rank, got {other:?}"),
            }
        }
    }
}

#[test]
fn exhausted_retries_surface_as_typed_error() {
    // Transient depth 5 against a 3-attempt budget: retries exhaust.
    let plan = FaultPlan::builder(0xFA11)
        .site(
            Site::WireD2h,
            SiteSpec {
                kind: FaultKind::Transient,
                prob: 1.0,
                depth: 5,
            },
        )
        .retry(zo_fault::RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 1,
            max_backoff_us: 4,
        })
        .build();
    let mut engine = ZeroOffloadEngine::new(GptModel::new(GPT, 3), with_plan(cfg(), plan));
    let mut data = BigramLm::new(GPT.vocab, 0.05, 7);
    let b = data.batch(4, GPT.seq_len);
    let err = engine
        .step(|m| m.train_step(&b.inputs, &b.targets, 4, GPT.seq_len, |_| {}))
        .unwrap_err();
    assert_eq!(
        err.fault(),
        Some(FaultError::Exhausted {
            site: Site::WireD2h,
            attempts: 3
        })
    );
}

// ---------------------------------------------------------------------------
// Stage 3: faults on the parameter-partitioned path.
// ---------------------------------------------------------------------------

/// Ten ZeRO-3 steps at world 2; returns each rank's (losses, shard).
fn zero3_run(engine_cfg: ZeroOffloadConfig) -> Vec<(Vec<f32>, Vec<f32>)> {
    zero_offload::run_zero3_ranks(
        2,
        engine_cfg,
        |_| GptModel::new(GPT, 21),
        |engine| {
            let mut data = BigramLm::new(GPT.vocab, 0.05, 1000);
            let mut losses = Vec::new();
            for _ in 0..10 {
                let b = data.batch(2, GPT.seq_len);
                let rank = engine.rank();
                let inputs = b.inputs[rank * 8..(rank + 1) * 8].to_vec();
                let targets = b.targets[rank * 8..(rank + 1) * 8].to_vec();
                losses.push(
                    engine
                        .step(|m| m.train_step(&inputs, &targets, 1, GPT.seq_len, |_| {}))
                        .unwrap()
                        .loss(),
                );
            }
            (losses, engine.master_shard().to_vec())
        },
    )
}

#[test]
fn transient_param_gather_and_release_faults_leave_ranks_bit_identical() {
    let clean = zero3_run(with_plan(cfg(), FaultPlan::disabled()));
    for site in [Site::CollectiveParamAllGather, Site::ParamRelease] {
        let faulty = zero3_run(with_plan(cfg(), transient(site, 0.4).build()));
        assert_eq!(faulty, clean, "site {site}: stage-3 trajectory diverged");
    }
}

#[test]
fn fatal_param_allgather_errors_on_every_rank_without_deadlock() {
    // The shared fault lane makes the verdict rank-agreed: both ranks see
    // the same fatal decision inside the gather, error out together, and
    // nobody is left waiting on a barrier.
    let results = zero_offload::run_zero3_ranks(
        2,
        with_plan(cfg(), fatal_plan(Site::CollectiveParamAllGather)),
        |_| GptModel::new(GPT, 5),
        |engine| {
            let mut data = BigramLm::new(GPT.vocab, 0.05, 1000);
            let b = data.batch(2, GPT.seq_len);
            let rank = engine.rank();
            let inputs = b.inputs[rank * 8..(rank + 1) * 8].to_vec();
            let targets = b.targets[rank * 8..(rank + 1) * 8].to_vec();
            engine.step(|m| m.train_step(&inputs, &targets, 1, GPT.seq_len, |_| {}))
        },
    );
    for r in results {
        match r {
            Err(StepError::Fault(FaultError::Fatal { site })) => {
                assert_eq!(site, Site::CollectiveParamAllGather)
            }
            other => panic!("expected a fatal gather fault on every rank, got {other:?}"),
        }
    }
}

#[test]
fn stage3_skipped_step_still_emits_a_complete_step_record() {
    // Regression: an overflow-skipped stage-3 step must still close its
    // step record *with* the `param.allgather` spans the schedule already
    // issued before the overflow was detected — the gathers happen in
    // pre-forward, the verdict only at the transfer boundary.
    let tracer = zo_trace::Tracer::new();
    let overflow_cfg = ZeroOffloadConfig {
        tracer: Some(TracerRef::install(tracer.clone())),
        loss_scale: LossScaleConfig {
            init_scale: 3.4e38,
            ..Default::default()
        },
        ..with_plan(cfg(), FaultPlan::disabled())
    };
    let out = zero_offload::run_zero3_ranks(
        1,
        overflow_cfg,
        |_| GptModel::new(GPT, 8),
        |engine| {
            let mut data = BigramLm::new(GPT.vocab, 0.05, 21);
            let b = data.batch(2, GPT.seq_len);
            engine
                .step(|m| m.train_step(&b.inputs, &b.targets, 2, GPT.seq_len, |_| {}))
                .unwrap()
        },
    );
    assert!(matches!(out[0], StepOutcome::SkippedOverflow { .. }));
    let steps = tracer.step_metrics();
    assert_eq!(steps.len(), 1, "the skipped step must close its boundary");
    let row = &steps[0];
    assert_eq!(row.counter("steps_skipped"), 1);
    assert_eq!(row.counter(zo_trace::names::OPTIM_OVERFLOW), 1);
    assert!(
        row.phase_us
            .iter()
            .any(|(name, _)| name == zo_trace::names::PARAM_ALLGATHER),
        "gather spans issued before the overflow must stay in the record: {:?}",
        row.phase_us
    );
    assert!(!tracer
        .spans_named(zo_trace::names::PARAM_ALLGATHER)
        .is_empty());
    assert!(row.phase("fwd_bwd") > 0);
}

// ---------------------------------------------------------------------------
// Degradation policies.
// ---------------------------------------------------------------------------

#[test]
fn poisoned_stream_falls_back_to_post_hoc_and_training_continues() {
    // A fatal mid-backward wire fault poisons the streamed window; the
    // step must recover by retransmitting post hoc, not error out.
    let tracer = zo_trace::Tracer::new();
    let faulty_cfg = ZeroOffloadConfig {
        tracer: Some(TracerRef::install(tracer.clone())),
        ..with_plan(cfg(), fatal_plan(Site::WireD2h))
    };
    let mut degraded = ZeroOffloadEngine::new(GptModel::new(GPT, 42), faulty_cfg);
    let mut clean = ZeroOffloadEngine::new(
        GptModel::new(GPT, 42),
        with_plan(cfg(), FaultPlan::disabled()),
    );
    let ld = run_streamed(&mut degraded, 15);
    let lc = run_streamed(&mut clean, 15);
    assert_eq!(ld, lc, "degraded mode must not change numerics");
    assert_eq!(degraded.master_params(), clean.master_params());
    assert!(
        tracer.counter_total(zo_trace::names::FAULT_STREAM_FALLBACK) >= 15,
        "every streamed window should have fallen back"
    );
    assert_eq!(degraded.stats().steps_applied, 15);
}

#[test]
fn injected_nan_bucket_is_absorbed_by_skip_and_rescale() {
    let tracer = zo_trace::Tracer::new();
    let plan = FaultPlan::builder(7)
        .site(
            Site::WireD2h,
            SiteSpec {
                kind: FaultKind::GradNan,
                prob: 1.0,
                depth: 1,
            },
        )
        .build();
    let faulty_cfg = ZeroOffloadConfig {
        tracer: Some(TracerRef::install(tracer.clone())),
        ..with_plan(cfg(), plan)
    };
    let mut engine = ZeroOffloadEngine::new(GptModel::new(GPT, 9), faulty_cfg);
    let scale_before = engine.loss_scale();
    let mut data = BigramLm::new(GPT.vocab, 0.05, 7);
    for _ in 0..3 {
        let b = data.batch(4, GPT.seq_len);
        let out = engine
            .step(|m| m.train_step(&b.inputs, &b.targets, 4, GPT.seq_len, |_| {}))
            .unwrap();
        assert!(matches!(out, StepOutcome::SkippedOverflow { .. }));
    }
    assert_eq!(engine.stats().steps_skipped, 3);
    assert_eq!(engine.stats().steps_applied, 0);
    assert!(engine.loss_scale() < scale_before, "scale must back off");
    assert_eq!(tracer.counter_total(zo_trace::names::FAULT_GRAD_NAN), 3);
}

#[test]
fn overflow_storm_surfaces_after_the_configured_limit() {
    let plan = FaultPlan::builder(7)
        .site(
            Site::WireD2h,
            SiteSpec {
                kind: FaultKind::GradNan,
                prob: 1.0,
                depth: 1,
            },
        )
        .build();
    let storm_cfg = ZeroOffloadConfig {
        overflow_storm_limit: 3,
        ..with_plan(cfg(), plan)
    };
    let mut engine = ZeroOffloadEngine::new(GptModel::new(GPT, 9), storm_cfg);
    let mut data = BigramLm::new(GPT.vocab, 0.05, 7);
    let mut last = None;
    for _ in 0..3 {
        let b = data.batch(4, GPT.seq_len);
        last = Some(engine.step(|m| m.train_step(&b.inputs, &b.targets, 4, GPT.seq_len, |_| {})));
    }
    match last.unwrap() {
        Err(StepError::OverflowStorm { consecutive }) => assert_eq!(consecutive, 3),
        other => panic!("expected an overflow storm on the 3rd skip, got {other:?}"),
    }
}

#[test]
fn skipped_step_still_emits_a_complete_step_record() {
    // Regression (overflow handling): an overflow-skipped step must emit
    // its step-timeline row *with* the optimizer phase key present (zero
    // duration) and the `optim.overflow` counter — not a gap in the
    // timeline or a row whose spans leak into the next step.
    let tracer = zo_trace::Tracer::new();
    let overflow_cfg = ZeroOffloadConfig {
        tracer: Some(TracerRef::install(tracer.clone())),
        loss_scale: LossScaleConfig {
            init_scale: 3.4e38,
            ..Default::default()
        },
        ..with_plan(cfg(), FaultPlan::disabled())
    };
    let mut engine = ZeroOffloadEngine::new(GptModel::new(GPT, 8), overflow_cfg);
    let mut data = BigramLm::new(GPT.vocab, 0.05, 21);
    let b = data.batch(2, GPT.seq_len);
    let out = engine
        .step(|m| m.train_step(&b.inputs, &b.targets, 2, GPT.seq_len, |_| {}))
        .unwrap();
    assert!(matches!(out, StepOutcome::SkippedOverflow { .. }));
    let steps = tracer.step_metrics();
    assert_eq!(steps.len(), 1, "the skipped step must close its boundary");
    let row = &steps[0];
    assert_eq!(row.counter("steps_skipped"), 1);
    assert_eq!(row.counter(zo_trace::names::OPTIM_OVERFLOW), 1);
    assert!(
        row.phase_us.iter().any(|(name, _)| name == "cpu_adam"),
        "the update phase key must exist on a skipped step: {:?}",
        row.phase_us
    );
    assert!(row.phase("fwd_bwd") > 0);
}

// ---------------------------------------------------------------------------
// Crash recovery.
// ---------------------------------------------------------------------------

fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("zo-fault-matrix-{}-{name}.bin", std::process::id()))
}

#[test]
fn killed_between_update_and_copy_back_resumes_bit_identically() {
    // Reference: 10 uninterrupted steps.
    let mut reference = ZeroOffloadEngine::new(
        GptModel::new(GPT, 42),
        with_plan(cfg(), FaultPlan::disabled()),
    );
    let all = run(&mut reference, 0, 10);

    // Victim: 5 clean steps, checkpoint to disk...
    let mut victim = ZeroOffloadEngine::new(
        GptModel::new(GPT, 42),
        with_plan(cfg(), FaultPlan::disabled()),
    );
    run(&mut victim, 0, 5);
    let path = scratch("crash");
    victim.save_checkpoint_file(&path).unwrap();
    let ckpt = victim.save_checkpoint();

    // ...then die at the h2d publish gate — *after* the CPU optimizer
    // updated the master copy, *before* the parameters reached the model.
    let mut dying = ZeroOffloadEngine::new(
        GptModel::new(GPT, 42),
        with_plan(cfg(), fatal_plan(Site::WireH2d)),
    );
    dying.restore_checkpoint(&ckpt).unwrap();
    let mut data = BigramLm::new(GPT.vocab, 0.05, 7);
    let mut batches = Vec::new();
    for _ in 0..6 {
        batches.push(data.batch(4, GPT.seq_len));
    }
    let b = &batches[5];
    let err = dying
        .step(|m| m.train_step(&b.inputs, &b.targets, 4, GPT.seq_len, |_| {}))
        .unwrap_err();
    assert_eq!(
        err.fault(),
        Some(FaultError::Fatal {
            site: Site::WireH2d
        })
    );
    assert_ne!(
        dying.master_params(),
        &ckpt.master[..],
        "the dead attempt's update had already mutated the master copy"
    );

    // Recovery: a fresh process restores the checkpoint file and replays.
    let mut resumed = ZeroOffloadEngine::new(
        GptModel::new(GPT, 99),
        with_plan(cfg(), FaultPlan::disabled()),
    );
    resumed.restore_checkpoint_file(&path).unwrap();
    let tail = run(&mut resumed, 5, 5);
    assert_eq!(&all[5..], &tail[..], "resumed losses must match");
    assert_eq!(
        reference.master_params(),
        resumed.master_params(),
        "resumed master copy must be bit-identical to the uninterrupted run"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn fatal_checkpoint_write_leaves_a_detectably_torn_file() {
    let mut engine = ZeroOffloadEngine::new(
        GptModel::new(GPT, 3),
        with_plan(cfg(), fatal_plan(Site::CheckpointWrite)),
    );
    run(&mut engine, 0, 2);
    let path = scratch("torn");
    let err = engine.save_checkpoint_file(&path).unwrap_err();
    assert!(matches!(err, CheckpointError::Fault(_)), "got {err:?}");
    // The torn file exists but restore *detects* it — typed, no panic.
    let mut victim = ZeroOffloadEngine::new(
        GptModel::new(GPT, 3),
        with_plan(cfg(), FaultPlan::disabled()),
    );
    let restore_err = victim.restore_checkpoint_file(&path).unwrap_err();
    assert!(
        matches!(restore_err, CheckpointError::Truncated { .. }),
        "got {restore_err:?}"
    );
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Memory-tier sites: the spilled optimizer path, both fault classes.
// ---------------------------------------------------------------------------

fn nvme_cfg() -> ZeroOffloadConfig {
    ZeroOffloadConfig {
        optimizer_tier: zero_offload::TierKind::Nvme,
        tier_scratch_bytes: 32 * 1024,
        ..cfg()
    }
}

#[test]
fn transient_tier_faults_leave_trajectory_bit_identical() {
    for site in [Site::TierRead, Site::TierWrite] {
        let tracer = zo_trace::Tracer::new();
        let faulty_cfg = ZeroOffloadConfig {
            tracer: Some(TracerRef::install(tracer.clone())),
            ..with_plan(nvme_cfg(), transient(site, 0.5).build())
        };
        let mut faulty = ZeroOffloadEngine::new(GptModel::new(GPT, 42), faulty_cfg);
        let mut clean = ZeroOffloadEngine::new(
            GptModel::new(GPT, 42),
            with_plan(nvme_cfg(), FaultPlan::disabled()),
        );
        let lf = run(&mut faulty, 0, 25);
        let lc = run(&mut clean, 0, 25);
        assert_eq!(lf, lc, "site {site}: losses diverged under transients");
        assert_eq!(
            faulty.master_params(),
            clean.master_params(),
            "site {site}: master parameters diverged under transients"
        );
        assert!(
            tracer.counter_total(zo_trace::names::RETRY_ATTEMPTS) > 0,
            "site {site}: p=0.5 over 25 steps must trigger retries"
        );
    }
}

#[test]
fn fatal_tier_faults_surface_as_typed_errors() {
    for site in [Site::TierRead, Site::TierWrite] {
        let mut engine = ZeroOffloadEngine::new(
            GptModel::new(GPT, 3),
            with_plan(nvme_cfg(), fatal_plan(site)),
        );
        let mut data = BigramLm::new(GPT.vocab, 0.05, 7);
        let b = data.batch(4, GPT.seq_len);
        let err = engine
            .step(|m| m.train_step(&b.inputs, &b.targets, 4, GPT.seq_len, |_| {}))
            .unwrap_err();
        assert_eq!(err.fault(), Some(FaultError::Fatal { site }));
    }
}

// ---------------------------------------------------------------------------
// The CI matrix contract: `ZO_FAULTS` from the environment.
// ---------------------------------------------------------------------------

#[test]
fn env_plan_cannot_perturb_the_trajectory() {
    // No explicit plan: the engine reads `ZO_FAULTS` (the CI matrix sets
    // `off` or `transient-heavy`). Both presets must produce the exact
    // fault-free trajectory — `off` trivially, `transient-heavy` because
    // every injected fault is a recoverable transient.
    let env_plan = Arc::new(FaultPlan::from_env());
    for (site, spec) in Site::ALL
        .iter()
        .filter_map(|s| env_plan.site_spec(*s).map(|spec| (*s, spec)))
    {
        assert_eq!(
            spec.kind,
            FaultKind::Transient,
            "this test only runs under all-transient ZO_FAULTS plans; site {site} is not"
        );
    }
    let mut from_env = ZeroOffloadEngine::new(GptModel::new(GPT, 42), cfg());
    let mut explicit_off = ZeroOffloadEngine::new(
        GptModel::new(GPT, 42),
        with_plan(cfg(), FaultPlan::disabled()),
    );
    let le = run(&mut from_env, 0, 20);
    let lo = run(&mut explicit_off, 0, 20);
    assert_eq!(le, lo, "ZO_FAULTS transients must not perturb training");
    assert_eq!(from_env.master_params(), explicit_off.master_params());
}

// ---------------------------------------------------------------------------
// Lock-step `wire.d2h` draws on the sharded path.
// ---------------------------------------------------------------------------

/// One rank's (losses, master shard, frames shipped, first error with its
/// step index).
type RankRun = (
    Vec<f32>,
    Vec<f32>,
    u64,
    Option<(usize, StepError<zo_tensor::TensorError>)>,
);

/// Up to `steps` ZeRO-2 steps at `world` ranks on [`GPT`], stopping at
/// the first error.
fn zero2_until_error(world: usize, steps: usize, engine_cfg: ZeroOffloadConfig) -> Vec<RankRun> {
    zero_offload::run_ranks(
        world,
        engine_cfg,
        |_| GptModel::new(GPT, 21),
        |engine| {
            let mut data = BigramLm::new(GPT.vocab, 0.05, 1000);
            let mut losses = Vec::new();
            let mut error = None;
            for step in 0..steps {
                let b = data.batch(world, GPT.seq_len);
                let r = engine.rank();
                let n = GPT.seq_len;
                let inputs = b.inputs[r * n..(r + 1) * n].to_vec();
                let targets = b.targets[r * n..(r + 1) * n].to_vec();
                match engine.step(|m| m.train_step(&inputs, &targets, 1, n, |_| {})) {
                    Ok(out) => losses.push(out.loss()),
                    Err(e) => {
                        error = Some((step, e));
                        break;
                    }
                }
            }
            let frames = engine.stats().frames;
            (losses, engine.master_shard().to_vec(), frames, error)
        },
    )
}

/// The ranks of a world-2 group own uneven pieces of the layer buckets,
/// so they ship different frame counts; the `wire.d2h` gate is drawn once
/// per layer bucket on every rank regardless, so a fatal fault lands in
/// the same step on both ranks and the group joins instead of stranding
/// one rank at the next collective.
#[test]
fn fatal_sharded_wire_d2h_fires_on_every_rank_in_the_same_step() {
    let clean = zero2_until_error(2, 4, with_plan(cfg(), FaultPlan::disabled()));
    assert_ne!(
        clean[0].2, clean[1].2,
        "the premise: the ranks must ship different frame counts"
    );

    // A plan whose fault lands mid-run, after the per-rank draw counts of
    // a per-frame gate would already have drifted apart. The search runs
    // on its own thread, so a rank stranded at a collective fails the test
    // instead of hanging it.
    let (done, result) = std::sync::mpsc::channel();
    let search = std::thread::spawn(move || {
        let fired = (0..64u64)
            .map(|seed| {
                let plan = FaultPlan::builder(seed)
                    .site(
                        Site::WireD2h,
                        SiteSpec {
                            kind: FaultKind::Fatal,
                            prob: 0.1,
                            depth: 1,
                        },
                    )
                    .build();
                zero2_until_error(2, 12, with_plan(cfg(), plan))
            })
            .find(|out| matches!(out[0].3, Some((step, _)) if step > 0));
        done.send(fired).ok();
    });
    let out = match result.recv_timeout(std::time::Duration::from_secs(300)) {
        Ok(fired) => {
            search.join().expect("the search thread sent its result");
            fired.expect("some seed fires after the first step")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("a rank was stranded at a collective: the ranks' fault draws drifted apart")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(search.join().expect_err("the search thread panicked"))
        }
    };
    let first = out[0].3.as_ref().unwrap();
    assert_eq!(
        first.1,
        StepError::Fault(FaultError::Fatal {
            site: Site::WireD2h
        })
    );
    assert_eq!(out[1].3.as_ref(), Some(first), "ranks must fail together");
}

#[test]
fn transient_sharded_wire_d2h_faults_leave_ranks_bit_identical() {
    for world in [2usize, 4] {
        let tracer = zo_trace::Tracer::new();
        let faulty_cfg = ZeroOffloadConfig {
            tracer: Some(TracerRef::install(tracer.clone())),
            ..with_plan(cfg(), transient(Site::WireD2h, 0.4).build())
        };
        let faulty = zero2_until_error(world, 8, faulty_cfg);
        let clean = zero2_until_error(world, 8, with_plan(cfg(), FaultPlan::disabled()));
        for (rank, (f, c)) in faulty.iter().zip(&clean).enumerate() {
            assert!(f.3.is_none(), "world {world} rank {rank}: {:?}", f.3);
            assert_eq!(f.0, c.0, "world {world} rank {rank}: losses diverged");
            assert_eq!(f.1, c.1, "world {world} rank {rank}: shard diverged");
        }
        assert!(tracer.counter_total(zo_trace::names::RETRY_ATTEMPTS) > 0);
    }
}
