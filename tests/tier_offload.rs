//! The memory-tier stack, end to end: a run whose optimizer states spill
//! to the file-backed NVMe tier must be **bitwise identical** to the
//! DRAM-resident run — same per-step losses, same master parameters —
//! on the single-replica engine and the ZeRO-3 parameter-partitioned
//! engine, with and without fault injection. The streaming schedule must
//! also honor its DRAM scratch budget (observable as the `tier_hwm_bytes`
//! gauge). That it overlaps tier I/O with the tiled Adam update is proven
//! beside the schedule itself, in `zero_offload::tier`'s unit tests, over
//! a rendezvous tier — not here on wall-clock spans, whose verdict
//! depended on how slow the file system was.

use zero_offload::{
    DramTier, FaultsRef, NvmeTier, TierKind, TracerRef, ZeroOffloadConfig, ZeroOffloadEngine,
};
use zo_fault::{FaultError, FaultKind, FaultPlan, Site, SiteSpec};
use zo_models::BigramLm;
use zo_nn::{GptConfig, GptModel};
use zo_optim::{AdamParams, LossScaleConfig};
use zo_trace::names;

const GPT: GptConfig = GptConfig {
    vocab: 16,
    seq_len: 8,
    hidden: 16,
    heads: 2,
    layers: 2,
};

/// Small enough to force several partitions on this model, large enough
/// to stay above the tiler's minimum tile size.
const SCRATCH: usize = 32 * 1024;

fn cfg(tier: TierKind) -> ZeroOffloadConfig {
    ZeroOffloadConfig {
        adam: AdamParams {
            lr: 3e-3,
            ..AdamParams::default()
        },
        loss_scale: LossScaleConfig {
            init_scale: 256.0,
            ..Default::default()
        },
        optimizer_tier: tier,
        tier_scratch_bytes: SCRATCH,
        ..ZeroOffloadConfig::default()
    }
}

fn with_plan(base: ZeroOffloadConfig, plan: FaultPlan) -> ZeroOffloadConfig {
    ZeroOffloadConfig {
        faults: Some(FaultsRef::install(plan)),
        ..base
    }
}

fn run(engine: &mut ZeroOffloadEngine<GptModel>, steps: usize) -> Vec<f32> {
    let mut data = BigramLm::new(GPT.vocab, 0.05, 7);
    (0..steps)
        .map(|_| {
            let b = data.batch(4, GPT.seq_len);
            engine
                .step(|m| m.train_step(&b.inputs, &b.targets, 4, GPT.seq_len, |_| {}))
                .unwrap()
                .loss()
        })
        .collect()
}

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

// ---------------------------------------------------------------------------
// The non-negotiable invariant: spilled ≡ resident, bit for bit.
// ---------------------------------------------------------------------------

#[test]
fn nvme_spilled_run_is_bitwise_identical_to_dram_run() {
    let mut dram = ZeroOffloadEngine::new(
        GptModel::new(GPT, 42),
        with_plan(cfg(TierKind::Dram), FaultPlan::disabled()),
    );
    let mut nvme = ZeroOffloadEngine::new(
        GptModel::new(GPT, 42),
        with_plan(cfg(TierKind::Nvme), FaultPlan::disabled()),
    );
    let ld = run(&mut dram, 25);
    let ln = run(&mut nvme, 25);
    assert_eq!(ld, ln, "losses diverged between DRAM and NVMe tiers");
    assert_eq!(
        dram.master_params(),
        nvme.master_params(),
        "master parameters diverged between DRAM and NVMe tiers"
    );
}

#[test]
fn nvme_spilled_run_is_bitwise_identical_under_transient_heavy_faults() {
    // The transient-heavy preset injects (among everything else) tier
    // reads/writes; retries must cost time only. The DRAM run under the
    // same preset draws no tier sites — per-site fault counters keep the
    // rest of its sequence identical, so the two still agree bitwise.
    let preset = FaultPlan::transient_heavy();
    let tracer = zo_trace::Tracer::new();
    let nvme_cfg = ZeroOffloadConfig {
        tracer: Some(TracerRef::install(tracer.clone())),
        ..with_plan(cfg(TierKind::Nvme), preset.clone())
    };
    let mut dram = ZeroOffloadEngine::new(
        GptModel::new(GPT, 42),
        with_plan(cfg(TierKind::Dram), preset),
    );
    let mut nvme = ZeroOffloadEngine::new(GptModel::new(GPT, 42), nvme_cfg);
    let ld = run(&mut dram, 20);
    let ln = run(&mut nvme, 20);
    assert_eq!(ld, ln, "losses diverged under transient-heavy faults");
    assert_eq!(dram.master_params(), nvme.master_params());
    assert!(
        tracer.counter_total(names::RETRY_ATTEMPTS) > 0,
        "transient-heavy over 20 steps must exercise retries"
    );
}

#[test]
fn zero3_nvme_ranks_match_dram_ranks_bitwise() {
    let dram = zero3_run(with_plan(cfg(TierKind::Dram), FaultPlan::disabled()));
    let nvme = zero3_run(with_plan(cfg(TierKind::Nvme), FaultPlan::disabled()));
    assert_eq!(dram, nvme, "stage-3 trajectory diverged across tiers");
}

// ---------------------------------------------------------------------------
// The scratch budget: tiling keeps DRAM held by the optimizer bounded.
// ---------------------------------------------------------------------------

#[test]
fn tiling_respects_the_configured_scratch_budget() {
    let tracer = zo_trace::Tracer::new();
    let nvme_cfg = ZeroOffloadConfig {
        tracer: Some(TracerRef::install(tracer.clone())),
        ..with_plan(cfg(TierKind::Nvme), FaultPlan::disabled())
    };
    let mut engine = ZeroOffloadEngine::new(GptModel::new(GPT, 42), nvme_cfg);
    let n = engine.master_params().len();
    run(&mut engine, 3);
    let hwm = tracer
        .high_water(names::TIER_HWM_BYTES)
        .expect("tiered steps must record the scratch high-water mark");
    assert!(
        hwm <= SCRATCH as f64,
        "scratch high-water mark {hwm} exceeds the configured budget {SCRATCH}"
    );
    // The budget genuinely forces tiling: full residency would need 24
    // bytes per element per slot across three slots.
    assert!(
        (hwm as usize) < 72 * n,
        "budget must be binding for this model (hwm {hwm}, n {n})"
    );
    // Traffic flows every step: each of the 3 steps re-reads and
    // re-writes the full 12-byte-per-element state.
    let traffic = tracer.counter_total(names::TIER_TRAFFIC_BYTES);
    assert!(
        traffic >= (3 * 2 * 12 * n) as u64,
        "tier traffic {traffic} below 3 steps of full-state read+write"
    );
}

// ---------------------------------------------------------------------------
// Faults: typed errors, torn partitions, checkpoint recovery.
// ---------------------------------------------------------------------------

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

#[test]
fn fatal_tier_read_surfaces_as_typed_error_and_leaves_state_clean() {
    let mut engine = ZeroOffloadEngine::new(
        GptModel::new(GPT, 3),
        with_plan(cfg(TierKind::Nvme), fatal_plan(Site::TierRead)),
    );
    let before = engine.master_params().to_vec();
    let mut data = BigramLm::new(GPT.vocab, 0.05, 7);
    let b = data.batch(4, GPT.seq_len);
    let err = engine
        .step(|m| m.train_step(&b.inputs, &b.targets, 4, GPT.seq_len, |_| {}))
        .unwrap_err();
    assert_eq!(
        err.fault(),
        Some(FaultError::Fatal {
            site: Site::TierRead
        })
    );
    // The gate fired before any tile mutated: master is untouched.
    assert_eq!(engine.master_params(), &before[..]);
}

#[test]
fn fatal_tier_write_tears_a_partition_and_checkpoint_restore_resumes_bitwise() {
    // Reference trajectory: 10 clean steps.
    let mut clean = ZeroOffloadEngine::new(
        GptModel::new(GPT, 42),
        with_plan(cfg(TierKind::Nvme), FaultPlan::disabled()),
    );
    let reference = run(&mut clean, 10);

    // Victim: 5 clean steps, checkpoint, then a fatal tier.write.
    let mut victim = ZeroOffloadEngine::new(
        GptModel::new(GPT, 42),
        with_plan(cfg(TierKind::Nvme), FaultPlan::disabled()),
    );
    let first_half = run(&mut victim, 5);
    assert_eq!(first_half, reference[..5]);
    let ckpt = victim.save_checkpoint();
    let err = {
        // Restore the checkpoint into an engine whose plan injects a
        // fatal write, and take the step that dies mid-spill.
        let mut armed = ZeroOffloadEngine::new(
            GptModel::new(GPT, 42),
            with_plan(cfg(TierKind::Nvme), fatal_plan(Site::TierWrite)),
        );
        armed.restore_checkpoint(&ckpt).unwrap();
        let mut data = BigramLm::new(GPT.vocab, 0.05, 7);
        for _ in 0..5 {
            data.batch(4, GPT.seq_len);
        }
        let b = data.batch(4, GPT.seq_len);
        armed
            .step(|m| m.train_step(&b.inputs, &b.targets, 4, GPT.seq_len, |_| {}))
            .unwrap_err()
    };
    assert_eq!(
        err.fault(),
        Some(FaultError::Fatal {
            site: Site::TierWrite
        })
    );

    // Recovery: restore the checkpoint into a healthy engine and replay
    // steps 5..10 — the resumed tail must match the reference bitwise.
    let mut resumed = ZeroOffloadEngine::new(
        GptModel::new(GPT, 42),
        with_plan(cfg(TierKind::Nvme), FaultPlan::disabled()),
    );
    resumed.restore_checkpoint(&ckpt).unwrap();
    let mut data = BigramLm::new(GPT.vocab, 0.05, 7);
    for _ in 0..5 {
        data.batch(4, GPT.seq_len);
    }
    let tail: Vec<f32> = (0..5)
        .map(|_| {
            let b = data.batch(4, GPT.seq_len);
            resumed
                .step(|m| m.train_step(&b.inputs, &b.targets, 4, GPT.seq_len, |_| {}))
                .unwrap()
                .loss()
        })
        .collect();
    assert_eq!(tail, reference[5..]);
    assert_eq!(resumed.master_params(), clean.master_params());
}

#[test]
fn fatal_tier_write_leaves_a_torn_partition_behind() {
    // The unit-level contract behind the recovery story: a fatal write
    // tears partition 0 on the tier, and the tear decodes as a typed
    // truncation — exactly like the checkpoint half-file.
    use zero_offload::MemoryTier;
    let tier = NvmeTier::new().expect("spill dir");
    let payload = vec![0xABu8; 256];
    tier.write_part(0, &payload).unwrap();
    tier.tear_part(0).unwrap();
    let mut out = Vec::new();
    let err = tier.read_part(0, &mut out).unwrap_err();
    assert!(
        matches!(
            err,
            zero_offload::TierError::Frame(zero_offload::FrameError::Truncated { .. })
        ),
        "torn partition must decode to a typed truncation, got {err:?}"
    );
    // Same contract on the DRAM tier (the machinery is tier-agnostic).
    let dram = DramTier::new();
    dram.write_part(0, &payload).unwrap();
    dram.tear_part(0).unwrap();
    assert!(matches!(
        dram.read_part(0, &mut out).unwrap_err(),
        zero_offload::TierError::Frame(zero_offload::FrameError::Truncated { .. })
    ));
}
