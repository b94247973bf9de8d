//! Multi-job service acceptance: the isolation guarantees of `zo-serve`,
//! proven with the repo's trajectory-fingerprint machinery.
//!
//! (a) Every job co-scheduled under the service is bit-identical to the
//!     same spec run alone — including the repo's pinned fingerprint run.
//! (b) A fatal fault in one job's domain quarantines and
//!     checkpoint-resumes that job bitwise while neighbors' fingerprints
//!     are unmoved.
//! (c) Elastic rank join/leave mid-run converges to the same final state
//!     as an uninterrupted run.
//!
//! The thread axis (`ZO_THREADS` 1 and 4) and the fault-preset axis
//! (`ZO_FAULTS` off and transient-heavy) are driven by `scripts/ci.sh`,
//! which runs this harness under each environment.

use std::path::PathBuf;
use std::sync::Arc;

use zero_offload::TierKind;
use zo_bench::trajectory::{fingerprint_config, fingerprint_model, PINNED_TRAJECTORY_FINGERPRINT};
use zo_fault::{lane, FaultKind, FaultPlan, FaultSession, Site, SiteSpec};
use zo_nn::GptConfig;
use zo_serve::{run_solo, DataMode, JobSpec, JobState, Service, StageSpec};

const GPT: GptConfig = GptConfig {
    vocab: 32,
    seq_len: 16,
    hidden: 32,
    heads: 2,
    layers: 2,
};

/// A fresh per-test scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zo_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn single_spec(name: &str, steps: usize) -> JobSpec {
    let mut spec = JobSpec::new(name, GPT, steps);
    spec.config = fingerprint_config(TierKind::Dram);
    spec
}

fn zero2_spec(name: &str, steps: usize, world: usize, data: DataMode) -> JobSpec {
    let mut spec = single_spec(name, steps);
    spec.stage = StageSpec::Zero2 { world };
    spec.data = data;
    spec
}

fn zero3_spec(name: &str, steps: usize, world: usize) -> JobSpec {
    let mut spec = single_spec(name, steps);
    spec.stage = StageSpec::Zero3 { world };
    spec.data = DataMode::Sliced;
    spec.batch = world; // one sequence per rank, like the zero3 fingerprint
    spec
}

/// (a) Each co-scheduled job — one of every engine stage — reproduces
/// its solo fingerprint bitwise, and the schedule itself is replayable.
#[test]
fn co_scheduled_jobs_match_solo_fingerprints() {
    let specs = || {
        let mut z2 = zero2_spec("z2", 12, 2, DataMode::Sliced);
        z2.priority = 2; // uneven quanta must not move anyone's bits
        vec![single_spec("single", 12), z2, zero3_spec("z3", 10, 2)]
    };

    let run = |seed: u64| {
        let mut service = Service::new(seed);
        for spec in specs() {
            service.submit(spec).expect("submit");
        }
        service.run_to_completion()
    };
    let report = run(7);
    let replay = run(7);

    assert_eq!(
        report.schedule, replay.schedule,
        "same seed must replay the same schedule"
    );
    for spec in specs() {
        let solo = run_solo(spec.clone());
        let served = report.job(&spec.name).expect("job report");
        assert_eq!(served.state, JobState::Completed);
        assert_eq!(solo.state, JobState::Completed);
        assert_eq!(
            served.fingerprint, solo.fingerprint,
            "{}: co-scheduled trajectory moved vs solo",
            spec.name
        );
        assert_eq!(served.losses, solo.losses, "{}: losses moved", spec.name);
    }
    // Different seed: possibly different schedule, same fingerprints.
    let other = run(8);
    for job in &report.jobs {
        assert_eq!(
            other.job(&job.name).unwrap().fingerprint,
            job.fingerprint,
            "{}: schedule seed must never move a trajectory",
            job.name
        );
    }
}

/// (a, pinned) The service reproduces the repo's pinned trajectory
/// fingerprint while a neighbor is co-scheduled — the strongest
/// "bit-identical to running alone" statement the repo can make.
#[test]
fn service_trajectory_matches_pinned_fingerprint() {
    let gpt = fingerprint_model();
    let mut pinned = JobSpec::new("pinned", gpt, zo_bench::trajectory::PINNED_STEPS);
    pinned.config = fingerprint_config(TierKind::Dram);
    // Identical data stream to zo_bench::trajectory::run_single.
    pinned.model_seed = 42;
    pinned.data_seed = 7;
    pinned.data_noise = 0.02;
    pinned.batch = 4;

    let mut service = Service::new(3);
    service.submit(pinned).expect("submit pinned");
    service
        .submit(single_spec("neighbor", 6))
        .expect("submit neighbor");
    let report = service.run_to_completion();
    let job = report.job("pinned").unwrap();
    assert_eq!(job.state, JobState::Completed);
    assert_eq!(
        job.fingerprint, PINNED_TRAJECTORY_FINGERPRINT,
        "service run of the fingerprint spec must hit the pin: got {:016x}",
        job.fingerprint
    );
}

/// Finds a plan seed whose first fatal `optim.cpu_step` draw on the
/// engine lane lands at applied step `6..12` of a 15-step run, and
/// returns (plan, firing step).
fn fatal_plan_firing_mid_run() -> (FaultPlan, usize) {
    for seed in 0..512 {
        let plan = FaultPlan::builder(seed)
            .site(
                Site::OptimCpuStep,
                SiteSpec {
                    kind: FaultKind::Fatal,
                    prob: 0.08,
                    depth: 0,
                },
            )
            .build();
        let mut probe = FaultSession::new(Arc::new(plan.clone()), lane::ENGINE);
        let firing = (0..15).find(|_| probe.draw(Site::OptimCpuStep).is_some());
        if let Some(k) = firing {
            if (6..12).contains(&k) {
                return (plan, k);
            }
        }
    }
    panic!("no seed fires optim.cpu_step in steps 6..12");
}

/// (b) A fatal fault in one job's domain quarantines that job; it
/// resumes from its checkpoint bitwise, and co-scheduled neighbors'
/// fingerprints are unmoved.
#[test]
fn fatal_fault_quarantines_and_resumes_bitwise() {
    let (plan, firing_step) = fatal_plan_firing_mid_run();
    let dir = scratch_dir("quarantine");

    let faulty = {
        let mut spec = single_spec("victim", 15);
        spec.faults = Some(plan);
        spec.checkpoint_every = 3;
        spec.max_restarts = 1;
        spec
    };
    let clean = {
        // The baseline the victim must land on: same trajectory, no
        // faults, run alone.
        let mut spec = single_spec("victim", 15);
        spec.faults = Some(FaultPlan::disabled());
        spec
    };
    let neighbor = |name: &str| {
        let mut spec = zero2_spec(name, 12, 2, DataMode::Sliced);
        spec.faults = Some(FaultPlan::disabled());
        spec
    };

    let mut service = Service::with_checkpoint_root(11, &dir);
    service.submit(faulty).expect("submit victim");
    service
        .submit(neighbor("bystander"))
        .expect("submit bystander");
    let report = service.run_to_completion();

    let victim = report.job("victim").unwrap();
    assert_eq!(victim.state, JobState::Completed);
    assert_eq!(victim.restarts, 1, "the fatal fault must quarantine once");
    let expected_resume = (firing_step / 3) * 3;
    assert!(expected_resume > 0, "fault must fire after a checkpoint");
    assert_eq!(
        victim.resumed_from,
        Some(expected_resume),
        "must resume from the newest checkpoint before step {firing_step}"
    );

    let solo_clean = run_solo(clean);
    assert_eq!(
        victim.fingerprint, solo_clean.fingerprint,
        "checkpoint-resumed trajectory must be bitwise the clean one"
    );
    let solo_bystander = run_solo(neighbor("bystander"));
    let bystander = report.job("bystander").unwrap();
    assert_eq!(
        bystander.restarts, 0,
        "the fault must stay in the victim's domain"
    );
    assert_eq!(
        bystander.fingerprint, solo_bystander.fingerprint,
        "a neighbor's quarantine must not move this job's bits"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// (c) Elastic rank join (2→4) and leave (4→1) mid-run converge to the
/// same final state as an uninterrupted world-2 run.
#[test]
fn elastic_resize_converges_to_same_final_state() {
    let spec = || zero2_spec("elastic", 14, 2, DataMode::Replicated);
    let solo = run_solo(spec());
    assert_eq!(solo.state, JobState::Completed);

    let mut service = Service::new(5);
    service.submit(spec()).expect("submit");
    while service.steps_done("elastic") < 5 {
        assert!(service.tick(), "service stalled before join");
    }
    service.resize_job("elastic", 4).expect("rank join 2->4");
    while service.steps_done("elastic") < 10 {
        assert!(service.tick(), "service stalled before leave");
    }
    service.resize_job("elastic", 1).expect("rank leave 4->1");
    let report = service.run_to_completion();

    let job = report.job("elastic").unwrap();
    assert_eq!(job.state, JobState::Completed);
    assert_eq!(job.steps_done, 14);
    assert_eq!(
        job.losses, solo.losses,
        "losses must be world-size invariant on replicated data"
    );
    assert_eq!(
        job.fingerprint, solo.fingerprint,
        "resized run must converge to the uninterrupted final state bitwise"
    );
}

/// Crash-resume: a new service process finding the old checkpoint
/// directory continues the job and lands on the solo final parameters
/// bitwise.
#[test]
fn crash_resume_continues_bitwise() {
    let dir = scratch_dir("resume");
    let spec = || {
        let mut s = single_spec("phoenix", 12);
        s.checkpoint_every = 4;
        s
    };

    // First incarnation: past the step-8 checkpoint, then "crash".
    run_then_crash(&dir, spec(), 9);

    // Second incarnation resumes from step 8 and finishes.
    let mut service = Service::with_checkpoint_root(2, &dir);
    service.submit(spec()).expect("resubmit");
    assert_eq!(
        service.steps_done("phoenix"),
        8,
        "must resume from the newest complete checkpoint set"
    );
    let report = service.run_to_completion();
    let job = report.job("phoenix").unwrap();
    assert_eq!(job.state, JobState::Completed);
    assert_eq!(job.steps_done, 12);

    let solo = run_solo({
        let mut s = single_spec("phoenix", 12);
        s.faults = Some(FaultPlan::disabled());
        s
    });
    assert_eq!(
        job.master, solo.master,
        "resumed run must land on the uninterrupted final parameters bitwise"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `spec` under a service rooted at `dir` until it has applied
/// `until` steps, then drops the service mid-run — a crash, as far as the
/// checkpoint directory can tell.
fn run_then_crash(dir: &std::path::Path, spec: JobSpec, until: usize) {
    let name = spec.name.clone();
    let mut service = Service::with_checkpoint_root(2, dir);
    service.submit(spec).expect("submit");
    while service.steps_done(&name) < until {
        assert!(service.tick(), "service stalled pre-crash");
    }
}

/// A two-rank job checkpointing every 4 of its 12 steps.
fn hydra_spec() -> JobSpec {
    let mut spec = zero2_spec("hydra", 12, 2, DataMode::Sliced);
    spec.checkpoint_every = 4;
    spec
}

/// The final parameters of `spec` run alone, fault-free, uninterrupted.
fn solo_master(mut spec: JobSpec) -> Vec<f32> {
    spec.faults = Some(FaultPlan::disabled());
    spec.checkpoint_every = 0;
    run_solo(spec).master
}

/// Crash-resume falls back: whatever is wrong with the newest checkpoint
/// set — a rank's file torn, bit-rotted, missing, or of another format
/// version — the job resumes from the next-newest set that decodes and
/// still finishes on the uninterrupted trajectory, bitwise.
#[test]
fn damaged_newest_checkpoint_set_falls_back_to_the_older_one() {
    type Damage = fn(&std::path::Path);
    let damages: [(&str, Damage); 4] = [
        ("rank 1 torn in half", |set| {
            let path = set.with_extension("rank1.ckpt");
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        }),
        ("rank 1 with a flipped payload bit", |set| {
            let path = set.with_extension("rank1.ckpt");
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x08;
            std::fs::write(&path, &bytes).unwrap();
        }),
        ("rank 0 missing", |set| {
            std::fs::remove_file(set.with_extension("rank0.ckpt")).unwrap();
        }),
        ("rank 0 of file version 2", |set| {
            let path = set.with_extension("rank0.ckpt");
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
        }),
    ];
    let solo = solo_master(hydra_spec());
    for (i, (what, damage)) in damages.iter().enumerate() {
        let dir = scratch_dir(&format!("fallback{i}"));
        run_then_crash(&dir, hydra_spec(), 9); // sets at steps 4 and 8
        damage(&dir.join("hydra/step000008"));

        let mut service = Service::with_checkpoint_root(2, &dir);
        service
            .submit(hydra_spec())
            .unwrap_or_else(|e| panic!("{what}: a damaged newest set failed the submit: {e}"));
        assert_eq!(
            service.steps_done("hydra"),
            4,
            "{what}: must resume from the older set"
        );
        let report = service.run_to_completion();
        let job = report.job("hydra").unwrap();
        assert_eq!(job.state, JobState::Completed, "{what}");
        assert_eq!(job.steps_done, 12, "{what}");
        assert_eq!(job.master, solo, "{what}: resumed trajectory moved");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A checkpoint directory holding only files of an older format version
/// (here: every file re-stamped version 2) does not fail the submit: no
/// set decodes, so the job runs from step 0.
#[test]
fn directory_of_old_version_files_starts_from_scratch() {
    let dir = scratch_dir("old_version");
    run_then_crash(&dir, hydra_spec(), 9);
    let mut stamped = 0;
    for entry in std::fs::read_dir(dir.join("hydra")).unwrap() {
        let path = entry.unwrap().path();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        stamped += 1;
    }
    assert_eq!(stamped, 4, "two sets of two ranks");

    let mut service = Service::with_checkpoint_root(2, &dir);
    service
        .submit(hydra_spec())
        .expect("old-version files must not fail the submit");
    assert_eq!(service.steps_done("hydra"), 0);
    let report = service.run_to_completion();
    let job = report.job("hydra").unwrap();
    assert_eq!(job.state, JobState::Completed);
    assert_eq!(job.master, solo_master(hydra_spec()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `.tmp` left by a crash mid-write was never published: it is not a
/// checkpoint (even when its bytes are a whole, valid, newer one), and
/// submit sweeps it away.
#[test]
fn leftover_tmp_file_is_not_chosen_and_is_removed_at_submit() {
    let dir = scratch_dir("stale_tmp");
    let mut spec = single_spec("phoenix", 12);
    spec.checkpoint_every = 4;
    run_then_crash(&dir, spec.clone(), 9);
    let job_dir = dir.join("phoenix");
    // The step-8 file goes back to being an unpublished temporary.
    let tmp = job_dir.join("step000008.rank0.ckpt.tmp");
    std::fs::rename(job_dir.join("step000008.rank0.ckpt"), &tmp).unwrap();

    let mut service = Service::with_checkpoint_root(2, &dir);
    service.submit(spec.clone()).expect("resubmit");
    assert_eq!(service.steps_done("phoenix"), 4);
    assert!(!tmp.exists(), "submit must remove the stale temporary");
    let report = service.run_to_completion();
    assert_eq!(report.job("phoenix").unwrap().master, solo_master(spec));
    // Every file the finished job left is a published checkpoint.
    for entry in std::fs::read_dir(&job_dir).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        assert!(name.ends_with(".ckpt"), "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `zo-serve` ZeRO-2 job set to clip trains clipped: its fingerprint
/// leaves its unclipped twin's and equals its clipped ZeRO-3 twin's.
#[test]
fn clipped_zero2_job_leaves_its_unclipped_twin_and_matches_zero3() {
    let clip = |mut spec: JobSpec| {
        spec.config.max_grad_norm = 0.05;
        spec
    };
    let mut z2 = zero2_spec("clip-z2", 8, 2, DataMode::Sliced);
    z2.batch = 2;
    let plain = run_solo(z2.clone());
    let clipped = run_solo(clip(z2));
    let clipped_z3 = run_solo(clip(zero3_spec("clip-z3", 8, 2)));
    for job in [&plain, &clipped, &clipped_z3] {
        assert_eq!(job.state, JobState::Completed, "{}", job.name);
    }
    assert_ne!(
        clipped.fingerprint, plain.fingerprint,
        "max_grad_norm must change a ZeRO-2 job's trajectory"
    );
    assert_eq!(
        clipped.fingerprint, clipped_z3.fingerprint,
        "clipped ZeRO-2 and ZeRO-3 jobs must train the same bits"
    );
}
