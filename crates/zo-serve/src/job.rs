//! One job's runtime: engines of any stage, its data stream, its
//! checkpoint directory, and its quarantine/restart state machine.

use std::path::{Path, PathBuf};

use zero_offload::{
    decode_checkpoint_bytes, encode_checkpoint_bytes, CheckpointError, DpuCheckpoint, FaultsRef,
    StepError, TracerRef, TrainingCheckpoint, Zero2OffloadEngine, Zero3OffloadEngine,
    ZeroOffloadConfig, ZeroOffloadEngine,
};
use zo_collectives::Communicator;
use zo_fault::FaultPlan;
use zo_models::BigramLm;
use zo_nn::GptModel;
use zo_trace::{names, Tracer};

use crate::fingerprint::fingerprint_run;
use crate::spec::{DataMode, JobSpec, StageSpec};

/// Why a job could not be submitted, resized, or restored.
#[derive(Debug)]
pub enum JobError {
    /// A job with this name is already registered.
    DuplicateName(String),
    /// No job with this name.
    UnknownJob(String),
    /// The spec is internally inconsistent (e.g. batch not divisible by
    /// the world size under sliced data).
    BadSpec(String),
    /// A checkpoint failed to decode or restore.
    Checkpoint(CheckpointError),
    /// Filesystem error in the job's checkpoint directory.
    Io(String),
    /// The requested elastic resize is not defined for this job.
    ResizeUnsupported(String),
}

impl core::fmt::Display for JobError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            JobError::DuplicateName(n) => write!(f, "duplicate job name {n:?}"),
            JobError::UnknownJob(n) => write!(f, "unknown job {n:?}"),
            JobError::BadSpec(d) => write!(f, "bad job spec: {d}"),
            JobError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            JobError::Io(d) => write!(f, "checkpoint I/O error: {d}"),
            JobError::ResizeUnsupported(d) => write!(f, "resize unsupported: {d}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<CheckpointError> for JobError {
    fn from(e: CheckpointError) -> JobError {
        JobError::Checkpoint(e)
    }
}

/// Lifecycle state of a job under the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Scheduled for further steps.
    Running,
    /// All `spec.steps` applied.
    Completed,
    /// Quarantined more than `max_restarts` times.
    Failed {
        /// The last fatal error, for the operator.
        reason: String,
    },
}

/// Final account of one job's run.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Job name.
    pub name: String,
    /// Terminal state.
    pub state: JobState,
    /// Per-step training losses (rank 0's stream for multi-rank stages).
    pub losses: Vec<f32>,
    /// Final fp32 master parameters, all shards concatenated in rank
    /// order (the full model).
    pub master: Vec<f32>,
    /// FNV-1a over per-step loss bits then final master bits — directly
    /// comparable to a solo run of the same spec.
    pub fingerprint: u64,
    /// Steps applied.
    pub steps_done: usize,
    /// Times the job was quarantined and restarted.
    pub restarts: u32,
    /// Step the last quarantine restart resumed from, if any.
    pub resumed_from: Option<usize>,
}

/// The job's engines: one per rank, all holding the same trait surface
/// through stage-specific types.
enum Engines {
    Single(Box<ZeroOffloadEngine<GptModel>>),
    Zero2(Vec<Zero2OffloadEngine<GptModel>>),
    Zero3(Vec<Zero3OffloadEngine<GptModel>>),
}

pub(crate) struct JobRuntime {
    pub(crate) spec: JobSpec,
    engines: Engines,
    data: BigramLm,
    /// Steps applied so far in the *current* engine incarnation's
    /// trajectory (equals `losses.len()`).
    pub(crate) steps_done: usize,
    losses: Vec<f32>,
    pub(crate) state: JobState,
    restarts: u32,
    resumed_from: Option<usize>,
    /// The job's isolated trace stream.
    pub(crate) tracer: Tracer,
    /// Engine config with this job's tracer + fault domain installed.
    cfg: ZeroOffloadConfig,
    /// Same config with fault injection disabled: quarantine replays the
    /// failed stretch clean, like an operator rerunning a crashed job.
    recovery_cfg: ZeroOffloadConfig,
    /// Checkpoint directory (absent: quarantine restarts from scratch).
    ckpt_dir: Option<PathBuf>,
}

impl JobRuntime {
    pub(crate) fn new(spec: JobSpec, ckpt_root: Option<&Path>) -> Result<JobRuntime, JobError> {
        let world = spec.stage.world();
        if world == 0 {
            return Err(JobError::BadSpec("world size 0".into()));
        }
        spec.config.validate().map_err(JobError::BadSpec)?;
        if spec.data == DataMode::Sliced && !spec.batch.is_multiple_of(world) {
            return Err(JobError::BadSpec(format!(
                "batch {} not divisible by world {world}",
                spec.batch
            )));
        }
        let tracer = Tracer::new();
        // The job's fault domain: an explicit plan is honored exactly;
        // otherwise the ambient ZO_FAULTS preset is re-seeded per job so
        // co-scheduled jobs draw independent sequences.
        let plan = spec
            .faults
            .clone()
            .unwrap_or_else(|| FaultPlan::from_env().derived(&spec.name));
        let cfg = ZeroOffloadConfig {
            tracer: Some(TracerRef::install(tracer.clone())),
            faults: Some(FaultsRef::install(plan)),
            ..spec.config
        };
        let recovery_cfg = ZeroOffloadConfig {
            faults: Some(FaultsRef::install(FaultPlan::disabled())),
            ..cfg
        };
        let ckpt_dir = match (ckpt_root, spec.checkpoint_every) {
            (Some(root), n) if n > 0 => {
                let dir = root.join(&spec.name);
                std::fs::create_dir_all(&dir).map_err(|e| JobError::Io(e.to_string()))?;
                remove_stale_tmp(&dir);
                Some(dir)
            }
            _ => None,
        };
        let mut job = JobRuntime {
            engines: build_engines(&spec, cfg),
            data: BigramLm::new(spec.model.vocab, spec.data_noise, spec.data_seed),
            steps_done: 0,
            losses: Vec::new(),
            state: JobState::Running,
            restarts: 0,
            resumed_from: None,
            tracer,
            cfg,
            recovery_cfg,
            ckpt_dir,
            spec,
        };
        // Crash-resume: a fresh service finding checkpoints from a prior
        // incarnation of this job continues where it left off.
        job.restore_newest_checkpoint()?;
        Ok(job)
    }

    /// Runs one optimizer step; quarantines on a fatal engine error.
    /// Returns whether the job is still running afterwards.
    pub(crate) fn step(&mut self) -> bool {
        if self.state != JobState::Running {
            return false;
        }
        let b = self.data.batch(self.spec.batch, self.spec.model.seq_len);
        let result = step_engines(&mut self.engines, &self.spec, &b.inputs, &b.targets);
        match result {
            Ok(loss) => {
                self.losses.push(loss);
                self.steps_done += 1;
                if self.steps_done >= self.spec.steps {
                    self.state = JobState::Completed;
                } else if self.spec.checkpoint_every > 0
                    && self.steps_done.is_multiple_of(self.spec.checkpoint_every)
                {
                    // A failed periodic checkpoint is not fatal to the
                    // job (it is counted on the trace); quarantine just
                    // restarts from an older one.
                    self.write_checkpoints();
                }
            }
            Err(reason) => self.quarantine(reason),
        }
        self.state == JobState::Running
    }

    /// Quarantine: the fatal error stays inside this job's domain. The
    /// engines are torn down and rebuilt with fault injection disabled,
    /// state restored from the latest checkpoint (or scratch), and the
    /// failed stretch replayed — bit-identically, since recovered and
    /// clean trajectories coincide.
    fn quarantine(&mut self, reason: String) {
        self.restarts += 1;
        if self.restarts > self.spec.max_restarts {
            self.state = JobState::Failed { reason };
            return;
        }
        let cfg = self.recovery_cfg;
        self.engines = build_engines(&self.spec, cfg);
        self.cfg = cfg;
        match self.restore_newest_checkpoint() {
            Ok(resume) => self.resumed_from = Some(resume),
            Err(e) => {
                self.state = JobState::Failed {
                    reason: format!("{reason}; restore failed: {e}"),
                }
            }
        }
    }

    /// Positions the job at the newest checkpoint set that decodes —
    /// engines restored, data stream and loss log rewound to its step —
    /// and returns that step. A set that does not decode — torn,
    /// bit-rotted, foreign, or an older file version — is passed over for
    /// the next-newest; when none decodes (or the job keeps no
    /// checkpoints) the engines are left as built and the job stands at
    /// step 0.
    fn restore_newest_checkpoint(&mut self) -> Result<usize, JobError> {
        let world = self.spec.stage.world();
        if let Some(dir) = self.ckpt_dir.clone() {
            for k in complete_checkpoint_steps(&dir, world) {
                let ckpts: Result<Vec<TrainingCheckpoint>, JobError> = (0..world)
                    .map(|r| {
                        let bytes = std::fs::read(ckpt_path(&dir, k, r))
                            .map_err(|e| JobError::Io(e.to_string()))?;
                        Ok(decode_checkpoint_bytes(&bytes)?)
                    })
                    .collect();
                match ckpts {
                    Ok(ckpts) => {
                        restore_engines(&mut self.engines, &ckpts)?;
                        self.reset_data_stream(k);
                        return Ok(k);
                    }
                    // What is wrong with the *file*; a mismatch with the
                    // engine (size, DPU mode) or a failing disk is not
                    // something an older set would cure.
                    Err(JobError::Checkpoint(
                        CheckpointError::Truncated { .. }
                        | CheckpointError::Corrupted { .. }
                        | CheckpointError::BadMagic { .. }
                        | CheckpointError::BadVersion { .. }
                        | CheckpointError::Malformed { .. },
                    )) => continue,
                    Err(e) => return Err(e),
                }
            }
        }
        self.reset_data_stream(0);
        Ok(0)
    }

    /// Replays the data stream to batch index `k` (batches are consumed
    /// one per step, so the stream position *is* the step count).
    fn reset_data_stream(&mut self, k: usize) {
        let mut data = BigramLm::new(
            self.spec.model.vocab,
            self.spec.data_noise,
            self.spec.data_seed,
        );
        for _ in 0..k {
            data.batch(self.spec.batch, self.spec.model.seq_len);
        }
        self.data = data;
        self.losses.truncate(k);
        self.steps_done = k;
        if self.steps_done < self.spec.steps {
            self.state = JobState::Running;
        }
    }

    /// Writes the per-rank checkpoint set for the current step, one rank
    /// at a time: snapshot, encode, write `*.ckpt.tmp`, rename. A name
    /// without `.tmp` is therefore a file that was written completely, and
    /// the set counts once every rank's name exists.
    ///
    /// Each file is a `checkpoint.write` span on this job's `ckpt` track.
    /// A file that cannot be written is counted there too, and abandons
    /// the set (restore skips incomplete sets).
    fn write_checkpoints(&self) {
        let Some(dir) = &self.ckpt_dir else {
            return;
        };
        for r in 0..self.spec.stage.world() {
            let span = self.tracer.span("ckpt", names::CHECKPOINT_WRITE);
            let bytes = encode_checkpoint_bytes(&rank_checkpoint(&self.engines, r));
            let path = ckpt_path(dir, self.steps_done, r);
            let tmp = path.with_extension("ckpt.tmp");
            let published = std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, path));
            drop(span);
            if published.is_err() {
                let _ = std::fs::remove_file(&tmp);
                self.tracer.add("ckpt", names::CKPT_WRITE_FAILED, 1);
                return;
            }
            self.tracer
                .add("ckpt", names::CKPT_BYTES, bytes.len() as u64);
        }
    }

    /// Elastic rank join/leave: reshards the job's state over
    /// `new_world` ranks and resumes mid-run on the same trajectory.
    ///
    /// Defined for ZeRO-2 jobs on replicated data (where the trajectory
    /// is provably world-size invariant — the mean-reduce over identical
    /// replicas is exact for power-of-two worlds).
    pub(crate) fn resize(&mut self, new_world: usize) -> Result<(), JobError> {
        let StageSpec::Zero2 { world } = self.spec.stage else {
            return Err(JobError::ResizeUnsupported(
                "elastic resize is defined for ZeRO-2 jobs".into(),
            ));
        };
        if self.spec.data != DataMode::Replicated {
            return Err(JobError::ResizeUnsupported(
                "elastic resize requires replicated data (world-invariant trajectory)".into(),
            ));
        }
        if new_world == 0 || !new_world.is_power_of_two() {
            return Err(JobError::ResizeUnsupported(format!(
                "world {new_world} is not a positive power of two"
            )));
        }
        if self.state != JobState::Running || new_world == world {
            return Ok(());
        }
        // Snapshot every rank's shard, concatenate to the full state.
        let shards: Vec<TrainingCheckpoint> = (0..world)
            .map(|r| rank_checkpoint(&self.engines, r))
            .collect();
        let full = concat_checkpoints(&shards)?;
        // Rebuild the engines at the new world size and deal the full
        // state back out along the new partition.
        self.spec.stage = StageSpec::Zero2 { world: new_world };
        self.engines = build_engines(&self.spec, self.cfg);
        let parts = partition_checkpoint(&full, &self.engines)?;
        restore_engines(&mut self.engines, &parts)?;
        Ok(())
    }

    /// Final account (valid at any point; fingerprint covers steps so far).
    pub(crate) fn report(&self) -> JobReport {
        let master = full_master(&self.engines);
        JobReport {
            name: self.spec.name.clone(),
            state: self.state.clone(),
            fingerprint: fingerprint_run(&self.losses, &master),
            losses: self.losses.clone(),
            master,
            steps_done: self.steps_done,
            restarts: self.restarts,
            resumed_from: self.resumed_from,
        }
    }
}

fn ckpt_path(dir: &Path, step: usize, rank: usize) -> PathBuf {
    dir.join(format!("step{step:06}.rank{rank}.ckpt"))
}

/// Steps whose checkpoint set is complete in `dir` — every rank's file
/// exists under its final name — newest first.
fn complete_checkpoint_steps(dir: &Path, world: usize) -> Vec<usize> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut steps: Vec<usize> = entries
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name();
            let step = name.to_str()?.strip_prefix("step")?;
            step.strip_suffix(".rank0.ckpt")?.parse().ok()
        })
        .filter(|&k| (0..world).all(|r| ckpt_path(dir, k, r).exists()))
        .collect();
    steps.sort_unstable_by(|a, b| b.cmp(a));
    steps.dedup();
    steps
}

/// Removes the `*.ckpt.tmp` files a crashed incarnation left mid-write.
/// They were never published: restore only reads final names.
fn remove_stale_tmp(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().ends_with(".ckpt.tmp") {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Builds the engines for `spec`. Multi-rank stages construct
/// concurrently — ZeRO-2's constructor performs its initial all-gather.
fn build_engines(spec: &JobSpec, cfg: ZeroOffloadConfig) -> Engines {
    let model = |_rank: usize| GptModel::new(spec.model, spec.model_seed);
    match spec.stage {
        StageSpec::Single => Engines::Single(Box::new(ZeroOffloadEngine::new(model(0), cfg))),
        StageSpec::Zero2 { world } => Engines::Zero2(build_ranks(world, |comm| {
            Zero2OffloadEngine::new(model(comm.rank()), cfg, comm)
        })),
        StageSpec::Zero3 { world } => Engines::Zero3(build_ranks(world, |comm| {
            Zero3OffloadEngine::new(model(comm.rank()), cfg, comm)
        })),
    }
}

/// Runs one constructor per rank on its own thread (constructors may
/// contain collectives, which block until every rank arrives).
fn build_ranks<E: Send>(world: usize, make: impl Fn(Communicator) -> E + Send + Sync) -> Vec<E> {
    let comms = Communicator::group(world);
    std::thread::scope(|scope| {
        let make = &make;
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| scope.spawn(move || make(comm)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank constructor panicked"))
            .collect()
    })
}

/// One optimizer step across all ranks; returns rank 0's loss.
///
/// Ranks step concurrently on scoped threads (collectives synchronize
/// them). Engine fault lanes are deterministic per *session*, counting
/// draws per (lane, site) — never global time — so this job stepping in
/// any interleaving with neighbors draws the same fault sequence.
fn step_engines(
    engines: &mut Engines,
    spec: &JobSpec,
    inputs: &[usize],
    targets: &[usize],
) -> Result<f32, String> {
    let seq = spec.model.seq_len;
    match engines {
        Engines::Single(engine) => engine
            .step_streamed(|m, s| m.train_step_hooked(inputs, targets, spec.batch, seq, s))
            .map(|o| o.loss())
            .map_err(describe_step_error),
        Engines::Zero2(ranks) => step_ranks(ranks, spec, inputs, targets, |e, i, t, n| {
            e.step(|m| m.train_step(i, t, n, seq, |_| {}))
                .map(|o| o.loss())
        }),
        Engines::Zero3(ranks) => step_ranks(ranks, spec, inputs, targets, |e, i, t, n| {
            e.step(|m| m.train_step(i, t, n, seq, |_| {}))
                .map(|o| o.loss())
        }),
    }
}

/// Steps every rank concurrently, handing each its batch view (a
/// `1/world` slice or the full replica), and returns rank 0's loss.
fn step_ranks<E: Send, Err: Send>(
    ranks: &mut [E],
    spec: &JobSpec,
    inputs: &[usize],
    targets: &[usize],
    step: impl Fn(&mut E, &[usize], &[usize], usize) -> Result<f32, StepError<Err>> + Send + Sync,
) -> Result<f32, String> {
    let world = ranks.len();
    let seq = spec.model.seq_len;
    let results: Vec<Result<f32, StepError<Err>>> = std::thread::scope(|scope| {
        let step = &step;
        let handles: Vec<_> = ranks
            .iter_mut()
            .enumerate()
            .map(|(r, engine)| {
                let (i, t, n) = match spec.data {
                    DataMode::Replicated => (inputs, targets, spec.batch),
                    DataMode::Sliced => {
                        let per = spec.batch / world;
                        let span = r * per * seq..(r + 1) * per * seq;
                        (&inputs[span.clone()], &targets[span], per)
                    }
                };
                scope.spawn(move || step(engine, i, t, n))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank step panicked"))
            .collect()
    });
    // Fatal faults fire on every rank in lock-step (shared engine lane /
    // communicator session); any rank's error fails the step.
    let mut loss = None;
    for (r, res) in results.into_iter().enumerate() {
        match res {
            Ok(l) if r == 0 => loss = Some(l),
            Ok(_) => {}
            Err(e) => return Err(describe_step_error(e)),
        }
    }
    Ok(loss.expect("rank 0 result"))
}

fn describe_step_error<E>(e: StepError<E>) -> String {
    match e {
        StepError::Backward(_) => "backward pass failed".to_string(),
        StepError::Fault(f) => f.to_string(),
        // Torn tier state: quarantine restores it from a checkpoint, the
        // same recovery a fatal `tier.write` fault gets.
        StepError::Tier(e) => e.to_string(),
        StepError::OverflowStorm { consecutive } => {
            format!("overflow storm: {consecutive} consecutive skipped steps")
        }
    }
}

/// Rank `r`'s snapshot (the single engine is rank 0).
fn rank_checkpoint(engines: &Engines, r: usize) -> TrainingCheckpoint {
    match engines {
        Engines::Single(e) => e.save_checkpoint(),
        Engines::Zero2(ranks) => ranks[r].save_checkpoint(),
        Engines::Zero3(ranks) => ranks[r].save_checkpoint(),
    }
}

/// Restores each rank from its checkpoint, concurrently — ZeRO-2's
/// restore ends in an all-gather, so ranks must restore in lock-step.
fn restore_engines(engines: &mut Engines, ckpts: &[TrainingCheckpoint]) -> Result<(), JobError> {
    match engines {
        Engines::Single(e) => Ok(e.restore_checkpoint(&ckpts[0])?),
        Engines::Zero2(ranks) => restore_ranks(ranks, ckpts, |e, c| e.restore_checkpoint(c)),
        Engines::Zero3(ranks) => restore_ranks(ranks, ckpts, |e, c| e.restore_checkpoint(c)),
    }
}

fn restore_ranks<E: Send>(
    ranks: &mut [E],
    ckpts: &[TrainingCheckpoint],
    restore: impl Fn(&mut E, &TrainingCheckpoint) -> Result<(), CheckpointError> + Send + Sync,
) -> Result<(), JobError> {
    assert_eq!(ranks.len(), ckpts.len(), "one checkpoint per rank");
    let results: Vec<Result<(), CheckpointError>> = std::thread::scope(|scope| {
        let restore = &restore;
        let handles: Vec<_> = ranks
            .iter_mut()
            .zip(ckpts)
            .map(|(engine, ckpt)| scope.spawn(move || restore(engine, ckpt)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank restore panicked"))
            .collect()
    });
    for res in results {
        res?;
    }
    Ok(())
}

/// Concatenates per-rank shard checkpoints (rank order) into one
/// full-model checkpoint, for resharding at a different world size.
fn concat_checkpoints(shards: &[TrainingCheckpoint]) -> Result<TrainingCheckpoint, JobError> {
    let mut full = TrainingCheckpoint {
        master: Vec::new(),
        optim: zo_optim::AdamState::new(0),
        loss_scale: shards[0].loss_scale,
        dpu: None,
        steps_applied: shards[0].steps_applied,
        steps_skipped: shards[0].steps_skipped,
    };
    for s in shards {
        full.master.extend_from_slice(&s.master);
        full.optim.m.extend_from_slice(&s.optim.m);
        full.optim.v.extend_from_slice(&s.optim.v);
        full.optim.step = s.optim.step;
        match &s.dpu {
            None => {}
            Some(DpuCheckpoint {
                pending: None,
                steps_seen,
            }) => {
                // A quiesced DPU clock passes through the reshard.
                full.dpu = Some(DpuCheckpoint {
                    steps_seen: *steps_seen,
                    pending: None,
                });
            }
            Some(DpuCheckpoint {
                pending: Some(_), ..
            }) => {
                return Err(JobError::ResizeUnsupported(
                    "a delayed update is in flight; resize between steps only".into(),
                ));
            }
        }
    }
    Ok(full)
}

/// Deals a full-model checkpoint back out along the new engines'
/// partition (each rank takes its shard-sized slice in rank order).
fn partition_checkpoint(
    full: &TrainingCheckpoint,
    engines: &Engines,
) -> Result<Vec<TrainingCheckpoint>, JobError> {
    let shard_lens: Vec<usize> = match engines {
        Engines::Single(e) => vec![e.master_params().len()],
        Engines::Zero2(ranks) => ranks.iter().map(|e| e.master_shard().len()).collect(),
        Engines::Zero3(ranks) => ranks.iter().map(|e| e.master_shard().len()).collect(),
    };
    let total: usize = shard_lens.iter().sum();
    if total != full.master.len() {
        return Err(JobError::Checkpoint(CheckpointError::SizeMismatch {
            checkpoint: full.master.len(),
            engine: total,
        }));
    }
    let mut parts = Vec::with_capacity(shard_lens.len());
    let mut off = 0;
    for len in shard_lens {
        let span = off..off + len;
        parts.push(TrainingCheckpoint {
            master: full.master[span.clone()].to_vec(),
            optim: zo_optim::AdamState {
                m: full.optim.m[span.clone()].to_vec(),
                v: full.optim.v[span].to_vec(),
                step: full.optim.step,
            },
            loss_scale: full.loss_scale,
            dpu: full.dpu.clone(),
            steps_applied: full.steps_applied,
            steps_skipped: full.steps_skipped,
        });
        off += len;
    }
    Ok(parts)
}

/// The full fp32 master parameters: all shards concatenated in rank order.
fn full_master(engines: &Engines) -> Vec<f32> {
    match engines {
        Engines::Single(e) => e.master_params().to_vec(),
        Engines::Zero2(ranks) => ranks
            .iter()
            .flat_map(|e| e.master_shard().iter().copied())
            .collect(),
        Engines::Zero3(ranks) => ranks
            .iter()
            .flat_map(|e| e.master_shard().iter().copied())
            .collect(),
    }
}
