//! Multi-job training service.
//!
//! ZeRO-Offload's goal is *democratizing* large-model training — one box
//! serving many practitioners. This crate supplies the serving layer: a
//! [`Service`] multiplexes N independent training jobs — each an engine of
//! any stage (single-GPU, ZeRO-2, ZeRO-3, any optimizer tier) — over the
//! shared `zo-tensor` worker pool, at *step granularity* under a seeded,
//! replayable schedule.
//!
//! Isolation is the design invariant. Each job gets its own domain:
//!
//! - **Fault domain** — a per-job [`zo_fault::FaultPlan`] (the ambient
//!   `ZO_FAULTS` preset re-seeded per job via `FaultPlan::derived`), so
//!   jobs draw independent fault sequences and one job's faults can never
//!   perturb a neighbor's schedule.
//! - **Trace stream** — a per-job [`zo_trace::Tracer`]; the service merges
//!   them into one Chrome trace with job-tagged tracks
//!   (`zo_trace::chrome_trace_json_tagged`).
//! - **Checkpoint directory** — per-rank framed checkpoint files written
//!   every `checkpoint_every` applied steps, giving crash-resume and
//!   quarantine-restart without touching other jobs' state.
//! - **Failure domain** — a fatally-faulted job is quarantined and
//!   restarted from its latest checkpoint (fault injection disabled for
//!   the replay, exactly like a human rerunning the failed job) while
//!   co-scheduled jobs continue undisturbed.
//! - **Elastic ranks** — a ZeRO-2 job training on replicated data can
//!   grow or shrink its rank group mid-run ([`Service::resize_job`]):
//!   the service checkpoints the job, reshards the state over the new
//!   world size, and resumes bitwise on the same trajectory.
//!
//! Because every engine's step is already deterministic and jobs share no
//! mutable state (the worker pool is content-neutral: results are
//! bit-identical at any thread count), interleaving steps of different
//! jobs cannot move any job's trajectory — each job under the service is
//! bit-identical to running it alone. `tests/multi_job.rs` proves this
//! with the repo's fingerprint machinery.

mod fingerprint;
mod job;
mod scheduler;
mod service;
mod spec;

pub use fingerprint::fingerprint_run;
pub use job::{JobError, JobReport, JobState};
pub use scheduler::{ScheduleEntry, Scheduler};
pub use service::{run_solo, Service, ServiceReport};
pub use spec::{DataMode, JobSpec, StageSpec};
