//! The multi-job training service.

use std::path::PathBuf;

use zo_trace::chrome_trace_json_tagged;

use crate::job::{JobError, JobReport, JobRuntime, JobState};
use crate::scheduler::{ScheduleEntry, Scheduler};
use crate::spec::JobSpec;

/// Final account of a service run: one report per job, in submission
/// order, plus the executed schedule.
#[derive(Debug)]
pub struct ServiceReport {
    /// Per-job reports, submission order.
    pub jobs: Vec<JobReport>,
    /// Every granted step, in execution order (replayable).
    pub schedule: Vec<ScheduleEntry>,
}

impl ServiceReport {
    /// The report for `name`, if such a job ran.
    pub fn job(&self, name: &str) -> Option<&JobReport> {
        self.jobs.iter().find(|j| j.name == name)
    }
}

/// A multi-job training service: N isolated jobs time-share the process
/// (and its worker pool) under a deterministic step-granularity schedule.
pub struct Service {
    jobs: Vec<JobRuntime>,
    scheduler: Scheduler,
    schedule_log: Vec<ScheduleEntry>,
    ckpt_root: Option<PathBuf>,
}

impl Service {
    /// A service with no checkpoint storage (jobs that quarantine restart
    /// from scratch).
    pub fn new(seed: u64) -> Service {
        Service {
            jobs: Vec::new(),
            scheduler: Scheduler::new(seed),
            schedule_log: Vec::new(),
            ckpt_root: None,
        }
    }

    /// A service whose jobs checkpoint under `root/<job-name>/`.
    ///
    /// A resubmitted job finding checkpoints from a prior service run in
    /// its directory resumes from the newest complete set (crash-resume).
    pub fn with_checkpoint_root(seed: u64, root: impl Into<PathBuf>) -> Service {
        Service {
            ckpt_root: Some(root.into()),
            ..Service::new(seed)
        }
    }

    /// Registers a job. Engines are built (and any prior checkpoint
    /// restored) immediately; stepping starts at the next tick.
    pub fn submit(&mut self, spec: JobSpec) -> Result<(), JobError> {
        if self.jobs.iter().any(|j| j.spec.name == spec.name) {
            return Err(JobError::DuplicateName(spec.name));
        }
        self.jobs
            .push(JobRuntime::new(spec, self.ckpt_root.as_deref())?);
        Ok(())
    }

    /// One scheduling turn: the next runnable job executes up to
    /// `priority` consecutive steps. Returns `false` when no job can make
    /// further progress.
    pub fn tick(&mut self) -> bool {
        let jobs = &self.jobs;
        let Some(i) = self
            .scheduler
            .next_job(jobs.len(), |i| jobs[i].state == JobState::Running)
        else {
            return false;
        };
        let quantum = self.jobs[i].spec.priority.max(1);
        for _ in 0..quantum {
            let step = self.jobs[i].steps_done;
            let running = self.jobs[i].step();
            self.schedule_log.push(ScheduleEntry {
                job: self.jobs[i].spec.name.clone(),
                step,
            });
            if !running {
                break;
            }
        }
        self.jobs.iter().any(|j| j.state == JobState::Running)
    }

    /// Drives ticks until every job is completed or failed.
    pub fn run_to_completion(&mut self) -> ServiceReport {
        while self.tick() {}
        self.report()
    }

    /// Elastic rank join/leave: reshards `name`'s state over `new_world`
    /// ranks between steps. The job's trajectory continues bitwise (see
    /// [`JobSpec::data`](crate::DataMode::Replicated) for when that is
    /// defined).
    pub fn resize_job(&mut self, name: &str, new_world: usize) -> Result<(), JobError> {
        let job = self
            .jobs
            .iter_mut()
            .find(|j| j.spec.name == name)
            .ok_or_else(|| JobError::UnknownJob(name.to_string()))?;
        job.resize(new_world)
    }

    /// Steps applied so far by `name` (0 for unknown jobs).
    pub fn steps_done(&self, name: &str) -> usize {
        self.jobs
            .iter()
            .find(|j| j.spec.name == name)
            .map_or(0, |j| j.steps_done)
    }

    /// Current per-job reports plus the executed schedule so far.
    pub fn report(&self) -> ServiceReport {
        ServiceReport {
            jobs: self.jobs.iter().map(|j| j.report()).collect(),
            schedule: self.schedule_log.clone(),
        }
    }

    /// The executed schedule so far.
    pub fn schedule_log(&self) -> &[ScheduleEntry] {
        &self.schedule_log
    }

    /// One Chrome trace over every job's stream, tracks tagged
    /// `<job>/<track>` so N jobs interleave without collisions.
    pub fn chrome_trace_json(&self) -> String {
        let streams: Vec<(&str, &zo_trace::Tracer)> = self
            .jobs
            .iter()
            .map(|j| (j.spec.name.as_str(), &j.tracer))
            .collect();
        chrome_trace_json_tagged(&streams)
    }
}

/// Runs `spec` alone to completion — the solo baseline every
/// co-scheduled fingerprint is compared against.
pub fn run_solo(spec: JobSpec) -> JobReport {
    let mut service = Service::new(0);
    service.submit(spec).expect("solo submit");
    let mut report = service.run_to_completion();
    report.jobs.remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zo_nn::GptConfig;
    use zo_trace::names;

    const GPT: GptConfig = GptConfig {
        vocab: 16,
        seq_len: 8,
        hidden: 16,
        heads: 2,
        layers: 1,
    };

    /// Grants per job in every prefix of the schedule of running `specs`
    /// to completion under seed `seed`.
    fn prefix_grants(seed: u64, specs: Vec<JobSpec>) -> Vec<Vec<usize>> {
        let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
        let mut service = Service::new(seed);
        for spec in specs {
            service.submit(spec).expect("submit");
        }
        let report = service.run_to_completion();
        let mut grants = vec![0; names.len()];
        report
            .schedule
            .iter()
            .map(|e| {
                grants[names.iter().position(|n| *n == e.job).unwrap()] += 1;
                grants.clone()
            })
            .collect()
    }

    /// A spec whose engine config refuses DPU is a typed error at
    /// submit, before any engine is built.
    #[test]
    fn dpu_without_offload_or_off_dram_is_a_bad_spec() {
        let mut no_offload = JobSpec::new("no-offload", GPT, 4);
        no_offload.config = no_offload.config.with_dpu().without_offload();
        let mut nvme = JobSpec::new("nvme", GPT, 4);
        nvme.config = nvme.config.with_dpu();
        nvme.config.optimizer_tier = zero_offload::TierKind::Nvme;
        let mut service = Service::new(1);
        for (spec, field) in [(no_offload, "`offload"), (nvme, "`optimizer_tier")] {
            match service.submit(spec) {
                Err(JobError::BadSpec(why)) => {
                    assert!(why.contains("`dpu_warmup`") && why.contains(field), "{why}")
                }
                other => panic!("expected BadSpec naming {field}, got {other:?}"),
            }
        }
        assert!(service.jobs.is_empty());
    }

    #[test]
    fn equal_priority_jobs_share_equally() {
        let specs = ["a", "b", "c"].map(|n| JobSpec::new(n, GPT, 6)).to_vec();
        let prefixes = prefix_grants(3, specs);
        assert_eq!(prefixes.last(), Some(&vec![6, 6, 6]));
        for g in &prefixes {
            let (lo, hi) = (g.iter().min().unwrap(), g.iter().max().unwrap());
            assert!(hi - lo <= 1, "unequal grants in a prefix: {g:?}");
        }
    }

    #[test]
    fn priorities_weight_the_schedule() {
        // A 2:1 priority is a 2:1 grant ratio in every prefix of the
        // schedule while both jobs run (12 and 6 steps end together).
        let mut fast = JobSpec::new("fast", GPT, 12);
        fast.priority = 2;
        let slow = JobSpec::new("slow", GPT, 6);
        let prefixes = prefix_grants(1, vec![fast, slow]);
        assert_eq!(prefixes.last(), Some(&vec![12, 6]));
        for g in &prefixes {
            assert!(g[0].abs_diff(2 * g[1]) <= 2, "not 2:1 in a prefix: {g:?}");
        }
    }

    /// A periodic checkpoint that cannot be written does not stop the job,
    /// and does not go unseen: the job's trace counts it.
    #[test]
    fn failed_periodic_checkpoint_is_counted_and_the_job_completes() {
        let root = std::env::temp_dir().join(format!("zo_serve_lost_dir_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut spec = JobSpec::new("orphan", GPT, 10);
        spec.checkpoint_every = 2;
        let mut service = Service::with_checkpoint_root(1, &root);
        service.submit(spec).expect("submit");
        while service.steps_done("orphan") < 3 {
            assert!(service.tick());
        }
        let tracer = service.jobs[0].tracer.clone();
        assert_eq!(tracer.spans_named(names::CHECKPOINT_WRITE).len(), 1);
        assert!(tracer.counter_total(names::CKPT_BYTES) > 0);
        assert_eq!(tracer.counter_total(names::CKPT_WRITE_FAILED), 0);

        // The checkpoint directory disappears under the running job.
        std::fs::remove_dir_all(&root).expect("remove checkpoint root");
        let report = service.run_to_completion();
        let job = report.job("orphan").unwrap();
        assert_eq!(job.state, JobState::Completed);
        assert_eq!((job.steps_done, job.restarts), (10, 0));
        // Steps 4, 6 and 8 each tried and failed; none at completion.
        assert_eq!(tracer.counter_total(names::CKPT_WRITE_FAILED), 3);
        assert_eq!(tracer.spans_named(names::CHECKPOINT_WRITE).len(), 4);
        // The spans surface in the service trace under the job's name.
        assert!(service.chrome_trace_json().contains("\"orphan/ckpt\""));
    }
}
