//! The `serve-mixed` workload: three co-scheduled `zo_serve` jobs driven
//! tick by tick, every tick inside a benchmark-owned span attributed to
//! its job through the service's schedule log.

use std::path::Path;

use zo_serve::{JobSpec, JobState, Service, ServiceReport, StageSpec};

use crate::stats::{median, Interval};
use crate::workloads::{Clock, Seeds, Workload, DATA_NOISE, WARMUP_STEPS};

/// Job names, in submission order.
pub const JOBS: [&str; 3] = ["single-dpu", "z2", "z3"];

/// Scheduling weight of each job: `single-dpu` is granted two steps a turn.
const PRIORITY: [u32; 3] = [2, 1, 1];

/// Steps before `single-dpu` switches to the delayed parameter update.
const DPU_WARMUP: u64 = 10;

/// How much work one service run is.
///
/// A `zo_serve` job's length is fixed when it is submitted, so this
/// workload cannot stop on a deadline and still see every job complete.
/// Its step counts are instead proportional to `--seconds`, at the rate
/// the 2-vCPU build host sustains (≈ 16 job-steps and a third of a
/// checkpoint per second). Every run writes five checkpoints whatever its
/// length, so the checkpoint share of the work does not depend on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServePlan {
    /// Steps of each job (`single-dpu` runs twice its neighbours').
    pub steps: [usize; 3],
    /// Checkpoint cadence, applied steps.
    pub checkpoint_every: usize,
}

impl ServePlan {
    /// The `--quick` smoke plan: forty steps and one checkpoint.
    pub const QUICK: ServePlan = ServePlan {
        steps: [20, 10, 10],
        checkpoint_every: 10,
    };

    /// The plan for a run of `seconds`.
    pub fn for_seconds(seconds: f64) -> ServePlan {
        // Whole tens, so that `loss_final`'s ten-step window and the
        // checkpoint cadence divide the run evenly.
        let tens = ((seconds * 4.0 / 10.0).round() as usize).max(1);
        let z = tens * 10;
        ServePlan {
            steps: [2 * z, z, z],
            checkpoint_every: z / 2,
        }
    }

    /// Steps granted over the whole run.
    pub fn total_steps(&self) -> usize {
        self.steps.iter().sum()
    }

    /// Checkpoints a job writes: one every `checkpoint_every` steps,
    /// except at completion.
    pub fn checkpoints_of(&self, job: usize) -> usize {
        (self.steps[job] - 1) / self.checkpoint_every
    }
}

/// The three job specs.
pub fn job_specs(w: &Workload, seeds: Seeds, plan: ServePlan) -> [JobSpec; 3] {
    let stages = [
        StageSpec::Single,
        StageSpec::Zero2 { world: 2 },
        StageSpec::Zero3 { world: 2 },
    ];
    [0, 1, 2].map(|j| {
        let mut spec = JobSpec::new(JOBS[j], w.gpt, plan.steps[j]);
        spec.model_seed = seeds.model;
        spec.data_seed = seeds.data;
        spec.data_noise = DATA_NOISE;
        spec.batch = w.batch;
        spec.stage = stages[j];
        spec.priority = PRIORITY[j];
        spec.checkpoint_every = plan.checkpoint_every;
        spec.max_restarts = 0;
        if j == 0 {
            spec.config.dpu_warmup = Some(DPU_WARMUP);
        }
        spec
    })
}

/// A service with its jobs submitted, ready for the first tick.
pub struct ServiceUnderTest {
    /// The service.
    pub service: Service,
    /// Start and end of each `Service::submit` call.
    pub submits: [Interval; 3],
    plan: ServePlan,
    clock: Clock,
}

/// Set-up: a throw-away service steps each job a few times (pool
/// spawned, scratch sized), then the real service is built under
/// `ckpt_root` and the three jobs are submitted.
pub fn set_up(
    w: &Workload,
    seeds: Seeds,
    plan: ServePlan,
    ckpt_root: &Path,
    clock: Clock,
) -> ServiceUnderTest {
    let warm_plan = ServePlan {
        steps: [2 * WARMUP_STEPS, WARMUP_STEPS, WARMUP_STEPS],
        checkpoint_every: usize::MAX,
    };
    let mut warm = Service::new(seeds.sched);
    for mut spec in job_specs(w, seeds, warm_plan) {
        spec.checkpoint_every = 0;
        warm.submit(spec).expect("warm-up submit");
    }
    warm.run_to_completion();
    drop(warm);

    let mut service = Service::with_checkpoint_root(seeds.sched, ckpt_root);
    let submits = job_specs(w, seeds, plan).map(|spec| {
        let t0 = clock.now();
        service
            .submit(spec)
            .expect("job names are distinct and specs valid");
        (t0, clock.now())
    });
    ServiceUnderTest {
        service,
        submits,
        plan,
        clock,
    }
}

/// One scheduling turn under a benchmark-owned `tick` span.
#[derive(Debug, Clone, Copy)]
pub struct Tick {
    /// The `Service::tick` call.
    pub span: Interval,
    /// Index into [`JOBS`] of the job the turn went to.
    pub job: usize,
    /// Steps the turn granted.
    pub steps: usize,
    /// Checkpoints the job wrote during the turn.
    pub checkpoints: usize,
}

impl Tick {
    /// Wall time per granted step, ms.
    pub fn step_ms(&self) -> f64 {
        (self.span.1 - self.span.0) as f64 / 1e6 / self.steps as f64
    }
}

/// A finished service run.
pub struct ServeRun {
    /// Every tick, in order.
    pub ticks: Vec<Tick>,
    /// The service's final account.
    pub report: ServiceReport,
    /// The plan that was run.
    pub plan: ServePlan,
    /// Start and end of each submit call.
    pub submits: [Interval; 3],
    /// `Service::chrome_trace_json()` (each job's spans on its own epoch).
    pub trace_json: String,
}

impl ServiceUnderTest {
    /// Ticks the service to completion.
    pub fn run(mut self) -> ServeRun {
        let mut ticks = Vec::new();
        let mut seen = 0;
        loop {
            let t0 = self.clock.now();
            let more = self.service.tick();
            let t1 = self.clock.now();
            let granted = &self.service.schedule_log()[seen..];
            if let Some(first) = granted.first() {
                let job = JOBS
                    .iter()
                    .position(|name| *name == first.job)
                    .expect("the log names a submitted job");
                let (every, total) = (self.plan.checkpoint_every, self.plan.steps[job]);
                ticks.push(Tick {
                    span: (t0, t1),
                    job,
                    steps: granted.len(),
                    checkpoints: granted
                        .iter()
                        .filter(|g| (g.step + 1) % every == 0 && g.step + 1 < total)
                        .count(),
                });
                seen += granted.len();
            }
            if !more {
                break;
            }
        }
        ServeRun {
            ticks,
            report: self.service.report(),
            plan: self.plan,
            submits: self.submits,
            trace_json: self.service.chrome_trace_json(),
        }
    }
}

/// The `serve.*` attribution of a run: per-job step time, what a
/// checkpoint stalls its job for, and how the wall time adds up.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Median per-step tick time of each job over ticks without a
    /// checkpoint, ms.
    pub step_ms: [f64; 3],
    /// Median over checkpointing ticks of (tick − steps × the job's
    /// median step), ms per checkpoint.
    pub ckpt_stall_ms: f64,
    /// Σ stalls ÷ wall.
    pub ckpt_share: f64,
    /// First tick to completion, ms.
    pub wall_ms: f64,
    /// Σ job median step × steps, ms.
    pub steps_ms: f64,
    /// Σ checkpoint stalls, ms.
    pub stalls_ms: f64,
}

impl Attribution {
    /// Wall time neither the steps nor the stalls explain, ms.
    pub fn residue_ms(&self) -> f64 {
        self.wall_ms - self.steps_ms - self.stalls_ms
    }
}

impl ServeRun {
    /// Wall time from the first tick to completion.
    pub fn wall(&self) -> Interval {
        (
            self.ticks.first().map_or(0, |t| t.span.0),
            self.ticks.last().map_or(0, |t| t.span.1),
        )
    }

    /// Per-step tick time pooled over jobs, ms (checkpointing ticks
    /// included: they are steps a user waited for).
    pub fn step_ms(&self) -> Vec<f64> {
        self.ticks
            .iter()
            .flat_map(|t| std::iter::repeat_n(t.step_ms(), t.steps))
            .collect()
    }

    /// Steps that failed: jobs short of their plan, quarantines, and
    /// non-finite losses.
    pub fn failed_steps(&self) -> usize {
        self.report
            .jobs
            .iter()
            .zip(self.plan.steps)
            .map(|(job, planned)| {
                let short = planned.saturating_sub(job.steps_done);
                let bad = job.losses.iter().filter(|l| !l.is_finite()).count();
                let unfinished = usize::from(job.state != JobState::Completed && short == 0);
                short + bad + unfinished + job.restarts as usize
            })
            .sum()
    }

    /// Jain's fairness index over priority-normalised grants.
    pub fn jain_index(&self) -> f64 {
        let x: Vec<f64> = (0..3)
            .map(|j| {
                let granted: usize = self
                    .ticks
                    .iter()
                    .filter(|t| t.job == j)
                    .map(|t| t.steps)
                    .sum();
                granted as f64 / f64::from(PRIORITY[j])
            })
            .collect();
        let sum: f64 = x.iter().sum();
        let sq: f64 = x.iter().map(|v| v * v).sum();
        sum * sum / (x.len() as f64 * sq)
    }

    /// Splits the wall time into steps and checkpoint stalls.
    pub fn attribute(&self) -> Attribution {
        let step_ms = [0, 1, 2].map(|j| {
            let plain: Vec<f64> = self
                .ticks
                .iter()
                .filter(|t| t.job == j && t.checkpoints == 0)
                .map(Tick::step_ms)
                .collect();
            median(&plain)
        });
        let stalls: Vec<f64> = self
            .ticks
            .iter()
            .filter(|t| t.checkpoints > 0)
            .map(|t| {
                let tick_ms = (t.span.1 - t.span.0) as f64 / 1e6;
                (tick_ms - t.steps as f64 * step_ms[t.job]) / t.checkpoints as f64
            })
            .collect();
        let (w0, w1) = self.wall();
        let wall_ms = (w1 - w0) as f64 / 1e6;
        let checkpoints: usize = self.ticks.iter().map(|t| t.checkpoints).sum();
        let ckpt_stall_ms = if stalls.is_empty() {
            0.0
        } else {
            median(&stalls)
        };
        let stalls_ms = ckpt_stall_ms * checkpoints as f64;
        Attribution {
            step_ms,
            ckpt_stall_ms,
            ckpt_share: stalls_ms / wall_ms,
            wall_ms,
            steps_ms: (0..3).map(|j| step_ms[j] * self.plan.steps[j] as f64).sum(),
            stalls_ms,
        }
    }

    /// The correctness checks of this workload, as failure messages.
    pub fn check(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (j, job) in self.report.jobs.iter().enumerate() {
            if job.state != JobState::Completed || job.restarts != 0 {
                problems.push(format!(
                    "job {} ended {:?} after {} restarts",
                    job.name, job.state, job.restarts
                ));
            }
            if job.steps_done != self.plan.steps[j] {
                problems.push(format!(
                    "job {} applied {} of {} steps",
                    job.name, job.steps_done, self.plan.steps[j]
                ));
            }
            let checkpoints: usize = self
                .ticks
                .iter()
                .filter(|t| t.job == j)
                .map(|t| t.checkpoints)
                .sum();
            if checkpoints != self.plan.checkpoints_of(j) {
                problems.push(format!(
                    "job {} wrote {checkpoints} checkpoints, closed form {}",
                    job.name,
                    self.plan.checkpoints_of(j)
                ));
            }
        }
        if self.report.schedule.len() != self.plan.total_steps() {
            problems.push(format!(
                "schedule log holds {} grants, closed form {}",
                self.report.schedule.len(),
                self.plan.total_steps()
            ));
        }
        // Same spec, different stage: ZeRO-2 and ZeRO-3 partition the
        // same arithmetic, so their trajectories are bit-identical.
        let fp = |name: &str| self.report.job(name).map(|j| j.fingerprint);
        if fp("z2") != fp("z3") {
            problems.push(format!(
                "z2 and z3 fingerprints differ: {:x?} vs {:x?}",
                fp("z2"),
                fp("z3")
            ));
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_scales_with_seconds_and_keeps_five_checkpoints() {
        let p = ServePlan::for_seconds(15.0);
        assert_eq!(p.steps, [120, 60, 60]);
        assert_eq!(p.checkpoint_every, 30);
        for seconds in [1.0, 2.0, 15.0, 30.0, 60.0] {
            let p = ServePlan::for_seconds(seconds);
            let checkpoints: usize = (0..3).map(|j| p.checkpoints_of(j)).sum();
            assert_eq!(checkpoints, 5, "{seconds}s");
            assert_eq!(p.steps[0], 2 * p.steps[1]);
            assert_eq!(p.steps[1] % 10, 0);
        }
    }

    fn tick(job: usize, steps: usize, ms: u64, checkpoints: usize, at: &mut u64) -> Tick {
        let span = (*at, *at + ms * 1_000_000);
        *at = span.1;
        Tick {
            span,
            job,
            steps,
            checkpoints,
        }
    }

    #[test]
    fn attribution_separates_stalls_from_steps() {
        let mut at = 0;
        // single-dpu: 2-step ticks of 20 ms (10 ms/step); one of them
        // also checkpoints and takes 120 ms. z2/z3: 1-step ticks of 8 ms.
        let ticks = vec![
            tick(0, 2, 20, 0, &mut at),
            tick(1, 1, 8, 0, &mut at),
            tick(2, 1, 8, 0, &mut at),
            tick(0, 2, 120, 1, &mut at),
            tick(1, 1, 8, 0, &mut at),
            tick(2, 1, 8, 0, &mut at),
            tick(0, 2, 20, 0, &mut at),
        ];
        let run = ServeRun {
            ticks,
            report: ServiceReport {
                jobs: Vec::new(),
                schedule: Vec::new(),
            },
            plan: ServePlan {
                steps: [6, 2, 2],
                checkpoint_every: 4,
            },
            submits: [(0, 0); 3],
            trace_json: String::new(),
        };
        let a = run.attribute();
        assert_eq!(a.step_ms, [10.0, 8.0, 8.0]);
        assert_eq!(a.ckpt_stall_ms, 100.0);
        assert_eq!(a.wall_ms, 192.0);
        assert_eq!(a.steps_ms, 92.0);
        assert_eq!(a.residue_ms(), 0.0);
        assert!((a.ckpt_share - 100.0 / 192.0).abs() < 1e-12);
        // 6/2, 2/1, 2/1 → 3, 2, 2: (7²)/(3·17).
        assert!((run.jain_index() - 49.0 / 51.0).abs() < 1e-12);
        assert_eq!(run.step_ms().len(), 10);
    }
}
