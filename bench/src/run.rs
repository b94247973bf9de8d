//! One benchmark run: a workload, a seed, a duration and either the
//! end-to-end metrics (tracing off) or the per-layer metrics (the traced
//! run, the layer probes and the benchmark's own spans).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use zero_offload::{run_zero3_ranks, TierKind, TracerRef, ZeroOffloadConfig};
use zo_models::BigramLm;
use zo_nn::GptModel;
use zo_tensor::pool;
use zo_trace::{names, Tracer};

use crate::hygiene::peak_rss_mb;
use crate::probes::{self, ProbeBudget};
use crate::serve::{self, ServePlan, ServeRun, JOBS};
use crate::stats::{iqr, median, quantile, self_time, tail_percentile, uncovered_len, Interval};
use crate::trace::{self, AlignedTracer, Span, Window};
use crate::workloads::{
    run_timed, trajectory_hash, Budget, Clock, EngineUnderTest, Kind, Seeds, StepRec, Workload,
    DATA_NOISE, WARMUP_STEPS,
};

/// Times set-up is repeated in an end-to-end run; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// Timed steps after which `wide-nvme`'s trajectory hash is taken and
/// compared with a DRAM-tier run of the same seeds.
const TIER_CHECK_STEPS: usize = 8;

/// Timed steps of an end-to-end `--quick` run (its tier check needs no
/// fewer than [`TIER_CHECK_STEPS`]).
const QUICK_STEPS: usize = 8;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub workload: &'static Workload,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--quick`: about ten steps, probes at three calls.
    pub quick: bool,
    /// Scratch directory (tier spill files, checkpoints).
    pub scratch: PathBuf,
    /// Where `<workload>.trace.json` is written.
    pub out_dir: PathBuf,
    /// Whether the per-layer run also runs the layer probes. They do not
    /// depend on the workload, so `all` runs them once and shares them.
    pub probes: bool,
}

impl RunArgs {
    fn budget(&self, share: f64, min_steps: usize, quick_steps: usize) -> Budget {
        if self.quick {
            Budget {
                time: Duration::ZERO,
                min_steps: quick_steps,
            }
        } else {
            Budget {
                time: Duration::from_secs_f64(self.seconds * share),
                min_steps,
            }
        }
    }

    /// Untimed steps every engine starts with (one in a smoke run).
    fn warmup_steps(&self) -> usize {
        if self.quick {
            1
        } else {
            WARMUP_STEPS
        }
    }

    fn setup_repeats(&self) -> usize {
        if self.quick {
            1
        } else {
            SETUP_REPEATS
        }
    }

    fn serve_plan(&self, share: f64) -> ServePlan {
        if self.quick {
            ServePlan::QUICK
        } else {
            ServePlan::for_seconds(self.seconds * share)
        }
    }
}

/// What a run found.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Steps attempted in the measured region.
    pub attempted: u64,
    /// Steps that returned an error or a non-finite loss, plus jobs that
    /// did not complete.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Correctness checks that failed (empty: the outputs are correct).
    pub problems: Vec<String>,
    /// Lines for the human-readable report (sample counts, residues).
    pub notes: Vec<String>,
}

impl RunResult {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// Runs the end-to-end measurement (tracing off).
pub fn end_to_end(a: &RunArgs) -> RunResult {
    match a.workload.kind {
        Kind::Engine(tier) => engine_end_to_end(a, tier),
        Kind::Serve => serve_end_to_end(a),
    }
}

/// Runs the per-layer measurement: the workload again with the program's
/// tracer installed, then the layer probes.
pub fn per_layer(a: &RunArgs) -> RunResult {
    let mut r = match a.workload.kind {
        Kind::Engine(_) => engine_per_layer(a),
        Kind::Serve => serve_per_layer(a),
    };
    if a.probes {
        let budget = if a.quick {
            ProbeBudget::quick()
        } else {
            ProbeBudget::full(Duration::from_secs_f64(a.seconds / 3.0))
        };
        for (name, value) in probes::run_all(budget, Seeds::derive(a.seed)) {
            r.set(name, value);
        }
    }
    // A layer this workload never enters reads 0.
    for p in &crate::schema::PER_LAYER {
        r.metrics.entry(p.name.to_string()).or_insert(0.0);
    }
    r
}

fn ms(at: Interval) -> f64 {
    (at.1 - at.0) as f64 / 1e6
}

fn mean(xs: &[f32]) -> f64 {
    xs.iter().map(|&x| f64::from(x)).sum::<f64>() / xs.len() as f64
}

fn losses_of(recs: &[StepRec]) -> Vec<f32> {
    recs.iter().filter_map(|r| r.loss).collect()
}

/// `problems` gains an entry unless the last ten losses lie `min_drop`
/// below the first ten.
fn check_learning(who: &str, losses: &[f32], min_drop: f64, problems: &mut Vec<String>) {
    if min_drop <= 0.0 {
        return;
    }
    let (first, last) = (mean(&losses[..10]), mean(&losses[losses.len() - 10..]));
    if last > first * (1.0 - min_drop) {
        problems.push(format!(
            "{who} is not learning: mean loss {last:.4} over the last ten steps against {first:.4} over the first ten (needs {:.0}% lower)",
            min_drop * 100.0
        ));
    }
}

fn count_failures(recs: &[StepRec], r: &mut RunResult) {
    r.attempted += recs.len() as u64;
    r.failed += recs.iter().filter(|s| s.failed()).count() as u64;
}

/// Builds the engine and warms it up; returns it with the warm-up
/// records.
fn set_up_engine(
    w: &Workload,
    seeds: Seeds,
    clock: Clock,
    tracer: Option<&Tracer>,
    offload: bool,
    warmup_steps: usize,
) -> (EngineUnderTest, Vec<StepRec>) {
    let mut e = EngineUnderTest::build(w, seeds, clock, tracer, offload);
    let warm = e.warm_up(warmup_steps);
    (e, warm)
}

/// Sets up `n` times over, each instance dropped before the next is
/// built; returns the last instance (the one measured) and the seconds
/// each set-up took.
fn set_up_repeatedly<T>(n: usize, mut set_up: impl FnMut(usize) -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(n);
    let mut built = None;
    for i in 0..n {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(set_up(i));
        secs.push(t0.elapsed().as_secs_f64());
    }
    (built.expect("set-up runs at least once"), secs)
}

/// The end-to-end metrics every workload fills in the same way.
fn set_common(r: &mut RunResult, step_ms: &[f64], setups: &[f64], rss: Option<f64>) {
    r.set("step_ms_p50", median(step_ms));
    r.set("setup_s", median(setups));
    match rss {
        Some(rss) => r.set("peak_rss_mb", rss),
        None => r
            .problems
            .push("VmHWM is not readable from /proc/self/status".into()),
    }
    r.notes.push(format!(
        "set-up samples {:?} s",
        setups
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    if let Some((p, v)) = tail_percentile(step_ms) {
        r.notes
            .push(format!("step_ms p{p} = {v:.3} ms (n = {})", step_ms.len()));
    }
}

fn engine_end_to_end(a: &RunArgs, tier: TierKind) -> RunResult {
    let w = a.workload;
    let seeds = Seeds::derive(a.seed);
    let clock = Clock::start();
    let mut r = RunResult::default();

    let ((mut e, warm), setups) = set_up_repeatedly(a.setup_repeats(), |_| {
        set_up_engine(w, seeds, clock, None, true, a.warmup_steps())
    });

    let loss_at = if a.quick { QUICK_STEPS } else { w.loss_at_step };
    let mut losses = losses_of(&warm);
    let mut nvme_master = None;
    let recs = run_timed(&mut e, a.budget(1.0, loss_at, loss_at), |n, e| {
        if tier == TierKind::Nvme && n == TIER_CHECK_STEPS {
            nvme_master = Some(e.engine.master_params().to_vec());
        }
    });
    losses.extend(losses_of(&recs));
    count_failures(&recs, &mut r);
    count_failures(&warm, &mut r);
    // Before anything else allocates: the tier check below builds a
    // second, DRAM-resident engine.
    let rss = peak_rss_mb();

    let wall_s: f64 = recs.iter().map(|s| ms(s.batch) + ms(s.step)).sum::<f64>() / 1e3;
    let step_ms: Vec<f64> = recs.iter().map(StepRec::step_ms).collect();
    r.set(
        "tokens_per_s",
        (recs.len() * w.tokens_per_step()) as f64 / wall_s,
    );
    r.notes.push(format!(
        "{} timed steps in {wall_s:.2} s ({} warm-up)",
        recs.len(),
        warm.len()
    ));
    set_common(&mut r, &step_ms, &setups, rss);
    let timed_losses = &losses[warm.len().min(losses.len())..];
    if r.failed == 0 {
        r.set(
            "loss_final",
            mean(&timed_losses[loss_at.saturating_sub(10)..loss_at]),
        );
        if !a.quick {
            check_learning(
                w.name,
                &timed_losses[..loss_at],
                w.min_loss_drop,
                &mut r.problems,
            );
        }
    }
    // The file tier must not change the arithmetic: the same seeds on the
    // DRAM tier give the same losses and the same master parameters.
    if let Some(nvme_master) = nvme_master {
        let n = warm.len() + TIER_CHECK_STEPS;
        let nvme = trajectory_hash(&losses[..n], &nvme_master);
        drop(e);
        let dram_w = Workload {
            kind: Kind::Engine(TierKind::Dram),
            ..*w
        };
        let (mut dram, dram_warm) =
            set_up_engine(&dram_w, seeds, clock, None, true, a.warmup_steps());
        let mut dram_losses = losses_of(&dram_warm);
        dram_losses.extend((0..TIER_CHECK_STEPS).filter_map(|_| dram.step().loss));
        let dram_hash = trajectory_hash(&dram_losses, dram.engine.master_params());
        if nvme == dram_hash {
            r.notes.push(format!(
                "tier check: hash {nvme:016x} on both tiers after {n} steps"
            ));
        } else {
            r.problems.push(format!(
                "NVMe-tier trajectory {nvme:016x} differs from the DRAM tier's {dram_hash:016x} after {n} steps"
            ));
        }
    }
    r
}

fn serve_end_to_end(a: &RunArgs) -> RunResult {
    let w = a.workload;
    let seeds = Seeds::derive(a.seed);
    let clock = Clock::start();
    let plan = a.serve_plan(1.0);
    let mut r = RunResult::default();

    let (service, setups) = set_up_repeatedly(a.setup_repeats(), |i| {
        let root = a.scratch.join(format!("ckpt-{i}"));
        serve::set_up(w, seeds, plan, &root, clock)
    });
    let run = service.run();
    let rss = peak_rss_mb();

    let tokens = plan.total_steps() * w.tokens_per_step();
    let step_ms = run.step_ms();
    r.attempted = plan.total_steps() as u64;
    r.failed = run.failed_steps() as u64;
    r.problems = run.check();
    r.set("tokens_per_s", tokens as f64 / (ms(run.wall()) / 1e3));
    r.notes.push(format!(
        "{} steps in {:.2} s",
        plan.total_steps(),
        ms(run.wall()) / 1e3
    ));
    set_common(&mut r, &step_ms, &setups, rss);
    if let Some(job) = run.report.job(JOBS[0]).filter(|j| j.losses.len() >= 10) {
        r.set("loss_final", mean(&job.losses[job.losses.len() - 10..]));
        if !a.quick {
            check_learning(JOBS[0], &job.losses, w.min_loss_drop, &mut r.problems);
        }
    }
    r.notes.extend(serve_table(&run));
    r
}

/// Wall time against Σ(per-job step time × steps) + checkpoint stalls.
fn serve_table(run: &ServeRun) -> Vec<String> {
    let at = run.attribute();
    let mut lines: Vec<String> = (0..3)
        .map(|j| {
            format!(
                "  {:<11} {:>4} steps x {:>8.3} ms = {:>9.1} ms",
                JOBS[j],
                run.plan.steps[j],
                at.step_ms[j],
                at.step_ms[j] * run.plan.steps[j] as f64
            )
        })
        .collect();
    let checkpoints: usize = run.ticks.iter().map(|t| t.checkpoints).sum();
    lines.push(format!(
        "  checkpoints {checkpoints:>4}       x {:>8.3} ms = {:>9.1} ms",
        at.ckpt_stall_ms, at.stalls_ms
    ));
    lines.push(format!(
        "  wall {:.1} ms = steps {:.1} + stalls {:.1} + residue {:.1} ({:+.1}%)",
        at.wall_ms,
        at.steps_ms,
        at.stalls_ms,
        at.residue_ms(),
        100.0 * at.residue_ms() / at.wall_ms
    ));
    lines
}

/// Pool activity of a region: tasks per step and the share of
/// `threads × wall` the workers were busy.
struct PoolUse {
    base: zo_tensor::PoolStats,
    t0: Instant,
}

impl PoolUse {
    fn start() -> PoolUse {
        PoolUse {
            base: pool::global().stats(),
            t0: Instant::now(),
        }
    }

    fn finish(self, steps: usize, r: &mut RunResult) {
        let now = pool::global().stats();
        let wall_ns = self.t0.elapsed().as_nanos() as f64;
        let threads = pool::global().threads() as f64;
        r.set(
            "pool.tasks_per_step",
            (now.tasks - self.base.tasks) as f64 / steps as f64,
        );
        r.set(
            "pool.busy_share",
            (now.busy_ns - self.base.busy_ns) as f64 / (wall_ns * threads),
        );
    }
}

fn engine_per_layer(a: &RunArgs) -> RunResult {
    let w = a.workload;
    let seeds = Seeds::derive(a.seed);
    let clock = Clock::start();
    let mut r = RunResult::default();
    // Tracing off in two halves around the traced segment, so that what
    // drifts over a run (CPU steal, heap state) lands on both sides of
    // the traced-against-untraced comparison.
    let half = a.budget(0.125, 5, 1);
    let (mut e, warm) = set_up_engine(w, seeds, clock, None, true, a.warmup_steps());
    let pool_use = PoolUse::start();
    let mut plain = run_timed(&mut e, half, |_, _| {});
    pool_use.finish(plain.len(), &mut r);

    // The same seeds with the program's tracer installed.
    let aligned = AlignedTracer::new(clock);
    let (mut te, traced_warm) = set_up_engine(
        w,
        seeds,
        clock,
        Some(&aligned.tracer),
        true,
        a.warmup_steps(),
    );
    let traced = run_timed(&mut te, a.budget(0.25, 10, 2), |_, _| {});
    let params = te.engine.master_params().len() as f64;
    drop(te);

    plain.extend(run_timed(&mut e, half, |_, _| {}));
    drop(e);

    // 1. The untraced steps: the benchmark's own spans partition a step.
    count_failures(&plain, &mut r);
    let step_ms: Vec<f64> = plain.iter().map(StepRec::step_ms).collect();
    let closure_ms: Vec<f64> = plain.iter().map(|s| ms(s.closure)).collect();
    let hook_ms: Vec<f64> = plain.iter().map(|s| s.hook_ns as f64 / 1e6).collect();
    let fwd_bwd: Vec<f64> = closure_ms
        .iter()
        .zip(&hook_ms)
        .map(|(c, h)| c - h)
        .collect();
    // The step's self time: what is left once the closure is taken out.
    let tail: Vec<f64> = plain
        .iter()
        .map(|s| self_time(s.step, &[s.closure]) as f64 / 1e6)
        .collect();
    let batch_us: Vec<f64> = plain.iter().map(|s| ms(s.batch) * 1e3).collect();
    let p50 = median(&step_ms);
    r.set("nn.fwd_bwd_ms", median(&fwd_bwd));
    r.set("exposed.grad_hook_ms", median(&hook_ms));
    r.set("exposed.offload_tail_ms", median(&tail));
    r.set("engine.step_ms_p95", quantile(&step_ms, 0.95));
    r.set("engine.step_ms_iqr", iqr(&step_ms));
    r.set("data.batch_us", median(&batch_us));
    let skipped = warm
        .iter()
        .chain(&plain)
        .filter(|s| !s.failed() && !s.applied);
    r.set("optim.overflow_skips", skipped.count() as f64);
    let parts = median(&fwd_bwd) + median(&hook_ms) + median(&tail);
    r.notes.push(format!(
        "untraced: {} steps, p50 {p50:.3} ms; spans fwd_bwd {:.3} + grad_hook {:.3} + offload_tail {:.3} = {parts:.3} ms ({:+.2}% of the step median)",
        plain.len(),
        median(&fwd_bwd),
        median(&hook_ms),
        median(&tail),
        100.0 * (parts - p50) / p50
    ));

    // 2. The traced steps.
    count_failures(&traced, &mut r);
    let same_bits = |x: &[StepRec], y: &[StepRec]| {
        x.iter()
            .zip(y)
            .all(|(p, q)| p.loss.map(f32::to_bits) == q.loss.map(f32::to_bits))
    };
    if !same_bits(&warm, &traced_warm) || !same_bits(&plain, &traced) {
        r.problems
            .push("traced and untraced losses differ on their common prefix".into());
    }
    let program = aligned.spans();
    let windows: Vec<Window> = traced
        .iter()
        .map(|s| Window {
            at: (s.batch.0, s.step.1),
            steps: 1,
        })
        .collect();
    for (metric, span) in [
        ("phase.fwd_bwd_ms", "fwd_bwd"),
        ("phase.grad_offload_ms", "grad_offload"),
        ("phase.cpu_adam_ms", "cpu_adam"),
        ("phase.param_copy_back_ms", "param_copy_back"),
        ("phase.tier_read_ms", names::TIER_READ),
        ("phase.tier_write_ms", names::TIER_WRITE),
        ("phase.tier_tile_update_ms", names::TIER_UPDATE),
    ] {
        r.set(metric, trace::phase_ms(&program, &[span], &windows));
    }
    r.set(
        "exposed.tier_io_ms",
        trace::exposed_ms(
            &program,
            &[names::TIER_READ, names::TIER_WRITE],
            &[names::TIER_UPDATE],
            &windows,
        ),
    );
    // What the traced phases leave dark in the offload tail: gradient
    // zeroing happens before the closure, clipping and loss-scale
    // bookkeeping after it.
    let all_program: Vec<Interval> = program.iter().map(|s| s.at).collect();
    let dark: Vec<f64> = traced
        .iter()
        .map(|s| {
            let outside = [(s.step.0, s.closure.0), (s.closure.1, s.step.1)];
            uncovered_len(&outside, &all_program) as f64 / 1e6
        })
        .collect();
    r.set("engine.unattributed_ms", median(&dark));

    let traced_p50 = median(&traced.iter().map(StepRec::step_ms).collect::<Vec<_>>());
    r.set("trace.overhead_pct", 100.0 * (traced_p50 / p50 - 1.0));
    let in_windows = program
        .iter()
        .filter(|s| windows.iter().any(|w| (w.at.0..w.at.1).contains(&s.at.0)))
        .count();
    r.set(
        "trace.spans_per_step",
        in_windows as f64 / traced.len() as f64,
    );

    // Exact counts: every timed step moves the same bytes.
    let rows = aligned.tracer.step_metrics();
    let timed_rows = &rows[traced_warm.len().min(rows.len())..];
    for (metric, counter) in [
        ("wire.d2h_bytes_per_step", "d2h_bytes"),
        ("wire.h2d_bytes_per_step", "h2d_bytes"),
        ("wire.tx_frames_per_step", "tx_frames"),
        ("tier.traffic_bytes_per_step", names::TIER_TRAFFIC_BYTES),
    ] {
        let per_step: Vec<u64> = timed_rows.iter().map(|row| row.counter(counter)).collect();
        let first = per_step.first().copied().unwrap_or(0);
        if per_step.iter().any(|&c| c != first) {
            r.problems.push(format!(
                "{counter} is not the same on every step: {per_step:?}"
            ));
        }
        r.set(metric, first as f64);
    }
    // The paper's 4M: 2 bytes per parameter down, 2 bytes up.
    for metric in ["wire.d2h_bytes_per_step", "wire.h2d_bytes_per_step"] {
        if r.metrics[metric] != 2.0 * params {
            r.problems.push(format!(
                "{metric} = {} but 2 x parameters = {}",
                r.metrics[metric],
                2.0 * params
            ));
        }
    }
    for (metric, gauge) in [
        ("mem.gpu_hwm_bytes", "gpu_hwm_bytes"),
        ("mem.cpu_hwm_bytes", "cpu_hwm_bytes"),
        ("mem.tier_hwm_bytes", names::TIER_HWM_BYTES),
    ] {
        r.set(metric, aligned.tracer.high_water(gauge).unwrap_or(0.0));
    }
    r.notes.push(format!(
        "traced: {} steps, p50 {traced_p50:.3} ms, {} program spans",
        traced.len(),
        program.len()
    ));

    let mut spans = trace::bench_spans(&traced);
    spans.extend(program);
    write_trace(a, &spans, &mut r);

    // 3. The plain single-worker run: no offload, same model and data.
    let (mut e, _) = set_up_engine(w, seeds, clock, None, false, a.warmup_steps());
    let base = run_timed(&mut e, a.budget(0.125, 10, 1), |_, _| {});
    count_failures(&base, &mut r);
    let base_p50 = median(&base.iter().map(StepRec::step_ms).collect::<Vec<_>>());
    r.set("engine.no_offload_step_ms", base_p50);
    r.set("engine.offload_overhead_ratio", p50 / base_p50);
    r
}

fn write_trace(a: &RunArgs, spans: &[Span], r: &mut RunResult) {
    let path = a.out_dir.join(format!("{}.trace.json", a.workload.name));
    let written = std::fs::create_dir_all(&a.out_dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_json(a.workload.name, spans)));
    match written {
        Ok(()) => r.notes.push(format!("trace: {}", path.display())),
        Err(e) => r
            .problems
            .push(format!("cannot write {}: {e}", path.display())),
    }
}

fn serve_per_layer(a: &RunArgs) -> RunResult {
    let w = a.workload;
    let seeds = Seeds::derive(a.seed);
    let clock = Clock::start();
    let plan = a.serve_plan(0.5);
    let mut r = RunResult::default();

    // A `zo_serve` job always records into its own tracer, so this one
    // run yields both the benchmark's tick spans and the program's spans.
    let s = serve::set_up(w, seeds, plan, &a.scratch.join("ckpt-traced"), clock);
    let pool_use = PoolUse::start();
    let run = s.run();
    pool_use.finish(plan.total_steps(), &mut r);
    r.attempted = plan.total_steps() as u64;
    r.failed = run.failed_steps() as u64;
    r.problems = run.check();

    let at = run.attribute();
    let step_ms = run.step_ms();
    r.set("serve.single_dpu_step_ms", at.step_ms[0]);
    r.set("serve.z2_step_ms", at.step_ms[1]);
    r.set("serve.z3_step_ms", at.step_ms[2]);
    r.set("serve.ckpt_stall_ms", at.ckpt_stall_ms);
    r.set("serve.ckpt_share", at.ckpt_share);
    r.set("serve.jain_index", run.jain_index());
    r.set(
        "serve.submit_ms",
        median(&run.submits.iter().map(|&s| ms(s)).collect::<Vec<_>>()),
    );
    r.set("engine.step_ms_p95", quantile(&step_ms, 0.95));
    r.set("engine.step_ms_iqr", iqr(&step_ms));
    r.notes.push(format!(
        "{} steps, {} ticks",
        step_ms.len(),
        run.ticks.len()
    ));
    r.notes.extend(serve_table(&run));

    let epochs: Vec<(&str, u64)> = JOBS
        .iter()
        .zip(&run.submits)
        .map(|(j, s)| (*j, s.0))
        .collect();
    let program = match trace::service_spans(&run.trace_json, &epochs) {
        Ok(spans) => spans,
        Err(e) => {
            r.problems.push(e);
            Vec::new()
        }
    };
    // Rank 1 mirrors rank 0; counting both would double every phase.
    let rank0: Vec<Span> = program
        .iter()
        .filter(|s| !s.track.ends_with("/rank1"))
        .cloned()
        .collect();
    let ticks_of = |jobs: &[usize]| -> Vec<Window> {
        run.ticks
            .iter()
            .filter(|t| jobs.contains(&t.job))
            .map(|t| Window {
                at: t.span,
                steps: t.steps,
            })
            .collect()
    };
    for (metric, spans, jobs) in [
        ("phase.fwd_bwd_ms", &["fwd_bwd"][..], &[0, 1, 2][..]),
        ("phase.grad_offload_ms", &["grad_offload"], &[0]),
        (
            "phase.cpu_adam_ms",
            &["cpu_adam", "partition_update"],
            &[0, 1, 2],
        ),
        ("phase.param_copy_back_ms", &["param_copy_back"], &[0]),
        ("phase.reduce_scatter_ms", &["reduce_scatter"], &[1, 2]),
        ("phase.all_gather_ms", &["all_gather"], &[1]),
        ("phase.param_allgather_ms", &[names::PARAM_ALLGATHER], &[2]),
    ] {
        r.set(metric, trace::phase_ms(&rank0, spans, &ticks_of(jobs)));
    }
    // The delayed update runs on its own thread; what is not behind the
    // job's next forward/backward is exposed.
    let dpu_job: Vec<Span> = rank0
        .iter()
        .filter(|s| s.track.starts_with(JOBS[0]))
        .cloned()
        .collect();
    r.set(
        "exposed.dpu_optim_ms",
        trace::exposed_ms(&dpu_job, &["cpu_adam_step"], &["fwd_bwd"], &ticks_of(&[0])),
    );
    r.set(
        "trace.spans_per_step",
        program.len() as f64 / plan.total_steps() as f64,
    );

    let mut spans: Vec<Span> = run
        .ticks
        .iter()
        .enumerate()
        .map(|(i, t)| Span {
            track: "bench/tick".into(),
            name: format!("tick:{}", JOBS[t.job]),
            at: t.span,
            cause: Some((i, "")),
        })
        .collect();
    spans.extend(program);
    write_trace(a, &spans, &mut r);

    zero3_counts(w, seeds, &mut r);
    r
}

/// Stage-3 parameter traffic and residency. `zo_serve` keeps its jobs'
/// tracers to itself, so job `z3`'s engine pair is run directly for a
/// few steps with a tracer the benchmark can read.
fn zero3_counts(w: &Workload, seeds: Seeds, r: &mut RunResult) {
    const STEPS: usize = 4;
    let tracer = Tracer::new();
    let cfg = ZeroOffloadConfig {
        tracer: Some(TracerRef::install(tracer.clone())),
        ..ZeroOffloadConfig::default()
    };
    let (batch, seq) = (w.batch, w.gpt.seq_len);
    let finite = run_zero3_ranks(
        2,
        cfg,
        |_| GptModel::new(w.gpt, seeds.model),
        |engine| {
            let mut data = BigramLm::new(w.gpt.vocab, DATA_NOISE, seeds.data);
            (0..STEPS).all(|_| {
                let b = data.batch(batch, seq);
                engine
                    .step(|m| m.train_step(&b.inputs, &b.targets, batch, seq, |_| {}))
                    .is_ok_and(|o| o.loss().is_finite())
            })
        },
    );
    if finite != [true, true] {
        r.problems.push("direct ZeRO-3 run failed a step".into());
    }
    // Counters also tick while the engines are built (the first gather),
    // so the per-step figure is the median step row, not total ÷ steps.
    let rows = tracer.step_metrics();
    let per_step: Vec<f64> = rows
        .iter()
        .skip(1)
        .map(|row| row.counter(names::PARAM_TRAFFIC_BYTES) as f64)
        .collect();
    if !per_step.is_empty() {
        r.set("param.traffic_bytes_per_step", median(&per_step));
    }
    let hwm = tracer.high_water(&format!("{}.rank0", names::PARAM_HWM_BYTES));
    r.set("mem.param_hwm_bytes", hwm.unwrap_or(0.0));
}
