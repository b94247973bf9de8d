//! The four workloads and the closed loop that drives them.
//!
//! One driver thread steps the system; the next step is issued only when
//! the previous one returned. The program under test receives only the
//! generated model, batches and seeds — never the workload's name.

use std::time::{Duration, Instant};

use zero_offload::{
    GradStream, StepError, TierKind, TracerRef, ZeroOffloadConfig, ZeroOffloadEngine,
};
use zo_models::BigramLm;
use zo_nn::{BackwardHook, GptConfig, GptModel};
use zo_tensor::TensorError;
use zo_trace::Tracer;

use crate::stats::Interval;

/// Off-chain token mass of the synthetic corpus (every workload).
pub const DATA_NOISE: f32 = 0.02;

/// Untimed steps run before the first timed one: the pool is spawned,
/// the GEMM packing scratch is sized, the page cache holds the spill
/// files and the loss scaler has left its start-up overflow skips behind.
pub const WARMUP_STEPS: usize = 3;

/// How a workload drives the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `ZeroOffloadEngine::step_streamed` with the optimizer states on
    /// the given tier.
    Engine(TierKind),
    /// Three co-scheduled `zo_serve` jobs (see [`crate::serve`]).
    Serve,
}

/// One workload: a model shape, a batch and the driver that runs it.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in every result.
    pub name: &'static str,
    /// Why the workload exists (one line, mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Model shape.
    pub gpt: GptConfig,
    /// Sequences per step.
    pub batch: usize,
    /// Driver.
    pub kind: Kind,
    /// The step index (counted from the first timed step) that must be
    /// reached even if `--seconds` has already passed: `loss_final` is
    /// the mean loss of the ten steps before it, so the metric is the same
    /// function of the seed on a fast host and a slow one.
    pub loss_at_step: usize,
    /// The model must learn: the share by which the mean loss of the ten
    /// steps before `loss_at_step` lies below that of the first ten
    /// (0 where so few tokens per step teach too little to assert on).
    pub min_loss_drop: f64,
}

impl Workload {
    /// Tokens consumed by one optimizer step.
    pub fn tokens_per_step(&self) -> usize {
        self.batch * self.gpt.seq_len
    }
}

/// The benchmark's workloads, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dense-compute",
        why: "4-layer GPT at 256 tokens/step: forward/backward GEMMs are ~80% of the step, so kernel and zo-nn work moves it and optimizer/wire/tier work must not",
        gpt: GptConfig {
            vocab: 256,
            seq_len: 64,
            hidden: 256,
            heads: 4,
            layers: 4,
        },
        batch: 4,
        kind: Kind::Engine(TierKind::Dram),
        loss_at_step: 40,
        min_loss_drop: 0.02,
    },
    Workload {
        name: "wide-optim",
        why: "5M parameters against 16 tokens/step (the paper's small-micro-batch regime): CPU Adam, fp16 gradient offload and copy-back outweigh compute",
        gpt: GptConfig {
            vocab: 8192,
            seq_len: 16,
            hidden: 256,
            heads: 4,
            layers: 1,
        },
        batch: 1,
        kind: Kind::Engine(TierKind::Dram),
        loss_at_step: 40,
        min_loss_drop: 0.0,
    },
    Workload {
        name: "wide-nvme",
        why: "wide-optim's model, data and seeds with optimizer states spilled to the file tier: the same Adam kernel behind TieredAdam's tile stream and file I/O, bit-identical trajectory",
        gpt: GptConfig {
            vocab: 8192,
            seq_len: 16,
            hidden: 256,
            heads: 4,
            layers: 1,
        },
        batch: 1,
        kind: Kind::Engine(TierKind::Nvme),
        loss_at_step: 20,
        min_loss_drop: 0.0,
    },
    Workload {
        name: "serve-mixed",
        why: "three co-scheduled zo-serve jobs (single+DPU, ZeRO-2, ZeRO-3) with periodic checkpoints: collectives, scheduler, pool dispatch and checkpoint stalls dominate, little GEMM time",
        gpt: GptConfig {
            vocab: 512,
            seq_len: 32,
            hidden: 128,
            heads: 4,
            layers: 2,
        },
        batch: 4,
        kind: Kind::Serve,
        loss_at_step: 0,
        min_loss_drop: 0.05,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// splitmix64: the one mixing function behind every derived seed.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seeds a run's inputs are generated from. They depend on `--seed`
/// alone, so `wide-optim` and `wide-nvme` train the same model on the
/// same batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// Parameter initialisation.
    pub model: u64,
    /// Corpus chain and sampling stream.
    pub data: u64,
    /// `zo_serve` scheduler (starting job).
    pub sched: u64,
}

impl Seeds {
    /// Derives the three input seeds from the command-line seed.
    pub fn derive(seed: u64) -> Seeds {
        Seeds {
            model: splitmix64(seed ^ 0x6d6f_6465_6c00_0001),
            data: splitmix64(seed ^ 0x6461_7461_0000_0002),
            sched: splitmix64(seed ^ 0x7363_6865_6400_0003),
        }
    }
}

/// The benchmark's clock: nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose epoch is now.
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// A [`BackwardHook`] that forwards every call unchanged and times it:
/// the time the backward pass spends *inside* the gradient stream rather
/// than computing.
pub struct TimedHook<'a, H: BackwardHook + ?Sized> {
    inner: &'a mut H,
    clock: Clock,
    /// Total nanoseconds spent in forwarded calls.
    pub busy_ns: u64,
    /// Each forwarded `on_grads` call, when the run keeps spans.
    pub calls: Option<Vec<Interval>>,
}

impl<'a, H: BackwardHook + ?Sized> TimedHook<'a, H> {
    /// Wraps `inner`; `keep_calls` records every call as an interval.
    pub fn new(inner: &'a mut H, clock: Clock, keep_calls: bool) -> Self {
        TimedHook {
            inner,
            clock,
            busy_ns: 0,
            calls: keep_calls.then(Vec::new),
        }
    }
}

impl<H: BackwardHook + ?Sized> BackwardHook for TimedHook<'_, H> {
    fn on_grads(&mut self, bucket: usize, grads: &[f32]) {
        let t0 = self.clock.now();
        self.inner.on_grads(bucket, grads);
        let t1 = self.clock.now();
        self.busy_ns += t1 - t0;
        if let Some(calls) = &mut self.calls {
            calls.push((t0, t1));
        }
    }

    fn on_bucket(&mut self, bucket: usize) {
        let t0 = self.clock.now();
        self.inner.on_bucket(bucket);
        self.busy_ns += self.clock.now() - t0;
    }
}

/// The benchmark-owned spans of one engine step (nanoseconds on the
/// run's [`Clock`]).
#[derive(Debug, Clone, Default)]
pub struct StepRec {
    /// `data_batch`: the step waiting for its input.
    pub batch: Interval,
    /// `step`: the whole `step_streamed` call.
    pub step: Interval,
    /// `fwd_bwd_closure`: the backward closure the engine calls.
    pub closure: Interval,
    /// Time inside the forwarded `GradStream` callbacks.
    pub hook_ns: u64,
    /// `grad_hook`: each forwarded `on_grads` call (traced runs only).
    pub hooks: Vec<Interval>,
    /// Loss, if the step returned one.
    pub loss: Option<f32>,
    /// Whether the optimizer applied (false: overflow-skipped).
    pub applied: bool,
}

impl StepRec {
    /// Wall time of the step, ms.
    pub fn step_ms(&self) -> f64 {
        (self.step.1 - self.step.0) as f64 / 1e6
    }

    /// A step fails when it returned an error or a non-finite loss.
    pub fn failed(&self) -> bool {
        !self.loss.is_some_and(f32::is_finite)
    }
}

/// A built engine with its input stream, ready to step.
pub struct EngineUnderTest {
    /// The engine.
    pub engine: ZeroOffloadEngine<GptModel>,
    data: BigramLm,
    batch: usize,
    seq: usize,
    clock: Clock,
    keep_hooks: bool,
}

impl EngineUnderTest {
    /// Builds `w`'s model and engine from `seeds`. `tracer` installs the
    /// program's own tracer (the traced run); `offload: false` builds the
    /// plain no-offload baseline.
    pub fn build(
        w: &Workload,
        seeds: Seeds,
        clock: Clock,
        tracer: Option<&Tracer>,
        offload: bool,
    ) -> EngineUnderTest {
        let Kind::Engine(tier) = w.kind else {
            panic!("{} is not an engine workload", w.name);
        };
        let mut cfg = ZeroOffloadConfig {
            optimizer_tier: tier,
            tracer: tracer.map(|t| TracerRef::install(t.clone())),
            ..ZeroOffloadConfig::default()
        };
        if !offload {
            cfg = cfg.without_offload();
        }
        EngineUnderTest {
            engine: ZeroOffloadEngine::new(GptModel::new(w.gpt, seeds.model), cfg),
            data: BigramLm::new(w.gpt.vocab, DATA_NOISE, seeds.data),
            batch: w.batch,
            seq: w.gpt.seq_len,
            clock,
            keep_hooks: tracer.is_some(),
        }
    }

    /// One closed-loop iteration: fetch a batch, run one streamed step.
    pub fn step(&mut self) -> StepRec {
        let clock = self.clock;
        let keep = self.keep_hooks;
        let (batch, seq) = (self.batch, self.seq);
        let mut rec = StepRec::default();
        let t0 = clock.now();
        let b = self.data.batch(batch, seq);
        let t1 = clock.now();
        rec.batch = (t0, t1);
        let out: Result<_, StepError<TensorError>> =
            self.engine.step_streamed(|m, stream: &mut GradStream| {
                let c0 = clock.now();
                let mut hook = TimedHook::new(stream, clock, keep);
                let loss = m.train_step_hooked(&b.inputs, &b.targets, batch, seq, &mut hook);
                rec.closure = (c0, clock.now());
                rec.hook_ns = hook.busy_ns;
                rec.hooks = hook.calls.unwrap_or_default();
                loss
            });
        rec.step = (t1, clock.now());
        if let Ok(outcome) = out {
            rec.loss = Some(outcome.loss());
            rec.applied = matches!(outcome, zero_offload::StepOutcome::Applied { .. });
        }
        rec
    }

    /// Runs the untimed warm-up steps.
    pub fn warm_up(&mut self, steps: usize) -> Vec<StepRec> {
        (0..steps).map(|_| self.step()).collect()
    }
}

/// When a timed region ends.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Measure for this long …
    pub time: Duration,
    /// … but never fewer steps than this.
    pub min_steps: usize,
}

/// Steps `e` until `budget` is spent. `after_step(n, e)` runs between
/// steps, outside every span, once `n` steps are done.
pub fn run_timed(
    e: &mut EngineUnderTest,
    budget: Budget,
    mut after_step: impl FnMut(usize, &EngineUnderTest),
) -> Vec<StepRec> {
    let start = Instant::now();
    let mut recs = Vec::new();
    while recs.len() < budget.min_steps || start.elapsed() < budget.time {
        recs.push(e.step());
        after_step(recs.len(), e);
    }
    recs
}

/// FNV-1a over loss bits then master-parameter bits: the trajectory hash
/// two runs are compared by. Never compared against a constant.
pub fn trajectory_hash(losses: &[f32], master: &[f32]) -> u64 {
    zo_serve::fingerprint_run(losses, master)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records everything a hook is handed.
    #[derive(Default)]
    struct Sink {
        grads: Vec<(usize, Vec<u32>)>,
        buckets: Vec<usize>,
    }

    impl BackwardHook for Sink {
        fn on_grads(&mut self, bucket: usize, grads: &[f32]) {
            self.grads
                .push((bucket, grads.iter().map(|g| g.to_bits()).collect()));
        }

        fn on_bucket(&mut self, bucket: usize) {
            self.buckets.push(bucket);
        }
    }

    fn tiny() -> (GptModel, zo_models::LmBatch) {
        let cfg = GptConfig {
            vocab: 16,
            seq_len: 8,
            hidden: 8,
            heads: 2,
            layers: 2,
        };
        (GptModel::new(cfg, 3), BigramLm::new(16, 0.1, 5).batch(2, 8))
    }

    #[test]
    fn timed_hook_forwards_byte_identically() {
        let (mut plain_model, b) = tiny();
        let mut plain = Sink::default();
        plain_model
            .train_step_hooked(&b.inputs, &b.targets, 2, 8, &mut plain)
            .unwrap();

        let (mut wrapped_model, _) = tiny();
        let mut inner = Sink::default();
        let mut hook = TimedHook::new(&mut inner, Clock::start(), true);
        wrapped_model
            .train_step_hooked(&b.inputs, &b.targets, 2, 8, &mut hook)
            .unwrap();
        let calls = hook.calls.take().unwrap();

        assert_eq!(inner.grads, plain.grads);
        assert_eq!(inner.buckets, plain.buckets);
        assert_eq!(calls.len(), plain.grads.len());
        assert!(calls.windows(2).all(|w| w[0].1 <= w[1].0));
    }

    #[test]
    fn timed_hook_leaves_the_engine_trajectory_unchanged() {
        let w = Workload {
            gpt: GptConfig {
                vocab: 16,
                seq_len: 8,
                hidden: 8,
                heads: 2,
                layers: 2,
            },
            batch: 2,
            ..WORKLOADS[0]
        };
        let seeds = Seeds::derive(9);
        // Through the forwarding hook …
        let mut e = EngineUnderTest::build(&w, seeds, Clock::start(), None, true);
        let hooked: Vec<u32> = (0..6).map(|_| e.step().loss.unwrap().to_bits()).collect();
        // … and handing the engine's GradStream to the model directly.
        let mut engine =
            ZeroOffloadEngine::new(GptModel::new(w.gpt, seeds.model), Default::default());
        let mut data = BigramLm::new(16, DATA_NOISE, seeds.data);
        let direct: Vec<u32> = (0..6)
            .map(|_| {
                let b = data.batch(2, 8);
                engine
                    .step_streamed(|m, s| m.train_step_hooked(&b.inputs, &b.targets, 2, 8, s))
                    .unwrap()
                    .loss()
                    .to_bits()
            })
            .collect();
        assert_eq!(hooked, direct);
        assert_eq!(e.engine.master_params(), engine.master_params());
        assert_eq!(e.engine.stats(), engine.stats());
    }

    #[test]
    fn seeds_depend_on_the_seed_only() {
        assert_eq!(Seeds::derive(1), Seeds::derive(1));
        assert_ne!(Seeds::derive(1), Seeds::derive(2));
        let s = Seeds::derive(1);
        assert!(s.model != s.data && s.data != s.sched);
    }
}
