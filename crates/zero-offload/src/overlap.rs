//! The delayed parameter update (paper Sec. 5.2, Fig. 6): the CPU-Adam
//! update of step *p*'s gradients overlaps step *p+1*'s backward.
//!
//! [`Dpu`] is the one implementation. It holds the resident [`CpuAdam`]
//! plus a delay, and runs each deferred update on a scoped thread beside
//! the next window-closing backward, which
//! [`StepPipeline`](crate::pipeline::StepPipeline) hands it. The thread
//! is joined inside that step, so nothing outlives a step: there is no
//! worker to shut down, drain or respawn on restore.

use zo_optim::{AdamState, CpuAdam, CpuAdamConfig};
use zo_tensor::F16;
use zo_trace::Tracer;

use crate::checkpoint::{CheckpointError, DpuCheckpoint};

/// The delayed parameter update (paper Sec. 5.2) over the resident
/// [`CpuAdam`], bit-identical to the synchronous reference
/// [`DelayedUpdate`](zo_optim::DelayedUpdate):
///
/// * steps `1..=warmup` update inline, exactly like
///   [`Updater::Cpu`](crate::pipeline::Updater::Cpu);
/// * the first step after the warm-up stashes its gradients and leaves the
///   parameters alone (the transition step);
/// * every later step's backward runs beside a scoped thread that computes
///   the stashed gradients' update ([`Dpu::beside`]), and the step's update
///   stage swaps that result in and stashes the step's own gradients.
///
/// The deferred update writes a scratch copy of the master, moments and
/// fp16 view, allocated once, never the live state. A step skipped for
/// overflow, or failed before its update stage, therefore leaves the live
/// state and the stash as they were, and the next step recomputes the same
/// update from the same inputs. No update outlives the step that launched
/// it, so checkpoints read the live state directly.
pub(crate) struct Dpu {
    /// The live optimizer: moments as of the last applied update.
    opt: CpuAdam,
    warmup: u64,
    /// Steps observed so far (the schedule's clock).
    steps_seen: u64,
    /// Gradients awaiting the next step's deferred update.
    pending: Option<Vec<f32>>,
    /// Scratch the deferred update writes; swapped in when applied.
    next: CpuAdam,
    next_master: Vec<f32>,
    next_p16: Vec<F16>,
    tracer: Tracer,
    track: String,
}

impl Dpu {
    pub(crate) fn new(
        cfg: CpuAdamConfig,
        n: usize,
        warmup: u64,
        tracer: &Tracer,
        track: &str,
    ) -> Dpu {
        Dpu {
            opt: CpuAdam::new(cfg, n),
            warmup,
            steps_seen: 0,
            pending: None,
            next: CpuAdam::new(cfg, n),
            next_master: vec![0.0; n],
            next_p16: vec![F16::ZERO; n],
            tracer: tracer.clone(),
            track: track.to_string(),
        }
    }

    /// Runs `backward` beside the deferred update of the stashed
    /// gradients, if any; returns its result and whether the update ran.
    /// The update thread starts here, after the caller has opened
    /// `fwd_bwd`, and is joined once `backward` returns, so any wait on it
    /// follows the span instead of hiding inside it. The update is one
    /// `cpu_adam_step` span from launch to done, recorded at the join —
    /// also when the step is then skipped, because the work still ran.
    pub(crate) fn beside<R>(&mut self, master: &[f32], backward: impl FnOnce() -> R) -> (R, bool) {
        let Some(grads) = self.pending.as_deref() else {
            return (backward(), false);
        };
        std::thread::scope(|s| {
            let start_us = self.tracer.now_us();
            let update = s.spawn(|| {
                self.next.copy_state_from(&self.opt);
                self.next_master.copy_from_slice(master);
                self.next
                    .step_mixed(&mut self.next_master, grads, &mut self.next_p16)
                    .expect("DPU buffers are sized together");
                self.tracer.now_us()
            });
            let out = backward();
            let end_us = update
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            let dur_us = end_us.saturating_sub(start_us);
            self.tracer
                .record_span(&self.track, "cpu_adam_step", start_us, dur_us);
            (out, true)
        })
    }

    /// The update stage of an applied step: a warm-up update inline, or
    /// the deferred update swapped in, then this step's gradients stashed
    /// by swapping buffers with `grads`. Each applied update counts one
    /// `optimizer_steps`.
    ///
    /// # Panics
    ///
    /// Panics if a gradient is stashed but the update did not run
    /// `beside` this step's backward.
    pub(crate) fn step(
        &mut self,
        ran: bool,
        grads: &mut Vec<f32>,
        master: &mut Vec<f32>,
        p16: &mut Vec<F16>,
    ) {
        self.steps_seen += 1;
        if self.steps_seen <= self.warmup {
            let _update = self.tracer.span(&self.track, "cpu_adam_step");
            self.opt
                .step_mixed(master, grads, p16)
                .expect("pipeline buffers are sized together");
        } else if let Some(stash) = &mut self.pending {
            assert!(ran, "the stashed update runs beside this step's backward");
            core::mem::swap(&mut self.opt, &mut self.next);
            core::mem::swap(master, &mut self.next_master);
            core::mem::swap(p16, &mut self.next_p16);
            core::mem::swap(stash, grads);
        } else {
            // The transition step: the stash's one allocation.
            self.pending = Some(core::mem::replace(grads, vec![0.0; grads.len()]));
            return;
        }
        self.tracer.add(&self.track, "optimizer_steps", 1);
    }

    /// The live optimizer state and the DPU bookkeeping, as a checkpoint
    /// records them. No update is in flight between steps, so the live
    /// state is the whole truth.
    pub(crate) fn checkpoint(&self) -> (AdamState, DpuCheckpoint) {
        let dpu = DpuCheckpoint {
            steps_seen: self.steps_seen,
            pending: self.pending.clone(),
        };
        (self.opt.state().clone(), dpu)
    }

    /// Restores what [`Dpu::checkpoint`] recorded. A state or stashed
    /// gradient of another length than this shard is a
    /// [`CheckpointError::SizeMismatch`], and nothing is restored.
    pub(crate) fn restore(
        &mut self,
        optim: &AdamState,
        dpu: &DpuCheckpoint,
    ) -> Result<(), CheckpointError> {
        let n = self.next_master.len();
        let bad = [Some(optim.len()), dpu.pending.as_ref().map(Vec::len)]
            .into_iter()
            .flatten()
            .find(|&len| len != n);
        if let Some(len) = bad {
            return Err(CheckpointError::SizeMismatch {
                checkpoint: len,
                engine: n,
            });
        }
        self.opt
            .load_state(optim.clone())
            .expect("state length checked above");
        self.steps_seen = dpu.steps_seen;
        self.pending = dpu.pending.clone();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zo_optim::DelayedUpdate;
    use zo_tensor::cast_f32_to_f16;

    fn grads_for(step: usize, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (((step * 13 + i * 7) % 19) as f32 - 9.0) * 0.02)
            .collect()
    }

    /// Drives a [`Dpu`] and the synchronous [`DelayedUpdate`] through
    /// `steps` steps and asserts the master and fp16 view bit-identical
    /// after every applied step. On a step in `skipped` the deferred
    /// update is computed beside the "backward" and then dropped
    /// unapplied, as the pipeline drops it on an overflow skip; the
    /// reference sees no call at all.
    fn assert_matches_delayed_update(n: usize, warmup: u64, steps: usize, skipped: &[usize]) {
        let cfg = CpuAdamConfig::default();
        let mut master: Vec<f32> = (0..n).map(|i| 0.1 * i as f32 - 4.0).collect();
        let mut p_ref = master.clone();
        let mut p16 = vec![F16::ZERO; n];
        cast_f32_to_f16(&master, &mut p16);
        let mut dpu = Dpu::new(cfg, n, warmup, &Tracer::disabled(), "optimizer");
        let mut reference = DelayedUpdate::new(CpuAdam::new(cfg, n), warmup);
        for step in 0..steps {
            let (loss, ran) = dpu.beside(&master, || step as f32);
            assert_eq!(loss, step as f32);
            assert_eq!(ran, dpu.pending.is_some());
            if skipped.contains(&step) {
                continue;
            }
            dpu.step(ran, &mut grads_for(step, n), &mut master, &mut p16);
            reference.step(&mut p_ref, &grads_for(step, n)).unwrap();
            assert_eq!(master, p_ref, "master after step {step}");
            let mut p16_ref = vec![F16::ZERO; n];
            cast_f32_to_f16(&p_ref, &mut p16_ref);
            assert_eq!(p16, p16_ref, "fp16 view after step {step}");
        }
        assert!(dpu.pending.is_some() && reference.has_pending());
    }

    /// The scoped-thread DPU is the synchronous reference bit for bit
    /// through the warm-up, the transition step, the steady state and an
    /// overflow-skipped step.
    #[test]
    fn matches_synchronous_dpu_bitwise() {
        assert_matches_delayed_update(97, 2, 9, &[5]);
    }

    /// Without a warm-up an update is in flight across every step from
    /// the second on — the pipelined use — and the parameters step *i+1*
    /// trains on come from step *i−1*'s gradients, exactly
    /// `DelayedUpdate` with warm-up 0, also when the step right after the
    /// transition and a later one are skipped.
    #[test]
    fn pipelined_use_matches_delayed_update_semantics() {
        assert_matches_delayed_update(40, 0, 7, &[1, 4]);
    }

    /// Fig. 6 on the schedule: every deferred update is launched before
    /// the caller's next `fwd_bwd` opens and joined (its span recorded)
    /// after that span closes, so the caller's forward runs while the
    /// update is in flight. Instants ordered by the program and the
    /// tracer's completion order decide; no duration is read.
    #[test]
    fn traced_update_overlaps_callers_next_forward() {
        let tracer = Tracer::new();
        let (n, steps) = (1 << 12, 4);
        let mut dpu = Dpu::new(CpuAdamConfig::default(), n, 0, &tracer, "optimizer");
        let (mut master, mut p16, mut grads) = (vec![0.5; n], vec![F16::ZERO; n], vec![0.0; n]);
        for step in 0..steps {
            grads.copy_from_slice(&grads_for(step, n));
            let ((), ran) = dpu.beside(&master, || {
                let _fwd = tracer.span("gpu", "fwd_bwd");
            });
            assert_eq!(ran, step > 0, "step {step}");
            dpu.step(ran, &mut grads, &mut master, &mut p16);
        }

        let updates = tracer.spans_named("cpu_adam_step");
        let forwards = tracer.spans_named("fwd_bwd");
        assert_eq!(updates.len(), steps - 1);
        assert_eq!(forwards.len(), steps);
        assert_eq!(
            tracer.counter_on("optimizer", "optimizer_steps"),
            steps as u64 - 1
        );
        let spans = tracer.spans();
        let position = |name: &str, nth: usize| {
            spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == name)
                .nth(nth)
                .map(|(i, _)| i)
                .unwrap()
        };
        for k in 1..steps {
            assert!(
                updates[k - 1].start_us <= forwards[k].start_us,
                "update {} launched after step {k}'s forward opened",
                k - 1
            );
            assert!(
                position("fwd_bwd", k) < position("cpu_adam_step", k - 1),
                "update {} joined before step {k}'s forward closed",
                k - 1
            );
        }
    }

    /// After the transition step the delayed update only swaps buffers:
    /// every step rotates the same allocations and allocates none.
    #[test]
    fn steady_state_dpu_steps_reuse_their_buffers() {
        let n = 64;
        let mut dpu = Dpu::new(
            CpuAdamConfig::default(),
            n,
            1,
            &Tracer::disabled(),
            "optimizer",
        );
        let (mut master, mut p16, mut grads) = (vec![0.5; n], vec![F16::ZERO; n], vec![0.0; n]);
        let mut buffers = Vec::new();
        for step in 0..8 {
            grads.copy_from_slice(&grads_for(step, n));
            let (_, ran) = dpu.beside(&master, || ());
            dpu.step(ran, &mut grads, &mut master, &mut p16);
            let mut now = [
                master.as_ptr() as usize,
                dpu.next_master.as_ptr() as usize,
                grads.as_ptr() as usize,
                dpu.pending.as_ref().map_or(0, |p| p.as_ptr() as usize),
                p16.as_ptr() as usize,
                dpu.next_p16.as_ptr() as usize,
                dpu.opt.state().m.as_ptr() as usize,
                dpu.next.state().m.as_ptr() as usize,
            ];
            now.sort_unstable();
            buffers.push(now);
        }
        assert!(
            buffers[1..].iter().all(|b| *b == buffers[1]),
            "{buffers:x?}"
        );
    }

    /// A checkpoint whose stashed gradient is not shard-sized is refused
    /// at restore, before the next step's update thread would meet it.
    #[test]
    fn restore_rejects_a_stash_of_another_length() {
        let n = 28;
        let mut dpu = Dpu::new(
            CpuAdamConfig::default(),
            n,
            0,
            &Tracer::disabled(),
            "optimizer",
        );
        let (state, mut ckpt) = dpu.checkpoint();
        ckpt.pending = Some(vec![0.0; 5]);
        assert_eq!(
            dpu.restore(&state, &ckpt),
            Err(CheckpointError::SizeMismatch {
                checkpoint: 5,
                engine: n
            })
        );
        ckpt.pending = Some(vec![0.0; n]);
        assert_eq!(dpu.restore(&state, &ckpt), Ok(()));
        assert_eq!(dpu.pending.as_deref(), Some(&[0.0; 28][..]));
    }
}
