//! ZeRO-3 parameter partitioning: no rank ever holds a full fp16 replica.
//!
//! ZeRO-2 ([`crate::zero2`]) partitions optimizer state and gradients but
//! leaves the `2M`-byte fp16 parameter replica on every rank. Stage 3
//! partitions the parameters too: each rank owns a contiguous `1/N` fp16
//! shard, and before each micro-batch the engine *materialises* exactly
//! the layers the forward/backward needs, just in time, with layer-sliced
//! all-gathers ([`zo_collectives::Communicator::all_gather_slice`]):
//!
//! * a **prefetch window** gathers up to `prefetch_layers` upcoming
//!   layers ahead of the one about to run (overlap knob — it reorders
//!   gathers, never changes values);
//! * non-owned shards are **released** right after a layer's use, so the
//!   transient working set is bounded by the window, not the model;
//! * small layers stay resident in an LRU **persistent-parameters cache**
//!   under `persistent_param_bytes`, skipping their re-gathers entirely
//!   (DeepSpeed's `stage3_param_persistence_threshold` idea).
//!
//! The schedule is computed by [`Zero3Plan`] as a pure, replayable event
//! sequence — tests replay the same plan to predict gather traffic and
//! peak residency analytically, then hold the live engine's tracer
//! counters to the prediction. Cache decisions use *full-layer* bytes
//! (identical on every rank) so all ranks emit the same event sequence
//! and the collectives stay in lock-step; only the per-rank byte amounts
//! (the non-owned portion each rank actually receives) differ.
//!
//! Released layers are zeroed in the model at each step boundary, so
//! between steps a rank provably holds only its own shard plus the cache
//! — the gather path is load-bearing, not decorative.

use zo_collectives::{partition_range, Communicator};
use zo_fault::{lane, with_retry, FaultError, FaultSession, Site};
use zo_nn::Model;
use zo_optim::DynamicLossScaler;
use zo_tensor::{cast_f32_to_f16, F16};
use zo_trace::{names, Tracer};

use crate::checkpoint::{CheckpointError, TrainingCheckpoint};
use crate::config::{resolve_fault_plan, resolve_tracer, ZeroOffloadConfig};
use crate::engine::{EngineStats, StepOutcome};
use crate::pipeline::{build_offload_updater, GradStream, Placement, StepError, StepPipeline};
use crate::wire::roundtrip_grads;

/// One entry in the stage-3 gather/release schedule.
///
/// `recv_bytes` / `freed_bytes` are *this rank's* fp16 byte amounts: the
/// part of the layer the rank does not own (owned elements never move).
/// The event *sequence* is identical on every rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Zero3Event {
    /// The layer is not resident: all-gather it just-in-time (or ahead,
    /// for prefetch-window entries).
    Gather {
        /// Layer bucket index.
        layer: usize,
        /// Non-owned fp16 bytes this rank receives.
        recv_bytes: u64,
    },
    /// The layer is already resident in the persistent cache; touch it
    /// (moves it to most-recently-used).
    Hit {
        /// Layer bucket index.
        layer: usize,
    },
    /// The layer's non-owned shard is dropped after use (or on LRU
    /// eviction from the persistent cache).
    Release {
        /// Layer bucket index.
        layer: usize,
        /// Non-owned fp16 bytes this rank frees.
        freed_bytes: u64,
    },
    /// Step-boundary re-gather of a cache-resident layer: the optimizer
    /// moved the parameters, so persistent layers must be refreshed from
    /// the new shards.
    Refresh {
        /// Layer bucket index.
        layer: usize,
        /// Non-owned fp16 bytes this rank receives.
        recv_bytes: u64,
    },
}

/// The persistent-parameters LRU cache plus residency accounting.
///
/// Byte accounting is split on purpose: cache admission/eviction uses
/// **full-layer** fp16 bytes (rank-agnostic, so every rank makes the same
/// decision), while `resident_bytes`/`peak_bytes` use the rank's actual
/// footprint (owned shard + materialised non-owned bytes).
#[derive(Debug, Clone, Default)]
pub struct Zero3Cache {
    /// Cached layer indices, most-recently-used first.
    lru: Vec<usize>,
    /// Full-layer fp16 bytes held by the cache (rank-agnostic).
    cached_full_bytes: u64,
    /// Non-owned fp16 bytes currently materialised on this rank
    /// (cache-resident plus in-flight transients).
    resident_nonowned: u64,
    /// Peak of owned-shard + materialised bytes over the cache's life.
    peak_bytes: u64,
}

impl Zero3Cache {
    /// An empty (cold) cache.
    pub fn new() -> Zero3Cache {
        Zero3Cache::default()
    }

    /// Layer indices currently cache-resident, most-recently-used first.
    pub fn cached_layers(&self) -> &[usize] {
        &self.lru
    }

    /// Full-layer fp16 bytes held by the cache (the budget consumer).
    pub fn cached_full_bytes(&self) -> u64 {
        self.cached_full_bytes
    }

    /// Peak fp16 parameter residency this rank has reached, in bytes
    /// (owned shard + cache + transient gathers).
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }
}

/// The stage-3 ownership + schedule model: which rank owns which
/// contiguous parameter shard, and — given a prefetch window and a cache
/// budget — the exact gather/release event sequence of a micro-batch.
///
/// The plan is pure data: replaying [`Zero3Plan::micro_batch_events`] and
/// [`Zero3Plan::publish_events`] against a [`Zero3Cache`] reproduces the
/// engine's schedule without running any training, which is how the
/// traffic tests predict counters analytically.
#[derive(Debug, Clone)]
pub struct Zero3Plan {
    layers: Vec<core::ops::Range<usize>>,
    own: core::ops::Range<usize>,
    total: usize,
    prefetch: usize,
    budget_bytes: u64,
}

impl Zero3Plan {
    /// Builds the plan for one rank.
    ///
    /// `layers` are the model's flat layer-bucket ranges (must tile
    /// `0..total`); ownership is [`partition_range`] over `total`.
    ///
    /// # Panics
    ///
    /// Panics if the layers do not exactly tile `0..total` or
    /// `rank >= world`.
    pub fn new(
        layers: Vec<core::ops::Range<usize>>,
        total: usize,
        world: usize,
        rank: usize,
        prefetch: usize,
        budget_bytes: usize,
    ) -> Zero3Plan {
        assert!(rank < world, "rank {rank} out of world {world}");
        let mut off = 0;
        for r in &layers {
            assert_eq!(r.start, off, "layers must tile 0..total contiguously");
            off = r.end;
        }
        assert_eq!(off, total, "layers must cover 0..total");
        Zero3Plan {
            layers,
            own: partition_range(total, world, rank),
            total,
            prefetch,
            budget_bytes: budget_bytes as u64,
        }
    }

    /// The flat parameter range this rank owns.
    pub fn owned_range(&self) -> core::ops::Range<usize> {
        self.own.clone()
    }

    /// The model's layer-bucket ranges.
    pub fn layers(&self) -> &[core::ops::Range<usize>] {
        &self.layers
    }

    /// Full fp16 bytes of layer `l` (rank-agnostic cache currency).
    pub fn layer_full_bytes(&self, l: usize) -> u64 {
        2 * self.layers[l].len() as u64
    }

    /// fp16 bytes of layer `l` this rank does *not* own — what a gather
    /// receives and a release frees.
    pub fn layer_nonowned_bytes(&self, l: usize) -> u64 {
        let r = &self.layers[l];
        let lo = r.start.max(self.own.start);
        let hi = r.end.min(self.own.end);
        2 * (r.len() - hi.saturating_sub(lo)) as u64
    }

    /// This rank's resident fp16 bytes for a given materialised set:
    /// owned shard + `nonowned` materialised bytes.
    fn resident(&self, nonowned: u64) -> u64 {
        2 * self.own.len() as u64 + nonowned
    }

    /// The gather/release schedule of one micro-batch: a forward sweep
    /// over all layers then a backward sweep in reverse, each with the
    /// prefetch window running in sweep direction. Updates `cache`
    /// (LRU order, residency, peak) as it goes.
    pub fn micro_batch_events(&self, cache: &mut Zero3Cache) -> Vec<Zero3Event> {
        let n = self.layers.len();
        let mut events = Vec::new();
        let fwd: Vec<usize> = (0..n).collect();
        let bwd: Vec<usize> = (0..n).rev().collect();
        for sweep in [fwd, bwd] {
            self.sweep(&sweep, cache, &mut events);
        }
        events
    }

    /// One sweep (forward or backward order) of the layer list.
    fn sweep(&self, order: &[usize], cache: &mut Zero3Cache, events: &mut Vec<Zero3Event>) {
        // Layers materialised transiently this sweep (gathered, not yet
        // used): at most `prefetch + 1` at any moment.
        let mut transient: Vec<usize> = Vec::new();
        for (pos, &layer) in order.iter().enumerate() {
            // Fill the window: the current layer plus up to `prefetch`
            // upcoming ones, in sweep order.
            for &ahead in order[pos..].iter().take(self.prefetch + 1) {
                if cache.lru.contains(&ahead) || transient.contains(&ahead) {
                    continue;
                }
                events.push(Zero3Event::Gather {
                    layer: ahead,
                    recv_bytes: self.layer_nonowned_bytes(ahead),
                });
                transient.push(ahead);
                cache.resident_nonowned += self.layer_nonowned_bytes(ahead);
                cache.peak_bytes = cache.peak_bytes.max(self.resident(cache.resident_nonowned));
            }
            // Use the layer, then decide where it lives.
            if let Some(i) = cache.lru.iter().position(|&l| l == layer) {
                cache.lru.remove(i);
                cache.lru.insert(0, layer);
                events.push(Zero3Event::Hit { layer });
                continue;
            }
            transient.retain(|&l| l != layer);
            let full = self.layer_full_bytes(layer);
            if full <= self.budget_bytes {
                // Admit at MRU, evicting least-recently-used layers until
                // the full-byte budget holds (rank-agnostic decision).
                while cache.cached_full_bytes + full > self.budget_bytes {
                    let evicted = cache.lru.pop().expect("budget admits `full` alone");
                    cache.cached_full_bytes -= self.layer_full_bytes(evicted);
                    cache.resident_nonowned -= self.layer_nonowned_bytes(evicted);
                    events.push(Zero3Event::Release {
                        layer: evicted,
                        freed_bytes: self.layer_nonowned_bytes(evicted),
                    });
                }
                cache.lru.insert(0, layer);
                cache.cached_full_bytes += full;
            } else {
                // Too big to ever cache: release right after use.
                cache.resident_nonowned -= self.layer_nonowned_bytes(layer);
                events.push(Zero3Event::Release {
                    layer,
                    freed_bytes: self.layer_nonowned_bytes(layer),
                });
            }
        }
        debug_assert!(transient.is_empty(), "sweep left unused transients");
    }

    /// The step-boundary schedule: every cache-resident layer is
    /// refreshed (re-gathered) because the optimizer moved the shards.
    /// Ascending layer order, on every rank alike.
    pub fn publish_events(&self, cache: &Zero3Cache) -> Vec<Zero3Event> {
        let mut cached: Vec<usize> = cache.lru.clone();
        cached.sort_unstable();
        cached
            .into_iter()
            .map(|layer| Zero3Event::Refresh {
                layer,
                recv_bytes: self.layer_nonowned_bytes(layer),
            })
            .collect()
    }

    /// The non-owned sub-ranges of layer `l` (the pieces a release zeroes
    /// in the model): at most two, on either side of the owned shard.
    pub fn nonowned_pieces(&self, l: usize) -> Vec<core::ops::Range<usize>> {
        let r = &self.layers[l];
        let mut out = Vec::new();
        let left = r.start..r.end.min(self.own.start);
        if !left.is_empty() {
            out.push(left);
        }
        let right = r.start.max(self.own.end)..r.end;
        if !right.is_empty() {
            out.push(right);
        }
        out
    }
}

/// The stage-3 placement: layer-granular gather/release around compute,
/// reduce-scatter gradients in, owned-shard copy-back plus cache refresh
/// out. PCIe volume stays at ZeRO-2's `4M/N` per rank (only the owned
/// shard crosses the simulated link); the parameter collectives are
/// accounted separately under `param_traffic_bytes`.
struct Zero3Placement {
    comm: Communicator,
    plan: Zero3Plan,
    cache: Zero3Cache,
    track: String,
    gauge: String,
    /// Full-model gradient staging for the reduce-scatter, reused.
    full_grads: Vec<f32>,
    /// fp32 widening of this rank's fp16 shard, rebuilt when p16 changes.
    shard_f32: Vec<f32>,
}

impl Zero3Placement {
    fn widen_shard(&mut self, p16: &[F16]) {
        self.shard_f32.resize(p16.len(), 0.0);
        F16::to_f32_slice(p16, &mut self.shard_f32);
    }

    /// Executes one gather event: the layer-sliced collective, the model
    /// write, and the traffic/residency accounting.
    fn gather_layer(
        &mut self,
        model: &mut impl Model,
        layer: usize,
        recv_bytes: u64,
        span_name: &'static str,
        tracer: &Tracer,
    ) -> Result<(), FaultError> {
        let range = self.plan.layers()[layer].clone();
        let _g = tracer.span(&self.track, span_name);
        let vals =
            self.comm
                .try_all_gather_slice(&self.shard_f32, range.clone(), self.plan.total)?;
        model.load_param_range(range, &vals);
        tracer.add(&self.track, names::PARAM_TRAFFIC_BYTES, recv_bytes);
        Ok(())
    }

    /// The step-boundary sequence shared by publish and skip: copy the
    /// owned shard back from p16 (the PCIe h2d leg), refresh the cache
    /// from the new shards, and zero every non-cached non-owned piece so
    /// the inter-step model provably holds no full replica.
    fn publish_boundary(
        &mut self,
        model: &mut impl Model,
        p16: &[F16],
        stats: &mut EngineStats,
        tracer: &Tracer,
    ) -> Result<(), FaultError> {
        self.widen_shard(p16);
        let own = self.plan.owned_range();
        model.load_param_range(own.clone(), &self.shard_f32);
        stats.h2d_bytes += 2 * p16.len() as u64;
        tracer.add(&self.track, "h2d_bytes", 2 * p16.len() as u64);
        for ev in self.plan.publish_events(&self.cache) {
            if let Zero3Event::Refresh { layer, recv_bytes } = ev {
                self.gather_layer(model, layer, recv_bytes, names::PARAM_ALLGATHER, tracer)?;
            }
        }
        // Physically drop everything the schedule released: gathers are
        // value-idempotent, so zeroing after compute (rather than at the
        // release event mid-schedule) changes no numerics — but it makes
        // "no resident replica between steps" a checkable model state.
        let cached: Vec<usize> = self.cache.cached_layers().to_vec();
        for l in 0..self.plan.layers().len() {
            if cached.contains(&l) {
                continue;
            }
            for piece in self.plan.nonowned_pieces(l) {
                model.clear_param_range(piece);
            }
        }
        Ok(())
    }
}

impl<M: Model> Placement<M> for Zero3Placement {
    fn fwd_track(&self) -> &str {
        &self.track
    }

    fn counter_track(&self) -> &str {
        &self.track
    }

    fn pre_forward(
        &mut self,
        model: &mut M,
        p16: &[F16],
        _stats: &mut EngineStats,
        tracer: &Tracer,
    ) -> Result<(), FaultError> {
        self.widen_shard(p16);
        let events = self.plan.micro_batch_events(&mut self.cache);
        // The replay above advanced the cache's high-water mark through
        // every in-flight transient; the gauge mirrors that exact peak.
        tracer.gauge_max(&self.gauge, self.cache.peak_bytes as f64);
        for ev in events {
            match ev {
                Zero3Event::Gather { layer, recv_bytes } => {
                    self.gather_layer(model, layer, recv_bytes, names::PARAM_ALLGATHER, tracer)?;
                }
                Zero3Event::Hit { .. } => {}
                Zero3Event::Release { layer, freed_bytes } => {
                    let range = self.plan.layers()[layer].clone();
                    let _r = tracer.span(&self.track, names::PARAM_RELEASE);
                    self.comm.try_release_slice(range, self.plan.total)?;
                    tracer.add(&self.track, names::PARAM_RELEASE, 1);
                    let _ = freed_bytes;
                }
                Zero3Event::Refresh { .. } => unreachable!("refresh is a publish event"),
            }
        }
        Ok(())
    }

    fn transfer(
        &mut self,
        model: &mut M,
        grads: &mut [f32],
        scale: f32,
        denom: f32,
        _stream: &mut GradStream,
        stats: &mut EngineStats,
        tracer: &Tracer,
        faults: &mut FaultSession,
    ) -> Result<bool, FaultError> {
        // Identical to ZeRO-2: reduce-scatter the averaged gradients so
        // this rank receives exactly its owned shard.
        {
            let _rs = tracer.span(&self.track, "reduce_scatter");
            model.copy_grads_to(&mut self.full_grads);
            let shard = self.comm.try_reduce_scatter_mean(&self.full_grads)?;
            grads.copy_from_slice(&shard);
        }
        with_retry(faults, Site::WireD2h, tracer, &self.track, || ())?;
        let overflow = roundtrip_grads(grads, denom, scale);
        stats.d2h_bytes += 2 * grads.len() as u64;
        tracer.add(&self.track, "d2h_bytes", 2 * grads.len() as u64);
        Ok(overflow)
    }

    fn combine_overflow(&mut self, local: bool) -> bool {
        let mut flag = vec![if local { 1.0f32 } else { 0.0 }];
        self.comm.all_reduce_sum(&mut flag);
        flag[0] > 0.0
    }

    fn clip_grads(&mut self, _grads: &mut [f32], _max_norm: f64) {
        // Like ZeRO-2: a faithful global-norm clip needs another
        // collective over the shards; the sharded engines do not clip.
    }

    fn update_span(&self) -> (&str, &str) {
        (&self.track, "partition_update")
    }

    fn publish(
        &mut self,
        model: &mut M,
        p16: &[F16],
        stats: &mut EngineStats,
        tracer: &Tracer,
        _faults: &mut FaultSession,
    ) -> Result<(), FaultError> {
        self.publish_boundary(model, p16, stats, tracer)
    }

    fn on_skip(
        &mut self,
        model: &mut M,
        p16: &[F16],
        stats: &mut EngineStats,
        tracer: &Tracer,
    ) -> Result<(), FaultError> {
        // Parameters unchanged, but ranks must run the same collective
        // sequence to stay in lock-step — and the boundary invariant
        // (shard + cache only) must hold after skipped steps too.
        self.publish_boundary(model, p16, stats, tracer)
    }

    fn closes_step(&self) -> bool {
        self.comm.rank() == 0
    }
}

/// One data-parallel rank of a ZeRO-3 (parameter-partitioned) + offload
/// training group.
pub struct Zero3OffloadEngine<M: Model> {
    model: M,
    pipe: StepPipeline,
    placement: Zero3Placement,
    /// Inert: the sharded path transfers via reduce-scatter.
    stream: GradStream,
}

impl<M: Model> Zero3OffloadEngine<M> {
    /// Wraps one rank's model. All ranks must construct
    /// identically-initialized models (same seed).
    ///
    /// Construction performs *no* collectives: the model is reduced to
    /// the fp16 view of the owned shard (everything else zeroed), and the
    /// first step's pre-forward schedule materialises what compute needs.
    pub fn new(mut model: M, cfg: ZeroOffloadConfig, comm: Communicator) -> Zero3OffloadEngine<M> {
        let n = model.num_params();
        let range = partition_range(n, comm.world(), comm.rank());
        let mut full = vec![0.0f32; n];
        model.copy_params_to(&mut full);
        let master = full[range.clone()].to_vec();
        let shard_len = master.len();
        let tracer = resolve_tracer(cfg.tracer);
        let track = format!("rank{}", comm.rank());
        let updater = build_offload_updater(&cfg, &master, &tracer, &format!("{track}_optimizer"));
        let mut p16 = vec![F16::ZERO; shard_len];
        cast_f32_to_f16(&master, &mut p16);
        let plan = resolve_fault_plan(cfg.faults);
        let z3 = Zero3Plan::new(
            model.layer_ranges(),
            n,
            comm.world(),
            comm.rank(),
            cfg.prefetch_layers,
            cfg.persistent_param_bytes,
        );
        let gauge = format!("{}.rank{}", names::PARAM_HWM_BYTES, comm.rank());
        if plan.is_enabled() {
            comm.install_faults(
                FaultSession::new(plan.clone(), lane::COLLECTIVE),
                tracer.clone(),
                &track,
            );
        }
        let placement = Zero3Placement {
            comm,
            plan: z3,
            cache: Zero3Cache::new(),
            track,
            gauge,
            full_grads: vec![0.0f32; n],
            shard_f32: Vec::new(),
        };
        let pipe = StepPipeline {
            master,
            p16,
            grads: vec![0.0f32; shard_len],
            updater,
            scaler: DynamicLossScaler::new(cfg.loss_scale),
            micro_in_window: 0,
            stats: EngineStats::default(),
            tracer,
            grad_accumulation: cfg.grad_accumulation,
            max_grad_norm: 0.0,
            pool_base: zo_tensor::pool::global().stats(),
            // Shared lane ENGINE, like ZeRO-2: lock-step SPMD execution
            // makes identical per-rank fault decisions, so fatal faults
            // error everywhere before the next barrier.
            faults: FaultSession::new(plan, lane::ENGINE),
            overflow_storm_limit: cfg.overflow_storm_limit,
        };
        let mut engine = Zero3OffloadEngine {
            model,
            pipe,
            placement,
            stream: GradStream::inert(),
        };
        engine.reset_model_to_shard();
        engine
    }

    /// Loads the fp16 view of the owned shard into the model and zeroes
    /// everything else — the cold-start (and post-restore) model state.
    fn reset_model_to_shard(&mut self) {
        self.placement.widen_shard(&self.pipe.p16);
        let own = self.placement.plan.owned_range();
        if own.start > 0 {
            self.model.clear_param_range(0..own.start);
        }
        let n = self.placement.plan.total;
        if own.end < n {
            self.model.clear_param_range(own.end..n);
        }
        let shard = self.placement.shard_f32.clone();
        self.model.load_param_range(own, &shard);
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.placement.comm.rank()
    }

    /// Group size.
    pub fn world(&self) -> usize {
        self.placement.comm.world()
    }

    /// Cumulative counters for this rank.
    pub fn stats(&self) -> &EngineStats {
        &self.pipe.stats
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the wrapped model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// This rank's fp32 master shard.
    pub fn master_shard(&self) -> &[f32] {
        &self.pipe.master
    }

    /// Flat-parameter range owned by this rank.
    pub fn shard_range(&self) -> core::ops::Range<usize> {
        self.placement.plan.owned_range()
    }

    /// The rank's gather/release schedule model (replayable by tests).
    pub fn plan(&self) -> &Zero3Plan {
        &self.placement.plan
    }

    /// The live persistent-parameters cache state.
    pub fn cache(&self) -> &Zero3Cache {
        &self.placement.cache
    }

    /// One micro-batch; at window boundaries, the partitioned update.
    ///
    /// All ranks must call `step` the same number of times (collectives
    /// synchronize them).
    pub fn step<E>(
        &mut self,
        run_backward: impl FnOnce(&mut M) -> Result<f32, E>,
    ) -> Result<StepOutcome, StepError<E>> {
        self.pipe.step(
            &mut self.model,
            &mut self.placement,
            &mut self.stream,
            |m, _| run_backward(m),
        )
    }

    /// Captures this rank's training state (shard-sized: master, moments,
    /// scaler, DPU clock, counters). Every rank checkpoints its own
    /// shard; restoring all shards restores the run.
    pub fn save_checkpoint(&self) -> TrainingCheckpoint {
        self.pipe.capture_state()
    }

    /// Restores a checkpoint saved by the same rank of an identically
    /// configured group. The cache restarts cold — re-gathers are
    /// value-idempotent, so a cold resume continues the trajectory
    /// bit-identically.
    pub fn restore_checkpoint(&mut self, ckpt: &TrainingCheckpoint) -> Result<(), CheckpointError> {
        self.pipe.restore_state(ckpt)?;
        self.placement.cache = Zero3Cache::new();
        self.reset_model_to_shard();
        Ok(())
    }
}

/// Runs `world` stage-3 ranks on threads; `body` receives each rank's
/// engine. Returns each rank's output in rank order.
///
/// # Panics
///
/// Propagates panics from worker threads.
pub fn run_zero3_ranks<M, T, F>(
    world: usize,
    cfg: ZeroOffloadConfig,
    make_model: impl Fn(usize) -> M + Send + Sync,
    body: F,
) -> Vec<T>
where
    M: Model + Send,
    T: Send,
    F: Fn(&mut Zero3OffloadEngine<M>) -> T + Send + Sync,
{
    let comms = Communicator::group(world);
    std::thread::scope(|scope| {
        let body = &body;
        let make_model = &make_model;
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                scope.spawn(move || {
                    let rank = comm.rank();
                    let mut engine = Zero3OffloadEngine::new(make_model(rank), cfg, comm);
                    body(&mut engine)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zo_models::BigramLm;
    use zo_nn::{GptConfig, GptModel};
    use zo_optim::{AdamParams, LossScaleConfig};

    fn tiny_model(seed: u64) -> GptModel {
        GptModel::new(
            GptConfig {
                vocab: 16,
                seq_len: 8,
                hidden: 8,
                heads: 2,
                layers: 2,
            },
            seed,
        )
    }

    fn cfg() -> ZeroOffloadConfig {
        ZeroOffloadConfig {
            loss_scale: LossScaleConfig {
                init_scale: 256.0,
                ..Default::default()
            },
            adam: AdamParams {
                lr: 3e-3,
                ..AdamParams::default()
            },
            ..ZeroOffloadConfig::default()
        }
    }

    fn global_batch(step: usize, batch: usize) -> zo_models::LmBatch {
        let mut lm = BigramLm::new(16, 0.05, 1000);
        let mut b = lm.batch(batch, 8);
        for _ in 0..step {
            b = lm.batch(batch, 8);
        }
        b
    }

    #[test]
    fn budget_zero_schedule_gathers_every_layer_twice_and_releases_all() {
        let layers = vec![0..10, 10..30, 30..45];
        let plan = Zero3Plan::new(layers, 45, 3, 1, 0, 0);
        let mut cache = Zero3Cache::new();
        let events = plan.micro_batch_events(&mut cache);
        let gathers = events
            .iter()
            .filter(|e| matches!(e, Zero3Event::Gather { .. }))
            .count();
        let releases = events
            .iter()
            .filter(|e| matches!(e, Zero3Event::Release { .. }))
            .count();
        // Two sweeps over 3 layers, nothing cacheable.
        assert_eq!(gathers, 6);
        assert_eq!(releases, 6);
        assert!(cache.cached_layers().is_empty());
        assert!(plan.publish_events(&cache).is_empty());
        // Gathered bytes per micro-batch: both sweeps ship each layer's
        // non-owned portion once.
        let recv: u64 = events
            .iter()
            .filter_map(|e| match e {
                Zero3Event::Gather { recv_bytes, .. } => Some(*recv_bytes),
                _ => None,
            })
            .sum();
        let expect: u64 = (0..3).map(|l| plan.layer_nonowned_bytes(l)).sum::<u64>() * 2;
        assert_eq!(recv, expect);
    }

    #[test]
    fn full_budget_caches_everything_and_only_refreshes() {
        let layers = vec![0..10, 10..30, 30..45];
        let plan = Zero3Plan::new(layers, 45, 3, 0, 1, usize::MAX);
        let mut cache = Zero3Cache::new();
        // Cold micro-batch: each layer gathered once (forward sweep),
        // then pure hits.
        let first = plan.micro_batch_events(&mut cache);
        let gathers = first
            .iter()
            .filter(|e| matches!(e, Zero3Event::Gather { .. }))
            .count();
        assert_eq!(gathers, 3);
        assert!(!first
            .iter()
            .any(|e| matches!(e, Zero3Event::Release { .. })));
        assert_eq!(cache.cached_layers().len(), 3);
        // Steady state: no gathers at all.
        let second = plan.micro_batch_events(&mut cache);
        assert!(second.iter().all(|e| matches!(e, Zero3Event::Hit { .. })));
        // The step boundary refreshes every cached layer, ascending.
        let refreshes = plan.publish_events(&cache);
        let order: Vec<usize> = refreshes
            .iter()
            .map(|e| match e {
                Zero3Event::Refresh { layer, .. } => *layer,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn lru_eviction_is_bounded_by_the_budget() {
        // Budget fits exactly one 20-element layer (40 bytes).
        let layers = vec![0..20, 20..40, 40..60];
        let plan = Zero3Plan::new(layers, 60, 2, 0, 0, 40);
        let mut cache = Zero3Cache::new();
        plan.micro_batch_events(&mut cache);
        assert!(cache.cached_full_bytes() <= 40);
        assert_eq!(cache.cached_layers().len(), 1);
        // Backward sweep ends at layer 0, so that's the resident one.
        assert_eq!(cache.cached_layers(), &[0]);
    }

    #[test]
    fn ranks_stay_in_exact_sync() {
        let finals = run_zero3_ranks(
            3,
            cfg(),
            |_| tiny_model(7),
            |engine| {
                for step in 0..5 {
                    let b = global_batch(step, 3);
                    let rank = engine.rank();
                    let inputs = b.inputs[rank * 8..(rank + 1) * 8].to_vec();
                    let targets = b.targets[rank * 8..(rank + 1) * 8].to_vec();
                    engine
                        .step(|m| m.train_step(&inputs, &targets, 1, 8, |_| {}))
                        .unwrap();
                }
                let mut p = vec![0.0f32; engine.model_mut().num_params()];
                engine.model_mut().copy_params_to(&mut p);
                (engine.shard_range(), p)
            },
        );
        // Each rank's model holds its own shard (plus cache, empty at the
        // default budget 0); the shard contents agree with what the other
        // ranks would gather.
        for (range, p) in &finals {
            for (i, &v) in p.iter().enumerate() {
                if !range.contains(&i) {
                    assert_eq!(v, 0.0, "rank holds non-owned param {i} between steps");
                }
            }
            // Owned shard matches rank-order concatenation across ranks.
            let owner = finals
                .iter()
                .find(|(r, _)| r.contains(&range.start))
                .unwrap();
            assert_eq!(&owner.1[range.clone()], &p[range.clone()]);
        }
    }

    #[test]
    fn persistent_cache_keeps_layers_resident_between_steps() {
        let big_budget = ZeroOffloadConfig {
            persistent_param_bytes: usize::MAX,
            ..cfg()
        };
        let outs = run_zero3_ranks(
            2,
            big_budget,
            |_| tiny_model(3),
            |engine| {
                for step in 0..3 {
                    let b = global_batch(step, 2);
                    let rank = engine.rank();
                    let inputs = b.inputs[rank * 8..(rank + 1) * 8].to_vec();
                    let targets = b.targets[rank * 8..(rank + 1) * 8].to_vec();
                    engine
                        .step(|m| m.train_step(&inputs, &targets, 1, 8, |_| {}))
                        .unwrap();
                }
                (
                    engine.cache().cached_layers().len(),
                    engine.model_mut().num_layer_buckets(),
                )
            },
        );
        for (cached, buckets) in outs {
            assert_eq!(cached, buckets, "unbounded budget must cache every layer");
        }
    }
}
