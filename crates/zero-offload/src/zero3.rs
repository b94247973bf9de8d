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
use zo_fault::FaultError;
use zo_nn::Model;
use zo_trace::{names, Tracer};

use crate::config::ZeroOffloadConfig;
use crate::engine::RankEngine;
use crate::zero2::spawn_ranks;

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

/// ZeRO-3 parameter residency, a field of the one
/// [`Placement`](crate::engine::Placement): the rank's gather/release
/// plan and the persistent-parameters cache it drives. PCIe volume stays
/// at ZeRO-2's `4M/N` per rank (only the owned shard crosses the
/// simulated link); the parameter collectives are accounted separately
/// under `param_traffic_bytes`.
pub(crate) struct Residency {
    pub(crate) plan: Zero3Plan,
    pub(crate) cache: Zero3Cache,
    /// The rank's trace track, `rank{r}`.
    track: String,
    /// Gauge mirroring the cache's peak residency.
    gauge: String,
}

impl Residency {
    pub(crate) fn new(plan: Zero3Plan, rank: usize) -> Residency {
        Residency {
            plan,
            cache: Zero3Cache::new(),
            track: format!("rank{rank}"),
            gauge: format!("{}.rank{rank}", names::PARAM_HWM_BYTES),
        }
    }

    /// Executes one gather event: the layer-sliced collective over the
    /// widened owned `shard`, the model write, and the traffic accounting.
    fn gather_layer(
        &self,
        comm: &Communicator,
        model: &mut impl Model,
        shard: &[f32],
        layer: usize,
        recv_bytes: u64,
        tracer: &Tracer,
    ) -> Result<(), FaultError> {
        let track = &self.track;
        let range = self.plan.layers()[layer].clone();
        let _g = tracer.span(track, names::PARAM_ALLGATHER);
        let vals = comm.try_all_gather_slice(shard, range.clone(), self.plan.total)?;
        model.load_param_range(range, &vals);
        tracer.add(track, names::PARAM_TRAFFIC_BYTES, recv_bytes);
        Ok(())
    }

    /// Runs one micro-batch's gather/release schedule before compute.
    pub(crate) fn micro_batch(
        &mut self,
        comm: &Communicator,
        model: &mut impl Model,
        shard: &[f32],
        tracer: &Tracer,
    ) -> Result<(), FaultError> {
        let events = self.plan.micro_batch_events(&mut self.cache);
        // The replay above advanced the cache's high-water mark through
        // every in-flight transient; the gauge mirrors that exact peak.
        tracer.gauge_max(&self.gauge, self.cache.peak_bytes as f64);
        for ev in events {
            match ev {
                Zero3Event::Gather { layer, recv_bytes } => {
                    self.gather_layer(comm, model, shard, layer, recv_bytes, tracer)?;
                }
                Zero3Event::Hit { .. } => {}
                Zero3Event::Release { layer, .. } => {
                    let range = self.plan.layers()[layer].clone();
                    let _r = tracer.span(&self.track, names::PARAM_RELEASE);
                    comm.try_release_slice(range, self.plan.total)?;
                    tracer.add(&self.track, names::PARAM_RELEASE, 1);
                }
                Zero3Event::Refresh { .. } => unreachable!("refresh is a publish event"),
            }
        }
        Ok(())
    }

    /// The step boundary after the owned shard is back in the model:
    /// refresh the cache from the new shards, and zero every non-cached
    /// non-owned piece so the inter-step model provably holds no full
    /// replica.
    pub(crate) fn refresh(
        &mut self,
        comm: &Communicator,
        model: &mut impl Model,
        shard: &[f32],
        tracer: &Tracer,
    ) -> Result<(), FaultError> {
        for ev in self.plan.publish_events(&self.cache) {
            if let Zero3Event::Refresh { layer, recv_bytes } = ev {
                self.gather_layer(comm, model, shard, layer, recv_bytes, tracer)?;
            }
        }
        // Physically drop everything the schedule released: gathers are
        // value-idempotent, so zeroing after compute (rather than at the
        // release event mid-schedule) changes no numerics — but it makes
        // "no resident replica between steps" a checkable model state.
        for l in 0..self.plan.layers().len() {
            if self.cache.cached_layers().contains(&l) {
                continue;
            }
            for piece in self.plan.nonowned_pieces(l) {
                model.clear_param_range(piece);
            }
        }
        Ok(())
    }

    /// The cold-start (and post-restore) state: an empty cache, and a
    /// model holding the widened owned `shard` with everything else
    /// zeroed. Re-gathers are value-idempotent, so a cold resume continues
    /// the trajectory bit-identically.
    pub(crate) fn reset(&mut self, model: &mut impl Model, shard: &[f32]) {
        self.cache = Zero3Cache::new();
        let own = self.plan.owned_range();
        model.clear_param_range(0..own.start);
        model.clear_param_range(own.end..self.plan.total);
        model.load_param_range(own, shard);
    }
}

/// One data-parallel rank of a ZeRO-3 (parameter-partitioned) + offload
/// training group: the one engine with ZeRO-3 residency on its placement.
pub type Zero3OffloadEngine<M> = RankEngine<M, true>;

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
    spawn_ranks(
        world,
        |comm| Zero3OffloadEngine::new(make_model(comm.rank()), cfg, comm),
        body,
    )
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
