//! Real shared-memory collectives for thread-based data-parallel training.
//!
//! The real-execution engine runs each data-parallel rank as an OS thread
//! ("threads as GPUs"). These collectives give those threads the exact
//! operations the paper's multi-GPU schedule uses — reduce-scatter of
//! gradients, broadcast/all-gather of updated parameters, all-reduce for
//! baselines — with deterministic, rank-order-independent results
//! (accumulation order is fixed by rank, not by thread arrival).

use std::sync::{Arc, Barrier};

use parking_lot::Mutex;
use zo_fault::{with_retry, FaultError, FaultSession, Site};

use crate::partition::partition_range;

struct Shared {
    barrier: Barrier,
    /// Scratch accumulation buffer.
    buf: Mutex<Vec<f32>>,
    /// Per-rank staging used to fix the reduction order.
    stage: Mutex<Vec<Option<Vec<f32>>>>,
    /// Release notifications: total non-owned elements the group's ranks
    /// have dropped via [`Communicator::try_release_slice`].
    released: Mutex<u64>,
    /// One f64 slot per rank for [`Communicator::all_reduce_sum_f64`].
    scalars: Mutex<Vec<f64>>,
}

/// Per-endpoint fault state: the decision session plus where retries are
/// traced. Wrapped in a mutex only so endpoint clones (same rank, same
/// thread) share the decision counter — there is no cross-rank sharing.
struct FaultState {
    session: FaultSession,
    tracer: zo_trace::Tracer,
    track: String,
}

/// One rank's endpoint of a thread collective group.
///
/// # Examples
///
/// ```
/// use zo_collectives::Communicator;
///
/// let comms = Communicator::group(2);
/// let handles: Vec<_> = comms
///     .into_iter()
///     .map(|c| {
///         std::thread::spawn(move || {
///             let mut data = vec![c.rank() as f32 + 1.0; 4];
///             c.all_reduce_sum(&mut data);
///             data
///         })
///     })
///     .collect();
/// for h in handles {
///     assert_eq!(h.join().unwrap(), vec![3.0; 4]);
/// }
/// ```
pub struct Communicator {
    rank: usize,
    world: usize,
    shared: Arc<Shared>,
    /// Fault-injection state, `None` until installed. Endpoint-local (per
    /// rank), shared between clones of the same endpoint.
    faults: Arc<Mutex<Option<FaultState>>>,
}

impl Clone for Communicator {
    /// Clones this endpoint: the clone has the same rank and shares the
    /// group, letting several layers owned by one rank's thread issue
    /// collectives on the same group. Do NOT drive a clone from a second
    /// thread — one thread per rank is the contract.
    fn clone(&self) -> Communicator {
        Communicator {
            rank: self.rank,
            world: self.world,
            shared: Arc::clone(&self.shared),
            faults: Arc::clone(&self.faults),
        }
    }
}

impl Communicator {
    /// Creates a group of `world` connected endpoints, one per rank.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    pub fn group(world: usize) -> Vec<Communicator> {
        assert!(world > 0, "world size must be non-zero");
        let shared = Arc::new(Shared {
            barrier: Barrier::new(world),
            buf: Mutex::new(Vec::new()),
            stage: Mutex::new(vec![None; world]),
            released: Mutex::new(0),
            scalars: Mutex::new(vec![0.0; world]),
        });
        (0..world)
            .map(|rank| Communicator {
                rank,
                world,
                shared: Arc::clone(&shared),
                faults: Arc::new(Mutex::new(None)),
            })
            .collect()
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Group size.
    pub fn world(&self) -> usize {
        self.world
    }

    /// Installs a fault-injection session on this endpoint; retries and
    /// injected faults are traced on `track`.
    ///
    /// Every rank's session must draw on [`zo_fault::lane::COLLECTIVE`]:
    /// decisions are then keyed only by `(site, operation index)`, and
    /// because collectives are lock-step per endpoint, all ranks agree on
    /// every inject/retry/fatal decision — a fatal fault errors out on all
    /// ranks together instead of deadlocking a barrier.
    pub fn install_faults(&self, session: FaultSession, tracer: zo_trace::Tracer, track: &str) {
        *self.faults.lock() = Some(FaultState {
            session,
            tracer,
            track: track.to_string(),
        });
    }

    /// Runs the fault gate for one collective at `site`: retries burn
    /// deterministic backoff without touching the barriers; a fatal or
    /// exhausted fault returns before any barrier is entered.
    fn gate(&self, site: Site) -> Result<(), FaultError> {
        let mut guard = self.faults.lock();
        let Some(state) = guard.as_mut() else {
            return Ok(());
        };
        with_retry(&mut state.session, site, &state.tracer, &state.track, || ())
    }

    fn barrier(&self) {
        self.shared.barrier.wait();
    }

    /// Stages this rank's contribution, then reduces in rank order.
    ///
    /// Returns the full sum on every rank via `buf`. Caller must read
    /// before the next entry barrier.
    fn stage_and_reduce(&self, data: &[f32]) {
        // Entry barrier: the previous collective's readers are done.
        self.barrier();
        self.shared.stage.lock()[self.rank] = Some(data.to_vec());
        self.barrier();
        if self.rank == 0 {
            // Deterministic rank-order reduction.
            let mut stage = self.shared.stage.lock();
            let mut buf = self.shared.buf.lock();
            buf.clear();
            buf.resize(data.len(), 0.0);
            for slot in stage.iter_mut() {
                let contribution = slot.take().expect("every rank staged");
                for (b, c) in buf.iter_mut().zip(&contribution) {
                    *b += *c;
                }
            }
        }
        self.barrier();
    }

    /// All-reduce (sum): every rank ends with the elementwise sum.
    pub fn all_reduce_sum(&self, data: &mut [f32]) {
        if self.world == 1 {
            return;
        }
        self.stage_and_reduce(data);
        data.copy_from_slice(&self.shared.buf.lock());
    }

    /// Scalar all-reduce (sum) in f64: every rank returns the sum of all
    /// ranks' `value`s, added in rank order on every rank, so the result
    /// is bit-identical everywhere and from run to run. At world 1 it
    /// returns `value` untouched, without a barrier.
    pub fn all_reduce_sum_f64(&self, value: f64) -> f64 {
        if self.world == 1 {
            return value;
        }
        // Entry barrier: every rank has read the previous call's slots.
        self.barrier();
        self.shared.scalars.lock()[self.rank] = value;
        self.barrier();
        let sum = self.shared.scalars.lock().iter().sum();
        sum
    }

    /// All-reduce (mean): the data-parallel gradient average.
    pub fn all_reduce_mean(&self, data: &mut [f32]) {
        self.all_reduce_sum(data);
        if self.world > 1 {
            let inv = 1.0 / self.world as f32;
            for v in data.iter_mut() {
                *v *= inv;
            }
        }
    }

    /// Reduce-scatter (mean): returns this rank's shard of the averaged
    /// buffer, using [`partition_range`] shard boundaries.
    pub fn reduce_scatter_mean(&self, data: &[f32]) -> Vec<f32> {
        let range = partition_range(data.len(), self.world, self.rank);
        if self.world == 1 {
            return data[range].to_vec();
        }
        self.stage_and_reduce(data);
        let inv = 1.0 / self.world as f32;
        self.shared.buf.lock()[range]
            .iter()
            .map(|v| v * inv)
            .collect()
    }

    /// Fault-aware [`Communicator::reduce_scatter_mean`]: transient
    /// faults at `collective.reduce_scatter` are retried with bounded
    /// backoff; fatal/exhausted faults surface as a typed error on every
    /// rank simultaneously (the decision is rank-agreed).
    pub fn try_reduce_scatter_mean(&self, data: &[f32]) -> Result<Vec<f32>, FaultError> {
        self.gate(Site::CollectiveReduceScatter)?;
        Ok(self.reduce_scatter_mean(data))
    }

    /// Fault-aware [`Communicator::all_gather`] (site
    /// `collective.allgather`); same retry and rank-agreement semantics as
    /// [`Communicator::try_reduce_scatter_mean`].
    pub fn try_all_gather(&self, shard: &[f32], total: usize) -> Result<Vec<f32>, FaultError> {
        self.gate(Site::CollectiveAllGather)?;
        Ok(self.all_gather(shard, total))
    }

    /// All-gather: assembles per-rank shards (partitioned by
    /// [`partition_range`] over `total`) into the full buffer on every rank.
    ///
    /// # Panics
    ///
    /// Panics if `shard.len()` differs from this rank's partition length.
    pub fn all_gather(&self, shard: &[f32], total: usize) -> Vec<f32> {
        let range = partition_range(total, self.world, self.rank);
        assert_eq!(shard.len(), range.len(), "shard length mismatch");
        if self.world == 1 {
            return shard.to_vec();
        }
        self.barrier();
        {
            let mut buf = self.shared.buf.lock();
            if buf.len() != total {
                buf.clear();
                buf.resize(total, 0.0);
            }
            buf[range].copy_from_slice(shard);
        }
        self.barrier();
        let out = self.shared.buf.lock().clone();
        self.barrier();
        out
    }

    /// Layer-sliced all-gather: assembles the flat-offset `range` of a
    /// buffer whose `total` elements are shard-partitioned by
    /// [`partition_range`]. Every rank passes its whole owned shard and
    /// receives just the requested slice — the stage-3 primitive that lets
    /// a rank materialise one layer without ever holding the full replica.
    ///
    /// All ranks must call with the same `range` and `total` (it is a
    /// collective); ranks whose shard does not intersect `range` still
    /// participate in the barriers.
    ///
    /// # Panics
    ///
    /// Panics if `shard.len()` differs from this rank's partition length
    /// or `range` exceeds `total`.
    pub fn all_gather_slice(
        &self,
        shard: &[f32],
        range: core::ops::Range<usize>,
        total: usize,
    ) -> Vec<f32> {
        let own = partition_range(total, self.world, self.rank);
        assert_eq!(shard.len(), own.len(), "shard length mismatch");
        assert!(range.end <= total, "slice range exceeds total");
        if self.world == 1 {
            return shard[range].to_vec();
        }
        self.barrier();
        {
            let mut buf = self.shared.buf.lock();
            if buf.len() != range.len() {
                buf.clear();
                buf.resize(range.len(), 0.0);
            }
            let lo = range.start.max(own.start);
            let hi = range.end.min(own.end);
            if lo < hi {
                buf[lo - range.start..hi - range.start]
                    .copy_from_slice(&shard[lo - own.start..hi - own.start]);
            }
        }
        self.barrier();
        let out = self.shared.buf.lock().clone();
        self.barrier();
        out
    }

    /// Fault-aware [`Communicator::all_gather_slice`] (site
    /// `collective.param_allgather`); same retry and rank-agreement
    /// semantics as [`Communicator::try_reduce_scatter_mean`].
    pub fn try_all_gather_slice(
        &self,
        shard: &[f32],
        range: core::ops::Range<usize>,
        total: usize,
    ) -> Result<Vec<f32>, FaultError> {
        self.gate(Site::CollectiveParamAllGather)?;
        Ok(self.all_gather_slice(shard, range, total))
    }

    /// Releases a previously gathered slice: notifies the group that this
    /// rank has dropped the non-owned elements of `range` and returns how
    /// many elements were freed. Purely local (no barrier) — the
    /// notification is a shared counter readable via
    /// [`Communicator::released_elems`] — but gated at site
    /// `param.release` so fault plans can target it; with the shared
    /// collective lane every rank agrees on the decision.
    pub fn try_release_slice(
        &self,
        range: core::ops::Range<usize>,
        total: usize,
    ) -> Result<usize, FaultError> {
        self.gate(Site::ParamRelease)?;
        assert!(range.end <= total, "slice range exceeds total");
        let own = partition_range(total, self.world, self.rank);
        let lo = range.start.max(own.start);
        let hi = range.end.min(own.end);
        let freed = range.len() - hi.saturating_sub(lo);
        *self.shared.released.lock() += freed as u64;
        Ok(freed)
    }

    /// Total non-owned elements released group-wide via
    /// [`Communicator::try_release_slice`].
    pub fn released_elems(&self) -> u64 {
        *self.shared.released.lock()
    }

    /// All-gather with per-rank variable lengths: returns every rank's
    /// contribution, in rank order, on every rank.
    ///
    /// Unlike [`Communicator::all_gather`], shards need not follow
    /// [`partition_range`] — used e.g. to gather uneven tensor-parallel
    /// column blocks.
    pub fn all_gather_var(&self, shard: &[f32]) -> Vec<Vec<f32>> {
        if self.world == 1 {
            return vec![shard.to_vec()];
        }
        self.barrier();
        self.shared.stage.lock()[self.rank] = Some(shard.to_vec());
        self.barrier();
        let out: Vec<Vec<f32>> = {
            let stage = self.shared.stage.lock();
            stage
                .iter()
                .map(|slot| slot.as_ref().expect("every rank staged").clone())
                .collect()
        };
        self.barrier();
        // Rank 0 clears the staging slots for the next collective.
        if self.rank == 0 {
            for slot in self.shared.stage.lock().iter_mut() {
                *slot = None;
            }
        }
        self.barrier();
        out
    }

    /// Broadcast from `root`: every rank returns root's `data`.
    pub fn broadcast(&self, data: &[f32], root: usize) -> Vec<f32> {
        if self.world == 1 {
            return data.to_vec();
        }
        self.barrier();
        if self.rank == root {
            let mut buf = self.shared.buf.lock();
            buf.clear();
            buf.extend_from_slice(data);
        }
        self.barrier();
        let out = self.shared.buf.lock().clone();
        self.barrier();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_group<T: Send + 'static>(
        world: usize,
        f: impl Fn(Communicator) -> T + Send + Sync + Clone + 'static,
    ) -> Vec<T> {
        let comms = Communicator::group(world);
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                let f = f.clone();
                std::thread::spawn(move || f(c))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    }

    #[test]
    fn all_reduce_sum_and_mean() {
        let out = run_group(4, |c| {
            let mut v = vec![(c.rank() + 1) as f32; 3];
            c.all_reduce_sum(&mut v);
            let mut m = vec![(c.rank() + 1) as f32; 3];
            c.all_reduce_mean(&mut m);
            (v, m)
        });
        for (sum, mean) in out {
            assert_eq!(sum, vec![10.0; 3]);
            assert_eq!(mean, vec![2.5; 3]);
        }
    }

    #[test]
    fn reduce_scatter_returns_owned_shard_of_mean() {
        let out = run_group(3, |c| {
            // Rank r contributes [r, r, ..., r] over 7 elements.
            let data = vec![c.rank() as f32; 7];
            (c.rank(), c.reduce_scatter_mean(&data))
        });
        // Mean over ranks 0,1,2 = 1.0 everywhere; shard lengths 3,2,2.
        for (rank, shard) in out {
            let want_len = partition_range(7, 3, rank).len();
            assert_eq!(shard.len(), want_len);
            assert!(shard.iter().all(|&v| v == 1.0));
        }
    }

    #[test]
    fn all_gather_reassembles() {
        let total = 10;
        let out = run_group(4, move |c| {
            let range = partition_range(total, 4, c.rank());
            let shard: Vec<f32> = range.clone().map(|i| i as f32).collect();
            c.all_gather(&shard, total)
        });
        let want: Vec<f32> = (0..10).map(|i| i as f32).collect();
        for full in out {
            assert_eq!(full, want);
        }
    }

    #[test]
    fn broadcast_from_each_root() {
        for root in 0..3 {
            let out = run_group(3, move |c| {
                let data = if c.rank() == root {
                    vec![42.0, 7.0]
                } else {
                    vec![0.0, 0.0]
                };
                c.broadcast(&data, root)
            });
            for v in out {
                assert_eq!(v, vec![42.0, 7.0]);
            }
        }
    }

    #[test]
    fn deterministic_reduction_order() {
        // Floating-point sums depend on order; rank-order staging must make
        // repeated runs bit-identical even with racing threads.
        let golden = run_group(4, |c| {
            let mut v: Vec<f32> = (0..64)
                .map(|i| (i as f32 + 0.1) * (c.rank() as f32 + 0.7))
                .collect();
            c.all_reduce_sum(&mut v);
            v
        });
        for _ in 0..5 {
            let again = run_group(4, |c| {
                let mut v: Vec<f32> = (0..64)
                    .map(|i| (i as f32 + 0.1) * (c.rank() as f32 + 0.7))
                    .collect();
                c.all_reduce_sum(&mut v);
                v
            });
            assert_eq!(again, golden);
        }
    }

    #[test]
    fn sequential_collectives_do_not_interfere() {
        let out = run_group(2, |c| {
            let mut a = vec![1.0f32; 4];
            c.all_reduce_sum(&mut a);
            let shard = c.reduce_scatter_mean(&[2.0, 2.0, 4.0, 4.0]);
            let full = c.all_gather(&shard, 4);
            let b = c.broadcast(&full, 1);
            (a, b)
        });
        for (a, b) in out {
            assert_eq!(a, vec![2.0; 4]);
            assert_eq!(b, vec![2.0, 2.0, 4.0, 4.0]);
        }
    }

    #[test]
    fn all_gather_var_uneven_blocks() {
        let out = run_group(3, |c| {
            // Rank r contributes r+1 elements valued r.
            let shard = vec![c.rank() as f32; c.rank() + 1];
            c.all_gather_var(&shard)
        });
        for blocks in out {
            assert_eq!(blocks.len(), 3);
            for (r, b) in blocks.iter().enumerate() {
                assert_eq!(b.len(), r + 1);
                assert!(b.iter().all(|&v| v == r as f32));
            }
        }
        // Back-to-back with other collectives (stage reuse is clean).
        let out = run_group(2, |c| {
            let blocks = c.all_gather_var(&[c.rank() as f32]);
            let mut v = vec![1.0f32];
            c.all_reduce_sum(&mut v);
            (blocks, v)
        });
        for (blocks, v) in out {
            assert_eq!(blocks, vec![vec![0.0], vec![1.0]]);
            assert_eq!(v, vec![2.0]);
        }
    }

    #[test]
    fn try_collectives_without_faults_match_plain() {
        let out = run_group(2, |c| {
            let shard = c.try_reduce_scatter_mean(&[2.0, 4.0]).unwrap();
            c.try_all_gather(&shard, 2).unwrap()
        });
        for full in out {
            assert_eq!(full, vec![2.0, 4.0]);
        }
    }

    #[test]
    fn transient_collective_faults_retry_in_lock_step() {
        use zo_fault::{FaultKind, FaultPlan, FaultSession, SiteSpec};
        let plan = std::sync::Arc::new(
            FaultPlan::builder(11)
                .site(
                    zo_fault::Site::CollectiveReduceScatter,
                    SiteSpec {
                        kind: FaultKind::Transient,
                        prob: 0.6,
                        depth: 2,
                    },
                )
                .build(),
        );
        let tracer = zo_trace::Tracer::new();
        let plan2 = std::sync::Arc::clone(&plan);
        let tracer2 = tracer.clone();
        let out = run_group(3, move |c| {
            c.install_faults(
                FaultSession::new(std::sync::Arc::clone(&plan2), zo_fault::lane::COLLECTIVE),
                tracer2.clone(),
                &format!("rank{}", c.rank()),
            );
            let mut shards = Vec::new();
            for _ in 0..8 {
                shards.push(c.try_reduce_scatter_mean(&[3.0; 7]).unwrap());
            }
            shards
        });
        // Values are unperturbed by retries...
        for shards in &out {
            for s in shards {
                assert!(s.iter().all(|&v| v == 3.0));
            }
        }
        // ...and with p=0.6 over 8 ops × 3 ranks some retries must show up.
        assert!(tracer.counter_total(zo_trace::names::RETRY_ATTEMPTS) > 0);
    }

    #[test]
    fn fatal_collective_fault_errors_on_all_ranks_without_deadlock() {
        use zo_fault::{FaultKind, FaultPlan, FaultSession, SiteSpec};
        let plan = std::sync::Arc::new(
            FaultPlan::builder(4)
                .site(
                    zo_fault::Site::CollectiveAllGather,
                    SiteSpec {
                        kind: FaultKind::Fatal,
                        prob: 1.0,
                        depth: 1,
                    },
                )
                .build(),
        );
        let out = run_group(3, move |c| {
            c.install_faults(
                FaultSession::new(std::sync::Arc::clone(&plan), zo_fault::lane::COLLECTIVE),
                zo_trace::Tracer::disabled(),
                "comm",
            );
            let range = partition_range(6, 3, c.rank());
            let shard = vec![1.0f32; range.len()];
            c.try_all_gather(&shard, 6)
        });
        for r in out {
            assert_eq!(
                r,
                Err(zo_fault::FaultError::Fatal {
                    site: zo_fault::Site::CollectiveAllGather
                })
            );
        }
    }

    #[test]
    fn all_gather_slice_assembles_any_range() {
        let total = 11;
        // Slices that sit inside one shard, span shard boundaries, and
        // cover everything.
        for range in [0..3usize, 2..9, 5..6, 0..11, 10..11] {
            let r2 = range.clone();
            let out = run_group(3, move |c| {
                let own = partition_range(total, 3, c.rank());
                let shard: Vec<f32> = own.clone().map(|i| i as f32 * 1.5).collect();
                c.all_gather_slice(&shard, r2.clone(), total)
            });
            let want: Vec<f32> = range.clone().map(|i| i as f32 * 1.5).collect();
            for got in out {
                assert_eq!(got, want, "range {range:?}");
            }
        }
    }

    #[test]
    fn slice_gather_interleaves_with_other_collectives() {
        let out = run_group(2, |c| {
            let own = partition_range(6, 2, c.rank());
            let shard: Vec<f32> = own.clone().map(|i| i as f32).collect();
            let a = c.all_gather_slice(&shard, 1..5, 6);
            let mut s = vec![1.0f32; 2];
            c.all_reduce_sum(&mut s);
            let b = c.all_gather_slice(&shard, 0..6, 6);
            (a, s, b)
        });
        for (a, s, b) in out {
            assert_eq!(a, vec![1.0, 2.0, 3.0, 4.0]);
            assert_eq!(s, vec![2.0; 2]);
            assert_eq!(b, (0..6).map(|i| i as f32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn release_slice_counts_non_owned_elements() {
        let out = run_group(2, |c| {
            // Range 0..6 over total 6: rank 0 owns 0..3, rank 1 owns 3..6.
            let freed = c.try_release_slice(0..6, 6).unwrap();
            c.barrier();
            (freed, c.released_elems())
        });
        for (freed, total_released) in out {
            // Each rank frees the 3 elements it does not own...
            assert_eq!(freed, 3);
            // ...and the group-wide notification counter sees all 6.
            assert_eq!(total_released, 6);
        }
    }

    #[test]
    fn fatal_param_allgather_fault_errors_on_all_ranks() {
        use zo_fault::{FaultKind, FaultPlan, FaultSession, SiteSpec};
        let plan = std::sync::Arc::new(
            FaultPlan::builder(9)
                .site(
                    zo_fault::Site::CollectiveParamAllGather,
                    SiteSpec {
                        kind: FaultKind::Fatal,
                        prob: 1.0,
                        depth: 1,
                    },
                )
                .build(),
        );
        let out = run_group(3, move |c| {
            c.install_faults(
                FaultSession::new(std::sync::Arc::clone(&plan), zo_fault::lane::COLLECTIVE),
                zo_trace::Tracer::disabled(),
                "comm",
            );
            let own = partition_range(9, 3, c.rank());
            let shard = vec![1.0f32; own.len()];
            c.try_all_gather_slice(&shard, 2..7, 9)
        });
        for r in out {
            assert_eq!(
                r,
                Err(zo_fault::FaultError::Fatal {
                    site: zo_fault::Site::CollectiveParamAllGather
                })
            );
        }
    }

    #[test]
    fn single_rank_short_circuits() {
        let c = Communicator::group(1).pop().unwrap();
        let mut v = vec![3.0f32];
        c.all_reduce_sum(&mut v);
        assert_eq!(v, vec![3.0]);
        assert_eq!(c.reduce_scatter_mean(&[1.0, 2.0]), vec![1.0, 2.0]);
        assert_eq!(c.all_gather(&[5.0], 1), vec![5.0]);
        assert_eq!(c.all_gather_var(&[5.0]), vec![vec![5.0]]);
        assert_eq!(c.broadcast(&[9.0], 0), vec![9.0]);
        assert_eq!(c.all_reduce_sum_f64(-0.0).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn scalar_f64_sum_is_rank_ordered_on_every_rank() {
        // Values whose sum depends on the addition order: only the rank
        // order ((((0 + 1e16) + 1) + -1e16) + 1) gives exactly 1.
        let values = [1e16, 1.0, -1e16, 1.0];
        let want = values.iter().sum::<f64>();
        assert_eq!(want, 1.0);
        for _ in 0..5 {
            let out = run_group(4, move |c| {
                let a = c.all_reduce_sum_f64(values[c.rank()]);
                // Back to back: the second call must not read stale slots.
                let b = c.all_reduce_sum_f64(c.rank() as f64);
                (a, b)
            });
            for (a, b) in out {
                assert_eq!(a.to_bits(), want.to_bits());
                assert_eq!(b, 6.0);
            }
        }
    }
}
