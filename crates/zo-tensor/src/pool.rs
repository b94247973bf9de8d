//! Persistent shared worker pool for CPU-side compute kernels.
//!
//! The paper's throughput argument (Sec. 5.1) is that offloaded training
//! is gated by sustained CPU compute bandwidth: the optimizer step and the
//! fwd/bwd matmuls must run as close to hardware peak as the memory system
//! allows. Spawning OS threads per kernel invocation (as
//! `std::thread::scope` does) costs tens of microseconds each — far more
//! than a small tile of Adam math — so this module keeps one process-wide
//! pool of workers alive for the lifetime of the process and hands them
//! closures instead.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** The pool never decides *what* to compute, only
//!    *where*. Callers partition their work into contiguous ranges and the
//!    pool runs one closure per range; there is no work stealing and no
//!    dynamic splitting, so the same partition always performs the same
//!    arithmetic in the same order — results are bit-identical at any
//!    worker count, including zero (inline execution).
//! 2. **Reuse.** Workers are spawned once ([`Pool::new`] / [`global`])
//!    and live forever; [`Pool::run`] only moves boxed
//!    closures through a queue. [`Pool::stats`] exposes `tasks` and
//!    `busy_ns` counters so observability layers (and tests) can verify
//!    the pool is actually doing the work.
//! 3. **Borrowed data.** `run` executes closures that borrow the caller's
//!    stack (disjoint `&mut` sub-slices of a gradient buffer, say) and
//!    does not return until every closure has finished, panics included —
//!    the same contract as `std::thread::scope`, without the spawns.
//!
//! The global pool's size comes from the `ZO_THREADS` environment
//! variable, falling back to [`std::thread::available_parallelism`].
//! `ZO_THREADS=1` makes every `run` call execute inline on the caller's
//! thread (no workers are spawned at all), which is also the fallback
//! whenever a pool is asked to run a single task.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// A closure with its lifetime erased; see the safety argument in
/// [`Pool::run`].
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Cumulative activity counters for a pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Closures executed (both on workers and inline).
    pub tasks: u64,
    /// Total nanoseconds spent executing closures, summed over workers.
    pub busy_ns: u64,
}

/// Tracks completion of one `run` batch, including panic propagation.
struct Batch {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Batch {
    fn new(count: usize) -> Arc<Batch> {
        Arc::new(Batch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panic: Mutex::new(None),
        })
    }

    fn finish_one(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        if let Some(p) = panic {
            self.panic.lock().expect("pool batch panic slot").replace(p);
        }
        let mut remaining = self.remaining.lock().expect("pool batch counter");
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock().expect("pool batch counter");
        while *remaining > 0 {
            remaining = self.done.wait(remaining).expect("pool batch wait");
        }
    }
}

struct Queue {
    jobs: Mutex<VecDeque<(Job, Arc<Batch>)>>,
    available: Condvar,
}

/// A persistent worker pool; see the module docs for the contract.
pub struct Pool {
    queue: Arc<Queue>,
    threads: usize,
    spawned: AtomicUsize,
    tasks: AtomicU64,
    busy_ns: AtomicU64,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .field("spawned", &self.spawned.load(Ordering::Relaxed))
            .finish()
    }
}

/// Hard cap on pool size: beyond this the kernels are memory-bound anyway.
const MAX_THREADS: usize = 64;

/// The pool size the environment asks for: `ZO_THREADS` if set and valid,
/// otherwise [`std::thread::available_parallelism`], clamped to
/// `1..=64`.
pub fn env_threads() -> usize {
    let parsed = std::env::var("ZO_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0);
    let n = parsed.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    n.clamp(1, MAX_THREADS)
}

static GLOBAL: OnceLock<Arc<Pool>> = OnceLock::new();

/// The process-wide shared pool, created on first use with
/// [`env_threads`] workers.
///
/// Every parallel kernel in the workspace (matmul, CPU-Adam, embedding
/// backward, loss) submits to this one pool, so oversubscription cannot
/// occur no matter how many engines or optimizer threads are active.
pub fn global() -> &'static Arc<Pool> {
    GLOBAL.get_or_init(|| Pool::new(env_threads()))
}

impl Pool {
    /// Creates a pool with `threads` workers (spawned immediately).
    ///
    /// A 1-thread pool spawns no workers: `run` executes inline. Sizes
    /// are clamped to `1..=64`.
    pub fn new(threads: usize) -> Arc<Pool> {
        let threads = threads.clamp(1, MAX_THREADS);
        let pool = Arc::new(Pool {
            queue: Arc::new(Queue {
                jobs: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
            }),
            threads,
            spawned: AtomicUsize::new(0),
            tasks: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        });
        if threads > 1 {
            for i in 0..threads {
                let worker = Arc::clone(&pool);
                std::thread::Builder::new()
                    .name(format!("zo-pool-{i}"))
                    .spawn(move || worker.work_loop())
                    .expect("spawn pool worker");
                pool.spawned.fetch_add(1, Ordering::Relaxed);
            }
        }
        pool
    }

    /// Worker count the pool was sized for (callers use this as the
    /// default partition count).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// OS threads this pool has ever spawned. Constant after
    /// construction — the probe tests use to prove kernel calls do not
    /// create threads.
    pub fn threads_spawned(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Cumulative activity counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            tasks: self.tasks.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    fn work_loop(&self) {
        loop {
            let (job, batch) = {
                let mut jobs = self.queue.jobs.lock().expect("pool queue");
                loop {
                    if let Some(entry) = jobs.pop_front() {
                        break entry;
                    }
                    jobs = self.queue.available.wait(jobs).expect("pool queue wait");
                }
            };
            self.execute(job, Some(&batch));
        }
    }

    fn execute(&self, job: Job, batch: Option<&Batch>) {
        let start = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.tasks.fetch_add(1, Ordering::Relaxed);
        match batch {
            Some(b) => b.finish_one(outcome.err()),
            None => {
                if let Err(p) = outcome {
                    std::panic::resume_unwind(p);
                }
            }
        }
    }

    /// Runs every closure in `tasks`, blocking until all have finished.
    ///
    /// Closures may borrow from the caller's scope (`'scope` need not be
    /// `'static`): `run` does not return until every closure has executed
    /// to completion or panicked, so no borrow outlives the call — the
    /// same guarantee `std::thread::scope` provides. If any closure
    /// panicked, the panic is resumed on the caller's thread after the
    /// whole batch has drained (borrows stay valid for stragglers).
    ///
    /// On a 1-thread pool, or for a single task, the closures execute
    /// inline on the calling thread, in order. Closures submitted to
    /// workers execute in submission order (one FIFO queue, no stealing),
    /// though concurrently with each other; callers must hand out disjoint
    /// mutable state.
    pub fn run<'scope>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if tasks.is_empty() {
            return;
        }
        if self.threads <= 1 || tasks.len() == 1 {
            for task in tasks {
                // Counted like worker execution so `stats()` reflects all
                // pool-submitted work regardless of placement.
                self.execute(unsafe { erase_lifetime(task) }, None);
            }
            return;
        }
        let batch = Batch::new(tasks.len());
        {
            let mut jobs = self.queue.jobs.lock().expect("pool queue");
            for task in tasks {
                // SAFETY: the borrow checker cannot see that `run` joins
                // the batch before returning. We erase the `'scope`
                // lifetime to move the closure into the queue, and the
                // `batch.wait()` below blocks until every closure has
                // finished running (finish_one fires even on panic, via
                // catch_unwind in `execute`), so no borrow carried by the
                // closure is used after `'scope` ends.
                jobs.push_back((unsafe { erase_lifetime(task) }, Arc::clone(&batch)));
            }
            self.queue.available.notify_all();
        }
        batch.wait();
        let panic = batch.panic.lock().expect("pool batch panic slot").take();
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
    }
}

/// Erases a closure's borrow lifetime so it can sit in the worker queue.
///
/// # Safety
///
/// The caller must not return control to safe code that could invalidate
/// the closure's borrows before the closure has finished executing.
/// [`Pool::run`] upholds this by joining its batch before returning.
unsafe fn erase_lifetime<'scope>(task: Box<dyn FnOnce() + Send + 'scope>) -> Job {
    std::mem::transmute(task)
}

/// Element-wise passes (fp16 narrow/widen, quantize, unscale) over fewer
/// elements than this run inline: pool dispatch costs more than it saves.
///
/// These passes stream memory at ≈ 0.5–2 ns per element on one core, and
/// the split adds a pool round-trip plus the cost of moving the slice's
/// cache lines to the workers. Measured on a 2-vCPU host (min-of-N over
/// the wire quantize and the f16 widen, and per-slice in the traced
/// `wide-optim` step): at 64 Ki elements the two-way split took 1.4–2×
/// as long as the serial pass, at 256 Ki it was about even, and at 2 Mi
/// it was ≈ 1.7× faster. As with
/// [`MIN_PARALLEL_FLOPS`](crate::matmul::MIN_PARALLEL_FLOPS), the bar sits
/// where the split stops losing.
pub const MIN_PARALLEL_ELEMS: usize = 1 << 18;

/// The partition count for an element-wise pass over `n` elements on the
/// [`global`] pool: one part (inline) below [`MIN_PARALLEL_ELEMS`] or on a
/// one-thread pool, otherwise one part per worker.
pub fn elementwise_parts(n: usize) -> usize {
    parts_from(n, MIN_PARALLEL_ELEMS)
}

/// The partition count for a pass over `n` elements on the [`global`]
/// pool when the split pays from `min` elements on: one part (inline)
/// below `min` or on a one-thread pool, otherwise one part per worker.
pub fn parts_from(n: usize, min: usize) -> usize {
    let threads = global().threads();
    if threads <= 1 || n < min {
        1
    } else {
        threads
    }
}

/// Runs `kernel` once per range of [`partition`]`(n, parts)`, handing it
/// the range and that range's disjoint `width`-items-per-element window
/// of `data`; returns each part's result in range order.
///
/// A single range runs inline on the calling thread; otherwise the ranges
/// run as one batch on `pool`. The split depends only on `(n, parts)`, so
/// a kernel whose per-element arithmetic does not depend on where its
/// range starts gives bit-identical results for every `parts`. Must not be
/// called from inside a task of the same pool (see [`Pool::run`]).
///
/// # Panics
///
/// Panics if `data.len() != n * width`.
pub fn run_partitioned<T, R>(
    pool: &Pool,
    parts: usize,
    n: usize,
    width: usize,
    data: &mut [T],
    kernel: impl Fn(core::ops::Range<usize>, &mut [T]) -> R + Sync,
) -> Vec<R>
where
    T: Send,
    R: Send,
{
    assert_eq!(data.len(), n * width, "partitioned data length");
    let ranges = partition(n, parts);
    if ranges.len() <= 1 {
        return vec![kernel(0..n, data)];
    }
    let kernel = &kernel;
    let mut results: Vec<Option<R>> = ranges.iter().map(|_| None).collect();
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(ranges.len());
    let mut rest = data;
    for (range, slot) in ranges.into_iter().zip(&mut results) {
        let (head, tail) = rest.split_at_mut(range.len() * width);
        tasks.push(Box::new(move || *slot = Some(kernel(range, head))));
        rest = tail;
    }
    pool.run(tasks);
    results
        .into_iter()
        .map(|r| r.expect("every part ran"))
        .collect()
}

/// Splits `n` items into at most `parts` contiguous ranges of
/// near-equal size (the deterministic partitioning every parallel kernel
/// in this workspace uses).
///
/// The split depends only on `(n, parts)` — never on worker count or
/// scheduling — and concatenating the ranges in order yields `0..n`
/// exactly.
pub fn partition(n: usize, parts: usize) -> Vec<core::ops::Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let chunk = n.div_ceil(parts);
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        out.push(start..end);
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_exactly() {
        for &(n, parts) in &[(10usize, 3usize), (7, 7), (7, 9), (1, 4), (0, 3), (64, 4)] {
            let ranges = partition(n, parts);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "gap in partition({n},{parts})");
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, n);
            assert!(ranges.len() <= parts.max(1));
        }
    }

    #[test]
    fn run_executes_borrowing_closures() {
        let pool = Pool::new(3);
        let mut data = vec![0u64; 10];
        {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = data
                .chunks_mut(3)
                .enumerate()
                .map(|(i, chunk)| {
                    let f: Box<dyn FnOnce() + Send> = Box::new(move || {
                        for v in chunk {
                            *v = i as u64 + 1;
                        }
                    });
                    f
                })
                .collect();
            pool.run(tasks);
        }
        assert_eq!(data, vec![1, 1, 1, 2, 2, 2, 3, 3, 3, 4]);
        assert_eq!(pool.stats().tasks, 4);
        assert_eq!(pool.threads_spawned(), 3);
    }

    #[test]
    fn single_thread_pool_runs_inline_without_workers() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads_spawned(), 0);
        let hits = AtomicU64::new(0);
        pool.run(vec![
            Box::new(|| {
                hits.fetch_add(1, Ordering::Relaxed);
            }),
            Box::new(|| {
                hits.fetch_add(1, Ordering::Relaxed);
            }),
        ]);
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        assert_eq!(pool.stats().tasks, 2);
    }

    #[test]
    fn counters_accumulate_across_batches() {
        let pool = Pool::new(2);
        for _ in 0..5 {
            pool.run(vec![
                Box::new(|| {
                    std::hint::black_box(1 + 1);
                }),
                Box::new(|| {
                    std::hint::black_box(2 + 2);
                }),
            ]);
        }
        let stats = pool.stats();
        assert_eq!(stats.tasks, 10);
        assert_eq!(pool.threads_spawned(), 2, "workers spawned once, reused");
    }

    #[test]
    fn panics_propagate_after_batch_drains() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(vec![
                Box::new(|| {}),
                Box::new(|| panic!("worker task failed")),
                Box::new(|| {}),
            ]);
        }));
        assert!(result.is_err(), "panic must reach the submitting thread");
        // The pool survives a panicked batch.
        let ok = AtomicU64::new(0);
        pool.run(vec![
            Box::new(|| {
                ok.fetch_add(1, Ordering::Relaxed);
            }),
            Box::new(|| {
                ok.fetch_add(1, Ordering::Relaxed);
            }),
        ]);
        assert_eq!(ok.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn global_pool_is_shared_and_env_sized() {
        let a = global();
        let b = global();
        assert!(Arc::ptr_eq(a, b));
        assert!(a.threads() >= 1);
        assert!(env_threads() >= 1);
    }

    #[test]
    fn concurrent_runs_from_multiple_threads() {
        // Engine + async DPU submit from different OS threads; batches
        // must not interfere.
        let pool = Pool::new(4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let pool = &pool;
                scope.spawn(move || {
                    let mut acc = [0u64; 8];
                    for round in 0..50 {
                        let tasks: Vec<Box<dyn FnOnce() + Send>> = acc
                            .chunks_mut(2)
                            .map(|c| {
                                let f: Box<dyn FnOnce() + Send> = Box::new(move || {
                                    for v in c {
                                        *v += 1;
                                    }
                                });
                                f
                            })
                            .collect();
                        pool.run(tasks);
                        assert!(acc.iter().all(|&v| v == round + 1), "thread {t}");
                    }
                });
            }
        });
    }
}
