//! # parcore — the shard-parallel execution backend
//!
//! Smart-Infinity's speedup comes from running every parameter shard's
//! optimizer update concurrently on its own CSD (paper Section IV). The
//! functional layer of this reproduction executes the same kernels in host
//! Rust; this crate gives those kernels the matching execution model: a
//! scoped thread pool ([`ParExecutor`]) with a **deterministic chunk→worker
//! assignment**, so that results are bit-identical regardless of how many
//! workers run them.
//!
//! Design constraints:
//!
//! * **No external dependencies** — built purely on [`std::thread::scope`]
//!   and [`std::sync::Mutex`], so the offline workspace needs no
//!   rayon/crossbeam.
//! * **Determinism of results** — work items are indexed; every combinator
//!   returns (or applies) results **in item order** regardless of which
//!   worker ran them, and the chunk boundaries produced by [`chunk_bounds`]
//!   depend only on their arguments, never on thread scheduling. Kernels built on top of this are bit-identical to
//!   their serial counterparts (asserted by the `optim` and `gradcomp` test
//!   suites) in **both** execution modes.
//! * **Size-aware scheduling** — by default items are work-stolen
//!   ([`ExecMode::WorkStealing`]): a worker that finishes its own queue takes
//!   items from the back of a busy sibling's queue, so one skewed shard no
//!   longer serializes the whole dispatch. [`ExecMode::Deterministic`]
//!   preserves the fixed item→worker assignment for scheduling-sensitive
//!   suites; results are identical either way.
//! * **Zero persistent state** — scoped threads are spawned per call; there is
//!   no global pool to poison or configure. For the kernel sizes this
//!   workspace runs (hundreds of thousands to millions of elements) the spawn
//!   cost is noise next to the kernel body.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

/// Minimum elements a worker must receive before fanning a kernel out pays
/// for its scoped-thread spawns. At ~1 GElem/s for an element-wise optimizer
/// step, 2^16 elements is ~60 µs of work per worker — comfortably above the
/// tens of microseconds a spawn/join round trip costs — so anything smaller
/// runs inline.
pub const MIN_ELEMS_PER_WORKER: usize = 1 << 16;

/// How an executor assigns work items to its workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Size-aware default: items start round-robin (or heaviest-first under
    /// [`ParExecutor::map_weighted`]) in per-worker queues, and an idle
    /// worker steals from the back of a busy sibling's queue. A skewed item
    /// costs one worker, not the whole dispatch.
    #[default]
    WorkStealing,
    /// Fixed item→worker assignment (item `i` on worker `i % workers`), with
    /// no stealing: which thread runs which item depends only on the item
    /// count and worker count. Results are identical to
    /// [`ExecMode::WorkStealing`] — combinators return results in item order
    /// in both modes — this mode only pins the *schedule*, for
    /// bit-equivalence suites that want scheduling held constant too.
    Deterministic,
}

/// A parallel executor: a target worker count plus a scheduling policy for
/// scoped-thread dispatch.
///
/// The executor is deliberately tiny and `Copy`: it is threaded through the
/// device models (which are `Clone`) and carries no handles, only the policy.
/// The machine's CPU count is sampled once at construction so
/// [`ParExecutor::workers_for`] can clamp fan-out without re-querying the OS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParExecutor {
    num_threads: usize,
    num_cpus: usize,
    mode: ExecMode,
}

impl Default for ParExecutor {
    /// Defaults to the machine's available parallelism.
    fn default() -> Self {
        Self::current()
    }
}

/// The machine's available parallelism (at least 1), sampled once per
/// process: the query is a system call plus cgroup reads, and executors are
/// built per optimizer step and per service.
fn detect_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

impl ParExecutor {
    /// A work-stealing executor with exactly `num_threads` workers (clamped
    /// to at least 1).
    pub fn new(num_threads: usize) -> Self {
        Self { num_threads: num_threads.max(1), num_cpus: detect_cpus(), mode: ExecMode::default() }
    }

    /// An executor with `num_threads` workers and a fixed item→worker
    /// schedule ([`ExecMode::Deterministic`]) — for suites that pin the
    /// schedule while asserting bit-equivalence.
    pub fn deterministic(num_threads: usize) -> Self {
        Self::new(num_threads).with_mode(ExecMode::Deterministic)
    }

    /// A serial executor: every combinator runs inline on the caller thread.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// An executor sized to the machine's available parallelism.
    pub fn current() -> Self {
        Self::new(detect_cpus())
    }

    /// This executor with a different scheduling mode.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// This executor pretending the machine has `num_cpus` CPUs (clamped to
    /// at least 1). Only [`ParExecutor::workers_for`]'s oversubscription
    /// clamp consults the value; tests use it to exercise the clamp on
    /// machines with a different core count.
    pub fn with_assumed_cpus(mut self, num_cpus: usize) -> Self {
        self.num_cpus = num_cpus.max(1);
        self
    }

    /// The configured worker count.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// The machine's CPU count, sampled once per process (or assumed via
    /// [`ParExecutor::with_assumed_cpus`]).
    pub fn num_cpus(&self) -> usize {
        self.num_cpus
    }

    /// The scheduling mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Worker count actually worth using for an element-wise kernel over
    /// `len` elements: capped so every worker gets at least
    /// [`MIN_ELEMS_PER_WORKER`] elements, and clamped to the machine's CPU
    /// count — a worker count above `num_cpus` oversubscribes the cores and
    /// only adds spawn and context-switch cost (1 means "run inline").
    /// Kernels built on parcore are bit-identical for every worker count, so
    /// this only tunes wall-clock, never results.
    pub fn workers_for(&self, len: usize) -> usize {
        self.num_threads.min(self.num_cpus).min(len / MIN_ELEMS_PER_WORKER).max(1)
    }

    /// Applies `f` to every item, in parallel, and returns the results **in
    /// item order**. `f` receives the item index and the item. Under
    /// [`ExecMode::Deterministic`] item `i` is pinned to worker
    /// `i % workers`; under [`ExecMode::WorkStealing`] that round-robin deal
    /// is only the starting point and idle workers steal. The returned
    /// vector is identical in both modes.
    ///
    /// With a serial executor (or a single item) this runs inline with no
    /// thread spawns.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if self.num_threads <= 1 || n <= 1 {
            return items.into_iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }
        let workers = self.num_threads.min(n);
        // Deal items round-robin into per-worker queues, remembering each
        // item's original index so results can be re-assembled in order.
        let mut queues: Vec<VecDeque<(usize, T)>> = (0..workers).map(|_| VecDeque::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            queues[i % workers].push_back((i, item));
        }
        self.run(queues, n, &f)
    }

    /// [`ParExecutor::map`] with per-item wall-clock timing: returns
    /// `(result, seconds)` for every item, in item order. The clock wraps
    /// only the closure body, on whichever worker ran it — queueing and
    /// re-assembly are excluded — which is what a service wants for per-job
    /// run-time telemetry. Results are identical to [`ParExecutor::map`];
    /// only the timings vary run to run.
    pub fn map_timed<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<(R, f64)>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.map(items, move |i, item| {
            let start = std::time::Instant::now();
            let result = f(i, item);
            (result, start.elapsed().as_secs_f64())
        })
    }

    /// [`ParExecutor::map`] with a per-item cost estimate: `weights[i]` is
    /// the relative cost of item `i` (any monotone proxy works — element
    /// count, byte size). Items are assigned heaviest-first to the least
    /// loaded worker (LPT), so a few skewed shards no longer serialize the
    /// dispatch even before stealing kicks in. Results are returned in item
    /// order and are identical to [`ParExecutor::map`] for every mode,
    /// weight vector and worker count.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != items.len()`.
    pub fn map_weighted<T, R, F>(&self, items: Vec<T>, weights: &[usize], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        assert_eq!(n, weights.len(), "weight length mismatch");
        if self.num_threads <= 1 || n <= 1 {
            return items.into_iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }
        let workers = self.num_threads.min(n);
        // Longest-processing-time deal: heaviest item first, each to the
        // currently least-loaded queue (ties broken by lowest worker id, so
        // the deal depends only on the weights).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(weights[i]), i));
        let mut items: Vec<Option<T>> = items.into_iter().map(Some).collect();
        let mut queues: Vec<VecDeque<(usize, T)>> = (0..workers).map(|_| VecDeque::new()).collect();
        let mut loads = vec![0usize; workers];
        for i in order {
            let w = (0..workers).min_by_key(|&w| (loads[w], w)).expect("workers >= 1");
            loads[w] += weights[i];
            queues[w].push_back((i, items[i].take().expect("each item dealt once")));
        }
        self.run(queues, n, &f)
    }

    /// Applies `f` to every item in parallel, discarding results. Same
    /// scheduling as [`ParExecutor::map`]; items typically carry `&mut`
    /// chunk views into caller-owned buffers.
    pub fn for_each<T, F>(&self, items: Vec<T>, f: F)
    where
        T: Send,
        F: Fn(usize, T) + Sync,
    {
        self.map(items, f);
    }

    /// Runs pre-dealt per-worker queues to completion and re-assembles the
    /// results in item order. Under [`ExecMode::WorkStealing`] the queues are
    /// shared behind mutexes: a worker drains its own queue from the front
    /// and, when empty, steals from the back of its siblings' queues. Under
    /// [`ExecMode::Deterministic`] each worker owns its queue outright.
    fn run<T, R, F>(&self, queues: Vec<VecDeque<(usize, T)>>, n: usize, f: &F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let workers = queues.len();
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        match self.mode {
            ExecMode::Deterministic => {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = queues
                        .into_iter()
                        .map(|queue| {
                            scope.spawn(move || {
                                queue
                                    .into_iter()
                                    .map(|(i, item)| (i, f(i, item)))
                                    .collect::<Vec<(usize, R)>>()
                            })
                        })
                        .collect();
                    for handle in handles {
                        for (i, result) in handle.join().expect("parcore worker panicked") {
                            slots[i] = Some(result);
                        }
                    }
                });
            }
            ExecMode::WorkStealing => {
                let queues: Vec<Mutex<VecDeque<(usize, T)>>> =
                    queues.into_iter().map(Mutex::new).collect();
                let queues = &queues;
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..workers)
                        .map(|w| {
                            scope.spawn(move || {
                                let mut done: Vec<(usize, R)> = Vec::new();
                                loop {
                                    // Own queue first (front), then steal from
                                    // the back of the first busy sibling. No
                                    // job is ever re-enqueued, so one full
                                    // empty scan means the dispatch is done.
                                    // Each lock is taken and released in its
                                    // own statement — never two at once.
                                    let mut job = queues[w]
                                        .lock()
                                        .expect("parcore queue poisoned")
                                        .pop_front();
                                    if job.is_none() {
                                        for off in 1..workers {
                                            job = queues[(w + off) % workers]
                                                .lock()
                                                .expect("parcore queue poisoned")
                                                .pop_back();
                                            if job.is_some() {
                                                break;
                                            }
                                        }
                                    }
                                    match job {
                                        Some((i, item)) => done.push((i, f(i, item))),
                                        None => break,
                                    }
                                }
                                done
                            })
                        })
                        .collect();
                    for handle in handles {
                        for (i, result) in handle.join().expect("parcore worker panicked") {
                            slots[i] = Some(result);
                        }
                    }
                });
            }
        }
        slots.into_iter().map(|r| r.expect("every item produces a result")).collect()
    }
}

/// Splits `0..len` into `num_chunks` contiguous ranges whose sizes differ by
/// at most one element (the first `len % num_chunks` chunks get the extra).
/// Depends only on the arguments, never on scheduling; empty trailing chunks
/// are omitted, so fewer than `num_chunks` ranges are returned when
/// `len < num_chunks`.
///
/// # Panics
///
/// Panics if `num_chunks` is zero.
pub fn chunk_bounds(len: usize, num_chunks: usize) -> Vec<Range<usize>> {
    assert!(num_chunks > 0, "chunk count must be positive");
    let chunks = num_chunks.min(len.max(1));
    let base = len / chunks;
    let extra = len % chunks;
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        if size == 0 {
            break;
        }
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Splits a mutable slice into the chunks described by [`chunk_bounds`],
/// preserving order. The returned sub-slices tile the input exactly.
///
/// # Panics
///
/// Panics if `num_chunks` is zero.
pub fn split_mut<T>(slice: &mut [T], num_chunks: usize) -> Vec<&mut [T]> {
    let bounds = chunk_bounds(slice.len(), num_chunks);
    let mut out = Vec::with_capacity(bounds.len());
    let mut rest = slice;
    for range in &bounds {
        let (head, tail) = rest.split_at_mut(range.len());
        out.push(head);
        rest = tail;
    }
    out
}

/// Splits an immutable slice into the chunks described by [`chunk_bounds`].
///
/// # Panics
///
/// Panics if `num_chunks` is zero.
pub fn split_ref<T>(slice: &[T], num_chunks: usize) -> Vec<&[T]> {
    chunk_bounds(slice.len(), num_chunks).into_iter().map(|r| &slice[r]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_bounds_tile_the_range_evenly() {
        assert_eq!(chunk_bounds(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(chunk_bounds(9, 3), vec![0..3, 3..6, 6..9]);
        assert_eq!(chunk_bounds(2, 5), vec![0..1, 1..2]);
        assert_eq!(chunk_bounds(0, 4), Vec::<Range<usize>>::new());
        // Sizes differ by at most one and cover everything, for many shapes.
        for len in [0usize, 1, 7, 64, 1023] {
            for chunks in [1usize, 2, 3, 7, 16] {
                let bounds = chunk_bounds(len, chunks);
                let total: usize = bounds.iter().map(Range::len).sum();
                assert_eq!(total, len, "len={len} chunks={chunks}");
                if let (Some(max), Some(min)) =
                    (bounds.iter().map(Range::len).max(), bounds.iter().map(Range::len).min())
                {
                    assert!(max - min <= 1, "len={len} chunks={chunks}");
                }
                let mut expected = 0;
                for b in &bounds {
                    assert_eq!(b.start, expected);
                    expected = b.end;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk count must be positive")]
    fn zero_chunks_panics() {
        chunk_bounds(10, 0);
    }

    #[test]
    fn split_mut_and_ref_match_chunk_bounds() {
        let mut data: Vec<u32> = (0..11).collect();
        let chunks = split_mut(&mut data, 4);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0], &[0, 1, 2]);
        assert_eq!(chunks[3], &[9, 10]);
        let views = split_ref(&data, 4);
        assert_eq!(views.iter().map(|c| c.len()).sum::<usize>(), 11);
        let empty: Vec<&mut [u32]> = split_mut(&mut [][..], 3);
        assert!(empty.is_empty());
    }

    #[test]
    fn map_preserves_item_order_for_any_thread_count() {
        let items: Vec<usize> = (0..23).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 2).collect();
        for threads in [1usize, 2, 3, 8, 64] {
            let pool = ParExecutor::new(threads);
            let out = pool.map(items.clone(), |i, x| {
                assert_eq!(i, x, "index must match the item's position");
                x * 2
            });
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn map_timed_returns_results_in_order_with_nonnegative_timings() {
        let items: Vec<usize> = (0..17).collect();
        let expected: Vec<usize> = items.iter().map(|x| x + 10).collect();
        for threads in [1usize, 3, 8] {
            let out = ParExecutor::new(threads).map_timed(items.clone(), |_, x| x + 10);
            let (results, timings): (Vec<usize>, Vec<f64>) = out.into_iter().unzip();
            assert_eq!(results, expected, "threads={threads}");
            assert!(timings.iter().all(|&t| t >= 0.0 && t.is_finite()));
        }
    }

    #[test]
    fn for_each_mutates_disjoint_chunks_in_parallel() {
        let mut data = vec![0u64; 1000];
        let pool = ParExecutor::new(4);
        let chunks = split_mut(&mut data, 7);
        pool.for_each(chunks, |i, chunk| {
            for v in chunk.iter_mut() {
                *v = i as u64 + 1;
            }
        });
        // Chunk 0 of 1000/7 has 143 elements, every one stamped with index+1.
        assert_eq!(data[0], 1);
        assert_eq!(data[999], 7);
        assert!(data.iter().all(|&v| v > 0));
    }

    #[test]
    fn workers_for_scales_with_the_kernel_size() {
        // Pin the assumed CPU count so the expectations hold on any machine.
        let pool = ParExecutor::new(4).with_assumed_cpus(4);
        assert_eq!(pool.workers_for(0), 1);
        assert_eq!(pool.workers_for(1000), 1, "small kernels run inline");
        assert_eq!(pool.workers_for(MIN_ELEMS_PER_WORKER), 1);
        assert_eq!(pool.workers_for(2 * MIN_ELEMS_PER_WORKER), 2);
        assert_eq!(pool.workers_for(100 * MIN_ELEMS_PER_WORKER), 4, "capped at the pool size");
        assert_eq!(ParExecutor::serial().workers_for(usize::MAX), 1);
    }

    #[test]
    fn workers_for_never_oversubscribes_the_cpus() {
        // A 16-thread executor on a 1-CPU container must not fan a kernel
        // out to 16 threads: the clamp caps it at the core count.
        let pool = ParExecutor::new(16).with_assumed_cpus(1);
        assert_eq!(pool.workers_for(100 * MIN_ELEMS_PER_WORKER), 1);
        let pool = ParExecutor::new(16).with_assumed_cpus(2);
        assert_eq!(pool.workers_for(100 * MIN_ELEMS_PER_WORKER), 2);
        // The clamp never *raises* the count above the configured threads.
        let pool = ParExecutor::new(2).with_assumed_cpus(64);
        assert_eq!(pool.workers_for(100 * MIN_ELEMS_PER_WORKER), 2);
        // Zero assumed CPUs clamps to one rather than dividing by zero.
        assert_eq!(ParExecutor::new(4).with_assumed_cpus(0).num_cpus(), 1);
    }

    #[test]
    fn executor_constructors_and_accessors() {
        assert_eq!(ParExecutor::serial().num_threads(), 1);
        assert_eq!(ParExecutor::new(0).num_threads(), 1, "zero clamps to one");
        assert_eq!(ParExecutor::new(6).num_threads(), 6);
        assert!(ParExecutor::current().num_threads() >= 1);
        assert_eq!(ParExecutor::default(), ParExecutor::current());
        assert_eq!(ParExecutor::new(3).mode(), ExecMode::WorkStealing);
        assert_eq!(ParExecutor::deterministic(3).mode(), ExecMode::Deterministic);
        assert_eq!(ParExecutor::deterministic(3).num_threads(), 3);
        assert_eq!(
            ParExecutor::new(3).with_mode(ExecMode::Deterministic).mode(),
            ExecMode::Deterministic
        );
        assert!(ParExecutor::new(2).num_cpus() >= 1);
    }

    #[test]
    fn stealing_and_deterministic_modes_return_identical_results() {
        let items: Vec<usize> = (0..57).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1usize, 2, 3, 4, 8] {
            let stealing = ParExecutor::new(threads).map(items.clone(), |_, x| x * x + 1);
            let pinned = ParExecutor::deterministic(threads).map(items.clone(), |_, x| x * x + 1);
            assert_eq!(stealing, expected, "stealing threads={threads}");
            assert_eq!(pinned, expected, "deterministic threads={threads}");
        }
    }

    #[test]
    fn stealing_drains_a_skewed_queue() {
        // One item is ~100x heavier than the rest. With stealing, the other
        // workers drain the remaining items while one worker is pinned on
        // the heavy item; either way every result must land in its slot.
        let weights: Vec<usize> = (0..40).map(|i| if i == 0 { 10_000 } else { 100 }).collect();
        let items: Vec<usize> = (0..40).collect();
        for threads in [2usize, 4] {
            for mode in [ExecMode::WorkStealing, ExecMode::Deterministic] {
                let pool = ParExecutor::new(threads).with_mode(mode);
                let out = pool.map_weighted(items.clone(), &weights, |i, x| {
                    assert_eq!(i, x);
                    // Simulate the skew: heavy items spin proportionally.
                    let spin = weights[i] / 100;
                    let mut acc = 0u64;
                    for k in 0..spin * 1000 {
                        acc = acc.wrapping_add(k as u64);
                    }
                    std::hint::black_box(acc);
                    x + 1
                });
                let expected: Vec<usize> = (1..=40).collect();
                assert_eq!(out, expected, "threads={threads} mode={mode:?}");
            }
        }
    }

    #[test]
    fn map_weighted_matches_map_for_any_weights() {
        let items: Vec<usize> = (0..31).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 3).collect();
        let weight_vectors: Vec<Vec<usize>> = vec![
            vec![1; 31],
            (0..31).collect(),
            (0..31).rev().collect(),
            (0..31).map(|i| if i % 7 == 0 { 1000 } else { 1 }).collect(),
            vec![0; 31],
        ];
        for weights in &weight_vectors {
            for threads in [1usize, 2, 5] {
                let out =
                    ParExecutor::new(threads).map_weighted(items.clone(), weights, |_, x| x * 3);
                assert_eq!(&out, &expected, "threads={threads} weights={weights:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "weight length mismatch")]
    fn map_weighted_rejects_mismatched_weights() {
        ParExecutor::new(2).map_weighted(vec![1, 2, 3], &[1, 2], |_, x| x);
    }

    #[test]
    fn single_item_runs_inline() {
        let pool = ParExecutor::new(8);
        let out = pool.map(vec![41], |i, x| {
            assert_eq!(i, 0);
            x + 1
        });
        assert_eq!(out, vec![42]);
        let empty: Vec<i32> = pool.map(Vec::<i32>::new(), |_, x| x);
        assert!(empty.is_empty());
    }
}
