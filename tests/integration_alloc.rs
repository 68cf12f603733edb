//! Steady state allocates nothing: once a functional trainer is warm, a step
//! moves every counted byte between memory that already exists — the caller's
//! gradient, the trainer's scratch tensors, the devices' region buffers and
//! tile-sized update scratch, and under SmartComp each lane's residual,
//! selection state and Top-K stream.
//!
//! A counting `#[global_allocator]` records the largest request made while it
//! is armed (this test crate is outside the library crates'
//! `forbid(unsafe_code)`). The bar is 64 KiB: far below any tensor-, block- or
//! subgroup-sized buffer at the sizes used here, and above the bookkeeping a
//! step legitimately allocates (the step report, the lane list, thread
//! handles).
//!
//! The same allocator counts the allocations a thread makes while it arms
//! its own counter: a timed simulation's set-up allocates per simulation,
//! not per link name, route, scheduling decision or task, and the count of
//! one simulation is pinned.

use smart_infinity::{MachineConfig, MethodSpec, ModelConfig, RunSpec, Session};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use tensorlib::FlatTensor;

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Allocations (and reallocations) this thread made while counting,
    /// `None` when it is not counting. Const-initialised, so reading it
    /// never allocates.
    static COUNTED: Cell<Option<usize>> = const { Cell::new(None) };
}

fn record(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
    // A thread being torn down has no counter left; it is not counting.
    let _ = COUNTED.try_with(|counted| counted.set(counted.get().map(|n| n + 1)));
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// lock-free atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The largest single allocation request (in bytes) made while `work` runs.
fn largest_allocation_during(work: impl FnOnce()) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    work();
    ARMED.store(false, Ordering::Relaxed);
    LARGEST.load(Ordering::Relaxed)
}

const LARGE: usize = 64 * 1024;

/// The largest-request counter is process-wide, so the tests take turns:
/// no measured window overlaps another test's work.
static SERIAL: Mutex<()> = Mutex::new(());

fn take_turn() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn a_warm_step_of_either_trainer_allocates_nothing_large() {
    let _turn = take_turn();
    // The counter is live and sees what a cold path does.
    let seen = largest_allocation_during(|| drop(std::hint::black_box(vec![1u8; 1 << 20])));
    assert!(seen >= 1 << 20, "the counting allocator is not installed (saw {seen})");

    // 1 Mi parameters: 4 MiB tensors, 1 MiB blocks on the host substrate,
    // 1 MiB shards in 256 KiB subgroups on the near-storage one. A 256 Ki-
    // element shard is above the Top-K selection's sampling floor, and an
    // index vector over it would be 1 MiB.
    let n = 1 << 20;
    let initial = FlatTensor::randn(n, 0.05, 5);
    let grads: Vec<FlatTensor> = (0..4).map(|s| FlatTensor::randn(n, 0.01, 50 + s)).collect();
    for (name, method, subgroup, threads) in [
        ("host baseline", MethodSpec::baseline(), 1 << 18, 1),
        ("near-storage, serial lanes", MethodSpec::smart_update(), 1 << 16, 1),
        ("near-storage, overlapped lanes", MethodSpec::pipelined(None), 1 << 16, 2),
        ("SmartComp, serial lanes", MethodSpec::pipelined(Some(0.01)), 1 << 16, 1),
        ("SmartComp, overlapped lanes", MethodSpec::pipelined(Some(0.01)), 1 << 16, 2),
    ] {
        let mut trainer = None;
        let cold = largest_allocation_during(|| {
            let session = Session::builder(
                ModelConfig::gpt2_0_34b(),
                MachineConfig::smart_infinity(4),
                method,
            )
            .with_subgroup_elems(subgroup)
            .with_threads(threads)
            .build();
            trainer = Some(session.trainer(&initial).expect("trainer"));
        });
        assert!(cold >= n, "{name}: building a trainer must show up in the counter");
        let mut trainer = trainer.expect("built above");

        let first = largest_allocation_during(|| {
            trainer.step(&grads[0]).unwrap();
        });
        if method.compression.is_none() {
            // A dense method's first step creates the gradient regions.
            assert!(first >= LARGE, "{name}: the first step sizes the working set ({first})");
        } else {
            // SmartComp stores no gradient region, and the update streams the
            // state through tiles: nothing subgroup-sized is ever allocated.
            assert!(first < 4 * subgroup, "{name}: a subgroup-sized buffer ({first} bytes)");
        }
        trainer.step(&grads[1]).unwrap();
        for warm in &grads[2..] {
            let largest = largest_allocation_during(|| {
                trainer.step(warm).unwrap();
            });
            assert!(
                largest < LARGE,
                "{name}: a warm step allocated {largest} bytes at once (first step: {first})"
            );
        }
    }
}

/// The allocations the calling thread makes while `work` runs.
fn allocations_during(work: impl FnOnce()) -> usize {
    COUNTED.with(|counted| counted.set(Some(0)));
    work();
    COUNTED.with(|counted| counted.replace(None)).expect("armed above")
}

/// The allocations one `Session::simulate_iteration` of a spec makes (the
/// session is built first, outside the count). Each bar is the count
/// measured once the timed pass borrowed the session instead of copying its
/// machine, workload (and, for a cluster, the whole session), plus 10 %. An
/// optimised build made 803 and 3 281 before the set-up allocated per
/// simulation, then 131, 165 and 410 before the pass borrowed; now 124, 158
/// and 399. Builds with debug assertions also check every timeline against
/// the engine's oracle, which allocates its own working set, so they have
/// bars of their own (247, 808 and 953 before the pass borrowed; now 240,
/// 801 and 942).
#[test]
fn a_timed_iteration_allocates_per_simulation_not_per_name_route_or_decision() {
    let _turn = take_turn();
    let seen = allocations_during(|| drop(std::hint::black_box(vec![1u8; 64])));
    assert_eq!(seen, 1, "the counting allocator is not installed");
    for (name, spec, bar) in [
        (
            "lab_cycle: GPT2-0.34B, 4 CSDs, SU+O+C at 1 %",
            r#"{"model": "GPT2-0.34B", "machine": {"devices": 4}, "method": {"offload": true,
                "in_storage_update": true, "overlap": true, "pipelined": false,
                "compression": {"keep_ratio": 0.01}}}"#,
            if cfg!(debug_assertions) { 264 } else { 136 },
        ),
        (
            "sim_scale: GPT2-33.0B, 10 CSDs, SU+O+C at 1 %",
            r#"{"model": "GPT2-33.0B", "machine": {"devices": 10}, "method": {"offload": true,
                "in_storage_update": true, "overlap": true, "pipelined": false,
                "compression": {"keep_ratio": 0.01}}}"#,
            if cfg!(debug_assertions) { 881 } else { 173 },
        ),
        (
            "sim_scale: GPT2-16.6B, 8 hosts of 10 CSDs, SU+O",
            r#"{"model": "GPT2-16.6B", "machine": {"devices": 10, "cluster": {"hosts": 8}},
                "method": {"offload": true, "in_storage_update": true, "overlap": true,
                "pipelined": false}}"#,
            if cfg!(debug_assertions) { 1036 } else { 438 },
        ),
    ] {
        let session = RunSpec::from_json(spec).and_then(|s| s.session()).expect("a valid spec");
        // A first run warms whatever the process initialises once.
        session.simulate_iteration().expect("simulates");
        let count = allocations_during(|| {
            std::hint::black_box(session.simulate_iteration().expect("simulates"));
        });
        println!("{name}: {count} allocations");
        assert!(count <= bar, "{name}: {count} allocations, the bar is {bar}");
    }
}
