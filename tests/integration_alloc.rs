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

use smart_infinity::{MachineConfig, MethodSpec, ModelConfig, Session};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use tensorlib::FlatTensor;

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn record(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
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

// One test function: the counter is process-wide, so the measured windows
// must not overlap with another test's set-up.
#[test]
fn a_warm_step_of_either_trainer_allocates_nothing_large() {
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
