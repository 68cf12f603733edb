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
//!
//! It also tracks the bytes a thread holds and their high-water mark, for
//! two pins on a timed iteration's footprint: the peak live heap of one
//! `simulate_iteration` per spec (the pass holds one stage in memory at a
//! time — the graph is gone before the engine runs), and one iteration at
//! the 4 096-device bound `Session::validate` enforces, under a time limit
//! and a heap bar. A test simulates every checked-in spec, so that a build
//! with debug assertions checks that lowering reserved exactly what it
//! added. A last pin holds a `lab` run to one wave of trials in memory: the
//! peak live heap and allocation count of one 204-trial run.

use smart_infinity::{Campaign, MachineConfig, MethodSpec, ModelConfig, RunSpec, Session};
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
    /// Bytes this thread allocated minus the bytes it freed while tracking,
    /// and the highest that difference reached; `None` when it is not
    /// tracking.
    static LIVE: Cell<Option<(isize, isize)>> = const { Cell::new(None) };
}

fn record(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
    // A thread being torn down has no counter left; it is not counting.
    let _ = COUNTED.try_with(|counted| counted.set(counted.get().map(|n| n + 1)));
}

/// Moves this thread's live-byte count by `delta`, raising its high-water
/// mark when the count passes it.
fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        if let Some((now, peak)) = live.get() {
            let now = now + delta;
            live.set(Some((now, peak.max(now))));
        }
    });
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// lock-free atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        track(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        track(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // Counted as the new block arriving before the old one leaves: a
        // copying reallocation holds both.
        track(new_size as isize);
        track(-(layout.size() as isize));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
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
/// measured once the simulation reserved its path arena and the engine
/// stopped copying its offset tables, plus 10 %. An optimised build made 803
/// and 3 281 before the set-up allocated per simulation, then 131, 165 and
/// 410 before the pass borrowed the session instead of copying its machine,
/// workload (and, for a cluster, the whole session), then 123, 157 and 398;
/// then 120, 149 and 393, before lowering reserved its arenas exactly, the
/// graph dropped its names and `DirectLowering` stopped labelling tasks and
/// copying route paths; then 107, 132 and 240, before lowering became one
/// pass in id order with no readiness counts; now 96, 116 and 215. Builds
/// with debug assertions also check every timeline against the engine's
/// oracle, which allocates its own working set, so they have bars of their
/// own (247, 808 and 953 before the pass borrowed, then 239, 800 and 941,
/// then 235, 791 and 934, then 222, 774 and 781; now 211, 758 and 756).
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
            if cfg!(debug_assertions) { 233 } else { 106 },
        ),
        (
            "sim_scale: GPT2-33.0B, 10 CSDs, SU+O+C at 1 %",
            r#"{"model": "GPT2-33.0B", "machine": {"devices": 10}, "method": {"offload": true,
                "in_storage_update": true, "overlap": true, "pipelined": false,
                "compression": {"keep_ratio": 0.01}}}"#,
            if cfg!(debug_assertions) { 834 } else { 128 },
        ),
        (
            "sim_scale: GPT2-16.6B, 8 hosts of 10 CSDs, SU+O",
            r#"{"model": "GPT2-16.6B", "machine": {"devices": 10, "cluster": {"hosts": 8}},
                "method": {"offload": true, "in_storage_update": true, "overlap": true,
                "pipelined": false}}"#,
            if cfg!(debug_assertions) { 832 } else { 237 },
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

/// The most bytes the calling thread held at once, above what it held when
/// `work` started, while `work` runs.
fn peak_live_bytes_during(work: impl FnOnce()) -> usize {
    LIVE.with(|live| live.set(Some((0, 0))));
    work();
    let (_, peak) = LIVE.with(|live| live.replace(None)).expect("tracking since above");
    peak.max(0) as usize
}

/// The peak live heap of one `Session::simulate_iteration` of a spec (the
/// session is built and run once first, outside the measure): what the
/// thread held at most above what it held before the call, for
/// `lab_cycle`'s spec and the six of `sim_scale`. Each bar is the peak
/// measured once lowering reserved exactly what it adds (no arena regrows)
/// and the graph went lean (56-byte tasks, 24-byte data items, no names,
/// `u32` ids, sites and edges), plus 10 %, in the test profile, which
/// peaks at least as high as an optimised build: 49, 702, 674, 649, 396,
/// 287 and 193 KiB (an optimised build: 47, 659, 622, 649, 378, 287 and
/// 193). Before lowering became one pass in id order with no readiness
/// counts, they peaked at 49, 702, 674, 719, 396, 315 and 214 KiB (an
/// optimised build: 49, 659, 661, 719, 378, 315 and 214). Before, once the
/// pass dropped the graph, its layout, the scheduler
/// and the executor's outcome before the engine runs and simkit's task
/// table went compact, the same specs peaked at 80, 963, 1 185, 1 412, 599,
/// 602 and 406 KiB, and before that (four of them) at 144, 2 135, 2 339 and
/// 1 183 KiB.
#[test]
fn a_timed_iteration_holds_one_stage_in_memory_at_a_time() {
    let _turn = take_turn();
    let seen = peak_live_bytes_during(|| drop(std::hint::black_box(vec![1u8; 1 << 16])));
    assert_eq!(seen, 1 << 16, "the counting allocator is not installed");
    for (name, spec, bar_kib) in [
        (
            "lab_cycle: GPT2-0.34B, 4 CSDs, SU+O+C at 1 %",
            r#"{"model": "GPT2-0.34B", "machine": {"devices": 4}, "method": {"offload": true,
                "in_storage_update": true, "overlap": true, "pipelined": false,
                "compression": {"keep_ratio": 0.01}}}"#,
            54,
        ),
        (
            "sim_scale: GPT2-33.0B, 10 SSDs, BASE",
            r#"{"model": "GPT2-33.0B", "machine": {"devices": 10}, "method": {"offload": true,
                "in_storage_update": false, "overlap": false, "pipelined": false}}"#,
            772,
        ),
        (
            "sim_scale: GPT2-33.0B, 10 CSDs, SU+O+C at 1 %",
            r#"{"model": "GPT2-33.0B", "machine": {"devices": 10}, "method": {"offload": true,
                "in_storage_update": true, "overlap": true, "pipelined": false,
                "compression": {"keep_ratio": 0.01}}}"#,
            742,
        ),
        (
            "sim_scale: GPT2-33.0B, 10 CSDs and 2 GPUs congested, SU+O+P+C at 1 %",
            r#"{"model": "GPT2-33.0B", "machine": {"devices": 10, "num_gpus": 2,
                "congested": true}, "method": {"offload": true, "in_storage_update": true,
                "overlap": true, "pipelined": true, "compression": {"keep_ratio": 0.01}}}"#,
            714,
        ),
        (
            "sim_scale: GPT2-16.6B, 8 hosts of 10 CSDs, SU+O",
            r#"{"model": "GPT2-16.6B", "machine": {"devices": 10, "cluster": {"hosts": 8}},
                "method": {"offload": true, "in_storage_update": true, "overlap": true,
                "pipelined": false}}"#,
            436,
        ),
        (
            "sim_scale: GPT2-16.6B, 8 hosts of 10 CSDs, SU+O+P",
            r#"{"model": "GPT2-16.6B", "machine": {"devices": 10, "cluster": {"hosts": 8}},
                "method": {"offload": true, "in_storage_update": true, "overlap": true,
                "pipelined": true}}"#,
            316,
        ),
        (
            "sim_scale: GPT2-8.3B, 16 hosts of 6 CSDs, SU+O+P+C at 1 %",
            r#"{"model": "GPT2-8.3B", "machine": {"devices": 6, "cluster": {"hosts": 16}},
                "method": {"offload": true, "in_storage_update": true, "overlap": true,
                "pipelined": true, "compression": {"keep_ratio": 0.01}}}"#,
            213,
        ),
    ] {
        let session = RunSpec::from_json(spec).and_then(|s| s.session()).expect("a valid spec");
        session.simulate_iteration().expect("simulates");
        let peak = peak_live_bytes_during(|| {
            std::hint::black_box(session.simulate_iteration().expect("simulates"));
        });
        let kib = peak.div_ceil(1024);
        println!("{name}: peak live heap {kib} KiB");
        assert!(kib <= bar_kib, "{name}: peak live heap {kib} KiB, the bar is {bar_kib} KiB");
    }
}

/// One iteration at the device bound `Session::validate` enforces (4 096):
/// GPT2-33.0B, SU+O+P+C at 1 %, simulated once, cold. It took 0.7 s and
/// peaked at 16 723 KiB of live heap on a 2-vCPU guest, in an optimised
/// build and in the test profile alike (17 243 KiB before lowering became
/// one pass in id order with no readiness counts, 22 212 KiB before
/// lowering reserved exactly and the graph went lean, 32 518 KiB before the
/// pass held one stage at a time). The time limit is ten times 1.0 s, generous for a
/// shared runner; the heap bar is the peak plus 10 %. The bound moves when
/// routing stops being a whole-topology search per endpoint pair, and this
/// pin moves with it.
#[test]
fn an_iteration_at_the_device_bound_fits_its_time_and_heap() {
    let _turn = take_turn();
    let spec = r#"{"model": "GPT2-33.0B", "machine": {"devices": 4096}, "method": {"offload": true,
        "in_storage_update": true, "overlap": true, "pipelined": true,
        "compression": {"keep_ratio": 0.01}}}"#;
    let session = RunSpec::from_json(spec).and_then(|s| s.session()).expect("a valid spec");
    let start = std::time::Instant::now();
    let mut report = None;
    let peak = peak_live_bytes_during(|| {
        report = Some(session.simulate_iteration().expect("simulates at the bound"));
    });
    let (took, kib) = (start.elapsed(), peak.div_ceil(1024));
    println!("4 096 devices: {took:?}, peak live heap {kib} KiB, {report:?}");
    assert!(report.is_some_and(|r| r.total_s() > 0.0));
    assert!(took.as_secs_f64() < 10.0, "an iteration at the bound took {took:?}");
    assert!(kib <= 18_396, "an iteration at the bound peaked at {kib} KiB");
}

/// Lowering a timed iteration reserves exactly what it adds
/// (`simkit::Lowering::reserve`), so no task, dependency or path-link arena
/// of its simulation regrows. A build with debug assertions checks that
/// whenever a simulation runs (`simkit::Simulation::run` compares what its
/// arenas hold with what was reserved), and this test runs the check over
/// every spec of `specs/*.json` and the six `sim_scale` specs, clusters
/// included: their allreduce is lowered by `simkit::DirectLowering`. An
/// optimised build only simulates them.
#[test]
fn lowering_never_regrows_an_arena_for_any_checked_in_spec() {
    let _turn = take_turn();
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut specs = Vec::new();
    for entry in std::fs::read_dir(root.join("specs")).expect("the specs directory lists") {
        let path = entry.expect("a directory entry").path();
        if path.extension().is_some_and(|ext| ext == "json") {
            let text = std::fs::read_to_string(&path).expect("a readable campaign");
            specs.extend(Campaign::from_json(&text).expect("a valid campaign").specs);
        }
    }
    let campaigns = specs.len();
    assert!(campaigns >= 30, "only {campaigns} specs under specs/");
    let sim_scale = std::fs::read_to_string(root.join("benchmark/specs/sim_scale.json"))
        .expect("the sim_scale specs");
    for line in sim_scale.lines().filter(|line| line.starts_with('{')) {
        specs.push(RunSpec::from_json(line.trim_end_matches(',')).expect("a valid spec"));
    }
    assert_eq!(specs.len() - campaigns, 6, "one sim_scale spec per line");
    for spec in &specs {
        let session = spec.session().expect("a valid spec");
        let report = session.simulate_iteration().expect("simulates");
        assert!(report.total_s() > 0.0, "{}", spec.label());
    }
}

/// The peak live heap and the allocations of one `lab::run_experiment` of
/// `specs/experiments/waves` (17 task lines × 4 variants × 3 repeats = 204
/// trials over 64 unique small specs, `lab_cycle`'s shape) into a fresh
/// output directory, with a fresh `ServiceExecutor::new(1)`, whose one
/// worker is the calling thread. A first run into another directory warms
/// whatever the process initialises once. The run resolves, executes and
/// journals 64 trials at a time, and every trial shares its task's payload,
/// so what it holds is one wave of trials, the service's jobs and, per
/// journaled trial, its id, success and objective. Each bar is the measured
/// value plus 10 %: 278 KiB and 33 375 allocations in an optimised build,
/// 278 KiB and 39 754 in the test profile. Before the run kept one row per
/// journaled trial instead of its whole record, and lowering became one
/// pass in id order, it peaked at 345 KiB with 34 103 allocations (the test
/// profile: 345 KiB, 40 482). Before the waves, when the run resolved every pending trial into
/// one batch and each trial copied its task's payload, the same run peaked
/// at 688 KiB with 36 808 allocations (the test profile: 689 KiB, 43 188).
#[test]
fn a_lab_run_holds_one_wave_in_memory_at_a_time() {
    let _turn = take_turn();
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let experiment = root.join("specs/experiments/waves");
    let scratch = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("lab-run-one-wave");
    let _ = std::fs::remove_dir_all(&scratch);
    let run = |out: &std::path::Path| {
        let options = lab::RunOptions::default();
        let mut executor = lab::ServiceExecutor::new(1);
        lab::run_experiment(&experiment, out, &options, &mut executor).expect("the run succeeds")
    };
    run(&scratch.join("warm"));
    let out = scratch.join("measured");
    let mut summary = None;
    let mut peak = 0;
    let count = allocations_during(|| {
        peak = peak_live_bytes_during(|| summary = Some(run(&out)));
    });
    let summary = summary.expect("ran above");
    assert_eq!((summary.executed, summary.errors), (204, 0), "{summary:?}");
    let kib = peak.div_ceil(1024);
    println!("lab run of 204 trials: peak live heap {kib} KiB, {count} allocations");
    let (bar_kib, bar_count) = if cfg!(debug_assertions) { (306, 43_730) } else { (306, 36_713) };
    assert!(kib <= bar_kib, "a lab run peaked at {kib} KiB, the bar is {bar_kib} KiB");
    assert!(count <= bar_count, "a lab run made {count} allocations, the bar is {bar_count}");
    std::fs::remove_dir_all(&scratch).expect("the scratch directory is removable");
}
