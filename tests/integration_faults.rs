//! Fault-injection integration tests across the whole stack, through the
//! [`Session`] front door:
//!
//! * an omitted or empty [`FaultSpec`] leaves every trainer and the timed
//!   engine bit-identical to the fault-free build, across devices × worker
//!   threads × execution modes (the "numerically invisible" baseline);
//! * the same `RunSpec` + `FaultSpec` seed reproduces the same fault events,
//!   the same recovery work and the same final parameters regardless of how
//!   many worker threads the execution backend uses;
//! * recovered transients, wear-outs and dropouts never change the numbers.

use proptest::prelude::*;
use smart_infinity::{
    FaultSpec, LayerTimes, MachineConfig, MethodSpec, ModelConfig, Session, SessionBuilder,
    StepReport,
};
use tensorlib::FlatTensor;

const N: usize = 1500;

// Two builders on purpose: the functional trainers want a small subgroup so
// a 1500-element tensor spreads over several subgroups per shard, but the
// same override applied to the timed model of a 0.34B-parameter workload
// would ask for millions of tasklets, past the bound `simulate_iteration`
// rejects.
fn builder(method: MethodSpec, devices: usize, threads: usize) -> SessionBuilder {
    timed_builder(method, devices, threads).with_subgroup_elems(300)
}

fn timed_builder(method: MethodSpec, devices: usize, threads: usize) -> SessionBuilder {
    Session::builder(ModelConfig::gpt2_0_34b(), MachineConfig::smart_infinity(devices), method)
        .with_threads(threads)
}

fn exec_modes() -> Vec<MethodSpec> {
    vec![
        MethodSpec::baseline(),
        MethodSpec::smart_update(),
        MethodSpec::smart_comp(0.05),
        MethodSpec::pipelined(None),
        MethodSpec::pipelined(Some(0.05)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Satellite invariant: an empty fault plan is not merely "few faults" —
    /// it is bit-identical to never having had the fault axis at all, for
    /// every execution mode, device count and worker count.
    #[test]
    fn empty_fault_plans_are_bit_identical_to_no_fault_axis(
        devices in 1usize..6,
        threads in 1usize..5,
        mode in 0usize..5,
        seed in 0u64..1000,
    ) {
        let method = exec_modes().remove(mode);
        let initial = FlatTensor::randn(N, 0.05, seed);
        let grads = FlatTensor::randn(N, 0.01, seed + 1);

        let mut plain = builder(method, devices, threads).build().trainer(&initial).unwrap();
        let mut empty = builder(method, devices, threads)
            .with_faults(FaultSpec::empty(seed))
            .build()
            .trainer(&initial)
            .unwrap();

        for _ in 0..2 {
            let a = plain.step(&grads).unwrap();
            let b = empty.step(&grads).unwrap();
            prop_assert!(b.degraded.is_none(), "empty plan must not report degradation");
            // Everything but the layer wall times, which differ run to run.
            let bytes_only = |r: StepReport| StepReport { layers: LayerTimes::default(), ..r };
            prop_assert_eq!(bytes_only(a), bytes_only(b));
        }
        let plain_params = plain.master_params().unwrap();
        let empty_params = empty.master_params().unwrap();
        prop_assert_eq!(plain_params.as_slice(), empty_params.as_slice());
        prop_assert_eq!(plain.params_fp16().as_slice(), empty.params_fp16().as_slice());

        // The timed view too: an empty spec must not perturb the makespan.
        let timed_plain =
            timed_builder(method, devices, threads).build().simulate_iteration().unwrap();
        let timed_empty = timed_builder(method, devices, threads)
            .with_faults(FaultSpec::empty(seed))
            .build()
            .simulate_iteration()
            .unwrap();
        prop_assert_eq!(timed_plain, timed_empty);
    }

    /// Recovered faults are numerically invisible: a run peppered with
    /// transient storage faults (plus one wear-out and one dropout) produces
    /// bit-identical parameters to the fault-free run, in every mode.
    #[test]
    fn recovered_faults_never_change_the_numbers(
        mode in 0usize..5,
        seed in 0u64..1000,
    ) {
        let method = exec_modes().remove(mode);
        let initial = FlatTensor::randn(N, 0.05, seed);
        let grads = FlatTensor::randn(N, 0.01, seed + 1);
        let mut faults = FaultSpec::empty(seed);
        faults.transient_per_mille = Some(250);
        faults.ssd_wearout_step = Some(1);
        faults.csd_dropout_step = Some(2);

        let mut clean = builder(method, 3, 2).build().trainer(&initial).unwrap();
        let mut faulted =
            builder(method, 3, 2).with_faults(faults).build().trainer(&initial).unwrap();

        let mut degraded_steps = 0;
        for _ in 0..3 {
            let a = clean.step(&grads).unwrap();
            let b = faulted.step(&grads).unwrap();
            degraded_steps += usize::from(b.degraded.is_some());
            // Telemetry differs (the faulted run did recovery work), but the
            // numbers must not.
            prop_assert_eq!(a.step, b.step);
            prop_assert_eq!(a.gradient_bytes, b.gradient_bytes);
        }
        prop_assert!(degraded_steps > 0, "a 25% transient rate must fire within 3 steps");
        let clean_params = clean.master_params().unwrap();
        let faulted_params = faulted.master_params().unwrap();
        prop_assert_eq!(clean_params.as_slice(), faulted_params.as_slice());
        prop_assert_eq!(clean.params_fp16().as_slice(), faulted.params_fp16().as_slice());
    }
}

/// The same `RunSpec` + `FaultSpec` seed reproduces the same fault events,
/// the same recovery work and the same final parameters for every worker
/// count of the near-storage trainer.
#[test]
fn seeded_faults_are_deterministic_across_worker_counts() {
    let initial = FlatTensor::randn(N, 0.05, 17);
    let grads = FlatTensor::randn(N, 0.01, 18);
    let mut faults = FaultSpec::empty(99);
    faults.transient_per_mille = Some(300);
    faults.ssd_wearout_step = Some(1);

    let run = |threads: usize| {
        let mut trainer = builder(MethodSpec::pipelined(Some(0.1)), 4, threads)
            .with_faults(faults.clone())
            .build()
            .trainer(&initial)
            .unwrap();
        let reports: Vec<_> = (0..3).map(|_| trainer.step(&grads).unwrap()).collect();
        (reports, trainer.master_params().unwrap())
    };

    let (reports_1, params_1) = run(1);
    assert!(
        reports_1.iter().any(|r| r.degraded.is_some()),
        "a 30% transient rate must fire within 3 steps"
    );
    for threads in [2, 4] {
        let (reports_n, params_n) = run(threads);
        for (a, b) in reports_1.iter().zip(&reports_n) {
            // Identical fault events and recovery work, not just identical
            // parameters — only the worker-count telemetry may differ.
            assert_eq!(a.degraded, b.degraded, "{threads} workers, step {}", a.step);
            assert_eq!(a.storage_bytes_read, b.storage_bytes_read, "{threads} workers");
            assert_eq!(a.storage_bytes_written, b.storage_bytes_written, "{threads} workers");
        }
        assert_eq!(params_1.as_slice(), params_n.as_slice(), "{threads} workers");
    }
}

/// The op-index streams the fault injectors see are exactly those of the
/// decode → update → encode byte path this one replaced: with a seeded plan
/// (transients, one wear-out, one dropout) every step's recovery work, byte
/// counters and the final parameters equal the values recorded from the
/// commit before the gather/scatter byte path (`367248b`), for both trainers
/// — but for one backoff figure, noted where it moved.
#[test]
fn the_fault_stream_is_unchanged_op_for_op() {
    let initial = FlatTensor::randn(N, 0.05, 71);
    let mut faults = FaultSpec::empty(2024);
    faults.transient_per_mille = Some(200);
    faults.ssd_wearout_step = Some(2);
    faults.csd_dropout_step = Some(3);
    let fnv = |values: &[f32]| {
        values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let run = |method: MethodSpec| {
        let mut trainer =
            builder(method, 3, 2).with_faults(faults.clone()).build().trainer(&initial).unwrap();
        let mut lines = Vec::new();
        for step in 0..5u64 {
            let report = trainer.step(&FlatTensor::randn(N, 0.01, 80 + step)).unwrap();
            let d = report.degraded.unwrap_or_default();
            lines.push(format!(
                "t{} r{} b{} d{} m{} R{} W{}",
                d.transient_faults,
                d.retries,
                d.backoff_ms,
                d.devices_rebuilt,
                d.rebuild_bytes,
                report.storage_bytes_read,
                report.storage_bytes_written
            ));
        }
        let master = trainer.master_params().unwrap();
        let fp16 = fnv(trainer.params_fp16().as_slice());
        lines.push(format!("{:016x} {fp16:016x}", fnv(master.as_slice())));
        lines
    };
    let golden: [(MethodSpec, [&str; 6]); 3] = [
        (
            MethodSpec::baseline(),
            [
                "t35 r35 b94 d0 m0 R24000 W24000",
                "t29 r30 b72 d1 m24000 R48000 W48000",
                "t37 r37 b104 d0 m0 R24000 W24000",
                "t42 r42 b114 d0 m0 R24000 W24000",
                "t45 r45 b120 d0 m0 R24000 W24000",
                "9c718b20fd550cc0 0597f44f9807a4d5",
            ],
        ),
        (
            MethodSpec::pipelined(None),
            [
                "t23 r23 b64 d0 m0 R24000 W18000",
                // b40, was b46 when the trainer also retried CSD transients:
                // its retry counter carried across the step's wear-out
                // rebuild, charging the two transients after it 4 + 8 ms.
                "t15 r16 b40 d1 m8000 R24000 W18000",
                "t10 r11 b26 d1 m8000 R24000 W18000",
                "t10 r10 b26 d0 m0 R24000 W18000",
                "t17 r17 b46 d0 m0 R24000 W18000",
                "9c718b20fd550cc0 0597f44f9807a4d5",
            ],
        ),
        (
            MethodSpec::pipelined(Some(0.05)),
            [
                "t13 r13 b34 d0 m0 R18600 W18000",
                "t10 r11 b26 d1 m6000 R22320 W18000",
                "t14 r15 b38 d1 m6000 R18600 W18000",
                "t7 r7 b16 d0 m0 R18600 W18000",
                "t7 r7 b18 d0 m0 R18600 W18000",
                "04f153a40a0bf729 68ed457e93cb24d5",
            ],
        ),
    ];
    // All three methods are run before one comparison, so a moved row names
    // every method it moved for instead of hiding the methods after it.
    let expected: Vec<(MethodSpec, Vec<String>)> = golden
        .iter()
        .map(|(method, lines)| (*method, lines.iter().map(|l| l.to_string()).collect()))
        .collect();
    let actual: Vec<(MethodSpec, Vec<String>)> =
        golden.iter().map(|(method, _)| (*method, run(*method))).collect();
    assert_eq!(actual, expected);
}

/// The same op-for-op pin for a baseline whose blocks really stripe: three
/// SSDs, 300 000-element (1.2 MB) blocks under the 1 MiB stripe, so a block
/// lies on members 0 and 1 and member 2 holds an empty share. With
/// transients and one wear-out, every step's recovery work and byte counters
/// and the final parameters equal the values recorded from the commit before
/// the in-place host update (`14ef073`).
#[test]
fn the_striped_baseline_fault_stream_is_unchanged_op_for_op() {
    let n = 800_000;
    let initial = FlatTensor::randn(n, 0.05, 73);
    let mut faults = FaultSpec::empty(2025);
    faults.transient_per_mille = Some(200);
    faults.ssd_wearout_step = Some(2);
    let fnv = |values: &[f32]| {
        values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let mut trainer = timed_builder(MethodSpec::baseline(), 3, 1)
        .with_subgroup_elems(300_000)
        .with_faults(faults)
        .build()
        .trainer(&initial)
        .unwrap();
    let mut lines = Vec::new();
    for step in 0..4u64 {
        let report = trainer.step(&FlatTensor::randn(n, 0.01, 90 + step)).unwrap();
        let d = report.degraded.unwrap_or_default();
        lines.push(format!(
            "t{} r{} b{} d{} m{} R{} W{}",
            d.transient_faults,
            d.retries,
            d.backoff_ms,
            d.devices_rebuilt,
            d.rebuild_bytes,
            report.storage_bytes_read,
            report.storage_bytes_written
        ));
    }
    let master = trainer.master_params().unwrap();
    let fp16 = fnv(trainer.params_fp16().as_slice());
    lines.push(format!("{:016x} {fp16:016x}", fnv(master.as_slice())));
    let golden = [
        "t12 r12 b28 d0 m0 R12800000 W12800000",
        "t27 r28 b70 d1 m11588608 R24388608 W24388608",
        "t30 r30 b80 d0 m0 R12800000 W12800000",
        "t21 r21 b56 d0 m0 R12800000 W12800000",
        "6ccb439235292735 34b5d65a1c300725",
    ];
    assert_eq!(lines, golden);
}

/// Timed fault effects (a straggler CSD, a derated host uplink) slow the
/// simulated iteration down and do so deterministically.
#[test]
fn timed_fault_effects_slow_the_iteration_deterministically() {
    let mut faults = FaultSpec::empty(5);
    faults.straggler_factor = Some(3.0);
    faults.link_bandwidth_factor = Some(0.25);

    for method in [MethodSpec::baseline(), MethodSpec::smart_update()] {
        let clean = timed_builder(method, 4, 1).build().simulate_iteration().unwrap();
        let degraded = timed_builder(method, 4, 1)
            .with_faults(faults.clone())
            .build()
            .simulate_iteration()
            .unwrap();
        let again = timed_builder(method, 4, 1)
            .with_faults(faults.clone())
            .build()
            .simulate_iteration()
            .unwrap();
        assert!(
            degraded.total_s() > clean.total_s(),
            "faults must cost time: {} vs {}",
            degraded.total_s(),
            clean.total_s()
        );
        assert_eq!(degraded, again, "the timed fault model is deterministic");
    }
}

/// Invalid fault specs are rejected up front with a configuration error,
/// like every other spec axis — not discovered mid-run.
#[test]
fn invalid_fault_specs_are_rejected_up_front() {
    let initial = FlatTensor::randn(64, 0.05, 1);
    let mut faults = FaultSpec::empty(1);
    faults.transient_per_mille = Some(1001);
    let err = builder(MethodSpec::baseline(), 1, 1)
        .with_faults(faults)
        .build()
        .trainer(&initial)
        .unwrap_err();
    assert!(err.to_string().contains("per_mille"), "{err}");
}
