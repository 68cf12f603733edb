//! Integration tests of the unified training API: the `Trainer` trait seam,
//! the `Session` front door, `StepReport` telemetry, and the workspace-level
//! `TrainError` with its cross-layer conversions and source chains.

use csd::CsdError;
use simkit::SimError;
use smart_infinity::{
    FlatTensor, MachineConfig, MethodSpec, ModelConfig, PipelinedTrainer, Session, StepReport,
    TrainError, Trainer,
};
use ssd::SsdError;
use std::error::Error;
use ztrain::SyntheticGradients;

fn session(method: MethodSpec, devices: usize) -> Session {
    Session::builder(ModelConfig::gpt2_0_34b(), MachineConfig::smart_infinity(devices), method)
        .build()
}

/// The acceptance seam: a single `dyn Trainer` loop drives the baseline and
/// SmartUpdate substrates and they produce bit-identical parameters, with
/// StepReports carrying the byte accounting the old accessors reported.
#[test]
fn dyn_trainer_dispatch_is_equivalent_across_substrates() {
    let n = 10_000;
    let steps = 4u64;
    let initial = FlatTensor::randn(n, 0.05, 42);

    let mut trainers: Vec<Box<dyn Trainer>> = vec![
        session(MethodSpec::baseline(), 3).trainer(&initial).expect("baseline trainer"),
        session(MethodSpec::smart_update(), 3).trainer(&initial).expect("smart trainer"),
    ];
    let mut last = vec![StepReport::default(); trainers.len()];
    for step in 0..steps {
        let grads = FlatTensor::randn(n, 0.01, 300 + step);
        for (trainer, report) in trainers.iter_mut().zip(last.iter_mut()) {
            *report = trainer.step(&grads).expect("step");
        }
    }
    // Bit-identical training through the trait objects alone.
    let baseline_master = trainers[0].master_params().expect("params");
    let smart_master = trainers[1].master_params().expect("params");
    assert_eq!(baseline_master.as_slice(), smart_master.as_slice());
    assert_eq!(trainers[0].params_fp16().as_slice(), trainers[1].params_fp16().as_slice());
    for trainer in &trainers {
        assert_eq!(trainer.steps_completed(), steps);
        assert_eq!(trainer.num_params(), n);
    }
    // Byte counters match the pre-redesign per-engine accounting (Adam):
    // baseline RAID0 moves 16n in each direction per step, the CSD path moves
    // 16n/12n of internal P2P traffic and the dense 4n gradient downstream.
    let n64 = n as u64;
    assert_eq!(last[0].storage_bytes_read, 16 * n64);
    assert_eq!(last[0].storage_bytes_written, 16 * n64);
    assert_eq!(last[0].gradient_bytes, 8 * n64);
    assert_eq!(last[1].storage_bytes_read, 16 * n64);
    assert_eq!(last[1].storage_bytes_written, 12 * n64);
    assert_eq!(last[1].gradient_bytes, 4 * n64);
    assert!(last.iter().all(|r| r.compression_kept.is_none()));
    assert_eq!(last[0].step, steps);
}

/// The StepReport of the trainer agrees with the cumulative accessor that
/// predates it (`aggregate_stats`) in the CSDs, and with Table I's 16n bytes
/// read and written per Adam step on the host.
#[test]
fn step_reports_sum_to_the_cumulative_accessors() {
    let n = 6_000;
    let initial = FlatTensor::randn(n, 0.05, 5);
    let optimizer = smart_infinity::Optimizer::adam_default();

    let mut baseline =
        PipelinedTrainer::host_update(&initial, optimizer, 2, 1_500).expect("trainer");
    let mut read_sum = 0;
    let mut write_sum = 0;
    for step in 0..3u64 {
        let report =
            baseline.train_step_with_grads(&FlatTensor::randn(n, 0.01, step)).expect("step");
        read_sum += report.storage_bytes_read;
        write_sum += report.storage_bytes_written;
    }
    assert_eq!((read_sum, write_sum), (3 * 16 * n as u64, 3 * 16 * n as u64));

    let mut smart = PipelinedTrainer::new(&initial, optimizer, 3, 1_000).expect("trainer");
    let mut read_sum = 0;
    let mut write_sum = 0;
    for step in 0..3u64 {
        let report = smart.train_step_with_grads(&FlatTensor::randn(n, 0.01, step)).expect("step");
        read_sum += report.storage_bytes_read;
        write_sum += report.storage_bytes_written;
        assert_eq!(report.threads, 1);
    }
    let stats = smart.aggregate_stats();
    assert_eq!(read_sum, stats.p2p_read_bytes);
    assert_eq!(write_sum, stats.p2p_write_bytes);
}

/// SmartComp through the session: the keep count matches the compressor's
/// contract and the gradient stream is 8 bytes per kept element.
#[test]
fn compressed_step_reports_account_for_the_topk_stream() {
    let n = 8_000;
    let keep_ratio = 0.05;
    let initial = FlatTensor::randn(n, 0.05, 9);
    let mut trainer =
        session(MethodSpec::smart_comp(keep_ratio), 4).trainer(&initial).expect("trainer");
    let mut source = SyntheticGradients::new(n, 0.01, 11);
    let report = trainer.step_from(&mut source).expect("step");
    // 4 even shards of 2000 elements, 5% kept each.
    let kept = report.compression_kept.expect("SmartComp reports a keep count");
    assert_eq!(kept, 4 * 100);
    assert_eq!(report.gradient_bytes, 8 * kept);
    assert!(report.is_compressed());
    assert_eq!(
        report.storage_bytes_total(),
        report.storage_bytes_read + report.storage_bytes_written
    );
}

/// Thread-count telemetry flows through the session into the report, and the
/// threaded result stays bit-identical.
#[test]
fn threads_knob_is_reported_and_never_changes_results() {
    let n = 5_000;
    let initial = FlatTensor::randn(n, 0.05, 21);
    let grads = FlatTensor::randn(n, 0.01, 22);
    let run = |threads: usize| {
        let mut trainer = Session::builder(
            ModelConfig::gpt2_0_34b(),
            MachineConfig::smart_infinity(2),
            MethodSpec::smart_update(),
        )
        .with_threads(threads)
        .build()
        .trainer(&initial)
        .expect("trainer");
        let report = trainer.step(&grads).expect("step");
        assert_eq!(report.threads, threads.max(1));
        trainer.master_params().expect("params")
    };
    let serial = run(1);
    for threads in [2usize, 4] {
        assert_eq!(run(threads).as_slice(), serial.as_slice(), "threads={threads}");
    }
}

/// Every substrate error converts into `TrainError` and the `source()` chain
/// walks back to the layer that actually failed.
#[test]
fn train_error_conversions_and_source_round_trips() {
    // ssd -> TrainError
    let ssd = SsdError::UnknownRegion { device: "ssd0".into(), region: "grad".into() };
    let e: TrainError = ssd.clone().into();
    assert!(e.to_string().contains("storage error"));
    assert_eq!(e.source().and_then(|s| s.downcast_ref::<SsdError>()), Some(&ssd));

    // csd (wrapping ssd) -> TrainError: a two-hop chain.
    let e: TrainError = CsdError::from(ssd.clone()).into();
    let csd_layer = e.source().expect("device layer");
    assert!(csd_layer.downcast_ref::<CsdError>().is_some());
    let ssd_layer = csd_layer.source().expect("storage layer");
    assert_eq!(ssd_layer.downcast_ref::<SsdError>(), Some(&ssd));
    assert!(ssd_layer.source().is_none());

    // simkit -> TrainError
    let sim = SimError::InvalidParameter { message: "negative bytes".into() };
    let e: TrainError = sim.clone().into();
    assert!(e.to_string().contains("simulation error"));
    assert_eq!(e.source().and_then(|s| s.downcast_ref::<SimError>()), Some(&sim));

    // Config errors originate at the unified layer and have no source.
    let e = session(MethodSpec::smart_comp(2.0), 2)
        .trainer(&FlatTensor::zeros(16))
        .expect_err("invalid keep ratio");
    assert!(matches!(e, TrainError::Config { .. }));
    assert!(e.source().is_none());
}

/// The `?` operator really crosses the layer boundaries: one function body
/// mixes functional-storage and timed-simulation fallible calls.
#[test]
fn question_mark_spans_the_functional_and_timed_stacks() {
    fn both_views() -> Result<(f64, u64), TrainError> {
        let s = Session::builder(
            ModelConfig::gpt2_0_34b(),
            MachineConfig::smart_infinity(2),
            MethodSpec::smart_update(),
        )
        .build();
        let timed = s.simulate_iteration()?; // SimError -> TrainError
        let initial = FlatTensor::randn(512, 0.05, 3);
        let mut trainer = s.trainer(&initial)?; // CsdError -> TrainError
        let report = trainer.step(&FlatTensor::randn(512, 0.01, 4))?;
        Ok((timed.total_s(), report.gradient_bytes))
    }
    let (total_s, gradient_bytes) = both_views().expect("both views");
    assert!(total_s > 0.0);
    assert_eq!(gradient_bytes, 4 * 512);
}

/// `step_from` (the GradientSource entry point on the trait) matches `step`
/// fed with the same synthetic stream.
#[test]
fn step_from_equals_step_with_explicit_gradients() {
    let n = 2_000;
    let initial = FlatTensor::randn(n, 0.05, 31);
    let mut via_source = session(MethodSpec::baseline(), 2).trainer(&initial).expect("trainer");
    let mut via_grads = session(MethodSpec::baseline(), 2).trainer(&initial).expect("trainer");
    let mut source = SyntheticGradients::new(n, 0.01, 77);
    let mut mirror = SyntheticGradients::new(n, 0.01, 77);
    use ztrain::GradientSource;
    for step in 1..=3u64 {
        via_source.step_from(&mut source).expect("step");
        let grads = mirror.gradients(step, via_grads.params_fp16());
        via_grads.step(&grads).expect("step");
    }
    assert_eq!(via_source.params_fp16().as_slice(), via_grads.params_fp16().as_slice());
}
