//! Integration suite of the near-storage functional trainer: it is
//! bit-identical to an in-memory reference that shares no trainer code, for
//! every device count, worker count and lane fan-out (property-tested), its
//! `StepReport` carries per-stage telemetry, the timed view charges stage
//! bytes over the fabric links, and the hardening sweep's error paths
//! (compression representation errors, session knob validation, exact sampled
//! Top-K) hold end to end.

use gradcomp::{CompressError, CompressedGradient, Compressor, ErrorFeedback};
use optim::{HyperParams, Optimizer, OptimizerKind};
use parcore::ParExecutor;
use proptest::prelude::*;
use smart_infinity::{
    FlatTensor, MachineConfig, MethodSpec, ModelConfig, Session, SmartInfinityEngine, TrainError,
};
use std::error::Error;
use tensorlib::{Dtype, Partitioner};
use ztrain::PipelinedTrainer;

fn pipelined_session(devices: usize, threads: usize, keep_ratio: Option<f64>) -> Session {
    Session::builder(
        ModelConfig::gpt2_0_34b(),
        MachineConfig::smart_infinity(devices),
        MethodSpec::pipelined(keep_ratio),
    )
    .with_threads(threads)
    .build()
}

/// A near-storage training run computed in memory, with no device, lane or
/// trainer code: per step and per contiguous shard, error feedback → Top-K →
/// residual update → scatter to dense; then one optimizer step on plain
/// tensors (without a compressor, plain in-memory training). Returns the FP32
/// master copy and its f16 round trip, the FP16 working copy.
fn reference_training(
    initial: &FlatTensor,
    optimizer: Optimizer,
    devices: usize,
    keep_ratio: Option<f64>,
    grads: &[FlatTensor],
) -> (FlatTensor, FlatTensor) {
    let partitioner = Partitioner::contiguous(initial.len(), devices);
    let compressor = keep_ratio.map(Compressor::top_k);
    let mut feedback: Vec<ErrorFeedback> =
        partitioner.shards().iter().map(|s| ErrorFeedback::new(s.len)).collect();
    let mut master = initial.clone();
    let mut aux = optimizer.init_aux(initial.len());
    for (i, g) in grads.iter().enumerate() {
        let mut effective = g.clone();
        if let Some(compressor) = &compressor {
            for (shard, feedback) in partitioner.shards().iter().zip(&mut feedback) {
                let mut corrected = g.slice(shard.offset, shard.len);
                feedback.apply_in_place(&mut corrected);
                let compressed = compressor.compress(&corrected);
                feedback.update(&corrected, &compressed);
                effective.write_slice(shard.offset, compressed.decompress().as_slice());
            }
        }
        optimizer.step(master.as_mut_slice(), &effective, &mut aux, (i + 1) as u64);
    }
    let fp16 = FlatTensor::from_bytes(&master.to_bytes(Dtype::F16), Dtype::F16);
    (master, fp16)
}

fn gradient_stream(n: usize, steps: u64, seed: u64) -> Vec<FlatTensor> {
    (0..steps).map(|s| FlatTensor::randn(n, 0.01, seed + s)).collect()
}

/// The acceptance criterion: a `Session` with the pipelined method produces
/// parameters bit-identical to the in-memory reference, while the step
/// reports carry per-stage overlap telemetry.
#[test]
fn pipelined_session_is_bit_identical_to_the_serial_trainer() {
    let n = 10_000;
    let steps = 4u64;
    let initial = FlatTensor::randn(n, 0.05, 42);
    let grads = gradient_stream(n, steps, 300);
    for keep_ratio in [None, Some(0.02)] {
        let (ref_master, ref_fp16) =
            reference_training(&initial, Optimizer::adam_default(), 3, keep_ratio, &grads);
        let mut pipelined = pipelined_session(3, 4, keep_ratio).trainer(&initial).expect("trainer");
        let mut last = ztrain::StepReport::default();
        for g in &grads {
            last = pipelined.step(g).unwrap();
        }
        assert_eq!(
            ref_master.as_slice(),
            pipelined.master_params().unwrap().as_slice(),
            "keep_ratio={keep_ratio:?}"
        );
        assert_eq!(ref_fp16.as_slice(), pipelined.params_fp16().as_slice());
        assert_eq!(pipelined.steps_completed(), steps);

        // Per-stage overlap telemetry: write/update/read-back bytes are split
        // out and consistent with the flat counters.
        let stages = last.stages.expect("near-storage steps report stages");
        assert!(stages.is_overlapped(), "4 threads over 3 lanes must overlap");
        assert_eq!(stages.lanes, 3);
        assert_eq!(stages.write_bytes, last.gradient_bytes);
        assert_eq!(stages.update_bytes, last.storage_bytes_total());
        assert_eq!(stages.read_back_bytes, 2 * n as u64);
        match keep_ratio {
            None => assert_eq!(stages.write_bytes, 4 * n as u64),
            Some(_) => {
                let kept = last.compression_kept.expect("keep count");
                assert_eq!(stages.write_bytes, 8 * kept);
            }
        }
    }
}

/// The lane fan-out is derived, not set: each lane's kernels get
/// `max(1, workers / devices)` workers. One device on four workers fans its
/// kernels out (the shard is large enough for `ParExecutor::workers_for` to
/// split it); seven devices on two workers overlap two lanes with serial
/// kernels inside. Neither changes a bit of the result.
#[test]
fn lane_fan_out_is_derived_from_workers_and_devices() {
    for (devices, workers, n) in [(1usize, 4usize, 140_003usize), (7, 2, 2_003)] {
        let initial = FlatTensor::randn(n, 0.05, 7);
        let grads = gradient_stream(n, 2, 70);
        for keep_ratio in [None, Some(0.05)] {
            let (ref_master, ref_fp16) = reference_training(
                &initial,
                Optimizer::adam_default(),
                devices,
                keep_ratio,
                &grads,
            );
            let mut trainer =
                PipelinedTrainer::new(&initial, Optimizer::adam_default(), devices, n).unwrap();
            if let Some(k) = keep_ratio {
                trainer = trainer.with_compression(k).unwrap();
            }
            trainer = trainer.with_threads(workers);
            for g in &grads {
                let report = trainer.train_step_with_grads(g).unwrap();
                assert_eq!(report.threads, workers);
                assert_eq!(report.stages.expect("stages").lanes, workers.min(devices));
            }
            let case = format!("devices={devices} workers={workers} keep={keep_ratio:?}");
            assert_eq!(
                trainer.master_params().unwrap().as_slice(),
                ref_master.as_slice(),
                "{case}"
            );
            assert_eq!(trainer.params_fp16().as_slice(), ref_fp16.as_slice(), "{case}");
        }
    }
}

/// The timed view of the pipelined method charges each stage's bytes over the
/// installed fabric links: the update stage overlaps the backward offload and
/// the shared uplink shows stage-level occupancy in both directions.
#[test]
fn timed_pipeline_charges_stage_bytes_over_fabric_links() {
    let machine = MachineConfig::smart_infinity(6);
    let workload = smart_infinity::Workload::paper_default(ModelConfig::gpt2_4b());
    let serial = SmartInfinityEngine::new(machine.clone(), workload.clone(), OptimizerKind::Adam)
        .simulate_iteration_stages()
        .unwrap();
    let pipelined = SmartInfinityEngine::new(machine, workload, OptimizerKind::Adam)
        .with_pipelining()
        .simulate_iteration_stages()
        .unwrap();
    assert_eq!(serial.update_overlap_s, 0.0, "serial schedule has no overlap");
    assert!(pipelined.update_overlap_s > 0.0, "pipelined schedule overlaps: {pipelined:?}");
    assert!(pipelined.report.total_s() < serial.report.total_s());
    // Both directions of the shared uplink saw stage traffic.
    assert!(pipelined.uplink_write_busy_s > 0.0);
    assert!(pipelined.uplink_readback_busy_s > 0.0);
    // The session front door reaches the same timed path (different model,
    // so only a sanity bound here).
    let via_session = pipelined_session(6, 1, None).simulate_iteration().unwrap();
    assert!(via_session.total_s() > 0.0);
}

/// Compression representation errors surface as values through the whole
/// `CompressError` → `CsdError` → `TrainError` chain instead of aborting.
#[test]
fn oversized_compression_errors_chain_to_train_error() {
    let compressor = Compressor::top_k(0.01);
    // The guard itself (no 16 GiB allocation needed to test the chain).
    let e = CompressedGradient::try_new(vec![], vec![], u32::MAX as usize + 1).unwrap_err();
    assert_eq!(e, CompressError::IndexSpaceExceeded { original_len: u32::MAX as usize + 1 });
    let train: TrainError = e.into();
    assert!(matches!(train, TrainError::Device(_)), "{train}");
    let device = train.source().expect("device layer");
    let origin = device.source().expect("compression layer");
    assert!(origin.downcast_ref::<CompressError>().is_some());
    // Normal-sized gradients take the fallible path without loss.
    let grads = FlatTensor::randn(4096, 0.01, 5);
    assert_eq!(compressor.try_compress(&grads).unwrap(), compressor.compress(&grads));
}

/// The session rejects the degenerate knobs of the hardening sweep as
/// `TrainError::Config` for the pipelined method too.
#[test]
fn pipelined_session_validates_degenerate_knobs() {
    let s = pipelined_session(3, 2, None);
    let err = s.trainer(&FlatTensor::zeros(2)).expect_err("fewer params than devices");
    assert!(matches!(err, TrainError::Config { .. }), "{err}");
    let s = Session::builder(
        ModelConfig::gpt2_0_34b(),
        MachineConfig::smart_infinity(2),
        MethodSpec::pipelined(None),
    )
    .with_subgroup_elems(0)
    .build();
    let err = s.trainer(&FlatTensor::zeros(64)).expect_err("zero subgroup capacity");
    assert!(matches!(err, TrainError::Config { .. }), "{err}");
    let err = s.simulate_iteration().expect_err("zero subgroup capacity");
    assert!(matches!(err, TrainError::Config { .. }), "{err}");
}

proptest! {
    /// Property: the near-storage trainer is bit-identical to the in-memory
    /// reference across device counts (1/2/7), thread counts, subgroup
    /// capacities and compression settings, and its per-step byte counters
    /// do not depend on the executor.
    #[test]
    fn pipeline_equals_serial_bit_for_bit(
        seed in 0u64..1_000,
        devices_idx in 0usize..3,
        threads in 1usize..5,
        subgroup in 64usize..800,
        compress in proptest::bool::ANY,
    ) {
        let devices = [1usize, 2, 7][devices_idx];
        let n = 2_003; // prime: ragged shards and subgroups
        let optimizer = Optimizer::new(OptimizerKind::Adam, HyperParams::default());
        let initial = FlatTensor::randn(n, 0.05, seed);
        let keep_ratio = compress.then_some(0.05);

        let grads = gradient_stream(n, 2, seed.wrapping_add(77));
        let (ref_master, ref_fp16) =
            reference_training(&initial, optimizer, devices, keep_ratio, &grads);

        let make = |pool: ParExecutor| {
            let mut t = PipelinedTrainer::new(&initial, optimizer, devices, subgroup).unwrap();
            if let Some(k) = keep_ratio {
                t = t.with_compression(k).unwrap();
            }
            t.with_executor(pool)
        };
        let mut pinned = make(ParExecutor::deterministic(1));
        let mut pipelined = make(ParExecutor::new(threads));
        for g in &grads {
            let a = pinned.train_step_with_grads(g).unwrap();
            let b = pipelined.train_step_with_grads(g).unwrap();
            // Identical interconnect and storage accounting per step.
            prop_assert_eq!(a.gradient_bytes, b.gradient_bytes);
            prop_assert_eq!(a.storage_bytes_read, b.storage_bytes_read);
            prop_assert_eq!(a.storage_bytes_written, b.storage_bytes_written);
            prop_assert_eq!(a.compression_kept, b.compression_kept);
        }
        let pipelined_master = pipelined.master_params().unwrap();
        prop_assert_eq!(ref_master.as_slice(), pipelined_master.as_slice());
        prop_assert_eq!(ref_fp16.as_slice(), pipelined.params_fp16().as_slice());
    }

    /// Property: the fixed sampled Top-K tail keeps exactly `k` elements and
    /// matches the exact selection even on adversarial (tie-heavy, spiked)
    /// magnitude distributions.
    #[test]
    fn sampled_top_k_tail_is_exact(
        base in proptest::collection::vec(-2.0f32..2.0, 50..400),
        spikes in proptest::collection::vec(0usize..400, 0..8),
        ratio in 0.01f64..0.5,
        sample_size in 1usize..128,
    ) {
        // Quantise for ties, then plant large-magnitude spikes anywhere —
        // including past where the old early-exit stopped scanning.
        let mut values: Vec<f32> = base.iter().map(|v| (v * 8.0).round() / 8.0).collect();
        let n = values.len();
        for (j, s) in spikes.iter().enumerate() {
            values[s % n] = 50.0 + j as f32;
        }
        let grads = FlatTensor::from_vec(values);
        let accelerated = Compressor::threshold_top_k(ratio, sample_size).compress(&grads);
        let exact = Compressor::top_k(ratio).compress(&grads);
        prop_assert_eq!(accelerated.num_selected(), Compressor::top_k(ratio).num_kept(n));
        prop_assert_eq!(accelerated, exact);
    }
}
