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
use smart_infinity::{FlatTensor, MachineConfig, MethodSpec, ModelConfig, Session, TrainError};
use std::error::Error;
use tensorlib::{Dtype, Partitioner};
use ztrain::{PipelinedTrainer, Trainer};

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
    let stages = |method: MethodSpec| {
        Session::builder(ModelConfig::gpt2_4b(), MachineConfig::smart_infinity(6), method)
            .build()
            .simulate_iteration_stages()
            .unwrap()
    };
    let serial = stages(MethodSpec::smart_update_optimized());
    let pipelined = stages(MethodSpec::pipelined(None));
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

}

// ---------------------------------------------------------------------------
// The sampled Top-K selection against a full selection
// ---------------------------------------------------------------------------

/// The selection `gradcomp` used before it sampled a cut, kept here as the
/// oracle: one `select_nth` over every index, by magnitude descending
/// (`total_cmp`, so NaN first) and index ascending.
fn oracle_top_k(grads: &[f32], k: usize) -> Vec<u32> {
    let mut indices: Vec<u32> = (0..grads.len() as u32).collect();
    indices.select_nth_unstable_by(k.saturating_sub(1), |&a, &b| {
        let (ma, mb) = (grads[a as usize].abs(), grads[b as usize].abs());
        mb.total_cmp(&ma).then(a.cmp(&b))
    });
    indices.truncate(k);
    indices.sort_unstable();
    indices
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `gradcomp` samples a shard of at least this many elements, every
/// `(n / 16 Ki) | 1`-th one (its private `SAMPLE_FLOOR` and stride; the two
/// stride cases below only bite while these stay in step with it).
const SAMPLE_FLOOR: usize = 1 << 16;

fn sample_stride(n: usize) -> usize {
    (n / (1 << 14)) | 1
}

/// A cheap deterministic hash of an index, uniform in `[0, 1)`.
fn unit_hash(i: usize) -> f32 {
    ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f32 / (1u64 << 24) as f32
}

/// Shards on which a sampled cut has every chance to be wrong. `k` shapes the
/// cases that must put their structure at the cut itself.
fn adversarial_shards(n: usize, k: usize) -> Vec<(&'static str, FlatTensor)> {
    let stride = sample_stride(n);
    let normal = FlatTensor::randn(n, 0.01, 9);
    let base = normal.as_slice();
    let specials = [
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        f32::MIN_POSITIVE / 4.0, // subnormal
        -f32::from_bits(1),      // the smallest one
    ];
    vec![
        ("normal", normal.clone()),
        ("all equal", FlatTensor::full(n, -2.5)),
        ("all zero", FlatTensor::zeros(n)),
        ("1-in-97 sparse", FlatTensor::from_fn(n, |i| if i % 97 == 0 { base[i] } else { 0.0 })),
        // k/2 large values, then half the shard tied at exactly 1.0: the
        // k-th magnitude sits inside the tie, far more than 25 % of the shard.
        (
            "tied at the cut",
            FlatTensor::from_fn(n, |i| {
                let u = unit_hash(i);
                if u < 0.5 * k as f32 / n as f32 {
                    2.0 + u
                } else if u < 0.75 {
                    if i % 2 == 0 {
                        1.0
                    } else {
                        -1.0
                    }
                } else {
                    u * 0.5
                }
            }),
        ),
        (
            "specials mixed in",
            FlatTensor::from_fn(n, |i| if i % 11 == 3 { specials[(i / 11) % 7] } else { base[i] }),
        ),
        // The sample sees none of the large values, so its cut is far too low.
        (
            "large only between sample points",
            FlatTensor::from_fn(n, |i| if i % stride == 1 { 50.0 + unit_hash(i) } else { base[i] }),
        ),
        // The sample sees nothing but large values, so its cuts are too high
        // for any k beyond their number.
        (
            "large only on sample points",
            FlatTensor::from_fn(n, |i| if i % stride == 0 { 50.0 + unit_hash(i) } else { base[i] }),
        ),
    ]
}

/// The sampled selection is the full selection — same indices, same value
/// bits — wherever the sample can mislead it, for every keep ratio, chunk
/// count and executor mode.
#[test]
fn sampled_top_k_tail_is_exact() {
    let n = SAMPLE_FLOOR + 37;
    for ratio in [0.001, 0.01, 0.1, 0.24, 0.5, 1.0] {
        let compressor = Compressor::top_k(ratio);
        let k = compressor.num_kept(n);
        for (case, grads) in adversarial_shards(n, k) {
            let expected = oracle_top_k(grads.as_slice(), k);
            let expected_bits: Vec<u32> =
                expected.iter().map(|&i| grads.as_slice()[i as usize].to_bits()).collect();
            let check = |c: &CompressedGradient, how: &str| {
                assert_eq!(c.indices(), expected.as_slice(), "{case} ratio={ratio} {how}");
                assert_eq!(bits(c.values()), expected_bits, "{case} ratio={ratio} {how}");
                assert_eq!(c.original_len(), n);
            };
            check(&compressor.compress(&grads), "serial");
            for chunks in 1usize..=8 {
                for pool in [ParExecutor::new(3), ParExecutor::deterministic(3)] {
                    let c = compressor.compress_par_chunked(&grads, &pool, chunks);
                    check(&c, &format!("chunks={chunks} {:?}", pool.mode()));
                }
            }
        }
    }
}

/// The compress stage the trainer runs — accumulate into the residual,
/// select from it, clear what was sent — is the three-call sequence it
/// replaced, bit for bit, stream and residual, step after step.
#[test]
fn the_in_place_compress_stage_equals_apply_compress_update() {
    let n = 2 * SAMPLE_FLOOR + 9_001; // two chunks on a two-worker lane
    let compressor = Compressor::top_k(0.01);
    let pool = ParExecutor::new(2);
    let mut reference = ErrorFeedback::new(n);
    let mut in_place = ErrorFeedback::new(n);
    let mut lane = gradcomp::CompressLane::default();
    for step in 0..6u64 {
        let mut grads = FlatTensor::randn(n, 0.01, 500 + step);
        if step == 3 {
            // A poisoned step: NaN meets a finite residual, and stays put.
            grads.as_mut_slice()[77] = f32::NAN;
            grads.as_mut_slice()[n - 5] = f32::NEG_INFINITY;
        }
        let mut corrected = grads.clone();
        reference.apply_in_place(&mut corrected);
        let compressed = compressor.compress(&corrected);
        reference.update(&corrected, &compressed);

        in_place.compress_into(grads.as_slice(), &compressor, &pool, &mut lane).unwrap();
        assert_eq!(lane.stream().indices(), compressed.indices(), "step {step}");
        assert_eq!(bits(lane.stream().values()), bits(compressed.values()), "step {step}");
        assert_eq!(
            bits(in_place.residual().as_slice()),
            bits(reference.residual().as_slice()),
            "residual after step {step}"
        );
    }
}
