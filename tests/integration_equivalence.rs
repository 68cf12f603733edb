//! Numerical-equivalence integration tests: the paper's central correctness
//! claims, checked end to end across crates.
//!
//! * SmartUpdate is algorithmically identical to the baseline — the trained
//!   parameters are bit-for-bit equal regardless of how many CSDs, subgroups
//!   or blocks the work is split into (paper Section VII-J).
//! * SmartComp is lossy but bounded — with error feedback the sparsified
//!   trajectory stays close to the exact one, and the FPGA decompressor is
//!   exactly inverse to the GPU-side compressor's selection.

use gradcomp::Compressor;
use optim::{HyperParams, Optimizer, OptimizerKind};
use smart_infinity::{MachineConfig, MethodSpec, ModelConfig, PipelinedTrainer, Session, Trainer};
use tensorlib::{Dtype, FlatTensor};
use ztrain::SyntheticGradients;

/// In-memory reference: plain optimizer steps with no offloading at all.
fn in_memory_reference(
    initial: &FlatTensor,
    optimizer: Optimizer,
    grads: &[FlatTensor],
) -> FlatTensor {
    let mut master = initial.clone();
    let mut aux = optimizer.init_aux(initial.len());
    for (i, g) in grads.iter().enumerate() {
        optimizer.step(master.as_mut_slice(), g, &mut aux, (i + 1) as u64);
    }
    master
}

fn gradient_stream(n: usize, steps: u64, seed: u64) -> Vec<FlatTensor> {
    (0..steps).map(|s| FlatTensor::randn(n, 0.01, seed + s)).collect()
}

#[test]
fn every_engine_produces_identical_parameters_for_every_optimizer() {
    let n = 12_000;
    let initial = FlatTensor::randn(n, 0.05, 11);
    let grads = gradient_stream(n, 3, 500);
    for kind in [
        OptimizerKind::Adam,
        OptimizerKind::AdamW,
        OptimizerKind::SgdMomentum,
        OptimizerKind::AdaGrad,
    ] {
        let optimizer = Optimizer::new(kind, HyperParams::default());
        let reference = in_memory_reference(&initial, optimizer, &grads);

        // Both substrates come out of the same Session front door; only the
        // method (and the substrate geometry) differs.
        let session = |method, devices, subgroup| {
            Session::builder(
                ModelConfig::gpt2_0_34b(),
                MachineConfig::smart_infinity(devices),
                method,
            )
            .with_optimizer(optimizer)
            .with_subgroup_elems(subgroup)
            .build()
        };
        let mut baseline =
            session(MethodSpec::baseline(), 3, 2_500).trainer(&initial).expect("baseline trainer");
        let mut smart =
            session(MethodSpec::smart_update(), 5, 1_111).trainer(&initial).expect("smart trainer");
        for g in &grads {
            baseline.step(g).expect("baseline step");
            smart.step(g).expect("smart step");
        }
        assert_eq!(
            baseline.master_params().expect("params").as_slice(),
            reference.as_slice(),
            "{kind:?}: baseline deviates from the in-memory reference"
        );
        assert_eq!(
            smart.master_params().expect("params").as_slice(),
            reference.as_slice(),
            "{kind:?}: SmartUpdate deviates from the in-memory reference"
        );
        assert_eq!(
            smart.params_fp16().as_slice(),
            baseline.params_fp16().as_slice(),
            "{kind:?}: FP16 working copies diverge"
        );
    }
}

#[test]
fn csd_count_and_subgroup_size_never_change_the_result() {
    let n = 9_001; // deliberately prime-ish so shards are uneven
    let initial = FlatTensor::randn(n, 0.05, 21);
    let grads = gradient_stream(n, 2, 900);
    let optimizer = Optimizer::adam_default();
    let mut reference: Option<FlatTensor> = None;
    for (csds, subgroup) in [(1usize, n), (2, 4_000), (3, 1_024), (7, 333), (10, 10_000)] {
        let mut trainer =
            PipelinedTrainer::new(&initial, optimizer, csds, subgroup).expect("trainer");
        for g in &grads {
            trainer.train_step_with_grads(g).expect("step");
        }
        let params = trainer.master_params().expect("params");
        match &reference {
            None => reference = Some(params),
            Some(r) => assert_eq!(
                r.as_slice(),
                params.as_slice(),
                "partitioning ({csds} CSDs, subgroup {subgroup}) changed the result"
            ),
        }
    }
}

#[test]
fn smartcomp_equals_training_on_decompressed_gradients() {
    // The timed path claims SmartComp = compress on GPU, decompress on FPGA,
    // then the ordinary update. The functional engines must therefore match a
    // reference that applies exactly the decompressed (sparsified+EF) gradients.
    let n = 6_000;
    let initial = FlatTensor::randn(n, 0.05, 31);
    let optimizer = Optimizer::adam_default();
    let keep_ratio = 0.05;

    let mut smart = PipelinedTrainer::new(&initial, optimizer, 1, 1_500)
        .expect("trainer")
        .with_compression(keep_ratio)
        .expect("keep ratio");

    // Reference: manual error feedback + Top-K + decompress + in-memory update.
    let compressor = Compressor::top_k(keep_ratio);
    let mut feedback = gradcomp::ErrorFeedback::new(n);
    let mut master = initial.clone();
    let mut aux = optimizer.init_aux(n);

    let grads = gradient_stream(n, 4, 77);
    for (i, g) in grads.iter().enumerate() {
        smart.train_step_with_grads(g).expect("step");

        let corrected = feedback.apply(g);
        let compressed = compressor.compress(&corrected);
        feedback.update(&corrected, &compressed);
        let effective = compressed.decompress();
        optimizer.step(master.as_mut_slice(), &effective, &mut aux, (i + 1) as u64);
    }
    assert_eq!(smart.master_params().expect("params").as_slice(), master.as_slice());
}

#[test]
fn compressed_training_tracks_exact_training_with_error_feedback() {
    let n = 4_096;
    let initial = FlatTensor::randn(n, 0.05, 41);
    let optimizer = Optimizer::adam_default();
    let mut exact = PipelinedTrainer::new(&initial, optimizer, 2, 1_000).expect("trainer");
    let mut compressed = PipelinedTrainer::new(&initial, optimizer, 2, 1_000)
        .expect("trainer")
        .with_compression(0.05)
        .expect("keep ratio");
    let mut src_a = SyntheticGradients::new(n, 0.01, 3);
    let mut src_b = SyntheticGradients::new(n, 0.01, 3);
    for _ in 0..10 {
        exact.step_from(&mut src_a).expect("step");
        compressed.step_from(&mut src_b).expect("step");
    }
    let a = exact.master_params().expect("params");
    let b = compressed.master_params().expect("params");
    let rmse = a.mse(&b).sqrt();
    let scale = a.l2_norm() as f64 / (n as f64).sqrt();
    assert!(rmse / scale < 0.35, "relative deviation too large: {:.3}", rmse / scale);
}

#[test]
fn fp16_working_copy_is_the_rounded_master_copy_everywhere() {
    let n = 2_000;
    let initial = FlatTensor::randn(n, 0.05, 55);
    let optimizer = Optimizer::adam_default();
    let mut smart = PipelinedTrainer::new(&initial, optimizer, 4, 499).expect("trainer");
    smart.train_step_with_grads(&FlatTensor::randn(n, 0.01, 56)).expect("step");
    let master = smart.master_params().expect("params");
    let expected = FlatTensor::from_bytes(&master.to_bytes(Dtype::F16), Dtype::F16);
    assert_eq!(smart.params_fp16().as_slice(), expected.as_slice());
}

/// The host baseline on blocks that really stripe. Under the 1 MiB stripe a
/// 300 000-element (1.2 MB) block puts its first 262 144 elements on member
/// 0, the other 37 856 on member 1, and an empty share on member 2. So every
/// member's windows, the partial last stripe and the FP16 refresh at each
/// stripe's logical offset are reached. The master copy and the FP16 working
/// copy equal, under `to_bits`, plain in-memory optimizer steps and their
/// FP16 rounding.
#[test]
fn a_striped_baseline_block_equals_the_in_memory_reference() {
    let n = 800_000;
    let initial = FlatTensor::randn(n, 0.05, 91);
    let grads = gradient_stream(n, 3, 930);
    let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for kind in [OptimizerKind::Adam, OptimizerKind::SgdMomentum] {
        let optimizer = Optimizer::new(kind, HyperParams::default());
        let reference = in_memory_reference(&initial, optimizer, &grads);
        let mut fp16 = FlatTensor::zeros(n);
        reference.roundtrip_f16_into(fp16.as_mut_slice());
        let mut trainer =
            PipelinedTrainer::host_update(&initial, optimizer, 3, 300_000).expect("trainer");
        for g in &grads {
            trainer.step(g).expect("step");
        }
        let master = trainer.master_params().expect("params");
        assert!(bits(master.as_slice()) == bits(reference.as_slice()), "{kind:?}: master copy");
        assert!(bits(trainer.params_fp16().as_slice()) == bits(fp16.as_slice()), "{kind:?}: FP16");
    }
}
