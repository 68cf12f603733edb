//! End-to-end integration: the full Smart-Infinity stack — model zoo,
//! machine configuration, timed engine, functional trainers and real
//! gradients — working together through the public API.

use smart_infinity::{
    HandlerMode, MachineConfig, MethodSpec, ModelConfig, Optimizer, OptimizerKind, Session,
};
use ztrain::realtrain::{Dataset, MlpGradientSource, MlpModel};

#[test]
fn full_ladder_reproduces_the_headline_speedups() {
    let ladder = MethodSpec::ladder();
    let reports: Vec<_> = ladder
        .iter()
        .map(|&method| {
            Session::builder(ModelConfig::gpt2_4b(), MachineConfig::smart_infinity(10), method)
                .build()
                .simulate_iteration()
                .expect("simulation")
        })
        .collect();
    assert_eq!(reports.len(), 4);
    let speedups: Vec<f64> = reports.iter().map(|r| r.speedup_over(&reports[0])).collect();
    // BASE, SU, SU+O, SU+O+C in increasing speedup order.
    for i in 1..speedups.len() {
        assert!(
            speedups[i] >= speedups[i - 1],
            "{} ({:.2}x) should not be slower than {} ({:.2}x)",
            ladder[i],
            speedups[i],
            ladder[i - 1],
            speedups[i - 1]
        );
    }
    let final_speedup = *speedups.last().unwrap();
    assert!(
        final_speedup > 1.5 && final_speedup < 3.0,
        "SU+O+C speedup at 10 CSDs: {final_speedup:.2}"
    );
}

#[test]
fn breakdown_phases_follow_the_paper_shape() {
    // Baseline: update dominates. Smart-Infinity: it no longer does.
    let simulate = |machine, method| {
        Session::builder(ModelConfig::gpt2_8_4b(), machine, method)
            .build()
            .simulate_iteration()
            .expect("simulation")
    };
    let base = simulate(MachineConfig::baseline_raid0(6), MethodSpec::baseline());
    assert!(base.update_fraction() > 0.6, "baseline update fraction {:.2}", base.update_fraction());

    let smart = simulate(MachineConfig::smart_infinity(10), MethodSpec::smart_comp(0.01));
    assert!(smart.update_fraction() < base.update_fraction());
    assert!(smart.total_s() < base.total_s());
}

#[test]
fn handler_modes_and_compression_compose_through_the_builder() {
    let builder = |method: MethodSpec| {
        Session::builder(ModelConfig::bert_4b(), MachineConfig::smart_infinity(6), method)
            .with_optimizer(Optimizer::new(OptimizerKind::AdamW, Default::default()))
            .with_subgroup_elems(50_000_000)
    };
    let simulate = |builder: smart_infinity::SessionBuilder| {
        let session = builder.build();
        assert_eq!(session.model(), session.workload().model());
        session.simulate_iteration().expect("simulation")
    };
    // SmartComp with the handler forced to naive is the off-ladder SU+C: the
    // override reaches the timed model, and only through the handler.
    let comp = MethodSpec::smart_comp(0.05);
    let overridden = simulate(builder(comp).with_handler(HandlerMode::Naive));
    assert!(overridden.total_s() > 0.0);
    let su_c = MethodSpec { overlap: false, ..comp };
    assert_eq!(overridden, simulate(builder(su_c)));
    assert_eq!(simulate(builder(su_c).with_handler(HandlerMode::Naive)), overridden);
    let native = simulate(builder(comp));
    assert_eq!(simulate(builder(comp).with_handler(HandlerMode::Optimized)), native);
    assert!(overridden.total_s() > native.total_s(), "the naive handler costs SU+C time");
}

#[test]
fn training_a_real_model_through_the_offload_engines_learns() {
    // Drive both functional substrates, behind one `dyn Trainer` seam, with
    // genuine MLP gradients and verify the classifier actually improves.
    let dataset = Dataset::gaussian_blobs("e2e", 200, 12, 3, 0.35, 99);
    let model = MlpModel::new(12, 16, 3);
    let initial = model.init_params(1);

    let accuracy_before = model.accuracy(&initial, &dataset.test_x, &dataset.test_y);

    let session = |method, devices, subgroup| {
        Session::builder(ModelConfig::gpt2_0_34b(), MachineConfig::smart_infinity(devices), method)
            .with_subgroup_elems(subgroup)
            .build()
    };
    let mut smart = session(MethodSpec::smart_update(), 3, 200).trainer(&initial).expect("trainer");
    let mut baseline = session(MethodSpec::baseline(), 2, 300).trainer(&initial).expect("trainer");
    let mut source_a = MlpGradientSource::new(model, dataset.clone(), 16, 5);
    let mut source_b = MlpGradientSource::new(model, dataset.clone(), 16, 5);
    let mut smart_p2p_written = 0u64;
    for _ in 0..150 {
        let report = smart.step_from(&mut source_a).expect("step");
        smart_p2p_written += report.storage_bytes_written;
        baseline.step_from(&mut source_b).expect("step");
    }
    let smart_params = smart.master_params().expect("params");
    let baseline_params = baseline.master_params().expect("params");
    // Identical gradient streams -> identical trained parameters.
    assert_eq!(smart_params.as_slice(), baseline_params.as_slice());

    let accuracy_after = model.accuracy(&smart_params, &dataset.test_x, &dataset.test_y);
    assert!(
        accuracy_after > accuracy_before + 0.2,
        "training through the CSD path must actually learn: {accuracy_before:.2} -> {accuracy_after:.2}"
    );
    assert!(accuracy_after > 0.85, "final accuracy {accuracy_after:.2}");
    assert_eq!(smart.steps_completed(), 150);
    // Real device telemetry: the near-storage path wrote back exactly the
    // Adam state volume (master + 2 aux = 12 B/param) for every parameter of
    // every step — i.e. each element really was updated once per step.
    assert_eq!(smart_p2p_written, 150 * 12 * initial.len() as u64);
}

#[test]
fn other_optimizers_and_models_run_through_the_same_api() {
    for optimizer in [OptimizerKind::SgdMomentum, OptimizerKind::AdaGrad] {
        let session = |method| {
            Session::builder(ModelConfig::bloom_3b(), MachineConfig::smart_infinity(6), method)
                .with_optimizer(smart_infinity::Optimizer::new(optimizer, Default::default()))
                .build()
        };
        let base = session(MethodSpec::baseline()).simulate_iteration().expect("simulation");
        let smart =
            session(MethodSpec::smart_update_optimized()).simulate_iteration().expect("simulation");
        assert!(
            smart.speedup_over(&base) > 1.2,
            "{optimizer:?}: speedup {:.2}",
            smart.speedup_over(&base)
        );
    }
}

#[test]
fn congested_multi_gpu_topology_is_supported_end_to_end() {
    let session = |gpus, method| {
        Session::builder(
            ModelConfig::gpt2_1_16b(),
            MachineConfig::congested_multi_gpu(10, gpus),
            method,
        )
        .build()
    };
    let base = session(3, MethodSpec::baseline()).simulate_iteration().expect("simulation");
    let smart = session(3, MethodSpec::smart_comp(0.01)).simulate_iteration().expect("simulation");
    let speedup = smart.speedup_over(&base);
    assert!(speedup > 1.3, "congested-topology speedup {speedup:.2}");
    // Multi-GPU tensor parallelism shortens forward compute vs a single GPU.
    let single = session(1, MethodSpec::baseline()).simulate_iteration().expect("simulation");
    assert!(base.forward_s < single.forward_s);
}
