//! Figure-shape integration tests: every qualitative claim of the paper's
//! evaluation section, checked against the timed model through the public API.
//! (The `bench` crate regenerates the full tables; these tests pin the shapes
//! so refactoring cannot silently break them.)

use smart_infinity::{
    CostModel, GpuSpec, IterationReport, MachineConfig, MethodSpec, ModelConfig, Optimizer,
    OptimizerKind, Session, TrafficMethod, TrafficModel, Workload,
};

/// One timed iteration through the Session front door.
fn simulate(model: ModelConfig, machine: MachineConfig, method: MethodSpec) -> IterationReport {
    Session::builder(model, machine, method).build().simulate_iteration().expect("simulation")
}

fn baseline_total(n_ssds: usize, model: ModelConfig) -> f64 {
    simulate(model, MachineConfig::baseline_raid0(n_ssds), MethodSpec::baseline()).total_s()
}

/// Fig. 3(a): the update phase dominates baseline training across model sizes.
#[test]
fn fig3a_update_dominates_for_all_model_sizes() {
    for model in [ModelConfig::gpt2_2_5b(), ModelConfig::gpt2_8_3b(), ModelConfig::gpt2_20_5b()] {
        let report =
            simulate(model.clone(), MachineConfig::baseline_raid0(1), MethodSpec::baseline());
        assert!(
            report.update_fraction() > 0.6,
            "{}: update fraction {:.2}",
            model.name(),
            report.update_fraction()
        );
    }
}

/// Fig. 3(b): RAID0 scaling saturates after roughly four SSDs.
#[test]
fn fig3b_raid0_saturates() {
    let t1 = baseline_total(1, ModelConfig::gpt2_4b());
    let t4 = baseline_total(4, ModelConfig::gpt2_4b());
    let t10 = baseline_total(10, ModelConfig::gpt2_4b());
    assert!(t1 / t4 > 1.7, "1 -> 4 SSDs should help: {:.2}", t1 / t4);
    assert!(t4 / t10 < 1.1, "4 -> 10 SSDs should not: {:.2}", t4 / t10);
}

/// Table I: interconnect traffic drops from 16M to 3M (SmartUpdate) and to
/// ~1.04M (SmartComp at 2%).
#[test]
fn tab1_traffic_reductions() {
    let model =
        TrafficModel::new(Workload::paper_default(ModelConfig::gpt2_4b()), OptimizerKind::Adam);
    let m = |method| {
        model.per_iteration(method).total()
            / Workload::paper_default(ModelConfig::gpt2_4b()).model_bytes_fp16() as f64
    };
    assert!((m(TrafficMethod::ZeroInfinity) - 16.0).abs() < 1e-9);
    assert!((m(TrafficMethod::SmartUpdate) - 3.0).abs() < 1e-9);
    assert!((m(TrafficMethod::SmartComp { keep_ratio: 0.01 }) - 1.04).abs() < 1e-9);
}

/// Fig. 9 / Fig. 10: speedups are stable across model sizes and grow with the
/// number of CSDs.
#[test]
fn fig9_and_fig10_speedups_hold_across_scales() {
    for model in [ModelConfig::gpt2_4b(), ModelConfig::gpt2_16_6b(), ModelConfig::gpt2_33b()] {
        let mut speedups = Vec::new();
        for n in [6usize, 10] {
            let machine = MachineConfig::smart_infinity(n);
            let base = simulate(model.clone(), machine.clone(), MethodSpec::baseline());
            let smart = simulate(model.clone(), machine, MethodSpec::smart_comp(0.01));
            speedups.push(smart.speedup_over(&base));
        }
        assert!(
            speedups[0] > 1.3 && speedups[0] < 2.2,
            "{} at 6 CSDs: {:.2}",
            model.name(),
            speedups[0]
        );
        assert!(
            speedups[1] > speedups[0],
            "{}: more CSDs must help ({:.2} vs {:.2})",
            model.name(),
            speedups[1],
            speedups[0]
        );
    }
}

/// Fig. 11: the A100 sees larger speedups than the A5000 because compute
/// shrinks while the transfer bottleneck stays.
#[test]
fn fig11_faster_gpu_increases_the_speedup() {
    let speedup_for = |gpu: GpuSpec| {
        let machine = MachineConfig::smart_infinity(10).with_gpu(gpu);
        let base = simulate(ModelConfig::gpt2_4b(), machine.clone(), MethodSpec::baseline());
        let smart = simulate(ModelConfig::gpt2_4b(), machine, MethodSpec::smart_comp(0.01));
        smart.speedup_over(&base)
    };
    let a5000 = speedup_for(GpuSpec::a5000());
    let a100 = speedup_for(GpuSpec::a100());
    assert!(a100 > a5000, "A100 {a100:.2} should exceed A5000 {a5000:.2}");
    assert!(a100 < 3.2, "A100 speedup {a100:.2} out of band");
}

/// Fig. 12: SGD and AdaGrad carry 3/4 of Adam's optimizer state, so the
/// speedup is slightly lower but still substantial.
#[test]
fn fig12_other_optimizers_still_speed_up() {
    let speedup_for = |optimizer| {
        let session = |method| {
            Session::builder(ModelConfig::gpt2_4b(), MachineConfig::smart_infinity(10), method)
                .with_optimizer(Optimizer::new(optimizer, Default::default()))
                .build()
        };
        let base = session(MethodSpec::baseline()).simulate_iteration().expect("simulation");
        let smart =
            session(MethodSpec::smart_update_optimized()).simulate_iteration().expect("simulation");
        smart.speedup_over(&base)
    };
    let adam = speedup_for(OptimizerKind::Adam);
    let sgd = speedup_for(OptimizerKind::SgdMomentum);
    let adagrad = speedup_for(OptimizerKind::AdaGrad);
    assert!(sgd > 1.4 && adagrad > 1.4);
    assert!(sgd <= adam && adagrad <= adam, "smaller state -> no larger speedup");
}

/// Fig. 13: BLOOM and ViT behave like the GPT-2/BERT workloads.
#[test]
fn fig13_other_model_families_speed_up() {
    for model in [
        ModelConfig::bloom_3b(),
        ModelConfig::bloom_7_1b(),
        ModelConfig::vit_0_30b(),
        ModelConfig::vit_0_63b(),
    ] {
        let machine = MachineConfig::smart_infinity(10);
        let base = simulate(model.clone(), machine.clone(), MethodSpec::baseline());
        let smart = simulate(model.clone(), machine, MethodSpec::smart_comp(0.01));
        let speedup = smart.speedup_over(&base);
        assert!(speedup > 1.3 && speedup < 3.0, "{}: {:.2}", model.name(), speedup);
    }
}

/// Fig. 14: the FPGA kernels outpace the SSD, so they never become the bottleneck.
#[test]
fn fig14_kernels_keep_up_with_the_ssd() {
    let updater = csd::Updater::default();
    let decompressor = csd::Decompressor::default();
    let ssd = ssd::BandwidthProfile::smartssd_nvme();
    assert!(updater.throughput_bytes_per_sec(OptimizerKind::Adam) > 2.0 * ssd.read_bytes_per_sec);
    assert!(decompressor.throughput_bytes_per_sec(0.01) > ssd.read_bytes_per_sec);
}

/// Fig. 15: Smart-Infinity's GFLOPS/$ overtakes the baseline once enough
/// devices are installed, despite the 6x device-price premium.
#[test]
fn fig15_cost_efficiency_crossover() {
    let workload = Workload::paper_default(ModelConfig::gpt2_4b());
    let cost = CostModel::default();
    let gpu = GpuSpec::a5000();
    let flops = workload.training_flops();
    let efficiency = |n: usize, method: MethodSpec| {
        let t =
            simulate(ModelConfig::gpt2_4b(), MachineConfig::smart_infinity(n), method).total_s();
        let system = if method.uses_csds() {
            cost.smart_infinity_system_usd(&gpu, n)
        } else {
            cost.baseline_system_usd(&gpu, n)
        };
        CostModel::gflops_per_dollar(flops / t, system)
    };
    assert!(efficiency(1, MethodSpec::baseline()) > efficiency(1, MethodSpec::smart_comp(0.01)));
    assert!(efficiency(10, MethodSpec::smart_comp(0.01)) > efficiency(10, MethodSpec::baseline()));
}

/// Fig. 16: stronger compression monotonically reduces the iteration time,
/// with diminishing returns.
#[test]
fn fig16_compression_ratio_sensitivity() {
    let mut last = f64::INFINITY;
    for transfer in [0.10f64, 0.05, 0.02, 0.01] {
        let t = simulate(
            ModelConfig::gpt2_4b(),
            MachineConfig::smart_infinity(10),
            MethodSpec::smart_comp(transfer / 2.0),
        )
        .total_s();
        assert!(t <= last * 1.001, "time must not increase as compression strengthens");
        last = t;
    }
}

/// Fig. 17: the congested multi-GPU topology reduces but does not eliminate
/// the speedup.
#[test]
fn fig17_congested_topology_shape() {
    let default_machine = MachineConfig::smart_infinity(10);
    let congested_machine = MachineConfig::congested_multi_gpu(10, 3);
    let speedup = |machine: &MachineConfig| {
        let base = simulate(ModelConfig::gpt2_1_16b(), machine.clone(), MethodSpec::baseline());
        let smart =
            simulate(ModelConfig::gpt2_1_16b(), machine.clone(), MethodSpec::smart_comp(0.01));
        smart.speedup_over(&base)
    };
    let default_speedup = speedup(&default_machine);
    let congested_speedup = speedup(&congested_machine);
    assert!(default_speedup > 1.3, "default-topology speedup {default_speedup:.2}");
    assert!(
        congested_speedup > 1.3 && congested_speedup < 2.6,
        "congested speedup {congested_speedup:.2} out of band"
    );
    // The congested placement routes GPU traffic over the shared switch, so
    // its backward (grad-offload) phase is relatively more expensive than in
    // the default topology with the same per-GPU traffic.
    let default_base = simulate(ModelConfig::gpt2_1_16b(), default_machine, MethodSpec::baseline());
    let congested_base =
        simulate(ModelConfig::gpt2_1_16b(), congested_machine, MethodSpec::baseline());
    assert!(
        congested_base.backward_s / congested_base.forward_s
            > default_base.backward_s / default_base.forward_s
    );
}
