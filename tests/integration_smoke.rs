//! Workspace-wiring smoke test: the crate graph assembles end to end.
//!
//! This suite is intentionally tiny — it exists so that a broken manifest,
//! a broken re-export or a broken platform constructor fails fast with an
//! obvious message, before the heavier integration suites run.

use llm::{ModelConfig, Workload};
use optim::OptimizerKind;
use smart_infinity::{MethodSpec, SmartInfinityEngine};
use ztrain::{MachineConfig, TimedPlatform};

/// A `TimedPlatform` can be built from a preset machine and driven directly:
/// one flow into storage, one update on the device, a finite makespan.
#[test]
fn timed_platform_builds_and_runs_one_round_trip() {
    let machine = MachineConfig::smart_infinity(2);
    let mut platform = TimedPlatform::new(&machine);
    assert_eq!(platform.num_devices(), 2);
    assert_eq!(platform.num_gpus(), 1);

    let phase = platform.add_phase("smoke");
    let offload = platform.host_to_ssd(0, 1e9, &[], phase).expect("a device write");
    let update = platform.fpga_update(0, 1e9, &[offload], phase).expect("a CSD update");
    let timeline = platform.run().expect("smoke simulation");
    let makespan = timeline.makespan();
    assert!(makespan.is_finite() && makespan > 0.0, "makespan {makespan}");
    assert!(timeline.finish_time(update) <= makespan + 1e-12);
    assert!(timeline.finish_time(offload) < timeline.finish_time(update));
}

/// One baseline iteration through the public engine API produces a finite,
/// internally consistent phase breakdown.
#[test]
fn baseline_iteration_has_a_finite_makespan() {
    let report = SmartInfinityEngine::new(
        MachineConfig::baseline_raid0(2),
        Workload::paper_default(ModelConfig::gpt2_0_34b()),
        OptimizerKind::Adam,
        &MethodSpec::baseline(),
    )
    .simulate_iteration()
    .expect("baseline simulation");
    assert!(report.total_s().is_finite() && report.total_s() > 0.0);
    assert!(report.forward_s > 0.0 && report.backward_s > 0.0 && report.update_s > 0.0);
    let sum = report.forward_s + report.backward_s + report.update_s;
    assert!((sum - report.total_s()).abs() < 1e-6 * sum.max(1.0));
}

/// The `smart_infinity` crate re-exports the workspace's user-facing types
/// from their canonical home crates (one home per type, re-exported by path).
#[test]
fn canonical_reexports_point_at_the_home_crates() {
    // If any of these stopped being re-exports of the same type, the
    // assignments below would fail to compile.
    let gpu: smart_infinity::GpuSpec = llm::GpuSpec::a5000();
    let hp: smart_infinity::HyperParams = optim::HyperParams::default();
    let machine: smart_infinity::MachineConfig = ztrain::MachineConfig::smart_infinity(2);
    let err: smart_infinity::TrainError = ztrain::TrainError::config("same type");
    let report: smart_infinity::StepReport = ztrain::StepReport::default();
    assert!(gpu.effective_flops > 0.0);
    assert!(hp.lr > 0.0);
    assert_eq!(machine.num_devices, 2);
    assert!(err.to_string().contains("same type"));
    assert_eq!(report.step, 0);
}

/// The Session front door assembles end to end: one `MethodSpec` produces both a
/// timed iteration report and a live functional trainer.
#[test]
fn session_builds_both_views_from_one_method() {
    use smart_infinity::{FlatTensor, MethodSpec, Session, Trainer};
    let session = Session::builder(
        llm::ModelConfig::gpt2_0_34b(),
        MachineConfig::smart_infinity(2),
        MethodSpec::smart_update(),
    )
    .build();
    let timed = session.simulate_iteration().expect("timed view");
    assert!(timed.total_s() > 0.0);
    let initial = FlatTensor::randn(256, 0.02, 1);
    let mut trainer: Box<dyn Trainer> = session.trainer(&initial).expect("functional view");
    let report = trainer.step(&FlatTensor::randn(256, 0.01, 2)).expect("step");
    assert_eq!(report.step, 1);
    assert_eq!(trainer.num_params(), 256);
}
