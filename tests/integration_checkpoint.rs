//! Checkpoint/restore integration tests through the `Trainer` seam:
//!
//! * checkpoint → JSON → restore → continue is bit-identical to an
//!   uninterrupted run for every checkpointable trainer, including the
//!   error-feedback residual state of the compression pipeline;
//! * a checkpoint taken mid-run under fault injection still resumes to the
//!   same final parameters (recovery is numerically invisible).
//!
//! Kill and resume of a whole sweep is `lab`'s journal, not a trainer
//! checkpoint; the bit-identity gate (`crates/bench/tests/outputs_manifest.rs`)
//! halts and resumes every checked-in experiment, the fault campaign among
//! them.

use smart_infinity::{
    FaultSpec, MachineConfig, MethodSpec, ModelConfig, Session, SessionBuilder, TrainerCheckpoint,
};
use tensorlib::FlatTensor;

const N: usize = 2000;

fn builder(method: MethodSpec, devices: usize) -> SessionBuilder {
    Session::builder(ModelConfig::gpt2_0_34b(), MachineConfig::smart_infinity(devices), method)
        .with_threads(2)
        .with_subgroup_elems(400)
}

/// Every checkpointable execution mode: checkpoint after 2 of 5 steps, push
/// the state through its JSON wire format into a *fresh* trainer, finish the
/// remaining 3 steps, and compare against the uninterrupted 5-step run.
#[test]
fn checkpoint_roundtrip_resumes_bit_identically_in_every_mode() {
    let initial = FlatTensor::randn(N, 0.05, 31);
    let grads: Vec<FlatTensor> = (0..5).map(|s| FlatTensor::randn(N, 0.01, 40 + s)).collect();

    let modes: Vec<(MethodSpec, bool)> = vec![
        (MethodSpec::baseline(), false),
        (MethodSpec::smart_update(), false),
        (MethodSpec::smart_comp(0.1), true),
        (MethodSpec::pipelined(None), false),
        (MethodSpec::pipelined(Some(0.1)), true),
    ];
    for (method, compressed) in modes {
        let label = method.to_string();

        let mut straight = builder(method, 3).build().trainer(&initial).unwrap();
        for g in &grads {
            straight.step(g).unwrap();
        }

        let mut first = builder(method, 3).build().trainer(&initial).unwrap();
        for g in &grads[..2] {
            first.step(g).unwrap();
        }
        let checkpoint = first.checkpoint().unwrap();
        assert_eq!(checkpoint.step, 2, "{label}");
        assert_eq!(
            !checkpoint.residual_bits.is_empty(),
            compressed,
            "{label}: compression implies serialized error-feedback residuals"
        );
        drop(first);

        // Through the wire format, into a trainer that never saw steps 0-1.
        let json = checkpoint.to_json().unwrap();
        let restored_ckpt = TrainerCheckpoint::from_json(&json).unwrap();
        assert_eq!(restored_ckpt, checkpoint, "{label}");
        let mut resumed = builder(method, 3).build().trainer(&initial).unwrap();
        resumed.restore(&restored_ckpt).unwrap();
        assert_eq!(resumed.steps_completed(), 2, "{label}");
        for g in &grads[2..] {
            resumed.step(g).unwrap();
        }

        assert_eq!(
            straight.master_params().unwrap().as_slice(),
            resumed.master_params().unwrap().as_slice(),
            "{label}: master params diverged after restore"
        );
        assert_eq!(
            straight.params_fp16().as_slice(),
            resumed.params_fp16().as_slice(),
            "{label}: fp16 working copy diverged after restore"
        );
        assert_eq!(straight.steps_completed(), resumed.steps_completed(), "{label}");
    }
}

/// Checkpoints taken while fault injection is live are maintenance traffic:
/// they must succeed despite transient faults, and the resumed run still
/// converges to the same parameters as the uninterrupted faulted run.
#[test]
fn checkpoint_restore_under_fault_injection_matches_the_straight_run() {
    let initial = FlatTensor::randn(N, 0.05, 51);
    let grads: Vec<FlatTensor> = (0..4).map(|s| FlatTensor::randn(N, 0.01, 60 + s)).collect();
    let mut faults = FaultSpec::empty(13);
    faults.transient_per_mille = Some(250);

    let session = || builder(MethodSpec::pipelined(Some(0.1)), 3).with_faults(faults.clone());

    let mut straight = session().build().trainer(&initial).unwrap();
    for g in &grads {
        straight.step(g).unwrap();
    }

    let mut first = session().build().trainer(&initial).unwrap();
    let mut fired = false;
    for g in &grads[..2] {
        fired |= first.step(g).unwrap().degraded.is_some();
    }
    assert!(fired, "a 25% transient rate must fire within 2 steps");
    let checkpoint = first.checkpoint().unwrap();
    let mut resumed = session().build().trainer(&initial).unwrap();
    resumed.restore(&checkpoint).unwrap();
    for g in &grads[2..] {
        resumed.step(g).unwrap();
    }

    // The resumed trainer replays a fresh fault schedule, so its telemetry
    // may differ — but recovery is numerically invisible, so the parameters
    // may not.
    assert_eq!(
        straight.master_params().unwrap().as_slice(),
        resumed.master_params().unwrap().as_slice()
    );
    assert_eq!(straight.params_fp16().as_slice(), resumed.params_fp16().as_slice());
}
