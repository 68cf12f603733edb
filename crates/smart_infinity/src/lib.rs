//! # smart_infinity — near-storage processing for storage-offloaded LLM training
//!
//! A Rust reproduction of **Smart-Infinity** (HPCA 2024): accelerating
//! storage-offloaded LLM training by moving the optimizer update into
//! computational storage devices (CSDs), so that the optimizer states —
//! by far the largest per-iteration traffic — never cross the shared host
//! PCIe interconnect.
//!
//! The crate provides both views of the system:
//!
//! * **Timed** — [`Session::simulate_iteration`] builds a discrete-event
//!   model of one training iteration on a machine with N SmartSSD-class
//!   storage devices and reports the forward / backward+gradient-offload /
//!   update phase breakdown ([`Session::simulate_iteration_stages`] adds the
//!   shared interconnect's stage occupancy). It is the one timed front door:
//!   the session's [`MethodSpec`] decides whether the devices act as RAID0
//!   SSDs under a host-CPU update (the baseline) or as CSDs, and which
//!   schedule the iteration graph gets, so the whole ladder (BASE → SU →
//!   SU+O → SU+O+C) runs one body and every figure of the evaluation is
//!   produced from it (see the `bench` crate).
//! * **Functional** — [`PipelinedTrainer`] really distributes the flattened
//!   parameters across [`csd::CsdDevice`] models, really runs the FPGA
//!   updater/decompressor kernels and really produces updated FP16
//!   parameters. Built with [`PipelinedTrainer::host_update`] instead, the
//!   same trainer is the baseline, updating on the host over a RAID0 array,
//!   so SmartUpdate's bit-equivalence to the baseline and SmartComp's
//!   accuracy behaviour are testable facts rather than claims.
//!
//! The three ideas of the paper map to:
//!
//! | Paper | Here |
//! |---|---|
//! | SmartUpdate (Section IV-A) | [`MethodSpec::smart_update`], [`Session::simulate_iteration`], [`PipelinedTrainer`] |
//! | Internal data-transfer handler (Section IV-B) | [`HandlerMode`], [`SessionBuilder::with_handler`], the tasklet chains of [`method_scheduler`] |
//! | SmartComp gradient compression (Section IV-C) | [`MethodSpec::smart_comp`], `gradcomp` + `csd::Decompressor` |
//! | Multi-CSD distribution (Section IV-D) | [`ztrain::StepPlan`], read by [`PipelinedTrainer`] and the timed graph alike |
//! | Cross-CSD phase overlap (Sections IV-B/IV-D) | [`MethodSpec::pipelined`], the lanes of [`PipelinedTrainer`], [`PipelineTiming`] |
//!
//! # Quick start
//!
//! A [`Session`] is the front door: one [`MethodSpec`] — five orthogonal
//! capability axes — switches both the timed and the functional view, and
//! both speak [`TrainError`], so `?` works across the whole stack. Every
//! configuration is also plain data: a [`RunSpec`] loads from JSON, and a
//! [`Campaign`] is the `specs/*.json` list of them. Sweeps run as `lab`
//! experiments, which execute through [`CampaignService`] (`campaignd`): a
//! bounded work queue with in-flight dedup and a content-addressed result
//! cache keyed on [`RunSpec::canonical_json`].
//!
//! ```
//! use smart_infinity::{FlatTensor, RunSpec, TrainError};
//!
//! # fn main() -> Result<(), TrainError> {
//! // One run, declared as data: SmartUpdate + optimized handler + SmartComp.
//! let spec = RunSpec::from_json(
//!     r#"{
//!         "model": "GPT2-0.34B",
//!         "machine": { "devices": 6 },
//!         "method": {
//!             "offload": true, "in_storage_update": true,
//!             "overlap": true, "pipelined": false,
//!             "compression": { "keep_ratio": 0.01 }
//!         }
//!     }"#,
//! )?;
//! assert_eq!(spec.method.to_string(), "SU+O+C(2%)");
//! let session = spec.session()?;
//!
//! // Timed view: how much faster is one iteration than the RAID0 baseline?
//! let mut baseline = spec.clone();
//! baseline.method = smart_infinity::MethodSpec::baseline();
//! let base = baseline.session()?.simulate_iteration()?;
//! let smart = session.simulate_iteration()?;
//! assert!(smart.speedup_over(&base) > 1.0);
//!
//! // Functional view: the same spec selects a real trainer (dyn Trainer).
//! let initial = FlatTensor::randn(4_096, 0.02, 7);
//! let mut trainer = session.trainer(&initial)?;
//! let report = trainer.step(&FlatTensor::randn(4_096, 0.01, 8))?;
//! assert!(report.is_compressed() && report.gradient_bytes < 4 * 4_096);
//!
//! // Sweep view: a plain loop over specs.
//! let mut totals = Vec::new();
//! for spec in [baseline, spec] {
//!     totals.push(spec.session()?.simulate_iteration()?.total_s());
//! }
//! assert!(totals[1] < totals[0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod canon;
pub mod cluster;
mod engine_timed;
pub mod sched;
mod service;
mod session;
mod spec;
mod traffic;

pub use campaign::{Campaign, CampaignRef};
pub use canon::{canonical_json, fnv1a, push_canonical_f64};
pub use cluster::{ClusterSpec, StragglerSpec};
pub use engine_timed::{HandlerMode, PipelineTiming, SmartInfinityEngine};
pub use sched::method_scheduler;
pub use service::{
    CampaignService, ClientReport, CompletedJob, JobId, JobStatus, JobTelemetry, LatencyStats,
    RunReport, ServiceConfig, ServiceError, ServiceReport,
};
pub use session::{Session, SessionBuilder};
pub use spec::{CompressionSpec, MachineSpec, MethodSpec, ModelSpec, RunSpec, WorkloadSpec};
pub use traffic::{InterconnectTraffic, TrafficMethod, TrafficModel};

// The spec layer re-exports the selector enum so compression specs can be
// built without importing gradcomp.
pub use gradcomp::SelectionMethod;

// Re-export the pieces users need to drive the library without spelling out
// every substrate crate.
pub use csd::{CsdDevice, FpgaResources, KernelResourceModel};
pub use llm::{CostModel, GpuSpec, ModelConfig, Workload};
pub use optim::{HyperParams, Optimizer, OptimizerKind};
pub use tensorlib::FlatTensor;
pub use ztrain::{
    DegradedReport, GradientSource, IterationReport, LayerTimes, MachineConfig, PipelinedTrainer,
    StageReport, StepReport, SyntheticGradients, TrainError, Trainer, TrainerCheckpoint,
};

// The fault-injection axis: specs carry a [`faultkit::FaultSpec`], sessions
// turn it into per-device injectors and timed effects.
pub use faultkit::{FaultPlan, FaultSpec, TimedFaultEffects};
pub use simkit::FaultAnnotation;

#[cfg(test)]
mod tests {
    use super::*;

    fn simulate(machine: MachineConfig, model: ModelConfig, method: MethodSpec) -> IterationReport {
        Session::builder(model, machine, method).build().simulate_iteration().unwrap()
    }

    /// The headline claim: with enough CSDs, Smart-Infinity beats the RAID0
    /// baseline by well over 1.5x, and each ingredient of the ablation helps.
    #[test]
    fn method_ladder_is_monotone_at_ten_csds() {
        let run =
            |method| simulate(MachineConfig::smart_infinity(10), ModelConfig::gpt2_4b(), method);
        let base = run(MethodSpec::baseline());
        let s_su = run(MethodSpec::smart_update()).speedup_over(&base);
        let s_suo = run(MethodSpec::smart_update_optimized()).speedup_over(&base);
        let s_suoc = run(MethodSpec::smart_comp(0.01)).speedup_over(&base);
        assert!(s_su > 1.2, "SU speedup {s_su:.2}");
        assert!(s_suo >= s_su, "SU+O ({s_suo:.2}) must not be slower than SU ({s_su:.2})");
        assert!(s_suoc > s_suo, "SU+O+C ({s_suoc:.2}) must beat SU+O ({s_suo:.2})");
        assert!(s_suoc > 1.5 && s_suoc < 3.0, "overall speedup {s_suoc:.2}");
    }

    /// The headline motivation result (Fig. 3a): with a single SSD, the update
    /// phase (including optimizer-state upload/offload) dominates the
    /// iteration, taking well over half of the total time.
    #[test]
    fn update_phase_dominates_baseline_training() {
        let machine = MachineConfig::baseline_raid0(1);
        let report = simulate(machine, ModelConfig::gpt2_2_5b(), MethodSpec::baseline());
        assert!(
            report.update_s / report.total_s() > 0.6,
            "update fraction {:.2}",
            report.update_s / report.total_s()
        );
    }

    /// The RAID0 scaling result (Fig. 3b): speedup saturates once the
    /// aggregate SSD bandwidth reaches the shared interconnect bandwidth.
    #[test]
    fn raid0_speedup_saturates_beyond_four_ssds() {
        let time = |n: usize| {
            let machine = MachineConfig::baseline_raid0(n);
            simulate(machine, ModelConfig::gpt2_4b(), MethodSpec::baseline()).total_s()
        };
        let t1 = time(1);
        let t2 = time(2);
        let t6 = time(6);
        let t10 = time(10);
        assert!(t1 / t2 > 1.4, "2 SSDs should be much faster than 1: {t1:.1} vs {t2:.1}");
        // Beyond the saturation point, adding SSDs barely helps.
        assert!(t6 / t10 < 1.1, "6 vs 10 SSDs: {t6:.2} vs {t10:.2}");
        assert!(t1 / t10 < 8.0, "speedup must saturate well below the device count");
    }
}
