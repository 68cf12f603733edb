//! # ztrain — storage-offloaded LLM training substrate
//!
//! This crate implements the *baseline* the paper compares against — a
//! ZeRO-Infinity-style storage-offloaded training engine with host-CPU
//! parameter updates and RAID0 SSDs — plus the shared machinery the
//! Smart-Infinity engines in the `smart_infinity` crate build on:
//!
//! * [`MachineConfig`] — the hardware description (GPU, CPU, SSDs/CSDs, PCIe
//!   topology) of a training server, with presets matching the paper's
//!   test-bed (Table II).
//! * [`TimedPlatform`] — the discrete-event scaffold: a [`simkit`]
//!   simulation pre-populated with the PCIe fabric, SSD media links and GPU /
//!   CPU / FPGA compute resources, plus path helpers so engines can express
//!   "offload this block's gradients to SSD 3" as one call.
//! * [`schedule`] — the shared iteration task graph
//!   ([`schedule::build_iteration_graph`]) every timed engine runs, plus the
//!   method schedules over it: [`schedule::MethodPolicy`] implements
//!   [`simkit::Scheduler`], choosing gradient-scatter placement and tasklet
//!   synchronisation, and [`schedule::PlatformLowering`] lowers the scheduled
//!   graph onto a [`TimedPlatform`].
//! * [`BaselineEngine`] — the timed model of ZeRO-Infinity + RAID0: forward,
//!   backward + gradient offload, and the CPU update with optimizer-state
//!   upload/offload (paper Fig. 1), expressed as the
//!   [`schedule::HostUpdateScheduler`] policy and producing the per-phase
//!   [`IterationReport`] breakdowns of Fig. 3(a) and Fig. 9.
//! * [`StorageOffloadTrainer`] — a *functional* baseline that actually moves
//!   bytes through [`ssd::RaidArray`] and runs the real optimizer kernels, so
//!   Smart-Infinity's numerical equivalence can be tested end to end.
//! * [`PipelinedTrainer`] — the near-storage functional trainer: each device
//!   shard is a lane (write → compress/update → read-back) dealt to a
//!   [`parcore::ParExecutor`], bit-identical to the baseline for every worker
//!   count and reporting per-stage telemetry.
//! * [`Trainer`] / [`StepReport`] / [`StageReport`] / [`TrainError`] — the
//!   unified training contract every functional substrate implements, so
//!   callers hold a `dyn Trainer` and the `?` operator works across layer
//!   boundaries.
//! * [`realtrain`] — a small, genuinely trained MLP classifier on synthetic
//!   data, used to reproduce the accuracy side of the paper's fine-tuning
//!   study (Table IV, Fig. 16).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod checkpoint;
mod functional;
mod machine;
mod pipeline;
mod platform;
pub mod realtrain;
mod recover;
mod report;
pub mod schedule;
mod trainer;

pub use baseline::BaselineEngine;
pub use checkpoint::TrainerCheckpoint;
pub use functional::{GradientSource, StorageOffloadTrainer, SyntheticGradients};
pub use machine::MachineConfig;
pub use pipeline::{init_csd_shards, PipelinedTrainer};
pub use platform::TimedPlatform;
pub use report::IterationReport;
pub use trainer::{DegradedReport, StageReport, StepReport, TrainError, Trainer};

#[cfg(test)]
mod tests {
    use super::*;
    use llm::{ModelConfig, Workload};
    use optim::OptimizerKind;

    /// The headline motivation result (Fig. 3a): with a single SSD, the update
    /// phase (including optimizer-state upload/offload) dominates the
    /// iteration, taking well over half of the total time.
    #[test]
    fn update_phase_dominates_baseline_training() {
        let machine = MachineConfig::baseline_raid0(1);
        let workload = Workload::paper_default(ModelConfig::gpt2_2_5b());
        let report = BaselineEngine::new(machine, workload, OptimizerKind::Adam)
            .simulate_iteration()
            .unwrap();
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
        let workload = Workload::paper_default(ModelConfig::gpt2_4b());
        let time = |n: usize| {
            BaselineEngine::new(
                MachineConfig::baseline_raid0(n),
                workload.clone(),
                OptimizerKind::Adam,
            )
            .simulate_iteration()
            .unwrap()
            .total_s()
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
