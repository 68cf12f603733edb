//! # ztrain — storage-offloaded LLM training substrate
//!
//! This crate implements the storage-offloaded trainer — with the update on
//! the host CPU over RAID0 SSDs, the ZeRO-Infinity-style *baseline* the
//! paper compares against, or inside each CSD — plus the shared machinery
//! the timed engine and the session front door in the `smart_infinity`
//! crate build on:
//!
//! * [`MachineConfig`] — the hardware description (GPU, CPU, SSDs/CSDs, PCIe
//!   topology) of a training server, with presets matching the paper's
//!   test-bed (Table II).
//! * [`TimedPlatform`] — the discrete-event scaffold: a [`simkit`]
//!   simulation pre-populated with the PCIe fabric, SSD media links and GPU /
//!   CPU / FPGA compute resources, plus path helpers so engines can express
//!   "offload this block's gradients to SSD 3" as one call.
//! * [`schedule`] — the shared iteration task graph
//!   ([`schedule::build_iteration_graph`]) every method runs, plus the
//!   method schedules over it: [`schedule::MethodPolicy`] implements
//!   [`simkit::Scheduler`], choosing gradient-scatter placement and tasklet
//!   synchronisation, and [`schedule::PlatformLowering`] lowers the scheduled
//!   graph onto a [`TimedPlatform`]. The timed model of ZeRO-Infinity + RAID0
//!   (paper Fig. 1: forward, backward + gradient offload, and the CPU update
//!   with optimizer-state upload/offload) is the host-update graph under
//!   [`schedule::HostUpdateScheduler`]; `smart_infinity::Session::simulate_iteration`
//!   runs it, like every other method, into the per-phase
//!   [`IterationReport`] breakdowns of Fig. 3(a) and Fig. 9.
//! * [`PipelinedTrainer`] — the *functional* trainer, which actually moves
//!   and counts bytes and runs the real optimizer kernels, so
//!   Smart-Infinity's numerical equivalence can be tested end to end. It
//!   holds a list of lanes behind one crate-private interface (step, state
//!   I/O, faults) dealt to a [`parcore::ParExecutor`], and where the update
//!   runs is only its constructor's choice of lanes:
//!   [`PipelinedTrainer::host_update`] builds one lane whose blocks the host
//!   CPU steps where the members of an [`ssd::RaidArray`] hold them (one
//!   [`ssd::RaidUpdateTxn`] per block); [`PipelinedTrainer::new`] one lane
//!   per CSD shard (write → compress/update → read-back), bit-identical to
//!   the host lane for every worker count and reporting per-stage
//!   telemetry.
//! * [`StepPlan`] — how one step cuts the parameters into lanes and update
//!   units, for the functional trainer and the timed graph alike.
//! * [`Trainer`] / [`StepReport`] / [`StageReport`] / [`LayerTimes`] /
//!   [`TrainError`] — the unified training contract, so callers hold a
//!   `dyn Trainer` and the `?` operator works across layer boundaries.
//! * [`realtrain`] — a small, genuinely trained MLP classifier on synthetic
//!   data, used to reproduce the accuracy side of the paper's fine-tuning
//!   study (Table IV, Fig. 16).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod functional;
mod lane;
mod machine;
mod pipeline;
mod plan;
mod platform;
pub mod realtrain;
mod recover;
mod report;
pub mod schedule;
mod trainer;

pub use checkpoint::TrainerCheckpoint;
pub use functional::{GradientSource, SyntheticGradients};
pub use machine::MachineConfig;
pub use pipeline::{init_csd_shards, PipelinedTrainer};
pub use plan::StepPlan;
pub use platform::TimedPlatform;
pub use report::IterationReport;
pub use trainer::{DegradedReport, LayerTimes, StageReport, StepReport, TrainError, Trainer};
