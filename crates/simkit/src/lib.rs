//! # simkit — discrete-event simulation kernel for Smart-Infinity
//!
//! This crate provides the virtual-time execution substrate used by every
//! performance model in the workspace. It knows nothing about PCIe, SSDs or
//! LLM training; it only understands three primitives:
//!
//! * **Links** — capacities (bytes/second) that are *shared* among the flows
//!   crossing them. Bandwidth is divided with max-min fairness (progressive
//!   filling), recomputed at every flow arrival and completion and only then,
//!   for the connected component of links the flow touched — links joined by
//!   a shared active flow; every other flow keeps its rate. The order of the
//!   floating-point operations (bottleneck by smallest share, lowest link
//!   index on a tie; every active task advanced on every event) is part of
//!   the contract: timelines are reproducible to the bit.
//! * **Resources** — serial processing units (a CPU core doing AVX updates, a
//!   GPU running a forward pass, an FPGA updater kernel). Tasks queue FIFO and
//!   the head of the queue proceeds at the resource's configured rate.
//! * **Tasks** — nodes of a dependency DAG. A task may be a flow over a path
//!   of links ([`FlowSpec`]), a compute on a resource ([`ComputeSpec`]), a
//!   fixed delay ([`DelaySpec`]), or a zero-duration
//!   [barrier](Simulation::barrier). Every dependency names a task added
//!   before, so a simulation is acyclic by construction. The specs borrow
//!   their path and dependency slices; [`Simulation`] copies them into two
//!   arenas it owns, so a task holds no heap memory of its own.
//!
//! Engines in `ztrain` / `smart_infinity` build a task DAG for one (or more)
//! training iterations, run it, and read the resulting [`Timeline`]: per-task
//! start/finish times, the makespan, and per-phase busy time.
//!
//! On top of the flat substrate sits a scheduling layer: a [`Dag`] of typed
//! work items connected by data items, each edge to a lower id, and an
//! object-safe [`Scheduler`] trait that answers each task with one
//! placement + ordering decision. [`execute`] asks every task for its
//! decision once to count what the decisions lower to, reserves exactly
//! that (so no arena regrows while a simulation is built), and then lowers
//! the tasks through a [`Lowering`] in one pass in ascending id order; that
//! order fixes every simulation task id. The four Smart-Infinity method
//! schedules are `Scheduler` implementations over one shared iteration DAG;
//! see the `ztrain` and `smart_infinity` crates. [`Resource`] describes a
//! site (cores, speed, memory, speedup-vs-cores) for a scheduler that reads
//! it. DAG tasks and data items carry no names: error messages print their
//! indices.
//!
//! # Example
//!
//! ```
//! use simkit::{Simulation, FlowSpec, ComputeSpec};
//!
//! # fn main() -> Result<(), simkit::SimError> {
//! let mut sim = Simulation::new();
//! let pcie = sim.add_link(16e9);
//! let gpu = sim.add_resource(100e12);
//! let fw = sim.add_phase();
//!
//! // Load 2 GB of parameters over PCIe, then run 10 TFLOP of forward compute.
//! let load = sim.flow(FlowSpec::new(vec![pcie], 2e9).phase(fw));
//! let compute = sim.compute(ComputeSpec::new(gpu, 10e12).phase(fw).after(&[load]));
//! let timeline = sim.run()?;
//! assert!(timeline.finish_time(compute) > timeline.finish_time(load));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dag;
mod engine;
mod error;
mod resource;
mod scheduler;
mod task;
mod timeline;

pub use dag::{Dag, DagTask, DagTaskId, DagWork, DataId, DataItem, SITE_STORAGE};
pub use engine::Simulation;
pub use error::SimError;
pub use resource::{Resource, SpeedupCurve};
pub use scheduler::{
    execute, Anchor, DirectLowering, Lowering, ScatterPlan, ScheduleDecision, ScheduleOutcome,
    Scheduler, SetupDelay, SystemView,
};
pub use task::{ComputeSpec, DelaySpec, FlowSpec, LinkId, PhaseId, ResourceId, TaskId};
pub use timeline::{FaultAnnotation, TaskRecord, Timeline};

/// Convenience constant: one gigabyte (decimal, as used for bandwidths) in bytes.
pub const GB: f64 = 1e9;
/// Convenience constant: one megabyte (decimal) in bytes.
pub const MB: f64 = 1e6;

/// Floating point tolerance used when comparing simulated times.
pub(crate) const TIME_EPS: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flow_takes_bytes_over_bandwidth() {
        let mut sim = Simulation::new();
        let link = sim.add_link(10.0);
        let t = sim.flow(FlowSpec::new(vec![link], 100.0));
        let tl = sim.run().unwrap();
        assert!((tl.finish_time(t) - 10.0).abs() < 1e-9);
        assert!((tl.makespan() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn two_flows_share_a_link_fairly() {
        let mut sim = Simulation::new();
        let link = sim.add_link(10.0);
        let a = sim.flow(FlowSpec::new(vec![link], 100.0));
        let b = sim.flow(FlowSpec::new(vec![link], 100.0));
        let tl = sim.run().unwrap();
        // Each gets 5 B/s while both are active -> both finish at t=20.
        assert!((tl.finish_time(a) - 20.0).abs() < 1e-9);
        assert!((tl.finish_time(b) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn shorter_flow_frees_bandwidth_for_the_longer_one() {
        let mut sim = Simulation::new();
        let link = sim.add_link(10.0);
        let short = sim.flow(FlowSpec::new(vec![link], 50.0));
        let long = sim.flow(FlowSpec::new(vec![link], 150.0));
        let tl = sim.run().unwrap();
        // Phase 1: both share 5 B/s. Short (50 B) finishes at t=10, long has 100 B left.
        // Phase 2: long gets full 10 B/s, finishes 10 s later at t=20.
        assert!((tl.finish_time(short) - 10.0).abs() < 1e-9);
        assert!((tl.finish_time(long) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn compute_tasks_are_serialized_fifo() {
        let mut sim = Simulation::new();
        let cpu = sim.add_resource(10.0);
        let a = sim.compute(ComputeSpec::new(cpu, 100.0));
        let b = sim.compute(ComputeSpec::new(cpu, 50.0));
        let tl = sim.run().unwrap();
        assert!((tl.finish_time(a) - 10.0).abs() < 1e-9);
        assert!((tl.finish_time(b) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn dependencies_are_respected() {
        let mut sim = Simulation::new();
        let link = sim.add_link(10.0);
        let cpu = sim.add_resource(10.0);
        let a = sim.flow(FlowSpec::new(vec![link], 100.0));
        let b = sim.compute(ComputeSpec::new(cpu, 100.0).after(&[a]));
        let c = sim.flow(FlowSpec::new(vec![link], 100.0).after(&[b]));
        let tl = sim.run().unwrap();
        assert!((tl.records()[b].start - 10.0).abs() < 1e-9);
        assert!((tl.records()[c].start - 20.0).abs() < 1e-9);
        assert!((tl.makespan() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn delay_and_barrier() {
        let mut sim = Simulation::new();
        let d = sim.delay(DelaySpec::new(2.5));
        let b = sim.barrier(&[d]);
        let tl = sim.run().unwrap();
        assert!((tl.finish_time(b) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn phase_breakdown_accumulates_busy_time() {
        let mut sim = Simulation::new();
        let link = sim.add_link(10.0);
        let fw = sim.add_phase();
        let bw = sim.add_phase();
        let a = sim.flow(FlowSpec::new(vec![link], 100.0).phase(fw));
        let _b = sim.flow(FlowSpec::new(vec![link], 100.0).phase(bw).after(&[a]));
        let tl = sim.run().unwrap();
        assert!((tl.phase_busy_time_before(fw, f64::INFINITY) - 10.0).abs() < 1e-9);
        assert!((tl.phase_busy_time_before(bw, f64::INFINITY) - 10.0).abs() < 1e-9);
    }
}
