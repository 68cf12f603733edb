//! The Smart-Infinity method schedules, plus the scheduler comparison
//! harness behind `figures -- sched`.
//!
//! Every method executes the *same* iteration graph
//! ([`ztrain::schedule::build_iteration_graph`]); what the paper's ladder
//! varies is the schedule. Each rung is a [`MethodPolicy`] with the
//! routing/synchronisation pair that method uses:
//!
//! | scheduler         | method | routing      | tasklet chain |
//! |-------------------|--------|--------------|---------------|
//! | `host-update`     | BASE   | striped      | — (host CPU)  |
//! | `serial-naive`    | SU     | striped      | sequential    |
//! | `serial-overlap`  | SU+O   | striped      | overlapped    |
//! | `pipelined`       | SU+O+P | owner-routed | overlapped    |
//! | `pipelined-naive` | —      | owner-routed | sequential    |
//!
//! `host-update` is [`ztrain::schedule::HostUpdateScheduler`]; the in-storage
//! rows are [`method_scheduler`]'s table. `pipelined-naive` is the ablation
//! only the session's handler override reaches.

use crate::engine_timed::SmartInfinityEngine;
use crate::spec::{CompressionSpec, MethodSpec, RunSpec};
use crate::HandlerMode;
use serde::Serialize;
use simkit::Scheduler;
use ztrain::schedule::{ChainSync, IterLayout, MethodPolicy, OffloadRouting};
use ztrain::{IterationReport, TrainError};

/// The scheduler of an in-storage method, from its `(handler, pipelined)`
/// axes. The handler picks the tasklet chain synchronisation: the naive one
/// allocates fresh buffers per tasklet and pays a fixed overhead for each
/// (20 ms), the optimized one reuses them. Pipelining picks the gradient routing: owner-routed, so each
/// device's update chain starts as soon as *its own* shard gradients have
/// landed, instead of striped behind the end-of-backward barrier.
pub fn method_scheduler<'a>(
    handler: HandlerMode,
    pipelined: bool,
    layout: &'a IterLayout,
) -> Box<dyn Scheduler + 'a> {
    use ChainSync::Overlapped;
    use OffloadRouting::{OwnerRouted, Striped};
    let sequential =
        ChainSync::Sequential { setup_s: SmartInfinityEngine::NAIVE_TASKLET_OVERHEAD_S };
    let (routing, chain, name) = match (handler, pipelined) {
        (HandlerMode::Naive, false) => (Striped, sequential, "serial-naive"),
        (HandlerMode::Optimized, false) => (Striped, Overlapped, "serial-overlap"),
        (HandlerMode::Optimized, true) => (OwnerRouted, Overlapped, "pipelined"),
        (HandlerMode::Naive, true) => (OwnerRouted, sequential, "pipelined-naive"),
    };
    Box::new(MethodPolicy::in_storage(layout, routing, chain, name))
}

/// One row of a scheduler comparison: a scheduler's name, the method axes it
/// corresponds to, and the per-phase breakdown it produced.
#[derive(Debug, Clone, Serialize)]
pub struct SchedulerRun {
    /// Scheduler name (`host-update`, `serial-naive`, ...).
    pub scheduler: &'static str,
    /// The ladder label of the corresponding method axes.
    pub method: String,
    /// Per-phase timing under this scheduler.
    pub report: IterationReport,
}

/// Runs one spec's model/machine/workload under *every* method scheduler and
/// returns the per-phase comparison (the `figures -- sched` table).
///
/// The spec's method axes are replaced row by row — `host-update` runs the
/// plain-SSD baseline machine resolution, the smart rows keep the spec's
/// compression setting — while model, machine, workload, optimizer, subgroup
/// capacity and fault plan are carried through unchanged. A handler override
/// in the spec is dropped: each scheduler *is* a handler choice.
///
/// # Errors
///
/// Returns [`TrainError::Config`] if the carried-through knobs do not
/// validate for some rung (e.g. a cluster machine, which requires the
/// in-storage update path and so cannot run `host-update`).
pub fn compare_schedulers(spec: &RunSpec) -> Result<Vec<SchedulerRun>, TrainError> {
    let rungs = rungs(spec.method.keep_ratio());
    let mut rows = Vec::with_capacity(rungs.len());
    for (scheduler, method) in rungs {
        let mut run = spec.clone();
        run.method = method;
        run.handler = None;
        let report = run.session()?.simulate_iteration()?;
        rows.push(SchedulerRun { scheduler, method: method.to_string(), report });
    }
    Ok(rows)
}

/// The comparison's rows: each scheduler's name beside the method that gets
/// it, with the spec's compression carried onto the in-storage rungs.
fn rungs(keep: Option<f64>) -> [(&'static str, MethodSpec); 4] {
    let compression = keep.map(CompressionSpec::top_k);
    [
        ("host-update", MethodSpec::baseline()),
        ("serial-naive", MethodSpec { compression, ..MethodSpec::smart_update() }),
        ("serial-overlap", MethodSpec { compression, ..MethodSpec::smart_update_optimized() }),
        ("pipelined", MethodSpec { compression, ..MethodSpec::pipelined(None) }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{MachineSpec, ModelSpec};

    /// The names `compare_schedulers` prints are the names of the schedulers
    /// the engine gives those methods — one table, no drift.
    #[test]
    fn scheduler_names_cover_the_ladder() {
        use ztrain::schedule::{
            build_iteration_graph, GraphKnobs, HostUpdateScheduler, IterPhases, SiteMap,
        };
        let spec = RunSpec::new(
            ModelSpec::preset("GPT2-0.34B"),
            MachineSpec::devices(2),
            MethodSpec::smart_update_optimized(),
        );
        let session = spec.session().unwrap();
        let mut plat = ztrain::TimedPlatform::new(session.machine());
        let phases = IterPhases {
            forward: plat.add_phase("fw"),
            backward: plat.add_phase("bw"),
            update: plat.add_phase("up"),
        };
        let sites = SiteMap::new(plat.num_gpus(), plat.num_devices());
        let graph = |knobs: GraphKnobs| {
            let optimizer = optim::OptimizerKind::Adam;
            build_iteration_graph(session.workload(), sites, optimizer, &knobs, phases)
        };
        let host = graph(GraphKnobs::host_update());
        let smart = graph(GraphKnobs::in_storage(None, 100_000_000));
        let name_of = |method: &MethodSpec| {
            if method.uses_csds() {
                method_scheduler(method.implied_handler(), method.pipelined, &smart.layout).name()
            } else {
                HostUpdateScheduler::new(&host.layout).name()
            }
        };
        let rows = compare_schedulers(&spec).unwrap();
        for (row, (scheduler, method)) in rows.iter().zip(rungs(None)) {
            assert_eq!(row.scheduler, scheduler);
            assert_eq!(row.scheduler, name_of(&method), "{method}");
            assert_eq!(row.method, method.to_string());
        }
        // The fourth (handler, pipelined) pair is no rung of the ladder: only
        // the handler override reaches it.
        let ablation = method_scheduler(HandlerMode::Naive, true, &smart.layout);
        assert_eq!(ablation.name(), "pipelined-naive");
    }

    #[test]
    fn comparison_orders_the_ladder() {
        let spec = RunSpec::new(
            ModelSpec::preset("GPT2-4.0B"),
            MachineSpec::devices(4),
            MethodSpec::smart_update_optimized(),
        );
        let rows = compare_schedulers(&spec).unwrap();
        assert_eq!(rows.len(), 4);
        let by_name: std::collections::HashMap<&str, f64> =
            rows.iter().map(|r| (r.scheduler, r.report.total_s())).collect();
        // The naive handler's per-tasklet overhead erases the in-storage gain
        // (paper Fig. 12) — it loses even to the host-update baseline.
        assert!(by_name["serial-naive"] > by_name["host-update"]);
        // From there each optimisation rung is at least as fast as the last,
        // and the full method beats the baseline at this scale.
        assert!(by_name["serial-overlap"] <= by_name["serial-naive"] * 1.001);
        assert!(by_name["pipelined"] <= by_name["serial-overlap"] * 1.001);
        assert!(by_name["pipelined"] < by_name["host-update"]);
    }
}
