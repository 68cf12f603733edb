//! The Smart-Infinity method schedules.
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
//! only the session's handler override reaches. The `lab` experiment
//! `specs/experiments/sched` runs the four ladder rows as method variants,
//! one per scheduler name.

use crate::engine_timed::SmartInfinityEngine;
use crate::HandlerMode;
use simkit::Scheduler;
use ztrain::schedule::{ChainSync, IterLayout, MethodPolicy, OffloadRouting};

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
