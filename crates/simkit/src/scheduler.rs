//! Pluggable scheduling: an object-safe [`Scheduler`] trait over a [`Dag`],
//! plus the deterministic executor that lowers its decisions onto the flat
//! [`Simulation`] substrate.
//!
//! The division of labour:
//!
//! - The **[`Dag`]** holds the policy-invariant structure: tasks, hard data
//!   edges, after-edges, and soft (policy-realised) dataflow.
//! - The **[`Scheduler`]** is called back as tasks become ready (and, when it
//!   defers work, as resources free up) and answers by handing [`Decision`]s
//!   to the executor, which applies each at once:
//!   which task to schedule, which extra synchronisation [`Anchor`]s to wait
//!   on, how to scatter storage-class transfers across concrete devices
//!   ([`ScatterPlan`]), and any setup latency to charge first
//!   ([`SetupDelay`]).
//! - The **[`Lowering`]** translates each scheduled DAG task into concrete
//!   flow/compute/delay/barrier tasks on a [`Simulation`] (or any richer
//!   platform wrapper around one), so `Timeline`, link occupancy and phase
//!   accounting keep working unchanged.
//!
//! [`execute`] drives the three together deterministically: tasks are
//! offered to the scheduler in ascending id order among ready tasks, and
//! decisions are lowered in the order the scheduler emits them. Two runs
//! over the same graph with the same scheduler therefore produce the same
//! simulation, task id for task id.

use std::borrow::Cow;

use crate::dag::{Dag, DagTaskId, DagWork, Structure, SITE_STORAGE};
use crate::engine::Simulation;
use crate::error::SimError;
use crate::resource::Resource;
use crate::task::{
    narrow, ComputeSpec, DelaySpec, FlowSpec, LinkId, PhaseId, ResourceId, Span, TaskId,
};

/// A synchronisation point a scheduling decision can wait on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anchor {
    /// The main lowered task of a DAG task (its barrier when it lowered to a
    /// joined scatter, otherwise the task itself).
    Task(DagTaskId),
    /// A per-site sub-result of a DAG task — e.g. the write flow a scatter
    /// issued towards one particular device.
    TaskAtSite(DagTaskId, usize),
}

/// Placement of a storage-class transfer onto concrete sites.
///
/// Each entry issues one flow of `bytes` towards (or from) `site`. With
/// `join` set, a barrier over all flows becomes the lowered task's main
/// result; without it, the flows complete independently and downstream
/// decisions synchronise on individual sites via [`Anchor::TaskAtSite`], so
/// a plan names each site at most once ([`execute`] rejects a repeat).
///
/// The transfers may be borrowed from anything that outlives the callback
/// (a layout's precomputed placements), so a decision need copy nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct ScatterPlan<'a> {
    /// `(site, bytes)` pairs, one flow each, issued in order.
    pub transfers: Cow<'a, [(usize, f64)]>,
    /// Whether to join the flows behind a barrier.
    pub join: bool,
}

/// A fixed latency charged immediately before a task starts — e.g. a
/// software handler's buffer-allocation overhead.
#[derive(Debug, Clone, PartialEq)]
pub struct SetupDelay<'a> {
    /// Duration in seconds.
    pub seconds: f64,
    /// What the setup itself waits on.
    pub after: Cow<'a, [Anchor]>,
}

/// A fully specified placement + ordering choice for one DAG task. Its
/// anchors and placement may borrow from the scheduler: the executor is
/// done with a decision when the call that handed it over returns.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleDecision<'a> {
    /// The task being scheduled.
    pub task: DagTaskId,
    /// Extra synchronisation beyond the task's structural edges, resolved in
    /// order and appended after the structural dependencies.
    pub after: Cow<'a, [Anchor]>,
    /// Placement for storage-class transfers; `None` for everything else.
    pub scatter: Option<ScatterPlan<'a>>,
    /// Setup latency charged before the task.
    pub setup: Option<SetupDelay<'a>>,
}

impl<'a> ScheduleDecision<'a> {
    /// Schedules `task` with structural dependencies only.
    pub fn new(task: DagTaskId) -> Self {
        Self { task, after: Cow::Borrowed(&[]), scatter: None, setup: None }
    }

    /// Appends a synchronisation anchor.
    pub fn after(mut self, anchor: Anchor) -> Self {
        self.after.to_mut().push(anchor);
        self
    }

    /// Appends several synchronisation anchors.
    pub fn after_all(mut self, anchors: impl IntoIterator<Item = Anchor>) -> Self {
        self.after.to_mut().extend(anchors);
        self
    }

    /// Sets the scatter placement.
    pub fn scatter(mut self, plan: ScatterPlan<'a>) -> Self {
        self.scatter = Some(plan);
        self
    }

    /// Sets the setup delay.
    pub fn setup(mut self, delay: SetupDelay<'a>) -> Self {
        self.setup = Some(delay);
        self
    }
}

/// What a scheduler answers when called back.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision<'a> {
    /// Lower this task now, with the given placement and ordering.
    Schedule(ScheduleDecision<'a>),
    /// Hold this task back; the scheduler will be re-consulted via
    /// [`Scheduler::on_resource_free`] once scheduling stalls.
    Defer(DagTaskId),
}

/// Read-only view of the platform handed to scheduler callbacks.
pub struct SystemView<'a> {
    resources: &'a [Resource],
}

impl SystemView<'_> {
    /// The resource descriptions the executor was given.
    pub fn resources(&self) -> &[Resource] {
        self.resources
    }
}

/// A scheduling policy over a [`Dag`]. Object-safe: engines select one at
/// run time from method axes and pass it as `&mut dyn Scheduler`.
///
/// Callbacks answer by handing [`Decision`]s to `out`, which applies each
/// before it returns, in the order they are handed over. A decision may so
/// borrow from the scheduler itself — a reused anchor buffer, the layout
/// the policy was built over — and the callback allocates nothing.
pub trait Scheduler {
    /// Short policy name, used in reports and comparison tables.
    fn name(&self) -> &'static str;

    /// Called once per task when its structural predecessors are all
    /// scheduled. May answer with decisions for this task, for other ready
    /// tasks, or defer; pushing nothing holds the task until it is offered
    /// again.
    fn on_task_ready(
        &mut self,
        task: DagTaskId,
        dag: &Dag,
        system: &SystemView<'_>,
        out: &mut dyn FnMut(Decision<'_>),
    );

    /// Called for each site when scheduling stalls with deferred tasks
    /// outstanding — the hook where a deferring policy releases held work.
    fn on_resource_free(
        &mut self,
        site: usize,
        dag: &Dag,
        system: &SystemView<'_>,
        out: &mut dyn FnMut(Decision<'_>),
    ) {
        let _ = (site, dag, system, out);
    }
}

/// Translates scheduled DAG tasks into concrete simulation tasks.
pub trait Lowering {
    /// Lowers `task` with the given scatter placement and resolved
    /// dependency list, and returns its main task: the one downstream
    /// structural edges attach to. Per-site sub-results (scatter flows, for
    /// [`Anchor::TaskAtSite`]) are appended to `per_site` as `(site, task)`,
    /// an arena the executor owns across every task of the run.
    fn lower(
        &mut self,
        dag: &Dag,
        task: DagTaskId,
        scatter: Option<&ScatterPlan<'_>>,
        deps: &[TaskId],
        per_site: &mut Vec<(usize, TaskId)>,
    ) -> Result<TaskId, SimError>;

    /// Called once before any task is lowered, with about the least the
    /// lowering will add: every DAG task lowers to at least one task, every
    /// structural edge to at least one dependency, and every transfer to a
    /// flow over at least one link. The default ignores it.
    fn reserve(&mut self, tasks: usize, deps: usize, path_links: usize) {
        let _ = (tasks, deps, path_links);
    }

    /// Lowers a setup delay attributed to `phase`.
    fn lower_delay(
        &mut self,
        seconds: f64,
        deps: &[TaskId],
        phase: Option<PhaseId>,
    ) -> Result<TaskId, SimError>;
}

/// The result of [`execute`]: a map from DAG tasks to their lowered
/// simulation tasks.
#[derive(Debug)]
pub struct ScheduleOutcome {
    lowered: Lowered,
}

impl ScheduleOutcome {
    /// The main lowered task of a DAG task.
    pub fn task(&self, id: DagTaskId) -> Option<TaskId> {
        self.lowered.main(id.index())
    }
}

/// What every scheduled DAG task lowered to: its main task and its span of
/// per-site sub-results, all of them in one arena. The main task is stored
/// as the `u32` a simulation's arenas hold it as.
#[derive(Debug, Default)]
struct Lowered {
    /// Per DAG task, `(main, span into per_site)` once it is scheduled.
    tasks: Vec<Option<(u32, Span)>>,
    per_site: Vec<(usize, TaskId)>,
}

impl Lowered {
    /// The main task of DAG task `t`, once scheduled.
    fn main(&self, t: usize) -> Option<TaskId> {
        self.tasks.get(t).copied().flatten().map(|(main, _)| main as TaskId)
    }

    /// The sub-result of DAG task `t` at `site`, if any: `Err` when `t` is
    /// not scheduled yet.
    fn at_site(&self, t: usize, site: usize) -> Result<Option<TaskId>, ()> {
        let Some((_, sites)) = self.tasks.get(t).copied().flatten() else { return Err(()) };
        Ok(sites.of(&self.per_site).iter().find(|(s, _)| *s == site).map(|&(_, t)| t))
    }
}

struct Executor<'a> {
    dag: &'a Dag,
    structure: Structure,
    lowered: Lowered,
    scheduled: Vec<bool>,
    deferred: Vec<bool>,
    /// Dependencies of the decision being applied, reused across decisions.
    deps: Vec<TaskId>,
    /// Scatter sites of the decision being applied, sorted to find repeats.
    scatter_sites: Vec<usize>,
    done: usize,
}

impl<'a> Executor<'a> {
    fn name(&self, task: usize) -> &'a str {
        &self.dag.tasks()[task].name
    }

    fn resolve_anchor(&self, anchor: Anchor) -> Result<TaskId, SimError> {
        let unscheduled = |t: DagTaskId| SimError::InvalidParameter {
            message: format!("anchor references unscheduled dag task {}", t.index()),
        };
        match anchor {
            Anchor::Task(t) => self.lowered.main(t.index()).ok_or_else(|| unscheduled(t)),
            Anchor::TaskAtSite(t, site) => {
                let found = self.lowered.at_site(t.index(), site).map_err(|()| unscheduled(t))?;
                found.ok_or_else(|| SimError::InvalidParameter {
                    message: format!(
                        "dag task {} has no lowered sub-result at site {site}",
                        t.index()
                    ),
                })
            }
        }
    }

    /// Resolves the full dependency list for a decision into `self.deps`:
    /// hard inputs (with per-site refinement), then after-edges, then
    /// decision anchors.
    fn resolve_deps(&mut self, decision: &ScheduleDecision<'_>) -> Result<(), SimError> {
        let idx = decision.task.index();
        let dag = self.dag;
        let task = &dag.tasks()[idx];
        self.deps.clear();
        for &input in dag.inputs(decision.task) {
            let item = dag.data(input).expect("validated id");
            let producer = item.producer.index();
            let main = self.lowered.main(producer).ok_or_else(|| SimError::InvalidParameter {
                message: format!(
                    "dag task {idx} ('{}') scheduled before the producer of its input '{}'",
                    task.name, item.name
                ),
            })?;
            let dep = match item.site {
                Some(site) => self.lowered.at_site(producer, site).ok().flatten().unwrap_or(main),
                None => main,
            };
            self.deps.push(dep);
        }
        for &pred in dag.after(decision.task) {
            let main =
                self.lowered.main(pred.index()).ok_or_else(|| SimError::InvalidParameter {
                    message: format!(
                        "dag task {idx} ('{}') scheduled before its predecessor",
                        task.name
                    ),
                })?;
            self.deps.push(main);
        }
        for &anchor in decision.after.iter() {
            let dep = self.resolve_anchor(anchor)?;
            self.deps.push(dep);
        }
        Ok(())
    }

    /// Rejects a plan that names a site twice: [`Anchor::TaskAtSite`] would
    /// find only the first of its flows.
    fn check_scatter(&mut self, idx: usize, plan: &ScatterPlan<'_>) -> Result<(), SimError> {
        self.scatter_sites.clear();
        self.scatter_sites.extend(plan.transfers.iter().map(|&(site, _)| site));
        self.scatter_sites.sort_unstable();
        match self.scatter_sites.windows(2).find(|w| w[0] == w[1]) {
            None => Ok(()),
            Some(w) => Err(SimError::InvalidParameter {
                message: format!(
                    "scatter plan of dag task {idx} ('{}') names site {} twice",
                    self.name(idx),
                    w[0]
                ),
            }),
        }
    }

    /// Runs one scheduler callback, applying each decision it hands over as
    /// it comes. Whether any task was scheduled; after an error the rest of
    /// the callback's decisions are ignored and the error is returned.
    fn answer(
        &mut self,
        lowering: &mut dyn Lowering,
        callback: impl FnOnce(&mut dyn FnMut(Decision<'_>)),
    ) -> Result<bool, SimError> {
        let mut outcome = Ok(false);
        callback(&mut |decision| {
            if let Ok(progress) = &mut outcome {
                match self.apply(decision, lowering) {
                    Ok(scheduled) => *progress |= scheduled,
                    Err(err) => outcome = Err(err),
                }
            }
        });
        outcome
    }

    /// Applies one decision; whether it scheduled a task.
    fn apply(
        &mut self,
        decision: Decision<'_>,
        lowering: &mut dyn Lowering,
    ) -> Result<bool, SimError> {
        match decision {
            Decision::Defer(t) => {
                if t.index() >= self.dag.len() {
                    return Err(SimError::UnknownId { kind: "dag task", index: t.index() });
                }
                if !self.scheduled[t.index()] {
                    self.deferred[t.index()] = true;
                }
                Ok(false)
            }
            Decision::Schedule(sd) => {
                let idx = sd.task.index();
                if idx >= self.dag.len() {
                    return Err(SimError::UnknownId { kind: "dag task", index: idx });
                }
                if self.scheduled[idx] {
                    return Err(SimError::InvalidParameter {
                        message: format!(
                            "scheduler scheduled dag task {idx} ('{}') twice",
                            self.name(idx)
                        ),
                    });
                }
                if !self.structure.is_ready(idx) {
                    return Err(SimError::InvalidParameter {
                        message: format!(
                            "scheduler scheduled dag task {idx} ('{}') before its \
                             structural predecessors",
                            self.name(idx)
                        ),
                    });
                }
                if let Some(plan) = &sd.scatter {
                    self.check_scatter(idx, plan)?;
                }
                self.resolve_deps(&sd)?;
                if let Some(setup) = &sd.setup {
                    // The setup's anchors resolve behind the task's
                    // deps; the delay then takes their place.
                    let mark = self.deps.len();
                    for &anchor in setup.after.iter() {
                        let dep = self.resolve_anchor(anchor)?;
                        self.deps.push(dep);
                    }
                    let phase = self.dag.tasks()[idx].phase;
                    let delay = lowering.lower_delay(setup.seconds, &self.deps[mark..], phase)?;
                    self.deps.truncate(mark);
                    self.deps.push(delay);
                }
                let per_site = &mut self.lowered.per_site;
                let start = per_site.len();
                let main =
                    lowering.lower(self.dag, sd.task, sd.scatter.as_ref(), &self.deps, per_site)?;
                let sites = Span::since(start, per_site)?;
                self.lowered.tasks[idx] = Some((narrow(main, "tasks")?, sites));
                self.scheduled[idx] = true;
                self.deferred[idx] = false;
                self.structure.release(idx);
                self.done += 1;
                Ok(true)
            }
        }
    }
}

/// Every concrete site the graph's work names, ascending: the sites a stall
/// offers to [`Scheduler::on_resource_free`].
fn stall_sites(dag: &Dag) -> Vec<usize> {
    let mut sites = Vec::new();
    for task in dag.tasks() {
        match task.work {
            DagWork::Compute { site, .. } => sites.push(site),
            DagWork::Transfer { from, to, .. } => sites.extend([from, to]),
            DagWork::Delay { .. } | DagWork::Join => {}
        }
    }
    sites.retain(|&s| s != SITE_STORAGE);
    sites.sort_unstable();
    sites.dedup();
    sites
}

/// Runs `scheduler` over `dag`, lowering its decisions through `lowering`.
///
/// Ready tasks are offered to the scheduler in ascending id order, and a
/// task readied by a decision earlier in the same sweep is offered in that
/// sweep when its id is higher; when a sweep makes no progress and tasks
/// remain, each site is offered via [`Scheduler::on_resource_free`] before
/// the executor gives up with [`SimError::SchedulerStalled`]. This order is
/// part of the contract: it fixes the order of the [`Lowering`] calls and so
/// the id of every simulation task.
///
/// A [`ScatterPlan`] that names a site twice is rejected with
/// [`SimError::InvalidParameter`] before anything of its task is lowered.
pub fn execute(
    dag: &Dag,
    resources: &[Resource],
    scheduler: &mut dyn Scheduler,
    lowering: &mut dyn Lowering,
) -> Result<ScheduleOutcome, SimError> {
    let structure = dag.structure()?;
    let n = dag.len();
    let transfers = dag.tasks().iter().filter(|t| matches!(t.work, DagWork::Transfer { .. }));
    lowering.reserve(n, structure.edges(), transfers.count());
    let mut exec = Executor {
        dag,
        structure,
        lowered: Lowered { tasks: vec![None; n], per_site: Vec::new() },
        scheduled: vec![false; n],
        deferred: vec![false; n],
        deps: Vec::new(),
        scatter_sites: Vec::new(),
        done: 0,
    };
    let mut sites: Option<Vec<usize>> = None;
    let view = SystemView { resources };

    while exec.done < n {
        let mut progress = false;
        for t in 0..n {
            if exec.scheduled[t] || exec.deferred[t] || !exec.structure.is_ready(t) {
                continue;
            }
            progress |= exec
                .answer(lowering, |out| scheduler.on_task_ready(DagTaskId(t), dag, &view, out))?;
        }
        if exec.done == n || progress {
            continue;
        }
        // Stalled: sweep resource-free callbacks to release deferred work.
        let mut freed = false;
        for &site in sites.get_or_insert_with(|| stall_sites(dag)).iter() {
            freed |=
                exec.answer(lowering, |out| scheduler.on_resource_free(site, dag, &view, out))?;
        }
        if !freed {
            let pending: Vec<usize> = (0..n).filter(|&t| !exec.scheduled[t]).collect();
            return Err(SimError::SchedulerStalled { pending_tasks: pending });
        }
    }
    Ok(ScheduleOutcome { lowered: exec.lowered })
}

/// A direct lowering onto a plain [`Simulation`]: sites index straight into
/// registered compute resources and transfers ride per-route link paths.
///
/// Suited to synthetic graphs and flat topologies; richer platforms (media
/// links, fault annotations) implement [`Lowering`] themselves.
pub struct DirectLowering<'a> {
    sim: &'a mut Simulation,
    compute: Vec<Option<ResourceId>>,
    routes: Vec<((usize, usize), Vec<LinkId>)>,
}

impl<'a> DirectLowering<'a> {
    /// Wraps a simulation with empty site and route maps.
    pub fn new(sim: &'a mut Simulation) -> Self {
        Self { sim, compute: Vec::new(), routes: Vec::new() }
    }

    /// Maps a site index to a compute resource.
    pub fn map_site(&mut self, site: usize, resource: ResourceId) {
        if self.compute.len() <= site {
            self.compute.resize(site + 1, None);
        }
        self.compute[site] = Some(resource);
    }

    /// Maps a directed route between two sites to a link path.
    pub fn map_route(&mut self, from: usize, to: usize, path: Vec<LinkId>) {
        self.routes.push(((from, to), path));
    }

    fn route(&self, from: usize, to: usize) -> Result<Vec<LinkId>, SimError> {
        self.routes
            .iter()
            .find(|((f, t), _)| *f == from && *t == to)
            .map(|(_, p)| p.clone())
            .ok_or_else(|| SimError::InvalidParameter {
                message: format!("no route mapped from site {from} to site {to}"),
            })
    }

    fn site_resource(&self, site: usize) -> Result<ResourceId, SimError> {
        self.compute
            .get(site)
            .copied()
            .flatten()
            .ok_or(SimError::UnknownId { kind: "site", index: site })
    }
}

impl Lowering for DirectLowering<'_> {
    fn lower(
        &mut self,
        dag: &Dag,
        task: DagTaskId,
        scatter: Option<&ScatterPlan<'_>>,
        deps: &[TaskId],
        per_site: &mut Vec<(usize, TaskId)>,
    ) -> Result<TaskId, SimError> {
        let node =
            dag.task(task).ok_or(SimError::UnknownId { kind: "dag task", index: task.index() })?;
        match node.work {
            DagWork::Join => Ok(self.sim.barrier(deps)),
            DagWork::Delay { seconds } => {
                let mut spec = DelaySpec::new(seconds).after(deps).label(node.name.clone());
                if let Some(p) = node.phase {
                    spec = spec.phase(p);
                }
                Ok(self.sim.delay(spec))
            }
            DagWork::Compute { site, amount } => {
                let resource = self.site_resource(site)?;
                let mut spec =
                    ComputeSpec::new(resource, amount).after(deps).label(node.name.clone());
                if let Some(p) = node.phase {
                    spec = spec.phase(p);
                }
                Ok(self.sim.compute(spec))
            }
            DagWork::Transfer { from, to, bytes } => match scatter {
                None => {
                    if from == SITE_STORAGE || to == SITE_STORAGE {
                        return Err(SimError::InvalidParameter {
                            message: format!(
                                "storage-class transfer dag task {} ('{}') requires a scatter plan",
                                task.index(),
                                node.name
                            ),
                        });
                    }
                    let path = self.route(from, to)?;
                    let mut spec = FlowSpec::new(path, bytes).after(deps).label(node.name.clone());
                    if let Some(p) = node.phase {
                        spec = spec.phase(p);
                    }
                    Ok(self.sim.flow(spec))
                }
                Some(plan) => {
                    let mut flows = Vec::new();
                    for &(site, part_bytes) in plan.transfers.iter() {
                        let path = if to == SITE_STORAGE {
                            self.route(from, site)?
                        } else {
                            self.route(site, to)?
                        };
                        let mut spec = FlowSpec::new(path, part_bytes)
                            .after(deps)
                            .label(format!("{}@{site}", node.name));
                        if let Some(p) = node.phase {
                            spec = spec.phase(p);
                        }
                        let flow = self.sim.flow(spec);
                        per_site.push((site, flow));
                        flows.push(flow);
                    }
                    let main = if flows.is_empty() {
                        self.sim.barrier(deps)
                    } else if plan.join {
                        self.sim.barrier(&flows)
                    } else {
                        *flows.last().expect("non-empty")
                    };
                    Ok(main)
                }
            },
        }
    }

    fn reserve(&mut self, tasks: usize, deps: usize, path_links: usize) {
        self.sim.reserve(tasks, deps, path_links);
    }

    fn lower_delay(
        &mut self,
        seconds: f64,
        deps: &[TaskId],
        phase: Option<PhaseId>,
    ) -> Result<TaskId, SimError> {
        let mut spec = DelaySpec::new(seconds).after(deps).label("setup");
        if let Some(p) = phase {
            spec = spec.phase(p);
        }
        Ok(self.sim.delay(spec))
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DataId;

    /// Schedules every task the moment it is offered, realising soft inputs
    /// as dependencies on their producers' main results. Storage-class
    /// transfers are not placed (no scatter plan).
    #[derive(Default)]
    struct FifoScheduler {
        scheduled: Vec<bool>,
    }

    impl Scheduler for FifoScheduler {
        fn name(&self) -> &'static str {
            "fifo"
        }

        fn on_task_ready(
            &mut self,
            task: DagTaskId,
            dag: &Dag,
            _system: &SystemView<'_>,
            out: &mut dyn FnMut(Decision<'_>),
        ) {
            self.scheduled.resize(dag.len(), false);
            let soft = dag.soft_inputs(task);
            let producer = |d: &DataId| dag.data(*d).expect("connected items exist").producer;
            if !soft.iter().all(|d| self.scheduled[producer(d).index()]) {
                // Wait until the producers of soft inputs are scheduled too.
                return;
            }
            self.scheduled[task.index()] = true;
            let anchors = soft.iter().map(|d| Anchor::Task(producer(d)));
            out(Decision::Schedule(ScheduleDecision::new(task).after_all(anchors)));
        }
    }

    /// The per-site sub-result `site` of DAG task `id`.
    fn at_site(outcome: &ScheduleOutcome, id: DagTaskId, site: usize) -> Option<TaskId> {
        outcome.lowered.at_site(id.index(), site).expect("scheduled")
    }

    /// A two-site test bed: compute resources at sites 0 and 1 plus three
    /// storage device sites (2, 3, 4), each behind its own link.
    fn testbed(sim: &mut Simulation) -> DirectLowering<'_> {
        let r0 = sim.add_resource(2.0);
        let r1 = sim.add_resource(3.0);
        let l01 = sim.add_link(4.0);
        let dev_links: Vec<LinkId> = (0..3).map(|_| sim.add_link(10.0)).collect();
        let mut lowering = DirectLowering::new(sim);
        lowering.map_site(0, r0);
        lowering.map_site(1, r1);
        lowering.map_route(0, 1, vec![l01]);
        lowering.map_route(1, 0, vec![l01]);
        for (d, link) in dev_links.iter().enumerate() {
            lowering.map_route(0, 2 + d, vec![*link]);
            lowering.map_route(2 + d, 0, vec![*link]);
        }
        lowering
    }

    #[test]
    fn chain_dag_matches_golden_timeline() {
        // compute 10 units @ 2/s (5 s) -> transfer 40 B @ 4 B/s (10 s)
        // -> compute 6 units @ 3/s (2 s): finishes at 5, 15, 17.
        let mut dag = Dag::new();
        let a = dag.add_task("a", DagWork::Compute { site: 0, amount: 10.0 });
        let out_a = dag.add_output(a, "a.out", 40.0, Some(0));
        let b = dag.add_task("b", DagWork::Transfer { from: 0, to: 1, bytes: 40.0 });
        dag.connect(b, out_a);
        let out_b = dag.add_output(b, "b.out", 40.0, Some(1));
        let c = dag.add_task("c", DagWork::Compute { site: 1, amount: 6.0 });
        dag.connect(c, out_b);

        let mut sim = Simulation::new();
        let mut lowering = testbed(&mut sim);
        let outcome = execute(&dag, &[], &mut FifoScheduler::default(), &mut lowering)
            .expect("schedules cleanly");
        let tl = sim.run().expect("runs cleanly");
        assert_eq!(tl.finish_time(outcome.task(a).unwrap()).to_bits(), 5.0f64.to_bits());
        assert_eq!(tl.finish_time(outcome.task(b).unwrap()).to_bits(), 15.0f64.to_bits());
        assert_eq!(tl.finish_time(outcome.task(c).unwrap()).to_bits(), 17.0f64.to_bits());
        assert_eq!(tl.makespan().to_bits(), 17.0f64.to_bits());
    }

    #[test]
    fn diamond_dag_joins_on_the_slower_branch() {
        // a (2 s) fans out to transfers b (back-to-back on the shared link
        // with c under max-min fairness), joined by d.
        let mut dag = Dag::new();
        let a = dag.add_task("a", DagWork::Compute { site: 0, amount: 4.0 });
        let out_a = dag.add_output(a, "act", 1.0, Some(0));
        let b = dag.add_task("b", DagWork::Transfer { from: 0, to: 1, bytes: 8.0 });
        let c = dag.add_task("c", DagWork::Transfer { from: 0, to: 1, bytes: 16.0 });
        dag.connect(b, out_a);
        dag.connect(c, out_a);
        let d = dag.add_task("d", DagWork::Join);
        dag.add_after(d, b);
        dag.add_after(d, c);

        let mut sim = Simulation::new();
        let mut lowering = testbed(&mut sim);
        let outcome = execute(&dag, &[], &mut FifoScheduler::default(), &mut lowering)
            .expect("schedules cleanly");
        let tl = sim.run().expect("runs cleanly");
        // a: 2 s. Shared 4 B/s link: both flows at 2 B/s; b (8 B) done at
        // t=6, c then gets 4 B/s for its remaining 8 B -> t=8.
        assert_eq!(tl.finish_time(outcome.task(b).unwrap()).to_bits(), 6.0f64.to_bits());
        assert_eq!(tl.finish_time(outcome.task(c).unwrap()).to_bits(), 8.0f64.to_bits());
        assert_eq!(tl.finish_time(outcome.task(d).unwrap()).to_bits(), 8.0f64.to_bits());
    }

    /// A placement-aware policy for the fan-out test: scatters the storage
    /// write across the given sites and realises the consumer's soft input
    /// either as a join barrier or as per-site anchors.
    struct ScatterPolicy {
        sites: Vec<usize>,
        join: bool,
    }

    impl Scheduler for ScatterPolicy {
        fn name(&self) -> &'static str {
            "scatter-test"
        }

        fn on_task_ready(
            &mut self,
            task: DagTaskId,
            dag: &Dag,
            _system: &SystemView<'_>,
            out: &mut dyn FnMut(Decision<'_>),
        ) {
            let node = dag.task(task).unwrap();
            let mut decision = ScheduleDecision::new(task);
            if let DagWork::Transfer { to: SITE_STORAGE, bytes, .. } = node.work {
                let per_site = bytes / self.sites.len() as f64;
                decision = decision.scatter(ScatterPlan {
                    transfers: self.sites.iter().map(|&s| (s, per_site)).collect(),
                    join: self.join,
                });
            }
            // Realise soft inputs: anchor on the producer (its main is the
            // join barrier when joined) or on each per-site write.
            for &item in dag.soft_inputs(task) {
                let producer = dag.data(item).unwrap().producer;
                if self.join {
                    decision = decision.after(Anchor::Task(producer));
                } else {
                    decision = decision
                        .after_all(self.sites.iter().map(|&s| Anchor::TaskAtSite(producer, s)));
                }
            }
            out(Decision::Schedule(decision));
        }
    }

    fn fanout_dag() -> (Dag, DagTaskId, DagTaskId, DagTaskId) {
        let mut dag = Dag::new();
        let a = dag.add_task("produce", DagWork::Compute { site: 0, amount: 2.0 });
        let grad = dag.add_output(a, "grad", 90.0, None);
        let w =
            dag.add_task("offload", DagWork::Transfer { from: 0, to: SITE_STORAGE, bytes: 90.0 });
        dag.connect(w, grad);
        let stored = dag.add_output(w, "stored", 90.0, None);
        let done = dag.add_task("done", DagWork::Join);
        dag.connect_soft(done, stored);
        (dag, a, w, done)
    }

    #[test]
    fn fanout_scatter_golden_timeline_and_per_site_anchors() {
        // 90 B striped over 3 device links of 10 B/s each: 3 s after the
        // 1 s producer compute, under either synchronisation policy.
        for join in [true, false] {
            let (dag, a, w, done) = fanout_dag();
            let mut sim = Simulation::new();
            let mut lowering = testbed(&mut sim);
            let mut policy = ScatterPolicy { sites: vec![2, 3, 4], join };
            let outcome =
                execute(&dag, &[], &mut policy, &mut lowering).expect("schedules cleanly");
            let tl = sim.run().expect("runs cleanly");
            assert_eq!(tl.finish_time(outcome.task(a).unwrap()).to_bits(), 1.0f64.to_bits());
            for site in [2, 3, 4] {
                let flow = at_site(&outcome, w, site).expect("per-site write exists");
                assert_eq!(tl.finish_time(flow).to_bits(), 4.0f64.to_bits());
            }
            assert_eq!(
                tl.finish_time(outcome.task(done).unwrap()).to_bits(),
                4.0f64.to_bits(),
                "join={join}"
            );
        }
    }

    #[test]
    fn owner_routed_scatter_uses_only_the_chosen_sites() {
        let (dag, _a, w, _done) = fanout_dag();
        let mut sim = Simulation::new();
        let mut lowering = testbed(&mut sim);
        let mut policy = ScatterPolicy { sites: vec![3], join: false };
        let outcome = execute(&dag, &[], &mut policy, &mut lowering).expect("schedules cleanly");
        let tl = sim.run().expect("runs cleanly");
        assert!(at_site(&outcome, w, 2).is_none());
        assert!(at_site(&outcome, w, 4).is_none());
        let flow = at_site(&outcome, w, 3).expect("owner write exists");
        // All 90 B over one 10 B/s link: 9 s after the 1 s compute.
        assert_eq!(tl.finish_time(flow).to_bits(), 10.0f64.to_bits());
    }

    #[test]
    fn scatter_plan_naming_a_site_twice_is_rejected_before_lowering() {
        let (dag, _a, _w, _done) = fanout_dag();
        let mut sim = Simulation::new();
        let mut lowering = testbed(&mut sim);
        let mut policy = ScatterPolicy { sites: vec![3, 2, 3], join: false };
        let err = execute(&dag, &[], &mut policy, &mut lowering).unwrap_err();
        let SimError::InvalidParameter { message } = err else { panic!("got {err:?}") };
        assert!(message.contains("dag task 1 ('offload')") && message.contains("site 3 twice"));
        // Only the producer's compute was lowered; no flow of the plan was.
        assert_eq!(sim.run().expect("runs cleanly").records().len(), 1);
    }

    /// Defers every non-compute task until the stall sweep fires.
    struct DeferUntilFree {
        releases: usize,
        scheduled: Vec<bool>,
    }

    impl Scheduler for DeferUntilFree {
        fn name(&self) -> &'static str {
            "defer-test"
        }

        fn on_task_ready(
            &mut self,
            task: DagTaskId,
            dag: &Dag,
            _system: &SystemView<'_>,
            out: &mut dyn FnMut(Decision<'_>),
        ) {
            self.scheduled.resize(dag.len(), false);
            out(match dag.task(task).unwrap().work {
                DagWork::Compute { .. } => {
                    self.scheduled[task.index()] = true;
                    Decision::Schedule(ScheduleDecision::new(task))
                }
                _ => Decision::Defer(task),
            });
        }

        fn on_resource_free(
            &mut self,
            _site: usize,
            dag: &Dag,
            _system: &SystemView<'_>,
            out: &mut dyn FnMut(Decision<'_>),
        ) {
            // Release the first deferred-and-ready task.
            for idx in 0..dag.len() {
                let id = DagTaskId(idx);
                let ready =
                    reference::predecessors(dag, id).iter().all(|p| self.scheduled[p.index()]);
                if !self.scheduled[idx] && ready {
                    self.scheduled[idx] = true;
                    self.releases += 1;
                    out(Decision::Schedule(ScheduleDecision::new(id)));
                    return;
                }
            }
        }
    }

    #[test]
    fn deferred_tasks_are_released_via_resource_free() {
        let mut dag = Dag::new();
        let a = dag.add_task("a", DagWork::Compute { site: 0, amount: 2.0 });
        let out = dag.add_output(a, "a.out", 8.0, Some(0));
        let b = dag.add_task("b", DagWork::Transfer { from: 0, to: 1, bytes: 8.0 });
        dag.connect(b, out);

        let mut sim = Simulation::new();
        let mut lowering = testbed(&mut sim);
        let mut policy = DeferUntilFree { releases: 0, scheduled: Vec::new() };
        let outcome = execute(&dag, &[], &mut policy, &mut lowering).expect("schedules cleanly");
        assert_eq!(policy.releases, 1, "transfer released by the stall sweep");
        let tl = sim.run().expect("runs cleanly");
        assert_eq!(tl.finish_time(outcome.task(b).unwrap()).to_bits(), 3.0f64.to_bits());
    }

    /// Defers everything forever.
    struct Staller;

    impl Scheduler for Staller {
        fn name(&self) -> &'static str {
            "staller"
        }

        fn on_task_ready(
            &mut self,
            task: DagTaskId,
            _dag: &Dag,
            _system: &SystemView<'_>,
            out: &mut dyn FnMut(Decision<'_>),
        ) {
            out(Decision::Defer(task));
        }
    }

    #[test]
    fn scheduler_that_never_releases_work_stalls_with_typed_error() {
        let mut dag = Dag::new();
        dag.add_task("a", DagWork::Compute { site: 0, amount: 1.0 });
        let mut sim = Simulation::new();
        let mut lowering = testbed(&mut sim);
        let err = execute(&dag, &[], &mut Staller, &mut lowering).unwrap_err();
        assert_eq!(err, SimError::SchedulerStalled { pending_tasks: vec![0] });
    }

    /// Schedules the same task twice.
    struct DoubleScheduler;

    impl Scheduler for DoubleScheduler {
        fn name(&self) -> &'static str {
            "double"
        }

        fn on_task_ready(
            &mut self,
            task: DagTaskId,
            _dag: &Dag,
            _system: &SystemView<'_>,
            out: &mut dyn FnMut(Decision<'_>),
        ) {
            out(Decision::Schedule(ScheduleDecision::new(task)));
            out(Decision::Schedule(ScheduleDecision::new(task)));
        }
    }

    #[test]
    fn double_scheduling_is_rejected() {
        let mut dag = Dag::new();
        dag.add_task("a", DagWork::Compute { site: 0, amount: 1.0 });
        let mut sim = Simulation::new();
        let mut lowering = testbed(&mut sim);
        let err = execute(&dag, &[], &mut DoubleScheduler, &mut lowering).unwrap_err();
        assert!(matches!(err, SimError::InvalidParameter { .. }), "got {err:?}");
    }

    #[test]
    fn storage_transfer_without_scatter_plan_is_rejected() {
        let mut dag = Dag::new();
        let t = dag.add_task("w", DagWork::Transfer { from: 0, to: SITE_STORAGE, bytes: 8.0 });
        let _ = t;
        let mut sim = Simulation::new();
        let mut lowering = testbed(&mut sim);
        let err = execute(&dag, &[], &mut FifoScheduler::default(), &mut lowering).unwrap_err();
        assert!(matches!(err, SimError::InvalidParameter { .. }), "got {err:?}");
    }

    #[test]
    fn poisoned_dag_fails_before_scheduling() {
        let mut dag = Dag::new();
        let a = dag.add_task("a", DagWork::Join);
        dag.connect(a, DataId(9));
        let mut sim = Simulation::new();
        let mut lowering = testbed(&mut sim);
        let err = execute(&dag, &[], &mut FifoScheduler::default(), &mut lowering).unwrap_err();
        assert!(matches!(err, SimError::UnknownId { kind: "data item", index: 9 }));
    }
}
