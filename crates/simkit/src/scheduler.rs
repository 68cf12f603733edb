//! Pluggable scheduling: an object-safe [`Scheduler`] trait over a [`Dag`],
//! plus the deterministic executor that lowers its decisions onto the flat
//! [`Simulation`] substrate.
//!
//! The division of labour:
//!
//! - The **[`Dag`]** holds the policy-invariant structure: tasks, hard data
//!   edges, after-edges, and soft (policy-realised) dataflow. Every edge
//!   points to a lower id, so the graph is acyclic by construction.
//! - The **[`Scheduler`]** answers each task with one [`ScheduleDecision`],
//!   fixed by the graph alone: which extra synchronisation [`Anchor`]s to
//!   wait on, how to scatter storage-class transfers across concrete
//!   devices ([`ScatterPlan`]), and any setup latency to charge first
//!   ([`SetupDelay`]).
//! - The **[`Lowering`]** translates each decided DAG task into concrete
//!   flow/compute/delay/barrier tasks on a [`Simulation`] (or any richer
//!   platform wrapper around one), so `Timeline`, link occupancy and phase
//!   accounting keep working unchanged.
//!
//! [`execute`] drives the three together in one pass over the tasks in
//! ascending id order, so two runs over the same graph with the same
//! scheduler produce the same simulation, task id for task id.

use std::borrow::Cow;

use crate::dag::{Dag, DagTaskId, DagWork, SITE_STORAGE};
use crate::engine::Simulation;
use crate::error::SimError;
use crate::resource::Resource;
use crate::task::{ComputeSpec, DelaySpec, FlowSpec, LinkId, PhaseId, ResourceId, Span, TaskId};

/// A synchronisation point a scheduling decision can wait on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anchor {
    /// The main lowered task of a DAG task (its barrier when it lowered to a
    /// joined scatter, otherwise the task itself).
    Task(DagTaskId),
    /// A per-site sub-result of a DAG task — e.g. the write flow a scatter
    /// issued towards one particular device.
    TaskAtSite(DagTaskId, u32),
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
    pub transfers: Cow<'a, [(u32, f64)]>,
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
pub trait Scheduler {
    /// Short policy name, used in reports and comparison tables.
    fn name(&self) -> &'static str;

    /// Hands `out` the one decision for `task`, which must name `task`.
    /// [`execute`] asks this of every task twice, first to count what the
    /// decisions lower to and then to lower them, so the decision must
    /// depend on the graph alone, never on what was asked before. `out`
    /// applies a decision before it returns, so the decision may borrow
    /// from the scheduler itself — a reused anchor buffer, the layout the
    /// policy was built over — and the call allocates nothing.
    fn decide(
        &mut self,
        task: DagTaskId,
        dag: &Dag,
        system: &SystemView<'_>,
        out: &mut dyn FnMut(ScheduleDecision<'_>),
    );
}

/// Translates scheduled DAG tasks into concrete simulation tasks.
pub trait Lowering {
    /// Lowers `task` with the given scatter placement and resolved
    /// dependency list, and returns its main task: the one downstream
    /// structural edges attach to. A plan places a storage-class transfer
    /// (one touching [`SITE_STORAGE`]) and is ignored for any other task.
    /// Per-site sub-results (scatter flows, for [`Anchor::TaskAtSite`]) are
    /// appended to `per_site` as `(site, task)`, an arena the executor owns
    /// across every task of the run; a task id is stored as the `u32` a
    /// simulation's arenas hold it as.
    fn lower(
        &mut self,
        dag: &Dag,
        task: DagTaskId,
        scatter: Option<&ScatterPlan<'_>>,
        deps: &[TaskId],
        per_site: &mut Vec<(u32, u32)>,
    ) -> Result<TaskId, SimError>;

    /// Called once before any task is lowered, with exactly what lowering
    /// the run's decisions adds. A DAG task lowers to one task, except a
    /// placed storage-class transfer: a flow per placement, then a barrier
    /// when the plan joins them or is empty. A setup delay is one task
    /// more. Each lowered task depends on the decision's resolved
    /// dependencies, except a join barrier, on its flows, and a setup
    /// delay, on its own anchors. The path links are
    /// [`Lowering::route_len`] of every flow, from the transfer's source to
    /// the placement's site for a scatter, and from the site to the
    /// destination for a gather. The default ignores it.
    fn reserve(&mut self, tasks: usize, deps: usize, path_links: usize) {
        let _ = (tasks, deps, path_links);
    }

    /// The number of links a flow from site `from` to site `to` crosses, 0
    /// where there is none (lowering that flow fails). [`execute`] counts
    /// the path links it reserves with it. The default is 0.
    fn route_len(&mut self, from: u32, to: u32) -> usize {
        let _ = (from, to);
        0
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
    /// The main lowered task of a DAG task; `None` for a task the graph
    /// lacks.
    pub fn task(&self, id: DagTaskId) -> Option<TaskId> {
        self.lowered.get(id.index()).map(|(main, _)| main)
    }
}

/// What every lowered DAG task lowered to, in id order: its main task and
/// its span of per-site sub-results, all of them in one arena. Tasks and
/// sites are stored as the `u32` a simulation's and a graph's arenas hold
/// them as.
#[derive(Debug)]
struct Lowered {
    tasks: Vec<(u32, Span)>,
    per_site: Vec<(u32, u32)>,
}

impl Lowered {
    /// The main task and per-site sub-results of DAG task `t`, once lowered.
    fn get(&self, t: usize) -> Option<(TaskId, &[(u32, u32)])> {
        self.tasks.get(t).map(|&(main, sites)| (main as TaskId, sites.of(&self.per_site)))
    }
}

/// The sub-result at `site` among `sites`, if any.
fn at_site(sites: &[(u32, u32)], site: u32) -> Option<TaskId> {
    sites.iter().find(|&&(s, _)| s == site).map(|&(_, t)| t as TaskId)
}

/// [`Size`] remembers `1 << ROUTE_BITS` route lengths.
const ROUTE_BITS: u32 = 8;

/// What lowering a run's decisions adds, counted by the rules of
/// [`Lowering::reserve`]: simulation tasks, dependencies and path links,
/// and the executor's per-site sub-results.
#[derive(Debug)]
struct Size {
    tasks: usize,
    deps: usize,
    path_links: usize,
    per_site: usize,
    /// Route lengths the lowering was asked for, `(from, to, len)` by a
    /// hash of their ends: a graph names few endpoint pairs, so most flows
    /// are counted without a call.
    routes: [(u32, u32, usize); 1 << ROUTE_BITS],
}

impl Size {
    fn new() -> Self {
        // No flow asks for a route between two storage classes.
        let routes = [(SITE_STORAGE, SITE_STORAGE, 0); 1 << ROUTE_BITS];
        Self { tasks: 0, deps: 0, path_links: 0, per_site: 0, routes }
    }

    /// [`Lowering::route_len`] from `from` to `to`, asked of the lowering
    /// only when the pair's slot holds another pair.
    fn route_len(&mut self, lowering: &mut dyn Lowering, from: u32, to: u32) -> usize {
        let key = (u64::from(from) << 32 | u64::from(to)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let slot = &mut self.routes[(key >> (64 - ROUTE_BITS)) as usize];
        if (slot.0, slot.1) != (from, to) {
            *slot = (from, to, lowering.route_len(from, to));
        }
        slot.2
    }

    /// Adds what lowering `decision` over `dag` adds; a decision for a task
    /// the graph lacks adds nothing (applying it fails).
    fn add(&mut self, dag: &Dag, decision: &ScheduleDecision<'_>, lowering: &mut dyn Lowering) {
        let Some(task) = dag.task(decision.task) else { return };
        let mut deps = task.pred_count() + decision.after.len();
        if let Some(setup) = &decision.setup {
            self.tasks += 1;
            self.deps += setup.after.len();
            deps += 1;
        }
        match (task.work, &decision.scatter) {
            (DagWork::Transfer { from, to, .. }, Some(plan))
                if from == SITE_STORAGE || to == SITE_STORAGE =>
            {
                for &(site, _) in plan.transfers.iter() {
                    let (a, b) = if to == SITE_STORAGE { (from, site) } else { (site, to) };
                    self.path_links += self.route_len(lowering, a, b);
                }
                let flows = plan.transfers.len();
                self.per_site += flows;
                self.tasks += flows;
                self.deps += flows * deps;
                if flows == 0 {
                    self.tasks += 1;
                    self.deps += deps;
                } else if plan.join {
                    self.tasks += 1;
                    self.deps += flows;
                }
            }
            (work, _) => {
                self.tasks += 1;
                self.deps += deps;
                if let DagWork::Transfer { from, to, .. } = work {
                    self.path_links += self.route_len(lowering, from, to);
                }
            }
        }
    }
}

/// An [`SimError::InvalidParameter`] with `message`.
fn invalid(message: String) -> SimError {
    SimError::InvalidParameter { message }
}

struct Executor<'a> {
    dag: &'a Dag,
    lowered: Lowered,
    /// Dependencies of the decision being applied, reused across decisions.
    deps: Vec<TaskId>,
    /// Scatter sites of the decision being applied, sorted to find repeats.
    scatter_sites: Vec<u32>,
}

impl Executor<'_> {
    fn resolve_anchor(&self, anchor: Anchor) -> Result<TaskId, SimError> {
        let (t, site) = match anchor {
            Anchor::Task(t) => (t, None),
            Anchor::TaskAtSite(t, site) => (t, Some(site)),
        };
        let Some((main, sites)) = self.lowered.get(t.index()) else {
            return Err(invalid(format!("anchor references unscheduled dag task {}", t.index())));
        };
        match site {
            None => Ok(main),
            Some(site) => at_site(sites, site).ok_or_else(|| {
                invalid(format!("dag task {} has no lowered sub-result at site {site}", t.index()))
            }),
        }
    }

    /// Resolves the full dependency list for a decision into `self.deps`:
    /// hard inputs (with per-site refinement), then after-edges, then
    /// decision anchors. Every edge points to a lower id, so its source is
    /// lowered already.
    fn resolve_deps(&mut self, decision: &ScheduleDecision<'_>) -> Result<(), SimError> {
        let dag = self.dag;
        self.deps.clear();
        for &input in dag.inputs(decision.task) {
            let item = dag.data(input).expect("validated id");
            let (main, sites) = self.lowered.get(item.producer.index()).expect("a lower id");
            self.deps.push(item.site.and_then(|site| at_site(sites, site)).unwrap_or(main));
        }
        for &pred in dag.after(decision.task) {
            self.deps.push(self.lowered.get(pred.index()).expect("a lower id").0);
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
            Some(w) => {
                Err(invalid(format!("scatter plan of dag task {idx} names site {} twice", w[0])))
            }
        }
    }

    /// Lowers the decision for the next task in id order.
    fn apply(
        &mut self,
        sd: ScheduleDecision<'_>,
        lowering: &mut dyn Lowering,
    ) -> Result<(), SimError> {
        let idx = sd.task.index();
        if let Some(plan) = &sd.scatter {
            self.check_scatter(idx, plan)?;
        }
        self.resolve_deps(&sd)?;
        if let Some(setup) = &sd.setup {
            // The setup's anchors resolve behind the task's deps; the delay
            // then takes their place.
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
        let main = lowering.lower(self.dag, sd.task, sd.scatter.as_ref(), &self.deps, per_site)?;
        let sites = Span::since(start, per_site);
        self.lowered.tasks.push((main as u32, sites));
        Ok(())
    }
}

/// Runs `scheduler` over `dag`, lowering its decisions through `lowering`.
///
/// Every task is asked for its decision once to count what the decisions
/// lower to, which the lowering is told before the first is lowered
/// ([`Lowering::reserve`]) and which sizes the executor's own per-site
/// arena. Then the tasks are lowered in one pass in ascending id order.
/// This order is part of the contract: it fixes the order of the
/// [`Lowering`] calls and so the id of every simulation task.
///
/// # Errors
///
/// [`Dag::validate`]'s error before anything is asked. Then
/// [`SimError::InvalidParameter`] for a task answered with no decision,
/// with a decision naming another task or with a second decision, for an
/// anchor on a task not lowered yet or on a site its task has no
/// sub-result at, and for a [`ScatterPlan`] that names a site twice, the
/// last before anything of its task is lowered; and any error of the
/// lowering.
pub fn execute(
    dag: &Dag,
    resources: &[Resource],
    scheduler: &mut dyn Scheduler,
    lowering: &mut dyn Lowering,
) -> Result<ScheduleOutcome, SimError> {
    dag.validate()?;
    let n = dag.len();
    let view = SystemView { resources };
    let mut size = Size::new();
    for t in 0..n {
        let task = DagTaskId(t as u32);
        scheduler.decide(task, dag, &view, &mut |sd| size.add(dag, &sd, lowering));
    }
    lowering.reserve(size.tasks, size.deps, size.path_links);
    let mut exec = Executor {
        dag,
        lowered: Lowered {
            tasks: Vec::with_capacity(n),
            per_site: Vec::with_capacity(size.per_site),
        },
        deps: Vec::new(),
        scatter_sites: Vec::new(),
    };
    for t in 0..n {
        let task = DagTaskId(t as u32);
        let mut decisions = 0;
        let mut applied = Ok(());
        scheduler.decide(task, dag, &view, &mut |sd| {
            decisions += 1;
            if applied.is_ok() {
                applied = if sd.task != task {
                    let other = sd.task.index();
                    Err(invalid(format!("scheduler offered dag task {t} decided dag task {other}")))
                } else if decisions > 1 {
                    Err(invalid(format!("scheduler scheduled dag task {t} twice")))
                } else {
                    exec.apply(sd, lowering)
                };
            }
        });
        applied?;
        if decisions == 0 {
            return Err(invalid(format!("scheduler made no decision for dag task {t}")));
        }
    }
    Ok(ScheduleOutcome { lowered: exec.lowered })
}

/// A direct lowering onto a plain [`Simulation`]: sites index straight into
/// registered compute resources and transfers ride per-route link paths,
/// lent to each flow from the route table. It labels no task.
///
/// Suited to synthetic graphs and flat topologies; richer platforms (media
/// links, fault annotations) implement [`Lowering`] themselves.
pub struct DirectLowering<'a> {
    sim: &'a mut Simulation,
    compute: Vec<Option<ResourceId>>,
    routes: Vec<((u32, u32), Vec<LinkId>)>,
}

/// The path mapped from site `from` to site `to` in `routes`.
fn route(routes: &[((u32, u32), Vec<LinkId>)], from: u32, to: u32) -> Result<&[LinkId], SimError> {
    routes.iter().find(|(ends, _)| *ends == (from, to)).map(|(_, path)| &path[..]).ok_or_else(
        || SimError::InvalidParameter {
            message: format!("no route mapped from site {from} to site {to}"),
        },
    )
}

impl<'a> DirectLowering<'a> {
    /// Wraps a simulation with empty site and route maps.
    pub fn new(sim: &'a mut Simulation) -> Self {
        Self { sim, compute: Vec::new(), routes: Vec::new() }
    }

    /// Maps a site index to a compute resource.
    pub fn map_site(&mut self, site: u32, resource: ResourceId) {
        let site = site as usize;
        if self.compute.len() <= site {
            self.compute.resize(site + 1, None);
        }
        self.compute[site] = Some(resource);
    }

    /// Maps a directed route between two sites to a link path.
    pub fn map_route(&mut self, from: u32, to: u32, path: Vec<LinkId>) {
        self.routes.push(((from, to), path));
    }

    fn site_resource(&self, site: u32) -> Result<ResourceId, SimError> {
        let unknown = SimError::UnknownId { kind: "site", index: site as usize };
        self.compute.get(site as usize).copied().flatten().ok_or(unknown)
    }
}

impl Lowering for DirectLowering<'_> {
    fn lower(
        &mut self,
        dag: &Dag,
        task: DagTaskId,
        scatter: Option<&ScatterPlan<'_>>,
        deps: &[TaskId],
        per_site: &mut Vec<(u32, u32)>,
    ) -> Result<TaskId, SimError> {
        let node =
            dag.task(task).ok_or(SimError::UnknownId { kind: "dag task", index: task.index() })?;
        let phase = node.phase;
        let spec = |path, bytes| FlowSpec { phase, ..FlowSpec::new(path, bytes).after(deps) };
        match node.work {
            DagWork::Join => Ok(self.sim.barrier(deps)),
            DagWork::Delay { seconds } => {
                Ok(self.sim.delay(DelaySpec { phase, ..DelaySpec::new(seconds).after(deps) }))
            }
            DagWork::Compute { site, amount } => {
                let spec = ComputeSpec::new(self.site_resource(site)?, amount).after(deps);
                Ok(self.sim.compute(ComputeSpec { phase, ..spec }))
            }
            DagWork::Transfer { from, to, bytes } if from != SITE_STORAGE && to != SITE_STORAGE => {
                Ok(self.sim.flow(spec(route(&self.routes, from, to)?, bytes)))
            }
            DagWork::Transfer { from, to, .. } => {
                let plan = scatter.ok_or_else(|| SimError::InvalidParameter {
                    message: format!(
                        "storage-class transfer dag task {} requires a scatter plan",
                        task.index()
                    ),
                })?;
                let first = per_site.len();
                for &(site, part_bytes) in plan.transfers.iter() {
                    let (a, b) = if to == SITE_STORAGE { (from, site) } else { (site, to) };
                    let flow = self.sim.flow(spec(route(&self.routes, a, b)?, part_bytes));
                    per_site.push((site, flow as u32));
                }
                let flows = &per_site[first..];
                Ok(match flows.last() {
                    None => self.sim.barrier(deps),
                    Some(_) if plan.join => {
                        let flows: Vec<TaskId> = flows.iter().map(|&(_, f)| f as TaskId).collect();
                        self.sim.barrier(&flows)
                    }
                    Some(&(_, last)) => last as TaskId,
                })
            }
        }
    }

    fn reserve(&mut self, tasks: usize, deps: usize, path_links: usize) {
        self.sim.reserve(tasks, deps, path_links);
    }

    fn route_len(&mut self, from: u32, to: u32) -> usize {
        route(&self.routes, from, to).map_or(0, <[LinkId]>::len)
    }

    fn lower_delay(
        &mut self,
        seconds: f64,
        deps: &[TaskId],
        phase: Option<PhaseId>,
    ) -> Result<TaskId, SimError> {
        Ok(self.sim.delay(DelaySpec { phase, ..DelaySpec::new(seconds).after(deps) }))
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DataId;

    /// Schedules every task as offered, realising soft inputs as
    /// dependencies on their producers' main results. Storage-class
    /// transfers are not placed (no scatter plan).
    struct FifoScheduler;

    impl Scheduler for FifoScheduler {
        fn name(&self) -> &'static str {
            "fifo"
        }

        fn decide(
            &mut self,
            task: DagTaskId,
            dag: &Dag,
            _system: &SystemView<'_>,
            out: &mut dyn FnMut(ScheduleDecision<'_>),
        ) {
            let producer = |d: &DataId| dag.data(*d).expect("connected items exist").producer;
            let anchors = dag.soft_inputs(task).iter().map(|d| Anchor::Task(producer(d)));
            out(ScheduleDecision::new(task).after_all(anchors));
        }
    }

    /// The per-site sub-result `site` of DAG task `id`.
    fn site_of(outcome: &ScheduleOutcome, id: DagTaskId, site: u32) -> Option<TaskId> {
        at_site(outcome.lowered.get(id.index()).expect("lowered").1, site)
    }

    /// A two-site test bed: compute resources at sites 0 and 1 plus three
    /// storage device sites (2, 3, 4), each behind its own link.
    fn testbed(sim: &mut Simulation) -> DirectLowering<'_> {
        let r0 = sim.add_resource(2.0);
        let r1 = sim.add_resource(3.0);
        let l01 = sim.add_link(4.0);
        let dev_links: Vec<LinkId> = (0..3).map(|_| sim.add_link(10.0)).collect();
        let dev_links = (2..).zip(dev_links);
        let mut lowering = DirectLowering::new(sim);
        lowering.map_site(0, r0);
        lowering.map_site(1, r1);
        lowering.map_route(0, 1, vec![l01]);
        lowering.map_route(1, 0, vec![l01]);
        for (site, link) in dev_links {
            lowering.map_route(0, site, vec![link]);
            lowering.map_route(site, 0, vec![link]);
        }
        lowering
    }

    #[test]
    fn chain_dag_matches_golden_timeline() {
        // compute 10 units @ 2/s (5 s) -> transfer 40 B @ 4 B/s (10 s)
        // -> compute 6 units @ 3/s (2 s): finishes at 5, 15, 17.
        let mut dag = Dag::new();
        let a = dag.add_task(DagWork::Compute { site: 0, amount: 10.0 });
        let out_a = dag.add_output(a, 40.0, Some(0));
        let b = dag.add_task(DagWork::Transfer { from: 0, to: 1, bytes: 40.0 });
        dag.connect(b, out_a);
        let out_b = dag.add_output(b, 40.0, Some(1));
        let c = dag.add_task(DagWork::Compute { site: 1, amount: 6.0 });
        dag.connect(c, out_b);

        let mut sim = Simulation::new();
        let mut lowering = testbed(&mut sim);
        let outcome =
            execute(&dag, &[], &mut FifoScheduler, &mut lowering).expect("schedules cleanly");
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
        let a = dag.add_task(DagWork::Compute { site: 0, amount: 4.0 });
        let out_a = dag.add_output(a, 1.0, Some(0));
        let b = dag.add_task(DagWork::Transfer { from: 0, to: 1, bytes: 8.0 });
        let c = dag.add_task(DagWork::Transfer { from: 0, to: 1, bytes: 16.0 });
        dag.connect(b, out_a);
        dag.connect(c, out_a);
        let d = dag.add_task(DagWork::Join);
        dag.add_after(d, b);
        dag.add_after(d, c);

        let mut sim = Simulation::new();
        let mut lowering = testbed(&mut sim);
        let outcome =
            execute(&dag, &[], &mut FifoScheduler, &mut lowering).expect("schedules cleanly");
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
        sites: Vec<u32>,
        join: bool,
    }

    impl Scheduler for ScatterPolicy {
        fn name(&self) -> &'static str {
            "scatter-test"
        }

        fn decide(
            &mut self,
            task: DagTaskId,
            dag: &Dag,
            _system: &SystemView<'_>,
            out: &mut dyn FnMut(ScheduleDecision<'_>),
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
            out(decision);
        }
    }

    fn fanout_dag() -> (Dag, DagTaskId, DagTaskId, DagTaskId) {
        let mut dag = Dag::new();
        let a = dag.add_task(DagWork::Compute { site: 0, amount: 2.0 });
        let grad = dag.add_output(a, 90.0, None);
        let w = dag.add_task(DagWork::Transfer { from: 0, to: SITE_STORAGE, bytes: 90.0 });
        dag.connect(w, grad);
        let stored = dag.add_output(w, 90.0, None);
        let done = dag.add_task(DagWork::Join);
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
                let flow = site_of(&outcome, w, site).expect("per-site write exists");
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
        assert!(site_of(&outcome, w, 2).is_none());
        assert!(site_of(&outcome, w, 4).is_none());
        let flow = site_of(&outcome, w, 3).expect("owner write exists");
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
        assert_eq!(message, "scatter plan of dag task 1 names site 3 twice");
        // Only the producer's compute was lowered; no flow of the plan was.
        assert_eq!(sim.filled().0[0], 1);
    }

    /// Answers nothing.
    struct Staller;

    impl Scheduler for Staller {
        fn name(&self) -> &'static str {
            "staller"
        }

        fn decide(
            &mut self,
            _task: DagTaskId,
            _dag: &Dag,
            _system: &SystemView<'_>,
            _out: &mut dyn FnMut(ScheduleDecision<'_>),
        ) {
        }
    }

    #[test]
    fn scheduler_that_never_releases_work_stalls_with_typed_error() {
        let mut dag = Dag::new();
        dag.add_task(DagWork::Compute { site: 0, amount: 1.0 });
        let mut sim = Simulation::new();
        let mut lowering = testbed(&mut sim);
        let err = execute(&dag, &[], &mut Staller, &mut lowering).unwrap_err();
        let message = "scheduler made no decision for dag task 0".to_string();
        assert_eq!(err, SimError::InvalidParameter { message });
    }

    /// Answers each task with a decision for each of the tasks it maps the
    /// offered one to.
    struct DoubleScheduler(fn(DagTaskId) -> Vec<DagTaskId>);

    impl Scheduler for DoubleScheduler {
        fn name(&self) -> &'static str {
            "double"
        }

        fn decide(
            &mut self,
            task: DagTaskId,
            _dag: &Dag,
            _system: &SystemView<'_>,
            out: &mut dyn FnMut(ScheduleDecision<'_>),
        ) {
            for id in (self.0)(task) {
                out(ScheduleDecision::new(id));
            }
        }
    }

    #[test]
    fn double_scheduling_is_rejected() {
        let mut dag = Dag::new();
        dag.add_task(DagWork::Compute { site: 0, amount: 1.0 });
        dag.add_task(DagWork::Compute { site: 0, amount: 1.0 });
        for (policy, message) in [
            (DoubleScheduler(|t| vec![t, t]), "scheduler scheduled dag task 0 twice"),
            (
                DoubleScheduler(|_| vec![DagTaskId(1)]),
                "scheduler offered dag task 0 decided dag task 1",
            ),
        ] {
            let mut sim = Simulation::new();
            let mut lowering = testbed(&mut sim);
            let err = execute(&dag, &[], &mut { policy }, &mut lowering).unwrap_err();
            assert_eq!(err, SimError::InvalidParameter { message: message.to_string() });
        }
    }

    #[test]
    fn storage_transfer_without_scatter_plan_is_rejected() {
        let mut dag = Dag::new();
        let t = dag.add_task(DagWork::Transfer { from: 0, to: SITE_STORAGE, bytes: 8.0 });
        let _ = t;
        let mut sim = Simulation::new();
        let mut lowering = testbed(&mut sim);
        let err = execute(&dag, &[], &mut FifoScheduler, &mut lowering).unwrap_err();
        assert!(matches!(err, SimError::InvalidParameter { .. }), "got {err:?}");
    }

    #[test]
    fn poisoned_dag_fails_before_scheduling() {
        let mut dag = Dag::new();
        let a = dag.add_task(DagWork::Join);
        dag.connect(a, DataId(9));
        let mut sim = Simulation::new();
        let mut lowering = testbed(&mut sim);
        let err = execute(&dag, &[], &mut FifoScheduler, &mut lowering).unwrap_err();
        assert!(matches!(err, SimError::UnknownId { kind: "data item", index: 9 }));
    }
}
