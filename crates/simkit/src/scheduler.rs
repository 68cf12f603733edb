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
        site: u32,
        dag: &Dag,
        system: &SystemView<'_>,
        out: &mut dyn FnMut(Decision<'_>),
    ) {
        let _ = (site, dag, system, out);
    }

    /// For a policy whose decision for a task depends on the graph alone,
    /// never on what was scheduled before it: hands `out` the decision it
    /// will make for `task` when it is offered. [`execute`] asks this of
    /// every task before anything is lowered, and reserves exactly what
    /// lowering the decisions adds (see [`Lowering::reserve`]), so no arena
    /// regrows. The default hands over nothing, for any task, and the
    /// lowering grows as it goes.
    fn preview(&mut self, task: DagTaskId, dag: &Dag, out: &mut dyn FnMut(Decision<'_>)) {
        let _ = (task, dag, out);
    }
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

    /// Called once before any task is lowered, when the scheduler previews
    /// its decisions ([`Scheduler::preview`]), with exactly what lowering
    /// them adds. A DAG task lowers to one task, except a placed
    /// storage-class transfer: a flow per placement, then a barrier when
    /// the plan joins them or is empty. A setup delay is one task more.
    /// Each lowered task depends on the decision's resolved dependencies,
    /// except a join barrier, on its flows, and a setup delay, on its own
    /// anchors. The path links are [`Lowering::route_len`] of every flow,
    /// from the transfer's source to the placement's site for a scatter,
    /// and from the site to the destination for a gather. The default
    /// ignores it.
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
    /// The main lowered task of a DAG task.
    pub fn task(&self, id: DagTaskId) -> Option<TaskId> {
        self.lowered.main(id.index())
    }
}

/// What every scheduled DAG task lowered to: its main task and its span of
/// per-site sub-results, all of them in one arena. Tasks and sites are
/// stored as the `u32` a simulation's and a graph's arenas hold them as.
#[derive(Debug, Default)]
struct Lowered {
    /// Per DAG task, `(main, span into per_site)` once it is scheduled.
    tasks: Vec<Option<(u32, Span)>>,
    per_site: Vec<(u32, u32)>,
}

impl Lowered {
    /// The main task of DAG task `t`, once scheduled.
    fn main(&self, t: usize) -> Option<TaskId> {
        self.tasks.get(t).copied().flatten().map(|(main, _)| main as TaskId)
    }

    /// The sub-result of DAG task `t` at `site`, if any: `Err` when `t` is
    /// not scheduled yet.
    fn at_site(&self, t: usize, site: u32) -> Result<Option<TaskId>, ()> {
        let Some((_, sites)) = self.tasks.get(t).copied().flatten() else { return Err(()) };
        Ok(sites.of(&self.per_site).iter().find(|(s, _)| *s == site).map(|&(_, t)| t as TaskId))
    }
}

/// [`Size`] remembers `1 << ROUTE_BITS` route lengths.
const ROUTE_BITS: u32 = 8;

/// What lowering a run's previewed decisions adds, counted by the rules of
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

struct Executor<'a> {
    dag: &'a Dag,
    structure: Structure,
    lowered: Lowered,
    scheduled: Vec<bool>,
    deferred: Vec<bool>,
    /// Dependencies of the decision being applied, reused across decisions.
    deps: Vec<TaskId>,
    /// Scatter sites of the decision being applied, sorted to find repeats.
    scatter_sites: Vec<u32>,
    done: usize,
}

impl Executor<'_> {
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
        self.deps.clear();
        for &input in dag.inputs(decision.task) {
            let item = dag.data(input).expect("validated id");
            let producer = item.producer.index();
            let main = self.lowered.main(producer).ok_or_else(|| SimError::InvalidParameter {
                message: format!(
                    "dag task {idx} scheduled before the producer of its input {}",
                    input.index()
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
                    message: format!("dag task {idx} scheduled before its predecessor"),
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
                message: format!("scatter plan of dag task {idx} names site {} twice", w[0]),
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
                        message: format!("scheduler scheduled dag task {idx} twice"),
                    });
                }
                if !self.structure.is_ready(idx) {
                    return Err(SimError::InvalidParameter {
                        message: format!(
                            "scheduler scheduled dag task {idx} before its structural predecessors"
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
                let sites = Span::since(start, per_site);
                self.lowered.tasks[idx] = Some((main as u32, sites));
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
fn stall_sites(dag: &Dag) -> Vec<u32> {
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
///
/// When the scheduler previews its decisions ([`Scheduler::preview`]), the
/// lowering is told exactly what they add before the first is lowered
/// ([`Lowering::reserve`]), and the executor sizes its own per-site arena
/// from them too.
pub fn execute(
    dag: &Dag,
    resources: &[Resource],
    scheduler: &mut dyn Scheduler,
    lowering: &mut dyn Lowering,
) -> Result<ScheduleOutcome, SimError> {
    let structure = dag.structure()?;
    let n = dag.len();
    let mut size = None;
    for t in 0..n {
        scheduler.preview(DagTaskId(t as u32), dag, &mut |decision| {
            if let Decision::Schedule(sd) = decision {
                size.get_or_insert_with(Size::new).add(dag, &sd, lowering);
            }
        });
    }
    if let Some(size) = &size {
        lowering.reserve(size.tasks, size.deps, size.path_links);
    }
    let per_site = Vec::with_capacity(size.map_or(0, |size| size.per_site));
    let mut exec = Executor {
        dag,
        structure,
        lowered: Lowered { tasks: vec![None; n], per_site },
        scheduled: vec![false; n],
        deferred: vec![false; n],
        deps: Vec::new(),
        scatter_sites: Vec::new(),
        done: 0,
    };
    let mut sites: Option<Vec<u32>> = None;
    let view = SystemView { resources };

    while exec.done < n {
        let mut progress = false;
        for t in 0..n {
            if exec.scheduled[t] || exec.deferred[t] || !exec.structure.is_ready(t) {
                continue;
            }
            let task = DagTaskId(t as u32);
            progress |=
                exec.answer(lowering, |out| scheduler.on_task_ready(task, dag, &view, out))?;
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

        /// The decision is the same whenever it is handed over.
        fn preview(&mut self, task: DagTaskId, dag: &Dag, out: &mut dyn FnMut(Decision<'_>)) {
            let producer = |d: &DataId| dag.data(*d).expect("connected items exist").producer;
            let anchors = dag.soft_inputs(task).iter().map(|d| Anchor::Task(producer(d)));
            out(Decision::Schedule(ScheduleDecision::new(task).after_all(anchors)));
        }
    }

    /// The per-site sub-result `site` of DAG task `id`.
    fn at_site(outcome: &ScheduleOutcome, id: DagTaskId, site: u32) -> Option<TaskId> {
        outcome.lowered.at_site(id.index(), site).expect("scheduled")
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
        sites: Vec<u32>,
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
        assert_eq!(message, "scatter plan of dag task 1 names site 3 twice");
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
            _site: u32,
            dag: &Dag,
            _system: &SystemView<'_>,
            out: &mut dyn FnMut(Decision<'_>),
        ) {
            // Release the first deferred-and-ready task.
            for idx in 0..dag.len() {
                let id = DagTaskId(idx as u32);
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
        let a = dag.add_task(DagWork::Compute { site: 0, amount: 2.0 });
        let out = dag.add_output(a, 8.0, Some(0));
        let b = dag.add_task(DagWork::Transfer { from: 0, to: 1, bytes: 8.0 });
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
        dag.add_task(DagWork::Compute { site: 0, amount: 1.0 });
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
        dag.add_task(DagWork::Compute { site: 0, amount: 1.0 });
        let mut sim = Simulation::new();
        let mut lowering = testbed(&mut sim);
        let err = execute(&dag, &[], &mut DoubleScheduler, &mut lowering).unwrap_err();
        assert!(matches!(err, SimError::InvalidParameter { .. }), "got {err:?}");
    }

    #[test]
    fn storage_transfer_without_scatter_plan_is_rejected() {
        let mut dag = Dag::new();
        let t = dag.add_task(DagWork::Transfer { from: 0, to: SITE_STORAGE, bytes: 8.0 });
        let _ = t;
        let mut sim = Simulation::new();
        let mut lowering = testbed(&mut sim);
        let err = execute(&dag, &[], &mut FifoScheduler::default(), &mut lowering).unwrap_err();
        assert!(matches!(err, SimError::InvalidParameter { .. }), "got {err:?}");
    }

    #[test]
    fn poisoned_dag_fails_before_scheduling() {
        let mut dag = Dag::new();
        let a = dag.add_task(DagWork::Join);
        dag.connect(a, DataId(9));
        let mut sim = Simulation::new();
        let mut lowering = testbed(&mut sim);
        let err = execute(&dag, &[], &mut FifoScheduler::default(), &mut lowering).unwrap_err();
        assert!(matches!(err, SimError::UnknownId { kind: "data item", index: 9 }));
    }
}
