//! The discrete-event engine: builds the task DAG and executes it over the
//! registered links and resources.

use crate::error::SimError;
use crate::task::{
    fits_u32, ComputeSpec, DelaySpec, FlowSpec, LinkId, PhaseId, ResourceId, Span, Task, TaskId,
    TaskKind,
};
use crate::timeline::{TaskRecord, Timeline};
use crate::TIME_EPS;
use std::collections::VecDeque;

mod oracle;

/// A discrete-event simulation: links, resources, phases and a task DAG.
///
/// Links, resources and phases are ids: a link is its bandwidth, a resource
/// its rate, a phase a tag, and none carries a name. Every dependency names
/// a task added before, so the DAG is acyclic by construction. Tasks keep
/// their dependencies and link paths as spans into two arenas the
/// simulation owns, and a label in a side list: a task is a fixed 40-byte
/// record that holds no heap memory of its own, and dropping a simulation
/// frees the arenas, not a vector per task. Only a labelled task pays for
/// the side list (an entry and its string); neither the timed platform nor
/// [`DirectLowering`](crate::DirectLowering) labels a task, and the
/// engine's oracle names an unlabelled task by its id. The arenas store
/// task, link, resource and phase indices as `u32`, so a simulation holds
/// at most `u32::MAX` of each (and of dependencies and path links); the
/// public task ids stay `usize`. That bound is checked from the counts, by
/// [`Simulation::reserve`] and when the simulation runs, not per task.
///
/// Malformed graphs — non-positive link bandwidths, unknown dependency or
/// link or resource ids, negative work amounts, more than `u32::MAX`
/// entries of anything — do not panic. The first such error *poisons* the
/// simulation and is returned by [`Simulation::run`]; the builder methods
/// stay infallible so that id allocation remains consistent even after an
/// error.
///
/// See the [crate-level documentation](crate) for an overview and an example.
#[derive(Debug, Default)]
pub struct Simulation {
    /// Every link's bandwidth, by link index.
    links: Vec<f64>,
    /// Every resource's rate, by resource index.
    resources: Vec<f64>,
    phases: usize,
    tasks: Vec<Task>,
    /// Every task's dependencies, in task order.
    deps: Vec<u32>,
    /// Every flow's link path, in task order.
    paths: Vec<u32>,
    /// The labels of the tasks that have one, by ascending task id.
    labels: Vec<(TaskId, String)>,
    /// The task, dependency and path-link counts [`Simulation::reserve`]
    /// was told the simulation would reach; a debug build checks them when
    /// it runs.
    reserved: Option<[usize; 3]>,
    poison: Option<SimError>,
}

impl Simulation {
    /// Creates an empty simulation.
    pub fn new() -> Self {
        Self::default()
    }

    fn poison(&mut self, err: SimError) {
        if self.poison.is_none() {
            self.poison = Some(err);
        }
    }

    /// Registers a shared link with the given bandwidth in bytes per second.
    ///
    /// A non-positive or non-finite bandwidth poisons the simulation; the
    /// error is reported by [`Simulation::run`].
    pub fn add_link(&mut self, bandwidth: f64) -> LinkId {
        if !(bandwidth.is_finite() && bandwidth > 0.0) {
            self.poison(SimError::InvalidParameter {
                message: format!("link bandwidth must be positive and finite, got {bandwidth}"),
            });
        }
        self.links.push(bandwidth);
        LinkId(self.links.len() - 1)
    }

    /// Registers a serial compute resource with the given processing rate
    /// (work units per second).
    ///
    /// A non-positive or non-finite rate poisons the simulation; the error
    /// is reported by [`Simulation::run`].
    pub fn add_resource(&mut self, rate: f64) -> ResourceId {
        if !(rate.is_finite() && rate > 0.0) {
            self.poison(SimError::InvalidParameter {
                message: format!("resource rate must be positive and finite, got {rate}"),
            });
        }
        self.resources.push(rate);
        ResourceId(self.resources.len() - 1)
    }

    /// Registers a phase used for breakdown reporting: a fresh tag for
    /// [`FlowSpec::phase`] and friends, read back through the timeline's
    /// per-phase queries.
    pub fn add_phase(&mut self) -> PhaseId {
        self.phases += 1;
        PhaseId((self.phases - 1) as u32)
    }

    /// Makes room for exactly `tasks` more tasks with `deps` dependencies
    /// between them and `path_links` links of flow paths: what a builder
    /// that knows its graph adds before it runs, so no arena regrows. A
    /// debug build checks, when the simulation runs, that the arenas hold
    /// exactly that much. Counts that would take an arena past `u32::MAX`
    /// entries poison the simulation and reserve nothing.
    pub fn reserve(&mut self, tasks: usize, deps: usize, path_links: usize) {
        let total = [
            self.tasks.len().saturating_add(tasks),
            self.deps.len().saturating_add(deps),
            self.paths.len().saturating_add(path_links),
        ];
        if let Err(err) = Self::check_counts(total) {
            return self.poison(err);
        }
        self.tasks.reserve_exact(tasks);
        self.deps.reserve_exact(deps);
        self.paths.reserve_exact(path_links);
        self.reserved = Some(total);
    }

    /// The error of task, dependency and path-link counts past `u32::MAX`.
    fn check_counts([tasks, deps, paths]: [usize; 3]) -> Result<(), SimError> {
        fits_u32(tasks, "tasks")?;
        fits_u32(deps, "dependencies")?;
        fits_u32(paths, "path links")
    }

    /// Number of links registered so far.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Bandwidth of a link in bytes per second.
    pub fn link_bandwidth(&self, link: LinkId) -> f64 {
        self.links[link.0]
    }

    /// The label attached to a task, if any (useful when debugging schedules).
    pub(crate) fn task_label(&self, task: TaskId) -> Option<&str> {
        let at = self.labels.binary_search_by_key(&task, |&(id, _)| id).ok()?;
        Some(&self.labels[at].1)
    }

    /// Adds a flow task (bytes over a path of shared links).
    ///
    /// Referencing an unknown link or dependency, a negative byte count, or
    /// an empty path with bytes to move, poisons the simulation; the error is
    /// reported by [`Simulation::run`].
    pub fn flow(&mut self, spec: FlowSpec) -> TaskId {
        if !(spec.bytes >= 0.0 && spec.bytes.is_finite()) {
            self.poison(SimError::InvalidParameter {
                message: format!("flow bytes must be non-negative, got {}", spec.bytes),
            });
        }
        if spec.path.is_empty() && spec.bytes > 0.0 {
            self.poison(SimError::InvalidParameter {
                message: format!("a flow of {} bytes needs at least one link", spec.bytes),
            });
        }
        for l in spec.path.iter() {
            if l.0 >= self.links.len() {
                self.poison(SimError::UnknownId { kind: "link", index: l.0 });
            }
        }
        // A link index that does not fit a `u32` is unknown or poisons the
        // run, so its truncation below is never read.
        let path = Span::append(&mut self.paths, spec.path.iter().map(|l| l.0 as u32));
        let kind = TaskKind::Flow { path, bytes: spec.bytes };
        self.push(kind, &spec.deps, spec.phase, spec.label)
    }

    /// Adds a compute task (work units on a serial resource).
    ///
    /// Referencing an unknown resource or dependency, or a negative work
    /// amount, poisons the simulation; the error is reported by
    /// [`Simulation::run`].
    pub fn compute(&mut self, spec: ComputeSpec) -> TaskId {
        if !(spec.work >= 0.0 && spec.work.is_finite()) {
            self.poison(SimError::InvalidParameter {
                message: format!("compute work must be non-negative, got {}", spec.work),
            });
        }
        if spec.resource.0 >= self.resources.len() {
            self.poison(SimError::UnknownId { kind: "resource", index: spec.resource.0 });
        }
        let kind = TaskKind::Compute { resource: spec.resource.0 as u32, work: spec.work };
        self.push(kind, &spec.deps, spec.phase, spec.label)
    }

    /// Adds a fixed delay task.
    ///
    /// A negative delay or unknown dependency poisons the simulation; the
    /// error is reported by [`Simulation::run`].
    pub fn delay(&mut self, spec: DelaySpec) -> TaskId {
        if !(spec.seconds >= 0.0 && spec.seconds.is_finite()) {
            self.poison(SimError::InvalidParameter {
                message: format!("delay must be non-negative, got {}", spec.seconds),
            });
        }
        self.push(TaskKind::Delay { seconds: spec.seconds }, &spec.deps, spec.phase, spec.label)
    }

    /// Adds a zero-duration barrier that completes when all `deps` have completed.
    ///
    /// An unknown dependency id poisons the simulation; the error is
    /// reported by [`Simulation::run`].
    pub fn barrier(&mut self, deps: &[TaskId]) -> TaskId {
        self.push(TaskKind::Barrier, deps, None, None)
    }

    /// Appends a task whose dependencies are `deps`; an unknown (so not
    /// earlier) dependency poisons the simulation. An index stored below
    /// that does not fit its `u32` poisons the run, so it is never read.
    fn push(
        &mut self,
        kind: TaskKind,
        deps: &[TaskId],
        phase: Option<PhaseId>,
        label: Option<String>,
    ) -> TaskId {
        let id = self.tasks.len();
        if let Some(&d) = deps.iter().find(|&&d| d >= id) {
            self.poison(SimError::UnknownId { kind: "task", index: d });
        }
        let deps = Span::append(&mut self.deps, deps.iter().map(|&d| d as u32));
        self.tasks.push(Task { kind, deps, phase });
        if let Some(label) = label {
            self.labels.push((id, label));
        }
        id
    }

    /// The task, dependency and path-link counts the simulation holds, and
    /// those [`Simulation::reserve`] was told it would reach.
    #[cfg(test)]
    pub(crate) fn filled(&self) -> ([usize; 3], Option<[usize; 3]>) {
        ([self.tasks.len(), self.deps.len(), self.paths.len()], self.reserved)
    }

    /// The tasks `task` waits on, by index.
    pub(crate) fn deps_of(&self, task: &Task) -> &[u32] {
        task.deps.of(&self.deps)
    }

    /// The links a task crosses (none unless it is a flow), by index.
    pub(crate) fn path_of(&self, task: &Task) -> &[u32] {
        match task.kind {
            TaskKind::Flow { path, .. } => path.of(&self.paths),
            _ => &[],
        }
    }

    /// Per-link flow membership, so the timeline can answer stage-level
    /// occupancy queries (which flows kept a link busy, and when): the flows
    /// with bytes to move that cross each link, once per mention in their
    /// path, in task order, as one flat list sized by a counting pass.
    fn link_tasks(&self) -> Lists {
        let moving = || {
            self.tasks.iter().enumerate().filter_map(|(id, task)| match task.kind {
                TaskKind::Flow { path, bytes } if bytes > 0.0 => Some((id, path.of(&self.paths))),
                _ => None,
            })
        };
        // One slot more than the links: the timeline's offset table ends
        // with the total.
        let mut counts = Vec::with_capacity(self.links.len() + 1);
        counts.resize(self.links.len(), 0u32);
        for (_, path) in moving() {
            for &l in path {
                counts[l as usize] += 1;
            }
        }
        let mut lists = Lists::with_room(counts);
        for (id, path) in moving() {
            for &l in path {
                lists.push(l as usize, id);
            }
        }
        lists
    }

    /// Executes the task DAG and returns the resulting timeline.
    ///
    /// The task table is complete once this starts, so it first gives back
    /// whatever its arenas grew beyond their contents (once: a second run
    /// finds nothing to give back; a reserved simulation has nothing).
    ///
    /// # Errors
    ///
    /// Returns the first error recorded while building the graph (an
    /// [`SimError::InvalidParameter`] or [`SimError::UnknownId`]), the
    /// [`SimError::InvalidParameter`] of more than `u32::MAX` links,
    /// resources, phases, tasks, dependencies or path links, or
    /// [`SimError::DependencyCycle`] if some tasks can never become ready
    /// (their dependencies form a cycle).
    pub fn run(&mut self) -> Result<Timeline, SimError> {
        if let Some(err) = &self.poison {
            return Err(err.clone());
        }
        fits_u32(self.links.len(), "links")?;
        fits_u32(self.resources.len(), "resources")?;
        fits_u32(self.phases, "phases")?;
        let counts = [self.tasks.len(), self.deps.len(), self.paths.len()];
        Self::check_counts(counts)?;
        debug_assert!(
            self.reserved.is_none() || self.reserved == Some(counts),
            "reserved [tasks, deps, path links] {:?}, filled {counts:?}",
            self.reserved
        );
        self.tasks.shrink_to_fit();
        self.deps.shrink_to_fit();
        self.paths.shrink_to_fit();
        let timeline = Runner::new(self).run()?;
        debug_assert_eq!(oracle::check(self, &timeline), Ok(()));
        Ok(timeline)
    }
}

/// One list of tasks per key (a link, a resource) in a single arena: key
/// `k` owns the slots from `start[k]`, sized up front by how many entries
/// it can ever hold, and holds the tasks in `start[k]..end[k]`. Offsets and
/// tasks are `u32`, as the simulation's arenas store them.
#[derive(Debug, Clone)]
struct Lists {
    start: Vec<u32>,
    end: Vec<u32>,
    items: Vec<u32>,
}

impl Lists {
    /// Empty lists with room for `room[k]` entries under key `k`.
    fn with_room(mut room: Vec<u32>) -> Self {
        let mut next = 0;
        for r in &mut room {
            next += std::mem::replace(r, next);
        }
        Self { end: room.clone(), start: room, items: vec![0; next as usize] }
    }

    /// The tasks listed under `key`.
    fn of(&self, key: usize) -> &[u32] {
        &self.items[self.start[key] as usize..self.end[key] as usize]
    }

    /// Appends `task` to the list of `key`, which must have room left.
    fn push(&mut self, key: usize, task: TaskId) {
        self.items[self.end[key] as usize] = task as u32;
        self.end[key] += 1;
    }

    /// Drops the first task of `key`'s list. Its slot is not reused, so a
    /// list that gets each task once is a FIFO queue.
    fn pop_front(&mut self, key: usize) {
        self.start[key] += 1;
    }

    /// Removes one entry of `task` from `key`'s list, the last entry
    /// taking its place, as [`Vec::swap_remove`] does.
    fn swap_remove(&mut self, key: usize, task: TaskId) {
        let at = self.of(key).iter().position(|&t| t as usize == task).expect("the task is listed");
        self.end[key] -= 1;
        self.items.swap(self.start[key] as usize + at, self.end[key] as usize);
    }

    /// The filled lists as one offset table (`len + 1` entries) over the
    /// arena: what a [`Timeline`] keeps.
    fn into_csr(self) -> (Vec<u32>, Vec<u32>) {
        let Self { mut start, items, .. } = self;
        start.push(items.len() as u32);
        (start, items)
    }
}

/// Remaining-work bookkeeping for one task during execution; its start and
/// finish times go straight into its timeline record.
#[derive(Debug, Clone)]
struct Progress {
    remaining: f64,
    unmet_deps: u32,
    done: bool,
}

/// Who waits on each task, as one CSR pair: the dependents of `t`, in the
/// order their `deps` were declared, are `list[start[t]..start[t + 1]]`.
struct Dependents {
    start: Vec<u32>,
    list: Vec<u32>,
}

impl Dependents {
    fn of(sim: &Simulation) -> Self {
        let n = sim.tasks.len();
        // Each task's dependent count lands one slot past it, so that the
        // running sums are each task's end; filling then walks every start
        // up to the end before it, and a shift puts the starts back.
        let mut start = vec![0u32; n + 1];
        for &d in &sim.deps {
            start[d as usize + 1] += 1;
        }
        for t in 0..n {
            start[t + 1] += start[t];
        }
        let mut list = vec![0; sim.deps.len()];
        for (id, task) in sim.tasks.iter().enumerate() {
            for &d in sim.deps_of(task) {
                let slot = &mut start[d as usize];
                list[*slot as usize] = id as u32;
                *slot += 1;
            }
        }
        start.copy_within(0..n, 1);
        start[0] = 0;
        Self { start, list }
    }

    fn of_task(&self, task: TaskId) -> &[u32] {
        &self.list[self.start[task] as usize..self.start[task + 1] as usize]
    }
}

/// Executes one [`Simulation`]. The work per event follows what the event
/// changed: rates are recomputed only after a flow started or finished, and
/// only for the links connected to it; every vector below is sized once in
/// [`Runner::new`] (or grows to a high-water mark) and reused.
///
/// What is alive while it runs: the simulation's task table, fixed since
/// [`Simulation::run`] gave back its spare room; per task, its progress
/// (16 bytes), rate, filling stamps and the timeline record it fills in
/// place; the dependents CSR and the per-link and per-resource lists, all
/// of `u32`. The records, the makespan and the per-link flow lists become
/// the [`Timeline`] as they are, and the rest is dropped.
///
/// The float operations and their order are part of the contract — the
/// timed goldens pin the bits — so every active task still takes
/// `remaining -= rate * dt` on every event, in activation order.
struct Runner<'a> {
    sim: &'a Simulation,
    progress: Vec<Progress>,
    /// Per task, its start and finish as they become known, and its phase.
    records: Vec<TaskRecord>,
    dependents: Dependents,
    /// Per resource, its FIFO queue: the computes that entered it, the
    /// head first. A compute enters once, so a pop advances the start.
    queues: Lists,
    active_flows: Vec<TaskId>,
    active_compute: Vec<TaskId>,
    active_delays: Vec<TaskId>,
    newly_ready: VecDeque<TaskId>,
    /// Tasks that finished in the current event, in completion order.
    completed: Vec<TaskId>,
    /// Per task, the rate it progresses at while active: the resource's rate
    /// for a compute, 1 for a delay (seconds per second), the current
    /// max-min fair share for a flow.
    rate: Vec<f64>,
    /// Per link, the active flows crossing it, one entry per mention in the
    /// flow's path. Order is irrelevant: a filling round subtracts one and
    /// the same share for each entry.
    users: Lists,
    /// Per link, every flow that crosses it: the timeline's occupancy index
    /// and the room of `users`.
    link_tasks: Lists,
    /// Links whose user list changed since the rates were last refreshed.
    dirty: Vec<usize>,
    // Scratch of `refresh_rates`, meaningful only for links of `component`.
    component: Vec<usize>,
    in_component: Vec<bool>,
    cap: Vec<f64>,
    unfrozen: Vec<usize>,
    /// Per flow, the filling round that froze it (0 while unfrozen).
    frozen_in: Vec<u32>,
    /// Per flow, the last refresh that reset it (0: none yet).
    seen_in: Vec<u64>,
    /// Refreshes run so far, the stamp of the current one.
    refreshes: u64,
    now: f64,
    done: usize,
}

impl<'a> Runner<'a> {
    fn new(sim: &'a Simulation) -> Self {
        let n = sim.tasks.len();
        let mut progress = Vec::with_capacity(n);
        let mut records = Vec::with_capacity(n);
        let mut rate = Vec::with_capacity(n);
        // Per resource, the computes that will queue on it.
        let mut queued = vec![0u32; sim.resources.len()];
        for task in &sim.tasks {
            let (remaining, r) = match task.kind {
                TaskKind::Flow { bytes, .. } => (bytes, 0.0),
                TaskKind::Compute { resource, work } => {
                    queued[resource as usize] += u32::from(work > 0.0);
                    (work, sim.resources[resource as usize])
                }
                TaskKind::Delay { seconds } => (seconds, 1.0),
                TaskKind::Barrier => (0.0, 0.0),
            };
            progress.push(Progress { remaining, unmet_deps: task.deps.len() as u32, done: false });
            records.push(TaskRecord { start: 0.0, finish: 0.0, phase: task.phase });
            rate.push(r);
        }
        let links = sim.links.len();
        let link_tasks = sim.link_tasks();
        let users = Lists {
            start: link_tasks.start.clone(),
            end: link_tasks.start.clone(),
            items: vec![0; link_tasks.items.len()],
        };
        Self {
            sim,
            progress,
            records,
            dependents: Dependents::of(sim),
            queues: Lists::with_room(queued),
            active_flows: Vec::new(),
            active_compute: Vec::new(),
            active_delays: Vec::new(),
            newly_ready: VecDeque::new(),
            completed: Vec::new(),
            rate,
            users,
            link_tasks,
            dirty: Vec::new(),
            component: Vec::with_capacity(links),
            in_component: vec![false; links],
            cap: vec![0.0; links],
            unfrozen: vec![0; links],
            frozen_in: vec![0; n],
            seen_in: vec![0; n],
            refreshes: 0,
            now: 0.0,
            done: 0,
        }
    }

    fn run(mut self) -> Result<Timeline, SimError> {
        let n = self.sim.tasks.len();
        // Start every task with no dependencies.
        self.newly_ready.extend((0..n).filter(|&id| self.progress[id].unmet_deps == 0));
        loop {
            // Make ready tasks runnable (may complete zero-work tasks immediately).
            while let Some(id) = self.newly_ready.pop_front() {
                if self.activate(id) {
                    self.complete(id);
                }
            }
            if self.done == n {
                break;
            }
            // Bring the rates up to date, find the next completion, advance time.
            self.refresh_rates();
            let Some(dt) = self.next_step() else {
                let stuck: Vec<usize> = self
                    .progress
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| !p.done)
                    .map(|(i, _)| i)
                    .collect();
                return Err(SimError::DependencyCycle { stuck_tasks: stuck });
            };
            self.advance(dt);
        }
        let (link_start, link_tasks) = self.link_tasks.into_csr();
        Ok(Timeline::new(self.records, self.now, link_start, link_tasks))
    }

    /// Moves a ready task into the running state. Returns `true` if it
    /// completes instantly (barriers, zero-byte flows, zero-work computes).
    fn activate(&mut self, id: TaskId) -> bool {
        self.records[id].start = self.now;
        match self.sim.tasks[id].kind {
            TaskKind::Barrier => return true,
            TaskKind::Flow { bytes, .. } => {
                if bytes <= 0.0 {
                    return true;
                }
                self.active_flows.push(id);
                self.flow_started(id);
            }
            TaskKind::Delay { seconds } => {
                if seconds <= 0.0 {
                    return true;
                }
                self.active_delays.push(id);
            }
            TaskKind::Compute { resource, work } => {
                if work <= 0.0 {
                    return true;
                }
                let r = resource as usize;
                self.queues.push(r, id);
                // Head of queue becomes active.
                if self.queues.of(r).len() == 1 {
                    self.active_compute.push(id);
                }
            }
        }
        false
    }

    /// Marks a task done and appends the dependents that became ready to
    /// `newly_ready`.
    fn complete(&mut self, id: TaskId) {
        self.progress[id].done = true;
        self.records[id].finish = self.now;
        self.done += 1;
        match self.sim.tasks[id].kind {
            // A compute that held its resource hands it to the next in the
            // queue (zero-work computes never enter one).
            TaskKind::Compute { resource, work } if work > 0.0 => {
                let r = resource as usize;
                debug_assert_eq!(
                    self.queues.of(r)[0] as usize,
                    id,
                    "only the head of a queue is ever active"
                );
                self.queues.pop_front(r);
                if let Some(&next) = self.queues.of(r).first() {
                    let next = next as usize;
                    self.records[next].start = self.now;
                    self.active_compute.push(next);
                }
            }
            TaskKind::Flow { bytes, .. } if bytes > 0.0 => self.flow_finished(id),
            _ => {}
        }
        for &dep in self.dependents.of_task(id) {
            let p = &mut self.progress[dep as usize];
            p.unmet_deps -= 1;
            if p.unmet_deps == 0 {
                self.newly_ready.push_back(dep as usize);
            }
        }
    }

    /// Enters an activated flow into the user list of every link it crosses.
    fn flow_started(&mut self, id: TaskId) {
        let sim = self.sim;
        for &l in sim.path_of(&sim.tasks[id]) {
            self.users.push(l as usize, id);
            self.dirty.push(l as usize);
        }
    }

    /// Takes a finished flow out of the user lists again.
    fn flow_finished(&mut self, id: TaskId) {
        let sim = self.sim;
        for &l in sim.path_of(&sim.tasks[id]) {
            self.users.swap_remove(l as usize, id);
            self.dirty.push(l as usize);
        }
    }

    /// Max-min fair rates (progressive filling) for the flows whose share can
    /// have changed since the last call: those in the connected component —
    /// links joined by a shared active flow — of a link that gained or lost
    /// a user. Components do not exchange capacity, so every other flow's
    /// stored rate is still exactly what a full recomputation would give.
    /// Each flow of the component is reset, and its links joined, once: on
    /// the first of its links the walk reaches.
    fn refresh_rates(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        self.refreshes += 1;
        let sim = self.sim;
        let mut join = |component: &mut Vec<usize>, l: usize| {
            if !std::mem::replace(&mut self.in_component[l], true) {
                component.push(l);
            }
        };
        self.component.clear();
        for l in self.dirty.drain(..) {
            join(&mut self.component, l);
        }
        let mut next = 0;
        while next < self.component.len() {
            let l = self.component[next];
            next += 1;
            self.cap[l] = self.sim.links[l];
            self.unfrozen[l] = self.users.of(l).len();
            for &flow in self.users.of(l) {
                let flow = flow as usize;
                if std::mem::replace(&mut self.seen_in[flow], self.refreshes) == self.refreshes {
                    continue;
                }
                self.frozen_in[flow] = 0;
                self.rate[flow] = 0.0;
                for &m in sim.path_of(&sim.tasks[flow]) {
                    join(&mut self.component, m as usize);
                }
            }
        }
        let mut round = 0;
        loop {
            round += 1;
            // The bottleneck is the smallest fair share among links with
            // unfrozen users, the lowest link index on a tie.
            let mut best: Option<(f64, usize)> = None;
            for &l in &self.component {
                if self.unfrozen[l] == 0 {
                    continue;
                }
                let share = self.cap[l] / self.unfrozen[l] as f64;
                if best.map_or(true, |(s, b)| share < s || (share == s && l < b)) {
                    best = Some((share, l));
                }
            }
            let Some((share, bottleneck)) = best else { break };
            // Freeze every flow on that link that was unfrozen when the round
            // began, once per entry: a path that names the link twice is
            // served twice.
            for &flow in self.users.of(bottleneck) {
                let flow = flow as usize;
                if self.frozen_in[flow] != 0 && self.frozen_in[flow] != round {
                    continue;
                }
                self.frozen_in[flow] = round;
                self.rate[flow] = share;
                // Subtract its rate from every link it crosses.
                for &m in sim.path_of(&sim.tasks[flow]) {
                    let m = m as usize;
                    self.cap[m] = (self.cap[m] - share).max(0.0);
                    self.unfrozen[m] = self.unfrozen[m].saturating_sub(1);
                }
            }
        }
        for &l in &self.component {
            self.in_component[l] = false;
        }
    }

    /// Returns the time until the next task completion, or `None` if nothing
    /// is progressing (deadlock if tasks remain).
    fn next_step(&self) -> Option<f64> {
        let mut dt = f64::INFINITY;
        for set in [&self.active_flows, &self.active_compute, &self.active_delays] {
            for &task in set {
                let rate = self.rate[task];
                if rate > 0.0 {
                    dt = dt.min(self.progress[task].remaining / rate);
                }
            }
        }
        dt.is_finite().then_some(dt)
    }

    /// Advances virtual time by `dt`, decrements remaining work and completes
    /// what finished: flows, then computes, then delays, each in activation
    /// order (that order decides the FIFO order on the resources).
    fn advance(&mut self, dt: f64) {
        self.now += dt;
        self.completed.clear();
        for set in [&mut self.active_flows, &mut self.active_compute, &mut self.active_delays] {
            // One order-keeping pass: progress every task, keep the unfinished.
            set.retain(|&task| {
                let rate = self.rate[task];
                let p = &mut self.progress[task];
                p.remaining -= rate * dt;
                let finished = p.remaining <= TIME_EPS * rate.max(1.0);
                if finished {
                    self.completed.push(task);
                }
                !finished
            });
        }
        for i in 0..self.completed.len() {
            self.complete(self.completed[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::borrow::Cow;

    #[test]
    fn max_min_fairness_respects_bottleneck_links() {
        // Two links: A (10 B/s) and B (4 B/s). Flow 1 uses A only, flow 2 uses A+B.
        // Flow 2 is bottlenecked at 4 on B, flow 1 then takes the remaining 6 on A.
        let mut sim = Simulation::new();
        let a = sim.add_link(10.0);
        let b = sim.add_link(4.0);
        let f1 = sim.flow(FlowSpec::new(vec![a], 60.0));
        let f2 = sim.flow(FlowSpec::new(vec![a, b], 40.0));
        let tl = sim.run().unwrap();
        assert!((tl.finish_time(f1) - 10.0).abs() < 1e-6, "got {}", tl.finish_time(f1));
        assert!((tl.finish_time(f2) - 10.0).abs() < 1e-6, "got {}", tl.finish_time(f2));
    }

    #[test]
    fn zero_byte_flow_completes_instantly() {
        let mut sim = Simulation::new();
        let l = sim.add_link(1.0);
        let f = sim.flow(FlowSpec::new(vec![l], 0.0));
        let tl = sim.run().unwrap();
        assert_eq!(tl.finish_time(f), 0.0);
    }

    #[test]
    fn compute_queue_promotes_in_fifo_order() {
        let mut sim = Simulation::new();
        let r = sim.add_resource(2.0);
        let a = sim.compute(ComputeSpec::new(r, 4.0));
        let b = sim.compute(ComputeSpec::new(r, 4.0));
        let c = sim.compute(ComputeSpec::new(r, 4.0));
        let tl = sim.run().unwrap();
        assert!((tl.finish_time(a) - 2.0).abs() < 1e-9);
        assert!((tl.finish_time(b) - 4.0).abs() < 1e-9);
        assert!((tl.finish_time(c) - 6.0).abs() < 1e-9);
        assert!(tl.records()[b].start >= tl.finish_time(a) - 1e-9);
    }

    #[test]
    fn flows_on_disjoint_links_do_not_interfere() {
        let mut sim = Simulation::new();
        let a = sim.add_link(10.0);
        let b = sim.add_link(10.0);
        let f1 = sim.flow(FlowSpec::new(vec![a], 100.0));
        let f2 = sim.flow(FlowSpec::new(vec![b], 100.0));
        let tl = sim.run().unwrap();
        assert!((tl.finish_time(f1) - 10.0).abs() < 1e-9);
        assert!((tl.finish_time(f2) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_bandwidth_scales_with_parallel_links_until_shared_cap() {
        // Model of the RAID0 saturation effect: N private SSD links of 3 B/s
        // all funnel through one shared link of 10 B/s.
        let total_bytes = 300.0;
        let mut finish_times = Vec::new();
        for n in 1..=6usize {
            let mut sim = Simulation::new();
            let shared = sim.add_link(10.0);
            let mut tasks = Vec::new();
            for _ in 0..n {
                let ssd = sim.add_link(3.0);
                tasks.push(sim.flow(FlowSpec::new(vec![shared, ssd], total_bytes / n as f64)));
            }
            let tl = sim.run().unwrap();
            finish_times.push(tl.makespan());
        }
        // 1 SSD: 100s, 2: 50s, 3: 33.3s, 4+: capped by shared link at 30s.
        assert!((finish_times[0] - 100.0).abs() < 1e-6);
        assert!((finish_times[1] - 50.0).abs() < 1e-6);
        assert!((finish_times[3] - 30.0).abs() < 1e-6);
        assert!((finish_times[5] - 30.0).abs() < 1e-6);
    }

    #[test]
    fn timeline_reports_link_occupancy_from_real_flows() {
        let mut sim = Simulation::new();
        let shared = sim.add_link(10.0);
        let private = sim.add_link(10.0);
        let write = sim.add_phase();
        let readback = sim.add_phase();
        let a = sim.flow(FlowSpec::new(vec![shared], 100.0).phase(write));
        let b = sim.flow(FlowSpec::new(vec![shared, private], 100.0).after(&[a]).phase(readback));
        // Zero-byte flows finish instantly and must not pollute occupancy.
        sim.flow(FlowSpec::new(vec![shared], 0.0).phase(write));
        let tl = sim.run().unwrap();
        assert!((tl.finish_time(b) - 20.0).abs() < 1e-9);
        assert!((tl.link_busy_time(shared) - 20.0).abs() < 1e-9);
        assert!((tl.link_busy_time_in_phase(shared, write) - 10.0).abs() < 1e-9);
        assert!((tl.link_busy_time_in_phase(shared, readback) - 10.0).abs() < 1e-9);
        assert!((tl.link_busy_time(private) - 10.0).abs() < 1e-9);
        assert_eq!(tl.link_busy_time_in_phase(private, write), 0.0);
    }

    #[test]
    fn task_labels_are_retrievable() {
        let mut sim = Simulation::new();
        let l = sim.add_link(1.0);
        let a = sim.flow(FlowSpec::new(vec![l], 1.0).label("grad offload"));
        let b = sim.flow(FlowSpec::new(vec![l], 1.0));
        assert_eq!(sim.task_label(a), Some("grad offload"));
        assert_eq!(sim.task_label(b), None);
        assert_eq!(sim.task_label(999), None);
    }

    #[test]
    fn specs_borrow_their_slices_and_a_second_after_extends_them() {
        let mut sim = Simulation::new();
        let a = sim.add_link(10.0);
        let b = sim.add_link(5.0);
        let path = [a, b];
        let first = sim.flow(FlowSpec::new(&path[..1], 10.0));
        let second = sim.delay(DelaySpec::new(1.5));
        let (early, late) = ([first], [second]);
        let spec = FlowSpec::new(&path[..], 10.0).after(&early);
        assert!(matches!((&spec.path, &spec.deps), (Cow::Borrowed(_), Cow::Borrowed(_))));
        let spec = spec.after(&late);
        assert_eq!(*spec.deps, [first, second]);
        let third = sim.flow(spec);
        assert_eq!(sim.deps_of(&sim.tasks[third]), [first as u32, second as u32]);
        assert_eq!(sim.path_of(&sim.tasks[third]), path.map(|l| l.0 as u32));
        assert_eq!(sim.path_of(&sim.tasks[second]), []);
        let tl = sim.run().unwrap();
        // The first flow takes 1 s on link a, the delay 1.5 s; the third
        // then moves 10 B at link b's 5 B/s.
        assert_eq!((tl.records()[third].start, tl.finish_time(third)), (1.5, 3.5));
    }

    #[test]
    fn zero_bandwidth_link_is_a_typed_error() {
        let mut sim = Simulation::new();
        let l = sim.add_link(0.0);
        // Id allocation stays consistent even after the error.
        sim.flow(FlowSpec::new(vec![l], 1.0));
        let err = sim.run().unwrap_err();
        match err {
            SimError::InvalidParameter { message } => {
                assert!(message.contains("bandwidth must be positive"), "got: {message}");
            }
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn unknown_dependency_is_a_typed_error() {
        let mut sim = Simulation::new();
        let l = sim.add_link(1.0);
        sim.flow(FlowSpec::new(vec![l], 1.0).after(&[42]));
        let err = sim.run().unwrap_err();
        assert_eq!(err, SimError::UnknownId { kind: "task", index: 42 });
    }

    #[test]
    fn unknown_link_in_flow_path_is_a_typed_error() {
        let mut sim = Simulation::new();
        sim.flow(FlowSpec::new(vec![LinkId(3)], 1.0));
        let err = sim.run().unwrap_err();
        assert_eq!(err, SimError::UnknownId { kind: "link", index: 3 });
    }

    #[test]
    fn empty_path_flow_with_bytes_is_a_typed_error() {
        let mut sim = Simulation::new();
        // With nothing to move an empty path is legal and finishes at once.
        let idle = sim.flow(FlowSpec::new(vec![], 0.0));
        assert_eq!(sim.run().unwrap().finish_time(idle), 0.0);
        sim.flow(FlowSpec::new(vec![], 1.0));
        match sim.run().unwrap_err() {
            SimError::InvalidParameter { message } => {
                assert!(message.contains("at least one link"), "got: {message}");
            }
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn first_poison_error_wins() {
        let mut sim = Simulation::new();
        sim.add_link(f64::NAN);
        sim.flow(FlowSpec::new(vec![LinkId(9)], -1.0));
        let err = sim.run().unwrap_err();
        assert!(matches!(err, SimError::InvalidParameter { .. }), "got {err:?}");
    }

    impl Runner<'_> {
        /// The reference the incremental rates are held to: max-min fair
        /// allocation recomputed from nothing but the active set, over every
        /// link (the engine's own `flow_rates` before rates became state).
        fn reference_flow_rates(&self) -> Vec<(TaskId, f64)> {
            let mut remaining_cap: Vec<f64> = self.sim.links.clone();
            let mut link_users: Vec<Vec<usize>> = vec![Vec::new(); self.sim.links.len()];
            // Index into active_flows.
            for (fi, &task) in self.active_flows.iter().enumerate() {
                for &l in self.sim.path_of(&self.sim.tasks[task]) {
                    link_users[l as usize].push(fi);
                }
            }
            let n = self.active_flows.len();
            let mut rate = vec![f64::INFINITY; n];
            let mut frozen = vec![false; n];
            let mut unfrozen_on_link: Vec<usize> =
                link_users.iter().map(|users| users.len()).collect();
            loop {
                // Find the bottleneck link: smallest fair share among links with unfrozen users.
                let mut best: Option<(usize, f64)> = None;
                for (li, users) in link_users.iter().enumerate() {
                    if users.is_empty() || unfrozen_on_link[li] == 0 {
                        continue;
                    }
                    let share = remaining_cap[li] / unfrozen_on_link[li] as f64;
                    if best.map_or(true, |(_, s)| share < s) {
                        best = Some((li, share));
                    }
                }
                let Some((bottleneck, share)) = best else { break };
                // Freeze every unfrozen flow on that link at the fair share.
                let users: Vec<usize> =
                    link_users[bottleneck].iter().copied().filter(|&fi| !frozen[fi]).collect();
                for fi in users {
                    frozen[fi] = true;
                    rate[fi] = share;
                    // Subtract its rate from every link it crosses.
                    for &l in self.sim.path_of(&self.sim.tasks[self.active_flows[fi]]) {
                        let l = l as usize;
                        remaining_cap[l] = (remaining_cap[l] - share).max(0.0);
                        unfrozen_on_link[l] = unfrozen_on_link[l].saturating_sub(1);
                    }
                }
            }
            self.active_flows
                .iter()
                .enumerate()
                .map(|(fi, &task)| {
                    let r = if rate[fi].is_finite() { rate[fi] } else { 0.0 };
                    (task, r)
                })
                .collect()
        }

        /// Starts the flow if it is idle, finishes it if it is active, then
        /// requires every active flow's stored rate to equal the reference
        /// bit for bit.
        fn toggle_and_compare(&mut self, flow: TaskId) -> Result<(), String> {
            if let Some(at) = self.active_flows.iter().position(|&t| t == flow) {
                self.active_flows.remove(at);
                self.flow_finished(flow);
            } else {
                self.active_flows.push(flow);
                self.flow_started(flow);
            }
            self.refresh_rates();
            for (task, want) in self.reference_flow_rates() {
                let got = self.rate[task];
                if got.to_bits() != want.to_bits() {
                    return Err(format!("flow {task}: incremental {got:e}, reference {want:e}"));
                }
            }
            Ok(())
        }
    }

    /// One idle flow per path over links of the given bandwidths.
    fn idle_flows(bandwidths: &[f64], paths: &[Vec<usize>]) -> Simulation {
        let mut sim = Simulation::new();
        for &bw in bandwidths {
            sim.add_link(bw);
        }
        for path in paths {
            sim.flow(FlowSpec::new(path.iter().map(|&l| LinkId(l)).collect::<Vec<_>>(), 1.0));
        }
        sim
    }

    #[test]
    fn incremental_rates_follow_merges_splits_ties_and_departures() {
        // Links 0-1 and 2-3 are two islands of equal bandwidth (share ties
        // across links); link 4 is a third; link 5 is slower than the rest.
        let sim = idle_flows(
            &[6.0, 6.0, 6.0, 6.0, 9.0, 1.0],
            &[
                vec![0, 1],       // 0: island A
                vec![1],          // 1: island A
                vec![2, 3],       // 2: island B
                vec![3],          // 3: island B
                vec![4],          // 4: island C, the only user of link 4
                vec![1, 2],       // 5: bridge, merges A and B
                vec![0, 2, 4, 5], // 6: many links, merges everything
                vec![5, 5],       // 7: names a link twice
            ],
        );
        let mut runner = Runner::new(&sim);
        // Starts: three disjoint components, then the merges.
        for flow in 0..8 {
            runner.toggle_and_compare(flow).unwrap();
        }
        assert_eq!(runner.rate[6], 1.0 / 3.0, "the slow link bounds the long flow");
        // Finishes: the bridges go (one component splits into three), then
        // link 4 loses its last user, then the rest.
        for flow in [6, 5, 4, 7, 0, 2, 1, 3] {
            runner.toggle_and_compare(flow).unwrap();
        }
        assert!((0..sim.links.len()).all(|l| runner.users.of(l).is_empty()));
        // A component that nothing touched keeps its rates without being visited.
        runner.toggle_and_compare(3).unwrap();
        let before = runner.rate[3];
        runner.toggle_and_compare(4).unwrap();
        assert_eq!(runner.component, vec![4], "only link 4 was recomputed");
        assert_eq!(runner.rate[3].to_bits(), before.to_bits());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

        /// Random starts and finishes over random link sets: after every
        /// step the per-component incremental rates equal a full
        /// recomputation at `to_bits`. Most flows stay on two neighbouring
        /// links (several disjoint components, equal bandwidths, a link
        /// named twice); every fourth one wanders over up to six links, an
        /// eighth naming its first link again (starts that merge
        /// components, finishes that split them, one flow reached from
        /// several links of its component in one refresh).
        #[test]
        fn incremental_rates_equal_a_full_recomputation_bit_for_bit(
            bandwidths in vec(prop_oneof![Just(1.0), Just(3.0), Just(3.0), Just(7.5), Just(16e9)], 2..14),
            shapes in vec((0usize..64, vec(0usize..14, 1..6)), 1..24),
            toggles in vec(0usize..1000, 1..96),
        ) {
            let links = bandwidths.len();
            let paths: Vec<Vec<usize>> = shapes
                .iter()
                .map(|(anchor, hops)| {
                    if anchor % 4 == 0 {
                        let mut path: Vec<usize> = hops.iter().map(|h| h % links).collect();
                        if anchor % 8 == 0 {
                            path.push(path[0]);
                        }
                        path
                    } else {
                        hops.iter().take(2).map(|h| (anchor + h % 2) % links).collect()
                    }
                })
                .collect();
            let sim = idle_flows(&bandwidths, &paths);
            let mut runner = Runner::new(&sim);
            for toggle in toggles {
                let outcome = runner.toggle_and_compare(toggle % paths.len());
                prop_assert!(outcome.is_ok(), "{} (paths {:?})", outcome.unwrap_err(), paths);
            }
        }
    }
}
