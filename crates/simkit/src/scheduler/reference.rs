//! The executor as it was before the CSR ready counts, kept as the reference
//! [`super::execute`] is held to: a Kahn pass that builds `Vec<Vec<usize>>`
//! over [`predecessors`], an `is_ready` that scans the predecessors of
//! every offered task, a fresh dependency list per decision, and a fresh
//! decision buffer per callback. Same sweep order, same errors, same
//! [`Lowering`] calls.

use super::*;
use crate::dag::DataId;

/// Structural predecessors of a task: hard-input producers first (in
/// declaration order), then after-edges. May contain duplicates.
pub(super) fn predecessors(dag: &Dag, id: DagTaskId) -> Vec<DagTaskId> {
    let producer = |d: &DataId| dag.data(*d).expect("validated id").producer;
    let mut preds: Vec<DagTaskId> = dag.inputs(id).iter().map(producer).collect();
    preds.extend_from_slice(dag.after(id));
    preds
}

/// The concrete simulation tasks one DAG task lowered to.
#[derive(Debug, Clone)]
struct Lowered {
    main: TaskId,
    per_site: Vec<(u32, u32)>,
}

impl Lowered {
    fn at_site(&self, site: u32) -> Option<TaskId> {
        self.per_site.iter().find(|(s, _)| *s == site).map(|&(_, t)| t as TaskId)
    }
}

/// What an executor returns, task by task: the main task and the per-site
/// sub-results.
pub(super) type Outcome = Vec<(TaskId, Vec<(u32, u32)>)>;

struct Executor<'a> {
    dag: &'a Dag,
    resources: &'a [Resource],
    lowered: Vec<Option<Lowered>>,
    scheduled: Vec<bool>,
    deferred: Vec<bool>,
    done: usize,
}

impl Executor<'_> {
    fn is_ready(&self, task: usize) -> bool {
        predecessors(self.dag, DagTaskId(task as u32))
            .iter()
            .all(|p| self.scheduled.get(p.index()).copied().unwrap_or(false))
    }

    fn resolve_anchor(&self, anchor: Anchor) -> Result<TaskId, SimError> {
        match anchor {
            Anchor::Task(t) => match self.lowered.get(t.index()).and_then(|l| l.as_ref()) {
                Some(l) => Ok(l.main),
                None => Err(SimError::InvalidParameter {
                    message: format!("anchor references unscheduled dag task {}", t.index()),
                }),
            },
            Anchor::TaskAtSite(t, site) => {
                let Some(l) = self.lowered.get(t.index()).and_then(|l| l.as_ref()) else {
                    return Err(SimError::InvalidParameter {
                        message: format!("anchor references unscheduled dag task {}", t.index()),
                    });
                };
                l.at_site(site).ok_or_else(|| SimError::InvalidParameter {
                    message: format!(
                        "dag task {} has no lowered sub-result at site {site}",
                        t.index()
                    ),
                })
            }
        }
    }

    fn resolve_deps(&self, decision: &ScheduleDecision<'_>) -> Result<Vec<TaskId>, SimError> {
        let idx = decision.task.index();
        let mut deps = Vec::new();
        for &input in self.dag.inputs(decision.task) {
            let item = self.dag.data(input).expect("validated id");
            let produced = self.lowered[item.producer.index()].as_ref().ok_or_else(|| {
                SimError::InvalidParameter {
                    message: format!(
                        "dag task {idx} scheduled before the producer of its input {}",
                        input.index()
                    ),
                }
            })?;
            let dep = match item.site {
                Some(site) => produced.at_site(site).unwrap_or(produced.main),
                None => produced.main,
            };
            deps.push(dep);
        }
        for &pred in self.dag.after(decision.task) {
            let produced =
                self.lowered[pred.index()].as_ref().ok_or_else(|| SimError::InvalidParameter {
                    message: format!("dag task {idx} scheduled before its predecessor"),
                })?;
            deps.push(produced.main);
        }
        for &anchor in decision.after.iter() {
            deps.push(self.resolve_anchor(anchor)?);
        }
        Ok(deps)
    }

    fn apply(
        &mut self,
        decisions: Vec<Decision<'_>>,
        lowering: &mut dyn Lowering,
    ) -> Result<bool, SimError> {
        let mut progress = false;
        for decision in decisions {
            match decision {
                Decision::Defer(t) => {
                    if t.index() >= self.dag.len() {
                        return Err(SimError::UnknownId { kind: "dag task", index: t.index() });
                    }
                    if !self.scheduled[t.index()] {
                        self.deferred[t.index()] = true;
                    }
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
                    if !self.is_ready(idx) {
                        return Err(SimError::InvalidParameter {
                            message: format!(
                                "scheduler scheduled dag task {idx} before its structural \
                                 predecessors"
                            ),
                        });
                    }
                    let mut deps = self.resolve_deps(&sd)?;
                    if let Some(setup) = &sd.setup {
                        let mut setup_deps = Vec::new();
                        for &anchor in setup.after.iter() {
                            setup_deps.push(self.resolve_anchor(anchor)?);
                        }
                        let phase = self.dag.task(sd.task).expect("validated id").phase;
                        let delay = lowering.lower_delay(setup.seconds, &setup_deps, phase)?;
                        deps.push(delay);
                    }
                    let mut per_site = Vec::new();
                    let main = lowering.lower(
                        self.dag,
                        sd.task,
                        sd.scatter.as_ref(),
                        &deps,
                        &mut per_site,
                    )?;
                    self.lowered[idx] = Some(Lowered { main, per_site });
                    self.scheduled[idx] = true;
                    self.deferred[idx] = false;
                    self.done += 1;
                    progress = true;
                }
            }
        }
        Ok(progress)
    }
}

/// Kahn's algorithm over [`predecessors`]. The graphs the tests build
/// are never poisoned, so the poison check of [`Dag::validate`] is left out.
fn validate(dag: &Dag) -> Result<(), SimError> {
    let n = dag.len();
    let mut indegree = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (id, degree) in indegree.iter_mut().enumerate() {
        for pred in predecessors(dag, DagTaskId(id as u32)) {
            *degree += 1;
            dependents[pred.index()].push(id);
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut visited = 0usize;
    while let Some(t) = ready.pop() {
        visited += 1;
        for &d in &dependents[t] {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                ready.push(d);
            }
        }
    }
    if visited != n {
        let stuck: Vec<usize> = (0..n).filter(|&i| indegree[i] > 0).collect();
        return Err(SimError::DependencyCycle { stuck_tasks: stuck });
    }
    Ok(())
}

/// `plan`, owning its transfers.
fn owned_plan(plan: ScatterPlan<'_>) -> ScatterPlan<'static> {
    ScatterPlan { transfers: Cow::Owned(plan.transfers.into_owned()), join: plan.join }
}

/// `decision`, owning its anchors and placement: the old executor kept a
/// callback's decisions and applied them after it returned.
fn owned(decision: Decision<'_>) -> Decision<'static> {
    match decision {
        Decision::Defer(t) => Decision::Defer(t),
        Decision::Schedule(sd) => Decision::Schedule(ScheduleDecision {
            task: sd.task,
            after: Cow::Owned(sd.after.into_owned()),
            scatter: sd.scatter.map(owned_plan),
            setup: sd.setup.map(|setup| SetupDelay {
                seconds: setup.seconds,
                after: Cow::Owned(setup.after.into_owned()),
            }),
        }),
    }
}

/// The old body of [`super::execute`].
pub(super) fn execute(
    dag: &Dag,
    resources: &[Resource],
    scheduler: &mut dyn Scheduler,
    lowering: &mut dyn Lowering,
) -> Result<Outcome, SimError> {
    validate(dag)?;
    let n = dag.len();
    let mut exec = Executor {
        dag,
        resources,
        lowered: (0..n).map(|_| None).collect(),
        scheduled: vec![false; n],
        deferred: vec![false; n],
        done: 0,
    };
    let mut sites: Vec<u32> = dag
        .tasks()
        .iter()
        .flat_map(|t| match t.work {
            DagWork::Compute { site, .. } => vec![site],
            DagWork::Transfer { from, to, .. } => vec![from, to],
            _ => Vec::new(),
        })
        .filter(|&s| s != SITE_STORAGE)
        .collect();
    sites.sort_unstable();
    sites.dedup();

    while exec.done < n {
        let mut progress = false;
        for t in 0..n {
            if exec.scheduled[t] || exec.deferred[t] || !exec.is_ready(t) {
                continue;
            }
            let mut decisions = Vec::new();
            let view = SystemView { resources: exec.resources };
            let task = DagTaskId(t as u32);
            scheduler.on_task_ready(task, dag, &view, &mut |d| decisions.push(owned(d)));
            progress |= exec.apply(decisions, lowering)?;
        }
        if exec.done == n || progress {
            continue;
        }
        let mut freed = false;
        for &site in &sites {
            let mut decisions = Vec::new();
            let view = SystemView { resources: exec.resources };
            scheduler.on_resource_free(site, dag, &view, &mut |d| decisions.push(owned(d)));
            freed |= exec.apply(decisions, lowering)?;
        }
        if !freed {
            let pending: Vec<usize> = (0..n).filter(|&t| !exec.scheduled[t]).collect();
            return Err(SimError::SchedulerStalled { pending_tasks: pending });
        }
    }
    Ok(exec
        .lowered
        .into_iter()
        .map(|l| l.expect("all tasks scheduled"))
        .map(|l| (l.main, l.per_site))
        .collect())
}

mod tests {
    use super::super::execute as csr_execute;
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// One call a [`Recorder`] received.
    #[derive(Debug, Clone, PartialEq)]
    enum Call {
        Lower { task: usize, scatter: Option<ScatterPlan<'static>>, deps: Vec<TaskId> },
        Delay { seconds: f64, deps: Vec<TaskId>, phase: Option<PhaseId> },
    }

    /// A lowering that records every call and hands out consecutive ids:
    /// one per scatter flow, then the main.
    #[derive(Default)]
    struct Recorder {
        calls: Vec<Call>,
        next: TaskId,
    }

    impl Recorder {
        fn id(&mut self) -> TaskId {
            self.next += 1;
            self.next - 1
        }
    }

    impl Lowering for Recorder {
        fn lower(
            &mut self,
            _dag: &Dag,
            task: DagTaskId,
            scatter: Option<&ScatterPlan<'_>>,
            deps: &[TaskId],
            per_site: &mut Vec<(u32, u32)>,
        ) -> Result<TaskId, SimError> {
            self.calls.push(Call::Lower {
                task: task.index(),
                scatter: scatter.cloned().map(owned_plan),
                deps: deps.to_vec(),
            });
            for &(site, _) in scatter.map_or(&[][..], |p| &p.transfers) {
                per_site.push((site, self.id() as u32));
            }
            Ok(self.id())
        }

        fn lower_delay(
            &mut self,
            seconds: f64,
            deps: &[TaskId],
            phase: Option<PhaseId>,
        ) -> Result<TaskId, SimError> {
            self.calls.push(Call::Delay { seconds, deps: deps.to_vec(), phase });
            Ok(self.id())
        }
    }

    /// The two scatter sites of the storage class.
    const STORAGE_SITES: [u32; 2] = [10, 11];

    /// A graph of `n` tasks of every work kind, one output each, and edges
    /// drawn from `dice`: hard inputs, after-edges and soft inputs, mostly
    /// to an earlier task, now and then to any task (a higher id, itself, a
    /// cycle), now and then declared twice. The edges are declared taking
    /// turns from the two ends of the list, so a task's edges are often
    /// extended after a later task's (the arenas move its run to the tail).
    fn random_dag(n: usize, dice: &[u32]) -> Dag {
        let mut roll = dice.iter().copied().cycle();
        let mut roll = move || roll.next().expect("dice are never empty") as usize;
        let mut dag = Dag::new();
        let mut outputs = Vec::with_capacity(n);
        for _ in 0..n {
            let r = roll();
            let work = match r % 5 {
                0 => DagWork::Compute { site: (r / 5 % 4) as u32, amount: 1.0 },
                1 => DagWork::Transfer {
                    from: (r / 5 % 4) as u32,
                    to: (r / 20 % 4) as u32,
                    bytes: 8.0,
                },
                2 => DagWork::Transfer { from: 0, to: SITE_STORAGE, bytes: 8.0 },
                3 => DagWork::Delay { seconds: 0.5 },
                _ => DagWork::Join,
            };
            let t = dag.add_task(work);
            if r % 3 == 0 {
                dag.set_phase(t, PhaseId((r % 2) as u32));
            }
            let site = [None, Some(0), Some(STORAGE_SITES[1])][r / 7 % 3];
            outputs.push(dag.add_output(t, 8.0, site));
        }
        let mut edges = std::collections::VecDeque::new();
        for t in 0..n {
            for _ in 0..roll() % 4 {
                let e = roll();
                let src = if e % 19 == 0 {
                    e / 4 % n
                } else if t > 0 {
                    e / 4 % t
                } else {
                    continue;
                };
                edges.push_back((DagTaskId(t as u32), e, src));
            }
        }
        let mut front = true;
        while let Some((task, e, src)) = if front { edges.pop_front() } else { edges.pop_back() } {
            front = !front;
            for _ in 0..1 + usize::from(e % 7 == 0) {
                match e % 4 {
                    0 | 1 => dag.connect(task, outputs[src]),
                    2 => dag.add_after(task, DagTaskId(src as u32)),
                    _ => dag.connect_soft(task, outputs[src]),
                }
            }
        }
        dag
    }

    /// A deterministic policy driven by `dice`, shaped like `DeferUntilFree`:
    /// it defers non-compute work until a stall and then releases the first
    /// unscheduled task whose predecessors are all scheduled, waits for soft
    /// inputs, anchors them on their producers (per site when scattered),
    /// charges setup delays and scatters storage transfers; now and then it
    /// schedules a task twice or a task that is not ready, or holds
    /// everything at a stall. It logs every callback it gets.
    struct DicePolicy<'d> {
        dice: &'d [u32],
        next: usize,
        log: Vec<(bool, usize)>,
        /// The tasks it has scheduled; a run ends at the first decision the
        /// executor rejects, so this is the executor's record too.
        scheduled: Vec<bool>,
    }

    impl DicePolicy<'_> {
        fn roll(&mut self) -> usize {
            self.next += 1;
            self.dice[(self.next - 1) % self.dice.len()] as usize
        }

        fn decision(&mut self, task: DagTaskId, dag: &Dag) -> ScheduleDecision<'static> {
            self.scheduled[task.index()] = true;
            let r = self.roll();
            let node = dag.task(task).expect("offered tasks exist");
            let mut d = ScheduleDecision::new(task);
            for &item in dag.soft_inputs(task) {
                let producer = dag.data(item).expect("connected items exist").producer;
                let scattered = matches!(
                    dag.task(producer).expect("producers exist").work,
                    DagWork::Transfer { to: SITE_STORAGE, .. }
                );
                d = d.after(if scattered && r % 2 == 0 {
                    Anchor::TaskAtSite(producer, STORAGE_SITES[r / 2 % 2])
                } else {
                    Anchor::Task(producer)
                });
            }
            if let DagWork::Transfer { to: SITE_STORAGE, bytes, .. } = node.work {
                let transfers = match r / 4 % 3 {
                    0 => vec![(STORAGE_SITES[1], bytes)],
                    1 => STORAGE_SITES.iter().map(|&s| (s, bytes / 2.0)).collect(),
                    _ => Vec::new(),
                };
                d = d.scatter(ScatterPlan { transfers: transfers.into(), join: r % 3 == 0 });
            }
            if r % 5 == 0 {
                let after = d.after.clone();
                d = d.setup(SetupDelay { seconds: 0.25, after });
            }
            d
        }
    }

    impl Scheduler for DicePolicy<'_> {
        fn name(&self) -> &'static str {
            "dice"
        }

        fn on_task_ready(
            &mut self,
            task: DagTaskId,
            dag: &Dag,
            _system: &SystemView<'_>,
            out: &mut dyn FnMut(Decision<'_>),
        ) {
            self.log.push((true, task.index()));
            self.scheduled.resize(dag.len(), false);
            let r = self.roll();
            let schedule = |id| Decision::Schedule(ScheduleDecision::new(id));
            match r % 40 {
                0 => {
                    out(schedule(task));
                    return out(schedule(task));
                }
                1 => {
                    let id = DagTaskId((r / 40 % dag.len()) as u32);
                    self.scheduled[id.index()] = true;
                    return out(schedule(id));
                }
                _ => {}
            }
            let node = dag.task(task).expect("offered tasks exist");
            if !matches!(node.work, DagWork::Compute { .. }) && r % 4 == 0 {
                return out(Decision::Defer(task));
            }
            let soft_ready = dag.soft_inputs(task).iter().all(|&item| {
                self.scheduled[dag.data(item).expect("connected items exist").producer.index()]
            });
            if soft_ready {
                out(Decision::Schedule(self.decision(task, dag)));
            }
        }

        fn on_resource_free(
            &mut self,
            site: u32,
            dag: &Dag,
            _system: &SystemView<'_>,
            out: &mut dyn FnMut(Decision<'_>),
        ) {
            self.log.push((false, site as usize));
            self.scheduled.resize(dag.len(), false);
            if self.roll() % 8 == 0 {
                return;
            }
            for idx in 0..dag.len() {
                let id = DagTaskId(idx as u32);
                let ready = predecessors(dag, id).iter().all(|p| self.scheduled[p.index()]);
                if !self.scheduled[idx] && ready {
                    return out(Decision::Schedule(self.decision(id, dag)));
                }
            }
        }
    }

    type Execute =
        fn(&Dag, &[Resource], &mut dyn Scheduler, &mut dyn Lowering) -> Result<Outcome, SimError>;

    /// The executor under test, its outcome spelled as the reference's.
    fn csr_outcome(
        dag: &Dag,
        resources: &[Resource],
        scheduler: &mut dyn Scheduler,
        lowering: &mut dyn Lowering,
    ) -> Result<Outcome, SimError> {
        let outcome = csr_execute(dag, resources, scheduler, lowering)?;
        let lowered = &outcome.lowered;
        Ok(lowered
            .tasks
            .iter()
            .map(|l| l.expect("all tasks scheduled"))
            .map(|(main, sites)| (main as usize, sites.of(&lowered.per_site).to_vec()))
            .collect())
    }

    /// Everything an executor shows: what it returned, every lowering call
    /// and every scheduler callback, in order.
    type Trace = (Result<Outcome, SimError>, Vec<Call>, Vec<(bool, usize)>);

    fn trace(execute: Execute, dag: &Dag, scheduler: &mut DicePolicy<'_>) -> Trace {
        let mut recorder = Recorder::default();
        let outcome = execute(dag, &[], scheduler, &mut recorder);
        (outcome, recorder.calls, std::mem::take(&mut scheduler.log))
    }

    fn both(dag: &Dag, dice: &[u32]) -> (Trace, Trace) {
        let csr = trace(
            csr_outcome,
            dag,
            &mut DicePolicy { dice, next: 0, log: Vec::new(), scheduled: Vec::new() },
        );
        let old = trace(
            execute,
            dag,
            &mut DicePolicy { dice, next: 0, log: Vec::new(), scheduled: Vec::new() },
        );
        (csr, old)
    }

    /// A policy whose decision for a task is a function of the task and
    /// the dice: soft inputs anchored on their producers (per site, now and
    /// then, when scattered), storage transfers scattered over none, one or
    /// both storage sites, joined or not, and now and then a setup delay.
    /// It hands a decision over once the producers of the task's soft
    /// inputs are scheduled, and previews the same decision.
    struct PurePolicy<'d> {
        dice: &'d [u32],
        scheduled: Vec<bool>,
    }

    impl PurePolicy<'_> {
        fn decision(&self, task: DagTaskId, dag: &Dag) -> ScheduleDecision<'static> {
            let r = self.dice[task.index() % self.dice.len()] as usize + task.index();
            let mut d = ScheduleDecision::new(task);
            for &item in dag.soft_inputs(task) {
                let producer = dag.data(item).expect("connected items exist").producer;
                let scattered = matches!(
                    dag.task(producer).expect("producers exist").work,
                    DagWork::Transfer { to: SITE_STORAGE, .. }
                );
                d = d.after(if scattered && r % 2 == 0 {
                    Anchor::TaskAtSite(producer, STORAGE_SITES[r / 2 % 2])
                } else {
                    Anchor::Task(producer)
                });
            }
            if let DagWork::Transfer { to: SITE_STORAGE, bytes, .. } = dag.task(task).unwrap().work
            {
                let transfers = match r / 4 % 3 {
                    0 => vec![(STORAGE_SITES[1], bytes)],
                    1 => STORAGE_SITES.iter().map(|&s| (s, bytes / 2.0)).collect(),
                    _ => Vec::new(),
                };
                d = d.scatter(ScatterPlan { transfers: transfers.into(), join: r % 3 == 0 });
            }
            if r % 5 == 0 {
                let after = d.after.clone();
                d = d.setup(SetupDelay { seconds: 0.25, after });
            }
            d
        }
    }

    impl Scheduler for PurePolicy<'_> {
        fn name(&self) -> &'static str {
            "pure"
        }

        fn on_task_ready(
            &mut self,
            task: DagTaskId,
            dag: &Dag,
            _system: &SystemView<'_>,
            out: &mut dyn FnMut(Decision<'_>),
        ) {
            self.scheduled.resize(dag.len(), false);
            let producer = |item: &DataId| dag.data(*item).expect("connected").producer.index();
            if dag.soft_inputs(task).iter().all(|item| self.scheduled[producer(item)]) {
                self.scheduled[task.index()] = true;
                out(Decision::Schedule(self.decision(task, dag)));
            }
        }

        fn preview(&mut self, task: DagTaskId, dag: &Dag, out: &mut dyn FnMut(Decision<'_>)) {
            out(Decision::Schedule(self.decision(task, dag)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Over random graphs, a policy that previews its decisions gets a
        /// simulation reserved for exactly what its lowering fills, over
        /// routes of one to three links, whenever the graph lowers.
        #[test]
        fn a_previewed_lowering_fills_exactly_what_it_reserved(
            n in 1usize..24,
            dice in vec(0u32..1_000_000, 8..96),
        ) {
            let dag = random_dag(n, &dice);
            let mut sim = Simulation::new();
            let links: Vec<LinkId> = (0..3).map(|_| sim.add_link(1.0)).collect();
            let resources: Vec<ResourceId> = (0..4).map(|_| sim.add_resource(1.0)).collect();
            let mut lowering = DirectLowering::new(&mut sim);
            let sites = (0..4).chain(STORAGE_SITES);
            for (from, to) in sites.clone().flat_map(|a| sites.clone().map(move |b| (a, b))) {
                let hops = 1 + (from + to) as usize % 3;
                lowering.map_route(from, to, links[..hops].to_vec());
            }
            for (site, &resource) in (0..).zip(&resources) {
                lowering.map_site(site, resource);
            }
            let mut policy = PurePolicy { dice: &dice, scheduled: Vec::new() };
            if csr_execute(&dag, &[], &mut policy, &mut lowering).is_ok() {
                let (filled, reserved) = sim.filled();
                prop_assert_eq!(Some(filled), reserved);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Over random graphs and a random deferring, faulty policy, the
        /// executor makes the reference's lowering calls with the same deps,
        /// sees the same callbacks, and returns the same outcome or error.
        #[test]
        fn the_executor_matches_the_reference_call_for_call(
            n in 1usize..24,
            dice in vec(0u32..1_000_000, 8..96),
        ) {
            let dag = random_dag(n, &dice);
            let (csr, old) = both(&dag, &dice);
            prop_assert_eq!(csr, old);
        }
    }

    /// Each error the reference raises, raised the same way: scheduled
    /// before its predecessors, scheduled twice, a stall with its pending
    /// list, a cycle with its stuck list.
    #[test]
    fn the_executor_matches_the_reference_on_every_error() {
        let mut kinds = [0usize; 5];
        for seed in 0..2000u32 {
            let dice: Vec<u32> =
                (0..48u32).map(|i| (seed * 48 + i).wrapping_mul(2_654_435_761) >> 8).collect();
            let dag = random_dag(1 + seed as usize % 16, &dice);
            let (csr, old) = both(&dag, &dice);
            assert_eq!(csr, old, "seed {seed}");
            let kind = match &csr.0 {
                Ok(_) => 0,
                Err(SimError::InvalidParameter { message }) if message.contains("twice") => 1,
                Err(SimError::InvalidParameter { message }) if message.contains("before its") => 2,
                Err(SimError::SchedulerStalled { .. }) => 3,
                Err(SimError::DependencyCycle { .. }) => 4,
                Err(_) => continue,
            };
            kinds[kind] += 1;
        }
        assert!(
            kinds.iter().all(|&k| k > 0),
            "outcomes seen (ok, twice, early, stall, cycle): {kinds:?}"
        );
    }
}
