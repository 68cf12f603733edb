//! The executor as a plain reading of its contract, kept as the reference
//! [`super::execute`] is held to: each task's decisions are collected into a
//! fresh buffer and applied once its callback returns, each lowered task
//! keeps its own list of per-site sub-results, and each decision resolves a
//! fresh dependency list. Same callbacks, same errors, same [`Lowering`]
//! calls.

use super::*;

/// The concrete simulation tasks one DAG task lowered to.
struct Lowered {
    main: TaskId,
    per_site: Vec<(u32, u32)>,
}

/// What an executor returns, task by task: the main task and the per-site
/// sub-results.
pub(super) type Outcome = Vec<(TaskId, Vec<(u32, u32)>)>;

fn resolve_anchor(lowered: &[Lowered], anchor: Anchor) -> Result<TaskId, SimError> {
    let (t, site) = match anchor {
        Anchor::Task(t) => (t, None),
        Anchor::TaskAtSite(t, site) => (t, Some(site)),
    };
    let Some(l) = lowered.get(t.index()) else {
        return Err(SimError::InvalidParameter {
            message: format!("anchor references unscheduled dag task {}", t.index()),
        });
    };
    match site {
        None => Ok(l.main),
        Some(site) => at_site(&l.per_site, site).ok_or_else(|| SimError::InvalidParameter {
            message: format!("dag task {} has no lowered sub-result at site {site}", t.index()),
        }),
    }
}

fn apply(
    dag: &Dag,
    lowered: &mut Vec<Lowered>,
    sd: &ScheduleDecision<'_>,
    lowering: &mut dyn Lowering,
) -> Result<(), SimError> {
    if let Some(plan) = &sd.scatter {
        let mut sites: Vec<u32> = plan.transfers.iter().map(|&(site, _)| site).collect();
        sites.sort_unstable();
        if let Some(w) = sites.windows(2).find(|w| w[0] == w[1]) {
            return Err(SimError::InvalidParameter {
                message: format!(
                    "scatter plan of dag task {} names site {} twice",
                    sd.task.index(),
                    w[0]
                ),
            });
        }
    }
    let mut deps = Vec::new();
    for &input in dag.inputs(sd.task) {
        let item = dag.data(input).expect("validated id");
        let produced = &lowered[item.producer.index()];
        deps.push(item.site.and_then(|s| at_site(&produced.per_site, s)).unwrap_or(produced.main));
    }
    deps.extend(dag.after(sd.task).iter().map(|pred| lowered[pred.index()].main));
    for &anchor in sd.after.iter() {
        deps.push(resolve_anchor(lowered, anchor)?);
    }
    if let Some(setup) = &sd.setup {
        let mut setup_deps = Vec::new();
        for &anchor in setup.after.iter() {
            setup_deps.push(resolve_anchor(lowered, anchor)?);
        }
        let phase = dag.task(sd.task).expect("validated id").phase;
        deps.push(lowering.lower_delay(setup.seconds, &setup_deps, phase)?);
    }
    let mut per_site = Vec::new();
    let main = lowering.lower(dag, sd.task, sd.scatter.as_ref(), &deps, &mut per_site)?;
    lowered.push(Lowered { main, per_site });
    Ok(())
}

/// `plan`, owning its transfers.
fn owned_plan(plan: ScatterPlan<'_>) -> ScatterPlan<'static> {
    ScatterPlan { transfers: Cow::Owned(plan.transfers.into_owned()), join: plan.join }
}

/// `decision`, owning its anchors and placement, so it outlives the
/// callback that handed it over.
fn owned(sd: ScheduleDecision<'_>) -> ScheduleDecision<'static> {
    ScheduleDecision {
        task: sd.task,
        after: Cow::Owned(sd.after.into_owned()),
        scatter: sd.scatter.map(owned_plan),
        setup: sd.setup.map(|setup| SetupDelay {
            seconds: setup.seconds,
            after: Cow::Owned(setup.after.into_owned()),
        }),
    }
}

/// The executor's contract, read plainly. The graphs the tests build are
/// never poisoned, so the check of [`Dag::validate`] is left out, and
/// nothing is reserved: the first pass only asks.
pub(super) fn execute(
    dag: &Dag,
    resources: &[Resource],
    scheduler: &mut dyn Scheduler,
    lowering: &mut dyn Lowering,
) -> Result<Outcome, SimError> {
    let view = SystemView { resources };
    for t in 0..dag.len() {
        scheduler.decide(DagTaskId(t as u32), dag, &view, &mut |_| {});
    }
    let mut lowered = Vec::new();
    for t in 0..dag.len() {
        let task = DagTaskId(t as u32);
        let mut decisions = Vec::new();
        scheduler.decide(task, dag, &view, &mut |sd| decisions.push(owned(sd)));
        if decisions.is_empty() {
            return Err(SimError::InvalidParameter {
                message: format!("scheduler made no decision for dag task {t}"),
            });
        }
        for (i, sd) in decisions.iter().enumerate() {
            let message = if sd.task != task {
                format!("scheduler offered dag task {t} decided dag task {}", sd.task.index())
            } else if i > 0 {
                format!("scheduler scheduled dag task {t} twice")
            } else {
                apply(dag, &mut lowered, sd, lowering)?;
                continue;
            };
            return Err(SimError::InvalidParameter { message });
        }
    }
    Ok(lowered.into_iter().map(|l| (l.main, l.per_site)).collect())
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
    /// drawn from `dice`: hard inputs, after-edges and soft inputs, each to
    /// an earlier task, now and then declared twice. The edges are declared
    /// taking turns from the two ends of the list, so a task's edges are
    /// often extended after a later task's (the arenas move its run to the
    /// tail).
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
        for t in 1..n {
            for _ in 0..roll() % 4 {
                let e = roll();
                edges.push_back((DagTaskId(t as u32), e, e / 4 % t));
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

    /// The decision roll `r` draws for `task`: soft inputs anchored on
    /// their producers (per site, now and then, when scattered), storage
    /// transfers scattered over none, one or both storage sites, joined or
    /// not, now and then a setup delay, and now and then an anchor on any
    /// task (one not lowered yet, or itself).
    fn dice_decision(task: DagTaskId, dag: &Dag, r: usize) -> ScheduleDecision<'static> {
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
        if r % 23 == 0 {
            d = d.after(Anchor::Task(DagTaskId((r / 23 % dag.len()) as u32)));
        }
        if let DagWork::Transfer { to: SITE_STORAGE, bytes, .. } = dag.task(task).unwrap().work {
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

    /// A deterministic policy driven by `dice`, rolled once per call: it
    /// hands over the decision its roll draws ([`dice_decision`]), and now
    /// and then a second decision, a decision for another task, or none.
    /// It logs every task it is asked about.
    struct DicePolicy<'d> {
        dice: &'d [u32],
        next: usize,
        log: Vec<usize>,
    }

    impl Scheduler for DicePolicy<'_> {
        fn name(&self) -> &'static str {
            "dice"
        }

        fn decide(
            &mut self,
            task: DagTaskId,
            dag: &Dag,
            _system: &SystemView<'_>,
            out: &mut dyn FnMut(ScheduleDecision<'_>),
        ) {
            self.log.push(task.index());
            self.next += 1;
            let r = self.dice[(self.next - 1) % self.dice.len()] as usize;
            match r % 40 {
                0 => {
                    out(dice_decision(task, dag, r));
                    out(ScheduleDecision::new(task));
                }
                1 => out(ScheduleDecision::new(DagTaskId((r / 40 % dag.len()) as u32))),
                2 => {}
                _ => out(dice_decision(task, dag, r)),
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
        Ok((0..dag.len())
            .map(|t| lowered.get(t).expect("every task is lowered"))
            .map(|(main, sites)| (main, sites.to_vec()))
            .collect())
    }

    /// Everything an executor shows: what it returned, every lowering call
    /// and every scheduler callback, in order.
    type Trace = (Result<Outcome, SimError>, Vec<Call>, Vec<usize>);

    fn trace(execute: Execute, dag: &Dag, dice: &[u32]) -> Trace {
        let mut recorder = Recorder::default();
        let mut policy = DicePolicy { dice, next: 0, log: Vec::new() };
        let outcome = execute(dag, &[], &mut policy, &mut recorder);
        (outcome, recorder.calls, policy.log)
    }

    /// The dice decision for each task, the same on every call.
    struct PurePolicy<'d> {
        dice: &'d [u32],
    }

    impl Scheduler for PurePolicy<'_> {
        fn name(&self) -> &'static str {
            "pure"
        }

        fn decide(
            &mut self,
            task: DagTaskId,
            dag: &Dag,
            _system: &SystemView<'_>,
            out: &mut dyn FnMut(ScheduleDecision<'_>),
        ) {
            let r = self.dice[task.index() % self.dice.len()] as usize + task.index();
            out(dice_decision(task, dag, r));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Over random graphs, a policy gets a simulation reserved for
        /// exactly what its lowering fills, over routes of one to three
        /// links, whenever the graph lowers.
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
            let mut policy = PurePolicy { dice: &dice };
            if csr_execute(&dag, &[], &mut policy, &mut lowering).is_ok() {
                let (filled, reserved) = sim.filled();
                prop_assert_eq!(Some(filled), reserved);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Over random graphs and a random, faulty policy, the executor
        /// makes the reference's lowering calls with the same deps, asks the
        /// same tasks, and returns the same outcome or error.
        #[test]
        fn the_executor_matches_the_reference_call_for_call(
            n in 1usize..24,
            dice in vec(0u32..1_000_000, 8..96),
        ) {
            let dag = random_dag(n, &dice);
            prop_assert_eq!(trace(csr_outcome, &dag, &dice), trace(execute, &dag, &dice));
        }
    }

    /// Each error the reference raises, raised the same way: no decision,
    /// a second one, one for another task, an anchor on a task not lowered
    /// yet, and one on a site its task has no sub-result at.
    #[test]
    fn the_executor_matches_the_reference_on_every_error() {
        let mut kinds = [0usize; 6];
        for seed in 0..2000u32 {
            let dice: Vec<u32> =
                (0..48u32).map(|i| (seed * 48 + i).wrapping_mul(2_654_435_761) >> 8).collect();
            let dag = random_dag(1 + seed as usize % 16, &dice);
            let (csr, old) = (trace(csr_outcome, &dag, &dice), trace(execute, &dag, &dice));
            assert_eq!(csr, old, "seed {seed}");
            let kind = match &csr.0 {
                Ok(_) => 0,
                Err(SimError::InvalidParameter { message }) => {
                    match ["no decision", "twice", "decided", "unscheduled", "sub-result"]
                        .iter()
                        .position(|part| message.contains(part))
                    {
                        Some(kind) => kind + 1,
                        None => continue,
                    }
                }
                Err(_) => continue,
            };
            kinds[kind] += 1;
        }
        assert!(
            kinds.iter().all(|&k| k > 0),
            "outcomes seen (ok, none, twice, other, unscheduled, no site): {kinds:?}"
        );
    }
}
