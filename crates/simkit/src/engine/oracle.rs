//! The `Timeline` oracle: what must hold of any finished run, checked
//! against the [`Simulation`] that produced it. It knows nothing of how the
//! engine stepped through time — only causality, capacity and conservation —
//! so it stays valid across rewrites of the runner. Debug builds run it at
//! the end of every [`Simulation::run`].

use super::{Dependents, Simulation};
use crate::task::{LinkId, Task, TaskId, TaskKind};
use crate::timeline::Timeline;
use crate::TIME_EPS;

/// Seconds by which a task served at `rate` for about `seconds` may retire
/// early: the engine's own threshold (`remaining <= TIME_EPS * rate.max(1.0)`
/// work units), doubled for the rounding of the updates before it. Every
/// tolerance below is this, once per task completion involved.
fn slack(rate: f64, seconds: f64) -> f64 {
    2.0 * TIME_EPS * (1.0 / rate).max(1.0) * seconds.max(1.0)
}

/// The least time a task can take and the rate that sets it: `work / rate`
/// on its resource, `bytes` over the narrowest link of its path, the delay.
fn floor(sim: &Simulation, task: &Task) -> (f64, f64) {
    match task.kind {
        TaskKind::Flow { bytes, .. } if bytes > 0.0 => {
            let path = sim.path_of(task);
            let narrowest =
                path.iter().map(|&l| sim.links[l as usize]).fold(f64::INFINITY, f64::min);
            (bytes / narrowest, narrowest)
        }
        TaskKind::Compute { resource, work } => {
            let rate = sim.resources[resource as usize];
            (work / rate, rate)
        }
        TaskKind::Delay { seconds } => (seconds, 1.0),
        TaskKind::Flow { .. } | TaskKind::Barrier => (0.0, 1.0),
    }
}

/// How a message names task `id`: its index, and its label when it has one.
fn task_name(sim: &Simulation, id: TaskId) -> String {
    match sim.task_label(id) {
        Some(label) => format!("task {id} ({label})"),
        None => format!("task {id}"),
    }
}

/// Checks a finished run against its simulation; the error names the first
/// broken condition.
pub(crate) fn check(sim: &Simulation, timeline: &Timeline) -> Result<(), String> {
    let records = timeline.records();
    let makespan = timeline.makespan();
    if records.len() != sim.tasks.len() {
        return Err(format!("{} records for {} tasks", records.len(), sim.tasks.len()));
    }

    // Causality and duration, task by task. `ready` is when the last
    // dependency finished; times are copies of one clock, so no tolerance.
    let mut ready = vec![0.0f64; records.len()];
    for (id, (task, rec)) in sim.tasks.iter().zip(records).enumerate() {
        ready[id] =
            sim.deps_of(task).iter().map(|&d| records[d as usize].finish).fold(0.0, f64::max);
        if rec.start < ready[id] {
            return Err(format!(
                "{} starts at {} before its last dependency finishes at {}",
                task_name(sim, id),
                rec.start,
                ready[id]
            ));
        }
        if rec.finish < rec.start {
            return Err(format!(
                "{} finishes at {} before its start {}",
                task_name(sim, id),
                rec.finish,
                rec.start
            ));
        }
        let (least, rate) = floor(sim, task);
        let early = rec.duration() < least - slack(rate, least);
        // Only a flow may take longer than its floor (it shares its links).
        let flow = matches!(task.kind, TaskKind::Flow { .. });
        let late = !flow && rec.duration() > least + slack(rate, least);
        if early || late {
            let name = task_name(sim, id);
            return Err(format!("{name} lasts {} s, its work is {least} s", rec.duration()));
        }
    }

    // Serial resources: no overlap, and first ready first served.
    let mut queues: Vec<Vec<TaskId>> = vec![Vec::new(); sim.resources.len()];
    for (id, task) in sim.tasks.iter().enumerate() {
        if let TaskKind::Compute { resource, work } = &task.kind {
            if *work > 0.0 {
                queues[*resource as usize].push(id);
            }
        }
    }
    for (resource, queue) in queues.iter_mut().enumerate() {
        let key = |&t: &TaskId| (records[t].start, records[t].finish, ready[t]);
        queue.sort_by(|a, b| key(a).partial_cmp(&key(b)).expect("times are not NaN"));
        for pair in queue.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if records[b].start < records[a].finish {
                return Err(format!("tasks {a} and {b} overlap on resource {resource}"));
            }
            if ready[b] < ready[a] {
                return Err(format!("task {a} overtook {b} in the queue of resource {resource}"));
            }
        }
    }

    // Links: the bytes carried fit under bandwidth x busy time (one slack
    // per flow that crossed the link), and so under bandwidth x makespan.
    let link_tasks = sim.link_tasks();
    for (l, &bandwidth) in sim.links.iter().enumerate() {
        let flows = link_tasks.of(l);
        let bytes_of = |&t: &u32| match sim.tasks[t as usize].kind {
            TaskKind::Flow { bytes, .. } => bytes,
            _ => 0.0,
        };
        let bytes: f64 = flows.iter().map(bytes_of).sum();
        let flows = flows.len() as f64;
        let busy = timeline.link_busy_time(LinkId(l));
        let needs = bytes / bandwidth;
        if needs > busy + flows * slack(bandwidth, busy) {
            return Err(format!("link {l} carried {needs} s of bytes in {busy} s of busy time"));
        }
        if needs > makespan + flows * slack(bandwidth, makespan) {
            return Err(format!("link {l} carried {needs} s of bytes, makespan {makespan}"));
        }
    }

    // Makespan: exactly the last finish, and no shorter than the longest
    // chain of floors. The per-task clauses above imply the second in exact
    // arithmetic; it is computed independently of the records.
    let last = records.iter().map(|r| r.finish).fold(0.0, f64::max);
    if makespan != last {
        return Err(format!("makespan {makespan} is not the last finish {last}"));
    }
    let critical = critical_path_bound(sim);
    if makespan < critical {
        return Err(format!("makespan {makespan} is below the critical path, {critical} s"));
    }
    Ok(())
}

/// The longest dependency chain of task floors, each shortened by its own
/// slack: no run of `sim` can finish sooner.
fn critical_path_bound(sim: &Simulation) -> f64 {
    let dependents = Dependents::of(sim);
    let mut unmet: Vec<usize> = sim.tasks.iter().map(|t| t.deps.len()).collect();
    let mut order: Vec<TaskId> = (0..unmet.len()).filter(|&t| unmet[t] == 0).collect();
    // Until a task is visited `earliest` holds the latest bound among its
    // visited dependencies, afterwards the bound on its own finish.
    let mut earliest = vec![0.0f64; unmet.len()];
    let mut visited = 0;
    while visited < order.len() {
        let task = order[visited];
        visited += 1;
        let (least, rate) = floor(sim, &sim.tasks[task]);
        earliest[task] += (least - slack(rate, least)).max(0.0);
        for &next in dependents.of_task(task) {
            let next = next as usize;
            earliest[next] = earliest[next].max(earliest[task]);
            unmet[next] -= 1;
            if unmet[next] == 0 {
                order.push(next);
            }
        }
    }
    earliest.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::TaskRecord;
    use crate::{ComputeSpec, DelaySpec, FlowSpec};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Two links, one resource: `load` and `other` share link 0, `work` and
    /// `more` queue on the resource, `tail` waits for everything.
    fn small() -> (Simulation, Timeline) {
        let mut sim = Simulation::new();
        let a = sim.add_link(10.0);
        let b = sim.add_link(4.0);
        let cpu = sim.add_resource(2.0);
        let load = sim.flow(FlowSpec::new(vec![a], 40.0));
        let other = sim.flow(FlowSpec::new(vec![a, b], 20.0));
        let work = sim.compute(ComputeSpec::new(cpu, 6.0).after(&[load]));
        let more = sim.compute(ComputeSpec::new(cpu, 2.0).after(&[other]));
        let tail = sim.delay(DelaySpec::new(1.5).after(&[work, more]));
        sim.barrier(&[tail]);
        let timeline = sim.run().unwrap();
        (sim, timeline)
    }

    /// A timeline of `sim` with the given records and makespan.
    fn forge(sim: &Simulation, records: Vec<TaskRecord>, makespan: f64) -> Timeline {
        let (link_start, link_tasks) = sim.link_tasks().into_csr();
        Timeline::new(records, makespan, link_start, link_tasks)
    }

    /// The timeline of `small()` with one record replaced.
    fn tampered(task: TaskId, start: f64, finish: f64) -> Result<(), String> {
        let (sim, timeline) = small();
        let mut records = timeline.records().to_vec();
        records[task] = TaskRecord { start, finish, phase: None };
        let forged = forge(&sim, records, timeline.makespan());
        check(&sim, &forged)
    }

    #[test]
    fn a_real_run_passes_and_each_clause_has_teeth() {
        let (sim, timeline) = small();
        assert_eq!(check(&sim, &timeline), Ok(()));
        // other: 4 B/s for 5 s; load: 6 B/s until then, 10 B/s after: done at 6.
        // more runs 5..6, work 6..9, tail 9..10.5.
        assert_eq!(timeline.records()[2].start, 6.0);
        let broken = |task, start, finish, what: &str| {
            let err = tampered(task, start, finish).unwrap_err();
            assert!(err.contains(what), "expected '{what}', got '{err}'");
        };
        broken(2, 5.5, 8.5, "before its last dependency");
        broken(4, 9.0, 8.0, "before its start");
        broken(2, 6.0, 8.0, "its work is 3 s");
        broken(4, 9.0, 11.0, "its work is 1.5 s");
        broken(1, 0.0, 4.0, "its work is 5 s");
        broken(3, 5.5, 6.5, "overlap on resource 0");
        broken(0, 0.0, 5.5, "link 0 carried 6 s of bytes in 5.5 s");
        broken(5, 10.5, 12.0, "its work is 0 s");
        // A makespan that is not the last finish.
        let records = timeline.records().to_vec();
        let forged = forge(&sim, records, 11.0);
        assert!(check(&sim, &forged).unwrap_err().contains("not the last finish"));
        // The longest chain of floors is load (4 s), work (3 s), tail (1.5 s).
        let critical = critical_path_bound(&sim);
        assert!((critical - 8.5).abs() < 1e-7 && critical <= 8.5, "got {critical}");
    }

    #[test]
    fn a_queue_served_out_of_order_is_caught() {
        // Two computes, the second ready first: FIFO serves it first.
        let mut sim = Simulation::new();
        let cpu = sim.add_resource(1.0);
        let wait = sim.delay(DelaySpec::new(1.0));
        let late = sim.compute(ComputeSpec::new(cpu, 2.0).after(&[wait]));
        let early = sim.compute(ComputeSpec::new(cpu, 2.0));
        let timeline = sim.run().unwrap();
        let start = |task: TaskId| timeline.records()[task].start;
        assert_eq!((start(early), start(late)), (0.0, 2.0));
        let rec = |start, finish| TaskRecord { start, finish, phase: None };
        let swapped = vec![rec(0.0, 1.0), rec(1.0, 3.0), rec(3.0, 5.0)];
        let forged = forge(&sim, swapped, 5.0);
        assert!(check(&sim, &forged).unwrap_err().contains("overtook"));
    }

    /// Sampled numbers, handed out in a cycle.
    struct Dice<'a> {
        faces: &'a [u32],
        thrown: usize,
    }

    impl Dice<'_> {
        fn roll(&mut self, sides: usize) -> usize {
            self.thrown += 1;
            self.faces[self.thrown % self.faces.len()] as usize % sides
        }
    }

    /// A random graph over four links (two of equal bandwidth, one slower
    /// than one byte per second) and three resources: `layered` gives every
    /// task a random subset of the previous layer as dependencies, otherwise
    /// each stage fans out from one task and joins in the next. Task kinds,
    /// sizes (zero included), paths and resources come from the dice.
    fn random_graph(layered: bool, layers: usize, width: usize, faces: &[u32]) -> Simulation {
        let mut dice = Dice { faces, thrown: 0 };
        let mut sim = Simulation::new();
        let links: Vec<LinkId> = [0.5, 4.0, 4.0, 3e9].iter().map(|&bw| sim.add_link(bw)).collect();
        let resources: Vec<(crate::ResourceId, f64)> =
            [0.25, 2.0, 1e12].iter().map(|&rate| (sim.add_resource(rate), rate.max(1.0))).collect();
        let add = |sim: &mut Simulation, dice: &mut Dice, deps: &[TaskId]| {
            let size = dice.roll(6) as f64 * 1.5;
            match dice.roll(8) {
                0 => sim.barrier(deps),
                1 => sim.delay(DelaySpec::new(size).after(deps)),
                2..=4 => {
                    let (resource, scale) = resources[dice.roll(3)];
                    sim.compute(ComputeSpec::new(resource, size * scale).after(deps))
                }
                _ => {
                    let path: Vec<LinkId> =
                        (0..1 + dice.roll(3)).map(|_| links[dice.roll(4)]).collect();
                    sim.flow(FlowSpec::new(path, size).after(deps))
                }
            }
        };
        let mut previous: Vec<TaskId> = Vec::new();
        for _ in 0..layers {
            if layered {
                previous = (0..width)
                    .map(|_| {
                        let deps: Vec<TaskId> =
                            previous.iter().copied().filter(|_| dice.roll(2) == 0).collect();
                        add(&mut sim, &mut dice, &deps)
                    })
                    .collect();
            } else {
                let root = add(&mut sim, &mut dice, &previous);
                previous = (0..width).map(|_| add(&mut sim, &mut dice, &[root])).collect();
            }
        }
        sim
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// Every run of a random layered or fan-out / fan-in graph passes
        /// the oracle.
        #[test]
        fn random_layered_and_fan_graphs_pass_the_oracle(
            layered in proptest::bool::ANY,
            layers in 1usize..6,
            width in 1usize..7,
            dice in vec(0u32..1_000_000, 8..64),
        ) {
            let mut sim = random_graph(layered, layers, width, &dice);
            let timeline = sim.run().expect("an acyclic graph runs");
            prop_assert_eq!(check(&sim, &timeline), Ok(()));
        }
    }
}
