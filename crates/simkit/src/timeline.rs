//! Simulation results: per-task records, makespan, per-phase busy time and
//! per-link occupancy.

use crate::task::{LinkId, PhaseId, TaskId};
use serde::{Deserialize, Serialize};

/// Start and finish time of one completed task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskRecord {
    /// Virtual time at which the task began executing.
    pub start: f64,
    /// Virtual time at which the task completed.
    pub finish: f64,
    /// Phase the task was tagged with, if any.
    pub phase: Option<PhaseId>,
}

impl TaskRecord {
    /// Duration of the task in virtual seconds.
    pub fn duration(&self) -> f64 {
        self.finish - self.start
    }
}

/// A fault-model annotation attached to a timeline: a condition that degraded
/// the timing of the run (a straggling device, a derated link). Engines that
/// model faults record them here so reports can explain *why* a degraded
/// run's makespan moved without re-deriving the fault plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultAnnotation {
    /// Virtual time at which the effect became active (0 for whole-run
    /// effects).
    pub time: f64,
    /// The affected site, e.g. `csd3` or `host-uplink`.
    pub site: String,
    /// Human-readable description of the degradation.
    pub detail: String,
}

/// Sorts intervals by start time and returns the measure of their union
/// (overlapping intervals are not double counted).
fn union_measure(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut busy = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, f) in intervals {
        match cur {
            None => cur = Some((s, f)),
            Some((cs, cf)) => {
                if s <= cf {
                    cur = Some((cs, cf.max(f)));
                } else {
                    busy += cf - cs;
                    cur = Some((s, f));
                }
            }
        }
    }
    if let Some((cs, cf)) = cur {
        busy += cf - cs;
    }
    busy
}

/// The complete result of a simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Timeline {
    records: Vec<TaskRecord>,
    makespan: f64,
    /// For every link of the simulation, the flow tasks that crossed it
    /// (the basis of the per-link occupancy queries): link `l`'s are
    /// `link_tasks[link_start[l]..link_start[l + 1]]`, by task index.
    link_start: Vec<u32>,
    link_tasks: Vec<u32>,
    /// Fault-model degradations that were active during the run.
    fault_annotations: Vec<FaultAnnotation>,
}

impl Timeline {
    pub(crate) fn new(
        records: Vec<TaskRecord>,
        makespan: f64,
        link_start: Vec<u32>,
        link_tasks: Vec<u32>,
    ) -> Self {
        Self { records, makespan, link_start, link_tasks, fault_annotations: Vec::new() }
    }

    /// Records a fault-model degradation that was active during this run.
    /// Engines call this after `run()` so downstream reports can tell a
    /// degraded timeline from a healthy one.
    pub fn annotate_fault(
        &mut self,
        time: f64,
        site: impl Into<String>,
        detail: impl Into<String>,
    ) {
        self.fault_annotations.push(FaultAnnotation {
            time,
            site: site.into(),
            detail: detail.into(),
        });
    }

    /// The fault-model degradations recorded for this run (empty for a
    /// fault-free simulation).
    pub fn fault_annotations(&self) -> &[FaultAnnotation] {
        &self.fault_annotations
    }

    /// Virtual time at which the task finished.
    ///
    /// # Panics
    ///
    /// Panics if `task` is not a valid task id of the simulation that produced
    /// this timeline.
    pub fn finish_time(&self, task: TaskId) -> f64 {
        self.records[task].finish
    }

    /// The record of a single task, if it exists.
    pub fn record(&self, task: TaskId) -> Option<&TaskRecord> {
        self.records.get(task)
    }

    /// All task records in task-id order.
    pub fn records(&self) -> &[TaskRecord] {
        &self.records
    }

    /// Completion time of the whole DAG.
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// The intervals during which `link` carried at least one flow matching
    /// `keep`, merged and measured as a union.
    fn link_busy_filtered(&self, link: LinkId, keep: impl Fn(&TaskRecord) -> bool) -> f64 {
        let l = link.index();
        let Some(&end) = self.link_start.get(l + 1) else { return 0.0 };
        let tasks = &self.link_tasks[self.link_start[l] as usize..end as usize];
        let intervals: Vec<(f64, f64)> = tasks
            .iter()
            .filter_map(|&t| self.records.get(t as usize))
            .filter(|rec| rec.finish > rec.start && keep(rec))
            .map(|rec| (rec.start, rec.finish))
            .collect();
        union_measure(intervals)
    }

    /// Occupancy of a link: virtual seconds during which at least one flow
    /// was in progress on it (overlapping flows are not double counted).
    ///
    /// Together with [`Timeline::link_busy_time_in_phase`] this is the
    /// stage-level view of interconnect contention: a pipelined engine tags
    /// each stage's flows with a phase and can then ask how long a shared
    /// link was occupied by each stage, and how much the stages overlapped
    /// (`sum of per-phase busy − total busy`).
    pub fn link_busy_time(&self, link: LinkId) -> f64 {
        self.link_busy_filtered(link, |_| true)
    }

    /// Occupancy of a link restricted to flows tagged with `phase`.
    pub fn link_busy_time_in_phase(&self, link: LinkId, phase: PhaseId) -> f64 {
        self.link_busy_filtered(link, |rec| rec.phase == Some(phase))
    }

    /// Busy time of a phase clipped to `[0, cutoff]`: the measure of the
    /// union of execution intervals of the phase's tasks that fall before
    /// `cutoff`. This is how much of the phase's work genuinely ran before a
    /// reference event — e.g. how many seconds of the update stage overlapped
    /// the backward phase in a pipelined schedule.
    pub fn phase_busy_time_before(&self, phase: PhaseId, cutoff: f64) -> f64 {
        let intervals: Vec<(f64, f64)> = self
            .records
            .iter()
            .filter(|rec| rec.phase == Some(phase) && rec.start < cutoff && rec.finish > rec.start)
            .map(|rec| (rec.start, rec.finish.min(cutoff)))
            .collect();
        union_measure(intervals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start: f64, finish: f64, phase: Option<u32>) -> TaskRecord {
        TaskRecord { start, finish, phase: phase.map(PhaseId) }
    }

    #[test]
    fn breakdown_merges_overlapping_intervals() {
        let tl = Timeline::new(
            vec![rec(0.0, 5.0, Some(0)), rec(3.0, 8.0, Some(0)), rec(10.0, 12.0, Some(0))],
            12.0,
            Vec::new(),
            Vec::new(),
        );
        let busy = |phase| tl.phase_busy_time_before(PhaseId(phase), f64::INFINITY);
        assert!((busy(0) - 10.0).abs() < 1e-12);
        assert_eq!(busy(1), 0.0);
    }

    #[test]
    fn breakdown_separates_phases() {
        let tl = Timeline::new(
            vec![rec(0.0, 4.0, Some(0)), rec(4.0, 6.0, Some(1)), rec(6.0, 7.0, None)],
            7.0,
            Vec::new(),
            Vec::new(),
        );
        let busy = |phase| tl.phase_busy_time_before(PhaseId(phase), f64::INFINITY);
        assert!((busy(0) - 4.0).abs() < 1e-12);
        assert!((busy(1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn task_record_duration() {
        assert!((rec(1.0, 3.5, None).duration() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn records_are_looked_up_by_task_id() {
        let tl = Timeline::new(vec![rec(0.0, 1.0, None), rec(0.0, 5.0, None)], 5.0, vec![], vec![]);
        assert_eq!(tl.finish_time(1), 5.0);
        assert!(tl.record(0).is_some());
        assert!(tl.record(7).is_none());
        assert_eq!(tl.records().len(), 2);
    }

    #[test]
    fn phase_busy_time_before_clips_to_the_cutoff() {
        let tl = Timeline::new(
            vec![rec(1.0, 3.0, Some(0)), rec(2.0, 6.0, Some(0)), rec(8.0, 9.0, Some(0))],
            9.0,
            Vec::new(),
            Vec::new(),
        );
        let update = PhaseId(0);
        // Full horizon: (1..6) ∪ (8..9) = 6 s.
        assert!((tl.phase_busy_time_before(update, 9.0) - 6.0).abs() < 1e-12);
        // Clipped at 4: (1..4) = 3 s — the late task contributes nothing.
        assert!((tl.phase_busy_time_before(update, 4.0) - 3.0).abs() < 1e-12);
        // A cutoff before any work reports zero.
        assert_eq!(tl.phase_busy_time_before(update, 1.0), 0.0);
        assert_eq!(tl.phase_busy_time_before(PhaseId(5), 9.0), 0.0);
    }

    #[test]
    fn fault_annotations_attach_and_survive_serialization() {
        let mut tl = Timeline::new(vec![rec(0.0, 1.0, None)], 1.0, vec![], Vec::new());
        assert!(tl.fault_annotations().is_empty());
        tl.annotate_fault(0.0, "csd2", "straggler: compute x3.0 slower");
        tl.annotate_fault(0.0, "host-uplink", "bandwidth derated to 50%");
        assert_eq!(tl.fault_annotations().len(), 2);
        assert_eq!(tl.fault_annotations()[0].site, "csd2");
        let json = serde_json::to_string(&tl).unwrap();
        let back: Timeline = serde_json::from_str(&json).unwrap();
        assert_eq!(back.fault_annotations(), tl.fault_annotations());
    }

    #[test]
    fn link_busy_time_merges_overlapping_flows_and_splits_by_phase() {
        // Link 0 carries: task 0 (phase 0, 0..5), task 1 (phase 0, 3..8) and
        // task 2 (phase 1, 7..10). Link 1 carries nothing.
        let tl = Timeline::new(
            vec![rec(0.0, 5.0, Some(0)), rec(3.0, 8.0, Some(0)), rec(7.0, 10.0, Some(1))],
            10.0,
            vec![0, 3, 3],
            vec![0, 1, 2],
        );
        let link0 = LinkId(0);
        assert!((tl.link_busy_time(link0) - 10.0).abs() < 1e-12);
        assert!((tl.link_busy_time_in_phase(link0, PhaseId(0)) - 8.0).abs() < 1e-12);
        assert!((tl.link_busy_time_in_phase(link0, PhaseId(1)) - 3.0).abs() < 1e-12);
        // Stage overlap on the link: per-phase busy sums to 11 s against a
        // 10 s union, so the stages shared the link for 1 s.
        let overlap = tl.link_busy_time_in_phase(link0, PhaseId(0))
            + tl.link_busy_time_in_phase(link0, PhaseId(1))
            - tl.link_busy_time(link0);
        assert!((overlap - 1.0).abs() < 1e-12);
        assert_eq!(tl.link_busy_time(LinkId(1)), 0.0);
        // Unknown links report zero occupancy instead of panicking.
        assert_eq!(tl.link_busy_time(LinkId(9)), 0.0);
    }
}
