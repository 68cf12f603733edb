//! Task graphs: typed work items connected by data items and ordering edges.
//!
//! A [`Dag`] describes *what* an application does — computes, transfers,
//! delays and joins, plus the data items flowing between them — without
//! fixing *when* or *where* each piece runs. A [`crate::Scheduler`] answers
//! each task with a placement + ordering decision, which a
//! [`crate::Lowering`] turns into concrete tasks on the flat
//! [`crate::Simulation`] substrate (see [`crate::execute`]).
//!
//! Every edge points from a task to one with a lower id: an edge that does
//! not poisons the graph, so a graph is acyclic by construction and ids are
//! an order its tasks can be lowered in. Two kinds of edges coexist:
//!
//! - **Hard inputs** ([`Dag::connect`]) and **after-edges**
//!   ([`Dag::add_after`]) are structural: every scheduler must honour them,
//!   and the executor resolves them into simulation dependencies
//!   automatically.
//! - **Soft inputs** ([`Dag::connect_soft`]) declare dataflow whose physical
//!   synchronisation is a *policy choice*: the scheduler decides which
//!   concrete events realise the edge (e.g. a global barrier vs per-device
//!   completion) and supplies them as [`crate::Anchor`]s on its decisions.
//!
//! Tasks and data items carry no names: every message that names one
//! prints its index. Ids, sites and spans are `u32`, so a task is 56 bytes
//! and a data item 24; a graph past `u32::MAX` tasks, data items or edges
//! of a kind is refused from the counts, when it is reserved or validated.

use crate::error::SimError;
use crate::task::{fits_u32, PhaseId, Span};

/// Identifier for a task in a [`Dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DagTaskId(pub(crate) u32);

impl DagTaskId {
    /// Zero-based position of this task in the graph.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier for a data item produced by a task in a [`Dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataId(pub(crate) u32);

impl DataId {
    /// Zero-based position of this data item in the graph.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Site index meaning "the storage class as a whole": the scheduler chooses
/// the concrete device targets via a [`crate::ScatterPlan`].
pub const SITE_STORAGE: u32 = u32::MAX;

/// The work a DAG task performs, in site-relative terms.
///
/// Sites are small integers whose meaning is fixed by the [`crate::Lowering`]
/// in use (e.g. host = 0, GPUs next, then storage devices). The special site
/// [`SITE_STORAGE`] stands for the storage class; transfers touching it are
/// placed onto concrete devices by the scheduler's [`crate::ScatterPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DagWork {
    /// Computation of `amount` work units on the resource at `site`.
    Compute {
        /// Processing site the computation is bound to.
        site: u32,
        /// Work in the site's units (FLOPs, bytes, ...).
        amount: f64,
    },
    /// Moving `bytes` from one site to another.
    Transfer {
        /// Originating site.
        from: u32,
        /// Destination site (possibly [`SITE_STORAGE`]).
        to: u32,
        /// Payload size in bytes.
        bytes: f64,
    },
    /// A fixed latency (setup cost, software overhead).
    Delay {
        /// Duration in seconds.
        seconds: f64,
    },
    /// A zero-cost synchronisation point.
    Join,
}

/// A task in the graph: its work and phase attribution. Its edges live in
/// the graph's arenas: [`Dag::inputs`], [`Dag::soft_inputs`], [`Dag::after`].
#[derive(Debug, Clone)]
pub struct DagTask {
    /// The work this task performs.
    pub work: DagWork,
    /// Phase the lowered simulation task is attributed to.
    pub phase: Option<PhaseId>,
    inputs: Span,
    soft_inputs: Span,
    after: Span,
}

impl DagTask {
    /// Number of structural predecessors (hard inputs and after-edges,
    /// duplicates included).
    pub(crate) fn pred_count(&self) -> usize {
        self.inputs.len() + self.after.len()
    }
}

/// A data item: a payload produced by one task.
#[derive(Debug, Clone)]
pub struct DataItem {
    /// Size in bytes (informational; transfer sizing lives in [`DagWork`]).
    pub bytes: f64,
    /// The task that produces this item.
    pub producer: DagTaskId,
    /// Site the item lives at once produced, when meaningful. Items scattered
    /// across storage carry `None`; per-site availability is resolved through
    /// [`crate::Anchor::TaskAtSite`].
    pub site: Option<u32>,
}

/// A task graph under construction.
///
/// Malformed references (unknown task or data ids, an edge to a task that
/// does not have a lower id), and more than
/// `u32::MAX` tasks, data items or edges of a kind (ids and spans into the
/// arenas are `u32`), poison the graph rather than panicking; the first
/// error is reported by [`Dag::validate`] and by [`crate::execute`].
#[derive(Debug, Default)]
pub struct Dag {
    tasks: Vec<DagTask>,
    data: Vec<DataItem>,
    /// The edge arenas: each task's hard inputs, soft inputs and
    /// after-edges are one contiguous run of each.
    inputs: Vec<DataId>,
    soft_inputs: Vec<DataId>,
    after: Vec<DagTaskId>,
    poison: Option<SimError>,
}

impl Dag {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for `tasks` more tasks, `data` more data items and the
    /// given numbers of hard inputs, soft inputs and after-edges, so that a
    /// builder that knows its graph's size fills the arenas without
    /// regrowing them. Counts that would take the graph past `u32::MAX` of
    /// any of them poison it and reserve nothing.
    pub fn reserve(
        &mut self,
        tasks: usize,
        data: usize,
        inputs: usize,
        soft_inputs: usize,
        after: usize,
    ) {
        let total = |len: usize, more: usize| len.saturating_add(more);
        let counts = [
            total(self.tasks.len(), tasks),
            total(self.data.len(), data),
            total(self.inputs.len(), inputs),
            total(self.soft_inputs.len(), soft_inputs),
            total(self.after.len(), after),
        ];
        if let Err(err) = Self::check_counts(counts) {
            return self.poison(err);
        }
        self.tasks.reserve_exact(tasks);
        self.data.reserve_exact(data);
        self.inputs.reserve_exact(inputs);
        self.soft_inputs.reserve_exact(soft_inputs);
        self.after.reserve_exact(after);
    }

    /// The error of task, data item and edge counts past `u32::MAX`.
    fn check_counts([tasks, data, inputs, soft, after]: [usize; 5]) -> Result<(), SimError> {
        fits_u32(tasks, "dag tasks")?;
        fits_u32(data, "data items")?;
        fits_u32(inputs, "hard inputs")?;
        fits_u32(soft, "soft inputs")?;
        fits_u32(after, "after-edges")
    }

    fn poison(&mut self, err: SimError) {
        if self.poison.is_none() {
            self.poison = Some(err);
        }
    }

    fn check_task(&mut self, id: DagTaskId) -> bool {
        if id.index() < self.tasks.len() {
            true
        } else {
            self.poison(SimError::UnknownId { kind: "dag task", index: id.index() });
            false
        }
    }

    fn check_data(&mut self, id: DataId) -> bool {
        if id.index() < self.data.len() {
            true
        } else {
            self.poison(SimError::UnknownId { kind: "data item", index: id.index() });
            false
        }
    }

    /// Adds a task with no edges and returns its id.
    pub fn add_task(&mut self, work: DagWork) -> DagTaskId {
        let id = DagTaskId(self.tasks.len() as u32);
        if let DagWork::Compute { amount, .. } = work {
            if !(amount.is_finite() && amount >= 0.0) {
                self.poison(SimError::InvalidParameter {
                    message: format!(
                        "dag compute amount must be non-negative and finite, got {amount}"
                    ),
                });
            }
        }
        if let DagWork::Transfer { bytes, .. } = work {
            if !(bytes.is_finite() && bytes >= 0.0) {
                self.poison(SimError::InvalidParameter {
                    message: format!(
                        "dag transfer bytes must be non-negative and finite, got {bytes}"
                    ),
                });
            }
        }
        if let DagWork::Delay { seconds } = work {
            if !(seconds.is_finite() && seconds >= 0.0) {
                self.poison(SimError::InvalidParameter {
                    message: format!("dag delay must be non-negative and finite, got {seconds}"),
                });
            }
        }
        self.tasks.push(DagTask {
            work,
            phase: None,
            inputs: Span::default(),
            soft_inputs: Span::default(),
            after: Span::default(),
        });
        id
    }

    /// Attributes a task's lowered work to a simulation phase.
    pub fn set_phase(&mut self, task: DagTaskId, phase: PhaseId) {
        if self.check_task(task) {
            self.tasks[task.index()].phase = Some(phase);
        }
    }

    /// Registers a data item produced by `task` and returns its id.
    pub fn add_output(&mut self, task: DagTaskId, bytes: f64, site: Option<u32>) -> DataId {
        let id = DataId(self.data.len() as u32);
        self.data.push(DataItem { bytes, producer: task, site });
        self.check_task(task);
        id
    }

    /// Whether an edge from `task` to `source` may be added: both exist and
    /// `source` has the lower id. Poisons the graph otherwise.
    fn check_edge(&mut self, task: DagTaskId, source: DagTaskId) -> bool {
        if !(self.check_task(task) && self.check_task(source)) {
            return false;
        }
        if source < task {
            return true;
        }
        let (t, s) = (task.index(), source.index());
        let message = format!("dag task {t} cannot depend on dag task {s}: not a lower id");
        self.poison(SimError::InvalidParameter { message });
        false
    }

    /// Whether `consumer` may take `item` as an input; see
    /// [`Dag::check_edge`].
    fn check_input(&mut self, consumer: DagTaskId, item: DataId) -> bool {
        self.check_data(item) && self.check_edge(consumer, self.data[item.index()].producer)
    }

    /// Declares a hard data input: `consumer` structurally depends on the
    /// item's producer, which must have a lower id.
    pub fn connect(&mut self, consumer: DagTaskId, item: DataId) {
        if self.check_input(consumer, item) {
            self.tasks[consumer.index()].inputs.push(&mut self.inputs, item);
        }
    }

    /// Declares a soft data input: the dataflow exists, but the scheduler
    /// chooses the synchronisation realising it (via decision anchors). The
    /// item's producer must have a lower id than `consumer`.
    pub fn connect_soft(&mut self, consumer: DagTaskId, item: DataId) {
        if self.check_input(consumer, item) {
            self.tasks[consumer.index()].soft_inputs.push(&mut self.soft_inputs, item);
        }
    }

    /// Adds a structural ordering edge: `task` runs after `pred`, which
    /// must have a lower id.
    pub fn add_after(&mut self, task: DagTaskId, pred: DagTaskId) {
        if self.check_edge(task, pred) {
            self.tasks[task.index()].after.push(&mut self.after, pred);
        }
    }

    /// Number of tasks in the graph.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task with the given id, if it exists.
    pub fn task(&self, id: DagTaskId) -> Option<&DagTask> {
        self.tasks.get(id.index())
    }

    /// The data item with the given id, if it exists.
    pub fn data(&self, id: DataId) -> Option<&DataItem> {
        self.data.get(id.index())
    }

    /// All tasks, in id order.
    pub fn tasks(&self) -> &[DagTask] {
        &self.tasks
    }

    /// The hard data inputs of a task, in declaration order (none for an
    /// unknown id): their producers must be scheduled first, and the
    /// executor wires the producers' lowered tasks in as dependencies.
    pub fn inputs(&self, id: DagTaskId) -> &[DataId] {
        self.tasks.get(id.index()).map_or(&[], |t| t.inputs.of(&self.inputs))
    }

    /// The soft data inputs of a task, in declaration order (none for an
    /// unknown id): dataflow whose synchronisation the scheduler realises
    /// through decision anchors instead of structural edges.
    pub fn soft_inputs(&self, id: DagTaskId) -> &[DataId] {
        self.tasks.get(id.index()).map_or(&[], |t| t.soft_inputs.of(&self.soft_inputs))
    }

    /// The after-edges of a task, in declaration order (none for an unknown
    /// id): structural ordering with no data attached.
    pub fn after(&self, id: DagTaskId) -> &[DagTaskId] {
        self.tasks.get(id.index()).map_or(&[], |t| t.after.of(&self.after))
    }

    /// Checks the graph is well-formed: no poisoned references or edges,
    /// and no more than `u32::MAX` of anything.
    pub fn validate(&self) -> Result<(), SimError> {
        if let Some(err) = &self.poison {
            return Err(err.clone());
        }
        Self::check_counts([
            self.tasks.len(),
            self.data.len(),
            self.inputs.len(),
            self.soft_inputs.len(),
            self.after.len(),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn build_and_query_a_small_graph() {
        let mut dag = Dag::new();
        let a = dag.add_task(DagWork::Compute { site: 0, amount: 1.0 });
        let out = dag.add_output(a, 8.0, Some(0));
        let b = dag.add_task(DagWork::Transfer { from: 0, to: 1, bytes: 8.0 });
        dag.connect(b, out);
        let c = dag.add_task(DagWork::Join);
        dag.add_after(c, b);

        assert_eq!(dag.len(), 3);
        assert_eq!(dag.data(out).map(|item| item.producer), Some(a));
        assert_eq!(dag.inputs(b), [out]);
        assert_eq!(dag.after(c), [b]);
        dag.validate().expect("well-formed graph");
    }

    #[test]
    fn unknown_data_reference_poisons_the_graph() {
        let mut dag = Dag::new();
        let a = dag.add_task(DagWork::Join);
        dag.connect(a, DataId(7));
        let err = dag.validate().expect_err("poisoned graph must not validate");
        assert!(matches!(err, SimError::UnknownId { kind: "data item", index: 7 }));
    }

    #[test]
    fn structural_cycle_is_detected() {
        // The edge that would close a cycle, one to the task itself, and an
        // input produced by a later task are each refused, and the first
        // poisons the graph.
        let refused = |add: fn(&mut Dag, DagTaskId, DagTaskId, DataId)| {
            let mut dag = Dag::new();
            let a = dag.add_task(DagWork::Join);
            let b = dag.add_task(DagWork::Join);
            let out_b = dag.add_output(b, 1.0, None);
            dag.add_after(b, a);
            add(&mut dag, a, b, out_b);
            assert!(dag.after(a).is_empty() && dag.inputs(a).is_empty());
            assert!(dag.soft_inputs(a).is_empty() && dag.after(b) == [a]);
            dag.validate().expect_err("a cycle must not validate")
        };
        let message = "dag task 0 cannot depend on dag task 1: not a lower id".to_string();
        let cycle = SimError::InvalidParameter { message };
        assert_eq!(refused(|dag, a, b, _| dag.add_after(a, b)), cycle);
        assert_eq!(refused(|dag, a, _, out_b| dag.connect(a, out_b)), cycle);
        assert_eq!(refused(|dag, a, _, out_b| dag.connect_soft(a, out_b)), cycle);
        let message = "dag task 1 cannot depend on dag task 1: not a lower id".to_string();
        let own = SimError::InvalidParameter { message };
        assert_eq!(refused(|dag, _, b, _| dag.add_after(b, b)), own);
    }

    #[test]
    fn negative_transfer_bytes_poison_the_graph() {
        let mut dag = Dag::new();
        dag.add_task(DagWork::Transfer { from: 0, to: 1, bytes: -4.0 });
        let err = dag.validate().expect_err("negative bytes must poison");
        assert!(matches!(err, SimError::InvalidParameter { .. }));
    }

    #[test]
    fn soft_inputs_do_not_create_structural_edges() {
        let mut dag = Dag::new();
        let a = dag.add_task(DagWork::Compute { site: 0, amount: 1.0 });
        let out = dag.add_output(a, 8.0, None);
        let b = dag.add_task(DagWork::Join);
        dag.connect_soft(b, out);
        assert!(dag.inputs(b).is_empty() && dag.after(b).is_empty());
        assert_eq!(dag.soft_inputs(b), [out]);
    }

    #[test]
    fn a_task_is_56_bytes_a_data_item_24_and_counts_stop_at_u32_max() {
        let (task, item) = (std::mem::size_of::<DagTask>(), std::mem::size_of::<DataItem>());
        assert!(task <= 56 && item <= 24, "a task is {task} bytes, a data item {item}");
        let past = u32::MAX as usize + 1;
        let mut dag = Dag::new();
        dag.reserve(1, 0, past, 0, 0);
        let message = format!("more than {} hard inputs", u32::MAX);
        assert_eq!(dag.validate(), Err(SimError::InvalidParameter { message }));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Edges declared in any order — mostly on the newest task, now and
        /// then on an older one, so its run moves to the arena's tail — read
        /// back through the three accessors exactly as per-task lists have
        /// them.
        #[test]
        fn the_edge_arenas_read_back_as_per_task_lists(
            ops in vec((0usize..4, (0usize..64, 0usize..64)), 1..160),
        ) {
            let mut dag = Dag::new();
            // Per task: hard inputs, soft inputs, after-edges, by index.
            let mut model: Vec<[Vec<usize>; 3]> = Vec::new();
            for (op, (a, b)) in ops {
                if op == 0 || dag.is_empty() {
                    let t = dag.add_task(DagWork::Join);
                    // Task i produces data item i.
                    dag.add_output(t, 1.0, None);
                    model.push(Default::default());
                    continue;
                }
                let n = dag.len();
                let task = if a % 3 == 0 { a % n } else { n - 1 };
                // Every edge points to a lower id; task 0 takes none.
                if task == 0 {
                    continue;
                }
                let src = b % task;
                match op {
                    1 => dag.connect(DagTaskId(task as u32), DataId(src as u32)),
                    2 => dag.connect_soft(DagTaskId(task as u32), DataId(src as u32)),
                    _ => dag.add_after(DagTaskId(task as u32), DagTaskId(src as u32)),
                }
                model[task][op - 1].push(src);
            }
            dag.validate().expect("nothing is poisoned");
            for (t, [inputs, soft, after]) in model.iter().enumerate() {
                let id = DagTaskId(t as u32);
                let data = |list: &[usize]| list.iter().map(|&i| DataId(i as u32)).collect::<Vec<_>>();
                let tasks = |list: &[usize]| list.iter().map(|&i| DagTaskId(i as u32)).collect::<Vec<_>>();
                prop_assert_eq!(dag.inputs(id).to_vec(), data(inputs));
                prop_assert_eq!(dag.soft_inputs(id).to_vec(), data(soft));
                prop_assert_eq!(dag.after(id).to_vec(), tasks(after));
            }
        }
    }
}
