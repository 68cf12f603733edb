//! Task, link, resource and phase identifiers plus the task specification
//! builders used to populate a [`crate::Simulation`].

use crate::error::SimError;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Identifier of a task inside one [`crate::Simulation`].
pub type TaskId = usize;

/// Identifier of a shared-bandwidth link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub(crate) usize);

impl LinkId {
    /// Returns the raw index of the link within its simulation.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a serial compute resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ResourceId(pub(crate) usize);

impl ResourceId {
    /// Returns the raw index of the resource within its simulation.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a phase label used for timeline breakdowns. It is stored
/// as the `u32` every arena stores an index as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PhaseId(pub(crate) u32);

impl PhaseId {
    /// Returns the raw index of the phase within its simulation.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a task does while it is active. Paths live in the simulation's
/// path arena; the task keeps its [`Span`] into it. Link and resource
/// indices are stored as `u32`, as the arenas store them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TaskKind {
    /// Moves `bytes` across every link of `path` simultaneously; the rate is
    /// the max-min fair share of the most contended link on the path.
    Flow {
        /// Links traversed by the flow. Order is irrelevant.
        path: Span,
        /// Payload size in bytes.
        bytes: f64,
    },
    /// Performs `work` units of computation on a serial resource.
    Compute {
        /// Index of the resource the task runs on (FIFO order).
        resource: u32,
        /// Work amount, in the resource's rate unit (e.g. FLOPs or bytes).
        work: f64,
    },
    /// Waits a fixed amount of virtual time.
    Delay {
        /// Duration in seconds.
        seconds: f64,
    },
    /// Completes instantly once all dependencies have completed.
    Barrier,
}

/// A run of entries in an arena: a task's dependencies or path in a
/// [`crate::Simulation`], a task's edges in a [`crate::Dag`]. Its bounds are
/// `u32`, so an arena holds at most `u32::MAX` entries. That bound is
/// checked once per arena, by [`fits_u32`], where the simulation or graph is
/// reserved and where it is run; a span built past it is never read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Span {
    start: u32,
    end: u32,
}

/// The error of a simulation or graph that would hold more than
/// `u32::MAX` of `what` (its spans and stored ids are `u32`), if `count`
/// does.
pub(crate) fn fits_u32(count: usize, what: &str) -> Result<(), SimError> {
    match u32::try_from(count) {
        Ok(_) => Ok(()),
        Err(_) => {
            Err(SimError::InvalidParameter { message: format!("more than {} {what}", u32::MAX) })
        }
    }
}

impl Span {
    /// Appends `items` to `arena` and returns where they landed.
    pub(crate) fn append<T>(arena: &mut Vec<T>, items: impl Iterator<Item = T>) -> Self {
        let start = arena.len();
        arena.extend(items);
        Self::since(start, arena)
    }

    /// Appends `item` to the run. A run that does not end the arena is
    /// first moved to its tail, leaving its old entries unused; builders
    /// almost always extend the newest run, so this is rare, and the order
    /// of entries is kept either way.
    pub(crate) fn push<T: Copy>(&mut self, arena: &mut Vec<T>, item: T) {
        if self.end as usize != arena.len() {
            let start = arena.len();
            arena.extend_from_within(self.start as usize..self.end as usize);
            self.start = start as u32;
        }
        arena.push(item);
        self.end = arena.len() as u32;
    }

    /// The entries appended to `arena` since it was `start` long.
    pub(crate) fn since<T>(start: usize, arena: &[T]) -> Self {
        Self { start: start as u32, end: arena.len() as u32 }
    }

    /// The entries of `arena` this span covers.
    pub(crate) fn of<T>(self, arena: &[T]) -> &[T] {
        &arena[self.start as usize..self.end as usize]
    }

    /// Number of entries covered.
    pub(crate) fn len(self) -> usize {
        (self.end - self.start) as usize
    }
}

/// Appends `more` to `deps`, borrowing it while `deps` is still empty.
fn extend<'a>(deps: &mut Cow<'a, [TaskId]>, more: &'a [TaskId]) {
    if deps.is_empty() {
        *deps = Cow::Borrowed(more);
    } else {
        deps.to_mut().extend_from_slice(more);
    }
}

/// Specification of a bandwidth-sharing flow task. The path and the
/// dependencies are borrowed when given as slices; the simulation copies
/// them into its arenas when the flow is added.
#[derive(Debug, Clone)]
pub struct FlowSpec<'a> {
    pub(crate) path: Cow<'a, [LinkId]>,
    pub(crate) bytes: f64,
    pub(crate) deps: Cow<'a, [TaskId]>,
    pub(crate) phase: Option<PhaseId>,
    pub(crate) label: Option<String>,
}

impl<'a> FlowSpec<'a> {
    /// Creates a flow moving `bytes` across the given link path (a `Vec`,
    /// or a borrowed slice).
    ///
    /// A zero-byte flow completes instantly (after its dependencies).
    pub fn new(path: impl Into<Cow<'a, [LinkId]>>, bytes: f64) -> Self {
        Self { path: path.into(), bytes, deps: Cow::Borrowed(&[]), phase: None, label: None }
    }

    /// Adds dependencies that must complete before the flow starts. The
    /// first call borrows `deps`; a later one copies both lists.
    pub fn after(mut self, deps: &'a [TaskId]) -> Self {
        extend(&mut self.deps, deps);
        self
    }

    /// Tags the flow with a phase for breakdown reporting.
    pub fn phase(mut self, phase: PhaseId) -> Self {
        self.phase = Some(phase);
        self
    }

    /// Attaches a human-readable label (shown in debugging dumps).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }
}

/// Specification of a serial compute task.
#[derive(Debug, Clone)]
pub struct ComputeSpec<'a> {
    pub(crate) resource: ResourceId,
    pub(crate) work: f64,
    pub(crate) deps: Cow<'a, [TaskId]>,
    pub(crate) phase: Option<PhaseId>,
    pub(crate) label: Option<String>,
}

impl<'a> ComputeSpec<'a> {
    /// Creates a compute task performing `work` units on `resource`.
    pub fn new(resource: ResourceId, work: f64) -> Self {
        Self { resource, work, deps: Cow::Borrowed(&[]), phase: None, label: None }
    }

    /// Adds dependencies that must complete before the task is enqueued.
    /// The first call borrows `deps`; a later one copies both lists.
    pub fn after(mut self, deps: &'a [TaskId]) -> Self {
        extend(&mut self.deps, deps);
        self
    }

    /// Tags the task with a phase for breakdown reporting.
    pub fn phase(mut self, phase: PhaseId) -> Self {
        self.phase = Some(phase);
        self
    }

    /// Attaches a human-readable label (shown in debugging dumps).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }
}

/// Specification of a fixed virtual-time delay.
#[derive(Debug, Clone)]
pub struct DelaySpec<'a> {
    pub(crate) seconds: f64,
    pub(crate) deps: Cow<'a, [TaskId]>,
    pub(crate) phase: Option<PhaseId>,
    pub(crate) label: Option<String>,
}

impl<'a> DelaySpec<'a> {
    /// Creates a delay of `seconds` virtual seconds.
    pub fn new(seconds: f64) -> Self {
        Self { seconds, deps: Cow::Borrowed(&[]), phase: None, label: None }
    }

    /// Adds dependencies that must complete before the delay starts. The
    /// first call borrows `deps`; a later one copies both lists.
    pub fn after(mut self, deps: &'a [TaskId]) -> Self {
        extend(&mut self.deps, deps);
        self
    }

    /// Tags the delay with a phase for breakdown reporting.
    pub fn phase(mut self, phase: PhaseId) -> Self {
        self.phase = Some(phase);
        self
    }

    /// Attaches a human-readable label (shown in debugging dumps).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }
}

/// Internal task representation stored by the simulation: its kind, a
/// span into the dependency arena and its phase, with no heap of its own
/// (labels live in a side list of the simulation).
#[derive(Debug, Clone)]
pub(crate) struct Task {
    pub(crate) kind: TaskKind,
    pub(crate) deps: Span,
    pub(crate) phase: Option<PhaseId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_spec_builder_collects_fields() {
        let spec = FlowSpec::new(vec![LinkId(0), LinkId(3)], 42.0)
            .after(&[1, 2])
            .phase(PhaseId(7))
            .label("grad offload");
        assert_eq!(*spec.path, [LinkId(0), LinkId(3)]);
        assert_eq!(spec.bytes, 42.0);
        assert_eq!(*spec.deps, [1, 2]);
        assert_eq!(spec.phase, Some(PhaseId(7)));
        assert_eq!(spec.label.as_deref(), Some("grad offload"));
    }

    #[test]
    fn compute_spec_builder_collects_fields() {
        let spec = ComputeSpec::new(ResourceId(2), 1e9).after(&[0]).phase(PhaseId(1));
        assert_eq!(spec.resource, ResourceId(2));
        assert_eq!(spec.work, 1e9);
        assert_eq!(*spec.deps, [0]);
        assert_eq!(spec.phase, Some(PhaseId(1)));
    }

    #[test]
    fn a_task_is_forty_bytes_and_an_arena_stops_at_u32_max() {
        assert!(std::mem::size_of::<Task>() <= 40, "{} bytes", std::mem::size_of::<Task>());
        let last = u32::MAX as usize;
        let too_many =
            |what| SimError::InvalidParameter { message: format!("more than {last} {what}") };
        assert_eq!(fits_u32(last, "tasks"), Ok(()));
        assert_eq!(fits_u32(last + 1, "tasks"), Err(too_many("tasks")));
        // Counts past the bound poison a simulation, and nothing is reserved.
        for (i, what) in ["tasks", "dependencies", "path links"].into_iter().enumerate() {
            let mut counts = [0; 3];
            counts[i] = last + 1;
            let mut sim = crate::Simulation::new();
            sim.reserve(counts[0], counts[1], counts[2]);
            assert_eq!(sim.run().map(drop), Err(too_many(what)));
        }
        let mut arena = vec![1u32, 2];
        let mut run = Span::append(&mut arena, [3, 4].into_iter());
        let mut older = Span::default();
        older.push(&mut arena, 9);
        run.push(&mut arena, 5);
        assert_eq!((run.of(&arena), older.of(&arena)), (&[3, 4, 5][..], &[9][..]));
    }

    #[test]
    fn ids_expose_indices() {
        assert_eq!(LinkId(5).index(), 5);
        assert_eq!(ResourceId(6).index(), 6);
        assert_eq!(PhaseId(7).index(), 7);
    }
}
