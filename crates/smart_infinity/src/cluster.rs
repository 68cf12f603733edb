//! Multi-host data-parallel training over the scheduler stack.
//!
//! One Smart-Infinity server is the paper's unit of evaluation; this module
//! scales the timed model *out*: `hosts` identical servers each run the
//! single-host iteration (simulated by the method schedulers as usual), and
//! a cluster-level task graph layers the data-parallel gradient allreduce on
//! top — per-host NICs into an oversubscribed backplane, a shared reduction
//! stage, and the per-host in-storage update once the reduced gradient
//! lands.
//!
//! The cluster layer is expressed *entirely* through the pluggable DAG
//! machinery ([`simkit::Dag`], [`simkit::Scheduler`], [`simkit::execute`]
//! and [`simkit::DirectLowering`]); the pre-refactor bespoke schedule
//! builders had no way to say "every host's exchange must land before the
//! reduction, but each host's update chases only its own broadcast". That
//! asymmetric synchronisation — all-in on the way up, per-host on the way
//! down — is the cluster scheduler's placement decision, and what lets a
//! straggler host delay the reduction without serialising the other hosts'
//! updates behind the slowest one.

use crate::spec::MethodSpec;
use serde::{Deserialize, Serialize};
use simkit::{
    execute, Anchor, Dag, DagTaskId, DagWork, DirectLowering, Resource, ScheduleDecision,
    Scheduler, SimError, Simulation, SpeedupCurve, SystemView, GB,
};
use ztrain::{IterationReport, TrainError};

/// Default per-host NIC bandwidth, in gigabits per second.
const DEFAULT_INTERCONNECT_GBPS: f64 = 100.0;
/// Default core count of the shared gradient-reduction stage.
const DEFAULT_REDUCE_CORES: usize = 4;
/// Default Amdahl serial fraction of the reduction kernel.
const DEFAULT_SERIAL_FRACTION: f64 = 0.05;
/// Per-core gradient-reduction rate, in bytes per second.
const REDUCE_BYTES_PER_CORE: f64 = 8.0 * GB;
/// The backplane carries the sum of the NIC rates divided by this factor
/// (a 2:1 oversubscribed top-of-rack switch).
const BACKPLANE_OVERSUBSCRIPTION: f64 = 2.0;
/// The most hosts a cluster may have. Every host's exchange and broadcast
/// share the one backplane, so the allreduce costs about hosts² to simulate:
/// 4 096 hosts take 0.06 s and 14 MB in an optimised build, 16 384 take
/// 0.7 s and 65 536 take 16 s (on top of the one per-host iteration).
const MAX_HOSTS: usize = 4096;
/// The most cores the reduction stage may have. A simulation costs the same
/// at any core count (1, 4, 65 536 and 2³² − 1 cores each simulate in under
/// a millisecond in an optimised build), so the bound is the simulator's
/// core type, `u32`: past it the count used to wrap (2³² cores became 0).
const MAX_REDUCE_CORES: usize = u32::MAX as usize;

/// One deliberately slow host: its compute (forward, backward, update) runs
/// `factor`× slower than its peers — the cluster-level straggler scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StragglerSpec {
    /// Which host lags (0-based).
    pub host: usize,
    /// Slowdown factor (≥ 1; 1 means no straggler).
    pub factor: f64,
}

/// The cluster half of a machine description: how many single-server
/// replicas train data-parallel, and the interconnect between them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of hosts (2 to 4 096); each is one full single-server machine.
    pub hosts: usize,
    /// Per-host NIC bandwidth in Gb/s (default 100).
    pub interconnect_gbps: Option<f64>,
    /// Cores of the shared gradient-reduction stage (default 4, at most
    /// 2³² − 1).
    pub reduce_cores: Option<usize>,
    /// Amdahl serial fraction of the reduction kernel (default 0.05).
    pub serial_fraction: Option<f64>,
    /// Optional straggler host.
    pub straggler: Option<StragglerSpec>,
}

impl ClusterSpec {
    /// A cluster of `hosts` identical servers with default interconnect.
    pub fn hosts(hosts: usize) -> Self {
        ClusterSpec {
            hosts,
            interconnect_gbps: None,
            reduce_cores: None,
            serial_fraction: None,
            straggler: None,
        }
    }

    /// Sets the per-host NIC bandwidth in Gb/s.
    #[must_use]
    pub(crate) fn with_interconnect_gbps(mut self, gbps: f64) -> Self {
        self.interconnect_gbps = Some(gbps);
        self
    }

    /// The per-host NIC rate in bytes per second.
    fn nic_bytes_per_sec(&self) -> f64 {
        self.interconnect_gbps.unwrap_or(DEFAULT_INTERCONNECT_GBPS) * 1e9 / 8.0
    }

    /// The shared reduction stage as a [`Resource`] description: a
    /// multi-core unit whose throughput follows an Amdahl speedup curve.
    /// A core count past [`ClusterSpec::validate`]'s bound saturates at
    /// that bound rather than wrapping.
    fn reducer(&self) -> Resource {
        let cores = self.reduce_cores.unwrap_or(DEFAULT_REDUCE_CORES);
        let serial_fraction = self.serial_fraction.unwrap_or(DEFAULT_SERIAL_FRACTION);
        Resource::new(
            u32::try_from(cores).unwrap_or(u32::MAX),
            REDUCE_BYTES_PER_CORE,
            f64::INFINITY,
            SpeedupCurve::Amdahl { serial_fraction },
        )
    }

    /// Checks the cluster shape and its compatibility with the method.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] for fewer than two or more than 4 096
    /// hosts, a non-positive interconnect, invalid reduction knobs (no
    /// cores, more than 2³² − 1 cores, a serial fraction outside [0, 1)), a
    /// straggler outside the cluster or with a factor below 1, and for
    /// methods without `in_storage_update` — the cluster layer reduces
    /// gradients *between* the hosts' in-storage updates, so the host-CPU
    /// baseline cannot be scaled out this way.
    pub fn validate(&self, method: &MethodSpec) -> Result<(), TrainError> {
        if !(2..=MAX_HOSTS).contains(&self.hosts) {
            return Err(TrainError::config(format!(
                "cluster has {} hosts, 2 to {MAX_HOSTS} are supported",
                self.hosts
            )));
        }
        if let Some(gbps) = self.interconnect_gbps {
            if !(gbps.is_finite() && gbps > 0.0) {
                return Err(TrainError::config(format!(
                    "cluster interconnect must be positive and finite, got {gbps} Gb/s"
                )));
            }
        }
        if let Some(cores) = self.reduce_cores.filter(|c| !(1..=MAX_REDUCE_CORES).contains(c)) {
            return Err(TrainError::config(format!(
                "the reduction stage has {cores} cores, 1 to {MAX_REDUCE_CORES} are supported"
            )));
        }
        if let Some(serial) = self.serial_fraction {
            if !(serial.is_finite() && (0.0..1.0).contains(&serial)) {
                return Err(TrainError::config(format!(
                    "reduction serial fraction must be in [0, 1), got {serial}"
                )));
            }
        }
        if let Some(straggler) = &self.straggler {
            if straggler.host >= self.hosts {
                return Err(TrainError::config(format!(
                    "straggler host {} is outside the cluster of {} host(s)",
                    straggler.host, self.hosts
                )));
            }
            if !(straggler.factor.is_finite() && straggler.factor >= 1.0) {
                return Err(TrainError::config(format!(
                    "straggler factor must be at least 1, got {}",
                    straggler.factor
                )));
            }
        }
        if !method.in_storage_update {
            return Err(TrainError::config(
                "cluster training layers the gradient allreduce over the in-storage update \
                 path: enable in_storage_update",
            ));
        }
        Ok(())
    }
}

/// The cluster allreduce schedule: the reduction waits on *every* host's
/// gradient exchange (realised as decision anchors over the graph's soft
/// dataflow), while each host's broadcast and update chase only their own
/// structural inputs.
#[derive(Debug)]
pub(crate) struct ClusterScheduler {
    reduce: DagTaskId,
    exchanges: Vec<DagTaskId>,
}

impl Scheduler for ClusterScheduler {
    fn name(&self) -> &'static str {
        "cluster-allreduce"
    }

    /// The decision for a task depends on the task alone.
    fn decide(
        &mut self,
        task: DagTaskId,
        _dag: &Dag,
        _system: &SystemView<'_>,
        out: &mut dyn FnMut(ScheduleDecision<'_>),
    ) {
        let mut decision = ScheduleDecision::new(task);
        if task == self.reduce {
            decision = decision.after_all(self.exchanges.iter().map(|&t| Anchor::Task(t)));
        }
        out(decision);
    }
}

/// The report-relevant landmarks of a cluster iteration graph.
struct ClusterLayout {
    fw_end: DagTaskId,
    allreduce_end: DagTaskId,
    iter_end: DagTaskId,
    reduce: DagTaskId,
    exchanges: Vec<DagTaskId>,
}

/// Phase handles of a cluster simulation.
struct ClusterPhases {
    forward: simkit::PhaseId,
    backward: simkit::PhaseId,
    update: simkit::PhaseId,
}

/// Builds the cluster-level iteration graph: per-host forward/backward (as
/// single compute blocks costed by the single-host simulation), gradient
/// exchange into the shared reducer, per-host broadcast and update.
fn build_cluster_graph(
    hosts: usize,
    per_host: &IterationReport,
    grad_bytes: f64,
    phases: &ClusterPhases,
) -> (Dag, ClusterLayout) {
    let mut dag = Dag::new();
    // Hosts are sites 0..hosts; the switch-attached reduction stage is next.
    let hub = hosts as u32;
    let mut fw_tasks = Vec::with_capacity(hosts);
    let mut acts = Vec::with_capacity(hosts);
    for h in 0..hub {
        let t = dag.add_task(DagWork::Compute { site: h, amount: per_host.forward_s });
        dag.set_phase(t, phases.forward);
        acts.push(dag.add_output(t, 0.0, Some(h)));
        fw_tasks.push(t);
    }
    let fw_end = dag.add_task(DagWork::Join);
    for &t in &fw_tasks {
        dag.add_after(fw_end, t);
    }
    let mut grads = Vec::with_capacity(hosts);
    for (h, &act) in (0..).zip(&acts) {
        let t = dag.add_task(DagWork::Compute { site: h, amount: per_host.backward_s });
        dag.set_phase(t, phases.backward);
        dag.connect(t, act);
        grads.push(dag.add_output(t, grad_bytes, Some(h)));
    }
    let mut exchanges = Vec::with_capacity(hosts);
    let mut shards = Vec::with_capacity(hosts);
    for (h, &grad) in (0..).zip(&grads) {
        let t = dag.add_task(DagWork::Transfer { from: h, to: hub, bytes: grad_bytes });
        dag.set_phase(t, phases.backward);
        dag.connect(t, grad);
        shards.push(dag.add_output(t, grad_bytes, Some(hub)));
        exchanges.push(t);
    }
    // The reduction's dataflow from the exchanges is soft: the scheduler
    // decides the synchronisation realising the allreduce barrier.
    let reduce = dag.add_task(DagWork::Compute { site: hub, amount: grad_bytes * hosts as f64 });
    dag.set_phase(reduce, phases.backward);
    for &shard in &shards {
        dag.connect_soft(reduce, shard);
    }
    let reduced = dag.add_output(reduce, grad_bytes, Some(hub));
    let mut bcasts = Vec::with_capacity(hosts);
    let mut summed = Vec::with_capacity(hosts);
    for h in 0..hub {
        let t = dag.add_task(DagWork::Transfer { from: hub, to: h, bytes: grad_bytes });
        dag.set_phase(t, phases.backward);
        dag.connect(t, reduced);
        summed.push(dag.add_output(t, grad_bytes, Some(h)));
        bcasts.push(t);
    }
    let allreduce_end = dag.add_task(DagWork::Join);
    for &t in &bcasts {
        dag.add_after(allreduce_end, t);
    }
    let mut updates = Vec::with_capacity(hosts);
    for (h, &sum) in (0..).zip(&summed) {
        let t = dag.add_task(DagWork::Compute { site: h, amount: per_host.update_s });
        dag.set_phase(t, phases.update);
        dag.connect(t, sum);
        updates.push(t);
    }
    let iter_end = dag.add_task(DagWork::Join);
    for &t in &updates {
        dag.add_after(iter_end, t);
    }
    (dag, ClusterLayout { fw_end, allreduce_end, iter_end, reduce, exchanges })
}

/// Simulates one data-parallel cluster iteration: every host runs the given
/// single-host iteration, gradients of `grad_bytes` are all-reduced over the
/// cluster interconnect, and the per-host updates follow their broadcasts.
///
/// The returned breakdown attributes the allreduce to the backward phase:
/// `forward_s` is the slowest host's forward pass, `backward_s` spans
/// backward + exchange + reduction + broadcast, and `update_s` is the tail
/// the per-host updates add after the allreduce completes.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulation kernel (which only occurs for
/// malformed graphs and would indicate a bug in this module).
pub fn simulate_allreduce(
    cluster: &ClusterSpec,
    per_host: &IterationReport,
    grad_bytes: f64,
) -> Result<IterationReport, SimError> {
    let hosts = cluster.hosts;
    let hub = hosts as u32;
    let mut sim = Simulation::new();
    let phases = ClusterPhases {
        forward: sim.add_phase(),
        backward: sim.add_phase(),
        update: sim.add_phase(),
    };
    let nic_rate = cluster.nic_bytes_per_sec();
    let backplane = sim.add_link(nic_rate * hosts as f64 / BACKPLANE_OVERSUBSCRIPTION);
    // Host compute amounts are *seconds* from the single-host simulation, so
    // host resources run at unit rate — except the straggler, whose rate
    // drops by its factor.
    let mut resources = Vec::with_capacity(hosts + 1);
    let mut host_res = Vec::with_capacity(hosts);
    let mut nics = Vec::with_capacity(hosts);
    for h in 0..hosts {
        let slowdown = match &cluster.straggler {
            Some(s) if s.host == h => s.factor,
            _ => 1.0,
        };
        let desc = Resource::serial(1.0 / slowdown);
        host_res.push(sim.add_resource(desc.full_rate()));
        resources.push(desc);
        nics.push(sim.add_link(nic_rate));
    }
    let reducer_desc = cluster.reducer();
    let reducer = sim.add_resource(reducer_desc.full_rate());
    resources.push(reducer_desc);

    let (dag, layout) = build_cluster_graph(hosts, per_host, grad_bytes, &phases);
    let mut scheduler =
        ClusterScheduler { reduce: layout.reduce, exchanges: layout.exchanges.clone() };
    let outcome = {
        let mut lowering = DirectLowering::new(&mut sim);
        for (h, (&resource, &nic)) in (0..).zip(host_res.iter().zip(&nics)) {
            lowering.map_site(h, resource);
            lowering.map_route(h, hub, vec![nic, backplane]);
            lowering.map_route(hub, h, vec![backplane, nic]);
        }
        lowering.map_site(hub, reducer);
        execute(&dag, &resources, &mut scheduler, &mut lowering)?
    };
    let timeline = sim.run()?;
    let finish = |id| {
        let task = outcome.task(id).expect("executor schedules every cluster task");
        timeline.finish_time(task)
    };
    let t_fw = finish(layout.fw_end);
    let t_allreduce = finish(layout.allreduce_end);
    let t_end = finish(layout.iter_end);
    Ok(IterationReport::new(t_fw, t_allreduce - t_fw, t_end - t_allreduce))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn per_host() -> IterationReport {
        IterationReport::new(1.0, 2.0, 3.0)
    }

    /// Four hosts, of which `host` runs `factor` times slower.
    fn straggling(host: usize, factor: f64) -> ClusterSpec {
        ClusterSpec { straggler: Some(StragglerSpec { host, factor }), ..ClusterSpec::hosts(4) }
    }

    #[test]
    fn cluster_validation_rejects_bad_shapes() {
        let method = MethodSpec::smart_update_optimized();
        assert!(ClusterSpec::hosts(1).validate(&method).is_err());
        assert!(ClusterSpec::hosts(4).validate(&method).is_ok());
        assert!(straggling(4, 2.0).validate(&method).is_err());
        assert!(straggling(1, 0.5).validate(&method).is_err());
        let mut slow_net = ClusterSpec::hosts(4);
        slow_net.interconnect_gbps = Some(0.0);
        assert!(slow_net.validate(&method).is_err());
        let mut bad_serial = ClusterSpec::hosts(4);
        bad_serial.serial_fraction = Some(1.5);
        assert!(bad_serial.validate(&method).is_err());
        let mut no_cores = ClusterSpec::hosts(4);
        no_cores.reduce_cores = Some(0);
        assert!(no_cores.validate(&method).is_err());
        // The host-CPU baseline has no in-storage update to overlap with.
        let err = ClusterSpec::hosts(4).validate(&MethodSpec::baseline()).expect_err("baseline");
        assert!(err.to_string().contains("in_storage_update"), "{err}");
    }

    /// The answers to a spec of `machine` JSON under SU+O, from a worker
    /// thread that must finish within `limit_s` seconds.
    fn answered_within<T: Send + 'static>(
        limit_s: u64,
        work: impl FnOnce(&dyn Fn(&str) -> Result<(), TrainError>) -> T + Send + 'static,
    ) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let run = |machine: &str| {
                let json = format!(
                    r#"{{"model":"GPT2-0.34B","machine":{machine},
                        "method":{{"offload":true,"in_storage_update":true,"overlap":true,
                                  "pipelined":false}}}}"#
                );
                let spec = crate::RunSpec::from_json(&json).expect("the spec parses");
                spec.session()?.simulate_iteration().map(drop)
            };
            tx.send(work(&run)).expect("the test waits");
        });
        let limit = std::time::Duration::from_secs(limit_s);
        let answers = rx.recv_timeout(limit).expect("every spec is answered in time");
        worker.join().expect("the worker does not panic");
        answers
    }

    /// Past the host bound a cluster is a typed error at once, and a cluster
    /// at the bound still simulates.
    #[test]
    fn host_counts_past_the_bound_are_rejected_at_once() {
        let (past, at) = answered_within(20, |run| {
            let cluster =
                |hosts: usize| format!(r#"{{"devices":2,"cluster":{{"hosts":{hosts}}}}}"#);
            (run(&cluster(1 << 40)), run(&cluster(MAX_HOSTS)))
        });
        let err = past.expect_err("2^40 hosts are past the bound");
        assert!(matches!(err, TrainError::Config { .. }), "{err}");
        assert!(err.to_string().contains("2 to 4096"), "{err}");
        at.expect("a cluster of 4 096 hosts simulates");
    }

    /// Past the core bound (where the count used to wrap: 2³² cores became
    /// 0, and 2³² + 1 became 1) the spec is a typed error that names the
    /// bound, and the bound itself simulates.
    #[test]
    fn reduction_cores_past_the_bound_are_rejected_at_once() {
        let (wrapped_to_zero, wrapped_to_one, at) = answered_within(20, |run| {
            let cores = |cores: u64| {
                format!(r#"{{"devices":2,"cluster":{{"hosts":4,"reduce_cores":{cores}}}}}"#)
            };
            (run(&cores(1 << 32)), run(&cores((1 << 32) + 1)), run(&cores(u32::MAX.into())))
        });
        for past in [wrapped_to_zero, wrapped_to_one] {
            let err = past.expect_err("past the bound");
            assert!(matches!(err, TrainError::Config { .. }), "{err}");
            assert!(err.to_string().contains("1 to 4294967295"), "{err}");
        }
        at.expect("2^32 - 1 reduction cores simulate");
    }

    #[test]
    fn allreduce_adds_to_the_single_host_iteration() {
        let report = simulate_allreduce(&ClusterSpec::hosts(4), &per_host(), 8.0 * GB).unwrap();
        let single = per_host();
        // Forward and update are unchanged; the allreduce lengthens backward.
        assert!((report.forward_s - single.forward_s).abs() < 1e-9);
        assert!(report.backward_s > single.backward_s);
        assert!((report.update_s - single.update_s).abs() < 1e-9);
    }

    #[test]
    fn straggler_delays_the_reduction_but_not_other_hosts_updates() {
        let base = simulate_allreduce(&ClusterSpec::hosts(4), &per_host(), 8.0 * GB).unwrap();
        let straggled = simulate_allreduce(&straggling(2, 3.0), &per_host(), 8.0 * GB).unwrap();
        // The slowest host's forward gates the cluster forward phase...
        assert!((straggled.forward_s - 3.0 * per_host().forward_s).abs() < 1e-9);
        // ...and the allreduce barrier makes the whole iteration pay for it.
        assert!(straggled.total_s() > base.total_s());
        // But the iteration does not pay 3x end to end: only the straggler's
        // compute stretches, and the fast hosts' updates complete inside the
        // straggler's update tail instead of queueing behind it.
        assert!(straggled.total_s() < 3.0 * base.total_s());
        assert!(straggled.update_s <= 3.0 * per_host().update_s + 1e-9);
    }

    #[test]
    fn faster_interconnects_shrink_the_allreduce() {
        let mut slow = ClusterSpec::hosts(4);
        slow.interconnect_gbps = Some(25.0);
        let mut fast = ClusterSpec::hosts(4);
        fast.interconnect_gbps = Some(200.0);
        let t_slow = simulate_allreduce(&slow, &per_host(), 8.0 * GB).unwrap();
        let t_fast = simulate_allreduce(&fast, &per_host(), 8.0 * GB).unwrap();
        assert!(t_slow.backward_s > t_fast.backward_s);
    }

    #[test]
    fn reduction_stage_follows_its_amdahl_curve() {
        let mut one_core = ClusterSpec::hosts(4);
        one_core.reduce_cores = Some(1);
        let mut many_cores = ClusterSpec::hosts(4);
        many_cores.reduce_cores = Some(16);
        // A big gradient makes the reduction the bottleneck.
        let grad = 256.0 * GB;
        let t1 = simulate_allreduce(&one_core, &per_host(), grad).unwrap();
        let t16 = simulate_allreduce(&many_cores, &per_host(), grad).unwrap();
        assert!(t16.backward_s < t1.backward_s);
        // Amdahl: 16 cores are faster, but nowhere near 16x.
        let r1 = one_core.reducer().full_rate();
        let r16 = many_cores.reducer().full_rate();
        assert!(r16 / r1 > 4.0 && r16 / r1 < 16.0, "Amdahl speedup {}", r16 / r1);
    }
}
