//! The timed pass: one discrete-event model of a training iteration for
//! every method — the host-update baseline, SmartUpdate, the internal
//! data-transfer handler, SmartComp and the pipelined execution backend —
//! run by [`Session::simulate_iteration`] on the session's own state.

use crate::session::Session;
use fabric::StorageKind;
use faultkit::TimedFaultEffects;
use serde::{Deserialize, Serialize};
use simkit::{DagTaskId, LinkId, Scheduler, SimError, TaskId, Timeline};
use ztrain::schedule::{
    build_iteration_graph, GraphKnobs, HostUpdateScheduler, IterPhases, PlatformLowering, SiteMap,
};
use ztrain::{IterationReport, StepPlan, TimedPlatform};

/// How the CSD-internal data transfer handler schedules tasklets
/// (paper Section IV-B, Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HandlerMode {
    /// Naive: each subgroup's load → update → write-back → upstream runs
    /// strictly sequentially, because a fresh device buffer is allocated per
    /// tasklet and must be released before the next one starts.
    Naive,
    /// Optimized: buffers are pre-allocated once and reused. The next
    /// subgroup's load starts as soon as the previous update finishes, the
    /// parameter write-back (urgent) proceeds immediately, and the remaining
    /// optimizer-state write-back is deferred and overlapped.
    Optimized,
}

/// Stage-level timing of one simulated iteration: the per-phase breakdown
/// plus how the pipelined stages occupied the shared host interconnect.
///
/// Produced by [`Session::simulate_iteration_stages`]. The
/// occupancy figures come from [`simkit::Timeline::link_busy_time_in_phase`]
/// over the fabric's host-uplink links, so they measure what the flows
/// actually did under contention — not an analytic estimate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PipelineTiming {
    /// The forward / backward / update phase breakdown.
    pub report: IterationReport,
    /// Seconds the *downstream* direction of the shared host interconnect
    /// carried gradient-offload flows (the pipeline's write stage).
    pub uplink_write_busy_s: f64,
    /// Seconds the *upstream* direction of the shared host interconnect
    /// carried parameter read-back flows (the pipeline's read-back stage).
    pub uplink_readback_busy_s: f64,
    /// Seconds of update-stage work that ran before the backward phase
    /// finished — the overlap the pipelined backend wins over the serial
    /// schedule (always 0 without pipelining).
    pub update_overlap_s: f64,
}

/// Per-tasklet overhead of the naive handler: OpenCL buffer allocation,
/// registration for P2P and kernel launch before any byte can move
/// (eliminated by the pre-allocating optimized handler).
pub(crate) const NAIVE_TASKLET_OVERHEAD_S: f64 = 0.02;

/// A name that holds only [`SmartInfinityEngine::DEFAULT_SUBGROUP_ELEMS`]:
/// it has no value, constructor or method, because a timed iteration runs
/// through [`Session::simulate_iteration`] alone. `benchmark/` names the
/// constant by this path; it goes when the benchmark stops replaying the
/// timed pass (ROADMAP item 1b).
pub enum SmartInfinityEngine {}

impl SmartInfinityEngine {
    /// [`StepPlan::DEFAULT_UNIT`], the largest default subgroup (tasklet)
    /// capacity, under the name `benchmark/` uses.
    pub const DEFAULT_SUBGROUP_ELEMS: usize = StepPlan::DEFAULT_UNIT;
}

/// One executed iteration: the timeline plus what the read-outs need.
pub(crate) struct TimedRun {
    timeline: Timeline,
    phases: IterPhases,
    /// End of the backward phase, seconds.
    t_bw: f64,
    pub(crate) report: IterationReport,
    /// The shared host interconnect, (downstream, upstream).
    uplinks: (LinkId, LinkId),
}

impl TimedRun {
    /// The stage-level read-out of the run (see [`PipelineTiming`]).
    pub(crate) fn stages(self) -> PipelineTiming {
        let TimedRun { timeline, phases, t_bw, report, uplinks: (down, up) } = self;
        PipelineTiming {
            report,
            uplink_write_busy_s: timeline.link_busy_time_in_phase(down, phases.backward),
            uplink_readback_busy_s: timeline.link_busy_time_in_phase(up, phases.update),
            // Actual update-stage work (union of its task intervals) that ran
            // before the backward phase finished — not the idle-inclusive
            // window since the first update task started.
            update_overlap_s: timeline.phase_busy_time_before(phases.update, t_bw),
        }
    }
}

/// The one timed pass of a validated session on one server: platform →
/// phases → graph → schedule → lowering → simulation → phase read-out.
///
/// The method alone decides where the update runs and how it is scheduled:
///
/// | update runs | storage   | graph knobs                 | scheduler             | iteration ends at |
/// |-------------|-----------|-----------------------------|-----------------------|-------------------|
/// | on the host | plain SSD | `host_update()`             | `HostUpdateScheduler` | `up_end`          |
/// | in the CSDs | CSD       | `in_storage(keep, subgroup)`| `method_scheduler`    | `phase_end`       |
///
/// so `machine.storage` is not an input: the same devices act as RAID0 SSDs
/// under the baseline and as CSDs under SmartUpdate (the paper runs its
/// baseline on the NVMe inside each SmartSSD). The session's handler and
/// `plan`'s unit (the session's [`StepPlan`]) are knobs of the in-storage
/// update; a host-update method has neither and ignores them. The in-storage
/// scheduler picks striped or owner-routed gradient scatters and sequential
/// or overlapped tasklet chains — see [`crate::sched`].
///
/// One stage is in memory at a time:
///
/// 1. lowering (in `lower`): the graph (56-byte tasks, 24-byte data items,
///    `u32` edges) and its layout, the scheduler, the resource catalog, the
///    executor's state and outcome, and the platform with its simulation,
///    whose arenas are reserved once for exactly what the scheduler's
///    decisions lower to, so none regrows;
/// 2. the run: the platform with its finished simulation (its task table
///    exactly its contents), the engine's working state (see
///    `simkit::Simulation::run`) and the timeline it fills, plus the three
///    lowered task ids the report reads;
/// 3. the read-out: the timeline, the phases and the uplinks, kept in the
///    [`TimedRun`]; the platform is dropped on return.
pub(crate) fn run(
    session: &Session,
    plan: &StepPlan,
    effects: Option<&TimedFaultEffects>,
) -> Result<TimedRun, SimError> {
    let storage =
        if session.method().uses_csds() { StorageKind::Csd } else { StorageKind::PlainSsd };
    let mut plat = TimedPlatform::new_with_faults(session.machine(), storage, effects);
    let phases = IterPhases {
        forward: plat.add_phase("forward"),
        backward: plat.add_phase("backward+grad_offload"),
        update: plat.add_phase("update+opt_transfer"),
    };
    let uplinks = plat.host_uplink_links();
    let ends = lower(session, plan.unit_elems(), &mut plat, phases)?;
    let timeline = plat.run()?;
    let [t_fw, t_bw, t_end] = ends.map(|task| timeline.finish_time(task));
    let report = IterationReport::new(t_fw, t_bw - t_fw, t_end - t_bw);
    Ok(TimedRun { timeline, phases, t_bw, report, uplinks })
}

/// Builds the iteration graph, schedules it and lowers it onto `plat`, and
/// returns the lowered tasks the report reads: the ends of the forward and
/// backward phases and of the iteration. Everything else it built is
/// dropped on return.
fn lower(
    session: &Session,
    unit_elems: usize,
    plat: &mut TimedPlatform,
    phases: IterPhases,
) -> Result<[TaskId; 3], SimError> {
    let method = session.method();
    let knobs = if method.uses_csds() {
        GraphKnobs::in_storage(method.keep_ratio(), unit_elems)
    } else {
        GraphKnobs::host_update()
    };
    let sites = SiteMap::new(plat.num_gpus(), plat.num_devices());
    let optimizer = session.optimizer().kind();
    let graph = build_iteration_graph(session.workload(), sites, optimizer, &knobs, phases);
    let resources = plat.resource_catalog();
    let (mut scheduler, end): (Box<dyn Scheduler + '_>, DagTaskId) = if method.uses_csds() {
        let scheduler =
            crate::sched::method_scheduler(session.handler(), method.pipelined, &graph.layout);
        (scheduler, graph.layout.phase_end.expect("in-storage graphs carry an iteration end"))
    } else {
        (Box::new(HostUpdateScheduler::new(&graph.layout)), graph.layout.up_end)
    };
    let mut lowering = PlatformLowering::new(plat);
    let outcome = simkit::execute(&graph.dag, &resources, scheduler.as_mut(), &mut lowering)?;
    let layout = &graph.layout;
    Ok([layout.fw_end, layout.bw_end, end]
        .map(|id| outcome.task(id).expect("executor schedules every DAG task")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MethodSpec, SessionBuilder};
    use llm::ModelConfig;
    use optim::{Optimizer, OptimizerKind};
    use ztrain::{MachineConfig, TrainError};

    fn builder(n_csds: usize, method: MethodSpec) -> SessionBuilder {
        Session::builder(ModelConfig::gpt2_4b(), MachineConfig::smart_infinity(n_csds), method)
    }

    fn session(n_csds: usize, method: MethodSpec) -> Session {
        builder(n_csds, method).build()
    }

    /// One iteration of the host-update baseline under `optimizer`.
    fn baseline(
        machine: MachineConfig,
        model: ModelConfig,
        kind: OptimizerKind,
    ) -> IterationReport {
        Session::builder(model, machine, MethodSpec::baseline())
            .with_optimizer(Optimizer::new(kind, Default::default()))
            .build()
            .simulate_iteration()
            .unwrap()
    }

    fn raid0(n_ssds: usize) -> MachineConfig {
        MachineConfig::baseline_raid0(n_ssds)
    }

    #[test]
    fn builders_record_configuration() {
        let s = session(4, MethodSpec::smart_comp(0.05));
        assert_eq!(s.handler(), HandlerMode::Optimized, "the method implies the handler");
        assert_eq!(s.validate().unwrap().unit_elems(), SmartInfinityEngine::DEFAULT_SUBGROUP_ELEMS);
        assert_eq!(s.machine().num_devices, 4);
        assert_eq!(s.workload().batch_size(), 4);
        assert_eq!(s.model(), s.workload().model(), "the session's model is its workload's");
        let s = builder(4, MethodSpec::smart_comp(0.05))
            .with_handler(HandlerMode::Naive)
            .with_subgroup_elems(25_000_000)
            .build();
        assert_eq!(s.handler(), HandlerMode::Naive);
        assert_eq!(s.validate().unwrap().unit_elems(), 25_000_000);
    }

    /// An incoherent method is a typed error through the one front door, in
    /// both timed read-outs, before anything is built.
    #[test]
    fn incoherent_method_is_rejected() {
        let s = session(4, MethodSpec { overlap: false, ..MethodSpec::pipelined(None) });
        let err = s.simulate_iteration().expect_err("incoherent axes");
        assert!(matches!(err, TrainError::Config { .. }), "{err}");
        let err = s.simulate_iteration_stages().expect_err("incoherent axes");
        assert!(matches!(err, TrainError::Config { .. }), "{err}");
    }

    #[test]
    fn optimized_handler_is_at_least_as_fast_as_naive() {
        let naive = session(6, MethodSpec::smart_update()).simulate_iteration().unwrap();
        let optimized =
            session(6, MethodSpec::smart_update_optimized()).simulate_iteration().unwrap();
        assert!(optimized.update_s <= naive.update_s * 1.001);
        assert!(optimized.update_s < naive.update_s, "overlap must buy something");
    }

    #[test]
    fn compression_shrinks_the_backward_offload() {
        let plain = session(10, MethodSpec::smart_update_optimized()).simulate_iteration().unwrap();
        let compressed = session(10, MethodSpec::smart_comp(0.01)).simulate_iteration().unwrap();
        assert!(compressed.backward_s < plain.backward_s);
        assert!(compressed.total_s() < plain.total_s());
    }

    #[test]
    fn smart_infinity_scales_with_csds_while_baseline_does_not() {
        let total = |n: usize| {
            session(n, MethodSpec::smart_update_optimized()).simulate_iteration().unwrap().total_s()
        };
        let t2 = total(2);
        let t4 = total(4);
        let t8 = total(8);
        assert!(t2 / t4 > 1.25, "2 -> 4 CSDs: {t2:.2} vs {t4:.2}");
        assert!(t4 / t8 > 1.15, "4 -> 8 CSDs: {t4:.2} vs {t8:.2}");
    }

    #[test]
    fn single_csd_is_not_faster_than_the_single_ssd_baseline() {
        // Paper Section VII-E: with one CSD there is no aggregate-bandwidth
        // benefit and a slight slowdown is expected.
        let base = baseline(raid0(1), ModelConfig::gpt2_4b(), OptimizerKind::Adam);
        let smart = session(1, MethodSpec::smart_update_optimized()).simulate_iteration().unwrap();
        let speedup = smart.speedup_over(&base);
        assert!(speedup <= 1.02, "single-CSD speedup should not exceed ~1x, got {speedup:.2}");
        assert!(speedup > 0.6, "the slowdown should be bounded, got {speedup:.2}");
    }

    #[test]
    fn pipelining_overlaps_update_with_backward() {
        let serial =
            session(6, MethodSpec::smart_update_optimized()).simulate_iteration_stages().unwrap();
        let pipe = session(6, MethodSpec::pipelined(None)).simulate_iteration_stages().unwrap();
        // The serial schedule starts every update at the end-of-backward
        // barrier; the pipelined schedule starts each device as soon as its
        // own shard gradients landed.
        assert_eq!(serial.update_overlap_s, 0.0);
        assert!(pipe.update_overlap_s > 0.0, "no overlap: {pipe:?}");
        assert!(
            pipe.report.total_s() < serial.report.total_s(),
            "overlap must buy something: {} vs {}",
            pipe.report.total_s(),
            serial.report.total_s()
        );
        // Stage bytes are charged over the fabric's shared uplink: the write
        // stage occupies the downstream direction, the read-back stage the
        // upstream direction, in both schedules.
        for timing in [&serial, &pipe] {
            assert!(timing.uplink_write_busy_s > 0.0);
            assert!(timing.uplink_readback_busy_s > 0.0);
        }
        // simulate_iteration is the stages run's phase report.
        let report = session(6, MethodSpec::pipelined(None)).simulate_iteration().unwrap();
        assert_eq!(report, pipe.report);
    }

    #[test]
    fn pipelining_composes_with_compression_and_the_naive_handler() {
        let pipe = session(8, MethodSpec::pipelined(None)).simulate_iteration().unwrap();
        let pipe_comp = session(8, MethodSpec::pipelined(Some(0.01))).simulate_iteration().unwrap();
        assert!(pipe_comp.total_s() < pipe.total_s(), "compression still helps when pipelined");
        // The naive handler's per-tasklet overhead hurts the pipelined
        // schedule exactly like the serial one.
        let naive = builder(8, MethodSpec::pipelined(None))
            .with_handler(HandlerMode::Naive)
            .build()
            .simulate_iteration();
        assert!(naive.unwrap().total_s() > pipe.total_s());
    }

    #[test]
    fn update_phase_no_longer_dominates_with_many_csds() {
        let report = session(10, MethodSpec::smart_comp(0.01)).simulate_iteration().unwrap();
        assert!(
            report.update_fraction() < 0.7,
            "update should no longer take >70% of the iteration, got {:.2}",
            report.update_fraction()
        );
    }

    // --- the host-update baseline on the same engine ------------------------

    #[test]
    fn report_phases_are_positive_and_ordered() {
        let session = Session::builder(
            ModelConfig::gpt2_0_34b(),
            MachineConfig::baseline_raid0(2),
            MethodSpec::baseline(),
        )
        .build();
        let timing = session.simulate_iteration_stages().unwrap();
        let report = session.simulate_iteration().unwrap();
        assert_eq!(report, timing.report);
        assert!(report.forward_s > 0.0);
        assert!(report.backward_s > 0.0);
        assert!(report.update_s > 0.0);
        // Backward costs at least as much compute as forward plus the offload.
        assert!(report.backward_s > report.forward_s);
        // The stage read-out is defined for the host update too: gradients go
        // down the uplink, states come back up, and nothing of the update
        // starts before the end-of-backward barrier.
        assert!(timing.uplink_write_busy_s > 0.0);
        assert!(timing.uplink_readback_busy_s > 0.0);
        assert_eq!(timing.update_overlap_s, 0.0);
    }

    #[test]
    fn update_time_shrinks_with_more_ssds_until_saturation() {
        let time_update =
            |n: usize| baseline(raid0(n), ModelConfig::gpt2_0_34b(), OptimizerKind::Adam).update_s;
        let u1 = time_update(1);
        let u2 = time_update(2);
        let u4 = time_update(4);
        let u8 = time_update(8);
        assert!(u1 > 1.5 * u2, "1 -> 2 SSDs should nearly halve the update: {u1} vs {u2}");
        assert!(u2 > u4);
        // Saturation: 4 -> 8 gives little.
        assert!(u4 / u8 < 1.35, "u4={u4} u8={u8}");
    }

    #[test]
    fn sgd_moves_less_state_than_adam() {
        let adam = baseline(raid0(4), ModelConfig::gpt2_0_34b(), OptimizerKind::Adam);
        let sgd = baseline(raid0(4), ModelConfig::gpt2_0_34b(), OptimizerKind::SgdMomentum);
        assert!(sgd.update_s < adam.update_s);
        // Forward/backward are unaffected by the optimizer choice.
        assert!((sgd.forward_s - adam.forward_s).abs() < 1e-6);
    }

    #[test]
    fn faster_gpu_shrinks_compute_but_not_update() {
        let a5000 = baseline(raid0(6), ModelConfig::gpt2_4b(), OptimizerKind::Adam);
        let a100 = baseline(
            raid0(6).with_gpu(llm::GpuSpec::a100()),
            ModelConfig::gpt2_4b(),
            OptimizerKind::Adam,
        );
        assert!(a100.forward_s < a5000.forward_s);
        assert!((a100.update_s - a5000.update_s).abs() / a5000.update_s < 0.05);
        // The update fraction therefore grows on the faster GPU (Section VII-E).
        assert!(a100.update_fraction() > a5000.update_fraction());
    }

    #[test]
    fn larger_models_take_proportionally_longer() {
        let total = |model: ModelConfig| baseline(raid0(4), model, OptimizerKind::Adam).total_s();
        let ratio = total(ModelConfig::gpt2_8_3b()) / total(ModelConfig::gpt2_2_5b());
        assert!(ratio > 2.5 && ratio < 4.5, "expected roughly 3.3x, got {ratio:.2}");
    }
}
