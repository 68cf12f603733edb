//! `sim_scale`: the timed stack on large graphs. One op is one pass over six
//! fixed configurations (33 B, 16.6 B and 8.3 B parameter models on 6–10
//! devices, two of them on 8- and 16-host clusters), each through
//! `RunSpec::session` and `Session::simulate_iteration`.
//!
//! The discrete-event engine dominates here; graph build and lowering are a
//! small share. `lab_cycle` uses the same stack the other way round.

use super::{Env, Workload};
use crate::gen::{self, SimInput};
use crate::metrics::Ledger;
use crate::stats::median;
use crate::trace::Tracer;
use fabric::StorageKind;
use smart_infinity::cluster::simulate_allreduce;
use smart_infinity::sched::method_scheduler;
use smart_infinity::{IterationReport, MachineConfig, RunSpec, SmartInfinityEngine};
use ztrain::schedule::{
    build_iteration_graph, GraphKnobs, HostUpdateScheduler, IterPhases, PlatformLowering, SiteMap,
};
use ztrain::TimedPlatform;

pub struct SimOracle {
    /// `total_s().to_bits()` of each spec, by its position in the canonical list.
    bits: Vec<u64>,
}

fn parse(json: &str) -> Result<RunSpec, String> {
    RunSpec::from_json(json).map_err(|e| e.to_string())
}

fn simulate(spec: &RunSpec) -> Result<IterationReport, String> {
    spec.session().and_then(|s| s.simulate_iteration()).map_err(|e| e.to_string())
}

/// The expected results: the canonical list in its plain spelling, so that a
/// pass over the seeded order and spellings must reproduce them bit for bit.
pub fn oracle(_seed: u64) -> Result<SimOracle, String> {
    let bits = gen::sim_scale_specs()
        .iter()
        .map(|spec| simulate(&parse(&spec.plain())?).map(|r| r.total_s().to_bits()))
        .collect::<Result<Vec<u64>, String>>()?;
    Ok(SimOracle { bits })
}

/// Graph sizes and simulated time of one traced pass.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct PassCounts {
    dag_tasks: usize,
    sim_tasks: usize,
    simulated_s: f64,
}

pub struct SimScale {
    specs: Vec<(usize, RunSpec)>,
    expected: Vec<u64>,
    counts: PassCounts,
}

impl SimScale {
    pub fn setup(seed: u64, env: &Env, oracle: &SimOracle) -> Result<Self, String> {
        let specs = gen::sim_inputs(seed)
            .into_iter()
            .map(|SimInput { index, json }| Ok((index, parse(&json)?)))
            .collect::<Result<Vec<_>, String>>()?;
        let mut sim =
            SimScale { specs, expected: oracle.bits.clone(), counts: PassCounts::default() };
        let mut off = Tracer::new(false);
        for _ in 0..env.warmup_ops {
            sim.op(&mut off)?;
        }
        Ok(sim)
    }
}

impl Workload for SimScale {
    fn work_units(&self) -> f64 {
        self.specs.len() as f64
    }

    fn op(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let mut counts = PassCounts::default();
        let root = tracer.begin("sim_scale.pass");
        for (index, spec) in &self.specs {
            let report = if tracer.is_on() {
                traced_iteration(spec, tracer, &mut counts)?
            } else {
                simulate(spec)?
            };
            let bits = report.total_s().to_bits();
            if bits != self.expected[*index] {
                return Err(format!(
                    "{}: total_s bits {bits:016x}, expected {:016x}",
                    spec.label(),
                    self.expected[*index]
                ));
            }
            counts.simulated_s += report.total_s();
        }
        tracer.end(root);
        if tracer.is_on() {
            if self.counts != PassCounts::default() && self.counts != counts {
                return Err(format!("graph sizes changed between passes: {counts:?}"));
            }
            self.counts = counts;
        }
        Ok(())
    }

    fn ledger(&mut self, tracer: &mut Tracer, ledger: &mut Ledger) -> Result<(), String> {
        let ops = 1..tracer.upcoming_op();
        let us = |span: &str| median(&tracer.ms_per_op(span, &ops)) * 1e3;
        for (metric, span) in [
            ("smart_infinity.session_us", "smart_infinity.session"),
            ("smart_infinity.cluster_us", "smart_infinity.cluster"),
            ("ztrain.platform_us", "ztrain.platform"),
            ("ztrain.graph_build_us", "ztrain.graph_build"),
            ("simkit.lower_us", "simkit.lower"),
            ("simkit.run_us", "simkit.run"),
            ("simkit.timeline_us", "simkit.timeline"),
        ] {
            ledger.set(metric, us(span));
        }
        ledger.set("ztrain.dag_tasks", self.counts.dag_tasks as f64);
        ledger.set("simkit.sim_tasks", self.counts.sim_tasks as f64);
        ledger.set("simkit.simulated_s_sum", self.counts.simulated_s);
        ledger.set("simkit.run_ns_per_task", us("simkit.run") * 1e3 / self.counts.sim_tasks as f64);
        let pass_ms = median(&tracer.ms_per_op("sim_scale.pass", &ops));
        let covered_ms = median(&tracer.covered_ms_per_op(&["sim_scale.pass"], &ops));
        ledger.set("trace.residual_pct", 100.0 * (pass_ms - covered_ms) / pass_ms);
        Ok(())
    }
}

/// `Session::simulate_iteration` rebuilt from the public calls it makes, with
/// a span around each layer. The caller checks that the result has the same
/// bits as the real call's.
fn traced_iteration(
    spec: &RunSpec,
    tr: &mut Tracer,
    counts: &mut PassCounts,
) -> Result<IterationReport, String> {
    let session =
        tr.scope("smart_infinity.session", |_| spec.session()).map_err(|e| e.to_string())?;
    let method = session.method();
    let storage = if method.uses_csds() { StorageKind::Csd } else { StorageKind::PlainSsd };
    let machine = MachineConfig { storage, ..session.machine().clone() };
    let optimizer = session.optimizer().kind();

    let (mut plat, phases, sites, resources) = tr.scope("ztrain.platform", |_| {
        let mut plat = TimedPlatform::new(&machine);
        let phases = IterPhases {
            forward: plat.add_phase("forward"),
            backward: plat.add_phase("backward+grad_offload"),
            update: plat.add_phase("update+opt_transfer"),
        };
        let sites = SiteMap::new(plat.num_gpus(), plat.num_devices());
        let resources = plat.resource_catalog();
        (plat, phases, sites, resources)
    });
    let knobs = if method.uses_csds() {
        let subgroup = spec.subgroup_elems.unwrap_or(SmartInfinityEngine::DEFAULT_SUBGROUP_ELEMS);
        GraphKnobs::in_storage(method.keep_ratio(), subgroup)
    } else {
        GraphKnobs::host_update()
    };
    let graph = tr.scope("ztrain.graph_build", |_| {
        build_iteration_graph(session.workload(), sites, optimizer, &knobs, phases)
    });
    counts.dag_tasks += graph.dag.len();
    let outcome = tr
        .scope("simkit.lower", |_| {
            let mut lowering = PlatformLowering::new(&mut plat);
            if method.uses_csds() {
                let mut scheduler =
                    method_scheduler(method.implied_handler(), method.pipelined, &graph.layout);
                simkit::execute(&graph.dag, &resources, scheduler.as_mut(), &mut lowering)
            } else {
                let mut scheduler = HostUpdateScheduler::new(&graph.layout);
                simkit::execute(&graph.dag, &resources, &mut scheduler, &mut lowering)
            }
        })
        .map_err(|e| e.to_string())?;
    let timeline = tr.scope("simkit.run", |_| plat.run()).map_err(|e| e.to_string())?;
    counts.sim_tasks += timeline.records().len();
    let per_host = tr.scope("simkit.timeline", |_| {
        let finish =
            |id| timeline.finish_time(outcome.task(id).expect("the executor schedules every task"));
        let end = if method.uses_csds() {
            graph.layout.phase_end.expect("in-storage graphs carry an iteration end")
        } else {
            graph.layout.up_end
        };
        let (t_fw, t_bw, t_end) =
            (finish(graph.layout.fw_end), finish(graph.layout.bw_end), finish(end));
        IterationReport::new(t_fw, t_bw - t_fw, t_end - t_bw)
    });
    match spec.machine.cluster {
        None => Ok(per_host),
        Some(cluster) => {
            let grad_bytes = 2.0 * session.model().num_params() as f64;
            tr.scope("smart_infinity.cluster", |_| {
                simulate_allreduce(&cluster, &per_host, grad_bytes)
            })
            .map_err(|e| e.to_string())
        }
    }
}
