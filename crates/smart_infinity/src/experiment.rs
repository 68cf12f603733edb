//! The experiment front-end: the paper's method ladder and sweep helpers used
//! by the benchmark harness, the examples and the integration tests. Methods
//! are [`MethodSpec`] capability axes throughout.

use crate::engine_timed::SmartInfinityEngine;
use crate::spec::MethodSpec;
use fabric::StorageKind;
use llm::Workload;
use optim::OptimizerKind;
use serde::{Deserialize, Serialize};
use ztrain::{BaselineEngine, IterationReport, MachineConfig, TrainError};

/// One method's result within an experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodReport {
    /// The method's figure label.
    pub label: String,
    /// The per-phase breakdown.
    pub report: IterationReport,
    /// Speedup over the experiment's baseline.
    pub speedup: f64,
}

/// A single experimental setting: one machine and one workload.
///
/// The baseline always runs against the same number of storage devices as
/// Smart-Infinity, using them as plain RAID0 SSDs (the paper uses the NVMe
/// SSD inside each SmartSSD for its baseline, so the device count and media
/// bandwidths are identical by construction).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Experiment {
    /// The machine configuration (storage devices are treated as CSDs for
    /// Smart-Infinity methods and as plain SSDs for the baseline).
    pub machine: MachineConfig,
    /// The training workload.
    pub workload: Workload,
    /// The optimizer (Adam unless overridden).
    pub optimizer: OptimizerKind,
    /// Subgroup (tasklet) capacity override for the Smart-Infinity engines.
    pub subgroup_elems: usize,
}

impl Experiment {
    /// Creates an experiment with the Adam optimizer.
    pub fn new(machine: MachineConfig, workload: Workload) -> Self {
        Self {
            machine,
            workload,
            optimizer: OptimizerKind::Adam,
            subgroup_elems: SmartInfinityEngine::DEFAULT_SUBGROUP_ELEMS,
        }
    }

    /// Overrides the optimizer (Section VII-F).
    pub fn with_optimizer(mut self, optimizer: OptimizerKind) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Overrides the subgroup capacity used by the Smart-Infinity engines.
    ///
    /// # Panics
    ///
    /// Panics if `elems` is zero.
    pub fn with_subgroup_elems(mut self, elems: usize) -> Self {
        assert!(elems > 0, "subgroup capacity must be positive");
        self.subgroup_elems = elems;
        self
    }

    fn baseline_machine(&self) -> MachineConfig {
        MachineConfig { storage: StorageKind::PlainSsd, ..self.machine.clone() }
    }

    fn smart_machine(&self) -> MachineConfig {
        MachineConfig { storage: StorageKind::Csd, ..self.machine.clone() }
    }

    /// Simulates one iteration of the method described by the capability
    /// axes: the baseline engine when `in_storage_update` is off, the
    /// Smart-Infinity engine configured straight from the spec otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] for incoherent axes and a wrapped
    /// simulation-kernel failure otherwise.
    pub fn run_spec(&self, spec: &MethodSpec) -> Result<IterationReport, TrainError> {
        spec.validate()?;
        let report = if !spec.uses_csds() {
            BaselineEngine::new(self.baseline_machine(), self.workload.clone(), self.optimizer)
                .simulate_iteration()?
        } else {
            self.smart_engine().with_method_spec(spec).simulate_iteration()?
        };
        Ok(report)
    }

    fn smart_engine(&self) -> SmartInfinityEngine {
        SmartInfinityEngine::new(self.smart_machine(), self.workload.clone(), self.optimizer)
            .with_subgroup_elems(self.subgroup_elems)
    }

    /// Runs a list of method specs and reports each with its speedup over
    /// the first (the baseline in the standard ladder).
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] wrapping any simulation-kernel failure.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub fn compare_specs(&self, specs: &[MethodSpec]) -> Result<Vec<MethodReport>, TrainError> {
        assert!(!specs.is_empty(), "at least one method is required");
        let baseline = self.run_spec(&specs[0])?;
        specs
            .iter()
            .map(|spec| {
                let report = self.run_spec(spec)?;
                Ok(MethodReport {
                    label: spec.to_string(),
                    speedup: report.speedup_over(&baseline),
                    report,
                })
            })
            .collect()
    }

    /// Convenience: the full paper ladder (BASE / SU / SU+O / SU+O+C at 2%).
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] wrapping any simulation-kernel failure.
    pub fn ladder(&self) -> Result<Vec<MethodReport>, TrainError> {
        self.compare_specs(&MethodSpec::ladder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm::ModelConfig;

    fn experiment(n: usize) -> Experiment {
        Experiment::new(
            MachineConfig::smart_infinity(n),
            Workload::paper_default(ModelConfig::gpt2_4b()),
        )
    }

    #[test]
    fn labels_match_the_paper() {
        let labels: Vec<String> =
            experiment(6).ladder().unwrap().into_iter().map(|r| r.label).collect();
        assert_eq!(labels, ["BASE", "SU", "SU+O", "SU+O+C(2%)"]);
    }

    #[test]
    fn off_ladder_specs_compose_and_incoherent_ones_are_rejected() {
        let exp = experiment(6);
        // Off the paper's ladder: compression under the naive handler (SU+C).
        // It must be slower than SU+O+C and faster than plain SU.
        let su_c = MethodSpec::smart_update().with_compression(crate::CompressionSpec::top_k(0.01));
        let su_c_t = exp.run_spec(&su_c).unwrap().total_s();
        let su_t = exp.run_spec(&MethodSpec::smart_update()).unwrap().total_s();
        let su_o_c_t = exp.run_spec(&MethodSpec::smart_comp(0.01)).unwrap().total_s();
        assert!(su_o_c_t < su_c_t && su_c_t < su_t, "{su_o_c_t} < {su_c_t} < {su_t}");
        // An incoherent spec is rejected up front, not deep in the engine.
        let bad = MethodSpec { overlap: false, ..MethodSpec::pipelined(None) };
        assert!(matches!(exp.run_spec(&bad), Err(TrainError::Config { .. })));
    }

    #[test]
    fn pipelined_method_is_at_least_as_fast_as_its_serial_counterpart() {
        let exp = experiment(6);
        let su_o = exp.run_spec(&MethodSpec::smart_update_optimized()).unwrap();
        let pipe = exp.run_spec(&MethodSpec::pipelined(None)).unwrap();
        assert!(
            pipe.total_s() <= su_o.total_s() * 1.001,
            "{} vs {}",
            pipe.total_s(),
            su_o.total_s()
        );
        let comp = exp.run_spec(&MethodSpec::smart_comp(0.01)).unwrap();
        let pipe_comp = exp.run_spec(&MethodSpec::pipelined(Some(0.01))).unwrap();
        assert!(pipe_comp.total_s() <= comp.total_s() * 1.001);
        assert!(pipe_comp.total_s() < pipe.total_s(), "compression still helps when pipelined");
    }

    #[test]
    fn ladder_reports_baseline_speedup_of_one() {
        let reports = experiment(6).ladder().unwrap();
        assert_eq!(reports.len(), 4);
        assert!((reports[0].speedup - 1.0).abs() < 1e-9);
        assert!(reports.iter().skip(1).all(|r| r.speedup > 1.0));
    }

    #[test]
    fn optimizer_override_affects_the_baseline_state_volume() {
        let adam = experiment(6).run_spec(&MethodSpec::baseline()).unwrap();
        let sgd = experiment(6)
            .with_optimizer(OptimizerKind::SgdMomentum)
            .run_spec(&MethodSpec::baseline())
            .unwrap();
        assert!(sgd.update_s < adam.update_s);
    }

    #[test]
    #[should_panic(expected = "at least one method")]
    fn empty_compare_panics() {
        let _ = experiment(2).compare_specs(&[]);
    }
}
