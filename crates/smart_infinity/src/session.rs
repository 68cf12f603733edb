//! The session front door: declare *what* to train — a model, a machine and
//! a method's capability axes — and the library decides *where* the update
//! runs.
//!
//! A [`Session`] makes the [`MethodSpec`] the single switch for both views
//! of the system:
//!
//! * [`Session::trainer`] builds the *functional* [`PipelinedTrainer`]
//!   behind a `Box<dyn Trainer>`, with the update where the spec puts it: on
//!   the host, the RAID0 baseline; in the CSDs, compressed when the spec
//!   says so.
//! * [`Session::simulate_iteration`] runs the *timed* model of the same
//!   configuration and returns the per-phase breakdown;
//!   [`Session::simulate_iteration_stages`] adds how the pipelined stages
//!   occupied the shared host interconnect. They are the only way into the
//!   timed model, and the pass borrows the session: no machine, workload or
//!   session is copied for it.
//!
//! Both paths speak [`TrainError`], so a caller can mix them with `?`, and
//! both validate the spec centrally instead of panicking in a substrate.
//! Sessions can also be described entirely as data — see [`crate::RunSpec`]
//! and the `specs/*.json` spec lists ([`crate::Campaign`]).

use crate::cluster::ClusterSpec;
use crate::engine_timed::{self, HandlerMode, PipelineTiming};
use crate::spec::MethodSpec;
use faultkit::{FaultPlan, FaultSpec};
use llm::{ModelConfig, Workload};
use optim::Optimizer;
use tensorlib::FlatTensor;
use ztrain::{IterationReport, MachineConfig, PipelinedTrainer, StepPlan, TrainError, Trainer};

/// The most update tasklets (the units of an iteration's [`StepPlan`], over
/// all devices) a timed iteration may have. Each costs about 3 KB of graph
/// and simulation state, so a run at the bound holds about 200 MB; the
/// largest any checked-in spec or test builds has 330.
const MAX_TASKLETS: usize = 1 << 16;

/// The most storage devices a machine may have. Routes are resolved by a
/// search over the whole topology per endpoint pair, so a machine costs
/// O(devices × nodes) to lower onto: 4 096 devices (the largest machine any
/// test builds) take about a second, 200 000 would not finish.
const MAX_DEVICES: usize = 4096;

/// The most GPUs a machine may have. Every block of the iteration runs a
/// task per GPU and gathers their activations at GPU 0 over shared links, and
/// the route table has a slot per GPU pair, so the cost grows faster than the
/// GPU count: with the largest accepted machine and model (4 096 devices, a
/// 1000-billion-parameter scaled GPT-2), 64 GPUs simulate in 7.5 s and
/// 150 MB in an optimised build, 256 GPUs in 40 s. Past about 2³² GPUs the
/// route table's size used to wrap.
const MAX_GPUS: usize = 64;

/// Builder for a [`Session`]; see [`Session::builder`]. It holds the
/// session it builds.
#[derive(Debug, Clone)]
pub struct SessionBuilder(Session);

impl SessionBuilder {
    /// Overrides the optimizer (default: Adam with the paper's
    /// hyperparameters). The kind drives the timed model's state volume; the
    /// full hyperparameters drive the functional kernels.
    pub fn with_optimizer(mut self, optimizer: Optimizer) -> Self {
        self.0.optimizer = optimizer;
        self
    }

    /// Sets the host worker-thread count of the functional execution backend
    /// (default 1, i.e. serial). Thread count never changes training results
    /// — only wall-clock time. The host baseline is serial by construction
    /// and ignores this knob.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.0.threads = threads.max(1);
        self
    }

    /// Forces the internal data-transfer handler mode of the timed
    /// in-storage update, overriding the one implied by the method
    /// (e.g. to simulate SmartComp with the naive handler as an ablation).
    /// Ignored by baseline (non-CSD) methods and by the functional trainer.
    pub fn with_handler(mut self, handler: HandlerMode) -> Self {
        self.0.handler = Some(handler);
        self
    }

    /// Overrides the subgroup (tasklet) capacity in parameters, for both the
    /// timed model and the functional trainer. Both cut a step by the one
    /// rule of [`StepPlan::cut_into`]: without the override, one subgroup per
    /// device shard of at most [`StepPlan::DEFAULT_UNIT`] parameters (the
    /// functional trainer's blocks on the host likewise).
    ///
    /// A zero capacity is accepted here (builders never fail) and rejected as
    /// [`TrainError::Config`] when the session builds a trainer or simulates
    /// an iteration — it used to panic deep inside the substrate instead.
    pub fn with_subgroup_elems(mut self, elems: usize) -> Self {
        self.0.subgroup_elems = Some(elems);
        self
    }

    /// Overrides the workload (default: [`Workload::paper_default`] for the
    /// session's model), e.g. for a non-default batch size. Its model
    /// becomes the session's model.
    pub(crate) fn with_workload(mut self, workload: Workload) -> Self {
        self.0.workload = workload;
        self
    }

    /// Installs a seeded fault-injection plan: the functional trainer gets
    /// per-device injectors with bounded-retry recovery, and the timed view
    /// applies the plan's straggler / uplink degradation. An empty spec is a
    /// no-op — the run stays byte-identical to a fault-free one. The spec is
    /// validated (like every other knob) when the session builds a trainer or
    /// simulates an iteration.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.0.faults = Some(faults);
        self
    }

    /// Scales the timed view out to a data-parallel cluster: every host runs
    /// this session's single-server iteration and
    /// [`crate::cluster::simulate_allreduce`] layers the gradient allreduce
    /// on top. Requires an in-storage method (validated on use); ignored by
    /// the functional trainer, which models one server.
    pub(crate) fn with_cluster(mut self, cluster: ClusterSpec) -> Self {
        self.0.cluster = Some(cluster);
        self
    }

    /// Finalises the session.
    pub fn build(self) -> Session {
        self.0
    }
}

/// One training configuration — workload (and with it the model), machine,
/// [`MethodSpec`] and knobs — from which both the functional and the timed
/// view of the system are built.
#[derive(Debug, Clone)]
pub struct Session {
    workload: Workload,
    machine: MachineConfig,
    method: MethodSpec,
    optimizer: Optimizer,
    threads: usize,
    handler: Option<HandlerMode>,
    subgroup_elems: Option<usize>,
    faults: Option<FaultSpec>,
    cluster: Option<ClusterSpec>,
}

impl Session {
    /// Starts building a session for the given model, machine and method.
    pub fn builder(
        model: ModelConfig,
        machine: MachineConfig,
        method: MethodSpec,
    ) -> SessionBuilder {
        SessionBuilder(Session {
            workload: Workload::paper_default(model),
            machine,
            method,
            optimizer: Optimizer::adam_default(),
            threads: 1,
            handler: None,
            subgroup_elems: None,
            faults: None,
            cluster: None,
        })
    }

    /// The capability axes this session trains with.
    pub fn method(&self) -> MethodSpec {
        self.method
    }

    /// The model being trained: the workload's.
    pub fn model(&self) -> &ModelConfig {
        self.workload.model()
    }

    /// The machine configuration.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The workload of the timed view.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The optimizer in use.
    pub fn optimizer(&self) -> Optimizer {
        self.optimizer
    }

    /// The handler of the timed in-storage update: the override, or the one
    /// the method implies.
    pub(crate) fn handler(&self) -> HandlerMode {
        self.handler.unwrap_or(self.method.implied_handler())
    }

    /// Validates the knobs that would otherwise panic deep inside a
    /// substrate: the machine, the subgroup capacity, and the method's
    /// capability axes (one centralized pass — [`MethodSpec::validate`]),
    /// and returns the step plan of the model on the machine's devices.
    pub(crate) fn validate(&self) -> Result<StepPlan, TrainError> {
        if self.machine.num_devices == 0 {
            return Err(TrainError::config("machine must have at least one storage device"));
        }
        if self.machine.num_devices > MAX_DEVICES {
            return Err(TrainError::config(format!(
                "machine has {} storage devices, at most {MAX_DEVICES} are supported",
                self.machine.num_devices
            )));
        }
        if !(1..=MAX_GPUS).contains(&self.machine.num_gpus) {
            return Err(TrainError::config(format!(
                "machine has {} GPUs, 1 to {MAX_GPUS} are supported",
                self.machine.num_gpus
            )));
        }
        let devices = self.machine.num_devices;
        let plan =
            StepPlan::cut_into(self.model().num_params() as usize, devices, self.subgroup_elems)?;
        if let Some(faults) = &self.faults {
            faults.validate().map_err(TrainError::config)?;
        }
        if let Some(cluster) = &self.cluster {
            cluster.validate(&self.method)?;
        }
        self.method.validate()?;
        Ok(plan)
    }

    /// The fault plan this session injects, if a non-empty spec is installed.
    fn fault_plan(&self) -> Result<Option<FaultPlan>, TrainError> {
        let spec = self.faults.clone().filter(|spec| !spec.is_empty());
        spec.map(FaultPlan::new).transpose().map_err(TrainError::config)
    }

    /// Builds the functional [`PipelinedTrainer`] with the update where this
    /// session's capability axes put it: without `in_storage_update`, on the
    /// host over a RAID0 array of `machine.num_devices` SSDs (the
    /// ZeRO-Infinity-style baseline, [`PipelinedTrainer::host_update`]);
    /// with it, in the same number of CSDs ([`PipelinedTrainer::new`]),
    /// compressed with the spec's selector when the compression axis is
    /// enabled. (`overlap` and
    /// `pipelined` are *timing* axes; they do not change the functional
    /// trainer, whose lanes overlap whenever the session has more than one
    /// worker thread.)
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] for invalid knobs (empty parameters,
    /// fewer parameters than devices, zero subgroup capacity, incoherent
    /// axes, out-of-range keep ratio) and a wrapped substrate error if a
    /// device cannot hold its shard.
    pub fn trainer(&self, initial_params: &FlatTensor) -> Result<Box<dyn Trainer>, TrainError> {
        self.validate()?;
        if initial_params.is_empty() {
            return Err(TrainError::config("cannot train zero parameters"));
        }
        let devices = self.machine.num_devices;
        if initial_params.len() < devices {
            return Err(TrainError::config(format!(
                "cannot split {} parameters across {devices} devices; \
                 every device needs at least one parameter",
                initial_params.len()
            )));
        }
        let unit =
            StepPlan::cut_into(initial_params.len(), devices, self.subgroup_elems)?.unit_elems();
        let mut trainer = if self.method.uses_csds() {
            PipelinedTrainer::new(initial_params, self.optimizer, devices, unit)?
                .with_threads(self.threads)
        } else {
            PipelinedTrainer::host_update(initial_params, self.optimizer, devices, unit)?
        };
        if let Some(compression) = &self.method.compression {
            trainer = trainer.with_compressor(compression.compressor());
        }
        if let Some(plan) = self.fault_plan()? {
            trainer = trainer.with_fault_plan(plan);
        }
        Ok(Box::new(trainer))
    }

    /// Simulates one training iteration of this configuration on the timed
    /// stack and returns the per-phase breakdown. A cluster session runs the
    /// one server's iteration, then [`crate::cluster::simulate_allreduce`]
    /// wraps it in the data-parallel allreduce of one iteration's fp16
    /// gradients.
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] for invalid knobs, an in-storage iteration
    /// of more than 65 536 tasklets, or a wrapped simulation-kernel failure.
    pub fn simulate_iteration(&self) -> Result<IterationReport, TrainError> {
        let per_host = self.timed_run()?.report;
        match &self.cluster {
            None => Ok(per_host),
            Some(cluster) => {
                let grad_bytes = 2.0 * self.model().num_params() as f64;
                Ok(crate::cluster::simulate_allreduce(cluster, &per_host, grad_bytes)?)
            }
        }
    }

    /// Simulates one training iteration like
    /// [`Session::simulate_iteration`] and additionally reports the
    /// stage-level occupancy of the shared host interconnect (see
    /// [`PipelineTiming`]).
    ///
    /// # Errors
    ///
    /// As [`Session::simulate_iteration`], and [`TrainError::Config`] for a
    /// cluster session: the stages are those of one server's interconnect.
    pub fn simulate_iteration_stages(&self) -> Result<PipelineTiming, TrainError> {
        if self.cluster.is_some() {
            return Err(TrainError::config(
                "stage timing covers one server's host interconnect; a cluster session has one \
                 per host",
            ));
        }
        Ok(self.timed_run()?.stages())
    }

    /// The timed pass of one server, after every check: the knobs, the
    /// tasklet bound, then the fault plan's timed effects (a straggler, a
    /// derated uplink).
    fn timed_run(&self) -> Result<engine_timed::TimedRun, TrainError> {
        let plan = self.validate()?;
        // Every tasklet is a chain of graph and simulation tasks: count them
        // before any is built.
        let tasklets = plan.num_units();
        if self.method.uses_csds() && tasklets > MAX_TASKLETS {
            return Err(TrainError::config(format!(
                "{tasklets} update tasklets per iteration ({} devices, subgroups of {} \
                 parameters), at most {MAX_TASKLETS} are supported",
                self.machine.num_devices,
                plan.unit_elems()
            )));
        }
        let effects =
            self.fault_plan()?.map(|faults| faults.timed_effects(self.machine.num_devices));
        Ok(engine_timed::run(self, &plan, effects.as_ref())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm::ModelConfig;
    use tensorlib::FlatTensor;
    use ztrain::SyntheticGradients;

    fn session(method: MethodSpec) -> Session {
        Session::builder(ModelConfig::gpt2_0_34b(), MachineConfig::smart_infinity(3), method)
            .build()
    }

    #[test]
    fn method_selects_the_functional_substrate() {
        let initial = FlatTensor::randn(600, 0.05, 1);
        let grads = FlatTensor::randn(600, 0.01, 2);
        let mut reports = Vec::new();
        for method in MethodSpec::ladder() {
            let mut trainer = session(method).trainer(&initial).expect("trainer");
            let report = trainer.step(&grads).expect("step");
            assert_eq!(trainer.steps_completed(), 1);
            assert_eq!(trainer.num_params(), 600);
            reports.push((method, report));
        }
        // BASE, SU and SU+O move the dense gradient; SmartComp does not.
        assert_eq!(reports[0].1.gradient_bytes, 8 * 600);
        assert_eq!(reports[1].1.gradient_bytes, 4 * 600);
        assert_eq!(reports[2].1.gradient_bytes, 4 * 600);
        assert!(reports[3].1.gradient_bytes < 4 * 600 / 10);
        assert!(reports[3].1.compression_kept.is_some());
    }

    #[test]
    fn baseline_and_smartupdate_sessions_train_identically() {
        let initial = FlatTensor::randn(2_000, 0.05, 9);
        let mut base = session(MethodSpec::baseline()).trainer(&initial).expect("trainer");
        let mut smart = session(MethodSpec::smart_update()).trainer(&initial).expect("trainer");
        let mut src_a = SyntheticGradients::new(2_000, 0.01, 17);
        let mut src_b = SyntheticGradients::new(2_000, 0.01, 17);
        for _ in 0..3 {
            base.step_from(&mut src_a).expect("step");
            smart.step_from(&mut src_b).expect("step");
        }
        assert_eq!(base.params_fp16().as_slice(), smart.params_fp16().as_slice());
        assert_eq!(
            base.master_params().expect("params").as_slice(),
            smart.master_params().expect("params").as_slice()
        );
    }

    #[test]
    fn invalid_keep_ratio_is_a_config_error_not_a_panic() {
        let s = session(MethodSpec::smart_comp(0.0));
        let err = s.trainer(&FlatTensor::zeros(10)).expect_err("invalid ratio");
        assert!(matches!(err, TrainError::Config { .. }), "{err}");
        let err = s.simulate_iteration().expect_err("invalid ratio");
        assert!(matches!(err, TrainError::Config { .. }), "{err}");
    }

    #[test]
    fn empty_parameters_are_rejected() {
        let err =
            session(MethodSpec::baseline()).trainer(&FlatTensor::zeros(0)).expect_err("empty");
        assert!(err.to_string().contains("zero parameters"));
    }

    #[test]
    fn pipelined_sessions_train_bit_identically_to_serial_smart_infinity() {
        let initial = FlatTensor::randn(2_000, 0.05, 9);
        for keep_ratio in [None, Some(0.05)] {
            let serial_method = match keep_ratio {
                None => MethodSpec::smart_update(),
                Some(keep_ratio) => MethodSpec::smart_comp(keep_ratio),
            };
            let mut serial = session(serial_method).trainer(&initial).expect("trainer");
            let mut pipelined = Session::builder(
                ModelConfig::gpt2_0_34b(),
                MachineConfig::smart_infinity(3),
                MethodSpec::pipelined(keep_ratio),
            )
            .with_threads(4)
            .build()
            .trainer(&initial)
            .expect("trainer");
            let mut src_a = SyntheticGradients::new(2_000, 0.01, 17);
            let mut src_b = SyntheticGradients::new(2_000, 0.01, 17);
            let mut serial_report = ztrain::StepReport::default();
            let mut report = ztrain::StepReport::default();
            for _ in 0..3 {
                serial_report = serial.step_from(&mut src_a).expect("step");
                report = pipelined.step_from(&mut src_b).expect("step");
            }
            assert_eq!(serial.params_fp16().as_slice(), pipelined.params_fp16().as_slice());
            assert_eq!(
                serial.master_params().expect("params").as_slice(),
                pipelined.master_params().expect("params").as_slice()
            );
            // One worker runs the lanes one after another, four overlap them.
            assert!(!serial_report.stages.expect("near-storage telemetry").is_overlapped());
            assert!(report.stages.expect("near-storage telemetry").is_overlapped());
            assert_eq!(report.threads, 4);
        }
    }

    #[test]
    fn pipelined_method_drives_the_timed_view() {
        let s = session(MethodSpec::pipelined(Some(0.01)));
        let pipelined = s.simulate_iteration().expect("simulation");
        let serial = session(MethodSpec::smart_comp(0.01)).simulate_iteration().unwrap();
        assert!(pipelined.total_s() <= serial.total_s() * 1.001);
        // The keep-ratio validation covers the pipelined method too.
        let err = session(MethodSpec::pipelined(Some(0.0)))
            .trainer(&FlatTensor::zeros(10))
            .expect_err("invalid ratio");
        assert!(matches!(err, TrainError::Config { .. }), "{err}");
    }

    #[test]
    fn zero_subgroup_capacity_is_a_config_error_not_a_panic() {
        for method in [MethodSpec::baseline(), MethodSpec::pipelined(None)] {
            let s = Session::builder(
                ModelConfig::gpt2_0_34b(),
                MachineConfig::smart_infinity(2),
                method,
            )
            .with_subgroup_elems(0)
            .build();
            let err = s.trainer(&FlatTensor::zeros(16)).expect_err("zero subgroup");
            assert!(matches!(err, TrainError::Config { .. }), "{err}");
            assert!(err.to_string().contains("subgroup"), "{err}");
            let err = s.simulate_iteration().expect_err("zero subgroup");
            assert!(matches!(err, TrainError::Config { .. }), "{err}");
        }
    }

    #[test]
    fn fewer_parameters_than_devices_is_a_config_error() {
        let s = session(MethodSpec::smart_update());
        let err = s.trainer(&FlatTensor::zeros(2)).expect_err("2 params on 3 devices");
        assert!(matches!(err, TrainError::Config { .. }), "{err}");
        assert!(err.to_string().contains("devices"), "{err}");
        // Exactly one parameter per device is still allowed.
        assert!(s.trainer(&FlatTensor::randn(3, 0.05, 1)).is_ok());
    }

    #[test]
    fn zero_devices_is_a_config_error_not_a_panic() {
        // MachineConfig's fields are public, so a hand-built (or deserialized)
        // config can carry a zero device count; the session must catch it.
        let mut machine = MachineConfig::smart_infinity(2);
        machine.num_devices = 0;
        let s =
            Session::builder(ModelConfig::gpt2_0_34b(), machine, MethodSpec::baseline()).build();
        let err = s.trainer(&FlatTensor::zeros(16)).expect_err("zero devices");
        assert!(matches!(err, TrainError::Config { .. }), "{err}");
        assert!(err.to_string().contains("storage device"));
        let err = s.simulate_iteration().expect_err("zero devices");
        assert!(matches!(err, TrainError::Config { .. }), "{err}");
    }

    #[test]
    fn handler_override_reproduces_the_method_ladder_neighbours() {
        // SU with the optimized handler == SU+O without an override, and the
        // naive override slows SmartComp down (the ablation the knob exists for).
        let overridden = Session::builder(
            ModelConfig::gpt2_4b(),
            MachineConfig::smart_infinity(6),
            MethodSpec::smart_update(),
        )
        .with_handler(HandlerMode::Optimized)
        .build()
        .simulate_iteration()
        .expect("simulation");
        let native = Session::builder(
            ModelConfig::gpt2_4b(),
            MachineConfig::smart_infinity(6),
            MethodSpec::smart_update_optimized(),
        )
        .build()
        .simulate_iteration()
        .expect("simulation");
        assert_eq!(overridden, native);

        let comp = |handler: Option<HandlerMode>| {
            let mut b = Session::builder(
                ModelConfig::gpt2_4b(),
                MachineConfig::smart_infinity(6),
                MethodSpec::smart_comp(0.01),
            );
            if let Some(h) = handler {
                b = b.with_handler(h);
            }
            b.build().simulate_iteration().expect("simulation").total_s()
        };
        assert!(comp(Some(HandlerMode::Naive)) > comp(None));
    }

    #[test]
    fn empty_fault_specs_leave_every_view_untouched() {
        let initial = FlatTensor::randn(900, 0.05, 11);
        let grads = FlatTensor::randn(900, 0.01, 12);
        for method in MethodSpec::ladder() {
            let clean = session(method);
            let faulted = Session::builder(
                ModelConfig::gpt2_0_34b(),
                MachineConfig::smart_infinity(3),
                method,
            )
            .with_faults(FaultSpec::empty(42))
            .build();
            let mut a = clean.trainer(&initial).expect("trainer");
            let mut b = faulted.trainer(&initial).expect("trainer");
            let ra = a.step(&grads).expect("step");
            let rb = b.step(&grads).expect("step");
            // Everything but the layer wall times, which differ run to run.
            let bytes_only =
                |r: ztrain::StepReport| ztrain::StepReport { layers: Default::default(), ..r };
            assert_eq!(
                bytes_only(ra),
                bytes_only(rb),
                "an empty plan must not even show up in telemetry"
            );
            assert!(rb.degraded.is_none());
            assert_eq!(a.params_fp16().as_slice(), b.params_fp16().as_slice());
            assert_eq!(
                clean.simulate_iteration().expect("timed"),
                faulted.simulate_iteration().expect("timed"),
            );
        }
    }

    #[test]
    fn fault_specs_are_validated_like_every_other_knob() {
        let mut faults = FaultSpec::empty(1);
        faults.transient_per_mille = Some(2000); // > 1000‰ is nonsense
        let s = Session::builder(
            ModelConfig::gpt2_0_34b(),
            MachineConfig::smart_infinity(3),
            MethodSpec::smart_update(),
        )
        .with_faults(faults)
        .build();
        let err = s.trainer(&FlatTensor::zeros(30)).expect_err("invalid fault spec");
        assert!(matches!(err, TrainError::Config { .. }), "{err}");
        let err = s.simulate_iteration().expect_err("invalid fault spec");
        assert!(matches!(err, TrainError::Config { .. }), "{err}");
    }

    #[test]
    fn transient_faults_are_recovered_without_changing_the_numbers() {
        let initial = FlatTensor::randn(1_200, 0.05, 21);
        let mut faults = FaultSpec::empty(7);
        faults.transient_per_mille = Some(300);
        for method in
            [MethodSpec::baseline(), MethodSpec::smart_update(), MethodSpec::pipelined(Some(0.05))]
        {
            let mut clean = session(method).trainer(&initial).expect("trainer");
            let mut faulted = Session::builder(
                ModelConfig::gpt2_0_34b(),
                MachineConfig::smart_infinity(3),
                method,
            )
            .with_faults(faults.clone())
            .build()
            .trainer(&initial)
            .expect("trainer");
            let mut src_a = SyntheticGradients::new(1_200, 0.01, 23);
            let mut src_b = SyntheticGradients::new(1_200, 0.01, 23);
            let mut degraded_steps = 0;
            for _ in 0..3 {
                clean.step_from(&mut src_a).expect("step");
                let report = faulted.step_from(&mut src_b).expect("faults must be absorbed");
                degraded_steps += usize::from(report.degraded.is_some());
            }
            assert!(degraded_steps > 0, "at 300‰ some step must have seen a fault ({method})");
            assert_eq!(
                clean.master_params().expect("params").as_slice(),
                faulted.master_params().expect("params").as_slice(),
                "recovery must be numerically invisible ({method})"
            );
        }
    }

    #[test]
    fn timed_fault_effects_slow_the_simulated_iteration() {
        let mut faults = FaultSpec::empty(3);
        faults.straggler_factor = Some(4.0);
        faults.link_bandwidth_factor = Some(0.25);
        for method in [MethodSpec::baseline(), MethodSpec::smart_comp(0.01)] {
            let clean = session(method).simulate_iteration().expect("timed");
            let degraded = Session::builder(
                ModelConfig::gpt2_0_34b(),
                MachineConfig::smart_infinity(3),
                method,
            )
            .with_faults(faults.clone())
            .build()
            .simulate_iteration()
            .expect("timed");
            assert!(
                degraded.total_s() > clean.total_s(),
                "{method}: degraded {} vs clean {}",
                degraded.total_s(),
                clean.total_s()
            );
        }
    }

    // --- the method ladder on the timed view ---------------------------------

    /// One timed iteration of `method` on six devices (GPT-2 4.0B).
    fn timed(method: MethodSpec) -> IterationReport {
        Session::builder(ModelConfig::gpt2_4b(), MachineConfig::smart_infinity(6), method)
            .build()
            .simulate_iteration()
            .expect("simulation")
    }

    #[test]
    fn labels_match_the_paper() {
        let labels: Vec<String> =
            MethodSpec::ladder().into_iter().map(|m| session(m).method().to_string()).collect();
        assert_eq!(labels, ["BASE", "SU", "SU+O", "SU+O+C(2%)"]);
    }

    #[test]
    fn off_ladder_specs_compose_and_incoherent_ones_are_rejected() {
        // Off the paper's ladder: compression under the naive handler (SU+C).
        // It must be slower than SU+O+C and faster than plain SU.
        let su_c = MethodSpec::smart_update().with_compression(crate::CompressionSpec::top_k(0.01));
        let su_c_t = timed(su_c).total_s();
        let su_t = timed(MethodSpec::smart_update()).total_s();
        let su_o_c_t = timed(MethodSpec::smart_comp(0.01)).total_s();
        assert!(su_o_c_t < su_c_t && su_c_t < su_t, "{su_o_c_t} < {su_c_t} < {su_t}");
        // An incoherent spec is rejected up front, not deep in the engine.
        let bad = MethodSpec { overlap: false, ..MethodSpec::pipelined(None) };
        let err = session(bad).simulate_iteration().expect_err("incoherent axes");
        assert!(matches!(err, TrainError::Config { .. }), "{err}");
    }

    #[test]
    fn pipelined_method_is_at_least_as_fast_as_its_serial_counterpart() {
        let su_o = timed(MethodSpec::smart_update_optimized());
        let pipe = timed(MethodSpec::pipelined(None));
        assert!(
            pipe.total_s() <= su_o.total_s() * 1.001,
            "{} vs {}",
            pipe.total_s(),
            su_o.total_s()
        );
        let comp = timed(MethodSpec::smart_comp(0.01));
        let pipe_comp = timed(MethodSpec::pipelined(Some(0.01)));
        assert!(pipe_comp.total_s() <= comp.total_s() * 1.001);
        assert!(pipe_comp.total_s() < pipe.total_s(), "compression still helps when pipelined");
    }

    #[test]
    fn ladder_reports_baseline_speedup_of_one() {
        let reports: Vec<IterationReport> = MethodSpec::ladder().into_iter().map(timed).collect();
        assert_eq!(reports.len(), 4);
        assert!((reports[0].speedup_over(&reports[0]) - 1.0).abs() < 1e-9);
        assert!(reports.iter().skip(1).all(|r| r.speedup_over(&reports[0]) > 1.0));
    }

    #[test]
    fn optimizer_override_affects_the_baseline_state_volume() {
        let adam = timed(MethodSpec::baseline());
        let sgd = Session::builder(
            ModelConfig::gpt2_4b(),
            MachineConfig::smart_infinity(6),
            MethodSpec::baseline(),
        )
        .with_optimizer(Optimizer::new(optim::OptimizerKind::SgdMomentum, Default::default()))
        .build()
        .simulate_iteration()
        .expect("simulation");
        assert!(sgd.update_s < adam.update_s);
    }

    /// A cluster session's iteration wraps the one server's pass in the
    /// allreduce, and its stage read-out is a typed error: the stages are
    /// those of one server's host interconnect.
    #[test]
    fn a_cluster_session_wraps_the_per_host_pass() {
        let method = MethodSpec::smart_update_optimized();
        let single = session(method);
        let cluster =
            Session::builder(ModelConfig::gpt2_0_34b(), MachineConfig::smart_infinity(3), method)
                .with_cluster(ClusterSpec::hosts(4))
                .build();
        let per_host = single.simulate_iteration().expect("timed");
        let grad_bytes = 2.0 * single.model().num_params() as f64;
        let want =
            crate::cluster::simulate_allreduce(&ClusterSpec::hosts(4), &per_host, grad_bytes);
        assert_eq!(cluster.simulate_iteration().expect("timed"), want.expect("allreduce"));
        assert_eq!(single.simulate_iteration_stages().expect("stages").report, per_host);
        let err = cluster.simulate_iteration_stages().expect_err("a cluster has no one uplink");
        assert!(matches!(err, TrainError::Config { .. }), "{err}");
    }

    /// Storage follows the method, not the machine: the same devices are
    /// RAID0 SSDs under a host-update method and CSDs under an in-storage
    /// one, whatever `MachineConfig::storage` says, and a host-update method
    /// has no handler or subgroup for the overrides to change.
    #[test]
    fn storage_kind_and_overrides_follow_the_method() {
        let bits = |r: IterationReport| [r.forward_s, r.backward_s, r.update_s].map(f64::to_bits);
        let on = |machine: MachineConfig, method: MethodSpec| {
            Session::builder(ModelConfig::gpt2_0_34b(), machine, method)
        };
        for method in [MethodSpec::baseline(), MethodSpec::pipelined(Some(0.01))] {
            let on_csds = on(MachineConfig::smart_infinity(3), method).build();
            let on_ssds = on(MachineConfig::baseline_raid0(3), method).build();
            assert_eq!(
                bits(on_csds.simulate_iteration().expect("timed")),
                bits(on_ssds.simulate_iteration().expect("timed")),
                "{method}"
            );
        }
        let plain = on(MachineConfig::smart_infinity(3), MethodSpec::baseline()).build();
        let overridden = on(MachineConfig::smart_infinity(3), MethodSpec::baseline())
            .with_handler(HandlerMode::Optimized)
            .with_subgroup_elems(1_000_000)
            .build();
        assert_eq!(
            bits(plain.simulate_iteration().expect("timed")),
            bits(overridden.simulate_iteration().expect("timed")),
        );
    }

    /// An accepted spec may not exhaust memory: a subgroup of one parameter
    /// (hundreds of millions of tasklets) is a typed error at once, and an
    /// iteration at the tasklet bound still simulates.
    #[test]
    fn tasklet_counts_past_the_bound_are_rejected_at_once() {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let run = |subgroup: u64| {
                let json = format!(
                    r#"{{"model":"GPT2-0.34B","machine":{{"devices":2}},"subgroup_elems":{subgroup},
                        "method":{{"offload":true,"in_storage_update":true,"overlap":true,
                                  "pipelined":true}}}}"#
                );
                let spec = crate::RunSpec::from_json(&json).expect("the spec parses");
                spec.session().expect("the spec is valid").simulate_iteration().map(drop)
            };
            let shard = ModelConfig::gpt2_0_34b().num_params().div_ceil(2);
            tx.send((run(1), run(shard.div_ceil(MAX_TASKLETS as u64 / 2))))
                .expect("the test waits");
        });
        let limit = std::time::Duration::from_secs(20);
        let (past, at) = rx.recv_timeout(limit).expect("both specs are answered within 20 s");
        worker.join().expect("the worker does not panic");
        let err = past.expect_err("one-parameter subgroups are past the bound");
        assert!(matches!(err, TrainError::Config { .. }), "{err}");
        assert!(err.to_string().contains("at most 65536"), "{err}");
        at.expect("an iteration at the bound simulates");
    }

    /// The bound counts the plan's exact units: GPT2-1.6B on one device in
    /// units of 23 767 parameters is 65 537 tasklets, one past the bound, and
    /// is refused before any graph is built.
    #[test]
    fn one_tasklet_past_the_bound_is_refused_at_once() {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let json = r#"{"model":"GPT2-1.6B","machine":{"devices":1},"subgroup_elems":23767,
                "method":{"offload":true,"in_storage_update":true,"overlap":true,"pipelined":true}}"#;
            let session = crate::RunSpec::from_json(json).and_then(|s| s.session());
            let session = session.expect("the spec is valid");
            let units = session.validate().expect("valid").num_units();
            tx.send((units, session.simulate_iteration().map(drop))).expect("the test waits");
        });
        let limit = std::time::Duration::from_secs(10);
        let (units, answer) = rx.recv_timeout(limit).expect("the spec is answered within 10 s");
        worker.join().expect("the worker does not panic");
        assert_eq!(units, MAX_TASKLETS + 1);
        let err = answer.expect_err("one tasklet past the bound");
        assert!(matches!(err, TrainError::Config { .. }), "{err}");
        assert!(err.to_string().contains("65537 update tasklets"), "{err}");
    }

    /// Past the device bound a hand-built machine is a typed error at once,
    /// from the timed and the functional front door alike (a spec's machine
    /// meets the same check: `device_counts_past_the_bound_are_rejected_at_once`).
    #[test]
    fn device_counts_past_the_bound_are_rejected_on_the_builder_path() {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let session = Session::builder(
                ModelConfig::gpt2_0_34b(),
                MachineConfig::smart_infinity(5000),
                MethodSpec::pipelined(None),
            )
            .build();
            let timed = session.simulate_iteration().map(drop);
            let functional = session.trainer(&FlatTensor::zeros(5000)).map(drop);
            tx.send([timed, functional]).expect("the test waits");
        });
        let limit = std::time::Duration::from_secs(10);
        let answers = rx.recv_timeout(limit).expect("both front doors answer within 10 s");
        worker.join().expect("the worker does not panic");
        for answer in answers {
            let err = answer.expect_err("5 000 devices are past the bound");
            assert!(matches!(err, TrainError::Config { .. }), "{err}");
            assert!(err.to_string().contains("at most 4096"), "{err}");
        }
    }

    /// Past the GPU bound a machine is a typed error at once, whether it
    /// comes from a spec or is built by hand, and a machine at the bound
    /// still simulates.
    #[test]
    fn gpu_counts_past_the_bound_are_rejected_at_once() {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let run = |gpus: usize, congested: bool| {
                let json = format!(
                    r#"{{"model":"GPT2-0.34B",
                        "machine":{{"devices":4,"num_gpus":{gpus},"congested":{congested}}},
                        "method":{{"offload":true,"in_storage_update":true,"overlap":true,
                                  "pipelined":true}}}}"#
                );
                let spec = crate::RunSpec::from_json(&json).expect("the spec parses");
                spec.session().and_then(|s| s.simulate_iteration()).map(drop)
            };
            let by_hand = Session::builder(
                ModelConfig::gpt2_0_34b(),
                MachineConfig { num_gpus: 1 << 40, ..MachineConfig::smart_infinity(4) },
                MethodSpec::baseline(),
            )
            .build()
            .simulate_iteration()
            .map(drop);
            let answers = [
                run(1 << 40, false),
                run(1 << 40, true),
                by_hand,
                run(MAX_GPUS, false),
                run(MAX_GPUS, true),
            ];
            tx.send(answers).expect("the test waits");
        });
        let limit = std::time::Duration::from_secs(20);
        let [past, past_congested, past_by_hand, at, at_congested] =
            rx.recv_timeout(limit).expect("every spec is answered within 20 s");
        worker.join().expect("the worker does not panic");
        for past in [past, past_congested, past_by_hand] {
            let err = past.expect_err("2^40 GPUs are past the bound");
            assert!(matches!(err, TrainError::Config { .. }), "{err}");
            assert!(err.to_string().contains("1 to 64"), "{err}");
        }
        at.expect("64 GPUs simulate");
        at_congested.expect("64 GPUs on the congested topology simulate");
    }
}
