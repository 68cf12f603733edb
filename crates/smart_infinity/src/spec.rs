//! The composable run-specification layer: every training configuration as
//! plain, serde-serializable data.
//!
//! The paper's method space is a product of orthogonal features — storage
//! offload, in-CSD update (SmartUpdate), the optimized internal transfer
//! handler, cross-CSD pipelining, and SmartComp gradient compression with a
//! choice of selectors.
//!
//! [`MethodSpec`] is those axes, and the only thing that says which method
//! runs: five capability fields that compose freely, validated centrally
//! ([`MethodSpec::validate`] returns [`TrainError::Config`] instead of a
//! substrate panic), and printed with the paper's figure labels
//! (`BASE`, `SU`, `SU+O`, `SU+O+C(2%)`, `SU+O+P`, ...). The paper's named
//! ablation points are its constructors.
//!
//! [`RunSpec`] lifts the rest of a run into data — model and machine presets,
//! optimizer, thread count, handler override, subgroup capacity, workload —
//! so a whole experiment is one JSON document (see the checked-in
//! `specs/*.json`) that [`RunSpec::from_json`] loads and
//! [`RunSpec::session`] turns into a ready [`Session`]. Sweeps over specs are
//! `lab` experiments, whose tasks are inline specs or [`crate::CampaignRef`]s
//! into those files.

use crate::engine_timed::HandlerMode;
use crate::session::Session;
use faultkit::FaultSpec;
use gradcomp::{Compressor, SelectionMethod};
use llm::{ModelConfig, Workload};
use optim::{HyperParams, Optimizer, OptimizerKind};
use serde::{de, Deserialize, Serialize, Value};
use std::fmt;
use ztrain::{MachineConfig, TrainError};

// ---------------------------------------------------------------------------
// MethodSpec: the orthogonal capability axes
// ---------------------------------------------------------------------------

/// SmartComp gradient compression: how much to keep and how to select it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompressionSpec {
    /// Fraction of gradient elements kept by the selection, in `(0, 1]`
    /// (the paper's default 0.01 is reported as a "2%" transfer ratio,
    /// because every kept element carries an index and a value).
    pub keep_ratio: f64,
    /// How the kept coordinates are chosen. Omitted (`None`) means exact
    /// Top-K by magnitude — the paper's selector.
    pub selection: Option<SelectionMethod>,
}

impl CompressionSpec {
    /// Exact Top-K compression at `keep_ratio` (the paper's configuration).
    pub fn top_k(keep_ratio: f64) -> Self {
        CompressionSpec { keep_ratio, selection: None }
    }

    /// Replaces the coordinate selector.
    pub fn with_selection(mut self, selection: SelectionMethod) -> Self {
        self.selection = Some(selection);
        self
    }

    /// The effective selector: the explicit choice, or exact Top-K.
    pub(crate) fn selection_method(&self) -> SelectionMethod {
        self.selection.unwrap_or(SelectionMethod::TopK)
    }

    /// Builds the matching functional compressor.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid; call [`CompressionSpec::validate`]
    /// first (the session and campaign front doors always do).
    pub fn compressor(&self) -> Compressor {
        Compressor::new(self.keep_ratio, self.selection_method())
    }

    /// Checks the knobs that the substrates would otherwise panic on.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] for an out-of-range keep ratio.
    pub fn validate(&self) -> Result<(), TrainError> {
        if !gradcomp::valid_keep_ratio(self.keep_ratio) {
            return Err(TrainError::config(format!(
                "compression keep ratio must be in (0, 1], got {}",
                self.keep_ratio
            )));
        }
        Ok(())
    }
}

/// One training method as its orthogonal capability axes.
///
/// The paper's ladder is a walk through this space:
///
/// | Label | `offload` | `in_storage_update` | `overlap` | `pipelined` | `compression` |
/// |---|---|---|---|---|---|
/// | `BASE` | ✓ | | | | |
/// | `SU` | ✓ | ✓ | | | |
/// | `SU+O` | ✓ | ✓ | ✓ | | |
/// | `SU+O+C(2%)` | ✓ | ✓ | ✓ | | 1% Top-K |
/// | `SU+O+P` | ✓ | ✓ | ✓ | ✓ | |
/// | `SU+O+P+C(2%)` | ✓ | ✓ | ✓ | ✓ | 1% Top-K |
///
/// Combinations outside the ladder compose too (e.g. compression under the
/// naive handler). Impossible combinations are rejected by
/// [`MethodSpec::validate`] as [`TrainError::Config`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MethodSpec {
    /// Parameters and optimizer states live on storage devices (ZeRO-Infinity
    /// style). This reproduction models storage-offloaded training only, so
    /// `false` is rejected; the axis exists so future host-memory baselines
    /// are a field away, not an enum redesign away.
    pub offload: bool,
    /// SmartUpdate: the optimizer update runs inside the CSDs, so optimizer
    /// states never cross the shared host interconnect (paper Section IV-A).
    pub in_storage_update: bool,
    /// The optimized internal data-transfer handler: per-subgroup buffers are
    /// pre-allocated and reused, overlapping loads with updates
    /// (paper Section IV-B). Requires `in_storage_update`.
    pub overlap: bool,
    /// Cross-CSD pipelining: the timed view charges the shared uplink per
    /// stage, overlapping the per-device write → compress/update → read-back
    /// lanes across CSDs (Sections IV-B/IV-D). Requires `overlap`. Like
    /// `overlap` it is a timing axis: the functional near-storage trainer
    /// always runs one lane per device and overlaps them whenever it has
    /// more than one worker thread.
    pub pipelined: bool,
    /// SmartComp gradient compression (paper Section IV-C). Requires
    /// `in_storage_update`.
    pub compression: Option<CompressionSpec>,
}

impl MethodSpec {
    /// `BASE`: ZeRO-Infinity with software RAID0 and CPU updates.
    pub fn baseline() -> Self {
        MethodSpec {
            offload: true,
            in_storage_update: false,
            overlap: false,
            pipelined: false,
            compression: None,
        }
    }

    /// `SU`: SmartUpdate with the naive per-tasklet buffer handling.
    pub fn smart_update() -> Self {
        MethodSpec { in_storage_update: true, ..Self::baseline() }
    }

    /// `SU+O`: SmartUpdate with the optimized internal transfer handler.
    pub fn smart_update_optimized() -> Self {
        MethodSpec { overlap: true, ..Self::smart_update() }
    }

    /// `SU+O+C`: optimized SmartUpdate plus Top-K gradient compression.
    pub fn smart_comp(keep_ratio: f64) -> Self {
        Self::smart_update_optimized().with_compression(CompressionSpec::top_k(keep_ratio))
    }

    /// `SU+O+P`: the pipelined execution backend, optionally compressed
    /// (`SU+O+P+C`).
    pub fn pipelined(keep_ratio: Option<f64>) -> Self {
        let spec = MethodSpec { pipelined: true, ..Self::smart_update_optimized() };
        match keep_ratio {
            Some(keep_ratio) => spec.with_compression(CompressionSpec::top_k(keep_ratio)),
            None => spec,
        }
    }

    /// Adds gradient compression to this method.
    pub fn with_compression(mut self, compression: CompressionSpec) -> Self {
        self.compression = Some(compression);
        self
    }

    /// The paper's default ablation ladder: BASE, SU, SU+O, SU+O+C (2%).
    pub fn ladder() -> Vec<MethodSpec> {
        vec![
            Self::baseline(),
            Self::smart_update(),
            Self::smart_update_optimized(),
            Self::smart_comp(0.01),
        ]
    }

    /// Whether this method runs on CSDs (any in-storage capability) rather
    /// than the plain-SSD RAID0 baseline.
    pub fn uses_csds(&self) -> bool {
        self.in_storage_update
    }

    /// The keep ratio of the compression axis, if enabled.
    pub fn keep_ratio(&self) -> Option<f64> {
        self.compression.map(|c| c.keep_ratio)
    }

    /// The handler mode this method implies (the ablation override in
    /// [`crate::SessionBuilder::with_handler`] can still replace it).
    pub fn implied_handler(&self) -> HandlerMode {
        if self.overlap {
            HandlerMode::Optimized
        } else {
            HandlerMode::Naive
        }
    }

    /// Checks that the capability axes compose into a runnable method.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] when the combination has no substrate
    /// (no offload, CSD capabilities without `in_storage_update`, pipelining
    /// without the optimized handler) or the compression knobs are invalid.
    pub fn validate(&self) -> Result<(), TrainError> {
        if !self.offload {
            return Err(TrainError::config(
                "offload must be true: this reproduction models storage-offloaded training \
                 (the host-memory path has no substrate)",
            ));
        }
        if !self.in_storage_update {
            if self.overlap || self.pipelined {
                return Err(TrainError::config(
                    "overlap/pipelined are in-storage capabilities: enable in_storage_update",
                ));
            }
            if self.compression.is_some() {
                return Err(TrainError::config(
                    "gradient compression runs in the CSDs: enable in_storage_update",
                ));
            }
        }
        if self.pipelined && !self.overlap {
            return Err(TrainError::config(
                "the pipelined backend builds on the optimized handler: enable overlap",
            ));
        }
        if let Some(compression) = &self.compression {
            compression.validate()?;
        }
        Ok(())
    }
}

/// The paper's figure labels, composed from the enabled axes:
/// `BASE`, or `SU` `[+O]` `[+P]` `[+C(x%)]` where `x` is the *transfer*
/// ratio (twice the keep ratio, because every kept element carries an index
/// and a value).
impl fmt::Display for MethodSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.in_storage_update {
            return f.write_str("BASE");
        }
        f.write_str("SU")?;
        if self.overlap {
            f.write_str("+O")?;
        }
        if self.pipelined {
            f.write_str("+P")?;
        }
        if let Some(compression) = &self.compression {
            write!(f, "+C({}%)", (compression.keep_ratio * 2.0 * 100.0).round())?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Model / machine / workload specs: the declarative halves of a run
// ---------------------------------------------------------------------------

/// A model reference that serializes compactly: a preset name (the paper's
/// table of models) or a scaled synthetic GPT-2.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// One of the paper's models by name, matched case-insensitively
    /// (e.g. `"GPT2-4.0B"`; see [`ModelSpec::preset_names`]).
    Preset(String),
    /// A synthetic GPT-2 scaled to approximately this many billions of
    /// parameters ([`ModelConfig::gpt2_scaled`]).
    ScaledGpt2 {
        /// Approximate parameter count in billions, 0.001 to 1000
        /// ([`ModelConfig::SCALED_PARAMS`]).
        billions: f64,
    },
}

/// One entry of the model-preset registry: a name and its constructor.
type ModelPreset = (&'static str, fn() -> ModelConfig);

/// The preset registry: every named model constructor of [`ModelConfig`].
fn model_presets() -> &'static [ModelPreset] {
    &[
        ("GPT2-0.34B", ModelConfig::gpt2_0_34b),
        ("GPT2-0.77B", ModelConfig::gpt2_0_77b),
        ("GPT2-1.16B", ModelConfig::gpt2_1_16b),
        ("GPT2-1.6B", ModelConfig::gpt2_1_6b),
        ("GPT2-1.7B", ModelConfig::gpt2_1_7b),
        ("GPT2-2.5B", ModelConfig::gpt2_2_5b),
        ("GPT2-4.0B", ModelConfig::gpt2_4b),
        ("GPT2-8.3B", ModelConfig::gpt2_8_3b),
        ("GPT2-8.4B", ModelConfig::gpt2_8_4b),
        ("GPT2-16.6B", ModelConfig::gpt2_16_6b),
        ("GPT2-20.5B", ModelConfig::gpt2_20_5b),
        ("GPT2-24.8B", ModelConfig::gpt2_24_8b),
        ("GPT2-33.0B", ModelConfig::gpt2_33b),
        ("BERT-0.34B", ModelConfig::bert_0_34b),
        ("BERT-4.0B", ModelConfig::bert_4b),
        ("BERT-8.3B", ModelConfig::bert_8_3b),
        ("BLOOM-3B", ModelConfig::bloom_3b),
        ("BLOOM-7.1B", ModelConfig::bloom_7_1b),
        ("ViT-0.30B", ModelConfig::vit_0_30b),
        ("ViT-0.63B", ModelConfig::vit_0_63b),
    ]
}

impl ModelSpec {
    /// A preset reference by name.
    pub fn preset(name: impl Into<String>) -> Self {
        ModelSpec::Preset(name.into())
    }

    /// The names accepted by [`ModelSpec::Preset`], in registry order.
    pub fn preset_names() -> Vec<&'static str> {
        model_presets().iter().map(|(name, _)| *name).collect()
    }

    /// Builds the concrete model configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] for an unknown preset name or an
    /// out-of-range scale.
    pub fn resolve(&self) -> Result<ModelConfig, TrainError> {
        match self {
            ModelSpec::Preset(name) => model_presets()
                .iter()
                .find(|(preset, _)| preset.eq_ignore_ascii_case(name))
                .map(|(_, build)| build())
                .ok_or_else(|| {
                    TrainError::config(format!(
                        "unknown model preset `{name}` (expected one of: {})",
                        Self::preset_names().join(", ")
                    ))
                }),
            ModelSpec::ScaledGpt2 { billions } => {
                let params = billions * 1e9;
                if !ModelConfig::SCALED_PARAMS.contains(&params) {
                    return Err(TrainError::config(format!(
                        "scaled GPT-2 size must be 0.001 to 1000 billion parameters, got {billions}"
                    )));
                }
                Ok(ModelConfig::gpt2_scaled(params))
            }
        }
    }
}

impl fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelSpec::Preset(name) => f.write_str(name),
            ModelSpec::ScaledGpt2 { billions } => write!(f, "GPT2-scaled({billions}B)"),
        }
    }
}

/// Hand-written so presets stay a bare JSON string (`"model": "GPT2-4.0B"`)
/// instead of the externally-tagged `{"Preset": ...}` the derive would emit.
impl Serialize for ModelSpec {
    fn write_json(&self, out: &mut String) {
        match self {
            ModelSpec::Preset(name) => name.write_json(out),
            ModelSpec::ScaledGpt2 { billions } => {
                out.push_str("{\"scaled_gpt2_billions\":");
                billions.write_json(out);
                out.push('}');
            }
        }
    }
}

impl Deserialize for ModelSpec {
    fn read_json(value: &Value) -> Result<Self, de::Error> {
        match value {
            Value::String(name) => Ok(ModelSpec::Preset(name.clone())),
            Value::Object(pairs) => {
                de::deny_unknown(pairs, &["scaled_gpt2_billions"], "ModelSpec")?;
                Ok(ModelSpec::ScaledGpt2 {
                    billions: de::field(pairs, "scaled_gpt2_billions", "ModelSpec")?,
                })
            }
            other => Err(de::Error::expected(
                "a preset name or {\"scaled_gpt2_billions\": n}",
                other,
                "ModelSpec",
            )),
        }
    }
}

/// The machine half of a run, in sweep-friendly terms: a device count plus
/// optional GPU/topology overrides on the paper's test-bed presets.
///
/// Whether the devices act as plain RAID0 SSDs or as CSDs is **not** part of
/// the machine spec — it follows from the method's capability axes: the
/// timed model ([`Session::simulate_iteration`]) sets [`fabric::StorageKind`]
/// from [`MethodSpec::uses_csds`] and ignores what the machine carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Number of storage devices behind the expansion switch.
    pub devices: usize,
    /// GPU preset name: `"A5000"` (default), `"A100"` or `"A4000"`,
    /// case-insensitive.
    pub gpu: Option<String>,
    /// Number of GPUs (default 1).
    pub num_gpus: Option<usize>,
    /// Use the congested topology of paper Fig. 17, where the GPUs share the
    /// expansion switch with the storage devices (default false).
    pub congested: Option<bool>,
    /// Scale out to a data-parallel cluster of identical servers; each host
    /// is one machine as described by the fields above.
    pub cluster: Option<crate::cluster::ClusterSpec>,
}

/// The most storage devices a machine may have. Routes are resolved by a
/// search over the whole topology per endpoint pair, so a machine costs
/// O(devices × nodes) to lower onto: 4 096 devices (the largest machine any
/// test builds) take about a second, 200 000 would not finish.
const MAX_DEVICES: usize = 4096;

impl MachineSpec {
    /// The paper's test-bed with `devices` storage devices.
    pub fn devices(devices: usize) -> Self {
        MachineSpec { devices, gpu: None, num_gpus: None, congested: None, cluster: None }
    }

    /// A many-core single-host box in the SG2042/SG2044 class: one dense
    /// node with a deep storage shelf (16 CSDs) behind the expansion switch.
    /// Heterogeneous-machine leg of the roadmap; exercised through the
    /// `lab` runner by `specs/experiments/hetero/`.
    pub fn preset_sg2042() -> Self {
        MachineSpec::devices(16)
    }

    /// A SAKURAONE-like cluster: 4 hosts of 8 CSDs each, data-parallel over
    /// a 400 Gb/s interconnect. The counterpart preset to
    /// [`MachineSpec::preset_sg2042`] for the heterogeneous-machine leg.
    pub fn preset_sakuraone_cluster() -> Self {
        MachineSpec::devices(8)
            .with_cluster(crate::cluster::ClusterSpec::hosts(4).with_interconnect_gbps(400.0))
    }

    /// Scales the machine out to a data-parallel cluster.
    #[must_use]
    pub(crate) fn with_cluster(mut self, cluster: crate::cluster::ClusterSpec) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Overrides the GPU preset by name.
    pub fn with_gpu(mut self, gpu: impl Into<String>) -> Self {
        self.gpu = Some(gpu.into());
        self
    }

    /// Overrides the GPU count.
    pub fn with_num_gpus(mut self, num_gpus: usize) -> Self {
        self.num_gpus = Some(num_gpus);
        self
    }

    /// Selects the congested multi-GPU topology of paper Fig. 17.
    pub fn congested(mut self) -> Self {
        self.congested = Some(true);
        self
    }

    /// Builds the concrete machine configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] for zero devices/GPUs, more than 4 096
    /// devices, or an unknown GPU preset.
    pub fn resolve(&self) -> Result<MachineConfig, TrainError> {
        if self.devices == 0 {
            return Err(TrainError::config("machine must have at least one storage device"));
        }
        if self.devices > MAX_DEVICES {
            return Err(TrainError::config(format!(
                "machine has {} storage devices, at most {MAX_DEVICES} are supported",
                self.devices
            )));
        }
        if self.num_gpus == Some(0) {
            return Err(TrainError::config("machine must have at least one GPU"));
        }
        let mut machine = if self.congested.unwrap_or(false) {
            MachineConfig::congested_multi_gpu(self.devices, self.num_gpus.unwrap_or(1))
        } else {
            let mut machine = MachineConfig::smart_infinity(self.devices);
            if let Some(num_gpus) = self.num_gpus {
                machine.num_gpus = num_gpus;
            }
            machine
        };
        if let Some(name) = &self.gpu {
            let gpu = [llm::GpuSpec::a5000(), llm::GpuSpec::a100(), llm::GpuSpec::a4000()]
                .into_iter()
                .find(|gpu| gpu.name.eq_ignore_ascii_case(name))
                .ok_or_else(|| {
                    TrainError::config(format!(
                        "unknown GPU preset `{name}` (expected one of: A5000, A100, A4000)"
                    ))
                })?;
            machine = machine.with_gpu(gpu);
        }
        Ok(machine)
    }
}

/// Workload overrides; omitted fields keep the paper's defaults for the model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Training batch size.
    pub batch_size: Option<usize>,
    /// Sequence length.
    pub seq_len: Option<usize>,
}

impl WorkloadSpec {
    /// Builds the workload for `model`, applying any overrides.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] for a zero batch size or sequence
    /// length.
    pub fn resolve(&self, model: ModelConfig) -> Result<Workload, TrainError> {
        if self.batch_size == Some(0) {
            return Err(TrainError::config("batch size must be positive"));
        }
        if self.seq_len == Some(0) {
            return Err(TrainError::config("sequence length must be positive"));
        }
        let defaults = Workload::paper_default(model.clone());
        Ok(Workload::new(
            model,
            self.batch_size.unwrap_or_else(|| defaults.batch_size()),
            self.seq_len.unwrap_or_else(|| defaults.seq_len()),
        ))
    }
}

// ---------------------------------------------------------------------------
// RunSpec: one complete run as data
// ---------------------------------------------------------------------------

/// One complete training-run configuration as serializable data: what
/// [`Session::builder`] takes as arguments and builder calls, flattened into
/// a JSON-friendly document.
///
/// ```
/// use smart_infinity::RunSpec;
///
/// let spec: RunSpec = RunSpec::from_json(
///     r#"{
///         "model": "GPT2-4.0B",
///         "machine": { "devices": 10 },
///         "method": {
///             "offload": true, "in_storage_update": true,
///             "overlap": true, "pipelined": false,
///             "compression": { "keep_ratio": 0.01 }
///         }
///     }"#,
/// )?;
/// assert_eq!(spec.method.to_string(), "SU+O+C(2%)");
/// let report = spec.session()?.simulate_iteration()?;
/// assert!(report.total_s() > 0.0);
/// # Ok::<(), ztrain::TrainError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    /// Optional human-readable label used in campaign reports.
    pub name: Option<String>,
    /// The model to train.
    pub model: ModelSpec,
    /// The machine to train it on.
    pub machine: MachineSpec,
    /// The method's capability axes.
    pub method: MethodSpec,
    /// Optimizer algorithm (default Adam, the paper's default).
    pub optimizer: Option<OptimizerKind>,
    /// Host worker threads of the functional execution backend (default 1).
    pub threads: Option<usize>,
    /// Ablation override of the CSD-internal transfer handler, replacing the
    /// one the method implies (e.g. SmartComp under the naive handler).
    pub handler: Option<HandlerMode>,
    /// Subgroup (tasklet) capacity override, in parameters.
    pub subgroup_elems: Option<usize>,
    /// Workload overrides (batch size, sequence length).
    pub workload: Option<WorkloadSpec>,
    /// Seeded fault-injection plan: transient storage faults, scheduled
    /// wear-out / dropout and timed straggler / uplink degradation. Omitted
    /// (or empty) means the run is byte-identical to a fault-free run.
    pub faults: Option<FaultSpec>,
}

impl RunSpec {
    /// A run spec with every knob at its default.
    pub fn new(model: ModelSpec, machine: MachineSpec, method: MethodSpec) -> Self {
        RunSpec {
            name: None,
            model,
            machine,
            method,
            optimizer: None,
            threads: None,
            handler: None,
            subgroup_elems: None,
            workload: None,
            faults: None,
        }
    }

    /// Sets the report label.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Overrides the optimizer algorithm.
    pub fn with_optimizer(mut self, optimizer: OptimizerKind) -> Self {
        self.optimizer = Some(optimizer);
        self
    }

    /// Sets the functional backend's worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Forces the CSD-internal transfer handler (ablations).
    pub fn with_handler(mut self, handler: HandlerMode) -> Self {
        self.handler = Some(handler);
        self
    }

    /// Overrides the subgroup (tasklet) capacity.
    pub fn with_subgroup_elems(mut self, elems: usize) -> Self {
        self.subgroup_elems = Some(elems);
        self
    }

    /// Overrides the workload.
    pub fn with_workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Installs a fault-injection plan.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The label campaign reports use: the explicit name, or
    /// `"<model> #SSD=<n> <method>"`.
    pub fn label(&self) -> String {
        match &self.name {
            Some(name) => name.clone(),
            None => format!("{} #SSD={} {}", self.model, self.machine.devices, self.method),
        }
    }

    /// Resolves and validates the spec into a ready [`Session`].
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] for any invalid knob — unknown
    /// presets, zero counts, incoherent capability axes, bad compression
    /// settings — from one centralized validation pass.
    pub fn session(&self) -> Result<Session, TrainError> {
        let model = self.model.resolve()?;
        let machine = self.machine.resolve()?;
        let workload = self.workload.as_ref().map(|w| w.resolve(model.clone())).transpose()?;
        let mut builder = Session::builder(model, machine, self.method);
        if let Some(kind) = self.optimizer {
            builder = builder.with_optimizer(Optimizer::new(kind, HyperParams::default()));
        }
        if let Some(threads) = self.threads {
            builder = builder.with_threads(threads);
        }
        if let Some(handler) = self.handler {
            builder = builder.with_handler(handler);
        }
        if let Some(elems) = self.subgroup_elems {
            builder = builder.with_subgroup_elems(elems);
        }
        if let Some(workload) = workload {
            builder = builder.with_workload(workload);
        }
        if let Some(faults) = &self.faults {
            builder = builder.with_faults(faults.clone());
        }
        if let Some(cluster) = self.machine.cluster {
            builder = builder.with_cluster(cluster);
        }
        let session = builder.build();
        session.validate()?;
        Ok(session)
    }

    /// Loads a spec from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] describing the parse or field error
    /// (position, unknown fields, wrong types).
    pub fn from_json(text: &str) -> Result<Self, TrainError> {
        serde_json::from_str(text).map_err(|e| TrainError::config(format!("invalid run spec: {e}")))
    }

    /// The spec's canonical serialization — the content the
    /// [`crate::CampaignService`] result cache is addressed by.
    ///
    /// Canonical form is key-order- and whitespace-insensitive (object keys
    /// sorted, re-rendered with no whitespace), treats omitted optionals and
    /// explicit `null`s identically (null entries are dropped, as are knob
    /// groups whose every knob is unset), normalizes number spellings, and
    /// excludes the presentation-only `name` field — two specs that differ
    /// only in their label run the exact same simulation, so they share a
    /// cache entry. Every *semantic* knob participates.
    pub fn canonical_json(&self) -> String {
        let mut semantic = self.clone();
        semantic.name = None;
        let text = semantic.to_json();
        let value = serde_json::parse(&text).expect("spec serialization is valid JSON");
        crate::canon::canonical_json(&value)
    }

    /// The 64-bit content address of this spec: the FNV-1a hash of
    /// [`RunSpec::canonical_json`]. Stable across processes and platforms;
    /// the service keys its cache on the canonical text and uses this hash
    /// as the compact address it reports, so collisions cannot alias specs.
    pub fn cache_key(&self) -> u64 {
        crate::canon::fnv1a(self.canonical_json().as_bytes())
    }

    /// The spec as compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("spec serialization is infallible")
    }

    /// The spec as pretty-printed JSON (the format of `specs/*.json`).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serialization is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_compose_from_the_axes() {
        assert_eq!(MethodSpec::baseline().to_string(), "BASE");
        assert_eq!(MethodSpec::smart_update().to_string(), "SU");
        assert_eq!(MethodSpec::smart_update_optimized().to_string(), "SU+O");
        assert_eq!(MethodSpec::smart_comp(0.01).to_string(), "SU+O+C(2%)");
        assert_eq!(MethodSpec::pipelined(None).to_string(), "SU+O+P");
        assert_eq!(MethodSpec::pipelined(Some(0.01)).to_string(), "SU+O+P+C(2%)");
        assert_eq!(MethodSpec::smart_comp(0.05).to_string(), "SU+O+C(10%)");
        // Off-ladder combinations label themselves too.
        let su_c = MethodSpec::smart_update().with_compression(CompressionSpec::top_k(0.01));
        assert_eq!(su_c.to_string(), "SU+C(2%)");
    }

    #[test]
    fn every_method_variant_maps_onto_the_axes() {
        // The table in `MethodSpec`'s docs, row by row:
        // (constructor, in_storage_update, overlap, pipelined, keep ratio).
        let cases = [
            (MethodSpec::baseline(), false, false, false, None),
            (MethodSpec::smart_update(), true, false, false, None),
            (MethodSpec::smart_update_optimized(), true, true, false, None),
            (MethodSpec::smart_comp(0.05), true, true, false, Some(0.05)),
            (MethodSpec::pipelined(None), true, true, true, None),
            (MethodSpec::pipelined(Some(0.01)), true, true, true, Some(0.01)),
        ];
        for (spec, in_storage_update, overlap, pipelined, keep_ratio) in cases {
            assert!(spec.offload, "{spec}");
            assert_eq!(spec.in_storage_update, in_storage_update, "{spec}");
            assert_eq!(spec.uses_csds(), in_storage_update, "{spec}");
            assert_eq!(spec.overlap, overlap, "{spec}");
            assert_eq!(spec.pipelined, pipelined, "{spec}");
            assert_eq!(spec.keep_ratio(), keep_ratio, "{spec}");
            spec.validate().expect("named methods are valid");
        }
        assert_eq!(MethodSpec::ladder().len(), 4);
    }

    #[test]
    fn incoherent_axes_are_config_errors() {
        let no_offload = MethodSpec { offload: false, ..MethodSpec::baseline() };
        assert!(matches!(no_offload.validate(), Err(TrainError::Config { .. })));
        let overlap_on_host = MethodSpec { overlap: true, ..MethodSpec::baseline() };
        assert!(matches!(overlap_on_host.validate(), Err(TrainError::Config { .. })));
        let compressed_baseline =
            MethodSpec::baseline().with_compression(CompressionSpec::top_k(0.01));
        assert!(matches!(compressed_baseline.validate(), Err(TrainError::Config { .. })));
        let pipeline_without_overlap = MethodSpec { overlap: false, ..MethodSpec::pipelined(None) };
        assert!(matches!(pipeline_without_overlap.validate(), Err(TrainError::Config { .. })));
        for bad_ratio in [0.0, -0.5, 1.5, f64::NAN] {
            let spec = MethodSpec::smart_comp(bad_ratio);
            assert!(
                matches!(spec.validate(), Err(TrainError::Config { .. })),
                "keep ratio {bad_ratio} must be rejected"
            );
        }
    }

    #[test]
    fn model_presets_resolve_and_unknowns_report_the_choices() {
        for name in ModelSpec::preset_names() {
            let model = ModelSpec::preset(name).resolve().expect(name);
            assert!(model.name().eq_ignore_ascii_case(name));
        }
        // Case-insensitive.
        assert!(ModelSpec::preset("gpt2-4.0b").resolve().is_ok());
        let err = ModelSpec::preset("GPT5-1T").resolve().expect_err("unknown preset");
        assert!(err.to_string().contains("GPT2-4.0B"), "{err}");
        let scaled = ModelSpec::ScaledGpt2 { billions: 2.0 }.resolve().expect("scaled");
        assert!((scaled.num_params() as f64 / 2e9 - 1.0).abs() < 0.2);
        for bad in [0.0, -1.0, f64::NAN] {
            assert!(ModelSpec::ScaledGpt2 { billions: bad }.resolve().is_err());
        }
    }

    #[test]
    fn machine_spec_resolves_presets_and_topologies() {
        let plain = MachineSpec::devices(6).resolve().expect("machine");
        assert_eq!(plain.num_devices, 6);
        assert_eq!(plain.gpu.name, "A5000");
        let a100 = MachineSpec::devices(4).with_gpu("a100").resolve().expect("machine");
        assert_eq!(a100.gpu.name, "A100");
        let congested =
            MachineSpec::devices(10).with_num_gpus(3).congested().resolve().expect("machine");
        assert_eq!(congested.num_gpus, 3);
        assert_eq!(congested.gpu.name, "A4000");
        assert_eq!(congested.topology, fabric::TopologyKind::Congested);
        assert!(MachineSpec::devices(0).resolve().is_err());
        assert!(MachineSpec::devices(2).with_num_gpus(0).resolve().is_err());
        assert!(MachineSpec::devices(2).with_gpu("H100").resolve().is_err());
    }

    #[test]
    fn run_spec_round_trips_through_json() {
        let spec = RunSpec::new(
            ModelSpec::preset("GPT2-4.0B"),
            MachineSpec::devices(10).with_gpu("A100"),
            MethodSpec::pipelined(Some(0.01)),
        )
        .with_name("pipelined sweep point")
        .with_optimizer(OptimizerKind::AdaGrad)
        .with_threads(4)
        .with_handler(HandlerMode::Naive)
        .with_subgroup_elems(1 << 16)
        .with_workload(WorkloadSpec { batch_size: Some(8), seq_len: None });
        let parsed = RunSpec::from_json(&spec.to_json()).expect("round trip");
        assert_eq!(parsed, spec);
        let parsed = RunSpec::from_json(&spec.to_json_pretty()).expect("pretty round trip");
        assert_eq!(parsed, spec);
    }

    /// An accepted spec may not hang: past the device bound the spec is a
    /// typed error at once, and a machine at the bound still resolves.
    #[test]
    fn device_counts_past_the_bound_are_rejected_at_once() {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let run = |devices: usize| {
                let json = format!(
                    r#"{{"model":"GPT2-0.34B","machine":{{"devices":{devices}}},
                        "method":{{"offload":true,"in_storage_update":true,"overlap":true,
                                  "pipelined":true}}}}"#
                );
                RunSpec::from_json(&json).expect("the spec parses").session().map(drop)
            };
            tx.send((run(200_000), run(4096))).expect("the test waits");
        });
        let limit = std::time::Duration::from_secs(10);
        let (past, at) = rx.recv_timeout(limit).expect("both specs are answered within 10 s");
        worker.join().expect("the worker does not panic");
        let err = past.expect_err("200 000 devices are past the bound");
        assert!(matches!(err, TrainError::Config { .. }), "{err}");
        assert!(err.to_string().contains("at most 4096"), "{err}");
        at.expect("4 096 devices resolve");
    }

    #[test]
    fn json_errors_are_config_errors_with_context() {
        let err = RunSpec::from_json("{").expect_err("parse error");
        assert!(matches!(err, TrainError::Config { .. }), "{err}");
        assert!(err.to_string().contains("line 1"), "{err}");
        // A typo'd field names itself instead of being silently ignored.
        let err = RunSpec::from_json(
            r#"{"model":"GPT2-4.0B","machine":{"devices":6},
                "method":{"offload":true,"in_storage_update":true,"overlap":true,
                          "pipelined":false,"compresion":{"keep_ratio":0.01}}}"#,
        )
        .expect_err("unknown field");
        assert!(err.to_string().contains("compresion"), "{err}");
    }

    #[test]
    fn spec_sessions_validate_centrally() {
        let good = RunSpec::new(
            ModelSpec::preset("GPT2-0.34B"),
            MachineSpec::devices(3),
            MethodSpec::smart_comp(0.01),
        );
        good.session().expect("valid spec");
        let bad_ratio = RunSpec { method: MethodSpec::smart_comp(0.0), ..good.clone() };
        assert!(matches!(bad_ratio.session(), Err(TrainError::Config { .. })));
        let bad_subgroup = good.clone().with_subgroup_elems(0);
        assert!(matches!(bad_subgroup.session(), Err(TrainError::Config { .. })));
        let bad_batch =
            good.clone().with_workload(WorkloadSpec { batch_size: Some(0), seq_len: None });
        assert!(matches!(bad_batch.session(), Err(TrainError::Config { .. })));
        let bad_model = RunSpec { model: ModelSpec::preset("nope"), ..good };
        assert!(matches!(bad_model.session(), Err(TrainError::Config { .. })));
    }

    #[test]
    fn cache_keys_track_semantics_not_presentation() {
        let spec = RunSpec::new(
            ModelSpec::preset("GPT2-4.0B"),
            MachineSpec::devices(6),
            MethodSpec::smart_comp(0.01),
        );
        // The label is presentation, not content.
        assert_eq!(spec.cache_key(), spec.clone().with_name("renamed").cache_key());
        // An explicit all-null workload group is the same configuration as an
        // omitted one.
        let explicit = spec.clone().with_workload(WorkloadSpec { batch_size: None, seq_len: None });
        assert_eq!(explicit.canonical_json(), spec.canonical_json());
        // Any semantic knob change moves the key.
        let mut devices = spec.clone();
        devices.machine.devices = 7;
        assert_ne!(spec.cache_key(), devices.cache_key());
        let ratio = RunSpec { method: MethodSpec::smart_comp(0.02), ..spec.clone() };
        assert_ne!(spec.cache_key(), ratio.cache_key());
        let threads = spec.clone().with_threads(4);
        assert_ne!(spec.cache_key(), threads.cache_key());
        // Scaling out to a cluster is a semantic change too.
        let mut cluster = spec.clone();
        cluster.machine = cluster.machine.with_cluster(crate::cluster::ClusterSpec::hosts(4));
        assert_ne!(spec.cache_key(), cluster.cache_key());
    }

    #[test]
    fn cluster_specs_parse_run_and_reject_the_host_update_method() {
        let text = r#"{
            "model": "GPT2-4.0B",
            "machine": {"devices": 6, "cluster": {"hosts": 4, "straggler": {"host": 1, "factor": 2.0}}},
            "method": {"offload": true, "in_storage_update": true, "overlap": true, "pipelined": false}
        }"#;
        let spec = RunSpec::from_json(text).expect("cluster spec parses");
        let cluster = spec.machine.cluster.expect("cluster carried");
        assert_eq!(cluster.hosts, 4);
        let clustered = spec.session().expect("session").simulate_iteration().expect("cluster run");
        // The same machine without the cluster layer: one host's iteration.
        let mut single = spec.clone();
        single.machine.cluster = None;
        let alone = single.session().unwrap().simulate_iteration().unwrap();
        assert!(clustered.total_s() > alone.total_s(), "allreduce and straggler add time");
        // JSON round trip keeps the cluster shape.
        assert_eq!(RunSpec::from_json(&spec.to_json()).expect("round trip"), spec);
        // The host-update baseline has no in-storage path to scale out.
        let baseline = RunSpec { method: MethodSpec::baseline(), ..spec };
        let err = baseline.session().expect_err("baseline cluster rejected");
        assert!(err.to_string().contains("in_storage_update"), "{err}");
    }

    #[test]
    fn labels_prefer_the_explicit_name() {
        let spec = RunSpec::new(
            ModelSpec::preset("GPT2-4.0B"),
            MachineSpec::devices(6),
            MethodSpec::baseline(),
        );
        assert_eq!(spec.label(), "GPT2-4.0B #SSD=6 BASE");
        assert_eq!(spec.clone().with_name("custom").label(), "custom");
    }
}
