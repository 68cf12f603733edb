//! The unified training contract shared by every functional execution
//! substrate.
//!
//! Smart-Infinity's core claim is that one training loop can be retargeted
//! across substrates — host-CPU RAID0 baseline, near-storage SmartUpdate,
//! SmartComp — without the caller changing. This module is that seam:
//!
//! * [`Trainer`] — the object-safe trait implemented by
//!   [`PipelinedTrainer`](crate::PipelinedTrainer), whose constructor
//!   chooses where the update runs (on the host or in the CSDs), so callers
//!   can hold a `Box<dyn Trainer>` and never care which.
//! * [`StepReport`] — per-step telemetry (bytes moved, compression
//!   keep-count, threads used, and a [`LayerTimes`] table of where the
//!   step's wall time went) returned by every step, replacing the
//!   per-engine accessors that previously each spoke their own dialect.
//! * [`TrainError`] — the workspace-level error type. Every substrate error
//!   ([`SsdError`], [`CsdError`], [`SimError`]) converts into it, so the `?`
//!   operator works across layer boundaries and `source()` walks back down
//!   to the device that actually failed.

use csd::CsdError;
use fabric::FabricError;
use gradcomp::CompressError;
use serde::Serialize;
use simkit::SimError;
use ssd::SsdError;
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};
use tensorlib::FlatTensor;

/// Per-stage byte telemetry of one near-storage training step.
///
/// The near-storage trainer splits each device shard's step into three
/// stages — **write** (gradient ingest over the host interconnect),
/// **update** (CSD-internal optimizer update) and **read-back** (refreshed
/// FP16 parameters upstream) — and overlaps the stages of different shards
/// when it has more than one worker. This report records how many bytes each
/// stage moved and how many lanes ran concurrently; the host baseline leaves
/// it `None` on the [`StepReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StageReport {
    /// Bytes the write stage pushed downstream over the shared host
    /// interconnect (dense gradients, or the Top-K index+value stream).
    pub write_bytes: u64,
    /// CSD-internal P2P bytes (reads + writes) the update stage moved.
    pub update_bytes: u64,
    /// FP16 parameter bytes the read-back stage returned upstream.
    pub read_back_bytes: u64,
    /// Concurrent pipeline lanes: device shards whose stages were in flight
    /// at once (`min(worker threads, non-empty shards)`).
    pub lanes: usize,
}

impl StageReport {
    /// Total bytes moved across all three stages.
    pub fn total_bytes(&self) -> u64 {
        self.write_bytes + self.update_bytes + self.read_back_bytes
    }

    /// Whether more than one pipeline lane was in flight (i.e. stages of
    /// different shards actually overlapped).
    pub fn is_overlapped(&self) -> bool {
        self.lanes > 1
    }
}

/// Where the host wall time of one functional step went, layer by layer, in
/// nanoseconds. Each entry is summed over the step — and over its lanes
/// where it has lanes, so with overlapped lanes the entries can add up to
/// more than the step took. The trainers fill it in around calls they make
/// anyway; it is always on. It is wall time, so unlike every other field of
/// [`StepReport`] it differs from run to run: compare reports by their byte
/// fields, not as a whole.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct LayerTimes {
    /// Storage region reads. For the near-storage trainer, the P2P read
    /// gates of each subgroup update (master, auxiliaries, a dense
    /// gradient). For the host baseline, the read admissions of each block's
    /// `RaidUpdateTxn`: gates and counters, not copies, because the kernel
    /// steps the RAID members' windows where they lie.
    pub region_read_ns: u64,
    /// Storage region writes: a dense gradient written to storage (the
    /// baseline's offload copies it into the RAID members), plus the write
    /// gates of each update — for the baseline the write admissions of its
    /// `RaidUpdateTxn`, which copy nothing.
    pub region_write_ns: u64,
    /// The optimizer kernel stepping the state windows in place.
    pub kernel_ns: u64,
    /// SmartComp's compress stage on the host: error feedback and the Top-K
    /// selection.
    pub topk_feedback_ns: u64,
    /// Decompressing the Top-K stream into dense gradient tiles (in the CSD).
    pub decompress_ns: u64,
    /// The FP16 working copy: the near-storage read-back (one counted read,
    /// rounded as it arrives), or the baseline's rounding of each updated
    /// tile.
    pub fp16_ns: u64,
    /// Lane dispatch: the time inside the step's parallel region during
    /// which no lane was running (hand-out, wake-up and join). Next to
    /// nothing for the host baseline, whose one lane runs inline.
    pub dispatch_ns: u64,
}

impl LayerTimes {
    /// Adds another table's entries into this one.
    pub(crate) fn absorb(&mut self, other: &LayerTimes) {
        self.region_read_ns += other.region_read_ns;
        self.region_write_ns += other.region_write_ns;
        self.kernel_ns += other.kernel_ns;
        self.topk_feedback_ns += other.topk_feedback_ns;
        self.decompress_ns += other.decompress_ns;
        self.fp16_ns += other.fp16_ns;
        self.dispatch_ns += other.dispatch_ns;
    }

    /// The seven entries as `(label, nanoseconds)` pairs, in table order.
    pub fn entries(&self) -> [(&'static str, u64); 7] {
        [
            ("region read", self.region_read_ns),
            ("region write", self.region_write_ns),
            ("kernel", self.kernel_ns),
            ("top-k + feedback", self.topk_feedback_ns),
            ("decompress", self.decompress_ns),
            ("fp16 pack / read-back", self.fp16_ns),
            ("lane dispatch", self.dispatch_ns),
        ]
    }
}

/// Runs `f` and adds its wall time to `slot`.
pub(crate) fn timed<R>(slot: &mut u64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let result = f();
    *slot += nanos(start.elapsed());
    result
}

/// A duration in whole nanoseconds (saturating).
pub(crate) fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Recovery telemetry of one step that survived injected faults.
///
/// Every counter records *modeled* recovery work, so the report is
/// deterministic for a given fault plan: `backoff_ms` is the exponential
/// backoff a production host would have slept, not wall-clock time, and
/// `rebuild_bytes` is the data migrated off worn or dropped devices. A step
/// with no fault events carries `None` in [`StepReport::degraded`], keeping
/// fault-free telemetry bit-identical to a run without any fault plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DegradedReport {
    /// Injected transient faults that were absorbed by retry.
    pub transient_faults: u64,
    /// Total operation retries (transient retries + post-rebuild retries).
    pub retries: u64,
    /// Modeled exponential-backoff delay accumulated across retries, in
    /// milliseconds.
    pub backoff_ms: u64,
    /// Devices rebuilt after wear-out or dropout during this step.
    pub devices_rebuilt: u64,
    /// Bytes migrated onto replacement hardware by those rebuilds.
    pub rebuild_bytes: u64,
}

impl DegradedReport {
    /// Whether any recovery work actually happened.
    pub(crate) fn is_degraded(&self) -> bool {
        *self != DegradedReport::default()
    }

    /// Merges another report's counters into this one (used when a step is
    /// assembled from several recovered operations).
    pub(crate) fn absorb(&mut self, other: &DegradedReport) {
        self.transient_faults += other.transient_faults;
        self.retries += other.retries;
        self.backoff_ms += other.backoff_ms;
        self.devices_rebuilt += other.devices_rebuilt;
        self.rebuild_bytes += other.rebuild_bytes;
    }

    /// Converts to the optional form used on [`StepReport`]: `None` when no
    /// recovery happened, so fault-free reports stay bit-identical.
    pub(crate) fn into_option(self) -> Option<DegradedReport> {
        if self.is_degraded() {
            Some(self)
        } else {
            None
        }
    }
}

/// Per-step telemetry returned by [`Trainer::step`].
///
/// The byte counters mirror what the substrate-specific accessors used to
/// report, but scoped to one step and in one place:
///
/// * For the host baseline, `storage_bytes_*` is RAID0 traffic — which all
///   crosses the shared host interconnect.
/// * For the in-storage placement, `storage_bytes_*` is CSD-internal P2P
///   traffic (SSD ↔ FPGA over the private switch) — the bytes the paper
///   keeps *off* the shared interconnect.
/// * `gradient_bytes` is always the gradient volume that crossed the host
///   interconnect (dense, or the index+value stream when SmartComp is on).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StepReport {
    /// 1-based index of the step this report describes.
    pub step: u64,
    /// Bytes of gradient data that crossed the shared host interconnect this
    /// step. Dense gradients count 4 bytes per element per crossing (the
    /// baseline offloads them to storage and reads them back: two crossings;
    /// the near-storage path sends them downstream once); compressed
    /// gradients count the actual index+value stream.
    pub gradient_bytes: u64,
    /// Bytes read from storage this step (RAID0 reads for the baseline,
    /// CSD-internal P2P reads in the CSDs).
    pub storage_bytes_read: u64,
    /// Bytes written to storage this step (RAID0 writes for the baseline,
    /// CSD-internal P2P writes in the CSDs).
    pub storage_bytes_written: u64,
    /// Number of gradient elements kept by the Top-K selection this step,
    /// summed over shards; `None` when compression is disabled.
    pub compression_kept: Option<u64>,
    /// Host worker threads the execution backend used for this step.
    pub threads: usize,
    /// SIMD kernel path the hot loops (optimizer update, f16 conversion,
    /// candidate filtering) dispatched to this step — `scalar` or `avx2`,
    /// chosen at runtime by CPU feature detection (see
    /// [`tensorlib::KernelPath::active`]).
    pub kernel_path: tensorlib::KernelPath,
    /// Per-stage telemetry of a near-storage step
    /// ([`StageReport::is_overlapped`] says whether lanes ran concurrently);
    /// `None` for the host baseline.
    pub stages: Option<StageReport>,
    /// Recovery telemetry when injected faults fired during this step;
    /// `None` when the step ran fault-free.
    pub degraded: Option<DegradedReport>,
    /// Where the step's wall time went, by layer (the one field that is not
    /// deterministic).
    pub layers: LayerTimes,
}

impl StepReport {
    /// Total storage bytes moved this step (read + written).
    pub fn storage_bytes_total(&self) -> u64 {
        self.storage_bytes_read + self.storage_bytes_written
    }

    /// Whether this step's gradients were compressed before crossing the
    /// interconnect.
    pub fn is_compressed(&self) -> bool {
        self.compression_kept.is_some()
    }
}

/// The workspace-level training error: one type for every substrate, so a
/// training loop over a `dyn Trainer` — or code that mixes the functional and
/// timed stacks — can use `?` throughout and still recover the layer that
/// failed via [`Error::source`].
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// A host-side storage (SSD / RAID0) operation failed.
    Storage(SsdError),
    /// A computational-storage-device operation failed.
    Device(CsdError),
    /// The discrete-event simulation of the timed stack failed.
    Simulation(SimError),
    /// A PCIe-fabric topology or routing operation failed (degraded or
    /// partitioned links).
    Fabric(FabricError),
    /// The requested training configuration is invalid.
    Config {
        /// What was wrong with the configuration.
        message: String,
    },
    /// An earlier step or restore failed once it had moved state, so the
    /// stored state may be torn; the trainer refuses to go on until a
    /// [`Trainer::restore`] puts a whole state back.
    Poisoned {
        /// 1-based index of the step that failed; after a failed restore,
        /// the step count of the checkpoint it was putting back.
        step: u64,
    },
}

impl TrainError {
    /// Convenience constructor for configuration errors.
    pub fn config(message: impl Into<String>) -> Self {
        TrainError::Config { message: message.into() }
    }

    /// Whether the error means a device is dead (dropped out or worn-out
    /// media) and must be rebuilt before the operation can succeed.
    pub fn needs_rebuild(&self) -> bool {
        match self {
            TrainError::Storage(e) => matches!(e, SsdError::WornOut { .. }),
            TrainError::Device(e) => e.needs_rebuild(),
            _ => false,
        }
    }
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Storage(e) => write!(f, "storage error: {e}"),
            TrainError::Device(e) => write!(f, "device error: {e}"),
            TrainError::Simulation(e) => write!(f, "simulation error: {e}"),
            TrainError::Fabric(e) => write!(f, "fabric error: {e}"),
            TrainError::Config { message } => write!(f, "invalid configuration: {message}"),
            TrainError::Poisoned { step } => {
                write!(f, "step {step} failed part-way; restore a checkpoint to go on")
            }
        }
    }
}

impl Error for TrainError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TrainError::Storage(e) => Some(e),
            TrainError::Device(e) => Some(e),
            TrainError::Simulation(e) => Some(e),
            TrainError::Fabric(e) => Some(e),
            TrainError::Config { .. } | TrainError::Poisoned { .. } => None,
        }
    }
}

impl From<SsdError> for TrainError {
    fn from(e: SsdError) -> Self {
        TrainError::Storage(e)
    }
}

impl From<CsdError> for TrainError {
    fn from(e: CsdError) -> Self {
        TrainError::Device(e)
    }
}

impl From<SimError> for TrainError {
    fn from(e: SimError) -> Self {
        TrainError::Simulation(e)
    }
}

impl From<FabricError> for TrainError {
    fn from(e: FabricError) -> Self {
        TrainError::Fabric(e)
    }
}

impl From<CompressError> for TrainError {
    /// Compression representation errors (e.g. a shard longer than the u32
    /// index space) surface through the device layer, preserving the
    /// `TrainError` → [`CsdError`] → [`CompressError`] source chain.
    fn from(e: CompressError) -> Self {
        TrainError::Device(CsdError::Compression(e))
    }
}

/// The one gradient-length check every substrate shares: a dense gradient (or
/// gradient source) must cover exactly the trainer's parameters.
pub(crate) fn check_len(what: &str, got: usize, expected: usize) -> Result<(), TrainError> {
    if got == expected {
        Ok(())
    } else {
        Err(TrainError::config(format!(
            "{what} has {got} elements but the trainer holds {expected} parameters"
        )))
    }
}

/// One functional training substrate: something that owns an FP16 working
/// copy plus an offloaded FP32 master copy and can apply a dense gradient.
///
/// The trait is object-safe on purpose — `smart_infinity::Session` hands out
/// `Box<dyn Trainer>` so that the same loop drives the RAID0 baseline and
/// every Smart-Infinity configuration, and the integration tests assert the
/// substrates are interchangeable (bit-identical without compression).
pub trait Trainer: fmt::Debug {
    /// Runs one training step with an explicitly provided dense gradient and
    /// reports the step's telemetry.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] if `grads.len()` differs from the
    /// number of parameters, [`TrainError::Poisoned`] after a step that
    /// failed part-way, or a [`TrainError`] wrapping whatever substrate
    /// operation failed (which poisons the trainer; the count stays put).
    fn step(&mut self, grads: &FlatTensor) -> Result<StepReport, TrainError>;

    /// The FP16 working copy of the parameters (what the GPU computes with).
    fn params_fp16(&self) -> &FlatTensor;

    /// Reads the FP32 master copy back from the substrate's storage.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Poisoned`] after a step that failed part-way,
    /// and a [`TrainError`] if a shard or block read fails.
    fn master_params(&mut self) -> Result<FlatTensor, TrainError>;

    /// Number of completed steps.
    fn steps_completed(&self) -> u64;

    /// Number of parameters being trained.
    fn num_params(&self) -> usize {
        self.params_fp16().len()
    }

    /// Serialises the trainer's resumable state — step counter, FP32 master
    /// parameters, optimizer auxiliary state and (when gradient compression
    /// is on) the error-feedback residuals — into a portable
    /// [`TrainerCheckpoint`](crate::TrainerCheckpoint).
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Poisoned`] after a step that failed part-way,
    /// and a substrate error if reading the state back fails.
    fn checkpoint(&mut self) -> Result<crate::TrainerCheckpoint, TrainError>;

    /// Restores the trainer's state from a checkpoint taken by
    /// [`Trainer::checkpoint`], after which continued training is
    /// bit-identical to a run that was never interrupted. It is the one call
    /// a poisoned trainer accepts, and its success clears the poison.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] if the checkpoint does not match this
    /// trainer (wrong parameter count or state shape, or error-feedback
    /// residuals where the trainer compresses nothing, or none where it
    /// does); such a refusal moves nothing. Otherwise a [`TrainError`]
    /// wrapping the substrate operation that failed once the state was
    /// being rewritten: that leaves part of it rewritten, and poisons the
    /// trainer until a restore succeeds.
    fn restore(&mut self, checkpoint: &crate::TrainerCheckpoint) -> Result<(), TrainError>;

    /// Runs one training step pulling gradients from a
    /// [`GradientSource`](crate::GradientSource). A step that is refused
    /// draws nothing from the source. A step that fails after it moved state
    /// has still used its batch: a retry after a restore draws the next one,
    /// so only a retry through [`Trainer::step`] with the kept gradient
    /// replays the lost step exactly.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] if the source's parameter count differs
    /// from the trainer's, or what [`Trainer::step`] returns.
    fn step_from(
        &mut self,
        source: &mut dyn crate::GradientSource,
    ) -> Result<StepReport, TrainError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failing_layer() {
        let e: TrainError = SsdError::EmptyArray.into();
        assert!(e.to_string().starts_with("storage error"));
        let e: TrainError = CsdError::MissingShard { shard: "s".into() }.into();
        assert!(e.to_string().starts_with("device error"));
        let e: TrainError = SimError::UnknownId { kind: "link", index: 1 }.into();
        assert!(e.to_string().starts_with("simulation error"));
        let e = TrainError::config("zero params");
        assert!(e.to_string().contains("zero params"));
        let e = TrainError::Poisoned { step: 3 };
        assert!(e.to_string().starts_with("step 3 failed part-way"));
        assert!(e.source().is_none());
    }

    #[test]
    fn source_chains_reach_the_originating_error() {
        // Two layers: TrainError -> CsdError -> SsdError.
        let e: TrainError = CsdError::from(SsdError::EmptyArray).into();
        let csd = e.source().expect("device layer");
        assert!(csd.downcast_ref::<CsdError>().is_some());
        let ssd = csd.source().expect("storage layer");
        assert_eq!(ssd.downcast_ref::<SsdError>(), Some(&SsdError::EmptyArray));
        assert!(ssd.source().is_none());
    }

    #[test]
    fn question_mark_converts_across_layer_boundaries() {
        fn storage_layer() -> Result<(), SsdError> {
            Err(SsdError::EmptyArray)
        }
        fn training_layer() -> Result<(), TrainError> {
            storage_layer()?;
            Ok(())
        }
        assert_eq!(training_layer(), Err(TrainError::Storage(SsdError::EmptyArray)));
    }

    #[test]
    fn step_report_helpers() {
        let dense = StepReport {
            storage_bytes_read: 16,
            storage_bytes_written: 12,
            ..StepReport::default()
        };
        assert_eq!(dense.storage_bytes_total(), 28);
        assert!(!dense.is_compressed());
        assert!(dense.stages.is_none());
        let sparse = StepReport { compression_kept: Some(10), ..StepReport::default() };
        assert!(sparse.is_compressed());
    }

    #[test]
    fn stage_report_helpers() {
        let stages = StageReport { write_bytes: 8, update_bytes: 28, read_back_bytes: 4, lanes: 3 };
        assert_eq!(stages.total_bytes(), 40);
        assert!(stages.is_overlapped());
        assert!(!StageReport { lanes: 1, ..StageReport::default() }.is_overlapped());
    }

    #[test]
    fn compression_errors_chain_through_the_device_layer() {
        let compress = CompressError::IndexSpaceExceeded { original_len: 1 << 40 };
        let e: TrainError = compress.into();
        assert!(e.to_string().starts_with("device error"));
        let device = e.source().expect("device layer");
        assert!(device.downcast_ref::<CsdError>().is_some());
        let origin = device.source().expect("compression layer");
        assert_eq!(origin.downcast_ref::<CompressError>(), Some(&compress));
        assert!(origin.source().is_none());
    }

    #[test]
    fn trainer_is_object_safe() {
        // Compiles only if `dyn Trainer` is a valid type.
        fn _takes_dyn(_t: &mut dyn Trainer) {}
    }

    #[test]
    fn fabric_errors_convert_and_chain() {
        let e: TrainError = FabricError::NoRoute { from: 0, to: 5 }.into();
        assert!(e.to_string().starts_with("fabric error"));
        let origin = e.source().expect("fabric layer");
        assert_eq!(
            origin.downcast_ref::<FabricError>(),
            Some(&FabricError::NoRoute { from: 0, to: 5 })
        );
        assert!(!e.needs_rebuild());
    }

    #[test]
    fn fault_classification_spans_every_layer() {
        let injected = faultkit::FaultPlan::new({
            let mut s = faultkit::FaultSpec::empty(1);
            s.transient_per_mille = Some(1000);
            s.max_transient_burst = Some(1);
            s
        })
        .unwrap()
        .injector(0)
        .check(faultkit::FaultOpKind::Write)
        .unwrap_err();
        let transient: TrainError =
            SsdError::Injected { device: "d".into(), fault: injected }.into();
        assert!(!transient.needs_rebuild());
        // The source chain reaches the injected-fault leaf three layers down.
        let ssd = transient.source().expect("storage layer");
        assert!(ssd
            .source()
            .expect("fault leaf")
            .downcast_ref::<faultkit::InjectedFault>()
            .is_some());

        let worn: TrainError = SsdError::WornOut { device: "d".into() }.into();
        assert!(worn.needs_rebuild());
        let dropped: TrainError = CsdError::Dropout { device: "c".into() }.into();
        assert!(dropped.needs_rebuild());
        let wrapped: TrainError = CsdError::Ssd(SsdError::WornOut { device: "d".into() }).into();
        assert!(wrapped.needs_rebuild());
        assert!(!TrainError::config("x").needs_rebuild());
    }

    #[test]
    fn degraded_report_helpers() {
        let mut d = DegradedReport::default();
        assert!(!d.is_degraded());
        assert_eq!(d.into_option(), None);
        d.transient_faults = 2;
        d.retries = 2;
        d.backoff_ms = 6;
        assert!(d.is_degraded());
        let mut total =
            DegradedReport { devices_rebuilt: 1, rebuild_bytes: 64, ..Default::default() };
        total.absorb(&d);
        assert_eq!(total.transient_faults, 2);
        assert_eq!(total.retries, 2);
        assert_eq!(total.backoff_ms, 6);
        assert_eq!(total.devices_rebuilt, 1);
        assert_eq!(total.rebuild_bytes, 64);
        assert_eq!(total.into_option(), Some(total));
        let report = StepReport { degraded: Some(total), ..StepReport::default() };
        assert!(report.degraded.is_some());
        assert!(StepReport::default().degraded.is_none());
    }
}
