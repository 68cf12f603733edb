//! The functional trainer: a list of *lanes* and one executor. A lane owns a
//! contiguous range of the parameters, whose FP32 master copy and optimizer
//! state live on the lane's own devices, and speaks the crate-private lane
//! interface (`crate::lane`). Where the update runs is only the
//! constructor's choice of lanes: [`PipelinedTrainer::host_update`] builds
//! one RAID0 lane stepped by the host CPU (the baseline; see
//! `crate::functional`), [`PipelinedTrainer::new`] one [`CsdDevice`] lane
//! per shard — write (gradient ingest) → compress/update → read-back, with
//! no cross-device dependency (paper Section IV-D). The step counter, the
//! FP16 working copy, the fault plan, checkpoint / restore and the
//! [`StepReport`] are written once, against that interface; each lane keeps
//! its own op order.
//!
//! A step carves the gradient and the FP16 copy by lane and deals the lanes
//! to a [`parcore::ParExecutor`]: with one worker (or one lane) they run
//! inline, one after another; with more they overlap, so the shared host
//! interconnect stops being a step-granularity bottleneck (Sections
//! IV-B/IV-D). Lanes share no state, so scheduling cannot change a bit of
//! the result for any worker or device count: without compression the
//! in-storage result equals the host's, with it an in-memory reference's.
//! An in-storage step also reports a [`StageReport`] (bytes per stage, lanes
//! in flight), mirroring the timed engine's stage-level link accounting.
//!
//! Construction and stepping are fallible ([`TrainError::Config`]) rather
//! than asserting: this trainer is reached from user-facing configuration
//! (`smart_infinity::Session`), where a bad knob or a wrong-length gradient
//! must be an error, not an abort. A step that fails once it has moved state
//! leaves the step count where it was and poisons the trainer: until a
//! restore succeeds, every call that reads or advances the state is refused.

use crate::checkpoint::{bits_to_tensor, tensor_to_bits, TrainerCheckpoint};
use crate::functional::{GradientSource, RaidLane};
use crate::lane::{Lane, LaneReport, ScheduledFault, StepArgs};
use crate::plan::StepPlan;
use crate::recover::recover;
use crate::trainer::{
    check_len, nanos, timed, DegradedReport, LayerTimes, StageReport, StepReport, TrainError,
    Trainer,
};
use csd::{CsdDevice, CsdError, CsdTrafficStats, SubgroupUpdate};
use faultkit::FaultPlan;
use gradcomp::{CompressLane, Compressor, ErrorFeedback};
use optim::Optimizer;
use parcore::ParExecutor;
use std::time::Instant;
use tensorlib::{Chunker, FlatTensor, Partitioner};

/// The distributed starting state of a near-storage run: the flattened
/// parameters contiguously sharded across fresh CSD models, with the FP32
/// master copy and zeroed optimizer state stored on each device, plus one
/// error-feedback residual per shard.
///
/// Public so a replay of the per-lane step outside this crate starts from
/// byte-identical device state. Panics on zero CSDs.
pub fn init_csd_shards(
    initial_params: &FlatTensor,
    optimizer: &Optimizer,
    num_csds: usize,
) -> Result<(Partitioner, Vec<CsdDevice>, Vec<ErrorFeedback>), CsdError> {
    let plan = StepPlan::cut_into(initial_params.len(), num_csds, None).expect("at least one CSD");
    let mut csds = Vec::with_capacity(num_csds);
    for lane in 0..num_csds {
        let mut csd = CsdDevice::new(format!("csd{lane}"), u64::MAX / 4, u64::MAX / 4);
        let range = plan.lane(lane);
        csd.store_initial_state(SHARD, &initial_params.slice(range.start, range.len()), optimizer)?;
        csds.push(csd);
    }
    let feedback = (0..num_csds).map(|lane| ErrorFeedback::new(plan.lane(lane).len())).collect();
    Ok((plan.partitioner(), csds, feedback))
}

/// The name every CSD lane stores its shard under.
const SHARD: &str = "shard";

/// The functional trainer: an FP16 working copy in host memory, the FP32
/// master copy and optimizer states in storage, and the update either on
/// the host over a RAID0 array ([`PipelinedTrainer::host_update`]) or in
/// each CSD on its own shard ([`PipelinedTrainer::new`]). Results are
/// **bit-identical** for every worker-thread count; only wall-clock time and
/// the lane count in `StepReport::stages` differ.
#[derive(Debug)]
pub struct PipelinedTrainer {
    // Lane `i` owns `plan.lane(i)` of the parameters.
    plan: StepPlan,
    lanes: Vec<Box<dyn Lane>>,
    pool: ParExecutor,
    optimizer: Optimizer,
    params_fp16: FlatTensor,
    compressor: Option<Compressor>,
    step: u64,
    // The step in progress once it moves state, left set if it fails: until
    // a `restore` the stored state is torn, and every call that reads or
    // advances it is refused.
    poisoned: Option<u64>,
    fault_plan: Option<FaultPlan>,
}

impl PipelinedTrainer {
    /// Creates a trainer that updates in the CSDs: partitions the parameters
    /// across `num_csds` CSDs and initialises the FP32 master copy and
    /// optimizer states on each device.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] for a zero device count or zero
    /// subgroup capacity (see [`StepPlan::cut_into`]), and a wrapped [`CsdError`]
    /// if a device cannot hold its shard.
    pub fn new(
        initial_params: &FlatTensor,
        optimizer: Optimizer,
        num_csds: usize,
        subgroup_elems: usize,
    ) -> Result<Self, TrainError> {
        let plan = StepPlan::cut_into(initial_params.len(), num_csds, Some(subgroup_elems))?;
        let (_, csds, feedback) = init_csd_shards(initial_params, &optimizer, num_csds)?;
        let lanes = csds.into_iter().zip(feedback).enumerate().map(|(i, (csd, feedback))| {
            let compress = CompressLane::default();
            Box::new(CsdLane { csd, feedback, compress, units: plan.units(i) }) as Box<dyn Lane>
        });
        Ok(Self::with_lanes(initial_params, optimizer, plan, lanes.collect()))
    }

    /// Creates a trainer that updates on the host: stores the FP32 master
    /// copy and zeroed optimizer states, in blocks of `block_elems`, on a
    /// fresh RAID0 array of `num_ssds` devices. Its one lane runs inline on
    /// the calling thread whatever the executor, and with a compressor every
    /// step is refused.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] for a zero device count or zero block
    /// size, as [`PipelinedTrainer::new`] does, and a wrapped
    /// [`ssd::SsdError`] if the devices cannot hold the optimizer state.
    pub fn host_update(
        initial_params: &FlatTensor,
        optimizer: Optimizer,
        num_ssds: usize,
        block_elems: usize,
    ) -> Result<Self, TrainError> {
        let plan =
            StepPlan::cut_into(initial_params.len(), num_ssds, Some(block_elems))?.one_lane();
        let lane = RaidLane::new(initial_params, &optimizer, num_ssds, plan.units(0))?;
        Ok(Self::with_lanes(initial_params, optimizer, plan, vec![Box::new(lane)]))
    }

    fn with_lanes(
        initial: &FlatTensor,
        optimizer: Optimizer,
        plan: StepPlan,
        lanes: Vec<Box<dyn Lane>>,
    ) -> Self {
        // The FP16 working copy is derived from the master copy, exactly as
        // mixed-precision training does.
        let mut params_fp16 = FlatTensor::zeros(initial.len());
        initial.roundtrip_f16_into(params_fp16.as_mut_slice());
        let (pool, compressor, fault_plan) = (ParExecutor::serial(), None, None);
        let (step, poisoned) = (0, None);
        Self { plan, lanes, pool, optimizer, params_fp16, compressor, step, poisoned, fault_plan }
    }

    /// Refuses, with [`TrainError::Poisoned`], a trainer whose last step
    /// or restore failed part-way.
    fn check_whole(&self) -> Result<(), TrainError> {
        self.poisoned.map_or(Ok(()), |step| Err(TrainError::Poisoned { step }))
    }

    /// The refusals of a step with a gradient of `len` elements from
    /// `what`, none of which moves anything: a poisoned trainer, a length
    /// other than the parameter count, a lane that does not take the
    /// compressor.
    fn admit_step(&self, what: &str, len: usize) -> Result<(), TrainError> {
        self.check_whole()?;
        check_len(what, len, self.num_params())?;
        self.lanes.iter().try_for_each(|lane| lane.admit(self.compressor))
    }

    /// Installs a fault plan: deterministic per-device injectors and a
    /// device-internal retry budget on every SSD (the RAID members, or each
    /// CSD's), plus scheduled wear-out and, in the CSDs, dropout. An empty
    /// plan is a no-op, so the fault-free path stays bit-identical.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        if !plan.is_empty() {
            let mut first = 0;
            for lane in &mut self.lanes {
                lane.install_faults(&plan, first);
                first += lane.num_devices() as u64;
            }
            self.fault_plan = Some(plan);
        }
        self
    }

    fn max_retries(&self) -> u32 {
        self.fault_plan.as_ref().map_or(0, FaultPlan::max_retries)
    }

    /// Fires scheduled wear-out / dropout at the start of their planned step,
    /// on the device the plan picks among all the lanes' devices.
    fn trigger_scheduled_faults(&mut self, step: u64) {
        let Some(plan) = &self.fault_plan else { return };
        let devices = self.lanes.iter().map(|lane| lane.num_devices()).sum();
        let scheduled = [
            (ScheduledFault::WearOut, plan.wearout_step(), plan.wearout_device(devices)),
            (ScheduledFault::Dropout, plan.dropout_step(), plan.dropout_device(devices)),
        ];
        for (fault, at, device) in scheduled {
            if let Some(device) = device.filter(|_| at == Some(step)) {
                self.fire(device, fault);
            }
        }
    }

    /// Fires `fault` on `device`, counted over the lanes' devices in order.
    fn fire(&mut self, mut device: usize, fault: ScheduledFault) {
        for lane in &mut self.lanes {
            if device < lane.num_devices() {
                return lane.fire(device, fault);
            }
            device -= lane.num_devices();
        }
    }

    /// Enables SmartComp: each lane Top-K-compresses its shard's gradients
    /// (with error feedback) before they cross the host interconnect.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] if `keep_ratio` is not in `(0, 1]`.
    pub fn with_compression(self, keep_ratio: f64) -> Result<Self, TrainError> {
        if !gradcomp::valid_keep_ratio(keep_ratio) {
            return Err(TrainError::config(format!(
                "Top-K keep ratio must be in (0, 1], got {keep_ratio}"
            )));
        }
        Ok(self.with_compressor(Compressor::top_k(keep_ratio)))
    }

    /// Enables SmartComp with an explicit coordinate selector (Random-K)
    /// instead of the default exact Top-K.
    pub fn with_compressor(mut self, compressor: Compressor) -> Self {
        self.compressor = Some(compressor);
        self
    }

    /// Sets the number of host worker threads. Shards are lanes dealt to the
    /// workers; each lane's own kernels (Top-K selection, the CSD updater)
    /// get `max(1, workers / devices)` of them, so many devices on few
    /// workers overlap lanes with serial kernels inside, and one device on
    /// many workers fans its kernels out instead. Results are bit-identical
    /// for every thread count.
    ///
    /// Lanes are scheduled by the default size-aware work-stealing executor:
    /// heavier shards are dealt first and idle workers steal queued lanes, so
    /// one skewed shard does not serialize the step. Use
    /// [`PipelinedTrainer::with_executor`] to pin the schedule instead.
    pub fn with_threads(self, num_threads: usize) -> Self {
        self.with_executor(ParExecutor::new(num_threads))
    }

    /// Sets the lane executor explicitly — e.g.
    /// [`ParExecutor::deterministic`] for bit-equivalence suites that want
    /// the lane→worker schedule pinned as well as the results (the results
    /// are identical in every mode regardless). The host placement's one
    /// lane runs serially on the calling thread and keeps the serial
    /// executor.
    pub fn with_executor(mut self, pool: ParExecutor) -> Self {
        let lane_workers = (pool.num_threads() / self.lanes.len()).max(1);
        let mut threaded = false;
        for lane in &mut self.lanes {
            threaded |= lane.set_threads(lane_workers);
        }
        if threaded {
            self.pool = pool;
        }
        self
    }

    /// The FP16 working copy of the parameters.
    pub fn params_fp16(&self) -> &FlatTensor {
        &self.params_fp16
    }

    /// Aggregated CSD-internal P2P traffic statistics across all devices
    /// (all zero on the host placement).
    pub fn aggregate_stats(&self) -> CsdTrafficStats {
        let mut total = CsdTrafficStats::default();
        for s in self.lanes.iter().map(|lane| lane.stats()) {
            total.p2p_read_bytes += s.p2p_read_bytes;
            total.p2p_write_bytes += s.p2p_write_bytes;
            total.updates_run += s.updates_run;
            total.elements_updated += s.elements_updated;
        }
        total
    }

    /// Runs one training step with an explicitly provided dense gradient:
    /// carves the gradient and the FP16 working copy by lane and deals the
    /// lanes to the executor, heaviest first — on the host the one RAID0
    /// lane's offload and block-wise update (see `RaidLane::step`), in the
    /// CSDs a lane per shard, with the per-stage byte telemetry in
    /// [`StepReport::stages`].
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Poisoned`] if an earlier step failed part-way,
    /// [`TrainError::Config`] if `grads.len()` differs from the number of
    /// parameters or the host placement has a compressor (none of these
    /// moves anything), and otherwise the storage or device error of the
    /// first failing operation — the lowest-indexed lane's, deterministic
    /// regardless of scheduling. Such a failure may leave some units
    /// committed, so the step count stays where it was and the trainer is
    /// poisoned until a [`Trainer::restore`].
    pub fn train_step_with_grads(&mut self, grads: &FlatTensor) -> Result<StepReport, TrainError> {
        self.admit_step("gradient", grads.len())?;
        self.admitted_step(grads)
    }

    /// The body of a step that [`PipelinedTrainer::admit_step`] admitted.
    fn admitted_step(&mut self, grads: &FlatTensor) -> Result<StepReport, TrainError> {
        // From here the step moves state; only its success clears the poison.
        let step = self.step + 1;
        self.poisoned = Some(step);
        self.trigger_scheduled_faults(step);
        let args = StepArgs {
            optimizer: self.optimizer,
            step,
            retries: self.max_retries(),
            compressor: self.compressor,
        };

        // Lane i owns its contiguous slice of the gradient and of the FP16
        // working copy.
        let mut fp16_rest = self.params_fp16.as_mut_slice();
        let work: Vec<_> = (self.lanes.iter_mut().enumerate())
            .map(|(i, lane)| {
                let range = self.plan.lane(i);
                let (fp16, rest) = std::mem::take(&mut fp16_rest).split_at_mut(range.len());
                fp16_rest = rest;
                (lane, &grads.as_slice()[range], fp16)
            })
            .collect();
        // Cost-weighted dispatch: a lane's work is proportional to its size,
        // so heavier lanes are scheduled first (and stealable) rather than
        // letting one skewed shard serialize the step.
        let weights: Vec<usize> = work.iter().map(|(_, grads, _)| grads.len()).collect();
        let active_lanes = weights.iter().filter(|&&w| w > 0).count();
        let region = Instant::now();
        let results = self.pool.map_weighted(work, &weights, |_, (lane, grads, fp16)| {
            let start = Instant::now();
            let report = lane.step(&args, grads, fp16).map(|mut report| {
                // The transient retries the devices absorbed in place.
                let (retries, backoff_ms) = lane.take_fault_events();
                report.degraded.transient_faults += retries;
                report.degraded.retries += retries;
                report.degraded.backoff_ms += backoff_ms;
                report
            });
            (start, Instant::now(), report)
        });
        let region = (region, Instant::now());

        let mut total = LaneReport::default();
        let mut busy = Vec::with_capacity(results.len());
        for (start, end, result) in results {
            busy.push((start, end));
            total.absorb(&result?);
        }
        total.layers.dispatch_ns = idle_ns(region, &mut busy);
        let stages = total.read_back_bytes.map(|read_back_bytes| StageReport {
            write_bytes: total.gradient_bytes,
            update_bytes: total.storage_read_bytes + total.storage_write_bytes,
            read_back_bytes,
            lanes: self.pool.num_threads().min(active_lanes).max(1),
        });
        (self.step, self.poisoned) = (step, None);
        Ok(StepReport {
            step,
            gradient_bytes: total.gradient_bytes,
            storage_bytes_read: total.storage_read_bytes,
            storage_bytes_written: total.storage_write_bytes,
            compression_kept: self.compressor.map(|_| total.kept),
            threads: self.pool.num_threads(),
            kernel_path: tensorlib::KernelPath::active(),
            stages,
            degraded: total.degraded.into_option(),
            layers: total.layers,
        })
    }

    /// Moves the master copy (`state[0]`), each auxiliary state and, where
    /// given, the error-feedback residual between the lanes and these flat
    /// tensors, lane by lane: read into them, or with `write` written from
    /// them (see `Lane::transfer_state`).
    fn transfer_state(
        &mut self,
        retries: u32,
        write: bool,
        state: &mut [FlatTensor],
        mut residual: Option<&mut FlatTensor>,
    ) -> Result<(), TrainError> {
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let range = self.plan.lane(i);
            let mut windows: Vec<&mut [f32]> =
                state.iter_mut().map(|t| &mut t.as_mut_slice()[range.clone()]).collect();
            let residual = residual.as_deref_mut().map(|r| &mut r.as_mut_slice()[range.clone()]);
            lane.transfer_state(retries, write, &mut windows, residual)?;
        }
        Ok(())
    }
}

/// The part of `region` (start, end) during which none of the `busy`
/// intervals ran, in nanoseconds.
fn idle_ns(region: (Instant, Instant), busy: &mut [(Instant, Instant)]) -> u64 {
    busy.sort_unstable_by_key(|&(start, _)| start);
    let (mut covered, mut reach) = (0, region.0);
    for &(start, end) in busy.iter() {
        let start = start.max(reach);
        if end > start {
            covered += nanos(end - start);
            reach = end;
        }
    }
    nanos(region.1 - region.0).saturating_sub(covered)
}

impl Trainer for PipelinedTrainer {
    fn step(&mut self, grads: &FlatTensor) -> Result<StepReport, TrainError> {
        self.train_step_with_grads(grads)
    }

    fn step_from(&mut self, source: &mut dyn GradientSource) -> Result<StepReport, TrainError> {
        self.admit_step("gradient source", source.num_params())?;
        let grads = source.gradients(self.step + 1, &self.params_fp16);
        self.admitted_step(&grads)
    }

    fn params_fp16(&self) -> &FlatTensor {
        &self.params_fp16
    }

    fn master_params(&mut self) -> Result<FlatTensor, TrainError> {
        self.check_whole()?;
        let mut state = [FlatTensor::zeros(self.params_fp16.len())];
        self.transfer_state(0, false, &mut state, None)?;
        let [master] = state;
        Ok(master)
    }

    fn steps_completed(&self) -> u64 {
        self.step
    }

    fn checkpoint(&mut self) -> Result<TrainerCheckpoint, TrainError> {
        self.check_whole()?;
        let n = self.params_fp16.len();
        let mut state = vec![FlatTensor::zeros(n); 1 + self.optimizer.kind().num_aux()];
        let mut residual = self.compressor.map(|_| FlatTensor::zeros(n));
        self.transfer_state(self.max_retries(), false, &mut state, residual.as_mut())?;
        Ok(TrainerCheckpoint {
            step: self.step,
            num_params: n as u64,
            master_bits: tensor_to_bits(&state[0]),
            aux_bits: state[1..].iter().map(tensor_to_bits).collect(),
            residual_bits: residual.as_ref().map(tensor_to_bits).unwrap_or_default(),
        })
    }

    fn restore(&mut self, checkpoint: &TrainerCheckpoint) -> Result<(), TrainError> {
        checkpoint.check_matches(self.params_fp16.len(), self.optimizer.kind().num_aux())?;
        if self.compressor.is_some() == checkpoint.residual_bits.is_empty() {
            return Err(TrainError::config(if self.compressor.is_some() {
                "checkpoint has no error-feedback residuals but compression is enabled"
            } else {
                "checkpoint carries error-feedback residuals but compression is disabled"
            }));
        }
        let bits = std::iter::once(&checkpoint.master_bits).chain(&checkpoint.aux_bits);
        let mut state: Vec<FlatTensor> = bits.map(|b| bits_to_tensor(b)).collect();
        let mut residual = self.compressor.map(|_| bits_to_tensor(&checkpoint.residual_bits));
        // From here the lanes are rewritten one after another: a failure
        // part-way leaves some at the checkpoint and the rest where they
        // were, so only a restore that succeeds makes the trainer whole.
        self.poisoned = Some(checkpoint.step);
        self.transfer_state(self.max_retries(), true, &mut state, residual.as_mut())?;
        state[0].roundtrip_f16_into(self.params_fp16.as_mut_slice());
        self.step = checkpoint.step;
        self.poisoned = None;
        Ok(())
    }
}

/// One in-storage lane: a CSD updating its own shard, with the shard's
/// error-feedback residual (one element per parameter of the shard) and
/// compress state.
#[derive(Debug)]
struct CsdLane {
    csd: CsdDevice,
    feedback: ErrorFeedback,
    // One selection state + Top-K stream, refilled every step (SmartComp
    // only: a dense gradient goes to its device unstaged).
    compress: CompressLane,
    // The shard's update units, in order.
    units: Chunker,
}

impl Lane for CsdLane {
    fn num_devices(&self) -> usize {
        1
    }

    fn install_faults(&mut self, plan: &FaultPlan, first: u64) {
        self.csd.install_faults(plan, first);
    }

    fn fire(&mut self, _device: usize, fault: ScheduledFault) {
        match fault {
            ScheduledFault::WearOut => self.csd.inject_wearout(),
            ScheduledFault::Dropout => self.csd.inject_dropout(),
        }
    }

    fn set_threads(&mut self, workers: usize) -> bool {
        self.csd.set_threads(workers);
        true
    }

    /// One trip through the pipeline: write → compress/update → read-back,
    /// entirely on this lane's own device state.
    fn step(
        &mut self,
        args: &StepArgs,
        grads: &[f32],
        fp16: &mut [f32],
    ) -> Result<LaneReport, TrainError> {
        let (len, retries) = (grads.len(), args.retries);
        let Self { csd, feedback, compress, units } = self;
        if len == 0 {
            return Ok(LaneReport { read_back_bytes: Some(0), ..LaneReport::default() });
        }
        let before = csd.stats();
        let mut layers = LayerTimes::default();
        // Recovery is lane-local: each lane owns its device, so retry and
        // rebuild decisions are deterministic regardless of how the lanes are
        // scheduled across worker threads.
        let mut deg = DegradedReport::default();

        // Stage 1 — write: the shard's gradient crosses the host interconnect
        // downstream, dense (straight from the caller's tensor) or as the
        // Top-K stream: one pass accumulates the shard's slice into the
        // residual, which is then the corrected gradient, and collects the
        // candidates the selection keeps from (on the lane's share of the
        // workers — the device's executor — bit-identical for any worker
        // count); the kept coordinates leave.
        let compressed = match &args.compressor {
            None => None,
            Some(c) => {
                let pool = csd.executor();
                timed(&mut layers.topk_feedback_ns, || {
                    feedback.compress_into(grads, c, &pool, compress)
                })
                .map_err(CsdError::from)?;
                Some(compress.stream())
            }
        };
        let (gradient_bytes, kept) = match compressed {
            None => (4 * len as u64, 0),
            Some(c) => (c.compressed_bytes() as u64, c.num_selected() as u64),
        };
        if compressed.is_none() {
            // Whole-region gradient writes are idempotent, so the recovery
            // wrapper may retry them freely.
            timed(&mut layers.region_write_ns, || {
                recover(retries, &mut deg, csd, CsdDevice::rebuild, |csd| {
                    csd.store_gradients(SHARD, grads)
                })
            })?;
        }

        // Stage 2 — update: subgroup-by-subgroup near-storage optimizer step
        // over CSD-internal P2P. The device's SSD clears transient faults
        // gate by gate, and an update moves no state until every gate has
        // passed — so a dead device reaching the wrapper here left the
        // subgroup un-updated, and repeating the whole operation after the
        // rebuild steps it exactly once.
        for subgroup in units.subgroups() {
            recover(retries, &mut deg, csd, CsdDevice::rebuild, |csd| {
                csd.update_subgroup(SubgroupUpdate {
                    shard: SHARD,
                    offset: subgroup.offset,
                    len: subgroup.len,
                    optimizer: args.optimizer,
                    step: args.step,
                    compressed,
                })
            })?;
        }

        // Stage 3 — read-back: the refreshed FP16 working copy returns to
        // host memory, rounded straight from the device's region bytes into
        // this lane's output slice.
        timed(&mut layers.fp16_ns, || {
            recover(retries, &mut deg, csd, CsdDevice::rebuild, |csd| {
                csd.load_parameters_fp16_into(SHARD, 0, fp16)
            })
        })?;

        let update = csd.take_update_times();
        layers.region_read_ns += update.read_gates_ns;
        layers.region_write_ns += update.write_gates_ns;
        layers.decompress_ns += update.decompress_ns;
        layers.kernel_ns += update.kernel_ns;
        let after = csd.stats();
        Ok(LaneReport {
            gradient_bytes,
            kept,
            storage_read_bytes: after.p2p_read_bytes - before.p2p_read_bytes,
            storage_write_bytes: after.p2p_write_bytes - before.p2p_write_bytes,
            read_back_bytes: Some(2 * len as u64),
            degraded: deg,
            layers,
        })
    }

    fn transfer_state(
        &mut self,
        retries: u32,
        write: bool,
        state: &mut [&mut [f32]],
        residual: Option<&mut [f32]>,
    ) -> Result<(), TrainError> {
        if self.units.total() == 0 {
            return Ok(());
        }
        let csd = &mut self.csd;
        let mut deg = DegradedReport::default();
        csd.suspend_faults(true);
        let result = state.iter_mut().enumerate().try_for_each(|(window, values)| {
            recover(retries, &mut deg, csd, CsdDevice::rebuild, |csd| {
                if write {
                    csd.store_state(SHARD, window, values)
                } else {
                    csd.load_state_into(SHARD, window, 0, values)
                }
            })
        });
        csd.suspend_faults(false);
        result?;
        match residual {
            Some(residual) if write => self.feedback.restore_residual(residual),
            Some(residual) => residual.copy_from_slice(self.feedback.residual().as_slice()),
            None => {}
        }
        Ok(())
    }

    fn take_fault_events(&mut self) -> (u64, u64) {
        self.csd.take_fault_events()
    }

    fn stats(&self) -> CsdTrafficStats {
        self.csd.stats()
    }

    #[cfg(test)]
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
impl PipelinedTrainer {
    /// Lane `i` as the lane type `L` the constructor gave it, for tests that
    /// reach into its devices.
    pub(crate) fn lane<L: 'static>(&mut self, i: usize) -> &mut L {
        self.lanes[i].as_any_mut().downcast_mut().expect("the lane has the asked-for type")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::SyntheticGradients;

    #[test]
    fn pipelined_is_bit_identical_to_the_host_baseline() {
        // Without compression the near-storage update is numerically the
        // baseline update, so the near-storage trainer must match it bit for bit.
        let n = 5000;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 1);
        let mut baseline = PipelinedTrainer::host_update(&initial, optimizer, 2, 1024).unwrap();
        let mut pipelined =
            PipelinedTrainer::new(&initial, optimizer, 3, 700).unwrap().with_threads(4);
        for step in 0..4u64 {
            let grads = FlatTensor::randn(n, 0.01, 100 + step);
            baseline.train_step_with_grads(&grads).unwrap();
            pipelined.train_step_with_grads(&grads).unwrap();
        }
        assert_eq!(
            pipelined.master_params().unwrap().as_slice(),
            baseline.master_params().unwrap().as_slice()
        );
        assert_eq!(pipelined.params_fp16().as_slice(), baseline.params_fp16().as_slice());
        assert_eq!(pipelined.steps_completed(), 4);
        assert_eq!(pipelined.lanes.len(), 3);
        assert_eq!(pipelined.num_params(), n);
        assert!(pipelined.compressor.is_none());
    }

    #[test]
    fn thread_count_never_changes_results() {
        let n = 4000;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 7);
        let run = |threads: usize, keep: Option<f64>| {
            let mut t = PipelinedTrainer::new(&initial, optimizer, 3, 600).unwrap();
            if let Some(k) = keep {
                t = t.with_compression(k).unwrap();
            }
            t = t.with_threads(threads);
            let mut source = SyntheticGradients::new(n, 0.01, 55);
            let mut last = StepReport::default();
            for _ in 0..3 {
                last = t.step_from(&mut source).unwrap();
            }
            (t.master_params().unwrap(), t.params_fp16().clone(), last)
        };
        for keep in [None, Some(0.05)] {
            let (serial_master, serial_fp16, serial_report) = run(1, keep);
            for threads in [2usize, 4, 7] {
                let (master, fp16, report) = run(threads, keep);
                assert_eq!(master.as_slice(), serial_master.as_slice(), "{keep:?} t={threads}");
                assert_eq!(fp16.as_slice(), serial_fp16.as_slice(), "{keep:?} t={threads}");
                // Telemetry: identical bytes, different lane concurrency.
                let (s, r) = (serial_report.stages.unwrap(), report.stages.unwrap());
                assert_eq!(s.write_bytes, r.write_bytes);
                assert_eq!(s.update_bytes, r.update_bytes);
                assert_eq!(s.read_back_bytes, r.read_back_bytes);
                assert_eq!(s.lanes, 1);
                assert_eq!(r.lanes, threads.min(3));
                assert_eq!(report.threads, threads);
            }
        }
    }

    #[test]
    fn work_stealing_matches_the_deterministic_schedule_bit_for_bit() {
        // Same trainer, same gradients, every thread count, both scheduling
        // modes — the master copy and FP16 working copy must agree exactly.
        let n = 4000;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 21);
        let run = |pool: ParExecutor| {
            let mut t = PipelinedTrainer::new(&initial, optimizer, 4, 600)
                .unwrap()
                .with_compression(0.05)
                .unwrap()
                .with_executor(pool);
            let mut source = SyntheticGradients::new(n, 0.01, 99);
            let mut last = StepReport::default();
            for _ in 0..3 {
                last = t.step_from(&mut source).unwrap();
            }
            (t.master_params().unwrap(), t.params_fp16().clone(), last)
        };
        let (ref_master, ref_fp16, _) = run(ParExecutor::deterministic(1));
        for threads in [1usize, 2, 4, 7] {
            for pool in [ParExecutor::new(threads), ParExecutor::deterministic(threads)] {
                let (master, fp16, report) = run(pool);
                assert_eq!(
                    master.as_slice(),
                    ref_master.as_slice(),
                    "master diverged: threads={threads} mode={:?}",
                    pool.mode()
                );
                assert_eq!(
                    fp16.as_slice(),
                    ref_fp16.as_slice(),
                    "fp16 diverged: threads={threads} mode={:?}",
                    pool.mode()
                );
                // The report pins the runtime-detected SIMD path either way.
                assert_eq!(report.kernel_path, tensorlib::KernelPath::active());
            }
        }
    }

    #[test]
    fn stage_telemetry_matches_the_analytic_accounting() {
        let n = 6000;
        let optimizer = Optimizer::adam_default();
        let mut t = PipelinedTrainer::new(&FlatTensor::zeros(n), optimizer, 3, 1000)
            .unwrap()
            .with_threads(2);
        let report = t.train_step_with_grads(&FlatTensor::zeros(n)).unwrap();
        let stages = report.stages.expect("near-storage steps report stages");
        // Dense Adam: 4n gradient down, 16n read + 12n written internally,
        // 2n FP16 up.
        assert_eq!(stages.write_bytes, 4 * n as u64);
        assert_eq!(stages.update_bytes, 28 * n as u64);
        assert_eq!(stages.read_back_bytes, 2 * n as u64);
        assert_eq!(stages.total_bytes(), 34 * n as u64);
        assert!(stages.is_overlapped());
        assert_eq!(stages.lanes, 2);
        // The flat counters agree with the stage split.
        assert_eq!(report.gradient_bytes, stages.write_bytes);
        assert_eq!(report.storage_bytes_total(), stages.update_bytes);
        let stats = t.aggregate_stats();
        assert_eq!(stats.elements_updated, n as u64);
        assert_eq!(stats.updates_run, 6); // 3 shards x 2 subgroups
    }

    #[test]
    fn both_constructors_refuse_zero_devices_and_a_zero_unit() {
        let initial = FlatTensor::zeros(16);
        let optimizer = Optimizer::adam_default();
        type Build =
            fn(&FlatTensor, Optimizer, usize, usize) -> Result<PipelinedTrainer, TrainError>;
        for build in [PipelinedTrainer::new as Build, PipelinedTrainer::host_update] {
            for (devices, unit, what) in [(0, 8, "at least one"), (2, 0, "must be positive")] {
                let e = build(&initial, optimizer, devices, unit).unwrap_err();
                assert!(matches!(e, TrainError::Config { .. }), "{e}");
                assert!(e.to_string().contains(what), "{e}");
            }
        }
    }

    /// One (parameters, devices, unit) triple, read by both stacks: per
    /// device, the timed graph's tasklet chains are the CSD lane's
    /// `update_subgroup` calls, and the gradient bytes the graph routes to the
    /// device, de-rated by SmartComp's transfer ratio, are the lane's dense
    /// gradient bytes. SU is dense; SU+O+P+C compresses (overlap and
    /// pipelining only schedule, so neither cut moves).
    #[test]
    fn the_trainer_and_the_timed_graph_cut_a_step_from_one_plan() {
        use crate::schedule::{build_iteration_graph, GraphKnobs, IterPhases, SiteMap};
        use crate::{MachineConfig, TimedPlatform};
        // A GPT-2-shaped model small enough to train: 4 layer blocks.
        let model = serde_json::from_str(
            r#"{"name": "tiny", "family": "Gpt2", "num_layers": 4, "hidden_size": 64,
                "num_heads": 1, "vocab_size": 1000, "max_seq_len": 64}"#,
        );
        let workload = llm::Workload::new(model.unwrap(), 1, 64);
        let n = workload.model().num_params() as usize;
        let optimizer = Optimizer::adam_default();
        let (initial, grads) = (FlatTensor::randn(n, 0.05, 5), FlatTensor::randn(n, 0.01, 6));
        for devices in [1, 3, 4] {
            for unit in [None, Some(10_000), Some(33_333)] {
                let plan = StepPlan::cut_into(n, devices, unit).unwrap();
                for keep in [None, Some(0.01)] {
                    let mut plat = TimedPlatform::new(&MachineConfig::smart_infinity(devices));
                    let phases = IterPhases {
                        forward: plat.add_phase("fw"),
                        backward: plat.add_phase("bw"),
                        update: plat.add_phase("up"),
                    };
                    let sites = SiteMap::new(plat.num_gpus(), plat.num_devices());
                    let knobs = GraphKnobs::in_storage(keep, plan.unit_elems());
                    let kind = optimizer.kind();
                    let layout =
                        build_iteration_graph(&workload, sites, kind, &knobs, phases).layout;
                    let mut t =
                        PipelinedTrainer::new(&initial, optimizer, devices, plan.unit_elems())
                            .unwrap();
                    if let Some(k) = keep {
                        t = t.with_compression(k).unwrap();
                    }
                    t.train_step_with_grads(&grads).unwrap();
                    let label = format!("{devices} devices, unit {unit:?}, keep {keep:?}");
                    assert_eq!(layout.devices.len(), devices, "{label}");
                    for dev in &layout.devices {
                        let stats = t.lanes[dev.dev].stats();
                        let chains = layout.chains_of(dev).len() as u64;
                        assert_eq!(chains, stats.updates_run, "{label}, device {}", dev.dev);
                        let owned: f64 = (layout.blocks.iter())
                            .flat_map(|block| layout.placement(&block.owned))
                            .filter(|&&(site, _)| site == dev.site)
                            .map(|&(_, bytes)| (bytes / knobs.transfer_ratio()).round())
                            .sum();
                        let dense = 4 * stats.elements_updated;
                        assert_eq!(owned, dense as f64, "{label}, device {}", dev.dev);
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_configuration_is_an_error_not_a_panic() {
        let initial = FlatTensor::zeros(16);
        let optimizer = Optimizer::adam_default();
        let e = PipelinedTrainer::new(&initial, optimizer, 2, 8)
            .unwrap()
            .with_compression(0.0)
            .unwrap_err();
        assert!(matches!(e, TrainError::Config { .. }), "{e}");
        let e = PipelinedTrainer::new(&initial, optimizer, 2, 8)
            .unwrap()
            .with_compression(1.5)
            .unwrap_err();
        assert!(e.to_string().contains("keep ratio"), "{e}");
    }

    #[test]
    fn more_lanes_than_parameters_still_works() {
        // Degenerate split: 7 devices, 3 parameters — four lanes are empty
        // and must neither panic nor contribute telemetry.
        let initial = FlatTensor::randn(3, 0.05, 3);
        let grads = FlatTensor::randn(3, 0.01, 4);
        let optimizer = Optimizer::adam_default();
        let mut wide = PipelinedTrainer::new(&initial, optimizer, 7, 4).unwrap().with_threads(4);
        let mut narrow = PipelinedTrainer::new(&initial, optimizer, 1, 4).unwrap();
        let report = wide.train_step_with_grads(&grads).unwrap();
        narrow.train_step_with_grads(&grads).unwrap();
        assert_eq!(
            wide.master_params().unwrap().as_slice(),
            narrow.master_params().unwrap().as_slice()
        );
        assert_eq!(report.stages.unwrap().lanes, 3, "only non-empty shards count as lanes");
    }

    #[test]
    fn faults_are_recovered_without_changing_results_for_any_thread_count() {
        let n = 3000;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 31);
        let plan = || {
            faultkit::FaultPlan::new({
                let mut s = faultkit::FaultSpec::empty(13);
                s.transient_per_mille = Some(120);
                s.ssd_wearout_step = Some(2);
                s.csd_dropout_step = Some(3);
                s
            })
            .unwrap()
        };
        let run = |threads: usize, faults: bool, keep: Option<f64>| {
            let mut t = PipelinedTrainer::new(&initial, optimizer, 3, 500).unwrap();
            if let Some(k) = keep {
                t = t.with_compression(k).unwrap();
            }
            t = t.with_threads(threads);
            if faults {
                t = t.with_fault_plan(plan());
            }
            let mut degraded_steps = 0;
            for step in 0..4u64 {
                let grads = FlatTensor::randn(n, 0.01, 300 + step);
                let report = t.train_step_with_grads(&grads).unwrap();
                if report.degraded.is_some() {
                    degraded_steps += 1;
                }
            }
            (t.master_params().unwrap(), t.params_fp16().clone(), degraded_steps)
        };
        for keep in [None, Some(0.05)] {
            let (clean_master, clean_fp16, clean_degraded) = run(1, false, keep);
            assert_eq!(clean_degraded, 0);
            let (faulty_master, faulty_fp16, faulty_degraded) = run(1, true, keep);
            assert!(faulty_degraded > 0, "scheduled wear-out and dropout must fire");
            assert_eq!(faulty_master.as_slice(), clean_master.as_slice(), "{keep:?}");
            assert_eq!(faulty_fp16.as_slice(), clean_fp16.as_slice(), "{keep:?}");
            // Fault recovery is deterministic across thread counts too.
            for threads in [2usize, 4] {
                let (master, fp16, degraded) = run(threads, true, keep);
                assert_eq!(master.as_slice(), clean_master.as_slice(), "{keep:?} t={threads}");
                assert_eq!(fp16.as_slice(), clean_fp16.as_slice(), "{keep:?} t={threads}");
                assert_eq!(degraded, faulty_degraded, "{keep:?} t={threads}");
            }
        }
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically_with_residuals() {
        let n = 2400;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 41);
        let grads: Vec<FlatTensor> = (0..6).map(|s| FlatTensor::randn(n, 0.01, 400 + s)).collect();
        let make = |csds: usize| {
            PipelinedTrainer::new(&initial, optimizer, csds, 500)
                .unwrap()
                .with_compression(0.05)
                .unwrap()
                .with_threads(2)
        };

        let mut straight = make(3);
        for g in &grads {
            straight.train_step_with_grads(g).unwrap();
        }

        let mut first = make(3);
        for g in &grads[..3] {
            first.train_step_with_grads(g).unwrap();
        }
        let ckpt = Trainer::checkpoint(&mut first).unwrap();
        assert_eq!(ckpt.step, 3);
        assert!(!ckpt.residual_bits.is_empty(), "compression must checkpoint its residuals");
        let json = ckpt.to_json().unwrap();
        let parsed = TrainerCheckpoint::from_json(&json).unwrap();

        // Resume on the same fleet shape. Top-K selection happens per shard,
        // so under compression the shard boundaries participate in the
        // numbers; only an uncompressed checkpoint is portable across device
        // counts (exercised below).
        let mut resumed = make(3);
        Trainer::restore(&mut resumed, &parsed).unwrap();
        assert_eq!(resumed.steps_completed(), 3);
        for g in &grads[3..] {
            resumed.train_step_with_grads(g).unwrap();
        }
        assert_eq!(
            resumed.master_params().unwrap().as_slice(),
            straight.master_params().unwrap().as_slice()
        );
        assert_eq!(resumed.params_fp16().as_slice(), straight.params_fp16().as_slice());

        // Without compression the checkpoint is a global tensor snapshot and
        // the elementwise optimizer is shard-agnostic, so a resume may change
        // the device count: 3 CSDs checkpointed, 4 CSDs resumed.
        let make_plain =
            |csds: usize| PipelinedTrainer::new(&initial, optimizer, csds, 500).unwrap();
        let mut plain_straight = make_plain(3);
        let mut plain_first = make_plain(3);
        for g in &grads {
            plain_straight.train_step_with_grads(g).unwrap();
        }
        for g in &grads[..3] {
            plain_first.train_step_with_grads(g).unwrap();
        }
        let plain_ckpt = Trainer::checkpoint(&mut plain_first).unwrap();
        assert!(plain_ckpt.residual_bits.is_empty());
        let mut plain_resumed = make_plain(4);
        Trainer::restore(&mut plain_resumed, &plain_ckpt).unwrap();
        for g in &grads[3..] {
            plain_resumed.train_step_with_grads(g).unwrap();
        }
        assert_eq!(
            plain_resumed.master_params().unwrap().as_slice(),
            plain_straight.master_params().unwrap().as_slice()
        );

        // Residual/compression mismatches are rejected.
        let mut uncompressed = PipelinedTrainer::new(&initial, optimizer, 2, 500).unwrap();
        let err = Trainer::restore(&mut uncompressed, &parsed).unwrap_err();
        assert!(err.to_string().contains("residuals"), "{err}");
        let mut no_residuals = parsed.clone();
        no_residuals.residual_bits = Vec::new();
        let err = Trainer::restore(&mut make(2), &no_residuals).unwrap_err();
        assert!(err.to_string().contains("residuals"), "{err}");
    }

    #[test]
    fn residuals_restore_only_into_a_compressed_trainer_of_either_placement() {
        let n = 1200;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 45);
        let mut compressed = PipelinedTrainer::new(&initial, optimizer, 2, 300)
            .unwrap()
            .with_compression(0.1)
            .unwrap();
        compressed.train_step_with_grads(&FlatTensor::randn(n, 0.01, 46)).unwrap();
        let ckpt = Trainer::checkpoint(&mut compressed).unwrap();
        assert!(!ckpt.residual_bits.is_empty());
        let plain = [
            PipelinedTrainer::host_update(&initial, optimizer, 2, 300).unwrap(),
            PipelinedTrainer::new(&initial, optimizer, 2, 300).unwrap(),
        ];
        for mut t in plain {
            let before = t.master_params().unwrap();
            let err = Trainer::restore(&mut t, &ckpt).unwrap_err();
            assert!(matches!(err, TrainError::Config { .. }), "{err}");
            assert!(err.to_string().contains("residuals"), "{err}");
            assert_eq!(t.steps_completed(), 0);
            assert_eq!(t.master_params().unwrap().as_slice(), before.as_slice());
        }
    }

    #[test]
    fn checkpointing_under_an_active_fault_plan_does_not_shift_the_schedule() {
        // Two identical fault-laden runs; one checkpoints mid-run. Because
        // maintenance traffic suspends injection, both must see the same
        // fault schedule and produce identical results.
        let n = 1200;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 51);
        let plan = || {
            faultkit::FaultPlan::new({
                let mut s = faultkit::FaultSpec::empty(17);
                s.transient_per_mille = Some(200);
                s
            })
            .unwrap()
        };
        let run = |checkpoint_after: Option<u64>| {
            let mut t =
                PipelinedTrainer::new(&initial, optimizer, 2, 300).unwrap().with_fault_plan(plan());
            let mut reports = Vec::new();
            for step in 0..4u64 {
                let grads = FlatTensor::randn(n, 0.01, 500 + step);
                reports.push(t.train_step_with_grads(&grads).unwrap());
                if checkpoint_after == Some(step + 1) {
                    Trainer::checkpoint(&mut t).unwrap();
                }
            }
            (t.master_params().unwrap(), reports)
        };
        let (plain_master, plain_reports) = run(None);
        let (ckpt_master, ckpt_reports) = run(Some(2));
        assert_eq!(plain_master.as_slice(), ckpt_master.as_slice());
        // Everything but the wall times must match.
        let bytes_only = |reports: Vec<StepReport>| {
            reports
                .into_iter()
                .map(|r| StepReport { layers: LayerTimes::default(), ..r })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            bytes_only(plain_reports),
            bytes_only(ckpt_reports),
            "fault telemetry must match step for step"
        );
    }

    #[test]
    fn a_restore_rebuilds_a_dead_device_and_resumes_bit_identically() {
        let n = 1500;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 71);
        let grads: Vec<FlatTensor> = (0..4).map(|s| FlatTensor::randn(n, 0.01, 700 + s)).collect();
        let plan = || {
            let mut spec = faultkit::FaultSpec::empty(19);
            spec.transient_per_mille = Some(100);
            faultkit::FaultPlan::new(spec).unwrap()
        };
        let host = || PipelinedTrainer::host_update(&initial, optimizer, 3, 400).unwrap();
        let csds = || PipelinedTrainer::new(&initial, optimizer, 3, 400).unwrap();
        let bits = |t: &FlatTensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for make in [&host as &dyn Fn() -> PipelinedTrainer, &csds] {
            let mut straight = make().with_fault_plan(plan());
            for g in &grads {
                straight.train_step_with_grads(g).unwrap();
            }
            for fault in [ScheduledFault::WearOut, ScheduledFault::Dropout] {
                let mut t = make().with_fault_plan(plan());
                t.train_step_with_grads(&grads[0]).unwrap();
                let ckpt = Trainer::checkpoint(&mut t).unwrap();
                // Device 1 dies between the checkpoint and the restore (a RAID
                // member has no dropout, so that one is a no-op on the host).
                t.fire(1, fault);
                Trainer::restore(&mut t, &ckpt).unwrap_or_else(|e| panic!("{fault:?}: {e}"));
                for g in &grads[1..] {
                    t.train_step_with_grads(g).unwrap();
                }
                let label = format!("{} lanes, {fault:?}", t.lanes.len());
                let (master, expected) = (t.master_params().unwrap(), straight.master_params());
                assert_eq!(bits(&master), bits(&expected.unwrap()), "{label}");
                assert_eq!(bits(t.params_fp16()), bits(straight.params_fp16()), "{label}");
            }
        }
    }

    #[test]
    fn wrong_gradient_length_is_a_config_error() {
        let mut t = PipelinedTrainer::new(&FlatTensor::zeros(10), Optimizer::adam_default(), 1, 10)
            .unwrap();
        let e = t.train_step_with_grads(&FlatTensor::zeros(5)).unwrap_err();
        assert!(matches!(e, TrainError::Config { .. }), "{e}");
        let e = Trainer::step(&mut t, &FlatTensor::zeros(11)).unwrap_err();
        assert!(matches!(e, TrainError::Config { .. }), "{e}");
        let e = t.step_from(&mut SyntheticGradients::new(5, 0.01, 1)).unwrap_err();
        assert!(matches!(e, TrainError::Config { .. }), "{e}");
        assert_eq!(t.steps_completed(), 0, "a rejected gradient must not advance the step");
    }

    #[test]
    fn a_stored_region_of_the_wrong_length_fails_the_step_with_a_typed_error() {
        let n = 1200;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 61);
        let grads = FlatTensor::randn(n, 0.01, 62);
        let bits = |t: &FlatTensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for keep in [None, Some(0.1)] {
            let make = || {
                let t = PipelinedTrainer::new(&initial, optimizer, 3, 150).unwrap();
                match keep {
                    Some(k) => t.with_compression(k).unwrap(),
                    None => t,
                }
            };
            let mut straight = make();
            straight.train_step_with_grads(&grads).unwrap();
            straight.train_step_with_grads(&grads).unwrap();
            let mut t = make();
            Trainer::step(&mut t, &grads).unwrap();
            let before = Trainer::checkpoint(&mut t).unwrap();
            // Device 1 owns 400 parameters; re-initialise its shard one short.
            let shard = initial.slice(400, 400);
            let csd = &mut t.lane::<CsdLane>(1).csd;
            csd.store_initial_state(SHARD, &shard.slice(0, 399), &optimizer).unwrap();
            let err = Trainer::step(&mut t, &grads).unwrap_err();
            assert!(
                matches!(err, TrainError::Device(CsdError::Ssd(ssd::SsdError::OutOfBounds { .. }))),
                "{keep:?}: {err}"
            );
            // With the shard put right and the checkpoint restored, the retried
            // step is the straight run's: master, aux and residual (the
            // checkpoint's bits) and the FP16 copy.
            t.lane::<CsdLane>(1).csd.store_initial_state(SHARD, &shard, &optimizer).unwrap();
            Trainer::restore(&mut t, &before).unwrap();
            Trainer::step(&mut t, &grads).unwrap();
            let (got, want) = (Trainer::checkpoint(&mut t), Trainer::checkpoint(&mut straight));
            assert_eq!(got.unwrap(), want.unwrap(), "{keep:?}");
            assert_eq!(bits(t.params_fp16()), bits(straight.params_fp16()), "{keep:?}");
        }
    }

    #[test]
    fn a_failed_step_rolls_the_count_back_and_is_refused_until_a_restore() {
        let n = 1200;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 61);
        let grads = FlatTensor::randn(n, 0.01, 62);
        let mut t = PipelinedTrainer::new(&initial, optimizer, 3, 150).unwrap();
        Trainer::step(&mut t, &grads).unwrap();
        let before = Trainer::checkpoint(&mut t).unwrap();
        let shard = initial.slice(400, 400);
        let csd = &mut t.lane::<CsdLane>(1).csd;
        csd.store_initial_state(SHARD, &shard.slice(0, 399), &optimizer).unwrap();
        // Lanes 0 and 2 committed the step and lane 1 did not: the count is
        // the one step all of them completed.
        Trainer::step(&mut t, &grads).unwrap_err();
        assert_eq!(t.steps_completed(), 1);
        // Putting the shard right does not make the torn state whole.
        t.lane::<CsdLane>(1).csd.store_initial_state(SHARD, &shard, &optimizer).unwrap();
        let refused = |e: TrainError| assert_eq!(e, TrainError::Poisoned { step: 2 }, "{e}");
        refused(Trainer::step(&mut t, &grads).unwrap_err());
        refused(t.step_from(&mut SyntheticGradients::new(n, 0.01, 1)).unwrap_err());
        refused(t.master_params().unwrap_err());
        refused(Trainer::checkpoint(&mut t).unwrap_err());
        assert_eq!(t.steps_completed(), 1);
        Trainer::restore(&mut t, &before).unwrap();
        Trainer::step(&mut t, &grads).unwrap();
        assert_eq!(t.steps_completed(), 2);
    }

    /// A gradient source that counts the batches it hands out.
    struct CountingSource {
        inner: SyntheticGradients,
        draws: u64,
    }

    impl GradientSource for CountingSource {
        fn num_params(&self) -> usize {
            self.inner.num_params()
        }

        fn gradients(&mut self, step: u64, params_fp16: &FlatTensor) -> FlatTensor {
            self.draws += 1;
            self.inner.gradients(step, params_fp16)
        }
    }

    #[test]
    fn a_refused_step_from_draws_no_batch() {
        let n = 1200;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 63);
        let counting =
            |len| CountingSource { inner: SyntheticGradients::new(len, 0.01, 9), draws: 0 };
        // A source of the wrong size, and a host lane that takes no
        // compressor, are refused before the source is asked.
        let mut t = PipelinedTrainer::new(&initial, optimizer, 3, 150).unwrap();
        let mut wrong = counting(n - 1);
        assert!(matches!(t.step_from(&mut wrong), Err(TrainError::Config { .. })));
        assert_eq!(wrong.draws, 0);
        let mut host = PipelinedTrainer::host_update(&initial, optimizer, 2, 300)
            .unwrap()
            .with_compression(0.1)
            .unwrap();
        let mut source = counting(n);
        assert!(matches!(host.step_from(&mut source), Err(TrainError::Config { .. })));
        assert_eq!(source.draws, 0);
        // A poisoned trainer draws nothing either; the step that failed did.
        t.step_from(&mut source).unwrap();
        let shard = initial.slice(400, 400);
        t.lane::<CsdLane>(1)
            .csd
            .store_initial_state(SHARD, &shard.slice(0, 399), &optimizer)
            .unwrap();
        t.step_from(&mut source).unwrap_err();
        assert_eq!(source.draws, 2);
        let refused = t.step_from(&mut source).unwrap_err();
        assert_eq!(refused, TrainError::Poisoned { step: 2 });
        assert_eq!(source.draws, 2);
    }

    #[test]
    fn a_restore_that_fails_part_way_poisons_until_one_succeeds() {
        let n = 1200;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 64);
        let grads = [FlatTensor::randn(n, 0.01, 65), FlatTensor::randn(n, 0.01, 66)];
        let make = || PipelinedTrainer::new(&initial, optimizer, 3, 150).unwrap();
        let mut straight = make();
        for g in &grads {
            straight.train_step_with_grads(g).unwrap();
        }
        let mut t = make();
        Trainer::step(&mut t, &grads[0]).unwrap();
        let before = Trainer::checkpoint(&mut t).unwrap();
        // Lane 1 moves onto a device with room for exactly its state one
        // element short (master copy and two Adam moments): rewriting the
        // master copy overflows it, which `recover` does not rebuild, after
        // lane 0 was already rewritten.
        let short = initial.slice(400, 399);
        let mut small = CsdDevice::new("csd1", 3 * 4 * 399, u64::MAX / 4);
        small.store_initial_state(SHARD, &short, &optimizer).unwrap();
        let healthy = std::mem::replace(&mut t.lane::<CsdLane>(1).csd, small);
        let err = Trainer::restore(&mut t, &before).unwrap_err();
        assert!(
            matches!(
                err,
                TrainError::Device(CsdError::Ssd(ssd::SsdError::CapacityExceeded { .. }))
            ),
            "{err}"
        );
        let refused = |e: TrainError| assert_eq!(e, TrainError::Poisoned { step: 1 }, "{e}");
        refused(Trainer::step(&mut t, &grads[1]).unwrap_err());
        refused(t.master_params().unwrap_err());
        refused(Trainer::checkpoint(&mut t).unwrap_err());
        // With the lane put right a restore succeeds, and the next step is
        // the straight run's.
        t.lane::<CsdLane>(1).csd = healthy;
        Trainer::restore(&mut t, &before).unwrap();
        Trainer::step(&mut t, &grads[1]).unwrap();
        let (got, want) = (Trainer::checkpoint(&mut t), Trainer::checkpoint(&mut straight));
        assert_eq!(got.unwrap(), want.unwrap());
        let bits = |t: &FlatTensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(t.params_fp16()), bits(straight.params_fp16()));
    }

    #[test]
    fn compression_changes_the_update_but_stays_close() {
        let n = 4000;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 2);
        let mut exact = PipelinedTrainer::new(&initial, optimizer, 2, 1000).unwrap();
        let mut compressed = PipelinedTrainer::new(&initial, optimizer, 2, 1000)
            .unwrap()
            .with_compression(0.1)
            .unwrap();
        assert!(compressed.compressor.is_some());
        let mut source_a = SyntheticGradients::new(n, 0.01, 7);
        let mut source_b = SyntheticGradients::new(n, 0.01, 7);
        let mut last_exact = StepReport::default();
        let mut last_compressed = StepReport::default();
        for _ in 0..5 {
            last_exact = exact.step_from(&mut source_a).unwrap();
            last_compressed = compressed.step_from(&mut source_b).unwrap();
        }
        let a = exact.master_params().unwrap();
        let b = compressed.master_params().unwrap();
        assert_ne!(a.as_slice(), b.as_slice(), "lossy compression must change something");
        // ... but the parameters stay in the same ballpark (error feedback keeps
        // the sparsified trajectory close to the dense one).
        let rel = (a.mse(&b)).sqrt() / (a.l2_norm() as f64 / (n as f64).sqrt());
        assert!(rel < 0.5, "relative deviation {rel:.3}");
        // And the per-step telemetry reflects the compression: the Top-K
        // stream (8 bytes per kept element) is far smaller than the dense
        // gradient, and only the compressed trainer reports a keep count.
        assert_eq!(last_exact.gradient_bytes, 4 * n as u64);
        assert_eq!(last_exact.compression_kept, None);
        let kept = last_compressed.compression_kept.expect("SmartComp reports its keep count");
        assert_eq!(last_compressed.gradient_bytes, 8 * kept);
        assert!(last_compressed.gradient_bytes < last_exact.gradient_bytes / 4);
    }

    #[test]
    fn different_csd_counts_give_identical_results() {
        let n = 3000;
        let optimizer =
            Optimizer::new(optim::OptimizerKind::AdaGrad, optim::HyperParams::default());
        let initial = FlatTensor::randn(n, 0.05, 3);
        let grads = FlatTensor::randn(n, 0.01, 4);
        let mut one = PipelinedTrainer::new(&initial, optimizer, 1, 512).unwrap();
        let mut many = PipelinedTrainer::new(&initial, optimizer, 7, 199).unwrap();
        one.train_step_with_grads(&grads).unwrap();
        many.train_step_with_grads(&grads).unwrap();
        assert_eq!(
            one.master_params().unwrap().as_slice(),
            many.master_params().unwrap().as_slice()
        );
    }
}
