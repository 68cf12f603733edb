//! The near-storage functional trainer.
//!
//! Every CSD runs SmartUpdate on its own contiguous shard with no
//! cross-device dependency (paper Section IV-D), so one per-shard step serves
//! every near-storage method: [`PipelinedTrainer`] turns each device shard
//! into a *lane* — write (gradient ingest) → compress/update → read-back —
//! and deals the lanes to a [`parcore::ParExecutor`]. With one worker the
//! lanes run one after another; with more they overlap, so the shared host
//! interconnect stops being a step-granularity bottleneck (Sections
//! IV-B/IV-D). Which of the two a run gets is a property of the executor,
//! not of the trainer.
//!
//! Two properties are load-bearing and asserted by the test suites:
//!
//! * **Bit-identical results.** Every lane does the same per-shard work
//!   (error feedback, Top-K selection, updater kernels) on disjoint state —
//!   its own [`CsdDevice`], its own residual, its own slice of the FP16
//!   working copy. Scheduling therefore cannot change a single bit of the
//!   result, for any worker-thread or device count: without compression the
//!   result equals the host baseline's, with it an in-memory reference's.
//! * **Per-stage telemetry.** Each step's [`StepReport`] carries a
//!   [`StageReport`]: how many bytes the write, update and read-back stages
//!   moved and how many lanes were in flight, mirroring the stage-level link
//!   accounting of the timed engine — and a
//!   [`LayerTimes`](crate::LayerTimes) table of where the lanes' wall time
//!   went.
//!
//! Construction and stepping are fallible ([`TrainError::Config`]) rather
//! than asserting: this trainer is reached from user-facing configuration
//! (`smart_infinity::Session`), where a bad knob or a wrong-length gradient
//! must be an error, not an abort.

use crate::checkpoint::{bits_to_tensor, tensor_to_bits, TrainerCheckpoint};
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
use tensorlib::{Chunker, FlatTensor, Partitioner, Shard};

/// The distributed starting state of a near-storage run: the flattened
/// parameters contiguously sharded across fresh CSD models, with the FP32
/// master copy and zeroed optimizer state stored on each device, plus one
/// error-feedback residual per shard.
///
/// Public so a replay of the per-lane step outside this crate starts from
/// byte-identical device state.
pub fn init_csd_shards(
    initial_params: &FlatTensor,
    optimizer: &Optimizer,
    num_csds: usize,
) -> Result<(Partitioner, Vec<CsdDevice>, Vec<ErrorFeedback>), CsdError> {
    let partitioner = Partitioner::contiguous(initial_params.len(), num_csds);
    let mut csds = Vec::with_capacity(num_csds);
    for shard in partitioner.shards() {
        let mut csd = CsdDevice::new(format!("csd{}", shard.device), u64::MAX / 4, u64::MAX / 4);
        let shard_params = initial_params.slice(shard.offset, shard.len);
        csd.store_initial_state("shard", &shard_params, optimizer)?;
        csds.push(csd);
    }
    let feedback = partitioner.shards().iter().map(|s| ErrorFeedback::new(s.len)).collect();
    Ok((partitioner, csds, feedback))
}

/// Everything one pipeline lane may touch: disjoint per-device state, so the
/// lanes can run concurrently without synchronisation.
struct Lane<'a> {
    shard: Shard,
    csd: &'a mut CsdDevice,
    feedback: &'a mut ErrorFeedback,
    compress: &'a mut CompressLane,
    fp16_out: &'a mut [f32],
}

/// Byte accounting of one lane's trip through the three stages.
#[derive(Debug, Clone, Copy, Default)]
struct LaneReport {
    write_bytes: u64,
    kept: u64,
    update_read_bytes: u64,
    update_write_bytes: u64,
    read_back_bytes: u64,
    degraded: DegradedReport,
    layers: LayerTimes,
}

/// The functional Smart-Infinity trainer: the flattened parameters
/// contiguously sharded across CSD models, FP32 master copies and optimizer
/// states on each device, and each step executed as one lane per shard.
/// Results are **bit-identical** for every worker-thread count; only
/// wall-clock time and the lane count in `StepReport::stages` differ.
#[derive(Debug)]
pub struct PipelinedTrainer {
    csds: Vec<CsdDevice>,
    partitioner: Partitioner,
    optimizer: Optimizer,
    params_fp16: FlatTensor,
    compressor: Option<Compressor>,
    feedback: Vec<ErrorFeedback>,
    // One selection state + Top-K stream per lane, refilled every step
    // (SmartComp only: a dense gradient goes to its device unstaged).
    compress: Vec<CompressLane>,
    subgroup_elems: usize,
    pool: ParExecutor,
    step: u64,
    fault_plan: Option<FaultPlan>,
}

impl PipelinedTrainer {
    /// Creates a pipelined trainer: partitions the parameters across
    /// `num_csds` CSDs and initialises the FP32 master copy and optimizer
    /// states on each device.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] for a zero device count or zero
    /// subgroup capacity, and a wrapped [`CsdError`] if a device cannot hold
    /// its shard.
    pub fn new(
        initial_params: &FlatTensor,
        optimizer: Optimizer,
        num_csds: usize,
        subgroup_elems: usize,
    ) -> Result<Self, TrainError> {
        if num_csds == 0 {
            return Err(TrainError::config("at least one CSD is required"));
        }
        if subgroup_elems == 0 {
            return Err(TrainError::config("subgroup capacity must be positive"));
        }
        let (partitioner, csds, feedback) =
            init_csd_shards(initial_params, &optimizer, num_csds).map_err(TrainError::from)?;
        let mut params_fp16 = FlatTensor::zeros(initial_params.len());
        initial_params.roundtrip_f16_into(params_fp16.as_mut_slice());
        Ok(Self {
            csds,
            partitioner,
            optimizer,
            params_fp16,
            compressor: None,
            feedback,
            compress: vec![CompressLane::default(); num_csds],
            subgroup_elems,
            pool: ParExecutor::serial(),
            step: 0,
            fault_plan: None,
        })
    }

    /// Installs a fault plan: deterministic per-device injectors and a
    /// device-internal retry budget on every CSD, plus scheduled wear-out /
    /// dropout. An empty plan is a no-op, so the fault-free path stays
    /// bit-identical.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        if !plan.is_empty() {
            for (i, csd) in self.csds.iter_mut().enumerate() {
                csd.set_fault_injector(plan.injector(i as u64));
                csd.set_retry_budget(plan.max_retries());
            }
            self.fault_plan = Some(plan);
        }
        self
    }

    fn max_retries(&self) -> u32 {
        self.fault_plan.as_ref().map_or(0, FaultPlan::max_retries)
    }

    /// Fires scheduled wear-out / dropout at the start of their planned step.
    fn trigger_scheduled_faults(&mut self) {
        if let Some(plan) = &self.fault_plan {
            if plan.wearout_step() == Some(self.step) {
                if let Some(d) = plan.wearout_device(self.csds.len()) {
                    self.csds[d].inject_ssd_wearout();
                }
            }
            if plan.dropout_step() == Some(self.step) {
                if let Some(d) = plan.dropout_device(self.csds.len()) {
                    self.csds[d].inject_dropout();
                }
            }
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
    /// are identical in every mode regardless).
    pub fn with_executor(mut self, pool: ParExecutor) -> Self {
        self.pool = pool;
        let lane_workers = (pool.num_threads() / self.csds.len()).max(1);
        for csd in &mut self.csds {
            csd.set_threads(lane_workers);
        }
        self
    }

    /// The host worker-thread count of the execution backend.
    pub fn num_threads(&self) -> usize {
        self.pool.num_threads()
    }

    /// Number of parameters being trained.
    pub fn num_params(&self) -> usize {
        self.partitioner.total()
    }

    /// Number of CSDs (pipeline lanes).
    pub fn num_csds(&self) -> usize {
        self.csds.len()
    }

    /// Number of completed steps.
    pub fn steps_completed(&self) -> u64 {
        self.step
    }

    /// The FP16 working copy of the parameters.
    pub fn params_fp16(&self) -> &FlatTensor {
        &self.params_fp16
    }

    /// Whether SmartComp is enabled.
    pub fn is_compressed(&self) -> bool {
        self.compressor.is_some()
    }

    /// Reassembles the FP32 master copy from all CSDs.
    ///
    /// # Errors
    ///
    /// Returns a wrapped [`CsdError`] if a shard read fails.
    pub fn master_params(&mut self) -> Result<FlatTensor, TrainError> {
        let mut out = FlatTensor::zeros(self.partitioner.total());
        for (csd, shard) in self.csds.iter_mut().zip(self.partitioner.shards()) {
            if shard.len == 0 {
                continue;
            }
            // Reassembly is maintenance traffic: it observes state rather than
            // training, so it must neither fail on nor consume fault decisions.
            let dst = &mut out.as_mut_slice()[shard.offset..shard.offset + shard.len];
            csd.suspend_faults(true);
            let result = csd.load_parameters_into("shard", 0, dst);
            csd.suspend_faults(false);
            result?;
        }
        Ok(out)
    }

    /// Aggregated CSD-internal P2P traffic statistics across all devices.
    pub fn aggregate_stats(&self) -> CsdTrafficStats {
        let mut total = CsdTrafficStats::default();
        for csd in &self.csds {
            let s = csd.stats();
            total.p2p_read_bytes += s.p2p_read_bytes;
            total.p2p_write_bytes += s.p2p_write_bytes;
            total.updates_run += s.updates_run;
            total.elements_updated += s.elements_updated;
        }
        total
    }

    /// Runs one training step with an explicitly provided dense gradient.
    /// The lanes are dealt to the worker pool; the returned [`StepReport`]
    /// carries the per-stage byte telemetry in [`StepReport::stages`].
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] if `grads.len()` differs from the
    /// number of parameters, and the lowest-indexed lane's error if any
    /// device operation fails (deterministic regardless of scheduling).
    pub fn train_step_with_grads(&mut self, grads: &FlatTensor) -> Result<StepReport, TrainError> {
        check_len("gradient", grads.len(), self.num_params())?;
        self.step += 1;
        self.trigger_scheduled_faults();
        let step = self.step;
        let optimizer = self.optimizer;
        let subgroup_elems = self.subgroup_elems;
        let compressor = self.compressor;
        let max_retries = self.max_retries();

        // Carve the step into lanes: shard i owns csds[i], feedback[i],
        // compress[i] and its contiguous slice of the FP16 working copy.
        let shards = self.partitioner.shards().to_vec();
        let mut lanes = Vec::with_capacity(shards.len());
        let mut fp16_rest = self.params_fp16.as_mut_slice();
        let mut csds = self.csds.iter_mut();
        let mut feedback = self.feedback.iter_mut();
        let mut compress = self.compress.iter_mut();
        for shard in shards {
            let (fp16_out, rest) = fp16_rest.split_at_mut(shard.len);
            fp16_rest = rest;
            lanes.push(Lane {
                shard,
                csd: csds.next().expect("one CSD per shard"),
                feedback: feedback.next().expect("one residual per shard"),
                compress: compress.next().expect("one compress lane per shard"),
                fp16_out,
            });
        }
        let active_lanes = lanes.iter().filter(|l| l.shard.len > 0).count();

        // Cost-weighted dispatch: a lane's work is proportional to its shard
        // size, so heavier shards are scheduled first (and stealable) rather
        // than letting one skewed shard serialize the step.
        let weights: Vec<usize> = lanes.iter().map(|l| l.shard.len).collect();
        let region = Instant::now();
        let results = self.pool.map_weighted(lanes, &weights, |_, lane| {
            let start = Instant::now();
            let report = Self::run_lane(
                lane,
                grads,
                compressor,
                optimizer,
                subgroup_elems,
                step,
                max_retries,
            );
            (start, Instant::now(), report)
        });
        let region = (region, Instant::now());

        let mut stages = StageReport {
            lanes: self.pool.num_threads().min(active_lanes).max(1),
            ..StageReport::default()
        };
        let mut kept = 0u64;
        let mut storage_bytes_read = 0u64;
        let mut storage_bytes_written = 0u64;
        let mut degraded = DegradedReport::default();
        let mut layers = LayerTimes::default();
        let mut busy = Vec::with_capacity(results.len());
        for (start, end, result) in results {
            busy.push((start, end));
            let lane = result.map_err(TrainError::from)?;
            stages.write_bytes += lane.write_bytes;
            stages.update_bytes += lane.update_read_bytes + lane.update_write_bytes;
            stages.read_back_bytes += lane.read_back_bytes;
            storage_bytes_read += lane.update_read_bytes;
            storage_bytes_written += lane.update_write_bytes;
            kept += lane.kept;
            degraded.absorb(&lane.degraded);
            layers.absorb(&lane.layers);
        }
        layers.dispatch_ns = idle_ns(region, &mut busy);
        Ok(StepReport {
            step,
            gradient_bytes: stages.write_bytes,
            storage_bytes_read,
            storage_bytes_written,
            compression_kept: compressor.map(|_| kept),
            threads: self.pool.num_threads(),
            kernel_path: tensorlib::KernelPath::active(),
            stages: Some(stages),
            degraded: degraded.into_option(),
            layers,
        })
    }

    /// One lane's trip through the pipeline: write → compress/update →
    /// read-back, entirely on this lane's own device state.
    fn run_lane(
        lane: Lane<'_>,
        grads: &FlatTensor,
        compressor: Option<Compressor>,
        optimizer: Optimizer,
        subgroup_elems: usize,
        step: u64,
        max_retries: u32,
    ) -> Result<LaneReport, CsdError> {
        let Lane { shard, csd, feedback, compress, fp16_out } = lane;
        if shard.len == 0 {
            return Ok(LaneReport::default());
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
        let shard_grads = &grads.as_slice()[shard.offset..shard.offset + shard.len];
        let compressed = match &compressor {
            None => None,
            Some(c) => {
                let pool = csd.executor();
                timed(&mut layers.topk_feedback_ns, || {
                    feedback.compress_into(shard_grads, c, &pool, compress)
                })?;
                Some(compress.stream())
            }
        };
        let (write_bytes, kept) = match compressed {
            None => (4 * shard.len as u64, 0),
            Some(c) => (c.compressed_bytes() as u64, c.num_selected() as u64),
        };
        if compressed.is_none() {
            // Whole-region gradient writes are idempotent, so the recovery
            // wrapper may retry them freely.
            timed(&mut layers.region_write_ns, || {
                recover(max_retries, &mut deg, csd, CsdDevice::rebuild, |csd| {
                    csd.store_gradients("shard", shard_grads)
                })
            })?;
        }

        // Stage 2 — update: subgroup-by-subgroup near-storage optimizer step
        // over CSD-internal P2P. Transient faults are cleared *inside* the
        // device, gate by gate, and an update moves no state until every gate
        // has passed — so whatever error reaches the wrapper here (a dead
        // device, an exhausted budget) left the subgroup un-updated, and
        // repeating the whole operation steps it exactly once.
        for subgroup in Chunker::new(shard.len, subgroup_elems).subgroups() {
            recover(max_retries, &mut deg, csd, CsdDevice::rebuild, |csd| {
                csd.update_subgroup(SubgroupUpdate {
                    shard: "shard",
                    offset: subgroup.offset,
                    len: subgroup.len,
                    optimizer,
                    step,
                    compressed,
                })
            })?;
        }

        // Stage 3 — read-back: the refreshed FP16 working copy returns to
        // host memory, rounded straight from the device's region bytes into
        // this lane's output slice.
        timed(&mut layers.fp16_ns, || {
            recover(max_retries, &mut deg, csd, CsdDevice::rebuild, |csd| {
                csd.load_parameters_fp16_into("shard", 0, fp16_out)
            })
        })?;

        // Fold the device-internal transient retries and the update's layer
        // times into the lane's report.
        let (retries, backoff_ms) = csd.take_fault_events();
        deg.transient_faults += retries;
        deg.retries += retries;
        deg.backoff_ms += backoff_ms;
        let update = csd.take_update_times();
        layers.region_read_ns += update.read_gates_ns;
        layers.region_write_ns += update.write_gates_ns;
        layers.decompress_ns += update.decompress_ns;
        layers.kernel_ns += update.kernel_ns;

        let after = csd.stats();
        Ok(LaneReport {
            write_bytes,
            kept,
            update_read_bytes: after.p2p_read_bytes - before.p2p_read_bytes,
            update_write_bytes: after.p2p_write_bytes - before.p2p_write_bytes,
            read_back_bytes: 2 * shard.len as u64,
            degraded: deg,
            layers,
        })
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

    fn params_fp16(&self) -> &FlatTensor {
        &self.params_fp16
    }

    fn master_params(&mut self) -> Result<FlatTensor, TrainError> {
        PipelinedTrainer::master_params(self)
    }

    fn steps_completed(&self) -> u64 {
        self.step
    }

    fn checkpoint(&mut self) -> Result<TrainerCheckpoint, TrainError> {
        let retries = self.max_retries();
        let num_aux = self.optimizer.kind().num_aux();
        let n = self.num_params();
        let mut master_bits = Vec::with_capacity(n);
        let mut aux_bits = vec![Vec::with_capacity(n); num_aux];
        let mut deg = DegradedReport::default();
        for (csd, shard) in self.csds.iter_mut().zip(self.partitioner.shards()) {
            if shard.len == 0 {
                continue;
            }
            // Checkpoint reads are maintenance traffic: injection is
            // suspended so they cannot perturb the deterministic fault
            // stream of the training ops. Dead devices are still rebuilt.
            csd.suspend_faults(true);
            let result = (|| -> Result<(), TrainError> {
                let t = recover(retries, &mut deg, csd, CsdDevice::rebuild, |csd| {
                    csd.load_parameters("shard", 0, shard.len)
                })?;
                master_bits.extend(tensor_to_bits(&t));
                for (a, bits) in aux_bits.iter_mut().enumerate() {
                    let t = recover(retries, &mut deg, csd, CsdDevice::rebuild, |csd| {
                        csd.load_optimizer_state("shard", a, 0, shard.len)
                    })?;
                    bits.extend(tensor_to_bits(&t));
                }
                Ok(())
            })();
            csd.suspend_faults(false);
            result?;
        }
        let residual_bits = if self.compressor.is_some() {
            let mut bits = Vec::with_capacity(n);
            for feedback in &self.feedback {
                bits.extend(tensor_to_bits(feedback.residual()));
            }
            bits
        } else {
            Vec::new()
        };
        Ok(TrainerCheckpoint {
            step: self.step,
            num_params: n as u64,
            master_bits,
            aux_bits,
            residual_bits,
        })
    }

    fn restore(&mut self, checkpoint: &TrainerCheckpoint) -> Result<(), TrainError> {
        checkpoint.check_matches(self.num_params(), self.optimizer.kind().num_aux())?;
        if self.compressor.is_some() == checkpoint.residual_bits.is_empty() {
            return Err(TrainError::config(if self.compressor.is_some() {
                "checkpoint has no error-feedback residuals but compression is enabled"
            } else {
                "checkpoint carries error-feedback residuals but compression is disabled"
            }));
        }
        let master = bits_to_tensor(&checkpoint.master_bits);
        let optimizer = self.optimizer;
        for (csd, shard) in self.csds.iter_mut().zip(self.partitioner.shards()) {
            if shard.len == 0 {
                continue;
            }
            csd.suspend_faults(true);
            let result = (|| -> Result<(), TrainError> {
                let shard_params = master.slice(shard.offset, shard.len);
                csd.store_initial_state("shard", &shard_params, &optimizer)?;
                for (a, bits) in checkpoint.aux_bits.iter().enumerate() {
                    let aux = bits_to_tensor(&bits[shard.offset..shard.offset + shard.len]);
                    csd.store_optimizer_state("shard", a, &aux)?;
                }
                Ok(())
            })();
            csd.suspend_faults(false);
            result?;
            if !checkpoint.residual_bits.is_empty() {
                let residual = bits_to_tensor(
                    &checkpoint.residual_bits[shard.offset..shard.offset + shard.len],
                );
                self.feedback[shard.device].restore_residual(&residual);
            }
        }
        master.roundtrip_f16_into(self.params_fp16.as_mut_slice());
        self.step = checkpoint.step;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::{StorageOffloadTrainer, SyntheticGradients};

    #[test]
    fn pipelined_is_bit_identical_to_the_host_baseline() {
        // Without compression the near-storage update is numerically the
        // baseline update, so the near-storage trainer must match it bit for bit.
        let n = 5000;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 1);
        let mut baseline = StorageOffloadTrainer::new(&initial, optimizer, 2, 1024).unwrap();
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
        assert_eq!(pipelined.num_csds(), 3);
        assert_eq!(pipelined.num_params(), n);
        assert!(!pipelined.is_compressed());
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
            assert_eq!(t.num_threads(), threads.max(1));
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
    fn invalid_configuration_is_an_error_not_a_panic() {
        let initial = FlatTensor::zeros(16);
        let optimizer = Optimizer::adam_default();
        let e = PipelinedTrainer::new(&initial, optimizer, 0, 8).unwrap_err();
        assert!(matches!(e, TrainError::Config { .. }), "{e}");
        let e = PipelinedTrainer::new(&initial, optimizer, 2, 0).unwrap_err();
        assert!(matches!(e, TrainError::Config { .. }), "{e}");
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
        for keep in [None, Some(0.1)] {
            let mut t = PipelinedTrainer::new(&initial, optimizer, 3, 150).unwrap();
            if let Some(k) = keep {
                t = t.with_compression(k).unwrap();
            }
            Trainer::step(&mut t, &grads).unwrap();
            // Device 1 owns 400 parameters; re-initialise its shard one short.
            let shard = initial.slice(400, 400);
            t.csds[1].store_initial_state("shard", &shard.slice(0, 399), &optimizer).unwrap();
            let err = Trainer::step(&mut t, &grads).unwrap_err();
            assert!(
                matches!(err, TrainError::Device(CsdError::Ssd(ssd::SsdError::OutOfBounds { .. }))),
                "{keep:?}: {err}"
            );
            // With the shard put right the same trainer carries on.
            t.csds[1].store_initial_state("shard", &shard, &optimizer).unwrap();
            Trainer::step(&mut t, &grads).unwrap();
        }
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
        assert!(compressed.is_compressed());
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
