//! The functional baseline: storage-offloaded training that really moves the
//! bytes and really runs the optimizer.
//!
//! Every transfer of the baseline's dataflow (Fig. 1b/1c) is a counted RAID
//! operation, so the per-iteration traffic counters can be checked against
//! the analytic Table I model, and the Smart-Infinity functional engine can
//! be proven numerically equivalent to the baseline (SmartUpdate) and
//! quantifiably close to it (SmartComp). The CPU update itself runs where the
//! RAID members hold the state: each block's transfers are admitted through
//! one [`RaidUpdateTxn`], and the kernel steps the lent windows in place.

use crate::checkpoint::{bits_to_tensor, tensor_to_bits, TrainerCheckpoint};
use crate::recover::recover;
use crate::trainer::{
    check_len, timed, DegradedReport, LayerTimes, StepReport, TrainError, Trainer,
};
use faultkit::FaultPlan;
use optim::Optimizer;
use ssd::{RaidArray, RaidUpdateTxn, SsdDevice, SsdError};
use tensorlib::le_bytes::{self, fill_from_le_bytes, with_le_bytes};
use tensorlib::{f16, Chunker, FlatTensor, Subgroup};

/// Rebuilds whichever RAID member wore out (no-op if none did).
fn rebuild_worn(raid: &mut RaidArray) -> u64 {
    raid.worn_member().map_or(0, |i| raid.rebuild_member(i))
}

/// The RAID array plus the recovery policy every copying storage operation
/// of the trainer (set-up, gradient offload, checkpoint, restore, reading the
/// master copy back) is wrapped in. Tensors cross it as their own memory: a
/// write lends the floats' bytes to the scatter, a read gathers straight
/// into them.
struct Storage<'a> {
    raid: &'a mut RaidArray,
    retries: u32,
    degraded: &'a mut DegradedReport,
}

impl Storage<'_> {
    /// Writes `values` as the whole of `region`. Whole-region writes are
    /// idempotent, so a retry (or a post-rebuild replay) lands on exactly the
    /// same bytes.
    fn write(&mut self, region: &str, values: &[f32]) -> Result<(), SsdError> {
        with_le_bytes(values, |bytes| {
            recover(self.retries, self.degraded, self.raid, rebuild_worn, |raid| {
                raid.write_region(region, bytes)
            })
        })
    }

    /// Reads the whole of `region`, which must hold exactly `out.len()`
    /// floats, into `out`.
    fn read(&mut self, region: &str, out: &mut [f32]) -> Result<(), SsdError> {
        fill_from_le_bytes(out, |bytes| {
            recover(self.retries, self.degraded, self.raid, rebuild_worn, |raid| {
                raid.read_region_into(region, bytes)
            })
        })
    }
}

/// Steps one stripe of a block in place, one tile at a time, and rounds each
/// new master tile into `fp16`, the stripe's elements of the FP16 working
/// copy. `states` is the stripe of the master window, then of each auxiliary
/// window; `grad` is the stripe of the gradient window. `staging` is what
/// `le_bytes` needs for a window it cannot view as floats in place (a
/// big-endian host or a misaligned window), for the gradient and the state.
/// The kernel's and the rounding's wall times are added to `layers`.
fn step_stripe(
    optimizer: &Optimizer,
    step: u64,
    states: &mut [&mut [u8]],
    grad: &[u8],
    fp16: &mut [f32],
    staging: &mut [Vec<f32>; 2],
    layers: &mut LayerTimes,
) {
    const TILE: usize = Optimizer::TILE_ELEMS;
    let [grad_staging, state_staging] = staging;
    for (first, out) in (0..fp16.len()).step_by(TILE).zip(fp16.chunks_mut(TILE)) {
        let bytes = 4 * first..4 * (first + out.len());
        let mut tile: Vec<&mut [u8]> = states.iter_mut().map(|w| &mut w[bytes.clone()]).collect();
        timed(&mut layers.kernel_ns, || {
            le_bytes::with_floats(&grad[bytes], grad_staging, |grad| {
                optimizer.step_le_windows(&mut tile, grad, state_staging, step);
            })
        });
        timed(&mut layers.fp16_ns, || f16::roundtrip_f32_le_bytes_into(tile[0], out));
    }
}

/// The region names of one block, built once at construction.
#[derive(Debug)]
struct BlockRegions {
    master: String,
    grad: String,
    aux: Vec<String>,
}

impl BlockRegions {
    fn new(block: usize, num_aux: usize) -> Self {
        Self {
            master: format!("block{block}/master"),
            grad: format!("block{block}/grad"),
            aux: (0..num_aux).map(|aux| format!("block{block}/aux{aux}")).collect(),
        }
    }
}

/// The elements of `values` that `block` covers.
fn block_of<'a>(values: &'a [f32], block: &Subgroup) -> &'a [f32] {
    &values[block.offset..block.offset + block.len]
}

/// Produces the flat gradient for one training step.
///
/// The functional engines are agnostic to where gradients come from: the
/// equivalence tests use deterministic synthetic gradients, while the
/// accuracy studies plug in a real model's backward pass.
pub trait GradientSource {
    /// Number of parameters the source produces gradients for.
    fn num_params(&self) -> usize;

    /// Computes the gradient for `step` given the current FP16 working copy
    /// of the parameters.
    fn gradients(&mut self, step: u64, params_fp16: &FlatTensor) -> FlatTensor;
}

/// Deterministic, parameter-independent pseudo-random gradients.
///
/// Useful for equivalence testing at realistic sizes: two engines fed the same
/// seed observe exactly the same gradient stream.
#[derive(Debug, Clone)]
pub struct SyntheticGradients {
    num_params: usize,
    std: f32,
    seed: u64,
}

impl SyntheticGradients {
    /// Creates a source of `N(0, std^2)` gradients for `num_params` parameters.
    pub fn new(num_params: usize, std: f32, seed: u64) -> Self {
        Self { num_params, std, seed }
    }
}

impl GradientSource for SyntheticGradients {
    fn num_params(&self) -> usize {
        self.num_params
    }

    fn gradients(&mut self, step: u64, _params_fp16: &FlatTensor) -> FlatTensor {
        FlatTensor::randn(self.num_params, self.std, self.seed.wrapping_add(step))
    }
}

/// The functional ZeRO-Infinity-style trainer: FP16 working copy in host
/// memory, FP32 master copy and optimizer states on a RAID0 array, block-wise
/// CPU updates.
#[derive(Debug)]
pub struct StorageOffloadTrainer {
    raid: RaidArray,
    params_fp16: FlatTensor,
    optimizer: Optimizer,
    chunker: Chunker,
    // One entry per block of `chunker`, in block order.
    regions: Vec<BlockRegions>,
    step: u64,
    fault_plan: Option<FaultPlan>,
}

impl StorageOffloadTrainer {
    /// Creates a trainer: stores the FP32 master copy and zeroed optimizer
    /// states on a fresh RAID0 array of `num_ssds` devices and keeps an FP16
    /// working copy in (simulated) host memory.
    ///
    /// # Errors
    ///
    /// Returns an [`SsdError`] if the devices cannot hold the optimizer state.
    pub fn new(
        initial_params: &FlatTensor,
        optimizer: Optimizer,
        num_ssds: usize,
        block_elems: usize,
    ) -> Result<Self, SsdError> {
        let devices: Vec<SsdDevice> =
            (0..num_ssds.max(1)).map(|i| SsdDevice::new(format!("ssd{i}"), u64::MAX / 4)).collect();
        let mut raid = RaidArray::new(devices, 1 << 20)?;
        let chunker = Chunker::new(initial_params.len(), block_elems.max(1));
        let num_aux = optimizer.kind().num_aux();
        let mut regions = Vec::with_capacity(chunker.num_subgroups());
        let zeros = FlatTensor::zeros(chunker.max_subgroup_len());
        let mut setup = DegradedReport::default();
        let mut storage = Storage { raid: &mut raid, retries: 0, degraded: &mut setup };
        for block in chunker.subgroups() {
            let names = BlockRegions::new(block.index, num_aux);
            storage.write(&names.master, block_of(initial_params.as_slice(), &block))?;
            for aux in &names.aux {
                storage.write(aux, &zeros.as_slice()[..block.len])?;
            }
            regions.push(names);
        }
        // The FP16 working copy is derived from the master copy, exactly as
        // mixed-precision training does.
        let mut params_fp16 = FlatTensor::zeros(initial_params.len());
        initial_params.roundtrip_f16_into(params_fp16.as_mut_slice());
        Ok(Self { raid, params_fp16, optimizer, chunker, regions, step: 0, fault_plan: None })
    }

    /// Installs a fault plan: deterministic per-device injectors on the RAID
    /// members, plus scheduled wear-out. An empty plan is a no-op, so the
    /// fault-free path stays bit-identical.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        if !plan.is_empty() {
            self.raid.install_fault_injectors(&plan);
            self.fault_plan = Some(plan);
        }
        self
    }

    fn max_retries(&self) -> u32 {
        self.fault_plan.as_ref().map_or(0, FaultPlan::max_retries)
    }

    /// Fires scheduled wear-out at the start of the step it is planned for.
    fn trigger_scheduled_faults(&mut self) {
        if let Some(plan) = &self.fault_plan {
            if plan.wearout_step() == Some(self.step) {
                if let Some(dev) = plan.wearout_device(self.raid.num_devices()) {
                    self.raid.inject_wearout(dev);
                }
            }
        }
    }

    /// Number of parameters being trained.
    pub fn num_params(&self) -> usize {
        self.chunker.total()
    }

    /// Number of completed steps.
    pub fn steps_completed(&self) -> u64 {
        self.step
    }

    /// The FP16 working copy of the parameters (what the GPU would compute with).
    pub fn params_fp16(&self) -> &FlatTensor {
        &self.params_fp16
    }

    /// Reads the FP32 master copy back from storage.
    ///
    /// # Errors
    ///
    /// Returns an [`SsdError`] if a block region is missing (which would
    /// indicate a bug in this trainer).
    pub fn master_params(&mut self) -> Result<FlatTensor, SsdError> {
        // Reassembly is maintenance traffic: it observes state rather than
        // training, so it must neither fail on nor consume fault decisions.
        self.raid.suspend_faults(true);
        let result = self.master_params_inner();
        self.raid.suspend_faults(false);
        result
    }

    fn master_params_inner(&mut self) -> Result<FlatTensor, SsdError> {
        let mut out = FlatTensor::zeros(self.chunker.total());
        let mut deg = DegradedReport::default();
        let mut storage = Storage { raid: &mut self.raid, retries: 0, degraded: &mut deg };
        for (block, names) in self.chunker.subgroups().zip(&self.regions) {
            let dst = &mut out.as_mut_slice()[block.offset..block.offset + block.len];
            storage.read(&names.master, dst)?;
        }
        Ok(out)
    }

    /// Runs one training step with an explicitly provided dense gradient and
    /// reports the step's traffic telemetry: offloads the gradients block-wise
    /// to storage, then per block uploads states + gradients, updates them on
    /// the CPU and offloads the refreshed states.
    ///
    /// The gradient offload copies each block once, from `grads` into the
    /// RAID members' region buffers. The update copies nothing: each block's
    /// transfers (read master, auxiliaries and gradient, write master and
    /// auxiliaries) pass their gates through one [`RaidUpdateTxn`], each
    /// under the recovery policy, and the kernel then steps the lent windows
    /// where the members hold them, a cache-sized tile at a time, rounding
    /// each new master tile into the FP16 working copy. A step past the first
    /// allocates only the transactions' small window lists, never a buffer
    /// the size of a block.
    ///
    /// Nothing is torn: a block's gradient region moves only once every RAID
    /// member has passed its offload gate, and the block's state and its part
    /// of the FP16 working copy only once every gate of its update has
    /// passed. A step that fails therefore leaves each region either wholly
    /// rewritten or byte-identical to before.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] if `grads.len()` differs from the
    /// number of parameters, and a wrapped [`SsdError`] if any storage
    /// operation fails (a stored region whose length disagrees with its
    /// block included).
    pub fn train_step_with_grads(&mut self, grads: &FlatTensor) -> Result<StepReport, TrainError> {
        check_len("gradient", grads.len(), self.num_params())?;
        let counters_before = self.raid.counters();
        self.step += 1;
        self.trigger_scheduled_faults();
        let mut deg = DegradedReport::default();
        let mut layers = LayerTimes::default();
        // Every storage operation is wrapped in the recovery policy.
        let retries = self.max_retries();
        let mut storage = Storage { raid: &mut self.raid, retries, degraded: &mut deg };
        // Backward: offload the gradients of each block to storage (Fig. 1b).
        for (block, names) in self.chunker.subgroups().zip(&self.regions) {
            timed(&mut layers.region_write_ns, || {
                storage.write(&names.grad, block_of(grads.as_slice(), &block))
            })?;
        }
        // Update: per block, upload states+gradients, update on the CPU,
        // offload the states and refresh the FP16 working copy (Fig. 1c).
        let (optimizer, step) = (self.optimizer, self.step);
        // Stays empty on a little-endian host, whose stripes and tiles are
        // all aligned.
        let mut staging = [Vec::new(), Vec::new()];
        for (block, names) in self.chunker.subgroups().zip(&self.regions) {
            let mut txn = self.raid.begin_update(4 * block.len);
            let reads = std::iter::once(&names.master).chain(&names.aux).chain([&names.grad]);
            for region in reads {
                timed(&mut layers.region_read_ns, || {
                    recover(retries, &mut deg, &mut txn, RaidUpdateTxn::rebuild_worn, |txn| {
                        txn.admit_read(region)
                    })
                })?;
            }
            for window in 0..=names.aux.len() {
                timed(&mut layers.region_write_ns, || {
                    recover(retries, &mut deg, &mut txn, RaidUpdateTxn::rebuild_worn, |txn| {
                        txn.admit_write(window)
                    })
                })?;
            }
            let fp16 = &mut self.params_fp16.as_mut_slice()[block.offset..block.offset + block.len];
            txn.lend().for_each_stripe(|at, states, grad| {
                let elems = &mut fp16[at / 4..at / 4 + grad[0].len() / 4];
                step_stripe(&optimizer, step, states, grad[0], elems, &mut staging, &mut layers);
            });
        }
        // Transient faults are absorbed per member op inside the RAID (see
        // `RaidArray::install_fault_injectors`); fold the absorbed events into
        // the step's degradation report.
        let (fault_retries, backoff_ms) = self.raid.take_fault_events();
        deg.transient_faults += fault_retries;
        deg.retries += fault_retries;
        deg.backoff_ms += backoff_ms;
        let delta = self.raid.counters().delta_since(&counters_before);
        Ok(StepReport {
            step: self.step,
            // The gradient crosses the shared host interconnect twice on this
            // substrate: offloaded to storage after backward, read back for
            // the CPU update (Table I's G write + G read).
            gradient_bytes: 8 * grads.len() as u64,
            storage_bytes_read: delta.bytes_read,
            storage_bytes_written: delta.bytes_written,
            compression_kept: None,
            threads: 1,
            kernel_path: tensorlib::KernelPath::active(),
            stages: None,
            degraded: deg.into_option(),
            layers,
        })
    }

    /// Total bytes written to storage since creation.
    pub fn storage_bytes_written(&self) -> u64 {
        self.raid.total_bytes_written()
    }

    /// Total bytes read from storage since creation.
    pub fn storage_bytes_read(&self) -> u64 {
        self.raid.total_bytes_read()
    }
}

impl Trainer for StorageOffloadTrainer {
    fn step(&mut self, grads: &FlatTensor) -> Result<StepReport, TrainError> {
        self.train_step_with_grads(grads)
    }

    fn params_fp16(&self) -> &FlatTensor {
        &self.params_fp16
    }

    fn master_params(&mut self) -> Result<FlatTensor, TrainError> {
        Ok(StorageOffloadTrainer::master_params(self)?)
    }

    fn steps_completed(&self) -> u64 {
        self.step
    }

    fn checkpoint(&mut self) -> Result<TrainerCheckpoint, TrainError> {
        let retries = self.max_retries();
        let mut deg = DegradedReport::default();
        let num_aux = self.optimizer.kind().num_aux();
        let n = self.chunker.total();
        let mut master_bits = Vec::with_capacity(n);
        let mut aux_bits = vec![Vec::with_capacity(n); num_aux];
        // Maintenance traffic must not consume fault decisions, or a
        // checkpointed-then-resumed run would see a shifted fault schedule
        // relative to an uninterrupted one.
        self.raid.suspend_faults(true);
        let mut storage = Storage { raid: &mut self.raid, retries, degraded: &mut deg };
        // Blocks are contiguous chunks in order, so concatenating per-block
        // reads yields the global tensors.
        let result: Result<(), SsdError> = (|| {
            let mut block_values = FlatTensor::default();
            for (block, names) in self.chunker.subgroups().zip(&self.regions) {
                block_values.resize(block.len, 0.0);
                storage.read(&names.master, block_values.as_mut_slice())?;
                master_bits.extend(tensor_to_bits(&block_values));
                for (region, bits) in names.aux.iter().zip(&mut aux_bits) {
                    storage.read(region, block_values.as_mut_slice())?;
                    bits.extend(tensor_to_bits(&block_values));
                }
            }
            Ok(())
        })();
        self.raid.suspend_faults(false);
        result?;
        Ok(TrainerCheckpoint {
            step: self.step,
            num_params: n as u64,
            master_bits,
            aux_bits,
            // The baseline neither compresses gradients nor keeps residuals.
            residual_bits: Vec::new(),
        })
    }

    fn restore(&mut self, checkpoint: &TrainerCheckpoint) -> Result<(), TrainError> {
        checkpoint.check_matches(self.num_params(), self.optimizer.kind().num_aux())?;
        let retries = self.max_retries();
        let mut deg = DegradedReport::default();
        let master = bits_to_tensor(&checkpoint.master_bits);
        let aux: Vec<FlatTensor> = checkpoint.aux_bits.iter().map(|b| bits_to_tensor(b)).collect();
        self.raid.suspend_faults(true);
        let mut storage = Storage { raid: &mut self.raid, retries, degraded: &mut deg };
        let result: Result<(), SsdError> = (|| {
            for (block, names) in self.chunker.subgroups().zip(&self.regions) {
                storage.write(&names.master, block_of(master.as_slice(), &block))?;
                for (region, aux) in names.aux.iter().zip(&aux) {
                    storage.write(region, block_of(aux.as_slice(), &block))?;
                }
            }
            Ok(())
        })();
        self.raid.suspend_faults(false);
        result?;
        master.roundtrip_f16_into(self.params_fp16.as_mut_slice());
        self.step = checkpoint.step;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optim::{HyperParams, OptimizerKind};
    use tensorlib::Dtype;

    fn reference_training(
        initial: &FlatTensor,
        optimizer: Optimizer,
        grads_per_step: &[FlatTensor],
    ) -> FlatTensor {
        let mut master = initial.clone();
        let mut aux = optimizer.init_aux(initial.len());
        for (i, grads) in grads_per_step.iter().enumerate() {
            optimizer.step(master.as_mut_slice(), grads, &mut aux, (i + 1) as u64);
        }
        master
    }

    #[test]
    fn offloaded_training_matches_in_memory_training_exactly() {
        let n = 3000;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 100);
        let grads: Vec<FlatTensor> = (0..5).map(|s| FlatTensor::randn(n, 0.01, 200 + s)).collect();

        let reference = reference_training(&initial, optimizer, &grads);

        let mut trainer = StorageOffloadTrainer::new(&initial, optimizer, 3, 700).unwrap();
        for g in &grads {
            trainer.train_step_with_grads(g).unwrap();
        }
        assert_eq!(trainer.master_params().unwrap().as_slice(), reference.as_slice());
        assert_eq!(trainer.steps_completed(), 5);
        assert_eq!(trainer.num_params(), n);
        assert_eq!(trainer.optimizer.kind(), OptimizerKind::Adam);
    }

    #[test]
    fn block_count_does_not_change_the_result() {
        let n = 1024;
        let optimizer = Optimizer::new(
            OptimizerKind::SgdMomentum,
            HyperParams { lr: 0.1, ..Default::default() },
        );
        let initial = FlatTensor::randn(n, 0.05, 7);
        let grads = FlatTensor::randn(n, 0.01, 8);
        let mut small_blocks = StorageOffloadTrainer::new(&initial, optimizer, 2, 64).unwrap();
        let mut one_block = StorageOffloadTrainer::new(&initial, optimizer, 4, n).unwrap();
        small_blocks.train_step_with_grads(&grads).unwrap();
        one_block.train_step_with_grads(&grads).unwrap();
        assert_eq!(
            small_blocks.master_params().unwrap().as_slice(),
            one_block.master_params().unwrap().as_slice()
        );
    }

    #[test]
    fn fp16_working_copy_tracks_the_master_copy() {
        let n = 256;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 3);
        let mut trainer = StorageOffloadTrainer::new(&initial, optimizer, 1, 128).unwrap();
        let mut source = SyntheticGradients::new(n, 0.01, 77);
        trainer.step_from(&mut source).unwrap();
        let master = trainer.master_params().unwrap();
        let expected_fp16 = FlatTensor::from_bytes(&master.to_bytes(Dtype::F16), Dtype::F16);
        assert_eq!(trainer.params_fp16().as_slice(), expected_fp16.as_slice());
    }

    #[test]
    fn traffic_counters_match_the_table_one_accounting() {
        let n = 4096;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::zeros(n);
        let mut trainer = StorageOffloadTrainer::new(&initial, optimizer, 2, 1024).unwrap();
        // Setup wrote master (4n) + 2 aux (8n).
        let setup_written = trainer.storage_bytes_written();
        assert_eq!(setup_written, 12 * n as u64);
        let report = trainer.train_step_with_grads(&FlatTensor::zeros(n)).unwrap();
        // Per step: write grads (4n) + write back states (12n) = 16n  -> "8M" in
        // paper units (M = 2n bytes); read grads + states = 16n.
        assert_eq!(trainer.storage_bytes_written() - setup_written, 16 * n as u64);
        assert_eq!(trainer.storage_bytes_read(), 16 * n as u64);
        // The per-step report carries exactly the same accounting.
        assert_eq!(report.step, 1);
        assert_eq!(report.storage_bytes_written, 16 * n as u64);
        assert_eq!(report.storage_bytes_read, 16 * n as u64);
        assert_eq!(report.gradient_bytes, 8 * n as u64);
        assert_eq!(report.compression_kept, None);
        assert_eq!(report.threads, 1);
    }

    #[test]
    fn injected_faults_are_recovered_and_do_not_change_the_numbers() {
        let n = 1024;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 15);
        let grads: Vec<FlatTensor> = (0..4).map(|s| FlatTensor::randn(n, 0.01, 60 + s)).collect();

        let mut clean = StorageOffloadTrainer::new(&initial, optimizer, 3, 256).unwrap();
        let mut faulty = StorageOffloadTrainer::new(&initial, optimizer, 3, 256)
            .unwrap()
            .with_fault_plan(faultkit::FaultPlan::new({
                let mut s = faultkit::FaultSpec::empty(9);
                s.transient_per_mille = Some(150);
                s.ssd_wearout_step = Some(3);
                s
            }));
        let mut saw_transient = false;
        let mut saw_rebuild = false;
        for (i, g) in grads.iter().enumerate() {
            let clean_report = clean.train_step_with_grads(g).unwrap();
            assert!(clean_report.degraded.is_none());
            let report = faulty.train_step_with_grads(g).unwrap();
            if let Some(d) = report.degraded {
                saw_transient |= d.transient_faults > 0;
                if (i + 1) as u64 == 3 {
                    saw_rebuild |= d.devices_rebuilt > 0;
                }
            }
        }
        assert!(saw_transient, "a 15% fault rate over many ops must fire");
        assert!(saw_rebuild, "the scheduled wear-out at step 3 must trigger a rebuild");
        // Recovery is invisible to the training numbers.
        assert_eq!(
            faulty.master_params().unwrap().as_slice(),
            clean.master_params().unwrap().as_slice()
        );
        assert_eq!(faulty.params_fp16().as_slice(), clean.params_fp16().as_slice());
    }

    #[test]
    fn empty_fault_plan_is_a_no_op() {
        let n = 256;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 16);
        let grads = FlatTensor::randn(n, 0.01, 17);
        let mut plain = StorageOffloadTrainer::new(&initial, optimizer, 2, 64).unwrap();
        let mut with_empty = StorageOffloadTrainer::new(&initial, optimizer, 2, 64)
            .unwrap()
            .with_fault_plan(faultkit::FaultPlan::new(faultkit::FaultSpec::empty(99)));
        let a = plain.train_step_with_grads(&grads).unwrap();
        let b = with_empty.train_step_with_grads(&grads).unwrap();
        // Everything but the wall times must be bit-identical.
        let bytes_only = |r: StepReport| StepReport { layers: LayerTimes::default(), ..r };
        assert_eq!(bytes_only(a), bytes_only(b), "step reports must be bit-identical");
        assert_eq!(
            plain.master_params().unwrap().as_slice(),
            with_empty.master_params().unwrap().as_slice()
        );
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let n = 900;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 21);
        let grads: Vec<FlatTensor> = (0..6).map(|s| FlatTensor::randn(n, 0.01, 80 + s)).collect();

        // Uninterrupted run.
        let mut straight = StorageOffloadTrainer::new(&initial, optimizer, 2, 200).unwrap();
        for g in &grads {
            straight.train_step_with_grads(g).unwrap();
        }

        // Interrupted run: checkpoint after 3 steps, restore into a *fresh*
        // trainer (different device count), continue.
        let mut first = StorageOffloadTrainer::new(&initial, optimizer, 2, 200).unwrap();
        for g in &grads[..3] {
            first.train_step_with_grads(g).unwrap();
        }
        let ckpt = Trainer::checkpoint(&mut first).unwrap();
        let json = ckpt.to_json().unwrap();
        let parsed = crate::TrainerCheckpoint::from_json(&json).unwrap();
        assert_eq!(parsed, ckpt);

        let mut resumed = StorageOffloadTrainer::new(&initial, optimizer, 4, 200).unwrap();
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

        // A mismatched checkpoint is rejected.
        let mut wrong =
            StorageOffloadTrainer::new(&FlatTensor::zeros(10), optimizer, 1, 10).unwrap();
        assert!(Trainer::restore(&mut wrong, &parsed).is_err());
    }

    #[test]
    fn wrong_gradient_length_is_a_config_error() {
        let mut t =
            StorageOffloadTrainer::new(&FlatTensor::zeros(10), Optimizer::adam_default(), 1, 10)
                .unwrap();
        let e = t.train_step_with_grads(&FlatTensor::zeros(5)).unwrap_err();
        assert!(matches!(e, TrainError::Config { .. }), "{e}");
        let e = t.step_from(&mut SyntheticGradients::new(11, 0.01, 1)).unwrap_err();
        assert!(matches!(e, TrainError::Config { .. }), "{e}");
        assert_eq!(t.steps_completed(), 0, "a rejected gradient must not advance the step");
    }

    #[test]
    fn a_stored_region_of_the_wrong_length_fails_the_step_with_a_typed_error() {
        let n = 1000;
        let initial = FlatTensor::randn(n, 0.05, 61);
        let grads = FlatTensor::randn(n, 0.01, 62);
        let mut t =
            StorageOffloadTrainer::new(&initial, Optimizer::adam_default(), 3, 400).unwrap();
        Trainer::step(&mut t, &grads).unwrap();
        // Block 1 is 400 floats, all on member 0 (the stripe is 1 MiB).
        // Overwrite its first moment with a region one float short, then with
        // one that is not even a whole number of floats.
        let good = t.raid.read_region("block1/aux0").unwrap();
        assert_eq!(good.len(), 1600);
        for short in [1596usize, 1599, 0] {
            t.raid.write_region("block1/aux0", &good[..short]).unwrap();
            let err = Trainer::step(&mut t, &grads).unwrap_err();
            assert!(
                matches!(
                    err,
                    TrainError::Storage(SsdError::LengthMismatch { expected: 1600, actual, .. })
                        if actual == short
                ),
                "{err}"
            );
        }
        // With the region put right the same trainer carries on.
        t.raid.write_region("block1/aux0", &good).unwrap();
        Trainer::step(&mut t, &grads).unwrap();
    }

    #[test]
    fn an_unrecoverable_write_moves_nothing_of_the_failing_block() {
        let n = 1000;
        let initial = FlatTensor::randn(n, 0.05, 63);
        let mut t =
            StorageOffloadTrainer::new(&initial, Optimizer::adam_default(), 3, 400).unwrap();
        t.train_step_with_grads(&FlatTensor::randn(n, 0.01, 64)).unwrap();
        let names: Vec<String> = t
            .regions
            .iter()
            .flat_map(|b| std::iter::once(&b.master).chain(&b.aux).chain([&b.grad]).cloned())
            .collect();
        let snapshot = |t: &StorageOffloadTrainer| {
            let mut raid = t.raid.clone();
            names.iter().map(|r| raid.read_region(r).unwrap()).collect::<Vec<_>>()
        };
        let (regions, fp16) = (snapshot(&t), t.params_fp16().clone());
        // Without a fault plan nothing retries, so nothing rebuilds member 1.
        // Its gate refuses the first write (block 0's gradient), after member
        // 0's passed.
        t.raid.inject_wearout(1);
        let err = t.train_step_with_grads(&FlatTensor::randn(n, 0.01, 65)).unwrap_err();
        assert!(matches!(err, TrainError::Storage(SsdError::WornOut { .. })), "{err}");
        assert!(snapshot(&t) == regions, "a region moved");
        assert_eq!(t.params_fp16().as_slice(), fp16.as_slice());
    }

    #[test]
    fn synthetic_gradients_are_deterministic_per_step() {
        let mut a = SyntheticGradients::new(100, 1.0, 5);
        let mut b = SyntheticGradients::new(100, 1.0, 5);
        let params = FlatTensor::zeros(100);
        assert_eq!(a.gradients(1, &params), b.gradients(1, &params));
        assert_ne!(a.gradients(1, &params), a.gradients(2, &params));
        assert_eq!(a.num_params(), 100);
    }
}
