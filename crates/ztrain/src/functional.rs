//! The host lane of the functional trainer: storage-offloaded training that
//! really moves the bytes and really runs the optimizer, with the update on
//! the host CPU over a RAID0 array (the ZeRO-Infinity baseline), plus the
//! gradient sources every trainer steps from.
//!
//! [`RaidLane`] is one lane (`crate::lane::Lane`) over all the array's
//! members; [`PipelinedTrainer::host_update`](crate::PipelinedTrainer::host_update)
//! is the trainer with this one lane. Every transfer of the baseline's
//! dataflow (Fig. 1b/1c) is a counted RAID operation, so the per-iteration
//! traffic counters can be checked against the analytic Table I model, and
//! the in-storage lanes can be proven numerically equivalent to this one
//! (SmartUpdate) and quantifiably close to it (SmartComp). The CPU update
//! itself runs where the RAID members hold the state: each block's transfers
//! are admitted through one [`RaidUpdateTxn`], and the kernel steps the lent
//! windows in place, serially on the calling thread.

use crate::lane::{Lane, LaneReport, ScheduledFault, StepArgs};
use crate::recover::recover;
use crate::trainer::{timed, DegradedReport, LayerTimes, TrainError};
use faultkit::FaultPlan;
use gradcomp::Compressor;
use optim::Optimizer;
use ssd::{RaidArray, RaidUpdateTxn, SsdDevice};
use tensorlib::le_bytes::{self, fill_from_le_bytes, with_le_bytes};
use tensorlib::{f16, Chunker, FlatTensor, Subgroup};

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
    fn write(&mut self, region: &str, values: &[f32]) -> Result<(), TrainError> {
        with_le_bytes(values, |bytes| {
            recover(self.retries, self.degraded, self.raid, RaidArray::rebuild_worn, |raid| {
                raid.write_region(region, bytes)
            })
        })
    }

    /// Reads the whole of `region`, which must hold exactly `out.len()`
    /// floats, into `out`.
    fn read(&mut self, region: &str, out: &mut [f32]) -> Result<(), TrainError> {
        fill_from_le_bytes(out, |bytes| {
            recover(self.retries, self.degraded, self.raid, RaidArray::rebuild_worn, |raid| {
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

/// The host's one lane: the FP32 master copy, the optimizer states and the
/// gradient of every block on a RAID0 array, updated block by block on the
/// host CPU. It keeps no residual: the host runs no compressor.
#[derive(Debug)]
pub(crate) struct RaidLane {
    raid: RaidArray,
    // The blocks: the units of a one-lane `StepPlan`.
    units: Chunker,
    // One entry per block, in block order.
    regions: Vec<BlockRegions>,
}

/// The RAID0 stripe unit, in bytes.
const STRIPE_BYTES: usize = 1 << 20;

impl RaidLane {
    /// Stores the FP32 master copy and zeroed optimizer states, in the
    /// blocks `units` cuts, on a fresh RAID0 array of `num_ssds` devices.
    pub(crate) fn new(
        initial_params: &FlatTensor,
        optimizer: &Optimizer,
        num_ssds: usize,
        units: Chunker,
    ) -> Result<Self, TrainError> {
        let devices: Vec<SsdDevice> =
            (0..num_ssds).map(|i| SsdDevice::new(format!("ssd{i}"), u64::MAX / 4)).collect();
        let mut raid = RaidArray::new(devices, STRIPE_BYTES)?;
        let num_aux = optimizer.kind().num_aux();
        let mut regions = Vec::with_capacity(units.num_subgroups());
        let zeros = FlatTensor::zeros(units.max_subgroup_len());
        let mut setup = DegradedReport::default();
        let mut storage = Storage { raid: &mut raid, retries: 0, degraded: &mut setup };
        for block in units.subgroups() {
            let names = BlockRegions::new(block.index, num_aux);
            storage.write(&names.master, block_of(initial_params.as_slice(), &block))?;
            for aux in &names.aux {
                storage.write(aux, &zeros.as_slice()[..block.len])?;
            }
            regions.push(names);
        }
        Ok(Self { raid, units, regions })
    }
}

impl Lane for RaidLane {
    fn num_devices(&self) -> usize {
        self.raid.num_devices()
    }

    fn install_faults(&mut self, plan: &FaultPlan, first: u64) {
        self.raid.install_faults(plan, first);
    }

    fn fire(&mut self, device: usize, fault: ScheduledFault) {
        match fault {
            ScheduledFault::WearOut => self.raid.inject_wearout(device),
            // Dropout models a CSD's controller hanging or being removed; a
            // RAID member has no such failure in the model, only its media
            // wearing out.
            ScheduledFault::Dropout => {}
        }
    }

    fn admit(&self, compressor: Option<Compressor>) -> Result<(), TrainError> {
        match compressor {
            None => Ok(()),
            Some(_) => Err(TrainError::config(
                "gradient compression runs in the CSDs: enable in_storage_update",
            )),
        }
    }

    /// One step: offloads the gradients block-wise to storage, then per
    /// block uploads states + gradients, updates them on the CPU, offloads
    /// the refreshed states and refreshes `fp16`, the FP16 working copy.
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
    /// member has passed its offload gate, and the block's state and its
    /// part of the FP16 working copy only once every gate of its update has
    /// passed. A step that fails therefore leaves each region either wholly
    /// rewritten or byte-identical to before. A stored region whose length
    /// disagrees with its block fails the step.
    fn step(
        &mut self,
        args: &StepArgs,
        grads: &[f32],
        fp16: &mut [f32],
    ) -> Result<LaneReport, TrainError> {
        let StepArgs { optimizer, step, retries, .. } = *args;
        let counters_before = self.raid.counters();
        let mut deg = DegradedReport::default();
        let mut layers = LayerTimes::default();
        // Every storage operation is wrapped in the recovery policy.
        let mut storage = Storage { raid: &mut self.raid, retries, degraded: &mut deg };
        // Backward: offload the gradients of each block to storage (Fig. 1b).
        for (block, names) in self.units.subgroups().zip(&self.regions) {
            timed(&mut layers.region_write_ns, || {
                storage.write(&names.grad, block_of(grads, &block))
            })?;
        }
        // Update: per block, upload states+gradients, update on the CPU,
        // offload the states and refresh the FP16 working copy (Fig. 1c).
        // Stays empty on a little-endian host, whose stripes and tiles are
        // all aligned.
        let mut staging = [Vec::new(), Vec::new()];
        for (block, names) in self.units.subgroups().zip(&self.regions) {
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
            let fp16 = &mut fp16[block.offset..block.offset + block.len];
            txn.lend().for_each_stripe(|at, states, grad| {
                let elems = &mut fp16[at / 4..at / 4 + grad[0].len() / 4];
                step_stripe(&optimizer, step, states, grad[0], elems, &mut staging, &mut layers);
            });
        }
        let delta = self.raid.counters().delta_since(&counters_before);
        Ok(LaneReport {
            // The gradient crosses the shared host interconnect twice on this
            // placement: offloaded to storage after backward, read back for
            // the CPU update (Table I's G write + G read).
            gradient_bytes: 8 * grads.len() as u64,
            storage_read_bytes: delta.bytes_read,
            storage_write_bytes: delta.bytes_written,
            degraded: deg,
            layers,
            ..LaneReport::default()
        })
    }

    fn transfer_state(
        &mut self,
        retries: u32,
        write: bool,
        state: &mut [&mut [f32]],
        _residual: Option<&mut [f32]>,
    ) -> Result<(), TrainError> {
        self.raid.suspend_faults(true);
        let mut deg = DegradedReport::default();
        let mut storage = Storage { raid: &mut self.raid, retries, degraded: &mut deg };
        let result = self.units.subgroups().zip(&self.regions).try_for_each(|(block, names)| {
            let range = block.offset..block.offset + block.len;
            let regions = std::iter::once(&names.master).chain(&names.aux);
            for (region, values) in regions.zip(state.iter_mut()) {
                let values = &mut values[range.clone()];
                if write {
                    storage.write(region, values)?;
                } else {
                    storage.read(region, values)?;
                }
            }
            Ok(())
        });
        self.raid.suspend_faults(false);
        result
    }

    fn take_fault_events(&mut self) -> (u64, u64) {
        self.raid.take_fault_events()
    }

    #[cfg(test)]
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PipelinedTrainer, StepReport, TrainError, Trainer};
    use optim::{HyperParams, OptimizerKind};
    use ssd::SsdError;
    use tensorlib::Dtype;

    fn host(
        initial: &FlatTensor,
        optimizer: Optimizer,
        num_ssds: usize,
        block_elems: usize,
    ) -> PipelinedTrainer {
        PipelinedTrainer::host_update(initial, optimizer, num_ssds, block_elems).unwrap()
    }

    /// The bytes of every region the host lane stores, in block order.
    fn snapshot(t: &mut PipelinedTrainer) -> Vec<Vec<u8>> {
        let lane = t.lane::<RaidLane>(0);
        let mut raid = lane.raid.clone();
        let regions = lane.regions.iter();
        let names = regions.flat_map(|b| std::iter::once(&b.master).chain(&b.aux).chain([&b.grad]));
        names.map(|r| raid.read_region(r).unwrap()).collect()
    }

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

        let mut trainer = host(&initial, optimizer, 3, 700);
        for g in &grads {
            trainer.train_step_with_grads(g).unwrap();
        }
        assert_eq!(trainer.master_params().unwrap().as_slice(), reference.as_slice());
        assert_eq!(trainer.steps_completed(), 5);
        assert_eq!(trainer.num_params(), n);
        assert_eq!(trainer.aggregate_stats().updates_run, 0, "the host placement has no CSDs");
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
        let mut small_blocks = host(&initial, optimizer, 2, 64);
        let mut one_block = host(&initial, optimizer, 4, n);
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
        let mut trainer = host(&initial, optimizer, 1, 128);
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
        // The host's one lane steps serially whatever the executor.
        let mut trainer = host(&initial, optimizer, 2, 1024).with_threads(4);
        // Setup wrote master (4n) + 2 aux (8n).
        let setup_written = trainer.lane::<RaidLane>(0).raid.counters().bytes_written;
        assert_eq!(setup_written, 12 * n as u64);
        let report = trainer.train_step_with_grads(&FlatTensor::zeros(n)).unwrap();
        // Per step: write grads (4n) + write back states (12n) = 16n  -> "8M" in
        // paper units (M = 2n bytes); read grads + states = 16n.
        let raid = &trainer.lane::<RaidLane>(0).raid;
        assert_eq!(raid.counters().bytes_written - setup_written, 16 * n as u64);
        assert_eq!(raid.counters().bytes_read, 16 * n as u64);
        // The per-step report carries exactly the same accounting.
        assert_eq!(report.step, 1);
        assert_eq!(report.storage_bytes_written, 16 * n as u64);
        assert_eq!(report.storage_bytes_read, 16 * n as u64);
        assert_eq!(report.gradient_bytes, 8 * n as u64);
        assert_eq!(report.compression_kept, None);
        assert_eq!(report.threads, 1);
        assert_eq!(report.stages, None);
    }

    #[test]
    fn injected_faults_are_recovered_and_do_not_change_the_numbers() {
        let n = 1024;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 15);
        let grads: Vec<FlatTensor> = (0..4).map(|s| FlatTensor::randn(n, 0.01, 60 + s)).collect();

        let mut clean = host(&initial, optimizer, 3, 256);
        let mut faulty = host(&initial, optimizer, 3, 256).with_fault_plan(
            faultkit::FaultPlan::new({
                let mut s = faultkit::FaultSpec::empty(9);
                s.transient_per_mille = Some(150);
                s.ssd_wearout_step = Some(3);
                s
            })
            .unwrap(),
        );
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
        let mut plain = host(&initial, optimizer, 2, 64);
        let mut with_empty = host(&initial, optimizer, 2, 64)
            .with_fault_plan(faultkit::FaultPlan::new(faultkit::FaultSpec::empty(99)).unwrap());
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
        let mut straight = host(&initial, optimizer, 2, 200);
        for g in &grads {
            straight.train_step_with_grads(g).unwrap();
        }

        // Interrupted run: checkpoint after 3 steps, restore into a *fresh*
        // trainer (different device count), continue.
        let mut first = host(&initial, optimizer, 2, 200);
        for g in &grads[..3] {
            first.train_step_with_grads(g).unwrap();
        }
        let ckpt = Trainer::checkpoint(&mut first).unwrap();
        let json = ckpt.to_json().unwrap();
        let parsed = crate::TrainerCheckpoint::from_json(&json).unwrap();
        assert_eq!(parsed, ckpt);

        let mut resumed = host(&initial, optimizer, 4, 200);
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
        let mut wrong = host(&FlatTensor::zeros(10), optimizer, 1, 10);
        assert!(Trainer::restore(&mut wrong, &parsed).is_err());
    }

    #[test]
    fn wrong_gradient_length_is_a_config_error() {
        let mut t = host(&FlatTensor::zeros(10), Optimizer::adam_default(), 1, 10);
        let e = t.train_step_with_grads(&FlatTensor::zeros(5)).unwrap_err();
        assert!(matches!(e, TrainError::Config { .. }), "{e}");
        let e = t.step_from(&mut SyntheticGradients::new(11, 0.01, 1)).unwrap_err();
        assert!(matches!(e, TrainError::Config { .. }), "{e}");
        assert_eq!(t.steps_completed(), 0, "a rejected gradient must not advance the step");
    }

    #[test]
    fn a_compressor_on_the_host_is_a_config_error_that_moves_nothing() {
        let n = 1000;
        let initial = FlatTensor::randn(n, 0.05, 66);
        let grads = FlatTensor::randn(n, 0.01, 67);
        let mut t = host(&initial, Optimizer::adam_default(), 3, 400);
        t.train_step_with_grads(&grads).unwrap();
        let mut t = t.with_compression(0.1).unwrap();
        let (regions, fp16) = (snapshot(&mut t), t.params_fp16().clone());
        let err = t.train_step_with_grads(&grads).unwrap_err();
        assert!(matches!(err, TrainError::Config { .. }), "{err}");
        assert!(err.to_string().contains("gradient compression runs in the CSDs"), "{err}");
        assert_eq!(t.steps_completed(), 1, "a refused step must not advance the count");
        assert!(snapshot(&mut t) == regions, "a region moved");
        assert_eq!(t.params_fp16().as_slice(), fp16.as_slice());
    }

    #[test]
    fn a_stored_region_of_the_wrong_length_fails_the_step_with_a_typed_error() {
        let n = 1000;
        let initial = FlatTensor::randn(n, 0.05, 61);
        let grads = FlatTensor::randn(n, 0.01, 62);
        let bits = |t: &FlatTensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut straight = host(&initial, Optimizer::adam_default(), 3, 400);
        straight.train_step_with_grads(&grads).unwrap();
        straight.train_step_with_grads(&grads).unwrap();
        let mut t = host(&initial, Optimizer::adam_default(), 3, 400);
        Trainer::step(&mut t, &grads).unwrap();
        let before = Trainer::checkpoint(&mut t).unwrap();
        // Block 1 is 400 floats, all on member 0 (the stripe is 1 MiB).
        // Overwrite its first moment with a region one float short, then with
        // one that is not even a whole number of floats.
        let good = t.lane::<RaidLane>(0).raid.read_region("block1/aux0").unwrap();
        assert_eq!(good.len(), 1600);
        for short in [1596usize, 1599, 0] {
            t.lane::<RaidLane>(0).raid.write_region("block1/aux0", &good[..short]).unwrap();
            let err = Trainer::step(&mut t, &grads).unwrap_err();
            assert!(
                matches!(
                    err,
                    TrainError::Storage(SsdError::LengthMismatch { expected: 1600, actual, .. })
                        if actual == short
                ),
                "{err}"
            );
            // With the region put right and the checkpoint restored, the
            // retried step is the straight run's: master and aux (the
            // checkpoint's bits) and the FP16 copy.
            t.lane::<RaidLane>(0).raid.write_region("block1/aux0", &good).unwrap();
            Trainer::restore(&mut t, &before).unwrap();
            Trainer::step(&mut t, &grads).unwrap();
            let (got, want) = (Trainer::checkpoint(&mut t), Trainer::checkpoint(&mut straight));
            assert_eq!(got.unwrap(), want.unwrap(), "{short}");
            assert_eq!(bits(t.params_fp16()), bits(straight.params_fp16()), "{short}");
            Trainer::restore(&mut t, &before).unwrap();
        }
    }

    #[test]
    fn an_unrecoverable_write_moves_nothing_of_the_failing_block() {
        let n = 1000;
        let initial = FlatTensor::randn(n, 0.05, 63);
        let mut t = host(&initial, Optimizer::adam_default(), 3, 400);
        t.train_step_with_grads(&FlatTensor::randn(n, 0.01, 64)).unwrap();
        let (regions, fp16) = (snapshot(&mut t), t.params_fp16().clone());
        // Without a fault plan nothing retries, so nothing rebuilds member 1.
        // Its gate refuses the first write (block 0's gradient), after member
        // 0's passed.
        t.lane::<RaidLane>(0).raid.inject_wearout(1);
        let err = t.train_step_with_grads(&FlatTensor::randn(n, 0.01, 65)).unwrap_err();
        assert!(matches!(err, TrainError::Storage(SsdError::WornOut { .. })), "{err}");
        assert!(snapshot(&mut t) == regions, "a region moved");
        assert_eq!(t.params_fp16().as_slice(), fp16.as_slice());
    }

    /// The timed model spreads each of the host baseline's transfers evenly
    /// over the devices (`schedule::even_share`); a RAID0 array deals whole
    /// stripe units. For every member and region the two differ by less
    /// than one unit: with 1.2 MB blocks on 3 SSDs, members 0 and 1 hold
    /// 1 MiB and 0.15 MB of each region and member 2 none, against 0.4 MB.
    #[test]
    fn a_raid_member_holds_its_even_share_within_one_stripe() {
        use crate::schedule::{even_share, SiteMap};
        for (n, ssds, block) in
            [(900_000, 3, 300_000), (2_000_000, 4, 900_000), (700_000, 2, 700_000)]
        {
            let mut t = host(&FlatTensor::zeros(n), Optimizer::adam_default(), ssds, block);
            t.train_step_with_grads(&FlatTensor::zeros(n)).unwrap();
            let lane = t.lane::<RaidLane>(0);
            let mut members = lane.raid.devices().to_vec();
            let regions = lane.regions.iter();
            for region in
                regions.flat_map(|b| std::iter::once(&b.master).chain(&b.aux).chain([&b.grad]))
            {
                let held: Vec<usize> =
                    members.iter_mut().map(|m| m.read_region(region).unwrap().len()).collect();
                let total = held.iter().sum::<usize>() as f64;
                for (held, (_, share)) in held.iter().zip(even_share(SiteMap::new(1, ssds), total))
                {
                    let off = (*held as f64 - share).abs();
                    assert!(off < STRIPE_BYTES as f64, "{region}: {held} B against {share} B");
                }
            }
        }
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
