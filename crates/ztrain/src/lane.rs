//! The lane interface: what the functional trainer needs of each lane,
//! whether the lane is one RAID0 array stepped by the host CPU
//! (`crate::functional::RaidLane`) or one CSD updating its own shard
//! (`crate::pipeline`'s `CsdLane`).

use crate::trainer::{DegradedReport, LayerTimes, TrainError};
use csd::CsdTrafficStats;
use faultkit::FaultPlan;
use gradcomp::{Compressor, SelectionMethod};
use optim::Optimizer;
use std::fmt;

/// What one step asks of every lane.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepArgs {
    pub(crate) optimizer: Optimizer,
    /// 1-based index of the step.
    pub(crate) step: u64,
    /// Rebuild-and-retry budget for a dead device (see `crate::recover`).
    pub(crate) retries: u32,
    pub(crate) compressor: Option<Compressor>,
}

impl StepArgs {
    /// What lane `lane` steps with: the same arguments, except that a
    /// Random-K selector is re-seeded for this step and lane, as
    /// [`SelectionMethod::RandomK`] documents. The seed depends on nothing
    /// else, so a retried or restored step draws what the straight run drew.
    pub(crate) fn for_lane(&self, lane: usize) -> StepArgs {
        let compressor = self.compressor.map(|c| match c.method() {
            SelectionMethod::TopK => c,
            SelectionMethod::RandomK { seed } => {
                let seed = splitmix64(splitmix64(seed ^ self.step) ^ lane as u64);
                Compressor::new(c.keep_ratio(), SelectionMethod::RandomK { seed })
            }
        });
        StepArgs { compressor, ..*self }
    }
}

/// The SplitMix64 finalizer: a bijective mix of all 64 bits.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fault the plan schedules for the start of one step.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ScheduledFault {
    /// The device's SSD media wears out: writes fail until it is rebuilt.
    WearOut,
    /// The device stops answering until it is rebuilt.
    Dropout,
}

/// Byte accounting of one lane's step, or of a whole step summed over its
/// lanes. Storage bytes are RAID0 traffic on the host, CSD-internal P2P
/// traffic in the CSDs.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LaneReport {
    pub(crate) gradient_bytes: u64,
    pub(crate) kept: u64,
    pub(crate) storage_read_bytes: u64,
    pub(crate) storage_write_bytes: u64,
    /// The FP16 bytes a lane that runs write → update → read-back stages
    /// returned upstream; `None` for one that rounds the FP16 copy where it
    /// updates (the host), which has no stages to report.
    pub(crate) read_back_bytes: Option<u64>,
    pub(crate) degraded: DegradedReport,
    pub(crate) layers: LayerTimes,
}

impl LaneReport {
    /// Adds another lane's report into this one.
    pub(crate) fn absorb(&mut self, lane: &LaneReport) {
        self.gradient_bytes += lane.gradient_bytes;
        self.kept += lane.kept;
        self.storage_read_bytes += lane.storage_read_bytes;
        self.storage_write_bytes += lane.storage_write_bytes;
        self.read_back_bytes = match (self.read_back_bytes, lane.read_back_bytes) {
            (None, None) => None,
            (a, b) => Some(a.unwrap_or(0) + b.unwrap_or(0)),
        };
        self.degraded.absorb(&lane.degraded);
        self.layers.absorb(&lane.layers);
    }
}

/// One lane of the trainer: a contiguous range of the parameters (its lane
/// of the trainer's `StepPlan`) whose master copy and optimizer state live
/// on the lane's own devices. A lane touches nothing outside itself and the
/// slices it is handed, so the lanes of a step can run concurrently.
pub(crate) trait Lane: fmt::Debug + Send {
    /// How many devices the lane spans.
    fn num_devices(&self) -> usize;

    /// Installs the plan's transient-fault injectors on the lane's devices,
    /// the first of which is device `first` of the whole trainer.
    fn install_faults(&mut self, plan: &FaultPlan, first: u64);

    /// Fires a scheduled fault on device `device` of the lane.
    fn fire(&mut self, device: usize, fault: ScheduledFault);

    /// Gives the lane's kernels `workers` host threads; returns whether they
    /// run on them (by default they run serially, on the calling thread).
    fn set_threads(&mut self, _workers: usize) -> bool {
        false
    }

    /// Refuses, before the step advances, a compressor the lane cannot run.
    fn admit(&self, _compressor: Option<Compressor>) -> Result<(), TrainError> {
        Ok(())
    }

    /// Steps the lane: `grads` is its slice of the gradient and `fp16` of the
    /// FP16 working copy, which it refreshes.
    fn step(
        &mut self,
        args: &StepArgs,
        grads: &[f32],
        fp16: &mut [f32],
    ) -> Result<LaneReport, TrainError>;

    /// Moves the lane's state between its devices and `state` — its slice of
    /// the master copy, then of each auxiliary state — and `residual`, its
    /// slice of the error-feedback residual where the caller wants one: read
    /// into them, or with `write` written from them. Injection is suspended
    /// meanwhile (maintenance traffic neither fails on nor consumes fault
    /// decisions, or a checkpointed-then-resumed run would see a shifted
    /// fault schedule), and every device operation runs under `recover`
    /// with `retries` rebuilds, so a dead device is rebuilt, not left behind.
    fn transfer_state(
        &mut self,
        retries: u32,
        write: bool,
        state: &mut [&mut [f32]],
        residual: Option<&mut [f32]>,
    ) -> Result<(), TrainError>;

    /// Drains the `(retries, modeled backoff ms)` the lane's devices spent
    /// absorbing transient faults since the last call.
    fn take_fault_events(&mut self) -> (u64, u64);

    /// The lane's cumulative CSD-internal P2P traffic (none without CSDs).
    fn stats(&self) -> CsdTrafficStats {
        CsdTrafficStats::default()
    }

    /// The lane as `Any`, for tests that reach into its devices.
    #[cfg(test)]
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}
