//! The assembled SmartSSD device: SSD + FPGA DRAM + kernels + internal P2P
//! traffic accounting.

use crate::decompressor::{Decompressor, StreamCursor};
use crate::dram::{BufferId, DeviceDram, DramError};
use crate::updater::Updater;
use faultkit::FaultInjector;
use gradcomp::{CompressError, CompressedGradient};
use optim::Optimizer;
use parcore::ParExecutor;
use serde::{Deserialize, Serialize};
use ssd::{LentWindows, SsdDevice, SsdError};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensorlib::le_bytes::{self, fill_from_le_bytes, with_le_bytes};
use tensorlib::{f16, FlatTensor};

/// Errors produced by the functional CSD update path.
#[derive(Debug, Clone, PartialEq)]
pub enum CsdError {
    /// An SSD operation failed.
    Ssd(SsdError),
    /// The FPGA device memory could not hold the working set.
    Dram(DramError),
    /// A shard was used before its optimizer state was initialised.
    MissingShard {
        /// The shard name.
        shard: String,
    },
    /// A gradient could not be (de)compressed — e.g. a shard longer than the
    /// u32 index space of the compressed stream.
    Compression(CompressError),
    /// The device stopped answering (controller hang / surprise removal).
    /// Every operation fails until the device is rebuilt from its media.
    Dropout {
        /// The device name.
        device: String,
    },
}

impl CsdError {
    /// Whether bounded retry can clear this error (delegates to the wrapped
    /// SSD error; dropouts and everything else need rebuild or propagation).
    pub fn is_transient(&self) -> bool {
        matches!(self, CsdError::Ssd(e) if e.is_transient())
    }

    /// Whether the error means the device is dead until rebuilt (a dropout,
    /// or worn-out media underneath).
    pub fn needs_rebuild(&self) -> bool {
        matches!(self, CsdError::Dropout { .. } | CsdError::Ssd(SsdError::WornOut { .. }))
    }
}

impl fmt::Display for CsdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsdError::Ssd(e) => write!(f, "ssd error: {e}"),
            CsdError::Dram(e) => write!(f, "device memory error: {e}"),
            CsdError::MissingShard { shard } => {
                write!(f, "shard {shard} has no initialised optimizer state")
            }
            CsdError::Compression(e) => write!(f, "compression error: {e}"),
            CsdError::Dropout { device } => {
                write!(f, "device {device} dropped out (not answering; rebuild required)")
            }
        }
    }
}

impl Error for CsdError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CsdError::Ssd(e) => Some(e),
            CsdError::Dram(e) => Some(e),
            CsdError::MissingShard { .. } => None,
            CsdError::Compression(e) => Some(e),
            CsdError::Dropout { .. } => None,
        }
    }
}

impl From<SsdError> for CsdError {
    fn from(e: SsdError) -> Self {
        CsdError::Ssd(e)
    }
}

impl From<DramError> for CsdError {
    fn from(e: DramError) -> Self {
        CsdError::Dram(e)
    }
}

impl From<CompressError> for CsdError {
    fn from(e: CompressError) -> Self {
        CsdError::Compression(e)
    }
}

/// Internal peer-to-peer traffic counters of one CSD.
///
/// These are the bytes that cross the CSD-internal switch (SSD ↔ FPGA) and
/// therefore *not* the shared system interconnect — the quantity whose
/// aggregate bandwidth scales linearly with the number of CSDs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsdTrafficStats {
    /// Bytes read from the SSD into the FPGA over the internal switch.
    pub p2p_read_bytes: u64,
    /// Bytes written from the FPGA back to the SSD over the internal switch.
    pub p2p_write_bytes: u64,
    /// Number of subgroup updates executed by the updater kernel.
    pub updates_run: u64,
    /// Total parameters updated.
    pub elements_updated: u64,
}

/// Host wall time a device spent in [`CsdDevice::update_subgroup`] since the
/// last [`CsdDevice::take_update_times`], by layer, in nanoseconds (the
/// decompressor and updater entries summed over the updater's workers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateTimes {
    /// P2P read gates: master, auxiliaries and a dense gradient admitted.
    pub read_gates_ns: u64,
    /// P2P write gates: master and auxiliaries admitted.
    pub write_gates_ns: u64,
    /// The decompressor scattering the Top-K stream into gradient tiles.
    pub decompress_ns: u64,
    /// The updater kernel stepping the state windows.
    pub kernel_ns: u64,
}

/// Runs `f` and adds its wall time to `slot`.
fn timed<R>(slot: &mut u64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let result = f();
    *slot += nanos(start.elapsed());
    result
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One subgroup-update request against a [`CsdDevice`].
#[derive(Debug, Clone, Copy)]
pub struct SubgroupUpdate<'a> {
    /// Name of the parameter shard owned by this device.
    pub shard: &'a str,
    /// Element offset of the subgroup within the shard.
    pub offset: usize,
    /// Number of elements in the subgroup.
    pub len: usize,
    /// The optimizer to apply.
    pub optimizer: Optimizer,
    /// 1-based global step count (Adam bias correction).
    pub step: u64,
    /// If present, the shard's gradients arrive compressed and the FPGA
    /// decompressor reconstructs the subgroup's dense gradient from it;
    /// otherwise the dense gradient region on the SSD is read.
    pub compressed: Option<&'a CompressedGradient>,
}

/// The SSD region names and FPGA-DRAM buffer labels of one shard, built once
/// (when the shard is first stored to) instead of on every operation.
#[derive(Debug, Clone)]
struct ShardNames {
    master: String,
    grad: String,
    aux: Vec<String>,
    // Working-set buffer labels, in allocation order: gradient, master, aux….
    buffers: Vec<Arc<str>>,
}

impl ShardNames {
    fn new(shard: &str) -> Self {
        Self {
            master: format!("{shard}/master"),
            grad: format!("{shard}/grad"),
            aux: Vec::new(),
            buffers: vec![format!("{shard}/grad-buf").into(), format!("{shard}/master-buf").into()],
        }
    }

    /// Makes sure the names of the first `num_aux` auxiliary tensors exist.
    fn ensure_aux(&mut self, shard: &str, num_aux: usize) {
        for i in self.aux.len()..num_aux {
            self.aux.push(format!("{shard}/aux{i}"));
            self.buffers.push(format!("{shard}/aux{i}-buf").into());
        }
    }
}

/// Device-internal bounded retry for transient faults *inside* a subgroup
/// update, gate by gate — exactly like firmware retrying one failed flash
/// operation rather than the command it belongs to. The update passes every
/// read and write gate before a byte of state moves, so it is all-or-nothing:
/// a gate that exhausts the budget (or hits worn-out media) fails the update
/// with every state region byte-identical to before the call, and the
/// caller's whole-op retry recomputes the step from un-updated state. What
/// this absorber adds over that retry is convergence: a whole-op retry would
/// re-run the already-passed gates at fresh op indices, where new fault
/// bursts can fire.
#[derive(Debug, Clone, Copy, Default)]
struct FaultAbsorber {
    budget: u32,
    retries: u64,
    backoff_ms: u64,
}

impl FaultAbsorber {
    /// Runs one SSD operation, clearing transient faults within the budget.
    fn retrying(&mut self, mut op: impl FnMut() -> Result<(), SsdError>) -> Result<(), CsdError> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() && attempt < self.budget => {
                    attempt += 1;
                    self.retries += 1;
                    self.backoff_ms += 1u64 << attempt.min(16);
                }
                Err(e) => return Err(CsdError::Ssd(e)),
            }
        }
    }
}

/// One counted SSD read of `out.len()` floats at element `offset` of
/// `region`, landing straight in `out`.
fn read_f32(
    ssd: &mut SsdDevice,
    region: &str,
    offset: usize,
    out: &mut [f32],
) -> Result<(), SsdError> {
    // A saturated offset is out of bounds for any region, so it comes back as
    // the SSD's error.
    fill_from_le_bytes(out, |bytes| ssd.read_exact_at(region, offset.saturating_mul(4), bytes))
}

/// The name of the shard's region picked by `pick`, if that region is on the
/// SSD.
fn stored_region<'a>(
    shards: &'a BTreeMap<String, ShardNames>,
    ssd: &SsdDevice,
    shard: &str,
    pick: impl FnOnce(&'a ShardNames) -> Option<&'a String>,
) -> Result<&'a str, CsdError> {
    shards
        .get(shard)
        .and_then(pick)
        .filter(|region| ssd.has_region(region))
        .map(String::as_str)
        .ok_or_else(|| CsdError::MissingShard { shard: shard.to_string() })
}

/// Elements per tile of the in-place update: a Top-K stream is scattered
/// into one tile of dense gradient, which the kernel consumes while it is
/// still in cache, stepping the same tile of every state window beside it.
const TILE: usize = Optimizer::TILE_ELEMS;

/// One updater worker's host buffers, reused from one subgroup to the next.
/// The state is stepped where the SSD lends it, so what is left is `grad`, a
/// tile of dense gradient scattered from a Top-K stream, and the staging
/// `le_bytes` needs for a window it cannot view in place (a big-endian host
/// or a misaligned window; `grad` stages a dense gradient window then). The
/// worker's decompressor and kernel times collect in `times`.
#[derive(Debug, Clone, Default)]
struct TileScratch {
    grad: Vec<f32>,
    staging: Vec<f32>,
    times: UpdateTimes,
}

/// Where a span's dense gradient tiles come from.
enum GradSource<'a> {
    /// The span's window of the dense gradient region.
    Dense(&'a [u8]),
    /// The Top-K stream, positioned at the span's first element.
    Stream(StreamCursor<'a>),
}

/// One worker's share of a subgroup update: a contiguous run of tiles of the
/// admitted state windows, stepped front to back with no further dispatch.
struct TileSpan<'a> {
    // Shard element offset of the span's first element.
    start: usize,
    // This span's bytes of the master window, then of each auxiliary window.
    states: Vec<&'a mut [u8]>,
    grad: GradSource<'a>,
    scratch: &'a mut TileScratch,
}

impl TileSpan<'_> {
    /// Per tile: produce the gradient (viewed in its dense window, or
    /// decompressed from the stream into the tile buffer), then run the
    /// updater kernel on the tile of the state windows where it lies. A tile
    /// is far below the kernel's fan-out threshold, so it runs inline on this
    /// worker.
    fn stream(self, optimizer: &Optimizer, step: u64) {
        let TileSpan { start, mut states, mut grad, scratch } = self;
        let TileScratch { grad: grad_tile, staging, times } = scratch;
        let elems = states[0].len() / 4;
        for first in (0..elems).step_by(TILE) {
            let n = TILE.min(elems - first);
            let bytes = 4 * first..4 * (first + n);
            let mut windows: Vec<&mut [u8]> =
                states.iter_mut().map(|window| &mut window[bytes.clone()]).collect();
            let kernel_ns = &mut times.kernel_ns;
            let mut kernel = |grad: &[f32]| {
                timed(kernel_ns, || optimizer.step_le_windows(&mut windows, grad, staging, step))
            };
            match &mut grad {
                GradSource::Dense(window) => {
                    le_bytes::with_floats(&window[bytes], grad_tile, kernel)
                }
                GradSource::Stream(cursor) => {
                    timed(&mut times.decompress_ns, || {
                        grad_tile.resize(n, 0.0);
                        cursor.scatter_next(start + first, grad_tile);
                    });
                    kernel(grad_tile.as_slice());
                }
            }
        }
    }
}

/// A SmartSSD: NVMe SSD, FPGA device memory and the updater/decompressor
/// kernels, connected by an internal PCIe switch.
#[derive(Debug, Clone)]
pub struct CsdDevice {
    name: String,
    ssd: SsdDevice,
    dram: DeviceDram,
    updater: Updater,
    decompressor: Decompressor,
    executor: ParExecutor,
    stats: CsdTrafficStats,
    dropped: bool,
    faults: FaultAbsorber,
    times: UpdateTimes,
    shards: BTreeMap<String, ShardNames>,
    // One tile-sized set of buffers per updater worker, reused from one
    // subgroup to the next: the state is stepped where the SSD lends it, so
    // nothing subgroup-sized exists on the host.
    tile_scratch: Vec<TileScratch>,
    dram_buffers: Vec<BufferId>,
}

impl CsdDevice {
    /// Creates a CSD with the given SSD and FPGA-DRAM capacities in bytes.
    /// The updater kernel runs serially by default; see
    /// [`CsdDevice::set_threads`].
    pub fn new(name: impl Into<String>, ssd_capacity: u64, dram_capacity: u64) -> Self {
        let name = name.into();
        Self {
            ssd: SsdDevice::new(format!("{name}-ssd"), ssd_capacity),
            dram: DeviceDram::new(dram_capacity),
            updater: Updater::default(),
            decompressor: Decompressor::default(),
            executor: ParExecutor::serial(),
            stats: CsdTrafficStats::default(),
            dropped: false,
            faults: FaultAbsorber::default(),
            times: UpdateTimes::default(),
            shards: BTreeMap::new(),
            tile_scratch: Vec::new(),
            dram_buffers: Vec::new(),
            name,
        }
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying SSD.
    pub fn ssd(&self) -> &SsdDevice {
        &self.ssd
    }

    /// The updater kernel configuration.
    pub fn updater(&self) -> &Updater {
        &self.updater
    }

    /// The decompressor kernel configuration.
    pub fn decompressor(&self) -> &Decompressor {
        &self.decompressor
    }

    /// The executor the updater kernel runs on.
    pub fn executor(&self) -> ParExecutor {
        self.executor
    }

    /// Sets the host worker-thread count the updater kernel fans out across.
    /// The update result is bit-identical for every thread count.
    pub fn set_threads(&mut self, num_threads: usize) {
        self.executor = ParExecutor::new(num_threads);
    }

    /// Internal traffic statistics.
    pub fn stats(&self) -> CsdTrafficStats {
        self.stats
    }

    /// Resets the internal traffic statistics.
    pub fn reset_stats(&mut self) {
        self.stats = CsdTrafficStats::default();
        self.ssd.reset_stats();
    }

    /// Installs a deterministic fault injector on the underlying SSD. Faults
    /// surface as [`CsdError::Ssd`] wrapping [`SsdError::Injected`].
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.ssd.set_fault_injector(injector);
    }

    /// Sets the device-internal retry budget for transient faults during a
    /// subgroup update (transients are cleared gate by gate inside the
    /// device; an update whose gate cannot be cleared has changed nothing).
    pub fn set_retry_budget(&mut self, budget: u32) {
        self.faults.budget = budget;
    }

    /// Drains the device-internal fault-recovery counters accumulated since
    /// the last call: `(transient retries, modeled backoff in ms)`.
    pub fn take_fault_events(&mut self) -> (u64, u64) {
        (std::mem::take(&mut self.faults.retries), std::mem::take(&mut self.faults.backoff_ms))
    }

    /// Drains the host wall time spent in [`CsdDevice::update_subgroup`]
    /// since the last call, by layer.
    pub fn take_update_times(&mut self) -> UpdateTimes {
        std::mem::take(&mut self.times)
    }

    /// Suspends (or resumes) transient-fault injection on the underlying SSD
    /// — see [`ssd::SsdDevice::suspend_faults`].
    pub fn suspend_faults(&mut self, suspended: bool) {
        self.ssd.suspend_faults(suspended);
    }

    /// Marks the device as dropped out: every operation fails with
    /// [`CsdError::Dropout`] until [`CsdDevice::rebuild`] is called.
    pub fn inject_dropout(&mut self) {
        self.dropped = true;
    }

    /// Wears out the underlying SSD media: reads keep working, writes fail
    /// with [`SsdError::WornOut`] until the device is rebuilt.
    pub fn inject_ssd_wearout(&mut self) {
        self.ssd.inject_wearout();
    }

    /// Whether the underlying SSD media has worn out.
    pub fn is_worn_out(&self) -> bool {
        self.ssd.is_worn_out()
    }

    /// Rebuilds the device onto replacement hardware: migrates every region
    /// of the underlying SSD (accounting the rebuild traffic in the SSD
    /// counters), clears the worn-out flag and brings a dropped-out device
    /// back online. Returns the number of bytes migrated.
    pub fn rebuild(&mut self) -> u64 {
        self.dropped = false;
        self.ssd.rebuild()
    }

    fn check_alive(&self) -> Result<(), CsdError> {
        if self.dropped {
            return Err(CsdError::Dropout { device: self.name.clone() });
        }
        Ok(())
    }

    /// The names of `shard`, created on first use (naming a shard stores
    /// nothing on the SSD).
    fn names_mut(&mut self, shard: &str) -> &mut ShardNames {
        if !self.shards.contains_key(shard) {
            self.shards.insert(shard.to_string(), ShardNames::new(shard));
        }
        self.shards.get_mut(shard).expect("shard names were just ensured")
    }

    /// Initialises a shard on this device: the FP32 master copy of the
    /// parameters and zeroed auxiliary optimizer state, all stored on the SSD
    /// (this is the one-time setup before training starts).
    ///
    /// # Errors
    ///
    /// Returns a capacity error if the SSD cannot hold the optimizer state.
    pub fn store_initial_state(
        &mut self,
        shard: &str,
        params: &FlatTensor,
        optimizer: &Optimizer,
    ) -> Result<(), CsdError> {
        self.check_alive()?;
        let num_aux = optimizer.kind().num_aux();
        self.names_mut(shard).ensure_aux(shard, num_aux);
        let (ssd, names) = (&mut self.ssd, &self.shards[shard]);
        with_le_bytes(params.as_slice(), |bytes| ssd.write_region_from(&names.master, bytes))?;
        for aux in &names.aux[..num_aux] {
            // FP32 zeros are zero bytes, so the region is born zeroed.
            ssd.write_region(aux.as_str(), vec![0u8; 4 * params.len()])?;
        }
        Ok(())
    }

    /// Stores the dense FP32 gradients for a shard (the backward pass offloads
    /// gradients to the CSD that owns the corresponding parameters).
    ///
    /// # Errors
    ///
    /// Returns a capacity error if the SSD cannot hold the gradients.
    pub fn store_gradients(&mut self, shard: &str, grads: &[f32]) -> Result<(), CsdError> {
        self.check_alive()?;
        self.names_mut(shard);
        let (ssd, names) = (&mut self.ssd, &self.shards[shard]);
        with_le_bytes(grads, |bytes| ssd.write_region_from(&names.grad, bytes))?;
        Ok(())
    }

    /// Reads a range of the FP32 master parameters straight into `out` (the
    /// read-back of the refreshed parameters after the update: one counted
    /// SSD read, no intermediate buffer).
    ///
    /// # Errors
    ///
    /// Returns [`CsdError::MissingShard`] if the shard was never initialised.
    pub fn load_parameters_into(
        &mut self,
        shard: &str,
        offset: usize,
        out: &mut [f32],
    ) -> Result<(), CsdError> {
        self.check_alive()?;
        let region = stored_region(&self.shards, &self.ssd, shard, |names| Some(&names.master))?;
        Ok(read_f32(&mut self.ssd, region, offset, out)?)
    }

    /// Reads `out.len()` FP32 master parameters at element `offset` and
    /// stores each one's FP16-rounded value in `out` — the refreshed FP16
    /// working copy going upstream. One counted SSD read, rounded straight
    /// from the region's bytes: bit-identical to
    /// [`CsdDevice::load_parameters`] followed by
    /// [`FlatTensor::roundtrip_f16_into`]. `out` is untouched on error.
    ///
    /// # Errors
    ///
    /// Returns [`CsdError::MissingShard`] if the shard was never initialised.
    pub fn load_parameters_fp16_into(
        &mut self,
        shard: &str,
        offset: usize,
        out: &mut [f32],
    ) -> Result<(), CsdError> {
        self.check_alive()?;
        let region = stored_region(&self.shards, &self.ssd, shard, |names| Some(&names.master))?;
        let (byte_off, byte_len) = (offset.saturating_mul(4), out.len().saturating_mul(4));
        Ok(self.ssd.read_at_with(region, byte_off, byte_len, |bytes| {
            f16::roundtrip_f32_le_bytes_into(bytes, out)
        })?)
    }

    /// Reads back a range of the FP32 master parameters (what gets sent
    /// upstream to the host after the update).
    ///
    /// # Errors
    ///
    /// Returns [`CsdError::MissingShard`] if the shard was never initialised.
    pub fn load_parameters(
        &mut self,
        shard: &str,
        offset: usize,
        len: usize,
    ) -> Result<FlatTensor, CsdError> {
        let mut out = FlatTensor::zeros(len);
        self.load_parameters_into(shard, offset, out.as_mut_slice())?;
        Ok(out)
    }

    /// Overwrites one whole auxiliary optimizer-state tensor (checkpoint
    /// restore: the shard must already be initialised via
    /// [`CsdDevice::store_initial_state`], which zeroes the aux regions).
    ///
    /// # Errors
    ///
    /// Returns [`CsdError::MissingShard`] if the shard has no auxiliary
    /// tensor with that index, or a capacity error from the SSD.
    pub fn store_optimizer_state(
        &mut self,
        shard: &str,
        aux_index: usize,
        values: &FlatTensor,
    ) -> Result<(), CsdError> {
        self.check_alive()?;
        let region =
            stored_region(&self.shards, &self.ssd, shard, |names| names.aux.get(aux_index))?;
        with_le_bytes(values.as_slice(), |bytes| self.ssd.write_region_from(region, bytes))?;
        Ok(())
    }

    /// Reads back a range of one auxiliary optimizer-state tensor (used by
    /// checkpointing to serialise the exact on-device state).
    ///
    /// # Errors
    ///
    /// Returns [`CsdError::MissingShard`] if the shard was never initialised
    /// or has no auxiliary tensor with that index.
    pub fn load_optimizer_state(
        &mut self,
        shard: &str,
        aux_index: usize,
        offset: usize,
        len: usize,
    ) -> Result<FlatTensor, CsdError> {
        self.check_alive()?;
        let region =
            stored_region(&self.shards, &self.ssd, shard, |names| names.aux.get(aux_index))?;
        let mut out = FlatTensor::zeros(len);
        read_f32(&mut self.ssd, region, offset, out.as_mut_slice())?;
        Ok(out)
    }

    /// Executes one subgroup update entirely inside the CSD: P2P-load the
    /// gradients and optimizer state from the SSD into FPGA memory, run the
    /// decompressor (if the gradients are compressed) and the updater, then
    /// P2P-write the new state back to the SSD.
    ///
    /// The transfers are admitted and counted one by one, all of them before
    /// any state moves. The updater kernel then steps the admitted windows in
    /// place, one cache-sized tile at a time (decompress → update per tile,
    /// the dataflow of the paper's Fig. 7); no copy of the state is made. So
    /// the update is all-or-nothing: on any error every state region is
    /// byte-identical to before the call.
    ///
    /// # Errors
    ///
    /// Returns [`CsdError::MissingShard`] if the shard is uninitialised (or
    /// was initialised for an optimizer with fewer auxiliary tensors),
    /// [`CsdError::Compression`] if the subgroup reaches past the end of the
    /// compressed stream's gradient (refused before anything is read, written
    /// or counted), [`CsdError::Dram`] if the working set does not fit in
    /// device memory, or an [`CsdError::Ssd`] error for out-of-range accesses.
    pub fn update_subgroup(&mut self, request: SubgroupUpdate<'_>) -> Result<(), CsdError> {
        self.check_alive()?;
        let num_aux = request.optimizer.kind().num_aux();
        stored_region(&self.shards, &self.ssd, request.shard, |names| Some(&names.master))?;
        if let Some(stream) = request.compressed {
            let SubgroupUpdate { offset, len, .. } = request;
            let original_len = stream.original_len();
            if offset.checked_add(len).map_or(true, |end| end > original_len) {
                return Err(CompressError::SubgroupOutOfRange { offset, len, original_len }.into());
            }
        }
        let labels = self.shards[request.shard].buffers.get(..2 + num_aux);
        let labels =
            labels.ok_or_else(|| CsdError::MissingShard { shard: request.shard.to_string() })?;

        // Allocate the working-set buffers in FPGA DRAM (gradient + master +
        // every auxiliary state tensor); a length too large to count is too
        // large to fit.
        let subgroup_bytes = (request.len as u64).saturating_mul(4);
        self.dram_buffers.clear();
        let allocated = labels.iter().try_for_each(|label| {
            self.dram_buffers.push(self.dram.allocate(Arc::clone(label), subgroup_bytes)?);
            Ok(())
        });
        let result =
            allocated.map_err(CsdError::Dram).and_then(|()| self.update_subgroup_inner(request));
        for buffer in self.dram_buffers.drain(..) {
            // Freeing a buffer we just allocated cannot fail.
            self.dram.free(buffer).expect("freshly allocated buffer must be live");
        }
        result
    }

    fn update_subgroup_inner(&mut self, request: SubgroupUpdate<'_>) -> Result<(), CsdError> {
        let SubgroupUpdate { shard, offset, len, optimizer, step, compressed } = request;
        let Self { ssd, faults, stats, times, tile_scratch, shards, .. } = self;
        let names = &shards[shard];
        let num_aux = optimizer.kind().num_aux();
        // A saturated offset or length is out of bounds for any region, so it
        // comes back as the SSD's error from the first gate.
        let (byte_off, byte_len) = (offset.saturating_mul(4), len.saturating_mul(4));

        // 1. Every gate, in the order the P2P transfers are counted: load the
        // master copy and the auxiliary states, load the dense gradient (a
        // compressed one arrived with the request), write the master copy
        // back (needed upstream first), then the auxiliaries. Transient faults
        // are cleared gate by gate; nothing has moved if one cannot be.
        let mut txn = ssd.begin_update();
        for region in std::iter::once(&names.master).chain(&names.aux[..num_aux]) {
            timed(&mut times.read_gates_ns, || {
                faults.retrying(|| txn.admit_read(region, byte_off, byte_len))
            })?;
            stats.p2p_read_bytes += byte_len as u64;
        }
        match compressed {
            // Only the subgroup's share of the compressed stream crosses the switch.
            Some(c) => {
                let pairs_bytes = c.compressed_bytes() as u128 * len as u128;
                let share = pairs_bytes.checked_div(c.original_len() as u128).unwrap_or(0);
                stats.p2p_read_bytes += share as u64;
            }
            None => {
                timed(&mut times.read_gates_ns, || {
                    faults.retrying(|| txn.admit_read(&names.grad, byte_off, byte_len))
                })?;
                stats.p2p_read_bytes += byte_len as u64;
            }
        }
        for window in 0..=num_aux {
            timed(&mut times.write_gates_ns, || faults.retrying(|| txn.admit_write(window)))?;
            stats.p2p_write_bytes += byte_len as u64;
        }
        let LentWindows { read_write: mut states, read_only } = txn.lend();

        // 2. One pass over the admitted windows. The PE-array parallelism
        // maps onto the host executor's workers (bit-identical for any
        // count): each takes one contiguous run of tiles.
        let runs = parcore::chunk_bounds(len.div_ceil(TILE), self.executor.workers_for(len));
        if tile_scratch.len() < runs.len() {
            tile_scratch.resize_with(runs.len(), TileScratch::default);
        }
        let mut spans = Vec::with_capacity(runs.len());
        for (run, scratch) in runs.iter().zip(tile_scratch.iter_mut()) {
            let first = run.start * TILE;
            let span_bytes = 4 * ((run.end * TILE).min(len) - first);
            let grad = match compressed {
                Some(c) => GradSource::Stream(StreamCursor::at(c, offset + first)),
                None => GradSource::Dense(&read_only[0][4 * first..4 * first + span_bytes]),
            };
            let states = states.iter_mut().map(|window| {
                let (span, rest) = std::mem::take(window).split_at_mut(span_bytes);
                *window = rest;
                span
            });
            spans.push(TileSpan { start: offset + first, states: states.collect(), grad, scratch });
        }
        self.executor.for_each(spans, |_, span| span.stream(&optimizer, step));
        for scratch in &mut tile_scratch[..runs.len()] {
            let worker = std::mem::take(&mut scratch.times);
            times.decompress_ns += worker.decompress_ns;
            times.kernel_ns += worker.kernel_ns;
        }
        stats.updates_run += 1;
        stats.elements_updated += len as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradcomp::Compressor;
    use optim::{HyperParams, OptimizerKind};

    fn device() -> CsdDevice {
        CsdDevice::new("csd0", 1 << 26, 1 << 22)
    }

    #[test]
    fn accessors_and_constructors() {
        let csd = CsdDevice::new("csd7", 4_000_000_000_000, 4 * (1 << 30));
        assert_eq!(csd.name(), "csd7");
        assert_eq!(csd.dram.available_bytes(), 4 * (1 << 30));
        assert_eq!(csd.ssd().capacity(), 4_000_000_000_000);
        assert_eq!(csd.stats(), CsdTrafficStats::default());
        assert!(csd.updater().num_pes > 0);
        assert!(csd.decompressor().chunk_pairs > 0);
    }

    #[test]
    fn update_on_uninitialised_shard_fails() {
        let mut csd = device();
        let err = csd
            .update_subgroup(SubgroupUpdate {
                shard: "nope",
                offset: 0,
                len: 16,
                optimizer: Optimizer::adam_default(),
                step: 1,
                compressed: None,
            })
            .unwrap_err();
        assert!(matches!(err, CsdError::MissingShard { .. }));
        assert!(csd.load_parameters("nope", 0, 1).is_err());
    }

    const ALL_KINDS: [OptimizerKind; 4] = [
        OptimizerKind::Adam,
        OptimizerKind::AdamW,
        OptimizerKind::SgdMomentum,
        OptimizerKind::AdaGrad,
    ];

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The device's master copy and every auxiliary tensor of shard `s`
    /// equal, bit for bit, what the host optimizer left.
    fn assert_state_matches_host(
        csd: &mut CsdDevice,
        host_params: &FlatTensor,
        host_aux: &[FlatTensor],
        what: &str,
    ) {
        let n = host_params.len();
        let updated = csd.load_parameters("s", 0, n).unwrap();
        assert_eq!(bits(updated.as_slice()), bits(host_params.as_slice()), "{what} master");
        for (i, host) in host_aux.iter().enumerate() {
            let aux = csd.load_optimizer_state("s", i, 0, n).unwrap();
            assert_eq!(bits(aux.as_slice()), bits(host.as_slice()), "{what} aux {i}");
        }
    }

    #[test]
    fn multi_subgroup_update_matches_single_host_update() {
        // Two steps over every optimizer: two aux windows for Adam and AdamW,
        // one for SGD-momentum and AdaGrad.
        let n = 1000;
        let params = FlatTensor::randn(n, 0.02, 9);
        let grads = FlatTensor::randn(n, 0.01, 10);
        for kind in ALL_KINDS {
            let optimizer = Optimizer::new(kind, HyperParams::default());
            let mut host_params = params.clone();
            let mut host_aux = optimizer.init_aux(n);
            let mut csd = device();
            csd.store_initial_state("s", &params, &optimizer).unwrap();
            csd.store_gradients("s", grads.as_slice()).unwrap();
            for step in 1..=2 {
                optimizer.step(host_params.as_mut_slice(), &grads, &mut host_aux, step);
                // Three uneven subgroups, as the tasklet chunker would cut them.
                for (offset, len) in [(0usize, 400usize), (400, 350), (750, 250)] {
                    let request = SubgroupUpdate {
                        shard: "s",
                        offset,
                        len,
                        optimizer,
                        step,
                        compressed: None,
                    };
                    csd.update_subgroup(request).unwrap();
                }
            }
            assert_state_matches_host(&mut csd, &host_params, &host_aux, &format!("{kind:?}"));
            let stats = csd.stats();
            assert_eq!(stats.updates_run, 6);
            assert_eq!(stats.elements_updated, 2 * n as u64);
            // Read the gradient and every state tensor, write the state back:
            // Adam 16 / 12 B per element, SGD-momentum and AdaGrad 12 / 8.
            let state = kind.state_bytes_per_param() as u64;
            assert_eq!(stats.p2p_read_bytes, 2 * (4 + state) * n as u64, "{kind:?}");
            assert_eq!(stats.p2p_write_bytes, 2 * state * n as u64, "{kind:?}");
        }
    }

    #[test]
    fn compressed_update_matches_decompressed_dense_update() {
        // Two whole tiles and a ragged one, so the stream crosses tile edges.
        let n = 2 * TILE + 300;
        let params = FlatTensor::randn(n, 0.02, 21);
        let grads = FlatTensor::randn(n, 0.01, 22);
        let compressed = Compressor::top_k(0.05).compress(&grads);
        let dense_equivalent = compressed.decompress();
        for kind in ALL_KINDS {
            // Reference: host update using the *decompressed* gradients.
            let optimizer = Optimizer::new(kind, HyperParams::default());
            let mut host_params = params.clone();
            let mut host_aux = optimizer.init_aux(n);
            optimizer.step(host_params.as_mut_slice(), &dense_equivalent, &mut host_aux, 1);

            let mut csd = device();
            csd.store_initial_state("s", &params, &optimizer).unwrap();
            csd.update_subgroup(SubgroupUpdate {
                shard: "s",
                offset: 0,
                len: n,
                optimizer,
                step: 1,
                compressed: Some(&compressed),
            })
            .unwrap();
            assert_state_matches_host(&mut csd, &host_params, &host_aux, &format!("{kind:?}"));
            // Compressed gradients move far fewer bytes over the internal
            // switch than the dense 4·n gradient would.
            let dense_read = (4 + kind.state_bytes_per_param() as u64) * n as u64;
            assert!(csd.stats().p2p_read_bytes < dense_read, "{kind:?}");
        }
    }

    #[test]
    fn dram_capacity_limits_the_subgroup_size() {
        // 1 KiB of device DRAM cannot hold four 4 KiB buffers.
        let mut csd = CsdDevice::new("tiny", 1 << 26, 1024);
        let optimizer = Optimizer::adam_default();
        let params = FlatTensor::zeros(1024);
        csd.store_initial_state("s", &params, &optimizer).unwrap();
        csd.store_gradients("s", &[0.0; 1024]).unwrap();
        let err = csd
            .update_subgroup(SubgroupUpdate {
                shard: "s",
                offset: 0,
                len: 1024,
                optimizer,
                step: 1,
                compressed: None,
            })
            .unwrap_err();
        assert!(matches!(err, CsdError::Dram(DramError::OutOfMemory { .. })));
        // No leaked buffers after the failure.
        assert_eq!(csd.dram.used_bytes(), 0);
        // A subgroup that fits succeeds.
        csd.update_subgroup(SubgroupUpdate {
            shard: "s",
            offset: 0,
            len: 32,
            optimizer,
            step: 1,
            compressed: None,
        })
        .unwrap();
    }

    #[test]
    fn a_subgroup_that_disagrees_with_the_stored_regions_is_an_error_not_a_panic() {
        let optimizer = Optimizer::adam_default();
        // Device memory as unbounded as the trainers configure it, so the
        // working-set check does not refuse the absurd length first.
        let mut csd = CsdDevice::new("csd0", 1 << 26, u64::MAX / 4);
        csd.store_initial_state("s", &FlatTensor::randn(64, 0.02, 1), &optimizer).unwrap();
        csd.store_gradients("s", &[0.5; 64]).unwrap();
        let mut request =
            SubgroupUpdate { shard: "s", offset: 0, len: 64, optimizer, step: 1, compressed: None };
        // Past the end of the shard, by offset or by a length no buffer could
        // hold: refused at the first gate.
        for (offset, len) in [(1usize, 64usize), (64, 1), (0, usize::MAX / 256), (usize::MAX, 1)] {
            let err = csd.update_subgroup(SubgroupUpdate { offset, len, ..request }).unwrap_err();
            assert!(matches!(err, CsdError::Ssd(SsdError::OutOfBounds { .. })), "{err}");
        }
        // A gradient region shorter than the shard it belongs to.
        csd.store_gradients("s", &[0.5; 40]).unwrap();
        let err = csd.update_subgroup(request).unwrap_err();
        assert!(matches!(err, CsdError::Ssd(SsdError::OutOfBounds { .. })), "{err}");
        assert_eq!(csd.dram.used_bytes(), 0, "no leaked buffers after the failures");
        // ... which a subgroup inside it does not trip over.
        request.len = 40;
        csd.update_subgroup(request).unwrap();
    }

    #[test]
    fn a_stream_shorter_than_the_subgroup_is_an_error_before_anything_moves() {
        let optimizer = Optimizer::adam_default();
        let mut csd = CsdDevice::new("csd0", 1 << 26, u64::MAX / 4);
        csd.store_initial_state("s", &FlatTensor::randn(64, 0.02, 1), &optimizer).unwrap();
        // Compressed from 40 elements, offered to a 64-element shard.
        let short = Compressor::top_k(0.25).compress(&FlatTensor::randn(40, 0.01, 2));
        let full = Compressor::top_k(0.25).compress(&FlatTensor::randn(64, 0.01, 3));
        let request = SubgroupUpdate {
            shard: "s",
            offset: 0,
            len: 64,
            optimizer,
            step: 1,
            compressed: Some(&short),
        };
        let counters = |csd: &CsdDevice| {
            let ssd = csd.ssd();
            (csd.stats(), ssd.read_ops(), ssd.write_ops(), ssd.bytes_read(), ssd.bytes_written())
        };
        let before = counters(&csd);
        for (offset, len) in [(0usize, 64usize), (8, 33), (40, 1), (usize::MAX, 2)] {
            let err = csd.update_subgroup(SubgroupUpdate { offset, len, ..request }).unwrap_err();
            let expected = CompressError::SubgroupOutOfRange { offset, len, original_len: 40 };
            assert_eq!(err, CsdError::Compression(expected), "{err}");
        }
        assert_eq!(counters(&csd), before, "a refused update reads, writes and counts nothing");
        assert_eq!(csd.dram.used_bytes(), 0);
        // A subgroup the short stream does cover, and the full stream, go through.
        csd.update_subgroup(SubgroupUpdate { len: 40, ..request }).unwrap();
        csd.update_subgroup(SubgroupUpdate { compressed: Some(&full), ..request }).unwrap();
        assert_eq!(csd.stats().updates_run, 2);
    }

    #[test]
    fn fp16_read_back_matches_load_then_round() {
        let n = 3000;
        let optimizer = Optimizer::adam_default();
        let params = FlatTensor::randn(n, 3.0, 61);
        let mut csd = device();
        csd.store_initial_state("s", &params, &optimizer).unwrap();
        let reads_before = csd.ssd().read_ops();
        let mut direct = vec![9.0f32; 2000];
        csd.load_parameters_fp16_into("s", 500, &mut direct).unwrap();
        assert_eq!(csd.ssd().read_ops(), reads_before + 1, "one counted read");
        let mut expected = vec![0.0f32; 2000];
        csd.load_parameters("s", 500, 2000).unwrap().roundtrip_f16_into(&mut expected);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&direct), bits(&expected));
        let mut exact = vec![0.0f32; 2000];
        csd.load_parameters_into("s", 500, &mut exact).unwrap();
        assert_eq!(exact, params.as_slice()[500..2500]);
        // Failures are typed and leave the destination alone.
        let err = csd.load_parameters_fp16_into("s", 2000, &mut direct).unwrap_err();
        assert!(matches!(err, CsdError::Ssd(SsdError::OutOfBounds { .. })), "{err}");
        let err = csd.load_parameters_fp16_into("nope", 0, &mut direct).unwrap_err();
        assert!(matches!(err, CsdError::MissingShard { .. }), "{err}");
        assert_eq!(bits(&direct), bits(&expected));
    }

    #[test]
    fn threaded_device_updates_are_bit_identical_to_serial() {
        let optimizer = Optimizer::adam_default();
        // Dense and compressed requests; subgroups inside one tile, and a
        // subgroup with a ragged last tile; last, a subgroup long enough that
        // the workers really get a span of tiles each (the fan-out needs
        // `MIN_ELEMS_PER_WORKER` elements per worker), so span boundaries and
        // the per-span stream cursor are in play.
        let wide = 7 * parcore::MIN_ELEMS_PER_WORKER + 3 * TILE + 17;
        let cases: [(usize, &[usize]); 3] =
            [(4096, &[1500, 1500, 1096]), (3 * TILE + 400, &[383, 3 * TILE + 17]), (wide, &[wide])];
        for (n, subgroups) in cases {
            let params = FlatTensor::randn(n, 0.02, 31);
            let grads = FlatTensor::randn(n, 0.01, 32);
            for stream in [None, Some(Compressor::top_k(0.01).compress(&grads))] {
                let run = |threads: usize| {
                    let mut csd = CsdDevice::new("csd0", 1 << 30, 1 << 30);
                    csd.set_threads(threads);
                    assert_eq!(csd.executor().num_threads(), threads.max(1));
                    // As many cores as workers, whatever this machine has.
                    csd.executor = csd.executor.with_assumed_cpus(threads);
                    csd.store_initial_state("s", &params, &optimizer).unwrap();
                    csd.store_gradients("s", grads.as_slice()).unwrap();
                    let mut offset = 0;
                    for &len in subgroups {
                        let compressed = stream.as_ref();
                        csd.update_subgroup(SubgroupUpdate {
                            shard: "s",
                            offset,
                            len,
                            optimizer,
                            step: 1,
                            compressed,
                        })
                        .unwrap();
                        offset += len;
                    }
                    assert_eq!(offset, n);
                    let workers = csd.executor.workers_for(*subgroups.last().unwrap());
                    assert_eq!(csd.tile_scratch.len(), workers, "one tile set per worker");
                    let state = |csd: &mut CsdDevice, i| csd.load_optimizer_state("s", i, 0, n);
                    let aux = [state(&mut csd, 0).unwrap(), state(&mut csd, 1).unwrap()];
                    (csd.load_parameters("s", 0, n).unwrap(), aux, csd.stats())
                };
                let serial = run(1);
                // The serial device against the host optimizer on the whole shard.
                let dense = stream.as_ref().map_or_else(|| grads.clone(), |c| c.decompress());
                let mut host = params.clone();
                let mut host_aux = optimizer.init_aux(n);
                optimizer.step(host.as_mut_slice(), &dense, &mut host_aux, 1);
                assert_eq!(serial.0.as_slice(), host.as_slice(), "n={n}");
                assert_eq!(serial.1.as_slice(), host_aux.as_slice(), "n={n}");
                for threads in [2usize, 4, 7] {
                    assert_eq!(run(threads), serial, "n={n} threads={threads}");
                }
            }
        }
        assert_eq!(ParExecutor::new(7).with_assumed_cpus(7).workers_for(wide), 7);
    }

    #[test]
    fn a_write_gate_past_the_retry_budget_leaves_every_state_region_untouched() {
        use faultkit::{FaultOpKind, FaultPlan, FaultSpec};
        let n = 600;
        let budget = 1;
        let optimizer = Optimizer::adam_default();
        let params = FlatTensor::randn(n, 0.02, 71);
        let grads = FlatTensor::randn(n, 0.01, 72);
        // The gates of one dense Adam update, in order. Find a plan under
        // which the second write gate is the first to need more retries than
        // the budget allows.
        let (r, w) = (FaultOpKind::Read, FaultOpKind::Write);
        let gates = [r, r, r, r, w, w];
        let plan = (0..10_000)
            .map(|seed| {
                let mut spec = FaultSpec::empty(seed);
                spec.transient_per_mille = Some(400);
                spec.max_transient_burst = Some(3);
                FaultPlan::new(spec)
            })
            .find(|plan| {
                let mut injector = plan.injector(0);
                let mut burst = |kind| (0..).take_while(|_| injector.check(kind).is_err()).count();
                let bursts: Vec<usize> = gates.iter().map(|&kind| burst(kind)).collect();
                bursts[..5].iter().all(|&b| b <= budget) && bursts[5] > budget
            })
            .expect("some seed fails the second write gate first");

        let mut csd = device();
        csd.store_initial_state("s", &params, &optimizer).unwrap();
        csd.store_gradients("s", grads.as_slice()).unwrap();
        let regions = |csd: &CsdDevice| {
            let mut ssd = csd.ssd().clone();
            ssd.suspend_faults(true);
            ssd.region_names().iter().map(|r| ssd.read_region(r).unwrap()).collect::<Vec<_>>()
        };
        let ops = |csd: &CsdDevice| (csd.ssd().read_ops(), csd.ssd().write_ops());
        let (before, ops_before) = (regions(&csd), ops(&csd));
        csd.set_fault_injector(plan.injector(0));
        csd.set_retry_budget(budget as u32);
        let request =
            SubgroupUpdate { shard: "s", offset: 0, len: n, optimizer, step: 1, compressed: None };
        let err = csd.update_subgroup(request).unwrap_err();
        assert!(err.is_transient(), "{err}");

        // Five gates passed and were counted — four reads, the master write —
        // yet not one byte of state moved and no update ran.
        assert!(regions(&csd) == before, "a failed update moved state bytes");
        assert_eq!(ops(&csd), (ops_before.0 + 4, ops_before.1 + 1));
        let expected = CsdTrafficStats {
            p2p_read_bytes: 16 * n as u64,
            p2p_write_bytes: 4 * n as u64,
            updates_run: 0,
            elements_updated: 0,
        };
        assert_eq!(csd.stats(), expected);
        assert_eq!(csd.dram.used_bytes(), 0);

        // So the caller's whole-op retry applies the step exactly once.
        let mut attempts = 0;
        while csd.update_subgroup(request).is_err() {
            attempts += 1;
            assert!(attempts < 8, "the transient faults did not heal");
        }
        let mut host = params.clone();
        let mut host_aux = optimizer.init_aux(n);
        optimizer.step(host.as_mut_slice(), &grads, &mut host_aux, 1);
        csd.suspend_faults(true);
        assert_eq!(csd.load_parameters("s", 0, n).unwrap().as_slice(), host.as_slice());
        for (i, aux) in host_aux.iter().enumerate() {
            let stored = csd.load_optimizer_state("s", i, 0, n).unwrap();
            assert_eq!(stored.as_slice(), aux.as_slice(), "aux {i}");
        }
        assert_eq!(csd.stats().updates_run, 1);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut csd = device();
        let optimizer = Optimizer::adam_default();
        csd.store_initial_state("s", &FlatTensor::zeros(64), &optimizer).unwrap();
        csd.store_gradients("s", &[0.0; 64]).unwrap();
        csd.update_subgroup(SubgroupUpdate {
            shard: "s",
            offset: 0,
            len: 64,
            optimizer,
            step: 1,
            compressed: None,
        })
        .unwrap();
        assert!(csd.stats().p2p_read_bytes > 0);
        csd.reset_stats();
        assert_eq!(csd.stats(), CsdTrafficStats::default());
    }

    #[test]
    fn dropout_blocks_every_operation_until_rebuild() {
        let mut csd = device();
        let optimizer = Optimizer::adam_default();
        let params = FlatTensor::randn(64, 0.02, 41);
        csd.store_initial_state("s", &params, &optimizer).unwrap();
        csd.store_gradients("s", &[0.0; 64]).unwrap();

        csd.inject_dropout();
        assert!(csd.dropped);
        let err = csd.load_parameters("s", 0, 64).unwrap_err();
        assert!(matches!(err, CsdError::Dropout { ref device } if device == "csd0"));
        assert!(err.needs_rebuild());
        assert!(!err.is_transient());
        assert!(csd.store_gradients("s", &[0.0; 64]).is_err());
        assert!(csd
            .update_subgroup(SubgroupUpdate {
                shard: "s",
                offset: 0,
                len: 64,
                optimizer,
                step: 1,
                compressed: None,
            })
            .is_err());

        // Rebuild brings the device back with its media contents intact.
        let migrated = csd.rebuild();
        assert!(migrated > 0);
        assert!(!csd.dropped);
        let back = csd.load_parameters("s", 0, 64).unwrap();
        assert_eq!(back.as_slice(), params.as_slice());
    }

    #[test]
    fn ssd_wearout_propagates_and_rebuild_clears_it() {
        let mut csd = device();
        let optimizer = Optimizer::adam_default();
        csd.store_initial_state("s", &FlatTensor::zeros(32), &optimizer).unwrap();
        csd.inject_ssd_wearout();
        assert!(csd.is_worn_out());
        // Reads still succeed on worn media; writes fail.
        assert!(csd.load_parameters("s", 0, 32).is_ok());
        let err = csd.store_gradients("s", &[0.0; 32]).unwrap_err();
        assert!(matches!(err, CsdError::Ssd(SsdError::WornOut { .. })));
        assert!(err.needs_rebuild());
        csd.rebuild();
        assert!(!csd.is_worn_out());
        csd.store_gradients("s", &[0.0; 32]).unwrap();
    }

    #[test]
    fn injected_ssd_faults_chain_through_csd_errors() {
        use faultkit::{FaultPlan, FaultSpec};
        let mut spec = FaultSpec::empty(11);
        spec.transient_per_mille = Some(1000); // every op faults once per burst
        spec.max_transient_burst = Some(1);
        let plan = FaultPlan::new(spec);
        let mut csd = device();
        csd.set_fault_injector(plan.injector(0));
        let err = csd.store_gradients("s", &[0.0; 8]).unwrap_err();
        assert!(err.is_transient());
        assert!(matches!(err, CsdError::Ssd(SsdError::Injected { .. })));
        // The source chain reaches the injected-fault leaf.
        let ssd_err = err.source().expect("csd error wraps ssd error");
        assert!(ssd_err.source().is_some(), "ssd error chains to the injected fault");
        // Retry within the burst cap succeeds.
        csd.store_gradients("s", &[0.0; 8]).unwrap();
    }

    #[test]
    fn load_optimizer_state_reads_back_aux_tensors() {
        let n = 100;
        let optimizer = Optimizer::adam_default();
        let params = FlatTensor::randn(n, 0.02, 51);
        let grads = FlatTensor::randn(n, 0.01, 52);
        let mut csd = device();
        csd.store_initial_state("s", &params, &optimizer).unwrap();
        csd.store_gradients("s", grads.as_slice()).unwrap();
        // Before any update the aux tensors are zeroed.
        let aux0 = csd.load_optimizer_state("s", 0, 0, n).unwrap();
        assert!(aux0.as_slice().iter().all(|&x| x == 0.0));
        csd.update_subgroup(SubgroupUpdate {
            shard: "s",
            offset: 0,
            len: n,
            optimizer,
            step: 1,
            compressed: None,
        })
        .unwrap();
        // After an Adam step both moments are non-zero and match the host.
        let mut host_params = params.clone();
        let mut host_aux = optimizer.init_aux(n);
        optimizer.step(host_params.as_mut_slice(), &grads, &mut host_aux, 1);
        for (i, host) in host_aux.iter().enumerate().take(optimizer.kind().num_aux()) {
            let aux = csd.load_optimizer_state("s", i, 0, n).unwrap();
            assert_eq!(aux.as_slice(), host.as_slice(), "aux {i}");
        }
        // Unknown shard or aux index is reported as a missing shard.
        assert!(matches!(
            csd.load_optimizer_state("nope", 0, 0, 1),
            Err(CsdError::MissingShard { .. })
        ));
        assert!(matches!(
            csd.load_optimizer_state("s", 9, 0, 1),
            Err(CsdError::MissingShard { .. })
        ));
    }

    #[test]
    fn error_display_and_conversions() {
        let e: CsdError = SsdError::EmptyArray.into();
        assert!(e.to_string().contains("ssd error"));
        let e: CsdError = DramError::UnknownBuffer { id: 3 }.into();
        assert!(e.to_string().contains("device memory"));
        let e = CsdError::MissingShard { shard: "x".into() };
        assert!(e.to_string().contains("x"));
        let e: CsdError = CompressError::IndexSpaceExceeded { original_len: 1 << 40 }.into();
        assert!(e.to_string().contains("compression error"));
        assert!(e.to_string().contains("u32 index space"));
    }

    #[test]
    fn error_sources_chain_to_the_substrate_layer() {
        let e: CsdError = SsdError::EmptyArray.into();
        let source = e.source().expect("wrapped ssd error has a source");
        assert!(source.downcast_ref::<SsdError>().is_some());
        let e: CsdError = DramError::UnknownBuffer { id: 3 }.into();
        assert!(e.source().expect("source").downcast_ref::<DramError>().is_some());
        assert!(CsdError::MissingShard { shard: "x".into() }.source().is_none());
        let e: CsdError = CompressError::IndexSpaceExceeded { original_len: 1 << 40 }.into();
        assert!(e.source().expect("source").downcast_ref::<CompressError>().is_some());
    }
}
