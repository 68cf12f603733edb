//! Functional SSD model: a named-region byte store with capacity accounting.

use crate::error::SsdError;
use faultkit::{FaultInjector, FaultOpKind};
use std::collections::BTreeMap;

/// A byte-accurate model of one NVMe SSD.
///
/// Data is organised into named regions (one region per optimizer-state
/// tensor per parameter subgroup in the training engines). The device tracks
/// used capacity and rejects writes that would exceed it, mirroring the
/// pre-allocation the real system performs before training starts.
///
/// Devices are fail-free unless a fault plan opts in: an installed
/// [`FaultInjector`] makes individual operations fail transiently
/// ([`SsdError::Injected`]), and [`SsdDevice::inject_wearout`] turns the
/// media read-only ([`SsdError::WornOut`] on writes) until
/// [`SsdDevice::rebuild`] migrates it to a replacement.
#[derive(Debug, Clone, Default)]
pub struct SsdDevice {
    name: String,
    capacity: u64,
    regions: BTreeMap<String, Vec<u8>>,
    // Sum of the region lengths, maintained by every operation that changes
    // one (the capacity check runs on every whole-region write).
    used: u64,
    reads: u64,
    writes: u64,
    bytes_read: u64,
    bytes_written: u64,
    fault: Option<FaultInjector>,
    worn_out: bool,
    faults_suspended: bool,
    retry_budget: u32,
    fault_retries: u64,
    fault_backoff_ms: u64,
}

/// Which bytes of a region a read addresses.
#[derive(Debug, Clone, Copy)]
enum Span {
    /// The whole region, whatever its length.
    Whole,
    /// The whole region, which must have exactly this length.
    WholeOf(usize),
    /// `len` bytes starting at `offset`.
    Range { offset: usize, len: usize },
}

impl SsdDevice {
    /// Creates an empty device with the given capacity in bytes.
    pub fn new(name: impl Into<String>, capacity: u64) -> Self {
        Self { name: name.into(), capacity, ..Self::default() }
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently stored across all regions.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Number of read operations served.
    pub fn read_ops(&self) -> u64 {
        self.reads
    }

    /// Number of write operations served.
    pub fn write_ops(&self) -> u64 {
        self.writes
    }

    /// Total bytes read since creation.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Total bytes written since creation.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Installs a per-device transient-fault injector (from a fault plan).
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.fault = Some(injector);
    }

    /// Sets the device-internal retry budget for injected transient faults.
    ///
    /// With a positive budget the device retries a faulted operation in place
    /// (accumulating modeled backoff) instead of surfacing the error. This is
    /// the only place the stack retries a transient — for a RAID member and
    /// for a CSD's own SSD alike. Retrying at single-operation granularity is
    /// what makes recovery converge: a caller that retried a whole logical
    /// operation (a striped RAID write, a gated subgroup update) would
    /// re-execute already-succeeded ops at fresh op indices, where new fault
    /// bursts can fire and exhaust any outer budget.
    pub fn set_retry_budget(&mut self, budget: u32) {
        self.retry_budget = budget;
    }

    /// Drains the accumulated `(retries, modeled backoff ms)` spent absorbing
    /// transient faults device-internally since the last call.
    pub fn take_fault_events(&mut self) -> (u64, u64) {
        (std::mem::take(&mut self.fault_retries), std::mem::take(&mut self.fault_backoff_ms))
    }

    /// Suspends (or resumes) transient-fault injection. While suspended, the
    /// injector neither fires nor advances its operation stream — used by
    /// checkpoint/restore, whose maintenance traffic must not perturb the
    /// deterministic fault sequence of the training ops. Wear-out still
    /// applies.
    pub fn suspend_faults(&mut self, suspended: bool) {
        self.faults_suspended = suspended;
    }

    /// Marks the flash as worn out: reads keep working, writes fail with
    /// [`SsdError::WornOut`] until the device is [rebuilt](SsdDevice::rebuild).
    pub fn inject_wearout(&mut self) {
        self.worn_out = true;
    }

    /// Whether the media is currently worn out (read-only).
    pub(crate) fn is_worn_out(&self) -> bool {
        self.worn_out
    }

    /// Rebuilds the device onto a replacement: every region is read from the
    /// still-readable old media and written to fresh flash (the RAID-style
    /// rebuild traffic shows up in the byte counters), and the worn-out flag
    /// clears. Returns the number of bytes migrated.
    pub fn rebuild(&mut self) -> u64 {
        let bytes = self.used_bytes();
        let regions = self.regions.len() as u64;
        self.reads += regions;
        self.writes += regions;
        self.bytes_read += bytes;
        self.bytes_written += bytes;
        self.worn_out = false;
        bytes
    }

    /// Fault gate for write ops: permanent wear-out first, then any injected
    /// transient fault.
    fn check_write_faults(&mut self) -> Result<(), SsdError> {
        if self.worn_out {
            return Err(SsdError::WornOut { device: self.name.clone() });
        }
        if self.faults_suspended {
            return Ok(());
        }
        self.check_injected(FaultOpKind::Write)
    }

    /// Fault gate for read ops (worn-out media still reads).
    fn check_read_faults(&mut self) -> Result<(), SsdError> {
        if self.faults_suspended {
            return Ok(());
        }
        self.check_injected(FaultOpKind::Read)
    }

    /// Consults the injector, absorbing up to `retry_budget` consecutive
    /// failures in place with exponentially growing modeled backoff.
    fn check_injected(&mut self, kind: FaultOpKind) -> Result<(), SsdError> {
        let budget = u64::from(self.retry_budget);
        let Some(injector) = &mut self.fault else { return Ok(()) };
        let mut retries = 0u64;
        let mut backoff = 0u64;
        let result = loop {
            match injector.check(kind) {
                Ok(()) => break Ok(()),
                Err(fault) if retries >= budget => break Err(fault),
                Err(_) => {
                    retries += 1;
                    backoff += 1u64 << retries.min(16);
                }
            }
        };
        self.fault_retries += retries;
        self.fault_backoff_ms += backoff;
        result.map_err(|fault| SsdError::Injected { device: self.name.clone(), fault })
    }

    /// Whether the named region exists.
    pub fn has_region(&self, region: &str) -> bool {
        self.regions.contains_key(region)
    }

    /// Names of all regions in sorted order.
    pub fn region_names(&self) -> Vec<String> {
        self.regions.keys().cloned().collect()
    }

    /// Length in bytes of the named region, if it exists. Not an I/O
    /// operation: no fault gate, no counters.
    pub(crate) fn region_len(&self, region: &str) -> Option<usize> {
        self.regions.get(region).map(Vec::len)
    }

    /// Writes (creates or replaces) an entire region, taking ownership of
    /// `data` as the region's storage.
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::CapacityExceeded`] if the device would overflow.
    pub fn write_region(
        &mut self,
        region: impl Into<String>,
        data: Vec<u8>,
    ) -> Result<(), SsdError> {
        let region = region.into();
        self.admit_region_write(&region, data.len())?;
        self.resize_used(&region, data.len());
        self.regions.insert(region, data);
        Ok(())
    }

    /// Writes (creates or replaces) an entire region from a borrowed buffer,
    /// reusing the region's existing allocation: one copy, and no allocation
    /// once the region has reached its size.
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::CapacityExceeded`] if the device would overflow.
    pub fn write_region_from(&mut self, region: &str, data: &[u8]) -> Result<(), SsdError> {
        self.admit_region_write(region, data.len())?;
        self.refill_region(region, data.len()).extend_from_slice(data);
        Ok(())
    }

    /// The gate every whole-region write passes, in this order: fault gate,
    /// capacity check, then the op and byte counters move as if `len` bytes
    /// had replaced the region. Nothing else changes: the caller then
    /// replaces the region's bytes ([`SsdDevice::refill_region`]), or, in an
    /// [`UpdateTxn`], rewrites the same number of them in place.
    pub(crate) fn admit_region_write(&mut self, region: &str, len: usize) -> Result<(), SsdError> {
        self.check_write_faults()?;
        let existing = self.region_len(region).unwrap_or(0) as u64;
        let new_used = self.used - existing + len as u64;
        if new_used > self.capacity {
            return Err(SsdError::CapacityExceeded {
                device: self.name.clone(),
                requested: new_used,
                capacity: self.capacity,
            });
        }
        self.writes += 1;
        self.bytes_written += len as u64;
        Ok(())
    }

    /// Moves the used-capacity counter as `len` bytes replace the region.
    fn resize_used(&mut self, region: &str, len: usize) {
        let existing = self.region_len(region).unwrap_or(0) as u64;
        self.used = self.used - existing + len as u64;
    }

    /// Replaces a region that [`SsdDevice::admit_region_write`] admitted for
    /// `len` bytes by its emptied buffer, which the caller must extend by
    /// exactly `len` bytes (the RAID scatter appends its stripes here,
    /// straight from the caller's data).
    pub(crate) fn refill_region(&mut self, region: &str, len: usize) -> &mut Vec<u8> {
        self.resize_used(region, len);
        if !self.regions.contains_key(region) {
            self.regions.insert(region.to_string(), Vec::new());
        }
        let buf = self.regions.get_mut(region).expect("region was just ensured");
        buf.clear();
        buf.reserve_exact(len);
        buf
    }

    /// Overwrites a byte range inside an existing region.
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::UnknownRegion`] or [`SsdError::OutOfBounds`].
    pub fn write_at(&mut self, region: &str, offset: usize, data: &[u8]) -> Result<(), SsdError> {
        self.counted_write(region, offset, data.len())?.copy_from_slice(data);
        Ok(())
    }

    /// The one partial-write path: fault gate, lookup, bounds check, then the
    /// op and byte counters, in that order. The window is lent, so the caller
    /// fills the `len` bytes it was counted for.
    fn counted_write(
        &mut self,
        region: &str,
        offset: usize,
        len: usize,
    ) -> Result<&mut [u8], SsdError> {
        self.check_write_faults()?;
        let buf = self.regions.get_mut(region).ok_or_else(|| SsdError::UnknownRegion {
            device: self.name.clone(),
            region: region.to_string(),
        })?;
        let region_len = buf.len();
        let window = offset.checked_add(len).and_then(|end| buf.get_mut(offset..end));
        let Some(window) = window else {
            return Err(SsdError::OutOfBounds {
                region: region.to_string(),
                offset,
                len,
                region_len,
            });
        };
        self.writes += 1;
        self.bytes_written += len as u64;
        Ok(window)
    }

    /// The one read path: fault gate, lookup, bounds check, then the op and
    /// byte counters, in that order. The bytes are lent, so each caller makes
    /// the single copy it needs.
    fn counted_read(&mut self, region: &str, span: Span) -> Result<&[u8], SsdError> {
        self.check_read_faults()?;
        let data = self.regions.get(region).ok_or_else(|| SsdError::UnknownRegion {
            device: self.name.clone(),
            region: region.to_string(),
        })?;
        let bytes = match span {
            Span::Whole => data.as_slice(),
            Span::WholeOf(expected) if expected == data.len() => data.as_slice(),
            Span::WholeOf(expected) => {
                return Err(SsdError::LengthMismatch {
                    device: self.name.clone(),
                    region: region.to_string(),
                    expected,
                    actual: data.len(),
                })
            }
            Span::Range { offset, len } => offset
                .checked_add(len)
                .and_then(|end| data.get(offset..end))
                .ok_or_else(|| SsdError::OutOfBounds {
                    region: region.to_string(),
                    offset,
                    len,
                    region_len: data.len(),
                })?,
        };
        self.reads += 1;
        self.bytes_read += bytes.len() as u64;
        Ok(bytes)
    }

    /// One counted read of the whole region, which must be exactly
    /// `expected_len` bytes long (the RAID gather copies the stripes out of
    /// the lent bytes, straight into the caller's buffer).
    pub(crate) fn read_whole_region(
        &mut self,
        region: &str,
        expected_len: usize,
    ) -> Result<&[u8], SsdError> {
        self.counted_read(region, Span::WholeOf(expected_len))
    }

    /// Reads an entire region.
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::UnknownRegion`] if the region does not exist.
    pub fn read_region(&mut self, region: &str) -> Result<Vec<u8>, SsdError> {
        self.counted_read(region, Span::Whole).map(<[u8]>::to_vec)
    }

    /// Reads a byte range from a region into an existing buffer, replacing
    /// its contents and reusing its allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::UnknownRegion`] or [`SsdError::OutOfBounds`]; the
    /// buffer is left unchanged on error.
    pub fn read_at_into(
        &mut self,
        region: &str,
        offset: usize,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), SsdError> {
        let bytes = self.counted_read(region, Span::Range { offset, len })?;
        out.clear();
        out.extend_from_slice(bytes);
        Ok(())
    }

    /// Reads the `out.len()` bytes at `offset` of a region straight into
    /// `out` — a ranged read in destination-passing form: one copy, no
    /// allocation (the CSD's parameter and optimizer-state loads
    /// fill the caller's tensor through this).
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::UnknownRegion`] or [`SsdError::OutOfBounds`]; the
    /// buffer is left unchanged on error.
    pub fn read_exact_at(
        &mut self,
        region: &str,
        offset: usize,
        out: &mut [u8],
    ) -> Result<(), SsdError> {
        out.copy_from_slice(self.counted_read(region, Span::Range { offset, len: out.len() })?);
        Ok(())
    }

    /// One counted read of `len` bytes at `offset` of a region, lent to
    /// `consume` in place: for a reader that transforms the bytes on their
    /// way out (the FP16 read-back rounds them) instead of copying them.
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::UnknownRegion`] or [`SsdError::OutOfBounds`], in
    /// which case `consume` is not called.
    pub fn read_at_with<R>(
        &mut self,
        region: &str,
        offset: usize,
        len: usize,
        consume: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, SsdError> {
        self.counted_read(region, Span::Range { offset, len }).map(consume)
    }

    /// Opens an in-place update of byte windows of existing regions — see
    /// [`UpdateTxn`].
    pub fn begin_update(&mut self) -> UpdateTxn<'_> {
        UpdateTxn { ssd: self, windows: Vec::new() }
    }
}

/// One window of an [`UpdateTxn`]: `len` bytes at `offset` of `region`,
/// admitted for reading and, once `writable`, for being written back.
#[derive(Debug, Clone, Copy)]
struct TxnWindow<'a> {
    region: &'a str,
    offset: usize,
    len: usize,
    writable: bool,
}

/// An in-place update of byte windows of existing regions, for a reader that
/// transforms a region where it lies instead of copying it out and back (the
/// CSD updater streams optimizer state through cache-sized tiles this way).
///
/// The transaction has two phases. First every access is *admitted*, one
/// region at a time, through exactly the gate of the matching stand-alone
/// operation — [`UpdateTxn::admit_read`] is [`SsdDevice::read_at_into`] and
/// [`UpdateTxn::admit_write`] is [`SsdDevice::write_at`] up to the point where
/// bytes would move: fault decision, lookup, bounds check, op and byte
/// counters. A refused admission leaves the transaction as it was, so the
/// caller retries or gives up per gate. Then [`UpdateTxn::lend`] hands out the
/// admitted windows, and only those: bytes that were not gated and counted
/// for exactly that access never leave the device, and nothing is modified
/// unless every gate the caller wanted has passed.
#[derive(Debug)]
pub struct UpdateTxn<'a> {
    ssd: &'a mut SsdDevice,
    windows: Vec<TxnWindow<'a>>,
}

/// The windows an [`UpdateTxn`] admitted, each exactly the bytes its gates
/// counted, in admission order within each list.
#[derive(Debug)]
pub struct LentWindows<'a> {
    /// Windows admitted for reading and for being written back.
    pub read_write: Vec<&'a mut [u8]>,
    /// Windows admitted for reading only.
    pub read_only: Vec<&'a [u8]>,
}

impl<'a> UpdateTxn<'a> {
    /// Admits one counted read of `len` bytes at `offset` of `region`; on
    /// success the window joins the transaction under the next number
    /// (0, 1, …).
    ///
    /// # Errors
    ///
    /// Returns what [`SsdDevice::read_at_into`] would: an injected fault,
    /// [`SsdError::UnknownRegion`] or [`SsdError::OutOfBounds`].
    ///
    /// # Panics
    ///
    /// Panics if the transaction already holds a window of `region` (two
    /// windows of one buffer cannot both be lent).
    pub fn admit_read(
        &mut self,
        region: &'a str,
        offset: usize,
        len: usize,
    ) -> Result<(), SsdError> {
        assert!(
            self.windows.iter().all(|w| w.region != region),
            "region {region} admitted twice in one update transaction"
        );
        self.ssd.counted_read(region, Span::Range { offset, len })?;
        self.windows.push(TxnWindow { region, offset, len, writable: false });
        Ok(())
    }

    /// Admits one counted write of exactly the bytes of window number
    /// `window`, which [`UpdateTxn::lend`] then lends mutably.
    ///
    /// # Errors
    ///
    /// Returns what [`SsdDevice::write_at`] would: [`SsdError::WornOut`] or an
    /// injected fault (the lookup and bounds check cannot fail again).
    ///
    /// # Panics
    ///
    /// Panics if no read has been admitted under that number.
    pub fn admit_write(&mut self, window: usize) -> Result<(), SsdError> {
        let TxnWindow { region, offset, len, .. } = self.windows[window];
        self.ssd.counted_write(region, offset, len)?;
        self.windows[window].writable = true;
        Ok(())
    }

    /// A RAID member's read gate: the gate [`RaidArray::read_region_into`]
    /// passes on this member, one counted read of the whole of `region`,
    /// which must be exactly `len` bytes long. The window joins only once
    /// every member has passed ([`UpdateTxn::join_whole`]).
    ///
    /// [`RaidArray::read_region_into`]: crate::RaidArray::read_region_into
    pub(crate) fn gate_whole_read(&mut self, region: &str, len: usize) -> Result<(), SsdError> {
        assert!(
            self.windows.iter().all(|w| w.region != region),
            "region {region} admitted twice in one update transaction"
        );
        self.ssd.read_whole_region(region, len).map(drop)
    }

    /// A RAID member's write gate over window number `window`: the gate
    /// [`RaidArray::write_region`] passes on this member at the same length.
    /// The window turns writable only once every member has passed
    /// ([`UpdateTxn::grant_write`]).
    ///
    /// [`RaidArray::write_region`]: crate::RaidArray::write_region
    pub(crate) fn gate_whole_write(&mut self, window: usize) -> Result<(), SsdError> {
        let TxnWindow { region, len, .. } = self.windows[window];
        self.ssd.admit_region_write(region, len)
    }

    /// Adds the whole of `region`, `len` bytes whose read gate has passed,
    /// under the next window number.
    pub(crate) fn join_whole(&mut self, region: &'a str, len: usize) {
        self.windows.push(TxnWindow { region, offset: 0, len, writable: false });
    }

    /// Marks window number `window`, whose write gate has passed, writable.
    pub(crate) fn grant_write(&mut self, window: usize) {
        self.windows[window].writable = true;
    }

    /// Rebuilds the device if it is worn out; the bytes migrated, if it was.
    pub(crate) fn rebuild_if_worn(&mut self) -> Option<u64> {
        self.ssd.is_worn_out().then(|| self.ssd.rebuild())
    }

    /// Ends the admission phase and lends the admitted windows for as long
    /// as the device stays borrowed. Walks the device's regions once.
    pub fn lend(self) -> LentWindows<'a> {
        let UpdateTxn { ssd, windows } = self;
        let mut slots: Vec<Option<&'a mut [u8]>> = windows.iter().map(|_| None).collect();
        for (name, buf) in &mut ssd.regions {
            if let Some(k) = windows.iter().position(|w| w.region == name) {
                // In bounds: both gates checked this range against this buffer.
                slots[k] = Some(&mut buf[windows[k].offset..windows[k].offset + windows[k].len]);
            }
        }
        let mut lent = LentWindows { read_write: Vec::new(), read_only: Vec::new() };
        for (window, bytes) in windows.iter().zip(slots) {
            let bytes = bytes.expect("an admitted region exists");
            if window.writable {
                lent.read_write.push(bytes);
            } else {
                lent.read_only.push(bytes);
            }
        }
        lent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn write_then_read_returns_the_same_bytes() {
        let mut ssd = SsdDevice::new("ssd0", 1024);
        ssd.write_region("a", vec![1, 2, 3]).unwrap();
        assert_eq!(ssd.read_region("a").unwrap(), vec![1, 2, 3]);
        assert!(ssd.has_region("a"));
        assert!(!ssd.has_region("b"));
        assert_eq!(ssd.region_names(), vec!["a".to_string()]);
        assert_eq!(ssd.name(), "ssd0");
        assert_eq!(ssd.capacity(), 1024);
    }

    #[test]
    fn capacity_is_enforced_across_regions() {
        let mut ssd = SsdDevice::new("ssd0", 10);
        ssd.write_region("a", vec![0; 6]).unwrap();
        assert!(matches!(
            ssd.write_region("b", vec![0; 5]),
            Err(SsdError::CapacityExceeded { .. })
        ));
        // Replacing an existing region reuses its space.
        ssd.write_region("a", vec![0; 10]).unwrap();
        assert_eq!(ssd.used_bytes(), 10);
    }

    #[test]
    fn partial_reads_and_writes_address_correct_bytes() {
        let mut ssd = SsdDevice::new("ssd0", 100);
        ssd.write_region("p", (0u8..10).collect()).unwrap();
        assert_eq!(ssd.read_at_with("p", 2, 3, <[u8]>::to_vec).unwrap(), vec![2, 3, 4]);
        ssd.write_at("p", 8, &[99, 100]).unwrap();
        assert_eq!(ssd.read_at_with("p", 8, 2, <[u8]>::to_vec).unwrap(), vec![99, 100]);
        assert!(matches!(ssd.read_at_with("p", 9, 5, |_| ()), Err(SsdError::OutOfBounds { .. })));
        assert!(matches!(ssd.write_at("p", 9, &[0; 5]), Err(SsdError::OutOfBounds { .. })));
        assert!(matches!(ssd.read_at_with("q", 0, 1, |_| ()), Err(SsdError::UnknownRegion { .. })));
        assert!(matches!(ssd.write_at("q", 0, &[1]), Err(SsdError::UnknownRegion { .. })));
    }

    #[test]
    fn statistics_track_traffic() {
        let mut ssd = SsdDevice::new("ssd0", 1000);
        ssd.write_region("a", vec![0; 100]).unwrap();
        ssd.read_region("a").unwrap();
        ssd.read_at_with("a", 0, 10, |_| ()).unwrap();
        assert_eq!(ssd.write_ops(), 1);
        assert_eq!(ssd.read_ops(), 2);
        assert_eq!(ssd.bytes_written(), 100);
        assert_eq!(ssd.bytes_read(), 110);
    }

    #[test]
    fn wearout_makes_writes_fail_until_rebuild() {
        let mut ssd = SsdDevice::new("ssd0", 1024);
        ssd.write_region("a", vec![7; 100]).unwrap();
        ssd.inject_wearout();
        assert!(ssd.is_worn_out());
        // Reads keep working (read-only media), writes fail.
        assert_eq!(ssd.read_region("a").unwrap(), vec![7; 100]);
        assert!(matches!(ssd.write_region("b", vec![0; 4]), Err(SsdError::WornOut { .. })));
        assert!(matches!(ssd.write_at("a", 0, &[1]), Err(SsdError::WornOut { .. })));
        let before = (ssd.bytes_read(), ssd.bytes_written());
        let migrated = ssd.rebuild();
        assert_eq!(migrated, 100);
        assert!(!ssd.is_worn_out());
        // Rebuild traffic shows up in both directions.
        assert_eq!(ssd.bytes_read(), before.0 + 100);
        assert_eq!(ssd.bytes_written(), before.1 + 100);
        // Data survives and writes work again.
        assert_eq!(ssd.read_region("a").unwrap(), vec![7; 100]);
        ssd.write_at("a", 0, &[1]).unwrap();
    }

    #[test]
    fn injected_faults_heal_on_retry_and_replay_deterministically() {
        use faultkit::{FaultPlan, FaultSpec};
        let plan =
            FaultPlan::new(FaultSpec { transient_per_mille: Some(400), ..FaultSpec::empty(11) })
                .unwrap();
        let run = || {
            let mut ssd = SsdDevice::new("ssd0", 1 << 16);
            ssd.set_fault_injector(plan.injector(0));
            let mut failures = Vec::new();
            for i in 0..200 {
                let mut attempts = 0;
                loop {
                    match ssd.write_region(format!("r{i}"), vec![i as u8; 16]) {
                        Ok(()) => break,
                        Err(e) => {
                            assert!(matches!(e, SsdError::Injected { .. }), "unexpected error {e}");
                            attempts += 1;
                            assert!(attempts <= 4, "transient fault did not heal");
                        }
                    }
                }
                failures.push(attempts);
            }
            failures
        };
        let a = run();
        assert!(a.iter().any(|&n| n > 0), "no faults fired at 40%");
        assert_eq!(a, run(), "fault schedule must replay bit-identically");
    }

    #[test]
    fn suspended_injectors_neither_fire_nor_advance_the_op_stream() {
        use faultkit::{FaultPlan, FaultSpec};
        let plan =
            FaultPlan::new(FaultSpec { transient_per_mille: Some(500), ..FaultSpec::empty(23) })
                .unwrap();
        // Reference: the fault pattern over 50 ops with no suspension.
        let pattern = |maintenance_ops: usize| {
            let mut ssd = SsdDevice::new("s", 1 << 20);
            ssd.set_fault_injector(plan.injector(0));
            // Maintenance traffic (e.g. checkpointing) under suspension must
            // not consume fault decisions.
            ssd.suspend_faults(true);
            for i in 0..maintenance_ops {
                ssd.write_region(format!("m{i}"), vec![0u8; 8]).unwrap();
            }
            ssd.suspend_faults(false);
            let mut faults = Vec::new();
            for i in 0..50 {
                let mut n = 0;
                while ssd.write_region(format!("r{i}"), vec![1u8; 8]).is_err() {
                    n += 1;
                }
                faults.push(n);
            }
            faults
        };
        let clean = pattern(0);
        assert!(clean.iter().any(|&n| n > 0));
        assert_eq!(pattern(7), clean, "suspended ops must not shift the fault schedule");
    }

    #[test]
    fn used_bytes_tracks_every_operation_that_changes_a_region() {
        let sum = |ssd: &SsdDevice| -> u64 {
            ssd.region_names().iter().map(|r| ssd.region_len(r).unwrap() as u64).sum()
        };
        let mut ssd = SsdDevice::new("ssd0", 100);
        ssd.write_region("a", vec![0; 40]).unwrap();
        ssd.write_region_from("b", &[1; 30]).unwrap();
        assert_eq!((ssd.used_bytes(), sum(&ssd)), (70, 70));
        // Replacing (shrinking, growing) moves the counter by the difference.
        ssd.write_region_from("a", &[2; 10]).unwrap();
        ssd.write_region("b", vec![3; 60]).unwrap();
        assert_eq!((ssd.used_bytes(), sum(&ssd)), (70, 70));
        // A refused write changes nothing.
        assert!(matches!(
            ssd.write_region_from("a", &[0; 41]),
            Err(SsdError::CapacityExceeded { requested: 101, capacity: 100, .. })
        ));
        assert_eq!((ssd.used_bytes(), ssd.write_ops()), (70, 4));
        assert_eq!(ssd.read_region("a").unwrap(), vec![2; 10]);
        // Partial writes, rebuilds and emptied regions keep it exact.
        ssd.write_at("b", 5, &[9; 5]).unwrap();
        assert_eq!(ssd.rebuild(), 70);
        assert_eq!(ssd.used_bytes(), 70);
        ssd.write_region_from("b", &[]).unwrap();
        assert_eq!((ssd.used_bytes(), sum(&ssd)), (10, 10));
        ssd.write_region_from("c", &[0; 90]).unwrap();
        assert_eq!(ssd.used_bytes(), 100);
    }

    #[test]
    fn destination_passing_reads_count_like_the_allocating_ones() {
        let mut ssd = SsdDevice::new("ssd0", 100);
        ssd.write_region_from("p", &(0u8..10).collect::<Vec<_>>()).unwrap();
        let mut window = [0u8; 3];
        ssd.read_exact_at("p", 2, &mut window).unwrap();
        assert_eq!(window, [2, 3, 4]);
        let doubled = ssd.read_at_with("p", 8, 2, |b| b.iter().map(|v| v * 2).collect::<Vec<_>>());
        assert_eq!(doubled.unwrap(), vec![16, 18]);
        assert_eq!((ssd.read_ops(), ssd.bytes_read()), (2, 5));
        // Errors are typed, leave the destination alone and count nothing —
        // including offsets whose end does not fit in a `usize`.
        for offset in [9usize, usize::MAX] {
            assert!(matches!(
                ssd.read_exact_at("p", offset, &mut window),
                Err(SsdError::OutOfBounds { .. })
            ));
            assert!(matches!(
                ssd.write_at("p", offset, &[0; 3]),
                Err(SsdError::OutOfBounds { .. })
            ));
        }
        let mut called = false;
        assert!(matches!(
            ssd.read_at_with("q", 0, 1, |_| called = true),
            Err(SsdError::UnknownRegion { .. })
        ));
        assert!(!called);
        assert_eq!(window, [2, 3, 4]);
        assert_eq!((ssd.read_ops(), ssd.bytes_read(), ssd.write_ops()), (2, 5, 1));
    }

    #[test]
    fn an_update_transaction_counts_like_the_stand_alone_ops_and_lends_only_what_it_admitted() {
        let mut ssd = SsdDevice::new("ssd0", 100);
        let mut plain = SsdDevice::new("ssd0", 100);
        for dev in [&mut ssd, &mut plain] {
            dev.write_region("a", (0u8..10).collect()).unwrap();
            dev.write_region("b", (10u8..20).collect()).unwrap();
            dev.write_region("c", vec![7; 4]).unwrap();
        }
        // The stand-alone sequence: R a, R b, W a.
        let a = plain.read_at_with("a", 2, 4, <[u8]>::to_vec).unwrap();
        plain.read_at_with("b", 0, 3, |_| ()).unwrap();
        plain.write_at("a", 2, &a.iter().map(|v| v + 100).collect::<Vec<_>>()).unwrap();

        let mut txn = ssd.begin_update();
        txn.admit_read("a", 2, 4).unwrap();
        // Refused admissions are typed, count nothing and add no window.
        assert!(matches!(txn.admit_read("q", 0, 1), Err(SsdError::UnknownRegion { .. })));
        for offset in [8usize, usize::MAX] {
            assert!(matches!(txn.admit_read("c", offset, 3), Err(SsdError::OutOfBounds { .. })));
        }
        txn.admit_read("b", 0, 3).unwrap();
        txn.admit_write(0).unwrap();
        let LentWindows { mut read_write, read_only } = txn.lend();
        assert_eq!((read_write.len(), read_only.len()), (1, 1));
        assert_eq!(read_only[0], [10, 11, 12]);
        assert_eq!(read_write[0], [2, 3, 4, 5]);
        read_write[0].iter_mut().for_each(|v| *v += 100);

        let counters =
            |d: &SsdDevice| (d.read_ops(), d.write_ops(), d.bytes_read(), d.bytes_written());
        assert_eq!(counters(&ssd), counters(&plain));
        for region in ["a", "b", "c"] {
            assert_eq!(ssd.regions[region], plain.regions[region], "{region}");
        }
    }

    #[test]
    fn a_refused_write_gate_leaves_the_transaction_retryable_and_the_bytes_alone() {
        use faultkit::{FaultPlan, FaultSpec};
        let mut spec = FaultSpec::empty(11);
        spec.transient_per_mille = Some(1000); // every op faults once per burst
        spec.max_transient_burst = Some(1);
        let mut ssd = SsdDevice::new("ssd0", 100);
        ssd.write_region("a", vec![1; 8]).unwrap();
        ssd.set_fault_injector(FaultPlan::new(spec).unwrap().injector(0));
        let injected = |e: SsdError| matches!(e, SsdError::Injected { .. });
        let mut txn = ssd.begin_update();
        assert!(injected(txn.admit_read("a", 0, 8).unwrap_err()));
        txn.admit_read("a", 0, 8).unwrap();
        assert!(injected(txn.admit_write(0).unwrap_err()));
        // Given up here: the window was never admitted for writing, so it is
        // lent read-only and nothing was written or counted as written.
        let lent = txn.lend();
        assert!(lent.read_write.is_empty());
        assert_eq!(lent.read_only, [&[1u8; 8][..]]);
        assert_eq!((ssd.read_ops(), ssd.write_ops(), ssd.bytes_written()), (1, 1, 8));
        // Worn-out media refuses the write gate too.
        ssd.inject_wearout();
        let mut txn = ssd.begin_update();
        while txn.admit_read("a", 0, 8).is_err() {}
        assert!(matches!(txn.admit_write(0), Err(SsdError::WornOut { .. })));
    }

    #[test]
    #[should_panic(expected = "admitted twice")]
    fn one_region_cannot_hold_two_windows_of_a_transaction() {
        let mut ssd = SsdDevice::new("ssd0", 100);
        ssd.write_region("a", vec![0; 8]).unwrap();
        let mut txn = ssd.begin_update();
        txn.admit_read("a", 0, 2).unwrap();
        let _ = txn.admit_read("a", 4, 2);
    }

    proptest! {
        /// Any sequence of whole-region writes followed by reads returns the
        /// most recently written data for every region.
        #[test]
        fn last_write_wins(
            writes in proptest::collection::vec((0u8..4, proptest::collection::vec(any::<u8>(), 0..64)), 1..40)
        ) {
            let mut ssd = SsdDevice::new("ssd", 1 << 20);
            let mut expected: std::collections::BTreeMap<u8, Vec<u8>> = Default::default();
            for (region, data) in writes {
                ssd.write_region(format!("r{region}"), data.clone()).unwrap();
                expected.insert(region, data);
            }
            for (region, data) in expected {
                prop_assert_eq!(ssd.read_region(&format!("r{region}")).unwrap(), data);
            }
        }
    }
}
