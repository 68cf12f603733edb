//! RAID0 striping across multiple SSD devices.
//!
//! The paper's baseline combines SSDs with Linux software RAID0 (mdadm). The
//! useful properties for this reproduction are (a) the striping function —
//! how a logical byte range maps to per-device ranges — and (b) the byte
//! accounting: a B-byte logical transfer becomes ~B/N bytes on each of the N
//! devices, which is what makes the aggregate bandwidth scale until the
//! shared host interconnect saturates (Fig. 3b).

use crate::error::SsdError;
use crate::store::{LentWindows, SsdDevice, UpdateTxn};
use faultkit::FaultPlan;

/// A point-in-time snapshot of an array's cumulative byte counters.
///
/// Snapshot before and after an operation and subtract with
/// [`StorageCounters::delta_since`] to attribute traffic to that operation —
/// this is how the per-step telemetry in `ztrain`'s `StepReport` is produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageCounters {
    /// Cumulative bytes read across all member devices.
    pub bytes_read: u64,
    /// Cumulative bytes written across all member devices.
    pub bytes_written: u64,
}

impl StorageCounters {
    /// The traffic accrued between `earlier` and `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` was taken after `self` (counters are monotone).
    pub fn delta_since(&self, earlier: &StorageCounters) -> StorageCounters {
        StorageCounters {
            bytes_read: self
                .bytes_read
                .checked_sub(earlier.bytes_read)
                .expect("counter snapshots out of order"),
            bytes_written: self
                .bytes_written
                .checked_sub(earlier.bytes_written)
                .expect("counter snapshots out of order"),
        }
    }
}

/// A RAID0 array: a stripe layout over a set of member devices.
#[derive(Debug, Clone)]
pub struct RaidArray {
    devices: Vec<SsdDevice>,
    stripe_bytes: usize,
}

impl RaidArray {
    /// Creates an array over the given member devices with the given stripe
    /// (chunk) size in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::EmptyArray`] if `devices` is empty.
    ///
    /// # Panics
    ///
    /// Panics if `stripe_bytes` is zero.
    pub fn new(devices: Vec<SsdDevice>, stripe_bytes: usize) -> Result<Self, SsdError> {
        if devices.is_empty() {
            return Err(SsdError::EmptyArray);
        }
        assert!(stripe_bytes > 0, "stripe size must be positive");
        Ok(Self { devices, stripe_bytes })
    }

    /// Number of member devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Immutable access to the member devices.
    pub fn devices(&self) -> &[SsdDevice] {
        &self.devices
    }

    /// Installs the plan's transient-fault injector on every member — member
    /// `i` is device `first + i` of the plan — with the plan's retry budget
    /// applied *per member operation*.
    ///
    /// Member-level retry matters because logical RAID operations stripe over
    /// several devices: retrying the whole logical operation would replay
    /// already-succeeded member ops at fresh op indices where new fault
    /// bursts can fire, so a bounded outer budget could never be guaranteed
    /// to converge. A single member op retried in place re-sees the same
    /// deterministic decision, whose burst is validated to stay below the
    /// budget.
    pub fn install_faults(&mut self, plan: &FaultPlan, first: u64) {
        for (i, device) in (first..).zip(&mut self.devices) {
            device.set_fault_injector(plan.injector(i));
            device.set_retry_budget(plan.max_retries());
        }
    }

    /// Drains the accumulated `(retries, modeled backoff ms)` every member
    /// spent absorbing transient faults since the last call.
    pub fn take_fault_events(&mut self) -> (u64, u64) {
        self.devices
            .iter_mut()
            .map(SsdDevice::take_fault_events)
            .fold((0, 0), |(retries, backoff), (r, b)| (retries + r, backoff + b))
    }

    /// Suspends (or resumes) transient-fault injection on every member — see
    /// [`SsdDevice::suspend_faults`].
    pub fn suspend_faults(&mut self, suspended: bool) {
        for device in &mut self.devices {
            device.suspend_faults(suspended);
        }
    }

    /// Wears out member `index` (writes to it fail until it is rebuilt).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn inject_wearout(&mut self, index: usize) {
        self.devices[index].inject_wearout();
    }

    /// Rebuilds the lowest-indexed worn-out member onto a replacement device,
    /// migrating its regions and accounting the rebuild traffic. Returns the
    /// bytes moved (0 if no member is worn out).
    pub fn rebuild_worn(&mut self) -> u64 {
        let worn = self.devices.iter_mut().find(|device| device.is_worn_out());
        worn.map_or(0, SsdDevice::rebuild)
    }

    /// How many bytes of a `total`-byte logical region land on member
    /// `device`: whole stripes dealt round-robin, the short last stripe (if
    /// any) to whichever member is next.
    fn share_of(&self, total: usize, device: usize) -> usize {
        let n = self.devices.len();
        let full_stripes = total / self.stripe_bytes;
        let mut share = (full_stripes / n) * self.stripe_bytes;
        if device < full_stripes % n {
            share += self.stripe_bytes;
        } else if device == full_stripes % n {
            share += total % self.stripe_bytes;
        }
        share
    }

    /// Writes a logical region, striping it across the member devices: one
    /// whole-region write per member, in member order, each stripe copied
    /// once from `data` into the member's (reused) region buffer. Every
    /// member's gate passes before any bytes move.
    ///
    /// # Errors
    ///
    /// Propagates capacity and fault errors from the member devices. Nothing
    /// is then written, but the members before the failing one have counted
    /// their write.
    pub fn write_region(&mut self, region: &str, data: &[u8]) -> Result<(), SsdError> {
        let n = self.devices.len();
        for device in 0..n {
            let share = self.share_of(data.len(), device);
            self.devices[device].admit_region_write(region, share)?;
        }
        for device in 0..n {
            let share = self.share_of(data.len(), device);
            let buf = self.devices[device].refill_region(region, share);
            for stripe in data.chunks(self.stripe_bytes).skip(device).step_by(n) {
                buf.extend_from_slice(stripe);
            }
            debug_assert_eq!(buf.len(), share, "stripes dealt to a member add up to its share");
        }
        Ok(())
    }

    /// Reads a logical region back into `out`, whose length says how long the
    /// region is: one whole-region read per member, in member order, each
    /// stripe copied once from the member's region buffer to its place in
    /// `out`.
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::UnknownRegion`] if a member lacks the region and
    /// [`SsdError::LengthMismatch`] if a member's region is not its share of
    /// `out.len()` bytes; `out` is then partly overwritten.
    pub fn read_region_into(&mut self, region: &str, out: &mut [u8]) -> Result<(), SsdError> {
        let n = self.devices.len();
        let stripe_bytes = self.stripe_bytes;
        for device in 0..n {
            let share = self.share_of(out.len(), device);
            let shard = self.devices[device].read_whole_region(region, share)?;
            // The member's k-th stripe is the logical region's (k·n + device)-th.
            for (k, stripe) in shard.chunks(stripe_bytes).enumerate() {
                let at = (k * n + device) * stripe_bytes;
                out[at..at + stripe.len()].copy_from_slice(stripe);
            }
        }
        Ok(())
    }

    /// Reads a logical region back, reassembling the stripes. The region's
    /// length is the sum of what the members hold.
    ///
    /// # Errors
    ///
    /// As [`RaidArray::read_region_into`].
    pub fn read_region(&mut self, region: &str) -> Result<Vec<u8>, SsdError> {
        let total = self.devices.iter().filter_map(|d| d.region_len(region)).sum();
        let mut out = vec![0u8; total];
        self.read_region_into(region, &mut out)?;
        Ok(out)
    }

    /// Opens an in-place update of whole logical regions of `len` bytes each
    /// — see [`RaidUpdateTxn`].
    pub fn begin_update(&mut self, len: usize) -> RaidUpdateTxn<'_> {
        let shares = (0..self.devices.len()).map(|device| self.share_of(len, device)).collect();
        let members = self.devices.iter_mut().map(SsdDevice::begin_update).collect();
        RaidUpdateTxn { members, shares, stripe_bytes: self.stripe_bytes }
    }

    /// Both cumulative byte counters, summed over the members, as one
    /// snapshot.
    pub fn counters(&self) -> StorageCounters {
        StorageCounters {
            bytes_read: self.devices.iter().map(SsdDevice::bytes_read).sum(),
            bytes_written: self.devices.iter().map(SsdDevice::bytes_written).sum(),
        }
    }
}

/// An in-place update of whole logical regions of one length, striped over
/// the members: the array-wide form of [`UpdateTxn`], one per member, for
/// an updater that steps a region where the members hold it instead of
/// gathering it into a buffer and scattering it back.
///
/// Each logical admission passes, member by member in member order, the
/// member gate of the matching copying operation:
/// [`RaidUpdateTxn::admit_read`] is [`RaidArray::read_region_into`] (fault
/// decision, lookup, exact-length check, counters) and
/// [`RaidUpdateTxn::admit_write`] is [`RaidArray::write_region`] at the same
/// length (wear-out, fault decision, capacity, counters). A refused admission
/// leaves the transaction as it was, except that the members before the
/// refusing one have counted their op, exactly as the copying operation
/// would have; a retry runs every member's gate again.
/// [`RaidUpdateTxn::rebuild_worn`] rebuilds a worn-out member in between.
/// Then [`RaidUpdateTxn::lend`] hands out every member's admitted windows and
/// only those, so nothing is modified unless every gate the caller wanted has
/// passed.
#[derive(Debug)]
pub struct RaidUpdateTxn<'a> {
    members: Vec<UpdateTxn<'a>>,
    // Each member's share of a logical region.
    shares: Vec<usize>,
    stripe_bytes: usize,
}

impl<'a> RaidUpdateTxn<'a> {
    /// Admits the whole of logical region `region` for reading; on success
    /// its windows join the transaction under the next number (0, 1, …).
    ///
    /// # Errors
    ///
    /// Returns what [`RaidArray::read_region_into`] would: an injected fault,
    /// [`SsdError::UnknownRegion`] or [`SsdError::LengthMismatch`].
    ///
    /// # Panics
    ///
    /// Panics if the transaction already holds `region`.
    pub fn admit_read(&mut self, region: &'a str) -> Result<(), SsdError> {
        for (member, &share) in self.members.iter_mut().zip(&self.shares) {
            member.gate_whole_read(region, share)?;
        }
        for (member, &share) in self.members.iter_mut().zip(&self.shares) {
            member.join_whole(region, share);
        }
        Ok(())
    }

    /// Admits the region read under number `window` for being written back
    /// whole.
    ///
    /// # Errors
    ///
    /// Returns what [`RaidArray::write_region`] would at the same length:
    /// [`SsdError::WornOut`] or an injected fault.
    ///
    /// # Panics
    ///
    /// Panics if no read has been admitted under that number.
    pub fn admit_write(&mut self, window: usize) -> Result<(), SsdError> {
        for member in &mut self.members {
            member.gate_whole_write(window)?;
        }
        for member in &mut self.members {
            member.grant_write(window);
        }
        Ok(())
    }

    /// Rebuilds the lowest-indexed worn-out member, as
    /// [`RaidArray::rebuild_worn`] does; returns the bytes migrated (0 if
    /// no member is worn out). The admitted windows stay admitted.
    pub fn rebuild_worn(&mut self) -> u64 {
        self.members.iter_mut().find_map(UpdateTxn::rebuild_if_worn).unwrap_or(0)
    }

    /// Ends the admission phase and lends every member's admitted windows.
    pub fn lend(self) -> LentStripes<'a> {
        let RaidUpdateTxn { members, shares, stripe_bytes } = self;
        LentStripes {
            members: members.into_iter().map(UpdateTxn::lend).collect(),
            shares,
            stripe_bytes,
        }
    }
}

/// The windows a [`RaidUpdateTxn`] admitted: each member's share of every
/// admitted logical region.
#[derive(Debug)]
pub struct LentStripes<'a> {
    // Per member, in member order: its windows and its share of a region.
    members: Vec<LentWindows<'a>>,
    shares: Vec<usize>,
    stripe_bytes: usize,
}

impl LentStripes<'_> {
    /// Calls `f` once per stripe the logical regions span, member by member
    /// and stripe by stripe within a member, with the stripe's byte offset in
    /// the logical regions and that stripe of every window: the read-write
    /// windows, then the read-only ones, each in admission order. A member's
    /// `k`-th stripe is the logical regions' `(k·n + member)`-th.
    pub fn for_each_stripe(self, mut f: impl FnMut(usize, &mut [&mut [u8]], &[&[u8]])) {
        let LentStripes { members, shares, stripe_bytes } = self;
        let n = members.len();
        for (device, (lent, share)) in members.into_iter().zip(shares).enumerate() {
            let LentWindows { mut read_write, read_only } = lent;
            for (k, start) in (0..share).step_by(stripe_bytes).enumerate() {
                let stripe = start..share.min(start + stripe_bytes);
                let mut states: Vec<&mut [u8]> =
                    read_write.iter_mut().map(|w| &mut w[stripe.clone()]).collect();
                let inputs: Vec<&[u8]> = read_only.iter().map(|w| &w[stripe.clone()]).collect();
                f((k * n + device) * stripe_bytes, &mut states, &inputs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn array(n: usize, stripe: usize) -> RaidArray {
        let devices = (0..n).map(|i| SsdDevice::new(format!("ssd{i}"), 1 << 24)).collect();
        RaidArray::new(devices, stripe).unwrap()
    }

    /// How many bytes of a `total`-byte logical region land on each device.
    fn bytes_per_device(raid: &RaidArray, total: usize) -> Vec<usize> {
        (0..raid.devices.len()).map(|device| raid.share_of(total, device)).collect()
    }

    #[test]
    fn empty_array_is_rejected() {
        assert_eq!(RaidArray::new(vec![], 64).unwrap_err(), SsdError::EmptyArray);
    }

    #[test]
    fn roundtrip_reassembles_the_original_data() {
        let mut raid = array(3, 4);
        let data: Vec<u8> = (0..103u8).collect();
        raid.write_region("r", &data).unwrap();
        assert_eq!(raid.read_region("r").unwrap(), data);
        assert_eq!(raid.num_devices(), 3);
        assert_eq!(raid.stripe_bytes, 4);
    }

    #[test]
    fn striping_balances_bytes_across_devices() {
        let raid = array(4, 10);
        let per = bytes_per_device(&raid, 100);
        assert_eq!(per.iter().sum::<usize>(), 100);
        assert_eq!(per, vec![30, 30, 20, 20]);
        let per = bytes_per_device(&raid, 7);
        assert_eq!(per, vec![7, 0, 0, 0]);
    }

    #[test]
    fn traffic_counters_aggregate_members() {
        let mut raid = array(2, 8);
        raid.write_region("x", &[0u8; 64]).unwrap();
        raid.read_region("x").unwrap();
        assert_eq!(raid.counters(), StorageCounters { bytes_read: 64, bytes_written: 64 });
        assert!(raid.devices().iter().all(|d| d.bytes_written() == 32));
    }

    #[test]
    fn counter_snapshots_attribute_traffic_to_an_operation() {
        let mut raid = array(2, 8);
        raid.write_region("x", &[0u8; 64]).unwrap();
        let before = raid.counters();
        assert_eq!(before, StorageCounters { bytes_read: 0, bytes_written: 64 });
        raid.read_region("x").unwrap();
        raid.write_region("y", &[0u8; 16]).unwrap();
        let delta = raid.counters().delta_since(&before);
        assert_eq!(delta, StorageCounters { bytes_read: 64, bytes_written: 16 });
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_snapshots_panic() {
        let a = StorageCounters { bytes_read: 0, bytes_written: 0 };
        let b = StorageCounters { bytes_read: 8, bytes_written: 0 };
        let _ = a.delta_since(&b);
    }

    #[test]
    fn worn_member_fails_writes_and_rebuild_restores_the_array() {
        let mut raid = array(3, 8);
        let data: Vec<u8> = (0..96u8).collect();
        raid.write_region("r", &data).unwrap();
        raid.inject_wearout(1);
        assert!(raid.devices()[1].is_worn_out());
        // A striped write crosses the worn member and fails.
        assert!(matches!(raid.write_region("r", &data), Err(SsdError::WornOut { .. })));
        // Reads still reassemble (read-only media).
        assert_eq!(raid.read_region("r").unwrap(), data);
        let migrated = raid.rebuild_worn();
        assert_eq!(migrated, 32);
        assert_eq!(raid.rebuild_worn(), 0, "nothing left to rebuild");
        raid.write_region("r", &data).unwrap();
        assert_eq!(raid.read_region("r").unwrap(), data);
    }

    #[test]
    fn fault_injectors_install_per_member_and_heal_inside_the_member() {
        use faultkit::FaultSpec;
        let mut raid = array(2, 8);
        let plan =
            FaultPlan::new(FaultSpec { transient_per_mille: Some(500), ..FaultSpec::empty(3) })
                .unwrap();
        raid.install_faults(&plan, 0);
        // Member-level retry absorbs every transient: the striped logical
        // operations all succeed, and the absorbed events are observable.
        for i in 0..100 {
            raid.write_region(&format!("r{i}"), &[0u8; 32]).unwrap();
        }
        let (retries, backoff) = raid.take_fault_events();
        assert!(retries > 0, "injectors did not fire at 50%");
        assert!(backoff >= 2 * retries, "exponential backoff starts at 2 ms");
        assert_eq!(raid.take_fault_events(), (0, 0), "events drain on read");
    }

    #[test]
    fn single_device_array_degenerates_to_the_device() {
        let mut raid = array(1, 16);
        let data: Vec<u8> = (0..50u8).collect();
        raid.write_region("r", &data).unwrap();
        assert_eq!(raid.read_region("r").unwrap(), data);
        assert_eq!(bytes_per_device(&raid, 50), vec![50]);
    }

    /// The array's whole-region transfer as it was before the gather/scatter:
    /// every member's shard assembled in a fresh `Vec` and handed to
    /// `SsdDevice::write_region`, then `SsdDevice::read_region` per member and
    /// a round-robin reassembly.
    fn legacy_round_trip(raid: &mut RaidArray, region: &str, data: &[u8]) -> Vec<u8> {
        let n = raid.devices.len();
        let mut per_device: Vec<Vec<u8>> = vec![Vec::new(); n];
        for (i, chunk) in data.chunks(raid.stripe_bytes).enumerate() {
            per_device[i % n].extend_from_slice(chunk);
        }
        for (device, shard) in raid.devices.iter_mut().zip(per_device) {
            device.write_region(region, shard).unwrap();
        }
        let shards: Vec<Vec<u8>> =
            raid.devices.iter_mut().map(|d| d.read_region(region).unwrap()).collect();
        let total: usize = shards.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        let mut offsets = vec![0usize; n];
        let mut device = 0usize;
        while out.len() < total {
            let (shard, off) = (&shards[device], offsets[device]);
            if off < shard.len() {
                let take = raid.stripe_bytes.min(shard.len() - off);
                out.extend_from_slice(&shard[off..off + take]);
                offsets[device] += take;
            }
            device = (device + 1) % n;
        }
        out
    }

    #[test]
    fn a_member_region_of_the_wrong_length_is_an_error_not_a_panic() {
        let mut raid = array(3, 8);
        let data: Vec<u8> = (0..100u8).collect();
        raid.write_region("r", &data).unwrap();
        // Member 1 loses the tail of its shard behind the array's back.
        let short = raid.devices[1].read_region("r").unwrap()[..20].to_vec();
        raid.devices[1].write_region("r", short).unwrap();
        let reads_before: Vec<u64> = raid.devices().iter().map(SsdDevice::read_ops).collect();
        let mut out = vec![0u8; data.len()];
        let err = raid.read_region_into("r", &mut out).unwrap_err();
        assert_eq!(
            err,
            SsdError::LengthMismatch {
                device: "ssd1".into(),
                region: "r".into(),
                expected: 32,
                actual: 20
            }
        );
        // Member 0 was read (and counted) before the mismatch was found.
        let reads: Vec<u64> = raid.devices().iter().map(SsdDevice::read_ops).collect();
        assert_eq!(reads, vec![reads_before[0] + 1, reads_before[1], reads_before[2]]);
        // The allocating read sizes itself from what the members hold, and
        // finds the same inconsistency; a caller expecting another length
        // altogether is told so by the first member.
        assert!(matches!(raid.read_region("r"), Err(SsdError::LengthMismatch { .. })));
        assert!(matches!(
            raid.read_region_into("r", &mut [0u8; 64]),
            Err(SsdError::LengthMismatch { .. })
        ));
        assert!(matches!(
            raid.read_region_into("nope", &mut out),
            Err(SsdError::UnknownRegion { .. })
        ));
    }

    #[test]
    fn rewriting_a_region_reuses_the_members_buffers_and_tracks_capacity() {
        let mut raid = array(2, 4);
        raid.write_region("r", &[7u8; 64]).unwrap();
        raid.write_region("r", &[8u8; 24]).unwrap();
        assert_eq!(bytes_per_device(&raid, 24), vec![12, 12]);
        assert!(raid.devices().iter().all(|d| d.used_bytes() == 12));
        let mut out = [0u8; 24];
        raid.read_region_into("r", &mut out).unwrap();
        assert_eq!(out, [8u8; 24]);
        // An empty region exists on every member and reads back empty.
        raid.write_region("e", &[]).unwrap();
        raid.read_region_into("e", &mut []).unwrap();
        assert_eq!(raid.read_region("e").unwrap(), Vec::<u8>::new());
    }

    /// Every member's op and byte counters and used capacity.
    fn member_counters(raid: &RaidArray) -> Vec<[u64; 5]> {
        let counters = |d: &SsdDevice| {
            [d.read_ops(), d.write_ops(), d.bytes_read(), d.bytes_written(), d.used_bytes()]
        };
        raid.devices().iter().map(counters).collect()
    }

    #[test]
    fn a_raid_update_transaction_counts_like_the_copying_ops_and_lends_only_what_it_admitted() {
        // (members, stripe, region length): two stripes on one member and a
        // partial last stripe; then a partial stripe and a member whose share
        // is empty.
        for (n, stripe, len) in [(3usize, 4usize, 30usize), (4, 8, 20)] {
            let master: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(7)).collect();
            let grad: Vec<u8> = (0..len as u8).map(|i| i ^ 0x5A).collect();
            let (mut raid, mut plain) = (array(n, stripe), array(n, stripe));
            for r in [&mut raid, &mut plain] {
                r.write_region("m", &master).unwrap();
                r.write_region("g", &grad).unwrap();
                r.write_region("x", &[1u8; 12]).unwrap();
            }
            // The copying sequence: R m, R g, W m.
            let stepped: Vec<u8> =
                master.iter().zip(&grad).map(|(m, g)| m.wrapping_add(*g)).collect();
            plain.read_region_into("m", &mut vec![0u8; len]).unwrap();
            plain.read_region_into("g", &mut vec![0u8; len]).unwrap();
            plain.write_region("m", &stepped).unwrap();

            let mut txn = raid.begin_update(len);
            txn.admit_read("m").unwrap();
            txn.admit_read("g").unwrap();
            txn.admit_write(0).unwrap();
            let mut stripes = Vec::new();
            txn.lend().for_each_stripe(|at, states, inputs| {
                // Only the admitted windows, each at its logical offset.
                assert_eq!((states.len(), inputs.len()), (1, 1));
                let width = inputs[0].len();
                assert_eq!(inputs[0], &grad[at..at + width]);
                assert_eq!(&states[0][..], &master[at..at + width]);
                for (m, g) in states[0].iter_mut().zip(inputs[0]) {
                    *m = m.wrapping_add(*g);
                }
                stripes.push(at);
            });
            stripes.sort_unstable();
            assert_eq!(stripes, (0..len).step_by(stripe).collect::<Vec<_>>(), "{n} x {stripe}");
            assert_eq!(member_counters(&raid), member_counters(&plain), "{n} x {stripe}");
            for region in ["m", "g", "x"] {
                assert_eq!(raid.clone().read_region(region), plain.clone().read_region(region));
            }
        }
    }

    #[test]
    fn a_refused_raid_write_gate_moves_no_bytes_and_a_retry_after_the_rebuild_recounts_every_member(
    ) {
        let data: Vec<u8> = (0..30u8).collect();
        let (mut raid, mut plain) = (array(3, 4), array(3, 4));
        for r in [&mut raid, &mut plain] {
            r.write_region("m", &data).unwrap();
            r.inject_wearout(2);
        }
        // Refused at member 2 and given up: members 0 and 1 counted their
        // write, as a failed `write_region` does, but no window turned
        // writable and no byte moved.
        plain.read_region_into("m", &mut [0u8; 30]).unwrap();
        assert!(matches!(plain.write_region("m", &[9u8; 30]), Err(SsdError::WornOut { .. })));
        let mut txn = raid.begin_update(30);
        txn.admit_read("m").unwrap();
        assert!(matches!(txn.admit_write(0), Err(SsdError::WornOut { .. })));
        txn.lend().for_each_stripe(|_, states, inputs| {
            assert!(states.is_empty());
            assert_eq!(inputs.len(), 1);
        });
        assert_eq!(member_counters(&raid), member_counters(&plain));
        assert_eq!(raid.clone().read_region("m").unwrap(), data);
        // Rebuilt mid-admission, the retried write gate runs on every member
        // again, as a retried `write_region` does.
        plain.read_region_into("m", &mut [0u8; 30]).unwrap();
        assert!(plain.write_region("m", &[9u8; 30]).is_err());
        plain.rebuild_worn();
        plain.write_region("m", &[9u8; 30]).unwrap();
        let mut txn = raid.begin_update(30);
        txn.admit_read("m").unwrap();
        assert!(txn.admit_write(0).is_err());
        assert_eq!(txn.rebuild_worn(), 8, "member 2's share");
        assert_eq!(txn.rebuild_worn(), 0, "nothing left to rebuild");
        txn.admit_write(0).unwrap();
        txn.lend().for_each_stripe(|_, states, _| states[0].fill(9));
        assert_eq!(member_counters(&raid), member_counters(&plain));
        assert_eq!(raid.read_region("m").unwrap(), vec![9u8; 30]);
    }

    #[test]
    fn a_raid_update_transaction_refuses_a_member_region_of_the_wrong_length() {
        let mut raid = array(3, 4);
        raid.write_region("m", &[3u8; 30]).unwrap();
        let short = raid.devices[1].read_region("m").unwrap()[..3].to_vec();
        raid.devices[1].write_region("m", short).unwrap();
        let before = member_counters(&raid);
        let mut txn = raid.begin_update(30);
        let err = txn.admit_read("m").unwrap_err();
        assert_eq!(
            err,
            SsdError::LengthMismatch {
                device: "ssd1".into(),
                region: "m".into(),
                expected: 10,
                actual: 3
            }
        );
        // Nothing was admitted, so nothing is lent.
        txn.lend()
            .for_each_stripe(|_, states, inputs| assert!(states.is_empty() && inputs.is_empty()));
        // Member 0 was read (and counted) before the mismatch was found.
        let reads: Vec<u64> = member_counters(&raid).iter().map(|c| c[0]).collect();
        assert_eq!(reads, [before[0][0] + 1, before[1][0], before[2][0]]);
    }

    proptest! {
        /// Write/read round-trips through any array shape preserve the data,
        /// and the per-device byte split always sums to the total.
        #[test]
        fn striping_roundtrip(
            data in proptest::collection::vec(any::<u8>(), 0..2000),
            n in 1usize..8,
            stripe in 1usize..128,
        ) {
            let mut raid = array(n, stripe);
            raid.write_region("r", &data).unwrap();
            prop_assert_eq!(raid.read_region("r").unwrap(), data.clone());
            let per = bytes_per_device(&raid, data.len());
            prop_assert_eq!(per.iter().sum::<usize>(), data.len());
            // Balanced within one stripe.
            let max = per.iter().max().copied().unwrap_or(0);
            let min = per.iter().min().copied().unwrap_or(0);
            prop_assert!(max - min <= stripe);
        }

        /// Gather/scatter moves the same bytes with the same per-member
        /// operations as the transfer it replaced: equal data, equal member
        /// regions and equal op and byte counters on every member, for every
        /// array shape (stripes that are not multiples of four, empty
        /// regions and short last stripes included), also when a region is
        /// overwritten by one of another length.
        #[test]
        fn gather_scatter_matches_the_legacy_round_trip(
            first in proptest::collection::vec(any::<u8>(), 0..1500),
            second in proptest::collection::vec(any::<u8>(), 0..1500),
            n in 1usize..8,
            stripe in 1usize..128,
        ) {
            let mut new = array(n, stripe);
            let mut legacy = array(n, stripe);
            for data in [&first, &second] {
                new.write_region("r", data).unwrap();
                let mut gathered = vec![0xA5u8; data.len()];
                new.read_region_into("r", &mut gathered).unwrap();
                prop_assert_eq!(&gathered, data);
                prop_assert_eq!(&legacy_round_trip(&mut legacy, "r", data), data);
                for (a, b) in new.devices.iter().zip(&legacy.devices) {
                    prop_assert_eq!(a.read_ops(), b.read_ops());
                    prop_assert_eq!(a.write_ops(), b.write_ops());
                    prop_assert_eq!(a.bytes_read(), b.bytes_read());
                    prop_assert_eq!(a.bytes_written(), b.bytes_written());
                    prop_assert_eq!(a.used_bytes(), b.used_bytes());
                    // The stored shards themselves, read from copies so the
                    // counters under comparison do not move.
                    let (mut a, mut b) = (a.clone(), b.clone());
                    prop_assert_eq!(a.read_region("r").unwrap(), b.read_region("r").unwrap());
                }
            }
            // The allocating read is the same gather.
            prop_assert_eq!(&new.read_region("r").unwrap(), &second);
        }
    }
}
