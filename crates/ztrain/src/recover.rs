//! Rebuild-then-retry recovery around substrate operations.
//!
//! The fault plan injects three classes of failure (see `faultkit`):
//! transient per-operation faults, worn-out media and device dropouts. Only
//! the last two reach this module, each as the [`TrainError`] its device
//! error converts into:
//!
//! * **Transient** faults never leave the device. Every SSD — a RAID member,
//!   or the one inside a CSD — retries a faulted operation in place with
//!   modeled exponential backoff, up to
//!   [`FaultPlan::max_retries`](faultkit::FaultPlan::max_retries) times
//!   (`ssd::SsdDevice::set_retry_budget`). A valid plan caps the fault burst
//!   below that budget, so a transient always clears; the trainers fold the
//!   devices' retry and backoff counters into [`DegradedReport`]. An error
//!   that does reach [`recover`] as a transient passes through unchanged.
//! * **Dead-device** errors ([`TrainError::needs_rebuild`]: worn-out media,
//!   dropout) trigger an in-place
//!   rebuild — migrating the device's regions onto replacement hardware and
//!   accounting the traffic — then retry the operation, at most
//!   `max_retries` times.
//! * Anything else propagates unchanged.

use crate::trainer::{DegradedReport, TrainError};

/// Runs `op` against `ctx`, rebuilding a dead device and retrying per the
/// policy above.
///
/// Both closures receive `ctx` (the substrate — a RAID array, a CSD, …) so
/// the rebuild path and the operation can share one mutable borrow. `rebuild`
/// is invoked when a dead-device error occurs; it must bring the failing
/// device back online and return the number of bytes migrated. Recovery
/// events accumulate into `degraded`; an entirely fault-free call leaves it
/// untouched.
///
/// # Errors
///
/// Returns the final error once `max_retries` rebuilds are exhausted, or the
/// original error immediately if it is not a dead device.
pub(crate) fn recover<C, T, E: Into<TrainError>>(
    max_retries: u32,
    degraded: &mut DegradedReport,
    ctx: &mut C,
    mut rebuild: impl FnMut(&mut C) -> u64,
    mut op: impl FnMut(&mut C) -> Result<T, E>,
) -> Result<T, TrainError> {
    let mut attempt: u32 = 0;
    loop {
        match op(ctx).map_err(Into::into) {
            Err(e) if attempt < max_retries && e.needs_rebuild() => {
                attempt += 1;
                degraded.rebuild_bytes += rebuild(ctx);
                degraded.devices_rebuilt += 1;
                degraded.retries += 1;
            }
            result => return result,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csd::CsdError;
    use faultkit::{FaultOpKind, FaultPlan, FaultSpec};
    use ssd::{SsdDevice, SsdError};

    /// A plan whose first write fails exactly twice: the hand-checked
    /// injector stream is Err, Err, Ok.
    fn first_write_fails_twice() -> FaultPlan {
        (0..)
            .map(|seed| {
                let mut s = FaultSpec::empty(seed);
                s.transient_per_mille = Some(1000);
                FaultPlan::new(s).unwrap()
            })
            .find(|plan| {
                let mut injector = plan.injector(0);
                let stream: Vec<bool> =
                    (0..3).map(|_| injector.check(FaultOpKind::Write).is_ok()).collect();
                stream == [false, false, true]
            })
            .expect("some seed bursts twice on the first write")
    }

    /// A device whose first write fails twice, retried in place up to
    /// `budget` times.
    fn faulty_device(budget: u32) -> SsdDevice {
        let mut ssd = SsdDevice::new("d", 1 << 16);
        ssd.set_fault_injector(first_write_fails_twice().injector(0));
        ssd.set_retry_budget(budget);
        ssd
    }

    #[test]
    fn success_leaves_the_report_untouched() {
        let mut deg = DegradedReport::default();
        let v = recover(4, &mut deg, &mut (), |_| panic!("no rebuild"), |_| Ok::<_, SsdError>(7))
            .unwrap();
        assert_eq!(v, 7);
        assert!(!deg.is_degraded());
    }

    #[test]
    fn transient_faults_retry_with_backoff_until_cleared() {
        // The device clears the burst of two in place: two retries, 2 + 4 ms
        // of modeled backoff, and the op never fails at the caller.
        let mut ssd = faulty_device(4);
        let mut deg = DegradedReport::default();
        recover(
            4,
            &mut deg,
            &mut ssd,
            |_| panic!("transients never rebuild"),
            |ssd| ssd.write_region("r", vec![1u8; 8]),
        )
        .unwrap();
        assert_eq!(ssd.take_fault_events(), (2, 2 + 4));
        assert!(!deg.is_degraded(), "recover saw no fault");
        assert_eq!(ssd.read_region("r").unwrap(), vec![1u8; 8]);
    }

    #[test]
    fn dead_devices_are_rebuilt_then_retried() {
        let mut deg = DegradedReport::default();
        // ctx is the device state: alive flag shared by rebuild and op.
        let mut dead = true;
        let v = recover(
            4,
            &mut deg,
            &mut dead,
            |dead| {
                *dead = false;
                96
            },
            |dead| {
                if *dead {
                    Err(CsdError::Dropout { device: "c".into() })
                } else {
                    Ok("ok")
                }
            },
        )
        .unwrap();
        assert_eq!(v, "ok");
        assert_eq!(deg.devices_rebuilt, 1);
        assert_eq!(deg.rebuild_bytes, 96);
        assert_eq!(deg.retries, 1);
        assert_eq!(deg.transient_faults, 0);
    }

    #[test]
    fn unrecoverable_errors_propagate_immediately() {
        let mut deg = DegradedReport::default();
        let err = recover(
            4,
            &mut deg,
            &mut (),
            |_| panic!("an empty array is not rebuilt"),
            |_| Err::<(), _>(SsdError::EmptyArray),
        )
        .unwrap_err();
        assert_eq!(err, TrainError::Storage(SsdError::EmptyArray));
        assert!(!deg.is_degraded());
    }

    #[test]
    fn retry_budget_is_bounded() {
        // A budget of one cannot outlast a burst of two: the device retries
        // exactly once, then surfaces the fault, and `recover` passes it
        // straight through — no retry, no rebuild.
        let mut ssd = faulty_device(1);
        let mut deg = DegradedReport::default();
        let err = recover(
            4,
            &mut deg,
            &mut ssd,
            |_| panic!("a transient is not rebuilt"),
            |ssd| ssd.write_region("r", vec![1u8; 8]),
        )
        .unwrap_err();
        assert!(matches!(err, TrainError::Storage(SsdError::Injected { .. })), "{err}");
        assert_eq!(ssd.take_fault_events(), (1, 2), "exactly the budget's retries");
        assert!(!deg.is_degraded());

        // Rebuilds are bounded too: a device that never comes back is
        // rebuilt exactly max_retries times before its error surfaces.
        let mut deg = DegradedReport::default();
        let err = recover(
            2,
            &mut deg,
            &mut (),
            |_| 0,
            |_| Err::<(), _>(CsdError::Dropout { device: "c".into() }),
        )
        .unwrap_err();
        assert!(err.needs_rebuild(), "the final error is surfaced");
        assert_eq!((deg.devices_rebuilt, deg.retries), (2, 2));
    }

    #[test]
    fn recovery_works_end_to_end_against_a_real_device() {
        // A worn-out SSD: the first write fails, rebuild clears it, retry lands.
        let mut ssd = SsdDevice::new("s", 1 << 16);
        ssd.write_region("r", vec![1u8; 64]).unwrap();
        ssd.inject_wearout();
        let mut deg = DegradedReport::default();
        recover(
            2,
            &mut deg,
            &mut ssd,
            |ssd| ssd.rebuild(),
            |ssd| ssd.write_region("r", vec![2u8; 64]),
        )
        .unwrap();
        assert_eq!(deg.devices_rebuilt, 1);
        assert_eq!(deg.rebuild_bytes, 64);
        assert_eq!(ssd.read_region("r").unwrap(), vec![2u8; 64]);
    }
}
