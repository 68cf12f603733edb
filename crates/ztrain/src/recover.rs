//! Bounded-retry recovery around substrate operations.
//!
//! The fault plan injects three classes of failure (see `faultkit`):
//! transient per-operation faults, worn-out media and device dropouts. This
//! module implements the recovery policy the trainers wrap around every
//! storage / device operation:
//!
//! * **Transient** faults are retried with exponential backoff, up to
//!   [`FaultPlan::max_retries`](faultkit::FaultPlan::max_retries) attempts.
//!   Because a valid plan caps the fault burst below the retry budget,
//!   recovery from transients is guaranteed — and because the injector
//!   re-decides only after an operation *succeeds*, the retry sequence is
//!   deterministic.
//! * **Dead-device** errors (worn-out media, dropout) trigger an in-place
//!   rebuild — migrating the device's regions onto replacement hardware and
//!   accounting the traffic — then retry the operation.
//! * Anything else propagates unchanged.
//!
//! The backoff is *modeled*, not slept: the would-be delay is accumulated
//! into [`DegradedReport::backoff_ms`] so the telemetry is deterministic and
//! tests run at full speed.

use crate::trainer::DegradedReport;
use csd::CsdError;
use ssd::SsdError;

/// Classification hooks the recovery loop needs from an error type; both
/// substrate errors the trainers recover from implement it, so [`recover`]
/// wraps an operation at the layer it naturally fails.
pub(crate) trait Recoverable {
    /// Whether bounded retry can clear this error.
    fn transient(&self) -> bool;
    /// Whether the failing device must be rebuilt before a retry can work.
    fn rebuildable(&self) -> bool;
}

impl Recoverable for SsdError {
    fn transient(&self) -> bool {
        self.is_transient()
    }
    fn rebuildable(&self) -> bool {
        matches!(self, SsdError::WornOut { .. })
    }
}

impl Recoverable for CsdError {
    fn transient(&self) -> bool {
        self.is_transient()
    }
    fn rebuildable(&self) -> bool {
        self.needs_rebuild()
    }
}

/// Runs `op` against `ctx`, absorbing recoverable faults per the policy
/// above.
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
/// Returns the final error once `max_retries` attempts are exhausted, or the
/// original error immediately if it is not recoverable.
pub(crate) fn recover<C, T, E: Recoverable>(
    max_retries: u32,
    degraded: &mut DegradedReport,
    ctx: &mut C,
    mut rebuild: impl FnMut(&mut C) -> u64,
    mut op: impl FnMut(&mut C) -> Result<T, E>,
) -> Result<T, E> {
    let mut attempt: u32 = 0;
    loop {
        match op(ctx) {
            Ok(v) => return Ok(v),
            Err(e) if attempt < max_retries && e.transient() => {
                attempt += 1;
                degraded.transient_faults += 1;
                degraded.retries += 1;
                // Exponential backoff: 2, 4, 8, ... ms (modeled, not slept).
                degraded.backoff_ms += 1u64 << attempt.min(16);
            }
            Err(e) if attempt < max_retries && e.rebuildable() => {
                attempt += 1;
                degraded.rebuild_bytes += rebuild(ctx);
                degraded.devices_rebuilt += 1;
                degraded.retries += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultkit::{FaultOpKind, FaultPlan, FaultSpec};

    fn always_faulting_plan(seed: u64) -> FaultPlan {
        let mut s = FaultSpec::empty(seed);
        s.transient_per_mille = Some(1000);
        s.max_transient_burst = Some(1);
        FaultPlan::new(s)
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
        let mut deg = DegradedReport::default();
        let fault = always_faulting_plan(3).injector(0).check(FaultOpKind::Write).unwrap_err();
        let mut failures = 2u32;
        let v = recover(
            4,
            &mut deg,
            &mut (),
            |_| panic!("transients never rebuild"),
            |_| {
                if failures > 0 {
                    failures -= 1;
                    Err(SsdError::Injected { device: "d".into(), fault })
                } else {
                    Ok(42)
                }
            },
        )
        .unwrap();
        assert_eq!(v, 42);
        assert_eq!(deg.transient_faults, 2);
        assert_eq!(deg.retries, 2);
        assert_eq!(deg.backoff_ms, 2 + 4);
        assert_eq!(deg.devices_rebuilt, 0);
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
        assert_eq!(err, SsdError::EmptyArray);
        assert!(!deg.is_degraded());
    }

    #[test]
    fn retry_budget_is_bounded() {
        let mut deg = DegradedReport::default();
        let fault = always_faulting_plan(5).injector(0).check(FaultOpKind::Read).unwrap_err();
        let err = recover(
            2,
            &mut deg,
            &mut (),
            |_| 0,
            |_| Err::<(), _>(SsdError::Injected { device: "d".into(), fault }),
        )
        .unwrap_err();
        assert!(err.transient(), "the final error is surfaced");
        assert_eq!(deg.retries, 2, "exactly max_retries retries were attempted");
    }

    #[test]
    fn recovery_works_end_to_end_against_a_real_device() {
        // A worn-out SSD: the first write fails, rebuild clears it, retry lands.
        let mut ssd = ssd::SsdDevice::new("s", 1 << 16);
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
