//! # faultkit — seeded, deterministic fault plans for the training stack
//!
//! Every layer of the reproduction is deliberately fail-free by default; this
//! crate describes *when it should not be*. A [`FaultSpec`] is plain data (it
//! rides along in a `RunSpec` JSON under the `"faults"` key) and a
//! [`FaultPlan`] turns it into reproducible decisions:
//!
//! * **Transient I/O faults** — individual SSD read/write operations fail and
//!   heal after a bounded number of retries ([`FaultInjector`], installed into
//!   `ssd::SsdDevice`).
//! * **Wear-out** — one seed-chosen device's flash goes read-only at a given
//!   step; recovery migrates its regions to a replacement (RAID-style rebuild
//!   traffic).
//! * **CSD dropout** — one seed-chosen computational storage device stops
//!   answering at a given step and is rebuilt from its still-readable media.
//! * **Stragglers and link degradation** — purely *timed* effects
//!   ([`TimedFaultEffects`]): one device's FPGA kernels run slower, and/or the
//!   shared host uplink loses bandwidth.
//!
//! Every decision is a pure function of `(seed, site, device, op index)` — a
//! splitmix64-style hash, never call-order state — so the same plan produces
//! the same fault events regardless of worker-thread count or execution mode,
//! and an empty plan produces *no* events at all (the fail-free paths stay
//! bit-identical).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::fmt;

/// Default retry budget for transient faults.
pub(crate) const DEFAULT_MAX_RETRIES: u32 = 4;
/// Default cap on consecutive injected failures of a single operation.
pub(crate) const DEFAULT_MAX_BURST: u32 = 2;

/// The fault axis of a run, as plain serializable data.
///
/// All knobs are optional: an omitted knob injects nothing, and a spec with
/// every knob omitted is an *empty* plan (guaranteed byte-identical behaviour
/// to running without a plan installed). Probabilities are expressed per
/// mille (‰) so the JSON stays integer-exact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Seed from which every fault decision is derived.
    pub seed: u64,
    /// Per-mille probability (0..=1000) that any single storage operation
    /// fails transiently. Transient faults heal under bounded retry.
    pub transient_per_mille: Option<u32>,
    /// Maximum consecutive injected failures of one operation (default 2).
    /// Must stay below the retry budget so recovery always converges.
    pub max_transient_burst: Option<u32>,
    /// Retry budget of every SSD, which retries one faulted operation in place
    /// (default 4); it also bounds the trainer's rebuild-then-retry loop.
    pub max_retries: Option<u32>,
    /// Step (counting from 1, like `StepReport::step`) at which one
    /// seed-chosen device's flash wears out (writes fail until rebuilt).
    pub ssd_wearout_step: Option<u64>,
    /// Step (counting from 1, like `StepReport::step`) at which one
    /// seed-chosen CSD stops answering (every operation fails until rebuilt).
    pub csd_dropout_step: Option<u64>,
    /// Slowdown factor (>= 1) applied to one seed-chosen straggler device's
    /// in-storage compute in the timed model.
    pub straggler_factor: Option<f64>,
    /// Remaining-bandwidth fraction (0 < f <= 1) of the shared host uplink in
    /// the timed model.
    pub link_bandwidth_factor: Option<f64>,
}

impl FaultSpec {
    /// A spec that injects nothing (useful as a property-test baseline).
    pub fn empty(seed: u64) -> Self {
        Self {
            seed,
            transient_per_mille: None,
            max_transient_burst: None,
            max_retries: None,
            ssd_wearout_step: None,
            csd_dropout_step: None,
            straggler_factor: None,
            link_bandwidth_factor: None,
        }
    }

    /// Whether this spec injects any fault at all.
    pub fn is_empty(&self) -> bool {
        self.transient_per_mille.unwrap_or(0) == 0
            && self.ssd_wearout_step.is_none()
            && self.csd_dropout_step.is_none()
            && self.straggler_factor.is_none()
            && self.link_bandwidth_factor.is_none()
    }

    /// Validates the knobs; the message names the offending field.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for out-of-range knobs.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(p) = self.transient_per_mille {
            if p > 1000 {
                return Err(format!("faults.transient_per_mille must be <= 1000, got {p}"));
            }
        }
        let burst = self.max_transient_burst.unwrap_or(DEFAULT_MAX_BURST);
        if burst == 0 {
            return Err("faults.max_transient_burst must be positive".to_string());
        }
        let retries = self.max_retries.unwrap_or(DEFAULT_MAX_RETRIES);
        if retries <= burst {
            return Err(format!(
                "faults.max_retries ({retries}) must exceed max_transient_burst ({burst}) \
                 so bounded retry always converges"
            ));
        }
        for (field, step) in [
            ("ssd_wearout_step", self.ssd_wearout_step),
            ("csd_dropout_step", self.csd_dropout_step),
        ] {
            if step == Some(0) {
                return Err(format!("faults.{field} counts steps from 1, got 0"));
            }
        }
        if let Some(f) = self.straggler_factor {
            if !f.is_finite() || f < 1.0 {
                return Err(format!("faults.straggler_factor must be finite and >= 1, got {f}"));
            }
        }
        if let Some(f) = self.link_bandwidth_factor {
            if !f.is_finite() || f <= 0.0 || f > 1.0 {
                return Err(format!("faults.link_bandwidth_factor must be in (0, 1], got {f}"));
            }
        }
        Ok(())
    }
}

/// The kind of storage operation a transient fault is injected into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOpKind {
    /// A read from the media.
    Read,
    /// A write to the media.
    Write,
}

impl fmt::Display for FaultOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultOpKind::Read => write!(f, "read"),
            FaultOpKind::Write => write!(f, "write"),
        }
    }
}

/// splitmix64 finalizer: the only randomness primitive in the crate.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A validated [`FaultSpec`] plus the decision functions derived from it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    spec: FaultSpec,
}

impl FaultPlan {
    /// Wraps a spec once it passes [`FaultSpec::validate`].
    ///
    /// # Errors
    ///
    /// Returns the validation message, which names the offending field.
    pub fn new(spec: FaultSpec) -> Result<Self, String> {
        spec.validate()?;
        Ok(Self { spec })
    }

    /// The underlying spec.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.spec.is_empty()
    }

    /// The retry budget of every SSD, and the bound on the trainer's
    /// rebuild-then-retry loop.
    pub fn max_retries(&self) -> u32 {
        self.spec.max_retries.unwrap_or(DEFAULT_MAX_RETRIES)
    }

    /// Per-device transient-fault injector for device `device`.
    pub fn injector(&self, device: u64) -> FaultInjector {
        FaultInjector {
            seed: self.spec.seed,
            device,
            per_mille: self.spec.transient_per_mille.unwrap_or(0),
            burst_cap: self.spec.max_transient_burst.unwrap_or(DEFAULT_MAX_BURST),
            op_index: 0,
            pending: 0,
            decided: false,
        }
    }

    /// Which device (if any) wears out, given the fleet size.
    pub fn wearout_device(&self, num_devices: usize) -> Option<usize> {
        self.spec.ssd_wearout_step.map(|_| {
            (mix(self.spec.seed ^ 0x5753_4541_524f_5554) % num_devices.max(1) as u64) as usize
        })
    }

    /// The step at which the wear-out fires.
    pub fn wearout_step(&self) -> Option<u64> {
        self.spec.ssd_wearout_step
    }

    /// Which CSD (if any) drops out, given the fleet size.
    pub fn dropout_device(&self, num_devices: usize) -> Option<usize> {
        self.spec.csd_dropout_step.map(|_| {
            (mix(self.spec.seed ^ 0x4452_4f50_4f55_5421) % num_devices.max(1) as u64) as usize
        })
    }

    /// The step at which the dropout fires.
    pub fn dropout_step(&self) -> Option<u64> {
        self.spec.csd_dropout_step
    }

    /// Which device (if any) straggles, given the fleet size.
    pub(crate) fn straggler_device(&self, num_devices: usize) -> Option<usize> {
        self.spec.straggler_factor.map(|_| {
            (mix(self.spec.seed ^ 0x5354_5241_4747_4c52) % num_devices.max(1) as u64) as usize
        })
    }

    /// The timed-model effects of this plan for a fleet of `num_devices`.
    pub fn timed_effects(&self, num_devices: usize) -> TimedFaultEffects {
        TimedFaultEffects {
            straggler: self
                .straggler_device(num_devices)
                .map(|d| (d, self.spec.straggler_factor.unwrap_or(1.0))),
            uplink_bandwidth_factor: self.spec.link_bandwidth_factor,
        }
    }
}

/// The purely *timed* consequences of a fault plan: a straggler device and a
/// degraded shared uplink. Functional results are unaffected by these.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimedFaultEffects {
    /// `(device index, slowdown factor >= 1)` of the straggling device.
    pub straggler: Option<(usize, f64)>,
    /// Remaining-bandwidth fraction of the shared host uplink.
    pub uplink_bandwidth_factor: Option<f64>,
}

impl TimedFaultEffects {
    /// Whether the effects change anything.
    pub fn is_empty(&self) -> bool {
        self.straggler.is_none() && self.uplink_bandwidth_factor.is_none()
    }

    /// The compute slowdown factor for device `dev` (1.0 when unaffected).
    pub fn compute_slowdown(&self, dev: usize) -> f64 {
        match self.straggler {
            Some((d, f)) if d == dev => f,
            _ => 1.0,
        }
    }
}

/// A transient fault that was injected into a storage operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Index of the device the operation targeted.
    pub device: u64,
    /// Operation kind.
    pub kind: FaultOpKind,
    /// Per-device operation index the fault was injected into.
    pub op_index: u64,
    /// Failures still pending for this operation (0 means the next retry
    /// succeeds).
    pub remaining: u32,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected transient {} fault on device {} (op #{}, {} more pending)",
            self.kind, self.device, self.op_index, self.remaining
        )
    }
}

// The root of the error `source()` chain for injected faults.
impl std::error::Error for InjectedFault {}

/// Per-device transient-fault state machine.
///
/// One injector guards one device's operation stream. For each operation it
/// hashes `(seed, device, op index, kind)` into a burst length `0..=burst`;
/// the operation then fails that many consecutive attempts before succeeding.
/// The op index only advances on success, so a retried operation is the *same*
/// decision — deterministic under any retry policy.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    seed: u64,
    device: u64,
    per_mille: u32,
    burst_cap: u32,
    op_index: u64,
    pending: u32,
    decided: bool,
}

impl FaultInjector {
    /// Checks whether the next attempt of the current operation fails.
    ///
    /// # Errors
    ///
    /// Returns the injected fault description when the attempt must fail.
    pub fn check(&mut self, kind: FaultOpKind) -> Result<(), InjectedFault> {
        if !self.decided {
            self.pending = self.burst_for(kind, self.op_index);
            self.decided = true;
        }
        if self.pending > 0 {
            self.pending -= 1;
            return Err(InjectedFault {
                device: self.device,
                kind,
                op_index: self.op_index,
                remaining: self.pending,
            });
        }
        self.decided = false;
        self.op_index += 1;
        Ok(())
    }

    /// How many consecutive failures op `op_index` of `kind` suffers.
    fn burst_for(&self, kind: FaultOpKind, op_index: u64) -> u32 {
        if self.per_mille == 0 {
            return 0;
        }
        let salt = match kind {
            FaultOpKind::Read => 0x52_44u64,
            FaultOpKind::Write => 0x57_52u64,
        };
        let h = mix(self.seed ^ mix(self.device ^ mix(op_index ^ mix(salt))));
        if h % 1000 < u64::from(self.per_mille) {
            1 + ((h >> 32) % u64::from(self.burst_cap)) as u32
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(per_mille: u32) -> FaultSpec {
        FaultSpec { transient_per_mille: Some(per_mille), ..FaultSpec::empty(42) }
    }

    #[test]
    fn empty_spec_injects_nothing() {
        let plan = FaultPlan::new(FaultSpec::empty(7)).unwrap();
        assert!(plan.is_empty());
        let mut inj = plan.injector(0);
        for _ in 0..10_000 {
            inj.check(FaultOpKind::Read).unwrap();
            inj.check(FaultOpKind::Write).unwrap();
        }
        assert!(plan.wearout_device(4).is_none());
        assert!(plan.dropout_device(4).is_none());
        assert!(plan.timed_effects(4).is_empty());
    }

    #[test]
    fn transient_faults_fire_at_roughly_the_requested_rate() {
        let plan = FaultPlan::new(spec(100)).unwrap(); // 10%
        let mut inj = plan.injector(3);
        let mut failures = 0u32;
        let ops = 20_000;
        for _ in 0..ops {
            while inj.check(FaultOpKind::Write).is_err() {
                failures += 1;
            }
        }
        assert_eq!(inj.op_index, ops);
        // ~10% of ops fail, each with a burst of 1..=2 -> 10%..20% of ops.
        let rate = f64::from(failures) / ops as f64;
        assert!((0.05..0.3).contains(&rate), "failure rate {rate}");
    }

    #[test]
    fn faults_heal_within_the_burst_cap_and_decisions_replay_exactly() {
        // Same seed + device -> identical event sequence, attempt by attempt.
        let plan = FaultPlan::new(spec(300)).unwrap();
        let run = || {
            let mut inj = plan.injector(1);
            let mut log = Vec::new();
            for _ in 0..500 {
                let mut attempts = 0u32;
                while let Err(fault) = inj.check(FaultOpKind::Read) {
                    attempts += 1;
                    assert!(attempts <= DEFAULT_MAX_BURST, "burst exceeded cap: {fault}");
                }
                log.push(attempts);
            }
            log
        };
        assert_eq!(run(), run());
        // A different device sees a different (but still valid) sequence.
        let mut other = plan.injector(2);
        let mut diverged = false;
        let mut reference = plan.injector(1);
        for _ in 0..500 {
            let a = std::iter::from_fn(|| other.check(FaultOpKind::Read).err()).count();
            let b = std::iter::from_fn(|| reference.check(FaultOpKind::Read).err()).count();
            diverged |= a != b;
        }
        assert!(diverged, "independent devices must not share fault schedules");
    }

    #[test]
    fn chosen_devices_are_stable_and_in_range() {
        let s = FaultSpec {
            ssd_wearout_step: Some(3),
            csd_dropout_step: Some(5),
            straggler_factor: Some(2.5),
            link_bandwidth_factor: Some(0.5),
            ..FaultSpec::empty(9)
        };
        let plan = FaultPlan::new(s).unwrap();
        for n in 1..10 {
            let w = plan.wearout_device(n).unwrap();
            let d = plan.dropout_device(n).unwrap();
            assert!(w < n && d < n);
            assert_eq!(plan.wearout_device(n).unwrap(), w);
        }
        assert_eq!(plan.wearout_step(), Some(3));
        assert_eq!(plan.dropout_step(), Some(5));
        let eff = plan.timed_effects(6);
        assert_eq!(eff.uplink_bandwidth_factor, Some(0.5));
        let (dev, f) = eff.straggler.unwrap();
        assert!(dev < 6);
        assert_eq!(f, 2.5);
        assert_eq!(eff.compute_slowdown(dev), 2.5);
        assert_eq!(eff.compute_slowdown((dev + 1) % 6), 1.0);
    }

    #[test]
    fn validation_rejects_out_of_range_knobs() {
        assert!(FaultSpec::empty(0).validate().is_ok());
        assert!(spec(1000).validate().is_ok());
        assert!(spec(1001).validate().unwrap_err().contains("transient_per_mille"));
        let bad = FaultSpec { max_transient_burst: Some(0), ..spec(10) };
        assert!(bad.validate().unwrap_err().contains("max_transient_burst"));
        let bad = FaultSpec { max_retries: Some(2), ..spec(10) };
        assert!(bad.validate().unwrap_err().contains("must exceed"));
        let bad = FaultSpec { straggler_factor: Some(0.5), ..FaultSpec::empty(0) };
        assert!(bad.validate().unwrap_err().contains("straggler_factor"));
        let bad = FaultSpec { link_bandwidth_factor: Some(0.0), ..FaultSpec::empty(0) };
        assert!(bad.validate().unwrap_err().contains("link_bandwidth_factor"));
        let bad = FaultSpec { link_bandwidth_factor: Some(1.5), ..FaultSpec::empty(0) };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn a_scheduled_fault_at_step_zero_is_rejected_by_name() {
        // Steps count from 1, so a fault at step 0 would never fire.
        for (field, bad) in [
            ("ssd_wearout_step", FaultSpec { ssd_wearout_step: Some(0), ..FaultSpec::empty(0) }),
            ("csd_dropout_step", FaultSpec { csd_dropout_step: Some(0), ..FaultSpec::empty(0) }),
        ] {
            let message = bad.validate().unwrap_err();
            assert!(message.contains(field) && message.contains("from 1"), "{message}");
        }
        let first = FaultSpec { ssd_wearout_step: Some(1), csd_dropout_step: Some(1), ..spec(0) };
        assert!(first.validate().is_ok());
    }

    #[test]
    fn a_plan_cannot_be_built_from_an_invalid_spec() {
        // A burst the retry budget cannot outlast would let a transient
        // escape every retry, so no plan exists for it.
        for (burst, retries) in [(2, 2), (4, 3), (1, 1)] {
            let bad = FaultSpec {
                max_transient_burst: Some(burst),
                max_retries: Some(retries),
                ..spec(500)
            };
            let message = FaultPlan::new(bad).unwrap_err();
            assert!(message.contains("must exceed"), "{message}");
        }
        let ok = FaultSpec { max_transient_burst: Some(2), max_retries: Some(3), ..spec(500) };
        assert_eq!(FaultPlan::new(ok.clone()).unwrap().spec(), &ok);
        assert!(FaultPlan::new(spec(1001)).is_err());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let s = FaultSpec {
            transient_per_mille: Some(25),
            max_transient_burst: Some(2),
            max_retries: Some(5),
            ssd_wearout_step: Some(2),
            csd_dropout_step: None,
            straggler_factor: Some(3.0),
            link_bandwidth_factor: Some(0.25),
            ..FaultSpec::empty(1234)
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: FaultSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        // Omitted keys deserialize as None.
        let sparse: FaultSpec = serde_json::from_str(r#"{"seed": 7}"#).unwrap();
        assert_eq!(sparse, FaultSpec::empty(7));
        assert!(sparse.is_empty());
    }
}
