//! Resource descriptions for the DAG scheduling layer: processing sites with
//! core counts, per-core speed, memory capacity and a speedup-vs-cores curve.
//!
//! The flat [`crate::Simulation`] only knows *serial* resources (a rate in
//! work units per second). The DAG layer describes resources richly enough
//! for a [`crate::Scheduler`] to make placement decisions — how many cores a
//! site has, how well a task scales across them, and how much memory the
//! site offers — and derives the serial rate handed to the execution
//! substrate from that description.

use serde::{Deserialize, Serialize};

/// How a task's throughput scales with the number of cores assigned to it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SpeedupCurve {
    /// Perfect scaling: `n` cores are `n` times faster than one.
    Linear,
    /// Amdahl's law with the given serial fraction: `n` cores yield
    /// `1 / (serial + (1 - serial) / n)` times one core's throughput.
    Amdahl {
        /// Fraction of the work that cannot be parallelised, in `[0, 1]`.
        serial_fraction: f64,
    },
    /// No scaling: extra cores add nothing (a fixed-function unit such as an
    /// FPGA kernel or a DMA engine).
    Flat,
}

impl SpeedupCurve {
    /// Speedup factor over a single core when `cores` cores are assigned.
    ///
    /// Zero cores yield a factor of zero (the task cannot progress).
    pub fn factor(&self, cores: u32) -> f64 {
        if cores == 0 {
            return 0.0;
        }
        let n = f64::from(cores);
        match self {
            SpeedupCurve::Linear => n,
            SpeedupCurve::Amdahl { serial_fraction } => {
                let serial = serial_fraction.clamp(0.0, 1.0);
                1.0 / (serial + (1.0 - serial) / n)
            }
            SpeedupCurve::Flat => 1.0,
        }
    }
}

/// A processing site the scheduler can place work on.
///
/// `speed` is the single-core processing rate in work units per second (the
/// unit is whatever the site's tasks are measured in — FLOPs for a GPU,
/// bytes for an updater kernel). The serial rate a placement of `cores`
/// cores achieves is `speed x speedup(cores)`; [`Resource::full_rate`] is
/// that rate with every core.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Resource {
    /// Number of cores available at this site.
    pub cores: u32,
    /// Single-core processing rate in work units per second.
    pub speed: f64,
    /// Memory capacity in bytes (working-set admission, not modelled as
    /// bandwidth).
    pub memory_bytes: f64,
    /// How throughput scales when a task spans multiple cores.
    pub speedup: SpeedupCurve,
}

impl Resource {
    /// Creates a resource description.
    pub fn new(cores: u32, speed: f64, memory_bytes: f64, speedup: SpeedupCurve) -> Self {
        Self { cores, speed, memory_bytes, speedup }
    }

    /// Describes a serial fixed-function unit (one core, flat speedup) — the
    /// shape of every resource the flat [`crate::Simulation`] API registers.
    pub fn serial(speed: f64) -> Self {
        Self::new(1, speed, f64::INFINITY, SpeedupCurve::Flat)
    }

    /// The effective serial rate when `cores` cores are assigned.
    pub(crate) fn rate_with(&self, cores: u32) -> f64 {
        self.speed * self.speedup.factor(cores.min(self.cores))
    }

    /// The effective serial rate when every core is assigned.
    pub fn full_rate(&self) -> f64 {
        self.rate_with(self.cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_speedup_scales_with_cores() {
        assert_eq!(SpeedupCurve::Linear.factor(1), 1.0);
        assert_eq!(SpeedupCurve::Linear.factor(8), 8.0);
        assert_eq!(SpeedupCurve::Linear.factor(0), 0.0);
    }

    #[test]
    fn amdahl_speedup_saturates() {
        let curve = SpeedupCurve::Amdahl { serial_fraction: 0.1 };
        assert!((curve.factor(1) - 1.0).abs() < 1e-12);
        let f64c = curve.factor(64);
        assert!(f64c > 7.0 && f64c < 10.0, "64-core Amdahl(0.1) ~ 8.7, got {f64c}");
        // The asymptote is 1/serial_fraction.
        assert!(curve.factor(100_000) < 10.0);
    }

    #[test]
    fn flat_speedup_ignores_cores() {
        assert_eq!(SpeedupCurve::Flat.factor(64), 1.0);
    }

    #[test]
    fn resource_rate_caps_at_available_cores() {
        let r = Resource::new(4, 10.0, 1e9, SpeedupCurve::Linear);
        assert_eq!(r.rate_with(2), 20.0);
        assert_eq!(r.rate_with(16), 40.0, "cannot assign more cores than exist");
        assert_eq!(r.full_rate(), 40.0);
    }

    #[test]
    fn serial_resource_matches_flat_simulation_shape() {
        let r = Resource::serial(7.3e9);
        assert_eq!(r.cores, 1);
        assert_eq!(r.full_rate(), 7.3e9);
    }
}
