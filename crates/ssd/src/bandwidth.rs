//! Timed SSD model: asymmetric read/write media bandwidth.

use serde::{Deserialize, Serialize};
use simkit::{LinkId, Simulation};

/// Sequential bandwidth characteristics of one NVMe device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandwidthProfile {
    /// Sequential read bandwidth in bytes/second.
    pub read_bytes_per_sec: f64,
    /// Sequential write bandwidth in bytes/second.
    pub write_bytes_per_sec: f64,
}

/// The per-direction media links registered for one device.
///
/// A flow that *reads from* the SSD should include `read` in its path; a flow
/// that *writes to* the SSD should include `write`. Because simkit links are
/// shared capacities, concurrent reads (or writes) to the same device contend
/// with each other while reads and writes of different devices do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediaLinks {
    /// Link modelling the device's read bandwidth.
    pub read: LinkId,
    /// Link modelling the device's write bandwidth.
    pub write: LinkId,
}

impl BandwidthProfile {
    /// Creates a profile from explicit bandwidths.
    ///
    /// # Panics
    ///
    /// Panics if either bandwidth is not strictly positive and finite.
    pub fn new(read_bytes_per_sec: f64, write_bytes_per_sec: f64) -> Self {
        assert!(
            read_bytes_per_sec.is_finite() && read_bytes_per_sec > 0.0,
            "read bandwidth must be positive"
        );
        assert!(
            write_bytes_per_sec.is_finite() && write_bytes_per_sec > 0.0,
            "write bandwidth must be positive"
        );
        Self { read_bytes_per_sec, write_bytes_per_sec }
    }

    /// The NVMe SSD inside a SmartSSD (read ≈ 3.3 GB/s, write ≈ 2.6 GB/s,
    /// following the SSD bars of the paper's Fig. 14).
    pub fn smartssd_nvme() -> Self {
        Self::new(3.3e9, 2.6e9)
    }

    /// Registers the read and write media links for one device.
    pub fn install(&self, sim: &mut Simulation) -> MediaLinks {
        let read = sim.add_link(self.read_bytes_per_sec);
        let write = sim.add_link(self.write_bytes_per_sec);
        MediaLinks { read, write }
    }
}

impl Default for BandwidthProfile {
    fn default() -> Self {
        Self::smartssd_nvme()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::FlowSpec;

    #[test]
    fn default_profile_matches_smartssd_numbers() {
        let p = BandwidthProfile::default();
        assert_eq!(p.read_bytes_per_sec, 3.3e9);
        assert_eq!(p.write_bytes_per_sec, 2.6e9);
        assert!(p.read_bytes_per_sec > p.write_bytes_per_sec);
    }

    #[test]
    fn reads_and_writes_use_independent_capacities() {
        let mut sim = Simulation::new();
        let media = BandwidthProfile::new(10.0, 5.0).install(&mut sim);
        let r = sim.flow(FlowSpec::new(vec![media.read], 100.0));
        let w = sim.flow(FlowSpec::new(vec![media.write], 100.0));
        let tl = sim.run().unwrap();
        assert!((tl.finish_time(r) - 10.0).abs() < 1e-9);
        assert!((tl.finish_time(w) - 20.0).abs() < 1e-9);
        // They ran concurrently: the makespan is the max, not the sum.
        assert!((tl.makespan() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_reads_share_the_media() {
        let mut sim = Simulation::new();
        let media = BandwidthProfile::new(10.0, 5.0).install(&mut sim);
        let a = sim.flow(FlowSpec::new(vec![media.read], 50.0));
        let b = sim.flow(FlowSpec::new(vec![media.read], 50.0));
        let tl = sim.run().unwrap();
        assert!((tl.finish_time(a) - 10.0).abs() < 1e-9);
        assert!((tl.finish_time(b) - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "read bandwidth")]
    fn invalid_bandwidth_panics() {
        BandwidthProfile::new(0.0, 1.0);
    }
}
