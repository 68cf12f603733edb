//! # ssd — NVMe SSD model and RAID0 striping
//!
//! Storage-offloaded training keeps the optimizer states (and, between
//! backward and update, the gradients) on NVMe SSDs. This crate models the
//! SSD at the two levels the rest of the workspace needs:
//!
//! * **Functional**: [`SsdDevice`] is a byte-accurate named-region store with
//!   capacity accounting. The functional training engines in `ztrain` and
//!   `smart_infinity` really write optimizer states into it and read them
//!   back, so numerical equivalence tests exercise the same dataflow as the
//!   paper's system.
//! * **Timed**: [`BandwidthProfile`] captures the asymmetric sequential
//!   read/write bandwidth of the device (the paper's Fig. 14 shows writes
//!   noticeably slower than reads, which is one reason gradient offload hurts).
//!   [`BandwidthProfile::install`] registers per-direction *media links* in a
//!   [`simkit::Simulation`]; the engines append those links to a flow's path
//!   so an SSD transfer is limited by both the PCIe path and the NAND media.
//! * **RAID0**: [`RaidArray`] stripes a logical region across several
//!   devices, reproducing the baseline's software-RAID configuration.
//! * **In place**: an updater steps state where the devices hold it. A CSD
//!   passes each SSD gate through an [`UpdateTxn`]; the host baseline passes
//!   each striped gate through a [`RaidUpdateTxn`], one [`UpdateTxn`] per
//!   member. Both admit every transfer first and lend the bytes only after.
//!
//! Devices are fail-free unless a `faultkit` plan is installed: transient
//! per-operation faults ([`SsdError::Injected`]), wear-out to read-only media
//! ([`SsdError::WornOut`]) and RAID-style rebuild onto a replacement
//! ([`SsdDevice::rebuild`], [`RaidArray::rebuild_worn`]) model the failure
//! scenarios the recovery policies in `ztrain` are tested against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandwidth;
mod error;
mod raid;
mod store;

pub use bandwidth::{BandwidthProfile, MediaLinks};
pub use error::SsdError;
pub use raid::{LentStripes, RaidArray, RaidUpdateTxn, StorageCounters};
pub use store::{LentWindows, SsdDevice, UpdateTxn};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_and_timed_views_compose() {
        // Functional: write a region and read it back.
        let mut ssd = SsdDevice::new("ssd0", 1 << 20);
        ssd.write_region("opt_state", vec![7u8; 1000]).unwrap();
        assert_eq!(ssd.read_region("opt_state").unwrap().len(), 1000);

        // Timed: the same device described by its bandwidth profile.
        let mut sim = simkit::Simulation::new();
        let media = BandwidthProfile::smartssd_nvme().install(&mut sim);
        let read = sim.flow(simkit::FlowSpec::new(vec![media.read], 3.3e9));
        let write = sim.flow(simkit::FlowSpec::new(vec![media.write], 2.6e9));
        let tl = sim.run().unwrap();
        assert!((tl.finish_time(read) - 1.0).abs() < 1e-6);
        assert!((tl.finish_time(write) - 1.0).abs() < 1e-6);
    }
}
