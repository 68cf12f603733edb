//! # fabric — PCIe interconnect topology model
//!
//! Smart-Infinity's performance story is, at its core, a topology story: the
//! *shared* system interconnect between the host and its storage devices
//! saturates, while the *private* links inside each computational storage
//! device (CSD) scale linearly with the number of devices. This crate models
//! exactly that: a graph of PCIe endpoints and switches connected by links
//! with finite bandwidth, shortest-path routing between endpoints, and an
//! installer that materialises every link as a shared-bandwidth
//! [`simkit`] link so the discrete-event engine can simulate contention.
//!
//! Two preset platform builders reproduce the paper's environments:
//!
//! * [`PlatformSpec::default_smart_infinity`] — Fig. 2: GPU on the
//!   host root complex, storage devices (plain SSDs or SmartSSD-style CSDs)
//!   behind a PCIe expansion switch whose uplink is the shared interconnect.
//! * [`PlatformSpec::congested_multi_gpu`] — Fig. 17(a): GPUs are
//!   plugged into the *same* expansion switch as the CSDs and share its
//!   uplink.
//!
//! # Example
//!
//! ```
//! use fabric::{Topology, NodeKind};
//! use simkit::Simulation;
//!
//! # fn main() -> Result<(), fabric::FabricError> {
//! let mut topo = Topology::new();
//! let host = topo.add_node(NodeKind::Host);
//! let sw = topo.add_node(NodeKind::Switch);
//! let ssd = topo.add_node(NodeKind::SsdPort);
//! topo.connect(host, sw, 16e9)?;
//! topo.connect(sw, ssd, 3.3e9)?;
//!
//! let mut sim = Simulation::new();
//! let installed = topo.install(&mut sim);
//! let path = installed.path(host, ssd)?;
//! assert_eq!(path.len(), 2); // host->switch, switch->ssd
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod presets;
mod topology;

pub use error::FabricError;
pub use presets::{LinkRates, Platform, PlatformSpec, StorageKind, TopologyKind};
pub use topology::{EdgeId, InstalledFabric, NodeId, NodeKind, Topology};

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::{FlowSpec, Simulation};

    /// End-to-end: a host talking to four SSDs behind a switch is limited by
    /// the uplink once the per-device links exceed it.
    #[test]
    fn shared_uplink_limits_aggregate_bandwidth() {
        let mut topo = Topology::new();
        let host = topo.add_node(NodeKind::Host);
        let sw = topo.add_node(NodeKind::Switch);
        topo.connect(host, sw, 10.0).unwrap();
        let mut ssds = Vec::new();
        for _ in 0..4 {
            let ssd = topo.add_node(NodeKind::SsdPort);
            topo.connect(sw, ssd, 6.0).unwrap();
            ssds.push(ssd);
        }
        let mut sim = Simulation::new();
        let inst = topo.install(&mut sim);
        let mut _tasks = Vec::new();
        for &ssd in &ssds {
            let path = inst.path(host, ssd).unwrap();
            _tasks.push(sim.flow(FlowSpec::new(path, 25.0)));
        }
        let tl = sim.run().unwrap();
        // Aggregate demand is 4*6=24 > uplink 10, so total 100 bytes at 10 B/s.
        assert!((tl.makespan() - 10.0).abs() < 1e-6);
    }

    /// P2P traffic inside one switch does not cross the uplink.
    #[test]
    fn p2p_inside_switch_does_not_use_uplink() {
        let mut topo = Topology::new();
        let host = topo.add_node(NodeKind::Host);
        let sw = topo.add_node(NodeKind::Switch);
        let up = topo.connect(host, sw, 1.0).unwrap();
        let a = topo.add_node(NodeKind::FpgaPort);
        let b = topo.add_node(NodeKind::SsdPort);
        topo.connect(sw, a, 8.0).unwrap();
        topo.connect(sw, b, 8.0).unwrap();
        let path = topo.route(a, b).unwrap();
        assert_eq!(path.len(), 2);
        assert!(!path.contains(&up));
    }
}
