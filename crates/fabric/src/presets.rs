//! Preset platform topologies matching the paper's experimental environments.

use crate::error::FabricError;
use crate::topology::{NodeId, NodeKind, Topology};
use serde::{Deserialize, Serialize};

/// Bandwidths of the standard links in the platform, in bytes per second.
///
/// Defaults follow the paper's environment (Fig. 2 and Table II): a 16 GB/s
/// shared host interconnect, PCIe Gen3 x4 device links (~3.938 GB/s raw,
/// ~3.2 GB/s effective) and a wide expansion-switch fabric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkRates {
    /// Host root complex <-> expansion switch (the shared system interconnect).
    pub host_uplink: f64,
    /// Expansion switch <-> storage device (plain SSD) or CSD package uplink.
    pub device_link: f64,
    /// CSD internal switch <-> NVMe SSD controller (PCIe Gen3 x4).
    pub csd_internal_ssd: f64,
    /// CSD internal switch <-> FPGA (PCIe Gen3 x4).
    pub csd_internal_fpga: f64,
    /// Host root complex <-> GPU (default topology; x16 link).
    pub gpu_link: f64,
}

impl Default for LinkRates {
    fn default() -> Self {
        Self {
            host_uplink: 16.0e9,
            device_link: 3.2e9,
            csd_internal_ssd: 3.0e9,
            csd_internal_fpga: 3.0e9,
            gpu_link: 16.0e9,
        }
    }
}

/// Whether devices behind the expansion switch are plain SSDs or SmartSSD-style CSDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StorageKind {
    /// Plain NVMe SSD (used by the ZeRO-Infinity + RAID0 baseline).
    PlainSsd,
    /// Computational storage device: internal switch + NVMe SSD + FPGA.
    Csd,
}

/// Where GPUs attach relative to the storage devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TopologyKind {
    /// Paper default (Fig. 2): GPUs on the host root complex, devices behind
    /// the expansion switch.
    Default,
    /// Congested (Fig. 17a): GPUs share the expansion switch — and therefore
    /// its uplink — with the storage devices.
    Congested,
}

/// Declarative description of a platform to build.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// Number of storage devices behind the expansion switch.
    pub num_devices: usize,
    /// Plain SSDs or CSDs.
    pub storage: StorageKind,
    /// Number of GPUs.
    pub num_gpus: usize,
    /// Default or congested GPU placement.
    pub topology: TopologyKind,
    /// Link bandwidths.
    pub rates: LinkRates,
}

impl PlatformSpec {
    /// The paper's default environment: one GPU on the host, `num_devices`
    /// devices of `storage` kind behind a PCIe expansion switch.
    pub fn default_smart_infinity(num_devices: usize, storage: StorageKind) -> Self {
        Self {
            num_devices,
            storage,
            num_gpus: 1,
            topology: TopologyKind::Default,
            rates: LinkRates::default(),
        }
    }

    /// The congested multi-GPU topology of Fig. 17(a): `num_gpus` GPUs share
    /// the expansion switch uplink with `num_devices` CSDs.
    pub fn congested_multi_gpu(num_devices: usize, num_gpus: usize) -> Self {
        Self {
            num_devices,
            storage: StorageKind::Csd,
            num_gpus,
            topology: TopologyKind::Congested,
            rates: LinkRates::default(),
        }
    }

    /// Builds the topology described by this spec.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::InvalidEdge`] if any configured bandwidth is
    /// non-positive.
    pub fn build(&self) -> Result<Platform, FabricError> {
        // Host, expansion switch and uplink, one node and link per GPU, and
        // per device one (SSD) or three (CSD: switch, SSD, FPGA) of each.
        let per_device = match self.storage {
            StorageKind::PlainSsd => 1,
            StorageKind::Csd => 3,
        };
        let links = 1 + self.num_gpus + per_device * self.num_devices;
        let mut topo = Topology::new();
        topo.reserve(links + 1, links);
        let host = topo.add_node(NodeKind::Host);
        let expansion = topo.add_node(NodeKind::Switch);
        topo.connect(host, expansion, self.rates.host_uplink)?;

        let mut gpus = Vec::with_capacity(self.num_gpus);
        for _ in 0..self.num_gpus {
            let gpu = topo.add_node(NodeKind::Gpu);
            match self.topology {
                TopologyKind::Default => topo.connect(host, gpu, self.rates.gpu_link)?,
                TopologyKind::Congested => topo.connect(expansion, gpu, self.rates.gpu_link)?,
            };
            gpus.push(gpu);
        }

        let mut devices = Vec::with_capacity(self.num_devices);
        for _ in 0..self.num_devices {
            match self.storage {
                StorageKind::PlainSsd => {
                    let ssd = topo.add_node(NodeKind::SsdPort);
                    topo.connect(expansion, ssd, self.rates.device_link)?;
                    devices.push(DevicePorts { ssd, fpga: None, internal_switch: None });
                }
                StorageKind::Csd => {
                    let internal = topo.add_node(NodeKind::Switch);
                    topo.connect(expansion, internal, self.rates.device_link)?;
                    let ssd = topo.add_node(NodeKind::SsdPort);
                    topo.connect(internal, ssd, self.rates.csd_internal_ssd)?;
                    let fpga = topo.add_node(NodeKind::FpgaPort);
                    topo.connect(internal, fpga, self.rates.csd_internal_fpga)?;
                    devices.push(DevicePorts {
                        ssd,
                        fpga: Some(fpga),
                        internal_switch: Some(internal),
                    });
                }
            }
        }

        Ok(Platform { spec: self.clone(), topology: topo, host, expansion, gpus, devices })
    }
}

/// The attachment points of one storage device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DevicePorts {
    /// NVMe SSD controller endpoint.
    pub ssd: NodeId,
    /// FPGA endpoint (CSDs only).
    pub fpga: Option<NodeId>,
    /// CSD internal switch (CSDs only).
    pub internal_switch: Option<NodeId>,
}

/// A built platform: the topology plus named attachment points.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Platform {
    /// The spec this platform was built from.
    pub spec: PlatformSpec,
    /// The underlying PCIe topology graph.
    pub topology: Topology,
    /// Host root complex node.
    pub host: NodeId,
    /// Expansion switch node.
    pub expansion: NodeId,
    /// GPU endpoints.
    pub gpus: Vec<NodeId>,
    /// Storage device attachment points, one entry per device.
    pub devices: Vec<DevicePorts>,
}

impl Platform {
    /// Number of storage devices in the platform.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::{FlowSpec, Simulation};

    #[test]
    fn default_platform_counts_nodes_correctly() {
        let platform =
            PlatformSpec::default_smart_infinity(4, StorageKind::PlainSsd).build().unwrap();
        assert_eq!(platform.num_devices(), 4);
        assert_eq!(platform.spec.storage, StorageKind::PlainSsd);
        assert_eq!(platform.gpus.len(), 1);
        // host + expansion + gpu + 4 ssds
        assert_eq!(platform.topology.node_count(), 7);
        assert!(platform.devices.iter().all(|d| d.fpga.is_none()));
    }

    #[test]
    fn csd_platform_has_fpga_ports_and_internal_switches() {
        let platform = PlatformSpec::default_smart_infinity(3, StorageKind::Csd).build().unwrap();
        assert_eq!(platform.spec.storage, StorageKind::Csd);
        assert_eq!(platform.num_devices(), 3);
        for dev in &platform.devices {
            assert!(dev.fpga.is_some());
            assert!(dev.internal_switch.is_some());
        }
        // host + expansion + gpu + 3*(switch+ssd+fpga)
        assert_eq!(platform.topology.node_count(), 12);
    }

    #[test]
    fn csd_internal_p2p_avoids_the_shared_uplink() {
        let platform = PlatformSpec::default_smart_infinity(2, StorageKind::Csd).build().unwrap();
        let dev = &platform.devices[0];
        let p2p = platform.topology.route(dev.ssd, dev.fpga.unwrap()).unwrap();
        // ssd -> internal switch -> fpga: 2 hops, never leaving the CSD.
        assert_eq!(p2p.len(), 2);
        let host_path = platform.topology.route(platform.host, dev.ssd).unwrap();
        // host -> expansion -> internal switch -> ssd.
        assert_eq!(host_path.len(), 3);
        // The uplink edge (host<->expansion) must not be in the P2P path.
        assert!(!p2p.contains(&host_path[0]));
    }

    #[test]
    fn congested_topology_places_gpus_behind_expansion_switch() {
        let platform = PlatformSpec::congested_multi_gpu(2, 3).build().unwrap();
        assert_eq!(platform.gpus.len(), 3);
        for &gpu in &platform.gpus {
            let path = platform.topology.route(platform.host, gpu).unwrap();
            // host -> expansion -> gpu (2 hops, crosses the shared uplink)
            assert_eq!(path.len(), 2);
        }
    }

    #[test]
    fn default_topology_gpu_traffic_does_not_contend_with_storage_uplink() {
        // In the default topology GPU<->host and host<->SSD traffic use disjoint links.
        let platform =
            PlatformSpec::default_smart_infinity(1, StorageKind::PlainSsd).build().unwrap();
        let mut sim = Simulation::new();
        let inst = platform.topology.install(&mut sim);
        let gpu_path = inst.path(platform.host, platform.gpus[0]).unwrap();
        let ssd_path = inst.path(platform.host, platform.devices[0].ssd).unwrap();
        let gpu_flow = sim.flow(FlowSpec::new(gpu_path, 16e9));
        let ssd_flow = sim.flow(FlowSpec::new(ssd_path, 3.2e9));
        let tl = sim.run().unwrap();
        // Both take ~1 s; if they contended the makespan would be ~2 s.
        assert!((tl.finish_time(gpu_flow) - 1.0).abs() < 0.05);
        assert!((tl.finish_time(ssd_flow) - 1.0).abs() < 0.05);
    }

    #[test]
    fn rates_can_be_overridden() {
        let rates = LinkRates { host_uplink: 1.0e9, ..LinkRates::default() };
        let spec = PlatformSpec::default_smart_infinity(1, StorageKind::PlainSsd);
        let platform = PlatformSpec { rates, ..spec }.build().unwrap();
        let uplink = platform.topology.route(platform.host, platform.expansion).unwrap();
        assert_eq!(platform.topology.edge_bandwidth(uplink[0]), 1.0e9);
    }
}
