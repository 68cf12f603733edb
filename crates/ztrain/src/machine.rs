//! The hardware description of one training server.

use fabric::{LinkRates, PlatformSpec, StorageKind, TopologyKind};
use llm::{CpuSpec, GpuSpec};
use serde::{Deserialize, Serialize};
use ssd::BandwidthProfile;

/// Everything the timed engine needs to know about the machine: which GPU(s),
/// the host CPU's update throughput, how many storage devices of which kind,
/// their bandwidths, and where everything sits in the PCIe topology.
///
/// Presets mirror the paper's test-bed (Table II): a Xeon Gold 6342 host, an
/// RTX A5000 by default, SmartSSD-class NVMe devices behind an H3 Falcon PCIe
/// expansion switch, and a 16 GB/s shared host interconnect.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// GPU model used for forward/backward compute.
    pub gpu: GpuSpec,
    /// Number of GPUs (tensor parallelism within the server).
    pub num_gpus: usize,
    /// Host CPU (baseline update path).
    pub cpu: CpuSpec,
    /// Per-device NVMe bandwidth.
    pub ssd: BandwidthProfile,
    /// Number of storage devices behind the expansion switch.
    pub num_devices: usize,
    /// Plain SSDs (baseline / RAID0) or CSDs (Smart-Infinity). What a
    /// [`crate::TimedPlatform`] built from this config installs; the timed
    /// engine in `smart_infinity` sets it from the method, not from here.
    pub storage: StorageKind,
    /// Default or congested GPU placement.
    pub topology: TopologyKind,
    /// PCIe link bandwidths.
    pub rates: LinkRates,
    /// Sustained FPGA updater throughput in bytes of state+gradient per
    /// second (only meaningful for CSD platforms).
    pub fpga_update_bytes_per_sec: f64,
    /// Sustained FPGA decompressor throughput in bytes of dense gradient
    /// produced per second (only meaningful for CSD platforms).
    pub fpga_decompress_bytes_per_sec: f64,
}

impl MachineConfig {
    /// The paper's baseline: ZeRO-Infinity with `num_ssds` plain NVMe SSDs in
    /// software RAID0, one RTX A5000, default topology.
    pub fn baseline_raid0(num_ssds: usize) -> Self {
        assert!(num_ssds > 0, "at least one storage device is required");
        Self {
            gpu: GpuSpec::a5000(),
            num_gpus: 1,
            cpu: CpuSpec::xeon_gold_6342(),
            ssd: BandwidthProfile::smartssd_nvme(),
            num_devices: num_ssds,
            storage: StorageKind::PlainSsd,
            topology: TopologyKind::Default,
            rates: LinkRates::default(),
            fpga_update_bytes_per_sec: 7.3e9,
            fpga_decompress_bytes_per_sec: 3.8e9,
        }
    }

    /// The Smart-Infinity platform: `num_csds` SmartSSDs, one RTX A5000,
    /// default topology.
    pub fn smart_infinity(num_csds: usize) -> Self {
        Self { storage: StorageKind::Csd, ..Self::baseline_raid0(num_csds) }
    }

    /// The congested multi-GPU topology of Fig. 17: `num_gpus` RTX A4000s
    /// share the expansion switch with `num_csds` SmartSSDs.
    pub fn congested_multi_gpu(num_csds: usize, num_gpus: usize) -> Self {
        assert!(num_gpus > 0, "at least one GPU is required");
        Self {
            gpu: GpuSpec::a4000(),
            num_gpus,
            topology: TopologyKind::Congested,
            ..Self::smart_infinity(num_csds)
        }
    }

    /// Replaces the GPU model (e.g. [`GpuSpec::a100`] for Section VII-E).
    pub fn with_gpu(mut self, gpu: GpuSpec) -> Self {
        self.gpu = gpu;
        self
    }

    /// The fabric platform spec corresponding to this machine.
    pub(crate) fn platform_spec(&self) -> PlatformSpec {
        PlatformSpec {
            num_devices: self.num_devices,
            storage: self.storage,
            num_gpus: self.num_gpus,
            topology: self.topology,
            rates: self.rates,
        }
    }

    /// Whether the storage devices are CSDs.
    pub fn is_csd(&self) -> bool {
        self.storage == StorageKind::Csd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_paper_testbed() {
        let base = MachineConfig::baseline_raid0(6);
        assert_eq!(base.num_devices, 6);
        assert_eq!(base.gpu.name, "A5000");
        assert!(!base.is_csd());
        assert_eq!(base.topology, TopologyKind::Default);

        let smart = MachineConfig::smart_infinity(10);
        assert!(smart.is_csd());
        assert_eq!(smart.num_devices, 10);

        let congested = MachineConfig::congested_multi_gpu(10, 3);
        assert_eq!(congested.num_gpus, 3);
        assert_eq!(congested.gpu.name, "A4000");
        assert_eq!(congested.topology, TopologyKind::Congested);
    }

    /// Fig. 14: the FPGA kernels outpace the SSD, so they never become the
    /// bottleneck; and the timed model's FPGA rates and SSD are the ones the
    /// kernels and the device report, bit for bit.
    #[test]
    fn fig14_kernels_outpace_the_ssd() {
        let updater = csd::Updater::default().throughput_bytes_per_sec(optim::OptimizerKind::Adam);
        let decompressor = csd::Decompressor::default().throughput_bytes_per_sec(0.01);
        let ssd = BandwidthProfile::smartssd_nvme();
        assert!(updater > 2.0 * ssd.read_bytes_per_sec);
        assert!(decompressor.min(updater) > ssd.read_bytes_per_sec);
        assert!(ssd.read_bytes_per_sec > ssd.write_bytes_per_sec);

        let machine = MachineConfig::smart_infinity(1);
        assert_eq!(machine.fpga_update_bytes_per_sec.to_bits(), updater.to_bits());
        assert_eq!(machine.fpga_decompress_bytes_per_sec.to_bits(), decompressor.to_bits());
        assert_eq!(machine.ssd, ssd);
    }

    #[test]
    fn builders_override_fields() {
        let m = MachineConfig::baseline_raid0(2).with_gpu(GpuSpec::a100());
        assert_eq!(m.gpu.name, "A100");
        let spec = m.platform_spec();
        assert_eq!(spec.num_devices, 2);
        assert_eq!(spec.storage, StorageKind::PlainSsd);
    }

    #[test]
    #[should_panic(expected = "at least one storage device")]
    fn zero_devices_panics() {
        MachineConfig::baseline_raid0(0);
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpus_panics() {
        MachineConfig::congested_multi_gpu(1, 0);
    }
}
