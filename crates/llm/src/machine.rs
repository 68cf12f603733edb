//! GPU, CPU and SSD device specifications used by the performance model.

use serde::{Deserialize, Serialize};

/// A GPU specification: sustained training throughput and price.
///
/// `effective_flops` already folds in a realistic model-FLOPs utilisation
/// (MFU ~40–45% of the tensor-core peak), which is what determines the
/// forward/backward durations in the timed engines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Marketing name ("A5000", "A100", ...).
    pub name: String,
    /// Peak FP16 tensor throughput in FLOP/s.
    pub peak_fp16_flops: f64,
    /// Sustained training throughput in FLOP/s (peak × MFU).
    pub effective_flops: f64,
    /// Device memory in bytes.
    pub memory_bytes: u64,
    /// Street price in USD (used by the GFLOPS/$ study).
    pub price_usd: f64,
}

impl GpuSpec {
    /// NVIDIA RTX A5000 (24 GB) — the paper's default GPU.
    pub fn a5000() -> Self {
        Self {
            name: "A5000".to_string(),
            peak_fp16_flops: 111.1e12,
            effective_flops: 50.0e12,
            memory_bytes: 24 * (1 << 30),
            price_usd: 2000.0,
        }
    }

    /// NVIDIA A100 40 GB — the higher-end GPU of Section VII-E.
    pub fn a100() -> Self {
        Self {
            name: "A100".to_string(),
            peak_fp16_flops: 312.0e12,
            effective_flops: 140.0e12,
            memory_bytes: 40 * (1 << 30),
            price_usd: 7000.0,
        }
    }

    /// NVIDIA RTX A4000 (16 GB, single slot) — used in the congested
    /// multi-GPU topology of Section VIII-A.
    pub fn a4000() -> Self {
        Self {
            name: "A4000".to_string(),
            peak_fp16_flops: 76.7e12,
            effective_flops: 34.0e12,
            memory_bytes: 16 * (1 << 30),
            price_usd: 1100.0,
        }
    }
}

/// Host CPU characteristics relevant to the baseline update path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuSpec {
    /// Marketing name.
    pub name: String,
    /// Sustained throughput of the AVX-optimised CPU Adam kernel, in bytes of
    /// optimizer state processed per second (DeepSpeed's CPU-Adam streams
    /// parameter + momentum + variance through the vector units).
    pub update_bytes_per_sec: f64,
    /// Host memory capacity in bytes.
    pub memory_bytes: u64,
}

impl CpuSpec {
    /// Dual-socket Xeon Gold 6342 with 1 TB of DDR4 (Table II).
    pub fn xeon_gold_6342() -> Self {
        Self {
            name: "Xeon Gold 6342 x2".to_string(),
            update_bytes_per_sec: 6.0e9,
            memory_bytes: 1024 * (1 << 30),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_specs_are_ordered_by_capability() {
        let a4000 = GpuSpec::a4000();
        let a5000 = GpuSpec::a5000();
        let a100 = GpuSpec::a100();
        assert!(a4000.effective_flops < a5000.effective_flops);
        assert!(a5000.effective_flops < a100.effective_flops);
        assert!(a5000.price_usd < a100.price_usd);
        assert!(a4000.memory_bytes < a5000.memory_bytes);
        assert!(a100.effective_flops < a100.peak_fp16_flops);
    }

    #[test]
    fn cpu_and_ssd_specs_are_sane() {
        let cpu = CpuSpec::xeon_gold_6342();
        assert!(cpu.update_bytes_per_sec > 1e9);
        assert!(cpu.memory_bytes >= 512 * (1 << 30));
    }
}
