//! # csd — computational storage device (SmartSSD) model
//!
//! A SmartSSD packages a 4 TB NVMe SSD and a Kintex KU15P FPGA behind a
//! private PCIe switch, so the FPGA can stream data to/from the SSD without
//! touching the host's shared interconnect (paper Section II-B). This crate
//! models that device:
//!
//! * [`Updater`] — the general optimizer-update kernel built from SIMD AXPBY
//!   processing elements (paper Section V-A, Fig. 7 bottom). Functionally it
//!   executes exactly the same kernels as the host CPU (`optim`), which is
//!   the paper's bit-equivalence argument; its throughput model reproduces
//!   the ≈7 GB/s updater bars of Fig. 14.
//! * [`Decompressor`] — the general Top-K decompressor (Section V-B, Fig. 7
//!   top): scatters an index/value list into a zero-initialised gradient
//!   buffer, processing `S`-sized chunks that fit in BRAM.
//! * [`FpgaResources`] / [`KernelResourceModel`] — the KU15P resource budget
//!   and per-kernel utilisation that reproduces Table III.
//! * The 4 GB FPGA DRAM, a buffer allocator inside [`CsdDevice`] that fails
//!   with [`DramError`]; it shows why naive transfer overlapping runs out of
//!   memory and the handler's pre-allocated buffer reuse does not (Section
//!   IV-B).
//! * [`CsdDevice`] — one SmartSSD: SSD + DRAM + kernels + internal-P2P
//!   traffic counters, with a functional `update_subgroup` path used by the
//!   Smart-Infinity functional engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decompressor;
mod device;
mod dram;
mod resource;
mod updater;

pub use decompressor::Decompressor;
pub use device::{CsdDevice, CsdError, CsdTrafficStats, SubgroupUpdate, UpdateTimes};
pub use dram::DramError;
pub use resource::{FpgaResources, KernelResourceModel, ResourceUtilization};
pub use updater::Updater;

#[cfg(test)]
mod tests {
    use super::*;
    use gradcomp::Compressor;
    use optim::Optimizer;
    use tensorlib::FlatTensor;

    /// The FPGA update path produces bit-identical results to calling the
    /// optimizer kernels directly on the host (the paper's SmartUpdate
    /// equivalence claim).
    #[test]
    fn csd_update_is_bit_identical_to_host_update() {
        let n = 4096;
        let optimizer = Optimizer::adam_default();
        let params = FlatTensor::randn(n, 0.02, 1);
        let grads = FlatTensor::randn(n, 0.01, 2);

        // Host reference.
        let mut host_params = params.clone();
        let mut host_aux = optimizer.init_aux(n);
        optimizer.step(host_params.as_mut_slice(), &grads, &mut host_aux, 1);

        // CSD path: states live on the SSD, the FPGA updates them via P2P.
        let mut csd = CsdDevice::new("csd0", 1 << 30, 64 << 20);
        csd.store_initial_state("shard", &params, &optimizer).unwrap();
        csd.store_gradients("shard", grads.as_slice()).unwrap();
        csd.update_subgroup(SubgroupUpdate {
            shard: "shard",
            offset: 0,
            len: n,
            optimizer,
            step: 1,
            compressed: None,
        })
        .unwrap();
        let updated = csd.load_parameters("shard", 0, n).unwrap();
        assert_eq!(updated.as_slice(), host_params.as_slice());
    }

    /// The FPGA decompressor matches the reference scatter semantics.
    #[test]
    fn decompressor_matches_reference_semantics() {
        let grads = FlatTensor::randn(10_000, 1.0, 3);
        let compressed = Compressor::top_k(0.02).compress(&grads);
        let reference = compressed.decompress();
        let decompressor = Decompressor::default();
        let restored = decompressor.decompress(&compressed);
        assert_eq!(restored, reference);
    }
}
