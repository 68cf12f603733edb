//! # tensorlib — flat tensors, half precision and parameter partitioning
//!
//! Storage-offloaded training (ZeRO-Infinity and Smart-Infinity alike) treats
//! a model as one *flattened* parameter vector: partitioning across devices,
//! subgroup chunking for the accelerator DRAM, and mixed-precision
//! conversions are all performed on flat `f32`/`f16` buffers, agnostic of the
//! model architecture (paper Section IV-D). This crate provides those
//! primitives:
//!
//! * [`struct@f16`] — IEEE 754 binary16 emulation with round-to-nearest-even,
//!   matching what the GPU and the FPGA updater exchange.
//! * [`FlatTensor`] — an owned flat `f32` vector with the element-wise
//!   operations the rest of the workspace needs (AXPBY, norms, NaN/Inf scans,
//!   byte-level serialization in either precision).
//! * [`Chunker`] — splits a flat range into fixed-size subgroups ("tasklets")
//!   sized to the accelerator device memory.
//! * [`Partitioner`] — splits the flattened model across multiple devices
//!   (the multi-CSD workload distribution).
//! * [`KernelPath`] — the runtime-dispatched kernel tier: `avx2` behind
//!   `is_x86_feature_detected!` (F16C intrinsics for the binary16
//!   conversions), with the scalar loops as the always-available,
//!   bit-identical fallback.
//! * [`le_bytes`] — the one `f32` ⇄ little-endian-bytes primitive: on a
//!   little-endian target a tensor's memory is its wire form, so transfers
//!   borrow it instead of converting.

// `unsafe` is denied crate-wide; only the `simd` module (`std::arch`
// intrinsics) and the `le_bytes` module (the float-slice byte views)
// override it with a scoped allow (`forbid` would not permit that).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod chunk;
mod half;
pub mod le_bytes;
mod partition;
mod simd;
mod tensor;

pub use chunk::{Chunker, Subgroup};
pub use half::f16;
pub use partition::{Partitioner, Shard};
pub use simd::KernelPath;
pub use tensor::{Dtype, FlatTensor};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_roundtrip_f16_through_bytes() {
        let t = FlatTensor::from_vec(vec![0.5, -1.25, 3.0, 65504.0]);
        let bytes = t.to_bytes(Dtype::F16);
        let back = FlatTensor::from_bytes(&bytes, Dtype::F16);
        assert_eq!(back.as_slice(), t.as_slice());
    }

    #[test]
    fn partition_then_chunk_covers_every_element_once() {
        let n = 10_007;
        let parts = Partitioner::contiguous(n, 3);
        let mut seen = vec![0u8; n];
        for shard in parts.shards() {
            for sg in Chunker::new(shard.len, 1000).subgroups() {
                for i in 0..sg.len {
                    seen[shard.offset + sg.offset + i] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }
}
