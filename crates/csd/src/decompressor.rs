//! The general decompressor kernel (paper Section V-B).
//!
//! The Top-K decompressor reads the compressed gradient (index list + value
//! list) in BRAM-sized chunks of `S` pairs, zero-initialises the gradient
//! buffer for the current subgroup, and scatters each value to the position
//! named by its index. It contains no arithmetic — "only requires routing the
//! value to the right location" — which is why its resource cost in Table III
//! is marginal.
//!
//! # `chunk_pairs` and the host tile
//!
//! The hardware blocks the *input*: [`Decompressor::chunk_pairs`] (the
//! paper's `S`) pairs are staged in BRAM per load, however much dense
//! gradient they cover (at 1 % keep, 4096 pairs span ~400 Ki elements), and
//! the scatter lands in a subgroup-sized buffer in FPGA DRAM. The host model
//! of [`crate::CsdDevice::update_subgroup`] blocks the *output* instead: it
//! produces the dense gradient one cache-sized tile of elements at a time and
//! takes from the stream whatever pairs fall inside the tile (~80 at 1 %
//! keep), so no subgroup-sized gradient buffer exists on the host. Both walk
//! the stream once, front to back, which the ascending-index invariant of
//! [`CompressedGradient`] allows; `chunk_pairs` therefore shapes only the
//! timed model and the loop blocking of [`Decompressor::decompress_into`],
//! never a result.

use gradcomp::CompressedGradient;
use serde::{Deserialize, Serialize};
use tensorlib::FlatTensor;

/// Configuration and functional implementation of the decompressor kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Decompressor {
    /// Number of index/value pairs processed per BRAM chunk (the paper's `S`).
    pub chunk_pairs: usize,
    /// Kernel clock in Hz.
    pub clock_hz: f64,
    /// Pairs scattered per clock cycle (scatter lanes).
    pub pairs_per_cycle: f64,
    /// Effective device-DRAM bandwidth for the zero-fill + scatter traffic,
    /// bytes/second.
    pub dram_bytes_per_sec: f64,
}

impl Default for Decompressor {
    fn default() -> Self {
        Self {
            chunk_pairs: 4096,
            clock_hz: 250.0e6,
            pairs_per_cycle: 2.0,
            dram_bytes_per_sec: 3.8e9,
        }
    }
}

impl Decompressor {
    /// Functionally decompresses a whole compressed gradient (scatter into a
    /// zero gradient buffer), processing the pair lists chunk by chunk exactly
    /// as the hardware does.
    pub fn decompress(&self, compressed: &CompressedGradient) -> FlatTensor {
        let mut out = FlatTensor::zeros(compressed.original_len());
        self.decompress_into(compressed, out.as_mut_slice());
        out
    }

    /// Decompresses into an existing buffer (zeroed first).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != compressed.original_len()`.
    pub fn decompress_into(&self, compressed: &CompressedGradient, out: &mut [f32]) {
        assert_eq!(out.len(), compressed.original_len(), "output buffer length mismatch");
        out.fill(0.0);
        let indices = compressed.indices();
        let values = compressed.values();
        let chunk = self.chunk_pairs.max(1);
        let mut start = 0;
        while start < indices.len() {
            let end = (start + chunk).min(indices.len());
            for j in start..end {
                out[indices[j] as usize] = values[j];
            }
            start = end;
        }
    }

    /// Decompresses only the elements belonging to the subgroup
    /// `[subgroup_offset, subgroup_offset + out.len())` of the original
    /// gradient (the partition-masking step of Fig. 7): one binary search for
    /// the subgroup's first pair, then a walk over its pairs only.
    ///
    /// # Panics
    ///
    /// Panics if the subgroup range extends past the original gradient length.
    pub fn decompress_subgroup(
        &self,
        compressed: &CompressedGradient,
        subgroup_offset: usize,
        out: &mut [f32],
    ) {
        let original_len = compressed.original_len();
        assert!(
            subgroup_offset.checked_add(out.len()).is_some_and(|end| end <= original_len),
            "subgroup of {} elements at {subgroup_offset} exceeds gradient length {original_len}",
            out.len()
        );
        StreamCursor::at(compressed, subgroup_offset).scatter_next(subgroup_offset, out);
    }

    /// Sustained decompression throughput measured in bytes of *dense*
    /// gradient produced per second (the quantity comparable to the SSD read
    /// bandwidth in Fig. 14): limited by either the scatter rate or the
    /// DRAM zero-fill/write bandwidth.
    pub fn throughput_bytes_per_sec(&self, keep_ratio: f64) -> f64 {
        assert!(keep_ratio > 0.0 && keep_ratio <= 1.0, "keep ratio must be in (0, 1]");
        // Scatter limit: pairs/s / keep_ratio elements of dense output per pair.
        let scatter = self.pairs_per_cycle * self.clock_hz / keep_ratio * 4.0;
        scatter.min(self.dram_bytes_per_sec)
    }
}

/// A position in a compressed stream: the pairs not yet scattered. Because
/// the indices ascend, consecutive tiles of the dense gradient consume
/// consecutive runs of pairs, so a tile costs its own pairs and nothing else.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StreamCursor<'a> {
    indices: &'a [u32],
    values: &'a [f32],
}

impl<'a> StreamCursor<'a> {
    /// The pairs of `compressed` at or after element `start`.
    pub(crate) fn at(compressed: &'a CompressedGradient, start: usize) -> Self {
        let (indices, values) = (compressed.indices(), compressed.values());
        let first = indices.partition_point(|&i| (i as usize) < start);
        Self { indices: &indices[first..], values: &values[first..] }
    }

    /// Zeroes `out`, the dense gradient of elements `[start, start +
    /// out.len())`, scatters the pairs that fall inside it and moves past
    /// them. `start` must not precede the cursor's position.
    pub(crate) fn scatter_next(&mut self, start: usize, out: &mut [f32]) {
        out.fill(0.0);
        let end = start + out.len();
        let mut taken = 0;
        for (&i, &v) in self.indices.iter().zip(self.values) {
            if i as usize >= end {
                break;
            }
            out[i as usize - start] = v;
            taken += 1;
        }
        self.indices = &self.indices[taken..];
        self.values = &self.values[taken..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradcomp::Compressor;
    use proptest::prelude::*;

    #[test]
    fn matches_the_reference_scatter_for_any_chunk_size() {
        let grads = FlatTensor::randn(5000, 1.0, 11);
        let compressed = Compressor::top_k(0.05).compress(&grads);
        let reference = compressed.decompress();
        for chunk in [1, 7, 256, 100_000] {
            let d = Decompressor { chunk_pairs: chunk, ..Decompressor::default() };
            assert_eq!(d.decompress(&compressed), reference, "chunk={chunk}");
        }
    }

    #[test]
    fn subgroup_decompression_matches_a_slice_of_the_full_result() {
        let grads = FlatTensor::randn(1000, 1.0, 5);
        let compressed = Compressor::top_k(0.1).compress(&grads);
        let full = compressed.decompress();
        let d = Decompressor::default();
        let mut sub = vec![0.0f32; 300];
        d.decompress_subgroup(&compressed, 200, &mut sub);
        assert_eq!(&sub[..], &full.as_slice()[200..500]);
    }

    #[test]
    fn default_throughput_slightly_exceeds_ssd_read() {
        // Fig. 14: the decompressor "slightly surpasses the throughput of the
        // SSD read" (3.3 GB/s).
        let d = Decompressor::default();
        let gbps = d.throughput_bytes_per_sec(0.01) / 1e9;
        assert!(gbps > 3.3 && gbps < 6.0, "decompressor throughput {gbps:.2} GB/s");
    }

    #[test]
    fn very_dense_streams_become_scatter_bound() {
        let d = Decompressor::default();
        // keep_ratio = 1.0: every output element needs its own pair.
        let dense = d.throughput_bytes_per_sec(1.0);
        let sparse = d.throughput_bytes_per_sec(0.01);
        assert!(dense < sparse);
    }

    #[test]
    #[should_panic(expected = "keep ratio")]
    fn zero_keep_ratio_panics() {
        Decompressor::default().throughput_bytes_per_sec(0.0);
    }

    #[test]
    #[should_panic(expected = "exceeds gradient length")]
    fn out_of_range_subgroup_panics() {
        let compressed = Compressor::top_k(0.5).compress(&FlatTensor::zeros(10));
        let mut out = vec![0.0f32; 8];
        Decompressor::default().decompress_subgroup(&compressed, 5, &mut out);
    }

    #[test]
    #[should_panic(expected = "exceeds gradient length")]
    fn a_subgroup_whose_end_overflows_panics_with_the_bounds_message() {
        // offset + len wraps to 6, which an unchecked sum would accept.
        let compressed = Compressor::top_k(0.5).compress(&FlatTensor::zeros(10));
        let mut out = vec![0.0f32; 8];
        Decompressor::default().decompress_subgroup(&compressed, usize::MAX - 1, &mut out);
    }

    proptest! {
        /// Stitched subgroups equal the full decompression for both selectors
        /// at sparse and dense keep ratios — including subgroups that hold no
        /// pair at all and a stream whose pairs all sit inside one subgroup.
        #[test]
        fn stitched_subgroups_equal_the_full_decompression_for_any_stream(
            len in 1usize..3000,
            subgroup in 1usize..700,
            seed in 0u64..500,
            cluster in 0usize..3000,
        ) {
            let grads = FlatTensor::randn(len, 1.0, seed);
            // A stream whose pairs all sit in one short run: every subgroup
            // outside it sees an empty walk.
            let run = cluster % len..(cluster % len + 1 + len / 50).min(len);
            let clustered = CompressedGradient::new(
                run.clone().map(|i| i as u32).collect(),
                grads.as_slice()[run].to_vec(),
                len,
            );
            let streams = [
                Compressor::top_k(0.001).compress(&grads),
                Compressor::top_k(0.3).compress(&grads),
                Compressor::random_k(0.02, seed).compress(&grads),
                clustered,
            ];
            let d = Decompressor::default();
            for compressed in &streams {
                let full = compressed.decompress();
                let mut stitched = vec![f32::NAN; len];
                for piece in stitched.chunks_mut(subgroup).enumerate() {
                    d.decompress_subgroup(compressed, piece.0 * subgroup, piece.1);
                }
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&stitched), bits(full.as_slice()));
            }
        }

        /// Stitching per-subgroup decompressions together reproduces the full
        /// dense gradient for any subgroup size.
        #[test]
        fn subgroups_tile_to_the_full_decompression(
            len in 1usize..2000,
            keep in 0.01f64..0.5,
            subgroup in 1usize..300,
        ) {
            let grads = FlatTensor::randn(len, 1.0, 17);
            let compressed = Compressor::top_k(keep).compress(&grads);
            let full = compressed.decompress();
            let d = Decompressor::default();
            let mut stitched = vec![0.0f32; len];
            let mut offset = 0;
            while offset < len {
                let this = subgroup.min(len - offset);
                let mut buf = vec![0.0f32; this];
                d.decompress_subgroup(&compressed, offset, &mut buf);
                stitched[offset..offset + this].copy_from_slice(&buf);
                offset += this;
            }
            prop_assert_eq!(stitched.as_slice(), full.as_slice());
        }
    }
}
