//! Error feedback (residual accumulation) for sparsified gradients.
//!
//! Standard practice in gradient-sparsification training (Lin et al., 2018;
//! paper Section IX-B): the mass dropped by Top-K at step `t` is remembered
//! and added back to the gradient at step `t+1`, so that every coordinate is
//! eventually communicated and convergence is preserved.

use crate::compressed::{check_index_space, CompressError, CompressedGradient};
use crate::compressor::{CompressLane, Compressor, Source};
use parcore::ParExecutor;
use serde::{Deserialize, Serialize};
use tensorlib::{FlatTensor, KernelPath};

/// Residual accumulator for one flat gradient buffer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorFeedback {
    residual: FlatTensor,
}

impl ErrorFeedback {
    /// Creates a zero residual for gradients of length `len`.
    pub fn new(len: usize) -> Self {
        Self { residual: FlatTensor::zeros(len) }
    }

    /// Length of the gradient this accumulator tracks.
    pub fn len(&self) -> usize {
        self.residual.len()
    }

    /// Whether the accumulator tracks an empty gradient.
    pub fn is_empty(&self) -> bool {
        self.residual.is_empty()
    }

    /// The current residual.
    pub fn residual(&self) -> &FlatTensor {
        &self.residual
    }

    /// Returns `grads + residual`: the corrected gradient that should be fed
    /// to the compressor.
    ///
    /// Allocates a fresh tensor; hot paths that already own their gradient
    /// buffer should prefer [`ErrorFeedback::apply_in_place`], and a caller
    /// that compresses every step [`ErrorFeedback::compress_into`].
    ///
    /// # Panics
    ///
    /// Panics if `grads.len()` differs from the accumulator length.
    pub fn apply(&self, grads: &FlatTensor) -> FlatTensor {
        let mut corrected = grads.clone();
        self.apply_in_place(&mut corrected);
        corrected
    }

    /// Adds the residual into `grads` in place (`grads += residual`), turning
    /// the raw gradient into the corrected gradient with zero allocations.
    ///
    /// # Panics
    ///
    /// Panics if `grads.len()` differs from the accumulator length.
    pub fn apply_in_place(&self, grads: &mut FlatTensor) {
        assert_eq!(grads.len(), self.residual.len(), "gradient length mismatch");
        grads.axpby(1.0, 1.0, &self.residual);
    }

    /// One whole compress stage on this accumulator's own memory: the
    /// gradient is accumulated into the residual (`residual += grads`), which
    /// makes **the residual the corrected gradient**; the compressor selects
    /// from it into `lane`'s stream; the transmitted coordinates are zeroed,
    /// which leaves exactly the untransmitted part. For Top-K the
    /// accumulation and the candidate filter are one pass over the residual
    /// (the cut is estimated from sampled sums beforehand, writing nothing).
    /// Bit-identical — stream and residual — to
    /// [`ErrorFeedback::apply_in_place`], [`Compressor::compress_par`] and
    /// [`ErrorFeedback::update`] in sequence, without the corrected-gradient
    /// buffer and its copy back.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::IndexSpaceExceeded`] if the gradient is
    /// longer than `u32::MAX` elements; the residual is untouched then.
    ///
    /// # Panics
    ///
    /// Panics if `grads.len()` differs from the accumulator length.
    pub fn compress_into(
        &mut self,
        grads: &[f32],
        compressor: &Compressor,
        pool: &ParExecutor,
        lane: &mut CompressLane,
    ) -> Result<(), CompressError> {
        let chunks = pool.workers_for(grads.len());
        self.compress_with(grads, compressor, KernelPath::active(), pool, chunks, lane)
    }

    /// [`ErrorFeedback::compress_into`] on an explicit kernel tier and chunk
    /// count.
    fn compress_with(
        &mut self,
        grads: &[f32],
        compressor: &Compressor,
        path: KernelPath,
        pool: &ParExecutor,
        num_chunks: usize,
        lane: &mut CompressLane,
    ) -> Result<(), CompressError> {
        assert_eq!(grads.len(), self.residual.len(), "gradient length mismatch");
        check_index_space(grads.len())?;
        let residual = self.residual.as_mut_slice();
        compressor.select_into(
            Source::Accumulate { residual, grads },
            path,
            pool,
            num_chunks,
            lane,
        );
        clear_transmitted(self.residual.as_mut_slice(), lane.stream());
        Ok(())
    }

    /// Updates the residual after compression: the new residual is the part of
    /// the *corrected* gradient that was not transmitted.
    ///
    /// Allocation-free: the corrected gradient is copied into the existing
    /// residual buffer and the transmitted coordinates are scatter-zeroed
    /// (each transmitted value equals the corrected value at its index, so
    /// subtracting the transmitted stream and zeroing are the same operation).
    ///
    /// # Panics
    ///
    /// Panics if the corrected gradient or the compressed gradient have a
    /// different length than the accumulator.
    pub fn update(&mut self, corrected: &FlatTensor, transmitted: &CompressedGradient) {
        assert_eq!(corrected.len(), self.residual.len(), "gradient length mismatch");
        assert_eq!(transmitted.original_len(), self.residual.len(), "compressed length mismatch");
        self.residual.as_mut_slice().copy_from_slice(corrected.as_slice());
        clear_transmitted(self.residual.as_mut_slice(), transmitted);
    }

    /// Overwrites the residual with checkpointed values, so a restored
    /// trainer continues with exactly the error-feedback state it saved.
    ///
    /// # Panics
    ///
    /// Panics if `residual.len()` differs from this feedback's length.
    pub fn restore_residual(&mut self, residual: &FlatTensor) {
        assert_eq!(residual.len(), self.residual.len(), "residual length mismatch");
        self.residual.as_mut_slice().copy_from_slice(residual.as_slice());
    }
}

/// Zeroes the transmitted coordinates of a corrected gradient, which leaves
/// the residual.
fn clear_transmitted(corrected: &mut [f32], transmitted: &CompressedGradient) {
    for &i in transmitted.indices() {
        corrected[i as usize] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::SAMPLE_FLOOR;
    use proptest::prelude::*;

    #[test]
    fn restore_residual_round_trips_through_a_saved_copy() {
        let mut fb = ErrorFeedback::new(3);
        fb.restore_residual(&FlatTensor::from_vec(vec![0.5, -1.5, 2.0]));
        assert_eq!(fb.residual().as_slice(), &[0.5, -1.5, 2.0]);
        let saved = fb.residual().clone();
        fb.restore_residual(&FlatTensor::zeros(3));
        assert_eq!(fb.residual().as_slice(), &[0.0, 0.0, 0.0]);
        fb.restore_residual(&saved);
        assert_eq!(fb.residual().as_slice(), &[0.5, -1.5, 2.0]);
    }

    #[test]
    #[should_panic(expected = "residual length mismatch")]
    fn restore_residual_rejects_wrong_lengths() {
        ErrorFeedback::new(3).restore_residual(&FlatTensor::zeros(2));
    }

    #[test]
    fn residual_holds_exactly_the_untransmitted_part() {
        let grads = FlatTensor::from_vec(vec![1.0, 10.0, 2.0, 20.0]);
        let compressor = Compressor::top_k(0.5);
        let mut fb = ErrorFeedback::new(4);
        let corrected = fb.apply(&grads);
        assert_eq!(corrected, grads); // residual starts at zero
        let compressed = compressor.compress(&corrected);
        fb.update(&corrected, &compressed);
        assert_eq!(fb.residual().as_slice(), &[1.0, 0.0, 2.0, 0.0]);
        assert_eq!(fb.len(), 4);
        assert!(!fb.is_empty());
    }

    #[test]
    fn next_step_reinjects_the_residual() {
        let grads = FlatTensor::from_vec(vec![1.0, 10.0, 2.0, 20.0]);
        let compressor = Compressor::top_k(0.5);
        let mut fb = ErrorFeedback::new(4);
        let corrected = fb.apply(&grads);
        let compressed = compressor.compress(&corrected);
        fb.update(&corrected, &compressed);
        // Next step with zero new gradient: the residual alone should now win.
        let corrected2 = fb.apply(&FlatTensor::zeros(4));
        assert_eq!(corrected2.as_slice(), &[1.0, 0.0, 2.0, 0.0]);
        let compressed2 = compressor.compress(&corrected2);
        assert_eq!(compressed2.indices(), &[0, 2]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_gradient_length_panics() {
        let fb = ErrorFeedback::new(3);
        fb.apply(&FlatTensor::zeros(4));
    }

    #[test]
    fn in_place_path_matches_the_allocating_path() {
        let compressor = Compressor::top_k(0.3);
        let mut fb_alloc = ErrorFeedback::new(64);
        let mut fb_inplace = ErrorFeedback::new(64);
        let mut fb_fused = ErrorFeedback::new(64);
        let mut lane = CompressLane::default();
        for step in 0..6u64 {
            let grads = FlatTensor::randn(64, 1.0, 900 + step);
            // Allocating path.
            let corrected_a = fb_alloc.apply(&grads);
            let compressed_a = compressor.compress(&corrected_a);
            fb_alloc.update(&corrected_a, &compressed_a);
            // Fused path: the gradient is a window of a larger tensor, the
            // residual is the corrected gradient, the lane is reused.
            let mut whole = FlatTensor::full(100, 7.0);
            whole.write_slice(20, grads.as_slice());
            fb_fused
                .compress_into(
                    &whole.as_slice()[20..84],
                    &compressor,
                    &ParExecutor::serial(),
                    &mut lane,
                )
                .unwrap();
            assert_eq!(lane.stream(), &compressed_a, "fused stream diverged at step {step}");
            assert_eq!(fb_fused.residual(), fb_alloc.residual(), "fused residual diverged");
            // In-place path: mutate an owned copy of the gradient buffer.
            let mut corrected_b = grads;
            fb_inplace.apply_in_place(&mut corrected_b);
            assert_eq!(corrected_b, corrected_a, "corrected diverged at step {step}");
            let compressed_b = compressor.compress(&corrected_b);
            fb_inplace.update(&corrected_b, &compressed_b);
            assert_eq!(compressed_b, compressed_a, "compressed diverged at step {step}");
            assert_eq!(fb_inplace.residual(), fb_alloc.residual(), "residual diverged at {step}");
        }
    }

    /// The gradient of step `step` of a shard of kind `kind` for the fused
    /// stage's property: each kind is a pattern the selection must treat
    /// exactly.
    fn adversarial_grads(kind: usize, n: usize, seed: u64, step: u64) -> FlatTensor {
        let stride = crate::compressor::sample_stride(n);
        let noise = FlatTensor::randn(n, 1.0, seed.wrapping_mul(31).wrapping_add(step));
        let noise = noise.as_slice();
        FlatTensor::from_fn(n, |i| match kind {
            // Quantised, so that many magnitudes tie with the k-th and small
            // negatives round to -0.0.
            0 => (noise[i] * 4.0).round() / 4.0,
            // NaNs of many payloads and both signs, on the first step only:
            // a later NaN could meet a NaN left in the residual, and the
            // payload of NaN + NaN is not specified.
            1 if step == 0 && i % 97 == 3 => {
                f32::from_bits(0x7FC0_0000 | (i as u32 & 0x3F_FFFF) | ((i as u32 & 1) << 31))
            }
            1 => noise[i],
            // A sea of equal magnitudes (signs alternate) with the true top
            // parked between sample points: the cut ties with the sea.
            2 if i % stride != 0 && i % 1009 == 1 => 50.0 + noise[i].abs(),
            2 => {
                if i % 2 == 0 {
                    1.5
                } else {
                    -1.5
                }
            }
            // Large values on every sample point and nowhere else: every cut
            // the sample offers is too high, so the selection falls back to
            // refiltering the accumulated residual.
            3 if i % stride == 0 => 1000.0 + (i % 7) as f32,
            _ => noise[i] * 0.01,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// The fused compress stage equals `apply_in_place` → `try_compress`
        /// → `update` — stream and residual under `to_bits`, step after step
        /// — on every kernel tier and at 1–4 chunks: ties at the k-th
        /// magnitude and ±0, NaN payloads, the all-equal sea, the cut that
        /// forces the refilter fallback, shards below the sampling floor and
        /// keep ratios with `k >= n / 4`.
        #[test]
        fn compress_into_equals_the_three_step_reference(
            kind in 0usize..4,
            small in any::<bool>(),
            wide in any::<bool>(),
            extra in 0usize..300,
            seed in 0u64..1000,
        ) {
            let n = if small { 1 + extra * 7 } else { SAMPLE_FLOOR + extra };
            let ratio = if wide { 0.25 + extra as f64 / 1000.0 } else { 0.002 + extra as f64 / 4000.0 };
            let compressor = Compressor::top_k(ratio);
            let pool = ParExecutor::new(2);
            let grads: Vec<FlatTensor> =
                (0..3).map(|step| adversarial_grads(kind, n, seed, step)).collect();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut reference = ErrorFeedback::new(n);
            let expected: Vec<(CompressedGradient, Vec<u32>)> = grads
                .iter()
                .map(|g| {
                    let mut corrected = g.clone();
                    reference.apply_in_place(&mut corrected);
                    let stream = compressor.try_compress(&corrected).unwrap();
                    reference.update(&corrected, &stream);
                    (stream, bits(reference.residual().as_slice()))
                })
                .collect();
            for path in KernelPath::available() {
                for chunks in 1..=4 {
                    let mut fused = ErrorFeedback::new(n);
                    let mut lane = CompressLane::default();
                    for (step, (g, (stream, residual))) in grads.iter().zip(&expected).enumerate() {
                        fused
                            .compress_with(g.as_slice(), &compressor, path, &pool, chunks, &mut lane)
                            .unwrap();
                        let at = format!("{path} chunks={chunks} step={step} n={n} k={}",
                            stream.num_selected());
                        prop_assert_eq!(lane.stream().indices(), stream.indices(), "{}", at);
                        prop_assert_eq!(bits(lane.stream().values()), bits(stream.values()), "{}", at);
                        prop_assert_eq!(lane.stream().original_len(), n);
                        prop_assert!(bits(fused.residual().as_slice()) == *residual, "{}", at);
                    }
                }
            }
        }

    }

    proptest! {
        /// Transmitted + residual always reconstructs the corrected gradient exactly.
        #[test]
        fn transmitted_plus_residual_equals_corrected(
            values in proptest::collection::vec(-50.0f32..50.0, 1..200),
            ratio in 0.05f64..1.0,
        ) {
            let grads = FlatTensor::from_vec(values);
            let compressor = Compressor::top_k(ratio);
            let mut fb = ErrorFeedback::new(grads.len());
            let corrected = fb.apply(&grads);
            let compressed = compressor.compress(&corrected);
            fb.update(&corrected, &compressed);
            let mut reconstructed = compressed.decompress();
            reconstructed.axpby(1.0, 1.0, fb.residual());
            for (a, b) in reconstructed.as_slice().iter().zip(corrected.as_slice()) {
                prop_assert!((a - b).abs() < 1e-6);
            }
        }
    }
}
