//! SIMD candidate filtering for the Top-K selection.
//!
//! The selection's one pass over a shard keeps every index whose magnitude is
//! **not less than** the estimated cut — `!(|v| < t)` rather than
//! `|v| >= t` so NaN magnitudes (and a NaN threshold) stay in the candidate
//! set. The AVX2 body uses an ordered less-than compare (`_CMP_LT_OQ`), which
//! is false on NaN exactly like Rust's scalar `<`, then inverts the lane
//! mask — so the selected index set is identical to the scalar scan for every
//! input, NaNs and ties included.
//!
//! The AVX2 body stays hand-written: at the low survivor rates the Top-K cut
//! leaves, its movemask loop is much faster than the scalar scan compiled for
//! AVX2, which the compiler does not vectorise. The scalar tier runs the
//! scalar scan.
//!
//! This is the only module in the crate allowed to use `unsafe` (for
//! `std::arch` intrinsics); the crate root remains `deny(unsafe_code)`.
#![allow(unsafe_code)]

use tensorlib::KernelPath;

/// Appends to `out` every index `i` (ascending) where `!(grads[i].abs() < threshold)`.
pub(crate) fn filter_not_less(path: KernelPath, grads: &[f32], threshold: f32, out: &mut Vec<u32>) {
    debug_assert!(path.is_available());
    #[cfg(target_arch = "x86_64")]
    if path == KernelPath::Avx2 {
        // Safety: `is_available` is checked by `KernelPath::active()` /
        // asserted by test callers.
        return unsafe { x86::filter_avx2(grads, threshold, out) };
    }
    filter_scalar(grads, threshold, 0, out);
}

/// Scalar reference scan; `base` offsets the emitted indices so the AVX2
/// driver can reuse it for its ragged tail.
pub(crate) fn filter_scalar(grads: &[f32], threshold: f32, base: usize, out: &mut Vec<u32>) {
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    for (i, v) in grads.iter().enumerate() {
        // `!(x < t)` rather than `x >= t`: NaN magnitudes (and a NaN
        // threshold) must land in the candidate set, not silently drop out.
        if !(v.abs() < threshold) {
            out.push((base + i) as u32);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::filter_scalar;
    use std::arch::x86_64::*;

    /// # Safety
    ///
    /// Caller guarantees AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn filter_avx2(grads: &[f32], threshold: f32, out: &mut Vec<u32>) {
        let n = grads.len();
        let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
        let t = _mm256_set1_ps(threshold);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(grads.as_ptr().add(i));
            let lt = _mm256_cmp_ps::<_CMP_LT_OQ>(_mm256_and_ps(v, abs_mask), t);
            // Keep the lanes where `|v| < t` is FALSE (NaN compares false,
            // so NaN lanes are kept — same as the scalar `!(x < t)`).
            let mut keep = (!_mm256_movemask_ps(lt)) & 0xFF;
            while keep != 0 {
                let lane = keep.trailing_zeros() as usize;
                out.push((i + lane) as u32);
                keep &= keep - 1;
            }
            i += 8;
        }
        filter_scalar(&grads[i..], threshold, i, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: KernelPath, grads: &[f32], threshold: f32) -> Vec<u32> {
        let mut out = Vec::new();
        filter_not_less(path, grads, threshold, &mut out);
        out
    }

    /// Inputs covering ties (exactly equal to the threshold), NaN values, a
    /// NaN threshold, ±0, infinities, subnormals and ragged lengths.
    #[test]
    fn vector_filter_matches_scalar_on_adversarial_inputs() {
        let adversarial = [
            1.0f32,
            -1.0,
            0.5,
            -0.5,
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            1.0 - f32::EPSILON, // just under a 1.0 threshold
            1.0 + f32::EPSILON, // just over
            65504.0,
            -3.5,
            2.25,
        ];
        let thresholds = [1.0f32, 0.5, 0.0, -0.0, f32::NAN, f32::INFINITY, f32::MIN_POSITIVE];
        for t in thresholds {
            // Sweep lengths so every width gets full blocks and ragged tails.
            for len in 0..adversarial.len() {
                let grads = &adversarial[..len];
                let reference = run(KernelPath::Scalar, grads, t);
                for path in KernelPath::available() {
                    assert_eq!(
                        run(path, grads, t),
                        reference,
                        "path {path} diverged at threshold {t:?} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn tie_values_are_kept_on_every_path() {
        // An exact tie `|v| == t` must be kept (`!(x < t)` is true).
        let grads = [0.25f32, -0.25, 0.125, 0.25, 0.5, -0.25, 0.1, 0.25, 0.3];
        for path in KernelPath::available() {
            let kept = run(path, &grads, 0.25);
            assert_eq!(kept, vec![0, 1, 3, 4, 5, 7, 8], "path {path}");
        }
    }
}
