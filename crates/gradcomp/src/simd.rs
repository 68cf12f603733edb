//! SIMD candidate filtering for the Top-K selection.
//!
//! The selection's pass over a shard keeps every `(index, value)` whose
//! magnitude is **not less than** the estimated cut — `!(|v| < t)` rather
//! than `|v| >= t` so NaN magnitudes (and a NaN threshold) stay in the
//! candidate set. The AVX2 bodies use an ordered less-than compare
//! (`_CMP_LT_OQ`), which is false on NaN exactly like Rust's scalar `<`, then
//! invert the lane mask — so the selected pairs are identical to the scalar
//! scan for every input, NaNs and ties included.
//!
//! There are two passes: [`filter_not_less`] reads a shard as it is, and
//! [`add_filter_not_less`] first adds a gradient into an error-feedback
//! residual, element by element, and filters the sums — the accumulate and
//! the filter of the compress stage in one pass over the residual.
//!
//! The AVX2 bodies stay hand-written: at the low survivor rates the Top-K cut
//! leaves, their movemask loops are much faster than the scalar scans
//! compiled for AVX2, which the compiler does not vectorise. The scalar tier
//! runs the scalar scans.
//!
//! This is the only module in the crate allowed to use `unsafe` (for
//! `std::arch` intrinsics); the crate root remains `deny(unsafe_code)`.
#![allow(unsafe_code)]

use crate::compressor::Candidates;
use tensorlib::KernelPath;

/// Appends to `out` every `(i, values[i])` (ascending `i`) where
/// `!(values[i].abs() < threshold)`.
pub(crate) fn filter_not_less(
    path: KernelPath,
    values: &[f32],
    threshold: f32,
    out: &mut Candidates,
) {
    debug_assert!(path.is_available());
    #[cfg(target_arch = "x86_64")]
    if path == KernelPath::Avx2 {
        // Safety: `is_available` is checked by `KernelPath::active()` /
        // asserted by test callers.
        return unsafe { x86::filter_avx2(values, threshold, out) };
    }
    filter_scalar(values, threshold, 0, out);
}

/// Adds `grads` into `residual` (`residual[i] += grads[i]`) and appends to
/// `out` every `(i, residual[i])` (ascending `i`) of the sums where
/// `!(residual[i].abs() < threshold)`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub(crate) fn add_filter_not_less(
    path: KernelPath,
    residual: &mut [f32],
    grads: &[f32],
    threshold: f32,
    out: &mut Candidates,
) {
    assert_eq!(residual.len(), grads.len(), "residual and gradient lengths differ");
    debug_assert!(path.is_available());
    #[cfg(target_arch = "x86_64")]
    if path == KernelPath::Avx2 {
        // Safety: as in `filter_not_less`.
        return unsafe { x86::add_filter_avx2(residual, grads, threshold, out) };
    }
    add_filter_scalar(residual, grads, threshold, 0, out);
}

/// Scalar reference scan; `base` offsets the emitted indices so the AVX2
/// driver can reuse it for its ragged tail.
fn filter_scalar(values: &[f32], threshold: f32, base: usize, out: &mut Candidates) {
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    for (i, &v) in values.iter().enumerate() {
        // `!(x < t)` rather than `x >= t`: NaN magnitudes (and a NaN
        // threshold) must land in the candidate set, not silently drop out.
        if !(v.abs() < threshold) {
            out.push((base + i) as u32, v);
        }
    }
}

/// Scalar reference accumulate-and-scan; `base` as in `filter_scalar`.
fn add_filter_scalar(
    residual: &mut [f32],
    grads: &[f32],
    threshold: f32,
    base: usize,
    out: &mut Candidates,
) {
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    for (i, (r, &g)) in residual.iter_mut().zip(grads).enumerate() {
        *r += g;
        if !(r.abs() < threshold) {
            out.push((base + i) as u32, *r);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{add_filter_scalar, filter_scalar, Candidates};
    use std::arch::x86_64::*;

    /// Appends the lanes of `v` (elements `i..i + 8`) whose `lt` mask bit is
    /// clear: `|v| < t` is FALSE there (NaN compares false, so NaN lanes are
    /// kept — same as the scalar `!(x < t)`).
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX2 is available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn push_kept(v: __m256, lt: __m256, i: usize, out: &mut Candidates) {
        let mut keep = (!_mm256_movemask_ps(lt)) & 0xFF;
        if keep == 0 {
            return;
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), v);
        while keep != 0 {
            let lane = keep.trailing_zeros() as usize;
            out.push((i + lane) as u32, lanes[lane]);
            keep &= keep - 1;
        }
    }

    /// # Safety
    ///
    /// Caller guarantees AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn filter_avx2(values: &[f32], threshold: f32, out: &mut Candidates) {
        let n = values.len();
        let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
        let t = _mm256_set1_ps(threshold);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(values.as_ptr().add(i));
            let lt = _mm256_cmp_ps::<_CMP_LT_OQ>(_mm256_and_ps(v, abs_mask), t);
            push_kept(v, lt, i, out);
            i += 8;
        }
        filter_scalar(&values[i..], threshold, i, out);
    }

    /// # Safety
    ///
    /// Caller guarantees AVX2 is available and `residual.len() == grads.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_filter_avx2(
        residual: &mut [f32],
        grads: &[f32],
        threshold: f32,
        out: &mut Candidates,
    ) {
        let n = residual.len();
        let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
        let t = _mm256_set1_ps(threshold);
        let (r, g) = (residual.as_mut_ptr(), grads.as_ptr());
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_add_ps(_mm256_loadu_ps(r.add(i)), _mm256_loadu_ps(g.add(i)));
            _mm256_storeu_ps(r.add(i), v);
            let lt = _mm256_cmp_ps::<_CMP_LT_OQ>(_mm256_and_ps(v, abs_mask), t);
            push_kept(v, lt, i, out);
            i += 8;
        }
        add_filter_scalar(&mut residual[i..], &grads[i..], threshold, i, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: KernelPath, values: &[f32], threshold: f32) -> (Vec<u32>, Vec<u32>) {
        let mut out = Candidates::default();
        filter_not_less(path, values, threshold, &mut out);
        (out.indices, out.values.iter().map(|v| v.to_bits()).collect())
    }

    /// Inputs covering ties (exactly equal to the threshold), NaN values, a
    /// NaN threshold, ±0, infinities, subnormals and ragged lengths.
    const ADVERSARIAL: [f32; 17] = [
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
    const THRESHOLDS: [f32; 7] = [1.0, 0.5, 0.0, -0.0, f32::NAN, f32::INFINITY, f32::MIN_POSITIVE];

    #[test]
    fn vector_filter_matches_scalar_on_adversarial_inputs() {
        for t in THRESHOLDS {
            // Sweep lengths so every width gets full blocks and ragged tails.
            for len in 0..ADVERSARIAL.len() {
                let values = &ADVERSARIAL[..len];
                let reference = run(KernelPath::Scalar, values, t);
                for path in KernelPath::available() {
                    assert_eq!(
                        run(path, values, t),
                        reference,
                        "path {path} diverged at threshold {t:?} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_fused_pass_is_an_accumulate_then_a_filter() {
        // Each adversarial value as a residual against a rotation of them as
        // the gradient (finite sums, cancellations to ±0, infinities, NaN
        // from one side only), on every tier, against the two passes apart.
        let n = ADVERSARIAL.len();
        for shift in 0..n {
            let grads: Vec<f32> = (0..n)
                .map(|i| ADVERSARIAL[(i + shift) % n])
                .map(|g| if g.is_nan() { 0.25 } else { g })
                .collect();
            for t in THRESHOLDS {
                let mut sums = ADVERSARIAL.to_vec();
                for (r, g) in sums.iter_mut().zip(&grads) {
                    *r += g;
                }
                let reference = run(KernelPath::Scalar, &sums, t);
                for path in KernelPath::available() {
                    let mut residual = ADVERSARIAL.to_vec();
                    let mut out = Candidates::default();
                    add_filter_not_less(path, &mut residual, &grads, t, &mut out);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&residual), bits(&sums), "{path} shift {shift} t {t:?}");
                    let fused = (out.indices, bits(&out.values));
                    assert_eq!(fused, reference, "{path} shift {shift} t {t:?}");
                }
            }
        }
    }

    #[test]
    fn tie_values_are_kept_on_every_path() {
        // An exact tie `|v| == t` must be kept (`!(x < t)` is true).
        let values = [0.25f32, -0.25, 0.125, 0.25, 0.5, -0.25, 0.1, 0.25, 0.3];
        for path in KernelPath::available() {
            let (kept, _) = run(path, &values, 0.25);
            assert_eq!(kept, vec![0, 1, 3, 4, 5, 7, 8], "path {path}");
        }
    }
}
