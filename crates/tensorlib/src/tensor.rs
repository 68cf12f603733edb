//! Flat `f32` tensors and byte-level precision conversions.

use crate::half::f16;
use crate::le_bytes;
use crate::simd::KernelPath;
use rand::distributions::Distribution;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Element precision used when serialising a [`FlatTensor`] to bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dtype {
    /// IEEE 754 binary16 (2 bytes per element).
    F16,
    /// IEEE 754 binary32 (4 bytes per element).
    F32,
}

impl Dtype {
    /// Number of bytes per element.
    pub fn bytes_per_element(self) -> usize {
        match self {
            Dtype::F16 => 2,
            Dtype::F32 => 4,
        }
    }
}

/// An owned, flat vector of `f32` values.
///
/// This is deliberately minimal: the workspace only needs element-wise
/// operations over flattened parameter/gradient/optimizer-state vectors, byte
/// serialisation in FP16 or FP32 (what actually travels over PCIe and lands
/// on the SSD), and a few reductions (norms, NaN/Inf scans) used by the mixed
/// precision machinery.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FlatTensor {
    data: Vec<f32>,
}

impl FlatTensor {
    /// A tensor of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        Self { data: vec![0.0; len] }
    }

    /// A tensor filled with `value`.
    pub fn full(len: usize, value: f32) -> Self {
        Self { data: vec![value; len] }
    }

    /// Takes ownership of an existing vector.
    pub fn from_vec(data: Vec<f32>) -> Self {
        Self { data }
    }

    /// Builds a tensor element-by-element from a function of the index.
    pub fn from_fn(len: usize, f: impl FnMut(usize) -> f32) -> Self {
        Self { data: (0..len).map(f).collect() }
    }

    /// Deterministic pseudo-random tensor drawn from `N(0, std^2)`.
    pub fn randn(len: usize, std: f32, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let normal = StandardNormal;
        Self { data: (0..len).map(|_| normal.sample(&mut rng) * std).collect() }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Serialises the tensor to little-endian bytes in the given precision.
    /// FP16 serialisation performs round-to-nearest-even per element.
    pub fn to_bytes(&self, dtype: Dtype) -> Vec<u8> {
        let mut out = Vec::new();
        self.to_bytes_into(dtype, &mut out);
        out
    }

    /// Serialises into an existing byte buffer, replacing its contents. The
    /// buffer's allocation is reused across calls, so per-iteration hot paths
    /// (CSD P2P transfers, FP16 working-copy refreshes) stop churning the
    /// allocator.
    pub fn to_bytes_into(&self, dtype: Dtype, out: &mut Vec<u8>) {
        out.clear();
        match dtype {
            Dtype::F32 => le_bytes::with_le_bytes(&self.data, |bytes| out.extend_from_slice(bytes)),
            Dtype::F16 => {
                // Bulk conversion on the detected SIMD path; bit-identical
                // to the per-element `f16::from_f32` encode.
                out.resize(self.data.len() * 2, 0);
                crate::simd::f32_to_f16_bytes_bulk(KernelPath::active(), &self.data, out);
            }
        }
    }

    /// Deserialises a tensor from little-endian bytes in the given precision.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len()` is not a multiple of the element size.
    pub fn from_bytes(bytes: &[u8], dtype: Dtype) -> Self {
        let mut out = FlatTensor::zeros(bytes.len() / dtype.bytes_per_element());
        Self::from_bytes_into(bytes, dtype, &mut out);
        out
    }

    /// Deserialises into an existing tensor, replacing its contents and
    /// reusing its allocation. The FP16 path decodes through the bulk SIMD
    /// conversion.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len()` is not a multiple of the element size.
    pub fn from_bytes_into(bytes: &[u8], dtype: Dtype, out: &mut FlatTensor) {
        let esize = dtype.bytes_per_element();
        assert!(
            bytes.len() % esize == 0,
            "byte length {} is not a multiple of element size {esize}",
            bytes.len()
        );
        out.data.resize(bytes.len() / esize, 0.0);
        match dtype {
            Dtype::F32 => le_bytes::decode(bytes, &mut out.data),
            // Bulk decode on the detected SIMD path — bit-identical to
            // decoding each pattern through `f16::to_f32`, with no
            // intermediate buffer.
            Dtype::F16 => {
                crate::simd::f16_bytes_to_f32_bulk(KernelPath::active(), bytes, &mut out.data)
            }
        }
    }

    /// Writes the FP16-rounded value of every element into `out` (each `f32`
    /// is converted to binary16 and back). This is the mixed-precision
    /// "refresh the FP16 working copy" operation without materialising the
    /// intermediate byte stream: bit-identical to
    /// `from_bytes(&to_bytes(F16), F16)` with zero allocations.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the tensor length.
    pub fn roundtrip_f16_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.data.len(), "output buffer length mismatch");
        f16::roundtrip_slice_into(&self.data, out);
    }

    /// In-place `self = alpha * self + beta * other` (the AXPBY primitive the
    /// FPGA updater is built from, paper Section V-A).
    ///
    /// # Panics
    ///
    /// Panics if the tensors have different lengths.
    pub fn axpby(&mut self, alpha: f32, beta: f32, other: &FlatTensor) {
        assert_eq!(self.len(), other.len(), "axpby length mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = alpha * *a + beta * *b;
        }
    }

    /// Scales every element in place.
    pub fn scale(&mut self, factor: f32) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Fills every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Resizes the tensor in place, filling any new elements with `value`.
    /// Shrinking keeps the allocation (scratch-buffer reuse).
    pub fn resize(&mut self, len: usize, value: f32) {
        self.data.resize(len, value);
    }

    /// The L2 norm of the tensor.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|v| (*v as f64) * (*v as f64)).sum::<f64>().sqrt() as f32
    }

    /// Whether any element is NaN or infinite (the check performed before the
    /// update step in mixed precision training).
    pub fn has_nan_or_inf(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Returns a copy of the sub-range `[offset, offset + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, offset: usize, len: usize) -> FlatTensor {
        let mut out = FlatTensor::default();
        self.slice_into(offset, len, &mut out);
        out
    }

    /// Copies the sub-range `[offset, offset + len)` into an existing tensor,
    /// reusing its allocation (the per-shard scratch pattern of the training
    /// engines).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice_into(&self, offset: usize, len: usize, out: &mut FlatTensor) {
        out.data.clear();
        out.data.extend_from_slice(&self.data[offset..offset + len]);
    }

    /// Copies `values` into the sub-range starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_slice(&mut self, offset: usize, values: &[f32]) {
        self.data[offset..offset + values.len()].copy_from_slice(values);
    }

    /// Mean squared difference to another tensor of the same length.
    ///
    /// # Panics
    ///
    /// Panics if the tensors have different lengths.
    pub fn mse(&self, other: &FlatTensor) -> f64 {
        assert_eq!(self.len(), other.len(), "mse length mismatch");
        if self.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| {
                let d = (*a - *b) as f64;
                d * d
            })
            .sum();
        sum / self.len() as f64
    }
}

impl From<Vec<f32>> for FlatTensor {
    fn from(data: Vec<f32>) -> Self {
        Self { data }
    }
}

impl AsRef<[f32]> for FlatTensor {
    fn as_ref(&self) -> &[f32] {
        &self.data
    }
}

impl AsMut<[f32]> for FlatTensor {
    fn as_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

impl FromIterator<f32> for FlatTensor {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        Self { data: iter.into_iter().collect() }
    }
}

/// Marsaglia polar method standard normal sampler (avoids pulling in
/// `rand_distr` just for one distribution).
struct StandardNormal;

impl Distribution<f32> for StandardNormal {
    fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        loop {
            let u: f32 = rng.gen_range(-1.0f32..1.0);
            let v: f32 = rng.gen_range(-1.0f32..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_produce_expected_contents() {
        assert_eq!(FlatTensor::zeros(3).as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(FlatTensor::full(2, 7.5).as_slice(), &[7.5, 7.5]);
        assert_eq!(FlatTensor::from_fn(3, |i| i as f32).as_slice(), &[0.0, 1.0, 2.0]);
        let t: FlatTensor = vec![1.0f32, 2.0].into();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let collected: FlatTensor = (0..4).map(|i| i as f32).collect();
        assert_eq!(collected.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn randn_is_deterministic_per_seed_and_roughly_normal() {
        let a = FlatTensor::randn(10_000, 2.0, 42);
        let b = FlatTensor::randn(10_000, 2.0, 42);
        let c = FlatTensor::randn(10_000, 2.0, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mean: f32 = a.as_slice().iter().sum::<f32>() / a.len() as f32;
        let var: f32 =
            a.as_slice().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / a.len() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn f32_byte_roundtrip_is_exact() {
        let t = FlatTensor::randn(257, 1.0, 1);
        let back = FlatTensor::from_bytes(&t.to_bytes(Dtype::F32), Dtype::F32);
        assert_eq!(t, back);
        assert_eq!(t.to_bytes(Dtype::F32).len(), 257 * Dtype::F32.bytes_per_element());
    }

    #[test]
    fn f16_bytes_have_half_the_size() {
        let t = FlatTensor::zeros(100);
        assert_eq!(t.to_bytes(Dtype::F16).len(), 200);
        assert_eq!(Dtype::F16.bytes_per_element(), 2);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_bytes_rejects_ragged_input() {
        FlatTensor::from_bytes(&[0u8; 7], Dtype::F32);
    }

    #[test]
    fn buffer_reuse_serialisation_matches_the_allocating_api() {
        let t = FlatTensor::randn(513, 3.0, 9);
        let mut bytes = Vec::new();
        let mut back = FlatTensor::zeros(1); // wrong size on purpose: replaced
        for dtype in [Dtype::F32, Dtype::F16] {
            t.to_bytes_into(dtype, &mut bytes);
            assert_eq!(bytes, t.to_bytes(dtype), "{dtype:?} bytes");
            FlatTensor::from_bytes_into(&bytes, dtype, &mut back);
            assert_eq!(back, FlatTensor::from_bytes(&bytes, dtype), "{dtype:?} tensor");
        }
        // Repeated use reuses the same buffers (contents fully replaced).
        let t2 = FlatTensor::randn(64, 1.0, 10);
        t2.to_bytes_into(Dtype::F32, &mut bytes);
        assert_eq!(bytes.len(), 256);
        FlatTensor::from_bytes_into(&bytes, Dtype::F32, &mut back);
        assert_eq!(back, t2);
    }

    #[test]
    fn roundtrip_f16_into_matches_the_byte_path() {
        let t = FlatTensor::from_vec(vec![
            0.0,
            -0.0,
            1.0,
            1.0 + 1.0 / 2048.0,
            65504.0,
            1e30, // saturates to inf
            3.0e-7,
            -2.75,
        ]);
        let byte_path = FlatTensor::from_bytes(&t.to_bytes(Dtype::F16), Dtype::F16);
        let mut direct = vec![0.0f32; t.len()];
        t.roundtrip_f16_into(&mut direct);
        for (a, b) in direct.iter().zip(byte_path.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "output buffer length mismatch")]
    fn roundtrip_f16_into_rejects_wrong_length() {
        FlatTensor::zeros(3).roundtrip_f16_into(&mut [0.0; 4]);
    }

    #[test]
    fn slice_into_reuses_the_target_allocation() {
        let t = FlatTensor::from_fn(10, |i| i as f32);
        let mut out = FlatTensor::full(99, 7.0);
        t.slice_into(2, 5, &mut out);
        assert_eq!(out.as_slice(), &[2.0, 3.0, 4.0, 5.0, 6.0]);
        t.slice_into(9, 1, &mut out);
        assert_eq!(out.as_slice(), &[9.0]);
        t.slice_into(0, 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn axpby_matches_manual_computation() {
        let mut a = FlatTensor::from_vec(vec![1.0, 2.0, 3.0]);
        let b = FlatTensor::from_vec(vec![10.0, 20.0, 30.0]);
        a.axpby(0.9, 0.1, &b);
        assert_eq!(a.as_slice(), &[1.9, 3.8, 5.7]);
    }

    #[test]
    fn reductions_are_correct() {
        let t = FlatTensor::from_vec(vec![3.0, -4.0]);
        assert!((t.l2_norm() - 5.0).abs() < 1e-6);
        assert!(!t.has_nan_or_inf());
        let mut bad = t.clone();
        bad.as_mut_slice()[0] = f32::NAN;
        assert!(bad.has_nan_or_inf());
        bad.as_mut_slice()[0] = f32::INFINITY;
        assert!(bad.has_nan_or_inf());
    }

    #[test]
    fn slice_and_write_slice_are_inverse() {
        let mut t = FlatTensor::from_fn(10, |i| i as f32);
        let s = t.slice(3, 4);
        assert_eq!(s.as_slice(), &[3.0, 4.0, 5.0, 6.0]);
        t.write_slice(3, &[0.0, 0.0, 0.0, 0.0]);
        assert_eq!(t.slice(3, 4).as_slice(), &[0.0; 4]);
        t.write_slice(3, s.as_slice());
        assert_eq!(t, FlatTensor::from_fn(10, |i| i as f32));
    }

    #[test]
    fn scale_fill_and_mse() {
        let mut t = FlatTensor::from_vec(vec![1.0, 2.0]);
        t.scale(2.0);
        assert_eq!(t.as_slice(), &[2.0, 4.0]);
        let other = FlatTensor::from_vec(vec![2.0, 2.0]);
        assert!((t.mse(&other) - 2.0).abs() < 1e-9);
        t.fill(0.0);
        assert_eq!(t.as_slice(), &[0.0, 0.0]);
        t.resize(4, 5.0);
        assert_eq!(t.as_slice(), &[0.0, 0.0, 5.0, 5.0]);
        t.resize(2, 0.0);
        assert_eq!(t.as_slice(), &[0.0, 0.0]);
        assert_eq!(FlatTensor::zeros(0).mse(&FlatTensor::zeros(0)), 0.0);
        assert_eq!(t.as_ref(), &[0.0, 0.0]);
    }

    proptest! {
        /// FP16 serialisation error per element is bounded by half precision.
        #[test]
        fn f16_roundtrip_error_bounded(values in proptest::collection::vec(-1000.0f32..1000.0, 1..100)) {
            let t = FlatTensor::from_vec(values.clone());
            let back = FlatTensor::from_bytes(&t.to_bytes(Dtype::F16), Dtype::F16);
            for (orig, rt) in values.iter().zip(back.as_slice()) {
                let tol = orig.abs() * 2f32.powi(-10) + 1e-4;
                prop_assert!((orig - rt).abs() <= tol, "{orig} vs {rt}");
            }
        }

        /// The L2 norm is non-negative and zero only for the zero vector.
        #[test]
        fn l2_norm_properties(values in proptest::collection::vec(-100.0f32..100.0, 0..50)) {
            let t = FlatTensor::from_vec(values.clone());
            prop_assert!(t.l2_norm() >= 0.0);
            if values.iter().all(|v| *v == 0.0) {
                prop_assert_eq!(t.l2_norm(), 0.0);
            }
        }

        /// axpby with alpha=1, beta=0 is the identity.
        #[test]
        fn axpby_identity(values in proptest::collection::vec(-100.0f32..100.0, 1..50)) {
            let mut t = FlatTensor::from_vec(values.clone());
            let other = FlatTensor::zeros(values.len());
            t.axpby(1.0, 0.0, &other);
            prop_assert_eq!(t.as_slice(), values.as_slice());
        }
    }
}
