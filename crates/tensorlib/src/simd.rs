//! Runtime-dispatched SIMD kernel paths for the hot conversion loops.
//!
//! The paper's host-side loops (optimizer update, Top-K filtering, FP16
//! working-copy refresh) must keep up with device bandwidth, and deployment
//! targets vary wildly in vector width (the SG2042/SG2044 characterizations
//! in PAPERS.md). This module provides the dispatch layer the whole
//! workspace shares:
//!
//! * [`KernelPath`] — which implementation tier runs: `scalar` (the portable
//!   reference loops, which the compiler vectorises for the build target) or
//!   `avx2` (the same loops compiled for AVX2, with F16C for the binary16
//!   conversions).
//! * [`KernelPath::active`] — the tier picked once per process via
//!   `is_x86_feature_detected!`.
//! * The bulk binary16 conversion kernels behind the FP16 wire form of
//!   [`FlatTensor`](crate::FlatTensor) and the working-copy round trip. They
//!   keep hand intrinsics on the `avx2` tier because the compiler cannot
//!   derive `vcvtps2ph` / `vcvtph2ps` from the software converter.
//!
//! **Both tiers are bit-identical** — including round-to-nearest-even ties,
//! subnormals, signed zeros, saturation to infinity and NaN
//! canonicalisation. The scalar converter drops NaN payloads; the hardware
//! F16C instructions keep them, so the `avx2` tier clears the payload bits of
//! NaN lanes afterwards and agrees everywhere else by IEEE 754. The suites in
//! this module and in `half.rs` assert equality over all 65536 binary16 bit
//! patterns, over adversarial f32 classes and (release mode, `--ignored`)
//! over all 2³² binary32 bit patterns.
//!
//! This is the only module in the crate allowed to use `unsafe` (for
//! `std::arch` intrinsics); the crate root remains `deny(unsafe_code)`.
#![allow(unsafe_code)]

use crate::half::{f16, f16_to_f32_table};
use serde::{de, Deserialize, Serialize, Value};
use std::fmt;
use std::sync::OnceLock;

/// Which SIMD implementation tier a kernel runs on.
///
/// Ordered from narrowest to widest; [`KernelPath::active`] is the widest
/// tier available at runtime, so binaries built without `-C target-cpu`
/// still use AVX2 where the CPU has it and fall back cleanly where it
/// doesn't. Both tiers produce bit-identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub enum KernelPath {
    /// Portable scalar loops, compiled for the build target (SSE2 on
    /// x86-64); always available.
    #[default]
    Scalar,
    /// The same loops compiled for AVX2 (8 lanes), plus F16C intrinsics for
    /// the binary16 conversions (every AVX2 CPU shipped has both).
    Avx2,
}

impl KernelPath {
    /// All paths, narrowest first.
    pub const ALL: [KernelPath; 2] = [KernelPath::Scalar, KernelPath::Avx2];

    /// The lowercase wire name (`"scalar"`, `"avx2"`) used in `StepReport`
    /// and the perf snapshot schema.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Avx2 => "avx2",
        }
    }

    /// Parses a wire name (case-insensitive). Returns `None` for unknown
    /// names.
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelPath::Scalar),
            "avx2" => Some(KernelPath::Avx2),
            _ => None,
        }
    }

    /// Whether this path can run on the current CPU (checked at runtime via
    /// `is_x86_feature_detected!`; non-x86-64 targets only have
    /// [`KernelPath::Scalar`]).
    pub fn is_available(self) -> bool {
        match self {
            KernelPath::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelPath::Avx2 => {
                is_x86_feature_detected!("avx2") && is_x86_feature_detected!("f16c")
            }
            #[cfg(not(target_arch = "x86_64"))]
            KernelPath::Avx2 => false,
        }
    }

    /// Every path available on this CPU, narrowest first (always contains at
    /// least [`KernelPath::Scalar`]). Equivalence suites iterate this to
    /// compare every runnable tier against the scalar reference.
    pub fn available() -> Vec<KernelPath> {
        Self::ALL.into_iter().filter(|p| p.is_available()).collect()
    }

    /// The widest available path.
    pub(crate) fn detect() -> Self {
        *Self::available().last().expect("scalar is always available")
    }

    /// The path every auto-dispatching kernel uses: the widest available,
    /// decided once per process.
    pub fn active() -> Self {
        static ACTIVE: OnceLock<KernelPath> = OnceLock::new();
        *ACTIVE.get_or_init(Self::detect)
    }
}

impl fmt::Display for KernelPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for KernelPath {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl Deserialize for KernelPath {
    fn read_json(value: &Value) -> Result<Self, de::Error> {
        match value {
            Value::String(s) => KernelPath::parse(s).ok_or_else(|| {
                de::Error::custom(format!(
                    "KernelPath: unknown kernel path `{s}` (expected scalar or avx2)"
                ))
            }),
            other => Err(de::Error::expected("a string", other, "KernelPath")),
        }
    }
}

// ---------------------------------------------------------------------------
// Bulk binary16 conversion drivers. Each takes an explicit path (asserted
// available by the caller) and runs the scalar reference loop unless that
// path is `avx2`.
// ---------------------------------------------------------------------------

/// Bulk FP16 round trip (`f32 → f16 → f32`) without materialising the
/// intermediate halves; bit-identical to
/// `f16::from_f32(x).to_f32()` per element.
pub(crate) fn f16_roundtrip_bulk(path: KernelPath, src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "conversion length mismatch");
    debug_assert!(path.is_available());
    #[cfg(target_arch = "x86_64")]
    if path == KernelPath::Avx2 {
        // Safety: availability is checked by the caller.
        return unsafe { avx2::f16_roundtrip(src, dst) };
    }
    let table = f16_to_f32_table();
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = table[f16::from_f32(s).to_bits() as usize];
    }
}

/// Bulk LE-byte decode (`2·n` bytes → `n` floats), bit-identical to
/// `f16::from_bits(u16::from_le_bytes(..)).to_f32()` per element.
///
/// # Panics
///
/// Panics if `bytes.len() != 2 * dst.len()`.
pub(crate) fn f16_bytes_to_f32_bulk(path: KernelPath, bytes: &[u8], dst: &mut [f32]) {
    assert_eq!(bytes.len(), 2 * dst.len(), "byte length mismatch");
    debug_assert!(path.is_available());
    #[cfg(target_arch = "x86_64")]
    if path == KernelPath::Avx2 {
        // Safety: availability is checked by the caller; loads are unaligned.
        return unsafe { avx2::f16_to_f32(bytes.as_ptr(), dst) };
    }
    let table = f16_to_f32_table();
    for (d, pair) in dst.iter_mut().zip(bytes.chunks_exact(2)) {
        *d = table[u16::from_le_bytes([pair[0], pair[1]]) as usize];
    }
}

/// Bulk LE-byte encode (`n` floats → `2·n` bytes), bit-identical to
/// `f16::from_f32(x).to_bits().to_le_bytes()` per element.
///
/// # Panics
///
/// Panics if `dst.len() != 2 * src.len()`.
pub(crate) fn f32_to_f16_bytes_bulk(path: KernelPath, src: &[f32], dst: &mut [u8]) {
    assert_eq!(dst.len(), 2 * src.len(), "byte length mismatch");
    debug_assert!(path.is_available());
    #[cfg(target_arch = "x86_64")]
    if path == KernelPath::Avx2 {
        // Safety: availability is checked by the caller; stores are unaligned.
        return unsafe { avx2::f32_to_f16(src, dst.as_mut_ptr()) };
    }
    for (pair, &s) in dst.chunks_exact_mut(2).zip(src) {
        pair.copy_from_slice(&f16::from_f32(s).to_bits().to_le_bytes());
    }
}

/// 8-wide conversions on the F16C instructions. Hardware and the scalar
/// converters both implement IEEE 754 round-to-nearest-even, so they agree on
/// every finite value, infinity and zero; only NaN lanes need a fix-up, since
/// hardware keeps (the top of) a payload the scalar converters drop.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use crate::half::f16;
    use std::arch::x86_64::*;

    /// Eight `f32 → f16` conversions, bit-identical to `f16::from_f32`.
    #[inline]
    #[target_feature(enable = "avx2,f16c")]
    unsafe fn from_f32x8(v: __m256) -> __m128i {
        let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v);
        // A NaN comes out quieted (0x0200 set) with the top nine payload
        // bits kept: clearing those leaves `sign | 0x7E00`, the scalar
        // converter's canonical NaN. Magnitudes are ≤ 0x7FFF, so the signed
        // 16-bit compare is exact.
        let magnitude = _mm_and_si128(h, _mm_set1_epi16(0x7FFF));
        let is_nan = _mm_cmpgt_epi16(magnitude, _mm_set1_epi16(0x7C00));
        _mm_andnot_si128(_mm_and_si128(is_nan, _mm_set1_epi16(0x01FF)), h)
    }

    /// Eight `f16 → f32` conversions, bit-identical to `f16::to_f32`.
    #[inline]
    #[target_feature(enable = "avx2,f16c")]
    unsafe fn to_f32x8(h: __m128i) -> __m256 {
        let v = _mm256_cvtph_ps(h);
        // As above: a NaN arrives quieted (0x0040_0000 set) with its payload
        // shifted up; clearing the payload leaves `sign | 0x7FC0_0000`.
        let payload = _mm256_castsi256_ps(_mm256_set1_epi32(0x003F_FFFF));
        let is_nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v);
        _mm256_andnot_ps(_mm256_and_ps(is_nan, payload), v)
    }

    /// Bulk `f32 → f16`, writing LE u16 pairs to `dst` (unaligned).
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX2 + F16C and `2 * src.len()` writable bytes at `dst`.
    #[target_feature(enable = "avx2,f16c")]
    pub(super) unsafe fn f32_to_f16(src: &[f32], dst: *mut u8) {
        let n = src.len();
        let mut i = 0;
        while i + 8 <= n {
            let h = from_f32x8(_mm256_loadu_ps(src.as_ptr().add(i)));
            _mm_storeu_si128(dst.add(2 * i).cast(), h);
            i += 8;
        }
        while i < n {
            let b = f16::from_f32(src[i]).to_bits().to_le_bytes();
            *dst.add(2 * i) = b[0];
            *dst.add(2 * i + 1) = b[1];
            i += 1;
        }
    }

    /// Bulk `f16 → f32`, reading LE u16 pairs from `src` (unaligned).
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX2 + F16C and `2 * dst.len()` readable bytes at `src`.
    #[target_feature(enable = "avx2,f16c")]
    pub(super) unsafe fn f16_to_f32(src: *const u8, dst: &mut [f32]) {
        let n = dst.len();
        let mut i = 0;
        while i + 8 <= n {
            let v = to_f32x8(_mm_loadu_si128(src.add(2 * i).cast()));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), v);
            i += 8;
        }
        while i < n {
            let bits = u16::from_le_bytes([*src.add(2 * i), *src.add(2 * i + 1)]);
            dst[i] = f16::from_bits(bits).to_f32();
            i += 1;
        }
    }

    /// Bulk FP16 round trip, staying in registers between the conversions.
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX2 + F16C; slice lengths are equal (asserted upstream).
    #[target_feature(enable = "avx2,f16c")]
    pub(super) unsafe fn f16_roundtrip(src: &[f32], dst: &mut [f32]) {
        let n = src.len();
        let mut i = 0;
        while i + 8 <= n {
            // No fix-up between the conversions: `to_f32x8` drops whatever
            // payload a NaN half carries.
            let h =
                _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(_mm256_loadu_ps(src.as_ptr().add(i)));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), to_f32x8(h));
            i += 8;
        }
        while i < n {
            dst[i] = f16::from_f32(src[i]).to_f32();
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_path_names_round_trip() {
        for path in KernelPath::ALL {
            assert_eq!(KernelPath::parse(path.as_str()), Some(path));
            assert_eq!(KernelPath::parse(&path.as_str().to_uppercase()), Some(path));
            assert_eq!(path.to_string(), path.as_str());
        }
        assert_eq!(KernelPath::parse("neon"), None);
        assert_eq!(KernelPath::parse("sse2"), None);
        assert_eq!(KernelPath::default(), KernelPath::Scalar);
    }

    #[test]
    fn kernel_path_serde_uses_lowercase_strings() {
        let mut out = String::new();
        KernelPath::Avx2.write_json(&mut out);
        assert_eq!(out, "\"avx2\"");
        let back = KernelPath::read_json(&Value::String("avx2".into())).unwrap();
        assert_eq!(back, KernelPath::Avx2);
        for removed in ["mmx", "sse2"] {
            let err = KernelPath::read_json(&Value::String(removed.into())).unwrap_err();
            assert!(err.to_string().contains("expected scalar or avx2"), "{err}");
        }
        assert!(KernelPath::read_json(&Value::Null).is_err());
    }

    #[test]
    fn detection_is_consistent() {
        let available = KernelPath::available();
        assert!(available.contains(&KernelPath::Scalar));
        assert!(available.contains(&KernelPath::detect()));
        assert!(KernelPath::active().is_available());
        // The widest available path is the detected one.
        assert_eq!(KernelPath::detect(), *available.iter().max().unwrap());
    }

    /// Adversarial f32 inputs: every exponent, both signs, and mantissas on
    /// and next to every rounding boundary — all-zeros, all-ones, and for each
    /// bit position `b` the halfway pattern `1 << b` and its two neighbours,
    /// under an even and an odd kept bit (the normal narrowing drops 13 bits,
    /// the subnormal one 14 to 24). At exponent 255 the same mantissas are
    /// signalling (top bit clear) and quiet NaN payloads.
    fn adversarial_f32_inputs() -> Vec<f32> {
        let mut mants = vec![0u32, 0x007F_FFFF, 0x0FFF, 0x1FFF, 0x3000, 0x5F_F000, 0x7F_E000];
        for b in 0..23 {
            for kept in [0u32, 2 << b] {
                for delta in [-1i32, 0, 1] {
                    mants.push(((kept | 1 << b) as i32 + delta) as u32 & 0x007F_FFFF);
                }
            }
        }
        let mut out = Vec::new();
        for exp in 0u32..=255 {
            for &mant in &mants {
                for sign in [0u32, 0x8000_0000] {
                    out.push(f32::from_bits(sign | (exp << 23) | mant));
                }
            }
        }
        // Every f16-representable value as an f32 (covers exact round trips).
        out.extend((0..=u16::MAX).map(|b| f16::from_bits(b).to_f32()));
        out
    }

    /// `f32 → f16` and the FP16 round trip of `inputs` on every available
    /// path against `Scalar`, bit for bit.
    fn assert_paths_match_scalar(inputs: &[f32]) {
        let n = inputs.len();
        let (mut halves, mut got_halves) = (vec![0u8; 2 * n], vec![0u8; 2 * n]);
        let (mut rounded, mut got_rounded) = (vec![0.0f32; n], vec![0.0f32; n]);
        f32_to_f16_bytes_bulk(KernelPath::Scalar, inputs, &mut halves);
        f16::roundtrip_slice_into_with(KernelPath::Scalar, inputs, &mut rounded);
        for path in KernelPath::available() {
            f32_to_f16_bytes_bulk(path, inputs, &mut got_halves);
            f16::roundtrip_slice_into_with(path, inputs, &mut got_rounded);
            for (i, x) in inputs.iter().enumerate() {
                let x = x.to_bits();
                let (got, want) = (&got_halves[2 * i..2 * i + 2], &halves[2 * i..2 * i + 2]);
                assert_eq!(got, want, "{path}: from_f32({x:#010x})");
                let (got, want) = (got_rounded[i].to_bits(), rounded[i].to_bits());
                assert_eq!(got, want, "{path}: roundtrip({x:#010x})");
            }
        }
    }

    #[test]
    fn adversarial_and_strided_f32_patterns_match_scalar_on_every_path() {
        assert_paths_match_scalar(&adversarial_f32_inputs());
        // A coprime stride through all 2³² patterns (65 536 of them), at a
        // length that leaves a ragged vector tail.
        let strided: Vec<f32> =
            (0..=u16::MAX as u32).map(|i| i.wrapping_mul(65_521)).map(f32::from_bits).collect();
        assert_paths_match_scalar(&strided[..strided.len() - 3]);
    }

    /// Every one of the 2³² `f32` bit patterns. Release mode only
    /// (`cargo test --release -p tensorlib -- --ignored`, about 50 s: most of it
    /// is the scalar reference itself).
    #[test]
    #[ignore = "sweeps all 2^32 f32 bit patterns; run in release mode"]
    fn all_f32_bit_patterns_match_scalar_on_every_path() {
        const BLOCK: u32 = 1 << 14; // small enough that the allocator recycles the scratch
        let mut inputs = vec![0.0f32; BLOCK as usize];
        for block in 0..=u32::MAX / BLOCK {
            for (i, x) in inputs.iter_mut().enumerate() {
                *x = f32::from_bits(block * BLOCK + i as u32);
            }
            assert_paths_match_scalar(&inputs);
        }
    }

    #[test]
    fn from_f32_bulk_is_bit_identical_across_paths() {
        let inputs = adversarial_f32_inputs();
        for path in KernelPath::available() {
            let mut got = vec![0u8; 2 * inputs.len()];
            f32_to_f16_bytes_bulk(path, &inputs, &mut got);
            for (x, g) in inputs.iter().zip(got.chunks_exact(2)) {
                let want = f16::from_f32(*x).to_bits().to_le_bytes();
                assert_eq!(g, want, "{path}: input {:#010x} ({x})", x.to_bits());
            }
        }
    }

    #[test]
    fn to_f32_bulk_is_bit_identical_across_paths_for_every_bit_pattern() {
        let inputs: Vec<u8> = (0..=u16::MAX).flat_map(u16::to_le_bytes).collect();
        for path in KernelPath::available() {
            let mut got = vec![0.0f32; inputs.len() / 2];
            f16_bytes_to_f32_bulk(path, &inputs, &mut got);
            for (bits, g) in (0..=u16::MAX).zip(&got) {
                let want = f16::from_bits(bits).to_f32().to_bits();
                assert_eq!(g.to_bits(), want, "{path}: bits {bits:#06x}");
            }
        }
    }

    #[test]
    fn roundtrip_driver_matches_the_scalar_round_trip() {
        let inputs = adversarial_f32_inputs();
        for path in KernelPath::available() {
            let mut rt = vec![0.0f32; inputs.len()];
            f16_roundtrip_bulk(path, &inputs, &mut rt);
            for (i, (x, g)) in inputs.iter().zip(&rt).enumerate() {
                let want = f16::from_f32(*x).to_f32().to_bits();
                assert_eq!(g.to_bits(), want, "{path}: roundtrip index {i}");
            }
        }
    }

    #[test]
    fn unaligned_byte_buffers_are_handled() {
        // Slice a byte buffer at an odd offset so SIMD loads/stores are
        // genuinely unaligned.
        let inputs: Vec<f32> = (0..37).map(|i| (i as f32 - 18.0) * 0.333).collect();
        for path in KernelPath::available() {
            let mut backing = vec![0u8; 2 * inputs.len() + 1];
            f32_to_f16_bytes_bulk(path, &inputs, &mut backing[1..]);
            let mut decoded = vec![0.0f32; inputs.len()];
            f16_bytes_to_f32_bulk(path, &backing[1..], &mut decoded);
            for (x, d) in inputs.iter().zip(&decoded) {
                assert_eq!(d.to_bits(), f16::from_f32(*x).to_f32().to_bits(), "{path}");
            }
        }
    }

    #[test]
    fn ragged_tails_use_the_scalar_fallback() {
        // Lengths around the vector widths exercise every tail size.
        for n in 0..=19 {
            let inputs: Vec<f32> = (0..n).map(|i| (i as f32) * 1.7 - 3.0).collect();
            let mut reference = vec![0u8; 2 * n];
            f32_to_f16_bytes_bulk(KernelPath::Scalar, &inputs, &mut reference);
            for path in KernelPath::available() {
                let mut got = vec![0u8; 2 * n];
                f32_to_f16_bytes_bulk(path, &inputs, &mut got);
                assert_eq!(got, reference, "{path}: n={n}");
            }
        }
    }
}
