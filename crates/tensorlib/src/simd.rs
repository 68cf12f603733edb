//! Runtime-dispatched SIMD kernel paths for the hot conversion loops.
//!
//! The paper's host-side loops (optimizer update, Top-K filtering, FP16
//! working-copy refresh) must keep up with device bandwidth, and deployment
//! targets vary wildly in vector width (the SG2042/SG2044 characterizations
//! in PAPERS.md). This module provides the dispatch layer the whole
//! workspace shares:
//!
//! * [`KernelPath`] — which implementation tier runs: `scalar` (the portable
//!   reference loops), `sse2` (x86-64 baseline, 4-wide) or `avx2` (8-wide,
//!   with F16C for the binary16 conversions).
//! * [`KernelPath::active`] — the tier picked once per process via
//!   `is_x86_feature_detected!`, overridable with the
//!   `SMART_INFINITY_KERNEL_PATH` environment variable (useful for A/B
//!   benchmarking and for exercising the narrow paths on a wide machine).
//! * The bulk binary16 conversion kernels behind
//!   [`f16::from_f32_slice_into`](crate::f16::from_f32_slice_into) and
//!   friends.
//!
//! **Every vector path is bit-identical to the scalar reference** — including
//! round-to-nearest-even ties, subnormals, signed zeros, saturation to
//! infinity and NaN canonicalisation. The scalar converter drops NaN
//! payloads; the hardware F16C instructions the `avx2` tier converts with
//! (`vcvtps2ph` / `vcvtph2ps`) keep them, so that tier clears the payload
//! bits of NaN lanes afterwards and agrees everywhere else by IEEE 754. The
//! suites in this module and in `half.rs` assert equality over all 65536
//! binary16 bit patterns, over adversarial f32 classes and (release mode,
//! `--ignored`) over all 2³² binary32 bit patterns.
//!
//! This is the only module in the crate allowed to use `unsafe` (for
//! `std::arch` intrinsics); the crate root remains `deny(unsafe_code)`.
#![allow(unsafe_code)]

use crate::half::{f16, f16_to_f32_table};
use serde::{de, Deserialize, Serialize, Value};
use std::fmt;
use std::sync::OnceLock;

/// Environment variable that forces a kernel path (`scalar`, `sse2` or
/// `avx2`). An unknown or unavailable value falls back to detection rather
/// than aborting, so a stale setting can never break training.
pub const KERNEL_PATH_ENV: &str = "SMART_INFINITY_KERNEL_PATH";

/// Which SIMD implementation tier a kernel runs on.
///
/// Ordered from narrowest to widest; [`KernelPath::detect`] picks the widest
/// available tier at runtime, so binaries built without `-C target-cpu`
/// still use AVX2 where the CPU has it and fall back cleanly where it
/// doesn't. All tiers produce bit-identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub enum KernelPath {
    /// Portable scalar reference loops; always available.
    #[default]
    Scalar,
    /// 4-wide `std::arch` x86-64 SSE2 intrinsics.
    Sse2,
    /// 8-wide `std::arch` x86-64 AVX2 intrinsics, plus F16C for the binary16
    /// conversions (every AVX2 CPU shipped has both).
    Avx2,
}

impl KernelPath {
    /// All paths, narrowest first.
    pub const ALL: [KernelPath; 3] = [KernelPath::Scalar, KernelPath::Sse2, KernelPath::Avx2];

    /// The lowercase wire name (`"scalar"`, `"sse2"`, `"avx2"`) used in
    /// `StepReport`, the perf snapshot schema and the env override.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Sse2 => "sse2",
            KernelPath::Avx2 => "avx2",
        }
    }

    /// Parses a wire name (case-insensitive). Returns `None` for unknown
    /// names.
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelPath::Scalar),
            "sse2" => Some(KernelPath::Sse2),
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
            KernelPath::Sse2 => is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            KernelPath::Avx2 => {
                is_x86_feature_detected!("avx2") && is_x86_feature_detected!("f16c")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every path available on this CPU, narrowest first (always contains at
    /// least [`KernelPath::Scalar`]). Equivalence suites iterate this to
    /// compare every runnable tier against the scalar reference.
    pub fn available() -> Vec<KernelPath> {
        Self::ALL.into_iter().filter(|p| p.is_available()).collect()
    }

    /// The widest available path, ignoring the env override.
    pub fn detect() -> Self {
        *Self::available().last().expect("scalar is always available")
    }

    /// The path every auto-dispatching kernel uses, decided once per process:
    /// [`KERNEL_PATH_ENV`] if set to an available path, else
    /// [`KernelPath::detect`].
    pub fn active() -> Self {
        static ACTIVE: OnceLock<KernelPath> = OnceLock::new();
        *ACTIVE.get_or_init(|| match std::env::var(KERNEL_PATH_ENV) {
            Ok(name) => match Self::parse(&name) {
                Some(path) if path.is_available() => path,
                _ => Self::detect(),
            },
            Err(_) => Self::detect(),
        })
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
                    "KernelPath: unknown kernel path `{s}` (expected scalar, sse2 or avx2)"
                ))
            }),
            other => Err(de::Error::expected("a string", other, "KernelPath")),
        }
    }
}

// ---------------------------------------------------------------------------
// Bulk binary16 conversion drivers. Each takes an explicit path (asserted
// available by the public `_with` wrappers in `half.rs`) and falls back to
// the scalar reference loop off x86-64.
// ---------------------------------------------------------------------------

/// Bulk `f32 → f16`, bit-identical to per-element [`f16::from_f32`].
pub(crate) fn f32_to_f16_bulk(path: KernelPath, src: &[f32], dst: &mut [f16]) {
    assert_eq!(src.len(), dst.len(), "conversion length mismatch");
    debug_assert!(path.is_available());
    #[cfg(target_arch = "x86_64")]
    match path {
        // Safety: availability is checked by the caller (`is_available`).
        KernelPath::Avx2 => return unsafe { avx2::f32_to_f16(src, dst.as_mut_ptr().cast()) },
        KernelPath::Sse2 => return unsafe { sse2::f32_to_f16(src, dst.as_mut_ptr().cast()) },
        KernelPath::Scalar => {}
    }
    let _ = path;
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f16::from_f32(s);
    }
}

/// Bulk `f16 → f32`, bit-identical to per-element [`f16::to_f32`].
pub(crate) fn f16_to_f32_bulk(path: KernelPath, src: &[f16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "conversion length mismatch");
    debug_assert!(path.is_available());
    #[cfg(target_arch = "x86_64")]
    match path {
        // Safety: availability is checked by the caller; `f16` is
        // `repr(transparent)` over `u16`, so the byte view is its LE wire
        // form on x86-64.
        KernelPath::Avx2 => return unsafe { avx2::f16_to_f32(src.as_ptr().cast(), dst) },
        KernelPath::Sse2 => return unsafe { sse2::f16_to_f32(src.as_ptr().cast(), dst) },
        KernelPath::Scalar => {}
    }
    let _ = path;
    let table = f16_to_f32_table();
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = table[s.to_bits() as usize];
    }
}

/// Bulk FP16 round trip (`f32 → f16 → f32`) without materialising the
/// intermediate halves; bit-identical to
/// `f16::from_f32(x).to_f32()` per element.
pub(crate) fn f16_roundtrip_bulk(path: KernelPath, src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "conversion length mismatch");
    debug_assert!(path.is_available());
    #[cfg(target_arch = "x86_64")]
    match path {
        // Safety: availability is checked by the caller.
        KernelPath::Avx2 => return unsafe { avx2::f16_roundtrip(src, dst) },
        KernelPath::Sse2 => return unsafe { sse2::f16_roundtrip(src, dst) },
        KernelPath::Scalar => {}
    }
    let _ = path;
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
    match path {
        // Safety: availability is checked by the caller; loads are unaligned.
        KernelPath::Avx2 => return unsafe { avx2::f16_to_f32(bytes.as_ptr(), dst) },
        KernelPath::Sse2 => return unsafe { sse2::f16_to_f32(bytes.as_ptr(), dst) },
        KernelPath::Scalar => {}
    }
    let _ = path;
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
    match path {
        // Safety: availability is checked by the caller; stores are unaligned.
        KernelPath::Avx2 => return unsafe { avx2::f32_to_f16(src, dst.as_mut_ptr()) },
        KernelPath::Sse2 => return unsafe { sse2::f32_to_f16(src, dst.as_mut_ptr()) },
        KernelPath::Scalar => {}
    }
    let _ = path;
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

/// 4-wide SSE2 baseline. The `f16 → f32` direction is fully vectorised;
/// `f32 → f16` vectorises the normal/overflow/special cases and falls back
/// to the scalar converter for subnormal-range lanes, which need per-lane
/// variable shifts that SSE2 lacks. Still bit-identical everywhere.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use crate::half::f16;
    use std::arch::x86_64::*;

    /// `mask ? a : b` per bit (SSE2 has no blendv).
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn blend(mask: __m128i, a: __m128i, b: __m128i) -> __m128i {
        _mm_or_si128(_mm_and_si128(mask, a), _mm_andnot_si128(mask, b))
    }

    /// Round-to-nearest-even on the dropped low 13 bits.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn rtne_shift13(mant: __m128i) -> __m128i {
        let truncated = _mm_srli_epi32::<13>(mant);
        let dropped = _mm_and_si128(mant, _mm_set1_epi32(0x1FFF));
        let halfway = _mm_set1_epi32(0x1000);
        let above = _mm_cmpgt_epi32(dropped, halfway);
        let odd = _mm_cmpeq_epi32(_mm_and_si128(truncated, _mm_set1_epi32(1)), _mm_set1_epi32(1));
        let tie = _mm_and_si128(_mm_cmpeq_epi32(dropped, halfway), odd);
        _mm_sub_epi32(truncated, _mm_or_si128(above, tie))
    }

    /// Four `f32 → f16` conversions for the non-subnormal cases, plus a
    /// 4-bit mask of the subnormal-range lanes (f32 exponent 102..=112)
    /// the caller must redo with the scalar converter.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn from_f32x4_partial(v: __m128) -> (__m128i, i32) {
        let bits = _mm_castps_si128(v);
        let sign = _mm_and_si128(_mm_srli_epi32::<16>(bits), _mm_set1_epi32(0x8000));
        let exp = _mm_and_si128(_mm_srli_epi32::<23>(bits), _mm_set1_epi32(0xFF));
        let mant = _mm_and_si128(bits, _mm_set1_epi32(0x007F_FFFF));

        let half_exp = _mm_sub_epi32(exp, _mm_set1_epi32(112));
        let normal = _mm_add_epi32(_mm_slli_epi32::<10>(half_exp), rtne_shift13(mant));

        let mant_zero = _mm_cmpeq_epi32(mant, _mm_setzero_si128());
        let special = blend(mant_zero, _mm_set1_epi32(0x7C00), _mm_set1_epi32(0x7E00));

        let is_subnormal = _mm_cmpgt_epi32(exp, _mm_set1_epi32(101));
        let is_normal = _mm_cmpgt_epi32(exp, _mm_set1_epi32(112));
        let is_overflow = _mm_cmpgt_epi32(exp, _mm_set1_epi32(142));
        let is_special = _mm_cmpeq_epi32(exp, _mm_set1_epi32(0xFF));
        let mut res = _mm_setzero_si128(); // underflow → signed zero
        res = blend(is_normal, normal, res);
        res = blend(is_overflow, _mm_set1_epi32(0x7C00), res);
        res = blend(is_special, special, res);
        res = _mm_or_si128(res, sign);
        let subnormal_lanes =
            _mm_movemask_ps(_mm_castsi128_ps(_mm_andnot_si128(is_normal, is_subnormal)));
        (res, subnormal_lanes)
    }

    /// Four `f16 → f32` conversions, bit-identical to `f16::to_f32`.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn to_f32x4(h: __m128i) -> __m128 {
        let bits = _mm_unpacklo_epi16(h, _mm_setzero_si128());
        let sign = _mm_slli_epi32::<16>(_mm_and_si128(bits, _mm_set1_epi32(0x8000)));
        let exp = _mm_and_si128(_mm_srli_epi32::<10>(bits), _mm_set1_epi32(0x1F));
        let mant = _mm_and_si128(bits, _mm_set1_epi32(0x03FF));

        let normal = _mm_or_si128(
            _mm_slli_epi32::<23>(_mm_add_epi32(exp, _mm_set1_epi32(112))),
            _mm_slli_epi32::<13>(mant),
        );
        let scale = _mm_set1_ps(f32::from_bits(0x3380_0000)); // 2^-24, exact
        let subnormal = _mm_castps_si128(_mm_mul_ps(_mm_cvtepi32_ps(mant), scale));
        let mant_zero = _mm_cmpeq_epi32(mant, _mm_setzero_si128());
        let inf_nan = blend(
            mant_zero,
            _mm_set1_epi32(0x7F80_0000u32 as i32),
            _mm_set1_epi32(0x7FC0_0000u32 as i32),
        );

        let exp_zero = _mm_cmpeq_epi32(exp, _mm_setzero_si128());
        let exp_max = _mm_cmpeq_epi32(exp, _mm_set1_epi32(0x1F));
        let mut res = blend(exp_zero, subnormal, normal);
        res = blend(exp_max, inf_nan, res);
        _mm_castsi128_ps(_mm_or_si128(res, sign))
    }

    /// Bulk `f32 → f16`, writing LE u16 pairs to `dst` (unaligned).
    ///
    /// # Safety
    ///
    /// Caller guarantees `2 * src.len()` writable bytes at `dst`.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn f32_to_f16(src: &[f32], dst: *mut u8) {
        let n = src.len();
        let mut i = 0;
        let mut tmp = [0u32; 4];
        while i + 4 <= n {
            let (res, subnormal_lanes) = from_f32x4_partial(_mm_loadu_ps(src.as_ptr().add(i)));
            _mm_storeu_si128(tmp.as_mut_ptr().cast(), res);
            for (lane, &r) in tmp.iter().enumerate() {
                let h = if subnormal_lanes & (1 << lane) != 0 {
                    f16::from_f32(src[i + lane]).to_bits()
                } else {
                    r as u16
                };
                let b = h.to_le_bytes();
                *dst.add(2 * (i + lane)) = b[0];
                *dst.add(2 * (i + lane) + 1) = b[1];
            }
            i += 4;
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
    /// Caller guarantees `2 * dst.len()` readable bytes at `src`.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn f16_to_f32(src: *const u8, dst: &mut [f32]) {
        let n = dst.len();
        let mut i = 0;
        while i + 4 <= n {
            let h = _mm_loadl_epi64(src.add(2 * i).cast());
            _mm_storeu_ps(dst.as_mut_ptr().add(i), to_f32x4(h));
            i += 4;
        }
        while i < n {
            let bits = u16::from_le_bytes([*src.add(2 * i), *src.add(2 * i + 1)]);
            dst[i] = f16::from_bits(bits).to_f32();
            i += 1;
        }
    }

    /// Bulk FP16 round trip.
    ///
    /// # Safety
    ///
    /// Caller guarantees SSE2; slice lengths are equal (asserted upstream).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn f16_roundtrip(src: &[f32], dst: &mut [f32]) {
        let n = src.len();
        let mut i = 0;
        let mut tmp = [0u16; 4];
        while i + 4 <= n {
            f32_to_f16(&src[i..i + 4], tmp.as_mut_ptr().cast());
            let h = _mm_loadl_epi64(tmp.as_ptr().cast());
            _mm_storeu_ps(dst.as_mut_ptr().add(i), to_f32x4(h));
            i += 4;
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
        assert_eq!(KernelPath::default(), KernelPath::Scalar);
    }

    #[test]
    fn kernel_path_serde_uses_lowercase_strings() {
        let mut out = String::new();
        KernelPath::Avx2.write_json(&mut out);
        assert_eq!(out, "\"avx2\"");
        let back = KernelPath::read_json(&Value::String("sse2".into())).unwrap();
        assert_eq!(back, KernelPath::Sse2);
        assert!(KernelPath::read_json(&Value::String("mmx".into())).is_err());
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
        let (mut halves, mut got_halves) = (vec![f16::ZERO; n], vec![f16::ZERO; n]);
        let (mut rounded, mut got_rounded) = (vec![0.0f32; n], vec![0.0f32; n]);
        f16::from_f32_slice_into_with(KernelPath::Scalar, inputs, &mut halves);
        f16::roundtrip_slice_into_with(KernelPath::Scalar, inputs, &mut rounded);
        for path in KernelPath::available() {
            f16::from_f32_slice_into_with(path, inputs, &mut got_halves);
            f16::roundtrip_slice_into_with(path, inputs, &mut got_rounded);
            for (i, x) in inputs.iter().enumerate() {
                let x = x.to_bits();
                assert_eq!(got_halves[i], halves[i], "{path}: from_f32({x:#010x})");
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
    /// (`cargo test --release -p tensorlib -- --ignored`, about 80 s: most of it
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
        let mut reference = vec![f16::ZERO; inputs.len()];
        f32_to_f16_bulk(KernelPath::Scalar, &inputs, &mut reference);
        for (x, r) in inputs.iter().zip(&reference) {
            assert_eq!(r.to_bits(), f16::from_f32(*x).to_bits(), "scalar bulk vs scalar");
        }
        for path in KernelPath::available() {
            let mut got = vec![f16::ZERO; inputs.len()];
            f32_to_f16_bulk(path, &inputs, &mut got);
            for ((x, r), g) in inputs.iter().zip(&reference).zip(&got) {
                assert_eq!(g.to_bits(), r.to_bits(), "{path}: input {:#010x} ({x})", x.to_bits());
            }
        }
    }

    #[test]
    fn to_f32_bulk_is_bit_identical_across_paths_for_every_bit_pattern() {
        let inputs: Vec<f16> = (0..=u16::MAX).map(f16::from_bits).collect();
        for path in KernelPath::available() {
            let mut got = vec![0.0f32; inputs.len()];
            f16_to_f32_bulk(path, &inputs, &mut got);
            for (h, g) in inputs.iter().zip(&got) {
                assert_eq!(g.to_bits(), h.to_f32().to_bits(), "{path}: bits {:#06x}", h.to_bits());
            }
        }
    }

    #[test]
    fn byte_and_roundtrip_drivers_match_the_slice_drivers() {
        let inputs = adversarial_f32_inputs();
        let mut reference = vec![f16::ZERO; inputs.len()];
        f32_to_f16_bulk(KernelPath::Scalar, &inputs, &mut reference);
        for path in KernelPath::available() {
            // f32 → LE bytes.
            let mut bytes = vec![0u8; 2 * inputs.len()];
            f32_to_f16_bytes_bulk(path, &inputs, &mut bytes);
            for (i, r) in reference.iter().enumerate() {
                let got = u16::from_le_bytes([bytes[2 * i], bytes[2 * i + 1]]);
                assert_eq!(got, r.to_bits(), "{path}: encode index {i}");
            }
            // LE bytes → f32.
            let mut decoded = vec![0.0f32; inputs.len()];
            f16_bytes_to_f32_bulk(path, &bytes, &mut decoded);
            for (i, (r, d)) in reference.iter().zip(&decoded).enumerate() {
                assert_eq!(d.to_bits(), r.to_f32().to_bits(), "{path}: decode index {i}");
            }
            // In-register round trip.
            let mut rt = vec![0.0f32; inputs.len()];
            f16_roundtrip_bulk(path, &inputs, &mut rt);
            for (i, (r, g)) in reference.iter().zip(&rt).enumerate() {
                assert_eq!(g.to_bits(), r.to_f32().to_bits(), "{path}: roundtrip index {i}");
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
            let mut reference = vec![f16::ZERO; n];
            f32_to_f16_bulk(KernelPath::Scalar, &inputs, &mut reference);
            for path in KernelPath::available() {
                let mut got = vec![f16::ZERO; n];
                f32_to_f16_bulk(path, &inputs, &mut got);
                assert_eq!(
                    got.iter().map(|h| h.to_bits()).collect::<Vec<_>>(),
                    reference.iter().map(|h| h.to_bits()).collect::<Vec<_>>(),
                    "{path}: n={n}"
                );
            }
        }
    }
}
