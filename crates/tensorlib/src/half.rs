//! IEEE 754 binary16 (half precision) emulation.
//!
//! Mixed-precision LLM training keeps the working copy of the parameters in
//! FP16 while the optimizer states stay in FP32 (paper Section II-A). The
//! simulator needs a faithful binary16 so that (a) traffic volumes are exact
//! and (b) the functional engines reproduce the numerical behaviour of the
//! FP32-master / FP16-working-copy scheme, including overflow to infinity and
//! the limited mantissa that motivates loss scaling.

use crate::simd::KernelPath;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A 16-bit IEEE 754 binary16 floating point number.
///
/// Conversions use round-to-nearest-even, matching hardware behaviour.
///
/// # Example
///
/// ```
/// use tensorlib::f16;
///
/// let h = f16::from_f32(1.0 + 1.0 / 2048.0); // below half's resolution at 1.0
/// assert_eq!(h.to_f32(), 1.0);
/// assert!(f16::from_f32(1e6).to_f32().is_infinite()); // overflow saturates to inf
/// ```
#[allow(non_camel_case_types)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct f16(u16);

impl f16 {
    /// Positive infinity.
    pub const INFINITY: f16 = f16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: f16 = f16(0xFC00);
    /// The largest finite binary16 value (65504).
    pub const MAX: f16 = f16(0x7BFF);
    /// Canonical quiet NaN.
    pub const NAN: f16 = f16(0x7E00);

    /// Reinterprets raw bits as a half-precision value.
    pub const fn from_bits(bits: u16) -> Self {
        f16(bits)
    }

    /// Returns the raw bit pattern.
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from `f32` with round-to-nearest-even.
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mant = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf or NaN.
            return if mant == 0 { f16(sign | 0x7C00) } else { f16(sign | 0x7E00) };
        }

        // Unbiased exponent.
        let unbiased = exp - 127;
        if unbiased >= 16 {
            // Overflow -> infinity.
            return f16(sign | 0x7C00);
        }
        if unbiased >= -14 {
            // Normal half-precision range.
            let half_exp = (unbiased + 15) as u16;
            // 23 -> 10 bits of mantissa: round-to-nearest-even on the dropped 13 bits.
            let mant_with_round = round_shift_right(mant, 13);
            if mant_with_round == 0x400 {
                // Mantissa rounded up past 10 bits; bump the exponent.
                if half_exp + 1 >= 31 {
                    return f16(sign | 0x7C00);
                }
                return f16(sign | ((half_exp + 1) << 10));
            }
            return f16(sign | (half_exp << 10) | (mant_with_round as u16));
        }
        if unbiased >= -25 {
            // Subnormal half-precision.
            let full_mant = mant | 0x0080_0000; // implicit leading 1
            let shift = (-14 - unbiased) as u32 + 13;
            let sub = round_shift_right(full_mant, shift);
            return f16(sign | sub as u16);
        }
        // Underflow to zero.
        f16(sign)
    }

    /// Converts to `f32` exactly (binary16 values are representable in binary32).
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> 10) & 0x1F) as u32;
        let mant = (self.0 & 0x03FF) as u32;
        let bits = if exp == 0 {
            if mant == 0 {
                sign
            } else {
                // Subnormal: value = mant * 2^-24. Normalize by shifting the
                // leading one up to bit 10; each shift halves the exponent.
                let mut shifts = 0u32;
                let mut m = mant;
                while m & 0x0400 == 0 {
                    m <<= 1;
                    shifts += 1;
                }
                m &= 0x03FF;
                sign | ((113 - shifts) << 23) | (m << 13)
            }
        } else if exp == 0x1F {
            if mant == 0 {
                sign | 0x7F80_0000
            } else {
                sign | 0x7FC0_0000
            }
        } else {
            sign | ((exp + 127 - 15) << 23) | (mant << 13)
        };
        f32::from_bits(bits)
    }

    /// Whether this value is positive or negative infinity.
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// Whether this value is finite (neither infinite nor NaN).
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }

    /// Bulk FP16 round trip: writes `f16::from_f32(s).to_f32()` for every
    /// element of `src` into `dst`, staying in vector registers on the SIMD
    /// paths. This is the mixed-precision working-copy refresh — the hottest
    /// conversion in the pipelined trainer.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub(crate) fn roundtrip_slice_into(src: &[f32], dst: &mut [f32]) {
        Self::roundtrip_slice_into_with(KernelPath::active(), src, dst);
    }

    /// [`Self::roundtrip_slice_into`] on an explicit kernel path.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or `path` is not
    /// available on this CPU.
    pub(crate) fn roundtrip_slice_into_with(path: KernelPath, src: &[f32], dst: &mut [f32]) {
        assert!(path.is_available(), "kernel path {path} is not available on this CPU");
        crate::simd::f16_roundtrip_bulk(path, src, dst);
    }

    /// The FP16 round trip (`f16::from_f32(x).to_f32()` per element) of an
    /// input in the FP32 wire form (`4 * dst.len()` little-endian bytes, at
    /// any alignment): the read-back of freshly updated FP32 parameters as
    /// the FP16 working copy, without a decoded FP32 tensor in between. A
    /// window that is its own floats (a little-endian target, a 4-byte
    /// aligned start) is rounded straight from where it lies; any other is
    /// decoded a cache-resident block at a time. Either way `src` is streamed
    /// once and `dst` written once.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != 4 * dst.len()`.
    pub fn roundtrip_f32_le_bytes_into(src: &[u8], dst: &mut [f32]) {
        assert_eq!(src.len(), 4 * dst.len(), "byte length mismatch");
        if let Some(values) = crate::le_bytes::floats_of(src) {
            return Self::roundtrip_slice_into(values, dst);
        }
        const BLOCK: usize = 1024;
        let mut block = [0.0f32; BLOCK];
        for (bytes, out) in src.chunks(4 * BLOCK).zip(dst.chunks_mut(BLOCK)) {
            let decoded = &mut block[..out.len()];
            crate::le_bytes::decode(bytes, decoded);
            Self::roundtrip_slice_into(decoded, out);
        }
    }
}

/// The full binary16 → binary32 conversion table, built once on first use.
/// 65536 entries × 4 bytes = 256 KiB; every entry is exactly
/// `f16::from_bits(i).to_f32()`.
pub(crate) fn f16_to_f32_table() -> &'static [f32] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Vec<f32>> = OnceLock::new();
    TABLE.get_or_init(|| (0..=u16::MAX).map(|bits| f16::from_bits(bits).to_f32()).collect())
}

/// Shift right by `shift` bits with round-to-nearest-even on the dropped bits.
fn round_shift_right(value: u32, shift: u32) -> u32 {
    if shift == 0 {
        return value;
    }
    if shift > 31 {
        return 0;
    }
    let truncated = value >> shift;
    let dropped = value & ((1 << shift) - 1);
    let halfway = 1u32 << (shift - 1);
    if dropped > halfway || (dropped == halfway && truncated & 1 == 1) {
        truncated + 1
    } else {
        truncated
    }
}

impl From<f16> for f32 {
    fn from(h: f16) -> f32 {
        h.to_f32()
    }
}

impl fmt::Display for f16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{f16_bytes_to_f32_bulk, f32_to_f16_bytes_bulk};
    use proptest::prelude::*;

    #[test]
    fn exact_small_values_roundtrip() {
        for &v in &[0.0f32, 1.0, -1.0, 0.5, -0.5, 2.0, 1.5, 0.099975586, 65504.0, -65504.0] {
            let h = f16::from_f32(v);
            let back = h.to_f32();
            let rel = if v == 0.0 { back.abs() } else { ((back - v) / v).abs() };
            assert!(rel < 1e-3, "{v} -> {back}");
        }
    }

    #[test]
    fn special_values() {
        assert!(f16::from_f32(f32::NAN).to_f32().is_nan());
        assert!(f16::from_f32(f32::INFINITY).is_infinite());
        assert!(f16::from_f32(f32::NEG_INFINITY).is_infinite());
        assert!(f16::from_f32(1e30).is_infinite(), "overflow must saturate to inf");
        assert_eq!(f16::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(f16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(f16::MAX.to_f32(), 65504.0);
        assert!(f16::NAN.to_f32().is_nan());
        assert!(!f16::NAN.is_finite());
        assert!(f16::default().is_finite());
        assert_eq!(f16::INFINITY.to_f32(), f32::INFINITY);
        assert_eq!(f16::NEG_INFINITY.to_f32(), f32::NEG_INFINITY);
    }

    #[test]
    fn subnormals_are_preserved_approximately() {
        let tiny = 3.0e-7f32; // below the smallest normal half (6.1e-5)
        let h = f16::from_f32(tiny);
        let back = h.to_f32();
        assert!(back > 0.0 && back < 1e-6);
        // Smallest subnormal is 5.96e-8; anything below half of that flushes to zero.
        assert_eq!(f16::from_f32(1.0e-8).to_f32(), 0.0);
    }

    #[test]
    fn round_to_nearest_even_at_tie() {
        // 1.0 + 2^-11 is exactly halfway between 1.0 and 1.0 + 2^-10; ties go to even (1.0).
        let tie = 1.0 + 2f32.powi(-11);
        assert_eq!(f16::from_f32(tie).to_f32(), 1.0);
        // 1.0 + 3*2^-11 is halfway between 1.0+2^-10 and 1.0+2^-9; ties to even -> 1.0+2^-9.
        let tie2 = 1.0 + 3.0 * 2f32.powi(-11);
        assert_eq!(f16::from_f32(tie2).to_f32(), 1.0 + 2f32.powi(-9));
    }

    #[test]
    fn display_shows_value() {
        assert_eq!(f16::from_f32(1.5).to_string(), "1.5");
        let v: f32 = f16::from_f32(2.0).into();
        assert_eq!(v, 2.0);
    }

    #[test]
    fn bulk_to_f32_matches_scalar_for_every_bit_pattern() {
        // Exhaustive: all 65536 half-precision values, including NaNs,
        // infinities and subnormals, compared bit-for-bit.
        let src: Vec<u8> = (0..=u16::MAX).flat_map(u16::to_le_bytes).collect();
        let mut bulk = vec![0.0f32; src.len() / 2];
        f16_bytes_to_f32_bulk(KernelPath::active(), &src, &mut bulk);
        for (bits, b) in (0..=u16::MAX).zip(&bulk) {
            assert_eq!(b.to_bits(), f16::from_bits(bits).to_f32().to_bits(), "bits {bits:#06x}");
        }
    }

    #[test]
    fn bulk_from_f32_matches_scalar() {
        let src: Vec<f32> = [
            0.0f32,
            -0.0,
            1.0,
            -1.5,
            65504.0,
            65520.0, // rounds to inf
            1e-8,    // flushes to zero
            3.0e-7,  // subnormal
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0 + 2f32.powi(-11), // round-to-even tie
        ]
        .into_iter()
        .chain((0..1000).map(|i| (i as f32 - 500.0) * 7.3))
        .collect();
        let mut bulk = vec![0u8; 2 * src.len()];
        f32_to_f16_bytes_bulk(KernelPath::active(), &src, &mut bulk);
        for (s, b) in src.iter().zip(bulk.chunks_exact(2)) {
            assert_eq!(b, f16::from_f32(*s).to_bits().to_le_bytes(), "value {s}");
        }
    }

    #[test]
    fn roundtrip_from_wire_bytes_matches_decode_then_roundtrip() {
        // Lengths around the internal block size, at every byte offset from
        // a 4-byte-aligned address: offset 0 is rounded where it lies, the
        // other three through the block decode.
        let specials =
            [f32::NAN, -0.0, f32::from_bits(0x7F80_0001), f32::from_bits(1), 65520.0, -1e-8];
        for len in [0usize, 1, 7, 1023, 1024, 1025, 2048, 3001] {
            let values: Vec<f32> = (0..len)
                .map(|i| if i % 13 == 5 { specials[i % 6] } else { (i as f32 - 900.0) * 0.37 })
                .collect();
            let mut expected = vec![0.0f32; len];
            f16::roundtrip_slice_into(&values, &mut expected);
            let mut wire = vec![0u8; 4 * len + 7];
            let aligned = wire.as_ptr().align_offset(4);
            for offset in 0..4 {
                let window = aligned + offset..aligned + offset + 4 * len;
                crate::le_bytes::encode(&values, &mut wire[window.clone()]);
                let viewed = crate::le_bytes::floats_of(&wire[window.clone()]).is_some();
                assert_eq!(viewed, offset == 0 && cfg!(target_endian = "little"), "{offset}");
                let mut direct = vec![9.0f32; len];
                f16::roundtrip_f32_le_bytes_into(&wire[window], &mut direct);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&direct), bits(&expected), "len {len} offset {offset}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "byte length mismatch")]
    fn bulk_conversion_length_mismatch_panics() {
        f16_bytes_to_f32_bulk(KernelPath::active(), &[0; 4], &mut [0.0f32; 3]);
    }

    proptest! {
        /// Round-tripping any f32 through f16 and back is within half-precision
        /// relative error (2^-11) or correctly saturates/flushes.
        #[test]
        fn roundtrip_error_is_bounded(v in -65000.0f32..65000.0) {
            let back = f16::from_f32(v).to_f32();
            if v.abs() >= 6.2e-5 {
                let rel = ((back - v) / v).abs();
                prop_assert!(rel <= 2f32.powi(-11) + 1e-7, "v={v} back={back} rel={rel}");
            } else {
                // Subnormal range: absolute error bounded by the subnormal step.
                prop_assert!((back - v).abs() <= 6.0e-8 * 1.01, "v={v} back={back}");
            }
        }

        /// f16 -> f32 -> f16 is the identity for every bit pattern that is not NaN.
        #[test]
        fn bits_roundtrip_identity(bits in 0u16..=0xFFFF) {
            let h = f16::from_bits(bits);
            prop_assume!(!h.to_f32().is_nan());
            let rt = f16::from_f32(h.to_f32());
            prop_assert_eq!(rt.to_bits(), bits);
        }

        /// Conversion is monotone on finite values.
        #[test]
        fn conversion_is_monotone(a in -60000.0f32..60000.0, b in -60000.0f32..60000.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(f16::from_f32(lo).to_f32() <= f16::from_f32(hi).to_f32());
        }
    }
}
