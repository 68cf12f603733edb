//! `f32` ⇄ little-endian bytes: the one conversion primitive.
//!
//! FP32 tensors travel (over PCIe, onto the SSD) as little-endian bytes. On
//! a little-endian target that wire form *is* the tensor's memory, so the
//! functional stack never needs to convert: [`with_le_bytes`] lends a
//! tensor's bytes to a writer and [`fill_from_le_bytes`] lets a reader fill
//! a tensor's bytes directly — one memory pass per transfer, no staging
//! buffer. Everything else in the workspace that turns floats into bytes or
//! back ([`encode`], [`decode`], `FlatTensor::{to_bytes, from_bytes}`) is a
//! thin caller of those two.
//!
//! On a big-endian target both go through a staging buffer and the scalar
//! codec ([`encode_scalar`], [`decode_scalar`]): a per-element loop, which is
//! that target's implementation and, everywhere, the oracle the tests compare
//! the borrowed views against.
//!
//! Besides the private `simd` module this is the only module in the crate allowed to
//! use `unsafe`: the two private reborrows of an `f32` slice as its bytes.
#![allow(unsafe_code)]

/// Scalar reference encode: `dst` receives each float's little-endian bytes.
///
/// # Panics
///
/// Panics if `dst.len() != 4 * src.len()`.
pub fn encode_scalar(src: &[f32], dst: &mut [u8]) {
    assert_eq!(dst.len(), 4 * src.len(), "byte length mismatch");
    for (d, v) in dst.chunks_exact_mut(4).zip(src) {
        d.copy_from_slice(&v.to_le_bytes());
    }
}

/// Scalar reference decode: every bit pattern (NaN payloads included)
/// arrives unchanged.
///
/// # Panics
///
/// Panics if `src.len() != 4 * dst.len()`.
pub fn decode_scalar(src: &[u8], dst: &mut [f32]) {
    assert_eq!(src.len(), 4 * dst.len(), "byte length mismatch");
    for (d, c) in dst.iter_mut().zip(src.chunks_exact(4)) {
        *d = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    }
}

/// The memory of `values` as bytes, in the target's own byte order.
fn memory_of(values: &[f32]) -> &[u8] {
    // SAFETY: the pointer and byte length describe exactly the allocation
    // `values` borrows; `u8` has alignment 1 and no invalid bit patterns,
    // `f32` has no padding, and the returned borrow inherits the lifetime
    // and sharedness of `values`.
    unsafe { std::slice::from_raw_parts(values.as_ptr().cast(), std::mem::size_of_val(values)) }
}

/// The memory of `values` as writable bytes, in the target's own byte order.
fn memory_of_mut(values: &mut [f32]) -> &mut [u8] {
    // SAFETY: as in `memory_of`; in addition every bit pattern a caller can
    // write is a valid `f32`, and the exclusive borrow of `values` is held
    // for as long as the returned one lives.
    unsafe {
        std::slice::from_raw_parts_mut(values.as_mut_ptr().cast(), std::mem::size_of_val(values))
    }
}

/// Calls `f` with the little-endian bytes of `values` (`4 * values.len()` of
/// them): the tensor's own memory on a little-endian target, a staged scalar
/// encode otherwise.
pub fn with_le_bytes<R>(values: &[f32], f: impl FnOnce(&[u8]) -> R) -> R {
    if cfg!(target_endian = "little") {
        f(memory_of(values))
    } else {
        let mut staged = vec![0u8; 4 * values.len()];
        encode_scalar(values, &mut staged);
        f(&staged)
    }
}

/// Lets `fill` write `4 * values.len()` little-endian bytes, after which
/// `values` holds the floats they encode. The buffer `fill` sees is
/// write-only: its initial contents are unspecified. If `fill` leaves part
/// of it unwritten (an error return), the matching floats are unspecified
/// but valid.
pub fn fill_from_le_bytes<R>(values: &mut [f32], fill: impl FnOnce(&mut [u8]) -> R) -> R {
    if cfg!(target_endian = "little") {
        fill(memory_of_mut(values))
    } else {
        let mut staged = vec![0u8; 4 * values.len()];
        let result = fill(&mut staged);
        decode_scalar(&staged, values);
        result
    }
}

/// Copies the little-endian bytes of `src` into `dst`.
///
/// # Panics
///
/// Panics if `dst.len() != 4 * src.len()`.
pub fn encode(src: &[f32], dst: &mut [u8]) {
    assert_eq!(dst.len(), 4 * src.len(), "byte length mismatch");
    with_le_bytes(src, |bytes| dst.copy_from_slice(bytes));
}

/// Copies the floats encoded by the little-endian bytes `src` into `dst`.
///
/// # Panics
///
/// Panics if `src.len() != 4 * dst.len()`.
pub fn decode(src: &[u8], dst: &mut [f32]) {
    assert_eq!(src.len(), 4 * dst.len(), "byte length mismatch");
    fill_from_le_bytes(dst, |bytes| bytes.copy_from_slice(src));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bit patterns the float-valued generators never produce.
    const SPECIALS: [u32; 10] = [
        0x0000_0000, // +0.0
        0x8000_0000, // -0.0
        0x0000_0001, // smallest subnormal
        0x807f_ffff, // largest negative subnormal
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
        0x7fc0_0000, // canonical quiet NaN
        0x7fa5_5a5a, // signalling NaN with a payload
        0xffff_ffff, // negative quiet NaN, full payload
        0x7f7f_ffff, // f32::MAX
    ];

    fn floats(bits: &[u32]) -> Vec<f32> {
        bits.iter().map(|&b| f32::from_bits(b)).collect()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn special_bit_patterns_survive_both_directions() {
        let values = floats(&SPECIALS);
        let mut reference = vec![0u8; 4 * values.len()];
        encode_scalar(&values, &mut reference);
        with_le_bytes(&values, |bytes| assert_eq!(bytes, reference.as_slice()));
        let mut back = vec![0.0f32; values.len()];
        fill_from_le_bytes(&mut back, |bytes| bytes.copy_from_slice(&reference));
        assert_eq!(bits(&back), SPECIALS);
    }

    #[test]
    fn fill_passes_the_closure_result_through() {
        let mut values = [0.0f32; 2];
        let r: Result<(), &str> = fill_from_le_bytes(&mut values, |_| Err("short read"));
        assert_eq!(r, Err("short read"));
        assert_eq!(with_le_bytes(&values, <[u8]>::len), 8);
    }

    #[test]
    #[should_panic(expected = "byte length mismatch")]
    fn encode_rejects_a_short_destination() {
        encode(&[1.0, 2.0], &mut [0u8; 7]);
    }

    #[test]
    #[should_panic(expected = "byte length mismatch")]
    fn decode_rejects_ragged_bytes() {
        decode(&[0u8; 7], &mut [0.0; 2]);
    }

    proptest! {
        /// The borrowed views agree with the scalar codec for arbitrary bit
        /// patterns, at every length 0..=67 and at every sub-slice offset
        /// (the float window starts 4-, 8-, 12- or 32-byte aligned; the byte
        /// buffers start at odd addresses).
        #[test]
        fn views_match_the_scalar_codec(
            raw in proptest::collection::vec(any::<u32>(), 75..76),
            specials in proptest::collection::vec(0usize..75, 0..12),
            skip in 0usize..8,
            byte_skip in 0usize..4,
        ) {
            let mut raw = raw;
            for (k, &at) in specials.iter().enumerate() {
                raw[at] = SPECIALS[k % SPECIALS.len()];
            }
            let backing = floats(&raw);
            for len in 0..=67usize {
                let window = &backing[skip..skip + len];

                // Encode: the lent view and `encode` equal the scalar loop.
                let mut reference = vec![0u8; 4 * len];
                encode_scalar(window, &mut reference);
                with_le_bytes(window, |bytes| assert_eq!(bytes, reference.as_slice()));
                let mut unaligned = vec![0u8; byte_skip + 4 * len];
                encode(window, &mut unaligned[byte_skip..]);
                prop_assert_eq!(&unaligned[byte_skip..], reference.as_slice());

                // Decode: filling the view and `decode` equal the scalar loop.
                let mut expected = vec![0.0f32; len];
                decode_scalar(&unaligned[byte_skip..], &mut expected);
                prop_assert_eq!(bits(&expected), raw[skip..skip + len].to_vec());
                let mut target = vec![1.5f32; skip + len];
                decode(&unaligned[byte_skip..], &mut target[skip..]);
                prop_assert_eq!(bits(&target[skip..]), bits(&expected));
                prop_assert!(target[..skip].iter().all(|v| *v == 1.5), "decode wrote outside its window");
            }
        }
    }
}
