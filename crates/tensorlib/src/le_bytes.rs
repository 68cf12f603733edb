//! `f32` ⇄ little-endian bytes: the one conversion primitive.
//!
//! FP32 tensors travel (over PCIe, onto the SSD) as little-endian bytes. On
//! a little-endian target that wire form *is* the tensor's memory, so the
//! functional stack never needs to convert: [`with_le_bytes`] lends a
//! tensor's bytes to a writer and [`fill_from_le_bytes`] lets a reader fill
//! a tensor's bytes directly — one memory pass per transfer, no staging
//! buffer. Everything else in the workspace that turns floats into bytes or
//! back (`FlatTensor::{to_bytes, from_bytes}`, the crate's `decode`) is a
//! thin caller of those two.
//!
//! On a big-endian target both go through a staging buffer and the scalar
//! codec (`encode_scalar`, `decode_scalar`): a per-element loop, which is
//! that target's implementation and, everywhere, the oracle the tests compare
//! the borrowed views against.
//!
//! The other direction lends bytes as floats: [`with_floats`] and
//! [`with_floats_mut`] hand a reader or an in-place updater the floats that
//! little-endian byte windows encode. A 4-byte-aligned window on a
//! little-endian target *is* those floats, so it is viewed where it lies;
//! any other window is staged through a caller-owned buffer (decode, call
//! and, for the writable form, encode back), so a warm caller never
//! allocates either way.
//!
//! Besides the private `simd` module this is the only module in the crate
//! allowed to use `unsafe`: the private reborrows of an `f32` slice as its
//! bytes and of an aligned little-endian byte window as its floats, each
//! shared and exclusive.
#![allow(unsafe_code)]

/// Scalar reference encode: `dst` receives each float's little-endian bytes.
///
/// # Panics
///
/// Panics if `dst.len() != 4 * src.len()`.
pub(crate) fn encode_scalar(src: &[f32], dst: &mut [u8]) {
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
pub(crate) fn decode_scalar(src: &[u8], dst: &mut [f32]) {
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

/// Whether `bytes` is, where it lies, the floats it encodes: a little-endian
/// target, an `f32`-aligned start and a whole number of floats.
fn viewable(bytes: &[u8]) -> bool {
    cfg!(target_endian = "little")
        && bytes.len() % 4 == 0
        && bytes.as_ptr().align_offset(std::mem::align_of::<f32>()) == 0
}

/// The floats `bytes` encodes, viewed in place when `viewable`.
pub(crate) fn floats_of(bytes: &[u8]) -> Option<&[f32]> {
    // SAFETY: `viewable` checked that the target is little-endian (so the
    // bytes are the floats' own memory layout), that the start is aligned
    // for `f32` and that the length is whole floats. Every bit pattern is a
    // valid `f32`, and the returned borrow inherits the lifetime and
    // sharedness of `bytes`.
    viewable(bytes)
        .then(|| unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast(), bytes.len() / 4) })
}

/// The floats `bytes` encodes, viewed in place and writable when `viewable`.
fn floats_of_mut(bytes: &mut [u8]) -> Option<&mut [f32]> {
    // SAFETY: as in `floats_of` (the endianness, alignment and length checks
    // of `viewable`); in addition every bit pattern written through the view
    // is valid bytes, and the exclusive borrow of `bytes` is held for as long
    // as the returned one lives.
    viewable(bytes).then(|| unsafe {
        std::slice::from_raw_parts_mut(bytes.as_mut_ptr().cast(), bytes.len() / 4)
    })
}

/// Calls `f` with the floats the little-endian bytes `window` encodes: the
/// window itself when it can be viewed in place (a little-endian target and
/// a 4-byte-aligned start), otherwise `staging` after a decode into it.
///
/// # Panics
///
/// Panics if `window.len()` is not a multiple of 4.
pub fn with_floats<R>(window: &[u8], staging: &mut Vec<f32>, f: impl FnOnce(&[f32]) -> R) -> R {
    if let Some(view) = floats_of(window) {
        return f(view);
    }
    assert_eq!(window.len() % 4, 0, "a byte window is not whole floats");
    staging.resize(window.len() / 4, 0.0);
    decode_scalar(window, staging);
    f(staging.as_slice())
}

/// Calls `f` with writable floats for each little-endian byte window, in
/// order, and leaves in each window the encoding of what `f` left in its
/// floats. When every window can be viewed in place (a little-endian target
/// and 4-byte-aligned starts) `f` updates the windows themselves; otherwise
/// all of them are decoded into `staging`, `f` runs on that, and each is
/// encoded back.
///
/// # Panics
///
/// Panics if a window's length is not a multiple of 4.
pub fn with_floats_mut<R>(
    windows: &mut [&mut [u8]],
    staging: &mut Vec<f32>,
    f: impl FnOnce(&mut [&mut [f32]]) -> R,
) -> R {
    if let Some(mut views) =
        windows.iter_mut().map(|w| floats_of_mut(w)).collect::<Option<Vec<_>>>()
    {
        return f(&mut views);
    }
    staging.clear();
    for window in windows.iter() {
        assert_eq!(window.len() % 4, 0, "a byte window is not whole floats");
        let at = staging.len();
        staging.resize(at + window.len() / 4, 0.0);
        decode_scalar(window, &mut staging[at..]);
    }
    let mut rest = staging.as_mut_slice();
    let mut views = Vec::with_capacity(windows.len());
    for window in windows.iter() {
        let (view, tail) = std::mem::take(&mut rest).split_at_mut(window.len() / 4);
        views.push(view);
        rest = tail;
    }
    let result = f(&mut views);
    for (window, view) in windows.iter_mut().zip(views) {
        encode_scalar(view, window);
    }
    result
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

/// Copies the floats encoded by the little-endian bytes `src` into `dst`.
///
/// # Panics
///
/// Panics if `src.len() != 4 * dst.len()`.
pub(crate) fn decode(src: &[u8], dst: &mut [f32]) {
    assert_eq!(src.len(), 4 * dst.len(), "byte length mismatch");
    fill_from_le_bytes(dst, |bytes| bytes.copy_from_slice(src));
}

/// Copies the little-endian bytes of `src` into `dst`. Only tests copy;
/// the crate lends the bytes instead ([`with_le_bytes`]).
///
/// # Panics
///
/// Panics if `dst.len() != 4 * src.len()`.
#[cfg(test)]
pub(crate) fn encode(src: &[f32], dst: &mut [u8]) {
    assert_eq!(dst.len(), 4 * src.len(), "byte length mismatch");
    with_le_bytes(src, |bytes| dst.copy_from_slice(bytes));
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

                // Lend as floats: an aligned window is viewed in place, one
                // 1-3 bytes off is staged (and stages its aligned partner
                // with it). Either way `f` sees what the scalar decode gives,
                // and each window ends holding exactly what decode → f →
                // encode leaves; `with_floats` then reads that back.
                let flip = |v: &mut [f32], mask: u32| {
                    v.iter_mut().for_each(|x| *x = f32::from_bits(x.to_bits() ^ mask));
                };
                let partner = &backing[skip + 1..skip + 1 + len];
                let (mut want_a, mut want_b) = (window.to_vec(), partner.to_vec());
                flip(&mut want_a, 0x8000_0001);
                flip(&mut want_b, 0x4000_0002);
                let (mut want_a_bytes, mut want_b_bytes) = (vec![0u8; 4 * len], vec![0u8; 4 * len]);
                encode_scalar(&want_a, &mut want_a_bytes);
                encode_scalar(&want_b, &mut want_b_bytes);
                for lag in 0..4usize {
                    let mut words = vec![0.0f32; 2 * len + 2];
                    let (a, b) = memory_of_mut(&mut words).split_at_mut(4 * len + 4);
                    let mut windows = [&mut a[lag..lag + 4 * len], &mut b[..4 * len]];
                    encode_scalar(window, windows[0]);
                    encode_scalar(partner, windows[1]);
                    let in_place = cfg!(target_endian = "little") && lag == 0;
                    prop_assert_eq!(viewable(windows[0]), in_place, "lag {}", lag);
                    let mut staging = Vec::new();
                    let seen = with_floats_mut(&mut windows, &mut staging, |views| {
                        let seen: Vec<Vec<u32>> = views.iter().map(|v| bits(v)).collect();
                        flip(views[0], 0x8000_0001);
                        flip(views[1], 0x4000_0002);
                        seen
                    });
                    prop_assert_eq!(&seen[0], &raw[skip..skip + len]);
                    prop_assert_eq!(&seen[1], &raw[skip + 1..skip + 1 + len]);
                    prop_assert_eq!(&*windows[0], want_a_bytes.as_slice(), "lag {}", lag);
                    prop_assert_eq!(&*windows[1], want_b_bytes.as_slice(), "lag {}", lag);
                    prop_assert_eq!(staging.is_empty(), in_place || len == 0, "lag {}", lag);
                    let read = with_floats(windows[0], &mut staging, bits);
                    prop_assert_eq!(read, bits(&want_a), "lag {}", lag);
                }
            }
        }
    }
}
