//! The compressed gradient container: parallel index and value lists.

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use tensorlib::FlatTensor;

/// Why a compressed gradient could not be constructed.
///
/// The index stream is `u32` on the wire (that is what the FPGA decompressor
/// walks), so a shard longer than `u32::MAX` elements — or an index pointing
/// outside the dense gradient — is a hard representation error. These used to
/// abort the process via `assert!`; they are now surfaced as values so that
/// oversized models produce a [`TrainError::Config`]-style error instead of a
/// panic (`CompressError` → `csd::CsdError` → `ztrain::TrainError`).
///
/// [`TrainError::Config`]: https://docs.rs/ztrain
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressError {
    /// The index and value lists have different lengths.
    LengthMismatch {
        /// Number of indices supplied.
        indices: usize,
        /// Number of values supplied.
        values: usize,
    },
    /// The dense gradient is too long to index with `u32`.
    IndexSpaceExceeded {
        /// The dense gradient length that does not fit the u32 index space.
        original_len: usize,
    },
    /// An index points outside the dense gradient.
    IndexOutOfRange {
        /// The offending index.
        index: u32,
        /// Length of the dense gradient.
        original_len: usize,
    },
    /// An index is not greater than the one before it: the stream must name
    /// each coordinate once, in ascending order.
    IndexOutOfOrder {
        /// Position in the index list of the first offending index.
        position: usize,
    },
    /// A subgroup to decompress reaches past the end of the dense gradient
    /// the stream was compressed from.
    SubgroupOutOfRange {
        /// Element offset of the subgroup.
        offset: usize,
        /// Number of elements in the subgroup.
        len: usize,
        /// Length of the dense gradient.
        original_len: usize,
    },
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::LengthMismatch { indices, values } => {
                write!(f, "index/value length mismatch: {indices} indices vs {values} values")
            }
            CompressError::IndexSpaceExceeded { original_len } => {
                write!(f, "original length {original_len} exceeds u32 index space")
            }
            CompressError::IndexOutOfRange { index, original_len } => {
                write!(f, "index {index} out of range {original_len}")
            }
            CompressError::IndexOutOfOrder { position } => {
                write!(f, "index at position {position} is not above the index before it")
            }
            CompressError::SubgroupOutOfRange { offset, len, original_len } => {
                write!(f, "subgroup of {len} at {offset} exceeds gradient length {original_len}")
            }
        }
    }
}

impl Error for CompressError {}

/// The length guard of every way a compressed stream comes to be: the index
/// stream is u32 on the wire, so a longer gradient has no representation.
pub(crate) fn check_index_space(original_len: usize) -> Result<(), CompressError> {
    if original_len > u32::MAX as usize {
        return Err(CompressError::IndexSpaceExceeded { original_len });
    }
    Ok(())
}

/// Position of the first index that is not above its predecessor, if any.
fn first_out_of_order(indices: &[u32]) -> Option<usize> {
    indices.windows(2).position(|pair| pair[0] >= pair[1]).map(|p| p + 1)
}

/// A sparsified gradient: the positions and values of the selected elements
/// of a flat gradient vector of length `original_len`.
///
/// This is exactly the representation the SmartComp decompressor consumes
/// (paper Fig. 7, upper half): the FPGA walks the index list and scatters the
/// values into a zero-initialised gradient buffer.
///
/// **Invariant: the indices are strictly ascending** (so each coordinate is
/// named at most once). Both selectors emit them that way and
/// [`CompressedGradient::try_new`] checks it; it is what lets a decompressor
/// find a subgroup's pairs with one binary search and then walk the stream
/// front to back, a tile at a time, instead of scanning all of it per
/// subgroup.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CompressedGradient {
    indices: Vec<u32>,
    values: Vec<f32>,
    original_len: usize,
}

impl CompressedGradient {
    /// Creates a compressed gradient from parallel index/value lists.
    ///
    /// # Panics
    ///
    /// Panics if the lists have different lengths, if any index is out of
    /// range or not above its predecessor, or if `original_len` exceeds
    /// `u32::MAX`. Callers that must not abort on untrusted sizes (the
    /// training front-ends) use [`CompressedGradient::try_new`].
    pub fn new(indices: Vec<u32>, values: Vec<f32>, original_len: usize) -> Self {
        Self::try_new(indices, values, original_len).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible construction: the checks of [`CompressedGradient::new`], but
    /// surfaced as a [`CompressError`] so a 4-billion-parameter shard errors
    /// instead of aborting the process.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::LengthMismatch`] for unequal lists,
    /// [`CompressError::IndexSpaceExceeded`] when `original_len` does not fit
    /// the u32 index space, [`CompressError::IndexOutOfRange`] for an index
    /// pointing outside the dense gradient, and
    /// [`CompressError::IndexOutOfOrder`] for a repeated or descending index.
    pub fn try_new(
        indices: Vec<u32>,
        values: Vec<f32>,
        original_len: usize,
    ) -> Result<Self, CompressError> {
        if indices.len() != values.len() {
            return Err(CompressError::LengthMismatch {
                indices: indices.len(),
                values: values.len(),
            });
        }
        check_index_space(original_len)?;
        if let Some(&index) = indices.iter().find(|&&i| (i as usize) >= original_len) {
            return Err(CompressError::IndexOutOfRange { index, original_len });
        }
        if let Some(position) = first_out_of_order(&indices) {
            return Err(CompressError::IndexOutOfOrder { position });
        }
        Ok(Self { indices, values, original_len })
    }

    /// Refills the stream in place (allocations reused) with the `selected`
    /// coordinates of `grads`, which the selectors list in ascending order.
    /// The caller has checked `grads.len()` against the index space; an index
    /// outside `grads` panics on the value read.
    pub(crate) fn refill(&mut self, selected: &[u32], grads: &[f32]) {
        debug_assert!(grads.len() <= u32::MAX as usize);
        debug_assert_eq!(first_out_of_order(selected), None, "selection must be ascending");
        self.indices.clear();
        self.indices.extend_from_slice(selected);
        self.values.clear();
        self.values.extend(selected.iter().map(|&i| grads[i as usize]));
        self.original_len = grads.len();
    }

    /// Number of selected (non-zero) elements.
    pub fn num_selected(&self) -> usize {
        self.indices.len()
    }

    /// Length of the original dense gradient.
    pub fn original_len(&self) -> usize {
        self.original_len
    }

    /// The selected indices.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The selected values.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Bytes transferred for this compressed gradient: a 4-byte index plus a
    /// 4-byte value per selected element.
    pub fn compressed_bytes(&self) -> usize {
        self.num_selected() * 8
    }

    /// Bytes of the original dense FP32 gradient.
    pub fn dense_bytes(&self) -> usize {
        self.original_len * 4
    }

    /// Scatters the values into a new dense tensor (zeros elsewhere). This is
    /// the reference semantics the FPGA decompressor must match.
    pub fn decompress(&self) -> FlatTensor {
        let mut out = FlatTensor::zeros(self.original_len);
        self.decompress_into(out.as_mut_slice());
        out
    }

    /// Scatters the values into an existing buffer, zeroing it first.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != original_len`.
    pub fn decompress_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.original_len, "output buffer length mismatch");
        out.fill(0.0);
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            out[i as usize] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn decompress_scatters_values_and_zeroes_the_rest() {
        let c = CompressedGradient::new(vec![1, 3], vec![5.0, -2.0], 5);
        let d = c.decompress();
        assert_eq!(d.as_slice(), &[0.0, 5.0, 0.0, -2.0, 0.0]);
        assert_eq!(c.num_selected(), 2);
        assert_eq!(c.original_len(), 5);
        assert_eq!(c.indices(), &[1, 3]);
        assert_eq!(c.values(), &[5.0, -2.0]);
    }

    #[test]
    fn byte_accounting_matches_index_value_pairs() {
        let c = CompressedGradient::new(vec![0, 1, 2], vec![1.0, 2.0, 3.0], 300);
        assert_eq!(c.compressed_bytes(), 24);
        assert_eq!(c.dense_bytes(), 1200);
    }

    #[test]
    fn empty_compression_is_all_zeros() {
        let c = CompressedGradient::new(vec![], vec![], 4);
        assert_eq!(c.decompress().as_slice(), &[0.0; 4]);
        let empty = CompressedGradient::default();
        assert_eq!(empty.original_len(), 0);
        assert_eq!(empty.compressed_bytes(), 0);
    }

    #[test]
    fn decompress_into_overwrites_previous_contents() {
        let c = CompressedGradient::new(vec![0], vec![9.0], 3);
        let mut buf = vec![7.0f32; 3];
        c.decompress_into(&mut buf);
        assert_eq!(buf, vec![9.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lists_panic() {
        CompressedGradient::new(vec![0, 1], vec![1.0], 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        CompressedGradient::new(vec![4], vec![1.0], 4);
    }

    #[test]
    fn try_new_surfaces_every_construction_error_as_a_value() {
        assert_eq!(
            CompressedGradient::try_new(vec![0, 1], vec![1.0], 4),
            Err(CompressError::LengthMismatch { indices: 2, values: 1 })
        );
        assert_eq!(
            CompressedGradient::try_new(vec![4], vec![1.0], 4),
            Err(CompressError::IndexOutOfRange { index: 4, original_len: 4 })
        );
        let oversized = u32::MAX as usize + 1;
        assert_eq!(
            CompressedGradient::try_new(vec![], vec![], oversized),
            Err(CompressError::IndexSpaceExceeded { original_len: oversized })
        );
        // Descending and repeated indices both break the ascending invariant.
        for (indices, position) in [(vec![2, 1, 3], 1), (vec![0, 2, 2], 2), (vec![0, 5, 7, 6], 3)] {
            let values = vec![1.0; indices.len()];
            let e = CompressedGradient::try_new(indices, values, 8).unwrap_err();
            assert_eq!(e, CompressError::IndexOutOfOrder { position });
            assert!(e.to_string().contains(&format!("position {position}")));
        }
        // The error messages are what `new` panics with.
        let e = CompressedGradient::try_new(vec![3], vec![1.0], 2).unwrap_err();
        assert!(e.to_string().contains("index 3 out of range 2"));
        assert!(std::error::Error::source(&e).is_none());
        // u32::MAX elements themselves are still representable.
        let ok = CompressedGradient::try_new(vec![0], vec![1.0], u32::MAX as usize).unwrap();
        assert_eq!(ok.original_len(), u32::MAX as usize);
    }

    proptest! {
        /// decompress followed by re-reading the selected indices returns the values.
        #[test]
        fn roundtrip_preserves_selected_values(
            pairs in proptest::collection::btree_map(0u32..1000, -100.0f32..100.0, 0..50),
            extra in 0usize..100,
        ) {
            let original_len = 1000 + extra;
            let indices: Vec<u32> = pairs.keys().copied().collect();
            let values: Vec<f32> = pairs.values().copied().collect();
            let c = CompressedGradient::new(indices.clone(), values.clone(), original_len);
            let dense = c.decompress();
            for (i, v) in indices.iter().zip(values.iter()) {
                prop_assert_eq!(dense.as_slice()[*i as usize], *v);
            }
            let nonzero = dense.as_slice().iter().filter(|&&x| x != 0.0).count();
            prop_assert!(nonzero <= indices.len());
        }
    }
}
