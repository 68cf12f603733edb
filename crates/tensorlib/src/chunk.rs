//! Subgroup chunking: splitting a flat range into accelerator-sized pieces.
//!
//! SmartUpdate processes the model "in units of a subgroup that fits into the
//! DRAM size of the accelerator" (paper Section V). The [`Chunker`] computes
//! those subgroups for an arbitrary shard length and subgroup capacity.

use serde::{Deserialize, Serialize};

/// One subgroup ("tasklet") of a flat parameter range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Subgroup {
    /// Index of the subgroup within its shard (0-based).
    pub index: usize,
    /// Element offset of the subgroup within its shard.
    pub offset: usize,
    /// Number of elements in the subgroup.
    pub len: usize,
}

/// Splits a flat range of `total` elements into subgroups of at most
/// `capacity` elements each.
///
/// # Example
///
/// ```
/// use tensorlib::Chunker;
///
/// let chunker = Chunker::new(10, 4);
/// let sizes: Vec<usize> = chunker.subgroups().map(|s| s.len).collect();
/// assert_eq!(sizes, vec![4, 4, 2]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Chunker {
    total: usize,
    capacity: usize,
}

impl Chunker {
    /// Creates a chunker for `total` elements with subgroups of at most
    /// `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(total: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "subgroup capacity must be positive");
        Self { total, capacity }
    }

    /// Total number of elements covered.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Maximum subgroup size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of subgroups (0 when `total` is 0).
    pub fn num_subgroups(&self) -> usize {
        self.total.div_ceil(self.capacity)
    }

    /// Size of the largest subgroup (0 when `total` is 0).
    pub fn max_subgroup_len(&self) -> usize {
        self.total.min(self.capacity)
    }

    /// Iterates over the subgroups in order.
    pub fn subgroups(&self) -> impl Iterator<Item = Subgroup> + '_ {
        let capacity = self.capacity;
        let total = self.total;
        (0..self.num_subgroups()).map(move |index| {
            let offset = index * capacity;
            let len = capacity.min(total - offset);
            Subgroup { index, offset, len }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_division_has_equal_chunks() {
        let c = Chunker::new(12, 4);
        assert_eq!(c.num_subgroups(), 3);
        assert_eq!(c.max_subgroup_len(), 4);
        let groups: Vec<_> = c.subgroups().collect();
        assert_eq!(groups[0], Subgroup { index: 0, offset: 0, len: 4 });
        assert_eq!(groups[2], Subgroup { index: 2, offset: 8, len: 4 });
    }

    #[test]
    fn remainder_goes_to_last_chunk() {
        let c = Chunker::new(10, 4);
        let groups: Vec<_> = c.subgroups().collect();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[2].len, 2);
        assert_eq!(c.total(), 10);
        assert_eq!(c.capacity(), 4);
    }

    #[test]
    fn empty_range_has_no_subgroups() {
        let c = Chunker::new(0, 8);
        assert_eq!(c.num_subgroups(), 0);
        assert_eq!(c.max_subgroup_len(), 0);
        assert_eq!(c.subgroups().count(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        Chunker::new(10, 0);
    }

    proptest! {
        /// Subgroups tile the range exactly: contiguous, ordered, no gaps or overlaps.
        #[test]
        fn subgroups_tile_the_range(total in 0usize..10_000, capacity in 1usize..500) {
            let c = Chunker::new(total, capacity);
            let mut expected_offset = 0;
            for sg in c.subgroups() {
                prop_assert_eq!(sg.offset, expected_offset);
                prop_assert!(sg.len <= capacity);
                prop_assert!(sg.len > 0);
                expected_offset += sg.len;
            }
            prop_assert_eq!(expected_offset, total);
        }
    }
}
