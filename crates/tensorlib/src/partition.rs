//! Flattened parameter partitioning across devices.
//!
//! Smart-Infinity "flattens the model parameters and equally distributes them
//! to the CSDs, where each CSD takes the responsibility to update the owned
//! parameters" (paper Section IV-D). Because every optimizer operation is
//! element-wise, the partition is agnostic to the model architecture.

use serde::{Deserialize, Serialize};

/// One device's share of the flattened parameter vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shard {
    /// Index of the owning device.
    pub device: usize,
    /// Element offset of the shard within the flattened model.
    pub offset: usize,
    /// Number of elements owned by the device.
    pub len: usize,
}

/// An equal (±1 element) split of `total` flattened parameters across devices.
///
/// # Example
///
/// ```
/// use tensorlib::Partitioner;
///
/// let parts = Partitioner::contiguous(10, 3);
/// let lens: Vec<usize> = parts.shards().iter().map(|s| s.len).collect();
/// assert_eq!(lens, vec![4, 3, 3]);
/// assert_eq!(parts.owner_of(4), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partitioner {
    total: usize,
    shards: Vec<Shard>,
}

impl Partitioner {
    /// Splits `total` elements into `num_devices` contiguous shards whose
    /// sizes differ by at most one element.
    ///
    /// # Panics
    ///
    /// Panics if `num_devices` is zero.
    pub fn contiguous(total: usize, num_devices: usize) -> Self {
        assert!(num_devices > 0, "cannot partition across zero devices");
        let base = total / num_devices;
        let extra = total % num_devices;
        let mut shards = Vec::with_capacity(num_devices);
        let mut offset = 0;
        for device in 0..num_devices {
            let len = base + usize::from(device < extra);
            shards.push(Shard { device, offset, len });
            offset += len;
        }
        Self { total, shards }
    }

    /// Total number of flattened elements.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.shards.len()
    }

    /// All shards in device order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The shard owned by `device`.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn shard(&self, device: usize) -> Shard {
        self.shards[device]
    }

    /// The device that owns flattened element `element`.
    ///
    /// # Panics
    ///
    /// Panics if `element >= total`.
    pub fn owner_of(&self, element: usize) -> usize {
        assert!(element < self.total, "element {element} out of range {}", self.total);
        // Shards are contiguous and sorted; binary search by offset.
        match self.shards.binary_search_by(|s| {
            if element < s.offset {
                std::cmp::Ordering::Greater
            } else if element >= s.offset + s.len {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(idx) => idx,
            Err(_) => unreachable!("contiguous shards cover every in-range element"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn equal_split_when_divisible() {
        let p = Partitioner::contiguous(12, 4);
        assert_eq!(p.num_devices(), 4);
        assert!(p.shards().iter().all(|s| s.len == 3));
        assert_eq!(p.total(), 12);
    }

    #[test]
    fn remainder_spread_over_first_devices() {
        let p = Partitioner::contiguous(10, 3);
        let lens: Vec<_> = p.shards().iter().map(|s| s.len).collect();
        assert_eq!(lens, vec![4, 3, 3]);
        assert_eq!(p.shard(1), Shard { device: 1, offset: 4, len: 3 });
    }

    #[test]
    fn single_device_owns_everything() {
        let p = Partitioner::contiguous(100, 1);
        assert_eq!(p.shard(0).len, 100);
        assert_eq!(p.owner_of(99), 0);
    }

    #[test]
    fn more_devices_than_elements_leaves_empty_shards() {
        let p = Partitioner::contiguous(2, 5);
        let lens: Vec<_> = p.shards().iter().map(|s| s.len).collect();
        assert_eq!(lens, vec![1, 1, 0, 0, 0]);
        assert_eq!(p.owner_of(1), 1);
    }

    #[test]
    fn owner_of_matches_shard_ranges() {
        let p = Partitioner::contiguous(10, 3);
        assert_eq!(p.owner_of(0), 0);
        assert_eq!(p.owner_of(3), 0);
        assert_eq!(p.owner_of(4), 1);
        assert_eq!(p.owner_of(6), 1);
        assert_eq!(p.owner_of(7), 2);
        assert_eq!(p.owner_of(9), 2);
    }

    #[test]
    #[should_panic(expected = "zero devices")]
    fn zero_devices_panics() {
        Partitioner::contiguous(10, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owner_of_out_of_range_panics() {
        Partitioner::contiguous(10, 2).owner_of(10);
    }

    proptest! {
        /// Shards are contiguous, ordered, balanced (±1) and cover every element.
        #[test]
        fn shards_partition_the_range(total in 0usize..100_000, devices in 1usize..32) {
            let p = Partitioner::contiguous(total, devices);
            let mut offset = 0;
            let base = total / devices;
            for (i, s) in p.shards().iter().enumerate() {
                prop_assert_eq!(s.device, i);
                prop_assert_eq!(s.offset, offset);
                prop_assert!(s.len == base || s.len == base + 1);
                offset += s.len;
            }
            prop_assert_eq!(offset, total);
        }

        /// owner_of agrees with the shard table.
        #[test]
        fn owner_of_is_consistent(total in 1usize..50_000, devices in 1usize..32, frac in 0.0f64..1.0) {
            let p = Partitioner::contiguous(total, devices);
            let elem = ((total - 1) as f64 * frac) as usize;
            let owner = p.owner_of(elem);
            let shard = p.shard(owner);
            prop_assert!(shard.offset <= elem && elem < shard.offset + shard.len);
        }
    }
}
