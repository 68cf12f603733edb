//! FPGA device DRAM buffer management.
//!
//! The SmartSSD's FPGA has 4 GB of DDR4. SmartUpdate sizes its parameter
//! subgroups to fit this memory; the internal data transfer handler
//! (paper Section IV-B) *pre-allocates* one buffer per optimizer-state
//! variable at the largest subgroup size and re-uses them across tasklets,
//! because naively double-buffering whole subgroups to overlap transfers
//! would exceed the device memory (the OOM problem the paper describes).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Identifier of an allocated device-memory buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub(crate) struct BufferId(u64);

/// Errors produced by the device DRAM allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DramError {
    /// The requested allocation does not fit in the remaining device memory.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes still available.
        available: u64,
    },
    /// The buffer id is unknown (already freed or never allocated).
    UnknownBuffer {
        /// The offending buffer id.
        id: u64,
    },
}

impl fmt::Display for DramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramError::OutOfMemory { requested, available } => {
                write!(
                    f,
                    "device memory exhausted: requested {requested} bytes, {available} available"
                )
            }
            DramError::UnknownBuffer { id } => write!(f, "unknown device buffer id {id}"),
        }
    }
}

impl Error for DramError {}

/// The FPGA's device DRAM: a capacity-checked buffer allocator.
///
/// The allocator intentionally does not store data (the functional kernels
/// keep their working sets in ordinary vectors); it exists to model the
/// memory-capacity constraint that shapes the transfer handler design.
#[derive(Debug, Clone)]
pub(crate) struct DeviceDram {
    capacity: u64,
    buffers: BTreeMap<u64, (Arc<str>, u64)>,
    next_id: u64,
}

impl DeviceDram {
    /// Creates a device memory of the given capacity in bytes.
    pub fn new(capacity: u64) -> Self {
        Self { capacity, buffers: BTreeMap::new(), next_id: 0 }
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.buffers.values().map(|(_, b)| *b).sum()
    }

    /// Bytes still available.
    pub(crate) fn available_bytes(&self) -> u64 {
        self.capacity - self.used_bytes()
    }

    /// Allocates a named buffer of `bytes` bytes. The label is shared, not
    /// copied, so a caller that allocates the same buffers every iteration
    /// can build its labels once.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::OutOfMemory`] if the allocation does not fit.
    pub(crate) fn allocate(
        &mut self,
        name: impl Into<Arc<str>>,
        bytes: u64,
    ) -> Result<BufferId, DramError> {
        let available = self.available_bytes();
        if bytes > available {
            return Err(DramError::OutOfMemory { requested: bytes, available });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.buffers.insert(id, (name.into(), bytes));
        Ok(BufferId(id))
    }

    /// Frees a buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::UnknownBuffer`] if the id was never allocated or
    /// has already been freed.
    pub fn free(&mut self, buffer: BufferId) -> Result<(), DramError> {
        self.buffers.remove(&buffer.0).map(|_| ()).ok_or(DramError::UnknownBuffer { id: buffer.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_free_track_usage() {
        let mut dram = DeviceDram::new(1000);
        let a = dram.allocate("param", 400).unwrap();
        let b = dram.allocate("grad", 300).unwrap();
        assert_eq!(dram.used_bytes(), 700);
        assert_eq!(dram.available_bytes(), 300);
        dram.free(a).unwrap();
        assert_eq!(dram.used_bytes(), 300);
        dram.free(b).unwrap();
        assert_eq!(dram.used_bytes(), 0);
    }

    #[test]
    fn oversized_allocation_is_rejected() {
        let mut dram = DeviceDram::new(100);
        let _a = dram.allocate("x", 80).unwrap();
        let err = dram.allocate("y", 30).unwrap_err();
        assert_eq!(err, DramError::OutOfMemory { requested: 30, available: 20 });
        assert!(err.to_string().contains("exhausted"));
    }

    #[test]
    fn double_free_is_an_error() {
        let mut dram = DeviceDram::new(100);
        let a = dram.allocate("x", 10).unwrap();
        dram.free(a).unwrap();
        assert!(matches!(dram.free(a), Err(DramError::UnknownBuffer { .. })));
    }

    /// The memory-capacity argument behind the transfer handler (Section IV-B):
    /// pre-allocating one buffer set for the largest subgroup fits, but naive
    /// double-buffering of full subgroups does not.
    #[test]
    fn naive_double_buffering_overflows_but_preallocation_fits() {
        let dram_capacity = 4u64 * (1 << 30);
        // Subgroup sized so that one set of buffers (grad + master + momentum +
        // variance + fp16 params, 18 bytes/param) fills ~60% of device memory.
        let subgroup_params = (dram_capacity as f64 * 0.6 / 18.0) as u64;
        let one_set = subgroup_params * 18;

        let mut dram = DeviceDram::new(dram_capacity);
        let _first = dram.allocate("set0", one_set).unwrap();
        // Naive overlapping: allocate a second full set while the first is live.
        assert!(matches!(dram.allocate("set1", one_set), Err(DramError::OutOfMemory { .. })));
        // Handler approach: keep the pre-allocated set and reuse it.
        assert_eq!(dram.used_bytes(), one_set);
    }
}
