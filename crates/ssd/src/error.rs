//! Error type for SSD operations.

use faultkit::InjectedFault;
use std::error::Error;
use std::fmt;

/// Errors produced by the functional SSD store and RAID array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SsdError {
    /// Writing the region would exceed the device capacity.
    CapacityExceeded {
        /// Device name.
        device: String,
        /// Bytes that would be used after the write.
        requested: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
    /// The named region does not exist on the device.
    UnknownRegion {
        /// Device name.
        device: String,
        /// Region name that was requested.
        region: String,
    },
    /// A read or write addressed bytes beyond the end of a region.
    OutOfBounds {
        /// Region name.
        region: String,
        /// Offset of the access.
        offset: usize,
        /// Length of the access.
        len: usize,
        /// Size of the region.
        region_len: usize,
    },
    /// A whole-region transfer found a region whose length disagrees with
    /// the caller's buffer (for a RAID member: with its share of the stripes).
    LengthMismatch {
        /// Device name.
        device: String,
        /// Region name.
        region: String,
        /// Bytes the transfer expected the region to hold.
        expected: usize,
        /// Bytes the region holds.
        actual: usize,
    },
    /// The RAID array was configured with zero member devices.
    EmptyArray,
    /// A fault plan injected a transient failure into this operation that
    /// the device's retry budget did not clear (see
    /// [`SsdDevice::set_retry_budget`](crate::SsdDevice::set_retry_budget)).
    Injected {
        /// Device name.
        device: String,
        /// The injected fault.
        fault: InjectedFault,
    },
    /// The device's flash has worn out: the media is read-only and every
    /// write fails until the device is rebuilt onto a replacement.
    WornOut {
        /// Device name.
        device: String,
    },
}

impl fmt::Display for SsdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsdError::CapacityExceeded { device, requested, capacity } => write!(
                f,
                "capacity exceeded on {device}: requested {requested} bytes of {capacity}"
            ),
            SsdError::UnknownRegion { device, region } => {
                write!(f, "unknown region {region} on device {device}")
            }
            SsdError::OutOfBounds { region, offset, len, region_len } => write!(
                f,
                "access of {len} bytes at offset {offset} out of bounds for region {region} of \
                 {region_len} bytes"
            ),
            SsdError::LengthMismatch { device, region, expected, actual } => write!(
                f,
                "region {region} on device {device} holds {actual} bytes, expected {expected}"
            ),
            SsdError::EmptyArray => write!(f, "RAID array must contain at least one device"),
            SsdError::Injected { device, fault } => {
                write!(f, "transient fault on {device}: {fault}")
            }
            SsdError::WornOut { device } => {
                write!(f, "device {device} has worn out (read-only media; rebuild required)")
            }
        }
    }
}

impl Error for SsdError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SsdError::Injected { fault, .. } => Some(fault),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = SsdError::CapacityExceeded { device: "ssd0".into(), requested: 10, capacity: 5 };
        assert!(e.to_string().contains("ssd0"));
        let e = SsdError::UnknownRegion { device: "ssd1".into(), region: "grad".into() };
        assert!(e.to_string().contains("grad"));
        let e = SsdError::OutOfBounds { region: "p".into(), offset: 4, len: 8, region_len: 6 };
        assert!(e.to_string().contains("out of bounds"));
        let e = SsdError::LengthMismatch {
            device: "ssd1".into(),
            region: "r".into(),
            expected: 8,
            actual: 5,
        };
        assert!(e.to_string().contains("holds 5 bytes, expected 8"));
        assert!(SsdError::EmptyArray.to_string().contains("at least one"));
        let e = SsdError::WornOut { device: "ssd2".into() };
        assert!(e.to_string().contains("worn out"));
        assert!(e.source().is_none());
    }

    #[test]
    fn injected_faults_are_transient_and_chain_their_source() {
        let fault = InjectedFault {
            device: 3,
            kind: faultkit::FaultOpKind::Write,
            op_index: 12,
            remaining: 1,
        };
        let e = SsdError::Injected { device: "ssd3".into(), fault };
        assert!(e.to_string().contains("transient fault on ssd3"));
        let source = e.source().expect("injected fault chains its source");
        assert!(source.downcast_ref::<InjectedFault>().is_some());
    }
}
