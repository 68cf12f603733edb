//! Error type for topology construction and routing.

use std::error::Error;
use std::fmt;

/// Errors produced while building or querying a PCIe topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// A node identifier did not belong to this topology.
    UnknownNode {
        /// The offending node index.
        index: usize,
    },
    /// No path exists between the two endpoints.
    NoRoute {
        /// Source node index.
        from: usize,
        /// Destination node index.
        to: usize,
    },
    /// An edge was declared with a non-positive bandwidth or between identical nodes.
    InvalidEdge {
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::UnknownNode { index } => write!(f, "unknown node id {index}"),
            FabricError::NoRoute { from, to } => {
                write!(f, "no route between node {from} and node {to}")
            }
            FabricError::InvalidEdge { message } => write!(f, "invalid edge: {message}"),
        }
    }
}

impl Error for FabricError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(FabricError::UnknownNode { index: 3 }.to_string(), "unknown node id 3");
        assert!(FabricError::NoRoute { from: 0, to: 9 }.to_string().contains("no route"));
        assert!(FabricError::InvalidEdge { message: "self loop".into() }
            .to_string()
            .contains("self loop"));
    }
}
