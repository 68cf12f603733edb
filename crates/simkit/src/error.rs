//! Error type for the simulation kernel.

use std::error::Error;
use std::fmt;

/// Errors produced while building or running a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A task references a dependency, link, resource or phase that does not exist.
    UnknownId {
        /// Which kind of identifier was invalid ("task", "link", "resource", "phase").
        kind: &'static str,
        /// The offending index.
        index: usize,
    },
    /// The dependency graph contains a cycle; the listed tasks could never start.
    DependencyCycle {
        /// Tasks left pending when the simulation ran out of runnable work.
        stuck_tasks: Vec<usize>,
    },
    /// A task parameter was invalid (negative bytes, non-positive bandwidth, ...).
    InvalidParameter {
        /// Description of the invalid parameter.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownId { kind, index } => {
                write!(f, "unknown {kind} id {index}")
            }
            SimError::DependencyCycle { stuck_tasks } => {
                write!(f, "dependency cycle: {} task(s) can never start", stuck_tasks.len())
            }
            SimError::InvalidParameter { message } => {
                write!(f, "invalid parameter: {message}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_meaningful() {
        let e = SimError::UnknownId { kind: "link", index: 3 };
        assert_eq!(e.to_string(), "unknown link id 3");
        let e = SimError::DependencyCycle { stuck_tasks: vec![1, 2] };
        assert!(e.to_string().contains("2 task(s)"));
        let e = SimError::InvalidParameter { message: "negative bytes".into() };
        assert!(e.to_string().contains("negative bytes"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
