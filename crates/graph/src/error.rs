//! Error type shared by the graph substrate.

use crate::{EdgeId, NodeId};
use std::error::Error;
use std::fmt;

/// Errors produced by graph construction, contraction and analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// A node index was outside the graph's node range.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Number of nodes in the graph.
        node_count: usize,
    },
    /// An edge identifier is not present in the graph.
    UnknownEdge {
        /// The offending edge identifier.
        edge: EdgeId,
    },
    /// An edge identifier was inserted twice.
    DuplicateEdgeId {
        /// The duplicated edge identifier.
        edge: EdgeId,
    },
    /// A self-loop was supplied where the operation requires loop-free input.
    SelfLoop {
        /// The node carrying the loop.
        node: NodeId,
    },
    /// The operation requires a connected graph but the input is disconnected.
    Disconnected {
        /// Number of connected components found.
        components: usize,
    },
    /// A parameter supplied to a generator or analysis routine is invalid.
    InvalidParameter {
        /// Human-readable description of the violated requirement.
        reason: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, node_count } => {
                write!(
                    f,
                    "node {node} is out of range for a graph with {node_count} nodes"
                )
            }
            GraphError::UnknownEdge { edge } => write!(f, "edge {edge} does not exist"),
            GraphError::DuplicateEdgeId { edge } => {
                write!(f, "edge id {edge} was inserted more than once")
            }
            GraphError::SelfLoop { node } => {
                write!(f, "self-loop at {node} is not allowed here")
            }
            GraphError::Disconnected { components } => {
                write!(f, "graph is disconnected ({components} components)")
            }
            GraphError::InvalidParameter { reason } => {
                write!(f, "invalid parameter: {reason}")
            }
        }
    }
}

impl Error for GraphError {}

impl GraphError {
    /// Convenience constructor for [`GraphError::InvalidParameter`].
    pub fn invalid_parameter(reason: impl Into<String>) -> Self {
        GraphError::InvalidParameter {
            reason: reason.into(),
        }
    }
}

/// Result alias used by the graph substrate.
pub type GraphResult<T> = Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_offender() {
        let err = GraphError::NodeOutOfRange {
            node: NodeId::new(9),
            node_count: 4,
        };
        assert!(err.to_string().contains("v9"));
        assert!(err.to_string().contains('4'));

        let err = GraphError::UnknownEdge {
            edge: EdgeId::new(5),
        };
        assert!(err.to_string().contains("e5"));

        let err = GraphError::invalid_parameter("p must be in [0, 1]");
        assert!(err.to_string().contains("p must be in [0, 1]"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<GraphError>();
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            GraphError::SelfLoop {
                node: NodeId::new(1)
            },
            GraphError::SelfLoop {
                node: NodeId::new(1)
            }
        );
        assert_ne!(
            GraphError::Disconnected { components: 2 },
            GraphError::Disconnected { components: 3 }
        );
    }
}
