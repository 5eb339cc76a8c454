//! Error type of the LOCAL-model runtime.

use freelunch_graph::{EdgeId, NodeId};
use std::error::Error;
use std::fmt;

/// Errors raised while constructing or executing a synchronous network.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// A node tried to send a message over an edge that is not incident to it.
    NotIncident {
        /// The sending node.
        node: NodeId,
        /// The edge it tried to use.
        edge: EdgeId,
    },
    /// A node referenced an edge that does not exist in the communication
    /// graph.
    UnknownEdge {
        /// The unknown edge.
        edge: EdgeId,
    },
    /// The execution exceeded the configured round budget without all nodes
    /// halting.
    RoundBudgetExceeded {
        /// The budget that was exhausted.
        budget: u32,
    },
    /// A configuration parameter is invalid.
    InvalidConfig {
        /// Description of the violated requirement.
        reason: String,
    },
    /// A transport backend failed: connection setup, a read/write timeout,
    /// a desynchronized or malformed frame, or a wire-codec violation (see
    /// `docs/TRANSPORT.md` for the contract each message names).
    Transport {
        /// Description of the failure, naming the peer/frame where known.
        reason: String,
    },
    /// A checkpoint could not be captured, serialized, or restored: a torn
    /// or corrupt file, a version/fingerprint mismatch, or program state
    /// that failed to round-trip (see `docs/RECOVERY.md`).
    Checkpoint {
        /// Description of the failure, naming the offending field/offset
        /// where known.
        reason: String,
    },
    /// An error surfaced from the graph substrate.
    Graph(freelunch_graph::GraphError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NotIncident { node, edge } => {
                write!(
                    f,
                    "node {node} attempted to send over non-incident edge {edge}"
                )
            }
            RuntimeError::UnknownEdge { edge } => write!(f, "edge {edge} does not exist"),
            RuntimeError::RoundBudgetExceeded { budget } => {
                write!(f, "execution did not halt within {budget} rounds")
            }
            RuntimeError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            RuntimeError::Transport { reason } => write!(f, "transport error: {reason}"),
            RuntimeError::Checkpoint { reason } => write!(f, "checkpoint error: {reason}"),
            RuntimeError::Graph(err) => write!(f, "graph error: {err}"),
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Graph(err) => Some(err),
            _ => None,
        }
    }
}

impl From<freelunch_graph::GraphError> for RuntimeError {
    fn from(err: freelunch_graph::GraphError) -> Self {
        RuntimeError::Graph(err)
    }
}

impl RuntimeError {
    /// Convenience constructor for [`RuntimeError::InvalidConfig`].
    pub fn invalid_config(reason: impl Into<String>) -> Self {
        RuntimeError::InvalidConfig {
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`RuntimeError::Transport`].
    pub(crate) fn transport(reason: impl Into<String>) -> Self {
        RuntimeError::Transport {
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`RuntimeError::Checkpoint`].
    pub(crate) fn checkpoint(reason: impl Into<String>) -> Self {
        RuntimeError::Checkpoint {
            reason: reason.into(),
        }
    }
}

/// Result alias used by the runtime.
pub type RuntimeResult<T> = Result<T, RuntimeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offenders() {
        let err = RuntimeError::NotIncident {
            node: NodeId::new(3),
            edge: EdgeId::new(8),
        };
        assert!(err.to_string().contains("v3"));
        assert!(err.to_string().contains("e8"));
        assert!(RuntimeError::RoundBudgetExceeded { budget: 10 }
            .to_string()
            .contains("10"));
    }

    #[test]
    fn graph_errors_convert_and_chain() {
        let graph_err = freelunch_graph::GraphError::UnknownEdge {
            edge: EdgeId::new(1),
        };
        let err: RuntimeError = graph_err.clone().into();
        assert_eq!(err, RuntimeError::Graph(graph_err));
        assert!(err.source().is_some());
        assert!(RuntimeError::invalid_config("x").source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<RuntimeError>();
    }
}
