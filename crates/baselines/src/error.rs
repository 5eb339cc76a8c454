//! Error type of the baselines crate.

use std::error::Error;
use std::fmt;

/// Errors raised by the baseline algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BaselineError {
    /// A parameter violates the algorithm's requirements.
    InvalidParameter {
        /// Description of the violated requirement.
        reason: String,
    },
    /// An error surfaced from the graph substrate.
    Graph(freelunch_graph::GraphError),
    /// An error surfaced from the core crate.
    Core(freelunch_core::CoreError),
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::InvalidParameter { reason } => write!(f, "invalid parameter: {reason}"),
            BaselineError::Graph(err) => write!(f, "graph error: {err}"),
            BaselineError::Core(err) => write!(f, "core error: {err}"),
        }
    }
}

impl Error for BaselineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BaselineError::Graph(err) => Some(err),
            BaselineError::Core(err) => Some(err),
            BaselineError::InvalidParameter { .. } => None,
        }
    }
}

impl From<freelunch_graph::GraphError> for BaselineError {
    fn from(err: freelunch_graph::GraphError) -> Self {
        BaselineError::Graph(err)
    }
}

impl From<freelunch_core::CoreError> for BaselineError {
    fn from(err: freelunch_core::CoreError) -> Self {
        BaselineError::Core(err)
    }
}

impl BaselineError {
    /// Convenience constructor for [`BaselineError::InvalidParameter`].
    pub(crate) fn invalid_parameter(reason: impl Into<String>) -> Self {
        BaselineError::InvalidParameter {
            reason: reason.into(),
        }
    }
}

/// Result alias used by the baselines crate.
pub type BaselineResult<T> = Result<T, BaselineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let err = BaselineError::invalid_parameter("k must be positive");
        assert!(err.to_string().contains("k must be positive"));
        let graph: BaselineError = freelunch_graph::GraphError::invalid_parameter("x").into();
        assert!(graph.source().is_some());
        let core: BaselineError = freelunch_core::CoreError::invalid_parameter("y").into();
        assert!(core.source().is_some());
    }
}
