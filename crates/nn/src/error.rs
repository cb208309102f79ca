use std::error::Error;
use std::fmt;

/// Errors raised while building, validating or serializing computation
/// graphs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NnError {
    /// An operator received an input tensor with an incompatible shape.
    ShapeMismatch {
        /// The operator (by name) that rejected its inputs.
        op: String,
        /// Human-readable description of the mismatch.
        reason: String,
    },
    /// A tensor or operator identifier does not exist in the graph.
    UnknownId {
        /// Description of the missing entity.
        what: String,
    },
    /// The graph contains a cycle or another structural defect.
    InvalidGraph {
        /// Human-readable description of the defect.
        reason: String,
    },
    /// A serialized model could not be parsed.
    ParseModel {
        /// Underlying parser message.
        reason: String,
    },
    /// The model zoo has no model of this name.
    UnknownModel {
        /// The requested name.
        name: String,
    },
    /// A zoo model cannot be built at the requested input resolution.
    Resolution {
        /// The model name.
        model: String,
        /// The requested input resolution in pixels.
        resolution: u32,
        /// The smallest input resolution the model builds at.
        min: u32,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::ShapeMismatch { op, reason } => {
                write!(f, "shape mismatch at operator `{op}`: {reason}")
            }
            NnError::UnknownId { what } => write!(f, "unknown identifier: {what}"),
            NnError::InvalidGraph { reason } => write!(f, "invalid computation graph: {reason}"),
            NnError::ParseModel { reason } => {
                write!(f, "failed to parse model description: {reason}")
            }
            NnError::UnknownModel { name } => write!(f, "unknown benchmark model `{name}`"),
            NnError::Resolution { model, resolution, min } => write!(
                f,
                "{model} cannot be built at input resolution {resolution} px (needs at least {min} px)"
            ),
        }
    }
}

impl Error for NnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NnError::ShapeMismatch { op: "conv1".into(), reason: "expected 4 dims".into() };
        assert!(e.to_string().contains("conv1"));
        let e = NnError::InvalidGraph { reason: "cycle detected".into() };
        assert!(e.to_string().contains("cycle"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }
}
