use std::error::Error;
use std::fmt;

use cimflow_isa::IsaError;
use cimflow_nn::NnError;

/// Errors raised by the compilation flow.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CompileError {
    /// The workload cannot fit the architecture even after partitioning:
    /// one replica of a single operator group needs more cores than the
    /// chip has, for its weight bytes or for its macro-group tiles.
    CapacityExceeded {
        /// The offending operator group.
        group: String,
        /// Cores one replica of the group needs (the larger of the
        /// weight-byte and the macro-group bound).
        required_cores: u32,
        /// Cores on the chip.
        available_cores: u32,
        /// Weight bytes required by the group.
        required_bytes: u64,
        /// CIM weight capacity of the chip in bytes.
        available_bytes: u64,
    },
    /// The model contains no MVM-based operator to map onto the CIM arrays.
    EmptyWorkload,
    /// A structural defect in the input model.
    Model(NnError),
    /// Code generation produced an ill-formed instruction sequence.
    Codegen(IsaError),
    /// Generated code failed the compiler's own validation pass.
    ValidationFailed {
        /// Human-readable description of the failed check.
        reason: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::CapacityExceeded {
                group,
                required_cores,
                available_cores,
                required_bytes,
                available_bytes,
            } => write!(
                f,
                "operator group `{group}` needs {required_cores} cores ({required_bytes} weight \
                 bytes) but the chip has {available_cores} ({available_bytes} bytes)"
            ),
            CompileError::EmptyWorkload => {
                write!(f, "the model contains no MVM-based operator to map onto CIM arrays")
            }
            CompileError::Model(e) => write!(f, "invalid input model: {e}"),
            CompileError::Codegen(e) => write!(f, "code generation failed: {e}"),
            CompileError::ValidationFailed { reason } => {
                write!(f, "generated code failed validation: {reason}")
            }
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::Model(e) => Some(e),
            CompileError::Codegen(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for CompileError {
    fn from(value: NnError) -> Self {
        CompileError::Model(value)
    }
}

impl From<IsaError> for CompileError {
    fn from(value: IsaError) -> Self {
        CompileError::Codegen(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CompileError::CapacityExceeded {
            group: "fc1".into(),
            required_cores: 2048,
            available_cores: 64,
            required_bytes: 1 << 30,
            available_bytes: 1 << 25,
        };
        assert!(e.to_string().contains("fc1"));
        assert!(e.source().is_none());

        let wrapped: CompileError = NnError::InvalidGraph { reason: "cycle".into() }.into();
        assert!(wrapped.source().is_some());
        let wrapped: CompileError = IsaError::UnknownOpcode { opcode: 63 }.into();
        assert!(wrapped.to_string().contains("code generation"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompileError>();
    }
}
