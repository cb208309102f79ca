//! Error type of the design-space-exploration engine.

use std::error::Error;
use std::fmt;

use cimflow_arch::ArchError;
use cimflow_compiler::CompileError;
use cimflow_nn::NnError;
use cimflow_sim::SimError;

/// Any error produced while expanding or evaluating a sweep.
///
/// Point-level failures (an invalid architecture, a model that does not
/// fit, a simulation fault) are captured *per grid point* in
/// [`DseOutcome`](crate::DseOutcome) instead of aborting the sweep.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DseError {
    /// The architecture configuration of the point is invalid.
    Arch(ArchError),
    /// Compilation of the point failed.
    Compile(CompileError),
    /// Simulation of the point failed.
    Simulation(SimError),
    /// The sweep referenced a model the zoo does not know.
    UnknownModel {
        /// The unresolvable model name.
        name: String,
    },
    /// The zoo model cannot be built as requested (for example at too
    /// small an input resolution).
    Model(NnError),
    /// The sweep specification itself is unusable.
    Spec {
        /// Human-readable reason.
        reason: String,
    },
    /// Reading or writing a sweep artifact (spec, cache, export) failed.
    Io {
        /// Human-readable reason.
        reason: String,
    },
    /// The job was cancelled (or its service shut down) before it ran.
    Cancelled,
}

impl DseError {
    /// Creates a specification error.
    pub fn spec(reason: impl Into<String>) -> Self {
        DseError::Spec { reason: reason.into() }
    }

    /// Creates an I/O error.
    pub fn io(reason: impl Into<String>) -> Self {
        DseError::Io { reason: reason.into() }
    }
}

impl fmt::Display for DseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DseError::Arch(e) => write!(f, "architecture error: {e}"),
            DseError::Compile(e) => write!(f, "compilation error: {e}"),
            DseError::Simulation(e) => write!(f, "simulation error: {e}"),
            DseError::UnknownModel { name } => write!(f, "unknown benchmark model `{name}`"),
            DseError::Model(e) => write!(f, "model error: {e}"),
            DseError::Spec { reason } => write!(f, "invalid sweep specification: {reason}"),
            DseError::Io { reason } => write!(f, "sweep I/O error: {reason}"),
            DseError::Cancelled => write!(f, "evaluation cancelled before it ran"),
        }
    }
}

impl Error for DseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DseError::Arch(e) => Some(e),
            DseError::Compile(e) => Some(e),
            DseError::Simulation(e) => Some(e),
            DseError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArchError> for DseError {
    fn from(value: ArchError) -> Self {
        DseError::Arch(value)
    }
}

impl From<CompileError> for DseError {
    fn from(value: CompileError) -> Self {
        DseError::Compile(value)
    }
}

impl From<SimError> for DseError {
    fn from(value: SimError) -> Self {
        DseError::Simulation(value)
    }
}

/// A zoo lookup failure: unknown names stay [`DseError::UnknownModel`].
impl From<NnError> for DseError {
    fn from(value: NnError) -> Self {
        match value {
            NnError::UnknownModel { name } => DseError::UnknownModel { name },
            other => DseError::Model(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e: DseError = ArchError::invalid("chip.core_count", "must be positive").into();
        assert!(e.to_string().contains("architecture error"));
        assert!(e.source().is_some());
        let e = DseError::UnknownModel { name: "lenet".into() };
        assert!(e.to_string().contains("lenet"));
        assert!(e.source().is_none());
        assert!(DseError::spec("no axes").to_string().contains("no axes"));
    }
}
