use std::error::Error;
use std::fmt;

/// Errors raised by the cycle-level simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// No core can make progress but not every core has halted.
    Deadlock {
        /// Cores blocked on a receive with no matching message.
        blocked_on_recv: Vec<u32>,
        /// Cores waiting at a barrier.
        blocked_on_barrier: Vec<u32>,
    },
    /// The compiled program references a core outside the architecture.
    InvalidCore {
        /// The offending core identifier.
        core: u32,
    },
    /// A safety limit on simulated cycles was exceeded (runaway program).
    CycleLimitExceeded {
        /// The limit that was hit.
        limit: u64,
    },
    /// A design point cannot replay a recorded trace: its configuration
    /// is invalid or differs in a compile-affecting field. The caller
    /// should fall back to a full compile + simulation — the replay
    /// engine never approximates.
    TraceMismatch {
        /// What was incompatible.
        detail: String,
    },
    /// A serving-mode workload is unusable: invalid rate or mix, an
    /// unreadable arrival-trace file, or co-located models that do not
    /// share a clock frequency.
    Traffic {
        /// What was wrong with the workload.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { blocked_on_recv, blocked_on_barrier } => write!(
                f,
                "simulation dead-locked: {} cores blocked on recv, {} on barriers",
                blocked_on_recv.len(),
                blocked_on_barrier.len()
            ),
            SimError::InvalidCore { core } => {
                write!(f, "program references nonexistent core {core}")
            }
            SimError::CycleLimitExceeded { limit } => {
                write!(f, "simulation exceeded the cycle limit of {limit}")
            }
            SimError::TraceMismatch { detail } => {
                write!(f, "design point cannot replay the recorded trace: {detail}")
            }
            SimError::Traffic { detail } => {
                write!(f, "serving workload rejected: {detail}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::Deadlock { blocked_on_recv: vec![1, 2], blocked_on_barrier: vec![] };
        assert!(e.to_string().contains("2 cores blocked on recv"));
        assert!(SimError::CycleLimitExceeded { limit: 10 }.to_string().contains("10"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
