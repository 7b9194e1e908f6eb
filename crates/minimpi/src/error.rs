//! Typed communication failures.

use std::time::Duration;

/// A failed point-to-point or collective operation.
///
/// The blocking API (`send`, `recv`, `allgather`, …) keeps MPI's classic
/// contract — a lost peer is a panic or a hang. The `_timeout` variants
/// return this error instead, so a hybrid computation can detect a dead or
/// partitioned rank and degrade gracefully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// No matching message arrived from `peer` within the deadline.
    Timeout {
        /// Rank the receive was matching against.
        peer: usize,
        /// Message tag the receive was matching against.
        tag: u64,
        /// How long the operation waited before giving up.
        waited: Duration,
    },
    /// The peer's rank has exited and its channel endpoint is gone.
    Disconnected {
        /// Rank whose endpoint disappeared.
        peer: usize,
        /// Message tag of the failed operation.
        tag: u64,
    },
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::Timeout { peer, tag, waited } => write!(
                f,
                "timed out after {waited:?} waiting for rank {peer} (tag {tag})"
            ),
            MpiError::Disconnected { peer, tag } => {
                write!(f, "rank {peer} has exited (tag {tag})")
            }
        }
    }
}

impl std::error::Error for MpiError {}
