//! Error type for the omp4rs runtime API.

use std::fmt;

use crate::directive::DirectiveError;

/// Errors reported by the omp4rs runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OmpError {
    /// A directive string failed to parse or validate.
    Directive(DirectiveError),
    /// A clause argument that must be a compile-time constant in this mode
    /// (e.g. a chunk size in compiled mode) was not.
    NonConstantClause {
        /// The clause keyword.
        clause: &'static str,
        /// The offending expression text.
        expr: String,
    },
    /// A malformed loop description (zero step, no dimensions).
    InvalidLoop(String),
    /// A directive was used outside its required context (e.g. `section`
    /// outside `sections`, `ordered` in a loop without the `ordered` clause).
    InvalidContext(String),
    /// A `reduction(op: …)` named an undeclared custom reduction.
    UnknownReduction(String),
    /// The enclosing region was cancelled (`cancel` directive observed at a
    /// cancellation point).
    Cancelled(String),
    /// A team thread panicked and the region was poisoned: every barrier,
    /// `single`, `ordered`, and `taskwait` in the region was released so the
    /// surviving threads could exit cleanly instead of hanging.
    RegionPoisoned(String),
    /// The region deadline (`OMP4RS_REGION_DEADLINE` /
    /// `omp_set_region_deadline`) tripped: a blocking wait in the region
    /// exceeded its budget, the region was poisoned exactly like a panic (all
    /// waiters released, queued tasks discarded), and this error surfaces on
    /// the joining thread. Region deadlines are the runtime's one stall
    /// bound; without one, a wait that never completes blocks forever.
    RegionTimeout {
        /// The construct whose wait expired (`barrier`, `taskwait`,
        /// `critical`, `lock`, `region`, …).
        construct: &'static str,
        /// How long the region had been running when the deadline tripped.
        waited: std::time::Duration,
    },
}

impl fmt::Display for OmpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OmpError::Directive(e) => write!(f, "{e}"),
            OmpError::NonConstantClause { clause, expr } => {
                write!(
                    f,
                    "clause '{clause}' requires a constant here, got '{expr}'"
                )
            }
            OmpError::InvalidLoop(msg) => write!(f, "invalid parallel loop: {msg}"),
            OmpError::InvalidContext(msg) => write!(f, "invalid directive nesting: {msg}"),
            OmpError::UnknownReduction(name) => {
                write!(
                    f,
                    "unknown reduction identifier '{name}' (missing declare reduction?)"
                )
            }
            OmpError::Cancelled(what) => write!(f, "region cancelled: {what}"),
            OmpError::RegionPoisoned(why) => {
                write!(
                    f,
                    "parallel region poisoned by a panicking team thread: {why}"
                )
            }
            OmpError::RegionTimeout { construct, waited } => {
                write!(
                    f,
                    "region deadline exceeded after {waited:?} (blocked in {construct}); \
                     region poisoned"
                )
            }
        }
    }
}

impl std::error::Error for OmpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OmpError::Directive(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DirectiveError> for OmpError {
    fn from(e: DirectiveError) -> OmpError {
        OmpError::Directive(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = OmpError::from(crate::directive::Directive::parse("bogus").unwrap_err());
        assert!(e.to_string().contains("bogus"));
        let e = OmpError::NonConstantClause {
            clause: "schedule",
            expr: "n + 1".into(),
        };
        assert!(e.to_string().contains("schedule"));
        assert!(e.to_string().contains("n + 1"));
    }

    #[test]
    fn source_chains() {
        use std::error::Error;
        let e = OmpError::from(crate::directive::Directive::parse("bogus").unwrap_err());
        assert!(e.source().is_some());
        assert!(OmpError::InvalidLoop("x".into()).source().is_none());
    }
}
