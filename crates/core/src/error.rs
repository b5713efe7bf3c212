//! Error type of the query engine.

use std::fmt;

/// Errors surfaced by the query evaluation engine.
///
/// This is the workspace-wide error currency for fallible result paths:
/// the `no-panic-paths` lint rule pushes library code toward returning
/// `Result<_, RipqError>` instead of unwrapping.
#[derive(Debug, Clone, PartialEq)]
pub enum RipqError {
    /// A kNN query was registered with `k = 0`.
    ZeroK,
    /// A range query window has no positive area.
    EmptyWindow,
    /// A query id was not found among registered queries.
    UnknownQuery(u32),
    /// A PTkNN query was given a probability threshold outside `(0, 1]`.
    InvalidThreshold(f64),
    /// An object listed by an index was missing its probability entries —
    /// an internal inconsistency between index views.
    InconsistentIndex(u32),
    /// An input/output operation failed (e.g. writing a metrics snapshot
    /// to disk). Carries the rendered underlying error.
    Io(String),
    /// A continuous-query subscription id was registered twice.
    DuplicateSubscription(u64),
}

impl fmt::Display for RipqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RipqError::ZeroK => write!(f, "kNN query requires k >= 1"),
            RipqError::EmptyWindow => write!(f, "range query window has zero area"),
            RipqError::UnknownQuery(id) => write!(f, "unknown query id {id}"),
            RipqError::InvalidThreshold(t) => {
                write!(f, "PTkNN threshold must be in (0, 1], got {t}")
            }
            RipqError::InconsistentIndex(obj) => {
                write!(f, "index views disagree about object {obj}")
            }
            RipqError::Io(msg) => write!(f, "io error: {msg}"),
            RipqError::DuplicateSubscription(id) => {
                write!(f, "subscription id {id} is already registered")
            }
        }
    }
}

impl std::error::Error for RipqError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(RipqError::ZeroK.to_string().contains("k >= 1"));
        assert!(RipqError::UnknownQuery(7).to_string().contains('7'));
        assert!(RipqError::EmptyWindow.to_string().contains("zero area"));
        assert!(RipqError::InconsistentIndex(3).to_string().contains('3'));
        assert!(RipqError::Io("denied".into())
            .to_string()
            .contains("io error: denied"));
        assert!(RipqError::DuplicateSubscription(4)
            .to_string()
            .contains('4'));
    }
}
