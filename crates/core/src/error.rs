//! Engine error type.

use lowdeg_locality::LocalizeError;
use std::fmt;

/// Errors raised while building or using an [`crate::Engine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The query is outside the localizable fragment (see DESIGN.md §3);
    /// the naive oracle in [`crate::naive`] still evaluates it.
    Localize(LocalizeError),
    /// A tuple of the wrong arity was passed to a k-ary operation.
    Arity {
        /// Query arity.
        expected: usize,
        /// Tuple length.
        got: usize,
    },
    /// A tuple component lies outside the database domain.
    NodeOutOfDomain {
        /// The offending node id.
        node: u32,
        /// The domain size.
        domain: usize,
    },
    /// The type-combination table exceeded the configured expansion budget
    /// (the `|T_P|` blow-up of Proposition 3.3 is non-elementary in general).
    CombinationBudget {
        /// Number of combinations that would be needed.
        needed: u64,
        /// Configured budget.
        budget: u64,
    },
    /// The exact answer count does not fit the `u64` that
    /// [`crate::Engine::count`] returns (or an inclusion–exclusion term
    /// overflowed the 128-bit arithmetic it is computed in).
    CountOverflow,
    /// The query is a sentence (no free variables). Proposition 3.3's
    /// reduction needs arity ≥ 1; decide a sentence with
    /// [`crate::Engine::model_check`] (an [`crate::Engine`] build does).
    Sentence,
    /// An internal invariant failed, e.g. an inclusion–exclusion sum came
    /// out negative. Never input-reachable in a correct engine; reported
    /// instead of a clamped result.
    Internal(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Localize(e) => write!(f, "{e}"),
            EngineError::Arity { expected, got } => {
                write!(f, "expected a {expected}-tuple, got {got} components")
            }
            EngineError::NodeOutOfDomain { node, domain } => {
                write!(f, "node {node} outside the domain of size {domain}")
            }
            EngineError::CombinationBudget { needed, budget } => write!(
                f,
                "type-combination table needs {needed} entries, budget is {budget}"
            ),
            EngineError::CountOverflow => {
                write!(f, "the answer count does not fit in 64 bits")
            }
            EngineError::Sentence => write!(
                f,
                "the query is a sentence; the reduction needs at least one free variable"
            ),
            EngineError::Internal(what) => write!(f, "internal error: {what}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<LocalizeError> for EngineError {
    fn from(e: LocalizeError) -> Self {
        EngineError::Localize(e)
    }
}
