//! # lowdeg-locality
//!
//! Gaifman-locality machinery for the `lowdeg` engine — the substrate behind
//! Step 1 of Proposition 3.3 and behind Theorem 2.4 (Grohe's pseudo-linear
//! model checking on low-degree classes):
//!
//! * [`radius`] — *certified locality radii*: syntactic rules proving that a
//!   formula's truth at `ā` is determined by the induced neighborhood
//!   `𝒩_r(ā)`, so it can be evaluated by brute force on that (small)
//!   substructure.
//! * [`scattered`] — evaluation of *scattered sentences*
//!   `∃ȳ (clusters ∧ cross-constraints)`, the shape Gaifman's basic-local
//!   sentences take; solved exactly by the classic large-set/small-set
//!   dichotomy (greedy when witness sets are large, bounded branching when
//!   small).
//! * [`localize()`] — the constructive localization pass: rewrites a supported
//!   FO fragment into an equivalent formula that is `r`-local around its
//!   free variables, evaluating extracted closed parts on the way (the paper
//!   replaces basic-local sentences by `true`/`false` — Step 1 verbatim).
//! * [`types`] — canonical forms of small structures with distinguished
//!   tuples; the type ids realize the Feferman–Vaught color sets `C_{P,j,t}`
//!   of Step 3 (see DESIGN.md §3).
//!
//! The unsupported remainder of FO (formulas whose quantified variables
//! relate to free variables only through negated atoms) is rejected with
//! [`LocalizeError::NotLocalizable`]; see DESIGN.md for the rationale — the
//! fully general Gaifman transformation is non-elementary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod localize;
pub mod radius;
pub mod scattered;
pub mod types;

pub use error::LocalizeError;
pub use localize::{localize, model_check, LocalQuery};
pub use radius::{certified_radius, implied_links};
pub use scattered::{check_scattered, Cluster, CrossConstraint, CrossKind, ScatteredSentence};
pub use types::{KeyView, TypeId};

use lowdeg_logic::eval::Assignment;
use lowdeg_storage::{Node, Structure};

/// Evaluate an `r`-local formula at `tuple` by restricting to the induced
/// `r`-neighborhood of the tuple — sound whenever `radius` is a certified
/// locality radius of `matrix` (see [`radius::certified_radius`]).
///
/// Cost is brute force *within the neighborhood* only:
/// `O(|N_r(ā)|^{quantifier rank})`, i.e. `d^{h(|φ|)}` — never a factor `n`.
pub fn eval_local(
    structure: &Structure,
    matrix: &lowdeg_logic::Formula,
    free: &[lowdeg_logic::Var],
    radius: usize,
    tuple: &[Node],
) -> bool {
    debug_assert_eq!(free.len(), tuple.len());
    let nb = structure.neighborhood_of_tuple(tuple, radius);
    let mut asg = Assignment::default();
    for (&v, &a) in free.iter().zip(tuple) {
        let local = nb
            .to_local(a)
            .expect("tuple components are in their own neighborhood");
        asg.bind(v, local);
    }
    lowdeg_logic::eval::eval(nb.structure(), matrix, &mut asg)
}
