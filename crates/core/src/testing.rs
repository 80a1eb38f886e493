//! Testing membership of a tuple: Proposition 3.7 (Theorem 2.6).
//!
//! After the Proposition 3.3 preprocessing, `ā ∈ φ(A)` iff `f(ā) ∈ ψ(G)`.
//! Computing `f(ā)` takes `O(k²)` constant-time near-pair lookups, and
//! checking the quantifier-free `ψ` needs only unary-color and `E`-edge
//! fact tests — made constant-time by Corollary 2.2's [`FactIndex`] over
//! `G`.

use crate::reduction::Reduction;
use crate::EngineError;
use lowdeg_index::{Epsilon, FactIndex};
use lowdeg_logic::Query;
use lowdeg_par::ParConfig;
use lowdeg_storage::{Node, Structure};

/// The constant-time membership tester.
///
/// The default [`TestIndex::test`] path needs only the reduction's
/// clause table. The Corollary 2.2 [`FactIndex`] over `G` — used
/// by the literal Proposition 3.7 route — is built lazily on first use: its
/// preprocessing is dominated by `G`'s edge relation (`n·d^{h(q)}` tuples),
/// by far the most expensive single structure of the pipeline.
#[derive(Debug)]
pub struct TestIndex {
    reduction: Reduction,
    eps: Epsilon,
    facts: std::sync::OnceLock<FactIndex>,
}

impl TestIndex {
    /// Preprocess `structure` for `query` (pseudo-linear), with the thread
    /// count from `LOWDEG_THREADS`.
    pub fn build(structure: &Structure, query: &Query, eps: Epsilon) -> Result<Self, EngineError> {
        let reduction = Reduction::build(structure, query, eps, &ParConfig::from_env())?;
        Ok(Self::from_reduction(reduction, eps))
    }

    /// Wrap an existing reduction (shared with other stages).
    pub fn from_reduction(reduction: Reduction, eps: Epsilon) -> Self {
        TestIndex {
            reduction,
            eps,
            facts: std::sync::OnceLock::new(),
        }
    }

    fn facts(&self) -> &FactIndex {
        self.facts
            .get_or_init(|| FactIndex::build(self.reduction.graph(), self.eps))
    }

    /// Constant-time test `ā ∈ φ(A)`: `O(k²)` near-pair lookups for `f(ā)`
    /// plus a binary search of the clause table.
    pub fn test(&self, tuple: &[Node]) -> Result<bool, EngineError> {
        let fast = self.reduction.test_signature(tuple)?;
        debug_assert_eq!(
            fast,
            self.test_via_fact_index(tuple)?,
            "signature and fact-index paths must agree on {tuple:?}"
        );
        Ok(fast)
    }

    /// The literal Proposition 3.7 route: evaluate the quantifier-free `ψ`
    /// at `f(ā)` with Corollary 2.2 fact tests — `ψ₁` as pairwise `¬E`
    /// probes, `ψ₂` as a scan of the exclusive clauses. Semantically
    /// identical to [`TestIndex::test`]; kept for cross-validation and the
    /// E3 experiment (its cost carries the `|clauses|` factor, which is a
    /// function of the query and degree only).
    pub fn test_via_fact_index(&self, tuple: &[Node]) -> Result<bool, EngineError> {
        let v = self.reduction.forward(tuple)?;
        let facts = self.facts();
        // `E` is never stored as a relation (the CSR in the reduction core
        // is its only materialization), so the `ψ₁` probes go through the
        // shared adjacency; the color probes of `ψ₂` exercise the
        // independent fact-index route.
        let adjacency = self.reduction.adjacency();
        let gq = self.reduction.query();
        Ok(gq.accepts_with(adjacency, &v, |c, u| facts.holds(c, &[u])))
    }

    /// Access the underlying reduction.
    pub fn reduction(&self) -> &Reduction {
        &self.reduction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
    use lowdeg_logic::eval::check_naive;
    use lowdeg_logic::parse_query;

    fn check_case(seed: u64, src: &str) {
        let s = ColoredGraphSpec::balanced(16, DegreeClass::Bounded(3)).generate(seed);
        let q = parse_query(s.signature(), src).unwrap();
        let idx = TestIndex::build(&s, &q, Epsilon::new(0.5)).unwrap();
        let k = q.arity();
        let n = s.cardinality();
        let mut counter = vec![0usize; k];
        loop {
            let tuple: Vec<Node> = counter.iter().map(|&i| Node(i as u32)).collect();
            assert_eq!(
                idx.test(&tuple).unwrap(),
                check_naive(&s, &q, &tuple),
                "`{src}` on {tuple:?}"
            );
            let mut pos = k;
            loop {
                if pos == 0 {
                    return;
                }
                pos -= 1;
                counter[pos] += 1;
                if counter[pos] < n {
                    break;
                }
                counter[pos] = 0;
            }
        }
    }

    #[test]
    fn agrees_with_oracle_exhaustively() {
        check_case(1, "B(x) & R(y) & !E(x, y)");
        check_case(2, "exists z. E(x, z) & E(z, y)");
        check_case(3, "B(x) & !R(x)");
    }

    #[test]
    fn wrong_arity_rejected() {
        let s = ColoredGraphSpec::balanced(10, DegreeClass::Bounded(3)).generate(1);
        let q = parse_query(s.signature(), "B(x)").unwrap();
        let idx = TestIndex::build(&s, &q, Epsilon::new(0.5)).unwrap();
        assert!(matches!(
            idx.test(&[Node(0), Node(1)]),
            Err(EngineError::Arity { .. })
        ));
    }

    #[test]
    fn out_of_domain_rejected() {
        let s = ColoredGraphSpec::balanced(10, DegreeClass::Bounded(3)).generate(2);
        let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        let idx = TestIndex::build(&s, &q, Epsilon::new(0.5)).unwrap();
        assert!(matches!(
            idx.test(&[Node(0), Node(10)]),
            Err(EngineError::NodeOutOfDomain { node: 10, .. })
        ));
        // Engine::test maps the error to `false` rather than panicking
        let engine = crate::Engine::build(&s, &q, Epsilon::new(0.5)).unwrap();
        assert!(!engine.test(&[Node(0), Node(999)]));
        assert!(!engine.test(&[Node(0)]));
    }

    #[test]
    fn both_test_routes_agree_on_probes() {
        let s = ColoredGraphSpec::balanced(20, DegreeClass::Bounded(4)).generate(3);
        let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        let idx = TestIndex::build(&s, &q, Epsilon::new(0.5)).unwrap();
        for i in 0..20u32 {
            for j in 0..20u32 {
                let t = [Node(i), Node(j)];
                assert_eq!(
                    idx.test(&t).unwrap(),
                    idx.test_via_fact_index(&t).unwrap(),
                    "routes disagree on ({i},{j})"
                );
            }
        }
    }
}
