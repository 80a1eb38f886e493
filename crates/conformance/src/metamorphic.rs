//! Metamorphic oracles: semantics-preserving transformations of the
//! structure or the query must leave the answer set invariant (up to the
//! transformation itself).
//!
//! * **Isomorphic relabeling** — permuting the domain permutes every
//!   answer tuple componentwise and nothing else.
//! * **Isolated-vertex padding** — adding vertices with no facts cannot
//!   change the answers of a positively guarded query (every [`crate::querygen`]
//!   query guards each variable with a positive atom, so this holds by
//!   construction).
//! * **Rewrites** — `simplify`, double-negation NNF (De Morgan), and DNF
//!   reconstruction are semantics-preserving; checked against the naive
//!   evaluator through [`equivalent_naive`].

use crate::differential::Disagreement;
use crate::oracle::{Oracle, Verdict};
use lowdeg_core::Engine;
use lowdeg_index::Epsilon;
use lowdeg_logic::eval::{answers_naive, equivalent_naive};
use lowdeg_logic::transform::nnf;
use lowdeg_logic::{dnf, simplify, Formula, Query};
use lowdeg_storage::{Node, Structure};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Rebuild `s` with every node `i` renamed to `perm[i]`.
///
/// `perm` must be a permutation of `0..s.cardinality()`.
pub fn permute_structure(s: &Structure, perm: &[u32]) -> Structure {
    assert_eq!(perm.len(), s.cardinality(), "perm must cover the domain");
    let sig = s.signature().clone();
    let mut b = Structure::builder(sig.clone(), perm.len());
    let mut tuple = Vec::new();
    for rel in sig.rel_ids() {
        for t in s.relation(rel).iter() {
            tuple.clear();
            tuple.extend(t.iter().map(|n| Node(perm[n.index()])));
            b.fact(rel, &tuple).expect("permuted fact stays in range");
        }
    }
    b.finish().expect("non-empty domain")
}

/// Rebuild `s` with `extra` fresh isolated vertices appended to the domain.
pub fn pad_structure(s: &Structure, extra: usize) -> Structure {
    let sig = s.signature().clone();
    let mut b = Structure::builder(sig.clone(), s.cardinality() + extra);
    for rel in sig.rel_ids() {
        for t in s.relation(rel).iter() {
            b.fact(rel, t).expect("original fact stays in range");
        }
    }
    b.finish().expect("non-empty domain")
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn random_permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..i + 1);
        perm.swap(i, j);
    }
    perm
}

/// The metamorphic row: [`metamorphic_case`], padding as the case says.
pub const ORACLE: Oracle = Oracle {
    name: "metamorphic",
    check: |case, out| {
        let bad = metamorphic_case(case.s, case.q, case.seed, case.padding);
        out.bad.extend(bad);
        Verdict::Checked
    },
};

/// Run every metamorphic oracle on one pair. `seed` drives the random
/// permutation and the padding amount; `include_padding` gates the
/// padding oracle.
///
/// Padding invariance is sound only for positively guarded queries —
/// which every *generated* query is by construction, but a *shrunk*
/// witness query may have lost its guards (conjunct dropping keeps only
/// what the recorded failure needs). Replay therefore disables padding
/// unless the recorded failure was itself a padding failure; the
/// isomorphism and rewrite oracles are sound for arbitrary queries.
pub fn metamorphic_case(
    s: &Structure,
    q: &Query,
    seed: u64,
    include_padding: bool,
) -> Vec<Disagreement> {
    let mut bad = Vec::new();
    let oracle_set: BTreeSet<Vec<Node>> = answers_naive(s, q).into_iter().collect();

    isomorphism_check(s, q, seed, &oracle_set, &mut bad);
    if include_padding {
        padding_check(s, q, seed, &oracle_set, &mut bad);
    }
    rewrite_checks(s, q, &mut bad);
    bad
}

fn isomorphism_check(
    s: &Structure,
    q: &Query,
    seed: u64,
    oracle_set: &BTreeSet<Vec<Node>>,
    bad: &mut Vec<Disagreement>,
) {
    let perm = random_permutation(s.cardinality(), seed ^ 0x5151_5151);
    let s2 = permute_structure(s, &perm);
    let expected: BTreeSet<Vec<Node>> = oracle_set
        .iter()
        .map(|t| t.iter().map(|n| Node(perm[n.index()])).collect())
        .collect();

    // the naive evaluator must commute with the isomorphism...
    let naive2: BTreeSet<Vec<Node>> = answers_naive(&s2, q).into_iter().collect();
    if naive2 != expected {
        bad.push(Disagreement::new(
            "isomorphism-naive",
            format!(
                "naive answers not permutation-equivariant: {} vs {} tuples",
                naive2.len(),
                expected.len()
            ),
        ));
    }
    // ...and so must the engine, when it accepts the query on both sides
    if let (Ok(e1), Ok(e2)) = (
        Engine::build(s, q, Epsilon::default_eps()),
        Engine::build(&s2, q, Epsilon::default_eps()),
    ) {
        let got: BTreeSet<Vec<Node>> = e2.enumerate().collect();
        if got != expected {
            bad.push(Disagreement::new("isomorphism-engine", format!(
                    "engine answers not permutation-equivariant ({} vs {} tuples; original engine found {})",
                    got.len(),
                    expected.len(),
                    e1.count()
                )));
        }
    }
}

fn padding_check(
    s: &Structure,
    q: &Query,
    seed: u64,
    oracle_set: &BTreeSet<Vec<Node>>,
    bad: &mut Vec<Disagreement>,
) {
    let extra = 1 + (seed % 5) as usize;
    let padded = pad_structure(s, extra);
    let naive_p: BTreeSet<Vec<Node>> = answers_naive(&padded, q).into_iter().collect();
    if &naive_p != oracle_set {
        bad.push(Disagreement::new("padding-naive", format!(
                "padding with {extra} isolated vertices changed the naive answer set: {} vs {} tuples",
                naive_p.len(),
                oracle_set.len()
            )));
    }
    if let Ok(engine) = Engine::build(&padded, q, Epsilon::default_eps()) {
        let got: BTreeSet<Vec<Node>> = engine.enumerate().collect();
        if &got != oracle_set {
            bad.push(Disagreement::new("padding-engine", format!(
                    "padding with {extra} isolated vertices changed the engine answer set: {} vs {} tuples",
                    got.len(),
                    oracle_set.len()
                )));
        }
    }
}

fn rewrite_checks(s: &Structure, q: &Query, bad: &mut Vec<Disagreement>) {
    let mut rewrites: Vec<(&'static str, Formula)> = vec![
        ("simplify", simplify(&q.formula)),
        // one De Morgan round trip: ¬¬φ pushed back to NNF
        (
            "nnf-double-negation",
            nnf(&Formula::not(Formula::not(q.formula.clone()))),
        ),
    ];
    if q.formula.is_quantifier_free() {
        let disj = dnf::dnf(&q.formula).into_iter().map(|c| c.to_formula());
        rewrites.push(("dnf", Formula::or(disj)));
        let excl = dnf::exclusive_dnf(&q.formula)
            .into_iter()
            .map(|c| c.to_formula());
        rewrites.push(("exclusive-dnf", Formula::or(excl)));
    }

    for (name, rewritten) in rewrites {
        // a rewrite may collapse the formula so hard that free variables
        // disappear (e.g. to `false`); Query::new rejects those and the
        // check cannot apply — that is not a disagreement
        let Ok(q2) = Query::new(
            q.signature.clone(),
            rewritten.free_vars(),
            rewritten,
            q.vars.clone(),
        ) else {
            continue;
        };
        let same_free = {
            let mut a = q.free.clone();
            a.sort_unstable();
            a == q2.free
        };
        if !same_free {
            continue;
        }
        if !equivalent_naive(s, q, &q2) {
            bad.push(Disagreement::new(
                &format!("rewrite-{name}"),
                format!("`{name}` changed the answer set of a semantics-preserving rewrite"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
    use lowdeg_logic::parse_query;

    #[test]
    fn clean_pair_passes_all_oracles() {
        let s = ColoredGraphSpec::balanced(20, DegreeClass::Bounded(3)).generate(5);
        for src in [
            "B(x) & R(y) & !E(x, y)",
            "B(x) & (exists z. E(x, z) & R(z))",
            "(B(x) & R(y) & !E(x, y)) | (G(x) & B(y) & E(x, y))",
        ] {
            let q = parse_query(s.signature(), src).unwrap();
            let bad = metamorphic_case(&s, &q, 99, true);
            assert!(bad.is_empty(), "`{src}`: {bad:?}");
        }
    }

    #[test]
    fn permutation_helpers_are_sound() {
        let s = ColoredGraphSpec::balanced(15, DegreeClass::Bounded(3)).generate(6);
        let perm = random_permutation(15, 3);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..15).collect::<Vec<u32>>());
        let s2 = permute_structure(&s, &perm);
        assert_eq!(s2.cardinality(), s.cardinality());
        assert_eq!(s2.size(), s.size());
        // identity permutation is a no-op
        let id: Vec<u32> = (0..15).collect();
        assert_eq!(permute_structure(&s, &id), s);
    }

    #[test]
    fn padding_preserves_facts() {
        let s = ColoredGraphSpec::balanced(10, DegreeClass::Bounded(3)).generate(7);
        let p = pad_structure(&s, 4);
        assert_eq!(p.cardinality(), 14);
        // ||A|| counts the domain, so padding grows it by exactly `extra`
        assert_eq!(p.size(), s.size() + 4);
    }

    #[test]
    fn unguarded_query_breaks_padding_as_expected() {
        // control: `!B(x)` is NOT padding-safe — new isolated vertices are
        // not blue, so they enter the answer set. The oracle must notice.
        let s = ColoredGraphSpec::balanced(10, DegreeClass::Bounded(3)).generate(8);
        let q = parse_query(s.signature(), "!B(x)").unwrap();
        let before = answers_naive(&s, &q).len();
        let after = answers_naive(&pad_structure(&s, 3), &q).len();
        assert_eq!(after, before + 3);
    }
}
