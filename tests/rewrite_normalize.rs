//! Property-based rewrite-invariance suite for the query normalizer
//! (DESIGN.md §15): for random formulas, `normalize` must preserve the
//! query's meaning — same answer set under the naive oracle, positionally
//! aligned columns — and be a *canonical* form: idempotent, with a
//! fingerprint that is invariant across handwritten rewrite variants.
//! At the engine level, building the original and building the normal
//! form must be observably identical (bit-identical counts, enumeration
//! order, and per-clause plan statistics), which is what lets the
//! workload planner substitute one for the other.

use lowdeg_conformance::oracle::plan_stats;
use lowdeg_core::{Engine, EngineConfig};
use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
use lowdeg_index::Epsilon;
use lowdeg_logic::eval::answers_naive;
use lowdeg_logic::{normalize, parse_query, DistCmp, Formula, Query, Var, VarAlloc};
use lowdeg_par::ParConfig;
use lowdeg_storage::{Node, Signature, Structure};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

fn signature() -> Arc<Signature> {
    Arc::new(Signature::new(&[("E", 2), ("B", 1), ("R", 1), ("G", 1)]))
}

/// Random formulas over four fixed variables `x0..x3` (mirrors
/// `prop_formulas.rs`).
fn formula_strategy(depth: u32, allow_quantifiers: bool) -> BoxedStrategy<Formula> {
    let sig = signature();
    let e = sig.rel("E").unwrap();
    let unaries = [
        sig.rel("B").unwrap(),
        sig.rel("R").unwrap(),
        sig.rel("G").unwrap(),
    ];
    let var = (0u32..4).prop_map(Var);
    let leaf = prop_oneof![
        Just(Formula::True),
        Just(Formula::False),
        (var.clone(), var.clone()).prop_map(move |(x, y)| Formula::Atom {
            rel: e,
            args: vec![x, y]
        }),
        (0usize..3, var.clone()).prop_map(move |(i, x)| Formula::Atom {
            rel: unaries[i],
            args: vec![x]
        }),
        (var.clone(), var.clone()).prop_map(|(x, y)| Formula::Eq(x, y)),
        (var.clone(), var.clone(), 0usize..3, any::<bool>()).prop_map(|(x, y, r, le)| {
            Formula::Dist {
                x,
                y,
                cmp: if le {
                    DistCmp::LessEq
                } else {
                    DistCmp::Greater
                },
                r,
            }
        }),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let inner = formula_strategy(depth - 1, allow_quantifiers);
    let mut options = vec![
        leaf.boxed(),
        inner.clone().prop_map(Formula::not).boxed(),
        prop::collection::vec(formula_strategy(depth - 1, allow_quantifiers), 1..3)
            .prop_map(Formula::and)
            .boxed(),
        prop::collection::vec(formula_strategy(depth - 1, allow_quantifiers), 1..3)
            .prop_map(Formula::or)
            .boxed(),
    ];
    if allow_quantifiers {
        options.push(
            (0u32..4, inner)
                .prop_map(|(v, f)| Formula::exists(vec![Var(v)], f))
                .boxed(),
        );
    }
    prop::strategy::Union::new(options).boxed()
}

fn var_alloc() -> VarAlloc {
    let mut a = VarAlloc::new();
    for name in ["x0", "x1", "x2", "x3"] {
        a.named(name);
    }
    a
}

fn tiny_structure(seed: u64) -> Structure {
    ColoredGraphSpec::balanced(7, DegreeClass::Bounded(3)).generate(seed)
}

/// Build a query from a raw formula, or `None` when it fails the
/// well-formedness checks (not every random formula is a query).
fn as_query(f: &Formula) -> Option<Query> {
    Query::new(signature(), f.free_vars(), f.clone(), var_alloc()).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The normal form answers exactly like the original under the naive
    /// oracle: same tuples, same column order (free variables canonicalize
    /// positionally, so no permutation is needed).
    #[test]
    fn normalize_preserves_answers(f in formula_strategy(2, true), seed in 0u64..20) {
        let Some(q) = as_query(&f) else { return Ok(()) };
        let s = tiny_structure(seed);
        let nf = normalize(&q);
        prop_assert_eq!(nf.query.arity(), q.arity());
        let want: BTreeSet<Vec<Node>> = answers_naive(&s, &q).into_iter().collect();
        let got: BTreeSet<Vec<Node>> = answers_naive(&s, &nf.query).into_iter().collect();
        prop_assert_eq!(want, got);
    }

    /// Normalization is idempotent: the normal form is its own normal
    /// form, and the fingerprint is stable across the round trip.
    #[test]
    fn normalize_is_idempotent(f in formula_strategy(2, true)) {
        let Some(q) = as_query(&f) else { return Ok(()) };
        let nf = normalize(&q);
        let again = normalize(&nf.query);
        prop_assert_eq!(&again.query.formula, &nf.query.formula);
        prop_assert_eq!(again.fingerprint, nf.fingerprint);
    }

    /// Engine invariance: when the engine accepts the query, the default
    /// normalizing build and the normalization-free build agree on the
    /// count and answer set, and building the original vs building its
    /// normal form directly is bit-identical — count, enumeration order,
    /// and per-clause plan statistics.
    #[test]
    fn engine_agrees_with_and_without_normalization(
        f in formula_strategy(2, false),
        seed in 0u64..10,
    ) {
        let Some(q) = as_query(&f) else { return Ok(()) };
        if q.arity() == 0 { return Ok(()) }
        let s = tiny_structure(seed);
        let par = ParConfig::serial();
        let norm_cfg = EngineConfig { eps: Epsilon::new(0.5), ..EngineConfig::default() };
        let raw_cfg = EngineConfig { normalize: false, ..norm_cfg };
        let Ok(normed) = Engine::build_configured(&s, &q, &norm_cfg, &par, None) else {
            return Ok(()); // rejection is covered by the conformance suite
        };
        // the raw build may reject what the normal form localizes (and the
        // fallback covers the converse), so only compare when both build
        if let Ok(raw) = Engine::build_configured(&s, &q, &raw_cfg, &par, None) {
            prop_assert_eq!(normed.count(), raw.count());
            let a: BTreeSet<Vec<Node>> = normed.enumerate().collect();
            let b: BTreeSet<Vec<Node>> = raw.enumerate().collect();
            prop_assert_eq!(a, b);
        }
        // building the normal form *as written* is the same build
        let nf = normalize(&q);
        let direct = Engine::build_configured(&s, &nf.query, &norm_cfg, &par, None)
            .expect("the normal form just built");
        prop_assert_eq!(normed.count(), direct.count());
        let a: Vec<Vec<Node>> = normed.enumerate().collect();
        let b: Vec<Vec<Node>> = direct.enumerate().collect();
        prop_assert_eq!(a, b, "enumeration order must be bit-identical");
        prop_assert_eq!(
            normed.enumerator().map(plan_stats),
            direct.enumerator().map(plan_stats),
            "plan stats must be bit-identical"
        );
    }
}

/// Non-proptest anchor: handwritten rewrite variants of the standing
/// corpus land on one fingerprint and produce bit-identical engines.
#[test]
fn corpus_variants_share_fingerprint_and_engine() {
    let s = ColoredGraphSpec::balanced(30, DegreeClass::Bounded(3)).generate(5);
    let families: &[&[&str]] = &[
        &[
            "B(x) & R(y) & !E(x, y)",
            "B(x) & !E(x, y) & R(y)",
            "B(x) & !!R(y) & !E(x, y)",
        ],
        &[
            "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)",
            "B(x) & R(y) & G(z) & !E(x, z) & !E(y, z) & !E(x, y)",
            "!E(x, y) & !E(y, z) & !E(x, z) & B(x) & R(y) & G(z)",
        ],
        &["exists z. E(x, z) & E(z, y)", "exists w. E(x, w) & E(w, y)"],
    ];
    let par = ParConfig::serial();
    let config = EngineConfig {
        eps: Epsilon::new(0.5),
        ..EngineConfig::default()
    };
    for family in families {
        let queries: Vec<Query> = family
            .iter()
            .map(|src| parse_query(s.signature(), src).unwrap())
            .collect();
        let base_fp = normalize(&queries[0]).fingerprint;
        let base = Engine::build_configured(&s, &queries[0], &config, &par, None).unwrap();
        let base_answers: Vec<Vec<Node>> = base.enumerate().collect();
        let base_stats = base.enumerator().map(plan_stats);
        for (src, q) in family.iter().zip(&queries).skip(1) {
            assert_eq!(
                normalize(q).fingerprint,
                base_fp,
                "`{src}` left the rewrite class"
            );
            let e = Engine::build_configured(&s, q, &config, &par, None).unwrap();
            assert_eq!(e.count(), base.count(), "`{src}` count");
            let answers: Vec<Vec<Node>> = e.enumerate().collect();
            assert_eq!(answers, base_answers, "`{src}` order");
            assert_eq!(e.enumerator().map(plan_stats), base_stats, "`{src}` stats");
        }
    }
}
