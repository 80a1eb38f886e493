//! End-to-end integration tests: the full pipeline (localize → reduce →
//! count / test / enumerate) cross-checked against the naive oracle on a
//! corpus of queries covering every normal-form branch, over randomized
//! structures from several degree classes.

use lowdeg_core::enumerate::SkipMode;
use lowdeg_core::{Engine, EngineConfig};
use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
use lowdeg_index::Epsilon;
use lowdeg_logic::eval::{answers_naive, model_check_naive};
use lowdeg_logic::parse_query;
use lowdeg_par::ParConfig;
use lowdeg_storage::{Node, Structure};
use std::collections::BTreeSet;

/// The query corpus: every supported normal-form shape.
const CORPUS: &[&str] = &[
    // quantifier-free, the running example and variants
    "B(x) & R(y) & !E(x, y)",
    "B(x) & !R(x)",
    "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)",
    "(B(x) | G(x)) & R(y) & !E(x, y)",
    "B(x) & R(y) & x != y",
    // distance guards
    "B(x) & R(y) & dist(x, y) > 2",
    "B(x) & R(y) & dist(x, y) <= 2",
    // existential quantification (connected)
    "exists z. E(x, z) & E(z, y)",
    "exists z. E(x, z) & R(z)",
    "exists z w. E(x, z) & E(z, w) & B(w)",
    // universal quantification via duality
    "forall z. E(x, z) -> B(z)",
    "R(x) & (forall y. dist(x, y) > 1 | !B(y))",
    // far-witness rewrites (single dist> link to the outer scope)
    "R(x) & exists z. B(z) & dist(z, x) > 2",
    "exists z. dist(z, x) > 3",
    // closed subformulas (evaluated during localization)
    "B(x) & exists u v. E(u, v) & R(u)",
    "R(x) & exists u v. B(u) & B(v) & dist(u, v) > 3",
    // equalities and mixed shapes
    "B(x) & x = y",
    "exists z. E(x, z) & E(z, y) & B(z) & x != y",
];

fn check_query(structure: &Structure, src: &str, mode: SkipMode) {
    let q = parse_query(structure.signature(), src).expect("corpus parses");
    let oracle = answers_naive(structure, &q);
    let oracle_set: BTreeSet<Vec<Node>> = oracle.iter().cloned().collect();

    let engine = match Engine::build_configured(
        structure,
        &q,
        &EngineConfig {
            skip_mode: mode,
            eps: Epsilon::new(0.5),
            ..EngineConfig::default()
        },
        &ParConfig::from_env(),
        None,
    ) {
        Ok(e) => e,
        Err(e) => panic!("`{src}` failed to build: {e}"),
    };

    // Thm 2.5
    assert_eq!(engine.count(), oracle.len() as u64, "`{src}` count");

    // Thm 2.7: set equality and no duplicates
    let got: Vec<Vec<Node>> = engine.enumerate().collect();
    let got_set: BTreeSet<Vec<Node>> = got.iter().cloned().collect();
    assert_eq!(got.len(), got_set.len(), "`{src}` emitted duplicates");
    assert_eq!(got_set, oracle_set, "`{src}` answer set");

    // Thm 2.6: positives and a sample of negatives
    for t in oracle.iter().take(50) {
        assert!(engine.test(t), "`{src}` test should accept {t:?}");
    }
    let n = structure.cardinality();
    let k = q.arity();
    if k > 0 {
        let mut misses = 0;
        'outer: for i in 0..n {
            for j in 0..n {
                let t: Vec<Node> = (0..k).map(|p| Node(((i + j * p) % n) as u32)).collect();
                if !oracle_set.contains(&t) {
                    assert!(!engine.test(&t), "`{src}` test should reject {t:?}");
                    misses += 1;
                    if misses > 40 {
                        break 'outer;
                    }
                }
            }
        }
    }
}

#[test]
fn corpus_on_bounded_degree() {
    for seed in [11u64, 12] {
        let s = ColoredGraphSpec::balanced(26, DegreeClass::Bounded(3)).generate(seed);
        for src in CORPUS {
            check_query(&s, src, SkipMode::Eager);
        }
    }
}

#[test]
fn corpus_lazy_skip_mode() {
    let s = ColoredGraphSpec::balanced(26, DegreeClass::Bounded(3)).generate(13);
    for src in CORPUS {
        check_query(&s, src, SkipMode::Lazy);
    }
}

#[test]
fn corpus_forced_eager_skip_mode() {
    // unconditionally builds the paper's E_k + skip table
    let s = ColoredGraphSpec::balanced(22, DegreeClass::Bounded(3)).generate(19);
    for src in CORPUS {
        check_query(&s, src, SkipMode::EagerForce);
    }
}

#[test]
fn corpus_on_higher_degree() {
    // Degree well above the threshold that forces actual skipping. Only the
    // low-radius/low-arity fragment: at degree 7 on 30 nodes every
    // neighborhood of radius ≥ 2 covers the whole structure, so the
    // d^{h(q)} factors of the reduction degenerate to n^k (the paper's
    // "hidden constants" — see EXPERIMENTS.md); the remaining corpus
    // entries are exercised on genuinely low-degree instances above.
    let s = ColoredGraphSpec::balanced(30, DegreeClass::Bounded(7)).generate(14);
    for src in [
        "B(x) & R(y) & !E(x, y)",
        "B(x) & !R(x)",
        "(B(x) | G(x)) & R(y) & !E(x, y)",
        "B(x) & R(y) & x != y",
        "exists z. E(x, z) & R(z)",
        "forall z. E(x, z) -> B(z)",
        "B(x) & exists u v. E(u, v) & R(u)",
        "B(x) & x = y",
    ] {
        check_query(&s, src, SkipMode::Eager);
    }
}

#[test]
fn corpus_on_sparse_colors() {
    let spec = ColoredGraphSpec {
        n: 32,
        degree: DegreeClass::Bounded(4),
        blue: 0.08,
        red: 0.85,
        green: 0.02,
    };
    let s = spec.generate(15);
    for src in CORPUS {
        check_query(&s, src, SkipMode::Eager);
    }
}

#[test]
fn sentences_against_oracle() {
    let sentences = [
        "exists x y. E(x, y) & B(x) & R(y)",
        "exists x. B(x) & R(x) & G(x)",
        "exists x y. B(x) & B(y) & dist(x, y) > 4",
        "exists x y z. B(x) & B(y) & B(z) & dist(x, y) > 2 & dist(y, z) > 2 & dist(x, z) > 2",
        "forall x. B(x) -> (exists y. dist(y, x) <= 1 & E(x, y))",
    ];
    for seed in [21u64, 22, 23] {
        let s = ColoredGraphSpec::balanced(24, DegreeClass::Bounded(3)).generate(seed);
        for src in sentences {
            let q = parse_query(s.signature(), src).expect("parses");
            let expected = model_check_naive(&s, &q);
            assert_eq!(
                Engine::model_check(&s, &q).expect("localizable"),
                expected,
                "`{src}` seed {seed}"
            );
        }
    }
}

#[test]
fn padded_clique_pipeline() {
    // the §2.3 class: low degree but not nowhere dense
    use lowdeg_storage::Signature;
    use std::sync::Arc;
    let base = lowdeg_gen::padded_clique(5, 40);
    // recolor into the colored signature: clique nodes blue, padding red
    let sig = Arc::new(Signature::new(&[("E", 2), ("B", 1), ("R", 1), ("G", 1)]));
    let e = sig.rel("E").unwrap();
    let b = sig.rel("B").unwrap();
    let r = sig.rel("R").unwrap();
    let mut builder = Structure::builder(sig, 40);
    let base_e = base.signature().rel("E").unwrap();
    for t in base.relation(base_e).iter() {
        builder.fact(e, t).unwrap();
    }
    for i in 0..40u32 {
        builder.fact(if i < 5 { b } else { r }, &[Node(i)]).unwrap();
    }
    let s = builder.finish().unwrap();
    for src in [
        "B(x) & R(y) & !E(x, y)",
        "B(x) & B(y) & !E(x, y)",
        "exists z. E(x, z) & E(z, y)",
    ] {
        check_query(&s, src, SkipMode::Eager);
    }
}
