//! Property-based agreement between the streaming answer path and the
//! boxed-iterator API.
//!
//! `Engine::for_each_answer` / `for_each_answer_with_ops` drive the
//! allocation-free cursor; `enumerate` is a cloning adapter over the same
//! core. This suite asserts — across all conformance query shapes × the
//! paper's degree classes × both skip modes — that the two paths agree on
//! answers and order, that both streaming visitors emit the same
//! sequence, that `first()` short-circuits to the streaming head, and that
//! the streaming delays stay flat (no per-answer term that could hide an
//! allocation or a rescan in the emission loop).

use lowdeg_bench::workloads::{colored, degree_classes};
use lowdeg_conformance::{QueryGen, ALL_SHAPES};
use lowdeg_core::{Engine, EngineConfig, SkipMode};
use lowdeg_index::Epsilon;
use lowdeg_logic::parse_query;
use lowdeg_par::ParConfig;
use lowdeg_storage::Node;
use proptest::prelude::*;
use std::ops::ControlFlow;

/// Per-mode worst-delay allowances at the tiny sizes this suite runs.
/// Deliberately generous — growth *in n* is the tier-1 `delay_ops` gate's
/// job; this absolute cap only catches a pathological per-answer rescan
/// (which would cost `Ω(n)` ≫ these bounds even at `n < 28`). Multi-clause
/// shapes (disjunctions) pay clause-exhaustion carry on top of the
/// single-clause floors, hence the headroom.
fn delay_floor(mode: SkipMode) -> u64 {
    match mode {
        SkipMode::Eager | SkipMode::EagerForce => 1_000,
        SkipMode::Lazy => 2_000,
    }
}

/// One full cross-check of streaming vs boxed for a built engine.
fn check_agreement(engine: &Engine, src: &str, mode: SkipMode) -> Result<(), TestCaseError> {
    // boxed side
    let boxed: Vec<Vec<Node>> = engine.enumerate().collect();

    // streaming side: the delay-accounted visitor collects both
    let mut streamed: Vec<Vec<Node>> = Vec::new();
    let mut delays: Vec<u64> = Vec::new();
    engine.for_each_answer_with_ops(|t, d| {
        streamed.push(t.to_vec());
        delays.push(d);
        ControlFlow::Continue(())
    });
    prop_assert_eq!(&streamed, &boxed, "`{}` answers/order ({:?})", src, mode);

    // the plain visitor emits the same sequence
    let mut plain: Vec<Vec<Node>> = Vec::new();
    engine.for_each_answer(|t| {
        plain.push(t.to_vec());
        ControlFlow::Continue(())
    });
    prop_assert_eq!(&plain, &streamed, "`{}` visitor order ({:?})", src, mode);

    // count agreement across all three routes
    prop_assert_eq!(
        engine.count(),
        streamed.len() as u64,
        "`{}` count ({:?})",
        src,
        mode
    );

    // first() short-circuits to the streaming head
    prop_assert_eq!(
        engine.first(),
        streamed.first().cloned(),
        "`{}` first ({:?})",
        src,
        mode
    );

    // ControlFlow::Break stops the traversal immediately
    let mut seen = 0usize;
    engine.for_each_answer(|_| {
        seen += 1;
        ControlFlow::Break(())
    });
    prop_assert_eq!(seen, streamed.len().min(1), "`{}` break ({:?})", src, mode);

    // flat delays: the emission loop must not accumulate per-answer cost
    // (the tier-1 delay gate checks growth in n; here we check the
    // absolute allowance at tiny n)
    if let Some(&worst) = delays.iter().max() {
        prop_assert!(
            worst <= delay_floor(mode),
            "`{}` worst delay {} exceeds {} ({:?})",
            src,
            worst,
            delay_floor(mode),
            mode
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All conformance query shapes × degree classes × skip modes: the
    /// streaming and boxed paths are observationally identical.
    #[test]
    fn streaming_agrees_with_boxed(seed in 0u64..500, n in 16usize..28) {
        let shapes = ALL_SHAPES;
        let mut qg = QueryGen::new(seed);
        for (ci, class) in degree_classes().into_iter().enumerate() {
            let s = colored(n, class, seed.wrapping_add(ci as u64));
            for shape in shapes {
                let src = qg.generate(shape);
                let q = parse_query(s.signature(), &src).expect("generated query parses");
                for mode in [SkipMode::Eager, SkipMode::Lazy] {
                    // engines may legitimately reject (non-localizable);
                    // that is a skip, not a failure
                    let config = EngineConfig {
                        skip_mode: mode,
                        eps: Epsilon::new(0.5),
                        ..EngineConfig::default()
                    };
                    let par = ParConfig::from_env();
                    let Ok(engine) = Engine::build_configured(&s, &q, &config, &par, None)
                    else {
                        continue;
                    };
                    check_agreement(&engine, &src, mode)?;
                }
            }
        }
    }
}

/// The streaming cursor is restartable: two passes over the same engine
/// produce identical answers and delays (no hidden state leaks between
/// traversals).
#[test]
fn streaming_is_restartable() {
    let s = colored(24, lowdeg_gen::DegreeClass::Bounded(3), 9);
    let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
    let engine = Engine::build_configured(
        &s,
        &q,
        &EngineConfig {
            skip_mode: SkipMode::Lazy,
            eps: Epsilon::new(0.5),
            ..EngineConfig::default()
        },
        &ParConfig::from_env(),
        None,
    )
    .unwrap();
    let collect = || {
        let mut out: Vec<(Vec<Node>, u64)> = Vec::new();
        engine.for_each_answer_with_ops(|t, d| {
            out.push((t.to_vec(), d));
            ControlFlow::Continue(())
        });
        out
    };
    let a = collect();
    let b = collect();
    assert_eq!(a, b);
    assert!(!a.is_empty());
}

/// Sentences stream too: one empty answer when true, none when false.
#[test]
fn sentence_streaming() {
    let s = colored(20, lowdeg_gen::DegreeClass::Bounded(3), 5);
    for (src, _label) in [
        ("exists x y. B(x) & R(y) & E(x, y)", "maybe"),
        ("exists x. B(x) & R(x)", "maybe"),
    ] {
        let q = parse_query(s.signature(), src).unwrap();
        let engine = Engine::build(&s, &q, Epsilon::new(0.5)).unwrap();
        let mut streamed: Vec<Vec<Node>> = Vec::new();
        engine.for_each_answer(|t| {
            streamed.push(t.to_vec());
            ControlFlow::Continue(())
        });
        let boxed: Vec<Vec<Node>> = engine.enumerate().collect();
        assert_eq!(streamed, boxed, "`{src}`");
        assert_eq!(streamed.len() as u64, engine.count(), "`{src}`");
        if let Some(t) = streamed.first() {
            assert!(t.is_empty(), "`{src}` sentence answers are empty tuples");
        }
    }
}
