//! Property-based agreement between the sharded parallel answer path and
//! the serial reference.
//!
//! `Engine::par_for_each_answer` / `par_count` / `par_enumerate` split
//! every clause's top-level candidate list into contiguous slices, run the
//! per-level skip machinery independently per slice on the `lowdeg-par`
//! pool, and stream the slices' answers in slice order. The contract (DESIGN §14) is
//! bit-identical *order*, not just the same set: at order-depth 0 the
//! forbidden set is empty, so the top level walks its sorted list strictly
//! sequentially and concatenating contiguous slices reproduces the serial
//! walk exactly. This suite asserts that — across all conformance query
//! shapes × the paper's degree classes × both skip modes — against a
//! forced 4-thread pool (`min_items` dropped to 1 so even tiny instances
//! exercise the sharded path), plus `first`, early `Break` (including at
//! the seam between the first and second slice), and restartability.

use lowdeg_bench::workloads::{colored, degree_classes};
use lowdeg_conformance::{QueryGen, ALL_SHAPES};
use lowdeg_core::{Engine, EngineConfig, SkipMode};
use lowdeg_index::Epsilon;
use lowdeg_logic::parse_query;
use lowdeg_par::ParConfig;
use lowdeg_storage::Node;
use proptest::prelude::*;
use std::ops::ControlFlow;

/// A 4-thread pool with the per-item threshold dropped to 1: every
/// instance, however small, goes down the sharded path.
fn forced() -> ParConfig {
    ParConfig::with_threads(4).min_items(1)
}

/// Collect up to `limit` answers of the parallel visitor.
fn par_prefix(engine: &Engine, par: &ParConfig, limit: usize) -> Vec<Vec<Node>> {
    let mut out = Vec::new();
    engine.par_for_each_answer(par, |t| {
        out.push(t.to_vec());
        if out.len() >= limit {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    out
}

/// Answers in the first slice the parallel path streams
/// (`Engine::answer_slices`). 0 for sentences.
fn first_slice_answers(engine: &Engine, par: &ParConfig) -> usize {
    let (Some(enumerator), Some(&(ci, lo, hi))) =
        (engine.enumerator(), engine.answer_slices(par).first())
    else {
        return 0;
    };
    let mut iter = enumerator.plans()[ci].iter_slice(enumerator.adjacency(), lo, hi);
    let mut n = 0;
    while iter.advance() {
        n += 1;
    }
    n
}

/// One full cross-check of the parallel path against the serial visitor.
fn check_parallel(engine: &Engine, src: &str, mode: SkipMode) -> Result<(), TestCaseError> {
    let par = forced();

    // serial reference
    let mut serial: Vec<Vec<Node>> = Vec::new();
    engine.for_each_answer(|t| {
        serial.push(t.to_vec());
        ControlFlow::Continue(())
    });

    // full parallel pass: bit-identical order, not just the same set
    let parallel = par_prefix(engine, &par, usize::MAX);
    prop_assert_eq!(&parallel, &serial, "`{}` order ({:?})", src, mode);

    // counts across all three routes
    prop_assert_eq!(
        engine.par_count(&par),
        serial.len() as u64,
        "`{}` par_count ({:?})",
        src,
        mode
    );
    prop_assert_eq!(
        engine.count(),
        serial.len() as u64,
        "`{}` count ({:?})",
        src,
        mode
    );

    // par_enumerate materializes the same sequence
    prop_assert_eq!(
        engine.par_enumerate(&par),
        serial.clone(),
        "`{}` par_enumerate ({:?})",
        src,
        mode
    );

    // first answer
    prop_assert_eq!(
        engine.first(),
        serial.first().cloned(),
        "`{}` first ({:?})",
        src,
        mode
    );

    // early Break yields the serial prefix, also right at the seam where
    // the stream passes from the first slice to the second
    let first_slice = first_slice_answers(engine, &par).max(1);
    for k in [
        1usize,
        2,
        first_slice,
        first_slice + 1,
        serial.len().saturating_sub(1).max(1),
    ] {
        let prefix = par_prefix(engine, &par, k);
        let want = &serial[..k.min(serial.len())];
        prop_assert_eq!(
            &prefix[..],
            want,
            "`{}` Break after {} ({:?})",
            src,
            k,
            mode
        );
    }

    // restartability: a second full parallel pass over the same engine
    let again = par_prefix(engine, &par, usize::MAX);
    prop_assert_eq!(&again, &serial, "`{}` restart ({:?})", src, mode);

    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All conformance query shapes × degree classes × skip modes: the
    /// sharded parallel path is observationally identical to serial.
    #[test]
    fn parallel_agrees_with_serial(seed in 0u64..500, n in 16usize..28) {
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
                    check_parallel(&engine, &src, mode)?;
                }
            }
        }
    }
}

/// A serial-width pool (or one below the item threshold) falls back to the
/// delay-accounted serial visitor — same answers through the same API.
#[test]
fn serial_pool_falls_back() {
    let s = colored(24, lowdeg_gen::DegreeClass::Bounded(3), 9);
    let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
    let engine = Engine::build_configured(
        &s,
        &q,
        &EngineConfig {
            skip_mode: SkipMode::Eager,
            eps: Epsilon::new(0.5),
            ..EngineConfig::default()
        },
        &ParConfig::from_env(),
        None,
    )
    .unwrap();
    let serial: Vec<Vec<Node>> = engine.enumerate().collect();
    for par in [ParConfig::serial(), ParConfig::with_threads(4)] {
        assert_eq!(engine.par_enumerate(&par), serial);
        assert_eq!(engine.par_count(&par), serial.len() as u64);
    }
}

/// Sentences answer through the parallel API too: one empty tuple when
/// true, none when false — via the serial fallback.
#[test]
fn sentence_parallel_fallback() {
    let s = colored(20, lowdeg_gen::DegreeClass::Bounded(3), 5);
    let q = parse_query(s.signature(), "exists x y. B(x) & R(y) & E(x, y)").unwrap();
    let engine = Engine::build(&s, &q, Epsilon::new(0.5)).unwrap();
    let serial: Vec<Vec<Node>> = engine.enumerate().collect();
    assert_eq!(engine.par_enumerate(&forced()), serial);
    assert_eq!(engine.par_count(&forced()), engine.count());
}
