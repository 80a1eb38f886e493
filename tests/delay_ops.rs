//! The constant-delay claim of Theorem 2.7, measured in RAM operations
//! instead of wall time: the worst per-output operation count of the
//! enumerator must not grow with `n` on a fixed degree class, while the
//! generate-and-test baseline's worst-case *false-hit run* does grow.

use lowdeg_core::enumerate::SkipMode;
use lowdeg_core::naive::GenerateAndTest;
use lowdeg_core::{Engine, EngineConfig};
use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
use lowdeg_index::Epsilon;
use lowdeg_logic::parse_query;
use lowdeg_par::ParConfig;
use lowdeg_storage::Node;

fn max_ops(n: usize, seed: u64, mode: SkipMode) -> (u64, usize) {
    let s = ColoredGraphSpec::balanced(n, DegreeClass::Bounded(5)).generate(seed);
    let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
    let engine = Engine::build_configured(
        &s,
        &q,
        &EngineConfig {
            skip_mode: mode,
            eps: Epsilon::new(0.5),
            ..EngineConfig::default()
        },
        &ParConfig::from_env(),
        None,
    )
    .unwrap();
    let mut worst = 0u64;
    let mut count = 0usize;
    for (t, ops) in engine.enumerate_with_ops() {
        assert_eq!(t.len(), 2);
        worst = worst.max(ops);
        count += 1;
    }
    assert_eq!(count as u64, engine.count());
    (worst, count)
}

#[test]
fn ops_delay_flat_in_n_eager() {
    // worst per-output ops at n and at 8n must be of the same order
    let (small, c1) = max_ops(256, 41, SkipMode::Eager);
    let (large, c2) = max_ops(2048, 42, SkipMode::Eager);
    assert!(c2 > c1, "larger instance should have more answers");
    assert!(
        large <= small.saturating_mul(4).max(200),
        "ops delay grew with n: {small} -> {large}"
    );
}

#[test]
fn ops_delay_flat_in_n_lazy_after_warmup() {
    // lazy mode pays first-touch walks but stays bounded overall because
    // walks are short (≤ |V|·d per miss)
    let (small, _) = max_ops(256, 43, SkipMode::Lazy);
    let (large, _) = max_ops(2048, 44, SkipMode::Lazy);
    assert!(
        large <= small.saturating_mul(6).max(400),
        "lazy ops delay exploded: {small} -> {large}"
    );
}

#[test]
fn naive_false_hit_runs_grow_with_n() {
    // the baseline's delay proxy: the longest run of candidate tuples
    // between two consecutive outputs in lexicographic generate-and-test
    let run_of = |n: usize, seed: u64| -> u64 {
        let s = ColoredGraphSpec::balanced(n, DegreeClass::Bounded(5)).generate(seed);
        let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        let mut last_index: u64 = 0;
        let mut worst: u64 = 0;
        for t in GenerateAndTest::new(&s, &q) {
            let idx = t[0].0 as u64 * n as u64 + t[1].0 as u64;
            worst = worst.max(idx - last_index);
            last_index = idx;
        }
        worst
    };
    let small = run_of(256, 45);
    let large = run_of(2048, 45);
    assert!(
        large >= small * 4,
        "expected the naive gap to grow with n: {small} -> {large}"
    );
}

#[test]
fn ops_accounting_is_consistent() {
    let s = ColoredGraphSpec::balanced(128, DegreeClass::Bounded(4)).generate(46);
    let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
    let engine = Engine::build(&s, &q, Epsilon::new(0.5)).unwrap();
    // the two iterators agree on the answers
    let plain: Vec<Vec<Node>> = engine.enumerate().collect();
    let with_ops: Vec<Vec<Node>> = engine.enumerate_with_ops().map(|(t, _)| t).collect();
    assert_eq!(plain, with_ops);
    // every output costs at least one operation
    assert!(engine.enumerate_with_ops().all(|(_, ops)| ops >= 1));
}
