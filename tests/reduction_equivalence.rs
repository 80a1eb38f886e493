//! Differential suite for the radix-built Prop 3.3 assembly (DESIGN.md
//! §13): `Reduction::build` — sorted/partitioned batch passes
//! over near-pairs and cluster tuples, arithmetic block layout, no
//! per-vertex hash interning — must be observationally identical to
//! `Reduction::build_reference`, the retained per-vertex construction.
//!
//! Equality is asserted on the `CoreDigest`: cluster tuples and their type
//! ids, the colored graph's content fingerprint, an order-sensitive hash
//! of the full vertex-level `E`-adjacency (streamed — materializing the
//! rows peaked at tens of GB on dense LogPower ternary instances), the
//! Step 5 acceptance sets, and the clause count.
//! Two builds that agree on a digest answer every engine query
//! identically. Each type's representative — rebuilt from the exact
//! neighborhood key, never from a neighborhood `Structure` — must also
//! equal `neighborhood_of_tuple` of the type's first tuple, with the same
//! local tuple: Step 5 evaluates on those representatives. The sweep covers the standing query corpus (binary,
//! quantified, ternary) × the paper's degree classes × pool
//! configurations (serial, forced-parallel, process default) × seeds; the
//! CI thread matrix additionally runs the binary under
//! `LOWDEG_THREADS ∈ {1, 0}` so `from_env` covers both ends.
//!
//! Sizes reach n = 384 for every query shape, including the quantified
//! one. (An earlier revision capped `TWO_HOP` at n ≤ 64: the Step 5
//! acceptance pass re-resolved the worker configuration — an
//! `available_parallelism` syscall — on every cached Gaifman lookup and
//! re-extracted a Gaifman graph per type combination, which made the
//! radius-1 suites super-linear in practice. Step 5 now evaluates each
//! combination on a borrowed view of its representatives (`UnionView`,
//! checked against an explicit union by `step5_union_view`), reading only
//! their cached Gaifman graphs, so the pass is linear in the realized
//! combination count.)

use lowdeg_bench::workloads::{
    colored, colored_padded_clique, degree_classes, RUNNING_EXAMPLE, TERNARY_SCATTER, TWO_HOP,
};
use lowdeg_core::reduction::{CoreDigest, DEFAULT_COMBINATION_BUDGET};
use lowdeg_core::Reduction;
use lowdeg_index::Epsilon;
use lowdeg_logic::parse_query;
use lowdeg_par::ParConfig;
use lowdeg_storage::Structure;

const EPS: f64 = 0.5;

/// The pool configurations under test: genuinely serial, forced parallel
/// (pool engaged even on tiny inputs), and the process default.
fn pools() -> Vec<ParConfig> {
    vec![
        ParConfig::serial(),
        ParConfig::with_threads(4).min_items(1),
        ParConfig::from_env(),
    ]
}

/// Assert the radix-assembled reduction equals the reference digest for
/// one (structure, query, pool) combination.
fn assert_equivalent(s: &Structure, src: &str, par: &ParConfig, label: &str) {
    let q = parse_query(s.signature(), src).expect("query parses");
    let eps = Epsilon::new(EPS);
    let t = std::time::Instant::now();
    let radix = Reduction::build(s, &q, eps, par).expect("radix build");
    let radix_dt = t.elapsed();
    let t = std::time::Instant::now();
    let reference = Reduction::build_reference(s, &q, eps, DEFAULT_COMBINATION_BUDGET, par)
        .expect("reference build");
    eprintln!(
        "{label}: `{src}` radix {radix_dt:?} reference {:?}",
        t.elapsed()
    );
    let digest = radix.core_digest();
    assert_eq!(digest, reference.core_digest(), "{label}: `{src}`");
    assert_representatives(s, &radix, &digest, &format!("{label}: `{src}`"));
}

/// Every type's representative, rebuilt from the exact neighborhood key of
/// the type's first tuple, is that tuple's neighborhood — the structure
/// and the local tuple `neighborhood_of_tuple` gives.
fn assert_representatives(s: &Structure, red: &Reduction, digest: &CoreDigest, label: &str) {
    let mut seen = vec![
        false;
        digest
            .tuple_types
            .iter()
            .max()
            .map_or(0, |&t| t as usize + 1)
    ];
    for (t, &ty) in digest.tuples.iter().zip(&digest.tuple_types) {
        if std::mem::replace(&mut seen[ty as usize], true) {
            continue;
        }
        let (rep, local) = red.type_representative(ty);
        let nb = s.neighborhood_of_tuple(t, red.radius());
        assert!(rep == nb.structure(), "{label}: type {ty} representative");
        assert_eq!(
            Some(local.to_vec()),
            nb.tuple_to_local(t),
            "{label}: type {ty} tuple"
        );
    }
    assert!(
        seen.iter().all(|&s| s),
        "{label}: every type id is realized"
    );
}

#[test]
fn degree_class_sweep_matches_reference() {
    // All three query shapes — binary, quantified (radius 1), ternary —
    // across every degree class and pool. n = 128 was unaffordable for the
    // quantified shape before the Step 5 acceptance-pass fix; it now costs
    // the same order as the quantifier-free shapes on the bounded and poly
    // classes. LogPower(1.0) keeps genuinely large radius-1 balls (degree
    // ~log n), so its quantified cell is inherently the most expensive
    // build in the suite — it runs once (one seed, serial pool) rather
    // than across the full seed × pool matrix, which costs minutes under
    // the debug-assertion test profile without adding digest coverage
    // (pool-independence is asserted separately below).
    for class in degree_classes() {
        let quantified_is_heavy = matches!(class, lowdeg_gen::DegreeClass::LogPower(_));
        for seed in [3, 11] {
            let s = colored(128, class, seed);
            for src in [RUNNING_EXAMPLE, TWO_HOP, TERNARY_SCATTER] {
                for (pi, par) in pools().iter().enumerate() {
                    if src == TWO_HOP && quantified_is_heavy && (seed != 3 || pi != 0) {
                        continue;
                    }
                    assert_equivalent(&s, src, par, &format!("{class:?} seed {seed} pool {pi}"));
                }
            }
        }
    }
}

#[test]
fn bounded_degree_scales_match_reference() {
    // Bounded(2) is the bench class; sweep sizes so block layouts cross
    // their thresholds. The quantified shape rides along since the Step 5
    // fix made it scale like the quantifier-free ones.
    for n in [48, 130, 384] {
        let s = colored(n, lowdeg_gen::DegreeClass::Bounded(2), 1400 + n as u64);
        for src in [RUNNING_EXAMPLE, TWO_HOP, TERNARY_SCATTER] {
            for (pi, par) in pools().iter().enumerate() {
                assert_equivalent(&s, src, par, &format!("bounded(2) n {n} pool {pi}"));
            }
        }
    }
}

#[test]
fn padded_clique_matches_reference() {
    // Low degree but not nowhere dense (§2.3): the clique forces dense
    // near-pair neighborhoods through the radix partitioner.
    let small = colored_padded_clique(64);
    for src in [RUNNING_EXAMPLE, TWO_HOP, TERNARY_SCATTER] {
        assert_equivalent(&small, src, &ParConfig::serial(), "clique n 64");
    }
    let large = colored_padded_clique(200);
    for src in [RUNNING_EXAMPLE, TERNARY_SCATTER] {
        assert_equivalent(&large, src, &ParConfig::serial(), "clique n 200");
    }
}

#[test]
fn parallel_pools_agree_with_serial_digest() {
    // Transitivity check made explicit: every pool's radix digest equals
    // the *serial* radix digest (not just its own reference).
    let s = colored(128, lowdeg_gen::DegreeClass::Bounded(4), 7);
    for src in [RUNNING_EXAMPLE, TWO_HOP, TERNARY_SCATTER] {
        let q = parse_query(s.signature(), src).expect("query parses");
        let eps = Epsilon::new(EPS);
        let serial = Reduction::build(&s, &q, eps, &ParConfig::serial()).expect("serial build");
        for par in pools() {
            let other = Reduction::build(&s, &q, eps, &par).expect("pool build");
            assert_eq!(
                serial.core_digest(),
                other.core_digest(),
                "pool-independent digest for `{src}`"
            );
        }
    }
}
