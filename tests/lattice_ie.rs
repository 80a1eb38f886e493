//! Differential test of the subset-lattice inclusion–exclusion evaluator.
//!
//! `count_clause` walks the `2^m` Lemma 3.5 terms in Gray-code
//! order and reuses component counts across the lattice;
//! `count_clause_per_term` is the reference nested-difference evaluation
//! that counts every term from scratch. This suite asserts the two are
//! bit-identical on randomized clauses across arities `k ∈ 1..=4` (reduced
//! clauses carry `m = C(k,2) ∈ {0, 1, 3, 6}` negated binary atoms, covering
//! every `m ∈ 0..=4` that a reduced clause can realize and more), every
//! degree class, serial and pooled worker configurations — and that the
//! whole engine agrees with itself, cache on vs off, in both `SkipMode`s.

use lowdeg_bench::workloads::{colored, degree_classes};
use lowdeg_core::counting::{count_clause, count_clause_per_term};
use lowdeg_core::enumerate::EdgeAdjacency;
use lowdeg_core::{ArtifactCache, Engine, EngineConfig, GraphClause, GraphQuery, SkipMode};
use lowdeg_index::Epsilon;
use lowdeg_logic::parse_query;
use lowdeg_par::ParConfig;
use lowdeg_storage::{RelId, Structure};
use proptest::prelude::*;

/// One randomized clause over the colored-graph signature: each position
/// gets a nonempty color conjunction drawn from `{B, R, G}`.
fn random_clause(s: &Structure, k: usize, seed: &mut u64) -> GraphClause {
    let unary: Vec<RelId> = ["B", "R", "G"]
        .iter()
        .filter_map(|name| s.signature().rel(name))
        .collect();
    let mut next = || {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    };
    let colors = (0..k)
        .map(|_| {
            let first = unary[next() as usize % unary.len()];
            let mut cs = vec![first];
            if next() % 3 == 0 {
                let second = unary[next() as usize % unary.len()];
                if second != first {
                    cs.push(second);
                }
            }
            cs
        })
        .collect();
    GraphClause { colors }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Lattice and per-term evaluation agree on every randomized clause,
    /// for every arity, degree class and worker configuration.
    #[test]
    fn lattice_matches_per_term(seed in 0u64..10_000, n in 12usize..28) {
        for (ci, class) in degree_classes().into_iter().enumerate() {
            let s = colored(n, class, seed.wrapping_add(ci as u64));
            let e = s.signature().rel("E").expect("colored graphs have E");
            let adjacency = EdgeAdjacency::build(&s, e);
            let mut clause_seed = seed ^ 0x5bd1_e995;
            for k in 1..=4usize {
                let clause = random_clause(&s, k, &mut clause_seed);
                let gq = GraphQuery { k, edge: e, clauses: vec![clause.clone()] };
                let reference = count_clause_per_term(&s, &gq, &clause, &adjacency);
                for par in [ParConfig::serial(), ParConfig::with_threads(2)] {
                    let lattice = count_clause(&s, &gq, &clause, &adjacency, &par, None);
                    prop_assert_eq!(
                        lattice, reference,
                        "k={} class#{} threads={:?}", k, ci, par
                    );
                }
            }
        }
    }

    /// Cache on vs off (cold and warm), across both skip modes: the engine
    /// count through the cached build path equals the uncached one.
    #[test]
    fn cached_engine_count_matches_uncached(seed in 0u64..10_000) {
        let s = colored(24, lowdeg_gen::DegreeClass::Bounded(3), seed);
        let q = parse_query(s.signature(), lowdeg_bench::workloads::TERNARY_SCATTER)
            .expect("ternary scatter parses");
        let eps = Epsilon::new(0.5);
        let par = ParConfig::serial();
        for mode in [SkipMode::Eager, SkipMode::Lazy] {
            let config = EngineConfig { skip_mode: mode, eps, ..EngineConfig::default() };
            let uncached = Engine::build_configured(&s, &q, &config, &par, None).unwrap();
            let cache = ArtifactCache::new();
            let cold = Engine::build_configured(&s, &q, &config, &par, Some(&cache)).unwrap();
            let warm = Engine::build_configured(&s, &q, &config, &par, Some(&cache)).unwrap();
            let (hits, _) = cache.stats();
            prop_assert!(hits > 0, "warm build must hit the cache");
            prop_assert_eq!(uncached.count(), cold.count(), "{:?} cold", mode);
            prop_assert_eq!(uncached.count(), warm.count(), "{:?} warm", mode);
        }
    }
}

/// The `total ≥ 0` invariant on the lattice path under heavy cancellation:
/// a clique of blues forces every inclusion–exclusion prefix to cancel to
/// exactly zero (each blue is adjacent to every other blue), and the lattice
/// sum must come out at 0, never wrap negative.
#[test]
fn lattice_total_nonnegative_under_full_cancellation() {
    use lowdeg_storage::{Node, Signature};
    use std::sync::Arc;
    let sig = Arc::new(Signature::new(&[("E", 2), ("B", 1)]));
    let e = sig.rel("E").unwrap();
    let b = sig.rel("B").unwrap();
    let n = 6usize;
    let mut builder = Structure::builder(sig, n);
    for i in 0..n as u32 {
        builder.fact(b, &[Node(i)]).unwrap();
        // reflexive clique: the self-loop rules out repeated-position
        // answers like (v, v, v), so cancellation is total
        for j in 0..n as u32 {
            builder.fact(e, &[Node(i), Node(j)]).unwrap();
        }
    }
    let s = builder.finish().unwrap();
    let adjacency = EdgeAdjacency::build(&s, e);
    // three mutually non-adjacent blues in a blue clique: none exist
    let clause = GraphClause {
        colors: vec![vec![b], vec![b], vec![b]],
    };
    let gq = GraphQuery {
        k: 3,
        edge: e,
        clauses: vec![clause.clone()],
    };
    let total = count_clause(&s, &gq, &clause, &adjacency, &ParConfig::serial(), None);
    assert_eq!(total, 0, "full cancellation must land exactly on zero");
    assert_eq!(
        total,
        count_clause_per_term(&s, &gq, &clause, &adjacency),
        "per-term path agrees at the cancellation boundary"
    );
}
