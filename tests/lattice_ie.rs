//! Differential tests of Lemma 3.5 counting.
//!
//! `count_graph_query` counts every clause of a reduced query in one
//! batched pass (one lattice per query, jobs deduplicated across clauses,
//! grouped anchored walks), here also over queries of one clause.
//! `count_clause_per_term` is the reference nested-difference evaluation
//! that counts every term from scratch. This suite asserts they are
//! bit-identical: on single randomized clauses across arities `k ∈ 1..=4`
//! (reduced clauses carry `m = C(k,2) ∈ {0, 1, 3, 6}` negated binary
//! atoms), every degree class, serial and pooled worker configurations,
//! with one candidate-list table (`PositionMemo`) shared by every clause
//! counted over a graph, as an engine build shares it; on whole random
//! queries of up to 64 clauses over shared and overlapping color sets, on
//! both adjacency forms, with and without a counting memo; and that the
//! whole engine agrees with itself, cache on vs off, in both `SkipMode`s.

use lowdeg_bench::workloads::{colored, degree_classes};
use lowdeg_core::counting::{count_clause_per_term, count_graph_query, CountingMemo};
use lowdeg_core::enumerate::EdgeAdjacency;
use lowdeg_core::{
    ArtifactCache, Engine, EngineConfig, GraphQuery, PositionMemo, Reduction, SkipMode,
};
use lowdeg_gen::DegreeClass;
use lowdeg_index::Epsilon;
use lowdeg_logic::parse_query;
use lowdeg_par::ParConfig;
use lowdeg_storage::{Node, RelId, Signature, Structure};
use proptest::prelude::*;
use std::sync::Arc;

/// A linear congruential step: the next draw of a seeded stream.
fn next(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

/// One randomized clause over the colored-graph signature: each position
/// gets a nonempty color conjunction drawn from `{B, R, G}`.
fn random_clause(s: &Structure, k: usize, seed: &mut u64) -> Vec<Vec<RelId>> {
    let unary: Vec<RelId> = ["B", "R", "G"]
        .iter()
        .filter_map(|name| s.signature().rel(name))
        .collect();
    (0..k)
        .map(|_| {
            let first = unary[next(seed) as usize % unary.len()];
            let mut cs = vec![first];
            if next(seed).is_multiple_of(3) {
                let second = unary[next(seed) as usize % unary.len()];
                if second != first {
                    cs.push(second);
                }
            }
            cs
        })
        .collect()
}

/// `s` plus `extra` isolated vertices carrying a fresh color `D`, the
/// first of them also `B`: a `{D}` position's list has no `E`-neighbours,
/// and `{B}` overlaps `{B, D}`.
fn with_isolated_color(s: &Structure, extra: usize) -> Structure {
    let old = s.signature();
    let mut rels: Vec<(String, usize)> = old
        .rel_ids()
        .map(|r| (old.name(r).to_owned(), old.arity(r)))
        .collect();
    rels.push(("D".into(), 1));
    let sig = Arc::new(Signature::new(&rels));
    let n = s.cardinality();
    let mut builder = Structure::builder(Arc::clone(&sig), n + extra);
    for r in old.rel_ids() {
        let to = sig.rel(old.name(r)).expect("copied relation");
        for t in s.relation(r).iter() {
            builder.fact(to, t).expect("in range");
        }
    }
    let d = sig.rel("D").expect("D");
    for v in n..n + extra {
        builder.fact(d, &[Node(v as u32)]).expect("in range");
    }
    let b = sig.rel("B").expect("B");
    builder.fact(b, &[Node(n as u32)]).expect("in range");
    builder.finish().expect("valid structure")
}

/// A `k`-ary query of `clauses` clauses, each position's colors drawn
/// from `pool`, so clauses share color sets (and job groups form).
fn random_query(
    edge: RelId,
    pool: &[Vec<RelId>],
    k: usize,
    clauses: usize,
    seed: &mut u64,
) -> GraphQuery {
    let clauses: Vec<Vec<Vec<RelId>>> = (0..clauses)
        .map(|_| {
            (0..k)
                .map(|_| pool[next(seed) as usize % pool.len()].clone())
                .collect()
        })
        .collect();
    GraphQuery::from_clauses(k, edge, &clauses)
}

/// `count_graph_query` against the sum of per-term clause counts, on a
/// serial and a forced 4-thread pool, with the memo off, on, and warm.
fn batched_matches_per_term(
    s: &Structure,
    adjacency: &EdgeAdjacency,
    gq: &GraphQuery,
    what: &str,
) -> Result<(), TestCaseError> {
    let want: u64 = (0..gq.clause_count())
        .map(|c| count_clause_per_term(s, gq, c, adjacency))
        .sum();
    let forced = ParConfig::with_threads(4).min_items(1);
    for par in [ParConfig::serial(), forced] {
        let positions = PositionMemo::new();
        let plain = count_graph_query(s, gq, adjacency, &par, None, None, &positions);
        prop_assert_eq!(
            plain,
            Ok(want),
            "{} memo off, threads {}",
            what,
            par.threads()
        );
        let memo = CountingMemo::new();
        for pass in ["cold", "warm"] {
            let got = count_graph_query(s, gq, adjacency, &par, Some(&memo), None, &positions);
            prop_assert_eq!(
                got,
                Ok(want),
                "{} memo {}, threads {}",
                what,
                pass,
                par.threads()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The batched pass over a one-clause query and the per-term
    /// evaluation agree on every randomized clause, for every arity, degree
    /// class and worker configuration; the batched pass reads one
    /// candidate-list table across all clauses of a graph.
    #[test]
    fn lattice_matches_per_term(seed in 0u64..10_000, n in 12usize..28) {
        for (ci, class) in degree_classes().into_iter().enumerate() {
            let s = colored(n, class, seed.wrapping_add(ci as u64));
            let e = s.signature().rel("E").expect("colored graphs have E");
            let adjacency = EdgeAdjacency::build(&s, e);
            let positions = PositionMemo::new();
            let mut clause_seed = seed ^ 0x5bd1_e995;
            for k in 1..=4usize {
                let clause = random_clause(&s, k, &mut clause_seed);
                let gq = GraphQuery::from_clauses(k, e, &[clause]);
                let reference = count_clause_per_term(&s, &gq, 0, &adjacency);
                for par in [ParConfig::serial(), ParConfig::with_threads(2)] {
                    let lattice =
                        count_graph_query(&s, &gq, &adjacency, &par, None, None, &positions);
                    prop_assert_eq!(
                        lattice, Ok(reference),
                        "k={} class#{} threads={:?}", k, ci, par
                    );
                }
            }
        }
    }

    /// The batched pass over whole random queries — 1 to 64 clauses over
    /// shared and overlapping color sets, one of them on vertices without
    /// `E`-neighbours — equals the per-term sum, for `k ∈ 1..=4`, on CSR
    /// adjacency and on a reduction's block adjacency.
    #[test]
    fn query_count_matches_per_term_sum(seed in 0u64..10_000, n in 12usize..24) {
        let mut draws = seed ^ 0x9e37_79b9;
        // CSR: a colored graph plus isolated `D` vertices
        for (ci, class) in degree_classes().into_iter().enumerate() {
            let s = with_isolated_color(&colored(n, class, seed.wrapping_add(ci as u64)), 3);
            let sig = s.signature();
            let e = sig.rel("E").expect("colored graphs have E");
            let adjacency = EdgeAdjacency::build(&s, e);
            let color = |names: &[&str]| -> Vec<RelId> {
                names.iter().map(|c| sig.rel(c).expect("color")).collect()
            };
            let pool = [
                color(&["B"]), color(&["R"]), color(&["G"]), color(&["D"]),
                color(&["B", "R"]), color(&["B", "D"]), color(&["R", "G"]),
            ];
            for k in 1..=4usize {
                let clauses = 1 + next(&mut draws) as usize % 64;
                let gq = random_query(e, &pool, k, clauses, &mut draws);
                batched_matches_per_term(&s, &adjacency, &gq, &format!("csr class#{ci} k={k}"))?;
            }
        }
        // Blocks: the reduced colored graph of the two-hop query, whose
        // `C_⊥` dummy has no `E`-neighbours
        let s = colored(n, DegreeClass::Bounded(2), seed);
        let q = parse_query(s.signature(), lowdeg_bench::workloads::TWO_HOP).expect("parses");
        let reduction = Reduction::build(&s, &q, Epsilon::default_eps(), &ParConfig::serial())
            .expect("two-hop reduces");
        let (graph, adjacency) = (reduction.graph(), reduction.adjacency());
        let sig = graph.signature();
        let unary: Vec<RelId> = sig.rel_ids().filter(|&r| sig.arity(r) == 1).collect();
        let bot = sig.rel("Cbot").expect("the dummy color");
        let mut pool: Vec<Vec<RelId>> = vec![vec![bot]];
        for _ in 0..6 {
            let a = unary[next(&mut draws) as usize % unary.len()];
            let b = unary[next(&mut draws) as usize % unary.len()];
            pool.push(vec![a]);
            pool.push(vec![a, b]);
        }
        let e = sig.rel("E").expect("reduced graphs have E");
        for k in 1..=4usize {
            let clauses = 1 + next(&mut draws) as usize % 64;
            let gq = random_query(e, &pool, k, clauses, &mut draws);
            batched_matches_per_term(graph, adjacency, &gq, &format!("blocks k={k}"))?;
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

/// The `total ≥ 0` invariant on the batched pass under heavy cancellation:
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
    let gq = GraphQuery::from_clauses(3, e, &[vec![vec![b], vec![b], vec![b]]]);
    let positions = PositionMemo::new();
    let total = count_graph_query(
        &s,
        &gq,
        &adjacency,
        &ParConfig::serial(),
        None,
        None,
        &positions,
    )
    .expect("exact");
    assert_eq!(total, 0, "full cancellation must land exactly on zero");
    assert_eq!(
        total,
        count_clause_per_term(&s, &gq, 0, &adjacency),
        "per-term path agrees at the cancellation boundary"
    );
}
