//! Lemma 3.5 batched-pass row.
//!
//! The engine counts a reduced query with `count_graph_query`: all its
//! clauses in one batched pass (one inclusion–exclusion lattice per query,
//! jobs deduplicated across clauses, grouped anchored walks). Its
//! reference is `count_clause_per_term`, which evaluates one clause by
//! nested inclusion–exclusion differences, counting every term's positive
//! part from scratch. Reduced clauses start with every position pair
//! negated (`m = k(k−1)/2` inclusion–exclusion atoms), which makes each
//! case negative-heavy by construction: half the lattice terms enter the
//! sum with a minus sign, exercising the signed accumulation.
//!
//! This row builds the reduction for each case, sums the per-term clause
//! counts, and compares that sum with the batched pass over the whole
//! reduced query on a serial and a forced-parallel pool, with the counting
//! memo off and on.

use crate::oracle::{forced_parallel, Oracle, Verdict};
use lowdeg_core::counting::{count_clause_per_term, count_graph_query, CountingMemo};
use lowdeg_core::{PositionMemo, Reduction};
use lowdeg_index::Epsilon;
use lowdeg_par::ParConfig;

/// The batched-pass row.
pub const ORACLE: Oracle = Oracle {
    name: "latticecheck",
    check: |case, out| {
        if case.q.arity() == 0 {
            return Verdict::Skipped; // sentences have no reduction
        }
        let eps = Epsilon::default_eps();
        let Ok(reduction) = Reduction::build(case.s, case.q, eps, &ParConfig::from_env()) else {
            return Verdict::Skipped; // rejection is the differential row's business
        };
        let (graph, gq, adjacency) = (reduction.graph(), reduction.query(), reduction.adjacency());
        let (serial, parallel) = (ParConfig::serial(), forced_parallel());
        let per_term: u128 = (0..gq.clause_count())
            .map(|clause| u128::from(count_clause_per_term(graph, gq, clause, adjacency)))
            .sum();

        // the engine's batched pass over the whole query
        let want = u64::try_from(per_term).map_err(|_| "count overflow".to_string());
        for (tag, par) in [("serial", &serial), ("parallel", &parallel)] {
            for memo in [None, Some(CountingMemo::new())] {
                let positions = PositionMemo::new();
                let got =
                    count_graph_query(graph, gq, adjacency, par, memo.as_ref(), None, &positions)
                        .map_err(|e| e.to_string());
                if got != want {
                    let memo = if memo.is_some() { "on" } else { "off" };
                    let detail = format!(
                        "batched pass ({tag} pool, memo {memo}) {got:?} vs per-term sum {want:?}"
                    );
                    out.fail("batched-pass", detail);
                }
            }
        }
        Verdict::Checked
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::run_row;
    use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
    use lowdeg_logic::parse_query;

    /// Per-term sum, batched pass on the serial pool, batched pass on the
    /// forced-parallel pool.
    #[test]
    fn all_three_paths_agree() {
        crate::oracle::assert_corpus_clean(&ORACLE);
    }

    #[test]
    fn four_positions_walk_a_wider_lattice() {
        // k = 4 → m = 6 negated pairs → 2^6 lattice masks. Small n: the
        // Step-5 type-combination table grows steeply with arity.
        let s = ColoredGraphSpec::balanced(12, DegreeClass::Bounded(2)).generate(9);
        let q = parse_query(
            s.signature(),
            "B(x) & R(y) & G(z) & B(w) & !E(x, y) & !E(y, z) & !E(x, z) & !E(x, w) \
             & !E(y, w) & !E(z, w)",
        )
        .unwrap();
        let (verdict, bad) = run_row(&ORACLE, &s, &q);
        assert!(bad.is_empty(), "{bad:?}");
        assert_eq!(verdict, Verdict::Checked);
    }

    #[test]
    fn unary_queries_have_an_empty_lattice_but_still_agree() {
        let s = ColoredGraphSpec::balanced(20, DegreeClass::Bounded(3)).generate(4);
        let q = parse_query(s.signature(), "B(x) & !R(x)").unwrap();
        let (_, bad) = run_row(&ORACLE, &s, &q);
        assert!(bad.is_empty(), "{bad:?}");
    }
}
