//! Lattice-walk equivalence row.
//!
//! Lemma 3.5 has three oracle evaluations of one reduced clause: the
//! per-term reference (nested inclusion–exclusion differences), the single
//! serial Gray-code walk, and the sliced walk. The walks are designed to
//! reproduce the per-term signed `i128` sum bit for bit, for *every*
//! slicing of the rank space — so all three must agree exactly. The
//! engine counts with none of them: `count_graph_query` counts all clauses
//! of the reduced query in one batched pass, and that count must equal
//! the sum of the per-term clause counts. Reduced clauses start with every position pair negated
//! (`m = k(k−1)/2` inclusion–exclusion atoms), which makes each case
//! negative-heavy by construction: half the lattice terms enter the sum
//! with a minus sign, exercising the signed accumulation the slices must
//! merge exactly.
//!
//! This row builds the reduction for each case and compares the three
//! paths per clause, sweeping the slice width over 1, ⌈m/2⌉ and `m` top
//! rank bits (subtree sizes from half the lattice down to one mask per
//! slice), each on a serial and a forced-parallel pool; then it counts the
//! whole reduced query through `count_graph_query` on both pools, with the
//! counting memo off and on.

use crate::oracle::{forced_parallel, Oracle, Verdict};
use lowdeg_core::counting::{
    count_clause_lattice_serial, count_clause_lattice_sliced, count_clause_per_term,
    count_graph_query, CountingMemo,
};
use lowdeg_core::{PositionMemo, Reduction};
use lowdeg_index::Epsilon;
use lowdeg_par::ParConfig;

/// The lattice-walk row.
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
        let m = gq.k * (gq.k.saturating_sub(1)) / 2;
        let (serial, parallel) = (ParConfig::serial(), forced_parallel());

        // slice widths: coarsest, middling, finest — deduplicated for small m
        let mut bit_sweep: Vec<usize> = vec![1, m.div_ceil(2), m];
        bit_sweep.retain(|&b| b >= 1 && b <= m);
        bit_sweep.dedup();

        let mut per_term: u128 = 0;
        for (ci, clause) in gq.clauses.iter().enumerate() {
            let reference = count_clause_per_term(graph, gq, clause, adjacency);
            per_term += u128::from(reference);
            let single = count_clause_lattice_serial(graph, gq, clause, adjacency);
            if single != reference {
                let detail =
                    format!("clause {ci}: serial Gray walk {single} vs per-term {reference}");
                out.fail("serial-walk", detail);
            }
            for &bits in &bit_sweep {
                for (tag, par) in [("serial", &serial), ("parallel", &parallel)] {
                    let sliced =
                        count_clause_lattice_sliced(graph, gq, clause, adjacency, bits, par);
                    if sliced != reference {
                        let walk = format!("sliced walk ({bits} bits, {tag} pool)");
                        let detail =
                            format!("clause {ci}: {walk} {sliced} vs per-term {reference}");
                        out.fail("sliced-walk", detail);
                    }
                }
            }
        }

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

    #[test]
    fn all_three_paths_agree() {
        crate::oracle::assert_corpus_clean(&ORACLE);
    }

    #[test]
    fn four_positions_slice_a_wider_lattice() {
        // k = 4 → m = 6 negated pairs → 2^6 lattice masks, sliced at 1, 3
        // and 6 bits. Small n: the Step-5 type-combination table grows
        // steeply with arity.
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
    fn unary_queries_have_nothing_to_slice_but_still_agree() {
        let s = ColoredGraphSpec::balanced(20, DegreeClass::Bounded(3)).generate(4);
        let q = parse_query(s.signature(), "B(x) & !R(x)").unwrap();
        let (_, bad) = run_row(&ORACLE, &s, &q);
        assert!(bad.is_empty(), "{bad:?}");
    }
}
