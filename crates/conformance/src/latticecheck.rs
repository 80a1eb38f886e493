//! Lattice-walk equivalence oracle.
//!
//! The ie-count stage has three evaluation paths for one reduced clause:
//! the per-term reference (nested inclusion–exclusion differences), the
//! single serial Gray-code walk, and the sliced parallel walk. The walks
//! are designed to reproduce the per-term signed `i128` sum bit for bit,
//! for *every* slicing of the rank space — so all three must agree
//! exactly. Reduced clauses start with every position pair negated
//! (`m = k(k−1)/2` inclusion–exclusion atoms), which makes each case
//! negative-heavy by construction: half the lattice terms enter the sum
//! with a minus sign, exercising the signed accumulation the slices must
//! merge exactly.
//!
//! This oracle builds the reduction for each case and compares the three
//! paths per clause, sweeping the slice width over 1, ⌈m/2⌉ and `m` top
//! rank bits (subtree sizes from half the lattice down to one mask per
//! slice), each on a serial and a forced-parallel pool. Disagreements
//! plug into the runner's shrink + witness machinery like any other
//! check.

use crate::differential::Disagreement;
use crate::parcheck::forced_parallel;
use lowdeg_core::counting::{
    count_clause_lattice_serial, count_clause_lattice_sliced, count_clause_per_term,
};
use lowdeg_core::Reduction;
use lowdeg_index::Epsilon;
use lowdeg_logic::Query;
use lowdeg_par::ParConfig;
use lowdeg_storage::Structure;

/// Compare the three counting paths on every reduced clause of `(s, q)`.
pub fn latticecheck_case(s: &Structure, q: &Query) -> Vec<Disagreement> {
    let mut bad = Vec::new();
    if q.arity() == 0 {
        return bad; // sentences have no reduction — model checking's business
    }
    let reduction = match Reduction::build(s, q, Epsilon::default_eps(), &ParConfig::from_env()) {
        Ok(r) => r,
        Err(_) => return bad, // rejection is the differential oracle's business
    };
    let graph = reduction.graph();
    let gq = reduction.query();
    let adjacency = reduction.adjacency();
    let m = gq.k * (gq.k.saturating_sub(1)) / 2;
    let serial = ParConfig::serial();
    let parallel = forced_parallel();

    // slice widths: coarsest, middling, finest — deduplicated for small m
    let mut bit_sweep: Vec<usize> = vec![1, m.div_ceil(2), m];
    bit_sweep.retain(|&b| b >= 1 && b <= m);
    bit_sweep.sort_unstable();
    bit_sweep.dedup();

    for (ci, clause) in gq.clauses.iter().enumerate() {
        let reference = count_clause_per_term(graph, gq, clause, adjacency);
        let single = count_clause_lattice_serial(graph, gq, clause, adjacency);
        if single != reference {
            bad.push(Disagreement {
                check: "latticecheck-serial-walk".into(),
                detail: format!("clause {ci}: serial Gray walk {single} vs per-term {reference}"),
            });
        }
        for &bits in &bit_sweep {
            for (tag, par) in [("serial", &serial), ("parallel", &parallel)] {
                let sliced = count_clause_lattice_sliced(graph, gq, clause, adjacency, bits, par);
                if sliced != reference {
                    bad.push(Disagreement {
                        check: "latticecheck-sliced-walk".into(),
                        detail: format!(
                            "clause {ci}: sliced walk ({bits} bits, {tag} pool) {sliced} \
                             vs per-term {reference}"
                        ),
                    });
                }
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
    use lowdeg_logic::parse_query;

    #[test]
    fn all_three_paths_agree() {
        for seed in [1, 2, 3] {
            let s = ColoredGraphSpec::balanced(30, DegreeClass::Bounded(3)).generate(seed);
            for src in [
                "B(x) & R(y) & !E(x, y)",
                "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)",
                "exists z. E(x, z) & E(z, y)",
            ] {
                let q = parse_query(s.signature(), src).unwrap();
                let bad = latticecheck_case(&s, &q);
                assert!(bad.is_empty(), "seed {seed} `{src}`: {bad:?}");
            }
        }
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
        let bad = latticecheck_case(&s, &q);
        assert!(bad.is_empty(), "{bad:?}");
    }

    #[test]
    fn unary_queries_have_nothing_to_slice_but_still_agree() {
        let s = ColoredGraphSpec::balanced(20, DegreeClass::Bounded(3)).generate(4);
        let q = parse_query(s.signature(), "B(x) & !R(x)").unwrap();
        let bad = latticecheck_case(&s, &q);
        assert!(bad.is_empty(), "{bad:?}");
    }
}
