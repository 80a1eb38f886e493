//! Lemma 3.1 / Proposition 3.2: evaluation of *connected conjunctive
//! queries* in time `O(|q| · n · d^{h(|q|)})`.
//!
//! A connected conjunctive query is `∃ȳ γ(x̄, ȳ)` where `γ` is a conjunction
//! of relational atoms and negated unary atoms whose query graph (variables,
//! linked when they co-occur in a positive atom) is connected. Because `γ`
//! is connected, every answer lies entirely inside the `R`-neighborhood of
//! its first component — so the whole answer set is the disjoint union of
//! the per-anchor sets `S_a`, each computable by brute force on a single
//! neighborhood.
//!
//! We additionally allow equalities and distance guards (`dist(u,v) ≤ s`
//! counts as a positive link of weight `s`; `dist(u,v) > s` is allowed as a
//! filter), which the counting stage of Lemma 3.5 needs.

use lowdeg_logic::eval::{eval, Assignment};
use lowdeg_logic::{DistCmp, Formula, Var};
use lowdeg_storage::{Node, Structure};
use std::collections::BTreeSet;
use std::fmt;

/// Why a conjunction was rejected by [`evaluate_connected`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectedError {
    /// The positive-atom query graph is not connected over all variables.
    NotConnected,
    /// A conjunct is not an atom, negated atom, equality or distance guard.
    UnsupportedConjunct(String),
    /// The exact count does not fit in 64 bits.
    CountOverflow,
}

impl fmt::Display for ConnectedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnectedError::NotConnected => {
                write!(f, "query graph of the conjunction is not connected")
            }
            ConnectedError::UnsupportedConjunct(d) => {
                write!(f, "unsupported conjunct in connected CQ: {d}")
            }
            ConnectedError::CountOverflow => write!(f, "the count does not fit in 64 bits"),
        }
    }
}

impl std::error::Error for ConnectedError {}

/// Evaluate the connected conjunctive query `∃ exists. ⋀ conjuncts` with
/// answer variables `free` (in answer-component order). Returns the sorted,
/// duplicate-free answer set.
///
/// For a 0-ary query the result is `[[]]` (true) or `[]` (false).
pub fn evaluate_connected(
    structure: &Structure,
    free: &[Var],
    exists: &[Var],
    conjuncts: &[Formula],
) -> Result<Vec<Vec<Node>>, ConnectedError> {
    let all_vars: Vec<Var> = free.iter().chain(exists).copied().collect();
    validate(conjuncts)?;
    let radius = connectivity_radius(&all_vars, conjuncts)?;

    if all_vars.is_empty() {
        // variable-free conjunction: evaluate the constants
        let mut asg = Assignment::default();
        let ok = conjuncts.iter().all(|c| eval(structure, c, &mut asg));
        return Ok(if ok { vec![vec![]] } else { vec![] });
    }

    let matrix = Formula::and(conjuncts.iter().cloned());
    let mut answers: BTreeSet<Vec<Node>> = BTreeSet::new();

    // Disjoint decomposition by the anchor (= value of the first variable).
    for a in structure.domain() {
        let ball = structure.gaifman().ball(a, radius);
        enumerate_anchor(
            structure,
            &matrix,
            &all_vars,
            free.len(),
            a,
            &ball,
            &mut answers,
        );
    }
    Ok(answers.into_iter().collect())
}

/// Count the answers of a connected conjunctive query (Lemma 3.1 applied to
/// counting; the disjoint `S_a` decomposition makes the count exact).
pub fn count_connected(
    structure: &Structure,
    free: &[Var],
    exists: &[Var],
    conjuncts: &[Formula],
) -> Result<u64, ConnectedError> {
    Ok(evaluate_connected(structure, free, exists, conjuncts)?.len() as u64)
}

fn validate(conjuncts: &[Formula]) -> Result<(), ConnectedError> {
    for c in conjuncts {
        let ok = match c {
            Formula::True
            | Formula::False
            | Formula::Atom { .. }
            | Formula::Eq(..)
            | Formula::Dist { .. } => true,
            Formula::Not(inner) => matches!(
                **inner,
                Formula::Atom { .. } | Formula::Eq(..) | Formula::Dist { .. }
            ),
            _ => false,
        };
        if !ok {
            return Err(ConnectedError::UnsupportedConjunct(format!("{c:?}")));
        }
    }
    Ok(())
}

/// Check positive-link connectivity over all variables and return a radius
/// `R` such that every satisfying assignment maps all variables into
/// `N_R(anchor)`. `R` = sum of all positive link weights (a spanning walk
/// bound — loose but sound).
fn connectivity_radius(all_vars: &[Var], conjuncts: &[Formula]) -> Result<usize, ConnectedError> {
    if all_vars.len() <= 1 {
        return Ok(0);
    }
    let mut links: Vec<(Var, Var, usize)> = Vec::new();
    for c in conjuncts {
        match c {
            Formula::Atom { args, .. } => {
                for i in 0..args.len() {
                    for j in (i + 1)..args.len() {
                        if args[i] != args[j] {
                            links.push((args[i], args[j], 1));
                        }
                    }
                }
            }
            Formula::Eq(x, y) if x != y => links.push((*x, *y, 0)),
            Formula::Dist {
                x,
                y,
                cmp: DistCmp::LessEq,
                r,
            } if x != y => links.push((*x, *y, *r)),
            _ => {}
        }
    }
    // connectivity check (union-find over the tiny variable set)
    let mut parent: Vec<usize> = (0..all_vars.len()).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }
    let index_of = |v: Var| all_vars.iter().position(|&w| w == v);
    let mut weight_sum = 0usize;
    for &(u, v, w) in &links {
        let (Some(i), Some(j)) = (index_of(u), index_of(v)) else {
            continue;
        };
        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
        if ri != rj {
            parent[ri] = rj;
        }
        weight_sum += w.max(1);
    }
    let root = find(&mut parent, 0);
    for i in 1..all_vars.len() {
        if find(&mut parent, i) != root {
            return Err(ConnectedError::NotConnected);
        }
    }
    Ok(weight_sum)
}

#[allow(clippy::too_many_arguments)]
fn enumerate_anchor(
    structure: &Structure,
    matrix: &Formula,
    all_vars: &[Var],
    n_free: usize,
    anchor: Node,
    ball: &[Node],
    answers: &mut BTreeSet<Vec<Node>>,
) {
    let mut asg = Assignment::default();
    asg.bind(all_vars[0], anchor);
    let mut tuple: Vec<Node> = vec![anchor; all_vars.len()];

    fn rec(
        structure: &Structure,
        matrix: &Formula,
        all_vars: &[Var],
        n_free: usize,
        ball: &[Node],
        pos: usize,
        asg: &mut Assignment,
        tuple: &mut Vec<Node>,
        answers: &mut BTreeSet<Vec<Node>>,
    ) {
        if pos == all_vars.len() {
            if eval(structure, matrix, asg) {
                answers.insert(tuple[..n_free].to_vec());
            }
            return;
        }
        for &b in ball {
            asg.bind(all_vars[pos], b);
            tuple[pos] = b;
            rec(
                structure,
                matrix,
                all_vars,
                n_free,
                ball,
                pos + 1,
                asg,
                tuple,
                answers,
            );
        }
        asg.unbind(all_vars[pos]);
    }
    rec(
        structure, matrix, all_vars, n_free, ball, 1, &mut asg, &mut tuple, answers,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdeg_gen::{cycle_graph, ColoredGraphSpec, DegreeClass};
    use lowdeg_logic::eval::answers_naive;
    use lowdeg_logic::parse_query;

    /// Helper: run a connected CQ given as `exists <names>. <conjunction>`
    /// source and compare against the naive oracle.
    fn check_against_oracle(structure: &Structure, src: &str) {
        let q = parse_query(structure.signature(), src).unwrap();
        let (free, exists, conjuncts) = match &q.formula {
            Formula::Exists(vs, body) => {
                let parts = match &**body {
                    Formula::And(parts) => parts.clone(),
                    other => vec![other.clone()],
                };
                (q.free.clone(), vs.clone(), parts)
            }
            Formula::And(parts) => (q.free.clone(), vec![], parts.clone()),
            other => (q.free.clone(), vec![], vec![other.clone()]),
        };
        let got = evaluate_connected(structure, &free, &exists, &conjuncts).unwrap();
        let want = answers_naive(structure, &q);
        assert_eq!(got, want, "mismatch for `{src}`");
    }

    #[test]
    fn paths_of_length_two() {
        let g = cycle_graph(8);
        check_against_oracle(&g, "exists z. E(x, z) & E(z, y)");
    }

    #[test]
    fn triangles_on_random_graph() {
        let s = ColoredGraphSpec::balanced(40, DegreeClass::Bounded(4)).generate(5);
        check_against_oracle(&s, "E(x, y) & E(y, z) & E(z, x)");
    }

    #[test]
    fn colored_pattern_with_negated_unary() {
        let s = ColoredGraphSpec::balanced(40, DegreeClass::Bounded(4)).generate(6);
        check_against_oracle(&s, "E(x, y) & B(x) & !R(y)");
    }

    #[test]
    fn boolean_connected_query() {
        let s = ColoredGraphSpec::balanced(30, DegreeClass::Bounded(3)).generate(7);
        check_against_oracle(&s, "exists x y. E(x, y) & B(x) & R(y)");
    }

    #[test]
    fn distance_guard_link() {
        let g = cycle_graph(10);
        check_against_oracle(&g, "dist(x, y) <= 2 & E(x, y)");
    }

    #[test]
    fn disconnected_rejected() {
        let s = ColoredGraphSpec::balanced(10, DegreeClass::Bounded(3)).generate(1);
        let q = parse_query(s.signature(), "B(x) & R(y)").unwrap();
        let parts = match &q.formula {
            Formula::And(parts) => parts.clone(),
            _ => unreachable!(),
        };
        assert_eq!(
            evaluate_connected(&s, &q.free, &[], &parts),
            Err(ConnectedError::NotConnected)
        );
    }

    #[test]
    fn unsupported_conjunct_rejected() {
        let s = ColoredGraphSpec::balanced(10, DegreeClass::Bounded(3)).generate(1);
        let q = parse_query(s.signature(), "E(x, y) & (B(x) | R(x))").unwrap();
        let parts = match &q.formula {
            Formula::And(parts) => parts.clone(),
            _ => unreachable!(),
        };
        assert!(matches!(
            evaluate_connected(&s, &q.free, &[], &parts),
            Err(ConnectedError::UnsupportedConjunct(_))
        ));
    }

    #[test]
    fn unary_query() {
        let s = ColoredGraphSpec::balanced(20, DegreeClass::Bounded(3)).generate(2);
        check_against_oracle(&s, "B(x)");
    }

    #[test]
    fn count_matches_enumeration() {
        let g = cycle_graph(9);
        let q = parse_query(g.signature(), "E(x, y)").unwrap();
        let parts = vec![q.formula.clone()];
        let c = count_connected(&g, &q.free, &[], &parts).unwrap();
        assert_eq!(c, 18);
    }

    #[test]
    fn equality_link() {
        let s = ColoredGraphSpec::balanced(15, DegreeClass::Bounded(3)).generate(3);
        check_against_oracle(&s, "B(x) & x = y");
    }
}
