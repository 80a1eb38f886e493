//! Naive FO evaluation: the correctness oracle and the `n^k` baseline.
//!
//! Quantifiers iterate the whole domain; `answers_naive` enumerates all
//! `n^k` candidate tuples. These are exactly the algorithms the paper's
//! pseudo-linear machinery exists to beat; they double as the ground truth
//! every test in the workspace compares against.

use crate::ast::{DistCmp, Formula, Query, Var};
use lowdeg_storage::{Node, RelId, Structure, MAX_ARITY};

/// The read-only view of a structure that [`eval`] needs: the domain
/// `0..cardinality()` in its linear order, fact membership, and bounded
/// Gaifman distance. [`Structure`] is the canonical model; a model can
/// also be a view that answers these questions without materializing a
/// `Structure` (for example a disjoint union of borrowed parts).
pub trait Model {
    /// `|A|`; quantifiers range over `Node(0)..Node(cardinality())`.
    fn cardinality(&self) -> usize;

    /// Whether `rel(t)` is a fact. A tuple of the wrong arity never is.
    fn holds(&self, rel: RelId, t: &[Node]) -> bool;

    /// Whether the Gaifman distance between `a` and `b` is at most `r`.
    fn within_distance(&self, a: Node, b: Node, r: usize) -> bool;
}

impl Model for Structure {
    #[inline]
    fn cardinality(&self) -> usize {
        Structure::cardinality(self)
    }

    #[inline]
    fn holds(&self, rel: RelId, t: &[Node]) -> bool {
        Structure::holds(self, rel, t)
    }

    #[inline]
    fn within_distance(&self, a: Node, b: Node, r: usize) -> bool {
        self.gaifman().distance_at_most(a, b, r).is_some()
    }
}

/// A partial assignment of variables to nodes, indexed by variable id.
#[derive(Clone, Debug, Default)]
pub struct Assignment {
    slots: Vec<Option<Node>>,
}

impl Assignment {
    /// Assignment with room for variables `0..len`.
    pub fn with_capacity(len: usize) -> Self {
        Assignment {
            slots: vec![None; len],
        }
    }

    /// Bind `v` to `a` (growing as needed); returns the previous binding.
    pub fn bind(&mut self, v: Var, a: Node) -> Option<Node> {
        if v.index() >= self.slots.len() {
            self.slots.resize(v.index() + 1, None);
        }
        self.slots[v.index()].replace(a)
    }

    /// Remove the binding of `v`.
    pub fn unbind(&mut self, v: Var) {
        if v.index() < self.slots.len() {
            self.slots[v.index()] = None;
        }
    }

    /// Current binding of `v`.
    pub fn get(&self, v: Var) -> Option<Node> {
        self.slots.get(v.index()).copied().flatten()
    }

    fn require(&self, v: Var) -> Node {
        self.get(v).expect("evaluation reached an unbound variable")
    }
}

/// Evaluate `f` over `model` under `asg` (which must bind every free
/// variable of `f`).
pub fn eval<M: Model + ?Sized>(model: &M, f: &Formula, asg: &mut Assignment) -> bool {
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Atom { rel, args } => {
            let mut buf = [Node(0); MAX_ARITY];
            let Some(tuple) = buf.get_mut(..args.len()) else {
                return false; // wider than any relation of any signature
            };
            for (slot, &v) in tuple.iter_mut().zip(args) {
                *slot = asg.require(v);
            }
            model.holds(*rel, tuple)
        }
        Formula::Eq(x, y) => asg.require(*x) == asg.require(*y),
        Formula::Dist { x, y, cmp, r } => {
            let within = model.within_distance(asg.require(*x), asg.require(*y), *r);
            match cmp {
                DistCmp::LessEq => within,
                DistCmp::Greater => !within,
            }
        }
        Formula::Not(g) => !eval(model, g, asg),
        Formula::And(gs) => gs.iter().all(|g| eval(model, g, asg)),
        Formula::Or(gs) => gs.iter().any(|g| eval(model, g, asg)),
        Formula::Exists(vs, g) => eval_exists(model, vs, g, asg),
        Formula::Forall(vs, g) => !eval_exists_not(model, vs, g, asg),
    }
}

fn eval_exists<M: Model + ?Sized>(
    model: &M,
    vs: &[Var],
    g: &Formula,
    asg: &mut Assignment,
) -> bool {
    match vs.split_first() {
        None => eval(model, g, asg),
        Some((&v, rest)) => {
            let saved = asg.get(v);
            for a in (0..model.cardinality() as u32).map(Node) {
                asg.bind(v, a);
                if eval_exists(model, rest, g, asg) {
                    restore(asg, v, saved);
                    return true;
                }
            }
            restore(asg, v, saved);
            false
        }
    }
}

fn eval_exists_not<M: Model + ?Sized>(
    model: &M,
    vs: &[Var],
    g: &Formula,
    asg: &mut Assignment,
) -> bool {
    match vs.split_first() {
        None => !eval(model, g, asg),
        Some((&v, rest)) => {
            let saved = asg.get(v);
            for a in (0..model.cardinality() as u32).map(Node) {
                asg.bind(v, a);
                if eval_exists_not(model, rest, g, asg) {
                    restore(asg, v, saved);
                    return true;
                }
            }
            restore(asg, v, saved);
            false
        }
    }
}

fn restore(asg: &mut Assignment, v: Var, saved: Option<Node>) {
    match saved {
        Some(a) => {
            asg.bind(v, a);
        }
        None => asg.unbind(v),
    }
}

/// Check a sentence: `A ⊨ q`. Panics when `q` has free variables.
pub fn model_check_naive(structure: &Structure, q: &Query) -> bool {
    assert!(q.is_sentence(), "model checking needs a sentence");
    let mut asg = Assignment::with_capacity(q.vars.len());
    eval(structure, &q.formula, &mut asg)
}

/// Test whether `tuple ∈ q(A)` by direct evaluation.
pub fn check_naive(structure: &Structure, q: &Query, tuple: &[Node]) -> bool {
    assert_eq!(tuple.len(), q.arity(), "tuple arity mismatch");
    let mut asg = Assignment::with_capacity(q.vars.len());
    for (&v, &a) in q.free.iter().zip(tuple) {
        asg.bind(v, a);
    }
    eval(structure, &q.formula, &mut asg)
}

/// All answers `q(A)` by brute force over the `n^k` candidate tuples, in
/// lexicographic order of the free-variable components.
pub fn answers_naive(structure: &Structure, q: &Query) -> Vec<Vec<Node>> {
    let k = q.arity();
    let mut out = Vec::new();
    let mut asg = Assignment::with_capacity(q.vars.len());
    let mut tuple: Vec<Node> = vec![Node(0); k];
    rec(structure, q, 0, &mut tuple, &mut asg, &mut out);
    fn rec(
        structure: &Structure,
        q: &Query,
        pos: usize,
        tuple: &mut Vec<Node>,
        asg: &mut Assignment,
        out: &mut Vec<Vec<Node>>,
    ) {
        if pos == q.arity() {
            if eval(structure, &q.formula, asg) {
                out.push(tuple.clone());
            }
            return;
        }
        for a in structure.domain() {
            tuple[pos] = a;
            asg.bind(q.free[pos], a);
            rec(structure, q, pos + 1, tuple, asg, out);
        }
        asg.unbind(q.free[pos]);
    }
    out
}

/// `|q(A)|` by brute force.
pub fn count_naive(structure: &Structure, q: &Query) -> u64 {
    answers_naive(structure, q).len() as u64
}

/// Whether two queries of the same arity have the same answer set over
/// `structure`, by brute force. The workhorse behind the rewrite oracles
/// (simplify/NNF/DNF must be semantics-preserving) in the conformance
/// harness and the property suites.
///
/// The two queries may use different variable tables; only the answer
/// *tuples* are compared. Queries of different arity are never equivalent.
pub fn equivalent_naive(structure: &Structure, a: &Query, b: &Query) -> bool {
    if a.arity() != b.arity() {
        return false;
    }
    answers_naive(structure, a) == answers_naive(structure, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use lowdeg_storage::{node, Signature};
    use std::sync::Arc;

    /// The paper's running example structure: a colored graph.
    /// Nodes 0,1 blue; 3,4 red; edges 0-3 (both ways).
    fn bluered() -> Structure {
        let sig = Arc::new(Signature::new(&[("E", 2), ("B", 1), ("R", 1)]));
        let e = sig.rel("E").unwrap();
        let b_ = sig.rel("B").unwrap();
        let r_ = sig.rel("R").unwrap();
        let mut b = Structure::builder(sig, 5);
        b.fact(b_, &[node(0)]).unwrap();
        b.fact(b_, &[node(1)]).unwrap();
        b.fact(r_, &[node(3)]).unwrap();
        b.fact(r_, &[node(4)]).unwrap();
        b.undirected_edge(e, node(0), node(3)).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn example_2_3_answers() {
        let s = bluered();
        let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        let ans = answers_naive(&s, &q);
        // blue×red = {0,1}×{3,4} minus (0,3)
        assert_eq!(
            ans,
            vec![
                vec![node(0), node(4)],
                vec![node(1), node(3)],
                vec![node(1), node(4)],
            ]
        );
        assert_eq!(count_naive(&s, &q), 3);
        assert!(check_naive(&s, &q, &[node(1), node(3)]));
        assert!(!check_naive(&s, &q, &[node(0), node(3)]));
    }

    #[test]
    fn exists_quantifier() {
        let s = bluered();
        // x has a red neighbor
        let q = parse_query(s.signature(), "exists y. R(y) & E(x, y)").unwrap();
        let ans = answers_naive(&s, &q);
        assert_eq!(ans, vec![vec![node(0)]]);
    }

    #[test]
    fn forall_quantifier() {
        let s = bluered();
        // every neighbor of x is red — vacuously true for isolated nodes
        let q = parse_query(s.signature(), "forall y. E(x, y) -> R(y)").unwrap();
        let ans = answers_naive(&s, &q);
        // node 3's only neighbor is 0 (blue) → excluded; all others have no
        // neighbors except 0 (neighbor 3 is red) → included
        assert_eq!(
            ans,
            vec![vec![node(0)], vec![node(1)], vec![node(2)], vec![node(4)]]
        );
    }

    #[test]
    fn sentences() {
        let s = bluered();
        let t = parse_query(s.signature(), "exists x y. B(x) & R(y) & E(x, y)").unwrap();
        assert!(model_check_naive(&s, &t));
        let f = parse_query(s.signature(), "exists x. B(x) & R(x)").unwrap();
        assert!(!model_check_naive(&s, &f));
    }

    #[test]
    fn dist_guard_semantics() {
        let s = bluered();
        // nodes within distance 1 of node-0's color class via an edge
        let q = parse_query(s.signature(), "B(x) & dist(x, y) <= 1 & R(y)").unwrap();
        let ans = answers_naive(&s, &q);
        assert_eq!(ans, vec![vec![node(0), node(3)]]);
        let qf = parse_query(s.signature(), "B(x) & dist(x, y) > 1 & R(y)").unwrap();
        let ansf = answers_naive(&s, &qf);
        assert_eq!(
            ansf,
            vec![
                vec![node(0), node(4)],
                vec![node(1), node(3)],
                vec![node(1), node(4)],
            ]
        );
    }

    #[test]
    fn equality_semantics() {
        let s = bluered();
        let q = parse_query(s.signature(), "B(x) & x = y").unwrap();
        let ans = answers_naive(&s, &q);
        assert_eq!(ans, vec![vec![node(0), node(0)], vec![node(1), node(1)]]);
    }

    #[test]
    fn zero_ary_query_on_answers() {
        let s = bluered();
        let q = parse_query(s.signature(), "exists x. B(x)").unwrap();
        let ans = answers_naive(&s, &q);
        assert_eq!(ans, vec![Vec::<Node>::new()]); // one empty tuple: true
    }

    #[test]
    fn equivalence_oracle() {
        let s = bluered();
        let a = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        // De Morgan'd double negation of the same query
        let b = parse_query(s.signature(), "!(!B(x) | !R(y) | E(x, y))").unwrap();
        assert!(equivalent_naive(&s, &a, &b));
        let c = parse_query(s.signature(), "B(x) & R(y)").unwrap();
        assert!(!equivalent_naive(&s, &a, &c));
        // different arity is never equivalent
        let d = parse_query(s.signature(), "B(x)").unwrap();
        assert!(!equivalent_naive(&s, &a, &d));
    }
}
