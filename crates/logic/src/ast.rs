//! FO formula syntax.

use lowdeg_storage::{RelId, Signature};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A first-order variable, identified by an index into the owning query's
/// [`VarAlloc`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub u32);

impl Var {
    /// Index form.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Comparison mode of a distance guard.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DistCmp {
    /// `dist(x, y) ≤ r`
    LessEq,
    /// `dist(x, y) > r`
    Greater,
}

impl DistCmp {
    /// The negation-dual comparison.
    pub fn negate(self) -> Self {
        match self {
            DistCmp::LessEq => DistCmp::Greater,
            DistCmp::Greater => DistCmp::LessEq,
        }
    }
}

/// A first-order formula over a relational signature.
///
/// Distance guards `dist(x,y) ⋈ r` (for fixed `r`) are first-order definable
/// and are treated as primitive because the Gaifman-normal-form machinery of
/// Section 4 is phrased entirely in terms of them.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Formula {
    /// The constant true.
    True,
    /// The constant false.
    False,
    /// A relational atom `R(x₁, …, x_k)`.
    Atom {
        /// Relation symbol.
        rel: RelId,
        /// Argument variables, length = arity of `rel`.
        args: Vec<Var>,
    },
    /// Equality `x = y`.
    Eq(Var, Var),
    /// Distance guard `dist(x, y) ≤ r` or `dist(x, y) > r` in the Gaifman
    /// graph.
    Dist {
        /// Left variable.
        x: Var,
        /// Right variable.
        y: Var,
        /// Comparison mode.
        cmp: DistCmp,
        /// Radius bound.
        r: usize,
    },
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction over any number of conjuncts (empty = true).
    And(Vec<Formula>),
    /// Disjunction over any number of disjuncts (empty = false).
    Or(Vec<Formula>),
    /// Existential quantification over a block of variables.
    Exists(Vec<Var>, Box<Formula>),
    /// Universal quantification over a block of variables.
    Forall(Vec<Var>, Box<Formula>),
}

impl Formula {
    /// Conjunction smart constructor: flattens and drops units.
    pub fn and(parts: impl IntoIterator<Item = Formula>) -> Formula {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Formula::True,
            1 => out.pop().expect("len checked"),
            _ => Formula::And(out),
        }
    }

    /// Disjunction smart constructor: flattens and drops units.
    pub fn or(parts: impl IntoIterator<Item = Formula>) -> Formula {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Formula::False => {}
                Formula::True => return Formula::True,
                Formula::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Formula::False,
            1 => out.pop().expect("len checked"),
            _ => Formula::Or(out),
        }
    }

    /// Negation smart constructor: collapses double negation and constants.
    #[allow(clippy::should_implement_trait)] // associated constructor, not ops::Not
    pub fn not(f: Formula) -> Formula {
        match f {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => *inner,
            other => Formula::Not(Box::new(other)),
        }
    }

    /// Existential quantification; drops empty blocks.
    pub fn exists(vars: Vec<Var>, f: Formula) -> Formula {
        if vars.is_empty() {
            f
        } else if let Formula::Exists(mut inner_vars, body) = f {
            let mut vs = vars;
            vs.append(&mut inner_vars);
            Formula::Exists(vs, body)
        } else {
            Formula::Exists(vars, Box::new(f))
        }
    }

    /// Universal quantification; drops empty blocks.
    pub fn forall(vars: Vec<Var>, f: Formula) -> Formula {
        if vars.is_empty() {
            f
        } else if let Formula::Forall(mut inner_vars, body) = f {
            let mut vs = vars;
            vs.append(&mut inner_vars);
            Formula::Forall(vs, body)
        } else {
            Formula::Forall(vars, Box::new(f))
        }
    }

    /// `|φ|`: a size measure (number of AST nodes).
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Eq(..) | Formula::Dist { .. } => 1,
            Formula::Atom { args, .. } => 1 + args.len(),
            Formula::Not(g) => 1 + g.size(),
            Formula::And(gs) | Formula::Or(gs) => 1 + gs.iter().map(Formula::size).sum::<usize>(),
            Formula::Exists(vs, g) | Formula::Forall(vs, g) => vs.len() + g.size(),
        }
    }

    /// Free variables, in ascending `Var` order.
    pub fn free_vars(&self) -> Vec<Var> {
        let mut free = BTreeSet::new();
        self.collect_free(&mut Vec::new(), &mut free);
        free.into_iter().collect()
    }

    fn collect_free(&self, bound: &mut Vec<Var>, free: &mut BTreeSet<Var>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom { args, .. } => {
                for &v in args {
                    if !bound.contains(&v) {
                        free.insert(v);
                    }
                }
            }
            Formula::Eq(x, y) | Formula::Dist { x, y, .. } => {
                for &v in [x, y] {
                    if !bound.contains(&v) {
                        free.insert(v);
                    }
                }
            }
            Formula::Not(f) => f.collect_free(bound, free),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_free(bound, free);
                }
            }
            Formula::Exists(vs, f) | Formula::Forall(vs, f) => {
                let depth = bound.len();
                bound.extend_from_slice(vs);
                f.collect_free(bound, free);
                bound.truncate(depth);
            }
        }
    }

    /// All variables occurring anywhere (free or bound).
    pub fn all_vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.visit_vars(&mut |v| {
            out.insert(v);
        });
        out
    }

    fn visit_vars(&self, f: &mut impl FnMut(Var)) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom { args, .. } => args.iter().copied().for_each(&mut *f),
            Formula::Eq(x, y) | Formula::Dist { x, y, .. } => {
                f(*x);
                f(*y);
            }
            Formula::Not(g) => g.visit_vars(f),
            Formula::And(gs) | Formula::Or(gs) => {
                for g in gs {
                    g.visit_vars(f);
                }
            }
            Formula::Exists(vs, g) | Formula::Forall(vs, g) => {
                vs.iter().copied().for_each(&mut *f);
                g.visit_vars(f);
            }
        }
    }

    /// Whether the formula contains no quantifiers.
    pub fn is_quantifier_free(&self) -> bool {
        match self {
            Formula::True
            | Formula::False
            | Formula::Atom { .. }
            | Formula::Eq(..)
            | Formula::Dist { .. } => true,
            Formula::Not(f) => f.is_quantifier_free(),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().all(|f| f.is_quantifier_free()),
            Formula::Exists(..) | Formula::Forall(..) => false,
        }
    }

    /// Whether a distance guard `dist(x, y) ⋈ r` occurs anywhere in the
    /// formula.
    pub fn has_dist(&self) -> bool {
        match self {
            Formula::Dist { .. } => true,
            Formula::True | Formula::False | Formula::Atom { .. } | Formula::Eq(..) => false,
            Formula::Not(f) | Formula::Exists(_, f) | Formula::Forall(_, f) => f.has_dist(),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().any(Formula::has_dist),
        }
    }

    /// Whether the formula is an atom, equality, or distance guard (possibly
    /// under one negation).
    pub fn is_literal(&self) -> bool {
        match self {
            Formula::Atom { .. } | Formula::Eq(..) | Formula::Dist { .. } => true,
            Formula::Not(f) => matches!(
                **f,
                Formula::Atom { .. } | Formula::Eq(..) | Formula::Dist { .. }
            ),
            _ => false,
        }
    }
}

/// Allocates variables and remembers their display names.
#[derive(Clone, Debug, Default)]
pub struct VarAlloc {
    names: Vec<String>,
}

impl VarAlloc {
    /// New empty allocator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a variable named `name` (names need not be unique; the
    /// printer disambiguates by id when needed).
    pub fn named(&mut self, name: &str) -> Var {
        let v = Var(self.names.len() as u32);
        self.names.push(name.to_owned());
        v
    }

    /// Allocate a fresh variable with a synthesized name.
    pub fn fresh(&mut self, hint: &str) -> Var {
        let v = Var(self.names.len() as u32);
        self.names.push(format!("{hint}{}", v.0));
        v
    }

    /// Display name of `v` (falls back to `v<i>` for out-of-table ids).
    pub fn name(&self, v: Var) -> String {
        self.names
            .get(v.index())
            .cloned()
            .unwrap_or_else(|| format!("v{}", v.0))
    }

    /// Number of variables allocated so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no variable has been allocated.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A query: a formula bound to its signature, with an explicit order on the
/// free variables (the order of answer-tuple components).
#[derive(Clone, Debug)]
pub struct Query {
    /// The signature the formula's atoms refer to.
    pub signature: Arc<Signature>,
    /// Free variables in answer-component order.
    pub free: Vec<Var>,
    /// The formula.
    pub formula: Formula,
    /// Variable name table.
    pub vars: VarAlloc,
}

impl Query {
    /// Construct a query; validates that `free` is exactly the formula's
    /// free-variable set and that atom arities match the signature.
    pub fn new(
        signature: Arc<Signature>,
        free: Vec<Var>,
        formula: Formula,
        vars: VarAlloc,
    ) -> Result<Self, crate::LogicError> {
        let actual = formula.free_vars();
        let mut declared = free.clone();
        declared.sort_unstable();
        let declared_set: Vec<Var> = declared;
        if declared_set != actual {
            return Err(crate::LogicError::FreeVarMismatch);
        }
        let mut dup = free.clone();
        dup.sort_unstable();
        dup.dedup();
        if dup.len() != free.len() {
            return Err(crate::LogicError::FreeVarMismatch);
        }
        validate_arities(&formula, &signature)?;
        Ok(Query {
            signature,
            free,
            formula,
            vars,
        })
    }

    /// The query's arity (number of free variables).
    pub fn arity(&self) -> usize {
        self.free.len()
    }

    /// Whether the query is a sentence.
    pub fn is_sentence(&self) -> bool {
        self.free.is_empty()
    }

    /// `|φ|`: a size measure (number of AST nodes).
    pub fn size(&self) -> usize {
        self.formula.size()
    }
}

fn validate_arities(f: &Formula, sig: &Signature) -> Result<(), crate::LogicError> {
    match f {
        Formula::Atom { rel, args } => {
            if rel.index() >= sig.len() || sig.arity(*rel) != args.len() {
                return Err(crate::LogicError::AtomArity {
                    relation: if rel.index() < sig.len() {
                        sig.name(*rel).to_owned()
                    } else {
                        format!("#{}", rel.0)
                    },
                    expected: if rel.index() < sig.len() {
                        sig.arity(*rel)
                    } else {
                        0
                    },
                    got: args.len(),
                });
            }
            Ok(())
        }
        Formula::True | Formula::False | Formula::Eq(..) | Formula::Dist { .. } => Ok(()),
        Formula::Not(g) => validate_arities(g, sig),
        Formula::And(gs) | Formula::Or(gs) => gs.iter().try_for_each(|g| validate_arities(g, sig)),
        Formula::Exists(_, g) | Formula::Forall(_, g) => validate_arities(g, sig),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Var {
        Var(i)
    }

    #[test]
    fn smart_constructors_flatten() {
        let f = Formula::and([
            Formula::True,
            Formula::And(vec![Formula::Eq(v(0), v(1)), Formula::True]),
            Formula::Eq(v(1), v(2)),
        ]);
        assert_eq!(
            f,
            Formula::And(vec![
                Formula::Eq(v(0), v(1)),
                Formula::True, // nested Ands are spliced verbatim
                Formula::Eq(v(1), v(2)),
            ])
        );
        assert_eq!(Formula::and([]), Formula::True);
        assert_eq!(Formula::or([]), Formula::False);
        assert_eq!(
            Formula::and([Formula::False, Formula::Eq(v(0), v(0))]),
            Formula::False
        );
        assert_eq!(Formula::not(Formula::not(Formula::True)), Formula::True);
    }

    #[test]
    fn free_vars_respect_binding() {
        // exists x1. E(x0, x1) & x2 = x1  → free {x0, x2}
        let sig = Arc::new(Signature::new(&[("E", 2)]));
        let e = sig.rel("E").unwrap();
        let f = Formula::exists(
            vec![v(1)],
            Formula::and([
                Formula::Atom {
                    rel: e,
                    args: vec![v(0), v(1)],
                },
                Formula::Eq(v(2), v(1)),
            ]),
        );
        assert_eq!(f.free_vars(), vec![v(0), v(2)]);
        assert!(!f.is_quantifier_free());
    }

    #[test]
    fn query_validation() {
        let sig = Arc::new(Signature::new(&[("E", 2)]));
        let e = sig.rel("E").unwrap();
        let mut va = VarAlloc::new();
        let x = va.named("x");
        let y = va.named("y");
        let f = Formula::Atom {
            rel: e,
            args: vec![x, y],
        };
        assert!(Query::new(sig.clone(), vec![x, y], f.clone(), va.clone()).is_ok());
        // wrong free list
        assert!(Query::new(sig.clone(), vec![x], f.clone(), va.clone()).is_err());
        // wrong arity atom
        let bad = Formula::Atom {
            rel: e,
            args: vec![x],
        };
        assert!(Query::new(sig, vec![x], bad, va).is_err());
    }

    #[test]
    fn exists_blocks_merge() {
        let f = Formula::exists(
            vec![v(0)],
            Formula::exists(vec![v(1)], Formula::Eq(v(0), v(1))),
        );
        match f {
            Formula::Exists(vs, _) => assert_eq!(vs, vec![v(0), v(1)]),
            other => panic!("expected merged exists, got {other:?}"),
        }
    }

    #[test]
    fn dist_negation_dual() {
        assert_eq!(DistCmp::LessEq.negate(), DistCmp::Greater);
        assert_eq!(DistCmp::Greater.negate(), DistCmp::LessEq);
    }
}
