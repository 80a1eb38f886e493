//! Query-rewrite normalization: a canonical [`NormalForm`] with a stable
//! fingerprint (DESIGN.md §15).
//!
//! Every syntactic variant of a query — shuffled conjuncts, renamed bound
//! variables, doubled negations, flipped `x = y` — pays a full Prop 3.3
//! Step 5 acceptance pass and a separate cache entry unless something
//! collapses them first. [`normalize`] is that something: a deterministic,
//! semantics-preserving rewrite pipeline whose output is identical for all
//! such variants, plus a 64-bit [`NormalForm::fingerprint`] of the result
//! that the engine threads through its artifact-cache keys.
//!
//! The pipeline, in order:
//!
//! 1. **connective simplification** ([`simplify`]): constant folding,
//!    duplicate-atom elimination in ∧/∨, complementary literals, unit
//!    propagation, vacuous-quantifier removal;
//! 2. **negation normal form** ([`nnf`]): double negations collapse, De
//!    Morgan pushes `¬` onto literals, distance guards absorb negation by
//!    flipping their comparison;
//! 3. **quantifier-scope pushdown** (miniscoping): `∃x (φ ∨ ψ)` splits,
//!    `∃x (φ ∧ ψ)` retreats to the conjuncts that actually use `x`
//!    (dually for `∀` over ∧/∨), so a quantifier's scope is minimal;
//! 4. **commutative-argument ordering**: `x = y` and `dist(x,y) ⋈ r` order
//!    their variables ascending;
//! 5. **canonical conjunct/disjunct ordering**: ∧/∨ children sort by a
//!    variable-canonical serialization (free variables tagged by answer
//!    position, every other variable by first occurrence *within the
//!    subtree*), so the order is independent of the input's sibling order
//!    and of variable identities; duplicates revealed by the sort collapse;
//! 6. **α-renaming**: answer variables become `Var(0..k)` in answer order,
//!    bound variables take consecutive ids in first-use order of the sorted
//!    body; quantifier blocks are reordered to match.
//!
//! Steps 4–6 iterate to a fixpoint (sorting can expose new duplicates;
//! renaming can change sort keys), capped at a small bound — the cap is a
//! determinism guarantee, not a correctness one, since every step is
//! semantics-preserving on its own.
//!
//! The result is canonical for the rewrite classes above. It is *not* a
//! decision procedure for FO equivalence (none exists): two queries can be
//! logically equivalent yet normalize differently. Ties between
//! AC-symmetric siblings that serialize identically keep their relative
//! order, which is itself canonical because the serialization sort is
//! stable.

use crate::ast::{DistCmp, Formula, Query, Var, VarAlloc};
use crate::simplify::simplify;
use crate::transform::nnf;
use std::collections::BTreeMap;

/// One rewrite family applied during [`normalize`] (reported through the
/// engine's `--explain`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Rewrite {
    /// Connective simplification changed the formula (constant folding,
    /// atom dedup, complementary literals, unit propagation, vacuous
    /// quantifiers).
    Simplify,
    /// Negation pushdown changed the formula (double negations, De Morgan,
    /// distance-guard comparison flips).
    NegationPushdown,
    /// A quantifier's scope shrank (pushdown through ∨/∧).
    ScopePushdown,
    /// Commutative arguments (`=`, `dist`) were reordered.
    CommuteArgs,
    /// ∧/∨ children were reordered into canonical order (or duplicates
    /// revealed by the ordering were removed).
    SortJunctions,
    /// Variables were renumbered to the canonical numbering.
    AlphaRename,
}

impl Rewrite {
    /// Stable display name (used in `--explain` output and golden files).
    pub fn name(self) -> &'static str {
        match self {
            Rewrite::Simplify => "simplify",
            Rewrite::NegationPushdown => "negation-pushdown",
            Rewrite::ScopePushdown => "scope-pushdown",
            Rewrite::CommuteArgs => "commute-args",
            Rewrite::SortJunctions => "sort-junctions",
            Rewrite::AlphaRename => "alpha-rename",
        }
    }
}

/// One top-level clause (disjunct) of the canonical formula, in its own
/// clause-local canonical form.
///
/// Free variables keep their positional ids `Var(0..k)`; bound variables
/// are renumbered by first occurrence *within the clause*, so the
/// fingerprint is independent of sibling clauses — two queries sharing a
/// clause agree on its fingerprint even when their other clauses differ.
/// A query whose canonical body is not a top-level `∨` has exactly one
/// clause (the whole body).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClauseForm {
    /// The clause with clause-locally canonical variable ids.
    pub formula: Formula,
    /// Process-stable 64-bit fingerprint of the clause-local form —
    /// α-invariant, free-variable-positional, stable under conjunct
    /// reordering (the clause is already sorted) and under disjunct
    /// reordering of the surrounding query (sibling-blind renumbering).
    pub fingerprint: u64,
    /// The canonical serialization the fingerprint hashes: the arity, then
    /// the clause-local form's words with variable ids verbatim. Equal
    /// words mean equal clauses, so a cache keyed by the fingerprint can
    /// store them and verify every hit.
    pub canonical: Box<[u64]>,
}

/// The canonical form of a query: the rewritten [`Query`], the recorded
/// α-renaming, the stable fingerprint, and which rewrite families fired.
#[derive(Clone, Debug)]
pub struct NormalForm {
    /// The normalized query. Free variables are `Var(0..k)` in the original
    /// answer order (display names preserved), so answer tuples of the
    /// normalized query align positionally with the original's.
    pub query: Query,
    /// The recorded α-renaming: original variable → canonical variable, for
    /// every variable of the original query that survives normalization.
    pub renaming: BTreeMap<Var, Var>,
    /// A 64-bit fingerprint of the canonical formula (structure, relation
    /// ids, canonical variable ids, arity — never display names).
    /// Deterministic across processes; two queries in the same rewrite
    /// class always agree.
    pub fingerprint: u64,
    /// The rewrite families that changed the formula, in pipeline order.
    pub rewrites: Vec<Rewrite>,
    /// The canonical body's top-level clauses (disjuncts), each with its
    /// own clause-local fingerprint. Always non-empty; a single-clause
    /// query holds its whole body here.
    pub clauses: Vec<ClauseForm>,
}

impl NormalForm {
    /// Whether normalization was a no-op up to α-renaming.
    pub fn is_trivial(&self) -> bool {
        self.rewrites.is_empty() || self.rewrites == [Rewrite::AlphaRename]
    }

    /// The applied rewrites as stable display names.
    pub fn rewrite_names(&self) -> Vec<&'static str> {
        self.rewrites.iter().map(|r| r.name()).collect()
    }
}

/// Maximum (sort ∘ rename ∘ commute) fixpoint rounds. Two rounds converge
/// in practice; the cap guarantees termination on adversarial inputs.
const MAX_CANON_ROUNDS: usize = 4;

/// Normalize `query` (module docs describe the pipeline).
pub fn normalize(query: &Query) -> NormalForm {
    let mut rewrites: Vec<Rewrite> = Vec::new();
    let record = |step: Rewrite, changed: bool, out: &mut Vec<Rewrite>| {
        if changed && !out.contains(&step) {
            out.push(step);
        }
    };

    // 1–2: simplification, then negation normal form. Simplification may
    // fold a free variable clean out of the formula (`B(x) ∨ ¬B(x)` → ⊤);
    // a query's free list is part of its meaning, so revert the stage when
    // that happens.
    let mut expected_free: Vec<Var> = query.free.clone();
    expected_free.sort_unstable();
    let simplified = simplify(&query.formula);
    let simplified = if simplified.free_vars() == expected_free {
        simplified
    } else {
        query.formula.clone()
    };
    record(
        Rewrite::Simplify,
        simplified != query.formula,
        &mut rewrites,
    );
    let in_nnf = nnf(&simplified);
    record(
        Rewrite::NegationPushdown,
        in_nnf != simplified,
        &mut rewrites,
    );

    // 3: quantifier-scope pushdown.
    let miniscoped = miniscope(&in_nnf);
    record(Rewrite::ScopePushdown, miniscoped != in_nnf, &mut rewrites);

    // 4–6 iterate to a fixpoint: commute → sort → α-rename.
    let mut current = miniscoped;
    let mut renaming: BTreeMap<Var, Var> = BTreeMap::new();
    // After round 0 the formula's free variables are already the canonical
    // `Var(0..k)`; later rounds must seed the renamer with that list, not
    // the original one.
    let canonical_free: Vec<Var> = (0..query.free.len() as u32).map(Var).collect();
    for round in 0..MAX_CANON_ROUNDS {
        let commuted = commute_args(&current);
        record(Rewrite::CommuteArgs, commuted != current, &mut rewrites);
        let sorted = sort_junctions(&commuted);
        record(Rewrite::SortJunctions, sorted != commuted, &mut rewrites);
        let free_seed = if round == 0 {
            &query.free
        } else {
            &canonical_free
        };
        let (renamed, round_map) = alpha_rename(&sorted, free_seed);
        if round == 0 {
            record(Rewrite::AlphaRename, renamed != sorted, &mut rewrites);
            renaming = round_map;
        } else {
            // compose: original → previous canonical → new canonical
            renaming = renaming
                .into_iter()
                .map(|(orig, prev)| (orig, round_map.get(&prev).copied().unwrap_or(prev)))
                .collect();
        }
        let stable = renamed == current;
        current = renamed;
        if stable {
            break;
        }
    }

    // Rebuild the variable table: answer names survive, bound variables get
    // synthesized names.
    let mut vars = VarAlloc::new();
    for (i, &orig) in query.free.iter().enumerate() {
        debug_assert_eq!(renaming.get(&orig).copied(), Some(Var(i as u32)));
        vars.named(&query.vars.name(orig));
    }
    let total_vars = current
        .all_vars()
        .iter()
        .map(|v| v.index() + 1)
        .max()
        .unwrap_or(query.free.len());
    for i in vars.len()..total_vars {
        vars.named(&format!("q{i}"));
    }

    let free: Vec<Var> = (0..query.free.len() as u32).map(Var).collect();
    let fingerprint = fingerprint(&current, free.len());
    let clauses = clause_forms(&current, &free);
    let normalized = Query::new(query.signature.clone(), free, current, vars)
        .expect("normalization preserves free variables and arities");

    NormalForm {
        query: normalized,
        renaming,
        fingerprint,
        rewrites,
        clauses,
    }
}

/// Decompose the canonical body into its top-level disjuncts and put each
/// into clause-local canonical form (see [`ClauseForm`]): free variables
/// keep `Var(0..k)`, bound variables renumber by first occurrence within
/// the clause. For a body that is not a top-level `∨` the single clause is
/// the whole body (its renumbering is the identity, so its fingerprint
/// equals the whole-query fingerprint).
fn clause_forms(body: &Formula, free: &[Var]) -> Vec<ClauseForm> {
    let parts: Vec<&Formula> = match body {
        Formula::Or(gs) => gs.iter().collect(),
        other => vec![other],
    };
    parts
        .into_iter()
        .map(|clause| {
            let (local, _) = alpha_rename(clause, free);
            let canonical = canonical_words(&local, free.len());
            ClauseForm {
                formula: local,
                fingerprint: hash_words(&canonical),
                canonical: canonical.into(),
            }
        })
        .collect()
}

/// Quantifier-scope pushdown on an NNF formula: `∃` distributes over ∨ and
/// retreats to the ∧-conjuncts using it; `∀` dually. Variables of a block
/// push independently, innermost-first.
fn miniscope(f: &Formula) -> Formula {
    match f {
        Formula::True
        | Formula::False
        | Formula::Atom { .. }
        | Formula::Eq(..)
        | Formula::Dist { .. }
        | Formula::Not(_) => f.clone(),
        Formula::And(gs) => Formula::and(gs.iter().map(miniscope)),
        Formula::Or(gs) => Formula::or(gs.iter().map(miniscope)),
        Formula::Exists(vs, g) => {
            let mut body = miniscope(g);
            for &v in vs.iter().rev() {
                body = push_quantifier(true, v, body);
            }
            body
        }
        Formula::Forall(vs, g) => {
            let mut body = miniscope(g);
            for &v in vs.iter().rev() {
                body = push_quantifier(false, v, body);
            }
            body
        }
    }
}

/// Push a single quantified variable as deep as soundness allows.
/// `existential` selects `∃` (splits over ∨, retreats through ∧) or `∀`
/// (splits over ∧, retreats through ∨).
fn push_quantifier(existential: bool, v: Var, body: Formula) -> Formula {
    let free = body.free_vars();
    if free.binary_search(&v).is_err() {
        return body; // vacuous
    }
    let wrap = |g: Formula| {
        if existential {
            Formula::exists(vec![v], g)
        } else {
            Formula::forall(vec![v], g)
        }
    };
    match body {
        // distribution: ∃ over ∨, ∀ over ∧
        Formula::Or(parts) if existential => {
            Formula::or(parts.into_iter().map(|p| push_quantifier(true, v, p)))
        }
        Formula::And(parts) if !existential => {
            Formula::and(parts.into_iter().map(|p| push_quantifier(false, v, p)))
        }
        // retreat: ∃ through ∧ (∀ through ∨) into the parts that use v
        Formula::And(parts) if existential => retreat(true, v, parts),
        Formula::Or(parts) if !existential => retreat(false, v, parts),
        other => wrap(other),
    }
}

/// Factor `Q v` out of the junction members that do not mention `v`:
/// `∃v (φ ∧ ψ)` → `(∃v φ) ∧ ψ` when `v ∉ free(ψ)` (dually `∀` over ∨).
fn retreat(existential: bool, v: Var, parts: Vec<Formula>) -> Formula {
    let (dep, indep): (Vec<Formula>, Vec<Formula>) = parts
        .into_iter()
        .partition(|p| p.free_vars().binary_search(&v).is_ok());
    let dep_join = if existential {
        Formula::and(dep)
    } else {
        Formula::or(dep)
    };
    // recurse only when the dependent block genuinely shrank — otherwise
    // wrapping is final (prevents infinite retreat↔distribute loops)
    let quantified = if indep.is_empty() {
        if existential {
            Formula::exists(vec![v], dep_join)
        } else {
            Formula::forall(vec![v], dep_join)
        }
    } else {
        push_quantifier(existential, v, dep_join)
    };
    if existential {
        Formula::and(indep.into_iter().chain([quantified]))
    } else {
        Formula::or(indep.into_iter().chain([quantified]))
    }
}

/// Order the arguments of commutative primitives (`=`, `dist`) ascending.
fn commute_args(f: &Formula) -> Formula {
    match f {
        Formula::True | Formula::False | Formula::Atom { .. } => f.clone(),
        Formula::Eq(x, y) => {
            if x <= y {
                f.clone()
            } else {
                Formula::Eq(*y, *x)
            }
        }
        Formula::Dist { x, y, cmp, r } => {
            if x <= y {
                f.clone()
            } else {
                Formula::Dist {
                    x: *y,
                    y: *x,
                    cmp: *cmp,
                    r: *r,
                }
            }
        }
        Formula::Not(g) => Formula::not(commute_args(g)),
        Formula::And(gs) => Formula::and(gs.iter().map(commute_args)),
        Formula::Or(gs) => Formula::or(gs.iter().map(commute_args)),
        Formula::Exists(vs, g) => Formula::exists(vs.clone(), commute_args(g)),
        Formula::Forall(vs, g) => Formula::forall(vs.clone(), commute_args(g)),
    }
}

/// Sort ∧/∨ children by their canonical serialization and drop duplicates
/// the sort reveals. The primary key (see [`serialize_into`]) is blind to
/// variable identities, so the order does not depend on the input's
/// numbering; ties — structurally identical subtrees over different
/// variables, e.g. `E(x,y)` vs `E(y,z)` — break by the *current* variable
/// ids ([`identity_serialize`]). On the first pass those ids are the
/// input's (arbitrary), but the canonicalization fixpoint re-sorts after
/// α-renaming has assigned canonical ids, and that second pass orders
/// tied siblings identically for every member of a rewrite class.
fn sort_junctions(f: &Formula) -> Formula {
    match f {
        Formula::True
        | Formula::False
        | Formula::Atom { .. }
        | Formula::Eq(..)
        | Formula::Dist { .. } => f.clone(),
        Formula::Not(g) => Formula::not(sort_junctions(g)),
        Formula::And(gs) | Formula::Or(gs) => {
            let is_and = matches!(f, Formula::And(_));
            // (alpha-invariant structural code, identity serialization)
            type SiblingKey = (Vec<u64>, Vec<u64>);
            let mut sorted: Vec<(SiblingKey, Formula)> = gs
                .iter()
                .map(sort_junctions)
                .map(|g| {
                    let mut ids = Vec::new();
                    identity_serialize(&g, &mut ids);
                    ((canonical_key(&g), ids), g)
                })
                .collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            sorted.dedup_by(|a, b| a == b);
            let children = sorted.into_iter().map(|(_, g)| g);
            if is_and {
                Formula::and(children)
            } else {
                Formula::or(children)
            }
        }
        Formula::Exists(vs, g) => Formula::exists(vs.clone(), sort_junctions(g)),
        Formula::Forall(vs, g) => Formula::forall(vs.clone(), sort_junctions(g)),
    }
}

/// Serialization opcode space. Variables encode as `VAR_BASE + local id`
/// where local ids are first-occurrence indices within the serialized
/// subtree — invariant under global renaming and sibling order.
const OP_TRUE: u64 = 1;
const OP_FALSE: u64 = 2;
const OP_ATOM: u64 = 3;
const OP_EQ: u64 = 4;
const OP_DIST_LE: u64 = 5;
const OP_DIST_GT: u64 = 6;
const OP_NOT: u64 = 7;
const OP_AND: u64 = 8;
const OP_OR: u64 = 9;
const OP_EXISTS: u64 = 10;
const OP_FORALL: u64 = 11;
const OP_END: u64 = 12;
const VAR_BASE: u64 = 1 << 32;

/// The subtree-local canonical serialization of `f` used as a sort key.
fn canonical_key(f: &Formula) -> Vec<u64> {
    let mut out = Vec::new();
    let mut local: BTreeMap<Var, u64> = BTreeMap::new();
    serialize_into(f, &mut local, &mut out);
    out
}

/// Append `f`'s serialization to `out`, numbering variables by first
/// occurrence via `local`.
fn serialize_into(f: &Formula, local: &mut BTreeMap<Var, u64>, out: &mut Vec<u64>) {
    let var_code = |v: Var, local: &mut BTreeMap<Var, u64>| -> u64 {
        let next = local.len() as u64;
        VAR_BASE + *local.entry(v).or_insert(next)
    };
    match f {
        Formula::True => out.push(OP_TRUE),
        Formula::False => out.push(OP_FALSE),
        Formula::Atom { rel, args } => {
            out.push(OP_ATOM);
            out.push(rel.0 as u64);
            for &a in args {
                let c = var_code(a, local);
                out.push(c);
            }
        }
        Formula::Eq(x, y) => {
            out.push(OP_EQ);
            let cx = var_code(*x, local);
            out.push(cx);
            let cy = var_code(*y, local);
            out.push(cy);
        }
        Formula::Dist { x, y, cmp, r } => {
            out.push(match cmp {
                DistCmp::LessEq => OP_DIST_LE,
                DistCmp::Greater => OP_DIST_GT,
            });
            out.push(*r as u64);
            let cx = var_code(*x, local);
            out.push(cx);
            let cy = var_code(*y, local);
            out.push(cy);
        }
        Formula::Not(g) => {
            out.push(OP_NOT);
            serialize_into(g, local, out);
        }
        Formula::And(gs) | Formula::Or(gs) => {
            out.push(if matches!(f, Formula::And(_)) {
                OP_AND
            } else {
                OP_OR
            });
            for g in gs {
                serialize_into(g, local, out);
            }
            out.push(OP_END);
        }
        Formula::Exists(vs, g) | Formula::Forall(vs, g) => {
            out.push(if matches!(f, Formula::Exists(..)) {
                OP_EXISTS
            } else {
                OP_FORALL
            });
            out.push(vs.len() as u64);
            // block variables number by first use in the body: serialize
            // the body first into a scratch, then emit
            serialize_into(g, local, out);
            out.push(OP_END);
        }
    }
}

/// Canonical α-renaming: answer variables map to `Var(0..k)` in answer
/// order; every other variable takes the next id at its first occurrence in
/// a pre-order traversal of the (sorted) formula. Quantifier blocks reorder
/// to their variables' first-use order in the body. Returns the rewritten
/// formula and the original → canonical map.
fn alpha_rename(f: &Formula, free: &[Var]) -> (Formula, BTreeMap<Var, Var>) {
    let mut map: BTreeMap<Var, Var> = BTreeMap::new();
    for (i, &v) in free.iter().enumerate() {
        map.insert(v, Var(i as u32));
    }
    let mut next = free.len() as u32;
    // first pass: assign ids in traversal order (binders counted at their
    // block, in the order the body first uses them)
    assign_ids(f, &mut map, &mut next);
    let renamed = apply_renaming(f, &map);
    (renamed, map)
}

fn assign_ids(f: &Formula, map: &mut BTreeMap<Var, Var>, next: &mut u32) {
    let touch = |v: Var, map: &mut BTreeMap<Var, Var>, next: &mut u32| {
        map.entry(v).or_insert_with(|| {
            let id = Var(*next);
            *next += 1;
            id
        });
    };
    match f {
        Formula::True | Formula::False => {}
        Formula::Atom { args, .. } => {
            for &a in args {
                touch(a, map, next);
            }
        }
        Formula::Eq(x, y) | Formula::Dist { x, y, .. } => {
            touch(*x, map, next);
            touch(*y, map, next);
        }
        Formula::Not(g) => assign_ids(g, map, next),
        Formula::And(gs) | Formula::Or(gs) => {
            for g in gs {
                assign_ids(g, map, next);
            }
        }
        Formula::Exists(_, g) | Formula::Forall(_, g) => {
            // binder ids come from body first-use order
            assign_ids(g, map, next);
        }
    }
}

fn apply_renaming(f: &Formula, map: &BTreeMap<Var, Var>) -> Formula {
    let get = |v: Var| map.get(&v).copied().unwrap_or(v);
    match f {
        Formula::True | Formula::False => f.clone(),
        Formula::Atom { rel, args } => Formula::Atom {
            rel: *rel,
            args: args.iter().map(|&a| get(a)).collect(),
        },
        Formula::Eq(x, y) => Formula::Eq(get(*x), get(*y)),
        Formula::Dist { x, y, cmp, r } => Formula::Dist {
            x: get(*x),
            y: get(*y),
            cmp: *cmp,
            r: *r,
        },
        Formula::Not(g) => Formula::not(apply_renaming(g, map)),
        Formula::And(gs) => Formula::and(gs.iter().map(|g| apply_renaming(g, map))),
        Formula::Or(gs) => Formula::or(gs.iter().map(|g| apply_renaming(g, map))),
        Formula::Exists(vs, g) | Formula::Forall(vs, g) => {
            let mut block: Vec<Var> = vs.iter().map(|&v| get(v)).collect();
            block.sort_unstable(); // first-use order = ascending canonical id
            let body = apply_renaming(g, map);
            if matches!(f, Formula::Exists(..)) {
                Formula::exists(block, body)
            } else {
                Formula::forall(block, body)
            }
        }
    }
}

/// Stable 64-bit fingerprint of a canonical formula: FxHash-style mixing of
/// the canonical serialization plus the arity, with no per-process seed —
/// the same mixer discipline as `Structure::fingerprint`, so the pair
/// (structure fingerprint, query fingerprint) is a stable cross-process
/// cache key.
fn fingerprint(f: &Formula, arity: usize) -> u64 {
    hash_words(&canonical_words(f, arity))
}

/// The words [`fingerprint`] hashes: the arity, then the identity
/// serialization. Canonical ids are already assigned, so identity
/// serialization (not the subtree-local one) is what distinguishes e.g.
/// `E(x,y)` from `E(y,x)`.
fn canonical_words(f: &Formula, arity: usize) -> Vec<u64> {
    let mut out = vec![arity as u64];
    identity_serialize(f, &mut out);
    out
}

fn hash_words(words: &[u64]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h: u64 = 0xd6e8_feb8_6659_fd93;
    for &w in words {
        h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    }
    h
}

/// Serialization with variable ids emitted verbatim (the formula is already
/// canonically renamed when this runs).
fn identity_serialize(f: &Formula, out: &mut Vec<u64>) {
    match f {
        Formula::True => out.push(OP_TRUE),
        Formula::False => out.push(OP_FALSE),
        Formula::Atom { rel, args } => {
            out.push(OP_ATOM);
            out.push(rel.0 as u64);
            out.extend(args.iter().map(|a| VAR_BASE + a.0 as u64));
        }
        Formula::Eq(x, y) => {
            out.push(OP_EQ);
            out.push(VAR_BASE + x.0 as u64);
            out.push(VAR_BASE + y.0 as u64);
        }
        Formula::Dist { x, y, cmp, r } => {
            out.push(match cmp {
                DistCmp::LessEq => OP_DIST_LE,
                DistCmp::Greater => OP_DIST_GT,
            });
            out.push(*r as u64);
            out.push(VAR_BASE + x.0 as u64);
            out.push(VAR_BASE + y.0 as u64);
        }
        Formula::Not(g) => {
            out.push(OP_NOT);
            identity_serialize(g, out);
        }
        Formula::And(gs) | Formula::Or(gs) => {
            out.push(if matches!(f, Formula::And(_)) {
                OP_AND
            } else {
                OP_OR
            });
            for g in gs {
                identity_serialize(g, out);
            }
            out.push(OP_END);
        }
        Formula::Exists(vs, g) | Formula::Forall(vs, g) => {
            out.push(if matches!(f, Formula::Exists(..)) {
                OP_EXISTS
            } else {
                OP_FORALL
            });
            out.extend(vs.iter().map(|v| VAR_BASE + v.0 as u64));
            identity_serialize(g, out);
            out.push(OP_END);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;
    use lowdeg_storage::Signature;
    use std::sync::Arc;

    fn sig() -> Arc<Signature> {
        Arc::new(Signature::new(&[("E", 2), ("B", 1), ("R", 1)]))
    }

    fn norm(src: &str) -> NormalForm {
        normalize(&parse_query(&sig(), src).unwrap())
    }

    #[test]
    fn conjunct_order_is_canonical() {
        // Variants keep the same first-occurrence order (x before y) so the
        // answer columns — part of the query's meaning — agree; only the
        // conjunct order differs.
        let a = norm("B(x) & E(x, y) & R(y)");
        let b = norm("B(x) & R(y) & E(x, y)");
        let c = norm("E(x, y) & R(y) & B(x)");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.fingerprint, c.fingerprint);
        assert_eq!(a.query.formula, b.query.formula);
        assert_eq!(a.query.formula, c.query.formula);
    }

    #[test]
    fn tied_conjuncts_break_on_canonical_ids() {
        // The three ¬E atoms are structurally identical (identical
        // subtree-local keys); only the identity tie-break in the second
        // fixpoint round orders them the same way for every permutation.
        let sig = Arc::new(Signature::new(&[("E", 2), ("B", 1), ("R", 1), ("G", 1)]));
        let a = normalize(
            &parse_query(&sig, "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)").unwrap(),
        );
        let b = normalize(
            &parse_query(&sig, "B(x) & R(y) & G(z) & !E(x, z) & !E(y, z) & !E(x, y)").unwrap(),
        );
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.query.formula, b.query.formula);
    }

    #[test]
    fn bound_variable_names_are_immaterial() {
        let a = norm("exists z. E(x, z) & E(z, y)");
        let b = norm("exists w. E(x, w) & E(w, y)");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.query.formula, b.query.formula);
    }

    #[test]
    fn double_negation_collapses() {
        let a = norm("!!B(x)");
        let b = norm("B(x)");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert!(a.rewrites.contains(&Rewrite::NegationPushdown) || a.is_trivial());
    }

    #[test]
    fn eq_args_commute() {
        let a = norm("E(x, y) & x = y");
        let b = norm("E(x, y) & y = x");
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn dist_args_commute() {
        let a = norm("E(x, y) & dist(x, y) <= 2");
        let b = norm("E(x, y) & dist(y, x) <= 2");
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn duplicate_conjuncts_dedup() {
        let a = norm("B(x) & B(x)");
        let b = norm("B(x)");
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn answer_positions_stay_distinguished() {
        // The same formula with transposed answer columns is a different
        // query and must fingerprint differently: free = [x, y]
        // canonicalizes E(x, y) to E(v0, v1); free = [y, x] to E(v1, v0).
        // (The text syntax can't express the transposed variant — free order
        // is first occurrence — so build the queries directly.)
        let sg = sig();
        let e = sg.rel("E").unwrap();
        let mut vars = VarAlloc::new();
        let x = vars.named("x");
        let y = vars.named("y");
        let formula = Formula::Atom {
            rel: e,
            args: vec![x, y],
        };
        let a = Query::new(sg.clone(), vec![x, y], formula.clone(), vars.clone()).unwrap();
        let b = Query::new(sg.clone(), vec![y, x], formula, vars).unwrap();
        assert_ne!(normalize(&a).fingerprint, normalize(&b).fingerprint);
    }

    #[test]
    fn free_vars_are_positional() {
        let nf = norm("exists z. E(x, z) & E(z, y)");
        assert_eq!(nf.query.free, vec![Var(0), Var(1)]);
        assert_eq!(nf.query.vars.name(Var(0)), "x");
        assert_eq!(nf.query.vars.name(Var(1)), "y");
    }

    #[test]
    fn scope_pushdown_fires() {
        // ∃z (B(z) ∨ R(z)) splits into (∃z B(z)) ∨ (∃z R(z))
        let nf = norm("B(x) & (exists z. (B(z) | R(z)))");
        assert!(nf.rewrites.contains(&Rewrite::ScopePushdown), "{nf:?}");
    }

    #[test]
    fn miniscope_retreats_through_and() {
        // ∃z (B(x) ∧ E(x,z)) → B(x) ∧ ∃z E(x,z)
        let nf = norm("exists z. B(x) & E(x, z)");
        match &nf.query.formula {
            Formula::And(parts) => {
                assert!(parts.iter().any(|p| matches!(p, Formula::Exists(..))));
                assert!(parts.iter().any(|p| matches!(p, Formula::Atom { .. })));
            }
            other => panic!("expected top-level And, got {other:?}"),
        }
    }

    #[test]
    fn normalization_is_idempotent() {
        for src in [
            "exists z. E(x, z) & E(z, y)",
            "B(x) & (E(x, y) | R(y))",
            "forall z. E(x, z) -> B(z)",
            "!(B(x) & !R(x))",
        ] {
            let once = norm(src);
            let twice = normalize(&once.query);
            assert_eq!(once.fingerprint, twice.fingerprint, "`{src}`");
            assert_eq!(once.query.formula, twice.query.formula, "`{src}`");
            assert!(twice.is_trivial(), "`{src}`: {:?}", twice.rewrites);
        }
    }

    #[test]
    fn renaming_covers_free_vars() {
        let q = parse_query(&sig(), "exists z. E(x, z) & E(z, y)").unwrap();
        let nf = normalize(&q);
        for (i, &orig) in q.free.iter().enumerate() {
            assert_eq!(nf.renaming.get(&orig), Some(&Var(i as u32)));
        }
    }

    #[test]
    fn semantics_preserved_on_small_structures() {
        use crate::eval::{eval, Assignment};
        use lowdeg_storage::{node, Structure};
        let sg = sig();
        let e = sg.rel("E").unwrap();
        let b_ = sg.rel("B").unwrap();
        let r_ = sg.rel("R").unwrap();
        let mut builder = Structure::builder(sg.clone(), 4);
        builder.undirected_edge(e, node(0), node(1)).unwrap();
        builder.undirected_edge(e, node(1), node(2)).unwrap();
        builder.fact(b_, &[node(1)]).unwrap();
        builder.fact(r_, &[node(3)]).unwrap();
        let s = builder.finish().unwrap();

        for src in [
            "exists z. E(x, z) & E(z, y)",
            "B(x) & (E(x, y) | R(y))",
            "forall z. E(x, z) -> B(z)",
            "!(B(x) & !R(x)) & E(x, y)",
            "exists z w. E(x, z) & E(z, w) & E(w, y)",
        ] {
            let q = parse_query(&sg, src).unwrap();
            let nf = normalize(&q);
            for a in s.domain() {
                for b in s.domain() {
                    if q.arity() != 2 {
                        continue;
                    }
                    let mut asg1 = Assignment::default();
                    asg1.bind(q.free[0], a);
                    asg1.bind(q.free[1], b);
                    let mut asg2 = Assignment::default();
                    asg2.bind(nf.query.free[0], a);
                    asg2.bind(nf.query.free[1], b);
                    assert_eq!(
                        eval(&s, &q.formula, &mut asg1),
                        eval(&s, &nf.query.formula, &mut asg2),
                        "`{src}` at ({a}, {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn single_clause_fingerprint_matches_query() {
        let nf = norm("B(x) & E(x, y) & R(y)");
        assert_eq!(nf.clauses.len(), 1);
        assert_eq!(nf.clauses[0].fingerprint, nf.fingerprint);
    }

    #[test]
    fn clause_fingerprints_survive_conjunct_permutation() {
        let a = norm("(B(x) & R(y)) | (R(x) & B(y))");
        let b = norm("(R(y) & B(x)) | (B(y) & R(x))");
        assert_eq!(a.clauses.len(), 2);
        let fps = |nf: &NormalForm| nf.clauses.iter().map(|c| c.fingerprint).collect::<Vec<_>>();
        assert_eq!(fps(&a), fps(&b));
    }

    #[test]
    fn clause_fingerprints_are_sibling_blind() {
        // The shared clause `B(x) & R(y)` must fingerprint identically no
        // matter which other clause it is disjoined with — bound and free
        // numbering is clause-local.
        let sig = Arc::new(Signature::new(&[("E", 2), ("B", 1), ("R", 1), ("G", 1)]));
        let a = normalize(&parse_query(&sig, "(B(x) & R(y)) | (G(x) & G(y))").unwrap());
        let b = normalize(&parse_query(&sig, "(B(x) & R(y)) | (R(x) & G(y))").unwrap());
        assert_ne!(a.fingerprint, b.fingerprint);
        let shared_a: Vec<u64> = a.clauses.iter().map(|c| c.fingerprint).collect();
        let shared_b: Vec<u64> = b.clauses.iter().map(|c| c.fingerprint).collect();
        let common: Vec<u64> = shared_a
            .iter()
            .filter(|fp| shared_b.contains(fp))
            .copied()
            .collect();
        assert_eq!(common.len(), 1, "exactly one shared clause: {a:?} {b:?}");
    }

    #[test]
    fn clause_fingerprints_ignore_bound_names_and_disjunct_order() {
        let a = norm("(exists z. E(x, z) & E(z, y)) | (B(x) & R(y))");
        let b = norm("(B(x) & R(y)) | (exists w. E(x, w) & E(w, y))");
        let mut fa: Vec<u64> = a.clauses.iter().map(|c| c.fingerprint).collect();
        let mut fb: Vec<u64> = b.clauses.iter().map(|c| c.fingerprint).collect();
        fa.sort_unstable();
        fb.sort_unstable();
        assert_eq!(fa, fb);
        // and the canonical disjunct order itself is input-order-blind
        let ga: Vec<u64> = a.clauses.iter().map(|c| c.fingerprint).collect();
        let gb: Vec<u64> = b.clauses.iter().map(|c| c.fingerprint).collect();
        assert_eq!(ga, gb);
        // the canonical words are what the fingerprints hash, so they agree
        // exactly where the fingerprints do
        for (ca, cb) in a.clauses.iter().zip(&b.clauses) {
            assert_eq!(ca.canonical, cb.canonical);
            assert_eq!(hash_words(&ca.canonical), ca.fingerprint);
        }
        assert_ne!(a.clauses[0].canonical, a.clauses[1].canonical);
    }

    #[test]
    fn fingerprint_is_stable() {
        // pinned value: changing the serialization or mixer is a cache
        // compatibility break and must be deliberate
        let a = norm("E(x, y)");
        let b = norm("E(x, y)");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(a.fingerprint, 0);
    }
}
