//! Counting answers: Lemma 3.5 and Proposition 3.6 (Theorem 2.5).
//!
//! The reduced query is a disjunction of mutually exclusive clauses, so
//! `|ψ(G)| = Σ_j |θ_j(G)|`. Each clause is a *generalized conjunction*
//! (colors per position plus pairwise `¬E`); its count is obtained by the
//! paper's inclusion–exclusion on negated binary atoms —
//! `|γ₁ ∧ ¬E| = |γ₁| − |γ₁ ∧ E|` — recursing until only positive atoms
//! remain, at which point the query graph splits into connected components,
//! each counted by Lemma 3.1 ([`crate::connected_cq`]) and multiplied.

use crate::connected_cq::{count_connected, ConnectedError};
use crate::graph_query::{GraphClause, GraphQuery, PositionMemo};
use crate::EngineError;
use lowdeg_index::{FxHashMap, SliceInterner};
use lowdeg_logic::{DistCmp, Formula, Var};
use lowdeg_par::{par_chunks, par_map, ParConfig};
use lowdeg_storage::{Node, RelId, Structure};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Count the answers of a *generalized conjunction* (Lemma 3.5): conjuncts
/// may be positive atoms, negated atoms of any arity, equalities and
/// distance guards, over the answer variables `free` (no existentials).
///
/// Runtime `O(2^m · |γ| · n · d^h)` where `m` counts the negated non-unary
/// conjuncts. The count is exact: a count that does not fit `u64` is
/// [`ConnectedError::CountOverflow`].
pub fn count_conjunction(
    structure: &Structure,
    free: &[Var],
    conjuncts: &[Formula],
) -> Result<u64, ConnectedError> {
    u64::try_from(conjunction_count(structure, free, conjuncts)?)
        .map_err(|_| ConnectedError::CountOverflow)
}

/// [`count_conjunction`] in `u128`: the inclusion–exclusion recursion.
fn conjunction_count(
    structure: &Structure,
    free: &[Var],
    conjuncts: &[Formula],
) -> Result<u128, ConnectedError> {
    // find a negated binary-or-wider atom / negated equality / far-distance
    // guard to eliminate
    let target = conjuncts.iter().position(|c| match c {
        Formula::Not(inner) => match &**inner {
            Formula::Atom { args, .. } => args.len() >= 2,
            Formula::Eq(..) => true,
            _ => false,
        },
        Formula::Dist {
            cmp: DistCmp::Greater,
            ..
        } => true,
        _ => false,
    });

    match target {
        Some(i) => {
            // γ = γ₁ ∧ ¬α  ⇒  |γ| = |γ₁| − |γ₁ ∧ α|
            let mut without: Vec<Formula> = conjuncts.to_vec();
            let negated = without.remove(i);
            let positive = match &negated {
                Formula::Not(inner) => (**inner).clone(),
                Formula::Dist { x, y, r, .. } => Formula::Dist {
                    x: *x,
                    y: *y,
                    cmp: DistCmp::LessEq,
                    r: *r,
                },
                _ => unreachable!("target matched a negated shape"),
            };
            let mut with: Vec<Formula> = without.clone();
            with.push(positive);
            let a = conjunction_count(structure, free, &without)?;
            let b = conjunction_count(structure, free, &with)?;
            debug_assert!(a >= b, "positive refinement cannot grow the count");
            Ok(a - b)
        }
        None => count_positive(structure, free, conjuncts),
    }
}

/// Base case: only positive atoms, (negated) unary atoms, equalities and
/// `≤`-distance guards remain. Split into connected components of the query
/// graph and multiply the per-component counts (Lemma 3.1 per component).
fn count_positive(
    structure: &Structure,
    free: &[Var],
    conjuncts: &[Formula],
) -> Result<u128, ConnectedError> {
    // constants short-circuit
    if conjuncts.iter().any(|c| matches!(c, Formula::False)) {
        return Ok(0);
    }
    let conjuncts: Vec<&Formula> = conjuncts
        .iter()
        .filter(|c| !matches!(c, Formula::True))
        .collect();

    // union-find over `free` using positive links
    let idx_of = |v: Var| {
        free.iter()
            .position(|&w| w == v)
            .expect("conjunct variables must be answer variables")
    };
    let mut parent: Vec<usize> = (0..free.len()).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let r = find(parent, parent[i]);
            parent[i] = r;
        }
        parent[i]
    }
    for c in &conjuncts {
        let vars: Vec<Var> = c.free_vars();
        for w in vars.windows(2) {
            let (a, b) = (
                find(&mut parent, idx_of(w[0])),
                find(&mut parent, idx_of(w[1])),
            );
            if a != b {
                parent[a] = b;
            }
        }
    }

    // group positions and conjuncts by component
    let mut roots: Vec<usize> = (0..free.len()).map(|i| find(&mut parent, i)).collect();
    let distinct: BTreeSet<usize> = roots.iter().copied().collect();
    let mut total: u128 = 1;
    for root in distinct {
        let comp_vars: Vec<Var> = (0..free.len())
            .filter(|&i| roots[i] == root)
            .map(|i| free[i])
            .collect();
        let comp_conjuncts: Vec<Formula> = conjuncts
            .iter()
            .filter(|c| {
                c.free_vars()
                    .first()
                    .map(|&v| roots[idx_of(v)] == root)
                    .unwrap_or(false)
            })
            .map(|c| (*c).clone())
            .collect();
        let count = if comp_conjuncts.is_empty() {
            // unconstrained position: every node qualifies
            debug_assert_eq!(comp_vars.len(), 1);
            structure.cardinality() as u64
        } else {
            count_connected(structure, &comp_vars, &[], &comp_conjuncts)?
        };
        total = total
            .checked_mul(count.into())
            .ok_or(ConnectedError::CountOverflow)?;
        if total == 0 {
            return Ok(0);
        }
    }
    roots.clear();
    Ok(total)
}

/// A bitset over graph vertices, used for constant-time color-list
/// membership during clause counting.
struct NodeSet {
    words: Vec<u64>,
    len: u64,
}

impl NodeSet {
    fn from_sorted(n: usize, list: &[Node]) -> Self {
        let mut words = vec![0u64; n.div_ceil(64)];
        for v in list {
            words[v.index() / 64] |= 1 << (v.index() % 64);
        }
        NodeSet {
            words,
            len: list.len() as u64,
        }
    }

    #[inline]
    fn contains(&self, v: Node) -> bool {
        self.words[v.index() / 64] >> (v.index() % 64) & 1 == 1
    }
}

/// Count the answers of one reduced clause `θ_j` over the colored graph:
/// per-position colors plus the pairwise `¬E` of `ψ₁`.
///
/// This is [`count_graph_query`]'s batched Lemma 3.5 pass over a query of
/// one clause: the same lattice, jobs, memo probes and grouped anchored
/// walks, so the count is the one the engine computes for this clause. A
/// count that does not fit `u64` is [`EngineError::CountOverflow`].
pub fn count_clause(
    graph: &Structure,
    gq: &GraphQuery,
    clause: &GraphClause,
    adjacency: &crate::enumerate::EdgeAdjacency,
    par: &ParConfig,
    memo: Option<&CountingMemo>,
    positions: &PositionMemo,
) -> Result<u64, EngineError> {
    let table = CandidateTable::build(graph, positions, [clause], par);
    let counts = count_clauses(&table, adjacency, gq.k, &[clause], par, memo)?;
    Ok(counts[0])
}

/// The per-term reference evaluation of Lemma 3.5: nested differences, each
/// term's positive part counted from scratch. Kept as the differential
/// oracle for the batched pass (see `tests/lattice_ie.rs`); the production
/// path is [`count_graph_query`].
///
/// # Panics
///
/// If the exact count does not fit `u64` (the oracle has no error path).
pub fn count_clause_per_term(
    graph: &Structure,
    gq: &GraphQuery,
    clause: &GraphClause,
    adjacency: &crate::enumerate::EdgeAdjacency,
) -> u64 {
    oracle_walk(graph, gq, clause, |lists, sets, neg| {
        let total = ie_count(adjacency, lists, sets, &mut Vec::new(), neg)?;
        u64::try_from(total).map_err(|_| EngineError::CountOverflow)
    })
}

/// The per-clause Gray-code walk over the full lattice, one clause at a
/// time. Oracle entry: the `latticecheck` row of the conformance oracle
/// table compares this, the sliced walk ([`count_clause_lattice_sliced`]),
/// the per-term evaluation ([`count_clause_per_term`]) and the engine's
/// batched pass ([`count_graph_query`]) — all must agree exactly.
///
/// # Panics
///
/// If the exact count does not fit `u64` (the oracle has no error path).
pub fn count_clause_lattice_serial(
    graph: &Structure,
    gq: &GraphQuery,
    clause: &GraphClause,
    adjacency: &crate::enumerate::EdgeAdjacency,
) -> u64 {
    oracle_walk(graph, gq, clause, |lists, sets, neg| {
        exact_count(lattice_sum_single(
            adjacency,
            lists,
            sets,
            neg,
            &ParConfig::serial(),
        )?)
    })
}

/// The per-clause walk sliced by an explicit slice-bit count, forced even
/// when the pool would run serially. `bits` is clamped to `[1, m]` (with
/// `m = 0` falling back to the single walk). Oracle entry, like
/// [`count_clause_lattice_serial`].
///
/// # Panics
///
/// If the exact count does not fit `u64` (the oracle has no error path).
pub fn count_clause_lattice_sliced(
    graph: &Structure,
    gq: &GraphQuery,
    clause: &GraphClause,
    adjacency: &crate::enumerate::EdgeAdjacency,
    bits: usize,
    par: &ParConfig,
) -> u64 {
    oracle_walk(graph, gq, clause, |lists, sets, neg| {
        let total = match neg.len() {
            0 => lattice_sum_single(adjacency, lists, sets, neg, &ParConfig::serial()),
            m => lattice_sum_sliced(adjacency, lists, sets, neg, bits.clamp(1, m), par),
        };
        exact_count(total?)
    })
}

/// Run one oracle's walk over `clause`'s lists (from a fresh memo), their
/// bitsets and its negated pairs: the exact count, or a panic naming why
/// there is none.
fn oracle_walk(
    graph: &Structure,
    gq: &GraphQuery,
    clause: &GraphClause,
    walk: impl FnOnce(&[Arc<Vec<Node>>], &[&NodeSet], &[(usize, usize)]) -> Result<u64, EngineError>,
) -> u64 {
    let table = CandidateTable::build(graph, &PositionMemo::new(), [clause], &ParConfig::serial());
    let lists: Vec<Arc<Vec<Node>>> = table
        .ids(clause)
        .into_iter()
        .map(|l| Arc::clone(&table.lists[l as usize]))
        .collect();
    let sets: Vec<NodeSet> = lists
        .iter()
        .map(|list| NodeSet::from_sorted(table.nodes, list))
        .collect();
    let sets: Vec<&NodeSet> = sets.iter().collect();
    walk(&lists, &sets, &negated_pairs(gq.k)).unwrap_or_else(|e| panic!("oracle count failed: {e}"))
}

/// The exact `u64` count behind a signed inclusion–exclusion total: too
/// large is [`EngineError::CountOverflow`], negative is an internal error
/// (inclusion–exclusion over exact counts cannot go below zero).
fn exact_count(total: i128) -> Result<u64, EngineError> {
    if total < 0 {
        return Err(EngineError::Internal(format!(
            "inclusion–exclusion total {total} is negative"
        )));
    }
    u64::try_from(total).map_err(|_| EngineError::CountOverflow)
}

/// All unordered position pairs of a `k`-ary clause: every pair starts
/// negated (`ψ₁`), and inclusion–exclusion flips them to positive edges
/// one by one.
fn negated_pairs(k: usize) -> Vec<(usize, usize)> {
    (0..k)
        .flat_map(|i| ((i + 1)..k).map(move |j| (i, j)))
        .collect()
}

/// The candidate lists one counting call reads, one entry per distinct
/// position color set of the clauses it counts.
///
/// The lists are the build's [`PositionMemo`] entries (shared with the
/// enumerator). Membership bitsets are not kept here: the batched pass
/// builds one only for a list some grouped walk reaches through an inner
/// member, and drops it with the call.
struct CandidateTable<'c> {
    index: FxHashMap<&'c [RelId], u32>,
    /// The distinct color sets, in list-id order.
    colors: Vec<&'c [RelId]>,
    lists: Vec<Arc<Vec<Node>>>,
    /// Vertex count of the colored graph.
    nodes: usize,
}

impl<'c> CandidateTable<'c> {
    /// Dedup the color sets of `clauses`, then read each distinct set's
    /// list from `positions`, fanned over `par`. The memo's lock is taken
    /// once per distinct set here, so the counting that follows is
    /// lock-free.
    fn build(
        graph: &Structure,
        positions: &PositionMemo,
        clauses: impl IntoIterator<Item = &'c GraphClause>,
        par: &ParConfig,
    ) -> Self {
        let mut index: FxHashMap<&'c [RelId], u32> = FxHashMap::default();
        let mut colors: Vec<&'c [RelId]> = Vec::new();
        for clause in clauses {
            for set in &clause.colors {
                index.entry(set.as_slice()).or_insert_with(|| {
                    colors.push(set);
                    (colors.len() - 1) as u32
                });
            }
        }
        let lists = par_map(par, &colors, |set| positions.position_list(graph, set));
        CandidateTable {
            index,
            colors,
            lists,
            nodes: graph.cardinality(),
        }
    }

    /// `clause`'s per-position list ids.
    fn ids(&self, clause: &GraphClause) -> Vec<u32> {
        clause
            .colors
            .iter()
            .map(|set| self.index[set.as_slice()])
            .collect()
    }

    fn len_of(&self, list: u32) -> usize {
        self.lists[list as usize].len()
    }
}

/// Separator between the member run and the edge run of a component
/// signature (cannot collide with a position index: `k ≤ 64`).
const SIG_SEP: u32 = u32::MAX;

/// One distinct lattice component: its member positions (ascending) and
/// its positive edges as position pairs.
struct Component {
    members: Vec<usize>,
    edges: Vec<(usize, usize)>,
}

/// Cross-query memo of distinct lattice-component counts — the *counting
/// core* layered on top of a shared [`crate::ReductionCore`].
///
/// A component's count depends only on the candidate list behind each of
/// its positions (a set of color relations over the fixed colored graph)
/// and the positive-`E`-edge pattern among them — not on which clause,
/// query, or lattice term it came from. Keying by that canonical
/// *component signature* lets every build against the same core reuse
/// counts across clauses, across lattice terms, and across different
/// queries whose clauses realize the same color combinations. An
/// [`crate::ArtifactCache`] retains one memo per core key; the
/// `cachecheck` row of the conformance oracle table cross-checks that
/// memoized counting is observably identical to the memo-free path, and
/// that repeated builds hit the memo.
///
/// Internally synchronized: one count probes and publishes each batch
/// under one lock, and concurrent builds share it directly.
#[derive(Default)]
pub struct CountingMemo {
    map: Mutex<FxHashMap<Box<[u32]>, u64>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// `iota_sizes[r]` = injection domain size when unary relation `r` of
    /// the colored graph is a `C_ι` color, else `0`. Set once per memo by
    /// the engine from the reduction core; the core's cache key pins the
    /// colored graph, so every build sharing this memo agrees on it.
    iota_sizes: std::sync::OnceLock<Vec<u32>>,
    /// Per-reduced-clause answer counts keyed by the clause's packed
    /// acceptance signature (one `(injection, type)` word per partition
    /// part, `0` padding — see `reduction::pack_signature`). The signature
    /// determines the clause's colors against this memo's core, so the
    /// count is a pure function of the key; any two queries whose Step 5
    /// acceptance sets share a combo share that clause's count, and a
    /// repeat build (or a rewrite variant) whose combos are all here skips
    /// the inclusion–exclusion walk outright. The key is the full
    /// signature, so a hit is exact.
    combo_counts: Mutex<FxHashMap<Box<[u64]>, u64>>,
    combo_hits: AtomicU64,
    combo_misses: AtomicU64,
}

impl CountingMemo {
    /// Empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare which unary relations are `C_ι` colors (see
    /// [`canonical_component_key`]: iota colors are interchangeable up to a
    /// size-preserving renaming, so signatures erase their identities).
    /// First caller wins; later calls with the same core are no-ops.
    pub(crate) fn set_iota_sizes(&self, sizes: Vec<u32>) {
        let _ = self.iota_sizes.set(sizes);
    }

    /// The declared iota classification (empty when none was declared —
    /// signatures then keep every color literal).
    fn iota_sizes(&self) -> &[u32] {
        self.iota_sizes.get().map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct component signatures retained.
    pub fn len(&self) -> usize {
        self.map.lock().expect("memo poisoned").len()
    }

    /// Whether no component has been counted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` over all probes (diagnostics).
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Look up a batch of signatures under one lock; every key counts as
    /// one probe.
    fn probe<'k>(&self, keys: impl Iterator<Item = &'k [u32]>) -> Vec<Option<u64>> {
        let map = self.map.lock().expect("memo poisoned");
        let out: Vec<Option<u64>> = keys.map(|k| map.get(k).copied()).collect();
        let hits = out.iter().filter(|c| c.is_some()).count() as u64;
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses
            .fetch_add(out.len() as u64 - hits, Ordering::Relaxed);
        out
    }

    /// Per-reduced-clause counts for a batch of packed acceptance
    /// signatures, probed under one lock: `Some` where a prior build
    /// against this core counted that combo. A hit takes the clause out of
    /// the inclusion–exclusion pass.
    pub(crate) fn probe_combos(&self, signatures: &[Box<[u64]>]) -> Vec<Option<u64>> {
        let map = self.combo_counts.lock().expect("memo poisoned");
        let out: Vec<Option<u64>> = signatures.iter().map(|s| map.get(s).copied()).collect();
        drop(map);
        let hits = out.iter().filter(|c| c.is_some()).count() as u64;
        self.combo_hits.fetch_add(hits, Ordering::Relaxed);
        self.combo_misses
            .fetch_add(out.len() as u64 - hits, Ordering::Relaxed);
        out
    }

    /// Publish a per-clause count (racing writers agree by construction).
    pub(crate) fn record_combo_count(&self, signature: Box<[u64]>, count: u64) {
        self.combo_counts
            .lock()
            .expect("memo poisoned")
            .insert(signature, count);
    }

    /// `(hits, misses)` of the per-clause combo-count tier (diagnostics;
    /// separate from the component-signature [`stats`](Self::stats)).
    pub fn combo_stats(&self) -> (u64, u64) {
        (
            self.combo_hits.load(Ordering::Relaxed),
            self.combo_misses.load(Ordering::Relaxed),
        )
    }

    /// Publish freshly computed counts under one lock. Concurrent builders
    /// may race on a key; all candidates are equal by construction (the
    /// count is a deterministic function of the signature), so last-write
    /// wins harmlessly.
    fn publish(&self, entries: Vec<(Box<[u32]>, u64)>) {
        if entries.is_empty() {
            return;
        }
        let mut map = self.map.lock().expect("memo poisoned");
        for (k, v) in entries {
            map.insert(k, v);
        }
    }
}

impl std::fmt::Debug for CountingMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (hits, misses) = self.stats();
        f.debug_struct("CountingMemo")
            .field("components", &self.len())
            .field("hits", &hits)
            .field("misses", &misses)
            .finish()
    }
}

/// The canonical color token of one candidate list, split into the
/// `C_ι` injection colors (erasable, see [`canonical_component_key`]) and
/// everything else. Equal `rest` plus size-matched iotas ⇒ candidate
/// lists related by a count-preserving copy swap over the colored graph.
#[derive(Debug, PartialEq, Eq)]
struct PosToken {
    /// Sorted, deduplicated non-iota relation ids; equal `rest` under
    /// equal iotas means a literally identical candidate list.
    rest: Vec<u32>,
    /// `(injection domain size, relation id)` of each `C_ι` color, sorted.
    iotas: Vec<(u32, u32)>,
}

/// The token of one color set. `iota_sizes` classifies the colored
/// graph's unary relations (empty slice: treat every color literally).
fn color_token(colors: &[RelId], iota_sizes: &[u32]) -> PosToken {
    let mut rest: Vec<u32> = Vec::new();
    let mut iotas: Vec<(u32, u32)> = Vec::new();
    for r in colors {
        let id = r.index() as u32;
        match iota_sizes.get(r.index()) {
            Some(&s) if s > 0 => iotas.push((s, id)),
            _ => rest.push(id),
        }
    }
    rest.sort_unstable();
    rest.dedup();
    iotas.sort_unstable();
    iotas.dedup();
    PosToken { rest, iotas }
}

/// Components above this size skip the exact canonical search (the search
/// is factorial in the member count; components never exceed the query
/// arity, so this only triggers for very wide queries).
const MAX_CANON_MEMBERS: usize = 6;

/// Encode one slot ordering of a component whose member slot `s` carries
/// `tokens[s]`: per slot `[|rest|, rest…, |iotas|, (size, name)…]`, then
/// [`SIG_SEP`] and the edge pairs renumbered to slot indices, sorted.
/// With `rename`, iota `name`s are first-occurrence ranks in this
/// ordering — the identity of a `C_ι` relation is erased, only its domain
/// size and its equality pattern across the component's slots survive.
/// Without it, names are the raw relation ids.
fn key_for_order(
    tokens: &[&PosToken],
    comp: &Component,
    order: &[usize],
    rename: bool,
) -> Vec<u32> {
    let mut key: Vec<u32> = Vec::with_capacity(4 * comp.members.len() + 2 * comp.edges.len() + 2);
    key.push(comp.members.len() as u32);
    let mut names: Vec<u32> = Vec::new();
    for &s in order {
        let tok = tokens[s];
        key.push(tok.rest.len() as u32);
        key.extend_from_slice(&tok.rest);
        key.push(tok.iotas.len() as u32);
        for &(size, raw) in &tok.iotas {
            let name = if rename {
                match names.iter().position(|&x| x == raw) {
                    Some(i) => i as u32,
                    None => {
                        names.push(raw);
                        (names.len() - 1) as u32
                    }
                }
            } else {
                raw
            };
            key.push(size);
            key.push(name);
        }
    }
    key.push(SIG_SEP);
    let slot_of = |pos: usize| -> u32 {
        order
            .iter()
            .position(|&s| comp.members[s] == pos)
            .expect("edge endpoint is a member") as u32
    };
    let mut edges: Vec<(u32, u32)> = comp
        .edges
        .iter()
        .map(|&(i, j)| {
            let (a, b) = (slot_of(i), slot_of(j));
            (a.min(b), a.max(b))
        })
        .collect();
    edges.sort_unstable();
    for (a, b) in edges {
        key.push(a);
        key.push(b);
    }
    key
}

/// The cross-query canonical signature of one component whose member slot
/// `s` carries `tokens[s]`: the lexicographically least [`key_for_order`]
/// image over all slot orderings, with `C_ι` relation ids renamed by first
/// occurrence.
///
/// Equal signatures imply a slot correspondence under which the non-iota
/// colors match literally and the iota colors match up to a
/// size-preserving bijection of injection ids, with an identical
/// positive-edge pattern. Over the reduction's colored graph that
/// bijection induces a vertex bijection `v_(b̄,ι) ↦ v_(b̄,σ(ι))` between
/// the slots' candidate lists — adjacency is shared by all copies of a
/// cluster tuple and self-edges are excluded for every copy, so the swap
/// preserves both the edge pattern and the equality pattern — hence equal
/// counts over the same adjacency. Position names, clause context and the
/// specific injections are all erased, so the signature matches across
/// clauses, across the lattice, and across queries that permute which
/// answer position carries which color.
///
/// Components wider than [`MAX_CANON_MEMBERS`] fall back to a single
/// deterministic ordering with raw iota ids (sound, shares less). The two
/// encodings cannot alias: a component has at most `k` members while a
/// `C_ι` relation id is at least `2 + k`, so renamed iota names (below
/// the member count) and raw ids never coincide for keys of equal width.
fn canonical_component_key(tokens: &[&PosToken], comp: &Component) -> Vec<u32> {
    let m = comp.members.len();
    let mut order: Vec<usize> = (0..m).collect();
    if m > MAX_CANON_MEMBERS {
        order.sort_by(|&a, &b| {
            let (ta, tb) = (tokens[a], tokens[b]);
            ta.rest
                .cmp(&tb.rest)
                .then_with(|| ta.iotas.cmp(&tb.iotas))
                .then(a.cmp(&b))
        });
        return key_for_order(tokens, comp, &order, false);
    }
    // exact canonical form: minimum image over all m! orderings
    let mut best = key_for_order(tokens, comp, &order, true);
    permute_orders(&mut order, 0, &mut |order| {
        let key = key_for_order(tokens, comp, order, true);
        if key < best {
            best = key;
        }
    });
    best
}

/// Visit every permutation of `order[at..]` (recursive swap enumeration;
/// the initial `order` is restored on return).
fn permute_orders(order: &mut Vec<usize>, at: usize, visit: &mut impl FnMut(&[usize])) {
    if at + 1 >= order.len() {
        visit(order);
        return;
    }
    for i in at..order.len() {
        order.swap(at, i);
        permute_orders(order, at + 1, visit);
        order.swap(at, i);
    }
}

// ---------------------------------------------------------------------
// The batched pass: one lattice per query, grouped anchored walks
// ---------------------------------------------------------------------

/// The subset lattice of a `k`-ary reduced query, walked once.
///
/// Every reduced clause negates all `C(k,2)` position pairs, so the
/// components a lattice term splits into — member positions plus positive
/// edges, its *patterns* — depend on `k` alone. A clause only decides which
/// candidate list sits at each member, so one walk serves every clause.
struct Lattice {
    /// The distinct component patterns over all `2^m` terms.
    patterns: Vec<Component>,
    /// Per term: its sign (`true` = subtracted) and its pattern ids.
    terms: Vec<(bool, Vec<u32>)>,
}

impl Lattice {
    fn new(k: usize) -> Self {
        let neg = negated_pairs(k);
        let masks = 1usize << neg.len();
        let mut interner: SliceInterner<u32> = SliceInterner::new();
        let mut patterns: Vec<Component> = Vec::new();
        let mut terms: Vec<(bool, Vec<u32>)> = Vec::with_capacity(masks);
        lattice_walk_range(k, &neg, 0..masks, &mut interner, &mut patterns, &mut terms);
        Lattice { patterns, terms }
    }
}

/// Lemma 3.5 over `clauses` at once: the per-clause counts, in order.
///
/// Each clause's count is the signed sum, over the [`Lattice`]'s terms, of
/// products of *job* counts, a job being one pattern over one tuple of
/// candidate lists. Jobs are deduplicated across clauses and counted once
/// ([`job_counts`]); the sums are exact (`u128` products, `i128` totals,
/// [`exact_count`]).
fn count_clauses(
    table: &CandidateTable,
    adjacency: &crate::enumerate::EdgeAdjacency,
    k: usize,
    clauses: &[&GraphClause],
    par: &ParConfig,
    memo: Option<&CountingMemo>,
) -> Result<Vec<u64>, EngineError> {
    let lattice = Lattice::new(k);
    let width = lattice.patterns.len();
    // job key: the list id at each member of the pattern, then the pattern
    // id. The lists lead because FxHash's bucket bits see little of a
    // short key beyond its first word, and the pattern id barely varies.
    let mut jobs: SliceInterner<u32> = SliceInterner::new();
    let mut rows: Vec<u32> = Vec::with_capacity(clauses.len() * width);
    let mut key: Vec<u32> = Vec::with_capacity(k + 1);
    for clause in clauses {
        let lists = table.ids(clause);
        for (p, pattern) in lattice.patterns.iter().enumerate() {
            key.clear();
            key.extend(pattern.members.iter().map(|&m| lists[m]));
            key.push(p as u32);
            rows.push(jobs.intern(&key));
        }
    }
    let counts = job_counts(table, adjacency, &lattice, &jobs, par, memo);
    let ids: Vec<usize> = (0..clauses.len()).collect();
    par_map(par, &ids, |&c| {
        let row = &rows[c * width..(c + 1) * width];
        exact_count(lattice_partial_sum(&lattice.terms, |p| {
            counts[row[p as usize] as usize]
        })?)
    })
    .into_iter()
    .collect()
}

/// The count of every job. Singletons read their list length. With a
/// memo, multi-member jobs collapse onto their canonical signatures, each
/// distinct signature probes the memo once, and only the misses are
/// counted and published; without one, every multi-member job is counted.
/// Counting is [`count_grouped`].
fn job_counts(
    table: &CandidateTable,
    adjacency: &crate::enumerate::EdgeAdjacency,
    lattice: &Lattice,
    jobs: &SliceInterner<u32>,
    par: &ParConfig,
    memo: Option<&CountingMemo>,
) -> Vec<u64> {
    let mut counts = vec![0u64; jobs.len()];
    let mut multi: Vec<u32> = Vec::new();
    for id in 0..jobs.len() as u32 {
        match *jobs.get(id) {
            [list, _] => counts[id as usize] = table.len_of(list) as u64,
            _ => multi.push(id),
        }
    }
    let Some(memo) = memo else {
        for (id, c) in count_grouped(table, adjacency, lattice, jobs, &multi, par) {
            counts[id as usize] = c;
        }
        return counts;
    };
    let tokens: Vec<PosToken> = table
        .colors
        .iter()
        .map(|set| color_token(set, memo.iota_sizes()))
        .collect();
    let mut keys: SliceInterner<u32> = SliceInterner::new();
    let mut key_of: Vec<u32> = vec![0; jobs.len()];
    let mut firsts: Vec<u32> = Vec::new(); // per signature: its first job
    for &id in &multi {
        let (&p, lists) = jobs.get(id).split_last().expect("a job key");
        let slot_tokens: Vec<&PosToken> = lists.iter().map(|&l| &tokens[l as usize]).collect();
        let key = canonical_component_key(&slot_tokens, &lattice.patterns[p as usize]);
        let k = keys.intern(&key);
        if k as usize == firsts.len() {
            firsts.push(id);
        }
        key_of[id as usize] = k;
    }
    let cached = memo.probe((0..keys.len() as u32).map(|k| keys.get(k)));
    let todo: Vec<u32> = firsts
        .iter()
        .zip(&cached)
        .filter_map(|(&id, c)| c.is_none().then_some(id))
        .collect();
    let mut by_key: Vec<u64> = cached.into_iter().map(Option::unwrap_or_default).collect();
    let mut fresh: Vec<(Box<[u32]>, u64)> = Vec::with_capacity(todo.len());
    for (id, c) in count_grouped(table, adjacency, lattice, jobs, &todo, par) {
        let k = key_of[id as usize];
        by_key[k as usize] = c;
        fresh.push((keys.get(k).into(), c));
    }
    memo.publish(fresh);
    for &id in &multi {
        counts[id as usize] = by_key[key_of[id as usize] as usize];
    }
    counts
}

/// How the jobs of one multi-member pattern are walked. `order` holds the
/// member slots (indices into the pattern's `members`), the root first and
/// the counted member last. Every later walk index `i` draws its vertex
/// from the `E`-neighbours of the vertex at walk index `anchor[i]` and
/// must be adjacent to the vertices at the walk indices `checks[i]`.
struct Walk {
    order: Vec<usize>,
    anchor: Vec<usize>,
    checks: Vec<Vec<usize>>,
}

impl Walk {
    /// The walk from `root` that counts `last`, visiting the other slots
    /// in order of first reachability (`adj` is the pattern's slot
    /// adjacency). `None` when `last` cuts the pattern.
    fn plan(adj: &[Vec<bool>], root: usize, last: usize) -> Option<Walk> {
        let s = adj.len();
        let mut order = vec![root];
        while order.len() + 1 < s {
            let reached = |x: usize| order.iter().any(|&o| adj[x][o]);
            let next = (0..s).find(|&x| x != last && !order.contains(&x) && reached(x))?;
            order.push(next);
        }
        order.push(last);
        let mut anchor = vec![0; s];
        let mut checks = vec![Vec::new(); s];
        for i in 1..s {
            let earlier: Vec<usize> = (0..i).filter(|&j| adj[order[i]][order[j]]).collect();
            let (&first, rest) = earlier.split_first()?;
            anchor[i] = first;
            checks[i] = rest.to_vec();
        }
        Some(Walk {
            order,
            anchor,
            checks,
        })
    }

    /// The cheapest walk of `pattern` for `jobs` (each its list ids in
    /// slot order). A group walks its root list once and expands each
    /// vertex about `degree^(s−1)` times; each job then reads its last
    /// list once. So the cost of counting slot `last` from `root` is
    /// `degree^(s−1) · Σ_groups |root list| + Σ_jobs |last list|`, the
    /// groups being the distinct list tuples on the other slots.
    fn choose(pattern: &Component, jobs: &[&[u32]], len: impl Fn(u32) -> f64, degree: f64) -> Walk {
        let s = pattern.members.len();
        let slot = |p: usize| {
            pattern
                .members
                .iter()
                .position(|&m| m == p)
                .expect("edge endpoint is a member")
        };
        let mut adj = vec![vec![false; s]; s];
        for &(a, b) in &pattern.edges {
            let (a, b) = (slot(a), slot(b));
            adj[a][b] = true;
            adj[b][a] = true;
        }
        let fanout = degree.powi(s as i32 - 1);
        let mut best: Option<(f64, Walk)> = None;
        for last in 0..s {
            let mut groups: Vec<Vec<u32>> = jobs
                .iter()
                .map(|l| [&l[..last], &l[last + 1..]].concat())
                .collect();
            groups.sort_unstable();
            groups.dedup();
            let read: f64 = jobs.iter().map(|l| len(l[last])).sum();
            for root in (0..s).filter(|&r| r != last) {
                let Some(walk) = Walk::plan(&adj, root, last) else {
                    continue;
                };
                let at = if root < last { root } else { root - 1 };
                let cost = fanout * groups.iter().map(|g| len(g[at])).sum::<f64>() + read;
                if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                    best = Some((cost, walk));
                }
            }
        }
        best.expect("a connected pattern has a walk").1
    }
}

/// Prefix tuples a [`Counter`] takes between drains. Unit tests drain
/// every few tuples, so every counted test query crosses the drain path.
const DRAIN_EVERY: u64 = if cfg!(test) { 3 } else { u32::MAX as u64 };

/// The dense per-vertex counter one chunk of groups reuses. A prefix tuple
/// adds at most one to any cell (a vertex occurs once among its anchor's
/// neighbours), so draining into the jobs' sums every [`DRAIN_EVERY`]
/// tuples keeps every `u32` cell from overflowing.
struct Counter {
    cells: Vec<u32>,
    /// The cells that left zero since the last drain.
    touched: Vec<Node>,
    /// Prefix tuples walked since the last drain.
    walked: u64,
}

impl Counter {
    fn new(size: usize) -> Self {
        Counter {
            cells: vec![0; size],
            touched: Vec::new(),
            walked: 0,
        }
    }

    /// Add each job's count since the last drain — the cells summed over
    /// its last list — to its entry of `sums`, then clear the cells.
    fn drain(&mut self, lists: &[Arc<Vec<Node>>], jobs: &[(u32, u32)], sums: &mut [u64]) {
        if !self.touched.is_empty() {
            for (sum, &(_, last)) in sums.iter_mut().zip(jobs) {
                let cells = lists[last as usize]
                    .iter()
                    .map(|v| self.cells.get(v.index()).copied().unwrap_or(0));
                *sum += cells.map(u64::from).sum::<u64>();
            }
            for v in self.touched.drain(..) {
                self.cells[v.index()] = 0;
            }
        }
        self.walked = 0;
    }
}

/// One group of a grouped pass: the walk of its pattern, the membership
/// sets of its inner prefix lists and the jobs that read its counter.
struct GroupPass<'a> {
    walk: &'a Walk,
    adjacency: &'a crate::enumerate::EdgeAdjacency,
    lists: &'a [Arc<Vec<Node>>],
    /// The membership set of inner walk index `i` is `inner[i − 1]`.
    inner: Vec<&'a NodeSet>,
    /// `(job, last list)` per job.
    jobs: &'a [(u32, u32)],
}

impl GroupPass<'_> {
    /// Walk the prefix from every vertex of `roots`, adding one to the
    /// counter cell of every last-member vertex each prefix tuple reaches,
    /// and return the jobs' counts in `jobs` order.
    fn run(&self, roots: &[Node], counter: &mut Counter) -> Vec<u64> {
        let mut sums = vec![0u64; self.jobs.len()];
        let mut assigned = vec![Node(0); self.walk.order.len()];
        for &u in roots {
            assigned[0] = u;
            self.extend(1, &mut assigned, counter, &mut sums);
        }
        counter.drain(self.lists, self.jobs, &mut sums);
        sums
    }

    fn extend(&self, depth: usize, assigned: &mut [Node], counter: &mut Counter, sums: &mut [u64]) {
        let walk = self.walk;
        let last = depth + 1 == walk.order.len();
        if last {
            if counter.walked == DRAIN_EVERY {
                counter.drain(self.lists, self.jobs, sums);
            }
            counter.walked += 1;
        }
        for v in self.adjacency.neighbors(assigned[walk.anchor[depth]]) {
            if !last && !self.inner[depth - 1].contains(v) {
                continue;
            }
            let adjacent = |&c: &usize| self.adjacency.adjacent(v, assigned[c]);
            if !walk.checks[depth].iter().all(adjacent) {
                continue;
            }
            if last {
                let cell = &mut counter.cells[v.index()];
                if *cell == 0 {
                    counter.touched.push(v);
                }
                *cell += 1;
            } else {
                assigned[depth] = v;
                self.extend(depth + 1, assigned, counter, sums);
            }
        }
    }
}

/// Count the multi-member jobs `todo` in grouped anchored passes: the
/// `(job, count)` pairs, in no particular order.
///
/// Each pattern gets one [`Walk`] ([`Walk::choose`]). Jobs of a pattern
/// that agree on every list but the last walked member's form one group:
/// the group walks that shared prefix once, adding each last-member vertex
/// it reaches into a dense per-vertex [`Counter`], and each job's count is
/// the counter summed over its own last list. A two-member job thus costs one
/// adjacency scan per distinct root list, not one per clause, and a root
/// list without `E`-neighbours (the `C_⊥` dummy) ends its walk at once.
/// Membership bitsets are built only for lists at inner prefix members
/// (none for two-member patterns). Groups fan out over `par`, each chunk
/// of groups with its own counter array.
///
/// The adjacency is symmetric (as the reduction builds it and
/// [`crate::enumerate::EdgeAdjacency::build`] assumes), so a component's
/// count does not depend on where its walk is rooted.
fn count_grouped(
    table: &CandidateTable,
    adjacency: &crate::enumerate::EdgeAdjacency,
    lattice: &Lattice,
    jobs: &SliceInterner<u32>,
    todo: &[u32],
    par: &ParConfig,
) -> Vec<(u32, u64)> {
    let mut by_pattern: Vec<Vec<u32>> = vec![Vec::new(); lattice.patterns.len()];
    for &id in todo {
        let (&p, _) = jobs.get(id).split_last().expect("a job key");
        by_pattern[p as usize].push(id);
    }
    let degree = (adjacency.pair_count() as f64 / adjacency.len().max(1) as f64).max(1.0);
    let len = |l: u32| table.len_of(l) as f64;
    let mut walks: Vec<Option<Walk>> = (0..by_pattern.len()).map(|_| None).collect();
    // group key: the prefix's list ids in walk order, then the pattern id
    let mut groups: SliceInterner<u32> = SliceInterner::new();
    let mut members: Vec<Vec<(u32, u32)>> = Vec::new(); // per group: (job, last list)
    let mut key: Vec<u32> = Vec::new();
    for (p, ids) in by_pattern.iter().enumerate() {
        if ids.is_empty() {
            continue;
        }
        let lists: Vec<&[u32]> = ids
            .iter()
            .map(|&id| jobs.get(id).split_last().expect("a job key").1)
            .collect();
        let walk = Walk::choose(&lattice.patterns[p], &lists, len, degree);
        let (prefix, last) = walk.order.split_at(walk.order.len() - 1);
        for (&id, l) in ids.iter().zip(&lists) {
            key.clear();
            key.extend(prefix.iter().map(|&slot| l[slot]));
            key.push(p as u32);
            let g = groups.intern(&key) as usize;
            if g == members.len() {
                members.push(Vec::new());
            }
            members[g].push((id, l[last[0]]));
        }
        walks[p] = Some(walk);
    }
    let ids: Vec<u32> = (0..groups.len() as u32).collect();
    let mut inner: Vec<u32> = ids
        .iter()
        .flat_map(|&g| {
            let key = groups.get(g);
            key[1..key.len() - 1].iter().copied()
        })
        .collect();
    inner.sort_unstable();
    inner.dedup();
    let built = par_map(par, &inner, |&l| {
        NodeSet::from_sorted(table.nodes, &table.lists[l as usize])
    });
    let mut sets: Vec<Option<NodeSet>> = (0..table.lists.len()).map(|_| None).collect();
    for (l, set) in inner.into_iter().zip(built) {
        sets[l as usize] = Some(set);
    }
    let chunk = if par.runs_serial(ids.len()) {
        ids.len()
    } else {
        ids.len().div_ceil(par.threads() * 4)
    };
    let size = table.nodes.max(adjacency.len());
    par_chunks(par, &ids, chunk, |chunk| {
        let mut counter = Counter::new(size);
        let mut out: Vec<(u32, u64)> = Vec::new();
        for &g in chunk {
            let (&p, prefix) = groups.get(g).split_last().expect("a group key");
            let jobs = &members[g as usize];
            let pass = GroupPass {
                walk: walks[p as usize].as_ref().expect("a grouped pattern"),
                adjacency,
                lists: &table.lists,
                inner: prefix[1..]
                    .iter()
                    .map(|&l| sets[l as usize].as_ref().expect("inner lists have sets"))
                    .collect(),
                jobs,
            };
            let counts = pass.run(&table.lists[prefix[0] as usize], &mut counter);
            out.extend(jobs.iter().map(|&(job, _)| job).zip(counts));
        }
        out
    })
    .into_iter()
    .flatten()
    .collect()
}

// ---------------------------------------------------------------------
// The per-clause oracle walks
// ---------------------------------------------------------------------

/// Single Gray-code walk over one clause's full lattice; distinct-component
/// counts fan out over the worker pool.
fn lattice_sum_single(
    adjacency: &crate::enumerate::EdgeAdjacency,
    lists: &[Arc<Vec<Node>>],
    sets: &[&NodeSet],
    neg: &[(usize, usize)],
    par: &ParConfig,
) -> Result<i128, EngineError> {
    let masks = 1usize << neg.len();
    let mut interner: SliceInterner<u32> = SliceInterner::new();
    let mut comps: Vec<Component> = Vec::new();
    let mut terms: Vec<(bool, Vec<u32>)> = Vec::with_capacity(masks);
    lattice_walk_range(
        lists.len(),
        neg,
        0..masks,
        &mut interner,
        &mut comps,
        &mut terms,
    );
    let counts = par_map(par, &comps, |comp| count_job(adjacency, lists, sets, comp));
    lattice_partial_sum(&terms, |id| counts[id as usize])
}

/// Sliced walk: each of the `2^bits` contiguous rank subtrees is an
/// independent job on the pool — own walk, own signature interner, own
/// serially-counted components, own exact partial — and the partials are
/// summed in slice order, so every slicing gives the single walk's total.
fn lattice_sum_sliced(
    adjacency: &crate::enumerate::EdgeAdjacency,
    lists: &[Arc<Vec<Node>>],
    sets: &[&NodeSet],
    neg: &[(usize, usize)],
    bits: usize,
    par: &ParConfig,
) -> Result<i128, EngineError> {
    let m = neg.len();
    debug_assert!(bits >= 1 && bits <= m);
    let per = (1usize << m) >> bits;
    let slice_ids: Vec<u32> = (0..(1u32 << bits)).collect();
    let partials = par_map(par, &slice_ids, |&s| {
        let lo = s as usize * per;
        lattice_slice_sum(adjacency, lists, sets, neg, lo..lo + per)
    });
    partials.into_iter().try_fold(0i128, |total, partial| {
        total
            .checked_add(partial?)
            .ok_or(EngineError::CountOverflow)
    })
}

/// One subtree of the sliced walk: walk ranks `lo..hi` in Gray order with a
/// fresh signature interner and return the slice's exact signed sum.
fn lattice_slice_sum(
    adjacency: &crate::enumerate::EdgeAdjacency,
    lists: &[Arc<Vec<Node>>],
    sets: &[&NodeSet],
    neg: &[(usize, usize)],
    ranks: std::ops::Range<usize>,
) -> Result<i128, EngineError> {
    let mut interner: SliceInterner<u32> = SliceInterner::new();
    let mut comps: Vec<Component> = Vec::new();
    let mut terms: Vec<(bool, Vec<u32>)> = Vec::with_capacity(ranks.len());
    lattice_walk_range(
        lists.len(),
        neg,
        ranks,
        &mut interner,
        &mut comps,
        &mut terms,
    );
    // each slice runs on a worker thread already: count serially here
    let counts: Vec<u64> = comps
        .iter()
        .map(|comp| count_job(adjacency, lists, sets, comp))
        .collect();
    lattice_partial_sum(&terms, |id| counts[id as usize])
}

/// Walk the ranks in Gray-code order, splitting each term into components
/// and interning their signatures (member positions, [`SIG_SEP`], edge
/// indices into `neg`). Adjacent masks differ by one flipped edge, so all
/// components untouched by it re-intern to ids already seen; only new
/// components are pushed to `comps`. The union-find is rebuilt per mask
/// (cheap: `k ≤ 8` positions), so any contiguous rank range walks
/// identically to its portion of the full walk.
fn lattice_walk_range(
    k: usize,
    neg: &[(usize, usize)],
    ranks: std::ops::Range<usize>,
    interner: &mut SliceInterner<u32>,
    comps: &mut Vec<Component>,
    terms: &mut Vec<(bool, Vec<u32>)>,
) {
    let m = neg.len();
    let mut sig_buf: Vec<u32> = Vec::with_capacity(2 * k + 1 + m);
    let mut comp = vec![0usize; k];
    for rank in ranks {
        let mask = rank ^ (rank >> 1); // Gray code: one edge flips per step
        for (i, c) in comp.iter_mut().enumerate() {
            *c = i;
        }
        fn find(comp: &mut [usize], i: usize) -> usize {
            if comp[i] != i {
                let r = find(comp, comp[i]);
                comp[i] = r;
            }
            comp[i]
        }
        for (b, &(i, j)) in neg.iter().enumerate() {
            if mask >> b & 1 == 1 {
                let (a, c) = (find(&mut comp, i), find(&mut comp, j));
                if a != c {
                    comp[a] = c;
                }
            }
        }
        let roots: Vec<usize> = (0..k).map(|i| find(&mut comp, i)).collect();
        let mut ids: Vec<u32> = Vec::with_capacity(k);
        // components in ascending-min-member order (the product order of
        // the per-term path's root set)
        for leader in 0..k {
            if roots[..leader].contains(&roots[leader]) {
                continue;
            }
            sig_buf.clear();
            sig_buf.extend(
                (0..k)
                    .filter(|&i| roots[i] == roots[leader])
                    .map(|i| i as u32),
            );
            let members_len = sig_buf.len();
            sig_buf.push(SIG_SEP);
            sig_buf.extend(neg.iter().enumerate().filter_map(|(b, &(i, _))| {
                (mask >> b & 1 == 1 && roots[i] == roots[leader]).then_some(b as u32)
            }));
            let id = interner.intern(&sig_buf);
            if id as usize == comps.len() {
                // first occurrence anywhere in this walk
                comps.push(Component {
                    members: sig_buf[..members_len].iter().map(|&i| i as usize).collect(),
                    edges: sig_buf[members_len + 1..]
                        .iter()
                        .map(|&b| neg[b as usize])
                        .collect(),
                });
            }
            ids.push(id);
        }
        terms.push((mask.count_ones() & 1 == 1, ids));
    }
}

/// Count one distinct component of an oracle walk.
fn count_job(
    adjacency: &crate::enumerate::EdgeAdjacency,
    lists: &[Arc<Vec<Node>>],
    sets: &[&NodeSet],
    comp: &Component,
) -> u64 {
    if comp.members.len() == 1 {
        sets[comp.members[0]].len
    } else {
        count_component(adjacency, lists, sets, &comp.edges, &comp.members)
    }
}

/// Signed products summed over `terms`, exact: `u128` products and an
/// `i128` sum (either overflowing is [`EngineError::CountOverflow`]).
/// `count(id)` is the count of component `id`.
fn lattice_partial_sum(
    terms: &[(bool, Vec<u32>)],
    count: impl Fn(u32) -> u64,
) -> Result<i128, EngineError> {
    let mut total: i128 = 0;
    for (negative, ids) in terms {
        let mut product: u128 = 1;
        for &id in ids {
            product = product
                .checked_mul(count(id).into())
                .ok_or(EngineError::CountOverflow)?;
            if product == 0 {
                break;
            }
        }
        let product = i128::try_from(product).map_err(|_| EngineError::CountOverflow)?;
        total = if *negative {
            total.checked_sub(product)
        } else {
            total.checked_add(product)
        }
        .ok_or(EngineError::CountOverflow)?;
    }
    Ok(total)
}

fn ie_count(
    adjacency: &crate::enumerate::EdgeAdjacency,
    lists: &[Arc<Vec<Node>>],
    sets: &[&NodeSet],
    pos_edges: &mut Vec<(usize, usize)>,
    neg: &[(usize, usize)],
) -> Result<u128, EngineError> {
    match neg.split_first() {
        Some((&pair, rest)) => {
            let without = ie_count(adjacency, lists, sets, pos_edges, rest)?;
            pos_edges.push(pair);
            let with = ie_count(adjacency, lists, sets, pos_edges, rest)?;
            pos_edges.pop();
            debug_assert!(without >= with);
            Ok(without - with)
        }
        None => count_positive_clause(adjacency, lists, sets, pos_edges),
    }
}

/// Base case: per-position candidate sets plus positive `E`-edges. Split
/// into connected components of the edge set; each component is counted by
/// assigning its positions in a BFS order rooted at the smallest list, so
/// every non-root position draws candidates from a neighbor's adjacency
/// list.
fn count_positive_clause(
    adjacency: &crate::enumerate::EdgeAdjacency,
    lists: &[Arc<Vec<Node>>],
    sets: &[&NodeSet],
    pos_edges: &[(usize, usize)],
) -> Result<u128, EngineError> {
    let k = lists.len();
    // components over positions
    let mut comp: Vec<usize> = (0..k).collect();
    fn find(comp: &mut Vec<usize>, i: usize) -> usize {
        if comp[i] != i {
            let r = find(comp, comp[i]);
            comp[i] = r;
        }
        comp[i]
    }
    for &(i, j) in pos_edges {
        let (a, b) = (find(&mut comp, i), find(&mut comp, j));
        if a != b {
            comp[a] = b;
        }
    }
    let roots: Vec<usize> = (0..k).map(|i| find(&mut comp, i)).collect();
    let distinct: std::collections::BTreeSet<usize> = roots.iter().copied().collect();

    let mut total: u128 = 1;
    for root in distinct {
        let members: Vec<usize> = (0..k).filter(|&i| roots[i] == root).collect();
        let c = if members.len() == 1 {
            sets[members[0]].len
        } else {
            count_component(adjacency, lists, sets, pos_edges, &members)
        };
        total = total
            .checked_mul(c.into())
            .ok_or(EngineError::CountOverflow)?;
        if total == 0 {
            return Ok(0);
        }
    }
    Ok(total)
}

fn count_component(
    adjacency: &crate::enumerate::EdgeAdjacency,
    lists: &[Arc<Vec<Node>>],
    sets: &[&NodeSet],
    pos_edges: &[(usize, usize)],
    members: &[usize],
) -> u64 {
    // BFS order rooted at the member with the smallest list; each later
    // member is edge-connected to some earlier one.
    let root = *members
        .iter()
        .min_by_key(|&&i| lists[i].len())
        .expect("non-empty component");
    let mut order = vec![root];
    // `anchor[i]` = an earlier member sharing a positive edge with order[i]
    let mut anchor: Vec<Option<usize>> = vec![None];
    while order.len() < members.len() {
        let next = members
            .iter()
            .copied()
            .find(|&m| {
                !order.contains(&m)
                    && pos_edges.iter().any(|&(a, b)| {
                        (a == m && order.contains(&b)) || (b == m && order.contains(&a))
                    })
            })
            .expect("component is edge-connected");
        let a = pos_edges
            .iter()
            .find_map(|&(a, b)| {
                if a == next && order.contains(&b) {
                    Some(b)
                } else if b == next && order.contains(&a) {
                    Some(a)
                } else {
                    None
                }
            })
            .expect("found above");
        order.push(next);
        anchor.push(Some(a));
    }

    let mut assigned: Vec<Node> = vec![Node(0); lists.len()];
    let mut count = 0u64;
    rec_count(
        adjacency,
        lists,
        sets,
        pos_edges,
        &order,
        &anchor,
        0,
        &mut assigned,
        &mut count,
    );
    count
}

#[allow(clippy::too_many_arguments)]
fn rec_count(
    adjacency: &crate::enumerate::EdgeAdjacency,
    lists: &[Arc<Vec<Node>>],
    sets: &[&NodeSet],
    pos_edges: &[(usize, usize)],
    order: &[usize],
    anchor: &[Option<usize>],
    depth: usize,
    assigned: &mut Vec<Node>,
    count: &mut u64,
) {
    if depth == order.len() {
        *count += 1;
        return;
    }
    let pos = order[depth];
    let check = |v: Node, assigned: &Vec<Node>| -> bool {
        if !sets[pos].contains(v) {
            return false;
        }
        // all positive edges between `pos` and already-assigned positions
        pos_edges.iter().all(|&(a, b)| {
            let other = if a == pos {
                b
            } else if b == pos {
                a
            } else {
                return true;
            };
            match order[..depth].iter().position(|&o| o == other) {
                Some(_) => adjacency.adjacent(v, assigned[other]),
                None => true,
            }
        })
    };
    match anchor[depth] {
        None => {
            for &v in lists[pos].iter() {
                if check(v, assigned) {
                    assigned[pos] = v;
                    rec_count(
                        adjacency,
                        lists,
                        sets,
                        pos_edges,
                        order,
                        anchor,
                        depth + 1,
                        assigned,
                        count,
                    );
                }
            }
        }
        Some(a) => {
            for v in adjacency.neighbors(assigned[a]) {
                if check(v, assigned) {
                    assigned[pos] = v;
                    rec_count(
                        adjacency,
                        lists,
                        sets,
                        pos_edges,
                        order,
                        anchor,
                        depth + 1,
                        assigned,
                        count,
                    );
                }
            }
        }
    }
}

/// `|ψ(G)|`: sum over the mutually exclusive clauses (Theorem 2.5), each
/// counted by Lemma 3.5. The engine passes the reduction core's shared
/// `E`-adjacency, so the CSR is never materialized twice, and the build's
/// one candidate-list table `positions`, which the enumerator reads
/// afterwards.
///
/// The clauses are counted together, not one by one. Every clause negates
/// all `C(k,2)` position pairs, so the inclusion–exclusion lattice is
/// walked once per query, and each clause's count is a signed sum of
/// products of per-(component pattern, candidate-list tuple) counts. Those
/// *jobs* are deduplicated across clauses; singletons read their list
/// length, and the multi-member jobs are counted in grouped anchored
/// passes that share each walked prefix between every job that agrees on
/// it (see `count_grouped`). The color sets are deduplicated first, and
/// each distinct set's list is read from `positions` once.
///
/// `memo` is the [`crate::ArtifactCache`]'s per-core counting memo: each
/// distinct job signature probes it once, and only the misses are counted
/// and published. With `signatures` as well — `signatures[i]` the packed
/// acceptance signature of `gq.clauses[i]` (see
/// `reduction::pack_signature`) — the per-clause combination-count tier is
/// engaged: the clauses probe the memo by signature under one lock, only
/// novel clauses enter the pass, and their counts are published for the
/// next query touching the same combination. When every clause hits, no
/// candidate table or lattice is built. Signatures that do not align with
/// the clauses are ignored. The count is bit-identical on every path: a memo
/// entry is the exact count of its key, and the total is the same
/// commutative sum. A total that does not fit `u64` is
/// [`EngineError::CountOverflow`].
pub fn count_graph_query(
    graph: &Structure,
    gq: &GraphQuery,
    adjacency: &crate::enumerate::EdgeAdjacency,
    par: &ParConfig,
    memo: Option<&CountingMemo>,
    signatures: Option<&[Box<[u64]>]>,
    positions: &PositionMemo,
) -> Result<u64, EngineError> {
    let combos = memo.zip(signatures.filter(|s| s.len() == gq.clauses.len()));
    let cached: Vec<Option<u64>> = match combos {
        Some((memo, signatures)) => memo.probe_combos(signatures),
        None => vec![None; gq.clauses.len()],
    };
    let mut total: u128 = cached.iter().flatten().map(|&c| u128::from(c)).sum();
    let miss: Vec<usize> = (0..gq.clauses.len())
        .filter(|&i| cached[i].is_none())
        .collect();
    if !miss.is_empty() {
        let clauses: Vec<&GraphClause> = miss.iter().map(|&i| &gq.clauses[i]).collect();
        let table = CandidateTable::build(graph, positions, clauses.iter().copied(), par);
        let computed = count_clauses(&table, adjacency, gq.k, &clauses, par, memo)?;
        for (&i, count) in miss.iter().zip(computed) {
            if let Some((memo, signatures)) = combos {
                memo.record_combo_count(signatures[i].clone(), count);
            }
            total += u128::from(count);
        }
    }
    u64::try_from(total).map_err(|_| EngineError::CountOverflow)
}

/// Proposition 3.6's general path: count an arbitrary **quantifier-free**
/// formula by rewriting into the mutually exclusive DNF (the `O(2^{|ψ|})`
/// step the paper budgets) and summing the per-clause counts of
/// Lemma 3.5.
pub fn count_quantifier_free(
    structure: &Structure,
    free: &[Var],
    formula: &Formula,
) -> Result<u64, ConnectedError> {
    let clauses = lowdeg_logic::dnf::exclusive_dnf(formula);
    let mut total = 0u64;
    for clause in clauses {
        let conjuncts: Vec<Formula> = clause
            .literals
            .iter()
            .map(|l| l.atom.to_formula(l.positive))
            .collect();
        total = total
            .checked_add(count_conjunction(structure, free, &conjuncts)?)
            .ok_or(ConnectedError::CountOverflow)?;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
    use lowdeg_logic::eval::count_naive;
    use lowdeg_logic::parse_query;

    fn check(structure: &Structure, src: &str) {
        let q = parse_query(structure.signature(), src).unwrap();
        let parts = match &q.formula {
            Formula::And(parts) => parts.clone(),
            other => vec![other.clone()],
        };
        let got = count_conjunction(structure, &q.free, &parts).unwrap();
        let want = count_naive(structure, &q);
        assert_eq!(got, want, "count mismatch for `{src}`");
    }

    #[test]
    fn running_example_count() {
        for seed in [1, 2, 3] {
            let s = ColoredGraphSpec::balanced(30, DegreeClass::Bounded(3)).generate(seed);
            check(&s, "B(x) & R(y) & !E(x, y)");
        }
    }

    #[test]
    fn multiple_negated_binaries() {
        let s = ColoredGraphSpec::balanced(20, DegreeClass::Bounded(3)).generate(4);
        check(&s, "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)");
    }

    #[test]
    fn mixed_positive_and_negative() {
        let s = ColoredGraphSpec::balanced(25, DegreeClass::Bounded(3)).generate(5);
        check(&s, "E(x, y) & !E(y, z) & B(z)");
    }

    #[test]
    fn negated_equality() {
        let s = ColoredGraphSpec::balanced(20, DegreeClass::Bounded(3)).generate(6);
        check(&s, "B(x) & B(y) & x != y");
    }

    #[test]
    fn far_distance_guard() {
        let s = ColoredGraphSpec::balanced(20, DegreeClass::Bounded(3)).generate(7);
        check(&s, "B(x) & R(y) & dist(x, y) > 2");
    }

    #[test]
    fn unconstrained_position() {
        let s = ColoredGraphSpec::balanced(15, DegreeClass::Bounded(3)).generate(8);
        check(&s, "B(x) & y = y");
        // `y = y` mentions y so it lands in a component; also try the
        // genuinely unconstrained case through an empty-conjunct component:
        let q = parse_query(s.signature(), "B(x) & !E(x, y)").unwrap();
        let parts = match &q.formula {
            Formula::And(parts) => parts.clone(),
            _ => unreachable!(),
        };
        let got = count_conjunction(&s, &q.free, &parts).unwrap();
        assert_eq!(got, count_naive(&s, &q));
    }

    #[test]
    fn contradiction_counts_zero() {
        let s = ColoredGraphSpec::balanced(15, DegreeClass::Bounded(3)).generate(9);
        check(&s, "B(x) & !B(x)");
    }

    #[test]
    fn negated_unary_is_no_inclusion_exclusion() {
        let s = ColoredGraphSpec::balanced(25, DegreeClass::Bounded(3)).generate(10);
        check(&s, "B(x) & !R(x)");
    }

    fn check_qf(structure: &Structure, src: &str) {
        let q = parse_query(structure.signature(), src).unwrap();
        let got = count_quantifier_free(structure, &q.free, &q.formula).unwrap();
        assert_eq!(got, count_naive(structure, &q), "qf count mismatch `{src}`");
    }

    #[test]
    fn quantifier_free_disjunctions() {
        let s = ColoredGraphSpec::balanced(22, DegreeClass::Bounded(3)).generate(11);
        check_qf(&s, "B(x) | R(x)");
        check_qf(&s, "(B(x) & R(y)) | (G(x) & B(y))");
        check_qf(&s, "B(x) & (R(y) | !E(x, y))");
        check_qf(&s, "B(x) -> R(x)");
    }

    #[test]
    fn quantifier_free_exclusive_dnf_vs_clause_path() {
        // the DNF path and the direct conjunction path must agree
        let s = ColoredGraphSpec::balanced(22, DegreeClass::Bounded(3)).generate(12);
        let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        let via_dnf = count_quantifier_free(&s, &q.free, &q.formula).unwrap();
        let parts = match &q.formula {
            Formula::And(parts) => parts.clone(),
            _ => unreachable!(),
        };
        let via_conj = count_conjunction(&s, &q.free, &parts).unwrap();
        assert_eq!(via_dnf, via_conj);
    }

    #[test]
    fn memoized_counting_is_bit_identical() {
        use crate::graph_query::{GraphClause, GraphQuery};
        let s = ColoredGraphSpec::balanced(40, DegreeClass::Bounded(3)).generate(21);
        let e = s.signature().rel("E").unwrap();
        let b = s.signature().rel("B").unwrap();
        let r = s.signature().rel("R").unwrap();
        let g = s.signature().rel("G").unwrap();
        let adj = crate::enumerate::EdgeAdjacency::build(&s, e);
        // two queries over the same graph whose clauses share color
        // combinations (the second permutes the first's positions)
        let q1 = GraphQuery {
            k: 3,
            edge: e,
            clauses: vec![GraphClause {
                colors: vec![vec![b], vec![r], vec![g]],
            }],
        };
        let q2 = GraphQuery {
            k: 3,
            edge: e,
            clauses: vec![GraphClause {
                colors: vec![vec![r], vec![g], vec![b]],
            }],
        };
        let par = ParConfig::serial();
        let memo = CountingMemo::new();
        let positions = PositionMemo::new();
        for gq in [&q1, &q2] {
            let plain = count_graph_query(&s, gq, &adj, &par, None, None, &positions).unwrap();
            let memoized =
                count_graph_query(&s, gq, &adj, &par, Some(&memo), None, &positions).unwrap();
            assert_eq!(plain, memoized, "memo must not change the count");
            // a second memoized run of the same query is all hits
            let again =
                count_graph_query(&s, gq, &adj, &par, Some(&memo), None, &positions).unwrap();
            assert_eq!(plain, again);
        }
        let (hits, misses) = memo.stats();
        assert!(hits > 0, "repeat runs must hit the memo");
        assert!(misses > 0, "first run must populate the memo");
        assert!(!memo.is_empty());
        // q2's permuted clause realizes q1's canonical signatures: the
        // cross-query probe volume exceeds what q1's reruns alone explain
        let distinct = memo.len() as u64;
        assert!(
            hits >= distinct,
            "expected cross-run sharing, got {hits} hits over {distinct} components"
        );
        // the sliced walk shares the same memo and stays exact
        let sliced = count_clause_lattice_sliced(&s, &q1, &q1.clauses[0], &adj, 2, &par);
        let memo_single =
            count_clause(&s, &q1, &q1.clauses[0], &adj, &par, Some(&memo), &positions);
        assert_eq!(Ok(sliced), memo_single);
    }

    #[test]
    fn clause_counting_matches_brute_force() {
        use crate::graph_query::{GraphClause, GraphQuery};
        let s = ColoredGraphSpec::balanced(18, DegreeClass::Bounded(3)).generate(13);
        let e = s.signature().rel("E").unwrap();
        let b = s.signature().rel("B").unwrap();
        let r = s.signature().rel("R").unwrap();
        let gq = GraphQuery {
            k: 2,
            edge: e,
            clauses: vec![GraphClause {
                colors: vec![vec![b], vec![r]],
            }],
        };
        let adj = crate::enumerate::EdgeAdjacency::build(&s, e);
        let positions = PositionMemo::new();
        let counted =
            count_graph_query(&s, &gq, &adj, &ParConfig::serial(), None, None, &positions).unwrap();
        let mut brute = 0u64;
        for x in s.domain() {
            for y in s.domain() {
                if gq.accepts(&s, &adj, &[x, y]) {
                    brute += 1;
                }
            }
        }
        assert_eq!(counted, brute);
    }

    /// Clauses over shared color sets at `k = 3`: jobs group across
    /// clauses, three-member walks have an inner member, and the unit-test
    /// counter drains every few prefix tuples ([`DRAIN_EVERY`]).
    #[test]
    fn batched_pass_matches_per_term_across_clauses() {
        use crate::graph_query::{GraphClause, GraphQuery};
        let s = ColoredGraphSpec::balanced(40, DegreeClass::Bounded(4)).generate(22);
        let rel = |name: &str| s.signature().rel(name).unwrap();
        let (b, r, g) = (rel("B"), rel("R"), rel("G"));
        let sets = [vec![b], vec![r], vec![g], vec![b, r]];
        let clauses = (0..12)
            .map(|i| GraphClause {
                colors: (0..3).map(|j| sets[(i * 7 + j * 3) % 4].clone()).collect(),
            })
            .collect();
        let gq = GraphQuery {
            k: 3,
            edge: rel("E"),
            clauses,
        };
        let adj = crate::enumerate::EdgeAdjacency::build(&s, gq.edge);
        let want: u64 = gq
            .clauses
            .iter()
            .map(|c| count_clause_per_term(&s, &gq, c, &adj))
            .sum();
        assert!(want > 0);
        for par in [ParConfig::serial(), ParConfig::with_threads(4).min_items(1)] {
            let positions = PositionMemo::new();
            let got = count_graph_query(&s, &gq, &adj, &par, None, None, &positions);
            assert_eq!(got, Ok(want), "threads {}", par.threads());
        }
    }

    /// Two independent components of 2^33 candidates each: the term is
    /// 2^66, which no `u64` holds. The signed sum keeps it exact and the
    /// conversion to a count reports the overflow instead of saturating.
    #[test]
    fn signed_product_sum_is_exact_and_overflow_is_an_error() {
        let big = 1u64 << 33;
        let terms = vec![(false, vec![0, 1])];
        let total = lattice_partial_sum(&terms, |_| big).unwrap();
        assert_eq!(total, 1i128 << 66);
        assert_eq!(exact_count(total), Err(EngineError::CountOverflow));
        // a fitting total converts exactly, a negative one is internal
        let counts = [big, 1];
        let fits = lattice_partial_sum(&[(false, vec![0]), (true, vec![1])], |id| {
            counts[id as usize]
        })
        .unwrap();
        assert_eq!(exact_count(fits), Ok(big - 1));
        assert!(matches!(exact_count(-1), Err(EngineError::Internal(_))));
    }
}
