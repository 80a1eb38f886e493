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
use crate::graph_query::{GraphClause, GraphQuery};
use lowdeg_index::{FxHashMap, SliceInterner};
use lowdeg_logic::{DistCmp, Formula, Var};
use lowdeg_par::{par_map, ParConfig};
use lowdeg_storage::Structure;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Count the answers of a *generalized conjunction* (Lemma 3.5): conjuncts
/// may be positive atoms, negated atoms of any arity, equalities and
/// distance guards, over the answer variables `free` (no existentials).
///
/// Runtime `O(2^m · |γ| · n · d^h)` where `m` counts the negated non-unary
/// conjuncts.
pub fn count_conjunction(
    structure: &Structure,
    free: &[Var],
    conjuncts: &[Formula],
) -> Result<u64, ConnectedError> {
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
            let a = count_conjunction(structure, free, &without)?;
            let b = count_conjunction(structure, free, &with)?;
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
) -> Result<u64, ConnectedError> {
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
    let mut total: u64 = 1;
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
        total = total.saturating_mul(count);
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
    fn from_sorted(n: usize, list: &[lowdeg_storage::Node]) -> Self {
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
    fn contains(&self, v: lowdeg_storage::Node) -> bool {
        self.words[v.index() / 64] >> (v.index() % 64) & 1 == 1
    }
}

/// Count the answers of one reduced clause `θ_j` over the colored graph:
/// per-position colors plus the pairwise `¬E` of `ψ₁`.
///
/// This is Lemma 3.5 specialized to the reduced shape, with the base cases
/// walking adjacency lists instead of materializing neighborhoods: after
/// the inclusion–exclusion rewrites, each term's positive part is a set of
/// `E`-edges; its connected components are counted by rooting at the
/// position with the smallest candidate list and extending along adjacency.
///
/// The `2^m` inclusion–exclusion terms are evaluated over the **subset
/// lattice** instead of independently. The terms `N(S)` for `S ⊆ neg`
/// factor into connected components of the positive-edge set, and terms
/// adjacent in the lattice (differing by one flipped atom) share every
/// component not touched by that atom. The walk visits the masks in
/// Gray-code order, splits each term into components, and interns each
/// component's canonical signature (members + included edges, packed via
/// [`SliceInterner`]); a component seen before reuses its cached count, so
/// each *distinct* component is counted exactly once across the whole
/// lattice — the per-lattice-step work degenerates to the component(s)
/// containing the flipped edge. The distinct component counts fan out over
/// `par`; the signed products are then summed in mask order in an `i128`,
/// which reproduces the per-term evaluation ([`count_clause_per_term`])
/// bit for bit.
///
/// With a cross-query [`CountingMemo`], distinct lattice components probe
/// the memo by canonical signature and only novel ones are counted. The
/// result is bit-identical with and without a memo (a memo entry is the
/// exact count of its signature).
pub fn count_clause(
    graph: &Structure,
    gq: &GraphQuery,
    clause: &GraphClause,
    adjacency: &crate::enumerate::EdgeAdjacency,
    par: &ParConfig,
    memo: Option<&CountingMemo>,
) -> u64 {
    let (lists, sets, neg) = clause_tables(graph, gq, clause);
    match memo {
        None => count_clause_lattice(adjacency, &lists, &sets, &neg, par, None),
        Some(m) => {
            let tokens = color_tokens(clause, m.iota_sizes());
            count_clause_lattice(adjacency, &lists, &sets, &neg, par, Some((m, &tokens)))
        }
    }
}

/// The per-term reference evaluation of Lemma 3.5: nested differences, each
/// term's positive part counted from scratch. Kept as the differential
/// oracle for the lattice path (see `tests/lattice_ie.rs`); the production
/// path is [`count_clause`].
pub fn count_clause_per_term(
    graph: &Structure,
    gq: &GraphQuery,
    clause: &GraphClause,
    adjacency: &crate::enumerate::EdgeAdjacency,
) -> u64 {
    let (lists, sets, neg) = clause_tables(graph, gq, clause);
    ie_count(adjacency, &lists, &sets, &mut Vec::new(), &neg)
}

/// The single serial Gray-code walk over the full lattice. Oracle entry:
/// the conformance `latticecheck` oracle compares this, the sliced walk
/// ([`count_clause_lattice_sliced`]) and the per-term evaluation
/// ([`count_clause_per_term`]) — all three must agree exactly.
pub fn count_clause_lattice_serial(
    graph: &Structure,
    gq: &GraphQuery,
    clause: &GraphClause,
    adjacency: &crate::enumerate::EdgeAdjacency,
) -> u64 {
    let (lists, sets, neg) = clause_tables(graph, gq, clause);
    let total = lattice_sum_single(adjacency, &lists, &sets, &neg, &ParConfig::serial(), None);
    total.max(0) as u64
}

/// The sliced lattice walk with an explicit slice-bit count, forced even
/// when the pool would run serially. `bits` is clamped to `[1, m]` (with
/// `m = 0` falling back to the single walk). Oracle entry — the production
/// path picks `bits` from the pool size ([`count_clause`]).
pub fn count_clause_lattice_sliced(
    graph: &Structure,
    gq: &GraphQuery,
    clause: &GraphClause,
    adjacency: &crate::enumerate::EdgeAdjacency,
    bits: usize,
    par: &ParConfig,
) -> u64 {
    let (lists, sets, neg) = clause_tables(graph, gq, clause);
    let m = neg.len();
    let total = if m == 0 {
        lattice_sum_single(adjacency, &lists, &sets, &neg, &ParConfig::serial(), None)
    } else {
        lattice_sum_sliced(adjacency, &lists, &sets, &neg, bits.clamp(1, m), par, None)
    };
    total.max(0) as u64
}

/// Candidate lists, their bitsets, and the negated position pairs of one
/// reduced clause.
type ClauseTables = (
    Vec<Vec<lowdeg_storage::Node>>,
    Vec<NodeSet>,
    Vec<(usize, usize)>,
);

fn clause_tables(graph: &Structure, gq: &GraphQuery, clause: &GraphClause) -> ClauseTables {
    let k = gq.k;
    let n = graph.cardinality();
    let lists: Vec<Vec<lowdeg_storage::Node>> = (0..k)
        .map(|i| crate::graph_query::position_list(graph, &clause.colors[i]))
        .collect();
    let sets: Vec<NodeSet> = lists.iter().map(|l| NodeSet::from_sorted(n, l)).collect();
    // all unordered position pairs start negated; inclusion–exclusion flips
    // them to positive edges one by one
    let neg: Vec<(usize, usize)> = (0..k)
        .flat_map(|i| ((i + 1)..k).map(move |j| (i, j)))
        .collect();
    (lists, sets, neg)
}

/// Separator between the member run and the edge run of a component
/// signature (cannot collide with a position index: `k ≤ 64`).
const SIG_SEP: u32 = u32::MAX;

/// One distinct lattice component, pending its count: the member positions
/// and the indices (into `neg`) of its included edges.
struct CompJob {
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
/// counts across clauses, across the `2^m` lattice slices, and across
/// different queries whose clauses realize the same color combinations.
/// An [`crate::ArtifactCache`] retains one memo per core key; the
/// conformance `memocheck` oracle cross-checks that memoized counting is
/// observably identical to the memo-free path.
///
/// Internally synchronized (probe/publish batch under one mutex), so the
/// sliced lattice walk's worker threads share it directly.
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
    /// Whole-query answer counts keyed by normalized-query fingerprint.
    /// A hit lets a repeat build (or a rewrite variant with the same
    /// normal form) skip the inclusion–exclusion walk entirely; the memo
    /// is scoped to one core key, so the colored graph is pinned.
    query_counts: Mutex<FxHashMap<u64, u64>>,
    /// Per-reduced-clause answer counts keyed by the clause's packed
    /// acceptance signature (one `(injection, type)` word per partition
    /// part, `0` padding — see `reduction::pack_signature`). The signature
    /// determines the clause's colors against this memo's core, so the
    /// count is a pure function of the key; any two queries whose Step 5
    /// acceptance sets share a combo share its whole `2^m` lattice walk.
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

    /// Look up a batch of keys under one lock; `None` keys (components the
    /// caller resolves directly) are passed through untouched and not
    /// counted as probes.
    fn probe(&self, keys: &[Option<Box<[u32]>>]) -> Vec<Option<u64>> {
        let map = self.map.lock().expect("memo poisoned");
        let mut hits = 0u64;
        let mut misses = 0u64;
        let out = keys
            .iter()
            .map(|k| {
                let got = k.as_ref().and_then(|k| map.get(&**k).copied());
                if k.is_some() {
                    match got {
                        Some(_) => hits += 1,
                        None => misses += 1,
                    }
                }
                got
            })
            .collect();
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        out
    }

    /// Whole-query count for a normalized-query fingerprint, if a prior
    /// build against this core published one. A hit counts toward
    /// [`stats`](Self::stats) — it stands in for every component probe
    /// the skipped inclusion–exclusion walk would have made.
    pub fn query_count(&self, fingerprint: u64) -> Option<u64> {
        let got = self
            .query_counts
            .lock()
            .expect("memo poisoned")
            .get(&fingerprint)
            .copied();
        if got.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        got
    }

    /// Publish a whole-query count (racing writers agree by construction).
    pub(crate) fn record_query_count(&self, fingerprint: u64, count: u64) {
        self.query_counts
            .lock()
            .expect("memo poisoned")
            .insert(fingerprint, count);
    }

    /// Per-reduced-clause count for a packed acceptance signature, if a
    /// prior build against this core counted that combo. A hit stands in
    /// for the clause's entire inclusion–exclusion walk.
    pub(crate) fn combo_count(&self, signature: &[u64]) -> Option<u64> {
        let got = self
            .combo_counts
            .lock()
            .expect("memo poisoned")
            .get(signature)
            .copied();
        match got {
            Some(_) => self.combo_hits.fetch_add(1, Ordering::Relaxed),
            None => self.combo_misses.fetch_add(1, Ordering::Relaxed),
        };
        got
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

/// The canonical color token of one clause position, split into the
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

/// Per-position tokens of one clause. `iota_sizes` classifies the colored
/// graph's unary relations (empty slice: treat every color literally).
fn color_tokens(clause: &GraphClause, iota_sizes: &[u32]) -> Vec<PosToken> {
    clause
        .colors
        .iter()
        .map(|cs| {
            let mut rest: Vec<u32> = Vec::new();
            let mut iotas: Vec<(u32, u32)> = Vec::new();
            for r in cs {
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
        })
        .collect()
}

/// Components above this size skip the exact canonical search (the search
/// is factorial in the member count; components never exceed the query
/// arity, so this only triggers for very wide queries).
const MAX_CANON_MEMBERS: usize = 6;

/// Encode one slot ordering of a component: per slot
/// `[|rest|, rest…, |iotas|, (size, name)…]`, then [`SIG_SEP`] and the
/// edge pairs renumbered to slot indices, sorted. With `rename`, iota
/// `name`s are first-occurrence ranks in this ordering — the identity of
/// a `C_ι` relation is erased, only its domain size and its
/// equality pattern across the component's slots survive. Without it,
/// names are the raw relation ids.
fn key_for_order(tokens: &[PosToken], job: &CompJob, order: &[usize], rename: bool) -> Vec<u32> {
    let mut key: Vec<u32> = Vec::with_capacity(4 * job.members.len() + 2 * job.edges.len() + 2);
    key.push(job.members.len() as u32);
    let mut names: Vec<u32> = Vec::new();
    for &s in order {
        let tok = &tokens[job.members[s]];
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
            .position(|&s| job.members[s] == pos)
            .expect("edge endpoint is a member") as u32
    };
    let mut edges: Vec<(u32, u32)> = job
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

/// The cross-query canonical signature of one component: the
/// lexicographically least [`key_for_order`] image over all slot
/// orderings, with `C_ι` relation ids renamed by first occurrence.
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
fn canonical_component_key(tokens: &[PosToken], job: &CompJob) -> Box<[u32]> {
    let m = job.members.len();
    let mut order: Vec<usize> = (0..m).collect();
    if m > MAX_CANON_MEMBERS {
        order.sort_by(|&a, &b| {
            let (ta, tb) = (&tokens[job.members[a]], &tokens[job.members[b]]);
            ta.rest
                .cmp(&tb.rest)
                .then_with(|| ta.iotas.cmp(&tb.iotas))
                .then(a.cmp(&b))
        });
        return key_for_order(tokens, job, &order, false).into_boxed_slice();
    }
    // exact canonical form: minimum image over all m! orderings
    let mut best = key_for_order(tokens, job, &order, true);
    permute_orders(&mut order, 0, &mut |order| {
        let key = key_for_order(tokens, job, order, true);
        if key < best {
            best = key;
        }
    });
    best.into_boxed_slice()
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

/// Resolve the distinct component jobs of one walk to counts: singleton
/// components read their list length, multi-member components probe the
/// memo (when one is supplied) and only the genuinely novel signatures are
/// counted — in parallel when `par` is given, serially otherwise (the
/// sliced walk already runs each slice on a worker thread).
fn component_counts(
    adjacency: &crate::enumerate::EdgeAdjacency,
    lists: &[Vec<lowdeg_storage::Node>],
    sets: &[NodeSet],
    jobs: &[CompJob],
    memo: Option<MemoCtx<'_>>,
    par: Option<&ParConfig>,
) -> Vec<u64> {
    let compute = |idx: &[u32]| -> Vec<u64> {
        match par {
            Some(p) => par_map(p, idx, |&i| {
                count_job(adjacency, lists, sets, &jobs[i as usize])
            }),
            None => idx
                .iter()
                .map(|&i| count_job(adjacency, lists, sets, &jobs[i as usize]))
                .collect(),
        }
    };
    let Some((memo, tokens)) = memo else {
        let all: Vec<u32> = (0..jobs.len() as u32).collect();
        return compute(&all);
    };
    let mut keys: Vec<Option<Box<[u32]>>> = jobs
        .iter()
        .map(|job| (job.members.len() > 1).then(|| canonical_component_key(tokens, job)))
        .collect();
    let cached = memo.probe(&keys);
    let mut counts: Vec<u64> = vec![0; jobs.len()];
    let mut miss: Vec<u32> = Vec::new();
    for (i, c) in cached.into_iter().enumerate() {
        match c {
            Some(v) => counts[i] = v,
            None if keys[i].is_none() => counts[i] = sets[jobs[i].members[0]].len,
            None => miss.push(i as u32),
        }
    }
    let computed = compute(&miss);
    let mut fresh: Vec<(Box<[u32]>, u64)> = Vec::with_capacity(miss.len());
    for (&i, &v) in miss.iter().zip(&computed) {
        counts[i as usize] = v;
        fresh.push((keys[i as usize].take().expect("miss implies key"), v));
    }
    memo.publish(fresh);
    counts
}

/// The subset-lattice evaluation (see [`count_clause`]).
///
/// Serial pools walk the whole `2^m` lattice once; multi-thread pools slice
/// the rank space by its top [`lattice_slice_bits`] bits into contiguous
/// subtrees, each walked independently with its own signature-memo shard
/// ([`lattice_slice_sum`]), and the signed `i128` partials are summed in
/// slice order — exact integer addition, so the result is identical to the
/// single walk (and to [`count_clause_per_term`]) bit for bit.
fn count_clause_lattice(
    adjacency: &crate::enumerate::EdgeAdjacency,
    lists: &[Vec<lowdeg_storage::Node>],
    sets: &[NodeSet],
    neg: &[(usize, usize)],
    par: &ParConfig,
    memo: Option<MemoCtx<'_>>,
) -> u64 {
    let m = neg.len();
    let masks = 1usize << m;
    let bits = lattice_slice_bits(par, m);
    let total = if bits == 0 || par.runs_serial(masks) {
        lattice_sum_single(adjacency, lists, sets, neg, par, memo)
    } else {
        lattice_sum_sliced(adjacency, lists, sets, neg, bits, par, memo)
    };
    debug_assert!(total >= 0, "inclusion–exclusion cannot go negative");
    total.max(0) as u64
}

/// Memo handle threaded through the lattice walk: the shared
/// [`CountingMemo`] plus the current clause's per-position color tokens.
type MemoCtx<'a> = (&'a CountingMemo, &'a [PosToken]);

/// How many top rank bits to slice the lattice walk on for `par`: enough
/// subtrees for `threads · 4`-way load balancing, capped at `m` (slices of
/// at least one mask).
fn lattice_slice_bits(par: &ParConfig, m: usize) -> usize {
    if par.threads() <= 1 {
        return 0;
    }
    let target = par.threads() * 4;
    let mut bits = 0usize;
    while (1usize << bits) < target && bits < m {
        bits += 1;
    }
    bits
}

/// Single Gray-code walk over the full lattice; distinct-component counts
/// fan out over the worker pool.
fn lattice_sum_single(
    adjacency: &crate::enumerate::EdgeAdjacency,
    lists: &[Vec<lowdeg_storage::Node>],
    sets: &[NodeSet],
    neg: &[(usize, usize)],
    par: &ParConfig,
    memo: Option<MemoCtx<'_>>,
) -> i128 {
    let masks = 1usize << neg.len();
    let mut interner: SliceInterner<u32> = SliceInterner::new();
    let mut jobs: Vec<CompJob> = Vec::new();
    let mut terms: Vec<(bool, Vec<u32>)> = Vec::with_capacity(masks);
    lattice_walk_range(
        lists.len(),
        neg,
        0..masks,
        &mut interner,
        &mut jobs,
        &mut terms,
    );
    let counts = component_counts(adjacency, lists, sets, &jobs, memo, Some(par));
    lattice_partial_sum(&terms, &counts)
}

/// Sliced walk: each of the `2^bits` contiguous rank subtrees is an
/// independent job on the pool — own walk, own signature-memo shard, own
/// serially-counted components, own exact partial. Components shared
/// between subtrees are counted once *per subtree* (the memo shards are
/// disjoint); that duplication is the price of a walk with no shared
/// mutable state.
fn lattice_sum_sliced(
    adjacency: &crate::enumerate::EdgeAdjacency,
    lists: &[Vec<lowdeg_storage::Node>],
    sets: &[NodeSet],
    neg: &[(usize, usize)],
    bits: usize,
    par: &ParConfig,
    memo: Option<MemoCtx<'_>>,
) -> i128 {
    let m = neg.len();
    debug_assert!(bits >= 1 && bits <= m);
    let per = (1usize << m) >> bits;
    let slice_ids: Vec<u32> = (0..(1u32 << bits)).collect();
    let partials: Vec<i128> = par_map(par, &slice_ids, |&s| {
        let lo = s as usize * per;
        lattice_slice_sum(adjacency, lists, sets, neg, lo..lo + per, memo)
    });
    partials.iter().sum()
}

/// One subtree of the sliced walk: walk ranks `lo..hi` in Gray order with a
/// fresh signature-memo shard and return the slice's exact signed sum.
fn lattice_slice_sum(
    adjacency: &crate::enumerate::EdgeAdjacency,
    lists: &[Vec<lowdeg_storage::Node>],
    sets: &[NodeSet],
    neg: &[(usize, usize)],
    ranks: std::ops::Range<usize>,
    memo: Option<MemoCtx<'_>>,
) -> i128 {
    let mut interner: SliceInterner<u32> = SliceInterner::new();
    let mut jobs: Vec<CompJob> = Vec::new();
    let mut terms: Vec<(bool, Vec<u32>)> = Vec::with_capacity(ranks.len());
    lattice_walk_range(
        lists.len(),
        neg,
        ranks,
        &mut interner,
        &mut jobs,
        &mut terms,
    );
    // Each slice runs on a worker thread already: novel components count
    // serially here, but the shared memo means a component discovered by
    // one slice is a hit for every later one.
    let counts = component_counts(adjacency, lists, sets, &jobs, memo, None);
    lattice_partial_sum(&terms, &counts)
}

/// Pass 1 — walk the ranks in Gray-code order, splitting each term into
/// components and interning their signatures. Adjacent masks differ by one
/// flipped edge, so all components untouched by it re-intern to ids already
/// seen; only genuinely new components become jobs. The union-find is
/// rebuilt per mask (cheap: `k ≤ 8` positions), so any contiguous rank
/// range walks identically to its portion of the full walk.
fn lattice_walk_range(
    k: usize,
    neg: &[(usize, usize)],
    ranks: std::ops::Range<usize>,
    interner: &mut SliceInterner<u32>,
    jobs: &mut Vec<CompJob>,
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
            if id as usize == jobs.len() {
                // first occurrence anywhere in this walk: record the job
                jobs.push(CompJob {
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

/// Pass 2 — count one distinct component.
fn count_job(
    adjacency: &crate::enumerate::EdgeAdjacency,
    lists: &[Vec<lowdeg_storage::Node>],
    sets: &[NodeSet],
    job: &CompJob,
) -> u64 {
    if job.members.len() == 1 {
        sets[job.members[0]].len
    } else {
        count_component(adjacency, lists, sets, &job.edges, &job.members)
    }
}

/// Pass 3 — signed products in mask order, exact in `i128`.
fn lattice_partial_sum(terms: &[(bool, Vec<u32>)], counts: &[u64]) -> i128 {
    let mut total: i128 = 0;
    for (negative, ids) in terms {
        let mut product: u64 = 1;
        for &id in ids {
            product = product.saturating_mul(counts[id as usize]);
            if product == 0 {
                break;
            }
        }
        if *negative {
            total -= product as i128;
        } else {
            total += product as i128;
        }
    }
    total
}

fn ie_count(
    adjacency: &crate::enumerate::EdgeAdjacency,
    lists: &[Vec<lowdeg_storage::Node>],
    sets: &[NodeSet],
    pos_edges: &mut Vec<(usize, usize)>,
    neg: &[(usize, usize)],
) -> u64 {
    match neg.split_first() {
        Some((&pair, rest)) => {
            let without = ie_count(adjacency, lists, sets, pos_edges, rest);
            pos_edges.push(pair);
            let with = ie_count(adjacency, lists, sets, pos_edges, rest);
            pos_edges.pop();
            debug_assert!(without >= with);
            without - with
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
    lists: &[Vec<lowdeg_storage::Node>],
    sets: &[NodeSet],
    pos_edges: &[(usize, usize)],
) -> u64 {
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

    let mut total: u64 = 1;
    for root in distinct {
        let members: Vec<usize> = (0..k).filter(|&i| roots[i] == root).collect();
        let c = if members.len() == 1 {
            sets[members[0]].len
        } else {
            count_component(adjacency, lists, sets, pos_edges, &members)
        };
        total = total.saturating_mul(c);
        if total == 0 {
            return 0;
        }
    }
    total
}

fn count_component(
    adjacency: &crate::enumerate::EdgeAdjacency,
    lists: &[Vec<lowdeg_storage::Node>],
    sets: &[NodeSet],
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

    let mut assigned: Vec<lowdeg_storage::Node> = vec![lowdeg_storage::Node(0); lists.len()];
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
    lists: &[Vec<lowdeg_storage::Node>],
    sets: &[NodeSet],
    pos_edges: &[(usize, usize)],
    order: &[usize],
    anchor: &[Option<usize>],
    depth: usize,
    assigned: &mut Vec<lowdeg_storage::Node>,
    count: &mut u64,
) {
    if depth == order.len() {
        *count += 1;
        return;
    }
    let pos = order[depth];
    let check = |v: lowdeg_storage::Node, assigned: &Vec<lowdeg_storage::Node>| -> bool {
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
            for &v in &lists[pos] {
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

/// `|ψ(G)|`: sum over the mutually exclusive clauses, counted in parallel
/// on `par` (order-preserving; each clause's inclusion–exclusion terms fan
/// out further when large enough). The engine passes the reduction core's
/// shared `E`-adjacency, so the CSR is never materialized twice.
///
/// `memo` threads the [`crate::ArtifactCache`]'s per-core counting memo
/// through every clause (see [`count_clause`]). With `signatures` as well
/// — `signatures[i]` the packed acceptance signature of `gq.clauses[i]`
/// (see `reduction::pack_signature`) — the per-clause combination-count
/// tier is engaged: each clause probes the memo by signature, only novel
/// clauses run their inclusion–exclusion walk, and their counts are
/// published for the next query touching the same combination. Signatures
/// that do not align with the clauses are ignored. The count is
/// bit-identical on every path: a memo entry is the exact count of its
/// key, and the total is the same commutative sum.
pub fn count_graph_query(
    graph: &Structure,
    gq: &GraphQuery,
    adjacency: &crate::enumerate::EdgeAdjacency,
    par: &ParConfig,
    memo: Option<&CountingMemo>,
    signatures: Option<&[Box<[u64]>]>,
) -> Result<u64, ConnectedError> {
    let signatures = signatures.filter(|s| s.len() == gq.clauses.len());
    let (Some(memo), Some(signatures)) = (memo, signatures) else {
        let counts = par_map(par, &gq.clauses, |clause| {
            count_clause(graph, gq, clause, adjacency, par, memo)
        });
        return Ok(counts.iter().sum());
    };
    let cached: Vec<Option<u64>> = signatures.iter().map(|s| memo.combo_count(s)).collect();
    let miss: Vec<u32> = cached
        .iter()
        .enumerate()
        .filter_map(|(i, c)| c.is_none().then_some(i as u32))
        .collect();
    let computed = par_map(par, &miss, |&i| {
        count_clause(
            graph,
            gq,
            &gq.clauses[i as usize],
            adjacency,
            par,
            Some(memo),
        )
    });
    let mut counts: Vec<u64> = cached.iter().map(|c| c.unwrap_or(0)).collect();
    for (&i, &v) in miss.iter().zip(&computed) {
        counts[i as usize] = v;
        memo.record_combo_count(signatures[i as usize].clone(), v);
    }
    Ok(counts.iter().sum())
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
        total += count_conjunction(structure, free, &conjuncts)?;
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
        for gq in [&q1, &q2] {
            let plain = count_graph_query(&s, gq, &adj, &par, None, None).unwrap();
            let memoized = count_graph_query(&s, gq, &adj, &par, Some(&memo), None).unwrap();
            assert_eq!(plain, memoized, "memo must not change the count");
            // a second memoized run of the same query is all hits
            let again = count_graph_query(&s, gq, &adj, &par, Some(&memo), None).unwrap();
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
        let memo_single = count_clause(&s, &q1, &q1.clauses[0], &adj, &par, Some(&memo));
        assert_eq!(sliced, memo_single);
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
        let counted = count_graph_query(&s, &gq, &adj, &ParConfig::serial(), None, None).unwrap();
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
}
