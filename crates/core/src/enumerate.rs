//! Constant-delay enumeration: Proposition 3.9 (Theorem 2.7).
//!
//! Enumerates the reduced query `ψ = ψ₁ ∧ ψ₂` over the colored graph, clause
//! by clause (clauses are mutually exclusive, so concatenation never
//! repeats). Within a clause the positions are assigned nested-loop style,
//! and the whole difficulty is the pairwise `¬E` guard of `ψ₁`: a naive walk
//! over a position's candidate list can hit arbitrarily long runs of
//! vertices adjacent to the already-fixed ones.
//!
//! The paper's machinery eliminates those runs:
//!
//! * every *large* position (candidate list longer than `(k−1)·maxdeg`)
//!   walks its sorted list `P(G)` with the **`skip` function**:
//!   `skip(y, V)` jumps, in one lookup, to the first `z ≥ y` in the list not
//!   adjacent to any vertex of `V`;
//! * `V` is the subset of already-fixed vertices related to `y` by the
//!   relation **`E_k`** (the paper's inductively defined reachability
//!   pattern through `E`-edges and the list's `next` pointers); the paper's
//!   proof shows skipping w.r.t. this `V` never lands on a vertex adjacent
//!   to *any* fixed vertex — this is the step that makes the delay constant;
//! * a *small* position (list bounded by `(k−1)·maxdeg`, a pseudo-constant)
//!   is hoisted outward and iterated directly; large positions below it
//!   simply add its fixed value to their forbidden set.
//!
//! Large walks always produce at least one output for any forbidden set of
//! size < k (counting: `|list| > (k−1)·maxdeg` candidates, at most
//! `(k−1)·maxdeg` excluded), so once the iterator is inside the large
//! levels, every step emits — the delay depends only on `k` and the skip
//! lookup cost.
//!
//! The `skip` function is stored per the Storing Theorem
//! ([`lowdeg_index::RadixFuncStore`]) when the eager table fits the paper's
//! `d̂^{3k²}` budget ([`SkipMode::Eager`]), or memoized on demand
//! ([`SkipMode::Lazy`] — the E10 ablation compares both).

use crate::artifacts::{Profiler, Stage};
use crate::csr::PairCsr;
use crate::graph_query::{GraphClause, GraphQuery, PositionMemo};
use lowdeg_index::{Epsilon, FxHashMap, FxHashSet, RadixFuncStore, SliceInterner};
use lowdeg_par::{par_flat_map, par_map, ParConfig};
use lowdeg_storage::{Node, Structure};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// How the `skip` function is materialized.
///
/// The paper keys `skip(y, V)` on sets `V` of `E_k`-related vertices so
/// that the *precomputed* table has pseudo-linear domain. When the table is
/// instead memoized on demand, that restriction is unnecessary: keying on
/// the full forbidden set is correct outright (the jump target is, by
/// definition, the next list vertex non-adjacent to every forbidden
/// vertex), and no `E_k` relation is needed at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkipMode {
    /// Precompute `skip(y, V)` for every list node `y` and every subset
    /// `V` (|V| < k) of its `E_k`-neighborhood, stored via the Storing
    /// Theorem. Paper-faithful constant delay; preprocessing pays the
    /// `d̂^{3k²}` factor, so levels exceeding [`EAGER_SKIP_LIMIT`] or
    /// [`EK_COST_LIMIT`] degrade to lazy automatically.
    Eager,
    /// Compute skip values on first use and memoize, keyed on the full
    /// forbidden set. Identical outputs; first-touch delay is
    /// `O(k·maxdeg)` instead of `O(1)`.
    Lazy,
    /// As [`SkipMode::Eager`] but ignoring the cost gates — builds the full
    /// `E_k` + table unconditionally. For experiments (E10) and tests; can
    /// take `|E|·d̃²` time and memory.
    EagerForce,
}

/// Hard cap on the eager skip table size; beyond it the level silently
/// degrades to lazy (recorded in [`LevelPlan::eager_built`]).
pub const EAGER_SKIP_LIMIT: u64 = 4_000_000;

/// Hard cap on the estimated cost `|E₁| · d̃² · (k−1)` of materializing the
/// `E_k` relation. The paper's table is pseudo-linear only when
/// `n ≫ d̃^{3k}`; below that regime (i.e. on any practically dense
/// instance) the level degrades to the lazy skip, which needs no `E_k` at
/// all (see [`SkipMode::Lazy`]).
pub const EK_COST_LIMIT: u64 = 50_000_000;

/// The effective cost gates of the eager skip machinery. Every level build
/// consults one of these instead of the raw constants; production builds
/// run under the default (the compiled-in constants), while tests move the
/// eager-vs-lazy frontier to force degradation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SkipLimits {
    /// Cap on the estimated `E_k` materialization cost
    /// `|E₁| · d̃² · (k−1)`; see [`EK_COST_LIMIT`].
    pub ek_cost_limit: u64,
    /// Cap on the estimated eager table size `Σ_y Σ_{s<k} C(|U(y)|, s)`;
    /// see [`EAGER_SKIP_LIMIT`].
    pub eager_skip_limit: u64,
}

impl Default for SkipLimits {
    fn default() -> Self {
        SkipLimits {
            ek_cost_limit: EK_COST_LIMIT,
            eager_skip_limit: EAGER_SKIP_LIMIT,
        }
    }
}

/// Sentinel for `void` in skip stores.
const VOID: u32 = u32::MAX;

/// Symmetric `E`-adjacency of the colored graph. Two storage forms share
/// one query interface:
///
/// * **`Csr`** — one flat sorted neighbor array plus per-vertex offsets,
///   built from an explicit `E` relation. Used by hand-assembled test
///   graphs and the brute-force oracles.
/// * **`Blocks`** — the reduction's native form. `E` connects two cluster
///   vertices iff their *underlying tuples* are near each other, so the
///   edge set is fully determined by a tuple-level adjacency CSR plus the
///   tuple → vertex-block map (vertices of one tuple occupy a contiguous
///   id range, one per matching-size ι). The vertex-level neighbor list is
///   never materialized: `neighbors` expands blocks on the fly (ascending
///   by construction, skipping the vertex itself) and `adjacent` is a
///   binary search in the tuple row. This keeps the extraction output at
///   `O(#tuple pairs)` instead of `O(#vertex pairs)` — on dense instances
///   the difference is the square of the mean ι-block size, gigabytes of
///   neighbor array that are never written or faulted.
///
/// One instance is built per reduction core and shared between counting,
/// enumeration, and the test index.
#[derive(Debug, Clone)]
pub struct EdgeAdjacency {
    repr: AdjRepr,
    /// Number of graph nodes (base elements, dummy, and cluster vertices).
    len: usize,
    /// Total directed `E`-pair count.
    pairs: usize,
    max_degree: usize,
}

#[derive(Debug, Clone)]
enum AdjRepr {
    Csr {
        offsets: Vec<usize>,
        neighbors: Vec<Node>,
    },
    Blocks {
        /// Node id of the first cluster vertex (`base_n + 1`).
        first: u32,
        /// Vertex index → owning tuple index.
        vtuple: Vec<u32>,
        /// Tuple index → first vertex index (length `#tuples + 1`).
        block: Vec<u32>,
        /// Tuple index → bounds of its adjacency row in `rows`. Tuples
        /// over the same element *set* have identical rows, so the join
        /// computes each distinct row once and every member tuple aliases
        /// the same `rows` range — the bounds are *not* a monotone CSR.
        row_start: Vec<u32>,
        row_end: Vec<u32>,
        /// Shared row storage: sorted tuple indices within Gaifman
        /// distance `2r+1` (every row contains its owners).
        rows: Vec<u32>,
    },
}

/// Iterator over the sorted `E`-neighbors of one vertex (see
/// [`EdgeAdjacency::neighbors`]).
#[derive(Debug, Clone)]
pub struct NeighborIter<'a>(NeighborInner<'a>);

#[derive(Debug, Clone)]
enum NeighborInner<'a> {
    /// Direct walk over a CSR neighbor run.
    Slice(std::slice::Iter<'a, Node>),
    /// Block expansion: remaining adjacent tuples plus the in-flight
    /// vertex range of the current block, skipping the source vertex.
    Blocks {
        adj: std::slice::Iter<'a, u32>,
        block: &'a [u32],
        first: u32,
        cur: u32,
        end: u32,
        skip: u32,
    },
}

impl Iterator for NeighborIter<'_> {
    type Item = Node;

    #[inline]
    fn next(&mut self) -> Option<Node> {
        match &mut self.0 {
            NeighborInner::Slice(it) => it.next().copied(),
            NeighborInner::Blocks {
                adj,
                block,
                first,
                cur,
                end,
                skip,
            } => loop {
                if cur < end {
                    let v = *cur;
                    *cur += 1;
                    if v == *skip {
                        continue;
                    }
                    return Some(Node(*first + v));
                }
                let &j2 = adj.next()?;
                *cur = block[j2 as usize];
                *end = block[j2 as usize + 1];
            },
        }
    }
}

impl EdgeAdjacency {
    /// Build the CSR form from an explicit `E` relation (assumed
    /// symmetric). The relation is stored sorted and duplicate-free
    /// ([`lowdeg_storage::Relation`]'s invariant), so this is a single
    /// counting pass plus a column copy.
    pub fn build(graph: &Structure, edge: lowdeg_storage::RelId) -> Self {
        let n = graph.cardinality();
        let rel = graph.relation(edge);
        let flat = rel.as_flat();
        let mut offsets = vec![0usize; n + 1];
        let mut neighbors: Vec<Node> = Vec::with_capacity(rel.len());
        for t in flat.chunks_exact(2) {
            offsets[t[0].index() + 1] += 1;
            neighbors.push(t[1]);
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let max_degree = (0..n)
            .map(|i| offsets[i + 1] - offsets[i])
            .max()
            .unwrap_or(0);
        EdgeAdjacency {
            len: n,
            pairs: neighbors.len(),
            max_degree,
            repr: AdjRepr::Csr { offsets, neighbors },
        }
    }

    /// Adopt the reduction's tuple-level join output. `block` maps tuple
    /// index → first vertex index, `row_start`/`row_end` bound each
    /// tuple's adjacency row in the shared `rows` storage (rows sorted,
    /// each containing the tuple itself; tuples over the same element set
    /// alias one row), and `first` is the node id of vertex index 0.
    /// Vertex-level degree and pair counts follow from the blocks: every
    /// vertex of tuple `j` has degree `Σ_{j'∈row(j)} |block(j')| − 1` (the
    /// `−1` skips the vertex itself); the fanout sum is memoized per
    /// distinct row, so shared rows are scanned once.
    pub fn from_block_rows(
        first: u32,
        block: Vec<u32>,
        row_start: Vec<u32>,
        row_end: Vec<u32>,
        rows: Vec<u32>,
    ) -> Self {
        let tuples = block.len() - 1;
        debug_assert_eq!(row_start.len(), tuples);
        debug_assert_eq!(row_end.len(), tuples);
        let n_vertices = *block.last().unwrap_or(&0) as usize;
        let mut vtuple: Vec<u32> = vec![0u32; n_vertices];
        let mut pairs: usize = 0;
        let mut max_degree = 0usize;
        let mut fanout_memo: FxHashMap<u32, usize> = FxHashMap::default();
        for j in 0..tuples {
            let cnt = (block[j + 1] - block[j]) as usize;
            if cnt == 0 {
                continue;
            }
            for v in block[j]..block[j + 1] {
                vtuple[v as usize] = j as u32;
            }
            // distinct rows have distinct starts, so the start is the key
            let fanout: usize = *fanout_memo.entry(row_start[j]).or_insert_with(|| {
                rows[row_start[j] as usize..row_end[j] as usize]
                    .iter()
                    .map(|&j2| (block[j2 as usize + 1] - block[j2 as usize]) as usize)
                    .sum()
            });
            let degree = fanout - 1; // every row contains `j` itself
            pairs += cnt * degree;
            max_degree = max_degree.max(degree);
        }
        EdgeAdjacency {
            len: first as usize + n_vertices,
            pairs,
            max_degree,
            repr: AdjRepr::Blocks {
                first,
                vtuple,
                block,
                row_start,
                row_end,
                rows,
            },
        }
    }

    /// Sorted `E`-neighbors of `v` (nodes that are not cluster vertices
    /// have none).
    #[inline]
    pub fn neighbors(&self, v: Node) -> NeighborIter<'_> {
        match &self.repr {
            AdjRepr::Csr { offsets, neighbors } => NeighborIter(NeighborInner::Slice(
                neighbors[offsets[v.index()]..offsets[v.index() + 1]].iter(),
            )),
            AdjRepr::Blocks {
                first,
                vtuple,
                block,
                row_start,
                row_end,
                rows,
            } => {
                let (adj, skip) = match v.0.checked_sub(*first) {
                    Some(i) if (i as usize) < vtuple.len() => {
                        let j = vtuple[i as usize] as usize;
                        (rows[row_start[j] as usize..row_end[j] as usize].iter(), i)
                    }
                    _ => ([].iter(), 0),
                };
                NeighborIter(NeighborInner::Blocks {
                    adj,
                    block,
                    first: *first,
                    cur: 0,
                    end: 0,
                    skip,
                })
            }
        }
    }

    /// `E'(u, v)`?
    #[inline]
    pub fn adjacent(&self, u: Node, v: Node) -> bool {
        match &self.repr {
            AdjRepr::Csr { offsets, neighbors } => neighbors
                [offsets[u.index()]..offsets[u.index() + 1]]
                .binary_search(&v)
                .is_ok(),
            AdjRepr::Blocks {
                first,
                vtuple,
                row_start,
                row_end,
                rows,
                ..
            } => {
                if u == v {
                    return false;
                }
                let (Some(iu), Some(iv)) = (u.0.checked_sub(*first), v.0.checked_sub(*first))
                else {
                    return false;
                };
                if iu as usize >= vtuple.len() || iv as usize >= vtuple.len() {
                    return false;
                }
                let ju = vtuple[iu as usize] as usize;
                let jv = vtuple[iv as usize];
                rows[row_start[ju] as usize..row_end[ju] as usize]
                    .binary_search(&jv)
                    .is_ok()
            }
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total directed `E`-pair count (`|E₁|`).
    #[inline]
    pub fn pair_count(&self) -> usize {
        self.pairs
    }

    /// Maximum `E`-degree (`d̃` in the delay threshold).
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }
}

/// Per-position iteration strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Long list: walk with the skip machinery; guaranteed productive.
    Large,
    /// Short list (≤ `(k−1)·maxdeg`): direct iteration with explicit checks.
    Small,
}

/// Preprocessed machinery for one *large* position of one clause.
#[derive(Debug)]
pub struct LevelPlan {
    /// The sorted candidate list `P(G)`.
    pub list: Vec<Node>,
    /// `node → index in list` (or `VOID`). Dense over the whole graph
    /// domain, so it is only materialized when the eager machinery is built
    /// and needs O(1) lookups in its inner loops; lazy levels leave it empty
    /// and [`LevelPlan::index_of`] binary-searches the sorted list instead.
    /// (Zeroing one `n_graph`-sized vec per large level used to dominate
    /// warm builds: tens of levels × multi-MB allocations, all dead weight
    /// whenever the eager tables are skipped.)
    index_in_list: Vec<u32>,
    /// The `E_k` relation in CSR form, keyed by the non-list endpoint `u`
    /// (sorted-run binary search, see [`crate::csr::PairCsr`]). Only
    /// materialized when the eager table is built (the lazy skip does not
    /// need it).
    ek: Option<PairCsr>,
    /// Eager skip table (when built): key = `(y, V padded)`, value = skip
    /// result (`VOID` = none).
    skip_store: Option<RadixFuncStore<u32>>,
    /// Whether the eager table was actually built.
    pub eager_built: bool,
    /// The estimated `E_k` materialization cost `|E₁| · d̃² · (k−1)` this
    /// level was gated on (diagnostics; surfaced by `explain`).
    pub ek_cost: u64,
    /// Whether an eager build was requested but a cost gate silently
    /// degraded the level to the lazy skip (the condition the explain
    /// output now surfaces per level).
    pub degraded: bool,
    /// Peak lazy-skip memo length observed across finished traversals of
    /// this level (memory-growth diagnostics; see [`ClauseIter`]'s `Drop`).
    lazy_memo_peak: AtomicUsize,
    /// Peak lazy-skip memo *capacity* across finished traversals — the
    /// number that actually bounds resident memory between rehashes.
    lazy_memo_cap_peak: AtomicUsize,
}

impl LevelPlan {
    #[allow(clippy::too_many_arguments)]
    fn build(
        list: Vec<Node>,
        adjacency: &EdgeAdjacency,
        k: usize,
        n_graph: usize,
        mode: SkipMode,
        eps: Epsilon,
        limits: SkipLimits,
        par: &ParConfig,
        profiler: &Profiler,
    ) -> Self {
        debug_assert!(list.windows(2).all(|w| w[0] < w[1]), "list sorted");

        // Decide whether the paper-faithful eager machinery is affordable:
        // materializing E_k costs about |E_1| * maxdeg^2 per expansion round.
        let e1_pairs: u64 = adjacency.pair_count() as u64;
        let dmax = adjacency.max_degree() as u64;
        let ek_cost = e1_pairs
            .saturating_mul(dmax.saturating_mul(dmax))
            .saturating_mul(k as u64 - 1);
        let try_eager = k >= 2
            && match mode {
                SkipMode::Eager => ek_cost <= limits.ek_cost_limit,
                SkipMode::EagerForce => true,
                SkipMode::Lazy => false,
            };

        let mut index_in_list: Vec<u32> = Vec::new();
        let mut ek: Option<PairCsr> = None;
        let mut skip_store = None;
        let mut eager_built = false;

        if try_eager {
            index_in_list = vec![VOID; n_graph];
            for (i, &v) in list.iter().enumerate() {
                index_in_list[v.index()] = i as u32;
            }
            // E_1 = E' ; E_{i+1}(u,y) = E_i(u,y) ∨ ∃ z z' v:
            //    E'(z,u) ∧ next(z',z) ∧ E'(v,z') ∧ E_i(v,y)
            //
            // Semi-naive fixpoint: a pair discovered in round i produces the
            // same expansions whenever it is re-visited, so each round only
            // walks the *frontier* — the pairs newly added by the previous
            // round — instead of re-snapshotting the whole relation.
            // Frontier expansion is pure per pair and fans out over the
            // worker pool; dedup against `seen` stays sequential.
            let fixpoint_started = std::time::Instant::now();
            let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
            let mut frontier: Vec<(u32, u32)> = Vec::new();
            for u in 0..adjacency.len() {
                for y in adjacency.neighbors(Node(u as u32)) {
                    if seen.insert((u as u32, y.0)) {
                        frontier.push((u as u32, y.0));
                    }
                }
            }
            for _ in 1..k {
                if frontier.is_empty() {
                    break;
                }
                let candidates: Vec<(u32, u32)> = par_flat_map(par, &frontier, |&(v, y)| {
                    let mut out = Vec::new();
                    for zp in adjacency.neighbors(Node(v)) {
                        // z' must be a non-final list element; z = next(z')
                        let zi = index_in_list[zp.index()];
                        if zi == VOID || (zi as usize) + 1 >= list.len() {
                            continue;
                        }
                        let z = list[zi as usize + 1];
                        for u in adjacency.neighbors(z) {
                            out.push((u.0, y));
                        }
                    }
                    out
                });
                let mut next = Vec::new();
                for p in candidates {
                    if seen.insert(p) {
                        next.push(p);
                    }
                }
                frontier = next;
            }

            // Freeze: E_k keyed by u for membership, and the reverse index
            // keyed by the list-side endpoint y for table generation. CSR
            // layout is determined by the pair *set*, so serial and
            // parallel builds agree bit for bit.
            let pairs: Vec<(u32, u32)> = seen.into_iter().collect();
            let rev = PairCsr::from_pairs(
                n_graph,
                pairs
                    .iter()
                    .filter(|&&(_, y)| index_in_list[y as usize] != VOID)
                    .map(|&(u, y)| (y, u))
                    .collect(),
            );
            let rel = PairCsr::from_pairs(n_graph, pairs);
            profiler.add(
                Stage::Fixpoint,
                fixpoint_started.elapsed().as_nanos() as u64,
            );
            // estimate table size: Σ_y Σ_{s<k} C(|U(y)|, s)
            let mut est: u64 = 0;
            for &y in &list {
                let u_len = rev.neighbors(y.0).len() as u64;
                let mut binom: u64 = 1;
                let mut sum: u64 = 1; // empty subset
                for s in 1..k as u64 {
                    binom = binom.saturating_mul(u_len.saturating_sub(s - 1)) / s;
                    sum = sum.saturating_add(binom);
                }
                est = est.saturating_add(sum);
            }
            if est <= limits.eager_skip_limit || mode == SkipMode::EagerForce {
                // Per-y table entries are pure (walk_skip reads only frozen
                // data): generate them in parallel as flattened
                // (keys, values) runs, then insert sequentially in list
                // order — the store sees exactly the serial insertion
                // sequence.
                let tables_started = std::time::Instant::now();
                let sentinel = Node(n_graph as u32);
                let entries: Vec<(Vec<Node>, Vec<u32>)> = par_map(par, &list, |&y| {
                    let u_list = rev.neighbors(y.0);
                    let mut keys: Vec<Node> = Vec::new();
                    let mut vals: Vec<u32> = Vec::new();
                    let mut subset: Vec<u32> = Vec::new();
                    // all subsets of size < k
                    enumerate_subsets(u_list, k - 1, &mut subset, &mut |vset| {
                        let z = walk_skip(
                            &list,
                            index_in_list[y.index()] as usize,
                            adjacency,
                            vset.iter().map(|&v| Node(v)),
                        );
                        keys.push(y);
                        for i in 0..k - 1 {
                            keys.push(vset.get(i).map(|&v| Node(v)).unwrap_or(sentinel));
                        }
                        vals.push(z.map(|n| n.0).unwrap_or(VOID));
                    });
                    (keys, vals)
                });
                let mut store = RadixFuncStore::new(n_graph + 1, k, eps);
                for (keys, vals) in &entries {
                    for (key, &val) in keys.chunks_exact(k).zip(vals) {
                        store.insert(key, val);
                    }
                }
                skip_store = Some(store);
                ek = Some(rel);
                eager_built = true;
                profiler.add(
                    Stage::SkipTables,
                    tables_started.elapsed().as_nanos() as u64,
                );
            }
        }

        if !eager_built {
            // the dense map only served the (skipped) table build
            index_in_list = Vec::new();
        }

        // "Degraded" = an eager build was asked for and a cost gate said no.
        // k == 1 has no forbidden sets at all, so nothing was given up there.
        let eager_requested = k >= 2 && !matches!(mode, SkipMode::Lazy);
        LevelPlan {
            list,
            index_in_list,
            ek,
            skip_store,
            eager_built,
            ek_cost,
            degraded: eager_requested && !eager_built,
            lazy_memo_peak: AtomicUsize::new(0),
            lazy_memo_cap_peak: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn index_of(&self, v: Node) -> Option<usize> {
        if self.index_in_list.is_empty() {
            return self.list.binary_search(&v).ok();
        }
        let i = self.index_in_list[v.index()];
        (i != VOID).then_some(i as usize)
    }

    /// Is `(u, y)` in `E_k`? Only callable on eager levels.
    #[inline]
    fn ek_related(&self, u: Node, y: Node) -> bool {
        self.ek
            .as_ref()
            .expect("E_k only materialized for eager levels")
            .contains(u.0, y.0)
    }

    /// Number of `E_k` pairs (diagnostics for E9/E10; 0 for lazy levels).
    pub fn ek_len(&self) -> usize {
        self.ek.as_ref().map(|e| e.len()).unwrap_or(0)
    }

    /// Size of the eager skip table, when built.
    pub fn skip_entries(&self) -> usize {
        self.skip_store.as_ref().map(|s| s.len()).unwrap_or(0)
    }

    /// Peak lazy-skip memo `(len, capacity)` across finished traversals of
    /// this level (both 0 for eager levels or before any cursor was
    /// dropped). Capacity is what bounds resident memory between rehashes.
    pub fn lazy_memo_peak(&self) -> (usize, usize) {
        (
            self.lazy_memo_peak.load(Ordering::Relaxed),
            self.lazy_memo_cap_peak.load(Ordering::Relaxed),
        )
    }

    /// Read-touch every page of the level's frozen structures (candidate
    /// list, dense index, `E_k`, eager skip table) so probes that follow
    /// pay no first-touch page fault inside a delay sample. Returns a
    /// wrapping fold of the words read so the pass cannot be optimized
    /// away.
    fn prefault(&self) -> u64 {
        let mut acc = 0u64;
        for chunk in self.list.chunks(1024) {
            acc = acc.wrapping_add(chunk[0].0 as u64);
        }
        for chunk in self.index_in_list.chunks(1024) {
            acc = acc.wrapping_add(chunk[0] as u64);
        }
        if let Some(ek) = &self.ek {
            acc = acc.wrapping_add(ek.prefault());
        }
        if let Some(store) = &self.skip_store {
            acc = acc.wrapping_add(store.prefault());
        }
        acc
    }
}

fn enumerate_subsets(
    items: &[u32],
    max_size: usize,
    current: &mut Vec<u32>,
    sink: &mut impl FnMut(&[u32]),
) {
    sink(current);
    if current.len() == max_size {
        return;
    }
    let start = current
        .last()
        .map(|&l| items.partition_point(|&x| x <= l))
        .unwrap_or(0);
    for i in start..items.len() {
        current.push(items[i]);
        enumerate_subsets(items, max_size, current, sink);
        current.pop();
    }
}

/// Linear skip walk (the fallback and the eager-table generator): first
/// `z ≥ y` in the list not `E'`-adjacent to any element of `vs`, starting
/// from `start` = `y`'s index in the list.
fn walk_skip(
    list: &[Node],
    start: usize,
    adjacency: &EdgeAdjacency,
    vs: impl Iterator<Item = Node> + Clone,
) -> Option<Node> {
    list[start..]
        .iter()
        .copied()
        .find(|&z| vs.clone().all(|v| !adjacency.adjacent(z, v)))
}

/// The preprocessed enumeration plan for one clause.
#[derive(Debug)]
pub struct ClausePlan {
    k: usize,
    /// Candidate lists per position — shared with the per-core
    /// [`PositionMemo`], so clauses (and engines) drawing the same color
    /// set share one list.
    lists: Vec<Arc<Vec<Node>>>,
    /// Strategy per position.
    pub strategies: Vec<Strategy>,
    /// Skip machinery per position (only for Large positions).
    pub levels: Vec<Option<LevelPlan>>,
    /// Iteration order: small positions first, then large, ascending.
    order: Vec<usize>,
    /// Peak forbidden-set interner length across finished traversals
    /// (memory-growth diagnostics; see [`ClauseIter`]'s `Drop`).
    vset_peak: AtomicUsize,
    /// Peak forbidden-set interner id-map capacity across finished
    /// traversals.
    vset_cap_peak: AtomicUsize,
}

impl ClausePlan {
    /// Preprocess one clause under the cost gates `limits`, drawing its
    /// candidate lists from `positions` and recording `fixpoint` /
    /// `skip-tables` stage timings in `profiler` (cumulative across levels;
    /// on a multi-thread pool, concurrent levels sum their task times).
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        graph: &Structure,
        gq: &GraphQuery,
        clause: &GraphClause,
        adjacency: &EdgeAdjacency,
        mode: SkipMode,
        eps: Epsilon,
        limits: SkipLimits,
        par: &ParConfig,
        profiler: &Profiler,
        positions: &PositionMemo,
    ) -> Self {
        let k = gq.k;
        let n_graph = graph.cardinality();
        let threshold = (k - 1) * adjacency.max_degree();
        let lists: Vec<Arc<Vec<Node>>> = (0..k)
            .map(|i| positions.position_list(graph, &clause.colors[i]))
            .collect();
        let strategies: Vec<Strategy> = lists
            .iter()
            .map(|l| {
                if l.len() > threshold {
                    Strategy::Large
                } else {
                    Strategy::Small
                }
            })
            .collect();
        let levels: Vec<Option<LevelPlan>> = lists
            .iter()
            .zip(&strategies)
            .map(|(l, s)| match s {
                Strategy::Large => Some(LevelPlan::build(
                    l.as_ref().clone(),
                    adjacency,
                    k,
                    n_graph,
                    mode,
                    eps,
                    limits,
                    par,
                    profiler,
                )),
                Strategy::Small => None,
            })
            .collect();
        let mut order: Vec<usize> = Vec::with_capacity(k);
        order.extend((0..k).filter(|&i| strategies[i] == Strategy::Small));
        order.extend((0..k).filter(|&i| strategies[i] == Strategy::Large));
        ClausePlan {
            k,
            lists,
            strategies,
            levels,
            order,
            vset_peak: AtomicUsize::new(0),
            vset_cap_peak: AtomicUsize::new(0),
        }
    }

    /// Candidate-list length per position (diagnostics).
    pub fn list_sizes(&self) -> Vec<usize> {
        self.lists.iter().map(|l| l.len()).collect()
    }

    /// Length of the outermost order level's candidate list — the axis
    /// [`ClausePlan::iter_slice`] shards over.
    pub fn top_len(&self) -> usize {
        self.order
            .first()
            .map(|&p| self.lists[p].len())
            .unwrap_or(0)
    }

    /// Peak forbidden-set interner `(len, id-map capacity)` across finished
    /// traversals of this clause (memory-growth diagnostics).
    pub fn vset_peak(&self) -> (usize, usize) {
        (
            self.vset_peak.load(Ordering::Relaxed),
            self.vset_cap_peak.load(Ordering::Relaxed),
        )
    }

    /// Read-touch every page of the clause's frozen structures (see
    /// [`Enumerator::prefault`]).
    pub fn prefault(&self) -> u64 {
        let mut acc = 0u64;
        for list in &self.lists {
            for chunk in list.chunks(1024) {
                acc = acc.wrapping_add(chunk[0].0 as u64);
            }
        }
        for level in self.levels.iter().flatten() {
            acc = acc.wrapping_add(level.prefault());
        }
        acc
    }

    /// Iterate this clause's vertex tuples.
    pub fn iter<'a>(&'a self, adjacency: &'a EdgeAdjacency) -> ClauseIter<'a> {
        self.iter_slice(adjacency, 0, self.top_len())
    }

    /// As [`ClausePlan::iter`], restricted to the contiguous slice
    /// `lo..hi` of the *outermost* order level's candidate list.
    ///
    /// The outermost level sees an empty forbidden set, so `skip(y, ∅) = y`
    /// and the level walks its sorted list strictly in order; the inner
    /// levels' output depends only on the values fixed above them, and the
    /// lazy memo / interner are transparent caches. Concatenating the
    /// cursors of any partition of `0..top_len()` in slice order therefore
    /// reproduces the full cursor's output **bit for bit** — the invariant
    /// the parallel answer path (`Engine::par_for_each_answer`) is built
    /// on. Out-of-range bounds are clamped; an empty slice yields nothing.
    pub fn iter_slice<'a>(
        &'a self,
        adjacency: &'a EdgeAdjacency,
        lo: usize,
        hi: usize,
    ) -> ClauseIter<'a> {
        let hi = hi.min(self.top_len());
        let lo = lo.min(hi);
        // Pre-size the lazy memos and the forbidden-set interner so the hot
        // loop never pays their first few doublings mid-answer. Only lazy
        // large levels ever insert; everything else stays at capacity 0.
        let lazy_skip: Vec<FxHashMap<u64, u32>> = (0..self.k)
            .map(|pos| {
                let lazy_large = self.strategies[pos] == Strategy::Large
                    && !self.levels[pos].as_ref().is_some_and(|l| l.eager_built);
                let cap = if lazy_large { 64 } else { 0 };
                FxHashMap::with_capacity_and_hasher(cap, Default::default())
            })
            .collect();
        ClauseIter {
            plan: self,
            adjacency,
            state: vec![LevelState::default(); self.k],
            tuple: vec![Node(0); self.k],
            started: false,
            done: false,
            top_lo: lo,
            top_hi: hi,
            lazy_skip,
            vsets: SliceInterner::with_capacity(16, self.k.max(1)),
            v_scratch: Vec::with_capacity(self.k),
            key_scratch: Vec::with_capacity(self.k),
            ops: 0,
        }
    }
}

#[derive(Clone, Debug, Default)]
struct LevelState {
    /// For Small: current index into the list. For Large: list index of the
    /// currently emitted `z`.
    cursor: usize,
}

/// Streaming cursor (and [`Iterator`]) over one clause's satisfying vertex
/// tuples.
///
/// The emission loop is **allocation-free by construction**: the current
/// tuple lives in one reused buffer ([`ClauseIter::tuple`] borrows it), the
/// eager skip probe reuses `key_scratch`, and the lazy skip memo keys on a
/// packed `u64` of `(y, interned forbidden-set id)` — the only steady-state
/// heap traffic left is the *first* occurrence of a distinct forbidden set
/// (interned once) and the memo's own growth (first-touch, amortized into
/// the lazy mode's warm-up just like the walk it memoizes).
pub struct ClauseIter<'a> {
    plan: &'a ClausePlan,
    adjacency: &'a EdgeAdjacency,
    state: Vec<LevelState>,
    tuple: Vec<Node>,
    started: bool,
    done: bool,
    /// Bounds (list indexes, `lo..hi`) restricting the outermost order
    /// level; the full range for [`ClausePlan::iter`], a shard for
    /// [`ClausePlan::iter_slice`].
    top_lo: usize,
    top_hi: usize,
    /// Per-position memo for lazy skip: packed `(y << 32) | vset_id` →
    /// result node id (`VOID` = none).
    lazy_skip: Vec<FxHashMap<u64, u32>>,
    /// Distinct forbidden sets seen by lazy probes, interned to dense ids.
    vsets: SliceInterner<u32>,
    /// Reused buffer for assembling the sorted forbidden set of one probe.
    v_scratch: Vec<u32>,
    /// Reused buffer for assembling one eager-store key.
    key_scratch: Vec<Node>,
    /// RAM-operation counter: each skip lookup/walk step, adjacency test,
    /// `E_k` membership test and cursor move counts as one operation. The
    /// constant-delay claim of Theorem 2.7 is about *this* number per
    /// output, so the E4 experiment reads it instead of (noisy) wall time.
    ops: u64,
}

impl ClauseIter<'_> {
    /// Fixed values at order-levels strictly before `depth`.
    fn forbidden(&self, depth: usize) -> impl Iterator<Item = Node> + Clone + '_ {
        self.plan.order[..depth]
            .iter()
            .map(move |&pos| self.tuple[pos])
    }

    /// skip(y, V) at large position `pos`, through the eager store or the
    /// lazy memo. Zero heap allocation per probe: the forbidden set is
    /// assembled in a reused scratch buffer, the eager key in another, and
    /// the lazy memo is probed with a packed integer key (the set itself is
    /// interned once per distinct value, then referenced by id).
    fn skip(&mut self, pos: usize, depth: usize, y: Node) -> Option<Node> {
        let level = self.plan.levels[pos].as_ref().expect("large level");
        self.ops += depth as u64 + 1; // E_k membership tests + the lookup
                                      // Eager levels restrict V to the E_k-related forbidden vertices (the
                                      // table is keyed that way); lazy levels use the full forbidden set.
        let mut v = std::mem::take(&mut self.v_scratch);
        v.clear();
        if level.eager_built {
            v.extend(
                self.forbidden(depth)
                    .filter(|&u| level.ek_related(u, y))
                    .map(|u| u.0),
            );
        } else {
            v.extend(self.forbidden(depth).map(|u| u.0));
        }
        v.sort_unstable();
        v.dedup();
        debug_assert!(v.len() < self.plan.k);

        if let Some(store) = &level.skip_store {
            let n_graph = level.index_in_list.len();
            let sentinel = Node(n_graph as u32);
            let mut key = std::mem::take(&mut self.key_scratch);
            key.clear();
            key.resize(self.plan.k, sentinel);
            key[0] = y;
            for (i, &u) in v.iter().enumerate() {
                key[i + 1] = Node(u);
            }
            let raw = *store.get(&key).expect("eager table is total");
            self.key_scratch = key;
            self.v_scratch = v;
            return (raw != VOID).then_some(Node(raw));
        }
        // lazy: probe the memo with the packed (y, set-id) key. Only
        // *non-trivial* walks (the jump target differs from `y`) are
        // memoized — and only their forbidden sets interned. A trivial
        // probe re-derives its answer in the single op charged above, so
        // caching it would buy nothing while growing the memo by ~one entry
        // per probe; that unbounded growth (and its multi-MB rehashes
        // mid-`next()`) used to dominate the wall-clock delay tail. The
        // non-trivial entries are bounded by the number of (list node,
        // adjacent forbidden set) pairs — O(n·d̃), not O(#probes) — so the
        // memo plateaus early and no single probe pays a large rehash.
        if let Some(id) = self.vsets.lookup(&v) {
            let memo_key = ((y.0 as u64) << 32) | id as u64;
            if let Some(&hit) = self.lazy_skip[pos].get(&memo_key) {
                self.v_scratch = v;
                return (hit != VOID).then_some(Node(hit));
            }
        }
        let start = level.index_of(y).expect("skip must start on a list node");
        let z = walk_skip(
            &level.list,
            start,
            self.adjacency,
            v.iter().map(|&u| Node(u)),
        );
        // charge the walk: distance travelled in the list (first touch only;
        // memoized lookups afterwards cost the single op charged above —
        // exactly what a trivial walk costs, so skipping its memoization
        // leaves the per-output op counts bit-identical)
        let end = z
            .and_then(|zz| level.index_of(zz))
            .unwrap_or(level.list.len());
        self.ops += (end.saturating_sub(start) as u64) * (v.len().max(1) as u64);
        if end > start {
            let memo_key = ((y.0 as u64) << 32) | self.vsets.intern(&v) as u64;
            self.lazy_skip[pos].insert(memo_key, z.map(|n| n.0).unwrap_or(VOID));
        }
        self.v_scratch = v;
        z
    }

    /// Position level `depth` on its first valid candidate; `false` when
    /// none exists.
    fn init_level(&mut self, depth: usize) -> bool {
        let pos = self.plan.order[depth];
        // The slice bounds apply to the outermost order level only; at
        // depth 0 the forbidden set is empty, so `skip` stays in place and
        // the bound check below never fires past a real answer.
        let (lo, hi) = if depth == 0 {
            (self.top_lo, self.top_hi)
        } else {
            (0, usize::MAX)
        };
        match self.plan.strategies[pos] {
            Strategy::Small => {
                self.state[pos].cursor = lo;
                self.find_small(depth, pos)
            }
            Strategy::Large => {
                let level = self.plan.levels[pos].as_ref().expect("large level");
                let Some(&first) = level.list.get(lo).filter(|_| lo < hi) else {
                    return false;
                };
                match self.skip(pos, depth, first) {
                    Some(z) => {
                        let zi = self.plan.levels[pos]
                            .as_ref()
                            .expect("large level")
                            .index_of(z)
                            .expect("skip result is a list node");
                        if zi >= hi {
                            return false;
                        }
                        self.state[pos].cursor = zi;
                        self.tuple[pos] = z;
                        true
                    }
                    None => false,
                }
            }
        }
    }

    /// Advance level `depth` to its next valid candidate.
    fn advance_level(&mut self, depth: usize) -> bool {
        let pos = self.plan.order[depth];
        let hi = if depth == 0 { self.top_hi } else { usize::MAX };
        match self.plan.strategies[pos] {
            Strategy::Small => {
                self.state[pos].cursor += 1;
                self.find_small(depth, pos)
            }
            Strategy::Large => {
                let next_idx = self.state[pos].cursor + 1;
                let level = self.plan.levels[pos].as_ref().expect("large level");
                if next_idx >= level.list.len().min(hi) {
                    return false;
                }
                let y = level.list[next_idx];
                match self.skip(pos, depth, y) {
                    Some(z) => {
                        let zi = self.plan.levels[pos]
                            .as_ref()
                            .expect("large level")
                            .index_of(z)
                            .expect("skip result is a list node");
                        if zi >= hi {
                            return false;
                        }
                        self.state[pos].cursor = zi;
                        self.tuple[pos] = z;
                        true
                    }
                    None => false,
                }
            }
        }
    }

    /// Scan a small list from the cursor for a candidate non-adjacent to
    /// every earlier fixed value.
    fn find_small(&mut self, depth: usize, pos: usize) -> bool {
        let list = &self.plan.lists[pos];
        let end = if depth == 0 {
            self.top_hi.min(list.len())
        } else {
            list.len()
        };
        let mut cur = self.state[pos].cursor;
        while cur < end {
            self.ops += depth as u64 + 1; // adjacency tests + cursor move
            let cand = list[cur];
            let ok = self
                .forbidden(depth)
                .all(|v| !self.adjacency.adjacent(cand, v));
            if ok {
                self.state[pos].cursor = cur;
                self.tuple[pos] = cand;
                return true;
            }
            cur += 1;
        }
        self.state[pos].cursor = cur;
        false
    }

    /// Total RAM operations so far (see the `ops` field).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Advance the cursor to the next satisfying tuple. Returns `true` when
    /// one is available through [`ClauseIter::tuple`]; `false` once the
    /// clause is exhausted (and forever after). Unlike `next()`, advancing
    /// never clones the tuple — this is the allocation-free core every
    /// consumer (boxed iterators, visitors, `first()`) is built on.
    pub fn advance(&mut self) -> bool {
        if self.done {
            return false;
        }
        let found = if self.started {
            self.run(self.plan.k - 1, false)
        } else {
            self.started = true;
            self.run(0, true)
        };
        if !found {
            self.done = true;
        }
        found
    }

    /// The tuple the cursor currently rests on. Only meaningful after
    /// [`ClauseIter::advance`] returned `true`; the slice is overwritten by
    /// the next `advance`.
    #[inline]
    pub fn tuple(&self) -> &[Node] {
        &self.tuple
    }

    /// The backtracking engine. With `initializing`, levels `< depth` hold
    /// valid values and levels `≥ depth` must be (re)initialized; without,
    /// level `depth` must advance past its current value. Returns `true`
    /// when a complete valid tuple is assembled.
    fn run(&mut self, mut depth: usize, mut initializing: bool) -> bool {
        loop {
            self.ops += 1;
            if initializing {
                if depth == self.plan.k {
                    return true;
                }
                if self.init_level(depth) {
                    depth += 1;
                    continue;
                }
                // no candidate at this level: advance the level above
                initializing = false;
                if depth == 0 {
                    return false;
                }
                depth -= 1;
            } else {
                if self.advance_level(depth) {
                    initializing = true;
                    depth += 1;
                    continue;
                }
                if depth == 0 {
                    return false;
                }
                depth -= 1;
            }
        }
    }
}

impl Drop for ClauseIter<'_> {
    /// Fold this traversal's memory high-water marks into the plan so
    /// `explain` can report lazy-memo and interner growth per level. The
    /// counters are monotone maxima over all finished cursors (serial
    /// passes, parallel shards, abandoned prefix walks alike).
    fn drop(&mut self) {
        for (pos, memo) in self.lazy_skip.iter().enumerate() {
            if let Some(level) = self.plan.levels[pos].as_ref() {
                level
                    .lazy_memo_peak
                    .fetch_max(memo.len(), Ordering::Relaxed);
                level
                    .lazy_memo_cap_peak
                    .fetch_max(memo.capacity(), Ordering::Relaxed);
            }
        }
        self.plan
            .vset_peak
            .fetch_max(self.vsets.len(), Ordering::Relaxed);
        self.plan
            .vset_cap_peak
            .fetch_max(self.vsets.capacity(), Ordering::Relaxed);
    }
}

impl Iterator for ClauseIter<'_> {
    type Item = Vec<Node>;

    fn next(&mut self) -> Option<Vec<Node>> {
        self.advance().then(|| self.tuple.clone())
    }
}

/// The full preprocessed enumerator: one plan per clause.
#[derive(Debug)]
pub struct Enumerator {
    adjacency: Arc<EdgeAdjacency>,
    plans: Vec<ClausePlan>,
}

impl Enumerator {
    /// Preprocess every clause of the reduced query over the shared
    /// `E`-adjacency (the engine passes the reduction core's CSR, so
    /// counting and enumeration share one copy) under the cost gates
    /// `limits`, running per-clause plan construction (and the inner `E_k`
    /// / skip-table passes) on the given worker pool. Parallel and serial
    /// builds produce identical plans; enumeration through
    /// [`Enumerator::stream`] is single-threaded (the delay-accounted
    /// reference path), while the engine's sharded answer path
    /// (`Engine::par_for_each_answer`) fans [`ClausePlan::iter_slice`]
    /// cursors over the same pool.
    ///
    /// `fixpoint` and `skip-tables` stage timings go to `profiler`, shared
    /// across the par-mapped clause builds ([`Profiler`] is atomic), so on
    /// a multi-thread pool the recorded nanos are cumulative task time, not
    /// wall time. `positions` is the per-core candidate-list memo; `None`
    /// memoizes within this build only.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        graph: &Structure,
        gq: &GraphQuery,
        adjacency: Arc<EdgeAdjacency>,
        mode: SkipMode,
        eps: Epsilon,
        limits: SkipLimits,
        par: &ParConfig,
        profiler: &Profiler,
        positions: Option<&PositionMemo>,
    ) -> Self {
        // Clauses massively reuse position color sets, so even a cacheless
        // build memoizes within itself; a cache-held memo extends the
        // sharing to every engine built against the same core.
        let local = PositionMemo::new();
        let positions = positions.unwrap_or(&local);
        let plans = par_map(par, &gq.clauses, |c| {
            ClausePlan::build(
                graph, gq, c, &adjacency, mode, eps, limits, par, profiler, positions,
            )
        });
        Enumerator { adjacency, plans }
    }

    /// The streaming cursor over all vertex tuples of `ψ(G)`, clause by
    /// clause — the single allocation-free core every enumeration consumer
    /// is layered on (see [`VertexStream`]).
    pub fn stream(&self) -> VertexStream<'_> {
        VertexStream {
            enumerator: self,
            clause_idx: 0,
            current: None,
            last_ops: 0,
            carry: 0,
            delay: 0,
        }
    }

    /// Enumerate all vertex tuples of `ψ(G)`, clause by clause. A thin
    /// cloning adapter over [`Enumerator::stream`]; the per-item `Vec` is
    /// the API boundary's copy, not part of the emission loop.
    pub fn vertex_tuples(&self) -> impl Iterator<Item = Vec<Node>> + '_ {
        let mut s = self.stream();
        std::iter::from_fn(move || s.advance().then(|| s.tuple().to_vec()))
    }

    /// As [`Enumerator::vertex_tuples`], also yielding the number of RAM
    /// operations spent since the previous output — the quantity
    /// Theorem 2.7 bounds by a constant. Clause-exhaustion costs are
    /// charged to the next output.
    pub fn vertex_tuples_with_ops(&self) -> OpsIter<'_> {
        OpsIter {
            stream: self.stream(),
        }
    }

    /// Per-clause plans (diagnostics).
    pub fn plans(&self) -> &[ClausePlan] {
        &self.plans
    }

    /// The worst observed per-output operation count of a full enumeration
    /// (convenience for tests and the E4 experiment).
    pub fn max_ops_per_output(&self) -> u64 {
        self.vertex_tuples_with_ops()
            .map(|(_, ops)| ops)
            .max()
            .unwrap_or(0)
    }

    /// The shared adjacency (diagnostics).
    pub fn adjacency(&self) -> &EdgeAdjacency {
        &self.adjacency
    }

    /// Read-touch every page of every plan's frozen structures (candidate
    /// lists, dense indexes, `E_k`, eager skip tables). Freshly built plans
    /// are usually resident, but structures assembled long before the first
    /// query — or revived from the artifact cache — may not be; a
    /// prefaulted enumerator pays no first-touch page fault inside a delay
    /// sample. Returns a wrapping fold of the words read so callers can
    /// `black_box` it.
    pub fn prefault(&self) -> u64 {
        let mut acc = 0u64;
        for plan in &self.plans {
            acc = acc.wrapping_add(plan.prefault());
        }
        acc
    }

    /// Optional post-build warm-up: prefault the plans and drive a
    /// throwaway cursor to the first answer, so first-touch faults, the
    /// first skip probes, and the cold instruction path are charged to
    /// preprocessing ([`Stage::WarmUp`]) instead of the first delay sample
    /// of the real enumeration.
    pub fn warm_up(&self, profiler: &Profiler) {
        let started = std::time::Instant::now();
        let mut acc = self.prefault();
        let mut probe = self.stream();
        if probe.advance() {
            acc = acc.wrapping_add(probe.tuple().first().map(|n| n.0 as u64).unwrap_or(0));
        }
        std::hint::black_box(acc);
        profiler.add(Stage::WarmUp, started.elapsed().as_nanos() as u64);
    }
}

/// Streaming cursor over all vertex tuples of the reduced query, clause by
/// clause, with per-output delay accounting.
///
/// Between two consecutive `advance` calls the only heap traffic is the
/// per-*clause* setup of a fresh [`ClauseIter`] (state, tuple buffer, memo
/// shells — bounded by the number of clauses, never by the answer count);
/// the per-answer step reuses the clause cursor's buffers throughout.
/// Clause-exhaustion costs are charged to the next output via `carry`.
pub struct VertexStream<'a> {
    enumerator: &'a Enumerator,
    clause_idx: usize,
    current: Option<ClauseIter<'a>>,
    last_ops: u64,
    carry: u64,
    delay: u64,
}

impl VertexStream<'_> {
    /// Advance to the next vertex tuple. Returns `true` when one is
    /// available through [`VertexStream::tuple`].
    pub fn advance(&mut self) -> bool {
        loop {
            if self.current.is_none() {
                let Some(plan) = self.enumerator.plans.get(self.clause_idx) else {
                    return false;
                };
                self.current = Some(plan.iter(&self.enumerator.adjacency));
                self.last_ops = 0;
            }
            let iter = self.current.as_mut().expect("just installed");
            if iter.advance() {
                let now = iter.ops();
                self.delay = now - self.last_ops + self.carry;
                self.last_ops = now;
                self.carry = 0;
                return true;
            }
            self.carry += iter.ops() - self.last_ops;
            self.current = None;
            self.clause_idx += 1;
        }
    }

    /// The current vertex tuple. Only meaningful after
    /// [`VertexStream::advance`] returned `true`; overwritten by the next
    /// `advance`.
    #[inline]
    pub fn tuple(&self) -> &[Node] {
        self.current.as_ref().map(|c| c.tuple()).unwrap_or(&[])
    }

    /// RAM operations spent between the previous output and the current
    /// one — the per-answer delay Theorem 2.7 bounds by a constant.
    #[inline]
    pub fn last_delay(&self) -> u64 {
        self.delay
    }
}

/// Iterator pairing each output with its RAM-operation delay (see
/// [`Enumerator::vertex_tuples_with_ops`]). A cloning adapter over
/// [`VertexStream`].
pub struct OpsIter<'a> {
    stream: VertexStream<'a>,
}

impl Iterator for OpsIter<'_> {
    type Item = (Vec<Node>, u64);

    fn next(&mut self) -> Option<(Vec<Node>, u64)> {
        self.stream
            .advance()
            .then(|| (self.stream.tuple().to_vec(), self.stream.last_delay()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdeg_storage::{node, RelId, Signature};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// The enumerator of `gq` over `g` under `limits`, built on the `LOWDEG_THREADS` pool.
    fn build_limited(
        g: &Structure,
        gq: &GraphQuery,
        mode: SkipMode,
        limits: SkipLimits,
    ) -> Enumerator {
        let adjacency = Arc::new(EdgeAdjacency::build(g, gq.edge));
        let par = ParConfig::from_env();
        let eps = Epsilon::new(0.5);
        Enumerator::build(
            g,
            gq,
            adjacency,
            mode,
            eps,
            limits,
            &par,
            &Profiler::new(),
            None,
        )
    }

    /// The enumerator of `gq` over `g` under the default cost gates.
    fn build(g: &Structure, gq: &GraphQuery, mode: SkipMode) -> Enumerator {
        build_limited(g, gq, mode, SkipLimits::default())
    }

    /// Build a colored graph directly (vertices with colors A/B, symmetric
    /// edges) plus a k-position alternating-color query over it.
    fn colored_graph(
        n: usize,
        edges: &[(u32, u32)],
        color_a: &[u32],
        color_b: &[u32],
        k: usize,
    ) -> (Structure, GraphQuery) {
        let sig = Arc::new(Signature::new(&[("E", 2), ("A", 1), ("Bc", 1)]));
        let e = sig.rel("E").unwrap();
        let a_ = sig.rel("A").unwrap();
        let b_ = sig.rel("Bc").unwrap();
        let mut b = Structure::builder(sig, n);
        for &(u, v) in edges {
            b.undirected_edge(e, node(u), node(v)).unwrap();
        }
        for &u in color_a {
            b.fact(a_, &[node(u)]).unwrap();
        }
        for &u in color_b {
            b.fact(b_, &[node(u)]).unwrap();
        }
        let g = b.finish().unwrap();

        // clause: alternate colors A, B, A, B, ...
        let colors: Vec<Vec<RelId>> = (0..k)
            .map(|i| vec![if i % 2 == 0 { a_ } else { b_ }])
            .collect();
        let gq = GraphQuery {
            k,
            edge: e,
            clauses: vec![GraphClause { colors }],
        };
        (g, gq)
    }

    /// Check that enumeration matches brute force, under both skip modes.
    fn check_graph(n: usize, edges: &[(u32, u32)], color_a: &[u32], color_b: &[u32], k: usize) {
        let (g, gq) = colored_graph(n, edges, color_a, color_b, k);
        let e = gq.edge;

        // brute force
        let brute_adj = EdgeAdjacency::build(&g, e);
        let mut expected: BTreeSet<Vec<Node>> = BTreeSet::new();
        let mut counter = vec![0usize; k];
        'outer: loop {
            let tuple: Vec<Node> = counter.iter().map(|&i| node(i as u32)).collect();
            if gq.accepts(&g, &brute_adj, &tuple) {
                expected.insert(tuple);
            }
            let mut pos = k;
            loop {
                if pos == 0 {
                    break 'outer;
                }
                pos -= 1;
                counter[pos] += 1;
                if counter[pos] < n {
                    break;
                }
                counter[pos] = 0;
            }
        }

        for mode in [SkipMode::Eager, SkipMode::Lazy] {
            let en = build(&g, &gq, mode);
            let got: Vec<Vec<Node>> = en.vertex_tuples().collect();
            let got_set: BTreeSet<Vec<Node>> = got.iter().cloned().collect();
            assert_eq!(got.len(), got_set.len(), "duplicates in {mode:?}");
            assert_eq!(got_set, expected, "answer set mismatch in {mode:?}");
        }
    }

    #[test]
    fn single_position() {
        check_graph(6, &[(0, 1)], &[0, 2, 4], &[1, 3], 1);
    }

    #[test]
    fn pairs_on_small_graph() {
        // the running example shape: A×B non-adjacent pairs
        check_graph(8, &[(0, 4), (1, 5), (2, 3)], &[0, 1, 2], &[3, 4, 5, 6], 2);
    }

    #[test]
    fn pairs_with_dense_adjacency() {
        // node 0 adjacent to every B node: forces real skipping
        check_graph(
            10,
            &[(0, 5), (0, 6), (0, 7), (0, 8), (1, 5)],
            &[0, 1, 2],
            &[5, 6, 7, 8, 9],
            2,
        );
    }

    #[test]
    fn triples() {
        check_graph(
            9,
            &[(0, 3), (3, 6), (1, 4)],
            &[0, 1, 2, 6, 7],
            &[3, 4, 5],
            3,
        );
    }

    #[test]
    fn empty_color_list() {
        check_graph(5, &[(0, 1)], &[], &[1, 2], 2);
    }

    #[test]
    fn overlapping_colors_and_self_pairs() {
        // nodes carrying both colors: (v, v) pairs are legal (no self loops)
        check_graph(6, &[(0, 1), (2, 3)], &[0, 2, 4], &[0, 2, 5], 2);
    }

    #[test]
    fn isolated_vertices_everywhere() {
        check_graph(12, &[], &[0, 1, 2, 3, 4, 5], &[6, 7, 8, 9, 10, 11], 2);
    }

    /// Concatenating `iter_slice` cursors over any partition of the top
    /// level must reproduce `iter`'s output bit for bit — the invariant the
    /// parallel answer path rests on.
    #[test]
    fn iter_slice_partitions_reproduce_full_order() {
        let edges: Vec<(u32, u32)> = (0..20u32).map(|i| (i, 20 + (i * 7) % 20)).collect();
        let color_a: Vec<u32> = (0..20).collect();
        let color_b: Vec<u32> = (20..40).collect();
        for k in [1usize, 2, 3] {
            let (g, gq) = colored_graph(40, &edges, &color_a, &color_b, k);
            for mode in [SkipMode::Eager, SkipMode::Lazy] {
                let en = build(&g, &gq, mode);
                for plan in en.plans() {
                    let full: Vec<Vec<Node>> = plan.iter(en.adjacency()).collect();
                    for parts in [1usize, 2, 3, 7] {
                        let top = plan.top_len();
                        let step = top.div_ceil(parts).max(1);
                        let mut glued: Vec<Vec<Node>> = Vec::new();
                        let mut lo = 0;
                        while lo < top.max(1) {
                            glued.extend(plan.iter_slice(en.adjacency(), lo, lo + step));
                            lo += step;
                        }
                        assert_eq!(glued, full, "k={k} {mode:?} parts={parts}");
                    }
                }
            }
        }
    }

    /// Clamping and empty slices must be safe and yield nothing.
    #[test]
    fn iter_slice_bounds_are_clamped() {
        let (g, gq) = colored_graph(8, &[(0, 4), (1, 5)], &[0, 1, 2], &[4, 5, 6], 2);
        let en = build(&g, &gq, SkipMode::Lazy);
        let plan = &en.plans()[0];
        let top = plan.top_len();
        assert_eq!(plan.iter_slice(en.adjacency(), 3, 3).count(), 0);
        assert_eq!(plan.iter_slice(en.adjacency(), top + 5, top + 9).count(), 0);
        let all: Vec<_> = plan.iter(en.adjacency()).collect();
        let clamped: Vec<_> = plan.iter_slice(en.adjacency(), 0, top + 100).collect();
        assert_eq!(all, clamped);
    }

    /// The lazy-memo amortization (memoize only non-trivial walks) must not
    /// change the per-output RAM-op accounting.
    #[test]
    fn lazy_memo_fix_keeps_ops_flat() {
        let edges: Vec<(u32, u32)> = (0..30u32).map(|i| (i, 30 + (i * 11) % 30)).collect();
        let color_a: Vec<u32> = (0..30).collect();
        let color_b: Vec<u32> = (30..60).collect();
        let (g, gq) = colored_graph(60, &edges, &color_a, &color_b, 2);
        let en = build(&g, &gq, SkipMode::Lazy);
        let max_ops = en.max_ops_per_output();
        assert!(max_ops > 0, "query must have answers");
        // constant-delay bound: a small multiple of k and the max degree
        assert!(max_ops <= 64, "max ops per output too high: {max_ops}");
        // watermarks were folded in by the finished traversals
        let (vlen, vcap) = en.plans()[0].vset_peak();
        assert!(vlen <= vcap || vcap == 0, "len {vlen} over capacity {vcap}");
    }

    #[test]
    fn prefault_and_warm_up_are_safe() {
        let (g, gq) = colored_graph(8, &[(0, 4), (1, 5)], &[0, 1, 2], &[4, 5, 6], 2);
        for mode in [SkipMode::Eager, SkipMode::Lazy] {
            let en = build(&g, &gq, mode);
            en.prefault();
            let profiler = Profiler::new();
            en.warm_up(&profiler);
            let profile = profiler.snapshot();
            assert!(profile.nanos(Stage::WarmUp) > 0, "warm-up timed");
            // warm-up must not perturb the answers
            let count = en.vertex_tuples().count();
            assert!(count > 0);
        }
    }

    #[test]
    fn tiny_skip_limits_degrade_every_level() {
        let d = SkipLimits::default();
        assert_eq!(d.ek_cost_limit, EK_COST_LIMIT);
        assert_eq!(d.eager_skip_limit, EAGER_SKIP_LIMIT);
        // a tiny explicit limit degrades every eager level to lazy
        let (g, gq) = colored_graph(8, &[(0, 4), (1, 5)], &[0, 1, 2], &[4, 5, 6], 2);
        let tiny = SkipLimits {
            ek_cost_limit: 0,
            eager_skip_limit: 0,
        };
        let en = build_limited(&g, &gq, SkipMode::Eager, tiny);
        let en_default = build(&g, &gq, SkipMode::Eager);
        for plan in en.plans() {
            for level in plan.levels.iter().flatten() {
                assert!(!level.eager_built, "0-limit must degrade to lazy");
                assert!(level.degraded, "degradation must be recorded");
            }
        }
        // same answers either way
        let a: Vec<_> = en.vertex_tuples().collect();
        let b: Vec<_> = en_default.vertex_tuples().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn subset_enumeration_is_sorted_and_bounded() {
        let items = vec![1u32, 2, 3, 4];
        let mut seen = Vec::new();
        let mut cur = Vec::new();
        enumerate_subsets(&items, 2, &mut cur, &mut |s| seen.push(s.to_vec()));
        // C(4,0) + C(4,1) + C(4,2) = 1 + 4 + 6 = 11
        assert_eq!(seen.len(), 11);
        assert!(seen.iter().all(|s| s.len() <= 2));
        assert!(seen.iter().all(|s| s.windows(2).all(|w| w[0] < w[1])));
    }
}
