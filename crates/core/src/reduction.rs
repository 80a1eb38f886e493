//! Proposition 3.3: quantifier elimination onto a colored graph.
//!
//! Given a structure `A` and a localizable FO query `φ(x̄)` of arity `k ≥ 1`,
//! builds
//!
//! * a colored graph `G` over a binary signature `τ`,
//! * a quantifier-free `ψ = ψ₁ ∧ ψ₂` in exclusive clause form
//!   ([`crate::GraphQuery`]), and
//! * an injective `f : dom(A)^k → dom(G)^k` restricting to a bijection
//!   `φ(A) → ψ(G)`, with `f` and `f⁻¹` computable in `O(k²)` after the
//!   preprocessing.
//!
//! Following the paper's Steps 1–5:
//!
//! 1. **localize** `φ` to an `r`-local matrix `φ'` (basic-local sentences
//!    evaluated and replaced by constants) — `lowdeg-locality`;
//! 2. enumerate the **partitions** `P ∈ 𝒫` of the answer positions;
//! 3. build the **cluster vertices** `v_(b̄, ι)`: all connected (w.r.t.
//!    distance ≤ 2r+1) ordered tuples `b̄` with an injection `ι` recording
//!    which answer positions the components fill;
//! 4. color each cluster vertex with its injection `C_ι` **and with the
//!    canonical isomorphism type of `(𝒩_r(b̄), b̄)`** — the semantic
//!    realization of the Feferman–Vaught predicates `C_{P,j,t}` (DESIGN.md
//!    §3); put `E`-edges between cluster vertices whose elements come within
//!    distance `2r+1`; add `F_i`-edges back to `dom(A)` for `f⁻¹`;
//! 5. decide, per partition and realized type combination, whether such
//!    answers satisfy `φ'` on the disjoint union of type representatives
//!    (sound because `φ'` is `r`-local and the clusters of an answer are
//!    pairwise `> 2r+1` apart, so `𝒩_r(ā)` *is* that disjoint union up to
//!    isomorphism). Per clause and partition the decision is a
//!    Feferman–Vaught product (`clause_accept`, DESIGN.md §16): each
//!    part's type list is filtered once by the conjuncts local to it, and
//!    only conjuncts no part decides alone are evaluated, against a
//!    borrowed [`UnionView`] of the representatives — the union is never
//!    materialized. Accepted combinations become the exclusive clauses of
//!    `ψ₂`; `ψ₁` is the pairwise `¬E` guard.
//!
//! # Assembly layout
//!
//! The production build (`build_core`) never materializes per-vertex
//! records. Cluster tuples live in one flat CSR (`tuple_data`/`tuple_off`,
//! filled by sharded enumeration over anchor ranges), canonical types are
//! interned through a sorted-run dedup of the exact neighborhood keys (the
//! expensive canonical encodings run in parallel, once per distinct key),
//! and every vertex id is *arithmetic*: the vertices of tuple `j` occupy
//! the contiguous block `block[j]..block[j+1]`, one per matching-size ι in
//! ι-id order, so `v_(b̄,ι) = base_n + 1 + block[j] + rank(ι)`. The color
//! and `F`-edge streams are emitted per tuple shard and adopted through
//! the builder's pre-sorted bulk paths; no `(tuple, ι) → vertex` hash map
//! exists anywhere. `build_core_reference` keeps the original per-vertex
//! construction alive as a differential oracle: it materializes the vertex
//! records and the lookup map, then *asserts* they coincide with the
//! arithmetic layout before converting into the same [`ReductionCore`]
//! shape.

use crate::artifacts::{ArtifactCache, Profiler, Stage};
use crate::enumerate::EdgeAdjacency;
use crate::graph_query::{GraphClause, GraphQuery};
use crate::EngineError;
use lowdeg_index::{Epsilon, FxHashMap, FxHashSet, RadixFuncStore, SliceInterner};
use lowdeg_locality::types::Canonicalizer;
use lowdeg_locality::{localize, LocalQuery, TypeId, TypeInterner};
use lowdeg_logic::eval::{eval, Assignment, Model};
use lowdeg_logic::{ClauseForm, DistCmp, Formula, Query, Var};
use lowdeg_par::{par_flat_map, par_map, par_partition, ParConfig};
use lowdeg_storage::{GaifmanGraph, Node, RelId, Signature, Structure, MAX_ARITY as MAX_REL_ARITY};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Default budget for the type-combination table (`Σ_P Π_j |types|`).
pub const DEFAULT_COMBINATION_BUDGET: u64 = 1_000_000;

/// Positions are tracked in fixed-width bitmasks on the stack during
/// [`Reduction::forward`]-style probes, capping the supported arity at 64.
/// Unreachable in practice: the preprocessing enumerates all `k!`-many
/// injections and `Bell(k)` partitions, which is infeasible long before
/// `k = 64`.
const MAX_ARITY: usize = 64;

/// Packed `(tuple_id, iota)` key of the reference build's cluster-vertex
/// lookup (the production layout resolves vertices arithmetically).
#[inline]
fn pack_lookup_key(tuple_id: u32, iota: u16) -> u64 {
    ((tuple_id as u64) << 16) | iota as u64
}

/// One answer position's `(ι, type)` signature packed into a `u64`
/// (`0` = the dummy / a base node).
#[inline]
fn pack_signature(sig: Option<(u16, u32)>) -> u64 {
    match sig {
        None => 0,
        Some((iota, ty)) => ((iota as u64 + 1) << 32) | ty as u64,
    }
}

/// One cluster vertex `v_(b̄, ι)` of the *reference* build (the production
/// layout stores no per-vertex records).
#[derive(Clone, Debug)]
struct VertexInfo {
    /// The underlying tuple `b̄` of `A`-elements (may contain repeats).
    tuple: Vec<Node>,
    /// Injection id into [`ReductionCore::iotas`].
    iota: u16,
    /// Canonical neighborhood type.
    ty: TypeId,
}

/// The query-independent core of the Proposition 3.3 preprocessing:
/// Steps 3–4 for a given `(structure, r, k, ε)` — the near-pair relation
/// `R`, the cluster tuples with their interned neighborhood types, and
/// the colored graph `G` complete with `E`- and `F`-edges. Only Step 5
/// (the acceptance clauses) depends on the query's matrix, so an
/// [`ArtifactCache`] shares one `ReductionCore` across every engine built
/// over the same structure at the same `(r, k, ε)`.
///
/// Vertices are implicit: tuple `j`'s vertices occupy the id block
/// `base_n + 1 + block[j] .. base_n + 1 + block[j+1]`, one per injection of
/// matching size in ι-id order, so a `(tuple, ι)` pair maps to its vertex
/// by pure arithmetic and a vertex decodes back through its `v_tuple`
/// entry.
#[derive(Debug)]
pub struct ReductionCore {
    /// The colored graph `G` (colors and edges only; acceptance is per
    /// query).
    pub(crate) graph: Structure,
    /// Pairs of `A`-nodes within distance `2r+1` (the paper's relation `R`
    /// in Step 5, stored per the Storing Theorem).
    pub(crate) near: Arc<RadixFuncStore<()>>,
    /// Flat cluster-tuple CSR: tuple `j` is
    /// `tuple_data[tuple_off[j] as usize..tuple_off[j+1] as usize]`.
    pub(crate) tuple_data: Vec<Node>,
    /// CSR offsets into [`Self::tuple_data`] (length `#tuples + 1`).
    pub(crate) tuple_off: Vec<u32>,
    /// Canonical neighborhood type per tuple.
    pub(crate) tuple_ty: Vec<TypeId>,
    /// Tuple index → first vertex index (length `#tuples + 1`); the last
    /// entry is the total vertex count.
    pub(crate) block: Vec<u32>,
    /// Vertex index → owning tuple index.
    pub(crate) v_tuple: Vec<u32>,
    /// Every distinct cluster tuple `b̄`, interned once, ids equal to the
    /// CSR tuple indices; probes resolve a stack-assembled slice to its id
    /// without allocating.
    pub(crate) tuples: SliceInterner<Node>,
    /// All injections `{1..s} → {1..k}`, 0-based; `iotas[id]` lists target
    /// positions.
    pub(crate) iotas: Vec<Vec<u8>>,
    /// Injection ids per cluster size, ascending (`iotas_by_size[s][rank]`
    /// is the ι of the vertex at `rank` within a size-`s` tuple's block).
    pub(crate) iotas_by_size: Vec<Vec<u16>>,
    /// Injection id → rank within its size class (the inverse of
    /// [`Self::iotas_by_size`]).
    pub(crate) iota_rank: Vec<u16>,
    /// Canonical neighborhood types with their representatives (Step 5
    /// evaluates the matrix on [`UnionView`]s of these).
    pub(crate) interner: TypeInterner,
    /// Realized types per cluster size (`types_by_size[s]`).
    pub(crate) types_by_size: Vec<BTreeSet<TypeId>>,
    /// The dummy vertex `v_⊥`.
    pub(crate) dummy: Node,
    /// `|dom(A)|`.
    pub(crate) base_n: usize,
    /// Query arity.
    pub(crate) k: usize,
    /// `G`'s edge relation (declared in the signature; the pairs
    /// themselves live only in [`ReductionCore::adjacency`]).
    pub(crate) edge: RelId,
    /// The `E`-adjacency CSR — the *only* materialization of `G`'s edges.
    /// Built once per core straight from the tuple-level join and shared
    /// (via `Arc`) by counting, enumeration and the test paths; a warm
    /// artifact cache therefore serves the adjacency along with the rest
    /// of the extract product.
    pub(crate) adjacency: Arc<EdgeAdjacency>,
}

impl ReductionCore {
    /// The dummy color `C_⊥`.
    fn cbot(&self) -> RelId {
        RelId((1 + self.k) as u32)
    }

    /// The injection color `C_ι`.
    fn ci(&self, id: u16) -> RelId {
        RelId((2 + self.k + id as usize) as u32)
    }

    /// The neighborhood-type color `C_t`.
    fn ct(&self, t: TypeId) -> RelId {
        RelId((2 + self.k + self.iotas.len() + t.index()) as u32)
    }

    /// The id of the injection whose target positions are `positions`.
    fn iota_id(&self, positions: &[u8]) -> u16 {
        self.iotas
            .iter()
            .position(|io| io.as_slice() == positions)
            .expect("every injection enumerated") as u16
    }

    /// Tuple `j` of the CSR.
    #[inline]
    fn tuple_slice(&self, j: usize) -> &[Node] {
        &self.tuple_data[self.tuple_off[j] as usize..self.tuple_off[j + 1] as usize]
    }

    /// Classification of the colored graph's unary relations for the
    /// counting memo: `sizes[r]` = injection domain size when relation `r`
    /// is a `C_ι` color, `0` otherwise (relations past the iota range are
    /// simply absent). Two `C_ι` colors of equal size select
    /// count-isomorphic copy sets of the same clusters, which lets
    /// component signatures erase the injection identities.
    pub(crate) fn iota_color_sizes(&self) -> Vec<u32> {
        let base = 2 + self.k;
        let mut sizes = vec![0u32; base + self.iotas.len()];
        for (id, io) in self.iotas.iter().enumerate() {
            sizes[base + id] = io.len() as u32;
        }
        sizes
    }

    /// Decode a vertex *index* (not node id) to `(tuple, ι id)`.
    #[inline]
    fn decode_vertex(&self, idx: usize) -> (usize, u16) {
        let tid = self.v_tuple[idx] as usize;
        let rank = idx - self.block[tid] as usize;
        let len = (self.tuple_off[tid + 1] - self.tuple_off[tid]) as usize;
        (tid, self.iotas_by_size[len][rank])
    }
}

/// The output of the Proposition 3.3 preprocessing.
#[derive(Debug)]
pub struct Reduction {
    /// The query-independent Steps 3–4 products, possibly shared with an
    /// [`ArtifactCache`] and other engines over the same structure.
    core: Arc<ReductionCore>,
    /// The reduced quantifier-free query `ψ` over `G`.
    query: GraphQuery,
    /// Locality radius `r` of the matrix.
    radius: usize,
    /// `2r + 1` — the cluster-separation distance.
    two_r1: usize,
    /// The localized matrix (kept for diagnostics and tests).
    local: LocalQuery,
    /// Accepted clause signatures for O(k) testing: per answer position the
    /// packed `(ι, type)` of the cluster vertex ([`pack_signature`]; `0`
    /// for the dummy). Probed with a stack-assembled `&[u64]`, so
    /// [`Reduction::test_signature`] allocates nothing. Exactly one clause
    /// matches any signature (clauses are mutually exclusive).
    accepted: FxHashSet<Box<[u64]>>,
    /// The packed signature of each reduced clause, aligned with
    /// `query.clauses` — the key the per-clause combo-count tier of the
    /// [`crate::CountingMemo`] probes (a signature determines its clause's
    /// colors against this core, so the count is a pure function of it).
    clause_sigs: Vec<Box<[u64]>>,
    /// What this build's Step 5 decided and evaluated.
    step5_stats: Step5Stats,
}

/// A structural fingerprint of a built [`Reduction`] for differential
/// testing: the cluster tuples, their type ids, the colored graph's
/// content hash, the full vertex-level `E`-adjacency (order-sensitively
/// folded into a 64-bit hash — materializing the rows peaked at tens of
/// GB on the dense `LogPower` ternary instances), and the Step 5
/// acceptance set. Two builds that agree on a `CoreDigest` are
/// observationally identical.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreDigest {
    pub tuples: Vec<Vec<Node>>,
    pub tuple_types: Vec<u32>,
    pub graph_fingerprint: u64,
    pub adjacency_hash: u64,
    pub accepted: Vec<Vec<u64>>,
    pub clauses: usize,
}

impl Reduction {
    /// Run the full preprocessing on the worker pool `par`. `φ` must have
    /// arity ≥ 1 (a sentence is [`EngineError::Sentence`]) and be
    /// localizable.
    ///
    /// The parallel passes (cluster-tuple enumeration, canonical encoding,
    /// `E`-edge generation) are order-preserving, so the result is
    /// identical for every thread count.
    pub fn build(
        structure: &Structure,
        query: &Query,
        eps: Epsilon,
        par: &ParConfig,
    ) -> Result<Self, EngineError> {
        Self::build_keyed(
            structure,
            query,
            eps,
            DEFAULT_COMBINATION_BUDGET,
            par,
            None,
            &Profiler::new(),
            None,
        )
    }

    /// The one production builder behind [`Reduction::build`] and the
    /// engine: an explicit type-combination `budget`, an optional
    /// cross-build [`ArtifactCache`], and a [`Profiler`] receiving the
    /// `extract` / `reduce` stage timings.
    ///
    /// The result is identical with or without a cache: the cache only
    /// memoizes deterministic products. The query-independent
    /// [`ReductionCore`] (Gaifman graph, near-pair store, cluster vertices
    /// with interned types, the colored graph `G`) is keyed by the
    /// structure content and `(r, k, ε)`. With a cache and the canonical
    /// clauses `clauses` of the query (`lowdeg_logic::NormalForm::clauses`,
    /// in clause order), each clause's acceptance set is memoized under
    /// `(cluster key, clause fingerprint)` and verified against the
    /// clause's canonical serialization on a hit, so queries that share a
    /// clause — rewrite variants and repeated builds of one query
    /// included — share its acceptance work, and the query's acceptance is
    /// stitched from the per-clause sets bit-identically to the uncached
    /// pass.
    ///
    /// Contract: when `clauses` is `Some`, `query` must be the canonical
    /// query they were taken from (the `lowdeg_logic::normalize` output).
    /// If their number doesn't match the localized clause decomposition
    /// (or `clauses` is `None`), Step 5 runs without the clause tier.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build_keyed(
        structure: &Structure,
        query: &Query,
        eps: Epsilon,
        budget: u64,
        par: &ParConfig,
        cache: Option<&ArtifactCache>,
        profiler: &Profiler,
        clauses: Option<&[ClauseForm]>,
    ) -> Result<Self, EngineError> {
        let k = query.arity();
        if k == 0 {
            return Err(EngineError::Sentence);
        }
        let local = localize(structure, query)?;
        let r = local.radius;
        let two_r1 = 2 * r + 1;

        // --- query-independent core: everything that depends only on the
        // structure content and (r, k, eps) — a warm cache skips it
        // entirely. `build_core` charges its own phases: the Gaifman
        // distance-structure extraction to `extract`, the reduced-instance
        // assembly to `reduce`.
        let core: Arc<ReductionCore> = match cache {
            Some(c) => {
                profiler.time(Stage::Extract, || c.prime_gaifman(structure, par));
                c.reduction_core(structure.fingerprint(), r, k, eps, || {
                    build_core(structure, r, k, eps, par, profiler)
                })
            }
            None => Arc::new(build_core(structure, r, k, eps, par, profiler)),
        };

        let reduce_started = std::time::Instant::now();
        // Step 5 work of this build only: a cached clause set counts nothing
        let mut step5_stats = Step5Stats::default();
        let tier = match (cache, clauses) {
            // Alignment check: the clauses come from `normalize`, the clause
            // matrices from `localize`; both preserve the canonical
            // top-level disjunction, but a mismatch must degrade to the
            // uncached pass, never mis-key the cache.
            (Some(cache), Some(clauses)) if clauses.len() == local.clause_matrices.len() => {
                Some(ClauseTier {
                    cache,
                    structure_fp: structure.fingerprint(),
                    eps,
                    clauses,
                })
            }
            _ => None,
        };
        let (query_out, accepted, clause_sigs) =
            step5(&core, &local, budget, par, tier, &mut step5_stats)?;
        profiler.add(Stage::Reduce, reduce_started.elapsed().as_nanos() as u64);

        Ok(Reduction {
            core,
            query: query_out,
            radius: r,
            two_r1,
            local,
            accepted,
            clause_sigs,
            step5_stats,
        })
    }

    /// Differential oracle: the original per-vertex construction, kept
    /// verbatim (hash-map interning, materialized vertex records, the
    /// `(tuple, ι) → vertex` lookup) and *asserted* against the arithmetic
    /// block layout while converting into the shared [`ReductionCore`]
    /// shape, with Step 5 as the full scan ([`step5_reference`]) instead of
    /// the product acceptance. Test-only; never cached, never profiled.
    #[doc(hidden)]
    pub fn build_reference(
        structure: &Structure,
        query: &Query,
        eps: Epsilon,
        budget: u64,
        par: &ParConfig,
    ) -> Result<Self, EngineError> {
        let k = query.arity();
        if k == 0 {
            return Err(EngineError::Sentence);
        }
        let local = localize(structure, query)?;
        let r = local.radius;
        let two_r1 = 2 * r + 1;
        let core = Arc::new(build_core_reference(structure, r, k, eps, par));
        let (query_out, accepted, clause_sigs) = step5_reference(&core, &local, budget, par)?;
        Ok(Reduction {
            core,
            query: query_out,
            radius: r,
            two_r1,
            local,
            accepted,
            clause_sigs,
            step5_stats: Step5Stats::default(),
        })
    }

    /// The colored graph `G`.
    pub fn graph(&self) -> &Structure {
        &self.core.graph
    }

    /// The shared `E`-adjacency CSR of `G` — the only materialization of
    /// the edge relation (the `E` [`RelId`] is declared but holds no
    /// tuples). Cloning the `Arc` is how counting and enumeration share
    /// one copy.
    pub fn adjacency(&self) -> &Arc<EdgeAdjacency> {
        &self.core.adjacency
    }

    /// Packed acceptance signature of each graph clause, aligned with
    /// `self.query.clauses` — the key of the combo-count memo tier.
    pub(crate) fn clause_signatures(&self) -> &[Box<[u64]>] {
        &self.clause_sigs
    }

    /// The reduced query `ψ`.
    pub fn query(&self) -> &GraphQuery {
        &self.query
    }

    /// The locality radius `r` the reduction ran with.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// The cluster-separation distance `2r + 1`.
    pub fn separation(&self) -> usize {
        self.two_r1
    }

    /// The core's `C_ι` classification (see
    /// [`ReductionCore::iota_color_sizes`]).
    pub(crate) fn iota_color_sizes(&self) -> Vec<u32> {
        self.core.iota_color_sizes()
    }

    /// Query arity `k`.
    pub fn arity(&self) -> usize {
        self.core.k
    }

    /// The localized matrix used for the reduction.
    pub fn local_query(&self) -> &LocalQuery {
        &self.local
    }

    /// The representatives Step 5 evaluates on: for each cluster size `s`
    /// (index `s`, `0..=k`), the realized types' `(representative,
    /// distinguished tuple)` pairs in mixed-radix digit order. Test-only.
    #[doc(hidden)]
    pub fn type_representatives(&self) -> Vec<Vec<(&Structure, &[Node])>> {
        let c = &*self.core;
        c.types_by_size
            .iter()
            .map(|ts| ts.iter().map(|&t| c.interner.representative(t)).collect())
            .collect()
    }

    /// The stored `(representative, local tuple)` of type id `t` — the id
    /// space of [`CoreDigest::tuple_types`]. Test-only.
    #[doc(hidden)]
    pub fn type_representative(&self, t: u32) -> (&Structure, &[Node]) {
        self.core.interner.representative(TypeId(t))
    }

    /// Step 5 work counters of this build (zeros for what a cache
    /// served).
    pub fn step5_stats(&self) -> Step5Stats {
        self.step5_stats
    }

    /// Number of cluster vertices (the `|V|` of Step 3).
    pub fn cluster_count(&self) -> usize {
        self.core.v_tuple.len()
    }

    /// Structural fingerprint for differential tests (see [`CoreDigest`]).
    #[doc(hidden)]
    pub fn core_digest(&self) -> CoreDigest {
        let c = &*self.core;
        let ntup = c.tuple_off.len() - 1;
        let tuples: Vec<Vec<Node>> = (0..ntup).map(|j| c.tuple_slice(j).to_vec()).collect();
        let tuple_types: Vec<u32> = c.tuple_ty.iter().map(|t| t.0).collect();
        // FNV-1a over (vertex, neighbor…, row terminator): order-sensitive
        // per row and across rows, streamed so no row is ever materialized
        let mut adjacency_hash = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| {
            adjacency_hash ^= x;
            adjacency_hash = adjacency_hash.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for v in 0..c.adjacency.len() {
            mix(u64::from(v as u32));
            for u in c.adjacency.neighbors(Node(v as u32)) {
                mix(u64::from(u.0) | 1 << 32);
            }
            mix(u64::MAX);
        }
        let mut accepted: Vec<Vec<u64>> = self.accepted.iter().map(|s| s.to_vec()).collect();
        accepted.sort_unstable();
        CoreDigest {
            tuples,
            tuple_types,
            graph_fingerprint: c.graph.fingerprint(),
            adjacency_hash,
            accepted,
            clauses: self.query.clauses.len(),
        }
    }

    /// `f(ā)`: map a tuple of `A`-elements to graph vertices, in `O(k²)`
    /// near-pair lookups, writing into `out[..k]` without allocating. The
    /// core of every membership probe: position grouping runs on
    /// stack-resident component bitmasks, each part's tuple is assembled in
    /// a stack buffer and resolved through the tuple interner, and the
    /// vertex id follows arithmetically from the tuple's block.
    fn forward_write(&self, tuple: &[Node], out: &mut [Node]) -> Result<(), EngineError> {
        let k = self.core.k;
        if tuple.len() != k {
            return Err(EngineError::Arity {
                expected: k,
                got: tuple.len(),
            });
        }
        if let Some(&bad) = tuple.iter().find(|c| c.index() >= self.core.base_n) {
            return Err(EngineError::NodeOutOfDomain {
                node: bad.0,
                domain: self.core.base_n,
            });
        }
        assert!(k <= MAX_ARITY, "arity above {MAX_ARITY} is unsupported");
        debug_assert_eq!(out.len(), k);

        // Group positions into clusters: comp[i] is the bitmask of the
        // positions in i's component w.r.t. the ≤ 2r+1 nearness relation.
        // Invariant: all members of a component carry the same mask, so a
        // union only rewrites masks intersecting the merged one.
        let mut comp = [0u64; MAX_ARITY];
        for (i, m) in comp.iter_mut().enumerate().take(k) {
            *m = 1 << i;
        }
        for i in 0..k {
            for j in (i + 1)..k {
                if comp[i] & comp[j] == 0 && self.core.near.contains_key(&[tuple[i], tuple[j]]) {
                    let merged = comp[i] | comp[j];
                    for m in comp.iter_mut().take(k) {
                        if *m & merged != 0 {
                            *m = merged;
                        }
                    }
                }
            }
        }

        // Emit one cluster vertex per part, parts ordered by their minimum
        // position (= the leader bit), positions within a part ascending.
        let mut pos_buf = [0u8; MAX_ARITY];
        let mut b_buf = [Node(0); MAX_ARITY];
        let mut emitted = 0usize;
        for (i, &mask) in comp.iter().enumerate().take(k) {
            if mask.trailing_zeros() as usize != i {
                continue; // not the part's leader
            }
            let mut s = 0usize;
            let mut bits = mask;
            while bits != 0 {
                let p = bits.trailing_zeros() as usize;
                pos_buf[s] = p as u8;
                b_buf[s] = tuple[p];
                s += 1;
                bits &= bits - 1;
            }
            let io = self.core.iota_id(&pos_buf[..s]);
            let tid = self
                .core
                .tuples
                .lookup(&b_buf[..s])
                .expect("every connected tuple has a cluster vertex");
            let vidx = self.core.block[tid as usize] + self.core.iota_rank[io as usize] as u32;
            out[emitted] = Node((self.core.base_n + 1) as u32 + vidx);
            emitted += 1;
        }
        for slot in out.iter_mut().take(k).skip(emitted) {
            *slot = self.core.dummy;
        }
        Ok(())
    }

    /// `f(ā)` as a freshly allocated `Vec` (see [`Reduction::forward_into`]
    /// for the buffer-reusing variant).
    pub fn forward(&self, tuple: &[Node]) -> Result<Vec<Node>, EngineError> {
        let mut out = vec![self.core.dummy; self.core.k];
        self.forward_write(tuple, &mut out)?;
        Ok(out)
    }

    /// `f(ā)` into a reused buffer: `out` is cleared and filled with the
    /// `k` graph vertices. No allocation once `out` has capacity `k`.
    pub fn forward_into(&self, tuple: &[Node], out: &mut Vec<Node>) -> Result<(), EngineError> {
        out.clear();
        out.resize(self.core.k, self.core.dummy);
        self.forward_write(tuple, out)
    }

    /// `f⁻¹(v̄)`: recover the `A`-tuple from graph vertices. Returns `None`
    /// when the tuple is not in the image of `f` (e.g. overlapping clusters
    /// or a dummy in a cluster position).
    pub fn backward(&self, vertices: &[Node]) -> Option<Vec<Node>> {
        let mut out = Vec::with_capacity(self.core.k);
        self.backward_into(vertices, &mut out).then_some(out)
    }

    /// `f⁻¹(v̄)` into a reused buffer: `out` is cleared and filled with the
    /// `k` base elements; returns `false` (leaving `out` unspecified) when
    /// `v̄` is not in the image of `f`. No allocation once `out` has
    /// capacity `k` — this is the answer-streaming hot path.
    pub fn backward_into(&self, vertices: &[Node], out: &mut Vec<Node>) -> bool {
        if vertices.len() != self.core.k {
            return false;
        }
        // A base element never carries id u32::MAX: the graph's domain
        // (base ∪ dummy ∪ clusters) is itself u32-indexed and strictly
        // larger than the base.
        const UNSET: Node = Node(u32::MAX);
        out.clear();
        out.resize(self.core.k, UNSET);
        for &v in vertices {
            if v == self.core.dummy {
                continue;
            }
            let Some(idx) = v.index().checked_sub(self.core.base_n + 1) else {
                return false;
            };
            if idx >= self.core.v_tuple.len() {
                return false;
            }
            let (tid, io_id) = self.core.decode_vertex(idx);
            let io = &self.core.iotas[io_id as usize];
            for (j, &b) in self.core.tuple_slice(tid).iter().enumerate() {
                let pos = io[j] as usize;
                if out[pos] != UNSET {
                    return false; // two clusters claim one position
                }
                out[pos] = b;
            }
        }
        out.iter().all(|&b| b != UNSET)
    }

    /// Whether `ā ∈ φ(A)`, decided through the reduction (`f` + `ψ`). Used
    /// by tests; [`crate::TestIndex`] provides the constant-time variant.
    pub fn test_via_graph(&self, tuple: &[Node]) -> Result<bool, EngineError> {
        let v = self.forward(tuple)?;
        Ok(self
            .query
            .accepts(&self.core.graph, &self.core.adjacency, &v))
    }

    /// The `(ι, type)` signature of a graph vertex (`None` for the dummy
    /// and for base `A`-nodes).
    pub fn vertex_signature(&self, v: Node) -> Option<(u16, u32)> {
        let idx = v.index().checked_sub(self.core.base_n + 1)?;
        if idx >= self.core.v_tuple.len() {
            return None;
        }
        let (tid, io_id) = self.core.decode_vertex(idx);
        Some((io_id, self.core.tuple_ty[tid].0))
    }

    /// O(k²) membership test through the accepted-signature set.
    ///
    /// `f(ā)`'s cluster vertices are pairwise non-`E`-adjacent *by
    /// construction* (the partition is the transitive closure of the
    /// ≤ 2r+1 nearness relation, so distinct parts share no near pair),
    /// hence `ψ₁` always holds on images of `f` and membership reduces to a
    /// single hash probe of the `(ι, type)` signature.
    pub fn test_signature(&self, tuple: &[Node]) -> Result<bool, EngineError> {
        let k = self.core.k;
        let mut v_buf = [Node(0); MAX_ARITY];
        self.forward_write(tuple, &mut v_buf[..k])?;
        let mut sig_buf = [0u64; MAX_ARITY];
        for (s, &u) in sig_buf.iter_mut().zip(&v_buf[..k]) {
            *s = pack_signature(self.vertex_signature(u));
        }
        Ok(self.accepted.contains(&sig_buf[..k]))
    }
}

/// What [`step5`] produces: the exclusive clauses of `ψ₂`, the packed
/// signature set backing [`Reduction::test_signature`], and the per-clause
/// signatures aligned with the clause list.
type Step5Output = (GraphQuery, FxHashSet<Box<[u64]>>, Vec<Box<[u64]>>);

/// The cacheable per-clause acceptance set: the combinations *one*
/// localized clause matrix accepts against a core, as ascending
/// [`ComboRank`]s. Deterministic given the core and the clause's
/// canonical form, so the [`crate::ArtifactCache`] keys it by
/// `(cluster key, clause fingerprint)` — any two queries sharing the
/// clause share the entry, whatever their other clauses look like — and
/// keeps the clause's canonical serialization to verify every hit.
#[derive(Debug)]
pub(crate) struct ClauseAcceptance {
    /// `lowdeg_logic::ClauseForm::canonical` of the clause.
    pub(crate) canonical: Box<[u64]>,
    pub(crate) accepted: Vec<ComboRank>,
}

/// A partition × type combination's canonical rank: the partition's index
/// in [`all_partitions`] order and the combination's mixed-radix index
/// over the full per-part type lists of [`Step5Layout::types`], last part
/// fastest. Step 5 emits clauses in ascending rank.
pub(crate) type ComboRank = (u32, u64);

/// Step 5 work counters of one build: what the product acceptance
/// (DESIGN.md §16) decided without a union-view evaluation, and what it
/// still evaluated. Reported by `lowdeg explain`; a build whose clause
/// sets came from an [`ArtifactCache`] counts nothing for them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Step5Stats {
    /// (clause, partition) pairs rejected outright: a positive chain of
    /// some conjunct joins answer positions in different parts, so the
    /// clause holds on none of the partition's combinations.
    pub partitions_skipped: u64,
    /// Part-local evaluations on a lone type representative, one per type
    /// of each part that has part-local conjuncts.
    pub types_filtered: u64,
    /// Combinations accepted as products of filtered type lists, without
    /// any evaluation.
    pub product_combinations: u64,
    /// Combinations of filtered products evaluated on a [`UnionView`]
    /// because residual conjuncts remained.
    pub scanned_combinations: u64,
}

impl Step5Stats {
    /// Counter-wise sum.
    pub fn plus(self, other: Step5Stats) -> Step5Stats {
        Step5Stats {
            partitions_skipped: self.partitions_skipped + other.partitions_skipped,
            types_filtered: self.types_filtered + other.types_filtered,
            product_combinations: self.product_combinations + other.product_combinations,
            scanned_combinations: self.scanned_combinations + other.scanned_combinations,
        }
    }
}

/// The partition × type space Step 5 ranges over, laid out once per pass.
struct Step5Layout {
    /// [`all_partitions`] of the answer positions.
    partitions: Vec<Vec<Vec<u8>>>,
    /// Per partition, the ι id of each part.
    iotas: Vec<Vec<u16>>,
    /// Realized types per cluster size, in `types_by_size` order — the
    /// digits of a [`ComboRank`].
    types: Vec<Vec<TypeId>>,
}

impl Step5Layout {
    fn new(core: &ReductionCore) -> Self {
        let partitions = all_partitions(core.k);
        let iotas = partitions
            .iter()
            .map(|p| p.iter().map(|part| core.iota_id(part)).collect())
            .collect();
        let types = core
            .types_by_size
            .iter()
            .map(|ts| ts.iter().copied().collect())
            .collect();
        Step5Layout {
            partitions,
            iotas,
            types,
        }
    }

    /// The packed signature of the combination ranked `rank`: the
    /// `(ι, type)` word of each part in part order, padded with the dummy.
    fn signature(&self, k: usize, (pi, mut rem): ComboRank) -> Box<[u64]> {
        let p = &self.partitions[pi as usize];
        let mut sig = vec![pack_signature(None); k];
        for j in (0..p.len()).rev() {
            let ts = &self.types[p[j].len()];
            let t = ts[(rem % ts.len() as u64) as usize];
            rem /= ts.len() as u64;
            sig[j] = pack_signature(Some((self.iotas[pi as usize][j], t.0)));
        }
        sig.into()
    }
}

/// The clause tier a Step 5 pass reads and publishes each clause's
/// acceptance through: the cache, the structure's fingerprint, ε, and the
/// canonical clauses aligned with `local.clause_matrices`.
struct ClauseTier<'a> {
    cache: &'a ArtifactCache,
    structure_fp: u64,
    eps: Epsilon,
    clauses: &'a [ClauseForm],
}

/// Step 5 of the production build: the budget check, then each localized
/// clause's acceptance as a product ([`clause_accept`]) — read from the
/// clause tier when one is given and holds it, else built (and then
/// published there) — merged into the canonical clause list.
/// Bit-identical to the full scan of [`step5_reference`]: the matrix is
/// the disjunction of the clause matrices, so its acceptance set is the
/// union of theirs, and a cached clause set is the one its clause builds.
/// Only the clauses built here count toward `stats`.
fn step5(
    core: &ReductionCore,
    local: &LocalQuery,
    budget: u64,
    par: &ParConfig,
    tier: Option<ClauseTier>,
    stats: &mut Step5Stats,
) -> Result<Step5Output, EngineError> {
    check_budget(core, budget)?;
    let layout = Step5Layout::new(core);
    let mut ranks: Vec<ComboRank> = Vec::new();
    for (ci, matrix) in local.clause_matrices.iter().enumerate() {
        let mut accept = || clause_accept(core, &layout, par, &local.free, matrix, stats);
        let Some(t) = &tier else {
            ranks.extend(accept());
            continue;
        };
        let (fp, r, k, eps) = (t.structure_fp, local.radius, core.k, t.eps);
        let clause = &t.clauses[ci];
        let cached =
            t.cache
                .clause_product_cached(fp, r, k, eps, clause.fingerprint, &clause.canonical);
        let product = match cached {
            Some(product) => product,
            None => {
                let product = ClauseAcceptance {
                    canonical: clause.canonical.clone(),
                    accepted: accept(),
                };
                t.cache
                    .clause_product_insert(fp, r, k, eps, clause.fingerprint, product)
            }
        };
        ranks.extend_from_slice(&product.accepted);
    }
    Ok(step5_emit(core, &layout, ranks))
}

/// The differential oracle of Step 5: the whole localized matrix evaluated
/// on the union view of every partition × type combination — no
/// classification, no product.
fn step5_reference(
    core: &ReductionCore,
    local: &LocalQuery,
    budget: u64,
    par: &ParConfig,
) -> Result<Step5Output, EngineError> {
    check_budget(core, budget)?;
    let layout = Step5Layout::new(core);
    let mut ranks = Vec::new();
    for (pi, p) in layout.partitions.iter().enumerate() {
        let digits: Vec<Vec<u32>> = p
            .iter()
            .map(|part| (0..layout.types[part.len()].len() as u32).collect())
            .collect();
        let test = [&local.matrix];
        let hits = scan_product(core, &layout, par, pi, &digits, &local.free, &test);
        ranks.extend(hits.into_iter().map(|idx| (pi as u32, idx)));
    }
    Ok(step5_emit(core, &layout, ranks))
}

/// The type-combination budget: fail before any Step 5 work when the
/// core's combination total exceeds it.
fn check_budget(core: &ReductionCore, budget: u64) -> Result<(), EngineError> {
    let combo_total = step5_combo_total(core);
    if combo_total > budget {
        return Err(EngineError::CombinationBudget {
            needed: combo_total,
            budget,
        });
    }
    Ok(())
}

/// `Σ_P Π_j |types|` — the number of partition × type combinations of
/// this core, the quantity the combination budget bounds.
pub(crate) fn step5_combo_total(core: &ReductionCore) -> u64 {
    let mut combo_total: u64 = 0;
    for p in &all_partitions(core.k) {
        let mut c: u64 = 1;
        for part in p {
            c = c.saturating_mul(core.types_by_size[part.len()].len() as u64);
        }
        combo_total = combo_total.saturating_add(c);
    }
    combo_total
}

/// One localized clause's Step 5 acceptance as a Feferman–Vaught product
/// (DESIGN.md §16), in ascending [`ComboRank`] order. A top-level `∨`
/// splits into its disjuncts (the union of their sets). Per partition,
/// each top-level conjunct of a disjunct is classified
/// ([`classify_conjunct`]): one that no combination can satisfy skips the
/// partition; constant-true ones drop out; part-local ones filter their
/// part's type list once, on the lone representative; the accepted
/// combinations are the product of the filtered lists, evaluated on a
/// [`UnionView`] only for the residual conjuncts that remain.
fn clause_accept(
    core: &ReductionCore,
    layout: &Step5Layout,
    par: &ParConfig,
    free: &[Var],
    matrix: &Formula,
    stats: &mut Step5Stats,
) -> Vec<ComboRank> {
    let disjuncts: &[Formula] = match matrix {
        Formula::Or(gs) => gs,
        g => std::slice::from_ref(g),
    };
    let mut ranks = Vec::new();
    for disjunct in disjuncts {
        let conjuncts: &[Formula] = match disjunct {
            Formula::And(gs) => gs,
            g => std::slice::from_ref(g),
        };
        let warm = conjuncts.iter().any(Formula::has_dist);
        for (pi, p) in layout.partitions.iter().enumerate() {
            if p.iter().any(|part| layout.types[part.len()].is_empty()) {
                continue; // no combination of this partition is realized
            }
            let part_of = |v: Var| {
                let pos = free.iter().position(|&f| f == v)? as u8;
                p.iter().position(|part| part.contains(&pos))
            };
            let mut local: Vec<Vec<&Formula>> = vec![Vec::new(); p.len()];
            let mut residual: Vec<&Formula> = Vec::new();
            let mut skip = false;
            for c in conjuncts {
                match classify_conjunct(c, part_of) {
                    Conjunct::Never => skip = true,
                    Conjunct::Always => {}
                    Conjunct::Local(j) => local[j].push(c),
                    Conjunct::Residual => residual.push(c),
                }
            }
            if skip {
                stats.partitions_skipped += 1;
                continue;
            }
            let mut digits: Vec<Vec<u32>> = Vec::with_capacity(p.len());
            for (part, tests) in p.iter().zip(&local) {
                let types = &layout.types[part.len()];
                if tests.is_empty() {
                    digits.push((0..types.len() as u32).collect());
                    continue;
                }
                stats.types_filtered += types.len() as u64;
                let keep = par_map(par, types, |&t| {
                    let (rep, dist) = core.interner.representative(t);
                    if warm {
                        rep.gaifman_with(&ParConfig::serial());
                    }
                    let mut asg = Assignment::default();
                    for (&pos, &d) in part.iter().zip(dist) {
                        asg.bind(free[pos as usize], d);
                    }
                    tests.iter().all(|f| eval(rep, f, &mut asg))
                });
                digits.push(
                    (0..types.len() as u32)
                        .filter(|&i| keep[i as usize])
                        .collect(),
                );
            }
            let total: u64 = digits.iter().map(|d| d.len() as u64).product();
            if residual.is_empty() {
                stats.product_combinations += total;
            } else {
                stats.scanned_combinations += total;
            }
            let hits = scan_product(core, layout, par, pi, &digits, free, &residual);
            ranks.extend(hits.into_iter().map(|idx| (pi as u32, idx)));
        }
    }
    if disjuncts.len() > 1 {
        ranks.sort_unstable();
        ranks.dedup();
    }
    ranks
}

/// Walk the product of partition `pi`'s per-part digit lists (indices into
/// [`Step5Layout::types`]) in canonical order — mixed radix, last part
/// fastest — and return the mixed-radix index, over the *full* type lists,
/// of every combination that satisfies all of `test` on the union view of
/// its representatives; with `test` empty, of every combination, none
/// evaluated. Chunk boundaries are fixed and chunks concatenate in order,
/// so the result is identical for every thread count.
fn scan_product(
    core: &ReductionCore,
    layout: &Step5Layout,
    par: &ParConfig,
    pi: usize,
    digits: &[Vec<u32>],
    free: &[Var],
    test: &[&Formula],
) -> Vec<u64> {
    /// Combinations per parallel work item; fixed so the chunk
    /// boundaries never depend on the thread count.
    const COMBO_CHUNK: usize = 1024;
    let p = &layout.partitions[pi];
    let ell = p.len();
    // the stride of each part's digit in the full mixed radix
    let mut strides = vec![1u64; ell];
    for j in (0..ell.saturating_sub(1)).rev() {
        strides[j] = strides[j + 1] * layout.types[p[j + 1].len()].len() as u64;
    }
    let total: usize = digits.iter().map(Vec::len).product();
    let warm = test.iter().any(|f| f.has_dist());
    let chunk_starts: Vec<usize> = (0..total).step_by(COMBO_CHUNK).collect();
    let hits: Vec<Vec<u64>> = par_map(par, &chunk_starts, |&start| {
        let end = (start + COMBO_CHUNK).min(total);
        let mut out = Vec::new();
        let mut at: Vec<u32> = vec![0; ell];
        let mut view = UnionView::default();
        let mut asg = Assignment::default();
        let serial = ParConfig::serial();
        for idx in start..end {
            let mut rem = idx;
            let mut rank = 0u64;
            for j in (0..ell).rev() {
                at[j] = digits[j][rem % digits[j].len()];
                rem /= digits[j].len();
                rank += u64::from(at[j]) * strides[j];
            }
            if !test.is_empty() {
                view.clear();
                for (part, &d) in p.iter().zip(&at) {
                    let t = layout.types[part.len()][d as usize];
                    let (rep, dist) = core.interner.representative(t);
                    if warm {
                        rep.gaifman_with(&serial);
                    }
                    let offset = view.push(rep);
                    for (&pos, &node) in part.iter().zip(dist) {
                        asg.bind(free[pos as usize], Node(node.0 + offset));
                    }
                }
                if !test.iter().all(|f| eval(&view, f, &mut asg)) {
                    continue;
                }
            }
            out.push(rank);
        }
        out
    });
    hits.concat()
}

/// How one top-level conjunct of a clause behaves on the disjoint unions
/// of a partition's combinations ([`classify_conjunct`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Conjunct {
    /// False on every combination.
    Never,
    /// True on every combination.
    Always,
    /// Decided by the representative of this part alone.
    Local(usize),
    /// Needs the union view.
    Residual,
}

/// Classify conjunct `c` against a partition, `part_of` mapping each
/// answer variable to its part (soundness: DESIGN.md §16).
///
/// * A positive chain ([`forced_links`]) joining variables of two parts
///   makes `c` false on every disjoint union of the parts' clusters.
/// * A literal spanning parts is a constant: facts, `=` and `dist ≤`
///   never span two parts of a disjoint union, so the positive ones are
///   false and their negations (and `dist >`) true.
/// * A conjunct whose free variables lie in one part and whose quantifiers
///   are all [`guarded`] into that part is part-local.
/// * Anything else — closed conjuncts, unguarded quantifiers, a nested
///   `∨` across parts, or a conjunct that binds one variable twice — is
///   residual.
fn classify_conjunct(c: &Formula, part_of: impl Fn(Var) -> Option<usize>) -> Conjunct {
    let free = c.free_vars();
    let mut bound = free.clone();
    if !binds_apart(c, &mut bound) {
        return Conjunct::Residual; // variable ids would not name one binding
    }
    let mut links = Vec::new();
    forced_links(c, true, &mut links);
    let mut chains = Chains::new(&links);
    let mut parts: Vec<usize> = Vec::with_capacity(free.len());
    for (i, &v) in free.iter().enumerate() {
        let Some(j) = part_of(v) else {
            return Conjunct::Residual;
        };
        for (&w, &jw) in free[..i].iter().zip(&parts) {
            if jw != j && chains.joined(v, w) {
                return Conjunct::Never;
            }
        }
        parts.push(j);
    }
    parts.sort_unstable();
    parts.dedup();
    match (parts.as_slice(), c) {
        (_, Formula::True) => Conjunct::Always,
        (_, Formula::False) => Conjunct::Never,
        ([], _) => Conjunct::Residual,
        (&[j], _) if guarded(c, &mut free.clone()) => Conjunct::Local(j),
        ([_], _) => Conjunct::Residual,
        (_, _) => match spanning_literal(c) {
            Some(true) => Conjunct::Always,
            Some(false) => Conjunct::Never,
            None => Conjunct::Residual,
        },
    }
}

/// The truth value of a literal whose variables span two parts of a
/// disjoint union: facts, `=` and `dist ≤` are false there, so their
/// negations and `dist >` are true. `None` for a non-literal.
fn spanning_literal(c: &Formula) -> Option<bool> {
    match c {
        Formula::Atom { .. } | Formula::Eq(..) => Some(false),
        Formula::Dist { cmp, .. } => Some(*cmp == DistCmp::Greater),
        Formula::Not(g) => spanning_literal(g).map(|v| !v),
        _ => None,
    }
}

/// The links `f` forces between its variables whenever it is true
/// (`holds`) or false (`!holds`) under an assignment and the witnesses of
/// its `∃` (counterexamples of its `∀`): atoms of arity ≥ 2, `=` and
/// `dist ≤` collected through `∧` and `∃` — through `∨` and `∀` when
/// `f` is false. Each link puts its ends in one part of a disjoint union.
fn forced_links(f: &Formula, holds: bool, out: &mut Vec<(Var, Var)>) {
    match (f, holds) {
        (Formula::Atom { args, .. }, true) => out.extend(args.windows(2).map(|w| (w[0], w[1]))),
        (Formula::Eq(x, y), true) => out.push((*x, *y)),
        (Formula::Dist { x, y, cmp, .. }, _) if (*cmp == DistCmp::LessEq) == holds => {
            out.push((*x, *y))
        }
        (Formula::Not(g), _) => forced_links(g, !holds, out),
        (Formula::And(gs), true) | (Formula::Or(gs), false) => {
            for g in gs {
                forced_links(g, holds, out);
            }
        }
        (Formula::Exists(_, g), true) | (Formula::Forall(_, g), false) => {
            forced_links(g, holds, out)
        }
        _ => {}
    }
}

/// Whether every quantifier of `f` is guarded into the part that holds
/// `scope`: each `∃` variable is forced-linked ([`forced_links`]) to a
/// variable in scope whenever its body holds, each `∀` variable whenever
/// its body fails — so every witness (counterexample) lies in that part,
/// and the quantifier reads the same on the part alone as on the union.
fn guarded(f: &Formula, scope: &mut Vec<Var>) -> bool {
    match f {
        Formula::Not(g) => guarded(g, scope),
        Formula::And(gs) | Formula::Or(gs) => gs.iter().all(|g| guarded(g, scope)),
        Formula::Exists(vs, g) | Formula::Forall(vs, g) => {
            let mut links = Vec::new();
            forced_links(g, matches!(f, Formula::Exists(..)), &mut links);
            let mut chains = Chains::new(&links);
            if !vs
                .iter()
                .all(|&v| scope.iter().any(|&u| chains.joined(u, v)))
            {
                return false;
            }
            let depth = scope.len();
            scope.extend(vs);
            let ok = guarded(g, scope);
            scope.truncate(depth);
            ok
        }
        _ => true,
    }
}

/// Whether every quantifier of `f` binds variables distinct from
/// `bound` (seeded with the free variables) and from every other
/// quantifier's, so a variable id names a single binding — which the
/// chain test needs and localization does not promise: its far-witness
/// rewrite binds one variable in two sibling quantifiers.
fn binds_apart(f: &Formula, bound: &mut Vec<Var>) -> bool {
    match f {
        Formula::Not(g) => binds_apart(g, bound),
        Formula::And(gs) | Formula::Or(gs) => gs.iter().all(|g| binds_apart(g, bound)),
        Formula::Exists(vs, g) | Formula::Forall(vs, g) => {
            for &v in vs {
                if bound.contains(&v) {
                    return false;
                }
                bound.push(v);
            }
            binds_apart(g, bound)
        }
        _ => true,
    }
}

/// Union–find over variable ids: the components of a set of links.
struct Chains(Vec<u32>);

impl Chains {
    fn new(links: &[(Var, Var)]) -> Self {
        let n = links.iter().map(|&(a, b)| a.0.max(b.0) as usize + 1).max();
        let mut chains = Chains((0..n.unwrap_or(0) as u32).collect());
        for &(a, b) in links {
            let (ra, rb) = (chains.root(a), chains.root(b));
            chains.0[ra as usize] = rb;
        }
        chains
    }

    fn root(&mut self, v: Var) -> u32 {
        let mut x = v.0;
        while let Some(&up) = self.0.get(x as usize).filter(|&&up| up != x) {
            let grand = self.0[up as usize];
            self.0[x as usize] = grand;
            x = up;
        }
        x
    }

    fn joined(&mut self, a: Var, b: Var) -> bool {
        a == b || self.root(a) == self.root(b)
    }
}

/// The Step 5 output for accepted combinations in any order, duplicates
/// allowed: sorted into canonical rank order and deduplicated, one clause
/// per combination, its colors decoded from the packed `(ι+1, type)`
/// words (`C_ι ∧ C_t` per part, `C_⊥` per padding word).
fn step5_emit(
    core: &ReductionCore,
    layout: &Step5Layout,
    mut ranks: Vec<ComboRank>,
) -> Step5Output {
    ranks.sort_unstable();
    ranks.dedup();
    let clause_sigs: Vec<Box<[u64]>> = ranks
        .iter()
        .map(|&rank| layout.signature(core.k, rank))
        .collect();
    let clauses = clause_sigs
        .iter()
        .map(|sig| GraphClause {
            colors: sig
                .iter()
                .map(|&w| {
                    if w == 0 {
                        vec![core.cbot()]
                    } else {
                        let io = ((w >> 32) - 1) as u16;
                        let ty = TypeId((w & 0xFFFF_FFFF) as u32);
                        vec![core.ci(io), core.ct(ty)]
                    }
                })
                .collect(),
        })
        .collect();
    (
        GraphQuery {
            k: core.k,
            edge: core.edge,
            clauses,
        },
        clause_sigs.iter().cloned().collect(),
        clause_sigs,
    )
}

/// Shard count for a partitioned pass over `len` items.
fn partition_parts(par: &ParConfig, len: usize) -> usize {
    if par.runs_serial(len) {
        1
    } else {
        par.threads() * 4
    }
}

/// Ranked ι layout: injection ids grouped by size (ascending within each
/// group — matching the reference build's per-tuple emission order), the
/// id → rank inverse, and the per-size counts.
fn iota_layout(k: usize, iotas: &[Vec<u8>]) -> (Vec<Vec<u16>>, Vec<u16>, Vec<u32>) {
    let mut by_size: Vec<Vec<u16>> = vec![Vec::new(); k + 1];
    let mut rank: Vec<u16> = vec![0; iotas.len()];
    for (id, io) in iotas.iter().enumerate() {
        rank[id] = by_size[io.len()].len() as u16;
        by_size[io.len()].push(id as u16);
    }
    let cnt: Vec<u32> = by_size.iter().map(|v| v.len() as u32).collect();
    (by_size, rank, cnt)
}

/// The query-independent Steps 3–4 of Proposition 3.3, factored out so an
/// [`ArtifactCache`] can memoize the result per `(structure, r, k, eps)`:
/// the near-pair relation `R` (Step 5, via the Storing Theorem), the
/// connected cluster tuples (Step 3), each tuple's canonical neighborhood
/// type (Step 4), and the colored graph `G` with its `E`- and `F`-edges.
///
/// Batch assembly throughout: tuples stream into a flat CSR from sharded
/// anchor ranges; exact neighborhood keys are computed per shard; a single
/// sort over key-ordered tuple indices groups duplicates, so canonical
/// encodings run in parallel once per *distinct* key — read straight from
/// the key, with no neighborhood structure built — and the serial
/// remainder is one `intern_encoded` call per group (in first-occurrence
/// order — type-id assignment is bit-identical to the reference build's
/// per-tuple hash-map pass); only a new type's representative is rebuilt
/// from its key. Vertices are never materialized:
/// colors and `F`-edges are emitted straight from tuple shards with
/// arithmetic vertex ids and adopted through the builder's pre-sorted bulk
/// paths.
///
/// Charges the [`Profiler`] in two parts: the Gaifman distance-structure
/// extraction (radix CSR, near pairs, cluster tuples) to
/// [`Stage::Extract`], the reduced-instance assembly (canonical types,
/// colors, `E`/`F`-edges) to [`Stage::Reduce`].
pub(crate) fn build_core(
    structure: &Structure,
    r: usize,
    k: usize,
    eps: Epsilon,
    par: &ParConfig,
    profiler: &Profiler,
) -> ReductionCore {
    let two_r1 = 2 * r + 1;
    let rhat = k * two_r1;
    let n = structure.cardinality();
    let extract_started = std::time::Instant::now();
    let g = structure.gaifman_with(par);

    // --- Step 5's relation R: pairs within 2r+1.
    let mut near = RadixFuncStore::new(n, 2, eps);
    for a in structure.domain() {
        for b in g.ball(a, two_r1) {
            near.insert(&[a, b], ());
        }
    }

    let anchors: Vec<Node> = structure.domain().collect();

    // Phase A: connected cluster tuples, sharded by anchor range straight
    // into flat (lengths, data) runs — the stitched result is the tuple
    // CSR, in exactly the anchor-major DFS order of the reference build.
    let tuple_shards: Vec<(Vec<u32>, Vec<Node>)> = par_partition(
        par,
        &anchors,
        partition_parts(par, anchors.len()),
        |_, range| {
            let mut lens: Vec<u32> = Vec::new();
            let mut data: Vec<Node> = Vec::new();
            let mut tuple: Vec<Node> = Vec::with_capacity(k);
            for &a in range {
                let ball = g.ball(a, rhat);
                tuple.clear();
                tuple.push(a);
                enumerate_cluster_tuples(&ball, k, &near, &mut tuple, &mut |t: &[Node]| {
                    lens.push(t.len() as u32);
                    data.extend_from_slice(t);
                });
            }
            (lens, data)
        },
    );
    let ntup: usize = tuple_shards.iter().map(|(l, _)| l.len()).sum();
    let mut tuple_off: Vec<u32> = Vec::with_capacity(ntup + 1);
    tuple_off.push(0);
    let mut tuple_data: Vec<Node> =
        Vec::with_capacity(tuple_shards.iter().map(|(_, d)| d.len()).sum());
    for (lens, data) in tuple_shards {
        for l in lens {
            tuple_off.push(tuple_off.last().unwrap() + l);
        }
        if tuple_data.is_empty() {
            tuple_data = data; // adopt the first (possibly only) shard
        } else {
            tuple_data.extend(data);
        }
    }
    let tslice =
        |j: usize| -> &[Node] { &tuple_data[tuple_off[j] as usize..tuple_off[j + 1] as usize] };

    // Everything up to here reads only the base structure's distance
    // machinery; everything after assembles the reduced instance.
    profiler.add(Stage::Extract, extract_started.elapsed().as_nanos() as u64);
    let assemble_started = std::time::Instant::now();

    // Shared element-set grouping: tuples bucketed by their sorted
    // distinct elements. Both the key pass below and the E-join at the end
    // work per *group* — the set-invariant tail of a tuple's neighborhood
    // key and its near-tuple row each depend on the element set alone.
    let esg = element_set_groups(&tuple_off, &tuple_data);
    let ngroups = esg.heads.len();

    // Phase B1 (per set group): the r-ball members and the set-invariant
    // tail of the exact neighborhood key, computed once per group instead
    // of once per tuple. Each shard carries (member run lengths, member
    // data, key-tail run lengths, key-tail data) for its group range.
    type B1Shard = (Vec<u32>, Vec<Node>, Vec<u32>, Vec<u32>);
    let b1_shards: Vec<B1Shard> =
        par_partition(par, &esg.heads, partition_parts(par, ntup), |_, range| {
            let mut mlens: Vec<u32> = Vec::with_capacity(range.len());
            let mut mdata: Vec<Node> = Vec::new();
            let mut slens: Vec<u32> = Vec::with_capacity(range.len());
            let mut sdata: Vec<u32> = Vec::new();
            let mut key: Vec<u32> = Vec::new();
            for &head in range {
                let t = tslice(head as usize);
                let members = lowdeg_storage::ball_of_tuple(g, esg.eslice(head as usize), r);
                structure.neighborhood_key_with_members(&members, t, &mut key);
                let tail = &key[1 + t.len()..];
                mlens.push(members.len() as u32);
                mdata.extend_from_slice(&members);
                slens.push(tail.len() as u32);
                sdata.extend_from_slice(tail);
            }
            (mlens, mdata, slens, sdata)
        });
    let mut mem_off: Vec<u32> = Vec::with_capacity(ngroups + 1);
    mem_off.push(0);
    let mut mem_data: Vec<Node> = Vec::new();
    let mut suf_off: Vec<u32> = Vec::with_capacity(ngroups + 1);
    suf_off.push(0);
    let mut suf_data: Vec<u32> = Vec::new();
    for (mlens, mdata, slens, sdata) in b1_shards {
        for l in mlens {
            mem_off.push(mem_off.last().unwrap() + l);
        }
        if mem_data.is_empty() {
            mem_data = mdata;
        } else {
            mem_data.extend(mdata);
        }
        for l in slens {
            suf_off.push(suf_off.last().unwrap() + l);
        }
        if suf_data.is_empty() {
            suf_data = sdata;
        } else {
            suf_data.extend(sdata);
        }
    }
    let mem = |gi: usize| -> &[Node] { &mem_data[mem_off[gi] as usize..mem_off[gi + 1] as usize] };
    let suf = |gi: usize| -> &[u32] { &suf_data[suf_off[gi] as usize..suf_off[gi + 1] as usize] };

    // Suffix classes: groups with byte-equal key tails share a class id.
    // Only equality matters downstream, and the numbering is deterministic
    // (sort with group-id tie-break).
    let mut sorder: Vec<u32> = (0..ngroups as u32).collect();
    sorder.sort_unstable_by(|&a, &b| suf(a as usize).cmp(suf(b as usize)).then(a.cmp(&b)));
    let mut suf_class: Vec<u32> = vec![0u32; ngroups];
    let mut nclasses = 0u32;
    let mut i = 0usize;
    while i < sorder.len() {
        let mut e = i + 1;
        while e < sorder.len() && suf(sorder[e] as usize) == suf(sorder[i] as usize) {
            e += 1;
        }
        for &gi in &sorder[i..e] {
            suf_class[gi as usize] = nclasses;
        }
        nclasses += 1;
        i = e;
    }
    drop(sorder);

    // Phase B2 (per tuple): the short tuple-dependent key head
    // `[|members|, local ranks of the components]`. Head + the group's
    // tail is character-for-character the exact neighborhood key, so two
    // tuples have equal keys iff their heads match and their groups'
    // suffix classes match.
    let tuple_idx: Vec<u32> = (0..ntup as u32).collect();
    let pre_shards: Vec<Vec<u32>> =
        par_partition(par, &tuple_idx, partition_parts(par, ntup), |_, range| {
            let mut data: Vec<u32> = Vec::with_capacity(range.len() * (k + 1));
            for &j in range {
                let j = j as usize;
                let members = mem(esg.tgroup[j] as usize);
                data.push(members.len() as u32);
                for &b in tslice(j) {
                    data.push(members.binary_search(&b).expect("component in own ball") as u32);
                }
            }
            data
        });
    let mut pre_off: Vec<u32> = Vec::with_capacity(ntup + 1);
    pre_off.push(0);
    for j in 0..ntup {
        pre_off.push(pre_off.last().unwrap() + 1 + (tuple_off[j + 1] - tuple_off[j]));
    }
    let mut pre_data: Vec<u32> = Vec::with_capacity(*pre_off.last().unwrap() as usize);
    for shard in pre_shards {
        if pre_data.is_empty() {
            pre_data = shard;
        } else {
            pre_data.extend(shard);
        }
    }
    let pre = |j: usize| -> &[u32] { &pre_data[pre_off[j] as usize..pre_off[j + 1] as usize] };

    // Sorted-run dedup over `(suffix class, key head)` — short compares
    // instead of full-key compares. Tuple indices ordered with index as
    // tie-break, so each run's head is its *minimal* tuple index; runs
    // become type groups, and groups re-sorted by head recover first-
    // occurrence order — the exact order the reference build interns in.
    let same_key = |a: usize, b: usize| -> bool {
        suf_class[esg.tgroup[a] as usize] == suf_class[esg.tgroup[b] as usize] && pre(a) == pre(b)
    };
    let mut order: Vec<u32> = (0..ntup as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        let (x, y) = (a as usize, b as usize);
        suf_class[esg.tgroup[x] as usize]
            .cmp(&suf_class[esg.tgroup[y] as usize])
            .then_with(|| pre(x).cmp(pre(y)))
            .then(a.cmp(&b))
    });
    let mut groups: Vec<(u32, u32, u32)> = Vec::new(); // (head tuple, start, end) in `order`
    let mut i = 0usize;
    while i < order.len() {
        let mut e = i + 1;
        while e < order.len() && same_key(order[e] as usize, order[i] as usize) {
            e += 1;
        }
        groups.push((order[i], i as u32, e as u32));
        i = e;
    }
    groups.sort_unstable_by_key(|&(head, _, _)| head);

    // Canonical encodings straight from each group's exact key
    // `pre(head) ++ suf(set group)`, fanned out over the distinct groups
    // with one reusable canonicalizer per shard: no neighborhood structure
    // is built to type a group.
    let sig = structure.signature();
    let enc_shards: Vec<(Vec<u32>, Vec<u32>)> = par_partition(
        par,
        &groups,
        partition_parts(par, groups.len()),
        |_, range| {
            let mut canon = Canonicalizer::new();
            let mut lens: Vec<u32> = Vec::with_capacity(range.len());
            let mut data: Vec<u32> = Vec::new();
            for &(head, _, _) in range {
                let head = head as usize;
                let before = data.len();
                canon.encode_key(sig, pre(head), suf(esg.tgroup[head] as usize), &mut data);
                lens.push((data.len() - before) as u32);
            }
            (lens, data)
        },
    );

    // Serial remainder: one intern per distinct key, scattered to members.
    // A new type's representative is rebuilt from the same key — the
    // structure `neighborhood_of_tuple(head)` would build.
    let mut interner = TypeInterner::new();
    let mut tuple_ty: Vec<TypeId> = vec![TypeId(0); ntup];
    let mut types_by_size: Vec<BTreeSet<TypeId>> = vec![BTreeSet::new(); k + 1];
    let encodings = enc_shards.iter().flat_map(|(lens, data)| {
        lens.iter().scan(0usize, move |at, &len| {
            *at += len as usize;
            Some(&data[*at - len as usize..*at])
        })
    });
    for (&(head, start, end), enc) in groups.iter().zip(encodings) {
        let h = head as usize;
        let ty = interner.intern_encoded(enc, || {
            structure.neighborhood_from_key(pre(h), suf(esg.tgroup[h] as usize))
        });
        for &j in &order[start as usize..end as usize] {
            tuple_ty[j as usize] = ty;
        }
        // equal keys imply equal tuple length, so one insert covers the run
        types_by_size[tslice(h).len()].insert(ty);
    }
    drop(enc_shards);
    drop(order);
    drop(groups);
    drop(pre_data);
    drop(pre_off);
    drop(suf_data);
    drop(suf_off);
    drop(mem_data);
    drop(mem_off);
    drop(suf_class);

    // --- injections ι : {1..s} → {1..k} and the arithmetic vertex layout
    let iotas = all_injections(k);
    let (iotas_by_size, iota_rank, iota_cnt) = iota_layout(k, &iotas);
    let mut block: Vec<u32> = Vec::with_capacity(ntup + 1);
    block.push(0);
    for j in 0..ntup {
        block.push(block.last().unwrap() + iota_cnt[tslice(j).len()]);
    }
    let nverts = *block.last().unwrap() as usize;
    let mut v_tuple: Vec<u32> = vec![0u32; nverts];
    for j in 0..ntup {
        for v in block[j]..block[j + 1] {
            v_tuple[v as usize] = j as u32;
        }
    }

    // Tuple interner for forward probes; ids coincide with CSR indices
    // because each ordered connected tuple is enumerated exactly once
    // (its anchor is its first component).
    let mut tuple_arena: SliceInterner<Node> = SliceInterner::new();
    for j in 0..ntup {
        let tid = tuple_arena.intern(tslice(j));
        debug_assert_eq!(tid as usize, j, "cluster tuples are pairwise distinct");
    }

    // --- signature of G
    let mut sigb = Signature::builder();
    let e_decl = sigb.relation("E", 2).expect("fresh signature");
    for i in 0..k {
        sigb.relation(&format!("F{}", i + 1), 2).expect("fresh");
    }
    sigb.relation("Cbot", 1).expect("fresh");
    for (id, io) in iotas.iter().enumerate() {
        let name = format!(
            "CI{id}_{}",
            io.iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join("_")
        );
        sigb.relation(&name, 1).expect("fresh");
    }
    for t in 0..interner.len() {
        sigb.relation(&format!("CT{t}"), 1).expect("fresh");
    }
    let tau = Arc::new(sigb.finish());
    let e = e_decl;
    let f_rel = |i: usize| RelId((1 + i) as u32);
    let cbot = RelId((1 + k) as u32);
    let ci = |id: u16| RelId((2 + k + id as usize) as u32);
    let ct = |t: TypeId| RelId((2 + k + iotas.len() + t.index()) as u32);

    // --- build G
    let dummy = Node(n as u32);
    let total = n + 1 + nverts;
    let mut gb = Structure::builder(tau.clone(), total);
    gb.fact(cbot, &[dummy]).expect("in range");

    // Color and F-edge streams, emitted per tuple shard with arithmetic
    // vertex ids. Shards cover ascending tuple ranges and vertex ids ascend
    // with (tuple, ι-rank), so the per-relation concatenations are strictly
    // sorted by construction and go through the builder's pre-sorted bulk
    // paths — `finish` re-sorts nothing.
    type ColorShard = (Vec<Vec<Node>>, Vec<Vec<Node>>, Vec<Vec<Node>>);
    let n_types = interner.len();
    let color_shards: Vec<ColorShard> =
        par_partition(par, &tuple_idx, partition_parts(par, nverts), |_, range| {
            let mut ci_s: Vec<Vec<Node>> = vec![Vec::new(); iotas.len()];
            let mut ct_s: Vec<Vec<Node>> = vec![Vec::new(); n_types];
            let mut ff_s: Vec<Vec<Node>> = vec![Vec::new(); k];
            for &j in range {
                let j = j as usize;
                let t = tslice(j);
                let ty = tuple_ty[j];
                let vbase = (n + 1) as u32 + block[j];
                for (rank, &io_id) in iotas_by_size[t.len()].iter().enumerate() {
                    let vn = Node(vbase + rank as u32);
                    ci_s[io_id as usize].push(vn);
                    ct_s[ty.index()].push(vn);
                    let io = &iotas[io_id as usize];
                    for (jj, &b) in t.iter().enumerate() {
                        let f = &mut ff_s[io[jj] as usize];
                        f.push(vn);
                        f.push(b);
                    }
                }
            }
            (ci_s, ct_s, ff_s)
        });
    let mut shard_it = color_shards.into_iter();
    let (mut ci_nodes, mut ct_nodes, mut f_flat) = shard_it.next().expect("at least one shard");
    for (ci2, ct2, ff2) in shard_it {
        for (d, s) in ci_nodes.iter_mut().zip(ci2) {
            d.extend(s);
        }
        for (d, s) in ct_nodes.iter_mut().zip(ct2) {
            d.extend(s);
        }
        for (d, s) in f_flat.iter_mut().zip(ff2) {
            d.extend(s);
        }
    }
    for (id, nodes) in ci_nodes.into_iter().enumerate() {
        gb.bulk_unary_sorted(ci(id as u16), nodes).expect("sorted");
    }
    for (tid, nodes) in ct_nodes.into_iter().enumerate() {
        gb.bulk_unary_sorted(ct(TypeId(tid as u32)), nodes)
            .expect("sorted");
    }
    for (i, flat) in f_flat.into_iter().enumerate() {
        gb.bulk_binary_sorted(f_rel(i), flat).expect("sorted");
    }
    let adjacency = Arc::new(tuple_e_join(g, &esg, block.clone(), n, two_r1, nverts, par));
    let graph = gb.finish().expect("non-empty");
    profiler.add(Stage::Reduce, assemble_started.elapsed().as_nanos() as u64);

    ReductionCore {
        graph,
        near: Arc::new(near),
        tuple_data,
        tuple_off,
        tuple_ty,
        block,
        v_tuple,
        tuples: tuple_arena,
        iotas,
        iotas_by_size,
        iota_rank,
        interner,
        types_by_size,
        dummy,
        base_n: n,
        k,
        edge: e,
        adjacency,
    }
}

/// Tuples grouped by their sorted-distinct element *sets*, shared by the
/// neighborhood-key pass and the `E`-join (both are functions of the set
/// alone, independent of ι, ordering, and repetition). `heads[gi]` is the
/// minimal member tuple of group `gi`, with groups ordered by head, so
/// every layout derived from the grouping is deterministic.
struct EsetGroups {
    /// Per-tuple CSR of sorted distinct elements.
    eset_off: Vec<u32>,
    eset: Vec<Node>,
    /// Minimal member tuple of each group, ascending.
    heads: Vec<u32>,
    /// tuple index → group index.
    tgroup: Vec<u32>,
}

impl EsetGroups {
    /// Tuple `j`'s sorted distinct elements.
    fn eslice(&self, j: usize) -> &[Node] {
        &self.eset[self.eset_off[j] as usize..self.eset_off[j + 1] as usize]
    }
}

/// Bucket the cluster-tuple CSR by element set (sort with index tie-break,
/// then runs → groups re-ordered by minimal member).
fn element_set_groups(tuple_off: &[u32], tuple_data: &[Node]) -> EsetGroups {
    let ntup = tuple_off.len() - 1;
    let mut eset_off: Vec<u32> = Vec::with_capacity(ntup + 1);
    eset_off.push(0);
    let mut eset: Vec<Node> = Vec::with_capacity(tuple_data.len());
    let mut buf: Vec<Node> = Vec::new();
    for j in 0..ntup {
        buf.clear();
        buf.extend_from_slice(&tuple_data[tuple_off[j] as usize..tuple_off[j + 1] as usize]);
        buf.sort_unstable();
        buf.dedup();
        eset.extend_from_slice(&buf);
        eset_off.push(eset.len() as u32);
    }
    let eslice = |j: usize| -> &[Node] { &eset[eset_off[j] as usize..eset_off[j + 1] as usize] };
    let mut order: Vec<u32> = (0..ntup as u32).collect();
    order.sort_unstable_by(|&a, &b| eslice(a as usize).cmp(eslice(b as usize)).then(a.cmp(&b)));
    let mut runs: Vec<(u32, u32, u32)> = Vec::new(); // (head, start, end) in `order`
    let mut i = 0usize;
    while i < order.len() {
        let mut e = i + 1;
        while e < order.len() && eslice(order[e] as usize) == eslice(order[i] as usize) {
            e += 1;
        }
        runs.push((order[i], i as u32, e as u32));
        i = e;
    }
    runs.sort_unstable_by_key(|&(head, _, _)| head);
    let mut tgroup: Vec<u32> = vec![0u32; ntup];
    for (gi, &(_, start, end)) in runs.iter().enumerate() {
        for &j in &order[start as usize..end as usize] {
            tgroup[j as usize] = gi as u32;
        }
    }
    let heads: Vec<u32> = runs.iter().map(|&(h, _, _)| h).collect();
    EsetGroups {
        eset_off,
        eset,
        heads,
        tgroup,
    }
}

/// The `E`-join at tuple granularity, shared by both builds: vertices are
/// `E`-adjacent iff their underlying tuples come within `2r+1` — a property
/// of the tuples' element sets alone. A dense element → tuple CSR replaces
/// per-element hashing, and the join runs once per *distinct element set*:
/// each [`EsetGroups`] group resolves its near tuples into one shared row,
/// and every member tuple aliases that row —
/// [`EdgeAdjacency::from_block_rows`] answers vertex-level queries straight
/// off the shared rows and the ι-block map.
fn tuple_e_join(
    g: &GaifmanGraph,
    esg: &EsetGroups,
    block: Vec<u32>,
    n: usize,
    two_r1: usize,
    nverts: usize,
    par: &ParConfig,
) -> EdgeAdjacency {
    let ntup = esg.tgroup.len();

    // Dense element → tuple incidence (distinct elements only), by
    // counting sort: per-element tuple lists come out ascending.
    let mut tinc_off: Vec<u32> = vec![0u32; n + 1];
    for j in 0..ntup {
        for &b in esg.eslice(j) {
            tinc_off[b.index() + 1] += 1;
        }
    }
    for i in 0..n {
        tinc_off[i + 1] += tinc_off[i];
    }
    let mut tinc_cursor: Vec<u32> = tinc_off[..n].to_vec();
    let mut tinc: Vec<u32> = vec![0u32; tinc_off[n] as usize];
    for j in 0..ntup {
        for &b in esg.eslice(j) {
            tinc[tinc_cursor[b.index()] as usize] = j as u32;
            tinc_cursor[b.index()] += 1;
        }
    }
    drop(tinc_cursor);

    // Each slice of groups resolves the near tuples of its element sets
    // into slice-local rows. Rows come out sorted and cover every member
    // tuple (`ball` always reaches the set's own elements).
    let parts = if par.runs_serial(nverts) {
        1
    } else {
        par.threads() * 4
    };
    let shards: Vec<(Vec<u32>, Vec<u32>)> = par_partition(par, &esg.heads, parts, |_, range| {
        let mut adj_flat: Vec<u32> = Vec::new();
        let mut row_len: Vec<u32> = Vec::with_capacity(range.len());
        let mut reached: Vec<Node> = Vec::new();
        for &head in range {
            reached.clear();
            for &b in esg.eslice(head as usize) {
                reached.extend(g.ball_unsorted(b, two_r1));
            }
            reached.sort_unstable();
            reached.dedup();
            let start = adj_flat.len();
            for &c in reached.iter() {
                let (lo, hi) = (
                    tinc_off[c.index()] as usize,
                    tinc_off[c.index() + 1] as usize,
                );
                adj_flat.extend_from_slice(&tinc[lo..hi]);
            }
            adj_flat[start..].sort_unstable();
            // dedup the new segment only (a plain `dedup()` could merge
            // equal values across the previous segment's boundary)
            let mut w = start;
            for rdx in start..adj_flat.len() {
                if w == start || adj_flat[rdx] != adj_flat[w - 1] {
                    adj_flat[w] = adj_flat[rdx];
                    w += 1;
                }
            }
            adj_flat.truncate(w);
            row_len.push((adj_flat.len() - start) as u32);
        }
        (row_len, adj_flat)
    });
    // Assemble the per-group row bounds; a single shard (serial pool) is
    // adopted as-is instead of copied.
    let mut grow_off: Vec<u32> = Vec::with_capacity(esg.heads.len() + 1);
    grow_off.push(0);
    for (row_len, _) in &shards {
        for &l in row_len {
            grow_off.push(grow_off.last().unwrap() + l);
        }
    }
    debug_assert_eq!(grow_off.len(), esg.heads.len() + 1);
    let rows: Vec<u32> = if shards.len() == 1 {
        shards.into_iter().next().unwrap().1
    } else {
        let entries: usize = shards.iter().map(|(_, f)| f.len()).sum();
        let mut out: Vec<u32> = Vec::with_capacity(entries);
        for (_, f) in shards {
            out.extend(f);
        }
        out
    };
    let mut row_start: Vec<u32> = vec![0u32; ntup];
    let mut row_end: Vec<u32> = vec![0u32; ntup];
    for j in 0..ntup {
        let gi = esg.tgroup[j] as usize;
        row_start[j] = grow_off[gi];
        row_end[j] = grow_off[gi + 1];
    }
    EdgeAdjacency::from_block_rows((n + 1) as u32, block, row_start, row_end, rows)
}

/// The original per-vertex core construction, preserved as a differential
/// oracle for [`build_core`] (see `tests/reduction_equivalence.rs`):
/// hash-map key interning in tuple order, materialized [`VertexInfo`]
/// records, the per-vertex color/`F`-edge loop, and the explicit
/// `(tuple, ι) → vertex` lookup. Before converting into the shared
/// [`ReductionCore`] shape it *asserts* that the materialized vertices
/// coincide with the arithmetic block layout the production build uses.
fn build_core_reference(
    structure: &Structure,
    r: usize,
    k: usize,
    eps: Epsilon,
    par: &ParConfig,
) -> ReductionCore {
    let two_r1 = 2 * r + 1;
    let rhat = k * two_r1;
    let n = structure.cardinality();
    let g = structure.gaifman_with(par);

    let mut near = RadixFuncStore::new(n, 2, eps);
    for a in structure.domain() {
        for b in g.ball(a, two_r1) {
            near.insert(&[a, b], ());
        }
    }

    let anchors: Vec<Node> = structure.domain().collect();

    // Phase A: connected cluster tuples, per anchor (parallel).
    let tuples: Vec<Vec<Node>> = par_flat_map(par, &anchors, |&a| {
        let ball = g.ball(a, rhat);
        let mut local: Vec<Vec<Node>> = Vec::new();
        let mut tuple: Vec<Node> = Vec::with_capacity(k);
        tuple.push(a);
        enumerate_cluster_tuples(&ball, k, &near, &mut tuple, &mut |t: &[Node]| {
            local.push(t.to_vec());
        });
        local
    });

    // Phase B: exact neighborhood keys (parallel).
    let keys: Vec<Vec<u32>> = par_map(par, &tuples, |t| {
        let mut key = Vec::new();
        structure.neighborhood_key_of_tuple(t, r, &mut key);
        key
    });

    let iotas = all_injections(k);

    // Sequential interning in tuple order; the canonical encoding — and
    // the type representative — is computed only on each key's first
    // occurrence.
    let mut interner = TypeInterner::new();
    let mut vertices: Vec<VertexInfo> = Vec::new();
    let mut tuple_ty: Vec<TypeId> = Vec::with_capacity(tuples.len());
    let mut types_by_size: Vec<BTreeSet<TypeId>> = vec![BTreeSet::new(); k + 1];
    let mut ty_memo: FxHashMap<Vec<u32>, TypeId> = FxHashMap::default();
    for (t, key) in tuples.iter().zip(keys) {
        let ty = match ty_memo.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let nb = structure.neighborhood_of_tuple(t, r);
                let local_tuple: Vec<Node> = t
                    .iter()
                    .map(|&p| nb.to_local(p).expect("tuple in own neighborhood"))
                    .collect();
                let enc = lowdeg_locality::types::canonical_encoding(nb.structure(), &local_tuple);
                *e.insert(
                    interner.intern_encoded(&enc, || (nb.structure().clone(), local_tuple.clone())),
                )
            }
        };
        tuple_ty.push(ty);
        types_by_size[t.len()].insert(ty);
        for (id, io) in iotas.iter().enumerate() {
            if io.len() == t.len() {
                vertices.push(VertexInfo {
                    tuple: t.clone(),
                    iota: id as u16,
                    ty,
                });
            }
        }
    }

    // --- signature of G
    let mut sigb = Signature::builder();
    let e_decl = sigb.relation("E", 2).expect("fresh signature");
    for i in 0..k {
        sigb.relation(&format!("F{}", i + 1), 2).expect("fresh");
    }
    sigb.relation("Cbot", 1).expect("fresh");
    for (id, io) in iotas.iter().enumerate() {
        let name = format!(
            "CI{id}_{}",
            io.iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join("_")
        );
        sigb.relation(&name, 1).expect("fresh");
    }
    for t in 0..interner.len() {
        sigb.relation(&format!("CT{t}"), 1).expect("fresh");
    }
    let tau = Arc::new(sigb.finish());
    let e = e_decl;
    let f_rel = |i: usize| RelId((1 + i) as u32);
    let cbot = RelId((1 + k) as u32);
    let ci = |id: u16| RelId((2 + k + id as usize) as u32);
    let ct = |t: TypeId| RelId((2 + k + iotas.len() + t.index()) as u32);

    // --- build G, per-vertex (the original loop)
    let dummy = Node(n as u32);
    let vertex_node = |idx: usize| Node((n + 1 + idx) as u32);
    let total = n + 1 + vertices.len();
    let mut gb = Structure::builder(tau.clone(), total);
    gb.fact(cbot, &[dummy]).expect("in range");

    let mut ci_nodes: Vec<Vec<Node>> = vec![Vec::new(); iotas.len()];
    let mut ct_nodes: Vec<Vec<Node>> = vec![Vec::new(); interner.len()];
    let mut f_flat: Vec<Vec<Node>> = vec![Vec::new(); k];
    let mut tuple_arena: SliceInterner<Node> = SliceInterner::new();
    let mut lookup: FxHashMap<u64, Node> = FxHashMap::default();
    for (idx, v) in vertices.iter().enumerate() {
        let vn = vertex_node(idx);
        ci_nodes[v.iota as usize].push(vn);
        ct_nodes[v.ty.index()].push(vn);
        let io = &iotas[v.iota as usize];
        for (j, &b) in v.tuple.iter().enumerate() {
            let f = &mut f_flat[io[j] as usize];
            f.push(vn);
            f.push(b);
        }
        let tid = tuple_arena.intern(&v.tuple);
        lookup.insert(pack_lookup_key(tid, v.iota), vn);
    }
    for (id, nodes) in ci_nodes.into_iter().enumerate() {
        gb.bulk_unary_sorted(ci(id as u16), nodes).expect("sorted");
    }
    for (tid, nodes) in ct_nodes.into_iter().enumerate() {
        gb.bulk_unary_sorted(ct(TypeId(tid as u32)), nodes)
            .expect("sorted");
    }
    for (i, flat) in f_flat.into_iter().enumerate() {
        gb.bulk_binary_sorted(f_rel(i), flat).expect("sorted");
    }

    // --- convert to the arithmetic layout, asserting agreement
    let ntup = tuples.len();
    let mut tuple_off: Vec<u32> = Vec::with_capacity(ntup + 1);
    tuple_off.push(0);
    let mut tuple_data: Vec<Node> = Vec::new();
    for t in &tuples {
        tuple_data.extend_from_slice(t);
        tuple_off.push(tuple_data.len() as u32);
    }
    let (iotas_by_size, iota_rank, iota_cnt) = iota_layout(k, &iotas);
    let mut block: Vec<u32> = Vec::with_capacity(ntup + 1);
    block.push(0);
    for t in &tuples {
        block.push(block.last().unwrap() + iota_cnt[t.len()]);
    }
    let nverts = *block.last().unwrap() as usize;
    assert_eq!(nverts, vertices.len(), "block layout covers all vertices");
    let mut v_tuple: Vec<u32> = vec![0u32; nverts];
    for j in 0..ntup {
        for v in block[j]..block[j + 1] {
            v_tuple[v as usize] = j as u32;
        }
    }
    // This is the oracle's teeth: every materialized vertex must sit at
    // exactly the id the production build computes arithmetically.
    for (idx, v) in vertices.iter().enumerate() {
        let tid = tuple_arena
            .lookup(&v.tuple)
            .expect("vertex tuple was interned");
        assert_eq!(
            idx as u32,
            block[tid as usize] + iota_rank[v.iota as usize] as u32,
            "vertex {idx} disagrees with the arithmetic block layout"
        );
        assert_eq!(
            lookup.get(&pack_lookup_key(tid, v.iota)),
            Some(&vertex_node(idx)),
            "lookup map disagrees with the vertex order"
        );
        assert_eq!(v_tuple[idx], tid, "v_tuple disagrees");
        assert_eq!(tuple_ty[tid as usize], v.ty, "tuple_ty disagrees");
    }

    let esg = element_set_groups(&tuple_off, &tuple_data);
    let adjacency = Arc::new(tuple_e_join(g, &esg, block.clone(), n, two_r1, nverts, par));
    let graph = gb.finish().expect("non-empty");

    ReductionCore {
        graph,
        near: Arc::new(near),
        tuple_data,
        tuple_off,
        tuple_ty,
        block,
        v_tuple,
        tuples: tuple_arena,
        iotas,
        iotas_by_size,
        iota_rank,
        interner,
        types_by_size,
        dummy,
        base_n: n,
        k,
        edge: e,
        adjacency,
    }
}

/// A Step 5 combination's structure — the disjoint union of its type
/// representatives — as a borrowed view that [`eval`] runs on directly;
/// no union is ever materialized. Part `i` occupies the node range
/// starting at the sum of the preceding parts' cardinalities, the layout
/// a materialized disjoint union uses, so quantifiers range over the
/// same domain in the same order. A fact holds iff all its arguments
/// fall in one part and the fact holds there (no fact of a disjoint
/// union spans two parts), and two nodes of different parts are at
/// infinite Gaifman distance. Every question is dispatched to the
/// owning part by its offset.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct UnionView<'a> {
    parts: Vec<&'a Structure>,
    /// `ends[i]`: one past part `i`'s last node id.
    ends: Vec<u32>,
}

impl<'a> UnionView<'a> {
    /// The view over `parts`, in order.
    pub fn new(parts: &[&'a Structure]) -> Self {
        let mut view = UnionView::default();
        for &part in parts {
            view.push(part);
        }
        view
    }

    /// Drop every part, keeping the allocations for reuse.
    fn clear(&mut self) {
        self.parts.clear();
        self.ends.clear();
    }

    /// Append `part`; returns the node offset its domain starts at.
    fn push(&mut self, part: &'a Structure) -> u32 {
        let offset = self.ends.last().copied().unwrap_or(0);
        self.parts.push(part);
        self.ends.push(offset + part.cardinality() as u32);
        offset
    }

    /// The part owning node `a` and that part's node range.
    #[inline]
    fn locate(&self, a: Node) -> (&'a Structure, u32, u32) {
        let i = self
            .ends
            .iter()
            .position(|&end| a.0 < end)
            .expect("node inside the union's domain");
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        (self.parts[i], start, self.ends[i])
    }
}

impl Model for UnionView<'_> {
    #[inline]
    fn cardinality(&self) -> usize {
        self.ends.last().copied().unwrap_or(0) as usize
    }

    fn holds(&self, rel: RelId, t: &[Node]) -> bool {
        let Some(&first) = t.first() else {
            return false; // every relation has arity >= 1
        };
        let (part, start, end) = self.locate(first);
        let mut buf = [Node(0); MAX_REL_ARITY];
        let Some(local) = buf.get_mut(..t.len()) else {
            return false;
        };
        for (slot, &a) in local.iter_mut().zip(t) {
            if a.0 < start || a.0 >= end {
                return false; // spans two parts
            }
            *slot = Node(a.0 - start);
        }
        part.holds(rel, local)
    }

    fn within_distance(&self, a: Node, b: Node, r: usize) -> bool {
        if a == b {
            return true;
        }
        let (part, start, end) = self.locate(a);
        if b.0 < start || b.0 >= end {
            return false; // different parts: infinitely far apart
        }
        Model::within_distance(part, Node(a.0 - start), Node(b.0 - start), r)
    }
}

/// All injections `{0..s-1} → {0..k-1}` for `s = 1..=k`, each as its list of
/// target positions.
fn all_injections(k: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for s in 1..=k {
        let mut current: Vec<u8> = Vec::with_capacity(s);
        fn rec(k: usize, s: usize, current: &mut Vec<u8>, out: &mut Vec<Vec<u8>>) {
            if current.len() == s {
                out.push(current.clone());
                return;
            }
            for p in 0..k as u8 {
                if !current.contains(&p) {
                    current.push(p);
                    rec(k, s, current, out);
                    current.pop();
                }
            }
        }
        rec(k, s, &mut current, &mut out);
    }
    out
}

/// All partitions of `{0..k-1}` with parts ordered by minimum element and
/// each part sorted ascending (the paper's canonical form).
fn all_partitions(k: usize) -> Vec<Vec<Vec<u8>>> {
    let mut out = Vec::new();
    let mut parts: Vec<Vec<u8>> = Vec::new();
    fn rec(k: usize, next: u8, parts: &mut Vec<Vec<u8>>, out: &mut Vec<Vec<Vec<u8>>>) {
        if next as usize == k {
            out.push(parts.clone());
            return;
        }
        for i in 0..parts.len() {
            parts[i].push(next);
            rec(k, next + 1, parts, out);
            parts[i].pop();
        }
        parts.push(vec![next]);
        rec(k, next + 1, parts, out);
        parts.pop();
    }
    rec(k, 0, &mut parts, &mut out);
    out
}

/// Enumerate all ordered tuples (with repetition) of sizes `2..=k` over
/// `ball` whose first component is `tuple[0]` and which are connected with
/// respect to the near-pair store; invoke `sink` on each (and on the
/// singleton).
fn enumerate_cluster_tuples(
    ball: &[Node],
    k: usize,
    near: &RadixFuncStore<()>,
    tuple: &mut Vec<Node>,
    sink: &mut impl FnMut(&[Node]),
) {
    // the singleton is always connected
    sink(tuple);
    if tuple.len() == k {
        return;
    }
    for &b in ball {
        tuple.push(b);
        if is_connected(tuple, near) {
            sink(tuple);
        }
        // continue extending even through disconnected prefixes: a later
        // element may bridge them
        if tuple.len() < k {
            extend_rest(ball, k, near, tuple, sink);
        }
        tuple.pop();
    }
}

fn extend_rest(
    ball: &[Node],
    k: usize,
    near: &RadixFuncStore<()>,
    tuple: &mut Vec<Node>,
    sink: &mut impl FnMut(&[Node]),
) {
    for &b in ball {
        tuple.push(b);
        if is_connected(tuple, near) {
            sink(tuple);
        }
        if tuple.len() < k {
            extend_rest(ball, k, near, tuple, sink);
        }
        tuple.pop();
    }
}

fn is_connected(tuple: &[Node], near: &RadixFuncStore<()>) -> bool {
    let s = tuple.len();
    if s <= 1 {
        return true;
    }
    let mut seen = vec![false; s];
    let mut stack = vec![0usize];
    seen[0] = true;
    let mut count = 1;
    while let Some(i) = stack.pop() {
        for j in 0..s {
            if !seen[j] && (tuple[i] == tuple[j] || near.contains_key(&[tuple[i], tuple[j]])) {
                seen[j] = true;
                count += 1;
                stack.push(j);
            }
        }
    }
    count == s
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
    use lowdeg_logic::eval::answers_naive;
    use lowdeg_logic::parse_query;

    fn eps() -> Epsilon {
        Epsilon::new(0.5)
    }

    fn small(seed: u64) -> Structure {
        ColoredGraphSpec::balanced(18, DegreeClass::Bounded(3)).generate(seed)
    }

    /// The fundamental invariant: `f` restricts to a bijection between
    /// `φ(A)` and `ψ(G)`.
    fn assert_bijection(structure: &Structure, src: &str) {
        let q = parse_query(structure.signature(), src).unwrap();
        let red = Reduction::build(structure, &q, eps(), &ParConfig::from_env()).unwrap();
        let oracle = answers_naive(structure, &q);
        let oracle_set: BTreeSet<Vec<Node>> = oracle.iter().cloned().collect();

        // every tuple decides correctly through the graph
        let k = q.arity();
        let n = structure.cardinality();
        let mut idx = vec![0usize; k];
        loop {
            let tuple: Vec<Node> = idx.iter().map(|&i| Node(i as u32)).collect();
            let via_graph = red.test_via_graph(&tuple).unwrap();
            assert_eq!(
                via_graph,
                oracle_set.contains(&tuple),
                "`{src}` disagrees on {tuple:?}"
            );
            // f is invertible on answers
            if via_graph {
                let v = red.forward(&tuple).unwrap();
                assert_eq!(red.backward(&v), Some(tuple.clone()));
            }
            let mut pos = k;
            loop {
                if pos == 0 {
                    return;
                }
                pos -= 1;
                idx[pos] += 1;
                if idx[pos] < n {
                    break;
                }
                idx[pos] = 0;
            }
        }
    }

    #[test]
    fn running_example_bijection() {
        for seed in [1, 2] {
            let s = small(seed);
            assert_bijection(&s, "B(x) & R(y) & !E(x, y)");
        }
    }

    #[test]
    fn unary_query_bijection() {
        let s = small(3);
        assert_bijection(&s, "B(x) & !R(x)");
    }

    #[test]
    fn quantified_query_bijection() {
        let s = small(4);
        assert_bijection(&s, "exists z. E(x, z) & E(z, y)");
    }

    #[test]
    fn dist_guard_bijection() {
        let s = small(5);
        assert_bijection(&s, "B(x) & R(y) & dist(x, y) > 2");
    }

    #[test]
    fn ternary_query_bijection() {
        let s = ColoredGraphSpec::balanced(10, DegreeClass::Bounded(2)).generate(6);
        assert_bijection(&s, "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)");
    }

    #[test]
    fn forward_is_total_and_injective() {
        let s = small(7);
        let q = parse_query(s.signature(), "B(x) & R(y)").unwrap();
        let red = Reduction::build(&s, &q, eps(), &ParConfig::from_env()).unwrap();
        let mut images = BTreeSet::new();
        for a in s.domain() {
            for b in s.domain() {
                let img = red.forward(&[a, b]).unwrap();
                assert!(images.insert(img), "f not injective at ({a}, {b})");
            }
        }
    }

    #[test]
    fn graph_is_binary_signature() {
        let s = small(8);
        let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        let red = Reduction::build(&s, &q, eps(), &ParConfig::from_env()).unwrap();
        assert!(red.graph().signature().is_binary());
        assert!(red.cluster_count() > 0);
        assert_eq!(red.arity(), 2);
        // radius 0 for a quantifier-free query
        assert_eq!(red.radius(), 0);
    }

    #[test]
    fn radix_build_matches_reference_digest() {
        let par = ParConfig::serial();
        for seed in [1, 5] {
            let s = small(seed);
            for src in ["B(x) & R(y) & !E(x, y)", "exists z. E(x, z) & E(z, y)"] {
                let q = parse_query(s.signature(), src).unwrap();
                let radix = Reduction::build(&s, &q, eps(), &par).unwrap();
                let reference =
                    Reduction::build_reference(&s, &q, eps(), DEFAULT_COMBINATION_BUDGET, &par)
                        .unwrap();
                assert_eq!(radix.core_digest(), reference.core_digest(), "`{src}`");
            }
        }
    }

    /// Classify the formula of `src` (free variables in first-occurrence
    /// order) with free variable `i` in part `parts[i]`.
    fn classify(src: &str, parts: &[usize]) -> Conjunct {
        let s = small(1);
        let q = parse_query(s.signature(), src).unwrap();
        let part_of = |v: Var| q.free.iter().position(|&f| f == v).map(|i| parts[i]);
        classify_conjunct(&q.formula, part_of)
    }

    #[test]
    fn classifier_reads_exists_guards() {
        assert_eq!(
            classify("exists z. E(x, z) & R(z)", &[0]),
            Conjunct::Local(0)
        );
        // chained through a second witness
        let chained = "exists z w. E(w, z) & E(x, w) & R(z)";
        assert_eq!(classify(chained, &[1]), Conjunct::Local(1));
        // `z` meets `x` only through a negated atom: a witness may lie in
        // another part
        assert_eq!(
            classify("exists z. R(z) & !E(x, z)", &[0]),
            Conjunct::Residual
        );
        // a positive chain through a witness joins the two parts
        let hop = "exists z. E(x, z) & E(z, y)";
        assert_eq!(classify(hop, &[0, 1]), Conjunct::Never);
        assert_eq!(classify(hop, &[0, 0]), Conjunct::Local(0));
    }

    #[test]
    fn classifier_reads_forall_guards() {
        let guarded = "forall z. dist(x, z) > 1 | B(z)";
        assert_eq!(classify(guarded, &[0]), Conjunct::Local(0));
        assert_eq!(
            classify("forall z. !E(z, x) | B(z)", &[2]),
            Conjunct::Local(2)
        );
        // a positive atom in the body does not confine a counterexample
        assert_eq!(
            classify("forall z. B(z) | E(x, z)", &[0]),
            Conjunct::Residual
        );
    }

    #[test]
    fn classifier_folds_spanning_literals() {
        assert_eq!(classify("E(x, y)", &[0, 1]), Conjunct::Never);
        assert_eq!(classify("!E(x, y)", &[0, 1]), Conjunct::Always);
        assert_eq!(classify("x = y", &[0, 1]), Conjunct::Never);
        assert_eq!(classify("dist(x, y) <= 2", &[0, 1]), Conjunct::Never);
        assert_eq!(classify("dist(x, y) > 2", &[0, 1]), Conjunct::Always);
        assert_eq!(classify("!E(x, y)", &[0, 0]), Conjunct::Local(0));
    }

    #[test]
    fn classifier_leaves_the_rest_residual() {
        // a nested disjunction across parts, with or without a link
        assert_eq!(classify("B(x) | R(y)", &[0, 1]), Conjunct::Residual);
        assert_eq!(classify("B(x) | E(x, y)", &[0, 1]), Conjunct::Residual);
        // a closed conjunct
        assert_eq!(classify("exists z. B(z)", &[]), Conjunct::Residual);
        // one variable bound by two sibling quantifiers: the chain test
        // must not join their witnesses
        let s = small(1);
        let q = parse_query(s.signature(), "E(x, y)").unwrap();
        let (x, y, z) = (q.free[0], q.free[1], Var(q.vars.len() as u32));
        let edge = |a, b| Formula::Atom {
            rel: s.signature().rel("E").unwrap(),
            args: vec![a, b],
        };
        let siblings = Formula::And(vec![
            Formula::Exists(vec![z], Box::new(edge(x, z))),
            Formula::Exists(vec![z], Box::new(edge(z, y))),
        ]);
        let part_of = |v: Var| [x, y].iter().position(|&f| f == v);
        assert_eq!(classify_conjunct(&siblings, part_of), Conjunct::Residual);
    }

    #[test]
    fn partitions_enumeration() {
        assert_eq!(all_partitions(1).len(), 1);
        assert_eq!(all_partitions(2).len(), 2);
        assert_eq!(all_partitions(3).len(), 5); // Bell(3)
        assert_eq!(all_partitions(4).len(), 15); // Bell(4)
        for p in all_partitions(3) {
            // parts ordered by min, each sorted
            let mins: Vec<u8> = p.iter().map(|part| part[0]).collect();
            assert!(mins.windows(2).all(|w| w[0] < w[1]));
            for part in p {
                assert!(part.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn injections_enumeration() {
        // k=3: s=1 → 3, s=2 → 6, s=3 → 6
        assert_eq!(all_injections(3).len(), 15);
        assert_eq!(all_injections(1), vec![vec![0]]);
    }

    #[test]
    fn budget_violation_reported() {
        let s = small(9);
        let q = parse_query(s.signature(), "B(x) & R(y)").unwrap();
        let par = ParConfig::from_env();
        let err = Reduction::build_keyed(&s, &q, eps(), 0, &par, None, &Profiler::new(), None)
            .unwrap_err();
        assert!(matches!(err, EngineError::CombinationBudget { .. }));
    }

    /// A sentence has no answer positions to reduce: the public builders
    /// report it as a typed error instead of panicking.
    #[test]
    fn sentence_is_a_typed_error() {
        let s = small(10);
        let q = parse_query(s.signature(), "exists x. B(x)").unwrap();
        let par = ParConfig::serial();
        let built = Reduction::build(&s, &q, eps(), &par);
        assert_eq!(built.err(), Some(EngineError::Sentence));
        let reference = Reduction::build_reference(&s, &q, eps(), DEFAULT_COMBINATION_BUDGET, &par);
        assert_eq!(reference.err(), Some(EngineError::Sentence));
    }
}
