//! Cross-build artifact cache and build-phase profiler.
//!
//! Preprocessing rebuilds the same per-structure products — the near-pair
//! store, the whole query-independent Prop 3.3 core (cluster tuples,
//! canonical type interning, the colored graph `G` with its edges) — for
//! every engine built over the same database (conformance sweeps, a CLI
//! serving several queries, benchmark reps). The [`ArtifactCache`] keys
//! those products by [`Structure::fingerprint`] plus the parameters they
//! depend on, so repeated builds in one process reuse them; cold and warm
//! builds are guaranteed observably identical and the `cachecheck` row of
//! the conformance oracle table cross-checks that guarantee case by case.
//!
//! The cache has two tiers — reduction cores (each slot also holding the
//! core's counting memo and position memo) and per-clause Step 5
//! acceptance sets — each one keyed LRU map (`Lru`) bounded by
//! [`ArtifactCache::capacity`]. Evicting a core drops every clause entry
//! derived from it. The Gaifman graph has no tier: a [`Structure`] caches
//! its own, only a core miss reads it, and a core hit never builds it.
//! Nothing is keyed by a whole query: a query's Step 5 acceptance is the
//! union of its clauses' sets, and its count is the sum of its clauses'
//! combination counts (the counting memo's combination tier), so a warm
//! build of any query whose clauses are all cached is stitched from them.
//! A clause entry stores its clause's canonical serialization and a probe
//! compares it, so two clauses whose 64-bit fingerprints collide never
//! read each other's set.
//!
//! Invalidation is explicit: the cache never watches structures. Callers
//! that mutate a database (the `dynamic` module's update model) must either
//! drop the cache, call [`ArtifactCache::invalidate`] with the stale
//! fingerprint, or rebuild their [`Structure`] — a rebuilt structure hashes
//! to a new fingerprint, so stale entries are never *returned*, only
//! retained.
//!
//! The [`Profiler`] times the pipeline's six build stages
//! (`extract → reduce → ie-count → fixpoint → skip-tables → warm-up`);
//! the resulting
//! [`BuildProfile`] is stored on every [`crate::Engine`] and surfaces in
//! `--explain` output and the `bench_gate` document (`BENCH_gate.json`).

use crate::counting::CountingMemo;
use crate::graph_query::PositionMemo;
use crate::reduction::{ClauseAcceptance, ReductionCore};
use lowdeg_index::{Epsilon, FxHashMap};
use lowdeg_storage::Structure;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Key of one [`ReductionCore`] entry: structure fingerprint, locality
/// radius, arity, and ε (the near store's layout depends on it).
type ClusterKey = (u64, usize, usize, u64);

/// Key of one cached per-clause acceptance set: the core's [`ClusterKey`]
/// plus the *clause-local* canonical fingerprint
/// (`lowdeg_logic::ClauseForm::fingerprint`). The clause fingerprint is
/// sibling-blind, so any two queries sharing a clause — inside one
/// workload batch, across separate warm builds, or as rewrite variants of
/// one query — probe the same entry and share that clause's Step 5
/// acceptance pass.
type ClauseKey = (ClusterKey, u64);

/// Default [`ArtifactCache`] capacity: generous enough that eviction never
/// fires in ordinary workloads (one entry per distinct
/// `(structure, r, k, ε)`), while still bounding a pathological sweep over
/// thousands of structures.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// One keyed LRU tier: every value sits next to its recency stamp in one
/// map, and the least recent stamp is the eviction victim. Stamps come
/// from the cache-wide tick, so they are unique and the victim is
/// deterministic.
struct Lru<K, V> {
    map: FxHashMap<K, (V, u64)>,
}

impl<K, V> Default for Lru<K, V> {
    fn default() -> Self {
        Lru {
            map: FxHashMap::default(),
        }
    }
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    fn len(&self) -> usize {
        self.map.len()
    }

    /// The value under `key`, refreshing its stamp on a hit.
    fn get(&mut self, key: &K, stamp: u64) -> Option<&V> {
        let (value, used) = self.map.get_mut(key)?;
        *used = stamp;
        Some(value)
    }

    /// The value under `key` (inserted as `V::default()` when absent),
    /// stamped `stamp`.
    fn entry(&mut self, key: K, stamp: u64) -> &mut V
    where
        V: Default,
    {
        let (value, used) = self.map.entry(key).or_insert_with(|| (V::default(), 0));
        *used = stamp;
        value
    }

    fn insert(&mut self, key: K, value: V, stamp: u64) {
        self.map.insert(key, (value, stamp));
    }

    /// Remove the least recently used entry and return its key.
    fn pop_lru(&mut self) -> Option<K> {
        let key = *self.map.iter().min_by_key(|(_, (_, used))| *used)?.0;
        self.map.remove(&key);
        Some(key)
    }

    /// Keep only the entries whose key satisfies `keep` (the core-eviction
    /// cascade and [`ArtifactCache::invalidate`] drop by key prefix).
    fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.map.retain(|key, _| keep(key));
    }

    fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values().map(|(value, _)| value)
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.map.iter_mut().map(|(key, (value, _))| (key, value))
    }

    fn clear(&mut self) {
        self.map.clear();
    }
}

/// The per-core artifacts: the [`ReductionCore`] itself and the memos
/// derived from it. They share one recency stamp and are evicted
/// together; the memos may exist before (or without) the core.
#[derive(Default)]
struct CoreSlot {
    core: Option<Arc<ReductionCore>>,
    counting: Option<Arc<CountingMemo>>,
    positions: Option<Arc<PositionMemo>>,
}

impl CoreSlot {
    /// Live artifacts in this slot.
    fn len(&self) -> usize {
        self.core.is_some() as usize
            + self.counting.is_some() as usize
            + self.positions.is_some() as usize
    }
}

#[derive(Default)]
struct CacheInner {
    cores: Lru<ClusterKey, CoreSlot>,
    clauses: Lru<ClauseKey, Arc<ClauseAcceptance>>,
}

impl CacheInner {
    /// Evict least-recently-used entries down to `capacity` per kind. A
    /// core eviction drops the core's slot — its counting and position
    /// memos — and every clause acceptance set derived from that core with
    /// it; they are only meaningful against their core. Returns
    /// `(general evictions, clause-tier evictions)`; cascaded drops count
    /// with the eviction that caused them.
    fn enforce(&mut self, capacity: usize) -> (u64, u64) {
        let mut evicted = 0u64;
        let mut clause_evicted = 0u64;
        while self
            .cores
            .values()
            .filter(|slot| slot.core.is_some())
            .count()
            > capacity
        {
            let key = self.cores.pop_lru().expect("non-empty over capacity");
            self.clauses.retain(|&(core, _)| core != key);
            evicted += 1;
        }
        while self.clauses.len() > capacity {
            self.clauses.pop_lru();
            clause_evicted += 1;
        }
        (evicted, clause_evicted)
    }
}

/// In-process cache of per-structure build products, shared across the
/// clauses of one query and across repeated engine builds. Internally
/// synchronized: share it by reference (or `Arc`) between builds.
///
/// The cache is strictly opt-in — every default build path runs cold. It
/// holds at most [`ArtifactCache::capacity`] entries per tier: Gaifman
/// graphs, reduction cores (each with its counting and position memos)
/// and clause acceptance sets; beyond that the
/// least-recently-used entry is evicted ([`ArtifactCache::evictions`] and
/// [`ArtifactCache::clause_stats`] count them, and `--explain` surfaces
/// the counters). See the module docs for the explicit-invalidation
/// contract.
pub struct ArtifactCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    clause_hits: AtomicU64,
    clause_misses: AtomicU64,
    clause_evictions: AtomicU64,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl ArtifactCache {
    /// Empty cache with the default (generous) capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty cache retaining at most `capacity` entries per tier.
    /// A capacity of `0` is treated as `1` — the cache always admits the
    /// entry being inserted.
    pub fn with_capacity(capacity: usize) -> Self {
        ArtifactCache {
            inner: Mutex::new(CacheInner::default()),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            clause_hits: AtomicU64::new(0),
            clause_misses: AtomicU64::new(0),
            clause_evictions: AtomicU64::new(0),
        }
    }

    /// The per-kind entry limit this cache enforces.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// LRU evictions so far in the core tier (the clause tier counts its
    /// own, see [`Self::clause_stats`]).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Next recency stamp.
    fn touch(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Fold a [`CacheInner::enforce`] result into the eviction counters.
    fn record_evictions(&self, evicted: (u64, u64)) {
        self.evictions.fetch_add(evicted.0, Ordering::Relaxed);
        self.clause_evictions
            .fetch_add(evicted.1, Ordering::Relaxed);
    }

    /// Build `structure`'s own Gaifman graph on `par` unless it already
    /// holds one, so a later core miss on it reads the graph instead of
    /// building it. The cache itself keeps no Gaifman graph and counts no
    /// probe here.
    pub fn prime_gaifman(&self, structure: &Structure, par: &lowdeg_par::ParConfig) {
        structure.gaifman_with(par);
    }

    /// The query-independent [`ReductionCore`] for
    /// `(fingerprint, r, k, eps)`, building it with `build` on a miss and
    /// retaining the result.
    pub fn reduction_core(
        &self,
        fingerprint: u64,
        r: usize,
        k: usize,
        eps: Epsilon,
        build: impl FnOnce() -> ReductionCore,
    ) -> Arc<ReductionCore> {
        let key: ClusterKey = (fingerprint, r, k, eps.value().to_bits());
        let stamp = self.touch();
        {
            let mut inner = self.inner.lock().expect("cache poisoned");
            if let Some(hit) = inner
                .cores
                .get(&key, stamp)
                .and_then(|slot| slot.core.clone())
            {
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return hit;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Build outside the lock: core construction is the expensive
        // pseudo-linear pass, and concurrent builders at worst duplicate
        // work (last insert wins; all candidates are identical by key).
        let built = Arc::new(build());
        let mut inner = self.inner.lock().expect("cache poisoned");
        inner.cores.entry(key, stamp).core = Some(built.clone());
        let evicted = inner.enforce(self.capacity);
        drop(inner);
        self.record_evictions(evicted);
        built
    }

    /// The shared [`CountingMemo`] for the core at
    /// `(fingerprint, r, k, eps)` — created empty on first use and
    /// retained (and evicted) alongside the core entry of the same key.
    /// Every engine built against the same core through this cache drains
    /// its ie-count stage into the one memo, so repeated builds — and
    /// [`crate::Engine::build_workload`] batches of distinct queries
    /// sharing a quantifier-free core — skip every previously counted
    /// component.
    pub fn counting_memo(
        &self,
        fingerprint: u64,
        r: usize,
        k: usize,
        eps: Epsilon,
    ) -> Arc<CountingMemo> {
        let key: ClusterKey = (fingerprint, r, k, eps.value().to_bits());
        let stamp = self.touch();
        let mut inner = self.inner.lock().expect("cache poisoned");
        inner
            .cores
            .entry(key, stamp)
            .counting
            .get_or_insert_with(|| Arc::new(CountingMemo::new()))
            .clone()
    }

    /// The shared [`PositionMemo`] for the core at
    /// `(fingerprint, r, k, eps)` — created empty on first use and
    /// retained (and evicted) alongside the core entry of the same key.
    /// Position candidate lists are properties of the core's reduced
    /// colored graph, so the IE count and the enumerator of every engine
    /// built against the core read the one intersection scan per distinct
    /// color set instead of rescanning per graph clause.
    pub fn position_memo(
        &self,
        fingerprint: u64,
        r: usize,
        k: usize,
        eps: Epsilon,
    ) -> Arc<PositionMemo> {
        let key: ClusterKey = (fingerprint, r, k, eps.value().to_bits());
        let stamp = self.touch();
        let mut inner = self.inner.lock().expect("cache poisoned");
        inner
            .cores
            .entry(key, stamp)
            .positions
            .get_or_insert_with(|| Arc::new(PositionMemo::new()))
            .clone()
    }

    /// Probe the per-clause Step 5 acceptance tier for the core at
    /// `(fingerprint, r, k, eps)` and the clause-local canonical
    /// fingerprint `clause_fp`, whose canonical serialization is
    /// `canonical` (`lowdeg_logic::ClauseForm::canonical`). Any two
    /// queries that share a clause — rewrite variants of one query
    /// included — reuse that clause's acceptance pass. A hit is verified:
    /// an entry whose stored serialization differs (a fingerprint
    /// collision) is a miss. Probes maintain their own counters
    /// ([`Self::clause_stats`]); a miss is counted here — callers build
    /// each missed clause's acceptance and retain it via
    /// [`Self::clause_product_insert`], which replaces a colliding entry.
    pub(crate) fn clause_product_cached(
        &self,
        fingerprint: u64,
        r: usize,
        k: usize,
        eps: Epsilon,
        clause_fp: u64,
        canonical: &[u64],
    ) -> Option<Arc<ClauseAcceptance>> {
        let key: ClauseKey = ((fingerprint, r, k, eps.value().to_bits()), clause_fp);
        let stamp = self.touch();
        let hit = {
            let mut inner = self.inner.lock().expect("cache poisoned");
            inner
                .clauses
                .get(&key, stamp)
                .filter(|hit| *hit.canonical == *canonical)
                .cloned()
        };
        match hit {
            Some(_) => self.clause_hits.fetch_add(1, Ordering::Relaxed),
            None => self.clause_misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Retain one clause's acceptance set (built outside the lock, so
    /// concurrent builders at worst duplicate work; all candidates are
    /// identical by key) under its clause key.
    pub(crate) fn clause_product_insert(
        &self,
        fingerprint: u64,
        r: usize,
        k: usize,
        eps: Epsilon,
        clause_fp: u64,
        product: ClauseAcceptance,
    ) -> Arc<ClauseAcceptance> {
        let key: ClauseKey = ((fingerprint, r, k, eps.value().to_bits()), clause_fp);
        let stamp = self.touch();
        let built = Arc::new(product);
        let mut inner = self.inner.lock().expect("cache poisoned");
        inner.clauses.insert(key, built.clone(), stamp);
        let evicted = inner.enforce(self.capacity);
        drop(inner);
        self.record_evictions(evicted);
        built
    }

    /// `(hits, misses, evictions)` of the clause-granular acceptance tier.
    pub fn clause_stats(&self) -> (u64, u64, u64) {
        (
            self.clause_hits.load(Ordering::Relaxed),
            self.clause_misses.load(Ordering::Relaxed),
            self.clause_evictions.load(Ordering::Relaxed),
        )
    }

    /// Drop every entry derived from `fingerprint` (the explicit
    /// invalidation hook for callers that mutated a structure in place).
    pub fn invalidate(&self, fingerprint: u64) {
        let mut inner = self.inner.lock().expect("cache poisoned");
        inner.cores.retain(|&(fp, ..)| fp != fingerprint);
        inner.clauses.retain(|&((fp, ..), _)| fp != fingerprint);
    }

    /// Drop only the counting memos derived from `fingerprint` — their
    /// component and combination tiers — keeping the reduction cores and
    /// the clause acceptance sets. Benchmarks use this to measure a
    /// warm-core / cold-memo build (what N independent per-query caches
    /// would do).
    pub fn invalidate_counting(&self, fingerprint: u64) {
        let mut inner = self.inner.lock().expect("cache poisoned");
        for (_, slot) in inner
            .cores
            .iter_mut()
            .filter(|((fp, ..), _)| *fp == fingerprint)
        {
            slot.counting = None;
        }
    }

    /// Drop everything.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("cache poisoned");
        inner.cores.clear();
        inner.clauses.clear();
    }

    /// `(hits, misses)` of the core tier's probes (diagnostics; the clause
    /// tier and the counting memos keep their own probe counters).
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of retained entries across all artifact kinds: reduction
    /// cores, counting memos, position memos and clause acceptance sets.
    pub fn entries(&self) -> usize {
        let inner = self.inner.lock().expect("cache poisoned");
        inner.cores.values().map(CoreSlot::len).sum::<usize>() + inner.clauses.len()
    }

    /// The live counting memos (snapshotted so their counters are read
    /// outside the cache lock).
    fn counting_memos(&self) -> Vec<Arc<CountingMemo>> {
        let inner = self.inner.lock().expect("cache poisoned");
        inner
            .cores
            .values()
            .filter_map(|slot| slot.counting.clone())
            .collect()
    }

    /// Aggregated `(hits, misses, components)` over the retained counting
    /// memos (diagnostics; surfaced by `--explain`).
    pub fn counting_stats(&self) -> (u64, u64, usize) {
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut components = 0usize;
        for m in self.counting_memos() {
            let (h, mi) = m.stats();
            hits += h;
            misses += mi;
            components += m.len();
        }
        (hits, misses, components)
    }

    /// Aggregated `(hits, misses, color sets)` over the retained position
    /// memos, the per-core candidate-list tables (diagnostics; surfaced by
    /// `--explain`). A miss is one column intersection.
    pub fn position_stats(&self) -> (u64, u64, usize) {
        let memos: Vec<Arc<PositionMemo>> = {
            let inner = self.inner.lock().expect("cache poisoned");
            inner
                .cores
                .values()
                .filter_map(|slot| slot.positions.clone())
                .collect()
        };
        let (mut hits, mut misses, mut sets) = (0u64, 0u64, 0usize);
        for m in memos {
            let (h, mi) = m.stats();
            hits += h;
            misses += mi;
            sets += m.len();
        }
        (hits, misses, sets)
    }

    /// Aggregated `(hits, misses)` of the per-clause combination-count
    /// memo tier across the retained counting memos (diagnostics;
    /// surfaced by `--explain`; the conformance `clausecheck` row's
    /// vacuity check reads the clause tier's hits instead).
    pub fn combo_stats(&self) -> (u64, u64) {
        let mut hits = 0u64;
        let mut misses = 0u64;
        for m in self.counting_memos() {
            let (h, mi) = m.combo_stats();
            hits += h;
            misses += mi;
        }
        (hits, misses)
    }
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (hits, misses) = self.stats();
        f.debug_struct("ArtifactCache")
            .field("entries", &self.entries())
            .field("hits", &hits)
            .field("misses", &misses)
            .finish()
    }
}

/// The six build stages the profiler distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Gaifman distance-structure extraction from the base database: the
    /// radix-built Gaifman CSR, the near-pair store, and the connected
    /// cluster tuples — every pass that only reads edges and distances.
    Extract,
    /// Assembly of the Prop 3.3 reduced instance: canonical neighborhood
    /// types, the colored graph `G` with its `E`-edges, and the Step 5
    /// acceptance clauses. A warm [`ArtifactCache`] skips `extract` and
    /// the query-independent bulk of `reduce` together (the cached
    /// [`crate::reduction`] core spans both stages).
    Reduce,
    /// Lemma 3.5 counting (the subset-lattice inclusion–exclusion).
    IeCount,
    /// The `E_k` semi-naive fixpoint of eager enumeration levels.
    Fixpoint,
    /// Eager skip-table generation.
    SkipTables,
    /// Optional post-build warm-up: prefaulting the enumeration plans and
    /// probing the first answer, so first-answer setup is charged to
    /// preprocessing instead of the first delay sample (see
    /// `EngineConfig::warm_up`). Zero unless warm-up was requested.
    WarmUp,
}

/// All stages, in pipeline order (`BuildProfile` indexes follow it).
pub const STAGES: [Stage; 6] = [
    Stage::Extract,
    Stage::Reduce,
    Stage::IeCount,
    Stage::Fixpoint,
    Stage::SkipTables,
    Stage::WarmUp,
];

impl Stage {
    fn index(self) -> usize {
        match self {
            Stage::Extract => 0,
            Stage::Reduce => 1,
            Stage::IeCount => 2,
            Stage::Fixpoint => 3,
            Stage::SkipTables => 4,
            Stage::WarmUp => 5,
        }
    }

    /// Stable kebab-case label (report keys, `--explain` output).
    pub fn label(self) -> &'static str {
        match self {
            Stage::Extract => "extract",
            Stage::Reduce => "reduce",
            Stage::IeCount => "ie-count",
            Stage::Fixpoint => "fixpoint",
            Stage::SkipTables => "skip-tables",
            Stage::WarmUp => "warm-up",
        }
    }
}

/// Accumulates per-stage wall time during a build. `Sync`, so stages that
/// run inside the worker pool (the per-clause `fixpoint`/`skip-tables`
/// passes) can record into the same profiler; on a multi-thread pool those
/// two stages therefore report *cumulative task time*, which can exceed the
/// build's wall clock.
#[derive(Debug, Default)]
pub struct Profiler {
    nanos: [AtomicU64; 6],
}

impl Profiler {
    /// Fresh profiler with all stages at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f`, charging its wall time to `stage`.
    pub fn time<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(stage, t0.elapsed().as_nanos() as u64);
        out
    }

    /// Charge `nanos` to `stage` directly.
    pub fn add(&self, stage: Stage, nanos: u64) {
        self.nanos[stage.index()].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Freeze the current totals.
    pub fn snapshot(&self) -> BuildProfile {
        BuildProfile {
            nanos: [
                self.nanos[0].load(Ordering::Relaxed),
                self.nanos[1].load(Ordering::Relaxed),
                self.nanos[2].load(Ordering::Relaxed),
                self.nanos[3].load(Ordering::Relaxed),
                self.nanos[4].load(Ordering::Relaxed),
                self.nanos[5].load(Ordering::Relaxed),
            ],
        }
    }
}

/// Frozen per-stage build timings (see [`Profiler`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BuildProfile {
    nanos: [u64; 6],
}

impl BuildProfile {
    /// Nanoseconds charged to `stage`.
    pub fn nanos(&self, stage: Stage) -> u64 {
        self.nanos[stage.index()]
    }

    /// Milliseconds charged to `stage`.
    pub fn millis(&self, stage: Stage) -> f64 {
        self.nanos(stage) as f64 / 1e6
    }

    /// Total across all stages, in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }
}

impl std::fmt::Display for BuildProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, stage) in STAGES.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {:.1}ms", stage.label(), self.millis(*stage))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdeg_gen::{ColoredGraphSpec, DegreeClass};

    fn sample(seed: u64) -> Structure {
        ColoredGraphSpec::balanced(24, DegreeClass::Bounded(3)).generate(seed)
    }

    /// A warm build over a second instance with equal content hits the
    /// core by fingerprint and never builds that instance's Gaifman graph;
    /// `prime_gaifman` builds an instance's own graph and probes nothing.
    #[test]
    fn warm_core_hit_skips_the_gaifman_build() {
        use crate::reduction::{Reduction, DEFAULT_COMBINATION_BUDGET};
        let cache = ArtifactCache::new();
        let par = lowdeg_par::ParConfig::serial();
        let build = |s: &Structure| {
            let q = lowdeg_logic::parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
            Reduction::build_keyed(
                s,
                &q,
                eps(),
                DEFAULT_COMBINATION_BUDGET,
                &par,
                Some(&cache),
                &Profiler::new(),
                None,
            )
            .unwrap()
            .core_digest()
        };
        let a = sample(1);
        let cold = build(&a);
        assert!(a.gaifman_built(), "a core miss builds the graph");
        assert_eq!(cache.stats(), (0, 1));
        let b = sample(1);
        assert_eq!(build(&b), cold);
        assert_eq!(cache.stats(), (1, 1), "equal content hits the core");
        assert!(!b.gaifman_built(), "a core hit never builds the graph");
        cache.prime_gaifman(&b, &par);
        assert!(b.gaifman_built());
        assert_eq!(b.degree(), a.degree());
        assert_eq!(cache.stats(), (1, 1), "priming probes nothing");
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn reduction_core_builds_once_per_key() {
        let cache = ArtifactCache::new();
        let par = lowdeg_par::ParConfig::serial();
        let s = sample(1);
        let mut builds = 0;
        let mut get = |k: usize| {
            cache.reduction_core(s.fingerprint(), 0, k, Epsilon::new(0.5), || {
                builds += 1;
                crate::reduction::build_core(&s, 0, k, Epsilon::new(0.5), &par, &Profiler::new())
            })
        };
        let a = get(1);
        let b = get(1);
        assert!(Arc::ptr_eq(&a, &b), "same key returns the same core");
        let _wider = get(2);
        assert_eq!(builds, 2, "one build per distinct key");
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    fn lru_capacity_evicts_oldest_core() {
        let cache = ArtifactCache::with_capacity(1);
        assert_eq!(cache.capacity(), 1);
        let par = lowdeg_par::ParConfig::serial();
        let s = sample(1);
        let build = |k: usize| {
            crate::reduction::build_core(&s, 0, k, Epsilon::new(0.5), &par, &Profiler::new())
        };
        cache.reduction_core(s.fingerprint(), 0, 1, Epsilon::new(0.5), || build(1));
        let memo1 = cache.counting_memo(s.fingerprint(), 0, 1, Epsilon::new(0.5));
        assert_eq!(cache.evictions(), 0);
        // a second key over capacity evicts the k=1 core and its memo
        cache.reduction_core(s.fingerprint(), 0, 2, Epsilon::new(0.5), || build(2));
        assert_eq!(cache.evictions(), 1);
        // the k=1 core is gone: asking again rebuilds (a miss), and its
        // memo slot is fresh (the old Arc is no longer the cached one)
        let mut rebuilt = false;
        cache.reduction_core(s.fingerprint(), 0, 1, Epsilon::new(0.5), || {
            rebuilt = true;
            build(1)
        });
        assert!(rebuilt, "evicted core must rebuild");
        let memo1_again = cache.counting_memo(s.fingerprint(), 0, 1, Epsilon::new(0.5));
        assert!(
            !Arc::ptr_eq(&memo1, &memo1_again),
            "eviction drops the counting memo with its core"
        );
        // zero capacity is clamped: the cache still admits one entry
        let tiny = ArtifactCache::with_capacity(0);
        assert_eq!(tiny.capacity(), 1);
    }

    #[test]
    fn counting_memo_is_shared_and_invalidated() {
        let cache = ArtifactCache::new();
        let s = sample(2);
        let a = cache.counting_memo(s.fingerprint(), 0, 2, Epsilon::new(0.5));
        let b = cache.counting_memo(s.fingerprint(), 0, 2, Epsilon::new(0.5));
        assert!(Arc::ptr_eq(&a, &b), "same key shares one memo");
        let other = cache.counting_memo(s.fingerprint(), 0, 3, Epsilon::new(0.5));
        assert!(!Arc::ptr_eq(&a, &other), "distinct keys get distinct memos");
        assert_eq!(cache.entries(), 2);
        // invalidate_counting drops memos but keeps cores
        let par = lowdeg_par::ParConfig::serial();
        cache.reduction_core(s.fingerprint(), 0, 2, Epsilon::new(0.5), || {
            crate::reduction::build_core(&s, 0, 2, Epsilon::new(0.5), &par, &Profiler::new())
        });
        assert_eq!(cache.entries(), 3);
        cache.invalidate_counting(s.fingerprint());
        assert_eq!(cache.entries(), 1, "cores survive a counting invalidation");
        let c = cache.counting_memo(s.fingerprint(), 0, 2, Epsilon::new(0.5));
        assert!(!Arc::ptr_eq(&a, &c), "invalidated memo is replaced");
        assert_eq!(cache.counting_stats(), (0, 0, 0));
    }

    #[test]
    fn invalidation_hooks_drop_entries() {
        let cache = ArtifactCache::new();
        let par = lowdeg_par::ParConfig::serial();
        let a = sample(3);
        cache.reduction_core(a.fingerprint(), 0, 1, Epsilon::new(0.5), || {
            crate::reduction::build_core(&a, 0, 1, Epsilon::new(0.5), &par, &Profiler::new())
        });
        cache.counting_memo(a.fingerprint(), 0, 1, Epsilon::new(0.5));
        assert_eq!(cache.entries(), 2);
        cache.invalidate(a.fingerprint());
        assert_eq!(cache.entries(), 0);
        cache.position_memo(a.fingerprint(), 0, 1, Epsilon::new(0.5));
        cache.clear();
        assert_eq!(cache.entries(), 0);
    }

    fn eps() -> Epsilon {
        Epsilon::new(0.5)
    }

    /// An empty acceptance set for the clause serialized as `canonical`.
    fn acceptance(canonical: &[u64]) -> ClauseAcceptance {
        ClauseAcceptance {
            canonical: canonical.into(),
            accepted: Vec::new(),
        }
    }

    /// Probe the clause tier at `(fp, 0, k)` / `clause_fp` for the clause
    /// serialized as `[clause_fp]`, inserting on a miss; `true` when the
    /// probe missed and built.
    fn clause_built(cache: &ArtifactCache, fp: u64, k: usize, clause_fp: u64) -> bool {
        let canonical = [clause_fp];
        if cache
            .clause_product_cached(fp, 0, k, eps(), clause_fp, &canonical)
            .is_some()
        {
            return false;
        }
        cache.clause_product_insert(fp, 0, k, eps(), clause_fp, acceptance(&canonical));
        true
    }

    /// Fetch the core at `(s, 0, k)`; `true` when it had to be built.
    fn core_built(cache: &ArtifactCache, s: &Structure, k: usize) -> bool {
        let mut built = false;
        cache.reduction_core(s.fingerprint(), 0, k, eps(), || {
            built = true;
            let par = lowdeg_par::ParConfig::serial();
            crate::reduction::build_core(s, 0, k, eps(), &par, &Profiler::new())
        });
        built
    }

    #[test]
    fn lru_hit_refreshes_recency() {
        let cache = ArtifactCache::with_capacity(2);
        assert!(clause_built(&cache, 1, 1, 10));
        assert!(clause_built(&cache, 1, 1, 20));
        // the hit makes 10 the most recent entry, so 20 is the victim
        assert!(!clause_built(&cache, 1, 1, 10));
        assert!(clause_built(&cache, 1, 1, 30));
        assert_eq!(cache.clause_stats().2, 1);
        assert!(!clause_built(&cache, 1, 1, 10), "refreshed entry survives");
        assert!(!clause_built(&cache, 1, 1, 30));
        assert!(clause_built(&cache, 1, 1, 20), "least recent entry evicted");
    }

    #[test]
    fn lru_over_capacity_inserts_evict_least_recent() {
        let cache = ArtifactCache::with_capacity(1);
        assert!(clause_built(&cache, 1, 1, 10));
        assert!(clause_built(&cache, 1, 1, 20));
        assert_eq!(cache.clause_stats().2, 1);
        assert!(!clause_built(&cache, 1, 1, 20), "newest entry kept");
        assert!(clause_built(&cache, 1, 1, 10), "oldest entry evicted");
        // the clause tier keeps its own eviction counter
        assert_eq!(cache.clause_stats().2, 2);
        assert_eq!(cache.evictions(), 0, "clause evictions count apart");
        let s = sample(8);
        assert!(core_built(&cache, &s, 1));
        assert!(core_built(&cache, &s, 2));
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.clause_stats().2, 2);
    }

    /// The clause tier verifies a hit against the stored serialization: a
    /// second clause under the same fingerprint misses, rebuilds and
    /// replaces the entry, and neither clause ever reads the other's set.
    #[test]
    fn clause_fingerprint_collision_is_a_miss() {
        let cache = ArtifactCache::new();
        let (first, second): (&[u64], &[u64]) = (&[1, 7, 7], &[1, 7, 8]);
        let set = |canonical: &[u64], rank: u64| ClauseAcceptance {
            canonical: canonical.into(),
            accepted: vec![(0, rank)],
        };
        let probe = |canonical: &[u64]| cache.clause_product_cached(1, 0, 1, eps(), 42, canonical);
        assert!(probe(first).is_none());
        cache.clause_product_insert(1, 0, 1, eps(), 42, set(first, 3));
        assert_eq!(probe(first).expect("verified hit").accepted, [(0, 3)]);
        assert!(probe(second).is_none(), "a colliding clause must miss");
        cache.clause_product_insert(1, 0, 1, eps(), 42, set(second, 5));
        assert_eq!(probe(second).expect("rebuilt entry").accepted, [(0, 5)]);
        assert!(probe(first).is_none(), "the replaced clause misses too");
        assert_eq!(cache.clause_stats(), (2, 3, 0));
        assert_eq!(cache.entries(), 1, "one slot per fingerprint");
    }

    #[test]
    fn core_eviction_cascades_to_derived_entries() {
        let cache = ArtifactCache::with_capacity(1);
        let s = sample(4);
        let fp = s.fingerprint();
        assert!(core_built(&cache, &s, 1));
        let memo = cache.counting_memo(fp, 0, 1, eps());
        let positions = cache.position_memo(fp, 0, 1, eps());
        assert!(clause_built(&cache, fp, 1, 100));
        assert_eq!(cache.evictions(), 0);
        // a second core over capacity evicts the first and everything
        // derived from it, as ONE eviction
        assert!(core_built(&cache, &s, 2));
        assert_eq!(cache.evictions(), 1);
        assert_eq!(
            cache.clause_stats().2,
            0,
            "cascaded drops are not clause evictions"
        );
        assert!(clause_built(&cache, fp, 1, 100), "clause entry dropped");
        assert!(!Arc::ptr_eq(&memo, &cache.counting_memo(fp, 0, 1, eps())));
        assert!(!Arc::ptr_eq(
            &positions,
            &cache.position_memo(fp, 0, 1, eps())
        ));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn invalidate_leaves_other_fingerprints_untouched() {
        let cache = ArtifactCache::new();
        let (a, b) = (sample(5), sample(6));
        let mut memos = Vec::new();
        for s in [&a, &b] {
            let fp = s.fingerprint();
            assert!(core_built(&cache, s, 1));
            memos.push((
                cache.counting_memo(fp, 0, 1, eps()),
                cache.position_memo(fp, 0, 1, eps()),
            ));
            assert!(clause_built(&cache, fp, 1, 100));
        }
        cache.invalidate(a.fingerprint());
        let fp = b.fingerprint();
        assert!(!core_built(&cache, &b, 1), "b's core survives");
        assert!(!clause_built(&cache, fp, 1, 100));
        assert!(Arc::ptr_eq(
            &memos[1].0,
            &cache.counting_memo(fp, 0, 1, eps())
        ));
        assert!(Arc::ptr_eq(
            &memos[1].1,
            &cache.position_memo(fp, 0, 1, eps())
        ));
        // and a's entries are gone
        let fa = a.fingerprint();
        assert!(clause_built(&cache, fa, 1, 100));
        assert!(core_built(&cache, &a, 1));
    }

    #[test]
    fn entries_counts_every_tier() {
        let cache = ArtifactCache::new();
        let s = sample(7);
        let fp = s.fingerprint();
        cache.position_memo(fp, 0, 1, eps());
        assert_eq!(cache.entries(), 1, "a position memo is a live entry");
        cache.prime_gaifman(&s, &lowdeg_par::ParConfig::serial());
        assert_eq!(cache.entries(), 1, "a primed Gaifman graph is no entry");
        core_built(&cache, &s, 1);
        cache.counting_memo(fp, 0, 1, eps());
        clause_built(&cache, fp, 1, 100);
        assert_eq!(cache.entries(), 4, "one entry of each of the four kinds");
    }

    #[test]
    fn profiler_accumulates_per_stage() {
        let p = Profiler::new();
        let x = p.time(Stage::Extract, || 21 * 2);
        assert_eq!(x, 42);
        p.add(Stage::Fixpoint, 1_500_000);
        p.add(Stage::Fixpoint, 500_000);
        let snap = p.snapshot();
        assert_eq!(snap.nanos(Stage::Fixpoint), 2_000_000);
        assert!((snap.millis(Stage::Fixpoint) - 2.0).abs() < 1e-9);
        assert_eq!(snap.nanos(Stage::Reduce), 0);
        assert!(snap.total_nanos() >= 2_000_000);
        let shown = snap.to_string();
        assert!(shown.contains("fixpoint 2.0ms"), "{shown}");
        assert!(shown.contains("extract"));
    }
}
