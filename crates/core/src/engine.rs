//! The public façade tying the pipeline together.

use crate::artifacts::{ArtifactCache, BuildProfile, Profiler, Stage};
use crate::counting::count_graph_query;
use crate::enumerate::{Enumerator, SkipLimits, SkipMode, VertexStream};
use crate::reduction::{Reduction, DEFAULT_COMBINATION_BUDGET};
use crate::testing::TestIndex;
use crate::EngineError;
use lowdeg_index::Epsilon;
use lowdeg_logic::{normalize, Query};
use lowdeg_par::{par_map, ParConfig};
use lowdeg_storage::{Node, Structure};
use std::collections::{BTreeMap, HashMap};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Phase-2 prebuild buckets of the workload planner: `(radius, k)` core
/// key → (total modeled cost for the largest-first ordering, group index
/// → clause indices to prebuild under that core).
type ClauseBuckets = BTreeMap<(usize, usize), (u64, BTreeMap<usize, Vec<usize>>)>;

/// Build-time configuration beyond the structure/query pair, consumed by
/// [`Engine::build_configured`] and [`Engine::build_workload`].
///
/// [`Engine::build`] covers the common case (the default configuration at
/// a given ε); `EngineConfig` is the explicit form — the way to pick a
/// [`SkipMode`] (the E10 ablation), request the post-build warm-up, or
/// switch off normalization or clause sharing. The eager-machinery cost
/// gates are the compiled-in [`crate::enumerate::EK_COST_LIMIT`] and
/// [`crate::enumerate::EAGER_SKIP_LIMIT`]; [`Engine::skip_limits`] reports
/// them.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// How the `skip` function is materialized (see [`SkipMode`]).
    pub skip_mode: SkipMode,
    /// The ε of the Storing Theorem tries.
    pub eps: Epsilon,
    /// Run the post-build warm-up: prefault the enumeration plans and probe
    /// the first answer, charging both to the `warm-up` build stage instead
    /// of the first delay sample of the real enumeration.
    pub warm_up: bool,
    /// Run the query-rewrite normalization pass
    /// ([`lowdeg_logic::normalize()`]) before building, so syntactic rewrite
    /// variants of one query share cached Step 5 acceptance products and
    /// whole-query counts, and [`Engine::build_workload`] can group them
    /// onto one shared engine. On by default; the built engine is
    /// observably equivalent either way (the conformance `normcheck`
    /// oracle enforces it), but clause/answer *order* follows the
    /// canonical form when enabled. When the normalized syntax fails to
    /// localize, the build transparently falls back to the original query.
    pub normalize: bool,
    /// Build Step 5 acceptance and inclusion–exclusion counts at *clause*
    /// granularity: each clause of the canonical normal form gets its own
    /// fingerprint-keyed acceptance set in the [`ArtifactCache`] and its
    /// own signed count in the per-core counting memo, so any two queries
    /// sharing a clause — across a workload batch or across warm builds —
    /// share that clause's work. Requires `normalize` (clause fingerprints
    /// are properties of the canonical form); inert without a cache. Off
    /// reproduces the whole-query-granular build exactly (the conformance
    /// `clausecheck` oracle enforces that both settings are bit-identical).
    pub clause_sharing: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            skip_mode: SkipMode::Eager,
            eps: Epsilon::default_eps(),
            warm_up: false,
            normalize: true,
            clause_sharing: true,
        }
    }
}

/// What the query-rewrite normalization pass decided for one build
/// (surfaced by `explain`; `None` on the engine when the pass was
/// disabled via [`EngineConfig::normalize`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NormalizationInfo {
    /// The canonical fingerprint of the normal form — the per-query part
    /// of the Step 5 acceptance and whole-query-count cache keys, shared
    /// by every rewrite variant of the query.
    pub fingerprint: u64,
    /// Stable names of the rewrite passes that changed the query
    /// (empty when the input was already canonical).
    pub rewrites: Vec<&'static str>,
    /// The normalized syntax failed to localize and the engine was built
    /// from the original query instead (without the fingerprinted Step 5
    /// cache key — normalization can perturb *syntactic* localizability).
    pub fallback: bool,
}

/// Sharing statistics from one [`Engine::build_workload`] batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Queries in the workload.
    pub queries: usize,
    /// Engines actually built — one per distinct quantifier-free core
    /// (normal-form fingerprint), plus one per localize-fallback query.
    pub distinct_cores: usize,
    /// Distinct canonical clause fingerprints across the batch's normal
    /// forms — the unit of Step 5 sharing. Less than the total clause
    /// count whenever queries overlap partially. Zero with
    /// [`EngineConfig::normalize`] off (no canonical clauses exist).
    pub distinct_clauses: usize,
    /// Clause-tier cache hits recorded over the whole batch (planner
    /// prebuilds plus per-query assemblies) — how often a clause's Step 5
    /// acceptance set was stitched from the cache instead of rebuilt.
    pub clause_cache_hits: u64,
}

/// A fully preprocessed query over a fixed database: constant-time
/// [`Engine::test`], pseudo-linear [`Engine::count`], constant-delay
/// [`Engine::enumerate`].
///
/// Building the engine runs the Proposition 3.3 reduction (pseudo-linear
/// for low-degree classes); sentences short-circuit through the Theorem 2.4
/// model checker.
#[derive(Debug)]
pub struct Engine {
    arity: usize,
    kind: EngineKind,
    /// Per-stage build timings (all zero for sentences).
    profile: BuildProfile,
    /// The effective eager-machinery cost gates the build ran under
    /// (surfaced by `explain`).
    skip_limits: SkipLimits,
    /// What the normalization pass did (`None` when disabled).
    normalization: Option<NormalizationInfo>,
}

#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one engine per query: boxing buys nothing
enum EngineKind {
    /// Arity-0 queries: the truth value is the whole story.
    Sentence { truth: bool },
    /// Arity ≥ 1: the reduced pipeline.
    Reduced {
        test: TestIndex,
        enumerator: Enumerator,
        count: u64,
    },
}

impl Engine {
    /// Preprocess `query` over `structure` with the default
    /// [`EngineConfig`] at the given ε, no artifact cache, and the thread
    /// count from `LOWDEG_THREADS`.
    pub fn build(structure: &Structure, query: &Query, eps: Epsilon) -> Result<Self, EngineError> {
        let config = EngineConfig {
            eps,
            ..EngineConfig::default()
        };
        Self::build_configured(structure, query, &config, &ParConfig::from_env(), None)
    }

    /// Preprocess `query` over `structure` as `config` says, on the worker
    /// pool `par`, optionally fed by a cross-build [`ArtifactCache`].
    ///
    /// The *build* phase parallelizes (reduction, counting, skip-table
    /// construction) and the built engine is identical for every thread
    /// count. [`Engine::enumerate`] / [`Engine::for_each_answer`] /
    /// [`Engine::test`] stay single-threaded — the constant-delay and
    /// constant-time guarantees are per-operation RAM bounds that threads
    /// cannot (and must not) change; the sharded
    /// [`Engine::par_for_each_answer`] trades the delay guarantee for
    /// throughput while keeping the exact same answer order.
    ///
    /// A warm cache skips the *extract* stage of the reduction — the whole
    /// query-independent [`crate::ReductionCore`] (Gaifman graph,
    /// near-pair store, cluster tuples, type interning, colored graph) —
    /// and the engine is bit-identical to a cold build; the conformance
    /// `cachecheck` oracle enforces this. Per-stage timings are recorded in
    /// [`Engine::profile`].
    ///
    /// With normalization on (the default), the engine is built from the
    /// query's canonical normal form: the Step 5 acceptance product and
    /// the whole-query count are then cached under the normal form's
    /// fingerprint, so rebuilding any rewrite variant of the query against
    /// a warm cache skips both. Answer tuples align positionally with the
    /// original query (free variables canonicalize in answer-column
    /// order). Should the canonical syntax fail to localize, the build
    /// silently retries the original query uncached.
    pub fn build_configured(
        structure: &Structure,
        query: &Query,
        config: &EngineConfig,
        par: &ParConfig,
        cache: Option<&ArtifactCache>,
    ) -> Result<Self, EngineError> {
        Self::build_limited(structure, query, config, SkipLimits::default(), par, cache)
    }

    /// [`Engine::build_configured`] under explicit eager-machinery cost
    /// gates (tests use tiny limits to force every eager level to
    /// degrade).
    pub(crate) fn build_limited(
        structure: &Structure,
        query: &Query,
        config: &EngineConfig,
        limits: SkipLimits,
        par: &ParConfig,
        cache: Option<&ArtifactCache>,
    ) -> Result<Self, EngineError> {
        let raw = |query: &Query, query_fp: Option<u64>, clause_fps: Option<&[u64]>| {
            Self::build_raw(
                structure, query, config, limits, par, cache, query_fp, clause_fps,
            )
        };
        if !config.normalize {
            return raw(query, None, None);
        }
        let nf = normalize(query);
        let info = NormalizationInfo {
            fingerprint: nf.fingerprint,
            rewrites: nf.rewrite_names(),
            fallback: false,
        };
        // Clause fingerprints are properties of the canonical form, so
        // clause-granular sharing only applies on the canonical path.
        let clause_fps: Vec<u64> = if config.clause_sharing {
            nf.clauses.iter().map(|c| c.fingerprint).collect()
        } else {
            Vec::new()
        };
        match raw(
            &nf.query,
            Some(nf.fingerprint),
            config.clause_sharing.then_some(clause_fps.as_slice()),
        ) {
            Ok(mut engine) => {
                engine.normalization = Some(info);
                Ok(engine)
            }
            // Localizability is decided on syntax; a rewrite that merges or
            // reorders conjuncts can push a query off the syntactic
            // fragment the localizer accepts even though the original
            // parses through it. The original query is the user's contract
            // — build it directly, without the fingerprinted cache key.
            Err(EngineError::Localize(_)) if !nf.is_trivial() => {
                let mut engine = raw(query, None, None)?;
                engine.normalization = Some(NormalizationInfo {
                    fallback: true,
                    ..info
                });
                Ok(engine)
            }
            Err(e) => Err(e),
        }
    }

    /// The normalization-free inner build. `query_fp` is the normal form's
    /// fingerprint when `query` *is* a canonical normal form (it keys the
    /// Step 5 product and whole-query-count caches); `None` builds the
    /// query as written with per-core caching only. `clause_fps` carries
    /// the canonical per-clause fingerprints when clause-granular sharing
    /// is on — the reduction then stitches its Step 5 product from
    /// clause-keyed cache entries and the count sums clause-memoized
    /// combination counts, both bit-identical to the monolithic passes.
    #[allow(clippy::too_many_arguments)]
    fn build_raw(
        structure: &Structure,
        query: &Query,
        config: &EngineConfig,
        limits: SkipLimits,
        par: &ParConfig,
        cache: Option<&ArtifactCache>,
        query_fp: Option<u64>,
        clause_fps: Option<&[u64]>,
    ) -> Result<Self, EngineError> {
        let eps = config.eps;
        let mode = config.skip_mode;
        let arity = query.arity();
        if arity == 0 {
            let truth = lowdeg_locality::model_check(structure, query)?;
            return Ok(Engine {
                arity,
                kind: EngineKind::Sentence { truth },
                profile: BuildProfile::default(),
                skip_limits: limits,
                normalization: None,
            });
        }
        let profiler = Profiler::new();
        let reduction = Reduction::build_keyed(
            structure,
            query,
            eps,
            DEFAULT_COMBINATION_BUDGET,
            par,
            cache,
            &profiler,
            query_fp,
            clause_fps,
        )?;
        // The E-adjacency CSR is part of the reduction core (and so of the
        // cached extract product): counting, enumeration and the test
        // paths all share the one copy behind its `Arc`.
        let adjacency = reduction.adjacency().clone();
        // With a cache, the ie-count stage drains into the per-core
        // counting memo: components counted by any earlier build against
        // the same core (this query or another) are probe hits. The count
        // is bit-identical either way — memo entries are exact.
        let memo = cache.map(|c| {
            c.counting_memo(
                structure.fingerprint(),
                reduction.radius(),
                reduction.arity(),
                eps,
            )
        });
        // Declare the C_ι colors so component signatures can erase the
        // injection identities — that is what makes signatures match
        // across queries that permute which position carries which color.
        if let Some(m) = &memo {
            m.set_iota_sizes(reduction.iota_color_sizes());
        }
        // A fingerprinted build against a warm memo can skip the
        // inclusion–exclusion walk outright: the whole-query count was
        // published by the first build of any query in this rewrite class.
        let memoized = match (&memo, query_fp) {
            (Some(m), Some(fp)) => m.query_count(fp),
            _ => None,
        };
        let count = memoized.unwrap_or_else(|| {
            // Clause-granular counting: each graph clause realizes one
            // (partition, types) combination, so clause answer sets are
            // disjoint and the query count is the sum of per-clause counts
            // — memoized under the clause's packed signature so queries
            // sharing a combination share its signed count.
            let signatures = config.clause_sharing.then(|| reduction.clause_signatures());
            let c = profiler.time(Stage::IeCount, || {
                count_graph_query(
                    reduction.graph(),
                    reduction.query(),
                    &adjacency,
                    par,
                    memo.as_deref(),
                    signatures,
                )
                .expect("reduced clauses are well-formed generalized conjunctions")
            });
            if let (Some(m), Some(fp)) = (&memo, query_fp) {
                m.record_query_count(fp, c);
            }
            c
        });
        // Position candidate lists are per-core artifacts: route the
        // enumerator build through the cache-held memo so engines sharing
        // a core share the intersection scans.
        let positions = cache.map(|c| {
            c.position_memo(
                structure.fingerprint(),
                reduction.radius(),
                reduction.arity(),
                eps,
            )
        });
        let enumerator = Enumerator::build(
            reduction.graph(),
            reduction.query(),
            adjacency,
            mode,
            eps,
            limits,
            par,
            &profiler,
            positions.as_deref(),
        );
        if config.warm_up {
            enumerator.warm_up(&profiler);
        }
        let test = TestIndex::from_reduction(reduction, eps);
        Ok(Engine {
            arity,
            kind: EngineKind::Reduced {
                test,
                enumerator,
                count,
            },
            profile: profiler.snapshot(),
            skip_limits: limits,
            normalization: None,
        })
    }

    /// The workload planner: batch-build engines for `queries`, grouping
    /// the batch by shared quantifier-free cores. Queries whose normal
    /// forms agree (same [`NormalizationInfo::fingerprint`]) are rewrite
    /// variants of one canonical query — color permutations, shuffled
    /// conjuncts, renamed bound variables — and answer tuples of the
    /// canonical form align positionally with *every* member's original
    /// syntax, so the group shares **one** engine: its Step 5 acceptance,
    /// count, and enumeration plans are built exactly once. Counts, answer
    /// order, and membership tests are bit-identical to what
    /// [`Engine::build_configured`] would produce per query.
    ///
    /// With [`EngineConfig::normalize`] off — or for queries that fall
    /// back to their original syntax (localize failure) — no grouping
    /// happens and every query gets its own engine.
    ///
    /// Returns one `Arc<Engine>` per query, in query order (group members
    /// alias the same engine), plus the sharing statistics. Queries build
    /// in order; the first error aborts the batch.
    ///
    /// With [`EngineConfig::clause_sharing`] on (the default) the batch
    /// runs through a two-phase planner. **Phase 1** decomposes the batch:
    /// every query normalizes once, rewrite variants group by canonical
    /// fingerprint, and the distinct canonical *clauses* are collected
    /// with their cross-group sharing structure. **Phase 2** schedules
    /// the shared clauses (those appearing in ≥ 2 distinct groups) by a
    /// cost model — the core's partition × type combination total
    /// weighted by the clause matrix size — and pre-builds each exactly
    /// once, largest-first, into the cache's clause tier on the worker
    /// pool. The per-query assemblies then stitch the cached clause
    /// artifacts instead of re-running the overlapping Step 5 work, and
    /// their counts sum clause-memoized combination counts. Every engine
    /// stays bit-identical to its solo [`Engine::build_configured`] build.
    pub fn build_workload(
        structure: &Structure,
        queries: &[&Query],
        config: &EngineConfig,
        par: &ParConfig,
        cache: &ArtifactCache,
    ) -> Result<(Vec<Arc<Self>>, WorkloadStats), EngineError> {
        use std::collections::BTreeSet;
        let clause_hits_before = cache.clause_stats().0;

        // --- Phase 1: decompose the batch. Normalize every query once,
        // group rewrite variants by canonical fingerprint (first
        // occurrence is the group's representative), and collect the
        // distinct-clause set with its cross-group multiplicities.
        let nfs: Vec<Option<lowdeg_logic::NormalForm>> = queries
            .iter()
            .map(|q| config.normalize.then(|| normalize(q)))
            .collect();
        let mut group_of: HashMap<u64, usize> = HashMap::new();
        let mut groups: Vec<usize> = Vec::new(); // representative query index
        for (i, nf) in nfs.iter().enumerate() {
            if let Some(nf) = nf {
                group_of.entry(nf.fingerprint).or_insert_with(|| {
                    groups.push(i);
                    groups.len() - 1
                });
            }
        }
        let per_group_fps: Vec<Vec<u64>> = groups
            .iter()
            .map(|&rep| {
                let nf = nfs[rep]
                    .as_ref()
                    .expect("groups only form when normalizing");
                nf.clauses.iter().map(|c| c.fingerprint).collect()
            })
            .collect();
        let mut multiplicity: HashMap<u64, usize> = HashMap::new();
        let mut distinct_clause_set: BTreeSet<u64> = BTreeSet::new();
        for fps in &per_group_fps {
            for fp in fps.iter().copied().collect::<BTreeSet<u64>>() {
                *multiplicity.entry(fp).or_insert(0) += 1;
                distinct_clause_set.insert(fp);
            }
        }
        let distinct_clauses = distinct_clause_set.len();

        // --- Phase 2: cost-driven prebuild of the shared clauses. Probe
        // each group's modeled per-clause cost through the cached cores,
        // bucket every clause shared by ≥ 2 groups under its `(radius, k)`
        // core key, and issue ONE batched acceptance scan per bucket —
        // every combination is visited once and all of the bucket's
        // clause matrices evaluate against its union view. Buckets run
        // costliest-total first, so the most expensive shared acceptance
        // artifacts land in the clause tier before any per-query assembly
        // could rebuild them, and a capacity-bounded cache evicts the
        // cheap ones first.
        if config.normalize && config.clause_sharing {
            // (radius, k) → per-group clause indices to prebuild, plus the
            // bucket's total modeled cost for the largest-first ordering.
            let mut buckets: ClauseBuckets = BTreeMap::new();
            let mut planned: BTreeSet<u64> = BTreeSet::new();
            for (gi, &rep) in groups.iter().enumerate() {
                let nf = nfs[rep].as_ref().expect("normalized group");
                let fps = &per_group_fps[gi];
                let Some(plan) =
                    Reduction::clause_plan(structure, &nf.query, config.eps, par, cache, fps.len())
                else {
                    // Doesn't localize (or misaligns): the per-query build
                    // below reports or absorbs it; nothing to share here.
                    continue;
                };
                for (ci, (&fp, &cost)) in fps.iter().zip(&plan.costs).enumerate() {
                    if multiplicity.get(&fp).copied().unwrap_or(0) >= 2 && planned.insert(fp) {
                        let bucket = buckets
                            .entry((plan.radius, plan.k))
                            .or_insert_with(|| (0, BTreeMap::new()));
                        bucket.0 = bucket.0.saturating_add(cost);
                        bucket.1.entry(gi).or_default().push(ci);
                    }
                }
            }
            let mut ordered: Vec<_> = buckets.into_iter().collect();
            ordered.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(&b.0)));
            for (key, (_, by_group)) in ordered {
                let jobs: Vec<(&lowdeg_logic::Query, &[u64], Vec<usize>)> = by_group
                    .into_iter()
                    .map(|(gi, indices)| {
                        let nf = nfs[groups[gi]].as_ref().expect("normalized group");
                        (&nf.query, per_group_fps[gi].as_slice(), indices)
                    })
                    .collect();
                // A failing prebuild (budget, localization) is not the
                // planner's to report — the per-query build surfaces it
                // with its query attached.
                let _ = Reduction::prebuild_clause_batch(
                    structure,
                    config.eps,
                    DEFAULT_COMBINATION_BUDGET,
                    par,
                    cache,
                    key,
                    &jobs,
                );
            }
        }

        // --- Per-query assembly: build each distinct group once (clause
        // artifacts and combination counts now stitch from the cache),
        // alias group members onto the shared engine.
        let mut shared: HashMap<u64, Arc<Engine>> = HashMap::new();
        let mut engines: Vec<Arc<Engine>> = Vec::with_capacity(queries.len());
        let mut distinct = 0usize;
        for (query, nf) in queries.iter().zip(&nfs) {
            if let Some(nf) = nf {
                if let Some(engine) = shared.get(&nf.fingerprint) {
                    engines.push(Arc::clone(engine));
                    continue;
                }
                let engine = Arc::new(Self::build_configured(
                    structure,
                    query,
                    config,
                    par,
                    Some(cache),
                )?);
                distinct += 1;
                // A fallback engine was built from *this* query's original
                // syntax; another variant's enumeration order could
                // legitimately differ, so it is not shared with the group.
                let sharable = engine
                    .normalization
                    .as_ref()
                    .is_some_and(|info| !info.fallback);
                if sharable {
                    shared.insert(nf.fingerprint, Arc::clone(&engine));
                }
                engines.push(engine);
            } else {
                let engine = Self::build_configured(structure, query, config, par, Some(cache))?;
                distinct += 1;
                engines.push(Arc::new(engine));
            }
        }
        Ok((
            engines,
            WorkloadStats {
                queries: queries.len(),
                distinct_cores: distinct,
                distinct_clauses,
                clause_cache_hits: cache.clause_stats().0.saturating_sub(clause_hits_before),
            },
        ))
    }

    /// What the query-rewrite normalization pass did for this build
    /// (`None` when the pass was disabled, or for engines predating it).
    pub fn normalization(&self) -> Option<&NormalizationInfo> {
        self.normalization.as_ref()
    }

    /// Per-stage build timings (`extract → reduce → ie-count → fixpoint →
    /// skip-tables → warm-up`). On a multi-thread pool the fixpoint /
    /// skip-table stages report cumulative task time, not wall time.
    pub fn profile(&self) -> &BuildProfile {
        &self.profile
    }

    /// Theorem 2.4: model-check a sentence without building any index.
    ///
    /// Primary route: the localization pass (closed parts decided by the
    /// scattered-sentence checker). Fallback: when the sentence is
    /// `∃x̄ body` and the scattered checker rejects its cross-constraints
    /// (e.g. a negated *ternary* atom between clusters), but `body` itself
    /// is a localizable `x̄`-ary query, the sentence is decided by building
    /// the body's reduction and asking for non-emptiness — pseudo-linear
    /// through Theorem 2.5's machinery instead.
    pub fn model_check(structure: &Structure, query: &Query) -> Result<bool, EngineError> {
        match lowdeg_locality::model_check(structure, query) {
            Ok(v) => Ok(v),
            Err(primary_err) => {
                if let lowdeg_logic::Formula::Exists(vs, body) = &query.formula {
                    let free = body.free_vars();
                    let all_quantified = free.iter().all(|v| vs.contains(v)) && !free.is_empty();
                    if all_quantified {
                        let inner = Query::new(
                            query.signature.clone(),
                            free,
                            (**body).clone(),
                            query.vars.clone(),
                        );
                        if let Ok(inner) = inner {
                            if let Ok(reduction) = Reduction::build(
                                structure,
                                &inner,
                                Epsilon::default_eps(),
                                &ParConfig::from_env(),
                            ) {
                                let count = count_graph_query(
                                    reduction.graph(),
                                    reduction.query(),
                                    reduction.adjacency(),
                                    &ParConfig::serial(),
                                    None,
                                    None,
                                )
                                .expect("reduced clauses are well-formed");
                                return Ok(count > 0);
                            }
                        }
                    }
                }
                Err(primary_err.into())
            }
        }
    }

    /// The query's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Theorem 2.5: `|φ(A)|` (precomputed during build; the count itself is
    /// a pseudo-linear pass over the colored graph).
    pub fn count(&self) -> u64 {
        match &self.kind {
            EngineKind::Sentence { truth } => *truth as u64,
            EngineKind::Reduced { count, .. } => *count,
        }
    }

    /// Theorem 2.6: constant-time membership test.
    pub fn test(&self, tuple: &[Node]) -> bool {
        match &self.kind {
            EngineKind::Sentence { truth } => tuple.is_empty() && *truth,
            EngineKind::Reduced { test, .. } => test.test(tuple).unwrap_or(false),
        }
    }

    /// The streaming cursor over `φ(A)` — the zero-allocation core every
    /// enumeration consumer is layered on. Each `advance` overwrites one
    /// reused answer buffer; nothing is heap-allocated per answer (see
    /// [`AnswerStream`]).
    pub fn answers(&self) -> AnswerStream<'_> {
        let kind = match &self.kind {
            EngineKind::Sentence { truth } => StreamKind::Sentence {
                truth: *truth,
                emitted: false,
            },
            EngineKind::Reduced {
                test, enumerator, ..
            } => StreamKind::Reduced {
                stream: enumerator.stream(),
                reduction: test.reduction(),
            },
        };
        AnswerStream {
            kind,
            answer: Vec::with_capacity(self.arity),
            delay: 0,
        }
    }

    /// Theorem 2.7, visitor form: drive the streaming cursor through every
    /// answer, passing each as a borrowed slice into `f`. Return
    /// [`ControlFlow::Break`] to stop early. The whole traversal reuses one
    /// tuple buffer — no per-answer allocation.
    pub fn for_each_answer(&self, mut f: impl FnMut(&[Node]) -> ControlFlow<()>) {
        let mut s = self.answers();
        while s.advance() {
            if f(s.answer()).is_break() {
                return;
            }
        }
    }

    /// As [`Engine::for_each_answer`], also passing the RAM-operation delay
    /// since the previous answer (the quantity Theorem 2.7 bounds by a
    /// constant).
    pub fn for_each_answer_with_ops(&self, mut f: impl FnMut(&[Node], u64) -> ControlFlow<()>) {
        let mut s = self.answers();
        while s.advance() {
            if f(s.answer(), s.last_delay()).is_break() {
                return;
            }
        }
    }

    /// Shard the answer space into contiguous tasks `(clause, lo, hi)` over
    /// each clause's outermost candidate list. Task order (clause-major,
    /// ascending slices) is the serial enumeration order, so draining task
    /// results in this order reproduces it exactly.
    fn shard_tasks(enumerator: &Enumerator, parts_per_clause: usize) -> Vec<(usize, usize, usize)> {
        let mut tasks = Vec::new();
        for (ci, plan) in enumerator.plans().iter().enumerate() {
            let top = plan.top_len();
            if top == 0 {
                continue; // empty outer list: the clause has no answers
            }
            let part_len = top.div_ceil(parts_per_clause.max(1)).max(1);
            let mut lo = 0;
            while lo < top {
                tasks.push((ci, lo, (lo + part_len).min(top)));
                lo += part_len;
            }
        }
        tasks
    }

    /// Theorem 2.7, sharded: drive every answer through `f` in **exactly
    /// the serial order** ([`Engine::for_each_answer`]), materializing the
    /// shards on the worker pool.
    ///
    /// Each clause's outermost candidate list is cut into contiguous
    /// slices; workers run the per-level skip machinery independently per
    /// slice ([`crate::ClausePlan::iter_slice`]) and the results are
    /// concatenated in slice order — bit-identical to the serial visitor,
    /// because the outermost level walks its sorted list in order with an
    /// empty forbidden set and inner levels depend only on the values fixed
    /// above them (DESIGN §14). What is traded away is the *delay*
    /// guarantee: answers arrive in order but in shard-sized bursts, so the
    /// delay-accounted reference path stays [`Engine::for_each_answer`].
    ///
    /// Returning [`ControlFlow::Break`] stops the drain at that answer.
    /// The shards are materialized before the drain begins, so a Break
    /// saves callback work but not shard work — callers that mostly stop
    /// early (e.g. `first()`) should prefer the serial visitor.
    /// Configurations that would run serially (1 thread, or fewer answers
    /// than the pool's cutoff) fall back to the serial visitor with zero
    /// overhead.
    pub fn par_for_each_answer(
        &self,
        par: &ParConfig,
        mut f: impl FnMut(&[Node]) -> ControlFlow<()>,
    ) {
        let EngineKind::Reduced {
            test,
            enumerator,
            count,
        } = &self.kind
        else {
            return self.for_each_answer(f);
        };
        if par.is_serial() || par.runs_serial(*count as usize) {
            return self.for_each_answer(f);
        }
        let reduction = test.reduction();
        let tasks = Self::shard_tasks(enumerator, par.threads().saturating_mul(4));
        // Task lists are tiny (threads·4 per clause), far below any sane
        // serial-fallback cutoff — distribute them unconditionally.
        let cfg = par.min_items(1);
        let arity = self.arity;
        let shards: Vec<Vec<Node>> = par_map(&cfg, &tasks, |&(ci, lo, hi)| {
            let plan = &enumerator.plans()[ci];
            let mut iter = plan.iter_slice(enumerator.adjacency(), lo, hi);
            let mut answer: Vec<Node> = Vec::with_capacity(arity);
            let mut buf: Vec<Node> = Vec::new();
            while iter.advance() {
                let ok = reduction.backward_into(iter.tuple(), &mut answer);
                assert!(ok, "ψ(G) answers lie in the image of f");
                buf.extend_from_slice(&answer);
            }
            buf
        });
        for shard in &shards {
            for answer in shard.chunks_exact(arity) {
                if f(answer).is_break() {
                    return;
                }
            }
        }
    }

    /// `|φ(A)|` by sharded parallel traversal. The build-time
    /// [`Engine::count`] is free and exact — this path exists to *measure*
    /// the parallel enumeration machinery (it drives the same sharded
    /// cursors as [`Engine::par_for_each_answer`], skipping answer
    /// materialization) and as an end-to-end cross-check. Serial-falling
    /// configurations return the precomputed count directly.
    pub fn par_count(&self, par: &ParConfig) -> u64 {
        let EngineKind::Reduced {
            enumerator, count, ..
        } = &self.kind
        else {
            return self.count();
        };
        if par.is_serial() || par.runs_serial(*count as usize) {
            return *count;
        }
        let tasks = Self::shard_tasks(enumerator, par.threads().saturating_mul(4));
        let cfg = par.min_items(1);
        let counts: Vec<u64> = par_map(&cfg, &tasks, |&(ci, lo, hi)| {
            let plan = &enumerator.plans()[ci];
            let mut iter = plan.iter_slice(enumerator.adjacency(), lo, hi);
            let mut c = 0u64;
            while iter.advance() {
                c += 1;
            }
            c
        });
        counts.iter().sum()
    }

    /// Theorem 2.7, sharded and materialized: every answer in exactly the
    /// serial enumeration order (see [`Engine::par_for_each_answer`]).
    pub fn par_enumerate(&self, par: &ParConfig) -> Vec<Vec<Node>> {
        let mut out = Vec::new();
        self.par_for_each_answer(par, |a| {
            out.push(a.to_vec());
            ControlFlow::Continue(())
        });
        out
    }

    /// The effective eager-machinery cost gates this engine was built under
    /// (diagnostics; surfaced by `explain`).
    pub fn skip_limits(&self) -> SkipLimits {
        self.skip_limits
    }

    /// Theorem 2.7: constant-delay enumeration of `φ(A)`.
    ///
    /// A cloning adapter over [`Engine::answers`]: the per-item `Vec` is
    /// the boxed API's copy at the boundary, not part of the emission loop.
    /// Allocation-sensitive callers should use [`Engine::for_each_answer`].
    pub fn enumerate(&self) -> Box<dyn Iterator<Item = Vec<Node>> + '_> {
        let mut s = self.answers();
        Box::new(std::iter::from_fn(move || {
            s.advance().then(|| s.answer().to_vec())
        }))
    }

    /// Theorem 2.7, instrumented: enumerate answers together with the
    /// number of RAM operations since the previous output. The theorem
    /// predicts this delay is bounded by a function of the query and ε
    /// only — independent of `n` (see experiment E4).
    pub fn enumerate_with_ops(&self) -> Box<dyn Iterator<Item = (Vec<Node>, u64)> + '_> {
        let mut s = self.answers();
        Box::new(std::iter::from_fn(move || {
            s.advance().then(|| (s.answer().to_vec(), s.last_delay()))
        }))
    }

    /// Whether the query has any answer (constant time after build: the
    /// count is precomputed).
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The first answer, if any (pseudo-linear preprocessing already done;
    /// this is the paper's "first solution in pseudo-linear time" remark).
    /// Short-circuits the streaming cursor after one answer instead of
    /// constructing the boxed iterator.
    pub fn first(&self) -> Option<Vec<Node>> {
        let mut out = None;
        self.for_each_answer(|a| {
            out = Some(a.to_vec());
            ControlFlow::Break(())
        });
        out
    }

    /// All answers sorted lexicographically.
    ///
    /// This *materializes* the answer set (`O(|q(A)|)` extra memory) — the
    /// constant-delay enumeration order is clause-grouped, not
    /// lexicographic, and whether lexicographic constant-delay enumeration
    /// is possible over low-degree classes is the paper's §5 open problem.
    pub fn enumerate_sorted(&self) -> Vec<Vec<Node>> {
        let mut out: Vec<Vec<Node>> = self.enumerate().collect();
        out.sort_unstable();
        out
    }

    /// The underlying reduction (diagnostics; `None` for sentences).
    pub fn reduction(&self) -> Option<&Reduction> {
        match &self.kind {
            EngineKind::Sentence { .. } => None,
            EngineKind::Reduced { test, .. } => Some(test.reduction()),
        }
    }

    /// The underlying test index (diagnostics; `None` for sentences).
    pub fn test_index(&self) -> Option<&TestIndex> {
        match &self.kind {
            EngineKind::Sentence { .. } => None,
            EngineKind::Reduced { test, .. } => Some(test),
        }
    }

    /// The underlying enumerator (diagnostics; `None` for sentences).
    pub fn enumerator(&self) -> Option<&Enumerator> {
        match &self.kind {
            EngineKind::Sentence { .. } => None,
            EngineKind::Reduced { enumerator, .. } => Some(enumerator),
        }
    }
}

/// Streaming cursor over `φ(A)` with per-answer delay accounting.
///
/// Wraps the enumerator's [`VertexStream`] and pulls each vertex tuple back
/// through `f⁻¹` into one reused answer buffer
/// ([`Reduction::backward_into`]). The per-answer step performs zero heap
/// allocations: the only allocations over a full traversal are the
/// per-*clause* cursor setups inside [`VertexStream`], bounded by the query,
/// never by the answer count.
pub struct AnswerStream<'a> {
    kind: StreamKind<'a>,
    answer: Vec<Node>,
    delay: u64,
}

#[allow(clippy::large_enum_variant)] // one stream per traversal: boxing buys nothing
enum StreamKind<'a> {
    Sentence {
        truth: bool,
        emitted: bool,
    },
    Reduced {
        stream: VertexStream<'a>,
        reduction: &'a Reduction,
    },
}

impl AnswerStream<'_> {
    /// Advance to the next answer. Returns `true` when one is available
    /// through [`AnswerStream::answer`]; `false` once exhausted (and
    /// forever after).
    pub fn advance(&mut self) -> bool {
        match &mut self.kind {
            StreamKind::Sentence { truth, emitted } => {
                if *truth && !*emitted {
                    *emitted = true;
                    self.answer.clear();
                    self.delay = 1;
                    true
                } else {
                    false
                }
            }
            StreamKind::Reduced { stream, reduction } => {
                if stream.advance() {
                    let ok = reduction.backward_into(stream.tuple(), &mut self.answer);
                    assert!(ok, "ψ(G) answers lie in the image of f");
                    self.delay = stream.last_delay();
                    true
                } else {
                    false
                }
            }
        }
    }

    /// The current answer tuple. Only meaningful after
    /// [`AnswerStream::advance`] returned `true`; overwritten by the next
    /// `advance`.
    #[inline]
    pub fn answer(&self) -> &[Node] {
        &self.answer
    }

    /// RAM operations spent between the previous answer and the current
    /// one — the per-answer delay Theorem 2.7 bounds by a constant.
    #[inline]
    pub fn last_delay(&self) -> u64 {
        self.delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
    use lowdeg_logic::eval::answers_naive;
    use lowdeg_logic::parse_query;
    use std::collections::BTreeSet;

    /// The engine of `q` over `s` in skip mode `mode`, ε = 0.5, no cache.
    fn build_mode(s: &Structure, q: &Query, mode: SkipMode) -> Engine {
        let config = EngineConfig {
            skip_mode: mode,
            eps: Epsilon::new(0.5),
            ..EngineConfig::default()
        };
        Engine::build_configured(s, q, &config, &ParConfig::from_env(), None).unwrap()
    }

    fn check_engine(seed: u64, n: usize, src: &str) {
        let s = ColoredGraphSpec::balanced(n, DegreeClass::Bounded(3)).generate(seed);
        let q = parse_query(s.signature(), src).unwrap();
        let oracle = answers_naive(&s, &q);
        let oracle_set: BTreeSet<Vec<Node>> = oracle.iter().cloned().collect();

        for mode in [SkipMode::Eager, SkipMode::Lazy] {
            let engine = build_mode(&s, &q, mode);
            assert_eq!(
                engine.count(),
                oracle.len() as u64,
                "`{src}` count ({mode:?})"
            );
            let got: Vec<Vec<Node>> = engine.enumerate().collect();
            let got_set: BTreeSet<Vec<Node>> = got.iter().cloned().collect();
            assert_eq!(got.len(), got_set.len(), "`{src}` duplicates ({mode:?})");
            assert_eq!(got_set, oracle_set, "`{src}` answers ({mode:?})");
            for t in &oracle {
                assert!(engine.test(t), "`{src}` test+ on {t:?}");
            }

            // the streaming visitor agrees with the boxed iterator on
            // answers, order and delays, and `first` short-circuits to the
            // same head
            let mut streamed: Vec<Vec<Node>> = Vec::new();
            let mut delays: Vec<u64> = Vec::new();
            engine.for_each_answer_with_ops(|a, d| {
                streamed.push(a.to_vec());
                delays.push(d);
                ControlFlow::Continue(())
            });
            assert_eq!(streamed, got, "`{src}` streaming order ({mode:?})");
            let boxed_delays: Vec<u64> = engine.enumerate_with_ops().map(|(_, d)| d).collect();
            assert_eq!(delays, boxed_delays, "`{src}` streaming ops ({mode:?})");
            assert_eq!(
                engine.first(),
                got.first().cloned(),
                "`{src}` first ({mode:?})"
            );
            let mut seen = 0usize;
            engine.for_each_answer(|_| {
                seen += 1;
                if seen == 1 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            assert_eq!(seen, got.len().min(1), "`{src}` break stops ({mode:?})");
        }
    }

    #[test]
    fn running_example_end_to_end() {
        check_engine(1, 24, "B(x) & R(y) & !E(x, y)");
    }

    #[test]
    fn quantified_end_to_end() {
        check_engine(2, 20, "exists z. E(x, z) & E(z, y)");
    }

    #[test]
    fn unary_end_to_end() {
        check_engine(3, 30, "B(x) & !R(x)");
    }

    #[test]
    fn ternary_end_to_end() {
        check_engine(4, 12, "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)");
    }

    #[test]
    fn workload_groups_rewrite_variants_onto_one_engine() {
        let s = ColoredGraphSpec::balanced(40, DegreeClass::Bounded(3)).generate(7);
        // three rewrite variants of one query (shuffled conjuncts, double
        // negation, renamed bound variable) plus one genuinely distinct
        // query
        let sources = [
            "B(x) & R(y) & !E(x, y)",
            "B(x) & !E(x, y) & R(y)",
            "B(x) & !!R(y) & !E(x, y)",
            "R(x) & G(y) & !E(x, y)",
        ];
        let queries: Vec<_> = sources
            .iter()
            .map(|src| parse_query(s.signature(), src).unwrap())
            .collect();
        let refs: Vec<&lowdeg_logic::Query> = queries.iter().collect();
        let cache = crate::ArtifactCache::new();
        let par = ParConfig::serial();
        let config = EngineConfig {
            eps: Epsilon::new(0.5),
            ..EngineConfig::default()
        };
        let (engines, stats) = Engine::build_workload(&s, &refs, &config, &par, &cache).unwrap();
        assert_eq!(stats.queries, 4);
        assert_eq!(stats.distinct_cores, 2, "three variants share one core");
        assert!(Arc::ptr_eq(&engines[0], &engines[1]));
        assert!(Arc::ptr_eq(&engines[0], &engines[2]));
        assert!(!Arc::ptr_eq(&engines[0], &engines[3]));
        // bit-identical to per-query configured builds
        for (engine, q) in engines.iter().zip(&queries) {
            let solo = Engine::build_configured(&s, q, &config, &par, None).unwrap();
            assert_eq!(engine.count(), solo.count());
            let a: Vec<Vec<Node>> = engine.enumerate().collect();
            let b: Vec<Vec<Node>> = solo.enumerate().collect();
            assert_eq!(a, b, "workload answers must match the solo build");
        }
        // and observably equivalent to normalization-free builds
        let raw_cfg = EngineConfig {
            normalize: false,
            ..config
        };
        for (engine, q) in engines.iter().zip(&queries) {
            let raw = Engine::build_configured(&s, q, &raw_cfg, &par, None).unwrap();
            assert!(raw.normalization().is_none());
            assert_eq!(engine.count(), raw.count());
            assert_eq!(engine.enumerate_sorted(), raw.enumerate_sorted());
        }
        // normalization info is surfaced, with a stable fingerprint across
        // the group
        let info = engines[0].normalization().expect("normalize on");
        assert!(!info.fallback);
        let other = engines[3].normalization().unwrap();
        assert_ne!(info.fingerprint, other.fingerprint);
        // with normalization off, nothing groups
        let (raw_engines, raw_stats) =
            Engine::build_workload(&s, &refs, &raw_cfg, &par, &crate::ArtifactCache::new())
                .unwrap();
        assert_eq!(raw_stats.distinct_cores, 4);
        assert!(!Arc::ptr_eq(&raw_engines[0], &raw_engines[1]));
    }

    #[test]
    fn warm_rebuild_skips_ie_count_via_query_memo() {
        let s = ColoredGraphSpec::balanced(40, DegreeClass::Bounded(3)).generate(11);
        let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        // a rewrite variant: same normal form, different syntax
        let v = parse_query(s.signature(), "B(x) & !E(x, y) & !!R(y)").unwrap();
        let cache = crate::ArtifactCache::new();
        let par = ParConfig::serial();
        let config = EngineConfig {
            eps: Epsilon::new(0.5),
            ..EngineConfig::default()
        };
        let cold = Engine::build_configured(&s, &q, &config, &par, Some(&cache)).unwrap();
        assert!(cold.profile().nanos(Stage::IeCount) > 0);
        let (hits_before, _, _) = cache.counting_stats();
        let warm = Engine::build_configured(&s, &v, &config, &par, Some(&cache)).unwrap();
        assert_eq!(warm.count(), cold.count());
        assert_eq!(
            warm.profile().nanos(Stage::IeCount),
            0,
            "whole-query count memo must skip the ie-count stage"
        );
        let (hits_after, _, _) = cache.counting_stats();
        assert!(hits_after > hits_before, "query-count hit counts as a hit");
        let a: Vec<Vec<Node>> = warm.enumerate().collect();
        let b: Vec<Vec<Node>> = cold.enumerate().collect();
        assert_eq!(a, b, "rewrite variants share answers and order");
    }

    #[test]
    fn parallel_answers_match_serial_bit_for_bit() {
        let s = ColoredGraphSpec::balanced(36, DegreeClass::Bounded(3)).generate(9);
        let forced = ParConfig::with_threads(4).min_items(1);
        for src in [
            "B(x) & R(y) & !E(x, y)",
            "B(x) & !R(x)",
            "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)",
        ] {
            let q = parse_query(s.signature(), src).unwrap();
            for mode in [SkipMode::Eager, SkipMode::Lazy] {
                let engine = build_mode(&s, &q, mode);
                let serial: Vec<Vec<Node>> = engine.enumerate().collect();
                assert_eq!(
                    engine.par_enumerate(&forced),
                    serial,
                    "`{src}` parallel order ({mode:?})"
                );
                assert_eq!(
                    engine.par_count(&forced),
                    engine.count(),
                    "`{src}` parallel count ({mode:?})"
                );
                // serial fallback is also identical
                assert_eq!(engine.par_enumerate(&ParConfig::serial()), serial);
                // early Break stops at the right answer
                let mut seen = Vec::new();
                engine.par_for_each_answer(&forced, |a| {
                    seen.push(a.to_vec());
                    if seen.len() == 2 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
                assert_eq!(seen.len(), serial.len().min(2));
                assert_eq!(seen[..], serial[..seen.len()]);
                // restartable: a second traversal sees the same answers
                assert_eq!(engine.par_enumerate(&forced), serial);
            }
        }
    }

    #[test]
    fn configured_build_with_warm_up_is_identical() {
        let s = ColoredGraphSpec::balanced(24, DegreeClass::Bounded(3)).generate(1);
        let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        let plain = Engine::build(&s, &q, Epsilon::new(0.5)).unwrap();
        let config = EngineConfig {
            warm_up: true,
            eps: Epsilon::new(0.5),
            ..EngineConfig::default()
        };
        let warmed = Engine::build_configured(&s, &q, &config, &ParConfig::serial(), None).unwrap();
        assert_eq!(warmed.count(), plain.count());
        let a: Vec<Vec<Node>> = warmed.enumerate().collect();
        let b: Vec<Vec<Node>> = plain.enumerate().collect();
        assert_eq!(a, b, "warm-up must not perturb the answers");
        assert!(
            warmed.profile().nanos(Stage::WarmUp) > 0,
            "warm-up charged to its stage"
        );
        assert_eq!(plain.profile().nanos(Stage::WarmUp), 0);
        // tiny cost gates degrade eager levels but keep answers
        let plain_cfg = EngineConfig {
            eps: Epsilon::new(0.5),
            ..EngineConfig::default()
        };
        let tiny = SkipLimits {
            ek_cost_limit: 0,
            eager_skip_limit: 0,
        };
        let degraded = |s: &Structure, q: &Query| {
            Engine::build_limited(s, q, &plain_cfg, tiny, &ParConfig::serial(), None).unwrap()
        };
        let degraded1 = degraded(&s, &q);
        assert_eq!(degraded1.skip_limits(), tiny);
        let c: Vec<Vec<Node>> = degraded1.enumerate().collect();
        assert_eq!(c, b);
        let en = degraded1.enumerator().unwrap();
        assert!(en
            .plans()
            .iter()
            .flat_map(|p| p.levels.iter().flatten())
            .all(|l| !l.eager_built && l.degraded));
        // non-vacuous: this structure is dense enough for Large levels
        let s2 = ColoredGraphSpec::balanced(400, DegreeClass::Bounded(2)).generate(1);
        let q2 = parse_query(s2.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        let degraded2 = degraded(&s2, &q2);
        let en2 = degraded2.enumerator().unwrap();
        let larges = en2
            .plans()
            .iter()
            .flat_map(|p| p.levels.iter().flatten())
            .count();
        assert!(larges > 0, "plan must contain large levels");
        assert!(en2
            .plans()
            .iter()
            .flat_map(|p| p.levels.iter().flatten())
            .all(|l| !l.eager_built && l.degraded));
    }

    #[test]
    fn sentence_engine() {
        let s = ColoredGraphSpec::balanced(20, DegreeClass::Bounded(3)).generate(5);
        let q = parse_query(s.signature(), "exists x y. E(x, y) & B(x)").unwrap();
        let expected = lowdeg_logic::eval::model_check_naive(&s, &q);
        let engine = Engine::build(&s, &q, Epsilon::new(0.5)).unwrap();
        assert_eq!(engine.count(), expected as u64);
        assert_eq!(engine.enumerate().count(), expected as usize);
        assert_eq!(engine.test(&[]), expected);
        assert_eq!(Engine::model_check(&s, &q).unwrap(), expected);
    }

    #[test]
    fn sentence_fallback_through_reduction() {
        use lowdeg_storage::{Node, Signature, Structure};
        use std::sync::Arc;
        // a ternary relation: the scattered checker cannot express
        // cross-cluster ¬T constraints, but the reduction route can decide
        // ∃x y z (B(x) ∧ R(y) ∧ G(z) ∧ ¬T(x, y, z) ∧ pairwise far)?  Use a
        // simpler exotic case: negated ternary atom between two clusters.
        let sig = Arc::new(Signature::new(&[("E", 2), ("B", 1), ("R", 1), ("T", 3)]));
        let e = sig.rel("E").unwrap();
        let b_ = sig.rel("B").unwrap();
        let r_ = sig.rel("R").unwrap();
        let t_ = sig.rel("T").unwrap();
        let mut builder = Structure::builder(sig, 6);
        builder.undirected_edge(e, Node(0), Node(1)).unwrap();
        builder.fact(b_, &[Node(0)]).unwrap();
        builder.fact(b_, &[Node(4)]).unwrap();
        builder.fact(r_, &[Node(3)]).unwrap();
        builder.fact(t_, &[Node(4), Node(3), Node(3)]).unwrap();
        let s = builder.finish().unwrap();

        // ∃x y: blue x, red y, ¬T(x, y, y): (0,3) qualifies (T(0,3,3) absent)
        let q = parse_query(s.signature(), "exists x y. B(x) & R(y) & !T(x, y, y)").unwrap();
        let expected = lowdeg_logic::eval::model_check_naive(&s, &q);
        assert_eq!(Engine::model_check(&s, &q).unwrap(), expected);
        assert!(expected);

        // and a false instance of the same shape
        let q2 = parse_query(
            s.signature(),
            "exists x y. B(x) & B(y) & E(x, y) & R(x) & !T(x, y, y)",
        )
        .unwrap();
        let expected2 = lowdeg_logic::eval::model_check_naive(&s, &q2);
        assert_eq!(Engine::model_check(&s, &q2).unwrap(), expected2);
    }

    #[test]
    fn non_localizable_reported() {
        let s = ColoredGraphSpec::balanced(10, DegreeClass::Bounded(3)).generate(6);
        let q = parse_query(s.signature(), "exists z. R(z) & !E(x, z)").unwrap();
        assert!(matches!(
            Engine::build(&s, &q, Epsilon::new(0.5)),
            Err(EngineError::Localize(_))
        ));
    }
}
