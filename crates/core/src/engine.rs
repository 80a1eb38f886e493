//! The public façade tying the pipeline together.

use crate::artifacts::{ArtifactCache, BuildProfile, Profiler, Stage};
use crate::counting::count_graph_query;
use crate::enumerate::{Enumerator, SkipLimits, SkipMode, VertexStream};
use crate::graph_query::PositionMemo;
use crate::reduction::{Reduction, DEFAULT_COMBINATION_BUDGET};
use crate::testing::TestIndex;
use crate::EngineError;
use lowdeg_index::Epsilon;
use lowdeg_logic::{normalize, ClauseForm, Query};
use lowdeg_par::{par_stream, ParConfig};
use lowdeg_storage::{Node, Structure};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Answers a slice of the sharded answer path aims at. A `par_stream`
/// worker hands over at most a few such slices' worth of answers before
/// it waits for the in-order drain, so slices this small keep the workers
/// running ahead of the drain instead of blocking inside one long slice.
const SLICE_ANSWERS: u64 = 8192;

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
    /// variants of one query have the same canonical clauses — and so share
    /// cached clause acceptance sets and combination counts — and
    /// [`Engine::build_workload`] can group them onto one shared engine.
    /// On by default; the built engine is observably equivalent either way
    /// (the `normcheck` row of the conformance oracle table enforces it),
    /// but clause/answer *order* follows the canonical form when enabled.
    /// When the normalized syntax fails to localize, the build
    /// transparently falls back to the original query.
    pub normalize: bool,
    /// Share Step 5 acceptance and inclusion–exclusion counts through the
    /// cache at *clause* granularity: each clause of the canonical normal
    /// form gets its own fingerprint-keyed acceptance set in the
    /// [`ArtifactCache`], and each reduced clause its own count in the
    /// per-core counting memo's combination tier, so any two queries
    /// sharing a clause — across a workload batch, across warm builds, or
    /// as rewrite variants — share that clause's work. Requires
    /// `normalize` (clause fingerprints are properties of the canonical
    /// form); inert without a cache. Off shares the core (and the memo's
    /// component counts) but not Step 5 or combination counts: every build
    /// runs its own acceptance pass and lattice, which is the reference the
    /// `clausecheck` row of the conformance oracle table compares against
    /// (both settings are bit-identical).
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
    /// The canonical fingerprint of the normal form, shared by every
    /// rewrite variant of the query: the key [`Engine::build_workload`]
    /// groups a batch by. No cache tier is keyed by it; cached work is
    /// keyed by clause.
    pub fingerprint: u64,
    /// Stable names of the rewrite passes that changed the query
    /// (empty when the input was already canonical).
    pub rewrites: Vec<&'static str>,
    /// The normalized syntax failed to localize and the engine was built
    /// from the original query instead (without the clause-keyed Step 5
    /// tier — normalization can perturb *syntactic* localizability).
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
    /// Clause-tier cache hits recorded over the whole batch — how often a
    /// clause's Step 5 acceptance set was stitched from the cache instead
    /// of rebuilt.
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
    /// and the engine is bit-identical to a cold build; the `cachecheck`
    /// row of the conformance oracle table enforces this. Per-stage timings are recorded in
    /// [`Engine::profile`].
    ///
    /// With normalization on (the default), the engine is built from the
    /// query's canonical normal form: each clause's Step 5 acceptance set
    /// and each reduced clause's count are then cached by clause, so
    /// rebuilding any rewrite variant of the query against a warm cache
    /// stitches both from the cache instead of recomputing them. Answer
    /// tuples align positionally with the original query (free variables
    /// canonicalize in answer-column order). Should the canonical syntax
    /// fail to localize, the build silently retries the original query
    /// without the clause tier.
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
        let raw = |query: &Query, clauses: Option<&[ClauseForm]>| {
            Self::build_raw(structure, query, config, limits, par, cache, clauses)
        };
        if !config.normalize {
            return raw(query, None);
        }
        let nf = normalize(query);
        let info = NormalizationInfo {
            fingerprint: nf.fingerprint,
            rewrites: nf.rewrite_names(),
            fallback: false,
        };
        // Canonical clauses are properties of the normal form, so
        // clause-granular sharing only applies on the canonical path.
        let clauses = config.clause_sharing.then_some(nf.clauses.as_slice());
        match raw(&nf.query, clauses) {
            Ok(mut engine) => {
                engine.normalization = Some(info);
                Ok(engine)
            }
            // Localizability is decided on syntax; a rewrite that merges or
            // reorders conjuncts can push a query off the syntactic
            // fragment the localizer accepts even though the original
            // parses through it. The original query is the user's contract
            // — build it directly, without the clause tier.
            Err(EngineError::Localize(_)) if !nf.is_trivial() => {
                let mut engine = raw(query, None)?;
                engine.normalization = Some(NormalizationInfo {
                    fallback: true,
                    ..info
                });
                Ok(engine)
            }
            Err(e) => Err(e),
        }
    }

    /// The normalization-free inner build. `clauses` carries the canonical
    /// clauses when `query` *is* a canonical normal form and
    /// clause-granular sharing is on — the reduction then stitches its
    /// Step 5 acceptance from clause-keyed cache entries; `None` builds
    /// the query as written with per-core caching only. With
    /// [`EngineConfig::clause_sharing`] the count sums memoized
    /// combination counts. Both are bit-identical to the uncached passes.
    fn build_raw(
        structure: &Structure,
        query: &Query,
        config: &EngineConfig,
        limits: SkipLimits,
        par: &ParConfig,
        cache: Option<&ArtifactCache>,
        clauses: Option<&[ClauseForm]>,
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
            clauses,
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
        // The build's one candidate-list table, read by the IE count and
        // the enumerator alike. Lists are per-core artifacts: with a cache
        // every engine on the core shares the cache-held table (and its
        // intersection scans); without one the table is build-local.
        let positions = match cache {
            Some(c) => c.position_memo(
                structure.fingerprint(),
                reduction.radius(),
                reduction.arity(),
                eps,
            ),
            None => Arc::new(PositionMemo::new()),
        };
        // Clause-granular counting: clause answer sets are disjoint, so the
        // count is the sum of per-clause counts, memoized under each
        // clause's signature (its row read through the set words): queries
        // sharing a combination share its count, and a warm build whose
        // combinations are all memoized skips the lattice outright.
        let words = config
            .clause_sharing
            .then_some(reduction.set_words.as_slice());
        let count = profiler.time(Stage::IeCount, || {
            count_graph_query(
                reduction.graph(),
                reduction.query(),
                &adjacency,
                par,
                memo.as_deref(),
                words,
                &positions,
            )
        })?;
        let enumerator = Enumerator::build(
            reduction.graph(),
            reduction.query(),
            adjacency,
            mode,
            eps,
            limits,
            par,
            &profiler,
            &positions,
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
    /// With [`EngineConfig::clause_sharing`] on (the default) every
    /// group's build stitches its Step 5 acceptance from the cache's
    /// clause tier, so a clause shared by several groups is accepted once
    /// (by the first group that needs it) and read by the rest, and the
    /// counts sum clause-memoized combination counts. Every engine stays
    /// bit-identical to its solo [`Engine::build_configured`] build.
    pub fn build_workload(
        structure: &Structure,
        queries: &[&Query],
        config: &EngineConfig,
        par: &ParConfig,
        cache: &ArtifactCache,
    ) -> Result<(Vec<Arc<Self>>, WorkloadStats), EngineError> {
        let clause_hits_before = cache.clause_stats().0;
        // Normalize every query once; the distinct canonical clauses are
        // the unit of Step 5 sharing.
        let nfs: Vec<Option<lowdeg_logic::NormalForm>> = queries
            .iter()
            .map(|q| config.normalize.then(|| normalize(q)))
            .collect();
        let distinct_clauses = nfs
            .iter()
            .flatten()
            .flat_map(|nf| nf.clauses.iter().map(|c| c.fingerprint))
            .collect::<std::collections::BTreeSet<u64>>()
            .len();

        // Build each rewrite group once (clause artifacts and combination
        // counts stitch from the cache); alias group members onto the
        // shared engine.
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
                                    &PositionMemo::new(),
                                );
                                return match count {
                                    Ok(count) => Ok(count > 0),
                                    // more answers than a u64 holds: some
                                    Err(EngineError::CountOverflow) => Ok(true),
                                    Err(e) => Err(e),
                                };
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

    /// The slices the sharded answer path streams, in order: contiguous
    /// `(clause, lo, hi)` ranges of each clause's outermost candidate list.
    /// Clause-major with ascending slices — the serial enumeration order,
    /// so concatenating the slices' answers reproduces it exactly (DESIGN
    /// §14). Each clause is cut into `threads × 4` slices, or into more
    /// when the answers are many, aiming at 8,192 answers per slice; a
    /// slice never holds less than one top-list entry, so the list never
    /// outgrows the top lists themselves. Empty for a sentence.
    pub fn answer_slices(&self, par: &ParConfig) -> Vec<(usize, usize, usize)> {
        let EngineKind::Reduced {
            enumerator, count, ..
        } = &self.kind
        else {
            return Vec::new();
        };
        let parts_per_clause = par
            .threads()
            .saturating_mul(4)
            .max(count.div_ceil(SLICE_ANSWERS) as usize);
        let mut tasks = Vec::new();
        for (ci, plan) in enumerator.plans().iter().enumerate() {
            let top = plan.top_len();
            let part_len = top.div_ceil(parts_per_clause).max(1);
            // an empty outer list (a clause without answers) adds nothing
            let mut lo = 0;
            while lo < top {
                tasks.push((ci, lo, (lo + part_len).min(top)));
                lo += part_len;
            }
        }
        tasks
    }

    /// Theorem 2.7, sharded: drive every answer through `f` in **exactly
    /// the serial order** ([`Engine::for_each_answer`]), streamed from the
    /// worker pool as it is produced.
    ///
    /// Each clause's outermost candidate list is cut into contiguous
    /// slices ([`Engine::answer_slices`]), one task each
    /// ([`crate::ClausePlan::iter_slice`] runs the per-level skip machinery
    /// over one slice), and [`lowdeg_par::par_stream`] hands the tasks'
    /// answers to `f` in slice order — bit-identical to the serial visitor, because the outermost
    /// level walks its sorted list in order with an empty forbidden set and
    /// inner levels depend only on the values fixed above them (DESIGN
    /// §14). The calling thread counts toward `par.threads()` and runs
    /// every slice no worker has claimed yet straight into `f`, starting
    /// with the first, so the first answer arrives at serial delay; worker
    /// slices arrive in batches, so the per-answer delay guarantee belongs
    /// to [`Engine::for_each_answer`] alone.
    ///
    /// Returning [`ControlFlow::Break`] stops the drain at that answer and
    /// stops the workers: no slice starts after it, and running ones stop
    /// at their next answer. Configurations that would run serially (1
    /// thread, or fewer answers than the pool's cutoff) fall back to the
    /// serial visitor with zero overhead.
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
        if par.runs_serial(*count as usize) {
            return self.for_each_answer(f);
        }
        let reduction = test.reduction();
        let arity = self.arity;
        // the pool's item cutoff is about answers, checked above; every
        // slice list is worth distributing
        par_stream(
            &par.min_items(1),
            &self.answer_slices(par),
            |&(ci, lo, hi), sink| {
                let plan = &enumerator.plans()[ci];
                let mut iter = plan.iter_slice(enumerator.adjacency(), lo, hi);
                let mut answer: Vec<Node> = Vec::with_capacity(arity);
                while iter.advance() {
                    let ok = reduction.backward_into(iter.tuple(), &mut answer);
                    assert!(ok, "ψ(G) answers lie in the image of f");
                    if sink(&answer).is_break() {
                        return;
                    }
                }
            },
            |answers| {
                for answer in answers.chunks_exact(arity) {
                    f(answer)?;
                }
                ControlFlow::Continue(())
            },
        );
    }

    /// `|φ(A)|` by sharded parallel traversal. The build-time
    /// [`Engine::count`] is free and exact — this path exists to *measure*
    /// the parallel enumeration machinery (it streams the same slices as
    /// [`Engine::par_for_each_answer`], one count per slice instead of its
    /// answers) and as an end-to-end cross-check. Serial-falling
    /// configurations return the precomputed count directly.
    pub fn par_count(&self, par: &ParConfig) -> u64 {
        let EngineKind::Reduced {
            enumerator, count, ..
        } = &self.kind
        else {
            return self.count();
        };
        if par.runs_serial(*count as usize) {
            return *count;
        }
        let mut total = 0u64;
        par_stream(
            &par.min_items(1),
            &self.answer_slices(par),
            |&(ci, lo, hi), sink| {
                let plan = &enumerator.plans()[ci];
                let mut iter = plan.iter_slice(enumerator.adjacency(), lo, hi);
                let mut c = 0u64;
                while iter.advance() {
                    c += 1;
                }
                let _ = sink(&[c]);
            },
            |counts| {
                total += counts.iter().sum::<u64>();
                ControlFlow::Continue(())
            },
        );
        total
    }

    /// Theorem 2.7, sharded and materialized: every answer in exactly the
    /// serial enumeration order, collected from
    /// [`Engine::par_for_each_answer`]'s stream.
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
            // answers and order, every answer costs at least one RAM
            // operation, and `first` short-circuits to the same head
            let mut streamed: Vec<Vec<Node>> = Vec::new();
            let mut delays: Vec<u64> = Vec::new();
            engine.for_each_answer_with_ops(|a, d| {
                streamed.push(a.to_vec());
                delays.push(d);
                ControlFlow::Continue(())
            });
            assert_eq!(streamed, got, "`{src}` streaming order ({mode:?})");
            assert!(delays.iter().all(|&d| d >= 1), "`{src}` ops ({mode:?})");
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
    fn warm_rebuild_skips_lattice_via_combination_tier() {
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
        let (combo_hits, combo_misses) = cache.combo_stats();
        assert!(combo_misses > 0, "the cold build counts its combinations");
        let (memo_hits, memo_misses, _) = cache.counting_stats();
        let warm = Engine::build_configured(&s, &v, &config, &par, Some(&cache)).unwrap();
        assert_eq!(warm.count(), cold.count());
        let (hits, misses) = cache.combo_stats();
        assert_eq!(misses, combo_misses, "every combination count is a hit");
        assert!(hits > combo_hits);
        assert_eq!(
            cache.counting_stats().0 + cache.counting_stats().1,
            memo_hits + memo_misses,
            "the combination tier skips the lattice: no component probes"
        );
        let a: Vec<Vec<Node>> = warm.enumerate().collect();
        let b: Vec<Vec<Node>> = cold.enumerate().collect();
        assert_eq!(a, b, "rewrite variants share answers and order");
    }

    /// A warm build of a two-clause rewrite variant (disjuncts swapped) is
    /// stitched from the clause tier and the combination tier — the path
    /// every warm build takes — and is bit-identical to a cold build.
    #[test]
    fn warm_two_clause_variant_is_stitched_bit_identically() {
        let s = ColoredGraphSpec::balanced(48, DegreeClass::Bounded(3)).generate(12);
        let q = parse_query(
            s.signature(),
            "(B(x) & R(y) & !E(x, y)) | (exists z. E(x, z) & E(z, y) & G(y))",
        )
        .unwrap();
        let v = parse_query(
            s.signature(),
            "(exists w. E(x, w) & E(w, y) & G(y)) | (R(y) & B(x) & !E(x, y))",
        )
        .unwrap();
        let cache = crate::ArtifactCache::new();
        let par = ParConfig::serial();
        let config = EngineConfig {
            eps: Epsilon::new(0.5),
            ..EngineConfig::default()
        };
        let cold = Engine::build_configured(&s, &v, &config, &par, None).unwrap();
        let first = Engine::build_configured(&s, &q, &config, &par, Some(&cache)).unwrap();
        let (clause_hits, clause_misses, _) = cache.clause_stats();
        assert_eq!(clause_misses, 2, "the first build accepts both clauses");
        let combo_misses = cache.combo_stats().1;
        let warm = Engine::build_configured(&s, &v, &config, &par, Some(&cache)).unwrap();
        assert_eq!(
            cache.clause_stats().1,
            clause_misses,
            "no new clause misses"
        );
        assert_eq!(cache.clause_stats().0, clause_hits + 2);
        assert_eq!(
            cache.combo_stats().1,
            combo_misses,
            "no new combination misses"
        );
        assert_eq!(warm.explain().step5, Default::default());
        for engine in [&first, &warm] {
            assert_eq!(engine.count(), cold.count());
            let got: Vec<Vec<Node>> = engine.enumerate().collect();
            let want: Vec<Vec<Node>> = cold.enumerate().collect();
            assert_eq!(got, want, "answers and their order match the cold build");
        }
        assert_eq!(warm.explain().reduction, cold.explain().reduction);
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

    /// The `cli-build` benchmark's disjunction: two disjoint radius-1
    /// clauses over two free variables.
    const DISJUNCTION: &str = "(B(x) & R(y) & !E(x, y) & (exists z. E(x, z) & R(z))) \
         | (B(x) & G(y) & E(x, y) & (exists z. E(y, z) & R(z)))";

    #[test]
    fn cacheless_and_cached_builds_count_through_one_table() {
        let s = ColoredGraphSpec::balanced(256, DegreeClass::Bounded(2)).generate(1);
        let q = parse_query(s.signature(), DISJUNCTION).unwrap();
        let (config, par) = (EngineConfig::default(), ParConfig::from_env());
        let cacheless = Engine::build_configured(&s, &q, &config, &par, None).unwrap();
        let cache = ArtifactCache::new();
        let cached = Engine::build_configured(&s, &q, &config, &par, Some(&cache)).unwrap();
        assert_eq!(cacheless.count(), cached.count());
        for engine in [&cacheless, &cached] {
            let red = engine.reduction().expect("reduced engine");
            assert!(red.query().clause_count() > 1);
            let per_term: u64 = (0..red.query().clause_count())
                .map(|c| {
                    crate::counting::count_clause_per_term(
                        red.graph(),
                        red.query(),
                        c,
                        red.adjacency(),
                    )
                })
                .sum();
            assert_eq!(engine.count(), per_term);
        }
    }

    #[test]
    fn position_table_scans_each_color_set_once_per_core() {
        let s = ColoredGraphSpec::balanced(256, DegreeClass::Bounded(2)).generate(1);
        let q = parse_query(s.signature(), DISJUNCTION).unwrap();
        let par = ParConfig::from_env();
        let cache = ArtifactCache::new();
        let config = EngineConfig::default();
        let first = Engine::build_configured(&s, &q, &config, &par, Some(&cache)).unwrap();
        let red = first.reduction().expect("reduced engine");
        let gq = red.query();
        let sets = (0..gq.clause_count())
            .flat_map(|c| gq.clause(c).iter().map(|&s| gq.set_colors(s)))
            .collect::<BTreeSet<_>>()
            .len();
        assert_eq!(sets, gq.set_count(), "each color set is kept once");
        let (hits, misses, held) = cache.position_stats();
        assert_eq!(misses as usize, sets, "one scan per distinct color set");
        assert_eq!(held, sets);
        assert!(hits > 0, "the enumerator reads the lists the count built");
        // a repeat build on the same core scans nothing
        let again = Engine::build_configured(&s, &q, &config, &par, Some(&cache)).unwrap();
        assert_eq!(again.count(), first.count());
        // and neither does a full IE count over the core's warm table
        let positions = cache.position_memo(s.fingerprint(), red.radius(), red.arity(), config.eps);
        let recount = count_graph_query(
            red.graph(),
            red.query(),
            red.adjacency(),
            &par,
            None,
            None,
            &positions,
        );
        assert_eq!(recount, Ok(first.count()));
        let (hits_after, misses_after, _) = cache.position_stats();
        assert_eq!(misses_after, misses, "no new scans on a warm core");
        assert!(hits_after > hits);
    }

    /// End-to-end overflow witness: five unconstrained-but-blue positions
    /// over 8192 isolated blue nodes have 8192^5 = 2^65 answers, which no
    /// `u64` holds; the build must fail rather than report a clamped count.
    /// Ignored by default: about two minutes in a release build (run with
    /// `cargo test --release -p lowdeg-core --lib -- --ignored`).
    #[test]
    #[ignore = "about two minutes in a release build"]
    fn five_unary_positions_overflow_u64() {
        use lowdeg_storage::Signature;
        let sig = Arc::new(Signature::new(&[("E", 2), ("B", 1)]));
        let b = sig.rel("B").unwrap();
        let n = 8192usize;
        let mut builder = Structure::builder(Arc::clone(&sig), n);
        for i in 0..n as u32 {
            builder.fact(b, &[Node(i)]).unwrap();
        }
        let s = builder.finish().unwrap();
        let q = parse_query(s.signature(), "B(a) & B(b) & B(c) & B(d) & B(e)").unwrap();
        assert!(matches!(
            Engine::build(&s, &q, Epsilon::default_eps()),
            Err(EngineError::CountOverflow)
        ));
    }
}
