//! `EXPLAIN` for the preprocessing pipeline: a structured report of what
//! the reduction built and what the enumerator will do — the observability
//! surface a user consults when a query preprocesses slowly or the
//! combination budget trips.

use crate::artifacts::{ArtifactCache, BuildProfile};
use crate::engine::NormalizationInfo;
use crate::enumerate::{SkipLimits, Strategy};
use crate::reduction::Step5Stats;
use crate::Engine;
use std::fmt;

/// A structured description of a built [`Engine`].
#[derive(Debug, Clone, PartialEq)]
pub struct Explain {
    /// Query arity.
    pub arity: usize,
    /// What the query-rewrite normalization pass decided (`None` when the
    /// pass was disabled via `EngineConfig::normalize`).
    pub normalization: Option<NormalizationInfo>,
    /// `None` for sentences (decided at build time).
    pub reduction: Option<ReductionReport>,
    /// Precomputed answer count.
    pub count: u64,
    /// Per-stage build timings (all zero for sentences).
    pub profile: BuildProfile,
    /// What the build's Step 5 decided without evaluation and what it
    /// evaluated (zeros for sentences and for acceptance a cache served).
    pub step5: Step5Stats,
    /// The effective eager-machinery cost gates the build ran under (the
    /// compiled-in constants for every public builder).
    pub skip_limits: SkipLimits,
    /// State of the [`ArtifactCache`] the engine was built through
    /// (`None` when built cache-less or not requested).
    pub cache: Option<CacheReport>,
}

/// Observability snapshot of an [`ArtifactCache`]: LRU geometry plus the
/// artifact- and counting-memo-level hit accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheReport {
    /// Per-kind LRU entry limit.
    pub capacity: usize,
    /// Live entries across artifact kinds.
    pub entries: usize,
    /// Reduction-core probe hits.
    pub hits: u64,
    /// Reduction-core probe misses (each populated an entry).
    pub misses: u64,
    /// LRU evictions so far in the core tier.
    pub evictions: u64,
    /// Counting-memo probe hits (lattice components served from the memo).
    pub memo_hits: u64,
    /// Counting-memo probe misses (components counted and published).
    pub memo_misses: u64,
    /// Distinct component signatures held across all counting memos.
    pub memo_components: usize,
    /// Clause-tier probe hits: a clause's Step 5 acceptance set was
    /// stitched from the cache instead of rebuilt.
    pub clause_hits: u64,
    /// Clause-tier probe misses (each built and published one clause's
    /// acceptance set).
    pub clause_misses: u64,
    /// Clause-tier LRU evictions so far.
    pub clause_evictions: u64,
    /// Combination-count memo hits: a clause's inclusion–exclusion count
    /// was served under its packed signature instead of re-walked.
    pub combo_hits: u64,
    /// Combination-count memo misses (counts walked and published).
    pub combo_misses: u64,
    /// Distinct position color sets held across the per-core
    /// candidate-list tables.
    pub position_sets: usize,
    /// Candidate-list table hits (a list read without a scan).
    pub position_hits: u64,
    /// Candidate-list table misses (one column intersection each).
    pub position_misses: u64,
}

impl CacheReport {
    /// Snapshot `cache`'s counters.
    pub fn of(cache: &ArtifactCache) -> CacheReport {
        let (hits, misses) = cache.stats();
        let (memo_hits, memo_misses, memo_components) = cache.counting_stats();
        let (clause_hits, clause_misses, clause_evictions) = cache.clause_stats();
        let (combo_hits, combo_misses) = cache.combo_stats();
        let (position_hits, position_misses, position_sets) = cache.position_stats();
        CacheReport {
            capacity: cache.capacity(),
            entries: cache.entries(),
            hits,
            misses,
            evictions: cache.evictions(),
            memo_hits,
            memo_misses,
            memo_components,
            clause_hits,
            clause_misses,
            clause_evictions,
            combo_hits,
            combo_misses,
            position_sets,
            position_hits,
            position_misses,
        }
    }
}

/// What Proposition 3.3 produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionReport {
    /// Certified locality radius `r` of the matrix.
    pub radius: usize,
    /// Cluster-separation distance `2r + 1`.
    pub separation: usize,
    /// `|dom(G)|`.
    pub graph_nodes: usize,
    /// Tuples of `G`'s `E` relation.
    pub graph_edges: usize,
    /// Number of cluster vertices `|V|`.
    pub clusters: usize,
    /// Number of exclusive clauses of `ψ₂`.
    pub clauses: usize,
    /// Per clause: the per-position iteration strategy and whether the
    /// paper's eager skip table was built for its large positions.
    pub clause_plans: Vec<ClauseReport>,
}

/// Enumeration plan of one clause.
#[derive(Debug, Clone, PartialEq)]
pub struct ClauseReport {
    /// Candidate-list length per position.
    pub list_sizes: Vec<usize>,
    /// Strategy per position.
    pub strategies: Vec<Strategy>,
    /// Eager skip entries across the clause's large positions (0 = lazy).
    pub skip_entries: usize,
    /// Per large position (in position order): whether the paper's eager
    /// table was actually built.
    pub eager_built: Vec<bool>,
    /// Per large position: whether an eager build was requested but a cost
    /// gate ([`SkipLimits`]) silently degraded the level to the lazy skip —
    /// the condition this report exists to surface.
    pub degraded: Vec<bool>,
    /// The estimated `E_k` materialization cost `|E₁| · d̃² · (k−1)` the
    /// gate compared against `ek_cost_limit` (identical across the
    /// clause's levels; 0 when the clause has no large positions).
    pub ek_cost: u64,
    /// Per large position: peak lazy-skip memo `(len, capacity)` across
    /// finished traversals (both 0 for eager levels or before any
    /// enumeration ran) — the growth the memo amortization bounds.
    pub lazy_memo_peaks: Vec<(usize, usize)>,
    /// Peak forbidden-set interner `(len, id-map capacity)` across finished
    /// traversals of this clause.
    pub vset_peak: (usize, usize),
}

impl Engine {
    /// As [`Engine::explain`], also reporting the state of the
    /// [`ArtifactCache`] the engine was built through — LRU capacity,
    /// live entries, artifact and counting-memo hit/miss counters, and
    /// evictions.
    pub fn explain_with_cache(&self, cache: &ArtifactCache) -> Explain {
        Explain {
            cache: Some(CacheReport::of(cache)),
            ..self.explain()
        }
    }

    /// Describe what the preprocessing built.
    pub fn explain(&self) -> Explain {
        let reduction = self.reduction().map(|red| {
            let edges = red.adjacency().pair_count();
            let clause_plans = self
                .enumerator()
                .map(|en| {
                    en.plans()
                        .iter()
                        .map(|p| ClauseReport {
                            list_sizes: p.list_sizes(),
                            strategies: p.strategies.clone(),
                            skip_entries: p.levels.iter().flatten().map(|l| l.skip_entries()).sum(),
                            eager_built: p.levels.iter().flatten().map(|l| l.eager_built).collect(),
                            degraded: p.levels.iter().flatten().map(|l| l.degraded).collect(),
                            ek_cost: p
                                .levels
                                .iter()
                                .flatten()
                                .map(|l| l.ek_cost)
                                .next()
                                .unwrap_or(0),
                            lazy_memo_peaks: p
                                .levels
                                .iter()
                                .flatten()
                                .map(|l| l.lazy_memo_peak())
                                .collect(),
                            vset_peak: p.vset_peak(),
                        })
                        .collect()
                })
                .unwrap_or_default();
            ReductionReport {
                radius: red.radius(),
                separation: red.separation(),
                graph_nodes: red.graph().cardinality(),
                graph_edges: edges,
                clusters: red.cluster_count(),
                clauses: red.query().clause_count(),
                clause_plans,
            }
        });
        Explain {
            arity: self.arity(),
            normalization: self.normalization().cloned(),
            reduction,
            count: self.count(),
            profile: self.profile().clone(),
            step5: self
                .reduction()
                .map(|r| r.step5_stats())
                .unwrap_or_default(),
            skip_limits: self.skip_limits(),
            cache: None,
        }
    }
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "arity: {}", self.arity)?;
        if let Some(n) = &self.normalization {
            let rewrites = if n.rewrites.is_empty() {
                "none (already canonical)".to_string()
            } else {
                n.rewrites.join(", ")
            };
            writeln!(f, "normalization: {rewrites}")?;
            writeln!(
                f,
                "canonical fingerprint: {:016x}{}",
                n.fingerprint,
                if n.fallback {
                    " (localize fallback: built from original syntax, uncached)"
                } else {
                    " (workload grouping key)"
                }
            )?;
        }
        writeln!(f, "answers: {}", self.count)?;
        match &self.reduction {
            None => writeln!(f, "sentence: decided during preprocessing")?,
            Some(r) => {
                writeln!(
                    f,
                    "locality radius: {} (separation {})",
                    r.radius, r.separation
                )?;
                writeln!(
                    f,
                    "colored graph: {} nodes ({} clusters), {} E-tuples",
                    r.graph_nodes, r.clusters, r.graph_edges
                )?;
                writeln!(f, "exclusive clauses: {}", r.clauses)?;
                let s5 = &self.step5;
                writeln!(
                    f,
                    "step 5: {} partition(s) skipped, {} type(s) filtered, \
                     {} combination(s) emitted as products, {} scanned",
                    s5.partitions_skipped,
                    s5.types_filtered,
                    s5.product_combinations,
                    s5.scanned_combinations
                )?;
                let large = r
                    .clause_plans
                    .iter()
                    .flat_map(|c| &c.strategies)
                    .filter(|&&s| s == Strategy::Large)
                    .count();
                let eager: usize = r.clause_plans.iter().map(|c| c.skip_entries).sum();
                writeln!(
                    f,
                    "enumeration: {large} large position(s) across clauses, \
                     {eager} eager skip entries (0 = lazy skip)"
                )?;
                let built: usize = r
                    .clause_plans
                    .iter()
                    .map(|c| c.eager_built.iter().filter(|&&b| b).count())
                    .sum();
                let degraded: usize = r
                    .clause_plans
                    .iter()
                    .map(|c| c.degraded.iter().filter(|&&d| d).count())
                    .sum();
                let ek_cost = r.clause_plans.iter().map(|c| c.ek_cost).max().unwrap_or(0);
                writeln!(
                    f,
                    "eager gates: {built} level(s) built, {degraded} degraded to lazy \
                     (E_k cost {ek_cost}, limit {}, table limit {})",
                    self.skip_limits.ek_cost_limit, self.skip_limits.eager_skip_limit
                )?;
                let memo_len: usize = r
                    .clause_plans
                    .iter()
                    .flat_map(|c| &c.lazy_memo_peaks)
                    .map(|&(len, _)| len)
                    .sum();
                let memo_cap: usize = r
                    .clause_plans
                    .iter()
                    .flat_map(|c| &c.lazy_memo_peaks)
                    .map(|&(_, cap)| cap)
                    .sum();
                let vset_len: usize = r.clause_plans.iter().map(|c| c.vset_peak.0).sum();
                let vset_cap: usize = r.clause_plans.iter().map(|c| c.vset_peak.1).sum();
                if memo_cap + vset_cap > 0 {
                    writeln!(
                        f,
                        "lazy memo peaks: {memo_len} entries (capacity {memo_cap}), \
                         {vset_len} forbidden set(s) (capacity {vset_cap})"
                    )?;
                }
                writeln!(f, "build stages: {}", self.profile)?;
            }
        }
        if let Some(c) = &self.cache {
            writeln!(
                f,
                "artifact cache: {}/{} entries, {} hit(s) / {} miss(es), {} eviction(s)",
                c.entries, c.capacity, c.hits, c.misses, c.evictions
            )?;
            writeln!(
                f,
                "counting memo: {} component(s), {} hit(s) / {} miss(es)",
                c.memo_components, c.memo_hits, c.memo_misses
            )?;
            writeln!(
                f,
                "clause tier: {} hit(s) / {} miss(es), {} eviction(s); \
                 combo counts: {} hit(s) / {} miss(es)",
                c.clause_hits, c.clause_misses, c.clause_evictions, c.combo_hits, c.combo_misses
            )?;
            writeln!(
                f,
                "position lists: {} color set(s), {} hit(s) / {} miss(es)",
                c.position_sets, c.position_hits, c.position_misses
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
    use lowdeg_index::Epsilon;
    use lowdeg_logic::parse_query;

    #[test]
    fn explain_reduced_query() {
        let s = ColoredGraphSpec::balanced(40, DegreeClass::Bounded(3)).generate(61);
        let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        let engine = Engine::build(&s, &q, Epsilon::new(0.5)).unwrap();
        let ex = engine.explain();
        assert_eq!(ex.arity, 2);
        let r = ex.reduction.as_ref().expect("reduced");
        assert_eq!(r.radius, 0);
        assert_eq!(r.separation, 1);
        assert!(r.clusters > 0);
        assert_eq!(r.clause_plans.len(), r.clauses);
        for c in &r.clause_plans {
            assert_eq!(c.list_sizes.len(), 2);
            assert_eq!(c.strategies.len(), 2);
        }
        for c in &r.clause_plans {
            // one flag per large position, and a gate cannot both build
            // and degrade the same level
            let large = c
                .strategies
                .iter()
                .filter(|&&s| s == Strategy::Large)
                .count();
            assert_eq!(c.eager_built.len(), large);
            assert_eq!(c.degraded.len(), large);
            assert_eq!(c.lazy_memo_peaks.len(), large);
            for (b, d) in c.eager_built.iter().zip(&c.degraded) {
                assert!(!(b & d), "built and degraded are exclusive");
            }
        }
        assert_eq!(
            ex.skip_limits.ek_cost_limit,
            crate::enumerate::EK_COST_LIMIT
        );
        let rendered = ex.to_string();
        assert!(rendered.contains("locality radius: 0"));
        assert!(rendered.contains("exclusive clauses:"));
        assert!(rendered.contains("eager gates:"));
        assert!(rendered.contains("degraded to lazy"));
        assert!(rendered.contains("build stages:"));
        assert!(rendered.contains("extract"));
        assert!(rendered.contains("ie-count"));
        assert!(rendered.contains("warm-up"));
    }

    #[test]
    fn explain_surfaces_degradation_and_memo_growth() {
        use crate::{EngineConfig, SkipMode};
        use lowdeg_par::ParConfig;
        use std::ops::ControlFlow;
        // Bounded(2) keeps d̃ small enough that the candidate lists cross the
        // `(k-1)·d̃` threshold, so the plans actually contain Large levels.
        let s = ColoredGraphSpec::balanced(400, DegreeClass::Bounded(2)).generate(61);
        let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        let config = EngineConfig {
            skip_mode: SkipMode::Eager,
            eps: Epsilon::new(0.5),
            ..EngineConfig::default()
        };
        // force every eager level to degrade
        let tiny = SkipLimits {
            ek_cost_limit: 0,
            eager_skip_limit: 0,
        };
        let engine =
            Engine::build_limited(&s, &q, &config, tiny, &ParConfig::serial(), None).unwrap();
        // run one full enumeration so the memo watermarks are recorded
        engine.for_each_answer(|_| ControlFlow::Continue(()));
        let ex = engine.explain();
        assert_eq!(ex.skip_limits.ek_cost_limit, 0);
        let r = ex.reduction.as_ref().expect("reduced");
        let degraded: usize = r
            .clause_plans
            .iter()
            .map(|c| c.degraded.iter().filter(|&&d| d).count())
            .sum();
        assert!(degraded > 0, "0-limit must degrade large levels");
        let vset_cap: usize = r.clause_plans.iter().map(|c| c.vset_peak.1).sum();
        assert!(vset_cap > 0, "traversal must record interner watermarks");
        let rendered = ex.to_string();
        assert!(rendered.contains("eager gates: 0 level(s) built"));
        assert!(rendered.contains("limit 0"));
        assert!(rendered.contains("lazy memo peaks:"));
    }

    #[test]
    fn explain_with_cache_reports_counters() {
        use crate::{ArtifactCache, EngineConfig};
        use lowdeg_par::ParConfig;
        let s = ColoredGraphSpec::balanced(40, DegreeClass::Bounded(3)).generate(61);
        let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        let cache = ArtifactCache::with_capacity(8);
        let par = ParConfig::serial();
        let config = EngineConfig {
            eps: Epsilon::new(0.5),
            ..EngineConfig::default()
        };
        let _first = Engine::build_configured(&s, &q, &config, &par, Some(&cache)).unwrap();
        let warm = Engine::build_configured(&s, &q, &config, &par, Some(&cache)).unwrap();
        let ex = warm.explain_with_cache(&cache);
        let c = ex.cache.as_ref().expect("cache report");
        assert_eq!(c.capacity, 8);
        assert!(c.entries > 0);
        assert!(c.hits > 0, "second build must hit the artifact cache");
        assert!(c.memo_components > 0);
        assert!(
            c.memo_hits + c.combo_hits > 0,
            "second build must hit the counting memo's component or combination tier"
        );
        assert_eq!(c.evictions, 0);
        let rendered = ex.to_string();
        assert!(rendered.contains("artifact cache:"));
        assert!(rendered.contains("counting memo:"));
        // cache-less explain stays cache-silent
        assert!(warm.explain().cache.is_none());
        assert!(!warm.explain().to_string().contains("artifact cache:"));
    }

    /// The `step 5:` counters: two-hop's split partition is skipped and
    /// nothing is scanned; a rebuild whose clause sets a cache serves
    /// counts nothing.
    #[test]
    fn explain_reports_step5_counters() {
        use crate::{ArtifactCache, EngineConfig};
        use lowdeg_par::ParConfig;
        let s = ColoredGraphSpec::balanced(60, DegreeClass::Bounded(3)).generate(63);
        let par = ParConfig::serial();
        let config = EngineConfig {
            eps: Epsilon::new(0.5),
            ..EngineConfig::default()
        };
        let step5 = |src: &str, cache: Option<&ArtifactCache>| {
            let q = parse_query(s.signature(), src).unwrap();
            let engine = Engine::build_configured(&s, &q, &config, &par, cache).unwrap();
            let ex = engine.explain();
            assert!(ex.to_string().contains("step 5: "));
            ex.step5
        };
        let hop = step5("exists z. E(x, z) & E(z, y)", None);
        assert_eq!(hop.partitions_skipped, 1);
        assert_eq!(hop.scanned_combinations, 0);
        assert!(hop.types_filtered > 0 && hop.product_combinations > 0);

        // residual: the nested `∨` spans the split partition's parts
        let nested = step5("(B(x) | R(y)) & !E(x, y)", None);
        assert!(nested.scanned_combinations > 0);

        let cache = ArtifactCache::new();
        let pair = "(B(x) & R(y) & !E(x, y)) | (G(x) & B(y) & !E(x, y))";
        assert_ne!(step5(pair, Some(&cache)), Step5Stats::default());
        // a rewrite variant hits both clause sets
        let variant = "(G(x) & B(y) & !E(x, y)) | (B(x) & R(y) & !E(x, y))";
        assert_eq!(step5(variant, Some(&cache)), Step5Stats::default());
        // a query of already-accepted clauses hits the clause tier
        assert_eq!(
            step5("B(x) & R(y) & !E(x, y)", Some(&cache)),
            Step5Stats::default()
        );
    }

    #[test]
    fn explain_sentence() {
        let s = ColoredGraphSpec::balanced(20, DegreeClass::Bounded(3)).generate(62);
        let q = parse_query(s.signature(), "exists x. B(x)").unwrap();
        let engine = Engine::build(&s, &q, Epsilon::new(0.5)).unwrap();
        let ex = engine.explain();
        assert_eq!(ex.arity, 0);
        assert!(ex.reduction.is_none());
        assert!(ex.to_string().contains("sentence"));
    }
}
