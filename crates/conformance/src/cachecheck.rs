//! Cold-build vs cached-build equivalence row.
//!
//! The [`ArtifactCache`] memoizes the reduction's *extract* products
//! (Gaifman graph, near-pair store, cluster tuples and canonical
//! encodings), each clause's Step 5 acceptance set, and, per
//! quantifier-free core, a [`lowdeg_core::CountingMemo`] of exact
//! Lemma 3.5 counts — per lattice component and per reduced clause
//! (combination) — that every later build against the same core probes.
//! The contract is strict: an engine built through a cache — priming it,
//! or warmed by earlier builds — must be *observably identical* to one
//! built with no cache at all. This row builds every case cold (the reference arm) and
//! then three times through one fresh cache, comparing each cached build
//! against the cold one.
//!
//! A warm build that never hits the cache would vacuously pass, so the
//! row also requires core-tier hits (`cachecheck-no-hit`) and, whenever
//! the builds probed the counting memo, hits in its component or
//! combination tier (`memocheck-no-hit`). A repeat build is served by the
//! combination tier — every combination hits, and the lattice and its
//! component probes are skipped — so the two tiers are read together.

use crate::differential::Disagreement;
use crate::oracle::{observe, per_mode, Oracle};
use lowdeg_core::{ArtifactCache, Engine};
use lowdeg_par::ParConfig;

/// Builds through the shared cache: one priming, two warm.
const CACHED_BUILDS: usize = 3;

/// The artifact-cache row.
pub const ORACLE: Oracle = Oracle {
    name: "cachecheck",
    check: |case, out| {
        let par = ParConfig::serial();
        per_mode(case, |tag, config, cold| {
            let want = observe(&cold);
            let cache = ArtifactCache::new();
            for i in 1..=CACHED_BUILDS {
                let arm = format!("cached build {i}");
                let built = Engine::build_configured(case.s, case.q, config, &par, Some(&cache));
                let Some(e) = out.candidate(&format!("[{tag}] {arm}"), built) else {
                    return;
                };
                out.compare(&format!("[{tag}] cold vs {arm}"), &want, &observe(&e));
            }
            if case.q.arity() > 0 && cache.stats().0 == 0 {
                let detail = format!("[{tag}] {CACHED_BUILDS} cached builds never hit the cache");
                out.fail("no-hit", detail);
            }
            let (memo_hits, memo_misses, components) = cache.counting_stats();
            let (combo_hits, combo_misses) = cache.combo_stats();
            let (hits, misses) = (memo_hits + combo_hits, memo_misses + combo_misses);
            if hits == 0 && misses > 0 {
                let detail = format!(
                    "[{tag}] {components} components, {misses} component and combination \
                     misses, no hit"
                );
                out.bad.push(Disagreement::new("memocheck-no-hit", detail));
            }
        })
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use lowdeg_core::EngineConfig;
    use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
    use lowdeg_logic::parse_query;
    use lowdeg_storage::Node;

    #[test]
    fn cold_and_warm_builds_agree() {
        crate::oracle::assert_corpus_clean(&ORACLE);
    }

    #[test]
    fn one_cache_across_distinct_structures_stays_correct() {
        // a single cache serving two different databases must key them apart
        let cache = ArtifactCache::new();
        let par = ParConfig::serial();
        let config = EngineConfig::default(); // eager skip mode, default ε
        for seed in [4, 5] {
            let s = ColoredGraphSpec::balanced(26, DegreeClass::Bounded(3)).generate(seed);
            let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
            let cold = Engine::build_configured(&s, &q, &config, &par, None).unwrap();
            let cached = Engine::build_configured(&s, &q, &config, &par, Some(&cache)).unwrap();
            assert_eq!(cold.count(), cached.count(), "seed {seed}");
            let a: Vec<_> = cold.enumerate().collect();
            let b: Vec<_> = cached.enumerate().collect();
            assert_eq!(a, b, "seed {seed}");
        }
        assert!(cache.entries() >= 4, "two structures, two artifact kinds");
    }

    #[test]
    fn permuted_color_family_agrees_and_shares() {
        // Color-permuted ternary queries share one quantifier-free core;
        // after ι-canonicalization their component signatures coincide, so
        // sequential builds through one cache must both agree with
        // independent builds and actually serve cross-query hits.
        let s = ColoredGraphSpec::balanced(36, DegreeClass::Bounded(3)).generate(9);
        let sources = [
            "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)",
            "R(x) & G(y) & B(z) & !E(x, y) & !E(y, z) & !E(x, z)",
            "G(x) & B(y) & R(z) & !E(x, y) & !E(y, z) & !E(x, z)",
        ];
        let queries: Vec<_> = sources
            .iter()
            .map(|src| parse_query(s.signature(), src).unwrap())
            .collect();
        let par = ParConfig::serial();
        let config = EngineConfig::default(); // eager skip mode, default ε
        let cache = ArtifactCache::new();
        for q in &queries {
            let e = Engine::build_configured(&s, q, &config, &par, Some(&cache)).unwrap();
            let solo = Engine::build_configured(&s, q, &config, &par, None).unwrap();
            assert_eq!(solo.count(), e.count());
            let a: Vec<Vec<Node>> = solo.enumerate().collect();
            let b: Vec<Vec<Node>> = e.enumerate().collect();
            assert_eq!(a, b);
        }
        let (hits, misses, _) = cache.counting_stats();
        assert!(
            misses == 0 || hits > 0,
            "permuted family produced components ({misses} misses) without any sharing"
        );
    }
}
