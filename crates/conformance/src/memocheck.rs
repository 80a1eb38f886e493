//! Counting-memo sharing oracle: per-query vs shared-core builds.
//!
//! The [`ArtifactCache`] keeps one [`lowdeg_core::CountingMemo`] per
//! quantifier-free core `(structure, r, k, ε)`; the ie-count stage drains
//! into it, so lattice components counted by any earlier build are probe
//! hits for every later build against the same core. The contract is
//! strict because memo entries are *exact* counts: an engine built with a
//! warm memo — whether warmed by the same query or a sibling query — must
//! be observably identical to one built with no cache at all. Same count,
//! same enumeration order, same per-clause plan statistics.
//!
//! Each case builds a three-query family (the case query thrice — every
//! component signature repeats, so sharing is maximally exercised) two
//! ways: independently with a fresh cache per build, and sequentially
//! through one shared cache. A shared-memo run in which the repeated builds never hit the memo
//! (while components were actually discovered) would pass vacuously, so
//! that is reported as a disagreement too.

use crate::differential::{engine_config, Disagreement};
use crate::parcheck::{plan_stats, PlanStats};
use lowdeg_core::{ArtifactCache, Engine, SkipMode};
use lowdeg_index::Epsilon;
use lowdeg_logic::Query;
use lowdeg_par::ParConfig;
use lowdeg_storage::{Node, Structure};

/// The family size: the case query built this many times per arm.
const FAMILY: usize = 3;

/// One engine's observable surface, for cross-arm comparison.
struct Observed {
    count: u64,
    answers: Vec<Vec<Node>>,
    stats: Option<Vec<PlanStats>>,
}

fn observe(e: &Engine) -> Observed {
    Observed {
        count: e.count(),
        answers: e.enumerate().collect(),
        stats: e.enumerator().map(plan_stats),
    }
}

/// Compare `got` against the no-cache baseline `want`.
fn compare(
    tag: &str,
    arm: &str,
    i: usize,
    want: &Observed,
    got: &Observed,
    bad: &mut Vec<Disagreement>,
) {
    if want.count != got.count {
        bad.push(Disagreement {
            check: "memocheck-count".into(),
            detail: format!(
                "[{tag}] query {i}: independent count {} vs {arm} count {}",
                want.count, got.count
            ),
        });
    }
    if want.answers != got.answers {
        let first = want
            .answers
            .iter()
            .zip(&got.answers)
            .position(|(x, y)| x != y)
            .unwrap_or(want.answers.len().min(got.answers.len()));
        bad.push(Disagreement {
            check: "memocheck-enumeration-order".into(),
            detail: format!(
                "[{tag}] query {i}: enumeration diverges from {arm} at output {first}: \
                 {:?} vs {:?} ({} vs {} outputs total)",
                want.answers.get(first),
                got.answers.get(first),
                want.answers.len(),
                got.answers.len()
            ),
        });
    }
    if want.stats != got.stats {
        bad.push(Disagreement {
            check: "memocheck-plan-stats".into(),
            detail: format!(
                "[{tag}] query {i}: plan stats differ: independent {:?} vs {arm} {:?}",
                want.stats, got.stats
            ),
        });
    }
}

/// Build the case's query family independently and through one shared
/// counting memo; report every observable difference.
pub fn memocheck_case(s: &Structure, q: &Query) -> Vec<Disagreement> {
    let mut bad = Vec::new();
    let eps = Epsilon::default_eps();
    let par = ParConfig::serial();
    let queries: Vec<&Query> = vec![q; FAMILY];

    for mode in [SkipMode::Eager, SkipMode::Lazy] {
        let tag = format!("{mode:?}");
        let config = engine_config(eps, mode);

        // arm 1 — independent: a fresh cache per build, no sharing at all
        let independent: Vec<Observed> = {
            let mut out = Vec::with_capacity(FAMILY);
            let mut ok = true;
            for qi in &queries {
                let fresh = ArtifactCache::new();
                match Engine::build_configured(s, qi, &config, &par, Some(&fresh)) {
                    Ok(e) => out.push(observe(&e)),
                    Err(_) => {
                        ok = false; // rejection is the differential oracle's business
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            out
        };

        // arm 2 — shared core: one cache, builds in sequence; every build
        // after the first probes a memo warmed by its predecessors
        let shared_cache = ArtifactCache::new();
        let mut shared = Vec::with_capacity(FAMILY);
        let mut failed = false;
        for (i, qi) in queries.iter().enumerate() {
            match Engine::build_configured(s, qi, &config, &par, Some(&shared_cache)) {
                Ok(e) => shared.push(observe(&e)),
                Err(e) => {
                    bad.push(Disagreement {
                        check: "memocheck-build".into(),
                        detail: format!(
                            "[{tag}] independent build succeeded, shared-core build {i} failed: {e}"
                        ),
                    });
                    failed = true;
                    break;
                }
            }
        }
        if failed {
            continue;
        }
        let (hits, misses, components) = shared_cache.counting_stats();
        if hits == 0 && misses > 0 {
            bad.push(Disagreement {
                check: "memocheck-no-hit".into(),
                detail: format!(
                    "[{tag}] {FAMILY} shared-core builds discovered {components} components \
                     ({misses} misses) yet the repeats never hit the memo"
                ),
            });
        }

        for (i, want) in independent.iter().enumerate() {
            compare(&tag, "shared-core", i, want, &shared[i], &mut bad);
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
    use lowdeg_logic::parse_query;

    #[test]
    fn shared_arm_agrees_with_independent() {
        for seed in [1, 2, 3] {
            let s = ColoredGraphSpec::balanced(30, DegreeClass::Bounded(3)).generate(seed);
            for src in [
                "B(x) & R(y) & !E(x, y)",
                "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)",
                "exists z. E(x, z) & E(z, y)",
            ] {
                let q = parse_query(s.signature(), src).unwrap();
                let bad = memocheck_case(&s, &q);
                assert!(bad.is_empty(), "seed {seed} `{src}`: {bad:?}");
            }
        }
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
        let config = engine_config(Epsilon::default_eps(), SkipMode::Eager);
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
