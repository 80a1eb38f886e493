//! Rewrite-normalization oracle: syntactic variants of one query must be
//! observably identical under the default normalizing build.
//!
//! The engine normalizes every query before building
//! ([`lowdeg_logic::normalize()`]), so two queries in the same rewrite class
//! — shuffled conjuncts, double negations, reassociated conjunctions —
//! collapse onto one canonical form with one fingerprint, one cached
//! Step 5 acceptance product, and one whole-query count. The contract is
//! strict: every variant's engine must agree with the base query's engine
//! on the count, the full enumeration *order*, and the per-clause plan
//! statistics — and [`Engine::build_workload`] over the family must group
//! it onto a single shared engine that also agrees.
//!
//! When the base build *fell back* to its original syntax (the normal
//! form failed to localize), variants legitimately diverge — each builds
//! its own original — so the case is skipped; the differential oracle
//! still covers each variant individually.

use crate::differential::Disagreement;
use crate::parcheck::{plan_stats, PlanStats};
use lowdeg_core::{ArtifactCache, Engine, EngineConfig};
use lowdeg_index::Epsilon;
use lowdeg_logic::{normalize, Formula, Query};
use lowdeg_par::ParConfig;
use lowdeg_storage::{Node, Structure};

/// One engine's observable surface, for cross-variant comparison.
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

/// Rebuild `q` with `formula` in place of its matrix, keeping the free
/// list and variable table. `None` when the variant fails the [`Query`]
/// well-formedness checks (it then is not a valid rewrite).
fn with_formula(q: &Query, formula: Formula) -> Option<Query> {
    Query::new(q.signature.clone(), q.free.clone(), formula, q.vars.clone()).ok()
}

/// Purely syntactic rewrites of `q` — members of its rewrite class, never
/// of a different one. Each pairs the variant with a stable label.
fn variants(q: &Query) -> Vec<(&'static str, Query)> {
    let mut out = Vec::new();
    // double negation of the whole matrix
    if let Some(v) = with_formula(
        q,
        Formula::Not(Box::new(Formula::Not(Box::new(q.formula.clone())))),
    ) {
        out.push(("double-negation", v));
    }
    match &q.formula {
        Formula::And(parts) if parts.len() >= 2 => {
            // reversed conjunct order
            let mut rev = parts.clone();
            rev.reverse();
            if let Some(v) = with_formula(q, Formula::And(rev)) {
                out.push(("reversed-conjuncts", v));
            }
            // reassociated: And([And(first two), rest…])
            if parts.len() >= 3 {
                let mut nested = vec![Formula::And(parts[..2].to_vec())];
                nested.extend(parts[2..].iter().cloned());
                if let Some(v) = with_formula(q, Formula::And(nested)) {
                    out.push(("nested-conjunction", v));
                }
            }
        }
        Formula::Exists(vs, body) => {
            // push the double negation under the quantifier block
            let inner = Formula::Not(Box::new(Formula::Not(body.clone())));
            if let Some(v) = with_formula(q, Formula::Exists(vs.clone(), Box::new(inner))) {
                out.push(("inner-double-negation", v));
            }
        }
        _ => {}
    }
    out
}

/// Compare a variant's observables against the base query's.
fn compare(label: &str, want: &Observed, got: &Observed, bad: &mut Vec<Disagreement>) {
    if want.count != got.count {
        bad.push(Disagreement {
            check: "normcheck-count".into(),
            detail: format!(
                "variant `{label}`: base count {} vs variant count {}",
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
            check: "normcheck-enumeration-order".into(),
            detail: format!(
                "variant `{label}`: enumeration diverges at output {first}: \
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
            check: "normcheck-plan-stats".into(),
            detail: format!(
                "variant `{label}`: plan stats differ: base {:?} vs variant {:?}",
                want.stats, got.stats
            ),
        });
    }
}

/// Build `q` and its syntactic rewrite variants under the default
/// normalizing configuration; report every observable difference, every
/// fingerprint split, and any workload batch that fails to group the
/// family onto one engine.
pub fn normcheck_case(s: &Structure, q: &Query) -> Vec<Disagreement> {
    let mut bad = Vec::new();
    let eps = Epsilon::default_eps();
    let par = ParConfig::serial();
    let config = EngineConfig {
        eps,
        ..EngineConfig::default()
    };

    let base = match Engine::build_configured(s, q, &config, &par, None) {
        Ok(e) => e,
        Err(_) => return bad, // rejection is the differential oracle's business
    };
    let base_info = base
        .normalization()
        .expect("normalizing build records its decision")
        .clone();
    if base_info.fallback {
        return bad; // variants build their own originals; orders may differ
    }
    let base_obs = observe(&base);
    let family = variants(q);

    for (label, v) in &family {
        // same rewrite class ⇒ same canonical fingerprint
        let vfp = normalize(v).fingerprint;
        if vfp != base_info.fingerprint {
            bad.push(Disagreement {
                check: "normcheck-fingerprint".into(),
                detail: format!(
                    "variant `{label}`: fingerprint {vfp:016x} differs from base {:016x}",
                    base_info.fingerprint
                ),
            });
            continue;
        }
        // the base's normal form localized, and the variant shares it, so
        // the variant must build
        match Engine::build_configured(s, v, &config, &par, None) {
            Ok(e) => compare(label, &base_obs, &observe(&e), &mut bad),
            Err(e) => bad.push(Disagreement {
                check: "normcheck-build".into(),
                detail: format!("base built but variant `{label}` failed: {e}"),
            }),
        }
    }

    // the workload planner must group the whole family onto one engine
    if !family.is_empty() {
        let mut refs: Vec<&Query> = vec![q];
        refs.extend(family.iter().map(|(_, v)| v));
        let cache = ArtifactCache::new();
        match Engine::build_workload(s, &refs, &config, &par, &cache) {
            Ok((engines, stats)) => {
                if stats.distinct_cores != 1 {
                    bad.push(Disagreement {
                        check: "normcheck-workload-grouping".into(),
                        detail: format!(
                            "{} same-class queries built {} distinct cores",
                            refs.len(),
                            stats.distinct_cores
                        ),
                    });
                }
                for ((label, _), e) in family.iter().zip(engines.iter().skip(1)) {
                    compare(
                        &format!("workload:{label}"),
                        &base_obs,
                        &observe(e),
                        &mut bad,
                    );
                }
            }
            Err(e) => bad.push(Disagreement {
                check: "normcheck-build".into(),
                detail: format!("base built but build_workload failed: {e}"),
            }),
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
    fn standing_corpus_is_clean() {
        for seed in [1, 2, 3] {
            let s = ColoredGraphSpec::balanced(30, DegreeClass::Bounded(3)).generate(seed);
            for src in [
                "B(x) & R(y) & !E(x, y)",
                "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)",
                "exists z. E(x, z) & E(z, y)",
                "B(x) & !R(x)",
            ] {
                let q = parse_query(s.signature(), src).unwrap();
                let bad = normcheck_case(&s, &q);
                assert!(bad.is_empty(), "seed {seed} `{src}`: {bad:?}");
            }
        }
    }

    #[test]
    fn variants_are_generated_and_nontrivial() {
        let s = ColoredGraphSpec::balanced(10, DegreeClass::Bounded(3)).generate(1);
        let q = parse_query(
            s.signature(),
            "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)",
        )
        .unwrap();
        let vs = variants(&q);
        assert!(vs.len() >= 3, "conjunctive query yields all variants");
        let fp = normalize(&q).fingerprint;
        for (label, v) in &vs {
            assert_ne!(&v.formula, &q.formula, "`{label}` must change the syntax");
            assert_eq!(normalize(v).fingerprint, fp, "`{label}` stays in class");
        }
    }

    #[test]
    fn a_genuinely_different_query_is_not_grouped() {
        // guard against an over-eager fingerprint: transposed answer
        // columns are a *different* query
        let s = ColoredGraphSpec::balanced(10, DegreeClass::Bounded(3)).generate(2);
        let a = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        let b = parse_query(s.signature(), "R(x) & B(y) & !E(x, y)").unwrap();
        assert_ne!(normalize(&a).fingerprint, normalize(&b).fingerprint);
    }
}
