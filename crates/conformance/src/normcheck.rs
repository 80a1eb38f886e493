//! Rewrite-normalization row: syntactic variants of one query must be
//! observably identical under the default normalizing build.
//!
//! The engine normalizes every query before building
//! ([`lowdeg_logic::normalize()`]), so two queries in the same rewrite class
//! — shuffled conjuncts, double negations, reassociated conjunctions —
//! collapse onto one canonical form with one fingerprint and the same
//! canonical clauses, so a warm build of any variant reads its Step 5
//! acceptance from the cache's clause tier and its count from the
//! counting memo's combination tier. The contract is
//! strict: every variant's engine must agree with the base query's engine
//! on the count, the full enumeration *order*, and the per-clause plan
//! statistics — and [`Engine::build_workload`] over the family must group
//! it onto a single shared engine that also agrees.
//!
//! When the base build *fell back* to its original syntax (the normal
//! form failed to localize), variants legitimately diverge — each builds
//! its own original — so the case is skipped; the differential row still
//! covers each variant individually.

use crate::oracle::{observe, with_formula, Oracle, Verdict};
use lowdeg_core::{ArtifactCache, Engine, EngineConfig};
use lowdeg_logic::{normalize, Formula, Query};
use lowdeg_par::ParConfig;

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

/// The rewrite-normalization row: build `q` and its syntactic rewrite
/// variants under the default normalizing configuration; report every
/// observable difference, every fingerprint split, and any workload batch
/// that fails to group the family onto one engine.
pub const ORACLE: Oracle = Oracle {
    name: "normcheck",
    check: |case, out| {
        let par = ParConfig::serial();
        let config = EngineConfig::default();
        let Ok(base) = Engine::build_configured(case.s, case.q, &config, &par, None) else {
            return Verdict::Skipped; // rejection is the differential row's business
        };
        let family = variants(case.q);
        let fingerprint = match base.normalization() {
            Some(info) if !info.fallback && !family.is_empty() => info.fingerprint,
            // no variants, or a fallback build (variants build their own originals)
            _ => return Verdict::Skipped,
        };
        let want = observe(&base);

        for (label, v) in &family {
            // same rewrite class ⇒ same canonical fingerprint
            let vfp = normalize(v).fingerprint;
            if vfp != fingerprint {
                let detail = format!("variant `{label}`: {vfp:016x} vs base {fingerprint:016x}");
                out.fail("fingerprint", detail);
                continue;
            }
            // the base's normal form localized, and the variant shares
            // it, so the variant must build
            let built = Engine::build_configured(case.s, v, &config, &par, None);
            if let Some(e) = out.candidate(&format!("variant `{label}`"), built) {
                out.compare(&format!("base vs variant `{label}`"), &want, &observe(&e));
            }
        }

        // the workload planner must group the whole family onto one engine
        let mut refs: Vec<&Query> = vec![case.q];
        refs.extend(family.iter().map(|(_, v)| v));
        let built = Engine::build_workload(case.s, &refs, &config, &par, &ArtifactCache::new());
        if let Some((engines, stats)) = out.candidate("the family's workload", built) {
            let (n, cores) = (refs.len(), stats.distinct_cores);
            if cores != 1 {
                let detail = format!("{n} same-class queries built {cores} cores");
                out.fail("workload-grouping", detail);
            }
            for ((label, _), e) in family.iter().zip(&engines[1..]) {
                out.compare(&format!("base vs workload `{label}`"), &want, &observe(e));
            }
        }
        Verdict::Checked
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
    use lowdeg_logic::parse_query;

    #[test]
    fn standing_corpus_is_clean() {
        crate::oracle::assert_corpus_clean(&ORACLE);
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
