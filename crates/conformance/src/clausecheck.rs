//! Clause-sharing row: the clause-granular workload planner must be
//! observably identical to the whole-core planner, and must actually
//! share.
//!
//! From a multi-clause case query this row derives a *partial-overlap
//! family*: two-clause disjunctions over the query's own canonical
//! clauses, arranged so every clause rides in at least two family members
//! but no two members are the same query (a wheel `c_i ∨ c_{i+1}` for
//! three or more clauses, `{c_0 ∨ c_1, c_0, c_1}` for exactly two). The
//! family then builds twice through [`Engine::build_workload`]: once with
//! `clause_sharing` enabled (clause acceptance sets and combination
//! counts stitch from the [`ArtifactCache`]'s clause tier and the counting
//! memo's combination tier) and once with the whole-core planner
//! (`clause_sharing: false`, the reference arm, which shares the core but
//! runs every build's own Step 5 pass and lattice), each on a fresh
//! cache. The contract is strict: per query, both arms
//! must agree on the count, the full enumeration *order*, and the
//! per-clause plan statistics; the planner statistics must agree on the distinct-clause
//! decomposition; and — the memo-vacuity check — the sharing arm must
//! report clause-tier hits while the whole-core arm must report none, so
//! a regression that silently stops sharing (and would keep every answer
//! correct) still fails conformance.
//!
//! Members that *fall back* to their original syntax (the normal form
//! failed to localize) keep the bit-identity contract but waive the
//! vacuity check — a fallback build never probes the clause tier.
//!
//! Before the family, every case query of arity ≥ 1 — single-clause ones
//! included, which the row then skips — must get the same Step 5
//! acceptance from `Reduction::build`, which accepts each clause as a
//! product of per-part filtered type lists, and from
//! `Reduction::build_reference`, which evaluates the whole matrix on every
//! partition × type combination (`clausecheck-step5`): the same exclusive
//! clauses in the same order, or the same build error.

use crate::oracle::{observe, with_formula, Findings, Oracle, Verdict};
use lowdeg_core::reduction::DEFAULT_COMBINATION_BUDGET;
use lowdeg_core::{ArtifactCache, Engine, EngineConfig, GraphQuery, Reduction};
use lowdeg_index::Epsilon;
use lowdeg_logic::{normalize, ClauseForm, Formula, Query};
use lowdeg_par::ParConfig;
use lowdeg_storage::{RelId, Structure};

/// The product acceptance of `Reduction::build` against the full scan of
/// `Reduction::build_reference`: same clause list, or the same error.
fn check_step5(s: &Structure, q: &Query, out: &mut Findings) {
    if q.arity() == 0 {
        return; // sentences have no Step 5
    }
    let (eps, par) = (Epsilon::default_eps(), ParConfig::serial());
    let product = Reduction::build(s, q, eps, &par);
    let scan = Reduction::build_reference(s, q, eps, DEFAULT_COMBINATION_BUDGET, &par);
    match (product, scan) {
        (Ok(a), Ok(b)) => {
            let (got, want) = (clause_colors(a.query()), clause_colors(b.query()));
            if got != want {
                let at = got.iter().zip(&want).position(|(x, y)| x != y);
                let detail = format!(
                    "product acceptance {} clause(s) vs full scan {} (first difference at {at:?})",
                    got.len(),
                    want.len()
                );
                out.fail("step5", detail);
            }
        }
        (Err(a), Err(b)) if a == b => {}
        (a, b) => {
            let (a, b) = (a.err(), b.err());
            out.fail("step5", format!("build outcome {a:?} vs full scan {b:?}"));
        }
    }
}

/// Each clause's decoded colors, position by position, in clause order.
fn clause_colors(gq: &GraphQuery) -> Vec<Vec<&[RelId]>> {
    (0..gq.clause_count())
        .map(|c| gq.clause(c).iter().map(|&s| gq.set_colors(s)).collect())
        .collect()
}

/// A family member: the disjunction of the given canonical clauses, over
/// the canonical query's free list and variable table. `None` when the
/// combination fails the [`Query`] well-formedness checks.
fn member(canonical: &Query, clauses: &[&ClauseForm]) -> Option<Query> {
    let formula = if clauses.len() == 1 {
        clauses[0].formula.clone()
    } else {
        Formula::Or(clauses.iter().map(|c| c.formula.clone()).collect())
    };
    with_formula(canonical, formula)
}

/// The partial-overlap family of a normal form with `m ≥ 2` clauses.
fn family(canonical: &Query, clauses: &[ClauseForm]) -> Option<Vec<Query>> {
    let m = clauses.len();
    let mut out = Vec::new();
    if m == 2 {
        out.push(member(canonical, &[&clauses[0], &clauses[1]])?);
        out.push(member(canonical, &[&clauses[0]])?);
        out.push(member(canonical, &[&clauses[1]])?);
    } else {
        for i in 0..m {
            out.push(member(canonical, &[&clauses[i], &clauses[(i + 1) % m]])?);
        }
    }
    Some(out)
}

/// The clause-sharing row. Queries whose normal form has fewer than two
/// clauses have nothing to share and are skipped.
pub const ORACLE: Oracle = Oracle {
    name: "clausecheck",
    check: |case, out| {
        check_step5(case.s, case.q, out);
        let nf = normalize(case.q);
        let members = (nf.clauses.len() >= 2)
            .then(|| family(&nf.query, &nf.clauses))
            .flatten();
        let Some(members) = members else {
            return Verdict::Skipped; // nothing to share, or a member is ill-formed
        };
        let refs: Vec<&Query> = members.iter().collect();
        let par = ParConfig::serial();
        let build = |cfg: &EngineConfig| {
            Engine::build_workload(case.s, &refs, cfg, &par, &ArtifactCache::new())
        };
        let shared = build(&EngineConfig::default());
        let whole_cfg = EngineConfig {
            clause_sharing: false,
            ..EngineConfig::default()
        };
        let (whole_engines, whole) = match (build(&whole_cfg), &shared) {
            (Ok(built), _) => built,
            (Err(_), Err(_)) => return Verdict::Skipped, // the differential row's business
            (Err(e), Ok(_)) => {
                out.fail("build", format!("whole-core arm alone failed: {e}"));
                return Verdict::Checked;
            }
        };
        let Some((engines, stats)) = out.candidate("the clause-shared arm", shared) else {
            return Verdict::Checked;
        };

        for (i, (a, b)) in whole_engines.iter().zip(&engines).enumerate() {
            let at = format!("member {i}: whole-core vs clause-shared");
            out.compare(&at, &observe(a), &observe(b));
        }
        let (a, b) = (whole.distinct_clauses, stats.distinct_clauses);
        if a != b {
            let detail = format!("distinct clauses: whole-core {a} vs clause-shared {b}");
            out.fail("plan-stats", detail);
        }
        let hits = whole.clause_cache_hits;
        if hits != 0 {
            let detail = format!("whole-core planner hit the clause tier {hits} time(s)");
            out.fail("vacuity", detail);
        }
        // Memo-vacuity: with every clause riding in ≥ 2 members and no
        // fallback build, the sharing arm must have stitched at least one
        // clause artifact from the tier — bit-identity alone would also
        // pass if sharing silently stopped firing.
        let any_fallback = engines
            .iter()
            .any(|e| e.normalization().is_none_or(|n| n.fallback));
        if !any_fallback && stats.distinct_clauses >= 2 && stats.clause_cache_hits == 0 {
            let (n, m) = (refs.len(), stats.distinct_clauses);
            let detail = format!("{n} members over {m} distinct clauses: no clause-tier hit");
            out.fail("vacuity", detail);
        }
        Verdict::Checked
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::run_row;
    use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
    use lowdeg_logic::parse_query;

    #[test]
    fn standing_corpus_is_clean() {
        crate::oracle::assert_corpus_clean(&ORACLE);
    }

    #[test]
    fn single_clause_queries_are_skipped() {
        let s = ColoredGraphSpec::balanced(10, DegreeClass::Bounded(2)).generate(1);
        let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        let (verdict, bad) = run_row(&ORACLE, &s, &q);
        assert!(bad.is_empty(), "{bad:?}");
        assert_eq!(verdict, Verdict::Skipped);
    }

    #[test]
    fn family_members_cover_pairwise_overlap() {
        let s = ColoredGraphSpec::balanced(10, DegreeClass::Bounded(2)).generate(1);
        let q = parse_query(
            s.signature(),
            "(B(x) & R(y) & !E(x, y)) | (R(x) & G(y) & !E(x, y)) | (G(x) & B(y) & E(x, y))",
        )
        .unwrap();
        let nf = normalize(&q);
        assert_eq!(nf.clauses.len(), 3);
        let members = family(&nf.query, &nf.clauses).unwrap();
        assert_eq!(members.len(), 3, "a three-clause wheel has three members");
        // every clause fingerprint appears in exactly two members
        for c in &nf.clauses {
            let uses = members
                .iter()
                .filter(|m| {
                    normalize(m)
                        .clauses
                        .iter()
                        .any(|mc| mc.fingerprint == c.fingerprint)
                })
                .count();
            assert_eq!(uses, 2, "clause {:016x} must ride twice", c.fingerprint);
        }
    }
}
