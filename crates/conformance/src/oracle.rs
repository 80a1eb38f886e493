//! The oracle table: every per-case check as one row of [`ORACLES`].
//!
//! A row is a stable name plus a check over one [`Case`]. Most rows share
//! one two-arm shape: a *reference* engine and a *candidate* engine that
//! must be observably identical to it, their `Observed` surfaces —
//! count, full enumeration order and per-clause [`PlanStats`] — compared
//! by `Findings::compare`. A reference arm that rejects the query skips
//! the row (rejection is the differential row's business); a candidate
//! arm that fails to build is a `<row>-build` disagreement
//! (`Findings::candidate`). Rows add their own vacuity checks, so a
//! sharing path that silently stops firing still fails.
//!
//! The runner's case loop, the shrink predicate and witness replay all
//! read [`ORACLES`]: a disagreement records the row that emitted it, a
//! shrink step re-runs only that row, and replay runs the row a witness
//! names.

use crate::differential::{engine_config, CaseStats, Disagreement, Mutation};
use crate::{
    cachecheck, clausecheck, differential, enumcheck, latticecheck, metamorphic, normcheck,
    parcheck,
};
use lowdeg_core::enumerate::{Enumerator, LevelPlan};
use lowdeg_core::{Engine, EngineConfig, SkipMode};
use lowdeg_index::Epsilon;
use lowdeg_logic::{Formula, Query};
use lowdeg_par::ParConfig;
use lowdeg_storage::{Node, Structure};
use std::fmt::Display;

/// Every row, in the order the runner checks a case. Adding or dropping
/// an oracle touches this list only.
pub static ORACLES: &[Oracle] = &[
    differential::ORACLE,
    metamorphic::ORACLE,
    parcheck::ORACLE,
    enumcheck::ORACLE,
    cachecheck::ORACLE,
    latticecheck::ORACLE,
    normcheck::ORACLE,
    clausecheck::ORACLE,
];

/// The row named `name`, if the table has one.
pub fn by_name(name: &str) -> Option<&'static Oracle> {
    ORACLES.iter().find(|o| o.name == name)
}

/// One conformance case as every row sees it.
#[derive(Clone, Copy, Debug)]
pub struct Case<'a> {
    /// The structure.
    pub s: &'a Structure,
    /// The query.
    pub q: &'a Query,
    /// The case seed (drives the metamorphic permutation and padding).
    pub seed: u64,
    /// Engine corruption the differential row applies (`--inject-bug`).
    pub inject: Mutation,
    /// Whether the metamorphic row runs its padding check, which is sound
    /// only for positively guarded (generated, not shrunk) queries.
    pub padding: bool,
}

impl<'a> Case<'a> {
    /// A generated case: honest engine, padding check on.
    pub fn new(s: &'a Structure, q: &'a Query, seed: u64) -> Case<'a> {
        Case {
            s,
            q,
            seed,
            inject: Mutation::None,
            padding: true,
        }
    }
}

/// Whether a row compared anything on a case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The row ran its comparison (whether or not it found a disagreement).
    Checked,
    /// Nothing to compare: the reference arm rejected the query, or the
    /// case lies outside the row's domain (e.g. a single-clause query for
    /// the clause-sharing row).
    Skipped,
}

/// What the rows found on one case, and the reporting surface of the row
/// that is running: its own checks are named `<row>-<what>`.
#[derive(Debug, Default)]
pub struct Findings {
    row: &'static str,
    /// Every disagreement, each stamped with its row.
    pub bad: Vec<Disagreement>,
    /// The differential row's per-case statistics.
    pub stats: CaseStats,
}

impl Findings {
    /// Record the running row's check `<row>-<what>`.
    pub(crate) fn fail(&mut self, what: &str, detail: String) {
        let check = format!("{}-{what}", self.row);
        self.bad.push(Disagreement::new(&check, detail));
    }

    /// Compare a candidate arm against its reference: `<row>-count`,
    /// `<row>-enumeration-order` (at the first divergent output) and
    /// `<row>-plan-stats`. `at` names the arms, e.g. `[Eager] serial vs
    /// parallel`.
    pub(crate) fn compare(&mut self, at: &str, want: &Observed, got: &Observed) {
        if want.count != got.count {
            let (a, b) = (want.count, got.count);
            self.fail("count", format!("{at}: count {a} vs {b}"));
        }
        if let Some(d) = divergence(&want.answers, &got.answers) {
            self.fail("enumeration-order", format!("{at}: enumeration {d}"));
        }
        let (a, b) = (&want.plan_stats, &got.plan_stats);
        if a != b {
            self.fail("plan-stats", format!("{at}: plan stats {a:?} vs {b:?}"));
        }
    }

    /// A candidate arm's build outcome (`at` names the arm): the built
    /// value, or `None` and a `<row>-build` disagreement — the reference
    /// arm did build.
    pub(crate) fn candidate<T, E: Display>(&mut self, at: &str, built: Result<T, E>) -> Option<T> {
        built
            .map_err(|e| self.fail("build", format!("{at} failed to build: {e}")))
            .ok()
    }
}

/// One row of the oracle table.
#[derive(Debug)]
pub struct Oracle {
    /// Stable row name: the prefix of the row's own check names, and the
    /// `row` a witness records.
    pub name: &'static str,
    /// The check itself.
    pub check: fn(&Case<'_>, &mut Findings) -> Verdict,
}

impl Oracle {
    /// Run the row on `case`, stamping every disagreement it adds to
    /// `out` with the row's name.
    pub fn run(&self, case: &Case<'_>, out: &mut Findings) -> Verdict {
        let from = out.bad.len();
        out.row = self.name;
        let verdict = (self.check)(case, out);
        out.bad[from..].iter_mut().for_each(|d| d.row = self.name);
        verdict
    }
}

/// Per-clause plan fingerprint: everything the build decides that the
/// enumeration later relies on.
#[derive(Debug, PartialEq, Eq)]
pub struct PlanStats {
    strategies: Vec<String>,
    list_sizes: Vec<usize>,
    eager_built: Vec<usize>,
    skip_entries: Vec<usize>,
    ek_len: Vec<usize>,
}

/// Extract the [`PlanStats`] of every clause plan in an enumerator.
pub fn plan_stats(en: &Enumerator) -> Vec<PlanStats> {
    en.plans()
        .iter()
        .map(|p| {
            let per_level = |f: fn(&LevelPlan) -> usize| -> Vec<usize> {
                p.levels.iter().map(|l| l.as_ref().map_or(0, f)).collect()
            };
            PlanStats {
                strategies: p.strategies.iter().map(|s| format!("{s:?}")).collect(),
                list_sizes: p.list_sizes(),
                eager_built: per_level(|l| usize::from(l.eager_built)),
                skip_entries: per_level(LevelPlan::skip_entries),
                ek_len: per_level(LevelPlan::ek_len),
            }
        })
        .collect()
}

/// Rebuild `q` with `formula` in place of its matrix, keeping the free
/// list and variable table. `None` when the result fails the [`Query`]
/// well-formedness checks.
pub(crate) fn with_formula(q: &Query, formula: Formula) -> Option<Query> {
    Query::new(q.signature.clone(), q.free.clone(), formula, q.vars.clone()).ok()
}

/// The forced-parallel pool candidate arms run on: four threads with the
/// per-item threshold dropped to 1, so even shrunk instances exercise the
/// parallel paths.
pub fn forced_parallel() -> ParConfig {
    ParConfig::with_threads(4).min_items(1)
}

/// One engine's observable surface.
#[derive(Debug)]
pub(crate) struct Observed {
    /// The build-time count.
    pub(crate) count: u64,
    /// Every answer, in enumeration order.
    pub(crate) answers: Vec<Vec<Node>>,
    /// Per-clause plan statistics (`None` without an enumerator).
    pub(crate) plan_stats: Option<Vec<PlanStats>>,
}

/// Observe `e`'s count, answer order and plan statistics.
pub(crate) fn observe(e: &Engine) -> Observed {
    Observed {
        count: e.count(),
        answers: e.enumerate().collect(),
        plan_stats: e.enumerator().map(plan_stats),
    }
}

/// Where two answer streams first differ, or `None` when they are equal.
pub(crate) fn divergence(a: &[Vec<Node>], b: &[Vec<Node>]) -> Option<String> {
    let first = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))?;
    let (x, y, m, n) = (a.get(first), b.get(first), a.len(), b.len());
    Some(format!(
        "diverges at output {first}: {x:?} vs {y:?} ({m} vs {n} outputs total)"
    ))
}

/// The reference arm of the engine-pair rows: a serial, uncached build at
/// the default ε under each non-forcing skip mode (`EagerForce` bypasses
/// the cost gates and can be quadratic on dense shrunk instances), handed
/// to `f` with the mode's tag and configuration. Modes whose reference
/// build rejects are skipped; the row checked the case if any mode built.
pub(crate) fn per_mode(case: &Case<'_>, mut f: impl FnMut(&str, &EngineConfig, Engine)) -> Verdict {
    let mut verdict = Verdict::Skipped;
    let serial = ParConfig::serial();
    for mode in [SkipMode::Eager, SkipMode::Lazy] {
        let config = engine_config(Epsilon::default_eps(), mode);
        if let Ok(e) = Engine::build_configured(case.s, case.q, &config, &serial, None) {
            verdict = Verdict::Checked;
            f(&format!("{mode:?}"), &config, e);
        }
    }
    verdict
}

/// Run one row on an honest case (test helper).
#[cfg(test)]
pub(crate) fn run_row(o: &Oracle, s: &Structure, q: &Query) -> (Verdict, Vec<Disagreement>) {
    let mut out = Findings::default();
    let verdict = o.run(&Case::new(s, q, 0), &mut out);
    (verdict, out.bad)
}

/// The standing corpus every row runs over: four single-clause queries
/// (one unary) and three multi-clause disjunctions, on three seeded
/// bounded-degree graphs.
#[cfg(test)]
const CORPUS: [&str; 7] = [
    "B(x) & R(y) & !E(x, y)",
    "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)",
    "exists z. E(x, z) & E(z, y)",
    "B(x) & !R(x)",
    "(B(x) & R(y) & !E(x, y)) | (R(x) & G(y) & !E(x, y))",
    "(B(x) & R(y) & !E(x, y)) | (G(x) & B(y) & E(x, y)) | (B(x) & B(y) & !E(x, y))",
    "(exists z. E(x, z) & E(z, y)) | (B(x) & R(y) & !E(x, y))",
];

/// Run one row over the standing corpus (test helper): it must report no
/// disagreement and must check at least one case.
#[cfg(test)]
pub(crate) fn assert_corpus_clean(o: &Oracle) {
    use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
    use lowdeg_logic::parse_query;
    let mut checked = 0usize;
    for seed in [1, 2, 3] {
        let s = ColoredGraphSpec::balanced(30, DegreeClass::Bounded(3)).generate(seed);
        for src in CORPUS {
            let q = parse_query(s.signature(), src).unwrap();
            let (verdict, bad) = run_row(o, &s, &q);
            assert!(bad.is_empty(), "{} seed {seed} `{src}`: {bad:?}", o.name);
            checked += usize::from(verdict == Verdict::Checked);
        }
    }
    assert!(checked > 0, "row {} skipped the whole corpus", o.name);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standing_corpus_is_clean() {
        for o in ORACLES {
            assert_corpus_clean(o);
        }
    }
}
