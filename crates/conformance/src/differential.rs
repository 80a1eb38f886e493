//! The three-way differential check.
//!
//! For one `(structure, query)` pair the oracle chain is:
//!
//! 1. `answers_naive` — the ground truth (exponential but total),
//! 2. `GenerateAndTest` — the Example 2.3 baseline (lexicographic, total),
//! 3. [`Engine`] — count / test / enumerate / the delay-accounted
//!    streaming visitor, under every [`SkipMode`] and across an ε sweep.
//!
//! The engine can legitimately reject a query (`EngineError::Localize`
//! for non-localizable cross-constraints); that is recorded as a skip,
//! never a disagreement — the naive-vs-baseline comparison still runs.
//!
//! [`Mutation`] deliberately corrupts the engine's observable results so
//! the harness can prove to itself (and to CI) that a broken enumerator
//! is actually caught and shrunk to a witness.

use crate::oracle::{Oracle, Verdict};
use lowdeg_core::naive::GenerateAndTest;
use lowdeg_core::{Engine, EngineConfig, SkipMode};
use lowdeg_index::Epsilon;
use lowdeg_logic::eval::{answers_naive, check_naive, model_check_naive};
use lowdeg_logic::Query;
use lowdeg_par::ParConfig;
use lowdeg_storage::{Node, Structure};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// A deliberately injected engine bug (`--inject-bug`, self-tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Mutation {
    /// No corruption: the honest engine.
    #[default]
    None,
    /// Drop the last enumerated answer.
    DropAnswer,
    /// Emit the first enumerated answer twice.
    DuplicateAnswer,
    /// Report `count() + 1`.
    InflateCount,
    /// Invert every membership test.
    FlipTest,
}

impl Mutation {
    /// Parse the CLI spelling.
    pub fn parse(s: &str) -> Result<Mutation, String> {
        match s {
            "none" => Ok(Mutation::None),
            "drop-answer" => Ok(Mutation::DropAnswer),
            "dup-answer" => Ok(Mutation::DuplicateAnswer),
            "inflate-count" => Ok(Mutation::InflateCount),
            "flip-test" => Ok(Mutation::FlipTest),
            other => Err(format!(
                "unknown mutation `{other}` (drop-answer|dup-answer|inflate-count|flip-test)"
            )),
        }
    }

    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::DropAnswer => "drop-answer",
            Mutation::DuplicateAnswer => "dup-answer",
            Mutation::InflateCount => "inflate-count",
            Mutation::FlipTest => "flip-test",
        }
    }
}

/// One failed cross-check.
#[derive(Clone, Debug)]
pub struct Disagreement {
    /// The oracle row that emitted it (stamped by [`Oracle::run`]; empty
    /// for the dynamic-update scripts, which are not a per-case row).
    pub row: &'static str,
    /// Which oracle pair disagreed (stable check name).
    pub check: String,
    /// Human-readable evidence.
    pub detail: String,
}

impl Disagreement {
    /// A disagreement not yet stamped with its row.
    pub(crate) fn new(check: &str, detail: String) -> Self {
        Disagreement {
            row: "",
            check: check.to_owned(),
            detail,
        }
    }
}

/// Per-case statistics for the report.
#[derive(Clone, Debug, Default)]
pub struct CaseStats {
    /// `|q(A)|` per the naive oracle.
    pub answers: usize,
    /// Whether the engine accepted the query (localizable).
    pub engine_built: bool,
    /// Why the engine rejected it, when it did.
    pub rejection: Option<String>,
    /// Worst per-output RAM-op delay seen across modes.
    pub worst_ops: u64,
}

/// Tuning knobs of one differential case.
#[derive(Clone, Debug)]
pub struct CaseConfig {
    /// ε values to sweep (results must be identical across all of them).
    pub eps_sweep: Vec<f64>,
    /// Cap on membership probes (positive and negative each).
    pub max_probes: usize,
}

impl Default for CaseConfig {
    fn default() -> Self {
        CaseConfig {
            eps_sweep: vec![0.1, 0.25, 0.5, 1.0],
            max_probes: 48,
        }
    }
}

/// The default [`EngineConfig`] at `eps` with skip mode `mode` — the
/// configuration every oracle arm builds under unless it varies one more
/// setting.
pub(crate) fn engine_config(eps: Epsilon, mode: SkipMode) -> EngineConfig {
    EngineConfig {
        skip_mode: mode,
        eps,
        ..EngineConfig::default()
    }
}

/// The differential row: [`differential_case`] under the case's mutation.
pub const ORACLE: Oracle = Oracle {
    name: "differential",
    check: |case, out| {
        let (stats, bad) = differential_case(case.s, case.q, &CaseConfig::default(), case.inject);
        out.stats = stats;
        out.bad.extend(bad);
        Verdict::Checked
    },
};

/// Run the full differential check on one pair.
pub fn differential_case(
    s: &Structure,
    q: &Query,
    cfg: &CaseConfig,
    mutation: Mutation,
) -> (CaseStats, Vec<Disagreement>) {
    let mut bad = Vec::new();
    let mut stats = CaseStats::default();

    let oracle = answers_naive(s, q);
    let oracle_set: BTreeSet<Vec<Node>> = oracle.iter().cloned().collect();
    stats.answers = oracle.len();

    // --- naive vs generate-and-test (skip sentences: the baseline's
    // odometer has no arity-0 candidates by construction) ---
    if !q.is_sentence() {
        let gt: Vec<Vec<Node>> = GenerateAndTest::new(s, q).collect();
        if gt != oracle {
            bad.push(Disagreement::new(
                "naive-vs-generate-and-test",
                format!(
                    "generate-and-test returned {} tuples, naive {} (first diff at {:?})",
                    gt.len(),
                    oracle.len(),
                    first_diff(&gt, &oracle)
                ),
            ));
        }
    } else {
        let expected = model_check_naive(s, q);
        match Engine::model_check(s, q) {
            Ok(got) => {
                let got = if mutation == Mutation::FlipTest {
                    !got
                } else {
                    got
                };
                if got != expected {
                    bad.push(Disagreement::new(
                        "sentence-model-check",
                        format!("Engine::model_check = {got}, naive = {expected}"),
                    ));
                }
            }
            Err(e) => stats.rejection = Some(e.to_string()),
        }
    }

    // --- engine, all skip modes, default ε ---
    let eps = Epsilon::default_eps();
    for mode in [SkipMode::Eager, SkipMode::Lazy, SkipMode::EagerForce] {
        let par = ParConfig::from_env();
        let engine = match Engine::build_configured(s, q, &engine_config(eps, mode), &par, None) {
            Ok(e) => e,
            Err(e) => {
                stats.rejection = Some(e.to_string());
                continue;
            }
        };
        stats.engine_built = true;
        let tag = format!("{mode:?}");
        check_engine(
            &engine,
            s,
            q,
            &oracle,
            &oracle_set,
            cfg,
            mutation,
            &tag,
            &mut stats,
            &mut bad,
        );
    }

    // --- ε sweep (eager mode): identical answers for every ε ---
    if stats.engine_built {
        for &e in &cfg.eps_sweep {
            let Some(eps) = Epsilon::try_new(e) else {
                continue;
            };
            match Engine::build(s, q, eps) {
                Ok(engine) => {
                    let got: BTreeSet<Vec<Node>> = engine.enumerate().collect();
                    if got != oracle_set {
                        bad.push(Disagreement::new(
                            "epsilon-invariance",
                            format!("answer set changed at eps={e}"),
                        ));
                    }
                    if engine.count() != oracle.len() as u64 {
                        bad.push(Disagreement::new(
                            "epsilon-invariance",
                            format!(
                                "count changed at eps={e}: {} vs {}",
                                engine.count(),
                                oracle.len()
                            ),
                        ));
                    }
                }
                Err(e2) => bad.push(Disagreement::new(
                    "epsilon-invariance",
                    format!("build succeeded at default eps but failed at {e}: {e2}"),
                )),
            }
        }
    }

    (stats, bad)
}

#[allow(clippy::too_many_arguments)] // internal plumbing of one check site
fn check_engine(
    engine: &Engine,
    s: &Structure,
    q: &Query,
    oracle: &[Vec<Node>],
    oracle_set: &BTreeSet<Vec<Node>>,
    cfg: &CaseConfig,
    mutation: Mutation,
    tag: &str,
    stats: &mut CaseStats,
    bad: &mut Vec<Disagreement>,
) {
    // count (Theorem 2.5)
    let mut count = engine.count();
    if mutation == Mutation::InflateCount {
        count += 1;
    }
    if count != oracle.len() as u64 {
        bad.push(Disagreement::new(
            "engine-count",
            format!("[{tag}] engine.count() = {count}, naive = {}", oracle.len()),
        ));
    }

    // enumeration (Theorem 2.7)
    let mut got: Vec<Vec<Node>> = engine.enumerate().collect();

    // the streaming visitor must agree with the boxed iterator on answers
    // and order (compared before mutation: both sides read the honest
    // engine, and mutations are caught by the oracle comparisons below);
    // its per-answer delays feed the regression gate
    let mut streamed: Vec<Vec<Node>> = Vec::new();
    engine.for_each_answer_with_ops(|t, d| {
        streamed.push(t.to_vec());
        stats.worst_ops = stats.worst_ops.max(d);
        ControlFlow::Continue(())
    });
    if streamed != got {
        bad.push(Disagreement::new(
            "engine-streaming-vs-boxed",
            format!(
                "[{tag}] streaming emitted {} tuples, boxed {} (first diff at {:?})",
                streamed.len(),
                got.len(),
                first_diff(&streamed, &got)
            ),
        ));
    }
    if engine.first() != streamed.first().cloned() {
        bad.push(Disagreement::new(
            "engine-first",
            format!("[{tag}] first() disagrees with the streaming head"),
        ));
    }

    match mutation {
        Mutation::DropAnswer => {
            got.pop();
        }
        Mutation::DuplicateAnswer => {
            if let Some(first) = got.first().cloned() {
                got.push(first);
            }
        }
        _ => {}
    }
    let got_set: BTreeSet<Vec<Node>> = got.iter().cloned().collect();
    if got.len() != got_set.len() {
        bad.push(Disagreement::new(
            "engine-enumerate-duplicates",
            format!("[{tag}] {} outputs, {} distinct", got.len(), got_set.len()),
        ));
    }
    if &got_set != oracle_set {
        let missing: Vec<_> = oracle_set.difference(&got_set).take(3).collect();
        let extra: Vec<_> = got_set.difference(oracle_set).take(3).collect();
        bad.push(Disagreement::new(
            "engine-enumerate-set",
            format!("[{tag}] missing {missing:?}, extra {extra:?}"),
        ));
    }

    // membership tests (Theorem 2.6): positives from the oracle, negatives
    // from a deterministic sweep of non-answers
    for t in oracle.iter().take(cfg.max_probes) {
        let mut ok = engine.test(t);
        if mutation == Mutation::FlipTest {
            ok = !ok;
        }
        if !ok {
            bad.push(Disagreement::new(
                "engine-test-positive",
                format!("[{tag}] test({t:?}) = false but naive says true"),
            ));
            break;
        }
    }
    let n = s.cardinality() as u32;
    let k = q.arity();
    let mut probed = 0usize;
    let mut probe = vec![0u32; k];
    'outer: while probed < cfg.max_probes {
        let tuple: Vec<Node> = probe.iter().map(|&i| Node(i)).collect();
        if !oracle_set.contains(&tuple) {
            let mut res = engine.test(&tuple);
            if mutation == Mutation::FlipTest {
                res = !res;
            }
            if res != check_naive(s, q, &tuple) {
                bad.push(Disagreement::new(
                    "engine-test-negative",
                    format!("[{tag}] test({tuple:?}) = {res}, naive disagrees"),
                ));
                break;
            }
            probed += 1;
        }
        // odometer with a coprime stride to spread probes over the domain
        let stride = (n / 7).max(1);
        for slot in probe.iter_mut().rev() {
            *slot += stride;
            if *slot < n {
                continue 'outer;
            }
            *slot %= n;
        }
        break;
    }
}

/// First index where the two (ordered) answer lists differ, with the
/// tuple present on each side (`None` past the shorter list's end).
type AnswerDiff = (usize, Option<Vec<Node>>, Option<Vec<Node>>);

fn first_diff(a: &[Vec<Node>], b: &[Vec<Node>]) -> Option<AnswerDiff> {
    let len = a.len().max(b.len());
    (0..len).find_map(|i| {
        let (x, y) = (a.get(i), b.get(i));
        (x != y).then(|| (i, x.cloned(), y.cloned()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
    use lowdeg_logic::parse_query;

    #[test]
    fn honest_engine_has_no_disagreements() {
        let s = ColoredGraphSpec::balanced(24, DegreeClass::Bounded(3)).generate(1);
        let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        let (stats, bad) = differential_case(&s, &q, &CaseConfig::default(), Mutation::None);
        assert!(bad.is_empty(), "{bad:?}");
        assert!(stats.engine_built);
        assert!(stats.worst_ops >= 1 || stats.answers == 0);
    }

    #[test]
    fn every_mutation_is_caught() {
        let s = ColoredGraphSpec::balanced(24, DegreeClass::Bounded(3)).generate(2);
        let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        for m in [
            Mutation::DropAnswer,
            Mutation::DuplicateAnswer,
            Mutation::InflateCount,
            Mutation::FlipTest,
        ] {
            let (_, bad) = differential_case(&s, &q, &CaseConfig::default(), m);
            assert!(!bad.is_empty(), "mutation {m:?} slipped through");
        }
    }

    #[test]
    fn non_localizable_is_a_skip_not_a_failure() {
        let s = ColoredGraphSpec::balanced(12, DegreeClass::Bounded(3)).generate(3);
        let q = parse_query(s.signature(), "exists z. R(z) & !E(x, z)").unwrap();
        let (stats, bad) = differential_case(&s, &q, &CaseConfig::default(), Mutation::None);
        assert!(bad.is_empty(), "{bad:?}");
        assert!(!stats.engine_built);
        assert!(stats.rejection.is_some());
    }

    #[test]
    fn sentence_route() {
        let s = ColoredGraphSpec::balanced(20, DegreeClass::Bounded(3)).generate(4);
        let q = parse_query(s.signature(), "exists x y. B(x) & R(y) & E(x, y)").unwrap();
        let (_, bad) = differential_case(&s, &q, &CaseConfig::default(), Mutation::None);
        assert!(bad.is_empty(), "{bad:?}");
    }
}
