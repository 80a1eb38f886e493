//! Parallel-vs-serial build equivalence oracle.
//!
//! The preprocessing pipeline may fan out over a worker pool
//! (`lowdeg-par`), but the contract is strict: a parallel build must
//! produce the *same engine* as a serial one — same count, same
//! enumeration order (not just the same set), same per-clause plan
//! statistics. This oracle builds every case twice, serially
//! (`threads = 1`) and on a forced-parallel pool (`threads = 4` with the
//! per-item threshold dropped to 1 so even shrunk instances exercise the
//! parallel paths), and reports any divergence as a [`Disagreement`] —
//! which plugs into the runner's shrink + witness machinery like any
//! other check.
//!
//! `EagerForce` is excluded, matching the delay gate: it bypasses the
//! cost gates and can be quadratic on dense shrunk instances.

use crate::differential::{engine_config, Disagreement};
use lowdeg_core::enumerate::Enumerator;
use lowdeg_core::{Engine, SkipMode};
use lowdeg_index::Epsilon;
use lowdeg_logic::Query;
use lowdeg_par::ParConfig;
use lowdeg_storage::{Node, Structure};

/// Per-clause plan fingerprint: everything the build decides that the
/// enumeration later relies on. Shared with the `cachecheck` and
/// `normcheck` oracles and the rewrite-invariance suite.
#[derive(Debug, PartialEq, Eq)]
pub struct PlanStats {
    strategies: Vec<String>,
    list_sizes: Vec<usize>,
    eager_built: Vec<bool>,
    skip_entries: Vec<usize>,
    ek_len: Vec<usize>,
}

/// Extract the [`PlanStats`] of every clause plan in an enumerator.
pub fn plan_stats(en: &Enumerator) -> Vec<PlanStats> {
    en.plans()
        .iter()
        .map(|p| PlanStats {
            strategies: p.strategies.iter().map(|s| format!("{s:?}")).collect(),
            list_sizes: p.list_sizes(),
            eager_built: p
                .levels
                .iter()
                .map(|l| l.as_ref().map(|l| l.eager_built).unwrap_or(false))
                .collect(),
            skip_entries: p
                .levels
                .iter()
                .map(|l| l.as_ref().map(|l| l.skip_entries()).unwrap_or(0))
                .collect(),
            ek_len: p
                .levels
                .iter()
                .map(|l| l.as_ref().map(|l| l.ek_len()).unwrap_or(0))
                .collect(),
        })
        .collect()
}

/// The forced-parallel configuration the oracle compares against serial.
pub fn forced_parallel() -> ParConfig {
    ParConfig::with_threads(4).min_items(1)
}

/// Build `(s, q)` serially and in parallel; report every observable
/// difference between the two engines.
pub fn parcheck_case(s: &Structure, q: &Query) -> Vec<Disagreement> {
    let mut bad = Vec::new();
    let eps = Epsilon::default_eps();
    let serial = ParConfig::serial();
    let parallel = forced_parallel();

    for mode in [SkipMode::Eager, SkipMode::Lazy] {
        let tag = format!("{mode:?}");
        let config = engine_config(eps, mode);
        let a = match Engine::build_configured(s, q, &config, &serial, None) {
            Ok(e) => e,
            Err(_) => continue, // rejection is the differential oracle's business
        };
        let b = match Engine::build_configured(s, q, &config, &parallel, None) {
            Ok(e) => e,
            Err(e) => {
                bad.push(Disagreement {
                    check: "parcheck-build".into(),
                    detail: format!("[{tag}] serial build succeeded, parallel failed: {e}"),
                });
                continue;
            }
        };

        if a.count() != b.count() {
            bad.push(Disagreement {
                check: "parcheck-count".into(),
                detail: format!(
                    "[{tag}] serial count {} vs parallel count {}",
                    a.count(),
                    b.count()
                ),
            });
        }

        let ea: Vec<Vec<Node>> = a.enumerate().collect();
        let eb: Vec<Vec<Node>> = b.enumerate().collect();
        if ea != eb {
            let first = ea
                .iter()
                .zip(&eb)
                .position(|(x, y)| x != y)
                .unwrap_or(ea.len().min(eb.len()));
            bad.push(Disagreement {
                check: "parcheck-enumeration-order".into(),
                detail: format!(
                    "[{tag}] enumeration diverges at output {first}: serial {:?} vs parallel {:?} \
                     ({} vs {} outputs total)",
                    ea.get(first),
                    eb.get(first),
                    ea.len(),
                    eb.len()
                ),
            });
        }

        if let (Some(ena), Some(enb)) = (a.enumerator(), b.enumerator()) {
            let (sa, sb) = (plan_stats(ena), plan_stats(enb));
            if sa != sb {
                bad.push(Disagreement {
                    check: "parcheck-plan-stats".into(),
                    detail: format!("[{tag}] plan stats differ: serial {sa:?} vs parallel {sb:?}"),
                });
            }
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
    fn serial_and_parallel_builds_agree() {
        for seed in [1, 2, 3] {
            let s = ColoredGraphSpec::balanced(30, DegreeClass::Bounded(3)).generate(seed);
            for src in [
                "B(x) & R(y) & !E(x, y)",
                "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)",
                "exists z. E(x, z) & E(z, y)",
            ] {
                let q = parse_query(s.signature(), src).unwrap();
                let bad = parcheck_case(&s, &q);
                assert!(bad.is_empty(), "seed {seed} `{src}`: {bad:?}");
            }
        }
    }

    #[test]
    fn forced_parallel_really_is_parallel() {
        let cfg = forced_parallel();
        assert_eq!(cfg.threads(), 4);
        assert!(!cfg.runs_serial(1));
    }
}
