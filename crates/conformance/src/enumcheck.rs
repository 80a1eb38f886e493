//! Parallel-enumeration oracle: sharded answer streaming vs the serial
//! reference.
//!
//! PR 8 shards each clause's top-level candidate list into contiguous
//! slices and enumerates the slices on a worker pool, concatenating the
//! shard outputs in slice order. The contract is strict: for every built
//! engine, [`Engine::par_for_each_answer`] under a forced-parallel
//! [`ParConfig`] must visit *bit-identical* answers in *bit-identical
//! order* to the serial, delay-accounted [`Engine::for_each_answer`] —
//! not just the same set. The oracle also checks [`Engine::par_count`],
//! the first answer, an early `Break` prefix, and that a second parallel
//! pass over the same engine reproduces the first (the per-traversal
//! state really is per-traversal). Both [`SkipMode`]s run; rejection is
//! the differential oracle's business.

use crate::differential::{engine_config, Disagreement};
use crate::parcheck::forced_parallel;
use lowdeg_core::{Engine, SkipMode};
use lowdeg_index::Epsilon;
use lowdeg_logic::Query;
use lowdeg_par::ParConfig;
use lowdeg_storage::{Node, Structure};
use std::ops::ControlFlow;

/// Collect the first `limit` answers of the serial visitor.
fn serial_prefix(e: &Engine, limit: usize) -> Vec<Vec<Node>> {
    let mut out = Vec::new();
    e.for_each_answer(|t| {
        out.push(t.to_vec());
        if out.len() >= limit {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    out
}

/// Collect the first `limit` answers of the parallel visitor.
fn parallel_prefix(e: &Engine, par: &ParConfig, limit: usize) -> Vec<Vec<Node>> {
    let mut out = Vec::new();
    e.par_for_each_answer(par, |t| {
        out.push(t.to_vec());
        if out.len() >= limit {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    out
}

/// Build `(s, q)` and compare the sharded parallel enumeration against the
/// serial reference; report every observable difference.
pub fn enumcheck_case(s: &Structure, q: &Query) -> Vec<Disagreement> {
    let mut bad = Vec::new();
    let eps = Epsilon::default_eps();
    let serial = ParConfig::serial();
    let parallel = forced_parallel();

    for mode in [SkipMode::Eager, SkipMode::Lazy] {
        let tag = format!("{mode:?}");
        let e = match Engine::build_configured(s, q, &engine_config(eps, mode), &serial, None) {
            Ok(e) => e,
            Err(_) => continue, // rejection is the differential oracle's business
        };

        let want: Vec<Vec<Node>> = serial_prefix(&e, usize::MAX);
        let got: Vec<Vec<Node>> = parallel_prefix(&e, &parallel, usize::MAX);
        if want != got {
            let first = want
                .iter()
                .zip(&got)
                .position(|(x, y)| x != y)
                .unwrap_or(want.len().min(got.len()));
            bad.push(Disagreement {
                check: "enumcheck-order".into(),
                detail: format!(
                    "[{tag}] parallel enumeration diverges at output {first}: \
                     serial {:?} vs parallel {:?} ({} vs {} outputs total)",
                    want.get(first),
                    got.get(first),
                    want.len(),
                    got.len()
                ),
            });
            continue; // the remaining checks would just repeat the diagnosis
        }

        let pc = e.par_count(&parallel);
        if pc != e.count() {
            bad.push(Disagreement {
                check: "enumcheck-count".into(),
                detail: format!(
                    "[{tag}] par_count {} vs precomputed count {}",
                    pc,
                    e.count()
                ),
            });
        }

        // early Break: the parallel prefix must equal the serial prefix
        let k = (want.len() / 2).max(1).min(want.len());
        if want[..k.min(want.len())] != parallel_prefix(&e, &parallel, k)[..] {
            bad.push(Disagreement {
                check: "enumcheck-break-prefix".into(),
                detail: format!("[{tag}] Break after {k} answers yields a different prefix"),
            });
        }

        // restartability: a second full parallel pass over the same engine
        let again: Vec<Vec<Node>> = parallel_prefix(&e, &parallel, usize::MAX);
        if again != want {
            bad.push(Disagreement {
                check: "enumcheck-restart".into(),
                detail: format!(
                    "[{tag}] second parallel pass diverges ({} vs {} outputs)",
                    again.len(),
                    want.len()
                ),
            });
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
    fn parallel_enumeration_matches_serial() {
        for seed in [1, 2, 3] {
            let s = ColoredGraphSpec::balanced(30, DegreeClass::Bounded(3)).generate(seed);
            for src in [
                "B(x) & R(y) & !E(x, y)",
                "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)",
                "exists z. E(x, z) & E(z, y)",
            ] {
                let q = parse_query(s.signature(), src).unwrap();
                let bad = enumcheck_case(&s, &q);
                assert!(bad.is_empty(), "seed {seed} `{src}`: {bad:?}");
            }
        }
    }

    #[test]
    fn sentences_fall_back_cleanly() {
        let s = ColoredGraphSpec::balanced(20, DegreeClass::Bounded(3)).generate(5);
        let q = parse_query(s.signature(), "exists x y. E(x, y) & B(x)").unwrap();
        assert!(enumcheck_case(&s, &q).is_empty());
    }
}
