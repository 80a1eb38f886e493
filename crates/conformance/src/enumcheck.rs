//! Parallel-enumeration row: sharded answer streaming vs the serial
//! reference.
//!
//! [`Engine::par_for_each_answer`] shards each clause's top-level
//! candidate list into contiguous slices and streams the slices' answers
//! in slice order: the calling thread runs every slice no worker has
//! claimed yet straight into the callback, and workers hand theirs over in
//! batches. The contract is strict: under the [`forced_parallel`] pool it
//! must visit *bit-identical* answers in *bit-identical order* to the
//! serial, delay-accounted [`Engine::for_each_answer`] — not just the
//! same set. The row also checks [`Engine::par_count`], that a `Break`
//! after the first answer, half way and one short of the end leaves the
//! serial prefix (a `Break` also stops the workers mid-stream), and that
//! a second parallel pass over the same engine reproduces the first (the
//! per-traversal state really is per-traversal).

use crate::oracle::{divergence, forced_parallel, per_mode, Oracle};
use lowdeg_core::Engine;
use lowdeg_par::ParConfig;
use lowdeg_storage::Node;
use std::ops::ControlFlow;

/// The first `limit` answers of the serial visitor, or of the parallel
/// one on `par`.
fn prefix(e: &Engine, par: Option<&ParConfig>, limit: usize) -> Vec<Vec<Node>> {
    let mut out = Vec::new();
    let visit = |t: &[Node]| {
        out.push(t.to_vec());
        if out.len() >= limit {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    };
    match par {
        None => e.for_each_answer(visit),
        Some(par) => e.par_for_each_answer(par, visit),
    }
    out
}

/// The parallel-enumeration row.
pub const ORACLE: Oracle = Oracle {
    name: "enumcheck",
    check: |case, out| {
        let parallel = forced_parallel();
        per_mode(case, |tag, _, e| {
            let mut fail = |what: &str, detail: String| out.fail(what, format!("[{tag}] {detail}"));
            let want = prefix(&e, None, usize::MAX);
            if let Some(d) = divergence(&want, &prefix(&e, Some(&parallel), usize::MAX)) {
                // the remaining checks would just repeat the diagnosis
                return fail("order", format!("serial vs parallel: {d}"));
            }
            let (pc, count) = (e.par_count(&parallel), e.count());
            if pc != count {
                fail(
                    "count",
                    format!("par_count {pc} vs precomputed count {count}"),
                );
            }
            // the first answer, half way, and one short of the end
            let mut ks = vec![1, want.len() / 2, want.len().saturating_sub(1)];
            ks.retain(|&k| k >= 1 && k <= want.len());
            ks.dedup();
            for k in ks {
                if want[..k] != prefix(&e, Some(&parallel), k)[..] {
                    fail(
                        "break-prefix",
                        format!("Break after {k} answers: another prefix"),
                    );
                }
            }
            if let Some(d) = divergence(&want, &prefix(&e, Some(&parallel), usize::MAX)) {
                fail("restart", format!("serial vs second parallel pass: {d}"));
            }
        })
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{run_row, Verdict};
    use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
    use lowdeg_logic::parse_query;

    #[test]
    fn parallel_enumeration_matches_serial() {
        crate::oracle::assert_corpus_clean(&ORACLE);
    }

    #[test]
    fn sentences_fall_back_cleanly() {
        let s = ColoredGraphSpec::balanced(20, DegreeClass::Bounded(3)).generate(5);
        let q = parse_query(s.signature(), "exists x y. E(x, y) & B(x)").unwrap();
        let (verdict, bad) = run_row(&ORACLE, &s, &q);
        assert!(bad.is_empty(), "{bad:?}");
        assert_eq!(verdict, Verdict::Checked);
    }
}
