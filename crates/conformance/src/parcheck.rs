//! Parallel-vs-serial build equivalence row.
//!
//! The preprocessing pipeline may fan out over a worker pool
//! (`lowdeg-par`), but the contract is strict: a parallel build must
//! produce the *same engine* as a serial one — same count, same
//! enumeration order (not just the same set), same per-clause plan
//! statistics. This row builds every case twice, serially (the reference
//! arm) and on the [`forced_parallel`] pool, and compares the two.

use crate::oracle::{forced_parallel, observe, per_mode, Oracle};
use lowdeg_core::Engine;

/// The parallel-build row.
pub const ORACLE: Oracle = Oracle {
    name: "parcheck",
    check: |case, out| {
        per_mode(case, |tag, config, serial| {
            let built = Engine::build_configured(case.s, case.q, config, &forced_parallel(), None);
            if let Some(par) = out.candidate(&format!("[{tag}] parallel"), built) {
                let at = format!("[{tag}] serial vs parallel");
                out.compare(&at, &observe(&serial), &observe(&par));
            }
        })
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_builds_agree() {
        crate::oracle::assert_corpus_clean(&ORACLE);
    }

    #[test]
    fn forced_parallel_really_is_parallel() {
        let cfg = forced_parallel();
        assert_eq!(cfg.threads(), 4);
        assert!(!cfg.runs_serial(1));
    }
}
