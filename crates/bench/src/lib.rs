//! # lowdeg-bench
//!
//! Shared harness utilities for the experiment tables (`tables` binary) and
//! `bench_gate`: timing helpers, log–log scaling-exponent fits, and the
//! standard workload builders every experiment draws from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fit;
pub mod workloads;

use std::time::{Duration, Instant};

/// Time a closure once.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Time a closure averaged over `iters` runs (for sub-microsecond
/// operations); returns the per-iteration mean.
pub fn time_avg(iters: usize, mut f: impl FnMut()) -> Duration {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed() / iters.max(1) as u32
}

/// Render a `Duration` compactly for tables.
pub fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}
