//! The bench gate: three measured sections → one `BENCH_gate.json`,
//! checked by one table of rows.
//!
//! ```bash
//! cargo run --release -p lowdeg-bench --bin bench_gate                      # every section, full scales
//! cargo run --release -p lowdeg-bench --bin bench_gate -- quick            # every section, CI smoke scales
//! cargo run --release -p lowdeg-bench --bin bench_gate -- quick enumerate  # one section
//! cargo run --release -p lowdeg-bench --bin bench_gate -- workload --out w.json
//! LOWDEG_THREADS=1 cargo run --release -p lowdeg-bench --bin bench_gate -- preprocess
//! ```
//!
//! The positional arguments pick the sections (all three by default):
//!
//! * **preprocess** — the ternary scatter query (`m = 3` negated binary
//!   atoms, so the Lemma 3.5 lattice walk covers `2^3` terms) built cold
//!   and through a warm [`ArtifactCache`] that serves the Prop 3.3
//!   extract product, with per-stage timings; plus four color-permuted
//!   variants sharing one quantifier-free core, built in sequence through
//!   one cache (one counting memo) versus independently (the memo dropped
//!   before each build). Full runs add the arity-4 unary query
//!   `B(a) & B(b) & B(c) & B(d)` at n = 128 (Lemma 3.5 over `2^6` terms
//!   and thousands of clauses), built cold without a cache: its count must
//!   equal the closed form `|B|^4`, and its build time is reported only.
//! * **enumerate** — the running example's answers walked three ways over
//!   one engine: the boxed iterator, the streaming visitor and the sharded
//!   parallel visitor, each folding every answer into a checksum through
//!   [`black_box`]; plus the inter-answer delay distribution in wall
//!   nanoseconds (the per-answer minimum over `REPS` instrumented passes:
//!   preemptions land at a different answer every pass and cancel out,
//!   an algorithmic spike recurs and survives) and in the engine's own
//!   RAM-op accounting (exact, asserted identical across passes).
//! * **workload** — sixteen rewrite/color variants of the ternary scatter
//!   clause (four distinct cores) through one [`Engine::build_workload`]
//!   versus sixteen independent normalization-free warm builds; the same
//!   workload again with the counting tier cleared before each run
//!   (reported only: the timed arm is mostly clause-tier and
//!   combination-count hits); and
//!   sixteen pair-disjunctions over a seven-clause pool (no shared core,
//!   every clause shared) through the clause-sharing planner versus the
//!   whole-core planner, each on a fresh cache per run.
//!
//! Every section times its arms interleaved best-of-`REPS` after an
//! untimed warm-up ([`best_of`]), records the artifact-cache and
//! counting-memo counter deltas of each build arm (so a number that
//! measures a cache hit says so), and asserts its determinism and
//! bit-identity invariants in place. The document records `quick`,
//! `reps`, `threads` and `cores` once, with one object per section.
//!
//! Every check is one row of [`ROWS`]: a section, a mode (quick or full),
//! the value it reads from the document and the bound it must meet. Full
//! runs also read each section's committed baseline (`BENCH_*.pr*.json`
//! at the repository root). The binary prints one line per row and exits
//! non-zero if any row fails or reads a missing field.

use lowdeg_bench::workloads::{colored, RUNNING_EXAMPLE, TERNARY_SCATTER};
use lowdeg_bench::{fmt_dur, time};
use lowdeg_conformance::json::Json;
use lowdeg_core::artifacts::STAGES;
use lowdeg_core::reduction::Step5Stats;
use lowdeg_core::{ArtifactCache, BuildProfile, Engine, EngineConfig, SkipMode, Stage};
use lowdeg_gen::DegreeClass;
use lowdeg_index::Epsilon;
use lowdeg_logic::{parse_query, Query};
use lowdeg_par::ParConfig;
use lowdeg_storage::{Node, Structure};
use std::cmp::Ordering::{self, Equal, Greater, Less};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use Bound::{Above, AtLeast, AtMost, Baseline, Equals, Is, Pool};
use Mode::{Full, Quick};
use Read::{At, Derived};

const EPS: f64 = 0.5;
const REPS: usize = 3;

/// The measured sections: name (on the command line and in the
/// document), the committed baseline its full rows read, and the run.
type Section = (&'static str, &'static str, fn(bool, &ParConfig) -> Json);

const SECTIONS: [Section; 3] = [
    ("preprocess", "BENCH_preprocess.pr5.json", preprocess),
    ("enumerate", "BENCH_enumerate.pr7.json", enumerate),
    ("workload", "BENCH_workload.pr10.json", workload),
];

const USAGE: &str = "usage: bench_gate [quick] [preprocess] [enumerate] [workload] [--out <path>]";

fn main() -> ExitCode {
    let mut quick = false;
    let mut out = None;
    let mut names = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "quick" => quick = true,
            "--out" => match args.next() {
                Some(path) => out = Some(PathBuf::from(path)),
                None => {
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            name if SECTIONS.iter().any(|s| s.0 == name) => names.push(arg),
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let chosen: Vec<&Section> = SECTIONS
        .iter()
        .filter(|s| names.is_empty() || names.iter().any(|n| n == s.0))
        .collect();
    // crates/bench → repo root
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    // only a full run of every section replaces the committed document
    let whole = !quick && chosen.len() == SECTIONS.len();
    let name = if whole {
        "BENCH_gate.json"
    } else {
        "BENCH_gate.partial.json"
    };
    let out = out.unwrap_or_else(|| root.join(name));

    let par = ParConfig::from_env(); // honors LOWDEG_THREADS
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "bench gate ({}): {} thread(s), {cores} core(s), best of {REPS} interleaved reps",
        if quick { "quick" } else { "full" },
        par.threads()
    );
    let mut doc = vec![
        ("bench", Json::Str("gate".into())),
        ("quick", Json::Bool(quick)),
        ("reps", int(REPS as u64)),
        ("threads", int(par.threads() as u64)),
        ("cores", int(cores as u64)),
    ];
    for (name, _, run) in &chosen {
        doc.push((name, run(quick, &par)));
    }
    let doc = Json::obj(doc);
    std::fs::write(&out, doc.pretty()).expect("write the gate document");
    println!("wrote {}", out.display());

    let baselines: Vec<(&str, Json)> = chosen
        .iter()
        .map(|(name, base, _)| match quick {
            true => (*name, Json::Null),
            false => (*name, load(&root.join(base))),
        })
        .collect();
    let outcomes = gate(&doc, &baselines);
    for o in &outcomes {
        println!("{o}");
    }
    let failed = outcomes.iter().filter(|o| !o.pass).count();
    println!(
        "gate: {} of {} rows passed",
        outcomes.len() - failed,
        outcomes.len()
    );
    ExitCode::from(u8::from(failed > 0))
}

/// A committed baseline, or `Null` (so every row reading it fails as
/// missing) when it cannot be read or parsed.
fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string());
    text.and_then(|t| Json::parse(&t)).unwrap_or_else(|e| {
        eprintln!("baseline {}: {e}", path.display());
        Json::Null
    })
}

// ---------------------------------------------------------------------
// The row table
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Quick,
    Full,
}

/// What a row reads from one section.
struct Input<'a> {
    /// The whole document (for `threads` and `cores`).
    doc: &'a Json,
    /// The section's object.
    sec: &'a Json,
    /// The section's committed baseline (`Null` in quick mode).
    base: &'a Json,
}

#[derive(Clone, Copy)]
enum Read {
    /// The value at a dotted path in the section ([`at`]); several
    /// comma-separated paths read as an array of their values.
    At(&'static str),
    /// A value computed from the section, the document or the baseline.
    Derived(fn(&Input) -> Option<Json>),
}

impl Read {
    fn read(self, i: &Input) -> Option<Json> {
        match self {
            Read::At(paths) if paths.contains(',') => paths
                .split(',')
                .map(|p| at(i.sec, p))
                .collect::<Option<Vec<_>>>()
                .map(Json::Arr),
            Read::At(path) => at(i.sec, path),
            Read::Derived(f) => f(i),
        }
    }
}

/// The bound a row's value must meet. The numeric bounds hold for every
/// number the value holds (a number, or an array of them, nested or
/// not); a value with no number, or with a non-number in it, fails.
#[derive(Clone, Copy)]
enum Bound {
    AtLeast(f64),
    Above(f64),
    AtMost(f64),
    Is(f64),
    /// `AtLeast(wide)` on a pool of at least `threads` workers, else
    /// `AtLeast(narrow)` — narrower pools fall back to the serial path.
    Pool {
        threads: f64,
        wide: f64,
        narrow: f64,
    },
    /// Equal to a second reading of the same section.
    Equals(Read),
    /// Equal to the row's own reading of the committed baseline.
    Baseline,
}

/// One check: the section and mode it runs in, its name, what it reads
/// and the bound that reading must meet.
struct Row {
    section: &'static str,
    mode: Mode,
    name: &'static str,
    read: Read,
    bound: Bound,
}

const PRE: &str = "preprocess";
const ENUM: &str = "enumerate";
const WORK: &str = "workload";

/// Every check of the gate. Quick rows run at both `LOWDEG_THREADS`
/// settings in CI; full rows on the legs the baselines were measured
/// for (preprocess at 1, enumerate auto-sized, workload at 1 and 0).
#[rustfmt::skip]
static ROWS: &[Row] = &[
    Row { section: PRE, mode: Quick, name: "fields present", read: Derived(|i| missing(i.sec, PRE_FIELDS)), bound: Equals(Derived(none)) },
    Row { section: PRE, mode: Quick, name: "threads, cores", read: Derived(pool), bound: AtLeast(1.0) },
    Row { section: PRE, mode: Quick, name: "scales", read: At("scales.#"), bound: Is(2.0) },
    Row { section: PRE, mode: Quick, name: "warm count = cold count at every n", read: At("scales.*.count_cached"), bound: Equals(At("scales.*.count_uncached")) },
    Row { section: PRE, mode: Quick, name: "extract share of the cold build, largest n", read: Derived(|i| share(i.sec, "extract_ms")), bound: AtMost(0.4) },
    // the fixed per-build costs outside reduction are small at quick
    // scale, so the reduce share sits higher than at full scale: a sanity
    // bound only; the full row holds 0.5
    Row { section: PRE, mode: Quick, name: "reduce share of the cold build, largest n", read: Derived(|i| share(i.sec, "reduce_ms")), bound: AtMost(0.8) },
    Row { section: PRE, mode: Quick, name: "batch queries, batch counts", read: At("workload.queries,workload.counts.#"), bound: Is(4.0) },
    Row { section: PRE, mode: Quick, name: "distinct batch counts", read: Derived(|i| distinct(i.sec, "workload.counts")), bound: Is(1.0) },
    Row { section: PRE, mode: Quick, name: "batched, independent ms", read: At("workload.batched_ms,workload.independent_ms"), bound: Above(0.0) },
    Row { section: PRE, mode: Quick, name: "batched over independent warm builds", read: At("workload.speedup"), bound: AtLeast(1.0) },
    Row { section: PRE, mode: Full, name: "count at the largest n", read: Derived(|i| at(largest(i.sec)?, "count_uncached")), bound: Baseline },
    Row { section: PRE, mode: Full, name: "cold build speedup vs baseline, largest n", read: Derived(|i| vs_baseline(i, "uncached_ms")), bound: AtLeast(4.0) },
    Row { section: PRE, mode: Full, name: "warm build speedup vs baseline, largest n", read: Derived(|i| vs_baseline(i, "cached_ms")), bound: AtLeast(2.0) },
    Row { section: PRE, mode: Full, name: "extract share of the cold build, largest n", read: Derived(|i| share(i.sec, "extract_ms")), bound: AtMost(0.4) },
    Row { section: PRE, mode: Full, name: "reduce share of the cold build, largest n", read: Derived(|i| share(i.sec, "reduce_ms")), bound: AtMost(0.5) },
    Row { section: PRE, mode: Full, name: "batched over independent warm builds", read: At("workload.speedup"), bound: AtLeast(2.0) },
    // the cold arity-4 build time (`arity4.uncached_ms`) has no floor until
    // a committed baseline measures it
    Row { section: PRE, mode: Full, name: "arity-4 count = |B|^4", read: At("arity4.count"), bound: Equals(At("arity4.closed_form")) },

    Row { section: ENUM, mode: Quick, name: "fields present", read: Derived(|i| missing(i.sec, ENUM_FIELDS)), bound: Equals(Derived(none)) },
    Row { section: ENUM, mode: Quick, name: "threads, cores", read: Derived(pool), bound: AtLeast(1.0) },
    Row { section: ENUM, mode: Quick, name: "scales", read: At("scales.#"), bound: Is(2.0) },
    Row { section: ENUM, mode: Quick, name: "out-of-order delay percentiles per n", read: Derived(disorder), bound: Is(0.0) },
    Row { section: ENUM, mode: Quick, name: "wall max/p50 per n", read: At("scales.*.delay_wall_ns.max_p50_ratio"), bound: AtLeast(1.0) },
    Row { section: ENUM, mode: Quick, name: "wall max/p50 vs max / p50, relative error", read: Derived(ratio_error), bound: AtMost(0.01) },
    Row { section: ENUM, mode: Quick, name: "parallel ms, answers/s", read: At("scales.*.parallel.par_ms,scales.*.parallel.par_answers_per_s"), bound: Above(0.0) },
    Row { section: ENUM, mode: Full, name: "answer count per n", read: At("scales.*.count"), bound: Baseline },
    Row { section: ENUM, mode: Full, name: "wall max/p50 per n", read: At("scales.*.delay_wall_ns.max_p50_ratio"), bound: AtMost(200.0) },
    Row { section: ENUM, mode: Full, name: "RAM-op delay p99 per n", read: At("scales.*.delay_ops.p99"), bound: AtMost(4.0) },
    Row { section: ENUM, mode: Full, name: "RAM-op delay max per n", read: At("scales.*.delay_ops.max"), bound: AtMost(11.0) },
    // the 10% parity headroom is timer noise between two best-of-REPS
    // runs of the same serial loop
    Row { section: ENUM, mode: Full, name: "parallel over streaming answers/s per n", read: At("scales.*.parallel.par_speedup"), bound: Pool { threads: 4.0, wide: 2.5, narrow: 0.9 } },

    Row { section: WORK, mode: Quick, name: "fields present", read: Derived(|i| missing(i.sec, WORK_FIELDS)), bound: Equals(Derived(none)) },
    Row { section: WORK, mode: Quick, name: "threads, cores", read: Derived(pool), bound: AtLeast(1.0) },
    Row { section: WORK, mode: Quick, name: "queries, counts", read: At("queries,counts.#"), bound: Is(16.0) },
    Row { section: WORK, mode: Quick, name: "distinct cores", read: At("distinct_cores"), bound: Is(4.0) },
    Row { section: WORK, mode: Quick, name: "workload, independent ms", read: At("workload_ms,independent_ms"), bound: Above(0.0) },
    Row { section: WORK, mode: Quick, name: "build_workload over independent builds", read: At("speedup"), bound: AtLeast(1.0) },
    Row { section: WORK, mode: Quick, name: "hetero queries, counts", read: At("hetero_queries,hetero_counts.#"), bound: Is(16.0) },
    Row { section: WORK, mode: Quick, name: "hetero distinct cores", read: At("hetero_distinct_cores"), bound: Is(16.0) },
    Row { section: WORK, mode: Quick, name: "hetero distinct clauses", read: At("hetero_distinct_clauses"), bound: Is(7.0) },
    Row { section: WORK, mode: Quick, name: "hetero clause hits", read: At("hetero_clause_hits"), bound: Above(0.0) },
    Row { section: WORK, mode: Quick, name: "hetero shared, unshared ms", read: At("hetero_shared_ms,hetero_unshared_ms"), bound: Above(0.0) },
    Row { section: WORK, mode: Quick, name: "clause-shared over whole-core planner", read: At("hetero_speedup"), bound: AtLeast(1.0) },
    Row { section: WORK, mode: Full, name: "n", read: At("n"), bound: Baseline },
    Row { section: WORK, mode: Full, name: "distinct cores", read: At("distinct_cores"), bound: Baseline },
    Row { section: WORK, mode: Full, name: "counts", read: At("counts"), bound: Baseline },
    Row { section: WORK, mode: Full, name: "hetero distinct clauses", read: At("hetero_distinct_clauses"), bound: Baseline },
    Row { section: WORK, mode: Full, name: "hetero counts", read: At("hetero_counts"), bound: Baseline },
    Row { section: WORK, mode: Full, name: "build_workload over independent builds", read: At("speedup"), bound: AtLeast(3.0) },
    Row { section: WORK, mode: Full, name: "clause-shared over whole-core planner", read: At("hetero_speedup"), bound: AtLeast(2.0) },
];

/// The fields each section's quick document must carry, space-separated.
const PRE_FIELDS: &str = "scales.*.n scales.*.uncached_ms scales.*.cached_ms scales.*.speedup \
    scales.*.count_uncached scales.*.count_cached scales.*.stages_uncached.extract_ms \
    scales.*.stages_uncached.reduce_ms scales.*.stages_uncached.ie_count_ms \
    scales.*.stages_cached.extract_ms scales.*.stages_cached.reduce_ms \
    scales.*.stages_cached.ie_count_ms workload.n workload.queries workload.batched_ms \
    workload.independent_ms workload.speedup workload.counts";
const ENUM_FIELDS: &str = "scales.*.n scales.*.count scales.*.boxed_ms scales.*.streaming_ms \
    scales.*.boxed_answers_per_s scales.*.streaming_answers_per_s scales.*.speedup \
    scales.*.parallel.par_ms scales.*.parallel.par_answers_per_s scales.*.parallel.par_speedup \
    scales.*.delay_wall_ns.p50 scales.*.delay_wall_ns.p99 scales.*.delay_wall_ns.p999 \
    scales.*.delay_wall_ns.max scales.*.delay_wall_ns.max_p50_ratio scales.*.delay_ops.p50 \
    scales.*.delay_ops.p99 scales.*.delay_ops.max";
const WORK_FIELDS: &str = "n queries distinct_cores workload_ms independent_ms speedup counts \
    hetero_degree_class hetero_queries hetero_distinct_cores hetero_distinct_clauses \
    hetero_clause_hits hetero_shared_ms hetero_unshared_ms hetero_speedup hetero_counts";

/// The value at a dotted `path` below `v`, or `None` when any step is
/// missing. A `*` segment maps the rest of the path over an array; a `#`
/// segment is an array's length.
fn at(v: &Json, path: &str) -> Option<Json> {
    let (head, rest) = match path.split_once('.') {
        Some((head, rest)) => (head, Some(rest)),
        None => (path, None),
    };
    let next = |x: &Json| match rest {
        Some(rest) => at(x, rest),
        None => Some(x.clone()),
    };
    match head {
        "*" => v
            .as_arr()?
            .iter()
            .map(next)
            .collect::<Option<Vec<_>>>()
            .map(Json::Arr),
        "#" => next(&int(v.as_arr()?.len() as u64)),
        key => next(v.get(key)?),
    }
}

fn num(v: &Json, path: &str) -> Option<f64> {
    at(v, path)?.as_f64()
}

/// The scale entry with the largest `n`.
fn largest(sec: &Json) -> Option<&Json> {
    sec.get("scales")?.as_arr()?.iter().max_by(|a, b| {
        let (a, b) = (num(a, "n"), num(b, "n"));
        a.partial_cmp(&b).unwrap_or(Equal)
    })
}

/// `pool` read: the document's `threads` and `cores`.
fn pool(i: &Input) -> Option<Json> {
    Some(Json::Arr(vec![at(i.doc, "threads")?, at(i.doc, "cores")?]))
}

/// The paths of `fields` the section lacks.
fn missing(sec: &Json, fields: &str) -> Option<Json> {
    let gone = fields.split_whitespace().filter(|f| at(sec, f).is_none());
    Some(Json::Arr(gone.map(|f| Json::Str(f.into())).collect()))
}

fn none(_: &Input) -> Option<Json> {
    Some(Json::Arr(Vec::new()))
}

/// The number of distinct values in the array at `path`.
fn distinct(sec: &Json, path: &str) -> Option<Json> {
    let values = at(sec, path)?;
    let set: BTreeSet<u64> = values
        .as_arr()?
        .iter()
        .map(Json::as_u64)
        .collect::<Option<_>>()?;
    Some(int(set.len() as u64))
}

/// A stage's share of the cold build at the largest scale.
fn share(sec: &Json, stage: &str) -> Option<Json> {
    let s = largest(sec)?;
    let stage = num(s, &format!("stages_uncached.{stage}"))?;
    Some(Json::Num(stage / num(s, "uncached_ms")?.max(1e-9)))
}

/// Baseline time over measured time for `field` at the largest measured
/// scale, against the baseline entry for the same `n`.
fn vs_baseline(i: &Input, field: &str) -> Option<Json> {
    let new = largest(i.sec)?;
    let n = num(new, "n")?;
    let scales = i.base.get("scales")?.as_arr()?;
    let old = scales.iter().find(|s| num(s, "n") == Some(n))?;
    Some(Json::Num(num(old, field)? / num(new, field)?.max(1e-9)))
}

/// `f` of every scale entry of the section.
fn per_scale(i: &Input, f: impl Fn(&Json) -> Option<f64>) -> Option<Json> {
    let scales = i.sec.get("scales")?.as_arr()?;
    let values = scales.iter().map(|s| f(s).map(Json::Num));
    values.collect::<Option<Vec<_>>>().map(Json::Arr)
}

/// Per scale, how many adjacent delay percentiles are out of order
/// (`p50 ≤ p99 ≤ p999 ≤ max` wall, `p50 ≤ p99 ≤ max` RAM ops).
fn disorder(i: &Input) -> Option<Json> {
    let paths = [
        "wall_ns.p50 wall_ns.p99 wall_ns.p999 wall_ns.max",
        "ops.p50 ops.p99 ops.max",
    ];
    per_scale(i, |s| {
        let mut bad = 0;
        for dist in paths {
            let values: Vec<f64> = dist
                .split_whitespace()
                .map(|p| num(s, &format!("delay_{p}")))
                .collect::<Option<_>>()?;
            bad += values.windows(2).filter(|w| w[0] > w[1]).count();
        }
        Some(bad as f64)
    })
}

/// Per scale, the recorded wall `max_p50_ratio` against `max / p50`
/// recomputed from the percentiles (absolute error below a ratio of 1).
fn ratio_error(i: &Input) -> Option<Json> {
    per_scale(i, |s| {
        let ratio = num(s, "delay_wall_ns.max_p50_ratio")?;
        let expected = num(s, "delay_wall_ns.max")? / num(s, "delay_wall_ns.p50")?.max(1.0);
        Some((ratio - expected).abs() / expected.max(1.0))
    })
}

/// One row's result.
struct Outcome {
    row: &'static Row,
    value: Option<Json>,
    bound: String,
    pass: bool,
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Row {
            section,
            mode,
            name,
            ..
        } = self.row;
        let value = self.value.as_ref().map_or("missing".into(), show);
        let verdict = if self.pass { "PASS" } else { "FAIL" };
        let bound = &self.bound;
        write!(
            f,
            "{verdict} {section} {mode:?}: {name}: {value} (need {bound})"
        )
    }
}

/// A value on one line, numbers to three decimals.
fn show(v: &Json) -> String {
    match v {
        Json::Num(x) if x.fract() == 0.0 => format!("{x:.0}"),
        Json::Num(x) => format!("{x:.3}"),
        Json::Arr(items) => format!(
            "[{}]",
            items.iter().map(show).collect::<Vec<_>>().join(", ")
        ),
        other => other.pretty().trim_end().to_owned(),
    }
}

/// Every number `v` holds, or `None` if it holds a non-number.
fn numbers(v: &Json, out: &mut Vec<f64>) -> Option<()> {
    match v {
        Json::Num(x) => out.push(*x),
        Json::Arr(items) => {
            for item in items {
                numbers(item, out)?;
            }
        }
        _ => return None,
    }
    Some(())
}

/// Evaluate every row of the document's mode whose section has a
/// baseline entry in `baselines` (one per section run; `Null` in quick
/// mode), in table order.
fn gate(doc: &Json, baselines: &[(&str, Json)]) -> Vec<Outcome> {
    let mode = if doc.get("quick").and_then(Json::as_bool) == Some(true) {
        Quick
    } else {
        Full
    };
    let mut outcomes = Vec::new();
    for row in ROWS.iter().filter(|r| r.mode == mode) {
        let Some((_, base)) = baselines.iter().find(|(name, _)| *name == row.section) else {
            continue;
        };
        let sec = doc.get(row.section).unwrap_or(&Json::Null);
        let input = Input { doc, sec, base };
        let value = row.read.read(&input);
        let (bound, pass) = check(row, &input, value.as_ref());
        outcomes.push(Outcome {
            row,
            value,
            bound,
            pass,
        });
    }
    outcomes
}

/// The row's bound as printed, and whether `value` meets it.
fn check(row: &Row, i: &Input, value: Option<&Json>) -> (String, bool) {
    let (op, x, holds): (&str, f64, &[Ordering]) = match row.bound {
        AtLeast(x) => (">=", x, &[Greater, Equal]),
        Above(x) => (">", x, &[Greater]),
        AtMost(x) => ("<=", x, &[Less, Equal]),
        Is(x) => ("=", x, &[Equal]),
        Pool {
            threads,
            wide,
            narrow,
        } => match num(i.doc, "threads") {
            Some(t) => (
                ">=",
                if t >= threads { wide } else { narrow },
                &[Greater, Equal],
            ),
            None => return ("a thread count".into(), false),
        },
        Equals(other) => return same(value, other.read(i), ""),
        Baseline => {
            let base = Input {
                doc: i.base,
                sec: i.base,
                base: &Json::Null,
            };
            return same(value, row.read.read(&base), "baseline ");
        }
    };
    let mut xs = Vec::new();
    let pass = value.and_then(|v| numbers(v, &mut xs)).is_some()
        && !xs.is_empty()
        && xs
            .iter()
            .all(|v| v.partial_cmp(&x).is_some_and(|o| holds.contains(&o)));
    (format!("{op} {}", show(&Json::Num(x))), pass)
}

/// An equality bound: `value` must equal the present reading `want`.
fn same(value: Option<&Json>, want: Option<Json>, what: &str) -> (String, bool) {
    let bound = format!("= {what}{}", want.as_ref().map_or("missing".into(), show));
    (bound, want.is_some() && value == want.as_ref())
}

// ---------------------------------------------------------------------
// Shared measurement helpers
// ---------------------------------------------------------------------

/// Interleaved best-of-`REPS` over `ARMS` arms: rep `r` runs the arms
/// rotated by `r`, so allocator and page-cache drift favors none. `run`
/// performs one timed run of an arm and returns its wall time and a
/// record; each arm keeps its fastest time and that run's record.
fn best_of<T, const ARMS: usize>(
    mut run: impl FnMut(usize) -> (Duration, T),
) -> [(Duration, T); ARMS] {
    let mut best: [Option<(Duration, T)>; ARMS] = std::array::from_fn(|_| None);
    for rep in 0..REPS {
        for k in 0..ARMS {
            let arm = (rep + k) % ARMS;
            let (dt, record) = run(arm);
            if best[arm].as_ref().is_none_or(|(b, _)| dt < *b) {
                best[arm] = Some((dt, record));
            }
        }
    }
    best.map(|b| b.expect("REPS > 0"))
}

fn int(x: u64) -> Json {
    Json::Num(x as f64)
}

/// A number rounded to three decimals.
fn r3(x: f64) -> Json {
    Json::Num((x * 1e3).round() / 1e3)
}

/// Milliseconds, rounded to the microsecond.
fn ms(d: Duration) -> Json {
    r3(d.as_secs_f64() * 1e3)
}

/// `slow / fast` wall time.
fn speedup(slow: Duration, fast: Duration) -> f64 {
    slow.as_secs_f64() / fast.as_secs_f64().max(1e-9)
}

fn counts(cs: &[u64]) -> Json {
    Json::Arr(cs.iter().map(|&c| int(c)).collect())
}

/// Milliseconds per stage, keyed `<stage>_ms`.
fn stage_ms(stages: &[Stage], nanos: impl Fn(Stage) -> u64) -> Json {
    let key = |s: Stage| format!("{}_ms", s.label().replace('-', "_"));
    Json::Obj(
        stages
            .iter()
            .map(|&s| (key(s), r3(nanos(s) as f64 / 1e6)))
            .collect(),
    )
}

/// The summed stages of the distinct engines an arm built, plus the
/// part of the arm's wall time no stage accounts for.
fn attribution(profiles: &[&BuildProfile], wall: Duration) -> Json {
    let nanos = |s| profiles.iter().map(|p| p.nanos(s)).sum::<u64>();
    let attributed: u64 = STAGES.iter().map(|&s| nanos(s)).sum();
    let unattributed = wall.as_nanos() as f64 - attributed as f64;
    let mut stages = stage_ms(&STAGES, nanos);
    if let Json::Obj(fields) = &mut stages {
        fields.insert("unattributed_ms".into(), r3(unattributed / 1e6));
    }
    stages
}

/// The distinct engines among `engines` (rewrite variants share one
/// engine).
fn distinct_engines(engines: &[Arc<Engine>]) -> Vec<&Engine> {
    let mut seen = BTreeSet::new();
    engines
        .iter()
        .filter(|e| seen.insert(Arc::as_ptr(e)))
        .map(|e| &**e)
        .collect()
}

/// One build arm's detail from its distinct engines: the stage
/// attribution of `wall`, the cache counter deltas and the summed Step 5
/// counters.
fn engines_arm(engines: &[&Engine], wall: Duration, cache: Tally) -> Json {
    let profiles: Vec<&BuildProfile> = engines.iter().map(|e| e.profile()).collect();
    let step5 = engines
        .iter()
        .filter_map(|e| e.reduction())
        .map(|r| r.step5_stats())
        .fold(Step5Stats::default(), Step5Stats::plus);
    let counters = [
        ("partitions_skipped", step5.partitions_skipped),
        ("types_filtered", step5.types_filtered),
        ("product_combinations", step5.product_combinations),
        ("scanned_combinations", step5.scanned_combinations),
    ];
    Json::obj([
        ("stages", attribution(&profiles, wall)),
        ("cache", cache.json()),
        ("step5", Json::obj(counters.map(|(key, n)| (key, int(n))))),
    ])
}

/// A reading of a cache's counters: artifact hits and misses
/// ([`ArtifactCache::stats`]), counting-memo component hits, misses and
/// components ([`ArtifactCache::counting_stats`]), clause-tier hits and
/// misses ([`ArtifactCache::clause_stats`]) and combination-tier hits and
/// misses ([`ArtifactCache::combo_stats`]), so a build time that mostly
/// measures a cache hit says which tier served it.
#[derive(Clone, Copy, Default)]
struct Tally([i64; 9]);

impl Tally {
    fn of(cache: &ArtifactCache) -> Tally {
        let (hits, misses) = cache.stats();
        let (memo_hits, memo_misses, components) = cache.counting_stats();
        let (clause_hits, clause_misses, _) = cache.clause_stats();
        let (combo_hits, combo_misses) = cache.combo_stats();
        Tally(
            [
                hits,
                misses,
                memo_hits,
                memo_misses,
                components as u64,
                clause_hits,
                clause_misses,
                combo_hits,
                combo_misses,
            ]
            .map(|x| x as i64),
        )
    }

    /// The counters' growth from `before` to `self`.
    fn since(self, before: Tally) -> Tally {
        Tally(std::array::from_fn(|k| self.0[k] - before.0[k]))
    }

    fn plus(self, other: Tally) -> Tally {
        Tally(std::array::from_fn(|k| self.0[k] + other.0[k]))
    }

    fn json(self) -> Json {
        let keys = [
            "artifact_hits",
            "artifact_misses",
            "memo_hits",
            "memo_misses",
            "memo_components",
            "clause_hits",
            "clause_misses",
            "combo_hits",
            "combo_misses",
        ];
        Json::obj(keys.into_iter().zip(self.0.map(|x| Json::Num(x as f64))))
    }
}

fn default_config() -> EngineConfig {
    EngineConfig {
        eps: Epsilon::new(EPS),
        ..EngineConfig::default()
    }
}

fn parse_all(s: &Structure, sources: &[impl AsRef<str>]) -> Vec<Query> {
    let parse = |src: &str| parse_query(s.signature(), src).expect("parses");
    sources.iter().map(|src| parse(src.as_ref())).collect()
}

// ---------------------------------------------------------------------
// preprocess
// ---------------------------------------------------------------------

const PRE_DEGREE: usize = 2;

/// Four color permutations of the ternary scatter clause: one
/// quantifier-free core (same arity, radius and colored graph, so one
/// cached reduction core serves all four), distinct clause colors, so the
/// cross-query counting memo is what they share.
const PRE_BATCH: [&str; 4] = [
    "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)",
    "R(x) & G(y) & B(z) & !E(x, y) & !E(y, z) & !E(x, z)",
    "G(x) & B(y) & R(z) & !E(x, y) & !E(y, z) & !E(x, z)",
    "B(x) & G(y) & R(z) & !E(x, y) & !E(y, z) & !E(x, z)",
];

/// The build stages the preprocess section reports. The fixpoint and
/// skip-table stages read zero for this query at these scales: the eager
/// `E_k` cost gate declines them.
const PRE_STAGES: [Stage; 3] = [Stage::Extract, Stage::Reduce, Stage::IeCount];

fn build(s: &Structure, q: &Query, par: &ParConfig, cache: Option<&ArtifactCache>) -> Engine {
    Engine::build_configured(s, q, &default_config(), par, cache).expect("localizable")
}

fn preprocess(quick: bool, par: &ParConfig) -> Json {
    let scales: &[usize] = if quick {
        &[1 << 10, 1 << 11]
    } else {
        &[1 << 12, 1 << 13, 1 << 14]
    };
    println!("preprocess: `{TERNARY_SCATTER}`, bounded({PRE_DEGREE}), cold vs warm artifact cache");
    let rows: Vec<Json> = scales.iter().map(|&n| preprocess_scale(n, par)).collect();
    let batch = preprocess_batch(*scales.last().expect("non-empty scales"), par);
    let mut doc = vec![
        ("query", Json::Str(TERNARY_SCATTER.into())),
        ("degree_class", Json::Str(format!("bounded({PRE_DEGREE})"))),
        ("skip_mode", Json::Str("eager".into())),
        ("eps", Json::Num(EPS)),
        ("scales", Json::Arr(rows)),
        ("workload", batch),
    ];
    if !quick {
        doc.push(("arity4", preprocess_arity4(par)));
    }
    Json::obj(doc)
}

/// The arity-4 unary query: four unconstrained blue positions, so its
/// count is `|B|^4` of the database.
const PRE_ARITY4: &str = "B(a) & B(b) & B(c) & B(d)";

/// The arity-4 scale: the database of `lowdeg generate 128 2 1`.
const PRE_ARITY4_N: usize = 128;

/// The arity-4 query built cold without a cache, with the engine's
/// default configuration (as `lowdeg count` builds it), best of `REPS`.
fn preprocess_arity4(par: &ParConfig) -> Json {
    let s = colored(PRE_ARITY4_N, DegreeClass::Bounded(PRE_DEGREE), 1);
    let q = parse_query(s.signature(), PRE_ARITY4).expect("parses");
    let blue = s.relation(s.signature().rel("B").expect("B")).len() as u64;
    let config = EngineConfig::default();
    let [(cold, (count, profile))] = best_of(|_| {
        let (engine, dt) =
            time(|| Engine::build_configured(&s, &q, &config, par, None).expect("localizable"));
        (dt, (engine.count(), engine.profile().clone()))
    });
    println!(
        "arity 4 (`{PRE_ARITY4}`, n = {PRE_ARITY4_N}): cold {}  count {count}  (|B|^4 = {})",
        fmt_dur(cold),
        blue.pow(4)
    );
    println!("{:>8}  cold stages: {profile}", "");
    Json::obj([
        ("query", Json::Str(PRE_ARITY4.into())),
        ("n", int(PRE_ARITY4_N as u64)),
        ("eps", Json::Num(config.eps.value())),
        ("uncached_ms", ms(cold)),
        ("count", int(count)),
        ("closed_form", int(blue.pow(4))),
        (
            "stages_uncached",
            stage_ms(&PRE_STAGES, |st| profile.nanos(st)),
        ),
    ])
}

/// One scale: cold builds against builds through a cache primed by the
/// untimed warm-up.
fn preprocess_scale(n: usize, par: &ParConfig) -> Json {
    let s = colored(n, DegreeClass::Bounded(PRE_DEGREE), 1400 + n as u64);
    let q = parse_query(s.signature(), TERNARY_SCATTER).expect("parses");
    let cache = ArtifactCache::new();
    build(&s, &q, par, Some(&cache)); // warm-up, untimed; primes the cache

    let mut reference = [None::<u64>; 2];
    let [(cold, c), (warm, w)] = best_of(|arm| {
        let warm = arm == 1;
        let before = Tally::of(&cache);
        let (engine, dt) = time(|| build(&s, &q, par, warm.then_some(&cache)));
        let tally = Tally::of(&cache).since(before);
        let count = engine.count();
        assert_eq!(
            *reference[arm].get_or_insert(count),
            count,
            "build at n = {n} is not deterministic (cache = {warm})"
        );
        (dt, (count, engine.profile().clone(), tally))
    });
    assert_eq!(
        c.0, w.0,
        "cached and uncached builds disagree on the answer count at n = {n}"
    );
    assert!(
        cache.stats().0 > 0,
        "warm reps never hit the cache at n = {n}"
    );
    println!(
        "{n:>8}  cold {:>9}  warm {:>9}  {:>8.2}x  count {}",
        fmt_dur(cold),
        fmt_dur(warm),
        speedup(cold, warm),
        c.0
    );
    println!("{:>8}  cold stages: {}", "", c.1);
    println!("{:>8}  warm stages: {}", "", w.1);
    Json::obj([
        ("n", int(n as u64)),
        ("uncached_ms", ms(cold)),
        ("cached_ms", ms(warm)),
        ("speedup", r3(speedup(cold, warm))),
        ("count_uncached", int(c.0)),
        ("count_cached", int(w.0)),
        ("stages_uncached", stage_ms(&PRE_STAGES, |s| c.1.nanos(s))),
        ("stages_cached", stage_ms(&PRE_STAGES, |s| w.1.nanos(s))),
        ("cache_uncached", c.2.json()),
        ("cache_cached", w.2.json()),
    ])
}

/// The four-query batch through one cache against four independent warm
/// builds. Both start from a warm core and a cold counting memo, so the
/// gap is exactly the cross-query sharing of the Lemma 3.5 lattice walk.
fn preprocess_batch(n: usize, par: &ParConfig) -> Json {
    let s = colored(n, DegreeClass::Bounded(PRE_DEGREE), 1400 + n as u64);
    let queries = parse_all(&s, &PRE_BATCH);
    let cache = ArtifactCache::new();
    let batch = |cache: &ArtifactCache| -> Vec<u64> {
        queries
            .iter()
            .map(|q| build(&s, q, par, Some(cache)).count())
            .collect()
    };
    // Untimed warm-up: primes the shared core and fixes the reference counts.
    let reference = batch(&cache);
    let fp = s.fingerprint();

    let [(independent, independent_tally), (batched, batched_tally)] = best_of(|arm| {
        if arm == 1 {
            cache.invalidate_counting(fp);
            let before = Tally::of(&cache);
            let (got, dt) = time(|| batch(&cache));
            assert_eq!(
                got, reference,
                "batched workload counts diverged at n = {n}"
            );
            (dt, Tally::of(&cache).since(before))
        } else {
            let mut tally = Tally::default();
            let (got, dt) = time(|| {
                queries
                    .iter()
                    .map(|q| {
                        // a fresh consumer per query: shared core, private memo
                        cache.invalidate_counting(fp);
                        let before = Tally::of(&cache);
                        let count = build(&s, q, par, Some(&cache)).count();
                        tally = tally.plus(Tally::of(&cache).since(before));
                        count
                    })
                    .collect::<Vec<u64>>()
            });
            assert_eq!(
                got, reference,
                "independent workload counts diverged at n = {n}"
            );
            (dt, tally)
        }
    });
    println!(
        "batch ({} queries, n = {n}): batched {} vs independent {} ({:.2}x)",
        PRE_BATCH.len(),
        fmt_dur(batched),
        fmt_dur(independent),
        speedup(independent, batched)
    );
    Json::obj([
        ("n", int(n as u64)),
        ("queries", int(PRE_BATCH.len() as u64)),
        ("batched_ms", ms(batched)),
        ("independent_ms", ms(independent)),
        ("speedup", r3(speedup(independent, batched))),
        ("counts", counts(&reference)),
        ("cache_batched", batched_tally.json()),
        ("cache_independent", independent_tally.json()),
    ])
}

// ---------------------------------------------------------------------
// enumerate
// ---------------------------------------------------------------------

const ENUM_DEGREE: usize = 4;

/// Nearest-rank percentiles of a delay sample: `[p50, p99, p999, max]`.
fn percentiles(mut sample: Vec<u64>) -> [u64; 4] {
    if sample.is_empty() {
        return [0; 4];
    }
    sample.sort_unstable();
    let rank = |p: f64| sample[((p * (sample.len() - 1) as f64).round()) as usize];
    [
        rank(0.50),
        rank(0.99),
        rank(0.999),
        *sample.last().expect("non-empty"),
    ]
}

/// One full pass of the boxed iterator (0), the streaming visitor (1) or
/// the sharded parallel visitor (2), folding every answer into a
/// checksum; returns (checksum, answers).
fn walk(engine: &Engine, par: &ParConfig, path: usize) -> (u64, u64) {
    let mut sum = 0u64;
    let mut count = 0u64;
    let mut visit = |t: &[Node]| {
        for &c in t {
            sum = sum.wrapping_add(c.0 as u64);
        }
        count += 1;
        ControlFlow::Continue(())
    };
    match path {
        0 => {
            for t in engine.enumerate() {
                let _ = visit(&t);
            }
        }
        1 => engine.for_each_answer(&mut visit),
        _ => engine.par_for_each_answer(par, &mut visit),
    }
    (black_box(sum), count)
}

fn enumerate(quick: bool, par: &ParConfig) -> Json {
    let scales: &[usize] = if quick {
        &[1 << 9, 1 << 10]
    } else {
        &[1 << 11, 1 << 12]
    };
    println!(
        "enumerate: `{RUNNING_EXAMPLE}`, bounded({ENUM_DEGREE}), boxed vs streaming vs parallel"
    );
    let rows: Vec<Json> = scales.iter().map(|&n| enumerate_scale(n, par)).collect();
    Json::obj([
        ("query", Json::Str(RUNNING_EXAMPLE.into())),
        ("degree_class", Json::Str(format!("bounded({ENUM_DEGREE})"))),
        ("skip_mode", Json::Str("eager".into())),
        ("eps", Json::Num(EPS)),
        ("scales", Json::Arr(rows)),
    ])
}

fn enumerate_scale(n: usize, par: &ParConfig) -> Json {
    let s = colored(n, DegreeClass::Bounded(ENUM_DEGREE), 1400 + n as u64);
    let q = parse_query(s.signature(), RUNNING_EXAMPLE).expect("parses");
    // warm_up: prefault the plans and charge first-answer setup to the
    // build, so the instrumented pass below measures steady-state delays
    let config = EngineConfig {
        skip_mode: SkipMode::Eager,
        eps: Epsilon::new(EPS),
        warm_up: true,
        ..EngineConfig::default()
    };
    let engine = Engine::build_configured(&s, &q, &config, par, None).expect("builds");

    // warm-up, untimed; also pins the expected checksum and count
    let (sum, count) = walk(&engine, par, 1);
    let [(boxed, ()), (streaming, ()), (parallel, ())] = best_of(|path| {
        let (got, dt) = time(|| walk(&engine, par, path));
        assert_eq!(got, (sum, count), "answer path {path} diverged");
        (dt, ())
    });

    // the parallel path's time to its first answer, best of REPS: the
    // caller runs the first slice itself, so no shard is waited for
    let par_first = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let mut first = Duration::ZERO;
            engine.par_for_each_answer(par, |t| {
                black_box(t);
                first = t0.elapsed();
                ControlFlow::Break(())
            });
            first
        })
        .min()
        .expect("REPS > 0");

    // Instrumented pass: per-answer wall-ns and RAM-op delays. The wall
    // sample is the per-answer minimum over REPS passes; the sample
    // vectors are prefaulted so the probe never page-faults mid-run. RAM
    // ops are deterministic, and the cross-rep assert makes that an
    // invariant, not an assumption.
    let mut floor: Vec<u64> = vec![u64::MAX; count as usize];
    let mut ops: Vec<u64> = Vec::new();
    for rep in 0..REPS {
        let mut wall: Vec<u64> = vec![0; count as usize];
        let mut o: Vec<u64> = vec![0; count as usize];
        let mut i = 0usize;
        let mut last = Instant::now();
        engine.for_each_answer_with_ops(|t, d| {
            black_box(t);
            let now = Instant::now();
            wall[i] = now.duration_since(last).as_nanos() as u64;
            o[i] = d;
            i += 1;
            last = now;
            ControlFlow::Continue(())
        });
        assert_eq!(i as u64, count, "instrumented pass diverged");
        for (f, w) in floor.iter_mut().zip(&wall) {
            *f = (*f).min(*w);
        }
        if rep == 0 {
            ops = o;
        } else {
            assert_eq!(o, ops, "RAM-op delays are not deterministic");
        }
    }
    let [p50, p99, p999, max] = percentiles(floor);
    let [o50, o99, _, omax] = percentiles(ops);
    // worst-to-typical spread: under Theorem 2.7 the algorithmic delay is
    // flat, so what this ratio shows above ~1 is probe overhead and jitter
    let max_p50 = max as f64 / p50.max(1) as f64;
    let rate = |d: Duration| Json::Num((count as f64 / d.as_secs_f64().max(1e-12)).round());
    let par_speedup = streaming.as_secs_f64() / parallel.as_secs_f64().max(1e-12);
    println!(
        "{n:>8}  {count:>8} answers  boxed {:>9}  streaming {:>9}  parallel {:>9} ({par_speedup:.2}x, \
         first {:>9})  wall {p50}/{p99}/{p999}/{max} ns (max/p50 {max_p50:.1})  ops {o50}/{o99}/{omax}",
        fmt_dur(boxed),
        fmt_dur(streaming),
        fmt_dur(parallel),
        fmt_dur(par_first)
    );
    Json::obj([
        ("n", int(n as u64)),
        ("count", int(count)),
        ("boxed_ms", ms(boxed)),
        ("streaming_ms", ms(streaming)),
        ("boxed_answers_per_s", rate(boxed)),
        ("streaming_answers_per_s", rate(streaming)),
        (
            "speedup",
            r3(boxed.as_secs_f64() / streaming.as_secs_f64().max(1e-12)),
        ),
        (
            "parallel",
            Json::obj([
                ("par_ms", ms(parallel)),
                ("par_first_ms", ms(par_first)),
                ("par_answers_per_s", rate(parallel)),
                ("par_speedup", r3(par_speedup)),
            ]),
        ),
        (
            "delay_wall_ns",
            Json::obj([
                ("p50", int(p50)),
                ("p99", int(p99)),
                ("p999", int(p999)),
                ("max", int(max)),
                ("max_p50_ratio", r3(max_p50)),
            ]),
        ),
        (
            "delay_ops",
            Json::obj([("p50", int(o50)), ("p99", int(o99)), ("max", int(omax))]),
        ),
    ])
}

// ---------------------------------------------------------------------
// workload
// ---------------------------------------------------------------------

const WORK_DEGREE: usize = 2;
/// Degree class of the heterogeneous arm's structure. Kept at 2: the
/// radius-1 quantified tails in [`CLAUSES`] already multiply the
/// neighborhood-type space so the Step 5 acceptance scan — the cost
/// clause sharing amortizes — dominates the per-query O(n) fixed costs
/// (localization, skip tables) that both planners pay identically;
/// degree 3 (or radius-2 tails) would push the combination count past
/// the engine budget.
const HETERO_DEGREE: usize = 2;

/// The three colors, permuted four ways → four distinct cores.
const PERMS: [[&str; 3]; 4] = [
    ["B", "R", "G"],
    ["R", "G", "B"],
    ["G", "B", "R"],
    ["B", "G", "R"],
];

/// Sixteen query strings: every color permutation in four syntactic
/// variants of one rewrite class — as-is, reversed conjuncts, a doubly
/// negated matrix, renamed variables. First-occurrence variable order is
/// `x, y, z` (or `u, v, w` positionally) in every variant, so the
/// sixteen engines agree column-for-column.
fn workload_sources() -> Vec<String> {
    let mut out = Vec::new();
    for [a, b, c] in PERMS {
        out.push(format!(
            "{a}(x) & {b}(y) & {c}(z) & !E(x, y) & !E(y, z) & !E(x, z)"
        ));
        out.push(format!(
            "!E(x, y) & !E(x, z) & !E(y, z) & {c}(z) & {b}(y) & {a}(x)"
        ));
        out.push(format!(
            "!!({a}(x) & {b}(y) & {c}(z) & !E(x, y) & !E(y, z) & !E(x, z))"
        ));
        out.push(format!(
            "{a}(u) & {b}(v) & {c}(w) & !E(u, v) & !E(v, w) & !E(u, w)"
        ));
    }
    out
}

/// Seven pairwise semantically disjoint clauses over two free variables:
/// each fixes a distinct (color-of-x, color-of-y, edge-polarity) triple,
/// so a two-clause disjunction's answer count is the sum of its clause
/// counts and different clause pairs give different counts. The
/// quantified tails raise the localization radius to 1, multiplying the
/// neighborhood-type space so the (shareable) Step 5 acceptance and
/// inclusion–exclusion work dominates the per-query fixed costs.
const CLAUSES: [&str; 7] = [
    "B(x) & R(y) & !E(x, y) & (exists z. E(x, z) & R(z))",
    "R(x) & G(y) & !E(x, y) & (exists z. E(x, z) & G(z))",
    "G(x) & B(y) & !E(x, y) & (exists z. E(x, z) & B(z))",
    "B(x) & G(y) & E(x, y) & (exists z. E(y, z) & R(z))",
    "R(x) & B(y) & E(x, y) & (exists z. E(y, z) & G(z))",
    "G(x) & R(y) & E(x, y) & (exists z. E(y, z) & B(z))",
    "B(x) & B(y) & !E(x, y) & (exists z. E(x, z) & B(z))",
];

/// Sixteen distinct clause pairs: no two queries share a whole core, but
/// every clause rides in at least four queries, so the thirty-two clause
/// slots fold onto seven distinct clause builds.
const PAIRS: [(usize, usize); 16] = [
    (0, 1),
    (1, 2),
    (2, 3),
    (3, 4),
    (4, 5),
    (5, 6),
    (0, 6),
    (0, 2),
    (1, 3),
    (2, 4),
    (3, 5),
    (4, 6),
    (0, 5),
    (1, 6),
    (0, 3),
    (1, 4),
];

fn workload(quick: bool, par: &ParConfig) -> Json {
    let n = if quick { 1 << 11 } else { 1 << 14 };
    println!(
        "workload: 16 ternary-scatter rewrite/color variants, bounded({WORK_DEGREE}), n = {n}"
    );
    let fields = [
        ("n", int(n as u64)),
        ("degree_class", Json::Str(format!("bounded({WORK_DEGREE})"))),
        ("eps", Json::Num(EPS)),
    ];
    Json::obj(
        fields
            .into_iter()
            .chain(homogeneous(n, par))
            .chain(heterogeneous(n, par)),
    )
}

/// Sixteen rewrite/color variants through one `build_workload` against
/// sixteen normalization-free builds, both over one warm cache; then the
/// `build_workload` arm again with the counting tier cleared per run.
fn homogeneous(n: usize, par: &ParConfig) -> [(&'static str, Json); 11] {
    let s = colored(n, DegreeClass::Bounded(WORK_DEGREE), 1400 + n as u64);
    let queries = parse_all(&s, &workload_sources());
    let qrefs: Vec<&Query> = queries.iter().collect();
    let config = default_config();
    let raw = EngineConfig {
        normalize: false,
        ..config
    };
    let cache = ArtifactCache::new();

    // Untimed warm-up: primes the extract/reduce core both arms share and
    // fixes the reference counts. The fingerprint-keyed caches it leaves
    // warm are exactly what the workload path may use and the
    // normalization-free path cannot.
    let (_, stats) = Engine::build_workload(&s, &qrefs, &config, par, &cache).expect("localizable");
    let reference: Vec<u64> = qrefs
        .iter()
        .map(|q| {
            Engine::build_configured(&s, q, &raw, par, Some(&cache))
                .expect("localizable")
                .count()
        })
        .collect();

    let planned = |cache: &ArtifactCache| {
        let before = Tally::of(cache);
        let ((engines, wl_stats), dt) =
            time(|| Engine::build_workload(&s, &qrefs, &config, par, cache).expect("localizable"));
        let got: Vec<u64> = engines.iter().map(|e| e.count()).collect();
        assert_eq!(got, reference, "workload counts diverged at n = {n}");
        assert_eq!(
            wl_stats.distinct_cores, stats.distinct_cores,
            "distinct-core count is not deterministic at n = {n}"
        );
        let arm = engines_arm(
            &distinct_engines(&engines),
            dt,
            Tally::of(cache).since(before),
        );
        (dt, arm)
    };
    let [(independent, independent_arm), (planned_dt, planned_arm)] = best_of(|arm| {
        if arm == 1 {
            return planned(&cache);
        }
        let before = Tally::of(&cache);
        let (built, dt) = time(|| {
            qrefs
                .iter()
                .map(|q| {
                    Engine::build_configured(&s, q, &raw, par, Some(&cache)).expect("localizable")
                })
                .collect::<Vec<_>>()
        });
        let got: Vec<u64> = built.iter().map(Engine::count).collect();
        assert_eq!(got, reference, "independent counts diverged at n = {n}");
        let built: Vec<&Engine> = built.iter().collect();
        (dt, engines_arm(&built, dt, Tally::of(&cache).since(before)))
    });

    // Reported only: with the counting tier (component and combination
    // counts) cleared, `build_workload` recounts every distinct core
    // instead of reading its combination counts.
    let fp = s.fingerprint();
    let [(cold_dt, cold_arm)] = best_of(|_| {
        cache.invalidate_counting(fp);
        planned(&cache)
    });

    println!(
        "{} queries onto {} distinct cores: build_workload {} vs independent {} ({:.2}x); \
         counting tier cleared {} ({:.2}x)",
        qrefs.len(),
        stats.distinct_cores,
        fmt_dur(planned_dt),
        fmt_dur(independent),
        speedup(independent, planned_dt),
        fmt_dur(cold_dt),
        speedup(independent, cold_dt)
    );
    [
        ("queries", int(qrefs.len() as u64)),
        ("distinct_cores", int(stats.distinct_cores as u64)),
        ("workload_ms", ms(planned_dt)),
        ("independent_ms", ms(independent)),
        ("speedup", r3(speedup(independent, planned_dt))),
        ("counts", counts(&reference)),
        ("workload_arm", planned_arm),
        ("independent_arm", independent_arm),
        ("cold_count_ms", ms(cold_dt)),
        ("cold_count_speedup", r3(speedup(independent, cold_dt))),
        ("cold_count_arm", cold_arm),
    ]
}

/// Sixteen pair-disjunctions over the seven-clause pool through the
/// clause-sharing planner against the whole-core planner
/// (`clause_sharing: false`), each on a fresh cache per run, so the gap
/// is exactly what the clause tier buys.
fn heterogeneous(n: usize, par: &ParConfig) -> [(&'static str, Json); 11] {
    let s = colored(n, DegreeClass::Bounded(HETERO_DEGREE), 2100 + n as u64);
    let sources: Vec<String> = PAIRS
        .iter()
        .map(|&(a, b)| format!("({}) | ({})", CLAUSES[a], CLAUSES[b]))
        .collect();
    let queries = parse_all(&s, &sources);
    let qrefs: Vec<&Query> = queries.iter().collect();
    let shared_cfg = default_config();
    let unshared_cfg = EngineConfig {
        clause_sharing: false,
        ..shared_cfg
    };

    // Untimed reference pass: fixes the counts, the planner statistics
    // and a bit-identity check between the two planners (counts plus an
    // enumeration prefix; the clausecheck conformance oracle covers full
    // order equality at smaller scales).
    let cache = ArtifactCache::new();
    let (engines, stats) =
        Engine::build_workload(&s, &qrefs, &shared_cfg, par, &cache).expect("localizable");
    let reference: Vec<u64> = engines.iter().map(|e| e.count()).collect();
    {
        let whole = ArtifactCache::new();
        let (ref_engines, ref_stats) =
            Engine::build_workload(&s, &qrefs, &unshared_cfg, par, &whole).expect("localizable");
        for (i, (a, b)) in engines.iter().zip(&ref_engines).enumerate() {
            assert_eq!(a.count(), b.count(), "query {i} count diverged at n = {n}");
            let xs: Vec<_> = a.enumerate().take(256).collect();
            let ys: Vec<_> = b.enumerate().take(256).collect();
            assert_eq!(xs, ys, "query {i} enumeration prefix diverged at n = {n}");
        }
        assert_eq!(
            ref_stats.clause_cache_hits, 0,
            "whole-core planner must not share clauses"
        );
        assert_eq!(ref_stats.distinct_clauses, stats.distinct_clauses);
    }
    // The workload is genuinely heterogeneous: queries with different
    // clause pairs answer differently (the clauses are pairwise disjoint,
    // so each count is the sum of two clause counts).
    let distinct_counts = reference.iter().collect::<BTreeSet<_>>().len();
    assert!(
        distinct_counts >= 8,
        "expected a heterogeneous count profile, got {distinct_counts} distinct of {}",
        reference.len()
    );
    assert_eq!(
        stats.distinct_cores,
        qrefs.len(),
        "no two pairs share a core"
    );
    assert_eq!(stats.distinct_clauses, CLAUSES.len());
    assert!(stats.clause_cache_hits > 0, "the clause tier must fire");

    let [(unshared, unshared_arm), (shared, shared_arm)] = best_of(|arm| {
        let cfg = if arm == 1 { &shared_cfg } else { &unshared_cfg };
        let ((engines, tally), dt) = time(|| {
            let fresh = ArtifactCache::new();
            let (engines, _) =
                Engine::build_workload(&s, &qrefs, cfg, par, &fresh).expect("localizable");
            (engines, Tally::of(&fresh))
        });
        let got: Vec<u64> = engines.iter().map(|e| e.count()).collect();
        assert_eq!(got, reference, "heterogeneous counts diverged at n = {n}");
        (dt, engines_arm(&distinct_engines(&engines), dt, tally))
    });
    println!(
        "heterogeneous: {} clause slots onto {} distinct clauses ({} hit(s)): \
         clause-shared {} vs whole-core {} ({:.2}x)",
        2 * qrefs.len(),
        stats.distinct_clauses,
        stats.clause_cache_hits,
        fmt_dur(shared),
        fmt_dur(unshared),
        speedup(unshared, shared)
    );
    [
        (
            "hetero_degree_class",
            Json::Str(format!("bounded({HETERO_DEGREE})")),
        ),
        ("hetero_queries", int(qrefs.len() as u64)),
        ("hetero_distinct_cores", int(stats.distinct_cores as u64)),
        (
            "hetero_distinct_clauses",
            int(stats.distinct_clauses as u64),
        ),
        ("hetero_clause_hits", int(stats.clause_cache_hits)),
        ("hetero_shared_ms", ms(shared)),
        ("hetero_unshared_ms", ms(unshared)),
        ("hetero_speedup", r3(speedup(unshared, shared))),
        ("hetero_counts", counts(&reference)),
        ("hetero_shared_arm", shared_arm),
        ("hetero_unshared_arm", unshared_arm),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const PR5: &str = include_str!("../../../../BENCH_preprocess.pr5.json");
    const PR7: &str = include_str!("../../../../BENCH_enumerate.pr7.json");
    const PR10: &str = include_str!("../../../../BENCH_workload.pr10.json");
    /// The committed full run.
    const FULL: &str = include_str!("../../../../BENCH_gate.json");

    fn parse(text: &str) -> Json {
        Json::parse(text).expect("committed JSON parses")
    }

    fn baselines(quick: bool) -> Vec<(&'static str, Json)> {
        [("preprocess", PR5), ("enumerate", PR7), ("workload", PR10)]
            .into_iter()
            .map(|(name, text)| (name, if quick { Json::Null } else { parse(text) }))
            .collect()
    }

    /// The value at a dotted path of object keys and array indices.
    fn slot<'a>(v: &'a mut Json, path: &str) -> &'a mut Json {
        path.split('.').fold(v, |v, key| match v {
            Json::Obj(m) => m.get_mut(key).expect("key present"),
            Json::Arr(a) => &mut a[key.parse::<usize>().expect("index")],
            _ => panic!("no {key} in {path}"),
        })
    }

    /// The committed full run as a quick document: two scales per section.
    fn quick_doc() -> Json {
        let mut doc = parse(FULL);
        *slot(&mut doc, "quick") = Json::Bool(true);
        for sec in ["preprocess.scales", "enumerate.scales"] {
            if let Json::Arr(scales) = slot(&mut doc, sec) {
                scales.truncate(2);
            }
        }
        doc
    }

    /// `(section/mode name)` of every failing row.
    fn failing(doc: &Json, quick: bool) -> BTreeSet<String> {
        gate(doc, &baselines(quick))
            .iter()
            .filter(|o| !o.pass)
            .map(|o| format!("{:?} {} {}", o.row.mode, o.row.section, o.row.name))
            .collect()
    }

    #[test]
    fn committed_baselines_parse_to_the_scraped_values() {
        let pr5 = parse(PR5);
        let big = largest(&pr5).expect("scales");
        assert_eq!(num(big, "n"), Some(16384.0));
        assert_eq!(num(big, "uncached_ms"), Some(10378.461));
        assert_eq!(num(big, "cached_ms"), Some(927.85));
        assert_eq!(
            at(big, "count_uncached").and_then(|c| c.as_u64()),
            Some(80_749_071_987)
        );
        let pr7 = parse(PR7);
        assert_eq!(
            at(&pr7, "scales.*.count"),
            Some(counts(&[367_079, 1_538_622]))
        );
        let pr10 = parse(PR10);
        assert_eq!(num(&pr10, "n"), Some(16384.0));
        assert_eq!(num(&pr10, "distinct_cores"), Some(4.0));
        assert_eq!(num(&pr10, "hetero_distinct_clauses"), Some(7.0));
        assert_eq!(num(&pr10, "counts.#"), Some(16.0));
        assert_eq!(num(&pr10, "hetero_counts.#"), Some(16.0));
    }

    #[test]
    fn one_value_past_its_bound_fails_exactly_that_row() {
        let full = parse(FULL);
        let before = failing(&full, false);
        let mut bad = full.clone();
        *slot(&mut bad, "enumerate.scales.1.delay_ops.p99") = Json::Num(5.0);
        let mut want = before.clone();
        want.insert("Full enumerate RAM-op delay p99 per n".into());
        assert_eq!(failing(&bad, false), want);

        let quick = quick_doc();
        let before = failing(&quick, true);
        let mut bad = quick.clone();
        *slot(&mut bad, "preprocess.workload.speedup") = Json::Num(0.99);
        let mut want = before.clone();
        want.insert("Quick preprocess batched over independent warm builds".into());
        assert_eq!(failing(&bad, true), want);
    }

    #[test]
    fn a_missing_field_fails_its_row() {
        let mut doc = parse(FULL);
        if let Json::Obj(m) = slot(&mut doc, "workload") {
            m.remove("hetero_distinct_clauses");
        }
        let outcomes = gate(&doc, &baselines(false));
        let row = outcomes
            .iter()
            .find(|o| o.row.name == "hetero distinct clauses")
            .expect("the row runs");
        assert!(row.value.is_none() && !row.pass, "{row}");

        let mut doc = quick_doc();
        if let Json::Obj(m) = slot(&mut doc, "enumerate.scales.0.delay_ops") {
            m.remove("p99");
        }
        let now = failing(&doc, true);
        for name in ["fields present", "out-of-order delay percentiles per n"] {
            assert!(now.contains(&format!("Quick enumerate {name}")), "{now:?}");
        }
    }

    #[test]
    fn every_row_reads_a_value_in_a_quick_or_a_full_document() {
        let quick = gate(&quick_doc(), &baselines(true));
        let full = gate(&parse(FULL), &baselines(false));
        for row in ROWS {
            let read = quick
                .iter()
                .chain(&full)
                .any(|o| std::ptr::eq(o.row, row) && o.value.is_some());
            assert!(read, "row {} {} never reads a value", row.section, row.name);
        }
        // the quick bounds hold on full-scale numbers
        assert!(
            quick.iter().all(|o| o.pass),
            "quick rows fail on the committed run"
        );
    }
}
