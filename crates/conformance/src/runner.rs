//! The conformance run loop: generate → check → shrink → report.

use crate::delay::{delay_gates, DelayGate};
use crate::differential::{Disagreement, Mutation};
use crate::dynamic::dynamic_case;
use crate::json::Json;
use crate::oracle::{self, Findings, Verdict, ORACLES};
use crate::querygen::{QueryGen, QueryShape, ALL_SHAPES};
use crate::repro::Witness;
use crate::shrink::shrink_pair;
use crate::structgen::{spec_pool, StructSpec};
use lowdeg_logic::{format_formula, parse_query, Query};
use lowdeg_par::{par_map, ParConfig};
use lowdeg_storage::{write_structure, Structure};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// A named workload size.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Profile name (report key).
    pub name: String,
    /// Number of (structure, query) pairs.
    pub cases: usize,
    /// Structure sizes, cycled per case.
    pub sizes: Vec<usize>,
    /// Number of dynamic update scripts.
    pub dynamic_scripts: usize,
    /// Steps per dynamic script.
    pub dynamic_steps: usize,
    /// Delay-gate instance sizes `(small, large)`.
    pub delay_sizes: (usize, usize),
}

impl Profile {
    /// CI profile: ≥ 200 pairs, minutes not hours.
    pub fn smoke() -> Profile {
        Profile {
            name: "smoke".into(),
            cases: 224,
            sizes: vec![10, 14, 18, 22, 26, 30],
            dynamic_scripts: 4,
            dynamic_steps: 300,
            delay_sizes: (256, 2048),
        }
    }

    /// Nightly profile: an order of magnitude more pairs.
    pub fn full() -> Profile {
        Profile {
            name: "full".into(),
            cases: 2000,
            sizes: vec![10, 14, 18, 22, 26, 30, 36, 42],
            dynamic_scripts: 16,
            dynamic_steps: 800,
            delay_sizes: (256, 4096),
        }
    }

    /// A tiny profile for the harness's own tests.
    pub fn mini() -> Profile {
        Profile {
            name: "mini".into(),
            cases: 24,
            sizes: vec![10, 14],
            dynamic_scripts: 1,
            dynamic_steps: 120,
            delay_sizes: (64, 256),
        }
    }

    /// Look up a profile by name.
    pub fn by_name(name: &str) -> Result<Profile, String> {
        match name {
            "smoke" => Ok(Profile::smoke()),
            "full" => Ok(Profile::full()),
            "mini" => Ok(Profile::mini()),
            other => Err(format!("unknown profile `{other}` (smoke|full|mini)")),
        }
    }
}

/// Options of one run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Master seed; every case seed derives from it.
    pub seed: u64,
    /// Where witnesses and the report go.
    pub out_dir: PathBuf,
    /// Deliberate engine corruption (`--inject-bug`).
    pub inject: Mutation,
    /// Skip the delay gate (used by tests that only exercise the
    /// differential loop).
    pub skip_delay_gate: bool,
    /// Worker pool for the case loop: cases *check* in parallel, then
    /// aggregate, shrink and write witnesses sequentially in case order —
    /// so the summary and any witnesses are identical for every thread
    /// count.
    pub par: ParConfig,
}

impl RunOptions {
    /// Defaults: seed 1, output to `target/conformance`, honest engine,
    /// thread count from `LOWDEG_THREADS`.
    pub fn new(seed: u64) -> RunOptions {
        RunOptions {
            seed,
            out_dir: PathBuf::from("target/conformance"),
            inject: Mutation::None,
            skip_delay_gate: false,
            par: ParConfig::from_env(),
        }
    }
}

/// One oracle row's case tally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowTally {
    /// Cases the row compared.
    pub checked: usize,
    /// Cases the row had nothing to compare on.
    pub skipped: usize,
}

/// Aggregated result of a conformance run.
#[derive(Debug, Default)]
pub struct RunSummary {
    /// Profile name.
    pub profile: String,
    /// Master seed.
    pub seed: u64,
    /// Pairs generated and cross-checked (naive vs baseline at minimum).
    pub pairs_checked: usize,
    /// Pairs where the engine accepted the query.
    pub engine_checked: usize,
    /// Pairs the engine rejected (non-localizable) — skips, not failures.
    pub rejected: usize,
    /// Per-shape checked counts.
    pub by_shape: BTreeMap<String, usize>,
    /// Per-spec checked counts.
    pub by_spec: BTreeMap<String, usize>,
    /// Per oracle row: how many cases it checked and how many it skipped.
    pub oracles: BTreeMap<&'static str, RowTally>,
    /// Worst per-output RAM ops seen anywhere.
    pub worst_ops: u64,
    /// All disagreements (after shrinking).
    pub disagreements: Vec<Disagreement>,
    /// Paths of written witness files.
    pub witnesses: Vec<PathBuf>,
    /// Dynamic-script disagreements.
    pub dynamic_disagreements: Vec<Disagreement>,
    /// Delay-gate measurements.
    pub delay: Vec<DelayGate>,
    /// Injected mutation, if any.
    pub injected: Mutation,
}

impl RunSummary {
    /// Cases the row named `row` checked and skipped (zero when it never
    /// ran).
    pub fn tally(&self, row: &str) -> RowTally {
        self.oracles.get(row).copied().unwrap_or_default()
    }

    /// Overall verdict: no disagreements anywhere, every gate passed, and
    /// every oracle row checked at least one case (a row that skips
    /// everything would pass vacuously).
    pub fn passed(&self) -> bool {
        ORACLES.iter().all(|o| self.tally(o.name).checked > 0)
            && self.disagreements.is_empty()
            && self.dynamic_disagreements.is_empty()
            && self.delay.iter().all(|g| g.passed)
    }

    /// The machine-readable report (`conformance_report.json`).
    pub fn to_json(&self) -> Json {
        let count_map = |m: &BTreeMap<String, usize>| {
            Json::Obj(
                m.iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                    .collect(),
            )
        };
        Json::obj([
            ("format", Json::Str("lowdeg-conformance-report/1".into())),
            ("profile", Json::Str(self.profile.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("injected_mutation", Json::Str(self.injected.label().into())),
            ("pairs_checked", Json::Num(self.pairs_checked as f64)),
            ("engine_checked", Json::Num(self.engine_checked as f64)),
            ("rejected", Json::Num(self.rejected as f64)),
            ("by_shape", count_map(&self.by_shape)),
            ("by_spec", count_map(&self.by_spec)),
            (
                "oracles",
                Json::Obj(
                    ORACLES
                        .iter()
                        .map(|o| {
                            let t = self.tally(o.name);
                            let tally = Json::obj([
                                ("checked", Json::Num(t.checked as f64)),
                                ("skipped", Json::Num(t.skipped as f64)),
                            ]);
                            (o.name.to_owned(), tally)
                        })
                        .collect(),
                ),
            ),
            ("worst_ops", Json::Num(self.worst_ops as f64)),
            (
                "disagreements",
                Json::Arr(
                    self.disagreements
                        .iter()
                        .chain(&self.dynamic_disagreements)
                        .map(|d| {
                            Json::obj([
                                ("row", Json::Str(d.row.into())),
                                ("check", Json::Str(d.check.clone())),
                                ("detail", Json::Str(d.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "witnesses",
                Json::Arr(
                    self.witnesses
                        .iter()
                        .map(|p| Json::Str(p.display().to_string()))
                        .collect(),
                ),
            ),
            (
                "delay_gate",
                Json::Arr(self.delay.iter().map(DelayGate::to_json).collect()),
            ),
            ("passed", Json::Bool(self.passed())),
        ])
    }
}

/// SplitMix64 — derives independent case seeds from the master seed.
fn split_seed(master: u64, i: u64) -> u64 {
    let mut z = master.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One generated case, ready to check.
struct Case {
    case_seed: u64,
    shape: QueryShape,
    spec: StructSpec,
    s: Structure,
    q: Query,
}

/// The pure check phase of one case: every oracle row, no side effects.
/// Safe to run concurrently across cases. An injected mutation corrupts
/// only the differential row's view of the engine, so only that row runs
/// under one.
fn check_one(case: &Case, inject: Mutation) -> (Findings, Vec<(&'static str, Verdict)>) {
    let ctx = oracle::Case {
        inject,
        ..oracle::Case::new(&case.s, &case.q, case.case_seed)
    };
    let mut found = Findings::default();
    let verdicts = ORACLES
        .iter()
        .filter(|o| inject == Mutation::None || o.name == "differential")
        .map(|o| (o.name, o.run(&ctx, &mut found)))
        .collect();
    (found, verdicts)
}

/// Fold one checked case into the summary; on failure shrink it and write
/// a witness. Runs sequentially in case order.
fn aggregate_one(
    case: &Case,
    found: Findings,
    verdicts: Vec<(&'static str, Verdict)>,
    opts: &RunOptions,
    summary: &mut RunSummary,
) {
    let Case {
        case_seed,
        shape,
        spec,
        s,
        q,
    } = case;
    let (case_seed, shape) = (*case_seed, *shape);
    let Findings { stats, mut bad, .. } = found;
    summary.pairs_checked += 1;
    for (row, verdict) in verdicts {
        let tally = summary.oracles.entry(row).or_default();
        match verdict {
            Verdict::Checked => tally.checked += 1,
            Verdict::Skipped => tally.skipped += 1,
        }
    }
    summary.worst_ops = summary.worst_ops.max(stats.worst_ops);
    if stats.engine_built {
        summary.engine_checked += 1;
    }
    if stats.rejection.is_some() && !stats.engine_built {
        summary.rejected += 1;
    }
    *summary
        .by_shape
        .entry(shape.label().to_owned())
        .or_default() += 1;
    *summary.by_spec.entry(spec.label()).or_default() += 1;

    if bad.is_empty() {
        return;
    }

    // shrink against the first failing check, re-running only the row
    // that emitted it and preserving the injected mutation so the failure
    // stays reproducible during shrinking
    let first = &bad[0];
    let row = oracle::by_name(first.row).expect("case disagreements come from table rows");
    let mut still_fails = |s2: &Structure, q2: &Query| {
        let ctx = oracle::Case {
            inject: opts.inject,
            ..oracle::Case::new(s2, q2, case_seed)
        };
        let mut found = Findings::default();
        row.run(&ctx, &mut found);
        found.bad.iter().any(|d| d.check == first.check)
    };
    let (small_s, small_q) = shrink_pair(s, q, &mut still_fails);
    let witness = Witness {
        row: row.name.into(),
        check: first.check.clone(),
        detail: first.detail.clone(),
        seed: case_seed,
        query_src: format_formula(&small_q.formula, &small_q.signature, &small_q.vars),
        structure_text: write_structure(&small_s),
        spec: Some(spec.clone()),
    };
    match witness.save(&opts.out_dir) {
        Ok(path) => summary.witnesses.push(path),
        Err(e) => eprintln!("warning: could not write witness: {e}"),
    }
    summary.disagreements.append(&mut bad);
}

/// Execute a full conformance run.
pub fn run(profile: &Profile, opts: &RunOptions) -> RunSummary {
    let mut summary = RunSummary {
        profile: profile.name.clone(),
        seed: opts.seed,
        injected: opts.inject,
        ..RunSummary::default()
    };
    let specs_base = spec_pool(0);

    // generation is cheap and seed-driven; checking dominates, so the
    // cases materialize first and then *check* on the worker pool (each
    // check is pure), with aggregation/shrinking/witness-writing kept
    // sequential in case order for a deterministic summary
    let cases: Vec<Case> = (0..profile.cases)
        .map(|i| {
            let case_seed = split_seed(opts.seed, i as u64);
            let shape = ALL_SHAPES[i % ALL_SHAPES.len()];
            let n = profile.sizes[(i / ALL_SHAPES.len()) % profile.sizes.len()];
            let spec = specs_base
                [(i / (ALL_SHAPES.len() * profile.sizes.len())) % specs_base.len()]
            .with_n(n);
            let s = spec.generate(case_seed);
            let src = QueryGen::new(case_seed).generate(shape);
            let q = parse_query(s.signature(), &src).expect("generated queries parse");
            Case {
                case_seed,
                shape,
                spec,
                s,
                q,
            }
        })
        .collect();
    let checked = par_map(&opts.par.min_items(1), &cases, |case| {
        check_one(case, opts.inject)
    });
    for (case, (found, verdicts)) in cases.iter().zip(checked) {
        aggregate_one(case, found, verdicts, opts, &mut summary);
    }

    // dynamic update scripts (honest engine only: the mutation hook models
    // a broken *static* enumerator)
    if opts.inject == Mutation::None {
        for i in 0..profile.dynamic_scripts {
            let seed = split_seed(opts.seed ^ 0xD1A0, i as u64);
            summary
                .dynamic_disagreements
                .extend(dynamic_case(seed, profile.dynamic_steps, 24, 25));
        }
    }

    if !opts.skip_delay_gate {
        summary.delay = delay_gates(profile.delay_sizes.0, profile.delay_sizes.1, opts.seed);
    }
    summary
}

/// Write the report file and return its path.
pub fn write_report(summary: &RunSummary, opts: &RunOptions) -> Result<PathBuf, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("creating {}: {e}", opts.out_dir.display()))?;
    let path = opts.out_dir.join("conformance_report.json");
    std::fs::write(&path, summary.to_json().pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_out(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lowdeg-conf-{tag}-{}", std::process::id()))
    }

    #[test]
    fn mini_run_is_clean_and_covers_all_shapes() {
        let mut opts = RunOptions::new(1);
        opts.out_dir = temp_out("clean");
        opts.skip_delay_gate = true;
        let summary = run(&Profile::mini(), &opts);
        assert!(summary.passed(), "{:?}", summary.disagreements);
        assert_eq!(summary.pairs_checked, 24);
        for o in ORACLES {
            let t = summary.tally(o.name);
            assert!(t.checked >= 1, "row {} checked no case: {t:?}", o.name);
            assert_eq!(t.checked + t.skipped, 24, "row {}", o.name);
        }
        assert_eq!(summary.by_shape.len(), ALL_SHAPES.len());
        assert!(summary.engine_checked > 0);
        assert!(summary.worst_ops >= 1);
        let report = write_report(&summary, &opts).unwrap();
        let text = std::fs::read_to_string(&report).unwrap();
        let parsed = crate::json::Json::parse(&text).unwrap();
        assert_eq!(parsed.get("passed").unwrap().as_bool(), Some(true));
        let oracles = parsed.get("oracles").unwrap();
        for o in ORACLES {
            let checked = oracles.get(o.name).and_then(|t| t.get("checked"));
            assert!(checked.and_then(Json::as_f64).unwrap() >= 1.0, "{}", o.name);
        }
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }

    #[test]
    fn injected_bug_is_caught_and_witnessed() {
        let mut opts = RunOptions::new(2);
        opts.out_dir = temp_out("inject");
        opts.inject = Mutation::DropAnswer;
        opts.skip_delay_gate = true;
        let mut profile = Profile::mini();
        profile.dynamic_scripts = 0;
        let summary = run(&profile, &opts);
        assert!(!summary.passed(), "injected bug slipped through");
        assert!(!summary.witnesses.is_empty(), "no witness written");
        // only the differential row sees the mutation, and says so
        assert!(summary
            .disagreements
            .iter()
            .all(|d| d.row == "differential"));
        // the witness is shrunk, loadable and names its row
        let w = crate::repro::Witness::load(&summary.witnesses[0]).unwrap();
        assert_eq!(w.row, "differential");
        let s = w.structure().unwrap();
        assert!(
            s.cardinality() <= 14,
            "shrinking failed: n={}",
            s.cardinality()
        );
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }

    #[test]
    fn seeds_are_reproducible() {
        let mut opts = RunOptions::new(7);
        opts.out_dir = temp_out("repro");
        opts.skip_delay_gate = true;
        let mut profile = Profile::mini();
        profile.cases = 8;
        profile.dynamic_scripts = 0;
        let a = run(&profile, &opts);
        let b = run(&profile, &opts);
        assert_eq!(a.pairs_checked, b.pairs_checked);
        assert_eq!(a.worst_ops, b.worst_ops);
        assert_eq!(a.by_shape, b.by_shape);
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }
}
