//! `compare`: a verdict for every (metric, workload) pair of two sets of
//! runs, by the bounds in `BENCHMARK.json` and the paired-runs rule.

use crate::stats::{median, quantiles};
use lowdeg_conformance::json::Json;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Fewest pairs a verdict other than "unresolved" needs.
pub const MIN_PAIRS: usize = 10;

/// How B compares with A on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B wins at least nine pairs in ten and the medians differ by more
    /// than A's interquartile range.
    Improved,
    /// Neither improved nor regressed, and A's spread is within the bound.
    Unchanged,
    /// B's median is worse than A's by more than the bound or, for a
    /// metric without a bound, B loses as an improvement would win.
    Regressed,
    /// Too few pairs, or A's spread is wider than the bound.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Judge runs `b` against runs `a`, paired in order. `lower` says lower
/// values are better; `bound` is the share of A's median by which B may
/// be worse.
pub fn verdict(a: &[f64], b: &[f64], lower: bool, bound: Option<f64>) -> Verdict {
    let pairs = a.len().min(b.len());
    if pairs < MIN_PAIRS {
        return Verdict::Unresolved;
    }
    let better = |x: f64, y: f64| if lower { x < y } else { x > y };
    let wins = a.iter().zip(b).filter(|&(&x, &y)| better(y, x)).count();
    let losses = a.iter().zip(b).filter(|&(&x, &y)| better(x, y)).count();
    let (ma, mb) = (median(a).expect("pairs"), median(b).expect("pairs"));
    let q = quantiles(a).expect("pairs");
    let iqr = q[2] - q[0];
    let gap = (mb - ma).abs();
    let worse_by = if lower { mb - ma } else { ma - mb } / ma.abs().max(f64::MIN_POSITIVE);
    if bound.is_some_and(|bound| worse_by > bound) {
        return Verdict::Regressed;
    }
    if wins * 10 >= 9 * pairs && gap > iqr {
        return Verdict::Improved;
    }
    if bound.is_none() && losses * 10 >= 9 * pairs && gap > iqr {
        return Verdict::Regressed;
    }
    let spread = iqr / ma.abs().max(f64::MIN_POSITIVE);
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    match bound {
        Some(bound) if spread > bound && !all_better => Verdict::Unresolved,
        _ => Verdict::Unchanged,
    }
}

/// One metric's comparison rule.
struct Rule {
    lower: bool,
    bound: Option<f64>,
}

/// A run record, as `run --out` writes it.
struct Run {
    workload: String,
    seconds: f64,
    finished: f64,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn rules(benchmark: &Json) -> Result<BTreeMap<String, Rule>, String> {
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        let list = benchmark
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?;
        for m in list {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let bound = m.get("bound").and_then(Json::as_f64);
            out.insert(name.to_string(), Rule { lower, bound });
        }
    }
    Ok(out)
}

fn parse_run(j: &Json) -> Option<Run> {
    let Json::Obj(metrics) = j.get("metrics")? else {
        return None;
    };
    Some(Run {
        workload: j.get("workload")?.as_str()?.to_string(),
        seconds: j.get("seconds")?.as_f64()?,
        finished: j.get("finished_unix")?.as_f64()?,
        attempted: j.get("attempted")?.as_u64()?,
        failed: j.get("failed")?.as_u64()?,
        metrics: metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// Read the run records `run --out` wrote into `dir`.
fn load_runs(dir: &Path) -> Result<Vec<Run>, String> {
    let err = |p: &Path, e: std::io::Error| format!("{}: {e}", p.display());
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| err(dir, e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut runs = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| err(&f, e))?;
        let run = Json::parse(&text).ok().and_then(|j| parse_run(&j));
        runs.push(run.ok_or_else(|| format!("{}: not a run record", f.display()))?);
    }
    if runs.is_empty() {
        return Err(format!("no run records in {}", dir.display()));
    }
    Ok(runs)
}

/// Compare run sets `a` (the parent) and `b` (the change) and print a
/// verdict table. Returns whether nothing regressed and no error rate
/// rose.
pub fn compare(benchmark: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let text =
        std::fs::read_to_string(benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let rules = rules(&Json::parse(&text)?)?;
    let group = |runs: Vec<Run>| {
        let mut by: BTreeMap<String, Vec<Run>> = BTreeMap::new();
        for r in runs {
            by.entry(r.workload.clone()).or_default().push(r);
        }
        for v in by.values_mut() {
            v.sort_by(|x, y| x.finished.total_cmp(&y.finished));
        }
        by
    };
    let (a, b) = (load_runs(a)?, load_runs(b)?);
    // the run length is part of the benchmark: runs of other lengths
    // measure something else
    if let Some(r) = a.iter().chain(&b).find(|r| r.seconds != a[0].seconds) {
        return Err(format!(
            "runs of {} s and of {} s cannot be compared",
            a[0].seconds, r.seconds
        ));
    }
    let (a, b) = (group(a), group(b));
    let mut clean = true;
    println!("workload\tmetric\tmedian_a\tmedian_b\tchange_pct\tb_wins\tverdict");
    for (workload, runs_a) in &a {
        let Some(runs_b) = b.get(workload) else {
            println!("{workload}\t-\t-\t-\t-\t-\tno runs in B");
            continue;
        };
        let rate = |runs: &[Run]| {
            let (f, n) = runs
                .iter()
                .fold((0, 0), |(f, n), r| (f + r.failed, n + r.attempted));
            f as f64 / n.max(1) as f64
        };
        let (ea, eb) = (rate(runs_a), rate(runs_b));
        if eb > ea {
            clean = false;
        }
        println!(
            "{workload}\terror_rate\t{ea}\t{eb}\t-\t-\t{}",
            if eb > ea { "rose" } else { "not higher" }
        );
        for (name, rule) in &rules {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(name).copied())
                    .collect()
            };
            let (va, vb) = (values(runs_a), values(runs_b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(&va, &vb, rule.lower, rule.bound);
            if v == Verdict::Regressed {
                clean = false;
            }
            let (ma, mb) = (median(&va).unwrap_or(0.0), median(&vb).unwrap_or(0.0));
            let pairs = va.len().min(vb.len());
            let better = |x: f64, y: f64| if rule.lower { y < x } else { y > x };
            let wins = va.iter().zip(&vb).filter(|&(&x, &y)| better(x, y)).count();
            println!(
                "{workload}\t{name}\t{ma}\t{mb}\t{:.2}\t{wins}/{pairs}\t{v}",
                100.0 * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE)
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(base: f64, step: f64) -> Vec<f64> {
        (0..12).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn verdicts_follow_the_paired_rule() {
        let parent = series(100.0, 0.5); // IQR 3, spread 3%
                                         // every pair won, gap well past the IQR
        assert_eq!(
            verdict(&parent, &series(80.0, 0.5), true, Some(0.1)),
            Verdict::Improved
        );
        // same distribution: unchanged
        assert_eq!(
            verdict(&parent, &parent, true, Some(0.1)),
            Verdict::Unchanged
        );
        // worse by more than the bound
        assert_eq!(
            verdict(&parent, &series(115.0, 0.5), true, Some(0.1)),
            Verdict::Regressed
        );
        // worse, but within the bound
        assert_eq!(
            verdict(&parent, &series(104.0, 0.5), true, Some(0.1)),
            Verdict::Unchanged
        );
        // higher-is-better metrics mirror it
        assert_eq!(
            verdict(&parent, &series(120.0, 0.5), false, Some(0.1)),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&parent, &series(80.0, 0.5), false, Some(0.1)),
            Verdict::Regressed
        );
    }

    #[test]
    fn too_few_pairs_or_too_wide_a_spread_is_unresolved() {
        let few: Vec<f64> = series(100.0, 0.5)[..9].to_vec();
        assert_eq!(verdict(&few, &few, true, Some(0.1)), Verdict::Unresolved);
        let wide = series(50.0, 10.0); // IQR 60 on a median of 105
        let shifted: Vec<f64> = wide.iter().map(|v| v * 0.98).collect();
        assert_eq!(
            verdict(&wide, &shifted, true, Some(0.1)),
            Verdict::Unresolved
        );
        // ... unless every change run beats every parent run
        let apart: Vec<f64> = wide.iter().map(|v| v - 200.0).collect();
        assert_eq!(verdict(&wide, &apart, true, Some(0.1)), Verdict::Improved);
    }

    #[test]
    fn unbounded_metrics_regress_by_the_paired_rule() {
        let parent = series(100.0, 0.5);
        assert_eq!(
            verdict(&parent, &series(120.0, 0.5), true, None),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&parent, &series(101.0, 0.5), true, None),
            Verdict::Unchanged
        );
    }

    /// A record of workload `cli-build`, seed 1, with one metric.
    fn report(latency: f64) -> crate::Report {
        crate::Report {
            workload: crate::Workload::CliBuild,
            params: crate::Workload::CliBuild.params(true),
            correct: true,
            attempted: 40,
            failed: 0,
            metrics: vec![crate::report::Metric {
                name: "latency_p50_ms",
                value: latency,
                unit: "ms",
            }],
            notes: Vec::new(),
            failures: Vec::new(),
            spans: Vec::new(),
            observed: BTreeMap::new(),
        }
    }

    #[test]
    fn repeated_runs_of_one_seed_accumulate() {
        let machine = crate::record::Machine {
            commit: "c".into(),
            nproc: 2,
            cpu: "cpu".into(),
            calib_ms: 1.0,
        };
        let root = std::path::PathBuf::from(".benchmark-tmp")
            .join(format!("compare-test-{}", std::process::id()));
        let (a, b) = (root.join("a"), root.join("b"));
        for (dir, seconds) in [(&a, 20.0), (&a, 20.0), (&b, 20.0), (&b, 10.0)] {
            crate::record::write(dir, &report(600.0), 1, false, seconds, &machine)
                .expect("record written");
        }
        let loaded = load_runs(&a).map(|runs| runs.len());
        let bench = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"));
        let mixed = compare(bench, &a, &b);
        let _ = std::fs::remove_dir_all(&root);
        // the parent goes too once no other test or run uses it
        let _ = std::fs::remove_dir(".benchmark-tmp");
        assert_eq!(loaded, Ok(2), "both records of seed 1 are kept");
        assert!(mixed.is_err_and(|e| e.contains("cannot be compared")));
    }
}
