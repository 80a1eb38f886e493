//! Run records: the result line, the machine description and the values
//! committed in `expected.json`.

use crate::corpus::Workload;
use crate::report::Metric;
use crate::run::Report;
use lowdeg_conformance::json::Json;
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One-line JSON. The pretty printer puts every token on its own line
/// after the indentation, and strings never span lines, so trimming and
/// joining the lines yields the same document on one line.
pub fn compact(j: &Json) -> String {
    j.pretty().lines().map(str::trim).collect()
}

/// `{name: {value, unit}}` for a metric list.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let v = Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]);
                (m.name.to_string(), v)
            })
            .collect(),
    )
}

/// The result line the benchmark prints last.
pub fn result_line(r: &Report) -> String {
    compact(&Json::obj([
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", metrics_json(&r.metrics)),
    ]))
}

/// The machine a run measured on.
pub struct Machine {
    /// Commit of the checkout, when it is a git work tree.
    pub commit: String,
    /// Cores available to the process.
    pub nproc: usize,
    /// CPU model.
    pub cpu: String,
    /// Median time of a fixed CPU loop: shows drift between runs; never
    /// used to normalize a metric.
    pub calib_ms: f64,
}

impl Machine {
    /// Describe the machine the run measures on and time the
    /// calibration loop.
    pub fn probe() -> Self {
        Machine {
            commit: commit().unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
            cpu: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| {
                    let line = s.lines().find(|l| l.starts_with("model name"))?;
                    Some(line.split(':').nth(1)?.trim().to_string())
                })
                .unwrap_or_else(|| "unknown".into()),
            calib_ms: calibrate(),
        }
    }
}

/// The checkout's commit, read from `.git` without running git.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Median of three timings of a fixed integer loop, in milliseconds.
fn calibrate() -> f64 {
    let once = || {
        let t0 = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..20_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_add(i);
        }
        std::hint::black_box(x);
        t0.elapsed().as_secs_f64() * 1e3
    };
    let v: Vec<f64> = (0..3).map(|_| once()).collect();
    crate::stats::median(&v).expect("three samples")
}

/// The full record of a run, as `--out` writes it and `compare` reads it.
pub fn run_record(r: &Report, seed: u64, trace: bool, seconds: f64, machine: &Machine) -> Json {
    let finished = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64());
    let strs = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
    Json::obj([
        ("workload", Json::Str(r.workload.name().into())),
        ("seed", Json::Num(seed as f64)),
        ("trace", Json::Bool(trace)),
        ("seconds", Json::Num(seconds)),
        ("n", Json::Num(r.params.n as f64)),
        ("threads", Json::Num(r.params.threads as f64)),
        ("finished_unix", Json::Num(finished)),
        ("commit", Json::Str(machine.commit.clone())),
        ("nproc", Json::Num(machine.nproc as f64)),
        ("cpu", Json::Str(machine.cpu.clone())),
        ("machine.calib_ms", Json::Num(machine.calib_ms)),
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", metrics_json(&r.metrics)),
        ("notes", strs(&r.notes)),
        ("failures", strs(&r.failures)),
    ])
}

/// Write a run's record into `dir` as
/// `<workload>-seed<S>-<e2e|trace>-<k>.json`, with the first `k` no file
/// there has yet, so repeated runs of one seed accumulate side by side;
/// the traced pass also writes its spans to `<same stem>.spans.jsonl`.
/// Returns the record's path.
pub fn write(
    dir: &Path,
    r: &Report,
    seed: u64,
    trace: bool,
    seconds: f64,
    machine: &Machine,
) -> Result<PathBuf, String> {
    let err = |p: &Path, e: std::io::Error| format!("{}: {e}", p.display());
    std::fs::create_dir_all(dir).map_err(|e| err(dir, e))?;
    let text = run_record(r, seed, trace, seconds, machine).pretty();
    let pass = if trace { "trace" } else { "e2e" };
    for k in 1.. {
        let stem = format!("{}-seed{seed}-{pass}-{k}", r.workload.name());
        let path = dir.join(format!("{stem}.json"));
        let mut file = match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(err(&path, e)),
        };
        file.write_all(text.as_bytes()).map_err(|e| err(&path, e))?;
        if trace {
            let spans = dir.join(format!("{stem}.spans.jsonl"));
            std::fs::write(&spans, crate::trace::to_jsonl(&r.spans)).map_err(|e| err(&spans, e))?;
        }
        return Ok(path);
    }
    unreachable!("some index is free")
}

/// Verified values, committed with the benchmark. Every run of a workload
/// at full size reads the same database, and the values come from the
/// warm-up, which is the same whatever the seed.
const EXPECTED: &str = include_str!("../expected.json");

/// Where `--bless` rewrites `expected.json`.
const EXPECTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");

/// The committed values for `workload`, if they were recorded at this
/// size.
pub fn expected(workload: Workload, n: usize) -> Option<BTreeMap<String, u64>> {
    let all = Json::parse(EXPECTED).ok()?;
    let entry = all.get(workload.name())?;
    if entry.get("n")?.as_u64()? != n as u64 {
        return None;
    }
    let Json::Obj(values) = entry.get("values")? else {
        return None;
    };
    values
        .iter()
        .map(|(k, v)| Some((k.clone(), v.as_str()?.parse().ok()?)))
        .collect()
}

/// Record `observed` as the expected values of `workload`.
pub fn bless(workload: Workload, n: usize, observed: &BTreeMap<String, u64>) -> Result<(), String> {
    let text = std::fs::read_to_string(EXPECTED_PATH).map_err(|e| e.to_string())?;
    let Json::Obj(mut all) = Json::parse(&text)? else {
        return Err("expected.json is not an object".into());
    };
    let values = observed
        .iter()
        .map(|(k, v)| (k.clone(), Json::Str(v.to_string())))
        .collect();
    all.insert(
        workload.name().into(),
        Json::obj([("n", Json::Num(n as f64)), ("values", Json::Obj(values))]),
    );
    std::fs::write(EXPECTED_PATH, Json::Obj(all).pretty()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_is_one_line_and_round_trips() {
        let j = Json::obj([
            ("a b", Json::Str("x  y".into())),
            ("n", Json::Num(0.125)),
            ("arr", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        let line = compact(&j);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line), Ok(j));
    }

    #[test]
    fn committed_expectations_parse() {
        let all = Json::parse(EXPECTED).expect("expected.json is valid JSON");
        assert!(matches!(all, Json::Obj(_)));
    }
}
