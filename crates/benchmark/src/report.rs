//! Metric definitions and their computation from a run's record.

use crate::run::{LayerData, Sample, Timed};
use crate::stats::{self, median, percentile, sorted, supported_tail};
use crate::trace;
use std::collections::{BTreeMap, BTreeSet};

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value, unrounded.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The end-to-end metrics: name, unit, better direction. The latency tail
/// is printed with its sample count but has no bound: within one run it
/// follows the stretches a shared host runs slow, and its spread over ten
/// seeds exceeded the widest bound the benchmark may set.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("ttfa_p50_ms", "ms", "lower"),
    ("answers_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// The per-layer metrics: name, unit, better direction.
pub const PER_LAYER: [(&str, &str, &str); 34] = [
    ("storage.load_ms", "ms", "lower"),
    ("storage.gaifman_ms", "ms", "lower"),
    ("logic.parse_us", "us", "lower"),
    ("logic.normalize_us", "us", "lower"),
    ("locality.localize_ms", "ms", "lower"),
    ("reduction.build_ms", "ms", "lower"),
    ("reduction.extract_ms", "ms", "lower"),
    ("reduction.assemble_ms", "ms", "lower"),
    ("counting.ie_ms", "ms", "lower"),
    ("counting.memo_hit_ratio", "ratio", "higher"),
    ("counting.combo_hit_ratio", "ratio", "higher"),
    ("enumerate.build_ms", "ms", "lower"),
    ("enumerate.first_answer_us", "us", "lower"),
    ("enumerate.par_first_answer_ms", "ms", "lower"),
    ("enumerate.serial_rows_per_s", "1/s", "higher"),
    ("enumerate.par_rows_per_s", "1/s", "higher"),
    ("enumerate.delay_ops_p50", "count", "lower"),
    ("enumerate.delay_ops_p99", "count", "lower"),
    ("enumerate.delay_ops_max", "count", "lower"),
    ("enumerate.delay_wall_p99_ns", "ns", "lower"),
    ("testing.probe_ns", "ns", "lower"),
    ("engine.build_ms", "ms", "lower"),
    ("engine.unprofiled_ms", "ms", "lower"),
    ("engine.sharing_ratio", "ratio", "higher"),
    ("engine.distinct_cores", "count", "lower"),
    ("engine.distinct_clauses", "count", "lower"),
    ("artifacts.hit_ratio", "ratio", "higher"),
    ("artifacts.clause_hit_ratio", "ratio", "higher"),
    ("artifacts.evictions", "count", "lower"),
    ("artifacts.entries", "count", "lower"),
    ("par.drain_speedup", "ratio", "higher"),
    ("cli.format_ns_per_row", "ns", "lower"),
    ("trace.unattributed_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

fn metrics(
    table: &[(&'static str, &'static str, &'static str)],
    values: &BTreeMap<&str, f64>,
) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit, _)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

/// The end-to-end metrics of an untraced run, from its timed requests and
/// its set-up repetitions (seconds, host factor). Times are divided by
/// the host factor in force when they were measured, and rates
/// multiplied by it; the notes give them as measured too.
pub fn end_to_end(
    t: &Timed,
    cycle: usize,
    setups: &[(f64, f64)],
    peak_rss_mb: f64,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let samples: Vec<&Sample> = t.samples.iter().filter(|s| !s.warm_up).collect();
    let streaming = samples.iter().any(|s| s.streams);
    notes.push(format!(
        "samples: {} warm-up and {} timed requests ({} timed s, {} cycles of {cycle}), \
         {} with a first row, {} streaming",
        t.samples.len() - samples.len(),
        samples.len(),
        fmt(t.wall),
        samples.len() / cycle,
        samples.iter().filter(|s| s.first.is_some()).count(),
        samples.iter().filter(|s| s.streams).count(),
    ));
    let latency = sorted(samples.iter().map(|s| s.latency * 1e3).collect());
    if let Some(p) = supported_tail(latency.len()) {
        notes.push(format!(
            "latency tail as measured: p{p} = {} ms ({} samples beyond it)",
            fmt(percentile(&latency, p).unwrap_or(0.0)),
            stats::beyond(latency.len(), p)
        ));
    }
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &samples {
        by_class.entry(&s.class).or_default().push(s.latency * 1e3);
    }
    for (class, v) in by_class {
        notes.push(format!(
            "class {class}: {} requests, median {} ms as measured",
            v.len(),
            fmt(median(&v).unwrap_or(0.0))
        ));
    }
    notes.push(crate::host::describe(t.host.factors()));

    // the timings, scaled by the host factor or as measured
    let timings = |scaled: bool| {
        let time = |secs: f64, host: f64| if scaled { secs / host } else { secs };
        let ms = |v: Vec<f64>| sorted(v.into_iter().map(|s| s * 1e3).collect());
        let latency = ms(samples.iter().map(|s| time(s.latency, s.host)).collect());
        let ttfa = ms(samples
            .iter()
            .filter_map(|s| Some(time(s.first?, s.host)))
            .collect());
        // answers_per_s counts the requests that stream answers, where
        // the workload has any; elsewhere every request's output rows
        let rate = |counted: &dyn Fn(&Sample) -> bool, count: &dyn Fn(&Sample) -> u64| {
            let per_cycle: Vec<f64> = samples
                .chunks_exact(cycle)
                .filter_map(|c| {
                    let counted = c.iter().filter(|s| counted(s));
                    let (n, secs) = counted.fold((0, 0.0), |(n, secs), s| {
                        (n + count(s), secs + time(s.latency, s.host))
                    });
                    (secs > 0.0).then(|| n as f64 / secs)
                })
                .collect();
            median(&per_cycle).unwrap_or(0.0)
        };
        let setup: Vec<f64> = setups
            .iter()
            .map(|&(secs, host)| time(secs, host))
            .collect();
        [
            ("setup_s", median(&setup).unwrap_or(0.0)),
            ("latency_p50_ms", percentile(&latency, 50.0).unwrap_or(0.0)),
            ("queries_per_s", rate(&|_| true, &|s| s.queries)),
            ("ttfa_p50_ms", percentile(&ttfa, 50.0).unwrap_or(0.0)),
            (
                "answers_per_s",
                rate(&|s| s.streams || !streaming, &|s| s.rows),
            ),
        ]
    };
    notes.push(format!(
        "as measured: {}",
        timings(false)
            .iter()
            .map(|(name, v)| format!("{name} {}", fmt(*v)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let values: BTreeMap<&str, f64> = timings(true)
        .into_iter()
        .chain([("peak_rss_mb", peak_rss_mb)])
        .collect();
    metrics(&END_TO_END, &values)
}

/// Median duration of the spans named `name`, in nanoseconds; with
/// `root`, only spans directly under roots of that name.
fn span_median(l: &LayerData, name: &str, root: Option<&str>) -> f64 {
    let spans = l.tracer.spans();
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .filter(|s| root.is_none_or(|r| s.parent.is_some_and(|p| spans[p].name == r)))
        .map(|s| s.nanos() as f64)
        .collect();
    median(&v).unwrap_or(0.0)
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// The per-layer metrics of a traced run.
pub fn per_layer(l: &LayerData, notes: &mut Vec<String>) -> Vec<Metric> {
    let spans = l.tracer.spans();
    let ms = |name| span_median(l, name, None) / 1e6;
    let us = |name| span_median(l, name, None) / 1e3;
    let probe_median = |f: &dyn Fn(&crate::replay::Probe) -> Option<f64>| {
        median(&l.probes.iter().filter_map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let ops = sorted(
        l.probes
            .iter()
            .flat_map(|p| p.delay_ops.iter().map(|&o| o as f64))
            .collect(),
    );
    let wall = sorted(
        l.probes
            .iter()
            .flat_map(|p| p.delay_wall_ns.iter().map(|&o| o as f64))
            .collect(),
    );
    let c = l.cache;

    // Untraced latency against the traced requests' roots and against the
    // sums of their top-level spans, overall and per request class.
    let top_sum = |root: usize| -> f64 {
        spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| s.nanos() as f64)
            .sum()
    };
    let untraced: Vec<f64> = l.untraced.iter().map(|(_, s)| s * 1e9).collect();
    let roots: Vec<f64> = l
        .traced
        .iter()
        .map(|&(_, r)| spans[r].nanos() as f64)
        .collect();
    let tops: Vec<f64> = l.traced.iter().map(|&(_, r)| top_sum(r)).collect();
    let mut classes: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for ((class, _), &u) in l.untraced.iter().zip(&untraced) {
        classes.entry(class).or_default().0.push(u);
    }
    for ((class, _), &t) in l.traced.iter().zip(&tops) {
        classes.entry(class).or_default().1.push(t);
    }
    for (class, (u, t)) in classes {
        if let Some(share) = traced_share(&u, &t, l.paired) {
            notes.push(format!(
                "class {class}: top-level spans sum to {}% of the untraced latency",
                fmt(100.0 * share)
            ));
        }
    }
    let top_share = traced_share(&untraced, &tops, l.paired);
    let root_share = traced_share(&untraced, &roots, l.paired);
    notes.push(format!(
        "spans: {} in {} traced requests; {} untraced requests; {} probes",
        spans.len(),
        l.traced.len(),
        l.untraced.len(),
        l.probes.len()
    ));

    let median_of = |v: Vec<f64>| median(&v).unwrap_or(0.0);
    // cold builds are the `engine.build` spans with a Gaifman child; their
    // self time is the build work no profile stage covers
    let selfs = trace::self_times(spans);
    let cold: BTreeSet<usize> = spans
        .iter()
        .filter(|s| s.name == "storage.gaifman")
        .filter_map(|s| s.parent)
        .collect();
    let unprofiled = median_of(cold.iter().map(|&i| selfs[i] as f64).collect());
    let values: BTreeMap<&str, f64> = [
        ("storage.load_ms", ms("storage.load")),
        ("storage.gaifman_ms", ms("storage.gaifman")),
        ("logic.parse_us", us("logic.parse")),
        ("logic.normalize_us", us("logic.normalize")),
        ("locality.localize_ms", ms("locality.localize")),
        ("reduction.build_ms", ms("reduction.build")),
        ("reduction.extract_ms", ms("reduction.extract")),
        ("reduction.assemble_ms", ms("reduction.assemble")),
        ("counting.ie_ms", ms("counting.ie")),
        ("counting.memo_hit_ratio", ratio(c.memo_hits, c.memo_misses)),
        (
            "counting.combo_hit_ratio",
            ratio(c.combo_hits, c.combo_misses),
        ),
        ("enumerate.build_ms", ms("enumerate.build")),
        (
            "enumerate.first_answer_us",
            probe_median(&|p| Some(p.first_ns)) / 1e3,
        ),
        (
            "enumerate.par_first_answer_ms",
            probe_median(&|p| p.par_first_ns) / 1e6,
        ),
        (
            "enumerate.serial_rows_per_s",
            probe_median(&|p| p.serial_rows_per_s),
        ),
        (
            "enumerate.par_rows_per_s",
            probe_median(&|p| p.par_rows_per_s),
        ),
        (
            "enumerate.delay_ops_p50",
            percentile(&ops, 50.0).unwrap_or(0.0),
        ),
        (
            "enumerate.delay_ops_p99",
            percentile(&ops, 99.0).unwrap_or(0.0),
        ),
        (
            "enumerate.delay_ops_max",
            ops.last().copied().unwrap_or(0.0),
        ),
        (
            "enumerate.delay_wall_p99_ns",
            percentile(&wall, 99.0).unwrap_or(0.0),
        ),
        ("testing.probe_ns", probe_median(&|p| Some(p.test_ns))),
        (
            "engine.build_ms",
            span_median(l, "engine.build", Some("request")) / 1e6,
        ),
        ("engine.unprofiled_ms", unprofiled / 1e6),
        (
            "engine.sharing_ratio",
            if l.shared_ns > 0.0 {
                l.solo_ns / l.shared_ns
            } else {
                1.0
            },
        ),
        (
            "engine.distinct_cores",
            median_of(l.distinct.iter().map(|d| d.0 as f64).collect()),
        ),
        (
            "engine.distinct_clauses",
            median_of(l.distinct.iter().map(|d| d.1 as f64).collect()),
        ),
        ("artifacts.hit_ratio", ratio(c.hits, c.misses)),
        (
            "artifacts.clause_hit_ratio",
            ratio(c.clause_hits, c.clause_misses),
        ),
        ("artifacts.evictions", c.evictions as f64),
        ("artifacts.entries", c.entries as f64),
        (
            "par.drain_speedup",
            probe_median(&|p| Some(p.par_rows_per_s? / p.serial_rows_per_s?)),
        ),
        ("cli.format_ns_per_row", median_of(l.format_ns.clone())),
        (
            "trace.unattributed_ms",
            median(&untraced)
                .zip(top_share)
                .map_or(0.0, |(u, s)| u * (1.0 - s) / 1e6),
        ),
        (
            "trace.overhead_pct",
            root_share.map_or(0.0, |s| 100.0 * (s - 1.0)),
        ),
    ]
    .into_iter()
    .collect();
    metrics(&PER_LAYER, &values)
}

/// Traced time as a share of untraced latency. With `paired`, entry `i`
/// of both samples is one request, run untraced and then traced: the
/// median of the per-request ratios. Otherwise the ratio of the medians.
fn traced_share(untraced: &[f64], traced: &[f64], paired: bool) -> Option<f64> {
    if paired {
        let ratios: Vec<f64> = untraced.iter().zip(traced).map(|(u, t)| t / u).collect();
        median(&ratios)
    } else {
        Some(median(traced)? / median(untraced)?)
    }
}

/// A number with all its significant digits, for the human report.
pub fn fmt(v: f64) -> String {
    format!("{v:.6}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdeg_conformance::json::Json;

    /// `BENCHMARK.json` and the program agree on the run length and on
    /// every metric's name, unit and direction.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = Json::parse(&text).expect("valid JSON");
        let run_seconds = json.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(run_seconds, Some(crate::RUN_SECONDS));
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String, String)> = json
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = table
                .iter()
                .map(|&(n, u, b)| (n.into(), u.into(), b.into()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
