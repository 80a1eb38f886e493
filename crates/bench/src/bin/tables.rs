//! Regenerates every experiment table of EXPERIMENTS.md.
//!
//! ```bash
//! cargo run --release -p lowdeg-bench --bin tables            # everything
//! cargo run --release -p lowdeg-bench --bin tables -- e4 e10  # a subset
//! cargo run --release -p lowdeg-bench --bin tables -- quick   # smaller grids
//! ```
//!
//! The paper has no empirical section (see DESIGN.md §2); each experiment
//! validates the *shape* of one theorem: fitted scaling exponents ≈ 1+ε for
//! the pseudo-linear claims, ≈ 0 for the constant-time/constant-delay
//! claims, and the predicted degradation of the naive baselines.

use lowdeg_bench::fit::slope_of_times;
use lowdeg_bench::workloads::{
    colored, colored_padded_clique, degree_classes, RUNNING_EXAMPLE, TERNARY_SCATTER, TWO_HOP,
};
use lowdeg_bench::{fmt_dur, time, time_avg};
use lowdeg_core::bluered::BlueRed;
use lowdeg_core::counting::count_conjunction;
use lowdeg_core::enumerate::SkipMode;
use lowdeg_core::naive::{DelayRecorder, GenerateAndTest};
use lowdeg_core::{Engine, EngineConfig};
use lowdeg_gen::DegreeClass;
use lowdeg_index::{Epsilon, FactIndex, HashFuncStore, RadixFuncStore};
use lowdeg_logic::eval::check_naive;
use lowdeg_logic::{parse_query, Formula, Query};
use lowdeg_par::ParConfig;
use lowdeg_storage::{Node, Structure};
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::time::Duration;

struct Cfg {
    quick: bool,
}

impl Cfg {
    fn sizes(&self, full: &[usize], quick: &[usize]) -> Vec<usize> {
        if self.quick {
            quick.to_vec()
        } else {
            full.to_vec()
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "quick");
    let cfg = Cfg { quick };
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| a.as_str() != "quick")
        .map(|s| s.as_str())
        .collect();
    let run = |id: &str| wanted.is_empty() || wanted.contains(&id);

    if run("e1") {
        e1_model_checking(&cfg);
    }
    if run("e2") {
        e2_counting(&cfg);
    }
    if run("e3") {
        e3_testing(&cfg);
    }
    if run("e4") {
        e4_enum_delay(&cfg);
    }
    if run("e5") {
        e5_bluered(&cfg);
    }
    if run("e6") {
        e6_storing(&cfg);
    }
    if run("e7") {
        e7_fact_index(&cfg);
    }
    if run("e8") {
        e8_connected_cq(&cfg);
    }
    if run("e9") {
        e9_reduction(&cfg);
    }
    if run("e10") {
        e10_skip_ablation(&cfg);
        e10_forced(&cfg);
    }
    if run("e11") {
        e11_padded_cliques(&cfg);
    }
    if run("e12") {
        e12_epsilon_sweep(&cfg);
    }
    if run("e13") {
        e13_query_size(&cfg);
    }
}

fn header(id: &str, claim: &str) {
    println!("\n=== {id}: {claim} ===");
}

const EPS: f64 = 0.5;

/// The engine of `q` over `s` in skip mode `mode` (E10's ablation axis).
/// RAM-operation delays of the first `cap` answers (the quantity Theorem
/// 2.7 bounds).
fn op_delays(engine: &Engine, cap: usize) -> Vec<u64> {
    let mut ops = Vec::new();
    engine.for_each_answer_with_ops(|_, d| {
        ops.push(d);
        if ops.len() >= cap {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    ops
}

fn build_mode(s: &Structure, q: &Query, mode: SkipMode) -> Engine {
    let config = EngineConfig {
        skip_mode: mode,
        eps: Epsilon::new(EPS),
        ..EngineConfig::default()
    };
    Engine::build_configured(s, q, &config, &ParConfig::from_env(), None).expect("localizable")
}

// ---------------------------------------------------------------- E1

/// Thm 2.4: model checking in pseudo-linear time across degree classes.
fn e1_model_checking(cfg: &Cfg) {
    header("E1", "Theorem 2.4 — model checking is pseudo-linear");
    let sentences = [
        ("connected", "exists x y. B(x) & R(y) & E(x, y)"),
        (
            "basic-local l=2",
            "exists u v. B(u) & B(v) & dist(u, v) > 4",
        ),
        (
            "basic-local l=3",
            "exists u v w. B(u) & B(v) & B(w) & dist(u, v) > 2 & dist(v, w) > 2 & dist(u, w) > 2",
        ),
    ];
    let sizes = cfg.sizes(
        &[1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14],
        &[1 << 10, 1 << 11, 1 << 12],
    );
    println!(
        "{:<14} {:<18} {:>8} {:>10} {:>7}",
        "class", "sentence", "n", "time", "holds"
    );
    for class in degree_classes() {
        for (label, src) in sentences {
            let mut samples = Vec::new();
            for &n in &sizes {
                let s = colored(n, class, 100 + n as u64);
                let q = parse_query(s.signature(), src).expect("parses");
                let (ok, dt) = time(|| Engine::model_check(&s, &q).expect("localizable"));
                println!(
                    "{:<14} {:<18} {:>8} {:>10} {:>7}",
                    class.label(),
                    label,
                    n,
                    fmt_dur(dt),
                    ok
                );
                samples.push((n, dt));
            }
            println!(
                "{:<14} {:<18} fitted exponent: {:.2}",
                class.label(),
                label,
                slope_of_times(&samples).unwrap_or(f64::NAN)
            );
        }
    }
}

// ---------------------------------------------------------------- E2

/// Thm 2.5 / Lemma 3.5: counting is pseudo-linear; inclusion-exclusion
/// costs 2^m in the number of negated binary atoms.
fn e2_counting(cfg: &Cfg) {
    header(
        "E2",
        "Theorem 2.5 — counting is pseudo-linear; Lemma 3.5's 2^m factor",
    );
    // (a) scaling of the full pipeline count
    let sizes = cfg.sizes(
        &[1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14],
        &[1 << 10, 1 << 11, 1 << 12],
    );
    println!("{:>8} {:>12} {:>14}", "n", "build+count", "|q(A)|");
    let mut samples = Vec::new();
    for &n in &sizes {
        let s = colored(n, DegreeClass::Bounded(4), 200 + n as u64);
        let q = parse_query(s.signature(), RUNNING_EXAMPLE).expect("parses");
        let (engine, dt) = time(|| Engine::build(&s, &q, Epsilon::new(EPS)).expect("localizable"));
        println!("{:>8} {:>12} {:>14}", n, fmt_dur(dt), engine.count());
        samples.push((n, dt));
    }
    println!(
        "fitted exponent: {:.2}",
        slope_of_times(&samples).unwrap_or(f64::NAN)
    );

    // (b) the 2^m factor on a fixed graph, via the direct Lemma 3.5 API
    let n = if cfg.quick { 1 << 11 } else { 1 << 13 };
    let s = colored(n, DegreeClass::Bounded(4), 777);
    let queries = [
        (1, "B(x) & R(y) & !E(x, y)"),
        (2, "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z)"),
        (3, TERNARY_SCATTER),
    ];
    println!("{:>3} {:>12} {:>14}  (n = {n})", "m", "count time", "count");
    for (m, src) in queries {
        let q = parse_query(s.signature(), src).expect("parses");
        let parts = match &q.formula {
            Formula::And(parts) => parts.clone(),
            other => vec![other.clone()],
        };
        let (c, dt) = time(|| count_conjunction(&s, &q.free, &parts).expect("well-formed"));
        println!("{m:>3} {:>12} {c:>14}", fmt_dur(dt));
    }
}

// ---------------------------------------------------------------- E3

/// Thm 2.6: constant-time testing after pseudo-linear preprocessing.
fn e3_testing(cfg: &Cfg) {
    header("E3", "Theorem 2.6 — membership tests are constant-time");
    // Radius-1 reductions build the full cluster machinery; the colored
    // graph's edge set scales with n·ball(3(2r+1))², so the sweep uses the
    // degree-2 class where balls grow linearly (see EXPERIMENTS.md E9 for
    // the blowup measurements at higher degree).
    let sizes = cfg.sizes(&[1 << 10, 1 << 11, 1 << 12, 1 << 13], &[1 << 10, 1 << 11]);
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "n", "preprocess", "test (sig)", "test (ψ/G)", "test (naive)"
    );
    let mut prep_samples = Vec::new();
    let mut test_samples = Vec::new();
    for &n in &sizes {
        let s = colored(n, DegreeClass::Bounded(2), 300 + n as u64);
        let q = parse_query(s.signature(), TWO_HOP).expect("parses");
        let (engine, prep) =
            time(|| Engine::build(&s, &q, Epsilon::new(EPS)).expect("localizable"));
        // deterministic pseudo-random probe tuples
        let tuples: Vec<[Node; 2]> = (0..1000u64)
            .map(|i| {
                let a = (i.wrapping_mul(2654435761) % n as u64) as u32;
                let b = (i.wrapping_mul(40503) % n as u64) as u32;
                [Node(a), Node(b)]
            })
            .collect();
        let mut idx = 0;
        let ours = time_avg(100_000, || {
            std::hint::black_box(engine.test(&tuples[idx % tuples.len()]));
            idx += 1;
        });
        let tix = engine.test_index().expect("arity >= 1");
        let mut kdx = 0;
        let via_psi = time_avg(20_000, || {
            std::hint::black_box(
                tix.test_via_fact_index(&tuples[kdx % tuples.len()])
                    .unwrap(),
            );
            kdx += 1;
        });
        let mut jdx = 0;
        let naive_probes = tuples.len().min(if cfg.quick { 50 } else { 200 });
        let naive = time_avg(naive_probes, || {
            std::hint::black_box(check_naive(&s, &q, &tuples[jdx % naive_probes]));
            jdx += 1;
        });
        println!(
            "{:>8} {:>12} {:>12} {:>12} {:>12}",
            n,
            fmt_dur(prep),
            fmt_dur(ours),
            fmt_dur(via_psi),
            fmt_dur(naive)
        );
        prep_samples.push((n, prep));
        test_samples.push((n, ours));
    }
    println!(
        "preprocess exponent: {:.2}   per-test exponent: {:.2} (constant ⇒ ≈ 0)",
        slope_of_times(&prep_samples).unwrap_or(f64::NAN),
        slope_of_times(&test_samples).unwrap_or(f64::NAN)
    );
}

// ---------------------------------------------------------------- E4

/// Thm 2.7: constant delay vs. the generate-and-test baseline.
fn e4_enum_delay(cfg: &Cfg) {
    header("E4", "Theorem 2.7 — enumeration delay stays constant in n");
    let sizes = cfg.sizes(&[1 << 11, 1 << 12, 1 << 13, 1 << 14], &[1 << 11, 1 << 12]);
    let out_cap = 100_000usize;
    println!(
        "{:>8} {:>12} {:>9} {:>9} {:>11} {:>11} {:>11}",
        "n", "preprocess", "max ops", "p99 ops", "skip p99", "naive max", "naive p99"
    );
    let mut ops_samples = Vec::new();
    for &n in &sizes {
        let s = colored(n, DegreeClass::Bounded(6), 400 + n as u64);
        let q = parse_query(s.signature(), RUNNING_EXAMPLE).expect("parses");
        let (engine, prep) =
            time(|| Engine::build(&s, &q, Epsilon::new(EPS)).expect("localizable"));
        // RAM-operation delays: the quantity Theorem 2.7 actually bounds
        let mut ops = op_delays(&engine, out_cap);
        ops.sort_unstable();
        let max_ops = ops.last().copied().unwrap_or(0);
        let p99_ops = ops
            .get(((ops.len() as f64 - 1.0) * 0.99) as usize)
            .copied()
            .unwrap_or(0);
        let (_, skip_delays) = DelayRecorder::record(engine.enumerate().take(out_cap));
        let (_, naive_delays) = DelayRecorder::record(GenerateAndTest::new(&s, &q).take(out_cap));
        println!(
            "{:>8} {:>12} {:>9} {:>9} {:>11} {:>11} {:>11}",
            n,
            fmt_dur(prep),
            max_ops,
            p99_ops,
            fmt_dur(skip_delays.quantile(0.99)),
            fmt_dur(naive_delays.max()),
            fmt_dur(naive_delays.quantile(0.99)),
        );
        ops_samples.push((n, Duration::from_nanos(max_ops.max(1))));
    }
    println!(
        "max-ops-delay exponent: {:.2} (constant => ~ 0)",
        slope_of_times(&ops_samples).unwrap_or(f64::NAN)
    );
}

// ---------------------------------------------------------------- E5

/// Example 2.3/3.8: the blue-red non-edge query, skip vs naive across the
/// degree sweep — the naive worst-case delay grows with the degree.
fn e5_bluered(cfg: &Cfg) {
    header(
        "E5",
        "Example 2.3/3.8 — blue-red non-edge query: skip vs naive across degrees",
    );
    let n = if cfg.quick { 1 << 12 } else { 1 << 14 };
    let degrees: &[usize] = if cfg.quick {
        &[2, 8, 32]
    } else {
        &[2, 4, 8, 16, 32, 64]
    };
    let out_cap = 200_000usize;
    println!(
        "{:>5} {:>12} {:>12} {:>11} {:>11} {:>11}  (n = {n})",
        "deg", "preprocess", "skip table", "skip max", "naive max", "naive p99"
    );
    for &d in degrees {
        let s = colored(n, DegreeClass::Bounded(d), 500 + d as u64);
        let (br, prep) = time(|| BlueRed::build(&s, Epsilon::new(EPS)));
        let (_, skip_delays) = DelayRecorder::record(br.enumerate().take(out_cap));
        let q = parse_query(s.signature(), RUNNING_EXAMPLE).expect("parses");
        let (_, naive_delays) =
            DelayRecorder::record(GenerateAndTest::new(&s, &q).take(out_cap / 10));
        println!(
            "{:>5} {:>12} {:>12} {:>11} {:>11} {:>11}",
            d,
            fmt_dur(prep),
            br.skip_entries(),
            fmt_dur(skip_delays.max()),
            fmt_dur(naive_delays.max()),
            fmt_dur(naive_delays.quantile(0.99)),
        );
    }
}

// ---------------------------------------------------------------- E6

/// Thm 2.1: the Storing Theorem — build/space/lookup vs ε and baselines.
fn e6_storing(cfg: &Cfg) {
    header(
        "E6",
        "Theorem 2.1 — Storing Theorem build/space/lookup trade-offs",
    );
    let n: usize = 1 << 20;
    let keys: usize = if cfg.quick { 20_000 } else { 100_000 };
    let entries: Vec<(Vec<Node>, u32)> = (0..keys as u64)
        .map(|i| {
            let a = (i.wrapping_mul(2654435761) % n as u64) as u32;
            let b = (i.wrapping_mul(97_003) % n as u64) as u32;
            (vec![Node(a), Node(b)], i as u32)
        })
        .collect();
    println!(
        "{:>6} {:>10} {:>12} {:>8} {:>10}  (k=2, n=2^20, {} keys)",
        "eps", "build", "space(w)", "depth", "lookup", keys
    );
    for eps in [0.1, 0.25, 0.5] {
        let e = Epsilon::new(eps);
        let (store, build) = time(|| RadixFuncStore::build(n, 2, e, entries.iter().cloned()));
        let mut i = 0;
        let lookup = time_avg(200_000, || {
            let (k, _) = &entries[i % entries.len()];
            std::hint::black_box(store.get(k));
            i += 1;
        });
        println!(
            "{eps:>6} {:>10} {:>12} {:>8} {:>10}",
            fmt_dur(build),
            store.space_words(),
            store.depth(),
            fmt_dur(lookup)
        );
    }
    // baselines
    let (hash, hash_build) = time(|| HashFuncStore::build(2, entries.iter().cloned()));
    let mut i = 0;
    let hash_lookup = time_avg(200_000, || {
        let (k, _) = &entries[i % entries.len()];
        std::hint::black_box(hash.get(k));
        i += 1;
    });
    let (btree, btree_build) = time(|| {
        let mut m: BTreeMap<Vec<Node>, u32> = BTreeMap::new();
        for (k, v) in &entries {
            m.insert(k.clone(), *v);
        }
        m
    });
    let mut i = 0;
    let btree_lookup = time_avg(200_000, || {
        let (k, _) = &entries[i % entries.len()];
        std::hint::black_box(btree.get(k));
        i += 1;
    });
    println!(
        "fxhash baseline: build {:>10}  lookup {:>10}",
        fmt_dur(hash_build),
        fmt_dur(hash_lookup)
    );
    println!(
        "btree  baseline: build {:>10}  lookup {:>10}",
        fmt_dur(btree_build),
        fmt_dur(btree_lookup)
    );

    // lookup flatness in n at fixed eps
    println!(
        "{:>10} {:>10}  lookup vs n at eps=0.5, 10k keys",
        "n", "lookup"
    );
    let mut flat = Vec::new();
    for exp in [12u32, 14, 16, 18, 20] {
        let n = 1usize << exp;
        let entries: Vec<(Vec<Node>, u32)> = (0..10_000u64)
            .map(|i| {
                let a = (i.wrapping_mul(2654435761) % n as u64) as u32;
                (vec![Node(a), Node((i % n as u64) as u32)], i as u32)
            })
            .collect();
        let store = RadixFuncStore::build(n, 2, Epsilon::new(0.5), entries.iter().cloned());
        let mut i = 0;
        let lookup = time_avg(200_000, || {
            let (k, _) = &entries[i % entries.len()];
            std::hint::black_box(store.get(k));
            i += 1;
        });
        println!("{n:>10} {:>10}", fmt_dur(lookup));
        flat.push((n, lookup.max(Duration::from_nanos(1))));
    }
    println!(
        "lookup exponent vs n: {:.2} (constant ⇒ ≈ 0)",
        slope_of_times(&flat).unwrap_or(f64::NAN)
    );
}

// ---------------------------------------------------------------- E7

/// Cor 2.2: constant-time fact tests vs the O(d) adjacency scan.
fn e7_fact_index(cfg: &Cfg) {
    header(
        "E7",
        "Corollary 2.2 — O(1) fact tests vs O(d) scans vs O(log) search",
    );
    let n = if cfg.quick { 1 << 12 } else { 1 << 14 };
    let degrees: &[usize] = if cfg.quick {
        &[4, 32]
    } else {
        &[2, 8, 32, 128]
    };
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>12}  (n = {n})",
        "deg", "index build", "fact-index", "adj scan", "bin search"
    );
    for &d in degrees {
        let s = colored(n, DegreeClass::Bounded(d), 600 + d as u64);
        let e = s.signature().rel("E").expect("E");
        let (idx, build) = time(|| FactIndex::build(&s, Epsilon::new(EPS)));
        let probes: Vec<[Node; 2]> = (0..1024u64)
            .map(|i| {
                [
                    Node((i.wrapping_mul(2654435761) % n as u64) as u32),
                    Node((i.wrapping_mul(40503) % n as u64) as u32),
                ]
            })
            .collect();
        let mut i = 0;
        let t_index = time_avg(200_000, || {
            std::hint::black_box(idx.holds(e, &probes[i % probes.len()]));
            i += 1;
        });
        // O(d) adjacency scan baseline
        let g = s.gaifman();
        let mut i = 0;
        let t_scan = time_avg(200_000, || {
            let p = &probes[i % probes.len()];
            std::hint::black_box(g.neighbors(p[0]).contains(&p[1]));
            i += 1;
        });
        // O(log) sorted-relation binary search
        let mut i = 0;
        let t_bin = time_avg(200_000, || {
            let p = &probes[i % probes.len()];
            std::hint::black_box(s.holds(e, p));
            i += 1;
        });
        println!(
            "{d:>5} {:>12} {:>12} {:>12} {:>12}",
            fmt_dur(build),
            fmt_dur(t_index),
            fmt_dur(t_scan),
            fmt_dur(t_bin)
        );
    }
}

// ---------------------------------------------------------------- E8

/// Lemma 3.1: connected conjunctive queries in time O(n · d^h) vs the
/// naive n^k join.
fn e8_connected_cq(cfg: &Cfg) {
    header("E8", "Lemma 3.1 — connected CQs run in time linear in n");
    use lowdeg_core::connected_cq::evaluate_connected;
    let patterns = [
        ("path-2", TWO_HOP),
        ("triangle", "E(x, y) & E(y, z) & E(z, x)"),
        ("colored edge", "E(x, y) & B(x) & !R(y)"),
    ];
    let sizes = cfg.sizes(
        &[1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14],
        &[1 << 10, 1 << 11, 1 << 12],
    );
    println!(
        "{:<13} {:>8} {:>12} {:>12}",
        "pattern", "n", "time", "answers"
    );
    for (label, src) in patterns {
        let mut samples = Vec::new();
        for &n in &sizes {
            let s = colored(n, DegreeClass::Bounded(4), 700 + n as u64);
            let q = parse_query(s.signature(), src).expect("parses");
            let (free, exists, parts) = match &q.formula {
                Formula::Exists(vs, body) => {
                    let parts = match &**body {
                        Formula::And(ps) => ps.clone(),
                        other => vec![other.clone()],
                    };
                    (q.free.clone(), vs.clone(), parts)
                }
                Formula::And(ps) => (q.free.clone(), vec![], ps.clone()),
                other => (q.free.clone(), vec![], vec![other.clone()]),
            };
            let (ans, dt) =
                time(|| evaluate_connected(&s, &free, &exists, &parts).expect("connected"));
            println!("{label:<13} {n:>8} {:>12} {:>12}", fmt_dur(dt), ans.len());
            samples.push((n, dt));
        }
        println!(
            "{label:<13} fitted exponent: {:.2}",
            slope_of_times(&samples).unwrap_or(f64::NAN)
        );
    }
}

// ---------------------------------------------------------------- E9

/// Prop 3.3: cost and blowup of the reduction to colored graphs.
fn e9_reduction(cfg: &Cfg) {
    header(
        "E9",
        "Proposition 3.3 — reduction cost and colored-graph blowup",
    );
    println!(
        "{:<22} {:>8} {:>4} {:>12} {:>10} {:>10} {:>8} {:>10} {:>8} {:>8}",
        "query", "n", "d", "build", "|dom G|", "clusters", "clauses", "|E(G)|", "dmax", "davg"
    );
    let sizes = cfg.sizes(&[1 << 10, 1 << 12, 1 << 14], &[1 << 10, 1 << 11]);
    for (label, src, deg) in [
        ("running example (r=0)", RUNNING_EXAMPLE, 4usize),
        ("two-hop (r=1)", TWO_HOP, 2),
    ] {
        let mut samples = Vec::new();
        for &n in &sizes {
            let s = colored(n, DegreeClass::Bounded(deg), 800 + n as u64);
            let q = parse_query(s.signature(), src).expect("parses");
            let (engine, dt) =
                time(|| Engine::build(&s, &q, Epsilon::new(EPS)).expect("localizable"));
            let red = engine.reduction().expect("arity >= 1");
            let adj = red.adjacency();
            let edges = adj.pair_count();
            println!(
                "{label:<22} {n:>8} {:>4} {:>12} {:>10} {:>10} {:>8} {:>10} {:>8} {:>8}",
                s.degree(),
                fmt_dur(dt),
                red.graph().cardinality(),
                red.cluster_count(),
                red.query().clause_count(),
                edges,
                adj.max_degree(),
                edges / red.graph().cardinality().max(1)
            );
            samples.push((n, dt));
        }
        println!(
            "{label:<22} fitted exponent: {:.2}",
            slope_of_times(&samples).unwrap_or(f64::NAN)
        );
    }
}

// ---------------------------------------------------------------- E10

/// Ablation: eager vs lazy skip tables vs no machinery at all.
fn e10_skip_ablation(cfg: &Cfg) {
    header("E10", "Ablation — eager vs lazy skip function");
    let n = if cfg.quick { 1 << 11 } else { 1 << 12 };
    let degrees: &[usize] = if cfg.quick { &[4, 8] } else { &[4, 8, 16] };
    let out_cap = 100_000usize;
    println!(
        "{:>5} {:<6} {:>12} {:>12} {:>11} {:>11} {:>9}  (n = {n})",
        "deg", "mode", "preprocess", "skip entries", "max delay", "p99 delay", "max ops"
    );
    for &d in degrees {
        let s = colored(n, DegreeClass::Bounded(d), 900 + d as u64);
        let q = parse_query(s.signature(), RUNNING_EXAMPLE).expect("parses");
        for (label, mode) in [("eager", SkipMode::Eager), ("lazy", SkipMode::Lazy)] {
            let (engine, prep) = time(|| build_mode(&s, &q, mode));
            let entries: usize = engine
                .enumerator()
                .map(|en| {
                    en.plans()
                        .iter()
                        .flat_map(|p| p.levels.iter().flatten())
                        .map(|l| l.skip_entries())
                        .sum()
                })
                .unwrap_or(0);
            let (_, delays) = DelayRecorder::record(engine.enumerate().take(out_cap));
            let max_ops = op_delays(&engine, out_cap).into_iter().max().unwrap_or(0);
            println!(
                "{d:>5} {label:<6} {:>12} {entries:>12} {:>11} {:>11} {max_ops:>9}",
                fmt_dur(prep),
                fmt_dur(delays.max()),
                fmt_dur(delays.quantile(0.99)),
            );
        }
    }
}

/// Forced-eager companion to E10: the paper-faithful E_k + Storing-Theorem
/// table, built unconditionally on an instance small enough to afford it.
fn e10_forced(cfg: &Cfg) {
    let n = if cfg.quick { 256 } else { 512 };
    println!(
        "{:>5} {:<12} {:>12} {:>12} {:>9}  (forced eager, n = {n})",
        "deg", "mode", "preprocess", "skip entries", "max ops"
    );
    for d in [2usize, 3] {
        let s = colored(n, DegreeClass::Bounded(d), 950 + d as u64);
        let q = parse_query(s.signature(), RUNNING_EXAMPLE).expect("parses");
        for (label, mode) in [
            ("eager-force", SkipMode::EagerForce),
            ("lazy", SkipMode::Lazy),
        ] {
            let (engine, prep) = time(|| build_mode(&s, &q, mode));
            let entries: usize = engine
                .enumerator()
                .map(|en| {
                    en.plans()
                        .iter()
                        .flat_map(|p| p.levels.iter().flatten())
                        .map(|l| l.skip_entries())
                        .sum()
                })
                .unwrap_or(0);
            let max_ops = op_delays(&engine, usize::MAX)
                .into_iter()
                .max()
                .unwrap_or(0);
            println!(
                "{d:>5} {label:<12} {:>12} {entries:>12} {max_ops:>9}",
                fmt_dur(prep)
            );
        }
    }
}

// ---------------------------------------------------------------- E11

/// §2.3: padded cliques — low degree but not nowhere dense; the pipeline
/// must stay pseudo-linear as the clique grows with n.
fn e11_padded_cliques(cfg: &Cfg) {
    header(
        "E11",
        "§2.3 — padded cliques (low degree, NOT nowhere dense) stay pseudo-linear",
    );
    let sizes = cfg.sizes(&[1 << 10, 1 << 12, 1 << 14, 1 << 16], &[1 << 10, 1 << 12]);
    println!(
        "{:>8} {:>7} {:>12} {:>12} {:>12}",
        "n", "clique", "build", "count", "first answer"
    );
    let mut samples = Vec::new();
    for &n in &sizes {
        let s = colored_padded_clique(n);
        let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").expect("parses");
        let (engine, build) =
            time(|| Engine::build(&s, &q, Epsilon::new(EPS)).expect("localizable"));
        let count = engine.count();
        let (first, tfirst) = time(|| engine.enumerate().next());
        println!(
            "{n:>8} {:>7} {:>12} {count:>12} {:>12}",
            s.degree() + 1,
            fmt_dur(build),
            fmt_dur(tfirst)
        );
        assert!(first.is_some() || count == 0);
        samples.push((n, build));
    }
    println!(
        "build exponent: {:.2}",
        slope_of_times(&samples).unwrap_or(f64::NAN)
    );
}

// ---------------------------------------------------------------- E12

/// The ε knob: pseudo-linearity means one algorithm per ε. Sweeping ε
/// trades preprocessing space (the n^ε factors inside every Storing-
/// Theorem structure) against nothing visible at query time — lookups are
/// constant for every ε.
fn e12_epsilon_sweep(cfg: &Cfg) {
    header(
        "E12",
        "the ε parameter — preprocessing cost vs constant query time",
    );
    let n = if cfg.quick { 1 << 11 } else { 1 << 13 };
    let s = colored(n, DegreeClass::Bounded(4), 1200);
    let q = parse_query(s.signature(), RUNNING_EXAMPLE).expect("parses");
    println!(
        "{:>6} {:>12} {:>12} {:>12}  (n = {n})",
        "eps", "preprocess", "test", "max ops"
    );
    for eps in [0.1, 0.25, 0.5, 1.0] {
        let (engine, prep) =
            time(|| Engine::build(&s, &q, Epsilon::new(eps)).expect("localizable"));
        let probes: Vec<[Node; 2]> = (0..512u64)
            .map(|i| {
                [
                    Node((i.wrapping_mul(2654435761) % n as u64) as u32),
                    Node((i.wrapping_mul(40503) % n as u64) as u32),
                ]
            })
            .collect();
        let mut i = 0;
        let t_test = time_avg(100_000, || {
            std::hint::black_box(engine.test(&probes[i % probes.len()]));
            i += 1;
        });
        let max_ops = op_delays(&engine, 50_000).into_iter().max().unwrap_or(0);
        println!(
            "{eps:>6} {:>12} {:>12} {max_ops:>12}",
            fmt_dur(prep),
            fmt_dur(t_test)
        );
    }
}

// ---------------------------------------------------------------- E13

/// Growth in the query size: arity k drives the k!-many injections, the
/// Bell(k) partitions and the ball^{k-1} cluster tuples of the reduction —
/// the paper's "constants depending on |q|" made visible at fixed n.
fn e13_query_size(cfg: &Cfg) {
    header(
        "E13",
        "query-size scaling — the f(|q|) factors of every theorem",
    );
    let n = if cfg.quick { 1 << 9 } else { 1 << 10 };
    let s = colored(n, DegreeClass::Bounded(3), 1300);
    let queries = [(1usize, "B(x)"), (2, RUNNING_EXAMPLE), (3, TERNARY_SCATTER)];
    println!(
        "{:>3} {:>12} {:>10} {:>8} {:>12}  (n = {n}, d = 3)",
        "k", "build", "clusters", "clauses", "count"
    );
    for (k, src) in queries {
        let q = parse_query(s.signature(), src).expect("parses");
        let (engine, dt) = time(|| Engine::build(&s, &q, Epsilon::new(EPS)).expect("localizable"));
        let red = engine.reduction().expect("arity >= 1");
        println!(
            "{k:>3} {:>12} {:>10} {:>8} {:>12}",
            fmt_dur(dt),
            red.cluster_count(),
            red.query().clause_count(),
            engine.count()
        );
    }
}

/// Keep the unused-structure warning away on quick runs.
#[allow(dead_code)]
fn _unused(_: &Structure) {}
