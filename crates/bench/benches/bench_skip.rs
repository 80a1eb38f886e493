//! E10 microbench: eager vs lazy skip tables — preprocessing cost and
//! enumeration throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lowdeg_bench::workloads::{colored, RUNNING_EXAMPLE};
use lowdeg_core::enumerate::SkipMode;
use lowdeg_core::{Engine, EngineConfig};
use lowdeg_gen::DegreeClass;
use lowdeg_index::Epsilon;
use lowdeg_logic::parse_query;
use lowdeg_par::ParConfig;
use std::time::Duration;

fn bench_skip(c: &mut Criterion) {
    let mut g = c.benchmark_group("skip_mode");
    g.sample_size(10).measurement_time(Duration::from_secs(4));
    // d = 32 at this size exhausts memory in the reduction's E-edge set
    // (the measured n·d^3 blowup of E9) — stay within the feasible regime.
    let n = 1usize << 11;
    for d in [8usize, 16] {
        let s = colored(n, DegreeClass::Bounded(d), d as u64);
        let q = parse_query(s.signature(), RUNNING_EXAMPLE).expect("parses");
        for (label, mode) in [("eager", SkipMode::Eager), ("lazy", SkipMode::Lazy)] {
            let config = EngineConfig {
                skip_mode: mode,
                eps: Epsilon::new(0.5),
                ..EngineConfig::default()
            };
            let par = ParConfig::from_env();
            let build =
                || Engine::build_configured(&s, &q, &config, &par, None).expect("localizable");
            g.bench_with_input(
                BenchmarkId::new(format!("preprocess_{label}"), d),
                &d,
                |b, _| b.iter(build),
            );
            let engine = build();
            g.bench_with_input(
                BenchmarkId::new(format!("enumerate_{label}_20k"), d),
                &d,
                |b, _| b.iter(|| engine.enumerate().take(20_000).count()),
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_skip);
criterion_main!(benches);
