//! E9 microbench: the Proposition 3.3 reduction — preprocessing cost for
//! radius-0 and radius-1 queries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lowdeg_bench::workloads::{colored, RUNNING_EXAMPLE, TWO_HOP};
use lowdeg_core::Reduction;
use lowdeg_gen::DegreeClass;
use lowdeg_index::Epsilon;
use lowdeg_logic::parse_query;
use lowdeg_par::ParConfig;
use std::time::Duration;

fn bench_reduction(c: &mut Criterion) {
    let mut g = c.benchmark_group("reduction");
    g.sample_size(10).measurement_time(Duration::from_secs(4));
    for (label, src, n) in [
        ("radius0", RUNNING_EXAMPLE, 1usize << 12),
        ("radius1", TWO_HOP, 1usize << 11),
    ] {
        let deg = if label == "radius1" { 2 } else { 4 };
        let s = colored(n, DegreeClass::Bounded(deg), n as u64);
        let q = parse_query(s.signature(), src).expect("parses");
        g.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
            b.iter(|| {
                Reduction::build(&s, &q, Epsilon::new(0.5), &ParConfig::from_env())
                    .expect("localizable")
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_reduction);
criterion_main!(benches);
