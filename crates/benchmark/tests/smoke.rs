//! `--quick` smoke test: every workload, in both passes, at reduced size.
//! Each reports every metric `BENCHMARK.json` names, and every output
//! verifies.

use lowdeg_benchmark::report::{END_TO_END, PER_LAYER};
use lowdeg_benchmark::{run, Options, Workload};

fn smoke(workload: Workload) {
    for trace in [false, true] {
        let opts = Options {
            workload,
            seed: 7,
            seconds: 0.3,
            trace,
            quick: true,
        };
        let r = run(&opts).expect("the run completes");
        assert!(r.params.n <= 1024);
        assert!(r.attempted > 0);
        assert_eq!(r.failed, 0, "{:?}", r.failures);
        assert!(r.correct, "{:?}", r.failures);
        let table = if trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = table.iter().map(|m| m.0).collect();
        assert_eq!(names, want);
        assert!(r.metrics.iter().all(|m| m.value.is_finite()));
        if trace {
            assert!(!r.spans.is_empty());
        } else {
            assert!(r.metrics.iter().all(|m| m.value > 0.0), "{:?}", r.metrics);
        }
    }
}

#[test]
fn cli_build() {
    smoke(Workload::CliBuild);
}

#[test]
fn cli_stream() {
    smoke(Workload::CliStream);
}

#[test]
fn batch_plan() {
    smoke(Workload::BatchPlan);
}

#[test]
fn session() {
    smoke(Workload::Session);
}
