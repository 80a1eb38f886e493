//! `lowdeg-benchmark` — run the end-to-end benchmark or compare two sets
//! of runs.
//!
//! ```text
//! lowdeg-benchmark run [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
//!                      [--quick] [--out DIR] [--bless]
//! lowdeg-benchmark compare <runs-A> <runs-B> [--benchmark BENCHMARK.json]
//! ```
//!
//! `run` prints every metric of each workload with its unit, then the
//! workload's JSON result line; the last line of output is the result of
//! the last workload run. The timed phase lasts `RUN_SECONDS`, the
//! `run_seconds` of `BENCHMARK.json`; `--seconds` is accepted because the
//! benchmark's command line passes that value with every run, and
//! `compare` refuses to mix runs of different lengths.

use lowdeg_benchmark::record::{self, Machine};
use lowdeg_benchmark::report::fmt;
use lowdeg_benchmark::{compare, corpus, Options, Workload, RUN_SECONDS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Seed of a run that names none.
const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "usage:
  lowdeg-benchmark run [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
                       [--quick] [--out DIR] [--bless]
      W: cli-build, cli-stream, batch-plan or session (default: all four)
      --seconds length of the timed phase (default 22, 1 with --quick)
      --trace   the per-layer pass instead of the end-to-end pass
      --quick   reduced sizes for a smoke test
      --out     write each run's record (and spans) into DIR
      --bless   record this run's verified values in expected.json
  lowdeg-benchmark compare <runs-A> <runs-B> [--benchmark BENCHMARK.json]
      runs: a directory of records written by --out";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        _ => Err(USAGE.into()),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Parsed `run` arguments.
struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    bless: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workloads: corpus::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
        bless: false,
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                r.workloads =
                    vec![Workload::parse(w).ok_or_else(|| format!("unknown workload `{w}`"))?];
            }
            "--seed" => {
                r.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                r.seconds = Some(s);
            }
            // `--trace 0`, `--trace 1`, or a bare `--trace`
            "--trace" => {
                r.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => r.quick = true,
            "--out" => r.out = Some(PathBuf::from(value("--out")?)),
            "--bless" => r.bless = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(r)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    let seconds = a.seconds.unwrap_or(if a.quick { 1.0 } else { RUN_SECONDS });
    let machine = Machine::probe();
    println!(
        "machine: {} cores, {}, calibration loop {} ms, commit {}",
        machine.nproc,
        machine.cpu,
        fmt(machine.calib_ms),
        machine.commit
    );
    for w in a.workloads {
        let opts = Options {
            workload: w,
            seed: a.seed,
            seconds,
            trace: a.trace,
            quick: a.quick,
        };
        let r = lowdeg_benchmark::run(&opts)?;
        println!(
            "== {} ({}, n={}, threads={}, seed={})",
            w.name(),
            if a.trace {
                "per-layer pass"
            } else {
                "end-to-end pass"
            },
            r.params.n,
            r.params.threads,
            a.seed
        );
        for m in &r.metrics {
            println!("{} {} {}", m.name, fmt(m.value), m.unit);
        }
        for n in &r.notes {
            println!("  {n}");
        }
        let shown = 20;
        for f in r.failures.iter().take(shown) {
            println!("  FAILED: {f}");
        }
        if r.failures.len() > shown {
            println!("  ... and {} more failures", r.failures.len() - shown);
        }
        println!(
            "error_rate {} (failed {} of {} requests)",
            if r.attempted == 0 {
                0.0
            } else {
                r.failed as f64 / r.attempted as f64
            },
            r.failed,
            r.attempted
        );
        if let Some(dir) = &a.out {
            record::write(dir, &r, a.seed, a.trace, seconds, &machine)?;
        }
        if a.bless {
            if !r.correct {
                return Err("refusing to bless a run with failures".into());
            }
            record::bless(w, r.params.n, &r.observed)?;
        }
        println!("{}", record::result_line(&r));
    }
    Ok(ExitCode::SUCCESS)
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut paths = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--benchmark" => {
                benchmark = PathBuf::from(it.next().ok_or("--benchmark needs a path")?);
            }
            _ => paths.push(PathBuf::from(a)),
        }
    }
    let [a, b] = paths.as_slice() else {
        return Err(USAGE.into());
    };
    let clean = compare::compare(&benchmark, a, b)?;
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
