//! `lowdeg-conformance` — differential/metamorphic conformance CLI.
//!
//! ```text
//! lowdeg-conformance run --profile smoke --seed 1 [--out DIR] [--inject-bug KIND]
//! lowdeg-conformance replay <witness.json>
//! lowdeg-conformance delay-gate [--small N] [--large N] [--seed N]
//! ```
//!
//! Exit code 0 means every check agreed and every gate passed; 1 means a
//! disagreement or gate failure; 2 means bad usage.

use lowdeg_conformance::delay::delay_gates;
use lowdeg_conformance::differential::Mutation;
use lowdeg_conformance::repro::{replay, Witness};
use lowdeg_conformance::runner::{run, write_report, Profile, RunOptions};
use lowdeg_conformance::{Verdict, ORACLES};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  lowdeg-conformance run --profile smoke|full|mini [--seed N] [--out DIR] [--threads N] [--inject-bug drop-answer|dup-answer|inflate-count|flip-test]
  lowdeg-conformance replay <witness.json>
  lowdeg-conformance delay-gate [--small N] [--large N] [--seed N]

--threads 0 (or unset) sizes the worker pool automatically; 1 forces a
fully serial run. LOWDEG_THREADS provides the default.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("delay-gate") => cmd_delay_gate(&args[1..]),
        Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Pull the value following `flag` out of `args`, if present.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return match it.next() {
                Some(v) => Ok(Some(v.clone())),
                None => Err(format!("{flag} needs a value")),
            };
        }
    }
    Ok(None)
}

fn parse_num(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    match flag_value(args, flag)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag} needs a number, got `{v}`")),
    }
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let profile_name = flag_value(args, "--profile")?.unwrap_or_else(|| "smoke".into());
    let profile = Profile::by_name(&profile_name)?;
    let mut opts = RunOptions::new(parse_num(args, "--seed", 1)?);
    if let Some(dir) = flag_value(args, "--out")? {
        opts.out_dir = PathBuf::from(dir);
    }
    if let Some(kind) = flag_value(args, "--inject-bug")? {
        opts.inject = Mutation::parse(&kind)?;
    }
    if let Some(t) = flag_value(args, "--threads")? {
        let n: usize = t
            .parse()
            .map_err(|_| format!("--threads needs a number, got `{t}`"))?;
        opts.par = lowdeg_par::ParConfig::with_threads(n);
    }

    println!(
        "running profile `{}` (seed {}, {} cases, inject: {})",
        profile.name,
        opts.seed,
        profile.cases,
        opts.inject.label()
    );
    let summary = run(&profile, &opts);
    let report = write_report(&summary, &opts)?;

    println!(
        "checked {} pairs ({} engine-accepted, {} rejected as non-localizable)",
        summary.pairs_checked, summary.engine_checked, summary.rejected
    );
    println!("worst per-output RAM ops observed: {}", summary.worst_ops);
    for o in ORACLES {
        let t = summary.tally(o.name);
        println!(
            "oracle {:12} checked {:4}  skipped {:4}{}",
            o.name,
            t.checked,
            t.skipped,
            if t.checked == 0 {
                "  FAIL (vacuous)"
            } else {
                ""
            }
        );
    }
    for g in &summary.delay {
        println!(
            "delay gate {:14} n={}->{}  ops {}->{}  threshold {}  {}",
            g.mode,
            g.n_small,
            g.n_large,
            g.worst_small,
            g.worst_large,
            g.threshold,
            if g.passed { "ok" } else { "FAIL" }
        );
    }
    for d in summary
        .disagreements
        .iter()
        .chain(&summary.dynamic_disagreements)
    {
        println!("DISAGREEMENT [{}/{}] {}", d.row, d.check, d.detail);
    }
    for w in &summary.witnesses {
        println!("witness: {}", w.display());
    }
    println!("report: {}", report.display());

    if summary.passed() {
        println!("conformance: PASS");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("conformance: FAIL");
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_replay(args: &[String]) -> Result<ExitCode, String> {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("replay needs a witness file")?;
    let witness = Witness::load(Path::new(path))?;
    println!(
        "replaying `{}` under row `{}` (seed {}, query: {})",
        witness.check, witness.row, witness.seed, witness.query_src
    );
    let outcome = replay(&witness)?;
    if outcome.verdict == Verdict::Skipped {
        println!("replay: row `{}` had nothing to compare", outcome.row);
    }
    for d in &outcome.disagreements {
        println!("DISAGREEMENT [{}/{}] {}", d.row, d.check, d.detail);
    }
    if outcome.reproduces {
        println!("replay: the recorded check `{}` still fails", witness.check);
        Ok(ExitCode::FAILURE)
    } else if outcome.disagreements.is_empty() {
        println!("replay: clean — the engine currently passes this witness");
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "replay: `{}` no longer fails, but other checks do",
            witness.check
        );
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_delay_gate(args: &[String]) -> Result<ExitCode, String> {
    let small = parse_num(args, "--small", 256)? as usize;
    let large = parse_num(args, "--large", 2048)? as usize;
    let seed = parse_num(args, "--seed", 1)?;
    if small == 0 || large <= small {
        return Err("need 0 < --small < --large".into());
    }
    let gates = delay_gates(small, large, seed);
    let mut ok = true;
    for g in &gates {
        ok &= g.passed;
        println!(
            "{:14} {:40} ops {}->{}  threshold {}  {}",
            g.mode,
            g.query,
            g.worst_small,
            g.worst_large,
            g.threshold,
            if g.passed { "ok" } else { "FAIL" }
        );
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
