//! Implementation of the `lowdeg` command-line interface (see `main.rs`),
//! factored into a library for testability: [`run`] takes the argument
//! vector and a writer, so the test suite can drive every command without
//! spawning processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lowdeg_core::{ArtifactCache, Engine, EngineConfig, SkipMode};
use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
use lowdeg_index::Epsilon;
use lowdeg_logic::parse_query;
use lowdeg_par::ParConfig;
use lowdeg_storage::{parse_edge_list, parse_structure, write_structure, Node, Structure};
use std::io::Write;
use std::ops::ControlFlow;

/// Answer-row rendering of the `enumerate` command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OutputFormat {
    /// Tab-separated rows plus a trailing `# N answers` comment (default).
    Tsv,
    /// One JSON array per answer, streamed through the visitor API — no
    /// materialization, no trailing comment (every line is valid JSON).
    Ndjson,
}

/// Execute one CLI invocation; `args` excludes the program name.
pub fn run(args: &[String], out: &mut impl Write) -> Result<(), String> {
    let mut args = args.to_vec();
    let eps = extract_eps(&mut args)?;
    let par = extract_threads(&mut args)?;
    let format = extract_format(&mut args)?;
    let build = |db: &Structure, q: &lowdeg_logic::Query| {
        Engine::build_with_config(db, q, eps, SkipMode::Eager, &par).map_err(|e| e.to_string())
    };
    let mut it = args.into_iter();
    let cmd = it.next().ok_or_else(usage)?;
    let rest: Vec<String> = it.collect();
    let w = |e: std::io::Error| format!("write error: {e}");

    match cmd.as_str() {
        "stats" => {
            let db = load(rest.first().ok_or_else(usage)?)?;
            writeln!(out, "domain:  {}", db.cardinality()).map_err(w)?;
            writeln!(out, "size:    {} (norm)", db.size()).map_err(w)?;
            writeln!(out, "degree:  {}", db.degree()).map_err(w)?;
            writeln!(out, "mean degree: {:.2}", db.gaifman().mean_degree()).map_err(w)?;
            let (_, comps) = db.gaifman().components();
            writeln!(out, "components: {comps}").map_err(w)?;
            writeln!(out, "schema:  {}", db.signature()).map_err(w)?;
            for rel in db.signature().rel_ids() {
                writeln!(
                    out,
                    "  {}: {} facts",
                    db.signature().name(rel),
                    db.relation(rel).len()
                )
                .map_err(w)?;
            }
            Ok(())
        }
        "check" => {
            let db = load(rest.first().ok_or_else(usage)?)?;
            let q = query(&db, rest.get(1).ok_or_else(usage)?)?;
            if !q.is_sentence() {
                return Err(format!(
                    "`check` needs a sentence; this query has {} free variables",
                    q.arity()
                ));
            }
            let ok = Engine::model_check(&db, &q).map_err(|e| e.to_string())?;
            writeln!(out, "{ok}").map_err(w)?;
            Ok(())
        }
        "explain" => {
            let db = load(rest.first().ok_or_else(usage)?)?;
            let q = query(&db, rest.get(1).ok_or_else(usage)?)?;
            // build through a cache so the report can show the artifact /
            // counting-memo state a long-lived process would accumulate
            let cache = ArtifactCache::new();
            let engine = Engine::build_full(&db, &q, eps, SkipMode::Eager, &par, Some(&cache))
                .map_err(|e| e.to_string())?;
            write!(out, "{}", engine.explain_with_cache(&cache)).map_err(w)?;
            Ok(())
        }
        "count" => {
            let db = load(rest.first().ok_or_else(usage)?)?;
            let q = query(&db, rest.get(1).ok_or_else(usage)?)?;
            let engine = build(&db, &q)?;
            // exact and computed at build time (Theorem 2.5), so every
            // thread count prints it without re-enumerating any answer
            writeln!(out, "{}", engine.count()).map_err(w)?;
            Ok(())
        }
        "test" => {
            let db = load(rest.first().ok_or_else(usage)?)?;
            let q = query(&db, rest.get(1).ok_or_else(usage)?)?;
            let tuple: Vec<Node> = rest[2..]
                .iter()
                .map(|s| s.parse::<u32>().map(Node))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("bad node id: {e}"))?;
            if tuple.len() != q.arity() {
                return Err(format!(
                    "query has arity {}, {} nodes given",
                    q.arity(),
                    tuple.len()
                ));
            }
            let engine = build(&db, &q)?;
            writeln!(out, "{}", engine.test(&tuple)).map_err(w)?;
            Ok(())
        }
        "enumerate" => {
            let db = load(rest.first().ok_or_else(usage)?)?;
            let q = query(&db, rest.get(1).ok_or_else(usage)?)?;
            let limit: usize = match rest.get(2) {
                Some(s) => s.parse().map_err(|e| format!("bad limit: {e}"))?,
                None => usize::MAX,
            };
            let engine = build(&db, &q)?;
            // both formats stream through the sharded parallel visitor —
            // the pool from --threads / LOWDEG_THREADS produces answers in
            // the serial order, so the output is thread-count-invariant;
            // a serial pool falls back to the delay-accounted visitor
            match format {
                OutputFormat::Tsv => {
                    let mut emitted = 0usize;
                    let mut werr: Option<std::io::Error> = None;
                    engine.par_for_each_answer(&par, |t| {
                        if emitted == limit {
                            return ControlFlow::Break(());
                        }
                        let row: Vec<String> = t.iter().map(|n| n.to_string()).collect();
                        if let Err(e) = writeln!(out, "{}", row.join("\t")) {
                            werr = Some(e);
                            return ControlFlow::Break(());
                        }
                        emitted += 1;
                        ControlFlow::Continue(())
                    });
                    if let Some(e) = werr {
                        return Err(w(e));
                    }
                    writeln!(out, "# {emitted} answers").map_err(w)?;
                }
                OutputFormat::Ndjson => {
                    // one reused line buffer, answers printed as produced
                    use std::fmt::Write as _;
                    let mut emitted = 0usize;
                    let mut line = String::new();
                    let mut werr: Option<std::io::Error> = None;
                    engine.par_for_each_answer(&par, |t| {
                        if emitted == limit {
                            return ControlFlow::Break(());
                        }
                        line.clear();
                        line.push('[');
                        for (i, n) in t.iter().enumerate() {
                            if i > 0 {
                                line.push(',');
                            }
                            write!(line, "{n}").expect("string write");
                        }
                        line.push(']');
                        if let Err(e) = writeln!(out, "{line}") {
                            werr = Some(e);
                            return ControlFlow::Break(());
                        }
                        emitted += 1;
                        ControlFlow::Continue(())
                    });
                    if let Some(e) = werr {
                        return Err(w(e));
                    }
                }
            }
            Ok(())
        }
        "workload" => {
            let db = load(rest.first().ok_or_else(usage)?)?;
            let path = rest.get(1).ok_or_else(usage)?;
            let explain = match rest.get(2).map(String::as_str) {
                None => false,
                Some("--explain") => true,
                Some(other) => return Err(format!("unknown workload option `{other}`")),
            };
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            // one query per line; blank lines and # comments skipped
            let sources: Vec<&str> = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect();
            if sources.is_empty() {
                return Err(format!("no queries in {path}"));
            }
            let queries: Vec<lowdeg_logic::Query> = sources
                .iter()
                .map(|src| query(&db, src))
                .collect::<Result<_, _>>()?;
            let refs: Vec<&lowdeg_logic::Query> = queries.iter().collect();
            let cache = ArtifactCache::new();
            let config = EngineConfig {
                eps,
                ..EngineConfig::default()
            };
            let (engines, stats) = Engine::build_workload(&db, &refs, &config, &par, &cache)
                .map_err(|e| e.to_string())?;
            for (i, (engine, src)) in engines.iter().zip(&sources).enumerate() {
                writeln!(out, "{i}\t{}\t{src}", engine.count()).map_err(w)?;
            }
            writeln!(
                out,
                "# workload: {} queries, {} distinct core(s), {} distinct clause(s), \
                 {} clause cache hit(s)",
                stats.queries,
                stats.distinct_cores,
                stats.distinct_clauses,
                stats.clause_cache_hits
            )
            .map_err(w)?;
            if explain {
                // per-clause sharing structure: which queries contribute
                // each canonical clause (the planner's unit of sharing)
                let clause_fps: Vec<Vec<u64>> = queries
                    .iter()
                    .map(|q| {
                        lowdeg_logic::normalize(q)
                            .clauses
                            .iter()
                            .map(|c| c.fingerprint)
                            .collect()
                    })
                    .collect();
                let mut owners: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
                for (i, fps) in clause_fps.iter().enumerate() {
                    for &fp in fps {
                        let entry = owners.entry(fp).or_default();
                        if entry.last() != Some(&i) {
                            entry.push(i);
                        }
                    }
                }
                // per-query sharing provenance: the first index whose
                // engine this query aliases, if any, plus its clauses
                for (i, engine) in engines.iter().enumerate() {
                    let shared_with = engines[..i]
                        .iter()
                        .position(|e| std::sync::Arc::ptr_eq(e, &engines[i]));
                    match (engine.normalization(), shared_with) {
                        (Some(info), Some(j)) => writeln!(
                            out,
                            "# query {i}: fingerprint {:016x} shared with query {j}",
                            info.fingerprint
                        ),
                        (Some(info), None) => {
                            let rewrites = if info.rewrites.is_empty() {
                                "none".to_string()
                            } else {
                                info.rewrites.join(", ")
                            };
                            writeln!(
                                out,
                                "# query {i}: fingerprint {:016x} built (rewrites: {rewrites}{})",
                                info.fingerprint,
                                if info.fallback {
                                    "; localize fallback"
                                } else {
                                    ""
                                }
                            )
                        }
                        (None, _) => writeln!(out, "# query {i}: normalization disabled"),
                    }
                    .map_err(w)?;
                    for (ci, fp) in clause_fps[i].iter().enumerate() {
                        let shared: Vec<String> = owners[fp]
                            .iter()
                            .filter(|&&j| j != i)
                            .map(|j| j.to_string())
                            .collect();
                        writeln!(
                            out,
                            "#   clause {ci}: {fp:016x}{}",
                            if shared.is_empty() {
                                " exclusive".to_string()
                            } else {
                                format!(
                                    " shared with quer{} {}",
                                    if shared.len() == 1 { "y" } else { "ies" },
                                    shared.join(", ")
                                )
                            }
                        )
                        .map_err(w)?;
                    }
                }
                let c = lowdeg_core::explain::CacheReport::of(&cache);
                writeln!(
                    out,
                    "# artifact cache: {}/{} entries, {} hit(s) / {} miss(es), {} eviction(s)",
                    c.entries, c.capacity, c.hits, c.misses, c.evictions
                )
                .map_err(w)?;
                writeln!(
                    out,
                    "# counting memo: {} component(s), {} hit(s) / {} miss(es)",
                    c.memo_components, c.memo_hits, c.memo_misses
                )
                .map_err(w)?;
                writeln!(
                    out,
                    "# clause tier: {} hit(s) / {} miss(es), {} eviction(s); \
                     combo counts: {} hit(s) / {} miss(es)",
                    c.clause_hits,
                    c.clause_misses,
                    c.clause_evictions,
                    c.combo_hits,
                    c.combo_misses
                )
                .map_err(w)?;
            }
            Ok(())
        }
        "generate" => {
            let n: usize = parse_arg(&rest, 0, "n")?;
            let degree: usize = parse_arg(&rest, 1, "degree")?;
            let seed: u64 = parse_arg(&rest, 2, "seed")?;
            let s = ColoredGraphSpec::balanced(n, DegreeClass::Bounded(degree)).generate(seed);
            let text = write_structure(&s);
            match rest.get(3) {
                Some(path) => std::fs::write(path, text).map_err(|e| e.to_string())?,
                None => out.write_all(text.as_bytes()).map_err(w)?,
            }
            Ok(())
        }
        "import-edges" => {
            // convert a SNAP-style edge list into the native text format
            let src = rest.first().ok_or_else(usage)?;
            let text = std::fs::read_to_string(src).map_err(|e| format!("reading {src}: {e}"))?;
            let s = parse_edge_list(&text).map_err(|e| e.to_string())?;
            let native = write_structure(&s);
            match rest.get(1) {
                Some(path) => std::fs::write(path, native).map_err(|e| e.to_string())?,
                None => out.write_all(native.as_bytes()).map_err(w)?,
            }
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn parse_arg<T: std::str::FromStr>(rest: &[String], i: usize, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    rest.get(i)
        .ok_or_else(usage)?
        .parse()
        .map_err(|e| format!("bad {what}: {e}"))
}

fn extract_eps(args: &mut Vec<String>) -> Result<Epsilon, String> {
    if let Some(i) = args.iter().position(|a| a == "--eps") {
        if i + 1 >= args.len() {
            return Err("--eps needs a value".into());
        }
        let v: f64 = args[i + 1]
            .parse()
            .map_err(|e| format!("bad --eps value: {e}"))?;
        let eps = Epsilon::try_new(v).ok_or("--eps must satisfy 0 < eps <= 4")?;
        args.drain(i..=i + 1);
        Ok(eps)
    } else {
        Ok(Epsilon::default_eps())
    }
}

fn extract_format(args: &mut Vec<String>) -> Result<OutputFormat, String> {
    if let Some(i) = args.iter().position(|a| a == "--format") {
        if i + 1 >= args.len() {
            return Err("--format needs a value".into());
        }
        let v = args[i + 1].clone();
        args.drain(i..=i + 1);
        match v.as_str() {
            "tsv" => Ok(OutputFormat::Tsv),
            "ndjson" => Ok(OutputFormat::Ndjson),
            other => Err(format!(
                "bad --format value `{other}` (expected tsv or ndjson)"
            )),
        }
    } else {
        Ok(OutputFormat::Tsv)
    }
}

fn extract_threads(args: &mut Vec<String>) -> Result<ParConfig, String> {
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        if i + 1 >= args.len() {
            return Err("--threads needs a value".into());
        }
        let n: usize = args[i + 1]
            .parse()
            .map_err(|e| format!("bad --threads value: {e}"))?;
        args.drain(i..=i + 1);
        Ok(ParConfig::with_threads(n))
    } else {
        Ok(ParConfig::from_env())
    }
}

fn load(path: &str) -> Result<Structure, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_structure(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn query(db: &Structure, src: &str) -> Result<lowdeg_logic::Query, String> {
    parse_query(db.signature(), src).map_err(|e| e.to_string())
}

/// The usage text.
pub fn usage() -> String {
    "usage:
  lowdeg stats        <db>
  lowdeg check        <db> '<sentence>'
  lowdeg explain      <db> '<query>'
  lowdeg count        <db> '<query>'
  lowdeg test         <db> '<query>' <node>...
  lowdeg enumerate    <db> '<query>' [limit]
  lowdeg workload     <db> <queries-file> [--explain]
                      one query per line (# comments allowed); rewrite
                      variants of one query are built once and share the
                      engine, and overlapping queries share per-clause
                      Step 5 artifacts. --explain appends per-query and
                      per-clause sharing provenance plus cache stats
  lowdeg generate     <n> <degree> <seed> [path]
  lowdeg import-edges <edge-list> [path]
options: --eps <x>       pseudo-linearity parameter (default 0.25)
         --threads <n>   worker threads for preprocessing AND the sharded
                         enumerate answer path; 0 = auto, 1 = serial
                         (default: LOWDEG_THREADS, else auto). Answer order
                         and counts are identical at every thread count
         --format <f>    enumerate output: tsv (default) or ndjson, the
                         latter streamed answer-by-answer (constant memory)"
        .into()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(args: &[&str]) -> Result<String, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    /// A scratch path no other test (in this process or another) uses:
    /// tests run in parallel, and one test rewriting a file another is
    /// reading makes the reader see a torn file.
    fn temp_path(name: &str) -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let k = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("lowdeg_cli_{}_{k}_{name}", std::process::id()))
    }

    fn temp_db() -> std::path::PathBuf {
        let path = temp_path("test.db");
        let text = "domain 5\nrel E 2\nrel B 1\nrel R 1\nE 0 1\nE 1 0\nB 0\nB 2\nR 1\nR 3\n";
        std::fs::write(&path, text).expect("temp writable");
        path
    }

    #[test]
    fn stats_command() {
        let db = temp_db();
        let out = run_str(&["stats", db.to_str().unwrap()]).unwrap();
        assert!(out.contains("domain:  5"));
        assert!(out.contains("E: 2 facts"));
        assert!(out.contains("components:"));
    }

    #[test]
    fn count_and_enumerate_agree() {
        let db = temp_db();
        let q = "B(x) & R(y) & !E(x, y)";
        let count: u64 = run_str(&["count", db.to_str().unwrap(), q])
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        let enumerated = run_str(&["enumerate", db.to_str().unwrap(), q]).unwrap();
        let rows = enumerated.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(rows as u64, count);
        // blues {0,2} × reds {1,3} minus the (0,1) edge = 3
        assert_eq!(count, 3);
    }

    #[test]
    fn test_command() {
        let db = temp_db();
        let q = "B(x) & R(y) & !E(x, y)";
        assert_eq!(
            run_str(&["test", db.to_str().unwrap(), q, "0", "3"])
                .unwrap()
                .trim(),
            "true"
        );
        assert_eq!(
            run_str(&["test", db.to_str().unwrap(), q, "0", "1"])
                .unwrap()
                .trim(),
            "false"
        );
        assert!(run_str(&["test", db.to_str().unwrap(), q, "0"]).is_err());
    }

    #[test]
    fn check_command() {
        let db = temp_db();
        let out = run_str(&["check", db.to_str().unwrap(), "exists x. B(x) & R(x)"]).unwrap();
        assert_eq!(out.trim(), "false");
        // free variables rejected
        assert!(run_str(&["check", db.to_str().unwrap(), "B(x)"]).is_err());
    }

    #[test]
    fn generate_and_reload() {
        let out = run_str(&["generate", "50", "3", "7"]).unwrap();
        let s = parse_structure(&out).unwrap();
        assert_eq!(s.cardinality(), 50);
        assert!(s.degree() <= 3);
    }

    #[test]
    fn import_edges_roundtrip() {
        let path = temp_path("edges.txt");
        std::fs::write(&path, "0 1\n1 2\n").unwrap();
        let out = run_str(&["import-edges", path.to_str().unwrap()]).unwrap();
        let s = parse_structure(&out).unwrap();
        assert_eq!(s.cardinality(), 3);
        let e = s.signature().rel("E").unwrap();
        assert_eq!(s.relation(e).len(), 4); // symmetrized
    }

    #[test]
    fn eps_flag_parsed_and_validated() {
        let db = temp_db();
        let ok = run_str(&["--eps", "0.3", "count", db.to_str().unwrap(), "B(x)"]).unwrap();
        assert_eq!(ok.trim(), "2");
        assert!(run_str(&["--eps", "0", "count", db.to_str().unwrap(), "B(x)"]).is_err());
        assert!(run_str(&["--eps"]).is_err());
    }

    #[test]
    fn threads_flag_parsed_and_validated() {
        let db = temp_db();
        let one = run_str(&["--threads", "1", "count", db.to_str().unwrap(), "B(x)"]).unwrap();
        assert_eq!(one.trim(), "2");
        let four = run_str(&["--threads", "4", "count", db.to_str().unwrap(), "B(x)"]).unwrap();
        assert_eq!(four.trim(), "2");
        assert!(run_str(&["--threads", "x", "count", db.to_str().unwrap(), "B(x)"]).is_err());
        assert!(run_str(&["--threads"]).is_err());
    }

    #[test]
    fn count_prints_build_time_count_at_every_thread_count() {
        let db = temp_db();
        let q = "B(x) & R(y) & !E(x, y)";
        let s = load(db.to_str().unwrap()).unwrap();
        let engine = Engine::build(&s, &query(&s, q).unwrap(), Epsilon::default_eps()).unwrap();
        for threads in ["1", "2", "4"] {
            let out = run_str(&["--threads", threads, "count", db.to_str().unwrap(), q]).unwrap();
            assert_eq!(
                out.trim(),
                engine.count().to_string(),
                "--threads {threads}"
            );
        }
    }

    #[test]
    fn threads_do_not_change_enumeration_output() {
        // the sharded answer path drains slices in serial order, so every
        // thread count prints byte-identical rows — both formats
        let db = temp_db();
        let q = "B(x) & R(y) & !E(x, y)";
        for format in ["tsv", "ndjson"] {
            let serial = run_str(&[
                "--threads",
                "1",
                "--format",
                format,
                "enumerate",
                db.to_str().unwrap(),
                q,
            ])
            .unwrap();
            let parallel = run_str(&[
                "--threads",
                "4",
                "--format",
                format,
                "enumerate",
                db.to_str().unwrap(),
                q,
            ])
            .unwrap();
            assert_eq!(serial, parallel, "{format} output differs across pools");
        }
    }

    #[test]
    fn explain_command() {
        let db = temp_db();
        let out = run_str(&["explain", db.to_str().unwrap(), "B(x) & R(y) & !E(x, y)"]).unwrap();
        assert!(out.contains("arity: 2"));
        assert!(out.contains("colored graph:"));
        assert!(out.contains("artifact cache:"));
        assert!(out.contains("counting memo:"));
        assert!(out.contains("clause tier:"));
        assert!(out.contains("eviction(s)"));
    }

    #[test]
    fn ndjson_format_streams_answers() {
        let db = temp_db();
        let q = "B(x) & R(y) & !E(x, y)";
        let tsv = run_str(&["enumerate", db.to_str().unwrap(), q]).unwrap();
        let nd = run_str(&["--format", "ndjson", "enumerate", db.to_str().unwrap(), q]).unwrap();
        // same answers in the same order, one JSON array per line, no
        // trailing comment
        let tsv_rows: Vec<Vec<&str>> = tsv
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| l.split('\t').collect())
            .collect();
        let nd_rows: Vec<Vec<&str>> = nd
            .lines()
            .map(|l| {
                assert!(l.starts_with('[') && l.ends_with(']'), "bad ndjson: {l}");
                l[1..l.len() - 1].split(',').collect()
            })
            .collect();
        assert_eq!(nd_rows, tsv_rows);
        assert_eq!(nd_rows.len(), 3);
    }

    #[test]
    fn ndjson_format_respects_limit() {
        let db = temp_db();
        let q = "B(x) & R(y) & !E(x, y)";
        let nd = run_str(&[
            "--format",
            "ndjson",
            "enumerate",
            db.to_str().unwrap(),
            q,
            "1",
        ])
        .unwrap();
        assert_eq!(nd.lines().count(), 1);
    }

    #[test]
    fn format_flag_validated() {
        let db = temp_db();
        assert!(run_str(&["--format", "xml", "enumerate", db.to_str().unwrap(), "B(x)"]).is_err());
        assert!(run_str(&["--format"]).is_err());
    }

    #[test]
    fn workload_command_groups_variants() {
        let db = temp_db();
        let qfile = temp_path("workload.txt");
        std::fs::write(
            &qfile,
            "# rewrite variants of one query, then a distinct one\n\
             B(x) & R(y) & !E(x, y)\n\
             B(x) & !E(x, y) & R(y)\n\
             \n\
             B(x) & !!R(y) & !E(x, y)\n\
             R(x) & B(y) & !E(x, y)\n",
        )
        .unwrap();
        let out = run_str(&["workload", db.to_str().unwrap(), qfile.to_str().unwrap()]).unwrap();
        let rows: Vec<&str> = out.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(rows.len(), 4);
        // all three variants agree on the count (3, as in
        // count_and_enumerate_agree); the transposed query also counts 3
        for row in &rows {
            let count: u64 = row.split('\t').nth(1).unwrap().parse().unwrap();
            assert_eq!(count, 3, "bad row: {row}");
        }
        assert!(out.contains("# workload: 4 queries, 2 distinct core(s)"));
        // the three variants share one canonical clause; the transposed
        // query contributes the other
        assert!(out.contains("2 distinct clause(s)"));
        assert!(out.contains("clause cache hit(s)"));

        // --explain adds sharing provenance and cache stats
        let ex = run_str(&[
            "workload",
            db.to_str().unwrap(),
            qfile.to_str().unwrap(),
            "--explain",
        ])
        .unwrap();
        assert!(ex.contains("shared with query 0"));
        assert!(ex.contains("rewrites:"));
        assert!(ex.contains("#   clause 0:"));
        assert!(
            ex.contains("shared with queries 1, 2"),
            "clause provenance:\n{ex}"
        );
        assert!(ex.contains(" exclusive"));
        assert!(ex.contains("# artifact cache:"));
        assert!(ex.contains("# counting memo:"));
        assert!(ex.contains("# clause tier:"));

        // bad option and empty file are errors
        assert!(run_str(&[
            "workload",
            db.to_str().unwrap(),
            qfile.to_str().unwrap(),
            "--bogus"
        ])
        .is_err());
        std::fs::write(&qfile, "# only comments\n").unwrap();
        assert!(run_str(&["workload", db.to_str().unwrap(), qfile.to_str().unwrap()]).is_err());
    }

    #[test]
    fn unknown_command_shows_usage() {
        let err = run_str(&["frobnicate"]).unwrap_err();
        assert!(err.contains("usage:"));
    }
}
