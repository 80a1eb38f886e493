//! The traced replay: each request rebuilt cold through
//! `Engine::build_configured` under an `engine.build` span, whose children
//! are the engine's own `BuildProfile` stages, and answered through the
//! engine's public answer paths.
//!
//! `normalize` and `localize` run inside the engine without a stage of
//! their own. They are timed through their public entry points under a
//! `probe` root after the request, so no request span holds them twice.

use crate::corpus::{Query as CorpusQuery, Request};
use crate::rng::Rng;
use crate::sink::Sink;
use crate::trace::Tracer;
use lowdeg_core::{ArtifactCache, Engine, EngineConfig, Stage};
use lowdeg_logic::{normalize, parse_query, Query};
use lowdeg_par::ParConfig;
use lowdeg_storage::{parse_structure, Node, Structure};
use std::fmt::Write as _;
use std::io::Write;
use std::ops::ControlFlow;
use std::time::Instant;

/// Build `q` over `db` cold, as `lowdeg` does, under an `engine.build`
/// span: the Gaifman graph as a span of its own, then the engine's
/// profile stages as measured children.
pub fn build(
    tr: &mut Tracer,
    db: &Structure,
    q: &Query,
    par: &ParConfig,
) -> Result<Engine, String> {
    let root = tr.begin("engine.build");
    // The structure memoizes its Gaifman graph, so the engine's extract
    // stage reuses the one built here: the span splits that work off, it
    // does not repeat it.
    tr.span("storage.gaifman", |_| {
        db.gaifman_with(par);
    });
    let engine = Engine::build_configured(db, q, &EngineConfig::default(), par, None);
    tr.end(root);
    let engine = engine.map_err(|e| e.to_string())?;
    let p = engine.profile();
    let (extract, assemble) = (p.nanos(Stage::Extract), p.nanos(Stage::Reduce));
    let reduction = tr.measured_child(root, "reduction.build", extract + assemble);
    tr.measured_child(reduction, "reduction.extract", extract);
    tr.measured_child(reduction, "reduction.assemble", assemble);
    tr.measured_child(root, "counting.ie", p.nanos(Stage::IeCount));
    let enumerator = p.nanos(Stage::Fixpoint) + p.nanos(Stage::SkipTables);
    tr.measured_child(root, "enumerate.build", enumerator);
    Ok(engine)
}

/// Time `normalize` and `localize` of `q` under a `probe` root, outside
/// any request; returns the number of canonical clauses.
pub fn front_end(tr: &mut Tracer, db: &Structure, q: &Query) -> usize {
    tr.span("probe", |tr| {
        let nf = tr.span("logic.normalize", |_| normalize(q));
        tr.span("locality.localize", |_| {
            let _ = lowdeg_locality::localize(db, &nf.query);
        });
        nf.clauses.len()
    })
}

/// Write the answers `drive` visits as `lowdeg enumerate` does:
/// tab-separated rows and a trailing `# N answers` comment, or one JSON
/// array per line.
pub fn write_answers(
    ndjson: bool,
    limit: usize,
    out: &mut impl Write,
    drive: impl FnOnce(&mut dyn FnMut(&[Node]) -> ControlFlow<()>),
) {
    let mut emitted = 0usize;
    let mut line = String::new();
    drive(&mut |t: &[Node]| {
        if emitted == limit {
            return ControlFlow::Break(());
        }
        if ndjson {
            line.clear();
            line.push('[');
            for (i, n) in t.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                write!(line, "{n}").expect("string write");
            }
            line.push(']');
            writeln!(out, "{line}").expect("sink write");
        } else {
            let row: Vec<String> = t.iter().map(|n| n.to_string()).collect();
            writeln!(out, "{}", row.join("\t")).expect("sink write");
        }
        emitted += 1;
        ControlFlow::Continue(())
    });
    if !ndjson {
        writeln!(out, "# {emitted} answers").expect("sink write");
    }
}

/// What a replayed request produced.
pub struct Replayed {
    /// The request's root span.
    pub root: usize,
    /// Lines written, as `lowdeg_cli::run` would write them.
    pub lines: u64,
    /// FNV-1a digest of the output.
    pub digest: u64,
    /// Cache counters of a `workload` request's fresh cache.
    pub cache: Option<CacheDelta>,
    /// Distinct normal forms and canonical clauses the request built.
    pub distinct: (usize, usize),
    /// The engine of a single-query request, for probing.
    pub engine: Option<Engine>,
}

/// Replay one CLI request through the engine's public API, writing the
/// same bytes the CLI would.
pub fn request(
    tr: &mut Tracer,
    db_path: &str,
    corpus: &[CorpusQuery],
    req: &Request,
    par: &ParConfig,
) -> Result<Replayed, String> {
    tr.next_request();
    let root = tr.begin("request");
    let out = replay_body(tr, db_path, corpus, req, par);
    tr.end(root);
    let body = out?;
    let clauses: usize = body.parsed.iter().map(|q| front_end(tr, &body.db, q)).sum();
    let (cache, distinct) = match body.batch {
        Some((c, cores, clauses)) => (Some(c), (cores, clauses)),
        None => (None, (1, clauses)),
    };
    Ok(Replayed {
        root,
        lines: body.sink.lines(),
        digest: body.sink.digest(),
        cache,
        distinct,
        engine: body.engine,
    })
}

/// What a request's replay left for [`request`] to report.
struct Body {
    sink: Sink,
    /// A `workload` request's cache counters, distinct cores and clauses.
    batch: Option<(CacheDelta, usize, usize)>,
    engine: Option<Engine>,
    db: Structure,
    parsed: Vec<Query>,
}

fn replay_body(
    tr: &mut Tracer,
    db_path: &str,
    corpus: &[CorpusQuery],
    req: &Request,
    par: &ParConfig,
) -> Result<Body, String> {
    let db = load(tr, db_path)?;
    let mut sink = Sink::new(Instant::now(), 0);
    if let Request::Workload { queries } = req {
        let parsed: Vec<Query> = queries
            .iter()
            .map(|&i| tr.span("logic.parse", |_| parse(&db, &corpus[i].text)))
            .collect::<Result<_, _>>()?;
        let refs: Vec<&Query> = parsed.iter().collect();
        let cache = ArtifactCache::new();
        let (engines, stats) = tr
            .span("engine.build", |_| {
                Engine::build_workload(&db, &refs, &EngineConfig::default(), par, &cache)
            })
            .map_err(|e| e.to_string())?;
        tr.span("cli.output", |_| {
            for (i, (engine, &q)) in engines.iter().zip(queries).enumerate() {
                writeln!(sink, "{i}\t{}\t{}", engine.count(), corpus[q].text).expect("sink");
            }
            writeln!(
                sink,
                "# workload: {} queries, {} distinct core(s), {} distinct clause(s), \
                 {} clause cache hit(s)",
                stats.queries,
                stats.distinct_cores,
                stats.distinct_clauses,
                stats.clause_cache_hits
            )
            .expect("sink");
        });
        return Ok(Body {
            sink,
            batch: Some((
                CacheDelta::of(&cache),
                stats.distinct_cores,
                stats.distinct_clauses,
            )),
            engine: None,
            db,
            parsed,
        });
    }
    let q = match req {
        Request::Count { q } | Request::Test { q, .. } | Request::Enumerate { q, .. } => *q,
        Request::Workload { .. } => unreachable!("handled above"),
    };
    let query = tr.span("logic.parse", |_| parse(&db, &corpus[q].text))?;
    let engine = build(tr, &db, &query, par)?;
    match req {
        Request::Count { .. } => {
            let count = tr.span("enumerate.par_count", |_| engine.par_count(par));
            writeln!(sink, "{count}").expect("sink");
        }
        Request::Test { tuple, .. } => {
            let tuple: Vec<Node> = tuple.iter().map(|&v| Node(v)).collect();
            let ok = tr.span("testing.probe", |_| engine.test(&tuple));
            writeln!(sink, "{ok}").expect("sink");
        }
        Request::Enumerate { ndjson, limit, .. } => {
            let limit = limit.unwrap_or(usize::MAX);
            tr.span("enumerate.stream", |_| {
                write_answers(*ndjson, limit, &mut sink, |f| {
                    engine.par_for_each_answer(par, f)
                })
            });
        }
        Request::Workload { .. } => unreachable!("handled above"),
    }
    Ok(Body {
        sink,
        batch: None,
        engine: Some(engine),
        db,
        parsed: vec![query],
    })
}

/// `read_to_string` + `parse_structure` under a `storage.load` span.
pub fn load(tr: &mut Tracer, path: &str) -> Result<Structure, String> {
    tr.span("storage.load", |_| read_db(path))
}

/// `read_to_string` + `parse_structure`, as `lowdeg` loads a database.
pub fn read_db(path: &str) -> Result<Structure, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_structure(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// Parse a query against the database's signature.
pub fn parse(db: &Structure, text: &str) -> Result<Query, String> {
    parse_query(db.signature(), text).map_err(|e| e.to_string())
}

/// Cache counters of one [`ArtifactCache`], or the change between two
/// readings of one.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheDelta {
    /// Keyed-artifact hits.
    pub hits: u64,
    /// Keyed-artifact misses.
    pub misses: u64,
    /// Clause-tier hits.
    pub clause_hits: u64,
    /// Clause-tier misses.
    pub clause_misses: u64,
    /// Evictions across all tiers.
    pub evictions: u64,
    /// Counting-memo component probes that hit.
    pub memo_hits: u64,
    /// Counting-memo component probes that missed.
    pub memo_misses: u64,
    /// Combination-count probes that hit.
    pub combo_hits: u64,
    /// Combination-count probes that missed.
    pub combo_misses: u64,
    /// Entries retained at the reading.
    pub entries: u64,
}

impl CacheDelta {
    /// Read every counter of `cache`.
    pub fn of(cache: &ArtifactCache) -> Self {
        let (hits, misses) = cache.stats();
        let (clause_hits, clause_misses, clause_evictions) = cache.clause_stats();
        let (memo_hits, memo_misses, _) = cache.counting_stats();
        let (combo_hits, combo_misses) = cache.combo_stats();
        CacheDelta {
            hits,
            misses,
            clause_hits,
            clause_misses,
            evictions: cache.evictions() + clause_evictions,
            memo_hits,
            memo_misses,
            combo_hits,
            combo_misses,
            entries: cache.entries() as u64,
        }
    }

    /// Counter growth from `before` to `self`; `entries` keeps the later
    /// reading. Memo counters live with their core and vanish when it is
    /// invalidated, so their differences saturate at zero.
    pub fn since(self, before: CacheDelta) -> Self {
        CacheDelta {
            hits: self.hits.saturating_sub(before.hits),
            misses: self.misses.saturating_sub(before.misses),
            clause_hits: self.clause_hits.saturating_sub(before.clause_hits),
            clause_misses: self.clause_misses.saturating_sub(before.clause_misses),
            evictions: self.evictions.saturating_sub(before.evictions),
            memo_hits: self.memo_hits.saturating_sub(before.memo_hits),
            memo_misses: self.memo_misses.saturating_sub(before.memo_misses),
            combo_hits: self.combo_hits.saturating_sub(before.combo_hits),
            combo_misses: self.combo_misses.saturating_sub(before.combo_misses),
            entries: self.entries,
        }
    }
}

impl std::ops::Add for CacheDelta {
    type Output = CacheDelta;

    /// Sum of two deltas (`entries` keeps the later reading).
    fn add(self, o: CacheDelta) -> CacheDelta {
        CacheDelta {
            hits: self.hits + o.hits,
            misses: self.misses + o.misses,
            clause_hits: self.clause_hits + o.clause_hits,
            clause_misses: self.clause_misses + o.clause_misses,
            evictions: self.evictions + o.evictions,
            memo_hits: self.memo_hits + o.memo_hits,
            memo_misses: self.memo_misses + o.memo_misses,
            combo_hits: self.combo_hits + o.combo_hits,
            combo_misses: self.combo_misses + o.combo_misses,
            entries: o.entries,
        }
    }
}

/// Rows a probe drains at most.
pub const PROBE_ROWS: usize = 100_000;
/// The sharded path materializes every answer before the first one is
/// delivered, so it is only probed on queries with at most this many.
const PAR_PROBE_MAX: u64 = 2_000_000;

/// Answer-path measurements of one built query, taken outside any
/// request.
#[derive(Clone, Debug, Default)]
pub struct Probe {
    /// Time to the first answer of the serial stream.
    pub first_ns: f64,
    /// Time to the first answer of the sharded path, when probed.
    pub par_first_ns: Option<f64>,
    /// Serial rows per second over at most [`PROBE_ROWS`] answers.
    pub serial_rows_per_s: Option<f64>,
    /// Sharded rows per second over every answer, when probed.
    pub par_rows_per_s: Option<f64>,
    /// RAM-operation delay before each serial answer.
    pub delay_ops: Vec<u64>,
    /// Wall-clock delay before each serial answer.
    pub delay_wall_ns: Vec<u64>,
    /// Mean time of one `test` call.
    pub test_ns: f64,
}

/// Probe the answer paths of a built engine.
pub fn probe(engine: &Engine, par: &ParConfig, n: usize, rng: &mut Rng) -> Probe {
    let mut p = Probe::default();
    let t0 = Instant::now();
    engine.for_each_answer(|_| ControlFlow::Break(()));
    p.first_ns = t0.elapsed().as_nanos() as f64;

    let mut rows = 0usize;
    let t0 = Instant::now();
    engine.for_each_answer(|a| {
        std::hint::black_box(a);
        rows += 1;
        if rows == PROBE_ROWS {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    if rows > 0 && secs > 0.0 {
        p.serial_rows_per_s = Some(rows as f64 / secs);
    }

    let mut last = Instant::now();
    engine.for_each_answer_with_ops(|_, ops| {
        let now = Instant::now();
        p.delay_wall_ns.push((now - last).as_nanos() as u64);
        p.delay_ops.push(ops);
        last = now;
        if p.delay_ops.len() == PROBE_ROWS {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });

    if engine.count() > 0 && engine.count() <= PAR_PROBE_MAX {
        let t0 = Instant::now();
        let mut first = None;
        let mut rows = 0u64;
        engine.par_for_each_answer(par, |a| {
            std::hint::black_box(a);
            first.get_or_insert_with(|| t0.elapsed().as_nanos() as f64);
            rows += 1;
            ControlFlow::Continue(())
        });
        p.par_first_ns = first;
        p.par_rows_per_s = Some(rows as f64 / t0.elapsed().as_secs_f64());
    }

    let mut tuples: Vec<Vec<Node>> = (0..8)
        .map(|_| {
            (0..engine.arity())
                .map(|_| Node(rng.below(n) as u32))
                .collect()
        })
        .collect();
    engine.for_each_answer(|a| {
        tuples.push(a.to_vec());
        if tuples.len() == 16 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    const ROUNDS: usize = 64;
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        for t in &tuples {
            std::hint::black_box(engine.test(t));
        }
    }
    p.test_ns = t0.elapsed().as_nanos() as f64 / (ROUNDS * tuples.len()) as f64;
    p
}
