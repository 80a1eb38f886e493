//! The CLI workloads: each request is one in-process `lowdeg_cli::run`
//! call, sent when the previous one has returned.

use crate::corpus::{Request, Schedule, Workload};
use crate::replay::{self, write_answers};
use crate::rng::Rng;
use crate::run::{rss_peak_mb, rss_reset, Ctx, Sample, Setup, Timed, MAX_PROBES, WARM_UP_SEED};
use crate::sink::Sink;
use crate::trace::Tracer;
use lowdeg_core::{ArtifactCache, Engine, EngineConfig};
use lowdeg_logic::eval::check_naive;
use lowdeg_logic::Query;
use lowdeg_par::ParConfig;
use lowdeg_storage::{Node, Structure};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// Output bytes kept per request for verification (a first page is
/// about 12 KiB); drains keep none and are checked by digest.
const KEEP: usize = 64 << 10;

/// One sent request and what came back.
struct Sent {
    req: Request,
    lines: u64,
    digest: u64,
    kept: Vec<u8>,
}

/// The argument vector of `req`, as a user would type it.
pub fn args(ctx: &Ctx, req: &Request, qfile: &str) -> Vec<String> {
    let mut a: Vec<String> = vec!["--threads".into(), ctx.params.threads.to_string()];
    let text = |q: usize| ctx.corpus[q].text.clone();
    let db = ctx.db_path.clone();
    match req {
        Request::Count { q } => a.extend(["count".into(), db, text(*q)]),
        Request::Test { q, tuple } => {
            a.extend(["test".into(), db, text(*q)]);
            a.extend(tuple.iter().map(u32::to_string));
        }
        Request::Enumerate { q, ndjson, limit } => {
            if *ndjson {
                a.extend(["--format".into(), "ndjson".into()]);
            }
            a.extend(["enumerate".into(), db, text(*q)]);
            a.extend(limit.map(|l| l.to_string()));
        }
        Request::Workload { .. } => a.extend(["workload".into(), db, qfile.into()]),
    }
    a
}

/// Run a CLI workload's timed phase, then verify every output. With
/// `trace`, every request is followed by its layer replay.
pub fn run(ctx: &Ctx, db: &Structure, parsed: &[Query], setup: &mut Setup) -> Timed {
    let mut timed = Timed::default();
    let arities: Vec<usize> = parsed.iter().map(Query::arity).collect();
    // drawn from one seed for every run until the timed phase starts
    let mut schedule = Schedule::new(ctx.workload, WARM_UP_SEED, ctx.params.n, arities);
    let par = ParConfig::with_threads(ctx.params.threads);
    let qfile = ctx.tmp.join("queries.txt").to_string_lossy().into_owned();
    let mut sent: Vec<Sent> = Vec::new();
    let mut probed: BTreeSet<usize> = BTreeSet::new();
    let mut rng = Rng::new(ctx.seed, 5);
    // Peak RSS per request of the warm-up's first cycle: each `lowdeg`
    // call is a process of its own to a user, so its footprint is what one
    // call sees, not the run's maximum over calls sharing one heap.
    let mut rss: Vec<f64> = Vec::new();
    let measured = ctx.rss_cycles() * ctx.workload.cycle();
    let warm_up = ctx.warm_up();

    let mut started = Instant::now();
    // seconds of set-up repetitions and reference timings, kept out of
    // the timed phase
    let mut outside = 0.0;
    loop {
        let i = sent.len();
        if i == warm_up {
            schedule.reseed(ctx.seed);
            started = Instant::now();
            outside = 0.0;
        }
        let timing = i >= warm_up;
        let elapsed = started.elapsed().as_secs_f64();
        if ctx.done(i, elapsed) {
            break;
        }
        let t = Instant::now();
        if timing {
            timed.host.tick();
        }
        if timing && setup.due(elapsed) {
            if let Err(e) = setup.repeat(timed.host.factor()) {
                timed.fail(usize::MAX, format!("set-up: {e}"));
            }
        }
        let req = schedule.request(i);
        if let Request::Workload { queries } = &req {
            let text: String = queries
                .iter()
                .map(|&q| format!("{}\n", ctx.corpus[q].text))
                .collect();
            if let Err(e) = std::fs::write(&qfile, text) {
                timed.fail(i, format!("writing {qfile}: {e}"));
            }
        }
        let class = req.class(&ctx.corpus);
        let argv = args(ctx, &req, &qfile);
        let drain = matches!(req, Request::Enumerate { limit: None, .. });
        if i < measured {
            rss_reset();
        }
        outside += t.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let mut sink = Sink::new(t0, if drain { 0 } else { KEEP });
        let result = lowdeg_cli::run(&argv, &mut sink);
        let latency = t0.elapsed().as_secs_f64();
        if i < measured {
            rss.extend(rss_peak_mb());
        }
        if let Err(e) = result {
            timed.fail(i, format!("{class}: {e}"));
        }
        let rows = match &req {
            // the tsv trailer is a comment, not an answer
            Request::Enumerate { ndjson: false, .. } => sink.lines().saturating_sub(1),
            _ => sink.lines(),
        };
        timed.samples.push(Sample {
            class: class.clone(),
            latency,
            first: sink.first_line().map(|d| d.as_secs_f64()),
            rows,
            queries: req.queries() as u64,
            streams: req.streams(),
            warm_up: !timing,
            host: timed.host.factor(),
        });
        if ctx.trace && timing {
            let l = &mut timed.layers;
            l.paired = true;
            match replay::request(&mut l.tracer, &ctx.db_path, &ctx.corpus, &req, &par) {
                Ok(r) => {
                    l.untraced.push((class.clone(), latency));
                    l.traced.push((class.clone(), r.root));
                    l.distinct.push(r.distinct);
                    if let Some(c) = r.cache {
                        l.cache = l.cache + c;
                    }
                    if let Request::Workload { queries } = &req {
                        l.shared_ns += build_ns(&l.tracer, r.root);
                        l.batches.push(queries.clone());
                    }
                    if let (Some(engine), Some(q)) = (&r.engine, query_of(&req)) {
                        if l.probes.len() < MAX_PROBES && probed.insert(q) {
                            l.probes
                                .push(replay::probe(engine, &par, ctx.params.n, &mut rng));
                        }
                    }
                    if (r.lines, r.digest) != (sink.lines(), sink.digest()) {
                        timed.fail(i, format!("{class}: the layer replay wrote other output"));
                    }
                }
                Err(e) => timed.fail(i, format!("{class}: replay failed: {e}")),
            }
        }
        sent.push(Sent {
            req,
            lines: sink.lines(),
            digest: sink.digest(),
            kept: sink.kept().to_vec(),
        });
    }
    timed.wall = started.elapsed().as_secs_f64() - outside;
    timed.peak_rss_mb = crate::stats::mean(&rss);
    verify(ctx, db, parsed, &sent, &mut timed);
    timed
}

fn query_of(req: &Request) -> Option<usize> {
    match req {
        Request::Count { q } | Request::Test { q, .. } | Request::Enumerate { q, .. } => Some(*q),
        Request::Workload { .. } => None,
    }
}

/// Time the spans directly under `root` spent in `engine.build`.
pub fn build_ns(tr: &Tracer, root: usize) -> f64 {
    tr.spans()
        .iter()
        .filter(|s| s.parent == Some(root) && s.name == "engine.build")
        .map(|s| s.nanos() as f64)
        .sum()
}

/// Check every output against an independent computation.
fn verify(ctx: &Ctx, db: &Structure, parsed: &[Query], sent: &[Sent], timed: &mut Timed) {
    let used: BTreeSet<usize> = sent
        .iter()
        .flat_map(|i| match &i.req {
            Request::Workload { queries } => queries.clone(),
            other => query_of(other).into_iter().collect(),
        })
        .collect();
    let reference = match ctx.workload {
        Workload::BatchPlan => solo_builds(ctx, db, parsed, &used, timed),
        _ => shared_builds(ctx, db, parsed, &used),
    };
    let reference = match reference {
        Ok(r) => r,
        Err(e) => {
            timed.fail(usize::MAX, format!("reference build failed: {e}"));
            return;
        }
    };
    for &q in &used {
        let key = format!("count:{}", ctx.corpus[q].id);
        timed.observed.insert(key, reference.counts[&q]);
    }
    let mut digests: BTreeMap<String, u64> = BTreeMap::new();
    for (i, out) in sent.iter().enumerate() {
        let class = out.req.class(&ctx.corpus);
        let text = String::from_utf8_lossy(&out.kept);
        let problem = match &out.req {
            Request::Count { q } => {
                let want = reference.counts[q];
                (text.trim().parse::<u64>() != Ok(want))
                    .then(|| format!("printed {text:?}, want {want}"))
            }
            Request::Test { q, tuple } => {
                let t: Vec<Node> = tuple.iter().map(|&v| Node(v)).collect();
                let want = check_naive(db, &parsed[*q], &t);
                (text.trim() != want.to_string()).then(|| format!("printed {text:?}, want {want}"))
            }
            Request::Enumerate { q, ndjson, limit } => {
                let want = *digests.entry(class.clone()).or_insert_with(|| {
                    let engine = &reference.engines[q];
                    let mut s = Sink::new(Instant::now(), 0);
                    write_answers(*ndjson, limit.unwrap_or(usize::MAX), &mut s, |f| {
                        engine.for_each_answer(f)
                    });
                    s.digest()
                });
                let rows = reference.counts[q].min(limit.map_or(u64::MAX, |l| l as u64));
                let printed = out.lines - u64::from(!*ndjson);
                if out.digest != want {
                    Some("output differs from the serial library stream".into())
                } else if printed != rows {
                    Some(format!("{printed} rows, want {rows}"))
                } else {
                    page_rows(db, &parsed[*q], &out.kept, *ndjson)
                }
            }
            Request::Workload { queries } => {
                let counts: Vec<Option<u64>> = text
                    .lines()
                    .filter(|l| !l.starts_with('#'))
                    .map(|l| l.split('\t').nth(1).and_then(|c| c.parse().ok()))
                    .collect();
                let want: Vec<Option<u64>> =
                    queries.iter().map(|q| Some(reference.counts[q])).collect();
                (counts != want).then(|| format!("counts {counts:?}, want {want:?}"))
            }
        };
        if let Some(p) = problem {
            timed.fail(i, format!("{class}: {p}"));
        }
        if matches!(out.req, Request::Enumerate { .. }) {
            timed.observed.insert(format!("digest:{class}"), out.digest);
        }
    }
}

/// Check every row of a kept first page with the naive evaluator.
fn page_rows(db: &Structure, q: &Query, kept: &[u8], ndjson: bool) -> Option<String> {
    let text = String::from_utf8_lossy(kept);
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let body = if ndjson {
            line.trim_start_matches('[').trim_end_matches(']')
        } else {
            line
        };
        let tuple: Result<Vec<Node>, _> = body
            .split([',', '\t'])
            .map(|v| v.parse::<u32>().map(Node))
            .collect();
        match tuple {
            Ok(t) if t.len() == q.arity() && check_naive(db, q, &t) => {}
            _ => return Some(format!("row {line:?} is not an answer")),
        }
    }
    None
}

/// Reference counts, and engines to stream reference answers from.
struct Reference {
    counts: BTreeMap<usize, u64>,
    engines: BTreeMap<usize, Arc<Engine>>,
}

/// Reference for the single-query CLI workloads: the used queries built
/// together through the cached planner, a different path from the CLI's
/// cacheless one-query build.
fn shared_builds(
    ctx: &Ctx,
    db: &Structure,
    parsed: &[Query],
    used: &BTreeSet<usize>,
) -> Result<Reference, String> {
    let refs: Vec<&Query> = used.iter().map(|&q| &parsed[q]).collect();
    let par = ParConfig::with_threads(ctx.params.threads);
    let cache = ArtifactCache::new();
    let (engines, _) = Engine::build_workload(db, &refs, &EngineConfig::default(), &par, &cache)
        .map_err(|e| e.to_string())?;
    Ok(Reference {
        counts: used
            .iter()
            .zip(&engines)
            .map(|(&q, e)| (q, e.count()))
            .collect(),
        engines: used.iter().copied().zip(engines).collect(),
    })
}

/// Reference for `batch-plan`: a solo cold build of each used query. In
/// the traced pass these are traced builds, whose build times are the
/// batch's unshared cost.
fn solo_builds(
    ctx: &Ctx,
    db: &Structure,
    parsed: &[Query],
    used: &BTreeSet<usize>,
    timed: &mut Timed,
) -> Result<Reference, String> {
    let par = ParConfig::with_threads(ctx.params.threads);
    let mut counts = BTreeMap::new();
    let mut solo_ns: BTreeMap<usize, f64> = BTreeMap::new();
    let mut rng = Rng::new(ctx.seed, 6);
    for &q in used {
        let count = if ctx.trace {
            let l = &mut timed.layers;
            l.tracer.next_request();
            let root = l.tracer.begin("reference");
            let built = replay::build(&mut l.tracer, db, &parsed[q], &par);
            l.tracer.end(root);
            replay::front_end(&mut l.tracer, db, &parsed[q]);
            let engine = built?;
            solo_ns.insert(q, build_ns(&l.tracer, root));
            if l.probes.len() < MAX_PROBES {
                l.probes
                    .push(replay::probe(&engine, &par, ctx.params.n, &mut rng));
            }
            engine.count()
        } else {
            Engine::build_configured(db, &parsed[q], &EngineConfig::default(), &par, None)
                .map_err(|e| e.to_string())?
                .count()
        };
        counts.insert(q, count);
    }
    let l = &mut timed.layers;
    l.solo_ns = l
        .batches
        .iter()
        .flatten()
        .map(|q| solo_ns.get(q).copied().unwrap_or(0.0))
        .sum();
    Ok(Reference {
        counts,
        engines: BTreeMap::new(),
    })
}
