//! The library session: one long-lived engine user reading through a
//! capacity-bounded `ArtifactCache` while the database changes under it.

use crate::replay::{self, CacheDelta};
use crate::rng::{Rng, Zipf};
use crate::run::{rss_peak_mb, rss_reset, Ctx, Sample, Setup, Timed, MAX_PROBES, WARM_UP_SEED};
use crate::sink::{digest_of, fnv1a};
use crate::trace::Tracer;
use lowdeg_core::{ArtifactCache, Engine, EngineConfig};
use lowdeg_logic::eval::check_naive;
use lowdeg_logic::{normalize, Query};
use lowdeg_par::ParConfig;
use lowdeg_storage::{Node, Structure};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use std::time::Instant;

/// Entries per cache tier: fewer than the corpus's 24 normal forms, so the
/// Zipf tail evicts.
pub const CAPACITY: usize = 8;
/// Every this-many-th request is an update.
pub const UPDATE_EVERY: usize = 50;
/// Edges deleted, and edges inserted, per update.
const EDITS: usize = 8;
/// `peak_rss_mb` averages the first this-many database versions, sent
/// before the timed phase. A version's peak moves by a few MiB between
/// runs of the same requests, with how the two engine threads' allocations
/// interleave: over 8 versions the mean spread 2-6% in sets of ten runs,
/// over 24 about 3%.
pub const RSS_VERSIONS: usize = 24;
/// Tuples tested per read.
const TESTS: usize = 8;
/// Answers read per read.
const READ: usize = 100;
/// Zipf exponent of query popularity. At 2 about one read in six misses
/// the cache, so the latency percentiles stay among hits while the
/// misses set `queries_per_s`.
const ZIPF_S: f64 = 2.0;
/// Database versions whose reads are checked with the naive evaluator
/// and cold builds (every read is checked for consistency). Checking
/// every version would cost more than the timed phase: a quantified
/// query's naive test scans the whole domain.
const CHECKED_VERSIONS: usize = 6;
/// (query, version) pairs checked against a cacheless cold build.
const REFERENCE_PAIRS: usize = 12;

/// One update: undirected edges removed and added.
#[derive(Clone, Debug, Default)]
pub struct Edits {
    delete: Vec<(u32, u32)>,
    insert: Vec<(u32, u32)>,
}

/// A copy of `s` with the edit batches of `log` applied in order to its
/// symmetric `E` relation.
pub fn apply(s: &Structure, log: &[Edits]) -> Result<Structure, String> {
    let sig = s.signature().clone();
    let e = sig
        .rel("E")
        .ok_or("the session database has no E relation")?;
    let mut edges: BTreeSet<(u32, u32)> = s
        .relation(e)
        .iter()
        .map(|t| (t[0].0.min(t[1].0), t[0].0.max(t[1].0)))
        .collect();
    for edits in log {
        for d in &edits.delete {
            edges.remove(d);
        }
        edges.extend(edits.insert.iter().copied());
    }
    let mut b = Structure::builder(sig.clone(), s.cardinality());
    for rel in sig.rel_ids().filter(|&r| r != e) {
        for t in s.relation(rel).iter() {
            b.fact(rel, t).map_err(|e| e.to_string())?;
        }
    }
    for (u, v) in edges {
        b.undirected_edge(e, Node(u), Node(v))
            .map_err(|e| e.to_string())?;
    }
    b.finish().map_err(|e| e.to_string())
}

/// Draw an update that keeps every degree at most 2: delete random edges,
/// then join random pairs of nodes that still have room.
fn pick(s: &Structure, rng: &mut Rng) -> Edits {
    let e = s.signature().rel("E").expect("colored signature");
    let edges: Vec<(u32, u32)> = s
        .relation(e)
        .iter()
        .map(|t| (t[0].0, t[1].0))
        .filter(|(a, b)| a < b)
        .collect();
    let mut degree = vec![0u32; s.cardinality()];
    let mut present: BTreeSet<(u32, u32)> = edges.iter().copied().collect();
    for &(a, b) in &edges {
        degree[a as usize] += 1;
        degree[b as usize] += 1;
    }
    let mut edits = Edits::default();
    while edits.delete.len() < EDITS.min(edges.len()) {
        let (a, b) = edges[rng.below(edges.len())];
        if present.remove(&(a, b)) {
            degree[a as usize] -= 1;
            degree[b as usize] -= 1;
            edits.delete.push((a, b));
        }
    }
    let n = s.cardinality();
    for _ in 0..EDITS * 64 {
        if edits.insert.len() == EDITS || n < 2 {
            break;
        }
        let (a, b) = (rng.below(n) as u32, rng.below(n) as u32);
        let key = (a.min(b), a.max(b));
        if a != b && degree[a as usize] < 2 && degree[b as usize] < 2 && present.insert(key) {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
            edits.insert.push(key);
        }
    }
    edits
}

/// Answers the client keeps per read for the naive check; the rest are
/// covered by the digest.
const HEAD: usize = 8;

/// What a client keeps of the answers it reads: their count, an order
/// digest, and the first [`HEAD`]. Bounded, so the benchmark's own memory
/// does not grow with the number of reads.
struct Answers {
    rows: usize,
    digest: u64,
    head: Vec<Node>,
}

impl Answers {
    fn new() -> Self {
        Answers {
            rows: 0,
            digest: digest_of(&[]),
            head: Vec::new(),
        }
    }

    /// Take one answer; `Break` once [`READ`] are in.
    fn take(&mut self, a: &[Node]) -> ControlFlow<()> {
        for n in a.iter().chain([&Node(u32::MAX)]) {
            self.digest = fnv1a(self.digest, &n.0.to_le_bytes());
        }
        if self.rows < HEAD {
            self.head.extend_from_slice(a);
        }
        self.rows += 1;
        if self.rows == READ {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// One read request and what it returned.
struct Read {
    request: usize,
    q: usize,
    version: usize,
    count: u64,
    /// The tested tuples, flat, and their results.
    tests: Vec<Node>,
    passed: Vec<bool>,
    answers: Answers,
    /// `engine.build` time when the read was traced.
    build_ns: Option<f64>,
}

/// Run the session's timed phase on `db` (loaded, its Gaifman graph
/// primed into `cache` at set-up), then verify every read. In the traced
/// pass every other request is traced.
pub fn run(
    ctx: &Ctx,
    mut db: Structure,
    cache: ArtifactCache,
    parsed: &[Query],
    setup: &mut Setup,
) -> Timed {
    let mut timed = Timed::default();
    let par = ParConfig::with_threads(ctx.params.threads);
    let config = EngineConfig::default();
    let zipf = Zipf::new(ctx.corpus.len(), ZIPF_S);
    // the warm-up draws its reads and updates from one seed for every run,
    // so every run starts its timed phase from the same history
    let mut draws = Rng::new(WARM_UP_SEED, 3);
    let mut updates = Rng::new(WARM_UP_SEED, 4);
    let mut log: Vec<Edits> = Vec::new();
    let mut reads: Vec<Read> = Vec::new();
    // Peak RSS per database version of the warm-up: the run's single
    // maximum depends on how rebuilds of one version happen to overlap in
    // the allocator, while the mean over versions is the footprint of
    // serving one.
    let mut version_rss: Vec<f64> = Vec::new();
    let warm_up = ctx.warm_up();
    // seconds of set-up repetitions and reference timings, kept out of
    // the timed phase
    let mut outside = 0.0;

    let mut started = Instant::now();
    rss_reset();
    loop {
        let i = timed.samples.len();
        if i == warm_up {
            draws = Rng::new(ctx.seed, 3);
            updates = Rng::new(ctx.seed, 4);
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
        outside += t.elapsed().as_secs_f64();
        // every other request, shifted by one each update, so the reads
        // right after an update fall in both halves
        let traced = ctx.trace && timing && (i + i / UPDATE_EVERY) % 2 == 1;
        if i % UPDATE_EVERY == UPDATE_EVERY - 1 {
            let version = i / UPDATE_EVERY;
            if version < RSS_VERSIONS {
                version_rss.extend(rss_peak_mb());
            }
            if version + 1 < RSS_VERSIONS {
                rss_reset();
            }
            let t0 = Instant::now();
            let root = begin(&mut timed.layers.tracer, traced);
            let next = span(&mut timed.layers.tracer, traced, "storage.update", || {
                let edits = pick(&db, &mut updates);
                apply(&db, std::slice::from_ref(&edits)).map(|s| (edits, s))
            });
            let failed = match next {
                Ok((edits, next)) => {
                    span(
                        &mut timed.layers.tracer,
                        traced,
                        "artifacts.invalidate",
                        || cache.invalidate(db.fingerprint()),
                    );
                    db = next;
                    log.push(edits);
                    None
                }
                Err(e) => Some(e),
            };
            end(&mut timed.layers.tracer, root);
            let latency = t0.elapsed().as_secs_f64();
            if let Some(e) = failed {
                timed.fail(i, format!("update failed: {e}"));
                break;
            }
            record(&mut timed, root, "update", latency);
            timed.samples.push(Sample {
                class: "update".into(),
                latency,
                first: None,
                rows: 0,
                queries: 0,
                streams: false,
                warm_up: !timing,
                host: timed.host.factor(),
            });
            continue;
        }

        let q = zipf.sample(&mut draws);
        let tests: Vec<Node> = (0..TESTS * parsed[q].arity())
            .map(|_| Node(draws.below(ctx.params.n) as u32))
            .collect();
        let before = traced.then(|| CacheDelta::of(&cache));
        let (_, misses_before) = cache.stats();
        let t0 = Instant::now();
        let tr = &mut timed.layers.tracer;
        let root = begin(tr, traced);
        let query = span(tr, traced, "logic.parse", || {
            replay::parse(&db, &ctx.corpus[q].text)
        });
        let engine = query.and_then(|query| {
            span(tr, traced, "engine.build", || {
                Engine::build_configured(&db, &query, &config, &par, Some(&cache))
                    .map_err(|e| e.to_string())
            })
        });
        let engine = match engine {
            Ok(e) => e,
            Err(e) => {
                end(tr, root);
                timed.fail(i, format!("read {}: {e}", ctx.corpus[q].id));
                timed.samples.push(Sample {
                    class: "read:error".into(),
                    latency: t0.elapsed().as_secs_f64(),
                    first: None,
                    rows: 0,
                    queries: 1,
                    streams: true,
                    warm_up: !timing,
                    host: timed.host.factor(),
                });
                continue;
            }
        };
        let count = engine.count();
        let arity = parsed[q].arity().max(1);
        let passed: Vec<bool> = span(tr, traced, "testing.probe", || {
            tests.chunks(arity).map(|t| engine.test(t)).collect()
        });
        let mut first = None;
        let mut answers = Answers::new();
        span(tr, traced, "enumerate.read", || {
            engine.for_each_answer(|a| {
                first.get_or_insert_with(|| t0.elapsed().as_secs_f64());
                answers.take(a)
            })
        });
        end(tr, root);
        let latency = t0.elapsed().as_secs_f64();
        let class = if cache.stats().1 == misses_before {
            "read:hit"
        } else {
            "read:miss"
        };
        record(&mut timed, root, class, latency);
        let mut build_ns = None;
        if let (Some(before), Some(root)) = (before, root) {
            let l = &mut timed.layers;
            l.cache = l.cache + CacheDelta::of(&cache).since(before);
            build_ns = Some(crate::cli::build_ns(&l.tracer, root));
            let clauses = normalize(&parsed[q]).clauses.len();
            l.distinct.push((1, clauses));
        }
        timed.samples.push(Sample {
            class: class.into(),
            latency,
            first,
            rows: answers.rows as u64,
            queries: 1,
            streams: true,
            warm_up: !timing,
            host: timed.host.factor(),
        });
        reads.push(Read {
            request: i,
            q,
            version: log.len(),
            count,
            tests,
            passed,
            answers,
            build_ns,
        });
    }
    timed.wall = started.elapsed().as_secs_f64() - outside;
    timed.peak_rss_mb = crate::stats::mean(&version_rss);
    verify(ctx, parsed, &reads, &log, &mut timed);
    timed
}

/// Run `f`, as a span when the request is traced.
fn span<T>(tr: &mut Tracer, traced: bool, name: &'static str, f: impl FnOnce() -> T) -> T {
    if traced {
        tr.span(name, |_| f())
    } else {
        f()
    }
}

/// Open a traced request's root span.
fn begin(tr: &mut Tracer, traced: bool) -> Option<usize> {
    traced.then(|| {
        tr.next_request();
        tr.begin("request")
    })
}

/// Close a traced request's root span.
fn end(tr: &mut Tracer, root: Option<usize>) {
    if let Some(r) = root {
        tr.end(r);
    }
}

/// File a request's latency with the traced or the untraced half.
fn record(timed: &mut Timed, root: Option<usize>, class: &str, latency: f64) {
    let l = &mut timed.layers;
    match root {
        Some(r) => l.traced.push((class.into(), r)),
        None => l.untraced.push((class.into(), latency)),
    }
}

/// Check every read for consistency with the other reads of its database
/// version, and the reads of a seeded sample of versions against the
/// naive evaluator and against cacheless cold builds.
fn verify(ctx: &Ctx, parsed: &[Query], reads: &[Read], log: &[Edits], timed: &mut Timed) {
    let trace = ctx.trace;
    let mut seen: BTreeMap<(usize, usize), (u64, u64)> = BTreeMap::new();
    let mut class_counts: BTreeMap<(usize, &str), u64> = BTreeMap::new();
    for r in reads {
        let mut problems = Vec::new();
        if r.answers.rows as u64 != r.count.min(READ as u64) {
            problems.push(format!("read {} answers of {}", r.answers.rows, r.count));
        }
        let d = r.answers.digest;
        if *seen.entry((r.version, r.q)).or_insert((r.count, d)) != (r.count, d) {
            problems.push("differs from an earlier read of the same version".into());
        }
        let class = ctx.corpus[r.q].class.as_str();
        if *class_counts.entry((r.version, class)).or_insert(r.count) != r.count {
            problems.push(format!("count {} differs from its rewrite class", r.count));
        }
        for p in problems {
            let id = &ctx.corpus[r.q].id;
            timed.fail(
                r.request,
                format!("read {id} at version {}: {p}", r.version),
            );
        }
    }
    // the first two versions exist in every run of a seed
    for (&(v, qi), &(count, d)) in seen.range(..(2, 0)) {
        let id = &ctx.corpus[qi].id;
        timed.observed.insert(format!("count:v{v}:{id}"), count);
        timed.observed.insert(format!("digest:v{v}:{id}"), d);
    }

    // the first and last versions, and a seeded sample of the others
    let last = reads.last().map_or(0, |r| r.version);
    let mut middle: Vec<usize> = (1..last).collect();
    let mut rng = Rng::new(ctx.seed, 7);
    rng.shuffle(&mut middle);
    middle.truncate(CHECKED_VERSIONS.saturating_sub(2));
    let checked: BTreeSet<usize> = middle.into_iter().chain([0, last]).collect();
    let mut pairs: Vec<(usize, usize)> = seen
        .keys()
        .filter(|(v, _)| checked.contains(v))
        .copied()
        .collect();
    rng.shuffle(&mut pairs);
    pairs.truncate(REFERENCE_PAIRS);

    let par = ParConfig::with_threads(ctx.params.threads);
    let mut tracer = std::mem::take(&mut timed.layers.tracer);
    // Each checked version is materialized afresh from the base file and
    // the edit log, so no cached state of the session can leak into it.
    let base = span(&mut tracer, trace, "storage.load", || {
        replay::read_db(&ctx.db_path)
    });
    let base = match base {
        Ok(s) => s,
        Err(e) => {
            timed.fail(usize::MAX, format!("reloading the base version: {e}"));
            timed.layers.tracer = tracer;
            return;
        }
    };
    for &v in &checked {
        let version = if v == 0 {
            Ok(base.clone())
        } else {
            span(&mut tracer, trace, "storage.load", || {
                apply(&base, &log[..v])
            })
        };
        let version = match version {
            Ok(s) => s,
            Err(e) => {
                timed.fail(usize::MAX, format!("rebuilding version {v}: {e}"));
                continue;
            }
        };
        for r in reads.iter().filter(|r| r.version == v) {
            let q = &parsed[r.q];
            let arity = q.arity().max(1);
            let mut problems = Vec::new();
            for (t, &got) in r.tests.chunks(arity).zip(&r.passed) {
                if check_naive(&version, q, t) != got {
                    problems.push(format!("test {t:?} returned {got}"));
                }
            }
            if let Some(a) = r
                .answers
                .head
                .chunks(arity)
                .find(|a| !check_naive(&version, q, a))
            {
                problems.push(format!("{a:?} is not an answer"));
            }
            for p in problems {
                let id = &ctx.corpus[r.q].id;
                timed.fail(r.request, format!("read {id} at version {v}: {p}"));
            }
        }
        for &(_, qi) in pairs.iter().filter(|(pv, _)| *pv == v) {
            let (count, d) = seen[&(v, qi)];
            let id = ctx.corpus[qi].id.clone();
            let cold = match cold_build(&mut tracer, trace, &version, &parsed[qi], &par) {
                Ok(c) => c,
                Err(e) => {
                    timed.fail(
                        usize::MAX,
                        format!("cold build of {id} at version {v}: {e}"),
                    );
                    continue;
                }
            };
            let same = reads.iter().filter(|r| (r.version, r.q) == (v, qi));
            if (cold.count, cold.answers.digest) != (count, d) {
                for r in same.clone() {
                    timed.fail(
                        r.request,
                        format!("read {id} at version {v} disagrees with a cold build"),
                    );
                }
            }
            if let Some(build) = cold.build_ns {
                for warm in same.filter_map(|r| r.build_ns) {
                    timed.layers.solo_ns += build;
                    timed.layers.shared_ns += warm;
                }
            }
            if trace && timed.layers.probes.len() < MAX_PROBES {
                let p = replay::probe(&cold.engine, &par, ctx.params.n, &mut rng);
                timed.layers.probes.push(p);
            }
        }
    }
    timed.layers.tracer = tracer;
}

/// A cacheless cold build's answers to compare a read with.
struct Cold {
    count: u64,
    answers: Answers,
    build_ns: Option<f64>,
    engine: Engine,
}

/// Build `q` cold, without a cache: as a traced build when tracing.
fn cold_build(
    tr: &mut Tracer,
    trace: bool,
    db: &Structure,
    q: &Query,
    par: &ParConfig,
) -> Result<Cold, String> {
    let (engine, build_ns) = if trace {
        tr.next_request();
        let root = tr.begin("reference");
        let built = replay::build(tr, db, q, par);
        tr.end(root);
        replay::front_end(tr, db, q);
        (built?, Some(crate::cli::build_ns(tr, root)))
    } else {
        let engine = Engine::build_configured(db, q, &EngineConfig::default(), par, None)
            .map_err(|e| e.to_string())?;
        (engine, None)
    };
    let mut answers = Answers::new();
    engine.for_each_answer(|a| answers.take(a));
    Ok(Cold {
        count: engine.count(),
        answers,
        build_ns,
        engine,
    })
}
