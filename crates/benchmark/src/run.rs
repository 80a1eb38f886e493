//! One run of one workload: set-up, the timed phase, verification, and
//! the metrics the run reports.

use crate::corpus::{self, Params, Workload};
use crate::host::HostProbe;
use crate::replay::{self, CacheDelta, Probe};
use crate::report::{self, Metric};
use crate::rng::Rng;
use crate::session;
use crate::trace::{self, Span, Tracer};
use lowdeg_core::{ArtifactCache, Engine, EngineConfig};
use lowdeg_logic::eval::answers_naive;
use lowdeg_logic::Query;
use lowdeg_par::ParConfig;
use lowdeg_storage::{parse_structure, Node, Structure};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Length of a timed phase, in seconds: `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 22.0;
/// Set-up is repeated between requests at this many evenly spaced points
/// of the timed phase; `setup_s` is the median of the repetitions. A
/// set-up takes 0.5–20 ms, and the speed of a shared host drifts over
/// seconds to minutes, so repetitions bunched before the first request
/// would measure the host of that moment; spread over the run they see
/// the host the requests see.
const SETUP_REPS: usize = 24;
/// Seed of the warm-up's draws. The warm-up is the same in every run, so
/// `peak_rss_mb` and the values `expected.json` holds do not depend on
/// the run's seed, which draws the timed phase.
pub const WARM_UP_SEED: u64 = 0;
/// Queries whose answer paths a traced pass probes at most.
pub const MAX_PROBES: usize = 6;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Run the per-layer pass instead of the end-to-end pass.
    pub trace: bool,
    /// Reduced sizes, for smoke tests.
    pub quick: bool,
}

/// Everything the workload modules share.
pub struct Ctx {
    /// The workload.
    pub workload: Workload,
    /// Its sizes.
    pub params: Params,
    /// The run's seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// The workload's queries.
    pub corpus: Vec<corpus::Query>,
    /// The generated database file.
    pub db_path: String,
    /// The run's private temporary directory.
    pub tmp: PathBuf,
    /// Whether this is the traced pass.
    pub trace: bool,
}

impl Ctx {
    /// Requests the timed phase runs at least. The traced pass reports no
    /// percentiles and runs each CLI request twice, so one schedule cycle
    /// is enough there.
    pub fn min_requests(&self) -> usize {
        if self.trace {
            self.params.min_requests.min(10)
        } else {
            self.params.min_requests
        }
    }

    /// Schedule cycles `peak_rss_mb` is read over: the first ones sent,
    /// each request (each database version, on `session`) from a trimmed
    /// heap.
    pub fn rss_cycles(&self) -> usize {
        match self.workload {
            Workload::Session => session::RSS_VERSIONS,
            _ => 1,
        }
    }

    /// Requests sent before the timed phase: the RSS cycles, then one more
    /// cycle that grows the heap the timed requests reuse.
    pub fn warm_up(&self) -> usize {
        (self.rss_cycles() + 1) * self.workload.cycle()
    }

    /// Whether the run is over once `sent` requests in all have returned,
    /// `elapsed` seconds into the timed phase. The timed phase lasts the
    /// run length and at least the minimum number of requests, and ends
    /// on a whole schedule cycle.
    pub fn done(&self, sent: usize, elapsed: f64) -> bool {
        let Some(timed) = sent.checked_sub(self.warm_up()) else {
            return false;
        };
        elapsed >= self.seconds
            && timed >= self.min_requests()
            && timed.is_multiple_of(self.workload.cycle())
    }
}

/// One request.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Report class.
    pub class: String,
    /// Wall time, in seconds.
    pub latency: f64,
    /// Time to the first output row, in seconds.
    pub first: Option<f64>,
    /// Output rows.
    pub rows: u64,
    /// Queries answered.
    pub queries: u64,
    /// Whether the request streams answers.
    pub streams: bool,
    /// Whether it was sent before the timed phase: verified, counted as
    /// attempted, and left out of every timing.
    pub warm_up: bool,
    /// The host factor in force when it ran.
    pub host: f64,
}

/// The timed phase's record.
#[derive(Default)]
pub struct Timed {
    /// Every request, in the order sent, the warm-up's first.
    pub samples: Vec<Sample>,
    /// Wall time of the timed phase, in seconds.
    pub wall: f64,
    /// Requests with a failure (`usize::MAX` marks a failure of the run
    /// rather than of one request).
    pub failed: BTreeSet<usize>,
    /// What failed.
    pub failures: Vec<String>,
    /// Verified values, keyed for `expected.json`.
    pub observed: BTreeMap<String, u64>,
    /// Mean over the RSS cycles' requests (CLI workloads) or database
    /// versions (session) of the peak RSS each reaches, in MiB; `None`
    /// where `VmHWM` is unreadable.
    pub peak_rss_mb: Option<f64>,
    /// The reference task timed between schedule cycles.
    pub host: HostProbe,
    /// The traced pass's measurements.
    pub layers: LayerData,
}

impl Timed {
    /// Record a failure of request `i`.
    pub fn fail(&mut self, i: usize, what: String) {
        self.failed.insert(i);
        self.failures.push(what);
    }
}

/// Measurements of the traced pass.
#[derive(Default)]
pub struct LayerData {
    /// Every span.
    pub tracer: Tracer,
    /// Untraced request latencies (seconds) by class.
    pub untraced: Vec<(String, f64)>,
    /// Traced requests' root spans by class.
    pub traced: Vec<(String, usize)>,
    /// Whether `untraced[i]` and `traced[i]` are one request run both ways.
    pub paired: bool,
    /// Answer-path probes.
    pub probes: Vec<Probe>,
    /// Cache counters over the traced requests.
    pub cache: CacheDelta,
    /// Distinct normal forms and clauses per traced request.
    pub distinct: Vec<(usize, usize)>,
    /// Engine time cold, unshared builds of the traced requests' queries
    /// took, in nanoseconds.
    pub solo_ns: f64,
    /// Engine time the same requests took, in nanoseconds.
    pub shared_ns: f64,
    /// The queries of each traced `workload` request.
    pub batches: Vec<Vec<usize>>,
    /// CLI formatting cost per row, per probe.
    pub format_ns: Vec<f64>,
}

/// The outcome of one run.
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Its sizes.
    pub params: Params,
    /// Whether every output was verified correct.
    pub correct: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed or returned a wrong answer.
    pub failed: u64,
    /// The end-to-end metrics, or with `trace` the per-layer ones.
    pub metrics: Vec<Metric>,
    /// Sample counts and other details, one line each.
    pub notes: Vec<String>,
    /// What failed.
    pub failures: Vec<String>,
    /// The traced pass's spans.
    pub spans: Vec<Span>,
    /// Verified values, keyed for `expected.json`.
    pub observed: BTreeMap<String, u64>,
}

/// A temporary directory private to this process and run, removed on
/// drop.
struct TempDir(PathBuf);

impl TempDir {
    fn create(w: Workload) -> Result<Self, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let k = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(".benchmark-tmp").join(format!(
            "{}-{}-{k}",
            w.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // the parent goes too once no other run uses it
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The workload's set-up: ingest through `lowdeg generate`, and for the
/// session also the load and the Gaifman priming a long-lived process
/// starts with. It runs once before the warm-up, for the run's database,
/// and is repeated and timed in the timed phase.
pub struct Setup {
    workload: Workload,
    params: Params,
    /// Seconds of the timed phase between repetitions.
    every: f64,
    /// Where repetitions write their database, apart from the one the
    /// requests read.
    path: String,
    /// Every repetition's time, in seconds, and the host factor in force.
    times: Vec<(f64, f64)>,
}

/// A session's state after set-up: its database and primed cache.
type SessionState = (Structure, ArtifactCache);

impl Setup {
    /// Set up once, writing the database to `db_path`; returns the time
    /// it took and the session's state.
    fn once(&self, db_path: &str) -> Result<(f64, Option<SessionState>), String> {
        let t0 = Instant::now();
        let argv = corpus::generate_args(&self.params, corpus::DB_SEED, db_path);
        lowdeg_cli::run(&argv, &mut std::io::sink())?;
        let state = if self.workload == Workload::Session {
            let db = replay::read_db(db_path)?;
            let cache = ArtifactCache::with_capacity(session::CAPACITY);
            cache.prime_gaifman(&db, &ParConfig::with_threads(self.params.threads));
            Some((db, cache))
        } else {
            None
        };
        // a repetition's state is dropped outside the timer
        Ok((t0.elapsed().as_secs_f64(), state))
    }

    /// Whether a repetition is due `elapsed` seconds into the timed phase.
    pub fn due(&self, elapsed: f64) -> bool {
        self.times.len() < SETUP_REPS && elapsed >= self.times.len() as f64 * self.every
    }

    /// Repeat the set-up into the repetitions' own file, on a host of
    /// factor `host`.
    pub fn repeat(&mut self, host: f64) -> Result<(), String> {
        let (secs, _) = self.once(&self.path)?;
        self.times.push((secs, host));
        Ok(())
    }
}

/// Run one workload.
pub fn run(opts: &Options) -> Result<Report, String> {
    hold_heap();
    let w = opts.workload;
    let params = w.params(opts.quick);
    let tmp = TempDir::create(w)?;
    let db_path = tmp.0.join("db.db").to_string_lossy().into_owned();
    let mut setup = Setup {
        workload: w,
        params,
        every: opts.seconds / SETUP_REPS as f64,
        path: tmp.0.join("setup.db").to_string_lossy().into_owned(),
        times: Vec::new(),
    };
    let (_, session_state) = setup.once(&db_path)?;

    let ctx = Ctx {
        workload: w,
        params,
        seed: opts.seed,
        seconds: opts.seconds,
        corpus: w.corpus(),
        db_path,
        tmp: tmp.0.clone(),
        trace: opts.trace,
    };
    let db = replay::read_db(&ctx.db_path)?;
    let parsed: Vec<Query> = ctx
        .corpus
        .iter()
        .map(|q| replay::parse(&db, &q.text))
        .collect::<Result<_, _>>()?;
    let naive_failures = naive_check(&ctx)?;

    let mut timed = match session_state {
        Some((sdb, cache)) => session::run(&ctx, sdb, cache, &parsed, &mut setup),
        None => crate::cli::run(&ctx, &db, &parsed, &mut setup),
    };
    let peak_rss_mb = timed.peak_rss_mb.unwrap_or_else(|| {
        timed.fail(
            usize::MAX,
            "VmHWM is not readable from /proc/self/status".into(),
        );
        0.0
    });
    if opts.trace {
        format_probe(&ctx, &db, &mut timed);
    }
    for f in naive_failures {
        timed.fail(usize::MAX, f);
    }
    if opts.trace {
        if let Err(e) = trace::check_nesting(timed.layers.tracer.spans()) {
            timed.fail(usize::MAX, format!("span nesting: {e}"));
        }
    }
    check_expected(&ctx, &mut timed);

    let mut notes = vec![format!(
        "set-up: {} repetitions, {} to {} s as measured",
        setup.times.len(),
        report::fmt(
            setup
                .times
                .iter()
                .map(|t| t.0)
                .fold(f64::INFINITY, f64::min)
        ),
        report::fmt(setup.times.iter().map(|t| t.0).fold(0.0, f64::max)),
    )];
    let metrics = if opts.trace {
        report::per_layer(&timed.layers, &mut notes)
    } else {
        report::end_to_end(&timed, w.cycle(), &setup.times, peak_rss_mb, &mut notes)
    };
    let attempted = timed.samples.len() as u64;
    let mut failed = timed.failed.iter().filter(|&&i| i != usize::MAX).count() as u64;
    if timed.failed.contains(&usize::MAX) {
        failed = failed.max(1);
    }
    Ok(Report {
        workload: w,
        params,
        correct: timed.failures.is_empty(),
        attempted,
        failed,
        metrics,
        notes,
        failures: timed.failures,
        spans: timed.layers.tracer.spans().to_vec(),
        observed: timed.observed,
    })
}

/// Check every corpus query on a small database of the same family
/// against the naive evaluator: counts, the first answers, and tests of
/// random tuples and of answers.
fn naive_check(ctx: &Ctx) -> Result<Vec<String>, String> {
    let p = ctx.params;
    let mut text = Vec::new();
    let seed = ctx.seed.wrapping_add(0x5eed);
    let argv = corpus::generate_args(&Params { n: p.naive_n, ..p }, seed, "");
    lowdeg_cli::run(&argv[..4], &mut text)?;
    let small = parse_structure(&String::from_utf8_lossy(&text)).map_err(|e| e.to_string())?;
    let par = ParConfig::with_threads(p.threads);
    let mut rng = Rng::new(ctx.seed, 9);
    let mut oracle: BTreeMap<&str, BTreeSet<Vec<Node>>> = BTreeMap::new();
    let mut failures = Vec::new();
    for cq in &ctx.corpus {
        let q = replay::parse(&small, &cq.text)?;
        let answers = oracle
            .entry(cq.class.as_str())
            .or_insert_with(|| answers_naive(&small, &q).into_iter().collect());
        let engine =
            match Engine::build_configured(&small, &q, &EngineConfig::default(), &par, None) {
                Ok(e) => e,
                Err(e) => {
                    failures.push(format!("naive check: {} does not build: {e}", cq.id));
                    continue;
                }
            };
        let mut problems = Vec::new();
        if engine.count() != answers.len() as u64 {
            problems.push(format!("count {} != {}", engine.count(), answers.len()));
        }
        let mut first = Vec::new();
        engine.for_each_answer(|a| {
            first.push(a.to_vec());
            if first.len() == 64 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        let mut tuples: Vec<Vec<Node>> = (0..16)
            .map(|_| {
                (0..q.arity())
                    .map(|_| Node(rng.below(p.naive_n) as u32))
                    .collect()
            })
            .collect();
        tuples.extend(first.iter().take(8).cloned());
        if let Some(a) = first.iter().find(|a| !answers.contains(*a)) {
            problems.push(format!("enumerated {a:?}, not an answer"));
        }
        if let Some(t) = tuples
            .iter()
            .find(|t| engine.test(t) != answers.contains(*t))
        {
            problems.push(format!("test {t:?} disagrees"));
        }
        for pr in problems {
            failures.push(format!("naive check at n={}: {}: {pr}", p.naive_n, cq.id));
        }
    }
    Ok(failures)
}

/// Measure the CLI's per-row formatting cost: an `enumerate` of up to
/// [`replay::PROBE_ROWS`] rows through `lowdeg_cli::run`, minus a `count`
/// of the same query (same load and build, no rows) and minus the
/// library's serial drain of those rows. Serial, so the rows stream.
fn format_probe(ctx: &Ctx, db: &Structure, timed: &mut Timed) {
    let text = corpus::RUNNING_EXAMPLE;
    let par = ParConfig::serial();
    let Ok(query) = replay::parse(db, text) else {
        return;
    };
    let Ok(engine) = Engine::build_configured(db, &query, &EngineConfig::default(), &par, None)
    else {
        return;
    };
    let rows = engine.count().min(replay::PROBE_ROWS as u64);
    if rows == 0 {
        return;
    }
    let cli = |cmd: &str, limit: Option<u64>| {
        let mut argv: Vec<String> = vec![
            "--threads".into(),
            "1".into(),
            cmd.into(),
            ctx.db_path.clone(),
            text.into(),
        ];
        argv.extend(limit.map(|l| l.to_string()));
        let t0 = Instant::now();
        let ok = lowdeg_cli::run(&argv, &mut std::io::sink()).is_ok();
        (ok, t0.elapsed().as_secs_f64())
    };
    for _ in 0..3 {
        let (ok_e, enumerate) = cli("enumerate", Some(rows));
        let (ok_c, count) = cli("count", None);
        let mut left = rows;
        let t0 = Instant::now();
        engine.for_each_answer(|a| {
            std::hint::black_box(a);
            left -= 1;
            if left == 0 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        let library = t0.elapsed().as_secs_f64();
        if ok_e && ok_c {
            let ns = (enumerate - count - library) * 1e9 / rows as f64;
            timed.layers.format_ns.push(ns);
        }
    }
}

/// Compare observed values with `expected.json` when this run uses the
/// size they were recorded at.
fn check_expected(ctx: &Ctx, timed: &mut Timed) {
    let Some(expected) = crate::record::expected(ctx.workload, ctx.params.n) else {
        return;
    };
    let mismatched: Vec<String> = expected
        .iter()
        .filter_map(|(k, want)| {
            let got = timed.observed.get(k)?;
            (got != want).then(|| format!("{k}: {got}, expected.json has {want}"))
        })
        .collect();
    for m in mismatched {
        timed.fail(usize::MAX, m);
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: return the free pages of every malloc arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
    /// glibc: set a malloc tuning parameter.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Keep freed memory in the process: glibc then serves every allocation
/// from its heap, with no mapping of its own per large block, and never
/// trims the heap unasked. Memory handed back to the kernel and touched
/// again costs page faults, and on a virtual machine that reports free
/// pages to its hypervisor their price depends on the host's other
/// tenants: with the heap trimmed before every request, the median
/// request of `cli-build` spread 12% over runs of one commit on a shared
/// 2-vCPU VM, and 3.5% with it kept. Only [`rss_reset`] trims it, outside
/// the timed phase.
pub fn hold_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `mallopt` only changes allocation policy for later calls.
    #[allow(unsafe_code)]
    unsafe {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_MAX: i32 = -4;
        mallopt(M_MMAP_MAX, 0);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

/// Hand the heap's free pages back to the kernel, then reset the kernel's
/// peak-RSS mark (`VmHWM`) to the current RSS. The next peak is then that
/// of the work that follows on top of live data, as in a fresh process.
/// Without the trim it would depend on how much freed memory the
/// allocator happened to keep from earlier work, which varies by 20%
/// between runs. Best effort: where the reset fails, the mark also covers
/// what ran before.
pub fn rss_reset() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` only releases pages no allocation owns.
    #[allow(unsafe_code)]
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) since the last [`rss_reset`], in MiB.
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
