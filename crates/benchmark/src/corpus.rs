//! The four workloads: their databases, query corpora and request
//! schedules. Every choice here is part of the benchmark's definition;
//! `README.md` records why each workload exists.

use crate::rng::Rng;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One-shot `count`/`test` CLI requests: every request pays the whole
    /// build and streams no answers.
    CliBuild,
    /// `enumerate` pages and drains through the CLI at two threads.
    CliStream,
    /// Eight-query `workload` CLI requests with a fresh cache each.
    BatchPlan,
    /// A long-lived library session over a capacity-bounded cache, with
    /// database updates.
    Session,
}

/// Every workload, in the order `run` without `--workload` visits them.
pub const ALL: [Workload; 4] = [
    Workload::CliBuild,
    Workload::CliStream,
    Workload::BatchPlan,
    Workload::Session,
];

/// Size and concurrency of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Domain size of the generated database.
    pub n: usize,
    /// Engine worker threads (`--threads`).
    pub threads: usize,
    /// The timed phase runs at least this many requests.
    pub min_requests: usize,
    /// Domain size of the untimed naive cross-check.
    pub naive_n: usize,
}

impl Workload {
    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CliBuild => "cli-build",
            Workload::CliStream => "cli-stream",
            Workload::BatchPlan => "batch-plan",
            Workload::Session => "session",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sizes for a full run, or the reduced `--quick` sizes.
    pub fn params(self, quick: bool) -> Params {
        let (n, threads, min_requests, naive_n) = match (self, quick) {
            (Workload::CliBuild, false) => (1024, 1, 40, 256),
            (Workload::CliStream, false) => (4096, 2, 40, 256),
            (Workload::BatchPlan, false) => (512, 1, 40, 96),
            (Workload::Session, false) => (8192, 2, 200, 256),
            (Workload::BatchPlan, true) => (256, 1, 3, 48),
            (Workload::Session, true) => (512, 2, 12, 64),
            (_, true) => (512, self.params(false).threads, 3, 64),
        };
        Params {
            n,
            threads,
            min_requests,
            naive_n,
        }
    }

    /// Requests per cycle of the workload's schedule: the unit of fixed
    /// work the rates are measured over.
    pub fn cycle(self) -> usize {
        match self {
            Workload::CliBuild => BUILD_CYCLE.len(),
            Workload::CliStream => STREAM_CYCLE.len(),
            Workload::BatchPlan => PAIRS.len() / (BATCH / 2),
            Workload::Session => crate::session::UPDATE_EVERY,
        }
    }

    /// The query corpus, in the order request schedules index it.
    pub fn corpus(self) -> Vec<Query> {
        match self {
            Workload::CliBuild => vec![
                Query::new("bluered", RUNNING_EXAMPLE),
                Query::new("blue-near-red", "B(x) & (exists y. E(x, y) & R(y))"),
                Query::new("ternary", TERNARY),
                Query::new("two-hop", "exists z. E(x, z) & E(z, y)"),
                Query::new(
                    "disjunction",
                    &format!("({}) | ({})", CLAUSES[0], CLAUSES[3]),
                ),
            ],
            Workload::CliStream => vec![
                Query::new("nonadj-gg", "G(x) & G(y) & !E(x, y)"),
                Query::new("nonadj-b-gr", "B(x) & G(y) & R(y) & !E(x, y)"),
                Query::new("nonadj-bg-rg", "B(x) & G(x) & R(y) & G(y) & !E(x, y)"),
                Query::new("nonadj-r-bg", "R(x) & B(y) & G(y) & !E(x, y)"),
                Query::new("edges-b", "B(x) & E(x, y)"),
            ],
            Workload::BatchPlan => batch_pool(),
            Workload::Session => session_corpus(),
        }
    }
}

/// A corpus query. Queries sharing a `class` are rewrite variants of one
/// another by construction, so one naive answer set checks all of them.
#[derive(Clone, Debug)]
pub struct Query {
    /// Stable identifier used in reports and `expected.json`.
    pub id: String,
    /// Query text as a user would type it.
    pub text: String,
    /// Semantic class: the id of the class's first member.
    pub class: String,
}

impl Query {
    fn new(id: &str, text: &str) -> Self {
        Query {
            id: id.into(),
            text: text.into(),
            class: id.into(),
        }
    }

    fn variant(id: &str, text: &str, of: &str) -> Self {
        Query {
            class: of.into(),
            ..Query::new(id, text)
        }
    }
}

/// The paper's running example (Example 2.3).
pub const RUNNING_EXAMPLE: &str = "B(x) & R(y) & !E(x, y)";

/// The ternary scatter query: three pairwise non-adjacent colored nodes.
pub const TERNARY: &str = "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)";

/// Seven pairwise disjoint radius-1 clauses over two free variables; a
/// two-clause disjunction's count is the sum of its clause counts.
const CLAUSES: [&str; 7] = [
    "B(x) & R(y) & !E(x, y) & (exists z. E(x, z) & R(z))",
    "R(x) & G(y) & !E(x, y) & (exists z. E(x, z) & G(z))",
    "G(x) & B(y) & !E(x, y) & (exists z. E(x, z) & B(z))",
    "B(x) & G(y) & E(x, y) & (exists z. E(y, z) & R(z))",
    "R(x) & B(y) & E(x, y) & (exists z. E(y, z) & G(z))",
    "G(x) & R(y) & E(x, y) & (exists z. E(y, z) & B(z))",
    "B(x) & B(y) & !E(x, y) & (exists z. E(x, z) & B(z))",
];

/// Sixteen distinct clause pairs: every clause rides in at least four.
const PAIRS: [(usize, usize); 16] = [
    (0, 1),
    (1, 2),
    (2, 3),
    (3, 4),
    (4, 5),
    (5, 6),
    (0, 6),
    (0, 2),
    (1, 3),
    (2, 4),
    (3, 5),
    (4, 6),
    (0, 5),
    (1, 6),
    (0, 3),
    (1, 4),
];

/// Color permutations of the ternary scatter query: four distinct cores.
const PERMS: [[&str; 3]; 4] = [
    ["B", "R", "G"],
    ["R", "G", "B"],
    ["G", "B", "R"],
    ["B", "G", "R"],
];

/// `batch-plan`'s pool: the sixteen clause-pair disjunctions, then four
/// cores in four syntaxes each (as-is, reversed conjuncts, doubly negated,
/// renamed variables).
fn batch_pool() -> Vec<Query> {
    let mut out: Vec<Query> = PAIRS
        .iter()
        .map(|&(a, b)| {
            Query::new(
                &format!("pair-{a}{b}"),
                &format!("({}) | ({})", CLAUSES[a], CLAUSES[b]),
            )
        })
        .collect();
    for [a, b, c] in PERMS {
        let class = format!("scatter-{a}{b}{c}");
        out.push(Query::new(
            &class,
            &format!("{a}(x) & {b}(y) & {c}(z) & !E(x, y) & !E(y, z) & !E(x, z)"),
        ));
        out.push(Query::variant(
            &format!("{class}-reversed"),
            &format!("!E(x, y) & !E(x, z) & !E(y, z) & {c}(z) & {b}(y) & {a}(x)"),
            &class,
        ));
        out.push(Query::variant(
            &format!("{class}-negated"),
            &format!("!!({a}(x) & {b}(y) & {c}(z) & !E(x, y) & !E(y, z) & !E(x, z))"),
            &class,
        ));
        out.push(Query::variant(
            &format!("{class}-renamed"),
            &format!("{a}(u) & {b}(v) & {c}(w) & !E(u, v) & !E(v, w) & !E(u, w)"),
            &class,
        ));
    }
    out
}

/// `session`'s corpus in Zipf rank order (index 0 is the most requested).
/// Query shapes rotate through the ranks so the hot set mixes them; every
/// query builds in tens of milliseconds cold, so a miss costs about the
/// same whichever query it hits.
fn session_corpus() -> Vec<Query> {
    const PAIRS: [(&str, &str); 6] = [
        ("B", "R"),
        ("R", "G"),
        ("G", "B"),
        ("R", "B"),
        ("G", "R"),
        ("B", "G"),
    ];
    let mut out = Vec::new();
    for (i, (a, b)) in PAIRS.into_iter().enumerate() {
        out.push(Query::new(
            &format!("nonadj-{a}{b}"),
            &format!("{a}(x) & {b}(y) & !E(x, y)"),
        ));
        out.push(Query::new(
            &format!("near-{a}{b}"),
            &format!("{a}(x) & (exists y. E(x, y) & {b}(y))"),
        ));
        out.push(Query::new(
            &format!("edge-{a}{b}"),
            &format!("{a}(x) & {b}(y) & E(x, y)"),
        ));
        if i == 0 {
            out.push(Query::variant(
                "nonadj-BR-reordered",
                "!E(x, y) & R(y) & B(x)",
                "nonadj-BR",
            ));
        }
        if i == 1 {
            out.push(Query::variant(
                "near-BR-negated",
                "!!(B(x) & (exists z. E(x, z) & R(z)))",
                "near-BR",
            ));
        }
        if i < 4 {
            let (c, d) = PAIRS[(i + 1) % 6];
            out.push(Query::new(
                &format!("edge-{a}{b}-or-{c}{d}"),
                &format!("({a}(x) & {b}(y) & E(x, y)) | ({c}(x) & {d}(y) & E(x, y))"),
            ));
        }
    }
    out
}

/// Degree bound of every generated database: the bounded-degree class of
/// the paper's theorems.
const DEGREE: usize = 2;

/// Generator seed of every workload's database, whatever the run's seed.
/// The number of neighborhood-type combinations a database realizes sets
/// what a build costs and holds, and it differs between generated
/// databases by up to 40% at n=1024 (6 710 to 9 577 Step 5 clauses for
/// one pair disjunction over ten seeds): more than most changes a
/// benchmark run should detect. The run's seed draws the requests.
pub const DB_SEED: u64 = 1;

/// The database every request of a run reads, as `lowdeg generate` makes it.
pub fn generate_args(p: &Params, seed: u64, path: &str) -> Vec<String> {
    vec![
        "generate".into(),
        p.n.to_string(),
        DEGREE.to_string(),
        seed.to_string(),
        path.into(),
    ]
}

/// One request of a CLI workload.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// `lowdeg count db q`.
    Count {
        /// Corpus index.
        q: usize,
    },
    /// `lowdeg test db q t...`.
    Test {
        /// Corpus index.
        q: usize,
        /// The probed tuple.
        tuple: Vec<u32>,
    },
    /// `lowdeg enumerate db q [limit]`.
    Enumerate {
        /// Corpus index.
        q: usize,
        /// `--format ndjson` instead of tsv.
        ndjson: bool,
        /// Page size; `None` drains every answer.
        limit: Option<usize>,
    },
    /// `lowdeg workload db file` over these corpus indices.
    Workload {
        /// Corpus indices, one query per line.
        queries: Vec<usize>,
    },
}

impl Request {
    /// Report class: the command, the query and, for pages, the format.
    pub fn class(&self, corpus: &[Query]) -> String {
        match self {
            Request::Count { q } => format!("count:{}", corpus[*q].id),
            Request::Test { q, .. } => format!("test:{}", corpus[*q].id),
            Request::Enumerate { q, ndjson, limit } => format!(
                "{}:{}:{}",
                if limit.is_some() { "page" } else { "drain" },
                corpus[*q].id,
                if *ndjson { "ndjson" } else { "tsv" }
            ),
            Request::Workload { .. } => "workload".into(),
        }
    }

    /// Queries the request answers.
    pub fn queries(&self) -> usize {
        match self {
            Request::Workload { queries } => queries.len(),
            _ => 1,
        }
    }

    /// Whether the request streams answer rows (the `answers_per_s` base
    /// on workloads that have such requests).
    pub fn streams(&self) -> bool {
        matches!(self, Request::Enumerate { limit: None, .. })
    }
}

/// Page size of first-page requests.
const PAGE: usize = 1000;

/// The request schedule of a CLI workload: an endless, seeded sequence.
pub struct Schedule {
    workload: Workload,
    rng: Rng,
    arities: Vec<usize>,
    n: usize,
    /// `batch-plan`'s current cycle: the pool's two strata, shuffled.
    pairs: Vec<usize>,
    variants: Vec<usize>,
}

/// `cli-build`'s cycle, in corpus indices. Per ten requests: one of each
/// radius-0 binary query, one ternary, one two-hop and six disjunctions.
/// Two-hop builds cost within ±10% of a disjunction, on either side
/// depending on the database, so the disjunctions span cumulative shares
/// 0.3–0.9 or 0.4–1.0: the median and the 75th percentile fall inside
/// them either way, at least 0.1 from any boundary between classes.
/// Interleaved so any prefix of the sequence stays close to the mix.
const BUILD_CYCLE: [usize; 10] = [4, 0, 4, 2, 4, 3, 4, 1, 4, 4];

/// `cli-stream`'s cycle: seven first pages, two drains and one count per
/// ten requests, interleaved so any prefix of the sequence keeps close to
/// the cycle's mix.
const STREAM_CYCLE: [Request; 10] = [
    page(1, false),
    drain(0),
    page(3, true),
    page(4, false),
    page(1, true),
    Request::Count { q: 3 },
    page(3, false),
    drain(2),
    page(1, false),
    page(3, true),
];

const fn page(q: usize, ndjson: bool) -> Request {
    Request::Enumerate {
        q,
        ndjson,
        limit: Some(PAGE),
    }
}

const fn drain(q: usize) -> Request {
    Request::Enumerate {
        q,
        ndjson: false,
        limit: None,
    }
}

/// Queries per `batch-plan` request.
const BATCH: usize = 8;

impl Schedule {
    /// The schedule for `workload` over a database of `n` nodes, given the
    /// arity of each corpus query (so `test` requests draw well-formed
    /// tuples).
    pub fn new(workload: Workload, seed: u64, n: usize, arities: Vec<usize>) -> Self {
        Schedule {
            workload,
            rng: Rng::new(seed, 2),
            arities,
            n,
            pairs: Vec::new(),
            variants: Vec::new(),
        }
    }

    /// Draw the rest of the schedule from `seed`.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = Rng::new(seed, 2);
    }

    /// The `i`th request.
    pub fn request(&mut self, i: usize) -> Request {
        match self.workload {
            Workload::CliBuild => {
                let q = BUILD_CYCLE[i % BUILD_CYCLE.len()];
                // count and test alternate within each class across cycles
                if (i / BUILD_CYCLE.len() + i).is_multiple_of(2) {
                    Request::Count { q }
                } else {
                    let tuple = (0..self.arities[q])
                        .map(|_| self.rng.below(self.n) as u32)
                        .collect();
                    Request::Test { q, tuple }
                }
            }
            Workload::CliStream => STREAM_CYCLE[i % STREAM_CYCLE.len()].clone(),
            Workload::BatchPlan => {
                // Half the batch from each stratum of the pool, so every
                // request mixes clause sharing and rewrite sharing alike.
                // Every cycle of four requests holds each pool query once,
                // in a fresh seeded order: single batches differ in cost
                // and footprint by up to 2x, cycles by little.
                let half = self.arities.len() / 2;
                let cycle = half / (BATCH / 2);
                if i.is_multiple_of(cycle) {
                    self.pairs = (0..half).collect();
                    self.variants = (half..self.arities.len()).collect();
                    self.rng.shuffle(&mut self.pairs);
                    self.rng.shuffle(&mut self.variants);
                }
                let at = (i % cycle) * (BATCH / 2)..(i % cycle + 1) * (BATCH / 2);
                let mut queries: Vec<usize> = self.pairs[at.clone()]
                    .iter()
                    .chain(&self.variants[at])
                    .copied()
                    .collect();
                self.rng.shuffle(&mut queries);
                Request::Workload { queries }
            }
            Workload::Session => unreachable!("the session is not a CLI workload"),
        }
    }
}
