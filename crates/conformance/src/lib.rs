//! # lowdeg-conformance
//!
//! A seeded, reproducible differential- and metamorphic-testing harness
//! for the whole query pipeline.
//!
//! One conformance *case* is a `(structure, query)` pair: the structure
//! drawn from a serializable [`structgen::StructSpec`] sweeping every
//! [`lowdeg_gen::DegreeClass`] variant, the query from the grammar-directed
//! [`querygen::QueryGen`] covering each supported normal-form shape. Each
//! pair runs through every row of the oracle table
//! [`ORACLES`], in this order:
//!
//! * `differential` ([`differential`]) — `Engine` count/test/enumerate
//!   under every `SkipMode` and an ε sweep, against `answers_naive` and
//!   the `GenerateAndTest` baseline;
//! * `metamorphic` ([`metamorphic`]) — isomorphic relabeling,
//!   isolated-vertex padding, and semantics-preserving rewrites
//!   (simplify / De Morgan NNF / DNF);
//! * `parcheck` ([`parcheck`]) — a serial (`threads = 1`) and a
//!   forced-parallel build of every case must yield the same count,
//!   enumeration order and per-clause plan statistics;
//! * `enumcheck` ([`enumcheck`]) — the sharded `par_for_each_answer` /
//!   `par_count` surface must visit bit-identical answers in bit-identical
//!   order to the serial, delay-accounted visitor, including early-`Break`
//!   prefixes and repeated passes over one engine;
//! * `cachecheck` ([`cachecheck`]) — a cold build and three builds
//!   through one `ArtifactCache` must yield the same count, enumeration
//!   order and per-clause plan statistics, and the repeats must hit both
//!   the core tier and (whenever components were discovered) the
//!   counting memo;
//! * `latticecheck` ([`latticecheck`]) — the engine's batched Lemma 3.5
//!   pass over the reduced query, on a serial and a forced-parallel pool
//!   with the counting memo off and on, must equal the sum of the per-term
//!   inclusion–exclusion clause counts;
//! * `normcheck` ([`normcheck`]) — syntactic rewrite variants of the case
//!   query must share its fingerprint, build observably identical engines
//!   and group onto one engine in a workload batch;
//! * `clausecheck` ([`clausecheck`]) — on a partial-overlap family
//!   derived from the case query's own canonical clauses, the
//!   clause-granular workload planner and the whole-core planner must
//!   agree on counts, enumeration order and plan statistics, and the
//!   sharing arm must demonstrably hit the clause tier.
//!
//! The two-arm rows share one core in [`oracle`]: one `Observed`
//! surface, one comparator and one build-outcome rule. Every row reports
//! whether it checked or skipped a case; the run fails when a row checked
//! none. Separately, the **dynamic-update oracle** ([`dynamic`]) runs
//! randomized insert/delete scripts against a rebuilt-from-scratch
//! baseline.
//!
//! A disagreement records its row. Failures are shrunk ([`shrink`]) to a
//! minimal pair by re-running that row alone, and serialized as a JSON
//! witness ([`repro`]) that `lowdeg-conformance replay` re-executes under
//! the same row. Every run re-measures per-output RAM-op delay and emits a
//! machine-readable `conformance_report.json` (with per-row
//! checked/skipped counts under `oracles`) whose [`delay::DelayGate`]
//! entries back the CI delay-regression gate.
//!
//! The binary (`src/main.rs`) exposes `run`, `replay` and `delay-gate`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cachecheck;
pub mod clausecheck;
pub mod delay;
pub mod differential;
pub mod dynamic;
pub mod enumcheck;
pub mod json;
pub mod latticecheck;
pub mod metamorphic;
pub mod normcheck;
pub mod oracle;
pub mod parcheck;
pub mod querygen;
pub mod repro;
pub mod runner;
pub mod shrink;
pub mod structgen;

pub use differential::{differential_case, CaseConfig, Disagreement, Mutation};
pub use oracle::{Oracle, Verdict, ORACLES};
pub use querygen::{QueryGen, QueryShape, ALL_SHAPES};
pub use repro::{replay, Witness};
pub use runner::{run, write_report, Profile, RunOptions, RunSummary};
pub use structgen::StructSpec;
