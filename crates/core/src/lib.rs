//! # lowdeg-core
//!
//! The paper's primary contribution, end to end: **counting, testing and
//! constant-delay enumeration of first-order query answers over databases of
//! low degree** (Durand–Schweikardt–Segoufin, PODS 2014).
//!
//! The pipeline follows the paper exactly:
//!
//! ```text
//!              Prop 3.3 (quantifier elimination)
//!  FO query ────────────────────────────────────▶ quantifier-free ψ = ψ₁∧ψ₂
//!  over A      [reduction]                          over a colored graph G
//!                                                   + bijection f : φ(A) → ψ(G)
//!       ┌──────────────┬──────────────────┬──────────────────────┐
//!       ▼              ▼                  ▼                      ▼
//!   counting        testing          enumeration            model checking
//!   Lemma 3.5      Prop 3.7           Prop 3.9                Thm 2.4
//!   Prop 3.6      (FactIndex)      (skip / E_i / next)     (lowdeg-locality)
//! ```
//!
//! Entry point: [`Engine`].
//!
//! ```
//! use lowdeg_core::Engine;
//! use lowdeg_index::Epsilon;
//! use lowdeg_logic::parse_query;
//! # let db = lowdeg_gen::ColoredGraphSpec::balanced(64, lowdeg_gen::DegreeClass::Bounded(3)).generate(1);
//! let q = parse_query(db.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
//! let engine = Engine::build(&db, &q, Epsilon::new(0.5)).unwrap();
//! let n = engine.count();                       // Theorem 2.5
//! let all: Vec<_> = engine.enumerate().collect(); // Theorem 2.7
//! assert_eq!(all.len() as u64, n);
//! for t in &all {
//!     assert!(engine.test(t));                  // Theorem 2.6
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod bluered;
pub mod connected_cq;
pub mod counting;
pub mod csr;
pub mod dynamic;
mod engine;
pub mod enumerate;
mod error;
pub mod explain;
mod graph_query;
pub mod naive;
pub mod reduction;
pub mod testing;

pub use artifacts::{ArtifactCache, BuildProfile, Profiler, Stage, DEFAULT_CACHE_CAPACITY};
pub use counting::CountingMemo;
pub use engine::{AnswerStream, Engine, EngineConfig, NormalizationInfo, WorkloadStats};
pub use enumerate::{ClausePlan, Enumerator, SkipLimits, SkipMode, VertexStream};
pub use error::EngineError;
pub use graph_query::{position_list, GraphQuery, PositionMemo};
pub use reduction::{CoreDigest, Reduction, ReductionCore};
pub use testing::TestIndex;
