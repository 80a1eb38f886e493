//! # lowdeg-storage
//!
//! Relational substrate for the `lowdeg` engine: finite relational signatures
//! and structures (databases), their Gaifman graphs, degrees, balls and
//! neighborhoods, induced substructures, and a plain-text loader.
//!
//! This crate corresponds to Section 2.1 and Section 2.5 of
//! *Durand, Schweikardt, Segoufin — “Enumerating answers to first-order
//! queries over databases of low degree”* (PODS 2014):
//!
//! * [`Signature`] / [`Structure`] model σ-structures with an implicit linear
//!   order on the domain (`0..n`, the RAM-model order the paper assumes).
//! * [`GaifmanGraph`] is the undirected graph on the domain with an edge
//!   between any two elements co-occurring in a fact; `degree(A)` from the
//!   paper is [`GaifmanGraph::max_degree`].
//! * [`GaifmanGraph::ball`] computes the r-ball `N_r(a)` and
//!   [`Structure::induced`] the r-neighborhood `𝒩_r(a)` as an induced
//!   substructure with a back-mapping to the parent domain.
//!
//! The crate is dependency-free and deliberately small-surfaced; everything
//! else in the workspace builds on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
mod gaifman;
mod labeled;
mod loader;
mod neighborhood;
mod relation;
mod signature;
mod structure;

pub use builder::StructureBuilder;
pub use error::StorageError;
pub use gaifman::GaifmanGraph;
pub use labeled::{Labeled, LabeledBuilder};
pub use loader::{parse_edge_list, parse_structure, write_structure};
pub use neighborhood::{ball_of_tuple, split_key, KeyFacts, Neighborhood};
pub use relation::Relation;
pub use signature::{RelId, Signature, SignatureBuilder, MAX_ARITY};
pub use structure::Structure;

/// A domain element of a structure.
///
/// Domains are always `0..n` for some `n`; the numeric order of `Node`s is
/// the linear order on the domain that the RAM model of Section 2.2 assumes
/// (“we use the one induced by the encoding of the structure”).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Node(pub u32);

impl Node {
    /// The node's position in the domain order, as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for Node {
    fn from(v: u32) -> Self {
        Node(v)
    }
}

/// Convenience constructor used pervasively in tests and examples.
#[inline]
pub fn node(v: u32) -> Node {
    Node(v)
}
