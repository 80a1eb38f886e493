//! Finite relational structures (databases).

use crate::gaifman::GaifmanGraph;
use crate::neighborhood::{Incidence, Neighborhood};
use crate::signature::{RelId, Signature};
use crate::{Node, Relation, StructureBuilder};
use std::sync::{Arc, OnceLock};

/// A finite relational σ-structure `A` (Section 2.1): a domain `0..n` and an
/// `ar(R)`-ary relation for every `R ∈ σ`.
///
/// The numeric order on the domain is the linear order assumed by the RAM
/// model. The Gaifman graph is computed lazily on first use and cached.
#[derive(Clone, Debug)]
pub struct Structure {
    signature: Arc<Signature>,
    n: usize,
    relations: Vec<Relation>,
    gaifman: Arc<OnceLock<GaifmanGraph>>,
    incidence: Arc<OnceLock<Incidence>>,
    fingerprint: Arc<OnceLock<u64>>,
}

impl Structure {
    pub(crate) fn from_parts(
        signature: Arc<Signature>,
        n: usize,
        relations: Vec<Relation>,
    ) -> Self {
        debug_assert_eq!(signature.len(), relations.len());
        Structure {
            signature,
            n,
            relations,
            gaifman: Arc::new(OnceLock::new()),
            incidence: Arc::new(OnceLock::new()),
            fingerprint: Arc::new(OnceLock::new()),
        }
    }

    /// Start building a structure over `signature` with domain `0..n`.
    pub fn builder(signature: Arc<Signature>, n: usize) -> StructureBuilder {
        StructureBuilder::new(signature, n)
    }

    /// The structure's signature.
    #[inline]
    pub fn signature(&self) -> &Arc<Signature> {
        &self.signature
    }

    /// Cardinality `|A|`: the number of domain elements.
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.n
    }

    /// Iterate over the domain in its linear order.
    pub fn domain(&self) -> impl ExactSizeIterator<Item = Node> + Clone {
        (0..self.n as u32).map(Node)
    }

    /// Size `‖A‖ = |σ| + |dom(A)| + Σ_R |R^A| · ar(R)` (Section 2.1).
    pub fn size(&self) -> usize {
        self.signature.len()
            + self.n
            + self
                .relations
                .iter()
                .map(|r| r.len() * r.arity())
                .sum::<usize>()
    }

    /// Access a relation's tuple set.
    #[inline]
    pub fn relation(&self, id: RelId) -> &Relation {
        &self.relations[id.index()]
    }

    /// Membership of a fact, by binary search (`O(k log m)`).
    ///
    /// For the paper's constant-time fact test (Corollary 2.2) use
    /// `lowdeg-index::FactIndex`.
    pub fn holds(&self, id: RelId, t: &[Node]) -> bool {
        self.relations[id.index()].contains(t)
    }

    /// The structure's Gaifman graph (built on first call, then cached).
    /// The first build runs on a pool sized by `LOWDEG_THREADS`; use
    /// [`Structure::gaifman_with`] for an explicit configuration.
    pub fn gaifman(&self) -> &GaifmanGraph {
        // Fast path first: resolving the worker configuration costs an
        // environment read plus an `available_parallelism` syscall, which
        // dwarfs the cached lookup (and sits on the hot path of every
        // `Dist`-atom evaluation).
        if let Some(g) = self.gaifman.get() {
            return g;
        }
        self.gaifman_with(&lowdeg_par::ParConfig::from_env())
    }

    /// As [`Structure::gaifman`], building (if not yet cached) on the given
    /// worker pool. The graph is identical for every thread count, so mixed
    /// callers still see one consistent cached value.
    pub fn gaifman_with(&self, par: &lowdeg_par::ParConfig) -> &GaifmanGraph {
        self.gaifman
            .get_or_init(|| GaifmanGraph::build_with(self, par))
    }

    /// Whether this instance's Gaifman graph has been built (diagnostics:
    /// lets tests check that a cached build never builds it).
    pub fn gaifman_built(&self) -> bool {
        self.gaifman.get().is_some()
    }

    /// A 64-bit content fingerprint: signature (names and arities), domain
    /// size and every relation tuple. Computed once and cached. Two
    /// structures with equal content always agree; distinct contents
    /// collide only with hash probability (callers using this as a cache
    /// key should cross-check results, as the conformance `cachecheck`
    /// oracle does).
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            // FxHash-style mixing: multiply by a high-entropy odd constant
            // and rotate. Deterministic across processes (no per-run seed).
            const K: u64 = 0x517c_c1b7_2722_0a95;
            let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
            let mut mix = |v: u64| h = (h.rotate_left(5) ^ v).wrapping_mul(K);
            mix(self.n as u64);
            mix(self.signature.len() as u64);
            for rel in self.signature.rel_ids() {
                mix(self.signature.arity(rel) as u64);
                for b in self.signature.name(rel).bytes() {
                    mix(b as u64);
                }
                let r = &self.relations[rel.index()];
                mix(r.len() as u64);
                for &c in r.as_flat() {
                    mix(c.0 as u64);
                }
            }
            h
        })
    }

    /// Per-node fact incidence lists (built on first call, then cached).
    pub(crate) fn incidence(&self) -> &Incidence {
        self.incidence.get_or_init(|| Incidence::build(self))
    }

    /// `degree(A)`: the maximum degree of the Gaifman graph.
    pub fn degree(&self) -> usize {
        self.gaifman().max_degree()
    }

    /// The induced substructure on `nodes` (which need not be sorted but must
    /// be duplicate-free), together with the mapping back to this structure.
    ///
    /// A fact survives iff *all* its components lie in `nodes`.
    pub fn induced(&self, nodes: &[Node]) -> Neighborhood {
        Neighborhood::build(self, nodes)
    }

    /// The r-neighborhood `𝒩_r(a)` around `a` (Section 2.5): the induced
    /// substructure on the r-ball `N_r(a)`.
    pub fn neighborhood(&self, a: Node, r: usize) -> Neighborhood {
        let ball = self.gaifman().ball(a, r);
        self.induced(&ball)
    }

    /// The joint r-neighborhood around a tuple: induced substructure on
    /// `⋃_i N_r(a_i)`.
    pub fn neighborhood_of_tuple(&self, tuple: &[Node], r: usize) -> Neighborhood {
        let ball = crate::neighborhood::ball_of_tuple(self.gaifman(), tuple, r);
        self.induced(&ball)
    }

    /// An exact memoization key for [`Structure::neighborhood_of_tuple`],
    /// written into `out`: tuples with equal keys have literally identical
    /// relabeled r-neighborhoods (same local structure, same local tuple),
    /// hence identical canonical encodings — without building the
    /// neighborhood. The key is a head `[|ball|, local tuple…]` followed by
    /// a tail of relabeled fact records ([`crate::KeyFacts`] decodes it),
    /// so it is also the flat input of canonical typing, and the whole
    /// description of the neighborhood a type is read from.
    pub fn neighborhood_key_of_tuple(&self, tuple: &[Node], r: usize, out: &mut Vec<u32>) {
        let ball = crate::neighborhood::ball_of_tuple(self.gaifman(), tuple, r);
        crate::neighborhood::local_key(self, &ball, tuple, out);
    }

    /// As [`Structure::neighborhood_key_of_tuple`], with the ball supplied
    /// by the caller. `members` must be the sorted, duplicate-free r-ball
    /// of the tuple (every tuple component a member). Lets batch callers
    /// that group tuples by element set compute the ball — and the
    /// set-invariant tail of the key — once per group instead of once per
    /// tuple.
    pub fn neighborhood_key_with_members(
        &self,
        members: &[Node],
        tuple: &[Node],
        out: &mut Vec<u32>,
    ) {
        crate::neighborhood::local_key(self, members, tuple, out);
    }
}

impl PartialEq for Structure {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && *self.signature == *other.signature
            && self.relations == other.relations
    }
}
impl Eq for Structure {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node;

    fn path_graph(n: usize) -> Structure {
        // 0 - 1 - 2 - ... - (n-1)
        let sig = Arc::new(Signature::new(&[("E", 2)]));
        let mut b = Structure::builder(sig.clone(), n);
        let e = sig.rel("E").unwrap();
        for i in 0..n - 1 {
            b.fact(e, &[node(i as u32), node(i as u32 + 1)]).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn size_formula() {
        let s = path_graph(5);
        // |σ|=1, n=5, one binary relation with 4 tuples → 1+5+8 = 14
        assert_eq!(s.size(), 14);
        assert_eq!(s.cardinality(), 5);
    }

    #[test]
    fn holds_checks_membership() {
        let s = path_graph(4);
        let e = s.signature().rel("E").unwrap();
        assert!(s.holds(e, &[node(1), node(2)]));
        assert!(!s.holds(e, &[node(2), node(1)]));
    }

    #[test]
    fn path_degree_is_two() {
        let s = path_graph(6);
        assert_eq!(s.degree(), 2);
    }

    #[test]
    fn neighborhood_of_path_center() {
        let s = path_graph(7);
        let nb = s.neighborhood(node(3), 2);
        // ball = {1,2,3,4,5}
        assert_eq!(nb.structure().cardinality(), 5);
        let e = s.signature().rel("E").unwrap();
        // induced edges: (1,2),(2,3),(3,4),(4,5)
        assert_eq!(nb.structure().relation(e).len(), 4);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = path_graph(5);
        let b = path_graph(5);
        let c = path_graph(6);
        assert_eq!(a.fingerprint(), b.fingerprint(), "equal content, equal fp");
        assert_ne!(a.fingerprint(), c.fingerprint(), "different content");
        // cached: second call returns the same value
        assert_eq!(a.fingerprint(), a.fingerprint());
    }

    #[test]
    fn domain_iteration_in_order() {
        let s = path_graph(3);
        let d: Vec<_> = s.domain().collect();
        assert_eq!(d, vec![node(0), node(1), node(2)]);
    }
}
