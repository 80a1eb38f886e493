//! Fallible builder for [`Structure`].

use crate::signature::{RelId, Signature};
use crate::{Node, Relation, StorageError, Structure};
use std::sync::Arc;

/// Accumulates facts and validates them against the signature and domain.
#[derive(Clone, Debug)]
pub struct StructureBuilder {
    signature: Arc<Signature>,
    n: usize,
    tuples: Vec<Vec<Vec<Node>>>,
    /// Bulk-inserted pairs for binary relations (kept flat to avoid a
    /// per-tuple allocation on multi-million-edge relations).
    pairs: Vec<Vec<(Node, Node)>>,
    /// Relations adopted whole through the pre-sorted bulk paths
    /// ([`Self::bulk_sorted`] / [`Self::bulk_unary_sorted`]);
    /// [`Self::finish`] passes them through without re-sorting.
    prebuilt: Vec<Option<Relation>>,
}

impl StructureBuilder {
    pub(crate) fn new(signature: Arc<Signature>, n: usize) -> Self {
        let tuples = vec![Vec::new(); signature.len()];
        let pairs = vec![Vec::new(); signature.len()];
        let prebuilt = vec![None; signature.len()];
        StructureBuilder {
            signature,
            n,
            tuples,
            pairs,
            prebuilt,
        }
    }

    /// Add the fact `R(t)`.
    pub fn fact(&mut self, rel: RelId, t: &[Node]) -> Result<&mut Self, StorageError> {
        let arity = self.signature.arity(rel);
        if t.len() != arity {
            return Err(StorageError::ArityMismatch {
                relation: self.signature.name(rel).to_owned(),
                expected: arity,
                got: t.len(),
            });
        }
        for &nd in t {
            if nd.index() >= self.n {
                return Err(StorageError::NodeOutOfRange {
                    node: nd.0,
                    domain: self.n,
                });
            }
        }
        self.tuples[rel.index()].push(t.to_vec());
        Ok(self)
    }

    /// Add the fact `R(t)` resolving `R` by name.
    pub fn fact_named(&mut self, rel: &str, t: &[Node]) -> Result<&mut Self, StorageError> {
        let id = self.signature.require(rel)?;
        self.fact(id, t)
    }

    /// Convenience for binary relations: add `R(a, b)`.
    pub fn edge(&mut self, rel: RelId, a: Node, b: Node) -> Result<&mut Self, StorageError> {
        self.fact(rel, &[a, b])
    }

    /// Convenience for symmetric binary relations: add both `R(a,b)` and
    /// `R(b,a)`.
    pub fn undirected_edge(
        &mut self,
        rel: RelId,
        a: Node,
        b: Node,
    ) -> Result<&mut Self, StorageError> {
        self.fact(rel, &[a, b])?;
        self.fact(rel, &[b, a])
    }

    /// Bulk-add facts to a *binary* relation without per-tuple allocation.
    /// Node ranges are validated; duplicates collapse at [`Self::finish`].
    pub fn bulk_binary(
        &mut self,
        rel: RelId,
        mut new_pairs: Vec<(Node, Node)>,
    ) -> Result<&mut Self, StorageError> {
        if self.signature.arity(rel) != 2 {
            return Err(StorageError::ArityMismatch {
                relation: self.signature.name(rel).to_owned(),
                expected: self.signature.arity(rel),
                got: 2,
            });
        }
        for &(a, b) in &new_pairs {
            for nd in [a, b] {
                if nd.index() >= self.n {
                    return Err(StorageError::NodeOutOfRange {
                        node: nd.0,
                        domain: self.n,
                    });
                }
            }
        }
        let store = &mut self.pairs[rel.index()];
        if store.is_empty() {
            *store = new_pairs;
        } else {
            store.append(&mut new_pairs);
        }
        Ok(self)
    }

    /// Adopt `flat` — row-major tuples already in **strictly increasing**
    /// lexicographic order — as the whole content of relation `rel`.
    /// Validation is a single `O(len)` pass (node ranges + strictness);
    /// [`Self::finish`] then skips the sort/dedup entirely. The bulk
    /// endpoint for producers whose output is sorted by construction, e.g.
    /// the reduction's per-shard colour streams.
    pub fn bulk_sorted(&mut self, rel: RelId, flat: Vec<Node>) -> Result<&mut Self, StorageError> {
        let arity = self.signature.arity(rel);
        if !flat.len().is_multiple_of(arity) {
            return Err(StorageError::ArityMismatch {
                relation: self.signature.name(rel).to_owned(),
                expected: arity,
                got: flat.len() % arity,
            });
        }
        let mut prev: Option<&[Node]> = None;
        for (row, t) in flat.chunks_exact(arity).enumerate() {
            for &nd in t {
                if nd.index() >= self.n {
                    return Err(StorageError::NodeOutOfRange {
                        node: nd.0,
                        domain: self.n,
                    });
                }
            }
            if let Some(p) = prev {
                if p >= t {
                    return Err(StorageError::NotSorted {
                        relation: self.signature.name(rel).to_owned(),
                        row,
                    });
                }
            }
            prev = Some(t);
        }
        self.prebuilt[rel.index()] = Some(Relation::from_sorted_flat(arity, flat));
        Ok(self)
    }

    /// [`Self::bulk_sorted`] for unary relations: adopt a strictly
    /// increasing node list.
    pub fn bulk_unary_sorted(
        &mut self,
        rel: RelId,
        nodes: Vec<Node>,
    ) -> Result<&mut Self, StorageError> {
        if self.signature.arity(rel) != 1 {
            return Err(StorageError::ArityMismatch {
                relation: self.signature.name(rel).to_owned(),
                expected: self.signature.arity(rel),
                got: 1,
            });
        }
        self.bulk_sorted(rel, nodes)
    }

    /// Finalize: sorts and deduplicates every relation.
    pub fn finish(self) -> Result<Structure, StorageError> {
        if self.n == 0 {
            return Err(StorageError::EmptyDomain);
        }
        let relations = self
            .signature
            .rel_ids()
            .zip(self.tuples.into_iter().zip(self.pairs).zip(self.prebuilt))
            .map(|(id, ((ts, ps), pre))| {
                match pre {
                    // Pre-sorted bulk insert with nothing else on the
                    // relation: adopt as-is, no re-sort.
                    Some(rel) if ts.is_empty() && ps.is_empty() => rel,
                    // Mixed with incremental facts: merge through the
                    // sorting path.
                    Some(rel) => {
                        let mut all = ts;
                        all.extend(rel.iter().map(|t| t.to_vec()));
                        all.extend(ps.into_iter().map(|(a, b)| vec![a, b]));
                        Relation::from_tuples(self.signature.arity(id), all)
                    }
                    None if ts.is_empty() && self.signature.arity(id) == 2 => {
                        Relation::from_pairs(ps)
                    }
                    None => {
                        let mut all = ts;
                        all.extend(ps.into_iter().map(|(a, b)| vec![a, b]));
                        Relation::from_tuples(self.signature.arity(id), all)
                    }
                }
            })
            .collect();
        Ok(Structure::from_parts(self.signature, self.n, relations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node;

    fn sig() -> Arc<Signature> {
        Arc::new(Signature::new(&[("E", 2), ("B", 1)]))
    }

    #[test]
    fn rejects_arity_mismatch() {
        let sig = sig();
        let e = sig.rel("E").unwrap();
        let mut b = Structure::builder(sig, 3);
        let err = b.fact(e, &[node(0)]).unwrap_err();
        assert!(matches!(err, StorageError::ArityMismatch { .. }));
    }

    #[test]
    fn rejects_out_of_range_node() {
        let sig = sig();
        let e = sig.rel("E").unwrap();
        let mut b = Structure::builder(sig, 3);
        let err = b.fact(e, &[node(0), node(3)]).unwrap_err();
        assert_eq!(err, StorageError::NodeOutOfRange { node: 3, domain: 3 });
    }

    #[test]
    fn rejects_empty_domain() {
        let b = Structure::builder(sig(), 0);
        assert_eq!(b.finish().unwrap_err(), StorageError::EmptyDomain);
    }

    #[test]
    fn fact_named_resolves() {
        let mut b = Structure::builder(sig(), 2);
        b.fact_named("B", &[node(1)]).unwrap();
        assert!(b.fact_named("Z", &[node(0)]).is_err());
        let s = b.finish().unwrap();
        let bid = s.signature().rel("B").unwrap();
        assert!(s.holds(bid, &[node(1)]));
    }

    #[test]
    fn undirected_edge_adds_both() {
        let sg = sig();
        let e = sg.rel("E").unwrap();
        let mut b = Structure::builder(sg, 4);
        b.undirected_edge(e, node(1), node(2)).unwrap();
        let s = b.finish().unwrap();
        assert!(s.holds(e, &[node(1), node(2)]));
        assert!(s.holds(e, &[node(2), node(1)]));
    }

    #[test]
    fn bulk_binary_path() {
        let sg = sig();
        let e = sg.rel("E").unwrap();
        let b_ = sg.rel("B").unwrap();
        let mut b = Structure::builder(sg, 5);
        b.bulk_binary(
            e,
            vec![(node(0), node(1)), (node(1), node(2)), (node(0), node(1))],
        )
        .unwrap();
        let s = b.finish().unwrap();
        assert_eq!(s.relation(e).len(), 2);
        assert!(s.holds(e, &[node(1), node(2)]));

        // mixing bulk and per-fact inserts on the same relation
        let sg2 = sig();
        let e2 = sg2.rel("E").unwrap();
        let mut b2 = Structure::builder(sg2, 5);
        b2.edge(e2, node(3), node(4)).unwrap();
        b2.bulk_binary(e2, vec![(node(0), node(1))]).unwrap();
        let s2 = b2.finish().unwrap();
        assert_eq!(s2.relation(e2).len(), 2);
        let _ = b_;
    }

    #[test]
    fn bulk_binary_validates() {
        let sg = sig();
        let e = sg.rel("E").unwrap();
        let b_ = sg.rel("B").unwrap();
        let mut b = Structure::builder(sg, 3);
        assert!(b.bulk_binary(b_, vec![]).is_err()); // unary relation
        assert!(b.bulk_binary(e, vec![(node(0), node(9))]).is_err());
    }

    #[test]
    fn bulk_sorted_pass_through() {
        let sg = sig();
        let e = sg.rel("E").unwrap();
        let b_ = sg.rel("B").unwrap();
        let mut b = Structure::builder(sg, 6);
        b.bulk_sorted(
            e,
            vec![node(0), node(2), node(1), node(0), node(1), node(5)],
        )
        .unwrap();
        b.bulk_unary_sorted(b_, vec![node(1), node(4)]).unwrap();
        let s = b.finish().unwrap();
        assert_eq!(s.relation(e).len(), 3);
        assert!(s.holds(e, &[node(1), node(0)]));
        assert!(!s.holds(e, &[node(0), node(1)]));
        assert_eq!(s.relation(b_).len(), 2);
        assert!(s.holds(b_, &[node(4)]));
    }

    #[test]
    fn bulk_sorted_rejects_disorder_and_bad_nodes() {
        let sg = sig();
        let e = sg.rel("E").unwrap();
        let b_ = sg.rel("B").unwrap();
        let mut b = Structure::builder(sg, 4);
        // duplicate row → not strictly increasing
        let err = b.bulk_unary_sorted(b_, vec![node(1), node(1)]).unwrap_err();
        assert!(matches!(err, StorageError::NotSorted { row: 1, .. }));
        // descending rows
        let err = b.bulk_unary_sorted(b_, vec![node(2), node(0)]).unwrap_err();
        assert!(matches!(err, StorageError::NotSorted { row: 1, .. }));
        // out-of-range node
        let err = b.bulk_unary_sorted(b_, vec![node(0), node(9)]).unwrap_err();
        assert!(matches!(err, StorageError::NodeOutOfRange { node: 9, .. }));
        // wrong-arity relation
        assert!(b.bulk_unary_sorted(e, vec![]).is_err());
        // dangling flat length
        let err = b.bulk_sorted(e, vec![node(0)]).unwrap_err();
        assert!(matches!(err, StorageError::ArityMismatch { .. }));
    }

    #[test]
    fn bulk_sorted_merges_with_incremental_facts() {
        let sg = sig();
        let b_ = sg.rel("B").unwrap();
        let mut b = Structure::builder(sg, 5);
        b.fact(b_, &[node(4)]).unwrap();
        b.bulk_unary_sorted(b_, vec![node(0), node(2)]).unwrap();
        b.fact(b_, &[node(0)]).unwrap(); // duplicate
        let s = b.finish().unwrap();
        assert_eq!(s.relation(b_).len(), 3);
        assert!(s.holds(b_, &[node(4)]));
        assert!(s.holds(b_, &[node(2)]));
    }

    #[test]
    fn duplicate_facts_collapse() {
        let sg = sig();
        let e = sg.rel("E").unwrap();
        let mut b = Structure::builder(sg, 4);
        b.edge(e, node(0), node(1)).unwrap();
        b.edge(e, node(0), node(1)).unwrap();
        let s = b.finish().unwrap();
        assert_eq!(s.relation(e).len(), 1);
    }
}
