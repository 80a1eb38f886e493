//! Induced substructures and r-neighborhoods with back-mappings.

use crate::gaifman::GaifmanGraph;
use crate::signature::{RelId, Signature};
use crate::{Node, Relation, Structure};
use std::sync::Arc;

/// An induced substructure `A|S` together with the embedding of its domain
/// back into the parent structure.
///
/// Local nodes are `0..|S|`, ordered consistently with the parent's linear
/// order, so lexicographic enumeration inside a neighborhood agrees with the
/// global order — which the enumeration algorithms rely on.
#[derive(Clone, Debug)]
pub struct Neighborhood {
    structure: Structure,
    /// `to_parent[local.index()]` is the parent node; sorted ascending.
    to_parent: Vec<Node>,
}

impl Neighborhood {
    pub(crate) fn build(parent: &Structure, nodes: &[Node]) -> Self {
        let mut members: Vec<Node> = nodes.to_vec();
        members.sort_unstable();
        members.dedup();
        let mut key: Vec<u32> = Vec::new();
        local_key(parent, &members, &[], &mut key);
        let structure = structure_from_key(parent.signature(), members.len(), &key[1..]);
        Neighborhood {
            structure,
            to_parent: members,
        }
    }

    /// The induced substructure itself (domain `0..len`).
    #[inline]
    pub fn structure(&self) -> &Structure {
        &self.structure
    }

    /// Map a local node to its parent node.
    #[inline]
    pub fn to_parent(&self, local: Node) -> Node {
        self.to_parent[local.index()]
    }

    /// Map a parent node into this neighborhood, when it is a member.
    pub fn to_local(&self, parent: Node) -> Option<Node> {
        self.to_parent
            .binary_search(&parent)
            .ok()
            .map(|i| Node(i as u32))
    }

    /// Map a whole tuple of parent nodes; `None` when any component is
    /// outside the neighborhood.
    pub fn tuple_to_local(&self, parents: &[Node]) -> Option<Vec<Node>> {
        parents.iter().map(|&p| self.to_local(p)).collect()
    }

    /// Map a whole tuple of local nodes back to the parent.
    pub fn tuple_to_parent(&self, locals: &[Node]) -> Vec<Node> {
        locals.iter().map(|&l| self.to_parent(l)).collect()
    }

    /// The parent nodes covered by this neighborhood, sorted.
    #[inline]
    pub fn members(&self) -> &[Node] {
        &self.to_parent
    }
}

/// Separator in serialized neighborhood keys ([`local_key`]).
const KEY_SEP: u32 = u32::MAX;

/// A cheap, exact fingerprint of the induced substructure `A|members`
/// together with a distinguished tuple, serialized into `out`.
///
/// Layout: a *head* `[|members|, local ranks of the tuple…]` followed by a
/// *tail* `[SEP, non-unary fact records…, SEP, unary fact records…]`,
/// where a record is `[relation id, local ranks of its components…]` and
/// the relation's arity delimits it. Ranks come from the order-preserving
/// bijection `members → 0..|members|`, so each relation's records appear
/// in strictly increasing lexicographic order — the order its `Relation`
/// stores them in. The key therefore holds exactly the induced structure
/// and the local tuple: **equal keys mean literally identical
/// neighborhoods and local tuples** (hence identical canonical types), and
/// [`structure_from_key`] rebuilds the structure from the tail alone — it
/// is how [`Neighborhood::build`] constructs every induced substructure.
///
/// `members` must be sorted and duplicate-free, and every tuple component
/// must be a member.
pub(crate) fn local_key(parent: &Structure, members: &[Node], tuple: &[Node], out: &mut Vec<u32>) {
    debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
    let local_of = |p: Node| -> u32 {
        members
            .binary_search(&p)
            .expect("tuple component is a member") as u32
    };
    out.clear();
    out.push(members.len() as u32);
    out.extend(tuple.iter().map(|&c| local_of(c)));
    out.push(KEY_SEP);

    // Internal non-unary facts in (relation, fact-index) order: within a
    // relation the parent's tuples are sorted, and relabeling is monotone.
    let incidence = parent.incidence();
    let mut fact_ids: Vec<(u32, u32)> = Vec::new();
    for &m in members {
        fact_ids.extend_from_slice(incidence.facts_of(m));
    }
    fact_ids.sort_unstable();
    fact_ids.dedup();
    'facts: for (rel_raw, idx) in fact_ids {
        let t = parent.relation(RelId(rel_raw)).tuple(idx as usize);
        let start = out.len();
        out.push(rel_raw);
        for &c in t {
            match members.binary_search(&c) {
                Ok(l) => out.push(l as u32),
                Err(_) => {
                    out.truncate(start);
                    continue 'facts;
                }
            }
        }
    }
    out.push(KEY_SEP);

    // Unary facts on member nodes, relation-major then member order.
    for rel in parent.signature().rel_ids() {
        if parent.signature().arity(rel) != 1 {
            continue;
        }
        let r = parent.relation(rel);
        for (li, &m) in members.iter().enumerate() {
            if r.contains(&[m]) {
                out.push(rel.0);
                out.push(li as u32);
            }
        }
    }
}

/// The fact records of a neighborhood key's tail `[SEP, non-unary
/// records…, SEP, unary records…]`, each record `[relation id, local
/// components…]` delimited by the relation's arity, as `(relation, local
/// components)` in key order: every relation's records strictly increasing.
#[derive(Clone, Debug)]
pub struct KeyFacts<'a> {
    signature: &'a Signature,
    tail: &'a [u32],
}

impl<'a> KeyFacts<'a> {
    /// Decode `tail`, the part of a key from
    /// [`Structure::neighborhood_key_of_tuple`] after its head
    /// `[|members|, local tuple…]`, under the parent's signature.
    pub fn new(signature: &'a Signature, tail: &'a [u32]) -> Self {
        KeyFacts { signature, tail }
    }
}

impl<'a> Iterator for KeyFacts<'a> {
    type Item = (RelId, &'a [u32]);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (&w, rest) = self.tail.split_first()?;
            if w == KEY_SEP {
                self.tail = rest;
                continue;
            }
            let rel = RelId(w);
            let (ids, rest) = rest.split_at(self.signature.arity(rel));
            self.tail = rest;
            return Some((rel, ids));
        }
    }
}

/// The structure on domain `0..n` whose facts are a key tail's records:
/// one exactly sized flat buffer per relation, adopted pre-sorted. The one
/// induced-substructure constructor — [`Neighborhood::build`] and
/// [`Structure::neighborhood_from_key`] both end here.
pub(crate) fn structure_from_key(signature: &Arc<Signature>, n: usize, tail: &[u32]) -> Structure {
    let mut sizes = vec![0usize; signature.len()];
    for (rel, ids) in KeyFacts::new(signature, tail) {
        sizes[rel.index()] += ids.len();
    }
    let mut data: Vec<Vec<Node>> = sizes.into_iter().map(Vec::with_capacity).collect();
    for (rel, ids) in KeyFacts::new(signature, tail) {
        data[rel.index()].extend(ids.iter().map(|&l| Node(l)));
    }
    let relations: Vec<Relation> = signature
        .rel_ids()
        .zip(data)
        .map(|(id, flat)| Relation::from_sorted_flat(signature.arity(id), flat))
        .collect();
    Structure::from_parts(signature.clone(), n, relations)
}

/// The r-ball around a tuple: `⋃_i N_r(a_i)`, sorted and duplicate-free.
pub fn ball_of_tuple(graph: &GaifmanGraph, tuple: &[Node], r: usize) -> Vec<Node> {
    let mut out: Vec<Node> = Vec::new();
    for &a in tuple {
        out.extend(graph.ball_unsorted(a, r));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Per-node incidence lists: which facts mention a node. Used to build
/// induced substructures in time proportional to the neighborhood, not the
/// whole database.
#[derive(Clone, Debug)]
pub(crate) struct Incidence {
    offsets: Vec<u32>,
    /// `(relation id, tuple index)` pairs, grouped by node.
    facts: Vec<(u32, u32)>,
}

impl Incidence {
    pub(crate) fn build(structure: &Structure) -> Self {
        let n = structure.cardinality();
        let mut pairs: Vec<(Node, (u32, u32))> = Vec::new();
        for rel in structure.signature().rel_ids() {
            let r = structure.relation(rel);
            if r.arity() < 2 {
                continue; // unary facts handled by direct lookup
            }
            for (i, t) in r.iter().enumerate() {
                for &c in t {
                    pairs.push((c, (rel.0, i as u32)));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut offsets = vec![0u32; n + 1];
        for &(a, _) in &pairs {
            offsets[a.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let facts = pairs.into_iter().map(|(_, f)| f).collect();
        Incidence { offsets, facts }
    }

    #[inline]
    pub(crate) fn facts_of(&self, a: Node) -> &[(u32, u32)] {
        let lo = self.offsets[a.index()] as usize;
        let hi = self.offsets[a.index() + 1] as usize;
        &self.facts[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{node, Signature};
    use std::sync::Arc;

    fn colored_path() -> Structure {
        // 0-1-2-3-4 with B={0,2}, R={4}
        let sig = Arc::new(Signature::new(&[("E", 2), ("B", 1), ("R", 1)]));
        let e = sig.rel("E").unwrap();
        let b_ = sig.rel("B").unwrap();
        let r_ = sig.rel("R").unwrap();
        let mut b = Structure::builder(sig, 5);
        for i in 0..4u32 {
            b.edge(e, node(i), node(i + 1)).unwrap();
        }
        b.fact(b_, &[node(0)]).unwrap();
        b.fact(b_, &[node(2)]).unwrap();
        b.fact(r_, &[node(4)]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn induced_keeps_internal_facts_only() {
        let s = colored_path();
        let nb = s.induced(&[node(1), node(2), node(3)]);
        let e = s.signature().rel("E").unwrap();
        // edges (1,2),(2,3) survive; (0,1),(3,4) do not
        assert_eq!(nb.structure().relation(e).len(), 2);
        let b_ = s.signature().rel("B").unwrap();
        // B = {2} locally
        assert_eq!(nb.structure().relation(b_).len(), 1);
        let local2 = nb.to_local(node(2)).unwrap();
        assert!(nb.structure().holds(b_, &[local2]));
    }

    #[test]
    fn mapping_roundtrip() {
        let s = colored_path();
        let nb = s.induced(&[node(3), node(1)]);
        assert_eq!(nb.members(), &[node(1), node(3)]);
        for local in nb.structure().domain() {
            assert_eq!(nb.to_local(nb.to_parent(local)), Some(local));
        }
        assert_eq!(nb.to_local(node(0)), None);
        assert_eq!(
            nb.tuple_to_local(&[node(1), node(3)]),
            Some(vec![node(0), node(1)])
        );
        assert_eq!(nb.tuple_to_local(&[node(1), node(4)]), None);
    }

    #[test]
    fn ball_of_tuple_unions() {
        let s = colored_path();
        let ball = ball_of_tuple(s.gaifman(), &[node(0), node(4)], 1);
        assert_eq!(ball, vec![node(0), node(1), node(3), node(4)]);
    }

    #[test]
    fn neighborhood_via_structure_api() {
        let s = colored_path();
        let nb = s.neighborhood_of_tuple(&[node(0), node(4)], 1);
        assert_eq!(nb.structure().cardinality(), 4);
        let e = s.signature().rel("E").unwrap();
        // induced edges: (0,1) and (3,4) → 2 facts
        assert_eq!(nb.structure().relation(e).len(), 2);
    }

    /// Edges, a ternary relation with repeated components and two unary
    /// relations over 0..8.
    fn mixed_arity() -> Structure {
        let sig = Arc::new(Signature::new(&[("B", 1), ("E", 2), ("T", 3), ("R", 1)]));
        let rel = |name| sig.rel(name).unwrap();
        let mut b = Structure::builder(sig.clone(), 8);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 3), (4, 5), (6, 5), (7, 0)] {
            b.fact(rel("E"), &[node(u), node(v)]).unwrap();
        }
        for t in [[0, 1, 2], [2, 2, 5], [5, 4, 6], [7, 7, 7], [1, 0, 3]] {
            b.fact(rel("T"), &t.map(node)).unwrap();
        }
        for v in [0, 3, 5] {
            b.fact(rel("B"), &[node(v)]).unwrap();
        }
        for v in [1, 5, 7] {
            b.fact(rel("R"), &[node(v)]).unwrap();
        }
        b.finish().unwrap()
    }

    /// The induced substructure the direct way: keep each fact whose
    /// components are all members, relabel, and let `from_tuples` sort.
    fn filtered(s: &Structure, members: &[Node]) -> Structure {
        let sig = s.signature();
        let relations = sig
            .rel_ids()
            .map(|r| {
                let kept = s
                    .relation(r)
                    .iter()
                    .filter_map(|t| {
                        t.iter()
                            .map(|c| members.binary_search(c).ok().map(|l| node(l as u32)))
                            .collect::<Option<Vec<Node>>>()
                    })
                    .collect();
                Relation::from_tuples(sig.arity(r), kept)
            })
            .collect();
        Structure::from_parts(sig.clone(), members.len(), relations)
    }

    #[test]
    fn induced_matches_direct_filter() {
        let s = mixed_arity();
        for mask in 0u32..256 {
            let members: Vec<Node> = (0..8).filter(|i| mask >> i & 1 == 1).map(node).collect();
            assert_eq!(
                s.induced(&members).structure(),
                &filtered(&s, &members),
                "{mask:08b}"
            );
        }
    }

    #[test]
    fn neighborhood_from_key_rebuilds_the_neighborhood() {
        let s = mixed_arity();
        let mut key = Vec::new();
        for t in [
            vec![node(0)],
            vec![node(5), node(2)],
            vec![node(7), node(7), node(3)],
        ] {
            for r in 0..3 {
                s.neighborhood_key_of_tuple(&t, r, &mut key);
                let (head, tail) = key.split_at(1 + t.len());
                let (rep, local) = s.neighborhood_from_key(head, tail);
                let nb = s.neighborhood_of_tuple(&t, r);
                assert_eq!(&rep, nb.structure());
                assert_eq!(Some(local), nb.tuple_to_local(&t));
                let facts: usize = KeyFacts::new(s.signature(), tail).count();
                let stored: usize = s.signature().rel_ids().map(|r| rep.relation(r).len()).sum();
                assert_eq!(facts, stored, "one key record per fact");
            }
        }
    }

    #[test]
    fn local_order_respects_parent_order() {
        let s = colored_path();
        let nb = s.induced(&[node(4), node(0), node(2)]);
        assert_eq!(nb.members(), &[node(0), node(2), node(4)]);
        assert_eq!(nb.to_parent(node(0)), node(0));
        assert_eq!(nb.to_parent(node(1)), node(2));
        assert_eq!(nb.to_parent(node(2)), node(4));
    }
}
