//! Canonical forms of small structures with distinguished tuples.
//!
//! The reduction of Proposition 3.3 colors each cluster vertex `v_(b̄,ι)`
//! with unary predicates `C_{P,j,t}` obtained from the Feferman–Vaught
//! decomposition. We realize those predicates *semantically*: the color of a
//! cluster is the **isomorphism type of its neighborhood with the cluster
//! tuple distinguished** — a strictly finer invariant than any FO type, so
//! every FV predicate is a union of our types (DESIGN.md §3).
//!
//! # One canonicalizer over a flat shape
//!
//! A [`Canonicalizer`] works on a flat local shape held in reusable
//! buffers: a domain `0..n`, the distinguished local ids, and the facts as
//! `(relation, local ids)` records. The reduction fills it straight from
//! the exact neighborhood key ([`Canonicalizer::encode_key`]), so no
//! neighborhood `Structure` is built to type a cluster tuple;
//! [`canonical_encoding`] serializes a `Structure` into the same shape.
//!
//! # Hashed refinement, exact leaves
//!
//! 1. Initial colors rank the nodes by their first position in the
//!    distinguished tuple (non-distinguished nodes last).
//! 2. Each refinement round gives a node the key `(old color, Σ mix(rel,
//!    pos, colors of the fact))`, the wrapping sum running over every fact
//!    (unary ones included) the node occurs in, at position `pos`. Nodes
//!    are re-ranked densely by key until the number of cells stops growing.
//! 3. While a cell has several members, each member of the first
//!    (lowest-colored) such cell is individualized in turn and the search
//!    recurses.
//! 4. A discrete coloring is a labeling; its leaf is encoded exactly as
//!    `u32` words — `n`, the distinguished tuple's labels, the fact count
//!    and the fact records `(rel, arity, labels…)` sorted — with no size or
//!    arity limit. The least leaf over the whole search is the encoding.
//!
//! **Soundness.** Every step is equivariant: the initial key, `mix` (a
//! fixed function of relation, position and colors), the commutative sum,
//! the dense re-ranking, the choice of the first non-singleton cell and
//! individualization all commute with an isomorphism that fixes the tuple
//! pointwise. So isomorphic inputs have search trees that are images of
//! each other, the same set of leaf encodings and the same minimum. A
//! collision — in `mix` or in the sum — only makes two nodes share a key an
//! exact refinement would separate: the partition comes out coarser, but it
//! is still computed from isomorphism-invariant data, so equivariance holds
//! and individualization separates what refinement missed. In the other
//! direction a leaf is no hash: it lists the relabeled structure, so equal
//! encodings compose to an isomorphism fixing the tuple. Hence *equal
//! encoding ⇔ isomorphic with the tuple fixed pointwise* for every mixer;
//! a poor mixer costs search time, never correctness (the unit tests run
//! the canonicalizer with a constant one).
//!
//! Worst-case exponential (canonical labeling is not known to be
//! polynomial), but the inputs are `r`-neighborhoods of low-degree
//! structures — a handful of nodes — and refinement from the distinguished
//! tuple almost always discretizes at once, leaving a single leaf.

use lowdeg_index::FxHashMap;
use lowdeg_storage::{KeyFacts, Node, Signature, Structure};

/// Identifier of a canonical type within a [`TypeInterner`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TypeId(pub u32);

impl TypeId {
    /// Index form.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interns canonical encodings to dense [`TypeId`]s and remembers a
/// representative for each type (used to assemble representative structures
/// when deciding type-combination acceptance).
#[derive(Default, Debug)]
pub struct TypeInterner {
    map: FxHashMap<Vec<u32>, TypeId>,
    /// A representative `(structure, distinguished)` per type.
    representatives: Vec<(Structure, Vec<Node>)>,
}

impl TypeInterner {
    /// Empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct types seen.
    pub fn len(&self) -> usize {
        self.representatives.len()
    }

    /// Whether no type has been interned.
    pub fn is_empty(&self) -> bool {
        self.representatives.is_empty()
    }

    /// Intern the type of `(structure, distinguished)`.
    pub fn intern(&mut self, structure: &Structure, distinguished: &[Node]) -> TypeId {
        let enc = canonical_encoding(structure, distinguished);
        self.intern_encoded(&enc, || (structure.clone(), distinguished.to_vec()))
    }

    /// Intern a precomputed canonical encoding; `make_rep` supplies the
    /// representative only when the type is new. This is the hook for
    /// parallel pipelines: encodings are computed concurrently (the
    /// expensive part), interning stays sequential and therefore assigns
    /// ids deterministically in call order.
    pub fn intern_encoded(
        &mut self,
        enc: &[u32],
        make_rep: impl FnOnce() -> (Structure, Vec<Node>),
    ) -> TypeId {
        if let Some(&id) = self.map.get(enc) {
            return id;
        }
        let id = TypeId(self.representatives.len() as u32);
        self.map.insert(enc.to_vec(), id);
        self.representatives.push(make_rep());
        id
    }

    /// The stored representative of a type.
    pub fn representative(&self, id: TypeId) -> (&Structure, &[Node]) {
        let (s, d) = &self.representatives[id.index()];
        (s, d)
    }
}

/// The canonical encoding of a structure with a distinguished tuple: two
/// inputs get equal encodings **iff** there is an isomorphism between them
/// mapping the distinguished tuples pointwise. A thin adapter that
/// serializes the structure into a [`Canonicalizer`]'s flat shape.
pub fn canonical_encoding(structure: &Structure, distinguished: &[Node]) -> Vec<u32> {
    let mut canon = Canonicalizer::new();
    canon.load_structure(structure, distinguished);
    let mut out = Vec::new();
    canon.encode(mix_signal, &mut out);
    out
}

/// The refinement's signal mixer: a fact's contribution to the signal of
/// the node at position `pos`, from its relation and component colors.
type Mixer = fn(u32, u32, &[u32]) -> u64;

/// FxHash-style mixing with a splitmix64 finalizer, so that the wrapping
/// sums of signals do not cancel along structured inputs.
fn mix_signal(rel: u32, pos: u32, colors: &[u32]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = ((u64::from(rel) << 32) | u64::from(pos)).wrapping_mul(K);
    for &c in colors {
        h = (h.rotate_left(5) ^ u64::from(c)).wrapping_mul(K);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Canonical labeling of small structures with a distinguished tuple, over
/// a flat shape in reusable buffers (see the module docs). Keep one per
/// worker: after warm-up an encoding allocates nothing.
#[derive(Default, Debug)]
pub struct Canonicalizer {
    /// The shape: domain `0..n`, distinguished ids, fact records as a CSR
    /// (`fact_rel[f]`, components `fact_ids[fact_off[f]..fact_off[f + 1]]`).
    n: usize,
    distinguished: Vec<u32>,
    fact_rel: Vec<u32>,
    fact_off: Vec<u32>,
    fact_ids: Vec<u32>,
    /// One coloring of `n` slots per search level.
    stack: Vec<u32>,
    /// Per-node refinement signal (also the initial ranking key).
    acc: Vec<u64>,
    order: Vec<u32>,
    fact_colors: Vec<u32>,
    /// The current leaf: relabeled components, sorted fact order, words.
    labeled: Vec<u32>,
    fact_order: Vec<u32>,
    leaf: Vec<u32>,
    best: Vec<u32>,
}

impl Canonicalizer {
    /// A canonicalizer with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the canonical encoding of the neighborhood and local tuple an
    /// exact key describes (`Structure::neighborhood_key_of_tuple`, split
    /// as `head ++ tail` with `head = [|ball|, local tuple…]`) to `out`.
    /// Equal to [`canonical_encoding`] of the neighborhood the key was
    /// computed from, without building it.
    pub fn encode_key(
        &mut self,
        signature: &Signature,
        head: &[u32],
        tail: &[u32],
        out: &mut Vec<u32>,
    ) {
        self.reset(head[0] as usize, head[1..].iter().copied());
        for (rel, ids) in KeyFacts::new(signature, tail) {
            self.push_fact(rel.0, ids.iter().copied());
        }
        self.encode(mix_signal, out);
    }

    fn load_structure(&mut self, structure: &Structure, distinguished: &[Node]) {
        self.reset(structure.cardinality(), distinguished.iter().map(|v| v.0));
        for rel in structure.signature().rel_ids() {
            for t in structure.relation(rel).iter() {
                self.push_fact(rel.0, t.iter().map(|v| v.0));
            }
        }
    }

    fn reset(&mut self, n: usize, distinguished: impl IntoIterator<Item = u32>) {
        self.n = n;
        self.distinguished.clear();
        self.distinguished.extend(distinguished);
        self.fact_rel.clear();
        self.fact_off.clear();
        self.fact_off.push(0);
        self.fact_ids.clear();
    }

    fn push_fact(&mut self, rel: u32, ids: impl IntoIterator<Item = u32>) {
        self.fact_rel.push(rel);
        self.fact_ids.extend(ids);
        self.fact_off.push(self.fact_ids.len() as u32);
    }

    /// Canonicalize the loaded shape with signal mixer `mix`; append the
    /// least leaf encoding to `out`.
    fn encode(&mut self, mix: Mixer, out: &mut Vec<u32>) {
        let n = self.n;
        self.stack.clear();
        self.stack.resize(n, 0);
        self.acc.clear();
        self.acc.resize(n, u64::MAX);
        for (p, &d) in self.distinguished.iter().enumerate().rev() {
            self.acc[d as usize] = p as u64;
        }
        let cells = self.rank(0);
        self.best.clear();
        self.search(0, cells, mix);
        out.extend_from_slice(&self.best);
    }

    /// Re-rank the coloring at `stack[base..base + n]` densely by the key
    /// `(color, acc)`, in place; returns the number of cells.
    fn rank(&mut self, base: usize) -> usize {
        let n = self.n;
        let colors = &mut self.stack[base..base + n];
        let acc = &self.acc;
        self.order.clear();
        self.order.extend(0..n as u32);
        self.order
            .sort_unstable_by_key(|&v| (colors[v as usize], acc[v as usize]));
        let mut cells = 0u32;
        let mut prev: Option<(u32, u64)> = None;
        for &v in &self.order {
            let v = v as usize;
            let key = (colors[v], acc[v]);
            if prev != Some(key) {
                prev = Some(key);
                cells += 1;
            }
            colors[v] = cells - 1;
        }
        cells as usize
    }

    /// Hashed color refinement of the coloring at `base` (with `cells`
    /// cells) to its fixpoint; returns the final cell count.
    fn refine(&mut self, base: usize, mut cells: usize, mix: Mixer) -> usize {
        let n = self.n;
        while cells < n {
            self.acc.clear();
            self.acc.resize(n, 0);
            let colors = &self.stack[base..base + n];
            for (f, &rel) in self.fact_rel.iter().enumerate() {
                let ids = &self.fact_ids[self.fact_off[f] as usize..self.fact_off[f + 1] as usize];
                self.fact_colors.clear();
                self.fact_colors
                    .extend(ids.iter().map(|&v| colors[v as usize]));
                for (pos, &v) in ids.iter().enumerate() {
                    let s = &mut self.acc[v as usize];
                    *s = s.wrapping_add(mix(rel, pos as u32, &self.fact_colors));
                }
            }
            let next = self.rank(base);
            if next == cells {
                break;
            }
            cells = next;
        }
        cells
    }

    /// Refine the coloring at search level `level`, then either record its
    /// leaf or branch over the members of the first non-singleton cell.
    fn search(&mut self, level: usize, cells: usize, mix: Mixer) {
        let n = self.n;
        let base = level * n;
        let cells = self.refine(base, cells, mix);
        if cells == n {
            self.leaf(base);
            return;
        }
        let size = &mut self.order;
        size.clear();
        size.resize(cells, 0);
        for &c in &self.stack[base..base + n] {
            size[c as usize] += 1;
        }
        let target = size
            .iter()
            .position(|&s| s > 1)
            .expect("a non-singleton cell") as u32;
        if self.stack.len() < base + 2 * n {
            self.stack.resize(base + 2 * n, 0);
        }
        for m in 0..n {
            if self.stack[base + m] != target {
                continue;
            }
            // individualize `m`: it keeps `target`, the rest of its cell
            // moves one up, every later cell shifts by one
            for v in 0..n {
                let c = self.stack[base + v];
                self.stack[base + n + v] = if c > target || (c == target && v != m) {
                    c + 1
                } else {
                    c
                };
            }
            self.search(level + 1, cells + 1, mix);
        }
    }

    /// Encode the discrete coloring at `base` exactly and keep it when it
    /// is the least leaf so far.
    fn leaf(&mut self, base: usize) {
        let n = self.n;
        let label = &self.stack[base..base + n];
        self.labeled.clear();
        self.labeled
            .extend(self.fact_ids.iter().map(|&v| label[v as usize]));
        let (rel, off, labeled) = (&self.fact_rel, &self.fact_off, &self.labeled);
        let row = |f: usize| &labeled[off[f] as usize..off[f + 1] as usize];
        self.fact_order.clear();
        self.fact_order.extend(0..rel.len() as u32);
        self.fact_order.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            rel[a].cmp(&rel[b]).then_with(|| row(a).cmp(row(b)))
        });
        let leaf = &mut self.leaf;
        leaf.clear();
        leaf.push(n as u32);
        leaf.push(self.distinguished.len() as u32);
        leaf.extend(self.distinguished.iter().map(|&d| label[d as usize]));
        leaf.push(rel.len() as u32);
        for &f in &self.fact_order {
            let f = f as usize;
            leaf.push(rel[f]);
            leaf.push(row(f).len() as u32);
            leaf.extend_from_slice(row(f));
        }
        if self.best.is_empty() || self.leaf < self.best {
            std::mem::swap(&mut self.leaf, &mut self.best);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdeg_storage::{node, Signature};
    use std::sync::Arc;

    fn colored_sig() -> Arc<Signature> {
        Arc::new(Signature::new(&[("E", 2), ("B", 1)]))
    }

    /// Build a small colored graph from edges and blue nodes.
    fn build(n: usize, edges: &[(u32, u32)], blue: &[u32]) -> Structure {
        let sig = colored_sig();
        let e = sig.rel("E").unwrap();
        let b_ = sig.rel("B").unwrap();
        let mut b = Structure::builder(sig, n);
        for &(u, v) in edges {
            b.undirected_edge(e, node(u), node(v)).unwrap();
        }
        for &u in blue {
            b.fact(b_, &[node(u)]).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn isomorphic_structures_same_encoding() {
        // path 0-1-2 with 0 blue  vs  path 2-1-0 with 2 blue
        let a = build(3, &[(0, 1), (1, 2)], &[0]);
        let b = build(3, &[(2, 1), (1, 0)], &[2]);
        assert_eq!(
            canonical_encoding(&a, &[node(0)]),
            canonical_encoding(&b, &[node(2)])
        );
    }

    #[test]
    fn distinguished_position_matters() {
        let a = build(3, &[(0, 1), (1, 2)], &[]);
        // distinguishing an end vs the middle of the path
        assert_ne!(
            canonical_encoding(&a, &[node(0)]),
            canonical_encoding(&a, &[node(1)])
        );
        // but the two ends are isomorphic
        assert_eq!(
            canonical_encoding(&a, &[node(0)]),
            canonical_encoding(&a, &[node(2)])
        );
    }

    #[test]
    fn color_breaks_symmetry() {
        let a = build(2, &[(0, 1)], &[0]);
        let b = build(2, &[(0, 1)], &[1]);
        // as abstract structures these are isomorphic
        assert_eq!(canonical_encoding(&a, &[]), canonical_encoding(&b, &[]));
        // distinguishing the blue node keeps them equal too
        assert_eq!(
            canonical_encoding(&a, &[node(0)]),
            canonical_encoding(&b, &[node(1)])
        );
        // distinguishing blue in one and non-blue in the other differs
        assert_ne!(
            canonical_encoding(&a, &[node(0)]),
            canonical_encoding(&b, &[node(0)])
        );
    }

    #[test]
    fn non_isomorphic_differ() {
        let path = build(4, &[(0, 1), (1, 2), (2, 3)], &[]);
        let star = build(4, &[(0, 1), (0, 2), (0, 3)], &[]);
        assert_ne!(
            canonical_encoding(&path, &[]),
            canonical_encoding(&star, &[])
        );
    }

    #[test]
    fn highly_symmetric_cycle_canonicalizes() {
        // 6-cycle: color refinement alone cannot discretize; backtracking must
        let mk = |rot: u32| {
            build(
                6,
                &(0..6)
                    .map(|i| ((i + rot) % 6, (i + 1 + rot) % 6))
                    .collect::<Vec<_>>(),
                &[],
            )
        };
        let a = mk(0);
        let b = mk(2);
        assert_eq!(canonical_encoding(&a, &[]), canonical_encoding(&b, &[]));
        assert_eq!(
            canonical_encoding(&a, &[node(0)]),
            canonical_encoding(&b, &[node(3)])
        );
    }

    #[test]
    fn random_permutation_invariance() {
        use std::collections::BTreeMap;
        // fixed permutation applied to a small irregular graph
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)];
        let a = build(5, &edges, &[4]);
        let perm: BTreeMap<u32, u32> = [(0, 3), (1, 0), (2, 4), (3, 1), (4, 2)]
            .into_iter()
            .collect();
        let p_edges: Vec<(u32, u32)> = edges.iter().map(|&(u, v)| (perm[&u], perm[&v])).collect();
        let b = build(5, &p_edges, &[perm[&4]]);
        assert_eq!(
            canonical_encoding(&a, &[node(0), node(2)]),
            canonical_encoding(&b, &[node(perm[&0]), node(perm[&2])])
        );
    }

    /// Brute force over all bijections: an isomorphism `a → b` mapping
    /// `da` onto `db` pointwise.
    fn isomorphic(a: &Structure, da: &[Node], b: &Structure, db: &[Node]) -> bool {
        fn extend(
            a: &Structure,
            da: &[Node],
            b: &Structure,
            db: &[Node],
            perm: &mut Vec<u32>,
            used: &mut Vec<bool>,
        ) -> bool {
            let n = a.cardinality();
            if perm.len() == n {
                let img = |v: &Node| node(perm[v.index()]);
                return da.iter().map(img).eq(db.iter().copied())
                    && a.signature().rel_ids().all(|r| {
                        let t = a.relation(r);
                        t.len() == b.relation(r).len()
                            && t.iter()
                                .all(|f| b.holds(r, &f.iter().map(img).collect::<Vec<_>>()))
                    });
            }
            for w in 0..n {
                if !used[w] {
                    used[w] = true;
                    perm.push(w as u32);
                    let found = extend(a, da, b, db, perm, used);
                    perm.pop();
                    used[w] = false;
                    if found {
                        return true;
                    }
                }
            }
            false
        }
        a.cardinality() == b.cardinality()
            && da.len() == db.len()
            && extend(
                a,
                da,
                b,
                db,
                &mut Vec::new(),
                &mut vec![false; a.cardinality()],
            )
    }

    fn cycle(n: u32) -> Vec<(u32, u32)> {
        (0..n).map(|i| (i, (i + 1) % n)).collect()
    }

    fn clique(n: u32) -> Vec<(u32, u32)> {
        (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .collect()
    }

    /// `copies` disjoint paths of `len` nodes each.
    fn paths(copies: u32, len: u32) -> Vec<(u32, u32)> {
        (0..copies)
            .flat_map(|c| (0..len - 1).map(move |i| (c * len + i, c * len + i + 1)))
            .collect()
    }

    /// Families color refinement alone cannot discretize, with one blue
    /// node and several distinguished tuples (repeats included), each also
    /// under the relabeling `v ↦ n - 1 - v`.
    fn symmetric_cases() -> Vec<(Structure, Vec<Node>)> {
        let graphs: Vec<(usize, Vec<(u32, u32)>)> = vec![
            (6, cycle(6)),
            (
                6,
                [
                    cycle(3),
                    cycle(3).iter().map(|&(u, v)| (u + 3, v + 3)).collect(),
                ]
                .concat(),
            ),
            (5, cycle(5)),
            (5, clique(5)),
            (6, clique(4)),
            (6, paths(3, 2)),
            (6, paths(2, 3)),
            (
                6,
                [
                    paths(1, 2),
                    paths(1, 4).iter().map(|&(u, v)| (u + 2, v + 2)).collect(),
                ]
                .concat(),
            ),
        ];
        let tuples: [&[u32]; 4] = [&[], &[0], &[0, 1], &[1, 1, 0]];
        let mut cases = Vec::new();
        for (n, edges) in graphs {
            let rev = |v: u32| n as u32 - 1 - v;
            let flipped: Vec<(u32, u32)> = edges.iter().map(|&(u, v)| (rev(u), rev(v))).collect();
            let same = |v: u32| v;
            for (es, relabel) in [(&edges, &same as &dyn Fn(u32) -> u32), (&flipped, &rev)] {
                let s = build(n, es, &[relabel(0)]);
                for t in tuples {
                    cases.push((s.clone(), t.iter().map(|&v| node(relabel(v))).collect()));
                }
            }
        }
        cases
    }

    /// Every pair of cases: equal encodings under `mix` ⇔ isomorphic.
    fn assert_exact(mix: Mixer) {
        let cases = symmetric_cases();
        let encodings: Vec<Vec<u32>> = cases
            .iter()
            .map(|(s, d)| {
                let mut canon = Canonicalizer::new();
                canon.load_structure(s, d);
                let mut out = Vec::new();
                canon.encode(mix, &mut out);
                out
            })
            .collect();
        let mut isomorphic_pairs = 0;
        for i in 0..cases.len() {
            for j in i + 1..cases.len() {
                let iso = isomorphic(&cases[i].0, &cases[i].1, &cases[j].0, &cases[j].1);
                isomorphic_pairs += iso as usize;
                assert_eq!(encodings[i] == encodings[j], iso, "cases {i} and {j}");
            }
        }
        assert!(isomorphic_pairs >= cases.len() / 2, "relabelings pair up");
    }

    #[test]
    fn constant_mixer_keeps_equal_iff_isomorphic() {
        // Every signal collides: with 0 refinement never splits a cell,
        // with 1 it sees incidence counts only, and individualization does
        // the rest. Exact leaves keep the encoding exact anyway.
        assert_exact(|_, _, _| 0);
        assert_exact(|_, _, _| 1);
    }

    #[test]
    fn interner_dedups_and_keeps_representatives() {
        let mut interner = TypeInterner::new();
        let a = build(3, &[(0, 1), (1, 2)], &[0]);
        let b = build(3, &[(2, 1), (1, 0)], &[2]);
        let t1 = interner.intern(&a, &[node(0)]);
        let t2 = interner.intern(&b, &[node(2)]);
        assert_eq!(t1, t2);
        assert_eq!(interner.len(), 1);
        let t3 = interner.intern(&a, &[node(1)]);
        assert_ne!(t1, t3);
        assert_eq!(interner.len(), 2);
        let (rep, dist) = interner.representative(t1);
        assert_eq!(rep.cardinality(), 3);
        assert_eq!(dist.len(), 1);
    }
}
