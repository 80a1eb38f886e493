//! Gaifman graphs: adjacency structure, degree, balls and bounded distances.
//!
//! Extraction (DESIGN.md §12) is a radix join, not a comparison sort: each
//! relation pass packs its co-occurrence pairs into `(u << 32) | v` keys
//! (fanning out over `lowdeg-par`), a counting pass buckets the keys by
//! source node (the degree histogram *is* the bucket layout), a scatter
//! pass drops each `v` into its source bucket, and a final sharded pass
//! sorts + dedups each short per-node bucket straight into the CSR arrays.
//! Total `O(‖A‖ · r + n)` with no per-edge hashing and no comparison sort
//! over the full edge multiset.

use crate::{Node, Structure};
use lowdeg_par::{par_chunks, par_partition, ParConfig};
use std::cell::RefCell;

/// Rows per extraction chunk when building the Gaifman graph in parallel.
/// Fixed (not derived from the thread count) so chunk boundaries — and with
/// them the pre-bucketing key order — never depend on the pool size.
const GAIFMAN_CHUNK_ROWS: usize = 4096;

/// Pack a directed co-occurrence pair into its radix key.
#[inline]
fn pack(u: Node, v: Node) -> u64 {
    ((u.0 as u64) << 32) | v.0 as u64
}

/// Emit both directions of every distinct-component pair of each row.
fn extract_packed(rows: &[Node], arity: usize, out: &mut Vec<u64>) {
    for t in rows.chunks_exact(arity) {
        for i in 0..arity {
            for j in (i + 1)..arity {
                if t[i] != t[j] {
                    out.push(pack(t[i], t[j]));
                    out.push(pack(t[j], t[i]));
                }
            }
        }
    }
}

/// The Gaifman graph of a structure (Section 2.1): the undirected graph on
/// `dom(A)` with an edge between two distinct nodes whenever they co-occur in
/// some fact.
///
/// Stored in compressed-sparse-row form with sorted, duplicate-free
/// neighbor lists; building is `O(‖A‖ · r log ‖A‖)` where `r` is the maximal
/// arity.
#[derive(Clone, Debug)]
pub struct GaifmanGraph {
    offsets: Vec<u32>,
    neighbors: Vec<Node>,
    max_degree: usize,
}

impl GaifmanGraph {
    /// Build the Gaifman graph of `structure`, serially.
    pub fn build(structure: &Structure) -> Self {
        Self::build_with(structure, &ParConfig::serial())
    }

    /// Build the Gaifman graph of `structure`, extracting co-occurrence
    /// edges on the given worker pool via the radix-join pipeline (module
    /// docs). Bucket boundaries come from the degree histogram and chunk
    /// boundaries are fixed row counts, so the resulting CSR is
    /// byte-identical for every thread count — and identical to
    /// [`GaifmanGraph::build_reference`]'s output.
    pub fn build_with(structure: &Structure, par: &ParConfig) -> Self {
        let n = structure.cardinality();
        // Pass 1 — per-relation extraction of packed (u, v) radix keys.
        // The serial path appends straight into the shared key buffer; the
        // parallel path concatenates fixed-boundary chunks in order.
        let mut keys: Vec<u64> = Vec::new();
        // Reserve the exact worst case (every row all-distinct) once, so the
        // serial path never reallocates the key buffer while extracting.
        let upper: usize = structure
            .signature()
            .rel_ids()
            .map(|rel| {
                let r = structure.relation(rel);
                let a = r.arity();
                if a < 2 {
                    0
                } else {
                    r.len() * a * (a - 1)
                }
            })
            .sum();
        keys.reserve_exact(upper);
        for rel in structure.signature().rel_ids() {
            let r = structure.relation(rel);
            let arity = r.arity();
            if arity < 2 {
                continue;
            }
            let flat = r.as_flat();
            if par.runs_serial(flat.len()) {
                extract_packed(flat, arity, &mut keys);
            } else {
                let per_chunk: Vec<Vec<u64>> =
                    par_chunks(par, flat, GAIFMAN_CHUNK_ROWS * arity, |rows: &[Node]| {
                        let mut out = Vec::new();
                        extract_packed(rows, arity, &mut out);
                        out
                    });
                for mut chunk in per_chunk {
                    if keys.is_empty() {
                        keys = chunk;
                    } else {
                        keys.append(&mut chunk);
                    }
                }
            }
        }
        Self::from_packed_keys(n, keys, par)
    }

    /// Buckets packed keys by source node (counting pass + scatter pass),
    /// then sorts and dedups each per-node bucket into the final CSR. With
    /// bounded degree every bucket is short, so the per-bucket sorts cost
    /// `O(E)` overall — this is an MSD radix sort on the packed keys whose
    /// first digit is the full source id.
    fn from_packed_keys(n: usize, keys: Vec<u64>, par: &ParConfig) -> Self {
        // Degree-aware bucketing: histogram over sources → bucket offsets.
        let mut bucket: Vec<u32> = vec![0u32; n + 1];
        for &k in &keys {
            bucket[(k >> 32) as usize + 1] += 1;
        }
        for i in 0..n {
            bucket[i + 1] += bucket[i];
        }
        // Scatter each target into its source bucket.
        let mut cursor: Vec<u32> = bucket[..n].to_vec();
        let mut scattered: Vec<u32> = vec![0u32; keys.len()];
        for &k in &keys {
            let u = (k >> 32) as usize;
            scattered[cursor[u] as usize] = k as u32;
            cursor[u] += 1;
        }
        drop(keys);
        drop(cursor);

        let mut offsets = vec![0u32; n + 1];
        let mut neighbors: Vec<Node> = Vec::with_capacity(scattered.len());
        if par.runs_serial(scattered.len()) {
            // Serial path: sort each bucket in place and write the deduped
            // run straight into the CSR arrays — no per-bucket or per-chunk
            // buffers at all.
            for u in 0..n {
                let (lo, hi) = (bucket[u] as usize, bucket[u + 1] as usize);
                scattered[lo..hi].sort_unstable();
                let before = neighbors.len();
                let mut last = u32::MAX;
                for &v in &scattered[lo..hi] {
                    if v != last {
                        neighbors.push(Node(v));
                        last = v;
                    }
                }
                offsets[u + 1] = offsets[u] + (neighbors.len() - before) as u32;
            }
        } else {
            // Sharded merge-dedup: contiguous node ranges produce their CSR
            // fragments independently; concatenation in part order yields
            // the same arrays as the serial path.
            let nodes: Vec<u32> = (0..n as u32).collect();
            let parts = par.threads() * 4;
            let shards: Vec<(Vec<Node>, Vec<u32>)> =
                par_partition(par, &nodes, parts, |_, range| {
                    let mut nb: Vec<Node> = Vec::new();
                    let mut degs: Vec<u32> = Vec::with_capacity(range.len());
                    let mut buf: Vec<u32> = Vec::new();
                    for &u in range {
                        let (lo, hi) =
                            (bucket[u as usize] as usize, bucket[u as usize + 1] as usize);
                        buf.clear();
                        buf.extend_from_slice(&scattered[lo..hi]);
                        buf.sort_unstable();
                        buf.dedup();
                        degs.push(buf.len() as u32);
                        nb.extend(buf.iter().map(|&v| Node(v)));
                    }
                    (nb, degs)
                });
            let mut u = 0usize;
            for (nb, degs) in shards {
                for d in degs {
                    offsets[u + 1] = offsets[u] + d;
                    u += 1;
                }
                neighbors.extend(nb);
            }
        }

        let max_degree = (0..n)
            .map(|i| (offsets[i + 1] - offsets[i]) as usize)
            .max()
            .unwrap_or(0);
        GaifmanGraph {
            offsets,
            neighbors,
            max_degree,
        }
    }

    /// The naive hash-based reference extractor the radix pipeline replaced,
    /// retained verbatim as the differential oracle for
    /// `tests/extraction_equivalence.rs`: accumulate every co-occurrence
    /// pair in a hash set, sort, and lay out the CSR. Always serial; not a
    /// production path.
    pub fn build_reference(structure: &Structure) -> Self {
        let n = structure.cardinality();
        let mut edge_set: std::collections::HashSet<(Node, Node)> =
            std::collections::HashSet::new();
        for rel in structure.signature().rel_ids() {
            let r = structure.relation(rel);
            let arity = r.arity();
            if arity < 2 {
                continue;
            }
            for t in r.iter() {
                for i in 0..arity {
                    for j in (i + 1)..arity {
                        if t[i] != t[j] {
                            edge_set.insert((t[i], t[j]));
                            edge_set.insert((t[j], t[i]));
                        }
                    }
                }
            }
        }
        let mut edges: Vec<(Node, Node)> = edge_set.into_iter().collect();
        edges.sort_unstable();

        let mut offsets = vec![0u32; n + 1];
        for &(a, _) in &edges {
            offsets[a.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let neighbors = edges.into_iter().map(|(_, b)| b).collect::<Vec<_>>();
        let max_degree = (0..n)
            .map(|i| (offsets[i + 1] - offsets[i]) as usize)
            .max()
            .unwrap_or(0);
        GaifmanGraph {
            offsets,
            neighbors,
            max_degree,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sorted neighbor list of `a`.
    #[inline]
    pub fn neighbors(&self, a: Node) -> &[Node] {
        let lo = self.offsets[a.index()] as usize;
        let hi = self.offsets[a.index() + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Degree of a single node.
    #[inline]
    pub fn degree(&self, a: Node) -> usize {
        self.neighbors(a).len()
    }

    /// `degree(A)`: the maximum node degree (0 for edgeless structures).
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Adjacency test by binary search on the sorted neighbor list.
    pub fn adjacent(&self, a: Node, b: Node) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// The r-ball `N_r(a)`: all nodes at Gaifman distance ≤ r from `a`,
    /// returned **sorted**. BFS, `O(|N_r(a)| · d)`.
    pub fn ball(&self, a: Node, r: usize) -> Vec<Node> {
        let mut ball = self.ball_unsorted(a, r);
        ball.sort_unstable();
        ball
    }

    /// The r-ball in BFS discovery order (useful when layer structure
    /// matters).
    pub fn ball_unsorted(&self, a: Node, r: usize) -> Vec<Node> {
        let mut out = Vec::new();
        self.bfs(a, r, |v, _| {
            out.push(v);
            false
        });
        out
    }

    /// Bounded distance: `Some(dist(a,b))` when `dist(a,b) ≤ cap`, else
    /// `None`. A cap of at most 1 reads `a`'s sorted neighbor list; larger
    /// caps run a BFS from `a`, stopping at depth `cap`, in
    /// `O(|N_cap(a)| · d)`. Allocates nothing once the calling thread has
    /// searched a graph this large.
    pub fn distance_at_most(&self, a: Node, b: Node, cap: usize) -> Option<usize> {
        if a == b {
            return Some(0);
        }
        if cap <= 1 {
            let adjacent = cap == 1 && self.neighbors(a).binary_search(&b).is_ok();
            return adjacent.then_some(1);
        }
        let mut found = None;
        self.bfs(a, cap, |v, depth| {
            if v == b {
                found = Some(depth);
            }
            found.is_some()
        });
        found
    }

    /// Histogram of node degrees: `histogram[d]` = number of nodes with
    /// degree exactly `d` (length `max_degree + 1`; empty graph → `[n]`).
    pub fn degree_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_degree + 1];
        for i in 0..self.len() {
            hist[self.degree(Node(i as u32))] += 1;
        }
        hist
    }

    /// Mean node degree.
    pub fn mean_degree(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.neighbors.len() as f64 / self.len() as f64
    }

    /// Connected components of the Gaifman graph: for each node its
    /// component id (ids are dense, assigned in order of each component's
    /// smallest node), plus the number of components.
    pub fn components(&self) -> (Vec<u32>, usize) {
        let n = self.len();
        const UNSET: u32 = u32::MAX;
        let mut comp = vec![UNSET; n];
        let mut count = 0u32;
        let mut stack = Vec::new();
        for start in 0..n {
            if comp[start] != UNSET {
                continue;
            }
            comp[start] = count;
            stack.push(Node(start as u32));
            while let Some(u) = stack.pop() {
                for &v in self.neighbors(u) {
                    if comp[v.index()] == UNSET {
                        comp[v.index()] = count;
                        stack.push(v);
                    }
                }
            }
            count += 1;
        }
        (comp, count as usize)
    }

    /// Distances from `a` to every node of its `cap`-ball, as
    /// `(node, distance)` pairs in BFS order.
    pub fn distances_within(&self, a: Node, cap: usize) -> Vec<(Node, usize)> {
        let mut out = Vec::new();
        self.bfs(a, cap, |v, depth| {
            out.push((v, depth));
            false
        });
        out
    }

    /// Breadth-first search from `a` down to depth `cap`: `visit(v, depth)`
    /// sees each node of the `cap`-ball once, in BFS order (`a` first, at
    /// depth 0), until it returns `true`. Runs on the calling thread's
    /// [`BfsScratch`], so a search costs `O(|N_cap(a)| · d)` whatever the
    /// graph's size. `visit` must not search again.
    fn bfs(&self, a: Node, cap: usize, mut visit: impl FnMut(Node, usize) -> bool) {
        BFS_SCRATCH.with(|scratch| {
            let BfsScratch { seen, queue } = &mut *scratch.borrow_mut();
            // clear the previous search's marks (its queue lists them all)
            for v in queue.drain(..) {
                seen[v.index() / 64] &= !(1u64 << (v.index() % 64));
            }
            if seen.len() < self.len().div_ceil(64) {
                seen.resize(self.len().div_ceil(64), 0);
            }
            let mut mark = |v: Node, queue: &mut Vec<Node>| {
                let (w, bit) = (v.index() / 64, 1u64 << (v.index() % 64));
                let fresh = seen[w] & bit == 0;
                seen[w] |= bit;
                if fresh {
                    queue.push(v);
                }
                fresh
            };
            mark(a, queue);
            if visit(a, 0) {
                return;
            }
            let mut frontier_start = 0;
            for depth in 1..=cap {
                let frontier_end = queue.len();
                if frontier_start == frontier_end {
                    return;
                }
                for i in frontier_start..frontier_end {
                    for &v in self.neighbors(queue[i]) {
                        if mark(v, queue) && visit(v, depth) {
                            return;
                        }
                    }
                }
                frontier_start = frontier_end;
            }
        })
    }
}

/// Per-thread BFS state: one visited bit per node of the largest graph the
/// thread has searched, and the last search's queue. A search clears only
/// the bits its predecessor set (they are exactly that search's queue), so
/// no call pays for the graph's size.
struct BfsScratch {
    seen: Vec<u64>,
    queue: Vec<Node>,
}

thread_local! {
    static BFS_SCRATCH: RefCell<BfsScratch> = const {
        RefCell::new(BfsScratch {
            seen: Vec::new(),
            queue: Vec::new(),
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{node, Signature};
    use std::sync::Arc;

    fn cycle(n: usize) -> Structure {
        let sig = Arc::new(Signature::new(&[("E", 2)]));
        let e = sig.rel("E").unwrap();
        let mut b = Structure::builder(sig, n);
        for i in 0..n {
            b.edge(e, node(i as u32), node(((i + 1) % n) as u32))
                .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn cycle_degrees() {
        let s = cycle(8);
        let g = s.gaifman();
        assert_eq!(g.max_degree(), 2);
        for a in s.domain() {
            assert_eq!(g.degree(a), 2);
        }
    }

    #[test]
    fn adjacency_is_symmetric() {
        let s = cycle(5);
        let g = s.gaifman();
        assert!(g.adjacent(node(0), node(1)));
        assert!(g.adjacent(node(1), node(0)));
        assert!(g.adjacent(node(0), node(4)));
        assert!(!g.adjacent(node(0), node(2)));
    }

    #[test]
    fn ball_on_cycle() {
        let s = cycle(10);
        let g = s.gaifman();
        assert_eq!(g.ball(node(0), 0), vec![node(0)]);
        assert_eq!(g.ball(node(0), 1), vec![node(0), node(1), node(9)]);
        assert_eq!(g.ball(node(0), 2).len(), 5);
        assert_eq!(g.ball(node(0), 5).len(), 10); // whole cycle
        assert_eq!(g.ball(node(0), 50).len(), 10); // saturates
    }

    #[test]
    fn bounded_distance() {
        let s = cycle(10);
        let g = s.gaifman();
        assert_eq!(g.distance_at_most(node(0), node(3), 5), Some(3));
        assert_eq!(g.distance_at_most(node(0), node(3), 2), None);
        assert_eq!(g.distance_at_most(node(0), node(7), 5), Some(3)); // wraps
        assert_eq!(g.distance_at_most(node(4), node(4), 0), Some(0));
    }

    /// Graphs of maximum degree ≤ `d` on `n` nodes: `tries` random edge
    /// proposals (splitmix64 stream), each kept when both ends have room.
    fn random_bounded(n: u32, d: usize, tries: usize, seed: u64) -> Structure {
        let sig = Arc::new(Signature::new(&[("E", 2)]));
        let e = sig.rel("E").unwrap();
        let mut b = Structure::builder(sig, n as usize);
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % u64::from(n)) as u32
        };
        let mut degree = vec![0usize; n as usize];
        for _ in 0..tries {
            let (u, v) = (next(), next());
            if u != v && degree[u as usize] < d && degree[v as usize] < d {
                degree[u as usize] += 1;
                degree[v as usize] += 1;
                b.edge(e, node(u), node(v)).unwrap();
            }
        }
        b.finish().unwrap()
    }

    /// `distance_at_most` agrees with BFS ball layers for caps 0–4, on
    /// both sides of the allocation-free `cap ≤ 1` path.
    #[test]
    fn bounded_distance_matches_balls() {
        let mut graphs = vec![cycle(7), cycle(12)];
        for seed in 0..4 {
            graphs.push(random_bounded(40, 3, 80, seed));
        }
        for s in &graphs {
            let g = s.gaifman();
            let n = g.len() as u32;
            for a in (0..n).map(node) {
                for cap in 0..=4 {
                    let ball = g.ball(a, cap);
                    for b in (0..n).map(node) {
                        let within = ball.binary_search(&b).is_ok();
                        let got = g.distance_at_most(a, b, cap);
                        assert_eq!(got.is_some(), within, "{a} {b} cap {cap}");
                        if let Some(dist) = got {
                            assert!(dist <= cap);
                            let closer = dist > 0 && g.ball(a, dist - 1).binary_search(&b).is_ok();
                            assert!(!closer, "{a} {b}: reported {dist} is not the distance");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ternary_relation_makes_clique_edges() {
        let sig = Arc::new(Signature::new(&[("T", 3)]));
        let t = sig.rel("T").unwrap();
        let mut b = Structure::builder(sig, 4);
        b.fact(t, &[node(0), node(1), node(2)]).unwrap();
        let s = b.finish().unwrap();
        let g = s.gaifman();
        assert!(g.adjacent(node(0), node(2)));
        assert!(g.adjacent(node(1), node(2)));
        assert_eq!(g.degree(node(3)), 0);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn self_loops_ignored() {
        let sig = Arc::new(Signature::new(&[("E", 2)]));
        let e = sig.rel("E").unwrap();
        let mut b = Structure::builder(sig, 2);
        b.edge(e, node(0), node(0)).unwrap();
        let s = b.finish().unwrap();
        assert_eq!(s.gaifman().degree(node(0)), 0);
    }

    #[test]
    fn degree_statistics() {
        let s = cycle(6);
        let g = s.gaifman();
        assert_eq!(g.degree_histogram(), vec![0, 0, 6]);
        assert!((g.mean_degree() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn components_of_disjoint_cycles() {
        // two cycles: 0-1-2 and 3-4-5, plus isolated 6
        let sig = Arc::new(Signature::new(&[("E", 2)]));
        let e = sig.rel("E").unwrap();
        let mut b = Structure::builder(sig, 7);
        for &(u, v) in &[(0u32, 1u32), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            b.edge(e, node(u), node(v)).unwrap();
            b.edge(e, node(v), node(u)).unwrap();
        }
        let s = b.finish().unwrap();
        let (comp, count) = s.gaifman().components();
        assert_eq!(count, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[6], comp[0]);
        assert_ne!(comp[6], comp[3]);
    }

    #[test]
    fn distances_within_layers() {
        let s = cycle(8);
        let d = s.gaifman().distances_within(node(0), 2);
        assert_eq!(d.len(), 5);
        assert_eq!(d[0], (node(0), 0));
        let depth2: Vec<_> = d
            .iter()
            .filter(|&&(_, dd)| dd == 2)
            .map(|&(v, _)| v)
            .collect();
        assert_eq!(depth2.len(), 2);
    }
}
