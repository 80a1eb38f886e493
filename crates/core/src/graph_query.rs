//! Quantifier-free queries over the reduced colored graph.
//!
//! Proposition 3.3 guarantees the reduced formula has the shape
//! `ψ = ψ₁ ∧ ψ₂` where `ψ₁` forbids `E`-edges between distinct answer
//! components and `ψ₂` is a positive boolean combination of unary atoms.
//! We keep `ψ₂` in the *mutually exclusive clause form* that Propositions
//! 3.6 and 3.9 normalize into: a disjunction of clauses, each fixing a
//! conjunction of required colors per position; distinct clauses have
//! disjoint answer sets because every vertex carries exactly one `C_ι` color
//! and exactly one type color.
//!
//! A reduced query has thousands of clauses over a few hundred distinct
//! color sets, so [`GraphQuery`] keeps each set once and each clause as a
//! flat row of `k` set ids.

use crate::enumerate::EdgeAdjacency;
use lowdeg_index::{FxHashMap, SliceInterner};
use lowdeg_par::{par_map, ParConfig};
use lowdeg_storage::{Node, RelId, Structure};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The reduced query `ψ` over the colored graph: `k` positions, an edge
/// relation whose absence is required pairwise (`ψ₁`), and exclusive color
/// clauses (`ψ₂`) as rows of color-set ids.
#[derive(Clone, Debug)]
pub struct GraphQuery {
    /// Arity.
    pub k: usize,
    /// The `E` relation of the colored graph.
    pub edge: RelId,
    /// The distinct color sets, each once: set `s` is
    /// `set_colors[set_off[s]..set_off[s + 1]]`.
    pub(crate) set_colors: Vec<RelId>,
    /// CSR offsets into `set_colors` (length `#sets + 1`).
    pub(crate) set_off: Vec<u32>,
    /// Clause `c` requires set `rows[c * k + i]` at position `i`.
    pub(crate) rows: Vec<u32>,
}

impl GraphQuery {
    /// A query from explicit clauses, `clauses[c][i]` the colors clause
    /// `c` requires at position `i` (a clause of another length panics):
    /// each distinct color set is interned once, in order of first use.
    pub fn from_clauses(k: usize, edge: RelId, clauses: &[Vec<Vec<RelId>>]) -> Self {
        assert!(
            clauses.iter().all(|c| c.len() == k),
            "one color set per position"
        );
        let mut sets = SliceInterner::new();
        let rows = clauses
            .iter()
            .flatten()
            .map(|set| sets.intern(set))
            .collect();
        let (set_colors, set_off) = sets.into_parts();
        GraphQuery {
            k,
            edge,
            set_colors,
            set_off,
            rows,
        }
    }

    /// Number of clauses.
    pub fn clause_count(&self) -> usize {
        self.rows.len().checked_div(self.k).unwrap_or(0)
    }

    /// Clause `c`'s row: the color-set id of each position.
    pub fn clause(&self, c: usize) -> &[u32] {
        &self.rows[c * self.k..(c + 1) * self.k]
    }

    /// Number of distinct color sets.
    pub fn set_count(&self) -> usize {
        self.set_off.len() - 1
    }

    /// The colors of set `s`.
    pub fn set_colors(&self, s: u32) -> &[RelId] {
        let s = s as usize;
        &self.set_colors[self.set_off[s] as usize..self.set_off[s + 1] as usize]
    }

    /// Symmetric adjacency in the `E` relation (`E'` of the paper). `E`
    /// lives only in the [`EdgeAdjacency`] CSR (the reduction never
    /// materializes it as a stored relation), so the probe goes through
    /// the CSR; both directions are checked, tolerating asymmetric
    /// hand-built inputs.
    pub fn adjacent(&self, adjacency: &EdgeAdjacency, u: Node, v: Node) -> bool {
        adjacency.adjacent(u, v) || adjacency.adjacent(v, u)
    }

    /// Full semantic check of `ψ` on a tuple of graph vertices.
    pub fn accepts(&self, graph: &Structure, adjacency: &EdgeAdjacency, tuple: &[Node]) -> bool {
        self.accepts_with(adjacency, tuple, |c, v| graph.holds(c, &[v]))
    }

    /// [`GraphQuery::accepts`] with the unary colors read through
    /// `holds(color, vertex)`: `ψ₁` as pairwise `¬E` probes, `ψ₂` as a
    /// scan of the clause rows.
    pub fn accepts_with(
        &self,
        adjacency: &EdgeAdjacency,
        tuple: &[Node],
        holds: impl Fn(RelId, Node) -> bool,
    ) -> bool {
        debug_assert_eq!(tuple.len(), self.k);
        for i in 0..tuple.len() {
            for j in (i + 1)..tuple.len() {
                if self.adjacent(adjacency, tuple[i], tuple[j]) {
                    return false;
                }
            }
        }
        let has = |s: u32, v: Node| self.set_colors(s).iter().all(|&c| holds(c, v));
        (0..self.clause_count()).any(|c| self.clause(c).iter().zip(tuple).all(|(&s, &v)| has(s, v)))
    }
}

/// The ids of the `width`-wide rows of `flat`, sorted by row — the index
/// [`find_row`] searches. Stable, so a table grown by appending sorts in
/// near-linear time.
pub(crate) fn sort_rows<T: Ord>(flat: &[T], width: usize, ids: &mut [u32]) {
    let row = |id: u32| &flat[id as usize * width..(id as usize + 1) * width];
    ids.sort_by(|&a, &b| row(a).cmp(row(b)));
}

/// The id of the row of `flat` equal to `key`, by binary search of the
/// [`sort_rows`] index `sorted`: `O(width · log #rows)`, no allocation.
pub(crate) fn find_row<T: Ord>(flat: &[T], sorted: &[u32], key: &[T]) -> Option<u32> {
    let width = key.len();
    sorted
        .binary_search_by(|&id| flat[id as usize * width..(id as usize + 1) * width].cmp(key))
        .ok()
        .map(|at| sorted[at])
}

/// The candidate-list table of one reduced colored graph: memoized
/// [`position_list`]s keyed by the exact color set.
///
/// The lists are properties of the colored graph alone: a query probes
/// one per color set of its table, and the memo lets every build on the
/// same graph share the column intersections (a repeat build, or another
/// query drawing the same `(C_ι, C_τ)` pairs, scans nothing).
///
/// Every engine build resolves **one** table and hands it to both readers
/// of the lists: Lemma 3.5 counting ([`crate::counting::count_graph_query`])
/// and the Prop 3.9 enumerator ([`crate::enumerate::Enumerator::build`]).
/// With an [`crate::ArtifactCache`] the table is the cache's per-core one
/// (the lists are properties of the reduced graph alone), so every engine
/// built against the core shares it; without a cache it is build-local.
/// The lists are identical either way.
#[derive(Debug, Default)]
pub struct PositionMemo {
    map: Mutex<FxHashMap<Vec<RelId>, Arc<Vec<Node>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PositionMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// The memoized `P(G)` list of every color set of `gq`, by set id,
    /// each built on first use: one probe per set, fanned over `par`. A
    /// scan runs outside the lock; a concurrent first probe keeps the
    /// earlier insertion (both scans produce the identical list).
    pub fn lists(
        &self,
        graph: &Structure,
        gq: &GraphQuery,
        par: &ParConfig,
    ) -> Vec<Arc<Vec<Node>>> {
        let sets: Vec<u32> = (0..gq.set_count() as u32).collect();
        par_map(par, &sets, |&s| {
            let colors = gq.set_colors(s);
            if let Some(hit) = self.map.lock().expect("memo poisoned").get(colors) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(hit);
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            let built = Arc::new(position_list(graph, colors));
            let mut map = self.map.lock().expect("memo poisoned");
            Arc::clone(map.entry(colors.to_vec()).or_insert(built))
        })
    }

    /// Number of distinct color sets held.
    pub fn len(&self) -> usize {
        self.map.lock().expect("memo poisoned").len()
    }

    /// Whether no list has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` over all probes (diagnostics; a miss is one
    /// column intersection).
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// The sorted list of vertices carrying *all* of `colors` — the `P(G)` list
/// of Proposition 3.9 (every vertex when `colors` is empty).
///
/// Intersects the borrowed sorted unary columns in place: the shortest
/// column is filtered against the others, each probed by a galloping
/// search that resumes where its previous probe ended, so the scan costs
/// `O(s · c · log(n / s))` for a shortest column of `s` entries and `c`
/// colors, and nothing is copied but the output.
pub fn position_list(graph: &Structure, colors: &[RelId]) -> Vec<Node> {
    let mut columns: Vec<&[Node]> = Vec::with_capacity(colors.len());
    for &c in colors {
        let relation = graph.relation(c);
        if relation.arity() != 1 {
            // `holds(c, [v])` is false for every vertex
            return Vec::new();
        }
        columns.push(relation.as_flat());
    }
    columns.sort_by_key(|col| col.len());
    let Some((&shortest, rest)) = columns.split_first() else {
        return graph.domain().collect();
    };
    let mut cursors = vec![0usize; rest.len()];
    shortest
        .iter()
        .copied()
        .filter(|&v| {
            rest.iter().zip(&mut cursors).all(|(col, at)| {
                *at += gallop(&col[*at..], v);
                col.get(*at) == Some(&v)
            })
        })
        .collect()
}

/// Index of the first entry `≥ v` in the sorted `col`: doubling probes
/// bracket it, a binary search inside the bracket finds it.
fn gallop(col: &[Node], v: Node) -> usize {
    let mut end = 1;
    while end < col.len() && col[end - 1] < v {
        end *= 2;
    }
    let start = end / 2;
    let end = end.min(col.len());
    start + col[start..end].partition_point(|&x| x < v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdeg_storage::{node, Signature};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn graph() -> (Structure, RelId, RelId, RelId) {
        let sig = Arc::new(Signature::new(&[("E", 2), ("B", 1), ("R", 1)]));
        let e = sig.rel("E").unwrap();
        let b_ = sig.rel("B").unwrap();
        let r_ = sig.rel("R").unwrap();
        let mut b = Structure::builder(sig, 6);
        b.edge(e, node(0), node(3)).unwrap();
        for i in [0u32, 1] {
            b.fact(b_, &[node(i)]).unwrap();
        }
        for i in [3u32, 4] {
            b.fact(r_, &[node(i)]).unwrap();
        }
        b.fact(b_, &[node(4)]).unwrap(); // 4 is blue AND red
        let s = b.finish().unwrap();
        (s, e, b_, r_)
    }

    #[test]
    fn position_lists_intersect() {
        let (g, _, b_, r_) = graph();
        assert_eq!(position_list(&g, &[b_]), vec![node(0), node(1), node(4)]);
        assert_eq!(position_list(&g, &[b_, r_]), vec![node(4)]);
        assert_eq!(position_list(&g, &[]).len(), 6);
    }

    /// A random graph over `n` vertices with unary colors `A`, `B`, `C`
    /// (independent, densities 1/2, 1/3, 1/5), the disjoint pair `Even` /
    /// `Odd` (each a random subset of its parity class), the empty `Z` and
    /// a binary path fragment `E`.
    fn random_colored(n: usize, seed: u64) -> Structure {
        let names = [
            ("E", 2),
            ("A", 1),
            ("B", 1),
            ("C", 1),
            ("Even", 1),
            ("Odd", 1),
            ("Z", 1),
        ];
        let sig = Arc::new(Signature::new(&names));
        let rel = |name: &str| sig.rel(name).unwrap();
        let (e, a, b_, c) = (rel("E"), rel("A"), rel("B"), rel("C"));
        let (even, odd) = (rel("Even"), rel("Odd"));
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut builder = Structure::builder(Arc::clone(&sig), n);
        for i in 0..n as u32 {
            for (r, modulus) in [(a, 2), (b_, 3), (c, 5)] {
                if next() % modulus == 0 {
                    builder.fact(r, &[node(i)]).unwrap();
                }
            }
            if next() % 2 == 0 {
                let parity = if i % 2 == 0 { even } else { odd };
                builder.fact(parity, &[node(i)]).unwrap();
            }
            if i > 0 && next() % 4 == 0 {
                builder.edge(e, node(i - 1), node(i)).unwrap();
            }
        }
        builder.finish().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Smallest-first galloping intersection equals the definition —
        /// the vertices `v` with `holds(c, [v])` for every color `c` —
        /// for empty, single, repeated, disjoint and shuffled color sets
        /// (and a binary relation, which no vertex carries as a color).
        #[test]
        fn position_list_matches_definition(seed in 0u64..100_000, n in 0usize..200) {
            let g = random_colored(n, seed);
            let sig = g.signature();
            let [e, a, b_, c, even, odd, z] =
                ["E", "A", "B", "C", "Even", "Odd", "Z"].map(|name| sig.rel(name).unwrap());
            let mut sets: Vec<Vec<RelId>> = vec![
                vec![],
                vec![a],
                vec![z],
                vec![b_, b_],
                vec![even, odd],
                vec![odd, a, even],
                vec![a, b_, c],
                vec![c, a, b_],
                vec![b_, c, a, c],
                vec![a, e],
            ];
            // plus random draws with repeats, in any order
            let pool = [a, b_, c, even, odd, z];
            let mut state = seed | 1;
            for len in 1..=5usize {
                let draw: Vec<RelId> = (0..len)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        pool[(state >> 33) as usize % pool.len()]
                    })
                    .collect();
                sets.push(draw);
            }
            for colors in &sets {
                let want: Vec<Node> = g
                    .domain()
                    .filter(|&v| colors.iter().all(|&col| g.holds(col, &[v])))
                    .collect();
                prop_assert_eq!(position_list(&g, colors), want, "colors {:?}", colors);
            }
            prop_assert!(position_list(&g, &[even, odd]).is_empty());
        }
    }

    #[test]
    fn clause_acceptance() {
        let (g, e, b_, r_) = graph();
        let q = GraphQuery::from_clauses(2, e, &[vec![vec![b_], vec![r_]]]);
        let adj = EdgeAdjacency::build(&g, e);
        assert!(q.accepts(&g, &adj, &[node(1), node(3)]));
        assert!(!q.accepts(&g, &adj, &[node(0), node(3)])); // edge violates ψ₁
        assert!(!q.accepts(&g, &adj, &[node(3), node(1)])); // wrong colors
        assert!(q.accepts(&g, &adj, &[node(4), node(4)])); // same node twice, no self edge
    }

    #[test]
    fn adjacency_is_symmetrized() {
        let (g, e, _, _) = graph();
        let q = GraphQuery::from_clauses(2, e, &[]);
        let adj = EdgeAdjacency::build(&g, e);
        assert!(q.adjacent(&adj, node(0), node(3)));
        assert!(q.adjacent(&adj, node(3), node(0)));
        assert!(!q.adjacent(&adj, node(1), node(2)));
    }

    #[test]
    fn clauses_share_each_color_set_once() {
        let (_, e, b_, r_) = graph();
        let clauses = [
            vec![vec![b_], vec![r_]],
            vec![vec![r_], vec![b_, r_]],
            vec![vec![b_, r_], vec![b_]],
        ];
        let q = GraphQuery::from_clauses(2, e, &clauses);
        assert_eq!((q.clause_count(), q.set_count()), (3, 3));
        assert_eq!(
            [q.clause(0), q.clause(1), q.clause(2)],
            [[0, 1], [1, 2], [2, 0]]
        );
        for (c, clause) in clauses.iter().enumerate() {
            for (&s, colors) in q.clause(c).iter().zip(clause) {
                assert_eq!(q.set_colors(s), colors.as_slice());
            }
        }
        // the row index finds every row, and nothing else
        let mut sorted: Vec<u32> = (0..3).collect();
        sort_rows(&q.rows, 2, &mut sorted);
        assert_eq!(sorted, [0, 1, 2]);
        for c in 0..3u32 {
            assert_eq!(find_row(&q.rows, &sorted, q.clause(c as usize)), Some(c));
        }
        assert_eq!(find_row(&q.rows, &sorted, &[0, 0]), None);
    }
}
