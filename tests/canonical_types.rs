//! Independent oracle for canonical neighborhood types
//! (`lowdeg_locality::types`): two inputs get equal encodings **iff** a
//! brute force over all `n!` bijections finds an isomorphism mapping the
//! distinguished tuples pointwise.
//!
//! Inputs: random structures with `n ≤ 7` over one binary, one ternary and
//! three unary relations, with distinguished tuples of length 0–3
//! (repeated components included), compared against relabeled copies,
//! one-fact perturbations and fresh structures; and symmetric families
//! on which color refinement alone does not discretize — cycles, cliques
//! and disjoint copies of a path. A last check runs the reduction's own
//! inputs: on the benchmark's `cli-build` database shape, the key-fed
//! encoding of every cluster tuple equals the encoding of its
//! neighborhood `Structure`.

use lowdeg_bench::workloads::{colored, RUNNING_EXAMPLE, TERNARY_SCATTER, TWO_HOP};
use lowdeg_core::Reduction;
use lowdeg_index::Epsilon;
use lowdeg_locality::types::{canonical_encoding, Canonicalizer};
use lowdeg_logic::parse_query;
use lowdeg_par::ParConfig;
use lowdeg_storage::{Node, Signature, Structure};
use std::sync::Arc;

/// SplitMix64: a self-contained, seedable generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

fn signature() -> Arc<Signature> {
    Arc::new(Signature::new(&[
        ("E", 2),
        ("T", 3),
        ("B", 1),
        ("R", 1),
        ("G", 1),
    ]))
}

/// A structure from per-relation fact lists over `0..n`.
fn structure(n: usize, facts: &[Vec<Vec<u32>>]) -> Structure {
    let sig = signature();
    let mut b = Structure::builder(sig.clone(), n);
    for (rel, ts) in sig.rel_ids().zip(facts) {
        for t in ts {
            let t: Vec<Node> = t.iter().map(|&v| Node(v)).collect();
            b.fact(rel, &t).expect("in range");
        }
    }
    b.finish().expect("valid structure")
}

/// Per-relation fact lists of a structure.
fn facts_of(s: &Structure) -> Vec<Vec<Vec<u32>>> {
    s.signature()
        .rel_ids()
        .map(|r| {
            s.relation(r)
                .iter()
                .map(|t| t.iter().map(|v| v.0).collect())
                .collect()
        })
        .collect()
}

fn random_structure(rng: &mut Rng, n: usize) -> Structure {
    let mut facts = vec![Vec::new(); 5];
    for _ in 0..rng.below(2 * n + 1) {
        facts[0].push(vec![rng.below(n) as u32, rng.below(n) as u32]);
    }
    for _ in 0..rng.below(n + 1) {
        facts[1].push((0..3).map(|_| rng.below(n) as u32).collect());
    }
    for unary in &mut facts[2..] {
        for v in 0..n as u32 {
            if rng.below(3) == 0 {
                unary.push(vec![v]);
            }
        }
    }
    structure(n, &facts)
}

fn random_tuple(rng: &mut Rng, n: usize) -> Vec<Node> {
    (0..rng.below(4))
        .map(|_| Node(rng.below(n) as u32))
        .collect()
}

/// The image of `(s, d)` under the bijection `v ↦ perm[v]`.
fn relabel(s: &Structure, d: &[Node], perm: &[u32]) -> (Structure, Vec<Node>) {
    let facts: Vec<Vec<Vec<u32>>> = facts_of(s)
        .into_iter()
        .map(|ts| {
            ts.into_iter()
                .map(|t| t.into_iter().map(|v| perm[v as usize]).collect())
                .collect()
        })
        .collect();
    let d = d.iter().map(|v| Node(perm[v.index()])).collect();
    (structure(s.cardinality(), &facts), d)
}

fn random_perm(rng: &mut Rng, n: usize) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut perm);
    perm
}

/// Brute force over all bijections `a → b`: one that maps `da` onto `db`
/// pointwise and every fact of `a` onto a fact of `b`.
fn isomorphic(a: &Structure, da: &[Node], b: &Structure, db: &[Node]) -> bool {
    fn extend(a: &Structure, da: &[Node], b: &Structure, db: &[Node], perm: &mut Vec<u32>) -> bool {
        let n = a.cardinality();
        if perm.len() == n {
            let img = |v: &Node| Node(perm[v.index()]);
            return da.iter().map(img).eq(db.iter().copied())
                && a.signature().rel_ids().all(|r| {
                    a.relation(r)
                        .iter()
                        .all(|t| b.holds(r, &t.iter().map(img).collect::<Vec<_>>()))
                });
        }
        for w in 0..n as u32 {
            if !perm.contains(&w) {
                perm.push(w);
                if extend(a, da, b, db, perm) {
                    return true;
                }
                perm.pop();
            }
        }
        false
    }
    a.cardinality() == b.cardinality()
        && da.len() == db.len()
        && a.signature()
            .rel_ids()
            .all(|r| a.relation(r).len() == b.relation(r).len())
        && extend(a, da, b, db, &mut Vec::new())
}

/// Assert the oracle on one pair; returns whether it is isomorphic.
fn check_pair(a: &Structure, da: &[Node], b: &Structure, db: &[Node], label: &str) -> bool {
    let iso = isomorphic(a, da, b, db);
    assert_eq!(
        canonical_encoding(a, da) == canonical_encoding(b, db),
        iso,
        "{label}: encodings disagree with the brute force (isomorphic: {iso})"
    );
    iso
}

#[test]
fn random_structures_equal_iff_isomorphic() {
    let mut rng = Rng(0x5eed_0013);
    let (mut iso, mut non_iso) = (0, 0);
    for case in 0..300 {
        let n = 1 + rng.below(7);
        let a = random_structure(&mut rng, n);
        let da = random_tuple(&mut rng, n);
        let perm = random_perm(&mut rng, n);
        let (b, db) = relabel(&a, &da, &perm);

        // a relabeled copy, the copy with another tuple, the copy with one
        // edge moved, and an unrelated structure on the same domain size
        let mut moved = facts_of(&b);
        if let Some(e) = moved[0].first_mut() {
            *e = vec![rng.below(n) as u32, rng.below(n) as u32];
        }
        let others = [
            (b.clone(), db.clone()),
            (b.clone(), random_tuple(&mut rng, n)),
            (structure(n, &moved), db.clone()),
            (random_structure(&mut rng, n), db.clone()),
        ];
        for (k, (c, dc)) in others.iter().enumerate() {
            let label = format!("case {case} variant {k} (n={n})");
            if check_pair(&a, &da, c, dc, &label) {
                iso += 1;
            } else {
                non_iso += 1;
            }
        }
    }
    assert!(
        iso >= 300 && non_iso >= 300,
        "both outcomes exercised: {iso} / {non_iso}"
    );
}

/// Undirected edge lists: `C_n`, `K_n`, `copies` disjoint paths on `len`
/// nodes.
fn cycle(n: u32) -> Vec<(u32, u32)> {
    (0..n).map(|i| (i, (i + 1) % n)).collect()
}

fn clique(n: u32) -> Vec<(u32, u32)> {
    (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .collect()
}

fn paths(copies: u32, len: u32) -> Vec<(u32, u32)> {
    (0..copies)
        .flat_map(|c| (0..len - 1).map(move |i| (c * len + i, c * len + i + 1)))
        .collect()
}

fn undirected(n: usize, edges: &[(u32, u32)]) -> Structure {
    let mut facts = vec![Vec::new(); 5];
    for &(u, v) in edges {
        facts[0].push(vec![u, v]);
        facts[0].push(vec![v, u]);
    }
    structure(n, &facts)
}

#[test]
fn symmetric_families_equal_iff_isomorphic() {
    let mut rng = Rng(0xc1c1e);
    let mut graphs: Vec<(usize, Vec<(u32, u32)>)> = Vec::new();
    for n in 3..=7u32 {
        graphs.push((n as usize, cycle(n)));
        graphs.push((n as usize, clique(n.min(6))));
    }
    let shift = |es: Vec<(u32, u32)>, by: u32| -> Vec<(u32, u32)> {
        es.into_iter().map(|(u, v)| (u + by, v + by)).collect()
    };
    graphs.extend([
        (6, [cycle(3), shift(cycle(3), 3)].concat()),
        (7, [cycle(3), shift(cycle(4), 3)].concat()),
        (6, paths(3, 2)),
        (6, paths(2, 3)),
        (6, [paths(1, 2), shift(paths(1, 4), 2)].concat()),
        (7, [paths(2, 2), shift(paths(1, 3), 4)].concat()),
        (7, [paths(1, 3), shift(paths(1, 4), 3)].concat()),
    ]);
    // each graph twice under random relabelings, with assorted tuples
    let mut cases: Vec<(String, Structure, Vec<Node>)> = Vec::new();
    for (gi, (n, edges)) in graphs.iter().enumerate() {
        let base = undirected(*n, edges);
        for t in [vec![], vec![0], vec![0, 1], vec![2, 2]] {
            let d: Vec<Node> = t.into_iter().map(Node).collect();
            for copy in 0..2 {
                let (s, ds) = relabel(&base, &d, &random_perm(&mut rng, *n));
                cases.push((format!("graph {gi} tuple {d:?} copy {copy}"), s, ds));
            }
        }
    }
    let mut iso = 0;
    for i in 0..cases.len() {
        for j in i + 1..cases.len() {
            let (li, a, da) = &cases[i];
            let (lj, b, db) = &cases[j];
            iso += check_pair(a, da, b, db, &format!("{li} vs {lj}")) as usize;
        }
    }
    assert!(iso >= cases.len() / 2, "relabeled copies pair up: {iso}");
}

#[test]
fn key_fed_encodings_match_structure_fed_on_cli_build_shape() {
    // the `cli-build` database: bounded degree 2, generator seed 1
    for n in [64, 256] {
        let s = colored(n, lowdeg_gen::DegreeClass::Bounded(2), 1);
        for src in [RUNNING_EXAMPLE, TWO_HOP, TERNARY_SCATTER] {
            let q = parse_query(s.signature(), src).expect("query parses");
            let red = Reduction::build(&s, &q, Epsilon::new(0.5), &ParConfig::from_env())
                .expect("reduction");
            let r = red.radius();
            let mut canon = Canonicalizer::new();
            let (mut key, mut from_key) = (Vec::new(), Vec::new());
            for t in red.core_digest().tuples {
                s.neighborhood_key_of_tuple(&t, r, &mut key);
                let (head, tail) = key.split_at(1 + t.len());
                from_key.clear();
                canon.encode_key(s.signature(), head, tail, &mut from_key);
                let nb = s.neighborhood_of_tuple(&t, r);
                let local = nb.tuple_to_local(&t).expect("tuple in its neighborhood");
                assert_eq!(
                    from_key,
                    canonical_encoding(nb.structure(), &local),
                    "n {n} `{src}` tuple {t:?}"
                );
            }
        }
    }
}
