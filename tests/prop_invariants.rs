//! Property-based tests (proptest) of the core invariants:
//!
//! * the Storing-Theorem store behaves exactly like a `BTreeMap` model,
//!   across ε values and arities;
//! * canonical neighborhood types are invariant under structure
//!   isomorphism;
//! * the full pipeline (count / test / enumerate) agrees with the naive
//!   oracle on randomly generated colored graphs;
//! * the blue–red running-example enumerator agrees with the oracle.

use lowdeg_core::bluered::BlueRed;
use lowdeg_core::{Engine, EngineConfig};
use lowdeg_index::{Epsilon, RadixFuncStore};
use lowdeg_locality::types::canonical_encoding;
use lowdeg_logic::eval::answers_naive;
use lowdeg_logic::parse_query;
use lowdeg_par::ParConfig;
use lowdeg_storage::{Node, Signature, Structure};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

// ---------- Storing Theorem vs model ----------

#[derive(Debug, Clone)]
enum StoreOp {
    Insert(Vec<u32>, u16),
    Get(Vec<u32>),
}

fn store_ops(n: u32, arity: usize) -> impl Strategy<Value = Vec<StoreOp>> {
    let key = prop::collection::vec(0..n, arity);
    prop::collection::vec(
        prop_oneof![
            (key.clone(), any::<u16>()).prop_map(|(k, v)| StoreOp::Insert(k, v)),
            key.prop_map(StoreOp::Get),
        ],
        0..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn radix_store_matches_btreemap(
        ops in store_ops(97, 2),
        eps in 0.05f64..2.0,
    ) {
        let eps = Epsilon::new(eps);
        let mut store: RadixFuncStore<u16> = RadixFuncStore::new(97, 2, eps);
        let mut model: BTreeMap<Vec<u32>, u16> = BTreeMap::new();
        for op in ops {
            match op {
                StoreOp::Insert(k, v) => {
                    let key: Vec<Node> = k.iter().map(|&x| Node(x)).collect();
                    let old = store.insert(&key, v);
                    let model_old = model.insert(k, v);
                    prop_assert_eq!(old, model_old);
                }
                StoreOp::Get(k) => {
                    let key: Vec<Node> = k.iter().map(|&x| Node(x)).collect();
                    prop_assert_eq!(store.get(&key).copied(), model.get(&k).copied());
                }
            }
            prop_assert_eq!(store.len(), model.len());
        }
    }

    #[test]
    fn radix_store_ternary(
        ops in store_ops(12, 3),
    ) {
        let mut store: RadixFuncStore<u16> = RadixFuncStore::new(12, 3, Epsilon::new(0.3));
        let mut model: BTreeMap<Vec<u32>, u16> = BTreeMap::new();
        for op in ops {
            match op {
                StoreOp::Insert(k, v) => {
                    let key: Vec<Node> = k.iter().map(|&x| Node(x)).collect();
                    prop_assert_eq!(store.insert(&key, v), model.insert(k, v));
                }
                StoreOp::Get(k) => {
                    let key: Vec<Node> = k.iter().map(|&x| Node(x)).collect();
                    prop_assert_eq!(store.get(&key).copied(), model.get(&k).copied());
                }
            }
        }
    }
}

// ---------- random colored graphs ----------

#[derive(Debug, Clone)]
struct RawGraph {
    n: usize,
    edges: Vec<(u32, u32)>,
    blue: Vec<u32>,
    red: Vec<u32>,
}

fn raw_graph(max_n: usize) -> impl Strategy<Value = RawGraph> {
    (4..max_n).prop_flat_map(|n| {
        let node = 0..n as u32;
        (
            Just(n),
            prop::collection::vec((node.clone(), node.clone()), 0..2 * n),
            prop::collection::vec(node.clone(), 0..n),
            prop::collection::vec(node, 0..n),
        )
            .prop_map(|(n, edges, blue, red)| RawGraph {
                n,
                edges,
                blue,
                red,
            })
    })
}

fn build_graph(raw: &RawGraph) -> Structure {
    let sig = Arc::new(Signature::new(&[("E", 2), ("B", 1), ("R", 1)]));
    let e = sig.rel("E").unwrap();
    let b = sig.rel("B").unwrap();
    let r = sig.rel("R").unwrap();
    let mut builder = Structure::builder(sig, raw.n);
    for &(u, v) in &raw.edges {
        if u != v {
            builder.undirected_edge(e, Node(u), Node(v)).unwrap();
        }
    }
    for &u in &raw.blue {
        builder.fact(b, &[Node(u)]).unwrap();
    }
    for &u in &raw.red {
        builder.fact(r, &[Node(u)]).unwrap();
    }
    builder.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pipeline == oracle on arbitrary (not merely low-degree!) graphs:
    /// the algorithms stay *correct* for every input; low degree only
    /// affects speed.
    #[test]
    fn pipeline_matches_oracle(raw in raw_graph(14)) {
        use lowdeg_core::enumerate::SkipMode;
        let s = build_graph(&raw);
        for src in ["B(x) & R(y) & !E(x, y)", "exists z. E(x, z) & R(z)"] {
            let q = parse_query(s.signature(), src).unwrap();
            let oracle: BTreeSet<Vec<Node>> =
                answers_naive(&s, &q).into_iter().collect();
            for mode in [SkipMode::Eager, SkipMode::Lazy, SkipMode::EagerForce] {
                let config = EngineConfig {
                    skip_mode: mode,
                    eps: Epsilon::new(0.5),
                    ..EngineConfig::default()
                };
                let par = ParConfig::from_env();
                let engine = Engine::build_configured(&s, &q, &config, &par, None).unwrap();
                prop_assert_eq!(engine.count(), oracle.len() as u64);
                let got: Vec<Vec<Node>> = engine.enumerate().collect();
                let got_set: BTreeSet<Vec<Node>> = got.iter().cloned().collect();
                prop_assert_eq!(got.len(), got_set.len(), "{:?} dups", mode);
                prop_assert_eq!(&got_set, &oracle, "{:?} answers", mode);
                for t in oracle.iter().take(10) {
                    prop_assert!(engine.test(t));
                }
                // ops accounting yields the same sequence
                let seq: Vec<Vec<Node>> =
                    engine.enumerate_with_ops().map(|(t, _)| t).collect();
                prop_assert_eq!(seq, got);
            }
        }
    }

    /// The running-example enumerator (Example 3.8) == oracle.
    #[test]
    fn bluered_matches_oracle(raw in raw_graph(20)) {
        let s = build_graph(&raw);
        let br = BlueRed::build(&s, Epsilon::new(0.5));
        let got: Vec<(Node, Node)> = br.enumerate().collect();
        let got_set: BTreeSet<(Node, Node)> = got.iter().copied().collect();
        prop_assert_eq!(got.len(), got_set.len());
        let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        let want: BTreeSet<(Node, Node)> = answers_naive(&s, &q)
            .into_iter()
            .map(|t| (t[0], t[1]))
            .collect();
        prop_assert_eq!(got_set, want);
    }

    /// Canonical types are isomorphism-invariant: applying a random
    /// permutation to the structure (and the distinguished tuple) never
    /// changes the encoding.
    #[test]
    fn canonical_types_permutation_invariant(
        raw in raw_graph(10),
        perm_seed in any::<u64>(),
        d0 in 0u32..10,
        d1 in 0u32..10,
    ) {
        let s = build_graph(&raw);
        let n = raw.n as u32;
        let (d0, d1) = (d0 % n, d1 % n);
        // deterministic permutation from the seed
        let mut perm: Vec<u32> = (0..n).collect();
        let mut state = perm_seed | 1;
        for i in (1..perm.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let permuted = RawGraph {
            n: raw.n,
            edges: raw
                .edges
                .iter()
                .map(|&(u, v)| (perm[u as usize], perm[v as usize]))
                .collect(),
            blue: raw.blue.iter().map(|&u| perm[u as usize]).collect(),
            red: raw.red.iter().map(|&u| perm[u as usize]).collect(),
        };
        let t = build_graph(&permuted);
        let enc_s = canonical_encoding(&s, &[Node(d0), Node(d1)]);
        let enc_t = canonical_encoding(
            &t,
            &[Node(perm[d0 as usize]), Node(perm[d1 as usize])],
        );
        prop_assert_eq!(enc_s, enc_t);
    }
}
