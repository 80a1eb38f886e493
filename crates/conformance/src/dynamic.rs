//! Randomized update-script oracle for [`DynamicBlueRed`].
//!
//! The harness drives the incremental structure with a random script of
//! edge/color insertions and deletions while maintaining its own mirror
//! of the intended state. At checkpoints the mirror is materialized into
//! a [`Structure`] and three independent evaluations must agree:
//!
//! 1. the incrementally maintained `DynamicBlueRed` (answers/count/test),
//! 2. a `DynamicBlueRed` rebuilt from scratch off the materialized state,
//! 3. the naive evaluator (and the static [`Engine`] when it builds) on
//!    the running-example query `B(x) & R(y) & !E(x, y)`.

use crate::differential::Disagreement;
use lowdeg_core::dynamic::DynamicBlueRed;
use lowdeg_core::Engine;
use lowdeg_gen::colored_graph_signature;
use lowdeg_index::Epsilon;
use lowdeg_logic::eval::answers_naive;
use lowdeg_logic::parse_query;
use lowdeg_storage::{Node, Structure};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Mirror of the dynamic state, materializable into a [`Structure`].
#[derive(Default)]
struct Mirror {
    edges: BTreeSet<(u32, u32)>,
    blue: BTreeSet<u32>,
    red: BTreeSet<u32>,
}

impl Mirror {
    fn materialize(&self, domain: usize) -> Structure {
        let sig = colored_graph_signature();
        let e = sig.rel("E").expect("E");
        let b_rel = sig.rel("B").expect("B");
        let r_rel = sig.rel("R").expect("R");
        let mut b = Structure::builder(sig.clone(), domain);
        for &(u, v) in &self.edges {
            b.fact(e, &[Node(u), Node(v)]).expect("in range");
        }
        for &x in &self.blue {
            b.fact(b_rel, &[Node(x)]).expect("in range");
        }
        for &y in &self.red {
            b.fact(r_rel, &[Node(y)]).expect("in range");
        }
        b.finish().expect("non-empty")
    }
}

/// Run one random update script of `steps` operations over a domain of
/// `domain` nodes, checkpointing every `checkpoint` steps.
pub fn dynamic_case(
    seed: u64,
    steps: usize,
    domain: usize,
    checkpoint: usize,
) -> Vec<Disagreement> {
    let mut bad = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = DynamicBlueRed::new();
    let mut mirror = Mirror::default();
    let domain = domain.max(2);

    for step in 0..steps {
        let u = rng.gen_range(0..domain) as u32;
        let v = rng.gen_range(0..domain) as u32;
        match rng.gen_range(0..8u32) {
            0 | 1 => {
                d.insert_edge(Node(u), Node(v));
                if u != v {
                    mirror.edges.insert((u, v));
                    mirror.edges.insert((v, u));
                }
            }
            2 => {
                d.delete_edge(Node(u), Node(v));
                mirror.edges.remove(&(u, v));
                mirror.edges.remove(&(v, u));
            }
            3 => {
                d.insert_blue(Node(u));
                mirror.blue.insert(u);
            }
            4 => {
                d.insert_red(Node(u));
                mirror.red.insert(u);
            }
            5 => {
                d.delete_blue(Node(u));
                mirror.blue.remove(&u);
            }
            6 => {
                d.delete_red(Node(u));
                mirror.red.remove(&u);
            }
            _ => {
                d.insert_edge(Node(u), Node(v));
                if u != v {
                    mirror.edges.insert((u, v));
                    mirror.edges.insert((v, u));
                }
            }
        }

        if step % checkpoint.max(1) != 0 && step != steps - 1 {
            continue;
        }

        let s = mirror.materialize(domain);
        let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").expect("running example");
        let oracle: Vec<(Node, Node)> = answers_naive(&s, &q)
            .into_iter()
            .map(|t| (t[0], t[1]))
            .collect();

        // incrementally maintained vs naive
        let live = d.answers();
        if live != oracle {
            bad.push(Disagreement::new(
                "dynamic-incremental-vs-naive",
                format!(
                    "step {step}: incremental found {} answers, naive {}",
                    live.len(),
                    oracle.len()
                ),
            ));
            break;
        }
        if d.count() != oracle.len() as u64 {
            bad.push(Disagreement::new(
                "dynamic-count",
                format!(
                    "step {step}: count() = {}, naive = {}",
                    d.count(),
                    oracle.len()
                ),
            ));
            break;
        }
        for &(x, y) in oracle.iter().take(16) {
            if !d.test(x, y) {
                bad.push(Disagreement::new(
                    "dynamic-test",
                    format!("step {step}: test({x:?}, {y:?}) = false on an answer"),
                ));
                break;
            }
        }

        // rebuilt-from-scratch vs incrementally maintained
        let mut rebuilt = DynamicBlueRed::from_structure(&s);
        if rebuilt.answers() != live {
            bad.push(Disagreement::new(
                "dynamic-rebuild",
                format!("step {step}: rebuild-from-scratch disagrees with incremental"),
            ));
            break;
        }

        // static engine vs naive, when it builds on the materialized state
        if let Ok(engine) = Engine::build(&s, &q, Epsilon::default_eps()) {
            let got: BTreeSet<Vec<Node>> = engine.enumerate().collect();
            let want: BTreeSet<Vec<Node>> = oracle.iter().map(|&(x, y)| vec![x, y]).collect();
            if got != want {
                bad.push(Disagreement::new(
                    "dynamic-static-engine",
                    format!("step {step}: static Engine disagrees with naive"),
                ));
                break;
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_agree_across_seeds() {
        for seed in 0..4 {
            let bad = dynamic_case(seed, 300, 24, 25);
            assert!(bad.is_empty(), "seed {seed}: {bad:?}");
        }
    }

    #[test]
    fn tiny_domain_edge_cases() {
        // domain 2 maximizes collision/self-loop traffic
        let bad = dynamic_case(9, 200, 2, 10);
        assert!(bad.is_empty(), "{bad:?}");
    }
}
