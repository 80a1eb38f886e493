//! Standard workloads shared by the experiment tables, `bench_gate` and
//! the integration tests: colored graphs across the paper's degree
//! classes, colored padded cliques, and the standing query corpus.

use lowdeg_gen::{padded_clique, ColoredGraphSpec, DegreeClass};
use lowdeg_storage::{Node, Signature, Structure};
use std::sync::Arc;

/// A balanced colored graph of size `n` from the given degree class.
pub fn colored(n: usize, class: DegreeClass, seed: u64) -> Structure {
    ColoredGraphSpec::balanced(n, class).generate(seed)
}

/// The degree classes every scaling experiment sweeps.
pub fn degree_classes() -> Vec<DegreeClass> {
    vec![
        DegreeClass::Bounded(4),
        DegreeClass::LogPower(1.0),
        DegreeClass::Poly(0.3),
    ]
}

/// A padded clique of `⌈log₂ n⌉` nodes inside an `n`-element domain,
/// recolored over `{E, B, R, G}`: clique nodes blue, padding alternately
/// red/green. The §2.3 family — low degree, not nowhere dense.
pub fn colored_padded_clique(n: usize) -> Structure {
    let k = (n.max(2) as f64).log2().ceil() as usize;
    let base = padded_clique(k.min(n), n);
    let sig = Arc::new(Signature::new(&[("E", 2), ("B", 1), ("R", 1), ("G", 1)]));
    let e = sig.rel("E").expect("E");
    let b = sig.rel("B").expect("B");
    let r = sig.rel("R").expect("R");
    let g = sig.rel("G").expect("G");
    let mut builder = Structure::builder(sig, n);
    let base_e = base.signature().rel("E").expect("base edge");
    for t in base.relation(base_e).iter() {
        builder.fact(e, t).expect("in range");
    }
    for i in 0..n {
        let rel = if i < k {
            b
        } else if i % 2 == 0 {
            r
        } else {
            g
        };
        builder.fact(rel, &[Node(i as u32)]).expect("in range");
    }
    builder.finish().expect("non-empty")
}

/// The standing binary query of most experiments (the paper's running
/// example).
pub const RUNNING_EXAMPLE: &str = "B(x) & R(y) & !E(x, y)";

/// A connected quantified query (radius 1 after localization).
pub const TWO_HOP: &str = "exists z. E(x, z) & E(z, y)";

/// A ternary clause with three negated binary atoms (the `2^m` stressor).
pub const TERNARY_SCATTER: &str = "B(x) & R(y) & G(z) & !E(x, y) & !E(y, z) & !E(x, z)";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_clique_colored_consistently() {
        let s = colored_padded_clique(64);
        assert_eq!(s.cardinality(), 64);
        assert_eq!(s.degree(), 5); // clique of 6 → degree 5
        let b = s.signature().rel("B").unwrap();
        assert_eq!(s.relation(b).len(), 6);
    }

    #[test]
    fn workload_classes_generate() {
        for class in degree_classes() {
            let s = colored(128, class, 1);
            assert_eq!(s.cardinality(), 128);
            assert!(s.degree() <= class.cap(128));
        }
    }
}
