//! Step 5 decides acceptance of each partition × type combination by
//! evaluating the localized matrix on the disjoint union of the
//! combination's types. The engine never builds that union, nor a
//! structure per type: a type is its stored neighborhood key, read as a
//! `KeyView`, and Step 5 evaluates against `UnionView`, a borrowed view
//! that dispatches each question to the owning key view by node offset.
//!
//! This suite checks the view against the union it stands for. For every
//! corpus query shape × degree class it samples partition × type
//! combinations of the core's realized types (k = 2 and k = 3), builds
//! the union explicitly with a `StructureBuilder` from the keys' fact
//! records, and asserts that every formula of a battery evaluates
//! identically on both under the same assignment: the query's own
//! localized matrix and clause matrices, plus hand-written formulas
//! covering nullary (`true`/`false`), unary and binary atoms (including
//! atoms spanning two parts), `=`, `dist` guards with both comparisons
//! and both argument orders, and `∃`/`∀` blocks that range over the whole
//! union domain. A random structure with a ternary relation has its own
//! battery: wide facts make Gaifman cliques, so the keys' distances are
//! checked beyond plain edges.

use lowdeg_bench::workloads::{
    colored, colored_padded_clique, degree_classes, RUNNING_EXAMPLE, TERNARY_SCATTER, TWO_HOP,
};
use lowdeg_core::reduction::UnionView;
use lowdeg_core::Reduction;
use lowdeg_gen::{random_structure_spec, RandomStructureSpec};
use lowdeg_index::Epsilon;
use lowdeg_locality::KeyView;
use lowdeg_logic::eval::{eval, Assignment, Model};
use lowdeg_logic::{parse_query, Formula, Var};
use lowdeg_par::ParConfig;
use lowdeg_storage::{Node, Signature, Structure};
use std::sync::Arc;

/// Sampled combinations per partition.
const SAMPLES: usize = 24;

/// Hand-written formulas over `{E, B, R, G}` with free variables `x, y`.
const BINARY_BATTERY: &[&str] = &[
    "true",
    "false",
    "!true | false",
    "B(x) & R(y)",
    "!G(x) | B(y)",
    "E(x, y)",
    "E(y, x) | E(x, x)",
    "x = y",
    "x != y",
    "dist(x, y) <= 1",
    "dist(x, y) <= 3",
    "dist(x, y) > 2",
    "dist(y, x) <= 2",
    "dist(y, x) > 0",
    "exists z. E(x, z) & dist(z, y) <= 2",
    "forall z. dist(x, z) > 1 | B(z) | R(z) | G(z)",
    "exists z w. E(z, w) & z != x & w != y",
    "forall z. exists w. E(z, w) | z = w",
    "exists z. forall w. dist(z, w) > 2 | w = x | w = y",
];

/// Hand-written formulas over `{E, B, R, G}` with free variables `x, y, z`.
const TERNARY_BATTERY: &[&str] = &[
    "B(x) & R(y) & G(z)",
    "E(x, z) | E(z, y)",
    "x = z | y != z",
    "dist(x, z) <= 2 & dist(z, y) > 1",
    "dist(z, x) > 3 | dist(y, z) <= 1",
    "exists u. E(x, u) & E(u, z)",
    "forall u v. !E(u, v) | dist(u, x) <= 4 | dist(v, y) > 1",
    "exists u. forall v. dist(u, v) > 1 | v = z",
];

/// Hand-written formulas over `{M/3, Lead, Guest}` with free variables
/// `x, y`.
const MEETING_BATTERY: &[&str] = &[
    "M(x, y, y) | M(y, x, x)",
    "Lead(x) & !Guest(y)",
    "x = y | M(x, x, y)",
    "dist(x, y) <= 1",
    "dist(x, y) <= 2",
    "dist(y, x) > 1",
    "dist(x, y) > 3",
    "exists z. M(x, z, y)",
    "exists z w. M(z, x, w) & dist(w, y) <= 2",
    "forall z. dist(x, z) > 1 | Lead(z) | Guest(z)",
    "exists z. forall w. dist(z, w) > 1 | w = x",
];

/// The battery for the colored-graph corpus at arity `k`.
fn colored_battery(k: usize) -> &'static [&'static str] {
    if k == 2 {
        BINARY_BATTERY
    } else {
        TERNARY_BATTERY
    }
}

/// A fixed-seed splitmix64 stream: deterministic samples, no dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// All partitions of `{0..k-1}`, each part sorted ascending.
fn partitions(k: usize) -> Vec<Vec<Vec<usize>>> {
    fn rec(k: usize, next: usize, parts: &mut Vec<Vec<usize>>, out: &mut Vec<Vec<Vec<usize>>>) {
        if next == k {
            out.push(parts.clone());
            return;
        }
        for i in 0..parts.len() {
            parts[i].push(next);
            rec(k, next + 1, parts, out);
            parts[i].pop();
        }
        parts.push(vec![next]);
        rec(k, next + 1, parts, out);
        parts.pop();
    }
    let mut out = Vec::new();
    rec(k, 0, &mut Vec::new(), &mut out);
    out
}

/// The disjoint union of `parts`, materialized from their fact records:
/// part `i`'s domain is shifted by the sum of the preceding cardinalities.
fn explicit_union(sig: &Arc<Signature>, parts: &[KeyView]) -> Structure {
    let n: usize = parts.iter().map(|p| p.cardinality()).sum();
    let mut b = Structure::builder(sig.clone(), n);
    let mut offset = 0u32;
    for part in parts {
        for (rel, ids) in part.facts() {
            let shifted: Vec<Node> = ids.iter().map(|&l| Node(l + offset)).collect();
            b.fact(rel, &shifted).expect("in range");
        }
        offset += part.cardinality() as u32;
    }
    b.finish().expect("non-empty union")
}

/// Evaluate `f` on `model` with `free[i]` bound to `at[i]`.
fn eval_at(model: &(impl Model + ?Sized), free: &[Var], at: &[Node], f: &Formula) -> bool {
    let mut asg = Assignment::default();
    for (&v, &a) in free.iter().zip(at) {
        asg.bind(v, a);
    }
    eval(model, f, &mut asg)
}

/// Sample combinations of `red`'s realized types and assert the view and
/// the explicit union agree on every formula of the query and `battery`.
/// Returns the number of combinations checked.
fn check_reduction(s: &Structure, src: &str, battery: &[&str], label: &str, seed: u64) -> usize {
    let q = parse_query(s.signature(), src).expect("query parses");
    let red = Reduction::build(s, &q, Epsilon::new(0.5), &ParConfig::from_env())
        .expect("reduction builds");
    let k = q.arity();
    let local = red.local_query();
    let mut formulas: Vec<(Vec<Var>, Formula, String)> = Vec::new();
    formulas.push((local.free.clone(), local.matrix.clone(), "matrix".into()));
    for (i, m) in local.clause_matrices.iter().enumerate() {
        formulas.push((local.free.clone(), m.clone(), format!("clause {i}")));
    }
    for text in battery {
        let f = parse_query(s.signature(), text).expect("battery formula parses");
        formulas.push((f.free, f.formula, (*text).to_string()));
    }

    let reps = red.type_representatives();
    let mut rng = Rng(seed);
    let mut checked = 0;
    for p in partitions(k) {
        if p.iter().any(|part| reps[part.len()].is_empty()) {
            continue;
        }
        for _ in 0..SAMPLES {
            let parts: Vec<KeyView> = p
                .iter()
                .map(|part| {
                    let of_size = &reps[part.len()];
                    of_size[rng.below(of_size.len())]
                })
                .collect();
            // answer position → node of the union, as Step 5 places the
            // distinguished tuples
            let mut at = vec![Node(0); k];
            let mut offset = 0u32;
            for (part, rep) in p.iter().zip(&parts) {
                for (&pos, &d) in part.iter().zip(rep.tuple()) {
                    at[pos] = Node(d + offset);
                }
                offset += rep.cardinality() as u32;
            }
            let view = UnionView::new(&parts);
            let union = explicit_union(s.signature(), &parts);
            assert_eq!(view.cardinality(), union.cardinality(), "{label}");
            for (free, f, name) in &formulas {
                assert_eq!(
                    eval_at(&view, free, &at, f),
                    eval_at(&union, free, &at, f),
                    "{label}: `{src}` partition {p:?}, `{name}` at {at:?}"
                );
            }
            checked += 1;
        }
    }
    checked
}

#[test]
fn view_matches_explicit_union_across_corpus_and_degree_classes() {
    for class in degree_classes() {
        let s = colored(96, class, 5);
        for (i, src) in [RUNNING_EXAMPLE, TWO_HOP, TERNARY_SCATTER]
            .into_iter()
            .enumerate()
        {
            let label = format!("{class:?}");
            let battery = colored_battery(if src == TERNARY_SCATTER { 3 } else { 2 });
            let checked = check_reduction(&s, src, battery, &label, 17 + i as u64);
            assert!(checked > 0, "{label}: `{src}` sampled no combination");
        }
    }
}

#[test]
fn view_matches_explicit_union_on_padded_clique() {
    // low degree but not nowhere dense: the clique's representatives are
    // the largest parts the view dispatches into
    let s = colored_padded_clique(48);
    for src in [RUNNING_EXAMPLE, TWO_HOP, TERNARY_SCATTER] {
        let battery = colored_battery(if src == TERNARY_SCATTER { 3 } else { 2 });
        assert!(check_reduction(&s, src, battery, "clique", 3) > 0);
    }
}

#[test]
fn view_matches_explicit_union_over_a_ternary_relation() {
    // the ternary-structure suite's shape: one ternary relation and two
    // unary roles, so facts are Gaifman triangles and a key's records mix
    // arities
    let sig = Arc::new(Signature::new(&[("M", 3), ("Lead", 1), ("Guest", 1)]));
    let spec = RandomStructureSpec {
        signature: sig,
        n: 40,
        tuples_per_node: 0.6,
        max_degree: 5,
        unary_density: 0.35,
    };
    let s = random_structure_spec(&spec, 57);
    for (i, src) in [
        "Lead(x) & Guest(y) & !M(x, y, y)",
        "exists z. M(x, z, y) & Lead(z)",
        "Lead(x) & (exists z. M(x, y, z))",
    ]
    .into_iter()
    .enumerate()
    {
        let checked = check_reduction(&s, src, MEETING_BATTERY, "ternary", 29 + i as u64);
        assert!(checked > 0, "`{src}` sampled no combination");
    }
}

#[test]
fn atoms_spanning_parts_are_false_and_parts_are_infinitely_far() {
    let s = colored(64, lowdeg_gen::DegreeClass::Bounded(4), 9);
    let q = parse_query(s.signature(), TWO_HOP).unwrap();
    let red = Reduction::build(&s, &q, Epsilon::new(0.5), &ParConfig::from_env()).unwrap();
    let reps = red.type_representatives();
    let (a, b) = (reps[1][0], reps[1][reps[1].len() - 1]);
    let view = UnionView::new(&[a, b]);
    let x = Node(a.tuple()[0]);
    let y = Node(b.tuple()[0] + a.cardinality() as u32);
    let e = s.signature().rel("E").unwrap();
    assert!(!view.holds(e, &[x, y]));
    assert!(!view.holds(e, &[y, x]));
    assert!(!view.within_distance(x, y, usize::MAX));
    assert!(view.within_distance(x, x, 0));
    assert!(view.within_distance(y, y, 0));
    assert_eq!(view.cardinality(), a.cardinality() + b.cardinality());
}
