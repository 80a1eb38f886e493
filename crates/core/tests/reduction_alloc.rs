//! Allocation witness for the Prop 3.3 core: a built `Reduction` keeps
//! each canonical type once, as one exact neighborhood key in a flat
//! per-core CSR, each cluster tuple once, in the tuple CSR, and each
//! reduced clause once, as a row of colour-set ids in `ψ`'s clause table.
//! It holds no heap key per tuple, no representative `Structure` per type
//! and no allocation per clause.
//!
//! What the reduction must hold is `G`: one colour relation (and name)
//! per type, so on the `cli-build` disjunction over `generate 1024 2 1`
//! (3,821 types, 4,325 clauses over 325 colour sets, 6,848 cluster
//! tuples) `G` alone is 11,487 live allocations. The witness counts
//! everything else the reduction holds, `ψ` included, and requires fewer
//! allocations than cluster tuples. Measured, serial build: 22,339 when
//! `ψ` kept per clause a colour list per position and the packed
//! signature twice (33,826 held in all; the test fails), 716 with the
//! clause table (12,203 in all).
//!
//! Kept as its own test binary (single `#[test]`) because the counting
//! `#[global_allocator]` observes the whole process; concurrent tests would
//! pollute the count.

use lowdeg_core::Reduction;
use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
use lowdeg_index::Epsilon;
use lowdeg_logic::parse_query;
use lowdeg_par::ParConfig;
use lowdeg_storage::node;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Tracks the number of live allocations; everything else passes straight
/// through to the system allocator.
struct CountingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The `cli-build` disjunction.
const DISJUNCTION: &str = "(B(x) & R(y) & !E(x, y) & (exists z. E(x, z) & R(z))) \
    | (B(x) & G(y) & E(x, y) & (exists z. E(y, z) & R(z)))";

/// Run `f`; the live allocations it leaves behind, held by its result.
fn held_by<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE.load(Ordering::SeqCst);
    let out = f();
    (out, LIVE.load(Ordering::SeqCst) - before)
}

#[test]
fn reduction_holds_fewer_allocations_than_cluster_tuples() {
    let s = ColoredGraphSpec::balanced(1024, DegreeClass::Bounded(2)).generate(1);
    let q = parse_query(s.signature(), DISJUNCTION).unwrap();
    let par = ParConfig::serial();
    // the base structure's own caches: its Gaifman graph, and its fact
    // incidence (which every neighborhood key reads)
    s.gaifman_with(&par);
    s.neighborhood_of_tuple(&[node(0)], 1);

    let (red, held) = held_by(|| Reduction::build(&s, &q, Epsilon::new(0.5), &par).unwrap());
    // What `G` holds by design, counted as clones: its signature (each
    // colour's name twice) and its colour relations. `ψ` is not
    // subtracted: its clause table is a handful of flat vectors.
    let (_, signature) = held_by(|| (**red.graph().signature()).clone());
    let (_, graph) = held_by(|| red.graph().clone());
    let g = signature + graph;

    let tuples = red.core_digest().tuples.len() as isize;
    let rest = held - g;
    eprintln!("cluster tuples {tuples}; held {held}, of which G {g}, rest {rest}");
    assert!(
        rest < tuples,
        "beyond G the reduction holds {rest} allocations for {tuples} cluster tuples"
    );
}
