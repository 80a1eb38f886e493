//! Allocation regression test for Gaifman balls and neighborhood keys.
//!
//! `GaifmanGraph::ball` used to allocate and zero one visited bit per node
//! of the whole graph on every call, so a 7-node ball on a 40,000-node
//! cycle cost ~5 KB of allocation and a memset, and preprocessing, which
//! takes one ball per tuple and position, grew quadratically in `n`. A
//! ball must instead allocate only its output once the calling thread has
//! searched a graph that large. Likewise a neighborhood key, written once
//! per element set of every cluster tuple, must allocate nothing once the
//! calling thread has written one as large and the output buffer is warm.
//!
//! Kept as its own test binary (single `#[test]`) because the counting
//! `#[global_allocator]` observes the whole process; concurrent tests would
//! pollute the count.

use lowdeg_storage::{ball_of_tuple, node, GaifmanGraph, Signature, Structure};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Counts bytes requested while `ENABLED` is set; everything else passes
/// straight through to the system allocator.
struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            BYTES.fetch_add(new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn count_bytes(f: impl FnOnce()) -> usize {
    BYTES.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    f();
    ENABLED.store(false, Ordering::SeqCst);
    BYTES.load(Ordering::SeqCst)
}

/// The cycle `0 → 1 → … → n-1 → 0`, with every third node in `U` and
/// every fifth in `V`.
fn colored_cycle(n: u32) -> Structure {
    let sig = Arc::new(Signature::new(&[("U", 1), ("E", 2), ("V", 1)]));
    let rel = |name| sig.rel(name).unwrap();
    let mut b = Structure::builder(sig.clone(), n as usize);
    for i in 0..n {
        b.edge(rel("E"), node(i), node((i + 1) % n)).unwrap();
        for (name, every) in [("U", 3), ("V", 5)] {
            if i % every == 0 {
                b.fact(rel(name), &[node(i)]).unwrap();
            }
        }
    }
    b.finish().unwrap()
}

fn cycle(n: u32) -> GaifmanGraph {
    GaifmanGraph::build(&colored_cycle(n))
}

#[test]
fn ball_allocates_only_its_output() {
    let small = cycle(1_000);
    let large = cycle(40_000);
    // the first search on this thread sizes its scratch to the large graph
    assert_eq!(large.ball(node(0), 3).len(), 7);

    let mut balls = Vec::with_capacity(2);
    let bytes_small = count_bytes(|| balls.push(small.ball(node(500), 3)));
    let bytes_large = count_bytes(|| balls.push(large.ball(node(20_000), 3)));
    assert_eq!(balls[0], (497..=503).map(node).collect::<Vec<_>>());
    assert_eq!(balls[1], (19_997..=20_003).map(node).collect::<Vec<_>>());

    // A 7-node ball's output vector grows to 8 nodes: well under 256 bytes
    // in all. A visited set over the whole graph alone would be 5,000.
    assert!(
        bytes_large <= 256,
        "a 7-node ball on a 40,000-node graph allocated {bytes_large} bytes"
    );
    assert_eq!(
        bytes_large, bytes_small,
        "a ball's allocation must not grow with the graph"
    );

    let s = colored_cycle(1_000);
    let tuple = [node(10), node(20)];
    let members = ball_of_tuple(s.gaifman(), &tuple, 3);
    let mut key = Vec::new();
    // the first key builds the incidence index and sizes the scratch
    s.neighborhood_key_with_members(&members, &tuple, &mut key);
    let first = key.clone();
    let bytes_key = count_bytes(|| s.neighborhood_key_with_members(&members, &tuple, &mut key));
    assert_eq!(key, first);
    assert_eq!(
        bytes_key, 0,
        "a warm neighborhood key allocated {bytes_key} bytes"
    );
}
