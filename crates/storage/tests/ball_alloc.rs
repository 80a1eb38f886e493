//! Allocation regression test for Gaifman balls.
//!
//! `GaifmanGraph::ball` used to allocate and zero one visited bit per node
//! of the whole graph on every call, so a 7-node ball on a 40,000-node
//! cycle cost ~5 KB of allocation and a memset, and preprocessing, which
//! takes one ball per tuple and position, grew quadratically in `n`. A
//! ball must instead allocate only its output once the calling thread has
//! searched a graph that large.
//!
//! Kept as its own test binary (single `#[test]`) because the counting
//! `#[global_allocator]` observes the whole process; concurrent tests would
//! pollute the count.

use lowdeg_storage::{node, GaifmanGraph, Signature, Structure};
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

fn cycle(n: u32) -> GaifmanGraph {
    let sig = Arc::new(Signature::new(&[("E", 2)]));
    let e = sig.rel("E").unwrap();
    let mut b = Structure::builder(sig, n as usize);
    for i in 0..n {
        b.edge(e, node(i), node((i + 1) % n)).unwrap();
    }
    GaifmanGraph::build(&b.finish().unwrap())
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
}
