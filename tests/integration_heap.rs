//! Live-heap regression net for the saturated store's maintainer.
//!
//! A counting global allocator measures the live bytes a
//! `CountingMaintainer` holds over LUBM-1, built both ways a store builds
//! one: from a loaded graph (startup, recovery, a strategy switch) and
//! triple by triple (a load over `POST /update`). The maintainer keeps one
//! graph, `G∞`, and records explicitness as a bit on its derivation
//! counts; a second full graph for `G` trips the bound below.
//!
//! This binary holds one test, so no other test allocates while it
//! measures.

use rdf_model::{Graph, Triple};
use rdfs::incremental::{CountingMaintainer, Maintainer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use workload::lubm::{generate, LubmConfig};

/// Forwards to the system allocator and tracks the bytes currently live.
struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter only observes sizes.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// Live bytes per saturated triple at LUBM-1. `G∞` plus its counts measure
/// 199 built either way; a second graph for `G` beside them measures 278
/// built from a graph and 340 inserted one by one.
const BOUND: f64 = 240.0;

/// Live bytes `build` leaves allocated per triple of the `G∞` it returns.
fn bytes_per_saturated_triple(build: impl FnOnce() -> CountingMaintainer) -> (f64, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    let m = build();
    let bytes = LIVE.load(Ordering::Relaxed) - before;
    let sat = m.saturated().len();
    (bytes as f64 / sat as f64, sat)
}

#[test]
fn a_counting_maintainer_holds_one_graph() {
    let ds = generate(&LubmConfig::default());
    let triples: Vec<Triple> = ds.graph.iter().collect();
    let vocab = ds.vocab;
    drop(ds);

    let (loaded, sat) = bytes_per_saturated_triple(|| {
        CountingMaintainer::new(triples.iter().copied().collect::<Graph>(), vocab)
    });
    let (inserted, _) = bytes_per_saturated_triple(|| {
        let mut m = CountingMaintainer::new(Graph::new(), vocab);
        for &t in &triples {
            m.insert(t);
        }
        m
    });
    println!(
        "LUBM-1: {} explicit, {sat} saturated triples; \
         {loaded:.1} B/triple built from a graph, {inserted:.1} B/triple inserted one by one",
        triples.len()
    );
    assert!(
        loaded < BOUND,
        "built from a graph: {loaded:.1} B per saturated triple (bound {BOUND})"
    );
    assert!(
        inserted < BOUND,
        "inserted one by one: {inserted:.1} B per saturated triple (bound {BOUND})"
    );
}
