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

mod live_heap;

use rdf_model::{Graph, Triple};
use rdfs::incremental::CountingMaintainer;
use workload::lubm::{generate, LubmConfig};

/// Live bytes per saturated triple at LUBM-1: `G∞` plus its counts measure
/// 58.0 built either way, and the bound is that plus 15%. A second graph
/// for `G` beside them would add about 21 (51 522 triples at 31 B each).
const BOUND: f64 = 66.7;

/// Live bytes `build` leaves allocated per triple of the `G∞` it returns.
fn bytes_per_saturated_triple(build: impl FnOnce() -> CountingMaintainer) -> (f64, usize) {
    let (bytes, m) = live_heap::measure(build);
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
