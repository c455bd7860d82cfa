//! Live-heap regression net for the triple indexes and the dictionary.
//!
//! A counting global allocator measures the live bytes of LUBM-1's base
//! graph built by inserting every triple, and of a dictionary built by
//! encoding every term. The indexes keep sorted id runs, so a triple costs
//! a few ids per index plus its share of the chunks; the dictionary keeps
//! each term once, with a table of ids beside it.
//!
//! This binary holds one test, so no other test allocates while it
//! measures.

mod live_heap;

use rdf_model::{Dictionary, Graph, Term, Triple};
use workload::lubm::{generate, LubmConfig};

/// Live bytes per triple of a `Graph` built triple by triple at LUBM-1.
/// Hash-set leaves measured 212; sorted pairs measure 31.
const GRAPH_BOUND: f64 = 40.0;

/// Live bytes per term of a `Dictionary` at LUBM-1: 240.6 when every term
/// was stored twice, less the 84.7 one copy of the terms takes. Storing
/// each term once measures 106.
const DICTIONARY_BOUND: f64 = 155.9;

#[test]
fn the_indexes_and_the_dictionary_stay_compact() {
    let ds = generate(&LubmConfig::default());
    let triples: Vec<Triple> = ds.graph.iter().collect();
    let terms: Vec<Term> = ds.dict.iter().map(|(_, t)| t.clone()).collect();
    drop(ds);

    let (bytes, g) = live_heap::measure(|| {
        let mut g = Graph::new();
        for &t in &triples {
            g.insert(t);
        }
        g
    });
    assert_eq!(g.len(), triples.len());
    let per_triple = bytes as f64 / triples.len() as f64;

    let (bytes, dict) = live_heap::measure(|| {
        let mut d = Dictionary::new();
        for t in &terms {
            d.encode(t);
        }
        d
    });
    assert_eq!(dict.len(), terms.len());
    let per_term = bytes as f64 / terms.len() as f64;

    println!(
        "LUBM-1: {} triples, {per_triple:.1} B/triple inserted one by one; \
         {} terms, {per_term:.1} B/term",
        triples.len(),
        terms.len()
    );
    assert!(
        per_triple <= GRAPH_BOUND,
        "graph: {per_triple:.1} B per triple (bound {GRAPH_BOUND})"
    );
    assert!(
        per_term <= DICTIONARY_BOUND,
        "dictionary: {per_term:.1} B per term (bound {DICTIONARY_BOUND})"
    );
}
