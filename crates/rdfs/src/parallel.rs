//! Parallel saturation — the paper's §II-D open issue ("efficiently
//! maintaining RDF graph saturation, especially in a distributed setting";
//! "As memory sizes grow larger, in-memory RDF reasoning is also
//! attracting interest"), in the style of its ref. \[29\] (Motik et al.,
//! *Parallel materialisation of datalog programs in centralised,
//! main-memory RDF systems*).
//!
//! The schema-closure-specialised saturation of [`crate::saturate`] is
//! embarrassingly parallel in its instance pass: once the (small) schema
//! is closed, each base triple's consequence set is independent. The
//! parallel engine is a two-phase pipeline over the sharded graph of
//! `rdf_model`:
//!
//! 1. **derive** — extract and close the schema (serial — the schema is
//!    tiny), then partition the base instance triples across worker
//!    threads; each worker routes the base triples plus its
//!    locally-deduplicated consequences into per-shard
//!    [`TripleBuckets`] *at emit time*, against the shared read-only
//!    closed schema;
//! 2. **merge** — [`Graph::merge_buckets`] folds every (index, shard)
//!    bucket group into the output concurrently, one task per shard per
//!    index. Write targets are disjoint, so the merge runs without locks
//!    or cross-shard contention — this replaces the serial
//!    one-triple-at-a-time insertion loop that previously bounded
//!    scalability (Amdahl) regardless of derive-phase parallelism.
//!
//! No up-front clone of the input graph is taken: the output graph is
//! built shard-by-shard from the routed buckets (base triples ride along
//! in them).

use crate::saturation::{derive_instance_consequences, SaturationResult, SaturationStats};
use crate::schema::Schema;
use obs::{CancelToken, CANCEL_POLL_STRIDE};
use rdf_model::{Graph, Triple, TripleBuckets, Vocab, WorkerPanicked};
use rustc_hash::{FxHashMap, FxHashSet};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use webreason_failpoints::fail_point;

/// Why a cancellable parallel saturation returned no result.
#[derive(Debug)]
pub enum ParallelError {
    /// A derive worker panicked (a bug, or an armed failpoint).
    Worker(WorkerPanicked),
    /// The [`CancelToken`] tripped; every worker's routed buckets were
    /// discarded whole and nothing was merged into an output graph.
    Cancelled,
}

impl std::fmt::Display for ParallelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelError::Worker(e) => write!(f, "{e}"),
            ParallelError::Cancelled => f.write_str("parallel saturation cancelled"),
        }
    }
}

impl std::error::Error for ParallelError {}

impl From<WorkerPanicked> for ParallelError {
    fn from(e: WorkerPanicked) -> Self {
        ParallelError::Worker(e)
    }
}

/// Computes `G∞` with `threads` worker threads for both phases.
///
/// Produces exactly the same graph as [`crate::saturate`] (asserted by the
/// test suite); the output graph is sharded `threads.next_power_of_two()`
/// ways. `stats.rule_firings` records, besides the derivation counts
/// (`"parallel-derived"`, `"parallel-new"`), the wall-clock of the two
/// phases in microseconds (`"derive-us"`, `"merge-us"`) — the A-PAR
/// experiment reports this split per thread count.
///
/// Panic isolation: a panic inside a derive worker is caught and the
/// whole pass **falls back to the sequential engine**, which computes the
/// identical graph — callers that want the panic surfaced instead use
/// [`try_saturate_parallel`].
pub fn saturate_parallel(g: &Graph, vocab: &Vocab, threads: NonZeroUsize) -> SaturationResult {
    match try_saturate_parallel(g, vocab, threads) {
        Ok(result) => result,
        // The sequential engine derives the same closure; the store stays
        // consistent (and unpoisoned) even when a worker died.
        Err(_) => crate::saturate(g, vocab),
    }
}

/// [`saturate_parallel`] that surfaces a derive-worker panic as a
/// structured [`WorkerPanicked`] error instead of falling back. No
/// partial output escapes: the routed buckets of a failed pass are
/// dropped whole.
pub fn try_saturate_parallel(
    g: &Graph,
    vocab: &Vocab,
    threads: NonZeroUsize,
) -> Result<SaturationResult, WorkerPanicked> {
    match try_saturate_parallel_cancel(g, vocab, threads, &CancelToken::none()) {
        Ok(result) => Ok(result),
        Err(ParallelError::Worker(e)) => Err(e),
        Err(ParallelError::Cancelled) => {
            unreachable!("a CancelToken::none() saturation never cancels")
        }
    }
}

/// [`try_saturate_parallel`] with cooperative cancellation: each derive
/// worker polls `cancel` every [`CANCEL_POLL_STRIDE`] base triples, and
/// the main thread polls it between the derive and merge phases. On trip
/// every worker's routed buckets are dropped whole, no counters other
/// than `rdfs.parallel.cancelled` are published, and
/// [`ParallelError::Cancelled`] is returned.
///
/// The store's maintenance path deliberately passes
/// [`CancelToken::none`]: an update's saturation must run to completion
/// for atomicity, so only standalone/offline saturations (CLI, bench)
/// are candidates for a live token.
pub fn try_saturate_parallel_cancel(
    g: &Graph,
    vocab: &Vocab,
    threads: NonZeroUsize,
    cancel: &CancelToken,
) -> Result<SaturationResult, ParallelError> {
    let reg = obs::global();
    let _run_span = reg.span("rdfs.parallel.run");
    let threads = threads.get();
    let schema = Schema::extract(g, vocab);
    let shard_count = threads.next_power_of_two();
    let mut out = Graph::with_shard_count(shard_count);

    // Phase 1 — derive. Workers route base triples and their consequences
    // into per-shard buckets at emit time; each deduplicates derivations
    // locally so bucket traffic stays proportional to distinct
    // consequences per worker.
    let derive_span = reg.span("rdfs.parallel.derive");
    let derive_start = Instant::now();
    let base: Vec<Triple> = g.iter().collect();
    let chunk = base.len().div_ceil(threads).max(1);
    // `None` inside the Ok arm means the worker saw the token trip and
    // abandoned its chunk; its partial bucket never leaves the closure.
    type WorkerResult = Result<Option<(TripleBuckets, u64)>, WorkerPanicked>;
    let worker_out: Vec<WorkerResult> = std::thread::scope(|scope| {
        let schema = &schema;
        let handles: Vec<_> = base
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    // Panic isolation: a panicking worker (a bug, or an
                    // armed failpoint) is caught here so the scope joins
                    // cleanly and no lock or shared structure is poisoned.
                    catch_unwind(AssertUnwindSafe(|| {
                        fail_point!("rdfs.parallel.worker");
                        let mut bucket = TripleBuckets::new(shard_count);
                        let mut local =
                            FxHashSet::with_capacity_and_hasher(part.len() * 2, Default::default());
                        for (i, t) in part.iter().enumerate() {
                            if i % CANCEL_POLL_STRIDE == 0 && cancel.is_cancelled() {
                                return None;
                            }
                            bucket.push(*t);
                            derive_instance_consequences(t, vocab, schema, |_, c| {
                                if local.insert(c) {
                                    bucket.push(c);
                                }
                            });
                        }
                        Some((bucket, local.len() as u64))
                    }))
                    .map_err(|payload| {
                        WorkerPanicked::from_payload("rdfs.parallel.worker", payload)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caught-panic worker never unwinds"))
            .collect()
    });
    let mut buckets: Vec<TripleBuckets> = Vec::with_capacity(worker_out.len() + 1);
    let mut worker_raws: Vec<u64> = Vec::with_capacity(worker_out.len());
    let mut derived_raw = 0u64;
    let mut cancelled = false;
    for result in worker_out {
        match result? {
            Some((bucket, raw)) => {
                derived_raw += raw;
                worker_raws.push(raw);
                buckets.push(bucket);
            }
            // One cancelled worker discards the whole pass — but keep
            // draining so a sibling's panic still surfaces as Worker.
            None => cancelled = true,
        }
    }
    if cancelled {
        reg.add("rdfs.parallel.cancelled", 1);
        return Err(ParallelError::Cancelled);
    }
    // The closed schema is part of G∞. It is tiny, so the main thread
    // routes it, counting its contribution for the stats split below.
    let mut schema_bucket = TripleBuckets::new(shard_count);
    let mut schema_seen: FxHashSet<Triple> = FxHashSet::default();
    let mut schema_new = 0usize;
    for t in schema.closed_triples(vocab) {
        if schema_seen.insert(t) {
            schema_bucket.push(t);
            if !g.contains(&t) {
                schema_new += 1;
            }
        }
    }
    buckets.push(schema_bucket);
    let derive_us = derive_start.elapsed().as_micros() as u64;
    drop(derive_span);

    // Phase 2 — merge. One task per (index, shard), all concurrent. The
    // failpoint sits between the phases: killing here models a crash
    // after derivation but before any write lands in the output graph.
    // Last cancellation poll: past this point the merge runs to
    // completion (its writes are into the private `out` graph anyway).
    if cancel.is_cancelled() {
        reg.add("rdfs.parallel.cancelled", 1);
        return Err(ParallelError::Cancelled);
    }
    for raw in worker_raws {
        // Per-worker derivation spread — skew here means poor balance.
        // Deferred past the last cancellation poll so an abandoned pass
        // publishes nothing but `rdfs.parallel.cancelled`.
        reg.record("rdfs.parallel.worker_derived", raw);
    }
    fail_point!("store.merge.pre_commit");
    let merge_span = reg.span("rdfs.parallel.merge");
    let merge_start = Instant::now();
    out.merge_buckets(buckets, threads);
    let merge_us = merge_start.elapsed().as_micros() as u64;
    drop(merge_span);

    let inferred = out.len() - g.len();
    let mut rule_firings: FxHashMap<&'static str, u64> = FxHashMap::default();
    rule_firings.insert("parallel-derived", derived_raw);
    rule_firings.insert("parallel-new", (inferred - schema_new) as u64);
    rule_firings.insert("derive-us", derive_us);
    rule_firings.insert("merge-us", merge_us);
    let stats = SaturationStats {
        input_triples: g.len(),
        output_triples: out.len(),
        inferred,
        passes: 1,
        rule_firings,
    };
    reg.add("rdfs.parallel.runs", 1);
    reg.add("rdfs.parallel.workers", threads as u64);
    reg.add("rdfs.parallel.shards", shard_count as u64);
    reg.add("rdfs.parallel.derived_raw", derived_raw);
    reg.add(
        "rdfs.parallel.derived_new",
        stats.rule_firings["parallel-new"],
    );
    reg.add("rdfs.saturate.inferred", inferred as u64);
    reg.add(
        "rdfs.saturate.rule_firings",
        derived_raw + schema_new as u64,
    );
    Ok(SaturationResult { graph: out, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::saturate;
    use rdf_model::{Dictionary, TermId};

    fn fixture() -> (Graph, Vocab) {
        let mut dict = Dictionary::new();
        let vocab = Vocab::intern(&mut dict);
        let mut id = |n: String| dict.encode_iri(&format!("http://ex/{n}"));
        let mut g = Graph::new();
        // a 4-level class chain, 2 property chains with domains/ranges
        let classes: Vec<TermId> = (0..6).map(|i| id(format!("C{i}"))).collect();
        for w in classes.windows(2) {
            g.insert(Triple::new(w[0], vocab.sub_class_of, w[1]));
        }
        let props: Vec<TermId> = (0..4).map(|i| id(format!("p{i}"))).collect();
        g.insert(Triple::new(props[0], vocab.sub_property_of, props[1]));
        g.insert(Triple::new(props[1], vocab.domain, classes[1]));
        g.insert(Triple::new(props[2], vocab.range, classes[2]));
        for i in 0..200 {
            let s = id(format!("n{i}"));
            let o = id(format!("n{}", (i * 7) % 200));
            g.insert(Triple::new(s, props[i % 4], o));
            if i % 3 == 0 {
                g.insert(Triple::new(s, vocab.rdf_type, classes[i % 3]));
            }
        }
        (g, vocab)
    }

    #[test]
    fn parallel_equals_sequential_for_all_thread_counts() {
        let (g, vocab) = fixture();
        let sequential = saturate(&g, &vocab);
        for threads in [1usize, 2, 3, 4, 8] {
            let par = saturate_parallel(&g, &vocab, NonZeroUsize::new(threads).unwrap());
            assert_eq!(par.graph, sequential.graph, "{threads} threads");
            assert_eq!(par.stats.inferred, sequential.stats.inferred);
        }
    }

    #[test]
    fn output_is_sharded_by_thread_count() {
        let (g, vocab) = fixture();
        for (threads, shards) in [(1usize, 1usize), (2, 2), (3, 4), (4, 4), (8, 8)] {
            let par = saturate_parallel(&g, &vocab, NonZeroUsize::new(threads).unwrap());
            assert_eq!(par.graph.shard_count(), shards, "{threads} threads");
        }
    }

    #[test]
    fn empty_graph() {
        let mut d = Dictionary::new();
        let vocab = Vocab::intern(&mut d);
        let par = saturate_parallel(&Graph::new(), &vocab, NonZeroUsize::new(4).unwrap());
        assert!(par.graph.is_empty());
    }

    #[test]
    fn more_threads_than_triples() {
        let mut d = Dictionary::new();
        let vocab = Vocab::intern(&mut d);
        let a = d.encode_iri("http://ex/a");
        let b = d.encode_iri("http://ex/b");
        let mut g = Graph::new();
        g.insert(Triple::new(a, vocab.sub_class_of, b));
        let par = saturate_parallel(&g, &vocab, NonZeroUsize::new(64).unwrap());
        assert_eq!(par.graph, saturate(&g, &vocab).graph);
    }

    #[test]
    fn cancelled_saturation_returns_cancelled_and_nothing_else() {
        let (g, vocab) = fixture();
        // Trips on the very first poll: every worker abandons its chunk.
        let cancel = CancelToken::trip_after_checks(1);
        let err = try_saturate_parallel_cancel(&g, &vocab, NonZeroUsize::new(4).unwrap(), &cancel)
            .unwrap_err();
        assert!(matches!(err, ParallelError::Cancelled), "got {err}");
    }

    #[test]
    fn cancelled_pass_leaves_a_rerun_identical() {
        let (g, vocab) = fixture();
        let threads = NonZeroUsize::new(4).unwrap();
        let cancel = CancelToken::trip_after_checks(1);
        let _ = try_saturate_parallel_cancel(&g, &vocab, threads, &cancel);
        // The abandoned pass left no shared state behind: a fresh run
        // still equals the sequential closure.
        let par = try_saturate_parallel_cancel(&g, &vocab, threads, &CancelToken::none()).unwrap();
        assert_eq!(par.graph, saturate(&g, &vocab).graph);
    }

    #[test]
    fn none_token_never_cancels() {
        let (g, vocab) = fixture();
        let par = try_saturate_parallel_cancel(
            &g,
            &vocab,
            NonZeroUsize::new(2).unwrap(),
            &CancelToken::none(),
        )
        .unwrap();
        assert_eq!(par.graph, saturate(&g, &vocab).graph);
    }

    #[test]
    fn stats_record_raw_derivations() {
        let (g, vocab) = fixture();
        let par = saturate_parallel(&g, &vocab, NonZeroUsize::new(2).unwrap());
        let raw = par.stats.rule_firings["parallel-derived"];
        let new = par.stats.rule_firings["parallel-new"];
        assert!(raw >= new, "raw {raw} >= deduped {new}");
        // inferred = instance derivations + schema-closure triples
        assert!(par.stats.inferred >= new as usize);
        assert_eq!(par.stats.inferred, par.graph.len() - g.len());
    }
}
