//! In-process replays of the workloads' cycles.
//!
//! Each request is handled the way the server handles it, but by calling
//! the layers' public functions from here, with a span around each call:
//!
//! * under an `op` root span, the path the server really takes — the
//!   HTTP parser, then one call into `core` (`answer_sparql_strategy_cancel`
//!   or the writer's `apply_script_deferred` → `sync_group` → `take_delta`
//!   → `publish` → `SubscriptionHub::publish`), then serialisation;
//! * for queries, under a `layers` root span of the same op, the pieces
//!   `core` composes — `sparql::parse_query`, the rewrite, the evaluator —
//!   called one by one on the same inputs, because `core`'s inside cannot
//!   be spanned from out here. Their sum against `core.answer` is what
//!   `core` itself adds.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::path::Path;
use std::sync::Arc;

use bench_ops::traffic::{http_request, CycleGen, Op, Query as QueryOp, Update};
use obs::CancelToken;
use rdf_model::{Graph, IntervalDict, Vocab};
use rdfs::Schema;
use sparql::{EvalStats, IntervalQuery, Query, Solutions};
use webreason_core::{DurableStore, StoreReader};
use webreason_incremental::{HubConfig, SubscriptionHub};
use webreason_server::http::{parse_request, write_response, Limits, ParseOutcome};
use webreason_server::proto::{decode_update_body, QueryResponse, UpdateResponse};

use crate::spans::Tracer;

/// The server gives its store one evaluation thread (`webreason serve`
/// creates it with `NonZeroUsize::MIN`).
const THREADS: NonZeroUsize = NonZeroUsize::MIN;

/// Which answer path a store takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    Saturation,
    Reformulation,
    Interval,
}

/// Counts taken over the first (cold-cache) cycle of a read replay; they
/// repeat exactly for a given seed.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReadCounts {
    pub rows: u64,
    pub union_branches: u64,
    pub scan_cache_hits: u64,
    pub scan_cache_misses: u64,
    pub range_scans: u64,
    pub rewritten_branches: u64,
    /// Rewrites run (cache misses) and queries answered, all cycles.
    pub rewrites: u64,
    pub queries: u64,
}

/// What the isolated layer calls need besides the graph: the schema
/// closure and the rewrite caches `core` keeps per schema version.
pub struct Layers {
    pub strategy: Strategy,
    vocab: Vocab,
    schema: Option<Schema>,
    idict: Option<Arc<IntervalDict>>,
    union_cache: HashMap<String, Query>,
    interval_cache: HashMap<String, Arc<IntervalQuery>>,
    pub counts: ReadCounts,
}

impl Layers {
    /// `graph` is the base graph (the schema is extracted from it).
    pub fn new(strategy: Strategy, vocab: Vocab, graph: &Graph) -> Layers {
        let schema = (strategy != Strategy::Saturation).then(|| Schema::extract(graph, &vocab));
        let idict = match (&schema, strategy) {
            (Some(s), Strategy::Interval) => Some(Arc::new(s.interval_dict())),
            _ => None,
        };
        Layers {
            strategy,
            vocab,
            schema,
            idict,
            union_cache: HashMap::new(),
            interval_cache: HashMap::new(),
            counts: ReadCounts::default(),
        }
    }
}

fn parse(t: &mut Tracer, raw: &[u8]) -> Vec<u8> {
    let outcome = t.span("server.http.parse", || {
        parse_request(raw, &Limits::default())
    });
    match outcome {
        ParseOutcome::Complete(req, consumed) => {
            assert_eq!(consumed, raw.len(), "one request, wholly consumed");
            req.body
        }
        _ => panic!("the benchmark's own request did not parse"),
    }
}

/// Rows → N-Triples strings → `QueryResponse` → JSON → HTTP bytes, as
/// `handle_query` does it.
fn serialise_rows(
    reader: &StoreReader,
    sols: &Solutions,
    stats: Option<EvalStats>,
    epoch: u64,
) -> Vec<u8> {
    let rows = {
        let dict = reader.dictionary();
        sols.rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|id| {
                        dict.decode(*id)
                            .map_or_else(|| id.to_string(), |t| t.to_string())
                    })
                    .collect()
            })
            .collect()
    };
    let payload = QueryResponse {
        vars: sols.var_names.clone(),
        rows,
        epoch,
        stats,
    };
    let body = serde_json::to_string(&payload).expect("plain strings serialise");
    write_response(200, "OK", "application/json", &[], body.as_bytes())
}

/// Replays one `POST /query`. `graph` is what the snapshot answers
/// against (G∞ under saturation, the base graph otherwise).
pub fn query_op(
    t: &mut Tracer,
    reader: &StoreReader,
    graph: &Graph,
    layers: &mut Layers,
    q: &QueryOp,
    first_cycle: bool,
) {
    let raw = http_request("POST", "/query", q.sparql.as_bytes());

    let root = t.enter("op");
    let body = parse(t, &raw);
    let text = std::str::from_utf8(&body).expect("the query is UTF-8");
    let (sols, stats, epoch) = t
        .span("core.answer", || {
            reader.answer_sparql_strategy_cancel(text, None, &CancelToken::none())
        })
        .expect("benchmark queries are answerable");
    let reply = t.span("server.serialise", || {
        serialise_rows(reader, &sols, stats, epoch)
    });
    std::hint::black_box(reply);
    t.exit(root);

    let pieces = t.enter("layers");
    // `prepare` is `sparql::parse_query` against the store's own
    // dictionary, so ids match the graph's.
    let parsed = t
        .span("sparql.parse", || reader.prepare(&q.sparql))
        .expect("benchmark queries parse");
    let (rows, stats) = match layers.strategy {
        Strategy::Saturation => {
            // `evaluate` plans each BGP itself; the separate call shows
            // how much of `sparql.eval` is planning.
            t.span("sparql.plan", || {
                for bgp in &parsed.bgps {
                    std::hint::black_box(sparql::plan::plan_bgp(graph, bgp));
                }
            });
            let sols = t.span("sparql.eval", || sparql::evaluate(graph, &parsed));
            (sols.rows.len(), None)
        }
        Strategy::Reformulation => {
            let schema = layers
                .schema
                .as_ref()
                .expect("rewriting strategies hold a schema");
            if !layers.union_cache.contains_key(&q.sparql) {
                let r = t
                    .span("reformulation.rewrite", || {
                        reformulation::reformulate(&parsed, schema, &layers.vocab)
                    })
                    .expect("benchmark queries are in the rewriting dialect");
                layers.counts.rewrites += 1;
                if first_cycle {
                    layers.counts.rewritten_branches += r.query.bgps.len() as u64;
                }
                layers.union_cache.insert(q.sparql.clone(), r.query);
            }
            let q_ref = &layers.union_cache[&q.sparql];
            let (sols, stats) = t
                .span("sparql.union_eval", || {
                    sparql::try_evaluate_union(graph, q_ref, THREADS)
                })
                .expect("single-threaded evaluation spawns no workers");
            (sols.rows.len(), Some(stats))
        }
        Strategy::Interval => {
            let schema = layers
                .schema
                .as_ref()
                .expect("rewriting strategies hold a schema");
            let idict = layers
                .idict
                .clone()
                .expect("the interval strategy holds its dictionary");
            if !layers.interval_cache.contains_key(&q.sparql) {
                let iq = t
                    .span("reformulation.interval_rewrite", || {
                        reformulation::reformulate_intervals(&parsed, schema, &layers.vocab, idict)
                    })
                    .expect("benchmark queries are in the rewriting dialect");
                layers.counts.rewrites += 1;
                layers.interval_cache.insert(q.sparql.clone(), Arc::new(iq));
            }
            let iq = &layers.interval_cache[&q.sparql];
            let (sols, stats) = t
                .span("sparql.range_eval", || {
                    sparql::try_evaluate_interval(graph, iq, THREADS)
                })
                .expect("single-threaded evaluation spawns no workers");
            (sols.rows.len(), Some(stats))
        }
    };
    t.exit(pieces);

    assert_eq!(
        rows,
        sols.rows.len(),
        "the pieces and `core.answer` agree on {}",
        q.sparql
    );
    layers.counts.queries += 1;
    if first_cycle {
        layers.counts.rows += rows as u64;
        if let Some(s) = stats {
            layers.counts.union_branches += s.branches_total as u64;
            layers.counts.scan_cache_hits += s.scan_cache_hits;
            layers.counts.scan_cache_misses += s.scan_cache_misses;
            layers.counts.range_scans += s.range_scans;
        }
    }
}

/// Replays `cycles` read cycles against a store built over the dataset.
pub fn read_workload(
    t: &mut Tracer,
    reader: &StoreReader,
    layers: &mut Layers,
    gen: &mut CycleGen,
    cycles: usize,
) {
    let snapshot = reader.snapshot();
    let graph = snapshot
        .view_graph()
        .expect("the three serving strategies expose their graph");
    for cycle in 0..cycles {
        for op in gen.next_cycle() {
            let Op::Query(q) = &op else {
                unreachable!("read cycles hold queries only")
            };
            t.begin_op(cycle, op.class());
            query_op(t, reader, graph, layers, q, cycle == 0);
        }
    }
}

/// The single writer's state, as `writer_loop` holds it.
pub struct Writer {
    pub store: DurableStore,
    pub reader: StoreReader,
    pub hub: SubscriptionHub,
    prev: Arc<webreason_core::StoreSnapshot>,
}

impl Writer {
    /// A fresh durable store in `dir` with `ntriples` loaded, delta
    /// tracking on (the server turns it on whenever subscriptions are
    /// allowed, which is the default).
    pub fn create(dir: &Path, config: webreason_core::ReasoningConfig, ntriples: &str) -> Writer {
        if dir.exists() {
            std::fs::remove_dir_all(dir).expect("scratch directory is ours to clear");
        }
        let mut store =
            DurableStore::create(dir, config, THREADS, webreason_core::FsyncPolicy::Always)
                .expect("fresh scratch journal");
        store.load_ntriples(ntriples).expect("generated data loads");
        store.set_delta_tracking(true);
        store.publish();
        let reader = store.reader();
        let prev = reader.snapshot();
        Writer {
            store,
            reader,
            hub: SubscriptionHub::new(HubConfig::default()),
            prev,
        }
    }

    /// Replays one `POST /update` the way one drained group of one job
    /// goes through `writer_loop`. Returns the published epoch.
    pub fn update_op(&mut self, t: &mut Tracer, u: &Update) -> u64 {
        let raw = http_request("POST", "/update", u.script.as_bytes());
        let root = t.enter("op");
        let body = parse(t, &raw);
        let text = std::str::from_utf8(&body).expect("the script is UTF-8");
        let ops = t
            .span("server.proto.decode", || decode_update_body(text))
            .expect("benchmark scripts decode");
        let outcome = t
            .span("core.apply", || self.store.apply_script_deferred(&ops))
            .expect("scratch journal accepts appends");
        t.span("durability.sync", || self.store.sync_group())
            .expect("scratch journal syncs");
        let delta = t.span("core.take_delta", || self.store.take_delta());
        let epoch = t.span("core.publish", || self.store.publish());
        let new = self.reader.snapshot();
        t.span("incremental.publish", || {
            self.hub.publish(&self.prev, &new, &delta)
        });
        // Letting go of the superseded snapshot frees a whole graph copy,
        // on the writer's thread, before the client gets its reply.
        t.span("core.snapshot_drop", || self.prev = new);
        let reply = t.span("server.serialise", || {
            let body = serde_json::to_string(&UpdateResponse {
                accepted: ops.len(),
                added: outcome.added,
                removed: outcome.removed,
                epoch,
            })
            .expect("plain numbers serialise");
            write_response(200, "OK", "application/json", &[], body.as_bytes())
        });
        std::hint::black_box(reply);
        t.exit(root);
        epoch
    }

    /// Replays `GET /subscribe/{id}?from=<from>` under the current op.
    pub fn poll_op(&mut self, t: &mut Tracer, id: u64, from: u64) {
        let raw = http_request("GET", &format!("/subscribe/{id}?from={from}"), b"");
        let root = t.enter("op");
        parse(t, &raw);
        let caught = t
            .span("incremental.catch_up", || self.hub.catch_up(id, from))
            .expect("the subscription is live");
        assert_eq!(
            caught.batches.len(),
            1,
            "exactly the acknowledged epoch's batch"
        );
        let reply = t.span("server.serialise", || {
            let batches: Vec<String> = caught
                .batches
                .iter()
                .map(|b| serde_json::to_string(&**b).expect("batches serialise"))
                .collect();
            let body = format!("{{\"batches\":[{}],\"terminal\":null}}", batches.join(","));
            write_response(200, "OK", "application/json", &[], body.as_bytes())
        });
        std::hint::black_box(reply);
        t.exit(root);
    }
}

/// Replays `cycles` write cycles. Returns the journal bytes the first
/// cycle appended.
pub fn write_workload(
    t: &mut Tracer,
    w: &mut Writer,
    gen: &mut CycleGen,
    cycles: usize,
    journal: &Path,
) -> u64 {
    let size = || std::fs::metadata(journal).map_or(0, |m| m.len());
    let mut first_cycle_bytes = 0;
    for cycle in 0..cycles {
        let before = size();
        for op in gen.next_cycle() {
            let Op::Update(u) = &op else {
                unreachable!("write cycles hold updates only")
            };
            t.begin_op(cycle, op.class());
            w.update_op(t, u);
        }
        if cycle == 0 {
            first_cycle_bytes = size() - before;
        }
    }
    first_cycle_bytes
}

/// Replays `cycles` mixed cycles against a reformulation store with one
/// registered view. `subscription` is `(id, epoch of the last batch)`.
pub fn mixed_workload(
    t: &mut Tracer,
    w: &mut Writer,
    layers: &mut Layers,
    gen: &mut CycleGen,
    cycles: usize,
    mut subscription: (u64, u64),
) {
    for cycle in 0..cycles {
        for op in gen.next_cycle() {
            t.begin_op(cycle, op.class());
            match &op {
                Op::UpdateDelta { update, .. } => {
                    let epoch = w.update_op(t, update);
                    w.poll_op(t, subscription.0, subscription.1);
                    subscription.1 = epoch;
                }
                Op::Query(q) => {
                    let snapshot = w.reader.snapshot();
                    let graph = snapshot
                        .view_graph()
                        .expect("reformulation exposes the base graph");
                    query_op(t, &w.reader, graph, layers, q, cycle == 0);
                }
                Op::Update(_) => unreachable!("mixed cycles hold no bare updates"),
            }
        }
    }
}
