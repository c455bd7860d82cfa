//! # webreason-incremental — materialized views with delta subscriptions
//!
//! The paper's amortisation argument (§III) prices *queries* against
//! *updates*: saturation makes updates expensive so queries stay cheap.
//! This crate closes the loop for standing queries — instead of
//! re-answering a registered query after every update, the store
//! maintains its answer **incrementally** and streams the changes:
//!
//! 1. A subscriber registers a SPARQL BGP (union) query. The view keeps
//!    the query it evaluates under the active reasoning strategy, and
//!    its initial state is that query's bag answer from the one executor
//!    (`sparql::try_execute`):
//!    * **Saturation** — the view evaluates `q` over `G∞` and consumes
//!      the *entailed* delta the maintenance layer (DRed / counting /
//!      recompute) already computes; the view pays nothing extra for
//!      reasoning.
//!    * **Reformulation** and **interval** — the view evaluates the
//!      reformulated union `q_ref` over the explicit `G`, consuming the
//!      base delta.
//! 2. After every writer group-commit, [`SubscriptionHub::publish`] runs
//!    each view's query through the same trie walker once per atom on
//!    the consolidated triple delta (`sparql::execute_delta`) — `O(|Δ|)`
//!    join work — updates the view's multiplicity counts, and appends an
//!    epoch-tagged [`DeltaBatch`] to the view's epoch log. Full and delta
//!    rows both pass the registered query's `FILTER`s through
//!    `sparql::finalize_read`, like every answer.
//! 3. Consumers pull batches with [`SubscriptionHub::catch_up`] from the
//!    last epoch they acknowledged and accumulate them; at any published
//!    epoch the accumulated state equals the from-scratch answer at that
//!    epoch (the *epoch-replay* invariant the integration oracle enforces).
//!
//! Multiplicities, not sets: each view keeps a signed count per projected
//! row. A `DISTINCT` view emits only `0 ↔ positive` transitions, so a row
//! derived twice (two union branches, two join derivations) survives the
//! deletion of one derivation — collapsing to a set any earlier is the
//! classic incorrect-view bug.
//!
//! Backpressure: every subscriber is a pull cursor over its view's
//! bounded epoch log, so the writer never waits on a consumer. A consumer
//! that falls off the log's tail receives one full snapshot-reset batch
//! instead of a gap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataflow;

use rdf_model::{Dictionary, Graph, TermId};
use rustc_hash::FxHashMap;
use serde::Serialize;
use sparql::{Query, UnionEvalError};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use webreason_core::{AnswerError, ReasoningConfig, StoreDelta, StoreReader, StoreSnapshot};
use webreason_failpoints::fail_point;

/// Tuning knobs for a [`SubscriptionHub`].
#[derive(Debug, Clone, Copy)]
pub struct HubConfig {
    /// Maximum live subscriptions; further registrations are refused.
    pub max_subscriptions: usize,
    /// Per-view epoch-log bound for catch-up; older epochs fall back to a
    /// snapshot reset.
    pub log_capacity: usize,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            max_subscriptions: 64,
            log_capacity: 128,
        }
    }
}

/// One signed change to a view's answer: `row` holds the projected terms
/// in N-Triples syntax, `delta` the multiplicity change (`±n`; for
/// `DISTINCT` views always `±1`, meaning the row entered / left the
/// answer set).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DeltaEvent {
    /// Projected terms, N-Triples rendered, in SELECT order.
    pub row: Vec<String>,
    /// Signed multiplicity change.
    pub delta: i64,
}

/// A batch of view changes published at one store epoch.
///
/// When `reset` is true the consumer must discard all accumulated state
/// first: `events` then carry the complete answer at `epoch` (used for
/// the initial batch, schema-change rebuilds, and catch-up requests that
/// fell off the epoch log).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DeltaBatch {
    /// The store epoch whose publication produced this batch.
    pub epoch: u64,
    /// Discard accumulated state before applying `events`.
    pub reset: bool,
    /// The row changes (consolidated: one event per row).
    pub events: Vec<DeltaEvent>,
}

/// Why a subscription's stream ended; reported by every catch-up after
/// the end so a polling consumer knows to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// The server is shutting down, or the view was dropped because its
    /// query no longer compiles under the store's strategy (re-subscribe
    /// to retry).
    Shutdown,
}

impl Terminal {
    /// Wire name of the terminal condition.
    pub fn as_str(self) -> &'static str {
        match self {
            Terminal::Shutdown => "shutdown",
        }
    }
}

/// Why a subscription could not be registered.
#[derive(Debug)]
pub enum SubscribeError {
    /// A query feature has no delta form, or a push stream was requested.
    Unsupported(String),
    /// Parsing / reformulation / evaluation failed (including
    /// [`AnswerError::Cancelled`] when a registration deadline expired).
    Query(AnswerError),
    /// The `--max-subscriptions` limit is reached.
    AtCapacity(usize),
    /// The hub has shut down.
    ShuttingDown,
}

impl std::fmt::Display for SubscribeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubscribeError::Unsupported(why) => write!(f, "{why}"),
            SubscribeError::Query(e) => write!(f, "{e}"),
            SubscribeError::AtCapacity(max) => {
                write!(f, "subscription limit reached ({max})")
            }
            SubscribeError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubscribeError {}

/// A successful registration.
#[derive(Debug)]
pub struct SubscribeOk {
    /// Subscription id — the handle for catch-up / cancel.
    pub id: u64,
    /// Epoch of the initial state.
    pub epoch: u64,
    /// Projected variable names, in SELECT order.
    pub vars: Vec<String>,
    /// Whether the view has set (`DISTINCT`) or bag semantics.
    pub distinct: bool,
    /// The initial snapshot: a `reset` batch holding the complete answer
    /// at `epoch`.
    pub initial: DeltaBatch,
}

/// Result of a catch-up (pull) request.
#[derive(Debug)]
pub struct CatchUp {
    /// Batches with `epoch > from`, in order — or a single snapshot-reset
    /// batch when `from` fell off the epoch log.
    pub batches: Vec<Arc<DeltaBatch>>,
    /// Set when the stream has ended.
    pub terminal: Option<Terminal>,
}

struct View {
    /// The query as registered: the view's identity, its `FILTER`s,
    /// variable names and set semantics, and what a schema change
    /// re-reformulates.
    query: Query,
    /// The bag form of the query evaluated for it: `query`, or its
    /// `q_ref` under the rewriting strategies.
    effective: Query,
    /// Signed multiplicity per projected row (decoded) — the view's
    /// materialized state. Rows with count 0 are removed.
    counts: FxHashMap<Vec<String>, i64>,
    /// Bounded log of published batches, read by catch-up.
    log: VecDeque<Arc<DeltaBatch>>,
    /// Catch-up from any epoch `>= log_anchor` is replayable from `log`;
    /// older requests get a snapshot reset.
    log_anchor: u64,
    /// Latest epoch published to this view (even if it produced no batch).
    last_epoch: u64,
    subscribers: Vec<u64>,
}

struct Inner {
    views: Vec<View>,
    /// Subscriber id → index of its view in `views`; `None` once a failed
    /// rebuild dropped the view, after which the subscriber only reports
    /// [`Terminal::Shutdown`].
    subs: FxHashMap<u64, Option<usize>>,
    next_id: u64,
    /// Highest epoch `publish` has seen — guards the registration race.
    last_epoch: u64,
    shutdown: bool,
}

/// The subscription hub: owns every registered view and subscriber, sits
/// between the single writer (which calls [`publish`](Self::publish) after
/// each group commit) and the server connections (which register, catch
/// up and cancel).
pub struct SubscriptionHub {
    cfg: HubConfig,
    inner: Mutex<Inner>,
}

fn lock(m: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl SubscriptionHub {
    /// Creates an empty hub.
    pub fn new(cfg: HubConfig) -> Self {
        SubscriptionHub {
            cfg,
            inner: Mutex::new(Inner {
                views: Vec::new(),
                subs: FxHashMap::default(),
                next_id: 1,
                last_epoch: 0,
                shutdown: false,
            }),
        }
    }

    /// Live subscriber count (the metrics gauge).
    pub fn live_subscribers(&self) -> usize {
        lock(&self.inner).subs.len()
    }

    /// Number of registered views (may be shared by several subscribers).
    pub fn view_count(&self) -> usize {
        lock(&self.inner).views.len()
    }

    /// Registers a subscription for `sparql`.
    ///
    /// The initial answer is evaluated against a reader snapshot *without*
    /// holding the hub lock (the writer keeps publishing meanwhile); the
    /// commit step detects a concurrent epoch advance and re-evaluates, so
    /// the returned initial state and the first logged batch are always
    /// gap-free. `cancel` is the request's deadline token: expiry aborts
    /// registration with [`SubscribeError::Query`]([`AnswerError::Cancelled`]).
    ///
    /// Every subscriber is a pull cursor read through
    /// [`catch_up`](Self::catch_up); `streaming = true` asks for a push
    /// stream, which the hub does not offer, and is refused with
    /// [`SubscribeError::Unsupported`].
    pub fn subscribe(
        &self,
        reader: &StoreReader,
        sparql: &str,
        streaming: bool,
        cancel: &obs::CancelToken,
    ) -> Result<SubscribeOk, SubscribeError> {
        if streaming {
            return Err(SubscribeError::Unsupported(
                "push streams are not offered; poll with catch_up".to_owned(),
            ));
        }
        let reg = obs::global();
        loop {
            let snap = reader.snapshot();
            let q = snap.prepare(sparql).map_err(SubscribeError::Query)?;

            // Fast path: the view already exists — attach and hand the
            // subscriber the view's current state (no re-evaluation).
            {
                let mut inner = lock(&self.inner);
                if inner.shutdown {
                    return Err(SubscribeError::ShuttingDown);
                }
                if inner.subs.len() >= self.cfg.max_subscriptions {
                    return Err(SubscribeError::AtCapacity(self.cfg.max_subscriptions));
                }
                if let Some(vi) = inner.views.iter().position(|v| v.query == q) {
                    return Ok(self.attach(&mut inner, vi));
                }
            }

            if cancel.is_cancelled() {
                return Err(SubscribeError::Query(AnswerError::Cancelled));
            }

            // Slow path: build the view off-lock against the frozen
            // snapshot, under the request's deadline.
            let _span = reg.span("server.subscribe.register");
            let effective = compile_for(&snap, &q)?;
            let graph = view_graph(&snap);
            let counts = full_counts(graph, &effective, &q, &snap.dictionary(), cancel)
                .map_err(|e| SubscribeError::Query(e.into()))?;
            // The executor polls the deadline while it walks; decoding the
            // rows after it can still overrun the deadline.
            if cancel.is_cancelled() {
                return Err(SubscribeError::Query(AnswerError::Cancelled));
            }

            // Commit: only if no epoch was published past our snapshot
            // while we evaluated (else retry against a fresh one).
            let mut inner = lock(&self.inner);
            if inner.shutdown {
                return Err(SubscribeError::ShuttingDown);
            }
            if inner.subs.len() >= self.cfg.max_subscriptions {
                return Err(SubscribeError::AtCapacity(self.cfg.max_subscriptions));
            }
            if let Some(vi) = inner.views.iter().position(|v| v.query == q) {
                // Another registrant won the race to create this view.
                return Ok(self.attach(&mut inner, vi));
            }
            if inner.last_epoch > snap.epoch() {
                drop(inner);
                reg.add("server.subscribe.register_retries", 1);
                continue;
            }
            let view = View {
                query: q,
                effective,
                counts,
                log: VecDeque::new(),
                log_anchor: snap.epoch(),
                last_epoch: snap.epoch(),
                subscribers: Vec::new(),
            };
            inner.views.push(view);
            let vi = inner.views.len() - 1;
            return Ok(self.attach(&mut inner, vi));
        }
    }

    /// Attaches a new subscriber to an existing view and builds its
    /// initial reset batch from the view's current counts.
    fn attach(&self, inner: &mut Inner, vi: usize) -> SubscribeOk {
        let id = inner.next_id;
        inner.next_id += 1;
        inner.subs.insert(id, Some(vi));
        let view = &mut inner.views[vi];
        view.subscribers.push(id);
        let reg = obs::global();
        reg.add("server.subscribe.registered", 1);
        SubscribeOk {
            id,
            epoch: view.last_epoch,
            vars: view.query.var_names.clone(),
            distinct: view.query.distinct,
            initial: reset_batch(view),
        }
    }

    /// Publishes one epoch to every view: runs each view's query over the
    /// consolidated triple delta, updates view counts and appends to the
    /// epoch logs. Called by the single writer after group commit —
    /// `old`/`new` are the snapshots around the group, `delta` the drained
    /// [`StoreDelta`]. Nothing here waits on a consumer.
    pub fn publish(&self, old: &StoreSnapshot, new: &StoreSnapshot, delta: &StoreDelta) {
        fail_point!("store.subscribe.publish");
        let reg = obs::global();
        let epoch = new.epoch();
        let mut inner = lock(&self.inner);
        inner.last_epoch = inner.last_epoch.max(epoch);
        if inner.views.is_empty() || (delta.is_empty() && !delta.schema_changed) {
            for view in &mut inner.views {
                view.last_epoch = epoch;
            }
            return;
        }
        let _span = reg.span("server.subscribe.publish");
        // Every view evaluates over the view graph of the store's one
        // strategy (a strategy switch is a schema change): `G∞` consumes
        // the entailed delta, `G` the base one.
        let change = (!delta.schema_changed).then(|| {
            dataflow::consolidate_delta(match new.config() {
                ReasoningConfig::Saturation(_) => &delta.entailed,
                ReasoningConfig::Reformulation | ReasoningConfig::Interval => &delta.base,
            })
        });
        let dict = new.dictionary();
        let mut dead_views: Vec<usize> = Vec::new();
        for (vi, view) in inner.views.iter_mut().enumerate() {
            let batch = match &change {
                Some(change) => step_view(view, old, new, change, &dict),
                // Derived state was swapped wholesale (schema mutation or
                // strategy rebuild): recompile where needed and
                // rebuild the view from scratch, publishing a reset.
                None => match rebuild_view(view, new, &dict) {
                    Ok(batch) => Some(batch),
                    Err(_) => {
                        dead_views.push(vi);
                        continue;
                    }
                },
            };
            view.last_epoch = epoch;
            if let Some(batch) = batch {
                push_log(view, Arc::new(batch), self.cfg.log_capacity);
                reg.add("server.subscribe.delta_batches", 1);
            }
        }
        // Views the new schema or strategy can no longer compile (e.g. a
        // variable-property query after a switch to reformulation): remove
        // the view and end its subscribers' streams (they must
        // re-subscribe).
        for vi in dead_views.into_iter().rev() {
            for sid in remove_view(&mut inner, vi).subscribers {
                inner.subs.insert(sid, None);
            }
        }
    }

    /// Pull-side catch-up: returns every batch published to `id`'s view
    /// after epoch `from`, or a single snapshot-reset batch when `from`
    /// has fallen off the bounded epoch log. A subscriber whose view was
    /// dropped gets no batches, only [`Terminal::Shutdown`].
    pub fn catch_up(&self, id: u64, from: u64) -> Option<CatchUp> {
        let inner = lock(&self.inner);
        let Some(vi) = *inner.subs.get(&id)? else {
            return Some(CatchUp {
                batches: Vec::new(),
                terminal: Some(Terminal::Shutdown),
            });
        };
        let view = &inner.views[vi];
        let batches = if from >= view.log_anchor {
            view.log
                .iter()
                .filter(|b| b.epoch > from)
                .cloned()
                .collect()
        } else {
            vec![Arc::new(reset_batch(view))]
        };
        Some(CatchUp {
            batches,
            terminal: inner.shutdown.then_some(Terminal::Shutdown),
        })
    }

    /// Removes a subscription (client cancel). The backing view is
    /// dropped with its last subscriber, so the writer stops paying for
    /// it.
    pub fn unsubscribe(&self, id: u64) -> bool {
        let mut inner = lock(&self.inner);
        let Some(view) = inner.subs.remove(&id) else {
            return false;
        };
        obs::global().add("server.subscribe.closed", 1);
        if let Some(vi) = view {
            let subscribers = &mut inner.views[vi].subscribers;
            subscribers.retain(|&s| s != id);
            if subscribers.is_empty() {
                remove_view(&mut inner, vi);
            }
        }
        true
    }

    /// Initiates shutdown: new registrations are refused and every
    /// catch-up reports [`Terminal::Shutdown`].
    pub fn shutdown(&self) {
        lock(&self.inner).shutdown = true;
    }
}

/// Removes view `vi`, shifting the view index of every subscriber of a
/// later view down by one.
fn remove_view(inner: &mut Inner, vi: usize) -> View {
    let view = inner.views.remove(vi);
    for s in inner.subs.values_mut().flatten() {
        if *s > vi {
            *s -= 1;
        }
    }
    view
}

fn decode_row(dict: &Dictionary, row: &[TermId]) -> Vec<String> {
    row.iter()
        .map(|id| {
            dict.decode(*id)
                .map_or_else(|| format!("{id:?}"), |t| t.to_string())
        })
        .collect()
}

/// A view's complete decoded row counts over `g` (see
/// [`dataflow::eval_full`]).
fn full_counts(
    g: &Graph,
    effective: &Query,
    registered: &Query,
    dict: &Dictionary,
    cancel: &obs::CancelToken,
) -> Result<FxHashMap<Vec<String>, i64>, UnionEvalError> {
    let sols = dataflow::eval_full(g, effective, registered, dict, cancel)?;
    let mut counts = FxHashMap::default();
    for row in sols.rows.iter() {
        *counts.entry(decode_row(dict, row)).or_insert(0) += 1;
    }
    Ok(counts)
}

/// The frozen graph a view is evaluated over (see
/// [`StoreSnapshot::view_graph`]; every strategy has one).
fn view_graph(snap: &StoreSnapshot) -> &Graph {
    snap.view_graph()
        .expect("every reasoning strategy exposes a view graph")
}

/// The bag query a view evaluates under the snapshot's strategy
/// (reformulating first when the strategy answers by rewriting), refusing
/// features with no delta form.
fn compile_for(snap: &StoreSnapshot, q: &Query) -> Result<Query, SubscribeError> {
    if let Some(why) = dataflow::refusal(q) {
        return Err(SubscribeError::Unsupported(why));
    }
    // Saturation evaluates `q` itself. Interval stores stream like
    // reformulation ones: the view evaluates the union reformulation over
    // the base graph (the interval encoding only accelerates the answer
    // path), so a schema re-encode never touches a live view.
    let effective = snap.reformulated(q).map_err(SubscribeError::Query)?;
    Ok(Query {
        distinct: false,
        ..effective.map_or_else(|| q.clone(), |q_ref| (*q_ref).clone())
    })
}

/// The complete current answer of a view as a reset batch at its last
/// published epoch.
fn reset_batch(view: &View) -> DeltaBatch {
    let mut events: Vec<DeltaEvent> = view
        .counts
        .iter()
        .filter(|(_, &m)| m > 0)
        .map(|(row, &m)| DeltaEvent {
            row: row.clone(),
            delta: if view.query.distinct { 1 } else { m },
        })
        .collect();
    events.sort_by(|a, b| a.row.cmp(&b.row));
    DeltaBatch {
        epoch: view.last_epoch,
        reset: true,
        events,
    }
}

/// Applies one consolidated triple delta to a view: runs the view's query
/// over it, folds the row changes into the multiplicity counts and
/// derives the events to publish (raw signed deltas for bag views,
/// `0 ↔ positive` transitions for `DISTINCT` views). Returns `None` when
/// the answer did not change.
fn step_view(
    view: &mut View,
    old: &StoreSnapshot,
    new: &StoreSnapshot,
    change: &[Graph; 2],
    dict: &Dictionary,
) -> Option<DeltaBatch> {
    let mut raw: FxHashMap<Vec<String>, i64> = FxHashMap::default();
    dataflow::eval_delta(
        view_graph(old),
        view_graph(new),
        change,
        &view.effective,
        &view.query,
        dict,
        |row, m| *raw.entry(decode_row(dict, row)).or_insert(0) += m,
    );
    raw.retain(|_, m| *m != 0);
    if raw.is_empty() {
        return None;
    }
    let mut events = Vec::with_capacity(raw.len());
    for (row, m) in raw {
        let before = view.counts.get(&row).copied().unwrap_or(0);
        let after = before + m;
        if after == 0 {
            view.counts.remove(&row);
        } else {
            view.counts.insert(row.clone(), after);
        }
        if view.query.distinct {
            match (before > 0, after > 0) {
                (false, true) => events.push(DeltaEvent { row, delta: 1 }),
                (true, false) => events.push(DeltaEvent { row, delta: -1 }),
                _ => {}
            }
        } else {
            events.push(DeltaEvent { row, delta: m });
        }
    }
    if events.is_empty() {
        return None;
    }
    events.sort_by(|a, b| a.row.cmp(&b.row));
    Some(DeltaBatch {
        epoch: new.epoch(),
        reset: false,
        events,
    })
}

/// Rebuilds a view after a schema change / strategy rebuild: recompiles
/// its query (reformulation changes with the schema) and recomputes the
/// counts from scratch, publishing a reset batch. Errors mean the query
/// no longer compiles under the new strategy.
fn rebuild_view(view: &mut View, new: &StoreSnapshot, dict: &Dictionary) -> Result<DeltaBatch, ()> {
    let effective = compile_for(new, &view.query).map_err(|_| ())?;
    let none = obs::CancelToken::none();
    view.counts =
        full_counts(view_graph(new), &effective, &view.query, dict, &none).map_err(|_| ())?;
    view.effective = effective;
    view.last_epoch = new.epoch();
    // A reset supersedes history: any catch-up can replay from it.
    view.log.clear();
    view.log_anchor = 0;
    Ok(reset_batch(view))
}

fn push_log(view: &mut View, batch: Arc<DeltaBatch>, cap: usize) {
    if batch.reset {
        view.log.clear();
        view.log_anchor = 0;
    }
    view.log.push_back(batch);
    while view.log.len() > cap {
        if let Some(evicted) = view.log.pop_front() {
            // Everything up to the evicted epoch is no longer replayable.
            view.log_anchor = view.log_anchor.max(evicted.epoch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::CancelToken;
    use webreason_core::{MaintenanceAlgorithm, ReasoningConfig, Store};

    const SCHEMA: &str = r#"
        @prefix ex: <http://ex/> .
        @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
        ex:Cat rdfs:subClassOf ex:Mammal .
        ex:hasPet rdfs:domain ex:Owner .
    "#;

    fn store_with(config: ReasoningConfig) -> Store {
        let mut store = Store::new(config);
        store.load_turtle(SCHEMA).unwrap();
        store
    }

    const TYPE: &str = rdf_model::vocab::RDF_TYPE;
    const SUBCLASS: &str = rdf_model::vocab::RDFS_SUB_CLASS_OF;

    /// Applies inserts/deletes of IRI triples, drains the store delta and
    /// publishes it through the hub, returning the new epoch.
    fn apply_and_publish(
        store: &mut Store,
        hub: &SubscriptionHub,
        ops: &[[&str; 3]],
        insert: bool,
    ) -> u64 {
        use rdf_model::Term;
        let old = store.snapshot();
        for [s, p, o] in ops {
            let (s, p, o) = (Term::iri(*s), Term::iri(*p), Term::iri(*o));
            if insert {
                store.insert_terms(&s, &p, &o);
            } else {
                store.delete_terms(&s, &p, &o);
            }
        }
        let delta = store.take_delta();
        let new = store.snapshot();
        hub.publish(&old, &new, &delta);
        new.epoch()
    }

    /// Accumulates a subscriber's batches into row → count state.
    fn apply_batch(state: &mut FxHashMap<Vec<String>, i64>, batch: &DeltaBatch) {
        if batch.reset {
            state.clear();
        }
        for ev in &batch.events {
            *state.entry(ev.row.clone()).or_insert(0) += ev.delta;
        }
        state.retain(|_, m| *m != 0);
    }

    /// A client-side cursor: the subscription id, the last epoch it
    /// acknowledged and its accumulated state.
    struct Cursor {
        id: u64,
        acked: u64,
        state: FxHashMap<Vec<String>, i64>,
    }

    impl Cursor {
        fn register(hub: &SubscriptionHub, reader: &StoreReader, sparql: &str) -> Cursor {
            let ok = hub
                .subscribe(reader, sparql, false, &CancelToken::none())
                .unwrap();
            let mut state = FxHashMap::default();
            apply_batch(&mut state, &ok.initial);
            Cursor {
                id: ok.id,
                acked: ok.epoch,
                state,
            }
        }

        /// Catches up from the acknowledged epoch; returns how many
        /// batches arrived.
        fn poll(&mut self, hub: &SubscriptionHub) -> usize {
            let cu = hub
                .catch_up(self.id, self.acked)
                .expect("subscription alive");
            assert_eq!(cu.terminal, None);
            for b in &cu.batches {
                apply_batch(&mut self.state, b);
                self.acked = self.acked.max(b.epoch);
            }
            cu.batches.len()
        }
    }

    /// From-scratch answer (distinct) decoded like the hub decodes.
    fn oracle_rows(store: &Store, sparql: &str) -> FxHashMap<Vec<String>, i64> {
        let reader = store.reader();
        let snap = reader.snapshot();
        let q = snap.prepare(sparql).unwrap();
        let (sols, _) = snap.answer(&q).unwrap();
        let dict = snap.dictionary();
        let mut out = FxHashMap::default();
        for row in sols.as_set() {
            let decoded: Vec<String> = row
                .iter()
                .map(|id| dict.decode(*id).unwrap().to_string())
                .collect();
            out.insert(decoded, 1);
        }
        out
    }

    fn distinct_keys(state: &FxHashMap<Vec<String>, i64>) -> FxHashMap<Vec<String>, i64> {
        state
            .iter()
            .filter(|(_, &m)| m > 0)
            .map(|(k, _)| (k.clone(), 1))
            .collect()
    }

    const Q_MAMMALS: &str = "PREFIX ex: <http://ex/> SELECT DISTINCT ?x WHERE { ?x a ex:Mammal }";

    #[test]
    fn saturation_stream_replays_entailed_changes() {
        let mut store = store_with(ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting));
        store.set_delta_tracking(true);
        let hub = SubscriptionHub::new(HubConfig::default());
        let mut cursor = Cursor::register(&hub, &store.reader(), Q_MAMMALS);
        assert!(cursor.state.is_empty());

        apply_and_publish(
            &mut store,
            &hub,
            &[["http://ex/tom", TYPE, "http://ex/Cat"]],
            true,
        );
        assert_eq!(cursor.poll(&hub), 1);
        assert_eq!(distinct_keys(&cursor.state), oracle_rows(&store, Q_MAMMALS));

        apply_and_publish(
            &mut store,
            &hub,
            &[["http://ex/tom", TYPE, "http://ex/Cat"]],
            false,
        );
        cursor.poll(&hub);
        assert_eq!(distinct_keys(&cursor.state), oracle_rows(&store, Q_MAMMALS));
        assert!(cursor.state.is_empty(), "tom retracted from the view");
    }

    #[test]
    fn reformulation_stream_consumes_base_delta() {
        let mut store = store_with(ReasoningConfig::Reformulation);
        store.set_delta_tracking(true);
        let hub = SubscriptionHub::new(HubConfig::default());
        let mut cursor = Cursor::register(&hub, &store.reader(), Q_MAMMALS);

        apply_and_publish(
            &mut store,
            &hub,
            &[
                ["http://ex/tom", TYPE, "http://ex/Cat"],
                ["http://ex/rex", TYPE, "http://ex/Mammal"],
            ],
            true,
        );
        cursor.poll(&hub);
        assert_eq!(cursor.state.len(), 2, "tom (entailed) and rex (explicit)");
        assert_eq!(distinct_keys(&cursor.state), oracle_rows(&store, Q_MAMMALS));
    }

    #[test]
    fn schema_change_triggers_reset_rebuild() {
        let mut store = store_with(ReasoningConfig::Reformulation);
        store.set_delta_tracking(true);
        let hub = SubscriptionHub::new(HubConfig::default());
        let mut cursor = Cursor::register(&hub, &store.reader(), Q_MAMMALS);
        apply_and_publish(
            &mut store,
            &hub,
            &[["http://ex/fido", TYPE, "http://ex/Dog"]],
            true,
        );
        // New subclass axiom: Dog ⊑ Mammal — changes q_ref itself.
        apply_and_publish(
            &mut store,
            &hub,
            &[["http://ex/Dog", SUBCLASS, "http://ex/Mammal"]],
            true,
        );
        cursor.poll(&hub);
        assert_eq!(distinct_keys(&cursor.state), oracle_rows(&store, Q_MAMMALS));
        assert_eq!(cursor.state.len(), 1, "fido now a mammal via the new axiom");
    }

    #[test]
    fn catch_up_replays_or_resets() {
        let mut store = store_with(ReasoningConfig::Reformulation);
        store.set_delta_tracking(true);
        let hub = SubscriptionHub::new(HubConfig {
            log_capacity: 2,
            ..HubConfig::default()
        });
        let reader = store.reader();
        let q = "PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:p ex:o }";
        let ok = hub
            .subscribe(&reader, q, false, &CancelToken::none())
            .unwrap();
        let e0 = ok.epoch;
        let mut epochs = Vec::new();
        for i in 0..4 {
            let s = format!("http://ex/s{i}");
            epochs.push(apply_and_publish(
                &mut store,
                &hub,
                &[[&s, "http://ex/p", "http://ex/o"]],
                true,
            ));
        }
        // Recent epoch: exact replay of the retained tail.
        let cu = hub.catch_up(ok.id, epochs[2]).unwrap();
        assert_eq!(cu.batches.len(), 1);
        assert!(!cu.batches[0].reset);
        assert_eq!(cu.batches[0].epoch, epochs[3]);
        // Ancient epoch (fell off the 2-deep log): snapshot reset.
        let cu = hub.catch_up(ok.id, e0).unwrap();
        assert_eq!(cu.batches.len(), 1);
        assert!(cu.batches[0].reset);
        assert_eq!(cu.batches[0].events.len(), 4);
        // Replaying the reset converges to the oracle.
        let mut state = FxHashMap::default();
        apply_batch(&mut state, &cu.batches[0]);
        assert_eq!(distinct_keys(&state), oracle_rows(&store, q));
    }

    #[test]
    fn capacity_limit_refuses_registration() {
        let store = store_with(ReasoningConfig::Reformulation);
        let hub = SubscriptionHub::new(HubConfig {
            max_subscriptions: 1,
            ..HubConfig::default()
        });
        let reader = store.reader();
        let q = "PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:p ex:o }";
        hub.subscribe(&reader, q, false, &CancelToken::none())
            .unwrap();
        match hub.subscribe(&reader, q, false, &CancelToken::none()) {
            Err(SubscribeError::AtCapacity(1)) => {}
            other => panic!("expected capacity refusal, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_registration_is_rejected() {
        let store = store_with(ReasoningConfig::Reformulation);
        let hub = SubscriptionHub::new(HubConfig::default());
        let reader = store.reader();
        let token = CancelToken::new();
        token.cancel();
        match hub.subscribe(
            &reader,
            "PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:p ex:o }",
            false,
            &token,
        ) {
            Err(SubscribeError::Query(AnswerError::Cancelled)) => {}
            other => panic!("expected cancelled, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_strategies_and_queries_are_refused() {
        let q = "PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:p ex:o }";
        let hub = SubscriptionHub::new(HubConfig::default());
        let none = CancelToken::none();
        let store = store_with(ReasoningConfig::Reformulation);
        let refused = [
            hub.subscribe(&store.reader(), q, true, &none),
            hub.subscribe(&store.reader(), &format!("{q} LIMIT 3"), false, &none),
        ];
        for r in refused {
            assert!(matches!(r, Err(SubscribeError::Unsupported(_))), "{r:?}");
        }
        assert_eq!(hub.live_subscribers(), 0);
    }

    #[test]
    fn shutdown_wakes_streamers_with_terminal() {
        let store = store_with(ReasoningConfig::Reformulation);
        let hub = SubscriptionHub::new(HubConfig::default());
        let reader = store.reader();
        let q = "PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:p ex:o }";
        let cursor = Cursor::register(&hub, &reader, q);
        hub.shutdown();
        let cu = hub.catch_up(cursor.id, cursor.acked).unwrap();
        assert!(cu.batches.is_empty());
        assert_eq!(cu.terminal, Some(Terminal::Shutdown));
        assert!(matches!(
            hub.subscribe(&reader, q, false, &CancelToken::none()),
            Err(SubscribeError::ShuttingDown)
        ));
    }

    /// A rebuild that fails (the new strategy cannot compile the query)
    /// drops the view; its subscriber must not be left pointing at
    /// whatever view now sits at the dead one's index.
    #[test]
    fn dropped_view_subscriber_reports_shutdown() {
        let mut store = store_with(ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting));
        store.set_delta_tracking(true);
        let hub = SubscriptionHub::new(HubConfig::default());
        // A variable property: fine over G∞, outside the reformulation
        // dialect.
        let cursor = Cursor::register(
            &hub,
            &store.reader(),
            "PREFIX ex: <http://ex/> SELECT ?p WHERE { ex:Cat ?p ex:Mammal }",
        );
        let old = store.snapshot();
        store.set_config(ReasoningConfig::Reformulation);
        let delta = store.take_delta();
        hub.publish(&old, &store.snapshot(), &delta);
        assert_eq!(hub.view_count(), 0);

        let cu = hub.catch_up(cursor.id, 0).expect("subscriber still known");
        assert!(cu.batches.is_empty());
        assert_eq!(cu.terminal, Some(Terminal::Shutdown));
        assert!(hub.unsubscribe(cursor.id));
        assert_eq!(hub.live_subscribers(), 0);
    }

    /// A view filters with the query it was registered with, never with a
    /// cached rewrite of a query that differs only in its `FILTER`.
    #[test]
    fn a_view_filters_with_its_own_query() {
        let mut store = store_with(ReasoningConfig::Reformulation);
        store.set_delta_tracking(true);
        store
            .load_turtle(r#"@prefix ex: <http://ex/> . ex:a ex:v "a" . ex:c ex:v "c" ."#)
            .unwrap();
        store.take_delta();
        store.snapshot();
        let q = |op: &str| {
            format!("PREFIX ex: <http://ex/> SELECT ?x ?v WHERE {{ ?x ex:v ?v FILTER (?v {op} \"b\") }}")
        };
        let reader = store.reader();
        let (above, _, _) = reader.answer_sparql(&q(">")).unwrap();
        assert_eq!(above.len(), 1, "only c's value is above b");

        let hub = SubscriptionHub::new(HubConfig::default());
        let mut cursor = Cursor::register(&hub, &reader, &q("<"));
        let row = |s: &str, v: &str| (vec![format!("<http://ex/{s}>"), format!("\"{v}\"")], 1);
        assert_eq!(cursor.state, FxHashMap::from_iter([row("a", "a")]));

        let old = store.snapshot();
        for (s, v) in [("d", "d"), ("e", "0")] {
            let (s, p) = (format!("http://ex/{s}"), "http://ex/v");
            store.insert_terms(
                &rdf_model::Term::iri(s),
                &rdf_model::Term::iri(p),
                &rdf_model::Term::literal(v),
            );
        }
        let delta = store.take_delta();
        hub.publish(&old, &store.snapshot(), &delta);
        cursor.poll(&hub);
        assert_eq!(
            cursor.state,
            FxHashMap::from_iter([row("a", "a"), row("e", "0")])
        );
    }

    /// The distinct-multiplicity regression (bag-vs-set bug class): a row
    /// with two derivations through overlapping union branches must NOT
    /// be retracted when one derivation is deleted.
    #[test]
    fn distinct_survives_losing_one_of_two_derivations() {
        let mut store = store_with(ReasoningConfig::Reformulation);
        store.set_delta_tracking(true);
        let hub = SubscriptionHub::new(HubConfig::default());
        // tom is a Mammal twice over: explicitly, and entailed via Cat.
        store
            .load_turtle("@prefix ex: <http://ex/> . ex:tom a ex:Cat . ex:tom a ex:Mammal .")
            .unwrap();
        store.take_delta(); // not yet subscribed; discard
        store.snapshot(); // publish, so registration sees the load
        let mut cursor = Cursor::register(&hub, &store.reader(), Q_MAMMALS);
        assert_eq!(cursor.state.len(), 1);

        // Delete the explicit assertion: the entailed derivation remains,
        // so there is correctly NO retraction event.
        apply_and_publish(
            &mut store,
            &hub,
            &[["http://ex/tom", TYPE, "http://ex/Mammal"]],
            false,
        );
        assert_eq!(cursor.poll(&hub), 0);
        assert_eq!(cursor.state.len(), 1, "tom still a mammal via ex:Cat");
        assert_eq!(distinct_keys(&cursor.state), oracle_rows(&store, Q_MAMMALS));

        // Delete the remaining derivation: now it must retract.
        apply_and_publish(
            &mut store,
            &hub,
            &[["http://ex/tom", TYPE, "http://ex/Cat"]],
            false,
        );
        cursor.poll(&hub);
        assert!(cursor.state.is_empty(), "no derivations left");
    }
}
