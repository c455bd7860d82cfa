//! Snapshot isolation for concurrent query answering.
//!
//! The paper's amortisation story (§III) presumes a live system: queries
//! keep arriving *while* updates trigger maintenance. This module turns
//! the single-threaded [`Store`](crate::Store) into a snapshot-publishing
//! design — the writer applies updates and incremental maintenance on its
//! private state, then publishes an immutable [`StoreSnapshot`] behind an
//! atomically-swapped `Arc` epoch; readers clone the `Arc` and evaluate
//! against that frozen view, never blocking behind maintenance.
//!
//! Three invariants make this safe without fine-grained locking:
//!
//! 1. **Graphs are frozen at publish time.** A snapshot owns its graphs,
//!    cloned from the writer's state at most once per epoch, lazily, on
//!    the first read after a change. `Graph` clones are copy-on-write: the
//!    clone shares the writer's index chunks, the writer copies a chunk
//!    before its first write to it, so nothing the snapshot can reach is
//!    mutated afterwards. Publishing costs one pointer per 16 keys, and
//!    dropping a superseded snapshot frees only the chunks it alone held.
//! 2. **The dictionary is append-only and shared.** Term ids are never
//!    reassigned, so one `Arc<RwLock<Dictionary>>` serves the writer and
//!    every snapshot: readers interning query constants cannot invalidate
//!    any id a frozen graph was encoded against.
//! 3. **Derived caches are replaced, never cleared.** The schema closure,
//!    reformulation cache and interval dictionary ride along as `Arc`s that
//!    the writer *swaps* on schema-changing updates — a reader holding an
//!    old snapshot keeps the caches consistent with *its* graph.

use crate::store::{AnswerError, ReasoningConfig};
use obs::CancelToken;
use rdf_model::{Dictionary, Graph, IntervalDict, Vocab};
use rdfs::Schema;
use reformulation::{reformulate, reformulate_intervals};
use sparql::{
    parse_query, try_execute, EvalStats, Executable, IntervalQuery, Query, Solutions,
    UnionEvalError,
};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks a `RwLock` for reading, recovering from poisoning: every shared
/// structure here is append-only or replace-only, so a reader that
/// panicked mid-read cannot have left it half-mutated.
pub(crate) fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

/// Locks a `RwLock` for writing, recovering from poisoning (see
/// [`read_lock`]).
pub(crate) fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// Locks a `Mutex`, recovering from poisoning (see [`read_lock`]).
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Maps an executor error onto the answer error surface, counting
/// cancellations.
fn map_union(reg: &obs::Registry, e: UnionEvalError) -> AnswerError {
    match e {
        UnionEvalError::Cancelled => {
            reg.add("core.answer.cancelled", 1);
            AnswerError::Cancelled
        }
    }
}

/// Schema closure, computed at most once per schema version and shared by
/// every snapshot of that version (the writer swaps the `Arc` on
/// schema-changing updates).
pub(crate) type SchemaCell = Arc<OnceLock<Schema>>;

/// Entries one generation of a [`RewriteCache`] holds.
const REWRITE_CACHE_GENERATION: usize = 256;

/// A per-query rewrite cache, keyed by the whole query: the rewrite
/// carries its variable names, filters and modifiers. Boxed keys keep the
/// table's slots small, and values are `Arc`s, so a hit is a refcount
/// bump.
///
/// Bounded by two generations of [`REWRITE_CACHE_GENERATION`] entries:
/// when the young map fills, it becomes the old one and the old one is
/// dropped; a hit in the old map moves the entry back to the young one.
/// A server fed ever-new query texts so keeps at most two generations,
/// and a query asked again within a generation's worth of misses stays.
pub(crate) struct RewriteCache<V> {
    young: rustc_hash::FxHashMap<Box<Query>, Arc<V>>,
    old: rustc_hash::FxHashMap<Box<Query>, Arc<V>>,
}

impl<V> Default for RewriteCache<V> {
    fn default() -> Self {
        RewriteCache {
            young: Default::default(),
            old: Default::default(),
        }
    }
}

impl<V> RewriteCache<V> {
    /// The cached rewrite of `q`, if any.
    fn get(&mut self, q: &Query) -> Option<Arc<V>> {
        if let Some(hit) = self.young.get(q) {
            return Some(hit.clone());
        }
        let (key, hit) = self.old.remove_entry(q)?;
        self.insert(key, hit.clone());
        Some(hit)
    }

    /// Caches `rewrite` as the rewrite of `q`.
    fn insert(&mut self, q: Box<Query>, rewrite: Arc<V>) {
        if self.young.len() >= REWRITE_CACHE_GENERATION {
            self.old = std::mem::take(&mut self.young);
        }
        self.young.insert(q, rewrite);
    }

    /// The cached rewrite of `q`, or `rewrite(q)` cached. A rewrite
    /// error is returned and caches nothing.
    fn get_or_try<E>(
        &mut self,
        q: &Query,
        rewrite: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        if let Some(hit) = self.get(q) {
            return Ok(hit);
        }
        let fresh = Arc::new(rewrite()?);
        self.insert(Box::new(q.clone()), fresh.clone());
        Ok(fresh)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.young.len() + self.old.len()
    }
}

/// The reformulation cache: valid for one schema version, swapped with
/// [`SchemaCell`].
pub(crate) type RefoCache = Arc<Mutex<RewriteCache<Query>>>;

/// The LiteMat interval dictionary of the current schema version, built
/// lazily behind the first interval-strategy answer (the build *is* the
/// interval strategy's schema-update cost — spanned as
/// `core.interval.reencode`). Swapped with [`SchemaCell`].
pub(crate) type IntervalCell = Arc<OnceLock<Arc<IntervalDict>>>;

/// The interval-rewrite cache: valid for one schema version, swapped
/// with [`SchemaCell`].
pub(crate) type IqCache = Arc<Mutex<RewriteCache<IntervalQuery>>>;

/// How a schema-based (non-materialising) snapshot answers queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SchemaMode {
    /// Union reformulation: `q_ref(G)` through the union-aware evaluator.
    Reformulate,
    /// LiteMat interval rewriting: range-scan atoms over the interval
    /// dictionary instead of hierarchy unions.
    Interval,
}

/// A query rewritten for a schema-mode snapshot, ready for the executor.
enum Rewritten {
    /// The reformulated union `q_ref`.
    Union(Arc<Query>),
    /// The interval rewriting.
    Interval(Arc<IntervalQuery>),
}

/// Frozen per-strategy state: the graph a snapshot answers against.
pub(crate) enum SnapState {
    /// Maintained saturation: answer with `q(G∞)`.
    Saturated { saturated: Graph },
    /// Reformulation or interval rewriting over the explicit graph. Both
    /// share the schema closure; the compile caches of both ride along so
    /// either mode is also servable as a per-query override (see
    /// [`StoreSnapshot::answer_with_strategy`]).
    Schema {
        graph: Graph,
        mode: SchemaMode,
        schema: SchemaCell,
        refo_cache: RefoCache,
        interval: IntervalCell,
        iq_cache: IqCache,
    },
}

/// One published epoch of a [`Store`](crate::Store): an immutable view
/// that answers queries with `&self`, concurrently with the writer's
/// maintenance of the *next* epoch.
///
/// Cheap to share (`Arc`), safe to keep: a snapshot taken before an
/// update keeps answering from its frozen graphs.
pub struct StoreSnapshot {
    pub(crate) epoch: u64,
    pub(crate) config: ReasoningConfig,
    pub(crate) vocab: Vocab,
    pub(crate) dict: Arc<RwLock<Dictionary>>,
    pub(crate) state: SnapState,
}

impl StoreSnapshot {
    /// The epoch this snapshot publishes. Epochs increase monotonically
    /// with every effective update; two snapshots with the same epoch are
    /// views of identical data.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The reasoning strategy the snapshot answers with.
    pub fn config(&self) -> ReasoningConfig {
        self.config
    }

    /// A read guard on the shared dictionary (for decoding solutions).
    pub fn dictionary(&self) -> RwLockReadGuard<'_, Dictionary> {
        read_lock(&self.dict)
    }

    /// The frozen graph a registered incremental view is evaluated over
    /// under this snapshot's strategy: `G∞` under saturation (its
    /// entailed delta streams), the explicit `G` under reformulation and
    /// interval rewriting. Every strategy has one, so this is always
    /// `Some`.
    pub fn view_graph(&self) -> Option<&Graph> {
        match &self.state {
            SnapState::Saturated { saturated } => Some(saturated),
            SnapState::Schema { graph, .. } => Some(graph),
        }
    }

    /// For the reformulation and interval strategies: compiles `q` into
    /// its reformulated union `q_ref` against this snapshot's schema
    /// version, through the per-version cache the answer path uses (a
    /// miss is spanned `core.answer.reformulate`, so rewrite time stays
    /// out of evaluation time). Interval-mode snapshots serve the union
    /// form too: subscription views maintain it, and both rewritings
    /// produce identical answers. `Ok(None)` under saturation, which
    /// answers without a rewriting.
    pub fn reformulated(&self, q: &Query) -> Result<Option<Arc<Query>>, AnswerError> {
        let SnapState::Schema {
            graph,
            schema,
            refo_cache,
            ..
        } = &self.state
        else {
            return Ok(None);
        };
        let schema = schema.get_or_init(|| Schema::extract(graph, &self.vocab));
        let q_ref = lock(refo_cache).get_or_try(q, || {
            let _refo = obs::global().span("core.answer.reformulate");
            reformulate(q, schema, &self.vocab).map(|r| r.query)
        })?;
        Ok(Some(q_ref))
    }

    /// Parses a SPARQL query against the shared dictionary. New constants
    /// are interned (append-only), which never disturbs existing ids.
    pub fn prepare(&self, sparql: &str) -> Result<Query, AnswerError> {
        Ok(parse_query(sparql, &mut write_lock(&self.dict))?)
    }

    /// Parses and answers in one call.
    pub fn answer_sparql(
        &self,
        sparql: &str,
    ) -> Result<(Solutions, Option<EvalStats>), AnswerError> {
        let q = self.prepare(sparql)?;
        self.answer(&q)
    }

    /// Answers a prepared query against this frozen epoch with the active
    /// strategy, applying solution modifiers / aggregates uniformly at the
    /// end. Returns the evaluation stats when a rewriting ran (`None` for
    /// `q(G∞)`).
    ///
    /// `&self` end to end: lazily-derived state (schema closure, interval
    /// dictionary) lives in per-version `OnceLock`s, the rewrite caches
    /// behind shared mutexes — so any number of readers answer
    /// concurrently with each other and with the writer.
    pub fn answer(&self, q: &Query) -> Result<(Solutions, Option<EvalStats>), AnswerError> {
        self.answer_cancel(q, &CancelToken::none())
    }

    /// [`answer`](StoreSnapshot::answer) with cooperative cancellation:
    /// the token is polled on entry and threaded into the executor, which
    /// checks it between branches and every
    /// [`obs::CANCEL_POLL_STRIDE`] matched triples — under every strategy,
    /// saturation included. On trip the query returns
    /// [`AnswerError::Cancelled`] and the partial rows are discarded —
    /// the snapshot (including its rewrite caches) is untouched, so an
    /// identical re-run produces bit-identical answers.
    pub fn answer_cancel(
        &self,
        q: &Query,
        cancel: &CancelToken,
    ) -> Result<(Solutions, Option<EvalStats>), AnswerError> {
        self.answer_with_strategy(q, None, cancel)
    }

    /// The interval rewrite: build the interval dictionary once per schema
    /// version (spanned `core.interval.reencode` — the interval strategy's
    /// schema-update cost), then rewrite through the per-version cache.
    fn interval_path(
        &self,
        schema: &Schema,
        interval: &IntervalCell,
        iq_cache: &IqCache,
        q: &Query,
        reg: &obs::Registry,
    ) -> Result<Arc<IntervalQuery>, AnswerError> {
        let idict = interval
            .get_or_init(|| {
                let _span = reg.span("core.interval.reencode");
                reg.add("core.interval.reencodes", 1);
                Arc::new(schema.interval_dict())
            })
            .clone();
        Ok(lock(iq_cache).get_or_try(q, || {
            let _refo = reg.span("core.answer.reformulate");
            reformulate_intervals(q, schema, &self.vocab, idict)
        })?)
    }

    /// [`answer_cancel`](StoreSnapshot::answer_cancel) with an optional
    /// per-query strategy override: `"saturation"`, `"reformulation"` or
    /// `"interval"` (the server's `X-Webreason-Strategy` header lands
    /// here). A saturated snapshot serves `saturation`; a reformulation
    /// or interval snapshot serves both rewritings. Anything else —
    /// including unknown names — is rejected with
    /// [`AnswerError::StrategyUnsupported`].
    pub fn answer_with_strategy(
        &self,
        q: &Query,
        strategy: Option<&str>,
        cancel: &CancelToken,
    ) -> Result<(Solutions, Option<EvalStats>), AnswerError> {
        let reg = obs::global();
        let _span = reg.span("core.answer.query");
        reg.add("core.answer.queries", 1);
        if cancel.is_cancelled() {
            reg.add("core.answer.cancelled", 1);
            return Err(AnswerError::Cancelled);
        }
        let unsupported = |s: &str| {
            AnswerError::StrategyUnsupported(format!(
                "strategy '{s}' is not servable under the '{}' configuration",
                self.config.name()
            ))
        };
        let (graph, rewritten) = match (&self.state, strategy) {
            (_, Some(s)) if !matches!(s, "saturation" | "reformulation" | "interval") => {
                return Err(AnswerError::StrategyUnsupported(format!(
                    "unknown strategy '{s}' (expected saturation, reformulation or interval)"
                )))
            }
            (SnapState::Saturated { saturated }, None | Some("saturation")) => (saturated, None),
            (SnapState::Saturated { .. }, Some(s)) => return Err(unsupported(s)),
            (
                SnapState::Schema {
                    graph,
                    mode,
                    schema,
                    interval,
                    iq_cache,
                    ..
                },
                strategy,
            ) => {
                let schema = schema.get_or_init(|| Schema::extract(graph, &self.vocab));
                let mode = match strategy {
                    None => *mode,
                    Some("reformulation") => SchemaMode::Reformulate,
                    Some("interval") => SchemaMode::Interval,
                    Some(s) => return Err(unsupported(s)),
                };
                let rewritten = match mode {
                    SchemaMode::Reformulate => Rewritten::Union(
                        self.reformulated(q)?
                            .expect("a schema snapshot reformulates"),
                    ),
                    SchemaMode::Interval => {
                        Rewritten::Interval(self.interval_path(schema, interval, iq_cache, q, reg)?)
                    }
                };
                (graph, Some(rewritten))
            }
        };
        let exe = match &rewritten {
            None => Executable::Plain(q),
            Some(Rewritten::Union(q_ref)) => Executable::Union(q_ref),
            Some(Rewritten::Interval(iq)) => Executable::Interval(iq),
        };
        let (sols, stats) = try_execute(graph, exe, cancel).map_err(|e| map_union(reg, e))?;
        let eval_stats = rewritten.is_some().then_some(stats);
        // Only `COUNT` interns a term (its result literal); every other
        // query finalizes under a read guard, beside concurrent readers.
        let sols = if q.aggregate.is_some() {
            sparql::finalize(sols, q, &mut write_lock(&self.dict))
        } else {
            sparql::finalize_read(sols, q, &read_lock(&self.dict))
        };
        Ok((sols, eval_stats))
    }
}

/// The publication slot: one `RwLock`-guarded `Arc` the writer swaps and
/// readers clone. The lock is held only for the pointer copy, never
/// during evaluation or maintenance.
pub(crate) struct SnapshotCell {
    slot: RwLock<Arc<StoreSnapshot>>,
}

impl SnapshotCell {
    pub(crate) fn new(initial: Arc<StoreSnapshot>) -> Self {
        SnapshotCell {
            slot: RwLock::new(initial),
        }
    }

    /// The most recently published snapshot.
    pub(crate) fn current(&self) -> Arc<StoreSnapshot> {
        read_lock(&self.slot).clone()
    }

    /// Atomically replaces the published snapshot.
    pub(crate) fn publish(&self, snap: Arc<StoreSnapshot>) {
        *write_lock(&self.slot) = snap;
    }
}

/// A cloneable read handle onto a [`Store`](crate::Store): server worker
/// threads (and tests) hold one per thread and answer queries against
/// whatever epoch the writer last published, without any access to the
/// writer itself.
///
/// Obtained from [`Store::reader`](crate::Store::reader) or
/// [`DurableStore::reader`](crate::DurableStore::reader).
#[derive(Clone)]
pub struct StoreReader {
    pub(crate) cell: Arc<SnapshotCell>,
    pub(crate) dict: Arc<RwLock<Dictionary>>,
}

impl StoreReader {
    /// The most recently published epoch, frozen. Hold it to evaluate
    /// several queries against one consistent view.
    pub fn snapshot(&self) -> Arc<StoreSnapshot> {
        self.cell.current()
    }

    /// A read guard on the shared dictionary (decoding solutions).
    pub fn dictionary(&self) -> RwLockReadGuard<'_, Dictionary> {
        read_lock(&self.dict)
    }

    /// Parses a SPARQL query against the shared dictionary.
    pub fn prepare(&self, sparql: &str) -> Result<Query, AnswerError> {
        Ok(parse_query(sparql, &mut write_lock(&self.dict))?)
    }

    /// Parses and answers against the current published epoch. Returns
    /// the solutions, the union-evaluation stats when a reformulation
    /// path ran, and the epoch that was answered — so callers can assert
    /// monotonic reads.
    pub fn answer_sparql(
        &self,
        sparql: &str,
    ) -> Result<(Solutions, Option<EvalStats>, u64), AnswerError> {
        let snap = self.snapshot();
        let q = self.prepare(sparql)?;
        let (sols, stats) = snap.answer(&q)?;
        Ok((sols, stats, snap.epoch()))
    }

    /// Answers a prepared query against the current published epoch.
    pub fn answer(&self, q: &Query) -> Result<(Solutions, Option<EvalStats>, u64), AnswerError> {
        self.answer_cancel(q, &CancelToken::none())
    }

    /// [`answer`](StoreReader::answer) with cooperative cancellation (see
    /// [`StoreSnapshot::answer_cancel`]).
    pub fn answer_cancel(
        &self,
        q: &Query,
        cancel: &CancelToken,
    ) -> Result<(Solutions, Option<EvalStats>, u64), AnswerError> {
        let snap = self.snapshot();
        let (sols, stats) = snap.answer_cancel(q, cancel)?;
        Ok((sols, stats, snap.epoch()))
    }

    /// [`answer_sparql`](StoreReader::answer_sparql) with cooperative
    /// cancellation (see [`StoreSnapshot::answer_cancel`]).
    pub fn answer_sparql_cancel(
        &self,
        sparql: &str,
        cancel: &CancelToken,
    ) -> Result<(Solutions, Option<EvalStats>, u64), AnswerError> {
        self.answer_sparql_strategy_cancel(sparql, None, cancel)
    }

    /// [`answer_sparql_cancel`](StoreReader::answer_sparql_cancel) with an
    /// optional per-query strategy override (see
    /// [`StoreSnapshot::answer_with_strategy`]).
    pub fn answer_sparql_strategy_cancel(
        &self,
        sparql: &str,
        strategy: Option<&str>,
        cancel: &CancelToken,
    ) -> Result<(Solutions, Option<EvalStats>, u64), AnswerError> {
        let snap = self.snapshot();
        let q = self.prepare(sparql)?;
        let (sols, stats) = snap.answer_with_strategy(&q, strategy, cancel)?;
        Ok((sols, stats, snap.epoch()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A distinct query per `i`.
    fn query(i: usize) -> Query {
        let text = format!("SELECT ?x WHERE {{ ?x <http://ex/p> ?y{i} }}");
        parse_query(&text, &mut Dictionary::new()).unwrap()
    }

    #[test]
    fn rewrite_cache_stays_bounded_and_keeps_a_hot_query() {
        let mut cache: RewriteCache<usize> = RewriteCache::default();
        let hot = query(usize::MAX);
        let rewrites = std::cell::Cell::new(0);
        let rewrite = |v: usize| {
            rewrites.set(rewrites.get() + 1);
            Ok::<_, ()>(v)
        };
        assert_eq!(*cache.get_or_try(&hot, || rewrite(0)).unwrap(), 0);
        for i in 0..5 * REWRITE_CACHE_GENERATION {
            cache.get_or_try(&query(i), || rewrite(i)).unwrap();
            // Asked once per half generation, the hot query always hits,
            // across every flip of the two maps.
            if i % (REWRITE_CACHE_GENERATION / 2) == 0 {
                let hit = cache.get_or_try(&hot, || rewrite(usize::MAX)).unwrap();
                assert_eq!(*hit, 0, "the hot query's first rewrite, after {i} others");
            }
            assert!(cache.len() <= 2 * REWRITE_CACHE_GENERATION);
        }
        assert_eq!(rewrites.get(), 1 + 5 * REWRITE_CACHE_GENERATION);
        // A query not asked for two generations was dropped.
        cache.get_or_try(&query(0), || rewrite(7)).unwrap();
        assert_eq!(rewrites.get(), 2 + 5 * REWRITE_CACHE_GENERATION);
        // A failed rewrite caches nothing.
        assert!(cache.get_or_try(&query(1), || Err(())).is_err());
        assert!(cache.get(&query(1)).is_none());
    }
}
