//! The [`Store`]: one RDF database, three query-answering strategies.
//!
//! Query answering is snapshot-isolated: [`Store::answer`] takes `&self`
//! and evaluates against an immutable published [`StoreSnapshot`] epoch,
//! so readers (via [`Store::reader`]) run concurrently with the writer's
//! updates and incremental maintenance. See [`crate::snapshot`].

use crate::snapshot::{
    lock, read_lock, write_lock, IntervalCell, IqCache, RefoCache, SchemaCell, SchemaMode,
    SnapState, SnapshotCell, StoreReader, StoreSnapshot,
};
use rdf_io::ParseError;
use rdf_model::{Dictionary, Graph, Term, Triple, Vocab};
use rdfs::incremental::{CountingMaintainer, UpdateKind, UpdateStats};
use reformulation::ReformulationError;
use sparql::{parse_query, EvalStats, Query, QueryParseError, Solutions, UnionEvalError};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// How a saturated store maintains `G∞` under updates. Counting is the
/// only maintainer in the code. The enum keeps its one variant only
/// because the benchmark trace spells
/// `ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting)`; the next
/// change to the benchmark drops it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaintenanceAlgorithm {
    /// Derivation counting ([`CountingMaintainer`]).
    Counting,
}

/// Which query-answering technique the store serves: the paper's two
/// (§II-B) plus LiteMat interval rewriting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReasoningConfig {
    /// Materialise `G∞`, maintain it by derivation counting, and answer
    /// with `q(G∞)`.
    Saturation(MaintenanceAlgorithm),
    /// Rewrite queries; answer with `q_ref(G)`.
    Reformulation,
    /// LiteMat-style interval rewriting: a hierarchy-interval dictionary
    /// turns "`C` or any subclass" into one range scan instead of a union
    /// branch per subclass. Answers equal `q_ref(G)` = `q(G∞)`; the
    /// schema-update cost is re-encoding the interval dictionary.
    Interval,
}

impl ReasoningConfig {
    /// Every configuration, for sweeps and equivalence tests.
    pub const ALL: [ReasoningConfig; 3] = [
        ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting),
        ReasoningConfig::Reformulation,
        ReasoningConfig::Interval,
    ];

    /// Parses a [`ReasoningConfig::name`] back into the configuration
    /// (used by journal replay and the CLI). Returns `None` for unknown
    /// names. Journals and checkpoints written while stores also served
    /// the since-deleted recompute and DRed maintainers name them; all
    /// three held the same `G∞`, so those names recover as counting.
    pub fn from_name(name: &str) -> Option<ReasoningConfig> {
        match name {
            "saturation(dred)" | "saturation(recompute)" => {
                Some(ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting))
            }
            _ => Self::ALL.into_iter().find(|c| c.name() == name),
        }
    }

    /// Display name, e.g. `saturation(counting)`.
    pub fn name(self) -> String {
        match self {
            ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting) => {
                "saturation(counting)".into()
            }
            ReasoningConfig::Reformulation => "reformulation".into(),
            ReasoningConfig::Interval => "interval".into(),
        }
    }
}

/// Errors surfaced by [`Store`] operations.
#[derive(Debug)]
pub enum AnswerError {
    /// RDF data failed to parse.
    Data(ParseError),
    /// The SPARQL text failed to parse.
    Query(QueryParseError),
    /// The active strategy is reformulation or interval rewriting and the
    /// query is outside the reformulation dialect — switch to saturation.
    Reformulation(ReformulationError),
    /// The request's [`obs::CancelToken`] tripped (deadline expired or
    /// client disconnected) and evaluation was abandoned cooperatively.
    /// No partial state escapes: the snapshot, rewrite caches and counters
    /// are exactly as if the query had never run (plus cancellation
    /// counters). The server maps this to HTTP 504.
    Cancelled,
    /// A per-query strategy override named an unknown strategy, or one
    /// this snapshot's configuration cannot serve (e.g. `saturation` on a
    /// reformulation store). The server maps this to HTTP 400.
    StrategyUnsupported(String),
}

impl fmt::Display for AnswerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnswerError::Data(e) => write!(f, "{e}"),
            AnswerError::Query(e) => write!(f, "{e}"),
            AnswerError::Reformulation(e) => write!(f, "{e}"),
            AnswerError::Cancelled => f.write_str("query cancelled (deadline expired)"),
            AnswerError::StrategyUnsupported(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for AnswerError {}

impl From<ParseError> for AnswerError {
    fn from(e: ParseError) -> Self {
        AnswerError::Data(e)
    }
}
impl From<QueryParseError> for AnswerError {
    fn from(e: QueryParseError) -> Self {
        AnswerError::Query(e)
    }
}
impl From<ReformulationError> for AnswerError {
    fn from(e: ReformulationError) -> Self {
        AnswerError::Reformulation(e)
    }
}
impl From<UnionEvalError> for AnswerError {
    fn from(e: UnionEvalError) -> Self {
        match e {
            UnionEvalError::Cancelled => AnswerError::Cancelled,
        }
    }
}

/// Snapshot of the store's size and strategy state.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct StoreStats {
    /// Explicit triples in `G`.
    pub base_triples: usize,
    /// Triples in the maintained `G∞` (saturation only).
    pub saturated_triples: Option<usize>,
    /// Distinct dictionary terms.
    pub dictionary_terms: usize,
    /// Active strategy name.
    pub strategy: String,
}

/// The signed triple delta accumulated between two [`Store::take_delta`]
/// drains, in application order. Consumers (the subscription layer) must
/// consolidate: a triple may appear once per direction when an update
/// script inserts and deletes it in turn.
#[derive(Debug, Clone, Default)]
pub struct StoreDelta {
    /// Changes to the explicit graph `G`: `(t, true)` when `t` was
    /// inserted, `(t, false)` when it was removed.
    pub base: Vec<(Triple, bool)>,
    /// Changes to the maintained saturation `G∞` — empty unless the active
    /// strategy is saturation.
    pub entailed: Vec<(Triple, bool)>,
    /// Whether a schema-changing mutation (or a strategy rebuild)
    /// happened since the last drain. Derived caches were swapped; views
    /// over reformulated queries must recompile.
    pub schema_changed: bool,
}

impl StoreDelta {
    /// True when nothing changed since the last drain.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty() && self.entailed.is_empty() && !self.schema_changed
    }
}

/// Per-strategy writer-side state. Derived caches that queries need
/// (schema closure, rewrite caches, interval dictionary) live
/// snapshot-side — see [`crate::snapshot::SnapState`] — so that answering
/// never mutates the store.
enum State {
    /// Maintained saturation: the maintainer owns `G` and `G∞`.
    Saturation(Box<CountingMaintainer>),
    /// Reformulation or interval rewriting over the explicit graph.
    Schema { graph: Graph, mode: SchemaMode },
}

/// An RDF store with a pluggable reasoning strategy.
///
/// Updates (`&mut self`) bump an epoch counter; [`Store::snapshot`]
/// publishes an immutable [`StoreSnapshot`] of the current epoch (built
/// lazily, at most one graph clone per epoch) and [`Store::answer`]
/// (`&self`) evaluates against it — concurrently with readers holding
/// [`StoreReader`] handles from [`Store::reader`].
pub struct Store {
    /// Shared append-only dictionary: term ids are never reassigned, so
    /// the writer and every published snapshot read the same mapping.
    dict: Arc<RwLock<Dictionary>>,
    vocab: Vocab,
    config: ReasoningConfig,
    state: State,
    /// Monotonic version: bumped on every effective mutation. Starts at 1
    /// so the placeholder snapshot (epoch 0) is never considered fresh.
    epoch: u64,
    /// Schema closure of the current schema version, shared with
    /// snapshots; swapped (not cleared) on schema-changing updates.
    schema_cell: SchemaCell,
    /// Reformulation cache for the current schema version (swapped with
    /// [`Store::schema_cell`]).
    refo_cache: RefoCache,
    /// Interval dictionary of the current schema version, built lazily by
    /// the first interval-path answer; swapping it on schema change *is*
    /// the interval strategy's maintenance step (the next answer pays the
    /// re-encode, spanned `core.interval.reencode`).
    interval_cell: IntervalCell,
    /// Per-query interval-rewrite cache (swapped with
    /// [`Store::interval_cell`]).
    iq_cache: IqCache,
    /// The publication slot readers clone snapshots from.
    cell: Arc<SnapshotCell>,
    /// Stats of the most recent union-aware evaluation (reformulation
    /// paths only); `None` when the last answer took another path.
    last_eval_stats: Mutex<Option<EvalStats>>,
    /// Whether [`Store::take_delta`] consumers are attached (see
    /// [`Store::set_delta_tracking`]). Off by default: capture is free
    /// when no one subscribes.
    delta_tracking: bool,
    /// Base-graph delta accumulated since the last [`Store::take_delta`].
    base_delta: Vec<(Triple, bool)>,
    /// Schema-changed flag accumulated since the last drain.
    delta_schema_changed: bool,
}

/// `owl:inverseOf`, `owl:SymmetricProperty` and `owl:TransitiveProperty`,
/// in the order every store interns them (see [`Store::from_parts`]).
const BASELINE_OWL_TERMS: [&str; 3] = [
    "http://www.w3.org/2002/07/owl#inverseOf",
    "http://www.w3.org/2002/07/owl#SymmetricProperty",
    "http://www.w3.org/2002/07/owl#TransitiveProperty",
];

impl Store {
    /// Creates an empty store with the given strategy.
    pub fn new(config: ReasoningConfig) -> Self {
        let mut dict = Dictionary::new();
        let vocab = Vocab::intern(&mut dict);
        Self::from_parts(dict, vocab, Graph::new(), config)
    }

    /// Builds a store over an existing encoded graph (e.g. a generated
    /// workload dataset). The dictionary must be the one the graph was
    /// encoded against, with `vocab` interned in it.
    pub fn from_parts(
        mut dict: Dictionary,
        vocab: Vocab,
        graph: Graph,
        config: ReasoningConfig,
    ) -> Self {
        // Journal compatibility: stores have always interned the three OWL
        // terms right after the RDFS vocabulary, and journal replay
        // without a checkpoint re-encodes each record's `new_terms`
        // on top of this baseline, so dropping these terms would shift
        // every journaled id by 3 and recover the wrong triples silently.
        for iri in BASELINE_OWL_TERMS {
            dict.encode(&Term::iri(iri));
        }
        let dict = Arc::new(RwLock::new(dict));
        let state = Self::build_state(graph, vocab, config);
        // The slot starts with an empty epoch-0 placeholder; epoch 1 is
        // published lazily by the first `snapshot()` call, so building a
        // store over a large graph costs no clone until someone reads.
        let placeholder = Arc::new(StoreSnapshot {
            epoch: 0,
            config,
            vocab,
            dict: dict.clone(),
            state: SnapState::Saturated {
                saturated: Graph::new(),
            },
        });
        Store {
            dict,
            vocab,
            config,
            state,
            epoch: 1,
            schema_cell: Arc::new(OnceLock::new()),
            refo_cache: Arc::default(),
            interval_cell: Arc::new(OnceLock::new()),
            iq_cache: Arc::default(),
            cell: Arc::new(SnapshotCell::new(placeholder)),
            last_eval_stats: Mutex::new(None),
            delta_tracking: false,
            base_delta: Vec::new(),
            delta_schema_changed: false,
        }
    }

    fn build_state(graph: Graph, vocab: Vocab, config: ReasoningConfig) -> State {
        match config {
            ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting) => {
                State::Saturation(Box::new(CountingMaintainer::new(graph, vocab)))
            }
            ReasoningConfig::Reformulation => State::Schema {
                graph,
                mode: SchemaMode::Reformulate,
            },
            ReasoningConfig::Interval => State::Schema {
                graph,
                mode: SchemaMode::Interval,
            },
        }
    }

    /// Bumps the epoch (the published snapshot is now stale) and, when the
    /// mutation touched schema triples, swaps the schema-derived caches so
    /// the next epoch recomputes them while old snapshots keep theirs.
    fn note_change(&mut self, schema_changed: bool) {
        self.epoch += 1;
        if schema_changed {
            self.schema_cell = Arc::new(OnceLock::new());
            self.refo_cache = Arc::default();
            self.interval_cell = Arc::new(OnceLock::new());
            self.iq_cache = Arc::default();
            if self.delta_tracking {
                self.delta_schema_changed = true;
            }
        }
    }

    /// Builds the snapshot of the current epoch from the writer state —
    /// the one place graphs are cloned (at most once per epoch). The
    /// clones are copy-on-write, so this shares the writer's index chunks
    /// instead of copying the graphs.
    fn build_snapshot(&self) -> StoreSnapshot {
        let state = match &self.state {
            State::Saturation(m) => SnapState::Saturated {
                saturated: m.saturated().clone(),
            },
            State::Schema { graph, mode } => SnapState::Schema {
                graph: graph.clone(),
                mode: *mode,
                schema: self.schema_cell.clone(),
                refo_cache: self.refo_cache.clone(),
                interval: self.interval_cell.clone(),
                iq_cache: self.iq_cache.clone(),
            },
        };
        StoreSnapshot {
            epoch: self.epoch,
            config: self.config,
            vocab: self.vocab,
            dict: self.dict.clone(),
            state,
        }
    }

    /// The current epoch's immutable snapshot, publishing it if the one
    /// in the slot is stale. This is how the writer makes updates visible
    /// to [`StoreReader`] handles: apply mutations, then call `snapshot()`
    /// (or any `&self` answering method, which does it implicitly).
    pub fn snapshot(&self) -> Arc<StoreSnapshot> {
        let current = self.cell.current();
        if current.epoch == self.epoch {
            return current;
        }
        let snap = Arc::new(self.build_snapshot());
        self.cell.publish(snap.clone());
        snap
    }

    /// A cloneable concurrent read handle: worker threads answer queries
    /// against whatever epoch the writer last published. Publishes the
    /// current epoch first so the handle never observes the placeholder.
    pub fn reader(&self) -> StoreReader {
        self.snapshot();
        StoreReader {
            cell: self.cell.clone(),
            dict: self.dict.clone(),
        }
    }

    /// The active strategy.
    pub fn config(&self) -> ReasoningConfig {
        self.config
    }

    /// Switches strategy, rebuilding derived state from the explicit
    /// triples.
    pub fn set_config(&mut self, config: ReasoningConfig) {
        if config == self.config {
            return;
        }
        self.config = config;
        self.rebuild();
    }

    /// Rebuilds the writer state from the explicit triples after a
    /// strategy switch. The rebuild loses the maintainer's per-triple
    /// delta trail, so it re-arms delta recording and reports
    /// `schema_changed`, which tells delta consumers to refresh wholesale.
    fn rebuild(&mut self) {
        let empty = State::Schema {
            graph: Graph::new(),
            mode: SchemaMode::Reformulate,
        };
        let graph = match std::mem::replace(&mut self.state, empty) {
            // The one path that materialises `G` from a saturated store.
            State::Saturation(m) => m.explicit().collect(),
            State::Schema { graph, .. } => graph,
        };
        self.state = Self::build_state(graph, self.vocab, self.config);
        if let State::Saturation(m) = &mut self.state {
            m.set_delta_tracking(self.delta_tracking);
        }
        self.note_change(true);
    }

    // --- delta tracking -----------------------------------------------------

    /// Turns capture of update deltas on or off. While on, every effective
    /// mutation records its base-graph delta (and, under saturation, the
    /// entailed delta) for [`Store::take_delta`]. Turning it off discards
    /// anything captured but not yet drained.
    pub fn set_delta_tracking(&mut self, on: bool) {
        self.delta_tracking = on;
        if !on {
            self.base_delta.clear();
            self.delta_schema_changed = false;
        }
        if let State::Saturation(m) = &mut self.state {
            m.set_delta_tracking(on);
        }
    }

    /// Whether delta capture is currently enabled.
    pub fn delta_tracking(&self) -> bool {
        self.delta_tracking
    }

    /// Drains the delta captured since the last drain (empty unless
    /// [`Store::set_delta_tracking`] is on).
    pub fn take_delta(&mut self) -> StoreDelta {
        let entailed = match &mut self.state {
            State::Saturation(m) => m.take_entailed_delta(),
            State::Schema { .. } => Vec::new(),
        };
        StoreDelta {
            base: std::mem::take(&mut self.base_delta),
            entailed,
            schema_changed: std::mem::take(&mut self.delta_schema_changed),
        }
    }

    /// The dictionary (for decoding solution ids), as a read guard on the
    /// shared append-only map. Deref-coerces wherever `&Dictionary` is
    /// expected; don't hold it across a call that interns (parse/prepare).
    pub fn dictionary(&self) -> RwLockReadGuard<'_, Dictionary> {
        read_lock(&self.dict)
    }

    /// Write access to the shared dictionary for the durable layer
    /// (journal replay re-interns terms; the journaled loaders parse
    /// against the store's dictionary before appending). Interning is
    /// append-only, so this never invalidates a published snapshot.
    pub(crate) fn dict_mut(&self) -> RwLockWriteGuard<'_, Dictionary> {
        write_lock(&self.dict)
    }

    /// The pre-interned vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// The explicit triples of `G`, in no particular order. A saturated
    /// store holds no copy of `G`: it reads them off `G∞`'s explicit bits.
    pub fn explicit_triples(&self) -> Box<dyn Iterator<Item = Triple> + '_> {
        match &self.state {
            State::Saturation(m) => Box::new(m.explicit()),
            State::Schema { graph, .. } => Box::new(graph.iter()),
        }
    }

    /// How many triples `G` holds.
    pub fn explicit_len(&self) -> usize {
        match &self.state {
            State::Saturation(m) => m.explicit_len(),
            State::Schema { graph, .. } => graph.len(),
        }
    }

    /// Whether `t` is asserted, i.e. in `G` (an entailed-only triple is
    /// not).
    pub fn is_explicit(&self, t: &Triple) -> bool {
        match &self.state {
            State::Saturation(m) => m.is_explicit(t),
            State::Schema { graph, .. } => graph.contains(t),
        }
    }

    /// Size and state snapshot.
    pub fn stats(&self) -> StoreStats {
        let saturated_triples = match &self.state {
            State::Saturation(m) => Some(m.saturated().len()),
            State::Schema { .. } => None,
        };
        StoreStats {
            base_triples: self.explicit_len(),
            saturated_triples,
            dictionary_terms: self.dictionary().len(),
            strategy: self.config.name(),
        }
    }

    // --- loading and updates ---------------------------------------------

    /// Parses Turtle and inserts every triple as one batch. Returns how
    /// many triples the document contained.
    pub fn load_turtle(&mut self, text: &str) -> Result<usize, AnswerError> {
        let mut staging = Graph::new();
        let n = rdf_io::parse_turtle(text, &mut self.dict_mut(), &mut staging)?;
        let triples: Vec<Triple> = staging.iter().collect();
        self.insert_batch(&triples);
        Ok(n)
    }

    /// Parses N-Triples and inserts every triple as one batch.
    pub fn load_ntriples(&mut self, text: &str) -> Result<usize, AnswerError> {
        let mut staging = Graph::new();
        let n = rdf_io::parse_ntriples(text, &mut self.dict_mut(), &mut staging)?;
        let triples: Vec<Triple> = staging.iter().collect();
        self.insert_batch(&triples);
        Ok(n)
    }

    /// Inserts a batch of triples, one maintenance step per triple.
    /// Reports [`UpdateKind::Batch`] when any triple changed the base
    /// graph and [`UpdateKind::Noop`] otherwise.
    pub fn insert_batch(&mut self, triples: &[Triple]) -> UpdateStats {
        self.apply_batch(triples, true)
    }

    /// Deletes a batch of triples, one maintenance step per triple.
    pub fn delete_batch(&mut self, triples: &[Triple]) -> UpdateStats {
        self.apply_batch(triples, false)
    }

    fn apply_batch(&mut self, triples: &[Triple], insert: bool) -> UpdateStats {
        let mut tally = MaintainTally::default();
        let mut total = UpdateStats::noop();
        for t in triples {
            let s = self.apply_one(t, insert, &mut tally);
            if s.kind != UpdateKind::Noop {
                total.kind = UpdateKind::Batch;
            }
            total.added += s.added;
            total.removed += s.removed;
            total.work += s.work;
        }
        tally.flush(obs::global());
        total
    }

    /// Encodes three terms and inserts the triple.
    pub fn insert_terms(&mut self, s: &Term, p: &Term, o: &Term) -> UpdateStats {
        let t = {
            let mut dict = self.dict_mut();
            Triple::new(dict.encode(s), dict.encode(p), dict.encode(o))
        };
        self.insert(t)
    }

    /// Inserts an encoded triple, maintaining derived state.
    pub fn insert(&mut self, t: Triple) -> UpdateStats {
        self.apply_flushed(&t, true)
    }

    /// Encodes three terms and deletes the triple (if the terms are known).
    pub fn delete_terms(&mut self, s: &Term, p: &Term, o: &Term) -> UpdateStats {
        let ids = {
            let dict = self.dictionary();
            (dict.get_id(s), dict.get_id(p), dict.get_id(o))
        };
        match ids {
            (Some(s), Some(p), Some(o)) => self.delete(&Triple::new(s, p, o)),
            _ => UpdateStats::noop(),
        }
    }

    /// Deletes an encoded triple, maintaining derived state.
    pub fn delete(&mut self, t: &Triple) -> UpdateStats {
        self.apply_flushed(t, false)
    }

    /// One maintained update, its accounting flushed at once.
    fn apply_flushed(&mut self, t: &Triple, insert: bool) -> UpdateStats {
        let mut tally = MaintainTally::default();
        let stats = self.apply_one(t, insert, &mut tally);
        tally.flush(obs::global());
        stats
    }

    /// Inserts (`insert`) or deletes `t`, maintaining derived state, and
    /// notes the update in `tally`; the caller flushes the tally.
    pub(crate) fn apply_one(
        &mut self,
        t: &Triple,
        insert: bool,
        tally: &mut MaintainTally,
    ) -> UpdateStats {
        let reg = obs::global();
        let start = reg.now_us();
        let stats = match (&mut self.state, insert) {
            (State::Saturation(m), true) => m.insert(*t),
            (State::Saturation(m), false) => m.delete(t),
            (State::Schema { graph, .. }, true) => {
                plain_update(graph.insert(*t), true, t, &self.vocab)
            }
            (State::Schema { graph, .. }, false) => {
                plain_update(graph.remove(t), false, t, &self.vocab)
            }
        };
        tally.note(&stats, reg.now_us().saturating_sub(start));
        if stats.kind != UpdateKind::Noop {
            if self.delta_tracking {
                self.base_delta.push((*t, insert));
            }
            self.note_change(self.vocab.is_schema_property(t.p));
        }
        stats
    }

    // --- explanations -------------------------------------------------------

    /// Explains why `t` is entailed (a derivation tree down to asserted
    /// triples), or `None` if it is not. Reuses the maintained saturation
    /// when one exists; otherwise saturates on the fly. See
    /// [`rdfs::explain`] — the "justifications" of §II-C.
    pub fn explain(&self, t: &Triple) -> Option<rdfs::explain::Explanation> {
        match &self.state {
            State::Saturation(m) => {
                rdfs::explain::explain_in(t, &|t| m.is_explicit(t), m.saturated(), &self.vocab)
            }
            State::Schema { graph, .. } => rdfs::explain::explain(t, graph, &self.vocab),
        }
    }

    /// Term-level convenience for [`Store::explain`]; unknown terms mean
    /// the triple cannot be entailed.
    pub fn explain_terms(
        &self,
        s: &Term,
        p: &Term,
        o: &Term,
    ) -> Option<rdfs::explain::Explanation> {
        let t = {
            let dict = self.dictionary();
            Triple::new(dict.get_id(s)?, dict.get_id(p)?, dict.get_id(o)?)
        };
        self.explain(&t)
    }

    // --- export ------------------------------------------------------------

    /// Serialises the base graph `G` as sorted N-Triples.
    pub fn export_ntriples(&self) -> String {
        rdf_io::write_ntriples_sorted(self.explicit_triples(), &self.dictionary())
    }

    /// Serialises the base graph `G` as Turtle against `prefixes`.
    pub fn export_turtle(&self, prefixes: &rdf_io::PrefixMap) -> String {
        rdf_io::write_turtle(self.explicit_triples(), &self.dictionary(), prefixes)
    }

    // --- query answering ---------------------------------------------------

    /// Parses a SPARQL BGP query against this store's dictionary.
    pub fn prepare(&self, sparql: &str) -> Result<Query, AnswerError> {
        Ok(parse_query(sparql, &mut self.dict_mut())?)
    }

    /// Answers a prepared query with the active strategy, applying any
    /// solution modifiers / aggregate (`ORDER BY`, `LIMIT`, `OFFSET`,
    /// `COUNT`) uniformly at the end.
    ///
    /// Takes `&self`: evaluation runs against the current epoch's
    /// published [`StoreSnapshot`] (see [`Store::snapshot`]), so queries
    /// run concurrently with each other — and, through [`StoreReader`]
    /// handles, with the writer's maintenance. Note: under
    /// [`ReasoningConfig::Reformulation`], `COUNT(*)` counts *distinct*
    /// solutions (reformulation's answer-set semantics).
    pub fn answer(&self, q: &Query) -> Result<Solutions, AnswerError> {
        let snap = self.snapshot();
        let (sols, stats) = snap.answer(q)?;
        *lock(&self.last_eval_stats) = stats;
        Ok(sols)
    }

    /// Stats of the most recent [`Store::answer`] call that took a
    /// reformulation or interval path (branch sharing, scan-cache
    /// counters, phase timings); `None` when the last answer came from a
    /// saturated graph.
    pub fn last_eval_stats(&self) -> Option<EvalStats> {
        lock(&self.last_eval_stats).clone()
    }

    /// Parses and answers in one call.
    pub fn answer_sparql(&self, sparql: &str) -> Result<Solutions, AnswerError> {
        let q = self.prepare(sparql)?;
        self.answer(&q)
    }
}

/// The maintenance accounting of a run of updates: per-kind latency
/// histograms (`core.maintain.<kind>_us`) plus update and work counters.
/// Updates note into it locally and [`MaintainTally::flush`] folds it into
/// the registry once, so a script of n updates costs one round of registry
/// locks rather than n. `UpdateStats` stays the caller-facing façade.
#[derive(Default)]
pub(crate) struct MaintainTally {
    updates: u64,
    work: u64,
    added: u64,
    removed: u64,
    /// One histogram per [`UpdateKind`], in [`KIND_HISTOGRAMS`] order.
    latency_us: [obs::Histogram; 6],
}

/// The latency histogram of each [`UpdateKind`], indexed as
/// [`MaintainTally::latency_us`].
const KIND_HISTOGRAMS: [&str; 6] = [
    "core.maintain.instance_insert_us",
    "core.maintain.instance_delete_us",
    "core.maintain.schema_insert_us",
    "core.maintain.schema_delete_us",
    "core.maintain.batch_us",
    "core.maintain.noop_us",
];

impl MaintainTally {
    /// Notes one finished update that took `dur_us`.
    fn note(&mut self, stats: &UpdateStats, dur_us: u64) {
        self.updates += 1;
        self.work += stats.work as u64;
        self.added += stats.added as u64;
        self.removed += stats.removed as u64;
        let kind = match stats.kind {
            UpdateKind::InstanceInsert => 0,
            UpdateKind::InstanceDelete => 1,
            UpdateKind::SchemaInsert => 2,
            UpdateKind::SchemaDelete => 3,
            UpdateKind::Batch => 4,
            UpdateKind::Noop => 5,
        };
        self.latency_us[kind].record(dur_us);
    }

    /// Folds the tally into `reg`: what one `add` per counter and one
    /// `record` per update would have left there.
    pub(crate) fn flush(&self, reg: &obs::Registry) {
        if self.updates == 0 || !reg.is_enabled() {
            return;
        }
        reg.add("core.maintain.updates", self.updates);
        reg.add("core.maintain.work", self.work);
        reg.add("core.maintain.triples_added", self.added);
        reg.add("core.maintain.triples_removed", self.removed);
        for (name, h) in KIND_HISTOGRAMS.into_iter().zip(&self.latency_us) {
            reg.merge_histogram(name, h);
        }
    }
}

fn plain_update(changed: bool, insert: bool, t: &Triple, vocab: &Vocab) -> UpdateStats {
    let kind = if !changed {
        UpdateKind::Noop
    } else {
        match (vocab.is_schema_property(t.p), insert) {
            (true, true) => UpdateKind::SchemaInsert,
            (true, false) => UpdateKind::SchemaDelete,
            (false, true) => UpdateKind::InstanceInsert,
            (false, false) => UpdateKind::InstanceDelete,
        }
    };
    UpdateStats {
        kind,
        added: (changed && insert) as usize,
        removed: (changed && !insert) as usize,
        work: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ZOO: &str = r#"
        @prefix ex: <http://ex/> .
        @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
        ex:Cat rdfs:subClassOf ex:Mammal .
        ex:Mammal rdfs:subClassOf ex:Animal .
        ex:hasPet rdfs:range ex:Animal .
        ex:Tom a ex:Cat .
        ex:anne ex:hasPet ex:Goldie .
    "#;

    const MAMMALS: &str = "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Mammal }";
    const ANIMALS: &str = "PREFIX ex: <http://ex/> SELECT DISTINCT ?x WHERE { ?x a ex:Animal }";

    fn store_with(config: ReasoningConfig) -> Store {
        let mut s = Store::new(config);
        s.load_turtle(ZOO).expect("fixture loads");
        s
    }

    #[test]
    fn every_reasoning_strategy_answers_the_paper_example() {
        for config in ReasoningConfig::ALL {
            let s = store_with(config);
            let sols = s.answer_sparql(MAMMALS).unwrap();
            assert_eq!(sols.len(), 1, "{}: Tom is a mammal", config.name());
            let sols = s.answer_sparql(ANIMALS).unwrap();
            assert_eq!(
                sols.len(),
                2,
                "{}: Tom + Goldie (range typing)",
                config.name()
            );
        }
    }

    #[test]
    fn updates_flow_through_every_strategy() {
        for config in ReasoningConfig::ALL {
            let mut s = store_with(config);
            // insert a new cat
            let stats = s.insert_terms(
                &Term::iri("http://ex/Felix"),
                &Term::iri(rdf_model::vocab::RDF_TYPE),
                &Term::iri("http://ex/Cat"),
            );
            assert_eq!(stats.kind, rdfs::incremental::UpdateKind::InstanceInsert);
            assert_eq!(
                s.answer_sparql(MAMMALS).unwrap().len(),
                2,
                "{}",
                config.name()
            );
            // schema update: Dog ⊑ Mammal + a dog
            s.load_turtle(
                "@prefix ex: <http://ex/> . @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
                 ex:Dog rdfs:subClassOf ex:Mammal . ex:Rex a ex:Dog .",
            )
            .unwrap();
            assert_eq!(
                s.answer_sparql(MAMMALS).unwrap().len(),
                3,
                "{}",
                config.name()
            );
            // delete the schema edge again
            s.delete_terms(
                &Term::iri("http://ex/Dog"),
                &Term::iri(rdf_model::vocab::RDFS_SUB_CLASS_OF),
                &Term::iri("http://ex/Mammal"),
            );
            assert_eq!(
                s.answer_sparql(MAMMALS).unwrap().len(),
                2,
                "{}",
                config.name()
            );
        }
    }

    #[test]
    fn empty_and_noop_batches() {
        for config in ReasoningConfig::ALL {
            let mut s = store_with(config);
            let epoch = s.snapshot().epoch();
            assert_eq!(s.insert_batch(&[]).kind, UpdateKind::Noop);
            let existing: Vec<Triple> = s.explicit_triples().take(3).collect();
            let stats = s.insert_batch(&existing);
            assert_eq!(
                stats.kind,
                UpdateKind::Noop,
                "{}: duplicates",
                config.name()
            );
            let absent = [Triple::new(existing[0].s, existing[0].p, existing[0].s)];
            let stats = s.delete_batch(&absent);
            assert_eq!(stats.kind, UpdateKind::Noop, "{}: absent", config.name());
            assert_eq!(
                s.snapshot().epoch(),
                epoch,
                "{}: no new epoch",
                config.name()
            );
            // One effective triple makes the batch a batch.
            let mut mixed = existing.clone();
            mixed.push(Triple::new(existing[0].o, existing[0].p, existing[0].s));
            assert_eq!(s.insert_batch(&mixed).kind, UpdateKind::Batch);
            assert_eq!(s.delete_batch(&mixed).kind, UpdateKind::Batch);
        }
    }

    #[test]
    fn strategy_switch_preserves_data() {
        let mut s = store_with(ReasoningConfig::Reformulation);
        let base = s.explicit_len();
        for config in ReasoningConfig::ALL {
            s.set_config(config);
            assert_eq!(s.explicit_len(), base, "{}", config.name());
        }
        // end on a reasoning strategy and check answers
        s.set_config(ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting));
        assert_eq!(s.answer_sparql(MAMMALS).unwrap().len(), 1);
    }

    #[test]
    fn reformulation_rejects_out_of_dialect_queries_with_clear_error() {
        let mut s = store_with(ReasoningConfig::Reformulation);
        let err = s
            .answer_sparql("SELECT ?p WHERE { <http://ex/Tom> ?p <http://ex/Cat> }")
            .unwrap_err();
        assert!(matches!(err, AnswerError::Reformulation(_)), "{err}");
        // the same query is fine under saturation
        s.set_config(ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting));
        assert!(s
            .answer_sparql("SELECT ?p WHERE { <http://ex/Tom> ?p <http://ex/Cat> }")
            .is_ok());
    }

    #[test]
    fn stats_reflect_strategy() {
        let mut s = store_with(ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting));
        let st = s.stats();
        assert!(st.saturated_triples.unwrap() > st.base_triples);
        assert_eq!(st.strategy, "saturation(counting)");

        for config in [ReasoningConfig::Reformulation, ReasoningConfig::Interval] {
            s.set_config(config);
            let st = s.stats();
            assert_eq!(st.saturated_triples, None, "{}", config.name());
            assert_eq!(st.strategy, config.name());
        }
    }

    #[test]
    fn reformulation_surfaces_eval_stats() {
        let mut s = store_with(ReasoningConfig::Reformulation);
        assert!(s.last_eval_stats().is_none(), "no query answered yet");
        s.answer_sparql(ANIMALS).unwrap();
        let stats = s.last_eval_stats().expect("reformulation records stats");
        assert!(stats.branches_total >= 3, "{stats:?}");
        assert_eq!(stats.rows, 2, "Tom + Goldie");
        // Non-reformulation paths leave no stats behind.
        s.set_config(ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting));
        s.answer_sparql(ANIMALS).unwrap();
        assert!(s.last_eval_stats().is_none());
    }

    #[test]
    fn interval_strategy_collapses_branches_into_range_scans() {
        let s = store_with(ReasoningConfig::Interval);
        let sols = s.answer_sparql(ANIMALS).unwrap();
        assert_eq!(sols.len(), 2, "Tom + Goldie, same as every strategy");
        let stats = s.last_eval_stats().expect("interval path records stats");
        assert!(stats.range_scans >= 1, "{stats:?}");
        assert!(
            stats.branches_collapsed >= 1,
            "Animal ∪ Mammal ∪ Cat should collapse: {stats:?}"
        );
        // Out-of-dialect queries are rejected like reformulation.
        assert!(matches!(
            s.answer_sparql("SELECT ?p WHERE { <http://ex/Tom> ?p <http://ex/Cat> }"),
            Err(AnswerError::Reformulation(_))
        ));
    }

    /// The rewrite caches key on the whole query: two queries that differ
    /// only in a variable's name share no cached rewrite, so each answer
    /// reports its own variable names.
    #[test]
    fn rewrite_caches_key_on_the_whole_query() {
        for config in [ReasoningConfig::Reformulation, ReasoningConfig::Interval] {
            let s = store_with(config);
            for var in ["a", "b"] {
                let text =
                    format!("PREFIX ex: <http://ex/> SELECT ?{var} WHERE {{ ?{var} a ex:Mammal }}");
                let sols = s.answer_sparql(&text).unwrap();
                assert_eq!(sols.var_names, vec![var], "{}", config.name());
                assert_eq!(sols.len(), 1, "{}", config.name());
            }
        }
    }

    #[test]
    fn per_query_strategy_overrides() {
        let none = obs::CancelToken::none();
        let s = store_with(ReasoningConfig::Interval);
        let reader = s.reader();
        for strat in ["interval", "reformulation"] {
            let (sols, _, _) = reader
                .answer_sparql_strategy_cancel(MAMMALS, Some(strat), &none)
                .unwrap();
            assert_eq!(sols.len(), 1, "{strat}");
        }
        // No materialised G∞ on a schema-based store.
        assert!(matches!(
            reader.answer_sparql_strategy_cancel(MAMMALS, Some("saturation"), &none),
            Err(AnswerError::StrategyUnsupported(_))
        ));
        // Unknown names are refused with the three servable ones listed.
        for strat in ["backward-chaining", "bogus"] {
            match reader.answer_sparql_strategy_cancel(MAMMALS, Some(strat), &none) {
                Err(AnswerError::StrategyUnsupported(msg)) => {
                    assert!(msg.contains("unknown strategy"), "{msg}");
                    assert!(
                        msg.contains("saturation, reformulation or interval"),
                        "{msg}"
                    );
                }
                other => panic!("{strat}: {other:?}"),
            }
        }
        // A saturated store serves only its own G∞.
        let s = store_with(ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting));
        let reader = s.reader();
        let (sols, stats, _) = reader
            .answer_sparql_strategy_cancel(ANIMALS, Some("saturation"), &none)
            .unwrap();
        assert_eq!((sols.len(), stats.is_none()), (2, true));
        for strat in ["reformulation", "interval"] {
            assert!(matches!(
                reader.answer_sparql_strategy_cancel(ANIMALS, Some(strat), &none),
                Err(AnswerError::StrategyUnsupported(_))
            ));
        }
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        let mut s = Store::new(ReasoningConfig::Reformulation);
        assert!(matches!(
            s.load_turtle("not turtle"),
            Err(AnswerError::Data(_))
        ));
        assert!(matches!(
            s.answer_sparql("SELECT WHERE"),
            Err(AnswerError::Query(_))
        ));
        // deleting unknown terms is a noop
        let stats = s.delete_terms(
            &Term::iri("http://nope"),
            &Term::iri("http://p"),
            &Term::iri("http://o"),
        );
        assert_eq!(stats.kind, rdfs::incremental::UpdateKind::Noop);
    }

    #[test]
    fn not_exists_negation_across_strategies() {
        // "SPARQL 1.1 supports aggregates, negation etc." (§II-B) — and
        // negation shows the dialect interplay: complete under saturation,
        // rejected by reformulation.
        let q = "PREFIX ex: <http://ex/> SELECT ?x WHERE \
                 { ?x a ex:Mammal . FILTER NOT EXISTS { ?x a ex:Cat } }";
        // Under saturation: Tom IS a Cat (asserted), so no mammal remains.
        let mut s = store_with(ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting));
        assert_eq!(s.answer_sparql(q).unwrap().len(), 0);
        // Add a non-cat mammal: it passes the negation.
        s.load_turtle("@prefix ex: <http://ex/> .\nex:Moby a ex:Mammal .")
            .unwrap();
        assert_eq!(s.answer_sparql(q).unwrap().len(), 1);
        // Reformulation rejects negation with a clear error.
        s.set_config(ReasoningConfig::Reformulation);
        assert!(matches!(
            s.answer_sparql(q),
            Err(AnswerError::Reformulation(_))
        ));
    }

    #[test]
    fn explanations_through_the_store() {
        for config in [
            ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting),
            ReasoningConfig::Reformulation,
        ] {
            let s = store_with(config);
            let ty = Term::iri(rdf_model::vocab::RDF_TYPE);
            // Tom is a Mammal — derived.
            let e = s
                .explain_terms(
                    &Term::iri("http://ex/Tom"),
                    &ty,
                    &Term::iri("http://ex/Mammal"),
                )
                .expect("entailed triple explains");
            assert!(e.depth() >= 1, "{}", config.name());
            assert!(e.support().iter().all(|t| s.is_explicit(t)));
            // Goldie is an Animal via range typing.
            let e = s
                .explain_terms(
                    &Term::iri("http://ex/Goldie"),
                    &ty,
                    &Term::iri("http://ex/Animal"),
                )
                .expect("range-typed triple explains");
            assert!(e.render(&s.dictionary()).contains("[rdfs3]"));
            // A non-entailed triple has no explanation.
            assert!(s
                .explain_terms(
                    &Term::iri("http://ex/Tom"),
                    &ty,
                    &Term::iri("http://ex/Rocket")
                )
                .is_none());
        }
    }

    #[test]
    fn export_round_trips_the_base_graph() {
        let s = store_with(ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting));
        let nt = s.export_ntriples();
        let mut s2 = Store::new(ReasoningConfig::Reformulation);
        s2.load_ntriples(&nt).unwrap();
        assert_eq!(s.explicit_len(), s2.explicit_len());
        assert_eq!(nt, s2.export_ntriples(), "canonical N-Triples agree");
        // the export is the *base* graph, not the saturation
        assert!(nt.lines().count() < s.stats().saturated_triples.unwrap());

        let mut prefixes = rdf_io::PrefixMap::common();
        prefixes.add("ex", "http://ex/");
        let ttl = s.export_turtle(&prefixes);
        let mut s3 = Store::new(ReasoningConfig::Reformulation);
        s3.load_turtle(&ttl).unwrap();
        assert_eq!(nt, s3.export_ntriples(), "turtle export round-trips");
    }
}
