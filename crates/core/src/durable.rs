//! Crash-safe stores: a write-ahead journal around [`Store`] updates,
//! periodic checkpoints, and recovery.
//!
//! [`DurableStore`] wraps a [`Store`] so that every state-changing
//! operation is journaled *before* it is applied in memory (write-ahead
//! order). [`Store::recover`] rebuilds the store from the newest valid
//! checkpoint plus the journal tail; because the incremental maintenance
//! engines converge on the same `G∞` as a from-scratch saturation, a
//! recovered store answers every query exactly as the store that never
//! crashed (asserted by the crash-equivalence suite under
//! `--features failpoints`).
//!
//! What is journaled: insert/delete batches (with the dictionary terms
//! interned since the previous record, in interning order — replay
//! re-interns them and necessarily assigns the same sequential ids) and
//! strategy switches. Derived state (saturations, schema closures,
//! caches) is never journaled: it is recomputed from the base graph,
//! which is what makes recovery converge instead of having to trust a
//! possibly-torn derived structure.

use crate::snapshot::StoreReader;
use crate::store::{AnswerError, MaintainTally, ReasoningConfig, Store, StoreStats};
use durability::{
    load_latest, prune_checkpoints, write_checkpoint, Checkpoint, DurabilityError, FsyncPolicy,
    Journal, JournalRecord, ScriptedOp,
};
use rdf_model::{Dictionary, Graph, Term, Triple, Vocab};
use rdfs::incremental::{UpdateKind, UpdateStats};
use sparql::Solutions;
use std::fmt;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};

/// The journal file name inside a durability directory.
pub const JOURNAL_FILE: &str = "journal.wal";

/// One term-level operation of an atomic update script (the decoded form
/// of one `insert`/`delete` line of a `POST /update` body). Scripts are
/// applied by [`DurableStore::apply_script`] as a single journal record:
/// either every op lands, or none does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptOp {
    /// Insert the triple.
    Insert([Term; 3]),
    /// Delete the triple (a no-op if absent, mirroring the store).
    Delete([Term; 3]),
}

/// What an atomically applied script changed, counted in explicit
/// triples under every strategy. Entailed churn is not counted here; the
/// `core.maintain.triples_{added,removed}` counters record it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScriptOutcome {
    /// Inserts that asserted a triple `G` did not hold. Inserting an
    /// already-entailed triple asserts it and counts.
    pub added: usize,
    /// Deletes that retracted a triple `G` held. Deleting an entailed but
    /// unasserted triple is a no-op and does not count.
    pub removed: usize,
}

/// How many checkpoints [`DurableStore::checkpoint`] keeps on disk (the
/// newest, plus one fallback in case the newest is damaged).
const CHECKPOINTS_KEPT: usize = 2;

/// An error raised by durable-store operations or recovery.
#[derive(Debug)]
pub enum DurableError {
    /// The journal or a checkpoint failed (I/O or corruption).
    Durability(DurabilityError),
    /// The wrapped store operation failed (parse errors etc.).
    Answer(AnswerError),
    /// A checkpoint claims more journal records than the journal holds —
    /// the journal was truncated or swapped and recovery cannot trust it.
    CheckpointAhead {
        /// Records the checkpoint claims are reflected in it.
        seq: u64,
        /// Intact records actually present in the journal.
        available: u64,
    },
    /// A journaled or checkpointed strategy name is not a known
    /// [`ReasoningConfig`] (a file from a newer version, or tampering).
    UnknownConfig(String),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Durability(e) => write!(f, "{e}"),
            DurableError::Answer(e) => write!(f, "{e}"),
            DurableError::CheckpointAhead { seq, available } => write!(
                f,
                "checkpoint covers {seq} journal records but only {available} exist — \
                 the journal is missing records"
            ),
            DurableError::UnknownConfig(name) => {
                write!(f, "unknown reasoning strategy in durable state: {name:?}")
            }
        }
    }
}

impl std::error::Error for DurableError {}

impl From<DurabilityError> for DurableError {
    fn from(e: DurabilityError) -> Self {
        DurableError::Durability(e)
    }
}
impl From<AnswerError> for DurableError {
    fn from(e: AnswerError) -> Self {
        DurableError::Answer(e)
    }
}
impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Durability(DurabilityError::Io(e))
    }
}

/// A [`Store`] whose updates survive crashes.
///
/// Every mutation goes through the journal first; [`DurableStore::open`]
/// (or [`Store::recover`] for a read-only rebuild) brings a directory
/// back to exactly the state the last acknowledged update left it in.
pub struct DurableStore {
    store: Store,
    journal: Journal,
    dir: PathBuf,
    /// Dictionary length already captured by the journal stream (baseline
    /// terms + every record's `new_terms`). The delta above this watermark
    /// rides along with the next journaled update.
    journaled_terms: usize,
}

impl DurableStore {
    /// Creates a fresh durable store in `dir` (created if missing). Fails
    /// if `dir` already holds a journal with records or a checkpoint —
    /// use [`DurableStore::open`] to resume an existing one.
    ///
    /// `_threads` is ignored: a store answers each query on the calling
    /// thread. The argument is kept only because the benchmark trace calls
    /// this signature; the next change to the benchmark drops it.
    pub fn create(
        dir: impl Into<PathBuf>,
        config: ReasoningConfig,
        _threads: NonZeroUsize,
        fsync: FsyncPolicy,
    ) -> Result<DurableStore, DurableError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut journal = Journal::open(dir.join(JOURNAL_FILE), fsync)?;
        if journal.seq() > 0 || load_latest(&dir)?.is_some() {
            return Err(DurableError::Durability(DurabilityError::Io(
                std::io::Error::new(
                    std::io::ErrorKind::AlreadyExists,
                    format!("{} already holds a durable store", dir.display()),
                ),
            )));
        }
        let store = Store::new(config);
        // Journal the initial strategy so a recovery that has lost every
        // checkpoint still converges from the empty baseline (whose
        // vocabulary terms are interned deterministically).
        journal.append(&JournalRecord::SetConfig {
            name: config.name(),
        })?;
        let journaled_terms = store.dictionary().len();
        Ok(DurableStore {
            store,
            journal,
            dir,
            journaled_terms,
        })
    }

    /// Opens the durable store in `dir`, recovering its state: newest
    /// valid checkpoint, journal tail replayed, torn tail truncated. A
    /// directory with neither journal nor checkpoint opens as an empty
    /// store under [`ReasoningConfig::Reformulation`], which derives
    /// nothing from the (empty) graph.
    pub fn open(dir: impl Into<PathBuf>, fsync: FsyncPolicy) -> Result<DurableStore, DurableError> {
        let dir = dir.into();
        let store = recover_in(&dir)?;
        // `Journal::open` rescans and truncates any torn tail, so appends
        // resume exactly after the last record the recovery replayed.
        let journal = Journal::open(dir.join(JOURNAL_FILE), fsync)?;
        let journaled_terms = store.dictionary().len();
        Ok(DurableStore {
            store,
            journal,
            dir,
            journaled_terms,
        })
    }

    /// The wrapped store (read-only — mutations must go through the
    /// journaled methods).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records appended to the journal so far.
    pub fn seq(&self) -> u64 {
        self.journal.seq()
    }

    /// Size and state snapshot of the wrapped store.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Terms interned since the journal stream last captured the
    /// dictionary (query preparation may intern terms between updates;
    /// the next journaled update carries them), plus the watermark the
    /// capture covers. Both are read under *one* dictionary guard:
    /// concurrent readers keep interning query constants, and a term that
    /// slipped in between a delta and its watermark would never be
    /// journaled — misaligning every TermId on replay.
    fn dict_delta(&self) -> (Vec<Term>, usize) {
        let dict = self.store.dictionary();
        let delta = dict
            .iter()
            .skip(self.journaled_terms)
            .map(|(_, t)| t.clone())
            .collect();
        (delta, dict.len())
    }

    /// Parses Turtle and durably inserts every triple as one batch.
    /// Returns the document's triple count and the update stats.
    pub fn load_turtle(&mut self, text: &str) -> Result<(usize, UpdateStats), DurableError> {
        let mut staging = Graph::new();
        let n = rdf_io::parse_turtle(text, &mut self.store.dict_mut(), &mut staging)
            .map_err(AnswerError::Data)?;
        let triples: Vec<Triple> = staging.iter().collect();
        let stats = self.insert_batch(&triples)?;
        Ok((n, stats))
    }

    /// Parses N-Triples and durably inserts every triple as one batch.
    pub fn load_ntriples(&mut self, text: &str) -> Result<(usize, UpdateStats), DurableError> {
        let mut staging = Graph::new();
        let n = rdf_io::parse_ntriples(text, &mut self.store.dict_mut(), &mut staging)
            .map_err(AnswerError::Data)?;
        let triples: Vec<Triple> = staging.iter().collect();
        let stats = self.insert_batch(&triples)?;
        Ok((n, stats))
    }

    /// Durably inserts a batch of encoded triples: journal first, then
    /// apply.
    pub fn insert_batch(&mut self, triples: &[Triple]) -> Result<UpdateStats, DurableError> {
        let (new_terms, watermark) = self.dict_delta();
        self.journal.append(&JournalRecord::InsertBatch {
            new_terms,
            triples: triples.to_vec(),
        })?;
        self.journaled_terms = watermark;
        Ok(self.store.insert_batch(triples))
    }

    /// Durably deletes a batch of encoded triples.
    pub fn delete_batch(&mut self, triples: &[Triple]) -> Result<UpdateStats, DurableError> {
        let (new_terms, watermark) = self.dict_delta();
        self.journal.append(&JournalRecord::DeleteBatch {
            new_terms,
            triples: triples.to_vec(),
        })?;
        self.journaled_terms = watermark;
        Ok(self.store.delete_batch(triples))
    }

    /// Encodes three terms and durably inserts the triple.
    pub fn insert_terms(
        &mut self,
        s: &Term,
        p: &Term,
        o: &Term,
    ) -> Result<UpdateStats, DurableError> {
        let t = {
            let mut dict = self.store.dict_mut();
            Triple::new(dict.encode(s), dict.encode(p), dict.encode(o))
        };
        self.insert_batch(&[t])
    }

    /// Durably deletes the triple formed by three terms (a no-op when any
    /// term is unknown, mirroring [`Store::delete_terms`]).
    pub fn delete_terms(
        &mut self,
        s: &Term,
        p: &Term,
        o: &Term,
    ) -> Result<UpdateStats, DurableError> {
        let ids = {
            let dict = self.store.dictionary();
            (dict.get_id(s), dict.get_id(p), dict.get_id(o))
        };
        match ids {
            (Some(s), Some(p), Some(o)) => self.delete_batch(&[Triple::new(s, p, o)]),
            _ => Ok(UpdateStats::noop()),
        }
    }

    /// Atomically and durably applies a whole update script: **one**
    /// journal record ([`JournalRecord::UpdateScript`]) carrying every op
    /// in request order plus the dictionary delta, then the in-memory
    /// apply. Write-ahead order holds for the script as a unit — if the
    /// journal append fails, *nothing* is applied and the base graph,
    /// epoch and reader-visible answers are untouched (terms the failed
    /// script interned ride along with the next journaled update, exactly
    /// like query constants).
    pub fn apply_script(&mut self, ops: &[ScriptOp]) -> Result<ScriptOutcome, DurableError> {
        self.apply_script_inner(ops, false)
    }

    /// [`DurableStore::apply_script`] with the per-record fsync deferred:
    /// the group-commit building block. The caller owes one
    /// [`DurableStore::sync_group`] for the drained group before
    /// acknowledging any of its scripts as durable.
    pub fn apply_script_deferred(
        &mut self,
        ops: &[ScriptOp],
    ) -> Result<ScriptOutcome, DurableError> {
        self.apply_script_inner(ops, true)
    }

    fn apply_script_inner(
        &mut self,
        ops: &[ScriptOp],
        deferred: bool,
    ) -> Result<ScriptOutcome, DurableError> {
        // Encode the whole script against the live dictionary first, so
        // the journal record is complete before any write-ahead I/O.
        // Deletes intern their terms too: harmless (an interned-but-absent
        // triple deletes as a no-op) and it keeps replay ids aligned.
        let encoded: Vec<ScriptedOp> = {
            let mut dict = self.store.dict_mut();
            let mut enc = |t: &[Term; 3]| {
                Triple::new(dict.encode(&t[0]), dict.encode(&t[1]), dict.encode(&t[2]))
            };
            ops.iter()
                .map(|op| match op {
                    ScriptOp::Insert(t) => ScriptedOp::Insert(enc(t)),
                    ScriptOp::Delete(t) => ScriptedOp::Delete(enc(t)),
                })
                .collect()
        };
        let (new_terms, watermark) = self.dict_delta();
        let record = JournalRecord::UpdateScript {
            new_terms,
            ops: encoded.clone(),
        };
        if deferred {
            self.journal.append_deferred(&record)?;
        } else {
            self.journal.append(&record)?;
        }
        self.journaled_terms = watermark;
        Ok(apply_scripted(&mut self.store, &encoded))
    }

    /// Settles a group of [`DurableStore::apply_script_deferred`] calls:
    /// one journal fsync under [`FsyncPolicy::Always`], a no-op under
    /// [`FsyncPolicy::Never`].
    pub fn sync_group(&mut self) -> Result<(), DurableError> {
        self.journal.sync_group()?;
        Ok(())
    }

    /// Durably switches reasoning strategy.
    pub fn set_config(&mut self, config: ReasoningConfig) -> Result<(), DurableError> {
        self.journal.append(&JournalRecord::SetConfig {
            name: config.name(),
        })?;
        self.store.set_config(config);
        Ok(())
    }

    /// Answers a SPARQL query (queries are not journaled; the terms they
    /// intern ride along with the next update record).
    pub fn answer_sparql(&self, sparql: &str) -> Result<Solutions, AnswerError> {
        self.store.answer_sparql(sparql)
    }

    /// Publishes the current epoch so [`StoreReader`] handles observe
    /// every update applied so far (see [`Store::snapshot`]). The server's
    /// writer thread calls this after each applied batch. Returns the
    /// published epoch.
    pub fn publish(&self) -> u64 {
        self.store.snapshot().epoch()
    }

    /// A cloneable concurrent read handle onto the wrapped store; see
    /// [`Store::reader`]. Readers only ever observe *published* epochs —
    /// i.e. states some committed prefix of the journal produced.
    pub fn reader(&self) -> StoreReader {
        self.store.reader()
    }

    /// Turns update-delta capture on or off (see
    /// [`Store::set_delta_tracking`]). Delta state is in-memory only — it
    /// is not journaled, and a recovered store starts with tracking off.
    pub fn set_delta_tracking(&mut self, on: bool) {
        self.store.set_delta_tracking(on);
    }

    /// Drains the delta captured since the last drain (see
    /// [`Store::take_delta`]).
    pub fn take_delta(&mut self) -> crate::store::StoreDelta {
        self.store.take_delta()
    }

    /// Writes a checkpoint of the current state, marks it in the journal,
    /// and prunes old checkpoints (the newest two are kept). Returns the
    /// checkpoint's path.
    ///
    /// The journal is forced to disk first, so a checkpoint never claims
    /// records the disk has not seen; the checkpoint file itself lands
    /// atomically (tmp + fsync + rename).
    pub fn checkpoint(&mut self) -> Result<PathBuf, DurableError> {
        self.journal.sync()?;
        let cp = Checkpoint {
            seq: self.journal.seq(),
            config: self.store.config().name(),
            threads: 1,
            terms: self
                .store
                .dictionary()
                .iter()
                .map(|(_, t)| t.clone())
                .collect(),
            triples: self.store.explicit_triples().collect(),
        };
        let path = write_checkpoint(&self.dir, &cp)?;
        self.journal
            .append(&JournalRecord::CheckpointMark { seq: cp.seq })?;
        prune_checkpoints(&self.dir, CHECKPOINTS_KEPT)?;
        Ok(path)
    }

    /// Forces buffered journal appends to disk regardless of the fsync
    /// policy.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.journal.sync()?;
        Ok(())
    }
}

impl Store {
    /// Rebuilds the store a crashed (or cleanly exited) [`DurableStore`]
    /// left in `dir`: loads the newest checkpoint that validates, replays
    /// the journal records it does not cover, ignores a torn final record,
    /// and re-runs maintenance so derived state (saturation, schema
    /// closure) converges on the same `G∞` the live store had.
    ///
    /// Read-only: the journal is not opened for appending and nothing in
    /// `dir` is modified. Use [`DurableStore::open`] to resume journaling.
    pub fn recover(dir: impl AsRef<Path>) -> Result<Store, DurableError> {
        recover_in(dir.as_ref())
    }
}

/// The recovery algorithm shared by [`Store::recover`] and
/// [`DurableStore::open`].
fn recover_in(dir: &Path) -> Result<Store, DurableError> {
    let replay = Journal::replay(dir.join(JOURNAL_FILE))?;
    let (mut store, start) = match load_latest(dir)? {
        Some((cp, _path)) => {
            let seq = cp.seq;
            if seq > replay.records.len() as u64 {
                return Err(DurableError::CheckpointAhead {
                    seq,
                    available: replay.records.len() as u64,
                });
            }
            (store_from_checkpoint(cp)?, seq as usize)
        }
        // No usable checkpoint: the empty baseline. Its vocabulary terms
        // are interned deterministically, so journaled term ids line up;
        // reformulation derives no state the first `SetConfig` record
        // (which `DurableStore::create` always writes) would throw away.
        None => (Store::new(ReasoningConfig::Reformulation), 0),
    };
    for record in &replay.records[start..] {
        apply_record(&mut store, record)?;
    }
    Ok(store)
}

fn store_from_checkpoint(cp: Checkpoint) -> Result<Store, DurableError> {
    let config = ReasoningConfig::from_name(&cp.config)
        .ok_or_else(|| DurableError::UnknownConfig(cp.config.clone()))?;
    // Re-interning the checkpointed terms in id order reproduces the ids
    // the checkpointed triples were encoded against.
    let mut dict = Dictionary::new();
    for term in &cp.terms {
        dict.encode(term);
    }
    let vocab = Vocab::intern(&mut dict);
    let mut graph = Graph::new();
    for t in &cp.triples {
        graph.insert(*t);
    }
    Ok(Store::from_parts(dict, vocab, graph, config))
}

/// Applies one journal record to a store being recovered. The write-ahead
/// discipline makes this idempotent at the convergence level: inserting a
/// present triple or deleting an absent one is a maintained no-op.
fn apply_record(store: &mut Store, record: &JournalRecord) -> Result<(), DurableError> {
    match record {
        JournalRecord::InsertBatch { new_terms, triples } => {
            for term in new_terms {
                store.dict_mut().encode(term);
            }
            store.insert_batch(triples);
        }
        JournalRecord::DeleteBatch { new_terms, triples } => {
            for term in new_terms {
                store.dict_mut().encode(term);
            }
            store.delete_batch(triples);
        }
        JournalRecord::SetConfig { name } => {
            let config = ReasoningConfig::from_name(name)
                .ok_or_else(|| DurableError::UnknownConfig(name.clone()))?;
            store.set_config(config);
        }
        JournalRecord::SetThreads { .. } | JournalRecord::CheckpointMark { .. } => {}
        JournalRecord::UpdateScript { new_terms, ops } => {
            for term in new_terms {
                store.dict_mut().encode(term);
            }
            apply_scripted(store, ops);
        }
    }
    Ok(())
}

/// Applies an encoded script to the store one op at a time, in request
/// order, and flushes the script's maintenance accounting once — shared
/// between the live write path and journal replay so both walk the
/// identical code.
fn apply_scripted(store: &mut Store, ops: &[ScriptedOp]) -> ScriptOutcome {
    let mut tally = MaintainTally::default();
    let mut outcome = ScriptOutcome::default();
    for op in ops {
        match op {
            ScriptedOp::Insert(t) => {
                outcome.added += changed(store.apply_one(t, true, &mut tally));
            }
            ScriptedOp::Delete(t) => {
                outcome.removed += changed(store.apply_one(t, false, &mut tally));
            }
        }
    }
    tally.flush(obs::global());
    outcome
}

/// 1 when an op changed `G`, else 0.
fn changed(stats: UpdateStats) -> usize {
    usize::from(stats.kind != UpdateKind::Noop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MaintenanceAlgorithm;

    const ZOO: &str = r#"
        @prefix ex: <http://ex/> .
        @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
        ex:Cat rdfs:subClassOf ex:Mammal .
        ex:Mammal rdfs:subClassOf ex:Animal .
        ex:Tom a ex:Cat .
    "#;
    const MAMMALS: &str = "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Mammal }";

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("webreason-durable-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const SAT: ReasoningConfig = ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting);

    #[test]
    fn journal_only_recovery_round_trips() {
        let dir = tmpdir("journal-only");
        {
            let mut ds =
                DurableStore::create(&dir, SAT, NonZeroUsize::MIN, FsyncPolicy::Always).unwrap();
            ds.load_turtle(ZOO).unwrap();
            ds.insert_terms(
                &Term::iri("http://ex/Felix"),
                &Term::iri(rdf_model::vocab::RDF_TYPE),
                &Term::iri("http://ex/Cat"),
            )
            .unwrap();
            ds.delete_terms(
                &Term::iri("http://ex/Tom"),
                &Term::iri(rdf_model::vocab::RDF_TYPE),
                &Term::iri("http://ex/Cat"),
            )
            .unwrap();
            assert_eq!(ds.answer_sparql(MAMMALS).unwrap().len(), 1, "Felix only");
        }
        let rec = Store::recover(&dir).unwrap();
        assert_eq!(rec.config(), SAT);
        assert_eq!(rec.answer_sparql(MAMMALS).unwrap().len(), 1);
        assert_eq!(rec.export_ntriples().lines().count(), 3, "3 + Felix - Tom");
    }

    #[test]
    fn checkpoint_bounds_replay_and_recovers() {
        let dir = tmpdir("checkpointed");
        {
            let mut ds =
                DurableStore::create(&dir, SAT, NonZeroUsize::MIN, FsyncPolicy::Never).unwrap();
            ds.load_turtle(ZOO).unwrap();
            let path = ds.checkpoint().unwrap();
            assert!(path.exists());
            // post-checkpoint tail
            ds.insert_terms(
                &Term::iri("http://ex/Rex"),
                &Term::iri(rdf_model::vocab::RDF_TYPE),
                &Term::iri("http://ex/Mammal"),
            )
            .unwrap();
            ds.sync().unwrap();
        }
        let rec = Store::recover(&dir).unwrap();
        assert_eq!(rec.answer_sparql(MAMMALS).unwrap().len(), 2, "Tom + Rex");
        // reopening for append keeps journaling consistent
        let mut ds = DurableStore::open(&dir, FsyncPolicy::Always).unwrap();
        ds.insert_terms(
            &Term::iri("http://ex/Ana"),
            &Term::iri(rdf_model::vocab::RDF_TYPE),
            &Term::iri("http://ex/Mammal"),
        )
        .unwrap();
        let rec = Store::recover(&dir).unwrap();
        assert_eq!(rec.answer_sparql(MAMMALS).unwrap().len(), 3);
    }

    #[test]
    fn torn_journal_tail_recovers_to_the_committed_prefix() {
        let dir = tmpdir("torn-tail");
        {
            let mut ds =
                DurableStore::create(&dir, SAT, NonZeroUsize::MIN, FsyncPolicy::Always).unwrap();
            ds.load_turtle(ZOO).unwrap();
            ds.insert_terms(
                &Term::iri("http://ex/Rex"),
                &Term::iri(rdf_model::vocab::RDF_TYPE),
                &Term::iri("http://ex/Mammal"),
            )
            .unwrap();
        }
        // Tear the final record (crash mid-append).
        let path = dir.join(JOURNAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let rec = Store::recover(&dir).unwrap();
        assert_eq!(rec.answer_sparql(MAMMALS).unwrap().len(), 1, "Rex lost");
        // …and the torn tail does not poison further appends.
        let mut ds = DurableStore::open(&dir, FsyncPolicy::Always).unwrap();
        ds.insert_terms(
            &Term::iri("http://ex/Rex"),
            &Term::iri(rdf_model::vocab::RDF_TYPE),
            &Term::iri("http://ex/Mammal"),
        )
        .unwrap();
        let rec = Store::recover(&dir).unwrap();
        assert_eq!(rec.answer_sparql(MAMMALS).unwrap().len(), 2);
    }

    #[test]
    fn config_changes_are_durable() {
        let dir = tmpdir("reconfig");
        {
            let mut ds = DurableStore::create(
                &dir,
                ReasoningConfig::Interval,
                NonZeroUsize::MIN,
                FsyncPolicy::Always,
            )
            .unwrap();
            ds.load_turtle(ZOO).unwrap();
            ds.set_config(ReasoningConfig::Reformulation).unwrap();
        }
        let rec = Store::recover(&dir).unwrap();
        assert_eq!(rec.config(), ReasoningConfig::Reformulation);
    }

    /// Journals and checkpoints written while stores had a thread count
    /// carry one: a `SetThreads` record and the checkpoint's `threads`
    /// field. Both still load, and neither changes the recovered graph or
    /// its answers.
    #[test]
    fn a_journaled_thread_count_is_ignored_on_recovery() {
        let mut live = DurableStore::create(
            tmpdir("threads-live"),
            SAT,
            NonZeroUsize::MIN,
            FsyncPolicy::Always,
        )
        .unwrap();
        live.load_turtle(ZOO).unwrap();
        live.checkpoint().unwrap();
        let (mut cp, _) = load_latest(live.dir()).unwrap().unwrap();
        let records = Journal::replay(live.dir().join(JOURNAL_FILE))
            .unwrap()
            .records;
        assert!(matches!(records[0], JournalRecord::SetConfig { .. }));

        // The same store as it was written when `create` journaled a
        // thread count after the strategy.
        let dir = tmpdir("threads-legacy");
        std::fs::create_dir_all(&dir).unwrap();
        {
            let mut journal = Journal::open(dir.join(JOURNAL_FILE), FsyncPolicy::Always).unwrap();
            journal.append(&records[0]).unwrap();
            journal
                .append(&JournalRecord::SetThreads { threads: 4 })
                .unwrap();
            for record in &records[1..] {
                journal.append(record).unwrap();
            }
        }
        let same = |rec: &Store, live: &DurableStore| {
            assert_eq!(rec.export_ntriples(), live.store().export_ntriples());
            assert_eq!(rec.stats(), live.stats());
            assert_eq!(
                rec.answer_sparql(MAMMALS).unwrap().as_set(),
                live.answer_sparql(MAMMALS).unwrap().as_set()
            );
        };
        same(&Store::recover(&dir).unwrap(), &live);

        assert_eq!(cp.threads, 1, "the count is written as 1");
        cp.threads = 4;
        cp.seq += 1;
        write_checkpoint(&dir, &cp).unwrap();
        same(&Store::recover(&dir).unwrap(), &live);

        // A store opened over both keeps journaling consistently.
        let rex = "@prefix ex: <http://ex/> .\nex:Rex a ex:Mammal .";
        DurableStore::open(&dir, FsyncPolicy::Always)
            .unwrap()
            .load_turtle(rex)
            .unwrap();
        live.load_turtle(rex).unwrap();
        same(&Store::recover(&dir).unwrap(), &live);
    }

    #[test]
    fn update_script_is_one_record_and_order_sensitive() {
        let dir = tmpdir("script");
        let mut ds =
            DurableStore::create(&dir, SAT, NonZeroUsize::MIN, FsyncPolicy::Always).unwrap();
        ds.load_turtle(ZOO).unwrap();
        let seq_before = ds.seq();
        let cat = |n: &str| {
            [
                Term::iri(format!("http://ex/{n}")),
                Term::iri(rdf_model::vocab::RDF_TYPE),
                Term::iri("http://ex/Cat"),
            ]
        };
        // insert Felix, delete Tom, insert-then-delete Ghost (nets absent).
        let outcome = ds
            .apply_script(&[
                ScriptOp::Insert(cat("Felix")),
                ScriptOp::Delete(cat("Tom")),
                ScriptOp::Insert(cat("Ghost")),
                ScriptOp::Delete(cat("Ghost")),
            ])
            .unwrap();
        assert_eq!(ds.seq(), seq_before + 1, "whole script is one record");
        // Counts are explicit triples: Felix and Ghost in, Tom and Ghost
        // out; their entailed types (Mammal, Animal) do not count.
        assert_eq!((outcome.added, outcome.removed), (2, 2));
        assert_eq!(ds.answer_sparql(MAMMALS).unwrap().len(), 1, "Felix only");
        // Replay walks the same code path and converges identically.
        let rec = Store::recover(&dir).unwrap();
        assert_eq!(rec.export_ntriples(), ds.store().export_ntriples());
        assert_eq!(
            rec.answer_sparql(MAMMALS).unwrap().as_set(),
            ds.answer_sparql(MAMMALS).unwrap().as_set()
        );
    }

    #[test]
    fn deferred_scripts_recover_after_sync_group() {
        let dir = tmpdir("script-deferred");
        let mut ds =
            DurableStore::create(&dir, SAT, NonZeroUsize::MIN, FsyncPolicy::Always).unwrap();
        let rex = [
            Term::iri("http://ex/Rex"),
            Term::iri(rdf_model::vocab::RDF_TYPE),
            Term::iri("http://ex/Mammal"),
        ];
        let ana = [
            Term::iri("http://ex/Ana"),
            Term::iri(rdf_model::vocab::RDF_TYPE),
            Term::iri("http://ex/Mammal"),
        ];
        ds.apply_script_deferred(&[ScriptOp::Insert(rex)]).unwrap();
        ds.apply_script_deferred(&[ScriptOp::Insert(ana)]).unwrap();
        ds.sync_group().unwrap();
        let rec = Store::recover(&dir).unwrap();
        assert_eq!(rec.answer_sparql(MAMMALS).unwrap().len(), 2);
    }

    #[test]
    fn create_refuses_an_existing_store() {
        let dir = tmpdir("exists");
        DurableStore::create(
            &dir,
            ReasoningConfig::Reformulation,
            NonZeroUsize::MIN,
            FsyncPolicy::Always,
        )
        .unwrap();
        assert!(DurableStore::create(
            &dir,
            ReasoningConfig::Reformulation,
            NonZeroUsize::MIN,
            FsyncPolicy::Always,
        )
        .is_err());
    }

    #[test]
    fn a_retired_strategy_name_fails_recovery_instead_of_loading_as_another() {
        let dir = tmpdir("retired-config");
        std::fs::create_dir_all(&dir).unwrap();
        {
            let mut journal = Journal::open(dir.join(JOURNAL_FILE), FsyncPolicy::Always).unwrap();
            journal
                .append(&JournalRecord::SetConfig {
                    name: "adaptive".into(),
                })
                .unwrap();
        }
        match Store::recover(&dir) {
            Err(DurableError::UnknownConfig(name)) => assert_eq!(name, "adaptive"),
            Err(e) => panic!("expected UnknownConfig, got {e}"),
            Ok(store) => panic!("loaded as {}", store.config().name()),
        }
        assert!(matches!(
            DurableStore::open(&dir, FsyncPolicy::Always),
            Err(DurableError::UnknownConfig(_))
        ));
    }

    #[test]
    fn recovery_matches_a_never_crashed_reference() {
        // The in-process half of the crash-equivalence argument: recovery
        // from (checkpoint + journal) equals the live store, answers and
        // saturation included. The process-kill half lives in
        // tests/integration_crash.rs behind --features failpoints.
        let dir = tmpdir("reference");
        let mut live =
            DurableStore::create(&dir, SAT, NonZeroUsize::MIN, FsyncPolicy::Always).unwrap();
        live.load_turtle(ZOO).unwrap();
        live.checkpoint().unwrap();
        live.load_turtle("@prefix ex: <http://ex/> .\nex:Rex a ex:Mammal .")
            .unwrap();
        live.delete_terms(
            &Term::iri("http://ex/Tom"),
            &Term::iri(rdf_model::vocab::RDF_TYPE),
            &Term::iri("http://ex/Cat"),
        )
        .unwrap();
        let rec = Store::recover(live.dir()).unwrap();
        assert_eq!(rec.export_ntriples(), live.store().export_ntriples());
        assert_eq!(rec.stats(), live.stats());
        assert_eq!(
            rec.answer_sparql(MAMMALS).unwrap().as_set(),
            live.answer_sparql(MAMMALS).unwrap().as_set()
        );
    }

    /// The reply counts explicit triples under every strategy: a
    /// constraint and an instance triple count one each, their entailed
    /// consequences none, and deleting an entailed-but-unasserted triple
    /// is a no-op that leaves it answerable.
    #[test]
    fn script_outcome_counts_explicit_triples_under_every_config() {
        let ex = |n: &str| Term::iri(format!("http://ex/{n}"));
        let a = || Term::iri(rdf_model::vocab::RDF_TYPE);
        for (i, config) in ReasoningConfig::ALL.into_iter().enumerate() {
            let name = config.name();
            let dir = tmpdir(&format!("contract-{i}"));
            let mut ds =
                DurableStore::create(&dir, config, NonZeroUsize::MIN, FsyncPolicy::Never).unwrap();
            let mut apply = |op| {
                let out = ds.apply_script(&[op]).unwrap();
                (out.added, out.removed)
            };
            let cat_mammal = [
                ex("Cat"),
                Term::iri(rdf_model::vocab::RDFS_SUB_CLASS_OF),
                ex("Mammal"),
            ];
            assert_eq!(apply(ScriptOp::Insert(cat_mammal)), (1, 0), "{name}");
            let tom_cat = [ex("Tom"), a(), ex("Cat")];
            assert_eq!(apply(ScriptOp::Insert(tom_cat)), (1, 0), "{name}");
            let tom_mammal = [ex("Tom"), a(), ex("Mammal")];
            assert_eq!(apply(ScriptOp::Delete(tom_mammal)), (0, 0), "{name}");
            assert_eq!(ds.answer_sparql(MAMMALS).unwrap().len(), 1, "{name}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The explicit bit under random update streams on a saturated store:
    /// instance and schema inserts and deletes, duplicate inserts,
    /// assertions of already-entailed triples, and deletes of entailed-only
    /// and absent triples. After every op, `G` equals a set model, `G∞`
    /// equals `saturate(G)`, and a checkpoint plus recovery reproduces
    /// both.
    mod explicit_bit {
        use super::*;
        use proptest::bool::ANY;
        use proptest::prelude::*;
        use std::collections::BTreeSet;
        use std::sync::atomic::{AtomicUsize, Ordering};

        #[derive(Debug, Clone)]
        enum Op {
            /// `n{s} p{p} n{o}`, or `n{s} a C{o}` when `p` is 0.
            Instance(u8, u8, u8, bool),
            /// Constraint `k` (subClassOf, subPropertyOf, domain, range)
            /// between the `a`-th and `b`-th class or property.
            Schema(u8, u8, u8, bool),
            /// Re-inserts the `i`-th explicit triple.
            Duplicate(usize),
            /// Inserts or deletes the `i`-th entailed-only triple.
            Entailed(usize, bool),
        }

        fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
            proptest::collection::vec(
                prop_oneof![
                    (0u8..4, 0u8..4, 0u8..4, ANY).prop_map(|(s, p, o, i)| Op::Instance(s, p, o, i)),
                    (0u8..4, 0u8..4, 0u8..4, ANY).prop_map(|(k, a, b, i)| Op::Schema(k, a, b, i)),
                    (0usize..64).prop_map(Op::Duplicate),
                    (0usize..64, ANY).prop_map(|(i, ins)| Op::Entailed(i, ins)),
                ],
                0..20,
            )
        }

        fn ex(kind: &str, i: u8) -> Term {
            Term::iri(format!("http://ex/{kind}{i}"))
        }

        fn decode(store: &Store, t: Triple) -> [Term; 3] {
            let dict = store.dictionary();
            [t.s, t.p, t.o].map(|id| dict.decode(id).expect("interned").clone())
        }

        /// The op's triple and direction, or `None` when it has nothing to
        /// pick from.
        fn materialise(
            op: &Op,
            store: &Store,
            model: &BTreeSet<Triple>,
        ) -> Option<([Term; 3], bool)> {
            use rdf_model::vocab::*;
            Some(match *op {
                Op::Instance(s, 0, o, ins) => ([ex("n", s), Term::iri(RDF_TYPE), ex("C", o)], ins),
                Op::Instance(s, p, o, ins) => ([ex("n", s), ex("p", p), ex("n", o)], ins),
                Op::Schema(k, a, b, ins) => {
                    let t = match k {
                        0 => [ex("C", a), Term::iri(RDFS_SUB_CLASS_OF), ex("C", b)],
                        1 => [
                            ex("p", a + 1),
                            Term::iri(RDFS_SUB_PROPERTY_OF),
                            ex("p", b + 1),
                        ],
                        2 => [ex("p", a + 1), Term::iri(RDFS_DOMAIN), ex("C", b)],
                        _ => [ex("p", a + 1), Term::iri(RDFS_RANGE), ex("C", b)],
                    };
                    (t, ins)
                }
                Op::Duplicate(i) => {
                    let t = *model.iter().nth(i % model.len().max(1))?;
                    (decode(store, t), true)
                }
                Op::Entailed(i, ins) => {
                    let snap = store.snapshot();
                    let entailed: BTreeSet<Triple> = snap
                        .view_graph()
                        .expect("a saturated store exposes G∞")
                        .iter()
                        .filter(|t| !model.contains(t))
                        .collect();
                    let t = *entailed.iter().nth(i % entailed.len().max(1))?;
                    (decode(store, t), ins)
                }
            })
        }

        fn check(store: &Store, model: &BTreeSet<Triple>) -> Result<(), String> {
            let explicit: BTreeSet<Triple> = store.explicit_triples().collect();
            prop_assert_eq!(&explicit, model);
            prop_assert_eq!(store.explicit_len(), model.len());
            prop_assert!(model.iter().all(|t| store.is_explicit(t)));
            let expect = rdfs::saturate(&model.iter().copied().collect(), store.vocab()).graph;
            let snap = store.snapshot();
            prop_assert_eq!(snap.view_graph().expect("G∞"), &expect);
            Ok(())
        }

        static CASE: AtomicUsize = AtomicUsize::new(0);

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn explicit_triples_match_a_model_across_checkpoints(ops in arb_ops()) {
                let dir = tmpdir(&format!("explicit-bit-{}", CASE.fetch_add(1, Ordering::Relaxed)));
                let mut ds =
                    DurableStore::create(&dir, SAT, NonZeroUsize::MIN, FsyncPolicy::Never).unwrap();
                let mut model = BTreeSet::new();
                for op in &ops {
                    let Some((terms, insert)) = materialise(op, ds.store(), &model) else {
                        continue;
                    };
                    let script = if insert {
                        ScriptOp::Insert(terms.clone())
                    } else {
                        ScriptOp::Delete(terms.clone())
                    };
                    let out = ds.apply_script(&[script]).unwrap();
                    let t = {
                        let dict = ds.store().dictionary();
                        let [s, p, o] = terms.each_ref().map(|term| dict.get_id(term).expect("interned"));
                        Triple::new(s, p, o)
                    };
                    let changed = usize::from(if insert { model.insert(t) } else { model.remove(&t) });
                    let want = if insert { (changed, 0) } else { (0, changed) };
                    prop_assert_eq!((out.added, out.removed), want, "{:?}", op);
                    check(ds.store(), &model)?;
                    ds.checkpoint().unwrap();
                    check(&Store::recover(&dir).unwrap(), &model)?;
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}
