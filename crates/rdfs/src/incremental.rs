//! Incremental saturation maintenance.
//!
//! "While correct, such a technique raises performance issues when the data
//! is dynamic. First, if the base data changes, one has to update the set
//! of inferred facts […] the same applies in the case of changes to the set
//! of semantic constraints" (§I). This module provides the three
//! maintenance algorithms the paper's Fig. 3 thresholds compare:
//!
//! * [`RecomputeMaintainer`] — the baseline: re-saturate from scratch on
//!   every update;
//! * [`DRedMaintainer`] — *delete and re-derive*: deletions over-delete
//!   everything transitively derivable from the removed triple, then
//!   re-derive what is still supported; insertions run a semi-naive delta.
//!   This is the classical materialised-view maintenance approach used by
//!   OWLIM-class systems (§II-C) and works uniformly for instance *and*
//!   schema updates, including cyclic schemas;
//! * [`CountingMaintainer`] — truth maintenance à la Broekstra & Kampman
//!   (the paper's ref. \[11\]): every saturated triple carries the number
//!   of derivations supporting it, so instance deletions are
//!   decrement-and-drop. Schema updates re-close the (small) schema and
//!   adjust counts only for the base triples whose consequence sets could
//!   have changed.
//!
//! All three implement [`Maintainer`] and are property-tested equivalent
//! to recomputation under random update streams.

use crate::rules::{consequences_of, one_step_derivable};
use crate::saturation::{derive_instance_consequences, saturate};
use crate::schema::Schema;
use rdf_model::{Graph, Triple, Vocab};
use rustc_hash::{FxHashMap, FxHashSet};

/// What kind of update a triple insertion/deletion was classified as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// An assertion (class or property) was added.
    InstanceInsert,
    /// An assertion was removed.
    InstanceDelete,
    /// An RDFS constraint was added.
    SchemaInsert,
    /// An RDFS constraint was removed.
    SchemaDelete,
    /// The update did not change the base graph (duplicate insert /
    /// missing delete).
    Noop,
    /// A batch of updates (possibly mixed instance/schema).
    Batch,
}

/// Outcome of one maintenance operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateStats {
    /// How the update was classified.
    pub kind: UpdateKind,
    /// Net triples added to the saturation.
    pub added: usize,
    /// Net triples removed from the saturation.
    pub removed: usize,
    /// Derivation steps examined — an implementation-cost proxy used by
    /// the cost model alongside wall-clock time.
    pub work: usize,
}

impl UpdateStats {
    fn noop() -> Self {
        UpdateStats {
            kind: UpdateKind::Noop,
            added: 0,
            removed: 0,
            work: 0,
        }
    }
}

/// A saturation maintained under updates.
///
/// Invariant, checked by the test suite: after any sequence of operations,
/// `self.saturated()` equals `saturate(self.base())`.
pub trait Maintainer {
    /// The base (explicit) graph `G`.
    fn base(&self) -> &Graph;
    /// The maintained saturation `G∞`.
    fn saturated(&self) -> &Graph;
    /// Inserts a triple into the base graph and maintains the saturation.
    fn insert(&mut self, t: Triple) -> UpdateStats;
    /// Removes a triple from the base graph and maintains the saturation.
    fn delete(&mut self, t: &Triple) -> UpdateStats;
    /// The algorithm's display name.
    fn algorithm(&self) -> MaintenanceAlgorithm;

    /// Inserts a batch, maintaining as the implementation sees fit
    /// (default: one at a time). Bulk loads should prefer this. Reports
    /// [`UpdateKind::Noop`] when nothing in the batch changed the base.
    fn insert_batch(&mut self, triples: &[Triple]) -> UpdateStats {
        let mut total = UpdateStats {
            kind: UpdateKind::Noop,
            added: 0,
            removed: 0,
            work: 0,
        };
        for &t in triples {
            let s = self.insert(t);
            if s.kind != UpdateKind::Noop {
                total.kind = UpdateKind::Batch;
            }
            total.added += s.added;
            total.removed += s.removed;
            total.work += s.work;
        }
        total
    }

    /// Deletes a batch (default: one at a time). Reports
    /// [`UpdateKind::Noop`] when nothing in the batch changed the base.
    fn delete_batch(&mut self, triples: &[Triple]) -> UpdateStats {
        let mut total = UpdateStats {
            kind: UpdateKind::Noop,
            added: 0,
            removed: 0,
            work: 0,
        };
        for t in triples {
            let s = self.delete(t);
            if s.kind != UpdateKind::Noop {
                total.kind = UpdateKind::Batch;
            }
            total.added += s.added;
            total.removed += s.removed;
            total.work += s.work;
        }
        total
    }

    /// Turns recording of the *entailed* delta on or off. While on, every
    /// triple that enters or leaves the saturation is appended to a buffer
    /// drained by [`Maintainer::take_entailed_delta`]. Off by default; the
    /// default implementation ignores the request (see
    /// [`Maintainer::supports_delta_tracking`]).
    fn set_delta_tracking(&mut self, _on: bool) {}

    /// Drains the entailed delta recorded since the last drain: `(t, true)`
    /// when `t` entered `G∞`, `(t, false)` when it left. Within one drain a
    /// triple appears at most once per direction net of cancellation only
    /// if the maintainer guarantees it — consumers must consolidate.
    fn take_entailed_delta(&mut self) -> Vec<(Triple, bool)> {
        Vec::new()
    }

    /// True when this maintainer actually records entailed deltas.
    fn supports_delta_tracking(&self) -> bool {
        false
    }
}

/// Selector for the three maintenance algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaintenanceAlgorithm {
    /// Re-saturate from scratch on every update.
    Recompute,
    /// Delete-and-rederive.
    DRed,
    /// Derivation counting.
    Counting,
}

impl MaintenanceAlgorithm {
    /// All algorithms, for sweeps.
    pub const ALL: [MaintenanceAlgorithm; 3] = [
        MaintenanceAlgorithm::Recompute,
        MaintenanceAlgorithm::DRed,
        MaintenanceAlgorithm::Counting,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            MaintenanceAlgorithm::Recompute => "recompute",
            MaintenanceAlgorithm::DRed => "dred",
            MaintenanceAlgorithm::Counting => "counting",
        }
    }

    /// Builds a maintainer over `base` using this algorithm.
    pub fn build(self, base: Graph, vocab: Vocab) -> Box<dyn Maintainer + Send> {
        match self {
            MaintenanceAlgorithm::Recompute => Box::new(RecomputeMaintainer::new(base, vocab)),
            MaintenanceAlgorithm::DRed => Box::new(DRedMaintainer::new(base, vocab)),
            MaintenanceAlgorithm::Counting => Box::new(CountingMaintainer::new(base, vocab)),
        }
    }
}

fn classify(t: &Triple, vocab: &Vocab, insert: bool) -> UpdateKind {
    match (vocab.is_schema_property(t.p), insert) {
        (true, true) => UpdateKind::SchemaInsert,
        (true, false) => UpdateKind::SchemaDelete,
        (false, true) => UpdateKind::InstanceInsert,
        (false, false) => UpdateKind::InstanceDelete,
    }
}

/// Semi-naive forward closure from `frontier` (already inserted in `sat`).
/// Returns `(new_triples, work)`.
fn seminaive_extend(
    sat: &mut Graph,
    mut frontier: Vec<Triple>,
    vocab: &Vocab,
    mut delta: Option<&mut Vec<(Triple, bool)>>,
) -> (usize, usize) {
    // Crash site for the fault-injection suite: the base graph is already
    // updated but the saturation delta has not been applied yet — exactly
    // the state a recovery must be able to reconverge from.
    webreason_failpoints::fail_point!("store.maintain.incremental");
    let mut added = 0;
    let mut work = 0;
    let mut buf: Vec<Triple> = Vec::new();
    while !frontier.is_empty() {
        buf.clear();
        for t in &frontier {
            consequences_of(t, sat, vocab, |_, c| buf.push(c));
        }
        work += buf.len();
        frontier.clear();
        for &c in &buf {
            if sat.insert(c) {
                added += 1;
                frontier.push(c);
                if let Some(d) = delta.as_deref_mut() {
                    d.push((c, true));
                }
            }
        }
    }
    (added, work)
}

// ---------------------------------------------------------------------------
// Recompute
// ---------------------------------------------------------------------------

/// The baseline maintainer: every update re-saturates the base graph.
#[derive(Debug, Clone)]
pub struct RecomputeMaintainer {
    vocab: Vocab,
    base: Graph,
    sat: Graph,
    delta: Option<Vec<(Triple, bool)>>,
}

impl RecomputeMaintainer {
    /// Builds the maintainer and computes the initial saturation.
    pub fn new(base: Graph, vocab: Vocab) -> Self {
        let sat = saturate(&base, &vocab).graph;
        RecomputeMaintainer {
            vocab,
            base,
            sat,
            delta: None,
        }
    }

    fn recompute(&mut self, kind: UpdateKind) -> UpdateStats {
        let old_len = self.sat.len();
        let graph = saturate(&self.base, &self.vocab).graph;
        let work = graph.len();
        let new_len = graph.len();
        if let Some(buf) = &mut self.delta {
            // Recomputation gives no per-triple trail, so diff wholesale.
            for t in self.sat.iter() {
                if !graph.contains(&t) {
                    buf.push((t, false));
                }
            }
            for t in graph.iter() {
                if !self.sat.contains(&t) {
                    buf.push((t, true));
                }
            }
        }
        self.sat = graph;
        UpdateStats {
            kind,
            added: new_len.saturating_sub(old_len),
            removed: old_len.saturating_sub(new_len),
            work,
        }
    }
}

impl Maintainer for RecomputeMaintainer {
    fn base(&self) -> &Graph {
        &self.base
    }
    fn saturated(&self) -> &Graph {
        &self.sat
    }
    fn insert(&mut self, t: Triple) -> UpdateStats {
        if !self.base.insert(t) {
            return UpdateStats::noop();
        }
        self.recompute(classify(&t, &self.vocab, true))
    }
    fn delete(&mut self, t: &Triple) -> UpdateStats {
        if !self.base.remove(t) {
            return UpdateStats::noop();
        }
        self.recompute(classify(t, &self.vocab, false))
    }
    fn algorithm(&self) -> MaintenanceAlgorithm {
        MaintenanceAlgorithm::Recompute
    }

    fn set_delta_tracking(&mut self, on: bool) {
        match (on, self.delta.is_some()) {
            (true, false) => self.delta = Some(Vec::new()),
            (false, _) => self.delta = None,
            _ => {}
        }
    }
    fn take_entailed_delta(&mut self) -> Vec<(Triple, bool)> {
        self.delta.as_mut().map(std::mem::take).unwrap_or_default()
    }
    fn supports_delta_tracking(&self) -> bool {
        true
    }

    /// Batches pay a single recomputation — the whole point of batching
    /// under this algorithm.
    fn insert_batch(&mut self, triples: &[Triple]) -> UpdateStats {
        let changed = triples.iter().filter(|&&t| self.base.insert(t)).count();
        if changed == 0 {
            return UpdateStats::noop();
        }
        self.recompute(UpdateKind::Batch)
    }

    fn delete_batch(&mut self, triples: &[Triple]) -> UpdateStats {
        let changed = triples.iter().filter(|t| self.base.remove(t)).count();
        if changed == 0 {
            return UpdateStats::noop();
        }
        self.recompute(UpdateKind::Batch)
    }
}

// ---------------------------------------------------------------------------
// DRed
// ---------------------------------------------------------------------------

/// Delete-and-rederive maintenance over the saturated graph.
#[derive(Debug, Clone)]
pub struct DRedMaintainer {
    vocab: Vocab,
    base: Graph,
    sat: Graph,
    delta: Option<Vec<(Triple, bool)>>,
}

impl DRedMaintainer {
    /// Builds the maintainer and computes the initial saturation.
    pub fn new(base: Graph, vocab: Vocab) -> Self {
        let sat = saturate(&base, &vocab).graph;
        DRedMaintainer {
            vocab,
            base,
            sat,
            delta: None,
        }
    }
}

impl Maintainer for DRedMaintainer {
    fn base(&self) -> &Graph {
        &self.base
    }
    fn saturated(&self) -> &Graph {
        &self.sat
    }

    fn insert(&mut self, t: Triple) -> UpdateStats {
        if !self.base.insert(t) {
            return UpdateStats::noop();
        }
        let kind = classify(&t, &self.vocab, true);
        if !self.sat.insert(t) {
            // Already derived: saturation unchanged.
            return UpdateStats {
                kind,
                added: 0,
                removed: 0,
                work: 0,
            };
        }
        if let Some(buf) = &mut self.delta {
            buf.push((t, true));
        }
        let (added, work) =
            seminaive_extend(&mut self.sat, vec![t], &self.vocab, self.delta.as_mut());
        UpdateStats {
            kind,
            added: added + 1,
            removed: 0,
            work,
        }
    }

    fn delete(&mut self, t: &Triple) -> UpdateStats {
        if !self.base.remove(t) {
            return UpdateStats::noop();
        }
        let kind = classify(t, &self.vocab, false);
        let (removed, work) = self.dred_delete(vec![*t]);
        UpdateStats {
            kind,
            added: 0,
            removed,
            work,
        }
    }

    fn algorithm(&self) -> MaintenanceAlgorithm {
        MaintenanceAlgorithm::DRed
    }

    fn set_delta_tracking(&mut self, on: bool) {
        match (on, self.delta.is_some()) {
            (true, false) => self.delta = Some(Vec::new()),
            (false, _) => self.delta = None,
            _ => {}
        }
    }
    fn take_entailed_delta(&mut self) -> Vec<(Triple, bool)> {
        self.delta.as_mut().map(std::mem::take).unwrap_or_default()
    }
    fn supports_delta_tracking(&self) -> bool {
        true
    }

    /// A batch insertion runs one semi-naive pass from all new triples.
    fn insert_batch(&mut self, triples: &[Triple]) -> UpdateStats {
        let mut seeds = Vec::new();
        for &t in triples {
            if self.base.insert(t) && self.sat.insert(t) {
                seeds.push(t);
            }
        }
        if seeds.is_empty() {
            return UpdateStats::noop();
        }
        if let Some(buf) = &mut self.delta {
            buf.extend(seeds.iter().map(|&t| (t, true)));
        }
        let n_seeds = seeds.len();
        let (added, work) =
            seminaive_extend(&mut self.sat, seeds, &self.vocab, self.delta.as_mut());
        UpdateStats {
            kind: UpdateKind::Batch,
            added: added + n_seeds,
            removed: 0,
            work,
        }
    }

    /// A batch deletion over-deletes and re-derives **once** for the whole
    /// batch, instead of paying the re-derivation per triple.
    fn delete_batch(&mut self, triples: &[Triple]) -> UpdateStats {
        let removed: Vec<Triple> = triples
            .iter()
            .copied()
            .filter(|t| self.base.remove(t))
            .collect();
        if removed.is_empty() {
            return UpdateStats::noop();
        }
        let (removed, work) = self.dred_delete(removed);
        UpdateStats {
            kind: UpdateKind::Batch,
            added: 0,
            removed,
            work,
        }
    }
}

impl DRedMaintainer {
    /// The DRed core: over-delete everything transitively derivable from
    /// the seeds (already removed from the base), then re-derive what is
    /// still supported. Returns `(net_removed, work)`.
    fn dred_delete(&mut self, seeds: Vec<Triple>) -> (usize, usize) {
        webreason_failpoints::fail_point!("store.maintain.incremental");
        let mut work = 0;

        // 1. Over-delete: everything transitively derivable from the seeds.
        let mut over: FxHashSet<Triple> = seeds.iter().copied().collect();
        let mut frontier = seeds;
        while let Some(d) = frontier.pop() {
            consequences_of(&d, &self.sat, &self.vocab, |_, c| {
                work += 1;
                if self.sat.contains(&c) && over.insert(c) {
                    frontier.push(c);
                }
            });
        }
        for d in &over {
            self.sat.remove(d);
        }

        // 2. Re-derive: over-deleted triples still in the base or derivable
        //    in one step from the surviving saturation come back…
        let mut rederive = Vec::new();
        for d in &over {
            work += 1;
            if self.base.contains(d) || one_step_derivable(d, &self.sat, &self.vocab) {
                self.sat.insert(*d);
                rederive.push(*d);
            }
        }
        // …and their consequences with them. Re-derived triples were all
        // present before the over-deletion, so no additions are recorded.
        let (_readded, w2) = seminaive_extend(&mut self.sat, rederive, &self.vocab, None);
        work += w2;

        // Everything re-derived was previously present, so the net effect is
        // pure removal.
        let removed = over.iter().filter(|d| !self.sat.contains(d)).count();
        if let Some(buf) = &mut self.delta {
            buf.extend(
                over.iter()
                    .filter(|d| !self.sat.contains(d))
                    .map(|&d| (d, false)),
            );
        }
        (removed, work)
    }
}

// ---------------------------------------------------------------------------
// Counting
// ---------------------------------------------------------------------------

/// Derivation-counting maintenance (Broekstra & Kampman, ref. \[11\]).
///
/// Every instance-level triple in the saturation carries
/// `count = [t ∈ base] + |{base triples whose consequence set contains t}|`.
/// Because the schema is closed up front, each base triple's consequence
/// set is computed in one lookup pass (`derive_instance_consequences`),
/// making counts exact — including under cyclic schemas. The (small)
/// schema-closure part of the saturation is re-derived wholesale on schema
/// updates and diffed.
pub struct CountingMaintainer {
    vocab: Vocab,
    base: Graph,
    sat: Graph,
    counts: FxHashMap<Triple, u32>,
    schema: Schema,
    closed_schema: FxHashSet<Triple>,
    delta: Option<Vec<(Triple, bool)>>,
}

impl CountingMaintainer {
    /// Builds the maintainer, computing the initial saturation and counts.
    pub fn new(base: Graph, vocab: Vocab) -> Self {
        let schema = Schema::extract(&base, &vocab);
        let mut m = CountingMaintainer {
            vocab,
            sat: base.clone(),
            base,
            counts: FxHashMap::default(),
            schema,
            closed_schema: FxHashSet::default(),
            delta: None,
        };
        m.closed_schema = m.schema.closed_triples(&m.vocab).into_iter().collect();
        for &t in &m.closed_schema {
            m.sat.insert(t);
        }
        let mut cons = FxHashSet::default();
        for t in m.base.iter() {
            *m.counts.entry(t).or_insert(0) += 1;
            cons.clear();
            derive_instance_consequences(&t, &m.vocab, &m.schema, |_, c| {
                cons.insert(c);
            });
            for &c in &cons {
                *m.counts.entry(c).or_insert(0) += 1;
                m.sat.insert(c);
            }
        }
        m
    }

    /// The derivation count of a saturated triple (0 if absent) — exposed
    /// for tests and diagnostics.
    pub fn count_of(&self, t: &Triple) -> u32 {
        self.counts.get(t).copied().unwrap_or(0)
    }

    fn cons_set(t: &Triple, vocab: &Vocab, schema: &Schema) -> FxHashSet<Triple> {
        let mut out = FxHashSet::default();
        derive_instance_consequences(t, vocab, schema, |_, c| {
            out.insert(c);
        });
        out
    }

    fn inc(&mut self, d: Triple) -> bool {
        let c = self.counts.entry(d).or_insert(0);
        *c += 1;
        if *c == 1 {
            // The saturation only changes when `d` was not already present
            // via the schema closure — only then is a delta recorded.
            if self.sat.insert(d) {
                if let Some(buf) = &mut self.delta {
                    buf.push((d, true));
                }
            }
            true
        } else {
            false
        }
    }

    fn dec(&mut self, d: &Triple) -> bool {
        match self.counts.get_mut(d) {
            Some(c) if *c > 1 => {
                *c -= 1;
                false
            }
            Some(_) => {
                self.counts.remove(d);
                // A schema-closure triple stays even at count 0 (its
                // membership is governed by the closure set).
                if !self.closed_schema.contains(d) {
                    if self.sat.remove(d) {
                        if let Some(buf) = &mut self.delta {
                            buf.push((*d, false));
                        }
                    }
                    true
                } else {
                    false
                }
            }
            None => false,
        }
    }

    fn instance_insert(&mut self, t: Triple) -> UpdateStats {
        let mut added = 0;
        if self.inc(t) {
            added += 1;
        }
        let cons = Self::cons_set(&t, &self.vocab, &self.schema);
        let work = cons.len();
        for d in cons {
            if self.inc(d) {
                added += 1;
            }
        }
        UpdateStats {
            kind: UpdateKind::InstanceInsert,
            added,
            removed: 0,
            work,
        }
    }

    fn instance_delete(&mut self, t: &Triple) -> UpdateStats {
        let mut removed = 0;
        if self.dec(t) {
            removed += 1;
        }
        let cons = Self::cons_set(t, &self.vocab, &self.schema);
        let work = cons.len();
        for d in cons {
            if self.dec(&d) {
                removed += 1;
            }
        }
        UpdateStats {
            kind: UpdateKind::InstanceDelete,
            added: 0,
            removed,
            work,
        }
    }

    /// Handles a schema triple insertion or deletion (the base graph has
    /// already been updated). Re-closes the schema and adjusts counts for
    /// the base triples whose consequence sets may have changed.
    fn schema_update(&mut self, kind: UpdateKind) -> UpdateStats {
        let old_schema = std::mem::take(&mut self.schema);
        let new_schema = Schema::extract(&self.base, &self.vocab);
        let (classes, props) = old_schema.diff_affected(&new_schema);
        let mut work = 0;
        let mut added = 0;
        let mut removed = 0;

        // Collect the affected base triples first (cannot mutate while
        // iterating the index).
        let mut affected: Vec<Triple> = Vec::new();
        for &c in &classes {
            if let Some(ss) = self.base.subjects_with(self.vocab.rdf_type, c) {
                affected.extend(ss.iter().map(|&s| Triple::new(s, self.vocab.rdf_type, c)));
            }
        }
        for &p in &props {
            if self.vocab.is_schema_property(p) || p == self.vocab.rdf_type {
                continue; // fragment: built-ins are not data properties
            }
            affected.extend(
                self.base
                    .pairs_with_property(p)
                    .map(|(s, o)| Triple::new(s, p, o)),
            );
        }

        for t in affected {
            let old_cons = Self::cons_set(&t, &self.vocab, &old_schema);
            let new_cons = Self::cons_set(&t, &self.vocab, &new_schema);
            work += old_cons.len() + new_cons.len();
            for &d in new_cons.difference(&old_cons) {
                if self.inc(d) {
                    added += 1;
                }
            }
            for d in old_cons.difference(&new_cons) {
                if self.dec(d) {
                    removed += 1;
                }
            }
        }

        // Swap the schema-closure part of the saturation.
        let new_closed: FxHashSet<Triple> =
            new_schema.closed_triples(&self.vocab).into_iter().collect();
        for d in self.closed_schema.difference(&new_closed) {
            // Gone from the closure and not independently counted → drop.
            if self.counts.get(d).copied().unwrap_or(0) == 0 && self.sat.remove(d) {
                removed += 1;
                if let Some(buf) = &mut self.delta {
                    buf.push((*d, false));
                }
            }
        }
        for &d in new_closed.difference(&self.closed_schema) {
            if self.sat.insert(d) {
                added += 1;
                if let Some(buf) = &mut self.delta {
                    buf.push((d, true));
                }
            }
        }
        self.closed_schema = new_closed;
        self.schema = new_schema;
        UpdateStats {
            kind,
            added,
            removed,
            work,
        }
    }
}

impl Maintainer for CountingMaintainer {
    fn base(&self) -> &Graph {
        &self.base
    }
    fn saturated(&self) -> &Graph {
        &self.sat
    }

    fn insert(&mut self, t: Triple) -> UpdateStats {
        if !self.base.insert(t) {
            return UpdateStats::noop();
        }
        if self.vocab.is_schema_property(t.p) {
            // The inserted constraint itself is a base triple: count it so
            // a later delete keeps it while it remains in the closure.
            self.inc(t);
            self.schema_update(UpdateKind::SchemaInsert)
        } else {
            self.instance_insert(t)
        }
    }

    fn delete(&mut self, t: &Triple) -> UpdateStats {
        if !self.base.remove(t) {
            return UpdateStats::noop();
        }
        if self.vocab.is_schema_property(t.p) {
            self.dec(t);
            self.schema_update(UpdateKind::SchemaDelete)
        } else {
            self.instance_delete(t)
        }
    }

    fn algorithm(&self) -> MaintenanceAlgorithm {
        MaintenanceAlgorithm::Counting
    }

    fn set_delta_tracking(&mut self, on: bool) {
        match (on, self.delta.is_some()) {
            (true, false) => self.delta = Some(Vec::new()),
            (false, _) => self.delta = None,
            _ => {}
        }
    }
    fn take_entailed_delta(&mut self) -> Vec<(Triple, bool)> {
        self.delta.as_mut().map(std::mem::take).unwrap_or_default()
    }
    fn supports_delta_tracking(&self) -> bool {
        true
    }
}

// The saturation invariant `saturated() == saturate(base())` is what the
// tests below check after every operation.
#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{Dictionary, TermId};

    struct Fx {
        dict: Dictionary,
        vocab: Vocab,
        g: Graph,
    }

    impl Fx {
        fn new() -> Self {
            let mut dict = Dictionary::new();
            let vocab = Vocab::intern(&mut dict);
            Fx {
                dict,
                vocab,
                g: Graph::new(),
            }
        }
        fn id(&mut self, n: &str) -> TermId {
            self.dict.encode_iri(&format!("http://ex/{n}"))
        }
        fn add(&mut self, s: TermId, p: TermId, o: TermId) {
            self.g.insert(Triple::new(s, p, o));
        }
    }

    fn check_invariant(m: &dyn Maintainer, vocab: &Vocab) {
        let expect = saturate(m.base(), vocab).graph;
        assert_eq!(
            m.saturated(),
            &expect,
            "{:?}: maintained saturation diverged from recomputation",
            m.algorithm()
        );
    }

    fn university_base() -> (Fx, Vec<Triple>) {
        let mut f = Fx::new();
        let (student, person, takes, attends, course, anne, bob, db) = (
            f.id("Student"),
            f.id("Person"),
            f.id("takes"),
            f.id("attends"),
            f.id("Course"),
            f.id("Anne"),
            f.id("Bob"),
            f.id("DB"),
        );
        let v = f.vocab;
        f.add(student, v.sub_class_of, person);
        f.add(takes, v.sub_property_of, attends);
        f.add(takes, v.domain, student);
        f.add(takes, v.range, course);
        f.add(anne, takes, db);
        f.add(bob, v.rdf_type, student);
        let extra = vec![
            Triple::new(bob, takes, db),
            Triple::new(anne, v.rdf_type, student),
            Triple::new(course, v.sub_class_of, person), // schema insert
            Triple::new(attends, v.domain, person),      // schema insert
        ];
        (f, extra)
    }

    #[test]
    fn all_algorithms_maintain_through_mixed_updates() {
        for algo in MaintenanceAlgorithm::ALL {
            let (f, extra) = university_base();
            let mut m = algo.build(f.g.clone(), f.vocab);
            check_invariant(m.as_ref(), &f.vocab);
            // inserts
            for &t in &extra {
                m.insert(t);
                check_invariant(m.as_ref(), &f.vocab);
            }
            // deletes (reverse order), including schema deletions
            for t in extra.iter().rev() {
                m.delete(t);
                check_invariant(m.as_ref(), &f.vocab);
            }
            // delete original base triples too
            let base_triples: Vec<Triple> = f.g.iter().collect();
            for t in base_triples {
                m.delete(&t);
                check_invariant(m.as_ref(), &f.vocab);
            }
            assert!(m.base().is_empty());
            assert!(m.saturated().is_empty());
        }
    }

    #[test]
    fn duplicate_insert_and_missing_delete_are_noops() {
        let (f, _) = university_base();
        for algo in MaintenanceAlgorithm::ALL {
            let mut m = algo.build(f.g.clone(), f.vocab);
            let existing = f.g.iter().next().unwrap();
            assert_eq!(m.insert(existing).kind, UpdateKind::Noop);
            let absent = Triple::new(existing.s, existing.p, existing.s);
            assert_eq!(m.delete(&absent).kind, UpdateKind::Noop);
            check_invariant(m.as_ref(), &f.vocab);
        }
    }

    #[test]
    fn derived_triple_survives_while_alternative_support_exists() {
        // Two facts each entail (anne type Person); deleting one keeps it.
        let mut f = Fx::new();
        let (hf, knows, person, anne, m1, m2) = (
            f.id("hasFriend"),
            f.id("knows"),
            f.id("Person"),
            f.id("Anne"),
            f.id("Marie"),
            f.id("Max"),
        );
        let v = f.vocab;
        f.add(hf, v.domain, person);
        f.add(knows, v.domain, person);
        f.add(anne, hf, m1);
        f.add(anne, knows, m2);
        let derived = Triple::new(anne, v.rdf_type, person);

        for algo in MaintenanceAlgorithm::ALL {
            let mut m = algo.build(f.g.clone(), f.vocab);
            assert!(m.saturated().contains(&derived));
            m.delete(&Triple::new(anne, hf, m1));
            assert!(
                m.saturated().contains(&derived),
                "{:?}: alternative support",
                algo.name()
            );
            m.delete(&Triple::new(anne, knows, m2));
            assert!(
                !m.saturated().contains(&derived),
                "{:?}: no support left",
                algo.name()
            );
            check_invariant(m.as_ref(), &f.vocab);
        }
    }

    #[test]
    fn explicit_triple_survives_deletion_of_its_derivation() {
        // (anne type Person) both asserted and derived: deleting the
        // deriving fact must keep the assertion.
        let mut f = Fx::new();
        let (hf, person, anne, marie) = (
            f.id("hasFriend"),
            f.id("Person"),
            f.id("Anne"),
            f.id("Marie"),
        );
        let v = f.vocab;
        f.add(hf, v.domain, person);
        f.add(anne, hf, marie);
        f.add(anne, v.rdf_type, person);
        for algo in MaintenanceAlgorithm::ALL {
            let mut m = algo.build(f.g.clone(), f.vocab);
            m.delete(&Triple::new(anne, hf, marie));
            assert!(
                m.saturated()
                    .contains(&Triple::new(anne, v.rdf_type, person)),
                "{}",
                algo.name()
            );
            check_invariant(m.as_ref(), &f.vocab);
        }
    }

    #[test]
    fn schema_insert_types_existing_instances() {
        let mut f = Fx::new();
        let (hf, person, anne, marie) = (
            f.id("hasFriend"),
            f.id("Person"),
            f.id("Anne"),
            f.id("Marie"),
        );
        let v = f.vocab;
        f.add(anne, hf, marie);
        for algo in MaintenanceAlgorithm::ALL {
            let mut m = algo.build(f.g.clone(), f.vocab);
            assert!(!m
                .saturated()
                .contains(&Triple::new(anne, v.rdf_type, person)));
            let stats = m.insert(Triple::new(hf, v.domain, person));
            assert_eq!(stats.kind, UpdateKind::SchemaInsert);
            assert!(
                m.saturated()
                    .contains(&Triple::new(anne, v.rdf_type, person)),
                "{}",
                algo.name()
            );
            check_invariant(m.as_ref(), &f.vocab);
        }
    }

    #[test]
    fn schema_delete_retracts_derived_types() {
        let mut f = Fx::new();
        let (cat, mammal, tom) = (f.id("Cat"), f.id("Mammal"), f.id("Tom"));
        let v = f.vocab;
        f.add(cat, v.sub_class_of, mammal);
        f.add(tom, v.rdf_type, cat);
        let derived = Triple::new(tom, v.rdf_type, mammal);
        for algo in MaintenanceAlgorithm::ALL {
            let mut m = algo.build(f.g.clone(), f.vocab);
            assert!(m.saturated().contains(&derived));
            let stats = m.delete(&Triple::new(cat, v.sub_class_of, mammal));
            assert_eq!(stats.kind, UpdateKind::SchemaDelete);
            assert!(!m.saturated().contains(&derived), "{}", algo.name());
            check_invariant(m.as_ref(), &f.vocab);
        }
    }

    #[test]
    fn redundant_schema_edge_deletion_keeps_closure() {
        // A ⊑ B, B ⊑ C, A ⊑ C (redundant). Deleting the redundant edge
        // keeps (A sc C) in the saturation via transitivity.
        let mut f = Fx::new();
        let (a, b, c) = (f.id("A"), f.id("B"), f.id("C"));
        let v = f.vocab;
        f.add(a, v.sub_class_of, b);
        f.add(b, v.sub_class_of, c);
        f.add(a, v.sub_class_of, c);
        for algo in MaintenanceAlgorithm::ALL {
            let mut m = algo.build(f.g.clone(), f.vocab);
            m.delete(&Triple::new(a, v.sub_class_of, c));
            assert!(
                m.saturated().contains(&Triple::new(a, v.sub_class_of, c)),
                "{}",
                algo.name()
            );
            check_invariant(m.as_ref(), &f.vocab);
        }
    }

    #[test]
    fn cyclic_schema_deletion() {
        let mut f = Fx::new();
        let (a, b, x) = (f.id("A"), f.id("B"), f.id("x"));
        let v = f.vocab;
        f.add(a, v.sub_class_of, b);
        f.add(b, v.sub_class_of, a);
        f.add(x, v.rdf_type, a);
        for algo in MaintenanceAlgorithm::ALL {
            let mut m = algo.build(f.g.clone(), f.vocab);
            assert!(m.saturated().contains(&Triple::new(x, v.rdf_type, b)));
            m.delete(&Triple::new(b, v.sub_class_of, a));
            check_invariant(m.as_ref(), &f.vocab);
            m.delete(&Triple::new(a, v.sub_class_of, b));
            assert!(
                !m.saturated().contains(&Triple::new(x, v.rdf_type, b)),
                "{}",
                algo.name()
            );
            check_invariant(m.as_ref(), &f.vocab);
        }
    }

    #[test]
    fn counting_counts_are_exact() {
        let mut f = Fx::new();
        let (hf, knows, person, anne, m1, m2) = (
            f.id("hasFriend"),
            f.id("knows"),
            f.id("Person"),
            f.id("Anne"),
            f.id("Marie"),
            f.id("Max"),
        );
        let v = f.vocab;
        f.add(hf, v.domain, person);
        f.add(knows, v.domain, person);
        f.add(anne, hf, m1);
        f.add(anne, knows, m2);
        let m = CountingMaintainer::new(f.g.clone(), f.vocab);
        // (anne type Person) is derived twice (once per fact), asserted 0 times.
        assert_eq!(m.count_of(&Triple::new(anne, v.rdf_type, person)), 2);
        // Base facts have the assertion count.
        assert_eq!(m.count_of(&Triple::new(anne, hf, m1)), 1);
        // Unrelated triples have count 0.
        assert_eq!(m.count_of(&Triple::new(m1, hf, anne)), 0);
    }

    #[test]
    fn update_stats_report_change() {
        let mut f = Fx::new();
        let (cat, mammal, tom) = (f.id("Cat"), f.id("Mammal"), f.id("Tom"));
        let v = f.vocab;
        f.add(cat, v.sub_class_of, mammal);
        for algo in MaintenanceAlgorithm::ALL {
            let mut m = algo.build(f.g.clone(), f.vocab);
            let stats = m.insert(Triple::new(tom, v.rdf_type, cat));
            assert_eq!(stats.kind, UpdateKind::InstanceInsert);
            assert_eq!(stats.added, 2, "{}: tom:Cat + tom:Mammal", algo.name());
            let stats = m.delete(&Triple::new(tom, v.rdf_type, cat));
            assert_eq!(stats.kind, UpdateKind::InstanceDelete);
            assert_eq!(stats.removed, 2, "{}", algo.name());
        }
    }

    #[test]
    fn batch_updates_match_sequential() {
        let (f, extra) = university_base();
        let base_triples: Vec<Triple> = f.g.iter().collect();
        for algo in MaintenanceAlgorithm::ALL {
            // batch insert the extras, batch delete half the base + extras
            let mut batch = algo.build(f.g.clone(), f.vocab);
            let stats = batch.insert_batch(&extra);
            assert_eq!(stats.kind, UpdateKind::Batch, "{}", algo.name());
            assert!(stats.added > 0);
            let victims: Vec<Triple> = base_triples
                .iter()
                .step_by(2)
                .chain(extra.iter())
                .copied()
                .collect();
            let stats = batch.delete_batch(&victims);
            assert!(stats.removed > 0, "{}", algo.name());

            let mut seq = algo.build(f.g.clone(), f.vocab);
            for &t in &extra {
                seq.insert(t);
            }
            for t in &victims {
                seq.delete(t);
            }
            assert_eq!(batch.base(), seq.base(), "{}", algo.name());
            assert_eq!(batch.saturated(), seq.saturated(), "{}", algo.name());
            check_invariant(batch.as_ref(), &f.vocab);
        }
    }

    #[test]
    fn empty_and_noop_batches() {
        let (f, _) = university_base();
        for algo in MaintenanceAlgorithm::ALL {
            let mut m = algo.build(f.g.clone(), f.vocab);
            assert_eq!(
                m.insert_batch(&[]).kind,
                UpdateKind::Noop,
                "{}",
                algo.name()
            );
            let existing: Vec<Triple> = f.g.iter().take(3).collect();
            assert_eq!(
                m.insert_batch(&existing).kind,
                UpdateKind::Noop,
                "all duplicates"
            );
            let absent = vec![Triple::new(existing[0].s, existing[0].p, existing[0].s)];
            assert_eq!(
                m.delete_batch(&absent).kind,
                UpdateKind::Noop,
                "{}",
                algo.name()
            );
            check_invariant(m.as_ref(), &f.vocab);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Insert(u8, u8, u8),
            Delete(u8, u8, u8),
            InsertSchema(u8, u8, u8),
            DeleteSchema(u8, u8, u8),
        }

        fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
            proptest::collection::vec(
                prop_oneof![
                    (0u8..8, 0u8..5, 0u8..8).prop_map(|(s, p, o)| Op::Insert(s, p, o)),
                    (0u8..8, 0u8..5, 0u8..8).prop_map(|(s, p, o)| Op::Delete(s, p, o)),
                    (0u8..4, 0u8..6, 0u8..6).prop_map(|(k, a, b)| Op::InsertSchema(k, a, b)),
                    (0u8..4, 0u8..6, 0u8..6).prop_map(|(k, a, b)| Op::DeleteSchema(k, a, b)),
                ],
                0..40,
            )
        }

        fn materialise(op: &Op, dict: &mut Dictionary, vocab: &Vocab) -> (Triple, bool) {
            let class = |d: &mut Dictionary, i: u8| d.encode_iri(&format!("http://ex/C{i}"));
            let prop = |d: &mut Dictionary, i: u8| d.encode_iri(&format!("http://ex/p{i}"));
            let node = |d: &mut Dictionary, i: u8| d.encode_iri(&format!("http://ex/n{i}"));
            match *op {
                Op::Insert(s, p, o) | Op::Delete(s, p, o) => {
                    let t = if p == 0 {
                        // use p=0 as rdf:type with a class object
                        Triple::new(node(dict, s), vocab.rdf_type, class(dict, o % 6))
                    } else {
                        Triple::new(node(dict, s), prop(dict, p), node(dict, o))
                    };
                    (t, matches!(op, Op::Insert(..)))
                }
                Op::InsertSchema(k, a, b) | Op::DeleteSchema(k, a, b) => {
                    let t = match k % 4 {
                        0 => Triple::new(class(dict, a), vocab.sub_class_of, class(dict, b)),
                        1 => Triple::new(
                            prop(dict, 1 + a % 4),
                            vocab.sub_property_of,
                            prop(dict, 1 + b % 4),
                        ),
                        2 => Triple::new(prop(dict, 1 + a % 4), vocab.domain, class(dict, b)),
                        _ => Triple::new(prop(dict, 1 + a % 4), vocab.range, class(dict, b)),
                    };
                    (t, matches!(op, Op::InsertSchema(..)))
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// Every maintainer stays equal to recompute-from-scratch under
            /// arbitrary interleavings of instance and schema updates.
            #[test]
            fn maintainers_equal_recompute(ops in arb_ops()) {
                let mut dict = Dictionary::new();
                let vocab = Vocab::intern(&mut dict);
                let mut dred = DRedMaintainer::new(Graph::new(), vocab);
                let mut counting = CountingMaintainer::new(Graph::new(), vocab);
                let mut base = Graph::new();
                for op in &ops {
                    let (t, insert) = materialise(op, &mut dict, &vocab);
                    if insert {
                        base.insert(t);
                        dred.insert(t);
                        counting.insert(t);
                    } else {
                        base.remove(&t);
                        dred.delete(&t);
                        counting.delete(&t);
                    }
                }
                let expect = saturate(&base, &vocab).graph;
                prop_assert_eq!(dred.saturated(), &expect, "DRed diverged");
                prop_assert_eq!(counting.saturated(), &expect, "Counting diverged");
                prop_assert_eq!(dred.base(), &base);
                prop_assert_eq!(counting.base(), &base);
            }

            /// Replaying the entailed delta drained after each update onto a
            /// shadow copy of the saturation keeps the shadow equal to the
            /// maintained saturation — the contract the subscription layer
            /// relies on.
            #[test]
            fn entailed_delta_replays_saturation(ops in arb_ops()) {
                let mut dict = Dictionary::new();
                let vocab = Vocab::intern(&mut dict);
                let mut maintainers: Vec<Box<dyn Maintainer + Send>> = vec![
                    Box::new(RecomputeMaintainer::new(Graph::new(), vocab)),
                    Box::new(DRedMaintainer::new(Graph::new(), vocab)),
                    Box::new(CountingMaintainer::new(Graph::new(), vocab)),
                ];
                for m in &mut maintainers {
                    prop_assert!(m.supports_delta_tracking());
                    m.set_delta_tracking(true);
                }
                let mut shadows = [Graph::new(), Graph::new(), Graph::new()];
                for op in &ops {
                    let (t, insert) = materialise(op, &mut dict, &vocab);
                    for (m, shadow) in maintainers.iter_mut().zip(shadows.iter_mut()) {
                        if insert {
                            m.insert(t);
                        } else {
                            m.delete(&t);
                        }
                        for (d, add) in m.take_entailed_delta() {
                            if add {
                                prop_assert!(
                                    shadow.insert(d),
                                    "{:?}: duplicate add in delta", m.algorithm()
                                );
                            } else {
                                prop_assert!(
                                    shadow.remove(&d),
                                    "{:?}: removal of absent triple in delta", m.algorithm()
                                );
                            }
                        }
                        prop_assert_eq!(
                            shadow as &Graph,
                            m.saturated(),
                            "{:?}: delta replay diverged", m.algorithm()
                        );
                    }
                }
            }
        }
    }
}
