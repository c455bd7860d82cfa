//! Incremental saturation maintenance.
//!
//! "While correct, such a technique raises performance issues when the data
//! is dynamic. First, if the base data changes, one has to update the set
//! of inferred facts […] the same applies in the case of changes to the set
//! of semantic constraints" (§I). This module provides the maintenance a
//! saturated store pays, the quantity the paper's Fig. 3 thresholds price:
//! [`CountingMaintainer`], truth maintenance à la Broekstra & Kampman (the
//! paper's ref. \[11\]). Every saturated triple carries the number of
//! derivations supporting it, an assertion counting as one, so instance
//! deletions are decrement-and-drop. It stores `G∞` only: a triple's
//! explicitness is one bit beside its count, and `G` is read through that
//! bit. Schema updates re-close the (small) schema and adjust counts only
//! for the explicit triples whose consequence sets could have changed.
//!
//! [`saturate`](crate::saturate) is the reference: the tests check after
//! every update, under random update streams, that the maintained `G∞`
//! equals the saturation of the explicit triples.

use crate::saturation::derive_instance_consequences;
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
    /// The stats of an update that changed nothing.
    pub fn noop() -> Self {
        UpdateStats {
            kind: UpdateKind::Noop,
            added: 0,
            removed: 0,
            work: 0,
        }
    }
}

/// The top bit of a [`CountingMaintainer`] count: the triple is asserted.
/// The low 31 bits hold its support, the assertion included.
const EXPLICIT: u32 = 1 << 31;

/// Derivation-counting maintenance (Broekstra & Kampman, ref. \[11\]).
///
/// Every instance-level triple in the saturation carries
/// `count = [t ∈ G] + |{explicit triples whose consequence set contains t}|`.
/// Because the schema is closed up front, each explicit triple's
/// consequence set is computed in one lookup pass
/// (`derive_instance_consequences`), making counts exact — including under
/// cyclic schemas. The (small) schema-closure part of the saturation is
/// re-derived wholesale on schema updates and diffed.
///
/// `G∞` is the only graph it holds: `G` is the set of triples whose count
/// carries the explicit bit, so an assertion costs one count entry rather
/// than three index entries in a second graph.
pub struct CountingMaintainer {
    vocab: Vocab,
    sat: Graph,
    /// Support per counted triple; the top bit marks an assertion.
    counts: FxHashMap<Triple, u32>,
    /// How many counts carry the explicit bit, i.e. `|G|`.
    explicit: usize,
    schema: Schema,
    closed_schema: FxHashSet<Triple>,
    delta: Option<Vec<(Triple, bool)>>,
}

impl CountingMaintainer {
    /// Builds the maintainer, computing the initial saturation and counts.
    /// `base` becomes `G∞` in place. The build is this maintainer's
    /// saturation, so it is spanned as `rdfs.saturate.run` like
    /// [`saturate`](crate::saturate).
    pub fn new(base: Graph, vocab: Vocab) -> Self {
        let _span = obs::global().span("rdfs.saturate.run");
        let schema = Schema::extract(&base, &vocab);
        let asserted: Vec<Triple> = base.iter().collect();
        let mut m = CountingMaintainer {
            vocab,
            sat: base,
            counts: FxHashMap::default(),
            explicit: asserted.len(),
            schema,
            closed_schema: FxHashSet::default(),
            delta: None,
        };
        m.closed_schema = m.schema.closed_triples(&m.vocab).into_iter().collect();
        for &t in &m.closed_schema {
            m.sat.insert(t);
        }
        let mut cons = FxHashSet::default();
        for t in asserted {
            *m.counts.entry(t).or_insert(0) += EXPLICIT | 1;
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

    /// The derivation count of a saturated triple (0 if absent), an
    /// assertion counting as one — exposed for tests and diagnostics.
    pub fn count_of(&self, t: &Triple) -> u32 {
        self.counts.get(t).map_or(0, |&c| c & !EXPLICIT)
    }

    /// Turns recording of the *entailed* delta on or off. While on, every
    /// triple that enters or leaves `G∞` is appended to a buffer drained by
    /// [`CountingMaintainer::take_entailed_delta`]. Off by default.
    pub fn set_delta_tracking(&mut self, on: bool) {
        match (on, self.delta.is_some()) {
            (true, false) => self.delta = Some(Vec::new()),
            (false, _) => self.delta = None,
            _ => {}
        }
    }

    /// Drains the entailed delta recorded since the last drain: `(t, true)`
    /// when `t` entered `G∞`, `(t, false)` when it left. A triple may leave
    /// and re-enter within one drain, so consumers must consolidate.
    pub fn take_entailed_delta(&mut self) -> Vec<(Triple, bool)> {
        self.delta.as_mut().map(std::mem::take).unwrap_or_default()
    }

    fn cons_set(t: &Triple, vocab: &Vocab, schema: &Schema) -> FxHashSet<Triple> {
        let mut out = FxHashSet::default();
        derive_instance_consequences(t, vocab, schema, |_, c| {
            out.insert(c);
        });
        out
    }

    /// Inserts `d` into `G∞`, recording the entailed delta. `false` when it
    /// was already present via the schema closure.
    fn enter(&mut self, d: Triple) -> bool {
        let entered = self.sat.insert(d);
        if entered {
            if let Some(buf) = &mut self.delta {
                buf.push((d, true));
            }
        }
        entered
    }

    /// Adds one support to `d`; `true` when `d` entered `G∞`.
    fn inc(&mut self, d: Triple) -> bool {
        let c = self.counts.entry(d).or_insert(0);
        *c += 1;
        *c == 1 && self.enter(d)
    }

    /// Drops one support from `d`; `true` when `d` left `G∞`.
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
                if !self.closed_schema.contains(d) && self.sat.remove(d) {
                    if let Some(buf) = &mut self.delta {
                        buf.push((*d, false));
                    }
                    true
                } else {
                    false
                }
            }
            None => false,
        }
    }

    /// Adds one support to every consequence of the instance triple `t`.
    fn instance_insert(&mut self, t: &Triple) -> UpdateStats {
        let mut added = 0;
        let cons = Self::cons_set(t, &self.vocab, &self.schema);
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

    /// Drops one support from every consequence of the instance triple `t`.
    fn instance_delete(&mut self, t: &Triple) -> UpdateStats {
        let mut removed = 0;
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

    /// Handles the insertion or deletion of the constraint `t` (its
    /// explicit bit has already moved). Re-closes the schema with `t`
    /// added or removed and adjusts counts for the explicit triples whose
    /// consequence sets may have changed.
    fn schema_update(&mut self, t: &Triple, kind: UpdateKind) -> UpdateStats {
        let old_schema = std::mem::take(&mut self.schema);
        let new_schema =
            old_schema.with_constraint(t, &self.vocab, kind == UpdateKind::SchemaInsert);
        let (classes, props) = old_schema.diff_affected(&new_schema);
        let mut work = 0;
        let mut added = 0;
        let mut removed = 0;

        // Collect the affected explicit triples first (cannot mutate while
        // iterating the index).
        let rdf_type = self.vocab.rdf_type;
        let mut affected: Vec<Triple> = Vec::new();
        for &c in &classes {
            if let Some(ss) = self.sat.subjects_with(rdf_type, c) {
                affected.extend(
                    ss.iter()
                        .map(|s| Triple::new(s, rdf_type, c))
                        .filter(|t| self.is_explicit(t)),
                );
            }
        }
        for &p in &props {
            if self.vocab.is_schema_property(p) || p == rdf_type {
                continue; // fragment: built-ins are not data properties
            }
            affected.extend(
                self.sat
                    .pairs_with_property(p)
                    .map(|(s, o)| Triple::new(s, p, o))
                    .filter(|t| self.is_explicit(t)),
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
            if !self.counts.contains_key(d) && self.sat.remove(d) {
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

    /// The explicit (asserted) triples of `G`, in no particular order.
    pub fn explicit(&self) -> impl Iterator<Item = Triple> + '_ {
        self.counts
            .iter()
            .filter(|&(_, &c)| c & EXPLICIT != 0)
            .map(|(&t, _)| t)
    }

    /// How many triples `G` holds.
    pub fn explicit_len(&self) -> usize {
        self.explicit
    }

    /// Whether `t` is asserted, i.e. in `G`.
    pub fn is_explicit(&self, t: &Triple) -> bool {
        self.counts.get(t).is_some_and(|&c| c & EXPLICIT != 0)
    }

    /// The maintained saturation `G∞`.
    pub fn saturated(&self) -> &Graph {
        &self.sat
    }

    /// Asserts a triple and maintains the saturation; a no-op when `t` is
    /// already asserted.
    pub fn insert(&mut self, t: Triple) -> UpdateStats {
        let count = self.counts.entry(t).or_insert(0);
        if *count & EXPLICIT != 0 {
            return UpdateStats::noop();
        }
        // The assertion is one more support of `t`.
        *count = (*count | EXPLICIT) + 1;
        let unsupported_before = *count == EXPLICIT | 1;
        self.explicit += 1;
        // Crash site for the fault-injection suite: `t` is asserted but
        // neither `G∞` nor its consequences' counts have moved — the state
        // a recovery must reconverge from.
        webreason_failpoints::fail_point!("store.maintain.incremental");
        let entered = unsupported_before && self.enter(t);
        let mut stats = if self.vocab.is_schema_property(t.p) {
            self.schema_update(&t, UpdateKind::SchemaInsert)
        } else {
            self.instance_insert(&t)
        };
        stats.added += usize::from(entered);
        stats
    }

    /// Retracts an assertion and maintains the saturation; a no-op when
    /// `t` is not asserted, even if it is entailed.
    pub fn delete(&mut self, t: &Triple) -> UpdateStats {
        match self.counts.get_mut(t) {
            Some(c) if *c & EXPLICIT != 0 => *c &= !EXPLICIT,
            _ => return UpdateStats::noop(),
        }
        self.explicit -= 1;
        webreason_failpoints::fail_point!("store.maintain.incremental");
        // Drop the assertion's own support.
        let left = self.dec(t);
        let mut stats = if self.vocab.is_schema_property(t.p) {
            self.schema_update(t, UpdateKind::SchemaDelete)
        } else {
            self.instance_delete(t)
        };
        stats.removed += usize::from(left);
        stats
    }
}

// The saturation invariant `saturated() == saturate(G)` is what the tests
// below check after every operation.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::saturate;
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

    fn check_invariant(m: &CountingMaintainer, vocab: &Vocab) {
        let expect = saturate(&m.explicit().collect(), vocab).graph;
        assert_eq!(
            m.saturated(),
            &expect,
            "maintained saturation diverged from recomputation"
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
        let (f, extra) = university_base();
        let mut m = CountingMaintainer::new(f.g.clone(), f.vocab);
        check_invariant(&m, &f.vocab);
        // inserts
        for &t in &extra {
            m.insert(t);
            check_invariant(&m, &f.vocab);
        }
        // deletes (reverse order), including schema deletions
        for t in extra.iter().rev() {
            m.delete(t);
            check_invariant(&m, &f.vocab);
        }
        // delete original base triples too
        for t in f.g.iter() {
            m.delete(&t);
            check_invariant(&m, &f.vocab);
        }
        assert_eq!(m.explicit_len(), 0);
        assert_eq!(m.explicit().count(), 0);
        assert!(m.saturated().is_empty());
    }

    #[test]
    fn duplicate_insert_and_missing_delete_are_noops() {
        let (f, _) = university_base();
        let mut m = CountingMaintainer::new(f.g.clone(), f.vocab);
        let existing = f.g.iter().next().unwrap();
        assert_eq!(m.insert(existing).kind, UpdateKind::Noop);
        let absent = Triple::new(existing.s, existing.p, existing.s);
        assert_eq!(m.delete(&absent).kind, UpdateKind::Noop);
        check_invariant(&m, &f.vocab);
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

        let mut m = CountingMaintainer::new(f.g.clone(), f.vocab);
        assert!(m.saturated().contains(&derived));
        m.delete(&Triple::new(anne, hf, m1));
        assert!(m.saturated().contains(&derived), "alternative support");
        m.delete(&Triple::new(anne, knows, m2));
        assert!(!m.saturated().contains(&derived), "no support left");
        check_invariant(&m, &f.vocab);
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
        let mut m = CountingMaintainer::new(f.g.clone(), f.vocab);
        m.delete(&Triple::new(anne, hf, marie));
        assert!(m
            .saturated()
            .contains(&Triple::new(anne, v.rdf_type, person)));
        check_invariant(&m, &f.vocab);
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
        let mut m = CountingMaintainer::new(f.g.clone(), f.vocab);
        let typed = Triple::new(anne, v.rdf_type, person);
        assert!(!m.saturated().contains(&typed));
        let stats = m.insert(Triple::new(hf, v.domain, person));
        assert_eq!(stats.kind, UpdateKind::SchemaInsert);
        assert!(m.saturated().contains(&typed));
        check_invariant(&m, &f.vocab);
    }

    #[test]
    fn schema_delete_retracts_derived_types() {
        let mut f = Fx::new();
        let (cat, mammal, tom) = (f.id("Cat"), f.id("Mammal"), f.id("Tom"));
        let v = f.vocab;
        f.add(cat, v.sub_class_of, mammal);
        f.add(tom, v.rdf_type, cat);
        let derived = Triple::new(tom, v.rdf_type, mammal);
        let mut m = CountingMaintainer::new(f.g.clone(), f.vocab);
        assert!(m.saturated().contains(&derived));
        let stats = m.delete(&Triple::new(cat, v.sub_class_of, mammal));
        assert_eq!(stats.kind, UpdateKind::SchemaDelete);
        assert!(!m.saturated().contains(&derived));
        check_invariant(&m, &f.vocab);
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
        let mut m = CountingMaintainer::new(f.g.clone(), f.vocab);
        m.delete(&Triple::new(a, v.sub_class_of, c));
        assert!(m.saturated().contains(&Triple::new(a, v.sub_class_of, c)));
        check_invariant(&m, &f.vocab);
    }

    #[test]
    fn cyclic_schema_deletion() {
        let mut f = Fx::new();
        let (a, b, x) = (f.id("A"), f.id("B"), f.id("x"));
        let v = f.vocab;
        f.add(a, v.sub_class_of, b);
        f.add(b, v.sub_class_of, a);
        f.add(x, v.rdf_type, a);
        let mut m = CountingMaintainer::new(f.g.clone(), f.vocab);
        assert!(m.saturated().contains(&Triple::new(x, v.rdf_type, b)));
        m.delete(&Triple::new(b, v.sub_class_of, a));
        check_invariant(&m, &f.vocab);
        m.delete(&Triple::new(a, v.sub_class_of, b));
        assert!(!m.saturated().contains(&Triple::new(x, v.rdf_type, b)));
        check_invariant(&m, &f.vocab);
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
        let mut m = CountingMaintainer::new(f.g.clone(), f.vocab);
        let stats = m.insert(Triple::new(tom, v.rdf_type, cat));
        assert_eq!(stats.kind, UpdateKind::InstanceInsert);
        assert_eq!(stats.added, 2, "tom:Cat + tom:Mammal");
        let stats = m.delete(&Triple::new(tom, v.rdf_type, cat));
        assert_eq!(stats.kind, UpdateKind::InstanceDelete);
        assert_eq!(stats.removed, 2);
    }

    #[test]
    fn schema_insert_counts_the_constraint() {
        // A new constraint enters G∞ itself; a redundant one does not.
        let mut f = Fx::new();
        let (a, b, c) = (f.id("A"), f.id("B"), f.id("C"));
        let v = f.vocab;
        let mut m = CountingMaintainer::new(f.g.clone(), f.vocab);
        let stats = m.insert(Triple::new(a, v.sub_class_of, b));
        assert_eq!(stats.kind, UpdateKind::SchemaInsert);
        assert_eq!(stats.added, 1, "A ⊑ B");
        let stats = m.insert(Triple::new(b, v.sub_class_of, c));
        assert_eq!(stats.added, 2, "B ⊑ C and A ⊑ C");
        let stats = m.insert(Triple::new(a, v.sub_class_of, c));
        assert_eq!(stats.kind, UpdateKind::SchemaInsert);
        assert_eq!(stats.added, 0, "A ⊑ C was entailed");
        check_invariant(&m, &f.vocab);
    }

    #[test]
    fn entailed_triples_are_asserted_but_not_retracted() {
        let mut f = Fx::new();
        let (cat, mammal, tom) = (f.id("Cat"), f.id("Mammal"), f.id("Tom"));
        let v = f.vocab;
        f.add(cat, v.sub_class_of, mammal);
        f.add(tom, v.rdf_type, cat);
        let entailed = Triple::new(tom, v.rdf_type, mammal);
        let mut m = CountingMaintainer::new(f.g.clone(), f.vocab);
        assert_eq!(m.delete(&entailed), UpdateStats::noop());
        assert!(m.saturated().contains(&entailed));
        assert!(!m.is_explicit(&entailed));
        let stats = m.insert(entailed);
        assert_eq!(stats.kind, UpdateKind::InstanceInsert);
        assert_eq!(stats.added, 0, "G∞ already held it");
        assert!(m.is_explicit(&entailed));
        assert_eq!(m.explicit_len(), 3);
        // The assertion now outlives the derivation.
        let stats = m.delete(&Triple::new(tom, v.rdf_type, cat));
        assert_eq!(stats.removed, 1, "only Tom a Cat leaves");
        assert!(m.saturated().contains(&entailed));
        check_invariant(&m, &f.vocab);
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
            /// Retracts the i-th (mod |G|) asserted triple: a random
            /// `Delete` rarely names one, so without this op the streams
            /// would hardly ever exercise a real retraction.
            DeleteAsserted(u8),
        }

        fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
            proptest::collection::vec(
                prop_oneof![
                    (0u8..8, 0u8..5, 0u8..8).prop_map(|(s, p, o)| Op::Insert(s, p, o)),
                    (0u8..8, 0u8..5, 0u8..8).prop_map(|(s, p, o)| Op::Delete(s, p, o)),
                    (0u8..4, 0u8..6, 0u8..6).prop_map(|(k, a, b)| Op::InsertSchema(k, a, b)),
                    (0u8..4, 0u8..6, 0u8..6).prop_map(|(k, a, b)| Op::DeleteSchema(k, a, b)),
                    (0u8..=255).prop_map(Op::DeleteAsserted),
                ],
                0..40,
            )
        }

        /// The triple `op` inserts or deletes, given the asserted graph `g`.
        fn materialise(op: &Op, dict: &mut Dictionary, vocab: &Vocab, g: &Graph) -> (Triple, bool) {
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
                Op::DeleteAsserted(i) => {
                    let t = g.iter().nth(usize::from(i) % g.len().max(1));
                    // On an empty `G` this is a missing delete, a no-op.
                    (
                        t.unwrap_or_else(|| {
                            Triple::new(node(dict, 0), prop(dict, 1), node(dict, 0))
                        }),
                        false,
                    )
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// Counting stays equal to recompute-from-scratch under
            /// arbitrary interleavings of instance and schema updates.
            #[test]
            fn maintainers_equal_recompute(ops in arb_ops()) {
                let mut dict = Dictionary::new();
                let vocab = Vocab::intern(&mut dict);
                let mut counting = CountingMaintainer::new(Graph::new(), vocab);
                let mut base = Graph::new();
                for op in &ops {
                    let (t, insert) = materialise(op, &mut dict, &vocab, &base);
                    if insert {
                        base.insert(t);
                        counting.insert(t);
                    } else {
                        base.remove(&t);
                        counting.delete(&t);
                    }
                }
                let expect = saturate(&base, &vocab).graph;
                prop_assert_eq!(counting.saturated(), &expect, "Counting diverged");
                prop_assert_eq!(&counting.explicit().collect::<Graph>(), &base);
                prop_assert_eq!(counting.explicit_len(), base.len());
            }

            /// Replaying the entailed delta drained after each update onto a
            /// shadow copy of the saturation keeps the shadow equal to the
            /// maintained saturation — the contract the subscription layer
            /// relies on.
            #[test]
            fn entailed_delta_replays_saturation(ops in arb_ops()) {
                let mut dict = Dictionary::new();
                let vocab = Vocab::intern(&mut dict);
                let mut m = CountingMaintainer::new(Graph::new(), vocab);
                m.set_delta_tracking(true);
                let mut shadow = Graph::new();
                for op in &ops {
                    let asserted: Graph = m.explicit().collect();
                    let (t, insert) = materialise(op, &mut dict, &vocab, &asserted);
                    if insert {
                        m.insert(t);
                    } else {
                        m.delete(&t);
                    }
                    for (d, add) in m.take_entailed_delta() {
                        if add {
                            prop_assert!(shadow.insert(d), "duplicate add in delta");
                        } else {
                            prop_assert!(shadow.remove(&d), "removal of absent triple in delta");
                        }
                    }
                    prop_assert_eq!(&shadow, m.saturated(), "delta replay diverged");
                }
            }
        }
    }
}
