//! Dictionary encoding: interning [`Term`]s as compact integer ids.
//!
//! Every layer above the model (saturation, reformulation, query
//! evaluation) manipulates [`TermId`]s only; the dictionary is the
//! single point where strings are materialised. This mirrors the design of
//! dictionary-encoded RDF systems (RDF-3X, Hexastore, OWLIM) surveyed in
//! Section II-C of the paper.

use crate::term::Term;
use rustc_hash::FxHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A compact identifier for an interned [`Term`].
///
/// Ids are dense (`0..dictionary.len()`), `Copy`, and stable for the
/// lifetime of the [`Dictionary`] that produced them. Using `u32` keeps an
/// encoded [`crate::Triple`] at 12 bytes; a dictionary can hold up to
/// 2³² − 1 distinct terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u32);

impl TermId {
    /// The dense index of this id, usable for direct vector indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `TermId` from a dense index.
    ///
    /// Intended for storage layers (e.g. the workload generator's column
    /// tables); ids fabricated out of range simply fail to decode.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        TermId(u32::try_from(index).expect("term id space exhausted"))
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A bidirectional, append-only mapping between [`Term`]s and [`TermId`]s.
///
/// `encode` interns (idempotently); `decode` recovers the term. Terms are
/// never removed: RDF dictionaries in practice are append-only because ids
/// may be referenced from persisted triples or query plans.
///
/// Each term is stored once, in the id-indexed `terms`. Lookups go through
/// `slots`, an open-addressing table of ids keyed by the term's hash; every
/// hit on the hash is confirmed against `terms[id]`, so terms whose hashes
/// collide still get distinct ids.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    terms: Vec<Term>,
    /// A power of two in length (or empty), at most three quarters full.
    slots: Vec<Slot>,
}

/// A lookup slot: an id and the hash of its term, or `EMPTY`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: u32,
    hash: u32,
}

const EMPTY: Slot = Slot {
    id: u32::MAX,
    hash: 0,
};

/// The lookup hash of a term.
fn hash(term: &Term) -> u32 {
    let mut h = FxHasher::default();
    term.hash(&mut h);
    (h.finish() >> 32) as u32
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty dictionary with room for `capacity` terms.
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = (capacity * 4 / 3 + 1).next_power_of_two();
        Dictionary {
            terms: Vec::with_capacity(capacity),
            slots: vec![EMPTY; slots],
        }
    }

    /// Interns a term, returning its id. Idempotent: encoding the same term
    /// twice returns the same id.
    pub fn encode(&mut self, term: &Term) -> TermId {
        self.intern(term, hash(term))
    }

    /// `encode` for a term whose lookup hash is `hash`.
    fn intern(&mut self, term: &Term, hash: u32) -> TermId {
        if (self.terms.len() + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        match self.find(term, hash) {
            Ok(id) => id,
            Err(at) => {
                let id = u32::try_from(self.terms.len())
                    .ok()
                    .filter(|&id| id != EMPTY.id)
                    .expect("term id space exhausted");
                self.slots[at] = Slot { id, hash };
                if self.terms.len() == self.terms.capacity() {
                    self.terms.reserve_exact(Self::spare_for(self.terms.len()));
                }
                self.terms.push(term.clone());
                TermId(id)
            }
        }
    }

    /// The id of `term`, whose lookup hash is `hash`, or the empty slot it
    /// would take. `slots` must not be empty.
    fn find(&self, term: &Term, hash: u32) -> Result<TermId, usize> {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot.id == EMPTY.id {
                return Err(at);
            }
            if slot.hash == hash && self.terms[slot.id as usize] == *term {
                return Ok(TermId(slot.id));
            }
            at = (at + 1) & mask;
        }
    }

    /// Room `terms` gains when full at `len` terms: an eighth more, not a
    /// doubling, so spare capacity stays within `len / 8 + 16` terms
    /// wherever the count falls. A grow moves the terms once; over a
    /// whole load that is a handful of moves per term, and large blocks
    /// are usually extended in place.
    fn spare_for(len: usize) -> usize {
        len / 8 + 16
    }

    /// Doubles the lookup table, placing each slot by its stored hash.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(16);
        let mut slots = vec![EMPTY; len];
        for &slot in self.slots.iter().filter(|s| s.id != EMPTY.id) {
            let mut at = slot.hash as usize & (len - 1);
            while slots[at].id != EMPTY.id {
                at = (at + 1) & (len - 1);
            }
            slots[at] = slot;
        }
        self.slots = slots;
    }

    /// Interns an IRI term given as a string.
    pub fn encode_iri(&mut self, iri: &str) -> TermId {
        // Fast path: avoid building a Term when already interned.
        // (Lookup requires a Term key, so we build one either way; kept as a
        // named helper because it is the dominant call shape.)
        self.encode(&Term::iri(iri))
    }

    /// Returns the id of a term if it has been interned.
    pub fn get_id(&self, term: &Term) -> Option<TermId> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(term, hash(term)).ok()
    }

    /// Returns the id of an IRI if it has been interned.
    pub fn get_iri_id(&self, iri: &str) -> Option<TermId> {
        self.get_id(&Term::iri(iri))
    }

    /// Recovers the term for an id produced by this dictionary.
    pub fn decode(&self, id: TermId) -> Option<&Term> {
        self.terms.get(id.index())
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no term has been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;

    #[test]
    fn encode_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.encode(&Term::iri("http://a"));
        let b = d.encode(&Term::iri("http://a"));
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        let mut d = Dictionary::new();
        let i = d.encode(&Term::iri("x"));
        let l = d.encode(&Term::literal("x"));
        let b = d.encode(&Term::blank("x"));
        assert_ne!(i, l);
        assert_ne!(i, b);
        assert_ne!(l, b);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn decode_round_trips() {
        let mut d = Dictionary::new();
        let terms = [
            Term::iri("http://example.org/a"),
            Term::literal("plain"),
            Term::Literal(Literal::lang("hi", "en")),
            Term::Literal(Literal::typed(
                "4",
                "http://www.w3.org/2001/XMLSchema#integer",
            )),
            Term::blank("b0"),
        ];
        let ids: Vec<_> = terms.iter().map(|t| d.encode(t)).collect();
        for (t, id) in terms.iter().zip(&ids) {
            assert_eq!(d.decode(*id), Some(t));
        }
    }

    #[test]
    fn decode_unknown_id_is_none() {
        let d = Dictionary::new();
        assert_eq!(d.decode(TermId::from_index(7)), None);
    }

    #[test]
    fn get_id_without_interning() {
        let mut d = Dictionary::new();
        assert_eq!(d.get_iri_id("http://a"), None);
        let id = d.encode_iri("http://a");
        assert_eq!(d.get_iri_id("http://a"), Some(id));
        // get_id does not intern
        assert_eq!(d.get_id(&Term::iri("http://b")), None);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn colliding_hashes_resolve_against_the_terms() {
        // Every term gets the same lookup hash, across several growths of
        // the table: each still gets its own id, in encode order.
        let mut d = Dictionary::new();
        let terms: Vec<Term> = (0..100)
            .map(|i| Term::iri(format!("http://c/{i}")))
            .collect();
        let ids: Vec<TermId> = terms.iter().map(|t| d.intern(t, 7)).collect();
        for (i, (t, &id)) in terms.iter().zip(&ids).enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(d.find(t, 7), Ok(id));
            assert_eq!(d.decode(id), Some(t));
        }
        assert_eq!(d.intern(&terms[42], 7), ids[42]);
        assert_eq!(d.find(&Term::iri("http://c/100"), 7).ok(), None);
        assert_eq!(d.len(), 100);
    }

    #[test]
    fn terms_grow_by_an_eighth_across_a_power_of_two() {
        let mut dict = Dictionary::new();
        for i in 0..70_000 {
            dict.encode(&Term::iri(format!("http://ex/{i}")));
            let (len, cap) = (dict.terms.len(), dict.terms.capacity());
            assert!(
                cap - len <= Dictionary::spare_for(len),
                "{cap} slots for {len} terms"
            );
        }
        assert!(dict.terms.len() > 1 << 16, "crossed 2^16 terms");
        // The lookup table keeps its load rule.
        assert!(dict.terms.len() * 4 <= dict.slots.len() * 3);
    }

    #[test]
    fn ids_are_dense_and_iteration_ordered() {
        let mut d = Dictionary::new();
        for i in 0..10 {
            let id = d.encode_iri(&format!("http://t/{i}"));
            assert_eq!(id.index(), i);
        }
        let collected: Vec<_> = d.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(collected, (0..10).collect::<Vec<_>>());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_term() -> impl Strategy<Value = Term> {
            prop_oneof![
                "[a-z:/#0-9]{0,20}".prop_map(Term::iri),
                "\\PC{0,20}".prop_map(Term::literal),
                ("\\PC{0,10}", "[a-z]{1,5}").prop_map(|(l, t)| Term::Literal(Literal::lang(l, &t))),
                ("\\PC{0,10}", "[a-z:/#]{1,15}")
                    .prop_map(|(l, t)| Term::Literal(Literal::typed(l, t))),
                "[A-Za-z0-9]{1,8}".prop_map(Term::blank),
            ]
        }

        proptest! {
            #[test]
            fn round_trip_random_terms(terms in proptest::collection::vec(arb_term(), 0..64)) {
                let mut d = Dictionary::new();
                let ids: Vec<_> = terms.iter().map(|t| d.encode(t)).collect();
                for (t, id) in terms.iter().zip(&ids) {
                    prop_assert_eq!(d.decode(*id), Some(t));
                    prop_assert_eq!(d.get_id(t), Some(*id));
                }
                // id count equals the number of distinct terms
                let distinct: std::collections::BTreeSet<_> = terms.iter().collect();
                prop_assert_eq!(d.len(), distinct.len());
            }
        }
    }
}
