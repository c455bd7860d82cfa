//! An in-memory, triple-indexed, copy-on-write RDF graph.
//!
//! The graph maintains the three nested indexes
//!
//! * `SPO`: subject → property → {object}
//! * `POS`: property → object → {subject}
//! * `OSP`: object → subject → {property}
//!
//! which together answer each of the eight bound/unbound [`Pattern`] shapes
//! with a single probe chain — the classical "all access paths" layout of
//! RDF stores such as Hexastore and RDF-3X (the paper's §II-C prototypes),
//! reduced from six to three orders because RDF patterns never need a
//! *sorted* residual column here, only a set.
//!
//! ## Copy-on-write chunks
//!
//! Term ids are dense, so the top level of each index is a radix array
//! over its leading key: chunk `id >> 4` holds the inner maps of the 16
//! ids sharing that prefix, behind an `Arc`. Cloning a graph copies the
//! chunk pointers; a write copies only the chunk it touches
//! (`Arc::make_mut`) and leaves every other chunk shared; dropping a
//! superseded clone frees only the chunks no other clone still holds. A
//! store publishing an immutable snapshot per update therefore pays for
//! the chunks the update wrote, not for the graph.
//!
//! An inner map (second key → leaf set) lives inline in its chunk. Up to
//! 128 triples it is one `FxHashMap`, copied whole with its chunk; past
//! that it is *paged* into a radix array of its own over the second key,
//! so a write under a busy key (`rdf:type` in POS, a class in OSP) copies
//! 16 leaves rather than the whole map. Leaves are `FxHashSet`s. Every
//! inner map counts its triples and every index counts its keys, so
//! `count` of every pattern shape and the distinct
//! subject/property/object counts are O(1).
//!
//! Reads probe at most one chunk per level, and scans walk the chunks
//! with plain loops (internal iteration) rather than iterator adapters.

use crate::dictionary::TermId;
use crate::triple::{Pattern, Triple};
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::Arc;

/// log2 of the slots per chunk.
const CHUNK_BITS: usize = 4;
/// Slots per chunk.
const CHUNK: usize = 1 << CHUNK_BITS;
/// Triples an inner map holds before it is paged.
const PAGE_AT: usize = 128;

type Leaf = FxHashSet<TermId>;

/// Sixteen consecutive slots of a [`Radix`], shared by every clone that
/// has not written to them since.
type Chunk<T> = Arc<Slots<T>>;

/// The slots of a chunk, with a bitmask of the occupied ones so scans of
/// sparse chunks touch only what is there.
#[derive(Debug, Clone)]
struct Slots<T> {
    occupied: u16,
    slot: [Option<T>; CHUNK],
}

impl<T> Slots<T> {
    /// Calls `f` with the index and value of every occupied slot.
    #[inline]
    fn for_each(&self, mut f: impl FnMut(usize, &T)) {
        let mut bits = self.occupied;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if let Some(v) = &self.slot[j] {
                f(j, v);
            }
        }
    }
}

/// A dense array indexed by `TermId`, in copy-on-write chunks. It spans
/// the chunks from its smallest key's to its largest key's, so keys
/// clustered high in the id space (the subjects of one department, say)
/// cost no run of empty chunk pointers below them.
#[derive(Debug, Clone)]
struct Radix<T> {
    /// Chunk number (`id >> 4`) of `chunks[0]`.
    base: usize,
    chunks: Vec<Option<Chunk<T>>>,
    /// Occupied slots.
    keys: usize,
}

impl<T> Default for Radix<T> {
    fn default() -> Self {
        Radix {
            base: 0,
            chunks: Vec::new(),
            keys: 0,
        }
    }
}

/// The value of id `i` in `chunk`, filled with `make()` if absent, and
/// whether it was: allocates the chunk if it is absent and copies it
/// first if a clone shares it.
#[inline]
fn fill<T: Clone>(
    chunk: &mut Option<Chunk<T>>,
    i: usize,
    make: impl FnOnce() -> T,
) -> (&mut T, bool) {
    let chunk = chunk.get_or_insert_with(|| {
        Arc::new(Slots {
            occupied: 0,
            slot: std::array::from_fn(|_| None),
        })
    });
    let slots = Arc::make_mut(chunk);
    let j = i & (CHUNK - 1);
    let new = slots.occupied & (1 << j) == 0;
    slots.occupied |= 1 << j;
    (slots.slot[j].get_or_insert_with(make), new)
}

impl<T: Clone> Radix<T> {
    /// Position in `chunks` of id `i`'s chunk; out of range (wrapping)
    /// below `base`.
    #[inline]
    fn position(&self, i: usize) -> usize {
        (i >> CHUNK_BITS).wrapping_sub(self.base)
    }

    #[inline]
    fn get(&self, key: TermId) -> Option<&T> {
        let i = key.index();
        self.chunks.get(self.position(i))?.as_ref()?.slot[i & (CHUNK - 1)].as_ref()
    }

    /// Makes room for id `i` in the chunk vector; returns its position.
    fn grow_to(&mut self, i: usize) -> usize {
        let c = i >> CHUNK_BITS;
        if self.chunks.is_empty() {
            self.base = c;
        } else if c < self.base {
            // Prepend at least as many chunks as there are, so keys
            // arriving in descending order cost amortised O(1).
            let base = c.min(self.base.saturating_sub(self.chunks.len()));
            let room = std::iter::repeat_n(None, self.base - base);
            self.chunks.splice(0..0, room);
            self.base = base;
        }
        let at = c - self.base;
        if at >= self.chunks.len() {
            self.chunks.resize(at + 1, None);
        }
        at
    }

    /// The value at `key`, filled with `make()` first if the slot is empty.
    #[inline]
    fn get_or_insert_with(&mut self, key: TermId, make: impl FnOnce() -> T) -> &mut T {
        let i = key.index();
        let at = self.grow_to(i);
        let (value, new) = fill(&mut self.chunks[at], i, make);
        self.keys += usize::from(new);
        value
    }

    /// The value at `key`, its chunk copied first if a clone shares it.
    #[inline]
    fn get_mut(&mut self, key: TermId) -> Option<&mut T> {
        let i = key.index();
        let at = self.position(i);
        let chunk = self.chunks.get_mut(at)?.as_mut()?;
        chunk.slot[i & (CHUNK - 1)].as_ref()?;
        Arc::make_mut(chunk).slot[i & (CHUNK - 1)].as_mut()
    }

    /// Empties the slot at `key`. Emptying a chunk's last slot drops the
    /// chunk instead of copying it, and emptying the array frees it.
    fn remove(&mut self, key: TermId) {
        let i = key.index();
        let at = self.position(i);
        let Some(ptr) = self.chunks.get_mut(at) else {
            return;
        };
        let Some(chunk) = ptr.as_mut() else {
            return;
        };
        let bit = 1 << (i & (CHUNK - 1));
        if chunk.occupied & bit == 0 {
            return;
        }
        if chunk.occupied == bit {
            *ptr = None;
        } else {
            let slots = Arc::make_mut(chunk);
            slots.occupied &= !bit;
            slots.slot[i & (CHUNK - 1)] = None;
        }
        self.keys -= 1;
        if self.keys == 0 {
            *self = Radix::default();
        }
    }

    /// Calls `f` with every occupied slot, in id order.
    #[inline]
    fn for_each(&self, mut f: impl FnMut(TermId, &T)) {
        for (at, chunk) in self.chunks.iter().enumerate() {
            let Some(chunk) = chunk else { continue };
            let first = (self.base + at) << CHUNK_BITS;
            chunk.for_each(|j, v| f(TermId::from_index(first | j), v));
        }
    }

    /// Iterates over the occupied slots, in id order.
    fn iter(&self) -> impl Iterator<Item = (TermId, &T)> + '_ {
        self.chunks.iter().enumerate().flat_map(move |(at, chunk)| {
            let first = (self.base + at) << CHUNK_BITS;
            chunk.iter().flat_map(move |chunk| {
                chunk.slot.iter().enumerate().filter_map(move |(j, slot)| {
                    Some((TermId::from_index(first | j), slot.as_ref()?))
                })
            })
        })
    }
}

/// Everything under one leading key of an index: second key → leaf.
#[derive(Debug, Clone, Default)]
struct Inner {
    /// Triples under the key: the sum of the leaf sizes.
    triples: usize,
    leaves: Leaves,
}

#[derive(Debug, Clone)]
enum Leaves {
    /// Up to `PAGE_AT` triples; copied whole when its chunk is copied.
    Flat(FxHashMap<TermId, Leaf>),
    /// More than that; a write copies one chunk of 16 leaves.
    Paged(Radix<Leaf>),
}

impl Default for Leaves {
    fn default() -> Self {
        Leaves::Flat(FxHashMap::default())
    }
}

impl Inner {
    #[inline]
    fn leaf(&self, b: TermId) -> Option<&Leaf> {
        match &self.leaves {
            Leaves::Flat(map) => map.get(&b),
            Leaves::Paged(radix) => radix.get(b),
        }
    }

    /// Inserts `(b, c)`, paging the map once it outgrows `PAGE_AT`.
    fn insert(&mut self, b: TermId, c: TermId) -> bool {
        let leaf = match &mut self.leaves {
            Leaves::Flat(map) => map.entry(b).or_default(),
            Leaves::Paged(radix) => radix.get_or_insert_with(b, Leaf::default),
        };
        if !leaf.insert(c) {
            return false;
        }
        self.triples += 1;
        if self.triples > PAGE_AT {
            if let Leaves::Flat(map) = &mut self.leaves {
                let mut paged = Radix::default();
                for key in [map.keys().min(), map.keys().max()].into_iter().flatten() {
                    paged.grow_to(key.index());
                }
                for (b, leaf) in std::mem::take(map) {
                    *paged.get_or_insert_with(b, Leaf::default) = leaf;
                }
                self.leaves = Leaves::Paged(paged);
            }
        }
        true
    }

    /// Removes `(b, c)`, which must be present.
    fn remove(&mut self, b: TermId, c: TermId) {
        match &mut self.leaves {
            Leaves::Flat(map) => {
                if let Some(leaf) = map.get_mut(&b) {
                    leaf.remove(&c);
                    if leaf.is_empty() {
                        map.remove(&b);
                    }
                }
            }
            Leaves::Paged(radix) => {
                if radix.get(b).is_some_and(|leaf| leaf.len() == 1) {
                    radix.remove(b);
                } else if let Some(leaf) = radix.get_mut(b) {
                    leaf.remove(&c);
                }
            }
        }
        self.triples -= 1;
    }

    /// Calls `f` with every `(second key, leaf)` pair.
    #[inline]
    fn for_each(&self, mut f: impl FnMut(TermId, &Leaf)) {
        match &self.leaves {
            Leaves::Flat(map) => {
                for (&b, leaf) in map {
                    f(b, leaf);
                }
            }
            Leaves::Paged(radix) => radix.for_each(f),
        }
    }

    fn iter(&self) -> impl Iterator<Item = (TermId, &Leaf)> + '_ {
        let (flat, paged) = match &self.leaves {
            Leaves::Flat(map) => (Some(map), None),
            Leaves::Paged(radix) => (None, Some(radix)),
        };
        let flat = flat.into_iter().flatten().map(|(&b, leaf)| (b, leaf));
        flat.chain(paged.into_iter().flat_map(Radix::iter))
    }
}

type Index = Radix<Inner>;

fn index_insert(index: &mut Index, a: TermId, b: TermId, c: TermId) {
    index.get_or_insert_with(a, Inner::default).insert(b, c);
}

/// Removes `(a, b, c)`, which must be present.
fn index_remove(index: &mut Index, a: TermId, b: TermId, c: TermId) {
    if index.get(a).is_some_and(|inner| inner.triples == 1) {
        index.remove(a);
    } else if let Some(inner) = index.get_mut(a) {
        inner.remove(b, c);
    }
}

/// The leaf under `(a, b)` in `index`.
#[inline]
fn leaf(index: &Index, a: TermId, b: TermId) -> Option<&Leaf> {
    index.get(a)?.leaf(b)
}

/// An in-memory RDF graph over dictionary-encoded triples.
///
/// Duplicate-free by construction; `insert` and `remove` report whether the
/// graph changed. Cloning a graph is copy-on-write: the clone shares every
/// index chunk with the original, and whichever of the two writes first
/// copies the chunks it writes to. A clone is therefore an independent
/// graph (the saturation maintenance algorithms use clones to snapshot
/// states) that costs one pointer per 16 keys until it diverges.
///
/// Equality is semantic: graphs holding the same triples compare equal.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    spo: Index,
    pos: Index,
    osp: Index,
    len: usize,
}

impl Graph {
    /// Creates an empty graph. Allocates nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of triples.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the graph holds no triple.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a triple. Returns `true` if it was not already present.
    pub fn insert(&mut self, t: Triple) -> bool {
        // Checked first so that a no-op insert copies no shared chunk.
        if self.contains(&t) {
            return false;
        }
        index_insert(&mut self.spo, t.s, t.p, t.o);
        index_insert(&mut self.pos, t.p, t.o, t.s);
        index_insert(&mut self.osp, t.o, t.s, t.p);
        self.len += 1;
        true
    }

    /// Removes a triple. Returns `true` if it was present.
    pub fn remove(&mut self, t: &Triple) -> bool {
        if !self.contains(t) {
            return false;
        }
        index_remove(&mut self.spo, t.s, t.p, t.o);
        index_remove(&mut self.pos, t.p, t.o, t.s);
        index_remove(&mut self.osp, t.o, t.s, t.p);
        self.len -= 1;
        true
    }

    /// Membership test, through POS: the property level is a handful of
    /// always-hot keys, and a join's fully bound check (`?x a C` once
    /// `?x` is bound) probes the same `(p, o)` leaf every time, so only
    /// the final leaf lookup depends on `s`.
    #[inline]
    pub fn contains(&self, t: &Triple) -> bool {
        leaf(&self.pos, t.p, t.o).is_some_and(|leaf| leaf.contains(&t.s))
    }

    /// Removes every triple.
    pub fn clear(&mut self) {
        *self = Graph::default();
    }

    /// Iterates over all triples (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.spo.iter().flat_map(|(s, inner)| {
            inner
                .iter()
                .flat_map(move |(p, leaf)| leaf.iter().map(move |&o| Triple::new(s, p, o)))
        })
    }

    /// Calls `f` with every triple matching `pattern`, using the cheapest
    /// index for the pattern's shape.
    pub fn for_each_match(&self, pattern: &Pattern, mut f: impl FnMut(Triple)) {
        match (pattern.s, pattern.p, pattern.o) {
            (Some(s), Some(p), Some(o)) => {
                let t = Triple::new(s, p, o);
                if self.contains(&t) {
                    f(t);
                }
            }
            (Some(s), Some(p), None) => {
                if let Some(leaf) = leaf(&self.spo, s, p) {
                    for &o in leaf {
                        f(Triple::new(s, p, o));
                    }
                }
            }
            (Some(s), None, Some(o)) => {
                if let Some(leaf) = leaf(&self.osp, o, s) {
                    for &p in leaf {
                        f(Triple::new(s, p, o));
                    }
                }
            }
            (None, Some(p), Some(o)) => {
                if let Some(leaf) = leaf(&self.pos, p, o) {
                    for &s in leaf {
                        f(Triple::new(s, p, o));
                    }
                }
            }
            (Some(s), None, None) => {
                if let Some(inner) = self.spo.get(s) {
                    inner.for_each(|p, leaf| {
                        for &o in leaf {
                            f(Triple::new(s, p, o));
                        }
                    });
                }
            }
            (None, Some(p), None) => {
                if let Some(inner) = self.pos.get(p) {
                    inner.for_each(|o, leaf| {
                        for &s in leaf {
                            f(Triple::new(s, p, o));
                        }
                    });
                }
            }
            (None, None, Some(o)) => {
                if let Some(inner) = self.osp.get(o) {
                    inner.for_each(|s, leaf| {
                        for &p in leaf {
                            f(Triple::new(s, p, o));
                        }
                    });
                }
            }
            (None, None, None) => self.spo.for_each(|s, inner| {
                inner.for_each(|p, leaf| {
                    for &o in leaf {
                        f(Triple::new(s, p, o));
                    }
                });
            }),
        }
    }

    /// Collects the triples matching `pattern`.
    pub fn matches(&self, pattern: &Pattern) -> Vec<Triple> {
        let mut out = Vec::new();
        self.for_each_match(pattern, |t| out.push(t));
        out
    }

    /// Exact number of triples matching `pattern`, in O(1) for every shape.
    pub fn count(&self, pattern: &Pattern) -> usize {
        let triples = |index: &Index, a| index.get(a).map_or(0, |inner| inner.triples);
        match (pattern.s, pattern.p, pattern.o) {
            (Some(s), Some(p), Some(o)) => usize::from(self.contains(&Triple::new(s, p, o))),
            (Some(s), Some(p), None) => leaf(&self.spo, s, p).map_or(0, Leaf::len),
            (Some(s), None, Some(o)) => leaf(&self.osp, o, s).map_or(0, Leaf::len),
            (None, Some(p), Some(o)) => leaf(&self.pos, p, o).map_or(0, Leaf::len),
            (Some(s), None, None) => triples(&self.spo, s),
            (None, Some(p), None) => triples(&self.pos, p),
            (None, None, Some(o)) => triples(&self.osp, o),
            (None, None, None) => self.len,
        }
    }

    /// The set of objects `o` with `s p o` in the graph, if any.
    ///
    /// Hot accessor for the reasoner's specialised join loops.
    #[inline]
    pub fn objects(&self, s: TermId, p: TermId) -> Option<&FxHashSet<TermId>> {
        leaf(&self.spo, s, p)
    }

    /// The set of subjects `s` with `s p o` in the graph, if any.
    #[inline]
    pub fn subjects_with(&self, p: TermId, o: TermId) -> Option<&FxHashSet<TermId>> {
        leaf(&self.pos, p, o)
    }

    /// Iterates over `(s, o)` pairs of triples with property `p`.
    pub fn pairs_with_property(&self, p: TermId) -> impl Iterator<Item = (TermId, TermId)> + '_ {
        self.pos.get(p).into_iter().flat_map(|inner| {
            inner
                .iter()
                .flat_map(|(o, leaf)| leaf.iter().map(move |&s| (s, o)))
        })
    }

    /// Distinct subjects appearing in the graph.
    pub fn subjects(&self) -> impl Iterator<Item = TermId> + '_ {
        self.spo.iter().map(|(s, _)| s)
    }

    /// Distinct properties appearing in the graph.
    pub fn properties(&self) -> impl Iterator<Item = TermId> + '_ {
        self.pos.iter().map(|(p, _)| p)
    }

    /// Distinct objects appearing in the graph.
    pub fn objects_iter(&self) -> impl Iterator<Item = TermId> + '_ {
        self.osp.iter().map(|(o, _)| o)
    }

    /// Number of distinct subjects, in O(1).
    pub fn subject_count(&self) -> usize {
        self.spo.keys
    }

    /// Number of distinct properties, in O(1).
    pub fn property_count(&self) -> usize {
        self.pos.keys
    }

    /// Number of distinct objects, in O(1).
    pub fn object_count(&self) -> usize {
        self.osp.keys
    }

    /// True if `other` contains every triple of `self`.
    pub fn is_subgraph_of(&self, other: &Graph) -> bool {
        self.len <= other.len && self.iter().all(|t| other.contains(&t))
    }

    /// Inserts every triple yielded by the iterator; returns how many were new.
    pub fn extend(&mut self, triples: impl IntoIterator<Item = Triple>) -> usize {
        triples.into_iter().filter(|&t| self.insert(t)).count()
    }

    /// The triples of `self` absent from `other`, i.e. set difference.
    pub fn difference(&self, other: &Graph) -> Vec<Triple> {
        self.iter().filter(|t| !other.contains(t)).collect()
    }
}

impl PartialEq for Graph {
    /// Two graphs are equal when they hold the same triple set.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().all(|t| other.contains(&t))
    }
}

impl Eq for Graph {}

impl FromIterator<Triple> for Graph {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        let mut g = Graph::new();
        g.extend(iter);
        g
    }
}

impl<'a> IntoIterator for &'a Graph {
    type Item = Triple;
    type IntoIter = Box<dyn Iterator<Item = Triple> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl Extend<Triple> for Graph {
    fn extend<I: IntoIterator<Item = Triple>>(&mut self, iter: I) {
        Graph::extend(self, iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> TermId {
        TermId::from_index(i)
    }

    fn t(s: usize, p: usize, o: usize) -> Triple {
        Triple::new(id(s), id(p), id(o))
    }

    fn sample() -> Graph {
        [
            t(1, 10, 2),
            t(1, 10, 3),
            t(2, 10, 3),
            t(1, 11, 2),
            t(4, 12, 1),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut g = Graph::new();
        assert!(g.insert(t(1, 2, 3)));
        assert!(!g.insert(t(1, 2, 3)), "duplicate insert reports false");
        assert_eq!(g.len(), 1);
        assert!(g.contains(&t(1, 2, 3)));
        assert!(!g.contains(&t(3, 2, 1)));
        assert!(g.remove(&t(1, 2, 3)));
        assert!(!g.remove(&t(1, 2, 3)), "double remove reports false");
        assert!(g.is_empty());
    }

    #[test]
    fn all_eight_pattern_shapes() {
        let g = sample();
        let m = |s: Option<usize>, p: Option<usize>, o: Option<usize>| {
            let mut v = g.matches(&Pattern::new(s.map(id), p.map(id), o.map(id)));
            v.sort();
            v
        };
        assert_eq!(m(Some(1), Some(10), Some(2)), vec![t(1, 10, 2)]);
        assert_eq!(m(Some(1), Some(10), None), vec![t(1, 10, 2), t(1, 10, 3)]);
        assert_eq!(m(Some(1), None, Some(2)), vec![t(1, 10, 2), t(1, 11, 2)]);
        assert_eq!(m(None, Some(10), Some(3)), vec![t(1, 10, 3), t(2, 10, 3)]);
        assert_eq!(
            m(Some(1), None, None),
            vec![t(1, 10, 2), t(1, 10, 3), t(1, 11, 2)]
        );
        assert_eq!(
            m(None, Some(10), None),
            vec![t(1, 10, 2), t(1, 10, 3), t(2, 10, 3)]
        );
        assert_eq!(m(None, None, Some(3)), vec![t(1, 10, 3), t(2, 10, 3)]);
        assert_eq!(m(None, None, None).len(), 5);
    }

    #[test]
    fn counts_agree_with_matches() {
        let g = sample();
        let shapes = [
            Pattern::new(Some(id(1)), Some(id(10)), Some(id(2))),
            Pattern::new(Some(id(1)), Some(id(10)), None),
            Pattern::new(Some(id(1)), None, Some(id(2))),
            Pattern::new(None, Some(id(10)), Some(id(3))),
            Pattern::new(Some(id(1)), None, None),
            Pattern::new(None, Some(id(10)), None),
            Pattern::new(None, None, Some(id(3))),
            Pattern::any(),
            // misses:
            Pattern::new(Some(id(99)), None, None),
            Pattern::new(None, Some(id(99)), None),
            Pattern::new(None, None, Some(id(99))),
        ];
        for p in &shapes {
            assert_eq!(g.count(p), g.matches(p).len(), "pattern {p:?}");
        }
    }

    #[test]
    fn property_counts_track_removals() {
        let mut g = sample();
        assert_eq!(g.count(&Pattern::new(None, Some(id(10)), None)), 3);
        g.remove(&t(1, 10, 2));
        assert_eq!(g.count(&Pattern::new(None, Some(id(10)), None)), 2);
        g.remove(&t(1, 10, 3));
        g.remove(&t(2, 10, 3));
        assert_eq!(g.count(&Pattern::new(None, Some(id(10)), None)), 0);
        assert!(
            !g.properties().any(|p| p == id(10)),
            "empty property pruned from index"
        );
    }

    #[test]
    fn removal_prunes_index_keys() {
        let mut g = Graph::new();
        g.insert(t(1, 2, 3));
        g.remove(&t(1, 2, 3));
        assert_eq!(g.subjects().count(), 0);
        assert_eq!(g.properties().count(), 0);
        assert_eq!(g.objects_iter().count(), 0);
    }

    #[test]
    fn hot_accessors() {
        let g = sample();
        let objs = g.objects(id(1), id(10)).unwrap();
        assert_eq!(objs.len(), 2);
        assert!(objs.contains(&id(2)) && objs.contains(&id(3)));
        let subs = g.subjects_with(id(10), id(3)).unwrap();
        assert_eq!(subs.len(), 2);
        assert!(g.objects(id(9), id(9)).is_none());
        let mut pairs: Vec<_> = g.pairs_with_property(id(10)).collect();
        pairs.sort();
        assert_eq!(pairs, vec![(id(1), id(2)), (id(1), id(3)), (id(2), id(3))]);
    }

    #[test]
    fn graph_equality_ignores_insertion_order() {
        let a: Graph = [t(1, 2, 3), t(4, 5, 6)].into_iter().collect();
        let b: Graph = [t(4, 5, 6), t(1, 2, 3)].into_iter().collect();
        assert_eq!(a, b);
        let c: Graph = [t(1, 2, 3)].into_iter().collect();
        assert_ne!(a, c);
        assert!(c.is_subgraph_of(&a));
        assert!(!a.is_subgraph_of(&c));
    }

    #[test]
    fn difference() {
        let a = sample();
        let mut b = sample();
        b.remove(&t(4, 12, 1));
        let mut d = a.difference(&b);
        d.sort();
        assert_eq!(d, vec![t(4, 12, 1)]);
        assert!(b.difference(&a).is_empty());
    }

    #[test]
    fn clear_resets_everything() {
        let mut g = sample();
        g.clear();
        assert!(g.is_empty());
        assert_eq!(g.iter().count(), 0);
        assert_eq!(g.count(&Pattern::any()), 0);
        assert!(g.insert(t(1, 10, 2)));
        assert_eq!(g.len(), 1);
    }

    fn is_paged(index: &Index, key: usize) -> bool {
        index
            .get(id(key))
            .is_some_and(|inner| matches!(inner.leaves, Leaves::Paged(_)))
    }

    #[test]
    fn distinct_counters_track_inserts_and_removes() {
        fn check(g: &Graph) {
            assert_eq!(g.subject_count(), g.subjects().count());
            assert_eq!(g.property_count(), g.properties().count());
            assert_eq!(g.object_count(), g.objects_iter().count());
        }
        // Object 7 and property 0 collect enough triples to be paged.
        let triples: Vec<Triple> = (0..400)
            .map(|i| t(i % 300, i % 2, if i % 2 == 0 { 7 } else { i % 50 }))
            .collect();
        let mut g = Graph::new();
        for &tr in &triples {
            g.insert(tr);
            check(&g);
        }
        assert!(is_paged(&g.osp, 7) && is_paged(&g.pos, 0));
        for tr in triples.iter().step_by(3) {
            g.remove(tr);
            check(&g);
        }
        for tr in &triples {
            g.remove(tr);
            check(&g);
        }
        assert_eq!(
            (g.subject_count(), g.property_count(), g.object_count()),
            (0, 0, 0)
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        #[derive(Debug, Clone)]
        enum Op {
            Insert(Triple),
            Remove(Triple),
        }

        fn arb_triple() -> impl Strategy<Value = Triple> {
            (0usize..12, 0usize..6, 0usize..12).prop_map(|(s, p, o)| t(s, p, o))
        }

        fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
            proptest::collection::vec(
                prop_oneof![
                    arb_triple().prop_map(Op::Insert),
                    arb_triple().prop_map(Op::Remove)
                ],
                0..200,
            )
        }

        proptest! {
            /// The indexed graph behaves exactly like a plain set of triples
            /// under arbitrary insert/remove streams, for every pattern
            /// shape.
            #[test]
            fn graph_matches_set_model(ops in arb_ops()) {
                let mut g = Graph::new();
                let mut model: BTreeSet<Triple> = BTreeSet::new();
                for op in ops {
                    match op {
                        Op::Insert(tr) => {
                            prop_assert_eq!(g.insert(tr), model.insert(tr));
                        }
                        Op::Remove(tr) => {
                            prop_assert_eq!(g.remove(&tr), model.remove(&tr));
                        }
                    }
                }
                prop_assert_eq!(g.len(), model.len());
                let mut all: Vec<_> = g.iter().collect();
                all.sort();
                prop_assert_eq!(all, model.iter().copied().collect::<Vec<_>>());

                // Exhaustive pattern check over the small id universe.
                for s in (0..12).map(id).map(Some).chain([None]) {
                    for p in (0..6).map(id).map(Some).chain([None]) {
                        for o in (0..12).map(id).map(Some).chain([None]) {
                            let pat = Pattern::new(s, p, o);
                            let mut got = g.matches(&pat);
                            got.sort();
                            let want: Vec<_> =
                                model.iter().copied().filter(|tr| pat.matches(tr)).collect();
                            prop_assert_eq!(&got, &want);
                            prop_assert_eq!(g.count(&pat), want.len());
                        }
                    }
                }
            }

        }

        /// `WEBREASON_PROPTEST_CASES` overrides a test's default case count.
        fn env_cases(default: u32) -> u32 {
            std::env::var("WEBREASON_PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        }

        #[derive(Debug, Clone)]
        enum CowOp {
            Insert(Triple),
            /// Removes the `k % len`-th triple of the model.
            Remove(usize),
            /// Holds a clone of the graph as it is now.
            Clone,
        }

        /// Triples concentrated on hubs — object 0, subject 0 and, through
        /// both, properties 0..3 — so single inner maps of all three
        /// indexes grow past the paging threshold.
        fn arb_cow_op() -> impl Strategy<Value = CowOp> {
            (0u32..100, 0usize..400, 0usize..3, 0usize..100_000).prop_map(|(roll, x, p, k)| {
                match roll {
                    0 => CowOp::Clone,
                    1..=24 => CowOp::Remove(k),
                    _ if roll % 2 == 0 => CowOp::Insert(t(x, p, 0)),
                    _ => CowOp::Insert(t(0, p, x)),
                }
            })
        }

        /// `g` against its set model: every pattern shape, keyed by each
        /// constant combination the model holds (plus one absent id), and
        /// `count`, `len` and the distinct-key counters.
        fn check_against_model(g: &Graph, model: &BTreeSet<Triple>) -> Result<(), String> {
            prop_assert_eq!(g.len(), model.len());
            let mut all: Vec<_> = g.iter().collect();
            all.sort();
            prop_assert!(all.iter().eq(model.iter()));
            let distinct =
                |key: fn(&Triple) -> TermId| model.iter().map(key).collect::<BTreeSet<_>>().len();
            prop_assert_eq!(g.subject_count(), distinct(|tr| tr.s));
            prop_assert_eq!(g.property_count(), distinct(|tr| tr.p));
            prop_assert_eq!(g.object_count(), distinct(|tr| tr.o));
            let absent = Triple::new(id(1_000), id(1_000), id(1_000));
            for shape in 0..8u8 {
                let bind = |tr: &Triple| {
                    Pattern::new(
                        (shape & 4 != 0).then_some(tr.s),
                        (shape & 2 != 0).then_some(tr.p),
                        (shape & 1 != 0).then_some(tr.o),
                    )
                };
                let mut groups: std::collections::BTreeMap<_, Vec<Triple>> = Default::default();
                for tr in model {
                    let pat = bind(tr);
                    groups.entry((pat.s, pat.p, pat.o)).or_default().push(*tr);
                }
                for ((s, p, o), want) in &groups {
                    let pat = Pattern::new(*s, *p, *o);
                    let mut got = g.matches(&pat);
                    got.sort();
                    prop_assert_eq!(&got, want);
                    prop_assert_eq!(g.count(&pat), want.len());
                }
                if shape != 0 {
                    let miss = bind(&absent);
                    prop_assert!(g.matches(&miss).is_empty());
                    prop_assert_eq!(g.count(&miss), 0);
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(env_cases(16)))]

            /// Copy-on-write isolation, paged inner maps included: every
            /// clone taken mid-stream still equals its own set model after
            /// the original kept inserting and removing past it.
            #[test]
            fn held_clones_keep_their_triples(
                ops in proptest::collection::vec(arb_cow_op(), 0..1500),
            ) {
                let mut g = Graph::new();
                let mut model: BTreeSet<Triple> = BTreeSet::new();
                let mut held: Vec<(Graph, BTreeSet<Triple>)> = Vec::new();
                for op in ops {
                    match op {
                        CowOp::Insert(tr) => prop_assert_eq!(g.insert(tr), model.insert(tr)),
                        CowOp::Remove(k) => {
                            if let Some(&tr) = model.iter().nth(k % model.len().max(1)) {
                                prop_assert!(g.remove(&tr));
                                model.remove(&tr);
                            }
                        }
                        CowOp::Clone => held.push((g.clone(), model.clone())),
                    }
                }
                held.push((g, model));
                for (clone, model) in &held {
                    check_against_model(clone, model)?;
                }
            }

            /// `contains` probes POS; SPO must agree with it (and with
            /// `count` of the ground shape) on every triple the stream can
            /// produce, present or not — on the live graph and on every
            /// clone held mid-stream — so an index desync cannot hide.
            #[test]
            fn contains_agrees_with_spo_and_count(
                ops in proptest::collection::vec(arb_cow_op(), 0..1500),
            ) {
                let mut g = Graph::new();
                let mut model: BTreeSet<Triple> = BTreeSet::new();
                let mut held: Vec<(Graph, BTreeSet<Triple>)> = Vec::new();
                for op in ops {
                    match op {
                        CowOp::Insert(tr) => prop_assert_eq!(g.insert(tr), model.insert(tr)),
                        CowOp::Remove(k) => {
                            if let Some(&tr) = model.iter().nth(k % model.len().max(1)) {
                                prop_assert!(g.remove(&tr));
                                model.remove(&tr);
                            }
                        }
                        CowOp::Clone => held.push((g.clone(), model.clone())),
                    }
                }
                held.push((g, model));
                for (clone, model) in &held {
                    for x in 0..=400 {
                        for p in 0..=3 {
                            for tr in [t(x, p, 0), t(0, p, x)] {
                                let spo = clone.objects(tr.s, tr.p).is_some_and(|l| l.contains(&tr.o));
                                let ground = Pattern::new(Some(tr.s), Some(tr.p), Some(tr.o));
                                prop_assert_eq!(clone.contains(&tr), model.contains(&tr));
                                prop_assert_eq!(spo, model.contains(&tr));
                                prop_assert_eq!(clone.count(&ground), usize::from(spo));
                            }
                        }
                    }
                }
            }
        }
    }
}
