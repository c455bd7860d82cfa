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
//! reduced from six orders to three: under its leading key each index
//! keeps sorted `(second, third)` id pairs, so every leaf is a sorted id
//! run, probed by binary search and scanned in id order.
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
//! An inner map lives inline in its chunk slot: up to 128 triples it is
//! one sorted boxed slice of pairs, copied whole with its chunk. Past that
//! it is *paged* into `Arc`'d sorted pages of at most 128 pairs, under an
//! `Arc` of its own, so a write under a busy key (`rdf:type` in POS, a
//! class in OSP) copies one page and the page directory. Every inner map
//! counts its triples and every index its keys, so `count` is exact
//! without scanning triples and the distinct key counts are O(1).

use crate::dictionary::TermId;
use crate::triple::{Pattern, Triple};
use std::sync::Arc;

/// log2 of the slots per chunk.
const CHUNK_BITS: usize = 4;
/// Slots per chunk.
const CHUNK: usize = 1 << CHUNK_BITS;
/// Pairs an inner map holds before it is paged, and that a page holds.
const PAGE_AT: usize = 128;

/// A `(second, third)` key pair under an index's leading key.
type Pair = (TermId, TermId);

/// The slots of a chunk, with a bitmask of the occupied ones. An empty
/// slot holds `T::default()`, which allocates nothing.
#[derive(Debug, Clone)]
struct Slots<T> {
    occupied: u16,
    slot: [T; CHUNK],
}

/// A dense array indexed by `TermId`, in copy-on-write chunks. It spans
/// the chunks from its smallest key's to its largest key's, so keys
/// clustered high in the id space (the subjects of one department, say)
/// cost no run of empty chunk pointers below them.
#[derive(Debug, Clone, Default)]
struct Radix<T> {
    /// Chunk number (`id >> 4`) of `chunks[0]`.
    base: usize,
    /// Chunks of sixteen consecutive slots, each shared by every clone
    /// that has not written to it since.
    chunks: Vec<Option<Arc<Slots<T>>>>,
    /// Occupied slots.
    keys: usize,
}

impl<T: Clone + Default> Radix<T> {
    fn get(&self, key: TermId) -> Option<&T> {
        let (i, j) = (key.index() >> CHUNK_BITS, key.index() & (CHUNK - 1));
        let chunk = self.chunks.get(i.wrapping_sub(self.base))?.as_ref()?;
        (chunk.occupied & (1 << j) != 0).then(|| &chunk.slot[j])
    }

    /// The value at `key`, filled with `make()` first if the slot is empty:
    /// allocates the chunk if it is absent and copies it first if a clone
    /// shares it.
    fn get_or_insert_with(&mut self, key: TermId, make: impl FnOnce() -> T) -> &mut T {
        let c = key.index() >> CHUNK_BITS;
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
        if c - self.base >= self.chunks.len() {
            self.chunks.resize(c - self.base + 1, None);
        }
        let chunk = self.chunks[c - self.base].get_or_insert_with(|| {
            let slot = std::array::from_fn(|_| T::default());
            Arc::new(Slots { occupied: 0, slot })
        });
        let slots = Arc::make_mut(chunk);
        let j = key.index() & (CHUNK - 1);
        if slots.occupied & (1 << j) == 0 {
            slots.occupied |= 1 << j;
            slots.slot[j] = make();
            self.keys += 1;
        }
        &mut slots.slot[j]
    }

    /// The value at `key`, its chunk copied first if a clone shares it.
    fn get_mut(&mut self, key: TermId) -> Option<&mut T> {
        self.get(key)?;
        let chunk = self.chunks[(key.index() >> CHUNK_BITS) - self.base].as_mut()?;
        Some(&mut Arc::make_mut(chunk).slot[key.index() & (CHUNK - 1)])
    }

    /// Empties the slot at `key`, which must be occupied. Emptying a
    /// chunk's last slot drops the chunk instead of copying it, and
    /// emptying the array frees it.
    fn remove(&mut self, key: TermId) {
        let i = key.index();
        let ptr = &mut self.chunks[(i >> CHUNK_BITS) - self.base];
        let bit = 1 << (i & (CHUNK - 1));
        match ptr {
            Some(chunk) if chunk.occupied != bit => {
                let slots = Arc::make_mut(chunk);
                slots.occupied &= !bit;
                slots.slot[i & (CHUNK - 1)] = T::default();
            }
            _ => *ptr = None,
        }
        self.keys -= 1;
        if self.keys == 0 {
            *self = Radix::default();
        }
    }

    /// Iterates over the occupied slots, in id order.
    fn iter(&self) -> impl Iterator<Item = (TermId, &T)> + '_ {
        let chunks = self.chunks.iter().enumerate();
        chunks.flat_map(move |(at, chunk)| {
            let first = (self.base + at) << CHUNK_BITS;
            chunk.iter().flat_map(move |chunk| {
                (0..CHUNK)
                    .filter(|j| chunk.occupied & (1 << j) != 0)
                    .map(move |j| (TermId::from_index(first | j), &chunk.slot[j]))
            })
        })
    }
}

/// `run` with `x` inserted at `at`, copied slice by slice.
fn with<T: Copy, C: From<Vec<T>>>(run: &[T], at: usize, x: T) -> C {
    let mut out = Vec::with_capacity(run.len() + 1);
    out.extend_from_slice(&run[..at]);
    out.push(x);
    out.extend_from_slice(&run[at..]);
    out.into()
}

/// `run` without its element at `at`, copied slice by slice.
fn without<T: Copy, C: From<Vec<T>>>(run: &[T], at: usize) -> C {
    [&run[..at], &run[at + 1..]].concat().into()
}

/// The pairs of `run` whose second key is `b`.
fn pairs_of(run: &[Pair], b: TermId) -> &[Pair] {
    let lo = run.partition_point(|p| p.0 < b);
    &run[lo..lo + run[lo..].partition_point(|p| p.0 == b)]
}

/// A borrowed, sorted set of ids: the objects under one `(s, p)` or the
/// subjects under one `(p, o)`, read off the third column of the pairs
/// that share one second key: those in the first run that holds any, the
/// whole pages after it, and those in the last page. `contains` is a
/// binary search and `iter` walks the ids in ascending order.
#[derive(Debug, Clone, Copy)]
pub struct SortedIds<'a> {
    head: &'a [Pair],
    body: &'a [Arc<[Pair]>],
    tail: &'a [Pair],
}

impl<'a> SortedIds<'a> {
    /// Number of ids, summed over the leaf's pages.
    #[inline]
    pub fn len(&self) -> usize {
        self.head.len() + self.body.iter().map(|p| p.len()).sum::<usize>() + self.tail.len()
    }

    /// True when the set holds no id (a graph hands out none); reads no page.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty() && self.body.is_empty() && self.tail.is_empty()
    }

    /// Membership test, by binary search.
    #[inline]
    pub fn contains(&self, id: &TermId) -> bool {
        let find = |run: &[Pair]| run.binary_search_by(|p| p.1.cmp(id)).is_ok();
        if self.head.last().is_some_and(|p| p.1 >= *id) {
            return find(self.head);
        }
        let k = self.body.partition_point(|p| p[p.len() - 1].1 < *id);
        match self.body.get(k) {
            Some(page) => find(page),
            None => find(self.tail),
        }
    }

    /// The ids, in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = TermId> + 'a {
        let body = self.body.iter().flat_map(|p| p.iter());
        let pairs = self.head.iter().chain(body).chain(self.tail);
        pairs.map(|p| p.1)
    }
}

/// Everything under one leading key of an index: its sorted pairs.
#[derive(Debug, Clone)]
enum Inner {
    /// Up to `PAGE_AT` pairs; copied whole when its chunk is copied.
    Flat(Box<[Pair]>),
    /// Past `PAGE_AT` pairs, and from then on until the key is emptied.
    Paged(Arc<Paged>),
}

impl Default for Inner {
    fn default() -> Self {
        Inner::Flat(Box::default())
    }
}

/// Sorted pages of at most `PAGE_AT` pairs, each shared by the clones
/// that have not written to it since.
#[derive(Debug, Clone)]
struct Paged {
    triples: usize,
    /// The first pair of each page.
    firsts: Vec<Pair>,
    pages: Vec<Arc<[Pair]>>,
}

impl Paged {
    /// The page that holds `x`, or would.
    #[inline]
    fn page_of(&self, x: Pair) -> usize {
        self.firsts.partition_point(|f| *f <= x).saturating_sub(1)
    }

    /// Inserts `x`, which must be absent, splitting a full page in two.
    fn insert(&mut self, x: Pair) {
        let i = self.page_of(x);
        let page = &self.pages[i];
        let at = page.binary_search(&x).unwrap_or_else(|at| at);
        if page.len() < PAGE_AT {
            self.pages[i] = with(page, at, x);
        } else {
            let pairs: Vec<Pair> = with(page, at, x);
            let (lo, hi) = pairs.split_at(pairs.len() / 2);
            self.pages.splice(i..=i, [Arc::from(lo), Arc::from(hi)]);
            self.firsts.insert(i + 1, hi[0]);
        }
        self.firsts[i] = self.pages[i][0];
        self.triples += 1;
    }

    /// Removes `x`, which must be present, from a map of two pairs or more,
    /// merging its page with the next, else the previous, once both fit in
    /// half a page: a page left unmerged exceeds that with either neighbour.
    fn remove(&mut self, x: Pair) {
        let i = self.page_of(x);
        let at = self.pages[i].partition_point(|&y| y < x);
        let lo = i.saturating_sub(1);
        let mut near = self.pages[lo..self.pages.len().min(i + 2)].windows(2);
        let fit = |w: &[Arc<[Pair]>]| w[0].len() + w[1].len() <= PAGE_AT / 2 + 1;
        if let Some(k) = near.rposition(fit).map(|w| lo + w) {
            let both = self.pages[k..=k + 1].iter().flat_map(|p| p.iter().copied());
            self.pages
                .splice(k..=k + 1, [both.filter(|&y| y != x).collect()]);
            self.firsts.remove(k + 1);
        } else if self.pages[i].len() == 1 {
            self.pages.remove(i);
            self.firsts.remove(i);
        } else {
            self.pages[i] = without(&self.pages[i], at);
        }
        for (first, page) in self.firsts[lo..].iter_mut().zip(&self.pages[lo..]).take(2) {
            *first = page[0];
        }
        self.triples -= 1;
    }
}

impl Inner {
    #[inline]
    fn triples(&self) -> usize {
        match self {
            Inner::Flat(run) => run.len(),
            Inner::Paged(paged) => paged.triples,
        }
    }

    /// The sorted runs the pairs are stored in, in order.
    fn runs(&self) -> impl Iterator<Item = &[Pair]> + '_ {
        let (flat, pages) = match self {
            Inner::Flat(run) => (Some(&run[..]), &[][..]),
            Inner::Paged(paged) => (None, &paged.pages[..]),
        };
        flat.into_iter().chain(pages.iter().map(|p| &p[..]))
    }

    #[inline]
    fn leaf(&self, b: TermId) -> Option<SortedIds<'_>> {
        let (head, body, tail) = match self {
            Inner::Flat(run) => (pairs_of(run, b), &[][..], &[][..]),
            Inner::Paged(paged) => {
                // `b`'s pairs start in page `i` and end in page `j`.
                let i = paged.firsts.partition_point(|f| f.0 < b).saturating_sub(1);
                let j = paged.firsts.partition_point(|f| f.0 <= b).saturating_sub(1);
                let (body, tail) = match paged.pages[i + 1..=j].split_last() {
                    Some((last, body)) => (body, pairs_of(last, b)),
                    None => (&[][..], &[][..]),
                };
                (pairs_of(&paged.pages[i], b), body, tail)
            }
        };
        Some(SortedIds { head, body, tail }).filter(|ids| !ids.is_empty())
    }

    #[inline]
    fn contains(&self, x: Pair) -> bool {
        match self {
            Inner::Flat(run) => run.binary_search(&x).is_ok(),
            Inner::Paged(paged) => paged.pages[paged.page_of(x)].binary_search(&x).is_ok(),
        }
    }

    /// Inserts `x`, which must be absent, paging the map once it outgrows
    /// `PAGE_AT`.
    fn insert(&mut self, x: Pair) {
        let run = match self {
            Inner::Paged(paged) => return Arc::make_mut(paged).insert(x),
            Inner::Flat(run) => run,
        };
        let at = run.binary_search(&x).unwrap_or_else(|at| at);
        let pairs: Vec<Pair> = with(run, at, x);
        if pairs.len() <= PAGE_AT {
            return *self = Inner::Flat(pairs.into());
        }
        let pages: Vec<Arc<[Pair]>> = pairs.chunks(PAGE_AT / 2).map(Arc::from).collect();
        let firsts = pages.iter().map(|p| p[0]).collect();
        let triples = pairs.len();
        *self = Inner::Paged(Arc::new(Paged {
            triples,
            firsts,
            pages,
        }));
    }

    /// Removes `x`, which must be present.
    fn remove(&mut self, x: Pair) {
        match self {
            Inner::Flat(run) => *run = without(run, run.partition_point(|&y| y < x)),
            Inner::Paged(paged) => Arc::make_mut(paged).remove(x),
        }
    }
}

type Index = Radix<Inner>;

fn index_insert(index: &mut Index, a: TermId, b: TermId, c: TermId) {
    index.get_or_insert_with(a, Inner::default).insert((b, c));
}

/// Removes `(a, b, c)`, which must be present.
fn index_remove(index: &mut Index, a: TermId, b: TermId, c: TermId) {
    if index.get(a).is_some_and(|inner| inner.triples() == 1) {
        index.remove(a);
    } else if let Some(inner) = index.get_mut(a) {
        inner.remove((b, c));
    }
}

/// The leaf under `(a, b)` in `index`.
#[inline]
fn leaf(index: &Index, a: TermId, b: TermId) -> Option<SortedIds<'_>> {
    index.get(a)?.leaf(b)
}

/// The ids under `(a, b)` in `index`, in order.
#[inline]
fn ids(index: &Index, a: TermId, b: TermId) -> impl Iterator<Item = TermId> + '_ {
    leaf(index, a, b).into_iter().flat_map(|ids| ids.iter())
}

/// Calls `f` with every pair under `a` in `index`.
fn each_pair(index: &Index, a: TermId, mut f: impl FnMut(TermId, TermId)) {
    let runs = index.get(a).into_iter().flat_map(Inner::runs);
    runs.for_each(|run| run.iter().for_each(|&(b, c)| f(b, c)));
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
        self.pos.get(t.p).is_some_and(|i| i.contains((t.o, t.s)))
    }

    /// Removes every triple.
    pub fn clear(&mut self) {
        *self = Graph::default();
    }

    /// Iterates over all triples, in subject, property, object id order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.spo.iter().flat_map(|(s, inner)| {
            let pairs = inner.runs().flatten();
            pairs.map(move |&(p, o)| Triple::new(s, p, o))
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
            (Some(s), Some(p), None) => ids(&self.spo, s, p).for_each(|o| f(Triple::new(s, p, o))),
            (Some(s), None, Some(o)) => ids(&self.osp, o, s).for_each(|p| f(Triple::new(s, p, o))),
            (None, Some(p), Some(o)) => ids(&self.pos, p, o).for_each(|s| f(Triple::new(s, p, o))),
            (Some(s), None, None) => each_pair(&self.spo, s, |p, o| f(Triple::new(s, p, o))),
            (None, Some(p), None) => each_pair(&self.pos, p, |o, s| f(Triple::new(s, p, o))),
            (None, None, Some(o)) => each_pair(&self.osp, o, |s, p| f(Triple::new(s, p, o))),
            (None, None, None) => self.iter().for_each(f),
        }
    }

    /// Collects the triples matching `pattern`.
    pub fn matches(&self, pattern: &Pattern) -> Vec<Triple> {
        let mut out = Vec::new();
        self.for_each_match(pattern, |t| out.push(t));
        out
    }

    /// Exact number of triples matching `pattern`: O(1) for the shapes
    /// with zero, one or three constants, O(pages of the leaf) for two.
    pub fn count(&self, pattern: &Pattern) -> usize {
        let triples = |index: &Index, a| index.get(a).map_or(0, Inner::triples);
        let len = |ids: Option<SortedIds>| ids.map_or(0, |ids| ids.len());
        match (pattern.s, pattern.p, pattern.o) {
            (Some(s), Some(p), Some(o)) => usize::from(self.contains(&Triple::new(s, p, o))),
            (Some(s), Some(p), None) => len(leaf(&self.spo, s, p)),
            (Some(s), None, Some(o)) => len(leaf(&self.osp, o, s)),
            (None, Some(p), Some(o)) => len(leaf(&self.pos, p, o)),
            (Some(s), None, None) => triples(&self.spo, s),
            (None, Some(p), None) => triples(&self.pos, p),
            (None, None, Some(o)) => triples(&self.osp, o),
            (None, None, None) => self.len,
        }
    }

    /// The sorted set of objects `o` with `s p o` in the graph, if any.
    ///
    /// Hot accessor for the reasoner's specialised join loops.
    #[inline]
    pub fn objects(&self, s: TermId, p: TermId) -> Option<SortedIds<'_>> {
        leaf(&self.spo, s, p)
    }

    /// The sorted set of subjects `s` with `s p o` in the graph, if any.
    #[inline]
    pub fn subjects_with(&self, p: TermId, o: TermId) -> Option<SortedIds<'_>> {
        leaf(&self.pos, p, o)
    }

    /// Iterates over `(s, o)` pairs of triples with property `p`.
    pub fn pairs_with_property(&self, p: TermId) -> impl Iterator<Item = (TermId, TermId)> + '_ {
        let runs = self.pos.get(p).into_iter().flat_map(Inner::runs);
        runs.flatten().map(|&(o, s)| (s, o))
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
            .is_some_and(|inner| matches!(inner, Inner::Paged(_)))
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

    /// The pages of property 0 in POS, which must be paged.
    fn pos_pages(g: &Graph) -> Vec<Arc<[Pair]>> {
        let Some(Inner::Paged(paged)) = g.pos.get(id(0)) else {
            panic!("property 0 is paged in POS");
        };
        paged.pages.clone()
    }

    #[test]
    fn a_write_under_a_clone_copies_one_page() {
        // Even subjects, so an odd one lands inside a page.
        let mut g: Graph = (0..600).map(|x| t(2 * x + 10, 0, 0)).collect();
        let held = g.clone();
        let before = pos_pages(&held);
        assert!(before.len() >= 4, "{} pages", before.len());
        assert!(g.insert(t(601, 0, 0)));
        let after = pos_pages(&g);
        assert_eq!(after.len(), before.len());
        let copied = before
            .iter()
            .zip(&after)
            .filter(|(a, b)| !Arc::ptr_eq(a, b));
        assert_eq!(copied.count(), 1, "every other page stays shared");
        assert!(pos_pages(&held)
            .iter()
            .zip(&before)
            .all(|(a, b)| Arc::ptr_eq(a, b)));
        assert!(g.contains(&t(601, 0, 0)) && !held.contains(&t(601, 0, 0)));
    }

    #[test]
    fn a_paged_leaf_shrinks_back_under_a_held_clone() {
        let all: Vec<Triple> = (0..600).map(|x| t(x + 10, 0, 0)).collect();
        let mut g: Graph = all.iter().copied().collect();
        let held = g.clone();
        assert!(pos_pages(&held).len() >= 4);
        let leaf = Pattern::new(None, Some(id(0)), Some(id(0)));
        // The pages merge as the leaf shrinks to one id.
        for (i, tr) in all.iter().enumerate().rev().take(599) {
            assert!(g.remove(tr));
            assert_eq!(g.count(&leaf), i);
            assert_eq!(g.subjects_with(id(0), id(0)).map_or(0, |ids| ids.len()), i);
        }
        assert_eq!(g.matches(&leaf), all[..1]);
        assert_eq!(pos_pages(&g).len(), 1);
        assert_eq!(held.len(), all.len());
        let mut kept = held.matches(&leaf);
        kept.sort();
        assert_eq!(kept, all);
        assert!(all.iter().all(|tr| held.contains(tr)));
    }

    #[test]
    fn a_shrinking_page_merges_with_the_previous_when_the_next_is_too_full() {
        let run =
            |ids: std::ops::Range<usize>| -> Arc<[Pair]> { ids.map(|i| (id(0), id(i))).collect() };
        let pages = vec![run(0..10), run(10..40), run(40..140)];
        let firsts = pages.iter().map(|p| p[0]).collect();
        let mut paged = Paged {
            triples: 140,
            firsts,
            pages,
        };
        // The first pair of the middle page, so its first pair moves too.
        paged.remove((id(0), id(10)));
        let sizes: Vec<usize> = paged.pages.iter().map(|p| p.len()).collect();
        assert_eq!(sizes, [39, 100]);
        assert_eq!(paged.firsts, [(id(0), id(0)), (id(0), id(40))]);
        assert_eq!(paged.triples, 139);
        let left: Vec<Pair> = paged.pages.iter().flat_map(|p| p.iter().copied()).collect();
        let want: Vec<Pair> = (0..140)
            .filter(|&i| i != 10)
            .map(|i| (id(0), id(i)))
            .collect();
        assert_eq!(left, want);
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
        /// indexes grow past the paging threshold. Property 0 takes most
        /// of the `?x p 0` inserts, so the POS leaf of `?x 0 0` spans four
        /// pages and more in the longer streams, while removals shrink it
        /// under the clones held on the way; `?x 1 0` and `?x 2 0` give
        /// OSP's paged map of object 0 leaves of several ids mid-map.
        fn arb_cow_op() -> impl Strategy<Value = CowOp> {
            (0u32..100, 0usize..1_000, 0usize..3, 0usize..100_000).prop_map(|(roll, x, p, k)| {
                match roll {
                    0 => CowOp::Clone,
                    1..=19 => CowOp::Remove(k),
                    20..=69 => CowOp::Insert(t(x, 0, 0)),
                    70..=79 => CowOp::Insert(t(x, p, 0)),
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
                    for x in 0..=1_000 {
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
