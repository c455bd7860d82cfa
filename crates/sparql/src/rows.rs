//! The answer block: every row of a query's answer in one flat
//! `Vec<TermId>`, and the index `DISTINCT` deduplicates it with.
//!
//! The executor writes rows into a block, [`finalize`](crate::finalize) filters, sorts and slices them in
//! place, and the server writes them to the socket — no answer row is
//! ever its own heap allocation.

use rdf_model::TermId;
use rustc_hash::FxHasher;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::ops::Index;

/// A query's answer rows as one flat block: row `i` is
/// `data[i * width .. (i + 1) * width]`, the values of the projected
/// variables in projection order.
///
/// The row count is kept explicitly rather than derived from
/// `data.len() / width`: a ground query (`SELECT * WHERE { <a> <p> <b> }`)
/// projects nothing, so its rows have width 0 and only the count says how
/// many answers there are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rows {
    width: usize,
    len: usize,
    data: Vec<TermId>,
}

impl Rows {
    /// An empty block of `width`-term rows.
    pub fn new(width: usize) -> Rows {
        Rows {
            width,
            len: 0,
            data: Vec::new(),
        }
    }

    /// Builds a block from rows of `width` terms each.
    ///
    /// # Panics
    /// If a row's length is not `width`.
    pub fn from_rows<R: AsRef<[TermId]>>(width: usize, rows: impl IntoIterator<Item = R>) -> Rows {
        let mut out = Rows::new(width);
        for row in rows {
            out.push(row.as_ref());
        }
        out
    }

    /// Terms per row (the number of projected variables).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there is no row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn row(&self, i: usize) -> &[TermId] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// The rows in order, each as a slice of `width` terms.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[TermId]> + '_ {
        (0..self.len).map(move |i| self.row(i))
    }

    /// Appends one row.
    ///
    /// # Panics
    /// If `row.len()` is not the block's width.
    #[inline]
    pub fn push(&mut self, row: &[TermId]) {
        self.push_copies(row, 1);
    }

    /// Appends `copies` copies of one row (a duplicated union branch under
    /// bag semantics).
    #[inline]
    pub fn push_copies(&mut self, row: &[TermId], copies: usize) {
        assert_eq!(row.len(), self.width, "row width");
        for _ in 0..copies {
            self.data.extend_from_slice(row);
        }
        self.len += copies;
    }

    /// Keeps only the rows `keep` accepts, in order, compacting in place.
    pub fn retain(&mut self, mut keep: impl FnMut(&[TermId]) -> bool) {
        let w = self.width;
        let mut kept = 0;
        for i in 0..self.len {
            if keep(self.row(i)) {
                if kept != i {
                    self.data.copy_within(i * w..(i + 1) * w, kept * w);
                }
                kept += 1;
            }
        }
        self.len = kept;
        self.data.truncate(kept * w);
    }

    /// Sorts the rows with `cmp`, stably: a permutation of row numbers is
    /// sorted, then the block is rebuilt in that order once.
    pub fn sort_by(&mut self, mut cmp: impl FnMut(&[TermId], &[TermId]) -> Ordering) {
        let mut perm: Vec<usize> = (0..self.len).collect();
        perm.sort_by(|&a, &b| cmp(self.row(a), self.row(b)));
        let mut data = Vec::with_capacity(self.data.len());
        for i in perm {
            data.extend_from_slice(self.row(i));
        }
        self.data = data;
    }

    /// Drops the first `n` rows (all of them if there are fewer).
    pub fn skip(&mut self, n: usize) {
        let n = n.min(self.len);
        self.data.drain(..n * self.width);
        self.len -= n;
    }

    /// Keeps at most the first `n` rows.
    pub fn truncate(&mut self, n: usize) {
        if n < self.len {
            self.len = n;
            self.data.truncate(n * self.width);
        }
    }

    /// The rows copied out one `Vec` each — for tests and comparisons,
    /// never on the answering path.
    pub fn to_vecs(&self) -> Vec<Vec<TermId>> {
        self.iter().map(<[TermId]>::to_vec).collect()
    }
}

impl Index<usize> for Rows {
    type Output = [TermId];

    fn index(&self, i: usize) -> &[TermId] {
        assert!(i < self.len, "row {i} out of {} rows", self.len);
        self.row(i)
    }
}

/// The `DISTINCT` index over one [`Rows`] block: an open-addressing table
/// of row numbers, probed by comparing row slices in the block itself, so
/// deduplication stores no key per row and allocates nothing per row.
///
/// Every row of the block must have been pushed through
/// [`RowIndex::insert`].
#[derive(Default)]
pub(crate) struct RowIndex {
    /// Row number + 1 per slot; 0 marks an empty slot.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: a slot is picked by the hash's high
    /// bits, the well-mixed ones of an Fx hash.
    shift: u32,
}

impl RowIndex {
    /// Appends `row` to `rows` unless an equal row is already there.
    /// Returns whether it was appended.
    pub(crate) fn insert(&mut self, rows: &mut Rows, row: &[TermId]) -> bool {
        // Keep the load factor at or below one half.
        if 2 * (rows.len() + 1) > self.slots.len() {
            self.grow(rows);
        }
        let mask = self.slots.len() - 1;
        let mut slot = self.home(row);
        loop {
            match self.slots[slot] {
                0 => {
                    self.slots[slot] = u32::try_from(rows.len() + 1).expect("under 2^32 rows");
                    rows.push(row);
                    return true;
                }
                n if rows.row(n as usize - 1) == row => return false,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    fn home(&self, row: &[TermId]) -> usize {
        let mut h = FxHasher::default();
        row.hash(&mut h);
        (h.finish() >> self.shift) as usize
    }

    /// The table's bytes once it holds `n` rows.
    fn bytes_for(n: usize) -> usize {
        std::mem::size_of::<u32>() * (2 * n).next_power_of_two().max(16)
    }

    /// Grows the table to hold one more row than `rows` (doubling it, or
    /// sizing a fresh index over a filled block) and re-seats every row.
    fn grow(&mut self, rows: &Rows) {
        let cap = Self::bytes_for(rows.len() + 1) / std::mem::size_of::<u32>();
        self.slots = vec![0; cap];
        self.shift = 64 - cap.trailing_zeros();
        let mask = cap - 1;
        for (i, row) in rows.iter().enumerate() {
            let mut slot = self.home(row);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = i as u32 + 1;
        }
    }
}

/// The `DISTINCT` set of a one-column block. It starts as a [`RowIndex`]
/// and turns into a bitset over dense `TermId` indexes once the bitset,
/// sized by the largest id seen, takes no more bytes than the index over
/// the same rows would; an id past the bitset's end turns it back when
/// the bitset would outgrow that bound. A point answer so never pays for
/// the bitset, and a large one tests a bit per row instead of hashing it.
#[derive(Default)]
pub(crate) struct IdSet {
    index: RowIndex,
    /// One bit per id below `64 * bits.len()`; empty while `index` is used.
    bits: Vec<u64>,
    /// Words a bitset over every id seen needs.
    words: usize,
}

impl IdSet {
    /// Appends the one-term row `[id]` to `rows` unless it is already
    /// there. Returns whether it was appended.
    ///
    /// # Panics
    /// If `rows` is not one column wide.
    pub(crate) fn insert(&mut self, rows: &mut Rows, id: TermId) -> bool {
        assert_eq!(rows.width(), 1, "row width");
        let i = id.index();
        self.words = self.words.max(i / 64 + 1);
        let limit = RowIndex::bytes_for(rows.len() + 1) / std::mem::size_of::<u64>();
        let use_bits = self.words <= limit;
        if use_bits == self.bits.is_empty() {
            // Switch representations; the block itself is the set's content.
            self.index = RowIndex::default();
            self.bits = Vec::new();
            if use_bits {
                self.bits = vec![0; self.words];
                for row in rows.iter() {
                    let j = row[0].index();
                    self.bits[j / 64] |= 1 << (j % 64);
                }
            }
        }
        if !use_bits {
            return self.index.insert(rows, &[id]);
        }
        if self.words > self.bits.len() {
            let len = self.bits.len();
            self.bits
                .reserve_exact((2 * len).clamp(self.words, limit) - len);
            self.bits.resize(self.words, 0);
        }
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if self.bits[word] & bit != 0 {
            return false;
        }
        self.bits[word] |= bit;
        rows.push(&[id]);
        true
    }
}

/// Number of distinct rows in `rows` (`COUNT(DISTINCT *)`).
pub(crate) fn count_distinct(rows: &Rows) -> usize {
    let mut unique = Rows::new(rows.width());
    let mut index = RowIndex::default();
    for row in rows.iter() {
        index.insert(&mut unique, row);
    }
    unique.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rustc_hash::FxHashSet;

    fn ids(xs: &[u32]) -> Vec<TermId> {
        xs.iter().map(|&x| TermId::from_index(x as usize)).collect()
    }

    #[test]
    fn zero_width_rows_are_counted() {
        let mut rows = Rows::new(0);
        rows.push(&[]);
        rows.push_copies(&[], 2);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.iter().count(), 3);
        assert!(rows.iter().all(|r| r.is_empty()));
        assert_eq!(count_distinct(&rows), 1);
        rows.skip(1);
        assert_eq!(rows.len(), 2);
        rows.truncate(1);
        assert_eq!(rows.len(), 1);
        let mut index = RowIndex::default();
        let mut set = Rows::new(0);
        assert!(index.insert(&mut set, &[]));
        assert!(!index.insert(&mut set, &[]));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn retain_sort_skip_truncate_match_vec_semantics() {
        let vecs: Vec<Vec<TermId>> = (0..50u32).map(|i| ids(&[i % 7, i % 3])).collect();
        let mut rows = Rows::from_rows(2, &vecs);
        let mut want = vecs.clone();
        rows.retain(|r| r[0] != r[1]);
        want.retain(|r| r[0] != r[1]);
        assert_eq!(rows.to_vecs(), want);
        // Stable: equal keys keep their order, exactly like `Vec::sort_by`.
        rows.sort_by(|a, b| a[0].cmp(&b[0]));
        want.sort_by(|a, b| a[0].cmp(&b[0]));
        assert_eq!(rows.to_vecs(), want);
        rows.skip(3);
        want.drain(..3);
        rows.truncate(10);
        want.truncate(10);
        assert_eq!(rows.to_vecs(), want);
        assert_eq!(rows[2], want[2][..]);
    }

    /// The one-column set admits each id once, keeps first-seen order,
    /// and never holds more bytes than a `RowIndex` over the same rows:
    /// it turns into a bitset as the answer grows and back when a far id
    /// would make the bitset the bigger of the two.
    #[test]
    fn id_set_admits_each_id_once_within_the_index_bound() {
        let mut rows = Rows::new(1);
        let mut set = IdSet::default();
        let mut reference: Vec<TermId> = Vec::new();
        let (mut to_bits, mut to_index) = (0, 0);
        let far = 1u32 << 20;
        let inputs = (0..6_000u32)
            .map(|i| (i * 7919) % 3_001)
            .chain([far, 5, far])
            .chain((0..6_000u32).map(|i| far - i % 4_000));
        for i in inputs {
            let id = TermId::from_index(i as usize);
            let fresh = !reference.contains(&id);
            let had_bits = !set.bits.is_empty();
            assert_eq!(set.insert(&mut rows, id), fresh, "id {i}");
            if fresh {
                reference.push(id);
            }
            match (had_bits, set.bits.is_empty()) {
                (false, false) => to_bits += 1,
                (true, true) => to_index += 1,
                _ => {}
            }
            let bound = RowIndex::bytes_for(rows.len() + 1);
            assert!(
                set.bits.capacity() * 8 <= bound,
                "{} words",
                set.bits.capacity()
            );
        }
        assert_eq!(
            rows.to_vecs(),
            reference.iter().map(|&id| vec![id]).collect::<Vec<_>>()
        );
        assert!(
            to_bits >= 2 && to_index >= 1,
            "{to_bits} / {to_index} switches"
        );
    }

    #[test]
    fn index_admits_each_row_once_across_growth() {
        let mut rows = Rows::new(3);
        let mut index = RowIndex::default();
        let mut reference: FxHashSet<Vec<TermId>> = FxHashSet::default();
        for i in 0..5_000u32 {
            let row = ids(&[i % 97, i % 89, i % 3]);
            assert_eq!(index.insert(&mut rows, &row), reference.insert(row));
        }
        assert_eq!(rows.len(), reference.len());
        let got: FxHashSet<Vec<TermId>> = rows.iter().map(<[TermId]>::to_vec).collect();
        assert_eq!(got, reference);
    }
}
