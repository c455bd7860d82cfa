//! The answer block: every row of a query's answer in one flat
//! `Vec<TermId>`, and the index `DISTINCT` deduplicates it with.
//!
//! The executor routes rows into blocks, the merge phase concatenates
//! them, [`finalize`](crate::finalize) filters, sorts and slices them in
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

    /// Appends every row of `other` (of the same width).
    fn extend_from(&mut self, other: &Rows) {
        assert_eq!(other.width, self.width, "row width");
        self.data.extend_from_slice(&other.data);
        self.len += other.len;
    }

    /// Concatenates blocks of one width, moving the first out whole when
    /// it is the only one.
    pub fn concat(width: usize, mut blocks: Vec<Rows>) -> Rows {
        if blocks.len() == 1 {
            return blocks.pop().expect("one block");
        }
        let mut out = Rows::new(width);
        out.data.reserve(blocks.iter().map(|b| b.data.len()).sum());
        for block in &blocks {
            out.extend_from(block);
        }
        out
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
    /// bits, the well-mixed ones of an Fx hash (its low bits route
    /// shards).
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

    /// Doubles the table and re-seats every row of `rows`.
    fn grow(&mut self, rows: &Rows) {
        let cap = (self.slots.len() * 2).max(16);
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

    #[test]
    fn concat_keeps_block_order() {
        let a = Rows::from_rows(1, [ids(&[1]), ids(&[2])]);
        let b = Rows::from_rows(1, [ids(&[3])]);
        let joined = Rows::concat(1, vec![a.clone(), Rows::new(1), b]);
        assert_eq!(joined.to_vecs(), vec![ids(&[1]), ids(&[2]), ids(&[3])]);
        assert_eq!(Rows::concat(1, vec![a.clone()]), a);
    }
}
