//! Join-result tuples as one flat array of row ids.
//!
//! A join result is a set of index vectors, one row id per query table
//! (paper Section 4.5). All tuples of one query have the same arity, so
//! the transport between a join engine and the post-processor is a single
//! `[RowId]` with `arity` ids per tuple, back to back — the layout the
//! Skinner-C result set already stores. [`TupleView`] borrows such an
//! array; [`TupleBuf`] owns one — a sealed result set's arena, what a
//! parallel join's chunks appended, or a generic-engine intermediate.
//! [`TupleSink`] is where a join loop puts the tuples it completes.

use skinner_storage::RowId;

/// Where a join loop puts each result tuple it completes.
pub trait TupleSink {
    /// Take the tuple `s`; true if it is new, which is when the loop
    /// charges for producing it. A deduplicating set says false for a tuple
    /// it already holds; a sink fed by a join that cannot repeat a tuple
    /// may take every one.
    fn insert(&mut self, s: &[RowId]) -> bool;
}

/// Borrowed join-result tuples: `arity` row ids per tuple, back to back,
/// in table-position order.
#[derive(Debug, Clone, Copy)]
pub struct TupleView<'a> {
    ids: &'a [RowId],
    arity: usize,
}

impl<'a> TupleView<'a> {
    /// View `ids` as tuples of `arity` row ids. Panics unless `arity > 0`
    /// and `ids` holds a whole number of tuples.
    pub fn new(ids: &'a [RowId], arity: usize) -> Self {
        assert!(arity > 0, "a query has at least one table");
        assert!(
            ids.len().is_multiple_of(arity),
            "{} row ids do not form tuples of arity {arity}",
            ids.len()
        );
        TupleView { ids, arity }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.ids.len() / self.arity
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Row ids per tuple.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The tuples in order, each a slice of `arity` row ids.
    pub fn iter(&self) -> std::slice::ChunksExact<'a, RowId> {
        self.ids.chunks_exact(self.arity)
    }

    /// The sub-view of tuples `start..end`.
    pub fn slice(&self, start: usize, end: usize) -> TupleView<'a> {
        TupleView {
            ids: &self.ids[start * self.arity..end * self.arity],
            arity: self.arity,
        }
    }
}

/// Owned flat tuples: push or append tuples as they complete, then
/// [`TupleBuf::view`] them for the next join step or post-processing.
#[derive(Debug)]
pub struct TupleBuf {
    ids: Vec<RowId>,
    arity: usize,
}

impl TupleBuf {
    /// An empty buffer of `arity`-wide tuples.
    pub fn new(arity: usize) -> Self {
        TupleBuf {
            ids: Vec::new(),
            arity,
        }
    }

    /// Take over `ids` as tuples of `arity` row ids (how a Skinner-C result
    /// set hands over its arena).
    pub fn from_flat(ids: Vec<RowId>, arity: usize) -> Self {
        TupleBuf { ids, arity }
    }

    /// Append one tuple.
    pub fn push(&mut self, tuple: &[RowId]) {
        debug_assert_eq!(tuple.len(), self.arity);
        self.ids.extend_from_slice(tuple);
    }

    /// Append all of `other`'s tuples in order, with one copy.
    pub fn append(&mut self, other: &TupleBuf) {
        debug_assert_eq!(other.arity, self.arity);
        self.ids.extend_from_slice(&other.ids);
    }

    /// Free the tuples of an intermediate result. Same as dropping the
    /// buffer, except that it is shrunk in place first. glibc serves a
    /// large buffer from a mapping of its own, and freeing a mapping of up
    /// to 32 MB raises the allocator's mmap threshold, and twice that its
    /// trim threshold, for the rest of the process; every thread's arena
    /// then keeps that much more freed memory resident. Shrunk to one
    /// page first, the mapping is freed without moving either threshold.
    pub fn release(mut self) {
        self.ids.clear();
        self.ids.shrink_to(1);
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.ids.len() / self.arity
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Heap size of the tuples in bytes.
    pub fn byte_size(&self) -> usize {
        self.ids.len() * std::mem::size_of::<RowId>()
    }

    pub fn view(&self) -> TupleView<'_> {
        TupleView::new(&self.ids, self.arity)
    }
}

/// Appends every tuple: for joins that never produce one twice.
impl TupleSink for TupleBuf {
    #[inline]
    fn insert(&mut self, s: &[RowId]) -> bool {
        self.push(s);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_iterates_and_slices_whole_tuples() {
        let ids = [0, 1, 2, 10, 11, 12, 20, 21, 22];
        let v = TupleView::new(&ids, 3);
        assert_eq!(v.len(), 3);
        assert_eq!(v.iter().nth(1), Some(&[10, 11, 12][..]));
        let tail = v.slice(1, 3);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.iter().next(), Some(&[10, 11, 12][..]));
        assert!(v.slice(2, 2).is_empty());
    }

    #[test]
    fn empty_view_has_no_tuples() {
        let v = TupleView::new(&[], 4);
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "do not form tuples")]
    fn ragged_input_is_rejected() {
        TupleView::new(&[1, 2, 3], 2);
    }

    #[test]
    fn buf_collects_single_tuples_and_boxed_batches_in_order() {
        let mut buf = TupleBuf::new(2);
        assert!(buf.view().is_empty());
        buf.push(&[9, 9]);
        buf.push(&[1, 2]);
        buf.push(&[3, 4]);
        let tuples: Vec<&[RowId]> = buf.view().iter().collect();
        assert_eq!(tuples, vec![&[9, 9][..], &[1, 2][..], &[3, 4][..]]);
    }

    #[test]
    fn sink_takes_every_tuple_and_append_concatenates() {
        let mut a = TupleBuf::new(2);
        assert!(a.insert(&[1, 2]));
        assert!(a.insert(&[1, 2]), "no dedup: every tuple is new");
        let mut b = TupleBuf::new(2);
        b.insert(&[3, 4]);
        a.append(&b);
        a.append(&TupleBuf::new(2));
        assert_eq!(a.len(), 3);
        assert_eq!(a.byte_size(), 6 * std::mem::size_of::<RowId>());
        let tuples: Vec<&[RowId]> = a.view().iter().collect();
        assert_eq!(tuples, vec![&[1, 2][..], &[1, 2][..], &[3, 4][..]]);
    }
}
