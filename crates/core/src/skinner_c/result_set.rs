//! Deduplicating result set of tuple-index vectors.
//!
//! Different join orders can generate the same result tuple; SkinnerDB
//! stores result *index vectors* in a set, so duplicates are eliminated
//! structurally (paper Section 4.5 and Theorem 5.3: vectors are unique per
//! result tuple, and set semantics keep each one once).
//!
//! All tuples of one query have the same arity, so they live back to back
//! in one arena and the set is an open-addressing table of tuple numbers:
//! an insert hashes the candidate once, compares against the arena, and
//! appends — no per-tuple allocation.

use skinner_exec::{TupleBuf, TupleSink};
use skinner_storage::RowId;

/// Set of result tuples, each a row-id vector in table-position order.
#[derive(Debug, Default)]
pub struct ResultSet {
    /// Row ids of every tuple, `arity` per tuple, in insertion order.
    arena: Vec<RowId>,
    /// Row ids per tuple; fixed by the first insert.
    arity: usize,
    len: usize,
    /// Tuple number + 1 per slot, 0 = empty. Power-of-two sized (or empty
    /// before the first insert) and at most half full.
    slots: Vec<u32>,
}

const MIN_SLOTS: usize = 16;

#[inline]
fn hash(s: &[RowId]) -> u64 {
    // Fx multiplier (≈ 2⁶⁴/π), kept on purpose rather than the engine's key
    // hash (`skinner_storage::hash::fold_keys`): swapping it made
    // `job_served` slower. Open item: arity-1 tuples (single-table
    // statements) are consecutive row ids, which this multiplier packs into
    // about 355 contiguous lanes of the table, so their inserts probe long
    // chains.
    s.iter().fold(0u64, |h, &x| {
        (h.rotate_left(5) ^ x as u64).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

impl ResultSet {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn tuple(&self, number: usize) -> &[RowId] {
        &self.arena[number * self.arity..(number + 1) * self.arity]
    }

    /// Home slot of a hash: its top bits.
    #[inline]
    fn home(&self, h: u64) -> usize {
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    fn grow(&mut self) {
        let n = (self.slots.len() * 2).max(MIN_SLOTS);
        self.slots = vec![0; n];
        let mask = n - 1;
        for number in 0..self.len {
            let mut i = self.home(hash(self.tuple(number)));
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = number as u32 + 1;
        }
    }

    /// Insert the tuple `s`; returns true if it was new.
    #[inline]
    pub fn insert(&mut self, s: &[RowId]) -> bool {
        if self.len == 0 {
            self.arity = s.len();
        }
        debug_assert_eq!(s.len(), self.arity, "tuples of one query share an arity");
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash(s));
        loop {
            match self.slots[i] {
                0 => break,
                e if self.tuple(e as usize - 1) == s => return false,
                _ => i = (i + 1) & mask,
            }
        }
        assert!(self.len < u32::MAX as usize, "result set full");
        self.len += 1;
        self.slots[i] = self.len as u32;
        self.arena.extend_from_slice(s);
        true
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[RowId]> {
        self.arena.chunks_exact(self.arity.max(1))
    }

    /// Hand the tuples over for post-processing: drop the slot table and
    /// give out the arena itself (less its growth slack) — `arity` row ids
    /// per tuple, in insertion order. No tuple is copied.
    pub fn seal(mut self) -> TupleBuf {
        self.arena.shrink_to_fit();
        TupleBuf::from_flat(self.arena, self.arity.max(1))
    }

    /// Approximate heap size in bytes (Figure 8c).
    pub fn byte_size(&self) -> usize {
        self.arena.len() * std::mem::size_of::<RowId>() + self.slots.len() * 4
    }
}

/// Sequential Skinner-C's sink: its restores re-derive tuples that earlier
/// slices already produced, and only new ones count.
impl TupleSink for ResultSet {
    #[inline]
    fn insert(&mut self, s: &[RowId]) -> bool {
        ResultSet::insert(self, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deduplicates() {
        let mut r = ResultSet::new();
        assert!(r.insert(&[1, 2, 3]));
        assert!(!r.insert(&[1, 2, 3]));
        assert!(r.insert(&[1, 2, 4]));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn seal_hands_over_tuples_in_insertion_order() {
        let mut r = ResultSet::new();
        r.insert(&[7, 1]);
        r.insert(&[5, 2]);
        r.insert(&[7, 1]);
        let sealed = r.seal();
        assert_eq!(sealed.view().len(), 2);
        let tuples: Vec<&[RowId]> = sealed.view().iter().collect();
        assert_eq!(tuples, vec![&[7, 1][..], &[5, 2][..]]);
    }

    #[test]
    fn empty_set_drains_to_nothing() {
        let r = ResultSet::new();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.iter().count(), 0);
        assert!(r.seal().view().is_empty());
    }

    #[test]
    fn growth_keeps_every_tuple_and_still_deduplicates() {
        let mut r = ResultSet::new();
        for a in 0..200u32 {
            for b in 0..10u32 {
                assert!(r.insert(&[a, b, a ^ b]));
            }
        }
        assert_eq!(r.len(), 2000);
        for a in 0..200u32 {
            for b in 0..10u32 {
                assert!(!r.insert(&[a, b, a ^ b]), "({a}, {b}) was lost");
            }
        }
        assert_eq!(r.len(), 2000);
        // Insertion order is preserved.
        assert_eq!(r.iter().next(), Some(&[0, 0, 0][..]));
        assert_eq!(r.iter().nth(11), Some(&[1, 1, 0][..]));
    }

    #[test]
    fn byte_size_grows() {
        let mut r = ResultSet::new();
        let a = r.byte_size();
        r.insert(&[1, 2]);
        assert!(r.byte_size() > a);
    }
}
