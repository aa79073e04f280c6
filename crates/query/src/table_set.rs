//! Compact sets of query-table positions.
//!
//! Queries join at most 64 tables (the paper's largest benchmark query joins
//! 17), so a `u64` bitset suffices. Table *positions* index into
//! [`crate::query::JoinQuery::tables`], not catalog names.

use std::fmt;

/// Set of table positions within one query, as a 64-bit mask.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct TableSet(u64);

impl TableSet {
    pub const EMPTY: TableSet = TableSet(0);

    /// Set containing the single position `i` (`i < 64`).
    pub fn singleton(i: usize) -> Self {
        debug_assert!(i < 64);
        TableSet(1 << i)
    }

    /// Set containing positions `0..n`.
    pub fn first_n(n: usize) -> Self {
        debug_assert!(n <= 64);
        if n == 64 {
            TableSet(u64::MAX)
        } else {
            TableSet((1u64 << n) - 1)
        }
    }

    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < 64);
        self.0 |= 1 << i;
    }

    pub fn remove(&mut self, i: usize) {
        self.0 &= !(1 << i);
    }

    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        (self.0 >> i) & 1 == 1
    }

    #[inline]
    pub fn is_subset_of(&self, other: &TableSet) -> bool {
        self.0 & other.0 == self.0
    }

    pub fn union(&self, other: &TableSet) -> TableSet {
        TableSet(self.0 | other.0)
    }

    pub fn intersection(&self, other: &TableSet) -> TableSet {
        TableSet(self.0 & other.0)
    }

    pub fn difference(&self, other: &TableSet) -> TableSet {
        TableSet(self.0 & !other.0)
    }

    pub fn with(&self, i: usize) -> TableSet {
        TableSet(self.0 | (1 << i))
    }

    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Positions in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(i)
            }
        })
    }

    /// Raw mask; used as a dense `HashMap` key by the DP optimizer.
    pub fn mask(&self) -> u64 {
        self.0
    }
}

impl fmt::Debug for TableSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, i) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<usize> for TableSet {
    fn from_iter<I: IntoIterator<Item = usize>>(it: I) -> Self {
        let mut s = TableSet::EMPTY;
        for i in it {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_set_ops() {
        let mut s = TableSet::EMPTY;
        assert!(s.is_empty());
        s.insert(3);
        s.insert(10);
        assert!(s.contains(3));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 2);
        s.remove(3);
        assert!(!s.contains(3));
    }

    #[test]
    fn subset_and_union() {
        let a = TableSet::from_iter([1, 2]);
        let b = TableSet::from_iter([1, 2, 5]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert_eq!(a.union(&b), b);
        assert_eq!(a.intersection(&b), a);
        assert_eq!(b.difference(&a), TableSet::singleton(5));
    }

    #[test]
    fn iter_ascending() {
        let s = TableSet::from_iter([9, 0, 4]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 4, 9]);
    }

    #[test]
    fn first_n_edges() {
        assert_eq!(TableSet::first_n(0), TableSet::EMPTY);
        assert_eq!(TableSet::first_n(3).len(), 3);
        assert_eq!(TableSet::first_n(64).len(), 64);
    }

    #[test]
    fn debug_format() {
        let s = TableSet::from_iter([2, 0]);
        assert_eq!(format!("{s:?}"), "{0,2}");
    }
}
