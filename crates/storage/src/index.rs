//! Equality hash indexes with sorted posting lists in one flat array.
//!
//! The paper's customized engine (Section 4.5) extends the multi-way join to
//! "jump directly to the next highest tuple index that satisfies at least all
//! applicable equality predicates". That jump is exactly
//! [`HashIndex::next_match`]: posting lists are kept sorted, so finding the
//! first row `>= from` with a given key is one directory probe plus — only
//! when the list's first row is already behind `from` — a galloping search.
//!
//! Layout (CSR): an open-addressing directory maps each canonical `u64` key
//! to a `(start, len)` window of a single contiguous postings array. The
//! index is rebuilt over the filtered tuples of every statement, so the build
//! is two linear passes (count per key → prefix sum → scatter) with no
//! per-key allocation.

use crate::column::Column;
use crate::RowId;

/// One directory slot: `len == 0` marks it empty (a present key has at
/// least one row).
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    key: u64,
    start: u32,
    len: u32,
}

/// Hash index over one column: canonical key (`Column::key_at`) → sorted rows.
///
/// The directory hashes with a fixed multiplicative constant and probes
/// linearly. Keys are column *values*, so data crafted to collide degrades a
/// build towards quadratic; results and work units are unaffected (the
/// posting order does not depend on the hash).
#[derive(Debug, Clone)]
pub struct HashIndex {
    /// Power-of-two sized; at most half full.
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: the hash keeps its top bits.
    shift: u32,
    /// All posting lists back to back, keys in order of first appearance,
    /// rows ascending within a key.
    postings: Vec<RowId>,
    num_keys: usize,
}

const MIN_SLOTS: usize = 8;

impl HashIndex {
    fn with_slots(n: usize) -> Self {
        debug_assert!(n.is_power_of_two() && n >= 2);
        HashIndex {
            slots: vec![Slot::default(); n],
            shift: 64 - n.trailing_zeros(),
            postings: Vec::new(),
            num_keys: 0,
        }
    }

    /// Fibonacci hashing: the canonical key is already well-defined per
    /// value, so one multiply spreads it over the directory.
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The slot holding `key`, or the empty slot where it would go.
    #[inline]
    fn probe(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let slot = &self.slots[i];
            if slot.len == 0 || slot.key == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the directory, re-placing every present key.
    fn grow(&mut self) {
        let old = std::mem::take(&mut self.slots);
        self.slots = vec![Slot::default(); old.len() * 2];
        self.shift -= 1;
        for slot in old.into_iter().filter(|s| s.len != 0) {
            let i = self.probe(slot.key);
            self.slots[i] = slot;
        }
    }

    /// Build an index over all rows of `column`.
    pub fn build(column: &Column) -> Self {
        let n = column.len();
        assert!(n <= u32::MAX as usize, "row ids are 32-bit");
        let mut idx = Self::with_slots(MIN_SLOTS);
        // Pass 1: give every distinct key a dense id (in order of first
        // appearance), remember each row's id and count rows per id. While
        // building, a slot's `start` holds the key id and `len` is 1.
        let mut id_of_row: Vec<u32> = Vec::with_capacity(n);
        let mut counts: Vec<u32> = Vec::new();
        for row in 0..n as RowId {
            let key = column.key_at(row);
            let mut i = idx.probe(key);
            if idx.slots[i].len == 0 {
                if (counts.len() + 1) * 2 > idx.slots.len() {
                    idx.grow();
                    i = idx.probe(key);
                }
                idx.slots[i] = Slot {
                    key,
                    start: counts.len() as u32,
                    len: 1,
                };
                counts.push(0);
            }
            let id = idx.slots[i].start;
            counts[id as usize] += 1;
            id_of_row.push(id);
        }
        // Prefix sum: each key's write cursor starts where its window does.
        let mut cursor: Vec<u32> = Vec::with_capacity(counts.len());
        let mut total = 0u32;
        for &c in &counts {
            cursor.push(total);
            total += c;
        }
        // Pass 2: scatter rows into their windows; ascending row order
        // keeps every window sorted.
        let mut postings: Vec<RowId> = vec![0; n];
        for (row, &id) in id_of_row.iter().enumerate() {
            let at = &mut cursor[id as usize];
            postings[*at as usize] = row as RowId;
            *at += 1;
        }
        // Every cursor now sits at its window's end.
        for slot in idx.slots.iter_mut().filter(|s| s.len != 0) {
            let id = slot.start as usize;
            slot.len = counts[id];
            slot.start = cursor[id] - counts[id];
        }
        idx.postings = postings;
        idx.num_keys = counts.len();
        idx
    }

    /// All rows whose key equals `key`, ascending. Empty slice if none.
    #[inline]
    pub fn lookup(&self, key: u64) -> &[RowId] {
        let slot = &self.slots[self.probe(key)];
        &self.postings[slot.start as usize..(slot.start + slot.len) as usize]
    }

    /// Smallest row `>= from` whose key equals `key` — the paper's "jump".
    #[inline]
    pub fn next_match(&self, key: u64, from: RowId) -> Option<RowId> {
        let rows = self.lookup(key);
        // The common probe starts a level at its offset: the first posting
        // already qualifies.
        match rows.first() {
            None => None,
            Some(&first) if first >= from => Some(first),
            Some(_) => rows.get(gallop(rows, from)).copied(),
        }
    }

    /// Number of rows with key equal to `key`.
    #[inline]
    pub fn count(&self, key: u64) -> usize {
        self.slots[self.probe(key)].len as usize
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.num_keys
    }

    /// Heap size in bytes (Figure 8 memory accounting): the directory plus
    /// the postings array.
    pub fn byte_size(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot>()
            + self.postings.len() * std::mem::size_of::<RowId>()
    }
}

/// Index of the first element `>= from` in sorted `rows`, given
/// `rows[0] < from`: double the stride until it overshoots, then binary
/// search the last stride. Cost is logarithmic in the distance jumped, not
/// in the list length.
#[inline]
fn gallop(rows: &[RowId], from: RowId) -> usize {
    let mut lo = 0usize; // rows[lo] < from
    let mut step = 1usize;
    while lo + step < rows.len() && rows[lo + step] < from {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(rows.len());
    lo + 1 + rows[lo + 1..hi].partition_point(|&r| r < from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col() -> Column {
        Column::Int(vec![7, 3, 7, 5, 3, 7])
    }

    #[test]
    fn lookup_returns_sorted_rows() {
        let idx = HashIndex::build(&col());
        assert_eq!(idx.lookup(7_u64), &[0, 2, 5]);
        assert_eq!(idx.lookup(3), &[1, 4]);
        assert_eq!(idx.lookup(99), &[] as &[RowId]);
    }

    #[test]
    fn next_match_jumps_forward() {
        let idx = HashIndex::build(&col());
        assert_eq!(idx.next_match(7, 0), Some(0));
        assert_eq!(idx.next_match(7, 1), Some(2));
        assert_eq!(idx.next_match(7, 3), Some(5));
        assert_eq!(idx.next_match(7, 6), None);
        assert_eq!(idx.next_match(42, 0), None);
    }

    #[test]
    fn count_and_num_keys() {
        let idx = HashIndex::build(&col());
        assert_eq!(idx.count(7), 3);
        assert_eq!(idx.count(5), 1);
        assert_eq!(idx.count(6), 0);
        assert_eq!(idx.num_keys(), 3);
    }

    #[test]
    fn empty_index_answers_nothing() {
        let idx = HashIndex::build(&Column::Int(vec![]));
        assert_eq!(idx.lookup(0), &[] as &[RowId]);
        assert_eq!(idx.next_match(0, 0), None);
        assert_eq!(idx.count(0), 0);
        assert_eq!(idx.num_keys(), 0);
    }

    #[test]
    fn directory_growth_keeps_every_key() {
        // Far more distinct keys than the initial directory holds, with a
        // zero key (the empty slot's key value) among them.
        let data: Vec<i64> = (0..5_000).map(|i| (i * 7) % 1_000).collect();
        let idx = HashIndex::build(&Column::Int(data.clone()));
        assert_eq!(idx.num_keys(), 1_000);
        for key in 0..1_000u64 {
            let expect: Vec<RowId> = (0..data.len() as RowId)
                .filter(|&r| data[r as usize] as u64 == key)
                .collect();
            assert_eq!(idx.lookup(key), &expect[..], "key {key}");
        }
    }

    #[test]
    fn galloping_finds_every_position_in_a_long_list() {
        // One key on every third row: probe from every row id.
        let data: Vec<i64> = (0..600).map(|i| if i % 3 == 0 { 1 } else { 2 }).collect();
        let idx = HashIndex::build(&Column::Int(data));
        for from in 0..=600u32 {
            let expect = (from..600).find(|r| r % 3 == 0);
            assert_eq!(idx.next_match(1, from), expect, "from {from}");
        }
    }

    #[test]
    fn byte_size_is_directory_plus_postings() {
        let idx = HashIndex::build(&col());
        // 3 keys fit the 8-slot directory (16 bytes a slot); 6 postings.
        assert_eq!(idx.byte_size(), 8 * 16 + 6 * 4);
    }
}
