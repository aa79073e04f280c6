//! Equality join indexes with sorted posting lists in one flat array.
//!
//! The paper's customized engine (Section 4.5) extends the multi-way join to
//! "jump directly to the next highest tuple index that satisfies at least all
//! applicable equality predicates". That jump is exactly
//! [`HashIndex::next_match`]: posting lists are kept sorted, so finding the
//! first row `>= from` with a given key is one directory probe plus — only
//! when the list's first row is already behind `from` — a galloping search.
//! A join level that keeps jumping within one key's window holds a
//! [`PostingCursor`] instead: it probes the directory once, and every later
//! [`PostingCursor::seek`] gallops on from where the previous one stopped.
//!
//! Layout (CSR): a directory maps each canonical `u64` key to a window of a
//! single contiguous postings array. An index is built at most once per
//! [`crate::Table`] column ([`crate::Table::join_index`]) and then lives as
//! long as the table, so the directory has to be small enough to retain.
//! [`HashIndex::build`] picks one of two kinds from the column itself:
//!
//! * **direct-address** — `starts[key - min]..starts[key - min + 1]`, when
//!   the key span is below [`DIRECT_SPAN_PER_ROW`] × rows (ids, foreign keys,
//!   interner codes). Four bytes per address, built by counting sort.
//! * **hash** — open addressing over `(key, start, len)` slots, for sparse
//!   integers and float bit patterns. Sixteen bytes per slot, two to four
//!   slots per distinct key.
//!
//! Either way the build is linear passes (count per key → prefix sum →
//! scatter) with no per-key allocation, and the postings of a key are the
//! same ascending rows: which directory answers is invisible to the join.

use crate::column::Column;
use crate::hash::fold_keys;
use crate::value::float_key;
use crate::RowId;

/// One hash-directory slot: `len == 0` marks it empty (a present key has at
/// least one row).
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    key: u64,
    start: u32,
    len: u32,
}

/// Key → postings window.
#[derive(Debug, Clone)]
enum Directory {
    /// Window of `key` is `starts[k]..starts[k + 1]` with
    /// `k = (key ^ SIGN) - min`; `starts` has one entry per address in the
    /// column's key span plus the closing one.
    Direct { min: u64, starts: Vec<u32> },
    /// Open addressing with [`fold_keys`] and linear probing.
    /// Keys are column *values*, so data crafted to collide degrades a build
    /// towards quadratic; results and work units are unaffected (the
    /// posting order does not depend on the hash).
    Hash {
        /// Power-of-two sized; at most half full.
        slots: Vec<Slot>,
        /// `64 - log2(slots.len())`: the hash keeps its top bits.
        shift: u32,
    },
}

/// Join index over one column: canonical key (`Column::key_at`) → sorted rows.
#[derive(Debug, Clone)]
pub struct HashIndex {
    dir: Directory,
    /// All posting lists back to back, rows ascending within a key.
    postings: Vec<RowId>,
    num_keys: usize,
}

/// A column gets the direct-address directory when `max_key - min_key` is
/// below this many times its row count, i.e. when the directory costs at
/// most 16 bytes a row — what the hash directory costs at its densest.
pub const DIRECT_SPAN_PER_ROW: u64 = 4;

/// Flipping the sign bit maps canonical integer keys (`i64 as u64`) to
/// `u64`s in the integers' own order, so a column of small negative and
/// positive ids has a small span.
const SIGN: u64 = 1 << 63;

const MIN_SLOTS: usize = 8;

/// The engine's one key hash ([`fold_keys`]) of a single key — plain
/// Fibonacci hashing, `key · ⌊2⁶⁴/φ⌋` — keeping its top bits.
#[inline]
fn home(key: u64, shift: u32) -> usize {
    (fold_keys([key]) >> shift) as usize
}

/// The slot holding `key`, or the empty slot where it would go.
#[inline]
fn probe(slots: &[Slot], shift: u32, key: u64) -> usize {
    let mask = slots.len() - 1;
    let mut i = home(key, shift);
    loop {
        let slot = &slots[i];
        if slot.len == 0 || slot.key == key {
            return i;
        }
        i = (i + 1) & mask;
    }
}

impl HashIndex {
    /// Build an index over all rows of `column`.
    pub fn build(column: &Column) -> Self {
        match column {
            Column::Int(v) => Self::from_keys(v.iter().map(|&x| x as u64)),
            Column::Float(v) => Self::from_keys(v.iter().map(|&f| float_key(f))),
            Column::Str(v) => Self::from_keys(v.iter().map(|&c| u64::from(c))),
        }
    }

    /// `keys` yields every row's canonical key, in row order.
    fn from_keys(keys: impl ExactSizeIterator<Item = u64> + Clone) -> Self {
        let n = keys.len();
        assert!(n <= u32::MAX as usize, "row ids are 32-bit");
        let (min, max) = keys.clone().fold((u64::MAX, 0), |(lo, hi), key| {
            let k = key ^ SIGN;
            (lo.min(k), hi.max(k))
        });
        // The span is compared, never incremented or allocated from: a
        // column holding `i64::MIN` and `i64::MAX` has span `u64::MAX`.
        if n == 0 || max - min < DIRECT_SPAN_PER_ROW * n as u64 {
            Self::build_direct(keys, n, min, max)
        } else {
            Self::build_hashed(keys, n)
        }
    }

    /// Counting sort into the direct-address directory.
    fn build_direct(keys: impl Iterator<Item = u64> + Clone, n: usize, min: u64, max: u64) -> Self {
        let width = if n == 0 { 0 } else { (max - min) as usize + 1 };
        // Pass 1: rows per address, kept one entry to the right…
        let mut starts = vec![0u32; width + 1];
        for key in keys.clone() {
            starts[((key ^ SIGN) - min) as usize + 1] += 1;
        }
        // …so the running sum leaves every address's window start in place.
        let mut num_keys = 0;
        let mut total = 0u32;
        for s in &mut starts[1..] {
            num_keys += usize::from(*s != 0);
            total += *s;
            *s = total;
        }
        // Pass 2: scatter rows, using each window start as its write
        // cursor; ascending row order keeps every window sorted.
        let mut postings: Vec<RowId> = vec![0; n];
        for (row, key) in keys.enumerate() {
            let at = &mut starts[((key ^ SIGN) - min) as usize];
            postings[*at as usize] = row as RowId;
            *at += 1;
        }
        // Every cursor now sits at its window's end, which is the next
        // window's start: shift them back by one address.
        starts.copy_within(0..width, 1);
        starts[0] = 0;
        HashIndex {
            dir: Directory::Direct { min, starts },
            postings,
            num_keys,
        }
    }

    fn build_hashed(keys: impl Iterator<Item = u64>, n: usize) -> Self {
        let mut slots = vec![Slot::default(); MIN_SLOTS];
        let mut shift = 64 - MIN_SLOTS.trailing_zeros();
        // Pass 1: give every distinct key a dense id (in order of first
        // appearance), remember each row's id and count rows per id. While
        // building, a slot's `start` holds the key id and `len` is 1.
        let mut id_of_row: Vec<u32> = Vec::with_capacity(n);
        let mut counts: Vec<u32> = Vec::new();
        for key in keys {
            let mut i = probe(&slots, shift, key);
            if slots[i].len == 0 {
                if (counts.len() + 1) * 2 > slots.len() {
                    // Double the directory, re-placing every present key.
                    let doubled = vec![Slot::default(); slots.len() * 2];
                    let old = std::mem::replace(&mut slots, doubled);
                    shift -= 1;
                    for slot in old.into_iter().filter(|s| s.len != 0) {
                        let at = probe(&slots, shift, slot.key);
                        slots[at] = slot;
                    }
                    i = probe(&slots, shift, key);
                }
                slots[i] = Slot {
                    key,
                    start: counts.len() as u32,
                    len: 1,
                };
                counts.push(0);
            }
            let id = slots[i].start;
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
        for slot in slots.iter_mut().filter(|s| s.len != 0) {
            let id = slot.start as usize;
            slot.len = counts[id];
            slot.start = cursor[id] - counts[id];
        }
        HashIndex {
            dir: Directory::Hash { slots, shift },
            postings,
            num_keys: counts.len(),
        }
    }

    /// `(start, len)` of `key`'s postings window; `len == 0` if absent.
    /// Forced inline: it is on the join's probe path, and with `home`
    /// folding through the generic [`fold_keys`] the optimizer otherwise
    /// emits it out of line, a call per probe.
    #[inline(always)]
    fn window(&self, key: u64) -> (usize, usize) {
        match &self.dir {
            Directory::Direct { min, starts } => {
                let k = (key ^ SIGN).wrapping_sub(*min);
                if k < (starts.len() - 1) as u64 {
                    let start = starts[k as usize] as usize;
                    (start, starts[k as usize + 1] as usize - start)
                } else {
                    (0, 0)
                }
            }
            Directory::Hash { slots, shift } => {
                let slot = &slots[probe(slots, *shift, key)];
                (slot.start as usize, slot.len as usize)
            }
        }
    }

    /// All rows whose key equals `key`, ascending. Empty slice if none.
    #[inline]
    pub fn lookup(&self, key: u64) -> &[RowId] {
        let (start, len) = self.window(key);
        &self.postings[start..start + len]
    }

    /// A cursor at the start of `key`'s postings window (an empty window if
    /// the key is absent).
    #[inline]
    pub fn cursor(&self, key: u64) -> PostingCursor {
        let (start, len) = self.window(key);
        // Row ids, and so postings positions, are 32-bit (`from_keys`).
        PostingCursor {
            pos: start as u32,
            end: (start + len) as u32,
        }
    }

    /// Smallest row `>= from` whose key equals `key` — the paper's "jump":
    /// a fresh cursor on `key`'s window, sought once.
    #[inline]
    pub fn next_match(&self, key: u64, from: RowId) -> Option<RowId> {
        self.cursor(key).seek(self, from)
    }

    /// Number of rows with key equal to `key`.
    #[inline]
    pub fn count(&self, key: u64) -> usize {
        self.window(key).1
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.num_keys
    }

    /// Heap size in bytes (Figure 8 memory accounting): the directory plus
    /// the postings array.
    pub fn byte_size(&self) -> usize {
        let dir = match &self.dir {
            Directory::Direct { starts, .. } => starts.len() * std::mem::size_of::<u32>(),
            Directory::Hash { slots, .. } => slots.len() * std::mem::size_of::<Slot>(),
        };
        dir + self.postings.len() * std::mem::size_of::<RowId>()
    }
}

/// A resumable position in one key's postings window, made by
/// [`HashIndex::cursor`] and meaningful only against that index (the
/// default cursor is an empty window). Seeks never move it backwards, so
/// stepping through a window costs the distance stepped, not the distance
/// from the window's start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PostingCursor {
    /// Postings position of the next row that may still be answered.
    pos: u32,
    /// One past the window's last posting.
    end: u32,
}

impl PostingCursor {
    /// Smallest row `>= from` at or after the cursor, which stays on that
    /// row (a repeated seek answers it again); `None` once the window is
    /// used up. Answers equal [`HashIndex::next_match`] on the cursor's key
    /// as long as `from` never decreases; a `from` behind an earlier seek's
    /// answers as that seek did.
    #[inline]
    pub fn seek(&mut self, index: &HashIndex, from: RowId) -> Option<RowId> {
        if self.pos >= self.end {
            return None;
        }
        // A level's first probe starts at its offset, and a resumed one
        // usually lands on the next posting: the first check answers most.
        let first = index.postings[self.pos as usize];
        if first >= from {
            return Some(first);
        }
        let rows = &index.postings[self.pos as usize..self.end as usize];
        let at = gallop(rows, from);
        self.pos += at as u32;
        rows.get(at).copied()
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
    fn cursor_resumes_where_it_stopped() {
        let idx = HashIndex::build(&col());
        let mut c = idx.cursor(7);
        assert_eq!(c.seek(&idx, 0), Some(0));
        assert_eq!(c.seek(&idx, 0), Some(0));
        assert_eq!(c.seek(&idx, 3), Some(5));
        // Never backwards: an earlier `from` answers the last seek's row.
        assert_eq!(c.seek(&idx, 1), Some(5));
        assert_eq!(c.seek(&idx, 6), None);
        assert_eq!(c.seek(&idx, 0), None);
        assert_eq!(idx.cursor(42).seek(&idx, 0), None);
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
        // Far more distinct keys than the initial hash directory holds,
        // with a zero key (the empty slot's key value) among them; the
        // stride spreads them too far apart for direct addressing.
        const STRIDE: i64 = 1 << 20;
        let data: Vec<i64> = (0..5_000).map(|i| (i * 7) % 1_000 * STRIDE).collect();
        let idx = HashIndex::build(&Column::Int(data.clone()));
        assert!(matches!(idx.dir, Directory::Hash { .. }));
        assert_eq!(idx.num_keys(), 1_000);
        for key in (0..1_000).map(|k| k * STRIDE) {
            let expect: Vec<RowId> = (0..data.len() as RowId)
                .filter(|&r| data[r as usize] == key)
                .collect();
            assert_eq!(idx.lookup(key as u64), &expect[..], "key {key}");
            assert_eq!(idx.lookup(key as u64 + 1), &[] as &[RowId]);
        }
    }

    #[test]
    fn negative_ids_are_direct_addressed_in_integer_order() {
        let data = vec![2i64, -3, 0, -3, 2, -1];
        let idx = HashIndex::build(&Column::Int(data));
        let Directory::Direct { min, starts } = &idx.dir else {
            panic!("span 5 over 6 rows must be direct-addressed");
        };
        assert_eq!(*min, (-3i64 as u64) ^ SIGN);
        // Addresses -3..=2, each window starting where the last ended.
        assert_eq!(starts, &[0, 2, 2, 3, 4, 4, 6]);
        assert_eq!(idx.lookup(-3i64 as u64), &[1, 3]);
        assert_eq!(idx.lookup(-2i64 as u64), &[] as &[RowId]);
        assert_eq!(idx.lookup(2), &[0, 4]);
        assert_eq!(idx.lookup(3), &[] as &[RowId]);
        assert_eq!(idx.lookup(-4i64 as u64), &[] as &[RowId]);
        assert_eq!(idx.num_keys(), 4);
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
        // Keys 3..=7 over 6 rows: five addresses plus the closing one
        // (4 bytes each); 6 postings.
        let idx = HashIndex::build(&col());
        assert_eq!(idx.byte_size(), 6 * 4 + 6 * 4);
        // The same rows a million apart: 3 keys fit the 8-slot hash
        // directory (16 bytes a slot).
        let sparse = Column::Int(vec![
            7_000_000, 3_000_000, 7_000_000, 5_000_000, 3_000_000, 7_000_000,
        ]);
        assert_eq!(HashIndex::build(&sparse).byte_size(), 8 * 16 + 6 * 4);
        // An empty column allocates the closing address only.
        assert_eq!(HashIndex::build(&Column::Int(vec![])).byte_size(), 4);
    }
}
