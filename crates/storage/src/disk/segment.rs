//! On-disk segment format: one file per table.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! +-------------+-----------------------------+--------+------------+----------+
//! | "SKSEG02\n" | page payloads (interleaved) | footer | footer_off | checksum |
//! | 8 bytes     |                             |        | u64        | u64      |
//! +-------------+-----------------------------+--------+------------+----------+
//! ```
//!
//! Pages are flushed in row-chunk order — every `page_rows` rows the writer
//! emits one page per column back to back — so bulk loading streams without
//! buffering the table. The footer records the schema, the per-segment
//! string dictionary, and for every column a page directory
//! (`offset, len, rows` per page) plus per-page min/max zone bounds.
//! The checksum covers every byte before it; a torn or truncated write is
//! detected before any page is decoded. The magic names its function:
//!
//! | magic       | checksum                                    | written |
//! |-------------|---------------------------------------------|---------|
//! | `SKSEG02\n` | `WordHash`: a 4-lane hash over 8-byte words | yes     |
//! | `SKSEG01\n` | FNV-1a 64, byte by byte                     | no      |
//!
//! The two versions share every other byte, so a v1 file differs from the
//! v2 file of the same table only in its magic and its checksum.
//! `WordHash` (below) defines the v2 sum, in four lanes of
//! `round(acc, w) = rotl(acc + w·P2, 31)·P1` over little-endian 8-byte
//! words; each of its steps is a bijection of the word or lane it takes,
//! so every single-byte change is caught.
//!
//! Readers map the file (see [`super::mmap`]), verify the checksum, then
//! decode every page into an ordinary in-memory [`Table`]: engines keep
//! their random-access scan code, and the attached [`ZoneMap`] lets the
//! pre-processing scan skip per-page predicate evaluation.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

use crate::codec::{Reader, Writer};
use crate::column::Column;
use crate::disk::mmap::Mmap;
use crate::disk::page;
use crate::disk::zonemap::{ZoneCol, ZoneMap};
use crate::disk::DiskError;
use crate::interner::Interner;
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::{DataType, Value};

/// The magic the writer writes: the checksum is a [`WordHash`].
pub(crate) const MAGIC: &[u8; 8] = b"SKSEG02\n";
/// The first format's magic: the checksum is [`fnv1a64`]. Read, never
/// written.
pub(crate) const MAGIC_V1: &[u8; 8] = b"SKSEG01\n";

/// Default rows per page. Small enough that selective predicates skip real
/// work, large enough that per-page overhead stays negligible.
pub const PAGE_ROWS: usize = 1024;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;

/// Fold word `w` into `acc`. For a fixed `acc` this is a bijection of `w`
/// (`w * P2` with `P2` odd, an add, a rotation, `* P1` with `P1` odd), and
/// for a fixed `w` a bijection of `acc`.
fn round(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Word `i` of `bytes`, little-endian.
fn word(bytes: &[u8], i: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[8 * i..8 * i + 8]);
    u64::from_le_bytes(w)
}

/// The `SKSEG02` checksum: a 64-bit hash of a byte string read as
/// little-endian 8-byte words.
///
/// - Word `4k + j` of every whole 32-byte stripe is folded into lane `j`
///   by [`round`]; the lanes start at distinct constants.
/// - At the end, `h` starts at `len * P3`, takes the four lanes in order
///   by [`round`], then the tail's whole words, then its last 1–7 bytes
///   zero-padded to a word, and is finally mixed by xor-shifts and odd
///   multiplications.
///
/// Every step is a bijection of the one word or lane it takes with the
/// rest held fixed, so two inputs of one length that differ within one
/// aligned 8-byte word — every single-byte change — never hash alike.
/// Hashing in pieces ([`WordHash::update`]) equals hashing in one call.
#[derive(Clone)]
pub(crate) struct WordHash {
    lanes: [u64; 4],
    /// Bytes not yet folded into a lane: fewer than one stripe.
    stripe: [u8; 32],
    held: usize,
    len: u64,
}

impl Default for WordHash {
    fn default() -> Self {
        WordHash {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            stripe: [0; 32],
            held: 0,
            len: 0,
        }
    }
}

impl WordHash {
    pub(crate) fn digest(bytes: &[u8]) -> u64 {
        let mut h = WordHash::default();
        h.update(bytes);
        h.finish()
    }

    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.held > 0 {
            let take = (32 - self.held).min(bytes.len());
            self.stripe[self.held..self.held + take].copy_from_slice(&bytes[..take]);
            self.held += take;
            bytes = &bytes[take..];
            if self.held < 32 {
                return;
            }
            let stripe = self.stripe;
            self.stripes(&stripe);
            self.held = 0;
        }
        let whole = bytes.len() / 32 * 32;
        self.stripes(&bytes[..whole]);
        let rest = &bytes[whole..];
        self.stripe[..rest.len()].copy_from_slice(rest);
        self.held = rest.len();
    }

    /// Fold whole stripes into the lanes.
    fn stripes(&mut self, bytes: &[u8]) {
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for s in bytes.chunks_exact(32) {
            a = round(a, word(s, 0));
            b = round(b, word(s, 1));
            c = round(c, word(s, 2));
            d = round(d, word(s, 3));
        }
        self.lanes = [a, b, c, d];
    }

    pub(crate) fn finish(&self) -> u64 {
        let mut h = self.len.wrapping_mul(P3);
        for lane in self.lanes {
            h = round(h, lane);
        }
        let tail = &self.stripe[..self.held];
        let words = tail.len() / 8;
        for i in 0..words {
            h = round(h, word(tail, i));
        }
        let rest = &tail[8 * words..];
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            h = round(h, u64::from_le_bytes(w));
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
    }
}

fn dtype_from_tag(t: u8) -> Result<DataType, DiskError> {
    match t {
        0 => Ok(DataType::Int),
        1 => Ok(DataType::Float),
        2 => Ok(DataType::Str),
        t => Err(DiskError::Corrupt(format!("unknown dtype tag {t}"))),
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// File sink that maintains the running checksum and byte offset.
struct HashWriter {
    inner: BufWriter<File>,
    hash: WordHash,
    len: u64,
}

impl HashWriter {
    fn put(&mut self, bytes: &[u8]) -> Result<(), DiskError> {
        self.inner.write_all(bytes)?;
        self.hash.update(bytes);
        self.len += bytes.len() as u64;
        Ok(())
    }
}

/// Slots of [`Dict`]'s front cache.
const RECENT: usize = 256;

/// A segment's string dictionary: codes are dense in first-seen order.
struct Dict {
    /// Every string and its code, under the standard library's keyed
    /// hash, so that no input can make its lookups collide on purpose.
    codes: HashMap<String, u32>,
    /// A direct-mapped cache in front of `codes`, its slot picked by a
    /// string's length and first and last bytes: a hit costs one short
    /// comparison instead of a keyed hash. An input that makes strings
    /// share slots only makes the cache miss, and a miss costs what a
    /// lookup cost without it. `u32::MAX` marks an empty slot.
    recent: Vec<(String, u32)>,
}

impl Default for Dict {
    fn default() -> Self {
        Dict {
            codes: HashMap::new(),
            recent: vec![(String::new(), u32::MAX); RECENT],
        }
    }
}

impl Dict {
    fn code(&mut self, s: &str) -> u32 {
        let b = s.as_bytes();
        let (first, last) = match b {
            [] => (0, 0),
            [first, .., last] => (*first, *last),
            [only] => (*only, *only),
        };
        let key = (b.len() as u32).wrapping_mul(0x9E37_79B9)
            ^ u32::from(first).wrapping_mul(0x85EB_CA6B)
            ^ u32::from(last).wrapping_mul(0xC2B2_AE35);
        let slot = &mut self.recent[key as usize >> 24];
        if slot.1 != u32::MAX && slot.0 == s {
            return slot.1;
        }
        let next = self.codes.len() as u32;
        let code = match self.codes.get(s) {
            Some(&c) => c,
            None => {
                self.codes.insert(s.to_string(), next);
                next
            }
        };
        slot.0.clear();
        slot.0.push_str(s);
        slot.1 = code;
        code
    }
}

/// One column's in-flight state while writing.
enum ColBuf {
    Int(Vec<i64>),
    Float(Vec<f64>),
    /// Per-segment dictionary codes.
    Str(Vec<u32>),
}

struct PageEntry {
    offset: u64,
    len: u32,
    rows: u32,
}

/// Streaming segment writer. Push rows; every [`page_rows`] rows one page
/// per column is encoded and written out, so memory stays bounded by the
/// page size (plus the string dictionary).
///
/// [`page_rows`]: SegmentWriter::page_rows
pub struct SegmentWriter {
    out: HashWriter,
    schema: Schema,
    page_rows: usize,
    bufs: Vec<ColBuf>,
    buffered: usize,
    nrows: u64,
    dict: Dict,
    directory: Vec<Vec<PageEntry>>,
    zones: Vec<ZoneCol>,
    scratch: Vec<u8>,
}

impl SegmentWriter {
    /// Start writing a segment at `path` (the caller passes a temp path and
    /// renames after [`SegmentWriter::finish`] for crash safety).
    pub fn create(
        path: &Path,
        schema: Schema,
        page_rows: usize,
    ) -> Result<SegmentWriter, DiskError> {
        assert!(page_rows > 0, "page_rows must be positive");
        let file = File::create(path)?;
        let mut out = HashWriter {
            inner: BufWriter::new(file),
            hash: WordHash::default(),
            len: 0,
        };
        out.put(MAGIC)?;
        let bufs = schema
            .fields()
            .iter()
            .map(|f| match f.dtype {
                DataType::Int => ColBuf::Int(Vec::with_capacity(page_rows)),
                DataType::Float => ColBuf::Float(Vec::with_capacity(page_rows)),
                DataType::Str => ColBuf::Str(Vec::with_capacity(page_rows)),
            })
            .collect::<Vec<_>>();
        let ncols = bufs.len();
        let zones = schema
            .fields()
            .iter()
            .map(|f| match f.dtype {
                DataType::Int => ZoneCol::Int(vec![]),
                DataType::Float => ZoneCol::Float(vec![]),
                DataType::Str => ZoneCol::Str(vec![]),
            })
            .collect();
        Ok(SegmentWriter {
            out,
            schema,
            page_rows,
            bufs,
            buffered: 0,
            nrows: 0,
            dict: Dict::default(),
            directory: (0..ncols).map(|_| vec![]).collect(),
            zones,
            scratch: vec![],
        })
    }

    pub fn page_rows(&self) -> usize {
        self.page_rows
    }

    /// Append one row. Ints widen into float columns, matching
    /// [`crate::TableBuilder::push_row`]. Panics on arity/type mismatch.
    pub fn push_row(&mut self, row: &[Value]) -> Result<(), DiskError> {
        assert_eq!(row.len(), self.bufs.len(), "row arity mismatch");
        for (i, v) in row.iter().enumerate() {
            match (&mut self.bufs[i], v) {
                (ColBuf::Int(b), Value::Int(x)) => b.push(*x),
                (ColBuf::Float(b), Value::Float(x)) => b.push(*x),
                (ColBuf::Float(b), Value::Int(x)) => b.push(*x as f64),
                (ColBuf::Str(_), Value::Str(s)) => {
                    let s = s.clone();
                    let code = self.dict.code(&s);
                    match &mut self.bufs[i] {
                        ColBuf::Str(b) => b.push(code),
                        _ => unreachable!(),
                    }
                }
                (_, v) => panic!(
                    "type mismatch in column {} of segment: got {v:?}",
                    self.schema.field(i).name
                ),
            }
        }
        self.buffered += 1;
        if self.buffered == self.page_rows {
            self.flush_pages()?;
        }
        Ok(())
    }

    /// Typed fast paths for the bulk loader (column-wise within a row; the
    /// caller must fill every column before [`SegmentWriter::end_row`]).
    pub fn push_int(&mut self, col: usize, v: i64) {
        match &mut self.bufs[col] {
            ColBuf::Int(b) => b.push(v),
            ColBuf::Float(b) => b.push(v as f64),
            ColBuf::Str(_) => panic!("push_int on string column"),
        }
    }

    pub fn push_float(&mut self, col: usize, v: f64) {
        match &mut self.bufs[col] {
            ColBuf::Float(b) => b.push(v),
            _ => panic!("push_float on non-float column"),
        }
    }

    pub fn push_str(&mut self, col: usize, v: &str) {
        let code = self.dict.code(v);
        match &mut self.bufs[col] {
            ColBuf::Str(b) => b.push(code),
            _ => panic!("push_str on non-string column"),
        }
    }

    /// Finish the current row after typed pushes; flushes a full page.
    pub fn end_row(&mut self) -> Result<(), DiskError> {
        self.buffered += 1;
        debug_assert!(self.bufs.iter().all(|b| match b {
            ColBuf::Int(v) => v.len(),
            ColBuf::Float(v) => v.len(),
            ColBuf::Str(v) => v.len(),
        } == self.buffered));
        if self.buffered == self.page_rows {
            self.flush_pages()?;
        }
        Ok(())
    }

    fn flush_pages(&mut self) -> Result<(), DiskError> {
        if self.buffered == 0 {
            return Ok(());
        }
        let rows = self.buffered as u32;
        for col in 0..self.bufs.len() {
            // Encode straight from the buffer and clear it: it keeps its
            // capacity for the next page.
            self.scratch.clear();
            match (&mut self.bufs[col], &mut self.zones[col]) {
                (ColBuf::Int(v), ZoneCol::Int(z)) => {
                    z.push(
                        v.iter()
                            .fold((i64::MAX, i64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x))),
                    );
                    page::encode_int(v, &mut self.scratch);
                    v.clear();
                }
                (ColBuf::Float(v), ZoneCol::Float(z)) => {
                    z.push(
                        v.iter()
                            .filter(|x| !x.is_nan())
                            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                                (lo.min(x), hi.max(x))
                            }),
                    );
                    page::encode_float(v, &mut self.scratch);
                    v.clear();
                }
                (ColBuf::Str(v), ZoneCol::Str(z)) => {
                    z.push(
                        v.iter()
                            .fold((u32::MAX, u32::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x))),
                    );
                    page::encode_codes(v, &mut self.scratch);
                    v.clear();
                }
                _ => unreachable!("buffer/zone kind mismatch"),
            }
            self.directory[col].push(PageEntry {
                offset: self.out.len,
                len: self.scratch.len() as u32,
                rows,
            });
            self.out.put(&self.scratch)?;
        }
        self.nrows += self.buffered as u64;
        self.buffered = 0;
        Ok(())
    }

    /// Flush the tail page, write footer + checksum, fsync. The file is
    /// complete and self-validating after this returns.
    pub fn finish(mut self) -> Result<u64, DiskError> {
        self.flush_pages()?;
        let footer_offset = self.out.len;
        // -- footer --
        let mut f = Writer::default();
        f.u64(self.nrows);
        f.count(self.page_rows, usize::MAX, "page_rows");
        f.count(self.schema.len(), usize::MAX, "column");
        for field in self.schema.fields() {
            f.str16(&field.name, u16::MAX as usize);
            f.u8(dtype_tag(field.dtype));
        }
        let mut dict = vec![""; self.dict.codes.len()];
        for (s, &c) in &self.dict.codes {
            dict[c as usize] = s;
        }
        f.count(dict.len(), usize::MAX, "dictionary entry");
        for s in dict {
            f.str(s, usize::MAX);
        }
        for (col, entries) in self.directory.iter().enumerate() {
            f.count(entries.len(), usize::MAX, "page");
            for e in entries {
                f.u64(e.offset);
                f.u32(e.len);
                f.u32(e.rows);
            }
            match &self.zones[col] {
                ZoneCol::Int(z) => {
                    for &(lo, hi) in z {
                        f.i64(lo);
                        f.i64(hi);
                    }
                }
                ZoneCol::Float(z) => {
                    for &(lo, hi) in z {
                        f.f64(lo);
                        f.f64(hi);
                    }
                }
                ZoneCol::Str(z) => {
                    for &(lo, hi) in z {
                        f.u32(lo);
                        f.u32(hi);
                    }
                }
            }
        }
        let f = f.finish()?;
        self.out.put(&f)?;
        self.out.put(&footer_offset.to_le_bytes())?;
        // The checksum covers everything before it, including footer_offset.
        let hash = self.out.hash.finish();
        self.out.inner.write_all(&hash.to_le_bytes())?;
        self.out.inner.flush()?;
        self.out.inner.get_ref().sync_all()?;
        Ok(self.nrows)
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// What a segment open yields: a fully decoded, zone-mapped table plus
/// read statistics.
#[derive(Debug)]
pub struct OpenedSegment {
    pub table: Table,
    /// True when the file bytes came from a live `mmap` (not a buffered read).
    pub mapped: bool,
    /// Total pages decoded across all columns.
    pub pages_decoded: usize,
}

/// Open a segment file and decode it into a `Table` named `table_name`,
/// remapping dictionary strings into the catalog `interner` and attaching
/// the zone map. Any truncation, bit-flip or format violation is a
/// [`DiskError::Corrupt`] — never a panic.
pub fn read_segment(
    path: &Path,
    table_name: &str,
    interner: &Arc<Interner>,
) -> Result<OpenedSegment, DiskError> {
    let mut file = File::open(path)?;
    let map = Mmap::map_readonly(&mut file)?;
    let bytes: &[u8] = &map;
    if bytes.len() < MAGIC.len() + 16 {
        return Err(DiskError::Corrupt(format!(
            "{}: too small ({} bytes)",
            path.display(),
            bytes.len()
        )));
    }
    let checksum = match &bytes[..MAGIC.len()] {
        m if m == MAGIC => WordHash::digest,
        m if m == MAGIC_V1 => fnv1a64,
        _ => return Err(DiskError::Corrupt(format!("{}: bad magic", path.display()))),
    };
    let mut tail = Reader::new(&bytes[bytes.len() - 16..]);
    let (footer_offset, stored_hash) = (tail.u64()?, tail.u64()?);
    if checksum(&bytes[..bytes.len() - 8]) != stored_hash {
        return Err(DiskError::Corrupt(format!(
            "{}: checksum mismatch (torn or truncated write)",
            path.display()
        )));
    }
    let footer_offset = usize::try_from(footer_offset).unwrap_or(usize::MAX);
    if footer_offset < MAGIC.len() || footer_offset > bytes.len() - 16 {
        return Err(DiskError::Corrupt(format!(
            "{}: footer offset out of range",
            path.display()
        )));
    }
    // Counts read from the footer size no allocation past what it can hold:
    // a field takes at least 3 bytes, a dictionary entry 4, a page entry 16.
    let footer = &bytes[footer_offset..bytes.len() - 16];
    let mut cur = Reader::new(footer);
    let nrows = usize::try_from(cur.u64()?)
        .map_err(|_| DiskError::Corrupt("row count exceeds usize".into()))?;
    let page_rows = cur.u32()? as usize;
    if page_rows == 0 {
        return Err(DiskError::Corrupt("page_rows is zero".into()));
    }
    let ncols = cur.u32()? as usize;
    let mut fields = Vec::with_capacity(ncols.min(footer.len() / 3));
    for _ in 0..ncols {
        let name = cur.str16(u16::MAX as usize)?;
        let dtype = dtype_from_tag(cur.u8()?)?;
        fields.push(Field { name, dtype });
    }
    // Per-segment dictionary → catalog interner codes.
    let dict_count = cur.u32()? as usize;
    let mut remap = Vec::with_capacity(dict_count.min(footer.len() / 4));
    for _ in 0..dict_count {
        let len = cur.u32()? as usize;
        let s = std::str::from_utf8(cur.take(len)?)
            .map_err(|_| DiskError::Corrupt("dictionary entry not utf-8".into()))?;
        remap.push(interner.intern(s));
    }
    let expected_pages = nrows.div_ceil(page_rows);
    let mut columns = Vec::with_capacity(ncols);
    let mut zone_cols = Vec::with_capacity(ncols);
    let mut pages_decoded = 0usize;
    for field in &fields {
        let npages = cur.u32()? as usize;
        if npages != expected_pages {
            return Err(DiskError::Corrupt(format!(
                "column {:?}: {npages} pages, expected {expected_pages}",
                field.name
            )));
        }
        let mut entries = Vec::with_capacity(npages.min(footer.len() / 16));
        for _ in 0..npages {
            let offset = cur.u64()? as usize;
            let len = cur.u32()? as usize;
            let rows = cur.u32()? as usize;
            if offset < MAGIC.len() || offset.saturating_add(len) > footer_offset {
                return Err(DiskError::Corrupt(format!(
                    "column {:?}: page extent out of range",
                    field.name
                )));
            }
            entries.push((offset, len, rows));
        }
        let total_rows: usize = entries.iter().map(|e| e.2).sum();
        if total_rows != nrows {
            return Err(DiskError::Corrupt(format!(
                "column {:?}: directory rows {total_rows} != {nrows}",
                field.name
            )));
        }
        let zones = match field.dtype {
            DataType::Int => ZoneCol::Int(
                (0..npages)
                    .map(|_| Ok((cur.i64()?, cur.i64()?)))
                    .collect::<Result<_, DiskError>>()?,
            ),
            DataType::Float => ZoneCol::Float(
                (0..npages)
                    .map(|_| Ok((cur.f64()?, cur.f64()?)))
                    .collect::<Result<_, DiskError>>()?,
            ),
            DataType::Str => ZoneCol::Str(
                (0..npages)
                    .map(|_| Ok((cur.u32()?, cur.u32()?)))
                    .collect::<Result<_, DiskError>>()?,
            ),
        };
        // Decode every page into one contiguous in-memory column.
        let column = match field.dtype {
            DataType::Int => {
                let mut v = Vec::with_capacity(nrows);
                for &(off, len, rows) in &entries {
                    page::decode_int(&bytes[off..off + len], rows, &mut v)?;
                }
                Column::Int(v)
            }
            DataType::Float => {
                let mut v = Vec::with_capacity(nrows);
                for &(off, len, rows) in &entries {
                    page::decode_float(&bytes[off..off + len], rows, &mut v)?;
                }
                Column::Float(v)
            }
            DataType::Str => {
                let mut v = Vec::with_capacity(nrows);
                for &(off, len, rows) in &entries {
                    let from = v.len();
                    page::decode_codes(&bytes[off..off + len], rows, &mut v)?;
                    for code in &mut v[from..] {
                        *code = *remap.get(*code as usize).ok_or_else(|| {
                            DiskError::Corrupt(format!(
                                "column {:?}: dictionary code {code} out of range",
                                field.name
                            ))
                        })?;
                    }
                }
                Column::Str(v)
            }
        };
        pages_decoded += npages;
        columns.push(column);
        zone_cols.push(zones);
    }
    // String zone bounds stored in the file are per-segment codes; after
    // remapping into the catalog interner they are stale, so recompute them
    // over the remapped column. Int/float bounds survive remap-free.
    for (zc, col) in zone_cols.iter_mut().zip(&columns) {
        if let (ZoneCol::Str(z), Column::Str(codes)) = (zc, col) {
            *z = codes
                .chunks(page_rows)
                .map(|pagev| {
                    pagev
                        .iter()
                        .fold((u32::MAX, u32::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)))
                })
                .collect();
        }
    }
    let zones = ZoneMap::from_cols(zone_cols, nrows, page_rows);
    let table = Table::from_columns(table_name, Schema::new(fields), columns, interner.clone())
        .with_zones(Arc::new(zones));
    Ok(OpenedSegment {
        table,
        mapped: map.is_mapped(),
        pages_decoded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("skinner_seg_{}_{name}.seg", std::process::id()))
    }

    fn write_sample(path: &Path, rows: usize, page_rows: usize) {
        let mut w = SegmentWriter::create(
            path,
            schema![("id", Int), ("v", Float), ("tag", Str)],
            page_rows,
        )
        .unwrap();
        for i in 0..rows {
            w.push_row(&[
                Value::Int(i as i64),
                Value::Float(i as f64 * 0.5),
                Value::from(if i % 3 == 0 { "alpha" } else { "beta" }),
            ])
            .unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn roundtrip_with_partial_tail_page() {
        let p = tmp_path("roundtrip");
        write_sample(&p, 10, 4);
        let interner = Arc::new(Interner::new());
        let opened = read_segment(&p, "t", &interner).unwrap();
        let t = &opened.table;
        assert_eq!(t.num_rows(), 10);
        assert_eq!(t.value(7, 0), Value::Int(7));
        assert_eq!(t.value(7, 1), Value::Float(3.5));
        assert_eq!(t.value(9, 2).as_str(), Some("alpha"));
        let zm = t.zones().unwrap();
        assert_eq!(zm.npages(), 3);
        assert_eq!(zm.page_range(2), (8, 10));
        match zm.col(0) {
            ZoneCol::Int(z) => assert_eq!(z, &vec![(0, 3), (4, 7), (8, 9)]),
            _ => panic!(),
        }
        assert_eq!(opened.pages_decoded, 9);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn dictionary_remaps_into_shared_interner() {
        let p = tmp_path("dict");
        write_sample(&p, 6, 4);
        let interner = Arc::new(Interner::new());
        // Pre-intern something so segment codes can't accidentally line up.
        interner.intern("unrelated");
        let opened = read_segment(&p, "t", &interner).unwrap();
        let codes: Vec<u32> = (0..6).map(|r| opened.table.column(2).code_at(r)).collect();
        assert_eq!(interner.lookup("alpha"), Some(codes[0]));
        assert_eq!(interner.lookup("beta"), Some(codes[1]));
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let p = tmp_path("trunc");
        write_sample(&p, 100, 8);
        let full = std::fs::read(&p).unwrap();
        for keep in [full.len() - 1, full.len() / 2, 10, 0] {
            std::fs::write(&p, &full[..keep]).unwrap();
            let interner = Arc::new(Interner::new());
            assert!(
                read_segment(&p, "t", &interner).is_err(),
                "truncation to {keep} bytes not detected"
            );
        }
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn bit_flip_is_detected() {
        let p = tmp_path("flip");
        write_sample(&p, 50, 8);
        let mut bytes = std::fs::read(&p).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&p, &bytes).unwrap();
        let interner = Arc::new(Interner::new());
        match read_segment(&p, "t", &interner) {
            Err(DiskError::Corrupt(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected corruption error, got {other:?}"),
        }
        std::fs::remove_file(p).unwrap();
    }

    /// Every single-byte flip (of the low bit and of the high bit) and
    /// every truncation of a small segment is refused as corrupt.
    #[test]
    fn every_flip_and_truncation_is_refused() {
        let p = tmp_path("every_flip");
        write_sample(&p, 10, 4);
        let full = std::fs::read(&p).unwrap();
        assert_eq!(&full[..8], MAGIC);
        let refused = |bytes: &[u8], what: &str| {
            std::fs::write(&p, bytes).unwrap();
            let interner = Arc::new(Interner::new());
            match read_segment(&p, "t", &interner) {
                Err(DiskError::Corrupt(_)) => {}
                other => panic!("{what}: expected corruption, got {other:?}"),
            }
        };
        for i in 0..full.len() {
            for bit in [0x01, 0x80] {
                let mut bytes = full.clone();
                bytes[i] ^= bit;
                refused(&bytes, &format!("byte {i} ^ {bit:#x}"));
            }
        }
        for keep in 0..full.len() {
            refused(&full[..keep], &format!("truncation to {keep} bytes"));
        }
        std::fs::remove_file(p).unwrap();
    }

    /// Hashing in pieces, split anywhere, equals hashing in one call.
    #[test]
    fn word_hash_is_the_same_in_any_split() {
        let bytes: Vec<u8> = (0..150u32).map(|i| (i * 37 % 251) as u8).collect();
        let whole = WordHash::digest(&bytes);
        for i in 0..=bytes.len() {
            for j in i..=bytes.len() {
                let mut h = WordHash::default();
                h.update(&bytes[..i]);
                h.update(&bytes[i..j]);
                h.update(&bytes[j..]);
                assert_eq!(h.finish(), whole, "split at {i}, {j}");
            }
        }
        let mut h = WordHash::default();
        for b in &bytes {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finish(), whole, "a byte at a time");
        // The length is part of the hash: trailing zero bytes change it.
        assert_ne!(
            WordHash::digest(&bytes[..40]),
            WordHash::digest(&[&bytes[..40], &[0]].concat())
        );
        assert_ne!(WordHash::digest(&[]), WordHash::digest(&[0]));
    }

    /// A `SKSEG01` file — the same bytes under the old magic, checksummed
    /// with FNV-1a — still opens to the same table; a flip in it is still
    /// refused.
    #[test]
    fn v1_segments_still_open() {
        let p = tmp_path("v1");
        write_sample(&p, 10, 4);
        let v2 = read_segment(&p, "t", &Arc::new(Interner::new())).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        let n = bytes.len();
        bytes[..8].copy_from_slice(MAGIC_V1);
        let sum = fnv1a64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        let v1 = read_segment(&p, "t", &Arc::new(Interner::new())).unwrap();
        assert_eq!(v1.pages_decoded, v2.pages_decoded);
        for r in 0..10 {
            assert_eq!(v1.table.row_values(r), v2.table.row_values(r), "row {r}");
        }
        bytes[n / 2] ^= 0x01;
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(
            read_segment(&p, "t", &Arc::new(Interner::new())),
            Err(DiskError::Corrupt(_))
        ));
        std::fs::remove_file(p).unwrap();
    }

    /// A checksummed footer announcing billions of columns, dictionary
    /// entries or pages is refused, not turned into an allocation.
    #[test]
    fn hostile_footer_counts_are_refused_not_allocated() {
        let p = tmp_path("hostile_counts");
        let le = |xs: &[u32]| xs.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
        let one_int_column = [&le(&[1])[..], &1u16.to_le_bytes(), b"x", &[0]].concat();
        // (nrows, footer after nrows and page_rows = 1)
        let cases = [
            (0, le(&[u32::MAX])),
            (0, le(&[0, u32::MAX])),
            (
                u32::MAX as u64,
                [one_int_column, le(&[0, u32::MAX])].concat(),
            ),
        ];
        for (nrows, rest) in cases {
            let mut f = MAGIC.to_vec();
            f.extend_from_slice(&nrows.to_le_bytes());
            f.extend_from_slice(&1u32.to_le_bytes());
            f.extend_from_slice(&rest);
            f.extend_from_slice(&(MAGIC.len() as u64).to_le_bytes());
            let h = WordHash::digest(&f);
            f.extend_from_slice(&h.to_le_bytes());
            std::fs::write(&p, &f).unwrap();
            let interner = Arc::new(Interner::new());
            assert!(
                matches!(read_segment(&p, "t", &interner), Err(DiskError::Corrupt(_))),
                "footer {rest:?}"
            );
        }
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn empty_table_roundtrips() {
        let p = tmp_path("empty");
        let w = SegmentWriter::create(&p, schema![("x", Int)], 4).unwrap();
        w.finish().unwrap();
        let interner = Arc::new(Interner::new());
        let opened = read_segment(&p, "t", &interner).unwrap();
        assert_eq!(opened.table.num_rows(), 0);
        assert_eq!(opened.table.zones().unwrap().npages(), 0);
        std::fs::remove_file(p).unwrap();
    }
}
