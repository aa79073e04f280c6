//! Minimal CSV ingestion (dependency-free).
//!
//! Enough to load external data sets into a [`crate::Catalog`]: a header
//! line, comma separation, double-quote escaping (`""` inside quoted
//! fields), optional type inference. Not a general CSV implementation, but
//! a quoted field may hold commas and line breaks: a record continues
//! across a line end while a quote is open, and the break is kept as `\n`.
//! Lines end at `\n` or `\r\n` (a bare `\r` is data); whitespace-only lines
//! between records are skipped, and the first line is always the header.
//!
//! One byte-level record scanner serves every load path — [`read_csv`]
//! and [`crate::disk::bulk_load_csv`], with or without a schema. It reads
//! the input as text checked to be UTF-8 (the whole input at once where
//! the path holds it whole, else each chunk as it is read) and indexes a
//! record without quotes in place: one pass, eight bytes at a time, finds
//! the line's end and every comma, and the fields are slices of the text.
//! A record with a quote is decoded, a line at a time, into a reused
//! buffer. Numbers parse from a cell's bytes in one pass (`fast_int`,
//! `fast_float`), and only a padded cell or one off that exact fast path
//! is trimmed and handed to `str::parse`. No path allocates per line or
//! per cell. Memory per path:
//!
//! - [`read_csv`]: the raw input, read whole, plus the table being built.
//! - Bulk load with `schema: None`: the raw input, read whole, plus one
//!   page per column.
//! - Bulk load with an explicit schema: streamed, one record plus one
//!   read chunk plus one page per column whatever the file size.
//!
//! An inferred schema costs one scan, not two (`fill_inferred`): the
//! types are guessed from the first [`PAGE_ROWS`] records and the fill
//! runs under the guess. The guess is the narrowest type of each column
//! over those records, so if every later cell parses under it, inferring
//! over the whole input gives the same types. Only a cell that does not
//! parse ([`CsvError::BadCell`]) drops the partial fill and reruns full
//! inference and a second fill. Any other failure stands unless the
//! input holds a scan error (a ragged record, an open quote): that
//! outranks every other failure of an inferred load.
//!
//! Type inference (`widen`) judges a cell by the same parse.

use std::fmt;
use std::io::{self, BufRead};
use std::sync::Arc;

use crate::disk::{SegmentWriter, PAGE_ROWS};
use crate::schema::{Field, Schema};
use crate::table::{Table, TableBuilder};
use crate::value::DataType;
use crate::Interner;

/// CSV ingestion errors.
#[derive(Debug)]
pub enum CsvError {
    Io(std::io::Error),
    /// Row has a different arity than the header.
    Ragged {
        line: usize,
        expected: usize,
        found: usize,
    },
    /// A cell failed to parse under the (given or inferred) column type.
    BadCell {
        line: usize,
        column: String,
        value: String,
        expected: DataType,
    },
    /// Input had no header line.
    Empty,
    /// Unterminated quoted field; `line` is where its record starts.
    UnterminatedQuote {
        line: usize,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "csv io error: {e}"),
            CsvError::Ragged {
                line,
                expected,
                found,
            } => {
                write!(f, "line {line}: expected {expected} fields, found {found}")
            }
            CsvError::BadCell {
                line,
                column,
                value,
                expected,
            } => write!(
                f,
                "line {line}, column {column:?}: {value:?} is not a valid {expected}"
            ),
            CsvError::Empty => write!(f, "empty csv input (missing header)"),
            CsvError::UnterminatedQuote { line } => {
                write!(f, "line {line}: unterminated quoted field")
            }
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// The error `BufRead::lines` gives for a line that is not UTF-8.
fn invalid_utf8() -> CsvError {
    CsvError::Io(io::Error::new(
        io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    ))
}

/// Where [`Records::push_into`] puts parsed cells: a [`TableBuilder`] in
/// memory, a [`SegmentWriter`] on disk.
pub(crate) trait ColumnSink {
    fn push_int(&mut self, col: usize, v: i64);
    fn push_float(&mut self, col: usize, v: f64);
    fn push_str(&mut self, col: usize, v: &str);
}

impl ColumnSink for TableBuilder {
    fn push_int(&mut self, col: usize, v: i64) {
        TableBuilder::push_int(self, col, v)
    }
    fn push_float(&mut self, col: usize, v: f64) {
        TableBuilder::push_float(self, col, v)
    }
    fn push_str(&mut self, col: usize, v: &str) {
        TableBuilder::push_str(self, col, v)
    }
}

impl ColumnSink for SegmentWriter {
    fn push_int(&mut self, col: usize, v: i64) {
        SegmentWriter::push_int(self, col, v)
    }
    fn push_float(&mut self, col: usize, v: f64) {
        SegmentWriter::push_float(self, col, v)
    }
    fn push_str(&mut self, col: usize, v: &str) {
        SegmentWriter::push_str(self, col, v)
    }
}

/// Most bytes one refill takes from a stream, so a streamed scan holds
/// about one record plus one chunk whatever the source hands out.
const CHUNK: usize = 64 << 10;

/// An input held whole: its text if it is UTF-8, else its bytes, which
/// are then scanned as a stream so that the first line that is not UTF-8
/// is reported where a streamed load reports it.
#[derive(Clone, Copy)]
pub(crate) enum Whole<'a> {
    Text(&'a str),
    Bytes(&'a [u8]),
}

impl<'a> Whole<'a> {
    pub(crate) fn new(input: &'a [u8]) -> Self {
        match std::str::from_utf8(input) {
            Ok(text) => Whole::Text(text),
            Err(_) => Whole::Bytes(input),
        }
    }
}

/// The text a [`Records`] scans: an input held whole, or a stream read
/// and checked as UTF-8 a chunk at a time.
enum Text<'a> {
    Whole(&'a str),
    Stream {
        src: Box<dyn BufRead + 'a>,
        /// `buf[at..]` is the text read and not yet consumed.
        buf: String,
        at: usize,
        /// Bytes read but not yet text: an unfinished character, or
        /// everything from the first byte that is not UTF-8 on.
        raw: Vec<u8>,
        /// `raw` starts with bytes that are not UTF-8.
        invalid: bool,
    },
}

impl Text<'_> {
    /// The text held and not yet consumed.
    fn get(&self) -> &str {
        match self {
            Text::Whole(text) => text,
            Text::Stream { buf, at, .. } => &buf[*at..],
        }
    }

    /// Drop the first `n` bytes of [`Text::get`].
    fn consume(&mut self, n: usize) {
        match self {
            Text::Whole(text) => *text = &text[n..],
            Text::Stream { at, .. } => *at += n,
        }
    }

    /// Append more text to [`Text::get`]; false, with nothing appended, at
    /// the end of the input. Bytes that are not UTF-8 are an error once
    /// the text before them is used up.
    fn more(&mut self) -> Result<bool, CsvError> {
        let Text::Stream {
            src,
            buf,
            at,
            raw,
            invalid,
        } = self
        else {
            return Ok(false);
        };
        buf.drain(..*at);
        *at = 0;
        loop {
            if *invalid {
                return Err(invalid_utf8());
            }
            let chunk = src.fill_buf()?;
            if chunk.is_empty() {
                return match raw.is_empty() {
                    true => Ok(false),
                    false => Err(invalid_utf8()),
                };
            }
            let n = chunk.len().min(CHUNK);
            raw.extend_from_slice(&chunk[..n]);
            src.consume(n);
            let valid = match std::str::from_utf8(raw) {
                Ok(_) => raw.len(),
                Err(e) => {
                    *invalid = e.error_len().is_some();
                    e.valid_up_to()
                }
            };
            if valid > 0 {
                buf.push_str(std::str::from_utf8(&raw[..valid]).expect("a valid prefix"));
                raw.drain(..valid);
                return Ok(true);
            }
        }
    }
}

/// Byte-level CSV record scanner: the header, then one record at a time.
/// A record without quotes is indexed where it lies in the text; one with
/// quotes is decoded into a reused buffer.
pub(crate) struct Records<'a> {
    text: Text<'a>,
    /// Bytes of the text the current record takes in place, consumed when
    /// the scan moves on.
    held: usize,
    /// Number of lines read so far.
    lineno: usize,
    header: Vec<String>,
    /// Line the current record starts on.
    start: usize,
    fields: Fields,
}

impl<'a> Records<'a> {
    /// Start scanning a stream by reading its header record (line 1, even
    /// if blank).
    pub(crate) fn open(src: impl BufRead + 'a) -> Result<Self, CsvError> {
        Self::start(Text::Stream {
            src: Box::new(src),
            buf: String::new(),
            at: 0,
            raw: Vec::new(),
            invalid: false,
        })
    }

    /// Start scanning an input held whole, in place if it is UTF-8.
    pub(crate) fn whole(input: Whole<'a>) -> Result<Self, CsvError> {
        match input {
            Whole::Text(text) => Self::start(Text::Whole(text)),
            Whole::Bytes(bytes) => Self::open(bytes),
        }
    }

    fn start(text: Text<'a>) -> Result<Self, CsvError> {
        let mut recs = Records {
            text,
            held: 0,
            lineno: 0,
            header: Vec::new(),
            start: 0,
            fields: Fields::default(),
        };
        if !recs.scan(false)? {
            return Err(CsvError::Empty);
        }
        recs.header = recs.cells().map(str::to_string).collect();
        Ok(recs)
    }

    /// The header's fields, untrimmed.
    pub(crate) fn header(&self) -> &[String] {
        &self.header
    }

    /// The text the current record's field ends index.
    fn record(&self) -> &str {
        match self.fields.decoded {
            true => &self.fields.text,
            false => self.text.get(),
        }
    }

    /// The current record's fields, left to right.
    pub(crate) fn cells(&self) -> impl Iterator<Item = &str> {
        let text = self.record();
        let mut start = 0;
        self.fields.ends.iter().map(move |&end| {
            let cell = &text[start..end];
            start = end + 1;
            cell
        })
    }

    /// Field `c` of the current record.
    fn field(&self, c: usize) -> &str {
        self.cells().nth(c).expect("a field of the record")
    }

    /// Advance to the next record, skipping whitespace-only lines; false at
    /// the end of the input. A record whose arity is not the header's is an
    /// error.
    pub(crate) fn next_record(&mut self) -> Result<bool, CsvError> {
        if !self.scan(true)? {
            return Ok(false);
        }
        let found = self.fields.ends.len();
        if found != self.header.len() {
            return Err(CsvError::Ragged {
                line: self.start,
                expected: self.header.len(),
                found,
            });
        }
        Ok(true)
    }

    /// Parse the current record's cells into `sink` under `schema`, left to
    /// right — numbers as their trimmed text parses, strings verbatim. On a
    /// cell that does not parse, stop and return its column.
    pub(crate) fn push_into(
        &self,
        schema: &Schema,
        sink: &mut impl ColumnSink,
    ) -> Result<(), usize> {
        let text = self.record();
        let mut start = 0;
        for (c, (f, &end)) in schema.fields().iter().zip(&self.fields.ends).enumerate() {
            // Numbers parse from the bytes, the text is sliced only for a
            // string or off the fast path.
            let raw = &text.as_bytes()[start..end];
            let cell = || &text[start..end];
            match f.dtype {
                DataType::Int => sink.push_int(c, int_cell(raw, cell).ok_or(c)?),
                DataType::Float => sink.push_float(c, float_cell(raw, cell).ok_or(c)?),
                DataType::Str => sink.push_str(c, cell()),
            }
            start = end + 1;
        }
        Ok(())
    }

    /// The [`CsvError::BadCell`] for column `col` of the current record.
    pub(crate) fn bad_cell(&self, schema: &Schema, col: usize) -> CsvError {
        let f = schema.field(col);
        CsvError::BadCell {
            line: self.start,
            column: f.name.clone(),
            value: self.field(col).to_string(),
            expected: f.dtype,
        }
    }

    /// An explicit `schema` must have the header's arity; a mismatch is a
    /// [`CsvError::Ragged`] on line 1.
    pub(crate) fn check_arity(&self, schema: &Schema) -> Result<(), CsvError> {
        match schema.len() == self.header.len() {
            true => Ok(()),
            false => Err(CsvError::Ragged {
                line: 1,
                expected: schema.len(),
                found: self.header.len(),
            }),
        }
    }

    /// Find the next record; false at the end of the input. A line without
    /// quotes is the record, indexed in place by one pass that finds its
    /// end and its commas; a line with a quote is decoded instead.
    fn scan(&mut self, skip_blank: bool) -> Result<bool, CsvError> {
        self.text.consume(std::mem::take(&mut self.held));
        loop {
            self.fields.clear();
            let mut i = 0;
            let stop = loop {
                match scan_line(self.text.get().as_bytes(), &mut i, &mut self.fields.ends) {
                    Stop::End if self.text.more()? => continue,
                    stop => break stop,
                }
            };
            let text = self.text.get();
            let (len, used) = match stop {
                Stop::Quote => return self.decode().map(|()| true),
                Stop::Newline(k) => (k - usize::from(text[..k].ends_with('\r')), k + 1),
                Stop::End if text.is_empty() => return Ok(false),
                Stop::End => (text.len(), text.len()),
            };
            self.lineno += 1;
            if skip_blank && self.fields.ends.is_empty() && text[..len].trim().is_empty() {
                self.text.consume(used);
                continue;
            }
            self.start = self.lineno;
            self.fields.ends.push(len);
            self.fields.decoded = false;
            self.held = used;
            return Ok(true);
        }
    }

    /// Decode the record starting at a line that holds a quote into
    /// `fields`, a line at a time, reading more lines while a quote is
    /// open.
    fn decode(&mut self) -> Result<(), CsvError> {
        self.fields.clear();
        self.fields.decoded = true;
        let mut in_quotes = false;
        loop {
            let Some((len, used)) = self.line()? else {
                return Err(CsvError::UnterminatedQuote { line: self.start });
            };
            if in_quotes {
                self.fields.text.push('\n');
            } else {
                self.start = self.lineno;
            }
            in_quotes = self.fields.push_quoted(&self.text.get()[..len], in_quotes);
            self.text.consume(used);
            if !in_quotes {
                self.fields.close();
                return Ok(());
            }
        }
    }

    /// Find the next line: its length without its `\n` or `\r\n`, and
    /// with it; `None` at the end of the input.
    fn line(&mut self) -> Result<Option<(usize, usize)>, CsvError> {
        let mut from = 0;
        loop {
            let text = self.text.get();
            if let Some(k) = text[from..].find('\n') {
                let k = from + k;
                self.lineno += 1;
                return Ok(Some((k - usize::from(text[..k].ends_with('\r')), k + 1)));
            }
            from = text.len();
            if !self.text.more()? {
                if from == 0 {
                    return Ok(None);
                }
                self.lineno += 1;
                return Ok(Some((from, from)));
            }
        }
    }
}

/// Where [`scan_line`] stopped.
enum Stop {
    /// At the line's `\n`, at this offset.
    Newline(usize),
    /// At a quote: the line must be decoded.
    Quote,
    /// At the end of the text held.
    End,
}

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// The high bit of every byte of `w` that equals `b`, and no other bit.
fn bytes_equal(w: u64, b: u8) -> u64 {
    let x = w ^ (ONES * u64::from(b));
    !(((x & !HIGHS).wrapping_add(!HIGHS)) | x) & HIGHS
}

/// Scan the line that starts at `bytes[0]` from offset `*i` on, eight
/// bytes at a time, pushing the offset of each comma onto `commas` and
/// stopping at its `\n`, at a quote, or at the end of `bytes`. At the end,
/// `*i` is `bytes.len()`, so the scan resumes where it stopped once more
/// bytes follow.
fn scan_line(bytes: &[u8], i: &mut usize, commas: &mut Vec<usize>) -> Stop {
    let stop = |k: usize| match bytes[k] {
        b'\n' => Stop::Newline(k),
        _ => Stop::Quote,
    };
    while let Some(w) = bytes.get(*i..*i + 8) {
        let w = u64::from_le_bytes(w.try_into().expect("eight bytes"));
        let mut found = bytes_equal(w, b',');
        let stops = bytes_equal(w, b'\n') | bytes_equal(w, b'"');
        if stops != 0 {
            // Only the commas before the first stop belong to the line.
            found &= (1 << stops.trailing_zeros()) - 1;
        }
        while found != 0 {
            commas.push(*i + found.trailing_zeros() as usize / 8);
            found &= found - 1;
        }
        if stops != 0 {
            return stop(*i + stops.trailing_zeros() as usize / 8);
        }
        *i += 8;
    }
    while let Some(&b) = bytes.get(*i) {
        match b {
            b',' => commas.push(*i),
            b'\n' | b'"' => return stop(*i),
            _ => {}
        }
        *i += 1;
    }
    Stop::End
}

/// The current record's fields: where each one ends, and a decoded
/// record's text.
#[derive(Default)]
struct Fields {
    /// A decoded record's fields in one buffer, one separator byte between
    /// neighbours.
    text: String,
    /// Where each field of the record ends — in `text` if `decoded`, else
    /// in the scanned text; field `c + 1` starts one byte after field `c`
    /// ends.
    ends: Vec<usize>,
    decoded: bool,
}

impl Fields {
    fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
    }

    /// End the field being decoded at the end of `text`.
    fn close(&mut self) {
        self.ends.push(self.text.len());
        self.text.push(',');
    }

    /// Decode one line of a record; `in_quotes` continues a quoted field
    /// from the previous line. Returns whether a quote is still open at
    /// the line's end. A field that starts with a quote opens a quoted
    /// section, in which `""` is a literal quote and a lone quote ends the
    /// section; from there to the next comma — or from the field's start,
    /// in a field that does not start with a quote — every byte is data,
    /// quotes included.
    fn push_quoted(&mut self, line: &str, mut in_quotes: bool) -> bool {
        let bytes = line.as_bytes();
        let find =
            |from: usize, b: u8| bytes[from..].iter().position(|&x| x == b).map(|k| from + k);
        let mut i = 0;
        while i < bytes.len() {
            if in_quotes {
                let Some(q) = find(i, b'"') else {
                    self.text.push_str(&line[i..]);
                    return true;
                };
                self.text.push_str(&line[i..q]);
                if bytes.get(q + 1) == Some(&b'"') {
                    self.text.push('"');
                    i = q + 2;
                } else {
                    in_quotes = false;
                    i = q + 1;
                }
            } else if bytes[i] == b',' {
                self.close();
                i += 1;
            } else if bytes[i] == b'"' {
                // Only at a field's start: a quote closing a section is
                // never followed by another, and an unquoted run reaches
                // the comma.
                in_quotes = true;
                i += 1;
            } else {
                let end = find(i, b',').unwrap_or(bytes.len());
                self.text.push_str(&line[i..end]);
                i = end;
            }
        }
        in_quotes
    }
}

/// 2^53: an `f64` holds every integer up to it exactly.
const EXACT_MANTISSA: u64 = 1 << 53;

/// `10^k` for every `k` whose power an `f64` holds exactly.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Split an optional leading `-` off `b`.
fn sign(b: &[u8]) -> (bool, &[u8]) {
    match b {
        [b'-', rest @ ..] => (true, rest),
        b => (false, b),
    }
}

/// `-?digits` of at most 18 digits (which cannot overflow), accumulated
/// in one pass; `None` for anything else.
fn fast_int(b: &[u8]) -> Option<i64> {
    let (neg, digits) = sign(b);
    if digits.is_empty() || digits.len() > 18 {
        return None;
    }
    let mut v = 0i64;
    for &c in digits {
        let d = c.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v * 10 + i64::from(d);
    }
    Some(if neg { -v } else { v })
}

/// `s.parse::<i64>().ok()`, with `-?digits` of at most 18 digits taken on
/// the fast path.
pub(crate) fn parse_int(s: &str) -> Option<i64> {
    fast_int(s.as_bytes()).or_else(|| s.parse().ok())
}

/// `parse_int(cell().trim())`, in one pass over `raw`, the cell's bytes,
/// unless the cell is padded or off the fast path.
fn int_cell<'a>(raw: &[u8], cell: impl FnOnce() -> &'a str) -> Option<i64> {
    fast_int(raw).or_else(|| parse_int(cell().trim()))
}

/// `s.parse::<f64>().ok()`, bit for bit, with the fast path of
/// [`fast_float`].
pub(crate) fn parse_float(s: &str) -> Option<f64> {
    fast_float(s.as_bytes()).or_else(|| s.parse().ok())
}

/// `parse_float(cell().trim())`, in one pass over `raw`, the cell's bytes,
/// unless the cell is padded or off the fast path.
fn float_cell<'a>(raw: &[u8], cell: impl FnOnce() -> &'a str) -> Option<f64> {
    fast_float(raw).or_else(|| parse_float(cell().trim()))
}

/// `-?digits(.digits)?` with at most 19 digits in all, read in one pass as
/// an integer `m` with `k` digits after the point: if `m` ≤ 2^53 the value
/// is `m / 10^k`. Both operands are exact (`k` ≤ 19 < 23), so the one
/// rounding of the division is the correctly rounded result `str::parse`
/// returns. `None` for anything else.
fn fast_float(b: &[u8]) -> Option<f64> {
    let (neg, b) = sign(b);
    let (mut m, mut point, mut digits) = (0u64, None, 0usize);
    for (i, &c) in b.iter().enumerate() {
        let d = c.wrapping_sub(b'0');
        if d <= 9 {
            m = m.wrapping_mul(10).wrapping_add(u64::from(d));
            digits += 1;
        } else if c == b'.' && point.is_none() {
            point = Some(i);
        } else {
            return None;
        }
    }
    let frac = match point {
        // Digits on both sides of the point.
        Some(p) if p > 0 && p + 1 < b.len() => b.len() - p - 1,
        Some(_) => return None,
        None if digits > 0 => 0,
        None => return None,
    };
    if digits > 19 || m > EXACT_MANTISSA {
        return None;
    }
    let v = m as f64 / POW10[frac];
    Some(if neg { -v } else { v })
}

/// One step of type inference over Int ⊂ Float ⊂ Str: the narrowest type
/// holding everything `ty` held and `cell`. Judged on the trimmed text, as
/// the typed parse reads it.
pub(crate) fn widen(ty: DataType, cell: &str) -> DataType {
    if ty == DataType::Str {
        return DataType::Str;
    }
    if ty == DataType::Int && int_cell(cell.as_bytes(), || cell).is_some() {
        DataType::Int
    } else if float_cell(cell.as_bytes(), || cell).is_some() {
        DataType::Float
    } else {
        DataType::Str
    }
}

/// Scan the first `limit` records of `input`, checking each, and return
/// the header's (trimmed) names with the narrowest type of each column
/// over them. `usize::MAX` infers over the whole input.
pub(crate) fn infer_schema(input: Whole<'_>, limit: usize) -> Result<Schema, CsvError> {
    let mut recs = Records::whole(input)?;
    let mut types = vec![DataType::Int; recs.header().len()];
    let mut seen = 0;
    while seen < limit && recs.next_record()? {
        seen += 1;
        for (ty, cell) in types.iter_mut().zip(recs.cells()) {
            *ty = widen(*ty, cell);
        }
    }
    let fields = recs
        .header()
        .iter()
        .zip(types)
        .map(|(name, ty)| Field::new(name.trim(), ty))
        .collect();
    Ok(Schema::new(fields))
}

/// Fill under types inferred from `input`, in one scan unless the guess
/// fails: `fill` runs under the types of the first [`PAGE_ROWS`] records
/// and, if it fails on a bad cell (`is_bad_cell`), again under the types
/// of the whole input. Any other failure stands, unless full inference
/// meets a scan error: that outranks every other failure.
pub(crate) fn fill_inferred<T, E: From<CsvError>>(
    input: Whole<'_>,
    is_bad_cell: impl Fn(&E) -> bool,
    mut fill: impl FnMut(Schema) -> Result<T, E>,
) -> Result<T, E> {
    match fill(infer_schema(input, PAGE_ROWS)?) {
        Err(e) if is_bad_cell(&e) => fill(infer_schema(input, usize::MAX)?),
        Err(e) => {
            infer_schema(input, usize::MAX)?;
            Err(e)
        }
        ok => ok,
    }
}

/// Read a CSV (header required) into a [`Table`].
///
/// With `schema: None`, column types are inferred from the data (narrowest
/// of Int/Float/Str that parses every trimmed cell), guessed from the
/// first [`PAGE_ROWS`] records and inferred over the whole input only if
/// a later cell does not parse under the guess. An inferred load interns
/// nothing into `interner` unless it succeeds, and then hands out the
/// codes a single fill would. The input is read whole either way; invalid
/// UTF-8 anywhere in it is reported before any other error. An explicit
/// schema whose arity is not the header's is a [`CsvError::Ragged`] on
/// line 1.
pub fn read_csv(
    name: &str,
    mut reader: impl BufRead,
    schema: Option<Schema>,
    interner: Arc<Interner>,
) -> Result<Table, CsvError> {
    let mut input = Vec::new();
    reader.read_to_end(&mut input)?;
    let text = std::str::from_utf8(&input).map_err(|_| invalid_utf8())?;
    match schema {
        Some(schema) => Ok(fill_table(name, text, schema, interner)?.finish()),
        // Each fill interns into its own interner, so a guess that fails
        // leaves `interner` as it was.
        None => fill_inferred(
            Whole::Text(text),
            |e| matches!(e, CsvError::BadCell { .. }),
            |schema| {
                let own = Arc::new(Interner::new());
                Ok(fill_table(name, text, schema, own)?.finish_into(interner.clone()))
            },
        ),
    }
}

/// Check that `input` loads under `schema`, keeping nothing: scan every
/// record and parse every cell as [`crate::disk::bulk_load_csv`] would
/// under the same schema. Returns the number of records, or the first
/// error that load reports.
pub fn check_csv(input: &[u8], schema: &Schema) -> Result<u64, CsvError> {
    /// A sink that drops every cell.
    struct Discard;
    impl ColumnSink for Discard {
        fn push_int(&mut self, _: usize, _: i64) {}
        fn push_float(&mut self, _: usize, _: f64) {}
        fn push_str(&mut self, _: usize, _: &str) {}
    }
    let mut recs = Records::whole(Whole::new(input))?;
    recs.check_arity(schema)?;
    let mut rows = 0;
    while recs.next_record()? {
        recs.push_into(schema, &mut Discard)
            .map_err(|c| recs.bad_cell(schema, c))?;
        rows += 1;
    }
    Ok(rows)
}

/// Fill a builder from `input` under `schema`. A bad cell is reported once
/// every record has scanned cleanly, and the one in the lowest column wins
/// (its first line within it).
fn fill_table(
    name: &str,
    input: &str,
    schema: Schema,
    interner: Arc<Interner>,
) -> Result<TableBuilder, CsvError> {
    let mut recs = Records::whole(Whole::Text(input))?;
    recs.check_arity(&schema)?;
    let mut b = TableBuilder::new(name, schema.clone(), interner);
    let mut bad: Option<(usize, CsvError)> = None;
    while recs.next_record()? {
        if let Err(c) = recs.push_into(&schema, &mut b) {
            if bad.as_ref().is_none_or(|(first, _)| c < *first) {
                bad = Some((c, recs.bad_cell(&schema, c)));
            }
        }
    }
    match bad {
        Some((_, e)) => Err(e),
        None => Ok(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn load(csv: &str) -> Result<Table, CsvError> {
        read_csv(
            "t",
            std::io::BufReader::new(csv.as_bytes()),
            None,
            Arc::new(Interner::new()),
        )
    }

    #[test]
    fn inference_picks_narrowest_types() {
        let t = load("id,score,name\n1,2.5,ann\n2,3,bob\n").unwrap();
        assert_eq!(t.schema().field(0).dtype, DataType::Int);
        assert_eq!(t.schema().field(1).dtype, DataType::Float);
        assert_eq!(t.schema().field(2).dtype, DataType::Str);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.value(1, 1), Value::Float(3.0));
    }

    #[test]
    fn quotes_and_escapes() {
        let t = load("a,b\n\"hello, world\",\"she said \"\"hi\"\"\"\n").unwrap();
        assert_eq!(t.value(0, 0).as_str(), Some("hello, world"));
        assert_eq!(t.value(0, 1).as_str(), Some("she said \"hi\""));
    }

    #[test]
    fn quoted_fields_span_lines() {
        let t = load("a,b\n\"x\ny\",1\n\"p\r\n\nq\",2\n").unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.value(0, 0).as_str(), Some("x\ny"));
        assert_eq!(t.value(1, 0).as_str(), Some("p\n\nq"));
        assert_eq!(t.value(1, 1), Value::Int(2));
        // Errors name the line the record starts on.
        assert!(matches!(
            load("a,b\n1,2\n\"x\ny\"\n"),
            Err(CsvError::Ragged { line: 3, .. })
        ));
    }

    #[test]
    fn padded_numbers_infer_the_type_they_parse_as() {
        let t = load("n,x\n 5 ,1.5 \n7, 2\n").unwrap();
        assert_eq!(t.schema().field(0).dtype, DataType::Int);
        assert_eq!(t.schema().field(1).dtype, DataType::Float);
        assert_eq!(t.value(0, 0), Value::Int(5));
        assert_eq!(t.value(1, 1), Value::Float(2.0));
    }

    #[test]
    fn explicit_schema_enforced() {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("v", DataType::Float),
        ]);
        let r = read_csv(
            "t",
            std::io::BufReader::new("id,v\n1,notanumber\n".as_bytes()),
            Some(schema),
            Arc::new(Interner::new()),
        );
        assert!(matches!(r, Err(CsvError::BadCell { line: 2, .. })));
    }

    #[test]
    fn explicit_schema_arity_must_match_the_header() {
        let r = read_csv(
            "t",
            std::io::BufReader::new("a,b,c\n1,2,3\n".as_bytes()),
            Some(Schema::new(vec![Field::new("a", DataType::Int)])),
            Arc::new(Interner::new()),
        );
        assert!(matches!(
            r,
            Err(CsvError::Ragged {
                line: 1,
                expected: 1,
                found: 3
            })
        ));
    }

    /// `PAGE_ROWS` records of an Int column and a Str column, then `tail`.
    fn past_first_page(tail: &str) -> String {
        let mut csv = String::from("n,s\n");
        for i in 0..PAGE_ROWS {
            csv.push_str(&format!("{},s{}\n", i % 7, i % 5));
        }
        csv + tail
    }

    fn strings(interner: &Interner) -> Vec<Arc<str>> {
        (0..interner.len() as u32)
            .map(|c| interner.resolve(c))
            .collect()
    }

    #[test]
    fn a_failed_inferred_load_interns_nothing() {
        let interner = Arc::new(Interner::new());
        interner.intern("kept");
        // The guess fails on `x` and full inference on the ragged record.
        let csv = past_first_page("x,late\n1,2,3\n");
        let r = read_csv("t", csv.as_bytes(), None, interner.clone());
        assert!(matches!(r, Err(CsvError::Ragged { .. })), "{r:?}");
        assert_eq!(strings(&interner), vec![Arc::from("kept")]);
    }

    #[test]
    fn an_inferred_load_hands_out_the_codes_of_a_single_fill() {
        let csv = past_first_page("x,late\n");
        let shared = || {
            let i = Arc::new(Interner::new());
            i.intern("s3");
            i
        };
        let (inferred, explicit) = (shared(), shared());
        let t = read_csv("t", csv.as_bytes(), None, inferred.clone()).unwrap();
        let schema = t.schema().clone();
        assert_eq!(schema.field(0).dtype, DataType::Str);
        let u = read_csv("t", csv.as_bytes(), Some(schema), explicit.clone()).unwrap();
        assert_eq!(strings(&inferred), strings(&explicit));
        assert_eq!(format!("{:?}", t.columns()), format!("{:?}", u.columns()));
    }

    /// SplitMix64.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn assert_parses_like_std(s: &str) {
        assert_eq!(parse_int(s), s.parse::<i64>().ok(), "{s:?} as i64");
        assert_eq!(
            parse_float(s).map(f64::to_bits),
            s.parse::<f64>().ok().map(f64::to_bits),
            "{s:?} as f64"
        );
    }

    #[test]
    fn number_fast_path_is_bit_identical_to_std_parse() {
        let boundary = [
            "-0",
            "-0.0",
            "0",
            "0.0",
            "00012",
            "-00012.50",
            "123456789012345678",
            "-123456789012345678",
            "999999999999999999",
            "1234567890123456789",
            "-1234567890123456789",
            "9223372036854775807",
            "-9223372036854775808",
            "9223372036854775808",
            "9007199254740992",
            "-9007199254740992",
            "9007199254740993",
            "900719925474099.2",
            "900719925474099.3",
            "0.9007199254740993",
            "0.1234567890123456789012",
            "0.12345678901234567890123",
            "1.0000000000000000000001",
            "1.00000000000000000000001",
            "0.0000000000000000000001",
            "0.00000000000000000000001",
            "0000000000000000001.5",
            "00000000000000000001.5",
            "0.1234567890123456789",
            "1234567890123456789.5",
            "35485.200000000004",
            "+1",
            "+1.5",
            "1.",
            ".5",
            "-.5",
            "1e5",
            "1E-7",
            "inf",
            "-infinity",
            "NaN",
            "",
            "-",
            "--1",
            "1.2.3",
            "1_000",
            "0x10",
        ];
        for s in boundary {
            assert_parses_like_std(s);
        }
        let mut state = 0x5EED;
        let mut text = String::new();
        for _ in 0..50_000 {
            let r = mix(&mut state);
            text.clear();
            if r & 1 == 1 {
                text.push('-');
            }
            for _ in 0..1 + (r >> 8) % 19 {
                text.push(char::from(b'0' + (mix(&mut state) % 10) as u8));
            }
            if r & 2 == 2 {
                text.push('.');
                for _ in 0..(r >> 16) % 26 {
                    text.push(char::from(b'0' + (mix(&mut state) % 10) as u8));
                }
            }
            assert_parses_like_std(&text);
        }
    }

    #[test]
    fn ragged_rows_rejected() {
        let r = load("a,b\n1\n");
        assert!(matches!(
            r,
            Err(CsvError::Ragged {
                line: 2,
                expected: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn empty_input_and_blank_lines() {
        assert!(matches!(load(""), Err(CsvError::Empty)));
        let t = load("a\n1\n\n2\n").unwrap();
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn unterminated_quote_rejected() {
        assert!(matches!(
            load("a\n\"oops\n"),
            Err(CsvError::UnterminatedQuote { line: 2 })
        ));
    }

    #[test]
    fn all_string_column_with_numeric_lookalikes() {
        let t = load("code\n007\nabc\n").unwrap();
        // "007" parses as Int but "abc" forces Str for the whole column.
        assert_eq!(t.schema().field(0).dtype, DataType::Str);
        assert_eq!(t.value(0, 0).as_str(), Some("007"));
    }
}
