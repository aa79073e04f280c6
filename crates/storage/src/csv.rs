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
//! one line at a time into a reused buffer, checks it is UTF-8 once, and
//! copies the record's text — decoded, if it holds quotes — into a second
//! reused buffer that the fields are slices of, so no path allocates per
//! line or per cell. Memory per path:
//!
//! - [`read_csv`]: the raw input, read whole, plus the table being built.
//! - Bulk load with `schema: None`: the raw input, read whole, plus one
//!   page per column.
//! - Bulk load with an explicit schema: streamed, one record plus one page
//!   per column whatever the file size.
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
//! Numbers parse on an exact fast path (`parse_int`, `parse_float`) that
//! `widen` shares, falling back to `str::parse` outside it.

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

/// Byte-level CSV record scanner: the header, then one record at a time,
/// each decoded into reused buffers.
pub(crate) struct Records<R> {
    src: R,
    /// The line last read, without its line end.
    line: Vec<u8>,
    /// Number of lines read so far (so, of `line`).
    lineno: usize,
    header: Vec<String>,
    /// Line the current record starts on.
    start: usize,
    fields: Fields,
}

impl<R: BufRead> Records<R> {
    /// Start scanning `src` by reading its header record (line 1, even if
    /// blank).
    pub(crate) fn open(src: R) -> Result<Self, CsvError> {
        let mut recs = Records {
            src,
            line: Vec::new(),
            lineno: 0,
            header: Vec::new(),
            start: 0,
            fields: Fields::default(),
        };
        if !recs.scan(false)? {
            return Err(CsvError::Empty);
        }
        recs.header = (0..recs.fields.n)
            .map(|c| recs.field(c).to_string())
            .collect();
        Ok(recs)
    }

    /// The header's fields, untrimmed.
    pub(crate) fn header(&self) -> &[String] {
        &self.header
    }

    /// Field `c` of the current record.
    pub(crate) fn field(&self, c: usize) -> &str {
        let ends = &self.fields.ends[..self.fields.n];
        let start = if c == 0 { 0 } else { ends[c - 1] + 1 };
        &self.fields.text[start..ends[c]]
    }

    /// Advance to the next record, skipping whitespace-only lines; false at
    /// the end of the input. A record whose arity is not the header's is an
    /// error.
    pub(crate) fn next_record(&mut self) -> Result<bool, CsvError> {
        if !self.scan(true)? {
            return Ok(false);
        }
        let found = self.fields.n;
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
    /// right — numbers from their trimmed text, strings verbatim. On a cell
    /// that does not parse, stop and return its column.
    pub(crate) fn push_into(
        &self,
        schema: &Schema,
        sink: &mut impl ColumnSink,
    ) -> Result<(), usize> {
        for (c, f) in schema.fields().iter().enumerate() {
            let raw = self.field(c);
            match f.dtype {
                DataType::Int => sink.push_int(c, parse_int(raw.trim()).ok_or(c)?),
                DataType::Float => sink.push_float(c, parse_float(raw.trim()).ok_or(c)?),
                DataType::Str => sink.push_str(c, raw),
            }
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

    /// Read one line into `line`, dropping its `\n` or `\r\n`; false at the
    /// end of the input.
    fn read_line(&mut self) -> Result<bool, CsvError> {
        self.line.clear();
        if self.src.read_until(b'\n', &mut self.line)? == 0 {
            return Ok(false);
        }
        if self.line.last() == Some(&b'\n') {
            self.line.pop();
            if self.line.last() == Some(&b'\r') {
                self.line.pop();
            }
        }
        self.lineno += 1;
        Ok(true)
    }

    /// Decode the next record into `fields`, reading more lines while a
    /// quote is open; false at the end of the input.
    fn scan(&mut self, skip_blank: bool) -> Result<bool, CsvError> {
        self.fields.clear();
        let mut in_quotes = false;
        loop {
            if !self.read_line()? {
                return match in_quotes {
                    true => Err(CsvError::UnterminatedQuote { line: self.start }),
                    false => Ok(false),
                };
            }
            let line = std::str::from_utf8(&self.line).map_err(|_| invalid_utf8())?;
            if in_quotes {
                self.fields.text.push('\n');
                in_quotes = self.fields.push_quoted(line, true);
            } else if skip_blank && line.trim().is_empty() {
                continue;
            } else {
                self.start = self.lineno;
                if self.fields.push_plain(line) {
                    return Ok(true);
                }
                in_quotes = self.fields.push_quoted(line, false);
            }
            if !in_quotes {
                self.fields.close();
                return Ok(true);
            }
        }
    }
}

/// A record's fields: their text in one buffer, one separator byte
/// between neighbours, and where each one ends.
#[derive(Default)]
struct Fields {
    text: String,
    /// `ends[c]` is where field `c` ends in `text`; field `c + 1` starts
    /// one byte later. Only the first `n` entries belong to the record.
    ends: Vec<usize>,
    n: usize,
}

impl Fields {
    fn clear(&mut self) {
        self.text.clear();
        self.n = 0;
    }

    /// End the field being decoded at the end of `text`.
    fn close(&mut self) {
        if self.n == self.ends.len() {
            self.ends.push(0);
        }
        self.ends[self.n] = self.text.len();
        self.n += 1;
        self.text.push(',');
    }

    /// Take a whole line without quotes as the record: its fields are the
    /// text between its commas, as it is. False, with nothing taken, if
    /// the line holds a quote.
    fn push_plain(&mut self, line: &str) -> bool {
        debug_assert!(
            self.text.is_empty() && self.n == 0,
            "not at a record's start"
        );
        let bytes = line.as_bytes();
        if self.ends.len() <= bytes.len() {
            self.ends.resize(bytes.len() + 1, 0);
        }
        // Branch-free: every position is written, and only a comma's is
        // kept (the next write lands past it).
        let (mut n, mut quoted) = (0, false);
        for (i, &b) in bytes.iter().enumerate() {
            self.ends[n] = i;
            n += usize::from(b == b',');
            quoted |= b == b'"';
        }
        if quoted {
            return false;
        }
        self.ends[n] = bytes.len();
        self.n = n + 1;
        self.text.push_str(line);
        true
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

/// Split an optional leading `-` off `s`.
fn sign(s: &str) -> (bool, &[u8]) {
    match s.as_bytes() {
        [b'-', rest @ ..] => (true, rest),
        b => (false, b),
    }
}

/// `s.parse::<i64>().ok()`, with `-?digits` of at most 18 digits (which
/// cannot overflow) accumulated directly.
pub(crate) fn parse_int(s: &str) -> Option<i64> {
    let (neg, digits) = sign(s);
    if digits.is_empty() || digits.len() > 18 {
        return s.parse().ok();
    }
    let mut v = 0i64;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return s.parse().ok();
        }
        v = v * 10 + i64::from(d);
    }
    Some(if neg { -v } else { v })
}

/// `s.parse::<f64>().ok()`, bit for bit. `-?digits(.digits)?` whose digits
/// read as an integer `m` of at most 2^53, with `k` ≤ 22 of them after the
/// point, is `m / 10^k`: both operands are exact, so the one rounding of
/// the division is the correctly rounded result `str::parse` returns.
pub(crate) fn parse_float(s: &str) -> Option<f64> {
    fast_float(s).or_else(|| s.parse().ok())
}

fn fast_float(s: &str) -> Option<f64> {
    let (neg, b) = sign(s);
    let (int, frac) = match b.iter().position(|&c| c == b'.') {
        Some(p) if p + 1 < b.len() => (&b[..p], &b[p + 1..]),
        Some(_) => return None,
        None => (b, &[][..]),
    };
    if int.is_empty() || frac.len() >= POW10.len() {
        return None;
    }
    let mut m = 0u64;
    for &c in int.iter().chain(frac) {
        let d = c.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        m = m * 10 + u64::from(d);
        if m > EXACT_MANTISSA {
            return None;
        }
    }
    let v = m as f64 / POW10[frac.len()];
    Some(if neg { -v } else { v })
}

/// One step of type inference over Int ⊂ Float ⊂ Str: the narrowest type
/// holding everything `ty` held and `cell`. Judged on the trimmed text, as
/// the typed parse reads it.
pub(crate) fn widen(ty: DataType, cell: &str) -> DataType {
    if ty == DataType::Str {
        return DataType::Str;
    }
    let s = cell.trim();
    if ty == DataType::Int && parse_int(s).is_some() {
        DataType::Int
    } else if parse_float(s).is_some() {
        DataType::Float
    } else {
        DataType::Str
    }
}

/// Scan the first `limit` records of `input`, checking each, and return
/// the header's (trimmed) names with the narrowest type of each column
/// over them. `usize::MAX` infers over the whole input.
pub(crate) fn infer_schema(input: &[u8], limit: usize) -> Result<Schema, CsvError> {
    let mut recs = Records::open(input)?;
    let mut types = vec![DataType::Int; recs.header().len()];
    let mut seen = 0;
    while seen < limit && recs.next_record()? {
        seen += 1;
        for (c, ty) in types.iter_mut().enumerate() {
            *ty = widen(*ty, recs.field(c));
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
    input: &[u8],
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
    std::str::from_utf8(&input).map_err(|_| invalid_utf8())?;
    match schema {
        Some(schema) => Ok(fill_table(name, &input, schema, interner)?.finish()),
        // Each fill interns into its own interner, so a guess that fails
        // leaves `interner` as it was.
        None => fill_inferred(
            &input,
            |e| matches!(e, CsvError::BadCell { .. }),
            |schema| {
                let own = Arc::new(Interner::new());
                Ok(fill_table(name, &input, schema, own)?.finish_into(interner.clone()))
            },
        ),
    }
}

/// Fill a builder from `input` under `schema`. A bad cell is reported once
/// every record has scanned cleanly, and the one in the lowest column wins
/// (its first line within it).
fn fill_table(
    name: &str,
    input: &[u8],
    schema: Schema,
    interner: Arc<Interner>,
) -> Result<TableBuilder, CsvError> {
    let mut recs = Records::open(input)?;
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
