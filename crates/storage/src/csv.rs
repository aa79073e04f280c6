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
//! - [`read_csv`]: the raw input, read whole (and scanned twice when the
//!   types are inferred), plus the table being built.
//! - Bulk load with `schema: None`: the raw input, read whole and scanned
//!   twice — once to infer the types, once to fill — plus one page per
//!   column.
//! - Bulk load with an explicit schema: streamed, one record plus one page
//!   per column whatever the file size.

use std::fmt;
use std::io::{self, BufRead};
use std::sync::Arc;

use crate::disk::SegmentWriter;
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
                DataType::Int => sink.push_int(c, raw.trim().parse().map_err(|_| c)?),
                DataType::Float => sink.push_float(c, raw.trim().parse().map_err(|_| c)?),
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

/// One step of type inference over Int ⊂ Float ⊂ Str: the narrowest type
/// holding everything `ty` held and `cell`. Judged on the trimmed text, as
/// the typed parse reads it.
pub(crate) fn widen(ty: DataType, cell: &str) -> DataType {
    if ty == DataType::Str {
        return DataType::Str;
    }
    let s = cell.trim();
    if ty == DataType::Int && s.parse::<i64>().is_ok() {
        DataType::Int
    } else if s.parse::<f64>().is_ok() {
        DataType::Float
    } else {
        DataType::Str
    }
}

/// Scan the whole `input` once, checking every record, and return the
/// header's (trimmed) names with the narrowest type of each column.
pub(crate) fn infer_schema(input: &[u8]) -> Result<Schema, CsvError> {
    let mut recs = Records::open(input)?;
    let mut types = vec![DataType::Int; recs.header().len()];
    while recs.next_record()? {
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

/// Read a CSV (header required) into a [`Table`].
///
/// With `schema: None`, column types are inferred from the data (narrowest
/// of Int/Float/Str that parses every trimmed cell). The input is read
/// whole either way; invalid UTF-8 anywhere in it is reported before any
/// other error.
pub fn read_csv(
    name: &str,
    mut reader: impl BufRead,
    schema: Option<Schema>,
    interner: Arc<Interner>,
) -> Result<Table, CsvError> {
    let mut input = Vec::new();
    reader.read_to_end(&mut input)?;
    std::str::from_utf8(&input).map_err(|_| invalid_utf8())?;
    let schema = match schema {
        Some(s) => s,
        None => infer_schema(&input)?,
    };
    let mut recs = Records::open(&input[..])?;
    assert_eq!(
        schema.len(),
        recs.header().len(),
        "schema arity must match the header"
    );
    let mut b = TableBuilder::new(name, schema.clone(), interner);
    // A bad cell is reported once every record has scanned cleanly, and
    // the one in the lowest column wins (its first line within it).
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
        None => Ok(b.finish()),
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
