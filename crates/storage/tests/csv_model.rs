//! Differential test of CSV ingestion: every load path — `read_csv` and
//! `bulk_load_csv`, each with an inferred and an explicit schema — must
//! give exactly what the line-based loader it replaced gives (the oracle,
//! kept below): the same schema, bit-identical values (floats by
//! `to_bits`), the same committed row count, and the same error variant
//! with the same line.
//!
//! The oracle is that loader's code — `BufRead::lines` + `split_record` +
//! `infer_type` + the fill — copied unchanged except for two switchable
//! patches, the two deliberate behaviour changes:
//!
//! - a quoted field may contain a line break (the old loader split the
//!   input into lines first and rejected the record as unterminated);
//! - type inference judges the trimmed cell, as the typed parse does (the
//!   old loader inferred `" 5 "` as a string but loaded it as `5` under an
//!   explicit `Int` schema).
//!
//! Each input is checked against the patched oracle always, and against
//! the unpatched one whenever neither patch changed anything for it.
//!
//! Inputs mix quotes, `""` escapes and stray quotes, commas, `\r\n` and
//! bare `\r`, a last line without a line end, blank and whitespace-only
//! lines (Unicode whitespace included), numeric look-alikes (`007`, `1e3`,
//! `NaN`, `-0`, `i64` overflow, padding), ragged rows and bytes that are
//! not UTF-8. A second family is longer than a page and changes one
//! column's type after it, since the inferred paths guess their types
//! from the first page of records and must infer again when a later cell
//! does not parse under the guess. A third family reads every input
//! through a reader that hands out 1–7 bytes at a time, so that records,
//! line ends and characters straddle the scanner's refills.

use std::cell::Cell as Flag;
use std::io::{self, BufRead, Read};
use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use skinner_storage::csv::CsvError;
use skinner_storage::disk::{DiskError, DiskStore, SegmentWriter, PAGE_ROWS};
use skinner_storage::{
    bulk_load_csv, read_csv, DataType, Field, Interner, Schema, Table, TableBuilder, Value,
};

// ---------------------------------------------------------------------------
// The oracle: the line-based loader, with the two patches behind `Fix`.
// ---------------------------------------------------------------------------

/// Which patches the oracle applies, and whether either changed anything.
struct Fix {
    on: bool,
    joined: Flag<bool>,
    padded: Flag<bool>,
}

impl Fix {
    fn new(on: bool) -> Fix {
        Fix {
            on,
            joined: Flag::new(false),
            padded: Flag::new(false),
        }
    }
}

/// `lines.enumerate()`; patched, a line that ends inside a quoted field is
/// joined to the next one by `\n` until the quote closes.
struct Joined<'a, I: Iterator> {
    lines: std::iter::Enumerate<I>,
    fix: &'a Fix,
}

fn joined<I: Iterator<Item = io::Result<String>>>(lines: I, fix: &Fix) -> Joined<'_, I> {
    Joined {
        lines: lines.enumerate(),
        fix,
    }
}

impl<I: Iterator<Item = io::Result<String>>> Iterator for Joined<'_, I> {
    type Item = (usize, io::Result<String>);

    fn next(&mut self) -> Option<Self::Item> {
        let (i, line) = self.lines.next()?;
        let Ok(mut line) = line else {
            return Some((i, line));
        };
        while self.fix.on
            && matches!(
                split_record(&line, 0),
                Err(CsvError::UnterminatedQuote { .. })
            )
        {
            let Some((_, next)) = self.lines.next() else {
                break;
            };
            self.fix.joined.set(true);
            match next {
                Err(e) => return Some((i, Err(e))),
                Ok(next) => {
                    line.push('\n');
                    line.push_str(&next);
                }
            }
        }
        Some((i, Ok(line)))
    }
}

/// `infer_type`; patched, over the trimmed samples.
fn infer(samples: &[&str], fix: &Fix) -> DataType {
    if !fix.on {
        return infer_type(samples);
    }
    let trimmed: Vec<&str> = samples.iter().map(|s| s.trim()).collect();
    let ty = infer_type(&trimmed);
    if ty != infer_type(samples) {
        fix.padded.set(true);
    }
    ty
}

fn split_record(line: &str, start_line: usize) -> Result<Vec<String>, CsvError> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' if cur.is_empty() => in_quotes = true,
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut cur));
            }
            c => cur.push(c),
        }
    }
    if in_quotes {
        return Err(CsvError::UnterminatedQuote { line: start_line });
    }
    fields.push(cur);
    Ok(fields)
}

fn infer_type(samples: &[&str]) -> DataType {
    let mut ty = DataType::Int;
    for s in samples {
        match ty {
            DataType::Int => {
                if s.parse::<i64>().is_err() {
                    ty = if s.parse::<f64>().is_ok() {
                        DataType::Float
                    } else {
                        DataType::Str
                    };
                }
            }
            DataType::Float => {
                if s.parse::<f64>().is_err() {
                    ty = DataType::Str;
                }
            }
            DataType::Str => return DataType::Str,
        }
    }
    ty
}

fn bad_cell(raw: &str, dt: DataType, line: usize, column: &str) -> CsvError {
    CsvError::BadCell {
        line,
        column: column.to_string(),
        value: raw.to_string(),
        expected: dt,
    }
}

fn oracle_read_csv(
    name: &str,
    reader: impl BufRead,
    schema: Option<Schema>,
    interner: Arc<Interner>,
    fix: &Fix,
) -> Result<Table, CsvError> {
    let mut lines = Vec::new();
    for (i, l) in joined(reader.lines(), fix) {
        lines.push((i, l?));
    }
    let mut it = lines.iter().map(|(i, l)| (*i, l));
    let (_, header_line) = it.next().ok_or(CsvError::Empty)?;
    let header = split_record(header_line, 1)?;
    let ncols = header.len();

    // Collect raw records first (needed for inference anyway).
    let mut records: Vec<(usize, Vec<String>)> = Vec::new();
    for (i, l) in it {
        if l.trim().is_empty() {
            continue;
        }
        let rec = split_record(l, i + 1)?;
        if rec.len() != ncols {
            return Err(CsvError::Ragged {
                line: i + 1,
                expected: ncols,
                found: rec.len(),
            });
        }
        records.push((i + 1, rec));
    }

    let schema = match schema {
        Some(s) => {
            assert_eq!(s.len(), ncols, "schema arity must match the header");
            s
        }
        None => {
            let fields: Vec<Field> = header
                .iter()
                .enumerate()
                .map(|(c, name)| {
                    let samples: Vec<&str> = records.iter().map(|(_, r)| r[c].as_str()).collect();
                    Field::new(name.trim(), infer(&samples, fix))
                })
                .collect();
            Schema::new(fields)
        }
    };

    let mut b = TableBuilder::new(name, schema.clone(), interner);
    for (c, f) in schema.fields().iter().enumerate() {
        match f.dtype {
            DataType::Int => {
                for (line, rec) in &records {
                    let raw = &rec[c];
                    let v = raw
                        .trim()
                        .parse::<i64>()
                        .map_err(|_| bad_cell(raw, f.dtype, *line, &f.name))?;
                    b.push_int(c, v);
                }
            }
            DataType::Float => {
                for (line, rec) in &records {
                    let raw = &rec[c];
                    let v = raw
                        .trim()
                        .parse::<f64>()
                        .map_err(|_| bad_cell(raw, f.dtype, *line, &f.name))?;
                    b.push_float(c, v);
                }
            }
            DataType::Str => {
                for (_, rec) in &records {
                    b.push_str(c, &rec[c]);
                }
            }
        }
    }
    Ok(b.finish())
}

fn disk_bad_cell(raw: &str, dt: DataType, line: usize, column: &str) -> DiskError {
    DiskError::Csv(CsvError::BadCell {
        line,
        column: column.to_string(),
        value: raw.to_string(),
        expected: dt,
    })
}

fn push_cell(
    w: &mut SegmentWriter,
    col: usize,
    raw: &str,
    dt: DataType,
    line: usize,
    column: &str,
) -> Result<(), DiskError> {
    match dt {
        DataType::Int => {
            let v = raw
                .trim()
                .parse::<i64>()
                .map_err(|_| disk_bad_cell(raw, dt, line, column))?;
            w.push_int(col, v);
        }
        DataType::Float => {
            let v = raw
                .trim()
                .parse::<f64>()
                .map_err(|_| disk_bad_cell(raw, dt, line, column))?;
            w.push_float(col, v);
        }
        DataType::Str => w.push_str(col, raw),
    }
    Ok(())
}

fn oracle_bulk_load_csv(
    store: &DiskStore,
    name: &str,
    reader: impl BufRead,
    schema: Option<Schema>,
    page_rows: usize,
    fix: &Fix,
) -> Result<u64, DiskError> {
    let mut lines = joined(reader.lines(), fix);
    let header = match lines.next() {
        Some((_, line)) => split_record(&line?, 1).map_err(DiskError::Csv)?,
        None => return Err(DiskError::Csv(CsvError::Empty)),
    };
    let ncols = header.len();

    match schema {
        Some(schema) => {
            assert_eq!(schema.len(), ncols, "schema arity must match the header");
            // True streaming: each record goes straight to page buffers.
            store.create_table_with(name, schema.clone(), page_rows, move |w| {
                for (i, line) in lines {
                    let line = line?;
                    if line.trim().is_empty() {
                        continue;
                    }
                    let lineno = i + 1;
                    let rec = split_record(&line, lineno).map_err(DiskError::Csv)?;
                    if rec.len() != ncols {
                        return Err(DiskError::Csv(CsvError::Ragged {
                            line: lineno,
                            expected: ncols,
                            found: rec.len(),
                        }));
                    }
                    for (c, raw) in rec.iter().enumerate() {
                        let f = schema.field(c);
                        push_cell(w, c, raw, f.dtype, lineno, &f.name)?;
                    }
                    w.end_row()?;
                }
                Ok(())
            })
        }
        None => {
            // Inference needs every cell once; buffer records, then stream.
            let mut records: Vec<(usize, Vec<String>)> = Vec::new();
            for (i, line) in lines {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                let lineno = i + 1;
                let rec = split_record(&line, lineno).map_err(DiskError::Csv)?;
                if rec.len() != ncols {
                    return Err(DiskError::Csv(CsvError::Ragged {
                        line: lineno,
                        expected: ncols,
                        found: rec.len(),
                    }));
                }
                records.push((lineno, rec));
            }
            let fields: Vec<Field> = header
                .iter()
                .enumerate()
                .map(|(c, name)| {
                    let samples: Vec<&str> = records.iter().map(|(_, r)| r[c].as_str()).collect();
                    Field::new(name.trim(), infer(&samples, fix))
                })
                .collect();
            let schema = Schema::new(fields);
            store.create_table_with(name, schema.clone(), page_rows, move |w| {
                for (lineno, rec) in &records {
                    for (c, raw) in rec.iter().enumerate() {
                        let f = schema.field(c);
                        push_cell(w, c, raw, f.dtype, *lineno, &f.name)?;
                    }
                    w.end_row()?;
                }
                Ok(())
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Outcomes, compared exactly.
// ---------------------------------------------------------------------------

#[derive(Debug, PartialEq)]
enum Cell {
    Int(i64),
    /// `to_bits`, so NaN payloads and `-0.0` compare exactly.
    Float(u64),
    Str(String),
}

/// A loaded table (with the committed row count on disk paths), or the
/// error: its variant and fields, an I/O error by kind and message.
type Outcome = Result<(Vec<(String, DataType)>, Vec<Vec<Cell>>, Option<u64>), String>;

fn snapshot(t: &Table, committed: Option<u64>) -> Outcome {
    let fields = t
        .schema()
        .fields()
        .iter()
        .map(|f| (f.name.clone(), f.dtype))
        .collect();
    let rows = (0..t.num_rows() as u32)
        .map(|r| {
            (0..t.schema().len())
                .map(|c| match t.value(r, c) {
                    Value::Int(v) => Cell::Int(v),
                    Value::Float(v) => Cell::Float(v.to_bits()),
                    Value::Str(s) => Cell::Str(s.to_string()),
                })
                .collect()
        })
        .collect();
    Ok((fields, rows, committed))
}

fn csv_failure(e: &CsvError) -> String {
    match e {
        CsvError::Io(io) => format!("Io({:?}: {io})", io.kind()),
        e => format!("{e:?}"),
    }
}

fn disk_failure(e: &DiskError) -> String {
    match e {
        DiskError::Io(io) => format!("Io({:?}: {io})", io.kind()),
        DiskError::Csv(e) => format!("Csv({})", csv_failure(e)),
        e => format!("{e:?}"),
    }
}

fn memory_outcome(r: Result<Table, CsvError>) -> Outcome {
    r.map_err(|e| csv_failure(&e))
        .and_then(|t| snapshot(&t, None))
}

fn disk_outcome(store: &DiskStore, name: &str, r: Result<u64, DiskError>) -> Outcome {
    let rows = r.map_err(|e| disk_failure(&e))?;
    let t = store
        .load_table(name, &Arc::new(Interner::new()))
        .expect("a committed table opens")
        .table;
    snapshot(&t, Some(rows))
}

/// The four load paths over one input: `read_csv` and `bulk_load_csv`,
/// each inferred and under `schema`.
#[derive(Clone, Copy, Debug)]
enum Path {
    ReadInferred,
    ReadExplicit,
    BulkInferred,
    BulkExplicit,
}

const PATHS: [Path; 4] = [
    Path::ReadInferred,
    Path::ReadExplicit,
    Path::BulkInferred,
    Path::BulkExplicit,
];

struct Case {
    input: Vec<u8>,
    schema: Schema,
    page_rows: usize,
}

impl Case {
    fn schema_for(&self, path: Path) -> Option<Schema> {
        match path {
            Path::ReadExplicit | Path::BulkExplicit => Some(self.schema.clone()),
            Path::ReadInferred | Path::BulkInferred => None,
        }
    }

    fn run(&self, store: &DiskStore, path: Path) -> Outcome {
        self.run_from(store, path, io::BufReader::new(&self.input[..]))
    }

    /// [`Case::run`], reading the input from `reader`.
    fn run_from(&self, store: &DiskStore, path: Path, reader: impl BufRead) -> Outcome {
        let schema = self.schema_for(path);
        match path {
            Path::ReadInferred | Path::ReadExplicit => {
                memory_outcome(read_csv("t", reader, schema, Arc::new(Interner::new())))
            }
            Path::BulkInferred | Path::BulkExplicit => disk_outcome(
                store,
                "scanned",
                bulk_load_csv(store, "scanned", reader, schema, self.page_rows),
            ),
        }
    }

    fn oracle(&self, store: &DiskStore, path: Path, fix: &Fix) -> Outcome {
        let reader = io::BufReader::new(&self.input[..]);
        let schema = self.schema_for(path);
        match path {
            Path::ReadInferred | Path::ReadExplicit => memory_outcome(oracle_read_csv(
                "t",
                reader,
                schema,
                Arc::new(Interner::new()),
                fix,
            )),
            Path::BulkInferred | Path::BulkExplicit => disk_outcome(
                store,
                "oracle",
                oracle_bulk_load_csv(store, "oracle", reader, schema, self.page_rows, fix),
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Generated inputs.
// ---------------------------------------------------------------------------

/// SplitMix64, seeded per case by the proptest runner.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `pct` percent.
    fn chance(&mut self, pct: usize) -> bool {
        self.below(100) < pct
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

const INTS: &[&[u8]] = &[
    b"0",
    b"7",
    b"-0",
    b"007",
    b"+3",
    b"42",
    b"9223372036854775807",
    b"-9223372036854775808",
    b" 5 ",
    b"5 ",
    b"\t12",
    b"\"7\"",
    b"\" 42 \"",
];
const FLOATS: &[&[u8]] = &[
    b"1.5",
    b"-2.25",
    b"1e3",
    b"1E-7",
    b"NaN",
    b"inf",
    b"-infinity",
    b"-0.0",
    b" 1.5",
    b"9223372036854775808",
    b"-9223372036854775809",
    b"3",
];
const STRS: &[&[u8]] = &[
    b"abc",
    b"x y",
    "été".as_bytes(),
    b"\"q,1\"",
    b"\"he said \"\"hi\"\"\"",
    b"\"\"",
    b"",
    b" ",
];
/// Stray quotes, quoted line breaks, bytes that are not UTF-8, Unicode
/// padding and near-numbers.
const WILD: &[&[u8]] = &[
    b"a\"b",
    b"\"a\"b",
    b"\"a\"\"",
    b"\"\"\"\"",
    b"x\"",
    b"\"",
    b"\"two\nlines\"",
    b"\"cr\r\nlf\"",
    b"\"open\n",
    b"\"\n\"",
    b"\xff",
    b"ok\xc3",
    b"1_000",
    b"0x10",
    "\u{3000}5\u{3000}".as_bytes(),
    "\u{a0}2.5".as_bytes(),
];
const BLANKS: &[&[u8]] = &[b"", b"  ", b"\t", b"\r", "\u{3000}".as_bytes()];
const ENDS: &[&[u8]] = &[b"\n", b"\n", b"\n", b"\r\n", b"\r\n", b"\r"];

fn gen_case(g: &mut Gen) -> Case {
    let ncols = 1 + g.below(4);
    let pools: Vec<&[&[u8]]> = (0..ncols).map(|_| g.pick(&[INTS, FLOATS, STRS])).collect();
    let wild = g.pick(&[0, 2, 8]);
    let mut input = Vec::new();
    if !g.chance(3) {
        if g.chance(5) {
            // The header is line 1 even when it is blank.
            input.extend_from_slice(g.pick(BLANKS));
            input.extend_from_slice(g.pick(ENDS));
        }
        for c in 0..ncols {
            if c > 0 {
                input.push(b',');
            }
            match g.below(8) {
                0 => input.extend_from_slice(format!(" c{c} ").as_bytes()),
                1 => input.extend_from_slice(format!("\"c,{c}\"").as_bytes()),
                2 if wild > 0 => input.extend_from_slice(g.pick(WILD)),
                _ => input.extend_from_slice(format!("c{c}").as_bytes()),
            }
        }
        let rows = g.below(9);
        for r in 0..rows {
            input.extend_from_slice(g.pick(ENDS));
            if g.chance(12) {
                input.extend_from_slice(g.pick(BLANKS));
                input.extend_from_slice(g.pick(ENDS));
            }
            let arity = match g.below(20) {
                0 => ncols + 1,
                1 if ncols > 1 => ncols - 1,
                _ => ncols,
            };
            for c in 0..arity {
                if c > 0 {
                    input.push(b',');
                }
                let pool = if g.chance(wild) {
                    WILD
                } else if g.chance(8) {
                    g.pick(&[INTS, FLOATS, STRS])
                } else {
                    pools[c.min(ncols - 1)]
                };
                input.extend_from_slice(g.pick(pool));
            }
            if r + 1 == rows && g.chance(30) {
                // The last line ends without a line end.
                return finish_case(g, input, &pools);
            }
        }
        input.extend_from_slice(g.pick(ENDS));
    }
    finish_case(g, input, &pools)
}

/// An explicit schema for `pools`: mostly the type the pool holds, so that
/// explicit loads succeed often enough to compare values, and bad cells
/// turn up in several columns of one input often enough to tell which one
/// is reported.
fn finish_case(g: &mut Gen, input: Vec<u8>, pools: &[&[&[u8]]]) -> Case {
    let fields = pools
        .iter()
        .enumerate()
        .map(|(c, pool)| {
            let natural = if std::ptr::eq(*pool, INTS) {
                DataType::Int
            } else if std::ptr::eq(*pool, FLOATS) {
                DataType::Float
            } else {
                DataType::Str
            };
            let ty = if g.chance(60) {
                natural
            } else {
                g.pick(&[DataType::Int, DataType::Float, DataType::Str])
            };
            Field::new(format!("c{c}"), ty)
        })
        .collect();
    Case {
        input,
        schema: Schema::new(fields),
        page_rows: 1 + g.below(4),
    }
}

/// A type change after the first page: the column holds `from` values
/// for at least [`PAGE_ROWS`] records, then one `to` value, then either.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Change {
    IntToFloat,
    IntToStr,
    FloatToStr,
}

impl Change {
    /// The column's type over the first page, and over the whole input.
    fn types(self) -> (DataType, DataType) {
        match self {
            Change::IntToFloat => (DataType::Int, DataType::Float),
            Change::IntToStr => (DataType::Int, DataType::Str),
            Change::FloatToStr => (DataType::Float, DataType::Str),
        }
    }
}

/// `PAGE_ROWS + k` records over 1–3 columns, one of which changes type at
/// a record past the first page; an Int→Float column also holds a `-0`.
/// With `ragged`, a record of the wrong arity follows the first cell of
/// the new type, so the inferred paths must report it rather than a bad
/// cell of the guessed type.
fn gen_late_case(g: &mut Gen, change: Change, ragged: bool) -> Case {
    let ncols = 1 + g.below(3);
    let changing = g.below(ncols);
    let (from, to) = match change {
        Change::IntToFloat => (INTS, FLOATS),
        Change::IntToStr => (INTS, STRS),
        Change::FloatToStr => (FLOATS, STRS),
    };
    let pools: Vec<&[&[u8]]> = (0..ncols)
        .map(|c| match c == changing {
            true => to,
            false => g.pick(&[INTS, FLOATS, STRS]),
        })
        .collect();
    let rows = PAGE_ROWS + 2 + g.below(8);
    let at = PAGE_ROWS + g.below(rows - PAGE_ROWS - 1);
    let minus_zero = g.below(rows);
    let end = g.pick(&[&b"\n"[..], b"\r\n"]);
    let mut input: Vec<u8> = (0..ncols)
        .map(|c| format!("c{c}"))
        .collect::<Vec<_>>()
        .join(",")
        .into_bytes();
    for r in 0..rows {
        input.extend_from_slice(end);
        let arity = if ragged && r == at + 1 {
            ncols + 1
        } else {
            ncols
        };
        for c in 0..arity {
            if c > 0 {
                input.push(b',');
            }
            let cell = match c == changing {
                true if change == Change::IntToFloat && r == minus_zero => b"-0",
                true if r == at => match change.types().1 {
                    DataType::Float => g.pick(&[&b"1.5"[..], b"-2.25", b"1e3", b"NaN"]),
                    _ => g.pick(&[&b"abc"[..], b"x y", b"\"q,1\""]),
                },
                true if r < at => g.pick(from),
                true => {
                    let pool = g.pick(&[from, to]);
                    g.pick(pool)
                }
                false => g.pick(pools[c.min(ncols - 1)]),
            };
            input.extend_from_slice(cell);
        }
    }
    input.extend_from_slice(end);
    let mut case = finish_case(g, input, &pools);
    let small = 1 + g.below(4);
    case.page_rows = g.pick(&[PAGE_ROWS, small]);
    case
}

/// The header's arity under the scanner's rules — an explicit schema must
/// match it. `None` when the header does not scan.
fn header_arity(case: &Case) -> Option<usize> {
    let fix = Fix::new(true);
    let mut lines = joined(io::BufReader::new(&case.input[..]).lines(), &fix);
    let (_, line) = lines.next()?;
    split_record(&line.ok()?, 1).ok().map(|h| h.len())
}

fn store(test: &str) -> (PathBuf, Arc<DiskStore>) {
    let dir = std::env::temp_dir().join(format!("skinner_csv_model_{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DiskStore::open(&dir).unwrap();
    (dir, store)
}

/// Fit the explicit schema to the header's arity (the oracle panics on a
/// mismatch, which the loaders report as a ragged header).
fn fit_schema(mut case: Case) -> Case {
    if let Some(n) = header_arity(&case) {
        let mut fields = case.schema.fields().to_vec();
        while fields.len() < n {
            fields.push(Field::new(format!("c{}", fields.len()), DataType::Str));
        }
        fields.truncate(n);
        case.schema = Schema::new(fields);
    }
    case
}

// The nightly workflow (.github/workflows/nightly.yml) runs this block with
// PROPTEST_CASES at ten times `cases`: change both together.
proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn every_load_path_matches_the_line_based_oracle(seed: u64) {
        let (dir, store) = store("paths");
        let case = fit_schema(gen_case(&mut Gen(seed)));
        for path in PATHS {
            let got = case.run(&store, path);
            let fixed = Fix::new(true);
            let want = case.oracle(&store, path, &fixed);
            prop_assert_eq!(
                &got, &want, "{:?} on {:?}", path, String::from_utf8_lossy(&case.input)
            );
            if !fixed.joined.get() && !fixed.padded.get() {
                let old = case.oracle(&store, path, &Fix::new(false));
                prop_assert_eq!(
                    &got, &old, "{:?} on {:?}", path, String::from_utf8_lossy(&case.input)
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

// Each case here is over a thousand records, so the block runs fewer
// cases; `PROPTEST_CASES` overrides this count too (2 560 cases take about
// half a minute in release on a 2-core machine).
proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn type_changes_after_the_first_page_match_the_oracle(seed: u64) {
        let (dir, store) = store("late");
        let mut g = Gen(seed);
        let change = g.pick(&[Change::IntToFloat, Change::IntToStr, Change::FloatToStr]);
        let ragged = g.chance(25);
        let case = fit_schema(gen_late_case(&mut g, change, ragged));
        for path in PATHS {
            let got = case.run(&store, path);
            let want = case.oracle(&store, path, &Fix::new(true));
            prop_assert_eq!(&got, &want, "{:?}, {:?}, ragged {}, seed {}", path, change, ragged, seed);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Every change of the late family changes the inferred type (the first
/// page alone would infer the narrower one), and its ragged record is
/// what the inferred paths report.
#[test]
fn late_family_changes_types_after_the_first_page() {
    let (dir, store) = store("late_coverage");
    for seed in 0..12 {
        for (change, ragged) in [
            (Change::IntToFloat, false),
            (Change::IntToStr, false),
            (Change::FloatToStr, false),
            (Change::IntToStr, true),
        ] {
            let case = gen_late_case(&mut Gen(seed), change, ragged);
            let got = case.oracle(&store, Path::ReadInferred, &Fix::new(true));
            if ragged {
                assert!(matches!(&got, Err(e) if e.contains("Ragged")), "{got:?}");
                continue;
            }
            let fields = got.as_ref().map(|(f, _, _)| f.clone()).unwrap();
            let (narrow, wide) = change.types();
            assert!(
                fields.iter().any(|(_, ty)| *ty == wide),
                "{change:?}: {fields:?}"
            );
            let first_page: Vec<u8> = case
                .input
                .split_inclusive(|&b| b == b'\n')
                .take(PAGE_ROWS + 1)
                .flatten()
                .copied()
                .collect();
            let guess = Case {
                input: first_page,
                ..case
            }
            .oracle(&store, Path::ReadInferred, &Fix::new(true));
            let guessed = guess.map(|(f, _, _)| f).unwrap();
            assert_ne!(
                guessed, fields,
                "{change:?}: the first page infers the same types"
            );
            assert!(
                guessed.iter().any(|(_, ty)| *ty == narrow),
                "{change:?}: {guessed:?}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The property above is only as strong as its inputs: they must reach
/// every outcome, and both patches must really change some outcomes.
#[test]
fn generator_reaches_every_outcome_and_both_divergences() {
    const KINDS: [&str; 5] = ["Io", "Ragged", "BadCell", "UnterminatedQuote", "Empty"];
    let (dir, store) = store("coverage");
    let mut seen = std::collections::BTreeSet::new();
    let (mut joined_diff, mut padded_diff) = (0, 0);
    for seed in 0..600 {
        let case = fit_schema(gen_case(&mut Gen(seed)));
        for path in PATHS {
            let fixed = Fix::new(true);
            let got = case.oracle(&store, path, &fixed);
            let kind = match &got {
                Ok(_) => "ok",
                Err(e) => KINDS.into_iter().find(|k| e.contains(k)).unwrap_or(e),
            };
            seen.insert(format!("{path:?} {kind}"));
            if got != case.oracle(&store, path, &Fix::new(false)) {
                joined_diff += fixed.joined.get() as usize;
                padded_diff += fixed.padded.get() as usize;
            }
        }
    }
    for path in PATHS {
        for kind in ["ok"].into_iter().chain(KINDS) {
            let inferred = matches!(path, Path::ReadInferred | Path::BulkInferred);
            // Inferred types parse every cell, so no bad cell there.
            if !(inferred && kind == "BadCell") {
                let want = format!("{path:?} {kind}");
                assert!(seen.contains(&want), "no {want:?} in {seen:?}");
            }
        }
    }
    assert!(
        joined_diff > 0 && padded_diff > 0,
        "{joined_diff} / {padded_diff}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Records that straddle refills.
// ---------------------------------------------------------------------------

/// A reader that hands out 1–7 bytes per read, the sizes drawn from a
/// seed, so that records, line ends and multi-byte characters straddle
/// the scanner's refills.
struct Trickle<'a> {
    bytes: &'a [u8],
    at: usize,
    /// Bytes of the current read not yet consumed.
    avail: usize,
    sizes: Gen,
}

impl<'a> Trickle<'a> {
    fn new(bytes: &'a [u8], seed: u64) -> Self {
        Trickle {
            bytes,
            at: 0,
            avail: 0,
            sizes: Gen(seed),
        }
    }
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let chunk = self.fill_buf()?;
        let n = chunk.len().min(buf.len());
        buf[..n].copy_from_slice(&chunk[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Trickle<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.avail == 0 {
            self.avail = (1 + self.sizes.below(7)).min(self.bytes.len() - self.at);
        }
        Ok(&self.bytes[self.at..self.at + self.avail])
    }

    fn consume(&mut self, n: usize) {
        self.at += n;
        self.avail -= n;
    }
}

/// Inputs that put each hard spot of the scanner across refills.
const STRADDLERS: &[&[u8]] = &[
    // Quoted fields over several lines, one holding `\r\n` and a blank line.
    b"a,b\n\"x,\ny\",1\n\"p\r\n\nq\",\"2\"\n\"\"\"\",3\n",
    // `\r\n` line ends, blank and whitespace-only lines.
    b"a,b\r\n1,2\r\n\r\n  \r\n3,4\r\n\t\n5,6",
    // Padded numbers.
    b"n,x\n 5 ,1.5 \n7, 2\n\n-0,\t3.25\n",
    // Multi-byte characters, and Unicode whitespace on a blank line.
    "h,i\n\u{3000}\n\u{e9}t\u{e9},1\n\u{1F600},\u{a0}2\n".as_bytes(),
    // A three-byte sequence cut short: not UTF-8 once the next byte arrives.
    b"a,b\n1,ok\xe2\x82x\n2,3\n",
    // A lone continuation byte, and a character cut short by the end.
    b"a,b\n1,2\n3,\x80\n",
    b"a,b\n1,2\n3,\xc3",
    // A ragged record after a quoted one, an open quote at the end.
    b"a,b\n\"q\nr\",1\n2\n",
    b"a\n1\n\"open\n2\n",
    // No line end after the last record, then a bare `\r` at the end.
    b"a,b\n1,2",
    b"a,b\n1,2\r",
];

/// A straddler under an explicit schema of the header's arity, its column
/// types drawn from `g`.
fn straddler_case(g: &mut Gen, input: &[u8]) -> Case {
    let mut case = fit_schema(Case {
        input: input.to_vec(),
        schema: Schema::new(vec![]),
        page_rows: 1 + g.below(4),
    });
    let fields = case
        .schema
        .fields()
        .iter()
        .map(|f| {
            let ty = g.pick(&[DataType::Int, DataType::Float, DataType::Str]);
            Field::new(f.name.clone(), ty)
        })
        .collect();
    case.schema = Schema::new(fields);
    case
}

/// Every straddler, under many read-size sequences and schemas, on every
/// path.
#[test]
fn straddled_refills_match_the_oracle() {
    let (dir, store) = store("straddlers");
    for (i, input) in STRADDLERS.iter().enumerate() {
        for seed in 0..40 {
            let mut g = Gen(seed * 131 + i as u64);
            let case = straddler_case(&mut g, input);
            for path in PATHS {
                let got = case.run_from(&store, path, Trickle::new(&case.input, seed));
                let want = case.oracle(&store, path, &Fix::new(true));
                assert_eq!(
                    got,
                    want,
                    "{path:?}, reads seeded {seed}, on {:?}",
                    String::from_utf8_lossy(&case.input)
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// The nightly workflow runs this block with PROPTEST_CASES as well.
proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn every_load_path_matches_the_oracle_through_a_trickle(seed: u64) {
        let (dir, store) = store("trickle");
        let case = fit_schema(gen_case(&mut Gen(seed)));
        for path in PATHS {
            let got = case.run_from(&store, path, Trickle::new(&case.input, seed));
            let want = case.oracle(&store, path, &Fix::new(true));
            prop_assert_eq!(
                &got, &want, "{:?} on {:?}", path, String::from_utf8_lossy(&case.input)
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
