//! Immutable columnar tables and their builder.

use std::sync::{Arc, OnceLock};

use crate::column::Column;
use crate::disk::zonemap::ZoneMap;
use crate::index::HashIndex;
use crate::interner::Interner;
use crate::schema::Schema;
use crate::value::{DataType, Value};
use crate::RowId;

/// An immutable, main-memory, columnar table.
///
/// Tables are shared via `Arc` between the catalog, query plans and engines;
/// pre-processing produces new (filtered) `Table`s rather than mutating.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    interner: Arc<Interner>,
    nrows: usize,
    /// Process-wide unique id. Caches keyed by table identity (e.g. the
    /// statistics cache) must use this, never the `Arc` address: a dropped
    /// temp table's allocation can be reused for a different table, so
    /// pointer-keyed caches serve stale entries nondeterministically.
    uid: u64,
    /// Per-page min/max bounds, present on tables decoded from disk
    /// segments. The scan path uses them to skip per-page predicate
    /// evaluation; `None` (in-memory tables, `gather` outputs) means scan
    /// every row, exactly the pre-existing behavior.
    zones: Option<Arc<ZoneMap>>,
    /// Lazily computed logical-content fingerprint; see
    /// [`Table::fingerprint`]. Unlike `uid`, two tables with identical
    /// schema and data hash identically — across processes and across a
    /// persist/reload roundtrip.
    fingerprint: OnceLock<u64>,
    /// One lazily built join index per column; see [`Table::join_index`].
    indexes: Box<[OnceLock<Arc<HashIndex>>]>,
}

/// Source of process-wide unique table ids.
static NEXT_TABLE_UID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn fresh_table_uid() -> u64 {
    NEXT_TABLE_UID.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

fn fresh_indexes(ncols: usize) -> Box<[OnceLock<Arc<HashIndex>>]> {
    (0..ncols).map(|_| OnceLock::new()).collect()
}

impl Table {
    /// Build a table directly from columns. Panics if column lengths differ
    /// from each other or types differ from the schema (programming error).
    pub fn from_columns(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Column>,
        interner: Arc<Interner>,
    ) -> Self {
        assert_eq!(schema.len(), columns.len(), "schema/column count mismatch");
        let nrows = columns.first().map_or(0, Column::len);
        for (f, c) in schema.fields().iter().zip(&columns) {
            assert_eq!(c.len(), nrows, "ragged columns in table {:?}", f.name);
            assert_eq!(c.dtype(), f.dtype, "column {:?} type mismatch", f.name);
        }
        Table {
            name: name.into(),
            indexes: fresh_indexes(columns.len()),
            schema,
            columns,
            interner,
            nrows,
            uid: fresh_table_uid(),
            zones: None,
            fingerprint: OnceLock::new(),
        }
    }

    /// Attach a zone map (segment open path). Panics if the map does not
    /// cover exactly this table's rows and columns.
    pub fn with_zones(mut self, zones: Arc<ZoneMap>) -> Self {
        assert_eq!(zones.nrows(), self.nrows, "zone map row-count mismatch");
        assert_eq!(
            zones.ncols(),
            self.columns.len(),
            "zone map column-count mismatch"
        );
        self.zones = Some(zones);
        self
    }

    /// Per-page min/max bounds, if this table came from a disk segment.
    pub fn zones(&self) -> Option<&Arc<ZoneMap>> {
        self.zones.as_ref()
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Process-wide unique table id (stable for this table's lifetime,
    /// never reused).
    pub fn uid(&self) -> u64 {
        self.uid
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn num_rows(&self) -> usize {
        self.nrows
    }

    /// Cardinality as `u32`; row ids fit by construction.
    pub fn cardinality(&self) -> RowId {
        self.nrows as RowId
    }

    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Materialize one cell.
    pub fn value(&self, row: RowId, col: usize) -> Value {
        self.columns[col].value_at(row, &self.interner)
    }

    /// Materialize a whole row (used by the post-processor and tests).
    pub fn row_values(&self, row: RowId) -> Vec<Value> {
        (0..self.columns.len())
            .map(|c| self.value(row, c))
            .collect()
    }

    /// New table with only `rows`, in order. This is how pre-processing
    /// applies unary predicates: engines afterwards work on dense row ids
    /// `0..n` of the filtered table.
    pub fn gather(&self, rows: &[RowId], name: impl Into<String>) -> Table {
        let columns = self.columns.iter().map(|c| c.gather(rows)).collect();
        // Gathered rows are no longer page-aligned, so zones do not carry
        // over; nor do join indexes, whose postings are row ids.
        Table {
            name: name.into(),
            indexes: fresh_indexes(self.columns.len()),
            schema: self.schema.clone(),
            columns,
            interner: self.interner.clone(),
            nrows: rows.len(),
            uid: fresh_table_uid(),
            zones: None,
            fingerprint: OnceLock::new(),
        }
    }

    /// Approximate heap size of the data in bytes (join indexes are
    /// reported by [`Table::index_bytes`]).
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(Column::byte_size).sum()
    }

    /// The equality join index on column `col`, built on first use and kept
    /// for the table's lifetime: tables are immutable, so the index can
    /// never go stale, and it is freed with the table (DROP, replacement,
    /// or the end of the statement that gathered a filtered copy).
    /// Concurrent first uses build once; the others wait for that build.
    pub fn join_index(&self, col: usize) -> &Arc<HashIndex> {
        self.join_index_built(col).0
    }

    /// [`Table::join_index`], plus whether *this* call built the index
    /// (true for exactly one call per column over the table's lifetime).
    pub fn join_index_built(&self, col: usize) -> (&Arc<HashIndex>, bool) {
        let mut built = false;
        let index = self.indexes[col].get_or_init(|| {
            built = true;
            Arc::new(HashIndex::build(&self.columns[col]))
        });
        (index, built)
    }

    /// Bytes held by the join indexes built so far.
    pub fn index_bytes(&self) -> usize {
        self.indexes
            .iter()
            .filter_map(OnceLock::get)
            .map(|index| index.byte_size())
            .sum()
    }

    /// Content-derived table identity: an FNV-1a hash over the schema
    /// (field names and types), the row count, and every column's logical
    /// values. Computed lazily, once per table incarnation.
    ///
    /// Properties the learning cache relies on:
    ///
    /// * **Process-independent.** String columns hash the *resolved* strings,
    ///   not interner codes (codes depend on interning order); floats hash
    ///   their exact bit pattern, which the disk segment format round-trips.
    ///   A table therefore keeps its fingerprint across save → restart →
    ///   load, which is what lets persisted priors survive restarts.
    /// * **Content-sensitive.** Re-creating a table with the same name but
    ///   different rows produces a different fingerprint, so stale priors
    ///   are refused rather than served.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            // FNV-1a, 64-bit; matches the checksum family used by the disk
            // segment format.
            const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
            const PRIME: u64 = 0x0000_0100_0000_01b3;
            let mut h = OFFSET;
            let mut eat = |bytes: &[u8]| {
                for &b in bytes {
                    h ^= b as u64;
                    h = h.wrapping_mul(PRIME);
                }
            };
            for f in self.schema.fields() {
                eat(f.name.as_bytes());
                eat(&[0u8, f.dtype as u8]);
            }
            eat(&(self.nrows as u64).to_le_bytes());
            for c in &self.columns {
                match c {
                    Column::Int(v) => {
                        eat(&[1u8]);
                        for x in v {
                            eat(&x.to_le_bytes());
                        }
                    }
                    Column::Float(v) => {
                        eat(&[2u8]);
                        for x in v {
                            eat(&x.to_bits().to_le_bytes());
                        }
                    }
                    Column::Str(v) => {
                        eat(&[3u8]);
                        for &code in v {
                            let s = self.interner.resolve(code);
                            eat(&(s.len() as u32).to_le_bytes());
                            eat(s.as_bytes());
                        }
                    }
                }
            }
            h
        })
    }
}

/// Row-at-a-time table builder with type checking and string interning.
pub struct TableBuilder {
    name: String,
    schema: Schema,
    interner: Arc<Interner>,
    ints: Vec<Vec<i64>>,
    floats: Vec<Vec<f64>>,
    codes: Vec<Vec<u32>>,
    /// For each schema position: (which typed vec family, index within it).
    slots: Vec<(DataType, usize)>,
    nrows: usize,
}

impl TableBuilder {
    pub fn new(name: impl Into<String>, schema: Schema, interner: Arc<Interner>) -> Self {
        let mut ints = vec![];
        let mut floats = vec![];
        let mut codes = vec![];
        let mut slots = vec![];
        for f in schema.fields() {
            match f.dtype {
                DataType::Int => {
                    slots.push((DataType::Int, ints.len()));
                    ints.push(vec![]);
                }
                DataType::Float => {
                    slots.push((DataType::Float, floats.len()));
                    floats.push(vec![]);
                }
                DataType::Str => {
                    slots.push((DataType::Str, codes.len()));
                    codes.push(vec![]);
                }
            }
        }
        TableBuilder {
            name: name.into(),
            schema,
            interner,
            ints,
            floats,
            codes,
            slots,
            nrows: 0,
        }
    }

    /// Append one row. Panics on arity or type mismatch (programming error;
    /// generators and tests construct rows structurally).
    pub fn push_row(&mut self, row: &[Value]) {
        assert_eq!(row.len(), self.slots.len(), "row arity mismatch");
        for (i, v) in row.iter().enumerate() {
            let (dt, idx) = self.slots[i];
            match (dt, v) {
                (DataType::Int, Value::Int(x)) => self.ints[idx].push(*x),
                (DataType::Float, Value::Float(x)) => self.floats[idx].push(*x),
                (DataType::Float, Value::Int(x)) => self.floats[idx].push(*x as f64),
                (DataType::Str, Value::Str(s)) => self.codes[idx].push(self.interner.intern(s)),
                (dt, v) => panic!(
                    "type mismatch in column {} of {}: expected {dt}, got {v:?}",
                    self.schema.field(i).name,
                    self.name
                ),
            }
        }
        self.nrows += 1;
    }

    /// Fast paths for generators: append a single cell column-wise. The
    /// caller must fill every column the same number of times before
    /// [`TableBuilder::finish`]; `finish` asserts this.
    pub fn push_int(&mut self, col: usize, v: i64) {
        let (dt, idx) = self.slots[col];
        debug_assert_eq!(dt, DataType::Int);
        self.ints[idx].push(v);
    }

    pub fn push_float(&mut self, col: usize, v: f64) {
        let (dt, idx) = self.slots[col];
        debug_assert_eq!(dt, DataType::Float);
        self.floats[idx].push(v);
    }

    pub fn push_str(&mut self, col: usize, v: &str) {
        let (dt, idx) = self.slots[col];
        debug_assert_eq!(dt, DataType::Str);
        let code = self.interner.intern(v);
        self.codes[idx].push(code);
    }

    /// Number of rows pushed via [`TableBuilder::push_row`].
    pub fn len(&self) -> usize {
        self.nrows
    }

    pub fn is_empty(&self) -> bool {
        self.nrows == 0
    }

    /// Finish into a [`Table`] over `interner`, re-interning the strings
    /// this builder's own interner holds in the order it met them: the
    /// codes pushing the same rows straight into `interner` hands out. The
    /// builder's interner must hold only the strings pushed into it.
    pub(crate) fn finish_into(mut self, interner: Arc<Interner>) -> Table {
        let own = std::mem::replace(&mut self.interner, interner);
        let codes: Vec<u32> = (0..own.len() as u32)
            .map(|c| self.interner.intern(&own.resolve(c)))
            .collect();
        for col in &mut self.codes {
            for c in col.iter_mut() {
                *c = codes[*c as usize];
            }
        }
        self.finish()
    }

    /// Finish into an immutable [`Table`].
    pub fn finish(self) -> Table {
        let mut columns = Vec::with_capacity(self.slots.len());
        let TableBuilder {
            name,
            schema,
            interner,
            mut ints,
            mut floats,
            mut codes,
            slots,
            ..
        } = self;
        for &(dt, idx) in &slots {
            columns.push(match dt {
                DataType::Int => Column::Int(std::mem::take(&mut ints[idx])),
                DataType::Float => Column::Float(std::mem::take(&mut floats[idx])),
                DataType::Str => Column::Str(std::mem::take(&mut codes[idx])),
            });
        }
        Table::from_columns(name, schema, columns, interner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema;

    fn sample() -> Table {
        let interner = Arc::new(Interner::new());
        let mut b = TableBuilder::new(
            "t",
            schema![("id", Int), ("score", Float), ("tag", Str)],
            interner,
        );
        b.push_row(&[Value::Int(1), Value::Float(0.5), Value::from("a")]);
        b.push_row(&[Value::Int(2), Value::Float(1.5), Value::from("b")]);
        b.push_row(&[Value::Int(3), Value::Float(2.5), Value::from("a")]);
        b.finish()
    }

    #[test]
    fn build_and_read_back() {
        let t = sample();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.value(0, 0), Value::Int(1));
        assert_eq!(t.value(2, 2).as_str(), Some("a"));
        // Shared interner: rows 0 and 2 have the same code for "a".
        assert_eq!(t.column(2).code_at(0), t.column(2).code_at(2));
    }

    #[test]
    fn int_widens_to_float_column() {
        let interner = Arc::new(Interner::new());
        let mut b = TableBuilder::new("t", schema![("x", Float)], interner);
        b.push_row(&[Value::Int(4)]);
        let t = b.finish();
        assert_eq!(t.value(0, 0), Value::Float(4.0));
    }

    #[test]
    fn gather_produces_filtered_table() {
        let t = sample();
        let f = t.gather(&[2, 0], "t_f");
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.value(0, 0), Value::Int(3));
        assert_eq!(f.value(1, 0), Value::Int(1));
        assert_eq!(f.name(), "t_f");
    }

    #[test]
    fn row_values_materializes_all_columns() {
        let t = sample();
        let row = t.row_values(1);
        assert_eq!(row.len(), 3);
        assert_eq!(row[2].as_str(), Some("b"));
    }

    #[test]
    fn fingerprint_is_content_derived_not_identity_derived() {
        let a = sample();
        let b = sample();
        assert_ne!(a.uid(), b.uid(), "uids are process-unique");
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "same content must fingerprint identically"
        );

        // Different interners (hence different codes) for equal strings
        // must not change the fingerprint.
        let interner = Arc::new(Interner::new());
        interner.intern("zzz");
        let mut c = TableBuilder::new(
            "t",
            schema![("id", Int), ("score", Float), ("tag", Str)],
            interner,
        );
        c.push_row(&[Value::Int(1), Value::Float(0.5), Value::from("a")]);
        c.push_row(&[Value::Int(2), Value::Float(1.5), Value::from("b")]);
        c.push_row(&[Value::Int(3), Value::Float(2.5), Value::from("a")]);
        let c = c.finish();
        assert_ne!(c.column(2).code_at(0), b.column(2).code_at(0));
        assert_eq!(c.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_changes_with_content_schema_or_order() {
        let base = sample();
        let mut alt = TableBuilder::new(
            "t",
            schema![("id", Int), ("score", Float), ("tag", Str)],
            Arc::new(Interner::new()),
        );
        alt.push_row(&[Value::Int(1), Value::Float(0.5), Value::from("a")]);
        alt.push_row(&[Value::Int(2), Value::Float(1.5), Value::from("b")]);
        alt.push_row(&[Value::Int(4), Value::Float(2.5), Value::from("a")]);
        assert_ne!(alt.finish().fingerprint(), base.fingerprint());

        // Row order matters: gather in a different order is different data.
        let reordered = base.gather(&[2, 1, 0], "t");
        assert_ne!(reordered.fingerprint(), base.fingerprint());
        // But an identity gather preserves the fingerprint (fresh uid).
        let same = base.gather(&[0, 1, 2], "t");
        assert_ne!(same.uid(), base.uid());
        assert_eq!(same.fingerprint(), base.fingerprint());
    }

    #[test]
    #[should_panic]
    fn type_mismatch_panics() {
        let interner = Arc::new(Interner::new());
        let mut b = TableBuilder::new("t", schema![("x", Int)], interner);
        b.push_row(&[Value::from("not an int")]);
    }
}
