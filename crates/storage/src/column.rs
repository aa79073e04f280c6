//! Typed columns.
//!
//! Columns own plain `Vec`s of primitive data; string columns hold `u32`
//! interner codes. All engines read column data through these accessors, and
//! the hot paths (`int_at`, `code_at`, `key_at`) are trivial loads.

use crate::interner::Interner;
use crate::value::{float_key, DataType, Value};
use crate::RowId;

/// A typed column of `len` rows.
#[derive(Debug, Clone)]
pub enum Column {
    Int(Vec<i64>),
    Float(Vec<f64>),
    /// Interner codes; the owning [`crate::Table`] knows the interner.
    Str(Vec<u32>),
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Str(_) => DataType::Str,
        }
    }

    /// Integer at `row`; panics if the column is not `Int` (engine bug).
    #[inline]
    pub fn int_at(&self, row: RowId) -> i64 {
        match self {
            Column::Int(v) => v[row as usize],
            _ => panic!("int_at on non-int column"),
        }
    }

    /// Float at `row` with int widening; panics on string columns.
    #[inline]
    pub fn float_at(&self, row: RowId) -> f64 {
        match self {
            Column::Float(v) => v[row as usize],
            Column::Int(v) => v[row as usize] as f64,
            Column::Str(_) => panic!("float_at on string column"),
        }
    }

    /// Interner code at `row`; panics if the column is not `Str`.
    #[inline]
    pub fn code_at(&self, row: RowId) -> u32 {
        match self {
            Column::Str(v) => v[row as usize],
            _ => panic!("code_at on non-string column"),
        }
    }

    /// Canonical 64-bit equality key for hash indexes and equi-joins.
    ///
    /// Two rows of *same-typed* columns of the same catalog have equal keys
    /// iff the values are SQL-equal. (-0.0 normalizes to 0.0; the binder
    /// requires matching types on the two sides of an equality join.)
    #[inline]
    pub fn key_at(&self, row: RowId) -> u64 {
        match self {
            Column::Int(v) => v[row as usize] as u64,
            Column::Float(v) => float_key(v[row as usize]),
            Column::Str(v) => v[row as usize] as u64,
        }
    }

    /// Materialize the value at `row`.
    pub fn value_at(&self, row: RowId, interner: &Interner) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[row as usize]),
            Column::Float(v) => Value::Float(v[row as usize]),
            Column::Str(v) => Value::Str(interner.resolve(v[row as usize])),
        }
    }

    /// New column containing `rows` of `self`, in order. Used to materialize
    /// the filtered base tables produced by pre-processing.
    pub fn gather(&self, rows: &[RowId]) -> Column {
        match self {
            Column::Int(v) => Column::Int(rows.iter().map(|&r| v[r as usize]).collect()),
            Column::Float(v) => Column::Float(rows.iter().map(|&r| v[r as usize]).collect()),
            Column::Str(v) => Column::Str(rows.iter().map(|&r| v[r as usize]).collect()),
        }
    }

    /// Approximate heap size in bytes (for the Figure 8 memory experiment).
    pub fn byte_size(&self) -> usize {
        match self {
            Column::Int(v) => v.len() * 8,
            Column::Float(v) => v.len() * 8,
            Column::Str(v) => v.len() * 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_access() {
        let c = Column::Int(vec![5, 6, 7]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.int_at(1), 6);
        assert_eq!(c.float_at(2), 7.0);
        assert_eq!(c.dtype(), DataType::Int);
    }

    #[test]
    fn keys_match_equality() {
        let c = Column::Float(vec![0.0, -0.0, 1.5]);
        assert_eq!(c.key_at(0), c.key_at(1)); // -0.0 == 0.0
        assert_ne!(c.key_at(0), c.key_at(2));
    }

    #[test]
    fn gather_reorders_and_duplicates() {
        let c = Column::Int(vec![10, 20, 30]);
        let g = c.gather(&[2, 0, 2]);
        match g {
            Column::Int(v) => assert_eq!(v, vec![30, 10, 30]),
            _ => panic!(),
        }
    }

    #[test]
    fn value_materialization_resolves_strings() {
        let interner = Interner::new();
        let a = interner.intern("x");
        let c = Column::Str(vec![a]);
        let v = c.value_at(0, &interner);
        assert_eq!(v.as_str(), Some("x"));
    }

    #[test]
    #[should_panic]
    fn int_at_wrong_type_panics() {
        Column::Str(vec![0]).int_at(0);
    }
}
