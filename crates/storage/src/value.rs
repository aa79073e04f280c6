//! Scalar values and data types.
//!
//! SkinnerDB's engines mostly operate on raw column data and row indices;
//! [`Value`] only appears at the boundaries: literals in queries, arguments to
//! user-defined functions, and materialized result rows.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The type of a column or expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer. Also used for dates (days since epoch) and
    /// booleans (0/1) — the TPC-H generator uses both encodings.
    Int,
    /// 64-bit IEEE float. Used for decimals (e.g. TPC-H prices).
    Float,
    /// Interned string; the column stores `u32` codes into the catalog-wide
    /// [`crate::Interner`].
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Str => write!(f, "STRING"),
        }
    }
}

/// Canonical equality key of a float, shared by every value-keyed
/// structure (join indexes, GROUP BY, DISTINCT, equality predicates): its
/// bit pattern, with -0.0 normalized to 0.0.
#[inline]
pub fn float_key(f: f64) -> u64 {
    let f = if f == 0.0 { 0.0 } else { f };
    f.to_bits()
}

/// A single scalar value.
///
/// Strings are reference-counted so that cloning values out of the interner
/// is cheap; the interner hands out `Arc<str>`.
#[derive(Debug, Clone)]
pub enum Value {
    Int(i64),
    Float(f64),
    Str(Arc<str>),
}

impl Value {
    /// Data type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
        }
    }

    /// Interpret the value as a boolean: integers are true iff non-zero.
    /// Floats and strings are never treated as booleans.
    pub fn as_bool(&self) -> bool {
        matches!(self, Value::Int(i) if *i != 0)
    }

    /// Numeric view (ints widen to float); `None` for strings.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Str(_) => None,
        }
    }

    /// Integer view; `None` for non-integers.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view; `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL-style comparison. Numeric types compare numerically with int→float
    /// widening; strings compare lexicographically. Comparing a string with a
    /// number returns `None` (a bound query never does this; the binder
    /// rejects it).
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// SQL-style equality (via [`Value::compare`]).
    pub fn sql_eq(&self, other: &Value) -> bool {
        self.compare(other) == Some(Ordering::Equal)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.sql_eq(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Int(v as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_types_of_values() {
        assert_eq!(Value::Int(3).data_type(), DataType::Int);
        assert_eq!(Value::Float(1.5).data_type(), DataType::Float);
        assert_eq!(Value::from("x").data_type(), DataType::Str);
    }

    #[test]
    fn bool_semantics() {
        assert!(Value::Int(1).as_bool());
        assert!(Value::Int(-7).as_bool());
        assert!(!Value::Int(0).as_bool());
        assert!(!Value::Float(1.0).as_bool());
        assert!(!Value::from("true").as_bool());
    }

    #[test]
    fn numeric_widening_comparison() {
        assert_eq!(
            Value::Int(2).compare(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(2).compare(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(3.5).compare(&Value::Int(3)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn string_comparison() {
        assert_eq!(
            Value::from("abc").compare(&Value::from("abd")),
            Some(Ordering::Less)
        );
        assert!(Value::from("x").sql_eq(&Value::from("x")));
    }

    #[test]
    fn cross_type_comparison_is_none() {
        assert_eq!(Value::from("1").compare(&Value::Int(1)), None);
        assert!(!Value::from("1").sql_eq(&Value::Int(1)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::from("hi").to_string(), "hi");
    }
}
