//! In-memory column store used by all SkinnerDB execution engines.
//!
//! The storage layer follows the requirements spelled out in Section 4.5 of
//! the SkinnerDB paper: a *column store architecture* (fast access to selected
//! columns) over a *main-memory resident* data set, so that tuples can be
//! represented as small vectors of tuple indices and materialized lazily.
//!
//! Main entry points:
//! * [`Table`] / [`TableBuilder`] — typed, immutable, columnar tables,
//! * [`Catalog`] — a named collection of tables sharing one [`Interner`],
//! * [`HashIndex`] — equality index with *sorted* posting lists, which is what
//!   enables the "jump to the next matching tuple index" trick of the
//!   multi-way join (paper Section 4.5),
//! * [`codec`] — the bounds-checked little-endian reader and writer under
//!   every binary format (wire frames, segments, sidecars, priors),
//! * [`hash::fold_keys`] — the one key hash of every open-addressing table
//!   keyed on column values,
//! * [`Value`] / [`DataType`] — the scalar type system.

pub mod catalog;
pub mod codec;
pub mod column;
pub mod csv;
pub mod disk;
pub mod hash;
pub mod index;
pub mod interner;
pub mod schema;
pub mod table;
pub mod value;

pub use catalog::Catalog;
pub use column::Column;
pub use csv::read_csv;
pub use disk::{bulk_load_csv, DiskError, DiskStore, ZoneCol, ZoneMap};
pub use index::{HashIndex, PostingCursor};
pub use interner::{Interner, InternerRead};
pub use schema::{Field, Schema};
pub use table::{Table, TableBuilder};
pub use value::{float_key, DataType, Value};

/// Row identifier within a single table. Tables are capped at `u32::MAX` rows,
/// which keeps execution-state vectors (one entry per table) compact — the
/// paper stresses that small execution state is what makes join order
/// switching cheap.
pub type RowId = u32;
