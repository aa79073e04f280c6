//! Persistent paged columnar storage.
//!
//! This module is the durable layer under the in-memory catalog:
//!
//! - [`segment`] — the on-disk format: fixed-row pages per column with
//!   lightweight compression ([`page`]) and per-page min/max zone bounds
//!   ([`zonemap`]), a self-describing footer, and a whole-file checksum.
//!   Reads go through [`mmap`]; a segment opens into an ordinary
//!   in-memory [`crate::Table`] with a [`ZoneMap`] attached. Formats:
//!
//!   | magic       | checksum over every byte before it | writer | reader |
//!   |-------------|------------------------------------|--------|--------|
//!   | `SKSEG02\n` | 4-lane 64-bit hash of 8-byte little-endian words (`segment::WordHash`) | yes | yes |
//!   | `SKSEG01\n` | FNV-1a 64                          | no     | yes    |
//!
//!   Every other byte is the same in both.
//! - [`manifest`] — the data directory: [`DiskStore`] with the
//!   write-temp → fsync → rename → manifest-commit protocol that makes
//!   every create/replace/drop crash-safe.
//! - [`loader`] — streaming bulk CSV ingestion straight into page buffers.
//! - [`sidecar`] — small checksummed auxiliary files (e.g. the learning
//!   cache's persisted priors) written with the same tmp → fsync → rename
//!   discipline.
//!
//! The catalog integration (attach a directory, persist tables, delete
//! segments when a persistent table is dropped) lives in
//! [`crate::Catalog`]; the zone-map scan integration lives in
//! `skinner_exec::zonescan`.

pub mod loader;
pub mod manifest;
pub mod mmap;
pub mod page;
pub mod segment;
pub mod sidecar;
pub mod zonemap;

pub use loader::bulk_load_csv;
pub use manifest::DiskStore;
pub use segment::{read_segment, OpenedSegment, SegmentWriter, PAGE_ROWS};
pub use zonemap::{ZoneCol, ZoneMap};

use crate::codec::CodecError;
use crate::csv::CsvError;
use std::fmt;

/// Errors from the persistent storage layer.
#[derive(Debug)]
pub enum DiskError {
    Io(std::io::Error),
    /// The file exists but its bytes are not a valid committed segment or
    /// manifest (truncation, bit rot, torn write, format violation).
    Corrupt(String),
    /// No committed table under that name.
    NotFound(String),
    /// Persistent table names are restricted to `[A-Za-z0-9_]+` because
    /// they become file names.
    InvalidName(String),
    /// CSV parse failure during bulk load.
    Csv(CsvError),
    /// A persistence operation needs a data directory, but none is attached.
    NoDataDir,
    /// The catalog already has a data directory attached.
    AlreadyAttached(String),
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::Io(e) => write!(f, "storage io error: {e}"),
            DiskError::Corrupt(msg) => write!(f, "corrupt storage: {msg}"),
            DiskError::NotFound(name) => write!(f, "no persistent table {name:?}"),
            DiskError::InvalidName(name) => write!(
                f,
                "invalid persistent table name {name:?} (use letters, digits, underscores)"
            ),
            DiskError::Csv(e) => write!(f, "bulk load: {e}"),
            DiskError::NoDataDir => {
                write!(f, "no data directory attached (open one with --data-dir)")
            }
            DiskError::AlreadyAttached(dir) => {
                write!(f, "a data directory is already attached ({dir})")
            }
        }
    }
}

impl std::error::Error for DiskError {}

impl From<std::io::Error> for DiskError {
    fn from(e: std::io::Error) -> Self {
        DiskError::Io(e)
    }
}

impl From<CodecError> for DiskError {
    fn from(e: CodecError) -> Self {
        DiskError::Corrupt(e.to_string())
    }
}

impl From<CsvError> for DiskError {
    fn from(e: CsvError) -> Self {
        match e {
            CsvError::Io(io) => DiskError::Io(io),
            e => DiskError::Csv(e),
        }
    }
}
