//! On-disk encoding of the learning cache's entries.
//!
//! The cache persists into the data directory as one sidecar file (see
//! `skinner_storage::disk::sidecar`) named [`PRIORS_SIDECAR`]. The sidecar
//! envelope supplies framing, the format version and a whole-file
//! checksum; this module owns the payload: a flat sequence of entries,
//! each carrying the template key, the per-table identity (name + content
//! fingerprint + cardinality bucket), the structural features, the drift
//! state and the [`TreePrior`] itself (encoded by [`TreePrior::write`]).
//! Both directions go through `skinner_storage::codec` and share one set
//! of caps, so a flush never writes an entry its own loader would refuse.
//!
//! Decoding is defensive end to end — every length is bounds-checked,
//! every count capped, every float checked finite where finiteness is an
//! invariant — and an error anywhere refuses the *whole* payload: a prior
//! file is an accelerator, never worth trusting partially. The hostile
//! roundtrip proptests in `crates/core/tests/` pin this.

use std::sync::Arc;

use skinner_query::TemplateFeatures;
use skinner_storage::codec::{CodecError, Reader, Writer};
use skinner_uct::prior::MAX_PRIOR_TABLES;
use skinner_uct::TreePrior;

use super::drift::DriftState;
use super::{CacheEntry, PersistedEntry};

/// Sidecar file name (becomes `learned_priors.side` in the data dir).
pub const PRIORS_SIDECAR: &str = "learned_priors";
/// Payload format version, checked by the sidecar envelope on read.
pub const PRIORS_VERSION: u32 = 1;

// Caps shared by the encoder, which leaves out an entry over one, and the
// decoder, which refuses a payload over one.
pub(super) const MAX_ENTRIES: usize = 65_536;
const MAX_KEY_LEN: usize = 16_384;
const MAX_NAME_LEN: usize = 4_096;

/// Encode `entries` (oldest first). An entry over a cap is left out, and
/// past [`MAX_ENTRIES`] the oldest are: the file never holds what
/// [`decode_entries`] would refuse.
pub(super) fn encode_entries(entries: &[(String, CacheEntry)]) -> Vec<u8> {
    let mut kept: Vec<Vec<u8>> = entries
        .iter()
        .filter_map(|(key, e)| encode_entry(key, e).ok())
        .collect();
    kept.drain(..kept.len().saturating_sub(MAX_ENTRIES));
    let mut w = Writer::default();
    w.count(kept.len(), MAX_ENTRIES, "entry");
    for entry in &kept {
        w.bytes(entry);
    }
    w.finish().expect("entry count is capped above")
}

fn encode_entry(key: &str, e: &CacheEntry) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::default();
    w.str(key, MAX_KEY_LEN);
    let f = &e.features;
    w.check(f.tables.len(), MAX_PRIOR_TABLES, "table count");
    w.u16(f.tables.len() as u16);
    for (i, name) in f.tables.iter().enumerate() {
        w.str16(name, MAX_NAME_LEN);
        w.u64(e.fingerprints.get(i).copied().unwrap_or(0));
        w.u8(e.buckets.get(i).copied().unwrap_or(0));
        w.u16(f.unary_counts.get(i).copied().unwrap_or(0));
    }
    w.u16(f.n_equi);
    w.u16(f.n_theta);
    w.u16(f.n_select);
    w.u8((f.has_group as u8)
        | (f.has_order as u8) << 1
        | (f.distinct as u8) << 2
        | (f.limited as u8) << 3);
    let d = &e.drift;
    put_opt_f64(&mut w, d.cold_ewma);
    put_opt_f64(&mut w, d.warm_ewma);
    w.f64(d.strikes);
    w.u32(d.quarantine_left);
    w.u64(d.quarantines);
    e.prior.write(&mut w);
    w.finish()
}

pub(super) fn decode_entries(bytes: &[u8]) -> Result<Vec<PersistedEntry>, String> {
    let mut r = Reader::new(bytes);
    let count = r.u32()? as usize;
    if count > MAX_ENTRIES {
        return Err(format!("implausible entry count {count}"));
    }
    let mut out = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let key = r.str(MAX_KEY_LEN)?;
        let n_tables = r.u16()? as usize;
        if n_tables == 0 || n_tables > MAX_PRIOR_TABLES {
            return Err(format!("implausible table count {n_tables}"));
        }
        let mut tables = Vec::with_capacity(n_tables);
        let mut fingerprints = Vec::with_capacity(n_tables);
        let mut buckets = Vec::with_capacity(n_tables);
        let mut unary_counts = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            tables.push(r.str16(MAX_NAME_LEN)?);
            fingerprints.push(r.u64()?);
            buckets.push(r.u8()?);
            unary_counts.push(r.u16()?);
        }
        let n_equi = r.u16()?;
        let n_theta = r.u16()?;
        let n_select = r.u16()?;
        let flags = r.u8()?;
        if flags > 0b1111 {
            return Err(format!("unknown feature flags {flags:#b}"));
        }
        let cold_ewma = get_opt_f64(&mut r)?;
        let warm_ewma = get_opt_f64(&mut r)?;
        let strikes = r.f64()?;
        if !strikes.is_finite() || strikes < 0.0 {
            return Err("non-finite or negative strikes".to_string());
        }
        let quarantine_left = r.u32()?;
        if quarantine_left > 1_000 {
            return Err(format!("implausible quarantine counter {quarantine_left}"));
        }
        let quarantines = r.u64()?;
        let prior = TreePrior::read(&mut r)?;
        if prior.num_tables != n_tables {
            return Err(format!(
                "prior covers {} tables, entry lists {n_tables}",
                prior.num_tables
            ));
        }
        out.push(PersistedEntry {
            key,
            entry: CacheEntry {
                uids: Vec::new(),
                fingerprints,
                buckets,
                features: TemplateFeatures {
                    tables,
                    unary_counts,
                    n_equi,
                    n_theta,
                    n_select,
                    has_group: flags & 1 != 0,
                    has_order: flags & 2 != 0,
                    distinct: flags & 4 != 0,
                    limited: flags & 8 != 0,
                },
                prior: Arc::new(prior),
                drift: DriftState {
                    cold_ewma,
                    warm_ewma,
                    strikes,
                    quarantine_left,
                    quarantines,
                },
                stamp: 0,
            },
        });
    }
    r.finish()?;
    Ok(out)
}

fn put_opt_f64(w: &mut Writer, v: Option<f64>) {
    w.u8(v.is_some() as u8);
    w.f64(v.unwrap_or(0.0));
}

fn get_opt_f64(r: &mut Reader) -> Result<Option<f64>, String> {
    let tag = r.u8()?;
    let v = r.f64()?;
    match tag {
        0 => Ok(None),
        1 if v.is_finite() && v >= 0.0 => Ok(Some(v)),
        1 => Err("non-finite or negative EWMA".to_string()),
        t => Err(format!("bad option tag {t}")),
    }
}
