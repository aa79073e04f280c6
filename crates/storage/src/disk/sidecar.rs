//! Checksummed sidecar files in the data directory.
//!
//! A *sidecar* is a small auxiliary file that lives next to the manifest
//! and segments — currently the learning cache's persisted tree priors —
//! written with the same crash-safety discipline as everything else in the
//! data directory: tmp → fsync → atomic rename → directory fsync. The file
//! carries its own magic, version and whole-file FNV-1a checksum, so a
//! torn, truncated, corrupted or future-versioned sidecar is *refused*
//! (`DiskError::Corrupt`), never silently served.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! offset 0   8 bytes   magic  "SKSIDE1\n"
//! offset 8   4 bytes   version (application-chosen payload version)
//! offset 12  8 bytes   payload length
//! offset 20  n bytes   payload (opaque to this layer)
//! offset 20+n 8 bytes  FNV-1a64 over bytes [0, 20+n)
//! ```
//!
//! Sidecar filenames use a `.side` extension the orphan sweep never
//! touches (it only removes `.tmp` and unreferenced `.seg` files), so a
//! sidecar survives `DiskStore::open` even though the manifest does not
//! reference it; an interrupted sidecar write leaves only a `.side.tmp`
//! that the sweep removes.

use std::fs;

use crate::codec::{CodecError, Reader, Writer};
use crate::disk::manifest::{sync_dir, valid_table_name, write_synced};
use crate::disk::segment::fnv1a64;
use crate::disk::{DiskError, DiskStore};

const MAGIC: &[u8; 8] = b"SKSIDE1\n";

impl DiskStore {
    /// Atomically write (or replace) the sidecar `name` with `payload`.
    /// `version` is an application-level payload format version checked on
    /// read. `name` follows table-name rules (`[A-Za-z0-9_]+`).
    pub fn write_sidecar(&self, name: &str, version: u32, payload: &[u8]) -> Result<(), DiskError> {
        if !valid_table_name(name) {
            return Err(DiskError::InvalidName(name.to_string()));
        }
        let mut w = Writer::default();
        w.bytes(MAGIC);
        w.u32(version);
        w.u64(payload.len() as u64);
        w.bytes(payload);
        let mut bytes = w.finish()?;
        let sum = fnv1a64(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        self.commit_file(&format!("{name}.side"), |tmp| write_synced(tmp, &bytes))
    }

    /// Read the sidecar `name`. Returns `Ok(None)` if it does not exist,
    /// the payload if it verifies, and `DiskError::Corrupt` on a bad
    /// magic, a version other than `expect_version`, a truncated file, a
    /// length mismatch or a checksum mismatch.
    pub fn read_sidecar(
        &self,
        name: &str,
        expect_version: u32,
    ) -> Result<Option<Vec<u8>>, DiskError> {
        if !valid_table_name(name) {
            return Err(DiskError::InvalidName(name.to_string()));
        }
        let path = self.dir().join(format!("{name}.side"));
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let corrupt = |what: &str| DiskError::Corrupt(format!("{}: {what}", path.display()));
        let codec = |e: CodecError| corrupt(&e.to_string());
        let mut r = Reader::new(&bytes);
        if r.take(MAGIC.len()).map_err(codec)? != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = r.u32().map_err(codec)?;
        if version != expect_version {
            return Err(corrupt(&format!(
                "version {version}, expected {expect_version}"
            )));
        }
        let len = usize::try_from(r.u64().map_err(codec)?).unwrap_or(usize::MAX);
        let payload = r.take(len).map_err(codec)?;
        let summed = r.pos();
        let stored = r.u64().map_err(codec)?;
        r.finish().map_err(codec)?;
        if fnv1a64(&bytes[..summed]) != stored {
            return Err(corrupt("checksum mismatch"));
        }
        Ok(Some(payload.to_vec()))
    }

    /// Remove the sidecar `name` if present. Returns whether it existed.
    pub fn remove_sidecar(&self, name: &str) -> Result<bool, DiskError> {
        if !valid_table_name(name) {
            return Err(DiskError::InvalidName(name.to_string()));
        }
        let path = self.dir().join(format!("{name}.side"));
        match fs::remove_file(&path) {
            Ok(()) => {
                sync_dir(self.dir());
                Ok(true)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("skinner_side_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn roundtrip_replace_and_remove() {
        let dir = tmp_dir("rt");
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.read_sidecar("priors", 1).unwrap(), None);
        store.write_sidecar("priors", 1, b"hello").unwrap();
        assert_eq!(
            store.read_sidecar("priors", 1).unwrap().as_deref(),
            Some(&b"hello"[..])
        );
        store.write_sidecar("priors", 1, b"").unwrap();
        assert_eq!(
            store.read_sidecar("priors", 1).unwrap().as_deref(),
            Some(&b""[..])
        );
        assert!(store.remove_sidecar("priors").unwrap());
        assert!(!store.remove_sidecar("priors").unwrap());
        assert_eq!(store.read_sidecar("priors", 1).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_mismatch_refused() {
        let dir = tmp_dir("ver");
        let store = DiskStore::open(&dir).unwrap();
        store.write_sidecar("priors", 2, b"payload").unwrap();
        assert!(matches!(
            store.read_sidecar("priors", 1),
            Err(DiskError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_and_corruption_refused() {
        let dir = tmp_dir("hostile");
        let store = DiskStore::open(&dir).unwrap();
        store
            .write_sidecar("priors", 1, b"some payload bytes")
            .unwrap();
        let path = dir.join("priors.side");
        let good = fs::read(&path).unwrap();

        // Truncate at every length short of the full file: all refused.
        for cut in [0, 1, 7, 8, 19, 20, good.len() - 1] {
            fs::write(&path, &good[..cut]).unwrap();
            assert!(
                matches!(store.read_sidecar("priors", 1), Err(DiskError::Corrupt(_))),
                "truncation to {cut} bytes must be refused"
            );
        }
        // Flip one payload bit: checksum catches it.
        let mut bad = good.clone();
        bad[25] ^= 0x40;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            store.read_sidecar("priors", 1),
            Err(DiskError::Corrupt(_))
        ));
        // Restore: verifies again.
        fs::write(&path, &good).unwrap();
        assert!(store.read_sidecar("priors", 1).unwrap().is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A payload length near `u64::MAX` is refused, not added into an
    /// offset that overflows.
    #[test]
    fn hostile_payload_length_refused() {
        let dir = tmp_dir("hostile_len");
        let store = DiskStore::open(&dir).unwrap();
        store.write_sidecar("priors", 1, b"").unwrap();
        let path = dir.join("priors.side");
        let mut bytes = fs::read(&path).unwrap();
        bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.read_sidecar("priors", 1),
            Err(DiskError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn survives_reopen_but_tmp_is_swept() {
        let dir = tmp_dir("reopen");
        {
            let store = DiskStore::open(&dir).unwrap();
            store.write_sidecar("priors", 1, b"persisted").unwrap();
        }
        fs::write(dir.join("priors.side.tmp"), b"interrupted").unwrap();
        let store = DiskStore::open(&dir).unwrap();
        assert!(!dir.join("priors.side.tmp").exists(), "tmp debris swept");
        assert_eq!(
            store.read_sidecar("priors", 1).unwrap().as_deref(),
            Some(&b"persisted"[..])
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_sidecar_names_rejected() {
        let dir = tmp_dir("names");
        let store = DiskStore::open(&dir).unwrap();
        for bad in ["", "a/b", "../evil", "dot.dot"] {
            assert!(matches!(
                store.write_sidecar(bad, 1, b""),
                Err(DiskError::InvalidName(_))
            ));
            assert!(matches!(
                store.read_sidecar(bad, 1),
                Err(DiskError::InvalidName(_))
            ));
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
