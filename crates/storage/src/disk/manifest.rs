//! The data directory: committed segments and the manifest protocol.
//!
//! A data directory contains one `MANIFEST` file plus one segment file per
//! committed table. A segment becomes visible in exactly one way:
//!
//! 1. the segment is written to `<name>.<seq>.seg.tmp` and fsync'd,
//! 2. atomically renamed to `<name>.<seq>.seg` and the directory fsync'd,
//! 3. the manifest is rewritten (same tmp→fsync→rename→fsync-dir dance)
//!    to reference it.
//!
//! The manifest rename is the commit point. A crash anywhere before it
//! leaves the old manifest in force and at worst an unreferenced segment
//! or `.tmp` file, both removed on the next [`DiskStore::open`]. A crash
//! after it leaves the *previous* segment file unreferenced — same
//! cleanup. Committed segments additionally carry a whole-file checksum
//! (see [`super::segment`]), so even a torn committed write surfaces as a
//! [`DiskError::Corrupt`] rather than wrong query results.
//!
//! Manifest format (text, one entry per line):
//!
//! ```text
//! skinner-manifest 1
//! seq 7
//! table lineitem lineitem.3.seg 6001215
//! table orders orders.6.seg 1500000
//! ```

use std::collections::HashMap;
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::disk::segment::{read_segment, OpenedSegment, SegmentWriter, PAGE_ROWS};
use crate::disk::DiskError;
use crate::interner::Interner;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::DataType;

const MANIFEST: &str = "MANIFEST";

#[derive(Debug, Clone)]
struct Entry {
    file: String,
    rows: u64,
}

#[derive(Debug, Default)]
struct State {
    /// Monotonic counter baked into segment filenames so a replacement
    /// never reuses the name of the file it replaces.
    seq: u64,
    /// Lowercased table name → committed segment.
    tables: HashMap<String, Entry>,
}

/// A persistent table store rooted at one directory.
///
/// All mutation goes through one mutex: writes are serialized, which is the
/// right trade for bulk loads and DDL (queries never touch the store — they
/// read the in-memory tables the catalog decoded at attach time).
pub struct DiskStore {
    dir: PathBuf,
    state: Mutex<State>,
}

impl std::fmt::Debug for DiskStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskStore")
            .field("dir", &self.dir)
            .field("tables", &self.table_names())
            .finish()
    }
}

/// Create `path` holding `bytes` and fsync it.
pub(super) fn write_synced(path: &Path, bytes: &[u8]) -> Result<(), DiskError> {
    let mut f = File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    Ok(())
}

/// Best-effort directory fsync: required on Linux for rename durability;
/// a no-op error elsewhere is acceptable (the data fsync already happened).
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

pub(crate) fn valid_table_name(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

impl DiskStore {
    /// Open (or create) a data directory. Reads the manifest, removes
    /// leftover `.tmp` files and unreferenced `.seg` files from interrupted
    /// writes, and returns the store.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Arc<DiskStore>, DiskError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let state = Self::read_manifest(&dir)?;
        let store = DiskStore {
            dir,
            state: Mutex::new(state),
        };
        store.clean_orphans()?;
        Ok(Arc::new(store))
    }

    fn read_manifest(dir: &Path) -> Result<State, DiskError> {
        let path = dir.join(MANIFEST);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(State::default()),
            Err(e) => return Err(e.into()),
        };
        let corrupt = |what: &str| DiskError::Corrupt(format!("{}: {what}", path.display()));
        let mut lines = text.lines();
        match lines.next() {
            Some("skinner-manifest 1") => {}
            _ => return Err(corrupt("bad header")),
        }
        let mut state = State::default();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("seq") => {
                    state.seq = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| corrupt("bad seq line"))?;
                }
                Some("table") => {
                    let (name, file, rows) = match (parts.next(), parts.next(), parts.next()) {
                        (Some(n), Some(f), Some(r)) => (n, f, r),
                        _ => return Err(corrupt("bad table line")),
                    };
                    let rows = rows.parse().map_err(|_| corrupt("bad row count"))?;
                    state.tables.insert(
                        name.to_string(),
                        Entry {
                            file: file.to_string(),
                            rows,
                        },
                    );
                }
                _ => return Err(corrupt("unknown directive")),
            }
        }
        Ok(state)
    }

    /// Rewrite the manifest atomically. Caller holds the state lock.
    fn commit_manifest(&self, state: &State) -> Result<(), DiskError> {
        let mut text = String::from("skinner-manifest 1\n");
        text.push_str(&format!("seq {}\n", state.seq));
        let mut names: Vec<&String> = state.tables.keys().collect();
        names.sort();
        for name in names {
            let e = &state.tables[name];
            text.push_str(&format!("table {name} {} {}\n", e.file, e.rows));
        }
        self.commit_file(MANIFEST, |tmp| write_synced(tmp, text.as_bytes()))
    }

    /// Commit every data-directory file: `write` creates, fills and
    /// fsyncs `<file>.tmp`, which is renamed over `file` and the directory
    /// fsync'd. A failed `write` removes the temp file.
    pub(super) fn commit_file(
        &self,
        file: &str,
        write: impl FnOnce(&Path) -> Result<(), DiskError>,
    ) -> Result<(), DiskError> {
        let tmp = self.dir.join(format!("{file}.tmp"));
        if let Err(e) = write(&tmp) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        fs::rename(&tmp, self.dir.join(file))?;
        sync_dir(&self.dir);
        Ok(())
    }

    /// Remove `.tmp` leftovers and segment files the manifest doesn't
    /// reference (debris of interrupted writes/replacements/drops).
    fn clean_orphans(&self) -> Result<(), DiskError> {
        let state = self.state.lock();
        let referenced: std::collections::HashSet<&str> =
            state.tables.values().map(|e| e.file.as_str()).collect();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            let fname = entry.file_name();
            let Some(fname) = fname.to_str() else {
                continue;
            };
            let orphan =
                fname.ends_with(".tmp") || (fname.ends_with(".seg") && !referenced.contains(fname));
            if orphan {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Committed table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.state.lock().tables.keys().cloned().collect();
        v.sort();
        v
    }

    pub fn contains(&self, name: &str) -> bool {
        self.state
            .lock()
            .tables
            .contains_key(&name.to_ascii_lowercase())
    }

    /// Committed row count for `name`, if present.
    pub fn rows_of(&self, name: &str) -> Option<u64> {
        self.state
            .lock()
            .tables
            .get(&name.to_ascii_lowercase())
            .map(|e| e.rows)
    }

    /// Decode a committed table into memory (strings remapped into
    /// `interner`, zone map attached).
    pub fn load_table(
        &self,
        name: &str,
        interner: &Arc<Interner>,
    ) -> Result<OpenedSegment, DiskError> {
        let key = name.to_ascii_lowercase();
        let entry = self
            .state
            .lock()
            .tables
            .get(&key)
            .cloned()
            .ok_or_else(|| DiskError::NotFound(name.to_string()))?;
        let opened = read_segment(&self.dir.join(&entry.file), &key, interner)?;
        if opened.table.num_rows() as u64 != entry.rows {
            return Err(DiskError::Corrupt(format!(
                "{}: segment has {} rows, manifest says {}",
                entry.file,
                opened.table.num_rows(),
                entry.rows
            )));
        }
        Ok(opened)
    }

    /// Create (or replace) the persistent table `name` by streaming rows
    /// into a [`SegmentWriter`]. The write is crash-safe: the table
    /// commits — old contents intact until then — only when this returns
    /// `Ok`. Returns the committed row count.
    pub fn create_table_with(
        &self,
        name: &str,
        schema: Schema,
        page_rows: usize,
        fill: impl FnOnce(&mut SegmentWriter) -> Result<(), DiskError>,
    ) -> Result<u64, DiskError> {
        let key = name.to_ascii_lowercase();
        if !valid_table_name(&key) {
            return Err(DiskError::InvalidName(name.to_string()));
        }
        let mut state = self.state.lock();
        state.seq += 1;
        let final_name = format!("{key}.{}.seg", state.seq);
        let mut rows = 0;
        self.commit_file(&final_name, |tmp| {
            let mut w = SegmentWriter::create(tmp, schema, page_rows)?;
            fill(&mut w)?;
            rows = w.finish()?;
            Ok(())
        })?;
        let old = state.tables.insert(
            key,
            Entry {
                file: final_name,
                rows,
            },
        );
        self.commit_manifest(&state)?;
        // Only after the commit point is the replaced file dead.
        if let Some(old) = old {
            let _ = fs::remove_file(self.dir.join(&old.file));
        }
        Ok(rows)
    }

    /// Persist an in-memory table under its own name (default page size).
    pub fn save_table(&self, table: &Table) -> Result<u64, DiskError> {
        let interner = table.interner().clone();
        self.create_table_with(table.name(), table.schema().clone(), PAGE_ROWS, |w| {
            for row in 0..table.cardinality() {
                for (c, field) in table.schema().fields().iter().enumerate() {
                    match field.dtype {
                        DataType::Int => w.push_int(c, table.column(c).int_at(row)),
                        DataType::Float => w.push_float(c, table.column(c).float_at(row)),
                        DataType::Str => {
                            let s = interner.resolve(table.column(c).code_at(row));
                            w.push_str(c, &s);
                        }
                    }
                }
                w.end_row()?;
            }
            Ok(())
        })
    }

    /// Drop a committed table: the manifest entry goes first (the commit
    /// point), the segment file after. Returns whether the table existed.
    pub fn remove_table(&self, name: &str) -> Result<bool, DiskError> {
        let key = name.to_ascii_lowercase();
        let mut state = self.state.lock();
        let Some(old) = state.tables.remove(&key) else {
            return Ok(false);
        };
        self.commit_manifest(&state)?;
        let _ = fs::remove_file(self.dir.join(&old.file));
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema;
    use crate::value::Value;

    fn tmp_dir(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("skinner_store_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    fn fill_ints(w: &mut SegmentWriter, n: i64) -> Result<(), DiskError> {
        for i in 0..n {
            w.push_row(&[Value::Int(i)])?;
        }
        Ok(())
    }

    #[test]
    fn create_load_replace_drop() {
        let dir = tmp_dir("crud");
        let store = DiskStore::open(&dir).unwrap();
        store
            .create_table_with("t", schema![("x", Int)], 4, |w| fill_ints(w, 10))
            .unwrap();
        assert_eq!(store.table_names(), vec!["t"]);
        assert_eq!(store.rows_of("T"), Some(10));
        let interner = Arc::new(Interner::new());
        assert_eq!(
            store.load_table("t", &interner).unwrap().table.num_rows(),
            10
        );
        // Replace: new contents visible, exactly one segment file remains.
        store
            .create_table_with("T", schema![("x", Int)], 4, |w| fill_ints(w, 3))
            .unwrap();
        assert_eq!(
            store.load_table("t", &interner).unwrap().table.num_rows(),
            3
        );
        let segs = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_str()
                    .unwrap()
                    .ends_with(".seg")
            })
            .count();
        assert_eq!(segs, 1, "replaced segment file must be deleted");
        assert!(store.remove_table("t").unwrap());
        assert!(!store.remove_table("t").unwrap());
        assert!(matches!(
            store.load_table("t", &interner),
            Err(DiskError::NotFound(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_sees_committed_tables() {
        let dir = tmp_dir("reopen");
        {
            let store = DiskStore::open(&dir).unwrap();
            store
                .create_table_with("a", schema![("x", Int)], 8, |w| fill_ints(w, 20))
                .unwrap();
        }
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.table_names(), vec!["a"]);
        let interner = Arc::new(Interner::new());
        let t = store.load_table("a", &interner).unwrap().table;
        assert_eq!(t.num_rows(), 20);
        assert_eq!(t.value(19, 0), Value::Int(19));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphans_cleaned_on_open() {
        let dir = tmp_dir("orphans");
        {
            let store = DiskStore::open(&dir).unwrap();
            store
                .create_table_with("keep", schema![("x", Int)], 8, |w| fill_ints(w, 5))
                .unwrap();
        }
        // Simulate an interrupted write: a stray tmp and an unreferenced seg.
        fs::write(dir.join("stray.9.seg.tmp"), b"partial").unwrap();
        fs::write(dir.join("ghost.2.seg"), b"uncommitted").unwrap();
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.table_names(), vec!["keep"]);
        assert!(!dir.join("stray.9.seg.tmp").exists());
        assert!(!dir.join("ghost.2.seg").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_fill_leaves_no_trace() {
        let dir = tmp_dir("failfill");
        let store = DiskStore::open(&dir).unwrap();
        store
            .create_table_with("t", schema![("x", Int)], 4, |w| fill_ints(w, 7))
            .unwrap();
        let r = store.create_table_with("t", schema![("x", Int)], 4, |w| {
            fill_ints(w, 2)?;
            Err(DiskError::Corrupt("simulated loader failure".into()))
        });
        assert!(r.is_err());
        // Old contents still committed; no tmp debris.
        let interner = Arc::new(Interner::new());
        assert_eq!(
            store.load_table("t", &interner).unwrap().table.num_rows(),
            7
        );
        assert!(fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .file_name()
            .to_str()
            .unwrap()
            .ends_with(".tmp")));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_names_rejected() {
        let dir = tmp_dir("names");
        let store = DiskStore::open(&dir).unwrap();
        for bad in ["", "a/b", "a b", "../evil", "dot.dot"] {
            assert!(matches!(
                store.create_table_with(bad, schema![("x", Int)], 4, |_| Ok(())),
                Err(DiskError::InvalidName(_))
            ));
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
