//! Named table collections sharing one string interner.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::disk::{DiskError, DiskStore, PAGE_ROWS};
use crate::interner::Interner;
use crate::schema::Schema;
use crate::table::{Table, TableBuilder};

/// Callback invoked with a table's [`uid`](Table::uid) and lowercased name
/// when it leaves the catalog (dropped, or replaced by a same-named
/// registration). Caches keyed by table identity register one to purge
/// eagerly; the name lets caches that also track *persisted* state (whose
/// entries predate this process and carry no live uid) purge by name.
/// Returns whether the observer is still alive; `false` deregisters it —
/// observers that capture weak references outlive their owners by at most
/// one drop.
type DropObserver = Box<dyn Fn(u64, &str) -> bool + Send + Sync>;

/// A catalog of tables. All tables in a catalog share one [`Interner`], which
/// makes string comparisons across tables code comparisons.
#[derive(Default)]
pub struct Catalog {
    interner: Arc<Interner>,
    tables: RwLock<HashMap<String, Arc<Table>>>,
    drop_observers: RwLock<Vec<DropObserver>>,
    /// Attached persistent store, if any (see [`Catalog::attach_disk`]).
    disk: RwLock<Option<Arc<DiskStore>>>,
    /// uid → persistent name for every catalog table whose current
    /// incarnation is backed by a committed segment. The disk drop
    /// observer consults this to decide whether leaving the catalog means
    /// deleting files; persist/replace flows edit it *before* registering
    /// so a fresh segment is never mistaken for a stale one.
    persistent: Arc<RwLock<HashMap<u64, String>>>,
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog")
            .field("tables", &self.table_names())
            .field("drop_observers", &self.drop_observers.read().len())
            .finish()
    }
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a callback run (outside the table-map lock) with the uid
    /// and lowercased name of every table that leaves the catalog — via
    /// [`Catalog::drop_table`] or by being replaced under its name in
    /// [`Catalog::register`]. This is the one choke point for uid-keyed
    /// caches to purge through, so no drop path can bypass them.
    ///
    /// The callback returns whether it is still alive: return `false`
    /// (e.g. when a captured `Weak` no longer upgrades) and it is removed
    /// — long-lived catalogs shared by many short-lived owners do not
    /// accumulate dead observers. Callbacks run under the observer-list
    /// lock and must not register/drop tables themselves.
    pub fn on_table_drop(&self, observer: impl Fn(u64, &str) -> bool + Send + Sync + 'static) {
        self.drop_observers.write().push(Box::new(observer));
    }

    fn notify_dropped(&self, uid: u64, name: &str) {
        self.drop_observers
            .write()
            .retain(|observer| observer(uid, name));
    }

    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Start building a table registered under `name` when finished via
    /// [`Catalog::register`].
    pub fn builder(&self, name: impl Into<String>, schema: Schema) -> TableBuilder {
        TableBuilder::new(name, schema, self.interner.clone())
    }

    /// Register (or replace) a table. Names are case-insensitive. A
    /// replaced table counts as dropped for [`Catalog::on_table_drop`]
    /// observers.
    pub fn register(&self, table: Table) -> Arc<Table> {
        let arc = Arc::new(table);
        let key = arc.name().to_ascii_lowercase();
        let replaced = self.tables.write().insert(key.clone(), arc.clone());
        if let Some(old) = replaced {
            self.notify_dropped(old.uid(), &key);
        }
        arc
    }

    /// Fetch a table by (case-insensitive) name.
    pub fn get(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.read().get(&name.to_ascii_lowercase()).cloned()
    }

    /// Remove a table (used for temp tables of decomposed queries).
    /// Notifies [`Catalog::on_table_drop`] observers.
    pub fn drop_table(&self, name: &str) -> bool {
        let key = name.to_ascii_lowercase();
        let removed = self.tables.write().remove(&key);
        match removed {
            Some(t) => {
                self.notify_dropped(t.uid(), &key);
                true
            }
            None => false,
        }
    }

    /// Bytes held by the join indexes of all registered tables (see
    /// [`Table::join_index`]).
    pub fn index_bytes(&self) -> usize {
        self.tables.read().values().map(|t| t.index_bytes()).sum()
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.read().keys().cloned().collect();
        v.sort();
        v
    }

    // ------------------------------------------------------------------
    // Persistence
    // ------------------------------------------------------------------

    /// Attach a persistent data directory: open (or create) the
    /// [`DiskStore`] at `dir`, decode every committed table into the
    /// catalog, and install the drop observer that deletes a persistent
    /// table's segment and manifest entry when it leaves the catalog —
    /// whether via [`Catalog::drop_table`] or by being replaced under its
    /// name. Returns the names of the tables loaded, sorted.
    ///
    /// At most one directory can be attached per catalog.
    pub fn attach_disk(
        &self,
        dir: impl Into<std::path::PathBuf>,
    ) -> Result<Vec<String>, DiskError> {
        let store = DiskStore::open(dir)?;
        {
            let mut slot = self.disk.write();
            if let Some(old) = slot.as_ref() {
                return Err(DiskError::AlreadyAttached(old.dir().display().to_string()));
            }
            *slot = Some(store.clone());
        }
        // The observer holds only weak handles: when the catalog (and with
        // it the store and uid map) goes away, it reports itself dead.
        let store_weak = Arc::downgrade(&store);
        let persistent_weak = Arc::downgrade(&self.persistent);
        self.on_table_drop(move |uid, _name| {
            let (Some(store), Some(persistent)) = (store_weak.upgrade(), persistent_weak.upgrade())
            else {
                return false;
            };
            if let Some(name) = persistent.write().remove(&uid) {
                // Best effort: a failed delete leaves an orphan that the
                // next open cleans up; it must not poison the drop path.
                let _ = store.remove_table(&name);
            }
            true
        });
        let names = store.table_names();
        for name in &names {
            let opened = store.load_table(name, &self.interner)?;
            self.persistent
                .write()
                .insert(opened.table.uid(), name.clone());
            self.register(opened.table);
        }
        Ok(names)
    }

    /// The attached persistent store, if any.
    pub fn disk_store(&self) -> Option<Arc<DiskStore>> {
        self.disk.read().clone()
    }

    /// Whether the current incarnation of `name` is backed by a committed
    /// segment.
    pub fn is_persistent(&self, name: &str) -> bool {
        match self.get(name) {
            Some(t) => self.persistent.read().contains_key(&t.uid()),
            None => false,
        }
    }

    /// Write the in-memory table `name` to the attached data directory and
    /// swap in the decoded, zone-mapped copy. Returns the committed row
    /// count.
    pub fn persist_table(&self, name: &str) -> Result<u64, DiskError> {
        let store = self.disk_store().ok_or(DiskError::NoDataDir)?;
        let table = self
            .get(name)
            .ok_or_else(|| DiskError::NotFound(name.to_string()))?;
        let rows = store.save_table(&table)?;
        let opened = store.load_table(table.name(), &self.interner)?;
        self.swap_in_persistent(opened.table);
        Ok(rows)
    }

    /// Bulk-load a CSV straight into the attached data directory as table
    /// `name` (see [`crate::disk::bulk_load_csv`]) and open it in the
    /// catalog. Returns the registered table.
    pub fn bulk_load_csv(
        &self,
        name: &str,
        reader: impl std::io::BufRead,
        schema: Option<Schema>,
    ) -> Result<Arc<Table>, DiskError> {
        let store = self.disk_store().ok_or(DiskError::NoDataDir)?;
        crate::disk::loader::bulk_load_csv(&store, name, reader, schema, PAGE_ROWS)?;
        let opened = store.load_table(name, &self.interner)?;
        Ok(self.swap_in_persistent(opened.table))
    }

    /// Register a freshly decoded persistent table, retiring any previous
    /// uid recorded under its name. The map edit happens before
    /// [`Catalog::register`] so the replacement notification for the old
    /// incarnation cannot delete the segment that now backs the new one.
    fn swap_in_persistent(&self, table: Table) -> Arc<Table> {
        let key = table.name().to_ascii_lowercase();
        {
            let mut persistent = self.persistent.write();
            persistent.retain(|_, n| *n != key);
            persistent.insert(table.uid(), key);
        }
        self.register(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema;
    use crate::value::Value;

    #[test]
    fn register_and_lookup_case_insensitive() {
        let cat = Catalog::new();
        let mut b = cat.builder("Users", schema![("id", Int)]);
        b.push_row(&[Value::Int(1)]);
        cat.register(b.finish());
        assert!(cat.get("users").is_some());
        assert!(cat.get("USERS").is_some());
        assert!(cat.get("nope").is_none());
    }

    #[test]
    fn tables_share_interner() {
        let cat = Catalog::new();
        let mut a = cat.builder("a", schema![("s", Str)]);
        a.push_row(&[Value::from("shared")]);
        let a = cat.register(a.finish());
        let mut b = cat.builder("b", schema![("s", Str)]);
        b.push_row(&[Value::from("shared")]);
        let b = cat.register(b.finish());
        assert_eq!(a.column(0).code_at(0), b.column(0).code_at(0));
    }

    #[test]
    fn drop_table_removes() {
        let cat = Catalog::new();
        let b = cat.builder("tmp", schema![("id", Int)]);
        cat.register(b.finish());
        assert!(cat.drop_table("TMP"));
        assert!(cat.get("tmp").is_none());
        assert!(!cat.drop_table("tmp"));
    }

    #[test]
    fn drop_observers_see_drops_and_replacements() {
        use parking_lot::Mutex;
        use std::sync::atomic::{AtomicU64, Ordering};
        let cat = Catalog::new();
        let dropped = Arc::new(AtomicU64::new(u64::MAX));
        let named = Arc::new(Mutex::new(String::new()));
        let count = Arc::new(AtomicU64::new(0));
        {
            let (dropped, named, count) = (dropped.clone(), named.clone(), count.clone());
            cat.on_table_drop(move |uid, name| {
                dropped.store(uid, Ordering::Relaxed);
                *named.lock() = name.to_string();
                count.fetch_add(1, Ordering::Relaxed);
                true
            });
        }
        let t = cat.register(cat.builder("T", schema![("id", Int)]).finish());
        assert_eq!(count.load(Ordering::Relaxed), 0, "fresh register is silent");
        // Replacement under the same name notifies with the OLD uid and
        // the lowercased name.
        let old_uid = t.uid();
        cat.register(cat.builder("t", schema![("id", Int)]).finish());
        assert_eq!(dropped.load(Ordering::Relaxed), old_uid);
        assert_eq!(*named.lock(), "t");
        // Explicit drop notifies with the current uid.
        let cur = cat.get("t").unwrap().uid();
        assert!(cat.drop_table("t"));
        assert_eq!(dropped.load(Ordering::Relaxed), cur);
        assert_eq!(count.load(Ordering::Relaxed), 2);
        // Dropping a missing table stays silent.
        assert!(!cat.drop_table("t"));
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn dead_observers_self_deregister() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cat = Catalog::new();
        // An owner that goes away: the observer holds only a Weak and
        // asks to be removed once its owner is gone.
        let owner = Arc::new(AtomicU64::new(u64::MAX));
        {
            let weak = Arc::downgrade(&owner);
            cat.on_table_drop(move |uid, _name| match weak.upgrade() {
                Some(o) => {
                    o.store(uid, Ordering::Relaxed);
                    true
                }
                None => false,
            });
        }
        let t = cat.register(cat.builder("t", schema![("id", Int)]).finish());
        let uid = t.uid();
        assert!(cat.drop_table("t"));
        assert_eq!(owner.load(Ordering::Relaxed), uid, "live observer fired");
        drop(owner);
        assert_eq!(cat.drop_observers.read().len(), 1);
        cat.register(cat.builder("t", schema![("id", Int)]).finish());
        assert!(cat.drop_table("t"));
        assert_eq!(
            cat.drop_observers.read().len(),
            0,
            "dead observer removed on the next drop"
        );
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("skinner_cat_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn seg_files(dir: &std::path::Path) -> Vec<String> {
        let mut v: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| {
                let n = e.unwrap().file_name().to_str().unwrap().to_string();
                n.ends_with(".seg").then_some(n)
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn persist_reload_drop_cycle() {
        let dir = tmp_dir("cycle");
        {
            let cat = Catalog::new();
            cat.attach_disk(&dir).unwrap();
            let mut b = cat.builder("t", schema![("id", Int), ("tag", Str)]);
            b.push_row(&[Value::Int(1), Value::from("x")]);
            b.push_row(&[Value::Int(2), Value::from("y")]);
            cat.register(b.finish());
            assert!(!cat.is_persistent("t"));
            assert_eq!(cat.persist_table("t").unwrap(), 2);
            assert!(cat.is_persistent("t"));
            // The swapped-in copy is the decoded segment: zones attached.
            assert!(cat.get("t").unwrap().zones().is_some());
        }
        // Fresh catalog, same dir: table comes back with identical data.
        let cat = Catalog::new();
        assert_eq!(cat.attach_disk(&dir).unwrap(), vec!["t"]);
        let t = cat.get("t").unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.value(1, 1).as_str(), Some("y"));
        // Dropping the persistent table removes its files + manifest entry.
        assert_eq!(seg_files(&dir).len(), 1);
        assert!(cat.drop_table("t"));
        assert!(seg_files(&dir).is_empty(), "segment file must be deleted");
        assert!(cat.disk_store().unwrap().table_names().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn churn_leaves_no_orphan_segments() {
        let dir = tmp_dir("churn");
        let cat = Catalog::new();
        cat.attach_disk(&dir).unwrap();
        // Create/persist/replace/drop the same name repeatedly; at every
        // point at most one segment file may exist for it.
        for round in 0..5 {
            let mut b = cat.builder("churny", schema![("id", Int)]);
            for i in 0..=round {
                b.push_row(&[Value::Int(i)]);
            }
            cat.register(b.finish());
            cat.persist_table("churny").unwrap();
            assert_eq!(seg_files(&dir).len(), 1, "round {round}");
        }
        // Replacing a persistent table with a plain in-memory one must
        // delete the on-disk incarnation (it left the catalog).
        let b = cat.builder("churny", schema![("id", Int)]);
        cat.register(b.finish());
        assert!(seg_files(&dir).is_empty(), "replace must delete segments");
        assert!(!cat.is_persistent("churny"));
        assert!(cat.disk_store().unwrap().table_names().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bulk_load_registers_zoned_table() {
        let dir = tmp_dir("bulk");
        let cat = Catalog::new();
        cat.attach_disk(&dir).unwrap();
        let t = cat
            .bulk_load_csv(
                "m",
                std::io::BufReader::new("id,tag\n1,a\n2,b\n3,a\n".as_bytes()),
                None,
            )
            .unwrap();
        assert_eq!(t.num_rows(), 3);
        assert!(t.zones().is_some());
        assert!(cat.is_persistent("m"));
        // Strings went through the catalog interner.
        assert_eq!(cat.interner().lookup("a"), Some(t.column(1).code_at(0)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persistence_errors() {
        let cat = Catalog::new();
        assert!(matches!(cat.persist_table("t"), Err(DiskError::NoDataDir)));
        let dir = tmp_dir("errs");
        cat.attach_disk(&dir).unwrap();
        assert!(matches!(
            cat.attach_disk(&dir),
            Err(DiskError::AlreadyAttached(_))
        ));
        assert!(matches!(
            cat.persist_table("missing"),
            Err(DiskError::NotFound(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn table_names_sorted() {
        let cat = Catalog::new();
        for n in ["zeta", "alpha", "mid"] {
            let b = cat.builder(n, schema![("id", Int)]);
            cat.register(b.finish());
        }
        assert_eq!(cat.table_names(), vec!["alpha", "mid", "zeta"]);
    }
}
