//! Durability and equivalence tests for the persistent storage subsystem.
//!
//! Two bars, both driven through the public `Database` facade:
//!
//! * **Registry-wide equivalence** — every registered strategy must return
//!   bit-identical rows on a disk-backed (zone-mapped, segment-decoded)
//!   table and on the equivalent in-memory table, at 1/2/4/8 worker
//!   threads. Zone-map pruning and range-split parallel scans are pure
//!   performance machinery; any visible difference is a bug.
//! * **Crash recovery** — a process that dies mid-write (a `.seg.tmp` never
//!   renamed) must leave the directory openable with exactly the committed
//!   tables, their segment bytes untouched; a committed segment that rots
//!   on disk must be *detected*, never silently served.

use skinnerdb::skinner_exec::ReferenceStrategy;
use skinnerdb::{DataType, Database, DbError, DiskStore, Value};

fn unique_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("skinner_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A dataset wide enough to exercise every column type and selective
/// enough that zone maps actually prune pages (ids are sorted, so range
/// predicates on `id` skip most of the table).
fn create_tables(db: &Database) {
    db.create_table(
        "fact",
        &[
            ("id", DataType::Int),
            ("d1", DataType::Int),
            ("v", DataType::Float),
            ("tag", DataType::Str),
        ],
        (0..3000)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 12),
                    Value::Float((i as f64) * 0.25),
                    Value::from(if i % 3 == 0 { "alpha" } else { "beta" }),
                ]
            })
            .collect(),
    )
    .unwrap();
    db.create_table(
        "dim",
        &[("id", DataType::Int), ("label", DataType::Str)],
        (0..12)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::from(format!("label-{}", i % 4).as_str()),
                ]
            })
            .collect(),
    )
    .unwrap();
}

const QUERIES: &[&str] = &[
    // Selective range on the sorted column: most pages zone-pruned.
    "SELECT f.id, f.v FROM fact f WHERE f.id < 40",
    // Join with per-table unary predicates on both sides.
    "SELECT f.id, d.label FROM fact f, dim d \
     WHERE f.d1 = d.id AND f.id BETWEEN 100 AND 160 AND d.label = 'label-1'",
    // String equality (dictionary codes) + float range + aggregation.
    "SELECT d.label, COUNT(*) c, SUM(f.v) s FROM fact f, dim d \
     WHERE f.d1 = d.id AND f.tag = 'alpha' AND f.v < 100.0 \
     GROUP BY d.label ORDER BY d.label",
    // Unprunable disjunction mixing columns.
    "SELECT f.id FROM fact f WHERE f.id < 25 OR f.tag = 'alpha' AND f.id > 2950",
];

#[test]
fn disk_backed_tables_match_memory_for_every_strategy_and_thread_count() {
    let dir = unique_dir("equiv");
    let mem = Database::new();
    create_tables(&mem);

    let disk = Database::open(&dir).unwrap();
    create_tables(&disk);
    disk.persist_table("fact").unwrap();
    disk.persist_table("dim").unwrap();
    assert!(disk.catalog().get("fact").unwrap().zones().is_some());

    for sql in QUERIES {
        let expected = mem
            .run_script(sql, &ReferenceStrategy, &mem.exec_context())
            .unwrap()
            .result
            .canonical_rows();
        for name in disk.strategies().names() {
            let strategy = disk.strategies().get(&name).unwrap();
            for threads in [1usize, 2, 4, 8] {
                disk.set_default_threads(threads);
                let out = disk
                    .run_script(sql, strategy.as_ref(), &disk.exec_context())
                    .unwrap_or_else(|e| panic!("{name} failed on {sql}: {e}"));
                assert!(!out.timed_out, "{name} timed out on {sql} ({threads} thr)");
                assert_eq!(
                    out.result.canonical_rows(),
                    expected,
                    "{name} disagrees on disk-backed {sql} at {threads} threads"
                );
            }
        }
    }
    // The zone-mapped scan actually skipped pages on the selective query.
    let out = disk.session().run_script(QUERIES[0]).unwrap();
    assert!(
        out.metrics.pages_skipped > 0,
        "selective scan must skip zone-mapped pages"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopened_directory_answers_identically() {
    let dir = unique_dir("reopen");
    let sql = QUERIES[2];
    let expected;
    {
        let db = Database::open(&dir).unwrap();
        create_tables(&db);
        db.persist_table("fact").unwrap();
        db.persist_table("dim").unwrap();
        expected = db.query(sql).unwrap().canonical_rows();
    }
    let db = Database::open(&dir).unwrap();
    assert_eq!(db.query(sql).unwrap().canonical_rows(), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_write_recovers_committed_tables_bit_identically() {
    let dir = unique_dir("crash");
    let expected;
    {
        let db = Database::open(&dir).unwrap();
        create_tables(&db);
        db.persist_table("fact").unwrap();
        expected = db.query(QUERIES[0]).unwrap().canonical_rows();
    }
    // Simulate a crash mid-way through persisting another table: a temp
    // segment exists but was never renamed into place, and the manifest
    // never learned about it.
    std::fs::write(dir.join("dim.999.seg.tmp"), b"partial garbage").unwrap();
    // Also an unreferenced `.seg` (rename completed, manifest commit did
    // not): must be treated as uncommitted and swept.
    std::fs::write(dir.join("ghost.998.seg"), b"never committed").unwrap();

    let committed: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("seg"))
        .filter(|p| !p.to_string_lossy().contains("ghost"))
        .collect();
    assert_eq!(committed.len(), 1);
    let bytes_before = std::fs::read(&committed[0]).unwrap();

    let db = Database::open(&dir).unwrap();
    assert!(db.catalog().get("fact").is_some());
    assert!(
        db.catalog().get("dim").is_none(),
        "uncommitted table leaked"
    );
    assert_eq!(db.query(QUERIES[0]).unwrap().canonical_rows(), expected);
    // The committed segment's bytes survived recovery untouched, and the
    // crash debris is gone.
    assert_eq!(std::fs::read(&committed[0]).unwrap(), bytes_before);
    assert!(!dir.join("dim.999.seg.tmp").exists());
    assert!(!dir.join("ghost.998.seg").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_committed_segment_is_detected_not_served() {
    let dir = unique_dir("corrupt");
    {
        let db = Database::open(&dir).unwrap();
        create_tables(&db);
        db.persist_table("fact").unwrap();
    }
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().and_then(|x| x.to_str()) == Some("seg"))
        .unwrap();
    // Flip one byte in the middle of the committed segment.
    let mut bytes = std::fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&seg, bytes).unwrap();

    match Database::open(&dir) {
        Err(DbError::Storage(_)) => {}
        Err(e) => panic!("expected a storage error at open, got {e}"),
        Ok(_) => panic!("corrupt segment must fail checksum at open"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// TPC-H `lineitem` (scale 0.002) as CSV: header first, values by
/// `Display` (floats round-trip), strings quoted where they hold a comma,
/// quote or line break.
fn lineitem_csv(t: &skinnerdb::skinner_storage::Table) -> Vec<u8> {
    let names: Vec<&str> = t
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .collect();
    let mut csv = names.join(",");
    for r in 0..t.num_rows() as u32 {
        csv.push('\n');
        for (i, v) in t.row_values(r).iter().enumerate() {
            if i > 0 {
                csv.push(',');
            }
            match v {
                Value::Str(s) if s.contains([',', '"', '\n']) => {
                    csv.push_str(&format!("\"{}\"", s.replace('"', "\"\"")));
                }
                v => csv.push_str(&v.to_string()),
            }
        }
    }
    csv.push('\n');
    csv.into_bytes()
}

/// The one committed segment file in `dir`.
fn segment_bytes(dir: &std::path::Path) -> Vec<u8> {
    let segs: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("seg"))
        .collect();
    assert_eq!(segs.len(), 1, "{segs:?}");
    std::fs::read(&segs[0]).unwrap()
}

/// The checksum a segment stores in its last 8 bytes.
fn stored_checksum(seg: &[u8]) -> u64 {
    u64::from_le_bytes(seg[seg.len() - 8..].try_into().unwrap())
}

/// The `SKSEG01` file of the same table as the `SKSEG02` file `seg`: the
/// first format's magic, and an FNV-1a 64 trailer over every byte before
/// it.
fn as_v1(seg: &[u8]) -> Vec<u8> {
    let mut v1 = seg.to_vec();
    let n = v1.len();
    v1[..8].copy_from_slice(b"SKSEG01\n");
    let sum = v1[..n - 8].iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    v1[n - 8..].copy_from_slice(&sum.to_le_bytes());
    v1
}

/// Segment bytes of TPC-H `lineitem` through every write path: the CSV
/// bulk-loaded with inferred types, the CSV under the inferred schema, and
/// the generated table saved directly give byte-identical segments, with
/// a pinned checksum, so any drift in parsing, inference, page encoding or
/// the file format fails here. The same file under the first format's
/// magic and checksum reproduces that format's pin — so every byte but
/// those two is what the first format wrote — and opens to the same table.
#[test]
fn lineitem_segments_are_pinned_on_every_write_path() {
    use skinnerdb::skinner_storage::{bulk_load_csv, disk::PAGE_ROWS, Interner};
    use skinnerdb::skinner_workloads::tpch::{generate, TpchConfig};
    use std::sync::Arc;

    const CHECKSUM: u64 = 0xbe9b_c187_51da_748f;
    const CHECKSUM_V1: u64 = 0xa2ed_e214_2795_f761;

    let w = generate(&TpchConfig {
        scale: 0.002,
        seed: 0x7C4,
    });
    let table = w.catalog.get("lineitem").unwrap();
    let csv = lineitem_csv(&table);
    let write = |tag: &str, f: &dyn Fn(&DiskStore)| {
        let dir = unique_dir(tag);
        f(&DiskStore::open(&dir).unwrap());
        let bytes = segment_bytes(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    };

    let inferred = write("seg_inferred", &|store| {
        bulk_load_csv(store, "lineitem", &csv[..], None, PAGE_ROWS).unwrap();
    });
    let schema = {
        let dir = unique_dir("seg_schema");
        let store = DiskStore::open(&dir).unwrap();
        bulk_load_csv(&store, "lineitem", &csv[..], None, PAGE_ROWS).unwrap();
        let t = store
            .load_table("lineitem", &Arc::new(Interner::new()))
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        t.table.schema().clone()
    };
    let explicit = write("seg_explicit", &|store| {
        bulk_load_csv(store, "lineitem", &csv[..], Some(schema.clone()), PAGE_ROWS).unwrap();
    });
    let saved = write("seg_saved", &|store| {
        store.save_table(&table).unwrap();
    });

    assert_eq!(stored_checksum(&inferred), CHECKSUM, "inferred CSV path");
    assert_eq!(stored_checksum(&explicit), CHECKSUM, "explicit CSV path");
    assert_eq!(stored_checksum(&saved), CHECKSUM, "save_table");
    assert!(
        inferred == explicit,
        "inferred and explicit CSV paths differ"
    );
    assert!(inferred == saved, "CSV and save_table paths differ");

    let v1 = as_v1(&saved);
    assert_eq!(stored_checksum(&v1), CHECKSUM_V1, "the SKSEG01 conversion");
    let dir = unique_dir("seg_v1");
    let store = DiskStore::open(&dir).unwrap();
    store.save_table(&table).unwrap();
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().and_then(|x| x.to_str()) == Some("seg"))
        .unwrap();
    std::fs::write(&seg, &v1).unwrap();
    let reopened = DiskStore::open(&dir).unwrap();
    let opened = reopened
        .load_table("lineitem", &Arc::new(Interner::new()))
        .unwrap()
        .table;
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(opened.schema(), table.schema());
    assert_eq!(opened.num_rows(), table.num_rows());
    for r in 0..table.num_rows() as u32 {
        assert_eq!(opened.row_values(r), table.row_values(r), "row {r}");
    }
}
