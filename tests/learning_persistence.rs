//! Durable cross-query learning, end to end over [`Database`].
//!
//! A database opened on a data directory persists its learned tree priors
//! there and reloads them on the next open — so the first execution of a
//! known template after a "restart" (new `Database` on the same dir)
//! warm-starts instead of learning from scratch. Identity is the *content*
//! of the tables (schema + rows), not process-local uids: re-created
//! tables with identical content keep their priors, different content or
//! an intervening `DROP TABLE` refuses them.

use skinnerdb::{DataType, Database, Value};

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "skinner_learnpersist_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The same logical tables any "process" of this test database creates.
/// Content-identical across calls, so fingerprints match across restarts.
fn create_tables(db: &Database, fact_rows: i64) {
    db.create_table(
        "fact",
        &[
            ("id", DataType::Int),
            ("d1", DataType::Int),
            ("d2", DataType::Int),
        ],
        (0..fact_rows)
            .map(|i| vec![Value::Int(i), Value::Int(i % 8), Value::Int(i % 5)])
            .collect(),
    )
    .unwrap();
    db.create_table(
        "dim1",
        &[("id", DataType::Int), ("label", DataType::Str)],
        (0..8)
            .map(|i| vec![Value::Int(i), Value::from(format!("l{}", i % 3).as_str())])
            .collect(),
    )
    .unwrap();
    db.create_table(
        "dim2",
        &[("id", DataType::Int), ("w", DataType::Int)],
        (0..5)
            .map(|i| vec![Value::Int(i), Value::Int(i * 3)])
            .collect(),
    )
    .unwrap();
}

const SQL: &str = "SELECT f.id FROM fact f, dim1 a, dim2 b \
                   WHERE f.d1 = a.id AND f.d2 = b.id AND a.label = 'l1'";

#[test]
fn priors_survive_a_restart_and_results_stay_identical() {
    let dir = fresh_dir("restart");

    // Process 1: learn the template, flush on "shutdown".
    let rows_before;
    {
        let db = Database::open(&dir).unwrap();
        create_tables(&db, 120);
        db.set_learning_cache(true);
        let cold = db.query(SQL).unwrap();
        rows_before = cold.canonical_rows();
        db.query(SQL).unwrap();
        let stats = db.learning_cache_stats();
        assert!(stats.published >= 1, "template must be learned: {stats:?}");
        assert!(stats.hits >= 1, "second run must warm-start: {stats:?}");
        assert!(
            db.flush_learning_cache(),
            "data dir attached, flush must write"
        );
    }

    // Process 2: same data dir, content-identical tables, zero shared
    // process state. The very FIRST run of the template must hit.
    {
        let db = Database::open(&dir).unwrap();
        create_tables(&db, 120);
        db.set_learning_cache(true);
        let loaded = db.learning_cache_stats();
        assert!(loaded.loaded >= 1, "persisted priors must load: {loaded:?}");
        let warm = db.query(SQL).unwrap();
        let stats = db.learning_cache_stats();
        assert!(
            stats.hits >= 1,
            "first post-restart run must warm-start from disk: {stats:?}"
        );
        assert_eq!(
            warm.canonical_rows(),
            rows_before,
            "warm-started results must be identical to the cold run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite regression: `DROP TABLE` must tombstone the on-disk prior,
/// not just purge memory — a recreate under the same name in a LATER
/// process must start cold even with identical content.
#[test]
fn drop_tombstones_the_persisted_prior_across_restart() {
    let dir = fresh_dir("tombstone");
    {
        let db = Database::open(&dir).unwrap();
        create_tables(&db, 120);
        db.set_learning_cache(true);
        db.query(SQL).unwrap();
        db.flush_learning_cache();
        // The drop purges the entry AND flushes the tombstone to disk.
        db.catalog().drop_table("dim1");
        assert!(db.learning_cache_stats().invalidations >= 1);
    }
    {
        let db = Database::open(&dir).unwrap();
        create_tables(&db, 120); // same name, same content
        db.set_learning_cache(true);
        assert_eq!(
            db.learning_cache_stats().loaded,
            0,
            "dropped template's prior must be tombstoned on disk"
        );
        db.query(SQL).unwrap();
        assert_eq!(
            db.learning_cache_stats().hits,
            0,
            "recreate-after-drop must never warm-start from old data"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Content is identity: a restart that re-creates a table with DIFFERENT
/// rows refuses the stale prior (fingerprint mismatch → invalidation) and
/// re-learns — correct rows either way.
#[test]
fn different_content_after_restart_refuses_the_stale_prior() {
    let dir = fresh_dir("content");
    {
        let db = Database::open(&dir).unwrap();
        create_tables(&db, 120);
        db.set_learning_cache(true);
        db.query(SQL).unwrap();
        db.flush_learning_cache();
    }
    {
        let db = Database::open(&dir).unwrap();
        create_tables(&db, 40); // fact has different content now
        db.set_learning_cache(true);
        assert!(db.learning_cache_stats().loaded >= 1);
        db.query(SQL).unwrap();
        let stats = db.learning_cache_stats();
        assert_eq!(stats.hits, 0, "stale prior must not serve: {stats:?}");
        assert!(
            stats.invalidations >= 1,
            "fingerprint mismatch must invalidate: {stats:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt priors file is refused wholesale — the database still opens,
/// queries still run, and the refusal is visible in stats.
#[test]
fn corrupt_priors_file_never_blocks_open_or_serves() {
    let dir = fresh_dir("corrupt");
    {
        let db = Database::open(&dir).unwrap();
        create_tables(&db, 120);
        db.set_learning_cache(true);
        db.query(SQL).unwrap();
        db.flush_learning_cache();
    }
    // Flip a byte in the middle of the sidecar.
    let side = dir.join("learned_priors.side");
    let mut bytes = std::fs::read(&side).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&side, &bytes).unwrap();
    {
        let db = Database::open(&dir).unwrap();
        create_tables(&db, 120);
        db.set_learning_cache(true);
        let stats = db.learning_cache_stats();
        assert_eq!(
            stats.load_rejected, 1,
            "corruption must be refused: {stats:?}"
        );
        assert_eq!(stats.loaded, 0);
        // The database is fully functional; the template just re-learns.
        db.query(SQL).unwrap();
        assert!(db.learning_cache_stats().published >= 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reconfiguring the cache re-attaches the store: durable knowledge
/// survives `set_learning_cache_config` the same way it survives a
/// restart.
#[test]
fn reconfiguration_reloads_persisted_priors() {
    let dir = fresh_dir("reconf");
    let db = Database::open(&dir).unwrap();
    create_tables(&db, 120);
    db.set_learning_cache(true);
    db.query(SQL).unwrap();
    db.flush_learning_cache();
    db.set_learning_cache_config(skinnerdb::TreeCacheConfig {
        capacity: 64,
        ..Default::default()
    });
    let stats = db.learning_cache_stats();
    assert!(
        stats.loaded >= 1,
        "new cache must reload persisted priors: {stats:?}"
    );
    db.query(SQL).unwrap();
    assert!(db.learning_cache_stats().hits >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The flush must never write an entry its own loader refuses. A template
/// key over the loader's cap (here 1 500 unary conjuncts, an 18 kB key) is
/// left out of the file; it must not take the unrelated short template's
/// prior down with it.
#[test]
fn over_cap_template_key_is_left_out_not_fatal_to_the_file() {
    let dir = fresh_dir("longkey");
    {
        let db = Database::open(&dir).unwrap();
        create_tables(&db, 120);
        db.set_learning_cache(true);
        db.query(SQL).unwrap();
        let conjuncts: String = (1_000..2_500)
            .map(|k| format!(" AND f.id <> {k}"))
            .collect();
        db.query(&format!(
            "SELECT f.id FROM fact f, dim1 a WHERE f.d1 = a.id{conjuncts}"
        ))
        .unwrap();
        assert!(db.learning_cache_stats().published >= 2);
        assert!(db.flush_learning_cache());
    }
    {
        let db = Database::open(&dir).unwrap();
        create_tables(&db, 120);
        db.set_learning_cache(true);
        let stats = db.learning_cache_stats();
        assert_eq!(stats.load_rejected, 0, "own file refused: {stats:?}");
        assert_eq!(stats.loaded, 1, "short template must load: {stats:?}");
        db.query(SQL).unwrap();
        assert!(db.learning_cache_stats().hits >= 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
