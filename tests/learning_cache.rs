//! Cross-query learning cache correctness.
//!
//! The bar is absolute: the `learning_cache` knob may change *how fast*
//! learned strategies converge on a join order, never *what* they return.
//! This suite pins that equivalence across every registered strategy and
//! every thread count, plus the cache-specific behaviours: LRU bounding,
//! uid-based invalidation across drop/recreate (the PR 2 `StatsCache`
//! lesson), and concurrent publish/lookup consistency under proptest
//! hammering.

use std::sync::Arc;

use proptest::prelude::*;

use skinnerdb::skinner_core::{ParallelSkinnerConfig, QuerySig, RunFeedback, TreeCacheConfig};
use skinnerdb::skinner_query::TemplateFeatures;
use skinnerdb::skinner_uct::{PriorEntry, TreePrior};
use skinnerdb::{DataType, Database, Strategy, TreeCache, Value};

fn test_db() -> Database {
    let db = Database::new();
    db.create_table(
        "fact",
        &[
            ("id", DataType::Int),
            ("d1", DataType::Int),
            ("d2", DataType::Int),
            ("v", DataType::Float),
        ],
        (0..150)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 10),
                    Value::Int(i % 6),
                    Value::Float(i as f64 * 0.5),
                ]
            })
            .collect(),
    )
    .unwrap();
    db.create_table(
        "dim1",
        &[("id", DataType::Int), ("label", DataType::Str)],
        (0..10)
            .map(|i| vec![Value::Int(i), Value::from(format!("l{}", i % 3).as_str())])
            .collect(),
    )
    .unwrap();
    db.create_table(
        "dim2",
        &[("id", DataType::Int), ("w", DataType::Int)],
        (0..6)
            .map(|i| vec![Value::Int(i), Value::Int(i * 7)])
            .collect(),
    )
    .unwrap();
    db
}

const QUERIES: [&str; 4] = [
    "SELECT f.id FROM fact f, dim1 d WHERE f.d1 = d.id AND d.label = 'l1'",
    "SELECT d.label, COUNT(*) c FROM fact f, dim1 d, dim2 e \
     WHERE f.d1 = d.id AND f.d2 = e.id AND e.w > 6 GROUP BY d.label ORDER BY d.label",
    "SELECT f.v FROM fact f, dim2 e WHERE f.d2 = e.id AND f.id < 40 ORDER BY f.v",
    "SELECT DISTINCT d.label FROM fact f, dim1 d WHERE f.d1 = d.id AND f.id + d.id > 30",
];

/// Every registered strategy returns identical rows with the cache on and
/// off — including the second (warm-started) execution of each template.
#[test]
fn registry_equivalence_cache_on_vs_off() {
    let db_off = test_db();
    let db_on = test_db();
    db_on.set_learning_cache(true);
    for sql in QUERIES {
        for name in db_off.strategies().names() {
            let strategy_off = db_off.strategies().get(&name).unwrap();
            let strategy_on = db_on.strategies().get(&name).unwrap();
            let cold = db_off
                .run_script_with(sql, strategy_off.as_ref(), &db_off.exec_context())
                .unwrap_or_else(|e| panic!("{name} failed on {sql}: {e}"));
            assert!(!cold.timed_out, "{name} timed out on {sql}");
            // Two runs on the cached side: the first publishes, the second
            // consumes the warm start.
            let first = db_on
                .run_script_with(sql, strategy_on.as_ref(), &db_on.exec_context())
                .unwrap();
            let second = db_on
                .run_script_with(sql, strategy_on.as_ref(), &db_on.exec_context())
                .unwrap();
            let want = cold.result.canonical_rows();
            assert_eq!(first.result.canonical_rows(), want, "{name} on {sql}");
            assert_eq!(
                second.result.canonical_rows(),
                want,
                "{name} warm run on {sql}"
            );
        }
    }
    let stats = db_on.learning_cache_stats();
    assert!(stats.published > 0, "learned strategies must publish");
    assert!(stats.hits > 0, "second runs must consume priors");
    assert_eq!(
        db_off.learning_cache_stats().published,
        0,
        "cache-off database must never be touched"
    );
}

/// Bit-identical results cache-on vs cache-off at 1, 2, 4 and 8 worker
/// threads.
/// Queries whose ORDER BY totally orders the output compare raw row
/// vectors byte-for-byte; the rest compare canonical (sorted) rows, since
/// unordered row order is execution-order-dependent in every Skinner
/// engine — with or without the cache.
#[test]
fn rows_bit_identical_at_every_thread_count() {
    // Parallel to QUERIES: does ORDER BY make the row order total?
    const TOTAL_ORDER: [bool; 4] = [false, true, true, false];
    let db_off = test_db();
    let db_on = test_db();
    db_on.set_learning_cache(true);
    for threads in [1usize, 2, 4, 8] {
        let strategy = Strategy::ParallelSkinner(ParallelSkinnerConfig {
            threads,
            batch_tuples: 16,
            min_chunk_tuples: 2,
            ..Default::default()
        });
        for (sql, total) in QUERIES.iter().zip(TOTAL_ORDER) {
            let off = db_off.run_script(sql, &strategy).unwrap();
            db_on.run_script(sql, &strategy).unwrap();
            let warm = db_on.run_script(sql, &strategy).unwrap();
            if total {
                assert_eq!(
                    off.result.rows, warm.result.rows,
                    "ordered rows diverged at {threads} threads on {sql}"
                );
            } else {
                assert_eq!(
                    off.result.canonical_rows(),
                    warm.result.canonical_rows(),
                    "row sets diverged at {threads} threads on {sql}"
                );
            }
        }
    }
    assert!(db_on.learning_cache_stats().hits > 0);
}

/// Dropping and recreating a table under the same name must invalidate
/// its templates: the uid check refuses the stale prior, and the query
/// over the new data is correct.
#[test]
fn drop_and_recreate_invalidates_the_template() {
    let db = test_db();
    db.set_learning_cache(true);
    let sql = "SELECT f.id FROM fact f, tmp t WHERE f.d1 = t.x";
    db.create_table(
        "tmp",
        &[("x", DataType::Int)],
        (0..5).map(|i| vec![Value::Int(i)]).collect(),
    )
    .unwrap();
    let first = db.query(sql).unwrap();
    assert_eq!(db.learning_cache_stats().published, 1);
    // Same name, different contents (and a fresh uid).
    db.catalog().drop_table("tmp");
    db.create_table(
        "tmp",
        &[("x", DataType::Int)],
        (0..2).map(|i| vec![Value::Int(i)]).collect(),
    )
    .unwrap();
    let second = db.query(sql).unwrap();
    let stats = db.learning_cache_stats();
    assert!(
        stats.invalidations >= 1,
        "stale template must be invalidated, not served: {stats:?}"
    );
    assert!(second.num_rows() < first.num_rows(), "new data, new rows");
    // The re-learned template is cached again and hits on the next run.
    let third = db.query(sql).unwrap();
    assert_eq!(third.canonical_rows(), second.canonical_rows());
    assert!(db.learning_cache_stats().hits >= 1);
}

/// Temp-table churn inside scripts (the TPC-H decomposition pattern) must
/// never serve a prior learned over a dropped temp table's data.
#[test]
fn temp_table_scripts_stay_correct_across_churn() {
    let db = test_db();
    db.set_learning_cache(true);
    let script_a = "CREATE TEMP TABLE lc_t AS SELECT f.d1 x FROM fact f WHERE f.id < 60; \
                    SELECT d.id FROM lc_t t, dim1 d WHERE t.x = d.id ORDER BY d.id; \
                    DROP TABLE lc_t;";
    let script_b = "CREATE TEMP TABLE lc_t AS SELECT f.d1 x FROM fact f WHERE f.id < 20; \
                    SELECT d.id FROM lc_t t, dim1 d WHERE t.x = d.id ORDER BY d.id; \
                    DROP TABLE lc_t;";
    let a1 = db.query(script_a).unwrap();
    let b1 = db.query(script_b).unwrap();
    // Run both again: each rebind sees a fresh temp-table uid, so priors
    // from the other script's incarnation can never leak in.
    let a2 = db.query(script_a).unwrap();
    let b2 = db.query(script_b).unwrap();
    assert_eq!(a1.ordered_rows(), a2.ordered_rows());
    assert_eq!(b1.ordered_rows(), b2.ordered_rows());
}

/// LRU bound holds end-to-end: a tiny capacity evicts the oldest template
/// while the hot one keeps hitting.
#[test]
fn lru_eviction_end_to_end_with_tiny_capacity() {
    let db = test_db();
    db.set_learning_cache(true);
    db.set_learning_cache_config(TreeCacheConfig {
        capacity: 1,
        ..Default::default()
    });
    db.query(QUERIES[0]).unwrap();
    db.query(QUERIES[2]).unwrap(); // evicts QUERIES[0]'s template
    let stats = db.learning_cache_stats();
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.evictions, 1);
    db.query(QUERIES[0]).unwrap(); // cold again after eviction
    let stats = db.learning_cache_stats();
    assert_eq!(stats.hits, 0);
    // Hammering one template hits every time and evicts nothing more.
    db.query(QUERIES[0]).unwrap();
    db.query(QUERIES[0]).unwrap();
    assert!(db.learning_cache_stats().hits >= 2);
}

/// A synthetic two-table signature for direct cache hammering; `k` picks
/// the template and (stable) content fingerprints.
fn prop_sig(k: u64) -> QuerySig {
    QuerySig {
        key: format!("template-{k}"),
        uids: vec![k, k + 1],
        fingerprints: vec![k * 1000 + 1, k * 1000 + 2],
        buckets: vec![4, 8],
        features: TemplateFeatures {
            tables: vec![format!("ta{k}"), format!("tb{k}")],
            unary_counts: vec![0, 0],
            n_equi: 1,
            n_theta: 0,
            n_select: 1,
            has_group: false,
            has_order: false,
            distinct: false,
            limited: false,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// N threads hammer one cache with interleaved publish/lookup over a
    /// shared key space: every lookup must return a structurally valid
    /// prior, counters must balance exactly, and capacity must hold.
    #[test]
    fn concurrent_publish_lookup_is_consistent(
        threads in 2usize..6,
        per_thread in 20usize..120,
        capacity in 1usize..12,
        keys in 2u64..16,
    ) {
        // Generalization off: with only exact serves, `hits + misses`
        // must balance the lookup count exactly.
        let cache = Arc::new(TreeCache::new(TreeCacheConfig {
            capacity,
            generalize: false,
            ..Default::default()
        }));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    for n in 0..per_thread {
                        let k = ((t * per_thread + n) as u64) % keys;
                        let sig = prop_sig(k);
                        if let Some(w) = cache.lookup(&sig) {
                            // Served priors are always complete and typed
                            // for this template's table count.
                            assert_eq!(w.prior.num_tables, 2);
                            assert_eq!(w.prior.root_visits(), k + 1);
                            assert!(!w.generalized);
                        }
                        cache.publish(
                            &sig,
                            TreePrior {
                                num_tables: 2,
                                entries: vec![PriorEntry {
                                    prefix: vec![],
                                    visits: k + 1,
                                    reward_sum: 0.5 * (k + 1) as f64,
                                }],
                            },
                            RunFeedback::cold(5),
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = (threads * per_thread) as u64;
        let stats = cache.stats();
        prop_assert_eq!(stats.published, total);
        prop_assert_eq!(stats.hits + stats.misses, total);
        prop_assert_eq!(stats.invalidations, 0);
        prop_assert!(cache.len() <= capacity);
        prop_assert!(!cache.is_empty());
    }
}
