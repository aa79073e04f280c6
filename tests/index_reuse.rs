//! Join indexes are table-owned cross-query state: built once per
//! `(table, column)`, shared by every later statement, freed with the
//! table — and invisible in rows, work units and timeouts.

use std::sync::{Arc, Barrier};

use skinnerdb::skinner_core::{
    run_parallel_skinner, run_skinner_c, run_skinner_c_fixed, ParallelSkinnerConfig, SkinnerCConfig,
};
use skinnerdb::skinner_query::JoinQuery;
use skinnerdb::{DataType, Database, ExecContext, ExecOutcome, Strategy, Value};

/// Small enough that `parallel_skinner` never splits an episode (tables
/// under two minimum chunks), so its work units repeat exactly at two
/// threads as well.
fn star_db() -> Database {
    let db = Database::new();
    db.create_table(
        "fact",
        &[
            ("id", DataType::Int),
            ("d1", DataType::Int),
            ("d2", DataType::Int),
        ],
        (0..48)
            .map(|i| vec![Value::Int(i), Value::Int(i % 8), Value::Int(i % 5)])
            .collect(),
    )
    .unwrap();
    db.create_table(
        "dim1",
        &[("id", DataType::Int), ("grp", DataType::Int)],
        (0..8)
            .map(|i| vec![Value::Int(i), Value::Int(i % 4)])
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
    db
}

/// No unary predicate: all four join columns belong to catalog tables.
const UNFILTERED_SQL: &str = "SELECT f.id, a.grp, b.w FROM fact f, dim1 a, dim2 b \
     WHERE f.d1 = a.id AND f.d2 = b.id";

/// `dim1` is filtered (its index is per statement); `fact` and `dim2` are
/// the catalog's own.
const MIXED_SQL: &str = "SELECT f.id, a.grp, b.w FROM fact f, dim1 a, dim2 b \
     WHERE f.d1 = a.id AND f.d2 = b.id AND a.grp < 3";

fn builds_and_reuses(out: &ExecOutcome) -> (u64, u64) {
    let counter = |name| out.metrics.counter(name).expect("counter reported");
    (counter("index_builds"), counter("index_reuses"))
}

#[test]
fn eight_threads_build_each_index_once() {
    let db = star_db();
    let barrier = Barrier::new(8);
    let outcomes: Vec<ExecOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    db.run_script(UNFILTERED_SQL, &Strategy::default()).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let rows = outcomes[0].result.canonical_rows();
    assert_eq!(rows.len(), 48);
    let mut total_builds = 0;
    for out in &outcomes {
        assert!(!out.timed_out);
        assert_eq!(out.result.canonical_rows(), rows);
        let (builds, reuses) = builds_and_reuses(out);
        assert_eq!(builds + reuses, 4, "one fetch per join column");
        total_builds += builds;
    }
    assert_eq!(total_builds, 4, "exactly one build per (table, column)");
    // Later statements build nothing, whatever engine runs them.
    let again = db.run_script(UNFILTERED_SQL, &Strategy::default()).unwrap();
    assert_eq!(builds_and_reuses(&again), (0, 4));
    assert_eq!(again.result.canonical_rows(), rows);
}

#[test]
fn filtered_tables_index_per_statement_unfiltered_ones_once() {
    let db = star_db();
    let cold = db.run_script(MIXED_SQL, &Strategy::default()).unwrap();
    assert_eq!(builds_and_reuses(&cold), (4, 0));
    let warm = db.run_script(MIXED_SQL, &Strategy::default()).unwrap();
    // dim1's filtered copy is new every time; the other three are kept.
    assert_eq!(builds_and_reuses(&warm), (1, 3));
    assert_eq!(warm.result.canonical_rows(), cold.result.canonical_rows());
    assert_eq!(warm.work_units, cold.work_units);
    // Only catalog tables retain anything, and the statement's accounting
    // counts what it used either way.
    let catalog = db.catalog();
    assert_eq!(catalog.get("dim1").unwrap().index_bytes(), 0);
    assert!(catalog.get("fact").unwrap().index_bytes() > 0);
    assert_eq!(
        catalog.index_bytes(),
        catalog.get("fact").unwrap().index_bytes() + catalog.get("dim2").unwrap().index_bytes()
    );
    assert_eq!(warm.metrics.total_aux_bytes, cold.metrics.total_aux_bytes);
}

#[test]
fn drop_and_recreate_never_serves_the_old_index() {
    let db = Database::new();
    let create = |shift: i64| {
        db.create_table(
            "t",
            &[("k", DataType::Int)],
            (0..20).map(|i| vec![Value::Int(i + shift)]).collect(),
        )
        .unwrap();
    };
    create(0);
    db.create_table(
        "u",
        &[("k", DataType::Int)],
        (0..30).map(|i| vec![Value::Int(i)]).collect(),
    )
    .unwrap();
    let sql = "SELECT t.k FROM t, u WHERE t.k = u.k";
    let before = db.run_script(sql, &Strategy::default()).unwrap();
    assert_eq!(before.result.num_rows(), 20);
    let old = Arc::downgrade(db.catalog().get("t").unwrap().join_index(0));
    assert!(old.upgrade().is_some());

    // Replace `t` under its name: keys 15..35, of which 15..30 join.
    create(15);
    let after = db.run_script(sql, &Strategy::default()).unwrap();
    assert_eq!(after.result.num_rows(), 15);
    assert_eq!(builds_and_reuses(&after), (1, 1), "new t built, u kept");
    assert!(old.upgrade().is_none(), "the old index died with its table");

    assert!(db.catalog().drop_table("u"));
    assert_eq!(
        db.catalog().index_bytes(),
        db.catalog().get("t").unwrap().index_bytes()
    );
}

type Engine = (
    &'static str,
    Box<dyn Fn(&JoinQuery, &ExecContext, u64) -> ExecOutcome>,
);

fn engines() -> Vec<Engine> {
    let parallel = |threads| {
        move |q: &JoinQuery, ctx: &ExecContext, work_limit| {
            let cfg = ParallelSkinnerConfig {
                threads,
                work_limit,
                ..Default::default()
            };
            run_parallel_skinner(q, ctx, &cfg)
        }
    };
    let skinner_c = |work_limit| SkinnerCConfig {
        work_limit,
        ..Default::default()
    };
    vec![
        (
            "skinner_c",
            Box::new(move |q, ctx, limit| run_skinner_c(q, ctx, &skinner_c(limit))),
        ),
        (
            "fixed",
            Box::new(move |q, ctx, limit| {
                run_skinner_c_fixed(q, ctx, &[1, 0, 2], &skinner_c(limit))
            }),
        ),
        ("parallel_1", Box::new(parallel(1))),
        ("parallel_2", Box::new(parallel(2))),
    ]
}

#[test]
fn cold_and_warm_runs_agree_at_every_work_limit() {
    let observe = |out: &ExecOutcome| (out.timed_out, out.work_units, out.result.canonical_rows());
    for (name, engine) in engines() {
        for sql in [UNFILTERED_SQL, MIXED_SQL] {
            let total = {
                let db = star_db();
                db.set_learning_cache(false);
                let out = engine(&db.bind(sql).unwrap(), &db.exec_context(), u64::MAX);
                assert!(!out.timed_out);
                out.work_units
            };
            for limit in 0..=total + 1 {
                // A fresh database: the first run finds no index.
                let db = star_db();
                db.set_learning_cache(false);
                let query = db.bind(sql).unwrap();
                let cold = engine(&query, &db.exec_context(), limit);
                let warm = engine(&query, &db.exec_context(), limit);
                assert_eq!(
                    observe(&cold),
                    observe(&warm),
                    "{name} at limit {limit} of {total}: {sql}"
                );
                assert_eq!(cold.timed_out, limit < total, "{name} at {limit}");
                if !cold.timed_out {
                    let filtered = u64::from(sql == MIXED_SQL);
                    assert_eq!(builds_and_reuses(&cold), (4, 0), "{name}");
                    assert_eq!(builds_and_reuses(&warm), (filtered, 4 - filtered), "{name}");
                }
            }
        }
    }
}

#[test]
fn parallel_prepare_charges_and_counts_like_sequential() {
    use skinnerdb::skinner_core::skinner_c::preproc::prepare;
    use skinnerdb::skinner_exec::WorkBudget;
    let db = star_db();
    let query = db.bind(MIXED_SQL).unwrap();
    let mut seen = Vec::new();
    for threads in [4, 1, 4] {
        let budget = WorkBudget::unlimited();
        let p = prepare(&query, &budget, threads, true).unwrap();
        seen.push((
            budget.used(),
            p.index_bytes,
            p.index_builds + p.index_reuses,
        ));
        let expect_builds = if seen.len() == 1 { 4 } else { 1 };
        assert_eq!(p.index_builds, expect_builds, "run {}", seen.len());
    }
    assert!(seen.windows(2).all(|w| w[0] == w[1]), "{seen:?}");
}

#[test]
fn every_registered_strategy_returns_the_same_rows_cold_and_warm() {
    let db = star_db();
    let expected = db
        .run_script(MIXED_SQL, &Strategy::Reference)
        .unwrap()
        .result
        .canonical_rows();
    assert_eq!(expected.len(), 36);
    // The first strategies run cold, the rest over indexes their
    // predecessors left on the catalog tables; then everything again warm.
    for round in ["cold", "warm"] {
        for name in db.strategies().names() {
            let strategy = db.strategies().get(&name).unwrap();
            let out = db
                .run_script_with(MIXED_SQL, strategy.as_ref(), &db.exec_context())
                .unwrap_or_else(|e| panic!("{name} failed: {e}"));
            assert!(!out.timed_out, "{name} timed out ({round})");
            assert_eq!(out.result.canonical_rows(), expected, "{name} ({round})");
        }
    }
    assert!(db.catalog().index_bytes() > 0);
}
