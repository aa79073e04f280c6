//! Determinism and cancellation guarantees of the generic-engine pair
//! (Skinner-G, Skinner-H), mirroring `parallel_determinism.rs`.
//!
//! Both strategies are driven purely by seeded randomness and work-unit
//! accounting — never wall clock — so repeated runs must agree bit for bit,
//! including their learning metrics (Skinner-G's `timeout_levels`,
//! Skinner-H's `rounds` and winning side) and the join order they report.
//! The thread knob is a no-op for them, so 1/2/4/8 threads must also be
//! bit-identical. A cancellation or deadline fired mid-slice must still
//! produce a well-formed (timed-out, partial, fully accounted) outcome.

use std::time::{Duration, Instant};

use skinnerdb::skinner_core::{SkinnerGConfig, SkinnerGStrategy, SkinnerHConfig, SkinnerHStrategy};
use skinnerdb::skinner_exec::ReferenceStrategy;
use skinnerdb::skinner_workloads::torture::{correlation_torture, udf_torture, Shape};
use skinnerdb::{CancelToken, DataType, Database, ExecOutcome, ExecutionStrategy, Value};

fn skinner_g() -> SkinnerGStrategy {
    SkinnerGStrategy(SkinnerGConfig::default())
}

fn skinner_h() -> SkinnerHStrategy {
    // A small base timeout → several alternation rounds even on test-sized
    // data.
    SkinnerHStrategy(SkinnerHConfig {
        learner: SkinnerGConfig {
            base_timeout_units: 500,
            ..Default::default()
        },
        ..Default::default()
    })
}

/// Everything that must be reproducible about a run.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    rows: Vec<String>,
    work_units: u64,
    order: Vec<usize>,
    winner: Option<&'static str>,
    counters: Vec<(String, Option<u64>)>,
}

fn fingerprint(out: &ExecOutcome, counters: &[&str]) -> Fingerprint {
    Fingerprint {
        rows: out.result.canonical_rows(),
        work_units: out.work_units,
        order: out.metrics.order.clone(),
        winner: out.metrics.winner,
        counters: counters
            .iter()
            .map(|&c| (c.to_string(), out.metrics.counter(c)))
            .collect(),
    }
}

fn handmade_db() -> Database {
    let db = Database::new();
    db.create_table(
        "fact",
        &[
            ("id", DataType::Int),
            ("d1", DataType::Int),
            ("d2", DataType::Int),
        ],
        (0..400)
            .map(|i| vec![Value::Int(i), Value::Int(i % 20), Value::Int(i % 11)])
            .collect(),
    )
    .unwrap();
    db.create_table(
        "dim1",
        &[("id", DataType::Int), ("grp", DataType::Int)],
        (0..20)
            .map(|i| vec![Value::Int(i), Value::Int(i % 4)])
            .collect(),
    )
    .unwrap();
    db.create_table(
        "dim2",
        &[("id", DataType::Int), ("w", DataType::Int)],
        (0..11)
            .map(|i| vec![Value::Int(i), Value::Int(i * 3)])
            .collect(),
    )
    .unwrap();
    db
}

const HANDMADE_SQL: &str = "SELECT f.id, a.grp, b.w FROM fact f, dim1 a, dim2 b \
     WHERE f.d1 = a.id AND f.d2 = b.id AND a.grp < 3";

/// Run `strategy` twice per thread count and demand one identical
/// fingerprint across all of it.
fn assert_reproducible(
    db: &Database,
    sql: &str,
    strategy: &dyn ExecutionStrategy,
    counters: &[&str],
) {
    let expected = db
        .run_script(sql, &ReferenceStrategy, &db.exec_context())
        .unwrap()
        .result
        .canonical_rows();
    let mut baseline: Option<Fingerprint> = None;
    for threads in [1usize, 2, 4, 8] {
        for rep in 0..2 {
            let ctx = db.exec_context().with_threads(threads);
            let out = db.run_script(sql, strategy, &ctx).unwrap();
            assert!(!out.timed_out, "{threads} threads rep {rep}");
            assert_eq!(
                out.result.canonical_rows(),
                expected,
                "{threads} threads rep {rep} vs reference"
            );
            let fp = fingerprint(&out, counters);
            match &baseline {
                None => baseline = Some(fp),
                Some(b) => assert_eq!(
                    &fp,
                    b,
                    "{} diverged at {threads} threads rep {rep}",
                    strategy.name()
                ),
            }
        }
    }
}

#[test]
fn skinner_g_is_bit_identical_across_runs_and_thread_counts() {
    let db = handmade_db();
    assert_reproducible(&db, HANDMADE_SQL, &skinner_g(), &["timeout_levels"]);
}

#[test]
fn skinner_h_is_bit_identical_across_runs_and_thread_counts() {
    let db = handmade_db();
    assert_reproducible(
        &db,
        HANDMADE_SQL,
        &skinner_h(),
        &["rounds", "plan_cost_est"],
    );
}

#[test]
fn both_are_bit_identical_on_torture_workload() {
    let w = correlation_torture(4, 60, 2);
    let db = Database::from_parts(w.catalog.clone(), w.udfs);
    let script = w.queries[0].script.clone();
    assert_reproducible(&db, &script, &skinner_g(), &["timeout_levels"]);
    assert_reproducible(&db, &script, &skinner_h(), &["rounds"]);
}

/// Both strategies report the join order behind their result (the wire
/// `Done` summary shows it): Skinner-G the order of its last completed
/// batch, Skinner-H the order of whichever side delivered.
#[test]
fn both_report_a_valid_join_order() {
    let udf = udf_torture(Shape::Chain, 5, 40, 2);
    let udf_sql = udf.queries[0].script.clone();
    let cases = [
        (handmade_db(), HANDMADE_SQL.to_string()),
        (Database::from_parts(udf.catalog.clone(), udf.udfs), udf_sql),
    ];
    let mut winners = Vec::new();
    for (db, sql) in &cases {
        let query = db.bind(sql).unwrap();
        let all_tables: Vec<usize> = (0..query.num_tables()).collect();
        let (g, h) = (skinner_g(), skinner_h());
        for strategy in [&g as &dyn ExecutionStrategy, &h] {
            let out = strategy.execute(&query, &db.exec_context());
            assert!(!out.timed_out, "{} on {sql}", strategy.name());
            let mut sorted = out.metrics.order.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                all_tables,
                "{} on {sql}: order {:?} is not a permutation of the tables",
                strategy.name(),
                out.metrics.order
            );
            winners.extend(out.metrics.winner);
        }
    }
    // Skinner-H's traditional side won one query and its learner the other.
    assert_eq!(winners, vec!["traditional", "learned"]);
}

/// A join that cannot finish quickly: every pair passes through a generic
/// predicate, leaving plenty of mid-slice work for the cancellation.
fn slow_db() -> (Database, &'static str) {
    let db = Database::new();
    for name in ["big1", "big2"] {
        db.create_table(
            name,
            &[("x", DataType::Int)],
            (0..3_000).map(|i| vec![Value::Int(i)]).collect(),
        )
        .unwrap();
    }
    (
        db,
        "SELECT COUNT(*) n FROM big1 a, big2 b WHERE a.x + b.x > 100000",
    )
}

fn assert_well_formed_partial(out: &ExecOutcome, counters: &[&str]) {
    assert!(out.timed_out, "interruption must surface as a timeout");
    assert_eq!(out.result.columns, vec!["n".to_string()]);
    assert_eq!(out.result.num_rows(), 0, "destructive timeout semantics");
    assert!(out.work_units > 0, "partial work is accounted");
    for c in counters {
        assert!(
            out.metrics.counter(c).is_some(),
            "counter {c} missing from partial outcome"
        );
    }
}

#[test]
fn skinner_h_cancel_mid_slice_leaves_well_formed_partial_outcome() {
    let (db, sql) = slow_db();
    let query = db.bind(sql).unwrap();
    let cancel = CancelToken::new();
    let ctx = db.exec_context().with_cancel(cancel.clone());
    let trigger = {
        let cancel = cancel.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(25));
            cancel.cancel();
        })
    };
    let strategy = skinner_h();
    let started = Instant::now();
    let out = strategy.execute(&query, &ctx);
    let elapsed = started.elapsed();
    trigger.join().unwrap();
    assert!(
        elapsed < Duration::from_secs(20),
        "hybrid kept running: {elapsed:?}"
    );
    assert_well_formed_partial(&out, &["rounds", "plan_cost_est"]);
    // Both sides' work was settled back against the session budget.
    assert_eq!(ctx.budget().used(), out.work_units);
}

#[test]
fn skinner_g_cancel_mid_episode_leaves_well_formed_partial_outcome() {
    let (db, sql) = slow_db();
    let query = db.bind(sql).unwrap();
    let cancel = CancelToken::new();
    let ctx = db.exec_context().with_cancel(cancel.clone());
    let trigger = {
        let cancel = cancel.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(25));
            cancel.cancel();
        })
    };
    let strategy = skinner_g();
    let started = Instant::now();
    let out = strategy.execute(&query, &ctx);
    let elapsed = started.elapsed();
    trigger.join().unwrap();
    assert!(
        elapsed < Duration::from_secs(20),
        "episode loop kept running: {elapsed:?}"
    );
    assert_well_formed_partial(&out, &["timeout_levels"]);
    assert_eq!(ctx.budget().used(), out.work_units);
}

#[test]
fn session_deadline_stops_both_strategies_promptly() {
    for name in ["Skinner-G", "Skinner-H"] {
        let (db, sql) = slow_db();
        let session = db.session();
        session.use_strategy(name).unwrap();
        session.set_deadline(Some(Duration::from_millis(30)));
        let started = Instant::now();
        let out = session.run_script(sql).unwrap();
        let elapsed = started.elapsed();
        assert!(out.timed_out, "{name}: deadline must surface as a timeout");
        assert!(
            elapsed < Duration::from_secs(20),
            "{name} kept running: {elapsed:?}"
        );
        assert_eq!(out.result.columns, vec!["n".to_string()]);
        assert_eq!(out.result.num_rows(), 0);
        assert!(out.work_units > 0);
    }
}
