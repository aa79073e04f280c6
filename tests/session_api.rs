//! Integration tests for the session / prepared-statement facade and the
//! cooperative cancellation path of the execution API.

use std::sync::Arc;
use std::time::Duration;

use skinnerdb::skinner_core::SkinnerCStrategy;
use skinnerdb::{CancelToken, DataType, Database, DbError, ExecutionStrategy, Value};

fn serving_db() -> Database {
    let db = Database::new();
    db.create_table(
        "orders",
        &[
            ("id", DataType::Int),
            ("customer", DataType::Int),
            ("amount", DataType::Float),
        ],
        (0..200)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 25),
                    Value::Float((i % 40) as f64 * 1.5),
                ]
            })
            .collect(),
    )
    .unwrap();
    db.create_table(
        "customers",
        &[("id", DataType::Int), ("tier", DataType::Int)],
        (0..25)
            .map(|i| vec![Value::Int(i), Value::Int(i % 3)])
            .collect(),
    )
    .unwrap();
    db
}

const JOIN_SQL: &str = "SELECT c.tier, COUNT(*) n, SUM(o.amount) s \
                        FROM orders o, customers c WHERE o.customer = c.id \
                        GROUP BY c.tier ORDER BY c.tier";

#[test]
fn prepare_once_execute_many_identical() {
    let db = serving_db();
    let prepared = db.prepare(JOIN_SQL).unwrap();
    let first = prepared.execute().unwrap();
    for _ in 0..3 {
        let again = prepared.execute().unwrap();
        assert_eq!(first.ordered_rows(), again.ordered_rows());
    }
    assert_eq!(first.num_rows(), 3);
    // The outcome form exposes work accounting per execution.
    let outcome = prepared.execute_in(&prepared.fresh_context());
    assert!(!outcome.timed_out);
    assert!(outcome.work_units > 0);
}

#[test]
fn prepared_statement_strategy_snapshot_and_override() {
    let db = serving_db();
    let session = db.session();
    session.use_strategy("traditional").unwrap();
    let prepared = session.prepare(JOIN_SQL).unwrap();
    // Session switches strategy afterwards; the prepared statement keeps
    // its snapshot.
    session.use_strategy("eddy").unwrap();
    assert_eq!(prepared.strategy().name(), "Traditional");
    let base = prepared.execute().unwrap();
    // Same bound query through a different engine: identical rows.
    let other = SkinnerCStrategy::default().execute(prepared.query(), &prepared.fresh_context());
    assert!(!other.timed_out);
    assert_eq!(base.canonical_rows(), other.result.canonical_rows());
}

#[test]
fn sessions_are_concurrent_over_one_database() {
    let db = Arc::new(serving_db());
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let db = db.clone();
            std::thread::spawn(move || {
                let session = db.session();
                if i % 2 == 0 {
                    session.use_strategy("traditional").unwrap();
                }
                let prepared = session.prepare(JOIN_SQL).unwrap();
                prepared.execute().unwrap().ordered_rows()
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for r in &results[1..] {
        assert_eq!(&results[0], r);
    }
}

#[test]
fn deadline_produces_timeout_outcome_without_panic() {
    let db = serving_db();
    let session = db.session();
    session.set_deadline(Some(Duration::ZERO));
    let out = session.run_script(JOIN_SQL).unwrap();
    assert!(out.timed_out, "expired deadline must report timed_out");
    assert_eq!(out.result.num_rows(), 0);
    assert!(matches!(session.query(JOIN_SQL), Err(DbError::Timeout)));
    // Clearing the deadline restores normal service on the same session.
    session.set_deadline(None);
    assert_eq!(session.query(JOIN_SQL).unwrap().num_rows(), 3);
}

#[test]
fn explicit_cancel_token_interrupts_every_builtin() {
    let db = serving_db();
    for name in db.strategies().names() {
        let strategy = db.strategies().get(&name).unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        let ctx = db.exec_context().with_cancel(cancel);
        let out = db.run_script(JOIN_SQL, strategy.as_ref(), &ctx).unwrap();
        assert!(out.timed_out, "{name} ignored cancellation");
    }
}

/// A strategy's only work limit is its context's: under limits far below
/// what the join needs, every built-in times out with no rows, and the
/// context's budget saw exactly the work the outcome reports.
#[test]
fn every_builtin_honours_the_context_work_limit() {
    let db = serving_db();
    for name in db.strategies().names() {
        let strategy = db.strategies().get(&name).unwrap();
        for limit in [1, 50, 500] {
            let ctx = db.exec_context().with_work_limit(limit);
            let out = db.run_script(JOIN_SQL, strategy.as_ref(), &ctx).unwrap();
            let at = format!("{name} at limit {limit}");
            assert!(out.timed_out, "{at}");
            assert_eq!(out.result.num_rows(), 0, "{at}");
            assert_eq!(ctx.budget().used(), out.work_units, "{at}");
        }
    }
}

#[test]
fn session_work_limit_spans_whole_scripts() {
    let db = serving_db();
    let session = db.session();
    session.set_work_limit(50);
    let out = session
        .run_script(
            "SELECT o.id FROM orders o, customers c WHERE o.customer = c.id; \
             SELECT c.id FROM customers c",
        )
        .unwrap();
    assert!(out.timed_out, "50 work units cannot cover the script");
}

#[test]
fn distinct_scan_respects_the_work_limit() {
    // DISTINCT's dedup pass is the statement's last charged work: a limit
    // one unit short of the full run must trip inside it — not be
    // swallowed there and hand back rows the budget never covered.
    const SQL: &str = "SELECT DISTINCT o.customer FROM orders o";
    let db = serving_db();
    let session = db.session();
    let full = session.run_script(SQL).unwrap();
    assert!(!full.timed_out);
    assert_eq!(full.result.num_rows(), 25);

    session.set_work_limit(full.work_units);
    let exact = session.run_script(SQL).unwrap();
    assert!(!exact.timed_out, "a limit equal to the work done suffices");
    assert_eq!(exact.result.num_rows(), 25);

    session.set_work_limit(full.work_units - 1);
    let short = session.run_script(SQL).unwrap();
    assert!(short.timed_out, "the DISTINCT scan overran its limit");
    assert_eq!(short.result.num_rows(), 0);
}

#[test]
fn streaming_row_access() {
    let db = serving_db();
    let result = db.query(JOIN_SQL).unwrap();
    let tiers: Vec<i64> = result
        .iter_rows()
        .map(|row| row[0].as_i64().unwrap())
        .collect();
    assert_eq!(tiers, vec![0, 1, 2]);
    let idx = result.column_index("n").unwrap();
    let total: i64 = result
        .iter_rows()
        .map(|row| row[idx].as_i64().unwrap())
        .sum();
    assert_eq!(total, 200);
}
