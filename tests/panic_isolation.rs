//! A panic stays inside its statement.
//!
//! A UDF that panics fails the statement that called it, wherever the
//! call runs: in a filter, a join predicate or a projection, each of which
//! `parallel_skinner` at 2 threads spreads over the process-wide pool.
//! Embedded, the UDF's own panic reaches the caller; through the server,
//! the statement returns an error frame. Either way the pool's helpers
//! survive, and the next statement on the same process returns the
//! reference rows.

use std::panic::{catch_unwind, AssertUnwindSafe};

use skinner_client::Client;
use skinner_server::{Server, ServerConfig};
use skinnerdb::skinner_core::ParallelSkinnerStrategy;
use skinnerdb::skinner_exec::ReferenceStrategy;
use skinnerdb::{DataType, Database, Value};

/// The value on which `boom` panics: early in `a` and in the join result,
/// so the panicking chunk is one the caller queues for a helper.
const TRIGGER: i64 = 100;

/// Values on which `boom` sleeps: late in `a` (the filter's last chunk)
/// and in the join result (the projection's last chunk). The caller runs
/// the last chunk, so the helper has time to start the panicking one.
const SLOW: [i64; 2] = [550, 1500];

/// `a` (2 000 rows), `b` (600 rows, `aid` = `a.id`), and `boom(x)`, which
/// returns `x`, sleeps on [`SLOW`] and panics on [`TRIGGER`].
fn fixture_db() -> Database {
    let db = Database::new();
    db.create_table(
        "a",
        &[("id", DataType::Int), ("g", DataType::Int)],
        (0..2000)
            .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
            .collect(),
    )
    .unwrap();
    db.create_table(
        "b",
        &[("aid", DataType::Int), ("w", DataType::Int)],
        (0..600)
            .map(|i| vec![Value::Int(i), Value::Int(i % 5)])
            .collect(),
    )
    .unwrap();
    db.register_udf("boom", |args| {
        let x = args[0].as_i64().unwrap_or(0);
        if SLOW.contains(&x) {
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        assert!(x != TRIGGER, "udf boom");
        Value::Int(x)
    });
    db
}

/// One statement per place a UDF can run on the pool.
const PANICKING: [(&str, &str); 3] = [
    (
        "filter",
        "SELECT a.id FROM a, b WHERE a.id = b.aid AND boom(a.id) >= 0",
    ),
    (
        "join predicate",
        "SELECT a.id FROM a, b WHERE boom(a.id) = b.aid",
    ),
    (
        "projection",
        "SELECT boom(a.id) x FROM a, b WHERE a.id = b.aid",
    ),
];

/// The statement run after each failure.
const NEXT: &str = "SELECT a.g, COUNT(*) c, SUM(b.w) s FROM a, b WHERE a.id = b.aid GROUP BY a.g";

fn reference_rows(db: &Database) -> Vec<String> {
    db.run_script(NEXT, &ReferenceStrategy, &db.exec_context())
        .unwrap()
        .result
        .canonical_rows()
}

#[test]
fn embedded_panic_fails_only_its_statement() {
    let db = fixture_db();
    db.set_default_threads(2);
    let expected = reference_rows(&db);
    for (place, sql) in PANICKING {
        let r = catch_unwind(AssertUnwindSafe(|| {
            db.run_script(sql, &ParallelSkinnerStrategy::default(), &db.exec_context())
        }));
        let payload = r.expect_err(place);
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"udf boom"),
            "{place}: the UDF's own panic reaches the caller"
        );
        let next = db
            .run_script(
                NEXT,
                &ParallelSkinnerStrategy::default(),
                &db.exec_context(),
            )
            .unwrap();
        assert!(!next.timed_out, "after the {place} panic");
        assert_eq!(
            next.result.canonical_rows(),
            expected,
            "after the {place} panic"
        );
    }
}

#[test]
fn served_panic_returns_an_error_and_the_server_goes_on() {
    let db = fixture_db();
    let expected = reference_rows(&db);
    let mut server = Server::bind(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set("strategy", "parallel_skinner").unwrap();
    client.set("threads", "2").unwrap();
    for (place, sql) in PANICKING {
        let err = client.query(sql).expect_err(place);
        assert!(err.to_string().contains("panicked"), "{place}: {err}");
        let next = client.query(NEXT).unwrap().into_query_result();
        assert_eq!(next.canonical_rows(), expected, "after the {place} panic");
    }
    server.shutdown();
}
