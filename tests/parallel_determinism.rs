//! Determinism and cancellation guarantees of `parallel_skinner`.
//!
//! The parallel strategy's contract: with 1 thread it returns sequential
//! Skinner-C's rows and join-tuple count, with work in the same ballpark;
//! with N threads every run of one statement returns the reference's rows
//! and repeats the same rows in the same order, the same work units, the
//! same episode count, the same learned join order and the same episodes
//! per order, reported in the same order — the coordinator
//! applies worker reports in chunk order, so scheduling never leaks into
//! the outcome, not even when another statement shares the process-wide
//! pool at the same time. A cancellation fired mid-episode must stop all
//! workers promptly and still produce a well-formed (timed-out, partial)
//! outcome.

use std::time::{Duration, Instant};

use skinnerdb::skinner_core::{ParallelSkinnerConfig, SkinnerCConfig};
use skinnerdb::skinner_workloads::job_like::{generate as job, JobConfig};
use skinnerdb::skinner_workloads::torture::{correlation_torture, trivial};
use skinnerdb::{CancelToken, DataType, Database, ExecOutcome, Strategy, Value};

fn parallel(threads: usize) -> Strategy {
    Strategy::ParallelSkinner(ParallelSkinnerConfig {
        threads,
        batch_tuples: 64,    // small batches → many episodes even on test data
        min_chunk_tuples: 4, // …still split across all the workers
        ..Default::default()
    })
}

fn sequential() -> Strategy {
    Strategy::SkinnerC(SkinnerCConfig::default())
}

fn run(db: &Database, script: &str, strategy: &Strategy) -> ExecOutcome {
    db.run_script(script, strategy)
        .unwrap_or_else(|e| panic!("{script} failed: {e}"))
}

/// Episodes per join order, most-used first.
type OrderCounts = Vec<(Vec<usize>, u64)>;

/// What must repeat exactly across runs of one statement: the rows in
/// their delivered order, work units, episodes, the learned order and the
/// per-order episode counts in their reported order.
fn fingerprint(out: &ExecOutcome) -> (String, u64, u64, Vec<usize>, OrderCounts) {
    (
        format!("{:?}", out.result.rows),
        out.work_units,
        out.metrics.slices,
        out.metrics.order.clone(),
        out.metrics.order_slice_counts.clone(),
    )
}

/// A moderate handmade join database with skew and a selective filter.
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

#[test]
fn one_thread_matches_sequential_skinner_c_handmade() {
    let db = handmade_db();
    let seq = run(&db, HANDMADE_SQL, &sequential());
    let par = run(&db, HANDMADE_SQL, &parallel(1));
    assert!(!seq.timed_out && !par.timed_out);
    assert_eq!(par.result.canonical_rows(), seq.result.canonical_rows());
    // Both engines collect the same join-tuple set and learn a valid
    // order over the same three tables.
    assert_eq!(par.metrics.result_tuples, seq.metrics.result_tuples);
    assert_eq!(par.metrics.order.len(), seq.metrics.order.len());
    assert!(par.metrics.slices > 0 && seq.metrics.slices > 0);
    // Same join, same per-step accounting conventions: total work stays in
    // the same ballpark (learning paths may differ, not the asymptotics).
    let ratio = par.work_units.max(seq.work_units) as f64
        / par.work_units.min(seq.work_units).max(1) as f64;
    assert!(
        ratio < 50.0,
        "work diverged: {} vs {}",
        par.work_units,
        seq.work_units
    );
}

#[test]
fn one_thread_matches_sequential_on_job_like_queries() {
    let w = job(&JobConfig {
        scale: 0.05,
        seed: 0x10B,
    });
    let db = Database::from_parts(w.catalog.clone(), w.udfs);
    // The three smallest-join queries keep the test minutes away from the
    // full benchmark while still exercising real multi-join scripts.
    let mut queries = w.queries.clone();
    queries.sort_by_key(|q| q.num_tables);
    for q in queries.iter().take(3) {
        let seq = run(&db, &q.script, &sequential());
        let par = run(&db, &q.script, &parallel(1));
        assert!(!seq.timed_out && !par.timed_out, "{} timed out", q.name);
        assert_eq!(
            par.result.canonical_rows(),
            seq.result.canonical_rows(),
            "{} disagrees",
            q.name
        );
        assert_eq!(
            par.metrics.result_tuples, seq.metrics.result_tuples,
            "{} join-tuple sets differ",
            q.name
        );
    }
}

#[test]
fn one_thread_matches_sequential_on_torture_workloads() {
    for w in [correlation_torture(4, 50, 1), trivial(4, 30)] {
        let db = Database::from_parts(w.catalog.clone(), w.udfs);
        let q = &w.queries[0];
        let seq = run(&db, &q.script, &sequential());
        let par = run(&db, &q.script, &parallel(1));
        assert!(!seq.timed_out && !par.timed_out, "{}", q.name);
        assert_eq!(
            par.result.canonical_rows(),
            seq.result.canonical_rows(),
            "{} disagrees",
            q.name
        );
    }
}

#[test]
fn n_thread_runs_are_deterministic_and_agree_with_reference() {
    let db = handmade_db();
    let expected = run(&db, HANDMADE_SQL, &Strategy::Reference)
        .result
        .canonical_rows();
    for threads in [2, 4, 8] {
        let mut seen = Vec::new();
        for rep in 0..3 {
            let out = run(&db, HANDMADE_SQL, &parallel(threads));
            assert!(!out.timed_out, "{threads} threads rep {rep}");
            let rows = out.result.canonical_rows();
            assert_eq!(rows, expected, "{threads} threads rep {rep} vs reference");
            seen.push(fingerprint(&out));
        }
        assert!(
            seen.windows(2).all(|w| w[0] == w[1]),
            "{threads}-thread runs diverged across repetitions"
        );
    }
}

#[test]
fn n_thread_runs_are_deterministic_on_torture() {
    let w = correlation_torture(4, 60, 2);
    let db = Database::from_parts(w.catalog.clone(), w.udfs);
    let script = &w.queries[0].script;
    let expected = run(&db, script, &Strategy::Reference)
        .result
        .canonical_rows();
    for threads in [2, 4, 8] {
        let mut seen = Vec::new();
        for rep in 0..2 {
            let out = run(&db, script, &parallel(threads));
            assert!(!out.timed_out, "{threads} threads rep {rep}");
            assert_eq!(
                out.result.canonical_rows(),
                expected,
                "{threads} threads rep {rep}"
            );
            seen.push(fingerprint(&out));
        }
        assert_eq!(seen[0], seen[1], "{threads}-thread runs diverged");
    }
}

/// Two statements at once share the process-wide pool; neither may
/// leak into the other. Every pair of {handmade, torture} × {2, 4
/// threads}, a case with itself included, runs concurrently from two
/// threads, and each side must reproduce the fingerprint it has alone.
#[test]
fn concurrent_statements_reproduce_their_solo_fingerprints() {
    use std::sync::Barrier;
    let handmade = handmade_db();
    let w = correlation_torture(4, 60, 2);
    let torture = Database::from_parts(w.catalog.clone(), w.udfs);
    let mut cases: Vec<(&Database, &str, usize)> = Vec::new();
    for threads in [2, 4] {
        cases.push((&handmade, HANDMADE_SQL, threads));
        cases.push((&torture, &w.queries[0].script, threads));
    }
    let solo: Vec<_> = cases
        .iter()
        .map(|&(db, sql, threads)| fingerprint(&run(db, sql, &parallel(threads))))
        .collect();
    for i in 0..cases.len() {
        for j in i..cases.len() {
            let barrier = Barrier::new(2);
            let got: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = [i, j]
                    .map(|k| {
                        let (db, sql, threads) = cases[k];
                        let barrier = &barrier;
                        s.spawn(move || {
                            barrier.wait();
                            fingerprint(&run(db, sql, &parallel(threads)))
                        })
                    })
                    .into_iter()
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(got[0], solo[i], "case {i} run beside case {j}");
            assert_eq!(got[1], solo[j], "case {j} run beside case {i}");
        }
    }
}

/// A large unindexable join that cannot finish quickly: every pair passes
/// through a generic (non-equality) predicate, so workers have plenty of
/// mid-episode work when the cancellation fires.
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

#[test]
fn session_deadline_stops_all_workers_promptly() {
    let (db, sql) = slow_db();
    let session = db.session();
    session.use_strategy("parallel_skinner").unwrap();
    session.set_threads(Some(4));
    session.set_deadline(Some(Duration::from_millis(30)));
    let started = Instant::now();
    let out = session.run_script(sql).unwrap();
    let elapsed = started.elapsed();
    assert!(out.timed_out, "deadline must surface as a timeout");
    // Workers poll the token every slice: seconds of slack is generous
    // even for a loaded single-core CI machine.
    assert!(
        elapsed < Duration::from_secs(20),
        "workers kept running: {elapsed:?}"
    );
    // The partial outcome is well-formed: correct shape, accounted work,
    // populated parallel instrumentation.
    assert_eq!(out.result.columns, vec!["n".to_string()]);
    assert_eq!(out.result.num_rows(), 0, "destructive timeout semantics");
    assert!(
        out.work_units > 0,
        "work done before the deadline is accounted"
    );
    assert_eq!(out.metrics.counter("threads"), Some(4));
}

#[test]
fn cancel_token_fired_mid_episode_stops_all_workers() {
    let (db, sql) = slow_db();
    let query = db.bind(sql).unwrap();
    let cancel = CancelToken::new();
    let ctx = db
        .exec_context()
        .with_cancel(cancel.clone())
        .with_threads(4);
    let trigger = {
        let cancel = cancel.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(25));
            cancel.cancel();
        })
    };
    let strategy = parallel(4).build();
    let started = Instant::now();
    let out = strategy.execute(&query, &ctx);
    let elapsed = started.elapsed();
    trigger.join().unwrap();
    assert!(out.timed_out, "cancellation must surface as a timeout");
    assert!(
        elapsed < Duration::from_secs(20),
        "workers kept running: {elapsed:?}"
    );
    assert_eq!(out.result.num_rows(), 0);
    assert_eq!(out.metrics.counter("threads"), Some(4));
    // The shared session budget absorbed the partial work.
    assert_eq!(ctx.budget().used(), out.work_units);
}
