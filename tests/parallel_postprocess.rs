//! Parallel post-processing equivalence: grouped and ordered results are
//! identical at 1 vs N threads.
//!
//! `parallel_skinner` routes grouping/ordering through
//! `skinner_exec::postprocess_parallel` (per-worker partial aggregation /
//! local sort, coordinator hash-/k-way merge). These tests pin the
//! contract on real workloads: the JOB-like generator and the correlation
//! torture chain, with GROUP BY, ORDER BY (+ DESC, LIMIT) and mixed
//! aggregate queries, and TPC-H `lineitem` grouped by its dense order key
//! (thousands of groups) — result rows must match the 1-thread run (and
//! the reference executor) exactly, not just as sorted multisets.

use skinnerdb::skinner_core::{ParallelSkinnerConfig, ParallelSkinnerStrategy};
use skinnerdb::skinner_exec::ReferenceStrategy;
use skinnerdb::skinner_workloads::job_like::{generate as job, JobConfig};
use skinnerdb::skinner_workloads::torture::correlation_torture;
use skinnerdb::skinner_workloads::tpch::{generate as tpch, TpchConfig};
use skinnerdb::{Database, ExecOutcome};

/// Run `sql` under the parallel strategy at `threads` workers.
fn run_parallel(db: &Database, sql: &str, threads: usize) -> ExecOutcome {
    let strategy = ParallelSkinnerStrategy(ParallelSkinnerConfig {
        batch_tuples: 64,
        min_chunk_tuples: 4,
        ..Default::default()
    });
    let ctx = db.exec_context().with_threads(threads);
    db.run_script(sql, &strategy, &ctx)
        .unwrap_or_else(|e| panic!("{threads}-thread run of {sql}: {e}"))
}

/// Run `sql` at 1 and N threads and demand exactly equal rows; also check
/// the 1-thread rows against the reference executor's canonical set.
/// Returns the number of result rows.
fn assert_thread_invariant(db: &Database, sql: &str) -> usize {
    let base = run_parallel(db, sql, 1);
    assert!(!base.timed_out, "1-thread run timed out: {sql}");
    let reference = db
        .run_script(sql, &ReferenceStrategy, &db.exec_context())
        .expect("reference run");
    assert_eq!(
        base.result.canonical_rows(),
        reference.result.canonical_rows(),
        "1-thread disagrees with reference: {sql}"
    );
    for threads in [2, 4, 8] {
        let out = run_parallel(db, sql, threads);
        assert!(!out.timed_out, "{threads}-thread run timed out: {sql}");
        assert_eq!(
            out.result.rows, base.result.rows,
            "rows differ at {threads} threads: {sql}"
        );
        assert_eq!(out.result.columns, base.result.columns);
    }
    base.result.rows.len()
}

#[test]
fn grouped_and_ordered_results_identical_on_job_like() {
    let w = job(&JobConfig {
        scale: 0.05,
        seed: 0x10B,
    });
    let db = Database::from_parts(w.catalog.clone(), w.udfs);
    for sql in [
        // GROUP BY with several aggregate kinds, ordered by the group key.
        "SELECT t.production_year, COUNT(*) n, MIN(t.title) first_title \
         FROM title t, movie_companies mc \
         WHERE t.id = mc.movie_id \
         GROUP BY t.production_year ORDER BY t.production_year",
        // Plain ORDER BY (descending + tiebreaker) with LIMIT — exercises
        // the per-worker local sort + k-way merge path.
        "SELECT t.production_year, t.title \
         FROM title t, movie_companies mc \
         WHERE t.id = mc.movie_id \
         ORDER BY t.production_year DESC, t.title LIMIT 50",
        // GROUP BY over a join with a selective filter.
        "SELECT mc.company_type_id, COUNT(*) n, MAX(t.production_year) latest \
         FROM title t, movie_companies mc \
         WHERE t.id = mc.movie_id AND t.production_year > 1990 \
         GROUP BY mc.company_type_id ORDER BY mc.company_type_id",
    ] {
        assert_thread_invariant(&db, sql);
    }
}

#[test]
fn grouped_and_ordered_results_identical_on_torture() {
    // Edge 2 is the empty edge: joins over t0..t2 are real work with
    // fanout 2 per hop, so the result set is large enough to split.
    let w = correlation_torture(4, 200, 2);
    let db = Database::from_parts(w.catalog.clone(), w.udfs);
    for sql in [
        "SELECT t0.a, COUNT(*) n, MIN(t1.b) mn, MAX(t2.b) mx \
         FROM t0, t1, t2 WHERE t0.b = t1.a AND t1.b = t2.a \
         GROUP BY t0.a ORDER BY t0.a",
        "SELECT t0.a, t1.b FROM t0, t1 WHERE t0.b = t1.a \
         ORDER BY t0.a DESC, t1.b LIMIT 40",
        "SELECT DISTINCT t0.a FROM t0, t1 WHERE t0.b = t1.a ORDER BY t0.a",
    ] {
        assert_thread_invariant(&db, sql);
    }
}

#[test]
fn dense_key_groups_identical_on_tpch_lineitem() {
    // Scale 0.01: 60 000 `lineitem` rows over 15 000 consecutive order
    // keys — the `GROUP BY l_orderkey` temp tables of Q18 and Q21.
    let w = tpch(&TpchConfig {
        scale: 0.01,
        seed: 0xD3A5,
    });
    let db = Database::from_parts(w.catalog.clone(), w.udfs);
    for sql in [
        // Int MIN/MAX: per-worker partial aggregation, then the merge.
        "SELECT l.l_orderkey, MIN(l.l_suppkey) mn, MAX(l.l_suppkey) mx, COUNT(*) n \
         FROM lineitem l GROUP BY l.l_orderkey",
        // Float SUM: order-sensitive, so the sequential group scan.
        "SELECT l.l_orderkey, SUM(l.l_quantity) qty \
         FROM lineitem l GROUP BY l.l_orderkey",
    ] {
        let groups = assert_thread_invariant(&db, sql);
        assert!(groups >= 10_000, "{groups} groups: {sql}");
    }
}
