//! Golden pin of the engines' deterministic counters.
//!
//! Work units are the repository's hardware-independent cost metric and the
//! quantity every regret bound is stated in, so a change to the join loop's
//! *implementation* (index layout, where the budget is counted, how probes
//! are resolved) must not move them by a single unit. This file pins, for a
//! handful of JOB-like queries, one UDF-torture and one correlation-torture
//! statement and one fact-table join wide enough to split the generic
//! engine's probe into chunks, the `(work_units, slices, result checksum)`
//! of sequential Skinner-C, the fixed-order engine and `parallel_skinner`,
//! the `(work_units, rows, result checksum)` of the generic-engine
//! strategies (Traditional row, column and 4-thread column profiles,
//! Skinner-G, Skinner-H, the eddy and the re-optimizer), and checks timeout
//! behaviour at every possible work limit against a model that charges one
//! unit at a time.
//!
//! The expected values were recorded from the engine *before* its accounting
//! moved from a per-unit atomic to a per-slice local counter. If a change
//! moves them on purpose (a different charging convention), re-record them
//! in that same change and say so; the mismatch message prints the new table.

use std::collections::BTreeSet;
use std::sync::Arc;

use skinnerdb::skinner_adaptive::{run_eddy, run_reoptimizer, EddyConfig, ReoptimizerConfig};
use skinnerdb::skinner_core::skinner_c::join::{
    continue_join, JoinCursors, OrderInfo, SliceOutcome,
};
use skinnerdb::skinner_core::skinner_c::preproc::prepare;
use skinnerdb::skinner_core::skinner_c::result_set::ResultSet;
use skinnerdb::skinner_core::skinner_c::state::JoinState;
use skinnerdb::skinner_core::{
    run_parallel_skinner, run_skinner_c, run_skinner_c_fixed, run_skinner_h, ParallelSkinnerConfig,
    SkinnerCConfig, SkinnerG, SkinnerGConfig, SkinnerHConfig,
};
use skinnerdb::skinner_exec::{
    run_traditional, ExecContext, ExecOutcome, ExecProfile, TraditionalConfig, WorkBudget,
};
use skinnerdb::skinner_query::expr::{ColRef, EvalCtx, Expr};
use skinnerdb::skinner_query::JoinQuery;
use skinnerdb::skinner_storage::{RowId, Table};
use skinnerdb::skinner_workloads::job_like::{generate as job, JobConfig};
use skinnerdb::skinner_workloads::torture::{correlation_torture, udf_torture, Shape};
use skinnerdb::{DataType, Database, Value};

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Order-insensitive checksum of a result (rows are canonicalised first).
fn result_checksum(out: &ExecOutcome) -> u64 {
    fnv1a(out.result.canonical_rows().join("\n").bytes())
}

fn line(case: &str, engine: &str, out: &ExecOutcome, pin_work: bool) -> String {
    assert!(!out.timed_out, "{case} / {engine} timed out");
    let work = if pin_work {
        format!("work={} slices={} ", out.work_units, out.metrics.slices)
    } else {
        String::new()
    };
    format!(
        "{case} {engine} {work}tuples={} sum={:016x}",
        out.metrics.result_tuples,
        result_checksum(out)
    )
}

/// One line per generic-engine run: result rows instead of Skinner-C's
/// `result_tuples` counter, and no slices.
fn generic_line(case: &str, engine: &str, out: &ExecOutcome) -> String {
    assert!(!out.timed_out, "{case} / {engine} timed out");
    format!(
        "{case} {engine} work={} tuples={} sum={:016x}",
        out.work_units,
        out.result.num_rows(),
        result_checksum(out)
    )
}

/// Checksum of a result's rows in the order the engine produced them.
fn ordered_checksum(out: &ExecOutcome) -> u64 {
    fnv1a(out.result.ordered_rows().join("\n").bytes())
}

/// A 2 000-row fact table with two small dimensions: every left-deep order
/// sends at least 1 600 tuples into its last join step, so the generic
/// engine's probe runs in chunks.
fn fact_db() -> Arc<Database> {
    let db = Database::new();
    db.create_table(
        "f",
        &[
            ("id", DataType::Int),
            ("did", DataType::Int),
            ("eid", DataType::Int),
        ],
        (0..2000)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int((i * 7) % 50),
                    Value::Int((i * 13) % 40),
                ]
            })
            .collect(),
    )
    .unwrap();
    db.create_table(
        "d",
        &[("id", DataType::Int), ("x", DataType::Int)],
        (0..50)
            .map(|i| vec![Value::Int(i), Value::Int(i % 9)])
            .collect(),
    )
    .unwrap();
    db.create_table(
        "e",
        &[("id", DataType::Int), ("y", DataType::Int)],
        (0..40)
            .map(|i| vec![Value::Int(i), Value::Int(i % 5)])
            .collect(),
    )
    .unwrap();
    Arc::new(db)
}

const FACT_SQL: &str = "SELECT f.id, d.x, e.y FROM f, d, e \
     WHERE f.did = d.id AND f.eid = e.id AND d.x + e.y < 9";

/// The statements under pin: `(label, database, bound query)`.
fn cases() -> Vec<(String, Arc<Database>, JoinQuery)> {
    let mut v = Vec::new();
    let mut pin = |label: String, db: &Arc<Database>, script: &str| {
        v.push((label, db.clone(), db.bind(script).unwrap()));
    };
    let w = job(&JobConfig {
        scale: 0.04,
        seed: 11,
    });
    let db = Arc::new(Database::from_parts(w.catalog.clone(), w.udfs));
    // One query per join count the generator offers.
    let mut seen = BTreeSet::new();
    for q in w.queries.iter().filter(|q| seen.insert(q.num_tables)) {
        pin(format!("job-{}", q.name), &db, &q.script);
    }
    let w = udf_torture(Shape::Chain, 5, 30, 2);
    let db = Arc::new(Database::from_parts(w.catalog.clone(), w.udfs));
    pin("udf-torture".into(), &db, &w.queries[0].script);
    let w = correlation_torture(5, 400, 2);
    let db = Arc::new(Database::from_parts(w.catalog.clone(), w.udfs));
    pin("corr-torture".into(), &db, &w.queries[0].script);
    pin("fact-join".into(), &fact_db(), FACT_SQL);
    v
}

fn parallel() -> ParallelSkinnerConfig {
    ParallelSkinnerConfig {
        batch_tuples: 64,
        min_chunk_tuples: 4,
        ..Default::default()
    }
}

fn traditional(profile: ExecProfile) -> TraditionalConfig {
    TraditionalConfig {
        profile,
        ..Default::default()
    }
}

/// The generic-engine strategies under pin, in table order.
fn generic_runs(query: &JoinQuery, ctx: &ExecContext) -> Vec<(&'static str, ExecOutcome)> {
    vec![
        (
            "traditional_row",
            run_traditional(query, ctx, &traditional(ExecProfile::row_store())),
        ),
        (
            "traditional_col",
            run_traditional(query, ctx, &traditional(ExecProfile::column_store())),
        ),
        (
            "traditional_col4",
            run_traditional(
                query,
                ctx,
                &traditional(ExecProfile::column_store_parallel(4)),
            ),
        ),
        (
            "skinner_g",
            SkinnerG::new(query, ctx, SkinnerGConfig::default()).run_to_completion(),
        ),
        (
            "skinner_h",
            run_skinner_h(query, ctx, &SkinnerHConfig::default()),
        ),
        ("eddy", run_eddy(query, ctx, &EddyConfig::default())),
        (
            "reopt",
            run_reoptimizer(query, ctx, &ReoptimizerConfig::default()),
        ),
    ]
}

#[rustfmt::skip]
const GOLDEN: &[&str] = &[
    "job-1a skinner_c work=4765 slices=2 tuples=1 sum=af63ac4c86019afc",
    "job-1a skinner_c_scan work=50483 slices=51 tuples=1 sum=af63ac4c86019afc",
    "job-1a fixed work=7745 slices=6 tuples=1 sum=af63ac4c86019afc",
    "job-1a parallel_1 work=9318 slices=21 tuples=1 sum=af63ac4c86019afc",
    "job-1a parallel_2 work=8613 slices=21 tuples=1 sum=af63ac4c86019afc",
    "job-1a traditional_row work=9568 tuples=1 sum=af63ac4c86019afc",
    "job-1a traditional_col work=3704 tuples=1 sum=af63ac4c86019afc",
    "job-1a traditional_col4 work=3704 tuples=1 sum=af63ac4c86019afc",
    "job-1a skinner_g work=43926 tuples=1 sum=af63ac4c86019afc",
    "job-1a skinner_h work=40667 tuples=1 sum=af63ac4c86019afc",
    "job-1a eddy work=3714 tuples=1 sum=af63ac4c86019afc",
    "job-1a reopt work=7628 tuples=1 sum=af63ac4c86019afc",
    "job-2a skinner_c work=8704 slices=5 tuples=76 sum=0a5599fcc98a5ce1",
    "job-2a skinner_c_scan work=27615 slices=28 tuples=76 sum=0a5599fcc98a5ce1",
    "job-2a fixed work=6624 slices=2 tuples=76 sum=0a5599fcc98a5ce1",
    "job-2a parallel_1 work=13376 slices=22 tuples=76 sum=0a5599fcc98a5ce1",
    "job-2a parallel_2 work=13786 slices=22 tuples=76 sum=0a5599fcc98a5ce1",
    "job-2a traditional_row work=10536 tuples=1 sum=0a5599fcc98a5ce1",
    "job-2a traditional_col work=4188 tuples=1 sum=0a5599fcc98a5ce1",
    "job-2a traditional_col4 work=4188 tuples=1 sum=0a5599fcc98a5ce1",
    "job-2a skinner_g work=65225 tuples=1 sum=0a5599fcc98a5ce1",
    "job-2a skinner_h work=42239 tuples=1 sum=0a5599fcc98a5ce1",
    "job-2a eddy work=6026 tuples=1 sum=0a5599fcc98a5ce1",
    "job-2a reopt work=9565 tuples=1 sum=0a5599fcc98a5ce1",
    "job-6a skinner_c work=13000 slices=7 tuples=79 sum=0a5599fcc98a5ce1",
    "job-6a skinner_c_scan work=221832 slices=221 tuples=79 sum=0a5599fcc98a5ce1",
    "job-6a fixed work=9163 slices=3 tuples=79 sum=0a5599fcc98a5ce1",
    "job-6a parallel_1 work=17290 slices=5 tuples=79 sum=0a5599fcc98a5ce1",
    "job-6a parallel_2 work=19575 slices=5 tuples=79 sum=0a5599fcc98a5ce1",
    "job-6a traditional_row work=11539 tuples=1 sum=0a5599fcc98a5ce1",
    "job-6a traditional_col work=5555 tuples=1 sum=0a5599fcc98a5ce1",
    "job-6a traditional_col4 work=5555 tuples=1 sum=0a5599fcc98a5ce1",
    "job-6a skinner_g work=154961 tuples=1 sum=0a5599fcc98a5ce1",
    "job-6a skinner_h work=45355 tuples=1 sum=0a5599fcc98a5ce1",
    "job-6a eddy work=8023 tuples=1 sum=0a5599fcc98a5ce1",
    "job-6a reopt work=12001 tuples=1 sum=0a5599fcc98a5ce1",
    "job-7a skinner_c work=3085 slices=1 tuples=8 sum=af63b54c8601aa47",
    "job-7a skinner_c_scan work=33099 slices=32 tuples=8 sum=af63b54c8601aa47",
    "job-7a fixed work=3085 slices=1 tuples=8 sum=af63b54c8601aa47",
    "job-7a parallel_1 work=2995 slices=1 tuples=8 sum=af63b54c8601aa47",
    "job-7a parallel_2 work=2996 slices=1 tuples=8 sum=af63b54c8601aa47",
    "job-7a traditional_row work=4392 tuples=1 sum=af63b54c8601aa47",
    "job-7a traditional_col work=2888 tuples=1 sum=af63b54c8601aa47",
    "job-7a traditional_col4 work=2888 tuples=1 sum=af63b54c8601aa47",
    "job-7a skinner_g work=34964 tuples=1 sum=af63b54c8601aa47",
    "job-7a skinner_h work=20487 tuples=1 sum=af63b54c8601aa47",
    "job-7a eddy work=2922 tuples=1 sum=af63b54c8601aa47",
    "job-7a reopt work=4789 tuples=1 sum=af63b54c8601aa47",
    "job-8a skinner_c work=26105 slices=16 tuples=71 sum=0a5599fcc98a5ce1",
    "job-8a skinner_c_scan work=433721 slices=436 tuples=71 sum=0a5599fcc98a5ce1",
    "job-8a fixed work=25122 slices=14 tuples=71 sum=0a5599fcc98a5ce1",
    "job-8a parallel_1 work=57033 slices=7 tuples=71 sum=0a5599fcc98a5ce1",
    "job-8a parallel_2 work=59369 slices=7 tuples=71 sum=0a5599fcc98a5ce1",
    "job-8a traditional_row work=16777 tuples=1 sum=0a5599fcc98a5ce1",
    "job-8a traditional_col work=7503 tuples=1 sum=0a5599fcc98a5ce1",
    "job-8a traditional_col4 work=7503 tuples=1 sum=0a5599fcc98a5ce1",
    "job-8a skinner_g work=579803 tuples=1 sum=0a5599fcc98a5ce1",
    "job-8a skinner_h work=85798 tuples=1 sum=0a5599fcc98a5ce1",
    "job-8a eddy work=10598 tuples=1 sum=0a5599fcc98a5ce1",
    "job-8a reopt work=17211 tuples=1 sum=0a5599fcc98a5ce1",
    "job-9a skinner_c work=95417 slices=68 tuples=1368 sum=f5f15604cd7ef748",
    "job-9a skinner_c_scan work=3695388 slices=3702 tuples=1368 sum=f5f15604cd7ef748",
    "job-9a fixed work=82237 slices=56 tuples=1368 sum=f5f15604cd7ef748",
    "job-9a parallel_1 work=135513 slices=9 tuples=1368 sum=f5f15604cd7ef748",
    "job-9a parallel_2 work=163124 slices=9 tuples=1368 sum=f5f15604cd7ef748",
    "job-9a traditional_row work=85940 tuples=1 sum=f5f15604cd7ef748",
    "job-9a traditional_col work=36430 tuples=1 sum=f5f15604cd7ef748",
    "job-9a traditional_col4 work=36430 tuples=1 sum=f5f15604cd7ef748",
    "job-9a skinner_g work=2918883 tuples=1 sum=f5f15604cd7ef748",
    "job-9a skinner_h work=347701 tuples=1 sum=f5f15604cd7ef748",
    "job-9a eddy work=63026 tuples=1 sum=f5f15604cd7ef748",
    "job-9a reopt work=61923 tuples=1 sum=f5f15604cd7ef748",
    "job-10a skinner_c work=28060 slices=15 tuples=0 sum=af63ad4c86019caf",
    "job-10a skinner_c_scan work=96333 slices=97 tuples=0 sum=af63ad4c86019caf",
    "job-10a fixed work=21016 slices=8 tuples=0 sum=af63ad4c86019caf",
    "job-10a parallel_1 work=47761 slices=9 tuples=0 sum=af63ad4c86019caf",
    "job-10a parallel_2 work=64915 slices=9 tuples=0 sum=af63ad4c86019caf",
    "job-10a traditional_row work=12344 tuples=1 sum=af63ad4c86019caf",
    "job-10a traditional_col work=5766 tuples=1 sum=af63ad4c86019caf",
    "job-10a traditional_col4 work=5766 tuples=1 sum=af63ad4c86019caf",
    "job-10a skinner_g work=666489 tuples=1 sum=af63ad4c86019caf",
    "job-10a skinner_h work=46527 tuples=1 sum=af63ad4c86019caf",
    "job-10a eddy work=15652 tuples=1 sum=af63ad4c86019caf",
    "job-10a reopt work=13174 tuples=1 sum=af63ad4c86019caf",
    "udf-torture skinner_c work=4626 slices=6 tuples=0 sum=af63ad4c86019caf",
    "udf-torture skinner_c_scan work=4626 slices=6 tuples=0 sum=af63ad4c86019caf",
    "udf-torture fixed work=56761 slices=58 tuples=0 sum=af63ad4c86019caf",
    "udf-torture parallel_1 work=9545 slices=5 tuples=0 sum=af63ad4c86019caf",
    "udf-torture parallel_2 work=17230 slices=5 tuples=0 sum=af63ad4c86019caf",
    "udf-torture traditional_row work=1759590 tuples=1 sum=af63ad4c86019caf",
    "udf-torture traditional_col work=1703730 tuples=1 sum=af63ad4c86019caf",
    "udf-torture traditional_col4 work=1703730 tuples=1 sum=af63ad4c86019caf",
    "udf-torture skinner_g work=155184 tuples=1 sum=af63ad4c86019caf",
    "udf-torture skinner_h work=409191 tuples=1 sum=af63ad4c86019caf",
    "udf-torture eddy work=1703730 tuples=1 sum=af63ad4c86019caf",
    "udf-torture reopt work=1759530 tuples=1 sum=af63ad4c86019caf",
    "corr-torture skinner_c work=8279 slices=6 tuples=0 sum=af63ad4c86019caf",
    "corr-torture skinner_c_scan work=325991 slices=327 tuples=0 sum=af63ad4c86019caf",
    "corr-torture fixed work=4401 slices=2 tuples=0 sum=af63ad4c86019caf",
    "corr-torture parallel_1 work=9466 slices=11 tuples=0 sum=af63ad4c86019caf",
    "corr-torture parallel_2 work=9477 slices=11 tuples=0 sum=af63ad4c86019caf",
    "corr-torture traditional_row work=22800 tuples=1 sum=af63ad4c86019caf",
    "corr-torture traditional_col work=9200 tuples=1 sum=af63ad4c86019caf",
    "corr-torture traditional_col4 work=9200 tuples=1 sum=af63ad4c86019caf",
    "corr-torture skinner_g work=126624 tuples=1 sum=af63ad4c86019caf",
    "corr-torture skinner_h work=85555 tuples=1 sum=af63ad4c86019caf",
    "corr-torture eddy work=11200 tuples=1 sum=af63ad4c86019caf",
    "corr-torture reopt work=22000 tuples=1 sum=af63ad4c86019caf",
    "fact-join skinner_c work=191045 slices=12 tuples=1600 sum=26e32a406121c045",
    "fact-join skinner_c_scan work=452483 slices=375 tuples=1600 sum=26e32a406121c045",
    "fact-join fixed work=207511 slices=11 tuples=1600 sum=26e32a406121c045",
    "fact-join parallel_1 work=32680 slices=34 tuples=1600 sum=26e32a406121c045",
    "fact-join parallel_2 work=34250 slices=34 tuples=1600 sum=26e32a406121c045",
    "fact-join traditional_row work=27750 tuples=1600 sum=26e32a406121c045",
    "fact-join traditional_col work=14050 tuples=1600 sum=26e32a406121c045",
    "fact-join traditional_col4 work=14050 tuples=1600 sum=26e32a406121c045",
    "fact-join traditional_col4 row_order=461b012c2eeedf17",
    "fact-join skinner_g work=93833 tuples=1600 sum=26e32a406121c045",
    "fact-join skinner_h work=87804 tuples=1600 sum=26e32a406121c045",
    "fact-join eddy work=71364 tuples=1600 sum=26e32a406121c045",
    "fact-join reopt work=27650 tuples=1600 sum=26e32a406121c045",
];

#[test]
fn engines_reproduce_the_recorded_counters() {
    let mut actual = Vec::new();
    for (case, db, query) in cases() {
        let ctx = db.exec_context();
        let learned = run_skinner_c(&query, &ctx, &SkinnerCConfig::default());
        actual.push(line(&case, "skinner_c", &learned, true));
        // Scan path: equality predicates evaluated as expressions.
        let no_jumps = SkinnerCConfig {
            use_jump_indexes: false,
            ..Default::default()
        };
        let capped = ctx.clone().with_work_limit(50_000_000);
        actual.push(line(
            &case,
            "skinner_c_scan",
            &run_skinner_c(&query, &capped, &no_jumps),
            true,
        ));
        let fixed = run_skinner_c_fixed(
            &query,
            &ctx,
            &learned.metrics.order,
            &SkinnerCConfig::default(),
        );
        actual.push(line(&case, "fixed", &fixed, true));
        for threads in [1, 2] {
            let at = ctx.clone().with_threads(threads);
            let out = run_parallel_skinner(&query, &at, &parallel());
            actual.push(line(&case, &format!("parallel_{threads}"), &out, true));
        }
        for (engine, out) in generic_runs(&query, &ctx) {
            actual.push(generic_line(&case, engine, &out));
            // A projection without ORDER BY: its row order is the order in
            // which the chunked probe's outputs were concatenated.
            if case == "fact-join" && engine == "traditional_col4" {
                actual.push(format!(
                    "{case} {engine} row_order={:016x}",
                    ordered_checksum(&out)
                ));
            }
        }
    }
    let expected: Vec<String> = GOLDEN.iter().map(|s| s.to_string()).collect();
    assert!(
        actual == expected,
        "deterministic counters moved; actual table:\n{}",
        actual
            .iter()
            .map(|l| format!("    \"{l}\",\n"))
            .collect::<String>()
    );
}

// ---------------------------------------------------------------------
// Timeout parity: every work limit from 1 to past the total.
// ---------------------------------------------------------------------

fn sweep_db() -> Database {
    let db = Database::new();
    db.create_table(
        "a",
        &[("id", DataType::Int), ("g", DataType::Int)],
        (0..40)
            .map(|i| vec![Value::Int(i), Value::Int(i % 6)])
            .collect(),
    )
    .unwrap();
    db.create_table(
        "b",
        &[("aid", DataType::Int), ("w", DataType::Int)],
        (0..70)
            .map(|i| vec![Value::Int(i % 40), Value::Int(i % 12)])
            .collect(),
    )
    .unwrap();
    db.create_table(
        "c",
        &[("bw", DataType::Int)],
        (0..12).map(|i| vec![Value::Int(i % 9)]).collect(),
    )
    .unwrap();
    db
}

/// Two index jumps, one generic predicate and one unary filter.
const SWEEP_SQL: &str = "SELECT a.id, b.w FROM a, b, c \
     WHERE a.id = b.aid AND b.w = c.bw AND a.id + c.bw < 40 AND a.g < 5";

/// What a budgeted run of the join loop leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    timed_out: bool,
    used: u64,
    tuples_charged: u64,
    results: usize,
}

/// The accounting contract, one unit at a time: every charge lands on the
/// counter before it is checked, and the first charge to cross the limit
/// stops the run with the overage recorded.
struct PerUnit {
    used: u64,
    limit: u64,
    tuples: u64,
}

struct Stop;

impl PerUnit {
    fn charge(&mut self, n: u64) -> Result<(), Stop> {
        self.used += n;
        if self.used > self.limit {
            Err(Stop)
        } else {
            Ok(())
        }
    }
}

/// The multi-way join of `order` with per-unit charging and index jumps
/// found by scanning — no `HashIndex`, no slices, no shared state.
fn model_join(q: &JoinQuery, tables: &[Arc<Table>], order: &[usize], limit: u64) -> Observed {
    let m = order.len();
    let pos_of = |t: usize| order.iter().position(|&x| x == t).unwrap();
    let mut jumps: Vec<Vec<(ColRef, ColRef)>> = vec![Vec::new(); m];
    let mut checks: Vec<Vec<&Expr>> = vec![Vec::new(); m];
    for p in &q.equi_preds {
        let (pl, pr) = (pos_of(p.left.table), pos_of(p.right.table));
        if pl > pr {
            jumps[pl].push((p.left, p.right));
        } else {
            jumps[pr].push((p.right, p.left));
        }
    }
    for p in &q.generic_preds {
        let pos = p.tables.iter().map(pos_of).max().unwrap();
        checks[pos].push(&p.expr);
    }
    let interner = tables[0].interner().clone();
    let mut budget = PerUnit {
        used: 0,
        limit,
        tuples: 0,
    };
    let mut results: BTreeSet<Vec<RowId>> = BTreeSet::new();
    let mut s: Vec<RowId> = vec![0; m];
    let mut depth = 0usize;
    let mut run = || -> Result<(), Stop> {
        loop {
            budget.charge(1)?;
            let ti = order[depth];
            let n = tables[ti].cardinality();
            let mut cur = s[ti];
            let candidate = 'search: loop {
                if cur >= n {
                    break None;
                }
                for &(mine, other) in &jumps[depth] {
                    budget.charge(1)?;
                    let key = tables[other.table].column(other.col).key_at(s[other.table]);
                    let col = tables[ti].column(mine.col);
                    match (cur..n).find(|&r| col.key_at(r) == key) {
                        None => break 'search None,
                        Some(hit) if hit > cur => {
                            cur = hit;
                            continue 'search;
                        }
                        Some(_) => {}
                    }
                }
                break Some(cur);
            };
            match candidate {
                None => {
                    s[ti] = 0;
                    if depth == 0 {
                        return Ok(());
                    }
                    depth -= 1;
                    s[order[depth]] += 1;
                }
                Some(row) => {
                    s[ti] = row;
                    let ok = if checks[depth].is_empty() {
                        true
                    } else {
                        budget.charge(checks[depth].len() as u64)?;
                        let ectx = EvalCtx::new(tables, &s, &interner);
                        checks[depth].iter().all(|c| c.eval_bool(&ectx))
                    };
                    if !ok {
                        s[ti] = row + 1;
                    } else if depth == m - 1 {
                        if results.insert(s.clone()) {
                            budget.tuples += 1;
                            budget.charge(1)?;
                        }
                        s[ti] = row + 1;
                    } else {
                        depth += 1;
                        s[order[depth]] = 0;
                    }
                }
            }
        }
    };
    let timed_out = run().is_err();
    Observed {
        timed_out,
        used: budget.used,
        tuples_charged: budget.tuples,
        results: results.len(),
    }
}

#[test]
fn join_loop_timeouts_match_per_unit_charging_at_every_limit() {
    let db = sweep_db();
    let q = db.bind(SWEEP_SQL).unwrap();
    let prepared = prepare(&q, &WorkBudget::unlimited(), 1, true).unwrap();
    let ctx = &prepared.ctx;
    let offsets = vec![0; q.num_tables()];
    // [0, 2, 1] puts both jumps on the last position (leapfrogging two
    // posting lists); [1, 0, 2] probes with one jump per level.
    for order in [[0usize, 1, 2], [0, 2, 1], [1, 0, 2], [2, 1, 0]] {
        let info = OrderInfo::build(&q, ctx, &order, true);
        let total = model_join(&q, &ctx.tables, &order, u64::MAX);
        assert!(!total.timed_out && total.results > 0, "{order:?}");
        for slice_steps in [1u64, 7, 500] {
            for limit in 0..=total.used + 2 {
                let budget = WorkBudget::with_limit(limit);
                let mut state = JoinState::fresh(&offsets);
                let mut cursors = JoinCursors::default();
                let mut results = ResultSet::new();
                let timed_out = loop {
                    match continue_join(
                        &info,
                        &mut state,
                        &mut cursors,
                        &offsets,
                        slice_steps,
                        &budget,
                        &mut results,
                    ) {
                        Ok(SliceOutcome::Finished) => break false,
                        Ok(SliceOutcome::Budget) => {}
                        Err(_) => break true,
                    }
                };
                let engine = Observed {
                    timed_out,
                    used: budget.used(),
                    tuples_charged: budget.tuples_produced(),
                    results: results.len(),
                };
                let model = model_join(&q, &ctx.tables, &order, limit);
                assert_eq!(
                    engine, model,
                    "order {order:?}, slice_steps {slice_steps}, limit {limit}"
                );
                assert_eq!(engine.timed_out, limit < total.used);
            }
        }
    }
}

/// `(timed_out, work_units)` of whole statements — pre-processing filter,
/// index build, learned join, post-processing — at every work limit,
/// folded into one checksum per engine.
const SWEEP_GOLDEN: &[&str] = &[
    "skinner_c total=1167 first_ok=1167 seq=a969d6d6f4034fd0",
    "fixed total=1145 first_ok=1145 seq=35d8a01c3ebedeff",
    "parallel_1 total=7623 first_ok=7623 seq=5a26d24b19eeb9cb",
];

#[test]
fn statement_timeouts_reproduce_the_recorded_sequence() {
    let db = sweep_db();
    let q = db.bind(SWEEP_SQL).unwrap();
    let ctx = |limit: u64| db.exec_context().with_threads(1).with_work_limit(limit);
    let cfg = SkinnerCConfig {
        slice_steps: 16,
        ..Default::default()
    };
    let mut actual = Vec::new();
    type Run<'a> = Box<dyn Fn(u64) -> ExecOutcome + 'a>;
    let engines: Vec<(&str, Run)> = vec![
        ("skinner_c", Box::new(|l| run_skinner_c(&q, &ctx(l), &cfg))),
        (
            "fixed",
            Box::new(|l| run_skinner_c_fixed(&q, &ctx(l), &[1, 0, 2], &cfg)),
        ),
        (
            "parallel_1",
            Box::new(|l| run_parallel_skinner(&q, &ctx(l), &parallel())),
        ),
    ];
    for (name, run) in &engines {
        let total = run(u64::MAX);
        assert!(!total.timed_out);
        let mut seq = Vec::new();
        let mut first_ok = None;
        for limit in 1..=total.work_units + 2 {
            let out = run(limit);
            if !out.timed_out && first_ok.is_none() {
                first_ok = Some(limit);
            }
            if out.timed_out {
                assert_eq!(out.result.num_rows(), 0, "{name} limit {limit}");
            }
            seq.extend_from_slice(&[out.timed_out as u64, out.work_units]);
        }
        actual.push(format!(
            "{name} total={} first_ok={} seq={:016x}",
            total.work_units,
            first_ok.unwrap(),
            fnv1a(seq.iter().flat_map(|v| v.to_le_bytes()))
        ));
    }
    let expected: Vec<String> = SWEEP_GOLDEN.iter().map(|s| s.to_string()).collect();
    assert!(
        actual == expected,
        "timeout sequences moved; actual table:\n{}",
        actual
            .iter()
            .map(|l| format!("    \"{l}\",\n"))
            .collect::<String>()
    );
}
