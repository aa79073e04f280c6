//! Golden pin of how often each UDF is called by whole statements.
//!
//! How a UDF call is made — how its arguments are built, how the function
//! is dispatched — is an implementation detail of predicate evaluation.
//! *Which* UDFs are called, and how often, is not: a UDF is an opaque user
//! function that may count, log or cost money per call, and the engines'
//! short circuits and check placement decide the number. This file pins,
//! for the `trivial` chain, the same chain closed into a cycle (so one join
//! level holds two checks and the second runs only when the first holds)
//! and the UDF-torture chain and star (good edge in the middle), the calls
//! each UDF receives under Skinner-C, the
//! fixed-order engine replaying Skinner-C's learned order,
//! `parallel_skinner` at one thread and `Traditional`.
//!
//! The UDFs count themselves: every registered function is re-registered
//! as a wrapper that bumps its own counter and then calls the original.
//! The expected totals were recorded with the registry's former built-in
//! call counter, before it was removed; if a change moves them on purpose,
//! re-record them in that same change and say why (the mismatch message
//! prints the new table).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use skinnerdb::skinner_core::{
    run_parallel_skinner, run_skinner_c, run_skinner_c_fixed, ParallelSkinnerConfig, SkinnerCConfig,
};
use skinnerdb::skinner_exec::{ExecOutcome, TraditionalStrategy};
use skinnerdb::skinner_query::UdfRegistry;
use skinnerdb::skinner_workloads::torture::{trivial, udf_torture, Shape};
use skinnerdb::skinner_workloads::Workload;
use skinnerdb::Database;

/// Re-register each of `names` as a wrapper that counts its calls.
fn count_calls(udfs: &UdfRegistry, names: &[String]) -> Vec<(String, Arc<AtomicU64>)> {
    names
        .iter()
        .map(|name| {
            let id = udfs.lookup(name).expect("registered UDF");
            let (func, calls) = (udfs.func(id), Arc::new(AtomicU64::new(0)));
            let counter = calls.clone();
            udfs.register(name, move |args| {
                counter.fetch_add(1, Ordering::Relaxed);
                func(args)
            });
            (name.clone(), calls)
        })
        .collect()
}

/// The statements under pin: `(label, workload, statement, UDF names)`.
fn cases() -> Vec<(&'static str, Workload, String, Vec<String>)> {
    let first = |w: Workload| {
        let script = w.queries[0].script.clone();
        (w, script)
    };
    // Five tables, four edges; the good (always false) one is edge 2.
    let torture_names = || -> Vec<String> {
        (0..4)
            .map(|e| match e {
                2 => format!("good_pred_{e}"),
                _ => format!("bad_pred_{e}"),
            })
            .collect()
    };
    let cycle = "SELECT COUNT(*) matches FROM t0, t1, t2, t3 \
         WHERE udf_eq(t0.b, t1.a) AND udf_eq(t1.b, t2.a) \
         AND udf_eq(t2.b, t3.a) AND udf_eq(t3.b, t0.a)";
    let udf_eq = || vec!["udf_eq".to_string()];
    let (chain, chain_sql) = first(trivial(4, 40));
    let (torture_chain, torture_chain_sql) = first(udf_torture(Shape::Chain, 5, 20, 2));
    let (torture_star, torture_star_sql) = first(udf_torture(Shape::Star, 5, 20, 2));
    vec![
        ("trivial", chain, chain_sql, udf_eq()),
        ("trivial-cycle", trivial(4, 40), cycle.to_string(), udf_eq()),
        (
            "udf-torture-chain",
            torture_chain,
            torture_chain_sql,
            torture_names(),
        ),
        (
            "udf-torture-star",
            torture_star,
            torture_star_sql,
            torture_names(),
        ),
    ]
}

#[rustfmt::skip]
const GOLDEN: &[&str] = &[
    "trivial skinner_c udf_eq=5823",
    "trivial fixed udf_eq=4800",
    "trivial parallel_1 udf_eq=8813",
    "trivial traditional udf_eq=4800",
    "trivial-cycle skinner_c udf_eq=6248",
    "trivial-cycle fixed udf_eq=4840",
    "trivial-cycle parallel_1 udf_eq=8318",
    "trivial-cycle traditional udf_eq=4840",
    "udf-torture-chain skinner_c bad_pred_0=0 bad_pred_1=0 good_pred_2=400 bad_pred_3=0",
    "udf-torture-chain fixed bad_pred_0=8000 bad_pred_1=400 good_pred_2=160000 bad_pred_3=0",
    "udf-torture-chain parallel_1 bad_pred_0=19 bad_pred_1=380 good_pred_2=19394 bad_pred_3=591",
    "udf-torture-chain traditional bad_pred_0=400 bad_pred_1=8000 good_pred_2=160000 bad_pred_3=0",
    "udf-torture-star skinner_c bad_pred_0=0 bad_pred_1=2 good_pred_2=851 bad_pred_3=23",
    "udf-torture-star fixed bad_pred_0=8000 bad_pred_1=400 good_pred_2=160000 bad_pred_3=0",
    "udf-torture-star parallel_1 bad_pred_0=0 bad_pred_1=0 good_pred_2=400 bad_pred_3=0",
    "udf-torture-star traditional bad_pred_0=400 bad_pred_1=8000 good_pred_2=160000 bad_pred_3=0",
];

#[test]
fn statements_call_each_udf_the_recorded_number_of_times() {
    let mut actual = Vec::new();
    for (case, w, script, names) in cases() {
        let calls = count_calls(&w.udfs, &names);
        let db = Database::from_parts(w.catalog.clone(), w.udfs);
        let query = db.bind(&script).unwrap();
        let ctx = db.exec_context();
        let mut seen = calls
            .iter()
            .map(|(_, c)| c.load(Ordering::Relaxed))
            .collect::<Vec<_>>();
        let mut record = |engine: &str, out: &ExecOutcome| {
            assert!(!out.timed_out, "{case} / {engine} timed out");
            let mut line = format!("{case} {engine}");
            for ((name, c), before) in calls.iter().zip(&mut seen) {
                let now = c.load(Ordering::Relaxed);
                line.push_str(&format!(" {name}={}", now - *before));
                *before = now;
            }
            actual.push(line);
        };
        let learned = run_skinner_c(&query, &ctx, &SkinnerCConfig::default());
        record("skinner_c", &learned);
        let fixed = run_skinner_c_fixed(
            &query,
            &ctx,
            &learned.metrics.order,
            &SkinnerCConfig::default(),
        );
        record("fixed", &fixed);
        let one = ctx.clone().with_threads(1);
        let parallel = ParallelSkinnerConfig::default();
        record("parallel_1", &run_parallel_skinner(&query, &one, &parallel));
        let traditional = db
            .run_script(&script, &TraditionalStrategy::default(), &db.exec_context())
            .unwrap();
        record("traditional", &traditional);
    }
    let expected: Vec<String> = GOLDEN.iter().map(|s| s.to_string()).collect();
    assert!(
        actual == expected,
        "UDF call totals moved; actual table:\n{}",
        actual
            .iter()
            .map(|l| format!("    \"{l}\",\n"))
            .collect::<String>()
    );
}
