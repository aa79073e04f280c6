//! End-to-end runs of the torture benchmarks and the JOB-like workload.

use skinnerdb::skinner_adaptive::EddyStrategy;
use skinnerdb::skinner_core::SkinnerCStrategy;
use skinnerdb::skinner_exec::{ReferenceStrategy, TraditionalStrategy};
use skinnerdb::skinner_workloads::job_like::{generate as job, JobConfig};
use skinnerdb::skinner_workloads::torture::{correlation_torture, trivial, udf_torture, Shape};
use skinnerdb::{Database, ExecutionStrategy, Value};

#[test]
fn udf_torture_result_is_empty_and_skinner_stays_cheap() {
    for shape in [Shape::Chain, Shape::Star] {
        let w = udf_torture(shape, 5, 50, 2);
        let db = Database::from_parts(w.catalog.clone(), w.udfs);
        let ctx = db.exec_context().with_work_limit(5_000_000);
        let out = db
            .run_script(&w.queries[0].script, &SkinnerCStrategy::default(), &ctx)
            .unwrap();
        assert!(!out.timed_out, "{shape:?} timed out");
        assert_eq!(out.result.rows[0][0], Value::Int(0), "{shape:?}");
        // The good predicate sits two joins in; Skinner-C should never come
        // close to enumerating the full 50^5 space.
        assert!(
            out.work_units < 2_000_000,
            "{shape:?}: {} work units",
            out.work_units
        );
    }
}

#[test]
fn correlation_torture_result_is_empty_for_all_m() {
    for m in [0, 1, 2] {
        let w = correlation_torture(4, 60, m);
        let db = Database::from_parts(w.catalog.clone(), w.udfs);
        let out = db.session().run_script(&w.queries[0].script).unwrap();
        assert_eq!(out.result.rows[0][0], Value::Int(0), "m={m}");
        // Cross-check with the reference executor at this small scale.
        let reference = db
            .run_script(&w.queries[0].script, &ReferenceStrategy, &db.exec_context())
            .unwrap();
        assert_eq!(
            out.result.canonical_rows(),
            reference.result.canonical_rows()
        );
    }
}

#[test]
fn trivial_benchmark_counts_the_chain() {
    let w = trivial(4, 30);
    let db = Database::from_parts(w.catalog.clone(), w.udfs);
    let strategies: [&dyn ExecutionStrategy; 3] = [
        &SkinnerCStrategy::default(),
        &TraditionalStrategy::default(),
        &EddyStrategy::default(),
    ];
    for strategy in strategies {
        let out = db
            .run_script(&w.queries[0].script, strategy, &db.exec_context())
            .unwrap();
        // Fanout-1 chain over 30 rows → exactly 30 results.
        assert_eq!(out.result.rows[0][0], Value::Int(30), "{}", strategy.name());
    }
}

#[test]
fn job_like_queries_agree_between_skinner_and_traditional() {
    let w = job(&JobConfig {
        scale: 0.04,
        seed: 11,
    });
    let db = Database::from_parts(w.catalog.clone(), w.udfs);
    for q in &w.queries {
        let skinner = db
            .session()
            .run_script(&q.script)
            .unwrap_or_else(|e| panic!("{}: {e}", q.name));
        let trad = db
            .run_script(
                &q.script,
                &TraditionalStrategy::default(),
                &db.exec_context(),
            )
            .unwrap();
        assert!(!skinner.timed_out, "{}", q.name);
        assert_eq!(
            skinner.result.canonical_rows(),
            trad.result.canonical_rows(),
            "{} differs",
            q.name
        );
    }
}

#[test]
fn job_like_small_queries_agree_with_reference() {
    // Reference executor is exponential; restrict to the 3-join templates on
    // tiny data.
    let w = job(&JobConfig {
        scale: 0.02,
        seed: 13,
    });
    let db = Database::from_parts(w.catalog.clone(), w.udfs);
    for q in w.queries.iter().filter(|q| q.num_tables <= 3) {
        let reference = db
            .run_script(&q.script, &ReferenceStrategy, &db.exec_context())
            .unwrap();
        let skinner = db.session().run_script(&q.script).unwrap();
        assert_eq!(
            skinner.result.canonical_rows(),
            reference.result.canonical_rows(),
            "{}",
            q.name
        );
    }
}
