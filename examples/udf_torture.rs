//! Robust evaluation under opaque predicates: the paper's UDF Torture
//! scenario (appendix, Figure 9), where every join predicate is a black-box
//! UDF and exactly one of them — unknown to everyone — empties the result.
//!
//! A traditional optimizer guesses (all UDFs look alike: default
//! selectivity) and can guess catastrophically wrong; Skinner-C discovers
//! the selective predicate *during* execution and converges to a join order
//! that applies it first.
//!
//! ```sh
//! cargo run --release --example udf_torture
//! ```

use skinnerdb::skinner_workloads::torture::{udf_torture, Shape};
use skinnerdb::Database;

fn main() {
    const WORK_LIMIT: u64 = 30_000_000;
    println!("UDF torture: chain queries, 100 tuples/table, good predicate in the middle\n");
    println!(
        "{:<8} {:>14} {:>14} {:>14}",
        "#tables", "Skinner-C", "Traditional", "Eddy"
    );
    for k in [4, 5, 6, 7, 8] {
        let w = udf_torture(Shape::Chain, k, 100, k / 2);
        let db = Database::from_parts(w.catalog.clone(), w.udfs);
        let script = &w.queries[0].script;

        let session = db.session();
        session.set_work_limit(WORK_LIMIT);
        let run = |strategy: &str| {
            session.use_strategy(strategy).unwrap();
            session.run_script(script).unwrap()
        };
        let (skinner, trad, eddy) = (run("Skinner-C"), run("Traditional"), run("Eddy"));

        let fmt = |out: &skinnerdb::ExecOutcome| {
            if out.timed_out {
                format!(">{WORK_LIMIT}")
            } else {
                format!("{}", out.work_units)
            }
        };
        println!(
            "{:<8} {:>14} {:>14} {:>14}",
            k,
            fmt(&skinner),
            fmt(&trad),
            fmt(&eddy)
        );
        // The result is empty by construction (the good predicate is false).
        assert_eq!(
            skinner.result.rows[0][0],
            skinnerdb::Value::Int(0),
            "count must be zero"
        );
    }
    println!("\n(work units; lower is better — '>' marks a budget timeout)");
    println!("Skinner-C's regret bound keeps it near the optimum regardless of");
    println!("where the selective predicate hides; guess-based baselines explode.");
}
