//! Analytical workload: the ten TPC-H queries the paper evaluates, run on
//! generated data with Skinner-C and the traditional baseline side by side.
//!
//! ```sh
//! cargo run --release --example tpch_analytics
//! ```

use skinnerdb::skinner_workloads::tpch::{generate, TpchConfig};
use skinnerdb::Database;

fn main() {
    let cfg = TpchConfig {
        scale: 0.005,
        seed: 42,
    };
    println!("Generating TPC-H data at scale factor {} …", cfg.scale);
    let workload = generate(&cfg);
    for name in workload.catalog.table_names() {
        let t = workload.catalog.get(&name).unwrap();
        println!("  {name:<10} {:>8} rows", t.num_rows());
    }
    let db = Database::from_parts(workload.catalog.clone(), workload.udfs);

    println!(
        "\n{:<5} {:>8} | {:>12} {:>9} | {:>12} {:>9}",
        "query", "rows", "skinner(wu)", "time", "trad(wu)", "time"
    );
    let (skinner_c, traditional) = (db.session(), db.session());
    traditional.use_strategy("traditional").unwrap();
    for q in &workload.queries {
        let skinner = skinner_c
            .run_script(&q.script)
            .unwrap_or_else(|e| panic!("{}: {e}", q.name));
        let trad = traditional.run_script(&q.script).unwrap();
        assert_eq!(
            skinner.result.canonical_rows(),
            trad.result.canonical_rows(),
            "strategies disagree on {}",
            q.name
        );
        println!(
            "{:<5} {:>8} | {:>12} {:>8.1?} | {:>12} {:>8.1?}",
            q.name,
            skinner.result.num_rows(),
            skinner.work_units,
            skinner.wall,
            trad.work_units,
            trad.wall
        );
    }
    println!("\nBoth strategies returned identical results for all queries.");
    println!("Sample output of Q5:");
    let q5 = &workload.queries.iter().find(|q| q.name == "Q5").unwrap();
    let r = db.query(&q5.script).unwrap();
    println!("{}", skinnerdb::render_table(&r, 10));
}
