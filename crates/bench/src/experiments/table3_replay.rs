//! Tables 3 & 4: replaying join orders across engines.
//!
//! The paper takes (a) Skinner-C's final join orders, (b) each engine's
//! original optimizer orders and (c) the C_out-optimal orders, then executes
//! all of them in every engine: Skinner's orders improve all engines and
//! sit close to the optimum, demonstrating the speedups come from join
//! ordering, not the engine.

use crate::harness::{bench_threads, human, markdown_table, Scale};
use skinnerdb::skinner_core::{run_skinner_c, run_skinner_c_fixed, SkinnerCConfig};
use skinnerdb::skinner_exec::oracle::optimal_order;
use skinnerdb::skinner_exec::{
    preprocess, run_traditional, ExecProfile, TraditionalConfig, WorkBudget,
};

use skinnerdb::skinner_optimizer::best_left_deep_estimated;

use super::{job_limit, job_workload};

pub fn run(scale: Scale, multi_threaded: bool) -> String {
    let (w, db) = job_workload(scale);
    let limit = job_limit(scale);
    let threads = if multi_threaded { bench_threads() } else { 1 };
    // Optimal-order search is exponential in practice; cap query size.
    let max_tables_for_optimal = scale.pick(8, 12);

    // Accumulators: (engine, order-source) → (total work, max work, count).
    let mut totals: std::collections::BTreeMap<(&str, &str), (u64, u64)> =
        std::collections::BTreeMap::new();
    let mut add = |engine: &'static str, order_src: &'static str, work: u64| {
        let e = totals.entry((engine, order_src)).or_insert((0, 0));
        e.0 += work;
        e.1 = e.1.max(work);
    };

    let mut covered = 0usize;
    for q in &w.queries {
        if q.num_tables > max_tables_for_optimal {
            continue;
        }
        covered += 1;
        let query = db.bind(&q.script).unwrap();

        // The three order sources.
        let skinner_order = run_skinner_c(&query, &db.exec_context(), &SkinnerCConfig::default())
            .metrics
            .order;
        let original_order = best_left_deep_estimated(&query, db.stats()).0;
        let budget = WorkBudget::unlimited();
        let pre = preprocess(&query, &budget, 1).unwrap();
        let (opt_order, _) = optimal_order(&query, pre.tables, limit);

        for (src, order) in [
            ("Skinner", &skinner_order),
            ("Original", &original_order),
            ("Optimal", &opt_order),
        ] {
            // Skinner engine (fixed order).
            let ctx = db.exec_context().with_work_limit(limit);
            let cfg = SkinnerCConfig {
                preprocess_threads: threads,
                ..Default::default()
            };
            let o = run_skinner_c_fixed(&query, &ctx, order, &cfg);
            add("Skinner", src, o.work_units);
            // Generic engines with forced orders (optimizer hints).
            for (engine, profile) in [
                ("RowDB(PG)", ExecProfile::row_store()),
                (
                    "ColDB(MDB)",
                    if multi_threaded {
                        ExecProfile::column_store_parallel(threads)
                    } else {
                        ExecProfile::column_store()
                    },
                ),
            ] {
                if multi_threaded && engine == "RowDB(PG)" {
                    continue; // the paper's Table 4 drops single-thread PG
                }
                let t = run_traditional(
                    &query,
                    &db.exec_context().with_work_limit(limit),
                    &TraditionalConfig {
                        profile,
                        forced_order: Some(order.to_vec()),
                        preprocess_threads: threads,
                    },
                );
                add(engine, src, t.work_units);
            }
        }
    }

    let mut rows = Vec::new();
    for ((engine, src), (total, max)) in &totals {
        rows.push(vec![
            engine.to_string(),
            src.to_string(),
            human(*total),
            human(*max),
        ]);
    }
    let title = if multi_threaded {
        "Table 4 — join order replay, multi-threaded"
    } else {
        "Table 3 — join order replay, single-threaded"
    };
    format!(
        "## {title}\n\n{covered} queries (≤{max_tables_for_optimal} tables; \
         optimal orders need exact cardinalities).\n\n{}",
        markdown_table(&["Engine", "Order", "Total Work", "Max Work"], &rows)
    )
}
