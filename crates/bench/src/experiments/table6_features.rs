//! Table 6: impact of SkinnerDB features.
//!
//! The paper peels features off Skinner-C: {indexes, parallelization,
//! learning} → {parallelization, learning} → {learning} → {none}; learning
//! dominates, indexes and parallel pre-processing are incremental.

use crate::harness::{bench_threads, human, markdown_table, Scale};
use skinnerdb::skinner_core::{run_skinner_c, SkinnerCConfig};

use super::{job_limit, job_workload};

pub fn run(scale: Scale) -> String {
    let (w, db) = job_workload(scale);
    let limit = job_limit(scale);
    let threads = bench_threads();

    let configs: [(&str, SkinnerCConfig); 4] = [
        (
            "indexes, parallelization, learning",
            SkinnerCConfig {
                use_jump_indexes: true,
                preprocess_threads: threads,
                learning: true,
                ..Default::default()
            },
        ),
        (
            "parallelization, learning",
            SkinnerCConfig {
                use_jump_indexes: false,
                preprocess_threads: threads,
                learning: true,
                ..Default::default()
            },
        ),
        (
            "learning",
            SkinnerCConfig {
                use_jump_indexes: false,
                preprocess_threads: 1,
                learning: true,
                ..Default::default()
            },
        ),
        (
            "none",
            SkinnerCConfig {
                use_jump_indexes: false,
                preprocess_threads: 1,
                learning: false,
                ..Default::default()
            },
        ),
    ];

    let mut rows = Vec::new();
    for (label, cfg) in &configs {
        let mut total = 0u64;
        let mut max = 0u64;
        let mut wall = 0.0f64;
        let mut timeouts = 0usize;
        for q in &w.queries {
            let query = db.bind(&q.script).unwrap();
            let o = run_skinner_c(&query, &db.exec_context().with_work_limit(limit), cfg);
            total += o.work_units;
            max = max.max(o.work_units);
            wall += o.wall.as_secs_f64();
            if o.timed_out {
                timeouts += 1;
            }
        }
        rows.push(vec![
            label.to_string(),
            format!("{wall:.2}s"),
            human(total),
            human(max),
            timeouts.to_string(),
        ]);
    }
    format!(
        "## Table 6 — impact of SkinnerDB features\n\n\
         {} JOB-like queries, work limit {}/query.\n\n{}",
        w.queries.len(),
        human(limit),
        markdown_table(
            &[
                "Enabled Features",
                "Total Time",
                "Total Work",
                "Max Work",
                "Timeouts"
            ],
            &rows
        )
    )
}
