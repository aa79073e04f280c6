//! Table 5: replacing reinforcement learning by randomization.
//!
//! The paper swaps UCT for uniform-random join-order selection in Skinner-C
//! and the hybrid variants; learning turns out to be the crucial feature.

use crate::harness::{human, markdown_table, Scale};
use skinnerdb::skinner_core::{run_skinner_c, SkinnerCConfig, SkinnerG, SkinnerGConfig};

use super::{job_limit, job_workload};

pub fn run(scale: Scale) -> String {
    let (w, db) = job_workload(scale);
    let limit = job_limit(scale);

    let mut rows = Vec::new();
    for (engine, learning) in [
        ("Skinner-C", true),
        ("Skinner-C", false),
        ("Skinner-G(Row)", true),
        ("Skinner-G(Row)", false),
    ] {
        let mut total = 0u64;
        let mut max = 0u64;
        let mut timeouts = 0usize;
        for q in &w.queries {
            let query = db.bind(&q.script).unwrap();
            let (work, timed_out) = if engine == "Skinner-C" {
                let o = run_skinner_c(
                    &query,
                    &db.exec_context().with_work_limit(limit),
                    &SkinnerCConfig {
                        learning,
                        ..Default::default()
                    },
                );
                (o.work_units, o.timed_out)
            } else {
                let o = SkinnerG::new(
                    &query,
                    &db.exec_context().with_work_limit(limit),
                    SkinnerGConfig {
                        learning,
                        ..Default::default()
                    },
                )
                .run_to_completion();
                (o.work_units, o.timed_out)
            };
            total += work;
            max = max.max(work);
            if timed_out {
                timeouts += 1;
            }
        }
        rows.push(vec![
            engine.to_string(),
            if learning { "UCT (original)" } else { "Random" }.to_string(),
            human(total),
            human(max),
            timeouts.to_string(),
        ]);
    }
    format!(
        "## Table 5 — learning vs. randomized join order selection\n\n\
         {} JOB-like queries, work limit {}/query.\n\n{}",
        w.queries.len(),
        human(limit),
        markdown_table(
            &["Engine", "Optimizer", "Total Work", "Max Work", "Timeouts"],
            &rows
        )
    )
}
