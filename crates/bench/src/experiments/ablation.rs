//! Ablation of Skinner-C's design choices (beyond the paper's Table 6):
//! the reward function variants and cross-order progress sharing that
//! Section 4.5 calls out as the engine's key mechanisms.

use crate::harness::{human, markdown_table, Scale};
use skinnerdb::skinner_core::{run_skinner_c, RewardKind, SkinnerCConfig};

use super::{job_limit, job_workload};

pub fn run(scale: Scale) -> String {
    let (w, db) = job_workload(scale);
    let limit = job_limit(scale);
    // The larger queries are where the mechanisms matter.
    let queries: Vec<_> = w.queries.iter().filter(|q| q.num_tables >= 5).collect();

    let variants: [(&str, SkinnerCConfig); 4] = [
        (
            "refined reward + sharing (default)",
            SkinnerCConfig {
                reward: RewardKind::FractionalProgress,
                share_progress: true,
                ..Default::default()
            },
        ),
        (
            "left-most-only reward",
            SkinnerCConfig {
                reward: RewardKind::LeftmostDelta,
                share_progress: true,
                ..Default::default()
            },
        ),
        (
            "no progress sharing",
            SkinnerCConfig {
                reward: RewardKind::FractionalProgress,
                share_progress: false,
                ..Default::default()
            },
        ),
        (
            "no index jumps",
            SkinnerCConfig {
                reward: RewardKind::FractionalProgress,
                share_progress: true,
                use_jump_indexes: false,
                ..Default::default()
            },
        ),
    ];

    let mut rows = Vec::new();
    for (label, cfg) in &variants {
        let mut total = 0u64;
        let mut max = 0u64;
        let mut slices = 0u64;
        let mut timeouts = 0usize;
        for q in &queries {
            let query = db.bind(&q.script).unwrap();
            let o = run_skinner_c(&query, &db.exec_context().with_work_limit(limit), cfg);
            total += o.work_units;
            max = max.max(o.work_units);
            slices += o.metrics.slices;
            if o.timed_out {
                timeouts += 1;
            }
        }
        rows.push(vec![
            label.to_string(),
            human(total),
            human(max),
            slices.to_string(),
            timeouts.to_string(),
        ]);
    }
    format!(
        "## Ablation — Skinner-C design choices ({} queries with ≥5 tables)\n\n{}",
        queries.len(),
        markdown_table(
            &["Variant", "Total Work", "Max Work", "Slices", "Timeouts"],
            &rows
        )
    )
}
