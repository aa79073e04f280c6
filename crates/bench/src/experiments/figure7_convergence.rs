//! Figure 7: convergence of Skinner-C to optimal join orders.
//!
//! (a) UCT search-tree growth slows down over time; (b) most time slices go
//! to one or two join orders — with a larger slice budget `b = 500` fewer
//! slices are available, so concentration is slightly lower than `b = 10`.

use crate::harness::{markdown_table, Scale};
use skinnerdb::skinner_core::{run_skinner_c, SkinnerCConfig};

use super::{job_limit, job_workload};

pub fn run(scale: Scale) -> String {
    let (w, db) = job_workload(scale);
    let limit = job_limit(scale);
    // The largest query in the workload.
    let q = w
        .queries
        .iter()
        .max_by_key(|q| q.num_tables)
        .expect("non-empty workload");
    let query = db.bind(&q.script).unwrap();

    let mut out = format!(
        "## Figure 7 — convergence of Skinner-C (query {}, {} tables)\n\n",
        q.name, q.num_tables
    );

    for b in [10u64, 500] {
        let o = run_skinner_c(
            &query,
            &db.exec_context().with_work_limit(limit),
            &SkinnerCConfig {
                slice_steps: b,
                ..Default::default()
            },
        );
        // (a) tree growth, normalized.
        let growth_rows: Vec<Vec<String>> = o
            .metrics
            .tree_growth
            .iter()
            .step_by((o.metrics.tree_growth.len() / 10).max(1))
            .map(|(slice, nodes)| {
                vec![
                    format!("{:.2}", *slice as f64 / o.metrics.slices.max(1) as f64),
                    format!("{:.2}", *nodes as f64 / o.metrics.uct_nodes.max(1) as f64),
                ]
            })
            .collect();
        // (b) share of slices per top-k orders.
        let total: u64 = o.metrics.order_slice_counts.iter().map(|(_, c)| c).sum();
        let mut cum = 0u64;
        let topk_rows: Vec<Vec<String>> = o
            .metrics
            .order_slice_counts
            .iter()
            .take(5)
            .enumerate()
            .map(|(k, (_, c))| {
                cum += c;
                vec![
                    format!("{}", k + 1),
                    format!("{:.1}%", 100.0 * cum as f64 / total.max(1) as f64),
                ]
            })
            .collect();
        out += &format!(
            "### Slice budget b = {b}: {} slices, {} tree nodes\n\n\
             (a) tree growth (fractions)\n\n{}\n(b) cumulative slice share of top-k orders\n\n{}\n",
            o.metrics.slices,
            o.metrics.uct_nodes,
            markdown_table(&["time (scaled)", "#nodes (scaled)"], &growth_rows),
            markdown_table(&["top-k orders", "% of selections"], &topk_rows),
        );
    }
    out
}
