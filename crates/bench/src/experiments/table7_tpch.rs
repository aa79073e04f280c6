//! Figure 13 / Table 7: TPC-H and TPC-H with UDFs.
//!
//! Per-query work for each approach plus the paper's summary metrics: total
//! benchmark cost and the maximum per-query overhead relative to the best
//! approach for that query ("Max. Rel."). The expected shape: the column
//! engine wins standard TPC-H; Skinner-C wins the UDF variant; the hybrid
//! trades a bounded overhead on standard queries for order-of-magnitude
//! gains on UDF queries.

use skinnerdb::skinner_workloads::tpch::{generate, generate_udf, TpchConfig};
use skinnerdb::skinner_workloads::Workload;
use skinnerdb::Database;

use crate::harness::{human, markdown_table, system_strategy, Scale, System};

const SYSTEMS: [System; 5] = [
    System::SkinnerC,
    System::RowDB,
    System::SkinnerGRow,
    System::SkinnerHRow,
    System::ColDB,
];

pub fn run(scale: Scale) -> String {
    let cfg = TpchConfig {
        scale: scale.pick(0.005, 0.05),
        seed: 0x79C8,
    };
    let limit: u64 = scale.pick(100_000_000, 2_000_000_000);

    let mut out = format!(
        "## Table 7 / Figure 13 — TPC-H variants (scale factor {})\n",
        cfg.scale
    );
    for (label, workload) in [("TPC-H", generate(&cfg)), ("TPC-UDF", generate_udf(&cfg))] {
        out += &format!(
            "\n### {label} (work units; '>' = timeout at {})\n\n",
            human(limit)
        );
        out += &run_variant(workload, limit);
    }
    out
}

fn run_variant(w: Workload, limit: u64) -> String {
    // TPC-H scripts use temp tables, so everything runs through the facade.
    let db = Database::from_parts(w.catalog.clone(), w.udfs);

    let mut work = vec![vec![0u64; SYSTEMS.len()]; w.queries.len()];
    let mut timeout = vec![vec![false; SYSTEMS.len()]; w.queries.len()];
    for (qi, q) in w.queries.iter().enumerate() {
        for (si, sys) in SYSTEMS.iter().enumerate() {
            let strategy = system_strategy(*sys);
            let ctx = db.exec_context().with_work_limit(limit);
            let o = db
                .run_script(&q.script, strategy.as_ref(), &ctx)
                .unwrap_or_else(|e| panic!("{}: {e}", q.name));
            work[qi][si] = o.work_units;
            timeout[qi][si] = o.timed_out;
        }
    }

    // Per-query rows.
    let mut rows = Vec::new();
    for (qi, q) in w.queries.iter().enumerate() {
        let mut row = vec![q.name.clone()];
        for si in 0..SYSTEMS.len() {
            row.push(if timeout[qi][si] {
                format!(">{}", human(work[qi][si]))
            } else {
                human(work[qi][si])
            });
        }
        rows.push(row);
    }
    // Summary: totals and max relative overhead vs the per-query best.
    let mut summary = vec!["TOTAL".to_string()];
    let mut max_rel = vec!["Max.Rel.".to_string()];
    for si in 0..SYSTEMS.len() {
        let total: u64 = (0..w.queries.len()).map(|qi| work[qi][si]).sum();
        summary.push(human(total));
        let mut worst = 0.0f64;
        for per_system in work.iter().take(w.queries.len()) {
            let best = per_system.iter().copied().min().unwrap().max(1);
            worst = worst.max(per_system[si] as f64 / best as f64);
        }
        max_rel.push(format!("{worst:.1}"));
    }
    rows.push(summary);
    rows.push(max_rel);

    let mut headers = vec!["Query"];
    headers.extend(SYSTEMS.iter().map(|s| s.name()));
    markdown_table(&headers, &rows)
}
