//! Tables 1 & 2: performance on the join order benchmark.
//!
//! Paper's Table 1 (single-threaded) compares Skinner-C, Postgres,
//! S-G(PG), S-H(PG), MonetDB, S-G(MDB), S-H(MDB) on total/max time and
//! accumulated intermediate cardinality; Table 2 repeats the subset that
//! supports multi-threading. Our engine mapping: RowDB ↔ Postgres,
//! ColDB ↔ MonetDB.

use crate::harness::{cout_of_order, human, markdown_table, run_bound, Scale, System};
use skinnerdb::skinner_core::{run_skinner_c, SkinnerCConfig};

use super::{job_limit, job_workload};

pub fn run(scale: Scale, multi_threaded: bool) -> String {
    let (w, db) = job_workload(scale);
    let limit = job_limit(scale);
    let systems: Vec<System> = if multi_threaded {
        vec![
            System::SkinnerCPar,
            System::ColDBPar,
            System::SkinnerGCol,
            System::SkinnerHCol,
        ]
    } else {
        vec![
            System::SkinnerC,
            System::RowDB,
            System::SkinnerGRow,
            System::SkinnerHRow,
            System::ColDB,
            System::SkinnerGCol,
            System::SkinnerHCol,
        ]
    };

    let mut rows = Vec::new();
    for sys in &systems {
        let mut total_wall = 0.0f64;
        let mut total_work = 0u64;
        let mut max_wall = 0.0f64;
        let mut max_work = 0u64;
        let mut total_card = 0u64;
        let mut max_card = 0u64;
        let mut card_unknown = 0usize;
        let mut card_any = false;
        let mut timeouts = 0usize;
        for q in &w.queries {
            let query = db.bind(&q.script).unwrap();
            let o = run_bound(&db, &query, *sys, limit);
            total_wall += o.wall.as_secs_f64();
            max_wall = max_wall.max(o.wall.as_secs_f64());
            total_work += o.work;
            max_work = max_work.max(o.work);
            if o.timed_out {
                timeouts += 1;
            }
            // Cardinality of the executed plan: measured for traditional
            // engines; C_out of the final learned order for Skinner-C
            // (the paper's optimizer-quality metric).
            let card = match sys {
                System::SkinnerC | System::SkinnerCPar => {
                    let out = run_skinner_c(
                        &query,
                        &db.exec_context().with_work_limit(limit),
                        &SkinnerCConfig::default(),
                    );
                    cout_of_order(&query, &out.metrics.order, limit)
                }
                _ => o.card,
            };
            match card {
                Some(c) => {
                    total_card += c;
                    max_card = max_card.max(c);
                    card_any = true;
                }
                None => card_unknown += 1,
            }
        }
        let fmt_card = |v: u64| -> String {
            if !card_any {
                "n/a".into()
            } else if card_unknown > 0 {
                format!("{} (+{card_unknown} sat.)", human(v))
            } else {
                human(v)
            }
        };
        rows.push(vec![
            sys.name().to_string(),
            format!("{total_wall:.2}s"),
            human(total_work),
            fmt_card(total_card),
            format!("{max_wall:.3}s"),
            human(max_work),
            fmt_card(max_card),
            if timeouts > 0 {
                format!("{timeouts}")
            } else {
                "0".into()
            },
        ]);
    }

    let title = if multi_threaded {
        "Table 2 — join order benchmark, multi-threaded"
    } else {
        "Table 1 — join order benchmark, single-threaded"
    };
    format!(
        "## {title}\n\n{} queries, work limit {}/query.\n\n{}",
        w.queries.len(),
        human(limit),
        markdown_table(
            &[
                "Approach",
                "Total Time",
                "Total Work",
                "Total Card.",
                "Max Time",
                "Max Work",
                "Max Card.",
                "Timeouts",
            ],
            &rows,
        )
    ) + &format!(
        "\n(threads for parallel rows: {})\n",
        crate::harness::bench_threads()
    )
}
