//! Optimizer-vs-RL bakeoff on a misestimation-adversarial workload.
//!
//! Three contenders on the generic engine — the traditional optimizer path
//! (`Traditional`), pure learned execution (`Skinner-G`) and the hybrid
//! (`Skinner-H`) — plus Skinner-C as the customized-engine reference point,
//! all run over workloads chosen to punish cardinality estimation:
//!
//! * `udf_torture` — selective UDFs the estimator is blind to, so the DP
//!   plan is catastrophically wrong and the hybrid must beat it;
//! * `correlation_torture` — correlated predicates violating the
//!   independence assumption;
//! * `trivial` — a well-estimated control where the optimizer's plan is
//!   good and learning is pure overhead.
//!
//! The headline number is `h_vs_best_ratio`: the hybrid's total work
//! divided by the sum of per-query `min(Traditional, Skinner-G)` work —
//! the measured constant of the regret bound `tests/bakeoff.rs` asserts.
//! Raw numbers land in `bench_reports/BENCH_optimizer_bakeoff.json`.

use skinnerdb::skinner_core::{SkinnerCStrategy, SkinnerGStrategy, SkinnerHStrategy};
use skinnerdb::skinner_exec::TraditionalStrategy;
use skinnerdb::skinner_workloads::torture::{correlation_torture, trivial, udf_torture, Shape};
use skinnerdb::skinner_workloads::Workload;
use skinnerdb::{Database, ExecOutcome, ExecutionStrategy};

use crate::harness::{fmt_dur, human, markdown_table, write_report, Json, Scale};

fn contenders() -> Vec<Box<dyn ExecutionStrategy>> {
    vec![
        Box::new(TraditionalStrategy::default()),
        Box::new(SkinnerGStrategy::default()),
        Box::new(SkinnerHStrategy::default()),
        Box::new(SkinnerCStrategy::default()),
    ]
}

fn workloads(scale: Scale) -> Vec<(&'static str, Workload)> {
    let (udf_tables, udf_rows) = scale.pick((5, 40), (6, 60));
    let (corr_rows, triv_rows) = scale.pick((60, 40), (200, 120));
    vec![
        (
            "udf_torture",
            udf_torture(Shape::Chain, udf_tables, udf_rows, 2),
        ),
        ("correlation_torture", correlation_torture(4, corr_rows, 2)),
        ("trivial_control", trivial(4, triv_rows)),
    ]
}

struct Run {
    workload: &'static str,
    query: String,
    strategy: String,
    work: u64,
    wall_us: u128,
}

fn measure(db: &Database, script: &str, strategy: &dyn ExecutionStrategy) -> ExecOutcome {
    let out = db
        .run_script(script, strategy, &db.exec_context())
        .expect("bakeoff query must run");
    assert!(!out.timed_out, "{} timed out", strategy.name());
    out
}

fn report(runs: &[Run], totals: &[(String, u64, f64)], h_vs_best_ratio: f64) -> Json {
    Json::obj([
        ("h_vs_best_ratio", Json::Float(h_vs_best_ratio, 3)),
        (
            "strategies",
            Json::Arr(
                totals
                    .iter()
                    .map(|(name, work, qps)| {
                        Json::obj([
                            ("strategy", name.as_str().into()),
                            ("total_work_units", (*work).into()),
                            ("qps", Json::Float(*qps, 1)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "runs",
            Json::Arr(
                runs.iter()
                    .map(|r| {
                        Json::obj([
                            ("workload", r.workload.into()),
                            ("query", r.query.as_str().into()),
                            ("strategy", r.strategy.as_str().into()),
                            ("work_units", r.work.into()),
                            ("wall_us", r.wall_us.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub fn run(scale: Scale) -> String {
    let strategies = contenders();
    let mut runs: Vec<Run> = Vec::new();
    let mut rows = Vec::new();
    // Per-query minimum of the two pure contenders, and the hybrid's work.
    let mut best_total = 0u64;
    let mut hybrid_total = 0u64;

    for (wname, w) in workloads(scale) {
        let db = Database::from_parts(w.catalog.clone(), w.udfs);
        for q in &w.queries {
            let mut per_query = Vec::new();
            for s in &strategies {
                let out = measure(&db, &q.script, s.as_ref());
                rows.push(vec![
                    wname.to_string(),
                    q.name.clone(),
                    s.name().to_string(),
                    format!("{}u", human(out.work_units)),
                    fmt_dur(out.wall),
                ]);
                per_query.push((s.name().to_string(), out.work_units));
                runs.push(Run {
                    workload: wname,
                    query: q.name.clone(),
                    strategy: s.name().to_string(),
                    work: out.work_units,
                    wall_us: out.wall.as_micros(),
                });
                if s.name() == "Skinner-H" {
                    hybrid_total += out.work_units;
                }
            }
            let find = |n: &str| per_query.iter().find(|(s, _)| s == n).unwrap().1;
            best_total += find("Traditional").min(find("Skinner-G"));
        }
    }

    let h_vs_best_ratio = hybrid_total as f64 / best_total.max(1) as f64;
    let totals: Vec<(String, u64, f64)> = strategies
        .iter()
        .map(|s| {
            let mine: Vec<&Run> = runs.iter().filter(|r| r.strategy == s.name()).collect();
            let work: u64 = mine.iter().map(|r| r.work).sum();
            let wall_s: f64 = mine.iter().map(|r| r.wall_us as f64 / 1e6).sum();
            (
                s.name().to_string(),
                work,
                mine.len() as f64 / wall_s.max(1e-9),
            )
        })
        .collect();

    let mut out = String::from(
        "## Optimizer bakeoff — traditional plan vs learned vs hybrid\n\n\
         Workloads are misestimation-adversarial (optimizer-opaque UDFs,\n\
         correlated predicates) plus a well-estimated control. The hybrid's\n\
         claim: on every query it stays within a constant of the better\n\
         pure contender.\n\n",
    );
    out.push_str(&markdown_table(
        &["workload", "query", "strategy", "work", "wall"],
        &rows,
    ));
    out.push_str(&format!(
        "\nPer-strategy totals: {}.\n",
        totals
            .iter()
            .map(|(n, w, qps)| format!("{n} {}u ({qps:.1} q/s)", human(*w)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        "\n**Headline:** `h_vs_best_ratio` = {h_vs_best_ratio:.2} \
         (hybrid {}u vs per-query best {}u).\n",
        human(hybrid_total),
        human(best_total),
    ));
    out.push_str(&write_report(
        "optimizer_bakeoff",
        &report(&runs, &totals, h_vs_best_ratio),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_artifact_has_headline_fields() {
        let runs = vec![Run {
            workload: "w",
            query: "q".to_string(),
            strategy: "Skinner-H".to_string(),
            work: 10,
            wall_us: 5,
        }];
        let per = vec![("Skinner-H".to_string(), 10u64, 2.0f64)];
        let text = report(&runs, &per, 1.25).render();
        assert!(text.contains("\"h_vs_best_ratio\": 1.250"));
        assert!(text.contains("\"workload\": \"w\""));
        assert!(text.contains("\"work_units\": 10"));
    }

    #[test]
    fn contenders_agree_and_ratio_is_bounded() {
        let w = trivial(3, 25);
        let db = Database::from_parts(w.catalog.clone(), w.udfs);
        let script = &w.queries[0].script;
        let outs: Vec<ExecOutcome> = contenders()
            .iter()
            .map(|s| measure(&db, script, s.as_ref()))
            .collect();
        for o in &outs[1..] {
            assert_eq!(o.result.canonical_rows(), outs[0].result.canonical_rows());
        }
        let best = outs[0].work_units.min(outs[1].work_units).max(1);
        let ratio = outs[2].work_units as f64 / best as f64;
        assert!(ratio < 8.0 + 20_000.0 / best as f64, "ratio {ratio}");
    }
}
