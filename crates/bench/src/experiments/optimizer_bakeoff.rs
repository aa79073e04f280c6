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

use skinnerdb::skinner_workloads::torture::{correlation_torture, trivial, udf_torture, Shape};
use skinnerdb::skinner_workloads::Workload;
use skinnerdb::{Database, ExecOutcome, Strategy};

use crate::harness::{fmt_dur, human, markdown_table, Scale};

fn contenders() -> Vec<Strategy> {
    vec![
        Strategy::Traditional(Default::default()),
        Strategy::SkinnerG(Default::default()),
        Strategy::SkinnerH(Default::default()),
        Strategy::SkinnerC(Default::default()),
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

fn measure(db: &Database, script: &str, strategy: &Strategy) -> ExecOutcome {
    let out = db
        .run_script(script, strategy)
        .expect("bakeoff query must run");
    assert!(!out.timed_out, "{} timed out", strategy.name());
    out
}

fn write_json(
    dir: &std::path::Path,
    runs: &[Run],
    per_strategy: &[(String, u64, f64)],
    h_vs_best_ratio: f64,
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("BENCH_optimizer_bakeoff.json");
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"h_vs_best_ratio\": {h_vs_best_ratio:.3},\n"));
    out.push_str("  \"strategies\": [\n");
    for (i, (name, work, qps)) in per_strategy.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"strategy\": \"{name}\", \"total_work_units\": {work}, \"qps\": {qps:.1}}}{}\n",
            if i + 1 < per_strategy.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"query\": \"{}\", \"strategy\": \"{}\", \
             \"work_units\": {}, \"wall_us\": {}}}{}\n",
            r.workload,
            r.query,
            r.strategy,
            r.work,
            r.wall_us,
            if i + 1 < runs.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&path, out)?;
    Ok(path)
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
                let out = measure(&db, &q.script, s);
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
    let per_strategy: Vec<(String, u64, f64)> = strategies
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
        per_strategy
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
    match write_json(
        std::path::Path::new("bench_reports"),
        &runs,
        &per_strategy,
        h_vs_best_ratio,
    ) {
        Ok(path) => out.push_str(&format!("\nRaw numbers written to `{}`.\n", path.display())),
        Err(e) => out.push_str(&format!(
            "\n(could not write BENCH_optimizer_bakeoff.json: {e})\n"
        )),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_artifact_has_headline_fields() {
        let tmp = std::env::temp_dir().join(format!("skinner_bench_obk_{}", std::process::id()));
        let runs = vec![Run {
            workload: "w",
            query: "q".to_string(),
            strategy: "Skinner-H".to_string(),
            work: 10,
            wall_us: 5,
        }];
        let per = vec![("Skinner-H".to_string(), 10u64, 2.0f64)];
        let path = write_json(&tmp, &runs, &per, 1.25).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&tmp).ok();
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
            .map(|s| measure(&db, script, s))
            .collect();
        for o in &outs[1..] {
            assert_eq!(o.result.canonical_rows(), outs[0].result.canonical_rows());
        }
        let best = outs[0].work_units.min(outs[1].work_units).max(1);
        let ratio = outs[2].work_units as f64 / best as f64;
        assert!(ratio < 8.0 + 20_000.0 / best as f64, "ratio {ratio}");
    }
}
