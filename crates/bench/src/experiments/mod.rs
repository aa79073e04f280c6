//! One module per paper table/figure, plus the engineering experiments;
//! [`ALL`] names each report. ARCHITECTURE.md's "Paper section → module
//! map" says which section each one reproduces.

pub mod ablation;
pub mod disk_scan;
pub mod figure10_correlation;
pub mod figure11_failures;
pub mod figure12_trivial;
pub mod figure6_speedups;
pub mod figure7_convergence;
pub mod figure8_memory;
pub mod figure9_udf_torture;
pub mod optimizer_bakeoff;
pub mod repeat_workload;
pub mod server_throughput;
pub mod table1_job;
pub mod table3_replay;
pub mod table5_random;
pub mod table6_features;
pub mod table7_tpch;
pub mod telemetry_overhead;
pub mod thread_scaling;

use skinnerdb::skinner_workloads::job_like::{generate, JobConfig};
use skinnerdb::skinner_workloads::Workload;
use skinnerdb::Database;

use crate::harness::Scale;

/// An experiment's report name and its run, which returns the markdown
/// report.
pub type Experiment = (&'static str, fn(Scale) -> String);

/// Every experiment by report name, in the order `run_all` runs them.
pub const ALL: &[Experiment] = &[
    ("table1_job_single", |s| table1_job::run(s, false)),
    ("table2_job_multi", |s| table1_job::run(s, true)),
    ("table3_order_replay", |s| table3_replay::run(s, false)),
    ("table4_order_replay_multi", |s| table3_replay::run(s, true)),
    ("table5_learning_vs_random", table5_random::run),
    ("table6_features", table6_features::run),
    ("figure6_speedup_sources", figure6_speedups::run),
    ("figure7_convergence", figure7_convergence::run),
    ("figure8_memory", figure8_memory::run),
    ("figure9_udf_torture", figure9_udf_torture::run),
    ("figure10_correlation_torture", figure10_correlation::run),
    ("figure11_failures", figure11_failures::run),
    ("figure12_trivial", figure12_trivial::run),
    ("table7_tpch", table7_tpch::run),
    ("ablation_design_choices", ablation::run),
    ("optimizer_bakeoff", optimizer_bakeoff::run),
    ("thread_scaling", thread_scaling::run),
    ("disk_scan", disk_scan::run),
    ("repeat_workload", repeat_workload::run),
    ("server_throughput", server_throughput::run),
    ("telemetry_overhead", telemetry_overhead::run),
];

/// The JOB-like workload at benchmark scale, plus a database over it.
pub fn job_workload(scale: Scale) -> (Workload, Database) {
    let cfg = JobConfig {
        scale: scale.pick(0.12, 1.0),
        seed: 0x10B,
    };
    let w = generate(&cfg);
    let db = Database::from_parts(
        w.catalog.clone(),
        skinnerdb::skinner_query::UdfRegistry::new(),
    );
    (w, db)
}

/// Per-query work-unit limit for JOB experiments.
pub fn job_limit(scale: Scale) -> u64 {
    scale.pick(30_000_000, 2_000_000_000)
}

#[cfg(test)]
mod tests {
    use super::ALL;

    #[test]
    fn all_lists_every_experiment_once() {
        let names: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names,
            [
                "table1_job_single",
                "table2_job_multi",
                "table3_order_replay",
                "table4_order_replay_multi",
                "table5_learning_vs_random",
                "table6_features",
                "figure6_speedup_sources",
                "figure7_convergence",
                "figure8_memory",
                "figure9_udf_torture",
                "figure10_correlation_torture",
                "figure11_failures",
                "figure12_trivial",
                "table7_tpch",
                "ablation_design_choices",
                "optimizer_bakeoff",
                "thread_scaling",
                "disk_scan",
                "repeat_workload",
                "server_throughput",
                "telemetry_overhead",
            ]
        );
    }
}
