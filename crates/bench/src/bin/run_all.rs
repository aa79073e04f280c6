//! Regenerate every table and figure of the paper, writing one markdown
//! report per experiment into `bench_reports/`.
//!
//! ```sh
//! cargo run --release -p skinner_bench --bin run_all              # quick
//! BENCH_SCALE=paper cargo run --release -p skinner_bench --bin run_all
//! # Only a subset (the bench-smoke CI job does this):
//! BENCH_SCALE=smoke cargo run --release -p skinner_bench --bin run_all \
//!     -- thread_scaling repeat_workload disk_scan
//! ```

use std::fs;
use std::process::exit;
use std::time::Instant;

use skinner_bench::experiments::ALL;
use skinner_bench::harness::REPORT_DIR;
use skinner_bench::Scale;

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2);
    });
    let filter: Vec<String> = std::env::args().skip(1).collect();
    if let Some(want) = filter.iter().find(|w| ALL.iter().all(|(n, _)| n != w)) {
        let known: Vec<&str> = ALL.iter().map(|(n, _)| *n).collect();
        eprintln!("unknown experiment {want:?}; known: {known:?}");
        exit(2);
    }
    let dir = std::path::Path::new(REPORT_DIR);
    fs::create_dir_all(dir).expect("create the report directory");

    for &(name, run) in ALL {
        if !filter.is_empty() && !filter.iter().any(|w| w == name) {
            continue;
        }
        let started = Instant::now();
        eprint!("running {name} … ");
        let report = run(scale);
        let path = dir.join(format!("{name}.md"));
        fs::write(&path, &report).expect("write report");
        eprintln!(
            "done in {:.1}s → {}",
            started.elapsed().as_secs_f64(),
            path.display()
        );
        println!("{report}\n");
    }
}
