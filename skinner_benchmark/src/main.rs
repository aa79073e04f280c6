//! The repo benchmark. One command per workload:
//!
//! ```text
//! skinner_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints every metric by name with its unit and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! ones with `--trace 1`). `compare A B` sets two files of `--out` records
//! against each other; `manifest` prints `BENCHMARK.json`. See README.md
//! in this directory.

mod compare;
mod json;
mod layers;
mod metrics;
mod run;
mod spans;
mod workloads;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Kind;

/// `run_seconds` of BENCHMARK.json, and the default of `--seconds`.
const RUN_SECONDS: u32 = 15;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// `--quick`: all four workloads in about 25 seconds.
const QUICK_SECONDS: f64 = 2.0;

const USAGE: &str = "usage:
  skinner_benchmark [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1]
                    [--out FILE] [--spans FILE] [--quick]
  skinner_benchmark compare A.jsonl B.jsonl
  skinner_benchmark manifest";

struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Kind::ALL.to_vec(),
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        out: None,
        spans: None,
        quick: false,
    };
    let mut seconds_given = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Kind::ALL.to_vec(),
            "--workload" => {
                let kind = Kind::from_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?;
                args.workloads = vec![kind];
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad());
                }
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    if args.quick && !seconds_given {
        args.seconds = QUICK_SECONDS;
    }
    if args.spans.is_some() && args.workloads.len() > 1 {
        return Err(format!(
            "--spans names one file: give one --workload\n{USAGE}"
        ));
    }
    Ok(args)
}

/// The result object the contract asks for, on one line.
fn result_line(o: &run::Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json::escape(m.name),
                json::number(m.value),
                json::escape(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// One `--out` record: the result plus what it takes to compare it.
fn record_line(args: &Args, kind: Kind, o: &run::Outcome) -> String {
    let result = result_line(o);
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \"nproc\": {}, {}",
        kind.name(),
        args.seed,
        json::number(args.seconds),
        args.trace,
        args.quick,
        run::nproc(),
        &result[1..]
    )
}

/// Several workloads run as child processes of this program, one each:
/// peak memory and allocator state are per process, so a workload must
/// not inherit what the one before it left behind.
fn run_each_in_its_own_process(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for kind in &args.workloads {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(out) = &args.out {
            cmd.arg("--out").arg(out);
        }
        if args.quick {
            cmd.arg("--quick");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn run_workloads(args: &Args) -> Result<bool, String> {
    match args.workloads[..] {
        [kind] => run_one(args, kind),
        _ => run_each_in_its_own_process(args),
    }
}

fn run_one(args: &Args, kind: Kind) -> Result<bool, String> {
    let spans_path = args.trace.then(|| {
        args.spans
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!(".bench_run/spans-{}.jsonl", kind.name())))
    });
    if let Some(dir) = spans_path.as_ref().and_then(|p| p.parent()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let outcome = run::run(&run::Options {
        kind,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        setups: if args.quick { 1 } else { SETUPS },
        spans_path,
    })
    .map_err(|e| format!("{}: {e}", kind.name()))?;
    println!(
        "workload {} seed {} seconds {} trace {} callers {} nproc {}{}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        kind.callers(run::nproc()),
        run::nproc(),
        if args.quick {
            " QUICK (numbers are not comparable)"
        } else {
            ""
        }
    );
    for m in &outcome.metrics {
        // Per-layer metrics say which end-to-end metric they should move.
        let moves = metrics::PER_LAYER
            .iter()
            .find(|l| l.name == m.name)
            .map_or(String::new(), |l| format!("   -> {}", l.moves));
        println!("{:<36} {:>18.6} {:<7}{moves}", m.name, m.value, m.unit);
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    if let Some(path) = &args.out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(f, "{}", record_line(args, kind, &outcome))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result_line(&outcome));
    Ok(outcome.correct)
}

/// `BENCHMARK.json`, generated from the tables in `metrics.rs`.
fn manifest() -> String {
    let workloads: Vec<String> = metrics::WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name,
                json::escape(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = metrics::END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                json::number(m.bound)
            )
        })
        .collect();
    let per_layer: Vec<String> = metrics::PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"skinner_benchmark/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"skinner_benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => compare::compare_files(a.as_ref(), b.as_ref()).map(|report| {
                print!("{}", report.text);
                !report.regressed
            }),
            _ => Err(USAGE.to_string()),
        },
        Some("manifest") => {
            print!("{}", manifest());
            Ok(true)
        }
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => parse_args(&argv).and_then(|args| run_workloads(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(&argv(
            "--workload tpch_disk --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workloads, vec![Kind::TpchDisk]);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (7, 10.0, true, false)
        );
        let q = parse_args(&argv("--quick")).unwrap();
        assert_eq!(q.workloads.len(), 4);
        assert_eq!(q.seconds, QUICK_SECONDS);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--trace 1 --spans x.jsonl")).is_err());
        assert!(parse_args(&argv("--workload job_served --trace 1 --spans x.jsonl")).is_ok());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = run::Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![run::Metric {
                name: "setup_s",
                value: 0.8127,
                unit: "s",
            }],
            notes: Vec::new(),
        };
        let v = json::parse(&result_line(&o)).unwrap();
        let keys: Vec<&str> = v.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").and_then(json::Json::as_f64), Some(0.8127));
        assert_eq!(m.get("unit").and_then(json::Json::as_str), Some("s"));
    }

    /// `BENCHMARK.json` at the repo root is `manifest`'s output; the file
    /// is absent only when this directory is checked out on its own.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        assert_eq!(
            text,
            manifest(),
            "regenerate with `skinner_benchmark manifest`"
        );
        assert!(json::parse(&text).is_ok());
        assert!(text.len() <= 64 * 1024);
    }
}
