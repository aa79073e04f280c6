//! Shared infrastructure: the system roster, runners and report formatting.

use std::path::Path;
use std::time::Duration;

use skinnerdb::skinner_adaptive::{EddyConfig, ReoptimizerConfig};
use skinnerdb::skinner_core::{SkinnerCConfig, SkinnerGConfig, SkinnerHConfig};
use skinnerdb::skinner_exec::oracle::CardOracle;
use skinnerdb::skinner_exec::{preprocess, ExecProfile, TraditionalConfig, WorkBudget};
use skinnerdb::skinner_query::{JoinQuery, TableSet};
use skinnerdb::{Database, Strategy};

/// Benchmark scale, from the `BENCH_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-level CI guard runs: quick-scale data, minimum iterations
    /// (`BENCH_SCALE=smoke`; the `bench-smoke` CI job uses this).
    Smoke,
    /// Minutes-level runs on scaled-down data (default).
    Quick,
    /// Closer to the paper's data sizes and timeouts.
    Paper,
}

impl Scale {
    /// Parse a `BENCH_SCALE` value: unset or `quick`, `smoke`, `paper`.
    /// Anything else is an error, so a typo cannot silently run `Quick`.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("quick") => Ok(Scale::Quick),
            Some("smoke") => Ok(Scale::Smoke),
            Some("paper") => Ok(Scale::Paper),
            Some(other) => Err(format!(
                "unknown BENCH_SCALE {other:?}; expected quick, smoke or paper"
            )),
        }
    }

    /// [`Scale::parse`] of the `BENCH_SCALE` environment variable.
    pub fn from_env() -> Result<Self, String> {
        let value = std::env::var_os("BENCH_SCALE").map(|v| v.to_string_lossy().into_owned());
        Self::parse(value.as_deref())
    }

    pub fn pick<T>(&self, quick: T, paper: T) -> T {
        match self {
            Scale::Smoke | Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }

    /// True for the reduced-iteration CI guard scale: experiments shrink
    /// repetition counts and query subsets further than `Quick`.
    pub fn is_smoke(&self) -> bool {
        matches!(self, Scale::Smoke)
    }
}

/// The compared systems. The paper's engines map onto `ExecProfile`s:
/// `RowDB` plays Postgres (row-at-a-time profile), `ColDB` plays MonetDB
/// (vectorized column profile), `Optimizer`/`Reoptimizer`/`Eddy` are the
/// re-implemented research baselines sharing our engine substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    SkinnerC,
    /// Skinner-C with parallel pre-processing (the paper's multi-threaded
    /// configuration — join execution itself stays single-threaded).
    SkinnerCPar,
    RowDB,
    ColDB,
    /// MonetDB-profile engine with parallel probes.
    ColDBPar,
    SkinnerGRow,
    SkinnerHRow,
    SkinnerGCol,
    SkinnerHCol,
    Eddy,
    Reoptimizer,
}

impl System {
    pub fn name(&self) -> &'static str {
        match self {
            System::SkinnerC => "Skinner-C",
            System::SkinnerCPar => "Skinner-C(par)",
            System::RowDB => "RowDB(PG)",
            System::ColDB => "ColDB(MDB)",
            System::ColDBPar => "ColDB(MDB,par)",
            System::SkinnerGRow => "S-G(Row)",
            System::SkinnerHRow => "S-H(Row)",
            System::SkinnerGCol => "S-G(Col)",
            System::SkinnerHCol => "S-H(Col)",
            System::Eddy => "Eddy",
            System::Reoptimizer => "Re-optimizer",
        }
    }
}

/// Normalized per-query measurement.
#[derive(Debug, Clone)]
pub struct SysOutcome {
    pub wall: Duration,
    pub work: u64,
    /// Accumulated intermediate-result cardinality where measurable
    /// (traditional engines count produced tuples; Skinner-C reports the
    /// C_out of its final join order via the exact oracle).
    pub card: Option<u64>,
    pub rows: usize,
    pub timed_out: bool,
}

/// Threads used for "multi-threaded" configurations.
pub fn bench_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4)
}

/// Run one single-statement query under `system` with a work-unit limit.
pub fn run_single(db: &Database, sql: &str, system: System, limit: u64) -> SysOutcome {
    let query = db.bind(sql).expect("bench query must bind");
    run_bound(db, &query, system, limit)
}

/// The [`Strategy`] a `System` maps to at a given work limit.
pub fn system_strategy(system: System, limit: u64) -> Strategy {
    let threads = bench_threads();
    match system {
        System::SkinnerC | System::SkinnerCPar => Strategy::SkinnerC(SkinnerCConfig {
            work_limit: limit,
            preprocess_threads: if system == System::SkinnerCPar {
                threads
            } else {
                1
            },
            ..Default::default()
        }),
        System::RowDB | System::ColDB | System::ColDBPar => {
            Strategy::Traditional(TraditionalConfig {
                profile: match system {
                    System::RowDB => ExecProfile::row_store(),
                    System::ColDB => ExecProfile::column_store(),
                    _ => ExecProfile::column_store_parallel(threads),
                },
                forced_order: None,
                work_limit: limit,
                preprocess_threads: if system == System::ColDBPar {
                    threads
                } else {
                    1
                },
                ..Default::default()
            })
        }
        System::SkinnerGRow | System::SkinnerGCol => Strategy::SkinnerG(SkinnerGConfig {
            engine_profile: if system == System::SkinnerGRow {
                ExecProfile::row_store()
            } else {
                ExecProfile::column_store()
            },
            work_limit: limit,
            ..Default::default()
        }),
        System::SkinnerHRow | System::SkinnerHCol => Strategy::SkinnerH(SkinnerHConfig {
            learner: SkinnerGConfig {
                engine_profile: if system == System::SkinnerHRow {
                    ExecProfile::row_store()
                } else {
                    ExecProfile::column_store()
                },
                work_limit: limit,
                ..Default::default()
            },
            ..Default::default()
        }),
        System::Eddy => Strategy::Eddy(EddyConfig {
            work_limit: limit,
            ..Default::default()
        }),
        System::Reoptimizer => Strategy::Reoptimizer(ReoptimizerConfig {
            work_limit: limit,
            ..Default::default()
        }),
    }
}

/// Run an already bound query under `system`. Every system goes through the
/// same `ExecutionStrategy` door; only the harness-level interpretation of
/// the metrics (`card` is meaningful for traditional engines) differs.
pub fn run_bound(db: &Database, query: &JoinQuery, system: System, limit: u64) -> SysOutcome {
    let strategy = system_strategy(system, limit).build();
    let o = strategy.execute(query, &db.exec_context());
    let card = match system {
        System::RowDB | System::ColDB | System::ColDBPar => Some(o.metrics.intermediate_tuples),
        _ => None,
    };
    SysOutcome {
        wall: o.wall,
        work: o.work_units,
        card,
        rows: o.result.num_rows(),
        timed_out: o.timed_out,
    }
}

/// Exact `C_out` of one join order over the query's filtered tables (used
/// to report "cardinality of executed plans" for Skinner-C, Tables 1–4).
pub fn cout_of_order(query: &JoinQuery, order: &[usize], cap: u64) -> Option<u64> {
    let budget = WorkBudget::unlimited();
    let pre = preprocess(query, &budget, 1).ok()?;
    let mut oracle = CardOracle::new(query, pre.tables, cap);
    let mut set = TableSet::EMPTY;
    let mut total = 0f64;
    for (k, &t) in order.iter().enumerate() {
        set.insert(t);
        if k >= 1 {
            let c = oracle.card(set);
            if c >= skinnerdb::skinner_exec::oracle::SATURATED_CARD {
                return None; // counting exceeded the cap
            }
            total += c;
        }
    }
    Some(total as u64)
}

/// Render a markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push('|');
    for h in headers {
        out.push_str(&format!(" {h} |"));
    }
    out.push_str("\n|");
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push('|');
        for cell in row {
            out.push_str(&format!(" {cell} |"));
        }
        out.push('\n');
    }
    out
}

/// `123456` → `"123.5k"` etc. (keeps tables readable).
pub fn human(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.1}G", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

/// Format a duration compactly.
pub fn fmt_dur(d: Duration) -> String {
    if d.as_secs() >= 10 {
        format!("{:.1}s", d.as_secs_f64())
    } else if d.as_millis() >= 10 {
        format!("{}ms", d.as_millis())
    } else {
        format!("{}µs", d.as_micros())
    }
}

/// Directory every report lands in, relative to the working directory.
pub const REPORT_DIR: &str = "bench_reports";

/// A JSON value for an experiment's machine-readable report. Objects keep
/// their key order; a float carries its number of decimals, so each field
/// renders the same in every run.
#[derive(Debug)]
pub enum Json {
    Int(i128),
    /// Value and decimals.
    Float(f64, usize),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    pub fn obj<const N: usize>(fields: [(&'static str, Json); N]) -> Json {
        Json::Obj(fields.into())
    }

    /// Render with one member per line in the outer two levels; deeper
    /// values stay on one line, so an array of runs reads one run a line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (open, close, members): (_, _, Vec<(Option<&str>, &Json)>) = match self {
            Json::Int(n) => return out.push_str(&n.to_string()),
            Json::Float(x, d) => return out.push_str(&format!("{x:.d$}")),
            Json::Bool(b) => return out.push_str(&b.to_string()),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(*k), v)).collect(),
            ),
        };
        let multiline = depth < 2 && !members.is_empty();
        let newline = |out: &mut String, depth: usize| {
            if multiline {
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
        };
        out.push(open);
        for (i, (key, value)) in members.into_iter().enumerate() {
            if i > 0 {
                out.push_str(if multiline { "," } else { ", " });
            }
            newline(out, depth + 1);
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        newline(out, depth);
        out.push(close);
    }
}

/// Append `s` as a JSON string literal.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! int_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Int(n as i128)
            }
        }
    )*};
}

int_from!(u64, i64, usize, u128);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

/// Write `report` to `bench_reports/BENCH_<experiment>.json` and return
/// the sentence that ends the experiment's markdown report.
pub fn write_report(experiment: &str, report: &Json) -> String {
    let dir = Path::new(REPORT_DIR);
    let path = dir.join(format!("BENCH_{experiment}.json"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, report.render())) {
        Ok(()) => format!("\nRaw numbers written to `{}`.\n", path.display()),
        Err(e) => format!("\n(could not write {}: {e})\n", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinnerdb::{DataType, Value};

    fn db() -> Database {
        let db = Database::new();
        db.create_table(
            "x",
            &[("a", DataType::Int)],
            (0..20).map(|i| vec![Value::Int(i)]).collect(),
        )
        .unwrap();
        db.create_table(
            "y",
            &[("a", DataType::Int)],
            (0..20).map(|i| vec![Value::Int(i % 10)]).collect(),
        )
        .unwrap();
        db
    }

    #[test]
    fn every_system_runs_and_agrees() {
        let db = db();
        let sql = "SELECT x.a FROM x, y WHERE x.a = y.a";
        let mut row_counts = std::collections::HashSet::new();
        for sys in [
            System::SkinnerC,
            System::SkinnerCPar,
            System::RowDB,
            System::ColDB,
            System::ColDBPar,
            System::SkinnerGRow,
            System::SkinnerHRow,
            System::SkinnerGCol,
            System::SkinnerHCol,
            System::Eddy,
            System::Reoptimizer,
        ] {
            let o = run_single(&db, sql, sys, u64::MAX);
            assert!(!o.timed_out, "{}", sys.name());
            row_counts.insert(o.rows);
        }
        assert_eq!(row_counts.len(), 1, "row counts diverge: {row_counts:?}");
    }

    #[test]
    fn cout_of_order_counts_prefixes() {
        let db = db();
        let q = db.bind("SELECT x.a FROM x, y WHERE x.a = y.a").unwrap();
        // Join result has 20 tuples (each y row matches one x row).
        assert_eq!(cout_of_order(&q, &[0, 1], u64::MAX), Some(20));
    }

    #[test]
    fn scale_parses_the_three_names_and_rejects_the_rest() {
        assert_eq!(Scale::parse(None), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("quick")), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("smoke")), Ok(Scale::Smoke));
        assert_eq!(Scale::parse(Some("paper")), Ok(Scale::Paper));
        let err = Scale::parse(Some("smok")).unwrap_err();
        assert!(err.contains("\"smok\""), "{err}");
        for name in ["quick", "smoke", "paper"] {
            assert!(err.contains(name), "{err}");
        }
    }

    #[test]
    fn json_value_escapes_nests_and_keeps_decimals() {
        let v = Json::obj([
            ("s", "a\"b\\c\nd\u{1}e".into()),
            ("ratio", Json::Float(0.8, 3)),
            ("flags", Json::Arr(vec![true.into(), false.into()])),
            (
                "runs",
                Json::Arr(vec![Json::obj([
                    ("n", 7u64.into()),
                    ("inner", Json::Arr(vec![Json::obj([("x", (-2i64).into())])])),
                ])]),
            ),
            ("empty", Json::Arr(vec![])),
        ]);
        // Two outer levels one member a line, deeper ones inline; keys in
        // insertion order.
        let want = r#"{
  "s": "a\"b\\c\nd\u0001e",
  "ratio": 0.800,
  "flags": [
    true,
    false
  ],
  "runs": [
    {"n": 7, "inner": [{"x": -2}]}
  ],
  "empty": []
}
"#;
        assert_eq!(v.render(), want);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(human(999), "999");
        assert_eq!(human(1_500), "1.5k");
        assert_eq!(human(2_500_000), "2.5M");
        assert!(markdown_table(&["a"], &[vec!["1".into()]]).contains("| 1 |"));
    }
}
