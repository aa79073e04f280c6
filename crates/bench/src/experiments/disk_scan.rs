//! Zone-map scan pruning on disk-backed tables.
//!
//! Builds one wide fact table, persists it as a paged columnar segment
//! (per-page min/max zone maps) and runs a ladder of unary predicates of
//! decreasing selectivity against both the disk-backed table and a plain
//! in-memory copy. For each query the report shows:
//!
//! * `pages_read` / `pages_skipped` — how many zone-mapped pages had their
//!   rows evaluated versus how many the scan planner refuted outright from
//!   the page bounds;
//! * total work units on the zone-mapped table versus the flat in-memory
//!   scan — the deterministic cost currency the whole repository
//!   benchmarks in, so the saving is hardware-independent.
//!
//! The fact table is sorted by `id`, so range predicates on `id` (and on
//! the correlated `v` column) are the favourable clustered case; the
//! unclustered `tag` equality shows zone maps degrading gracefully to a
//! full read rather than helping. The raw numbers land in
//! `bench_reports/BENCH_disk_scan.json` with `pages_read` /
//! `pages_skipped` headline fields.

use skinnerdb::{DataType, Database, Value};

use crate::harness::{fmt_dur, human, markdown_table, write_report, Json, Scale};

struct Case {
    name: &'static str,
    sql: String,
}

fn cases(rows: i64) -> Vec<Case> {
    vec![
        Case {
            name: "narrow range (~1%)",
            sql: format!("SELECT f.id FROM fact f WHERE f.id < {}", rows / 100),
        },
        Case {
            name: "band (~10%)",
            sql: format!(
                "SELECT f.id FROM fact f WHERE f.id BETWEEN {} AND {}",
                rows / 2,
                rows / 2 + rows / 10
            ),
        },
        Case {
            name: "correlated float (~25%)",
            sql: format!("SELECT f.id FROM fact f WHERE f.v < {}", rows / 4),
        },
        Case {
            name: "unclustered tag (no skip)",
            sql: "SELECT f.id FROM fact f WHERE f.tag = 'hot'".to_string(),
        },
    ]
}

fn fill(db: &Database, rows: i64) {
    db.create_table(
        "fact",
        &[
            ("id", DataType::Int),
            ("v", DataType::Float),
            ("tag", DataType::Str),
        ],
        (0..rows)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Float(i as f64),
                    // `hot` rows are scattered through every page, so tag
                    // zones cannot prune anything.
                    Value::from(if i % 97 == 0 { "hot" } else { "cold" }),
                ]
            })
            .collect(),
    )
    .unwrap();
}

struct Sample {
    wall: std::time::Duration,
    work: u64,
    rows: usize,
    pages_read: u64,
    pages_skipped: u64,
}

fn measure(db: &Database, sql: &str) -> Sample {
    let out = db.session().run_script(sql).expect("bench query must run");
    assert!(!out.timed_out, "disk_scan queries must not time out");
    Sample {
        wall: out.wall,
        work: out.work_units,
        rows: out.result.num_rows(),
        pages_read: out.metrics.pages_read,
        pages_skipped: out.metrics.pages_skipped,
    }
}

fn report(rows: i64, runs: &[(String, Sample, Sample)]) -> Json {
    let pages_read: u64 = runs.iter().map(|(_, d, _)| d.pages_read).sum();
    let pages_skipped: u64 = runs.iter().map(|(_, d, _)| d.pages_skipped).sum();
    let total = (pages_read + pages_skipped).max(1);
    Json::obj([
        ("rows", rows.into()),
        ("pages_read", pages_read.into()),
        ("pages_skipped", pages_skipped.into()),
        (
            "skip_ratio",
            Json::Float(pages_skipped as f64 / total as f64, 3),
        ),
        (
            "runs",
            Json::Arr(
                runs.iter()
                    .map(|(name, disk, mem)| {
                        Json::obj([
                            ("query", name.as_str().into()),
                            ("pages_read", disk.pages_read.into()),
                            ("pages_skipped", disk.pages_skipped.into()),
                            ("rows", disk.rows.into()),
                            ("disk_work_units", disk.work.into()),
                            ("mem_work_units", mem.work.into()),
                            ("disk_wall_us", disk.wall.as_micros().into()),
                            ("mem_wall_us", mem.wall.as_micros().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub fn run(scale: Scale) -> String {
    let rows: i64 = if scale.is_smoke() {
        40_000
    } else {
        scale.pick(100_000, 1_000_000)
    };

    let dir = std::env::temp_dir().join(format!("skinner_bench_disk_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk_db = Database::open(&dir).expect("open bench data dir");
    fill(&disk_db, rows);
    disk_db.persist_table("fact").expect("persist fact");
    let mem_db = Database::new();
    fill(&mem_db, rows);

    let mut out = format!(
        "## Disk scan — zone-map pruning on a {}−row persistent segment\n\n\
         Each query runs once on the disk-backed (zone-mapped) table and\n\
         once on a plain in-memory copy; rows are sorted by `id`, pages\n\
         hold 1024 rows. Work units are the repository's deterministic\n\
         cost currency, so `saving` is hardware-independent.\n\n",
        human(rows as u64)
    );

    let mut table = Vec::new();
    let mut runs = Vec::new();
    for case in cases(rows) {
        let disk = measure(&disk_db, &case.sql);
        let mem = measure(&mem_db, &case.sql);
        assert_eq!(disk.rows, mem.rows, "disk and memory must agree");
        let saving = 100.0 * (1.0 - disk.work as f64 / mem.work.max(1) as f64);
        table.push(vec![
            case.name.to_string(),
            format!("{}", disk.rows),
            format!("{}", disk.pages_read),
            format!("{}", disk.pages_skipped),
            format!("{}u", human(disk.work)),
            format!("{}u", human(mem.work)),
            format!("{saving:.1}%"),
            fmt_dur(disk.wall),
        ]);
        runs.push((case.name.to_string(), disk, mem));
    }
    out.push_str(&markdown_table(
        &[
            "query",
            "rows out",
            "pages read",
            "pages skipped",
            "disk work",
            "mem work",
            "saving",
            "disk wall",
        ],
        &table,
    ));
    out.push_str(
        "\nClustered predicates skip most pages (the saving column); the\n\
         unclustered tag equality reads every page and pays only the\n\
         per-page bound consults — zone maps degrade to a full scan, they\n\
         never lose rows.\n",
    );
    out.push_str(&write_report("disk_scan", &report(rows, &runs)));
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selective_scan_skips_pages_and_saves_work() {
        let dir = std::env::temp_dir().join(format!("skinner_bench_dtest_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk_db = Database::open(&dir).unwrap();
        fill(&disk_db, 10_000);
        disk_db.persist_table("fact").unwrap();
        let mem_db = Database::new();
        fill(&mem_db, 10_000);

        let sql = &cases(10_000)[0].sql;
        let disk = measure(&disk_db, sql);
        let mem = measure(&mem_db, sql);
        assert_eq!(disk.rows, mem.rows);
        assert!(disk.pages_skipped > 0, "selective scan must skip pages");
        assert!(disk.work < mem.work, "zone maps must be a net work saving");
        assert_eq!((mem.pages_read, mem.pages_skipped), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_artifact_has_headline_fields() {
        let s = |pr, ps| Sample {
            wall: std::time::Duration::from_micros(10),
            work: 100,
            rows: 5,
            pages_read: pr,
            pages_skipped: ps,
        };
        let runs = vec![("q".to_string(), s(2, 8), s(0, 0))];
        let text = report(1000, &runs).render();
        assert!(text.contains("\"pages_read\": 2"));
        assert!(text.contains("\"pages_skipped\": 8"));
        assert!(text.contains("\"skip_ratio\": 0.800"));
    }
}
