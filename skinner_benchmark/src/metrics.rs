//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics with the end-to-end metric and
//! workload each should move. `BENCHMARK.json` at the repo root carries
//! the same names (a unit test keeps the two in step); the statistics
//! every report uses live here too.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this layer metric should move;
    /// "no change" elsewhere is the prediction.
    pub moves: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "job_served",
        why: "JOB-like 30 queries (3-12 joins) over 2 wire connections, cache off: the engine is nearly all of the time (join loop and UCT 60-80 %, index build 10-20 %); server and wire stay under 1 %",
    },
    Workload {
        name: "repeat_served",
        why: "2 ms star-join template, rotating literal, plus a 2000-row projection, a third prepared, cache on: wire, admission, parse/bind, pre/postprocess, encode and learning cache are over half of a statement",
    },
    Workload {
        name: "torture_embedded",
        why: "Optimizer-torture statements via embedded Prepared: opaque-UDF predicates, thousands of slices and an index build per statement, so UCT select/backup, state restore and prepare cost; no server or disk",
    },
    Workload {
        name: "tpch_disk",
        why: "Per pass a CSV bulk ingest, a cold open of 8 persisted tables, then TPC-H and key-range queries under parallel_skinner at 2 threads: disk pages, zone scans, parallel pre/postprocess, sharded UCT",
    },
];

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "pass_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "pass_max_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_units_per_pass",
        unit: "count",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    layer(
        "query.parse_bind_us",
        "us",
        Lower,
        "query_p50_ms on repeat_served",
    ),
    layer(
        "query.statements",
        "count",
        Lower,
        "query_p50_ms on repeat_served",
    ),
    layer(
        "exec.preprocess_us",
        "us",
        Lower,
        "query_p50_ms on repeat_served, pass_s on tpch_disk",
    ),
    layer(
        "exec.preprocess_rows_in",
        "count",
        Lower,
        "query_p50_ms on repeat_served, pass_s on tpch_disk",
    ),
    layer(
        "exec.preprocess_rows_out",
        "count",
        Lower,
        "query_p50_ms on repeat_served, pass_s on tpch_disk",
    ),
    layer(
        "exec.zonescan_pages_read",
        "count",
        Lower,
        "pass_s on tpch_disk",
    ),
    layer(
        "exec.zonescan_pages_skipped",
        "count",
        Higher,
        "pass_s on tpch_disk",
    ),
    layer(
        "exec.zonescan_skip_ratio",
        "ratio",
        Higher,
        "pass_s on tpch_disk",
    ),
    layer(
        "exec.postprocess_us",
        "us",
        Lower,
        "query_p50_ms on repeat_served, pass_s on tpch_disk",
    ),
    layer(
        "exec.postprocess_tuples_in",
        "count",
        Lower,
        "query_p50_ms on repeat_served, pass_s on tpch_disk",
    ),
    layer(
        "exec.result_rows",
        "count",
        Lower,
        "query_p50_ms on repeat_served, pass_s on tpch_disk",
    ),
    layer("exec.execute_us", "us", Lower, "pass_s on every workload"),
    layer(
        "core.episodes_us",
        "us",
        Lower,
        "pass_s on job_served and torture_embedded",
    ),
    layer(
        "core.slices",
        "count",
        Lower,
        "pass_s on job_served and torture_embedded",
    ),
    layer(
        "core.ns_per_slice",
        "ns",
        Lower,
        "pass_s on torture_embedded",
    ),
    layer(
        "core.work_units",
        "count",
        Lower,
        "work_units_per_pass on every workload",
    ),
    layer(
        "core.work_units_per_s",
        "1/s",
        Higher,
        "pass_s on job_served",
    ),
    layer(
        "core.order_switches",
        "count",
        Lower,
        "pass_s on torture_embedded",
    ),
    layer(
        "core.last_order_switch",
        "count",
        Lower,
        "pass_s on job_served",
    ),
    layer(
        "core.off_best_slice_share",
        "ratio",
        Lower,
        "pass_s on job_served",
    ),
    layer(
        "core.abandoned_episodes",
        "count",
        Lower,
        "pass_s on tpch_disk",
    ),
    layer(
        "core.result_tuples",
        "count",
        Lower,
        "peak_rss_mb on job_served",
    ),
    layer(
        "core.result_set_bytes",
        "bytes",
        Lower,
        "peak_rss_mb on job_served",
    ),
    layer(
        "core.aux_bytes",
        "bytes",
        Lower,
        "peak_rss_mb on job_served",
    ),
    layer(
        "core.parallel_speedup",
        "ratio",
        Higher,
        "pass_s on tpch_disk",
    ),
    layer("uct.shards", "count", Higher, "pass_s on tpch_disk"),
    layer(
        "uct.root_cas_contention",
        "count",
        Lower,
        "pass_s on tpch_disk",
    ),
    layer(
        "core.cache_hits",
        "count",
        Higher,
        "work_units_per_pass, query_p50_ms on repeat_served",
    ),
    layer(
        "core.cache_misses",
        "count",
        Lower,
        "work_units_per_pass, query_p50_ms on repeat_served",
    ),
    layer(
        "core.cache_hit_ratio",
        "ratio",
        Higher,
        "work_units_per_pass, query_p50_ms on repeat_served",
    ),
    layer(
        "core.warm_start_visits",
        "count",
        Higher,
        "work_units_per_pass on repeat_served",
    ),
    layer(
        "core.cache_quarantines",
        "count",
        Lower,
        "work_units_per_pass on repeat_served",
    ),
    layer(
        "uct.select_backup_ns",
        "ns",
        Lower,
        "pass_s on torture_embedded",
    ),
    layer("uct.nodes", "count", Lower, "pass_s on torture_embedded"),
    layer(
        "storage.index_build_us",
        "us",
        Lower,
        "pass_s on job_served",
    ),
    layer(
        "storage.index_probe_ns",
        "ns",
        Lower,
        "pass_s on job_served",
    ),
    layer("storage.open_us", "us", Lower, "pass_s on tpch_disk"),
    layer("storage.persist_us", "us", Lower, "setup_s on tpch_disk"),
    layer("storage.csv_ingest_us", "us", Lower, "pass_s on tpch_disk"),
    layer(
        "storage.ingest_rows_per_s",
        "rows/s",
        Higher,
        "pass_s on tpch_disk",
    ),
    layer(
        "storage.segment_bytes",
        "bytes",
        Lower,
        "storage.disk_bytes_per_user_byte on tpch_disk",
    ),
    layer(
        "storage.disk_bytes_per_user_byte",
        "ratio",
        Lower,
        "pass_s on tpch_disk (page decode) against file size",
    ),
    layer(
        "server.admission_wait_us",
        "us",
        Lower,
        "query_p50_ms on repeat_served",
    ),
    layer(
        "server.encode_flush_us",
        "us",
        Lower,
        "query_p50_ms on repeat_served",
    ),
    layer(
        "server.stage_total_us",
        "us",
        Lower,
        "query_p50_ms on repeat_served",
    ),
    layer(
        "server.unattributed_us",
        "us",
        Lower,
        "query_p50_ms on repeat_served",
    ),
    layer(
        "server.wire_overhead_us",
        "us",
        Lower,
        "query_p50_ms, queries_per_s on repeat_served",
    ),
    layer(
        "server.noop_roundtrip_us",
        "us",
        Lower,
        "query_p50_ms on repeat_served",
    ),
    layer(
        "server.protocol_encode_ns_per_row",
        "ns",
        Lower,
        "query_p95_ms on repeat_served",
    ),
    layer(
        "server.protocol_decode_ns_per_row",
        "ns",
        Lower,
        "query_p95_ms on repeat_served",
    ),
    layer(
        "server.shed",
        "count",
        Lower,
        "queries_per_s on repeat_served",
    ),
    layer(
        "server.queued",
        "count",
        Lower,
        "query_p95_ms on repeat_served",
    ),
    layer(
        "client.latency_p99_ms",
        "ms",
        Lower,
        "query_p95_ms on repeat_served",
    ),
    layer(
        "telemetry.trace_overhead_pct",
        "%",
        Lower,
        "pass_s on every workload",
    ),
];

/// Median of unsorted samples (mean of the middle two for even counts);
/// 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted samples: the smallest value with at
/// least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The percentile rule: of the candidates, the highest one that still has
/// at least ten samples beyond it. `None` below 20 samples, where not
/// even the median qualifies.
pub fn supported_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| n >= rank(n.max(1), p) + 10)
        .reduce(f64::max)
}

/// Latency at `wanted`, lowered to the highest percentile the sample
/// supports; returns the value and the percentile actually used.
pub fn tail(sorted: &[f64], wanted: f64) -> (f64, f64) {
    let used =
        supported_percentile(sorted.len(), &[0.5, 0.9, 0.95, 0.99]).map_or(0.5, |p| p.min(wanted));
    (percentile(sorted, used), used)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the acceptance check
/// of the benchmark uses. Needs at least two values.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the peak-RSS watermark at the current resident size, so the
/// reference executions of set-up (another engine, with materialised
/// intermediates) do not set the peak. Freed heap is handed back to the
/// kernel first where the allocator offers that; otherwise what set-up
/// left behind would be most of the figure. Returns whether the kernel
/// took the reset.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: both are glibc's own tuning entry points; they take no
        // pointers and may be called from any thread at any time.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v[..1], 0.99), 1.0);
    }

    #[test]
    fn highest_percentile_with_ten_samples_beyond_it() {
        let c = [0.5, 0.9, 0.95, 0.99];
        assert_eq!(supported_percentile(19, &c), None);
        assert_eq!(supported_percentile(20, &c), Some(0.5));
        assert_eq!(supported_percentile(99, &c), Some(0.5));
        assert_eq!(supported_percentile(100, &c), Some(0.9));
        assert_eq!(supported_percentile(199, &c), Some(0.9));
        assert_eq!(supported_percentile(200, &c), Some(0.95));
        assert_eq!(supported_percentile(999, &c), Some(0.95));
        assert_eq!(supported_percentile(1000, &c), Some(0.99));
        // A wanted p95 is lowered, never raised.
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(tail(&v, 0.95), (135.0, 0.9));
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.95), (1900.0, 0.95));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn names_follow_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(ok_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(ok_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(
                ok_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        for m in PER_LAYER {
            assert!(ok_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }
}
