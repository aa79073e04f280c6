//! Cost of always-on query tracing: traced vs untraced execution, A/B
//! interleaved on the same database.
//!
//! The telemetry design brief is "always on, no hot-path allocation":
//! every server-side query carries a fixed-capacity span ring whose
//! entries are recorded at stage boundaries (admission, parse/bind,
//! preprocess, per-order episode batches, postprocess, encode) — never
//! per tuple. This experiment quantifies that claim on the
//! repeated-template star join: iterations alternate between a plain
//! [`skinnerdb::Database::exec_context`] and one with a
//! [`skinnerdb::skinner_exec::Trace`] attached, so drift (cache warmup,
//! CPU frequency, allocator state) hits both sides equally. The headline
//! number compares *best-case* wall time per side — noise and the
//! learner's per-run episode variance only ever add time, so the minimum
//! over N tries isolates the deterministic tracing cost. The JSON lands
//! in `bench_reports/BENCH_telemetry_overhead.json`; the `bench-smoke`
//! CI job asserts `overhead_pct < 3`.

use skinnerdb::skinner_core::SkinnerCConfig;
use skinnerdb::skinner_exec::Trace;
use skinnerdb::{DataType, Database, Strategy, Value};

use crate::harness::{markdown_table, write_report, Json, Scale};

/// Same shape as the repeat-workload star schema: a selective dimension
/// predicate that gives the learner something to do, sized so one query
/// takes milliseconds (stage boundaries are a measurable fraction of
/// nothing if the query finishes in microseconds).
fn build_db(scale: Scale) -> Database {
    let fact_rows = if scale.is_smoke() {
        2000
    } else {
        scale.pick(6000, 40_000)
    };
    let db = Database::new();
    db.create_table(
        "d1",
        &[("id", DataType::Int), ("a", DataType::Int)],
        (0..24)
            .map(|i| vec![Value::Int(i), Value::Int(i % 12)])
            .collect(),
    )
    .unwrap();
    db.create_table(
        "d2",
        &[("id", DataType::Int)],
        (0..240).map(|i| vec![Value::Int(i)]).collect(),
    )
    .unwrap();
    db.create_table(
        "fact",
        &[("k1", DataType::Int), ("k2", DataType::Int)],
        (0..fact_rows)
            .map(|i| vec![Value::Int(i % 24), Value::Int((i * 7) % 240)])
            .collect(),
    )
    .unwrap();
    db
}

const SQL: &str = "SELECT d1.a, COUNT(*) c FROM fact f, d1, d2 \
                   WHERE f.k1 = d1.id AND f.k2 = d2.id AND d1.a < 7 \
                   GROUP BY d1.a ORDER BY d1.a";

/// Span capacity matching what the server attaches per statement.
const TRACE_SPANS: usize = 64;

fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

struct Measurement {
    pairs: usize,
    plain_us: Vec<u64>,
    traced_us: Vec<u64>,
    /// Spans recorded by the last traced run (sanity: tracing was live).
    spans_recorded: usize,
}

impl Measurement {
    fn median_plain(&self) -> u64 {
        median(self.plain_us.clone())
    }

    fn median_traced(&self) -> u64 {
        median(self.traced_us.clone())
    }

    fn min_plain(&self) -> u64 {
        *self.plain_us.iter().min().unwrap()
    }

    fn min_traced(&self) -> u64 {
        *self.traced_us.iter().min().unwrap()
    }

    /// Min-over-min overhead, clamped at zero. The minimum is the robust
    /// statistic here: scheduler noise and the learner's per-run episode
    /// variance only ever *add* wall time, so each side's best case over
    /// N tries isolates the deterministic cost — medians of sub-millisecond
    /// adaptive runs swing several percent run-to-run and would flake the
    /// CI gate. Negative deltas (traced side got luckier) clamp to zero.
    fn overhead_pct(&self) -> f64 {
        let plain = self.min_plain().max(1) as f64;
        let traced = self.min_traced() as f64;
        ((traced - plain) / plain * 100.0).max(0.0)
    }
}

fn measure(scale: Scale) -> Measurement {
    let db = build_db(scale);
    let strategy = Strategy::SkinnerC(SkinnerCConfig::default()).build();
    // Enough pairs that one scheduler stall cannot move the median: at
    // ~700µs per run even the smoke count costs well under a second.
    let pairs = if scale.is_smoke() {
        41
    } else {
        scale.pick(41, 61)
    };
    // Warm both paths before measuring: first executions pay one-time
    // costs (allocator growth, catalog caches) that are not tracing.
    for _ in 0..3 {
        db.run_script_with(SQL, strategy.as_ref(), &db.exec_context())
            .unwrap();
        let ctx = db.exec_context().with_trace(Trace::new(TRACE_SPANS));
        db.run_script_with(SQL, strategy.as_ref(), &ctx).unwrap();
    }
    let mut plain_us = Vec::with_capacity(pairs);
    let mut traced_us = Vec::with_capacity(pairs);
    let mut spans_recorded = 0;
    let run_plain = |plain_us: &mut Vec<u64>| {
        let o = db
            .run_script_with(SQL, strategy.as_ref(), &db.exec_context())
            .unwrap();
        plain_us.push(o.wall.as_micros() as u64);
    };
    let run_traced = |traced_us: &mut Vec<u64>, spans_recorded: &mut usize| {
        let trace = Trace::new(TRACE_SPANS);
        let ctx = db.exec_context().with_trace(trace.clone());
        let o = db.run_script_with(SQL, strategy.as_ref(), &ctx).unwrap();
        traced_us.push(o.wall.as_micros() as u64);
        *spans_recorded = trace.spans().len();
    };
    // Alternate which side goes first within a pair so slow drift (CPU
    // frequency, cache state) cancels instead of biasing one variant.
    for i in 0..pairs {
        if i % 2 == 0 {
            run_plain(&mut plain_us);
            run_traced(&mut traced_us, &mut spans_recorded);
        } else {
            run_traced(&mut traced_us, &mut spans_recorded);
            run_plain(&mut plain_us);
        }
    }
    Measurement {
        pairs,
        plain_us,
        traced_us,
        spans_recorded,
    }
}

fn report(m: &Measurement) -> Json {
    Json::obj([
        ("experiment", "telemetry_overhead".into()),
        ("pairs", m.pairs.into()),
        ("min_plain_us", m.min_plain().into()),
        ("min_traced_us", m.min_traced().into()),
        ("median_plain_us", m.median_plain().into()),
        ("median_traced_us", m.median_traced().into()),
        ("overhead_pct", Json::Float(m.overhead_pct(), 3)),
        ("spans_recorded", m.spans_recorded.into()),
    ])
}

pub fn run(scale: Scale) -> String {
    let m = measure(scale);
    assert!(
        m.spans_recorded >= 3,
        "tracing was not live: only {} spans recorded",
        m.spans_recorded
    );
    let mut out = String::from(
        "## Telemetry overhead — traced vs untraced execution\n\n\
         Interleaved A/B on the repeated-template star join: each iteration\n\
         runs the query once with a plain context and once with a span trace\n\
         attached (the server attaches one to every statement). Spans are\n\
         recorded at stage boundaries only, so the cost should vanish into\n\
         measurement noise.\n\n",
    );
    out.push_str(&markdown_table(
        &["variant", "best wall", "median wall", "iterations"],
        &[
            vec![
                "untraced".into(),
                format!("{}µs", m.min_plain()),
                format!("{}µs", m.median_plain()),
                m.pairs.to_string(),
            ],
            vec![
                "traced".into(),
                format!("{}µs", m.min_traced()),
                format!("{}µs", m.median_traced()),
                m.pairs.to_string(),
            ],
        ],
    ));
    out.push_str(&format!(
        "\nOverhead (best-case vs best-case): **{:.2}%** (clamped at 0; spans \
         recorded per run: {}).\n",
        m.overhead_pct(),
        m.spans_recorded
    ));
    out.push_str(&write_report("telemetry_overhead", &report(&m)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_runs_record_stage_spans() {
        let db = build_db(Scale::Smoke);
        let strategy = Strategy::SkinnerC(SkinnerCConfig::default()).build();
        let trace = Trace::new(TRACE_SPANS);
        let ctx = db.exec_context().with_trace(trace.clone());
        db.run_script_with(SQL, strategy.as_ref(), &ctx).unwrap();
        let spans = trace.spans();
        let stages: std::collections::BTreeSet<&str> = spans.iter().map(|s| s.stage).collect();
        for want in ["parse_bind", "preprocess", "episodes", "postprocess"] {
            assert!(stages.contains(want), "missing {want}: {stages:?}");
        }
        assert!(spans.iter().all(|s| s.dur_ns > 0), "{spans:?}");
    }

    #[test]
    fn json_shape_is_valid() {
        let m = Measurement {
            pairs: 3,
            plain_us: vec![100, 110, 120],
            traced_us: vec![105, 115, 125],
            spans_recorded: 7,
        };
        assert_eq!(m.median_plain(), 110);
        assert_eq!(m.median_traced(), 115);
        assert_eq!(m.min_plain(), 100);
        assert_eq!(m.min_traced(), 105);
        assert!((m.overhead_pct() - 5.0).abs() < 0.01);
        let text = report(&m).render();
        assert!(text.contains("\"overhead_pct\": 5.000"), "{text}");
        assert!(text.contains("\"min_plain_us\": 100"));
        assert!(text.contains("\"median_plain_us\": 110"));
    }

    #[test]
    fn zero_clamp_on_negative_overhead() {
        let m = Measurement {
            pairs: 1,
            plain_us: vec![200],
            traced_us: vec![150],
            spans_recorded: 5,
        };
        assert_eq!(m.overhead_pct(), 0.0);
    }
}
