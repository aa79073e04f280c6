//! The observable server state behind `SHOW SERVER STATS` and `/metrics`.
//!
//! Everything is backed by one [`Registry`] from `skinner_telemetry`, the
//! only place the server aggregates and names its statistics: the
//! hot-path handles below (`Counter`/`Gauge`/`Histo`) update atomics
//! directly, [`ServerStats::record_query`] adds each served query into the
//! labeled `skinner_strategy_*{strategy="…"}` series, and the server
//! samples its live structures into gauges before each read. `/metrics`
//! renders the registry as Prometheus text; `SHOW SERVER STATS`
//! ([`ServerStats::show_table`]) renders the same series as rows, named as
//! in `/metrics` without the `skinner_` prefix.

use std::time::Duration;

use skinner_telemetry::{Counter, Gauge, Histo, Registry};
use skinnerdb::{ExecMetrics, QueryResult, Value};

/// The server's metric handles, all registered in one shared [`Registry`].
/// Counters are monotonic; gauges are set (or bumped) from live
/// structures; histograms capture latency distributions.
#[derive(Debug, Clone)]
pub struct ServerStats {
    registry: Registry,
    pub connections_total: Counter,
    pub connections_rejected: Counter,
    /// Idle-reaped connections. Exposed as a gauge so CI can assert it
    /// from a `/metrics` scrape (it only ever grows, but it mirrors a
    /// sweep-owned tally rather than a request counter).
    pub connections_reaped_idle: Gauge,
    pub queries_total: Counter,
    pub queries_failed: Counter,
    pub queries_cancelled: Counter,
    pub queries_timed_out: Counter,
    /// Queries whose wall time crossed `--slow-query-ms`.
    pub slow_queries_total: Counter,
    /// Regret proxy: cumulative join-order switches across all queries
    /// (a converged workload stops switching).
    pub order_switches_total: Counter,
    /// Cross-query learning: queries answered with a warm-started UCT
    /// tree from the template cache.
    pub warm_start_hits_total: Counter,
    /// Cross-query learning: cumulative tree visits seeded from cached
    /// priors (0 while every query runs cold — the restart-survival CI
    /// asserts this goes positive right after a warm restart).
    pub warm_start_visits_total: Counter,
    /// Cross-query learning: warm starts served by a *nearest-neighbor*
    /// template (generalization) rather than an exact key match.
    pub warm_start_generalized_total: Counter,
    /// Microseconds [`crate::server::Server::wait`] slept past the
    /// shutdown request before its condvar woke (set once at shutdown;
    /// CI asserts it stays well under 10ms).
    pub shutdown_wake_latency_us: Gauge,
    pub metrics_scrapes_total: Counter,
    pub query_latency_us: Histo,
    pub admission_wait_us: Histo,
    /// Distribution of the episode index after which the winning join
    /// order stopped changing — the paper's convergence measure.
    pub last_order_switch_slices: Histo,
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats::new()
    }
}

impl ServerStats {
    pub fn new() -> Self {
        let registry = Registry::new();
        ServerStats {
            connections_total: registry.counter(
                "skinner_connections_total",
                "Connections accepted since start.",
            ),
            connections_rejected: registry.counter(
                "skinner_connections_rejected_total",
                "Connections refused at the limit.",
            ),
            connections_reaped_idle: registry.gauge(
                "skinner_connections_reaped_idle",
                "Connections closed by the idle sweep.",
            ),
            queries_total: registry.counter("skinner_queries_total", "Queries admitted to run."),
            queries_failed: registry.counter(
                "skinner_queries_failed_total",
                "Queries ending in an error.",
            ),
            queries_cancelled: registry.counter(
                "skinner_queries_cancelled_total",
                "Queries cancelled out-of-band.",
            ),
            queries_timed_out: registry.counter(
                "skinner_queries_timed_out_total",
                "Queries over their work limit or deadline.",
            ),
            slow_queries_total: registry.counter(
                "skinner_slow_queries_total",
                "Queries over the slow-query threshold.",
            ),
            order_switches_total: registry.counter(
                "skinner_order_switches_total",
                "Join-order switches across all learning queries (regret proxy).",
            ),
            warm_start_hits_total: registry.counter(
                "skinner_warm_start_hits_total",
                "Queries warm-started from the cross-query template cache.",
            ),
            warm_start_visits_total: registry.counter(
                "skinner_warm_start_visits_total",
                "Tree visits seeded from cached priors across all queries.",
            ),
            warm_start_generalized_total: registry.counter(
                "skinner_warm_start_generalized_total",
                "Warm starts served by a nearest-neighbor template.",
            ),
            shutdown_wake_latency_us: registry.gauge(
                "skinner_shutdown_wake_latency_us",
                "Microseconds the shutdown condvar wait overslept the request.",
            ),
            metrics_scrapes_total: registry
                .counter("skinner_metrics_scrapes_total", "Scrapes of /metrics."),
            query_latency_us: registry.histogram(
                "skinner_query_latency_us",
                "Successful query wall time in microseconds.",
            ),
            admission_wait_us: registry.histogram(
                "skinner_admission_wait_us",
                "Microseconds from dispatch to an execution slot.",
            ),
            last_order_switch_slices: registry.histogram(
                "skinner_last_order_switch_slices",
                "Episode index of the last join-order switch (convergence).",
            ),
            registry,
        }
    }

    /// The registry every handle lives in — the `/metrics` endpoint
    /// renders it, and samplers register live gauges into it.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Fold one finished query into the per-strategy series, the
    /// latency histogram and the regret-proxy counters. Per strategy:
    /// queries, learning episodes (time slices), result tuples (the
    /// cumulative reward proxy: tuples / episodes is the mean reward),
    /// work units, wall time, zone-mapped pages read and skipped, and the
    /// last planner cost estimate of a statement that reported one.
    pub fn record_query(
        &self,
        strategy: &str,
        metrics_per_statement: &[&ExecMetrics],
        work_units: u64,
        wall: Duration,
    ) {
        let wall_us = wall.as_micros() as u64;
        self.query_latency_us.record(wall_us);
        let (mut episodes, mut result_tuples, mut pages_read, mut pages_skipped) = (0, 0, 0, 0);
        let mut plan_cost_est = None;
        for m in metrics_per_statement {
            episodes += m.slices;
            result_tuples += m.result_tuples;
            pages_read += m.pages_read;
            pages_skipped += m.pages_skipped;
            if let Some(n) = m.counter("order_switches") {
                self.order_switches_total.add(n);
            }
            if m.counter("cache_hit") == Some(1) {
                self.warm_start_hits_total.inc();
            }
            if let Some(v) = m.counter("warm_start_visits") {
                self.warm_start_visits_total.add(v);
            }
            if m.counter("warm_start_generalized") == Some(1) {
                self.warm_start_generalized_total.inc();
            }
            if let Some(s) = m.counter("last_order_switch") {
                self.last_order_switch_slices.record(s);
            }
            plan_cost_est = m.counter("plan_cost_est").or(plan_cost_est);
        }
        let labels: &[(&str, &str)] = &[("strategy", strategy)];
        for (name, help, v) in [
            (
                "skinner_strategy_queries_total",
                "Queries served, by strategy.",
                1,
            ),
            (
                "skinner_strategy_episodes_total",
                "Learning episodes (time slices) run, by strategy.",
                episodes,
            ),
            (
                "skinner_strategy_result_tuples_total",
                "Result tuples produced (cumulative reward proxy), by strategy.",
                result_tuples,
            ),
            (
                "skinner_strategy_work_units_total",
                "Deterministic work units spent, by strategy.",
                work_units,
            ),
            (
                "skinner_strategy_wall_us_total",
                "Query wall time in microseconds, by strategy.",
                wall_us,
            ),
            (
                "skinner_strategy_pages_read_total",
                "Zone-mapped pages evaluated during preprocessing, by strategy.",
                pages_read,
            ),
            (
                "skinner_strategy_pages_skipped_total",
                "Zone-mapped pages skipped during preprocessing, by strategy.",
                pages_skipped,
            ),
        ] {
            self.registry.counter_with(name, help, labels).add(v);
        }
        if let Some(c) = plan_cost_est {
            self.registry
                .gauge_with(
                    "skinner_strategy_plan_cost_est",
                    "Last planner cost estimate (C_out), by strategy.",
                    labels,
                )
                .set(c);
        }
    }

    /// The `SHOW SERVER STATS` table (`metric`, `value`): one row per
    /// [`Registry::flatten`] row, named as in `/metrics` without the
    /// `skinner_` prefix. Callers sample live gauges first.
    pub fn show_table(&self) -> QueryResult {
        let rows = self
            .registry
            .flatten()
            .into_iter()
            .map(|(name, v)| {
                let name = name.strip_prefix("skinner_").unwrap_or(&name);
                vec![Value::from(name), Value::Int(v as i64)]
            })
            .collect();
        QueryResult {
            columns: vec!["metric".into(), "value".into()],
            rows,
        }
    }
}

/// Normalize a SQL text to a template key for the slow-query log:
/// literals become `?`, whitespace collapses, keywords are uppercased by
/// leaving identifiers as written. Matches the spirit of the cross-query
/// learning cache's template keying without depending on a successful
/// bind (slow queries should still log a usable key if re-parsing is
/// undesirable).
pub fn template_key(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len().min(200));
    let mut chars = sql.chars().peekable();
    let mut last_space = true;
    while let Some(c) = chars.next() {
        match c {
            '\'' | '"' => {
                // Skip the quoted literal (doubled quotes escape).
                while let Some(q) = chars.next() {
                    if q == c {
                        if chars.peek() == Some(&c) {
                            chars.next();
                        } else {
                            break;
                        }
                    }
                }
                out.push('?');
                last_space = false;
            }
            '0'..='9' => {
                // Identifiers like `t12` keep their digits; only bare
                // numeric literals collapse to `?`.
                let in_ident = out
                    .chars()
                    .last()
                    .is_some_and(|p| p.is_alphanumeric() || p == '_');
                let mut run = String::new();
                run.push(c);
                while matches!(chars.peek(), Some('0'..='9'))
                    || (!in_ident && matches!(chars.peek(), Some('.') | Some('e') | Some('E')))
                {
                    run.push(chars.next().unwrap());
                }
                if in_ident {
                    out.push_str(&run);
                } else {
                    out.push('?');
                }
                last_space = false;
            }
            c if c.is_whitespace() => {
                if !last_space {
                    out.push(' ');
                    last_space = true;
                }
            }
            c => {
                out.push(c);
                last_space = false;
            }
        }
    }
    let trimmed = out.trim().to_string();
    if trimmed.len() > 200 {
        let mut cut = 200;
        let mut t = trimmed;
        while cut > 0 && !t.is_char_boundary(cut) {
            cut -= 1;
        }
        t.truncate(cut);
        t
    } else {
        trimmed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One `SHOW SERVER STATS` row's value, `None` when absent.
    fn row(t: &QueryResult, k: &str) -> Option<i64> {
        t.rows
            .iter()
            .find(|r| r[0].as_str() == Some(k))
            .map(|r| r[1].as_i64().unwrap())
    }

    #[test]
    fn aggregates_fold_per_strategy() {
        let stats = ServerStats::new();
        let m1 = ExecMetrics {
            slices: 10,
            result_tuples: 40,
            ..ExecMetrics::default()
        };
        let m2 = ExecMetrics {
            slices: 5,
            result_tuples: 10,
            ..ExecMetrics::default()
        };
        stats.record_query("Skinner-C", &[&m1, &m2], 500, Duration::from_micros(90));
        stats.record_query("Skinner-C", &[&m1], 100, Duration::from_micros(10));
        stats.record_query("Traditional", &[], 7, Duration::ZERO);
        let t = stats.show_table();
        let c = |field: &str| row(&t, &format!("strategy_{field}{{strategy=\"Skinner-C\"}}"));
        assert_eq!(c("queries_total"), Some(2));
        assert_eq!(c("episodes_total"), Some(25));
        assert_eq!(c("result_tuples_total"), Some(90));
        assert_eq!(c("work_units_total"), Some(600));
        assert_eq!(c("wall_us_total"), Some(100));
        assert_eq!(
            row(&t, "strategy_queries_total{strategy=\"Traditional\"}"),
            Some(1)
        );
    }

    #[test]
    fn snapshot_is_a_metric_value_table() {
        let stats = ServerStats::new();
        stats.queries_total.inc();
        let m = ExecMetrics {
            slices: 4,
            result_tuples: 8,
            pages_read: 3,
            pages_skipped: 5,
            ..ExecMetrics::default()
        };
        stats.record_query("Skinner-C", &[&m], 1, Duration::ZERO);
        let t = stats.show_table();
        assert_eq!(t.columns, vec!["metric".to_string(), "value".to_string()]);
        let c = |field: &str| row(&t, &format!("strategy_{field}{{strategy=\"Skinner-C\"}}"));
        assert_eq!(row(&t, "queries_total"), Some(1));
        assert_eq!(c("episodes_total"), Some(4));
        assert_eq!(c("result_tuples_total"), Some(8));
        assert_eq!(c("pages_read_total"), Some(3));
        assert_eq!(c("pages_skipped_total"), Some(5));
        assert_eq!(row(&t, "slow_queries_total"), Some(0));
        assert_eq!(row(&t, "order_switches_total"), Some(0));
        // Histograms contribute count/sum/quantile rows.
        assert_eq!(row(&t, "query_latency_us.count"), Some(1));
        assert_eq!(row(&t, "admission_wait_us.p50"), Some(0));
        // Every row is a registry series without the `skinner_` prefix.
        let flat = stats.registry().flatten();
        assert_eq!(t.rows.len(), flat.len());
        for (r, (name, v)) in t.rows.iter().zip(&flat) {
            assert_eq!(r[0].as_str(), name.strip_prefix("skinner_"));
            assert_eq!(r[1].as_i64(), Some(*v as i64));
        }
    }

    #[test]
    fn regret_counters_fold_from_exec_metrics() {
        let stats = ServerStats::new();
        let m = ExecMetrics {
            slices: 30,
            ..ExecMetrics::default()
        }
        .with_counter("order_switches", 4)
        .with_counter("cache_hit", 1)
        .with_counter("last_order_switch", 12);
        stats.record_query("Skinner-C", &[&m], 10, Duration::from_micros(50));
        assert_eq!(stats.order_switches_total.get(), 4);
        assert_eq!(stats.warm_start_hits_total.get(), 1);
        let conv = stats.last_order_switch_slices.snapshot();
        assert_eq!(conv.count, 1);
        assert_eq!(conv.sum, 12);
        // The query landed in the latency histogram and the prometheus
        // rendering carries the per-strategy series.
        assert_eq!(stats.query_latency_us.snapshot().count, 1);
        let text = stats.registry().render_prometheus();
        assert!(text.contains("skinner_order_switches_total 4"), "{text}");
        assert!(
            text.contains("skinner_strategy_episodes_total{strategy=\"Skinner-C\"} 30"),
            "{text}"
        );
    }

    #[test]
    fn hybrid_counters_fold_into_rows_and_registry() {
        let stats = ServerStats::new();
        let first = ExecMetrics {
            slices: 3,
            ..ExecMetrics::default()
        }
        .with_counter("plan_cost_est", 1234);
        let second = ExecMetrics {
            slices: 4,
            ..ExecMetrics::default()
        }
        .with_counter("plan_cost_est", 77);
        stats.record_query("Skinner-H", &[&first], 10, Duration::from_micros(5));
        stats.record_query("Skinner-H", &[&second], 10, Duration::from_micros(5));
        stats.record_query("Skinner-C", &[&ExecMetrics::default()], 10, Duration::ZERO);
        let t = stats.show_table();
        assert_eq!(
            row(&t, "strategy_episodes_total{strategy=\"Skinner-H\"}"),
            Some(7)
        );
        assert_eq!(
            row(&t, "strategy_plan_cost_est{strategy=\"Skinner-H\"}"),
            Some(77),
            "last estimate wins"
        );
        assert_eq!(
            row(&t, "strategy_plan_cost_est{strategy=\"Skinner-C\"}"),
            None,
            "unplanned"
        );
        let text = stats.registry().render_prometheus();
        assert!(
            text.contains("skinner_strategy_episodes_total{strategy=\"Skinner-H\"} 7"),
            "{text}"
        );
    }

    #[test]
    fn template_keys_normalize_literals_and_whitespace() {
        assert_eq!(
            template_key("SELECT  t.x FROM t WHERE t.x = 42"),
            "SELECT t.x FROM t WHERE t.x = ?"
        );
        assert_eq!(
            template_key("SELECT t.x FROM t WHERE t.name = 'bob'  AND t.y < 3.5e2"),
            "SELECT t.x FROM t WHERE t.name = ? AND t.y < ?"
        );
        // Identifiers keep their digits; only standalone numbers collapse.
        assert_eq!(
            template_key("SELECT t1.x FROM t1 WHERE t1.x = 7"),
            "SELECT t1.x FROM t1 WHERE t1.x = ?"
        );
        assert_eq!(
            template_key("SELECT a.x FROM a WHERE a.x = 1"),
            template_key("SELECT a.x\nFROM a WHERE a.x = 999")
        );
    }
}
