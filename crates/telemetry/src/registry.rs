//! Named metric families and Prometheus text exposition.
//!
//! The registry maps family names to series (one per label set). Handles
//! returned by the accessors are `Arc`-backed: once a hot path has its
//! [`Counter`]/[`Gauge`]/[`Histo`] it updates atomics directly and never
//! touches the registry lock again. The lock guards only series creation
//! and snapshot rendering.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::Histogram;

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise the counter to `v` if below it (for mirroring an externally
    /// maintained monotone total into the registry). Never decreases.
    pub fn raise_to(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable gauge handle.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram handle (see [`Histogram`]).
#[derive(Debug, Clone)]
pub struct Histo(Arc<Histogram>);

impl Default for Histo {
    fn default() -> Self {
        Histo(Arc::new(Histogram::new()))
    }
}

impl Histo {
    pub fn record(&self, v: u64) {
        self.0.record(v);
    }

    pub fn snapshot(&self) -> crate::hist::HistSnapshot {
        self.0.snapshot()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histo),
}

#[derive(Debug)]
struct Family {
    kind: Kind,
    help: &'static str,
    /// Keyed by the rendered label set (`""` or `{k="v",...}`), so series
    /// iterate in deterministic order.
    series: BTreeMap<String, Metric>,
}

/// The metric family store. Cheap to clone (shared interior).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    families: Arc<Mutex<BTreeMap<String, Family>>>,
}

/// Render a label set as it appears in the exposition format. Label
/// values are escaped per the Prometheus text format rules.
fn label_key(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_create(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        kind: Kind,
    ) -> Metric {
        let mut families = self.families.lock().unwrap();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric family {name} registered as {} but requested as {}",
            family.kind.as_str(),
            kind.as_str()
        );
        family
            .series
            .entry(label_key(labels))
            .or_insert_with(|| match kind {
                Kind::Counter => Metric::Counter(Counter::default()),
                Kind::Gauge => Metric::Gauge(Gauge::default()),
                Kind::Histogram => Metric::Histogram(Histo::default()),
            })
            .clone()
    }

    /// Get or create an unlabeled counter.
    pub fn counter(&self, name: &str, help: &'static str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Get or create a counter series with the given label set.
    pub fn counter_with(&self, name: &str, help: &'static str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_create(name, help, labels, Kind::Counter) {
            Metric::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Get or create an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &'static str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Get or create a gauge series with the given label set.
    pub fn gauge_with(&self, name: &str, help: &'static str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_create(name, help, labels, Kind::Gauge) {
            Metric::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Get or create an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &'static str) -> Histo {
        self.histogram_with(name, help, &[])
    }

    /// Get or create a histogram series with the given label set.
    pub fn histogram_with(&self, name: &str, help: &'static str, labels: &[(&str, &str)]) -> Histo {
        match self.get_or_create(name, help, labels, Kind::Histogram) {
            Metric::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Render every family in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers, then one line per
    /// series. Histograms emit cumulative `_bucket{le=...}` lines for
    /// their non-empty buckets plus `+Inf`, `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let families = self.families.lock().unwrap();
        let mut out = String::new();
        for (name, family) in families.iter() {
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            out.push_str(family.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(family.kind.as_str());
            out.push('\n');
            for (labels, metric) in family.series.iter() {
                match metric {
                    Metric::Counter(c) => {
                        out.push_str(&format!("{name}{labels} {}\n", c.get()));
                    }
                    Metric::Gauge(g) => {
                        out.push_str(&format!("{name}{labels} {}\n", g.get()));
                    }
                    Metric::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cumulative = 0u64;
                        for &(upper, n) in &snap.buckets {
                            cumulative += n;
                            let le = bucket_labels(labels, upper);
                            out.push_str(&format!("{name}_bucket{le} {cumulative}\n"));
                        }
                        let inf = bucket_labels_inf(labels);
                        out.push_str(&format!("{name}_bucket{inf} {}\n", snap.count));
                        out.push_str(&format!("{name}_sum{labels} {}\n", snap.sum));
                        out.push_str(&format!("{name}_count{labels} {}\n", snap.count));
                    }
                }
            }
        }
        out
    }

    /// Flatten everything into `(metric, value)` rows for tabular display
    /// (`SHOW SERVER STATS`). Labeled series render as `name{k="v"}`;
    /// histograms contribute `name.count`, `.sum`, `.p50`, `.p99` and
    /// `.max`, so every row names its family up to the first `.` or `{`.
    pub fn flatten(&self) -> Vec<(String, u64)> {
        let families = self.families.lock().unwrap();
        let mut rows = Vec::new();
        for (name, family) in families.iter() {
            for (labels, metric) in family.series.iter() {
                match metric {
                    Metric::Counter(c) => rows.push((format!("{name}{labels}"), c.get())),
                    Metric::Gauge(g) => rows.push((format!("{name}{labels}"), g.get())),
                    Metric::Histogram(h) => {
                        let snap = h.snapshot();
                        rows.push((format!("{name}.count{labels}"), snap.count));
                        rows.push((format!("{name}.sum{labels}"), snap.sum));
                        rows.push((format!("{name}.p50{labels}"), snap.p50()));
                        rows.push((format!("{name}.p99{labels}"), snap.p99()));
                        rows.push((format!("{name}.max{labels}"), snap.max));
                    }
                }
            }
        }
        rows
    }
}

/// Splice `le="<upper>"` into an existing (possibly empty) label set.
fn bucket_labels(labels: &str, upper: u64) -> String {
    if labels.is_empty() {
        format!("{{le=\"{upper}\"}}")
    } else {
        // labels is `{...}` — insert before the closing brace.
        format!("{},le=\"{upper}\"}}", &labels[..labels.len() - 1])
    }
}

fn bucket_labels_inf(labels: &str) -> String {
    if labels.is_empty() {
        "{le=\"+Inf\"}".to_string()
    } else {
        format!("{},le=\"+Inf\"}}", &labels[..labels.len() - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_with_the_registry() {
        let reg = Registry::new();
        let c = reg.counter("skinner_queries_total", "Total queries.");
        c.inc();
        c.add(4);
        // Re-fetching the same family yields the same series.
        assert_eq!(
            reg.counter("skinner_queries_total", "Total queries.").get(),
            5
        );
        let g = reg.gauge("skinner_active", "Active now.");
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn labeled_series_are_distinct() {
        let reg = Registry::new();
        let a = reg.counter_with("skinner_admitted_total", "Admitted.", &[("tenant", "a")]);
        let b = reg.counter_with("skinner_admitted_total", "Admitted.", &[("tenant", "b")]);
        a.inc();
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(b.get(), 1);
        let text = reg.render_prometheus();
        assert!(text.contains("skinner_admitted_total{tenant=\"a\"} 2"));
        assert!(text.contains("skinner_admitted_total{tenant=\"b\"} 1"));
    }

    #[test]
    fn prometheus_rendering_shape() {
        let reg = Registry::new();
        reg.counter("skinner_queries_total", "Total queries.")
            .add(7);
        let h = reg.histogram("skinner_query_latency_us", "Latency.");
        h.record(3);
        h.record(3);
        h.record(100);
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP skinner_queries_total Total queries.\n"));
        assert!(text.contains("# TYPE skinner_queries_total counter\n"));
        assert!(text.contains("skinner_queries_total 7\n"));
        assert!(text.contains("# TYPE skinner_query_latency_us histogram\n"));
        assert!(text.contains("skinner_query_latency_us_bucket{le=\"3\"} 2\n"));
        assert!(text.contains("skinner_query_latency_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("skinner_query_latency_us_sum 106\n"));
        assert!(text.contains("skinner_query_latency_us_count 3\n"));
        // Buckets are cumulative: the 100-bucket line counts all 3.
        let hundred = text
            .lines()
            .find(|l| {
                l.starts_with("skinner_query_latency_us_bucket")
                    && !l.contains("\"3\"")
                    && !l.contains("+Inf")
            })
            .unwrap();
        assert!(hundred.ends_with(" 3"), "{hundred}");
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        reg.counter_with("skinner_x_total", "X.", &[("q", "say \"hi\"\\n")])
            .inc();
        let text = reg.render_prometheus();
        assert!(
            text.contains(r#"skinner_x_total{q="say \"hi\"\\n"} 1"#),
            "{text}"
        );
    }

    #[test]
    fn flatten_covers_all_kinds() {
        let reg = Registry::new();
        reg.counter("a_total", "A.").inc();
        reg.gauge("b", "B.").set(9);
        reg.histogram("c_us", "C.").record(5);
        let rows = reg.flatten();
        let find = |k: &str| rows.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(find("a_total"), Some(1));
        assert_eq!(find("b"), Some(9));
        assert_eq!(find("c_us.count"), Some(1));
        assert_eq!(find("c_us.sum"), Some(5));
        assert_eq!(find("c_us.p50"), Some(5));
    }

    #[test]
    #[should_panic(expected = "registered as counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("dual", "A.");
        reg.gauge("dual", "A.");
    }
}
