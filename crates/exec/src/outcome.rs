//! The shared outcome type every execution strategy returns.
//!
//! Before the `ExecutionStrategy` redesign each engine declared its own
//! per-engine outcome struct and the facade hand-copied the common fields.
//! Now there is exactly one shape:
//! the four fields every caller needs, plus an [`ExecMetrics`] block for
//! the per-engine instrumentation the benchmark harness reads (the paper's
//! convergence, memory and cardinality experiments).

use std::time::Duration;

use crate::result::QueryResult;

/// Normalized result of executing one bound query under any strategy.
#[derive(Debug)]
pub struct ExecOutcome {
    pub result: QueryResult,
    /// Deterministic work units consumed (comparable across strategies).
    pub work_units: u64,
    pub wall: Duration,
    /// The run hit its work limit, deadline, or cancellation token; the
    /// result is empty (destructive-timeout semantics).
    pub timed_out: bool,
    /// Engine-specific instrumentation; empty where an engine has nothing
    /// to report.
    pub metrics: ExecMetrics,
}

impl ExecOutcome {
    /// A successful run with no extra instrumentation.
    pub fn completed(result: QueryResult, work_units: u64, wall: Duration) -> Self {
        ExecOutcome {
            result,
            work_units,
            wall,
            timed_out: false,
            metrics: ExecMetrics::default(),
        }
    }

    /// A timed-out run: empty result over the query's output columns.
    pub fn timeout(columns: Vec<String>, work_units: u64, wall: Duration) -> Self {
        ExecOutcome {
            result: QueryResult::empty(columns),
            work_units,
            wall,
            timed_out: true,
            metrics: ExecMetrics::default(),
        }
    }

    /// Attach instrumentation (builder style).
    pub fn with_metrics(mut self, metrics: ExecMetrics) -> Self {
        self.metrics = metrics;
        self
    }
}

/// Instrumentation shared across engines. Strategy implementations fill in
/// what applies to them and leave the rest at the defaults; scalar metrics
/// without a dedicated field go into [`ExecMetrics::counters`].
#[derive(Debug, Clone, Default)]
pub struct ExecMetrics {
    /// The join order executed (traditional: the planned order; Skinner-C:
    /// the most-visited order at termination, replayed in Tables 3/4;
    /// re-optimizer: the order actually materialized).
    pub order: Vec<usize>,
    /// Intermediate tuples produced — the paper's "Total Card."
    /// optimizer-quality metric (Tables 1–2).
    pub intermediate_tuples: u64,
    /// Deduplicated join-result tuples (Skinner-C).
    pub result_tuples: u64,
    /// Time slices / iterations executed by learning engines.
    pub slices: u64,
    /// UCT search-tree nodes (Figure 8a).
    pub uct_nodes: usize,
    /// Progress-tracker trie nodes (Figure 8b).
    pub tracker_nodes: usize,
    /// Result-set bytes (Figure 8c).
    pub result_set_bytes: usize,
    /// UCT + tracker + result-set + index bytes (Figure 8d).
    pub total_aux_bytes: usize,
    /// (slice, UCT nodes) samples (Figure 7a).
    pub tree_growth: Vec<(u64, usize)>,
    /// Slice counts per join order, most-used first (Figure 7b).
    pub order_slice_counts: Vec<(Vec<usize>, u64)>,
    /// Zone-mapped pages whose rows were evaluated during pre-processing
    /// (0 for purely in-memory tables, which carry no zone maps).
    pub pages_read: u64,
    /// Zone-mapped pages skipped outright via min/max bounds.
    pub pages_skipped: u64,
    /// Named scalar metrics: `routings` (eddy), `replans` (re-optimizer),
    /// `rounds` (Skinner-H), `timeout_levels` (Skinner-G), ….
    pub counters: Vec<(&'static str, u64)>,
    /// Which side produced a hybrid strategy's result (`"traditional"` or
    /// `"learned"`).
    pub winner: Option<&'static str>,
}

impl ExecMetrics {
    /// Look up a named counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Set (or overwrite) a named counter, builder style.
    pub fn with_counter(mut self, name: &'static str, value: u64) -> Self {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.counters.push((name, value)),
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_counters() {
        let ok = ExecOutcome::completed(
            QueryResult::empty(vec!["x".into()]),
            42,
            Duration::from_millis(1),
        );
        assert!(!ok.timed_out);
        assert_eq!(ok.work_units, 42);

        let to = ExecOutcome::timeout(vec!["x".into()], 7, Duration::ZERO).with_metrics(
            ExecMetrics::default()
                .with_counter("rounds", 3)
                .with_counter("rounds", 5)
                .with_counter("replans", 1),
        );
        assert!(to.timed_out);
        assert_eq!(to.result.num_rows(), 0);
        assert_eq!(to.metrics.counter("rounds"), Some(5));
        assert_eq!(to.metrics.counter("replans"), Some(1));
        assert_eq!(to.metrics.counter("missing"), None);
    }
}
