//! Property tests for [`merge_worker_metrics`]: merging per-worker metric
//! blocks must reproduce exactly the totals a sequential run over the same
//! work would report — additive fields summed exactly once, shared
//! snapshots (cache counters, convergence indexes, tree sizes) not
//! multiplied by the worker count.

use proptest::prelude::*;
use skinner_exec::{merge_worker_metrics, ExecMetrics};

/// One worker's additive contribution, drawn independently per worker.
#[derive(Debug, Clone)]
struct Part {
    intermediate_tuples: u64,
    result_tuples: u64,
    slices: u64,
    pages_read: u64,
    pages_skipped: u64,
    chunks: u64,
    uct_nodes: usize,
    order_a_slices: u64,
    order_b_slices: u64,
}

fn part() -> impl Strategy<Value = Part> {
    (
        (0u64..1_000, 0u64..1_000, 0u64..1_000, 0u64..100),
        (0u64..100, 0u64..10, 0usize..5_000),
        (0u64..50, 0u64..50),
    )
        .prop_map(|(a, b, c)| Part {
            intermediate_tuples: a.0,
            result_tuples: a.1,
            slices: a.2,
            pages_read: a.3,
            pages_skipped: b.0,
            chunks: b.1,
            uct_nodes: b.2,
            order_a_slices: c.0,
            order_b_slices: c.1,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Merged worker metrics equal the sequential totals: every additive
    /// field is the sum over workers, every replicated snapshot keeps its
    /// shared value, and keyed structures merge by key.
    #[test]
    fn merge_equals_sequential_totals(
        parts in proptest::collection::vec(part(), 1..9),
        cache_hit in 0u64..2,
        warm_start_visits in 0u64..5_000,
        last_order_switch in 0u64..10_000,
    ) {
        // Each worker block carries its own additive contribution plus the
        // shared snapshot facts every worker replicates (the same cache
        // probe, the same convergence index, the same shared-tree size).
        let shared_tree_nodes = parts.iter().map(|p| p.uct_nodes).max().unwrap_or(0);
        let blocks: Vec<ExecMetrics> = parts
            .iter()
            .map(|p| {
                ExecMetrics {
                    intermediate_tuples: p.intermediate_tuples,
                    result_tuples: p.result_tuples,
                    slices: p.slices,
                    pages_read: p.pages_read,
                    pages_skipped: p.pages_skipped,
                    uct_nodes: shared_tree_nodes,
                    order_slice_counts: vec![
                        (vec![0, 1, 2], p.order_a_slices),
                        (vec![2, 1, 0], p.order_b_slices),
                    ],
                    ..ExecMetrics::default()
                }
                .with_counter("chunks", p.chunks)
                .with_counter("cache_hit", cache_hit)
                .with_counter("warm_start_visits", warm_start_visits)
                .with_counter("last_order_switch", last_order_switch)
            })
            .collect();

        let merged = merge_worker_metrics(blocks);

        // Additive fields: summed exactly once per worker contribution.
        let sum = |f: fn(&Part) -> u64| parts.iter().map(f).sum::<u64>();
        prop_assert_eq!(merged.intermediate_tuples, sum(|p| p.intermediate_tuples));
        prop_assert_eq!(merged.result_tuples, sum(|p| p.result_tuples));
        prop_assert_eq!(merged.slices, sum(|p| p.slices));
        prop_assert_eq!(merged.pages_read, sum(|p| p.pages_read));
        prop_assert_eq!(merged.pages_skipped, sum(|p| p.pages_skipped));
        prop_assert_eq!(merged.counter("chunks"), Some(sum(|p| p.chunks)));

        // Shared snapshots: the replicated value, never multiplied.
        prop_assert_eq!(merged.counter("cache_hit"), Some(cache_hit));
        prop_assert_eq!(merged.counter("warm_start_visits"), Some(warm_start_visits));
        prop_assert_eq!(merged.counter("last_order_switch"), Some(last_order_switch));
        prop_assert_eq!(merged.uct_nodes, shared_tree_nodes);

        // Keyed structures: per-key sums.
        let a_total = sum(|p| p.order_a_slices);
        let b_total = sum(|p| p.order_b_slices);
        let by_order = |order: &[usize]| {
            merged
                .order_slice_counts
                .iter()
                .find(|(o, _)| o == order)
                .map(|&(_, n)| n)
                .unwrap_or(0)
        };
        prop_assert_eq!(by_order(&[0, 1, 2]), a_total);
        prop_assert_eq!(by_order(&[2, 1, 0]), b_total);
        // Most-used-first invariant.
        for w in merged.order_slice_counts.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
    }

    /// Merging is associative: folding in two halves equals one pass —
    /// the property that makes hierarchical (per-group, then global)
    /// aggregation safe.
    #[test]
    fn merge_is_associative(parts in proptest::collection::vec(part(), 2..8), split in 1usize..7) {
        let blocks: Vec<ExecMetrics> = parts
            .iter()
            .map(|p| {
                ExecMetrics {
                    result_tuples: p.result_tuples,
                    slices: p.slices,
                    pages_read: p.pages_read,
                    ..ExecMetrics::default()
                }
                .with_counter("chunks", p.chunks)
                .with_counter("cache_hit", 1)
            })
            .collect();
        let split = split.min(blocks.len() - 1);
        let one_pass = merge_worker_metrics(blocks.clone());
        let (lo, hi) = blocks.split_at(split);
        let two_pass = merge_worker_metrics([
            merge_worker_metrics(lo.to_vec()),
            merge_worker_metrics(hi.to_vec()),
        ]);
        prop_assert_eq!(one_pass.result_tuples, two_pass.result_tuples);
        prop_assert_eq!(one_pass.slices, two_pass.slices);
        prop_assert_eq!(one_pass.pages_read, two_pass.pages_read);
        prop_assert_eq!(one_pass.counter("chunks"), two_pass.counter("chunks"));
        prop_assert_eq!(one_pass.counter("cache_hit"), Some(1));
        prop_assert_eq!(two_pass.counter("cache_hit"), Some(1));
    }
}
