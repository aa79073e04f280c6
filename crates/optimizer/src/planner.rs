//! The planner half of the binder/planner split.
//!
//! [`bind_select`](skinner_query::bind_select) produces a [`JoinQuery`];
//! this module turns one into a [`JoinPlan`]: a left-deep join order plus
//! its estimated `C_out` cost. Small queries get the exact Selinger DP
//! ([`crate::dp::best_left_deep`]); above [`PlannerConfig::dp_table_limit`]
//! tables the exponential DP is replaced by a greedy construction
//! ([`greedy_left_deep`]) that extends the cheapest eligible table at each
//! step. Both consult the same estimated-cardinality function from
//! `skinner_stats`, so misestimation hits them equally — which is exactly
//! what the Skinner-H hybrid strategy hedges against.

use skinner_query::{JoinGraph, JoinQuery, TableSet};
use skinner_stats::{Estimator, StatsCache};

use crate::cost::cout;
use crate::dp::best_left_deep;

/// How a [`JoinPlan`]'s order was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMethod {
    /// Exact DP over left-deep orders (optimal under the cardinality
    /// function used).
    Dp,
    /// Greedy cheapest-extension construction (used above the DP table
    /// limit; no optimality guarantee).
    Greedy,
}

/// A planned left-deep join order with its estimated cost.
#[derive(Debug, Clone)]
pub struct JoinPlan {
    /// Table indices, left-most first.
    pub order: Vec<usize>,
    /// Estimated `C_out` of `order` under the planner's cardinality
    /// function.
    pub cost_est: f64,
    pub method: PlanMethod,
}

/// Planner knobs.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Use the exact DP up to this many tables; fall back to
    /// [`greedy_left_deep`] beyond it (the DP enumerates all connected
    /// subsets, exponential in the table count).
    pub dp_table_limit: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig { dp_table_limit: 12 }
    }
}

/// Greedy left-deep order under an arbitrary cardinality function: for each
/// possible start table, repeatedly append the eligible (Cartesian-avoiding)
/// table minimizing the extended set's cardinality; return the cheapest of
/// the resulting orders by `C_out`. `O(m³)` cardinality probes.
pub fn greedy_left_deep(
    graph: &JoinGraph,
    mut card: impl FnMut(TableSet) -> f64,
) -> (Vec<usize>, f64) {
    let m = graph.num_tables();
    assert!(m >= 1, "empty query");
    if m == 1 {
        return (vec![0], 0.0);
    }
    let mut best: Option<(Vec<usize>, f64)> = None;
    for start in 0..m {
        let mut order = Vec::with_capacity(m);
        let mut set = TableSet::EMPTY;
        let mut cost = 0.0;
        order.push(start);
        set.insert(start);
        while order.len() < m {
            let mut pick: Option<(usize, f64)> = None;
            for t in graph.eligible_next(set).iter() {
                let c = card(set.with(t));
                // Ties break toward the lowest table index (determinism).
                if pick.is_none_or(|(_, pc)| c < pc) {
                    pick = Some((t, c));
                }
            }
            let (t, c) = pick.expect("eligible_next is never empty mid-order");
            order.push(t);
            set.insert(t);
            cost += c;
        }
        if best.as_ref().is_none_or(|(_, bc)| cost < *bc) {
            best = Some((order, cost));
        }
    }
    best.expect("at least one start table")
}

/// Plan a left-deep order under an arbitrary cardinality function: exact DP
/// up to the config's table limit, greedy beyond it.
pub fn plan_join_order(
    graph: &JoinGraph,
    card: impl FnMut(TableSet) -> f64,
    cfg: &PlannerConfig,
) -> JoinPlan {
    if graph.num_tables() <= cfg.dp_table_limit {
        let (order, cost_est) = best_left_deep(graph, card);
        JoinPlan {
            order,
            cost_est,
            method: PlanMethod::Dp,
        }
    } else {
        let (order, cost_est) = greedy_left_deep(graph, card);
        JoinPlan {
            order,
            cost_est,
            method: PlanMethod::Greedy,
        }
    }
}

/// The traditional planner entry point: estimated cardinalities
/// (independence assumptions, default UDF selectivities) from
/// `skinner_stats` over the bound query's join graph.
pub fn plan_query(query: &JoinQuery, cache: &StatsCache, cfg: &PlannerConfig) -> JoinPlan {
    let graph = query.join_graph();
    let est = Estimator::new(query, cache);
    plan_join_order(&graph, |s| est.join_cardinality(s), cfg)
}

/// `C_out` of an externally chosen order under the same estimated
/// cardinalities the planner uses (for comparing a forced order against the
/// planned one).
pub fn estimated_cout(query: &JoinQuery, cache: &StatsCache, order: &[usize]) -> f64 {
    let est = Estimator::new(query, cache);
    cout(order, |s| est.join_cardinality(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_graph(n: usize) -> JoinGraph {
        JoinGraph::new(n, (0..n - 1).map(|i| TableSet::from_iter([i, i + 1])))
    }

    /// Deterministic pseudo-random cardinalities keyed on the subset mask.
    fn pseudo_card(s: TableSet) -> f64 {
        let mut x = s.mask().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 33;
        (x % 1000) as f64 + 1.0
    }

    #[test]
    fn greedy_returns_valid_orders() {
        for n in 1..8 {
            let g = chain_graph(n);
            let (order, cost) = greedy_left_deep(&g, pseudo_card);
            assert!(g.validates(&order), "{order:?}");
            assert!((cost - cout(&order, pseudo_card)).abs() < 1e-9);
        }
    }

    #[test]
    fn small_queries_use_dp_large_use_greedy() {
        let cfg = PlannerConfig { dp_table_limit: 4 };
        let small = plan_join_order(&chain_graph(4), pseudo_card, &cfg);
        assert_eq!(small.method, PlanMethod::Dp);
        let large = plan_join_order(&chain_graph(5), pseudo_card, &cfg);
        assert_eq!(large.method, PlanMethod::Greedy);
        assert_eq!(large.order.len(), 5);
    }

    #[test]
    fn dp_cost_is_never_above_greedy_cost() {
        for n in 2..9 {
            let g = chain_graph(n);
            let (_, dp_cost) = best_left_deep(&g, pseudo_card);
            let (_, greedy_cost) = greedy_left_deep(&g, pseudo_card);
            assert!(
                dp_cost <= greedy_cost + 1e-9,
                "n={n}: dp {dp_cost} > greedy {greedy_cost}"
            );
        }
    }

    #[test]
    fn greedy_avoids_cartesian_products_when_connected() {
        // Star: 0 joined to everything else. A greedy order must start
        // anywhere but always stay connected.
        let g = JoinGraph::new(5, (1..5).map(|i| TableSet::from_iter([0, i])));
        let (order, _) = greedy_left_deep(&g, pseudo_card);
        assert!(g.validates(&order), "{order:?}");
    }
}
