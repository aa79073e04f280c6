//! Selinger-style dynamic programming over left-deep join orders.

use std::collections::HashMap;

use skinner_query::{JoinGraph, JoinQuery, TableSet};
use skinner_stats::{Estimator, StatsCache};

/// Best left-deep join order under an arbitrary cardinality function,
/// excluding avoidable Cartesian products. Returns the order and its `C_out`
/// cost. `card` is consulted once per (reachable) table subset of size ≥ 2
/// and may be expensive (e.g. exact counting), so results are cached here.
pub fn best_left_deep(graph: &JoinGraph, card: impl FnMut(TableSet) -> f64) -> (Vec<usize>, f64) {
    let m = graph.num_tables();
    assert!(m >= 1, "empty query");
    if m == 1 {
        return (vec![0], 0.0);
    }
    let (order, cost) = best_left_deep_from(graph, TableSet::EMPTY, card);
    (order, cost)
}

/// Best left-deep *completion*: cheapest order of the tables not yet in
/// `start`, given that `start` is already joined. With an empty `start`
/// this is ordinary left-deep optimization. Used by the re-optimizer
/// baseline, which re-plans the remaining tables after each materialized
/// join. Returns only the appended tables, in order.
pub fn best_left_deep_from(
    graph: &JoinGraph,
    start: TableSet,
    mut card: impl FnMut(TableSet) -> f64,
) -> (Vec<usize>, f64) {
    let m = graph.num_tables();
    let full = TableSet::first_n(m);
    assert!(start.is_subset_of(&full));
    let remaining = m - start.len();
    if remaining == 0 {
        return (Vec::new(), 0.0);
    }
    // DP state: subset → (cost so far, last table chosen).
    let mut best: HashMap<u64, (f64, usize)> = HashMap::new();
    let mut card_cache: HashMap<u64, f64> = HashMap::new();
    let mut frontier: Vec<TableSet> = Vec::new();
    if start.is_empty() {
        for t in 0..m {
            best.insert(TableSet::singleton(t).mask(), (0.0, t));
            frontier.push(TableSet::singleton(t));
        }
    } else {
        best.insert(start.mask(), (0.0, usize::MAX));
        frontier.push(start);
    }
    let steps = if start.is_empty() {
        remaining - 1
    } else {
        remaining
    };
    for _ in 0..steps {
        let mut next_frontier: Vec<TableSet> = Vec::new();
        for &set in &frontier {
            let (base_cost, _) = best[&set.mask()];
            for t in graph.eligible_next(set).iter() {
                let bigger = set.with(t);
                let c = *card_cache
                    .entry(bigger.mask())
                    .or_insert_with(|| card(bigger));
                let cost = base_cost + c;
                match best.get(&bigger.mask()) {
                    Some(&(old, _)) if old <= cost => {}
                    _ => {
                        if !best.contains_key(&bigger.mask()) {
                            next_frontier.push(bigger);
                        }
                        best.insert(bigger.mask(), (cost, t));
                    }
                }
            }
        }
        frontier = next_frontier;
    }
    // Reconstruct by walking back from the full set to `start`.
    let (total, _) = best[&full.mask()];
    let mut order = Vec::with_capacity(remaining);
    let mut set = full;
    while set != start {
        let (_, last) = best[&set.mask()];
        order.push(last);
        set.remove(last);
    }
    order.reverse();
    (order, total)
}

/// The traditional optimizer: best left-deep order under *estimated*
/// cardinalities (independence assumptions, default UDF selectivities).
pub fn best_left_deep_estimated(query: &JoinQuery, cache: &StatsCache) -> (Vec<usize>, f64) {
    let graph = query.join_graph();
    let est = Estimator::new(query, cache);
    best_left_deep(&graph, |s| est.join_cardinality(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_query::{bind_select, parser::parse_statement, UdfRegistry};
    use skinner_storage::{schema, Catalog, Value};

    fn chain_graph(n: usize) -> JoinGraph {
        JoinGraph::new(n, (0..n - 1).map(|i| TableSet::from_iter([i, i + 1])))
    }

    #[test]
    fn picks_cheap_side_first() {
        // Chain 0–1–2. Joining {1,2} is tiny, {0,1} is huge.
        let card = |s: TableSet| -> f64 {
            if s.len() == 3 {
                10.0
            } else if s.contains(0) && s.contains(1) {
                10_000.0
            } else {
                5.0
            }
        };
        let (order, cost) = best_left_deep(&chain_graph(3), card);
        // Optimal: start with the 1–2 edge.
        assert_eq!(cost, 15.0);
        assert!(order[..2] == [1, 2] || order[..2] == [2, 1], "{order:?}");
    }

    #[test]
    fn single_and_two_tables() {
        let g1 = JoinGraph::new(1, []);
        assert_eq!(best_left_deep(&g1, |_| 0.0).0, vec![0]);
        let g2 = chain_graph(2);
        let (o, c) = best_left_deep(&g2, |_| 42.0);
        assert_eq!(c, 42.0);
        assert_eq!(o.len(), 2);
    }

    #[test]
    fn respects_cartesian_avoidance() {
        // 0–1 connected; 2 isolated. The order must join 0,1 first.
        let g = JoinGraph::new(3, [TableSet::from_iter([0, 1])]);
        let (order, _) = best_left_deep(&g, |s| s.len() as f64);
        assert!(g.validates(&order), "{order:?}");
        assert_eq!(order[2], 2);
    }

    #[test]
    fn agrees_with_exhaustive_enumeration() {
        use skinner_optimizer_test_util::pseudo_card;
        let g = chain_graph(5);
        let (dp_order, dp_cost) = best_left_deep(&g, pseudo_card);
        // Exhaustive check over all valid orders.
        let mut best = f64::INFINITY;
        for o in g.all_orders() {
            let c = crate::cost::cout(&o, pseudo_card);
            best = best.min(c);
        }
        assert!((dp_cost - best).abs() < 1e-9, "dp {dp_cost} vs {best}");
        assert!((crate::cost::cout(&dp_order, pseudo_card) - dp_cost).abs() < 1e-9);
    }

    /// Deterministic pseudo-random cardinalities keyed on the subset mask.
    mod skinner_optimizer_test_util {
        use skinner_query::TableSet;

        pub fn pseudo_card(s: TableSet) -> f64 {
            let mut x = s.mask().wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 33;
            (x % 1000) as f64 + 1.0
        }
    }

    #[test]
    fn completion_from_prefix_respects_start_set() {
        let g = chain_graph(4);
        // Already joined {1, 2}; only 0 and 3 remain, both connected.
        let start = TableSet::from_iter([1, 2]);
        let card = |s: TableSet| {
            if s.contains(0) && !s.contains(3) {
                100.0 // adding 0 first is expensive
            } else {
                1.0
            }
        };
        let (rest, cost) = best_left_deep_from(&g, start, card);
        assert_eq!(rest, vec![3, 0]);
        assert_eq!(cost, 2.0);
        // Empty completion when everything is already joined.
        let (rest, cost) = best_left_deep_from(&g, TableSet::first_n(4), |_| 0.0);
        assert!(rest.is_empty());
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn estimated_optimizer_prefers_selective_table_first() {
        let cat = Catalog::new();
        // big (10k rows), small (10 rows), mid (1k rows); chain small–mid–big.
        let mut small = cat.builder("small", schema![("id", Int)]);
        for i in 0..10 {
            small.push_row(&[Value::Int(i)]);
        }
        cat.register(small.finish());
        let mut mid = cat.builder("mid", schema![("sid", Int), ("bid", Int)]);
        for i in 0..1000 {
            mid.push_row(&[Value::Int(i % 10), Value::Int(i)]);
        }
        cat.register(mid.finish());
        let mut big = cat.builder("big", schema![("mid_id", Int)]);
        for i in 0..10_000 {
            big.push_row(&[Value::Int(i % 1000)]);
        }
        cat.register(big.finish());
        let udfs = UdfRegistry::new();
        let q = match parse_statement(
            "SELECT small.id FROM small, mid, big \
             WHERE small.id = mid.sid AND mid.bid = big.mid_id",
        )
        .unwrap()
        {
            skinner_query::ast::Statement::Select(s) => bind_select(&s, &cat, &udfs).unwrap(),
            _ => unreachable!(),
        };
        let cache = StatsCache::new();
        let (order, _) = best_left_deep_estimated(&q, &cache);
        // Left-deep from the small end of the chain.
        assert_eq!(order, vec![0, 1, 2]);
    }
}
