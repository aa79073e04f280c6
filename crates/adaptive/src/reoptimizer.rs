//! Sampling-based re-optimization (Wu et al., SIGMOD 2016).
//!
//! The baseline the paper's appendix compares against: before execution,
//! predicate selectivities are *measured on samples* instead of estimated
//! from statistics; during execution, each join is materialized one step at
//! a time, the observed intermediate cardinality is fed back into the
//! estimator, and the remaining join order is re-optimized after every
//! step. The paper notes this repairs a few wrong estimates well but still
//! trusts the (possibly misled) planner between checkpoints — and cannot
//! undo a bad join it already materialized.

use std::time::Instant;

use skinner_exec::{
    join_step, postprocess, preprocess, ExecContext, ExecMetrics, ExecOutcome, ExecProfile,
    ExecutionStrategy, TupleBuf, WorkBudget,
};
use skinner_optimizer::dp::best_left_deep_from;
use skinner_query::{JoinQuery, TableSet};
use skinner_stats::{sample_selectivity, Estimator};
use skinner_storage::RowId;

/// Re-optimizer configuration.
#[derive(Debug, Clone)]
pub struct ReoptimizerConfig {
    /// Rows sampled per table for initial selectivity measurement.
    pub sample_size: usize,
    pub seed: u64,
    pub profile: ExecProfile,
}

impl Default for ReoptimizerConfig {
    fn default() -> Self {
        ReoptimizerConfig {
            sample_size: 500,
            seed: 0x5A3B1E,
            profile: ExecProfile::row_store(),
        }
    }
}

/// The re-optimizer as a pluggable [`ExecutionStrategy`].
#[derive(Debug, Clone, Default)]
pub struct ReoptimizerStrategy(pub ReoptimizerConfig);

impl ExecutionStrategy for ReoptimizerStrategy {
    fn name(&self) -> &str {
        "Re-optimizer"
    }

    fn execute(&self, query: &JoinQuery, ctx: &ExecContext) -> ExecOutcome {
        run_reoptimizer(query, ctx, &self.0)
    }
}

fn reopt_metrics(order: Vec<usize>, replans: u32) -> ExecMetrics {
    ExecMetrics {
        order,
        ..ExecMetrics::default()
    }
    .with_counter("replans", replans as u64)
}

/// Evaluate `query` with sampling-based re-optimization. The outcome's
/// metrics report the executed `order` and a `replans` counter.
pub fn run_reoptimizer(
    query: &JoinQuery,
    ctx: &ExecContext,
    cfg: &ReoptimizerConfig,
) -> ExecOutcome {
    let start = Instant::now();
    let budget = WorkBudget::with_limit(ctx.budget().remaining());
    let columns: Vec<String> = query.select.iter().map(|s| s.name().to_string()).collect();
    let bail = |budget: &WorkBudget, replans: u32, order: Vec<usize>, start: Instant| {
        ctx.absorb_work(budget.used());
        ExecOutcome::timeout(columns.clone(), budget.used(), start.elapsed())
            .with_metrics(reopt_metrics(order, replans))
    };

    let m = query.num_tables();
    let graph = query.join_graph();
    let mut est = Estimator::new(query, ctx.stats());

    // Sampling pass: measure unary selectivities on samples (charged as one
    // unit per sampled predicate evaluation, like any predicate).
    for t in 0..m {
        if query.unary[t].is_empty() {
            continue;
        }
        let k = cfg.sample_size.min(query.tables[t].num_rows().max(1));
        if budget.charge((k * query.unary[t].len()) as u64).is_err() {
            return bail(&budget, 0, Vec::new(), start);
        }
        let sel = sample_selectivity(&query.tables, t, &query.unary[t], k, cfg.seed ^ (t as u64));
        est.calibrate_filtered(t, sel * query.tables[t].num_rows() as f64);
    }

    let pre = match preprocess(query, &budget, 1) {
        Ok(p) => p,
        Err(_) => return bail(&budget, 0, Vec::new(), start),
    };
    // Exact filtered cardinalities are now known — calibrate.
    for t in 0..m {
        est.calibrate_filtered(t, pre.tables[t].num_rows() as f64);
    }

    let mut executed: Vec<usize> = Vec::new();
    let mut prefix = TableSet::EMPTY;
    let mut current = TupleBuf::new(m);
    let mut replans = 0u32;
    let mut planned_rest: Vec<usize> = Vec::new();
    let floors: Vec<RowId> = vec![0; m];

    if !query.always_false {
        while executed.len() < m {
            // Cooperative cancellation/deadline, once per join step.
            if ctx.interrupted() {
                return bail(&budget, replans, executed, start);
            }
            let (rest, _) = best_left_deep_from(&graph, prefix, |s| est.join_cardinality(s));
            if !planned_rest.is_empty() && rest != planned_rest[1..] {
                replans += 1;
            }
            let next = rest[0];
            planned_rest = rest;
            if executed.is_empty() {
                // Initial scan of the first table.
                let n = pre.tables[next].cardinality();
                if budget.charge(n as u64).is_err() {
                    return bail(&budget, replans, executed, start);
                }
                let mut tuple = vec![0 as RowId; m];
                for row in 0..n {
                    tuple[next] = row;
                    current.push(&tuple);
                }
            } else {
                match join_step(
                    &pre.tables,
                    query,
                    current.view(),
                    prefix,
                    next,
                    &floors,
                    &cfg.profile,
                    &budget,
                ) {
                    Ok(v) => std::mem::replace(&mut current, v).release(),
                    Err(_) => return bail(&budget, replans, executed, start),
                }
            }
            executed.push(next);
            prefix.insert(next);
            // Feedback: the observed cardinality overrides the estimate for
            // this subset in all future planning. The next step re-plans
            // unconditionally; `replans` counts the plans that changed.
            est.calibrate_set(prefix, current.len() as f64);
            if current.is_empty() {
                break; // empty intermediate: result is empty
            }
        }
    }

    // Short of a complete order, `current` is empty: an empty intermediate
    // ended the loop, or the query is always false.
    let result = match postprocess(&pre.tables, query, current.view(), &budget) {
        Ok(r) => r,
        Err(_) => return bail(&budget, replans, executed, start),
    };
    current.release();
    ctx.absorb_work(budget.used());
    ExecOutcome::completed(result, budget.used(), start.elapsed())
        .with_metrics(reopt_metrics(executed, replans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_exec::reference::run_reference;
    use skinner_query::{bind_select, parser::parse_statement, UdfRegistry};
    use skinner_storage::{schema, Catalog, Value};

    fn setup() -> Catalog {
        let cat = Catalog::new();
        let mut a = cat.builder("a", schema![("id", Int), ("g", Int)]);
        for i in 0..50 {
            a.push_row(&[Value::Int(i), Value::Int(i % 5)]);
        }
        cat.register(a.finish());
        let mut b = cat.builder("b", schema![("aid", Int), ("w", Int)]);
        for i in 0..80 {
            b.push_row(&[Value::Int(i % 50), Value::Int(i % 10)]);
        }
        cat.register(b.finish());
        let mut c = cat.builder("c", schema![("bw", Int)]);
        for i in 0..10 {
            c.push_row(&[Value::Int(i)]);
        }
        cat.register(c.finish());
        cat
    }

    fn bind(sql: &str, cat: &Catalog) -> JoinQuery {
        let udfs = UdfRegistry::new();
        match parse_statement(sql).unwrap() {
            skinner_query::ast::Statement::Select(s) => bind_select(&s, cat, &udfs).unwrap(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn matches_reference() {
        let cat = setup();
        for sql in [
            "SELECT a.id FROM a, b WHERE a.id = b.aid AND a.g = 2",
            "SELECT a.g, COUNT(*) cnt FROM a, b, c \
             WHERE a.id = b.aid AND b.w = c.bw GROUP BY a.g ORDER BY a.g",
            "SELECT a.id FROM a WHERE a.g = 0",
        ] {
            let q = bind(sql, &cat);
            let out = run_reoptimizer(&q, &ExecContext::default(), &ReoptimizerConfig::default());
            assert!(!out.timed_out, "{sql}");
            let expected = run_reference(&q);
            assert_eq!(
                out.result.canonical_rows(),
                expected.canonical_rows(),
                "{sql}"
            );
        }
    }

    #[test]
    fn empty_intermediate_short_circuits() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b WHERE a.id = b.aid AND a.id > 900",
            &cat,
        );
        let out = run_reoptimizer(&q, &ExecContext::default(), &ReoptimizerConfig::default());
        assert_eq!(out.result.num_rows(), 0);
        assert!(!out.timed_out);
    }

    #[test]
    fn executes_a_complete_order() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw",
            &cat,
        );
        let out = run_reoptimizer(&q, &ExecContext::default(), &ReoptimizerConfig::default());
        assert_eq!(out.metrics.order.len(), 3);
        let mut sorted = out.metrics.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn work_limit_trips() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat);
        let ctx = ExecContext::default().with_work_limit(10);
        let out = run_reoptimizer(&q, &ctx, &ReoptimizerConfig::default());
        assert!(out.timed_out);
    }
}
