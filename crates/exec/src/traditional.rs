//! The traditional DBMS query path: statistics → DP optimizer → execution.
//!
//! This is the "Postgres" / "MonetDB" / "Optimizer" baseline of the paper's
//! experiments, and the engine Skinner-G/H drive with forced join orders
//! (via `forced_order`, our analogue of optimizer hints).

use std::time::Instant;

use skinner_optimizer::{plan_query, PlannerConfig};
use skinner_query::JoinQuery;

use crate::budget::WorkBudget;
use crate::context::ExecContext;
use crate::engine::{execute_join, ExecProfile};
use crate::outcome::{ExecMetrics, ExecOutcome};
use crate::postprocess::postprocess;
use crate::preprocess::preprocess;
use crate::tuples::TupleBuf;

/// Configuration of a traditional run.
#[derive(Debug, Clone)]
pub struct TraditionalConfig {
    pub profile: ExecProfile,
    /// Bypass the optimizer with an externally chosen join order — the
    /// paper's replay experiments (Tables 3/4) and Skinner-G's forced orders.
    pub forced_order: Option<Vec<usize>>,
    /// Threads for the pre-processing scan.
    pub preprocess_threads: usize,
}

impl Default for TraditionalConfig {
    fn default() -> Self {
        TraditionalConfig {
            profile: ExecProfile::row_store(),
            forced_order: None,
            preprocess_threads: 1,
        }
    }
}

/// Run `query` the traditional way, within what remains of the context's
/// budget; a timeout loses everything. The engine is a blocking black box,
/// so cancellation is checked between pipeline stages rather than per tuple.
pub fn run_traditional(
    query: &JoinQuery,
    ctx: &ExecContext,
    cfg: &TraditionalConfig,
) -> ExecOutcome {
    let start = Instant::now();
    let budget = WorkBudget::with_limit(ctx.budget().remaining());
    let columns: Vec<String> = query.select.iter().map(|s| s.name().to_string()).collect();

    // Plan first: the optimizer only looks at statistics, not data, so it is
    // charged no work units (planning overhead is negligible at our scales).
    let (order, plan_cost_est) = match &cfg.forced_order {
        Some(o) => (o.clone(), None),
        None => {
            let plan = plan_query(query, ctx.stats(), &PlannerConfig::default());
            (plan.order, Some(plan.cost_est))
        }
    };

    let metrics = |order: Vec<usize>, budget: &WorkBudget, pages: (u64, u64)| {
        let m = ExecMetrics {
            order,
            intermediate_tuples: budget.tuples_produced(),
            pages_read: pages.0,
            pages_skipped: pages.1,
            ..ExecMetrics::default()
        };
        match plan_cost_est {
            Some(c) => m.with_counter("plan_cost_est", c.round() as u64),
            None => m,
        }
    };
    let timed_out_outcome =
        |order: Vec<usize>, budget: &WorkBudget, start: Instant, pages: (u64, u64)| {
            ctx.absorb_work(budget.used());
            ExecOutcome::timeout(columns.clone(), budget.used(), start.elapsed())
                .with_metrics(metrics(order, budget, pages))
        };

    if ctx.interrupted() {
        return timed_out_outcome(order, &budget, start, (0, 0));
    }
    let pre = match preprocess(query, &budget, cfg.preprocess_threads) {
        Ok(p) => p,
        Err(_) => return timed_out_outcome(order, &budget, start, (0, 0)),
    };
    let pages = (pre.pages_read, pre.pages_skipped);

    if ctx.interrupted() {
        return timed_out_outcome(order, &budget, start, pages);
    }
    let tuples = if query.always_false {
        TupleBuf::new(query.num_tables())
    } else {
        let floors = vec![0; query.num_tables()];
        let n0 = pre.tables[order[0]].cardinality();
        match execute_join(
            &pre.tables,
            query,
            &order,
            0..n0,
            &floors,
            &cfg.profile,
            &budget,
            false,
        ) {
            Ok(out) => out.into_tuples(),
            Err(_) => return timed_out_outcome(order, &budget, start, pages),
        }
    };

    if ctx.interrupted() {
        return timed_out_outcome(order, &budget, start, pages);
    }
    let result = match postprocess(&pre.tables, query, tuples.view(), &budget) {
        Ok(r) => r,
        Err(_) => return timed_out_outcome(order, &budget, start, pages),
    };
    tuples.release();

    ctx.absorb_work(budget.used());
    ExecOutcome::completed(result, budget.used(), start.elapsed())
        .with_metrics(metrics(order, &budget, pages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::run_reference;
    use skinner_query::{bind_select, parser::parse_statement, UdfRegistry};
    use skinner_stats::StatsCache;
    use skinner_storage::{schema, Catalog, Value};

    fn ctx() -> ExecContext {
        ExecContext::new().with_stats(std::sync::Arc::new(StatsCache::new()))
    }

    fn setup() -> Catalog {
        let cat = Catalog::new();
        let mut a = cat.builder("a", schema![("id", Int), ("g", Int)]);
        for i in 0..40 {
            a.push_row(&[Value::Int(i), Value::Int(i % 5)]);
        }
        cat.register(a.finish());
        let mut b = cat.builder("b", schema![("aid", Int), ("w", Int)]);
        for i in 0..60 {
            b.push_row(&[Value::Int(i % 40), Value::Int(i % 9)]);
        }
        cat.register(b.finish());
        let mut c = cat.builder("c", schema![("bw", Int)]);
        for i in 0..9 {
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
    fn matches_reference_executor() {
        let cat = setup();
        for sql in [
            "SELECT a.id, b.w FROM a, b WHERE a.id = b.aid AND a.g = 2",
            "SELECT a.g, COUNT(*) cnt FROM a, b, c \
             WHERE a.id = b.aid AND b.w = c.bw GROUP BY a.g ORDER BY a.g",
            "SELECT a.id FROM a WHERE a.id BETWEEN 5 AND 9",
        ] {
            let q = bind(sql, &cat);
            let out = run_traditional(&q, &ctx(), &TraditionalConfig::default());
            assert!(!out.timed_out);
            let expected = run_reference(&q);
            assert_eq!(
                out.result.canonical_rows(),
                expected.canonical_rows(),
                "{sql}"
            );
        }
    }

    #[test]
    fn forced_order_is_respected_and_equivalent() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw",
            &cat,
        );
        let ctx = ctx();
        let default = run_traditional(&q, &ctx, &TraditionalConfig::default());
        let forced = run_traditional(
            &q,
            &ctx,
            &TraditionalConfig {
                forced_order: Some(vec![2, 1, 0]),
                ..Default::default()
            },
        );
        assert_eq!(forced.metrics.order, vec![2, 1, 0]);
        assert_eq!(
            default.result.canonical_rows(),
            forced.result.canonical_rows()
        );
    }

    #[test]
    fn work_limit_times_out() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat);
        let out = run_traditional(&q, &ctx().with_work_limit(5), &TraditionalConfig::default());
        assert!(out.timed_out);
        assert_eq!(out.result.num_rows(), 0);
    }

    #[test]
    fn always_false_short_circuit() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a WHERE 1 = 2", &cat);
        let out = run_traditional(&q, &ctx(), &TraditionalConfig::default());
        assert!(!out.timed_out);
        assert_eq!(out.result.num_rows(), 0);
    }

    #[test]
    fn single_table_query() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a WHERE a.g = 0 ORDER BY a.id", &cat);
        let out = run_traditional(&q, &ctx(), &TraditionalConfig::default());
        assert_eq!(out.result.num_rows(), 8);
        assert_eq!(out.metrics.order, vec![0]);
    }
}
