//! Skinner-H: the hybrid strategy (paper Section 4.4, Figure 4).
//!
//! Alternates between (a) executing the traditional optimizer's plan with a
//! doubling timeout `2^i` and (b) running Skinner-G's learning loop for the
//! same amount of time, preserving UCT state across rounds. Whichever side
//! finishes first delivers the result. This bounds regret both against the
//! optimum (Theorem 5.7) and against pure traditional execution — at most
//! 4/5 additional time (Theorem 5.8).

use std::time::Instant;

use skinner_exec::{run_traditional, ExecContext, ExecMetrics, ExecOutcome, TraditionalConfig};
use skinner_optimizer::{plan_query, PlannerConfig};
use skinner_query::JoinQuery;

use crate::config::SkinnerHConfig;
use crate::skinner_g::SkinnerG;

/// Metric value when the traditional side delivered the result.
pub const WINNER_TRADITIONAL: &str = "traditional";
/// Metric value when the learned (Skinner-G) side delivered the result.
pub const WINNER_LEARNED: &str = "learned";

/// Evaluate `query` with Skinner-H. The outcome's metrics report the
/// `winner` side, the join order of that side, the learner's `slices` and
/// `uct_nodes` (whichever side won), a `rounds` counter and the planner's
/// `plan_cost_est`.
pub fn run_skinner_h(query: &JoinQuery, ctx: &ExecContext, cfg: &SkinnerHConfig) -> ExecOutcome {
    let start = Instant::now();
    let work_limit = ctx.budget().remaining();
    // The optimizer only reads statistics and is charged no work units, so
    // plan once and replay that order in every round.
    let plan = plan_query(query, ctx.stats(), &PlannerConfig::default());
    let plan_cost_est = plan.cost_est.round() as u64;
    let metrics = |winner, rounds: u32, order, (slices, uct_nodes)| {
        ExecMetrics {
            winner,
            order,
            slices,
            uct_nodes,
            ..ExecMetrics::default()
        }
        .with_counter("rounds", rounds as u64)
        .with_counter("plan_cost_est", plan_cost_est)
    };
    let traditional = TraditionalConfig {
        profile: cfg.learner.engine_profile,
        forced_order: Some(plan.order),
        preprocess_threads: cfg.learner.preprocess_threads,
    };
    let mut learner = SkinnerG::new(query, ctx, cfg.learner.clone());
    let mut traditional_work = 0u64;
    let mut rounds = 0u32;

    // No round runs if the learner finished during setup (an empty
    // filtered table).
    while !learner.is_finished() && rounds < cfg.max_doublings {
        let timeout_units = cfg
            .learner
            .base_timeout_units
            .saturating_mul(1u64 << rounds.min(62));
        rounds += 1;

        // (a) Traditional plan under a child budget of the round's timeout,
        // capped by what remains of the statement's; the round's work
        // settles into the statement's budget. Both halves share `ctx`'s
        // cancellation token.
        let round = ctx
            .clone()
            .with_work_limit(timeout_units.min(ctx.budget().remaining()));
        let trad = run_traditional(query, &round, &traditional);
        ctx.absorb_work(trad.work_units);
        traditional_work += trad.work_units;
        if !trad.timed_out {
            ctx.absorb_work(learner.work_units());
            let order = trad.metrics.order;
            return ExecOutcome {
                result: trad.result,
                work_units: traditional_work + learner.work_units(),
                wall: start.elapsed(),
                timed_out: false,
                metrics: metrics(Some(WINNER_TRADITIONAL), rounds, order, learner.progress()),
            };
        }

        // (b) Learned plans for the same amount of time.
        if !learner.run_units(timeout_units)
            && (ctx.interrupted() || traditional_work + learner.work_units() > work_limit)
        {
            break;
        }
    }

    let progress = learner.progress();
    if learner.is_finished() {
        // into_outcome() includes the post-processing work it charges to
        // the shared budget, so report that total, not a snapshot.
        let out = learner.into_outcome();
        return ExecOutcome {
            result: out.result,
            work_units: traditional_work + out.work_units,
            wall: start.elapsed(),
            timed_out: out.timed_out,
            metrics: metrics(Some(WINNER_LEARNED), rounds, out.metrics.order, progress),
        };
    }
    let columns: Vec<String> = query.select.iter().map(|s| s.name().to_string()).collect();
    let learner_work = learner.work_units();
    ctx.absorb_work(learner_work);
    ExecOutcome::timeout(columns, traditional_work + learner_work, start.elapsed())
        .with_metrics(metrics(None, rounds, Vec::new(), progress))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SkinnerGConfig;
    use skinner_exec::reference::run_reference;
    use skinner_query::{bind_select, parser::parse_statement, UdfRegistry};
    use skinner_storage::{schema, Catalog, Value};

    fn setup() -> (Catalog, UdfRegistry) {
        let cat = Catalog::new();
        let mut a = cat.builder("a", schema![("id", Int), ("g", Int)]);
        for i in 0..60 {
            a.push_row(&[Value::Int(i), Value::Int(i % 6)]);
        }
        cat.register(a.finish());
        let mut b = cat.builder("b", schema![("aid", Int), ("w", Int)]);
        for i in 0..90 {
            b.push_row(&[Value::Int(i % 60), Value::Int(i % 12)]);
        }
        cat.register(b.finish());
        let udfs = UdfRegistry::new();
        // A UDF the optimizer cannot see through; always true here.
        udfs.register("opaque_true", |_| Value::from(true));
        (cat, udfs)
    }

    fn bind(sql: &str, cat: &Catalog, udfs: &UdfRegistry) -> JoinQuery {
        match parse_statement(sql).unwrap() {
            skinner_query::ast::Statement::Select(s) => bind_select(&s, cat, udfs).unwrap(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn traditional_side_wins_easy_queries() {
        let (cat, udfs) = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat, &udfs);
        let out = run_skinner_h(&q, &ExecContext::default(), &SkinnerHConfig::default());
        assert!(!out.timed_out);
        assert_eq!(out.metrics.winner, Some(WINNER_TRADITIONAL));
        assert!(out.metrics.counter("rounds").unwrap() >= 1);
        let expected = run_reference(&q);
        assert_eq!(out.result.canonical_rows(), expected.canonical_rows());
    }

    #[test]
    fn learned_side_can_win_with_tiny_traditional_budget() {
        let (cat, udfs) = setup();
        let q = bind(
            "SELECT a.id FROM a, b WHERE a.id = b.aid AND opaque_true(a.g, b.w)",
            &cat,
            &udfs,
        );
        // Base timeout so small the traditional side cannot finish early,
        // while the learner accumulates progress across rounds.
        let cfg = SkinnerHConfig {
            learner: SkinnerGConfig {
                base_timeout_units: 300,
                batches: 10,
                ..Default::default()
            },
            max_doublings: 30,
        };
        let out = run_skinner_h(&q, &ExecContext::default(), &cfg);
        assert!(!out.timed_out);
        let expected = run_reference(&q);
        assert_eq!(out.result.canonical_rows(), expected.canonical_rows());
        assert!(out.metrics.counter("rounds").unwrap() >= 1);
    }

    #[test]
    fn global_limit_reports_timeout() {
        let (cat, udfs) = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat, &udfs);
        let cfg = SkinnerHConfig {
            learner: SkinnerGConfig {
                base_timeout_units: 50,
                ..Default::default()
            },
            max_doublings: 3,
        };
        let out = run_skinner_h(&q, &ExecContext::default().with_work_limit(200), &cfg);
        // Either some side finished within 3 rounds, or we report timeout.
        if out.timed_out {
            assert_eq!(out.metrics.winner, None);
        }
    }

    #[test]
    fn empty_result_query() {
        let (cat, udfs) = setup();
        let q = bind(
            "SELECT a.id FROM a, b WHERE a.id = b.aid AND a.id > 999",
            &cat,
            &udfs,
        );
        let out = run_skinner_h(&q, &ExecContext::default(), &SkinnerHConfig::default());
        assert_eq!(out.result.num_rows(), 0);
        assert!(!out.timed_out);
    }

    #[test]
    fn respects_work_limit() {
        let (cat, udfs) = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat, &udfs);
        let cfg = SkinnerHConfig {
            learner: SkinnerGConfig {
                base_timeout_units: 50,
                ..Default::default()
            },
            ..Default::default()
        };
        let out = run_skinner_h(&q, &ExecContext::default().with_work_limit(300), &cfg);
        assert!(out.timed_out);
        assert_eq!(out.metrics.winner, None);
        assert_eq!(out.result.num_rows(), 0);
        assert!(
            out.work_units < 4 * 300,
            "ran far past the limit: {}",
            out.work_units
        );
    }

    #[test]
    fn session_budget_settles_to_actual_work() {
        use skinner_exec::WorkBudget;
        use std::sync::Arc;
        let (cat, udfs) = setup();
        // A UDF-only cross product: with 20 batches the learner delivers
        // first, with one batch the traditional plan does.
        let q = bind(
            "SELECT a.id FROM a, b WHERE opaque_true(a.g, b.w)",
            &cat,
            &udfs,
        );
        let mut winners = Vec::new();
        for batches in [20, 1] {
            let budget = Arc::new(WorkBudget::unlimited());
            let ctx = ExecContext::default().with_budget(budget.clone());
            let cfg = SkinnerHConfig {
                learner: SkinnerGConfig {
                    batches,
                    ..Default::default()
                },
                ..Default::default()
            };
            let out = run_skinner_h(&q, &ctx, &cfg);
            assert!(!out.timed_out);
            // Both sides settle with the session budget: what it saw is
            // exactly what the hybrid reports.
            assert_eq!(budget.used(), out.work_units);
            winners.extend(out.metrics.winner);
        }
        assert_eq!(winners, vec![WINNER_LEARNED, WINNER_TRADITIONAL]);
    }

    /// Whichever side wins, and on a timeout, the outcome carries the
    /// learner's slices and tree nodes, not zeros.
    #[test]
    fn reports_the_learners_slices_and_nodes() {
        let (cat, udfs) = setup();
        let q = bind(
            "SELECT a.id FROM a, b WHERE opaque_true(a.g, b.w)",
            &cat,
            &udfs,
        );
        let run = |batches, ctx: &ExecContext| {
            let cfg = SkinnerHConfig {
                learner: SkinnerGConfig {
                    batches,
                    ..Default::default()
                },
                ..Default::default()
            };
            let m = run_skinner_h(&q, ctx, &cfg).metrics;
            (m.winner, m.slices, m.uct_nodes)
        };
        let unlimited = ExecContext::default();
        assert_eq!(run(20, &unlimited), (Some(WINNER_LEARNED), 39, 20));
        let (winner, slices, nodes) = run(1, &unlimited);
        assert_eq!(winner, Some(WINNER_TRADITIONAL));
        assert!(slices > 0 && nodes > 0, "{slices} slices, {nodes} nodes");
        let (winner, slices, nodes) = run(20, &ExecContext::default().with_work_limit(3_000));
        assert_eq!(winner, None);
        assert!(slices > 0 && nodes > 0, "{slices} slices, {nodes} nodes");
    }
}
