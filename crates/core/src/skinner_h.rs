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
/// `winner` side, the join order of that side, a `rounds` counter and the
/// planner's `plan_cost_est`.
pub fn run_skinner_h(query: &JoinQuery, ctx: &ExecContext, cfg: &SkinnerHConfig) -> ExecOutcome {
    let start = Instant::now();
    let work_limit = ctx.effective_limit(cfg.learner.work_limit);
    // The optimizer only reads statistics and is charged no work units, so
    // plan once and replay that order in every round.
    let plan = plan_query(query, ctx.stats(), &PlannerConfig::default());
    let plan_cost_est = plan.cost_est.round() as u64;
    let metrics = |winner: Option<&'static str>, rounds: u32, order: Vec<usize>| {
        ExecMetrics {
            winner,
            order,
            ..ExecMetrics::default()
        }
        .with_counter("rounds", rounds as u64)
        .with_counter("plan_cost_est", plan_cost_est)
    };
    let mut traditional = TraditionalConfig {
        profile: cfg.learner.engine_profile,
        forced_order: Some(plan.order),
        preprocess_threads: cfg.learner.preprocess_threads,
        ..Default::default()
    };
    let mut learner = SkinnerG::new(query, ctx, cfg.learner.clone());
    let mut traditional_work = 0u64;
    let mut rounds = 0u32;

    // The learner may finish during setup (empty filtered table).
    if learner.is_finished() {
        let out = learner.into_outcome();
        return ExecOutcome {
            result: out.result,
            work_units: out.work_units,
            wall: start.elapsed(),
            timed_out: out.timed_out,
            metrics: metrics(Some(WINNER_LEARNED), rounds, out.metrics.order),
        };
    }

    for i in 0..cfg.max_doublings {
        rounds = i + 1;
        let timeout_units = cfg
            .learner
            .base_timeout_units
            .saturating_mul(1u64 << i.min(62));

        // (a) Traditional plan with the current timeout. Both halves share
        // `ctx`, so the session budget and cancellation token apply to each.
        traditional.work_limit = timeout_units;
        let trad = run_traditional(query, ctx, &traditional);
        traditional_work += trad.work_units;
        if !trad.timed_out {
            ctx.absorb_work(learner.work_units());
            return ExecOutcome {
                result: trad.result,
                work_units: traditional_work + learner.work_units(),
                wall: start.elapsed(),
                timed_out: false,
                metrics: metrics(Some(WINNER_TRADITIONAL), rounds, trad.metrics.order),
            };
        }

        // (b) Learned plans for the same amount of time.
        if learner.run_units(timeout_units) {
            // into_outcome() includes the post-processing work it charges
            // to the shared budget, so report that total, not a snapshot.
            let out = learner.into_outcome();
            return ExecOutcome {
                result: out.result,
                work_units: traditional_work + out.work_units,
                wall: start.elapsed(),
                timed_out: out.timed_out,
                metrics: metrics(Some(WINNER_LEARNED), rounds, out.metrics.order),
            };
        }

        if ctx.interrupted() || traditional_work + learner.work_units() > work_limit {
            break;
        }
    }

    let columns: Vec<String> = query.select.iter().map(|s| s.name().to_string()).collect();
    let learner_work = learner.work_units();
    ctx.absorb_work(learner_work);
    ExecOutcome::timeout(columns, traditional_work + learner_work, start.elapsed())
        .with_metrics(metrics(None, rounds, Vec::new()))
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
                work_limit: 200,
                base_timeout_units: 50,
                ..Default::default()
            },
            max_doublings: 3,
        };
        let out = run_skinner_h(&q, &ExecContext::default(), &cfg);
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
                work_limit: 300,
                base_timeout_units: 50,
                ..Default::default()
            },
            ..Default::default()
        };
        let out = run_skinner_h(&q, &ExecContext::default(), &cfg);
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
}
