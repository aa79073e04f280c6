//! The Skinner-C main loop (paper Algorithm 3).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skinner_exec::{
    postprocess, ExecContext, ExecMetrics, ExecOutcome, QueryResult, SpanTimer, WorkBudget,
};
use skinner_query::{JoinGraph, JoinQuery, TableSet};
use skinner_storage::RowId;
use skinner_uct::UctConfig;

use crate::config::SkinnerCConfig;

use super::join::{all_joined, continue_join, JoinCursors, MultiwayCtx, OrderInfo, SliceOutcome};
use super::ledger::EpisodeLedger;
use super::preproc::prepare;
use super::result_set::ResultSet;
use super::reward::slice_reward;
use super::state::{JoinState, ProgressTracker};

/// Evaluate `query` with Skinner-C. The outcome's [`ExecMetrics`] carry the
/// instrumentation feeding the paper's convergence and memory experiments
/// (Figures 7 and 8): `order` is the most-visited join order at
/// termination (replayed in Tables 3/4).
pub fn run_skinner_c(query: &JoinQuery, ctx: &ExecContext, cfg: &SkinnerCConfig) -> ExecOutcome {
    let source = if cfg.learning {
        OrderSource::Learned
    } else {
        OrderSource::Random(StdRng::seed_from_u64(cfg.seed ^ 0xD1CE))
    };
    run_episodes(query, ctx, cfg, source)
}

/// Run the Skinner-C multi-way join engine with one *fixed* join order —
/// no learning, no switching. This is the "Skinner engine / forced order"
/// configuration replayed in the paper's Tables 3 and 4 (executing final
/// Skinner orders and C_out-optimal orders inside each engine): the same
/// episode loop as [`run_skinner_c`], fed one order every slice.
pub fn run_skinner_c_fixed(
    query: &JoinQuery,
    ctx: &ExecContext,
    order: &[usize],
    cfg: &SkinnerCConfig,
) -> ExecOutcome {
    assert_eq!(
        order.len(),
        query.num_tables(),
        "order must cover all tables"
    );
    run_episodes(query, ctx, cfg, OrderSource::Fixed(order))
}

/// Where each slice's join order comes from.
enum OrderSource<'o> {
    /// The tree's choice, rewarded by the slice's progress (Algorithm 3).
    Learned,
    /// A uniformly random valid order: the `learning: false` ablation.
    Random(StdRng),
    /// One order for every slice: the replay of Tables 3/4.
    Fixed(&'o [usize]),
}

/// The Skinner-C episode loop (Algorithm 3): per time slice, take a join
/// order from `source`, restore its state, run the multi-way join for
/// `slice_steps` steps, back the state up and advance the offsets.
fn run_episodes(
    query: &JoinQuery,
    ctx: &ExecContext,
    cfg: &SkinnerCConfig,
    mut source: OrderSource<'_>,
) -> ExecOutcome {
    let start = Instant::now();
    let budget = WorkBudget::with_limit(ctx.effective_limit(cfg.work_limit));
    let columns: Vec<String> = query.select.iter().map(|s| s.name().to_string()).collect();
    let m = query.num_tables();

    let trace = ctx.trace();
    let pre_timer = SpanTimer::start(trace, "preprocess");
    let prepared = match prepare(query, &budget, cfg.preprocess_threads, cfg.use_jump_indexes) {
        Ok(p) => p,
        Err(_) => {
            let order = match source {
                OrderSource::Fixed(order) => order.to_vec(),
                _ => (0..m).collect(),
            };
            ctx.absorb_work(budget.used());
            return ExecOutcome::timeout(columns, budget.used(), start.elapsed()).with_metrics(
                ExecMetrics {
                    order,
                    ..ExecMetrics::default()
                },
            );
        }
    };
    pre_timer.finish_labeled(prepared.pages_skipped, || prepared.span_label());
    let mctx: &MultiwayCtx = &prepared.ctx;
    let cards: Vec<RowId> = mctx.tables.iter().map(|t| t.cardinality()).collect();

    let learns = matches!(source, OrderSource::Learned);
    let uct = UctConfig {
        exploration_weight: cfg.exploration_weight,
        seed: cfg.seed,
    };
    let mut ledger = EpisodeLedger::new(query, ctx, uct, learns);
    let mut tracker = ProgressTracker::new(m, cfg.share_progress);
    let mut results = ResultSet::new();
    let mut offsets: Vec<RowId> = vec![0; m];
    // Scratch states reused by every slice.
    let mut state = JoinState::fresh(&offsets);
    let mut before = JoinState::fresh(&offsets);
    let mut cursors = JoinCursors::default();
    let mut timed_out = false;

    if !query.always_false {
        while !all_joined(&offsets, &cards) {
            // Cooperative cancellation/deadline: checked once per slice, the
            // engine's natural preemption point.
            if ctx.interrupted() {
                timed_out = true;
                break;
            }
            let order = match &mut source {
                OrderSource::Learned => ledger.tree.choose(),
                OrderSource::Random(rng) => random_order(ledger.tree.graph(), rng),
                OrderSource::Fixed(order) => order.to_vec(),
            };
            let info = ledger.enter(&order, || {
                OrderInfo::build(query, mctx, &order, cfg.use_jump_indexes)
            });
            tracker.restore_into(&order, &offsets, &mut state);
            before.copy_from(&state);
            let outcome = match continue_join(
                info,
                &mut state,
                &mut cursors,
                &offsets,
                cfg.slice_steps,
                &budget,
                &mut results,
            ) {
                Ok(o) => o,
                Err(_) => {
                    timed_out = true;
                    break;
                }
            };
            let finished = outcome == SliceOutcome::Finished;
            if learns {
                let r = slice_reward(cfg.reward, &order, &before, &state, &cards, finished);
                ledger.tree.update(&order, r);
            }
            tracker.backup(&order, &state);
            // Left-most cursor advances the global offset: those tuples are
            // now joined with everything.
            let t0 = order[0];
            offsets[t0] = offsets[t0].max(state.s[t0]);
            if finished {
                offsets[t0] = offsets[t0].max(cards[t0]);
            }
            ledger.record();
        }
    }
    ledger.finish();

    let result_tuples = results.len() as u64;
    let result_set_bytes = results.byte_size();

    let post_timer = SpanTimer::start(trace, "postprocess");
    let result = if timed_out {
        QueryResult::empty(columns)
    } else {
        match postprocess(&mctx.tables, query, results.seal().view(), &budget) {
            Ok(r) => r,
            Err(_) => {
                timed_out = true;
                QueryResult::empty(columns)
            }
        }
    };
    post_timer.finish(result_tuples);

    let shared = ledger.into_metrics(timed_out, &prepared);
    let mut metrics = ExecMetrics {
        result_tuples,
        tracker_nodes: tracker.num_trie_nodes(),
        result_set_bytes,
        total_aux_bytes: shared.total_aux_bytes + tracker.byte_size() + result_set_bytes,
        ..shared
    };
    // A replay reports the order it ran, not the untouched tree's.
    if let OrderSource::Fixed(order) = source {
        metrics.order = order.to_vec();
    }
    ctx.absorb_work(budget.used());
    ExecOutcome {
        result,
        work_units: budget.used(),
        wall: start.elapsed(),
        timed_out,
        metrics,
    }
}

/// Uniformly random valid join order (learning ablation).
pub(crate) fn random_order(graph: &JoinGraph, rng: &mut StdRng) -> Vec<usize> {
    let m = graph.num_tables();
    let mut order = Vec::with_capacity(m);
    let mut selected = TableSet::EMPTY;
    while order.len() < m {
        let eligible: Vec<usize> = graph.eligible_next(selected).iter().collect();
        let t = eligible[rng.gen_range(0..eligible.len())];
        order.push(t);
        selected.insert(t);
    }
    order
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
        for i in 0..60 {
            a.push_row(&[Value::Int(i), Value::Int(i % 6)]);
        }
        cat.register(a.finish());
        let mut b = cat.builder("b", schema![("aid", Int), ("w", Int)]);
        for i in 0..90 {
            b.push_row(&[Value::Int(i % 60), Value::Int(i % 12)]);
        }
        cat.register(b.finish());
        let mut c = cat.builder("c", schema![("bw", Int)]);
        for i in 0..12 {
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
    fn matches_reference_on_various_queries() {
        let cat = setup();
        for sql in [
            "SELECT a.id, b.w FROM a, b WHERE a.id = b.aid",
            "SELECT a.g, COUNT(*) cnt FROM a, b, c \
             WHERE a.id = b.aid AND b.w = c.bw GROUP BY a.g ORDER BY a.g",
            "SELECT a.id FROM a WHERE a.g = 3 ORDER BY a.id LIMIT 4",
            "SELECT a.id FROM a, c WHERE a.id + c.bw = 20",
        ] {
            let q = bind(sql, &cat);
            let out = run_skinner_c(&q, &ExecContext::default(), &SkinnerCConfig::default());
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
    fn tiny_slices_still_complete() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw",
            &cat,
        );
        let cfg = SkinnerCConfig {
            slice_steps: 7,
            ..Default::default()
        };
        let out = run_skinner_c(&q, &ExecContext::default(), &cfg);
        assert!(!out.timed_out);
        assert!(out.metrics.slices > 10);
        let expected = run_reference(&q);
        assert_eq!(out.result.canonical_rows(), expected.canonical_rows());
    }

    /// A one-step slice only descends or backtracks once, so it never moves
    /// a row past its offset; the tracker must still resume from it.
    #[test]
    fn one_step_slices_complete() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw",
            &cat,
        );
        let expected = run_reference(&q).canonical_rows();
        for jumps in [true, false] {
            let cfg = SkinnerCConfig {
                slice_steps: 1,
                use_jump_indexes: jumps,
                work_limit: 10_000_000,
                ..Default::default()
            };
            let out = run_skinner_c(&q, &ExecContext::default(), &cfg);
            assert!(!out.timed_out, "jumps={jumps}");
            assert_eq!(out.result.canonical_rows(), expected, "jumps={jumps}");
        }
    }

    #[test]
    fn all_feature_toggle_combinations_agree() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw AND a.g = 1",
            &cat,
        );
        let expected = run_reference(&q).canonical_rows();
        for jumps in [true, false] {
            for learning in [true, false] {
                for sharing in [true, false] {
                    let cfg = SkinnerCConfig {
                        use_jump_indexes: jumps,
                        learning,
                        share_progress: sharing,
                        slice_steps: 64,
                        ..Default::default()
                    };
                    let out = run_skinner_c(&q, &ExecContext::default(), &cfg);
                    assert_eq!(
                        out.result.canonical_rows(),
                        expected,
                        "jumps={jumps} learning={learning} sharing={sharing}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_table_query_works() {
        let cat = setup();
        let q = bind(
            "SELECT a.g, COUNT(*) c FROM a GROUP BY a.g ORDER BY a.g",
            &cat,
        );
        let out = run_skinner_c(&q, &ExecContext::default(), &SkinnerCConfig::default());
        assert_eq!(out.result.num_rows(), 6);
        assert_eq!(out.result.rows[0][1], Value::Int(10));
    }

    #[test]
    fn always_false_query_is_empty() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a WHERE 1 = 2", &cat);
        let out = run_skinner_c(&q, &ExecContext::default(), &SkinnerCConfig::default());
        assert_eq!(out.result.num_rows(), 0);
        assert!(!out.timed_out);
    }

    #[test]
    fn work_limit_times_out() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat);
        let cfg = SkinnerCConfig {
            work_limit: 50,
            ..Default::default()
        };
        let out = run_skinner_c(&q, &ExecContext::default(), &cfg);
        assert!(out.timed_out);
    }

    #[test]
    fn cancellation_token_interrupts_cleanly() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat);
        let cancel = skinner_exec::CancelToken::new();
        cancel.cancel();
        let ctx = ExecContext::default().with_cancel(cancel);
        let out = run_skinner_c(&q, &ctx, &SkinnerCConfig::default());
        assert!(out.timed_out);
        assert_eq!(out.result.num_rows(), 0);
    }

    #[test]
    fn instrumentation_is_populated() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw",
            &cat,
        );
        let cfg = SkinnerCConfig {
            slice_steps: 16,
            ..Default::default()
        };
        let out = run_skinner_c(&q, &ExecContext::default(), &cfg);
        let m = &out.metrics;
        assert!(m.uct_nodes >= 1);
        assert!(m.tracker_nodes >= 1);
        assert!(!m.tree_growth.is_empty());
        assert!(!m.order_slice_counts.is_empty());
        assert_eq!(m.order.len(), 3);
        let total: u64 = m.order_slice_counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total, m.slices);
    }

    #[test]
    fn fixed_order_matches_learned_run() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw",
            &cat,
        );
        let learned = run_skinner_c(&q, &ExecContext::default(), &SkinnerCConfig::default());
        for order in [[0, 1, 2], [2, 1, 0], [1, 0, 2]] {
            let fixed = run_skinner_c_fixed(
                &q,
                &ExecContext::default(),
                &order,
                &SkinnerCConfig::default(),
            );
            assert!(!fixed.timed_out);
            assert_eq!(
                fixed.result.canonical_rows(),
                learned.result.canonical_rows(),
                "{order:?}"
            );
            // The replay runs the learned run's loop and reports like it.
            assert_eq!(fixed.metrics.order, order);
            assert_eq!(
                fixed.metrics.order_slice_counts,
                vec![(order.to_vec(), fixed.metrics.slices)]
            );
            assert!(fixed.metrics.tracker_nodes >= 1);
        }
    }

    #[test]
    fn empty_filtered_table_terminates_immediately() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b WHERE a.id = b.aid AND a.id > 1000",
            &cat,
        );
        let out = run_skinner_c(&q, &ExecContext::default(), &SkinnerCConfig::default());
        assert_eq!(out.result.num_rows(), 0);
        assert_eq!(out.metrics.slices, 0);
    }
}
