//! `parallel_skinner`: multi-threaded Skinner-C learning through one tree.
//!
//! The paper's multi-threaded SkinnerC configuration (Section 6.1)
//! parallelizes over *data*: every episode executes one join order, the
//! episode's batch of left-most-table tuples is split across N worker
//! threads, and all workers learn through one UCT tree. This module is that
//! design on top of the Skinner-C machinery:
//!
//! * the coordinator owns the query's only [`UctTree`](skinner_uct::UctTree),
//!   inside the episode ledger sequential Skinner-C keeps too (the
//!   learning-cache warm start and publish, one shared [`OrderInfo`] per
//!   distinct order, the switch counters, growth samples and episode
//!   spans): it chooses a join order, cuts the next `batch_tuples` rows of
//!   the order's left-most table into contiguous chunks
//!   ([`skinner_exec::partition_tuples`]), and
//!   runs them on the process-wide pool ([`scatter_gather`]) — the last
//!   chunk, and any chunk no parked helper has started, on its own thread,
//!   so it joins instead of waiting at the episode's barrier, and a
//!   statement starts no thread of its own;
//! * each chunk runs the bounded multi-way join ([`continue_join_ranged`])
//!   to completion, polling the shared [`CancelToken`] every `slice_steps`
//!   steps and charging a *reserved* slice of the shared work budget (so
//!   concurrent workers cannot overspend it), appending its result tuples
//!   to its own [`TupleBuf`], and reports the order's reward for it;
//! * the coordinator applies the reports in chunk order — the chunk's
//!   tuples appended with one copy, one tree update per reported chunk —
//!   so the tree has a single writer and a run's work units, join orders
//!   and row order do not depend on which worker finished first;
//! * completed batches advance the global per-table offsets exactly like
//!   sequential Skinner-C, so every tuple range is joined exactly once and
//!   the result is identical to any other strategy's;
//! * pre-processing (filters, jump-index builds) runs at the same
//!   `threads` on the same pool;
//! * grouping/ordering post-processing runs through
//!   [`skinner_exec::postprocess_parallel`]: pool tasks range over
//!   sub-ranges of the collected tuples (no per-tuple copy) for partial
//!   aggregation / local sorting with a coordinator merge, so the tail of
//!   the query no longer serializes on the coordinator thread.
//!
//! Nothing deduplicates: every result tuple comes from exactly one
//! completed batch. A chunk is one uninterrupted depth-first join (its
//! state carries across slices and is never restored), so it enumerates
//! each of its tuples once, and the chunks of an episode split the
//! left-most rows. A completed batch moves its left-most table's offset
//! past its rows and every later level starts at `max(row, offset)`, so no
//! later batch meets its tuples again. And every result tuple is found:
//! the first completed batch that moves some table's offset past the
//! tuple's row in that table joins it, because no offset had passed any of
//! its rows before.
//!
//! Episodes that blow past the adaptive per-episode work cap are
//! *abandoned* (Skinner-G's destructive-timeout discipline): their partial
//! result tuples are dropped — the batch is retried, and by the argument
//! above a later completed batch produces each of them — the order earns
//! reward 0, the cap doubles, and the tree picks again. So a catastrophic
//! join order costs a bounded amount before learning routes around it, and
//! caps eventually grow large enough for the best order to finish a batch.
//!
//! With one thread the strategy runs sequential Skinner-C's joins over
//! whole batches: same offsets discipline, same result rows, same ledger.
//! What differs from the sequential loop is exactly the learning path:
//! one reward per chunk of a batch instead of one per time slice, and the
//! chunked dispatch.
//!
//! Instrumentation: the outcome's [`ExecMetrics`] counters include
//! `chunks` and `worker_slices`, which the coordinator counts itself as it
//! applies the reports (one chunk per report, plus the slices the report
//! ran), and `postprocess_us` (wall time of the post-processing phase,
//! reported separately so the `thread_scaling` benchmark can show the
//! parallel-postprocessing win on its own).

use std::sync::Arc;
use std::time::Instant;

use skinner_exec::{
    partition_tuples, scatter_gather, CancelToken, ExecContext, ExecMetrics, ExecOutcome,
    ExecutionStrategy, QueryResult, SpanTimer, TupleBuf, TupleRange, WorkBudget,
};
use skinner_query::JoinQuery;
use skinner_storage::RowId;
use skinner_uct::UctConfig;

use crate::skinner_c::join::{
    all_joined, continue_join_ranged, JoinCursors, OrderInfo, SliceOutcome,
};
use crate::skinner_c::ledger::EpisodeLedger;
use crate::skinner_c::preproc::prepare;
use crate::skinner_c::state::JoinState;

/// Configuration of the parallel learned strategy.
#[derive(Debug, Clone)]
pub struct ParallelSkinnerConfig {
    /// Left-most-table tuples per episode, split across the workers.
    pub batch_tuples: u64,
    /// Minimum left-most tuples per worker chunk: small batches use fewer
    /// workers rather than paying dispatch overhead for micro-chunks.
    pub min_chunk_tuples: u64,
    /// Steps between cancellation polls inside each worker (the same
    /// granularity as sequential Skinner-C's time slice).
    pub slice_steps: u64,
    /// UCT exploration weight `w` for the query's tree.
    pub exploration_weight: f64,
    /// Seed for the tree's generator.
    pub seed: u64,
    /// Use hash indexes to jump over non-matching tuples.
    pub use_jump_indexes: bool,
}

impl Default for ParallelSkinnerConfig {
    fn default() -> Self {
        ParallelSkinnerConfig {
            batch_tuples: 1024,
            min_chunk_tuples: 32,
            slice_steps: 500,
            exploration_weight: 1e-6,
            seed: 0x5EED,
            use_jump_indexes: true,
        }
    }
}

/// One worker's share of an episode: join its chunk of the left-most table
/// under the episode's order, bounded by a reserved work cap.
struct EpisodeTask {
    info: Arc<OrderInfo>,
    offsets: Arc<Vec<RowId>>,
    range: TupleRange,
    /// Work units this worker may spend (already reserved from the shared
    /// budget; unspent remainder is refunded by the coordinator).
    cap: u64,
    slice_steps: u64,
    cancel: CancelToken,
    /// Reward normalization: expected work per left-most tuple of a good
    /// order.
    norm: f64,
}

struct WorkerReport {
    results: TupleBuf,
    used: u64,
    /// Ran out of its reserved cap before finishing the chunk.
    capped: bool,
    /// The order's reward for this chunk; `None` when the chunk saw the
    /// cancel token (a cut-short chunk teaches the tree nothing).
    reward: Option<f64>,
    /// Slices (cancellation polls) the chunk ran.
    slices: u64,
}

/// Join one chunk of the episode's batch to completion (or until the cap /
/// cancellation stops it) and report the order's reward for the chunk.
fn run_chunk(task: EpisodeTask) -> WorkerReport {
    let budget = WorkBudget::with_limit(task.cap);
    let order = &task.info.order;
    let t0 = order[0];
    let mut offsets = (*task.offsets).clone();
    offsets[t0] = task.range.start as RowId;
    let mut state = JoinState::fresh(&offsets);
    let mut cursors = JoinCursors::default();
    let mut results = TupleBuf::new(offsets.len());
    let mut slices = 0u64;
    let mut capped = false;
    let mut cancelled = false;
    loop {
        if task.cancel.is_cancelled() {
            cancelled = true;
            break;
        }
        slices += 1;
        match continue_join_ranged(
            &task.info,
            &mut state,
            &mut cursors,
            &offsets,
            task.slice_steps,
            &budget,
            &mut results,
            task.range.end as RowId,
        ) {
            Ok(SliceOutcome::Finished) => break,
            Ok(SliceOutcome::Budget) => {}
            Err(_) => {
                capped = true;
                break;
            }
        }
    }
    let used = budget.used();
    // Cheap orders finish their chunk with little work per tuple and earn
    // rewards near 1; abandoned chunks teach the tree to avoid the order.
    let reward = (!cancelled).then(|| {
        if capped {
            0.0
        } else {
            let per_tuple = used as f64 / task.range.len().max(1) as f64;
            1.0 / (1.0 + per_tuple / task.norm)
        }
    });
    WorkerReport {
        results,
        used,
        capped,
        reward,
        slices,
    }
}

/// Evaluate `query` with the parallel learned strategy.
pub fn run_parallel_skinner(
    query: &JoinQuery,
    ctx: &ExecContext,
    cfg: &ParallelSkinnerConfig,
) -> ExecOutcome {
    let start = Instant::now();
    let budget = WorkBudget::with_limit(ctx.budget().remaining());
    let columns: Vec<String> = query.select.iter().map(|s| s.name().to_string()).collect();
    let m = query.num_tables();
    let threads = ctx.threads();

    let trace = ctx.trace();
    let pre_timer = SpanTimer::start(trace, "preprocess");
    let prepared = match prepare(query, &budget, threads, cfg.use_jump_indexes) {
        Ok(p) => p,
        Err(_) => {
            ctx.absorb_work(budget.used());
            return ExecOutcome::timeout(columns, budget.used(), start.elapsed()).with_metrics(
                ExecMetrics {
                    order: (0..m).collect(),
                    ..ExecMetrics::default()
                }
                .with_counter("threads", threads as u64),
            );
        }
    };
    pre_timer.finish_labeled(prepared.pages_skipped, || prepared.span_label());
    let mctx = &prepared.ctx;
    let cards: Vec<RowId> = mctx.tables.iter().map(|t| t.cardinality()).collect();

    // The coordinator owns the only tree: it chooses every order and
    // applies every chunk's reward, so workers never touch it. The ledger
    // keeps the bookkeeping sequential Skinner-C keeps too.
    let uct = UctConfig {
        exploration_weight: cfg.exploration_weight,
        seed: cfg.seed ^ 0x9A7A11E1,
    };
    let mut ledger = EpisodeLedger::new(query, ctx, uct, true);
    let mut offsets: Vec<RowId> = vec![0; m];
    let mut global_results = TupleBuf::new(m);
    let mut chunks = 0u64;
    let mut worker_slices = 0u64;
    let mut failed_episodes = 0u64;
    let mut timed_out = false;
    // Adaptive per-episode work cap, doubled whenever an episode is
    // abandoned (Skinner-G's escalating-timeout discipline) so a
    // catastrophic order costs a bounded amount and good orders eventually
    // get enough room to finish a batch.
    let mut episode_cap: u64 = (cfg.batch_tuples.saturating_mul(8)).max(cfg.slice_steps);
    let norm = 2.0 * m as f64;

    if !query.always_false {
        while !all_joined(&offsets, &cards) {
            if ctx.interrupted() {
                timed_out = true;
                break;
            }
            let order = ledger.tree.choose();
            let info = ledger
                .enter(&order, || {
                    OrderInfo::build(query, mctx, &order, cfg.use_jump_indexes)
                })
                .clone();
            let t0 = order[0];
            let lo = offsets[t0] as u64;
            let hi = (lo + cfg.batch_tuples).min(cards[t0] as u64);
            let max_parts = ((hi - lo) / cfg.min_chunk_tuples.max(1))
                .max(1)
                .min(threads as u64) as usize;
            let ranges = partition_tuples(lo, hi, max_parts);
            let nparts = ranges.len().max(1) as u64;
            // Reserve each worker's cap from the shared budget up front
            // (`try_consume` never overspends), so workers spend against
            // pre-granted quotas; after the episode the reservation is
            // released and the *actual* consumption recorded instead.
            let share = budget.remaining() / nparts;
            let cap = share.min(episode_cap);
            if cap == 0 || !budget.try_consume(cap * nparts) {
                timed_out = true;
                break;
            }
            let shared_offsets = Arc::new(offsets.clone());
            let tasks: Vec<_> = ranges
                .iter()
                .map(|&range| {
                    let task = EpisodeTask {
                        info: info.clone(),
                        offsets: shared_offsets.clone(),
                        range,
                        cap,
                        slice_steps: cfg.slice_steps,
                        cancel: ctx.cancel().clone(),
                        norm,
                    };
                    move || run_chunk(task)
                })
                .collect();
            // Reports come back in chunk order, so tuples append and
            // rewards apply the same way however the workers' finishes
            // interleave.
            let reports = scatter_gather(tasks);

            // Release the reservation, then record what was actually spent
            // (a worker may exceed its cap by its final charge's overage,
            // which `charge` records faithfully).
            budget.refund(cap * nparts);
            // An abandoned episode's tuples are dropped: its batch is
            // retried and yields them again (see the module docs).
            let any_capped = reports.iter().any(|r| r.capped);
            let mut any_cancelled = false;
            for report in reports {
                let _ = budget.charge(report.used);
                if !any_capped {
                    global_results.append(&report.results);
                }
                match report.reward {
                    Some(reward) => ledger.tree.update(&order, reward),
                    None => any_cancelled = true,
                }
                chunks += 1;
                worker_slices += report.slices;
            }
            ledger.record();
            if any_cancelled {
                timed_out = true;
                break;
            }
            if any_capped {
                if cap >= share {
                    // The cap was the global budget's share: out of budget.
                    timed_out = true;
                    break;
                }
                failed_episodes += 1;
                episode_cap = episode_cap.saturating_mul(2);
                continue; // offsets unchanged: the batch will be retried
            }
            offsets[t0] = hi as RowId;
        }
    }
    ledger.finish();

    let result_tuples = global_results.len() as u64;
    let result_set_bytes = global_results.byte_size();

    // Post-processing: partitioned across workers (partial aggregation /
    // local sort + coordinator merge) instead of serializing on this
    // thread; timed separately so benchmarks can report the phase alone.
    let pp_start = Instant::now();
    let post_timer = SpanTimer::start(trace, "postprocess");
    let result = if timed_out {
        QueryResult::empty(columns)
    } else {
        match skinner_exec::postprocess_parallel(
            &mctx.tables,
            query,
            global_results.view(),
            &budget,
            threads,
        ) {
            Ok(r) => r,
            Err(_) => {
                timed_out = true;
                QueryResult::empty(columns)
            }
        }
    };
    post_timer.finish(result_tuples);
    let postprocess_us = pp_start.elapsed().as_micros() as u64;

    let shared = ledger.into_metrics(timed_out, &prepared);
    let episodes = shared.slices;
    ctx.absorb_work(budget.used());
    ExecOutcome {
        result,
        work_units: budget.used(),
        wall: start.elapsed(),
        timed_out,
        metrics: ExecMetrics {
            result_tuples,
            result_set_bytes,
            total_aux_bytes: shared.total_aux_bytes + result_set_bytes,
            ..shared
        }
        .with_counter("threads", threads as u64)
        .with_counter("episodes", episodes)
        .with_counter("failed_episodes", failed_episodes)
        .with_counter("worker_slices", worker_slices)
        .with_counter("chunks", chunks)
        .with_counter("postprocess_us", postprocess_us),
    }
}

/// The parallel learned engine as a pluggable strategy.
#[derive(Debug, Clone, Default)]
pub struct ParallelSkinnerStrategy(pub ParallelSkinnerConfig);

impl ExecutionStrategy for ParallelSkinnerStrategy {
    fn name(&self) -> &str {
        "parallel_skinner"
    }

    fn execute(&self, query: &JoinQuery, ctx: &ExecContext) -> ExecOutcome {
        run_parallel_skinner(query, ctx, &self.0)
    }
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

    fn ctx(threads: usize) -> ExecContext {
        ExecContext::default().with_threads(threads)
    }

    fn cfg() -> ParallelSkinnerConfig {
        ParallelSkinnerConfig {
            batch_tuples: 16,    // small batches → many episodes, even on tiny data
            min_chunk_tuples: 2, // …still split across all the workers
            ..Default::default()
        }
    }

    #[test]
    fn matches_reference_at_every_thread_count() {
        let cat = setup();
        for sql in [
            "SELECT a.id, b.w FROM a, b WHERE a.id = b.aid",
            "SELECT a.g, COUNT(*) cnt FROM a, b, c \
             WHERE a.id = b.aid AND b.w = c.bw GROUP BY a.g ORDER BY a.g",
            "SELECT a.id FROM a WHERE a.g = 3 ORDER BY a.id LIMIT 4",
            "SELECT a.id FROM a, c WHERE a.id + c.bw = 20",
        ] {
            let q = bind(sql, &cat);
            let expected = run_reference(&q).canonical_rows();
            for threads in [1, 2, 4] {
                let out = run_parallel_skinner(&q, &ctx(threads), &cfg());
                assert!(!out.timed_out, "{sql} ({threads} threads)");
                assert_eq!(
                    out.result.canonical_rows(),
                    expected,
                    "{sql} ({threads} threads)"
                );
                assert_eq!(out.metrics.counter("threads"), Some(threads as u64));
            }
        }
    }

    /// A theta join has no jump index, so every order scans, and a 16-unit
    /// episode cap abandons the first episodes after some of their chunks
    /// produced tuples. Those tuples are dropped and must come back from the
    /// retried batches: exactly once each, or the multiset of rows differs.
    #[test]
    fn abandoned_episodes_drop_their_tuples_and_lose_none() {
        let cat = setup();
        let q = bind("SELECT a.g, c.bw FROM a, c WHERE a.g <= c.bw", &cat);
        let expected = run_reference(&q).canonical_rows();
        for threads in [1, 2, 4] {
            let c = ParallelSkinnerConfig {
                batch_tuples: 2,
                min_chunk_tuples: 1,
                slice_steps: 4, // episode cap: max(8 × 2, 4) = 16 units
                ..Default::default()
            };
            let runs: Vec<ExecOutcome> = (0..3)
                .map(|_| run_parallel_skinner(&q, &ctx(threads), &c))
                .collect();
            let first = &runs[0];
            assert!(!first.timed_out, "{threads} threads");
            assert!(
                first.metrics.counter("failed_episodes").unwrap() > 0,
                "{threads} threads: no episode was abandoned"
            );
            assert_eq!(first.result.canonical_rows(), expected, "{threads} threads");
            for rep in &runs[1..] {
                assert_eq!(rep.result.rows, first.result.rows, "{threads} threads");
                assert_eq!(rep.work_units, first.work_units, "{threads} threads");
                assert_eq!(rep.metrics.order, first.metrics.order, "{threads} threads");
            }
        }
    }

    #[test]
    fn multiple_episodes_learn_through_one_tree() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw",
            &cat,
        );
        let out = run_parallel_skinner(&q, &ctx(2), &cfg());
        assert!(!out.timed_out);
        assert!(out.metrics.slices > 1, "expected several episodes");
        // One choice per episode materializes at most one node.
        assert!(out.metrics.uct_nodes as u64 <= out.metrics.slices + 1);
        assert!(!out.metrics.order_slice_counts.is_empty());
        assert!(out.metrics.counter("chunks").unwrap() >= out.metrics.slices);
        assert_eq!(out.metrics.order.len(), 3);
        assert!(out.metrics.counter("postprocess_us").is_some());
        // Exact `(episodes, chunks, worker_slices)` per thread count: one
        // chunk per report, plus each report's slices. With 16-step slices
        // most chunks take several, so the two counts differ.
        for (threads, pinned) in [(1, (6, 6, 37)), (2, (8, 16, 43)), (4, (8, 32, 60))] {
            let c = ParallelSkinnerConfig {
                slice_steps: 16,
                ..cfg()
            };
            let m = run_parallel_skinner(&q, &ctx(threads), &c).metrics;
            let got = (
                m.slices,
                m.counter("chunks").unwrap(),
                m.counter("worker_slices").unwrap(),
            );
            assert_eq!(got, pinned, "{threads} threads");
        }
    }

    #[test]
    fn work_limit_times_out() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat);
        let out = run_parallel_skinner(&q, &ctx(2).with_work_limit(50), &cfg());
        assert!(out.timed_out);
        assert_eq!(out.result.num_rows(), 0);
    }

    #[test]
    fn pre_cancelled_token_stops_immediately() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat);
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = run_parallel_skinner(&q, &ctx(4).with_cancel(cancel), &cfg());
        assert!(out.timed_out);
        assert_eq!(out.result.num_rows(), 0);
    }

    #[test]
    fn always_false_and_empty_tables_finish_without_episodes() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a WHERE 1 = 2", &cat);
        let out = run_parallel_skinner(&q, &ctx(2), &cfg());
        assert!(!out.timed_out);
        assert_eq!(out.result.num_rows(), 0);
        assert_eq!(out.metrics.slices, 0);

        let q = bind(
            "SELECT a.id FROM a, b WHERE a.id = b.aid AND a.id > 1000",
            &cat,
        );
        let out = run_parallel_skinner(&q, &ctx(2), &cfg());
        assert_eq!(out.result.num_rows(), 0);
        assert_eq!(out.metrics.slices, 0);
    }

    #[test]
    fn single_table_query_works() {
        let cat = setup();
        let q = bind(
            "SELECT a.g, COUNT(*) c FROM a GROUP BY a.g ORDER BY a.g",
            &cat,
        );
        let out = run_parallel_skinner(&q, &ctx(3), &cfg());
        assert_eq!(out.result.num_rows(), 6);
        assert_eq!(out.result.rows[0][1], Value::Int(10));
    }
}
