//! Skinner-G: regret-bounded evaluation on a generic engine (Algorithm 1).
//!
//! The engine is a black box that executes a forced join order over one
//! batch of the left-most table (joined with the *remaining* rows of all
//! other tables) under a destructive timeout. Skinner-G:
//!
//! * splits every table into `b` batches; processed batches are removed from
//!   all future processing (the correctness invariant of Theorem 5.1),
//! * picks a timeout *level* per iteration via the pyramid scheme,
//!   balancing total time across levels within factor two (Lemma 5.5),
//! * keeps **one UCT tree per timeout level**, so failures at low timeouts
//!   do not pollute join-order statistics at higher ones,
//! * rewards 1 if the batch completed within the timeout, else 0.
//!
//! The struct is resumable (`run_units`) because Skinner-H interleaves it
//! with traditional-optimizer executions while preserving learning state.

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use skinner_exec::{
    execute_join, postprocess, preprocess, ExecContext, ExecMetrics, ExecOutcome, Preprocessed,
    QueryResult, TupleBuf, WorkBudget,
};
use skinner_query::{JoinGraph, JoinQuery};
use skinner_storage::RowId;
use skinner_uct::{UctConfig, UctTree};

use crate::config::SkinnerGConfig;
use crate::pyramid::PyramidScheme;
use crate::skinner_c::engine::random_order;

/// Resumable Skinner-G execution state. The final [`ExecOutcome`] reports
/// `slices`, the join order of the last completed batch, the node count of
/// all per-level trees and a `timeout_levels` counter in its metrics.
pub struct SkinnerG<'q> {
    query: &'q JoinQuery,
    ctx: ExecContext,
    cfg: SkinnerGConfig,
    /// What remained of the context's budget at setup.
    work_limit: u64,
    pre: Preprocessed,
    /// Per table: batch boundary rows (length `batches + 1`).
    bounds: Vec<Vec<RowId>>,
    /// `o_t`: number of batches of table `t` processed (and removed).
    batch_offset: Vec<usize>,
    /// One UCT tree per timeout level (Algorithm 1's `T_t`).
    trees: HashMap<usize, UctTree>,
    pyramid: PyramidScheme,
    graph: JoinGraph,
    /// Result tuples of completed batches.
    results: TupleBuf,
    /// Join order of the last completed batch.
    last_order: Vec<usize>,
    rng: StdRng,
    work: u64,
    slices: u64,
    finished: bool,
    failed: bool,
    started: Instant,
}

impl<'q> SkinnerG<'q> {
    /// Pre-process and set up. Returns a failed instance (immediately
    /// `timed_out`) if pre-processing alone blows the work limit.
    pub fn new(query: &'q JoinQuery, ctx: &ExecContext, cfg: SkinnerGConfig) -> Self {
        let started = Instant::now();
        let work_limit = ctx.budget().remaining();
        let budget = WorkBudget::with_limit(work_limit);
        let (pre, failed) = match preprocess(query, &budget, cfg.preprocess_threads) {
            Ok(p) => (p, false),
            Err(_) => (
                Preprocessed {
                    tables: query.tables.clone(),
                    base_rows: query.tables.iter().map(|t| t.num_rows()).collect(),
                    pages_read: 0,
                    pages_skipped: 0,
                },
                true,
            ),
        };
        let b = cfg.batches.max(1);
        let bounds: Vec<Vec<RowId>> = pre
            .tables
            .iter()
            .map(|t| {
                let n = t.num_rows();
                (0..=b).map(|i| (i * n / b) as RowId).collect()
            })
            .collect();
        // An empty (filtered) table means an empty join result.
        let finished =
            !failed && (query.always_false || pre.tables.iter().any(|t| t.num_rows() == 0));
        let graph = query.join_graph();
        SkinnerG {
            query,
            ctx: ctx.clone(),
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xBA7C4),
            work_limit,
            cfg,
            pre,
            bounds,
            batch_offset: vec![0; query.num_tables()],
            trees: HashMap::new(),
            pyramid: PyramidScheme::new(),
            graph,
            results: TupleBuf::new(query.num_tables()),
            last_order: Vec::new(),
            work: budget.used(),
            slices: 0,
            finished,
            failed,
            started,
        }
    }

    /// All batches of some table processed (complete result obtained)?
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Work units consumed so far.
    pub fn work_units(&self) -> u64 {
        self.work
    }

    /// Slices (batch invocations) run so far, and the node count of all
    /// per-level UCT trees.
    pub fn progress(&self) -> (u64, usize) {
        let nodes = self.trees.values().map(UctTree::num_nodes).sum();
        (self.slices, nodes)
    }

    /// Run one iteration of Algorithm 1's main loop.
    pub fn step(&mut self) {
        if self.finished || self.failed {
            return;
        }
        // Cooperative cancellation/deadline, once per slice.
        if self.ctx.interrupted() {
            self.failed = true;
            return;
        }
        let (level, timeout) = self.pyramid.next_timeout();
        let slice_limit = timeout.saturating_mul(self.cfg.base_timeout_units);
        let (w, seed) = (self.cfg.exploration_weight, self.cfg.seed);
        let graph = &self.graph;
        let tree = self.trees.entry(level).or_insert_with(|| {
            UctTree::new(
                graph.clone(),
                UctConfig {
                    exploration_weight: w,
                    seed: seed.wrapping_add(level as u64),
                },
            )
        });
        let order = if self.cfg.learning {
            tree.choose()
        } else {
            random_order(&self.graph, &mut self.rng)
        };
        let t0 = order[0];
        let b = self.cfg.batches.max(1);
        let batch = self.batch_offset[t0].min(b - 1);
        let range = self.bounds[t0][batch]..self.bounds[t0][batch + 1];
        let floors: Vec<RowId> = (0..self.query.num_tables())
            .map(|t| self.bounds[t][self.batch_offset[t].min(b)])
            .collect();
        let slice_budget = WorkBudget::with_limit(slice_limit);
        let res = execute_join(
            &self.pre.tables,
            self.query,
            &order,
            range,
            &floors,
            &self.cfg.engine_profile,
            &slice_budget,
            false,
        );
        self.work += slice_budget.used();
        self.slices += 1;
        let reward = match res {
            Ok(out) => {
                // Batch completed: merge results, remove the batch, reward 1.
                let batch = out.into_tuples();
                self.results.append(&batch);
                batch.release();
                self.batch_offset[t0] += 1;
                if self.batch_offset[t0] >= b {
                    self.finished = true;
                }
                self.last_order.clone_from(&order);
                1.0
            }
            Err(_) => 0.0, // destructive timeout: everything discarded
        };
        if self.cfg.learning {
            self.trees.get_mut(&level).unwrap().update(&order, reward);
        }
        if self.work > self.work_limit {
            self.failed = true;
        }
    }

    /// Run until roughly `units` additional work units are consumed, the
    /// query finishes, or the global limit trips. Returns `is_finished()`.
    pub fn run_units(&mut self, units: u64) -> bool {
        let target = self.work.saturating_add(units);
        while !self.finished && !self.failed && self.work < target {
            self.step();
        }
        self.finished
    }

    /// Run to completion and report.
    pub fn run_to_completion(mut self) -> ExecOutcome {
        while !self.finished && !self.failed {
            self.step();
        }
        self.into_outcome()
    }

    /// Post-process accumulated results into the final outcome.
    pub fn into_outcome(self) -> ExecOutcome {
        let columns: Vec<String> = self
            .query
            .select
            .iter()
            .map(|s| s.name().to_string())
            .collect();
        let budget = WorkBudget::unlimited();
        let (result, timed_out) = if self.failed {
            (QueryResult::empty(columns), true)
        } else {
            match postprocess(&self.pre.tables, self.query, self.results.view(), &budget) {
                Ok(r) => (r, false),
                Err(_) => (QueryResult::empty(columns), true),
            }
        };
        let work_units = self.work + budget.used();
        self.ctx.absorb_work(work_units);
        ExecOutcome {
            result,
            work_units,
            wall: self.started.elapsed(),
            timed_out,
            metrics: ExecMetrics {
                slices: self.slices,
                uct_nodes: self.progress().1,
                order: self.last_order,
                ..ExecMetrics::default()
            }
            .with_counter("timeout_levels", self.pyramid.num_levels() as u64),
        }
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

    #[test]
    fn completes_and_matches_reference() {
        let cat = setup();
        for sql in [
            "SELECT a.id, b.w FROM a, b WHERE a.id = b.aid",
            "SELECT a.g, COUNT(*) cnt FROM a, b, c \
             WHERE a.id = b.aid AND b.w = c.bw GROUP BY a.g ORDER BY a.g",
        ] {
            let q = bind(sql, &cat);
            let out = SkinnerG::new(&q, &ExecContext::default(), SkinnerGConfig::default())
                .run_to_completion();
            assert!(!out.timed_out, "{sql}");
            assert_eq!(out.metrics.order.len(), q.num_tables(), "{sql}");
            assert!(out.metrics.uct_nodes > 0, "{sql}");
            let expected = run_reference(&q);
            assert_eq!(
                out.result.canonical_rows(),
                expected.canonical_rows(),
                "{sql}"
            );
        }
    }

    #[test]
    fn no_duplicates_across_leftmost_tables() {
        let cat = setup();
        // Force many slices with tiny timeouts so different leftmost tables
        // interleave; the batch-removal invariant must prevent duplicates.
        let q = bind(
            "SELECT a.id, b.w, c.bw FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw",
            &cat,
        );
        let cfg = SkinnerGConfig {
            batches: 7,
            base_timeout_units: 150,
            ..Default::default()
        };
        let out = SkinnerG::new(&q, &ExecContext::default(), cfg).run_to_completion();
        assert!(!out.timed_out);
        let expected = run_reference(&q);
        assert_eq!(out.result.canonical_rows(), expected.canonical_rows());
    }

    #[test]
    fn resumable_in_unit_slices() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat);
        let mut g = SkinnerG::new(&q, &ExecContext::default(), SkinnerGConfig::default());
        let mut guard = 0;
        while !g.run_units(2_000) {
            guard += 1;
            assert!(guard < 10_000, "never finished");
        }
        let out = g.into_outcome();
        let expected = run_reference(&q);
        assert_eq!(out.result.canonical_rows(), expected.canonical_rows());
    }

    #[test]
    fn work_limit_fails_gracefully() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat);
        let ctx = ExecContext::default().with_work_limit(500);
        let out = SkinnerG::new(&q, &ctx, SkinnerGConfig::default()).run_to_completion();
        assert!(out.timed_out);
    }

    #[test]
    fn cancellation_fails_gracefully() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat);
        let cancel = skinner_exec::CancelToken::new();
        let ctx = ExecContext::default().with_cancel(cancel.clone());
        let mut g = SkinnerG::new(&q, &ctx, SkinnerGConfig::default());
        g.step();
        cancel.cancel();
        let out = g.run_to_completion();
        assert!(out.timed_out);
    }

    #[test]
    fn empty_filtered_table_finishes_instantly() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b WHERE a.id = b.aid AND a.id > 999",
            &cat,
        );
        let g = SkinnerG::new(&q, &ExecContext::default(), SkinnerGConfig::default());
        assert!(g.is_finished());
        let out = g.run_to_completion();
        assert_eq!(out.result.num_rows(), 0);
    }

    #[test]
    fn random_mode_also_correct() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat);
        let cfg = SkinnerGConfig {
            learning: false,
            ..Default::default()
        };
        let out = SkinnerG::new(&q, &ExecContext::default(), cfg).run_to_completion();
        let expected = run_reference(&q);
        assert_eq!(out.result.canonical_rows(), expected.canonical_rows());
    }
}
