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
use rand::{Rng, SeedableRng};

use skinner_exec::{
    execute_join, postprocess, preprocess, ExecContext, ExecMetrics, ExecOutcome, Preprocessed,
    QueryResult, TupleBuf, WorkBudget,
};
use skinner_query::{JoinGraph, JoinQuery, TableSet};
use skinner_storage::RowId;
use skinner_uct::{UctConfig, UctTree};

use crate::config::{OrderArmsConfig, SkinnerGConfig};
use crate::pyramid::PyramidScheme;

/// Resumable Skinner-G execution state. The final [`ExecOutcome`] reports
/// `slices` and a `timeout_levels` counter in its metrics.
pub struct SkinnerG<'q> {
    query: &'q JoinQuery,
    ctx: ExecContext,
    cfg: SkinnerGConfig,
    /// Effective global work limit (config capped by the context budget).
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
        let work_limit = ctx.effective_limit(cfg.work_limit);
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
                self.results.extend_boxed(out.into_tuples());
                self.batch_offset[t0] += 1;
                if self.batch_offset[t0] >= b {
                    self.finished = true;
                }
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
                ..ExecMetrics::default()
            }
            .with_counter("timeout_levels", self.pyramid.num_levels() as u64),
        }
    }
}

/// The `skinner_g` strategy's episode loop: whole join orders as UCT arms.
///
/// Where [`SkinnerG`] follows Algorithm 1 verbatim (pyramid timeout levels,
/// one tree per level), `OrderArms` keeps a **single** UCT tree whose arms
/// are complete join orders and replaces the pyramid with the adaptive cap
/// `parallel_skinner` prototypes: every episode executes one batch of its
/// order's left-most table under the current work-budget cap, and each
/// episode abandoned at the full cap doubles it. Abandoned attempts earn
/// reward 0 and completed batches reward 1, so the loop — and therefore the
/// result — is deterministic for a fixed seed regardless of thread count.
///
/// With [`OrderArmsConfig::forced_order`] set the tree is bypassed and every
/// episode executes the given order; `skinner_h` uses that mode to run the
/// traditional optimizer's plan resumably, batch by batch, in its
/// alternating slices.
pub struct OrderArms<'q> {
    query: &'q JoinQuery,
    ctx: ExecContext,
    cfg: OrderArmsConfig,
    /// Effective global work limit (config capped by the context budget).
    work_limit: u64,
    pre: Preprocessed,
    bounds: Vec<Vec<RowId>>,
    batch_offset: Vec<usize>,
    /// Single whole-order tree (`None` in forced/random modes).
    tree: Option<UctTree>,
    graph: JoinGraph,
    /// Result tuples of completed batches.
    results: TupleBuf,
    rng: StdRng,
    /// Current per-episode cap; doubles on full-cap abandonment.
    cap: u64,
    work: u64,
    episodes: u64,
    completed: u64,
    abandoned: u64,
    finished: bool,
    failed: bool,
    started: Instant,
}

impl<'q> OrderArms<'q> {
    /// Pre-process and set up. Returns a failed instance (immediately
    /// `timed_out`) if pre-processing alone blows the work limit.
    pub fn new(query: &'q JoinQuery, ctx: &ExecContext, cfg: OrderArmsConfig) -> Self {
        let started = Instant::now();
        let work_limit = ctx.effective_limit(cfg.work_limit);
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
        let finished =
            !failed && (query.always_false || pre.tables.iter().any(|t| t.num_rows() == 0));
        let graph = query.join_graph();
        let tree = (cfg.forced_order.is_none() && cfg.learning).then(|| {
            UctTree::new(
                graph.clone(),
                UctConfig {
                    exploration_weight: cfg.exploration_weight,
                    seed: cfg.seed,
                },
            )
        });
        OrderArms {
            query,
            ctx: ctx.clone(),
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x0A_A5),
            work_limit,
            cap: cfg.base_cap_units.max(1),
            cfg,
            pre,
            bounds,
            batch_offset: vec![0; query.num_tables()],
            tree,
            graph,
            results: TupleBuf::new(query.num_tables()),
            work: budget.used(),
            episodes: 0,
            completed: 0,
            abandoned: 0,
            finished,
            failed,
            started,
        }
    }

    /// All batches of some table processed (complete result obtained)?
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Hit the work limit or an interrupt (result will be `timed_out`)?
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Work units consumed so far.
    pub fn work_units(&self) -> u64 {
        self.work
    }

    /// Episodes run so far (completed + abandoned).
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    /// Batches completed (episodes rewarded 1).
    pub fn completed_batches(&self) -> u64 {
        self.completed
    }

    /// Run one episode under `min(adaptive cap, grant)` work units. The cap
    /// only doubles when the episode was abandoned at the *full* adaptive
    /// cap — a grant-truncated abandonment is the caller's slice boundary,
    /// not evidence the cap is too small.
    fn step_capped(&mut self, grant: u64) {
        if self.finished || self.failed {
            return;
        }
        if self.ctx.interrupted() {
            self.failed = true;
            return;
        }
        let cap = self.cap.min(grant).max(1);
        let order = match (&self.cfg.forced_order, self.cfg.learning) {
            (Some(o), _) => o.clone(),
            (None, true) => self.tree.as_mut().expect("tree in learning mode").choose(),
            (None, false) => random_order(&self.graph, &mut self.rng),
        };
        let t0 = order[0];
        let b = self.cfg.batches.max(1);
        let batch = self.batch_offset[t0].min(b - 1);
        let range = self.bounds[t0][batch]..self.bounds[t0][batch + 1];
        let floors: Vec<RowId> = (0..self.query.num_tables())
            .map(|t| self.bounds[t][self.batch_offset[t].min(b)])
            .collect();
        let slice_budget = WorkBudget::with_limit(cap);
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
        self.episodes += 1;
        let reward = match res {
            Ok(out) => {
                self.results.extend_boxed(out.into_tuples());
                self.batch_offset[t0] += 1;
                self.completed += 1;
                if self.batch_offset[t0] >= b {
                    self.finished = true;
                }
                1.0
            }
            Err(_) => {
                // Destructive timeout: everything discarded, reward 0.
                self.abandoned += 1;
                if cap >= self.cap {
                    self.cap = self.cap.saturating_mul(2);
                }
                0.0
            }
        };
        if let Some(tree) = self.tree.as_mut() {
            tree.update(&order, reward);
        }
        if self.work > self.work_limit {
            self.failed = true;
        }
    }

    /// Run one episode under the adaptive cap alone.
    pub fn step(&mut self) {
        self.step_capped(u64::MAX);
    }

    /// Run until roughly `units` additional work units are consumed, the
    /// query finishes, or the global limit trips. Returns `is_finished()`.
    pub fn run_units(&mut self, units: u64) -> bool {
        let target = self.work.saturating_add(units);
        while !self.finished && !self.failed && self.work < target {
            self.step_capped(target - self.work);
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

    /// Post-process accumulated results into the final outcome. Metrics
    /// report episodes as `slices`, the final adaptive cap
    /// (`episode_cap_units`) and the abandoned-episode count.
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
        let order = match (&self.cfg.forced_order, &self.tree) {
            (Some(o), _) => o.clone(),
            (None, Some(tree)) => tree.best_order(),
            (None, None) => Vec::new(),
        };
        let work_units = self.work + budget.used();
        self.ctx.absorb_work(work_units);
        ExecOutcome {
            result,
            work_units,
            wall: self.started.elapsed(),
            timed_out,
            metrics: ExecMetrics {
                slices: self.episodes,
                order,
                uct_nodes: self.tree.as_ref().map_or(0, |t| t.num_nodes()),
                ..ExecMetrics::default()
            }
            .with_counter("episode_cap_units", self.cap)
            .with_counter("abandoned_episodes", self.abandoned),
        }
    }
}

/// Uniformly random valid join order.
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
        let cfg = SkinnerGConfig {
            work_limit: 500,
            ..Default::default()
        };
        let out = SkinnerG::new(&q, &ExecContext::default(), cfg).run_to_completion();
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
    fn order_arms_completes_and_matches_reference() {
        let cat = setup();
        for sql in [
            "SELECT a.id, b.w FROM a, b WHERE a.id = b.aid",
            "SELECT a.g, COUNT(*) cnt FROM a, b, c \
             WHERE a.id = b.aid AND b.w = c.bw GROUP BY a.g ORDER BY a.g",
        ] {
            let q = bind(sql, &cat);
            let out = OrderArms::new(&q, &ExecContext::default(), OrderArmsConfig::default())
                .run_to_completion();
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
    fn order_arms_tiny_cap_doubles_until_batches_complete() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat);
        let cfg = OrderArmsConfig {
            base_cap_units: 1,
            ..Default::default()
        };
        let out = OrderArms::new(&q, &ExecContext::default(), cfg).run_to_completion();
        assert!(!out.timed_out);
        assert!(out.metrics.counter("episode_cap_units").unwrap() > 1);
        assert!(out.metrics.counter("abandoned_episodes").unwrap() > 0);
        let expected = run_reference(&q);
        assert_eq!(out.result.canonical_rows(), expected.canonical_rows());
    }

    #[test]
    fn order_arms_forced_order_is_resumable_and_correct() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw",
            &cat,
        );
        let cfg = OrderArmsConfig {
            forced_order: Some(vec![2, 1, 0]),
            learning: false,
            ..Default::default()
        };
        let mut arms = OrderArms::new(&q, &ExecContext::default(), cfg);
        let mut guard = 0;
        while !arms.run_units(1_000) {
            guard += 1;
            assert!(guard < 10_000, "never finished");
        }
        assert!(arms.completed_batches() > 0);
        let out = arms.into_outcome();
        assert_eq!(out.metrics.order, vec![2, 1, 0]);
        let expected = run_reference(&q);
        assert_eq!(out.result.canonical_rows(), expected.canonical_rows());
    }

    #[test]
    fn order_arms_is_deterministic_across_runs() {
        let cat = setup();
        let q = bind(
            "SELECT a.id, b.w, c.bw FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw",
            &cat,
        );
        let run = || {
            let out = OrderArms::new(&q, &ExecContext::default(), OrderArmsConfig::default())
                .run_to_completion();
            (
                out.result.canonical_rows(),
                out.work_units,
                out.metrics.slices,
            )
        };
        assert_eq!(run(), run());
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
