//! The episode ledger: the bookkeeping every Skinner-C episode loop keeps,
//! whatever its learning rule.
//!
//! Sequential Skinner-C (one episode = one time slice; its order comes from
//! the tree, a random draw or a fixed replay) and `parallel_skinner` (one
//! episode = one batch split into chunks) both drive one ledger per query.
//! It owns the query's [`UctTree`] with its learning-cache warm start and
//! publish-on-success, one shared [`OrderInfo`] per distinct join order with
//! its episode count, the order-switch counters, the tree-growth samples
//! and the per-order episode spans, and it reports the [`ExecMetrics`]
//! fields both loops share. What stays in each loop is how it runs an
//! episode and how it rewards the tree.

use std::collections::HashMap;
use std::sync::Arc;

use skinner_exec::{EpisodeRuns, ExecContext, ExecMetrics};
use skinner_query::JoinQuery;
use skinner_uct::{UctConfig, UctTree};

use crate::cache::CacheProbe;

use super::join::OrderInfo;
use super::preproc::PreparedC;
use super::state::OrderKey;

pub(crate) struct EpisodeLedger<'a> {
    /// The query's only tree. The loop chooses and rewards through it; the
    /// ledger seeds it from the cache and publishes it.
    pub tree: UctTree,
    probe: Option<CacheProbe>,
    /// A warm start from the cache: (visits seeded, generalized).
    warm: Option<(u64, u64)>,
    /// Per distinct order, in first-seen order: its evaluation plan and
    /// episode count, found with one allocation-free lookup per episode.
    ids: HashMap<Box<[u8]>, usize>,
    orders: Vec<(Arc<OrderInfo>, u64)>,
    current: Option<usize>,
    episodes: u64,
    /// Regret proxy: how many times the order changed between consecutive
    /// episodes (0 = the engine converged instantly).
    order_switches: u64,
    /// Convergence measure: the episode index of the last order switch —
    /// after it the engine ran one order exclusively. Warm starts should
    /// lock in measurably earlier (the `repeat_workload` benchmark reads
    /// this).
    last_order_switch: u64,
    tree_growth: Vec<(u64, usize)>,
    /// One span per contiguous run of episodes on the same order.
    runs: EpisodeRuns<'a>,
}

impl<'a> EpisodeLedger<'a> {
    /// A ledger around a fresh tree. A loop that `learns` warm-starts the
    /// tree from the context's template cache, when it carries one, and
    /// publishes it back on success: purely a learning bias, as the offsets
    /// discipline keeps results identical whatever orders get explored.
    pub fn new(query: &JoinQuery, ctx: &'a ExecContext, uct: UctConfig, learns: bool) -> Self {
        let mut tree = UctTree::new(query.join_graph(), uct);
        let probe = learns.then(|| CacheProbe::probe(ctx, query)).flatten();
        let warm = probe.as_ref().and_then(|p| {
            let warm = p.lookup()?;
            let visits = tree.seed_prior(&warm.prior, p.decay());
            Some((visits, warm.generalized as u64))
        });
        EpisodeLedger {
            tree,
            probe,
            warm,
            ids: HashMap::new(),
            orders: Vec::new(),
            current: None,
            episodes: 0,
            order_switches: 0,
            last_order_switch: 0,
            tree_growth: Vec::new(),
            runs: EpisodeRuns::start(ctx.trace()),
        }
    }

    /// The next episode runs `order`: count a switch if it differs from the
    /// last one, and return its plan, built by `build` on first use.
    pub fn enter(&mut self, order: &[usize], build: impl FnOnce() -> OrderInfo) -> &Arc<OrderInfo> {
        let key = OrderKey::new(order);
        let id = match self.ids.get(key.as_bytes()) {
            Some(&id) => id,
            None => {
                self.orders.push((Arc::new(build()), 0));
                self.ids
                    .insert(key.as_bytes().into(), self.orders.len() - 1);
                self.orders.len() - 1
            }
        };
        if self.current != Some(id) {
            if self.current.is_some() {
                self.order_switches += 1;
            }
            self.runs.switch(|| format!("order={order:?}"));
            self.last_order_switch = self.episodes + 1;
            self.current = Some(id);
        }
        &self.orders[id].0
    }

    /// The episode [`Self::enter`] announced ran (an episode cut short by
    /// the budget is never recorded).
    pub fn record(&mut self) {
        let id = self.current.expect("record follows enter");
        self.orders[id].1 += 1;
        self.episodes += 1;
        self.runs.slice();
        if self.episodes.is_power_of_two() || self.episodes.is_multiple_of(256) {
            self.tree_growth
                .push((self.episodes, self.tree.num_nodes()));
        }
    }

    /// The loop is over: close the last episode span (before the loop
    /// opens its `postprocess` span) and take the final growth sample.
    pub fn finish(&mut self) {
        self.tree_growth
            .push((self.episodes, self.tree.num_nodes()));
        self.runs.finish();
    }

    /// Publish the tree for the next query of this template, with the run's
    /// convergence cost (total episodes) as drift feedback, and report the
    /// shared metrics. Timed-out runs publish nothing: their trees are
    /// dominated by orders the abandonment discipline already rejected.
    /// `total_aux_bytes` counts the tree and the jump indexes; the loop adds
    /// what else it keeps.
    pub fn into_metrics(self, timed_out: bool, prepared: &PreparedC) -> ExecMetrics {
        if let Some(p) = &self.probe {
            if !timed_out && self.episodes > 0 {
                p.publish(self.tree.extract_prior(p.max_entries()), self.episodes);
            }
        }
        // Most-used first; ties keep first-seen order, so a run's report
        // repeats exactly.
        let mut order_slice_counts: Vec<(Vec<usize>, u64)> = self
            .orders
            .into_iter()
            .filter(|(_, n)| *n > 0)
            .map(|(info, n)| (info.order.clone(), n))
            .collect();
        order_slice_counts.sort_by_key(|e| std::cmp::Reverse(e.1));
        let (warm_start_visits, warm_start_generalized) = self.warm.unwrap_or_default();
        ExecMetrics {
            order: self.tree.best_order(),
            slices: self.episodes,
            uct_nodes: self.tree.num_nodes(),
            total_aux_bytes: self.tree.byte_size() + prepared.index_bytes,
            tree_growth: self.tree_growth,
            order_slice_counts,
            pages_read: prepared.pages_read,
            pages_skipped: prepared.pages_skipped,
            ..ExecMetrics::default()
        }
        .with_counter("cache_hit", self.warm.is_some() as u64)
        .with_counter("warm_start_visits", warm_start_visits)
        .with_counter("warm_start_generalized", warm_start_generalized)
        .with_counter("last_order_switch", self.last_order_switch)
        .with_counter("order_switches", self.order_switches)
        .with_counter("index_builds", prepared.index_builds)
        .with_counter("index_reuses", prepared.index_reuses)
    }
}
