//! Reinforcement-learning Eddies.
//!
//! Tuples from a driver table are routed, one at a time, through the
//! remaining join "operators" (hash-index lookups for equality predicates,
//! filtered scans otherwise). The routing policy learns online which
//! operator to visit next from the observed expansion cost (probes plus
//! matches) per (joined-set, next-table) pair, with ε-greedy exploration —
//! the Q-learning formulation of Tzoumas et al.
//!
//! Faithful to the paper's characterization, partial tuples are **never
//! discarded**: once an intermediate tuple exists it will be routed to
//! completion no matter how expensive, which is exactly why bad early
//! routing decisions hurt (no regret bound).

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skinner_exec::{
    postprocess, preprocess, ExecContext, ExecMetrics, ExecOutcome, ExecutionStrategy, Timeout,
    TupleBuf, WorkBudget,
};
use skinner_query::{JoinQuery, Pred, TableSet};
use skinner_storage::RowId;

/// Eddy configuration.
#[derive(Debug, Clone)]
pub struct EddyConfig {
    /// ε-greedy exploration rate.
    pub epsilon: f64,
    pub seed: u64,
}

impl Default for EddyConfig {
    fn default() -> Self {
        EddyConfig {
            epsilon: 0.1,
            seed: 0x0EDD1,
        }
    }
}

/// The eddy as a pluggable [`ExecutionStrategy`].
#[derive(Debug, Clone, Default)]
pub struct EddyStrategy(pub EddyConfig);

impl ExecutionStrategy for EddyStrategy {
    fn name(&self) -> &str {
        "Eddy"
    }

    fn execute(&self, query: &JoinQuery, ctx: &ExecContext) -> ExecOutcome {
        run_eddy(query, ctx, &self.0)
    }
}

/// Running average expansion cost per (joined-set, next-table).
#[derive(Default)]
struct QTable {
    stats: HashMap<(u64, usize), (f64, u64)>,
}

impl QTable {
    fn update(&mut self, mask: u64, t: usize, cost: f64) {
        let e = self.stats.entry((mask, t)).or_insert((0.0, 0));
        e.0 += cost;
        e.1 += 1;
    }

    fn mean(&self, mask: u64, t: usize) -> Option<f64> {
        self.stats
            .get(&(mask, t))
            .map(|&(sum, n)| sum / n.max(1) as f64)
    }
}

/// Evaluate `query` with an RL eddy. The outcome's metrics report a
/// `routings` counter (tuple routing decisions taken).
pub fn run_eddy(query: &JoinQuery, ctx: &ExecContext, cfg: &EddyConfig) -> ExecOutcome {
    let start = Instant::now();
    let budget = WorkBudget::with_limit(ctx.budget().remaining());
    let columns: Vec<String> = query.select.iter().map(|s| s.name().to_string()).collect();
    let bail = |budget: &WorkBudget, routings: u64, start: Instant| {
        ctx.absorb_work(budget.used());
        ExecOutcome::timeout(columns.clone(), budget.used(), start.elapsed())
            .with_metrics(ExecMetrics::default().with_counter("routings", routings))
    };

    let pre = match preprocess(query, &budget, 1) {
        Ok(p) => p,
        Err(_) => return bail(&budget, 0, start),
    };
    let m = query.num_tables();
    let graph = query.join_graph();
    // Parallel to `query.generic_preds`.
    let generic = Pred::lower_all(query.generic_preds.iter().map(|p| &p.expr), &pre.tables);

    // STeM-like hash indexes over every equality join column: the tables'
    // own, charged as if built here whether or not an earlier statement
    // already did (work units never depend on what ran before).
    for t in 0..m {
        for col in query.equi_join_columns(t) {
            if budget.charge(pre.tables[t].num_rows() as u64).is_err() {
                return bail(&budget, 0, start);
            }
            pre.tables[t].join_index(col);
        }
    }

    let mut q = QTable::default();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut results = TupleBuf::new(m);
    let mut routings = 0u64;
    let mut timed_out = false;

    if !query.always_false && pre.tables.iter().all(|t| t.num_rows() > 0) {
        // Driver: the smallest filtered table (a common eddy heuristic; the
        // routing policy handles everything after the first hop).
        let driver = (0..m).min_by_key(|&t| pre.tables[t].num_rows()).unwrap();
        // Depth-first routing stack avoids materializing the full frontier:
        // `m` row ids per entry in `stack`, its joined tables in `masks`.
        let mut stack: Vec<RowId> = Vec::new();
        let mut masks: Vec<TableSet> = Vec::new();
        let mut tuple = vec![0 as RowId; m];
        'driver: for row in 0..pre.tables[driver].cardinality() {
            // Cooperative cancellation/deadline, once per driver tuple.
            if ctx.interrupted() || budget.charge(1).is_err() {
                timed_out = true;
                break;
            }
            tuple.fill(0);
            tuple[driver] = row;
            stack.extend_from_slice(&tuple);
            masks.push(TableSet::singleton(driver));
            while let Some(mask) = masks.pop() {
                let top = stack.len() - m;
                tuple.copy_from_slice(&stack[top..]);
                stack.truncate(top);
                if mask.len() == m {
                    results.push(&tuple);
                    continue;
                }
                routings += 1;
                let next = choose_next(&graph, &q, mask, &mut rng, cfg.epsilon);
                match expand(
                    query,
                    &pre.tables,
                    &generic,
                    &mask,
                    &tuple,
                    next,
                    &budget,
                    &mut stack,
                ) {
                    Ok(children) => {
                        let cost = 1.0 + children as f64;
                        q.update(mask.mask(), next, cost);
                        masks.extend(std::iter::repeat_n(mask.with(next), children));
                    }
                    Err(_) => {
                        timed_out = true;
                        break 'driver;
                    }
                }
            }
        }
    }

    if timed_out {
        return bail(&budget, routings, start);
    }
    let result = match postprocess(&pre.tables, query, results.view(), &budget) {
        Ok(r) => r,
        Err(_) => return bail(&budget, routings, start),
    };
    ctx.absorb_work(budget.used());
    ExecOutcome::completed(result, budget.used(), start.elapsed())
        .with_metrics(ExecMetrics::default().with_counter("routings", routings))
}

/// ε-greedy choice of the next table for a partial tuple class.
fn choose_next(
    graph: &skinner_query::JoinGraph,
    q: &QTable,
    mask: TableSet,
    rng: &mut StdRng,
    epsilon: f64,
) -> usize {
    let eligible: Vec<usize> = graph.eligible_next(mask).iter().collect();
    debug_assert!(!eligible.is_empty());
    if rng.gen::<f64>() < epsilon {
        return eligible[rng.gen_range(0..eligible.len())];
    }
    // Prefer unexplored actions, then lowest mean expansion cost.
    let mut best: Option<(f64, usize)> = None;
    for &t in &eligible {
        match q.mean(mask.mask(), t) {
            None => return t,
            Some(c) => {
                if best.is_none_or(|(bc, _)| c < bc) {
                    best = Some((c, t));
                }
            }
        }
    }
    best.unwrap().1
}

/// Join `tuple` with table `next`, appending the extended tuples to `out`;
/// returns how many it appended. `lowered` is `query.generic_preds`,
/// lowered against `tables`.
#[allow(clippy::too_many_arguments)]
fn expand(
    query: &JoinQuery,
    tables: &[std::sync::Arc<skinner_storage::Table>],
    lowered: &[Pred],
    mask: &TableSet,
    tuple: &[RowId],
    next: usize,
    budget: &WorkBudget,
    out: &mut Vec<RowId>,
) -> Result<usize, Timeout> {
    let step_set = mask.with(next);
    // Equality predicates now applicable connecting `next` to the tuple.
    let equi: Vec<_> = query
        .equi_preds
        .iter()
        .filter(|p| p.table_set().is_subset_of(&step_set) && p.side_on(next).is_some())
        .collect();
    let generic: Vec<&Pred> = query
        .generic_preds
        .iter()
        .zip(lowered)
        .filter(|(p, _)| p.tables.is_subset_of(&step_set) && p.tables.contains(next))
        .map(|(_, lowered)| lowered)
        .collect();
    let before = out.len();
    let mut scratch: Vec<RowId> = tuple.to_vec();
    let emit =
        |row: RowId, scratch: &mut Vec<RowId>, out: &mut Vec<RowId>| -> Result<(), Timeout> {
            scratch[next] = row;
            budget.charge(generic.len() as u64)?;
            if generic.iter().all(|p| p.eval(scratch)) {
                budget.produce_tuples(1)?;
                out.extend_from_slice(scratch);
            }
            Ok(())
        };
    if let Some(p) = equi.first() {
        // Probe the index of the first predicate; verify the rest.
        let mine = p.side_on(next).unwrap();
        let other = p.other_side(next).unwrap();
        let key = tables[other.table]
            .column(other.col)
            .key_at(tuple[other.table]);
        budget.charge(1)?;
        for &row in tables[next].join_index(mine.col).lookup(key) {
            budget.charge(1)?;
            let verified = equi.iter().skip(1).all(|p| {
                let mine = p.side_on(next).unwrap();
                let other = p.other_side(next).unwrap();
                tables[next].column(mine.col).key_at(row)
                    == tables[other.table]
                        .column(other.col)
                        .key_at(tuple[other.table])
            });
            if verified {
                emit(row, &mut scratch, out)?;
            }
        }
    } else {
        // No equality predicate: scan.
        for row in 0..tables[next].cardinality() {
            budget.charge(1)?;
            emit(row, &mut scratch, out)?;
        }
    }
    Ok((out.len() - before) / tuple.len())
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
        for i in 0..40 {
            a.push_row(&[Value::Int(i), Value::Int(i % 4)]);
        }
        cat.register(a.finish());
        let mut b = cat.builder("b", schema![("aid", Int), ("w", Int)]);
        for i in 0..60 {
            b.push_row(&[Value::Int(i % 40), Value::Int(i % 8)]);
        }
        cat.register(b.finish());
        let mut c = cat.builder("c", schema![("bw", Int)]);
        for i in 0..8 {
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
            "SELECT a.id FROM a, b WHERE a.id = b.aid",
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw AND a.g = 1",
            "SELECT a.g, COUNT(*) cnt FROM a, b WHERE a.id = b.aid GROUP BY a.g ORDER BY a.g",
        ] {
            let q = bind(sql, &cat);
            let out = run_eddy(&q, &ExecContext::default(), &EddyConfig::default());
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
    fn theta_join_via_scan() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, c WHERE a.id < c.bw", &cat);
        let out = run_eddy(&q, &ExecContext::default(), &EddyConfig::default());
        let expected = run_reference(&q);
        assert_eq!(out.result.canonical_rows(), expected.canonical_rows());
    }

    #[test]
    fn work_limit_trips() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat);
        let ctx = ExecContext::default().with_work_limit(20);
        let out = run_eddy(&q, &ctx, &EddyConfig::default());
        assert!(out.timed_out);
    }

    #[test]
    fn routing_stats_accumulate() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw",
            &cat,
        );
        let out = run_eddy(&q, &ExecContext::default(), &EddyConfig::default());
        assert!(out.metrics.counter("routings").unwrap() > 0);
    }

    #[test]
    fn empty_filter_is_empty_result() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b WHERE a.id = b.aid AND a.id > 999",
            &cat,
        );
        let out = run_eddy(&q, &ExecContext::default(), &EddyConfig::default());
        assert_eq!(out.result.num_rows(), 0);
        assert!(!out.timed_out);
    }
}
