//! The depth-first multi-way join (paper Algorithm 2, Figure 5).
//!
//! Execution fixes one tuple per predecessor table before considering
//! successor tuples, so the "intermediate result" is always exactly one
//! partial tuple — the execution state the progress tracker snapshots.
//! For equality predicates, sorted-posting hash indexes allow jumping
//! directly to the next tuple index that can match (Section 4.5's
//! extension), turning the scan into an index-nested-loop per level.
//!
//! Each jump walks its key's posting window with a [`PostingCursor`]. A
//! level's keys come from the rows fixed at earlier levels, and those only
//! change while the loop is above the level, so a cursor stays valid for as
//! long as the loop stays at or below its level. [`continue_join`] reopens
//! the cursors of every level at or above the state's depth on entry, and a
//! level's first probe after the loop descends into it opens fresh ones —
//! recognisable without any key compare, because descending resets the
//! level's row to its offset and every later probe at the level starts
//! past it.

use std::collections::HashMap;
use std::sync::Arc;

use skinner_exec::{LocalWork, Timeout, TupleSink, WorkBudget};
use skinner_query::expr::{CmpOp, Expr};
use skinner_query::{JoinQuery, Pred};
use skinner_storage::{HashIndex, PostingCursor, RowId, Table};

use super::state::JoinState;

/// Immutable join context shared by all time slices of one query.
pub struct MultiwayCtx {
    pub tables: Vec<Arc<Table>>,
    /// Hash indexes on equality-join columns, keyed by `(table, column)`.
    /// Only [`OrderInfo::build`] searches this list; the join loop probes
    /// through the references each order resolved from it.
    indexes: Vec<((usize, usize), Arc<HashIndex>)>,
}

impl MultiwayCtx {
    /// Context over (filtered) `tables` with the given jump indexes.
    pub fn new(tables: Vec<Arc<Table>>, indexes: Vec<((usize, usize), Arc<HashIndex>)>) -> Self {
        MultiwayCtx { tables, indexes }
    }

    /// The jump index on `table.col`, if pre-processing fetched one.
    pub fn index(&self, table: usize, col: usize) -> Option<&Arc<HashIndex>> {
        self.indexes
            .iter()
            .find(|(key, _)| *key == (table, col))
            .map(|(_, idx)| idx)
    }

    /// Bytes of the jump indexes in use, whether owned by a catalog table
    /// or by this statement's filtered copy (memory accounting).
    pub fn index_bytes(&self) -> usize {
        self.indexes.iter().map(|(_, idx)| idx.byte_size()).sum()
    }
}

/// One indexable equality predicate at a join position, resolved: the
/// index on this position's column and where the probe key comes from.
#[derive(Debug)]
struct Jump {
    index: Arc<HashIndex>,
    /// The earlier table on the predicate's other side, and its column.
    key_table: Arc<Table>,
    key_table_pos: usize,
    key_col: usize,
    /// Where this jump keeps its cursor in a [`JoinCursors`].
    slot: usize,
}

impl Jump {
    /// A cursor on the window of the key the rows fixed in `s` give.
    /// Inlined into both callers: the join loop's probe is the hot one.
    #[inline(always)]
    fn cursor(&self, s: &[RowId]) -> PostingCursor {
        let key = self
            .key_table
            .column(self.key_col)
            .key_at(s[self.key_table_pos]);
        self.index.cursor(key)
    }
}

/// Everything the join loop needs at one join position.
#[derive(Debug)]
struct Level {
    table: usize,
    cardinality: RowId,
    jumps: Vec<Jump>,
    /// Remaining predicates to evaluate (generic predicates and, with
    /// jumps disabled, equality predicates), lowered against `ctx.tables`.
    checks: Vec<Pred>,
}

/// Per-join-order evaluation plan, built once per distinct order: every
/// `(table, column)` lookup the loop would need is done here, and every
/// check is lowered to a [`Pred`] over tuple positions.
#[derive(Debug)]
pub struct OrderInfo {
    pub order: Vec<usize>,
    levels: Vec<Level>,
    /// Jumps over all levels: the cursors a join of this order needs.
    num_cursors: usize,
}

/// Posting cursors of the join loop, one per jump of the order being run.
/// The caller keeps one across [`continue_join`] calls (the engine loop,
/// each parallel worker) so that no slice allocates; its contents never
/// outlive a call.
#[derive(Debug, Default)]
pub struct JoinCursors(Vec<PostingCursor>);

impl OrderInfo {
    /// Analyze `order`, splitting predicates into index jumps and checks.
    pub fn build(query: &JoinQuery, ctx: &MultiwayCtx, order: &[usize], use_jumps: bool) -> Self {
        let mut levels: Vec<Level> = order
            .iter()
            .map(|&t| Level {
                table: t,
                cardinality: ctx.tables[t].cardinality(),
                jumps: Vec::new(),
                checks: Vec::new(),
            })
            .collect();
        let pos_of: HashMap<usize, usize> =
            order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        let mut num_cursors = 0;
        for p in &query.equi_preds {
            let (Some(&pl), Some(&pr)) = (pos_of.get(&p.left.table), pos_of.get(&p.right.table))
            else {
                continue; // predicate outside this (sub-)order
            };
            // The predicate becomes applicable at the later position.
            let (pos, mine, other) = if pl > pr {
                (pl, p.left, p.right)
            } else {
                (pr, p.right, p.left)
            };
            match ctx.index(mine.table, mine.col).filter(|_| use_jumps) {
                Some(index) => {
                    levels[pos].jumps.push(Jump {
                        index: index.clone(),
                        key_table: ctx.tables[other.table].clone(),
                        key_table_pos: other.table,
                        key_col: other.col,
                        slot: num_cursors,
                    });
                    num_cursors += 1;
                }
                None => {
                    let dt = query.col_type(mine);
                    let eq = Expr::Cmp {
                        op: CmpOp::Eq,
                        left: Box::new(Expr::Col(mine, dt)),
                        right: Box::new(Expr::Col(other, dt)),
                    };
                    levels[pos].checks.push(Pred::lower(&eq, &ctx.tables));
                }
            }
        }
        for p in &query.generic_preds {
            // Applicable at the latest position among its tables.
            let Some(pos) = p
                .tables
                .iter()
                .map(|t| pos_of.get(&t).copied())
                .collect::<Option<Vec<_>>>()
                .map(|v| v.into_iter().max().unwrap())
            else {
                continue;
            };
            levels[pos].checks.push(Pred::lower(&p.expr, &ctx.tables));
        }
        OrderInfo {
            order: order.to_vec(),
            levels,
            num_cursors,
        }
    }
}

/// Outcome of one [`continue_join`] time slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceOutcome {
    /// The budgeted number of steps elapsed.
    Budget,
    /// The left-most table was exhausted: the query result is complete.
    Finished,
}

/// Skinner-C terminates once any table's offset passes its end (all its
/// tuples fully joined) — including the degenerate empty-table case.
pub(crate) fn all_joined(offsets: &[RowId], cards: &[RowId]) -> bool {
    offsets.iter().zip(cards).any(|(&o, &n)| o >= n)
}

/// `ContinueJoin` (Algorithm 2): run the multi-way join for `order` starting
/// from `state`, for at most `max_steps` outer-loop iterations, inserting
/// result tuples into `results`. Offsets exclude globally fully-joined rows
/// at every level. One work unit is counted per step, index probe (however
/// far its cursor moves), predicate evaluation and result tuple the sink
/// reports new —
/// locally, against the budget's remaining units, and settled to `budget`
/// once when the slice ends (by step count, completion or `Err(Timeout)`).
/// `cursors` is a reusable buffer: any one will do, and nothing in it
/// carries over from an earlier call.
pub fn continue_join<S: TupleSink>(
    info: &OrderInfo,
    state: &mut JoinState,
    cursors: &mut JoinCursors,
    offsets: &[RowId],
    max_steps: u64,
    budget: &WorkBudget,
    results: &mut S,
) -> Result<SliceOutcome, Timeout> {
    continue_join_ranged(
        info,
        state,
        cursors,
        offsets,
        max_steps,
        budget,
        results,
        RowId::MAX,
    )
}

/// [`continue_join`] restricted to left-most rows `< level0_end`: the
/// outermost loop finishes once its cursor passes `level0_end` instead of
/// the table's cardinality. Parallel execution partitions the left-most
/// table into `[start, end)` chunks and runs one such bounded join per
/// worker (the chunk's `start` enters through `offsets`); everything below
/// level 0 is identical to the sequential join.
#[allow(clippy::too_many_arguments)]
pub fn continue_join_ranged<S: TupleSink>(
    info: &OrderInfo,
    state: &mut JoinState,
    cursors: &mut JoinCursors,
    offsets: &[RowId],
    max_steps: u64,
    budget: &WorkBudget,
    results: &mut S,
    level0_end: RowId,
) -> Result<SliceOutcome, Timeout> {
    let levels = &info.levels[..];
    let last = levels.len() - 1;
    // `state` may come from anywhere (a restore, another order's slice), so
    // no cursor in the buffer is trusted on entry: the levels the loop can
    // reach without descending get theirs now, deeper ones open on descent.
    let cursors = &mut cursors.0;
    cursors.resize(info.num_cursors, PostingCursor::default());
    for jump in levels[..=state.depth].iter().flat_map(|l| &l.jumps) {
        cursors[jump.slot] = jump.cursor(&state.s);
    }
    let mut work = budget.local();
    let mut steps = 0u64;
    loop {
        if steps >= max_steps {
            return Ok(SliceOutcome::Budget);
        }
        steps += 1;
        work.charge(1)?;
        let depth = state.depth;
        let level = &levels[depth];
        let ti = level.table;
        let bound = if depth == 0 { level0_end } else { RowId::MAX };
        match next_candidate(level, cursors, state, offsets, &mut work, bound)? {
            None => {
                // Level exhausted: reset and backtrack.
                state.s[ti] = offsets[ti];
                if depth == 0 {
                    return Ok(SliceOutcome::Finished);
                }
                state.depth -= 1;
                state.s[levels[state.depth].table] += 1;
            }
            Some(row) => {
                state.s[ti] = row;
                let ok = if level.checks.is_empty() {
                    true
                } else {
                    work.charge(level.checks.len() as u64)?;
                    level.checks.iter().all(|c| c.eval(&state.s))
                };
                if !ok {
                    state.s[ti] = row + 1;
                } else if depth == last {
                    if results.insert(&state.s) {
                        work.produce_tuple()?;
                    }
                    state.s[ti] = row + 1;
                } else {
                    state.depth += 1;
                    let next = &levels[state.depth];
                    // The rows above `next` just changed, so may its keys;
                    // its row at its offset tells its next probe so.
                    state.s[next.table] = offsets[next.table];
                }
            }
        }
    }
}

/// Find the next candidate row `>= max(s[ti], offset)` satisfying all
/// indexable equality predicates of `level`, leapfrogging across their
/// posting lists, each walked by its own cursor in `cursors`. `None` when
/// the level is exhausted (cardinality or the caller's `bound`, whichever
/// is lower). Inlined into every instantiation of the join loop: it is the
/// per-step probe, and with two sinks a plain hint no longer inlines it.
#[inline(always)]
fn next_candidate(
    level: &Level,
    cursors: &mut [PostingCursor],
    state: &JoinState,
    offsets: &[RowId],
    work: &mut LocalWork<'_>,
    bound: RowId,
) -> Result<Option<RowId>, Timeout> {
    let ti = level.table;
    let n = level.cardinality.min(bound);
    let row = state.s[ti];
    let mut cur = row.max(offsets[ti]);
    if level.jumps.is_empty() {
        return Ok((cur < n).then_some(cur));
    }
    // The loop just descended here, which left the row at its offset: the
    // stored cursors may belong to other keys. Probe like a plain
    // `next_match` and keep what the probes found.
    let fresh = row <= offsets[ti];
    'outer: loop {
        if cur >= n {
            return Ok(None);
        }
        for jump in &level.jumps {
            work.charge(1)?;
            // The stored cursor is only touched off the fresh path, and
            // only written back on a hit: a miss exhausts the level, which
            // is next probed after a descent.
            let mut cursor = if fresh {
                jump.cursor(&state.s)
            } else {
                cursors[jump.slot]
            };
            let found = cursor.seek(&jump.index, cur);
            if found.is_some() {
                cursors[jump.slot] = cursor;
            }
            match found {
                None => return Ok(None),
                Some(m) if m > cur => {
                    cur = m;
                    continue 'outer;
                }
                Some(_) => {}
            }
        }
        return Ok(Some(cur));
    }
}

#[cfg(test)]
mod tests {
    use super::super::result_set::ResultSet;
    use super::*;
    use skinner_query::{bind_select, parser::parse_statement, UdfRegistry};
    use skinner_storage::{schema, Catalog, Value};

    fn setup() -> Catalog {
        let cat = Catalog::new();
        let mut a = cat.builder("a", schema![("id", Int)]);
        for i in 0..6 {
            a.push_row(&[Value::Int(i)]);
        }
        cat.register(a.finish());
        let mut b = cat.builder("b", schema![("aid", Int), ("w", Int)]);
        for i in 0..9 {
            b.push_row(&[Value::Int(i % 6), Value::Int(i % 3)]);
        }
        cat.register(b.finish());
        let mut c = cat.builder("c", schema![("bw", Int)]);
        for i in 0..3 {
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

    fn ctx_for(q: &JoinQuery) -> MultiwayCtx {
        let mut indexes = Vec::new();
        for (t, table) in q.tables.iter().enumerate() {
            for col in q.equi_join_columns(t) {
                indexes.push(((t, col), table.join_index(col).clone()));
            }
        }
        MultiwayCtx::new(q.tables.clone(), indexes)
    }

    fn run_to_completion(q: &JoinQuery, order: &[usize], use_jumps: bool) -> (ResultSet, u64) {
        let ctx = ctx_for(q);
        let info = OrderInfo::build(q, &ctx, order, use_jumps);
        let offsets = vec![0; q.num_tables()];
        let mut state = JoinState::fresh(&offsets);
        let mut cursors = JoinCursors::default();
        let mut results = ResultSet::new();
        let budget = WorkBudget::unlimited();
        let mut slices = 0;
        loop {
            slices += 1;
            match continue_join(
                &info,
                &mut state,
                &mut cursors,
                &offsets,
                64,
                &budget,
                &mut results,
            )
            .unwrap()
            {
                SliceOutcome::Finished => break,
                SliceOutcome::Budget => {}
            }
            assert!(slices < 10_000, "no convergence");
        }
        (results, budget.used())
    }

    #[test]
    fn completes_chain_join_in_any_order() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw",
            &cat,
        );
        // Every b row joins one a and one c → 9 results.
        let (r1, _) = run_to_completion(&q, &[0, 1, 2], true);
        assert_eq!(r1.len(), 9);
        let (r2, _) = run_to_completion(&q, &[2, 1, 0], true);
        assert_eq!(r2.len(), 9);
        let (r3, _) = run_to_completion(&q, &[1, 0, 2], true);
        assert_eq!(r3.len(), 9);
    }

    #[test]
    fn jumps_match_scan_semantics() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw",
            &cat,
        );
        let (with_jumps, work_jumps) = run_to_completion(&q, &[0, 1, 2], true);
        let (without, work_scan) = run_to_completion(&q, &[0, 1, 2], false);
        let norm = |r: ResultSet| {
            let mut v: Vec<Vec<RowId>> = r.iter().map(|t| t.to_vec()).collect();
            v.sort();
            v
        };
        assert_eq!(norm(with_jumps), norm(without));
        // Index jumps skip non-matching tuples: strictly less work here.
        assert!(work_jumps < work_scan, "{work_jumps} !< {work_scan}");
    }

    #[test]
    fn resume_from_backup_is_seamless() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat);
        let ctx = ctx_for(&q);
        let info = OrderInfo::build(&q, &ctx, &[0, 1], true);
        let offsets = vec![0, 0];
        let budget = WorkBudget::unlimited();
        let mut cursors = JoinCursors::default();
        // Reference: run to completion in one go.
        let mut full_state = JoinState::fresh(&offsets);
        let mut full = ResultSet::new();
        while continue_join(
            &info,
            &mut full_state,
            &mut cursors,
            &offsets,
            u64::MAX,
            &budget,
            &mut full,
        )
        .unwrap()
            != SliceOutcome::Finished
        {}
        // Interrupted: two-step slices with state carried across.
        let mut state = JoinState::fresh(&offsets);
        let mut partial = ResultSet::new();
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 10_000);
            let out = continue_join(
                &info,
                &mut state,
                &mut cursors,
                &offsets,
                2,
                &budget,
                &mut partial,
            );
            if out.unwrap() == SliceOutcome::Finished {
                break;
            }
        }
        assert_eq!(full.len(), partial.len());
    }

    #[test]
    fn offsets_skip_rows_at_every_level() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat);
        let ctx = ctx_for(&q);
        let info = OrderInfo::build(&q, &ctx, &[0, 1], true);
        // Offset 3 on table a: rows 0..3 are excluded.
        let offsets = vec![3, 0];
        let mut state = JoinState::fresh(&offsets);
        let mut results = ResultSet::new();
        let budget = WorkBudget::unlimited();
        while continue_join(
            &info,
            &mut state,
            &mut JoinCursors::default(),
            &offsets,
            u64::MAX,
            &budget,
            &mut results,
        )
        .unwrap()
            != SliceOutcome::Finished
        {}
        // b rows with aid ∈ {3,4,5}: i%6 ∈ {3,4,5} for i in 0..9 → 4 rows
        // (3,4,5 and none above 8 → rows 3,4,5 plus none) → count them.
        let expected = (0..9).filter(|i| i % 6 >= 3).count();
        assert_eq!(results.len(), expected);
    }

    #[test]
    fn ranged_chunks_union_to_the_full_join() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw",
            &cat,
        );
        let ctx = ctx_for(&q);
        let order = [1usize, 0, 2]; // leftmost table b, 9 rows
        let info = OrderInfo::build(&q, &ctx, &order, true);
        let budget = WorkBudget::unlimited();
        let (full, _) = run_to_completion(&q, &order, true);
        // Split b's rows into 3 chunks and run each to completion.
        let mut union = ResultSet::new();
        let mut cursors = JoinCursors::default();
        for (lo, hi) in [(0u32, 3u32), (3, 7), (7, 9)] {
            let mut offsets = vec![0; q.num_tables()];
            offsets[1] = lo;
            let mut state = JoinState::fresh(&offsets);
            let mut chunk = ResultSet::new();
            loop {
                let out = continue_join_ranged(
                    &info,
                    &mut state,
                    &mut cursors,
                    &offsets,
                    8,
                    &budget,
                    &mut chunk,
                    hi,
                )
                .unwrap();
                if out == SliceOutcome::Finished {
                    break;
                }
            }
            for t in chunk.iter() {
                assert!(union.insert(t), "chunks produced overlapping tuple {t:?}");
            }
        }
        assert_eq!(union.len(), full.len());
    }

    #[test]
    fn budget_timeout_propagates() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat);
        let ctx = ctx_for(&q);
        let info = OrderInfo::build(&q, &ctx, &[0, 1], true);
        let offsets = vec![0, 0];
        let mut state = JoinState::fresh(&offsets);
        let mut results = ResultSet::new();
        let budget = WorkBudget::with_limit(3);
        let r = continue_join(
            &info,
            &mut state,
            &mut JoinCursors::default(),
            &offsets,
            u64::MAX,
            &budget,
            &mut results,
        );
        assert!(matches!(r, Err(Timeout)));
    }

    #[test]
    fn empty_table_finishes_immediately() {
        let cat = setup();
        let e = cat.builder("emp", schema![("x", Int)]);
        cat.register(e.finish());
        let q = bind("SELECT a.id FROM a, emp WHERE a.id = emp.x", &cat);
        let (r, _) = run_to_completion(&q, &[1, 0], true);
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn cartesian_product_when_unconnected() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, c", &cat);
        let (r, _) = run_to_completion(&q, &[0, 1], true);
        assert_eq!(r.len(), 18);
    }

    #[test]
    fn generic_predicates_checked_at_latest_position() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, c WHERE a.id + c.bw = 4", &cat);
        let (r, _) = run_to_completion(&q, &[1, 0], true);
        // pairs (id, bw) with id + bw = 4: (4,0),(3,1),(2,2) → 3.
        assert_eq!(r.len(), 3);
    }

    /// A skewed star: most of `f`'s 90 rows point at dimension row 0, so
    /// windows are long, and `da` also holds an id no fact row uses.
    fn skewed_star() -> Catalog {
        let cat = Catalog::new();
        for (name, ids) in [
            ("da", &[0, 1, 2, 3, 7][..]),
            ("db", &[0, 1, 2, 3]),
            ("dc", &[0, 1, 2]),
        ] {
            let mut d = cat.builder(name, schema![("id", Int)]);
            for &id in ids {
                d.push_row(&[Value::Int(id)]);
            }
            cat.register(d.finish());
        }
        let skew = |i: i64, keys: &[i64]| keys[(i * 7 % keys.len() as i64) as usize];
        let mut f = cat.builder(
            "f",
            schema![("id", Int), ("a", Int), ("b", Int), ("c", Int)],
        );
        for i in 0..90 {
            f.push_row(&[
                Value::Int(i),
                Value::Int(skew(i, &[0, 0, 0, 0, 0, 0, 1, 1, 2, 3])),
                Value::Int(skew(i, &[0, 0, 0, 0, 1, 1, 2, 3, 4])),
                Value::Int(skew(i, &[0, 0, 0, 1, 2])),
            ]);
        }
        cat.register(f.finish());
        cat
    }

    /// Every level's keys change under it: by descent into it, when the
    /// loop backtracks above it and comes back, and between slices — when
    /// another order's call left the shared cursor buffer behind, and when
    /// a prefix-sharing restore moved the rows above it. The `dc` check
    /// fails after matches, so levels also resume after failed checks.
    #[test]
    fn cursors_follow_their_keys_across_descents_backtracks_and_restores() {
        use super::super::state::ProgressTracker;
        use skinner_exec::{postprocess, reference::run_reference};

        let cat = skewed_star();
        let q = bind(
            "SELECT da.id, f.id, db.id, dc.id FROM da, f, db, dc \
             WHERE f.a = da.id AND f.b = db.id AND f.c = dc.id AND da.id + dc.id <> 2",
            &cat,
        );
        let ctx = ctx_for(&q);
        let rows_of = |results: ResultSet| {
            postprocess(
                &q.tables,
                &q,
                results.seal().view(),
                &WorkBudget::unlimited(),
            )
            .unwrap()
            .canonical_rows()
        };
        let expected = run_reference(&q).canonical_rows();
        assert!(expected.len() > 50, "{}", expected.len());
        let cards: Vec<RowId> = q.tables.iter().map(|t| t.cardinality()).collect();
        let zero = vec![0; 4];
        // da = 0, f = 1, db = 2, dc = 3. [0, 2, 1, 3] leapfrogs two long
        // windows at `f`; the others open one jump per level.
        let orders = [
            [0, 1, 2, 3],
            [0, 2, 1, 3],
            [2, 1, 0, 3],
            [3, 1, 2, 0],
            [1, 0, 2, 3],
        ];
        let infos: Vec<OrderInfo> = orders
            .iter()
            .map(|o| OrderInfo::build(&q, &ctx, o, true))
            .collect();
        let whole: Vec<(Vec<String>, u64)> = infos
            .iter()
            .map(|info| {
                let budget = WorkBudget::unlimited();
                let mut results = ResultSet::new();
                let out = continue_join(
                    info,
                    &mut JoinState::fresh(&zero),
                    &mut JoinCursors::default(),
                    &zero,
                    u64::MAX,
                    &budget,
                    &mut results,
                );
                assert_eq!(out, Ok(SliceOutcome::Finished));
                (rows_of(results), budget.used())
            })
            .collect();
        for (order, (rows, _)) in orders.iter().zip(&whole) {
            assert_eq!(rows, &expected, "{order:?}");
        }

        for slice_steps in [1u64, 2, 3, 5, 7, 64] {
            // All five orders sliced round robin through one buffer.
            let mut cursors = JoinCursors::default();
            let mut runs: Vec<_> = infos
                .iter()
                .map(|_| {
                    (
                        JoinState::fresh(&zero),
                        ResultSet::new(),
                        WorkBudget::unlimited(),
                    )
                })
                .collect();
            let mut done = vec![false; runs.len()];
            while done.contains(&false) {
                for (i, (state, results, budget)) in runs.iter_mut().enumerate() {
                    if !done[i] {
                        let out = continue_join(
                            &infos[i],
                            state,
                            &mut cursors,
                            &zero,
                            slice_steps,
                            budget,
                            results,
                        );
                        done[i] = out.unwrap() == SliceOutcome::Finished;
                    }
                }
            }
            for ((order, (rows, used)), (_, results, budget)) in orders.iter().zip(&whole).zip(runs)
            {
                assert_eq!(budget.used(), *used, "{order:?}, slice_steps {slice_steps}");
                assert_eq!(
                    &rows_of(results),
                    rows,
                    "{order:?}, slice_steps {slice_steps}"
                );
            }
        }

        // The Skinner-C episode loop without the learner: the order changes
        // every slice, and [0, 1, 2, 3] and [0, 1, 3, 2] hand each other
        // their progress on the shared prefix [da, f].
        let sharing = [[0, 1, 2, 3], [0, 1, 3, 2], [0, 2, 1, 3]];
        let infos: Vec<OrderInfo> = sharing
            .iter()
            .map(|o| OrderInfo::build(&q, &ctx, o, true))
            .collect();
        let mut cursors = JoinCursors::default();
        for slice_steps in [1u64, 2, 3, 5, 7, 64] {
            let mut tracker = ProgressTracker::new(4, true);
            let mut offsets = zero.clone();
            let mut state = JoinState::fresh(&offsets);
            let mut results = ResultSet::new();
            let budget = WorkBudget::unlimited();
            let mut slices = 0;
            while offsets.iter().zip(&cards).all(|(o, n)| o < n) {
                let (order, info) = (&sharing[slices % 3], &infos[slices % 3]);
                tracker.restore_into(order, &offsets, &mut state);
                let out = continue_join(
                    info,
                    &mut state,
                    &mut cursors,
                    &offsets,
                    slice_steps,
                    &budget,
                    &mut results,
                );
                tracker.backup(order, &state);
                offsets[0] = offsets[0].max(state.s[0]);
                if out.unwrap() == SliceOutcome::Finished {
                    offsets[0] = cards[0];
                }
                slices += 1;
                assert!(slices < 10_000, "no convergence");
            }
            assert!(slices > 3, "slice_steps {slice_steps}: {slices} slices");
            assert_eq!(rows_of(results), expected, "slice_steps {slice_steps}");
        }
    }
}
