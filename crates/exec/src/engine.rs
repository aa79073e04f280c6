//! Blocking left-deep join execution with materialized intermediates.
//!
//! This is the "existing DBMS" execution model of paper Section 4.3: a join
//! order is executed as a sequence of binary joins (hash join when equality
//! predicates connect the next table, nested loops otherwise), each join
//! materializing its full intermediate result as a flat [`TupleBuf`]. If the
//! work budget runs out mid-way, **everything is lost** — there is no
//! partial-state backup, which is precisely the handicap Skinner-G's pyramid
//! timeout scheme works around and Skinner-C's custom engine eliminates.
//!
//! Two profiles model the paper's engines: a *row store* (Postgres-like,
//! higher per-tuple constant) and a *column store* (MonetDB-like, vectorized,
//! lower per-tuple constant, optional parallel probes).

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use skinner_query::query::GenericPred;
use skinner_query::{EquiPred, JoinQuery, Pred, TableSet};
use skinner_storage::hash::fold_keys;
use skinner_storage::{RowId, Table};

use crate::budget::{Timeout, WorkBudget};
use crate::pool::scatter_gather;
use crate::tuples::{TupleBuf, TupleView};

/// Execution-engine profile.
#[derive(Debug, Clone, Copy)]
pub struct ExecProfile {
    /// Vectorized column-at-a-time engine (MonetDB-like) vs row-at-a-time
    /// iterator engine (Postgres-like). Modelled as a per-tuple work-unit
    /// constant: 1 for vectorized, 3 for row-at-a-time.
    pub vectorized: bool,
    /// Probe-phase parallelism (>1 splits probes across threads).
    pub threads: usize,
}

impl ExecProfile {
    /// Postgres-like profile.
    pub fn row_store() -> Self {
        ExecProfile {
            vectorized: false,
            threads: 1,
        }
    }

    /// MonetDB-like single-threaded profile.
    pub fn column_store() -> Self {
        ExecProfile {
            vectorized: true,
            threads: 1,
        }
    }

    /// MonetDB-like multi-threaded profile.
    pub fn column_store_parallel(threads: usize) -> Self {
        ExecProfile {
            vectorized: true,
            threads: threads.max(1),
        }
    }

    #[inline]
    fn tuple_cost(&self) -> u64 {
        if self.vectorized {
            1
        } else {
            3
        }
    }
}

/// Join output: materialized tuples or (for the cardinality oracle) a count.
#[derive(Debug)]
pub enum JoinOutput {
    Tuples(TupleBuf),
    Count(u64),
}

impl JoinOutput {
    pub fn len(&self) -> u64 {
        match self {
            JoinOutput::Tuples(v) => v.len() as u64,
            JoinOutput::Count(c) => *c,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn into_tuples(self) -> TupleBuf {
        match self {
            JoinOutput::Tuples(v) => v,
            JoinOutput::Count(_) => panic!("count-only join output"),
        }
    }
}

/// Execute join `order` over (already filtered) `tables`.
///
/// * `leftmost_range` restricts the first table of the order to a row range —
///   Skinner-G's batches; pass `0..n` for full execution.
/// * `floors[t]` excludes rows `< floors[t]` of every table — batches already
///   processed and removed (paper Section 4.3).
/// * `count_only` skips materializing the final result (cardinality oracle).
///
/// `order` may cover a subset of the query's tables; only predicates fully
/// contained in the covered set are applied.
#[allow(clippy::too_many_arguments)]
pub fn execute_join(
    tables: &[Arc<Table>],
    query: &JoinQuery,
    order: &[usize],
    leftmost_range: Range<RowId>,
    floors: &[RowId],
    profile: &ExecProfile,
    budget: &WorkBudget,
    count_only: bool,
) -> Result<JoinOutput, Timeout> {
    assert!(!order.is_empty(), "empty join order");
    let tc = profile.tuple_cost();

    // Leftmost scan.
    let t0 = order[0];
    let lo = leftmost_range.start.max(floors[t0]);
    let hi = leftmost_range.end.min(tables[t0].cardinality());
    let mut tuple = vec![0 as RowId; query.num_tables()];
    let mut current = TupleBuf::new(tuple.len());
    for row in lo..hi {
        budget.charge(tc)?;
        tuple[t0] = row;
        current.push(&tuple);
    }

    let mut prefix = TableSet::singleton(t0);
    for (k, &tk) in order.iter().enumerate().skip(1) {
        let is_last = k + 1 == order.len();
        let out = step(
            tables,
            query,
            current.view(),
            prefix,
            tk,
            floors[tk],
            profile,
            budget,
            is_last && count_only,
        )?;
        match out {
            JoinOutput::Tuples(v) => std::mem::replace(&mut current, v).release(),
            JoinOutput::Count(c) => return Ok(JoinOutput::Count(c)),
        }
        prefix.insert(tk);
        if current.is_empty() {
            break;
        }
    }
    if count_only {
        Ok(JoinOutput::Count(current.len() as u64))
    } else {
        Ok(JoinOutput::Tuples(current))
    }
}

/// Join `current` (tuples over the `prefix` tables) with one more table
/// `tk`, materializing the extended tuples. Public for step-at-a-time
/// consumers (the re-optimizer baseline re-plans between steps).
#[allow(clippy::too_many_arguments)]
pub fn join_step(
    tables: &[Arc<Table>],
    query: &JoinQuery,
    current: TupleView<'_>,
    prefix: TableSet,
    tk: usize,
    floors: &[RowId],
    profile: &ExecProfile,
    budget: &WorkBudget,
) -> Result<TupleBuf, Timeout> {
    step(
        tables, query, current, prefix, tk, floors[tk], profile, budget, false,
    )
    .map(JoinOutput::into_tuples)
}

/// One binary join: `current` with the rows `floor..` of table `tk`, under
/// the predicates that joining `tk` to `prefix` makes applicable.
#[allow(clippy::too_many_arguments)]
fn step(
    tables: &[Arc<Table>],
    query: &JoinQuery,
    current: TupleView<'_>,
    prefix: TableSet,
    tk: usize,
    floor: RowId,
    profile: &ExecProfile,
    budget: &WorkBudget,
    count_only: bool,
) -> Result<JoinOutput, Timeout> {
    let step_set = prefix.with(tk);
    let equi: Vec<&EquiPred> = query
        .equi_preds
        .iter()
        .filter(|p| p.table_set().is_subset_of(&step_set) && p.side_on(tk).is_some())
        .collect();
    let generic: Vec<&GenericPred> = query
        .generic_preds
        .iter()
        .filter(|p| p.tables.is_subset_of(&step_set) && p.tables.contains(tk))
        .collect();
    let generic = Pred::lower_all(generic.iter().map(|p| &p.expr), tables);
    if equi.is_empty() {
        nested_loop_step(
            tables, current, tk, floor, &generic, profile, budget, count_only,
        )
    } else {
        hash_join_step(
            tables, current, tk, floor, &equi, &generic, profile, budget, count_only,
        )
    }
}

#[allow(clippy::too_many_arguments)]
fn hash_join_step(
    tables: &[Arc<Table>],
    current: TupleView<'_>,
    tk: usize,
    floor: RowId,
    equi: &[&EquiPred],
    generic: &[Pred],
    profile: &ExecProfile,
    budget: &WorkBudget,
    count_only: bool,
) -> Result<JoinOutput, Timeout> {
    let tc = profile.tuple_cost();
    let table = &tables[tk];
    let n = table.cardinality();
    // Build side: hash all (remaining) rows of tk on the combined key of its
    // equality columns. Rebuilt per invocation — real engines executing a
    // one-shot SQL statement do the same, which is exactly why Skinner-G's
    // slices are expensive on black-box engines.
    let cols: Vec<usize> = equi
        .iter()
        .map(|p| p.side_on(tk).expect("pred must touch tk").col)
        .collect();
    let mut build: HashMap<u64, Vec<RowId>> = HashMap::new();
    for row in floor..n {
        budget.charge(tc)?;
        let key = fold_keys(cols.iter().map(|&c| table.column(c).key_at(row)));
        build.entry(key).or_default().push(row);
    }

    // Probe side.
    let probe_one = |tuple: &[RowId],
                     out: &mut TupleBuf,
                     count: &mut u64,
                     scratch: &mut Vec<RowId>|
     -> Result<(), Timeout> {
        budget.charge(tc)?;
        let key = fold_keys(equi.iter().map(|p| {
            let other = p.other_side(tk).expect("two-sided pred");
            tables[other.table]
                .column(other.col)
                .key_at(tuple[other.table])
        }));
        let Some(matches) = build.get(&key) else {
            return Ok(());
        };
        scratch.clear();
        scratch.extend_from_slice(tuple);
        for &row in matches {
            budget.charge(1)?;
            // Verify against combined-key collisions.
            let verified = equi.iter().all(|p| {
                let mine = p.side_on(tk).unwrap();
                let other = p.other_side(tk).unwrap();
                tables[tk].column(mine.col).key_at(row)
                    == tables[other.table]
                        .column(other.col)
                        .key_at(tuple[other.table])
            });
            if !verified {
                continue;
            }
            scratch[tk] = row;
            budget.charge(generic.len() as u64)?;
            if generic.iter().all(|p| p.eval(scratch)) {
                budget.produce_tuples(1)?;
                budget.charge(tc.saturating_sub(1))?;
                if count_only {
                    *count += 1;
                } else {
                    out.push(scratch);
                }
            }
        }
        Ok(())
    };

    run_probe(current, profile, probe_one, count_only)
}

#[allow(clippy::too_many_arguments)]
fn nested_loop_step(
    tables: &[Arc<Table>],
    current: TupleView<'_>,
    tk: usize,
    floor: RowId,
    generic: &[Pred],
    profile: &ExecProfile,
    budget: &WorkBudget,
    count_only: bool,
) -> Result<JoinOutput, Timeout> {
    let tc = profile.tuple_cost();
    let n = tables[tk].cardinality();
    let probe_one = |tuple: &[RowId],
                     out: &mut TupleBuf,
                     count: &mut u64,
                     scratch: &mut Vec<RowId>|
     -> Result<(), Timeout> {
        scratch.clear();
        scratch.extend_from_slice(tuple);
        for row in floor..n {
            budget.charge(1)?;
            scratch[tk] = row;
            budget.charge(generic.len() as u64)?;
            if generic.iter().all(|p| p.eval(scratch)) {
                budget.produce_tuples(1)?;
                budget.charge(tc.saturating_sub(1))?;
                if count_only {
                    *count += 1;
                } else {
                    out.push(scratch);
                }
            }
        }
        Ok(())
    };
    run_probe(current, profile, probe_one, count_only)
}

/// Drive a per-tuple probe closure, in `profile.threads` chunks on the
/// shared pool; each chunk fills its own [`TupleBuf`], appended in chunk
/// order.
fn run_probe<F>(
    current: TupleView<'_>,
    profile: &ExecProfile,
    probe_one: F,
    count_only: bool,
) -> Result<JoinOutput, Timeout>
where
    F: Fn(&[RowId], &mut TupleBuf, &mut u64, &mut Vec<RowId>) -> Result<(), Timeout> + Sync,
{
    let (n, width) = (current.len(), current.arity());
    // Below 1 024 tuples, one chunk: it runs on the calling thread.
    let parts = if n < 1024 { 1 } else { profile.threads.max(1) };
    let chunk = n.div_ceil(parts).max(1);
    let probe_one = &probe_one;
    let tasks: Vec<_> = (0..n)
        .step_by(chunk)
        .map(|start| {
            let part = current.slice(start, (start + chunk).min(n));
            move || {
                let mut out = TupleBuf::new(width);
                let mut count = 0u64;
                let mut scratch = vec![0 as RowId; width];
                for tuple in part.iter() {
                    probe_one(tuple, &mut out, &mut count, &mut scratch)?;
                }
                Ok((out, count))
            }
        })
        .collect();
    let mut out = TupleBuf::new(width);
    let mut count = 0u64;
    for r in scatter_gather(tasks) {
        let (part, c) = r?;
        if out.is_empty() {
            out = part;
        } else {
            out.append(&part);
            part.release();
        }
        count += c;
    }
    Ok(if count_only {
        JoinOutput::Count(count)
    } else {
        JoinOutput::Tuples(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_query::{bind_select, parser::parse_statement, UdfRegistry};
    use skinner_storage::{schema, Catalog, Value};

    fn setup() -> (Catalog, UdfRegistry) {
        let cat = Catalog::new();
        let mut a = cat.builder("a", schema![("id", Int), ("g", Int)]);
        for i in 0..20 {
            a.push_row(&[Value::Int(i), Value::Int(i % 4)]);
        }
        cat.register(a.finish());
        let mut b = cat.builder("b", schema![("aid", Int), ("w", Int)]);
        for i in 0..30 {
            b.push_row(&[Value::Int(i % 20), Value::Int(i)]);
        }
        cat.register(b.finish());
        let mut c = cat.builder("c", schema![("bw", Int)]);
        for i in 0..10 {
            c.push_row(&[Value::Int(i * 3)]);
        }
        cat.register(c.finish());
        (cat, UdfRegistry::new())
    }

    fn bind(sql: &str, cat: &Catalog, udfs: &UdfRegistry) -> JoinQuery {
        match parse_statement(sql).unwrap() {
            skinner_query::ast::Statement::Select(s) => bind_select(&s, cat, udfs).unwrap(),
            _ => unreachable!(),
        }
    }

    fn full_run(q: &JoinQuery, order: &[usize], profile: &ExecProfile) -> TupleBuf {
        let budget = WorkBudget::unlimited();
        let floors = vec![0; q.num_tables()];
        let n0 = q.tables[order[0]].cardinality();
        execute_join(&q.tables, q, order, 0..n0, &floors, profile, &budget, false)
            .unwrap()
            .into_tuples()
    }

    #[test]
    fn two_table_hash_join() {
        let (cat, udfs) = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat, &udfs);
        let res = full_run(&q, &[0, 1], &ExecProfile::row_store());
        // Every b row matches exactly one a row → 30 results.
        assert_eq!(res.len(), 30);
        // Order invariance.
        let res2 = full_run(&q, &[1, 0], &ExecProfile::column_store());
        assert_eq!(res.len(), res2.len());
    }

    #[test]
    fn three_table_chain_and_count_only() {
        let (cat, udfs) = setup();
        let q = bind(
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw",
            &cat,
            &udfs,
        );
        let res = full_run(&q, &[0, 1, 2], &ExecProfile::row_store());
        let budget = WorkBudget::unlimited();
        let floors = vec![0; 3];
        let cnt = execute_join(
            &q.tables,
            &q,
            &[2, 1, 0],
            0..q.tables[2].cardinality(),
            &floors,
            &ExecProfile::column_store(),
            &budget,
            true,
        )
        .unwrap();
        assert_eq!(res.len() as u64, cnt.len());
    }

    #[test]
    fn nested_loop_for_theta_join() {
        let (cat, udfs) = setup();
        let q = bind("SELECT a.id FROM a, c WHERE a.id < c.bw", &cat, &udfs);
        let res = full_run(&q, &[0, 1], &ExecProfile::row_store());
        // Count manually: pairs (i, 3j) with i < 3j, i in 0..20, j in 0..10.
        let expected: usize = (0..20)
            .map(|i| (0..10).filter(|&j| i < 3 * j).count())
            .sum();
        assert_eq!(res.len(), expected);
    }

    #[test]
    fn batch_range_and_floors() {
        let (cat, udfs) = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat, &udfs);
        let budget = WorkBudget::unlimited();
        let floors = vec![0, 0];
        // Only a-rows 0..5 as the batch.
        let res = execute_join(
            &q.tables,
            &q,
            &[0, 1],
            0..5,
            &floors,
            &ExecProfile::row_store(),
            &budget,
            false,
        )
        .unwrap()
        .into_tuples();
        // b has 30 rows over aid = i % 20; aids 0..5 are hit twice each
        // (i and i+20 for i<10).
        assert_eq!(res.len(), 10);
        // Floor on b excludes its first 20 rows.
        let floors = vec![0, 20];
        let res = execute_join(
            &q.tables,
            &q,
            &[0, 1],
            0..20,
            &floors,
            &ExecProfile::row_store(),
            &budget,
            false,
        )
        .unwrap()
        .into_tuples();
        assert_eq!(res.len(), 10); // rows 20..30 of b → aids 0..10
    }

    #[test]
    fn timeout_propagates() {
        let (cat, udfs) = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat, &udfs);
        let budget = WorkBudget::with_limit(10);
        let floors = vec![0, 0];
        let r = execute_join(
            &q.tables,
            &q,
            &[0, 1],
            0..20,
            &floors,
            &ExecProfile::row_store(),
            &budget,
            false,
        );
        assert!(matches!(r, Err(Timeout)));
    }

    #[test]
    fn parallel_probe_matches_serial() {
        let (cat, udfs) = setup();
        let q = bind(
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw",
            &cat,
            &udfs,
        );
        let serial = full_run(&q, &[0, 1, 2], &ExecProfile::column_store());
        let parallel = full_run(&q, &[0, 1, 2], &ExecProfile::column_store_parallel(4));
        let key = |v: &TupleBuf| {
            let mut k: Vec<Vec<RowId>> = v.view().iter().map(|t| t.to_vec()).collect();
            k.sort();
            k
        };
        assert_eq!(key(&serial), key(&parallel));
    }

    #[test]
    fn chunked_probe_keeps_serial_order_and_work() {
        let cat = Catalog::new();
        let mut f = cat.builder("f", schema![("id", Int), ("k", Int)]);
        for i in 0..3000 {
            f.push_row(&[Value::Int(i), Value::Int(i % 17)]);
        }
        cat.register(f.finish());
        let mut d = cat.builder("d", schema![("k", Int)]);
        for i in 0..17 {
            d.push_row(&[Value::Int(i)]);
        }
        cat.register(d.finish());
        let udfs = UdfRegistry::new();
        // 3 000 probe tuples: four chunks at four threads, under both the
        // hash join and (with the equality written as an expression) the
        // nested loop.
        for sql in [
            "SELECT f.id FROM f, d WHERE f.k = d.k",
            "SELECT f.id FROM f, d WHERE f.k + 0 = d.k",
        ] {
            let q = bind(sql, &cat, &udfs);
            let run = |profile: &ExecProfile| {
                let budget = WorkBudget::unlimited();
                let out = execute_join(
                    &q.tables,
                    &q,
                    &[0, 1],
                    0..3000,
                    &[0, 0],
                    profile,
                    &budget,
                    false,
                )
                .unwrap()
                .into_tuples();
                (
                    out.view().iter().map(<[RowId]>::to_vec).collect::<Vec<_>>(),
                    budget.used(),
                )
            };
            let serial = run(&ExecProfile::column_store());
            assert_eq!(serial.0.len(), 3000, "{sql}");
            assert_eq!(serial, run(&ExecProfile::column_store_parallel(4)), "{sql}");
        }
    }

    #[test]
    fn empty_table_short_circuits() {
        let (cat, udfs) = setup();
        let mut e = cat.builder("empty_t", schema![("x", Int)]);
        let _ = &mut e;
        cat.register(e.finish());
        let q = bind(
            "SELECT a.id FROM a, empty_t WHERE a.id = empty_t.x",
            &cat,
            &udfs,
        );
        let res = full_run(&q, &[1, 0], &ExecProfile::row_store());
        assert!(res.is_empty());
    }

    #[test]
    fn row_store_charges_more_than_column_store() {
        let (cat, udfs) = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat, &udfs);
        let floors = vec![0, 0];
        let b_row = WorkBudget::unlimited();
        let b_col = WorkBudget::unlimited();
        execute_join(
            &q.tables,
            &q,
            &[0, 1],
            0..20,
            &floors,
            &ExecProfile::row_store(),
            &b_row,
            false,
        )
        .unwrap();
        execute_join(
            &q.tables,
            &q,
            &[0, 1],
            0..20,
            &floors,
            &ExecProfile::column_store(),
            &b_col,
            false,
        )
        .unwrap();
        assert!(b_row.used() > b_col.used());
        assert_eq!(b_row.tuples_produced(), b_col.tuples_produced());
    }
}
