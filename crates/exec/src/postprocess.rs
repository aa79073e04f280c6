//! Post-processing: projection, aggregation, grouping, ordering, limit.
//!
//! The paper's post-processor (Section 3) consumes join-result tuples —
//! index vectors into the filtered base tables — and produces the final
//! materialized result. Shared by every evaluation strategy, so result
//! comparison across strategies exercises identical code.
//!
//! # One compiled kernel
//!
//! Input is a flat [`TupleView`]: `arity` row ids per tuple, back to back
//! (what the Skinner-C result set stores and every engine hands over in a
//! [`crate::TupleBuf`]). Per call, `query.select` and `query.group_by` are
//! resolved once into typed column accessors (a borrowed `&[i64]` /
//! `&[f64]` / `&[u32]` plus the tuple position to index it with) and typed
//! accumulators, so the per-tuple loop reads raw column cells and builds
//! no `Value`, no group-key vector and no string:
//!
//! * `COUNT`, `SUM`/`AVG` on raw `i64`/`f64` in tuple order (float results
//!   stay bit-identical), `MIN`/`MAX` on raw ints/floats;
//! * `MIN`/`MAX` over strings by interner *code*, comparing the strings
//!   themselves only when the code differs from the current best, through
//!   an interner read the scan re-takes every 1024 tuples and gives back
//!   before any [`Expr::eval`];
//! * arithmetic and UDF select items keep [`Expr::eval`] as the accessor's
//!   fallback arm;
//! * scalar aggregates need no table at all; grouped ones probe an
//!   open-addressing table with a reused scratch key, and groups come out
//!   in **first-seen order** — deterministic at every thread count;
//! * work is counted in a [`crate::LocalWork`] and settled once per scan:
//!   one unit per tuple scanned, one per group finished, one per row the
//!   DISTINCT pass looks at.
//!
//! Two entry points produce identical results:
//!
//! * [`postprocess`] — the single-threaded pipeline every sequential
//!   strategy uses;
//! * [`postprocess_parallel`] — the same kernel over contiguous sub-ranges
//!   of the view, one task each on the process-wide pool
//!   ([`crate::pool::scatter_gather`]): every worker does **partial
//!   aggregation** (its own group table) or **projection + local sort**,
//!   and the coordinator finishes with a merge in chunk order (GROUP BY —
//!   accumulators merge pairwise, the earliest chunk's representative
//!   wins) or a k-way merge (ORDER BY — ties resolve to the earlier chunk,
//!   which reproduces the sequential stable sort exactly).
//!
//! Floating-point aggregates (`SUM` over floats, `AVG`) fall back to the
//! sequential scan even under [`postprocess_parallel`]: float addition is
//! not associative, so merging per-worker partial sums could differ from
//! the sequential result in the last ulp — and "identical results at every
//! thread count" is a contract here, not an aspiration.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt::Write;
use std::sync::Arc;

use skinner_query::expr::EvalCtx;
use skinner_query::{AggFunc, Expr, JoinQuery, SelectItem};
use skinner_storage::hash::fold_keys;
use skinner_storage::{Column, DataType, Interner, InternerRead, RowId, Table, Value};

use crate::budget::{Timeout, WorkBudget};
use crate::pool::{partition_tuples, scatter_gather};
use crate::result::QueryResult;
use crate::tuples::TupleView;

/// Below this many join tuples the parallel path is pure overhead and
/// [`postprocess_parallel`] delegates to the sequential pipeline.
const PARALLEL_MIN_TUPLES: usize = 256;

/// A scan gives its interner read back at least this often, so a session
/// interning a new string waits for a bounded stretch of another's scan.
const HOLD_TUPLES: usize = 1024;

/// Materialize the final result from join tuples (single-threaded).
pub fn postprocess(
    tables: &[Arc<Table>],
    query: &JoinQuery,
    tuples: TupleView<'_>,
    budget: &WorkBudget,
) -> Result<QueryResult, Timeout> {
    Kernel::compile(tables, query).run(tuples, budget)
}

/// Materialize the final result from join tuples, splitting the
/// per-tuple scan across `threads` workers. Produces exactly the same
/// rows as [`postprocess`] — thread count is a performance knob, never a
/// correctness knob (see the module docs for how the merges preserve
/// sequential semantics, and why float aggregation opts out).
pub fn postprocess_parallel(
    tables: &[Arc<Table>],
    query: &JoinQuery,
    tuples: TupleView<'_>,
    budget: &WorkBudget,
    threads: usize,
) -> Result<QueryResult, Timeout> {
    let kernel = Kernel::compile(tables, query);
    if threads <= 1 || tuples.len() < PARALLEL_MIN_TUPLES || kernel.fp_sensitive() {
        return kernel.run(tuples, budget);
    }

    let ranges = partition_tuples(0, tuples.len() as u64, threads);
    let nparts = ranges.len().max(1) as u64;
    // Reserve the workers' budget up front (`try_consume` never
    // overspends): one unit per tuple of each chunk — exactly what the
    // scan charges — plus an equal share of the budget's slack as
    // headroom, so a query that fits the budget sequentially always fits
    // in parallel too. The reservation (≤ `remaining` by construction) is
    // released after the gather and the actual consumption recorded
    // instead — the same discipline as the episode loop.
    let total = tuples.len() as u64;
    let remaining = budget.remaining();
    if total > remaining {
        return Err(Timeout); // the sequential scan would exhaust it too
    }
    let slack = (remaining - total) / nparts;
    let reserve: u64 = total + slack * nparts;
    if !budget.try_consume(reserve) {
        return Err(Timeout);
    }

    // Workers pre-sort their chunk only when the coordinator can finish
    // with a pure merge: DISTINCT must see rows in input order first (it
    // keeps first occurrences), so with DISTINCT the sort stays sequential.
    let local_sort = !query.order_by.is_empty() && !query.distinct && !kernel.aggregating;

    /// One worker's output: its chunk's group table or projected rows.
    enum Partial {
        Groups(Groups),
        Rows(Vec<Vec<Value>>),
    }

    // One task per chunk on the shared pool; results come back in chunk
    // order, which the merges below depend on (group representatives,
    // concatenation, merge ties).
    let kernel = &kernel;
    let tasks: Vec<_> = ranges
        .iter()
        .map(|&range| {
            move || {
                let budget = WorkBudget::with_limit(range.len() + slack);
                let chunk = tuples.slice(range.start as usize, range.end as usize);
                let cx = kernel.open();
                let body = if kernel.aggregating {
                    kernel.scan_groups(chunk, &budget, &cx).map(Partial::Groups)
                } else {
                    kernel.project(chunk, &budget, &cx).map(|mut rows| {
                        if local_sort {
                            rows.sort_by(|a, b| order_cmp(query, a, b));
                        }
                        Partial::Rows(rows)
                    })
                };
                (body, budget.used())
            }
        })
        .collect();
    let reports: Vec<(Result<Partial, Timeout>, u64)> = scatter_gather(tasks);

    budget.refund(reserve);
    for (_, used) in &reports {
        let _ = budget.charge(*used);
    }
    let parts = reports
        .into_iter()
        .map(|(body, _)| body)
        .collect::<Result<Vec<Partial>, Timeout>>()?;

    let mut rows: Vec<Vec<Value>> = if kernel.aggregating {
        // Merge in chunk order: first-seen representatives win, so each
        // group's representative is the globally earliest tuple and groups
        // keep their global first-seen order — exactly the sequential scan.
        let cx = kernel.open();
        let mut merged = kernel.new_groups(tuples.arity());
        for part in parts {
            let Partial::Groups(groups) = part else {
                unreachable!("aggregating workers report groups")
            };
            kernel.merge_groups(&mut merged, groups, &cx);
        }
        kernel.finish_groups(merged, budget, &cx)?
    } else {
        let chunks: Vec<Vec<Vec<Value>>> = parts
            .into_iter()
            .map(|part| {
                let Partial::Rows(rows) = part else {
                    unreachable!("projecting workers report rows")
                };
                rows
            })
            .collect();
        if local_sort {
            kway_merge_sorted(query, chunks)
        } else {
            chunks.into_iter().flatten().collect()
        }
    };

    finalize(query, &mut rows, budget, local_sort)?;
    Ok(QueryResult {
        columns: kernel.columns(),
        rows,
    })
}

/// Typed reader of one expression at a join tuple, resolved once per call:
/// a plain column becomes its raw cell array plus the tuple position whose
/// row id indexes it.
enum Accessor<'a> {
    Int(usize, &'a [i64]),
    Float(usize, &'a [f64]),
    Str(usize, &'a [u32]),
    /// Everything else — arithmetic, UDF calls, literals — evaluates the
    /// bound expression.
    Eval(&'a Expr),
}

impl<'a> Accessor<'a> {
    fn compile(tables: &'a [Arc<Table>], expr: &'a Expr) -> Self {
        if let Expr::Col(c, dtype) = expr {
            match tables[c.table].column(c.col) {
                Column::Int(v) if *dtype == DataType::Int => return Accessor::Int(c.table, v),
                Column::Float(v) if *dtype == DataType::Float => {
                    return Accessor::Float(c.table, v)
                }
                Column::Str(v) if *dtype == DataType::Str => return Accessor::Str(c.table, v),
                _ => {}
            }
        }
        Accessor::Eval(expr)
    }

    /// The value as an integer; non-integers count as 0 (there are no
    /// NULLs), as `Value::as_i64().unwrap_or(0)` does.
    #[inline]
    fn int(&self, t: &[RowId], cx: &Cx<'_>) -> i64 {
        match self {
            Accessor::Int(pos, v) => v[t[*pos] as usize],
            Accessor::Float(..) | Accessor::Str(..) => 0,
            Accessor::Eval(e) => cx.eval(e, t).as_i64().unwrap_or(0),
        }
    }

    /// The value widened to a float; strings count as 0.0.
    #[inline]
    fn float(&self, t: &[RowId], cx: &Cx<'_>) -> f64 {
        match self {
            Accessor::Int(pos, v) => v[t[*pos] as usize] as f64,
            Accessor::Float(pos, v) => v[t[*pos] as usize],
            Accessor::Str(..) => 0.0,
            Accessor::Eval(e) => cx.eval(e, t).as_f64().unwrap_or(0.0),
        }
    }

    /// Canonical `u64` equality key (mirrors `Column::key_at`).
    #[inline]
    fn key(&self, t: &[RowId], cx: &Cx<'_>) -> u64 {
        match self {
            Accessor::Int(pos, v) => v[t[*pos] as usize] as u64,
            Accessor::Float(pos, v) => {
                let f = v[t[*pos] as usize];
                (if f == 0.0 { 0.0 } else { f }).to_bits()
            }
            Accessor::Str(pos, v) => v[t[*pos] as usize] as u64,
            Accessor::Eval(e) => cx.eval_key(e, t),
        }
    }

    /// The materialized output value.
    fn value(&self, t: &[RowId], cx: &Cx<'_>) -> Value {
        match self {
            Accessor::Int(pos, v) => Value::Int(v[t[*pos] as usize]),
            Accessor::Float(pos, v) => Value::Float(v[t[*pos] as usize]),
            Accessor::Str(pos, v) => cx.string(v[t[*pos] as usize]),
            Accessor::Eval(e) => cx.eval(e, t),
        }
    }
}

/// What one scan reads through: the tables and the interner for the `Eval`
/// arm, and for the kernel's own string cells and comparisons a read of the
/// interner that stays open between them instead of a lock round-trip each.
///
/// The interner's lock is not re-entrant (a waiting writer makes a second
/// read on the same thread deadlock) and expression evaluation reads the
/// interner too, so [`Cx::eval`] gives the read back first; the tuple
/// loops give it back every [`HOLD_TUPLES`] tuples, which bounds how long
/// an `intern` on another session can wait.
struct Cx<'a> {
    tables: &'a [Arc<Table>],
    interner: &'a Interner,
    held: RefCell<Option<InternerRead<'a>>>,
}

impl Cx<'_> {
    #[inline]
    fn release(&self) {
        self.held.borrow_mut().take();
    }

    /// Called once per scanned tuple (or finished group), with its number.
    #[inline]
    fn tick(&self, n: usize) {
        if n.is_multiple_of(HOLD_TUPLES) {
            self.release();
        }
    }

    #[inline]
    fn eval(&self, e: &Expr, t: &[RowId]) -> Value {
        self.release();
        e.eval(&EvalCtx::new(self.tables, t, self.interner))
    }

    #[inline]
    fn eval_key(&self, e: &Expr, t: &[RowId]) -> u64 {
        self.release();
        e.eval_key(&EvalCtx::new(self.tables, t, self.interner))
    }

    /// Run `f` on the open interner read, opening it if need be. `f` only
    /// looks strings up; it must not evaluate expressions.
    #[inline]
    fn strings<R>(&self, f: impl FnOnce(&InternerRead<'_>) -> R) -> R {
        let mut held = self.held.borrow_mut();
        f(held.get_or_insert_with(|| self.interner.read()))
    }

    fn string(&self, code: u32) -> Value {
        Value::Str(self.strings(|s| s.get(code).clone()))
    }

    /// Order two interned strings. Equal codes are equal strings; only
    /// different codes cost a string comparison.
    #[inline]
    fn cmp_codes(&self, a: u32, b: u32) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        self.strings(|s| s.get(a).as_ref().cmp(s.get(b).as_ref()))
    }
}

/// One aggregate select item.
struct Agg<'a> {
    /// `None` only for `COUNT(*)`.
    arg: Option<Accessor<'a>>,
    /// The comparison outcome that replaces the current best: `Less` for
    /// `MIN`, `Greater` for `MAX`.
    want: Ordering,
    /// The accumulator every group starts from.
    init: Acc,
}

/// One aggregate accumulator, typed by its argument's accessor.
///
/// Divergence from SQL: there are no NULLs in this system, so empty
/// `SUM`/`MIN`/`MAX`/`AVG` groups finish to 0 (respectively 0.0) instead of
/// NULL. Only scalar aggregates over empty inputs can observe this.
#[derive(Debug, Clone)]
enum Acc {
    Count(u64),
    SumI(i64),
    SumF(f64),
    Avg {
        sum: f64,
        n: u64,
    },
    /// `MIN`/`MAX` over an integer column.
    BestI(Option<i64>),
    /// … a float column (a NaN never replaces and is never replaced,
    /// as under `partial_cmp`).
    BestF(Option<f64>),
    /// … a string column, by interner code.
    BestS(Option<u32>),
    /// … a computed argument.
    BestV(Option<Value>),
}

/// `best` ← `v` if there is no best yet or `v` beats it.
#[inline]
fn keep_best<T>(best: &mut Option<T>, v: T, beats: impl FnOnce(&T, &T) -> bool) {
    if best.as_ref().is_none_or(|cur| beats(&v, cur)) {
        *best = Some(v);
    }
}

impl Acc {
    #[inline]
    fn update(&mut self, agg: &Agg<'_>, t: &[RowId], cx: &Cx<'_>) {
        let want = agg.want;
        let Some(arg) = &agg.arg else {
            let Acc::Count(c) = self else {
                unreachable!("only COUNT(*) has no argument")
            };
            *c += 1;
            return;
        };
        match self {
            Acc::Count(c) => {
                // No NULLs: every tuple counts. A computed argument is
                // still evaluated, for its UDF call counters.
                if let Accessor::Eval(e) = arg {
                    cx.eval(e, t);
                }
                *c += 1;
            }
            Acc::SumI(s) => *s = s.wrapping_add(arg.int(t, cx)),
            Acc::SumF(s) => *s += arg.float(t, cx),
            Acc::Avg { sum, n } => {
                *sum += arg.float(t, cx);
                *n += 1;
            }
            Acc::BestI(best) => keep_best(best, arg.int(t, cx), |v, cur| v.cmp(cur) == want),
            Acc::BestF(best) => keep_best(best, arg.float(t, cx), |v, cur| {
                v.partial_cmp(cur) == Some(want)
            }),
            Acc::BestS(best) => {
                let Accessor::Str(pos, codes) = arg else {
                    unreachable!("BestS accumulates a string column")
                };
                keep_best(best, codes[t[*pos] as usize], |v, cur| {
                    cx.cmp_codes(*v, *cur) == want
                });
            }
            Acc::BestV(best) => keep_best(best, arg.value(t, cx), |v, cur| {
                v.compare(cur) == Some(want)
            }),
        }
    }

    /// Fold another partial accumulator of the same kind into this one
    /// (the merge step of parallel aggregation). Kinds always match: both
    /// sides started from the same [`Agg::init`].
    fn merge(&mut self, other: Acc, want: Ordering, cx: &Cx<'_>) {
        match (self, other) {
            (Acc::Count(a), Acc::Count(b)) => *a += b,
            (Acc::SumI(a), Acc::SumI(b)) => *a = a.wrapping_add(b),
            // Float accumulators never reach the merge: float addition is
            // not associative, so `postprocess_parallel`'s fp_sensitive
            // gate routes them through the sequential scan. Reaching this
            // arm means that gate broke — fail loudly rather than diverge
            // from the sequential result in the last ulp.
            (Acc::SumF(_), Acc::SumF(_)) | (Acc::Avg { .. }, Acc::Avg { .. }) => {
                unreachable!("float accumulators must take the sequential path")
            }
            (Acc::BestI(a), Acc::BestI(b)) => {
                if let Some(v) = b {
                    keep_best(a, v, |v, cur| v.cmp(cur) == want);
                }
            }
            (Acc::BestF(a), Acc::BestF(b)) => {
                if let Some(v) = b {
                    keep_best(a, v, |v, cur| v.partial_cmp(cur) == Some(want));
                }
            }
            (Acc::BestS(a), Acc::BestS(b)) => {
                if let Some(v) = b {
                    keep_best(a, v, |v, cur| cx.cmp_codes(*v, *cur) == want);
                }
            }
            (Acc::BestV(a), Acc::BestV(b)) => {
                if let Some(v) = b {
                    keep_best(a, v, |v, cur| v.compare(cur) == Some(want));
                }
            }
            _ => unreachable!("merging accumulators of different kinds"),
        }
    }

    fn finish(&self, cx: &Cx<'_>) -> Value {
        match self {
            Acc::Count(c) => Value::Int(*c as i64),
            Acc::SumI(s) => Value::Int(*s),
            Acc::SumF(s) => Value::Float(*s),
            Acc::Avg { sum, n } => Value::Float(if *n == 0 { 0.0 } else { sum / *n as f64 }),
            Acc::BestI(best) => Value::Int(best.unwrap_or(0)),
            Acc::BestF(best) => best.map_or(Value::Int(0), Value::Float),
            Acc::BestS(best) => best.map_or(Value::Int(0), |code| cx.string(code)),
            Acc::BestV(best) => best.clone().unwrap_or(Value::Int(0)),
        }
    }
}

/// One select item, compiled.
enum Item<'a> {
    /// Evaluated per tuple (projection) or on the group's representative.
    Plain(Accessor<'a>),
    /// Position in [`Kernel::aggs`].
    Agg(usize),
}

/// Accumulated groups in first-seen order: flat key, representative-tuple
/// (the first seen, which non-aggregate select items are evaluated on) and
/// accumulator arrays, plus an open-addressing table over the keys.
/// Scalar aggregates (`nkeys == 0`) have at most one group and no table.
struct Groups {
    nkeys: usize,
    arity: usize,
    naggs: usize,
    len: usize,
    keys: Vec<u64>,
    reprs: Vec<RowId>,
    accs: Vec<Acc>,
    /// Group number + 1 per slot, 0 = empty. Power-of-two sized (or empty
    /// before the first insert) and at most half full.
    slots: Vec<u32>,
}

const MIN_SLOTS: usize = 16;

/// The engine's one key hash ([`fold_keys`], shared with the join index):
/// dense keys such as consecutive order keys spread over the whole table.
#[inline]
fn hash_key(key: &[u64]) -> u64 {
    fold_keys(key.iter().copied())
}

impl Groups {
    #[inline]
    fn key(&self, g: usize) -> &[u64] {
        &self.keys[g * self.nkeys..(g + 1) * self.nkeys]
    }

    #[inline]
    fn repr(&self, g: usize) -> &[RowId] {
        &self.reprs[g * self.arity..(g + 1) * self.arity]
    }

    #[inline]
    fn accs(&self, g: usize) -> &[Acc] {
        &self.accs[g * self.naggs..(g + 1) * self.naggs]
    }

    #[inline]
    fn accs_mut(&mut self, g: usize) -> &mut [Acc] {
        &mut self.accs[g * self.naggs..(g + 1) * self.naggs]
    }

    /// Home slot of a hash: its top bits.
    #[inline]
    fn home(&self, h: u64) -> usize {
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    fn grow(&mut self) {
        let n = (self.slots.len() * 2).max(MIN_SLOTS);
        self.slots = vec![0; n];
        for g in 0..self.len {
            let mut i = self.home(hash_key(self.key(g)));
            while self.slots[i] != 0 {
                i = (i + 1) & (n - 1);
            }
            self.slots[i] = g as u32 + 1;
        }
    }

    /// The group of `key`, appended with representative `repr` if new
    /// (then the caller appends its accumulators). Returns the group
    /// number and whether it is new.
    #[inline]
    fn entry(&mut self, key: &[u64], repr: &[RowId]) -> (usize, bool) {
        if self.nkeys == 0 {
            if self.len == 1 {
                return (0, false);
            }
        } else {
            if (self.len + 1) * 2 > self.slots.len() {
                self.grow();
            }
            let mask = self.slots.len() - 1;
            let mut i = self.home(hash_key(key));
            loop {
                match self.slots[i] {
                    0 => break,
                    e if self.key(e as usize - 1) == key => return (e as usize - 1, false),
                    _ => i = (i + 1) & mask,
                }
            }
            assert!(self.len < u32::MAX as usize, "group table full");
            self.slots[i] = self.len as u32 + 1;
        }
        self.keys.extend_from_slice(key);
        self.reprs.extend_from_slice(repr);
        self.len += 1;
        (self.len - 1, true)
    }
}

/// `query.select` / `query.group_by` resolved against `tables`, once per
/// call.
struct Kernel<'a> {
    tables: &'a [Arc<Table>],
    query: &'a JoinQuery,
    interner: &'a Interner,
    items: Vec<Item<'a>>,
    aggs: Vec<Agg<'a>>,
    keys: Vec<Accessor<'a>>,
    /// The grouping pipeline (vs one output row per tuple).
    aggregating: bool,
}

impl<'a> Kernel<'a> {
    fn compile(tables: &'a [Arc<Table>], query: &'a JoinQuery) -> Self {
        let interner = tables
            .first()
            .expect("a query has at least one table")
            .interner();
        let mut aggs = Vec::new();
        let items: Vec<Item<'a>> = query
            .select
            .iter()
            .map(|item| match item {
                SelectItem::Expr { expr, .. } => Item::Plain(Accessor::compile(tables, expr)),
                SelectItem::Agg { func, arg, .. } => {
                    let float = arg.as_ref().is_some_and(|a| a.dtype() == DataType::Float);
                    let arg = arg.as_ref().map(|a| Accessor::compile(tables, a));
                    let init = match func {
                        AggFunc::Count => Acc::Count(0),
                        AggFunc::Sum if float => Acc::SumF(0.0),
                        AggFunc::Sum => Acc::SumI(0),
                        AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
                        AggFunc::Min | AggFunc::Max => match arg {
                            Some(Accessor::Int(..)) => Acc::BestI(None),
                            Some(Accessor::Float(..)) => Acc::BestF(None),
                            Some(Accessor::Str(..)) => Acc::BestS(None),
                            Some(Accessor::Eval(_)) | None => Acc::BestV(None),
                        },
                    };
                    let want = if *func == AggFunc::Max {
                        Ordering::Greater
                    } else {
                        Ordering::Less
                    };
                    aggs.push(Agg { arg, want, init });
                    Item::Agg(aggs.len() - 1)
                }
            })
            .collect();
        let keys: Vec<Accessor<'a>> = query
            .group_by
            .iter()
            .map(|g| Accessor::compile(tables, g))
            .collect();

        Kernel {
            tables,
            query,
            interner,
            aggregating: query.has_aggregates() || !query.group_by.is_empty(),
            items,
            aggs,
            keys,
        }
    }

    fn columns(&self) -> Vec<String> {
        self.query
            .select
            .iter()
            .map(|s| s.name().to_string())
            .collect()
    }

    /// Float sums depend on addition order, so they never split across
    /// workers.
    fn fp_sensitive(&self) -> bool {
        self.aggs
            .iter()
            .any(|a| matches!(a.init, Acc::SumF(_) | Acc::Avg { .. }))
    }

    /// Open the context one scan (or one merge + finish) reads through.
    fn open(&self) -> Cx<'a> {
        Cx {
            tables: self.tables,
            interner: self.interner,
            held: RefCell::new(None),
        }
    }

    /// The whole sequential pipeline.
    fn run(&self, tuples: TupleView<'_>, budget: &WorkBudget) -> Result<QueryResult, Timeout> {
        let mut rows = {
            let cx = self.open();
            if self.aggregating {
                let groups = self.scan_groups(tuples, budget, &cx)?;
                self.finish_groups(groups, budget, &cx)?
            } else {
                self.project(tuples, budget, &cx)?
            }
        };
        finalize(self.query, &mut rows, budget, false)?;
        Ok(QueryResult {
            columns: self.columns(),
            rows,
        })
    }

    /// Project one output row per join tuple (the non-aggregate pipeline).
    fn project(
        &self,
        tuples: TupleView<'_>,
        budget: &WorkBudget,
        cx: &Cx<'_>,
    ) -> Result<Vec<Vec<Value>>, Timeout> {
        let mut out = Vec::with_capacity(tuples.len());
        let mut work = budget.local();
        for (n, t) in tuples.iter().enumerate() {
            work.charge(1)?;
            cx.tick(n);
            let row: Vec<Value> = self
                .items
                .iter()
                .map(|item| match item {
                    Item::Plain(a) => a.value(t, cx),
                    Item::Agg(_) => unreachable!("projection has no aggregates"),
                })
                .collect();
            out.push(row);
        }
        Ok(out)
    }

    fn new_groups(&self, arity: usize) -> Groups {
        Groups {
            nkeys: self.keys.len(),
            arity,
            naggs: self.aggs.len(),
            len: 0,
            keys: Vec::new(),
            reprs: Vec::new(),
            accs: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Scan `tuples` into per-group accumulators: the partial-aggregation
    /// kernel both the sequential pipeline (over all tuples) and each
    /// parallel worker (over its chunk) run.
    fn scan_groups(
        &self,
        tuples: TupleView<'_>,
        budget: &WorkBudget,
        cx: &Cx<'_>,
    ) -> Result<Groups, Timeout> {
        let mut groups = self.new_groups(tuples.arity());
        let mut key = vec![0u64; self.keys.len()];
        let mut work = budget.local();
        for (n, t) in tuples.iter().enumerate() {
            work.charge(1)?;
            cx.tick(n);
            for (k, accessor) in key.iter_mut().zip(&self.keys) {
                *k = accessor.key(t, cx);
            }
            let (g, new) = groups.entry(&key, t);
            if new {
                groups.accs.extend(self.aggs.iter().map(|a| a.init.clone()));
            }
            for (acc, agg) in groups.accs_mut(g).iter_mut().zip(&self.aggs) {
                acc.update(agg, t, cx);
            }
        }
        Ok(groups)
    }

    /// Fold a later chunk's groups into `merged`, keeping first-seen order
    /// and the earlier representative.
    fn merge_groups(&self, merged: &mut Groups, mut part: Groups, cx: &Cx<'_>) {
        let mut accs = std::mem::take(&mut part.accs).into_iter();
        for g in 0..part.len {
            cx.tick(g);
            let (m, new) = merged.entry(part.key(g), part.repr(g));
            let theirs = accs.by_ref().take(part.naggs);
            if new {
                merged.accs.extend(theirs);
            } else {
                for ((mine, other), agg) in
                    merged.accs_mut(m).iter_mut().zip(theirs).zip(&self.aggs)
                {
                    mine.merge(other, agg.want, cx);
                }
            }
        }
    }

    /// Turn accumulated groups into output rows, in first-seen order (plus
    /// the scalar-aggregate empty-input row).
    fn finish_groups(
        &self,
        groups: Groups,
        budget: &WorkBudget,
        cx: &Cx<'_>,
    ) -> Result<Vec<Vec<Value>>, Timeout> {
        // Scalar aggregate over empty input still yields one row.
        if self.keys.is_empty() && groups.len == 0 {
            let row = self
                .items
                .iter()
                .map(|item| match item {
                    Item::Plain(_) => Value::Int(0),
                    Item::Agg(i) => self.aggs[*i].init.finish(cx),
                })
                .collect();
            return Ok(vec![row]);
        }
        let mut rows = Vec::with_capacity(groups.len);
        let mut work = budget.local();
        for g in 0..groups.len {
            work.charge(1)?;
            cx.tick(g);
            let row: Vec<Value> = self
                .items
                .iter()
                .map(|item| match item {
                    Item::Plain(a) => a.value(groups.repr(g), cx),
                    Item::Agg(i) => groups.accs(g)[*i].finish(cx),
                })
                .collect();
            rows.push(row);
        }
        Ok(rows)
    }
}

/// The shared tail: DISTINCT (keeps first occurrences, in row order), then
/// ORDER BY (stable; skipped when the rows arrive already merged-sorted),
/// then LIMIT.
fn finalize(
    query: &JoinQuery,
    rows: &mut Vec<Vec<Value>>,
    budget: &WorkBudget,
    sorted: bool,
) -> Result<(), Timeout> {
    if query.distinct {
        let mut seen = HashSet::new();
        let mut kept = Vec::with_capacity(rows.len());
        let mut work = budget.local();
        for row in rows.drain(..) {
            work.charge(1)?;
            if seen.insert(row_key(&row)) {
                kept.push(row);
            }
        }
        *rows = kept;
    }

    if !query.order_by.is_empty() && !sorted {
        rows.sort_by(|a, b| order_cmp(query, a, b));
    }

    if let Some(limit) = query.limit {
        rows.truncate(limit);
    }
    Ok(())
}

/// Compare two output rows under the query's ORDER BY keys.
fn order_cmp(query: &JoinQuery, a: &[Value], b: &[Value]) -> Ordering {
    for k in &query.order_by {
        let ord = a[k.output_col]
            .compare(&b[k.output_col])
            .unwrap_or(Ordering::Equal);
        let ord = if k.asc { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Merge per-chunk sorted runs into one sorted vector in
/// `O(rows · log chunks)`. Ties on the ORDER BY keys go to the earlier
/// chunk, which makes the merge byte-identical to a stable sort of the
/// chunk concatenation — i.e. to what the sequential pipeline returns.
fn kway_merge_sorted(query: &JoinQuery, chunks: Vec<Vec<Vec<Value>>>) -> Vec<Vec<Value>> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// One chunk's current head row, ordered by (ORDER BY keys, chunk).
    struct Head<'q> {
        query: &'q JoinQuery,
        chunk: usize,
        row: Vec<Value>,
    }
    impl PartialEq for Head<'_> {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for Head<'_> {}
    impl PartialOrd for Head<'_> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Head<'_> {
        fn cmp(&self, other: &Self) -> Ordering {
            // The chunk-index tiebreaker is the stability rule: equal keys
            // emit the earlier chunk's row first.
            order_cmp(self.query, &self.row, &other.row).then(self.chunk.cmp(&other.chunk))
        }
    }

    let total = chunks.iter().map(Vec::len).sum();
    let mut iters: Vec<std::vec::IntoIter<Vec<Value>>> =
        chunks.into_iter().map(Vec::into_iter).collect();
    let mut heap: BinaryHeap<Reverse<Head>> = iters
        .iter_mut()
        .enumerate()
        .filter_map(|(chunk, it)| it.next().map(|row| Reverse(Head { query, chunk, row })))
        .collect();
    let mut out: Vec<Vec<Value>> = Vec::with_capacity(total);
    while let Some(Reverse(head)) = heap.pop() {
        if let Some(row) = iters[head.chunk].next() {
            heap.push(Reverse(Head {
                query,
                chunk: head.chunk,
                row,
            }));
        }
        out.push(head.row);
    }
    out
}

/// DISTINCT's row identity: floats to nine decimals, integers as
/// displayed, strings prefixed with their length, so no string's bytes can
/// pass for a separator.
fn row_key(row: &[Value]) -> String {
    let mut s = String::new();
    for v in row {
        let _ = match v {
            Value::Float(x) => write!(s, "{x:.9}|"),
            Value::Str(x) => write!(s, "{}:{x}|", x.len()),
            other => write!(s, "{other}|"),
        };
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_query::{bind_select, parser::parse_statement, UdfRegistry};
    use skinner_storage::{schema, Catalog};

    fn setup() -> Catalog {
        let cat = Catalog::new();
        let mut a = cat.builder("a", schema![("g", Int), ("x", Int), ("f", Float)]);
        for i in 0..10 {
            a.push_row(&[
                Value::Int(i % 3),
                Value::Int(i),
                Value::Float(i as f64 * 0.5),
            ]);
        }
        cat.register(a.finish());
        cat
    }

    /// A catalog big enough that `postprocess_parallel` actually splits.
    fn big_setup(n: i64) -> Catalog {
        let cat = Catalog::new();
        let mut a = cat.builder("a", schema![("g", Int), ("x", Int), ("f", Float)]);
        for i in 0..n {
            a.push_row(&[
                Value::Int(i % 7),
                Value::Int((i * 37) % 1000),
                Value::Float(i as f64 * 0.25),
            ]);
        }
        cat.register(a.finish());
        cat
    }

    fn bind(sql: &str, cat: &Catalog) -> JoinQuery {
        let udfs = UdfRegistry::new();
        match parse_statement(sql).unwrap() {
            skinner_query::ast::Statement::Select(s) => bind_select(&s, cat, &udfs).unwrap(),
            _ => unreachable!(),
        }
    }

    /// Every row of the single query table, as arity-1 tuples.
    fn all_tuples(n: u32) -> Vec<RowId> {
        (0..n).collect()
    }

    fn view(ids: &[RowId]) -> TupleView<'_> {
        TupleView::new(ids, 1)
    }

    #[test]
    fn plain_projection() {
        let cat = setup();
        let q = bind("SELECT a.x FROM a", &cat);
        let budget = WorkBudget::unlimited();
        let r = postprocess(&q.tables, &q, view(&all_tuples(10)), &budget).unwrap();
        assert_eq!(r.num_rows(), 10);
        assert_eq!(r.columns, vec!["a.x"]);
    }

    #[test]
    fn group_by_with_all_aggregates() {
        let cat = setup();
        let q = bind(
            "SELECT a.g, COUNT(*) c, SUM(a.x) s, MIN(a.x) mn, MAX(a.x) mx, AVG(a.f) av \
             FROM a GROUP BY a.g ORDER BY a.g",
            &cat,
        );
        let budget = WorkBudget::unlimited();
        let r = postprocess(&q.tables, &q, view(&all_tuples(10)), &budget).unwrap();
        assert_eq!(r.num_rows(), 3);
        // Group 0: x ∈ {0,3,6,9} → count 4, sum 18, min 0, max 9, avg f 2.25.
        let row0 = &r.rows[0];
        assert_eq!(row0[0], Value::Int(0));
        assert_eq!(row0[1], Value::Int(4));
        assert_eq!(row0[2], Value::Int(18));
        assert_eq!(row0[3], Value::Int(0));
        assert_eq!(row0[4], Value::Int(9));
        assert!((row0[5].as_f64().unwrap() - 2.25).abs() < 1e-9);
    }

    #[test]
    fn scalar_aggregate_on_empty_input() {
        let cat = setup();
        let q = bind("SELECT COUNT(*) c, SUM(a.x) s FROM a", &cat);
        let budget = WorkBudget::unlimited();
        let r = postprocess(&q.tables, &q, view(&[]), &budget).unwrap();
        assert_eq!(r.num_rows(), 1);
        assert_eq!(r.rows[0][0], Value::Int(0));
        assert_eq!(r.rows[0][1], Value::Int(0));
    }

    #[test]
    fn order_desc_and_limit() {
        let cat = setup();
        let q = bind("SELECT a.x FROM a ORDER BY a.x DESC LIMIT 3", &cat);
        let budget = WorkBudget::unlimited();
        let r = postprocess(&q.tables, &q, view(&all_tuples(10)), &budget).unwrap();
        assert_eq!(r.num_rows(), 3);
        assert_eq!(r.rows[0][0], Value::Int(9));
        assert_eq!(r.rows[2][0], Value::Int(7));
    }

    #[test]
    fn distinct_dedupes() {
        let cat = setup();
        let q = bind("SELECT DISTINCT a.g FROM a", &cat);
        let budget = WorkBudget::unlimited();
        let r = postprocess(&q.tables, &q, view(&all_tuples(10)), &budget).unwrap();
        assert_eq!(r.num_rows(), 3);
    }

    /// Rows whose strings only differ in where a `|` falls are distinct.
    #[test]
    fn distinct_keeps_rows_that_differ_around_a_separator() {
        let cat = Catalog::new();
        let mut a = cat.builder("a", schema![("s", Str), ("t", Str)]);
        a.push_row(&[Value::Str("x|".into()), Value::Str("y".into())]);
        a.push_row(&[Value::Str("x".into()), Value::Str("|y".into())]);
        cat.register(a.finish());
        let q = bind("SELECT DISTINCT a.s, a.t FROM a", &cat);
        let budget = WorkBudget::unlimited();
        let r = postprocess(&q.tables, &q, view(&all_tuples(2)), &budget).unwrap();
        assert_eq!(r.num_rows(), 2);
    }

    #[test]
    fn budget_applies_to_postprocessing() {
        let cat = setup();
        let q = bind("SELECT a.x FROM a", &cat);
        let budget = WorkBudget::with_limit(3);
        assert!(postprocess(&q.tables, &q, view(&all_tuples(10)), &budget).is_err());
    }

    #[test]
    fn distinct_scan_charges_and_times_out() {
        // 10 tuples projected + 10 rows deduplicated = 20 units.
        let cat = setup();
        let q = bind("SELECT DISTINCT a.g FROM a", &cat);
        let tuples = all_tuples(10);
        let exact = WorkBudget::with_limit(20);
        let r = postprocess(&q.tables, &q, view(&tuples), &exact).unwrap();
        assert_eq!(r.num_rows(), 3);
        assert_eq!(exact.used(), 20);
        let short = WorkBudget::with_limit(19);
        assert!(postprocess(&q.tables, &q, view(&tuples), &short).is_err());
        assert_eq!(short.used(), 20, "the overrunning unit is recorded");

        let big = big_setup(1000);
        let q = bind("SELECT DISTINCT a.g FROM a", &big);
        let short = WorkBudget::with_limit(1999);
        assert!(postprocess_parallel(&q.tables, &q, view(&all_tuples(1000)), &short, 4).is_err());
    }

    #[test]
    fn groups_come_out_in_first_seen_order() {
        let cat = setup();
        let q = bind("SELECT a.g, COUNT(*) c FROM a GROUP BY a.g", &cat);
        // Rows 7, 2, 9, … have g = 1, 2, 0, …
        let tuples = [7, 2, 9, 1, 4, 5];
        let r = postprocess(&q.tables, &q, view(&tuples), &WorkBudget::unlimited()).unwrap();
        let seen: Vec<(i64, i64)> = r
            .rows
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        assert_eq!(seen, vec![(1, 3), (2, 2), (0, 1)]);
    }

    #[test]
    fn string_min_max_by_code_with_and_without_a_computed_item() {
        let cat = Catalog::new();
        let mut a = cat.builder("a", schema![("x", Int), ("s", Str)]);
        for (i, s) in ["pear", "apple", "fig", "apple", "quince", "fig"]
            .iter()
            .enumerate()
        {
            a.push_row(&[Value::Int(i as i64), Value::from(*s)]);
        }
        cat.register(a.finish());
        // The second statement adds an `Eval` arm, so its scan gives the
        // interner read back before every evaluation.
        for sql in [
            "SELECT MIN(a.s) lo, MAX(a.s) hi FROM a",
            "SELECT MIN(a.s) lo, MAX(a.s) hi, SUM(a.x + 1) s FROM a",
        ] {
            let q = bind(sql, &cat);
            let r = postprocess(
                &q.tables,
                &q,
                view(&all_tuples(6)),
                &WorkBudget::unlimited(),
            )
            .unwrap();
            assert_eq!(r.rows[0][0].as_str(), Some("apple"), "{sql}");
            assert_eq!(r.rows[0][1].as_str(), Some("quince"), "{sql}");
        }
    }

    #[test]
    fn a_udf_may_intern_while_the_scan_resolves_strings() {
        // The kernel's interner read is not re-entrant: held across the
        // UDF call, the `intern` below would wait on its own thread.
        let cat = Catalog::new();
        let mut a = cat.builder("a", schema![("x", Int), ("s", Str)]);
        for i in 0..50 {
            a.push_row(&[Value::Int(i), Value::from(format!("s{}", i % 7).as_str())]);
        }
        cat.register(a.finish());
        let udfs = UdfRegistry::new();
        let interner = cat.get("a").unwrap().interner().clone();
        udfs.register("fresh", move |args| {
            Value::Int(interner.intern(&format!("new{}", args[0])) as i64)
        });
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for sql in [
                "SELECT MIN(a.s) lo, MAX(fresh(a.x)) hi FROM a",
                "SELECT a.s, COUNT(fresh(a.x)) c FROM a GROUP BY a.s",
                "SELECT a.s, fresh(a.x) f FROM a",
            ] {
                let q = match parse_statement(sql).unwrap() {
                    skinner_query::ast::Statement::Select(s) => {
                        bind_select(&s, &cat, &udfs).unwrap()
                    }
                    _ => unreachable!(),
                };
                let r = postprocess(
                    &q.tables,
                    &q,
                    view(&all_tuples(50)),
                    &WorkBudget::unlimited(),
                )
                .unwrap();
                assert_eq!(r.rows[0][0].as_str(), Some("s0"), "{sql}");
            }
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("a scan held its interner read across an evaluation");
    }

    #[test]
    fn parallel_matches_sequential_on_every_query_shape() {
        let cat = big_setup(1000);
        for sql in [
            "SELECT a.x FROM a",
            "SELECT a.x FROM a ORDER BY a.x",
            // Heavy cross-chunk ties (7 distinct g over 1000 rows): pins
            // the merge's stability rule — equal keys emit in chunk order.
            "SELECT a.g, a.x FROM a ORDER BY a.g",
            "SELECT a.x, a.g FROM a ORDER BY a.g DESC, a.x",
            "SELECT a.x FROM a ORDER BY a.x LIMIT 17",
            "SELECT DISTINCT a.g FROM a",
            "SELECT DISTINCT a.x FROM a ORDER BY a.x",
            "SELECT a.g, COUNT(*) c, SUM(a.x) s, MIN(a.x) mn, MAX(a.x) mx \
             FROM a GROUP BY a.g ORDER BY a.g",
            "SELECT COUNT(*) c FROM a",
        ] {
            let q = bind(sql, &cat);
            let tuples = all_tuples(1000);
            let seq = postprocess(&q.tables, &q, view(&tuples), &WorkBudget::unlimited()).unwrap();
            for threads in [2, 3, 4, 8] {
                let par = postprocess_parallel(
                    &q.tables,
                    &q,
                    view(&tuples),
                    &WorkBudget::unlimited(),
                    threads,
                )
                .unwrap();
                assert_eq!(par.columns, seq.columns, "{sql} ({threads} threads)");
                // Exact row order must match where the query pins it
                // (ORDER BY) — and also where it doesn't but the pipeline
                // is deterministic (projection without sort).
                if !q.order_by.is_empty() || (q.group_by.is_empty() && !q.has_aggregates()) {
                    assert_eq!(par.rows, seq.rows, "{sql} ({threads} threads)");
                } else {
                    assert_eq!(
                        par.canonical_rows(),
                        seq.canonical_rows(),
                        "{sql} ({threads} threads)"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_float_aggregates_fall_back_to_sequential_bits() {
        let cat = big_setup(1000);
        // AVG/SUM(float) must be bit-identical at any thread count: the
        // parallel path detects float accumulators and runs sequentially.
        let q = bind(
            "SELECT a.g, AVG(a.f) av, SUM(a.f) s FROM a GROUP BY a.g ORDER BY a.g",
            &cat,
        );
        let tuples = all_tuples(1000);
        let seq = postprocess(&q.tables, &q, view(&tuples), &WorkBudget::unlimited()).unwrap();
        for threads in [2, 8] {
            let par = postprocess_parallel(
                &q.tables,
                &q,
                view(&tuples),
                &WorkBudget::unlimited(),
                threads,
            )
            .unwrap();
            assert_eq!(par.rows, seq.rows, "float rows must match bit-for-bit");
        }
    }

    #[test]
    fn parallel_budget_reservation_times_out() {
        let cat = big_setup(1000);
        let q = bind("SELECT a.x FROM a", &cat);
        let budget = WorkBudget::with_limit(10);
        assert!(postprocess_parallel(&q.tables, &q, view(&all_tuples(1000)), &budget, 4).is_err());
        // The scan could never fit, so nothing was reserved or charged.
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn parallel_exact_fit_budget_succeeds_like_sequential() {
        // 1001 tuples at 4 threads → chunks of 251/250/250/250. A flat
        // remaining/nparts cap would floor to 250 and spuriously time out
        // the 251-tuple chunk; per-chunk caps must let a budget that fits
        // the sequential scan exactly fit the parallel one too.
        let cat = big_setup(1001);
        let q = bind("SELECT a.x FROM a", &cat);
        let tuples = all_tuples(1001);
        let seq_budget = WorkBudget::with_limit(1001);
        let seq = postprocess(&q.tables, &q, view(&tuples), &seq_budget).unwrap();
        for threads in [2, 3, 4, 8] {
            let budget = WorkBudget::with_limit(1001);
            let par = postprocess_parallel(&q.tables, &q, view(&tuples), &budget, threads)
                .unwrap_or_else(|_| panic!("exact-fit budget timed out at {threads} threads"));
            assert_eq!(par.rows, seq.rows);
            assert_eq!(budget.used(), 1001, "actual work recorded, not caps");
        }
    }

    #[test]
    fn parallel_small_inputs_delegate_to_sequential() {
        let cat = setup();
        let q = bind("SELECT a.x FROM a ORDER BY a.x", &cat);
        let budget = WorkBudget::unlimited();
        let r = postprocess_parallel(&q.tables, &q, view(&all_tuples(10)), &budget, 8).unwrap();
        assert_eq!(r.num_rows(), 10);
        assert_eq!(r.rows[0][0], Value::Int(0));
    }
}
