//! Skinner-C pre-processing (`PreprocessingC` in Algorithm 3).
//!
//! Filters base tables through the shared pre-processor, then fetches a
//! jump index for every column involved in an equality join predicate from
//! the table that owns it ([`Table::join_index`]). A table no unary
//! predicate touched is the catalog's own, so its index was built by the
//! first statement to join on that column and is shared by every later
//! one; a filtered table is this statement's fresh copy, so its index
//! covers the *filtered* tuples only and dies with the statement — which
//! is why the paper calls the overhead of supporting all join orders
//! "typically small". Index construction is the parallelizable part of
//! SkinnerDB (Section 6.1): with `threads > 1` the targets are cut into
//! `threads` chunks that run on the process-wide pool
//! ([`skinner_exec::scatter_gather`]), the calling thread taking the last
//! chunk and any chunk no parked helper has started.
//!
//! Work units are a statement's logical cost: every index is charged its
//! row count whether this call built it or found it, so budgets, timeouts
//! and learning do not depend on what ran before. The calling thread
//! charges the targets in order before any build, so they do not depend
//! on the thread count or on scheduling either.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use skinner_exec::{preprocess, scatter_gather, Timeout, WorkBudget};
use skinner_query::JoinQuery;
use skinner_storage::{HashIndex, Table};

use super::join::MultiwayCtx;

/// Filtered tables plus equality-join jump indexes.
pub struct PreparedC {
    pub ctx: MultiwayCtx,
    pub base_rows: Vec<usize>,
    /// Bytes of the jump indexes this statement uses, shared or not
    /// (memory accounting).
    pub index_bytes: usize,
    /// Jump indexes this statement built / found already built.
    pub index_builds: u64,
    pub index_reuses: u64,
    /// Zone-mapped pages evaluated / skipped during pre-processing.
    pub pages_read: u64,
    pub pages_skipped: u64,
}

impl PreparedC {
    /// The index counters as the `preprocess` span's label.
    pub fn span_label(&self) -> String {
        format!(
            "index_builds={} index_reuses={}",
            self.index_builds, self.index_reuses
        )
    }
}

/// Run pre-processing for Skinner-C.
pub fn prepare(
    query: &JoinQuery,
    budget: &WorkBudget,
    threads: usize,
    build_indexes: bool,
) -> Result<PreparedC, Timeout> {
    let pre = preprocess(query, budget, threads)?;
    let mut targets: Vec<(usize, usize)> = Vec::new();
    if build_indexes {
        for t in 0..pre.tables.len() {
            targets.extend(query.equi_join_columns(t).into_iter().map(|col| (t, col)));
        }
    }
    let builds = AtomicU64::new(0);
    let indexes = fetch(&pre.tables, &targets, budget, &builds, threads)?;
    let index_builds = builds.into_inner();
    let index_reuses = indexes.len() as u64 - index_builds;
    let ctx = MultiwayCtx::new(pre.tables, indexes);
    Ok(PreparedC {
        index_bytes: ctx.index_bytes(),
        ctx,
        base_rows: pre.base_rows,
        index_builds,
        index_reuses,
        pages_read: pre.pages_read,
        pages_skipped: pre.pages_skipped,
    })
}

/// One jump index, keyed by (table, column).
type JumpIndex = ((usize, usize), Arc<HashIndex>);

/// Charge for and fetch the index of every target, counting in `builds`
/// the ones this call had to build. The calling thread charges the
/// targets in order before any build, so a statement out of budget stops
/// at the same target, having built the same indexes, whether or not they
/// existed and at every thread count. The builds run in `threads` chunks
/// of targets on the shared pool.
fn fetch(
    tables: &[Arc<Table>],
    targets: &[(usize, usize)],
    budget: &WorkBudget,
    builds: &AtomicU64,
    threads: usize,
) -> Result<Vec<JumpIndex>, Timeout> {
    let charged = targets
        .iter()
        .position(|&(t, _)| budget.charge(tables[t].num_rows() as u64).is_err());
    let fetched = &targets[..charged.unwrap_or(targets.len())];
    let chunk = fetched.len().div_ceil(threads.max(1)).max(1);
    let tasks: Vec<_> = fetched
        .chunks(chunk)
        .map(|part| {
            move || -> Vec<JumpIndex> {
                part.iter()
                    .map(|&(t, col)| {
                        let (index, built) = tables[t].join_index_built(col);
                        // A statistic: publishes nothing.
                        builds.fetch_add(built as u64, Ordering::Relaxed);
                        ((t, col), index.clone())
                    })
                    .collect()
            }
        })
        .collect();
    let indexes = scatter_gather(tasks).into_iter().flatten().collect();
    match charged {
        Some(_) => Err(Timeout),
        None => Ok(indexes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_query::{bind_select, parser::parse_statement, UdfRegistry};
    use skinner_storage::{schema, Catalog, Value};

    fn setup() -> Catalog {
        let cat = Catalog::new();
        let mut a = cat.builder("a", schema![("id", Int), ("x", Int)]);
        for i in 0..50 {
            a.push_row(&[Value::Int(i), Value::Int(i % 5)]);
        }
        cat.register(a.finish());
        let mut b = cat.builder("b", schema![("aid", Int)]);
        for i in 0..30 {
            b.push_row(&[Value::Int(i)]);
        }
        cat.register(b.finish());
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
    fn indexes_built_on_filtered_join_columns() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid AND a.x = 0", &cat);
        let budget = WorkBudget::unlimited();
        let p = prepare(&q, &budget, 1, true).unwrap();
        // Filtered a: ids 0,5,10,… (10 rows).
        assert_eq!(p.ctx.tables[0].num_rows(), 10);
        let idx = p.ctx.index(0, 0).unwrap();
        // Index covers filtered rows only.
        assert_eq!(idx.num_keys(), 10);
        assert!(p.ctx.index(1, 0).is_some());
        assert!(p.index_bytes > 0);
    }

    #[test]
    fn no_indexes_when_disabled() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat);
        let budget = WorkBudget::unlimited();
        let p = prepare(&q, &budget, 1, false).unwrap();
        assert!(p.ctx.index(0, 0).is_none() && p.ctx.index(1, 0).is_none());
        assert_eq!(p.index_bytes, 0);
    }

    #[test]
    fn parallel_build_matches_serial() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat);
        let b1 = WorkBudget::unlimited();
        let b4 = WorkBudget::unlimited();
        let serial = prepare(&q, &b1, 1, true).unwrap();
        let parallel = prepare(&q, &b4, 4, true).unwrap();
        assert_eq!(serial.index_bytes, parallel.index_bytes);
        for (t, col) in [(0, 0), (1, 0)] {
            assert_eq!(
                serial.ctx.index(t, col).unwrap().num_keys(),
                parallel.ctx.index(t, col).unwrap().num_keys(),
                "({t}, {col})"
            );
        }
    }
}
