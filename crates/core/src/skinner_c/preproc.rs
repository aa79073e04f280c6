//! Skinner-C pre-processing (`PreprocessingC` in Algorithm 3).
//!
//! Filters base tables through the shared pre-processor, then builds hash
//! indexes on every column involved in an equality join predicate — over the
//! *filtered* tuples only, which is why the paper calls the overhead of
//! supporting all join orders "typically small". Index construction is the
//! parallelizable part of SkinnerDB (Section 6.1).

use std::sync::Arc;

use skinner_exec::{preprocess, Timeout, WorkBudget};
use skinner_query::JoinQuery;
use skinner_storage::{HashIndex, Table};

use super::join::MultiwayCtx;

/// Filtered tables plus equality-join hash indexes.
pub struct PreparedC {
    pub ctx: MultiwayCtx,
    pub base_rows: Vec<usize>,
    /// Bytes spent on hash indexes (memory accounting).
    pub index_bytes: usize,
    /// Zone-mapped pages evaluated / skipped during pre-processing.
    pub pages_read: u64,
    pub pages_skipped: u64,
}

/// Run pre-processing for Skinner-C.
pub fn prepare(
    query: &JoinQuery,
    budget: &WorkBudget,
    threads: usize,
    build_indexes: bool,
) -> Result<PreparedC, Timeout> {
    let pre = preprocess(query, budget, threads)?;
    let mut built: Vec<BuiltIndex> = Vec::new();
    if build_indexes {
        // Collect the (table, column) pairs needing indexes.
        let mut targets: Vec<(usize, usize)> = Vec::new();
        for (t, _) in pre.tables.iter().enumerate() {
            for col in query.equi_join_columns(t) {
                targets.push((t, col));
            }
        }
        built = if threads > 1 && targets.len() > 1 {
            build_parallel(&pre.tables, &targets, budget, threads)?
        } else {
            let mut v = Vec::with_capacity(targets.len());
            for &(t, col) in &targets {
                budget.charge(pre.tables[t].num_rows() as u64)?;
                v.push(((t, col), HashIndex::build(pre.tables[t].column(col))));
            }
            v
        };
    }
    let ctx = MultiwayCtx::new(pre.tables, built);
    Ok(PreparedC {
        index_bytes: ctx.index_bytes(),
        ctx,
        base_rows: pre.base_rows,
        pages_read: pre.pages_read,
        pages_skipped: pre.pages_skipped,
    })
}

/// One built jump index, keyed by (table, column).
type BuiltIndex = ((usize, usize), HashIndex);

fn build_parallel(
    tables: &[Arc<Table>],
    targets: &[(usize, usize)],
    budget: &WorkBudget,
    threads: usize,
) -> Result<Vec<BuiltIndex>, Timeout> {
    let chunk = targets.len().div_ceil(threads).max(1);
    let results: Vec<Result<Vec<BuiltIndex>, Timeout>> = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for part in targets.chunks(chunk) {
            handles.push(scope.spawn(move |_| {
                let mut out = Vec::with_capacity(part.len());
                for &(t, col) in part {
                    budget.charge(tables[t].num_rows() as u64)?;
                    out.push(((t, col), HashIndex::build(tables[t].column(col))));
                }
                Ok(out)
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
    .expect("index build thread panicked");
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok(all)
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
