//! Pre-processing: apply unary predicates, materialize filtered tables.
//!
//! Every evaluation strategy in the paper starts here (Section 3): unary
//! predicates are applied once, up front, producing filtered base tables so
//! the join phase works on dense row ids. Pre-processing is the only phase
//! SkinnerDB parallelizes (Section 6.1); `threads > 1` splits each table
//! scan across crossbeam scoped threads. Each table's predicates are
//! lowered once ([`skinner_query::Pred`]) and then evaluated per row.
//!
//! Tables decoded from disk segments carry zone maps; the scan plan
//! (see [`crate::zonescan`]) is computed once, on the coordinator, before
//! any thread split — so the filtered output and the work charged are
//! identical at every thread count, zone maps or not.

use std::sync::Arc;

use skinner_query::{JoinQuery, Pred};
use skinner_storage::{RowId, Table};

use crate::budget::{Timeout, WorkBudget};
use crate::zonescan::{plan_scan, split_ranges, ScanPlan};

/// Output of pre-processing.
#[derive(Debug, Clone)]
pub struct Preprocessed {
    /// Filtered tables, parallel to `query.tables`. Tables without unary
    /// predicates are shared, not copied.
    pub tables: Vec<Arc<Table>>,
    /// Original (unfiltered) row counts, for reporting.
    pub base_rows: Vec<usize>,
    /// Pages whose rows were evaluated (zone-mapped tables only).
    pub pages_read: u64,
    /// Pages skipped outright via zone-map bounds.
    pub pages_skipped: u64,
}

impl Preprocessed {
    /// Cardinality of filtered table `t`.
    pub fn cardinality(&self, t: usize) -> RowId {
        self.tables[t].cardinality()
    }
}

/// Apply all unary predicates of `query`. Charges one work unit per
/// (row, predicate) evaluation plus one per surviving row; zone-mapped
/// tables additionally charge one unit per page bound consulted — and in
/// exchange skip the per-row charges of every pruned page.
pub fn preprocess(
    query: &JoinQuery,
    budget: &WorkBudget,
    threads: usize,
) -> Result<Preprocessed, Timeout> {
    let mut tables = Vec::with_capacity(query.tables.len());
    let mut base_rows = Vec::with_capacity(query.tables.len());
    let mut pages_read = 0u64;
    let mut pages_skipped = 0u64;
    for (t, table) in query.tables.iter().enumerate() {
        base_rows.push(table.num_rows());
        if query.unary[t].is_empty() {
            tables.push(table.clone());
            continue;
        }
        // Scan plan on the coordinator: deterministic across thread counts.
        let plan = plan_scan(table, t, &query.unary[t]);
        budget.charge(plan.pages_read + plan.pages_skipped)?;
        pages_read += plan.pages_read;
        pages_skipped += plan.pages_skipped;
        let rows = if threads > 1 {
            filter_parallel(query, t, budget, threads, &plan)?
        } else {
            filter_serial(query, t, budget, &plan.ranges)?
        };
        budget.charge(rows.len() as u64)?;
        let filtered = table.gather(&rows, format!("{}#f", table.name()));
        tables.push(Arc::new(filtered));
    }
    Ok(Preprocessed {
        tables,
        base_rows,
        pages_read,
        pages_skipped,
    })
}

fn filter_serial(
    query: &JoinQuery,
    t: usize,
    budget: &WorkBudget,
    ranges: &[(RowId, RowId)],
) -> Result<Vec<RowId>, Timeout> {
    let preds = Pred::lower_all(&query.unary[t], &query.tables);
    let mut rows_vec = Vec::new();
    let mut probe: Vec<RowId> = vec![0; query.tables.len()];
    let mut work = budget.local();
    for &(lo, hi) in ranges {
        for row in lo..hi {
            probe[t] = row;
            work.charge(preds.len() as u64)?;
            if preds.iter().all(|p| p.eval(&probe)) {
                rows_vec.push(row);
            }
        }
    }
    Ok(rows_vec)
}

fn filter_parallel(
    query: &JoinQuery,
    t: usize,
    budget: &WorkBudget,
    threads: usize,
    plan: &ScanPlan,
) -> Result<Vec<RowId>, Timeout> {
    let preds = &Pred::lower_all(&query.unary[t], &query.tables);
    let chunks = split_ranges(&plan.ranges, threads);
    let results: Vec<Result<Vec<RowId>, Timeout>> = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for chunk in &chunks {
            handles.push(scope.spawn(move |_| {
                let mut out = Vec::new();
                let mut probe: Vec<RowId> = vec![0; query.tables.len()];
                // Each worker counts its chunk locally and settles once; a
                // worker whose own count already crosses the limit stops,
                // and the settled total decides the timeout below.
                let mut work = budget.local();
                for &(lo, hi) in chunk {
                    for row in lo..hi {
                        probe[t] = row;
                        work.charge(preds.len() as u64)?;
                        if preds.iter().all(|p| p.eval(&probe)) {
                            out.push(row);
                        }
                    }
                }
                Ok(out)
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
    .expect("preprocessing thread panicked");
    if budget.exhausted() {
        return Err(Timeout);
    }
    let mut rows = Vec::new();
    for r in results {
        rows.extend(r?);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_query::{bind_select, parser::parse_statement, UdfRegistry};
    use skinner_storage::{schema, Catalog, Value};

    fn setup() -> (Catalog, UdfRegistry) {
        let cat = Catalog::new();
        let mut a = cat.builder("a", schema![("x", Int), ("y", Int)]);
        for i in 0..100 {
            a.push_row(&[Value::Int(i), Value::Int(i % 7)]);
        }
        cat.register(a.finish());
        let mut b = cat.builder("b", schema![("z", Int)]);
        for i in 0..50 {
            b.push_row(&[Value::Int(i)]);
        }
        cat.register(b.finish());
        (cat, UdfRegistry::new())
    }

    fn bind(sql: &str, cat: &Catalog, udfs: &UdfRegistry) -> JoinQuery {
        match parse_statement(sql).unwrap() {
            skinner_query::ast::Statement::Select(s) => bind_select(&s, cat, udfs).unwrap(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn filters_apply_and_unfiltered_tables_are_shared() {
        let (cat, udfs) = setup();
        let q = bind(
            "SELECT a.x FROM a, b WHERE a.x < 10 AND a.y = 1",
            &cat,
            &udfs,
        );
        let budget = WorkBudget::unlimited();
        let p = preprocess(&q, &budget, 1).unwrap();
        // x < 10 and x % 7 == 1 → x ∈ {1, 8}.
        assert_eq!(p.tables[0].num_rows(), 2);
        assert_eq!(p.tables[0].value(0, 0), Value::Int(1));
        assert_eq!(p.tables[0].value(1, 0), Value::Int(8));
        // b untouched → same allocation.
        assert!(Arc::ptr_eq(&p.tables[1], &q.tables[1]));
        assert_eq!(p.base_rows, vec![100, 50]);
        // In-memory tables have no zone maps, so no page accounting.
        assert_eq!((p.pages_read, p.pages_skipped), (0, 0));
    }

    #[test]
    fn parallel_matches_serial() {
        let (cat, udfs) = setup();
        let q = bind("SELECT a.x FROM a WHERE a.y = 3", &cat, &udfs);
        let b1 = WorkBudget::unlimited();
        let b4 = WorkBudget::unlimited();
        let serial = preprocess(&q, &b1, 1).unwrap();
        let parallel = preprocess(&q, &b4, 4).unwrap();
        assert_eq!(serial.tables[0].num_rows(), parallel.tables[0].num_rows());
        for r in 0..serial.tables[0].cardinality() {
            assert_eq!(serial.tables[0].value(r, 0), parallel.tables[0].value(r, 0));
        }
        // Same predicate-evaluation work.
        assert_eq!(b1.used(), b4.used());
    }

    #[test]
    fn budget_exhaustion_aborts() {
        let (cat, udfs) = setup();
        let q = bind("SELECT a.x FROM a WHERE a.y = 3", &cat, &udfs);
        let budget = WorkBudget::with_limit(10);
        assert!(matches!(preprocess(&q, &budget, 1), Err(Timeout)));
    }

    #[test]
    fn empty_filter_result_is_fine() {
        let (cat, udfs) = setup();
        let q = bind("SELECT a.x FROM a WHERE a.x > 1000", &cat, &udfs);
        let budget = WorkBudget::unlimited();
        let p = preprocess(&q, &budget, 1).unwrap();
        assert_eq!(p.tables[0].num_rows(), 0);
    }

    #[test]
    fn zone_maps_skip_pages_and_save_work() {
        use skinner_storage::disk::DiskStore;
        // Build a disk-backed table so preprocessing sees zone maps.
        let dir = std::env::temp_dir().join(format!("skinner_prep_zones_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cat = Catalog::new();
        cat.attach_disk(&dir).unwrap();
        let store: Arc<DiskStore> = cat.disk_store().unwrap();
        store
            .create_table_with("a", schema![("x", Int), ("y", Int)], 16, |w| {
                for i in 0..100 {
                    w.push_row(&[Value::Int(i), Value::Int(i % 7)])?;
                }
                Ok(())
            })
            .unwrap();
        let opened = store.load_table("a", cat.interner()).unwrap();
        cat.register(opened.table);
        let udfs = UdfRegistry::new();
        let q = bind("SELECT a.x FROM a WHERE a.x < 20", &cat, &udfs);
        let zoned_budget = WorkBudget::unlimited();
        let p1 = preprocess(&q, &zoned_budget, 1).unwrap();
        // 100 rows / 16-row pages = 7 pages; x < 20 keeps pages 0 and 1.
        assert_eq!(p1.pages_read, 2);
        assert_eq!(p1.pages_skipped, 5);
        assert_eq!(p1.tables[0].num_rows(), 20);
        // Same result and same work at 4 threads.
        let b4 = WorkBudget::unlimited();
        let p4 = preprocess(&q, &b4, 4).unwrap();
        assert_eq!(zoned_budget.used(), b4.used());
        for r in 0..p1.tables[0].cardinality() {
            assert_eq!(p1.tables[0].value(r, 0), p4.tables[0].value(r, 0));
        }
        // Zone maps must be a net work saving versus the full scan:
        // 7 page consults + 32 row evals + 20 survivors < 100 + 20.
        let cat2 = Catalog::new();
        let mut a = cat2.builder("a", schema![("x", Int), ("y", Int)]);
        for i in 0..100 {
            a.push_row(&[Value::Int(i), Value::Int(i % 7)]);
        }
        cat2.register(a.finish());
        let q2 = bind("SELECT a.x FROM a WHERE a.x < 20", &cat2, &udfs);
        let flat_budget = WorkBudget::unlimited();
        preprocess(&q2, &flat_budget, 1).unwrap();
        assert!(
            zoned_budget.used() < flat_budget.used(),
            "zoned {} !< flat {}",
            zoned_budget.used(),
            flat_budget.used()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
