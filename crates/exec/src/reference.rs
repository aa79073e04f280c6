//! Naive reference executor — ground truth for correctness tests.
//!
//! Enumerates the full Cartesian product of the base tables and checks every
//! predicate on every combination. Exponential; only for test-sized data.
//! Deliberately shares *no* join code with the real engines (it bypasses
//! pre-processing, hash joins and the multi-way join entirely), so agreement
//! with them is meaningful evidence of correctness. For the same reason it
//! evaluates predicates with the tree-walking [`skinner_query::Expr::eval_bool`],
//! the oracle the engines' lowered [`skinner_query::Pred`]s are held to,
//! not with a `Pred` of its own.

use skinner_query::expr::EvalCtx;
use skinner_query::JoinQuery;
use skinner_storage::RowId;

use crate::budget::{LocalWork, WorkBudget};
use crate::context::CancelToken;
use crate::postprocess::postprocess;
use crate::result::QueryResult;
use crate::tuples::TupleBuf;

/// Execute `query` by brute force.
pub fn run_reference(query: &JoinQuery) -> QueryResult {
    run_reference_bounded(query, &CancelToken::new(), &WorkBudget::unlimited())
        .expect("no cancellation, unlimited budget")
}

/// Like [`run_reference`], but charges `budget` one work unit per row
/// combination it enumerates (partial ones included) and polls `cancel` in
/// the outer-table loop; returns `None` once either runs out, so even the
/// exponential ground-truth executor honours work limits and deadlines.
/// Post-processing is not charged.
pub fn run_reference_bounded(
    query: &JoinQuery,
    cancel: &CancelToken,
    budget: &WorkBudget,
) -> Option<QueryResult> {
    let m = query.num_tables();
    let interner = query.tables[0].interner().clone();
    let mut tuples = TupleBuf::new(m);
    if !query.always_false {
        let mut rows: Vec<RowId> = vec![0; m];
        let mut work = budget.local();
        if !enumerate(
            query,
            0,
            &mut rows,
            &interner,
            cancel,
            &mut work,
            &mut tuples,
        ) {
            return None;
        }
    }
    let unlimited = WorkBudget::unlimited();
    Some(postprocess(&query.tables, query, tuples.view(), &unlimited).expect("unlimited budget"))
}

/// Returns `false` if enumeration was cancelled or ran out of budget.
fn enumerate(
    query: &JoinQuery,
    depth: usize,
    rows: &mut Vec<RowId>,
    interner: &std::sync::Arc<skinner_storage::Interner>,
    cancel: &CancelToken,
    work: &mut LocalWork<'_>,
    out: &mut TupleBuf,
) -> bool {
    let m = query.num_tables();
    if depth == m {
        out.push(rows);
        return true;
    }
    let n = query.tables[depth].cardinality();
    'next_row: for row in 0..n {
        if depth == 0 && cancel.is_cancelled() {
            return false;
        }
        if work.charge(1).is_err() {
            return false;
        }
        rows[depth] = row;
        let ctx = EvalCtx::new(&query.tables, rows, interner);
        // Unary predicates of this table.
        for p in &query.unary[depth] {
            if !p.eval_bool(&ctx) {
                continue 'next_row;
            }
        }
        // Join predicates fully covered by tables 0..=depth.
        for p in &query.equi_preds {
            let hi = p.left.table.max(p.right.table);
            if hi == depth {
                let lk = query.tables[p.left.table]
                    .column(p.left.col)
                    .key_at(rows[p.left.table]);
                let rk = query.tables[p.right.table]
                    .column(p.right.col)
                    .key_at(rows[p.right.table]);
                if lk != rk {
                    continue 'next_row;
                }
            }
        }
        for p in &query.generic_preds {
            let hi = p.tables.iter().max().unwrap_or(0);
            if hi == depth && !p.expr.eval_bool(&ctx) {
                continue 'next_row;
            }
        }
        if !enumerate(query, depth + 1, rows, interner, cancel, work, out) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_query::{bind_select, parser::parse_statement, UdfRegistry};
    use skinner_storage::{schema, Catalog, Value};

    fn setup() -> Catalog {
        let cat = Catalog::new();
        let mut a = cat.builder("a", schema![("id", Int)]);
        for i in 0..5 {
            a.push_row(&[Value::Int(i)]);
        }
        cat.register(a.finish());
        let mut b = cat.builder("b", schema![("aid", Int)]);
        for i in 0..8 {
            b.push_row(&[Value::Int(i % 5)]);
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
    fn joins_and_filters() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b WHERE a.id = b.aid AND a.id < 3",
            &cat,
        );
        let r = run_reference(&q);
        // aid values: 0,1,2,3,4,0,1,2 → ids < 3 matched: 0(×2),1(×2),2(×2).
        assert_eq!(r.num_rows(), 6);
    }

    #[test]
    fn always_false_is_empty() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a WHERE 1 = 0", &cat);
        assert_eq!(run_reference(&q).num_rows(), 0);
    }

    #[test]
    fn cartesian_product_when_no_predicates() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b", &cat);
        assert_eq!(run_reference(&q).num_rows(), 40);
    }

    #[test]
    fn cancelled_token_stops_enumeration() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b", &cat);
        let cancel = CancelToken::new();
        cancel.cancel();
        assert!(run_reference_bounded(&q, &cancel, &WorkBudget::unlimited()).is_none());
    }

    #[test]
    fn budget_counts_every_enumerated_combination() {
        let cat = setup();
        // 5 rows of `a`, each paired with the 8 rows of `b`: 45 units.
        let q = bind("SELECT a.id FROM a, b", &cat);
        let budget = WorkBudget::with_limit(45);
        let r = run_reference_bounded(&q, &CancelToken::new(), &budget).unwrap();
        assert_eq!((r.num_rows(), budget.used()), (40, 45));
        let budget = WorkBudget::with_limit(44);
        assert!(run_reference_bounded(&q, &CancelToken::new(), &budget).is_none());
        assert_eq!(budget.used(), 45, "the crossing charge is recorded");
    }
}
