//! The Optimizer Torture benchmarks (paper appendix, Figures 9–12).
//!
//! Corner cases "where the difference between optimal and sub-optimal query
//! plans is significant":
//!
//! * **UDF Torture** ([`udf_torture`]): every join predicate is a
//!   user-defined function — a black box for the optimizer. One *good*
//!   predicate yields an empty result; the rest are always satisfied.
//!   A plan applying the good predicate early finishes instantly; any other
//!   prefix explodes combinatorially.
//! * **Correlation Torture** ([`correlation_torture`]): chain equi-joins
//!   with statistics engineered to be *uninformative* — every edge has the
//!   same distinct counts, but the edge at position `m` is empty (disjoint
//!   key ranges) and all other edges have fanout 2.
//! * **Trivial Optimization** ([`trivial`]): all plans avoiding Cartesian
//!   products are equivalent (fanout-1 chain via opaque UDF equality), so
//!   exploration is pure overhead — the price of robustness, Figure 12.

use std::sync::Arc;

use skinner_query::UdfRegistry;
use skinner_storage::{schema, Catalog, Value};

use crate::{BenchQuery, Workload};

/// Join-graph shape for UDF torture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `T0 – T1 – … – Tk-1` with predicates on consecutive tables.
    Chain,
    /// Hub `T0` with predicates `T0 – Ti` for all satellites.
    Star,
}

/// UDF Torture: `num_tables` tables of `rows_per_table` tuples; all join
/// predicates are UDFs; the predicate at `good_edge` is always false.
///
/// `good_edge` indexes the predicate list: for chains, edge `i` connects
/// `t<i>`–`t<i+1>`; for stars, edge `i` connects the hub and satellite
/// `t<i+1>`.
pub fn udf_torture(
    shape: Shape,
    num_tables: usize,
    rows_per_table: usize,
    good_edge: usize,
) -> Workload {
    assert!(num_tables >= 2);
    let num_edges = num_tables - 1;
    assert!(good_edge < num_edges);
    let cat = Catalog::new();
    for t in 0..num_tables {
        let mut b = cat.builder(format!("t{t}"), schema![("v", Int)]);
        for r in 0..rows_per_table {
            b.push_row(&[Value::Int(r as i64)]);
        }
        cat.register(b.finish());
    }
    let udfs = UdfRegistry::new();
    let mut conjuncts = Vec::new();
    for e in 0..num_edges {
        let name = if e == good_edge {
            let n = format!("good_pred_{e}");
            udfs.register(&n, |_args| Value::from(false));
            n
        } else {
            let n = format!("bad_pred_{e}");
            udfs.register(&n, |_args| Value::from(true));
            n
        };
        let (a, b) = match shape {
            Shape::Chain => (e, e + 1),
            Shape::Star => (0, e + 1),
        };
        conjuncts.push(format!("{name}(t{a}.v, t{b}.v)"));
    }
    let from: Vec<String> = (0..num_tables).map(|t| format!("t{t}")).collect();
    let script = format!(
        "SELECT COUNT(*) matches FROM {} WHERE {};",
        from.join(", "),
        conjuncts.join(" AND ")
    );
    Workload {
        catalog: Arc::new(cat),
        udfs,
        queries: vec![BenchQuery {
            name: format!("udf-torture-{:?}-{num_tables}t-good{good_edge}", shape),
            script,
            num_tables,
        }],
    }
}

/// Correlation Torture: a chain `t0.b = t1.a, t1.b = t2.a, …` where
/// *statistics cannot distinguish the edges*: every join column has
/// `rows/2` distinct values. The edge leaving table `m` is empty (its `b`
/// values live in a disjoint range); every other edge has fanout 2.
///
/// An optimizer with perfect information starts at edge `m` and finishes in
/// `O(rows)`; an uninformed one that starts at the wrong end materializes
/// `rows · 2^k` intermediates before discovering the empty edge.
pub fn correlation_torture(num_tables: usize, rows_per_table: usize, m: usize) -> Workload {
    assert!(num_tables >= 2);
    assert!(m < num_tables - 1, "m indexes a chain edge");
    let n = rows_per_table.max(4);
    let half = (n / 2) as i64;
    let cat = Catalog::new();
    for t in 0..num_tables {
        let mut b = cat.builder(format!("t{t}"), schema![("a", Int), ("b", Int)]);
        for r in 0..n as i64 {
            // `a` repeats each key twice → incoming fanout 2.
            let a = r % half;
            // `b` is one key per pair → outgoing fanout 2 against the next
            // table's `a`; the edge from table m is shifted out of range.
            let b_val = if t == m {
                r % half + half * 2
            } else {
                r % half
            };
            b.push_row(&[Value::Int(a), Value::Int(b_val)]);
        }
        cat.register(b.finish());
    }
    let from: Vec<String> = (0..num_tables).map(|t| format!("t{t}")).collect();
    let joins: Vec<String> = (0..num_tables - 1)
        .map(|t| format!("t{t}.b = t{}.a", t + 1))
        .collect();
    let script = format!(
        "SELECT COUNT(*) matches FROM {} WHERE {};",
        from.join(", "),
        joins.join(" AND ")
    );
    Workload {
        catalog: Arc::new(cat),
        udfs: UdfRegistry::new(),
        queries: vec![BenchQuery {
            name: format!("correlation-torture-{num_tables}t-m{m}"),
            script,
            num_tables,
        }],
    }
}

/// Trivial Optimization: a fanout-1 chain joined through *opaque UDF
/// equality predicates* (Figure 12's "UDF Equality Predicates"), so all
/// non-Cartesian plans cost the same and exploration is pure overhead.
pub fn trivial(num_tables: usize, rows_per_table: usize) -> Workload {
    assert!(num_tables >= 2);
    let cat = Catalog::new();
    for t in 0..num_tables {
        let mut b = cat.builder(format!("t{t}"), schema![("a", Int), ("b", Int)]);
        for r in 0..rows_per_table as i64 {
            b.push_row(&[Value::Int(r), Value::Int(r)]);
        }
        cat.register(b.finish());
    }
    let udfs = UdfRegistry::new();
    udfs.register("udf_eq", |args| {
        Value::from(args[0].as_i64() == args[1].as_i64())
    });
    let from: Vec<String> = (0..num_tables).map(|t| format!("t{t}")).collect();
    let joins: Vec<String> = (0..num_tables - 1)
        .map(|t| format!("udf_eq(t{t}.b, t{}.a)", t + 1))
        .collect();
    let script = format!(
        "SELECT COUNT(*) matches FROM {} WHERE {};",
        from.join(", "),
        joins.join(" AND ")
    );
    Workload {
        catalog: Arc::new(cat),
        udfs,
        queries: vec![BenchQuery {
            // Sizes differ only in rows, so the name carries both.
            name: format!("trivial-{num_tables}t-{rows_per_table}r"),
            script,
            num_tables,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udf_torture_builds_both_shapes() {
        for shape in [Shape::Chain, Shape::Star] {
            let w = udf_torture(shape, 5, 20, 2);
            assert_eq!(w.queries.len(), 1);
            assert!(w.catalog.get("t4").is_some());
            assert!(w.queries[0].script.contains("good_pred_2"));
            skinner_query::parse_statements(&w.queries[0].script).unwrap();
        }
    }

    #[test]
    fn udf_predicates_behave() {
        let w = udf_torture(Shape::Chain, 4, 10, 1);
        let good = w.udfs.lookup("good_pred_1").unwrap();
        let bad = w.udfs.lookup("bad_pred_0").unwrap();
        assert!(!w.udfs.func(good)(&[Value::Int(1), Value::Int(1)]).as_bool());
        assert!(w.udfs.func(bad)(&[Value::Int(1), Value::Int(2)]).as_bool());
    }

    #[test]
    fn correlation_torture_edge_m_is_empty() {
        let w = correlation_torture(4, 40, 1);
        let t1 = w.catalog.get("t1").unwrap();
        let t2 = w.catalog.get("t2").unwrap();
        // t1.b values are shifted out of t2.a's range.
        let mut t2_a = std::collections::HashSet::new();
        for r in 0..t2.cardinality() {
            t2_a.insert(t2.value(r, 0).as_i64().unwrap());
        }
        for r in 0..t1.cardinality() {
            let b = t1.value(r, 1).as_i64().unwrap();
            assert!(!t2_a.contains(&b), "edge m unexpectedly joins");
        }
        // Non-m edges have fanout 2: t0.b hits exactly two rows of t1.a.
        let t0 = w.catalog.get("t0").unwrap();
        let t1a: Vec<i64> = (0..t1.cardinality())
            .map(|r| t1.value(r, 0).as_i64().unwrap())
            .collect();
        let b0 = t0.value(0, 1).as_i64().unwrap();
        assert_eq!(t1a.iter().filter(|&&a| a == b0).count(), 2);
    }

    #[test]
    fn trivial_chain_has_fanout_one() {
        let w = trivial(4, 25);
        let q = &w.queries[0];
        assert_eq!(q.name, "trivial-4t-25r");
        assert!(q.script.contains("udf_eq"));
        skinner_query::parse_statements(&q.script).unwrap();
        // Result should be exactly rows_per_table once executed; verified
        // end-to-end by integration tests.
        let t = w.catalog.get("t0").unwrap();
        assert_eq!(t.num_rows(), 25);
    }
}
