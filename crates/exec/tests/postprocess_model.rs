//! Differential property test for the compiled post-processing kernel.
//!
//! The oracle below is the row-at-a-time post-processor the kernel
//! replaced, kept here as the model: a `Value` per cell, an `EvalCtx` per
//! tuple, a `Vec<u64>` key per group, one `budget.charge(1)` per unit.
//! Two deliberate differences from that code, both part of the kernel's
//! contract: groups are emitted in first-seen order (the old `HashMap`
//! iteration order was unspecified), and the DISTINCT pass propagates a
//! timeout instead of swallowing it.
//!
//! Against random tables (ints and strings with heavy duplicates, floats
//! including ±0.0, NaN and magnitudes that make addition order matter),
//! random tuple lists and random queries, the kernel must return the same
//! rows bit for bit in the same order, spend the same work, and time out
//! at the same unit for every possible limit — sequentially and through
//! `postprocess_parallel` at 1, 2 and 4 threads.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;
use skinner_exec::{postprocess, postprocess_parallel, Timeout, TupleView, WorkBudget};
use skinner_query::ast::Statement;
use skinner_query::{
    bind_select, parse_statement, AggFunc, EvalCtx, JoinQuery, SelectItem, UdfRegistry,
};
use skinner_storage::{schema, Catalog, DataType, RowId, Table, Value};

// ---------------------------------------------------------------------
// The model.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ModelAcc {
    Passthrough,
    Count(u64),
    SumI(i64),
    SumF(f64),
    Avg { sum: f64, n: u64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl ModelAcc {
    fn update(&mut self, v: Option<Value>) {
        let better = |v: &Value, cur: &Option<Value>, want: Ordering| match cur {
            None => true,
            Some(cur) => v.compare(cur) == Some(want),
        };
        match self {
            ModelAcc::Passthrough => {}
            ModelAcc::Count(c) => *c += 1,
            ModelAcc::SumI(s) => *s = s.wrapping_add(v.and_then(|x| x.as_i64()).unwrap_or(0)),
            ModelAcc::SumF(s) => *s += v.and_then(|x| x.as_f64()).unwrap_or(0.0),
            ModelAcc::Avg { sum, n } => {
                *sum += v.and_then(|x| x.as_f64()).unwrap_or(0.0);
                *n += 1;
            }
            ModelAcc::Min(m) => {
                if let Some(v) = v.filter(|v| better(v, m, Ordering::Less)) {
                    *m = Some(v);
                }
            }
            ModelAcc::Max(m) => {
                if let Some(v) = v.filter(|v| better(v, m, Ordering::Greater)) {
                    *m = Some(v);
                }
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            ModelAcc::Passthrough => Value::Int(0),
            ModelAcc::Count(c) => Value::Int(c as i64),
            ModelAcc::SumI(s) => Value::Int(s),
            ModelAcc::SumF(s) => Value::Float(s),
            ModelAcc::Avg { sum, n } => Value::Float(if n == 0 { 0.0 } else { sum / n as f64 }),
            ModelAcc::Min(m) | ModelAcc::Max(m) => m.unwrap_or(Value::Int(0)),
        }
    }
}

fn model_accs(query: &JoinQuery) -> Vec<ModelAcc> {
    query
        .select
        .iter()
        .map(|item| match item {
            SelectItem::Expr { .. } => ModelAcc::Passthrough,
            SelectItem::Agg { func, arg, .. } => {
                let float = arg.as_ref().is_some_and(|a| a.dtype() == DataType::Float);
                match func {
                    AggFunc::Count => ModelAcc::Count(0),
                    AggFunc::Sum if float => ModelAcc::SumF(0.0),
                    AggFunc::Sum => ModelAcc::SumI(0),
                    AggFunc::Avg => ModelAcc::Avg { sum: 0.0, n: 0 },
                    AggFunc::Min => ModelAcc::Min(None),
                    AggFunc::Max => ModelAcc::Max(None),
                }
            }
        })
        .collect()
}

fn model_order_cmp(query: &JoinQuery, a: &[Value], b: &[Value]) -> Ordering {
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

/// DISTINCT's identity, written apart from the kernel's: integers and
/// strings by value, floats by bit pattern with -0.0 read as 0.0.
#[derive(PartialEq, Eq, Hash)]
enum ModelKey {
    Int(i64),
    Float(u64),
    Str(String),
}

fn model_row_key(row: &[Value]) -> Vec<ModelKey> {
    row.iter()
        .map(|v| match v {
            Value::Int(i) => ModelKey::Int(*i),
            Value::Float(x) if *x == 0.0 => ModelKey::Float(0),
            Value::Float(x) => ModelKey::Float(x.to_bits()),
            Value::Str(x) => ModelKey::Str(x.to_string()),
        })
        .collect()
}

/// Row-at-a-time post-processing of `arity`-wide `tuples`.
fn model(
    tables: &[Arc<Table>],
    query: &JoinQuery,
    tuples: &[RowId],
    arity: usize,
    budget: &WorkBudget,
) -> Result<Vec<Vec<Value>>, Timeout> {
    let interner = tables[0].interner().clone();
    let select_row = |t: &[RowId], accs: Option<Vec<ModelAcc>>| -> Vec<Value> {
        let ctx = EvalCtx::new(tables, t, &interner);
        let mut accs = accs.map(Vec::into_iter);
        query
            .select
            .iter()
            .map(|item| {
                let acc = accs.as_mut().and_then(Iterator::next);
                match item {
                    SelectItem::Expr { expr, .. } => expr.eval(&ctx),
                    SelectItem::Agg { .. } => acc.expect("aggregating").finish(),
                }
            })
            .collect()
    };

    let mut rows: Vec<Vec<Value>> = if query.has_aggregates() || !query.group_by.is_empty() {
        // First-seen group order: an index map beside the group vector.
        let mut index: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut groups: Vec<(Vec<RowId>, Vec<ModelAcc>)> = Vec::new();
        for t in tuples.chunks_exact(arity) {
            budget.charge(1)?;
            let ctx = EvalCtx::new(tables, t, &interner);
            let key: Vec<u64> = query.group_by.iter().map(|g| g.eval_key(&ctx)).collect();
            let g = *index.entry(key).or_insert_with(|| {
                groups.push((t.to_vec(), model_accs(query)));
                groups.len() - 1
            });
            for (item, acc) in query.select.iter().zip(groups[g].1.iter_mut()) {
                if let SelectItem::Agg { arg, .. } = item {
                    acc.update(arg.as_ref().map(|a| a.eval(&ctx)));
                }
            }
        }
        if query.group_by.is_empty() && groups.is_empty() {
            // Scalar aggregate over empty input still yields one row.
            vec![model_accs(query)
                .into_iter()
                .map(ModelAcc::finish)
                .collect()]
        } else {
            let mut rows = Vec::new();
            for (repr, accs) in groups {
                budget.charge(1)?;
                rows.push(select_row(&repr, Some(accs)));
            }
            rows
        }
    } else {
        let mut rows = Vec::new();
        for t in tuples.chunks_exact(arity) {
            budget.charge(1)?;
            rows.push(select_row(t, None));
        }
        rows
    };

    if query.distinct {
        let mut seen = HashSet::new();
        let mut kept = Vec::new();
        for r in rows {
            budget.charge(1)?;
            if seen.insert(model_row_key(&r)) {
                kept.push(r);
            }
        }
        rows = kept;
    }
    if !query.order_by.is_empty() {
        rows.sort_by(|a, b| model_order_cmp(query, a, b));
    }
    if let Some(limit) = query.limit {
        rows.truncate(limit);
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------

/// `a|` and `|b` put a separator byte in either cell of a DISTINCT row.
const WORDS: [&str; 9] = ["", "a", "ab", "b", "B", "zz", "été", "a|", "|b"];

/// Floats whose sums depend on addition order, plus both zeros.
fn float_cell(nan: bool) -> BoxedStrategy<f64> {
    let finite = prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(1.5),
        Just(-2.25),
        Just(0.1),
        Just(1e300),
        Just(-1e300),
        Just(1e-300),
    ];
    if nan {
        prop_oneof![finite, Just(f64::NAN)].boxed()
    } else {
        finite.boxed()
    }
}

#[derive(Debug, Clone)]
struct Data {
    a: Vec<(i64, f64, usize)>,
    b: Vec<(i64, usize)>,
}

fn data(nan: bool) -> impl Strategy<Value = Data> {
    (
        proptest::collection::vec((-3i64..4, float_cell(nan), 0..WORDS.len()), 1..9),
        proptest::collection::vec((-2i64..3, 0..WORDS.len()), 1..7),
    )
        .prop_map(|(a, b)| Data { a, b })
}

const PLAIN: [&str; 10] = [
    "a.i",
    "a.f",
    "a.s",
    "b.j",
    "b.t",
    "a.i + b.j",
    "a.f * 2.0",
    "a.i % 2",
    "bump(b.j)",
    "shout(a.s)",
];
/// `PLAIN` without the string-valued UDF, which has no equality key.
const GROUPABLE: usize = 9;
const NUMERIC: [&str; 6] = ["a.i", "a.f", "b.j", "a.i + b.j", "a.f * 2.0", "bump(b.j)"];

fn aggregate() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("COUNT(*)".to_string()),
        (0..PLAIN.len()).prop_map(|i| format!("COUNT({})", PLAIN[i])),
        (0..NUMERIC.len()).prop_map(|i| format!("SUM({})", NUMERIC[i])),
        (0..NUMERIC.len()).prop_map(|i| format!("AVG({})", NUMERIC[i])),
        (0..PLAIN.len()).prop_map(|i| format!("MIN({})", PLAIN[i])),
        (0..PLAIN.len()).prop_map(|i| format!("MAX({})", PLAIN[i])),
    ]
}

/// A random statement over `a, b`. NaN data rules out ORDER BY: NaN
/// compares equal to everything, which is not an order a sort may rely on.
fn sql(nan: bool) -> impl Strategy<Value = String> {
    // (select list, GROUP BY list)
    type Shape = (Vec<String>, Vec<String>);
    let projection = proptest::collection::vec(0..PLAIN.len(), 1..4).prop_map(|picks| -> Shape {
        (
            picks.iter().map(|&i| PLAIN[i].to_string()).collect(),
            vec![],
        )
    });
    let grouped = (
        proptest::collection::vec(0..GROUPABLE, 0..3),
        proptest::collection::vec(aggregate(), 1..4),
        proptest::collection::vec(any::<bool>(), 2),
    )
        .prop_map(|(mut keys, aggs, shown)| -> Shape {
            keys.dedup();
            let keys: Vec<String> = keys.iter().map(|&i| PLAIN[i].to_string()).collect();
            // Aggregates first, then whichever keys are shown: the select
            // list need not repeat every key, nor keep key order.
            let mut select = aggs;
            for (k, &show) in keys.iter().zip(&shown) {
                if show {
                    select.insert(select.len() / 2, k.clone());
                }
            }
            (select, keys)
        });
    let shape = prop_oneof![projection, grouped];
    (
        shape,
        any::<bool>(),
        proptest::collection::vec((0usize..3, any::<bool>()), 0..3),
        prop_oneof![Just(None), (0usize..6).prop_map(Some)],
    )
        .prop_map(move |((select, group_by), distinct, order, limit)| {
            let mut s = String::from("SELECT ");
            if distinct {
                s.push_str("DISTINCT ");
            }
            s.push_str(&select.join(", "));
            s.push_str(" FROM a, b");
            if !group_by.is_empty() {
                s.push_str(" GROUP BY ");
                s.push_str(&group_by.join(", "));
            }
            if !nan && !order.is_empty() {
                let keys: Vec<String> = order
                    .iter()
                    .map(|&(col, asc)| {
                        let ordinal = col % select.len() + 1;
                        format!("{ordinal}{}", if asc { "" } else { " DESC" })
                    })
                    .collect();
                s.push_str(" ORDER BY ");
                s.push_str(&keys.join(", "));
            }
            if let Some(limit) = limit {
                s.push_str(&format!(" LIMIT {limit}"));
            }
            s
        })
}

/// `n` random tuples over the two tables, as a flat arity-2 array.
fn tuples(seed: u64, n: usize, data: &Data) -> Vec<RowId> {
    let mut rng = proptest::test_runner::TestRng::new(seed);
    (0..n)
        .flat_map(|_| {
            [
                rng.below(data.a.len() as u64) as RowId,
                rng.below(data.b.len() as u64) as RowId,
            ]
        })
        .collect()
}

fn bind(data: &Data, sql: &str) -> JoinQuery {
    let cat = Catalog::new();
    let mut a = cat.builder("a", schema![("i", Int), ("f", Float), ("s", Str)]);
    for &(i, f, s) in &data.a {
        a.push_row(&[Value::Int(i), Value::Float(f), Value::from(WORDS[s])]);
    }
    cat.register(a.finish());
    let mut b = cat.builder("b", schema![("j", Int), ("t", Str)]);
    for &(j, t) in &data.b {
        b.push_row(&[Value::Int(j), Value::from(WORDS[t])]);
    }
    cat.register(b.finish());

    let udfs = UdfRegistry::new();
    udfs.register("bump", |args| Value::Int(args[0].as_i64().unwrap() + 1));
    udfs.register_typed("shout", DataType::Str, |args| {
        Value::from(args[0].as_str().unwrap().to_uppercase().as_str())
    });
    match parse_statement(sql).unwrap_or_else(|e| panic!("{sql}: {e}")) {
        Statement::Select(s) => {
            bind_select(&s, &cat, &udfs).unwrap_or_else(|e| panic!("{sql}: {e}"))
        }
        _ => panic!("{sql}: not a select"),
    }
}

/// Bit-exact image of a row: NaN equals NaN, 0.0 differs from -0.0.
fn bits(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Int(i) => format!("i{i}"),
                    Value::Float(f) => format!("f{:016x}", f.to_bits()),
                    Value::Str(s) => format!("s{s}"),
                })
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------

// The nightly workflow (.github/workflows/nightly.yml) runs this block with
// PROPTEST_CASES at ten times `cases`: change both together.
proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// Same rows, same work, same timeout point at every limit.
    #[test]
    fn kernel_matches_the_row_at_a_time_model(
        seed: u64,
        n in 0usize..40,
        case in any::<bool>().prop_flat_map(|nan| (data(nan), sql(nan))),
    ) {
        let (data, sql) = case;
        let q = bind(&data, &sql);
        let ids = tuples(seed, n, &data);
        let view = TupleView::new(&ids, 2);

        let unlimited = WorkBudget::unlimited();
        let expected = model(&q.tables, &q, &ids, 2, &unlimited).expect("unlimited");
        let total = unlimited.used();

        for limit in 0..=total + 1 {
            let (mb, kb) = (WorkBudget::with_limit(limit), WorkBudget::with_limit(limit));
            let want = model(&q.tables, &q, &ids, 2, &mb);
            let got = postprocess(&q.tables, &q, view, &kb);
            prop_assert_eq!(got.is_err(), want.is_err(), "{} (limit {})", sql, limit);
            prop_assert_eq!(got.is_err(), limit < total, "{} (limit {})", sql, limit);
            prop_assert_eq!(kb.used(), mb.used(), "{} (limit {})", sql, limit);
            if let (Ok(got), Ok(want)) = (got, want) {
                prop_assert_eq!(bits(&got.rows), bits(&want), "{} (limit {})", sql, limit);
                prop_assert_eq!(bits(&got.rows), bits(&expected), "{}", sql);
            }
        }
    }
}

// The nightly workflow (.github/workflows/nightly.yml) runs this block with
// PROPTEST_CASES at ten times `cases`: change both together.
proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Enough tuples for `postprocess_parallel` to split: every thread
    /// count returns the model's rows in the model's order and records the
    /// model's work; one unit less times out everywhere.
    #[test]
    fn parallel_matches_the_model_at_every_thread_count(
        seed: u64,
        n in 256usize..700,
        case in any::<bool>().prop_flat_map(|nan| (data(nan), sql(nan))),
    ) {
        let (data, sql) = case;
        let q = bind(&data, &sql);
        let ids = tuples(seed, n, &data);
        let view = TupleView::new(&ids, 2);

        let unlimited = WorkBudget::unlimited();
        let expected = model(&q.tables, &q, &ids, 2, &unlimited).expect("unlimited");
        let total = unlimited.used();

        for threads in [1, 2, 4] {
            let exact = WorkBudget::with_limit(total);
            let got = postprocess_parallel(&q.tables, &q, view, &exact, threads)
                .unwrap_or_else(|_| panic!("{sql}: exact-fit budget timed out at {threads} threads"));
            prop_assert_eq!(bits(&got.rows), bits(&expected), "{} ({} threads)", sql, threads);
            prop_assert_eq!(exact.used(), total, "{} ({} threads)", sql, threads);

            let short = WorkBudget::with_limit(total - 1);
            prop_assert!(
                postprocess_parallel(&q.tables, &q, view, &short, threads).is_err(),
                "{} ({} threads): one unit short must time out", sql, threads
            );
        }
    }
}

#[test]
fn scalar_aggregates_over_empty_input_yield_one_row() {
    let data = Data {
        a: vec![(1, 0.5, 1)],
        b: vec![(2, 2)],
    };
    let sql = "SELECT COUNT(*), SUM(a.i), SUM(a.f), AVG(b.j), MIN(a.s), MAX(a.f), MIN(bump(b.j)) \
               FROM a, b";
    let q = bind(&data, sql);
    let budget = WorkBudget::unlimited();
    let want = model(&q.tables, &q, &[], 2, &WorkBudget::unlimited()).unwrap();
    let got = postprocess(&q.tables, &q, TupleView::new(&[], 2), &budget).unwrap();
    assert_eq!(got.rows.len(), 1);
    assert_eq!(bits(&got.rows), bits(&want));
    assert_eq!(budget.used(), 0);
    // A grouped query over empty input has no groups, hence no rows.
    let q = bind(&data, "SELECT a.i, COUNT(*) FROM a, b GROUP BY a.i");
    let got = postprocess(&q.tables, &q, TupleView::new(&[], 2), &budget).unwrap();
    assert!(got.rows.is_empty());
}
