//! Integer arithmetic cannot panic from SQL: `i64::MIN / -1`,
//! `i64::MIN % -1` and `-i64::MIN` wrap (as `+`, `-`, `*` and integer `SUM`
//! do) under every registered strategy. One statement per operator, each
//! through a different evaluator: a projection (post-processing), a join
//! predicate (the join loops) and a unary filter (pre-processing).

use skinnerdb::{DataType, Database, Value};

const XS: [i64; 5] = [i64::MIN, -5, 0, 7, i64::MAX];

fn db() -> Database {
    let db = Database::new();
    db.create_table(
        "a",
        &[("x", DataType::Int)],
        XS.iter().map(|&x| vec![Value::Int(x)]).collect(),
    )
    .unwrap();
    db.create_table("b", &[("m", DataType::Int)], vec![vec![Value::Int(-1)]])
        .unwrap();
    db
}

/// Run `sql` under every strategy; each must return one int column of
/// exactly `expected` (in any order).
fn assert_everywhere(sql: &str, expected: impl IntoIterator<Item = i64>) {
    let db = db();
    let mut expected: Vec<i64> = expected.into_iter().collect();
    expected.sort_unstable();
    for name in db.strategies().names() {
        let session = db.session();
        session.use_strategy(&name).unwrap();
        let result = session
            .query(sql)
            .unwrap_or_else(|e| panic!("{name} failed on {sql}: {e}"));
        let mut got: Vec<i64> = result.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, expected, "{name} on {sql}");
    }
}

#[test]
fn division_by_minus_one_wraps() {
    assert_everywhere(
        "SELECT a.x / (0 - 1) q FROM a",
        XS.iter().map(|x| x.wrapping_div(-1)),
    );
}

#[test]
fn remainder_by_minus_one_is_zero() {
    assert_everywhere("SELECT a.x FROM a, b WHERE a.x % b.m = 0", XS);
}

#[test]
fn negation_wraps() {
    assert_everywhere(
        "SELECT a.x FROM a WHERE -a.x < 0",
        XS.into_iter().filter(|x| x.wrapping_neg() < 0),
    );
}
