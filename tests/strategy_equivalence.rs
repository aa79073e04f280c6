//! Differential testing through the execution API: every strategy in the
//! registry — built-ins and externally registered ones alike — must produce
//! exactly the result of the naive reference executor (paper Theorems
//! 5.1–5.3 claim correctness for all Skinner variants; we hold the
//! baselines to the same standard).
//!
//! The suite is driven through `StrategyRegistry` / `ExecutionStrategy`:
//! anything that registers is automatically held to the equivalence bar.

use std::sync::Arc;

use skinnerdb::skinner_exec::reference::run_reference;
use skinnerdb::skinner_exec::ReferenceStrategy;
use skinnerdb::{DataType, Database, ExecContext, ExecOutcome, ExecutionStrategy, Value};

fn test_db() -> Database {
    let db = Database::new();
    db.create_table(
        "fact",
        &[
            ("id", DataType::Int),
            ("d1", DataType::Int),
            ("d2", DataType::Int),
            ("v", DataType::Float),
            ("tag", DataType::Str),
        ],
        (0..120)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 12),
                    Value::Int(i % 7),
                    Value::Float((i as f64) * 0.25),
                    Value::from(if i % 3 == 0 { "alpha" } else { "beta" }),
                ]
            })
            .collect(),
    )
    .unwrap();
    db.create_table(
        "dim1",
        &[("id", DataType::Int), ("label", DataType::Str)],
        (0..12)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::from(format!("label-{}", i % 4).as_str()),
                ]
            })
            .collect(),
    )
    .unwrap();
    db.create_table(
        "dim2",
        &[("id", DataType::Int), ("weight", DataType::Int)],
        (0..7)
            .map(|i| vec![Value::Int(i), Value::Int(i * 10)])
            .collect(),
    )
    .unwrap();
    db.register_udf("mod3_is", |args| {
        Value::from(args[0].as_i64().unwrap_or(0) % 3 == args[1].as_i64().unwrap_or(-1))
    });
    db
}

/// An "external" engine registered from outside the engine crates: wraps
/// the reference executor. Its presence in the registry proves third-party
/// strategies flow through the same door — and get the same differential
/// testing — as the built-ins.
struct ExternalNestedLoop;

impl ExecutionStrategy for ExternalNestedLoop {
    fn name(&self) -> &str {
        "external-nested-loop"
    }

    fn execute(
        &self,
        query: &skinnerdb::skinner_query::JoinQuery,
        _ctx: &ExecContext,
    ) -> ExecOutcome {
        let started = std::time::Instant::now();
        let result = run_reference(query);
        ExecOutcome::completed(result, 0, started.elapsed())
    }
}

fn assert_all_agree(db: &Database, sql: &str) {
    let expected = db
        .run_script(sql, &ReferenceStrategy, &db.exec_context())
        .unwrap()
        .result
        .canonical_rows();
    for name in db.strategies().names() {
        if name == "Reference" {
            continue;
        }
        let strategy = db.strategies().get(&name).unwrap();
        let out = db
            .run_script(sql, strategy.as_ref(), &db.exec_context())
            .unwrap_or_else(|e| panic!("{name} failed on {sql}: {e}"));
        assert!(!out.timed_out, "{name} timed out on {sql}");
        assert_eq!(
            out.result.canonical_rows(),
            expected,
            "{name} disagrees on {sql}"
        );
    }
}

fn registry_db() -> Database {
    let db = test_db();
    db.register_strategy(Arc::new(ExternalNestedLoop));
    db
}

#[test]
fn registry_includes_external_strategy() {
    let db = registry_db();
    assert_eq!(db.strategies().len(), 9, "8 builtins + the external one");
    assert!(db.strategies().contains("external-nested-loop"));
    assert!(db.strategies().contains("Skinner-C"));
    // One learner over the generic engine and one hybrid (paper §4.3/§4.4).
    assert!(db.strategies().contains("Skinner-G"));
    assert!(db.strategies().contains("Skinner-H"));
    // The parallel learned engine faces the same differential-testing bar
    // as every other registered strategy (each assert_all_agree below
    // iterates the registry, so it runs parallel_skinner too).
    assert!(db.strategies().contains("parallel_skinner"));
}

#[test]
fn two_way_equi_join() {
    let db = registry_db();
    assert_all_agree(
        &db,
        "SELECT f.id, d.label FROM fact f, dim1 d WHERE f.d1 = d.id",
    );
}

#[test]
fn three_way_join_with_filters() {
    let db = registry_db();
    assert_all_agree(
        &db,
        "SELECT f.id FROM fact f, dim1 a, dim2 b \
         WHERE f.d1 = a.id AND f.d2 = b.id AND a.label = 'label-1' AND b.weight > 20",
    );
}

#[test]
fn theta_join() {
    let db = registry_db();
    assert_all_agree(
        &db,
        "SELECT f.id FROM fact f, dim2 b WHERE f.d2 = b.id AND f.id < b.weight",
    );
}

#[test]
fn udf_join_predicate() {
    let db = registry_db();
    assert_all_agree(
        &db,
        "SELECT f.id FROM fact f, dim2 b WHERE f.d2 = b.id AND mod3_is(f.id, b.id)",
    );
}

#[test]
fn aggregates_and_groups() {
    let db = registry_db();
    assert_all_agree(
        &db,
        "SELECT a.label, COUNT(*) c, SUM(f.v) s, MIN(f.id) mn, MAX(f.id) mx, AVG(f.v) av \
         FROM fact f, dim1 a WHERE f.d1 = a.id GROUP BY a.label ORDER BY a.label",
    );
}

#[test]
fn like_and_in_and_between() {
    let db = registry_db();
    assert_all_agree(
        &db,
        "SELECT f.id FROM fact f, dim1 a WHERE f.d1 = a.id \
         AND f.tag LIKE 'al%' AND f.d2 IN (1, 3, 5) AND f.id BETWEEN 10 AND 90",
    );
}

/// `LIKE` over text that holds `%` and `_`: in the text they are ordinary
/// characters, and only the pattern's are wildcards. Hand-computed rows
/// under every registered strategy.
#[test]
fn like_over_text_holding_wildcards() {
    let texts = ["50%", "50% off", "a_b", "axb", "100%_done", "x%zy", "plain"];
    let cases: [(&str, &[i64]); 8] = [
        ("n.s LIKE '50%'", &[1, 2]),
        ("n.s NOT LIKE '50%'", &[3, 4, 5, 6, 7]),
        ("n.s LIKE 'a_b'", &[3, 4]),
        ("n.s LIKE '%_done'", &[5]),
        ("n.s LIKE 'x%y'", &[6]),
        ("n.s NOT LIKE '%_%'", &[]),
        ("n.s LIKE '%'", &[1, 2, 3, 4, 5, 6, 7]),
        ("n.s NOT LIKE '%o%'", &[1, 3, 4, 6, 7]),
    ];
    let db = registry_db();
    db.create_table(
        "notes",
        &[("id", DataType::Int), ("s", DataType::Str)],
        texts
            .iter()
            .zip(1..)
            .map(|(t, id)| vec![Value::Int(id), Value::from(*t)])
            .collect(),
    )
    .unwrap();
    for (pred, ids) in cases {
        let sql = format!("SELECT n.id FROM notes n WHERE {pred} ORDER BY n.id");
        let expected: Vec<Vec<Value>> = ids.iter().map(|&i| vec![Value::Int(i)]).collect();
        for name in db.strategies().names() {
            let session = db.session();
            session.use_strategy(&name).unwrap();
            let out = session
                .query(&sql)
                .unwrap_or_else(|e| panic!("{name} failed on {sql}: {e}"));
            assert_eq!(out.rows, expected, "{name}: {sql}");
        }
    }
}

/// The registry database plus two string-valued UDFs: `up(s)` and
/// `glue(a, b)` = `a/b`.
fn string_udf_db() -> Database {
    let db = registry_db();
    db.udfs().register_typed("up", DataType::Str, |args| {
        Value::from(args[0].as_str().unwrap_or_default().to_uppercase().as_str())
    });
    db.udfs().register_typed("glue", DataType::Str, |args| {
        let part = |v: &Value| v.as_str().unwrap_or_default().to_string();
        Value::from(format!("{}/{}", part(&args[0]), part(&args[1])).as_str())
    });
    db
}

/// String-valued UDFs, whose results carry no interner code and may never
/// have been interned, under every registered strategy: `LIKE` and `IN` as
/// filters and as join checks, and as GROUP BY and DISTINCT keys.
#[test]
fn like_and_in_over_string_udfs() {
    // fact.tag is "alpha" on every third id (40 rows), else "beta";
    // f.d1 = a.id pairs id i with label-{i % 4}.
    let cases = [
        (
            "SELECT COUNT(*) c FROM fact f WHERE up(f.tag) LIKE 'AL%'",
            40,
        ),
        (
            "SELECT COUNT(*) c FROM fact f WHERE up(f.tag) NOT LIKE 'AL%'",
            80,
        ),
        (
            "SELECT COUNT(*) c FROM fact f WHERE up(f.tag) IN ('BETA', 'x')",
            80,
        ),
        (
            "SELECT COUNT(*) c FROM fact f WHERE up(f.tag) NOT IN ('ALPHA')",
            80,
        ),
        (
            "SELECT COUNT(*) c FROM fact f, dim1 a \
             WHERE f.d1 = a.id AND glue(f.tag, a.label) LIKE 'alpha/%-1'",
            10,
        ),
        (
            "SELECT COUNT(*) c FROM fact f, dim1 a \
             WHERE f.d1 = a.id AND glue(f.tag, a.label) IN ('beta/label-2', 'nope')",
            20,
        ),
    ];
    let cases = cases.map(|(sql, n)| (sql, vec![vec![Value::Int(n)]]));
    // The same UDFs as GROUP BY and DISTINCT keys: 'ALPHA' and 'BETA' are
    // in no table, and still key as themselves.
    let s = |text: &str| Value::from(text);
    let keyed = [
        (
            "SELECT up(f.tag) u, COUNT(*) c FROM fact f GROUP BY up(f.tag) ORDER BY u",
            vec![
                vec![s("ALPHA"), Value::Int(40)],
                vec![s("BETA"), Value::Int(80)],
            ],
        ),
        (
            "SELECT DISTINCT up(f.tag) u FROM fact f ORDER BY u",
            vec![vec![s("ALPHA")], vec![s("BETA")]],
        ),
        (
            "SELECT glue(f.tag, a.label) g, COUNT(*) c FROM fact f, dim1 a \
             WHERE f.d1 = a.id AND a.id < 3 GROUP BY glue(f.tag, a.label) ORDER BY g",
            vec![
                vec![s("alpha/label-0"), Value::Int(10)],
                vec![s("beta/label-1"), Value::Int(10)],
                vec![s("beta/label-2"), Value::Int(10)],
            ],
        ),
    ];
    for (sql, expected) in cases.into_iter().chain(keyed) {
        for name in string_udf_db().strategies().names() {
            // A fresh database per run, so no earlier statement has
            // interned a UDF result or an `IN` literal.
            let session = string_udf_db().session();
            session.use_strategy(&name).unwrap();
            let out = session
                .query(sql)
                .unwrap_or_else(|e| panic!("{name} failed on {sql}: {e}"));
            assert_eq!(out.rows, expected, "{name}: {sql}");
        }
    }
}

#[test]
fn self_join_aliases() {
    let db = registry_db();
    assert_all_agree(
        &db,
        "SELECT x.id FROM fact x, fact y \
         WHERE x.d1 = y.d2 AND x.id < 20 AND y.id < 15",
    );
}

#[test]
fn cartesian_product_fallback() {
    let db = registry_db();
    assert_all_agree(
        &db,
        "SELECT d.label, b.weight FROM dim1 d, dim2 b WHERE d.id < 3 AND b.id < 2",
    );
}

#[test]
fn empty_results_everywhere() {
    let db = registry_db();
    assert_all_agree(
        &db,
        "SELECT f.id FROM fact f, dim1 a WHERE f.d1 = a.id AND f.id > 100000",
    );
    assert_all_agree(&db, "SELECT f.id FROM fact f WHERE 1 = 2");
}

#[test]
fn scalar_aggregate_over_join() {
    let db = registry_db();
    assert_all_agree(
        &db,
        "SELECT COUNT(*) n, SUM(b.weight) w FROM fact f, dim2 b WHERE f.d2 = b.id",
    );
}

#[test]
fn distinct_order_limit() {
    let db = registry_db();
    assert_all_agree(
        &db,
        "SELECT DISTINCT a.label FROM fact f, dim1 a WHERE f.d1 = a.id ORDER BY a.label LIMIT 2",
    );
}

#[test]
fn or_predicates() {
    let db = registry_db();
    assert_all_agree(
        &db,
        "SELECT f.id FROM fact f, dim1 a WHERE f.d1 = a.id \
         AND (a.label = 'label-0' OR f.d2 = 3)",
    );
}

#[test]
fn four_way_join() {
    let db = registry_db();
    assert_all_agree(
        &db,
        "SELECT COUNT(*) n FROM fact f, dim1 a, dim2 b, fact g \
         WHERE f.d1 = a.id AND f.d2 = b.id AND g.d1 = a.id AND g.id < 10",
    );
}
