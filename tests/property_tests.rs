//! Property-based testing of the core correctness invariant: for *random*
//! schemas, data, predicates and tuning knobs, every Skinner strategy
//! produces exactly the reference result. This exercises the multi-way
//! join's backtracking, the progress trie's fast-forwarding, offset
//! handling, batch bookkeeping of Skinner-G, and result deduplication far
//! beyond the hand-written cases.

use proptest::prelude::*;

use skinnerdb::skinner_adaptive::{EddyStrategy, ReoptimizerStrategy};
use skinnerdb::skinner_core::{
    RewardKind, SkinnerCConfig, SkinnerCStrategy, SkinnerGConfig, SkinnerGStrategy,
    SkinnerHStrategy,
};
use skinnerdb::skinner_exec::{ReferenceStrategy, TraditionalStrategy};
use skinnerdb::{DataType, Database, ExecutionStrategy, Value};

/// A randomly generated query workload: `k` tables in a chain, each with a
/// join column and a payload column over small domains (to force duplicate
/// keys, multi-matches and empty matches).
#[derive(Debug, Clone)]
struct Scenario {
    table_rows: Vec<Vec<(i64, i64)>>, // (join_key, payload)
    filter_table: usize,
    filter_threshold: i64,
    use_filter: bool,
    seed: u64,
    slice_steps: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (2usize..=4)
        .prop_flat_map(|k| {
            (
                proptest::collection::vec(
                    proptest::collection::vec((0i64..6, 0i64..10), 1..12),
                    k..=k,
                ),
                0usize..k,
                0i64..10,
                any::<bool>(),
                any::<u64>(),
                // Floor at 4: one-step slices on the largest draws are
                // pathologically slow in debug builds.
                4u64..40,
            )
        })
        .prop_map(
            |(table_rows, filter_table, filter_threshold, use_filter, seed, slice_steps)| {
                Scenario {
                    table_rows,
                    filter_table,
                    filter_threshold,
                    use_filter,
                    seed,
                    slice_steps,
                }
            },
        )
}

fn build(scenario: &Scenario) -> (Database, String) {
    let db = Database::new();
    for (t, rows) in scenario.table_rows.iter().enumerate() {
        db.create_table(
            &format!("t{t}"),
            &[("k", DataType::Int), ("p", DataType::Int)],
            rows.iter()
                .map(|(k, p)| vec![Value::Int(*k), Value::Int(*p)])
                .collect(),
        )
        .unwrap();
    }
    let k = scenario.table_rows.len();
    let from: Vec<String> = (0..k).map(|t| format!("t{t}")).collect();
    let mut preds: Vec<String> = (0..k - 1)
        .map(|t| format!("t{t}.k = t{}.p % 6", t + 1))
        .collect();
    // `t.k = expr` is a *generic* predicate (not a plain column equality) on
    // one side — exercise both classifications by also adding plain ones.
    for t in 0..k - 1 {
        preds.push(format!("t{t}.k = t{}.k", t + 1));
    }
    if scenario.use_filter {
        preds.push(format!(
            "t{}.p < {}",
            scenario.filter_table, scenario.filter_threshold
        ));
    }
    let sql = format!(
        "SELECT COUNT(*) n FROM {} WHERE {}",
        from.join(", "),
        preds.join(" AND ")
    );
    (db, sql)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// Skinner-C with random slice sizes, seeds and feature toggles always
    /// matches the reference executor.
    #[test]
    fn skinner_c_always_matches_reference(s in scenario(), jumps: bool, share: bool, leftmost: bool) {
        let (db, sql) = build(&s);
        let expected = db.run_script(&sql, &ReferenceStrategy, &db.exec_context()).unwrap();
        let cfg = SkinnerCConfig {
            slice_steps: s.slice_steps,
            seed: s.seed,
            use_jump_indexes: jumps,
            share_progress: share,
            reward: if leftmost { RewardKind::LeftmostDelta } else { RewardKind::FractionalProgress },
            ..Default::default()
        };
        let out = db.run_script(&sql, &SkinnerCStrategy(cfg), &db.exec_context()).unwrap();
        prop_assert!(!out.timed_out);
        prop_assert_eq!(out.result.canonical_rows(), expected.result.canonical_rows());
    }

    /// Skinner-G with random batch counts and timeout units always matches.
    #[test]
    fn skinner_g_always_matches_reference(
        s in scenario(),
        batches in 1usize..12,
        base in 50u64..1500,
    ) {
        let (db, sql) = build(&s);
        let expected = db.run_script(&sql, &ReferenceStrategy, &db.exec_context()).unwrap();
        let cfg = SkinnerGConfig {
            batches,
            base_timeout_units: base,
            seed: s.seed,
            ..Default::default()
        };
        let out = db.run_script(&sql, &SkinnerGStrategy(cfg), &db.exec_context()).unwrap();
        prop_assert!(!out.timed_out);
        prop_assert_eq!(out.result.canonical_rows(), expected.result.canonical_rows());
    }

    /// The adaptive baselines satisfy the same equivalence.
    #[test]
    fn baselines_always_match_reference(s in scenario()) {
        let (db, sql) = build(&s);
        let expected = db.run_script(&sql, &ReferenceStrategy, &db.exec_context()).unwrap();
        let strategies: [&dyn ExecutionStrategy; 4] = [
            &EddyStrategy::default(),
            &ReoptimizerStrategy::default(),
            &TraditionalStrategy::default(),
            &SkinnerHStrategy::default(),
        ];
        for strategy in strategies {
            let out = db.run_script(&sql, strategy, &db.exec_context()).unwrap();
            prop_assert!(!out.timed_out);
            prop_assert_eq!(
                out.result.canonical_rows(),
                expected.result.canonical_rows()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Aggregation pipelines agree between Skinner-C and the reference for
    /// random groupings.
    #[test]
    fn grouped_aggregates_match(s in scenario()) {
        let (db, _) = build(&s);
        let sql = "SELECT t0.k, COUNT(*) c, SUM(t1.p) s, MIN(t1.p) mn, MAX(t1.p) mx \
                   FROM t0, t1 WHERE t0.k = t1.k GROUP BY t0.k ORDER BY t0.k";
        let expected = db.run_script(sql, &ReferenceStrategy, &db.exec_context()).unwrap();
        let out = db.session().run_script(sql).unwrap();
        prop_assert_eq!(
            out.result.ordered_rows(),
            expected.result.ordered_rows()
        );
    }
}
