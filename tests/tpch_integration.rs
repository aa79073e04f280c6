//! End-to-end TPC-H: all ten evaluated queries produce identical results
//! under Skinner-C, Skinner-H and the traditional path, and the UDF variant
//! (optimizer-opaque predicates) returns exactly the standard variant's
//! results — the UDFs are semantically equivalent by construction.

use skinnerdb::skinner_core::SkinnerHStrategy;
use skinnerdb::skinner_exec::TraditionalStrategy;
use skinnerdb::skinner_workloads::tpch::{generate, generate_udf, TpchConfig};
use skinnerdb::Database;

fn small() -> TpchConfig {
    TpchConfig {
        scale: 0.002,
        seed: 77,
    }
}

#[test]
fn skinner_c_matches_traditional_on_all_queries() {
    let w = generate(&small());
    let db = Database::from_parts(w.catalog.clone(), w.udfs);
    for q in &w.queries {
        let skinner = db
            .session()
            .run_script(&q.script)
            .unwrap_or_else(|e| panic!("{}: {e}", q.name));
        let trad = db
            .run_script(
                &q.script,
                &TraditionalStrategy::default(),
                &db.exec_context(),
            )
            .unwrap();
        assert!(!skinner.timed_out && !trad.timed_out, "{}", q.name);
        assert_eq!(
            skinner.result.canonical_rows(),
            trad.result.canonical_rows(),
            "{} differs",
            q.name
        );
    }
}

#[test]
fn udf_variant_is_semantically_identical() {
    let std_w = generate(&small());
    let udf_w = generate_udf(&small());
    let std_db = Database::from_parts(std_w.catalog.clone(), std_w.udfs);
    let udf_db = Database::from_parts(udf_w.catalog.clone(), udf_w.udfs);
    for (sq, uq) in std_w.queries.iter().zip(&udf_w.queries) {
        assert_eq!(sq.name, uq.name);
        let a = std_db.session().run_script(&sq.script).unwrap();
        let b = udf_db.session().run_script(&uq.script).unwrap();
        assert_eq!(
            a.result.canonical_rows(),
            b.result.canonical_rows(),
            "{}: UDF variant diverges",
            sq.name
        );
    }
}

#[test]
fn hybrid_strategy_completes_tpch() {
    let w = generate(&small());
    let db = Database::from_parts(w.catalog.clone(), w.udfs);
    // Q3 and Q10 — medium joins, quick on the hybrid path.
    for name in ["Q3", "Q10"] {
        let q = w.queries.iter().find(|q| q.name == name).unwrap();
        let hybrid = db
            .run_script(&q.script, &SkinnerHStrategy::default(), &db.exec_context())
            .unwrap();
        let trad = db
            .run_script(
                &q.script,
                &TraditionalStrategy::default(),
                &db.exec_context(),
            )
            .unwrap();
        assert!(!hybrid.timed_out, "{name}");
        assert_eq!(
            hybrid.result.canonical_rows(),
            trad.result.canonical_rows(),
            "{name}"
        );
    }
}

#[test]
fn ordered_queries_preserve_row_order() {
    let w = generate(&small());
    let db = Database::from_parts(w.catalog.clone(), w.udfs);
    let q3 = w.queries.iter().find(|q| q.name == "Q3").unwrap();
    let skinner = db.session().run_script(&q3.script).unwrap();
    let trad = db
        .run_script(
            &q3.script,
            &TraditionalStrategy::default(),
            &db.exec_context(),
        )
        .unwrap();
    // ORDER BY revenue DESC must hold exactly, not just set-wise.
    assert_eq!(skinner.result.ordered_rows(), trad.result.ordered_rows());
    let revenues: Vec<f64> = skinner
        .result
        .rows
        .iter()
        .map(|r| r[1].as_f64().unwrap())
        .collect();
    for pair in revenues.windows(2) {
        assert!(pair[0] >= pair[1], "revenue not descending: {revenues:?}");
    }
}
