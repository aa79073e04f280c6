//! Quickstart: create tables, register a UDF, run queries, open sessions,
//! and reuse prepared statements.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use skinnerdb::{DataType, Database, Value};

fn main() {
    let db = Database::new();

    // A small star schema: orders reference customers and products.
    db.create_table(
        "customers",
        &[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("country", DataType::Str),
        ],
        vec![
            vec![Value::Int(1), Value::from("ada"), Value::from("uk")],
            vec![Value::Int(2), Value::from("grace"), Value::from("us")],
            vec![Value::Int(3), Value::from("edsger"), Value::from("nl")],
        ],
    )
    .unwrap();
    db.create_table(
        "products",
        &[
            ("id", DataType::Int),
            ("label", DataType::Str),
            ("price", DataType::Float),
        ],
        vec![
            vec![Value::Int(10), Value::from("keyboard"), Value::Float(49.5)],
            vec![Value::Int(11), Value::from("monitor"), Value::Float(199.0)],
            vec![Value::Int(12), Value::from("mouse"), Value::Float(25.0)],
        ],
    )
    .unwrap();
    let orders: Vec<Vec<Value>> = (0..40)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(1 + i % 3),
                Value::Int(10 + i % 3),
                Value::Int(1 + (i * 7) % 5),
            ]
        })
        .collect();
    db.create_table(
        "orders",
        &[
            ("id", DataType::Int),
            ("customer_id", DataType::Int),
            ("product_id", DataType::Int),
            ("quantity", DataType::Int),
        ],
        orders,
    )
    .unwrap();

    // Plain SQL — executed by Skinner-C: no statistics, no cost model; the
    // join order is learned during this very execution.
    let result = db
        .query(
            "SELECT c.name, SUM(p.price * o.quantity) spent \
             FROM customers c, orders o, products p \
             WHERE c.id = o.customer_id AND p.id = o.product_id \
             GROUP BY c.name ORDER BY spent DESC",
        )
        .unwrap();
    println!(
        "Spend per customer (via Skinner-C):\n{}",
        skinnerdb::render_table(&result, 10)
    );

    // UDFs are black boxes for a traditional optimizer; SkinnerDB does not
    // care — predicates are just predicates.
    db.register_udf("premium", |args| {
        Value::from(args[0].as_f64().unwrap_or(0.0) > 100.0)
    });
    let premium = db
        .query(
            "SELECT c.country, COUNT(*) n \
             FROM customers c, orders o, products p \
             WHERE c.id = o.customer_id AND p.id = o.product_id AND premium(p.price) \
             GROUP BY c.country ORDER BY n DESC",
        )
        .unwrap();
    println!(
        "Premium orders per country:\n{}",
        skinnerdb::render_table(&premium, 10)
    );

    // The same query under different evaluation strategies — identical
    // results, different execution models.
    let sql = "SELECT c.name FROM customers c, orders o \
               WHERE c.id = o.customer_id AND o.quantity > 3";
    for name in ["Skinner-C", "Skinner-G", "Skinner-H", "Traditional", "Eddy"] {
        let session = db.session();
        session.use_strategy(name).unwrap();
        let out = session.run_script(sql).unwrap();
        println!(
            "{:<12} → {:>3} rows, {:>6} work units, {:?}",
            name,
            out.result.num_rows(),
            out.work_units,
            out.wall
        );
    }

    // Sessions: per-client strategy and limits over the shared database,
    // and prepared statements — parse + bind once, execute many times.
    let session = db.session();
    session.use_strategy("traditional").unwrap();
    session.set_work_limit(10_000_000);
    let hot = session
        .prepare(
            "SELECT p.label, SUM(o.quantity) q FROM orders o, products p              WHERE p.id = o.product_id GROUP BY p.label ORDER BY q DESC",
        )
        .unwrap();
    for round in 1..=2 {
        let rows = hot.execute().unwrap();
        println!(
            "prepared execution #{round} ({}):
{}",
            hot.strategy().name(),
            skinnerdb::render_table(&rows, 5)
        );
    }
}
