//! Criterion micro-benchmarks of SkinnerDB's performance-critical pieces:
//! the multi-way join inner loop, UCT selection overhead, join-order
//! switching (backup + restore), index jumps and builds, pre-processing
//! over already-indexed tables, lowered predicates (UDF join checks, one
//! UDF call site alone next to a direct call of its function, and
//! unary filters), the pyramid scheme, the post-processing kernel that
//! turns result tuples into output rows, CSV ingest, the parallel
//! episode loop against sequential Skinner-C, and result rows on the wire
//! (the server's encoding, the client's decoding).
//!
//! These quantify the constants the paper's design minimizes — the cost of
//! switching join orders tens of thousands of times per second.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use skinner_server::protocol::{encode_row_batches, FrameReader, Response};
use skinnerdb::skinner_core::skinner_c::join::{continue_join, JoinCursors, OrderInfo};
use skinnerdb::skinner_core::skinner_c::preproc::prepare;
use skinnerdb::skinner_core::skinner_c::result_set::ResultSet;
use skinnerdb::skinner_core::skinner_c::state::{JoinState, ProgressTracker};
use skinnerdb::skinner_core::{run_skinner_c, PyramidScheme, SkinnerCConfig};
use skinnerdb::skinner_exec::{postprocess, preprocess, ExecContext, TupleView, WorkBudget};
use skinnerdb::skinner_query::{JoinGraph, JoinQuery, TableSet};
use skinnerdb::skinner_storage::HashIndex;
use skinnerdb::skinner_uct::{UctConfig, UctTree};
use skinnerdb::skinner_workloads::torture::{correlation_torture, trivial};
use skinnerdb::{DataType, Database, DiskStore, Value};

fn bench_db(rows: i64) -> (Database, String) {
    let db = Database::new();
    db.create_table(
        "a",
        &[("id", DataType::Int), ("g", DataType::Int)],
        (0..rows)
            .map(|i| vec![Value::Int(i), Value::Int(i % 16)])
            .collect(),
    )
    .unwrap();
    db.create_table(
        "b",
        &[("aid", DataType::Int), ("w", DataType::Int)],
        (0..rows * 2)
            .map(|i| vec![Value::Int(i % rows), Value::Int(i % 64)])
            .collect(),
    )
    .unwrap();
    db.create_table(
        "c",
        &[("bw", DataType::Int)],
        (0..64).map(|i| vec![Value::Int(i)]).collect(),
    )
    .unwrap();
    (
        db,
        "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw".to_string(),
    )
}

/// One full pass of one fixed join `order` over `q`, unsliced: the join
/// loop alone. `q` has no unary predicates, so pre-processing only fetches
/// the jump indexes.
fn full_pass(c: &mut Criterion, name: &str, q: &JoinQuery, order: &[usize]) {
    let ctx = prepare(q, &WorkBudget::unlimited(), 1, true).unwrap().ctx;
    let info = OrderInfo::build(q, &ctx, order, true);
    let offsets = vec![0; order.len()];
    c.bench_function(name, |bench| {
        bench.iter_batched(
            || {
                (
                    JoinState::fresh(&offsets),
                    JoinCursors::default(),
                    ResultSet::new(),
                    WorkBudget::unlimited(),
                )
            },
            |(mut state, mut cursors, mut results, budget)| {
                continue_join(
                    &info,
                    &mut state,
                    &mut cursors,
                    &offsets,
                    u64::MAX,
                    &budget,
                    &mut results,
                )
                .unwrap();
                results.len()
            },
            BatchSize::SmallInput,
        )
    });
}

/// `n` keys below `keys`, key `k` on a share of the rows proportional to
/// `1 / (k + 1)` (Zipf, exponent 1), dealt out in the row order
/// `i * scramble mod n` (`scramble` odd, `n` a power of two).
fn zipf_keys(n: usize, keys: usize, scramble: usize) -> Vec<Value> {
    let h: f64 = (1..=keys).map(|k| 1.0 / k as f64).sum();
    let mut out = vec![Value::Int(0); n];
    let mut i = 0;
    for k in 0..keys {
        let share = (n as f64 / ((k + 1) as f64 * h)).ceil() as usize;
        for _ in 0..share.min(n - i) {
            out[i * scramble % n] = Value::Int(k as i64);
            i += 1;
        }
    }
    out
}

fn multiway_join_throughput(c: &mut Criterion) {
    let (db, sql) = bench_db(2_000);
    full_pass(
        c,
        "multiway_join_full_pass",
        &db.bind(&sql).unwrap(),
        &[0, 1, 2],
    );

    // A star with a 16 384-row fact table whose three foreign keys are
    // Zipf-skewed over 32-row dimensions: the fact level walks windows of
    // up to ~4 000 postings (one per row of the first dimension), and each
    // fact row then opens one-posting windows on the other two.
    let db = Database::new();
    for d in ["d0", "d1", "d2"] {
        db.create_table(
            d,
            &[("id", DataType::Int)],
            (0..32).map(|i| vec![Value::Int(i)]).collect(),
        )
        .unwrap();
    }
    let cols: Vec<Vec<Value>> = [7919, 104_729, 1_299_709]
        .iter()
        .map(|&scramble| zipf_keys(16_384, 32, scramble))
        .collect();
    db.create_table(
        "f",
        &[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Int),
        ],
        (0..16_384)
            .map(|i| cols.iter().map(|col| col[i].clone()).collect())
            .collect(),
    )
    .unwrap();
    let q = db
        .bind(
            "SELECT COUNT(*) FROM d0, d1, d2, f \
             WHERE f.a = d0.id AND f.b = d1.id AND f.c = d2.id",
        )
        .unwrap();
    full_pass(c, "multiway_join_skewed", &q, &[0, 3, 1, 2]);

    // Correlation torture: a ten-table chain with fanout 2 on every edge
    // but the empty one leaving t2. Starting at t1, each t1 row opens a
    // fresh two-posting window at t2 and each of those rows an empty one
    // at t3: short windows whose keys change on every descent.
    let w = correlation_torture(10, 20_000, 2);
    let db = Database::from_parts(w.catalog.clone(), w.udfs);
    let q = db.bind(&w.queries[0].script).unwrap();
    full_pass(
        c,
        "multiway_join_correlation",
        &q,
        &[1, 2, 3, 0, 4, 5, 6, 7, 8, 9],
    );
}

fn uct_selection_overhead(c: &mut Criterion) {
    let graph = JoinGraph::new(10, (0..9).map(|i| TableSet::from_iter([i, i + 1])));
    c.bench_function("uct_choose_and_update", |bench| {
        let mut tree = UctTree::new(graph.clone(), UctConfig::default());
        bench.iter(|| {
            let order = tree.choose();
            tree.update(&order, 0.4);
            order.len()
        })
    });
}

fn join_order_switch_cost(c: &mut Criterion) {
    // Backup + restore of execution state — the operation Skinner-C performs
    // at every slice boundary (tens of thousands of times per second).
    let m = 10;
    let orders: Vec<Vec<usize>> = (0..m)
        .map(|rot| (0..m).map(|i| (i + rot) % m).collect())
        .collect();
    c.bench_function("progress_tracker_switch", |bench| {
        let mut tracker = ProgressTracker::new(m, true);
        let offsets = vec![0u32; m];
        let mut state = JoinState::fresh(&offsets);
        let mut k = 0usize;
        bench.iter(|| {
            let order = &orders[k % orders.len()];
            k += 1;
            tracker.restore_into(order, &offsets, &mut state);
            state.s[order[0]] = (k as u32) % 1000;
            state.depth = k % m;
            tracker.backup(order, &state);
        })
    });
}

fn index_jump_vs_scan(c: &mut Criterion) {
    use skinnerdb::skinner_storage::Column;
    // 100k rows over 1000 keys: packed (direct-address directory), and the
    // same posting lists a million apart (hash directory).
    let dense = Column::Int((0..100_000i64).map(|i| i % 1000).collect());
    let sparse = Column::Int((0..100_000i64).map(|i| i % 1000 * 1_000_003).collect());
    let index = HashIndex::build(&dense);
    c.bench_function("hash_index_next_match", |bench| {
        let mut from = 0u32;
        bench.iter(|| {
            let r = index.next_match(500, from % 99_000);
            from = from.wrapping_add(997);
            r
        })
    });
    for (name, column) in [
        ("hash_index_build_dense", &dense),
        ("hash_index_build_sparse", &sparse),
    ] {
        c.bench_function(name, |bench| {
            bench.iter(|| HashIndex::build(column).num_keys())
        });
    }
}

/// Pre-processing of a ten-table chain join over 20 000-row tables with no
/// unary predicate (the `torture_embedded` statement shape), after an
/// earlier statement has run: every index is already on its table.
fn prepare_warm(c: &mut Criterion) {
    let db = Database::new();
    for t in 0..10 {
        db.create_table(
            &format!("t{t}"),
            &[("a", DataType::Int), ("b", DataType::Int)],
            (0..20_000i64)
                .map(|i| vec![Value::Int(i), Value::Int(i * 7919 % 20_000)])
                .collect(),
        )
        .unwrap();
    }
    let from: Vec<String> = (0..10).map(|t| format!("t{t}")).collect();
    let joins: Vec<String> = (0..9).map(|t| format!("t{t}.b = t{}.a", t + 1)).collect();
    let sql = format!(
        "SELECT t0.a FROM {} WHERE {}",
        from.join(", "),
        joins.join(" AND ")
    );
    let q = db.bind(&sql).unwrap();
    c.bench_function("prepare_warm_10x20k", |bench| {
        bench.iter(|| {
            prepare(&q, &WorkBudget::unlimited(), 1, true)
                .unwrap()
                .index_bytes
        })
    });
}

/// One full pass of one join order over the `trivial` torture shape
/// (Figure 12): a four-table chain joined only through an opaque UDF
/// equality, so every candidate tuple costs one UDF check — 120 000 of them.
fn udf_join_checks(c: &mut Criterion) {
    let w = trivial(4, 200);
    let db = Database::from_parts(w.catalog.clone(), w.udfs);
    let q = db.bind(&w.queries[0].script).unwrap();
    full_pass(c, "udf_join_checks_trivial_4x200", &q, &[0, 1, 2, 3]);
}

/// The `trivial` check alone: `Pred::eval` of `udf_eq(t0.b, t1.a)` at
/// 1 024 row pairs, next to the same function called directly on two
/// `Value::Int`s, the floor a call site can reach. Divide by 1 024 for
/// the cost of one call.
fn udf_call_site(c: &mut Criterion) {
    use skinnerdb::skinner_query::{Expr, Pred};
    let w = trivial(2, 200);
    let db = Database::from_parts(w.catalog.clone(), w.udfs);
    let q = db.bind(&w.queries[0].script).unwrap();
    let expr = &q.generic_preds[0].expr;
    let Expr::Udf { handle, .. } = expr else {
        panic!("the trivial check is one UDF call: {expr:?}")
    };
    let (b, a) = (q.tables[0].column(1), q.tables[1].column(0));
    let check = Pred::lower(expr, &q.tables);
    c.bench_function("udf_call_site_trivial_1k_checks", |bench| {
        bench.iter(|| {
            (0..1024u32)
                .filter(|k| check.eval(&[k % 32, k / 32]))
                .count()
        })
    });
    let func = handle.func.clone();
    c.bench_function("udf_call_site_direct_fn_1k_calls", |bench| {
        bench.iter(|| {
            (0..1024u32)
                .filter(|k| {
                    let args = [Value::Int(b.int_at(k % 32)), Value::Int(a.int_at(k / 32))];
                    func(&args).as_bool()
                })
                .count()
        })
    });
}

/// Pre-processing of one 50 000-row table under four unary predicates —
/// int range, `IN` list, float comparison, `LIKE` — evaluated per row.
fn filter_unary_preds(c: &mut Criterion) {
    let db = Database::new();
    db.create_table(
        "t",
        &[
            ("x", DataType::Int),
            ("g", DataType::Int),
            ("f", DataType::Float),
            ("s", DataType::Str),
        ],
        (0..50_000i64)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 10),
                    Value::Float((i % 7) as f64 * 0.25),
                    Value::from(format!("n-{}", i % 100).as_str()),
                ]
            })
            .collect(),
    )
    .unwrap();
    let q = db
        .bind(
            "SELECT t.x FROM t WHERE t.x < 40000 AND t.g IN (1, 3, 5, 7) \
             AND t.f >= 0.5 AND t.s LIKE 'n-1%'",
        )
        .unwrap();
    c.bench_function("filter_unary_preds_50k", |bench| {
        bench.iter(|| preprocess(&q, &WorkBudget::unlimited(), 1).unwrap().tables[0].num_rows())
    });
}

fn pyramid_scheme(c: &mut Criterion) {
    c.bench_function("pyramid_next_timeout", |bench| {
        let mut p = PyramidScheme::new();
        bench.iter(|| p.next_timeout())
    });
}

fn skinner_c_end_to_end(c: &mut Criterion) {
    let (db, sql) = bench_db(500);
    let q = db.bind(&sql).unwrap();
    c.bench_function("skinner_c_small_query", |bench| {
        let ctx = ExecContext::default();
        bench.iter(|| {
            run_skinner_c(&q, &ctx, &SkinnerCConfig::default())
                .metrics
                .result_tuples
        })
    });
}

/// `tables` tables `t0..` of `rows` rows each — an int `x`, a group key
/// `g` (`groups` distinct values) and a string `s` (`rows / 2` distinct
/// values, so string MIN/MAX keeps meeting new codes) — and `tuples`
/// pseudo-random join-result tuples over them, flat.
fn postprocess_input(tables: usize, rows: u32, groups: i64, tuples: usize) -> (Database, Vec<u32>) {
    let db = Database::new();
    for t in 0..tables {
        db.create_table(
            &format!("t{t}"),
            &[
                ("x", DataType::Int),
                ("g", DataType::Int),
                ("s", DataType::Str),
            ],
            (0..rows as i64)
                .map(|i| {
                    let word = (i * 7919 + t as i64 * 31) % (rows as i64 / 2);
                    vec![
                        Value::Int(i),
                        Value::Int((i * 13 + t as i64) % groups),
                        Value::from(format!("name-{word:07}-{t}").as_str()),
                    ]
                })
                .collect(),
        )
        .unwrap();
    }
    let mut state = 0x5EED_u64;
    let ids = (0..tuples * tables)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % rows as u64) as u32
        })
        .collect();
    (db, ids)
}

fn postprocess_kernel(c: &mut Criterion) {
    let from = |n: usize| {
        (0..n)
            .map(|t| format!("t{t}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    // (name, tables, rows per table, group-key values, tuples, select … )
    let cases = [
        // The JOB `9a` shape: two string MINs over ~200k ten-table tuples.
        (
            "postprocess_min_str_200k",
            10,
            20_000,
            16,
            200_000,
            "SELECT MIN(t2.s), MIN(t7.s)",
            "",
        ),
        (
            "postprocess_group_by_2col",
            2,
            20_000,
            32,
            200_000,
            "SELECT t0.g, t1.g, COUNT(*), SUM(t0.x), MIN(t1.x)",
            " GROUP BY t0.g, t1.g",
        ),
        // The `repeat_served` wide projection: a few thousand output rows.
        (
            "postprocess_project_2k",
            2,
            20_000,
            16,
            2_000,
            "SELECT t0.x, t0.s, t1.x, t0.x + t1.x",
            "",
        ),
    ];
    for (name, tables, rows, groups, tuples, select, tail) in cases {
        let (db, ids) = postprocess_input(tables, rows, groups, tuples);
        let q = db
            .bind(&format!("{select} FROM {}{tail}", from(tables)))
            .unwrap();
        c.bench_function(name, |bench| {
            bench.iter(|| {
                let view = TupleView::new(&ids, tables);
                postprocess(&q.tables, &q, view, &WorkBudget::unlimited())
                    .unwrap()
                    .num_rows()
            })
        });
    }

    // The `q21_all` shape: 60 000 single-table tuples in row order, grouped
    // by 15 000 consecutive order keys (four lines each).
    let db = Database::new();
    db.create_table(
        "lineitem",
        &[("orderkey", DataType::Int), ("suppkey", DataType::Int)],
        (0..60_000i64)
            .map(|i| vec![Value::Int(i / 4), Value::Int(i * 7919 % 100)])
            .collect(),
    )
    .unwrap();
    let q = db
        .bind(
            "SELECT l.orderkey, MIN(l.suppkey), MAX(l.suppkey) \
             FROM lineitem l GROUP BY l.orderkey",
        )
        .unwrap();
    let ids: Vec<u32> = (0..60_000).collect();
    c.bench_function("postprocess_group_by_dense", |bench| {
        bench.iter(|| {
            let view = TupleView::new(&ids, 1);
            postprocess(&q.tables, &q, view, &WorkBudget::unlimited())
                .unwrap()
                .num_rows()
        })
    });
}

/// The `tpch_disk` benchmark's ingest input: TPC-H `lineitem` at scale
/// 0.01 (60 000 rows, 14 columns, ~3.7 MB) as CSV, header first, strings
/// quoted where they hold a comma, quote or line break.
fn lineitem_csv() -> Vec<u8> {
    use skinnerdb::skinner_workloads::tpch::{generate, TpchConfig};
    let w = generate(&TpchConfig {
        scale: 0.01,
        seed: 0x7C4,
    });
    let t = w.catalog.get("lineitem").unwrap();
    let header: Vec<&str> = t
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .collect();
    let mut csv = header.join(",");
    for r in 0..t.num_rows() as u32 {
        csv.push('\n');
        for (i, v) in t.row_values(r).iter().enumerate() {
            if i > 0 {
                csv.push(',');
            }
            match v {
                Value::Str(s) if s.contains([',', '"', '\n']) => {
                    csv.push_str(&format!("\"{}\"", s.replace('"', "\"\"")));
                }
                v => csv.push_str(&v.to_string()),
            }
        }
    }
    csv.push('\n');
    csv.into_bytes()
}

/// CSV ingest of `lineitem`: bulk-loaded with inferred types into a
/// segment of a temporary data directory (parse, page encode, fsync,
/// commit); read into an in-memory table; and scanned with every cell
/// parsed under the inferred schema but kept nowhere (`csv_scan_lineitem`).
/// Then the cold open of the committed segment (`segment_open_lineitem`):
/// map, checksum, decode every page and intern its strings into a fresh
/// interner.
fn csv_ingest(c: &mut Criterion) {
    use skinnerdb::skinner_storage::{
        bulk_load_csv, csv::check_csv, disk::PAGE_ROWS, read_csv, Interner,
    };
    use std::sync::Arc;
    let csv = lineitem_csv();
    let dir = std::env::temp_dir().join(format!("skinner_micro_csv_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DiskStore::open(&dir).unwrap();
    c.bench_function("csv_bulk_load_lineitem", |bench| {
        bench.iter(|| bulk_load_csv(&store, "lineitem", &csv[..], None, PAGE_ROWS).unwrap())
    });
    c.bench_function("csv_read_memory", |bench| {
        bench.iter(|| {
            read_csv("lineitem", &csv[..], None, Arc::new(Interner::new()))
                .unwrap()
                .num_rows()
        })
    });
    bulk_load_csv(&store, "lineitem", &csv[..], None, PAGE_ROWS).unwrap();
    let open = || store.load_table("lineitem", &Arc::new(Interner::new()));
    let schema = open().unwrap().table.schema().clone();
    c.bench_function("csv_scan_lineitem", |bench| {
        bench.iter(|| check_csv(&csv, &schema).unwrap())
    });
    c.bench_function("segment_open_lineitem", |bench| {
        bench.iter(|| open().unwrap().table.num_rows())
    });
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The `tpch_disk` statements with the most result tuples per episode,
/// TPC-H Q9 and Q21 at scale 0.01 (in memory, learning cache off), under
/// `parallel_skinner` at two threads and under sequential Skinner-C: the
/// parallel episode loop's bookkeeping — chunk dispatch, collecting the
/// chunks' tuples, the barrier — next to the join it wraps.
fn parallel_episodes(c: &mut Criterion) {
    use skinnerdb::skinner_workloads::tpch::{generate, TpchConfig};
    let w = generate(&TpchConfig {
        scale: 0.01,
        seed: 0x7C4,
    });
    let db = Database::from_parts(w.catalog.clone(), w.udfs);
    for query in ["Q9", "Q21"] {
        let script = &w.queries.iter().find(|q| q.name == query).unwrap().script;
        for (strategy, label) in [
            ("parallel_skinner", "parallel_2"),
            ("Skinner-C", "skinner_c"),
        ] {
            let session = db.session();
            session.use_strategy(strategy).unwrap();
            session.set_threads(Some(2));
            let name = format!("parallel_episodes_{}_{label}", query.to_lowercase());
            c.bench_function(&name, |bench| {
                bench.iter(|| session.run_script(script).unwrap().result.num_rows())
            });
        }
    }
}

/// One result's frames, repeated without end: a connection's byte
/// stream as its client reads it.
struct Replay<'a> {
    frames: &'a [u8],
    pos: usize,
}

impl std::io::Read for Replay<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = (&self.frames[self.pos..]).read(buf)?;
        self.pos = (self.pos + n) % self.frames.len();
        Ok(n)
    }
}

/// Result rows on the wire. `2002x6` is the `repeat_served` wide
/// statement's result (2 002 rows of 6 ints): the server encodes it as
/// tagged row-batch frames and then drops the rows, as a worker does, and
/// the client reads those frames back from a byte stream into rows.
/// `mixed` decodes one 256-row batch of int, float, string, int rows (the
/// repo benchmark's protocol micro-measurement).
fn wire_rows(c: &mut Criterion) {
    let wide: Vec<Vec<Value>> = (0..2002i64)
        .map(|i| (0..6).map(|c| Value::Int(i * 6 + c)).collect())
        .collect();
    c.bench_function("wire_rows_2002x6_encode", |bench| {
        bench.iter_batched(
            || wide.clone(),
            |rows| {
                let mut out = Vec::new();
                encode_row_batches(&mut out, Some(7), &rows).unwrap();
                out.len()
            },
            BatchSize::LargeInput,
        )
    });
    let mut frames = Vec::new();
    encode_row_batches(&mut frames, Some(7), &wide).unwrap();
    c.bench_function("wire_rows_2002x6_decode", |bench| {
        let mut reader = FrameReader::new(Replay {
            frames: &frames,
            pos: 0,
        });
        bench.iter(|| {
            let mut rows = Vec::new();
            while rows.len() < wide.len() {
                match reader.read_response().unwrap() {
                    Response::Tagged { resp, .. } => match *resp {
                        Response::RowBatch { rows: mut batch } => rows.append(&mut batch),
                        other => panic!("unexpected frame {other:?}"),
                    },
                    other => panic!("unexpected frame {other:?}"),
                }
            }
            rows
        })
    });
    let mixed = Response::RowBatch {
        rows: (0..256)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Float(i as f64 * 1.5),
                    Value::from(format!("row-{i:05}").as_str()),
                    Value::Int(i * 1000),
                ]
            })
            .collect(),
    };
    let payload = mixed.encode().unwrap();
    c.bench_function("wire_rows_mixed_decode", |bench| {
        bench.iter(|| Response::decode(&payload).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets =
        multiway_join_throughput,
        uct_selection_overhead,
        join_order_switch_cost,
        index_jump_vs_scan,
        prepare_warm,
        udf_join_checks,
        udf_call_site,
        filter_unary_preds,
        pyramid_scheme,
        skinner_c_end_to_end,
        postprocess_kernel,
        csv_ingest,
        parallel_episodes,
        wire_rows,
}
criterion_main!(benches);
