//! Every call into the program under test lives in this file.
//!
//! Only facade-level entry points are used — `Database` / `Session` /
//! `Prepared`, `Server` / `Client`, `skinner_exec::preprocess`,
//! `HashIndex::{build, next_match}`, `UctTree::{choose, update}`,
//! `protocol::Response` — and strategies are addressed by registry name,
//! so the join loop, the UCT trees and the episode loops can be rewritten
//! without editing the benchmark. Layers are measured from outside: a
//! timer around each call, plus the read-outs the program already
//! publishes (`Trace` stage spans, wire `Profile` frames, `ExecMetrics`,
//! `SHOW SERVER STATS`, `learning_cache_stats`). A stage or counter the
//! program does not report is *absent* from a [`Readout`], never zero.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use skinner_client::Client;
use skinner_server::protocol::Response;
use skinner_server::{Server, ServerConfig};
use skinnerdb::skinner_exec::{preprocess, ExecMetrics, Trace, WorkBudget};
use skinnerdb::skinner_storage::HashIndex;
use skinnerdb::skinner_uct::{UctConfig, UctTree};
use skinnerdb::skinner_workloads::{job_like, torture, tpch, Workload};
use skinnerdb::{DataType, Database, Prepared, Session, Value};

use crate::spans::Recorder;
use crate::workloads::{self, Kind, Plan, Statement, Torture};

/// Default engine of the served and torture workloads, by registry name.
const LEARNED: &str = "Skinner-C";
/// Engine of `tpch_disk`, with [`DISK_THREADS`] workers.
const PARALLEL: &str = "parallel_skinner";
/// Engine that produces the reference answers.
const REFERENCE: &str = "Traditional";
pub const DISK_THREADS: usize = 2;
/// Work cap of one reference execution. A statement whose reference does
/// not finish under it cannot be checked and fails set-up.
const REFERENCE_WORK_CAP: u64 = 100_000_000;
/// Span capacity of the engine trace attached in traced executions: one
/// span per run of slices on one join order, so room for a thousand
/// order switches per statement. (The server attaches 64 per statement;
/// what it overwrites shows up as `server.unattributed_us`.)
const TRACE_SPANS: usize = 1024;

/// One stage the program reported for a statement.
#[derive(Debug, Clone)]
pub struct Stage {
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// What a traced execution told us about the layers below the caller.
#[derive(Debug, Default)]
pub struct Readout {
    pub stages: Vec<Stage>,
    /// Server-side total of a served statement (`Profile::total_ns`).
    pub server_total_ns: Option<u64>,
    /// Engine counters that were present, by name (see [`engine_counts`]).
    pub counts: Vec<(&'static str, u64)>,
}

/// One statement execution as its caller saw it.
#[derive(Debug)]
pub struct Exec {
    /// Caller-observed latency of the statement alone: send to last row
    /// decoded, or `execute` call to rows materialised.
    pub latency_ns: u64,
    pub checksum: u64,
    pub rows: u64,
    pub work_units: u64,
    /// SQL statements the script ran (temp-table scripts run several).
    pub statements: u64,
    /// Time inside `ExecutionStrategy::execute`, summed over the script.
    pub execute_us: u64,
    pub readout: Option<Readout>,
}

/// Order-insensitive checksum of a result: per-row FNV-1a hashes combined
/// with a wrapping sum, plus the row count. Floats are hashed at nine
/// significant digits so engines that sum in different orders agree.
pub fn checksum(rows: &[Vec<Value>]) -> u64 {
    let mut sum = 0u64;
    for row in rows {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for v in row {
            match v {
                Value::Int(i) => {
                    eat(b"i");
                    eat(&i.to_le_bytes());
                }
                Value::Float(x) => {
                    eat(b"f");
                    eat(format!("{x:.8e}").as_bytes());
                }
                Value::Str(s) => {
                    eat(b"s");
                    eat(s.as_bytes());
                    eat(&[0xff]);
                }
            }
        }
        // Avalanche before summing so equal rows in different results do
        // not cancel against each other's low bits.
        h ^= h >> 32;
        sum = sum.wrapping_add(h.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    sum.wrapping_add(rows.len() as u64)
}

/// The engine counters of one statement that the benchmark reports.
fn engine_counts(m: &ExecMetrics, out: &mut Vec<(&'static str, u64)>) {
    // Engines that do not learn (temp-table DROP, Traditional) report no
    // slices; they contribute nothing rather than zeros.
    if m.slices == 0 && m.counters.is_empty() {
        return;
    }
    out.push(("slices", m.slices));
    out.push(("result_tuples", m.result_tuples));
    out.push(("result_set_bytes", m.result_set_bytes as u64));
    out.push(("aux_bytes", m.total_aux_bytes as u64));
    out.push(("uct_nodes", m.uct_nodes as u64));
    out.push(("pages_read", m.pages_read));
    out.push(("pages_skipped", m.pages_skipped));
    if let Some((_, on_best)) = m.order_slice_counts.first() {
        out.push(("off_best_slices", m.slices.saturating_sub(*on_best)));
    }
    for (counter, name) in [
        ("order_switches", "order_switches"),
        ("last_order_switch", "last_order_switch"),
        ("failed_episodes", "abandoned_episodes"),
        ("uct_shards", "uct_shards"),
        ("root_cas_contention", "root_cas_contention"),
        ("warm_start_visits", "warm_start_visits"),
    ] {
        if let Some(v) = m.counter(counter) {
            out.push((name, v));
        }
    }
}

fn trace_stages(trace: &Trace) -> Vec<Stage> {
    trace
        .spans()
        .into_iter()
        .map(|s| Stage {
            name: s.stage.to_string(),
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
        })
        .collect()
}

/// Record a statement's spans: the caller's root span, and under it the
/// stages the program reported. Served stages hang under a `server.total`
/// span centred in the root (the server's clock epoch is unknown to the
/// client), so the root's self time is the wire and client overhead.
fn record_spans(
    rec: &mut Recorder,
    request: u64,
    root: &str,
    statement: &str,
    start_ns: u64,
    end_ns: u64,
    readout: &Readout,
) {
    let root_id = rec.push(None, request, root, start_ns, end_ns);
    rec.label(root_id, statement);
    let (parent, base) = match readout.server_total_ns {
        Some(total) => {
            let slack = (end_ns - start_ns).saturating_sub(total);
            let base = start_ns + slack / 2;
            let id = rec.push(Some(root_id), request, "server.total", base, base + total);
            (id, base)
        }
        None => (root_id, start_ns),
    };
    for s in &readout.stages {
        rec.push(
            Some(parent),
            request,
            &s.name,
            base + s.start_ns,
            base + s.start_ns + s.dur_ns,
        );
    }
}

/// Generated inputs of one workload: data sets and the query texts the
/// generators produced. The plan (order, literals) is made from these by
/// `workloads.rs`; the engine sees nothing of the seed.
pub struct Inputs {
    pub queries: Vec<(String, String)>,
    /// Number of order keys (`tpch_disk` key ranges).
    pub orders: i64,
    datasets: Vec<Workload>,
}

fn named(w: &Workload) -> Vec<(String, String)> {
    w.queries
        .iter()
        .map(|q| (q.name.clone(), q.script.clone()))
        .collect()
}

pub fn generate(kind: Kind) -> Inputs {
    match kind {
        Kind::JobServed => {
            let w = job_like::generate(&job_like::JobConfig {
                scale: workloads::JOB_SCALE,
                seed: workloads::JOB_DATA_SEED,
            });
            Inputs {
                queries: named(&w),
                orders: 0,
                datasets: vec![w],
            }
        }
        Kind::RepeatServed => Inputs {
            queries: Vec::new(),
            orders: 0,
            datasets: Vec::new(),
        },
        Kind::TortureEmbedded => {
            let datasets: Vec<Workload> = workloads::TORTURE
                .iter()
                .map(|t| match *t {
                    Torture::Trivial { tables, rows } => torture::trivial(tables, rows),
                    Torture::UdfChain { tables, rows, good } => {
                        torture::udf_torture(torture::Shape::Chain, tables, rows, good)
                    }
                    Torture::UdfStar { tables, rows, good } => {
                        torture::udf_torture(torture::Shape::Star, tables, rows, good)
                    }
                    Torture::Correlation { tables, rows, m } => {
                        torture::correlation_torture(tables, rows, m)
                    }
                })
                .collect();
            Inputs {
                queries: datasets.iter().flat_map(named).collect(),
                orders: 0,
                datasets,
            }
        }
        Kind::TpchDisk => {
            let w = tpch::generate(&tpch::TpchConfig {
                scale: workloads::TPCH_SCALE,
                seed: workloads::TPCH_DATA_SEED,
            });
            let orders = tpch::table_sizes(workloads::TPCH_SCALE)
                .iter()
                .find(|(name, _)| *name == "orders")
                .map_or(0, |(_, n)| *n as i64);
            Inputs {
                queries: named(&w),
                orders,
                datasets: vec![w],
            }
        }
    }
}

/// The star schema of `repeat_served`: a selective predicate on the small
/// dimension makes "filtered d1 first" clearly the best join order.
fn star_database() -> Result<Database, String> {
    let db = Database::new();
    let int = |n: &'static str| (n, DataType::Int);
    let rows = |n: i64, f: &dyn Fn(i64) -> Vec<i64>| -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| f(i).into_iter().map(Value::Int).collect())
            .collect()
    };
    db.create_table("d1", &[int("id"), int("a")], rows(24, &|i| vec![i, i % 12]))
        .and_then(|_| db.create_table("d2", &[int("id")], rows(240, &|i| vec![i])))
        .and_then(|_| db.create_table("d3", &[int("id")], rows(600, &|i| vec![i])))
        .and_then(|_| {
            db.create_table(
                "fact",
                &[int("k1"), int("k2"), int("k3")],
                rows(workloads::STAR_FACT_ROWS, &|i| {
                    vec![i % 24, (i * 7) % 240, (i * 13) % 600]
                }),
            )
        })
        .map_err(|e| e.to_string())?;
    Ok(db)
}

/// Write a table as CSV (header, comma separated, quoted where needed).
fn write_csv(db: &Database, table: &str, path: &Path) -> Result<u64, String> {
    let t = db
        .catalog()
        .get(table)
        .ok_or_else(|| format!("no table {table}"))?;
    let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
    let mut w = std::io::BufWriter::new(file);
    let header: Vec<&str> = t
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .collect();
    let io = |e: std::io::Error| e.to_string();
    writeln!(w, "{}", header.join(",")).map_err(io)?;
    let rows = t.num_rows();
    for r in 0..rows {
        let mut line = String::new();
        for (i, v) in t.row_values(r as u32).iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            match v {
                Value::Str(s) if s.contains([',', '"', '\n']) => {
                    line.push('"');
                    line.push_str(&s.replace('"', "\"\""));
                    line.push('"');
                }
                other => line.push_str(&other.to_string()),
            }
        }
        writeln!(w, "{line}").map_err(io)?;
    }
    w.flush().map_err(io)?;
    Ok(rows as u64)
}

/// What one `tpch_disk` pass did before its queries.
#[derive(Debug, Clone, Copy)]
pub struct Prelude {
    pub ingest_ns: u64,
    pub ingest_rows: u64,
    pub open_ns: u64,
}

pub struct DiskCaller {
    dir: PathBuf,
    csv: PathBuf,
    csv_rows: u64,
    session: Session,
}

impl DiskCaller {
    fn open(dir: &Path, strategy: &'static str) -> Result<Session, String> {
        let db = Database::open(dir).map_err(|e| e.to_string())?;
        let session = db.session();
        session.use_strategy(strategy).map_err(|e| e.to_string())?;
        session.set_threads(Some(DISK_THREADS));
        Ok(session)
    }

    /// The write path and the cold open of one pass: bulk-ingest the
    /// lineitem CSV into a fresh segment and drop it again, then reopen
    /// the data directory from nothing. With `sequential` the pass runs
    /// under sequential Skinner-C instead of `parallel_skinner` (the
    /// traced run compares the two for `core.parallel_speedup`).
    fn begin_pass(
        &mut self,
        mut rec: Option<&mut Recorder>,
        sequential: bool,
    ) -> Result<Prelude, String> {
        let strategy = if sequential { LEARNED } else { PARALLEL };
        let db = self.session.database().clone();
        let now = |rec: &Option<&mut Recorder>| rec.as_ref().map_or(0, |r| r.now_ns());
        let s0 = now(&rec);
        let t0 = Instant::now();
        db.bulk_load_csv("lineitem_ingest", &self.csv)
            .map_err(|e| e.to_string())?;
        let ingest_ns = t0.elapsed().as_nanos() as u64;
        if let Some(r) = rec.as_deref_mut() {
            r.push(None, 0, "storage.bulk_load_csv", s0, s0 + ingest_ns);
        }
        let loaded = db
            .catalog()
            .get("lineitem_ingest")
            .map_or(0, |t| t.num_rows() as u64);
        if loaded != self.csv_rows {
            return Err(format!("ingested {loaded} rows of {}", self.csv_rows));
        }
        self.session
            .run_script("DROP TABLE lineitem_ingest; SELECT r.r_regionkey FROM region r")
            .map_err(|e| e.to_string())?;
        // Let go of every handle on the old database first, so the open
        // below starts from nothing.
        drop(db);
        self.session = Database::new().session();
        let s1 = now(&rec);
        let t1 = Instant::now();
        self.session = DiskCaller::open(&self.dir, strategy)?;
        let open_ns = t1.elapsed().as_nanos() as u64;
        if let Some(r) = rec {
            r.push(None, 0, "storage.open", s1, s1 + open_ns);
        }
        Ok(Prelude {
            ingest_ns,
            ingest_rows: loaded,
            open_ns,
        })
    }
}

/// A closed-loop caller: one wire connection, or one embedded session.
pub enum Caller {
    Remote {
        client: Box<Client>,
        /// Server-side id per statement index, for prepared statements.
        prepared: Vec<Option<u32>>,
    },
    /// `torture_embedded`: every statement bound once, on its own database.
    Prepared(Vec<Prepared>),
    Disk(DiskCaller),
}

impl Caller {
    /// What a pass does before its statements; only `tpch_disk` does
    /// anything (see [`DiskCaller::begin_pass`]).
    pub fn begin_pass(
        &mut self,
        rec: Option<&mut Recorder>,
        sequential: bool,
    ) -> Result<Option<Prelude>, String> {
        match self {
            Caller::Disk(d) => d.begin_pass(rec, sequential).map(Some),
            _ => Ok(None),
        }
    }

    /// Execute statement `ix` of the plan. With a recorder the execution
    /// is traced: the engine trace or the wire profile is read out and the
    /// statement's spans are recorded under request id `request`.
    pub fn run(
        &mut self,
        plan: &Plan,
        ix: usize,
        rec: Option<&mut Recorder>,
        request: u64,
    ) -> Result<Exec, String> {
        let stmt = &plan.statements[ix];
        let start_ns = rec.as_ref().map_or(0, |r| r.now_ns());
        let (root, mut exec) = match self {
            Caller::Remote { client, prepared } => {
                let t0 = Instant::now();
                let (root, res) = match prepared[ix] {
                    Some(id) => ("client.execute", client.execute(id)),
                    None => ("client.query", client.query(&stmt.sql)),
                };
                let latency_ns = t0.elapsed().as_nanos() as u64;
                let res = res.map_err(|e| format!("{}: {e}", stmt.name))?;
                let mut exec = Exec {
                    latency_ns,
                    checksum: checksum(&res.rows),
                    rows: res.rows.len() as u64,
                    work_units: res.summary.work_units,
                    statements: res.summary.statements.len() as u64,
                    execute_us: res.summary.statements.iter().map(|s| s.wall_micros).sum(),
                    readout: None,
                };
                if rec.is_some() {
                    let p = client.profile_last().map_err(|e| e.to_string())?;
                    exec.readout = Some(Readout {
                        stages: p
                            .spans
                            .iter()
                            .map(|s| Stage {
                                name: s.stage.clone(),
                                start_ns: s.start_ns,
                                dur_ns: s.dur_ns,
                            })
                            .collect(),
                        server_total_ns: Some(p.total_ns),
                        // The wire summary carries slices and nothing else
                        // of `ExecMetrics`; see `World::probe`.
                        counts: vec![(
                            "slices",
                            res.summary.statements.iter().map(|s| s.slices).sum(),
                        )],
                    });
                }
                (root, exec)
            }
            Caller::Prepared(statements) => {
                let p = &statements[ix];
                let trace = rec.as_ref().map(|_| Trace::new(TRACE_SPANS));
                let ctx = match &trace {
                    Some(t) => p.fresh_context().with_trace(t.clone()),
                    None => p.fresh_context(),
                };
                let t0 = Instant::now();
                let out = p.execute_in(&ctx);
                let latency_ns = t0.elapsed().as_nanos() as u64;
                if out.timed_out {
                    return Err(format!("{}: timed out", stmt.name));
                }
                let readout = trace.map(|t| {
                    let mut counts = Vec::new();
                    engine_counts(&out.metrics, &mut counts);
                    Readout {
                        stages: trace_stages(&t),
                        server_total_ns: None,
                        counts,
                    }
                });
                let exec = Exec {
                    latency_ns,
                    checksum: checksum(&out.result.rows),
                    rows: out.result.rows.len() as u64,
                    work_units: out.work_units,
                    statements: 1,
                    execute_us: out.wall.as_micros() as u64,
                    readout,
                };
                ("prepared.execute", exec)
            }
            Caller::Disk(d) => {
                let exec = run_script(&d.session, &stmt.sql, rec.is_some())
                    .map_err(|e| format!("{}: {e}", stmt.name))?;
                ("session.run_script", exec)
            }
        };
        if let (Some(rec), Some(readout)) = (rec, exec.readout.as_mut()) {
            record_spans(
                rec,
                request,
                root,
                &stmt.name,
                start_ns,
                start_ns + exec.latency_ns,
                readout,
            );
        }
        Ok(exec)
    }
}

/// Run a SQL script through an embedded session, optionally with an
/// engine trace attached.
fn run_script(session: &Session, sql: &str, traced: bool) -> Result<Exec, String> {
    let trace = traced.then(|| Trace::new(TRACE_SPANS));
    let ctx = match &trace {
        Some(t) => session.exec_context().with_trace(t.clone()),
        None => session.exec_context(),
    };
    let strategy = session.strategy();
    let t0 = Instant::now();
    let out = session
        .database()
        .run_script_detailed(sql, strategy.as_ref(), &ctx)
        .map_err(|e| e.to_string())?;
    let latency_ns = t0.elapsed().as_nanos() as u64;
    if out.timed_out {
        return Err("timed out".to_string());
    }
    let readout = trace.map(|t| {
        let mut counts = Vec::new();
        for s in &out.statements {
            engine_counts(&s.metrics, &mut counts);
        }
        Readout {
            stages: trace_stages(&t),
            server_total_ns: None,
            counts,
        }
    });
    Ok(Exec {
        latency_ns,
        checksum: checksum(&out.result.rows),
        rows: out.result.rows.len() as u64,
        work_units: out.work_units,
        statements: out.statements.len() as u64,
        execute_us: out
            .statements
            .iter()
            .map(|s| s.wall.as_micros() as u64)
            .sum(),
        readout,
    })
}

/// Counters of the serving layer, read over the wire.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCounts {
    pub shed: u64,
    pub queued: u64,
    pub admission_wait_p50_us: u64,
}

/// Everything one workload run needs: data, server, callers.
pub struct World {
    pub callers: Vec<Caller>,
    /// Database per `Statement::db`, for reference answers and probes.
    dbs: Vec<Database>,
    server: Option<Server>,
    dir: Option<PathBuf>,
    /// Time spent in `persist_table`, bytes of the resulting segments and
    /// raw bytes of the columns they hold (`tpch_disk` only).
    pub persist_ns: Option<u64>,
    pub segment_bytes: Option<u64>,
    pub user_bytes: Option<u64>,
}

impl World {
    /// Register the data, start what serves it and connect the callers.
    /// `scratch` is a directory of the run's own, for `tpch_disk`.
    pub fn build(plan: &Plan, inputs: Inputs, scratch: &Path) -> Result<World, String> {
        let mut world = World {
            callers: Vec::new(),
            dbs: Vec::new(),
            server: None,
            dir: None,
            persist_ns: None,
            segment_bytes: None,
            user_bytes: None,
        };
        let mut datasets = inputs.datasets.into_iter();
        match plan.kind {
            Kind::JobServed | Kind::RepeatServed => {
                let db = match datasets.next() {
                    Some(w) => Database::from_parts(w.catalog, w.udfs),
                    None => star_database()?,
                };
                // Cross-query learning is the point of the repeat template
                // and off (the paper's per-query discipline) elsewhere.
                db.set_learning_cache(plan.kind == Kind::RepeatServed);
                let server = Server::bind(db.clone(), "127.0.0.1:0", ServerConfig::default())
                    .map_err(|e| format!("bind: {e}"))?;
                let addr = server.local_addr();
                world.server = Some(server);
                world.dbs.push(db);
                for _ in 0..plan.callers {
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut prepared = vec![None; plan.statements.len()];
                    for (ix, stmt) in plan.statements.iter().enumerate() {
                        if stmt.prepared {
                            let (id, _) = client.prepare(&stmt.sql).map_err(|e| e.to_string())?;
                            prepared[ix] = Some(id);
                        }
                    }
                    world.callers.push(Caller::Remote {
                        client: Box::new(client),
                        prepared,
                    });
                }
            }
            Kind::TortureEmbedded => {
                world.dbs = datasets
                    .map(|w| Database::from_parts(w.catalog, w.udfs))
                    .collect();
                let statements = plan
                    .statements
                    .iter()
                    .map(|s| world.dbs[s.db].prepare(&s.sql).map_err(|e| e.to_string()))
                    .collect::<Result<Vec<_>, _>>()?;
                world.callers.push(Caller::Prepared(statements));
            }
            Kind::TpchDisk => {
                let w = datasets.next().ok_or("tpch inputs missing")?;
                let dir = scratch.join("data");
                let csv = scratch.join("lineitem.csv");
                std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
                let db = Database::from_parts(w.catalog, w.udfs);
                let csv_rows = write_csv(&db, "lineitem", &csv)?;
                let names = db.catalog().table_names();
                world.user_bytes = Some(
                    names
                        .iter()
                        .filter_map(|n| db.catalog().get(n))
                        .map(|t| t.byte_size() as u64)
                        .sum(),
                );
                db.attach_data_dir(&dir).map_err(|e| e.to_string())?;
                let t0 = Instant::now();
                for name in &names {
                    db.persist_table(name).map_err(|e| e.to_string())?;
                }
                world.persist_ns = Some(t0.elapsed().as_nanos() as u64);
                drop(db);
                world.segment_bytes = Some(
                    std::fs::read_dir(&dir)
                        .map_err(|e| e.to_string())?
                        .filter_map(Result::ok)
                        .filter(|e| e.path().extension().is_some_and(|x| x == "seg"))
                        .filter_map(|e| e.metadata().ok())
                        .map(|m| m.len())
                        .sum(),
                );
                // A read-only handle for reference answers; the caller
                // reopens its own every pass.
                world
                    .dbs
                    .push(Database::open(&dir).map_err(|e| e.to_string())?);
                world.callers.push(Caller::Disk(DiskCaller {
                    session: DiskCaller::open(&dir, PARALLEL)?,
                    dir: dir.clone(),
                    csv,
                    csv_rows,
                }));
                world.dir = Some(scratch.to_path_buf());
            }
        }
        Ok(world)
    }

    /// The reference answer of a statement: its checksum under the
    /// traditional optimizer-plus-executor, which shares no join code
    /// with the learned engines.
    pub fn reference(&self, stmt: &Statement) -> Result<u64, String> {
        let session = self.dbs[stmt.db].session();
        session.use_strategy(REFERENCE).map_err(|e| e.to_string())?;
        session.set_learning_cache(Some(false));
        session.set_work_limit(REFERENCE_WORK_CAP);
        let out = session
            .run_script(&stmt.sql)
            .map_err(|e| format!("{}: {e}", stmt.name))?;
        if out.timed_out {
            return Err(format!(
                "{}: reference did not finish under {REFERENCE_WORK_CAP} work units",
                stmt.name
            ));
        }
        Ok(checksum(&out.result.rows))
    }

    /// Execute a statement of a *served* workload once more in-process,
    /// traced, under the same default engine: the wire summary carries no
    /// `ExecMetrics`, so engine counters of served workloads come from
    /// this probe.
    pub fn probe(&self, stmt: &Statement) -> Result<Exec, String> {
        run_script(&self.dbs[stmt.db].session(), &stmt.sql, true)
    }

    /// Rows entering and leaving `skinner_exec::preprocess` for a
    /// statement; `None` for multi-statement scripts, which cannot be
    /// bound on their own.
    pub fn preprocess_rows(&self, stmt: &Statement) -> Option<(u64, u64)> {
        let query = self.dbs[stmt.db].bind(&stmt.sql).ok()?;
        let pre = preprocess(&query, &WorkBudget::unlimited(), 1).ok()?;
        let rows_in = pre.base_rows.iter().map(|&n| n as u64).sum();
        let rows_out = (0..pre.tables.len())
            .map(|t| u64::from(pre.cardinality(t)))
            .sum();
        Some((rows_in, rows_out))
    }

    /// Hits, misses and quarantines of the cross-query learning cache of
    /// the first database.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        let s = self.dbs[0].learning_cache_stats();
        (s.hits, s.misses, s.quarantines)
    }

    fn first_client(&mut self) -> Option<&mut Client> {
        match self.callers.first_mut() {
            Some(Caller::Remote { client, .. }) => Some(client),
            _ => None,
        }
    }

    /// `SHOW SERVER STATS` over the wire; `None` without a server.
    pub fn server_counts(&mut self) -> Option<ServerCounts> {
        let table = self.first_client()?.query("SHOW SERVER STATS").ok()?;
        let mut counts = ServerCounts::default();
        for row in &table.rows {
            let (Some(Value::Str(name)), Some(Value::Int(v))) = (row.first(), row.get(1)) else {
                continue;
            };
            let v = *v as u64;
            match &**name {
                "shed_total" => counts.shed = v,
                "queued_queries" => counts.queued = v,
                "admission_wait_us.p50" => counts.admission_wait_p50_us = v,
                _ => {}
            }
        }
        Some(counts)
    }

    /// Median latency in ns of a statement that touches no table
    /// (`SHOW STRATEGIES`): the floor every served statement pays.
    pub fn noop_roundtrip_ns(&mut self, samples: usize) -> Option<f64> {
        let client = self.first_client()?;
        let mut ns = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t0 = Instant::now();
            client.query("SHOW STRATEGIES").ok()?;
            ns.push(t0.elapsed().as_nanos() as f64);
        }
        Some(crate::metrics::median(&ns))
    }

    /// Disconnect, stop the server and join its threads, remove files.
    pub fn close(mut self) {
        self.callers.clear();
        if let Some(mut server) = self.server.take() {
            server.shutdown();
        }
        self.dbs.clear();
        if let Some(dir) = self.dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Micro-loops over single layers, the same on every workload: they time
/// public functions directly on inputs of fixed size.
pub struct Micro {
    pub uct_select_backup_ns: f64,
    pub index_build_us: f64,
    pub index_probe_ns: f64,
    pub protocol_encode_ns_per_row: f64,
    pub protocol_decode_ns_per_row: f64,
}

pub fn micro() -> Result<Micro, String> {
    use std::hint::black_box;

    // UCT choose + update on the join graph of a 10-table JOB-like query.
    let w = job_like::generate(&job_like::JobConfig {
        scale: 0.01,
        seed: workloads::JOB_DATA_SEED,
    });
    let ten = w
        .queries
        .iter()
        .find(|q| q.num_tables == 10)
        .ok_or("no 10-table query")?;
    let db = Database::from_parts(w.catalog.clone(), w.udfs);
    let graph = db
        .bind(&ten.script)
        .map_err(|e| e.to_string())?
        .join_graph();
    let mut tree = UctTree::new(
        graph,
        UctConfig {
            exploration_weight: 1e-6,
            seed: 7,
        },
    );
    let rounds = 20_000u32;
    let t0 = Instant::now();
    for i in 0..rounds {
        let order = tree.choose();
        let reward = f64::from(order[0] as u32 * 7 % 10 + i % 3) / 12.0;
        tree.update(black_box(&order), reward);
    }
    let uct_select_backup_ns = t0.elapsed().as_nanos() as f64 / f64::from(rounds);
    black_box(tree.num_nodes());

    // Hash index build and `next_match` jumps on a 100k-row key column
    // with 1000 distinct keys (100-row posting lists).
    let n = 100_000i64;
    let idb = Database::new();
    idb.create_table(
        "k",
        &[("v", DataType::Int)],
        (0..n).map(|i| vec![Value::Int(i % 1000)]).collect(),
    )
    .map_err(|e| e.to_string())?;
    let table = idb.catalog().get("k").ok_or("no table k")?;
    let column = table.column(0);
    let t0 = Instant::now();
    let index = HashIndex::build(black_box(column));
    let index_build_us = t0.elapsed().as_nanos() as f64 / 1e3;
    let probes = 200_000u32;
    let mut found = 0u64;
    let t0 = Instant::now();
    for i in 0..probes {
        let row = (i * 7919) % n as u32;
        found += u64::from(index.next_match(column.key_at(row), row / 2).is_some());
    }
    let index_probe_ns = t0.elapsed().as_nanos() as f64 / f64::from(probes);
    black_box(found);

    // Wire encode and decode of a 256-row batch (int, float, string).
    let batch = Response::RowBatch {
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
    let reps = 400u32;
    let t0 = Instant::now();
    let mut payload = Vec::new();
    for _ in 0..reps {
        payload = black_box(&batch).encode().map_err(|e| e.to_string())?;
    }
    let protocol_encode_ns_per_row = t0.elapsed().as_nanos() as f64 / f64::from(reps * 256);
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(Response::decode(black_box(&payload)).map_err(|e| e.to_string())?);
    }
    let protocol_decode_ns_per_row = t0.elapsed().as_nanos() as f64 / f64::from(reps * 256);

    Ok(Micro {
        uct_select_backup_ns,
        index_build_us,
        index_probe_ns,
        protocol_encode_ns_per_row,
        protocol_decode_ns_per_row,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_ignores_row_order_and_float_summation_noise() {
        let a = vec![
            vec![Value::Int(1), Value::from("x"), Value::Float(0.1 + 0.2)],
            vec![Value::Int(2), Value::from("y"), Value::Float(1e9 + 0.25)],
        ];
        let b = vec![
            vec![Value::Int(2), Value::from("y"), Value::Float(1e9 + 0.25)],
            vec![Value::Int(1), Value::from("x"), Value::Float(0.3)],
        ];
        assert_eq!(checksum(&a), checksum(&b));
    }

    #[test]
    fn checksum_sees_values_duplicates_and_column_shifts() {
        let base = vec![vec![Value::Int(1), Value::Int(2)]];
        assert_ne!(
            checksum(&base),
            checksum(&[vec![Value::Int(2), Value::Int(1)]])
        );
        assert_ne!(
            checksum(&base),
            checksum(&[base[0].clone(), base[0].clone()])
        );
        assert_ne!(checksum(&base), checksum(&[]));
        assert_ne!(
            checksum(&[vec![Value::from("ab"), Value::from("c")]]),
            checksum(&[vec![Value::from("a"), Value::from("bc")]])
        );
        assert_ne!(
            checksum(&[vec![Value::Float(1.0)]]),
            checksum(&[vec![Value::Float(1.001)]])
        );
    }
}
