//! The `Database` facade: tables, UDFs, SQL scripts, strategies, sessions.

use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use skinner_core::{TreeCache, TreeCacheConfig, TreeCacheStats};
use skinner_exec::{
    ExecContext, ExecMetrics, ExecOutcome, ExecutionStrategy, SpanTimer, StrategyRegistry,
};
use skinner_query::ast::Statement;
use skinner_query::{bind_select, parse_statements, BindError, JoinQuery, ParseError, UdfRegistry};
use skinner_stats::StatsCache;
use skinner_storage::{Catalog, DataType, DiskError, Field, Schema, Value};

use crate::session::{Prepared, Session};
use crate::strategy::{builtin_registry, Strategy};
use crate::QueryResult;

/// Top-level error type.
#[derive(Debug)]
pub enum DbError {
    Parse(ParseError),
    Bind(BindError),
    /// A statement exceeded its work limit, deadline, or was cancelled.
    Timeout,
    /// Schema/constraint violations when creating tables.
    Schema(String),
    /// Persistent-storage failures: I/O, corrupt segments, invalid table
    /// names, or persistence requested without a data directory attached.
    Storage(DiskError),
    /// A strategy name not present in the registry.
    UnknownStrategy(String),
    /// An unknown session option, or a value that does not parse
    /// (see [`crate::Session::set_option`]).
    BadOption(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse(e) => write!(f, "{e}"),
            DbError::Bind(e) => write!(f, "{e}"),
            DbError::Timeout => write!(f, "query exceeded its work limit or deadline"),
            DbError::Schema(s) => write!(f, "schema error: {s}"),
            DbError::Storage(e) => write!(f, "storage error: {e}"),
            DbError::UnknownStrategy(name) => write!(f, "unknown strategy: {name}"),
            DbError::BadOption(msg) => write!(f, "bad option: {msg}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<ParseError> for DbError {
    fn from(e: ParseError) -> Self {
        DbError::Parse(e)
    }
}

impl From<BindError> for DbError {
    fn from(e: BindError) -> Self {
        DbError::Bind(e)
    }
}

impl From<DiskError> for DbError {
    fn from(e: DiskError) -> Self {
        DbError::Storage(e)
    }
}

/// What one script statement was, for per-statement reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatementKind {
    Select,
    CreateTempTable(String),
    DropTable(String),
}

impl fmt::Display for StatementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatementKind::Select => write!(f, "SELECT"),
            StatementKind::CreateTempTable(name) => write!(f, "CREATE TEMP TABLE {name}"),
            StatementKind::DropTable(name) => write!(f, "DROP TABLE {name}"),
        }
    }
}

/// Execution record of a single statement inside a script: its own timing,
/// work units and [`ExecMetrics`] — not just the script totals.
#[derive(Debug)]
pub struct StatementOutcome {
    pub kind: StatementKind,
    /// Rows the statement produced (result rows for the final SELECT, rows
    /// materialized for a temp table, 0 for DROP).
    pub rows: usize,
    pub work_units: u64,
    pub wall: std::time::Duration,
    pub timed_out: bool,
    pub metrics: ExecMetrics,
}

/// Outcome of a whole script with per-statement detail.
///
/// [`Database::run_script_with`] folds this into a single [`ExecOutcome`]
/// (last SELECT's result and metrics, script-wide work/wall); callers that
/// need per-statement timings and metrics — the server reports them per
/// query — use [`Database::run_script_detailed`] /
/// [`crate::Session::run_script_detailed`] instead.
#[derive(Debug)]
pub struct ScriptOutcome {
    /// The last SELECT's result.
    pub result: QueryResult,
    /// Work units accumulated across every statement.
    pub work_units: u64,
    /// Wall time of the whole script.
    pub wall: std::time::Duration,
    /// True if any statement hit its work limit, deadline or cancellation
    /// (the script stops at that statement).
    pub timed_out: bool,
    /// One record per executed statement, in script order.
    pub statements: Vec<StatementOutcome>,
}

impl ScriptOutcome {
    /// Collapse into the classic single-block [`ExecOutcome`]: the final
    /// result plus the metrics of the statement that produced it (or of the
    /// statement that timed out).
    pub fn into_outcome(mut self) -> ExecOutcome {
        // The single-block metrics are the ones belonging to the statement
        // that produced `result`: the timed-out statement if any, else the
        // last SELECT.
        let idx = self
            .statements
            .iter()
            .rposition(|s| s.timed_out)
            .or_else(|| {
                self.statements
                    .iter()
                    .rposition(|s| matches!(s.kind, StatementKind::Select))
            });
        let metrics = idx
            .map(|i| std::mem::take(&mut self.statements[i].metrics))
            .unwrap_or_default();
        ExecOutcome {
            result: self.result,
            work_units: self.work_units,
            wall: self.wall,
            timed_out: self.timed_out,
            metrics,
        }
    }
}

/// An embedded SkinnerDB instance: a catalog of in-memory tables, a UDF
/// registry, cached statistics (for the *baseline* strategies only —
/// SkinnerDB itself never reads them), a strategy registry, and a default
/// evaluation strategy.
///
/// `Database` is `Send + Sync` and every mutator takes `&self`, so one
/// instance can serve many threads; `Clone` produces another handle to the
/// same underlying database (all state is shared). Per-client defaults
/// (strategy, work limits, deadlines) live on [`Session`]s.
#[derive(Clone)]
pub struct Database {
    catalog: Arc<Catalog>,
    udfs: Arc<UdfRegistry>,
    stats: Arc<StatsCache>,
    strategies: Arc<StrategyRegistry>,
    default_strategy: Arc<RwLock<Arc<dyn ExecutionStrategy>>>,
    /// Worker threads parallel strategies use by default (sessions may
    /// override per client). Defaults to the machine's available
    /// parallelism.
    default_threads: Arc<RwLock<usize>>,
    /// Cross-query learning state: one [`TreeCache`] shared by every
    /// session (that is the point — templates learned by one client warm
    /// every other client), plus the instance-default on/off knob.
    learning: Arc<LearningState>,
}

/// Shared cross-query learning state of a database instance.
struct LearningState {
    /// Instance default for the `learning_cache` knob; sessions may
    /// override per client. Off by default: cross-query state is opt-in,
    /// the paper's per-query discipline is the baseline.
    enabled: std::sync::atomic::AtomicBool,
    cache: RwLock<Arc<TreeCache>>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// Empty database with the built-in strategies registered and
    /// Skinner-C as the default.
    pub fn new() -> Self {
        Self::from_parts(Arc::new(Catalog::new()), UdfRegistry::new())
    }

    /// Open (or create) a database backed by a persistent data directory:
    /// every table committed to `dir` by a previous process is loaded into
    /// the catalog, and tables persisted later are written there crash-safely.
    ///
    /// ```no_run
    /// use skinnerdb::Database;
    ///
    /// let db = Database::open("/var/lib/skinnerdb").unwrap();
    /// ```
    pub fn open(dir: impl Into<std::path::PathBuf>) -> Result<Self, DbError> {
        let db = Self::new();
        db.attach_data_dir(dir)?;
        Ok(db)
    }

    /// Wrap an existing catalog + UDFs (workload generators produce these).
    pub fn from_parts(catalog: Arc<Catalog>, udfs: UdfRegistry) -> Self {
        let learning = Arc::new(LearningState {
            enabled: std::sync::atomic::AtomicBool::new(false),
            cache: RwLock::new(Arc::new(TreeCache::default())),
        });
        // Eagerly purge cross-query priors whenever a table leaves the
        // catalog (DROP TABLE, temp-table cleanup, or replacement under
        // the same name) — through the catalog's own choke point, so
        // every drop path triggers it. The purge matches by uid *and* by
        // table name: restart-loaded entries predate this process's uids
        // and are only reachable by name, and the name purge is also what
        // tombstones the on-disk prior (the cache flushes after a removing
        // purge) so a recreate-with-the-same-name can never warm-start
        // from the dropped table's data. This is eager hygiene layered
        // under the correctness mechanism: a query already in flight when
        // the drop fires may still publish its dead entry afterwards, and
        // the content-fingerprint validation at lookup is what guarantees
        // such an entry can never be served against different data (it
        // just waits for LRU eviction or the next probe to reap it). The
        // observer holds only a `Weak`: once every handle to this Database
        // is gone it deregisters itself, so constructing many Databases
        // over one shared catalog (the bench harness does) cannot pin dead
        // caches or accumulate callbacks.
        {
            let learning = Arc::downgrade(&learning);
            catalog.on_table_drop(move |uid, name| match learning.upgrade() {
                Some(l) => {
                    l.cache.read().invalidate_table(uid, name);
                    true
                }
                None => false,
            });
        }
        Database {
            catalog,
            udfs: Arc::new(udfs),
            stats: Arc::new(StatsCache::new()),
            strategies: Arc::new(builtin_registry()),
            default_strategy: Arc::new(RwLock::new(Strategy::default().build())),
            default_threads: Arc::new(RwLock::new(skinner_exec::default_threads())),
            learning,
        }
    }

    /// Turn cross-query learning on or off for the whole instance: learned
    /// strategies (`Skinner-C`, `parallel_skinner`) warm-start their UCT
    /// trees from previous executions of the same query template and
    /// publish updated statistics at query end. Results are bit-identical
    /// either way — the cache only accelerates join-order convergence.
    /// Sessions may override per client ([`Session::set_learning_cache`]).
    pub fn set_learning_cache(&self, enabled: bool) {
        self.learning
            .enabled
            .store(enabled, std::sync::atomic::Ordering::Relaxed);
    }

    /// Instance default of the cross-query learning knob.
    pub fn learning_cache_enabled(&self) -> bool {
        self.learning
            .enabled
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The shared tree cache itself (present even while disabled, so
    /// flipping the knob never loses learned templates).
    pub fn learning_cache(&self) -> Arc<TreeCache> {
        self.learning.cache.read().clone()
    }

    /// Replace the tree cache with a freshly configured one (capacity,
    /// decay, export size). Drops everything learned in memory — but when
    /// a data directory is attached the new cache re-attaches to it and
    /// reloads the persisted priors, so durable knowledge survives
    /// reconfiguration the same way it survives a restart.
    pub fn set_learning_cache_config(&self, cfg: TreeCacheConfig) {
        let cache = Arc::new(TreeCache::new(cfg));
        if let Some(store) = self.catalog.disk_store() {
            cache.attach_store(store);
        }
        *self.learning.cache.write() = cache;
    }

    /// Flush the learning cache's priors to the attached data directory
    /// (no-op without one). Servers call this on graceful shutdown so the
    /// final partial batch of publications is not lost; returns whether a
    /// write happened.
    pub fn flush_learning_cache(&self) -> bool {
        self.learning_cache().flush()
    }

    /// Counter snapshot of the cross-query tree cache (what a server
    /// exports as `skinner_learning_cache_*` and `SHOW SERVER STATS`
    /// reports as `learning_cache_*`).
    pub fn learning_cache_stats(&self) -> TreeCacheStats {
        self.learning_cache().stats()
    }

    /// Set the default worker-thread count parallel strategies use
    /// (clamped to at least 1). New and existing sessions without their own
    /// `threads` setting pick this up on their next statement.
    pub fn set_default_threads(&self, threads: usize) {
        *self.default_threads.write() = threads.max(1);
    }

    /// The default worker-thread count for parallel strategies.
    pub fn default_threads(&self) -> usize {
        *self.default_threads.read()
    }

    /// Replace the default strategy used by [`Database::query`].
    pub fn set_default_strategy(&self, strategy: Strategy) {
        *self.default_strategy.write() = strategy.build();
    }

    /// Select the default strategy by registry name (case-insensitive).
    pub fn set_default_strategy_named(&self, name: &str) -> Result<(), DbError> {
        let strategy = self
            .strategies
            .get(name)
            .ok_or_else(|| DbError::UnknownStrategy(name.to_string()))?;
        *self.default_strategy.write() = strategy;
        Ok(())
    }

    /// The current default strategy.
    pub fn default_strategy(&self) -> Arc<dyn ExecutionStrategy> {
        self.default_strategy.read().clone()
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    pub fn udfs(&self) -> &UdfRegistry {
        &self.udfs
    }

    pub fn stats(&self) -> &StatsCache {
        &self.stats
    }

    /// The strategy registry: look up, enumerate, or extend the engines
    /// this database can run.
    pub fn strategies(&self) -> &StrategyRegistry {
        &self.strategies
    }

    /// Register an external [`ExecutionStrategy`] under its own name; it
    /// becomes addressable from [`Database::query_with`],
    /// [`Database::set_default_strategy_named`] and sessions.
    pub fn register_strategy(&self, strategy: Arc<dyn ExecutionStrategy>) {
        self.strategies.register(strategy);
    }

    /// Open a session: per-client default strategy and settings over this
    /// shared database.
    pub fn session(&self) -> Session {
        Session::new(self.clone())
    }

    /// Create and register a table from rows.
    pub fn create_table(
        &self,
        name: &str,
        columns: &[(&str, DataType)],
        rows: Vec<Vec<Value>>,
    ) -> Result<(), DbError> {
        let schema = Schema::new(columns.iter().map(|(n, dt)| Field::new(*n, *dt)).collect());
        let mut b = self.catalog.builder(name, schema);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != columns.len() {
                return Err(DbError::Schema(format!(
                    "row {i} has {} values, expected {}",
                    row.len(),
                    columns.len()
                )));
            }
            b.push_row(row);
        }
        self.catalog.register(b.finish());
        Ok(())
    }

    /// Register a UDF callable from SQL.
    pub fn register_udf(&self, name: &str, f: impl Fn(&[Value]) -> Value + Send + Sync + 'static) {
        self.udfs.register(name, f);
    }

    /// Attach a persistent data directory to an already-running database:
    /// loads every committed table from `dir` (returning their names) and
    /// makes [`Database::persist_table`] / [`Database::bulk_load_csv`]
    /// available. Fails with [`DbError::Storage`] if a data directory is
    /// already attached or the manifest is corrupt.
    pub fn attach_data_dir(
        &self,
        dir: impl Into<std::path::PathBuf>,
    ) -> Result<Vec<String>, DbError> {
        let names = self.catalog.attach_disk(dir)?;
        // The data directory also carries learned priors: attach the
        // learning cache to the store so persisted templates warm-start
        // queries in this process and future publications flush back. A
        // corrupt priors sidecar is refused inside `attach_store` (counted
        // in `load_rejected`), never an open failure.
        if let Some(store) = self.catalog.disk_store() {
            self.learning.cache.read().attach_store(store);
        }
        Ok(names)
    }

    /// Whether a persistent data directory is attached.
    pub fn has_data_dir(&self) -> bool {
        self.catalog.disk_store().is_some()
    }

    /// Write registered table `name` to the attached data directory as a
    /// paged columnar segment (temp file → fsync → atomic rename + manifest
    /// commit) and swap the registered table for the disk-backed copy, which
    /// carries per-page zone maps. Subsequent `DROP TABLE name` also removes
    /// the segment file.
    pub fn persist_table(&self, name: &str) -> Result<(), DbError> {
        self.catalog.persist_table(name)?;
        Ok(())
    }

    /// Stream a CSV file straight into a persistent segment (header
    /// required, types inferred) and register the zone-mapped table as
    /// `name` — the bulk-ingest path: rows go to disk page by page instead
    /// of materializing an intermediate in-memory table first. Requires an
    /// attached data directory.
    pub fn bulk_load_csv(
        &self,
        name: &str,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), DbError> {
        let file = std::fs::File::open(path)
            .map_err(|e| DbError::Schema(format!("cannot open csv: {e}")))?;
        self.catalog
            .bulk_load_csv(name, std::io::BufReader::new(file), None)?;
        Ok(())
    }

    /// Load a CSV file (header required, types inferred) as table `name`.
    pub fn load_csv(&self, name: &str, path: impl AsRef<std::path::Path>) -> Result<(), DbError> {
        let file = std::fs::File::open(path)
            .map_err(|e| DbError::Schema(format!("cannot open csv: {e}")))?;
        let table = skinner_storage::read_csv(
            name,
            std::io::BufReader::new(file),
            None,
            self.catalog.interner().clone(),
        )
        .map_err(|e| DbError::Schema(e.to_string()))?;
        self.catalog.register(table);
        Ok(())
    }

    /// Bind a single SELECT statement (no execution).
    pub fn bind(&self, sql: &str) -> Result<JoinQuery, DbError> {
        let stmts = parse_statements(sql)?;
        match stmts.as_slice() {
            [Statement::Select(s)] => Ok(bind_select(s, &self.catalog, &self.udfs)?),
            _ => Err(DbError::Schema(
                "bind expects exactly one SELECT statement".into(),
            )),
        }
    }

    /// Parse and bind a single SELECT once, for repeated execution — the
    /// natural unit for SkinnerDB's per-query learning. The prepared
    /// statement snapshots the current default strategy; use
    /// [`Session::prepare`] for per-session strategy and settings.
    ///
    /// ```
    /// use skinnerdb::{Database, DataType, Value};
    ///
    /// let db = Database::new();
    /// db.create_table(
    ///     "t",
    ///     &[("x", DataType::Int)],
    ///     (0..10).map(|i| vec![Value::Int(i)]).collect(),
    /// )
    /// .unwrap();
    ///
    /// // Parse + bind once; execute many times with the frontend amortized.
    /// let hot = db.prepare("SELECT t.x FROM t WHERE t.x > 6").unwrap();
    /// let first = hot.execute().unwrap();
    /// let again = hot.execute().unwrap();
    /// assert_eq!(first.num_rows(), 3);
    /// assert_eq!(first.canonical_rows(), again.canonical_rows());
    /// ```
    pub fn prepare(&self, sql: &str) -> Result<Prepared, DbError> {
        self.session().prepare(sql)
    }

    /// A fresh execution context carrying this database's stats, UDFs,
    /// thread default and (when enabled) the cross-query learning cache
    /// (unlimited budget, no deadline).
    pub fn exec_context(&self) -> ExecContext {
        self.exec_context_with_learning(self.learning_cache_enabled())
    }

    /// Like [`Database::exec_context`], but with the cross-query learning
    /// knob resolved explicitly — sessions pass their per-client override.
    pub(crate) fn exec_context_with_learning(&self, learning_cache: bool) -> ExecContext {
        let mut ctx = ExecContext::new()
            .with_stats(self.stats.clone())
            .with_udfs(self.udfs.clone())
            .with_threads(self.default_threads());
        if learning_cache {
            ctx = ctx.with_learning_cache(self.learning_cache());
        }
        ctx
    }

    /// Run a SQL script with the default strategy and return the last
    /// SELECT's result. A timeout surfaces as [`DbError::Timeout`].
    pub fn query(&self, sql: &str) -> Result<QueryResult, DbError> {
        let strategy = self.default_strategy();
        let out = self.run_script_with(sql, strategy.as_ref(), &self.exec_context())?;
        if out.timed_out {
            return Err(DbError::Timeout);
        }
        Ok(out.result)
    }

    /// Like [`Database::query`], but under a named registered strategy.
    pub fn query_with(&self, sql: &str, strategy: &str) -> Result<QueryResult, DbError> {
        let strategy = self
            .strategies
            .get(strategy)
            .ok_or_else(|| DbError::UnknownStrategy(strategy.to_string()))?;
        let out = self.run_script_with(sql, strategy.as_ref(), &self.exec_context())?;
        if out.timed_out {
            return Err(DbError::Timeout);
        }
        Ok(out.result)
    }

    /// Run a SQL script with an explicit built-in strategy (convenience
    /// wrapper over [`Database::run_script_with`]).
    pub fn run_script(&self, sql: &str, strategy: &Strategy) -> Result<ExecOutcome, DbError> {
        self.run_script_with(sql, strategy.build().as_ref(), &self.exec_context())
    }

    /// Run a SQL script under any [`ExecutionStrategy`], returning the
    /// normalized outcome of the whole script (work units accumulate across
    /// statements; the result is the last SELECT's). Timeouts are reported
    /// in the outcome, not as an error.
    ///
    /// Temp tables are registered in the shared catalog under the names the
    /// script chooses and dropped on abnormal exit (timeout or bind error).
    /// Concurrent scripts must therefore use distinct temp-table names —
    /// same-named temp tables in simultaneous scripts clobber each other.
    pub fn run_script_with(
        &self,
        sql: &str,
        strategy: &dyn ExecutionStrategy,
        ctx: &ExecContext,
    ) -> Result<ExecOutcome, DbError> {
        self.run_script_detailed(sql, strategy, ctx)
            .map(ScriptOutcome::into_outcome)
    }

    /// Like [`Database::run_script_with`], but reporting every statement's
    /// own timing, work units and [`ExecMetrics`] alongside the script
    /// totals — previously only the final statement's metrics and the
    /// script-wide wall clock survived, so a multi-statement script could
    /// not be attributed per statement.
    pub fn run_script_detailed(
        &self,
        sql: &str,
        strategy: &dyn ExecutionStrategy,
        ctx: &ExecContext,
    ) -> Result<ScriptOutcome, DbError> {
        let parse_timer = SpanTimer::start(ctx.trace(), "parse_bind");
        let stmts = parse_statements(sql)?;
        parse_timer.finish(stmts.len() as u64);
        if stmts.is_empty() {
            return Err(DbError::Schema("empty script".into()));
        }
        let mut temp_tables: Vec<String> = Vec::new();
        let outcome = self.run_statements(&stmts, strategy, ctx, &mut temp_tables);
        // Any abnormal exit — a statement timing out, or a later statement
        // failing to bind — drops the script's temp tables so they cannot
        // leak into the shared catalog.
        match &outcome {
            Ok(out) if out.timed_out => self.cleanup(&temp_tables),
            Err(_) => self.cleanup(&temp_tables),
            Ok(_) => {}
        }
        outcome
    }

    fn run_statements(
        &self,
        stmts: &[Statement],
        strategy: &dyn ExecutionStrategy,
        ctx: &ExecContext,
        temp_tables: &mut Vec<String>,
    ) -> Result<ScriptOutcome, DbError> {
        let started = std::time::Instant::now();
        let mut total_work = 0u64;
        let mut records: Vec<StatementOutcome> = Vec::with_capacity(stmts.len());
        let mut last: Option<QueryResult> = None;
        let record =
            |records: &mut Vec<StatementOutcome>, kind: StatementKind, out: &ExecOutcome, rows| {
                records.push(StatementOutcome {
                    kind,
                    rows,
                    work_units: out.work_units,
                    wall: out.wall,
                    timed_out: out.timed_out,
                    metrics: out.metrics.clone(),
                });
            };
        for stmt in stmts {
            match stmt {
                Statement::Select(s) => {
                    let bind_timer = SpanTimer::start(ctx.trace(), "parse_bind");
                    let q = bind_select(s, &self.catalog, &self.udfs)?;
                    bind_timer.finish(q.num_tables() as u64);
                    let out = strategy.execute(&q, ctx);
                    total_work += out.work_units;
                    record(
                        &mut records,
                        StatementKind::Select,
                        &out,
                        out.result.num_rows(),
                    );
                    if out.timed_out {
                        return Ok(ScriptOutcome {
                            result: out.result,
                            work_units: total_work,
                            wall: started.elapsed(),
                            timed_out: true,
                            statements: records,
                        });
                    }
                    last = Some(out.result);
                }
                Statement::CreateTempTable { name, query } => {
                    let q = bind_select(query, &self.catalog, &self.udfs)?;
                    let out = strategy.execute(&q, ctx);
                    total_work += out.work_units;
                    record(
                        &mut records,
                        StatementKind::CreateTempTable(name.clone()),
                        &out,
                        out.result.num_rows(),
                    );
                    if out.timed_out {
                        return Ok(ScriptOutcome {
                            result: out.result,
                            work_units: total_work,
                            wall: started.elapsed(),
                            timed_out: true,
                            statements: records,
                        });
                    }
                    self.materialize(name, &q, &out.result)?;
                    temp_tables.push(name.clone());
                }
                Statement::DropTable { name } => {
                    self.catalog.drop_table(name);
                    temp_tables.retain(|t| !t.eq_ignore_ascii_case(name));
                    records.push(StatementOutcome {
                        kind: StatementKind::DropTable(name.clone()),
                        rows: 0,
                        work_units: 0,
                        wall: std::time::Duration::ZERO,
                        timed_out: false,
                        metrics: ExecMetrics::default(),
                    });
                }
            }
        }
        let result = last.ok_or_else(|| {
            DbError::Schema("script contains no SELECT returning a result".into())
        })?;
        Ok(ScriptOutcome {
            result,
            work_units: total_work,
            wall: started.elapsed(),
            timed_out: false,
            statements: records,
        })
    }

    fn cleanup(&self, temp_tables: &[String]) {
        for t in temp_tables {
            self.catalog.drop_table(t);
        }
    }

    /// Materialize a query result as a new table (decomposed-query support).
    fn materialize(
        &self,
        name: &str,
        query: &JoinQuery,
        result: &QueryResult,
    ) -> Result<(), DbError> {
        let types = query.output_types();
        let fields: Vec<Field> = result
            .columns
            .iter()
            .zip(&types)
            .map(|(n, dt)| {
                // Temp-table columns must be bare identifiers.
                let base = n.rsplit('.').next().unwrap_or(n);
                Field::new(base, *dt)
            })
            .collect();
        let mut b = self.catalog.builder(name, Schema::new(fields));
        for row in &result.rows {
            b.push_row(row);
        }
        self.catalog.register(b.finish());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn database_is_send_sync() {
        assert_send_sync::<Database>();
    }

    fn sample_db() -> Database {
        let db = Database::new();
        db.create_table(
            "a",
            &[("id", DataType::Int), ("g", DataType::Int)],
            (0..30)
                .map(|i| vec![Value::Int(i), Value::Int(i % 3)])
                .collect(),
        )
        .unwrap();
        db.create_table(
            "b",
            &[("aid", DataType::Int), ("w", DataType::Float)],
            (0..50)
                .map(|i| vec![Value::Int(i % 30), Value::Float(i as f64)])
                .collect(),
        )
        .unwrap();
        db
    }

    #[test]
    fn end_to_end_query() {
        let db = sample_db();
        let r = db
            .query("SELECT a.g, COUNT(*) c FROM a, b WHERE a.id = b.aid GROUP BY a.g ORDER BY a.g")
            .unwrap();
        assert_eq!(r.num_rows(), 3);
        let total: i64 = r.rows.iter().map(|row| row[1].as_i64().unwrap()).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn all_strategies_agree() {
        let db = sample_db();
        let sql = "SELECT a.id FROM a, b WHERE a.id = b.aid AND a.g = 1";
        let reference = db.run_script(sql, &Strategy::Reference).unwrap();
        for strategy in Strategy::all_builtin() {
            let out = db.run_script(sql, &strategy).unwrap();
            assert!(!out.timed_out, "{}", strategy.name());
            assert_eq!(
                out.result.canonical_rows(),
                reference.result.canonical_rows(),
                "{}",
                strategy.name()
            );
        }
    }

    #[test]
    fn query_with_named_strategy() {
        let db = sample_db();
        let sql = "SELECT a.id FROM a WHERE a.g = 0";
        let a = db.query_with(sql, "reference").unwrap();
        let b = db.query_with(sql, "Skinner-C").unwrap();
        assert_eq!(a.canonical_rows(), b.canonical_rows());
        assert!(matches!(
            db.query_with(sql, "nope"),
            Err(DbError::UnknownStrategy(_))
        ));
    }

    #[test]
    fn default_strategy_by_name() {
        let db = sample_db();
        db.set_default_strategy_named("traditional").unwrap();
        assert_eq!(db.default_strategy().name(), "Traditional");
        assert!(db.set_default_strategy_named("bogus").is_err());
        db.set_default_strategy(Strategy::default());
        assert_eq!(db.default_strategy().name(), "Skinner-C");
    }

    #[test]
    fn thread_knob_defaults_and_overrides() {
        let db = sample_db();
        assert_eq!(db.default_threads(), skinner_exec::default_threads());
        db.set_default_threads(4);
        assert_eq!(db.default_threads(), 4);
        assert_eq!(db.exec_context().threads(), 4);
        db.set_default_threads(0); // clamped
        assert_eq!(db.default_threads(), 1);
        // The parallel strategy runs under the knob and agrees with the rest.
        db.set_default_threads(2);
        let sql = "SELECT a.id FROM a, b WHERE a.id = b.aid";
        let par = db.query_with(sql, "parallel_skinner").unwrap();
        let seq = db.query_with(sql, "Skinner-C").unwrap();
        assert_eq!(par.canonical_rows(), seq.canonical_rows());
    }

    #[test]
    fn concurrent_queries_on_shared_database() {
        let db = Arc::new(sample_db());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let db = db.clone();
                std::thread::spawn(move || {
                    let sql = format!(
                        "SELECT a.id FROM a, b WHERE a.id = b.aid AND a.g = {}",
                        i % 3
                    );
                    db.query(&sql).unwrap().num_rows()
                })
            })
            .collect();
        let counts: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 50 + counts[0]);
    }

    #[test]
    fn temp_tables_dropped_when_a_later_statement_fails_to_bind() {
        let db = sample_db();
        let script = "CREATE TEMP TABLE leak AS SELECT a.g FROM a; \
                      SELECT bogus.x FROM leak";
        assert!(matches!(db.query(script), Err(DbError::Bind(_))));
        assert!(
            db.catalog().get("leak").is_none(),
            "temp table must not leak into the shared catalog on bind failure"
        );
    }

    #[test]
    fn successful_scripts_keep_the_final_statement_metrics() {
        let db = sample_db();
        let out = db
            .run_script(
                "SELECT a.id FROM a, b WHERE a.id = b.aid",
                &Strategy::default(),
            )
            .unwrap();
        assert!(!out.timed_out);
        assert_eq!(
            out.metrics.order.len(),
            2,
            "Skinner-C's learned order must survive into the script outcome"
        );
        assert!(out.metrics.slices > 0);
    }

    #[test]
    fn scripts_report_per_statement_outcomes() {
        let db = sample_db();
        let script = "CREATE TEMP TABLE sums AS \
                      SELECT a.g grp, COUNT(*) c FROM a, b WHERE a.id = b.aid GROUP BY a.g; \
                      SELECT s.grp FROM sums s ORDER BY s.grp; \
                      DROP TABLE sums;";
        let out = db
            .run_script_detailed(script, db.default_strategy().as_ref(), &db.exec_context())
            .unwrap();
        assert_eq!(out.statements.len(), 3);
        assert!(matches!(
            out.statements[0].kind,
            StatementKind::CreateTempTable(_)
        ));
        assert_eq!(out.statements[1].kind, StatementKind::Select);
        assert!(matches!(
            out.statements[2].kind,
            StatementKind::DropTable(_)
        ));
        // Each executing statement carries its own timing/work/metrics.
        assert!(out.statements[0].work_units > 0);
        assert!(out.statements[1].work_units > 0);
        assert_eq!(out.statements[0].rows, 3);
        assert_eq!(out.statements[1].rows, 3);
        assert!(out.statements[0].metrics.order.len() == 2);
        // Script totals are the sum over statements, and the per-statement
        // walls are individually recorded (not the whole-script elapsed).
        assert_eq!(
            out.work_units,
            out.statements.iter().map(|s| s.work_units).sum::<u64>()
        );
        assert!(out.statements.iter().all(|s| s.wall <= out.wall));
        // The collapsed outcome keeps the final SELECT's metrics.
        let collapsed = out.into_outcome();
        assert_eq!(collapsed.metrics.order.len(), 1);
    }

    #[test]
    fn timed_out_scripts_mark_the_guilty_statement() {
        let db = sample_db();
        let ctx = db
            .exec_context()
            .with_budget(Arc::new(skinner_exec::WorkBudget::with_limit(5)));
        let script = "SELECT a.g FROM a WHERE a.g = 0; \
                      SELECT a.id FROM a, b WHERE a.id = b.aid";
        let out = db
            .run_script_detailed(script, db.default_strategy().as_ref(), &ctx)
            .unwrap();
        assert!(out.timed_out);
        let last = out.statements.last().unwrap();
        assert!(last.timed_out, "the statement that tripped is marked");
    }

    #[test]
    fn temp_table_script_roundtrip() {
        let db = sample_db();
        let script = "CREATE TEMP TABLE sums AS \
                      SELECT a.g grp, COUNT(*) c FROM a, b WHERE a.id = b.aid GROUP BY a.g; \
                      SELECT s.grp, s.c FROM sums s WHERE s.c > 10 ORDER BY s.grp; \
                      DROP TABLE sums;";
        let r = db.query(script).unwrap();
        assert!(r.num_rows() >= 1);
        // Temp table dropped afterwards.
        assert!(db.catalog().get("sums").is_none());
    }

    #[test]
    fn udf_registration_and_use() {
        let db = sample_db();
        db.register_udf("is_even", |args| {
            Value::from(args[0].as_i64().unwrap_or(1) % 2 == 0)
        });
        let r = db.query("SELECT a.id FROM a WHERE is_even(a.id)").unwrap();
        assert_eq!(r.num_rows(), 15);
    }

    #[test]
    fn errors_are_reported() {
        let db = sample_db();
        assert!(matches!(db.query("SELECT FROM"), Err(DbError::Parse(_))));
        assert!(matches!(
            db.query("SELECT nope.x FROM a"),
            Err(DbError::Bind(_))
        ));
        assert!(matches!(db.query("DROP TABLE a"), Err(DbError::Schema(_))));
    }

    #[test]
    fn query_timeout_is_an_error() {
        let db = sample_db();
        db.set_default_strategy(Strategy::SkinnerC(skinner_core::SkinnerCConfig {
            work_limit: 5,
            ..Default::default()
        }));
        assert!(matches!(
            db.query("SELECT a.id FROM a, b WHERE a.id = b.aid"),
            Err(DbError::Timeout)
        ));
    }

    #[test]
    fn csv_loading_end_to_end() {
        let dir = std::env::temp_dir().join("skinnerdb_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("people.csv");
        std::fs::write(&path, "id,name,score\n1,ann,2.5\n2,bob,3.0\n").unwrap();
        let db = Database::new();
        db.load_csv("people", &path).unwrap();
        let r = db
            .query("SELECT p.name FROM people p WHERE p.score > 2.7")
            .unwrap();
        assert_eq!(r.num_rows(), 1);
        assert_eq!(r.rows[0][0].as_str(), Some("bob"));
        assert!(db.load_csv("nope", dir.join("missing.csv")).is_err());
    }

    #[test]
    fn persistent_tables_survive_reopen_and_drop_cleans_disk() {
        let dir = std::env::temp_dir().join(format!("skinnerdb_open_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let expected;
        {
            let db = Database::open(&dir).unwrap();
            assert!(db.has_data_dir());
            db.create_table(
                "t",
                &[("x", DataType::Int), ("s", DataType::Str)],
                (0..40)
                    .map(|i| vec![Value::Int(i), Value::from(format!("s{}", i % 4).as_str())])
                    .collect(),
            )
            .unwrap();
            db.persist_table("t").unwrap();
            assert!(db.catalog().is_persistent("t"));
            expected = db
                .query("SELECT t.x FROM t WHERE t.s = 's1' ORDER BY t.x")
                .unwrap()
                .canonical_rows();
        }
        {
            let db = Database::open(&dir).unwrap();
            let got = db
                .query("SELECT t.x FROM t WHERE t.s = 's1' ORDER BY t.x")
                .unwrap()
                .canonical_rows();
            assert_eq!(got, expected, "reloaded table must answer identically");
            db.catalog().drop_table("t");
        }
        {
            let db = Database::open(&dir).unwrap();
            assert!(
                db.catalog().get("t").is_none(),
                "dropped persistent table must not reappear"
            );
            // No orphan segment files either.
            let segs = std::fs::read_dir(&dir)
                .unwrap()
                .filter(|e| {
                    e.as_ref()
                        .unwrap()
                        .path()
                        .extension()
                        .and_then(|x| x.to_str())
                        == Some("seg")
                })
                .count();
            assert_eq!(segs, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bulk_load_requires_data_dir_and_registers_zoned_table() {
        let dir = std::env::temp_dir().join(format!("skinnerdb_bulk_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("m.csv");
        let mut body = String::from("id,v\n");
        for i in 0..2000 {
            body.push_str(&format!("{i},{}\n", i % 10));
        }
        std::fs::write(&csv, body).unwrap();

        let db = Database::new();
        assert!(matches!(
            db.bulk_load_csv("m", &csv),
            Err(DbError::Storage(
                skinner_storage::disk::DiskError::NoDataDir
            ))
        ));
        db.attach_data_dir(dir.join("data")).unwrap();
        db.bulk_load_csv("m", &csv).unwrap();
        let t = db.catalog().get("m").unwrap();
        assert!(
            t.zones().is_some(),
            "bulk-loaded table must carry zone maps"
        );
        let r = db.query("SELECT m.id FROM m WHERE m.id < 5").unwrap();
        assert_eq!(r.num_rows(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_arity_checked() {
        let db = Database::new();
        let err = db.create_table(
            "t",
            &[("x", DataType::Int)],
            vec![vec![Value::Int(1), Value::Int(2)]],
        );
        assert!(matches!(err, Err(DbError::Schema(_))));
    }
}
