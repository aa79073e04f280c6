//! Sessions and prepared statements.
//!
//! A [`Session`] is a lightweight per-client view over a shared
//! [`Database`]: it carries its own strategy and settings (work limit,
//! deadline) while tables, UDFs, statistics and the strategy registry stay
//! shared. A [`Prepared`] statement is a SELECT parsed and
//! bound once and executed many times — the natural unit for SkinnerDB,
//! which learns join orders *per query* rather than from statistics.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

use skinner_core::SkinnerCStrategy;
use skinner_exec::{CancelToken, ExecContext, ExecOutcome, ExecutionStrategy};
use skinner_query::JoinQuery;
use skinner_stats::StatsCache;

use crate::database::{Database, DbError};
use crate::QueryResult;

/// Per-session execution settings.
#[derive(Debug, Clone, Copy)]
pub struct SessionSettings {
    /// Work-unit budget of each call through the session: a whole script
    /// shares one budget, and it is every strategy's only work limit.
    pub work_limit: u64,
    /// Wall-clock deadline per statement/script (cooperative).
    pub deadline: Option<Duration>,
    /// Worker threads for parallel strategies; `None` inherits the
    /// database default (which itself defaults to the machine's available
    /// parallelism).
    pub threads: Option<usize>,
    /// Cross-query learning: warm-start learned strategies from the
    /// database's shared template cache. `None` inherits the database
    /// default (off unless [`Database::set_learning_cache`] enabled it).
    pub learning_cache: Option<bool>,
}

impl Default for SessionSettings {
    fn default() -> Self {
        SessionSettings {
            work_limit: u64::MAX,
            deadline: None,
            threads: None,
            learning_cache: None,
        }
    }
}

/// A per-client handle over a shared [`Database`].
///
/// Sessions isolate *policy* (which engine, how much work, how long,
/// how many threads) while *data* (tables, UDFs, statistics, the
/// strategy registry) stays shared:
///
/// ```
/// use skinnerdb::{Database, DataType, Value};
///
/// let db = Database::new();
/// db.create_table(
///     "t",
///     &[("x", DataType::Int)],
///     (0..100).map(|i| vec![Value::Int(i)]).collect(),
/// )
/// .unwrap();
///
/// let session = db.session();
/// session.use_strategy("parallel_skinner").unwrap(); // by registry name
/// session.set_threads(Some(4));                      // per-client override
/// session.set_work_limit(1_000_000);                 // units per script
/// session.set_deadline(Some(std::time::Duration::from_secs(5)));
///
/// let rows = session.query("SELECT t.x FROM t WHERE t.x < 3").unwrap();
/// assert_eq!(rows.num_rows(), 3);
///
/// // Other sessions are unaffected: each starts on Skinner-C.
/// assert_eq!(db.session().strategy().name(), "Skinner-C");
/// ```
pub struct Session {
    db: Database,
    strategy: RwLock<Arc<dyn ExecutionStrategy>>,
    settings: RwLock<SessionSettings>,
}

impl Session {
    pub(crate) fn new(db: Database) -> Self {
        Session {
            db,
            strategy: RwLock::new(Arc::new(SkinnerCStrategy::default())),
            settings: RwLock::new(SessionSettings::default()),
        }
    }

    /// The shared database this session runs against.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// This session's current strategy.
    pub fn strategy(&self) -> Arc<dyn ExecutionStrategy> {
        self.strategy.read().clone()
    }

    /// Use a registered strategy, by name (case-insensitive), for
    /// subsequent statements; built-in and external engines alike.
    pub fn use_strategy(&self, name: &str) -> Result<(), DbError> {
        let strategy = self
            .db
            .strategies()
            .get(name)
            .ok_or_else(|| DbError::UnknownStrategy(name.to_string()))?;
        *self.strategy.write() = strategy;
        Ok(())
    }

    /// Current settings snapshot.
    pub fn settings(&self) -> SessionSettings {
        *self.settings.read()
    }

    /// Cap the work units each call may consume: one statement, or a
    /// whole script (its statements share the budget).
    pub fn set_work_limit(&self, limit: u64) {
        self.settings.write().work_limit = limit;
    }

    /// Set (or clear) the per-statement cooperative deadline.
    pub fn set_deadline(&self, deadline: Option<Duration>) {
        self.settings.write().deadline = deadline;
    }

    /// Set how many worker threads parallel strategies may use for this
    /// session's statements, or `None` to inherit the database default.
    pub fn set_threads(&self, threads: Option<usize>) {
        self.settings.write().threads = threads.map(|t| t.max(1));
    }

    /// Override the cross-query learning knob for this session
    /// (`Some(true)`/`Some(false)`), or inherit the database default
    /// (`None`). The cache itself is always the database-wide one, so a
    /// session that opts in shares templates with every other opted-in
    /// client.
    pub fn set_learning_cache(&self, enabled: Option<bool>) {
        self.settings.write().learning_cache = enabled;
    }

    /// Set a session option from string key/value pairs — the plumbing
    /// behind the server's `SET <key> = <value>` command, usable by any
    /// text-configured client. Keys (case-insensitive):
    ///
    /// | key              | value                                            |
    /// |------------------|--------------------------------------------------|
    /// | `strategy`       | a registry name (`skinner-c`, `traditional`, …)  |
    /// | `threads`        | worker count; `0` or `default` inherits the db   |
    /// | `work_limit`     | max work units per script; `none` = unlimited    |
    /// | `deadline_ms`    | per-statement deadline in ms; `0`/`none` = none  |
    /// | `learning_cache` | `on`/`off` (cross-query warm starts); `default`  |
    pub fn set_option(&self, key: &str, value: &str) -> Result<(), DbError> {
        let value = value.trim();
        let bad = |what: &str| DbError::BadOption(format!("{what}: {value:?}"));
        match key.trim().to_ascii_lowercase().as_str() {
            "strategy" => self.use_strategy(value),
            "threads" => {
                if value.eq_ignore_ascii_case("default") {
                    self.set_threads(None);
                    return Ok(());
                }
                let n: usize = value.parse().map_err(|_| bad("threads"))?;
                self.set_threads(if n == 0 { None } else { Some(n) });
                Ok(())
            }
            "work_limit" => {
                if value.eq_ignore_ascii_case("none") {
                    self.set_work_limit(u64::MAX);
                    return Ok(());
                }
                self.set_work_limit(value.parse().map_err(|_| bad("work_limit"))?);
                Ok(())
            }
            "deadline_ms" => {
                if value.eq_ignore_ascii_case("none") {
                    self.set_deadline(None);
                    return Ok(());
                }
                let ms: u64 = value.parse().map_err(|_| bad("deadline_ms"))?;
                self.set_deadline((ms > 0).then(|| Duration::from_millis(ms)));
                Ok(())
            }
            "learning_cache" => {
                match value.to_ascii_lowercase().as_str() {
                    "on" | "true" | "1" => self.set_learning_cache(Some(true)),
                    "off" | "false" | "0" => self.set_learning_cache(Some(false)),
                    "default" => self.set_learning_cache(None),
                    _ => return Err(bad("learning_cache")),
                }
                Ok(())
            }
            other => Err(DbError::BadOption(format!("unknown option: {other:?}"))),
        }
    }

    /// A fresh [`ExecContext`] reflecting this session's settings.
    pub fn exec_context(&self) -> ExecContext {
        let settings = self.settings();
        exec_context_for(&self.db, settings)
    }

    /// Run a SQL script under the session strategy/settings, returning the
    /// full outcome (timeouts reported in the outcome).
    pub fn run_script(&self, sql: &str) -> Result<ExecOutcome, DbError> {
        let strategy = self.strategy();
        self.db
            .run_script(sql, strategy.as_ref(), &self.exec_context())
    }

    /// Run a SQL script and return the last SELECT's result; a timeout
    /// surfaces as [`DbError::Timeout`].
    pub fn query(&self, sql: &str) -> Result<QueryResult, DbError> {
        let out = self.run_script(sql)?;
        if out.timed_out {
            return Err(DbError::Timeout);
        }
        Ok(out.result)
    }

    /// Parse and bind a single SELECT once for repeated execution. The
    /// prepared statement snapshots the session's strategy and settings at
    /// prepare time.
    ///
    /// ```
    /// use skinnerdb::{Database, DataType, Value};
    ///
    /// let db = Database::new();
    /// db.create_table(
    ///     "t",
    ///     &[("x", DataType::Int)],
    ///     (0..20).map(|i| vec![Value::Int(i)]).collect(),
    /// )
    /// .unwrap();
    ///
    /// let session = db.session();
    /// session.use_strategy("traditional").unwrap();
    /// let hot = session.prepare("SELECT t.x FROM t WHERE t.x >= 15").unwrap();
    ///
    /// // The snapshot keeps the strategy even if the session moves on.
    /// session.use_strategy("reference").unwrap();
    /// assert_eq!(hot.strategy().name(), "Traditional");
    /// assert_eq!(hot.execute().unwrap().num_rows(), 5);
    /// ```
    pub fn prepare(&self, sql: &str) -> Result<Prepared, DbError> {
        let query = self.db.bind(sql)?;
        Ok(Prepared {
            sql: sql.to_string(),
            query,
            db: self.db.clone(),
            strategy: self.strategy(),
            settings: self.settings(),
        })
    }
}

fn exec_context_for(db: &Database, settings: SessionSettings) -> ExecContext {
    let cancel = match settings.deadline {
        Some(d) => CancelToken::with_deadline(d),
        None => CancelToken::new(),
    };
    let learning = settings
        .learning_cache
        .unwrap_or_else(|| db.learning_cache_enabled());
    let mut ctx = db
        .exec_context_with_learning(learning)
        .with_work_limit(settings.work_limit)
        .with_cancel(cancel);
    if let Some(threads) = settings.threads {
        ctx = ctx.with_threads(threads);
    }
    ctx
}

/// A SELECT statement parsed and bound once, executable many times.
///
/// Binding resolves tables, columns and UDFs up front, so repeated
/// executions skip the entire frontend. Each execution still learns its
/// own join order; with `learning_cache` on it warm-starts from the
/// database's template cache, whose entries are checked against the
/// tables' current contents before use.
pub struct Prepared {
    sql: String,
    query: JoinQuery,
    db: Database,
    strategy: Arc<dyn ExecutionStrategy>,
    settings: SessionSettings,
}

impl Prepared {
    /// The original SQL text.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The bound query (advanced callers: run it through any engine).
    pub fn query(&self) -> &JoinQuery {
        &self.query
    }

    /// The strategy this statement snapshotted at prepare time.
    pub fn strategy(&self) -> &Arc<dyn ExecutionStrategy> {
        &self.strategy
    }

    /// Execute and return the rows; timeouts surface as
    /// [`DbError::Timeout`].
    pub fn execute(&self) -> Result<QueryResult, DbError> {
        let out = self.execute_in(&self.fresh_context());
        if out.timed_out {
            return Err(DbError::Timeout);
        }
        Ok(out.result)
    }

    /// Execute under an explicit [`ExecContext`] and return the full
    /// outcome (work units, wall time, metrics; timeouts reported in the
    /// outcome). Pass [`Prepared::fresh_context`] for the snapshotted
    /// settings, extended with any cancellation or budget wiring of the
    /// caller's own (the server threads a per-connection cancel token
    /// through here).
    pub fn execute_in(&self, ctx: &ExecContext) -> ExecOutcome {
        self.strategy.execute(&self.query, ctx)
    }

    /// A fresh context from the statement's snapshotted settings (work
    /// limit, deadline, threads); combine with
    /// [`ExecContext::with_cancel`] to add external cancellation.
    pub fn fresh_context(&self) -> ExecContext {
        exec_context_for(&self.db, self.settings)
    }

    /// Statistics handle (for strategies that want calibration context).
    pub fn stats(&self) -> &StatsCache {
        self.db.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_core::TreeCache;
    use skinner_storage::{DataType, Value};

    fn sample_db() -> Database {
        let db = Database::new();
        db.create_table(
            "t",
            &[("id", DataType::Int), ("g", DataType::Int)],
            (0..40)
                .map(|i| vec![Value::Int(i), Value::Int(i % 4)])
                .collect(),
        )
        .unwrap();
        db.create_table(
            "u",
            &[("tid", DataType::Int)],
            (0..60).map(|i| vec![Value::Int(i % 40)]).collect(),
        )
        .unwrap();
        db
    }

    #[test]
    fn session_strategy_is_isolated_from_database_default() {
        let db = sample_db();
        let session = db.session();
        session.use_strategy("traditional").unwrap();
        assert_eq!(session.strategy().name(), "Traditional");
        // A second session starts on Skinner-C again.
        assert_eq!(db.session().strategy().name(), "Skinner-C");
    }

    #[test]
    fn prepared_statement_roundtrip() {
        let db = sample_db();
        let session = db.session();
        let prepared = session
            .prepare(
                "SELECT t.g, COUNT(*) c FROM t, u WHERE t.id = u.tid GROUP BY t.g ORDER BY t.g",
            )
            .unwrap();
        let first = prepared.execute().unwrap();
        let second = prepared.execute().unwrap();
        assert_eq!(first.ordered_rows(), second.ordered_rows());
        assert_eq!(first.num_rows(), 4);
        assert_eq!(prepared.query().num_tables(), 2);
        assert!(prepared.sql().starts_with("SELECT"));
    }

    #[test]
    fn session_work_limit_times_out() {
        let db = sample_db();
        let session = db.session();
        session.set_work_limit(5);
        let out = session
            .run_script("SELECT t.id FROM t, u WHERE t.id = u.tid")
            .unwrap();
        assert!(out.timed_out);
        assert!(matches!(
            session.query("SELECT t.id FROM t, u WHERE t.id = u.tid"),
            Err(DbError::Timeout)
        ));
    }

    #[test]
    fn session_deadline_cancels_cooperatively() {
        let db = sample_db();
        let session = db.session();
        session.set_deadline(Some(Duration::ZERO));
        let out = session
            .run_script("SELECT t.id FROM t, u WHERE t.id = u.tid")
            .unwrap();
        assert!(out.timed_out, "expired deadline must yield a timeout");
        session.set_deadline(None);
        assert!(session.query("SELECT t.id FROM t WHERE t.g = 0").is_ok());
    }

    #[test]
    fn session_threads_override_database_default() {
        let db = sample_db();
        db.set_default_threads(2);
        let session = db.session();
        assert_eq!(session.settings().threads, None);
        assert_eq!(session.exec_context().threads(), 2, "inherits db default");
        session.set_threads(Some(4));
        assert_eq!(session.exec_context().threads(), 4);
        session.use_strategy("parallel_skinner").unwrap();
        let rows = session
            .query("SELECT t.g, COUNT(*) c FROM t, u WHERE t.id = u.tid GROUP BY t.g ORDER BY t.g")
            .unwrap();
        assert_eq!(rows.num_rows(), 4);
        session.set_threads(None);
        assert_eq!(session.exec_context().threads(), 2, "back to db default");
    }

    #[test]
    fn set_option_plumbs_every_knob() {
        let db = sample_db();
        let session = db.session();
        session.set_option("strategy", "traditional").unwrap();
        assert_eq!(session.strategy().name(), "Traditional");
        session.set_option("THREADS", "4").unwrap();
        assert_eq!(session.settings().threads, Some(4));
        session.set_option("threads", "default").unwrap();
        assert_eq!(session.settings().threads, None);
        session.set_option("work_limit", "1234").unwrap();
        assert_eq!(session.settings().work_limit, 1234);
        session.set_option("work_limit", "none").unwrap();
        assert_eq!(session.settings().work_limit, u64::MAX);
        session.set_option("deadline_ms", "250").unwrap();
        assert_eq!(
            session.settings().deadline,
            Some(Duration::from_millis(250))
        );
        session.set_option("deadline_ms", "0").unwrap();
        assert_eq!(session.settings().deadline, None);
        session.set_option("learning_cache", "on").unwrap();
        assert_eq!(session.settings().learning_cache, Some(true));
        session.set_option("learning_cache", "OFF").unwrap();
        assert_eq!(session.settings().learning_cache, Some(false));
        session.set_option("learning_cache", "default").unwrap();
        assert_eq!(session.settings().learning_cache, None);
        assert!(matches!(
            session.set_option("learning_cache", "sometimes"),
            Err(DbError::BadOption(_))
        ));
        assert!(matches!(
            session.set_option("nope", "1"),
            Err(DbError::BadOption(_))
        ));
        assert!(matches!(
            session.set_option("threads", "lots"),
            Err(DbError::BadOption(_))
        ));
        assert!(matches!(
            session.set_option("strategy", "missing"),
            Err(DbError::UnknownStrategy(_))
        ));
    }

    #[test]
    fn learning_cache_knob_inherits_and_overrides() {
        let db = sample_db();
        let session = db.session();
        let sql = "SELECT t.g, COUNT(*) c FROM t, u WHERE t.id = u.tid GROUP BY t.g ORDER BY t.g";
        // Default: off everywhere — queries never touch the cache.
        let cold = session.query(sql).unwrap();
        assert_eq!(db.learning_cache_stats().published, 0);
        // Session opt-in publishes and then warm-starts, same rows.
        session.set_learning_cache(Some(true));
        let first = session.query(sql).unwrap();
        assert_eq!(db.learning_cache_stats().published, 1);
        let second = session.query(sql).unwrap();
        let stats = db.learning_cache_stats();
        assert_eq!(stats.hits, 1, "second run must hit the template");
        assert_eq!(first.canonical_rows(), cold.canonical_rows());
        assert_eq!(second.canonical_rows(), cold.canonical_rows());
        // Database default flips new sessions on; Some(false) opts out.
        db.set_learning_cache(true);
        let other = db.session();
        assert!(other.exec_context().learning_cache::<TreeCache>().is_some());
        other.set_learning_cache(Some(false));
        assert!(other.exec_context().learning_cache::<TreeCache>().is_none());
    }

    #[test]
    fn prepared_execute_in_honours_external_cancel() {
        let db = sample_db();
        let session = db.session();
        let prepared = session
            .prepare("SELECT t.id FROM t, u WHERE t.id = u.tid")
            .unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = prepared.execute_in(&prepared.fresh_context().with_cancel(cancel));
        assert!(out.timed_out, "pre-cancelled context must abort the run");
        let ok = prepared.execute_in(&prepared.fresh_context());
        assert!(!ok.timed_out);
        assert_eq!(ok.result.num_rows(), 60);
    }

    #[test]
    fn use_strategy_by_name() {
        let db = sample_db();
        let session = db.session();
        session.use_strategy("reference").unwrap();
        assert_eq!(session.strategy().name(), "Reference");
        assert!(matches!(
            session.use_strategy("missing"),
            Err(DbError::UnknownStrategy(_))
        ));
    }
}
