//! # SkinnerDB-rs
//!
//! A from-scratch Rust reproduction of *"SkinnerDB: Regret-Bounded Query
//! Evaluation via Reinforcement Learning"* (Trummer et al., VLDB 2019).
//!
//! SkinnerDB maintains **no data statistics and no cost model**. It learns
//! (near-)optimal join orders *during* the execution of the current query:
//! execution is cut into thousands of tiny time slices, a UCT bandit picks
//! the join order for each slice, per-slice progress becomes the reward, and
//! partial results from different orders merge into one complete result —
//! with formal bounds on the regret versus an optimal join order.
//!
//! `ARCHITECTURE.md` at the repository root maps the whole workspace —
//! crate graph, the episode/learning loop end-to-end, how the execution
//! API composes, and where the paper's sections live in the code.
//!
//! ## Quick start
//!
//! [`Database`] is `Send + Sync` with `&self` mutators; open [`Session`]s
//! for per-client strategy and settings, and [`Database::prepare`] /
//! [`Session::prepare`] a SELECT once to execute it many times:
//!
//! ```
//! use skinnerdb::{Database, DataType, Value};
//!
//! let db = Database::new();
//! db.create_table(
//!     "users",
//!     &[("id", DataType::Int), ("name", DataType::Str)],
//!     vec![
//!         vec![Value::Int(1), Value::from("ada")],
//!         vec![Value::Int(2), Value::from("grace")],
//!     ],
//! )
//! .unwrap();
//! db.create_table(
//!     "events",
//!     &[("user_id", DataType::Int), ("kind", DataType::Str)],
//!     vec![
//!         vec![Value::Int(1), Value::from("login")],
//!         vec![Value::Int(1), Value::from("click")],
//!         vec![Value::Int(2), Value::from("login")],
//!     ],
//! )
//! .unwrap();
//!
//! // One-shot queries run under Skinner-C.
//! let result = db
//!     .query("SELECT u.name, COUNT(*) c FROM users u, events e \
//!             WHERE u.id = e.user_id GROUP BY u.name ORDER BY u.name")
//!     .unwrap();
//! assert_eq!(result.num_rows(), 2);
//! for row in result.iter_rows() {
//!     assert!(row[1].as_i64().unwrap() >= 1);
//! }
//!
//! // Sessions carry their own strategy and limits over the shared tables.
//! let session = db.session();
//! session.use_strategy("traditional").unwrap();
//! session.set_work_limit(1_000_000);
//!
//! // Prepare once (parse + bind), execute many times.
//! let hot = session
//!     .prepare("SELECT e.kind FROM users u, events e WHERE u.id = e.user_id")
//!     .unwrap();
//! let a = hot.execute().unwrap();
//! let b = hot.execute().unwrap();
//! assert_eq!(a.canonical_rows(), b.canonical_rows());
//! ```
//!
//! ## Parallel learned execution
//!
//! `parallel_skinner` is the paper's multi-threaded SkinnerC
//! configuration: each episode's batch of left-most-table tuples is split
//! across N threads (the calling one included) executing the same join
//! order, while the coordinator learns through **one UCT tree**, applying
//! the chunks' rewards in chunk order. The thread
//! count comes from a knob — [`Database::set_default_threads`] for the
//! instance default (initially the machine's available parallelism),
//! [`Session::set_threads`] per client — and determinism is guaranteed
//! regardless of it: any thread count produces exactly the same result
//! set (offsets advance only when a batch completes, so each result tuple
//! comes from exactly one completed batch, and an abandoned episode's
//! tuples come back when its batch is retried), so `threads` is purely a
//! performance knob.
//!
//! ```
//! use skinnerdb::{Database, DataType, Value};
//!
//! let db = Database::new();
//! db.create_table(
//!     "t",
//!     &[("x", DataType::Int)],
//!     (0..100).map(|i| vec![Value::Int(i)]).collect(),
//! )
//! .unwrap();
//! db.create_table(
//!     "u",
//!     &[("x", DataType::Int)],
//!     (0..100).map(|i| vec![Value::Int(i % 10)]).collect(),
//! )
//! .unwrap();
//!
//! let session = db.session();
//! session.use_strategy("parallel_skinner").unwrap();
//! session.set_threads(Some(4));
//! let parallel = session
//!     .query("SELECT t.x FROM t, u WHERE t.x = u.x")
//!     .unwrap();
//!
//! // Same rows as every sequential strategy, at any thread count.
//! let sequential = db.query("SELECT t.x FROM t, u WHERE t.x = u.x").unwrap();
//! assert_eq!(parallel.canonical_rows(), sequential.canonical_rows());
//! ```
//!
//! ## Plugging in your own engine
//!
//! The execution API is open: implement
//! [`ExecutionStrategy`] — from any crate
//! — register it, and address it by name, like every built-in (the
//! [`StrategyRegistry`] is the one place engines are named):
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Instant;
//!
//! use skinnerdb::skinner_exec::{ExecContext, ExecOutcome, ExecutionStrategy};
//! use skinnerdb::skinner_query::JoinQuery;
//! use skinnerdb::{Database, DataType, Value};
//!
//! /// A toy engine: delegates to the reference executor, but it could be
//! /// any learned optimizer — the registry doesn't care where it's from.
//! struct MyEngine;
//!
//! impl ExecutionStrategy for MyEngine {
//!     fn name(&self) -> &str {
//!         "my-engine"
//!     }
//!
//!     fn execute(&self, query: &JoinQuery, _ctx: &ExecContext) -> ExecOutcome {
//!         let started = Instant::now();
//!         let result = skinnerdb::skinner_exec::reference::run_reference(query);
//!         ExecOutcome::completed(result, 0, started.elapsed())
//!     }
//! }
//!
//! let db = Database::new();
//! db.create_table(
//!     "t",
//!     &[("x", DataType::Int)],
//!     (0..5).map(|i| vec![Value::Int(i)]).collect(),
//! )
//! .unwrap();
//!
//! db.register_strategy(Arc::new(MyEngine));
//! let session = db.session();
//! session.use_strategy("my-engine").unwrap();
//! let rows = session.query("SELECT t.x FROM t WHERE t.x > 2").unwrap();
//! assert_eq!(rows.num_rows(), 2);
//! ```
//!
//! ## Crate map
//!
//! * [`skinner_core`] — Skinner-C/G/H and `parallel_skinner`, the paper's
//!   contribution,
//! * [`skinner_exec`] — the generic engine, shared pre/post-processing, and
//!   the execution API ([`ExecutionStrategy`], [`ExecContext`],
//!   [`ExecOutcome`]),
//! * [`skinner_uct`] — the UCT search tree,
//! * [`skinner_optimizer`] / [`skinner_stats`] — the traditional baseline,
//! * [`skinner_adaptive`] — Eddies and the sampling re-optimizer,
//! * [`skinner_workloads`] — TPC-H / JOB-like / torture generators.
//!
//! Beyond the library, `skinner_server` (with its `skinner-server`
//! binary) serves this engine over a native TCP wire protocol — one
//! [`Session`] per connection, admission control, out-of-band query
//! cancellation — and `skinner_client` is the matching client; see the
//! README's "Running the server".

pub mod database;
pub mod render;
pub mod session;
pub mod strategy;

pub use database::{Database, DbError, ScriptOutcome, StatementKind, StatementOutcome};
pub use render::{render_table, render_table_with, TableOptions};
pub use session::{Prepared, Session, SessionSettings};
pub use strategy::builtin_registry;

pub use skinner_core::{TreeCache, TreeCacheConfig, TreeCacheStats};
pub use skinner_exec::{
    CancelToken, ExecContext, ExecMetrics, ExecOutcome, ExecutionStrategy, QueryResult,
    StrategyRegistry,
};
pub use skinner_storage::{DataType, DiskError, DiskStore, Value};

// Re-export the component crates for advanced use (benchmarks, examples).
pub use skinner_adaptive;
pub use skinner_core;
pub use skinner_exec;
pub use skinner_optimizer;
pub use skinner_query;
pub use skinner_stats;
pub use skinner_storage;
pub use skinner_uct;
pub use skinner_workloads;
