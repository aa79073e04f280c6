//! Generic query execution engine and shared pipeline stages.
//!
//! This crate provides everything the paper treats as "an existing DBMS":
//!
//! * [`budget`] — deterministic *work units* with hard budgets. Work units
//!   count elementary operations (tuples scanned, hash probes, predicate
//!   evaluations, tuples produced) identically across every engine in this
//!   repository, so simulated "time" is comparable between SkinnerDB and the
//!   baselines — the hardware-independent counterpart of the paper's wall
//!   clock, mirroring its cardinality columns (Tables 1–2) and
//!   "#evaluations" (Figure 11).
//! * [`preprocess`](mod@preprocess) — unary filtering into materialized filtered tables
//!   (optionally parallel), shared by all engines (paper Section 3's
//!   pre-processor).
//! * [`engine`] — a blocking left-deep join executor (hash joins on equality
//!   predicates, nested loops otherwise) that materializes intermediate
//!   results per binary join and **loses all progress on timeout** — exactly
//!   the black-box behaviour Skinner-G must cope with (Section 4.3).
//! * [`postprocess`](mod@postprocess) — grouping, aggregation, ordering, limit, distinct
//!   (Section 3's post-processor) over a flat [`TupleView`], compiled per
//!   call into typed column accessors and accumulators, plus
//!   [`postprocess_parallel`]: the same kernel over sub-ranges of the view
//!   (per-worker partial aggregation or local sort, coordinator merge) with
//!   identical results at every thread count.
//! * [`traditional`] — the full traditional-DBMS query path (statistics →
//!   DP optimizer → execution), configurable between a row-at-a-time profile
//!   (Postgres-like) and a vectorized column profile (MonetDB-like).
//! * [`reference`](mod@reference) — a naive nested-loop executor used as ground truth in
//!   correctness tests.
//! * [`oracle`] — exact join-cardinality counting, which defines the
//!   *optimal* join orders replayed in the paper's Tables 3 and 4.
//!
//! It also defines the **execution API** every engine in the workspace
//! (and external crates) plugs into:
//!
//! * [`strategy`] — the object-safe [`ExecutionStrategy`] trait and the
//!   [`StrategyRegistry`] for name-based registration,
//! * [`context`] — [`ExecContext`]: stats, UDFs, a shared [`WorkBudget`],
//!   and a cooperative [`CancelToken`] threaded through the slice loops,
//! * [`outcome`] — the one shared [`ExecOutcome`] / [`ExecMetrics`] pair
//!   all strategies report,
//! * [`pool`] — [`scatter_gather`], the process-wide pool every parallel
//!   phase runs on, plus tuple-range partitioning and metric merging used
//!   by data-parallel strategies such as `parallel_skinner`.

pub mod budget;
pub mod context;
pub mod engine;
pub mod oracle;
pub mod outcome;
pub mod pool;
pub mod postprocess;
pub mod preprocess;
pub mod reference;
pub mod result;
pub mod strategy;
pub mod traditional;
pub mod tuples;
pub mod zonescan;

pub use budget::{LocalWork, Timeout, WorkBudget};
pub use context::{default_threads, CancelToken, ExecContext};
pub use engine::{execute_join, join_step, ExecProfile, JoinOutput};
pub use outcome::{ExecMetrics, ExecOutcome};
pub use pool::{partition_tuples, scatter_gather, TupleRange};
pub use postprocess::{postprocess, postprocess_parallel};
pub use preprocess::{preprocess, Preprocessed};
pub use result::QueryResult;
pub use strategy::{ExecutionStrategy, ReferenceStrategy, StrategyRegistry, TraditionalStrategy};
pub use traditional::{run_traditional, TraditionalConfig};
pub use tuples::{TupleBuf, TupleSink, TupleView};
pub use zonescan::{plan_scan, ScanPlan};

// Telemetry rides through the execution API (the trace slot on
// [`ExecContext`]); re-export the types engines and callers touch so
// downstream crates need no direct `skinner_telemetry` dependency.
pub use skinner_telemetry::{EpisodeRuns, Span, SpanTimer, Trace};
