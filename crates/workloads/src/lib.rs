//! Benchmark workload generators.
//!
//! The paper evaluates on four workload families; since the original data
//! (IMDB, dbgen output) is not redistributable here, each is rebuilt as a
//! deterministic generator that preserves the property the experiment
//! exploits. Each generator and what it keeps:
//!
//! * [`tpch`] — a mini `dbgen`: the eight TPC-H tables with the standard
//!   key structure and value distributions at a configurable scale factor,
//!   plus the ten evaluated queries (Q2, 3, 5, 7, 8, 9, 10, 11, 18, 21) in
//!   both the standard and the *UDF* variant (predicates wrapped in opaque
//!   functions, exactly the paper's TPC-UDF setup).
//! * [`job_like`] — an IMDB-style schema (13 tables around a `title` hub)
//!   with planted cross-table correlations and Zipf skew, plus a generated
//!   30-query workload (3–12 joins incl. self-join aliases): the Join Order
//!   Benchmark's difficulty (correlations break independence estimates)
//!   by construction.
//! * [`torture`] — the Optimizer Torture benchmarks of the appendix:
//!   UDF Torture (chain/star, one hidden empty join), Correlation Torture
//!   (uninformative statistics, one selective edge at position `m`) and
//!   Trivial Optimization (all non-Cartesian plans equivalent).

pub mod dist;
pub mod job_like;
pub mod torture;
pub mod tpch;

use std::sync::Arc;

use skinner_query::UdfRegistry;
use skinner_storage::Catalog;

/// One benchmark query: a name and a SQL script (possibly multi-statement,
/// using temp tables for decomposed nested queries).
#[derive(Debug, Clone)]
pub struct BenchQuery {
    pub name: String,
    pub script: String,
    /// Number of tables joined by the main statement (reporting).
    pub num_tables: usize,
}

/// A generated workload: data, UDFs and queries.
pub struct Workload {
    pub catalog: Arc<Catalog>,
    pub udfs: UdfRegistry,
    pub queries: Vec<BenchQuery>,
}
