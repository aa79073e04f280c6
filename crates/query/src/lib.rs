//! Query frontend and intermediate representation.
//!
//! This crate turns SQL text into the bound representation every SkinnerDB
//! engine consumes:
//!
//! * [`lexer`] / [`parser`] / [`ast`] — a hand-written frontend for the SQL
//!   subset the paper's workloads need (SPJ blocks with conjunctive
//!   predicates, aggregates, `GROUP BY`, `ORDER BY`, `LIMIT`, `IN`
//!   sub-selects over materialized temp tables, `LIKE`, `BETWEEN`, UDF
//!   calls),
//! * [`expr`] — bound expressions evaluated against `(tables, row-ids)`
//!   tuples, matching the paper's index-vector tuple representation,
//! * [`pred`] — WHERE predicates lowered once per statement into typed
//!   programs over tuple positions, for the per-tuple loops (join checks,
//!   unary filters),
//! * [`query`] — the bound [`query::JoinQuery`]: per-table unary predicates,
//!   equality join predicates, generic (theta/UDF) join predicates, and the
//!   post-processing spec (select/group/order/limit),
//! * [`graph`] — the join graph used to exclude Cartesian products from the
//!   join-order search space (paper Section 4.2),
//! * [`udf`] — the user-defined-function registry; UDFs are black boxes for
//!   the traditional optimizer, exactly as in the paper's UDF benchmarks,
//! * [`binder`] — name resolution from AST to bound IR,
//! * [`template`] — query canonicalization into template keys (literals and
//!   aliases normalized), the identity cross-query learning caches under.

pub mod ast;
pub mod binder;
pub mod expr;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod pred;
pub mod query;
pub mod table_set;
pub mod template;
pub mod udf;

pub use binder::{bind_select, BindError};
pub use expr::{ColRef, EvalCtx, Expr};
pub use graph::JoinGraph;
pub use parser::{parse_statement, parse_statements, ParseError};
pub use pred::Pred;
pub use query::{AggFunc, EquiPred, GenericPred, JoinQuery, OrderKey, SelectItem, SortOrder};
pub use table_set::TableSet;
pub use template::{template_features, template_key, TemplateFeatures};
pub use udf::{UdfId, UdfRegistry};
