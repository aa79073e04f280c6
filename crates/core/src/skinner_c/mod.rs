//! Skinner-C: the customized execution engine (paper Section 4.5).
//!
//! The engine is designed around three desiderata the paper derives from
//! regret-bounded evaluation:
//!
//! 1. **Minimal join-order switching overhead** — execution state is a
//!    single vector of tuple indices ([`state::JoinState`]); switching orders
//!    is a vector copy.
//! 2. **No progress loss on interruption** — state is backed up after every
//!    time slice and restored on re-selection ([`state::ProgressTracker`]).
//! 3. **Progress sharing across join orders** — per-table offsets exclude
//!    fully-joined tuples for *all* orders, and orders sharing a prefix
//!    fast-forward each other ([`state::ProgressTracker::restore`]).
//!
//! The multi-way join ([`join`]) keeps at most one intermediate tuple alive
//! (Algorithm 2 / Figure 5) and uses hash indexes to jump over tuples that
//! cannot satisfy equality predicates.

pub mod engine;
pub mod join;
pub(crate) mod ledger;
pub mod preproc;
pub mod result_set;
pub mod reward;
pub mod state;
