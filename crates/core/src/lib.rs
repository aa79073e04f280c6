//! SkinnerDB's regret-bounded query evaluation strategies.
//!
//! The paper's primary contribution, reproduced in full:
//!
//! * [`skinner_c`] — **Skinner-C** (paper Section 4.5): a customized
//!   execution engine built around a depth-first multi-way join whose entire
//!   execution state is one vector of tuple indices. Join orders switch
//!   thousands of times per second; progress is backed up per join order,
//!   shared across orders with common prefixes, and never lost. A single
//!   UCT tree learns join-order quality from per-slice progress rewards.
//! * [`skinner_g`] — **Skinner-G** (Section 4.3): the same learning loop on
//!   top of a *generic* engine (`skinner-exec`) driven through forced join
//!   orders, data batches and destructive timeouts, using the *pyramid*
//!   timeout scheme ([`pyramid`], Algorithm 1) with one UCT tree per timeout
//!   level.
//! * [`skinner_h`] — **Skinner-H** (Section 4.4): alternates
//!   doubling-timeout executions of the traditional optimizer's plan with
//!   equal time for Skinner-G learning, preserving learning state across
//!   rounds; bounded regret against both the optimum and the traditional
//!   plan (Theorems 5.7, 5.8).
//! * [`parallel`] — **parallel_skinner**: the paper's multi-threaded
//!   SkinnerC configuration (Section 6.1). Each episode's batch of
//!   left-most-table tuples is split across N worker threads executing the
//!   same join order, and all workers learn through one UCT tree, which
//!   the coordinator alone updates.
//!
//! * [`cache`] — **cross-query learning**: a bounded, thread-safe cache of
//!   UCT tree priors keyed by query template, consulted at query start and
//!   published into at query end by Skinner-C and `parallel_skinner` when
//!   the `learning_cache` knob is on. Purely a convergence accelerator —
//!   results are identical with it on or off.
//!
//! All strategies produce exactly the same results as a traditional
//! execution (Theorems 5.1–5.3); the integration tests verify this against
//! a naive reference executor.

pub mod cache;
pub mod config;
pub mod parallel;
pub mod pyramid;
pub mod skinner_c;
pub mod skinner_g;
pub mod skinner_h;
pub mod strategies;

pub use cache::{
    CacheProbe, QuerySig, RunFeedback, TreeCache, TreeCacheConfig, TreeCacheStats, WarmStart,
};
pub use config::{RewardKind, SkinnerCConfig, SkinnerGConfig, SkinnerHConfig};
pub use parallel::{run_parallel_skinner, ParallelSkinnerConfig, ParallelSkinnerStrategy};
pub use pyramid::PyramidScheme;
pub use skinner_c::engine::{run_skinner_c, run_skinner_c_fixed};
pub use skinner_g::SkinnerG;
pub use skinner_h::{run_skinner_h, WINNER_LEARNED, WINNER_TRADITIONAL};
pub use strategies::{SkinnerCStrategy, SkinnerGStrategy, SkinnerHStrategy};
