//! The UCT algorithm over join-order search trees.
//!
//! Implements the variant the paper builds on (Kocsis & Szepesvári, "Bandit
//! based Monte-Carlo planning", paper Section 4.1):
//!
//! * the search tree's root represents the empty join prefix; each level
//!   picks the next table, excluding avoidable Cartesian products
//!   (Section 4.2, via [`skinner_query::JoinGraph::eligible_next`]);
//! * only a *partial* tree is materialized — **at most one node per round**
//!   is added (the first node on the current path outside the materialized
//!   tree);
//! * per materialized node, two counters: visit count and mean reward;
//! * child selection maximizes `r̄_c + w·√(ln v_p / v_c)`; unvisited children
//!   are tried first, in random order; below the materialized frontier the
//!   path continues with uniformly random eligible tables;
//! * rewards are in `[0,1]`; `w = √2` gives the regret guarantee, but the
//!   weight is tunable per domain (the paper uses `10⁻⁶` for Skinner-C).
//!
//! # One tree, one writer
//!
//! [`UctTree`] is the crate's only tree. It takes `&mut self` for both
//! `choose` and `update`, so its only writer is the thread that chooses:
//! sequential Skinner-C/G/H call it from their one thread, and
//! `parallel_skinner`'s coordinator chooses each episode's order and
//! applies the workers' rewards itself, once per reported chunk in chunk
//! order. No counter is shared between threads, so no update can be lost
//! or torn, and a seeded tree replays the same choices for the same
//! rewards.
//!
//! # Cross-query priors
//!
//! A tree can export its join-order statistics as a [`TreePrior`]
//! (`extract_prior`) and warm-start a fresh tree from one
//! (`seed_prior`, with decayed visits and exactly preserved mean rewards)
//! — the transfer mechanism behind the cross-query learning cache; see
//! [`prior`] for the invariants (ancestor closure, mean preservation,
//! graph validation).

pub mod prior;
pub mod tree;

pub use prior::{PriorEntry, TreePrior};
pub use tree::{UctConfig, UctTree};
