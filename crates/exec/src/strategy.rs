//! The open execution-strategy API.
//!
//! SkinnerDB's engines — and any engine an external crate wants to plug in
//! — implement [`ExecutionStrategy`]: evaluate one bound [`JoinQuery`]
//! under an [`ExecContext`] and report an [`ExecOutcome`]. Strategies are
//! registered by name in a [`StrategyRegistry`], so new learned optimizers
//! (the RL-optimizer line of work this reproduction sits in keeps
//! producing them) slot in without touching the engine crates.
//!
//! This crate ships the two engine-agnostic implementations:
//! [`TraditionalStrategy`] (statistics → DP optimizer → generic engine)
//! and [`ReferenceStrategy`] (the naive nested-loop ground truth).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;

use skinner_query::JoinQuery;

use crate::budget::WorkBudget;
use crate::context::ExecContext;
use crate::outcome::ExecOutcome;
use crate::traditional::{run_traditional, TraditionalConfig};

/// An execution engine that can evaluate bound join queries.
///
/// Object-safe by design: the facade and registry deal exclusively in
/// `Arc<dyn ExecutionStrategy>`.
pub trait ExecutionStrategy: Send + Sync {
    /// Display / registry name (matched case-insensitively on lookup).
    fn name(&self) -> &str;

    /// Evaluate `query` under `ctx`. Implementations must be cooperative:
    /// do at most `ctx.budget().remaining()` work units and settle what
    /// they did into `ctx.budget()`, and poll `ctx.interrupted()` in their
    /// slice loops, reporting a timed-out outcome rather than running away.
    fn execute(&self, query: &JoinQuery, ctx: &ExecContext) -> ExecOutcome;
}

/// A concurrent name → strategy map; lookups are case-insensitive.
#[derive(Default)]
pub struct StrategyRegistry {
    inner: RwLock<HashMap<String, Arc<dyn ExecutionStrategy>>>,
}

impl StrategyRegistry {
    /// An empty registry (the facade crate populates the built-ins).
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `strategy` under its own name, replacing and returning any
    /// previous holder of that name.
    pub fn register(
        &self,
        strategy: Arc<dyn ExecutionStrategy>,
    ) -> Option<Arc<dyn ExecutionStrategy>> {
        let key = strategy.name().to_ascii_lowercase();
        self.inner.write().insert(key, strategy)
    }

    /// Look up a strategy by name (case-insensitive).
    pub fn get(&self, name: &str) -> Option<Arc<dyn ExecutionStrategy>> {
        self.inner.read().get(&name.to_ascii_lowercase()).cloned()
    }

    pub fn contains(&self, name: &str) -> bool {
        self.inner.read().contains_key(&name.to_ascii_lowercase())
    }

    /// Registered names, sorted (display names as the strategies report
    /// them, not the lowercased keys).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .inner
            .read()
            .values()
            .map(|s| s.name().to_string())
            .collect();
        v.sort();
        v
    }

    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }
}

impl std::fmt::Debug for StrategyRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StrategyRegistry")
            .field("strategies", &self.names())
            .finish()
    }
}

/// The traditional DBMS path as a pluggable strategy.
#[derive(Debug, Clone, Default)]
pub struct TraditionalStrategy(pub TraditionalConfig);

impl ExecutionStrategy for TraditionalStrategy {
    fn name(&self) -> &str {
        "Traditional"
    }

    fn execute(&self, query: &JoinQuery, ctx: &ExecContext) -> ExecOutcome {
        run_traditional(query, ctx, &self.0)
    }
}

/// The naive nested-loop reference executor (testing only; exponential).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceStrategy;

impl ExecutionStrategy for ReferenceStrategy {
    fn name(&self) -> &str {
        "Reference"
    }

    fn execute(&self, query: &JoinQuery, ctx: &ExecContext) -> ExecOutcome {
        let start = Instant::now();
        let budget = WorkBudget::with_limit(ctx.budget().remaining());
        let result = crate::reference::run_reference_bounded(query, ctx.cancel(), &budget);
        ctx.absorb_work(budget.used());
        match result {
            Some(result) => ExecOutcome::completed(result, budget.used(), start.elapsed()),
            None => {
                let columns = query.select.iter().map(|s| s.name().to_string()).collect();
                ExecOutcome::timeout(columns, budget.used(), start.elapsed())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::QueryResult;

    struct Fake(&'static str);

    impl ExecutionStrategy for Fake {
        fn name(&self) -> &str {
            self.0
        }
        fn execute(&self, query: &JoinQuery, _ctx: &ExecContext) -> ExecOutcome {
            let columns = query.select.iter().map(|s| s.name().to_string()).collect();
            ExecOutcome::completed(QueryResult::empty(columns), 0, std::time::Duration::ZERO)
        }
    }

    #[test]
    fn registry_roundtrip_case_insensitive() {
        let reg = StrategyRegistry::new();
        assert!(reg.is_empty());
        assert!(reg.register(Arc::new(Fake("My-Engine"))).is_none());
        assert_eq!(reg.len(), 1);
        assert!(reg.contains("my-engine"));
        assert!(reg.get("MY-ENGINE").is_some());
        assert!(reg.get("other").is_none());
        assert_eq!(reg.names(), vec!["My-Engine".to_string()]);
        // Re-registering the same name replaces the old strategy.
        let old = reg.register(Arc::new(Fake("my-engine")));
        assert_eq!(old.unwrap().name(), "My-Engine");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let reg = Arc::new(StrategyRegistry::new());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    let name: &'static str = Box::leak(format!("engine-{i}").into_boxed_str());
                    reg.register(Arc::new(Fake(name)));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.len(), 4);
    }
}
