//! Built-in strategy construction.
//!
//! The [`Strategy`] enum is a convenience layer for the strategies that
//! ship with SkinnerDB: each variant pairs an engine with its config and
//! [`Strategy::build`] turns it into the `Arc<dyn ExecutionStrategy>` the
//! execution layer actually runs. The enum is *not* the extension point —
//! external engines implement [`ExecutionStrategy`] directly and register
//! with the [`StrategyRegistry`] (see [`builtin_registry`]).

use std::sync::Arc;

use skinner_adaptive::{EddyConfig, EddyStrategy, ReoptimizerConfig, ReoptimizerStrategy};
use skinner_core::{
    ParallelSkinnerConfig, ParallelSkinnerStrategy, SkinnerCConfig, SkinnerCStrategy,
    SkinnerGConfig, SkinnerGStrategy, SkinnerHConfig, SkinnerHStrategy,
};
use skinner_exec::{
    ExecutionStrategy, ReferenceStrategy, StrategyRegistry, TraditionalConfig, TraditionalStrategy,
};

/// Which built-in evaluation strategy executes a query.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// Skinner-C: the customized engine (paper Section 4.5). The default.
    SkinnerC(SkinnerCConfig),
    /// Skinner-G on the generic engine (Section 4.3).
    SkinnerG(SkinnerGConfig),
    /// Skinner-H hybrid (Section 4.4).
    SkinnerH(SkinnerHConfig),
    /// Multi-threaded Skinner-C: episode batches split across worker
    /// threads, all learning through one shared concurrent UCT tree (the
    /// paper's parallel configuration, Section 6.1).
    ParallelSkinner(ParallelSkinnerConfig),
    /// Traditional statistics + DP optimizer + generic engine.
    Traditional(TraditionalConfig),
    /// Reinforcement-learning Eddy baseline.
    Eddy(EddyConfig),
    /// Sampling-based re-optimizer baseline.
    Reoptimizer(ReoptimizerConfig),
    /// Naive nested-loop reference executor (testing only; exponential).
    Reference,
}

impl Default for Strategy {
    fn default() -> Self {
        Strategy::SkinnerC(SkinnerCConfig::default())
    }
}

impl Strategy {
    /// Short display name (harness output; also the registry key).
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::SkinnerC(_) => "Skinner-C",
            Strategy::SkinnerG(_) => "Skinner-G",
            Strategy::SkinnerH(_) => "Skinner-H",
            Strategy::ParallelSkinner(_) => "parallel_skinner",
            Strategy::Traditional(_) => "Traditional",
            Strategy::Eddy(_) => "Eddy",
            Strategy::Reoptimizer(_) => "Re-optimizer",
            Strategy::Reference => "Reference",
        }
    }

    /// Materialize the executable strategy for this variant.
    pub fn build(&self) -> Arc<dyn ExecutionStrategy> {
        match self {
            Strategy::SkinnerC(cfg) => Arc::new(SkinnerCStrategy(cfg.clone())),
            Strategy::SkinnerG(cfg) => Arc::new(SkinnerGStrategy(cfg.clone())),
            Strategy::SkinnerH(cfg) => Arc::new(SkinnerHStrategy(cfg.clone())),
            Strategy::ParallelSkinner(cfg) => Arc::new(ParallelSkinnerStrategy(cfg.clone())),
            Strategy::Traditional(cfg) => Arc::new(TraditionalStrategy(cfg.clone())),
            Strategy::Eddy(cfg) => Arc::new(EddyStrategy(cfg.clone())),
            Strategy::Reoptimizer(cfg) => Arc::new(ReoptimizerStrategy(cfg.clone())),
            Strategy::Reference => Arc::new(ReferenceStrategy),
        }
    }

    /// All built-in variants with default configs, Reference included.
    pub fn all_builtin() -> Vec<Strategy> {
        vec![
            Strategy::SkinnerC(SkinnerCConfig::default()),
            Strategy::SkinnerG(SkinnerGConfig::default()),
            Strategy::SkinnerH(SkinnerHConfig::default()),
            Strategy::ParallelSkinner(ParallelSkinnerConfig::default()),
            Strategy::Traditional(TraditionalConfig::default()),
            Strategy::Eddy(EddyConfig::default()),
            Strategy::Reoptimizer(ReoptimizerConfig::default()),
            Strategy::Reference,
        ]
    }
}

/// A registry pre-populated with every built-in strategy under its default
/// configuration. `Database::new` starts from this; external strategies are
/// added via [`StrategyRegistry::register`].
pub fn builtin_registry() -> StrategyRegistry {
    let registry = StrategyRegistry::new();
    for strategy in Strategy::all_builtin() {
        registry.register(strategy.build());
    }
    registry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Strategy::default().name(), "Skinner-C");
        assert_eq!(Strategy::Reference.name(), "Reference");
    }

    #[test]
    fn built_strategies_report_the_enum_name() {
        for s in Strategy::all_builtin() {
            assert_eq!(s.name(), s.build().name());
        }
    }

    #[test]
    fn builtin_registry_is_complete() {
        let reg = builtin_registry();
        assert_eq!(reg.len(), 8);
        for s in Strategy::all_builtin() {
            assert!(reg.contains(s.name()), "{} missing", s.name());
        }
    }
}
