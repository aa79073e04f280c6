//! The built-in strategy registry.
//!
//! Every engine that ships with SkinnerDB is an
//! [`ExecutionStrategy`](crate::ExecutionStrategy) struct named by its own
//! [`ExecutionStrategy::name`](crate::ExecutionStrategy::name); the
//! [`StrategyRegistry`] is the one place those names are looked up.
//! External engines implement the same trait and register alongside them.

use std::sync::Arc;

use skinner_adaptive::{EddyStrategy, ReoptimizerStrategy};
use skinner_core::{ParallelSkinnerStrategy, SkinnerCStrategy, SkinnerGStrategy, SkinnerHStrategy};
use skinner_exec::{ReferenceStrategy, StrategyRegistry, TraditionalStrategy};

/// A registry pre-populated with every built-in strategy under its default
/// configuration. `Database::new` starts from this; external strategies are
/// added via [`StrategyRegistry::register`].
pub fn builtin_registry() -> StrategyRegistry {
    let registry = StrategyRegistry::new();
    registry.register(Arc::new(SkinnerCStrategy::default()));
    registry.register(Arc::new(SkinnerGStrategy::default()));
    registry.register(Arc::new(SkinnerHStrategy::default()));
    registry.register(Arc::new(ParallelSkinnerStrategy::default()));
    registry.register(Arc::new(TraditionalStrategy::default()));
    registry.register(Arc::new(EddyStrategy::default()));
    registry.register(Arc::new(ReoptimizerStrategy::default()));
    registry.register(Arc::new(ReferenceStrategy));
    registry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_is_complete() {
        assert_eq!(
            builtin_registry().names(),
            [
                "Eddy",
                "Re-optimizer",
                "Reference",
                "Skinner-C",
                "Skinner-G",
                "Skinner-H",
                "Traditional",
                "parallel_skinner",
            ]
        );
    }
}
