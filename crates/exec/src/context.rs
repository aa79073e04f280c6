//! Per-execution context shared by every strategy.
//!
//! An [`ExecContext`] bundles what used to be loose parameters (the stats
//! cache, the UDF registry) with two new cross-cutting controls:
//!
//! * a shared [`WorkBudget`] spanning a whole script or session: the only
//!   work limit an engine enforces is what remains of it, so a
//!   multi-statement script cannot exceed its caller's total limit, and
//! * a cooperative [`CancelToken`] with an optional deadline, checked in
//!   every engine's slice loop: when it trips, the engine abandons the run
//!   and reports a timed-out [`crate::ExecOutcome`]. No threads are killed
//!   — cancellation is cooperative, like the paper's timeout discipline.
//!
//! Contexts are cheap to clone (everything is behind an `Arc`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use skinner_query::UdfRegistry;
use skinner_stats::StatsCache;
use skinner_telemetry::Trace;

use crate::budget::WorkBudget;

/// Cooperative cancellation flag with an optional deadline.
///
/// Clones share the flag: cancelling any clone cancels them all.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never fires on its own (cancel explicitly).
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that fires once `timeout` has elapsed from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: Instant::now().checked_add(timeout),
            }),
        }
    }

    /// Request cancellation (idempotent, callable from any thread).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// True once cancelled or past the deadline.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
            || self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }

    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }
}

/// Everything a strategy needs besides the bound query itself.
#[derive(Clone, Default)]
pub struct ExecContext {
    stats: Arc<StatsCache>,
    udfs: Arc<UdfRegistry>,
    budget: Arc<WorkBudget>,
    cancel: CancelToken,
    /// Worker threads parallel strategies may use; `0` = unset, resolved to
    /// the machine's available parallelism by [`ExecContext::threads`].
    threads: usize,
    /// Cross-query learning cache, type-erased because the concrete
    /// `TreeCache` lives above this crate (in `skinner_core`, which
    /// depends on `skinner_exec`). `None` = cross-query learning off —
    /// the default, preserving the paper's per-query discipline.
    learning_cache: Option<Arc<dyn std::any::Any + Send + Sync>>,
    /// Per-query trace span ring. `None` (the default) makes every span
    /// site a no-op; attaching one is always-on cheap (see
    /// [`skinner_telemetry::Trace`]).
    trace: Option<Arc<Trace>>,
}

impl ExecContext {
    /// Fresh context: empty stats/UDFs, unlimited budget, no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_stats(mut self, stats: Arc<StatsCache>) -> Self {
        self.stats = stats;
        self
    }

    pub fn with_udfs(mut self, udfs: Arc<UdfRegistry>) -> Self {
        self.udfs = udfs;
        self
    }

    pub fn with_budget(mut self, budget: Arc<WorkBudget>) -> Self {
        self.budget = budget;
        self
    }

    /// A fresh budget of `limit` work units (the session's `work_limit`).
    pub fn with_work_limit(self, limit: u64) -> Self {
        self.with_budget(Arc::new(WorkBudget::with_limit(limit)))
    }

    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Set the worker-thread count parallel strategies should use
    /// (clamped to at least 1; the session/database `threads` knob lands
    /// here).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Worker threads for parallel strategies: the configured knob, or the
    /// machine's available parallelism when unset.
    pub fn threads(&self) -> usize {
        if self.threads == 0 {
            default_threads()
        } else {
            self.threads
        }
    }

    /// Statistics for cost-based strategies (SkinnerDB itself never reads
    /// them — the paper's "no statistics" discipline).
    pub fn stats(&self) -> &StatsCache {
        &self.stats
    }

    pub fn udfs(&self) -> &UdfRegistry {
        &self.udfs
    }

    /// The shared (script/session scope) work budget. Engines size their
    /// local budgets from its `remaining()` units and settle into it.
    pub fn budget(&self) -> &WorkBudget {
        &self.budget
    }

    pub fn cancel(&self) -> &CancelToken {
        &self.cancel
    }

    /// Cheap check engines make once per slice: cancelled or past deadline?
    #[inline]
    pub fn interrupted(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Attach a cross-query learning cache (the session/database
    /// `learning_cache` knob lands here). The value is type-erased; learned
    /// strategies downcast it back via [`ExecContext::learning_cache`].
    pub fn with_learning_cache(mut self, cache: Arc<dyn std::any::Any + Send + Sync>) -> Self {
        self.learning_cache = Some(cache);
        self
    }

    /// The attached cross-query learning cache, downcast to its concrete
    /// type; `None` when the knob is off or the type does not match.
    pub fn learning_cache<T: std::any::Any + Send + Sync>(&self) -> Option<Arc<T>> {
        self.learning_cache.clone()?.downcast::<T>().ok()
    }

    /// Attach a per-query trace so engines record stage spans into it.
    pub fn with_trace(mut self, trace: Arc<Trace>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The attached per-query trace, if any. Engines call
    /// `ctx.trace()` at stage boundaries; `None` means don't record.
    #[inline]
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_deref()
    }

    /// The trace behind its `Arc`, for handing to worker threads.
    pub fn trace_arc(&self) -> Option<&Arc<Trace>> {
        self.trace.as_ref()
    }

    /// Fold a finished run's consumption back into the shared budget (the
    /// over-limit error is irrelevant here — the run already ended).
    pub fn absorb_work(&self, used: u64) {
        let _ = self.budget.charge(used);
    }
}

/// The machine's available parallelism (the default for the `threads`
/// knob on databases and sessions).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl std::fmt::Debug for ExecContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecContext")
            .field("budget_used", &self.budget.used())
            .field("budget_limit", &self.budget.limit())
            .field("cancelled", &self.cancel.is_cancelled())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_flag_and_clone_sharing() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_cancelled());
        u.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn deadline_fires() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
        let far = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        assert!(far.deadline().is_some());
    }

    #[test]
    fn threads_knob_defaults_to_available_parallelism() {
        let ctx = ExecContext::new();
        assert_eq!(ctx.threads(), default_threads());
        assert!(ctx.threads() >= 1);
        let ctx = ctx.with_threads(4);
        assert_eq!(ctx.threads(), 4);
        // Zero is clamped rather than re-enabling the default.
        assert_eq!(ExecContext::new().with_threads(0).threads(), 1);
    }

    #[test]
    fn learning_cache_slot_roundtrips_by_type() {
        let ctx = ExecContext::new();
        assert!(ctx.learning_cache::<String>().is_none());
        let ctx = ctx.with_learning_cache(Arc::new(String::from("cache")));
        assert_eq!(*ctx.learning_cache::<String>().unwrap(), "cache");
        assert!(ctx.learning_cache::<u64>().is_none(), "wrong type is None");
    }

    #[test]
    fn trace_slot_is_optional_and_shared() {
        let ctx = ExecContext::new();
        assert!(ctx.trace().is_none());
        let trace = Trace::new(8);
        let ctx = ctx.with_trace(trace.clone());
        ctx.trace().unwrap().record("preprocess", 0, 3);
        assert_eq!(trace.spans().len(), 1);
        assert_eq!(trace.spans()[0].detail, 3);
    }

    #[test]
    fn absorbed_work_shrinks_the_remaining_budget() {
        let ctx = ExecContext::new().with_work_limit(100);
        assert_eq!(ctx.budget().remaining(), 100);
        ctx.absorb_work(80);
        assert_eq!(ctx.budget().remaining(), 20);
        ctx.absorb_work(80); // over-limit absorption is not an error
        assert_eq!(ctx.budget().remaining(), 0);
        assert_eq!(ctx.budget().used(), 160);
    }
}
