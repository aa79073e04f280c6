//! Deterministic work accounting with hard budgets.

use std::sync::atomic::{AtomicU64, Ordering};

/// Error signalled when a budget is exhausted mid-execution. For the generic
/// engine this is a *destructive* timeout: intermediate results are lost,
/// as the paper assumes for black-box engines (Section 4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeout;

impl std::fmt::Display for Timeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "work budget exhausted")
    }
}

impl std::error::Error for Timeout {}

/// A shared counter of *work units* with an optional hard limit.
///
/// One work unit is one elementary operation: a tuple scanned, a hash-table
/// probe step, a predicate evaluation, or a tuple produced. All engines in
/// the repository charge through this type with the same conventions, which
/// makes their unit totals comparable (the simulation-time metric used by
/// the benchmark harness alongside wall-clock time).
#[derive(Debug)]
pub struct WorkBudget {
    used: AtomicU64,
    limit: u64,
    /// Intermediate-result tuples produced (the paper's "Total Card."
    /// optimizer-quality metric in Tables 1–2).
    tuples: AtomicU64,
}

/// The default budget is unlimited (a zero limit would reject all work).
impl Default for WorkBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl WorkBudget {
    /// A budget allowing `limit` units.
    pub fn with_limit(limit: u64) -> Self {
        WorkBudget {
            used: AtomicU64::new(0),
            limit,
            tuples: AtomicU64::new(0),
        }
    }

    /// An effectively unlimited budget.
    pub fn unlimited() -> Self {
        Self::with_limit(u64::MAX)
    }

    /// Charge `n` units. Returns `Err(Timeout)` if the limit is exceeded
    /// (the charge is still recorded, so `used()` reflects actual work).
    #[inline]
    pub fn charge(&self, n: u64) -> Result<(), Timeout> {
        let before = self.used.fetch_add(n, Ordering::Relaxed);
        if before.saturating_add(n) > self.limit {
            Err(Timeout)
        } else {
            Ok(())
        }
    }

    /// Atomically reserve `n` units if — and only if — the whole amount
    /// still fits under the limit. Returns `false` (leaving `used`
    /// untouched) otherwise.
    ///
    /// Unlike [`WorkBudget::charge`], which records the work it rejects
    /// (work already done must be accounted), `try_consume` reserves work
    /// *before* it happens: concurrent consumers can never collectively
    /// overspend the limit, which makes it the right primitive for handing
    /// out per-worker quotas from a shared budget.
    #[inline]
    pub fn try_consume(&self, n: u64) -> bool {
        self.used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                let after = used.checked_add(n)?;
                (after <= self.limit).then_some(after)
            })
            .is_ok()
    }

    /// Return `n` previously consumed units to the budget (saturating at
    /// zero). Pairs with [`WorkBudget::try_consume`]: reserve a worst-case
    /// amount up front, then refund what went unused once the actual
    /// consumption is known.
    #[inline]
    pub fn refund(&self, n: u64) {
        let _ = self
            .used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                Some(used.saturating_sub(n))
            });
    }

    /// Record `n` intermediate tuples produced (also charges `n` units).
    #[inline]
    pub fn produce_tuples(&self, n: u64) -> Result<(), Timeout> {
        self.tuples.fetch_add(n, Ordering::Relaxed);
        self.charge(n)
    }

    /// Open a [`LocalWork`] counter over this budget for one tight loop.
    ///
    /// The caller must be the only one charging the budget while the
    /// counter lives if it relies on stopping at exactly the unit a
    /// per-charge check would have stopped at (the join loop's budgets are
    /// task-local, so it is). Concurrent counters over one budget still
    /// account every unit; they only notice each other's spending when
    /// they settle.
    #[inline]
    pub fn local(&self) -> LocalWork<'_> {
        LocalWork {
            budget: self,
            allowed: self.remaining(),
            spent: 0,
            tuples: 0,
        }
    }

    /// Units consumed so far. Exact whenever no [`LocalWork`] is open —
    /// at slice boundaries and after a timeout.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Intermediate tuples produced so far.
    pub fn tuples_produced(&self) -> u64 {
        self.tuples.load(Ordering::Relaxed)
    }

    /// Remaining units (0 when exhausted).
    pub fn remaining(&self) -> u64 {
        self.limit.saturating_sub(self.used())
    }

    /// True if the budget has been exceeded.
    pub fn exhausted(&self) -> bool {
        self.used() > self.limit
    }

    /// The configured limit.
    pub fn limit(&self) -> u64 {
        self.limit
    }
}

/// Loop-local work accounting: charges land in plain integers and are
/// checked against the budget's remaining units captured when the counter
/// was opened; the total is settled to the shared atomics exactly once,
/// when the counter drops — on normal exit, on `?` and on `Err(Timeout)`
/// alike. A loop charging through it times out on the same unit, and
/// leaves the same `used()` and `tuples_produced()` behind, as one calling
/// [`WorkBudget::charge`] per unit; it just does not pay an atomic
/// read-modify-write per elementary step.
#[derive(Debug)]
pub struct LocalWork<'a> {
    budget: &'a WorkBudget,
    /// `budget.remaining()` at open time.
    allowed: u64,
    spent: u64,
    tuples: u64,
}

impl LocalWork<'_> {
    /// Charge `n` units. `Err(Timeout)` once the budget's limit is crossed
    /// (the charge is still recorded).
    #[inline]
    pub fn charge(&mut self, n: u64) -> Result<(), Timeout> {
        self.spent = self.spent.saturating_add(n);
        if self.spent > self.allowed {
            Err(Timeout)
        } else {
            Ok(())
        }
    }

    /// Record one intermediate tuple produced (also charges one unit).
    #[inline]
    pub fn produce_tuple(&mut self) -> Result<(), Timeout> {
        self.tuples += 1;
        self.charge(1)
    }
}

impl Drop for LocalWork<'_> {
    #[inline]
    fn drop(&mut self) {
        self.budget.tuples.fetch_add(self.tuples, Ordering::Relaxed);
        self.budget.used.fetch_add(self.spent, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_until_limit() {
        let b = WorkBudget::with_limit(10);
        assert!(b.charge(6).is_ok());
        assert!(b.charge(4).is_ok());
        assert_eq!(b.remaining(), 0);
        assert!(b.charge(1).is_err());
        assert!(b.exhausted());
        assert_eq!(b.used(), 11);
    }

    #[test]
    fn unlimited_never_times_out() {
        let b = WorkBudget::unlimited();
        assert!(b.charge(u64::MAX / 2).is_ok());
        assert!(!b.exhausted());
    }

    #[test]
    fn tuple_production_counts_twice() {
        let b = WorkBudget::with_limit(100);
        b.produce_tuples(5).unwrap();
        assert_eq!(b.tuples_produced(), 5);
        assert_eq!(b.used(), 5);
    }

    #[test]
    fn try_consume_never_overspends() {
        let b = WorkBudget::with_limit(10);
        assert!(b.try_consume(6));
        assert!(!b.try_consume(5), "6 + 5 exceeds the limit");
        assert_eq!(b.used(), 6, "failed reservation must not be recorded");
        assert!(b.try_consume(4));
        assert!(!b.try_consume(1));
        assert!(!b.exhausted(), "reservations stop at the limit exactly");
    }

    #[test]
    fn refund_returns_reserved_units() {
        let b = WorkBudget::with_limit(10);
        assert!(b.try_consume(8));
        assert!(!b.try_consume(4));
        b.refund(5); // only 3 of the reservation were actually used
        assert_eq!(b.used(), 3);
        assert!(b.try_consume(7));
        b.refund(100); // over-refund saturates at zero
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn try_consume_handles_huge_requests() {
        let b = WorkBudget::unlimited();
        assert!(b.try_consume(u64::MAX - 1));
        assert!(!b.try_consume(2), "checked_add overflow must fail cleanly");
        assert!(b.try_consume(1));
    }

    #[test]
    fn local_counter_stops_and_settles_like_per_unit_charging() {
        // `(units, is a produced tuple)` as the join loop charges them,
        // including a batch that crosses the limit with overage.
        let ops = [
            (1u64, false),
            (1, false),
            (3, false),
            (1, true),
            (1, false),
            (1, true),
        ];
        for limit in 0..10 {
            for already in [0u64, 2] {
                let per_unit = WorkBudget::with_limit(limit);
                let local = WorkBudget::with_limit(limit);
                let _ = per_unit.charge(already);
                let _ = local.charge(already);
                let a = ops.iter().try_for_each(|&(n, tuple)| {
                    if tuple {
                        per_unit.produce_tuples(n)
                    } else {
                        per_unit.charge(n)
                    }
                });
                let b = {
                    let mut w = local.local();
                    ops.iter().try_for_each(|&(n, tuple)| {
                        if tuple {
                            w.produce_tuple()
                        } else {
                            w.charge(n)
                        }
                    })
                };
                assert_eq!(a, b, "limit {limit}, pre-charged {already}");
                assert_eq!(per_unit.used(), local.used(), "limit {limit}");
                assert_eq!(per_unit.tuples_produced(), local.tuples_produced());
            }
        }
    }

    #[test]
    fn local_counter_settles_once_on_drop() {
        let b = WorkBudget::with_limit(100);
        {
            let mut w = b.local();
            w.charge(7).unwrap();
            w.produce_tuple().unwrap();
            assert_eq!(b.used(), 0, "nothing is shared until the counter drops");
        }
        assert_eq!(b.used(), 8);
        assert_eq!(b.tuples_produced(), 1);
    }

    #[test]
    fn concurrent_charging_is_exact() {
        let b = std::sync::Arc::new(WorkBudget::unlimited());
        let mut handles = vec![];
        for _ in 0..4 {
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    b.charge(1).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.used(), 4000);
    }
}
