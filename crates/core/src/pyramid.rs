//! The pyramid timeout scheme (paper Algorithm 1, Figure 3).
//!
//! Skinner-G cannot know the optimal per-batch timeout in advance; picking
//! too low means no batch ever completes, too high wastes time on bad join
//! orders. The scheme iterates over timeout *levels* with timeouts `2^L`,
//! always choosing the highest level whose accumulated time would not exceed
//! the time already given to every lower level. The paper proves the two
//! properties this module's tests check:
//!
//! * Lemma 5.4 — at most `log₂(n)` levels are ever used, and
//! * Lemma 5.5 — accumulated time per level never differs by more than 2×.

/// Timeout-level allocator.
#[derive(Debug, Default, Clone)]
pub struct PyramidScheme {
    /// `n[l]` = total time units allocated to level `l` so far.
    allocated: Vec<u64>,
}

impl PyramidScheme {
    pub fn new() -> Self {
        Self::default()
    }

    /// Choose the timeout level for the next iteration and account for it.
    /// Returns `(level, timeout)` with `timeout = 2^level` (in atomic time
    /// units; the caller scales to work units).
    pub fn next_timeout(&mut self) -> (usize, u64) {
        // L ← max{L | ∀l<L : n_l ≥ n_L + 2^L}, allowing one new level at the
        // end of the vector (its n_L is implicitly 0).
        let mut level = 0;
        for cand in 1..=self.allocated.len() {
            let t = 1u64 << cand;
            let n_cand = self.allocated.get(cand).copied().unwrap_or(0);
            if (0..cand).all(|l| self.allocated[l] >= n_cand + t) {
                level = cand;
            }
        }
        let timeout = 1u64 << level;
        if level == self.allocated.len() {
            self.allocated.push(0);
        }
        if self.allocated.is_empty() {
            self.allocated.push(0);
        }
        self.allocated[level] += timeout;
        (level, timeout)
    }

    /// Number of levels used so far.
    pub fn num_levels(&self) -> usize {
        self.allocated.len()
    }

    /// Time units allocated to `level`.
    pub fn allocated_to(&self, level: usize) -> u64 {
        self.allocated.get(level).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_iterations_follow_algorithm_1() {
        // Hand-simulated from Algorithm 1's rule
        // L ← max{L | ∀l<L : n_l ≥ n_L + 2^L}: levels 0,0 then the first
        // level-1 slot, level 2 appears at iteration 7 (cf. Figure 3).
        let mut p = PyramidScheme::new();
        let levels: Vec<usize> = (0..11).map(|_| p.next_timeout().0).collect();
        assert_eq!(levels, vec![0, 0, 1, 0, 0, 1, 2, 0, 0, 1, 0]);
    }

    #[test]
    fn lemma_5_4_level_count_is_logarithmic() {
        let mut p = PyramidScheme::new();
        let mut total = 0u64;
        for _ in 0..10_000 {
            total += p.next_timeout().1;
        }
        let bound = (total as f64).log2().ceil() as usize + 1;
        assert!(
            p.num_levels() <= bound,
            "{} levels for total {total}",
            p.num_levels()
        );
    }

    #[test]
    fn lemma_5_5_allocation_within_factor_two() {
        let mut p = PyramidScheme::new();
        for step in 0..5_000 {
            p.next_timeout();
            // Invariant: for all used levels l1, l2 with nonzero allocation,
            // n_l1 ≤ 2 · n_l2.
            let used: Vec<u64> = (0..p.num_levels())
                .map(|l| p.allocated_to(l))
                .filter(|&n| n > 0)
                .collect();
            let max = used.iter().copied().max().unwrap();
            let min = used.iter().copied().min().unwrap();
            assert!(
                max <= 2 * min,
                "imbalance at step {step}: max {max} min {min}"
            );
        }
    }

    #[test]
    fn timeouts_are_powers_of_two() {
        let mut p = PyramidScheme::new();
        for _ in 0..500 {
            let (level, timeout) = p.next_timeout();
            assert_eq!(timeout, 1u64 << level);
        }
    }
}
