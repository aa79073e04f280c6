//! The engine's one key hash: a golden-ratio fold over canonical `u64`
//! keys (`Column::key_at`, `float_key`, interner codes).
//!
//! Both open-addressing tables that key on column values use it — the
//! join index's hash directory ([`crate::HashIndex`]) and the grouping
//! table of post-processing — and both keep the *top* bits of the result
//! as the home slot. The multiplier is ⌊2⁶⁴/φ⌋: the golden ratio has the
//! worst rational approximations of any irrational, so keys in arithmetic
//! progression (consecutive ids, order keys, fixed strides, float bit
//! patterns of evenly spaced values) land evenly over the top bits
//! (Knuth's Fibonacci hashing). The Fx multiplier `0x517c_c1b7_2722_0a95`
//! (≈ 2⁶⁴/π) does not: 113/355 approximates 1/π so closely that a run of
//! consecutive integers fills about 355 contiguous lanes of a
//! linear-probing table, and 15 000 consecutive keys in 2¹⁵ slots cost
//! about 15 probes per insert instead of one.
//!
//! Keys are column *values*, so crafted data can still collide; tables
//! using this hash must stay correct (if slower) when it does.

/// ⌊2⁶⁴/φ⌋, odd.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fold `keys` into one hash: from 0, `h = (h.rotl(5) ^ k) · GOLDEN`.
/// A single key hashes to `key · GOLDEN`, so a one-column table is plain
/// Fibonacci hashing. Callers take the top bits.
#[inline]
pub fn fold_keys(keys: impl IntoIterator<Item = u64>) -> u64 {
    keys.into_iter()
        .fold(0, |h: u64, k| (h.rotate_left(5) ^ k).wrapping_mul(GOLDEN))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_key_is_fibonacci_hashing() {
        for key in [0, 1, 42, u64::MAX, 1 << 63, 0x1234_5678_9abc_def0] {
            assert_eq!(fold_keys([key]), key.wrapping_mul(GOLDEN));
        }
        assert_eq!(fold_keys([]), 0);
    }
}
