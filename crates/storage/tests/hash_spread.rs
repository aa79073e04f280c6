//! Spread of the engine's key hash over the key shapes statements join
//! and group by.
//!
//! Both tables that use `fold_keys` are linear-probing tables at most half
//! full that keep the hash's top bits. This test models exactly that over
//! a bitmap — no engine table involved — and demands fewer than two
//! probes per insert on average for every shape. A multiplier close to a
//! simple fraction fails it: the Fx multiplier (≈ 2⁶⁴/π, and 113/355 ≈
//! 1/π) averages about 11 probes on consecutive integers and about 3 700
//! on integers in steps of 355.

use skinner_storage::hash::fold_keys;

/// Insert every key (a group key: one `u64` per column) into a
/// linear-probing table of the smallest power-of-two size that keeps the
/// load at or below one half, home slot = the top bits of the hash.
/// Returns the mean number of slots inspected per insert (1 = the home
/// slot was free).
fn mean_probes(keys: &[Vec<u64>]) -> f64 {
    let slots = (keys.len() * 2).next_power_of_two();
    let shift = 64 - slots.trailing_zeros();
    let mut used = vec![false; slots];
    let mut probes = 0usize;
    for key in keys {
        let mut i = (fold_keys(key.iter().copied()) >> shift) as usize;
        probes += 1;
        while used[i] {
            i = (i + 1) & (slots - 1);
            probes += 1;
        }
        used[i] = true;
    }
    probes as f64 / keys.len() as f64
}

/// Canonical key of an `Int` cell (`Column::key_at`).
fn int(i: i64) -> u64 {
    i as u64
}

/// Canonical key of a non-zero `Float` cell.
fn float(f: f64) -> u64 {
    f.to_bits()
}

const N: i64 = 20_000;

fn assert_spread(shape: &str, keys: impl Iterator<Item = Vec<u64>>) {
    let keys: Vec<Vec<u64>> = keys.collect();
    let mean = mean_probes(&keys);
    assert!(
        mean < 2.0,
        "{shape}: {mean:.2} probes per insert over {} keys",
        keys.len()
    );
}

#[test]
fn consecutive_integers() {
    assert_spread("0..20000", (0..N).map(|i| vec![int(i)]));
    // TPC-H 0.01 `lineitem` grouped by `l_orderkey`: 15 000 keys in 2¹⁵
    // slots, load 0.46.
    assert_spread("0..15000", (0..15_000).map(|i| vec![int(i)]));
    assert_spread("negative", (0..N).map(|i| vec![int(-i)]));
}

#[test]
fn strided_integers() {
    for stride in [355, 1_000, 1 << 20, 1 << 32] {
        assert_spread(
            &format!("stride {stride}"),
            (0..N).map(|i| vec![int(i * stride)]),
        );
    }
}

#[test]
fn float_bit_patterns() {
    assert_spread("i as f64", (0..N).map(|i| vec![float(i as f64)]));
    assert_spread("i / 100", (0..N).map(|i| vec![float(i as f64 / 100.0)]));
}

#[test]
fn two_column_keys() {
    assert_spread("(i, i % 7)", (0..N).map(|i| vec![int(i), int(i % 7)]));
    assert_spread(
        "(i / 100, i % 100)",
        (0..N).map(|i| vec![int(i / 100), int(i % 100)]),
    );
}
