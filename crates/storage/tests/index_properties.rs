//! Property tests for the hash index: `lookup`, `count` and `next_match` must
//! agree with an ordered-map model (`key → ascending rows`) for every column
//! shape the join can meet and for probe positions below, inside and after
//! each posting range. The "jump" correctness of the multi-way join rests on
//! exactly these properties.

use std::collections::BTreeMap;

use proptest::prelude::*;

use skinner_storage::{Column, HashIndex, RowId};

/// The model: canonical key → rows in ascending order.
fn model_of(col: &Column) -> BTreeMap<u64, Vec<RowId>> {
    let mut m: BTreeMap<u64, Vec<RowId>> = BTreeMap::new();
    for row in 0..col.len() as RowId {
        m.entry(col.key_at(row)).or_default().push(row);
    }
    m
}

fn model_next_match(rows: &[RowId], from: RowId) -> Option<RowId> {
    rows.iter().copied().find(|&r| r >= from)
}

/// Compare the index with the model on every present key and a few absent
/// ones, probing `next_match` all around each posting list.
fn assert_matches_model(col: &Column) {
    let idx = HashIndex::build(col);
    let model = model_of(col);
    let n = col.len() as RowId;
    assert_eq!(idx.num_keys(), model.len());
    let mut covered = 0usize;
    for (&key, rows) in &model {
        assert_eq!(idx.lookup(key), &rows[..], "lookup {key:#x}");
        assert_eq!(idx.count(key), rows.len(), "count {key:#x}");
        covered += rows.len();
        let (first, last) = (rows[0], *rows.last().unwrap());
        let mut froms = vec![0, first.saturating_sub(1), first, last, last + 1, n, n + 7];
        froms.extend(rows.iter().map(|&r| r + 1)); // just past every posting
        for from in froms {
            assert_eq!(
                idx.next_match(key, from),
                model_next_match(rows, from),
                "next_match({key:#x}, {from})"
            );
        }
    }
    assert_eq!(covered, col.len(), "postings must partition the rows");
    // Absent keys: neighbours of present ones, and the zero/max extremes.
    let absent = model
        .keys()
        .flat_map(|&k| [k.wrapping_add(1), k.wrapping_sub(1), !k])
        .chain([0, u64::MAX])
        .filter(|k| !model.contains_key(k));
    for key in absent {
        assert_eq!(idx.lookup(key), &[] as &[RowId]);
        assert_eq!(idx.count(key), 0);
        assert_eq!(idx.next_match(key, 0), None);
    }
}

/// Floats whose equality is subtle: both zeros, two NaN payloads, and
/// ordinary values.
fn tricky_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0f64),
        Just(-0.0f64),
        Just(f64::NAN),
        Just(f64::from_bits(0x7ff8_0000_0000_0001)),
        Just(f64::INFINITY),
        Just(1.5f64),
        Just(-1.5f64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn duplicate_heavy_columns_match_the_model(
        data in proptest::collection::vec(-5i64..5, 0..300),
    ) {
        assert_matches_model(&Column::Int(data));
    }

    #[test]
    fn all_distinct_columns_match_the_model(
        len in 0usize..400,
        stride in 1i64..1000,
        base in -1000i64..1000,
    ) {
        // Distinct keys in a scrambled order: far more keys than the
        // directory starts with, so it grows several times.
        let data: Vec<i64> = (0..len as i64)
            .map(|i| base + ((i * 7919) % len.max(1) as i64) * stride)
            .collect();
        assert_matches_model(&Column::Int(data));
    }

    #[test]
    fn single_key_columns_match_the_model(
        key in -3i64..3,
        len in 0usize..200,
    ) {
        assert_matches_model(&Column::Int(vec![key; len]));
    }

    #[test]
    fn float_columns_group_by_sql_equality(
        data in proptest::collection::vec(tricky_float(), 0..120),
    ) {
        let col = Column::Float(data.clone());
        assert_matches_model(&col);
        // Both zeros share one posting list; a NaN is found under its bits.
        let idx = HashIndex::build(&col);
        let zeros: Vec<RowId> = (0..data.len() as RowId)
            .filter(|&r| data[r as usize] == 0.0)
            .collect();
        prop_assert_eq!(idx.lookup(0.0f64.to_bits()), &zeros[..]);
        prop_assert_eq!(idx.lookup((-0.0f64).to_bits()), &[] as &[RowId]);
        let nans: Vec<RowId> = (0..data.len() as RowId)
            .filter(|&r| data[r as usize].to_bits() == f64::NAN.to_bits())
            .collect();
        prop_assert_eq!(idx.lookup(f64::NAN.to_bits()), &nans[..]);
    }

    #[test]
    fn string_code_columns_match_the_model(
        data in proptest::collection::vec(0u32..6, 0..150),
    ) {
        assert_matches_model(&Column::Str(data));
    }

    #[test]
    fn next_match_equals_linear_scan(
        data in proptest::collection::vec(-5i64..5, 0..200),
        key in -6i64..6,
        from in 0u32..220,
    ) {
        let idx = HashIndex::build(&Column::Int(data.clone()));
        let naive = (from as usize..data.len())
            .find(|&i| data[i] == key)
            .map(|i| i as RowId);
        prop_assert_eq!(idx.next_match(key as u64, from), naive);
    }
}
