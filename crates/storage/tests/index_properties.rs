//! Property tests for the join index: `lookup`, `count` and `next_match` must
//! agree with an ordered-map model (`key → ascending rows`) for every column
//! shape the join can meet and for probe positions below, inside and after
//! each posting range — under both directory kinds, and with the kind (read
//! off `byte_size`) following the span rule. A `PostingCursor` must answer
//! every seek of a sequence as `next_match` would from the furthest position
//! sought so far. The "jump" correctness of the multi-way join rests on
//! exactly these properties.

use std::collections::BTreeMap;

use proptest::prelude::*;

use skinner_storage::index::DIRECT_SPAN_PER_ROW;
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

/// Which directory the rule picks for a column with this model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Direct,
    Hash,
}

/// The rule, restated over the model: direct addressing iff the span of
/// the keys, taken in signed-integer order, is below
/// `DIRECT_SPAN_PER_ROW` × rows. Returns the kind and the index's size
/// under it: four bytes per address (plus the closing one) or sixteen per
/// slot of a directory at most half full, plus four per posting.
fn model_kind_and_bytes(model: &BTreeMap<u64, Vec<RowId>>, rows: usize) -> (Kind, usize) {
    let ordered = || model.keys().map(|&k| k ^ (1 << 63));
    let span = ordered().max().unwrap_or(0) - ordered().min().unwrap_or(0);
    let postings = rows * 4;
    if rows == 0 {
        (Kind::Direct, 4)
    } else if span < DIRECT_SPAN_PER_ROW * rows as u64 {
        (Kind::Direct, (span as usize + 2) * 4 + postings)
    } else {
        let slots = (model.len() * 2).next_power_of_two().max(8);
        (Kind::Hash, slots * 16 + postings)
    }
}

/// Compare the index with the model on every present key and a few absent
/// ones, probing `next_match` all around each posting list. Returns the
/// directory kind the column got.
fn assert_matches_model(col: &Column) -> Kind {
    let idx = HashIndex::build(col);
    let model = model_of(col);
    let n = col.len() as RowId;
    assert_eq!(idx.num_keys(), model.len());
    let (kind, bytes) = model_kind_and_bytes(&model, col.len());
    assert_eq!(idx.byte_size(), bytes, "expected a {kind:?} directory");
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
    // Absent keys: neighbours of present ones (so just outside a direct
    // directory's span at both ends), and the extremes of both key orders.
    let absent = model
        .keys()
        .flat_map(|&k| [k.wrapping_add(1), k.wrapping_sub(1), !k])
        .chain([0, u64::MAX, i64::MIN as u64, i64::MAX as u64])
        .filter(|k| !model.contains_key(k));
    for key in absent {
        assert_eq!(idx.lookup(key), &[] as &[RowId]);
        assert_eq!(idx.count(key), 0);
        assert_eq!(idx.next_match(key, 0), None);
    }
    kind
}

#[test]
fn integer_extremes_in_one_column_fall_to_the_hash_directory() {
    // Span `u64::MAX`: must neither overflow nor be allocated from.
    let col = Column::Int(vec![i64::MAX, 0, i64::MIN, -1, i64::MAX, i64::MIN]);
    assert_eq!(assert_matches_model(&col), Kind::Hash);
    // One extreme alone is a span of zero.
    assert_eq!(
        assert_matches_model(&Column::Int(vec![i64::MIN; 3])),
        Kind::Direct
    );
    assert_eq!(
        assert_matches_model(&Column::Int(vec![i64::MAX; 3])),
        Kind::Direct
    );
    // Sparse string codes, up to the largest.
    let codes = Column::Str(vec![u32::MAX, 0, 7, u32::MAX]);
    assert_eq!(assert_matches_model(&codes), Kind::Hash);
}

#[test]
fn empty_column_is_direct_and_answers_nothing() {
    for col in [
        Column::Int(vec![]),
        Column::Float(vec![]),
        Column::Str(vec![]),
    ] {
        assert_eq!(assert_matches_model(&col), Kind::Direct);
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

// The nightly workflow (.github/workflows/nightly.yml) runs this block with
// PROPTEST_CASES at ten times `cases`: change both together.
proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn duplicate_heavy_columns_match_the_model(
        data in proptest::collection::vec(-5i64..5, 0..300),
    ) {
        // Dense keys around zero: direct-addressed as soon as there are a
        // few rows, negative keys included.
        let rows = data.len();
        let kind = assert_matches_model(&Column::Int(data));
        prop_assert!(rows < 3 || kind == Kind::Direct);
    }

    #[test]
    fn the_span_threshold_separates_the_directory_kinds(
        rows in 1usize..200,
        base in -1000i64..1000,
        fill in proptest::collection::vec(0u64..1_000_000, 0..200),
    ) {
        // `rows` keys between `base` and `base + span`, both ends present.
        let column = |span: u64| {
            let mut data = vec![base; rows];
            for (slot, f) in data.iter_mut().skip(1).zip(&fill) {
                *slot = base + (f % (span + 1)) as i64;
            }
            if rows > 1 {
                data[rows - 1] = base + span as i64;
            }
            Column::Int(data)
        };
        let limit = DIRECT_SPAN_PER_ROW * rows as u64;
        // The widest span still direct-addressed…
        let widest = if rows > 1 { limit - 1 } else { 0 };
        prop_assert_eq!(assert_matches_model(&column(widest)), Kind::Direct);
        // …and, one wider, the narrowest one hashed.
        if rows > 1 {
            prop_assert_eq!(assert_matches_model(&column(limit)), Kind::Hash);
        }
    }

    #[test]
    fn all_distinct_columns_match_the_model(
        len in 0usize..400,
        stride in 1i64..1000,
        base in -1000i64..1000,
    ) {
        // Keys `base + j * stride` for every `j < len`, in a scrambled
        // order (7919 is prime): dense for small strides, and from stride
        // 5 on sparse with far more keys than the hash directory starts
        // with, so it grows several times.
        let data: Vec<i64> = (0..len as i64)
            .map(|i| base + ((i * 7919) % len.max(1) as i64) * stride)
            .collect();
        let kind = assert_matches_model(&Column::Int(data));
        let dense = (len as i64 - 1) * stride < DIRECT_SPAN_PER_ROW as i64 * len as i64;
        prop_assert_eq!(kind == Kind::Direct, len == 0 || dense);
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

    #[test]
    fn cursor_seeks_answer_next_match_at_their_high_water_mark(
        data in proptest::collection::vec(0i64..6, 0..250),
        stride in prop_oneof![Just(1i64), Just(1i64 << 20)],
        key in 0i64..7,
        moves in proptest::collection::vec((0u32..4, 0u32..40), 0..40),
    ) {
        // Stride 1 keeps the keys dense (direct-addressed), 2^20 spreads
        // them into the hash directory; key 6 is never present.
        let col = Column::Int(data.iter().map(|&k| k * stride).collect());
        let key = (key * stride) as u64;
        let idx = HashIndex::build(&col);
        let rows = model_of(&col).remove(&key).unwrap_or_default();
        let n = data.len() as RowId;
        let mut cursor = idx.cursor(key);
        // Mostly forward, as the join seeks; now and then backwards
        // (the cursor must not move back) or past the last row.
        let (mut from, mut high) = (0u32, 0u32);
        for (kind, by) in moves {
            from = match kind {
                0 | 1 => from + by,
                2 => from.saturating_sub(by),
                _ => n + by,
            };
            high = high.max(from);
            prop_assert_eq!(cursor.seek(&idx, from), model_next_match(&rows, high));
        }
    }
}
