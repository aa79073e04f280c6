//! Property tests for the paged segment format: random data of every
//! column type must round-trip through page encode/decode bit-identically,
//! and the zone maps attached at segment open must actually bound every
//! page's values (an unsound bound would silently drop result rows once
//! the scan planner starts pruning).

use std::sync::Arc;

use proptest::prelude::*;

use skinner_storage::disk::page::{decode_codes, decode_float, decode_int, encode_page, PageData};
use skinner_storage::disk::segment::{read_segment, SegmentWriter};
use skinner_storage::disk::DiskError;
use skinner_storage::disk::ZoneCol;
use skinner_storage::{schema, Column, Interner, Value};

/// A page decoder: `decode_int`, `decode_float` or `decode_codes`.
type Decode<T> = fn(&[u8], usize, &mut Vec<T>) -> Result<(), DiskError>;

/// Decode one page into a new vector.
fn decoded<T>(decode: Decode<T>, bytes: &[u8], rows: usize) -> Result<Vec<T>, DiskError> {
    let mut out = Vec::new();
    decode(bytes, rows, &mut out).map(|()| out)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..Default::default() })]

    #[test]
    fn int_pages_roundtrip(vals in proptest::collection::vec(any::<i64>(), 1..300)) {
        let mut buf = Vec::new();
        encode_page(&PageData::Int(vals.clone()), &mut buf);
        prop_assert_eq!(decoded(decode_int, &buf, vals.len()).unwrap(), vals);
    }

    #[test]
    fn narrow_int_pages_roundtrip_compactly(
        base in -1000i64..1000,
        deltas in proptest::collection::vec(0i64..200, 1..300),
    ) {
        // Frame-of-reference territory: values in a narrow band must
        // round-trip AND beat raw encoding in size.
        let vals: Vec<i64> = deltas.iter().map(|d| base + d).collect();
        let mut buf = Vec::new();
        encode_page(&PageData::Int(vals.clone()), &mut buf);
        prop_assert_eq!(decoded(decode_int, &buf, vals.len()).unwrap(), vals.clone());
        if vals.len() >= 16 {
            prop_assert!(buf.len() < vals.len() * 8);
        }
    }

    #[test]
    fn float_pages_roundtrip_bit_exactly(bits in proptest::collection::vec(any::<u64>(), 1..300)) {
        // Arbitrary bit patterns: NaNs (any payload), infinities, -0.0,
        // subnormals. The page codec must preserve them all exactly.
        let vals: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let mut buf = Vec::new();
        encode_page(&PageData::Float(vals.clone()), &mut buf);
        let back = decoded(decode_float, &buf, vals.len()).unwrap();
        let got: Vec<u64> = back.iter().map(|f| f.to_bits()).collect();
        prop_assert_eq!(got, bits);
    }

    #[test]
    fn code_pages_roundtrip(vals in proptest::collection::vec(any::<u32>(), 1..300)) {
        let mut buf = Vec::new();
        encode_page(&PageData::Codes(vals.clone()), &mut buf);
        prop_assert_eq!(decoded(decode_codes, &buf, vals.len()).unwrap(), vals);
    }
}

/// One random row of the three-column (Int, Float, Str) test schema.
type Row = (i64, u64, u8);

fn rows_strategy() -> impl proptest::strategy::Strategy<Value = Vec<Row>> {
    proptest::collection::vec((any::<i64>(), any::<u64>(), 0u8..6), 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..Default::default() })]

    #[test]
    fn segments_roundtrip_every_value_type(rows in rows_strategy(), page_rows in 1usize..40) {
        let dir = std::env::temp_dir()
            .join(format!("skinner_prop_seg_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("p{page_rows}_{}.seg", rows.len()));
        let sch = schema![("a", Int), ("b", Float), ("c", Str)];
        let mut w = SegmentWriter::create(&path, sch, page_rows).unwrap();
        for &(a, b, c) in &rows {
            w.push_row(&[
                Value::Int(a),
                Value::Float(f64::from_bits(b)),
                Value::from(format!("s{c}").as_str()),
            ])
            .unwrap();
        }
        w.finish().unwrap();

        let interner = Arc::new(Interner::new());
        let opened = read_segment(&path, "t", &interner).unwrap();
        let t = &opened.table;
        prop_assert_eq!(t.num_rows(), rows.len());
        for (r, &(a, b, c)) in rows.iter().enumerate() {
            let r = r as skinner_storage::RowId;
            prop_assert_eq!(t.value(r, 0), Value::Int(a));
            match t.value(r, 1) {
                Value::Float(f) => prop_assert_eq!(f.to_bits(), b),
                other => prop_assert!(false, "expected float, got {:?}", other),
            }
            prop_assert_eq!(t.value(r, 2).as_str(), Some(format!("s{c}").as_str()));
        }

        // Zone-map soundness: every page's bounds must contain every value
        // in that page (non-NaN for floats; the (∞, -∞) marker is only
        // legal when the page holds no comparable value at all).
        let zones = t.zones().expect("opened segments carry zone maps");
        prop_assert_eq!(zones.nrows(), rows.len());
        for page in 0..zones.npages() {
            let (lo_row, hi_row) = zones.page_range(page);
            match (zones.col(0), t.column(0)) {
                (ZoneCol::Int(b), Column::Int(vals)) => {
                    let (lo, hi) = b[page];
                    for &v in &vals[lo_row..hi_row] {
                        prop_assert!(lo <= v && v <= hi);
                    }
                }
                _ => prop_assert!(false, "col 0 zone/column type mismatch"),
            }
            match (zones.col(1), t.column(1)) {
                (ZoneCol::Float(b), Column::Float(vals)) => {
                    let (lo, hi) = b[page];
                    let mut comparable = 0usize;
                    for &v in &vals[lo_row..hi_row] {
                        if !v.is_nan() {
                            comparable += 1;
                            prop_assert!(lo <= v && v <= hi);
                        }
                    }
                    if comparable == 0 {
                        prop_assert!(lo > hi, "all-NaN page must keep the empty marker");
                    }
                }
                _ => prop_assert!(false, "col 1 zone/column type mismatch"),
            }
            match (zones.col(2), t.column(2)) {
                (ZoneCol::Str(b), Column::Str(codes)) => {
                    let (lo, hi) = b[page];
                    for &v in &codes[lo_row..hi_row] {
                        prop_assert!(lo <= v && v <= hi);
                    }
                }
                _ => prop_assert!(false, "col 2 zone/column type mismatch"),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}
