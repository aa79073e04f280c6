//! Zone-map scan planning: prove unary predicates false for whole pages.
//!
//! Tables decoded from disk segments carry per-page min/max bounds
//! ([`ZoneMap`]). Before pre-processing evaluates the unary predicates of a
//! table row by row, [`plan_scan`] walks the pages and drops every page on
//! which some predicate is **definitely false** given the bounds. Since
//! work units are this system's cost currency and pre-processing charges
//! one unit per (row, predicate) evaluation, a skipped page is a real
//! saving, not just an iterator trick.
//!
//! The refutation rules are deliberately conservative — a page is skipped
//! only when the bounds *prove* emptiness:
//!
//! - `Cmp` between a column of the scanned table and a literal, with the
//!   usual interval logic (`x = 7` is false on a page with `max < 7`, …).
//! - Float bounds cover the non-NaN rows of a page (NaN rows fail every
//!   comparison themselves; an all-NaN page carries the empty marker
//!   `min > max`, which refutes any comparison). A NaN literal refutes
//!   every comparison outright.
//! - An integer literal against a float column (or vice versa) is pruned
//!   only when the integers involved are exactly representable as `f64`
//!   (|v| ≤ 2⁵³); otherwise the page is scanned.
//! - String bounds are interner-code ranges. Codes are not ordered like
//!   the strings, so only `=` (code outside `[min, max]`) and `<>` (page
//!   constant and equal) prune; `<`/`>` never do.
//! - `AND` refutes when any conjunct refutes, `OR` when every disjunct
//!   refutes. `NOT`, `IN`, `LIKE`, UDFs and anything else never refute.

use skinner_query::expr::{CmpOp, Expr};
use skinner_storage::{RowId, Table, ZoneCol, ZoneMap};

/// Largest integer magnitude exactly representable in `f64`.
const F64_EXACT: i64 = 1 << 53;

/// The page-skip decision for one table's scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanPlan {
    /// Row ranges to evaluate, ascending and non-overlapping. Contiguous
    /// surviving pages are merged.
    pub ranges: Vec<(RowId, RowId)>,
    /// Pages whose rows will be evaluated.
    pub pages_read: u64,
    /// Pages proven empty from the zone map alone.
    pub pages_skipped: u64,
}

impl ScanPlan {
    /// A plan that scans all `n` rows (tables without zone maps).
    pub fn full(n: RowId) -> ScanPlan {
        ScanPlan {
            ranges: if n > 0 { vec![(0, n)] } else { vec![] },
            pages_read: 0,
            pages_skipped: 0,
        }
    }
}

/// Plan the scan of `table` (at query position `t`) under the conjunction
/// `preds`. Tables without a zone map scan everything.
pub fn plan_scan(table: &Table, t: usize, preds: &[Expr]) -> ScanPlan {
    let n = table.cardinality();
    let Some(zones) = table.zones() else {
        return ScanPlan::full(n);
    };
    let mut ranges: Vec<(RowId, RowId)> = Vec::new();
    let mut pages_read = 0u64;
    let mut pages_skipped = 0u64;
    for page in 0..zones.npages() {
        let skip = preds.iter().any(|p| refutes(p, t, zones, page));
        if skip {
            pages_skipped += 1;
            continue;
        }
        pages_read += 1;
        let (lo, hi) = zones.page_range(page);
        let (lo, hi) = (lo as RowId, hi as RowId);
        match ranges.last_mut() {
            Some(last) if last.1 == lo => last.1 = hi,
            _ => ranges.push((lo, hi)),
        }
    }
    ScanPlan {
        ranges,
        pages_read,
        pages_skipped,
    }
}

/// Literal operand of a prunable comparison.
#[derive(Clone, Copy)]
enum Lit {
    I(i64),
    F(f64),
    S(u32),
}

fn as_lit(e: &Expr) -> Option<Lit> {
    match e {
        Expr::LitInt(v) => Some(Lit::I(*v)),
        Expr::LitFloat(v) => Some(Lit::F(*v)),
        Expr::LitStr { code, .. } => Some(Lit::S(*code)),
        _ => None,
    }
}

/// Mirror a comparison so the column is on the left.
fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Neq => op,
    }
}

/// Is `e` definitely false for every row of `page`?
fn refutes(e: &Expr, t: usize, zones: &ZoneMap, page: usize) -> bool {
    match e {
        Expr::And(es) => es.iter().any(|c| refutes(c, t, zones, page)),
        Expr::Or(es) => !es.is_empty() && es.iter().all(|c| refutes(c, t, zones, page)),
        Expr::Cmp { op, left, right } => {
            let (col, op, lit) = match (&**left, &**right) {
                (Expr::Col(c, _), rhs) => match as_lit(rhs) {
                    Some(lit) => (c, *op, lit),
                    None => return false,
                },
                (lhs, Expr::Col(c, _)) => match as_lit(lhs) {
                    Some(lit) => (c, flip(*op), lit),
                    None => return false,
                },
                _ => return false,
            };
            if col.table != t || col.col >= zones.ncols() {
                return false;
            }
            cmp_refutes(zones.col(col.col), page, op, lit)
        }
        _ => false,
    }
}

fn cmp_refutes(zones: &ZoneCol, page: usize, op: CmpOp, lit: Lit) -> bool {
    match (zones, lit) {
        (ZoneCol::Int(z), Lit::I(v)) => {
            let (lo, hi) = z[page];
            interval_refutes(op, lo as i128, hi as i128, v as i128)
        }
        // Int column vs float literal: the engine compares as f64, so the
        // bounds must be exact in f64 before they can prove anything.
        (ZoneCol::Int(z), Lit::F(f)) => {
            let (lo, hi) = z[page];
            if lo.abs() > F64_EXACT || hi.abs() > F64_EXACT {
                return false;
            }
            float_refutes(op, lo as f64, hi as f64, f)
        }
        (ZoneCol::Float(z), Lit::F(f)) => {
            let (lo, hi) = z[page];
            float_refutes(op, lo, hi, f)
        }
        (ZoneCol::Float(z), Lit::I(v)) => {
            if v.abs() > F64_EXACT {
                return false;
            }
            let (lo, hi) = z[page];
            float_refutes(op, lo, hi, v as f64)
        }
        // Interner codes are unordered w.r.t. the strings: equality only.
        (ZoneCol::Str(z), Lit::S(code)) => {
            let (lo, hi) = z[page];
            match op {
                CmpOp::Eq => code < lo || code > hi,
                CmpOp::Neq => lo == hi && lo == code,
                _ => false,
            }
        }
        // Type mismatch the planner didn't fold away: don't prune.
        _ => false,
    }
}

/// Interval refutation over a totally ordered domain (exact integers).
fn interval_refutes(op: CmpOp, lo: i128, hi: i128, v: i128) -> bool {
    match op {
        CmpOp::Eq => v < lo || v > hi,
        CmpOp::Neq => lo == hi && lo == v,
        CmpOp::Lt => lo >= v,
        CmpOp::Le => lo > v,
        CmpOp::Gt => hi <= v,
        CmpOp::Ge => hi < v,
    }
}

/// Float refutation. `lo > hi` is the all-NaN/empty page marker: every
/// comparison is false on such a page. A NaN literal fails every
/// comparison on any page.
fn float_refutes(op: CmpOp, lo: f64, hi: f64, v: f64) -> bool {
    if v.is_nan() || lo > hi {
        return true;
    }
    match op {
        CmpOp::Eq => v < lo || v > hi,
        CmpOp::Neq => lo == hi && lo == v,
        CmpOp::Lt => lo >= v,
        CmpOp::Le => lo > v,
        CmpOp::Gt => hi <= v,
        CmpOp::Ge => hi < v,
    }
}

/// Split `ranges` into `parts` contiguous chunks of near-equal row count,
/// preserving order — concatenating the per-chunk outputs reproduces the
/// serial scan order exactly, which is what keeps parallel pre-processing
/// bit-identical to serial.
pub fn split_ranges(ranges: &[(RowId, RowId)], parts: usize) -> Vec<Vec<(RowId, RowId)>> {
    let total: usize = ranges.iter().map(|&(lo, hi)| (hi - lo) as usize).sum();
    let parts = parts.max(1);
    let chunk = total.div_ceil(parts).max(1);
    let mut out: Vec<Vec<(RowId, RowId)>> = vec![Vec::new(); parts];
    let mut part = 0usize;
    let mut filled = 0usize;
    for &(mut lo, hi) in ranges {
        while lo < hi {
            if part + 1 < parts && filled == chunk {
                part += 1;
                filled = 0;
            }
            let room = if part + 1 < parts {
                chunk - filled
            } else {
                usize::MAX
            };
            let take = ((hi - lo) as usize).min(room) as RowId;
            out[part].push((lo, lo + take));
            filled += take as usize;
            lo += take;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_query::expr::ColRef;
    use skinner_storage::{schema, Column, DataType, Interner};
    use std::sync::Arc;

    fn zoned_table(page_rows: usize) -> Table {
        // id: 0..40 ascending; v: id/2 as float; tag: "low" for id<20,
        // "high" after.
        let interner = Arc::new(Interner::new());
        let low = interner.intern("low");
        let high = interner.intern("high");
        let ids: Vec<i64> = (0..40).collect();
        let vs: Vec<f64> = (0..40).map(|i| i as f64 / 2.0).collect();
        let tags: Vec<u32> = (0..40).map(|i| if i < 20 { low } else { high }).collect();
        let columns = vec![Column::Int(ids), Column::Float(vs), Column::Str(tags)];
        let zones = Arc::new(ZoneMap::build(&columns, 40, page_rows));
        Table::from_columns(
            "t",
            schema![("id", Int), ("v", Float), ("tag", Str)],
            columns,
            interner,
        )
        .with_zones(zones)
    }

    fn col(c: usize, dt: DataType) -> Expr {
        Expr::Col(ColRef { table: 0, col: c }, dt)
    }

    fn cmp(op: CmpOp, l: Expr, r: Expr) -> Expr {
        Expr::Cmp {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    #[test]
    fn selective_int_predicate_skips_pages() {
        let t = zoned_table(10); // pages [0,10) [10,20) [20,30) [30,40)
        let p = cmp(CmpOp::Lt, col(0, DataType::Int), Expr::LitInt(12));
        let plan = plan_scan(&t, 0, &[p]);
        assert_eq!(plan.ranges, vec![(0, 20)]);
        assert_eq!(plan.pages_read, 2);
        assert_eq!(plan.pages_skipped, 2);
        // Mirrored literal-on-the-left form prunes identically.
        let p = cmp(CmpOp::Gt, Expr::LitInt(12), col(0, DataType::Int));
        assert_eq!(plan_scan(&t, 0, &[p]), plan);
    }

    #[test]
    fn equality_hits_one_page() {
        let t = zoned_table(10);
        let p = cmp(CmpOp::Eq, col(0, DataType::Int), Expr::LitInt(25));
        let plan = plan_scan(&t, 0, &[p]);
        assert_eq!(plan.ranges, vec![(20, 30)]);
        assert_eq!(plan.pages_skipped, 3);
    }

    #[test]
    fn string_equality_prunes_by_code_range() {
        let t = zoned_table(10);
        let code = t.interner().lookup("high").unwrap();
        let p = cmp(
            CmpOp::Eq,
            col(2, DataType::Str),
            Expr::LitStr {
                code,
                text: Arc::from("high"),
            },
        );
        let plan = plan_scan(&t, 0, &[p]);
        assert_eq!(plan.ranges, vec![(20, 40)]);
        // Ordering comparisons on strings never prune (codes unordered).
        let p = cmp(
            CmpOp::Lt,
            col(2, DataType::Str),
            Expr::LitStr {
                code,
                text: Arc::from("high"),
            },
        );
        assert_eq!(plan_scan(&t, 0, &[p]).pages_skipped, 0);
    }

    #[test]
    fn and_or_composition() {
        let t = zoned_table(10);
        let lt5 = cmp(CmpOp::Lt, col(0, DataType::Int), Expr::LitInt(5));
        let gt35 = cmp(CmpOp::Gt, col(0, DataType::Int), Expr::LitInt(35));
        // OR refutes only where both sides refute: pages 1 and 2.
        let either = Expr::Or(vec![lt5.clone(), gt35.clone()]);
        let plan = plan_scan(&t, 0, &[either]);
        assert_eq!(plan.ranges, vec![(0, 10), (30, 40)]);
        // AND refutes where either side refutes: everything (disjoint).
        let both = Expr::And(vec![lt5, gt35]);
        let plan = plan_scan(&t, 0, &[both]);
        assert!(plan.ranges.is_empty());
        assert_eq!(plan.pages_skipped, 4);
    }

    #[test]
    fn float_pruning_with_int_literal() {
        let t = zoned_table(10); // v spans [0, 19.5]
        let p = cmp(CmpOp::Ge, col(1, DataType::Float), Expr::LitInt(15));
        let plan = plan_scan(&t, 0, &[p]);
        assert_eq!(plan.ranges, vec![(30, 40)]);
    }

    #[test]
    fn nan_pages_and_nan_literals() {
        // A column with an all-NaN page: the empty marker refutes anything.
        let interner = Arc::new(Interner::new());
        let mut v: Vec<f64> = (0..4).map(f64::from).collect();
        v.extend([f64::NAN; 4]);
        let columns = vec![Column::Float(v)];
        let zones = Arc::new(ZoneMap::build(&columns, 8, 4));
        let t =
            Table::from_columns("t", schema![("v", Float)], columns, interner).with_zones(zones);
        let p = cmp(CmpOp::Ge, col(0, DataType::Float), Expr::LitFloat(0.0));
        let plan = plan_scan(&t, 0, &[p]);
        assert_eq!(plan.ranges, vec![(0, 4)], "all-NaN page skipped soundly");
        // NaN literal: nothing can ever match; every page refuted.
        let p = cmp(CmpOp::Eq, col(0, DataType::Float), Expr::LitFloat(f64::NAN));
        assert!(plan_scan(&t, 0, &[p]).ranges.is_empty());
    }

    #[test]
    fn unprunable_shapes_scan_everything() {
        let t = zoned_table(10);
        // NOT, and a column-column comparison: no pruning.
        let p = Expr::Not(Box::new(cmp(
            CmpOp::Lt,
            col(0, DataType::Int),
            Expr::LitInt(5),
        )));
        assert_eq!(plan_scan(&t, 0, &[p]).pages_skipped, 0);
        let p = cmp(CmpOp::Eq, col(0, DataType::Int), col(1, DataType::Float));
        assert_eq!(plan_scan(&t, 0, &[p]).pages_skipped, 0);
        // Huge ints near the f64-exactness cliff don't prune float columns.
        let p = cmp(
            CmpOp::Gt,
            col(1, DataType::Float),
            Expr::LitInt(F64_EXACT + 1),
        );
        assert_eq!(plan_scan(&t, 0, &[p]).pages_skipped, 0);
    }

    #[test]
    fn tables_without_zones_scan_fully() {
        let interner = Arc::new(Interner::new());
        let t = Table::from_columns(
            "m",
            schema![("x", Int)],
            vec![Column::Int((0..5).collect())],
            interner,
        );
        let p = cmp(CmpOp::Lt, col(0, DataType::Int), Expr::LitInt(-10));
        let plan = plan_scan(&t, 0, &[p]);
        assert_eq!(plan.ranges, vec![(0, 5)]);
        assert_eq!(plan.pages_read + plan.pages_skipped, 0);
    }

    #[test]
    fn split_ranges_preserves_order_and_rows() {
        let ranges = vec![(0u32, 10u32), (20, 25), (40, 60)];
        for parts in 1..=6 {
            let split = split_ranges(&ranges, parts);
            assert_eq!(split.len(), parts);
            let rows: Vec<RowId> = split
                .iter()
                .flatten()
                .flat_map(|&(lo, hi)| lo..hi)
                .collect();
            let expect: Vec<RowId> = ranges.iter().flat_map(|&(lo, hi)| lo..hi).collect();
            assert_eq!(rows, expect, "parts = {parts}");
        }
    }
}
