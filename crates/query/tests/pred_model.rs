//! Differential test of lowered predicates: for random predicate trees over
//! edge-case data, [`Pred::eval`] must return exactly what the tree-walking
//! [`Expr::eval_bool`] (the oracle) returns at every tuple, and call every
//! UDF exactly as often, in the same order, on the same arguments: the same
//! variant (an int column arrives as `Value::Int`, never widened) and the
//! same bits. Each UDF counts its own calls and logs its argument lists.
//!
//! Trees mix every typed arm `Pred` has and several it falls back on: int,
//! float and mixed comparisons (int arithmetic evaluated in float context),
//! string `=`/`<>` and ordering, nested `AND`/`OR`/`NOT`, `IN` over each
//! type, `LIKE` and `IN` over string columns, literals and string-valued
//! UDFs, integer arithmetic with `/0`, `%0`, `i64::MIN / -1` and
//! `-i64::MIN`, and UDFs of arity 0–5 returning ints, floats, strings
//! (some never interned) — and, declared `Int`, floats and strings, and,
//! declared `Str`, ints and floats. A third of the call sites take bare int
//! and float columns only, the shape lowered to a column call at arity 1–4.
//! Data holds NaN, ±0.0, ±inf, `i64::MIN`/`MAX` and empty strings.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use skinner_query::expr::{like_match, ArithOp, CmpOp, ColRef, EvalCtx, Expr, UdfHandle};
use skinner_query::{Pred, UdfId, UdfRegistry};
use skinner_storage::{schema, Catalog, DataType, Table, Value};

const INTS: [i64; 9] = [0, 1, -1, 2, 7, -7, 100, i64::MIN, i64::MAX];
const FLOATS: [f64; 10] = [
    0.0,
    -0.0,
    1.5,
    -2.25,
    7.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e300,
    -1.0,
];
const STRS: [&str; 6] = ["", "a", "ab", "abc", "b", "B%_"];
const PATTERNS: [&str; 7] = ["", "%", "a%", "%b", "_", "a_c", "%\\%%"];
/// Columns per table: (position, type); each table has all of them.
const COLS: [(usize, DataType); 4] = [
    (0, DataType::Int),
    (1, DataType::Int),
    (2, DataType::Float),
    (3, DataType::Str),
];
const ROWS: [usize; 2] = [7, 5];

/// SplitMix64, seeded per case by the proptest runner.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

/// A registered UDF with its declared return type, arity and the counter
/// its function bumps on every call.
struct Udf {
    id: UdfId,
    name: String,
    ret: DataType,
    arity: usize,
    calls: Arc<AtomicU64>,
}

/// One argument as a UDF saw it: its variant and its bits.
#[derive(Debug, Clone, PartialEq)]
enum Seen {
    Int(i64),
    Float(u64),
    Str(Arc<str>),
}

impl Seen {
    fn of(v: &Value) -> Seen {
        match v {
            Value::Int(i) => Seen::Int(*i),
            Value::Float(f) => Seen::Float(f.to_bits()),
            Value::Str(s) => Seen::Str(s.clone()),
        }
    }
}

/// Every UDF call in order: the index of the UDF in `World::funcs` and the
/// arguments it got.
type CallLog = Arc<Mutex<Vec<(usize, Vec<Seen>)>>>;

struct World {
    catalog: Catalog,
    tables: Vec<Arc<Table>>,
    udfs: UdfRegistry,
    funcs: Vec<Udf>,
    log: CallLog,
}

/// Deterministic digest of UDF arguments.
fn digest(args: &[Value]) -> u64 {
    args.iter().fold(0x5EED, |h, v| {
        let x = match v {
            Value::Int(i) => *i as u64,
            Value::Float(f) => f.to_bits() ^ 0xF10A7,
            Value::Str(s) => s.bytes().fold(s.len() as u64, |a, b| a * 31 + b as u64),
        };
        (h.rotate_left(7) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    })
}

fn world() -> World {
    let catalog = Catalog::new();
    let mut g = Gen(0xDA7A);
    let mut tables = Vec::new();
    for (t, &rows) in ROWS.iter().enumerate() {
        let mut b = catalog.builder(
            format!("t{t}"),
            schema![("i", Int), ("j", Int), ("f", Float), ("s", Str)],
        );
        for r in 0..rows {
            // Row 0 pins the extremes; the rest are drawn from the pools.
            let (i, j, f) = if r == 0 {
                (i64::MIN, -1, f64::NAN)
            } else {
                (g.pick(&INTS), g.pick(&INTS), g.pick(&FLOATS))
            };
            b.push_row(&[
                Value::Int(i),
                Value::Int(j),
                Value::Float(f),
                Value::from(g.pick(&STRS)),
            ]);
        }
        tables.push(catalog.register(b.finish()));
    }
    for s in STRS {
        catalog.interner().intern(s);
    }
    let udfs = UdfRegistry::new();
    let mut funcs = Vec::new();
    let log = CallLog::default();
    for arity in 0..=5 {
        for (kind, ret) in [
            ("int", DataType::Int),
            ("float", DataType::Float),
            ("str", DataType::Str),
            ("liar", DataType::Int),
            ("strliar", DataType::Str),
        ] {
            let name = format!("{kind}{arity}");
            let calls = Arc::new(AtomicU64::new(0));
            let counter = calls.clone();
            let (log, index) = (log.clone(), funcs.len());
            let id = udfs.register_typed(&name, ret, move |args: &[Value]| {
                counter.fetch_add(1, Ordering::Relaxed);
                let seen = args.iter().map(Seen::of).collect();
                log.lock().unwrap().push((index, seen));
                let h = digest(args);
                match kind {
                    "int" => Value::Int((h % 3) as i64 - 1),
                    "float" => Value::Float([0.5, -0.0, f64::NAN, 3.0][(h % 4) as usize]),
                    // "zz" is never interned.
                    "str" => match (h % (STRS.len() as u64 + 1)) as usize {
                        i if i < STRS.len() => Value::from(STRS[i]),
                        _ => Value::from("zz"),
                    },
                    // Declared Int, but not always an int.
                    "liar" => [Value::Int(1), Value::Float(2.5), Value::from("x")]
                        [(h % 3) as usize]
                        .clone(),
                    // Declared Str, but not always a string.
                    _ => [Value::from("ab"), Value::Int(1), Value::Float(0.5)][(h % 3) as usize]
                        .clone(),
                }
            });
            funcs.push(Udf {
                id,
                name,
                ret,
                arity,
                calls,
            });
        }
    }
    World {
        catalog,
        tables,
        udfs,
        funcs,
        log,
    }
}

/// Random well-typed expression trees (only shapes the binder could
/// produce and `eval_bool` evaluates without panicking).
struct Trees<'w> {
    w: &'w World,
    g: Gen,
}

impl Trees<'_> {
    /// Which of `leaves + inner` arms to build: a leaf arm `0..leaves` at
    /// depth 0 (and now and then above it), else an inner one.
    fn arm(&mut self, depth: u32, leaves: usize, inner: usize) -> usize {
        if depth == 0 || self.g.below(3) == 0 {
            self.g.below(leaves)
        } else {
            leaves + self.g.below(inner)
        }
    }

    fn col(&mut self, dt: DataType) -> Expr {
        let cols: Vec<usize> = COLS
            .iter()
            .filter(|(_, t)| *t == dt)
            .map(|(c, _)| *c)
            .collect();
        let c = ColRef {
            table: self.g.below(ROWS.len()),
            col: self.g.pick(&cols),
        };
        Expr::Col(c, dt)
    }

    fn lit_str(&mut self) -> Expr {
        let s = self.g.pick(&STRS);
        Expr::LitStr {
            code: self.w.catalog.interner().lookup(s).unwrap(),
            text: Arc::from(s),
        }
    }

    fn udf(&mut self, ret: DataType, depth: u32) -> Expr {
        let cands: Vec<&Udf> = self.w.funcs.iter().filter(|f| f.ret == ret).collect();
        let f = cands[self.g.below(cands.len())];
        let bare_numbers = self.g.below(3) == 0;
        let args = (0..f.arity)
            .map(|_| match self.g.below(if bare_numbers { 2 } else { 3 }) {
                0 if bare_numbers => self.col(DataType::Int),
                1 if bare_numbers => self.col(DataType::Float),
                0 => self.int(depth),
                1 => self.float(depth),
                _ => self.string(depth),
            })
            .collect();
        Expr::Udf {
            handle: UdfHandle {
                name: Arc::from(f.name.as_str()),
                func: self.w.udfs.func(f.id),
                ret,
            },
            args,
        }
    }

    fn arith(&mut self, ops: &[ArithOp], l: Expr, r: Expr) -> Expr {
        Expr::Arith {
            op: self.g.pick(ops),
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    fn int(&mut self, depth: u32) -> Expr {
        match self.arm(depth, 2, 4) {
            0 => self.col(DataType::Int),
            1 => Expr::LitInt(self.g.pick(&INTS)),
            2 => {
                let (l, r) = (self.int(depth - 1), self.int(depth - 1));
                use ArithOp::*;
                self.arith(&[Add, Sub, Mul, Div, Mod], l, r)
            }
            3 => Expr::Neg(Box::new(self.int(depth - 1))),
            4 => self.pred(depth - 1),
            _ => self.udf(DataType::Int, depth - 1),
        }
    }

    fn float(&mut self, depth: u32) -> Expr {
        match self.arm(depth, 2, 3) {
            0 => self.col(DataType::Float),
            1 => Expr::LitFloat(self.g.pick(&FLOATS)),
            2 => {
                // One float side at least, so the node is float-typed.
                let l = self.float(depth - 1);
                let r = if self.g.below(2) == 0 {
                    self.float(depth - 1)
                } else {
                    self.int(depth - 1)
                };
                let (l, r) = if self.g.below(2) == 0 { (l, r) } else { (r, l) };
                use ArithOp::*;
                self.arith(&[Add, Sub, Mul, Div], l, r)
            }
            3 => Expr::Neg(Box::new(self.float(depth - 1))),
            _ => self.udf(DataType::Float, depth - 1),
        }
    }

    fn string(&mut self, depth: u32) -> Expr {
        match self.g.below(if depth == 0 { 2 } else { 3 }) {
            0 => self.col(DataType::Str),
            1 => self.lit_str(),
            _ => self.udf(DataType::Str, depth - 1),
        }
    }

    fn numeric(&mut self, depth: u32) -> Expr {
        if self.g.below(2) == 0 {
            self.int(depth)
        } else {
            self.float(depth)
        }
    }

    fn cmp(&mut self, l: Expr, r: Expr) -> Expr {
        use CmpOp::*;
        Expr::Cmp {
            op: self.g.pick(&[Eq, Neq, Lt, Le, Gt, Ge]),
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    fn pred(&mut self, depth: u32) -> Expr {
        let d = depth.saturating_sub(1);
        match self.arm(depth, 4, 6) {
            0 => {
                let (l, r) = (self.numeric(d), self.numeric(d));
                self.cmp(l, r)
            }
            1 => {
                let (l, r) = (self.string(d), self.string(d));
                self.cmp(l, r)
            }
            2 => {
                let (arg, keys): (Expr, Vec<u64>) = match self.g.below(3) {
                    0 => (self.int(d), INTS.iter().map(|&i| i as u64).collect()),
                    1 => (
                        self.float(d),
                        FLOATS
                            .iter()
                            .map(|&f| (if f == 0.0 { 0.0 } else { f }).to_bits())
                            .collect(),
                    ),
                    _ => (
                        self.string(d),
                        STRS.iter()
                            .map(|s| self.w.catalog.interner().lookup(s).unwrap() as u64)
                            .collect(),
                    ),
                };
                let set: HashSet<u64> = keys.into_iter().filter(|_| self.g.below(2) == 0).collect();
                Expr::InSet {
                    arg: Box::new(arg),
                    set: Arc::new(set),
                    negated: self.g.below(2) == 0,
                }
            }
            3 => {
                let pattern = self.g.pick(&PATTERNS);
                let interner = self.w.catalog.interner();
                let matches = (0..interner.len() as u32)
                    .map(|c| like_match(pattern, &interner.resolve(c)))
                    .collect();
                Expr::LikeSet {
                    arg: Box::new(self.string(d)),
                    matches: Arc::new(matches),
                    pattern: Arc::from(pattern),
                    negated: self.g.below(2) == 0,
                }
            }
            4 | 5 => {
                let n = 2 + self.g.below(2);
                let es = (0..n).map(|_| self.pred(d)).collect();
                if self.g.below(2) == 0 {
                    Expr::And(es)
                } else {
                    Expr::Or(es)
                }
            }
            6 => Expr::Not(Box::new(self.pred(d))),
            7 => self.udf(DataType::Int, d),
            // An integer as a condition.
            8 => self.int(d),
            _ => {
                let (l, r) = (self.numeric(d), self.numeric(d));
                self.cmp(l, r)
            }
        }
    }
}

/// Every UDF call site in `e` whose arguments are all bare int or float
/// columns: its arity, whether an int column is among them and whether a
/// float column is.
fn bare_number_calls(e: &Expr, out: &mut Vec<(usize, bool, bool)>) {
    let kids: Vec<&Expr> = match e {
        Expr::Udf { args, .. } => {
            let types: Option<Vec<DataType>> = args
                .iter()
                .map(|a| match a {
                    Expr::Col(_, dt @ (DataType::Int | DataType::Float)) => Some(*dt),
                    _ => None,
                })
                .collect();
            if let Some(types) = types.filter(|t| !t.is_empty()) {
                let has = |dt| types.contains(&dt);
                out.push((types.len(), has(DataType::Int), has(DataType::Float)));
            }
            args.iter().collect()
        }
        Expr::Cmp { left, right, .. } | Expr::Arith { left, right, .. } => vec![left, right],
        Expr::And(es) | Expr::Or(es) => es.iter().collect(),
        Expr::Not(e) | Expr::Neg(e) | Expr::InSet { arg: e, .. } | Expr::LikeSet { arg: e, .. } => {
            vec![e]
        }
        Expr::Col(..) | Expr::LitInt(_) | Expr::LitFloat(_) | Expr::LitStr { .. } => vec![],
    };
    for k in kids {
        bare_number_calls(k, out);
    }
}

/// The calls logged since the last take.
fn take_log(w: &World) -> Vec<(usize, Vec<Seen>)> {
    std::mem::take(&mut *w.log.lock().unwrap())
}

fn counts(w: &World) -> Vec<u64> {
    w.funcs
        .iter()
        .map(|f| f.calls.load(Ordering::Relaxed))
        .collect()
}

// The nightly workflow (.github/workflows/nightly.yml) runs this block with
// PROPTEST_CASES at ten times `cases`: change both together.
proptest! {
    #![proptest_config(ProptestConfig { cases: 400, ..ProptestConfig::default() })]

    #[test]
    fn lowered_predicates_match_the_tree_walker(seed: u64) {
        let w = world();
        let mut trees = Trees { w: &w, g: Gen(seed) };
        let expr = trees.pred(4);
        let pred = Pred::lower(&expr, &w.tables);
        let interner = w.catalog.interner();
        for r0 in 0..ROWS[0] as u32 {
            for r1 in 0..ROWS[1] as u32 {
                let rows = [r0, r1];
                take_log(&w);
                let before = counts(&w);
                let expected = expr.eval_bool(&EvalCtx::new(&w.tables, &rows, interner));
                let oracle_calls = take_log(&w);
                let mid = counts(&w);
                let got = pred.eval(&rows);
                let lowered_calls = take_log(&w);
                let after = counts(&w);
                prop_assert_eq!(got, expected, "{:?} at {:?}", expr, rows);
                for (k, f) in w.funcs.iter().enumerate() {
                    prop_assert_eq!(
                        after[k] - mid[k],
                        mid[k] - before[k],
                        "calls of {} differ: {:?} at {:?}",
                        f.name,
                        expr,
                        rows
                    );
                }
                prop_assert_eq!(
                    &lowered_calls,
                    &oracle_calls,
                    "UDF calls differ: {:?} at {:?}",
                    expr,
                    rows
                );
            }
        }
    }
}

#[test]
fn generator_reaches_every_udf_arity() {
    // The property above is only as strong as the trees it sees.
    let w = world();
    let mut trees = Trees { w: &w, g: Gen(1) };
    let rows = [1u32, 1u32];
    // String-valued UDFs (`str*`, `strliar*`) directly under LIKE and IN.
    let shapes = [
        "LikeSet { arg: Udf { handle: Udf(str",
        "InSet { arg: Udf { handle: Udf(str",
    ];
    let mut seen = [0; 2];
    let mut bare = Vec::new();
    for _ in 0..2000 {
        let e = trees.pred(4);
        e.eval_bool(&EvalCtx::new(&w.tables, &rows, w.catalog.interner()));
        let tree = format!("{e:?}");
        for (n, shape) in seen.iter_mut().zip(shapes) {
            *n += tree.contains(shape) as usize;
        }
        bare_number_calls(&e, &mut bare);
    }
    // Column calls: one int and one float column alone, and int and float
    // columns mixed at every arity the column-call form takes.
    let mut wanted = vec![(1, true, false), (1, false, true)];
    wanted.extend((2..=4).map(|arity| (arity, true, true)));
    for shape in wanted {
        assert!(bare.contains(&shape), "no bare-column call site {shape:?}");
    }
    for f in &w.funcs {
        assert!(
            f.calls.load(Ordering::Relaxed) > 0,
            "{} never called",
            f.name
        );
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "{shapes:?} seen {seen:?} times"
    );
}
