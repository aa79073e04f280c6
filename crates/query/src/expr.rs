//! Bound expressions, evaluated against tuple-index vectors.
//!
//! Following the paper's tuple representation (Section 4.5), a "tuple" during
//! join processing is a vector of row indices, one per query table. An
//! expression therefore evaluates against an [`EvalCtx`] holding the table
//! array and the current row-index vector; column accesses materialize single
//! cells on demand — never whole intermediate tuples.
//!
//! Comparisons dispatch on static types (`i64`/`f64`/interner codes), and
//! equality keys canonicalize to `u64` exactly like
//! [`skinner_storage::Column::key_at`]. The per-tuple loops (join checks,
//! unary filters) do not walk these trees: they evaluate
//! [`crate::pred::Pred`]s lowered from them once per statement, and
//! [`Expr::eval_bool`] is the oracle those are tested against.

use std::collections::HashSet;
use std::sync::Arc;

use skinner_storage::{float_key, DataType, Interner, RowId, Table, Value};

/// Reference to a column: query-table position + column position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColRef {
    pub table: usize,
    pub col: usize,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Whether operands ordered `ord` satisfy the comparison.
    #[inline]
    pub(crate) fn holds(self, ord: std::cmp::Ordering) -> bool {
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Neq => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl ArithOp {
    /// Integer arithmetic, shared by [`Expr`] and [`crate::pred::Pred`]:
    /// overflow wraps (as integer `SUM` does, so `i64::MIN / -1` is
    /// `i64::MIN` rather than a panic), division truncates, and dividing by
    /// zero yields 0.
    #[inline]
    pub(crate) fn int(self, a: i64, b: i64) -> i64 {
        match self {
            ArithOp::Add => a.wrapping_add(b),
            ArithOp::Sub => a.wrapping_sub(b),
            ArithOp::Mul => a.wrapping_mul(b),
            ArithOp::Div | ArithOp::Mod if b == 0 => 0,
            ArithOp::Div => a.wrapping_div(b),
            ArithOp::Mod => a.wrapping_rem(b),
        }
    }

    /// Float arithmetic; dividing by zero yields 0.0.
    #[inline]
    pub(crate) fn float(self, a: f64, b: f64) -> f64 {
        match self {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div | ArithOp::Mod if b == 0.0 => 0.0,
            ArithOp::Div => a / b,
            ArithOp::Mod => a % b,
        }
    }
}

/// A bound UDF call site: the function and its declared return type.
#[derive(Clone)]
pub struct UdfHandle {
    pub name: Arc<str>,
    pub func: crate::udf::UdfFn,
    pub ret: DataType,
}

impl std::fmt::Debug for UdfHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Udf({})", self.name)
    }
}

impl UdfHandle {
    /// Invoke the function on `args`, each turned into a [`Value`] by
    /// `eval` in order. Up to four arguments are passed in a stack array of
    /// exactly their number; more go through a `Vec`.
    #[inline]
    pub(crate) fn call<A>(&self, args: &[A], mut eval: impl FnMut(&A) -> Value) -> Value {
        let f = &self.func;
        match args {
            [] => f(&[]),
            [a] => f(&[eval(a)]),
            [a, b] => f(&[eval(a), eval(b)]),
            [a, b, c] => f(&[eval(a), eval(b), eval(c)]),
            [a, b, c, d] => f(&[eval(a), eval(b), eval(c), eval(d)]),
            _ => f(&args.iter().map(eval).collect::<Vec<_>>()),
        }
    }
}

/// Bound expression tree.
#[derive(Debug, Clone)]
pub enum Expr {
    Col(ColRef, DataType),
    LitInt(i64),
    LitFloat(f64),
    /// Interned string literal; `code` is the catalog-wide code.
    LitStr {
        code: u32,
        text: Arc<str>,
    },
    Cmp {
        op: CmpOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    And(Vec<Expr>),
    Or(Vec<Expr>),
    Not(Box<Expr>),
    Arith {
        op: ArithOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Neg(Box<Expr>),
    /// `arg [NOT] IN {canonical keys}` — also backs `IN (SELECT …)` after the
    /// binder materialized the sub-select.
    InSet {
        arg: Box<Expr>,
        set: Arc<HashSet<u64>>,
        negated: bool,
    },
    /// `arg [NOT] LIKE pattern`, pre-evaluated over the interner into a
    /// per-code match bitmap (all candidate strings are interned before
    /// binding since tables are immutable).
    LikeSet {
        arg: Box<Expr>,
        matches: Arc<Vec<bool>>,
        pattern: Arc<str>,
        negated: bool,
    },
    Udf {
        handle: UdfHandle,
        args: Vec<Expr>,
    },
}

/// Evaluation context: the query's tables and the current tuple-index vector.
pub struct EvalCtx<'a> {
    pub tables: &'a [Arc<Table>],
    pub rows: &'a [RowId],
    pub interner: &'a Interner,
}

impl<'a> EvalCtx<'a> {
    pub fn new(tables: &'a [Arc<Table>], rows: &'a [RowId], interner: &'a Interner) -> Self {
        EvalCtx {
            tables,
            rows,
            interner,
        }
    }
}

impl Expr {
    /// Static result type of the expression.
    pub fn dtype(&self) -> DataType {
        match self {
            Expr::Col(_, dt) => *dt,
            Expr::LitInt(_) => DataType::Int,
            Expr::LitFloat(_) => DataType::Float,
            Expr::LitStr { .. } => DataType::Str,
            Expr::Cmp { .. }
            | Expr::And(_)
            | Expr::Or(_)
            | Expr::Not(_)
            | Expr::InSet { .. }
            | Expr::LikeSet { .. } => DataType::Int,
            Expr::Arith { op, left, right } => match op {
                ArithOp::Mod => DataType::Int,
                // SQL semantics: Int/Int truncates; anything else floats.
                _ => {
                    if left.dtype() == DataType::Float || right.dtype() == DataType::Float {
                        DataType::Float
                    } else {
                        DataType::Int
                    }
                }
            },
            Expr::Neg(e) => e.dtype(),
            Expr::Udf { handle, .. } => handle.ret,
        }
    }

    /// Set of table positions referenced by this expression.
    pub fn table_set(&self) -> crate::table_set::TableSet {
        let mut s = crate::table_set::TableSet::EMPTY;
        self.visit_cols(&mut |c| s.insert(c.table));
        s
    }

    /// Visit every column reference.
    pub fn visit_cols(&self, f: &mut impl FnMut(ColRef)) {
        match self {
            Expr::Col(c, _) => f(*c),
            Expr::LitInt(_) | Expr::LitFloat(_) | Expr::LitStr { .. } => {}
            Expr::Cmp { left, right, .. } | Expr::Arith { left, right, .. } => {
                left.visit_cols(f);
                right.visit_cols(f);
            }
            Expr::And(es) | Expr::Or(es) => {
                for e in es {
                    e.visit_cols(f);
                }
            }
            Expr::Not(e) | Expr::Neg(e) => e.visit_cols(f),
            Expr::InSet { arg, .. } | Expr::LikeSet { arg, .. } => arg.visit_cols(f),
            Expr::Udf { args, .. } => {
                for a in args {
                    a.visit_cols(f);
                }
            }
        }
    }

    /// General evaluation, producing a [`Value`].
    pub fn eval(&self, ctx: &EvalCtx<'_>) -> Value {
        match self.dtype() {
            DataType::Int => Value::Int(self.eval_i64(ctx)),
            DataType::Float => Value::Float(self.eval_f64(ctx)),
            DataType::Str => match self {
                Expr::Col(c, _) => {
                    let code = ctx.tables[c.table].column(c.col).code_at(ctx.rows[c.table]);
                    Value::Str(ctx.interner.resolve(code))
                }
                Expr::LitStr { text, .. } => Value::Str(text.clone()),
                Expr::Udf { .. } => self.eval_udf(ctx),
                other => panic!("string-typed expression {other:?} not evaluable"),
            },
        }
    }

    /// Boolean evaluation with short-circuiting and typed fast paths.
    pub fn eval_bool(&self, ctx: &EvalCtx<'_>) -> bool {
        match self {
            Expr::And(es) => es.iter().all(|e| e.eval_bool(ctx)),
            Expr::Or(es) => es.iter().any(|e| e.eval_bool(ctx)),
            Expr::Not(e) => !e.eval_bool(ctx),
            Expr::Cmp { op, left, right } => {
                let ord = if left.dtype() == DataType::Str || right.dtype() == DataType::Str {
                    match (*op, left.str_code(ctx), right.str_code(ctx)) {
                        // Equality on interned strings: code comparison.
                        (CmpOp::Eq, Some(a), Some(b)) => return a == b,
                        (CmpOp::Neq, Some(a), Some(b)) => return a != b,
                        _ => {
                            let a = left.eval(ctx);
                            let b = right.eval(ctx);
                            match a.compare(&b) {
                                Some(o) => o,
                                None => return false,
                            }
                        }
                    }
                } else if left.dtype() == DataType::Int && right.dtype() == DataType::Int {
                    left.eval_i64(ctx).cmp(&right.eval_i64(ctx))
                } else {
                    match left.eval_f64(ctx).partial_cmp(&right.eval_f64(ctx)) {
                        Some(o) => o,
                        None => return false, // NaN comparisons are false
                    }
                };
                op.holds(ord)
            }
            Expr::InSet { arg, set, negated } => {
                let hit = arg.set_key(ctx).is_some_and(|k| set.contains(&k));
                hit != *negated
            }
            Expr::LikeSet {
                arg,
                matches,
                pattern,
                negated,
            } => {
                let hit = match arg.str_code(ctx) {
                    Some(code) => matches.get(code as usize).copied().unwrap_or(false),
                    // A string-valued UDF: its result may not be interned
                    // (or be a string at all), so match the text itself.
                    None => arg
                        .eval(ctx)
                        .as_str()
                        .is_some_and(|s| like_match(pattern, s)),
                };
                hit != *negated
            }
            Expr::Udf { .. } => self.eval_udf(ctx).as_bool(),
            other => other.eval(ctx).as_bool(),
        }
    }

    /// Canonical `u64` equality key (mirrors `Column::key_at`): equal
    /// values, equal keys. A string-valued UDF's result is interned, so
    /// it keys (a GROUP BY or DISTINCT column) like an equal string in a
    /// table; a result that is not a string keys as its text.
    pub fn eval_key(&self, ctx: &EvalCtx<'_>) -> u64 {
        match self.dtype() {
            DataType::Int => self.eval_i64(ctx) as u64,
            DataType::Float => float_key(self.eval_f64(ctx)),
            DataType::Str => match self.str_code(ctx) {
                Some(code) => code as u64,
                None => {
                    let v = self.eval(ctx);
                    let code = match v.as_str() {
                        Some(s) => ctx.interner.intern(s),
                        None => ctx.interner.intern(&v.to_string()),
                    };
                    code as u64
                }
            },
        }
    }

    /// The key an `IN` set is probed with: [`Expr::eval_key`], except that
    /// a string-valued UDF's result is only looked up, never interned. A
    /// string that was never interned equals no literal of the set, and a
    /// result that is not a string equals no string: both give `None`.
    fn set_key(&self, ctx: &EvalCtx<'_>) -> Option<u64> {
        match (self.dtype(), self.str_code(ctx)) {
            (_, Some(code)) => Some(code as u64),
            (DataType::Str, None) => self
                .eval(ctx)
                .as_str()
                .and_then(|s| ctx.interner.lookup(s))
                .map(u64::from),
            _ => Some(self.eval_key(ctx)),
        }
    }

    /// The interner code of a string-typed expression, if it is directly
    /// code-valued (column or literal). UDFs returning strings fall back to
    /// `None` and force materialized comparison.
    fn str_code(&self, ctx: &EvalCtx<'_>) -> Option<u32> {
        match self {
            Expr::Col(c, DataType::Str) => {
                Some(ctx.tables[c.table].column(c.col).code_at(ctx.rows[c.table]))
            }
            Expr::LitStr { code, .. } => Some(*code),
            _ => None,
        }
    }

    fn eval_i64(&self, ctx: &EvalCtx<'_>) -> i64 {
        match self {
            Expr::Col(c, DataType::Int) => {
                ctx.tables[c.table].column(c.col).int_at(ctx.rows[c.table])
            }
            Expr::LitInt(i) => *i,
            Expr::Arith { op, left, right } => {
                let a = left.eval_i64(ctx);
                op.int(a, right.eval_i64(ctx))
            }
            Expr::Neg(e) => e.eval_i64(ctx).wrapping_neg(),
            Expr::Cmp { .. }
            | Expr::And(_)
            | Expr::Or(_)
            | Expr::Not(_)
            | Expr::InSet { .. }
            | Expr::LikeSet { .. } => self.eval_bool(ctx) as i64,
            Expr::Udf { .. } => self.eval_udf(ctx).as_i64().unwrap_or(0),
            other => panic!("eval_i64 on non-int expression {other:?}"),
        }
    }

    fn eval_f64(&self, ctx: &EvalCtx<'_>) -> f64 {
        match self {
            Expr::Col(c, DataType::Str) => panic!("eval_f64 on string column {c:?}"),
            Expr::Col(c, _) => ctx.tables[c.table]
                .column(c.col)
                .float_at(ctx.rows[c.table]),
            Expr::LitInt(i) => *i as f64,
            Expr::LitFloat(x) => *x,
            Expr::Arith { op, left, right } => {
                let a = left.eval_f64(ctx);
                op.float(a, right.eval_f64(ctx))
            }
            Expr::Neg(e) => -e.eval_f64(ctx),
            Expr::Udf { .. } => self.eval_udf(ctx).as_f64().unwrap_or(0.0),
            other => other.eval_i64(ctx) as f64,
        }
    }

    fn eval_udf(&self, ctx: &EvalCtx<'_>) -> Value {
        match self {
            Expr::Udf { handle, args } => handle.call(args, |a| a.eval(ctx)),
            _ => unreachable!(),
        }
    }
}

/// SQL `LIKE` semantics: `%` matches any run, `_` matches one character.
/// Case-sensitive, as in Postgres.
pub fn like_match(pattern: &str, s: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = s.chars().collect();
    // Classic two-pointer with backtracking on the last `%`.
    let (mut pi, mut ti) = (0usize, 0usize);
    let (mut star_p, mut star_t) = (usize::MAX, 0usize);
    while ti < t.len() {
        // `%` first: a `%` in the text must not consume the pattern's `%`
        // as a literal.
        if pi < p.len() && p[pi] == '%' {
            star_p = pi;
            star_t = ti;
            pi += 1;
        } else if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if star_p != usize::MAX {
            star_t += 1;
            ti = star_t;
            pi = star_p + 1;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_storage::{schema, Catalog};
    use std::sync::Mutex;

    fn fixture() -> (Catalog, Arc<Table>) {
        let cat = Catalog::new();
        let mut b = cat.builder("t", schema![("i", Int), ("f", Float), ("s", Str)]);
        b.push_row(&[Value::Int(10), Value::Float(1.5), Value::from("alpha")]);
        b.push_row(&[Value::Int(20), Value::Float(2.5), Value::from("beta")]);
        let t = cat.register(b.finish());
        (cat, t)
    }

    fn col(table: usize, col_: usize, dt: DataType) -> Expr {
        Expr::Col(ColRef { table, col: col_ }, dt)
    }

    #[test]
    fn typed_comparison_paths() {
        let (cat, t) = fixture();
        let tables = vec![t];
        let rows = vec![0u32];
        let ctx = EvalCtx::new(&tables, &rows, cat.interner());
        let int_lt = Expr::Cmp {
            op: CmpOp::Lt,
            left: Box::new(col(0, 0, DataType::Int)),
            right: Box::new(Expr::LitInt(15)),
        };
        assert!(int_lt.eval_bool(&ctx));
        let float_ge = Expr::Cmp {
            op: CmpOp::Ge,
            left: Box::new(col(0, 1, DataType::Float)),
            right: Box::new(Expr::LitFloat(1.5)),
        };
        assert!(float_ge.eval_bool(&ctx));
    }

    #[test]
    fn string_equality_via_codes() {
        let (cat, t) = fixture();
        let code = cat.interner().lookup("alpha").unwrap();
        let tables = vec![t];
        let rows = vec![0u32];
        let ctx = EvalCtx::new(&tables, &rows, cat.interner());
        let eq = Expr::Cmp {
            op: CmpOp::Eq,
            left: Box::new(col(0, 2, DataType::Str)),
            right: Box::new(Expr::LitStr {
                code,
                text: Arc::from("alpha"),
            }),
        };
        assert!(eq.eval_bool(&ctx));
    }

    #[test]
    fn string_ordering_resolves() {
        let (cat, t) = fixture();
        let tables = vec![t];
        let rows = vec![1u32]; // "beta"
        let ctx = EvalCtx::new(&tables, &rows, cat.interner());
        let gt = Expr::Cmp {
            op: CmpOp::Gt,
            left: Box::new(col(0, 2, DataType::Str)),
            right: Box::new(Expr::LitStr {
                code: cat.interner().lookup("alpha").unwrap(),
                text: Arc::from("alpha"),
            }),
        };
        assert!(gt.eval_bool(&ctx));
    }

    #[test]
    fn arithmetic_and_div_types() {
        let (cat, t) = fixture();
        let tables = vec![t];
        let rows = vec![1u32];
        let ctx = EvalCtx::new(&tables, &rows, cat.interner());
        let e = Expr::Arith {
            op: ArithOp::Add,
            left: Box::new(col(0, 0, DataType::Int)),
            right: Box::new(Expr::LitInt(5)),
        };
        assert_eq!(e.eval(&ctx).as_i64(), Some(25));
        // Int/Int truncates (SQL semantics); Float division stays exact.
        let d = Expr::Arith {
            op: ArithOp::Div,
            left: Box::new(Expr::LitInt(7)),
            right: Box::new(Expr::LitInt(2)),
        };
        assert_eq!(d.dtype(), DataType::Int);
        assert_eq!(d.eval(&ctx).as_i64(), Some(3));
        let f = Expr::Arith {
            op: ArithOp::Div,
            left: Box::new(Expr::LitFloat(1.0)),
            right: Box::new(Expr::LitInt(2)),
        };
        assert_eq!(f.dtype(), DataType::Float);
        assert_eq!(f.eval(&ctx).as_f64(), Some(0.5));
    }

    #[test]
    fn in_set_semantics() {
        let (cat, t) = fixture();
        let tables = vec![t];
        let rows = vec![0u32];
        let ctx = EvalCtx::new(&tables, &rows, cat.interner());
        let mut set = HashSet::new();
        set.insert(10i64 as u64);
        let e = Expr::InSet {
            arg: Box::new(col(0, 0, DataType::Int)),
            set: Arc::new(set),
            negated: false,
        };
        assert!(e.eval_bool(&ctx));
        let ne = match e {
            Expr::InSet { arg, set, .. } => Expr::InSet {
                arg,
                set,
                negated: true,
            },
            _ => unreachable!(),
        };
        assert!(!ne.eval_bool(&ctx));
    }

    #[test]
    fn udf_counts_calls() {
        let (cat, t) = fixture();
        // The UDF counts itself.
        let calls = Arc::new(Mutex::new(0));
        let counter = calls.clone();
        let e = Expr::Udf {
            handle: UdfHandle {
                name: Arc::from("gt15"),
                func: Arc::new(move |args: &[Value]| {
                    *counter.lock().unwrap() += 1;
                    Value::from(args[0].as_i64().unwrap() > 15)
                }),
                ret: DataType::Int,
            },
            args: vec![col(0, 0, DataType::Int)],
        };
        let tables = vec![t];
        let ctx0 = EvalCtx::new(&tables, &[0u32], cat.interner());
        let ctx1 = EvalCtx::new(&tables, &[1u32], cat.interner());
        assert!(!e.eval_bool(&ctx0));
        assert!(e.eval_bool(&ctx1));
        assert_eq!(*calls.lock().unwrap(), 2);
    }

    #[test]
    fn table_set_collection() {
        let e = Expr::Cmp {
            op: CmpOp::Eq,
            left: Box::new(col(2, 0, DataType::Int)),
            right: Box::new(col(5, 1, DataType::Int)),
        };
        let s = e.table_set();
        assert!(s.contains(2) && s.contains(5));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn like_match_cases() {
        assert!(like_match("%", ""));
        assert!(like_match("%", "anything"));
        assert!(like_match("a%", "abc"));
        assert!(!like_match("a%", "bac"));
        assert!(like_match("%c", "abc"));
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "abcd"));
        assert!(like_match("%b%", "abc"));
        assert!(like_match("a%%c", "ac"));
        assert!(!like_match("", "x"));
        assert!(like_match("", ""));
        assert!(like_match("%special%", "a special day"));
        // A `%` or `_` in the text is an ordinary character.
        assert!(like_match("a%", "a%c"));
        assert!(like_match("%", "%x"));
        assert!(like_match("x%y", "x%zy"));
        assert!(like_match("50%", "50% off"));
        assert!(like_match("a_b", "a_b"));
        assert!(!like_match("a%b", "a%c"));
    }

    #[test]
    fn short_circuit_and_or() {
        let (cat, t) = fixture();
        let tables = vec![t];
        let rows = vec![0u32];
        let ctx = EvalCtx::new(&tables, &rows, cat.interner());
        let f = Expr::Cmp {
            op: CmpOp::Gt,
            left: Box::new(Expr::LitInt(1)),
            right: Box::new(Expr::LitInt(2)),
        };
        let tr = Expr::Cmp {
            op: CmpOp::Lt,
            left: Box::new(Expr::LitInt(1)),
            right: Box::new(Expr::LitInt(2)),
        };
        assert!(!Expr::And(vec![f.clone(), tr.clone()]).eval_bool(&ctx));
        assert!(Expr::Or(vec![f.clone(), tr.clone()]).eval_bool(&ctx));
        assert!(Expr::Not(Box::new(f)).eval_bool(&ctx));
    }
}
