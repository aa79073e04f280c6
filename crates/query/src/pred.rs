//! WHERE predicates lowered once per statement, evaluated per tuple.
//!
//! [`Expr::eval_bool`] re-derives everything on every call: the caller
//! builds an [`EvalCtx`], every node recomputes `dtype()` to pick its typed
//! path, every column is found through the table array, and every UDF call
//! collects its arguments. The join loop and the unary filters evaluate
//! one predicate per candidate tuple, millions of times per statement, so
//! [`Pred::lower`] does that work once against the statement's tables:
//! each node's typed path is chosen up front, and each column becomes its
//! table (an `Arc`, like a join level's index jump) plus the tuple position
//! whose row id reads it. A `Pred` has no lifetimes, so a lowered join
//! order travels to pool workers inside an `Arc`.
//!
//! Lowering is exact. [`Pred::eval`] returns what `eval_bool` returns,
//! evaluating the same subexpressions in the same order with the same short
//! circuits, so rows, work units and UDF call counts do not change. What has
//! no typed arm — string ordering, string-valued UDFs under a comparison,
//! `LIKE` or `IN`, shapes `eval_bool` itself would panic on — stays an
//! [`Expr`] evaluated by `eval_bool`: the one fallback.
//!
//! A UDF call costs the function plus what its arguments cost to build. A
//! call site whose one to four arguments are all bare int or float columns
//! is lowered to a column call: each column is read straight into the
//! `Value` array the function gets, and since ints and floats own nothing
//! the array is never dropped. Every other argument list (literals,
//! expressions, strings, nested calls, more arguments) is materialized
//! argument by argument, as [`Expr::eval`] would.
//!
//! String arguments of a UDF are resolved from the interner before the call;
//! no interner read is held while a UDF runs (see `Interner::read`).

use std::collections::HashSet;
use std::mem::ManuallyDrop;
use std::sync::Arc;

use skinner_storage::{float_key, Column, DataType, Interner, RowId, Table, Value};

use crate::expr::{ArithOp, CmpOp, ColRef, EvalCtx, Expr, UdfHandle};

/// A boolean expression lowered against one statement's tables.
#[derive(Debug, Clone)]
pub struct Pred(Node);

impl Pred {
    /// Lower `expr` against `tables`, the (possibly filtered) tables the
    /// tuples passed to [`Pred::eval`] index; non-empty, one catalog.
    pub fn lower(expr: &Expr, tables: &[Arc<Table>]) -> Pred {
        Lowering::new(tables).pred(expr)
    }

    /// Lower each of `exprs` against `tables` (see [`Pred::lower`]).
    pub fn lower_all<'e>(
        exprs: impl IntoIterator<Item = &'e Expr>,
        tables: &[Arc<Table>],
    ) -> Vec<Pred> {
        let mut lowering = Lowering::new(tables);
        exprs.into_iter().map(|e| lowering.pred(e)).collect()
    }

    /// The predicate at the tuple whose row id at table position `p` is
    /// `rows[p]` — exactly `expr.eval_bool` there. A predicate that is one
    /// UDF call (every join check of the `trivial` torture shape) is called
    /// here, without the call into the recursive node walk.
    #[inline]
    pub fn eval(&self, rows: &[RowId]) -> bool {
        match &self.0 {
            Node::Udf(u) => u.call(rows).as_bool(),
            n => n.eval(rows),
        }
    }
}

/// A column of one query table, read at the row id of tuple position `pos`.
#[derive(Clone)]
struct ColAt {
    table: Arc<Table>,
    pos: usize,
    col: usize,
}

impl ColAt {
    #[inline]
    fn column(&self) -> &Column {
        self.table.column(self.col)
    }

    #[inline]
    fn row(&self, rows: &[RowId]) -> RowId {
        rows[self.pos]
    }

    /// The value of an int or float column, as `Expr::eval` gives it.
    #[inline]
    fn number(&self, rows: &[RowId]) -> Value {
        let row = self.row(rows) as usize;
        match self.column() {
            Column::Int(v) => Value::Int(v[row]),
            Column::Float(v) => Value::Float(v[row]),
            Column::Str(_) => unreachable!("lowered as a number column"),
        }
    }
}

impl std::fmt::Debug for ColAt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}.{}", self.pos, self.col)
    }
}

/// A boolean node ([`Expr::eval_bool`]).
#[derive(Debug, Clone)]
enum Node {
    And(Vec<Node>),
    Or(Vec<Node>),
    Not(Box<Node>),
    CmpInt(CmpOp, Int, Int),
    /// NaN compares false.
    CmpFloat(CmpOp, Float, Float),
    /// `=` (or `<>` when negated) on interner codes.
    StrEq(Code, Code, bool),
    InSet {
        arg: Key,
        set: Arc<HashSet<u64>>,
        negated: bool,
    },
    LikeSet {
        arg: Code,
        matches: Arc<Vec<bool>>,
        negated: bool,
    },
    Udf(Udf),
    /// An integer used as a condition: true iff non-zero.
    NonZero(Int),
    Eval(Box<Fallback>),
}

/// An integer-valued node ([`Expr`]'s `eval_i64`).
#[derive(Debug, Clone)]
enum Int {
    Col(ColAt),
    Lit(i64),
    Arith(ArithOp, Box<Int>, Box<Int>),
    Neg(Box<Int>),
    Bool(Box<Node>),
    /// A non-integer result counts as 0.
    Udf(Udf),
}

/// A float-valued node ([`Expr`]'s `eval_f64`); int columns widen.
#[derive(Debug, Clone)]
enum Float {
    Col(ColAt),
    Lit(f64),
    Arith(ArithOp, Box<Float>, Box<Float>),
    Neg(Box<Float>),
    Int(Box<Int>),
    /// A non-numeric result counts as 0.0.
    Udf(Udf),
}

/// A string column or literal, as its interner code.
#[derive(Debug, Clone)]
enum Code {
    Col(ColAt),
    Lit(u32),
}

/// The canonical equality key of an `IN` argument ([`Expr::eval_key`]).
#[derive(Debug, Clone)]
enum Key {
    Int(Int),
    Float(Float),
    Code(Code),
}

/// A UDF argument, materialized as [`Expr::eval`] does. A bare column is
/// read directly rather than through [`Int`] or [`Float`].
#[derive(Debug, Clone)]
enum Arg {
    IntCol(ColAt),
    FloatCol(ColAt),
    Int(Int),
    Float(Float),
    StrCol(ColAt),
    StrLit(Arc<str>),
    Udf(Udf),
}

/// A UDF call site.
#[derive(Debug, Clone)]
enum Udf {
    /// One to four arguments, each a bare int or float column: every value
    /// is read straight into the array the function gets.
    Cols {
        handle: UdfHandle,
        cols: Box<[ColAt]>,
    },
    /// Any other argument list, materialized per [`Arg`] (on the stack up
    /// to a small arity, see `UdfHandle::call`).
    Args { handle: UdfHandle, args: Box<[Arg]> },
}

/// An expression without a typed arm, with what `eval_bool` needs besides
/// the tuple.
#[derive(Debug, Clone)]
struct Fallback {
    expr: Expr,
    tables: Arc<[Arc<Table>]>,
    interner: Arc<Interner>,
}

impl Node {
    #[inline]
    fn eval(&self, rows: &[RowId]) -> bool {
        match self {
            Node::And(ps) => ps.iter().all(|p| p.eval(rows)),
            Node::Or(ps) => ps.iter().any(|p| p.eval(rows)),
            Node::Not(p) => !p.eval(rows),
            Node::CmpInt(op, l, r) => {
                let a = l.eval(rows);
                op.holds(a.cmp(&r.eval(rows)))
            }
            Node::CmpFloat(op, l, r) => {
                let a = l.eval(rows);
                a.partial_cmp(&r.eval(rows)).is_some_and(|o| op.holds(o))
            }
            Node::StrEq(l, r, negated) => (l.code(rows) == r.code(rows)) != *negated,
            Node::InSet { arg, set, negated } => set.contains(&arg.key(rows)) != *negated,
            Node::LikeSet {
                arg,
                matches,
                negated,
            } => {
                let hit = matches.get(arg.code(rows) as usize).copied();
                hit.unwrap_or(false) != *negated
            }
            Node::Udf(u) => u.call(rows).as_bool(),
            Node::NonZero(i) => i.eval(rows) != 0,
            Node::Eval(f) => f
                .expr
                .eval_bool(&EvalCtx::new(&f.tables, rows, &f.interner)),
        }
    }
}

impl Int {
    #[inline]
    fn eval(&self, rows: &[RowId]) -> i64 {
        match self {
            Int::Col(c) => c.column().int_at(c.row(rows)),
            Int::Lit(i) => *i,
            Int::Arith(op, l, r) => {
                let a = l.eval(rows);
                op.int(a, r.eval(rows))
            }
            Int::Neg(e) => e.eval(rows).wrapping_neg(),
            Int::Bool(p) => p.eval(rows) as i64,
            Int::Udf(u) => u.call(rows).as_i64().unwrap_or(0),
        }
    }
}

impl Float {
    fn eval(&self, rows: &[RowId]) -> f64 {
        match self {
            Float::Col(c) => c.column().float_at(c.row(rows)),
            Float::Lit(x) => *x,
            Float::Arith(op, l, r) => {
                let a = l.eval(rows);
                op.float(a, r.eval(rows))
            }
            Float::Neg(e) => -e.eval(rows),
            Float::Int(i) => i.eval(rows) as f64,
            Float::Udf(u) => u.call(rows).as_f64().unwrap_or(0.0),
        }
    }
}

impl Code {
    #[inline]
    fn code(&self, rows: &[RowId]) -> u32 {
        match self {
            Code::Col(c) => c.column().code_at(c.row(rows)),
            Code::Lit(code) => *code,
        }
    }
}

impl Key {
    fn key(&self, rows: &[RowId]) -> u64 {
        match self {
            Key::Int(i) => i.eval(rows) as u64,
            Key::Float(f) => float_key(f.eval(rows)),
            Key::Code(c) => c.code(rows) as u64,
        }
    }
}

impl Arg {
    #[inline]
    fn value(&self, rows: &[RowId]) -> Value {
        match self {
            Arg::IntCol(c) => Value::Int(c.column().int_at(c.row(rows))),
            Arg::FloatCol(c) => Value::Float(c.column().float_at(c.row(rows))),
            Arg::Int(i) => Value::Int(i.eval(rows)),
            Arg::Float(f) => Value::Float(f.eval(rows)),
            // `resolve` gives its read back before the UDF runs.
            Arg::StrCol(c) => {
                Value::Str(c.table.interner().resolve(c.column().code_at(c.row(rows))))
            }
            Arg::StrLit(s) => Value::Str(s.clone()),
            Arg::Udf(u) => u.call(rows),
        }
    }
}

impl Udf {
    /// Inlined into each caller, so a column call reaches the function with
    /// no call in between; the general path stays out of line.
    #[inline(always)]
    fn call(&self, rows: &[RowId]) -> Value {
        match self {
            Udf::Cols { handle, cols } => {
                let (f, v) = (&handle.func, |c: &ColAt| c.number(rows));
                // Ints and floats own nothing: the array is never dropped,
                // so no argument is checked for a string to release.
                match &**cols {
                    [a] => f(&*ManuallyDrop::new([v(a)])),
                    [a, b] => f(&*ManuallyDrop::new([v(a), v(b)])),
                    [a, b, c] => f(&*ManuallyDrop::new([v(a), v(b), v(c)])),
                    [a, b, c, d] => f(&*ManuallyDrop::new([v(a), v(b), v(c), v(d)])),
                    _ => unreachable!("column calls have arity 1 to 4"),
                }
            }
            Udf::Args { handle, args } => call_args(handle, args, rows),
        }
    }
}

/// [`Udf::Args`]'s call: each argument materialized by [`Arg::value`].
#[inline(never)]
fn call_args(handle: &UdfHandle, args: &[Arg], rows: &[RowId]) -> Value {
    handle.call(args, |a| a.value(rows))
}

/// Lowers expressions against one statement's tables. Each typed lowering
/// mirrors one of `Expr`'s evaluators case by case and returns `None` where
/// that evaluator would panic, so the enclosing boolean node falls back.
struct Lowering<'a> {
    tables: &'a [Arc<Table>],
    /// The tables as the fallback holds them, made on the first fallback.
    shared: Option<Arc<[Arc<Table>]>>,
}

impl<'a> Lowering<'a> {
    fn new(tables: &'a [Arc<Table>]) -> Self {
        Lowering {
            tables,
            shared: None,
        }
    }

    fn pred(&mut self, e: &Expr) -> Pred {
        Pred(self.node(e))
    }

    fn node(&mut self, e: &Expr) -> Node {
        match self.typed(e) {
            Some(n) => n,
            None => {
                let tables = self.shared.get_or_insert_with(|| self.tables.into());
                Node::Eval(Box::new(Fallback {
                    expr: e.clone(),
                    tables: tables.clone(),
                    interner: self.tables[0].interner().clone(),
                }))
            }
        }
    }

    /// `Expr::eval_bool`.
    fn typed(&mut self, e: &Expr) -> Option<Node> {
        Some(match e {
            Expr::And(es) => Node::And(es.iter().map(|e| self.node(e)).collect()),
            Expr::Or(es) => Node::Or(es.iter().map(|e| self.node(e)).collect()),
            Expr::Not(e) => Node::Not(Box::new(self.node(e))),
            Expr::Cmp { op, left, right } => {
                let (l, r) = (left.dtype(), right.dtype());
                if l == DataType::Str || r == DataType::Str {
                    // Only equality reduces to codes; ordering compares text.
                    let negated = match op {
                        CmpOp::Eq => false,
                        CmpOp::Neq => true,
                        _ => return None,
                    };
                    Node::StrEq(self.code(left)?, self.code(right)?, negated)
                } else if l == DataType::Int && r == DataType::Int {
                    Node::CmpInt(*op, self.int(left)?, self.int(right)?)
                } else {
                    Node::CmpFloat(*op, self.float(left)?, self.float(right)?)
                }
            }
            Expr::InSet { arg, set, negated } => Node::InSet {
                arg: match arg.dtype() {
                    DataType::Int => Key::Int(self.int(arg)?),
                    DataType::Float => Key::Float(self.float(arg)?),
                    DataType::Str => Key::Code(self.code(arg)?),
                },
                set: set.clone(),
                negated: *negated,
            },
            Expr::LikeSet {
                arg,
                matches,
                negated,
                ..
            } => Node::LikeSet {
                arg: self.code(arg)?,
                matches: matches.clone(),
                negated: *negated,
            },
            Expr::Udf { handle, args } => Node::Udf(self.udf(handle, args)?),
            e if e.dtype() == DataType::Int => Node::NonZero(self.int(e)?),
            _ => return None,
        })
    }

    /// `Expr::eval_i64`.
    fn int(&mut self, e: &Expr) -> Option<Int> {
        Some(match e {
            Expr::Col(c, DataType::Int) => Int::Col(self.col(*c)),
            Expr::LitInt(i) => Int::Lit(*i),
            Expr::Arith { op, left, right } => {
                Int::Arith(*op, Box::new(self.int(left)?), Box::new(self.int(right)?))
            }
            Expr::Neg(e) => Int::Neg(Box::new(self.int(e)?)),
            Expr::Cmp { .. }
            | Expr::And(_)
            | Expr::Or(_)
            | Expr::Not(_)
            | Expr::InSet { .. }
            | Expr::LikeSet { .. } => Int::Bool(Box::new(self.node(e))),
            Expr::Udf { handle, args } => Int::Udf(self.udf(handle, args)?),
            _ => return None,
        })
    }

    /// `Expr::eval_f64`.
    fn float(&mut self, e: &Expr) -> Option<Float> {
        Some(match e {
            Expr::Col(_, DataType::Str) => return None,
            Expr::Col(c, _) => Float::Col(self.col(*c)),
            Expr::LitInt(i) => Float::Lit(*i as f64),
            Expr::LitFloat(x) => Float::Lit(*x),
            Expr::Arith { op, left, right } => Float::Arith(
                *op,
                Box::new(self.float(left)?),
                Box::new(self.float(right)?),
            ),
            Expr::Neg(e) => Float::Neg(Box::new(self.float(e)?)),
            Expr::Udf { handle, args } => Float::Udf(self.udf(handle, args)?),
            other => Float::Int(Box::new(self.int(other)?)),
        })
    }

    /// `Expr::str_code`.
    fn code(&mut self, e: &Expr) -> Option<Code> {
        match e {
            Expr::Col(c, DataType::Str) => Some(Code::Col(self.col(*c))),
            Expr::LitStr { code, .. } => Some(Code::Lit(*code)),
            _ => None,
        }
    }

    /// `Expr::eval`, per argument.
    fn udf(&mut self, handle: &UdfHandle, args: &[Expr]) -> Option<Udf> {
        if let Some(cols) = self.number_cols(args) {
            return Some(Udf::Cols {
                handle: handle.clone(),
                cols,
            });
        }
        let args = args
            .iter()
            .map(|a| {
                Some(match (a, a.dtype()) {
                    (Expr::Col(c, _), DataType::Int) => Arg::IntCol(self.col(*c)),
                    (Expr::Col(c, _), DataType::Float) => Arg::FloatCol(self.col(*c)),
                    (Expr::Col(c, _), DataType::Str) => Arg::StrCol(self.col(*c)),
                    (_, DataType::Int) => Arg::Int(self.int(a)?),
                    (_, DataType::Float) => Arg::Float(self.float(a)?),
                    (Expr::LitStr { text, .. }, _) => Arg::StrLit(text.clone()),
                    (Expr::Udf { handle, args }, _) => Arg::Udf(self.udf(handle, args)?),
                    _ => return None,
                })
            })
            .collect::<Option<_>>()?;
        Some(Udf::Args {
            handle: handle.clone(),
            args,
        })
    }

    /// `args` as the columns of a [`Udf::Cols`] call: one to four bare
    /// columns, each typed int or float as it is stored (so the value needs
    /// no widening), or `None`.
    fn number_cols(&self, args: &[Expr]) -> Option<Box<[ColAt]>> {
        if !(1..=4).contains(&args.len()) {
            return None;
        }
        args.iter()
            .map(|a| match a {
                Expr::Col(c, dt @ (DataType::Int | DataType::Float))
                    if self.tables[c.table].column(c.col).dtype() == *dt =>
                {
                    Some(self.col(*c))
                }
                _ => None,
            })
            .collect()
    }

    fn col(&self, c: ColRef) -> ColAt {
        ColAt {
            table: self.tables[c.table].clone(),
            pos: c.table,
            col: c.col,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_storage::{schema, Catalog};
    use std::sync::Mutex;

    fn fixture() -> (Catalog, Vec<Arc<Table>>) {
        let cat = Catalog::new();
        let mut b = cat.builder("t", schema![("i", Int), ("f", Float), ("s", Str)]);
        b.push_row(&[Value::Int(10), Value::Float(1.5), Value::from("alpha")]);
        b.push_row(&[Value::Int(20), Value::Float(f64::NAN), Value::from("beta")]);
        let t = cat.register(b.finish());
        (cat, vec![t])
    }

    fn col(c: usize, dt: DataType) -> Expr {
        Expr::Col(ColRef { table: 0, col: c }, dt)
    }

    fn cmp(op: CmpOp, left: Expr, right: Expr) -> Expr {
        Expr::Cmp {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    fn agree(e: &Expr, tables: &[Arc<Table>], interner: &Interner) -> Pred {
        let p = Pred::lower(e, tables);
        for row in 0..tables[0].cardinality() {
            let rows = [row];
            let ctx = EvalCtx::new(tables, &rows, interner);
            assert_eq!(p.eval(&rows), e.eval_bool(&ctx), "{e:?} at row {row}");
        }
        p
    }

    #[test]
    fn typed_arms_need_no_fallback() {
        let (cat, tables) = fixture();
        let alpha = cat.interner().lookup("alpha").unwrap();
        let cases = [
            cmp(CmpOp::Lt, col(0, DataType::Int), Expr::LitInt(15)),
            cmp(CmpOp::Ge, col(1, DataType::Float), Expr::LitInt(1)),
            cmp(
                CmpOp::Neq,
                col(2, DataType::Str),
                Expr::LitStr {
                    code: alpha,
                    text: Arc::from("alpha"),
                },
            ),
            Expr::Not(Box::new(cmp(
                CmpOp::Eq,
                Expr::Arith {
                    op: ArithOp::Mod,
                    left: Box::new(col(0, DataType::Int)),
                    right: Box::new(Expr::LitInt(20)),
                },
                Expr::LitInt(0),
            ))),
        ];
        for e in &cases {
            let p = agree(e, &tables, cat.interner());
            assert!(!format!("{p:?}").contains("Eval"), "{p:?}");
        }
    }

    #[test]
    fn string_ordering_falls_back() {
        let (cat, tables) = fixture();
        let e = cmp(
            CmpOp::Gt,
            col(2, DataType::Str),
            Expr::LitStr {
                code: cat.interner().lookup("alpha").unwrap(),
                text: Arc::from("alpha"),
            },
        );
        let p = agree(&e, &tables, cat.interner());
        assert!(matches!(p.0, Node::Eval(_)));
    }

    #[test]
    fn udf_arguments_and_counts_match() {
        let (cat, tables) = fixture();
        // The UDF counts itself.
        let calls = Arc::new(Mutex::new(0));
        let counter = calls.clone();
        let e = Expr::Udf {
            handle: UdfHandle {
                name: Arc::from("starts_a"),
                func: Arc::new(move |args: &[Value]| {
                    *counter.lock().unwrap() += 1;
                    Value::from(
                        args[1].as_str().is_some_and(|s| s.starts_with('a'))
                            && args[0].as_i64() == Some(10)
                            && args[2].as_f64() == Some(1.5),
                    )
                }),
                ret: DataType::Int,
            },
            args: vec![
                col(0, DataType::Int),
                col(2, DataType::Str),
                col(1, DataType::Float),
            ],
        };
        let p = agree(&e, &tables, cat.interner());
        assert!(matches!(p.0, Node::Udf(_)));
        // Two rows, each evaluated once by the oracle and once lowered.
        assert_eq!(*calls.lock().unwrap(), 4);
    }

    #[test]
    fn only_bare_number_columns_take_the_column_call() {
        let (cat, tables) = fixture();
        let f = |args: Vec<Expr>| Expr::Udf {
            handle: UdfHandle {
                name: Arc::from("f"),
                // Tells an int argument from a float one.
                func: Arc::new(|args: &[Value]| {
                    Value::from(args.iter().any(|a| matches!(a, Value::Int(i) if *i > 15)))
                }),
                ret: DataType::Int,
            },
            args,
        };
        let column_call = |e: &Expr| match agree(e, &tables, cat.interner()).0 {
            Node::Udf(Udf::Cols { .. }) => true,
            Node::Udf(Udf::Args { .. }) => false,
            other => panic!("{other:?}"),
        };
        assert!(column_call(&f(vec![
            col(0, DataType::Int),
            col(1, DataType::Float)
        ])));
        for e in [
            f(vec![col(0, DataType::Int), Expr::LitInt(1)]),
            f(vec![col(2, DataType::Str)]),
            f(vec![f(vec![col(0, DataType::Int)])]),
            f(vec![col(1, DataType::Float); 5]),
            // An int column read as a float widens, as `Expr::eval` does.
            f(vec![col(0, DataType::Float)]),
        ] {
            assert!(!column_call(&e), "{e:?}");
        }
    }
}
