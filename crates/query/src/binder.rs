//! Name resolution: AST → bound [`JoinQuery`].
//!
//! The binder also performs the predicate classification the engines rely
//! on: conjuncts of the WHERE clause are split into per-table *unary*
//! predicates (applied during pre-processing, paper Section 3), *equality
//! join* predicates (hash-indexable) and *generic join* predicates (theta /
//! UDF, evaluated tuple-at-a-time).

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use skinner_storage::{Catalog, DataType, Table};

use crate::ast::{AstExpr, BinOp, SelectStmt};
use crate::expr::{like_match, ArithOp, CmpOp, ColRef, EvalCtx, Expr, UdfHandle};
use crate::parser::agg_from_name;
use crate::query::{AggFunc, EquiPred, GenericPred, JoinQuery, OrderKey, SelectItem};
use crate::udf::UdfRegistry;

/// Binding error.
#[derive(Debug, Clone, PartialEq)]
pub struct BindError {
    pub message: String,
}

impl BindError {
    fn new(msg: impl Into<String>) -> Self {
        BindError {
            message: msg.into(),
        }
    }
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bind error: {}", self.message)
    }
}

impl std::error::Error for BindError {}

/// Bind `stmt` against `catalog` and `udfs`.
pub fn bind_select(
    stmt: &SelectStmt,
    catalog: &Catalog,
    udfs: &UdfRegistry,
) -> Result<JoinQuery, BindError> {
    Binder {
        catalog,
        udfs,
        tables: Vec::new(),
        aliases: Vec::new(),
    }
    .bind(stmt)
}

struct Binder<'a> {
    catalog: &'a Catalog,
    udfs: &'a UdfRegistry,
    tables: Vec<Arc<Table>>,
    aliases: Vec<String>,
}

impl<'a> Binder<'a> {
    fn bind(mut self, stmt: &SelectStmt) -> Result<JoinQuery, BindError> {
        // FROM clause.
        let mut seen = HashSet::new();
        for tr in &stmt.from {
            let table = self
                .catalog
                .get(&tr.table)
                .ok_or_else(|| BindError::new(format!("unknown table {:?}", tr.table)))?;
            let alias = tr
                .alias
                .clone()
                .unwrap_or_else(|| tr.table.clone())
                .to_ascii_lowercase();
            if !seen.insert(alias.clone()) {
                return Err(BindError::new(format!("duplicate table alias {alias:?}")));
            }
            self.tables.push(table);
            self.aliases.push(alias);
        }
        if self.tables.is_empty() {
            return Err(BindError::new("query must reference at least one table"));
        }
        if self.tables.len() > 64 {
            return Err(BindError::new("at most 64 tables per query"));
        }

        // WHERE clause: classify conjuncts.
        let mut unary: Vec<Vec<Expr>> = vec![Vec::new(); self.tables.len()];
        let mut equi_preds = Vec::new();
        let mut generic_preds = Vec::new();
        let mut always_false = false;
        if let Some(pred) = &stmt.predicate {
            for conjunct in pred.clone().conjuncts() {
                let bound = self.bind_expr(&conjunct)?;
                if bound.dtype() == DataType::Str || bound.dtype() == DataType::Float {
                    return Err(BindError::new(format!(
                        "predicate {conjunct} is not boolean"
                    )));
                }
                let tset = bound.table_set();
                match tset.len() {
                    0 => {
                        // Constant: fold now.
                        let ctx = EvalCtx::new(&[], &[], self.catalog.interner());
                        if !bound.eval_bool(&ctx) {
                            always_false = true;
                        }
                    }
                    1 => {
                        let t = tset.iter().next().unwrap();
                        unary[t].push(bound);
                    }
                    _ => {
                        if let Some(ep) = as_equi_pred(&bound) {
                            let lt = self.col_type(ep.left);
                            let rt = self.col_type(ep.right);
                            if lt != rt {
                                return Err(BindError::new(format!(
                                    "equality join between mismatched types {lt} and {rt}"
                                )));
                            }
                            equi_preds.push(ep);
                        } else {
                            generic_preds.push(GenericPred {
                                tables: tset,
                                expr: bound,
                            });
                        }
                    }
                }
            }
        }

        // GROUP BY.
        let mut group_by = Vec::new();
        let mut group_keys: HashSet<String> = HashSet::new();
        for g in &stmt.group_by {
            group_keys.insert(g.to_string());
            group_by.push(self.bind_expr(g)?);
        }

        // Projections.
        let mut select = Vec::new();
        let mut proj_displays: Vec<String> = Vec::new();
        let mut proj_aliases: Vec<Option<String>> = Vec::new();
        if stmt.projections.is_empty() {
            // SELECT *: all columns of all tables in order.
            for (t, table) in self.tables.iter().enumerate() {
                for (c, f) in table.schema().fields().iter().enumerate() {
                    let name = format!("{}.{}", self.aliases[t], f.name);
                    select.push(SelectItem::Expr {
                        expr: Expr::Col(ColRef { table: t, col: c }, f.dtype),
                        name: name.clone(),
                    });
                    proj_displays.push(name);
                    proj_aliases.push(None);
                }
            }
        } else {
            for p in &stmt.projections {
                let name = p
                    .alias
                    .clone()
                    .unwrap_or_else(|| p.expr.to_string())
                    .to_ascii_lowercase();
                let item = self.bind_projection(&p.expr, name.clone())?;
                select.push(item);
                proj_displays.push(p.expr.to_string());
                proj_aliases.push(p.alias.clone().map(|a| a.to_ascii_lowercase()));
            }
        }

        // Grouping validation: with aggregates or GROUP BY present, every
        // plain select item must be a grouping expression.
        let has_agg = select.iter().any(SelectItem::is_aggregate);
        if has_agg || !group_by.is_empty() {
            for (i, item) in select.iter().enumerate() {
                if !item.is_aggregate() && !group_keys.contains(&proj_displays[i]) {
                    return Err(BindError::new(format!(
                        "non-aggregate output {:?} must appear in GROUP BY",
                        proj_displays[i]
                    )));
                }
            }
        }

        // ORDER BY: resolve to output columns (by alias, display text or
        // 1-based ordinal).
        let mut order_by = Vec::new();
        for (e, asc) in &stmt.order_by {
            let idx = self.resolve_output_column(e, &proj_displays, &proj_aliases)?;
            order_by.push(OrderKey {
                output_col: idx,
                asc: *asc,
            });
        }

        Ok(JoinQuery {
            tables: self.tables,
            aliases: self.aliases,
            unary,
            equi_preds,
            generic_preds,
            select,
            group_by,
            order_by,
            limit: stmt.limit,
            distinct: stmt.distinct,
            always_false,
        })
    }

    fn resolve_output_column(
        &self,
        e: &AstExpr,
        displays: &[String],
        aliases: &[Option<String>],
    ) -> Result<usize, BindError> {
        if let AstExpr::IntLit(n) = e {
            let i = *n as usize;
            if i >= 1 && i <= displays.len() {
                return Ok(i - 1);
            }
            return Err(BindError::new(format!("ORDER BY ordinal {n} out of range")));
        }
        if let AstExpr::Column {
            qualifier: None,
            name,
        } = e
        {
            let lname = name.to_ascii_lowercase();
            if let Some(i) = aliases.iter().position(|a| a.as_deref() == Some(&lname)) {
                return Ok(i);
            }
        }
        let d = e.to_string();
        if let Some(i) = displays.iter().position(|x| *x == d) {
            return Ok(i);
        }
        Err(BindError::new(format!(
            "ORDER BY expression {d} does not match any output column"
        )))
    }

    fn bind_projection(&self, e: &AstExpr, name: String) -> Result<SelectItem, BindError> {
        match e {
            AstExpr::CountStar => Ok(SelectItem::Agg {
                func: AggFunc::Count,
                arg: None,
                name,
            }),
            AstExpr::Call { name: fname, args } => {
                if let Some(agg) = agg_from_name(fname) {
                    if args.len() != 1 {
                        return Err(BindError::new(format!(
                            "aggregate {fname} takes exactly one argument"
                        )));
                    }
                    let arg = self.bind_expr(&args[0])?;
                    if !matches!(
                        agg,
                        crate::ast::AstAgg::Count
                            | crate::ast::AstAgg::Min
                            | crate::ast::AstAgg::Max
                    ) && arg.dtype() == DataType::Str
                    {
                        return Err(BindError::new(format!(
                            "aggregate {fname} requires a numeric argument"
                        )));
                    }
                    let func = match agg {
                        crate::ast::AstAgg::Count => AggFunc::Count,
                        crate::ast::AstAgg::Sum => AggFunc::Sum,
                        crate::ast::AstAgg::Min => AggFunc::Min,
                        crate::ast::AstAgg::Max => AggFunc::Max,
                        crate::ast::AstAgg::Avg => AggFunc::Avg,
                    };
                    return Ok(SelectItem::Agg {
                        func,
                        arg: Some(arg),
                        name,
                    });
                }
                Ok(SelectItem::Expr {
                    expr: self.bind_expr(e)?,
                    name,
                })
            }
            _ => Ok(SelectItem::Expr {
                expr: self.bind_expr(e)?,
                name,
            }),
        }
    }

    fn col_type(&self, c: ColRef) -> DataType {
        self.tables[c.table].schema().field(c.col).dtype
    }

    fn resolve_column(
        &self,
        qualifier: Option<&str>,
        name: &str,
    ) -> Result<(ColRef, DataType), BindError> {
        match qualifier {
            Some(q) => {
                let lq = q.to_ascii_lowercase();
                let t = self
                    .aliases
                    .iter()
                    .position(|a| *a == lq)
                    .ok_or_else(|| BindError::new(format!("unknown table alias {q:?}")))?;
                let col = self.tables[t]
                    .schema()
                    .index_of(name)
                    .ok_or_else(|| BindError::new(format!("table {q:?} has no column {name:?}")))?;
                let dt = self.tables[t].schema().field(col).dtype;
                Ok((ColRef { table: t, col }, dt))
            }
            None => {
                let mut found = None;
                for (t, table) in self.tables.iter().enumerate() {
                    if let Some(col) = table.schema().index_of(name) {
                        if found.is_some() {
                            return Err(BindError::new(format!(
                                "ambiguous column {name:?}; qualify it"
                            )));
                        }
                        found = Some((t, col));
                    }
                }
                let (t, col) =
                    found.ok_or_else(|| BindError::new(format!("unknown column {name:?}")))?;
                let dt = self.tables[t].schema().field(col).dtype;
                Ok((ColRef { table: t, col }, dt))
            }
        }
    }

    fn bind_expr(&self, e: &AstExpr) -> Result<Expr, BindError> {
        match e {
            AstExpr::Column { qualifier, name } => {
                let (c, dt) = self.resolve_column(qualifier.as_deref(), name)?;
                Ok(Expr::Col(c, dt))
            }
            AstExpr::IntLit(i) => Ok(Expr::LitInt(*i)),
            AstExpr::FloatLit(x) => Ok(Expr::LitFloat(*x)),
            AstExpr::StrLit(s) => {
                let code = self.catalog.interner().intern(s);
                Ok(Expr::LitStr {
                    code,
                    text: Arc::from(s.as_str()),
                })
            }
            AstExpr::Binary { op, left, right } => {
                let l = self.bind_expr(left)?;
                let r = self.bind_expr(right)?;
                match op {
                    BinOp::And => Ok(flatten_and(l, r)),
                    BinOp::Or => Ok(flatten_or(l, r)),
                    BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        let cmp = match op {
                            BinOp::Eq => CmpOp::Eq,
                            BinOp::Neq => CmpOp::Neq,
                            BinOp::Lt => CmpOp::Lt,
                            BinOp::Le => CmpOp::Le,
                            BinOp::Gt => CmpOp::Gt,
                            BinOp::Ge => CmpOp::Ge,
                            _ => unreachable!(),
                        };
                        let ls = l.dtype() == DataType::Str;
                        let rs = r.dtype() == DataType::Str;
                        if ls != rs {
                            return Err(BindError::new(format!(
                                "cannot compare string with number in {e}"
                            )));
                        }
                        Ok(Expr::Cmp {
                            op: cmp,
                            left: Box::new(l),
                            right: Box::new(r),
                        })
                    }
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                        if l.dtype() == DataType::Str || r.dtype() == DataType::Str {
                            return Err(BindError::new(format!("arithmetic on strings in {e}")));
                        }
                        let ar = match op {
                            BinOp::Add => ArithOp::Add,
                            BinOp::Sub => ArithOp::Sub,
                            BinOp::Mul => ArithOp::Mul,
                            BinOp::Div => ArithOp::Div,
                            BinOp::Mod => ArithOp::Mod,
                            _ => unreachable!(),
                        };
                        Ok(Expr::Arith {
                            op: ar,
                            left: Box::new(l),
                            right: Box::new(r),
                        })
                    }
                }
            }
            AstExpr::Not(inner) => Ok(Expr::Not(Box::new(self.bind_expr(inner)?))),
            AstExpr::Neg(inner) => {
                let b = self.bind_expr(inner)?;
                if b.dtype() == DataType::Str {
                    return Err(BindError::new("cannot negate a string"));
                }
                Ok(Expr::Neg(Box::new(b)))
            }
            AstExpr::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let x = self.bind_expr(expr)?;
                let lo = self.bind_expr(lo)?;
                let hi = self.bind_expr(hi)?;
                let ge = Expr::Cmp {
                    op: CmpOp::Ge,
                    left: Box::new(x.clone()),
                    right: Box::new(lo),
                };
                let le = Expr::Cmp {
                    op: CmpOp::Le,
                    left: Box::new(x),
                    right: Box::new(hi),
                };
                if *negated {
                    Ok(Expr::Not(Box::new(Expr::And(vec![ge, le]))))
                } else {
                    Ok(Expr::And(vec![ge, le]))
                }
            }
            AstExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let arg = self.bind_expr(expr)?;
                if arg.dtype() != DataType::Str {
                    return Err(BindError::new("LIKE requires a string argument"));
                }
                // Pre-evaluate the pattern against every interned string.
                // Tables are immutable and loaded before binding, so the
                // bitmap covers every code the argument can produce.
                let interner = self.catalog.interner();
                let n = interner.len();
                let mut matches = Vec::with_capacity(n);
                for code in 0..n as u32 {
                    matches.push(like_match(pattern, &interner.resolve(code)));
                }
                Ok(Expr::LikeSet {
                    arg: Box::new(arg),
                    matches: Arc::new(matches),
                    pattern: Arc::from(pattern.as_str()),
                    negated: *negated,
                })
            }
            AstExpr::InList {
                expr,
                list,
                negated,
            } => {
                let arg = self.bind_expr(expr)?;
                let mut set = HashSet::with_capacity(list.len());
                for item in list {
                    let b = self.bind_expr(item)?;
                    let key = match (&b, arg.dtype()) {
                        (Expr::LitInt(i), DataType::Int) => *i as u64,
                        (Expr::LitInt(i), DataType::Float) => (*i as f64).to_bits(),
                        (Expr::LitFloat(x), DataType::Float) => {
                            let f = if *x == 0.0 { 0.0 } else { *x };
                            f.to_bits()
                        }
                        (Expr::LitStr { code, .. }, DataType::Str) => *code as u64,
                        _ => {
                            return Err(BindError::new(format!(
                                "IN list item {item} incompatible with argument type"
                            )))
                        }
                    };
                    set.insert(key);
                }
                Ok(Expr::InSet {
                    arg: Box::new(arg),
                    set: Arc::new(set),
                    negated: *negated,
                })
            }
            AstExpr::InSelect {
                expr,
                table,
                column,
                negated,
            } => {
                let arg = self.bind_expr(expr)?;
                let inner = self
                    .catalog
                    .get(table)
                    .ok_or_else(|| BindError::new(format!("unknown table {table:?} in IN")))?;
                let col = inner.schema().index_of(column).ok_or_else(|| {
                    BindError::new(format!("table {table:?} has no column {column:?}"))
                })?;
                let dt = inner.schema().field(col).dtype;
                if dt != arg.dtype() {
                    return Err(BindError::new(format!(
                        "IN (SELECT …) type mismatch: {} vs {}",
                        arg.dtype(),
                        dt
                    )));
                }
                let column_data = inner.column(col);
                let mut set = HashSet::with_capacity(inner.num_rows());
                for row in 0..inner.cardinality() {
                    set.insert(column_data.key_at(row));
                }
                Ok(Expr::InSet {
                    arg: Box::new(arg),
                    set: Arc::new(set),
                    negated: *negated,
                })
            }
            AstExpr::Call { name, args } => {
                if agg_from_name(name).is_some() {
                    return Err(BindError::new(format!(
                        "aggregate {name} only allowed at the top level of SELECT"
                    )));
                }
                let id = self
                    .udfs
                    .lookup(name)
                    .ok_or_else(|| BindError::new(format!("unknown function {name:?}")))?;
                let bound: Result<Vec<Expr>, BindError> =
                    args.iter().map(|a| self.bind_expr(a)).collect();
                Ok(Expr::Udf {
                    handle: UdfHandle {
                        name: Arc::from(self.udfs.name(id)),
                        func: self.udfs.func(id),
                        ret: self.udfs.return_type(id),
                    },
                    args: bound?,
                })
            }
            AstExpr::CountStar => Err(BindError::new(
                "COUNT(*) only allowed at the top level of SELECT",
            )),
        }
    }
}

fn flatten_and(l: Expr, r: Expr) -> Expr {
    let mut v = Vec::new();
    for e in [l, r] {
        match e {
            Expr::And(mut es) => v.append(&mut es),
            other => v.push(other),
        }
    }
    Expr::And(v)
}

fn flatten_or(l: Expr, r: Expr) -> Expr {
    let mut v = Vec::new();
    for e in [l, r] {
        match e {
            Expr::Or(mut es) => v.append(&mut es),
            other => v.push(other),
        }
    }
    Expr::Or(v)
}

/// Recognize `colA = colB` across two different tables.
fn as_equi_pred(e: &Expr) -> Option<EquiPred> {
    if let Expr::Cmp {
        op: CmpOp::Eq,
        left,
        right,
    } = e
    {
        if let (Expr::Col(a, _), Expr::Col(b, _)) = (left.as_ref(), right.as_ref()) {
            if a.table != b.table {
                return Some(EquiPred {
                    left: *a,
                    right: *b,
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use crate::table_set::TableSet;
    use skinner_storage::{schema, Value};

    fn setup() -> (Catalog, UdfRegistry) {
        let cat = Catalog::new();
        let mut a = cat.builder("a", schema![("id", Int), ("x", Int), ("name", Str)]);
        a.push_row(&[Value::Int(1), Value::Int(10), Value::from("ann")]);
        a.push_row(&[Value::Int(2), Value::Int(20), Value::from("bob")]);
        cat.register(a.finish());
        let mut b = cat.builder("b", schema![("id", Int), ("aid", Int), ("w", Float)]);
        b.push_row(&[Value::Int(7), Value::Int(1), Value::Float(0.5)]);
        cat.register(b.finish());
        let udfs = UdfRegistry::new();
        udfs.register("always_true", |_| Value::from(true));
        (cat, udfs)
    }

    fn bind(sql: &str, cat: &Catalog, udfs: &UdfRegistry) -> Result<JoinQuery, BindError> {
        match parse_statement(sql).unwrap() {
            crate::ast::Statement::Select(s) => bind_select(&s, cat, udfs),
            _ => panic!("not a select"),
        }
    }

    #[test]
    fn classifies_predicates() {
        let (cat, udfs) = setup();
        let q = bind(
            "SELECT a.id FROM a, b WHERE a.x > 5 AND a.id = b.aid AND a.x + b.w > 3",
            &cat,
            &udfs,
        )
        .unwrap();
        assert_eq!(q.unary[0].len(), 1);
        assert_eq!(q.unary[1].len(), 0);
        assert_eq!(q.equi_preds.len(), 1);
        assert_eq!(q.generic_preds.len(), 1);
        assert_eq!(q.generic_preds[0].tables, TableSet::from_iter([0, 1]));
    }

    #[test]
    fn constant_false_detected() {
        let (cat, udfs) = setup();
        let q = bind("SELECT a.id FROM a WHERE 1 = 2", &cat, &udfs).unwrap();
        assert!(q.always_false);
        let q = bind("SELECT a.id FROM a WHERE 1 = 1", &cat, &udfs).unwrap();
        assert!(!q.always_false);
    }

    #[test]
    fn star_expansion() {
        let (cat, udfs) = setup();
        let q = bind("SELECT * FROM a, b", &cat, &udfs).unwrap();
        assert_eq!(q.select.len(), 6);
        assert_eq!(q.select[0].name(), "a.id");
        assert_eq!(q.select[5].name(), "b.w");
    }

    #[test]
    fn aggregates_and_grouping() {
        let (cat, udfs) = setup();
        let q = bind(
            "SELECT a.x, COUNT(*) AS cnt, SUM(b.w) FROM a, b WHERE a.id = b.aid \
             GROUP BY a.x ORDER BY cnt DESC LIMIT 5",
            &cat,
            &udfs,
        )
        .unwrap();
        assert!(q.has_aggregates());
        assert_eq!(q.group_by.len(), 1);
        assert_eq!(q.order_by[0].output_col, 1);
        assert!(!q.order_by[0].asc);
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn ungrouped_non_aggregate_rejected() {
        let (cat, udfs) = setup();
        let e = bind("SELECT a.x, COUNT(*) FROM a", &cat, &udfs).unwrap_err();
        assert!(e.message.contains("GROUP BY"), "{e}");
    }

    #[test]
    fn ambiguous_column_rejected() {
        let (cat, udfs) = setup();
        let e = bind("SELECT id FROM a, b", &cat, &udfs).unwrap_err();
        assert!(e.message.contains("ambiguous"), "{e}");
    }

    #[test]
    fn unknown_names_rejected() {
        let (cat, udfs) = setup();
        assert!(bind("SELECT z FROM a", &cat, &udfs).is_err());
        assert!(bind("SELECT a.id FROM nope", &cat, &udfs).is_err());
        assert!(bind("SELECT ghost(a.id) FROM a", &cat, &udfs).is_err());
    }

    #[test]
    fn udf_binds() {
        let (cat, udfs) = setup();
        let q = bind(
            "SELECT a.id FROM a, b WHERE always_true(a.x, b.w)",
            &cat,
            &udfs,
        )
        .unwrap();
        assert_eq!(q.generic_preds.len(), 1);
    }

    #[test]
    fn in_select_materializes_keys() {
        let (cat, udfs) = setup();
        let q = bind(
            "SELECT a.id FROM a WHERE a.id IN (SELECT aid FROM b)",
            &cat,
            &udfs,
        )
        .unwrap();
        match &q.unary[0][0] {
            Expr::InSet { set, .. } => assert_eq!(set.len(), 1),
            other => panic!("expected InSet, got {other:?}"),
        }
    }

    #[test]
    fn like_precomputes_bitmap() {
        let (cat, udfs) = setup();
        let q = bind("SELECT a.id FROM a WHERE a.name LIKE 'a%'", &cat, &udfs).unwrap();
        match &q.unary[0][0] {
            Expr::LikeSet { matches, .. } => {
                let ann = cat.interner().lookup("ann").unwrap() as usize;
                let bob = cat.interner().lookup("bob").unwrap() as usize;
                assert!(matches[ann]);
                assert!(!matches[bob]);
            }
            other => panic!("expected LikeSet, got {other:?}"),
        }
    }

    #[test]
    fn type_mismatch_rejected() {
        let (cat, udfs) = setup();
        assert!(bind("SELECT a.id FROM a WHERE a.name = 3", &cat, &udfs).is_err());
        assert!(bind("SELECT a.name + 1 FROM a", &cat, &udfs).is_err());
    }

    #[test]
    fn self_join_with_aliases() {
        let (cat, udfs) = setup();
        let q = bind("SELECT x.id FROM a x, a y WHERE x.id = y.x", &cat, &udfs).unwrap();
        assert_eq!(q.num_tables(), 2);
        assert_eq!(q.equi_preds.len(), 1);
    }

    #[test]
    fn order_by_ordinal() {
        let (cat, udfs) = setup();
        let q = bind("SELECT a.id, a.x FROM a ORDER BY 2", &cat, &udfs).unwrap();
        assert_eq!(q.order_by[0].output_col, 1);
    }

    #[test]
    fn between_desugars() {
        let (cat, udfs) = setup();
        let q = bind("SELECT a.id FROM a WHERE a.x BETWEEN 5 AND 15", &cat, &udfs).unwrap();
        assert!(matches!(&q.unary[0][0], Expr::And(es) if es.len() == 2));
    }
}
