//! The bound query representation shared by every engine.

use std::sync::Arc;

use skinner_storage::{DataType, Table};

use crate::expr::{ColRef, Expr};
use crate::graph::JoinGraph;
use crate::table_set::TableSet;

/// Equality join predicate between two columns of different tables. Split
/// out from generic predicates because every engine fast-paths it: hash
/// indexes, hash joins, and the multi-way join's index "jumps".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EquiPred {
    pub left: ColRef,
    pub right: ColRef,
}

impl EquiPred {
    /// The two tables this predicate connects, as a set.
    pub fn table_set(&self) -> TableSet {
        TableSet::from_iter([self.left.table, self.right.table])
    }

    /// The column of this predicate on table `t`, if any.
    pub fn side_on(&self, t: usize) -> Option<ColRef> {
        if self.left.table == t {
            Some(self.left)
        } else if self.right.table == t {
            Some(self.right)
        } else {
            None
        }
    }

    /// The column of the *other* side relative to table `t`.
    pub fn other_side(&self, t: usize) -> Option<ColRef> {
        if self.left.table == t {
            Some(self.right)
        } else if self.right.table == t {
            Some(self.left)
        } else {
            None
        }
    }
}

/// Non-equality join predicate (theta comparison, UDF, boolean combination)
/// spanning `tables`.
#[derive(Debug, Clone)]
pub struct GenericPred {
    pub tables: TableSet,
    pub expr: Expr,
}

/// Aggregate functions supported by the post-processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

/// One output column of the query.
#[derive(Debug, Clone)]
pub enum SelectItem {
    /// Plain expression over join-result tuples (must be a grouping key if
    /// the query aggregates).
    Expr { expr: Expr, name: String },
    /// Aggregate; `arg` is `None` only for `COUNT(*)`.
    Agg {
        func: AggFunc,
        arg: Option<Expr>,
        name: String,
    },
}

impl SelectItem {
    pub fn name(&self) -> &str {
        match self {
            SelectItem::Expr { name, .. } => name,
            SelectItem::Agg { name, .. } => name,
        }
    }

    pub fn is_aggregate(&self) -> bool {
        matches!(self, SelectItem::Agg { .. })
    }
}

/// Sort key over *output* columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderKey {
    pub output_col: usize,
    pub asc: bool,
}

/// Sort direction alias used by harness code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    Asc,
    Desc,
}

/// A fully bound SPJ(+GA) query: the input to every evaluation strategy.
#[derive(Debug, Clone)]
pub struct JoinQuery {
    /// Base tables in FROM order. Table *positions* in all predicates and
    /// expressions refer to this vector.
    pub tables: Vec<Arc<Table>>,
    /// Display aliases, parallel to `tables`.
    pub aliases: Vec<String>,
    /// Per-table unary conjuncts, applied by pre-processing.
    pub unary: Vec<Vec<Expr>>,
    /// Equality join predicates.
    pub equi_preds: Vec<EquiPred>,
    /// Other join predicates.
    pub generic_preds: Vec<GenericPred>,
    /// Output columns.
    pub select: Vec<SelectItem>,
    /// Grouping expressions (subset semantics: every non-aggregate select
    /// item must appear here; the binder enforces it).
    pub group_by: Vec<Expr>,
    /// Ordering over output columns.
    pub order_by: Vec<OrderKey>,
    pub limit: Option<usize>,
    pub distinct: bool,
    /// Set when a constant conjunct folded to FALSE; the result is empty
    /// regardless of data.
    pub always_false: bool,
}

impl JoinQuery {
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// True if any select item aggregates.
    pub fn has_aggregates(&self) -> bool {
        self.select.iter().any(SelectItem::is_aggregate)
    }

    /// Join graph over this query's predicates (equality + generic).
    pub fn join_graph(&self) -> JoinGraph {
        let sets = self
            .equi_preds
            .iter()
            .map(EquiPred::table_set)
            .chain(self.generic_preds.iter().map(|p| p.tables));
        JoinGraph::new(self.tables.len(), sets)
    }

    /// Equality predicates that involve table `t`.
    pub fn equi_preds_on(&self, t: usize) -> impl Iterator<Item = &EquiPred> + '_ {
        self.equi_preds
            .iter()
            .filter(move |p| p.left.table == t || p.right.table == t)
    }

    /// Columns of table `t` that appear in some equality join predicate —
    /// the columns pre-processing fetches join indexes for (paper Section 4.5).
    pub fn equi_join_columns(&self, t: usize) -> Vec<usize> {
        let mut cols: Vec<usize> = self
            .equi_preds_on(t)
            .filter_map(|p| p.side_on(t))
            .map(|c| c.col)
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Data type of a column reference.
    pub fn col_type(&self, c: ColRef) -> DataType {
        self.tables[c.table].schema().field(c.col).dtype
    }

    /// Output column types, derivable without executing (used to build the
    /// schema of materialized temp tables for decomposed queries).
    pub fn output_types(&self) -> Vec<DataType> {
        self.select
            .iter()
            .map(|item| match item {
                SelectItem::Expr { expr, .. } => expr.dtype(),
                SelectItem::Agg { func, arg, .. } => match func {
                    AggFunc::Count => DataType::Int,
                    AggFunc::Avg => DataType::Float,
                    AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                        arg.as_ref().map(|a| a.dtype()).unwrap_or(DataType::Int)
                    }
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equi_pred_sides() {
        let p = EquiPred {
            left: ColRef { table: 0, col: 3 },
            right: ColRef { table: 2, col: 1 },
        };
        assert_eq!(p.table_set(), TableSet::from_iter([0, 2]));
        assert_eq!(p.side_on(0), Some(ColRef { table: 0, col: 3 }));
        assert_eq!(p.other_side(0), Some(ColRef { table: 2, col: 1 }));
        assert_eq!(p.side_on(1), None);
    }

    #[test]
    fn select_item_names() {
        let item = SelectItem::Agg {
            func: AggFunc::Count,
            arg: None,
            name: "cnt".into(),
        };
        assert_eq!(item.name(), "cnt");
        assert!(item.is_aggregate());
    }
}
