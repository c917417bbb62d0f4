//! Logical operator payloads (children abstracted away).

use ruletest_common::{wire_enum, wire_names, wire_record, ColId, TableId};
use ruletest_expr::{AggCall, Expr};
use std::fmt;

/// Join flavors. `Inner` with a TRUE predicate doubles as a cross product.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    Inner,
    LeftOuter,
    RightOuter,
    FullOuter,
    /// Left semi-join: emits left rows with at least one match.
    LeftSemi,
    /// Left anti-join: emits left rows with no match.
    LeftAnti,
}

wire_names!(JoinKind {
    Inner => "inner",
    LeftOuter => "left_outer",
    RightOuter => "right_outer",
    FullOuter => "full_outer",
    LeftSemi => "left_semi",
    LeftAnti => "left_anti",
});

impl JoinKind {
    /// True for the kinds whose output contains both input schemas.
    pub fn emits_both_sides(self) -> bool {
        matches!(
            self,
            JoinKind::Inner | JoinKind::LeftOuter | JoinKind::RightOuter | JoinKind::FullOuter
        )
    }

    /// True if unmatched left rows survive (padded or bare).
    pub fn preserves_left(self) -> bool {
        matches!(
            self,
            JoinKind::LeftOuter | JoinKind::FullOuter | JoinKind::LeftAnti
        )
    }

    /// True if unmatched right rows survive.
    pub fn preserves_right(self) -> bool {
        matches!(self, JoinKind::RightOuter | JoinKind::FullOuter)
    }

    /// SQL join keyword.
    pub fn sql(self) -> &'static str {
        match self {
            JoinKind::Inner => "INNER JOIN",
            JoinKind::LeftOuter => "LEFT OUTER JOIN",
            JoinKind::RightOuter => "RIGHT OUTER JOIN",
            JoinKind::FullOuter => "FULL OUTER JOIN",
            JoinKind::LeftSemi => "SEMI JOIN",
            JoinKind::LeftAnti => "ANTI JOIN",
        }
    }
}

impl fmt::Display for JoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.sql())
    }
}

/// A sort key: column plus direction. NULLs sort first (see
/// `Value::total_cmp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SortKey {
    pub col: ColId,
    pub descending: bool,
}

wire_record!(SortKey { "col" => col, "desc" => descending });

impl SortKey {
    pub fn asc(col: ColId) -> Self {
        Self {
            col,
            descending: false,
        }
    }

    pub fn desc(col: ColId) -> Self {
        Self {
            col,
            descending: true,
        }
    }
}

/// Operator kind tags, used by rule patterns and display.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    Get,
    Select,
    Project,
    Join,
    GbAgg,
    UnionAll,
    Distinct,
    Sort,
    Top,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::Get => "Get",
            OpKind::Select => "Select",
            OpKind::Project => "Project",
            OpKind::Join => "Join",
            OpKind::GbAgg => "GbAgg",
            OpKind::UnionAll => "UnionAll",
            OpKind::Distinct => "Distinct",
            OpKind::Sort => "Sort",
            OpKind::Top => "Top",
        };
        write!(f, "{s}")
    }
}

/// A logical operator instantiated with its arguments, children abstracted.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Operator {
    /// Base-table access; `cols` are the fresh column ids minted for this
    /// instantiation (one per table column, in catalog order).
    Get { table: TableId, cols: Vec<ColId> },
    /// Filter.
    Select { predicate: Expr },
    /// Computing projection: each output column id is bound to an
    /// expression over the child's columns.
    Project { outputs: Vec<(ColId, Expr)> },
    /// Binary join with an ON predicate over both children's columns.
    Join { kind: JoinKind, predicate: Expr },
    /// Group-By Aggregate. An empty `group_by` is scalar aggregation.
    GbAgg {
        group_by: Vec<ColId>,
        aggs: Vec<AggCall>,
    },
    /// Bag union. `outputs` mints the output column ids; `left_cols` and
    /// `right_cols` name, *by id*, which child column feeds each output
    /// position. Id-based (rather than positional) mapping keeps the
    /// operator well-defined when transformations permute a child's column
    /// order (e.g. join commutativity below a union).
    UnionAll {
        outputs: Vec<ColId>,
        left_cols: Vec<ColId>,
        right_cols: Vec<ColId>,
    },
    /// Duplicate elimination over the child's full row.
    Distinct,
    /// ORDER BY. A logical no-op for result-set comparison (results compare
    /// as multisets) but kept because it changes plan shape and cost.
    Sort { keys: Vec<SortKey> },
    /// ORDER BY ... FETCH FIRST n: deterministic via full-row tie-break.
    Top { n: u64, keys: Vec<SortKey> },
}

wire_enum!(Operator tagged "op" {
    "get" => Get { "cols" => cols, "table" => table },
    "select" => Select { "pred" => predicate },
    "project" => Project { "outputs" => outputs via projections },
    "join" => Join { "kind" => kind, "pred" => predicate },
    "gbagg" => GbAgg { "aggs" => aggs, "group_by" => group_by },
    "union_all" => UnionAll {
        "left_cols" => left_cols,
        "outputs" => outputs,
        "right_cols" => right_cols,
    },
    "distinct" => Distinct {},
    "sort" => Sort { "keys" => keys },
    "top" => Top { "keys" => keys, "n" => n },
});

/// `via projections`: a computing projection's `(output id, expression)`
/// list as `[{"col": id, "expr": e}, ..]`. Hand-written because the element
/// is a tuple, whose own wire form is a two-element array.
pub mod projections {
    use ruletest_common::json::JsonReader;
    use ruletest_common::wire::{array, field, missing, DecodeError};
    use ruletest_common::{ColId, JsonWriter};
    use ruletest_expr::Expr;

    pub fn encode(outputs: &[(ColId, Expr)], w: &mut JsonWriter<'_>) {
        w.array(|w| {
            for (c, e) in outputs {
                w.object(|w| {
                    w.member("col", c);
                    w.member("expr", e);
                });
            }
        });
    }

    pub fn decode(r: &mut JsonReader<'_>) -> Result<Vec<(ColId, Expr)>, DecodeError> {
        array(r, |r| {
            let (mut col, mut expr) = (None, None);
            r.object()?;
            while let Some(key) = r.key()? {
                match &*key {
                    "col" => col = Some(field(r, "col")?),
                    "expr" => expr = Some(field(r, "expr")?),
                    _ => r.skip()?,
                }
            }
            let col = col.ok_or_else(|| missing("col"))?;
            Ok((col, expr.ok_or_else(|| missing("expr"))?))
        })
    }
}

impl Operator {
    /// This operator's kind tag.
    pub fn kind(&self) -> OpKind {
        match self {
            Operator::Get { .. } => OpKind::Get,
            Operator::Select { .. } => OpKind::Select,
            Operator::Project { .. } => OpKind::Project,
            Operator::Join { .. } => OpKind::Join,
            Operator::GbAgg { .. } => OpKind::GbAgg,
            Operator::UnionAll { .. } => OpKind::UnionAll,
            Operator::Distinct => OpKind::Distinct,
            Operator::Sort { .. } => OpKind::Sort,
            Operator::Top { .. } => OpKind::Top,
        }
    }

    /// Number of children this operator requires.
    pub fn arity(&self) -> usize {
        match self {
            Operator::Get { .. } => 0,
            Operator::Join { .. } | Operator::UnionAll { .. } => 2,
            _ => 1,
        }
    }

    /// The join kind, if this is a join.
    pub fn join_kind(&self) -> Option<JoinKind> {
        match self {
            Operator::Join { kind, .. } => Some(*kind),
            _ => None,
        }
    }

    /// Short human-readable label (for EXPLAIN-style dumps).
    pub fn label(&self) -> String {
        match self {
            Operator::Get { table, .. } => format!("Get({table})"),
            Operator::Select { predicate } => format!("Select[{predicate}]"),
            Operator::Project { outputs } => format!("Project[{} cols]", outputs.len()),
            Operator::Join { kind, predicate } => format!("{kind}[{predicate}]"),
            Operator::GbAgg { group_by, aggs } => {
                format!("GbAgg[{} keys, {} aggs]", group_by.len(), aggs.len())
            }
            Operator::UnionAll { .. } => "UnionAll".to_string(),
            Operator::Distinct => "Distinct".to_string(),
            Operator::Sort { keys } => format!("Sort[{} keys]", keys.len()),
            Operator::Top { n, .. } => format!("Top[{n}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_per_kind() {
        assert_eq!(
            Operator::Get {
                table: TableId(0),
                cols: vec![]
            }
            .arity(),
            0
        );
        assert_eq!(
            Operator::Join {
                kind: JoinKind::Inner,
                predicate: Expr::true_lit()
            }
            .arity(),
            2
        );
        assert_eq!(Operator::Distinct.arity(), 1);
        assert_eq!(
            Operator::UnionAll {
                outputs: vec![],
                left_cols: vec![],
                right_cols: vec![]
            }
            .arity(),
            2
        );
    }

    #[test]
    fn join_kind_properties() {
        assert!(JoinKind::Inner.emits_both_sides());
        assert!(!JoinKind::LeftSemi.emits_both_sides());
        assert!(JoinKind::LeftOuter.preserves_left());
        assert!(!JoinKind::LeftOuter.preserves_right());
        assert!(JoinKind::FullOuter.preserves_left() && JoinKind::FullOuter.preserves_right());
        assert!(JoinKind::LeftAnti.preserves_left());
        assert!(!JoinKind::RightOuter.preserves_left());
    }

    #[test]
    fn kind_tags_cover_all_ops() {
        let ops = [
            Operator::Get {
                table: TableId(0),
                cols: vec![],
            },
            Operator::Select {
                predicate: Expr::true_lit(),
            },
            Operator::Project { outputs: vec![] },
            Operator::Join {
                kind: JoinKind::Inner,
                predicate: Expr::true_lit(),
            },
            Operator::GbAgg {
                group_by: vec![],
                aggs: vec![],
            },
            Operator::UnionAll {
                outputs: vec![],
                left_cols: vec![],
                right_cols: vec![],
            },
            Operator::Distinct,
            Operator::Sort { keys: vec![] },
            Operator::Top { n: 5, keys: vec![] },
        ];
        let kinds: Vec<OpKind> = ops.iter().map(Operator::kind).collect();
        assert_eq!(
            kinds,
            vec![
                OpKind::Get,
                OpKind::Select,
                OpKind::Project,
                OpKind::Join,
                OpKind::GbAgg,
                OpKind::UnionAll,
                OpKind::Distinct,
                OpKind::Sort,
                OpKind::Top
            ]
        );
        for op in &ops {
            assert!(!op.label().is_empty());
        }
    }

    #[test]
    fn sort_key_constructors() {
        assert!(!SortKey::asc(ColId(1)).descending);
        assert!(SortKey::desc(ColId(1)).descending);
    }
}
