//! Physical operators and plans.
//!
//! Implementation rules (§2.1) turn logical operators into these physical
//! alternatives. Required physical properties (sort order) are simplified
//! away: order-sensitive algorithms (merge join, stream aggregate) sort
//! their inputs internally and carry that cost themselves — see DESIGN.md.

use ruletest_common::{wire_enum, wire_record, ColId, TableId, Value};
use ruletest_expr::{AggCall, Expr};
use ruletest_logical::{projections, JoinKind, Schema, SortKey};

/// A physical operator.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysOp {
    /// Full scan of a base table.
    SeqScan { table: TableId, cols: Vec<ColId> },
    /// Primary-key point lookup (single-column keys), with a residual
    /// filter for the remaining conjuncts. Produced by absorbing a
    /// `Select(Get)` match.
    IndexSeek {
        table: TableId,
        cols: Vec<ColId>,
        key: Value,
        residual: Expr,
    },
    /// Predicate filter.
    Filter { predicate: Expr },
    /// Computing projection.
    Compute { outputs: Vec<(ColId, Expr)> },
    /// Nested-loops join; handles every join kind and arbitrary predicates.
    NLJoin { kind: JoinKind, predicate: Expr },
    /// Hash join on equi-key columns with a residual predicate evaluated as
    /// part of the match condition (required for outer/semi/anti kinds).
    HashJoin {
        kind: JoinKind,
        left_keys: Vec<ColId>,
        right_keys: Vec<ColId>,
        residual: Expr,
    },
    /// Sort-merge join (inner only), sorting both inputs internally.
    MergeJoin {
        left_key: ColId,
        right_key: ColId,
        residual: Expr,
    },
    /// Hash aggregation.
    HashAgg {
        group_by: Vec<ColId>,
        aggs: Vec<AggCall>,
    },
    /// Sort-based aggregation (sorts internally).
    StreamAgg {
        group_by: Vec<ColId>,
        aggs: Vec<AggCall>,
    },
    /// Bag-union concatenation; side column maps mirror the logical
    /// `UnionAll` (id-based, per output position).
    Concat {
        outputs: Vec<ColId>,
        left_cols: Vec<ColId>,
        right_cols: Vec<ColId>,
    },
    /// Hash-based duplicate elimination.
    HashDistinct,
    /// Full sort.
    SortOp { keys: Vec<SortKey> },
    /// Top-N with deterministic full-row tie-break.
    TopN { n: u64, keys: Vec<SortKey> },
}

wire_enum!(PhysOp tagged "op" {
    "seq_scan" => SeqScan { "cols" => cols, "table" => table },
    "index_seek" => IndexSeek {
        "cols" => cols,
        "key" => key,
        "residual" => residual,
        "table" => table,
    },
    "filter" => Filter { "pred" => predicate },
    "compute" => Compute { "outputs" => outputs via projections },
    "nl_join" => NLJoin { "kind" => kind, "pred" => predicate },
    "hash_join" => HashJoin {
        "kind" => kind,
        "left_keys" => left_keys,
        "residual" => residual,
        "right_keys" => right_keys,
    },
    "merge_join" => MergeJoin {
        "left_key" => left_key,
        "residual" => residual,
        "right_key" => right_key,
    },
    "hash_agg" => HashAgg { "aggs" => aggs, "group_by" => group_by },
    "stream_agg" => StreamAgg { "aggs" => aggs, "group_by" => group_by },
    "concat" => Concat {
        "left_cols" => left_cols,
        "outputs" => outputs,
        "right_cols" => right_cols,
    },
    "hash_distinct" => HashDistinct {},
    "sort" => SortOp { "keys" => keys },
    "top_n" => TopN { "keys" => keys, "n" => n },
});

impl PhysOp {
    /// Short name for EXPLAIN output.
    pub fn name(&self) -> &'static str {
        match self {
            PhysOp::SeqScan { .. } => "SeqScan",
            PhysOp::IndexSeek { .. } => "IndexSeek",
            PhysOp::Filter { .. } => "Filter",
            PhysOp::Compute { .. } => "Compute",
            PhysOp::NLJoin { .. } => "NLJoin",
            PhysOp::HashJoin { .. } => "HashJoin",
            PhysOp::MergeJoin { .. } => "MergeJoin",
            PhysOp::HashAgg { .. } => "HashAgg",
            PhysOp::StreamAgg { .. } => "StreamAgg",
            PhysOp::Concat { .. } => "Concat",
            PhysOp::HashDistinct => "HashDistinct",
            PhysOp::SortOp { .. } => "Sort",
            PhysOp::TopN { .. } => "TopN",
        }
    }
}

/// An executable physical plan tree with derived schema and estimates.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    pub op: PhysOp,
    pub children: Vec<PhysicalPlan>,
    /// Output schema (column ids in output position order).
    pub schema: Schema,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Estimated total cost of the subtree, in abstract optimizer units —
    /// the `Cost(q)` / `Cost(q, ¬R)` of the paper.
    pub est_cost: f64,
}

wire_record!(PhysicalPlan {
    "c" => children,
    "est_cost" => est_cost,
    "est_rows" => est_rows,
    "o" => op,
    "schema" => schema,
});

impl PhysicalPlan {
    /// Number of physical operators.
    pub fn op_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(PhysicalPlan::op_count)
            .sum::<usize>()
    }

    /// Structural equality of the operator trees (ignores estimates).
    ///
    /// Used by correctness testing: when `Plan(q)` and `Plan(q, ¬R)` are
    /// identical "it is not necessary to execute the query" (§2.3).
    pub fn same_shape(&self, other: &PhysicalPlan) -> bool {
        self.op == other.op
            && self.children.len() == other.children.len()
            && self
                .children
                .iter()
                .zip(&other.children)
                .all(|(a, b)| a.same_shape(b))
    }

    /// EXPLAIN-style rendering with estimates.
    pub fn explain(&self) -> String {
        fn go(p: &PhysicalPlan, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!(
                "{} (rows={:.0}, cost={:.1})\n",
                p.op.name(),
                p.est_rows,
                p.est_cost
            ));
            for c in &p.children {
                go(c, depth + 1, out);
            }
        }
        let mut s = String::new();
        go(self, 0, &mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(table: u32) -> PhysicalPlan {
        PhysicalPlan {
            op: PhysOp::SeqScan {
                table: TableId(table),
                cols: vec![ColId(0)],
            },
            children: vec![],
            schema: vec![],
            est_rows: 10.0,
            est_cost: 10.0,
        }
    }

    #[test]
    fn same_shape_ignores_estimates() {
        let mut a = leaf(0);
        let mut b = leaf(0);
        b.est_cost = 999.0;
        assert!(a.same_shape(&b));
        a.op = PhysOp::SeqScan {
            table: TableId(1),
            cols: vec![ColId(0)],
        };
        assert!(!a.same_shape(&b));
    }

    #[test]
    fn same_shape_recurses() {
        let parent = |child: PhysicalPlan| PhysicalPlan {
            op: PhysOp::HashDistinct,
            children: vec![child],
            schema: vec![],
            est_rows: 1.0,
            est_cost: 1.0,
        };
        assert!(parent(leaf(0)).same_shape(&parent(leaf(0))));
        assert!(!parent(leaf(0)).same_shape(&parent(leaf(1))));
        assert!(!parent(leaf(0)).same_shape(&leaf(0)));
    }

    #[test]
    fn explain_and_counts() {
        let p = PhysicalPlan {
            op: PhysOp::HashDistinct,
            children: vec![leaf(0)],
            schema: vec![],
            est_rows: 5.0,
            est_cost: 25.0,
        };
        assert_eq!(p.op_count(), 2);
        let text = p.explain();
        assert!(text.starts_with("HashDistinct"));
        assert!(text.contains("\n  SeqScan"));
    }
}
