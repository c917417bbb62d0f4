//! Standalone logical query trees and tree utilities.

use crate::op::{JoinKind, Operator, SortKey};
use ruletest_common::{wire_record, ColId, TableId};
use ruletest_expr::{AggCall, Expr};
use std::fmt;

/// Allocator for fresh column ids within one query.
#[derive(Debug, Clone, Default)]
pub struct IdGen {
    next: u32,
}

impl IdGen {
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts allocating above every id already used in `tree` — needed when
    /// transforming a tree whose ids were minted elsewhere (e.g. parsed SQL).
    pub fn above(tree: &LogicalTree) -> Self {
        let mut max = 0u32;
        tree.visit(&mut |n| {
            let bump = |max: &mut u32, id: ColId| *max = (*max).max(id.0 + 1);
            match &n.op {
                Operator::Get { cols, .. } => cols.iter().for_each(|&c| bump(&mut max, c)),
                Operator::Project { outputs } => {
                    outputs.iter().for_each(|(c, _)| bump(&mut max, *c))
                }
                Operator::GbAgg { aggs, .. } => aggs.iter().for_each(|a| bump(&mut max, a.output)),
                Operator::UnionAll { outputs, .. } => {
                    outputs.iter().for_each(|&c| bump(&mut max, c))
                }
                _ => {}
            }
        });
        Self { next: max }
    }

    /// The id the next call to [`IdGen::fresh`] would return.
    pub fn peek_next(&self) -> u32 {
        self.next
    }

    /// Mints a fresh column id.
    pub fn fresh(&mut self) -> ColId {
        let id = ColId(self.next);
        self.next += 1;
        id
    }

    /// Mints `n` fresh column ids.
    pub fn fresh_n(&mut self, n: usize) -> Vec<ColId> {
        (0..n).map(|_| self.fresh()).collect()
    }
}

/// A logical query tree: an operator with owned children.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LogicalTree {
    pub op: Operator,
    pub children: Vec<LogicalTree>,
}

// Column ids and all: SQL text is deliberately *not* the wire form —
// re-parsing renumbers column ids, and a cache key that round-trips
// inexactly would never match again.
wire_record!(LogicalTree { "o" => op, "c" => children });

impl LogicalTree {
    pub fn new(op: Operator, children: Vec<LogicalTree>) -> Self {
        debug_assert_eq!(
            op.arity(),
            children.len(),
            "arity mismatch for {}",
            op.label()
        );
        Self { op, children }
    }

    /// Base-table access with fresh column ids.
    pub fn get(def: &ruletest_storage::TableDef, ids: &mut IdGen) -> Self {
        LogicalTree::new(
            Operator::Get {
                table: def.id,
                cols: ids.fresh_n(def.columns.len()),
            },
            vec![],
        )
    }

    /// Base-table access with explicit column ids.
    pub fn get_with_cols(table: TableId, cols: Vec<ColId>) -> Self {
        LogicalTree::new(Operator::Get { table, cols }, vec![])
    }

    pub fn select(input: LogicalTree, predicate: Expr) -> Self {
        LogicalTree::new(Operator::Select { predicate }, vec![input])
    }

    pub fn project(input: LogicalTree, outputs: Vec<(ColId, Expr)>) -> Self {
        LogicalTree::new(Operator::Project { outputs }, vec![input])
    }

    pub fn join(kind: JoinKind, left: LogicalTree, right: LogicalTree, predicate: Expr) -> Self {
        LogicalTree::new(Operator::Join { kind, predicate }, vec![left, right])
    }

    pub fn gbagg(input: LogicalTree, group_by: Vec<ColId>, aggs: Vec<AggCall>) -> Self {
        LogicalTree::new(Operator::GbAgg { group_by, aggs }, vec![input])
    }

    /// Bag union with explicit side-column maps.
    pub fn union_all(
        left: LogicalTree,
        right: LogicalTree,
        outputs: Vec<ColId>,
        left_cols: Vec<ColId>,
        right_cols: Vec<ColId>,
    ) -> Self {
        LogicalTree::new(
            Operator::UnionAll {
                outputs,
                left_cols,
                right_cols,
            },
            vec![left, right],
        )
    }

    pub fn distinct(input: LogicalTree) -> Self {
        LogicalTree::new(Operator::Distinct, vec![input])
    }

    pub fn sort(input: LogicalTree, keys: Vec<SortKey>) -> Self {
        LogicalTree::new(Operator::Sort { keys }, vec![input])
    }

    pub fn top(input: LogicalTree, n: u64, keys: Vec<SortKey>) -> Self {
        LogicalTree::new(Operator::Top { n, keys }, vec![input])
    }

    /// Number of operators in the tree — the paper's "number of logical
    /// operators" metric for generated query complexity (§2.3).
    pub fn op_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(LogicalTree::op_count)
            .sum::<usize>()
    }

    /// Pre-order visit.
    pub fn visit(&self, f: &mut impl FnMut(&LogicalTree)) {
        f(self);
        for c in &self.children {
            c.visit(f);
        }
    }

    /// The node at `path` (child indices from the root; `[]` is the root
    /// itself), or `None` if the path walks off the tree.
    pub fn at(&self, path: &[usize]) -> Option<&LogicalTree> {
        let mut node = self;
        for &i in path {
            node = node.children.get(i)?;
        }
        Some(node)
    }

    /// A copy of the tree with the node at `path` replaced by `subtree`.
    /// Returns `None` if the path walks off the tree. The result is *not*
    /// re-validated — callers (e.g. the triage minimizer) must check it
    /// with `derive_schema` before use.
    pub fn replace_at(&self, path: &[usize], subtree: &LogicalTree) -> Option<LogicalTree> {
        match path {
            [] => Some(subtree.clone()),
            [i, rest @ ..] => {
                let mut out = self.clone();
                let child = out.children.get_mut(*i)?;
                *child = child.replace_at(rest, subtree)?;
                Some(out)
            }
        }
    }

    /// Pre-order paths of every node, roots first — the candidate
    /// enumeration order for tree shrinking.
    pub fn paths(&self) -> Vec<Vec<usize>> {
        fn go(node: &LogicalTree, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            out.push(prefix.clone());
            for (i, c) in node.children.iter().enumerate() {
                prefix.push(i);
                go(c, prefix, out);
                prefix.pop();
            }
        }
        let mut out = Vec::new();
        go(self, &mut Vec::new(), &mut out);
        out
    }

    /// All base tables referenced (with duplicates for self-joins).
    pub fn tables(&self) -> Vec<TableId> {
        let mut out = Vec::new();
        self.visit(&mut |n| {
            if let Operator::Get { table, .. } = &n.op {
                out.push(*table);
            }
        });
        out
    }

    /// For `Get` nodes: the minted id of the `ordinal`-th table column.
    /// Panics if this is not a `Get` or the ordinal is out of range.
    pub fn output_col(&self, ordinal: usize) -> ColId {
        match self.try_output_col(ordinal) {
            Some(c) => c,
            None => panic!("output_col on non-Get operator {}", self.op.label()),
        }
    }

    /// Total variant of [`Self::output_col`]: `None` for non-`Get`
    /// operators and out-of-range ordinals, so sandboxed callers (the
    /// lint auditor, the symbolic prover) never abort the process.
    pub fn try_output_col(&self, ordinal: usize) -> Option<ColId> {
        match &self.op {
            Operator::Get { cols, .. } => cols.get(ordinal).copied(),
            _ => None,
        }
    }

    /// Indented EXPLAIN-style rendering.
    pub fn explain(&self) -> String {
        fn go(node: &LogicalTree, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&node.op.label());
            out.push('\n');
            for c in &node.children {
                go(c, depth + 1, out);
            }
        }
        let mut s = String::new();
        go(self, 0, &mut s);
        s
    }
}

impl fmt::Display for LogicalTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruletest_storage::tpch_catalog;

    fn sample() -> (LogicalTree, IdGen) {
        let cat = tpch_catalog();
        let mut ids = IdGen::new();
        let l = LogicalTree::get(cat.table_by_name("region").unwrap(), &mut ids);
        let r = LogicalTree::get(cat.table_by_name("nation").unwrap(), &mut ids);
        let pred = Expr::eq(Expr::col(l.output_col(0)), Expr::col(r.output_col(2)));
        let join = LogicalTree::join(JoinKind::Inner, l, r, pred);
        (LogicalTree::select(join, Expr::true_lit()), ids)
    }

    #[test]
    fn op_count_counts_all_nodes() {
        let (t, _) = sample();
        assert_eq!(t.op_count(), 4);
    }

    #[test]
    fn tables_lists_duplicates() {
        let cat = tpch_catalog();
        let mut ids = IdGen::new();
        let a = LogicalTree::get(cat.table_by_name("region").unwrap(), &mut ids);
        let b = LogicalTree::get(cat.table_by_name("region").unwrap(), &mut ids);
        let t = LogicalTree::join(JoinKind::Inner, a, b, Expr::true_lit());
        assert_eq!(t.tables(), vec![TableId(0), TableId(0)]);
    }

    #[test]
    fn fresh_ids_are_distinct_even_for_self_joins() {
        let cat = tpch_catalog();
        let mut ids = IdGen::new();
        let a = LogicalTree::get(cat.table_by_name("region").unwrap(), &mut ids);
        let b = LogicalTree::get(cat.table_by_name("region").unwrap(), &mut ids);
        assert_ne!(a.output_col(0), b.output_col(0));
    }

    #[test]
    fn idgen_above_resumes_past_existing_ids() {
        let (t, _) = sample();
        let mut ids = IdGen::above(&t);
        let fresh = ids.fresh();
        t.visit(&mut |n| {
            if let Operator::Get { cols, .. } = &n.op {
                assert!(cols.iter().all(|c| c.0 < fresh.0));
            }
        });
    }

    #[test]
    fn path_navigation_and_replacement() {
        let (t, _) = sample(); // Select -> Join -> (Get, Get)
        assert_eq!(t.at(&[]).unwrap().op_count(), 4);
        assert!(matches!(t.at(&[0]).unwrap().op, Operator::Join { .. }));
        assert!(matches!(t.at(&[0, 1]).unwrap().op, Operator::Get { .. }));
        assert!(t.at(&[0, 2]).is_none());
        assert!(t.at(&[1]).is_none());

        // Replace the whole Select with its Join child: drops one node.
        let join = t.at(&[0]).unwrap().clone();
        let smaller = t.replace_at(&[], &join).unwrap();
        assert_eq!(smaller.op_count(), 3);
        // Replace the Join with its left Get: Select directly over Get.
        let left = t.at(&[0, 0]).unwrap().clone();
        let promoted = t.replace_at(&[0], &left).unwrap();
        assert_eq!(promoted.op_count(), 2);
        assert!(matches!(promoted.children[0].op, Operator::Get { .. }));
        assert!(t.replace_at(&[2], &join).is_none());

        let paths = t.paths();
        assert_eq!(paths.len(), t.op_count());
        assert_eq!(paths[0], Vec::<usize>::new());
        assert_eq!(paths[1], vec![0]);
        assert_eq!(paths[2], vec![0, 0]);
        assert_eq!(paths[3], vec![0, 1]);
    }

    #[test]
    fn explain_is_indented() {
        let (t, _) = sample();
        let text = t.explain();
        assert!(text.starts_with("Select"));
        assert!(text.contains("\n  INNER JOIN"));
        assert!(text.contains("\n    Get(T0)"));
    }

    #[test]
    fn visit_preorder() {
        let (t, _) = sample();
        let mut labels = Vec::new();
        t.visit(&mut |n| labels.push(n.op.kind()));
        assert_eq!(labels[0], crate::op::OpKind::Select);
        assert_eq!(labels[1], crate::op::OpKind::Join);
    }

    #[test]
    #[should_panic(expected = "output_col on non-Get")]
    fn output_col_requires_get() {
        let (t, _) = sample();
        let _ = t.output_col(0);
    }
}
