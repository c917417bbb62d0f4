//! Bug signatures: normalizing findings so duplicates collapse.
//!
//! One optimizer fault typically surfaces through many generated queries;
//! reporting each witness separately floods the report with near-identical
//! findings (the duplicate-sensitivity problem). A signature abstracts a
//! *minimized* finding to what actually characterizes the fault:
//!
//! - the **masked rule set** (which rule(s) the divergence implicates),
//! - the **shape of the plan diff**: per-operator-class count deltas
//!   between `Plan(q)` and `Plan(q, ¬R)`,
//! - the **diff cardinality class**: whether the masked plan *loses* rows,
//!   *invents* rows, or both.
//!
//! Both plan classes and the cardinality class are deliberately coarse.
//! Join kinds are **not** distinguished: one injected outer-join fault
//! shows up as an `INNER`↔`LEFT OUTER` swap through one witness and a
//! `LEFT OUTER`↔`RIGHT OUTER` swap through another (commuted inputs), and
//! those are the same bug. Likewise the diff *direction* is stable across
//! witnesses of one fault while the diff *count* scales with witness size.

use ruletest_common::{ResultDiff, Row};
use ruletest_optimizer::{PhysOp, PhysicalPlan};
use std::collections::BTreeMap;

/// Normalized identity of a bug; findings with equal signatures are
/// duplicates of one underlying fault.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BugSignature {
    /// Sorted names of the masked rules.
    pub rules: Vec<String>,
    /// Canonical rendering of the plan-shape delta, e.g. `"Filter:+1"`
    /// (masked minus base, per operator class, zero deltas omitted).
    pub plan_delta: String,
    /// `"missing"` (masked plan loses rows), `"extra"` (masked plan
    /// invents rows), or `"mixed"`.
    pub diff_class: String,
}

impl BugSignature {
    /// Derives the signature of a minimized finding from its plans and
    /// its result diff (base left, masked right).
    pub fn derive(
        rule_mask: &[String],
        base: &PhysicalPlan,
        masked: &PhysicalPlan,
        diff: &ResultDiff,
    ) -> BugSignature {
        let mut rules = rule_mask.to_vec();
        rules.sort();
        // Total multiplicities of the rows the masked plan lost / invented.
        let count = |side: &[(Row, usize)]| side.iter().map(|(_, n)| *n as u64).sum();
        BugSignature {
            rules,
            plan_delta: plan_delta(base, masked),
            diff_class: diff_class(count(&diff.only_left), count(&diff.only_right)).to_string(),
        }
    }

    /// One-line rendering, used as the bundle's `signature` field.
    pub fn key(&self) -> String {
        format!(
            "rules=[{}] delta=[{}] diff={}",
            self.rules.join("+"),
            self.plan_delta,
            self.diff_class
        )
    }
}

/// Operator class of one physical node. Coarser than the operator itself
/// (all scans are "Scan", all join and aggregation strategies are "Join"
/// and "Agg") so the signature captures *semantic* plan changes, not
/// implementation or input-order choices.
fn op_class(op: &PhysOp) -> &'static str {
    match op {
        PhysOp::SeqScan { .. } | PhysOp::IndexSeek { .. } => "Scan",
        PhysOp::Filter { .. } => "Filter",
        PhysOp::Compute { .. } => "Compute",
        PhysOp::NLJoin { .. } | PhysOp::HashJoin { .. } | PhysOp::MergeJoin { .. } => "Join",
        PhysOp::HashAgg { .. } | PhysOp::StreamAgg { .. } => "Agg",
        PhysOp::Concat { .. } => "Union",
        PhysOp::HashDistinct => "Distinct",
        PhysOp::SortOp { .. } => "Sort",
        PhysOp::TopN { .. } => "Top",
    }
}

fn count_classes(plan: &PhysicalPlan, into: &mut BTreeMap<&'static str, i64>, sign: i64) {
    *into.entry(op_class(&plan.op)).or_insert(0) += sign;
    for c in &plan.children {
        count_classes(c, into, sign);
    }
}

/// Per-class node-count delta (`masked` minus `base`), rendered
/// canonically: classes sorted, zero deltas omitted, `+`/`-` explicit.
fn plan_delta(base: &PhysicalPlan, masked: &PhysicalPlan) -> String {
    let mut deltas: BTreeMap<&'static str, i64> = BTreeMap::new();
    count_classes(base, &mut deltas, -1);
    count_classes(masked, &mut deltas, 1);
    deltas
        .into_iter()
        .filter(|(_, d)| *d != 0)
        .map(|(class, d)| format!("{class}:{d:+}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Which direction the masked plan's results deviate in.
fn diff_class(missing: u64, extra: u64) -> &'static str {
    match (missing > 0, extra > 0) {
        (true, false) => "missing",
        (false, true) => "extra",
        (true, true) => "mixed",
        (false, false) => "empty",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruletest_common::{ColId, TableId};
    use ruletest_logical::JoinKind;

    fn leaf(op: PhysOp) -> PhysicalPlan {
        PhysicalPlan {
            op,
            children: vec![],
            schema: vec![],
            est_rows: 1.0,
            est_cost: 1.0,
        }
    }

    fn scan(t: u32) -> PhysicalPlan {
        leaf(PhysOp::SeqScan {
            table: TableId(t),
            cols: vec![ColId(0)],
        })
    }

    fn join(kind: JoinKind, l: PhysicalPlan, r: PhysicalPlan) -> PhysicalPlan {
        PhysicalPlan {
            op: PhysOp::NLJoin {
                kind,
                predicate: ruletest_expr::Expr::true_lit(),
            },
            children: vec![l, r],
            schema: vec![],
            est_rows: 1.0,
            est_cost: 1.0,
        }
    }

    fn filter(input: PhysicalPlan) -> PhysicalPlan {
        PhysicalPlan {
            op: PhysOp::Filter {
                predicate: ruletest_expr::Expr::true_lit(),
            },
            children: vec![input],
            schema: vec![],
            est_rows: 1.0,
            est_cost: 1.0,
        }
    }

    #[test]
    fn join_kind_swaps_do_not_split_signatures() {
        // One outer-join fault, two witnesses: INNER↔LEFT in one,
        // LEFT↔RIGHT in the other. Same bug, same (empty) delta.
        let a_base = join(JoinKind::Inner, scan(0), scan(1));
        let a_masked = join(JoinKind::LeftOuter, scan(0), scan(1));
        let b_base = join(JoinKind::RightOuter, scan(0), scan(1));
        let b_masked = join(JoinKind::LeftOuter, scan(0), scan(1));
        assert_eq!(plan_delta(&a_base, &a_masked), "");
        assert_eq!(
            plan_delta(&a_base, &a_masked),
            plan_delta(&b_base, &b_masked)
        );
        // A structural change is the delta.
        let c_masked = filter(join(JoinKind::Inner, scan(0), scan(1)));
        assert_eq!(plan_delta(&a_base, &c_masked), "Filter:+1");
    }

    #[test]
    fn diff_class_captures_direction_not_count() {
        assert_eq!(diff_class(1, 0), "missing");
        assert_eq!(diff_class(250, 0), "missing");
        assert_eq!(diff_class(0, 3), "extra");
        assert_eq!(diff_class(2, 2), "mixed");
        assert_eq!(diff_class(0, 0), "empty");
    }

    #[test]
    fn signatures_normalize_rule_order() {
        let base = join(JoinKind::Inner, scan(0), scan(1));
        let masked = filter(join(JoinKind::LeftOuter, scan(0), scan(1)));
        let lost = |n: usize| ResultDiff {
            only_left: vec![(vec![], n)],
            only_right: vec![],
            left_rows: n,
            right_rows: 0,
        };
        let a = BugSignature::derive(
            &["B".to_string(), "A".to_string()],
            &base,
            &masked,
            &lost(5),
        );
        let b = BugSignature::derive(
            &["A".to_string(), "B".to_string()],
            &base,
            &masked,
            &lost(7),
        );
        assert_eq!(a, b);
        assert_eq!(a.key(), "rules=[A+B] delta=[Filter:+1] diff=missing");
    }
}
