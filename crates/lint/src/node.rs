//! The common tree shape both sides of a substitute audit are converted
//! into: a tree of concrete operators whose leaves are memo groups.
//!
//! A rule firing gives the auditor two views of "the same" relation — the
//! bound input match and each substitute `NewTree` — expressed over shared
//! memo groups. Converting both into [`AuditNode`]s (resolving group
//! references back to their known concrete subtrees where possible) lets
//! every static pass run one tree walk, independent of whether the tree
//! came from a corpus `LogicalTree`, a `Bound`, or a `NewTree`.

use ruletest_logical::Operator;
use ruletest_optimizer::{Bound, BoundChild, GroupId, NewChild, NewTree};
use std::collections::HashMap;

/// A concrete-operator tree over memo groups.
#[derive(Debug, Clone)]
pub enum AuditNode {
    /// An opaque memo group whose defining expression is unknown to the
    /// auditor (an unresolved pattern placeholder).
    Group(GroupId),
    /// A concrete operator, tagged with its memo group when known.
    Op {
        op: Operator,
        gid: Option<GroupId>,
        children: Vec<AuditNode>,
    },
}

impl AuditNode {
    /// Converts a bound pattern match. `resolve` maps group ids to known
    /// concrete subtrees (corpus nodes); unresolved placeholder groups
    /// stay opaque.
    pub fn from_bound(b: &Bound, resolve: &HashMap<GroupId, AuditNode>) -> AuditNode {
        AuditNode::Op {
            op: b.op.clone(),
            gid: Some(b.group),
            children: b
                .children
                .iter()
                .map(|c| match c {
                    BoundChild::Leaf(g) => resolve.get(g).cloned().unwrap_or(AuditNode::Group(*g)),
                    BoundChild::Nested(nb) => AuditNode::from_bound(nb, resolve),
                })
                .collect(),
        }
    }

    /// Converts a substitute. Group references resolve through the same
    /// map as [`AuditNode::from_bound`], so a substitute that references a
    /// group bound concretely on the input side is compared against that
    /// concrete shape rather than an opaque leaf.
    pub fn from_newtree(t: &NewTree, resolve: &HashMap<GroupId, AuditNode>) -> AuditNode {
        AuditNode::Op {
            op: t.op.clone(),
            gid: None,
            children: t
                .children
                .iter()
                .map(|c| match c {
                    NewChild::Group(g) => resolve.get(g).cloned().unwrap_or(AuditNode::Group(*g)),
                    NewChild::Tree(nt) => AuditNode::from_newtree(nt, resolve),
                })
                .collect(),
        }
    }

    /// The memo group this node belongs to, when known.
    pub fn gid(&self) -> Option<GroupId> {
        match self {
            AuditNode::Group(g) => Some(*g),
            AuditNode::Op { gid, .. } => *gid,
        }
    }
}

/// Identifies one analysis leaf. Leaves keyed by a memo group compare
/// across the input/substitute sides; anonymous leaves (operator trees
/// with no group identity) never match and are skipped by comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LeafKey {
    Group(GroupId),
    Anon(u32),
}
