//! The rule abstraction: pattern + substitution (paper §3.1: a rule is the
//! triple *(Rule Name, Rule Pattern, Substitution)*).

use crate::memo::{GroupId, Memo};
use crate::pattern::PatternTree;
use crate::physical::PhysOp;
use crate::rewrite::Rewrite;
use ruletest_logical::{LogicalTree, Operator};
use ruletest_storage::Database;
use std::cell::RefCell;
use std::sync::Arc;

/// Exploration (logical) vs implementation (physical) rules — §2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleKind {
    Exploration,
    Implementation,
}

/// A pattern match handed to a rule's substitution function.
///
/// The matched concrete operators are borrowed from the memo; every
/// pattern placeholder ("circle") is bound to the memo group it matched.
#[derive(Debug, Clone)]
pub struct Bound<'m> {
    /// The group that the *root* of the match lives in; substitutes are
    /// inserted back into this group.
    pub group: GroupId,
    pub op: &'m Operator,
    pub children: Vec<BoundChild<'m>>,
}

/// One child position of a bound match.
#[derive(Debug, Clone)]
pub enum BoundChild<'m> {
    /// A placeholder: any expression of this group matched.
    Leaf(GroupId),
    /// A nested concrete match.
    Nested(Bound<'m>),
}

impl<'m> BoundChild<'m> {
    /// The memo group this child denotes, regardless of nesting.
    pub fn group(&self) -> GroupId {
        match self {
            BoundChild::Leaf(g) => *g,
            BoundChild::Nested(b) => b.group,
        }
    }

    /// The nested bound match, if the pattern matched a concrete operator
    /// here.
    pub fn nested(&self) -> Option<&Bound<'m>> {
        match self {
            BoundChild::Nested(b) => Some(b),
            BoundChild::Leaf(_) => None,
        }
    }
}

/// A substitute produced by an exploration rule: a small tree of new
/// operators whose leaves are existing memo groups.
#[derive(Debug, Clone)]
pub struct NewTree {
    pub op: Operator,
    pub children: Vec<NewChild>,
}

/// Child of a substitute node.
#[derive(Debug, Clone)]
pub enum NewChild {
    /// Reference to an existing group.
    Group(GroupId),
    /// A newly created operator subtree.
    Tree(NewTree),
}

impl NewTree {
    pub fn new(op: Operator, children: Vec<NewChild>) -> Self {
        debug_assert_eq!(op.arity(), children.len());
        Self { op, children }
    }
}

/// A physical alternative produced by an implementation rule.
#[derive(Debug, Clone)]
pub struct PhysCandidate {
    pub op: PhysOp,
    /// Input groups, in execution order (empty for leaves — e.g. an index
    /// seek that absorbed a `Select(Get)` match).
    pub children: Vec<GroupId>,
}

/// Shared context handed to substitution functions.
pub struct RuleCtx<'a> {
    pub db: &'a Database,
    pub memo: &'a Memo,
    /// Fresh-column-id allocator for substitutes that mint columns
    /// (aggregation splits, union pushdowns, ...).
    pub ids: &'a RefCell<ruletest_logical::IdGen>,
}

impl<'a> RuleCtx<'a> {
    /// Output schema of a memo group.
    pub fn schema(&self, g: GroupId) -> &ruletest_logical::Schema {
        self.memo.schema(g)
    }

    /// Column ids of a memo group's output.
    pub fn cols(&self, g: GroupId) -> &'a std::collections::BTreeSet<ruletest_common::ColId> {
        &self.memo.group(g).cols
    }
}

/// An exploration substitute written as code.
pub type ExploreFn = Arc<dyn Fn(&RuleCtx, &Bound) -> Vec<NewTree> + Send + Sync>;

/// The substitution of a rule.
pub enum RuleAction {
    /// Logical substitutes from the rule IR's interpreter.
    Rewrite(Rewrite),
    /// Logical substitutes from code: the rules the IR cannot express, and
    /// rules derived by wrapping another's action.
    Explore(ExploreFn),
    /// Produces zero or more physical alternatives.
    Implement(fn(&RuleCtx, &Bound) -> Vec<PhysCandidate>),
}

impl RuleAction {
    /// True for either exploration form.
    pub fn is_explore(&self) -> bool {
        !matches!(self, RuleAction::Implement(_))
    }

    /// Runs the exploration substitute, if this is an exploration action.
    pub fn apply_explore(&self, ctx: &RuleCtx, bound: &Bound) -> Option<Vec<NewTree>> {
        match self {
            RuleAction::Rewrite(rewrite) => Some(rewrite.apply(ctx, bound)),
            RuleAction::Explore(f) => Some(f(ctx, bound)),
            RuleAction::Implement(_) => None,
        }
    }
}

/// A transformation rule: name, pattern, substitution (§3.1).
pub struct Rule {
    pub name: &'static str,
    pub kind: RuleKind,
    pub pattern: PatternTree,
    /// Human-readable statement of the sufficient conditions beyond the
    /// pattern (the part the pattern cannot express — §3.1).
    pub precondition: &'static str,
    pub action: RuleAction,
    /// True for rules whose substitutes mint fresh column ids (aggregation
    /// splits, union pushdowns). Such rules fire only on organic
    /// expressions — see `Memo::is_organic` — because their outputs can
    /// never deduplicate and firing them on their own descendants would
    /// diverge.
    pub mints_fresh_ids: bool,
}

impl Rule {
    /// An exploration rule in the IR.
    pub fn rewrite(
        name: &'static str,
        pattern: PatternTree,
        precondition: &'static str,
        rewrite: Rewrite,
    ) -> Rule {
        Rule {
            name,
            kind: RuleKind::Exploration,
            pattern,
            precondition,
            action: RuleAction::Rewrite(rewrite),
            mints_fresh_ids: false,
        }
    }

    /// An exploration rule whose substitution is code.
    pub fn explore(
        name: &'static str,
        pattern: PatternTree,
        precondition: &'static str,
        f: impl Fn(&RuleCtx, &Bound) -> Vec<NewTree> + Send + Sync + 'static,
    ) -> Rule {
        Rule {
            name,
            kind: RuleKind::Exploration,
            pattern,
            precondition,
            action: RuleAction::Explore(Arc::new(f)),
            mints_fresh_ids: false,
        }
    }

    /// This exploration rule with `wrap` applied to every binding and the
    /// substitutes the rule's own action returns for it.
    pub fn wrap_explore(
        self,
        wrap: impl Fn(&Bound, Vec<NewTree>) -> Vec<NewTree> + Send + Sync + 'static,
    ) -> Rule {
        let action = self.action;
        Rule {
            action: RuleAction::Explore(Arc::new(move |ctx, bound| {
                wrap(bound, action.apply_explore(ctx, bound).unwrap_or_default())
            })),
            ..self
        }
    }

    pub fn implement(
        name: &'static str,
        pattern: PatternTree,
        precondition: &'static str,
        f: fn(&RuleCtx, &Bound) -> Vec<PhysCandidate>,
    ) -> Rule {
        Rule {
            name,
            kind: RuleKind::Implementation,
            pattern,
            precondition,
            action: RuleAction::Implement(f),
            mints_fresh_ids: false,
        }
    }

    /// Builder: marks this rule as minting fresh column ids.
    pub fn minting_fresh_ids(mut self) -> Rule {
        self.mints_fresh_ids = true;
        self
    }
}

impl std::fmt::Debug for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rule")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .finish()
    }
}

/// Converts a standalone [`LogicalTree`] into a [`NewTree`] with no group
/// references — used when seeding the memo.
pub fn newtree_from_logical(tree: &LogicalTree) -> NewTree {
    NewTree {
        op: tree.op.clone(),
        children: tree
            .children
            .iter()
            .map(|c| NewChild::Tree(newtree_from_logical(c)))
            .collect(),
    }
}
