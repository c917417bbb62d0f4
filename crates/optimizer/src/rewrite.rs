//! The rule IR: a substitution as data, run by one interpreter (after "An
//! Extensible and Verifiable Language for Query Rewrite Rules").
//!
//! A rule in the IR is its [`PatternTree`](crate::PatternTree) plus a
//! [`Rewrite`]: guards the pattern cannot express, and target templates
//! built from what the pattern matched. Both refer to pattern nodes by
//! [`Node`] number — pre-order over concrete nodes and placeholders alike,
//! the order binding signatures list concrete picks in. The guard and term
//! vocabularies are closed, so a rewrite can be inspected and edited
//! (the mutant catalog deletes a guard or changes a join kind) without
//! running it. DESIGN §18 lists the rules that stay hand-coded and why.

use crate::memo::GroupId;
use crate::rule::{Bound, BoundChild, NewChild, NewTree, RuleCtx};
use ruletest_common::ColId;
use ruletest_expr::{conjoin, conjuncts, try_col_eq_col, Expr};
use ruletest_logical::{JoinKind, Operator};
use std::collections::BTreeSet;

/// A pattern node in pre-order: in `Join(Any, Join(Any, Any))` node 0 is
/// the upper join, 1 its left placeholder, 2 the lower join, 3 and 4 the
/// lower join's placeholders.
pub type Node = usize;

/// A precondition beyond the pattern. A failed guard yields no substitute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Guard {
    /// Every column of node `pred`'s predicate is an output of node `a`
    /// or node `b`.
    Scope { pred: Node, a: Node, b: Node },
    /// An equi conjunct of node `pred`'s predicate equates a single-column
    /// unique key of the base table matched at `get` with a column from
    /// elsewhere.
    UniqueKey { pred: Node, get: Node },
    /// Binds the column [`Pred::ProbeIsNull`] tests: the first column of
    /// `side` that an equi conjunct of node `equi`'s predicate mentions, or
    /// with no `equi`, the first column of `side`'s schema.
    Probe { side: Node, equi: Option<Node> },
}

/// A predicate term of a target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pred {
    /// The predicate of a matched node.
    Of(Node),
    /// The conjuncts of every matched predicate, in node order, that
    /// reference only outputs of the two nodes, conjoined.
    Inside(Node, Node),
    /// The conjuncts [`Pred::Inside`] of the same nodes leaves out.
    Rest(Node, Node),
    /// `probe IS NULL`, over the column a [`Guard::Probe`] bound.
    ProbeIsNull,
    /// A term's conjuncts in reverse order.
    Reversed(Box<Pred>),
}

/// A target template: new operators over the groups the match bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// The group a matched node lives in (never a target's root).
    Group(Node),
    Join {
        kind: JoinKind,
        pred: Pred,
        children: Box<[Target; 2]>,
    },
    Select {
        pred: Pred,
        input: Box<Target>,
    },
    /// The identity projection of node `of`'s schema.
    Project {
        of: Node,
        input: Box<Target>,
    },
}

impl Target {
    pub fn join(kind: JoinKind, pred: Pred, left: Target, right: Target) -> Target {
        Target::Join {
            kind,
            pred,
            children: Box::new([left, right]),
        }
    }

    pub fn select(pred: Pred, input: Target) -> Target {
        Target::Select {
            pred,
            input: Box::new(input),
        }
    }

    pub fn project(of: Node, input: Target) -> Target {
        Target::Project {
            of,
            input: Box::new(input),
        }
    }
}

/// A rule's substitution in the IR: if every guard holds, one substitute
/// per target, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rewrite {
    pub guards: Vec<Guard>,
    pub targets: Vec<Target>,
}

impl Rewrite {
    /// The substitutes for one binding.
    pub fn apply(&self, ctx: &RuleCtx, bound: &Bound) -> Vec<NewTree> {
        let mut nodes = [Slot::Hole(GroupId(0)); MAX_NODES];
        number(bound, &mut nodes, &mut 0);
        let mut m = Match {
            ctx,
            bound,
            nodes,
            probe: None,
            split_of: None,
            sides: [None, None],
        };
        if !self.guards.iter().all(|g| m.holds(g)) {
            return vec![];
        }
        self.targets.iter().map(|t| m.tree(t)).collect()
    }
}

/// The most nodes a rewrite's pattern may have.
const MAX_NODES: usize = 8;

/// A matched node: a concrete operator, or the group a placeholder bound.
#[derive(Clone, Copy)]
enum Slot<'b, 'm> {
    Op(&'b Bound<'m>),
    Hole(GroupId),
}

/// Writes a binding's nodes into `nodes` in pre-order, from `*n` on.
fn number<'b, 'm>(b: &'b Bound<'m>, nodes: &mut [Slot<'b, 'm>], n: &mut usize) {
    nodes[*n] = Slot::Op(b);
    *n += 1;
    for c in &b.children {
        match c {
            BoundChild::Leaf(g) => {
                nodes[*n] = Slot::Hole(*g);
                *n += 1;
            }
            BoundChild::Nested(nested) => number(nested, nodes, n),
        }
    }
}

/// True iff every column of `pred` is an output of group `a` or group `b`.
/// (A walk, not `columns_of`: the partition runs once per conjunct of
/// every associativity applied, and a set per conjunct is most of its
/// cost.)
fn pred_within_groups(ctx: &RuleCtx, pred: &Expr, a: GroupId, b: GroupId) -> bool {
    let (a, b) = (ctx.cols(a), ctx.cols(b));
    fn within(e: &Expr, a: &BTreeSet<ColId>, b: &BTreeSet<ColId>) -> bool {
        match e {
            Expr::Col(c) => a.contains(c) || b.contains(c),
            Expr::Lit(_) => true,
            Expr::Bin { left, right, .. } => within(left, a, b) && within(right, a, b),
            Expr::Not(e) | Expr::IsNull(e) => within(e, a, b),
        }
    }
    within(pred, a, b)
}

/// The predicate a matched operator carries, if it carries one.
fn predicate_of(op: &Operator) -> Option<&Expr> {
    match op {
        Operator::Join { predicate, .. } | Operator::Select { predicate } => Some(predicate),
        _ => None,
    }
}

/// The conjuncts of every predicate in a binding, in pre-order.
fn all_conjuncts(b: &Bound) -> Vec<Expr> {
    let mut all = predicate_of(b.op).map(conjuncts).unwrap_or_default();
    for c in &b.children {
        if let BoundChild::Nested(nested) = c {
            all.extend(all_conjuncts(nested));
        }
    }
    all
}

/// One binding and what the guards bound.
struct Match<'c, 'b, 'm> {
    ctx: &'c RuleCtx<'c>,
    bound: &'b Bound<'m>,
    nodes: [Slot<'b, 'm>; MAX_NODES],
    probe: Option<ColId>,
    /// The nodes of the last [`Pred::Inside`] / [`Pred::Rest`] split, and
    /// its sides not yet handed out.
    split_of: Option<(Node, Node)>,
    sides: [Option<Expr>; 2],
}

impl<'c, 'b, 'm> Match<'c, 'b, 'm> {
    fn group(&self, n: Node) -> GroupId {
        match self.nodes[n] {
            Slot::Op(b) => b.group,
            Slot::Hole(g) => g,
        }
    }

    fn op(&self, n: Node) -> &'m Operator {
        match self.nodes[n] {
            Slot::Op(b) => b.op,
            Slot::Hole(_) => panic!("rewrite node {n} is a placeholder, not an operator"),
        }
    }

    fn predicate(&self, n: Node) -> &'m Expr {
        let op = self.op(n);
        predicate_of(op).unwrap_or_else(|| {
            panic!(
                "rewrite node {n} is a {}, which has no predicate",
                op.label()
            )
        })
    }

    fn holds(&mut self, guard: &Guard) -> bool {
        let ctx = self.ctx;
        match *guard {
            Guard::Scope { pred, a, b } => {
                pred_within_groups(ctx, self.predicate(pred), self.group(a), self.group(b))
            }
            Guard::UniqueKey { pred, get } => {
                let Operator::Get { table, cols } = self.op(get) else {
                    return false;
                };
                let Ok(def) = ctx.db.catalog.table(*table) else {
                    return false;
                };
                // One side must be a unique column of the table and the
                // other come from elsewhere, or uniqueness does not bound
                // the match count.
                let ord_of = |col| cols.iter().position(|&g| g == col);
                conjuncts(self.predicate(pred)).iter().any(|c| {
                    try_col_eq_col(c).is_some_and(|(x, y)| match (ord_of(x), ord_of(y)) {
                        (Some(ord), None) | (None, Some(ord)) => def.is_unique_column(ord),
                        _ => false,
                    })
                })
            }
            Guard::Probe { side, equi } => {
                self.probe = match equi {
                    Some(pred) => {
                        let cols = ctx.cols(self.group(side));
                        conjuncts(self.predicate(pred)).iter().find_map(|c| {
                            let (x, y) = try_col_eq_col(c)?;
                            [x, y].into_iter().find(|col| cols.contains(col))
                        })
                    }
                    None => ctx.schema(self.group(side)).first().map(|c| c.id),
                };
                self.probe.is_some()
            }
        }
    }

    fn pred(&mut self, term: &Pred) -> Expr {
        match term {
            Pred::Of(n) => self.predicate(*n).clone(),
            &Pred::Inside(a, b) => self.split(a, b, 0),
            &Pred::Rest(a, b) => self.split(a, b, 1),
            Pred::ProbeIsNull => Expr::is_null(Expr::col(
                self.probe.expect("ProbeIsNull needs a Probe guard"),
            )),
            Pred::Reversed(term) => {
                let mut parts = conjuncts(&self.pred(term));
                parts.reverse();
                conjoin(parts)
            }
        }
    }

    /// Side 0 ([`Pred::Inside`]) or 1 ([`Pred::Rest`]) of the split of
    /// every matched conjunct by whether it references only `a` and `b`.
    /// Both sides are made at once and each is handed out once; a side
    /// asked for again is made again.
    fn split(&mut self, a: Node, b: Node, side: usize) -> Expr {
        if self.split_of == Some((a, b)) {
            if let Some(part) = self.sides[side].take() {
                return part;
            }
        }
        let (ga, gb) = (self.group(a), self.group(b));
        let (inside, rest): (Vec<Expr>, Vec<Expr>) = all_conjuncts(self.bound)
            .into_iter()
            .partition(|e| pred_within_groups(self.ctx, e, ga, gb));
        self.split_of = Some((a, b));
        self.sides = [Some(conjoin(inside)), Some(conjoin(rest))];
        self.sides[side].take().expect("just made")
    }

    fn tree(&mut self, target: &Target) -> NewTree {
        match target {
            Target::Group(n) => panic!("a target's root is an operator, not group node {n}"),
            Target::Join {
                kind,
                pred,
                children,
            } => {
                let predicate = self.pred(pred);
                let inputs = vec![self.child(&children[0]), self.child(&children[1])];
                NewTree::new(
                    Operator::Join {
                        kind: *kind,
                        predicate,
                    },
                    inputs,
                )
            }
            Target::Select { pred, input } => {
                let predicate = self.pred(pred);
                NewTree::new(Operator::Select { predicate }, vec![self.child(input)])
            }
            Target::Project { of, input } => {
                let outputs = self
                    .ctx
                    .schema(self.group(*of))
                    .iter()
                    .map(|ci| (ci.id, Expr::col(ci.id)))
                    .collect();
                NewTree::new(Operator::Project { outputs }, vec![self.child(input)])
            }
        }
    }

    fn child(&mut self, target: &Target) -> NewChild {
        match target {
            Target::Group(n) => NewChild::Group(self.group(*n)),
            t => NewChild::Tree(self.tree(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{OpMatcher, PatternTree};
    use crate::rule::RuleAction;
    use ruletest_logical::OpKind;

    /// What a rewrite asks of a node.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Use {
        Group,
        Operator,
        Predicate,
    }

    fn pred_uses(term: &Pred, out: &mut Vec<(Node, Use)>) {
        match term {
            Pred::Of(n) => out.push((*n, Use::Predicate)),
            Pred::Inside(a, b) | Pred::Rest(a, b) => {
                out.extend([(*a, Use::Group), (*b, Use::Group)])
            }
            Pred::ProbeIsNull => {}
            Pred::Reversed(term) => pred_uses(term, out),
        }
    }

    fn target_uses(target: &Target, out: &mut Vec<(Node, Use)>) {
        match target {
            Target::Group(n) => out.push((*n, Use::Group)),
            Target::Join { pred, children, .. } => {
                pred_uses(pred, out);
                children.iter().for_each(|c| target_uses(c, out));
            }
            Target::Select { pred, input } => {
                pred_uses(pred, out);
                target_uses(input, out);
            }
            Target::Project { of, input } => {
                out.push((*of, Use::Group));
                target_uses(input, out);
            }
        }
    }

    /// The pattern's nodes in pre-order: `None` for a placeholder, else
    /// whether the operator carries a predicate.
    fn pattern_nodes(pattern: &PatternTree, out: &mut Vec<Option<bool>>) {
        match pattern {
            PatternTree::Any => out.push(None),
            PatternTree::Op { matcher, children } => {
                out.push(Some(matches!(
                    matcher,
                    OpMatcher::Join(_) | OpMatcher::Kind(OpKind::Join | OpKind::Select)
                )));
                children.iter().for_each(|c| pattern_nodes(c, out));
            }
        }
    }

    /// What the interpreter would otherwise panic on mid-search: every
    /// catalog rewrite names only nodes its pattern has, asks predicates
    /// only of operators that carry one, roots each target at an operator
    /// and binds a probe before testing it.
    #[test]
    fn catalog_rewrites_fit_their_patterns() {
        let mut checked = 0;
        for rule in crate::rules::exploration_rules() {
            let RuleAction::Rewrite(rewrite) = &rule.action else {
                continue;
            };
            let mut nodes = Vec::new();
            pattern_nodes(&rule.pattern, &mut nodes);
            assert!(nodes.len() <= MAX_NODES, "{}", rule.name);
            let mut uses = Vec::new();
            let mut probe = false;
            for guard in &rewrite.guards {
                match *guard {
                    Guard::Scope { pred, a, b } => {
                        uses.extend([(pred, Use::Predicate), (a, Use::Group), (b, Use::Group)])
                    }
                    Guard::UniqueKey { pred, get } => {
                        uses.extend([(pred, Use::Predicate), (get, Use::Operator)])
                    }
                    Guard::Probe { side, equi } => {
                        probe = true;
                        uses.push((side, Use::Group));
                        uses.extend(equi.map(|n| (n, Use::Predicate)));
                    }
                }
            }
            for target in &rewrite.targets {
                assert!(!matches!(target, Target::Group(_)), "{}", rule.name);
                target_uses(target, &mut uses);
            }
            for (n, used) in uses {
                let node = nodes.get(n).copied();
                let fits = match used {
                    Use::Group => node.is_some(),
                    Use::Operator => matches!(node, Some(Some(_))),
                    Use::Predicate => node == Some(Some(true)),
                };
                assert!(fits, "{}: node {n} as {used:?}", rule.name);
            }
            let tests_probe = format!("{:?}", rewrite.targets).contains("ProbeIsNull");
            assert!(probe || !tests_probe, "{}: unbound probe", rule.name);
            checked += 1;
        }
        assert_eq!(checked, 10);
    }
}
