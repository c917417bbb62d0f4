//! The rule IR: a substitution as data, run by one interpreter (after "An
//! Extensible and Verifiable Language for Query Rewrite Rules").
//!
//! A rule in the IR is its [`PatternTree`](crate::PatternTree) plus a
//! [`Rewrite`]: guards the pattern cannot express, and target templates
//! built from what the pattern matched. Both refer to pattern nodes by
//! [`Node`] number — pre-order over concrete nodes and placeholders alike,
//! the order binding signatures list concrete picks in. The guard and term
//! vocabularies are closed, so a rewrite can be inspected and edited
//! (the mutant catalog deletes a guard, changes a join kind or a scope)
//! without running it. DESIGN §18 lists the rules that stay hand-coded and
//! why.

use crate::memo::GroupId;
use crate::rule::{Bound, BoundChild, NewChild, NewTree, RuleCtx};
use ruletest_common::ColId;
use ruletest_expr::{
    conjoin, conjuncts, every_column, for_each_conjunct, try_col_eq_col, BinOp, Expr,
};
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
    /// Binds the terms [`Pred::Part`] and [`Pred::Remainder`]: each
    /// conjunct of node `pred`'s predicate goes to the first of `scopes`
    /// that holds every column it references, or to the remainder. Always
    /// holds.
    Split { pred: Node, scopes: Vec<Scope> },
    /// The term has at least one conjunct.
    NonEmpty(Pred),
}

/// Where a [`Guard::Split`] may move a conjunct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scope {
    /// The outputs of input `side` of the join at node `join`, if the
    /// join's kind is one of `kinds`; under any other kind, nothing.
    Input {
        join: Node,
        side: usize,
        kinds: Vec<JoinKind>,
    },
    /// The grouping columns of the `GbAgg` at node `n`.
    GroupBy(Node),
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
    /// The conjuncts the bound [`Guard::Split`] put in its `i`-th scope,
    /// conjoined.
    Part(usize),
    /// The conjuncts it put in no scope, conjoined.
    Remainder,
    /// `left op right`: the right side nests whole, where conjoining both
    /// sides' conjuncts would fold left. With `drop_true`, a right side that
    /// is the literal TRUE is left out and the term is the left side.
    Bin {
        op: BinOp,
        args: Box<[Pred; 2]>,
        drop_true: bool,
    },
}

impl Pred {
    /// `left AND right`.
    pub fn and(left: Pred, right: Pred) -> Pred {
        Pred::Bin {
            op: BinOp::And,
            args: Box::new([left, right]),
            drop_true: false,
        }
    }
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
    /// A `Select` over `input`, or `input` itself when the predicate has
    /// no conjuncts.
    SelectIfAny {
        pred: Pred,
        input: Box<Target>,
    },
    /// The identity projection of node `of`'s schema.
    Project {
        of: Node,
        input: Box<Target>,
    },
    /// The operator matched at node `node`, over new inputs.
    Reemit {
        node: Node,
        inputs: Vec<Target>,
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

    pub fn select_if_any(pred: Pred, input: Target) -> Target {
        Target::SelectIfAny {
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

    pub fn reemit(node: Node, inputs: Vec<Target>) -> Target {
        Target::Reemit { node, inputs }
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
            parts: vec![],
            remainder: vec![],
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
fn pred_within_groups(ctx: &RuleCtx, pred: &Expr, a: GroupId, b: GroupId) -> bool {
    let (a, b) = (ctx.cols(a), ctx.cols(b));
    every_column(pred, &mut |c| a.contains(&c) || b.contains(&c))
}

/// True iff `pred` has a conjunct: a leaf of its `AND` tree that is not
/// the literal TRUE.
fn has_conjunct(pred: &Expr) -> bool {
    match pred {
        Expr::Bin {
            op: BinOp::And,
            left,
            right,
        } => has_conjunct(left) || has_conjunct(right),
        e => !e.is_true_lit(),
    }
}

/// The predicate a matched operator carries, if it carries one.
fn predicate_of(op: &Operator) -> Option<&Expr> {
    match op {
        Operator::Join { predicate, .. } | Operator::Select { predicate } => Some(predicate),
        _ => None,
    }
}

/// Hands `f` the conjuncts of every predicate in a binding, in pre-order.
fn for_each_bound_conjunct(b: &Bound, f: &mut impl FnMut(&Expr)) {
    if let Some(predicate) = predicate_of(b.op) {
        for_each_conjunct(predicate, f);
    }
    for c in &b.children {
        if let BoundChild::Nested(nested) = c {
            for_each_bound_conjunct(nested, f);
        }
    }
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
    /// What [`Guard::Split`] bound: per scope its conjuncts, and the rest.
    parts: Vec<Vec<Expr>>,
    remainder: Vec<Expr>,
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
            Guard::Split { pred, ref scopes } => {
                self.parts = vec![vec![]; scopes.len()];
                self.remainder.clear();
                let scopes: Vec<_> = scopes.iter().map(|s| self.scope(s)).collect();
                for c in conjuncts(self.predicate(pred)) {
                    let within = |s: &ScopeCols| match s {
                        ScopeCols::Group(cols) => every_column(&c, &mut |col| cols.contains(&col)),
                        ScopeCols::List(cols) => every_column(&c, &mut |col| cols.contains(&col)),
                        ScopeCols::Nothing => false,
                    };
                    match scopes.iter().position(within) {
                        Some(i) => self.parts[i].push(c),
                        None => self.remainder.push(c),
                    }
                }
                true
            }
            Guard::NonEmpty(ref term) => has_conjunct(&self.pred(term)),
        }
    }

    /// The columns a scope holds for this match.
    fn scope(&self, scope: &Scope) -> ScopeCols<'c, 'm> {
        match *scope {
            Scope::Input {
                join,
                side,
                ref kinds,
            } => match (self.nodes[join], self.op(join)) {
                (Slot::Op(b), Operator::Join { kind, .. }) if kinds.contains(kind) => {
                    ScopeCols::Group(self.ctx.cols(b.children[side].group()))
                }
                _ => ScopeCols::Nothing,
            },
            Scope::GroupBy(n) => match self.op(n) {
                Operator::GbAgg { group_by, .. } => ScopeCols::List(group_by),
                op => panic!("rewrite node {n} is a {}, not a GbAgg", op.label()),
            },
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
            &Pred::Part(i) => conjoin(self.parts[i].clone()),
            Pred::Remainder => conjoin(self.remainder.clone()),
            Pred::Bin {
                op,
                args,
                drop_true,
            } => {
                let left = self.pred(&args[0]);
                let right = self.pred(&args[1]);
                if *drop_true && right.is_true_lit() {
                    left
                } else {
                    Expr::bin(*op, left, right)
                }
            }
        }
    }

    /// Side 0 ([`Pred::Inside`]) or 1 ([`Pred::Rest`]) of the split of
    /// every matched conjunct by whether it references only `a` and `b`.
    /// Both sides are made at once, in one walk that folds each conjunct
    /// into its side as `conjoin` would (left-deep, in pre-order; no
    /// conjunct is TRUE), and each is handed out once; a side asked for
    /// again is made again.
    fn split(&mut self, a: Node, b: Node, side: usize) -> Expr {
        if self.split_of == Some((a, b)) {
            if let Some(part) = self.sides[side].take() {
                return part;
            }
        }
        let (ga, gb) = (self.group(a), self.group(b));
        let mut sides: [Option<Expr>; 2] = [None, None];
        for_each_bound_conjunct(self.bound, &mut |c| {
            let to = &mut sides[usize::from(!pred_within_groups(self.ctx, c, ga, gb))];
            *to = Some(match to.take() {
                None => c.clone(),
                Some(folded) => Expr::and(folded, c.clone()),
            });
        });
        self.split_of = Some((a, b));
        self.sides = sides.map(|s| Some(s.unwrap_or_else(Expr::true_lit)));
        self.sides[side].take().expect("just made")
    }

    fn tree(&mut self, target: &Target) -> NewTree {
        match self.child(target) {
            NewChild::Tree(tree) => tree,
            NewChild::Group(g) => panic!("a target's root is an operator, not group {g:?}"),
        }
    }

    fn child(&mut self, target: &Target) -> NewChild {
        let (op, inputs) = match target {
            Target::Group(n) => return NewChild::Group(self.group(*n)),
            Target::Join {
                kind,
                pred,
                children,
            } => {
                let predicate = self.pred(pred);
                let op = Operator::Join {
                    kind: *kind,
                    predicate,
                };
                (op, vec![self.child(&children[0]), self.child(&children[1])])
            }
            Target::Select { pred, input } => {
                let predicate = self.pred(pred);
                (Operator::Select { predicate }, vec![self.child(input)])
            }
            Target::SelectIfAny { pred, input } => {
                let predicate = self.pred(pred);
                if !has_conjunct(&predicate) {
                    return self.child(input);
                }
                (Operator::Select { predicate }, vec![self.child(input)])
            }
            Target::Project { of, input } => {
                let outputs = self
                    .ctx
                    .schema(self.group(*of))
                    .iter()
                    .map(|ci| (ci.id, Expr::col(ci.id)))
                    .collect();
                (Operator::Project { outputs }, vec![self.child(input)])
            }
            Target::Reemit { node, inputs } => {
                let op = self.op(*node).clone();
                (op, inputs.iter().map(|t| self.child(t)).collect())
            }
        };
        NewChild::Tree(NewTree::new(op, inputs))
    }
}

/// The columns a [`Scope`] resolved to.
enum ScopeCols<'c, 'm> {
    Group(&'c BTreeSet<ColId>),
    List(&'m [ColId]),
    Nothing,
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
        Join,
        GbAgg,
    }

    /// What a rewrite asks of its nodes, and of the split its guards bound
    /// (`parts`: the bound split's scope count, if any).
    struct Uses {
        nodes: Vec<(Node, Use)>,
        parts: Option<usize>,
        probe: bool,
    }

    impl Uses {
        fn pred(&mut self, term: &Pred, rule: &str) {
            match term {
                Pred::Of(n) => self.nodes.push((*n, Use::Predicate)),
                Pred::Inside(a, b) | Pred::Rest(a, b) => {
                    self.nodes.extend([(*a, Use::Group), (*b, Use::Group)])
                }
                Pred::ProbeIsNull => assert!(self.probe, "{rule}: unbound probe"),
                Pred::Reversed(term) => self.pred(term, rule),
                Pred::Part(i) => {
                    let parts = self.parts.expect("a part of an unbound split");
                    assert!(*i < parts, "{rule}: part {i} of {parts} scopes");
                }
                Pred::Remainder => assert!(self.parts.is_some(), "{rule}: unbound remainder"),
                Pred::Bin { args, .. } => args.iter().for_each(|t| self.pred(t, rule)),
            }
        }

        fn guard(&mut self, guard: &Guard, rule: &str) {
            match guard {
                &Guard::Scope { pred, a, b } => {
                    self.nodes
                        .extend([(pred, Use::Predicate), (a, Use::Group), (b, Use::Group)])
                }
                &Guard::UniqueKey { pred, get } => self
                    .nodes
                    .extend([(pred, Use::Predicate), (get, Use::Operator)]),
                &Guard::Probe { side, equi } => {
                    self.probe = true;
                    self.nodes.push((side, Use::Group));
                    self.nodes.extend(equi.map(|n| (n, Use::Predicate)));
                }
                Guard::Split { pred, scopes } => {
                    self.nodes.push((*pred, Use::Predicate));
                    for scope in scopes {
                        self.nodes.push(match *scope {
                            Scope::Input { join, side, .. } => {
                                assert!(side < 2, "{rule}: join input {side}");
                                (join, Use::Join)
                            }
                            Scope::GroupBy(n) => (n, Use::GbAgg),
                        });
                    }
                    self.parts = Some(scopes.len());
                }
                Guard::NonEmpty(term) => self.pred(term, rule),
            }
        }

        fn target(&mut self, target: &Target, rule: &str) {
            match target {
                Target::Group(n) => self.nodes.push((*n, Use::Group)),
                Target::Join { pred, children, .. } => {
                    self.pred(pred, rule);
                    children.iter().for_each(|c| self.target(c, rule));
                }
                Target::Select { pred, input } | Target::SelectIfAny { pred, input } => {
                    self.pred(pred, rule);
                    self.target(input, rule);
                }
                Target::Project { of, input } => {
                    self.nodes.push((*of, Use::Group));
                    self.target(input, rule);
                }
                Target::Reemit { node, inputs } => {
                    self.nodes.push((*node, Use::Operator));
                    inputs.iter().for_each(|t| self.target(t, rule));
                }
            }
        }
    }

    /// The pattern's nodes in pre-order: `None` for a placeholder, else
    /// the operator kinds the node matches.
    fn pattern_nodes(pattern: &PatternTree, out: &mut Vec<Option<OpKind>>) {
        match pattern {
            PatternTree::Any => out.push(None),
            PatternTree::Op { matcher, children } => {
                out.push(Some(match matcher {
                    OpMatcher::Join(_) => OpKind::Join,
                    OpMatcher::Kind(k) => *k,
                }));
                children.iter().for_each(|c| pattern_nodes(c, out));
            }
        }
    }

    /// What the interpreter would otherwise panic on mid-search: every
    /// catalog rewrite names only nodes its pattern has, asks predicates
    /// only of operators that carry one and scopes only of the joins and
    /// aggregates that have them, roots each target at an operator, and
    /// binds a probe or a split before a term reads it.
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
            let mut uses = Uses {
                nodes: vec![],
                parts: None,
                probe: false,
            };
            rewrite.guards.iter().for_each(|g| uses.guard(g, rule.name));
            for target in &rewrite.targets {
                assert!(!matches!(target, Target::Group(_)), "{}", rule.name);
                uses.target(target, rule.name);
            }
            for (n, used) in uses.nodes {
                let node = nodes.get(n).copied();
                let fits = match used {
                    Use::Group => node.is_some(),
                    Use::Operator => matches!(node, Some(Some(_))),
                    Use::Predicate => {
                        matches!(node, Some(Some(OpKind::Join | OpKind::Select)))
                    }
                    Use::Join => node == Some(Some(OpKind::Join)),
                    Use::GbAgg => node == Some(Some(OpKind::GbAgg)),
                };
                assert!(fits, "{}: node {n} as {used:?}", rule.name);
            }
            checked += 1;
        }
        assert_eq!(checked, 18);
    }
}
