//! The rule IR: a substitution as data, run by one interpreter (after "An
//! Extensible and Verifiable Language for Query Rewrite Rules").
//!
//! A rule in the IR is its [`PatternTree`] plus a
//! [`Rewrite`]: guards the pattern cannot express, and target templates
//! built from what the pattern matched. Both refer to pattern nodes by
//! [`Node`] number — pre-order over concrete nodes and placeholders alike,
//! the order binding signatures list concrete picks in. The guard and term
//! vocabularies are closed, so a rewrite can be inspected and edited
//! (the mutant catalog deletes a guard, changes a join kind or a scope)
//! without running it. DESIGN §18 lists the rules that stay hand-coded and
//! why.

use crate::memo::{expr_word, join_word, op_word, select_word, GroupExpr, GroupId, Inputs, Memo};
use crate::pattern::PatternTree;
use crate::rule::{Bound, BoundChild, NewChild, NewTree, RuleCtx};
use ruletest_common::ColId;
use ruletest_expr::{
    collect_columns, conjoin, conjuncts, every_column, for_each_conjunct, rewrite_columns,
    try_col_eq_col, AggCall, AggFunc, BinOp, Expr,
};
use ruletest_logical::{JoinKind, Operator};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::slice;

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
    /// Every argument of the `GbAgg` at node `agg` is an output of node
    /// `side` (`COUNT(*)` has none).
    ArgsWithin { agg: Node, side: Node },
    /// The `GbAgg` at the node groups by some column, or computes no
    /// `COUNT`: a scalar global aggregate would turn COUNT's empty-input 0
    /// into a SUM over nothing, NULL.
    NoScalarCount(Node),
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
    /// The term as it reads over branch `side` of the union at node
    /// `union`: each of the union's outputs becomes that branch's column.
    Branch {
        term: Box<Pred>,
        union: Node,
        side: usize,
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

    /// [`Pred::Branch`].
    pub fn branch(term: Pred, union: Node, side: usize) -> Pred {
        Pred::Branch {
            term: Box::new(term),
            union,
            side,
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
    /// The operator matched at node `node`, over new inputs; with `pred`,
    /// a join re-emitted with that predicate.
    Reemit {
        node: Node,
        pred: Option<Pred>,
        inputs: Vec<Target>,
    },
    /// A `UnionAll` with the column lists of the union at node `of`: its
    /// outputs, and as input `i`'s list that union's branch `branches[i]`.
    /// Every list gains, before or after the union's, the columns of node
    /// `before` / `after` that node 0 outputs too, each as itself.
    Union {
        of: Node,
        branches: [usize; 2],
        before: Option<Node>,
        after: Option<Node>,
        inputs: Box<[Target; 2]>,
    },
    /// A `GbAgg` over `input`.
    GbAgg {
        keys: Keys,
        aggs: Aggs,
        input: Box<Target>,
    },
}

/// The grouping columns of a target `GbAgg`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Keys {
    /// Those of the `GbAgg` at the node, in its order.
    Of(Node),
    /// Eager aggregation's partial key, ascending: the grouping columns of
    /// the `GbAgg` at `agg` and the columns of node `pred`'s predicate,
    /// each kept if node `side` outputs it.
    Partial { agg: Node, pred: Node, side: Node },
}

/// The aggregates of a target `GbAgg`, one per aggregate of the `GbAgg` at
/// the node. The output ids `Local` mints are minted once per application,
/// in aggregate order, and `Global` reads the same ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Aggs {
    /// The aggregate over its own argument, into a fresh id.
    Local(Node),
    /// The aggregate's combining function over its local's output, into
    /// the aggregate's own output.
    Global(Node),
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
        Target::Reemit {
            node,
            pred: None,
            inputs,
        }
    }

    pub fn gbagg(keys: Keys, aggs: Aggs, input: Target) -> Target {
        Target::GbAgg {
            keys,
            aggs,
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
    /// The substitutes for one binding, each built whole.
    pub fn apply(&self, ctx: &RuleCtx, bound: &Bound) -> Vec<NewTree> {
        let mut nodes = [Slot::Hole(GroupId(0)); MAX_NODES];
        let n = number(bound, &mut nodes, 0);
        let mut build = Build(Vec::with_capacity(self.targets.len()));
        self.run(ctx, &nodes[..n], &mut build);
        build.0
    }

    /// The substitutes for the binding of `pattern` that signature `sig`
    /// picks (a `(group, expression)` per concrete pattern node, in
    /// pre-order, as the binder lists them), appended to `offers`: what
    /// the search offers the memo. Each target node is looked up in the
    /// memo by its word before it is built, and only the nodes from the
    /// first miss upward are built.
    pub fn probe(
        &self,
        ctx: &RuleCtx,
        pattern: &PatternTree,
        sig: &[(u32, u32)],
        offers: &mut Offers,
    ) {
        let mut nodes = [Slot::Hole(GroupId(0)); MAX_NODES];
        let n = number_sig(ctx.memo, pattern, &mut sig.iter().copied(), &mut nodes, 0);
        let mut probe = Probe {
            memo: ctx.memo,
            offers,
        };
        self.run(ctx, &nodes[..n], &mut probe);
    }

    /// The interpreter: if every guard holds, hands each target to `sink`.
    fn run<'m, S: Sink<'m>>(&self, ctx: &RuleCtx, nodes: &[Slot<'m>], sink: &mut S) {
        let mut m = Match {
            ctx,
            nodes,
            probe: None,
            split_of: None,
            sides: [None, None],
            parts: vec![],
            remainder: vec![],
            fresh: None,
        };
        if !self.guards.iter().all(|g| m.holds(g)) {
            return;
        }
        for target in &self.targets {
            let root = m.child(target, sink);
            sink.offer(root);
        }
    }
}

/// The most nodes a rewrite's pattern may have.
const MAX_NODES: usize = 8;

/// A matched node: a concrete operator with its group and input groups,
/// or the group a placeholder bound.
#[derive(Clone, Copy)]
enum Slot<'m> {
    Op {
        group: GroupId,
        op: &'m Operator,
        inputs: Inputs,
    },
    Hole(GroupId),
}

/// Writes a binding's nodes into `nodes` in pre-order, from `at` on, and
/// returns the index after them.
fn number<'m>(b: &Bound<'m>, nodes: &mut [Slot<'m>], at: usize) -> usize {
    let mut n = at + 1;
    let mut inputs = Inputs::default();
    for c in &b.children {
        inputs.push(c.group());
        n = match c {
            BoundChild::Leaf(g) => {
                nodes[n] = Slot::Hole(*g);
                n + 1
            }
            BoundChild::Nested(nested) => number(nested, nodes, n),
        };
    }
    nodes[at] = Slot::Op {
        group: b.group,
        op: b.op,
        inputs,
    };
    n
}

/// What [`number`] writes for the binding of `pattern` whose signature
/// `sig` yields, read off the memo without building the [`Bound`].
fn number_sig<'m>(
    memo: &'m Memo,
    pattern: &PatternTree,
    sig: &mut impl Iterator<Item = (u32, u32)>,
    nodes: &mut [Slot<'m>],
    at: usize,
) -> usize {
    let (g, e) = sig.next().expect("one pick per concrete pattern node");
    let expr = &memo.group(GroupId(g)).exprs[e as usize];
    let PatternTree::Op { children, .. } = pattern else {
        unreachable!("only concrete pattern nodes are bound");
    };
    nodes[at] = Slot::Op {
        group: GroupId(g),
        op: &expr.op,
        inputs: expr.children,
    };
    let mut n = at + 1;
    for (p, &cg) in children.iter().zip(expr.children.iter()) {
        n = match p {
            PatternTree::Any => {
                nodes[n] = Slot::Hole(cg);
                n + 1
            }
            PatternTree::Op { .. } => number_sig(memo, p, sig, nodes, n),
        };
    }
    n
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

/// A predicate term's value, built only with the node that holds it: the
/// probing sink takes its word and compares it with a stored predicate in
/// place.
enum Term<'m> {
    /// A matched operator's predicate.
    Of(&'m Expr),
    /// Matched conjuncts (none of them TRUE) conjoined left-deep, as
    /// `conjoin` folds them; TRUE when there are none.
    And(Vec<&'m Expr>),
    /// `left op right`.
    Bin(BinOp, Box<[Term<'m>; 2]>),
    /// An expression the interpreter made.
    Made(Expr),
}

impl Term<'_> {
    fn build(self) -> Expr {
        match self {
            Term::Of(e) => e.clone(),
            Term::And(parts) => {
                let mut parts = parts.into_iter().cloned();
                match parts.next() {
                    None => Expr::true_lit(),
                    Some(first) => parts.fold(first, Expr::and),
                }
            }
            Term::Bin(op, args) => {
                let [left, right] = *args;
                Expr::bin(op, left.build(), right.build())
            }
            Term::Made(e) => e,
        }
    }

    /// The built expression's [`Expr::word`].
    fn word(&self) -> u64 {
        match self {
            Term::Of(e) => e.word(),
            Term::And(parts) => match parts.split_first() {
                None => Expr::true_lit().word(),
                Some((first, rest)) => rest.iter().fold(first.word(), |folded, c| {
                    Expr::bin_word(BinOp::And, folded, c.word())
                }),
            },
            Term::Bin(op, args) => Expr::bin_word(*op, args[0].word(), args[1].word()),
            Term::Made(e) => e.word(),
        }
    }

    /// True iff the built expression would equal `e`.
    fn is(&self, e: &Expr) -> bool {
        match self {
            Term::Of(mine) => *mine == e,
            Term::And(parts) => conjoined_is(parts, e),
            Term::Bin(op, args) => matches!(
                e,
                Expr::Bin { op: o, left, right }
                    if o == op && args[0].is(left) && args[1].is(right)
            ),
            Term::Made(mine) => mine == e,
        }
    }

    /// True iff the built expression is the literal TRUE.
    fn is_true(&self) -> bool {
        match self {
            Term::Of(e) => e.is_true_lit(),
            Term::And(parts) => parts.is_empty(),
            Term::Bin(..) => false,
            Term::Made(e) => e.is_true_lit(),
        }
    }

    /// [`has_conjunct`] of the built expression.
    fn has_conjunct(&self) -> bool {
        match self {
            Term::Of(e) => has_conjunct(e),
            Term::And(parts) => !parts.is_empty(),
            Term::Bin(BinOp::And, args) => args.iter().any(Term::has_conjunct),
            Term::Bin(..) => true,
            Term::Made(e) => has_conjunct(e),
        }
    }
}

/// True iff `e` is `parts` conjoined left-deep (TRUE when there are none).
fn conjoined_is(parts: &[&Expr], e: &Expr) -> bool {
    match parts {
        [] => e.is_true_lit(),
        [one] => *one == e,
        [rest @ .., last] => matches!(
            e,
            Expr::Bin { op: BinOp::And, left, right } if **right == **last && conjoined_is(rest, left)
        ),
    }
}

/// A target operator, built only with its node.
enum OpTerm<'m> {
    Join {
        kind: JoinKind,
        pred: Term<'m>,
    },
    Select(Term<'m>),
    /// Any other operator: a matched one re-emitted as it is, or one the
    /// interpreter made.
    Other(Cow<'m, Operator>),
}

impl OpTerm<'_> {
    fn build(self) -> Operator {
        match self {
            OpTerm::Join { kind, pred } => Operator::Join {
                kind,
                predicate: pred.build(),
            },
            OpTerm::Select(pred) => Operator::Select {
                predicate: pred.build(),
            },
            OpTerm::Other(op) => op.into_owned(),
        }
    }

    /// The built operator's word (see [`op_word`]).
    fn word(&self) -> u64 {
        match self {
            OpTerm::Join { kind, pred } => join_word(*kind, pred.word()),
            OpTerm::Select(pred) => select_word(pred.word()),
            OpTerm::Other(op) => op_word(op),
        }
    }

    /// True iff the built operator would equal `op`.
    fn is(&self, op: &Operator) -> bool {
        match (self, op) {
            (OpTerm::Join { kind, pred }, Operator::Join { kind: k, predicate }) => {
                kind == k && pred.is(predicate)
            }
            (OpTerm::Select(pred), Operator::Select { predicate }) => pred.is(predicate),
            (OpTerm::Other(mine), op) => **mine == *op,
            _ => false,
        }
    }
}

/// Where the interpreter puts each target node, inputs first:
/// [`Rewrite::apply`] builds every node ([`Build`]); the search looks each
/// one up in the memo first ([`Probe`]).
trait Sink<'m> {
    type Node;
    /// A group the match bound.
    fn group(&mut self, g: GroupId) -> Self::Node;
    /// An operator over its inputs' nodes, in order (each `Some`, to be
    /// taken).
    fn op(&mut self, op: OpTerm<'m>, inputs: &mut [Option<Self::Node>]) -> Self::Node;
    /// A target's root, which is an operator.
    fn offer(&mut self, root: Self::Node);
}

/// The building sink: every substitute whole.
struct Build(Vec<NewTree>);

impl<'m> Sink<'m> for Build {
    type Node = NewChild;

    fn group(&mut self, g: GroupId) -> NewChild {
        NewChild::Group(g)
    }

    fn op(&mut self, op: OpTerm<'m>, inputs: &mut [Option<NewChild>]) -> NewChild {
        let mut children = Vec::with_capacity(inputs.len());
        children.extend(inputs.iter_mut().flat_map(Option::take));
        NewChild::Tree(NewTree::new(op.build(), children))
    }

    fn offer(&mut self, root: NewChild) {
        match root {
            NewChild::Tree(tree) => self.0.push(tree),
            NewChild::Group(g) => panic!("a target's root is an operator, not group {g:?}"),
        }
    }
}

/// What the probing sink makes of a target node.
#[derive(Debug)]
pub enum Probed {
    /// A group the match bound.
    Group(GroupId),
    /// An expression the memo holds: its index key and its first home.
    Found(u64, GroupId),
    /// A new subtree, built from its first miss upward: its inputs that
    /// the memo holds are group references.
    Tree(NewTree),
}

/// What the search offers the memo for one binding ([`Rewrite::probe`]);
/// [`Memo::offer`] takes each root.
#[derive(Debug, Default)]
pub struct Offers {
    /// One per target, in order; never a [`Probed::Group`].
    pub roots: Vec<Probed>,
    /// The index keys of the expressions found below a root, each of which
    /// an organic re-derivation turns organic ([`Memo::upgrade`]).
    pub below: Vec<u64>,
}

/// The probing sink.
struct Probe<'m, 'o> {
    memo: &'m Memo,
    offers: &'o mut Offers,
}

impl<'m> Sink<'m> for Probe<'m, '_> {
    type Node = Probed;

    fn group(&mut self, g: GroupId) -> Probed {
        Probed::Group(g)
    }

    fn op(&mut self, op: OpTerm<'m>, inputs: &mut [Option<Probed>]) -> Probed {
        let mut held = Inputs::default();
        let all_held = inputs.iter().flatten().all(|input| match *input {
            Probed::Group(g) | Probed::Found(_, g) => {
                held.push(g);
                true
            }
            Probed::Tree(_) => false,
        });
        let found = all_held
            .then(|| {
                let word = expr_word(op.word(), &held);
                let is = |e: &GroupExpr| e.children == held && op.is(&e.op);
                self.memo.lookup(word, is).ok()
            })
            .flatten();
        let below = &mut self.offers.below;
        if let Some((key, home)) = found {
            for input in inputs.iter().flatten() {
                if let Probed::Found(key, _) = *input {
                    below.push(key);
                }
            }
            return Probed::Found(key, home);
        }
        let mut children = Vec::with_capacity(inputs.len());
        for input in inputs.iter_mut().flat_map(Option::take) {
            children.push(match input {
                Probed::Group(g) => NewChild::Group(g),
                Probed::Found(key, g) => {
                    below.push(key);
                    NewChild::Group(g)
                }
                Probed::Tree(tree) => NewChild::Tree(tree),
            });
        }
        Probed::Tree(NewTree::new(op.build(), children))
    }

    fn offer(&mut self, root: Probed) {
        if let Probed::Group(g) = root {
            panic!("a target's root is an operator, not group {g:?}");
        }
        self.offers.roots.push(root);
    }
}

/// One binding and what the guards bound.
struct Match<'c, 'm> {
    ctx: &'c RuleCtx<'c>,
    nodes: &'c [Slot<'m>],
    probe: Option<ColId>,
    /// The nodes of the last [`Pred::Inside`] / [`Pred::Rest`] split, and
    /// its sides not yet handed out.
    split_of: Option<(Node, Node)>,
    sides: [Option<Vec<&'m Expr>>; 2],
    /// What [`Guard::Split`] bound: per scope its conjuncts, and the rest.
    parts: Vec<Vec<&'m Expr>>,
    remainder: Vec<&'m Expr>,
    /// The output ids [`Aggs::Local`] minted, once minted.
    fresh: Option<Vec<ColId>>,
}

impl<'c, 'm> Match<'c, 'm> {
    fn group(&self, n: Node) -> GroupId {
        match self.nodes[n] {
            Slot::Op { group, .. } | Slot::Hole(group) => group,
        }
    }

    fn op(&self, n: Node) -> &'m Operator {
        match self.nodes[n] {
            Slot::Op { op, .. } => op,
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

    /// The `GbAgg` at node `n`: its grouping columns and its aggregates.
    fn gbagg(&self, n: Node) -> (&'m [ColId], &'m [AggCall]) {
        match self.op(n) {
            Operator::GbAgg { group_by, aggs } => (group_by, aggs),
            op => panic!("rewrite node {n} is a {}, not a GbAgg", op.label()),
        }
    }

    /// The union at node `n`: its outputs and its two branches' lists.
    fn union(&self, n: Node) -> (&'m [ColId], [&'m [ColId]; 2]) {
        match self.op(n) {
            Operator::UnionAll {
                outputs,
                left_cols,
                right_cols,
            } => (outputs, [left_cols, right_cols]),
            op => panic!("rewrite node {n} is a {}, not a UnionAll", op.label()),
        }
    }

    /// The columns of node `n`, in its schema's order, that node 0
    /// outputs too.
    fn passed(&self, n: Option<Node>) -> Vec<ColId> {
        let Some(n) = n else { return vec![] };
        let root = self.ctx.cols(self.group(0));
        let schema = self.ctx.schema(self.group(n)).iter();
        schema.map(|c| c.id).filter(|c| root.contains(c)).collect()
    }

    /// Fresh output ids for node `n`'s aggregates, minted on first use.
    fn fresh(&mut self, n: Node) -> &[ColId] {
        let (ctx, aggs) = (self.ctx, self.gbagg(n).1);
        self.fresh.get_or_insert_with(|| {
            let mut ids = ctx.ids.borrow_mut();
            aggs.iter().map(|_| ids.fresh()).collect()
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
                let scopes: Vec<_> = scopes.iter().map(|s| self.scope(s)).collect();
                let mut parts = vec![vec![]; scopes.len()];
                let mut remainder = vec![];
                for_each_conjunct(self.predicate(pred), &mut |c| {
                    let within = |s: &ScopeCols| match s {
                        ScopeCols::Group(cols) => every_column(c, &mut |col| cols.contains(&col)),
                        ScopeCols::List(cols) => every_column(c, &mut |col| cols.contains(&col)),
                        ScopeCols::Nothing => false,
                    };
                    match scopes.iter().position(within) {
                        Some(i) => parts[i].push(c),
                        None => remainder.push(c),
                    }
                });
                (self.parts, self.remainder) = (parts, remainder);
                true
            }
            Guard::NonEmpty(ref term) => self.pred(term).has_conjunct(),
            Guard::ArgsWithin { agg, side } => {
                let side = ctx.cols(self.group(side));
                let aggs = self.gbagg(agg).1;
                aggs.iter().all(|a| a.arg.is_none_or(|c| side.contains(&c)))
            }
            Guard::NoScalarCount(n) => {
                let (group_by, aggs) = self.gbagg(n);
                !group_by.is_empty()
                    || !aggs
                        .iter()
                        .any(|a| matches!(a.func, AggFunc::Count | AggFunc::CountStar))
            }
        }
    }

    /// The columns a scope holds for this match.
    fn scope(&self, scope: &Scope) -> ScopeCols<'c, 'm> {
        match *scope {
            Scope::Input {
                join,
                side,
                ref kinds,
            } => match (self.op(join), self.nodes[join]) {
                (Operator::Join { kind, .. }, Slot::Op { inputs, .. }) if kinds.contains(kind) => {
                    ScopeCols::Group(self.ctx.cols(inputs[side]))
                }
                _ => ScopeCols::Nothing,
            },
            Scope::GroupBy(n) => ScopeCols::List(self.gbagg(n).0),
        }
    }

    fn pred(&mut self, term: &Pred) -> Term<'m> {
        match term {
            Pred::Of(n) => Term::Of(self.predicate(*n)),
            &Pred::Inside(a, b) => Term::And(self.split(a, b, 0)),
            &Pred::Rest(a, b) => Term::And(self.split(a, b, 1)),
            Pred::ProbeIsNull => Term::Made(Expr::is_null(Expr::col(
                self.probe.expect("ProbeIsNull needs a Probe guard"),
            ))),
            Pred::Reversed(term) => {
                let mut parts = conjuncts(&self.pred(term).build());
                parts.reverse();
                Term::Made(conjoin(parts))
            }
            &Pred::Part(i) => Term::And(self.parts[i].clone()),
            Pred::Remainder => Term::And(self.remainder.clone()),
            Pred::Bin {
                op,
                args,
                drop_true,
            } => {
                let left = self.pred(&args[0]);
                let right = self.pred(&args[1]);
                if *drop_true && right.is_true() {
                    left
                } else {
                    Term::Bin(*op, Box::new([left, right]))
                }
            }
            &Pred::Branch {
                ref term,
                union,
                side,
            } => {
                let (outputs, branches) = self.union(union);
                let to = outputs.iter().zip(branches[side]);
                Term::Made(rewrite_columns(&self.pred(term).build(), &mut |c| {
                    to.clone()
                        .find(|(o, _)| **o == c)
                        .map(|(_, b)| Expr::Col(*b))
                }))
            }
        }
    }

    /// Side 0 ([`Pred::Inside`]) or 1 ([`Pred::Rest`]) of the split of
    /// every matched conjunct, in pre-order, by whether it references only
    /// `a` and `b`. Both sides are made at once, in one walk, and each is
    /// handed out once; a side asked for again is made again.
    fn split(&mut self, a: Node, b: Node, side: usize) -> Vec<&'m Expr> {
        if self.split_of == Some((a, b)) {
            if let Some(part) = self.sides[side].take() {
                return part;
            }
        }
        let (ga, gb) = (self.group(a), self.group(b));
        let mut sides: [Vec<&'m Expr>; 2] = [vec![], vec![]];
        for slot in self.nodes {
            if let Slot::Op { op, .. } = slot {
                if let Some(predicate) = predicate_of(op) {
                    for_each_conjunct(predicate, &mut |c| {
                        sides[usize::from(!pred_within_groups(self.ctx, c, ga, gb))].push(c)
                    });
                }
            }
        }
        self.split_of = Some((a, b));
        self.sides = sides.map(Some);
        self.sides[side].take().expect("just made")
    }

    /// A target node, inputs first, into `sink`.
    fn child<S: Sink<'m>>(&mut self, target: &Target, sink: &mut S) -> S::Node {
        match target {
            Target::Group(n) => sink.group(self.group(*n)),
            Target::Join {
                kind,
                pred,
                children,
            } => {
                let pred = self.pred(pred);
                self.node(OpTerm::Join { kind: *kind, pred }, &children[..], sink)
            }
            Target::Select { pred, input } => {
                let pred = self.pred(pred);
                self.node(OpTerm::Select(pred), slice::from_ref(input), sink)
            }
            Target::SelectIfAny { pred, input } => {
                let pred = self.pred(pred);
                if !pred.has_conjunct() {
                    return self.child(input, sink);
                }
                self.node(OpTerm::Select(pred), slice::from_ref(input), sink)
            }
            Target::Project { of, input } => {
                let outputs = self
                    .ctx
                    .schema(self.group(*of))
                    .iter()
                    .map(|ci| (ci.id, Expr::col(ci.id)))
                    .collect();
                let op = OpTerm::Other(Cow::Owned(Operator::Project { outputs }));
                self.node(op, slice::from_ref(input), sink)
            }
            Target::Reemit { node, pred, inputs } => {
                let op = match (pred, self.op(*node)) {
                    (None, Operator::Join { kind, predicate }) => OpTerm::Join {
                        kind: *kind,
                        pred: Term::Of(predicate),
                    },
                    (None, Operator::Select { predicate }) => OpTerm::Select(Term::Of(predicate)),
                    (None, op) => OpTerm::Other(Cow::Borrowed(op)),
                    (Some(term), &Operator::Join { kind, .. }) => OpTerm::Join {
                        kind,
                        pred: self.pred(term),
                    },
                    (Some(_), op) => panic!("a re-emitted {} has no predicate", op.label()),
                };
                self.node(op, inputs, sink)
            }
            Target::Union {
                of,
                branches,
                before,
                after,
                inputs,
            } => {
                let (outputs, lists) = self.union(*of);
                let (before, after) = (self.passed(*before), self.passed(*after));
                let list = |mid: &[ColId]| [&before[..], mid, &after[..]].concat();
                let op = OpTerm::Other(Cow::Owned(Operator::UnionAll {
                    outputs: list(outputs),
                    left_cols: list(lists[branches[0]]),
                    right_cols: list(lists[branches[1]]),
                }));
                self.node(op, &inputs[..], sink)
            }
            Target::GbAgg { keys, aggs, input } => {
                let group_by = match *keys {
                    Keys::Of(n) => self.gbagg(n).0.to_vec(),
                    Keys::Partial { agg, pred, side } => {
                        let mut keys: BTreeSet<ColId> = self.gbagg(agg).0.iter().copied().collect();
                        collect_columns(self.predicate(pred), &mut keys);
                        let side = self.ctx.cols(self.group(side));
                        keys.retain(|c| side.contains(c));
                        keys.into_iter().collect()
                    }
                };
                let (n, global) = match *aggs {
                    Aggs::Local(n) => (n, false),
                    Aggs::Global(n) => (n, true),
                };
                let of = self.gbagg(n).1;
                let aggs = of.iter().zip(self.fresh(n)).map(|(a, &id)| {
                    if global {
                        AggCall::new(a.func.combining_func(), Some(id), a.output)
                    } else {
                        AggCall::new(a.func, a.arg, id)
                    }
                });
                let op = OpTerm::Other(Cow::Owned(Operator::GbAgg {
                    group_by,
                    aggs: aggs.collect(),
                }));
                self.node(op, slice::from_ref(input), sink)
            }
        }
    }

    /// The node of `op` over `inputs` (at most two), into `sink`.
    fn node<S: Sink<'m>>(&mut self, op: OpTerm<'m>, inputs: &[Target], sink: &mut S) -> S::Node {
        assert!(inputs.len() <= 2, "{} inputs", inputs.len());
        let mut args = [None, None];
        for (arg, input) in args.iter_mut().zip(inputs) {
            *arg = Some(self.child(input, sink));
        }
        sink.op(op, &mut args[..inputs.len()])
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
        InnerJoin,
        GbAgg,
        UnionAll,
    }

    /// What a rewrite asks of its nodes, and of the split its guards bound
    /// (`parts`: the bound split's scope count, if any; `mints`: the node
    /// whose aggregates get fresh ids, if any).
    struct Uses {
        nodes: Vec<(Node, Use)>,
        parts: Option<usize>,
        probe: bool,
        mints: Option<Node>,
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
                &Pred::Branch {
                    ref term,
                    union,
                    side,
                } => {
                    assert!(side < 2, "{rule}: union branch {side}");
                    self.nodes.push((union, Use::UnionAll));
                    self.pred(term, rule);
                }
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
                &Guard::ArgsWithin { agg, side } => {
                    self.nodes.extend([(agg, Use::GbAgg), (side, Use::Group)])
                }
                &Guard::NoScalarCount(n) => self.nodes.push((n, Use::GbAgg)),
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
                Target::Reemit { node, pred, inputs } => {
                    let used = match pred {
                        Some(term) => {
                            self.pred(term, rule);
                            Use::Join
                        }
                        None => Use::Operator,
                    };
                    self.nodes.push((*node, used));
                    inputs.iter().for_each(|t| self.target(t, rule));
                }
                Target::Union {
                    of,
                    branches,
                    before,
                    after,
                    inputs,
                } => {
                    assert!(branches.iter().all(|&b| b < 2), "{rule}: {branches:?}");
                    self.nodes.push((*of, Use::UnionAll));
                    self.nodes.extend(
                        [before, after]
                            .into_iter()
                            .flatten()
                            .map(|&n| (n, Use::Group)),
                    );
                    inputs.iter().for_each(|t| self.target(t, rule));
                }
                Target::GbAgg { keys, aggs, input } => {
                    match *keys {
                        Keys::Of(n) => self.nodes.push((n, Use::GbAgg)),
                        Keys::Partial { agg, pred, side } => self.nodes.extend([
                            (agg, Use::GbAgg),
                            (pred, Use::InnerJoin),
                            (side, Use::Group),
                        ]),
                    }
                    let (Aggs::Local(n) | Aggs::Global(n)) = *aggs;
                    self.nodes.push((n, Use::GbAgg));
                    assert_eq!(
                        *self.mints.get_or_insert(n),
                        n,
                        "{rule}: mints for two nodes"
                    );
                    self.target(input, rule);
                }
            }
        }
    }

    /// The pattern's nodes in pre-order: `None` for a placeholder, else
    /// the node's matcher.
    fn pattern_nodes<'p>(pattern: &'p PatternTree, out: &mut Vec<Option<&'p OpMatcher>>) {
        match pattern {
            PatternTree::Any => out.push(None),
            PatternTree::Op { matcher, children } => {
                out.push(Some(matcher));
                children.iter().for_each(|c| pattern_nodes(c, out));
            }
        }
    }

    /// What the interpreter would otherwise panic on mid-search: every
    /// catalog rewrite names only nodes its pattern has, asks predicates
    /// only of operators that carry one, scopes only of the joins and
    /// aggregates that have them, branch lists only of a union and a
    /// partial key only of an aggregate over an inner join, roots each
    /// target at an operator, binds a probe or a split before a term reads
    /// it, and mints fresh ids exactly when its rule says it does.
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
                mints: None,
            };
            rewrite.guards.iter().for_each(|g| uses.guard(g, rule.name));
            for target in &rewrite.targets {
                assert!(!matches!(target, Target::Group(_)), "{}", rule.name);
                uses.target(target, rule.name);
            }
            assert_eq!(uses.mints.is_some(), rule.mints_fresh_ids, "{}", rule.name);
            for (n, used) in uses.nodes {
                let node = nodes.get(n).copied();
                let kind = node.flatten().map(|m| match m {
                    OpMatcher::Join(_) => OpKind::Join,
                    OpMatcher::Kind(k) => *k,
                });
                let fits = match used {
                    Use::Group => node.is_some(),
                    Use::Operator => kind.is_some(),
                    Use::Predicate => matches!(kind, Some(OpKind::Join | OpKind::Select)),
                    Use::Join => kind == Some(OpKind::Join),
                    Use::InnerJoin => node == Some(Some(&OpMatcher::Join(vec![JoinKind::Inner]))),
                    Use::GbAgg => kind == Some(OpKind::GbAgg),
                    Use::UnionAll => kind == Some(OpKind::UnionAll),
                };
                assert!(fits, "{}: node {n} as {used:?}", rule.name);
            }
            checked += 1;
        }
        assert_eq!(checked, 30);
    }
}
