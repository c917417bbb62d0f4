//! The memo: groups of logically equivalent expressions.
//!
//! The memo deduplicates expressions globally — inserting a substitute that
//! structurally equals an existing expression is a no-op — which is what
//! keeps exploration to a fixpoint finite even with inverse rule pairs
//! (merge/split, commute twice, ...).

use crate::rewrite::Probed;
use crate::rule::{NewChild, NewTree};
use ruletest_common::{ColId, Error, Result, RuleId, WordBuild};
use ruletest_logical::{output_schema, JoinKind, OpKind, Operator, Schema};
use ruletest_storage::Database;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::BuildHasher;
use std::ops::Deref;
use std::sync::Arc;

/// Index of a group in the memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// One logical expression inside a group: an operator whose children are
/// groups, and its [`WordHasher`](ruletest_common::WordHasher) word,
/// computed once when it is built (as an expression operand stores its
/// own), which keys the memo's index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupExpr {
    word: u64,
    pub op: Operator,
    pub children: Inputs,
}

impl GroupExpr {
    fn new(op: Operator, children: Inputs) -> GroupExpr {
        GroupExpr {
            word: expr_word(op_word(&op), &children),
            op,
            children,
        }
    }
}

/// The word of an expression whose operator has word `op`, over
/// `children`.
pub(crate) fn expr_word(op: u64, children: &[GroupId]) -> u64 {
    WordBuild::default().hash_one((op, children))
}

/// An operator's word. A join's and a select's come from their
/// predicate's word (what [`Expr`]'s `Hash` gives the predicate), so a
/// word can be had for a predicate that is not built; every other
/// operator's comes from its fields.
pub(crate) fn op_word(op: &Operator) -> u64 {
    match op {
        Operator::Join { kind, predicate } => join_word(*kind, predicate.word()),
        Operator::Select { predicate } => select_word(predicate.word()),
        op => WordBuild::default().hash_one(op),
    }
}

pub(crate) fn join_word(kind: JoinKind, predicate: u64) -> u64 {
    WordBuild::default().hash_one((OpKind::Join, kind, predicate))
}

pub(crate) fn select_word(predicate: u64) -> u64 {
    WordBuild::default().hash_one((OpKind::Select, predicate))
}

/// A memo expression's input groups, held inline (no logical operator has
/// more than two), so offering a substitute allocates no list for them.
/// Derefs to the groups present; a slot not in use is always `g0`, which
/// keeps the derived equality and hash those of the slice.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Inputs {
    len: u8,
    slots: [GroupId; 2],
}

impl Inputs {
    pub(crate) fn push(&mut self, g: GroupId) {
        self.slots[usize::from(self.len)] = g;
        self.len += 1;
    }
}

impl Deref for Inputs {
    type Target = [GroupId];

    fn deref(&self) -> &[GroupId] {
        &self.slots[..usize::from(self.len)]
    }
}

impl fmt::Debug for Inputs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A set of logically equivalent expressions sharing an output schema and a
/// cardinality estimate.
#[derive(Debug, Clone)]
pub struct Group {
    /// Append-only; an expression that belongs to several groups is one
    /// allocation shared by all of them.
    pub exprs: Vec<Arc<GroupExpr>>,
    /// Per-expression provenance flag, aligned with `exprs`: `true` when
    /// the expression's derivation from the seed tree used no fresh-id
    /// minting rule. Fresh-id rules fire only on organic expressions —
    /// an intrinsic (mask-independent) property that keeps the exploration
    /// fixpoint finite without order-dependent throttling.
    pub organic: Vec<bool>,
    /// Which rule created each expression (`None` for the seed tree) —
    /// backs the §7 "rule r2 exercised on an expression obtained as a
    /// result of exercising rule r1" interaction tracking.
    pub created_by: Vec<Option<RuleId>>,
    /// Insertion stamps, aligned with `exprs`: the memo's expression count
    /// just before each push, so strictly increasing within the group
    /// (groups are append-only). An expression shared into a second group
    /// carries the stamp of that later push there. The explore loop reads
    /// "what is new since a rule last matched" off these.
    pub stamp: Vec<u32>,
    pub schema: Schema,
    /// Column ids of `schema`, for the rules' "predicate within this
    /// input" checks.
    pub cols: BTreeSet<ColId>,
    /// Estimated output rows (a logical property: computed once from the
    /// first expression inserted, which is the canonical one).
    pub est_rows: f64,
}

/// The memo structure.
#[derive(Clone)]
pub struct Memo {
    groups: Vec<Group>,
    /// Every expression's homes, keyed by its word. Two expressions with
    /// one word take the next free keys after it, in insertion order, so
    /// a lookup walks keys from the word until it finds the expression or
    /// a free key (nothing is ever removed).
    index: HashMap<u64, Homes, WordBuild>,
    num_exprs: usize,
}

/// Every `(group, position)` holding an expression: where it was first
/// inserted, inline, then each group it was later shared into.
#[derive(Clone)]
struct Homes {
    first: (GroupId, u32),
    more: Vec<(GroupId, u32)>,
}

impl Memo {
    pub fn new() -> Self {
        Self {
            groups: Vec::new(),
            index: HashMap::default(),
            num_exprs: 0,
        }
    }

    pub fn group(&self, id: GroupId) -> &Group {
        &self.groups[id.0 as usize]
    }

    pub fn schema(&self, id: GroupId) -> &Schema {
        &self.group(id).schema
    }

    pub fn est_rows(&self, id: GroupId) -> f64 {
        self.group(id).est_rows
    }

    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    pub fn num_exprs(&self) -> usize {
        self.num_exprs
    }

    /// Inserts a substitute. `target` is `Some(g)` when the substitute is
    /// equivalent to group `g` (the normal rule case) and `None` when a new
    /// group should be created for it (sub-expressions minted by rules).
    /// `organic` is false when the substitute was produced by (or derives
    /// from) a fresh-id minting rule — see [`Group::organic`].
    ///
    /// Returns the group the root landed in and whether anything new was
    /// added anywhere in the tree.
    pub fn insert(
        &mut self,
        db: &Database,
        tree: NewTree,
        target: Option<GroupId>,
        organic: bool,
    ) -> Result<(GroupId, bool)> {
        self.insert_created_by(db, tree, target, organic, None)
    }

    /// Like [`Memo::insert`], recording the rule that produced the
    /// substitute.
    pub fn insert_created_by(
        &mut self,
        db: &Database,
        tree: NewTree,
        target: Option<GroupId>,
        organic: bool,
        creator: Option<RuleId>,
    ) -> Result<(GroupId, bool)> {
        if tree.children.len() > 2 {
            let op = tree.op.label();
            return Err(Error::internal(format!("{op} over more than two inputs")));
        }
        let mut any_new = false;
        let mut children = Inputs::default();
        for c in tree.children {
            match c {
                NewChild::Group(g) => {
                    if g.0 as usize >= self.groups.len() {
                        return Err(Error::internal(format!("dangling group reference {g}")));
                    }
                    children.push(g);
                }
                NewChild::Tree(t) => {
                    let (g, n) = self.insert_created_by(db, t, None, organic, creator)?;
                    any_new |= n;
                    children.push(g);
                }
            }
        }
        let expr = GroupExpr::new(tree.op, children);
        let (g, n) = self.add_expr(db, expr, target, organic, creator)?;
        Ok((g, any_new || n))
    }

    /// True iff expression `ei` of group `g` is organic.
    pub fn is_organic(&self, g: GroupId, ei: usize) -> bool {
        self.groups[g.0 as usize].organic[ei]
    }

    /// The rule that created expression `ei` of group `g`, if any.
    pub fn created_by(&self, g: GroupId, ei: usize) -> Option<RuleId> {
        self.groups[g.0 as usize].created_by[ei]
    }

    fn child_schemas(&self, expr: &GroupExpr) -> Vec<&Schema> {
        expr.children.iter().map(|&c| self.schema(c)).collect()
    }

    /// The expression at a home.
    fn at(&self, (g, pos): (GroupId, u32)) -> &GroupExpr {
        &self.groups[g.0 as usize].exprs[pos as usize]
    }

    /// The index key and first home of the expression with `word` that
    /// `is` accepts, or `Err` with the key a new expression with that word
    /// takes.
    pub(crate) fn lookup(
        &self,
        word: u64,
        is: impl Fn(&GroupExpr) -> bool,
    ) -> std::result::Result<(u64, GroupId), u64> {
        let mut key = word;
        while let Some(homes) = self.index.get(&key) {
            if is(self.at(homes.first)) {
                return Ok((key, homes.first.0));
            }
            key = key.wrapping_add(1);
        }
        Err(key)
    }

    /// Takes one root the search offered
    /// ([`Rewrite::probe`](crate::Rewrite::probe)) for group `target`, as
    /// [`Memo::insert_created_by`] takes the substitute built whole: a root
    /// the memo holds is shared as a duplicate is.
    pub fn offer(
        &mut self,
        db: &Database,
        root: Probed,
        target: GroupId,
        organic: bool,
        creator: RuleId,
    ) -> Result<(GroupId, bool)> {
        match root {
            Probed::Found(key, _) => self.share(db, key, Some(target), organic, Some(creator)),
            Probed::Tree(tree) => {
                self.insert_created_by(db, tree, Some(target), organic, Some(creator))
            }
            Probed::Group(g) => Err(Error::internal(format!(
                "offered group {g} as a substitute"
            ))),
        }
    }

    /// What an organic re-derivation does to the expressions found below
    /// the roots it offered ([`Offers::below`](crate::Offers::below)):
    /// turns each organic.
    pub fn upgrade(&mut self, below: &[u64]) {
        for key in below {
            let (g, pos) = self.index[key].first;
            self.groups[g.0 as usize].organic[pos as usize] = true;
        }
    }

    /// Adds a single expression, deduplicating globally.
    fn add_expr(
        &mut self,
        db: &Database,
        expr: GroupExpr,
        target: Option<GroupId>,
        organic: bool,
        creator: Option<RuleId>,
    ) -> Result<(GroupId, bool)> {
        let key = match self.lookup(expr.word, |held| *held == expr) {
            Ok((key, _)) => return self.share(db, key, target, organic, creator),
            Err(key) => key,
        };
        let child_schemas = self.child_schemas(&expr);
        let schema = output_schema(&db.catalog, &expr.op, &child_schemas)?;
        let gid = match target {
            Some(g) => {
                let group = &self.groups[g.0 as usize];
                if !same_shape(&group.schema, &schema) {
                    return Err(Error::internal(format!(
                        "substitute schema mismatch in {g}: {:?} vs {:?} (op {})",
                        group.schema,
                        schema,
                        expr.op.label()
                    )));
                }
                g
            }
            None => {
                let child_rows: Vec<f64> =
                    expr.children.iter().map(|&c| self.est_rows(c)).collect();
                let est_rows =
                    crate::cost::estimate_rows(db, &expr.op, &child_schemas, &child_rows);
                self.groups.push(Group {
                    exprs: Vec::new(),
                    organic: Vec::new(),
                    created_by: Vec::new(),
                    stamp: Vec::new(),
                    cols: schema.iter().map(|c| c.id).collect(),
                    schema,
                    est_rows,
                });
                GroupId((self.groups.len() - 1) as u32)
            }
        };
        let first = self.push(gid, Arc::new(expr), organic, creator);
        self.index.insert(
            key,
            Homes {
                first,
                more: Vec::new(),
            },
        );
        Ok((gid, true))
    }

    /// Inserting the expression at index `key` again, as [`Memo::insert`]
    /// does for a duplicate: an organic re-derivation upgrades the stored
    /// flag, and a target other than its home gets the expression too.
    pub(crate) fn share(
        &mut self,
        db: &Database,
        key: u64,
        target: Option<GroupId>,
        organic: bool,
        creator: Option<RuleId>,
    ) -> Result<(GroupId, bool)> {
        let homes = &self.index[&key];
        let (home, pos) = homes.first;
        if organic {
            self.groups[home.0 as usize].organic[pos as usize] = true;
        }
        // If the caller proved this expression equivalent to a *different*
        // group, record it there too (full Cascades would merge the
        // groups). Membership placement must not depend on which
        // derivation happened to run first — that would make the searched
        // plan space, and thus the best cost, depend on the rule mask in
        // non-monotonic ways.
        let Some(target) = target.filter(|t| *t != home) else {
            return Ok((home, false));
        };
        if homes.more.iter().any(|&(g, _)| g == target) {
            return Ok((target, false));
        }
        let shared = Arc::clone(&self.groups[home.0 as usize].exprs[pos as usize]);
        let schema = output_schema(&db.catalog, &shared.op, &self.child_schemas(&shared))?;
        if !same_shape(self.schema(target), &schema) {
            return Err(Error::internal(format!(
                "substitute schema mismatch in {target}: op {}",
                shared.op.label()
            )));
        }
        let held = self.push(target, shared, organic, creator);
        let homes = self.index.get_mut(&key).expect("looked up above");
        homes.more.push(held);
        Ok((target, true))
    }

    /// Appends an expression to group `gid` and returns where it went.
    fn push(
        &mut self,
        gid: GroupId,
        expr: Arc<GroupExpr>,
        organic: bool,
        creator: Option<RuleId>,
    ) -> (GroupId, u32) {
        let group = &mut self.groups[gid.0 as usize];
        let pos = group.exprs.len() as u32;
        group.exprs.push(expr);
        group.organic.push(organic);
        group.created_by.push(creator);
        group.stamp.push(self.num_exprs as u32);
        self.num_exprs += 1;
        (gid, pos)
    }
}

impl Default for Memo {
    fn default() -> Self {
        Self::new()
    }
}

/// Schema compatibility for group membership: same *set* of column ids and
/// types. Order is excluded because commutativity rules legitimately permute
/// it (executors resolve columns by id, and the optimizer pins the root
/// output order with a projection). Nullability may *narrow* through
/// transformations (e.g. an outer join simplified to an inner join), so it
/// is excluded too.
fn same_shape(a: &Schema, b: &Schema) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter()
        .all(|x| b.iter().any(|y| x.id == y.id && x.data_type == y.data_type))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::newtree_from_logical;
    use ruletest_expr::Expr;
    use ruletest_logical::{IdGen, JoinKind, LogicalTree};
    use ruletest_storage::{tpch_database, TpchConfig};

    fn db() -> Database {
        tpch_database(&TpchConfig::default()).unwrap()
    }

    fn join_tree(db: &Database, ids: &mut IdGen) -> LogicalTree {
        let l = LogicalTree::get(db.catalog.table_by_name("region").unwrap(), ids);
        let r = LogicalTree::get(db.catalog.table_by_name("nation").unwrap(), ids);
        let pred = Expr::eq(Expr::col(l.output_col(0)), Expr::col(r.output_col(2)));
        LogicalTree::join(JoinKind::Inner, l, r, pred)
    }

    #[test]
    fn inserting_a_tree_creates_one_group_per_operator() {
        let db = db();
        let mut memo = Memo::new();
        let mut ids = IdGen::new();
        let tree = join_tree(&db, &mut ids);
        let nt = newtree_from_logical(&tree);
        let (root, fresh) = memo.insert(&db, nt, None, true).unwrap();
        assert!(fresh);
        assert_eq!(memo.num_groups(), 3);
        assert_eq!(memo.num_exprs(), 3);
        assert_eq!(memo.schema(root).len(), 5);
        assert!(memo.est_rows(root) > 0.0);
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let db = db();
        let mut memo = Memo::new();
        let mut ids = IdGen::new();
        let tree = join_tree(&db, &mut ids);
        let nt = newtree_from_logical(&tree);
        let (g1, _) = memo.insert(&db, nt.clone(), None, true).unwrap();
        let (g2, fresh) = memo.insert(&db, nt, None, true).unwrap();
        assert_eq!(g1, g2);
        assert!(!fresh);
        assert_eq!(memo.num_exprs(), 3);
    }

    #[test]
    fn substitute_into_target_group_shares_schema() {
        let db = db();
        let mut memo = Memo::new();
        let mut ids = IdGen::new();
        let tree = join_tree(&db, &mut ids);
        let (root, _) = memo
            .insert(&db, newtree_from_logical(&tree), None, true)
            .unwrap();
        // Commuted join: same predicate, swapped children -> same schema set
        // but different column order... so build the *same* join again (dup)
        // plus a select-true wrapper targeted at the root group: schema is
        // identical, so it must be accepted.
        let sel = NewTree::new(
            Operator::Select {
                predicate: Expr::true_lit(),
            },
            vec![NewChild::Group(root)],
        );
        let (g, fresh) = memo.insert(&db, sel, Some(root), false).unwrap();
        assert_eq!(g, root);
        assert!(fresh);
        assert_eq!(memo.group(root).exprs.len(), 2);
    }

    /// Every `(group, position)` holding `expr`, as the index lists them.
    fn homes_of(memo: &Memo, expr: &GroupExpr) -> Vec<(GroupId, u32)> {
        let (key, _) = memo.lookup(expr.word, |e| e == expr).expect("indexed");
        let homes = &memo.index[&key];
        [homes.first]
            .into_iter()
            .chain(homes.more.iter().copied())
            .collect()
    }

    /// The O(1) count agrees with the groups, every index entry points at
    /// an equal expression, and every expression is indexed exactly once
    /// per group that holds it, under its own word or a later key while
    /// every key between holds another expression of that word. The
    /// stamps number the pushes: strictly increasing within a group, and
    /// along an expression's homes in the order it reached them.
    fn assert_index_consistent(memo: &Memo) {
        let total: usize = memo.groups.iter().map(|g| g.exprs.len()).sum();
        assert_eq!(memo.num_exprs(), total);
        let mut indexed = 0;
        for (&key, homes) in &memo.index {
            let expr = memo.at(homes.first);
            assert_eq!(expr.word, expr_word(op_word(&expr.op), &expr.children));
            let mut k = expr.word;
            while k != key {
                assert_eq!(memo.at(memo.index[&k].first).word, expr.word);
                k = k.wrapping_add(1);
            }
            let held = homes_of(memo, expr);
            for (i, &(g, pos)) in held.iter().enumerate() {
                assert_eq!(memo.at((g, pos)), expr);
                assert!(held[..i].iter().all(|&(earlier, _)| earlier != g));
                indexed += 1;
            }
            let stamps: Vec<u32> = held
                .iter()
                .map(|&(g, pos)| memo.group(g).stamp[pos as usize])
                .collect();
            assert!(stamps.windows(2).all(|w| w[0] < w[1]), "{stamps:?}");
        }
        assert_eq!(indexed, total);
        let mut stamps: Vec<u32> = Vec::new();
        for group in &memo.groups {
            assert_eq!(group.stamp.len(), group.exprs.len());
            assert!(group.stamp.windows(2).all(|w| w[0] < w[1]));
            stamps.extend(&group.stamp);
        }
        stamps.sort_unstable();
        assert!(stamps.iter().copied().eq(0..total as u32), "one per push");
    }

    #[test]
    fn saturated_memo_keeps_count_and_index_consistent() {
        let db = Arc::new(db());
        let mut ids = IdGen::new();
        let table = |name: &str, ids: &mut IdGen| {
            LogicalTree::get(db.catalog.table_by_name(name).unwrap(), ids)
        };
        let (r, n, s) = (
            table("region", &mut ids),
            table("nation", &mut ids),
            table("supplier", &mut ids),
        );
        let rn_pred = Expr::eq(Expr::col(r.output_col(0)), Expr::col(n.output_col(2)));
        let ns_pred = Expr::eq(Expr::col(n.output_col(0)), Expr::col(s.output_col(3)));
        let rn = LogicalTree::join(JoinKind::Inner, r, n, rn_pred);
        let tree = LogicalTree::join(JoinKind::Inner, rn, s, ns_pred);
        let config = crate::OptimizerConfig::default();
        let search = crate::Optimizer::new(db).explore(&tree, &config).unwrap();
        assert!(search.memo.num_exprs() <= crate::MAX_EXPRS, "saturated");
        assert!(search.memo.num_exprs() > search.memo.num_groups());
        assert_index_consistent(&search.memo);
    }

    #[test]
    fn expression_proven_equivalent_to_a_second_group_is_shared_and_indexed_in_both() {
        let db = db();
        let mut memo = Memo::new();
        let mut ids = IdGen::new();
        let tree = join_tree(&db, &mut ids);
        let (root, _) = memo
            .insert(&db, newtree_from_logical(&tree), None, true)
            .unwrap();
        let sel = NewTree::new(
            Operator::Select {
                predicate: Expr::true_lit(),
            },
            vec![NewChild::Group(root)],
        );
        let (home, _) = memo.insert(&db, sel.clone(), None, false).unwrap();
        assert_ne!(home, root);
        let (landed, fresh) = memo.insert(&db, sel.clone(), Some(root), false).unwrap();
        assert_eq!((landed, fresh), (root, true));
        let copy = memo.group(root).exprs.len() - 1;
        assert!(Arc::ptr_eq(
            &memo.group(home).exprs[0],
            &memo.group(root).exprs[copy]
        ));
        assert_eq!(
            homes_of(&memo, &memo.group(home).exprs[0]),
            vec![(home, 0), (root, copy as u32)]
        );
        // The second home carries the stamp of its own, later push.
        assert_eq!(memo.group(home).stamp[0], 3);
        assert_eq!(memo.group(root).stamp[copy], 4);
        assert_index_consistent(&memo);

        // An organic re-derivation is a no-op apart from the flag at the
        // first-inserted position.
        let before = memo.num_exprs();
        let (landed, fresh) = memo.insert(&db, sel, Some(root), true).unwrap();
        assert_eq!((landed, fresh, memo.num_exprs()), (root, false, before));
        assert!(memo.is_organic(home, 0));
        assert!(!memo.is_organic(root, copy));
        assert_index_consistent(&memo);
    }

    #[test]
    fn expressions_sharing_a_word_take_successive_keys() {
        let db = db();
        let mut memo = Memo::new();
        let mut ids = IdGen::new();
        let tree = join_tree(&db, &mut ids);
        let (root, _) = memo
            .insert(&db, newtree_from_logical(&tree), None, true)
            .unwrap();
        let word = memo.group(root).exprs[0].word;
        let mut children = Inputs::default();
        children.push(root);
        // A distinct expression forced onto the join's word.
        let other = GroupExpr {
            word,
            op: Operator::Distinct,
            children,
        };
        let (g, fresh) = memo.add_expr(&db, other.clone(), None, true, None).unwrap();
        assert!(fresh);
        assert_eq!(
            memo.lookup(word, |e| *e == other),
            Ok((word.wrapping_add(1), g))
        );
        assert_eq!(
            memo.add_expr(&db, other, None, true, None).unwrap(),
            (g, false)
        );
        let join = &memo.group(root).exprs[0];
        assert_eq!(memo.lookup(word, |e| e == &**join), Ok((word, root)));
        assert_eq!(memo.num_exprs(), 4);
    }

    #[test]
    fn mismatched_substitute_schema_is_rejected() {
        let db = db();
        let mut memo = Memo::new();
        let mut ids = IdGen::new();
        let tree = join_tree(&db, &mut ids);
        let (root, _) = memo
            .insert(&db, newtree_from_logical(&tree), None, true)
            .unwrap();
        let other = LogicalTree::get(db.catalog.table_by_name("part").unwrap(), &mut ids);
        let bad = newtree_from_logical(&other);
        assert!(memo.insert(&db, bad, Some(root), true).is_err());
    }

    #[test]
    fn dangling_group_reference_is_internal_error() {
        let db = db();
        let mut memo = Memo::new();
        let nt = NewTree::new(Operator::Distinct, vec![NewChild::Group(GroupId(42))]);
        assert!(matches!(
            memo.insert(&db, nt, None, true),
            Err(Error::Internal(_))
        ));
    }
}
