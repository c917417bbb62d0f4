//! The rule substitute auditor and pattern-necessity auditor.
//!
//! For every registered rule the auditor instantiates a bounded corpus of
//! small logical trees from the rule's own exported pattern (each
//! placeholder becomes a catalog table scan, joins get key-binding equi
//! predicates, selects get left-only / right-only / conjunctive predicate
//! variants so outer-join behavior is exposed), applies the rule's
//! substitution in a sandboxed memo, and statically checks each substitute
//! against the input match: well-formedness, schema equivalence, row
//! provenance, and duplicate sensitivity. Separately, every rule's action
//! is probed against every corpus tree — including other rules' — and any
//! firing on a tree the exported pattern does not match is a violation of
//! the paper's §3.1 necessary-condition contract.

use crate::node::AuditNode;
use crate::violation::{LintPass, LintViolation, Severity};
use crate::{keys, props, wellformed};
use ruletest_common::Result;
use ruletest_expr::{AggCall, AggFunc, Expr};
use ruletest_logical::{
    derive_schema, IdGen, JoinKind, LogicalTree, OpKind, Operator, Schema, SortKey,
};
use ruletest_optimizer::{
    match_bindings, Bound, GroupId, Memo, NewChild, NewTree, OpMatcher, PatternTree, Rule, RuleCtx,
};
use ruletest_storage::{Database, TableDef};
use std::cell::RefCell;
use std::collections::HashMap;

/// Cap on corpus trees per rule; patterns with many join kinds × predicate
/// variants are truncated deterministically.
const MAX_CORPUS_PER_RULE: usize = 24;
/// Cap on variants carried per pattern child during instantiation.
const MAX_CHILD_VARIANTS: usize = 4;

/// One instantiated corpus tree with its sandboxed memo.
pub struct CorpusTree {
    /// Rule whose pattern this tree was instantiated from.
    pub origin: &'static str,
    pub tree: LogicalTree,
    pub memo: Memo,
    pub root: GroupId,
    /// Group → concrete subtree, for resolving substitute references.
    pub resolve: HashMap<GroupId, AuditNode>,
}

/// Counters describing how much static checking actually ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct AuditStats {
    pub corpus_trees: usize,
    pub bindings_audited: usize,
    pub substitutes_audited: usize,
    pub necessity_probes: usize,
    pub firings_matched: usize,
}

fn first_int_col(schema: &Schema) -> Option<ruletest_common::ColId> {
    schema
        .iter()
        .find(|c| c.data_type == ruletest_common::DataType::Int)
        .map(|c| c.id)
}

fn last_int_col(schema: &Schema) -> Option<ruletest_common::ColId> {
    schema
        .iter()
        .rev()
        .find(|c| c.data_type == ruletest_common::DataType::Int)
        .map(|c| c.id)
}

/// Tables usable as corpus leaves: single-column integer primary key (so
/// join predicates can bind a key, which the duplicate-sensitivity pass
/// needs for semi/anti rewrites) and at least two integer columns (one
/// may serve as aggregate argument).
fn leaf_pool(db: &Database) -> Vec<TableDef> {
    db.catalog
        .tables()
        .iter()
        .filter(|t| {
            t.primary_key.len() == 1
                && t.columns[t.primary_key[0]].data_type == ruletest_common::DataType::Int
                && t.columns
                    .iter()
                    .filter(|c| c.data_type == ruletest_common::DataType::Int)
                    .count()
                    >= 2
        })
        .cloned()
        .collect()
}

struct Instantiator<'a> {
    db: &'a Database,
    pool: Vec<TableDef>,
    next_table: usize,
    ids: IdGen,
    /// Extended instantiation for the symbolic prover: adds non-key join
    /// predicates, cross-side select conjuncts, `Count(col)` aggregates,
    /// differing Top-over-Top keys, and two-table unions. `false`
    /// preserves the lint corpus byte for byte.
    extended: bool,
}

impl<'a> Instantiator<'a> {
    fn new(db: &'a Database) -> Self {
        Self {
            db,
            pool: leaf_pool(db),
            next_table: 0,
            ids: IdGen::new(),
            extended: false,
        }
    }

    fn next_leaf(&mut self, forced: Option<&TableDef>) -> LogicalTree {
        let def = match forced {
            Some(d) => d.clone(),
            None => {
                let d = self.pool[self.next_table % self.pool.len()].clone();
                self.next_table += 1;
                d
            }
        };
        LogicalTree::get(&def, &mut self.ids)
    }

    fn schema(&self, t: &LogicalTree) -> Schema {
        derive_schema(&self.db.catalog, t).expect("corpus trees are well-formed by construction")
    }

    /// Primary-key column of a Get leaf, for key-binding join predicates.
    fn pk_col(&self, t: &LogicalTree) -> Option<ruletest_common::ColId> {
        let Operator::Get { table, cols } = &t.op else {
            return None;
        };
        let def = self.db.catalog.table(*table).ok()?;
        match def.primary_key.as_slice() {
            [o] => cols.get(*o).copied(),
            _ => None,
        }
    }

    /// Predicate variants for a Select over `child`: a head-column
    /// equality (left-side-only over joins), a tail-column equality
    /// (right-side-only), and their conjunction. Never the TRUE literal —
    /// a trivial predicate would hide preservation bugs.
    fn select_predicates(&self, child: &LogicalTree) -> Vec<Expr> {
        let schema = self.schema(child);
        let Some(head) = first_int_col(&schema) else {
            return vec![];
        };
        let tail = last_int_col(&schema).unwrap_or(head);
        let head_eq = Expr::eq(Expr::col(head), Expr::lit(1i64));
        let tail_eq = Expr::eq(Expr::col(tail), Expr::lit(2i64));
        if head == tail {
            vec![head_eq.clone(), Expr::and(head_eq, tail_eq)]
        } else {
            let mut out = vec![
                head_eq.clone(),
                tail_eq.clone(),
                Expr::and(head_eq, tail_eq),
            ];
            if self.extended {
                // Cross-side column equality: over a join child this
                // conjunct references both sides, exercising residual-
                // conjunct handling in push-down rules.
                out.push(Expr::eq(Expr::col(head), Expr::col(tail)));
            }
            out
        }
    }

    /// Join predicate variants between two instantiated children: equi
    /// conjuncts from a left column to the right child's primary key
    /// (falling back to its first integer column).
    fn join_predicates(&self, left: &LogicalTree, right: &LogicalTree) -> Vec<Expr> {
        let ls = self.schema(left);
        let rcol = match self
            .pk_col(right)
            .or_else(|| first_int_col(&self.schema(right)))
        {
            Some(c) => c,
            None => return vec![Expr::true_lit()],
        };
        let mut out = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for lcol in [first_int_col(&ls), last_int_col(&ls)]
            .into_iter()
            .flatten()
        {
            if seen.insert(lcol) {
                out.push(Expr::eq(Expr::col(lcol), Expr::col(rcol)));
            }
        }
        if out.is_empty() {
            out.push(Expr::true_lit());
        }
        if self.extended {
            // Non-key equi variant: bind the right side's *last* integer
            // column instead of its key, so key-dependent rewrites see at
            // least one corpus tree where the key check must fail.
            if let Some(rlast) = last_int_col(&self.schema(right)) {
                if rlast != rcol {
                    if let Some(lcol) = first_int_col(&ls) {
                        out.push(Expr::eq(Expr::col(lcol), Expr::col(rlast)));
                    }
                }
            }
            out.truncate(3);
        } else {
            out.truncate(2);
        }
        out
    }

    fn gbagg_variants(
        &mut self,
        child: &LogicalTree,
    ) -> Vec<(Vec<ruletest_common::ColId>, Vec<AggCall>)> {
        let schema = self.schema(child);
        // Group by the child's primary key when it is a plain scan (so
        // key-covering rules fire), else by the first column.
        let gb = self.pk_col(child).or_else(|| schema.first().map(|c| c.id));
        let Some(gb) = gb else {
            return vec![];
        };
        // Aggregate-argument candidates: for joins, one from each side so
        // both eager-push directions get exercised.
        let mut args = Vec::new();
        if let Operator::Join { .. } = &child.op {
            if let Some(c) = first_int_col(&self.schema(&child.children[0])) {
                args.push(c);
            }
            if let Some(c) = first_int_col(&self.schema(&child.children[1])) {
                args.push(c);
            }
        }
        if args.is_empty() {
            if let Some(c) = schema
                .iter()
                .find(|c| c.data_type == ruletest_common::DataType::Int && c.id != gb)
                .map(|c| c.id)
                .or_else(|| first_int_col(&schema))
            {
                args.push(c);
            }
        }
        let extended = self.extended;
        let mut out: Vec<(Vec<ruletest_common::ColId>, Vec<AggCall>)> = Vec::new();
        for arg in args {
            let aggs = vec![
                AggCall::new(AggFunc::Sum, Some(arg), self.ids.fresh()),
                AggCall::new(AggFunc::CountStar, None, self.ids.fresh()),
            ];
            out.push((vec![gb], aggs));
            if extended {
                // `Count(col)` differs from `CountStar` exactly on NULL
                // arguments — NULL-sensitivity bugs in aggregate rewrites
                // need at least one corpus tree carrying it.
                out.push((
                    vec![gb],
                    vec![AggCall::new(AggFunc::Count, Some(arg), self.ids.fresh())],
                ));
            }
        }
        out
    }

    /// Instantiates a pattern into concrete corpus trees. `forced` pins
    /// the leaf table inside UnionAll subtrees, where both sides must
    /// agree on arity and column types.
    fn instantiate(&mut self, pat: &PatternTree, forced: Option<&TableDef>) -> Vec<LogicalTree> {
        match pat {
            PatternTree::Any => vec![self.next_leaf(forced)],
            PatternTree::Op { matcher, children } => {
                let kind = match matcher {
                    OpMatcher::Kind(k) => *k,
                    OpMatcher::Join(_) => OpKind::Join,
                };
                match kind {
                    OpKind::Get => vec![self.next_leaf(forced)],
                    OpKind::Join => {
                        let kinds: Vec<JoinKind> = match matcher {
                            OpMatcher::Join(ks) => ks.clone(),
                            OpMatcher::Kind(_) => vec![
                                JoinKind::Inner,
                                JoinKind::LeftOuter,
                                JoinKind::RightOuter,
                                JoinKind::FullOuter,
                                JoinKind::LeftSemi,
                                JoinKind::LeftAnti,
                            ],
                        };
                        let lefts = self.capped(&children[0], forced);
                        let rights = self.capped(&children[1], forced);
                        let mut out = Vec::new();
                        for l in &lefts {
                            for r in &rights {
                                for jk in &kinds {
                                    for p in self.join_predicates(l, r) {
                                        out.push(LogicalTree::join(*jk, l.clone(), r.clone(), p));
                                    }
                                }
                            }
                        }
                        out
                    }
                    OpKind::Select => {
                        let inputs = self.capped(&children[0], forced);
                        let mut out = Vec::new();
                        for c in &inputs {
                            for p in self.select_predicates(c) {
                                out.push(LogicalTree::select(c.clone(), p));
                            }
                        }
                        out
                    }
                    OpKind::Project => self
                        .capped(&children[0], forced)
                        .into_iter()
                        .map(|c| {
                            let outputs = self
                                .schema(&c)
                                .iter()
                                .map(|col| (col.id, Expr::col(col.id)))
                                .collect();
                            LogicalTree::project(c, outputs)
                        })
                        .collect(),
                    OpKind::GbAgg => {
                        let inputs = self.capped(&children[0], forced);
                        let mut out = Vec::new();
                        for c in inputs {
                            for (gb, aggs) in self.gbagg_variants(&c) {
                                out.push(LogicalTree::gbagg(c.clone(), gb, aggs));
                            }
                        }
                        out
                    }
                    OpKind::UnionAll => {
                        let table = match forced {
                            Some(d) => d.clone(),
                            None => {
                                let d = self.pool[self.next_table % self.pool.len()].clone();
                                self.next_table += 1;
                                d
                            }
                        };
                        let lefts = self.capped(&children[0], Some(&table));
                        let mut rights = self.capped(&children[1], Some(&table));
                        if self.extended {
                            // A right branch over a *different* table (same
                            // arity, or the pairing is skipped below) makes
                            // the two union sides distinguishable, so
                            // side-confusion bugs become observable.
                            if let Some(other) =
                                self.pool.iter().find(|t| t.id != table.id).cloned()
                            {
                                rights.extend(self.capped(&children[1], Some(&other)));
                            }
                        }
                        let mut out = Vec::new();
                        for l in &lefts {
                            for r in &rights {
                                let ls = self.schema(l);
                                let rs = self.schema(r);
                                if ls.len() != rs.len() {
                                    continue;
                                }
                                let outputs = self.ids.fresh_n(ls.len());
                                out.push(LogicalTree::union_all(
                                    l.clone(),
                                    r.clone(),
                                    outputs,
                                    ls.iter().map(|c| c.id).collect(),
                                    rs.iter().map(|c| c.id).collect(),
                                ));
                            }
                        }
                        out
                    }
                    OpKind::Distinct => self
                        .capped(&children[0], forced)
                        .into_iter()
                        .map(LogicalTree::distinct)
                        .collect(),
                    OpKind::Sort => self.unary_sorted(&children[0], forced, LogicalTree::sort),
                    OpKind::Top => {
                        let mut v = self.unary_sorted(&children[0], forced, |c, keys| {
                            LogicalTree::top(c, 5, keys)
                        });
                        // Extended: a Top directly over a Top also gets a
                        // *different* row count, so Top-over-Top corpora
                        // distinguish min-vs-max (and off-by-one) bugs in
                        // count-combining rules.
                        if self.extended {
                            let outer: Vec<LogicalTree> = self
                                .capped(&children[0], forced)
                                .into_iter()
                                .filter(|c| matches!(c.op, Operator::Top { .. }))
                                .collect();
                            for c in outer {
                                if let Some(col) = self.schema(&c).first() {
                                    let key = col.id;
                                    v.push(LogicalTree::top(c, 3, vec![SortKey::asc(key)]));
                                }
                            }
                        }
                        v
                    }
                }
            }
        }
    }

    fn unary_sorted(
        &mut self,
        child: &PatternTree,
        forced: Option<&TableDef>,
        build: impl Fn(LogicalTree, Vec<SortKey>) -> LogicalTree,
    ) -> Vec<LogicalTree> {
        self.capped(child, forced)
            .into_iter()
            .flat_map(|c| {
                let schema = self.schema(&c);
                let mut out = Vec::new();
                if let Some(col) = schema.first() {
                    out.push(build(c.clone(), vec![SortKey::asc(col.id)]));
                }
                // Extended: a sorted operator directly over a Top *also*
                // gets a different key column, so Top-over-Top corpora
                // include both a tree where the keys-must-match
                // precondition holds and one where it fails.
                if self.extended && matches!(c.op, Operator::Top { .. }) {
                    if let Some(col) = schema.get(1) {
                        out.push(build(c, vec![SortKey::asc(col.id)]));
                    }
                }
                out
            })
            .collect()
    }

    fn capped(&mut self, pat: &PatternTree, forced: Option<&TableDef>) -> Vec<LogicalTree> {
        let mut v = self.instantiate(pat, forced);
        v.truncate(MAX_CHILD_VARIANTS);
        v
    }
}

/// Instantiates the bounded corpus for one rule and sandboxes each tree
/// in its own memo.
pub fn build_corpus(db: &Database, rule: &Rule) -> Result<Vec<CorpusTree>> {
    build_corpus_with(db, rule, false)
}

/// [`build_corpus`] plus the extended instantiation variants the symbolic
/// prover needs (non-key join predicates, cross-side select conjuncts,
/// `Count(col)` aggregates, differing Top-over-Top keys, two-table
/// unions). The plain lint corpus is unchanged byte for byte.
pub fn build_corpus_extended(db: &Database, rule: &Rule) -> Result<Vec<CorpusTree>> {
    build_corpus_with(db, rule, true)
}

fn build_corpus_with(db: &Database, rule: &Rule, extended: bool) -> Result<Vec<CorpusTree>> {
    let mut inst = Instantiator::new(db);
    inst.extended = extended;
    if inst.pool.is_empty() {
        return Ok(vec![]);
    }
    let mut trees = inst.instantiate(&rule.pattern, None);
    trees.truncate(MAX_CORPUS_PER_RULE);
    let mut out = Vec::with_capacity(trees.len());
    for tree in trees {
        let mut memo = Memo::new();
        let mut resolve = HashMap::new();
        let root_node = insert_tree(db, &mut memo, &tree, &mut resolve)?;
        let root = root_node
            .gid()
            .expect("sandbox insertion tags every node with its group");
        out.push(CorpusTree {
            origin: rule.name,
            tree,
            memo,
            root,
            resolve,
        });
    }
    Ok(out)
}

fn insert_tree(
    db: &Database,
    memo: &mut Memo,
    tree: &LogicalTree,
    resolve: &mut HashMap<GroupId, AuditNode>,
) -> Result<AuditNode> {
    let mut children = Vec::with_capacity(tree.children.len());
    let mut child_gids = Vec::with_capacity(tree.children.len());
    for c in &tree.children {
        let node = insert_tree(db, memo, c, resolve)?;
        child_gids.push(NewChild::Group(
            node.gid().expect("children inserted before parents"),
        ));
        children.push(node);
    }
    let (gid, _) = memo.insert(db, NewTree::new(tree.op.clone(), child_gids), None, true)?;
    let node = AuditNode::Op {
        op: tree.op.clone(),
        gid: Some(gid),
        children,
    };
    resolve.entry(gid).or_insert_with(|| node.clone());
    Ok(node)
}

/// Audits one substitute against its input match. Shared by the corpus
/// auditor and the optimizer's debug-mode hook.
pub fn audit_substitute(
    db: &Database,
    memo: &Memo,
    bound: &Bound,
    resolve: &HashMap<GroupId, AuditNode>,
    rule_name: &str,
    substitute: &NewTree,
) -> Vec<LintViolation> {
    let mut out = Vec::new();
    let input = AuditNode::from_bound(bound, resolve);
    let sub = AuditNode::from_newtree(substitute, resolve);

    // Well-formedness + schema equivalence.
    match wellformed::substitute_schema(&db.catalog, memo, &sub) {
        Err(e) => {
            out.push(LintViolation::new(
                LintPass::WellFormed,
                Severity::Error,
                Some(rule_name),
                format!("substitute does not type-check: {e}"),
            ));
            return out;
        }
        Ok(schema) => {
            let expected = memo.schema(bound.group);
            if !wellformed::schemas_equivalent(expected, &schema) {
                out.push(LintViolation::new(
                    LintPass::SchemaEquivalence,
                    Severity::Error,
                    Some(rule_name),
                    format!(
                        "substitute schema {:?} is not equivalent to its group's schema {:?}",
                        schema
                            .iter()
                            .map(|c| (c.id, c.data_type))
                            .collect::<Vec<_>>(),
                        expected
                            .iter()
                            .map(|c| (c.id, c.data_type))
                            .collect::<Vec<_>>(),
                    ),
                ));
            }
        }
    }

    // Row provenance.
    let mut anon = 0u32;
    let input_props = props::analyze(&input, memo, &mut anon);
    let sub_props = props::analyze(&sub, memo, &mut anon);
    out.extend(props::compare(&input_props, &sub_props, rule_name));

    // Duplicate sensitivity.
    let input_keys = keys::analyze(&input, memo, &db.catalog);
    let sub_keys = keys::analyze(&sub, memo, &db.catalog);
    out.extend(keys::compare(&input_keys, &sub_keys, rule_name));

    out
}

/// Runs the substitute audit for one exploration rule over its corpus.
pub fn audit_rule(
    db: &Database,
    rule: &Rule,
    corpus: &[CorpusTree],
    stats: &mut AuditStats,
) -> Vec<LintViolation> {
    if !rule.action.is_explore() {
        return vec![];
    }
    let mut out = Vec::new();
    for ct in corpus {
        let bindings = match_bindings(&ct.memo, &rule.pattern, ct.root, 0);
        for bound in bindings {
            stats.bindings_audited += 1;
            let ids = RefCell::new(IdGen::above(&ct.tree));
            let ctx = RuleCtx {
                db,
                memo: &ct.memo,
                ids: &ids,
            };
            // `is_explore()` was checked on entry, so `None` here means
            // the action classification and the action itself disagree —
            // an audit finding in its own right, not a reason to panic.
            let Some(results) = rule.action.apply_explore(&ctx, &bound) else {
                out.push(LintViolation::new(
                    LintPass::WellFormed,
                    Severity::Error,
                    Some(rule.name),
                    "action claims to be an exploration but refused to apply as one",
                ));
                return out;
            };
            if !results.is_empty() {
                // Contract check on the recorded firing: the exported
                // pattern must match the concrete tree at the firing site.
                stats.firings_matched += 1;
                if !rule.pattern.matches_at(&ct.tree) {
                    out.push(LintViolation::new(
                        LintPass::PatternNecessity,
                        Severity::Error,
                        Some(rule.name),
                        "rule fired at a site its exported pattern does not match",
                    ));
                }
            }
            for nt in &results {
                stats.substitutes_audited += 1;
                out.extend(audit_substitute(
                    db,
                    &ct.memo,
                    &bound,
                    &ct.resolve,
                    rule.name,
                    nt,
                ));
            }
        }
    }
    out
}

/// Cross-checks the two implementations of pattern matching over every
/// corpus tree: the memo-side binder (`match_bindings` — what the explore
/// loop actually fires rules on) and the exported tree-side matcher
/// (`PatternTree::matches_at` — what pattern export and the test
/// generator reason with). The §3.1 necessary-condition contract rests on
/// these agreeing: if the binder binds where the export does not match,
/// the optimizer fires the rule on trees the exported pattern disclaims;
/// if the export matches where the binder cannot bind, generated test
/// queries target firings that can never happen.
pub fn necessity_probe(
    rules: &[&Rule],
    corpora: &[&[CorpusTree]],
    stats: &mut AuditStats,
) -> Vec<LintViolation> {
    let mut out = Vec::new();
    for ct in corpora.iter().copied().flatten() {
        for rule in rules {
            if matches!(rule.pattern, PatternTree::Any) {
                // A bare placeholder binds nothing a rule could use; the
                // binder refuses it by design and no rule exports one.
                continue;
            }
            stats.necessity_probes += 1;
            let binds = !match_bindings(&ct.memo, &rule.pattern, ct.root, 0).is_empty();
            let matches = rule.pattern.matches_at(&ct.tree);
            if binds && !matches {
                out.push(LintViolation::new(
                    LintPass::PatternNecessity,
                    Severity::Error,
                    Some(rule.name),
                    format!(
                        "optimizer binder fires on a {} tree the exported pattern does not match",
                        ct.tree.op.label()
                    ),
                ));
            }
            if matches && !binds {
                out.push(LintViolation::new(
                    LintPass::PatternNecessity,
                    Severity::Error,
                    Some(rule.name),
                    format!(
                        "exported pattern matches a {} tree the optimizer binder cannot bind",
                        ct.tree.op.label()
                    ),
                ));
            }
        }
    }
    out
}

/// Static satisfiability of an exported pattern: concrete nodes must have
/// as many pattern children as the operator kind's arity, and join
/// matchers must allow at least one kind — otherwise no tree can ever
/// match and the rule is dead.
pub fn validate_pattern(rule_name: &str, pattern: &PatternTree) -> Vec<LintViolation> {
    fn arity(kind: OpKind) -> usize {
        match kind {
            OpKind::Get => 0,
            OpKind::Join | OpKind::UnionAll => 2,
            _ => 1,
        }
    }
    let mut out = Vec::new();
    match pattern {
        PatternTree::Any => {}
        PatternTree::Op { matcher, children } => {
            let expected = match matcher {
                OpMatcher::Kind(k) => arity(*k),
                OpMatcher::Join(kinds) => {
                    if kinds.is_empty() {
                        out.push(LintViolation::new(
                            LintPass::PatternNecessity,
                            Severity::Error,
                            Some(rule_name),
                            "join matcher allows no join kind; the pattern can never match",
                        ));
                    }
                    2
                }
            };
            if children.len() != expected {
                out.push(LintViolation::new(
                    LintPass::PatternNecessity,
                    Severity::Error,
                    Some(rule_name),
                    format!(
                        "pattern node has {} children but the operator kind has arity {expected}; \
                         the pattern can never match",
                        children.len()
                    ),
                ));
            }
            for c in children {
                out.extend(validate_pattern(rule_name, c));
            }
        }
    }
    out
}
