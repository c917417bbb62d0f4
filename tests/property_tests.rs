//! Property-based tests over the whole stack, on the in-repo `check`
//! harness (no external dependencies).
//!
//! Trees are generated through the framework's own seeded generator (one
//! `u64` seed is the property input), which keeps shrinking meaningful
//! while exercising realistic query shapes; expressions through a local
//! one over every node kind.

use ruletest_common::check::{self, gen, CheckConfig};
use ruletest_common::multiset::row_total_cmp;
use ruletest_common::{diff_multisets, ensure, ensure_eq, ensure_ne, forall};
use ruletest_common::{from_str, multisets_equal, to_compact, Decode, Encode, Rng, RuleId, Value};
use ruletest_common::{ColId, WordBuild};
use ruletest_core::generate::random::random_tree;
use ruletest_core::{Framework, FrameworkConfig};
use ruletest_executor::{execute_with, ExecConfig};
use ruletest_expr::{
    conjoin, conjuncts, every_column, remap_columns, substitute, BinOp, Expr, SubExpr,
};
use ruletest_logical::IdGen;
use ruletest_optimizer::{PhysicalPlan, RuleMask};
use ruletest_sql::{parse_sql, to_sql};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

fn fw() -> &'static Framework {
    static FW: OnceLock<Framework> = OnceLock::new();
    FW.get_or_init(|| Framework::new(&FrameworkConfig::default()).unwrap())
}

/// Any generated tree renders to SQL that parses back to the identical
/// tree.
#[test]
fn sql_round_trip_is_exact() {
    forall!(CheckConfig::cases(48); seed in gen::u64s(), budget in gen::usizes(1..9) => {
        let fw = fw();
        let mut rng = Rng::new(seed);
        let mut ids = IdGen::new();
        let built = random_tree(&fw.db, &mut rng, &mut ids, budget);
        let sql = to_sql(&fw.db.catalog, &built.tree).unwrap();
        let parsed = parse_sql(&fw.db.catalog, &sql).unwrap();
        ensure_eq!(parsed, built.tree, "SQL: {}", sql);
        Ok(())
    });
}

/// Optimizing under an arbitrary exploration-rule mask never changes
/// executed results (the paper's core correctness premise, as a property
/// over random queries and random masks).
#[test]
fn random_masks_preserve_results() {
    forall!(CheckConfig::cases(48); seed in gen::u64s(), mask_bits in gen::u64s() => {
        let fw = fw();
        let mut rng = Rng::new(seed);
        let mut ids = IdGen::new();
        let built = random_tree(&fw.db, &mut rng, &mut ids, 5);
        let exploration = fw.optimizer.exploration_rule_ids();
        let disabled: Vec<RuleId> = exploration
            .iter()
            .enumerate()
            .filter(|(i, _)| mask_bits >> (i % 64) & 1 == 1)
            .map(|(_, r)| *r)
            .collect();
        let base = fw.optimizer.optimize(&built.tree).unwrap();
        let masked = fw
            .optimizer
            .optimize_with(&built.tree, &RuleMask::disabling(&disabled))
            .unwrap();
        if !base.truncated && !masked.truncated {
            ensure!(masked.cost >= base.cost - 1e-9, "monotonicity");
        }
        let exec = ExecConfig::default();
        if let (Ok(a), Ok(b)) = (
            execute_with(&fw.db, &base.plan, &exec),
            execute_with(&fw.db, &masked.plan, &exec),
        ) {
            ensure!(
                multisets_equal(&a, &b),
                "mask {:?} changed results of\n{}",
                disabled.len(),
                built.tree.explain()
            );
        }
        Ok(())
    });
}

/// Optimization is deterministic: same tree, same plan, same cost.
#[test]
fn optimization_is_deterministic() {
    forall!(CheckConfig::cases(48); seed in gen::u64s() => {
        let fw = fw();
        let mut rng = Rng::new(seed);
        let mut ids = IdGen::new();
        let built = random_tree(&fw.db, &mut rng, &mut ids, 5);
        let a = fw.optimizer.optimize(&built.tree).unwrap();
        let b = fw.optimizer.optimize(&built.tree).unwrap();
        ensure!(a.plan.same_shape(&b.plan));
        ensure_eq!(a.cost, b.cost);
        ensure_eq!(a.rule_set, b.rule_set);
        Ok(())
    });
}

/// Random trees, and the plans and results the optimizer derives from
/// them, survive the wire — through the printed text, as on disk — exactly:
/// structure by `==`, every estimate and cost bit for bit.
#[test]
fn wire_round_trip_is_exact() {
    fn same_plan(a: &PhysicalPlan, b: &PhysicalPlan) -> bool {
        a.op == b.op
            && a.schema == b.schema
            && a.est_rows.to_bits() == b.est_rows.to_bits()
            && a.est_cost.to_bits() == b.est_cost.to_bits()
            && a.children.len() == b.children.len()
            && a.children
                .iter()
                .zip(&b.children)
                .all(|(x, y)| same_plan(x, y))
    }
    fn through_text<T: Encode + Decode>(v: &T) -> Result<T, String> {
        Ok(from_str(&to_compact(v))?)
    }
    forall!(CheckConfig::cases(48); seed in gen::u64s(), budget in gen::usizes(1..9) => {
        let fw = fw();
        let mut rng = Rng::new(seed);
        let mut ids = IdGen::new();
        let tree = random_tree(&fw.db, &mut rng, &mut ids, budget).tree;
        ensure_eq!(through_text(&tree)?, tree);
        let res = fw.optimizer.optimize(&tree).unwrap();
        ensure!(same_plan(&through_text(&res.plan)?, &res.plan));
        let back = through_text(&res)?;
        ensure!(same_plan(&back.plan, &res.plan));
        ensure_eq!(back.cost.to_bits(), res.cost.to_bits());
        ensure_eq!(back.rule_set, res.rule_set);
        ensure_eq!(back.rule_dependencies, res.rule_dependencies);
        ensure_eq!((back.groups, back.exprs, back.truncated), (res.groups, res.exprs, res.truncated));
        Ok(())
    });
}

/// Multiset comparison laws over arbitrary row sets.
#[test]
fn multiset_laws() {
    let rows_gen = gen::vecs(gen::vecs(gen::i64s(-3..3), 2..3), 0..12);
    forall!(CheckConfig::default(); raw in rows_gen, perm_seed in gen::u64s() => {
        let rows: Vec<Vec<Value>> = raw
            .into_iter()
            .map(|r| r.into_iter().map(Value::Int).collect())
            .collect();
        // Reflexive.
        ensure!(multisets_equal(&rows, &rows));
        ensure!(diff_multisets(&rows, &rows).is_empty());
        // Permutation-invariant.
        let mut shuffled = rows.clone();
        Rng::new(perm_seed).shuffle(&mut shuffled);
        ensure!(multisets_equal(&rows, &shuffled));
        // Dropping a row breaks equality.
        if !rows.is_empty() {
            let fewer = &rows[1..];
            ensure!(!multisets_equal(&rows, fewer));
            let d = diff_multisets(&rows, fewer);
            ensure!(!d.is_empty());
            ensure!(d.only_right.is_empty());
        }
        Ok(())
    });
}

/// A value from a domain small enough that rows repeat: NULL, both
/// booleans, three integers and two strings.
fn small_value(rng: &mut Rng) -> Value {
    match rng.gen_index(4) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(rng.gen_range_i64(-1, 2)),
        _ => Value::Str(["a", "ab"][rng.gen_index(2)].into()),
    }
}

/// `diff_multisets` against an independent counting oracle: every row's
/// multiplicity on the left minus on the right, kept in a `HashMap`. The
/// right side is the left one permuted (or not), then given up to three
/// edits: a cell changed, a row dropped, a row duplicated or a row added.
/// Emptiness and both surplus lists, in `row_total_cmp` order, must match.
#[test]
fn diff_multisets_matches_a_counting_oracle() {
    let rows_gen = gen::vecs(gen::vecs(gen::from_fn(small_value), 1..3), 0..16);
    forall!(CheckConfig::cases(256); left in rows_gen, edit in gen::u64s() => {
        let mut rng = Rng::new(edit);
        let mut right = left.clone();
        if rng.gen_bool(0.75) {
            rng.shuffle(&mut right);
        }
        for _ in 0..rng.gen_index(4) {
            match (rng.gen_index(4), right.len()) {
                (0, n) if n > 0 => {
                    let row = &mut right[rng.gen_index(n)];
                    let cell = rng.gen_index(row.len());
                    row[cell] = small_value(&mut rng);
                }
                (1, n) if n > 0 => {
                    right.remove(rng.gen_index(n));
                }
                (2, n) if n > 0 => {
                    let row = right[rng.gen_index(n)].clone();
                    right.insert(rng.gen_index(n + 1), row);
                }
                _ => right.push(vec![small_value(&mut rng), small_value(&mut rng)]),
            }
        }

        let mut counts: HashMap<Vec<Value>, isize> = HashMap::new();
        for row in &left {
            *counts.entry(row.clone()).or_default() += 1;
        }
        for row in &right {
            *counts.entry(row.clone()).or_default() -= 1;
        }
        let surplus = |sign: isize| {
            let mut side: Vec<(Vec<Value>, usize)> = counts
                .iter()
                .filter(|(_, &n)| n * sign > 0)
                .map(|(row, &n)| (row.clone(), (n * sign) as usize))
                .collect();
            side.sort_by(|a, b| row_total_cmp(&a.0, &b.0));
            side
        };
        let d = diff_multisets(&left, &right);
        ensure_eq!(d.only_left, surplus(1));
        ensure_eq!(d.only_right, surplus(-1));
        ensure_eq!((d.left_rows, d.right_rows), (left.len(), right.len()));
        let equal = counts.values().all(|&n| n == 0);
        ensure_eq!(d.is_empty(), equal);
        ensure_eq!(multisets_equal(&left, &right), equal);
        Ok(())
    });
}

fn random_value(rng: &mut Rng) -> Value {
    match rng.gen_index(4) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(rng.gen_range_i64(-50, 50)),
        _ => {
            let len = rng.gen_index(4);
            let s: String = (0..len)
                .map(|_| char::from(b'a' + rng.gen_index(3) as u8))
                .collect();
            Value::Str(s.into())
        }
    }
}

fn value_gen() -> impl check::Gen<Value = Value> {
    gen::from_fn(random_value)
}

/// `Value::total_cmp` is a total order (antisymmetric + transitive on
/// sampled triples).
#[test]
fn value_total_order() {
    forall!(CheckConfig::default();
            a in value_gen(), b in value_gen(), c in value_gen() => {
        use std::cmp::Ordering;
        ensure_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            ensure_ne!(a.total_cmp(&c), Ordering::Greater);
        }
        Ok(())
    });
}

/// Rule masks behave like sets.
#[test]
fn rule_mask_set_semantics() {
    let ids_gen = gen::from_fn(|rng: &mut Rng| {
        let n = rng.gen_index(20);
        let mut ids: Vec<u16> = (0..n).map(|_| rng.gen_index(200) as u16).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    });
    forall!(CheckConfig::default(); ids in ids_gen => {
        let rules: Vec<RuleId> = ids.iter().map(|&i| RuleId(i)).collect();
        let mask = RuleMask::disabling(&rules);
        ensure_eq!(mask.disabled_count(), rules.len());
        for r in &rules {
            ensure!(mask.is_disabled(*r));
        }
        ensure_eq!(mask.disabled_rules(), rules.clone());
        let mut cleared = mask.clone();
        for r in &rules {
            cleared.enable(*r);
        }
        ensure!(cleared.is_empty());
        Ok(())
    });
}

const BIN_OPS: [BinOp; 11] = [
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::And,
    BinOp::Or,
];

/// A random expression over columns c0..c5 with every node kind, at most
/// `depth` operators deep; conjunctions and TRUE come often, for the
/// conjunct paths. Types are not checked: nothing here evaluates it.
fn random_expr(rng: &mut Rng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.25) {
        return match rng.gen_index(4) {
            0 | 1 => Expr::col(ColId(rng.gen_index(6) as u32)),
            2 => Expr::Lit(random_value(rng)),
            _ => Expr::true_lit(),
        };
    }
    let sub = |rng: &mut Rng| random_expr(rng, depth - 1);
    match rng.gen_index(5) {
        0 => {
            let op = BIN_OPS[rng.gen_index(BIN_OPS.len())];
            Expr::bin(op, sub(rng), sub(rng))
        }
        1 | 2 => Expr::and(sub(rng), sub(rng)),
        3 => Expr::not(sub(rng)),
        _ => Expr::is_null(sub(rng)),
    }
}

/// The reference column rewrite: every node rebuilt, nothing shared.
fn rebuilt(e: &Expr, to: &impl Fn(ColId) -> Option<Expr>) -> Expr {
    match e {
        Expr::Col(c) => to(*c).unwrap_or(Expr::Col(*c)),
        Expr::Lit(v) => Expr::Lit(v.clone()),
        Expr::Bin { op, left, right } => Expr::bin(*op, rebuilt(left, to), rebuilt(right, to)),
        Expr::Not(x) => Expr::not(rebuilt(x, to)),
        Expr::IsNull(x) => Expr::is_null(rebuilt(x, to)),
    }
}

fn hash_of(e: &Expr) -> u64 {
    let mut h = DefaultHasher::new();
    e.hash(&mut h);
    h.finish()
}

/// Structurally equal expressions are equal and hash equal however they
/// were built: rebuilt node by node, decoded from their wire form,
/// re-conjoined from their conjuncts, remapped through an identity map.
#[test]
fn equal_expressions_hash_equal() {
    forall!(CheckConfig::default(); seed in gen::u64s() => {
        let e = random_expr(&mut Rng::new(seed), 4);
        // Left-deep and free of TRUE, so its conjuncts re-conjoin to it.
        let conjoined = conjoin(conjuncts(&e));
        let identity: HashMap<ColId, ColId> = (0..6).map(|i| (ColId(i), ColId(i))).collect();
        for (path, a, b) in [
            ("rebuilt", e.clone(), rebuilt(&e, &|_| None)),
            ("decoded", e.clone(), from_str::<Expr>(&to_compact(&e))?),
            ("re-conjoined", conjoined.clone(), conjoin(conjuncts(&conjoined))),
            ("remapped", e.clone(), remap_columns(&e, &identity)),
        ] {
            ensure_eq!(a, b, "{path}");
            ensure_eq!(hash_of(&a), hash_of(&b), "{path}: {a}");
        }
        Ok(())
    });
}

fn operands(e: &Expr) -> Vec<&SubExpr> {
    match e {
        Expr::Bin { left, right, .. } => vec![left, right],
        Expr::Not(x) | Expr::IsNull(x) => vec![x],
        Expr::Col(_) | Expr::Lit(_) => vec![],
    }
}

/// True iff every operand of `out` that was built from an operand of
/// `input` in which no column is `moved` is that operand itself.
fn shares_unmoved(input: &Expr, out: &Expr, moved: &impl Fn(ColId) -> bool) -> bool {
    operands(input)
        .into_iter()
        .zip(operands(out))
        .all(|(x, y)| {
            if every_column(x, &mut |c| !moved(c)) {
                SubExpr::ptr_eq(x, y)
            } else {
                shares_unmoved(x, y, moved)
            }
        })
}

/// `remap_columns` and `substitute` build what rebuilding every node
/// builds, and return the input's own operand wherever no column under it
/// moved: with an identity map, every operand.
#[test]
fn column_rewrites_match_a_full_rebuild_and_share_the_rest() {
    forall!(CheckConfig::default(); seed in gen::u64s() => {
        let mut rng = Rng::new(seed);
        let e = random_expr(&mut rng, 4);
        // Each of c0..c5 unmapped, mapped to itself, or moved.
        let mut remap: HashMap<ColId, ColId, WordBuild> = HashMap::default();
        let mut subst: HashMap<ColId, Expr> = HashMap::new();
        for c in (0..6).map(ColId) {
            match rng.gen_index(3) {
                0 => {}
                1 => {
                    remap.insert(c, c);
                    subst.insert(c, Expr::col(c));
                }
                _ => {
                    remap.insert(c, ColId(rng.gen_index(10) as u32));
                    subst.insert(c, random_expr(&mut rng, 2));
                }
            }
        }
        let remapped = remap_columns(&e, &remap);
        ensure_eq!(remapped, rebuilt(&e, &|c| remap.get(&c).map(|&to| Expr::col(to))));
        ensure!(shares_unmoved(&e, &remapped, &|c| remap.get(&c).is_some_and(|&to| to != c)));
        let substituted = substitute(&e, &subst);
        ensure_eq!(substituted, rebuilt(&e, &|c| subst.get(&c).cloned()));
        ensure!(shares_unmoved(&e, &substituted, &|c| {
            subst.get(&c).is_some_and(|to| *to != Expr::col(c))
        }));
        Ok(())
    });
}
