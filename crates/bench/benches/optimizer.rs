//! Microbenchmarks for the optimizer substrate: full optimization of
//! representative query shapes, with and without rule masks, one rung for
//! each half of an optimization (exploration to the fixpoint and to the
//! budget, plan extraction), a capped search with and without its plan,
//! and one rung for each inner loop of the search (the probe of an IR
//! rule's duplicates, memo insert, pattern bind, rule application, re-bind
//! after growth), then the warm store's
//! codec (snapshot load, canonical cache key, one plan line's parse). Runs
//! on the dependency-free std::time harness.

use ruletest_bench::harness;
use ruletest_common::chaos::Chaos;
use ruletest_common::RuleId;
use ruletest_expr::{conjoin, AggCall, AggFunc, Expr};
use ruletest_logical::{IdGen, JoinKind, LogicalTree, OpKind, Operator};
use ruletest_optimizer::persist::{canonical_key, parse_entry_line};
use ruletest_optimizer::rule::newtree_from_logical;
use ruletest_optimizer::{
    match_bindings, match_signatures, Bound, CacheKey, GroupId, Memo, NewChild, NewTree, Offers,
    Optimizer, OptimizerConfig, Rule, RuleAction, RuleCtx, Searched, SnapshotStore, MAX_EXPRS,
};
use ruletest_storage::{tpch_database, Database, TpchConfig};
use std::cell::RefCell;
use std::path::Path;
use std::sync::Arc;

fn star_query(opt: &Optimizer, joins: usize) -> LogicalTree {
    let cat = &opt.database().catalog;
    let table = |name: &str| cat.table_by_name(name).expect("TPC-H table");
    let mut ids = IdGen::new();
    let tables = ["lineitem", "orders", "part", "supplier", "customer"];
    let mut tree = LogicalTree::get(table("lineitem"), &mut ids);
    let mut left_key = tree.output_col(0);
    for t in tables.iter().skip(1).take(joins) {
        let right = LogicalTree::get(table(t), &mut ids);
        let rk = right.output_col(0);
        tree = LogicalTree::join(
            JoinKind::Inner,
            tree,
            right,
            Expr::eq(Expr::col(left_key), Expr::col(rk)),
        );
        left_key = rk;
    }
    let agg = ids.fresh();
    LogicalTree::gbagg(
        tree,
        vec![],
        vec![AggCall::new(AggFunc::CountStar, None, agg)],
    )
}

/// Every `(group, expression)` of `memo` as the substitute that would
/// re-derive it: all duplicates.
fn rederivations(memo: &Memo) -> Vec<(NewTree, GroupId)> {
    (0..memo.num_groups() as u32)
        .map(GroupId)
        .flat_map(|g| {
            memo.group(g).exprs.iter().map(move |e| {
                let children = e.children.iter().map(|&c| NewChild::Group(c)).collect();
                (NewTree::new(e.op.clone(), children), g)
            })
        })
        .collect()
}

/// The substitutes `rule` returns for each of `bindings`, counted.
fn apply_all(db: &Database, memo: &Memo, rule: &Rule, bindings: &[Bound]) -> usize {
    // No rule applied here mints a column id.
    let ids = RefCell::new(IdGen::new());
    let ctx = RuleCtx {
        db,
        memo,
        ids: &ids,
    };
    bindings
        .iter()
        .map(|b| {
            let substitutes = rule.action.apply_explore(&ctx, b);
            substitutes.expect("an exploration rule").len()
        })
        .sum()
}

fn main() {
    let db = Arc::new(tpch_database(&TpchConfig::default()).expect("default TPC-H database"));
    let opt = Optimizer::new(db.clone());
    let mut group = harness::group("optimizer");
    for joins in [1usize, 2, 3] {
        let q = star_query(&opt, joins);
        group.bench(&format!("optimize/{joins}-join"), || {
            opt.optimize(&q).expect("star query optimizes").cost
        });
    }
    let q = star_query(&opt, 2);
    let hash_join = opt.rule_id("JoinToHashJoin").expect("catalog rule");
    let masked = OptimizerConfig::disabling(&[hash_join]);
    group.bench("optimize/2-join-masked", || {
        opt.optimize_with(&q, &masked)
            .expect("masked star query optimizes")
            .cost
    });

    // ---- Exploration alone: to the fixpoint, and to the budget ----
    // Three joins are the largest star that saturates under the default
    // budget; four stop at `MAX_EXPRS` (their fixpoint is 115,605
    // expressions), the shape that is half a campaign's search time.
    let config = OptimizerConfig::default();
    let q3 = star_query(&opt, 3);
    let q4 = star_query(&opt, 4);
    let exprs = |q: &LogicalTree| opt.explore(q, &config).expect("explores").memo.num_exprs();
    assert!(exprs(&q3) <= MAX_EXPRS, "3-join reaches its fixpoint");
    assert!(exprs(&q4) > MAX_EXPRS, "4-join stops at the budget");
    group.bench("explore_saturated_3join", || exprs(&q3));
    group.bench("explore_capped", || exprs(&q4));

    // ---- The search's probe, on duplicates ----
    // Every InnerJoinCommute binding of the saturated 3-join's memo offers
    // a commuted join the memo holds: the probe finds each one by its word
    // and builds nothing. The memo is dropped before the next rung, so the
    // rungs after it run on the same heap as without it.
    {
        let mut saturated = opt.explore(&q3, &config).expect("3-join explores").memo;
        let commute_id = opt.rule_id("InnerJoinCommute").expect("catalog rule");
        let commute = opt.rule(commute_id);
        let RuleAction::Rewrite(commute_rewrite) = &commute.action else {
            unreachable!("InnerJoinCommute is an IR rule");
        };
        let mut commute_sigs = Vec::new();
        for g in (0..saturated.num_groups()).map(|g| GroupId(g as u32)) {
            for ei in 0..saturated.group(g).exprs.len() {
                let sigs = match_signatures(&saturated, &commute.pattern, g, ei);
                commute_sigs.extend(sigs.into_iter().map(|sig| (g, sig)));
            }
        }
        let before = saturated.num_exprs();
        let (ids, mut offers) = (RefCell::new(IdGen::above(&q3)), Offers::default());
        group.bench("probe_commute_duplicates", || {
            for (g, sig) in &commute_sigs {
                let ctx = RuleCtx {
                    db: &db,
                    memo: &saturated,
                    ids: &ids,
                };
                commute_rewrite.probe(&ctx, &commute.pattern, sig, &mut offers);
                for root in offers.roots.drain(..) {
                    saturated
                        .offer(&db, root, *g, true, commute_id)
                        .expect("commuted join offers");
                }
            }
            saturated.num_exprs()
        });
        assert_eq!(saturated.num_exprs(), before, "duplicates added nothing");
    }

    // ---- The capped 4-join on a fresh optimizer, plan or no plan ----
    // What a generation trial pays for a search it will reject: with the
    // plan, and stopping at the cap; the difference is the extraction.
    let new_optimizer = || Optimizer::new(db.clone());
    group.bench_batched("optimize_truncating_star/plan", 1, new_optimizer, |opt| {
        opt.optimize_cached(&q4)
            .expect("capped star optimizes")
            .cost
    });
    group.bench_batched(
        "optimize_truncating_star/fixpoint",
        1,
        new_optimizer,
        |opt| {
            let searched = opt
                .optimize_fixpoint_cached(&q4)
                .expect("capped star explores");
            assert!(matches!(searched, Searched::Truncated(_)));
        },
    );

    // ---- The inner loops, on the memo of the 4-join ----
    let mut search = opt.explore(&q4, &config).expect("4-join explores");
    println!(
        "4-join memo at the budget: {} groups, {} expressions",
        search.memo.num_groups(),
        search.memo.num_exprs()
    );

    // Fresh inserts: the query's own tree, then 256 selections no rule
    // derives into its root group (group numbering repeats per memo).
    let seed = newtree_from_logical(&q4);
    let mut probe = Memo::new();
    let (seed_root, _) = probe
        .insert(&db, seed.clone(), None, true)
        .expect("seed tree inserts");
    let count_col = probe.schema(seed_root)[0].id;
    let fresh: Vec<NewTree> = (0..256i64)
        .map(|k| {
            let predicate = Expr::eq(Expr::col(count_col), Expr::lit(k));
            NewTree::new(
                Operator::Select { predicate },
                vec![NewChild::Group(seed_root)],
            )
        })
        .collect();
    group.bench("memo_insert_fresh", || {
        let mut memo = Memo::new();
        memo.insert(&db, seed.clone(), None, true)
            .expect("seed tree inserts");
        for nt in &fresh {
            memo.insert(&db, nt.clone(), Some(seed_root), false)
                .expect("fresh selection inserts");
        }
        memo.num_exprs()
    });

    let duplicates = rederivations(&search.memo);
    let before = search.memo.num_exprs();
    group.bench("memo_insert_duplicate", || {
        for (nt, g) in &duplicates {
            search
                .memo
                .insert(&db, nt.clone(), Some(*g), true)
                .expect("re-derivation inserts");
        }
        search.memo.num_exprs()
    });
    assert_eq!(search.memo.num_exprs(), before, "duplicates added nothing");

    // Duplicates of wide predicates: 64 selections over lineitem, each the
    // conjunction of a tag and "not null" on every column.
    let lineitem_def = db.catalog.table_by_name("lineitem").expect("TPC-H table");
    let lineitem = LogicalTree::get(lineitem_def, &mut IdGen::new());
    let lineitem_cols: Vec<_> = (0..lineitem_def.columns.len())
        .map(|i| lineitem.output_col(i))
        .collect();
    let not_null: Vec<Expr> = (lineitem_cols.iter())
        .map(|&c| Expr::not(Expr::is_null(Expr::col(c))))
        .collect();
    let wide_select = |tag: i64| {
        let mut parts = vec![Expr::eq(Expr::lit(tag), Expr::lit(tag))];
        parts.extend(not_null.iter().cloned());
        LogicalTree::select(lineitem.clone(), conjoin(parts))
    };
    let mut wide = Memo::new();
    for tag in 0..64 {
        wide.insert(&db, newtree_from_logical(&wide_select(tag)), None, true)
            .expect("wide selection inserts");
    }
    let duplicates = rederivations(&wide);
    let before = wide.num_exprs();
    group.bench("memo_insert_duplicate_wide_select", || {
        for (nt, g) in &duplicates {
            wide.insert(&db, nt.clone(), Some(*g), true)
                .expect("re-derivation inserts");
        }
        wide.num_exprs()
    });
    assert_eq!(wide.num_exprs(), before, "wide duplicates added nothing");

    // A selection pulled above the identity projection every search pins
    // on its root: the predicate comes back unchanged.
    let outputs = lineitem_cols.iter().map(|&c| (c, Expr::col(c))).collect();
    let pinned = LogicalTree::project(wide_select(0), outputs);
    let mut memo = Memo::new();
    let (root, _) = memo
        .insert(&db, newtree_from_logical(&pinned), None, true)
        .expect("pinned selection inserts");
    let pull = opt.rule(opt.rule_id("SelectPullAboveProject").expect("catalog rule"));
    let bindings = match_bindings(&memo, &pull.pattern, root, 0);
    assert_eq!(apply_all(&db, &memo, pull, &bindings), 1, "the pull fires");
    group.bench("pull_above_pinned_project", || {
        apply_all(&db, &memo, pull, &bindings)
    });

    // Bind: the join whose left input group is the fattest.
    let assoc = opt.rule_id("InnerJoinAssocLeft").expect("catalog rule");
    let pattern = opt.rule_pattern(assoc);
    let memo = &search.memo;
    let (fat, g, ei) = (0..memo.num_groups() as u32)
        .map(GroupId)
        .flat_map(|g| {
            memo.group(g)
                .exprs
                .iter()
                .enumerate()
                .filter(|(_, e)| e.op.kind() == OpKind::Join)
                .map(move |(ei, e)| (memo.group(e.children[0]).exprs.len(), g, ei))
        })
        .max()
        .expect("the memo of a join query holds a join");
    assert!(fat >= 100, "fattest left input has only {fat} expressions");
    println!("bind target: {g} expression {ei}, left input of {fat} expressions");
    group.bench("bind_assoc_on_fat_group", || {
        match_bindings(memo, pattern, g, ei).len()
    });
    let bindings = match_bindings(memo, pattern, g, ei);
    let substitutes = apply_all(&db, memo, opt.rule(assoc), &bindings);
    assert_eq!(substitutes, bindings.len(), "one substitute per binding");
    group.bench("apply_assoc_on_fat_group", || {
        apply_all(&db, memo, opt.rule(assoc), &bindings)
    });

    // Re-bind after growth: the left input gains one join no rule derives
    // (so one new binding), then the pattern is matched against all of
    // them again — what every growth of a child group costs its parents.
    // The memo grows with every call, so each sample starts a fresh one.
    // (The search is deterministic: every fresh memo numbers its groups
    // and expressions like this one.)
    let left = memo.group(g).exprs[ei].children[0];
    let join = (memo.group(left).exprs.iter())
        .find(|e| e.op.join_kind() == Some(JoinKind::Inner))
        .expect("the left input of an assoc binding holds a join");
    let Operator::Join { predicate, .. } = &join.op else {
        unreachable!("join_kind is Some");
    };
    group.bench_batched(
        "rebind_after_growth",
        32,
        || {
            (
                opt.explore(&q4, &config).expect("4-join explores").memo,
                0i64,
            )
        },
        |(memo, grown)| {
            *grown += 1;
            let tag = Expr::eq(Expr::lit(*grown), Expr::lit(*grown));
            let op = Operator::Join {
                kind: JoinKind::Inner,
                predicate: Expr::and(predicate.clone(), tag),
            };
            let inputs = join.children.iter().map(|&c| NewChild::Group(c)).collect();
            let (_, fresh) = memo
                .insert(&db, NewTree::new(op, inputs), Some(left), false)
                .expect("tagged join inserts");
            assert!(fresh);
            match_bindings(memo, pattern, g, ei).len()
        },
    );

    group.bench("extract_saturated_4join", || {
        opt.extract(&mut search, &config)
            .expect("saturated memo has a plan")
            .est_cost
    });

    // ---- The warm store's codec ----
    // A snapshot of the optimizer's own results: the 1- and 2-join stars
    // under every single-rule mask that leaves a plan, saved through a
    // cold optimizer.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench-snapshot");
    let _ = std::fs::remove_dir_all(&dir);
    let open = || SnapshotStore::open(&dir, 1, None).expect("snapshot directory opens");
    let cold = Optimizer::new(db.clone());
    cold.attach_snapshot_store(Arc::new(open()));
    let mut keys = Vec::new();
    for joins in [1, 2] {
        let q = star_query(&cold, joins);
        for rule in 0..cold.num_rules() {
            let masked = OptimizerConfig::disabling(&[RuleId(rule as u16)]);
            // A mask that leaves no physical plan is an error, not cached.
            if cold.optimize_with_cached(&q, &masked).is_ok() {
                keys.push(CacheKey::new(&q, &masked));
            }
        }
    }
    let saved = cold.persist_cache().expect("snapshot saves");
    assert_eq!(saved, keys.len() as u64, "one entry per key");
    let shards: Vec<String> = (std::fs::read_dir(dir.join("cache")).expect("snapshot files"))
        .map(|f| f.expect("a snapshot file").path())
        .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .map(|p| std::fs::read_to_string(p).expect("a shard"))
        .collect();
    let lines: Vec<&str> = shards.iter().flat_map(|text| text.lines()).collect();
    let bytes: usize = lines.iter().map(|l| l.len() + 1).sum();
    let plan_line = *(lines.iter().max_by_key(|l| l.len())).expect("a shard line");
    println!(
        "snapshot: {} entries, {bytes} bytes in shard lines, longest line {} bytes",
        keys.len(),
        plan_line.len()
    );
    // Open the store and answer every key from disk: all 16 shards load.
    group.bench("snapshot_load", || {
        let store = open();
        let warm = (keys.iter())
            .filter(|k| store.peek_warm(k, &Chaos::default()).is_some())
            .count();
        assert_eq!(warm, keys.len(), "every key is warm");
        warm
    });
    group.bench("canonical_key", || {
        keys.iter().map(|k| canonical_key(k).len()).sum::<usize>()
    });
    group.bench("decode_plan_line", || {
        parse_entry_line(plan_line).expect("a shard line decodes")
    });
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}
