//! Microbenchmarks for the execution substrate, one rung per operator
//! shape and one per kind of result comparison, on scale-64 TPC-H (19,200
//! `lineitem` rows, the scale of the repo benchmark's probes). Nested
//! loops stays on scale 4, where one execution examines 576 k pairs
//! instead of 147 M. Each rung asserts, once and untimed, the row count or
//! the empty diff it measures. Runs on the dependency-free std::time
//! harness.

use ruletest_bench::harness;
use ruletest_common::{diff_multisets, Rng, Value};
use ruletest_executor::execute;
use ruletest_expr::{AggCall, AggFunc, BinOp, Expr};
use ruletest_logical::{IdGen, JoinKind, LogicalTree};
use ruletest_optimizer::{Optimizer, OptimizerConfig, PhysicalPlan};
use ruletest_storage::{tpch_database, Database, TpchConfig};
use std::collections::HashSet;
use std::sync::Arc;

/// `lineitem JOIN orders ON l_orderkey = o_orderkey`.
fn lineitem_orders(db: &Database, ids: &mut IdGen) -> LogicalTree {
    let cat = &db.catalog;
    let l = LogicalTree::get(cat.table_by_name("lineitem").unwrap(), ids);
    let o = LogicalTree::get(cat.table_by_name("orders").unwrap(), ids);
    let pred = Expr::eq(Expr::col(l.output_col(0)), Expr::col(o.output_col(0)));
    LogicalTree::join(JoinKind::Inner, l, o, pred)
}

/// `SELECT COUNT(*)` over `input`.
fn count(input: LogicalTree, ids: &mut IdGen) -> LogicalTree {
    let out = ids.fresh();
    LogicalTree::gbagg(
        input,
        vec![],
        vec![AggCall::new(AggFunc::CountStar, None, out)],
    )
}

/// `plan`, which must contain an `op` operator.
fn with_op(plan: PhysicalPlan, op: &str) -> PhysicalPlan {
    assert!(
        plan.explain().contains(op),
        "no {op} in\n{}",
        plan.explain()
    );
    plan
}

/// The best plan of `tree`, which must contain an `op` operator.
fn best(opt: &Optimizer, tree: &LogicalTree, op: &str) -> PhysicalPlan {
    with_op(opt.optimize(tree).unwrap().plan, op)
}

/// The values of column `col` of table `name`.
fn column<'a>(db: &'a Database, name: &str, col: usize) -> impl Iterator<Item = &'a Value> {
    let table = db.catalog.table_by_name(name).unwrap().id;
    db.table(table).unwrap().rows.iter().map(move |r| &r[col])
}

fn main() {
    let db = Arc::new(tpch_database(&TpchConfig::scaled(7, 64)).unwrap());
    let opt = Optimizer::new(db.clone());
    let cat = &db.catalog;
    let lineitem = cat.table_by_name("lineitem").unwrap();
    let mut group = harness::group("executor");

    // filter/two-conjuncts: l_discount < 5 AND l_quantity > 20.
    let mut ids = IdGen::new();
    let l = LogicalTree::get(lineitem, &mut ids);
    let (quantity, discount) = (l.output_col(4), l.output_col(6));
    let pred = Expr::and(
        Expr::bin(BinOp::Lt, Expr::col(discount), Expr::lit(5i64)),
        Expr::bin(BinOp::Gt, Expr::col(quantity), Expr::lit(20i64)),
    );
    let filter = best(&opt, &LogicalTree::select(l, pred), "Filter");
    let kept = column(&db, "lineitem", 6)
        .zip(column(&db, "lineitem", 4))
        .filter(|(d, q)| d.as_int().unwrap() < 5 && q.as_int().unwrap() > 20)
        .count();
    assert_eq!(execute(&db, &filter).unwrap().len(), kept);
    group.bench("filter/two-conjuncts", || {
        execute(&db, &filter).unwrap().len()
    });

    // compute/arithmetic: l_extendedprice * (100 - l_discount) and
    // l_quantity + l_shipdate (NULL where the date is) on every row.
    let mut ids = IdGen::new();
    let l = LogicalTree::get(lineitem, &mut ids);
    let col = |i| Expr::col(l.output_col(i));
    let discounted = Expr::bin(BinOp::Sub, Expr::lit(100i64), col(6));
    let outputs = vec![
        (ids.fresh(), Expr::bin(BinOp::Mul, col(5), discounted)),
        (ids.fresh(), Expr::bin(BinOp::Add, col(4), col(8))),
    ];
    let compute = best(&opt, &LogicalTree::project(l, outputs), "Compute");
    let lines = column(&db, "lineitem", 0).count();
    assert_eq!(execute(&db, &compute).unwrap().len(), lines);
    group.bench("compute/arithmetic", || {
        execute(&db, &compute).unwrap().len()
    });

    // join/count-over-hash-join: the parent reads no column of the join.
    let mut ids = IdGen::new();
    let join = lineitem_orders(&db, &mut ids);
    let count_plan = best(&opt, &count(join.clone(), &mut ids), "HashJoin");
    let orders: HashSet<_> = column(&db, "orders", 0).collect();
    let matches = column(&db, "lineitem", 0)
        .filter(|k| orders.contains(k))
        .count();
    let counted = execute(&db, &count_plan).unwrap();
    assert_eq!(counted, vec![vec![Value::Int(matches as i64)]]);
    group.bench("join/count-over-hash-join", || {
        execute(&db, &count_plan).unwrap().len()
    });

    // join/full-width-root: every column of both sides is returned, which
    // narrow join rows cannot help.
    let full_plan = best(&opt, &join, "HashJoin");
    let rows = execute(&db, &full_plan).unwrap();
    assert_eq!(rows.len(), matches);
    let width = lineitem.columns.len() + cat.table_by_name("orders").unwrap().columns.len();
    assert!(rows.iter().all(|r| r.len() == width));
    group.bench("join/full-width-root", || {
        execute(&db, &full_plan).unwrap().len()
    });

    // agg/group-by-orderkey: one group per order that has lines.
    let mut ids = IdGen::new();
    let l = LogicalTree::get(lineitem, &mut ids);
    let (key, quantity) = (l.output_col(0), l.output_col(4));
    let aggs = vec![
        AggCall::new(AggFunc::CountStar, None, ids.fresh()),
        AggCall::new(AggFunc::Sum, Some(quantity), ids.fresh()),
    ];
    let agg = best(&opt, &LogicalTree::gbagg(l, vec![key], aggs), "HashAgg");
    let groups = column(&db, "lineitem", 0).collect::<HashSet<_>>().len();
    assert_eq!(execute(&db, &agg).unwrap().len(), groups);
    group.bench("agg/group-by-orderkey", || {
        execute(&db, &agg).unwrap().len()
    });

    // diff/same-order, diff/reversed and diff/permuted: the full-width
    // join's rows against a copy in the same order (the common case
    // between two equivalent plans), reversed and shuffled with a fixed
    // seed (every row must be sorted).
    let same = rows.clone();
    let reversed: Vec<_> = rows.iter().rev().cloned().collect();
    let mut permuted = rows.clone();
    Rng::new(7).shuffle(&mut permuted);
    for other in [&same, &reversed, &permuted] {
        assert!(diff_multisets(&rows, other).is_empty());
    }
    group.bench("diff/same-order", || {
        diff_multisets(&rows, &same).is_empty()
    });
    group.bench("diff/reversed", || {
        diff_multisets(&rows, &reversed).is_empty()
    });
    group.bench("diff/permuted", || {
        diff_multisets(&rows, &permuted).is_empty()
    });

    // join/nl-only-plan: the count over nested loops, on scale 4.
    let small = Arc::new(tpch_database(&TpchConfig::scaled(7, 4)).unwrap());
    let small_opt = Optimizer::new(small.clone());
    let mut ids = IdGen::new();
    let q = count(lineitem_orders(&small, &mut ids), &mut ids);
    let nl_only = OptimizerConfig::disabling(&[
        small_opt.rule_id("JoinToHashJoin").unwrap(),
        small_opt.rule_id("InnerJoinToMergeJoin").unwrap(),
    ]);
    let nl_plan = with_op(
        small_opt.optimize_with(&q, &nl_only).unwrap().plan,
        "NLJoin",
    );
    let orders: HashSet<_> = column(&small, "orders", 0).collect();
    let small_matches = column(&small, "lineitem", 0)
        .filter(|k| orders.contains(k))
        .count();
    assert_eq!(
        execute(&small, &nl_plan).unwrap(),
        vec![vec![Value::Int(small_matches as i64)]]
    );
    group.bench("join/nl-only-plan", || {
        execute(&small, &nl_plan).unwrap().len()
    });
    group.finish();
}
