//! Layer probes: one function per rung of the per-layer ladder, each
//! timing calls into one layer's public functions on a fixed input with
//! the calibrated micro loop. They run once, after the traced workload,
//! and are the same whatever the workload.

use crate::harness::micro_ns;
use crate::workloads::{reference_check, sql_corpus, Env};
use ruletest_common::{diff_multisets, ColId, Error, Result, RuleId};
use ruletest_executor::execute;
use ruletest_expr::eval::eval_predicate;
use ruletest_expr::{AggCall, AggFunc, Expr};
use ruletest_logical::{IdGen, JoinKind, LogicalTree, Operator};
use ruletest_optimizer::{Optimizer, OptimizerConfig, PhysicalPlan};
use ruletest_sql::{parse_sql, to_sql};
use ruletest_storage::{tpch_database, Database, TpchConfig};
use ruletest_telemetry::{Stage, Telemetry};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Scale of the probe database: 19,200 `lineitem` rows (1,200 in a smoke
/// run), enough that one operator execution takes milliseconds.
fn probe_scale(env: &Env) -> usize {
    if env.smoke {
        4
    } else {
        64
    }
}

/// Runs every probe; returns `(metric name, value)` pairs.
pub fn run_all(env: &Env) -> Result<Vec<(&'static str, f64)>> {
    let mut out = Vec::new();
    let start = Instant::now();
    let db = Arc::new(tpch_database(&TpchConfig::scaled(
        env.seed,
        probe_scale(env),
    ))?);
    out.push(("storage.tpch_build_s", start.elapsed().as_secs_f64()));
    out.push(("storage.rows", db.total_rows() as f64));
    let opt = Optimizer::new(db.clone());
    let smoke = env.smoke;
    sql(smoke, &db, &mut out)?;
    expr(smoke, &db, &mut out)?;
    optimizer(smoke, &db, &opt, &mut out)?;
    executor(smoke, &db, &opt, &mut out)?;
    let (reference_s, mismatches) = reference_check(env)?;
    out.push(("executor.reference_s", reference_s));
    out.push(("executor.reference_mismatches", mismatches as f64));
    lint(&opt, &mut out)?;
    let tel = Telemetry::metrics_only();
    out.push((
        "telemetry.span_guard_ns",
        micro_ns(smoke, || tel.span(Stage::Execution)),
    ));
    Ok(out)
}

type Metrics = Vec<(&'static str, f64)>;

/// Parser and SQL generator over the `sql_differential` corpus, and the
/// round trip between them: `to_sql(parse(to_sql(t)))` must be `to_sql(t)`.
fn sql(smoke: bool, db: &Database, out: &mut Metrics) -> Result<()> {
    let corpus = sql_corpus();
    let trees: Vec<LogicalTree> = corpus
        .iter()
        .map(|s| parse_sql(&db.catalog, s))
        .collect::<Result<_>>()?;
    let parse_ns = micro_ns(smoke, || {
        corpus
            .iter()
            .filter(|s| parse_sql(&db.catalog, s).is_ok())
            .count()
    });
    let gen_ns = micro_ns(smoke, || {
        trees
            .iter()
            .filter(|t| to_sql(&db.catalog, t).is_ok())
            .count()
    });
    let mut failures = 0;
    for tree in &trees {
        let text = to_sql(&db.catalog, tree)?;
        let again = parse_sql(&db.catalog, &text).and_then(|t| to_sql(&db.catalog, &t));
        if again.ok().as_ref() != Some(&text) {
            failures += 1;
        }
    }
    let n = corpus.len() as f64;
    out.push(("sql.parse_us_per_query", parse_ns / n / 1e3));
    out.push(("sql.gen_us_per_query", gen_ns / n / 1e3));
    out.push(("sql.roundtrip_failures", failures as f64));
    Ok(())
}

/// One conjunctive predicate (comparison, arithmetic, IS NULL, string
/// equality) evaluated over every `lineitem` row.
fn expr(smoke: bool, db: &Database, out: &mut Metrics) -> Result<()> {
    let tree = parse_sql(
        &db.catalog,
        "SELECT l_orderkey FROM lineitem \
         WHERE l_quantity + l_discount > 12 AND l_extendedprice < 90000 \
           AND l_shipdate IS NOT NULL AND l_returnflag = 'R'",
    )?;
    let mut found = None;
    tree.visit(&mut |node| {
        if let (Operator::Select { predicate }, [child]) = (&node.op, &node.children[..]) {
            if let Operator::Get { table, cols } = &child.op {
                found = Some((predicate.clone(), *table, cols.clone()));
            }
        }
    });
    let (predicate, table, cols) = found
        .ok_or_else(|| Error::internal("expr probe: no Select over Get in the parsed tree"))?;
    let position: HashMap<ColId, usize> = cols.iter().enumerate().map(|(i, &c)| (c, i)).collect();
    let rows = &db.table(table)?.rows;
    let pass_ns = micro_ns(smoke, || {
        rows.iter()
            .filter(|row| eval_predicate(&predicate, &mut |c| row[position[&c]].clone()))
            .count()
    });
    out.push(("expr.eval_ns_per_row", pass_ns / rows.len() as f64));
    Ok(())
}

/// A left-deep chain of `joins` inner equi-joins over TPC-H under a
/// scalar COUNT(*): the uncached `optimize()` rungs.
fn join_chain(db: &Database, joins: usize) -> Result<LogicalTree> {
    // (table, column joined to the previous table, column the next joins on)
    const CHAIN: [(&str, usize, usize); 7] = [
        ("lineitem", 0, 0),
        ("orders", 0, 1),
        ("customer", 0, 2),
        ("nation", 0, 2),
        ("region", 0, 0),
        ("supplier", 2, 0),
        ("partsupp", 1, 0),
    ];
    let mut ids = IdGen::new();
    let mut tree = LogicalTree::get(db.catalog.table_by_name(CHAIN[0].0)?, &mut ids);
    let mut left_key = tree.output_col(CHAIN[0].2);
    for &(name, join_col, next_col) in &CHAIN[1..=joins] {
        let right = LogicalTree::get(db.catalog.table_by_name(name)?, &mut ids);
        let right_key = right.output_col(join_col);
        let next_key = right.output_col(next_col);
        tree = LogicalTree::join(
            JoinKind::Inner,
            tree,
            right,
            Expr::eq(Expr::col(left_key), Expr::col(right_key)),
        );
        left_key = next_key;
    }
    let count = ids.fresh();
    Ok(LogicalTree::gbagg(
        tree,
        vec![],
        vec![AggCall::new(AggFunc::CountStar, None, count)],
    ))
}

fn optimizer(smoke: bool, db: &Arc<Database>, opt: &Optimizer, out: &mut Metrics) -> Result<()> {
    for (name, joins) in [
        ("optimizer.optimize_2join_us", 2),
        ("optimizer.optimize_4join_us", 4),
        ("optimizer.optimize_6join_us", 6),
    ] {
        let tree = join_chain(db, joins)?;
        out.push((
            name,
            micro_ns(smoke, || opt.optimize(&tree).map(|r| r.cost)) / 1e3,
        ));
    }
    let tree = join_chain(db, 4)?;
    let masked = OptimizerConfig::disabling(&[rule(opt, "JoinToHashJoin")?]);
    out.push((
        "optimizer.optimize_masked_4join_us",
        micro_ns(smoke, || opt.optimize_with(&tree, &masked).map(|r| r.cost)) / 1e3,
    ));
    out.push((
        "optimizer.new_us",
        micro_ns(smoke, || Optimizer::new(db.clone()).num_rules()) / 1e3,
    ));
    opt.optimize_cached(&tree)?;
    out.push((
        "optimizer.cache_probe_ns",
        micro_ns(smoke, || opt.optimize_cached(&tree).map(|r| r.cost)),
    ));
    Ok(())
}

fn rule(opt: &Optimizer, name: &str) -> Result<RuleId> {
    opt.rule_id(name)
        .ok_or_else(|| Error::not_found(format!("rule {name}")))
}

fn contains(plan: &PhysicalPlan, op: &str) -> bool {
    plan.op.name() == op || plan.children.iter().any(|c| contains(c, op))
}

/// Plans `sql` with every exploration rule and the named implementation
/// rules disabled, so the plan mirrors the query, and requires operator
/// `must_use` in it.
fn forced_plan(
    db: &Database,
    opt: &Optimizer,
    sql: &str,
    without: &[&str],
    must_use: &str,
) -> Result<PhysicalPlan> {
    let mut disabled = opt.exploration_rule_ids();
    for name in without {
        disabled.push(rule(opt, name)?);
    }
    let tree = parse_sql(&db.catalog, sql)?;
    let plan = opt
        .optimize_with(&tree, &OptimizerConfig::disabling(&disabled))?
        .plan;
    if !contains(&plan, must_use) {
        return Err(Error::internal(format!(
            "operator probe wanted {must_use}, optimizer chose\n{}",
            plan.explain()
        )));
    }
    Ok(plan)
}

/// Each physical operator at a fixed input, per input row (per candidate
/// pair for nested loops), and the multiset comparison of two results.
fn executor(smoke: bool, db: &Database, opt: &Optimizer, out: &mut Metrics) -> Result<()> {
    let rows = |table: &str| -> Result<f64> {
        let def = db.catalog.table_by_name(table)?;
        Ok(db.table(def.id)?.row_count() as f64)
    };
    let (lineitem, orders) = (rows("lineitem")?, rows("orders")?);
    let (customer, nation) = (rows("customer")?, rows("nation")?);
    const JOIN: &str =
        "SELECT l_orderkey, o_totalprice FROM lineitem JOIN orders ON l_orderkey = o_orderkey";
    const NL_JOIN: &str =
        "SELECT c_custkey, n_name FROM customer JOIN nation ON c_nationkey = n_nationkey";
    const AGG: &str =
        "SELECT l_partkey, COUNT(*) AS n, SUM(l_quantity) AS q FROM lineitem GROUP BY l_partkey";
    let probes: [(&'static str, &str, &[&str], &str, f64); 8] = [
        (
            "executor.scan_filter_ns_per_row",
            "SELECT l_orderkey FROM lineitem WHERE l_quantity > 25 AND l_discount < 5",
            &[],
            "Filter",
            lineitem,
        ),
        (
            "executor.hash_join_ns_per_row",
            JOIN,
            &["InnerJoinToMergeJoin", "JoinToNestedLoops"],
            "HashJoin",
            lineitem + orders,
        ),
        (
            "executor.merge_join_ns_per_row",
            JOIN,
            &["JoinToHashJoin", "JoinToNestedLoops"],
            "MergeJoin",
            lineitem + orders,
        ),
        (
            "executor.nl_join_ns_per_pair",
            NL_JOIN,
            &["JoinToHashJoin", "InnerJoinToMergeJoin"],
            "NLJoin",
            customer * nation,
        ),
        (
            "executor.hash_agg_ns_per_row",
            AGG,
            &["GbAggToStreamAgg"],
            "HashAgg",
            lineitem,
        ),
        (
            "executor.stream_agg_ns_per_row",
            AGG,
            &["GbAggToHashAgg"],
            "StreamAgg",
            lineitem,
        ),
        (
            "executor.distinct_ns_per_row",
            "SELECT DISTINCT l_partkey, l_suppkey FROM lineitem",
            &[],
            "HashDistinct",
            lineitem,
        ),
        (
            "executor.topn_ns_per_row",
            "SELECT l_orderkey, l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC LIMIT 100",
            &[],
            "TopN",
            lineitem,
        ),
    ];
    for (name, sql, without, must_use, units) in probes {
        let plan = forced_plan(db, opt, sql, without, must_use)?;
        out.push((
            name,
            micro_ns(smoke, || execute(db, &plan).map(|r| r.len())) / units,
        ));
    }
    // Two equal results in different orders: the common case of the
    // differential oracle.
    let left = execute(
        db,
        &forced_plan(db, opt, JOIN, &["InnerJoinToMergeJoin"], "HashJoin")?,
    )?;
    let mut right = left.clone();
    right.reverse();
    if !diff_multisets(&left, &right).is_empty() {
        return Err(Error::internal(
            "multiset probe: a result differs from its reverse",
        ));
    }
    out.push((
        "common.multiset_diff_ns_per_row",
        micro_ns(smoke, || diff_multisets(&left, &right).is_empty()) / left.len() as f64,
    ));
    Ok(())
}

/// The static linter and the symbolic prover over the clean catalog, one
/// shot each (both take milliseconds and allocate their own corpora).
fn lint(opt: &Optimizer, out: &mut Metrics) -> Result<()> {
    let t = Instant::now();
    let audit = ruletest_lint::lint_rules(opt)?;
    out.push(("lint.audit_ms", t.elapsed().as_secs_f64() * 1e3));
    if !audit.violations.is_empty() {
        return Err(Error::internal(format!(
            "lint probe: clean catalog has {} violations",
            audit.violations.len()
        )));
    }
    // Proofs run over the prover's rowless symbolic database, never TPC-H.
    let symbolic = Optimizer::new(Arc::new(ruletest_lint::prove::symbolic_database()));
    let t = Instant::now();
    let proofs = ruletest_lint::prove::prove_rules(&symbolic, &Telemetry::disabled())?;
    out.push(("lint.prove_ms", t.elapsed().as_secs_f64() * 1e3));
    out.push(("lint.prove_unknown", proofs.unknown as f64));
    Ok(())
}
