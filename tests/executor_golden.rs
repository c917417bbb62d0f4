//! Executor golden: what every plan returns, in which order, and how many
//! work units it charges, pinned by one line per plan in
//! `tests/golden/executor_digest.txt`.
//!
//! The file was generated from the materialising interpreter *before* the
//! pull-based executor replaced it (ISSUE 16) and is the contract that the
//! rewrite returns the same rows in the same order for the same total
//! charge. The minimum `work_budget` under which `execute_with` succeeds is
//! the number of units a plan charges, so `skipped_expensive` verdicts
//! cannot move while it is unchanged. There is deliberately no regeneration
//! switch: a change that is *meant* to alter the executor's output order or
//! accounting regenerates the file by checking out its parent commit and
//! copying the `actual` text this test prints on mismatch.
//!
//! The same plans are the executor's independent oracle check: every
//! result must equal `reference_eval` of the plan's logical tree as a
//! multiset (ROADMAP item 5).
//!
//! A second file, `tests/golden/executor_layouts.txt`, pins hand-built
//! plans in the same line format: every join kind and algorithm under the
//! parents that read all, none, one side's or the padded side's columns,
//! so a join that builds only the columns its parent reads is held to the
//! rows, order and charges of one that builds them all.

use ruletest_common::{diff_multisets, ColId, Error, Fnv64, Row, Value};
use ruletest_core::{
    generate_suite_lenient, Framework, FrameworkConfig, GenConfig, RuleTarget, Strategy,
};
use ruletest_executor::{execute_with, reference_eval, ExecConfig};
use ruletest_expr::{AggCall, AggFunc, BinOp, Expr};
use ruletest_logical::{output_schema, IdGen, JoinKind, LogicalTree, Operator, SortKey};
use ruletest_optimizer::{Optimizer, OptimizerConfig, PhysOp, PhysicalPlan};
use ruletest_sql::parse_sql;
use ruletest_storage::{tpch_database, Database, TpchConfig};
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/executor_digest.txt");
const LAYOUTS: &str = include_str!("golden/executor_layouts.txt");
const SQL_CORPUS: &str = include_str!("../perfbench/workloads/sql_differential.sql");

/// The corpus statements, comments stripped (as the benchmark reads them).
fn sql_corpus() -> Vec<String> {
    let code: Vec<&str> = SQL_CORPUS
        .lines()
        .filter(|l| !l.trim_start().starts_with("--"))
        .collect();
    code.join("\n")
        .split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// Toolchain-independent hash of one row: a tag byte and the payload per
/// value (`Value: Hash` is derived, so its byte stream is not ours to pin).
fn row_hash(row: &Row) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(row.len() as u64);
    for v in row {
        match v {
            Value::Null => h.write(&[0]),
            Value::Bool(b) => h.write(&[1, u8::from(*b)]),
            Value::Int(i) => h.write(&[2]).write(&i.to_le_bytes()),
            Value::Str(s) => h.write(&[3]).write_str(s),
        };
    }
    h.finish()
}

fn with_budget(work_budget: u64) -> ExecConfig {
    ExecConfig {
        work_budget,
        ..ExecConfig::default()
    }
}

/// The smallest budget under which the plan executes: doubling finds the
/// first power of two that succeeds, bisection the boundary below it.
fn min_budget(db: &Database, plan: &PhysicalPlan) -> u64 {
    let ok = |b: u64| match execute_with(db, plan, &with_budget(b)) {
        Ok(_) => true,
        Err(Error::Budget(_)) => false,
        Err(e) => panic!("unexpected execution error under budget {b}: {e}"),
    };
    let mut hi = 1u64;
    while !ok(hi) {
        hi *= 2;
    }
    let mut lo = hi / 2; // fails (or is 0)
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if ok(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[derive(Default)]
struct Golden {
    text: String,
    plans: usize,
    oracle_checked: usize,
}

impl Golden {
    /// One line for `plan`, and the oracle check of its rows against
    /// `expected` (the reference result of the query, when it fits the
    /// reference's budget).
    fn plan(&mut self, label: &str, db: &Database, plan: &PhysicalPlan, expected: Option<&[Row]>) {
        self.plans += 1;
        let rows = match execute_with(db, plan, &ExecConfig::default()) {
            Ok(rows) => rows,
            Err(e) => {
                self.text.push_str(&format!("{label} error: {e}\n"));
                return;
            }
        };
        let mut ordered = Fnv64::new();
        let mut multiset = rows.len() as u64;
        for row in &rows {
            let h = row_hash(row);
            ordered.write_u64(h);
            multiset = multiset.wrapping_add(h);
        }
        self.text.push_str(&format!(
            "{label} rows={} ordered={:016x} multiset={:016x} min_budget={}\n",
            rows.len(),
            ordered.finish(),
            multiset,
            min_budget(db, plan),
        ));
        if let Some(expected) = expected {
            let diff = diff_multisets(expected, &rows);
            assert!(
                diff.is_empty(),
                "{label}: executor disagrees with reference_eval ({diff:?})\nplan:\n{}",
                plan.explain()
            );
            self.oracle_checked += 1;
        }
    }

    /// `Plan(q)` and every `Plan(q, ¬r)`, r an exploration rule in
    /// `RuleSet(q)`, whose shape differs from the plans already listed.
    fn query(&mut self, label: &str, db: &Database, opt: &Optimizer, tree: &LogicalTree) {
        let expected = reference_eval(db, tree, &ExecConfig::default()).ok();
        let base = match opt.optimize(tree) {
            Ok(base) => base,
            Err(e) => {
                self.text
                    .push_str(&format!("{label} - optimize error: {e}\n"));
                return;
            }
        };
        self.plan(&format!("{label} -"), db, &base.plan, expected.as_deref());
        let explore = opt.exploration_rule_ids();
        let mut seen = vec![base.plan];
        for rule in base.rule_set.iter().filter(|r| explore.contains(r)) {
            let Ok(masked) = opt.optimize_with(tree, &OptimizerConfig::disabling(&[*rule])) else {
                continue;
            };
            if seen.iter().any(|p| p.same_shape(&masked.plan)) {
                continue;
            }
            let name = opt.rule(*rule).name;
            self.plan(
                &format!("{label} {name}"),
                db,
                &masked.plan,
                expected.as_deref(),
            );
            seen.push(masked.plan);
        }
    }
}

#[test]
fn executor_output_order_and_charges_match_the_golden_file() {
    let mut golden = Golden::default();

    // The benchmark's SQL corpus on a scale-4 database.
    let db = Arc::new(tpch_database(&TpchConfig::scaled(7, 4)).unwrap());
    let opt = Optimizer::new(db.clone());
    for (i, sql) in sql_corpus().iter().enumerate() {
        let tree = parse_sql(&db.catalog, sql).unwrap();
        golden.query(&format!("sql{:02}", i + 1), &db, &opt, &tree);
    }

    // Pattern-generated queries for every exploration rule, k=2, on the
    // default database.
    let fw = Framework::new(&FrameworkConfig::default()).unwrap();
    let targets: Vec<RuleTarget> = fw
        .optimizer
        .exploration_rule_ids()
        .into_iter()
        .map(RuleTarget::Single)
        .collect();
    let cfg = GenConfig {
        seed: 0xE8EC,
        pad_ops: 1,
        ..Default::default()
    };
    let (suite, dropped) =
        generate_suite_lenient(&fw, targets, 2, Strategy::Pattern, &cfg).unwrap();
    for t in &dropped {
        golden
            .text
            .push_str(&format!("dropped {}\n", t.label(&fw.optimizer)));
    }
    for (qi, q) in suite.queries.iter().enumerate() {
        golden.query(&format!("gen{qi:03}"), &fw.db, &fw.optimizer, &q.tree);
    }

    // The oracle must have had its say on (nearly) every plan: a reference
    // evaluation may exceed its own budget on a generated cross product,
    // nothing else excuses a plan.
    assert!(
        golden.oracle_checked * 10 >= golden.plans * 9,
        "reference_eval checked only {} of {} plans",
        golden.oracle_checked,
        golden.plans
    );

    assert_matches_golden(&golden.text, GOLDEN, "executor_digest.txt");
}

/// Panics with the first differing line and the whole `actual` text
/// unless it equals the golden file `name`.
fn assert_matches_golden(actual: &str, golden: &str, name: &str) {
    if actual != golden {
        let first = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "executor digests differ from tests/golden/{name} \
             ({} actual vs {} golden lines, first difference at line {}):\n\
             actual: {:?}\ngolden: {:?}\n--- actual ---\n{actual}",
            actual.lines().count(),
            golden.lines().count(),
            first + 1,
            actual.lines().nth(first),
            golden.lines().nth(first),
        );
    }
}

/// A hand-built logical tree and the physical plan that implements it,
/// node for node, both with the schema the logical operator derives.
#[derive(Clone)]
struct Node {
    tree: LogicalTree,
    plan: PhysicalPlan,
}

fn node(db: &Database, op: Operator, phys: PhysOp, children: Vec<Node>) -> Node {
    let schemas: Vec<_> = children.iter().map(|c| &c.plan.schema).collect();
    let schema = output_schema(&db.catalog, &op, &schemas).unwrap();
    let (trees, plans) = children.into_iter().map(|c| (c.tree, c.plan)).unzip();
    Node {
        tree: LogicalTree::new(op, trees),
        plan: PhysicalPlan {
            op: phys,
            children: plans,
            schema,
            est_rows: 1.0,
            est_cost: 1.0,
        },
    }
}

#[test]
fn join_rows_under_every_parent_match_the_golden_file() {
    let db = tpch_database(&TpchConfig::scaled(7, 4)).unwrap();
    let mut ids = IdGen::new();
    let scan = |name: &str, ids: &mut IdGen| {
        let def = db.catalog.table_by_name(name).unwrap();
        let cols = ids.fresh_n(def.columns.len());
        let table = def.id;
        node(
            &db,
            Operator::Get {
                table,
                cols: cols.clone(),
            },
            PhysOp::SeqScan { table, cols },
            vec![],
        )
    };
    // supplier(s_suppkey, s_name, s_nationkey, s_acctbal) ON s_nationkey =
    // c_nationkey AND s_acctbal < c_acctbal with customer(c_custkey, c_name,
    // c_nationkey, c_acctbal, c_mktsegment): both acctbal columns are
    // nullable, so every outer kind has unmatched rows on its preserved side.
    let (s, c) = (scan("supplier", &mut ids), scan("customer", &mut ids));
    let s_col = |i: usize| s.tree.output_col(i);
    let c_col = |i: usize| c.tree.output_col(i);
    let (s_key, s_name, s_nation, s_acct) = (s_col(0), s_col(1), s_col(2), s_col(3));
    let (c_key, c_name, c_nation, c_acct) = (c_col(0), c_col(1), c_col(2), c_col(3));
    let residual = Expr::bin(BinOp::Lt, Expr::col(s_acct), Expr::col(c_acct));
    let on = Expr::and(
        Expr::eq(Expr::col(s_nation), Expr::col(c_nation)),
        residual.clone(),
    );
    let fresh = ids.fresh();
    let join = |kind: JoinKind, algo: &str| {
        let phys = match algo {
            "NLJoin" => PhysOp::NLJoin {
                kind,
                predicate: on.clone(),
            },
            "HashJoin" => PhysOp::HashJoin {
                kind,
                left_keys: vec![s_nation],
                right_keys: vec![c_nation],
                residual: residual.clone(),
            },
            _ => PhysOp::MergeJoin {
                left_key: s_nation,
                right_key: c_nation,
                residual: residual.clone(),
            },
        };
        node(
            &db,
            Operator::Join {
                kind,
                predicate: on.clone(),
            },
            phys,
            vec![s.clone(), c.clone()],
        )
    };
    let count = |input: Node| {
        let aggs = vec![AggCall::new(AggFunc::CountStar, None, fresh)];
        node(
            &db,
            Operator::GbAgg {
                group_by: vec![],
                aggs: aggs.clone(),
            },
            PhysOp::HashAgg {
                group_by: vec![],
                aggs,
            },
            vec![input],
        )
    };
    let compute = |input: Node, col: ColId| {
        let outputs = vec![(fresh, Expr::col(col))];
        node(
            &db,
            Operator::Project {
                outputs: outputs.clone(),
            },
            PhysOp::Compute { outputs },
            vec![input],
        )
    };
    let filter = |input: Node, predicate: Expr| {
        node(
            &db,
            Operator::Select {
                predicate: predicate.clone(),
            },
            PhysOp::Filter { predicate },
            vec![input],
        )
    };

    let mut golden = Golden::default();
    let mut pin = |label: String, n: Node| {
        let expected = reference_eval(&db, &n.tree, &ExecConfig::default()).unwrap();
        golden.plan(&label, &db, &n.plan, Some(&expected));
    };
    let kinds = [
        JoinKind::Inner,
        JoinKind::LeftOuter,
        JoinKind::RightOuter,
        JoinKind::FullOuter,
        JoinKind::LeftSemi,
        JoinKind::LeftAnti,
    ];
    let mut joins: Vec<(JoinKind, &str)> = kinds
        .iter()
        .flat_map(|&k| [(k, "NLJoin"), (k, "HashJoin")])
        .collect();
    joins.push((JoinKind::Inner, "MergeJoin"));
    for (kind, algo) in joins {
        let at = |parent: &str| format!("{algo} {kind:?} under {parent}");
        pin(at("root"), join(kind, algo));
        pin(at("count(*)"), count(join(kind, algo)));
        pin(at("compute(left)"), compute(join(kind, algo), s_name));
        if kind.emits_both_sides() {
            pin(at("compute(right)"), compute(join(kind, algo), c_name));
            // A key column of the side this kind pads (never NULL in a
            // matched row).
            let padded = if kind == JoinKind::RightOuter {
                s_key
            } else {
                c_key
            };
            let padded = Expr::is_null(Expr::col(padded));
            pin(
                at("count(filter(padded is null))"),
                count(filter(join(kind, algo), padded)),
            );
        }
    }
    // Operators that read every column, under a parent that reads none or
    // one of them.
    let distinct = node(
        &db,
        Operator::Distinct,
        PhysOp::HashDistinct,
        vec![join(JoinKind::FullOuter, "HashJoin")],
    );
    pin(
        "HashDistinct FullOuter HashJoin under count(*)".into(),
        count(distinct),
    );
    let keys = vec![SortKey::desc(c_acct), SortKey::asc(s_name)];
    let top = node(
        &db,
        Operator::Top {
            n: 7,
            keys: keys.clone(),
        },
        PhysOp::TopN { n: 7, keys },
        vec![join(JoinKind::LeftOuter, "NLJoin")],
    );
    pin(
        "TopN LeftOuter NLJoin under compute(right)".into(),
        compute(top, c_name),
    );

    assert_matches_golden(&golden.text, LAYOUTS, "executor_layouts.txt");
}
