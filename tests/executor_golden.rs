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

use ruletest_common::{diff_multisets, Error, Fnv64, Row, Value};
use ruletest_core::{
    generate_suite_lenient, Framework, FrameworkConfig, GenConfig, RuleTarget, Strategy,
};
use ruletest_executor::{execute_with, reference_eval, ExecConfig};
use ruletest_logical::LogicalTree;
use ruletest_optimizer::{Optimizer, OptimizerConfig, PhysicalPlan};
use ruletest_sql::parse_sql;
use ruletest_storage::{tpch_database, Database, TpchConfig};
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/executor_digest.txt");
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

    let actual = golden.text;
    if actual != GOLDEN {
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "executor digests differ from tests/golden/executor_digest.txt \
             ({} actual vs {} golden lines, first difference at line {}):\n\
             actual: {:?}\ngolden: {:?}\n--- actual ---\n{actual}",
            actual.lines().count(),
            GOLDEN.lines().count(),
            first + 1,
            actual.lines().nth(first),
            GOLDEN.lines().nth(first),
        );
    }
}
