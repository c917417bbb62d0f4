//! Search-equivalence golden: the optimizer's search — visiting order,
//! bindings, substitutes, group and expression numbering, extraction — is
//! pinned by one digest line per (query, rule mask) in
//! `tests/golden/search_digest.txt`.
//!
//! The file was generated from the code *before* the memo/binder/extractor
//! data structures were reworked (ISSUE 12) and is the contract that the
//! rework performs exactly the same search. There is deliberately no
//! regeneration switch: a change that is *meant* to alter the search
//! regenerates the file by checking out its parent commit and copying the
//! `actual` text this test prints on mismatch.

use ruletest_core::{
    generate_suite_lenient, pair_targets, Framework, FrameworkConfig, GenConfig, RuleTarget,
    Strategy,
};
use ruletest_optimizer::{Fnv64, OptimizeResult, OptimizerConfig, PhysicalPlan};

const GOLDEN: &str = include_str!("golden/search_digest.txt");

fn hash_plan(h: &mut Fnv64, plan: &PhysicalPlan) {
    h.write_str(&format!("{:?}", plan.op))
        .write_str(&format!("{:?}", plan.schema))
        .write_u64(plan.est_rows.to_bits())
        .write_u64(plan.est_cost.to_bits())
        .write_u64(plan.children.len() as u64);
    for c in &plan.children {
        hash_plan(h, c);
    }
}

fn digest(sql: &str, res: &ruletest_common::Result<OptimizeResult>) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(sql);
    match res {
        Err(e) => {
            h.write_str(&format!("error: {e}"));
        }
        Ok(r) => {
            hash_plan(&mut h, &r.plan);
            h.write_u64(r.cost.to_bits());
            h.write_u64(r.rule_set.len() as u64);
            for rid in &r.rule_set {
                h.write_u64(u64::from(rid.0));
            }
            h.write_u64(r.rule_dependencies.len() as u64);
            for (a, b) in &r.rule_dependencies {
                h.write_u64(u64::from(a.0)).write_u64(u64::from(b.0));
            }
            h.write_u64(r.groups as u64)
                .write_u64(r.exprs as u64)
                .write_u64(u64::from(r.truncated));
        }
    }
    h.finish()
}

#[test]
fn search_is_identical_to_the_golden_digests() {
    let fw = Framework::new(&FrameworkConfig::default()).unwrap();
    let opt = &fw.optimizer;
    let cfg = GenConfig {
        seed: 0x5EA2C4,
        pad_ops: 1,
        ..Default::default()
    };
    let mut targets: Vec<RuleTarget> = opt
        .exploration_rule_ids()
        .into_iter()
        .map(RuleTarget::Single)
        .collect();
    targets.extend(pair_targets(&fw, 6));
    let (suite, dropped) =
        generate_suite_lenient(&fw, targets, 2, Strategy::Pattern, &cfg).unwrap();

    let mut actual = String::new();
    for t in &dropped {
        actual.push_str(&format!("dropped {}\n", t.label(opt)));
    }
    for (qi, q) in suite.queries.iter().enumerate() {
        let base = opt.optimize(&q.tree);
        actual.push_str(&format!("q{qi:03} - {:016x}\n", digest(&q.sql, &base)));
        let rule_set = base.map(|r| r.rule_set).unwrap_or_default();
        for rid in rule_set {
            let masked = opt.optimize_with(&q.tree, &OptimizerConfig::disabling(&[rid]));
            actual.push_str(&format!(
                "q{qi:03} {} {:016x}\n",
                opt.rule(rid).name,
                digest(&q.sql, &masked)
            ));
        }
    }

    if actual != GOLDEN {
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "search digests differ from tests/golden/search_digest.txt \
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
