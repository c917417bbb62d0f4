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
//!
//! The digests deduplicate: a binding applied twice yields the same memo,
//! and one missed may be re-derived another way. `search_fires.txt`
//! therefore pins, over the same optimizations, how many rule applications
//! returned a substitute, per rule and phase (generated before ISSUE 19
//! changed how the explore loop decides what to apply). `binds` is left
//! out on purpose: it counts `bind()` calls, which a change may save.
//!
//! Neither file sees a substitute that the memo already holds from another
//! derivation. `select_substitutes.txt` pins, over the same optimizations,
//! what each select-family rule returns: per rule the number of
//! substitutes and a hash over every one, in application order (generated
//! before the select family moved into the rule IR). `explore_substitutes.txt`
//! pins the same for every other exploration rule (the join, aggregate and
//! misc families), written in the same pass (generated before expressions
//! carried their hash and column rewrites shared unchanged subtrees).
//!
//! A substitute the memo already holds leaves no new expression, but it
//! may still turn a stored one organic or share it into a second group,
//! and a plan need not show either. `search_memo.txt` pins, per query with
//! every rule enabled, the explored memo itself: its group and expression
//! counts and a hash over every group's expressions in position order,
//! each with its insertion stamp, organic flag and creator (generated
//! before the search probed the memo ahead of building a substitute).

use ruletest_core::{
    generate_suite_lenient, pair_targets, Framework, FrameworkConfig, GenConfig, RuleTarget,
    Strategy, TestSuite,
};
use ruletest_lint::audit::build_corpus;
use ruletest_logical::{IdGen, Schema};
use ruletest_optimizer::optimizer::phys_schema;
use ruletest_optimizer::rules::exploration_rules;
use ruletest_optimizer::{
    match_bindings, match_signatures, Fnv64, GroupId, Memo, Offers, OptimizeResult, Optimizer,
    OptimizerConfig, PhysicalPlan, Probed, RuleAction, RuleCtx,
};
use ruletest_telemetry::Telemetry;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

const GOLDEN: &str = include_str!("golden/search_digest.txt");
const GOLDEN_FIRES: &str = include_str!("golden/search_fires.txt");
const GOLDEN_SELECT: &str = include_str!("golden/select_substitutes.txt");
const GOLDEN_EXPLORE: &str = include_str!("golden/explore_substitutes.txt");
const GOLDEN_MEMO: &str = include_str!("golden/search_memo.txt");

/// The select family, in registration order.
const SELECT_FAMILY: [&str; 13] = [
    "SelectMerge",
    "SelectSplit",
    "SelectPushBelowInnerJoin",
    "SelectPushBelowOuterJoin",
    "SelectPushBelowSemiJoin",
    "SelectPushBelowProject",
    "SelectPullAboveProject",
    "SelectPushBelowUnionAll",
    "SelectPushBelowGbAgg",
    "SelectPushBelowSort",
    "SelectPushBelowDistinct",
    "SelectIntoInnerJoin",
    "OuterJoinSimplify",
];

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

/// An FNV hash over every group's expressions in position order: each
/// one's operator, input groups, insertion stamp, organic flag and
/// creating rule.
fn hash_memo(memo: &Memo) -> u64 {
    let mut h = Fnv64::new();
    for g in 0..memo.num_groups() {
        let group = memo.group(GroupId(g as u32));
        h.write_u64(group.exprs.len() as u64);
        for (i, expr) in group.exprs.iter().enumerate() {
            h.write_str(&format!("{:?} {:?}", expr.op, &*expr.children))
                .write_u64(u64::from(group.stamp[i]))
                .write_u64(u64::from(group.organic[i]))
                .write_u64(group.created_by[i].map_or(u64::MAX, |r| u64::from(r.0)));
        }
    }
    h.finish()
}

/// The golden suite and the targets generation dropped.
fn golden_suite(fw: &Framework) -> (TestSuite, Vec<RuleTarget>) {
    let cfg = GenConfig {
        seed: 0x5EA2C4,
        pad_ops: 1,
        ..Default::default()
    };
    let mut targets: Vec<RuleTarget> = fw
        .optimizer
        .exploration_rule_ids()
        .into_iter()
        .map(RuleTarget::Single)
        .collect();
    targets.extend(pair_targets(fw, 6));
    generate_suite_lenient(fw, targets, 2, Strategy::Pattern, &cfg).unwrap()
}

/// Optimizes every query of `suite` with all rules enabled and then once
/// per exercised rule with that rule disabled, handing each outcome to
/// `each` as `(query index, disabled rule's name or "-", result)`.
fn optimize_all(
    opt: &Optimizer,
    suite: &TestSuite,
    mut each: impl FnMut(usize, &str, &ruletest_common::Result<OptimizeResult>),
) {
    for (qi, q) in suite.queries.iter().enumerate() {
        let base = opt.optimize(&q.tree);
        each(qi, "-", &base);
        for rid in base.map(|r| r.rule_set).unwrap_or_default() {
            let masked = opt.optimize_with(&q.tree, &OptimizerConfig::disabling(&[rid]));
            each(qi, opt.rule(rid).name, &masked);
        }
    }
}

fn assert_matches_golden(actual: &str, golden: &str, file: &str) {
    if actual != golden {
        let first = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "actual differs from tests/golden/{file} \
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

#[test]
fn search_is_identical_to_the_golden_digests() {
    let fw = Framework::new(&FrameworkConfig::default()).unwrap();
    let opt = &fw.optimizer;
    let (suite, dropped) = golden_suite(&fw);

    let mut actual = String::new();
    for t in &dropped {
        actual.push_str(&format!("dropped {}\n", t.label(opt)));
    }
    optimize_all(opt, &suite, |qi, mask, res| {
        let sql = &suite.queries[qi].sql;
        actual.push_str(&format!("q{qi:03} {mask} {:016x}\n", digest(sql, res)));
    });
    assert_matches_golden(&actual, GOLDEN, "search_digest.txt");
}

/// The same optimizations on a second optimizer whose telemetry saw
/// nothing else (suite generation optimizes too): per rule and phase, the
/// number of applications that returned a substitute.
#[test]
fn rule_fires_are_identical_to_the_golden_counts() {
    let fw = Framework::new(&FrameworkConfig::default()).unwrap();
    let (suite, _) = golden_suite(&fw);
    let opt = Optimizer::new(fw.optimizer.database().clone());
    opt.attach_telemetry(Telemetry::metrics_only());
    let mut optimizations = 0usize;
    optimize_all(&opt, &suite, |_, _, _| optimizations += 1);

    // Both optimizers hold the one catalog, so `fw` names this one's rules.
    let mut actual = format!("optimizations {optimizations}\n");
    let mut binds = 0;
    for (rule, row) in &opt.telemetry().profile_section(&fw.rule_names()).rules {
        actual.push_str(&format!("{rule} {}\n", row.fires));
        binds += row.binds;
    }
    // Not pinned; `--nocapture` shows it for a before/after comparison.
    println!("binds over the golden optimizations: {binds}");
    assert_matches_golden(&actual, GOLDEN_FIRES, "search_fires.txt");
}

/// The same optimizations on an optimizer whose exploration rules log
/// what they return: per rule, the number of substitutes and an FNV hash
/// over each substitute's `Debug` text, in application order. The select
/// family goes to one file, every other exploration rule to a second.
#[test]
fn select_substitutes_are_identical_to_the_golden_hashes() {
    let fw = Framework::new(&FrameworkConfig::default()).unwrap();
    let (suite, _) = golden_suite(&fw);
    let log: Arc<Mutex<BTreeMap<&str, (u64, Fnv64)>>> = Arc::default();
    let rules = exploration_rules();
    let names: Vec<&str> = rules.iter().map(|r| r.name).collect();
    let overrides = rules
        .into_iter()
        .map(|rule| {
            let (name, log) = (rule.name, Arc::clone(&log));
            rule.wrap_explore(move |_, substitutes| {
                let mut log = log.lock().unwrap();
                let (n, h) = log.entry(name).or_default();
                for s in &substitutes {
                    *n += 1;
                    h.write_str(&format!("{s:?}"));
                }
                substitutes
            })
        })
        .collect();
    let opt = Optimizer::new_with_overrides(fw.optimizer.database().clone(), overrides);
    let mut optimizations = 0usize;
    optimize_all(&opt, &suite, |_, _, _| optimizations += 1);

    let log = log.lock().unwrap();
    let header = format!("optimizations {optimizations}\n");
    let (mut select, mut explore) = (header.clone(), header);
    for name in names {
        let (n, h) = log.get(name).cloned().unwrap_or_default();
        let out = if SELECT_FAMILY.contains(&name) {
            &mut select
        } else {
            &mut explore
        };
        out.push_str(&format!("{name} {n} {:016x}\n", h.finish()));
    }
    assert_matches_golden(&select, GOLDEN_SELECT, "select_substitutes.txt");
    assert_matches_golden(&explore, GOLDEN_EXPLORE, "explore_substitutes.txt");
}

/// Every golden query explored with all rules enabled: per query the
/// memo's group and expression counts and [`hash_memo`].
#[test]
fn explored_memos_are_identical_to_the_golden_hashes() {
    let fw = Framework::new(&FrameworkConfig::default()).unwrap();
    let (suite, _) = golden_suite(&fw);
    let config = OptimizerConfig::default();
    let mut actual = String::new();
    for (qi, q) in suite.queries.iter().enumerate() {
        let line = match fw.optimizer.explore(&q.tree, &config) {
            Ok(search) => {
                let memo = &search.memo;
                let (groups, exprs) = (memo.num_groups(), memo.num_exprs());
                format!("{groups} {exprs} {:016x}", hash_memo(memo))
            }
            Err(e) => format!("error: {e}"),
        };
        actual.push_str(&format!("q{qi:03} {line}\n"));
    }
    assert_matches_golden(&actual, GOLDEN_MEMO, "search_memo.txt");
}

/// Same column ids and types, in any order (the memo's `same_shape`).
fn same_shape(a: &Schema, b: &Schema) -> bool {
    a.len() == b.len()
        && a.iter()
            .all(|x| b.iter().any(|y| x.id == y.id && x.data_type == y.data_type))
}

/// Extraction derives physical schemas only for the plan it returns, so a
/// broken implementation rule's candidate would go unnoticed until it won.
/// Over the golden memos, every candidate's schema derives over its input
/// groups' schemas and has its group's columns.
#[test]
fn implementation_candidates_have_their_groups_schema() {
    let fw = Framework::new(&FrameworkConfig::default()).unwrap();
    let (suite, _) = golden_suite(&fw);
    let opt = &fw.optimizer;
    let db = opt.database();
    let config = OptimizerConfig::default();
    let mut checked = 0;
    for q in &suite.queries {
        let Ok(search) = opt.explore(&q.tree, &config) else {
            continue;
        };
        let memo = &search.memo;
        let ids = RefCell::new(IdGen::above(&q.tree));
        let ctx = RuleCtx {
            db,
            memo,
            ids: &ids,
        };
        for g in (0..memo.num_groups()).map(|g| GroupId(g as u32)) {
            for ei in 0..memo.group(g).exprs.len() {
                for rid in opt.implementation_rule_ids() {
                    let rule = opt.rule(rid);
                    let RuleAction::Implement(implement) = &rule.action else {
                        unreachable!("{} implements", rule.name);
                    };
                    for bound in match_bindings(memo, &rule.pattern, g, ei) {
                        for cand in implement(&ctx, &bound) {
                            let inputs: Vec<&Schema> =
                                cand.children.iter().map(|&c| memo.schema(c)).collect();
                            let schema = phys_schema(db, &cand.op, &inputs)
                                .unwrap_or_else(|e| panic!("{} in {g}: {e}", rule.name));
                            assert!(
                                same_shape(&schema, memo.schema(g)),
                                "{} in {g}: {:?}",
                                rule.name,
                                cand.op
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(checked > 10_000, "{checked} candidates");
}

/// The search's probing sink against the building one: every IR rule over
/// every binding of its lint corpus, in two rounds (the second applies the
/// rule again to every expression the first left, so it offers
/// duplicates). A memo takes each substitute through `Rewrite::probe` and
/// `Memo::offer`, a copy through `Rewrite::apply` and
/// `Memo::insert_created_by`. Each substitute lands in the same group with
/// the same freshness, the memos stay equal, and the probe finds a
/// substitute without building it exactly when the memo held all of it
/// before the binding was applied.
#[test]
fn the_probing_sink_agrees_with_the_building_sink() {
    let opt = Optimizer::new(
        ruletest_storage::tpch_database(&Default::default())
            .unwrap()
            .into(),
    );
    let db = opt.database();
    let (mut offered, mut found) = (0, 0);
    for rid in opt.exploration_rule_ids() {
        let rule = opt.rule(rid);
        let RuleAction::Rewrite(rewrite) = &rule.action else {
            continue;
        };
        for ct in build_corpus(db, rule).unwrap() {
            let (mut built, mut probed) = (ct.memo.clone(), ct.memo.clone());
            let (ids_b, ids_p) = (
                RefCell::new(IdGen::above(&ct.tree)),
                RefCell::new(IdGen::above(&ct.tree)),
            );
            for _round in 0..2 {
                let exprs: Vec<(GroupId, usize)> = (0..built.num_groups() as u32)
                    .flat_map(|g| {
                        (0..built.group(GroupId(g)).exprs.len()).map(move |e| (GroupId(g), e))
                    })
                    .collect();
                for (gid, ei) in exprs {
                    // As the explore loop: a minting rule's substitutes
                    // are never organic.
                    let organic = !rule.mints_fresh_ids && built.is_organic(gid, ei);
                    // Bindings read off a copy: the memo grows as they are
                    // applied, and an expression once added never changes.
                    let snapshot = built.clone();
                    let bounds = match_bindings(&snapshot, &rule.pattern, gid, ei);
                    let sigs = match_signatures(&snapshot, &rule.pattern, gid, ei);
                    assert_eq!(bounds.len(), sigs.len());
                    for (bound, sig) in bounds.iter().zip(&sigs) {
                        let before = built.clone();
                        let ctx = RuleCtx {
                            db,
                            memo: &built,
                            ids: &ids_b,
                        };
                        let trees = rewrite.apply(&ctx, bound);
                        let mut offers = Offers::default();
                        let ctx = RuleCtx {
                            db,
                            memo: &probed,
                            ids: &ids_p,
                        };
                        rewrite.probe(&ctx, &rule.pattern, sig, &mut offers);
                        assert_eq!(trees.len(), offers.roots.len(), "{}", rule.name);
                        for (tree, root) in trees.iter().zip(&offers.roots) {
                            // Held whole: a copy of the memo as it was takes
                            // the substitute as a new group's and adds
                            // nothing.
                            let mut copy = before.clone();
                            let held = !copy.insert(db, tree.clone(), None, false).unwrap().1;
                            let is_found = matches!(root, Probed::Found(..));
                            assert_eq!(held, is_found, "{}: {tree:?}", rule.name);
                            found += usize::from(is_found);
                            offered += 1;
                        }
                        if organic {
                            probed.upgrade(&offers.below);
                        }
                        for (tree, root) in trees.into_iter().zip(offers.roots) {
                            let by_build =
                                built.insert_created_by(db, tree, Some(gid), organic, Some(rid));
                            let by_probe = probed.offer(db, root, gid, organic, rid);
                            assert_eq!(
                                format!("{by_build:?}"),
                                format!("{by_probe:?}"),
                                "{}",
                                rule.name
                            );
                        }
                        assert_eq!(hash_memo(&built), hash_memo(&probed), "{}", rule.name);
                    }
                }
            }
        }
    }
    println!("{offered} substitutes offered, {found} found without building");
    assert!(found > 0 && offered > found, "{found} of {offered}");
}
