//! Pins the two §7 finders, `find_relevant_query` and
//! `find_dependency_query`, against `tests/golden/finders.txt`: for a fixed
//! set of rules and rule pairs, at the CLI's defaults (`--seed 42 --trials
//! 500`, PATTERN), the SQL each returns with its trials and discards, or
//! the error it ends with. The cases cover a first-trial hit, hits after
//! discards, searches that run out of trials after discards (the error
//! names the whole budget, whichever attempt spent its last trial), and
//! an error raised by the check itself. There is deliberately no
//! regeneration switch: a change meant to move a finder copies the
//! `actual` text this test prints on mismatch.

use ruletest_core::generate::dependency::find_dependency_query;
use ruletest_core::generate::relevant::find_relevant_query;
use ruletest_core::{Framework, FrameworkConfig, GenConfig, GenOutcome, Strategy};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/finders.txt");

const RELEVANT: [&str; 6] = [
    "JoinToHashJoin",
    "InnerJoinCommute",
    "InnerJoinAssocLeft",
    "LojCommute",
    "UnionAllCommute",
    "JoinToNestedLoops",
];

const DEPENDENCY: [(&str, &str); 5] = [
    ("JoinLojAssoc", "InnerJoinCommute"),
    ("SelectMerge", "SelectPushBelowInnerJoin"),
    ("LojCommute", "JoinLojAssoc"),
    ("SelectMerge", "TopTopCollapse"),
    ("InnerJoinCommute", "JoinToHashJoin"),
];

fn record(out: &mut String, case: &str, found: ruletest_common::Result<(GenOutcome, usize)>) {
    match found {
        Ok((gen, discarded)) => writeln!(
            out,
            "{case}: trials={} discarded={discarded}\n  {}",
            gen.trials, gen.sql
        ),
        Err(e) => writeln!(out, "{case}: error {e}"),
    }
    .unwrap();
}

#[test]
fn finders_match_the_golden() {
    let fw = Framework::new(&FrameworkConfig::default()).unwrap();
    let cfg = GenConfig::default();
    let rule = |name: &str| fw.optimizer.rule_id(name).unwrap();
    let mut actual = String::new();
    for name in RELEVANT {
        let found = find_relevant_query(&fw, rule(name), Strategy::Pattern, &cfg);
        record(&mut actual, &format!("relevant {name}"), found);
    }
    for (a, b) in DEPENDENCY {
        let found = find_dependency_query(&fw, rule(a), rule(b), Strategy::Pattern, &cfg);
        record(&mut actual, &format!("dependency {a} {b}"), found);
    }
    assert!(
        actual == GOLDEN,
        "actual differs from tests/golden/finders.txt\n--- actual ---\n{actual}"
    );
}
