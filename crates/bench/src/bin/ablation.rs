//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **Pair composition schemes** (§3.2): individual patterns only vs.
//!    root composition only vs. substitution only vs. the full candidate
//!    set — measured in trials to find a pair-exercising query.
//! 2. **Pattern padding**: trials and resulting query size as the §2.3
//!    operator-count constraint grows.
//!
//! Run with: `cargo run --release -p ruletest-bench --bin ablation`

use ruletest_bench::FigureTable;
use ruletest_common::Rng;
use ruletest_core::generate::pairs::compose_patterns;
use ruletest_core::generate::pattern::{instantiate_pattern, pad_above};
use ruletest_core::{Framework, FrameworkConfig, GenConfig, Strategy};
use ruletest_logical::IdGen;
use ruletest_optimizer::PatternTree;

/// Trial loop over an explicit candidate list (mirrors the framework's
/// PATTERN loop so schemes can be ablated independently).
fn trials_with_candidates(
    fw: &Framework,
    targets: &[ruletest_common::RuleId],
    candidates: &[PatternTree],
    seed: u64,
    cap: usize,
) -> Option<usize> {
    if candidates.is_empty() {
        return None;
    }
    let mut rng = Rng::new(seed);
    for trial in 1..=cap {
        let mut ids = IdGen::new();
        let pattern = &candidates[(trial - 1) % candidates.len()];
        let Some(built) = instantiate_pattern(&fw.db, &mut rng, &mut ids, pattern) else {
            continue;
        };
        let Ok(res) = fw.optimizer.optimize(&built.tree) else {
            continue;
        };
        if targets.iter().all(|t| res.rule_set.contains(t)) {
            return Some(trial);
        }
    }
    None
}

fn composition_ablation(fw: &Framework) -> FigureTable {
    let rules = fw.optimizer.exploration_rule_ids();
    let mut pairs = Vec::new();
    for i in 0..12usize {
        for j in (i + 1)..12 {
            pairs.push((rules[i], rules[j]));
        }
    }
    const CAP: usize = 150;
    let mut t = FigureTable::new(
        "Ablation: pair-composition candidate schemes (total trials, 66 pairs, capped at 150)",
        &["scheme", "total trials", "pairs found", "pairs capped"],
    );
    type Scheme = Box<dyn Fn(&PatternTree, &PatternTree) -> Vec<PatternTree>>;
    let schemes: Vec<(&str, Scheme)> = vec![
        ("singles only", Box::new(|a, b| vec![a.clone(), b.clone()])),
        (
            "root composition only",
            Box::new(|a, b| {
                vec![
                    PatternTree::join(
                        vec![ruletest_logical::JoinKind::Inner],
                        a.clone(),
                        b.clone(),
                    ),
                    PatternTree::kind(
                        ruletest_logical::OpKind::UnionAll,
                        vec![a.clone(), b.clone()],
                    ),
                ]
            }),
        ),
        (
            "substitution only",
            Box::new(|a, b| {
                let mut out = Vec::new();
                for path in a.placeholder_paths() {
                    out.push(ruletest_core::generate::pairs::substitute_at(a, &path, b));
                }
                for path in b.placeholder_paths() {
                    out.push(ruletest_core::generate::pairs::substitute_at(b, &path, a));
                }
                out
            }),
        ),
        (
            "full (singles + composites)",
            Box::new(|a, b| {
                let mut out = vec![a.clone(), b.clone()];
                out.extend(compose_patterns(a, b));
                out
            }),
        ),
    ];
    for (name, scheme) in schemes {
        let mut total = 0usize;
        let mut found = 0usize;
        let mut capped = 0usize;
        for (pi, (a, b)) in pairs.iter().enumerate() {
            let candidates = scheme(fw.optimizer.rule_pattern(*a), fw.optimizer.rule_pattern(*b));
            match trials_with_candidates(fw, &[*a, *b], &candidates, 0xAB7 + pi as u64, CAP) {
                Some(n) => {
                    total += n;
                    found += 1;
                }
                None => {
                    total += CAP;
                    capped += 1;
                }
            }
        }
        t.row(vec![
            name.to_string(),
            total.to_string(),
            found.to_string(),
            capped.to_string(),
        ]);
    }
    t.note("the paper's §3.2 composition plus the rule-dependency shortcut (singles first) should dominate");
    t
}

fn padding_ablation(fw: &Framework) -> FigureTable {
    let rule = fw
        .optimizer
        .rule_id("EagerGbAggPushBelowJoinLeft")
        .expect("EagerGbAggPushBelowJoinLeft is in the standard catalog");
    let mut t = FigureTable::new(
        "Ablation: operator-count padding of pattern queries (§2.3 constraint)",
        &[
            "pad ops",
            "avg trials",
            "avg query ops",
            "avg optimize exprs",
        ],
    );
    for pad in [0usize, 2, 4, 6, 8] {
        let mut trials = 0usize;
        let mut ops = 0usize;
        let mut exprs = 0usize;
        const N: usize = 20;
        for i in 0..N {
            let cfg = GenConfig {
                seed: 0x9AD + i as u64,
                pad_ops: pad,
                max_trials: 100,
                ..Default::default()
            };
            let Ok(out) = fw.find_query_for_rule(rule, Strategy::Pattern, &cfg) else {
                continue;
            };
            trials += out.trials;
            ops += out.ops;
            exprs += fw
                .optimizer
                .optimize(&out.query)
                .map(|r| r.exprs)
                .unwrap_or(0);
        }
        t.row(vec![
            pad.to_string(),
            format!("{:.1}", trials as f64 / 20.0),
            format!("{:.1}", ops as f64 / 20.0),
            format!("{:.0}", exprs as f64 / 20.0),
        ]);
    }
    t.note("padding buys complex correctness-suite queries at a modest trial cost");
    t
}

fn pad_demo(fw: &Framework) {
    // Exercise pad_above directly so the public helper stays covered.
    let rule = fw
        .optimizer
        .rule_id("SelectMerge")
        .expect("SelectMerge is in the standard catalog");
    let mut rng = Rng::new(7);
    let mut ids = IdGen::new();
    let built = instantiate_pattern(&fw.db, &mut rng, &mut ids, fw.optimizer.rule_pattern(rule))
        .expect("instantiation");
    let padded = pad_above(&fw.db, &mut rng, &mut ids, built, 4);
    println!(
        "(pad_above demo: {}-operator query built around SelectMerge)\n",
        padded.tree.op_count()
    );
}

fn main() {
    let fw = Framework::new(&FrameworkConfig::default()).expect("framework");
    pad_demo(&fw);
    println!("{}", composition_ablation(&fw).render());
    println!("{}", padding_ablation(&fw).render());
}
