//! The §7 "relevance" variant of query generation: find a query for which a
//! rule is not merely *exercised* but *relevant* — disabling it changes the
//! optimizer's final plan choice.

use crate::framework::Framework;
use crate::generate::{GenConfig, GenOutcome, Strategy};
use ruletest_common::{Error, Result, RuleId};
use ruletest_optimizer::OptimizerConfig;

/// Generates a query for which `rule` is relevant: `Plan(q)` differs from
/// `Plan(q, ¬{rule})`. Returns the query plus the number of exercising
/// queries that had to be discarded because the rule did not influence the
/// plan.
pub fn find_relevant_query(
    fw: &Framework,
    rule: RuleId,
    strategy: Strategy,
    cfg: &GenConfig,
) -> Result<(GenOutcome, usize)> {
    let mut discarded = 0usize;
    let mut trials_used = 0usize;
    let mut seed = cfg.seed;
    while trials_used < cfg.max_trials {
        let sub_cfg = GenConfig {
            seed,
            max_trials: cfg.max_trials - trials_used,
            ..cfg.clone()
        };
        let mut out = fw.find_query_for_rule(rule, strategy, &sub_cfg)?;
        trials_used += out.trials;
        let base = fw.optimizer.optimize_cached(&out.query)?;
        let masked = fw
            .optimizer
            .optimize_with(&out.query, &OptimizerConfig::disabling(&[rule]))?;
        if !base.plan.same_shape(&masked.plan) {
            out.trials = trials_used;
            return Ok((out, discarded));
        }
        discarded += 1;
        seed = seed.wrapping_add(0x9E37_79B9);
    }
    Err(Error::unsupported(format!(
        "no query where {} is relevant found in {} trials",
        fw.optimizer.rule(rule).name,
        cfg.max_trials
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FrameworkConfig;

    #[test]
    fn finds_a_query_where_hash_join_rule_changes_the_plan() {
        let fw = Framework::new(&FrameworkConfig::default()).unwrap();
        // Disabling the hash-join implementation almost always changes the
        // plan of any join query.
        let rule = fw.optimizer.rule_id("JoinToHashJoin").unwrap();
        let (out, _) =
            find_relevant_query(&fw, rule, Strategy::Pattern, &GenConfig::default()).unwrap();
        let base = fw.optimizer.optimize(&out.query).unwrap();
        let masked = fw
            .optimizer
            .optimize_with(&out.query, &OptimizerConfig::disabling(&[rule]))
            .unwrap();
        assert!(!base.plan.same_shape(&masked.plan));
    }

    #[test]
    fn relevance_is_stricter_than_exercise() {
        let fw = Framework::new(&FrameworkConfig::default()).unwrap();
        // Join commutativity is exercised by every join query but often
        // does not change the final plan; the finder may discard a few.
        let rule = fw.optimizer.rule_id("InnerJoinCommute").unwrap();
        let cfg = GenConfig {
            max_trials: 300,
            ..GenConfig::default()
        };
        match find_relevant_query(&fw, rule, Strategy::Pattern, &cfg) {
            Ok((out, _discarded)) => {
                let base = fw.optimizer.optimize(&out.query).unwrap();
                let masked = fw
                    .optimizer
                    .optimize_with(&out.query, &OptimizerConfig::disabling(&[rule]))
                    .unwrap();
                assert!(!base.plan.same_shape(&masked.plan));
            }
            Err(e) => panic!("expected to find a relevant query: {e}"),
        }
    }
}
