//! The §7 "relevance" variant of query generation: find a query for which a
//! rule is not merely *exercised* but *relevant* — disabling it changes the
//! optimizer's final plan choice.

use crate::framework::Framework;
use crate::generate::{find_until, GenConfig, GenOutcome, Strategy};
use ruletest_common::{Result, RuleId};
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
    let masked = OptimizerConfig::disabling(&[rule]);
    find_until(
        cfg,
        |cfg| fw.find_query_for_rule(rule, strategy, cfg),
        |out| {
            let base = fw.optimizer.optimize_cached(&out.query)?;
            let masked = fw.optimizer.optimize_with_cached(&out.query, &masked)?;
            Ok(!base.plan.same_shape(&masked.plan))
        },
        || format!("{} is relevant", fw.optimizer.rule(rule).name),
    )
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
