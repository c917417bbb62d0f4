//! The §7 rule-*dependency* interaction: "a rule r2 is exercised on an
//! expression which was obtained as a result of exercising rule r1" —
//! stricter than co-occurrence in `RuleSet(q)`. The optimizer records
//! creator rules per memo expression, so dependencies are observed rather
//! than inferred.

use crate::framework::Framework;
use crate::generate::{find_until, GenConfig, GenOutcome, Strategy};
use ruletest_common::{Result, RuleId};

/// Generates a query in whose optimization `r2` fires on an expression
/// created by `r1`. Returns the query plus the number of co-occurring
/// (but dependency-free) queries discarded along the way.
pub fn find_dependency_query(
    fw: &Framework,
    r1: RuleId,
    r2: RuleId,
    strategy: Strategy,
    cfg: &GenConfig,
) -> Result<(GenOutcome, usize)> {
    find_until(
        cfg,
        |cfg| fw.find_query_for_pair((r1, r2), strategy, cfg),
        |out| {
            let res = fw.optimizer.optimize_cached(&out.query)?;
            Ok(res.rule_dependencies.contains(&(r1, r2)))
        },
        || {
            let name = |r| fw.optimizer.rule(r).name;
            format!("{} feeds {}", name(r1), name(r2))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FrameworkConfig;
    use ruletest_expr::Expr;
    use ruletest_logical::{IdGen, JoinKind, LogicalTree};

    /// The paper's §3 example, verbatim: `R JOIN (S LOJ T)` — the
    /// Join/LOJ associativity rule produces `(R JOIN S)`, on which join
    /// commutativity then fires. The dependency must be observed.
    #[test]
    fn papers_example_dependency_is_observed() {
        let fw = Framework::new(&FrameworkConfig::default()).unwrap();
        let cat = &fw.db.catalog;
        let mut ids = IdGen::new();
        let r = LogicalTree::get(cat.table_by_name("supplier").unwrap(), &mut ids);
        let s = LogicalTree::get(cat.table_by_name("nation").unwrap(), &mut ids);
        let t = LogicalTree::get(cat.table_by_name("region").unwrap(), &mut ids);
        let (r_nat, s_key, s_reg, t_key) = (
            r.output_col(2),
            s.output_col(0),
            s.output_col(2),
            t.output_col(0),
        );
        let loj = LogicalTree::join(
            JoinKind::LeftOuter,
            s,
            t,
            Expr::eq(Expr::col(s_reg), Expr::col(t_key)),
        );
        let query = LogicalTree::join(
            JoinKind::Inner,
            r,
            loj,
            Expr::eq(Expr::col(r_nat), Expr::col(s_key)),
        );
        let res = fw.optimizer.optimize(&query).unwrap();
        let assoc = fw.optimizer.rule_id("JoinLojAssoc").unwrap();
        let commute = fw.optimizer.rule_id("InnerJoinCommute").unwrap();
        assert!(
            res.rule_dependencies.contains(&(assoc, commute)),
            "expected (JoinLojAssoc -> InnerJoinCommute) in {:?}",
            res.rule_dependencies
                .iter()
                .map(|(a, b)| format!(
                    "{}->{}",
                    fw.optimizer.rule(*a).name,
                    fw.optimizer.rule(*b).name
                ))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn dependency_finder_returns_a_witness() {
        let fw = Framework::new(&FrameworkConfig::default()).unwrap();
        let assoc = fw.optimizer.rule_id("JoinLojAssoc").unwrap();
        let commute = fw.optimizer.rule_id("InnerJoinCommute").unwrap();
        let (out, _discarded) = find_dependency_query(
            &fw,
            assoc,
            commute,
            Strategy::Pattern,
            &GenConfig {
                max_trials: 400,
                ..Default::default()
            },
        )
        .unwrap();
        let res = fw.optimizer.optimize(&out.query).unwrap();
        assert!(res.rule_dependencies.contains(&(assoc, commute)));
    }

    #[test]
    fn seed_expressions_carry_no_creator() {
        let fw = Framework::new(&FrameworkConfig::default()).unwrap();
        let cat = &fw.db.catalog;
        let mut ids = IdGen::new();
        let t = LogicalTree::get(cat.table_by_name("region").unwrap(), &mut ids);
        let res = fw.optimizer.optimize(&t).unwrap();
        // A bare scan exercises no exploration rule, so no dependencies.
        assert!(res.rule_dependencies.is_empty());
    }
}
