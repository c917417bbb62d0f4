//! The BASELINE method (§2.3): every target executes exactly the k queries
//! that were generated for it — no sharing, no cost-based choice.

use super::{Instance, Solution};
use ruletest_common::Result;

/// Assigns each target its dedicated queries; a target with fewer than k
/// fails [`Solution::validate`].
pub fn baseline(inst: &Instance) -> Result<Solution> {
    let mut assignment = vec![Vec::new(); inst.num_targets()];
    for (q, &t) in inst.generated_for.iter().enumerate() {
        if t < assignment.len() && assignment[t].len() < inst.k {
            assignment[t].push(q);
        }
    }
    let sol = Solution { assignment };
    sol.validate(inst)?;
    Ok(sol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::example_1;

    #[test]
    fn baseline_uses_dedicated_queries() {
        let inst = example_1();
        let sol = baseline(&inst).unwrap();
        assert_eq!(sol.assignment, vec![vec![0], vec![1]]);
        assert_eq!(sol.total_cost(&inst), 500.0);
    }

    #[test]
    fn baseline_fails_without_enough_dedicated_queries() {
        let mut inst = example_1();
        inst.k = 2;
        assert!(baseline(&inst).is_err());
    }
}
