//! The TopKIndependent algorithm (Figure 6, §5.2): for every target,
//! independently pick the k queries with the cheapest *edge* costs. Ignores
//! the sharing benefit of node costs, but is a factor-2 approximation of
//! the optimum (proved in §5.2 from `Cost(q) <= Cost(q, ¬R)`), which is why
//! it is robust where the SetMultiCover greedy degrades.

use super::{Instance, Solution};
use ruletest_common::{Error, Result};

/// Runs TopKIndependent; a target with fewer than k covering queries
/// fails [`Solution::validate`].
pub fn topk(inst: &Instance) -> Result<Solution> {
    let mut assignment = Vec::with_capacity(inst.num_targets());
    for (t, adj) in inst.adjacency.iter().enumerate() {
        let mut by_edge: Vec<usize> = adj.clone();
        // NaN-safe: a poisoned edge cost sorts last (after +inf) and is
        // then rejected by the materialized-edge check below.
        by_edge.sort_by(|&a, &b| inst.edge(t, a).total_cmp(&inst.edge(t, b)).then(a.cmp(&b)));
        by_edge.truncate(inst.k);
        if by_edge.iter().any(|&q| !inst.edge(t, q).is_finite()) {
            return Err(Error::invalid(format!(
                "target {t}: fewer than k materialized edges (pruned graph too aggressive?)"
            )));
        }
        assignment.push(by_edge);
    }
    let sol = Solution { assignment };
    sol.validate(inst)?;
    Ok(sol)
}

/// The §5.2 bounds: `MinCost <= OPT <= solution <= MaxCost <= 2·MinCost`.
/// Returns (lower bound, the solution's upper-bound expression) for
/// diagnostics and tests.
pub fn bounds(inst: &Instance, sol: &Solution) -> (f64, f64) {
    let mut min_cost = 0.0;
    let mut max_cost = 0.0;
    for (t, qs) in sol.assignment.iter().enumerate() {
        for &q in qs {
            let e = inst.edge(t, q);
            min_cost += e;
            max_cost += e + inst.node_cost[q];
        }
    }
    (min_cost, max_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::example_1;
    use std::collections::HashMap;

    #[test]
    fn topk_finds_the_optimal_solution_on_example_1() {
        // Both rules' cheapest edge is q2 (120 < 180), so TopKIndependent
        // also lands on the 340-cost solution.
        let inst = example_1();
        let sol = topk(&inst).unwrap();
        assert_eq!(sol.assignment, vec![vec![1], vec![1]]);
        assert_eq!(sol.total_cost(&inst), 340.0);
    }

    #[test]
    fn topk_avoids_catastrophic_edges() {
        // The instance where SMC fails: TOPK picks the dedicated queries
        // with cheap edges.
        let inst = Instance {
            k: 1,
            node_cost: vec![10.0, 11.0, 11.0],
            adjacency: vec![vec![0, 1], vec![0, 2]],
            edge_cost: HashMap::from([
                ((0, 0), 10_000.0),
                ((1, 0), 10_000.0),
                ((0, 1), 12.0),
                ((1, 2), 12.0),
            ]),
            generated_for: vec![0, 0, 1],
        };
        let sol = topk(&inst).unwrap();
        assert_eq!(sol.assignment, vec![vec![1], vec![2]]);
        assert!(sol.total_cost(&inst) < 100.0);
    }

    #[test]
    fn factor_two_bound_holds_by_construction() {
        let inst = example_1();
        let sol = topk(&inst).unwrap();
        let (lo, hi) = bounds(&inst, &sol);
        let actual = sol.total_cost(&inst);
        assert!(lo <= actual + 1e-9);
        assert!(actual <= hi + 1e-9);
        assert!(
            hi <= 2.0 * lo + 1e-9,
            "Cost(q) <= Cost(q,¬R) gives hi <= 2·lo"
        );
    }

    #[test]
    fn topk_needs_k_coverers() {
        let inst = Instance {
            k: 3,
            node_cost: vec![1.0, 1.0],
            adjacency: vec![vec![0, 1]],
            edge_cost: HashMap::from([((0, 0), 1.0), ((0, 1), 1.0)]),
            generated_for: vec![0, 0],
        };
        assert!(topk(&inst).is_err());
    }

    #[test]
    fn nan_edge_cost_is_a_clean_error_not_a_panic() {
        // Regression: the edge sort used `partial_cmp().expect(..)`.
        let inst = Instance {
            k: 2,
            node_cost: vec![1.0, 1.0],
            adjacency: vec![vec![0, 1]],
            edge_cost: HashMap::from([((0, 0), 1.0), ((0, 1), f64::NAN)]),
            generated_for: vec![0, 0],
        };
        assert!(topk(&inst).is_err());
    }

    #[test]
    fn ties_break_deterministically() {
        let inst = Instance {
            k: 1,
            node_cost: vec![5.0, 5.0],
            adjacency: vec![vec![1, 0]],
            edge_cost: HashMap::from([((0, 0), 7.0), ((0, 1), 7.0)]),
            generated_for: vec![0, 0],
        };
        assert_eq!(topk(&inst).unwrap().assignment, vec![vec![0]]);
    }
}
