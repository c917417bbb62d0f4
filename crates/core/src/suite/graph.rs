//! Bipartite-graph construction and edge-cost computation (§4.1), with the
//! monotonicity optimization of §5.3.1.
//!
//! Edge costs require invoking the optimizer with rules disabled — for rule
//! pairs, `nC2` invocations per query in the worst case — so the number of
//! optimizer invocations is itself the cost metric of Figure 14.

use super::{RuleTarget, TestSuite};
use crate::compress::{self, Instance, Solution};
use crate::framework::Framework;
use crate::supervise::{run_stage, ItemName, Quarantine, SITE_GRAPH};
use ruletest_common::Result;
use ruletest_optimizer::OptimizerConfig;
use ruletest_telemetry::{Counter, Event, Stage};
use std::collections::HashMap;
use std::sync::Mutex;

/// `(target, query) -> Cost(q, ¬R)`.
type Edges = HashMap<(usize, usize), f64>;

/// A fully materialized bipartite graph (Figure 4 / Figure 7).
#[derive(Debug, Clone)]
pub struct BipartiteGraph {
    pub targets: Vec<RuleTarget>,
    pub k: usize,
    /// `Cost(q)` per query.
    pub node_cost: Vec<f64>,
    /// Queries covering each target.
    pub adjacency: Vec<Vec<usize>>,
    /// `(target, query) -> Cost(q, ¬R)`; present for every adjacency pair
    /// when built eagerly, or for the demanded subset when built through
    /// the pruned oracle.
    pub edges: Edges,
    /// Which target each query was generated for (drives BASELINE).
    pub generated_for: Vec<usize>,
    /// Optimizer invocations spent computing edge costs.
    pub optimizer_calls: u64,
}

/// Demand-driven edge-cost computation with caching and invocation
/// counting. Thread-safe: campaign workers probing different targets
/// share one oracle.
pub struct EdgeOracle<'a> {
    fw: &'a Framework,
    suite: &'a TestSuite,
    cache: Mutex<Edges>,
}

impl<'a> EdgeOracle<'a> {
    pub fn new(fw: &'a Framework, suite: &'a TestSuite) -> Self {
        Self {
            fw,
            suite,
            cache: Mutex::new(Edges::new()),
        }
    }

    /// `Cost(q, ¬R)` for query `q` and target `t` — one edge-cost
    /// computation (the Figure 14 invocation metric) per cache miss. The
    /// underlying optimizer call goes through the invocation cache, so
    /// repeated `(tree, mask)` pairs across graph builds cost nothing; the
    /// counter still reports the logical per-edge invocations §5.3.1
    /// prunes.
    pub fn edge_cost(&self, t: usize, q: usize) -> Result<f64> {
        if let Some(&c) = self.cache.lock().expect("edge cache poisoned").get(&(t, q)) {
            return Ok(c);
        }
        let rules = self.suite.targets[t].rules();
        let res = self.fw.optimizer.optimize_with_cached(
            &self.suite.queries[q].tree,
            &OptimizerConfig::disabling(&rules),
        )?;
        self.fw.telemetry.incr(Counter::OracleCalls);
        self.cache
            .lock()
            .expect("edge cache poisoned")
            .insert((t, q), res.cost);
        Ok(res.cost)
    }
}

/// Numbers the kept positions `0, 1, ..` in order: `old -> Some(new)`,
/// `None` for a dropped one.
fn renumber(keep: impl Iterator<Item = bool>) -> Vec<Option<usize>> {
    let mut next = 0;
    keep.map(|kept| {
        kept.then(|| {
            next += 1;
            next - 1
        })
    })
    .collect()
}

/// `suite` without the targets `keep` rejects and their dedicated queries,
/// and `edges` renumbered to match (an edge of a dropped target or query
/// goes).
fn shrink(mut suite: TestSuite, keep: &[bool], edges: Edges) -> (TestSuite, Edges) {
    let target_map = renumber(keep.iter().copied());
    let query_map = renumber(suite.queries.iter().map(|q| keep[q.generated_for]));
    let edges = edges
        .into_iter()
        .filter_map(|((t, q), c)| Some(((target_map[t]?, query_map[q]?), c)))
        .collect();
    let mut kept = keep.iter();
    suite.targets.retain(|_| kept.next() == Some(&true));
    suite.queries.retain(|q| keep[q.generated_for]);
    for q in &mut suite.queries {
        q.generated_for = target_map[q.generated_for].expect("a kept query's target is kept");
    }
    (suite, edges)
}

impl BipartiteGraph {
    /// The graph of `suite` with the edge costs known so far.
    fn over(suite: &TestSuite, edges: Edges) -> BipartiteGraph {
        BipartiteGraph {
            targets: suite.targets.clone(),
            k: suite.k,
            node_cost: suite.queries.iter().map(|q| q.cost).collect(),
            adjacency: (0..suite.targets.len())
                .map(|t| suite.covering(t))
                .collect(),
            edges,
            generated_for: suite.queries.iter().map(|q| q.generated_for).collect(),
            optimizer_calls: 0,
        }
    }

    /// Books, per target, the edges computed and those never computed
    /// (pruned): `graph.oracle_calls + graph.edges_pruned` is then the
    /// number of adjacency pairs.
    fn record_probes(&self, fw: &Framework) {
        for (t, adj) in self.adjacency.iter().enumerate() {
            let pruned = adj
                .iter()
                .filter(|&&q| !self.edges.contains_key(&(t, q)))
                .count();
            fw.telemetry.add(Counter::EdgesPruned, pruned as u64);
            fw.telemetry.event(|| Event::GraphProbe {
                target: t as u32,
                scanned: (adj.len() - pruned) as u32,
                pruned: pruned as u32,
            });
        }
    }
}

/// The one graph build: `scan(oracle, t, adjacency[t])` computes the edge
/// costs of target `t` through one [`EdgeOracle`] that starts from
/// `graph`'s edges, fanned out through [`run_stage`] under the caller's
/// failure policy. Returns `graph` (the graph of `suite`) with every edge
/// cost known at the end, and which targets came through (all of them
/// without a quarantine). One worker per target: every `(t, q)` edge
/// belongs to exactly one target, so workers never race on an edge, and
/// edge costs are pure, so the edge map is identical at any thread count.
fn build(
    fw: &Framework,
    suite: &TestSuite,
    mut graph: BipartiteGraph,
    scan: impl Fn(&EdgeOracle, usize, &[usize]) -> Result<()> + Sync,
    quarantine: Option<&mut Quarantine>,
) -> Result<(BipartiteGraph, Vec<bool>)> {
    let oracle = EdgeOracle::new(fw, suite);
    *oracle.cache.lock().expect("edge cache poisoned") = std::mem::take(&mut graph.edges);
    let scanned = run_stage(
        fw,
        SITE_GRAPH,
        &suite.targets,
        |&target| ItemName::of_target(fw, target),
        |t, _| {
            // Per-target span inside the leaf closure: the tree shape stays
            // identical at any thread count.
            let _span = fw.telemetry.span(Stage::Graph);
            scan(&oracle, t, &graph.adjacency[t])
        },
        quarantine,
    )?;
    graph.edges = oracle.cache.into_inner().expect("edge cache poisoned");
    graph.optimizer_calls = graph.edges.len() as u64;
    Ok((graph, scanned.iter().map(Option::is_some).collect()))
}

/// Every adjacency edge — the exhaustive strategy Figure 14 compares
/// against.
fn eager_scan(oracle: &EdgeOracle, t: usize, adj: &[usize]) -> Result<()> {
    adj.iter()
        .try_for_each(|&q| oracle.edge_cost(t, q).map(drop))
}

/// The §5.3.1 scan of one target: queries are visited in increasing
/// `Cost(q)` order while maintaining the k cheapest edges seen; once the
/// next query's node cost exceeds the current k-th cheapest edge cost, no
/// remaining query can improve or tie the top-k (because
/// `Cost(q) <= Cost(q, ¬R)` for a well-behaved optimizer) and the scan
/// stops. A query whose node cost equals the k-th cost is still scanned:
/// its edge may tie, and TOPK's (edge, index) order may pick it. The scan
/// is sequential *within* a target (each edge decides whether to keep
/// scanning), but targets are independent — the parallel campaign fans
/// out across them with the pruning intact.
fn pruned_scan(oracle: &EdgeOracle, t: usize, adj: &[usize]) -> Result<()> {
    let k = oracle.suite.k;
    let node_cost = |q: usize| oracle.suite.queries[q].cost;
    let mut by_node_cost = adj.to_vec();
    by_node_cost.sort_by(|&a, &b| node_cost(a).total_cmp(&node_cost(b)));
    let mut cheapest: Vec<f64> = Vec::with_capacity(k + 1);
    for &q in &by_node_cost {
        if cheapest.len() == k && node_cost(q) > cheapest[k - 1] {
            break; // every remaining edge is more expensive
        }
        keep_cheapest(&mut cheapest, oracle.edge_cost(t, q)?, k);
    }
    Ok(())
}

/// Adds `c` to `cheapest`, the k cheapest edge costs seen so far, kept
/// ascending under `total_cmp` (a NaN cost sorts last instead of
/// panicking).
fn keep_cheapest(cheapest: &mut Vec<f64>, c: f64, k: usize) {
    cheapest.insert(cheapest.partition_point(|e| e.total_cmp(&c).is_le()), c);
    cheapest.truncate(k);
}

/// Builds the graph eagerly: every adjacency edge's cost is computed — the
/// exhaustive strategy Figure 14 compares against.
pub fn build_graph(fw: &Framework, suite: &TestSuite) -> Result<BipartiteGraph> {
    let nodes = BipartiteGraph::over(suite, Edges::new());
    Ok(build(fw, suite, nodes, eager_scan, None)?.0)
}

/// Builds the graph with the §5.3.1 pruning ([`pruned_scan`]): only the
/// edges the TopKIndependent algorithm can ever use are computed.
pub fn build_graph_pruned(fw: &Framework, suite: &TestSuite) -> Result<BipartiteGraph> {
    let nodes = BipartiteGraph::over(suite, Edges::new());
    let (graph, _) = build(fw, suite, nodes, pruned_scan, None)?;
    graph.record_probes(fw);
    Ok(graph)
}

/// A suite compressed three ways (§2.3, §5) over an instance that holds
/// the edges the three solutions read, so all three costs are exact.
#[derive(Debug, Clone)]
pub struct Compressed {
    /// The suite the instance and the solutions index: the input suite,
    /// less any target the graph stage quarantined (with its queries).
    pub suite: TestSuite,
    /// The suite's graph with the edge costs computed, no others.
    pub inst: Instance,
    pub baseline: Solution,
    pub smc: Solution,
    pub topk: Solution,
}

/// The graph stage and compression of a campaign, computing only the edges
/// BASELINE, SMC and TOPK read. BASELINE takes each target's own queries
/// and SMC reads node costs and adjacency only, so both choose first; then
/// each target's stage item runs the §5.3.1 [`pruned_scan`], which finds
/// TOPK's edges, and costs that target's BASELINE and SMC edges.
///
/// `quarantine` is the failure policy. With one, targets it already names
/// at the graph site drop with their queries before any edge is computed,
/// and a target whose edges panic, time out or exhaust a budget is
/// quarantined and dropped the same way. SMC may choose differently on the
/// shrunk suite: the three algorithms run again, and another pass of the
/// stage computes the edges they read that are still missing, until no
/// target drops.
pub fn compress_suite(
    fw: &Framework,
    mut suite: TestSuite,
    mut quarantine: Option<&mut Quarantine>,
) -> Result<Compressed> {
    let mut keep: Vec<bool> = suite
        .targets
        .iter()
        .map(|t| {
            let label = t.label(&fw.optimizer);
            !quarantine
                .as_deref()
                .is_some_and(|q| q.contains_input(SITE_GRAPH, &label))
        })
        .collect();
    let mut edges = Edges::new();
    loop {
        (suite, edges) = shrink(suite, &keep, edges);
        let nodes = BipartiteGraph::over(&suite, edges);
        let mut inst = Instance::from_graph(&nodes);
        let (baseline, smc) = (compress::baseline(&inst)?, compress::smc(&inst)?);
        let (graph, kept) = build(
            fw,
            &suite,
            nodes,
            |oracle, t, adj| {
                pruned_scan(oracle, t, adj)?;
                baseline.assignment[t]
                    .iter()
                    .chain(&smc.assignment[t])
                    .try_for_each(|&q| oracle.edge_cost(t, q).map(drop))
            },
            quarantine.as_deref_mut(),
        )?;
        if kept.contains(&false) {
            (keep, edges) = (kept, graph.edges);
            continue;
        }
        graph.record_probes(fw);
        inst.edge_cost = graph.edges;
        let topk = compress::topk(&inst)?;
        return Ok(Compressed {
            suite,
            inst,
            baseline,
            smc,
            topk,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FrameworkConfig;
    use crate::generate::{GenConfig, Strategy};
    use crate::suite::{generate_suite, singleton_targets};

    fn small_suite() -> (Framework, TestSuite) {
        let fw = Framework::new(&FrameworkConfig::default()).unwrap();
        let targets = singleton_targets(&fw, 4);
        let suite =
            generate_suite(&fw, targets, 2, Strategy::Pattern, &GenConfig::default()).unwrap();
        (fw, suite)
    }

    #[test]
    fn nan_costs_keep_the_k_cheapest_instead_of_panicking() {
        // Regression: the scan's ordering of edge costs used
        // `partial_cmp().expect("finite costs")` and panicked on NaN.
        let mut cheapest = Vec::new();
        for c in [3.0, f64::NAN, 1.0, 2.0] {
            keep_cheapest(&mut cheapest, c, 3);
        }
        assert_eq!(cheapest, [1.0, 2.0, 3.0]);
        // A NaN among fewer than k costs is kept, last.
        keep_cheapest(&mut cheapest, f64::NAN, 4);
        assert_eq!(cheapest[..3], [1.0, 2.0, 3.0]);
        assert!(cheapest[3].is_nan());
    }

    #[test]
    fn eager_graph_has_all_adjacency_edges_with_monotone_costs() {
        let (fw, suite) = small_suite();
        let g = build_graph(&fw, &suite).unwrap();
        let mut total_edges = 0;
        for (t, adj) in g.adjacency.iter().enumerate() {
            assert!(adj.len() >= suite.k);
            for &q in adj {
                let e = g.edges[&(t, q)];
                assert!(
                    e >= g.node_cost[q] - 1e-9,
                    "edge cost below node cost: {} < {}",
                    e,
                    g.node_cost[q]
                );
                total_edges += 1;
            }
        }
        assert_eq!(g.edges.len(), total_edges);
        assert_eq!(g.optimizer_calls, total_edges as u64);
    }

    #[test]
    fn pruned_graph_spends_fewer_calls_and_keeps_the_topk_edges() {
        let (fw, suite) = small_suite();
        let eager = build_graph(&fw, &suite).unwrap();
        let pruned = build_graph_pruned(&fw, &suite).unwrap();
        assert!(pruned.optimizer_calls <= eager.optimizer_calls);
        // The k cheapest edges per target must be present and identical.
        for (t, adj) in eager.adjacency.iter().enumerate() {
            let mut costs: Vec<f64> = adj.iter().map(|&q| eager.edges[&(t, q)]).collect();
            costs.sort_by(f64::total_cmp);
            let kth = costs[suite.k - 1];
            let cheap: Vec<usize> = adj
                .iter()
                .copied()
                .filter(|&q| eager.edges[&(t, q)] <= kth + 1e-9)
                .collect();
            // At least k of the cheap edges were computed by the pruned
            // build (ties may differ, so check achievable coverage).
            let present = cheap
                .iter()
                .filter(|&&q| pruned.edges.contains_key(&(t, q)))
                .count();
            assert!(
                present >= suite.k.min(cheap.len()),
                "pruned build lost top-k edges for target {t}"
            );
        }
    }

    #[test]
    fn compression_reads_only_computed_edges_and_matches_the_eager_graph() {
        let (fw, suite) = small_suite();
        let eager = build_graph(&fw, &suite).unwrap();
        let inst = Instance::from_graph(&eager);
        let c = compress_suite(&fw, suite, None).unwrap();
        assert!((c.inst.edge_cost.len() as u64) < eager.optimizer_calls);
        for (e, cost) in &c.inst.edge_cost {
            assert_eq!(eager.edges[e], *cost);
        }
        let solutions = [
            compress::baseline(&inst).unwrap(),
            compress::smc(&inst).unwrap(),
            compress::topk(&inst).unwrap(),
        ];
        for (sol, eager_sol) in [&c.baseline, &c.smc, &c.topk].into_iter().zip(&solutions) {
            assert_eq!(sol, eager_sol);
            assert_eq!(sol.total_cost(&c.inst), eager_sol.total_cost(&inst));
        }
    }

    #[test]
    fn oracle_caches_repeated_edges() {
        let (fw, suite) = small_suite();
        let oracle = EdgeOracle::new(&fw, &suite);
        let a = oracle.edge_cost(0, 0).unwrap();
        let b = oracle.edge_cost(0, 0).unwrap();
        assert_eq!(a, b);
        assert_eq!(oracle.cache.lock().unwrap().len(), 1);
    }
}
