//! Bipartite-graph construction and edge-cost computation (§4.1), with the
//! monotonicity optimization of §5.3.1.
//!
//! Edge costs require invoking the optimizer with rules disabled — for rule
//! pairs, `nC2` invocations per query in the worst case — so the number of
//! optimizer invocations is itself the cost metric of Figure 14.

use super::{RuleTarget, SuiteQuery, TestSuite};
use crate::framework::Framework;
use crate::supervise::{run_stage, ItemName, Quarantine, SITE_GRAPH};
use ruletest_common::Result;
use ruletest_optimizer::OptimizerConfig;
use ruletest_telemetry::{Counter, Event, Stage};
use std::collections::HashMap;
use std::sync::Mutex;

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
    pub edges: HashMap<(usize, usize), f64>,
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
    cache: Mutex<HashMap<(usize, usize), f64>>,
}

impl<'a> EdgeOracle<'a> {
    pub fn new(fw: &'a Framework, suite: &'a TestSuite) -> Self {
        Self {
            fw,
            suite,
            cache: Mutex::new(HashMap::new()),
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

    /// Edge costs computed so far (cache misses).
    pub fn calls(&self) -> u64 {
        self.cache.lock().expect("edge cache poisoned").len() as u64
    }

    fn into_edges(self) -> HashMap<(usize, usize), f64> {
        self.cache.into_inner().expect("edge cache poisoned")
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

/// The items a [`renumber`]ed map keeps, in order.
fn kept<'a, T>(items: &'a [T], map: &'a [Option<usize>]) -> impl Iterator<Item = &'a T> {
    items
        .iter()
        .zip(map)
        .filter_map(|(item, new)| new.map(|_| item))
}

/// The one graph build: `scan(oracle, t, adjacency[t])` computes the edge
/// costs of target `t` ([`eager_scan`] or [`pruned_scan`]) through a
/// shared [`EdgeOracle`], fanned out through [`run_stage`] under the
/// caller's failure policy, and the graph is assembled over the targets
/// that came through. One worker per target: every `(t, q)` edge belongs
/// to exactly one target, so workers never race on an edge, and edge
/// costs are pure, so the edge map is identical at any thread count.
///
/// A quarantined target (before this run or just now) is dropped
/// *together with its dedicated queries*: the graph indexes a shrunk
/// suite, returned as the second member (`None` when nothing was dropped
/// and the graph indexes `suite` itself — always, without a quarantine).
/// Targets the quarantine already names are out before any edge is
/// computed, so their queries are never optimized again.
fn build(
    fw: &Framework,
    suite: &TestSuite,
    scan: impl Fn(&EdgeOracle, usize, &[usize]) -> Result<()> + Sync,
    quarantine: Option<&mut Quarantine>,
) -> Result<(BipartiteGraph, Option<TestSuite>)> {
    let known: Vec<bool> = suite
        .targets
        .iter()
        .map(|t| {
            quarantine
                .as_deref()
                .is_some_and(|q| q.contains_input(SITE_GRAPH, &t.label(&fw.optimizer)))
        })
        .collect();
    let adjacency: Vec<Vec<usize>> = (0..suite.targets.len())
        .map(|t| {
            let mut adj = suite.covering(t);
            adj.retain(|&q| !known[suite.queries[q].generated_for]);
            adj
        })
        .collect();
    let oracle = EdgeOracle::new(fw, suite);
    let scanned = run_stage(
        fw,
        SITE_GRAPH,
        &suite.targets,
        |&target| ItemName::of_target(fw, target),
        |t, _| {
            // Per-target span inside the leaf closure: the tree shape stays
            // identical at any thread count.
            let _span = fw.telemetry.span(Stage::Graph);
            scan(&oracle, t, &adjacency[t])
        },
        quarantine,
    )?;

    let target_map = renumber(scanned.iter().map(Option::is_some));
    let query_map = renumber(
        suite
            .queries
            .iter()
            .map(|q| target_map[q.generated_for].is_some()),
    );
    let edges: HashMap<(usize, usize), f64> = oracle
        .into_edges()
        .into_iter()
        .filter_map(|((t, q), c)| Some(((target_map[t]?, query_map[q]?), c)))
        .collect();
    let graph = BipartiteGraph {
        targets: kept(&suite.targets, &target_map).copied().collect(),
        k: suite.k,
        node_cost: kept(&suite.queries, &query_map).map(|q| q.cost).collect(),
        adjacency: kept(&adjacency, &target_map)
            .map(|adj| adj.iter().filter_map(|&q| query_map[q]).collect())
            .collect(),
        optimizer_calls: edges.len() as u64,
        edges,
        generated_for: kept(&suite.queries, &query_map)
            .filter_map(|q| target_map[q.generated_for])
            .collect(),
    };
    let shrunk = scanned.contains(&None).then(|| TestSuite {
        targets: graph.targets.clone(),
        k: suite.k,
        queries: kept(&suite.queries, &query_map)
            .zip(&graph.generated_for)
            .map(|(q, &generated_for)| SuiteQuery {
                generated_for,
                ..q.clone()
            })
            .collect(),
        seed: suite.seed,
    });
    Ok((graph, shrunk))
}

/// Every adjacency edge — the exhaustive strategy Figure 14 compares
/// against.
fn eager_scan(oracle: &EdgeOracle, t: usize, adj: &[usize]) -> Result<()> {
    adj.iter()
        .try_for_each(|&q| oracle.edge_cost(t, q).map(drop))
}

/// The §5.3.1 scan of one target: queries are visited in increasing
/// `Cost(q)` order while maintaining the k cheapest edges seen; once the
/// next query's node cost reaches the current k-th cheapest edge cost, no
/// remaining query can improve the top-k (because `Cost(q) <= Cost(q, ¬R)`
/// for a well-behaved optimizer) and the scan stops. The scan is
/// sequential *within* a target (each edge decides whether to keep
/// scanning), but targets are independent — the parallel campaign fans
/// out across them with the pruning intact.
fn pruned_scan(oracle: &EdgeOracle, t: usize, adj: &[usize]) -> Result<()> {
    let (fw, k) = (oracle.fw, oracle.suite.k);
    let node_cost = |q: usize| oracle.suite.queries[q].cost;
    let mut by_node_cost = adj.to_vec();
    by_node_cost.sort_by(|&a, &b| node_cost(a).total_cmp(&node_cost(b)));
    // Max-heap of the k cheapest edge costs seen so far.
    let mut heap: std::collections::BinaryHeap<ordered::F64> = std::collections::BinaryHeap::new();
    let mut scanned = 0u32;
    for &q in &by_node_cost {
        if heap.len() == k {
            let kth = heap.peek().expect("heap is full").0;
            if node_cost(q) >= kth {
                break; // every remaining edge is at least this expensive
            }
        }
        let c = oracle.edge_cost(t, q)?;
        scanned += 1;
        if heap.len() < k {
            heap.push(ordered::F64(c));
        } else if c < heap.peek().expect("heap is full").0 {
            heap.pop();
            heap.push(ordered::F64(c));
        }
    }
    let pruned = adj.len() as u32 - scanned;
    fw.telemetry.add(Counter::EdgesPruned, pruned as u64);
    fw.telemetry.event(|| Event::GraphProbe {
        target: t as u32,
        scanned,
        pruned,
    });
    Ok(())
}

/// Builds the graph eagerly: every adjacency edge's cost is computed — the
/// exhaustive strategy Figure 14 compares against.
pub fn build_graph(fw: &Framework, suite: &TestSuite) -> Result<BipartiteGraph> {
    Ok(build(fw, suite, eager_scan, None)?.0)
}

/// Builds the graph with the §5.3.1 pruning ([`pruned_scan`]): only the
/// edges the TopKIndependent algorithm can ever use are computed.
pub fn build_graph_pruned(fw: &Framework, suite: &TestSuite) -> Result<BipartiteGraph> {
    Ok(build(fw, suite, pruned_scan, None)?.0)
}

/// [`build_graph`] under a failure policy: with a quarantine, a target
/// whose edge computation panics, times out or exhausts a budget is
/// quarantined and dropped together with its dedicated queries, rather
/// than aborting the campaign. Returns the suite the graph indexes —
/// `suite` itself unless targets were dropped.
pub fn build_graph_with(
    fw: &Framework,
    suite: TestSuite,
    quarantine: Option<&mut Quarantine>,
) -> Result<(TestSuite, BipartiteGraph)> {
    let (graph, shrunk) = build(fw, &suite, eager_scan, quarantine)?;
    Ok((shrunk.unwrap_or(suite), graph))
}

mod ordered {
    /// Total order wrapper for f64 costs. Uses `total_cmp` so a NaN cost
    /// (possible when a cost model divides by zero) orders after every
    /// finite value instead of panicking the heap operations.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct F64(pub f64);
    impl Eq for F64 {}
    #[allow(clippy::derive_ord_xor_partial_ord)]
    impl Ord for F64 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0)
        }
    }
    impl PartialOrd for F64 {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
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
    fn nan_costs_sort_and_heap_deterministically_instead_of_panicking() {
        // Regression: `ordered::F64`'s `Ord` used
        // `partial_cmp().expect("finite costs")` and panicked on NaN.
        let mut heap = std::collections::BinaryHeap::new();
        for c in [3.0, f64::NAN, 1.0, 2.0] {
            heap.push(ordered::F64(c));
        }
        // NaN is the max under `total_cmp`, so it pops first; the rest pop
        // in descending order.
        assert!(heap.pop().unwrap().0.is_nan());
        assert_eq!(heap.pop().unwrap().0, 3.0);
        assert_eq!(heap.pop().unwrap().0, 2.0);
        assert_eq!(heap.pop().unwrap().0, 1.0);

        let mut costs = [2.0, f64::NAN, 1.0];
        costs.sort_by(f64::total_cmp);
        assert_eq!(costs[0], 1.0);
        assert_eq!(costs[1], 2.0);
        assert!(costs[2].is_nan());
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
    fn oracle_caches_repeated_edges() {
        let (fw, suite) = small_suite();
        let oracle = EdgeOracle::new(&fw, &suite);
        let a = oracle.edge_cost(0, 0).unwrap();
        let b = oracle.edge_cost(0, 0).unwrap();
        assert_eq!(a, b);
        assert_eq!(oracle.calls(), 1);
    }
}
