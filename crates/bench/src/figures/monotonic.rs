//! Figure 14: exploiting cost monotonicity (§5.3.1) to reduce optimizer
//! invocations while building the rule-pair bipartite graph.

use super::{fmt_cost, ReproConfig};
use crate::table::FigureTable;
use ruletest_core::compress::{topk, topk::bounds, Instance};
use ruletest_core::{build_graph, build_graph_pruned, generate_suite_lenient, pair_targets};
use ruletest_core::{GenConfig, Strategy};

/// Figure 14: optimizer calls with exhaustive edge computation vs. the
/// monotonicity-pruned build (paper: 6x–9x fewer calls, identical result
/// quality).
pub fn fig14(cfg: &ReproConfig) -> FigureTable {
    let fw = cfg.framework();
    let ns: &[usize] = if cfg.quick { &[4, 6] } else { &[4, 8, 12] };
    let k = if cfg.quick { 3 } else { 5 };
    let mut t = FigureTable::new(
        "Figure 14: Exploiting monotonicity (optimizer calls for pair-graph construction)",
        &[
            "n (rules)",
            "pairs",
            "exhaustive calls",
            "pruned calls",
            "savings",
            "TOPK edge-cost sum (exhaustive)",
            "TOPK edge-cost sum (pruned)",
            "same quality",
        ],
    );
    for &n in ns {
        let targets = pair_targets(&fw, n);
        let pairs = targets.len();
        let (suite, skipped) = generate_suite_lenient(
            &fw,
            targets,
            k,
            Strategy::Pattern,
            &GenConfig {
                seed: cfg.seed.wrapping_add(0x1400 + n as u64),
                pad_ops: 2,
                max_trials: 60,
                ..Default::default()
            },
        )
        .expect("pair suite generation");
        if !skipped.is_empty() {
            t.note(format!("n={n}: {} pairs skipped", skipped.len()));
        }
        let eager = build_graph(&fw, &suite).expect("eager graph");
        let pruned = build_graph_pruned(&fw, &suite).expect("pruned graph");
        // Soundness metric: the sum of the selected edge costs (§5.2's
        // MinCost), which pruning provably preserves.
        let edge_sum = |g| {
            let inst = Instance::from_graph(g);
            bounds(&inst, &topk(&inst).expect("topk")).0
        };
        let cost_eager: f64 = edge_sum(&eager);
        let cost_pruned: f64 = edge_sum(&pruned);
        // Tolerance: our memo approximates Cascades group-merging, so a
        // fraction of a percent of edges can violate Cost(q) <= Cost(q, ¬R)
        // through group-placement asymmetries (see DESIGN.md §3); the
        // paper's own "well-behaved optimizer" is an idealization too.
        let same = (cost_eager - cost_pruned).abs() <= 0.01 * cost_eager.max(1.0);
        t.row(vec![
            n.to_string(),
            pairs.to_string(),
            eager.optimizer_calls.to_string(),
            pruned.optimizer_calls.to_string(),
            format!(
                "{:.1}x",
                eager.optimizer_calls as f64 / pruned.optimizer_calls.max(1) as f64
            ),
            fmt_cost(cost_eager),
            fmt_cost(cost_pruned),
            if same { "yes" } else { "NO" }.to_string(),
        ]);
        t.note(format!(
            "n={n} shape check (pruned saves calls, same TOPK quality): {}",
            if pruned.optimizer_calls < eager.optimizer_calls && same {
                "PASS"
            } else {
                "FAIL"
            }
        ));
    }
    t.note(
        "paper: monotonicity saves a factor of 6x–9x of optimizer calls without affecting quality",
    );
    t
}
