//! Figures 11–13: test-suite compression quality.

use super::{fmt_cost, ReproConfig};
use crate::table::FigureTable;
use ruletest_core::{
    compress_suite, generate_suite, generate_suite_lenient, pair_targets, singleton_targets,
};
use ruletest_core::{Framework, GenConfig, Solution, Strategy, TestSuite};

fn suite_cfg(seed: u64) -> GenConfig {
    GenConfig {
        seed,
        // Correctness suites use complex queries (§4: "generate a complex
        // random query that exercises a given rule") — pad the pattern.
        pad_ops: 2,
        // Pattern generation either succeeds quickly or (for a genuinely
        // incompatible pair) never; a short per-attempt budget keeps the
        // sweep harness from stalling on pathological targets, which the
        // lenient generator then drops.
        max_trials: 60,
        ..Default::default()
    }
}

fn compression_row(fw: &Framework, suite: TestSuite) -> (f64, f64, f64) {
    let c = compress_suite(fw, suite, None).expect("compression");
    let cost = |sol: &Solution| sol.total_cost(&c.inst);
    (cost(&c.baseline), cost(&c.smc), cost(&c.topk))
}

/// Figure 11: compression for **singleton rules**, k = 10, varying the
/// number of rules (paper: SMC and TOPK are 1–3 orders of magnitude better
/// than BASELINE; log-scale y-axis).
pub fn fig11(cfg: &ReproConfig) -> FigureTable {
    let fw = cfg.framework_scaled(8);
    let ns: &[usize] = if cfg.quick {
        &[5, 10, 15]
    } else {
        &[5, 10, 15, 20, 25, 30]
    };
    let k = 10;
    let mut t = FigureTable::new(
        "Figure 11: Test suite compression for singleton rules (total estimated cost, k=10)",
        &["n (rules)", "BASELINE", "SMC", "TOPK", "BASELINE/TOPK"],
    );
    for &n in ns {
        let suite = generate_suite(
            &fw,
            singleton_targets(&fw, n),
            k,
            Strategy::Pattern,
            &suite_cfg(cfg.seed.wrapping_add(n as u64)),
        )
        .expect("suite generation");
        let (b, s, tk) = compression_row(&fw, suite);
        t.row(vec![
            n.to_string(),
            fmt_cost(b),
            fmt_cost(s),
            fmt_cost(tk),
            format!("{:.1}x", b / tk),
        ]);
        t.note(format!(
            "n={n} shape check (SMC < BASELINE and TOPK < BASELINE): {}",
            if s < b && tk < b { "PASS" } else { "FAIL" }
        ));
    }
    t.note("paper: both SMC and TOPK beat BASELINE by 1–3 orders of magnitude");
    t
}

/// Figure 12: compression for **rule pairs** (paper: TOPK always lowest;
/// SMC varies from good to significantly worse than BASELINE because it
/// ignores edge costs).
pub fn fig12(cfg: &ReproConfig) -> FigureTable {
    let fw = cfg.framework_scaled(8);
    let ns: &[usize] = if cfg.quick { &[4, 6] } else { &[4, 8, 12] };
    let k = if cfg.quick { 3 } else { 5 };
    let mut t = FigureTable::new(
        "Figure 12: Test suite compression for rule pairs (total estimated cost)",
        &["n (rules)", "pairs", "BASELINE", "SMC", "TOPK"],
    );
    for &n in ns {
        let targets = pair_targets(&fw, n);
        let pairs = targets.len();
        let (suite, skipped) = generate_suite_lenient(
            &fw,
            targets,
            k,
            Strategy::Pattern,
            &suite_cfg(cfg.seed.wrapping_add(0x1200 + n as u64)),
        )
        .expect("pair suite generation");
        if !skipped.is_empty() {
            t.note(format!(
                "n={n}: {} of {pairs} pairs skipped (no k distinct untruncated queries found)",
                skipped.len()
            ));
        }
        let (b, s, tk) = compression_row(&fw, suite);
        t.row(vec![
            n.to_string(),
            pairs.to_string(),
            fmt_cost(b),
            fmt_cost(s),
            fmt_cost(tk),
        ]);
        // §5.4: TOPK ignores node-sharing benefits, so SMC can edge it out
        // on small instances where sharing dominates; the robustness claim
        // is TOPK <= BASELINE everywhere and TOPK never far behind SMC,
        // while SMC's gap to TOPK grows with n (edge-blindness).
        t.note(format!(
            "n={n} shape check (TOPK <= BASELINE, TOPK within 10% of SMC): {}",
            if tk <= b + 1e-9 && tk <= s * 1.10 + 1e-9 {
                "PASS"
            } else {
                "FAIL"
            }
        ));
    }
    t.note(format!("k = {k}; paper uses k=10 over up to 15 rules — scaled to the substrate (see EXPERIMENTS.md)"));
    t.note("paper: TOPK lowest everywhere; SMC between good and worse-than-BASELINE");
    t
}

/// Figure 13: impact of the test-suite size k at a fixed rule-pair set
/// (paper: TOPK best across all k; SMC good at k=1 but degrades as k
/// grows).
pub fn fig13(cfg: &ReproConfig) -> FigureTable {
    let fw = cfg.framework_scaled(8);
    let n = if cfg.quick { 5 } else { 6 };
    let ks: &[usize] = if cfg.quick {
        &[1, 2, 5]
    } else {
        &[1, 2, 5, 10]
    };
    let mut t = FigureTable::new(
        "Figure 13: Impact of the test suite size on solution quality (rule pairs)",
        &["k", "BASELINE", "SMC", "TOPK", "SMC/TOPK"],
    );
    for &k in ks {
        let (suite, skipped) = generate_suite_lenient(
            &fw,
            pair_targets(&fw, n),
            k,
            Strategy::Pattern,
            &suite_cfg(cfg.seed.wrapping_add(0x1300 + k as u64)),
        )
        .expect("pair suite generation");
        if !skipped.is_empty() {
            t.note(format!("k={k}: {} pairs skipped", skipped.len()));
        }
        let (b, s, tk) = compression_row(&fw, suite);
        t.row(vec![
            k.to_string(),
            fmt_cost(b),
            fmt_cost(s),
            fmt_cost(tk),
            format!("{:.2}x", s / tk),
        ]);
    }
    t.note(format!(
        "{} rule pairs over the first {n} rules; paper uses 15C2 pairs",
        pair_targets(&fw, n).len()
    ));
    t.note("paper: TOPK best for all k; SMC quality drops as k increases");
    t
}
