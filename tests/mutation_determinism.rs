//! Determinism of the mutation campaign: same configuration must yield a
//! byte-identical `MUTATION_REPORT.json` at any thread count. The report
//! deliberately excludes wall-clock; outcomes come back from `par_map`
//! in catalog order; telemetry folds in after the parallel phase.

use ruletest_core::mutate::{run_mutation_campaign, MutationConfig};
use ruletest_storage::{tpch_database, TpchConfig};
use ruletest_telemetry::Telemetry;
use std::sync::Arc;

#[test]
fn report_is_byte_identical_across_thread_counts() {
    let db = Arc::new(tpch_database(&TpchConfig::default()).unwrap());
    let json_at = |threads: usize| {
        let cfg = MutationConfig {
            sample: Some(1),
            threads,
            ..Default::default()
        };
        let report = run_mutation_campaign(&db, &cfg, &Telemetry::disabled()).unwrap();
        ruletest_common::to_pretty(&report)
    };
    let sequential = json_at(1);
    assert_eq!(sequential, json_at(3));
    assert_eq!(sequential, json_at(7));
}
