//! The metric names and units of ../BENCHMARK.json, and how the per-layer
//! ones are read out of a traced run.

use crate::harness::SpanLog;
use ruletest_common::{Error, Result};
use ruletest_telemetry::{Counter, Hist, RunReport, Stage};
use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric. The three times are seconds
/// at the machine's nominal speed (`harness::SpeedGauge`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("campaign_wall_s", "s"),
    ("campaign_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, grouped by layer (crate). A
/// metric the measured workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 80] = [
    ("bench.traced_iterations", "count"),
    ("bench.untraced_wall_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("storage.tpch_build_s", "s"),
    ("storage.rows", "count"),
    ("sql.parse_us_per_query", "us"),
    ("sql.gen_us_per_query", "us"),
    ("sql.roundtrip_failures", "count"),
    ("expr.eval_ns_per_row", "ns"),
    // optimizer: search
    ("optimizer.invocations", "count"),
    ("optimizer.optimize_s", "s"),
    ("optimizer.search_share", "ratio"),
    ("optimizer.invocation_us_p50", "us"),
    ("optimizer.invocation_us_p95", "us"),
    ("optimizer.memo_exprs_p95", "count"),
    ("optimizer.memo_groups_p95", "count"),
    ("optimizer.rule_binds", "count"),
    ("optimizer.rule_fires", "count"),
    ("optimizer.fire_per_bind", "ratio"),
    ("optimizer.bind_s", "s"),
    ("optimizer.subst_s", "s"),
    ("optimizer.optimize_2join_us", "us"),
    ("optimizer.optimize_4join_us", "us"),
    ("optimizer.optimize_6join_us", "us"),
    ("optimizer.optimize_masked_4join_us", "us"),
    ("optimizer.new_us", "us"),
    // optimizer: invocation cache and snapshot store
    ("optimizer.cache_hits", "count"),
    ("optimizer.cache_misses", "count"),
    ("optimizer.cache_hit_ratio", "ratio"),
    ("optimizer.cache_probe_ns", "ns"),
    ("optimizer.snapshot_load_s", "s"),
    ("optimizer.snapshot_save_s", "s"),
    ("optimizer.snapshot_bytes", "bytes"),
    ("executor.exec_s", "s"),
    ("executor.exec_share", "ratio"),
    ("executor.executions", "count"),
    ("executor.rows_out", "count"),
    ("executor.rows_per_s", "1/s"),
    ("executor.scan_filter_ns_per_row", "ns"),
    ("executor.hash_join_ns_per_row", "ns"),
    ("executor.merge_join_ns_per_row", "ns"),
    ("executor.nl_join_ns_per_pair", "ns"),
    ("executor.hash_agg_ns_per_row", "ns"),
    ("executor.stream_agg_ns_per_row", "ns"),
    ("executor.distinct_ns_per_row", "ns"),
    ("executor.topn_ns_per_row", "ns"),
    ("executor.reference_s", "s"),
    ("executor.reference_mismatches", "count"),
    ("common.multiset_diff_s", "s"),
    ("common.multiset_diff_ns_per_row", "ns"),
    ("common.pool_speedup_2t", "ratio"),
    ("core.generate_s", "s"),
    ("core.generate_trials", "count"),
    ("core.generate_hits", "count"),
    ("core.trials_per_query", "ratio"),
    ("core.graph_s", "s"),
    ("core.graph_oracle_calls", "count"),
    ("core.graph_edges_pruned", "count"),
    ("core.compress_s", "s"),
    ("core.baseline_cost", "cost"),
    ("core.smc_cost", "cost"),
    ("core.topk_cost", "cost"),
    ("core.topk_over_baseline", "ratio"),
    ("core.correctness_s", "s"),
    ("core.validations", "count"),
    ("core.skipped_identical", "count"),
    ("core.skipped_expensive", "count"),
    ("core.bugs", "count"),
    ("core.mutate_s", "s"),
    ("core.mutants_killed", "count"),
    ("core.mean_trials_to_kill", "count"),
    ("core.verdict_violations", "count"),
    ("lint.audit_ms", "ms"),
    ("lint.prove_ms", "ms"),
    ("lint.prove_unknown", "count"),
    ("telemetry.overhead_pct", "%"),
    ("telemetry.span_guard_ns", "ns"),
    ("telemetry.spans_recorded", "count"),
    ("telemetry.report_json_bytes", "bytes"),
    ("bench.spans_recorded", "count"),
];

/// The metrics of one run: every name of a table, each with a value.
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            table,
            values: BTreeMap::new(),
        }
    }

    /// Sets a metric of the table; a name outside it or a value that is
    /// not a finite number is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) -> Result<()> {
        let (name, _) = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .ok_or_else(|| Error::internal(format!("metric {name} is not in the table")))?;
        if !value.is_finite() {
            return Err(Error::internal(format!("metric {name} is {value}")));
        }
        self.values.insert(name, value);
        Ok(())
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `(name, value, unit)` in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.table.iter().map(|&(n, u)| (n, self.get(n), u))
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of `v`.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Disagreements found by the independent oracles. More than one source
/// counts into each (the workload over its generated suite, the probes over
/// the SQL corpus), and any of them fails the run.
const ORACLES: [&str; 2] = ["executor.reference_mismatches", "sql.roundtrip_failures"];

/// Sets each `(name, value)` pair; a later value replaces an earlier one,
/// except that the counts of [`ORACLES`] add up.
pub fn merge(m: &mut Metrics, layers: impl IntoIterator<Item = (&'static str, f64)>) -> Result<()> {
    for (name, value) in layers {
        let sum = if ORACLES.contains(&name) {
            m.get(name)
        } else {
            0.0
        };
        m.set(name, sum + value)?;
    }
    Ok(())
}

/// The oracles that found a disagreement, with their counts.
pub fn oracle_failures(m: &Metrics) -> Vec<(&'static str, f64)> {
    ORACLES
        .iter()
        .map(|&name| (name, m.get(name)))
        .filter(|&(_, count)| count > 0.0)
        .collect()
}

/// The per-layer metrics a telemetry `RunReport` holds.
pub fn from_report(m: &mut Metrics, report: &RunReport) -> Result<()> {
    let hist = |h: Hist| &report.histograms[h.name()];
    let micros = hist(Hist::InvocationMicros);
    m.set("optimizer.invocations", report.invocations() as f64)?;
    m.set("optimizer.optimize_s", micros.sum as f64 / 1e6)?;
    m.set("optimizer.invocation_us_p50", micros.percentile(50.0))?;
    m.set("optimizer.invocation_us_p95", micros.percentile(95.0))?;
    m.set(
        "optimizer.memo_exprs_p95",
        hist(Hist::MemoExprs).percentile(95.0),
    )?;
    m.set(
        "optimizer.memo_groups_p95",
        hist(Hist::MemoGroups).percentile(95.0),
    )?;
    let rules = report.profile.rules.values();
    let sum = |f: fn(&ruletest_telemetry::RuleCostRow) -> u64| rules.clone().map(f).sum::<u64>();
    m.set("optimizer.rule_binds", sum(|r| r.binds) as f64)?;
    m.set("optimizer.rule_fires", sum(|r| r.fires) as f64)?;
    m.set("optimizer.bind_s", sum(|r| r.bind_ns) as f64 / 1e9)?;
    m.set("optimizer.subst_s", sum(|r| r.subst_ns) as f64 / 1e9)?;
    m.set("optimizer.cache_hits", report.cache.hits as f64)?;
    m.set("optimizer.cache_misses", report.cache.misses as f64)?;
    m.set("optimizer.cache_hit_ratio", report.cache.hit_ratio())?;
    let execution_ns: u64 = report
        .profile
        .spans
        .iter()
        .filter(|row| row.path.rsplit(';').next() == Some(Stage::Execution.name()))
        .map(|row| row.wall_ns)
        .sum();
    m.set("executor.exec_s", execution_ns as f64 / 1e9)?;
    for (name, counter) in [
        ("core.generate_trials", Counter::GenTrials),
        ("core.generate_hits", Counter::GenHits),
        ("core.graph_oracle_calls", Counter::OracleCalls),
        ("core.graph_edges_pruned", Counter::EdgesPruned),
        ("core.validations", Counter::Validations),
        ("core.skipped_identical", Counter::SkippedIdentical),
        ("core.skipped_expensive", Counter::SkippedExpensive),
        ("core.bugs", Counter::CorrectnessBugs),
    ] {
        m.set(name, report.counter(counter) as f64)?;
    }
    let recorded: u64 = report.profile.spans.iter().map(|row| row.count).sum();
    m.set("telemetry.spans_recorded", recorded as f64)?;
    m.set(
        "telemetry.report_json_bytes",
        report.to_json().to_string_compact().len() as f64,
    )
}

/// Stage times from the benchmark's own spans, per traced iteration.
pub fn from_spans(m: &mut Metrics, spans: &SpanLog, iterations: f64) -> Result<()> {
    m.set("bench.spans_recorded", spans.len() as f64)?;
    let totals = spans.totals();
    for (metric, span) in [
        ("core.generate_s", "core.generate"),
        ("core.graph_s", "core.graph"),
        ("core.compress_s", "core.compress"),
        ("core.correctness_s", "core.correctness"),
        ("core.mutate_s", "core.mutate"),
        ("optimizer.snapshot_save_s", "optimizer.snapshot_save"),
        ("common.multiset_diff_s", "common.multiset_diff"),
        // Where the benchmark calls the executor itself, its span is the
        // measurement; elsewhere the telemetry profile's (from_report).
        ("executor.exec_s", "executor.execute"),
    ] {
        if let Some(total) = totals.get(span) {
            m.set(metric, total.wall_ns as f64 / 1e9 / iterations)?;
        }
    }
    Ok(())
}

/// Ratios of the metrics already set; `traced_wall_s` is their base.
pub fn derive(m: &mut Metrics, traced_wall_s: f64) -> Result<()> {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    m.set(
        "optimizer.fire_per_bind",
        ratio(m.get("optimizer.rule_fires"), m.get("optimizer.rule_binds")),
    )?;
    m.set(
        "core.trials_per_query",
        ratio(m.get("core.generate_trials"), m.get("core.generate_hits")),
    )?;
    m.set(
        "executor.rows_per_s",
        ratio(m.get("executor.rows_out"), m.get("executor.exec_s")),
    )?;
    m.set(
        "optimizer.search_share",
        ratio(m.get("optimizer.optimize_s"), traced_wall_s),
    )?;
    m.set(
        "executor.exec_share",
        ratio(
            m.get("executor.exec_s") + m.get("common.multiset_diff_s"),
            traced_wall_s,
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn an_oracle_count_survives_a_later_source_that_found_nothing() {
        let mut m = Metrics::new(&PER_LAYER);
        // The workload's generated suite, then the probes' corpus.
        merge(
            &mut m,
            [("sql.roundtrip_failures", 2.0), ("storage.rows", 5.0)],
        )
        .unwrap();
        merge(
            &mut m,
            [("sql.roundtrip_failures", 0.0), ("storage.rows", 9.0)],
        )
        .unwrap();
        assert_eq!(m.get("sql.roundtrip_failures"), 2.0);
        assert_eq!(m.get("storage.rows"), 9.0, "other metrics: last value wins");
        assert_eq!(oracle_failures(&m), [("sql.roundtrip_failures", 2.0)]);
        merge(&mut m, [("executor.reference_mismatches", 1.0)]).unwrap();
        assert_eq!(oracle_failures(&m).len(), 2);
        assert!(oracle_failures(&Metrics::new(&PER_LAYER)).is_empty());
    }

    #[test]
    fn unknown_names_and_non_finite_values_are_rejected() {
        let mut m = Metrics::new(&END_TO_END);
        assert!(m.set("setup_s", 1.5).is_ok());
        assert!(m.set("no_such_metric", 1.0).is_err());
        assert!(m.set("campaign_wall_s", f64::NAN).is_err());
        assert_eq!(m.get("campaign_cpu_s"), 0.0);
        assert!(m
            .to_json()
            .starts_with("{\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"campaign_wall_s\""));
    }
}
