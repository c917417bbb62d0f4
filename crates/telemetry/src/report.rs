//! `RunReport`: one JSON document summarizing a whole campaign.
//!
//! The report rolls the metrics registry, the optimizer's invocation-cache
//! statistics, and the worker-pool statistics into a single self-describing
//! document. Fields split into two classes:
//!
//! * **deterministic** — logical counts that are a pure function of the
//!   seed and inputs (rule firings, trials, edge probes, validations).
//!   [`RunReport::deterministic_json`] serializes exactly this subset; the
//!   determinism suite compares it across runs and thread counts.
//! * **environmental** — wall times, pool utilization, cache hit split,
//!   and trace-ring occupancy, which legitimately vary run to run.

use crate::json::{Json, JsonWriter};
use crate::metrics::{Counter, Hist, HistogramSnapshot, MetricsSnapshot};
use crate::span::ProfileSection;
use ruletest_common::wire::{decimal, to_compact, Decode};
use ruletest_common::wire_record;
pub use ruletest_common::PoolSection;
use std::collections::BTreeMap;

/// Invocation-cache section (mirrors the optimizer's `CacheStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSection {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

wire_record!(CacheSection {
    "evictions" => evictions,
    "hit_ratio" => hit_ratio(),
    "hits" => hits,
    "misses" => misses,
});

impl CacheSection {
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Trace-ring occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSection {
    pub recorded: u64,
    pub dropped: u64,
}

wire_record!(TraceSection { "dropped" => dropped, "recorded" => recorded });

/// Current report schema version (bump on breaking layout changes).
pub const SCHEMA_VERSION: u64 = 1;

/// Human-scale duration: picks ns/us/ms/s by magnitude.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// The aggregated campaign report.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    pub schema: u64,
    /// Per-rule firing counts by rule name: in how many *unique*
    /// optimizations (distinct `(tree, mask, budgets)` keys) the rule
    /// fired. Deduplicated counting is what keeps this identical across
    /// thread counts even when racing workers duplicate a computation.
    pub rule_firings: BTreeMap<String, u64>,
    /// All registry counters by dotted name.
    pub counters: BTreeMap<String, u64>,
    /// All registry histograms by dotted name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    pub cache: CacheSection,
    pub pool: PoolSection,
    pub trace: TraceSection,
    /// Hierarchical span profile (per-stage / per-rule wall attribution).
    pub profile: ProfileSection,
    /// Campaign wall time as measured by the caller (0 when unset).
    pub wall_seconds: f64,
}

// The sections and `wall_seconds` may be missing: reports that predate a
// section (the profiler's, say) still load as diff baselines.
wire_record!(RunReport {
    "cache" => cache: or_default,
    "counters" => counters,
    "histograms" => histograms,
    "pool" => pool: or_default,
    "profile" => profile: or_default,
    "rule_firings" => rule_firings,
    "schema" => schema,
    "trace" => trace: or_default,
    "wall_seconds" => wall_seconds via decimal: or_default,
});

impl RunReport {
    /// Builds a report from a metrics snapshot, naming rule indices with
    /// `rule_names` (indices past the table get a `rule#N` placeholder).
    pub fn from_snapshot(snapshot: &MetricsSnapshot, rule_names: &[String]) -> RunReport {
        let rule_firings = snapshot
            .rule_firings
            .iter()
            .enumerate()
            .map(|(i, &count)| {
                let name = rule_names
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| format!("rule#{i}"));
                (name, count)
            })
            .collect();
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name().to_string(), snapshot.counter(c)))
            .collect();
        let histograms = Hist::ALL
            .iter()
            .map(|&h| (h.name().to_string(), snapshot.histogram(h).clone()))
            .collect();
        RunReport {
            schema: SCHEMA_VERSION,
            rule_firings,
            counters,
            histograms,
            cache: CacheSection::default(),
            pool: PoolSection::default(),
            trace: TraceSection::default(),
            profile: ProfileSection::default(),
            wall_seconds: 0.0,
        }
    }

    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c.name()).copied().unwrap_or(0)
    }

    /// Optimizer invocations computed during the run (the Figure 14 cost
    /// metric).
    pub fn invocations(&self) -> u64 {
        self.counter(Counter::OptInvocations)
    }

    /// The report document as a parsed tree. Kept only because the
    /// benchmark (`perfbench/src/workloads.rs`, `perfbench/src/metrics.rs`)
    /// calls `.to_json().to_string_compact()` and may not be edited here;
    /// everything else writes the report with
    /// [`to_pretty`](ruletest_common::to_pretty). A benchmark PR
    /// drops it.
    pub fn to_json(&self) -> Json {
        Json::parse(&to_compact(self)).expect("a written report parses")
    }

    /// Canonical serialization of the deterministic subset only: rule
    /// firings, logical counters, and seed-determined histograms. Two
    /// campaigns with the same seed must produce byte-identical output
    /// here regardless of thread count.
    pub fn deterministic_json(&self) -> String {
        // Counters that track disk-state effects (cold vs warm cache)
        // are environmental and excluded, same as wall-clock histograms.
        let counter = |name: &str| Counter::from_name(name).is_some_and(Counter::deterministic);
        let hist = |name: &str| Hist::from_name(name).is_some_and(Hist::deterministic);
        let mut out = String::new();
        JsonWriter::compact(&mut out).object(|w| {
            w.key("counters");
            w.object(|w| {
                for (name, v) in self.counters.iter().filter(|(name, _)| counter(name)) {
                    w.member(name, v);
                }
            });
            w.key("histograms");
            w.object(|w| {
                for (name, snap) in self.histograms.iter().filter(|(name, _)| hist(name)) {
                    w.member(name, snap);
                }
            });
            w.key("profile");
            self.profile.write_deterministic(w);
            w.member("rule_firings", &self.rule_firings);
            w.member("schema", &self.schema);
        });
        out
    }

    /// Parses the text of a report document; a failure names the field
    /// (`profile.spans[3].wall_ns: expected a non-negative integer`).
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        Ok(RunReport::decode(&Json::parse(text)?)?)
    }

    /// Smoke-guard used by CI: errors if the instrumentation silently
    /// regressed (no rule firings, no cache traffic, or no invocations).
    pub fn check(&self) -> Result<(), String> {
        if self.invocations() == 0 {
            return Err("optimizer.invocations is zero — instrumentation lost".to_string());
        }
        if self.rule_firings.values().all(|&v| v == 0) {
            return Err("all per-rule firing counts are zero/absent".to_string());
        }
        if self.cache.hits + self.cache.misses == 0 {
            return Err("invocation cache saw no traffic".to_string());
        }
        if !self.profile.is_empty() {
            // Warm-cache replays carry the original compute's span
            // timings, so timing containment only holds on cold reports.
            let strict_timing = self.counter(Counter::CacheWarmHits) == 0;
            self.profile.validate_with(strict_timing)?;
        }
        Ok(())
    }

    /// Human-readable summary for `ruletest report`.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "run report (schema {})", self.schema);
        if self.wall_seconds > 0.0 {
            let _ = writeln!(out, "  wall time            {:.2}s", self.wall_seconds);
        }
        let _ = writeln!(out, "  optimizer invocations {:>10}", self.invocations());
        let _ = writeln!(
            out,
            "  cache                {:>10} hits / {} misses ({:.1}% hit ratio, {} evictions)",
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_ratio() * 100.0,
            self.cache.evictions
        );
        let _ = writeln!(
            out,
            "  generation           {:>10} trials, {} hits, {} failures, {} truncated hits rejected",
            self.counter(Counter::GenTrials),
            self.counter(Counter::GenHits),
            self.counter(Counter::GenFailures),
            self.counter(Counter::GenRejectedTruncated)
        );
        let _ = writeln!(
            out,
            "  graph probing        {:>10} oracle calls, {} edges pruned",
            self.counter(Counter::OracleCalls),
            self.counter(Counter::EdgesPruned)
        );
        let _ = writeln!(
            out,
            "  correctness          {:>10} validations, {} executions, {} identical, {} expensive, {} bugs",
            self.counter(Counter::Validations),
            self.counter(Counter::Executions),
            self.counter(Counter::SkippedIdentical),
            self.counter(Counter::SkippedExpensive),
            self.counter(Counter::CorrectnessBugs)
        );
        let supervised = self.counter(Counter::SupervisePanics)
            + self.counter(Counter::SuperviseTimeouts)
            + self.counter(Counter::SuperviseBudget);
        if supervised > 0 || self.counter(Counter::ChaosInjected) > 0 {
            let _ = writeln!(
                out,
                "  supervision          {:>10} failures absorbed: {} panics, {} timeouts, {} budget ({} quarantined, {} chaos-injected)",
                supervised,
                self.counter(Counter::SupervisePanics),
                self.counter(Counter::SuperviseTimeouts),
                self.counter(Counter::SuperviseBudget),
                self.counter(Counter::SuperviseQuarantined),
                self.counter(Counter::ChaosInjected)
            );
        }
        let proved = self.counter(Counter::ProveEquivalent)
            + self.counter(Counter::ProveInequivalent)
            + self.counter(Counter::ProveUnknown);
        if proved > 0 {
            let _ = writeln!(
                out,
                "  prover               {:>10} rules: {} equivalent, {} inequivalent, {} unknown",
                proved,
                self.counter(Counter::ProveEquivalent),
                self.counter(Counter::ProveInequivalent),
                self.counter(Counter::ProveUnknown)
            );
        }
        let _ = writeln!(
            out,
            "  pool                 {:>10} tasks over {} workers in {} stages ({} steals, {:.1}% busy)",
            self.pool.tasks,
            self.pool.workers,
            self.pool.par_calls,
            self.pool.steals,
            self.pool.utilization() * 100.0
        );
        if self.trace.recorded > 0 {
            let _ = writeln!(
                out,
                "  trace                {:>10} events recorded, {} dropped",
                self.trace.recorded, self.trace.dropped
            );
            if self.trace.dropped > 0 {
                let _ = writeln!(
                    out,
                    "  WARNING: the trace ring wrapped and overwrote {} events — raise the shard capacity to keep them",
                    self.trace.dropped
                );
            }
        }
        let populated: Vec<(&String, &HistogramSnapshot)> = self
            .histograms
            .iter()
            .filter(|(_, h)| h.count > 0)
            .collect();
        if !populated.is_empty() {
            let _ = writeln!(out, "  histograms");
            for (name, h) in populated {
                let _ = writeln!(
                    out,
                    "    {name:<34} count {:>8}  mean {:>9.1}  p50 {:>9.1}  p95 {:>9.1}  p99 {:>9.1}",
                    h.count,
                    h.mean(),
                    h.percentile(50.0),
                    h.percentile(95.0),
                    h.percentile(99.0)
                );
            }
        }
        if !self.profile.is_empty() {
            let total = self.profile.root_wall_ns();
            let _ = writeln!(
                out,
                "  profile              {:>10} span paths, {} total wall (self-time sum {})",
                self.profile.spans.len(),
                fmt_ns(total),
                fmt_ns(self.profile.total_self_ns())
            );
            let _ = writeln!(
                out,
                "    {:<40} {:>10} {:>10} {:>10}",
                "span", "calls", "wall", "self"
            );
            const MAX_SPAN_ROWS: usize = 40;
            for row in self.profile.spans.iter().take(MAX_SPAN_ROWS) {
                let label = format!("{}{}", "  ".repeat(row.depth()), row.leaf());
                let _ = writeln!(
                    out,
                    "    {label:<40} {:>10} {:>10} {:>10}",
                    row.count,
                    fmt_ns(row.wall_ns),
                    fmt_ns(row.self_ns())
                );
            }
            if self.profile.spans.len() > MAX_SPAN_ROWS {
                let _ = writeln!(
                    out,
                    "    ... {} more span paths",
                    self.profile.spans.len() - MAX_SPAN_ROWS
                );
            }
            if !self.profile.rules.is_empty() {
                let mut costly: Vec<_> = self.profile.rules.iter().collect();
                costly.sort_by(|a, b| b.1.total_ns().cmp(&a.1.total_ns()).then(a.0.cmp(b.0)));
                let _ = writeln!(
                    out,
                    "  rule costs           {:>10} (rule, phase) rows, top {} by time",
                    costly.len(),
                    costly.len().min(15)
                );
                let _ = writeln!(
                    out,
                    "    {:<40} {:>8} {:>8} {:>10} {:>10}",
                    "rule/phase", "binds", "fires", "bind", "subst"
                );
                for (name, c) in costly.iter().take(15) {
                    let _ = writeln!(
                        out,
                        "    {name:<40} {:>8} {:>8} {:>10} {:>10}",
                        c.binds,
                        c.fires,
                        fmt_ns(c.bind_ns),
                        fmt_ns(c.subst_ns)
                    );
                }
            }
        }
        let mut fired: Vec<(&String, &u64)> =
            self.rule_firings.iter().filter(|(_, &v)| v > 0).collect();
        fired.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        let _ = writeln!(out, "  rules fired          {:>10}", fired.len());
        for (name, count) in fired.iter().take(15) {
            let _ = writeln!(out, "    {name:<34} {count:>8}");
        }
        if fired.len() > 15 {
            let _ = writeln!(out, "    ... {} more", fired.len() - 15);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Members;
    use crate::metrics::Metrics;
    use ruletest_common::wire::to_pretty;

    fn sample_report() -> RunReport {
        let m = Metrics::default();
        m.add(Counter::OptInvocations, 10);
        m.add(Counter::GenTrials, 40);
        m.add(Counter::GenHits, 8);
        for t in [1u64, 2, 3, 5, 8, 13, 4, 4] {
            m.observe(Hist::GenTrialsToHit, t);
        }
        m.observe(Hist::InvocationMicros, 1500);
        m.rule_fired(0);
        m.rule_fired(0);
        m.rule_fired(2);
        let names = vec![
            "RuleA".to_string(),
            "RuleB".to_string(),
            "RuleC".to_string(),
        ];
        let mut r = RunReport::from_snapshot(&m.snapshot(), &names);
        r.cache = CacheSection {
            hits: 30,
            misses: 10,
            evictions: 1,
        };
        r.pool = PoolSection {
            par_calls: 3,
            tasks: 12,
            workers: 6,
            steals: 2,
            busy_ns: 900,
            idle_ns: 100,
        };
        r.trace = TraceSection {
            recorded: 50,
            dropped: 0,
        };
        r.wall_seconds = 1.25;
        r
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let r = sample_report();
        let text = to_pretty(&r);
        let back = RunReport::from_json(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn firing_names_resolve_and_dedup_counts_survive() {
        let r = sample_report();
        assert_eq!(r.rule_firings.get("RuleA"), Some(&2));
        assert_eq!(r.rule_firings.get("RuleB"), Some(&0));
        assert_eq!(r.rule_firings.get("RuleC"), Some(&1));
        assert_eq!(r.counter(Counter::GenTrials), 40);
        assert!((r.cache.hit_ratio() - 0.75).abs() < 1e-12);
        assert!((r.pool.utilization() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn deterministic_json_excludes_environmental_fields() {
        let mut a = sample_report();
        let mut b = sample_report();
        // Perturb everything environmental: the deterministic view must
        // not move.
        b.wall_seconds = 99.0;
        b.cache.hits = 7;
        b.pool.busy_ns = 1;
        b.trace.recorded = 0;
        b.histograms
            .get_mut(Hist::InvocationMicros.name())
            .unwrap()
            .count += 5;
        assert_eq!(a.deterministic_json(), b.deterministic_json());
        // But a logical count difference must show.
        *a.rule_firings.get_mut("RuleA").unwrap() += 1;
        assert_ne!(a.deterministic_json(), b.deterministic_json());
    }

    #[test]
    fn check_flags_dead_instrumentation() {
        let r = sample_report();
        assert!(r.check().is_ok());
        let mut dead = r.clone();
        for v in dead.rule_firings.values_mut() {
            *v = 0;
        }
        assert!(dead.check().is_err());
        let mut no_cache = r.clone();
        no_cache.cache = CacheSection::default();
        assert!(no_cache.check().is_err());
        let mut no_inv = r;
        no_inv
            .counters
            .insert(Counter::OptInvocations.name().to_string(), 0);
        assert!(no_inv.check().is_err());
    }

    #[test]
    fn summary_mentions_the_load_bearing_numbers() {
        let s = sample_report().summary();
        assert!(s.contains("invocations"));
        assert!(s.contains("RuleA"));
        assert!(s.contains("75.0% hit ratio"));
        // Percentiles of the populated histograms print alongside mean.
        assert!(s.contains("p50"), "{s}");
        assert!(s.contains("p95"), "{s}");
        assert!(s.contains("p99"), "{s}");
    }

    fn profiled_report() -> RunReport {
        use crate::span::{RuleCostRow, SpanRow};
        let mut r = sample_report();
        r.profile = ProfileSection {
            spans: vec![
                SpanRow {
                    path: "correctness".to_string(),
                    count: 4,
                    wall_ns: 9_000_000,
                    child_ns: 6_000_000,
                },
                SpanRow {
                    path: "correctness;execution".to_string(),
                    count: 8,
                    wall_ns: 6_000_000,
                    child_ns: 0,
                },
            ],
            rules: [(
                "RuleA/explore".to_string(),
                RuleCostRow {
                    binds: 12,
                    fires: 3,
                    bind_ns: 500,
                    subst_ns: 700,
                },
            )]
            .into_iter()
            .collect(),
        };
        r
    }

    #[test]
    fn profile_section_survives_the_json_roundtrip() {
        let r = profiled_report();
        let back = RunReport::from_json(&to_pretty(&r)).unwrap();
        assert_eq!(back, r);
        // Pre-profiler reports (no "profile" key) still parse.
        let mut legacy = sample_report();
        legacy.profile = ProfileSection::default();
        let json = Json::parse(&to_compact(&legacy)).unwrap();
        let fields: Members = json
            .as_obj()
            .unwrap()
            .iter()
            .filter(|(k, _)| *k != "profile")
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let back = RunReport::from_json(&to_pretty(&Json::Obj(fields))).unwrap();
        assert_eq!(back, legacy);
    }

    #[test]
    fn malformed_profile_fails_with_a_field_path() {
        let r = profiled_report();
        let mut text = to_pretty(&r);
        text = text.replace("\"wall_ns\": 6000000", "\"wall_ns\": \"fast\"");
        let err = RunReport::from_json(&text).unwrap_err();
        assert!(err.contains("profile.spans[1].wall_ns"), "{err}");
    }

    #[test]
    fn check_validates_the_profile_section() {
        let mut r = profiled_report();
        assert!(r.check().is_ok());
        // Break the parent/child accounting: check must now fail.
        r.profile.spans[0].child_ns = 1;
        let err = r.check().unwrap_err();
        assert!(err.contains("sum of children"), "{err}");
    }

    #[test]
    fn deterministic_json_keeps_span_shape_but_not_durations() {
        let a = profiled_report();
        let mut b = profiled_report();
        b.profile.spans[0].wall_ns += 12_345;
        b.profile.spans[0].child_ns += 12_345;
        let rule = b.profile.rules.get_mut("RuleA/explore").unwrap();
        rule.bind_ns = 1;
        assert_eq!(a.deterministic_json(), b.deterministic_json());
        b.profile.spans[1].count += 1;
        assert_ne!(a.deterministic_json(), b.deterministic_json());
    }

    #[test]
    fn summary_shows_stage_and_rule_profile() {
        let s = profiled_report().summary();
        assert!(s.contains("profile"), "{s}");
        assert!(s.contains("correctness"), "{s}");
        assert!(s.contains("RuleA/explore"), "{s}");
        assert!(s.contains("9.0ms"), "{s}");
    }

    #[test]
    fn summary_warns_about_dropped_trace_events() {
        let mut r = sample_report();
        assert!(!r.summary().contains("WARNING"));
        r.trace.dropped = 17;
        let s = r.summary();
        assert!(s.contains("WARNING"), "{s}");
        assert!(s.contains("17"), "{s}");
    }
}
