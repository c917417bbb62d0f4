//! Run-diff regression detection: compares two [`RunReport`]s so CI can
//! gate on the perf and determinism trajectory (`ruletest diff`).
//!
//! Field classes get different treatment:
//!
//! * **deterministic** fields (counters, per-rule firings, deterministic
//!   histograms, span-tree shape, per-rule bind/fire counts) compare
//!   *exactly* — for a fixed seed they are a pure function of the code,
//!   so any drift is either nondeterminism or an unacknowledged
//!   behavioral change. Removed fields are regressions; added fields are
//!   surfaced as notes (new instrumentation is fine, silently losing it
//!   is not).
//! * **environmental** fields (wall time, per-stage span walls, cache
//!   hit ratio) compare within `threshold_pct`, and timings also get an
//!   absolute 100ms noise floor so micro-runs don't flap.
//! * wall-clock-only noise (`optimizer.invocation_micros`, span
//!   durations below stage roots, per-rule nanoseconds) is ignored.

use crate::json::JsonWriter;
use crate::metrics::{Counter, Hist};
use crate::report::RunReport;
use ruletest_common::wire::Encode;
use ruletest_common::wire_record;
use std::collections::BTreeSet;

/// Ignore timing deltas smaller than this (ns) regardless of percentage.
const TIME_FLOOR_NS: u64 = 100_000_000;
const TIME_FLOOR_SECONDS: f64 = 0.1;

/// One compared field that moved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffItem {
    /// Dotted path of the field, e.g. `counters.gen.trials`.
    pub field: String,
    pub baseline: String,
    pub current: String,
    /// Why this is (or is not) a regression.
    pub detail: String,
}

impl DiffItem {
    fn new(
        field: impl Into<String>,
        baseline: impl ToString,
        current: impl ToString,
        detail: impl Into<String>,
    ) -> DiffItem {
        DiffItem {
            field: field.into(),
            baseline: baseline.to_string(),
            current: current.to_string(),
            detail: detail.into(),
        }
    }
}

wire_record!(DiffItem {
    "baseline" => baseline,
    "current" => current,
    "detail" => detail,
    "field" => field,
});

/// The outcome of one baseline/current comparison.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiffReport {
    pub threshold_pct: u32,
    /// Gate-failing differences.
    pub regressions: Vec<DiffItem>,
    /// Informational differences (improvements, added fields).
    pub notes: Vec<DiffItem>,
}

impl DiffReport {
    pub fn regressed(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Human-readable rendering for the CLI.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run diff: baseline vs current (timing threshold ±{}%, floor {TIME_FLOOR_SECONDS}s)",
            self.threshold_pct
        );
        for item in &self.regressions {
            let _ = writeln!(
                out,
                "  REGRESSION {}: {} -> {} ({})",
                item.field, item.baseline, item.current, item.detail
            );
        }
        for item in &self.notes {
            let _ = writeln!(
                out,
                "  note       {}: {} -> {} ({})",
                item.field, item.baseline, item.current, item.detail
            );
        }
        if self.regressions.is_empty() {
            let _ = writeln!(
                out,
                "  ok: no regressions ({} informational notes)",
                self.notes.len()
            );
        } else {
            let _ = writeln!(
                out,
                "  FAILED: {} regression(s), {} note(s)",
                self.regressions.len(),
                self.notes.len()
            );
        }
        out
    }
}

/// `ruletest diff --json`'s document.
impl Encode for DiffReport {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.member("notes", &self.notes);
            w.member("regressed", &self.regressed());
            w.member("regressions", &self.regressions);
            w.member("threshold_pct", &self.threshold_pct);
        });
    }
}

fn diff_exact_maps(
    out: &mut DiffReport,
    prefix: &str,
    base: impl Iterator<Item = (String, u64)>,
    cur: impl Iterator<Item = (String, u64)>,
) {
    let base: Vec<(String, u64)> = base.collect();
    let cur: Vec<(String, u64)> = cur.collect();
    let cur_lookup: std::collections::BTreeMap<&str, u64> =
        cur.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let base_keys: BTreeSet<&str> = base.iter().map(|(k, _)| k.as_str()).collect();
    for (name, b) in &base {
        let field = format!("{prefix}.{name}");
        match cur_lookup.get(name.as_str()) {
            None => out.regressions.push(DiffItem::new(
                field,
                b,
                "absent",
                "deterministic field removed",
            )),
            Some(c) if c != b => out.regressions.push(DiffItem::new(
                field,
                b,
                c,
                "deterministic field must match exactly",
            )),
            Some(_) => {}
        }
    }
    for (name, c) in &cur {
        if !base_keys.contains(name.as_str()) {
            out.notes.push(DiffItem::new(
                format!("{prefix}.{name}"),
                "absent",
                c,
                "new field (fine; update the baseline)",
            ));
        }
    }
}

/// `current` must not exceed `base * (1 + pct/100)`, with a floor on the
/// absolute delta so tiny timings can't flap.
fn time_regressed(base_ns: u64, cur_ns: u64, pct: u32, floor_ns: u64) -> bool {
    cur_ns > base_ns.saturating_add(floor_ns)
        && cur_ns as f64 > base_ns as f64 * (1.0 + pct as f64 / 100.0)
}

/// Compares two run reports. Deterministic fields must match exactly;
/// environmental timings and ratios may drift up to `threshold_pct`.
pub fn diff_reports(base: &RunReport, cur: &RunReport, threshold_pct: u32) -> DiffReport {
    let mut out = DiffReport {
        threshold_pct,
        ..DiffReport::default()
    };
    if base.schema != cur.schema {
        out.regressions.push(DiffItem::new(
            "schema",
            base.schema,
            cur.schema,
            "schema version changed — reports are not comparable",
        ));
        return out;
    }

    // Cache-persistence counters depend on disk state (a warm run has
    // nonzero warm_hits by design), so like wall-clock histograms they
    // are excluded from the exact comparison — `ruletest diff` must be
    // able to gate a warm run against a cold baseline.
    let environmental_counter =
        |name: &str| Counter::from_name(name).is_some_and(|c| !c.deterministic());
    diff_exact_maps(
        &mut out,
        "counters",
        base.counters
            .iter()
            .filter(|(k, _)| !environmental_counter(k))
            .map(|(k, &v)| (k.clone(), v)),
        cur.counters
            .iter()
            .filter(|(k, _)| !environmental_counter(k))
            .map(|(k, &v)| (k.clone(), v)),
    );
    // Crash counters are environmental (so excluded above), but they are
    // not *noise*: a candidate run absorbing more panics/timeouts/budget
    // blowups than its baseline is a robustness regression. Any increase
    // fails the gate; a decrease is an informational improvement.
    for c in Counter::ALL.iter().filter(|c| c.crash_counter()) {
        let (b, v) = (base.counter(*c), cur.counter(*c));
        let field = format!("counters.{}", c.name());
        if v > b {
            out.regressions.push(DiffItem::new(
                field,
                b,
                v,
                "crash counter increased — new supervised failures",
            ));
        } else if v < b {
            out.notes
                .push(DiffItem::new(field, b, v, "crash counter decreased"));
        }
    }
    diff_exact_maps(
        &mut out,
        "rule_firings",
        base.rule_firings.iter().map(|(k, &v)| (k.clone(), v)),
        cur.rule_firings.iter().map(|(k, &v)| (k.clone(), v)),
    );

    // Deterministic histograms compare exactly, bucket by bucket;
    // wall-clock histograms are pure noise and are skipped.
    let environmental = |name: &str| Hist::from_name(name).is_some_and(|h| !h.deterministic());
    let base_hists: BTreeSet<&String> = base.histograms.keys().collect();
    for (name, b) in &base.histograms {
        if environmental(name) {
            continue;
        }
        let field = format!("histograms.{name}");
        match cur.histograms.get(name) {
            None => out.regressions.push(DiffItem::new(
                field,
                format!("count {}", b.count),
                "absent",
                "deterministic histogram removed",
            )),
            Some(c) if c != b => out.regressions.push(DiffItem::new(
                field,
                format!("count {} sum {}", b.count, b.sum),
                format!("count {} sum {}", c.count, c.sum),
                "deterministic histogram must match exactly",
            )),
            Some(_) => {}
        }
    }
    for name in cur.histograms.keys() {
        if !environmental(name) && !base_hists.contains(name) {
            out.notes.push(DiffItem::new(
                format!("histograms.{name}"),
                "absent",
                "present",
                "new histogram (fine; update the baseline)",
            ));
        }
    }

    // Span-tree shape (paths + counts) and per-rule bind/fire counts are
    // deterministic; durations are not compared here. A baseline written
    // before the profiler existed has no profile section at all — that
    // is a vintage gap, not a regression, so the comparison is skipped
    // with a single note instead of flagging every span as "new".
    let baseline_predates_profile = base.profile.is_empty() && !cur.profile.is_empty();
    if baseline_predates_profile {
        out.notes.push(DiffItem::new(
            "profile",
            "absent",
            format!("{} span paths", cur.profile.spans.len()),
            "baseline predates the profile section — span comparison skipped",
        ));
    } else {
        diff_exact_maps(
            &mut out,
            "profile.spans",
            base.profile.spans.iter().map(|r| (r.path.clone(), r.count)),
            cur.profile.spans.iter().map(|r| (r.path.clone(), r.count)),
        );
        diff_exact_maps(
            &mut out,
            "profile.rules",
            base.profile.rules.iter().flat_map(|(k, c)| {
                [
                    (format!("{k}.binds"), c.binds),
                    (format!("{k}.fires"), c.fires),
                ]
            }),
            cur.profile.rules.iter().flat_map(|(k, c)| {
                [
                    (format!("{k}.binds"), c.binds),
                    (format!("{k}.fires"), c.fires),
                ]
            }),
        );
    }

    // Cache hit ratio: a drop of more than threshold_pct percentage
    // points fails the gate (the cache is the campaign's main perf
    // lever). Skipped when either run took warm hits from a persistent
    // snapshot — disk answers displace in-memory hits (a resumed run may
    // skip whole stages), so the ratio no longer measures cache health.
    let warm = base.counter(Counter::CacheWarmHits) > 0 || cur.counter(Counter::CacheWarmHits) > 0;
    let (b_ratio, c_ratio) = (base.cache.hit_ratio(), cur.cache.hit_ratio());
    let ratio_drop_pp = (b_ratio - c_ratio) * 100.0;
    if !warm && ratio_drop_pp > threshold_pct as f64 {
        out.regressions.push(DiffItem::new(
            "cache.hit_ratio",
            format!("{:.1}%", b_ratio * 100.0),
            format!("{:.1}%", c_ratio * 100.0),
            format!("hit ratio dropped {ratio_drop_pp:.1}pp (threshold {threshold_pct}pp)"),
        ));
    }
    if base.cache.evictions != cur.cache.evictions {
        out.notes.push(DiffItem::new(
            "cache.evictions",
            base.cache.evictions,
            cur.cache.evictions,
            "eviction count moved (informational)",
        ));
    }

    // Overall wall time, within threshold + floor.
    if base.wall_seconds > 0.0
        && cur.wall_seconds > base.wall_seconds + TIME_FLOOR_SECONDS
        && cur.wall_seconds > base.wall_seconds * (1.0 + threshold_pct as f64 / 100.0)
    {
        out.regressions.push(DiffItem::new(
            "wall_seconds",
            format!("{:.2}s", base.wall_seconds),
            format!("{:.2}s", cur.wall_seconds),
            format!("run slowed beyond {threshold_pct}%"),
        ));
    }

    // Per-stage wall time: root span rows, within threshold + floor.
    for b_row in base.profile.spans.iter().filter(|r| r.parent().is_none()) {
        let Some(c_row) = cur.profile.spans.iter().find(|r| r.path == b_row.path) else {
            continue; // already a regression via the exact span-shape pass
        };
        if time_regressed(b_row.wall_ns, c_row.wall_ns, threshold_pct, TIME_FLOOR_NS) {
            out.regressions.push(DiffItem::new(
                format!("profile.spans.{}.wall_ns", b_row.path),
                b_row.wall_ns,
                c_row.wall_ns,
                format!("stage slowed beyond {threshold_pct}% (+{TIME_FLOOR_SECONDS}s floor)"),
            ));
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::metrics::{Counter, Metrics};
    use crate::report::CacheSection;
    use crate::span::{ProfileSection, SpanRow};
    use ruletest_common::wire::to_compact;

    fn report() -> RunReport {
        let m = Metrics::default();
        m.add(Counter::OptInvocations, 100);
        m.add(Counter::GenTrials, 400);
        m.observe(Hist::GenTrialsToHit, 4);
        m.observe(Hist::InvocationMicros, 1500);
        m.rule_fired(0);
        let names = vec!["RuleA".to_string()];
        let mut r = RunReport::from_snapshot(&m.snapshot(), &names);
        r.cache = CacheSection {
            hits: 90,
            misses: 10,
            evictions: 0,
        };
        r.wall_seconds = 2.0;
        r.profile = ProfileSection {
            spans: vec![
                SpanRow {
                    path: "generation".to_string(),
                    count: 8,
                    wall_ns: 1_000_000_000,
                    child_ns: 400_000_000,
                },
                SpanRow {
                    path: "generation;optimize".to_string(),
                    count: 100,
                    wall_ns: 400_000_000,
                    child_ns: 0,
                },
            ],
            rules: Default::default(),
        };
        r
    }

    #[test]
    fn identical_reports_pass() {
        let d = diff_reports(&report(), &report(), 10);
        assert!(!d.regressed(), "{}", d.render_text());
        assert!(d.notes.is_empty());
        assert!(d.render_text().contains("ok: no regressions"));
    }

    #[test]
    fn counter_drift_is_a_regression_in_both_directions() {
        let base = report();
        let mut cur = report();
        *cur.counters.get_mut(Counter::GenTrials.name()).unwrap() -= 1;
        let d = diff_reports(&base, &cur, 10);
        assert!(d.regressed());
        assert!(d.regressions[0].field.contains("gen.trials"));
    }

    #[test]
    fn removed_counter_regresses_but_added_counter_is_a_note() {
        let base = report();
        let mut cur = report();
        cur.counters.remove(Counter::GenTrials.name());
        cur.counters.insert("new.counter".to_string(), 5);
        let d = diff_reports(&base, &cur, 10);
        assert_eq!(d.regressions.len(), 1);
        assert!(d.regressions[0].detail.contains("removed"));
        assert_eq!(d.notes.len(), 1);
        assert!(d.notes[0].field.contains("new.counter"));
    }

    #[test]
    fn wall_clock_histogram_noise_is_ignored_but_deterministic_ones_gate() {
        let base = report();
        let mut cur = report();
        cur.histograms
            .get_mut(Hist::InvocationMicros.name())
            .unwrap()
            .sum += 999;
        assert!(!diff_reports(&base, &cur, 10).regressed());
        let mut cur = report();
        cur.histograms
            .get_mut(Hist::GenTrialsToHit.name())
            .unwrap()
            .sum += 1;
        assert!(diff_reports(&base, &cur, 10).regressed());
    }

    #[test]
    fn hit_ratio_gates_on_percentage_points() {
        let base = report();
        let mut cur = report();
        cur.cache.hits = 60; // 90% -> 85.7%: inside a 10pp threshold
        assert!(!diff_reports(&base, &cur, 10).regressed());
        cur.cache.hits = 10; // 50%: 40pp drop
        let d = diff_reports(&base, &cur, 10);
        assert!(d.regressed());
        assert!(d.regressions[0].field.contains("hit_ratio"));
    }

    #[test]
    fn hit_ratio_is_not_gated_for_warm_cache_runs() {
        let base = report();
        let mut cur = report();
        cur.cache.hits = 10; // 40pp drop, but the run was disk-warmed:
        cur.counters
            .insert(Counter::CacheWarmHits.name().to_string(), 25);
        let d = diff_reports(&base, &cur, 10);
        assert!(!d.regressed(), "{}", d.render_text());
    }

    #[test]
    fn stage_timing_gates_within_threshold_and_floor() {
        let base = report();
        let mut cur = report();
        // +5% on a 1s stage: inside a 25% threshold.
        cur.profile.spans[0].wall_ns = 1_050_000_000;
        assert!(!diff_reports(&base, &cur, 25).regressed());
        // +60%: beyond it.
        cur.profile.spans[0].wall_ns = 1_600_000_000;
        let d = diff_reports(&base, &cur, 25);
        assert!(d.regressed());
        assert!(d.regressions[0].field.contains("generation"));
        // A huge relative jump under the 100ms floor stays quiet.
        let mut tiny_base = report();
        tiny_base.profile.spans[0].wall_ns = 1_000_000;
        tiny_base.profile.spans[0].child_ns = 0;
        let mut tiny_cur = report();
        tiny_cur.profile.spans[0].wall_ns = 50_000_000;
        tiny_cur.profile.spans[0].child_ns = 0;
        assert!(!diff_reports(&tiny_base, &tiny_cur, 25).regressed());
    }

    #[test]
    fn span_shape_change_is_a_regression() {
        let base = report();
        let mut cur = report();
        cur.profile.spans[1].count += 1;
        let d = diff_reports(&base, &cur, 10);
        assert!(d.regressed());
        assert!(d.regressions[0].field.contains("generation;optimize"));
        let mut cur = report();
        cur.profile.spans.pop();
        assert!(diff_reports(&base, &cur, 10).regressed());
    }

    #[test]
    fn wall_seconds_gates_with_threshold() {
        let base = report();
        let mut cur = report();
        cur.wall_seconds = 2.1; // +5%: fine at 10%
        assert!(!diff_reports(&base, &cur, 10).regressed());
        cur.wall_seconds = 3.0; // +50%
        let d = diff_reports(&base, &cur, 10);
        assert!(d.regressed());
        assert!(d.regressions[0].field.contains("wall_seconds"));
    }

    #[test]
    fn crash_counter_increase_fails_the_gate_but_decrease_is_a_note() {
        let base = report();
        let mut cur = report();
        cur.counters
            .insert(Counter::SupervisePanics.name().to_string(), 2);
        let d = diff_reports(&base, &cur, 10);
        assert!(d.regressed(), "{}", d.render_text());
        assert!(d.regressions[0].field.contains("supervise.panics"));
        assert!(d.regressions[0].detail.contains("crash counter"));
        // Direction matters: fewer crashes than baseline is an improvement.
        let mut noisy_base = report();
        noisy_base
            .counters
            .insert(Counter::SuperviseTimeouts.name().to_string(), 3);
        let d = diff_reports(&noisy_base, &report(), 10);
        assert!(!d.regressed(), "{}", d.render_text());
        assert!(d
            .notes
            .iter()
            .any(|n| n.field.contains("supervise.timeouts")));
        // Chaos injections are environmental but not crash-gated: a chaos
        // run diffed against a clean baseline only fails on real fallout.
        let mut chaotic = report();
        chaotic
            .counters
            .insert(Counter::ChaosInjected.name().to_string(), 50);
        assert!(!diff_reports(&base, &chaotic, 10).regressed());
    }

    #[test]
    fn schema_mismatch_short_circuits() {
        let base = report();
        let mut cur = report();
        cur.schema += 1;
        let d = diff_reports(&base, &cur, 10);
        assert_eq!(d.regressions.len(), 1);
        assert_eq!(d.regressions[0].field, "schema");
    }

    #[test]
    fn json_output_is_machine_readable() {
        let base = report();
        let mut cur = report();
        *cur.counters.get_mut(Counter::GenTrials.name()).unwrap() += 1;
        let d = diff_reports(&base, &cur, 10);
        let j = Json::parse(&to_compact(&d)).unwrap();
        assert_eq!(j.get("regressed").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("threshold_pct").and_then(Json::as_u64), Some(10));
        let regs = j.get("regressions").and_then(Json::as_arr).unwrap();
        assert_eq!(regs.len(), 1);
        assert!(regs[0]
            .get("field")
            .and_then(Json::as_str)
            .unwrap()
            .contains("gen.trials"));
    }
}
