//! Atomic metrics registry: named counters and fixed-bucket histograms.
//!
//! The registry is a *closed* set of metrics (enums, not string lookup):
//! the hot optimizer path pays one enum-indexed `fetch_add` per
//! observation, no hashing, no locking. Per-rule firing counts live in a
//! fixed atomic array indexed by `RuleId` so the fire site is a single
//! relaxed add too.

use ruletest_common::{wire_names, wire_record};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters tracked by the registry.
///
/// Everything here is a *logical count* — deterministic for a fixed seed
/// and thread count (and, for all campaign-pipeline counters, across
/// thread counts too). Wall-clock quantities never become counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Optimizer invocations actually computed (the §5.3.1 / Figure 14
    /// cost metric; cache hits do not count).
    OptInvocations,
    /// Invocations that hit a search budget.
    OptTruncated,
    /// Exploration-rule fire sites that produced at least one new
    /// expression (raw, per compute — see `RunReport::rule_firings` for
    /// the deduplicated per-unique-optimization counts).
    RuleFiresExplore,
    /// Implementation-rule apply sites that produced candidates.
    RuleFiresImplement,
    /// Generation trials attempted (each one optimizes a candidate tree).
    GenTrials,
    /// Generation problems solved (a query exercising the target found).
    GenHits,
    /// Generation problems exhausted without a hit.
    GenFailures,
    /// Generation hits a suite dropped because their search stopped at the
    /// memo cap (a suite keeps only fixpoint searches, §5.2).
    GenRejectedTruncated,
    /// Edge-cost probes the §5.3.1 monotonicity bound skipped.
    EdgesPruned,
    /// Edge-cost probes actually computed by the edge oracle.
    OracleCalls,
    /// `(target, query)` correctness validations attempted.
    Validations,
    /// Plans executed against the test database.
    Executions,
    /// Validations skipped because the plans were identical (footnote 1).
    SkippedIdentical,
    /// Validations skipped because execution exceeded the work budget.
    SkippedExpensive,
    /// Validations skipped because the executor refused the masked plan
    /// (`Error::Unsupported`), distinct from budget skips.
    SkippedUnsupported,
    /// Correctness bugs detected.
    CorrectnessBugs,
    /// Bug witnesses fully minimized by triage.
    BugsMinimized,
    /// Accepted shrink steps across all triage minimizations.
    MinimizationSteps,
    /// Findings collapsed into an existing bug signature by triage dedup.
    DuplicatesCollapsed,
    /// Mutants killed by the mutation campaign (statically or dynamically,
    /// per their expected verdict).
    MutantsKilled,
    /// Expected-detectable mutants that survived the mutation campaign.
    MutantsSurvived,
    /// Mutants invisible to the static linter but caught by dynamic
    /// differential execution (the lint-escape matrix rows).
    LintEscapes,
    /// Invocation-cache entries written to a disk snapshot.
    /// Environmental: depends on whether `--cache-dir` is set.
    CachePersisted,
    /// Cache probes answered from a warm (disk-loaded) entry.
    /// Environmental: zero on a cold run, nonzero on a warm one.
    CacheWarmHits,
    /// Snapshots discarded because the campaign fingerprint (catalog,
    /// rule catalog, seed, scale) no longer matches. Environmental.
    CacheFingerprintRejected,
    /// Rules proved equivalent by the symbolic prover (normal forms match).
    ProveEquivalent,
    /// Rules the symbolic prover refuted with a symbolic counterexample.
    ProveInequivalent,
    /// Rules outside the prover's decidable fragment (fall back to the
    /// concrete-corpus auditor).
    ProveUnknown,
    /// Optimizer/executor invocations that escaped a panic into the
    /// supervisor sandbox. Environmental: panics can come from injected
    /// chaos or wall-clock-dependent state, so crash counters stay out of
    /// the deterministic fingerprint — `ruletest diff` instead treats any
    /// increase as a hard regression.
    SupervisePanics,
    /// Invocations abandoned at a cooperative deadline check.
    /// Environmental (wall clock).
    SuperviseTimeouts,
    /// Invocations abandoned by a hard memo/work budget under supervision.
    /// Environmental (depends on supervision flags and chaos pressure).
    SuperviseBudget,
    /// Inputs quarantined after a supervised failure (skipped on resume).
    /// Environmental.
    SuperviseQuarantined,
    /// Faults injected by the chaos engine. Environmental: zero unless a
    /// chaos plan is installed.
    ChaosInjected,
}

wire_names!(Counter {
    OptInvocations => "optimizer.invocations",
    OptTruncated => "optimizer.truncated",
    RuleFiresExplore => "rules.explore_fires",
    RuleFiresImplement => "rules.implement_fires",
    GenTrials => "gen.trials",
    GenHits => "gen.hits",
    GenFailures => "gen.failures",
    GenRejectedTruncated => "gen.rejected_truncated",
    EdgesPruned => "graph.edges_pruned",
    OracleCalls => "graph.oracle_calls",
    Validations => "correctness.validations",
    Executions => "correctness.executions",
    SkippedIdentical => "correctness.skipped_identical",
    SkippedExpensive => "correctness.skipped_expensive",
    SkippedUnsupported => "correctness.skipped_unsupported",
    CorrectnessBugs => "correctness.bugs",
    BugsMinimized => "triage.bugs_minimized",
    MinimizationSteps => "triage.minimization_steps",
    DuplicatesCollapsed => "triage.duplicates_collapsed",
    MutantsKilled => "mutate.killed",
    MutantsSurvived => "mutate.survived",
    LintEscapes => "mutate.lint_escapes",
    CachePersisted => "cache.persisted",
    CacheWarmHits => "cache.warm_hits",
    CacheFingerprintRejected => "cache.fingerprint_rejected",
    ProveEquivalent => "prove.equivalent",
    ProveInequivalent => "prove.inequivalent",
    ProveUnknown => "prove.unknown",
    SupervisePanics => "supervise.panics",
    SuperviseTimeouts => "supervise.timeouts",
    SuperviseBudget => "supervise.budget",
    SuperviseQuarantined => "supervise.quarantined",
    ChaosInjected => "chaos.injected",
});

impl Counter {
    pub const COUNT: usize = Counter::ALL.len();

    /// Supervision crash counters: any *increase* in one of these between
    /// a baseline and a candidate run is a regression in `ruletest diff`,
    /// even though (being environmental) they are excluded from the
    /// deterministic fingerprint.
    pub fn crash_counter(self) -> bool {
        matches!(
            self,
            Counter::SupervisePanics
                | Counter::SuperviseTimeouts
                | Counter::SuperviseBudget
                | Counter::SuperviseQuarantined
        )
    }

    /// Whether the count is a pure function of seed + inputs. The cache
    /// persistence counters depend on disk state (cold vs warm start), so
    /// they are excluded from the deterministic report fingerprint, like
    /// wall-clock histograms.
    pub fn deterministic(self) -> bool {
        !matches!(
            self,
            Counter::CachePersisted
                | Counter::CacheWarmHits
                | Counter::CacheFingerprintRejected
                | Counter::SupervisePanics
                | Counter::SuperviseTimeouts
                | Counter::SuperviseBudget
                | Counter::SuperviseQuarantined
                | Counter::ChaosInjected
        )
    }
}

/// Fixed-bucket histograms tracked by the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Trials needed per solved generation problem (count == `GenHits`).
    GenTrialsToHit,
    /// Memo group count per computed invocation (count == `OptInvocations`).
    MemoGroups,
    /// Memo expression count per computed invocation.
    MemoExprs,
    /// Invocation wall time in microseconds (count == `OptInvocations`).
    /// Wall-clock: excluded from the deterministic report fingerprint.
    InvocationMicros,
}

wire_names!(Hist {
    GenTrialsToHit => "gen.trials_to_hit",
    MemoGroups => "optimizer.memo_groups",
    MemoExprs => "optimizer.memo_exprs",
    InvocationMicros => "optimizer.invocation_micros",
});

impl Hist {
    pub const COUNT: usize = Hist::ALL.len();

    /// Whether bucket contents are a pure function of seed + inputs.
    pub fn deterministic(self) -> bool {
        !matches!(self, Hist::InvocationMicros)
    }
}

/// Number of power-of-two buckets per histogram: bucket `i` counts values
/// in `[2^i, 2^(i+1))` (bucket 0 also takes 0). 32 buckets cover every
/// campaign quantity (counts, memo sizes, microseconds) with headroom.
pub const HIST_BUCKETS: usize = 32;

/// Lock-free fixed-bucket histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a value: `floor(log2(v))`, clamped to the last bucket.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (63 - value.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

impl Histogram {
    pub fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Percentile estimate (`p` in 0–100), linearly interpolated inside
    /// the covering power-of-two bucket. Bucket `i` spans `[2^i, 2^(i+1))`
    /// (bucket 0 starts at 0), so the estimate is exact at bucket bounds
    /// and at worst off by the bucket width inside one.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (p / 100.0).clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            let before = seen as f64;
            seen += b;
            if seen as f64 >= target {
                let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
                let hi = if i + 1 >= 64 {
                    u64::MAX as f64
                } else {
                    (1u64 << (i + 1)) as f64
                };
                let frac = ((target - before) / b as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * frac;
            }
        }
        // Unreachable when count > 0, but stay total.
        0.0
    }
}

wire_record!(HistogramSnapshot {
    "buckets" => buckets via trimmed_buckets,
    "count" => count,
    "sum" => sum,
});

/// `via trimmed_buckets`: the fixed bucket array with its trailing empty
/// buckets trimmed on the way out and restored on the way in.
mod trimmed_buckets {
    use super::HIST_BUCKETS;
    use ruletest_common::wire::{Decode, DecodeError, Encode};
    use ruletest_common::{Json, JsonWriter};

    pub fn encode(buckets: &[u64; HIST_BUCKETS], w: &mut JsonWriter<'_>) {
        let used = buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        buckets[..used].encode(w);
    }

    pub fn decode(j: &Json) -> Result<[u64; HIST_BUCKETS], DecodeError> {
        let written = Vec::<u64>::decode(j)?;
        if written.len() > HIST_BUCKETS {
            return Err(DecodeError::new(format!(
                "{} buckets (max {HIST_BUCKETS})",
                written.len()
            )));
        }
        let mut buckets = [0u64; HIST_BUCKETS];
        buckets[..written.len()].copy_from_slice(&written);
        Ok(buckets)
    }
}

/// Upper bound on `RuleId` values the per-rule firing array accepts. The
/// catalog has ~54 rules; firings for ids beyond the array (impossible
/// today) are silently dropped rather than panicking a campaign.
pub const MAX_RULES: usize = 512;

/// The registry itself: all counters, histograms, and per-rule firings.
pub struct Metrics {
    counters: [AtomicU64; Counter::COUNT],
    histograms: [Histogram; Hist::COUNT],
    rule_firings: Box<[AtomicU64; MAX_RULES]>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            histograms: std::array::from_fn(|_| Histogram::default()),
            rule_firings: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }
}

impl Metrics {
    #[inline]
    pub fn add(&self, c: Counter, v: u64) {
        self.counters[c as usize].fetch_add(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    #[inline]
    pub fn observe(&self, h: Hist, value: u64) {
        self.histograms[h as usize].observe(value);
    }

    pub fn histogram(&self, h: Hist) -> HistogramSnapshot {
        self.histograms[h as usize].snapshot()
    }

    /// Counts one firing of `rule` in a unique optimization.
    #[inline]
    pub fn rule_fired(&self, rule: u16) {
        if let Some(slot) = self.rule_firings.get(rule as usize) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Per-rule firing counts, trimmed to the highest rule that fired.
    pub fn rule_firings(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .rule_firings
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect();
        while v.last() == Some(&0) {
            v.pop();
        }
        v
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: Counter::ALL.map(|c| self.counter(c)),
            histograms: Hist::ALL.map(|h| self.histogram(h)),
            rule_firings: self.rule_firings(),
        }
    }
}

/// A point-in-time copy of the whole registry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Indexed by `Counter as usize`.
    pub counters: [u64; Counter::COUNT],
    /// Indexed by `Hist as usize`.
    pub histograms: [HistogramSnapshot; Hist::COUNT],
    /// Indexed by `RuleId`, trimmed.
    pub rule_firings: Vec<u64>,
}

impl MetricsSnapshot {
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    pub fn histogram(&self, h: Hist) -> &HistogramSnapshot {
        &self.histograms[h as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruletest_common::{to_compact, Decode, Json};

    #[test]
    fn counters_accumulate() {
        let m = Metrics::default();
        m.add(Counter::GenTrials, 3);
        m.add(Counter::GenTrials, 4);
        m.add(Counter::OracleCalls, 1);
        assert_eq!(m.counter(Counter::GenTrials), 7);
        assert_eq!(m.counter(Counter::OracleCalls), 1);
        assert_eq!(m.counter(Counter::Validations), 0);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_bucket_sum_equals_count() {
        let h = Histogram::default();
        for v in [0u64, 1, 1, 5, 200, 1 << 40] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
        assert_eq!(snap.sum, 207 + (1 << 40));
        let rt = HistogramSnapshot::decode(&Json::parse(&to_compact(&snap)).unwrap()).unwrap();
        assert_eq!(rt, snap);
    }

    #[test]
    fn percentiles_interpolate_within_bucket_bounds() {
        let h = Histogram::default();
        // 10 observations of 5 → all in bucket 2, which spans [4, 8).
        for _ in 0..10 {
            h.observe(5);
        }
        let snap = h.snapshot();
        // p50 lands halfway into the bucket: 4 + (8-4)*0.5.
        assert!((snap.percentile(50.0) - 6.0).abs() < 1e-9);
        // p0/p100 pin to the bucket bounds.
        assert!((snap.percentile(0.0) - 4.0).abs() < 1e-9);
        assert!((snap.percentile(100.0) - 8.0).abs() < 1e-9);
        // Monotone in p across a multi-bucket distribution.
        let h = Histogram::default();
        for v in [1u64, 2, 3, 5, 8, 13, 40, 100, 300, 2000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        let (p50, p95, p99) = (
            snap.percentile(50.0),
            snap.percentile(95.0),
            snap.percentile(99.0),
        );
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // p95 of ten values must land in the top bucket's range.
        assert!(p95 >= 1024.0 && p99 <= 4096.0, "{p95} {p99}");
        // Empty histogram: defined, zero.
        assert_eq!(
            HistogramSnapshot::decode(
                &Json::parse(&to_compact(&Histogram::default().snapshot())).unwrap()
            )
            .unwrap()
            .percentile(50.0),
            0.0
        );
    }

    #[test]
    fn rule_firings_trim_and_bounds() {
        let m = Metrics::default();
        m.rule_fired(2);
        m.rule_fired(2);
        m.rule_fired(5);
        m.rule_fired(60000); // out of range: dropped, not a panic
        assert_eq!(m.rule_firings(), vec![0, 0, 2, 0, 0, 1]);
    }

    #[test]
    fn counter_names_are_unique_and_enum_indexes_match() {
        let mut names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i);
        }
    }

    #[test]
    fn concurrent_observations_are_not_lost() {
        let m = std::sync::Arc::new(Metrics::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        m.add(Counter::GenTrials, 1);
                        m.observe(Hist::GenTrialsToHit, i % 17);
                        m.rule_fired((i % 8) as u16);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.counter(Counter::GenTrials), 4000);
        let snap = m.histogram(Hist::GenTrialsToHit);
        assert_eq!(snap.count, 4000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 4000);
        assert_eq!(m.rule_firings().iter().sum::<u64>(), 4000);
    }
}
