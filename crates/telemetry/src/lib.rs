//! Campaign telemetry for the `ruletest` workspace — std-only (its one
//! dependency is `ruletest-common`, for the JSON value model and the wire
//! codec), and near-free when disabled.
//!
//! The paper's framework is an *instrumented* optimizer: §3 needs
//! per-query rule traces, and §5 / Figure 14 measures campaigns in
//! optimizer invocations and logical edge counts. This crate is the
//! measurement backbone:
//!
//! * [`Metrics`] — a registry of atomic counters and power-of-two-bucket
//!   histograms ([`Counter`] / [`Hist`]), cheap enough for the hot
//!   optimizer path (one relaxed `fetch_add` per observation);
//! * [`Tracer`] — a lock-sharded ring-buffered structured event tracer
//!   with JSONL export ([`Event`]);
//! * [`RunReport`] — one JSON document aggregating a whole campaign
//!   (per-rule firing counts, trials-to-hit distributions, cache hit
//!   ratio, edge counts, pool utilization, wall time); the handle owns
//!   the worker-pool counters its campaign's parallel stages record into.
//!
//! Everything hangs off a cloneable [`Telemetry`] handle. A *disabled*
//! handle holds no allocation at all — every recording method is a single
//! `Option` branch — so instrumented code paths cost nothing measurable
//! when telemetry is off, which is what keeps the Figure 11–14
//! reproductions and the campaign determinism guarantees unchanged.

pub mod diff;
pub mod metrics;
pub mod report;
pub mod span;
pub mod trace;

pub use diff::{diff_reports, DiffItem, DiffReport};
pub use metrics::{
    bucket_index, Counter, Hist, Histogram, HistogramSnapshot, Metrics, MetricsSnapshot,
    HIST_BUCKETS, MAX_RULES,
};
pub use report::{CacheSection, PoolSection, RunReport, TraceSection, SCHEMA_VERSION};
pub use ruletest_common::json::{self, Json};
pub use span::{
    ProfileSample, ProfileSection, Profiler, RuleCostRow, SampleClock, SpanGuard, SpanRow, Stage,
};
pub use trace::{Event, RulePhase, TraceStats, Tracer, DEFAULT_SHARD_CAPACITY};

use ruletest_common::PoolStats;
use std::io;
use std::sync::Arc;

struct Inner {
    metrics: Metrics,
    tracer: Option<Tracer>,
    profiler: Arc<Profiler>,
    pool: PoolStats,
}

/// Shared telemetry handle. Clones share one registry/tracer; a disabled
/// handle is `None` inside and compiles recording calls down to a branch.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Telemetry(disabled)"),
            Some(i) => write!(
                f,
                "Telemetry(metrics{})",
                if i.tracer.is_some() { "+tracer" } else { "" }
            ),
        }
    }
}

impl Telemetry {
    /// The no-op handle: records nothing, allocates nothing.
    pub const fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    fn with(tracer: Option<Tracer>) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                metrics: Metrics::default(),
                tracer,
                profiler: Arc::new(Profiler::default()),
                pool: PoolStats::default(),
            })),
        }
    }

    /// Metrics registry only (no event tracer, no ring allocation).
    pub fn metrics_only() -> Telemetry {
        Telemetry::with(None)
    }

    /// Metrics registry plus an event tracer retaining up to
    /// `shard_capacity` events per shard (16 shards).
    pub fn with_tracing(shard_capacity: usize) -> Telemetry {
        Telemetry::with(Some(Tracer::new(shard_capacity)))
    }

    /// Metrics plus a default-capacity tracer.
    pub fn enabled() -> Telemetry {
        Telemetry::with_tracing(DEFAULT_SHARD_CAPACITY)
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// True when structured events are being retained (not just metrics).
    #[inline]
    pub fn tracing(&self) -> bool {
        matches!(&self.inner, Some(i) if i.tracer.is_some())
    }

    #[inline]
    pub fn incr(&self, c: Counter) {
        if let Some(i) = &self.inner {
            i.metrics.add(c, 1);
        }
    }

    #[inline]
    pub fn add(&self, c: Counter, v: u64) {
        if let Some(i) = &self.inner {
            i.metrics.add(c, v);
        }
    }

    /// Current counter value (0 when disabled).
    pub fn counter(&self, c: Counter) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.metrics.counter(c))
    }

    #[inline]
    pub fn observe(&self, h: Hist, value: u64) {
        if let Some(i) = &self.inner {
            i.metrics.observe(h, value);
        }
    }

    /// Counts each rule of a unique optimization's rule set as one firing.
    #[inline]
    pub fn record_rule_set<I: IntoIterator<Item = u16>>(&self, rules: I) {
        if let Some(i) = &self.inner {
            for rule in rules {
                i.metrics.rule_fired(rule);
            }
        }
    }

    /// Records a structured event. The closure runs only when a tracer is
    /// attached, so fire sites pay nothing to *build* events when tracing
    /// is off.
    #[inline]
    pub fn event(&self, build: impl FnOnce() -> Event) {
        if let Some(i) = &self.inner {
            if let Some(tracer) = &i.tracer {
                tracer.record(build());
            }
        }
    }

    pub fn trace_stats(&self) -> TraceStats {
        self.inner
            .as_ref()
            .and_then(|i| i.tracer.as_ref())
            .map_or(TraceStats::default(), |t| t.stats())
    }

    /// Writes retained trace events as JSONL (no-op when not tracing).
    pub fn export_trace<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        if let Some(tracer) = self.inner.as_ref().and_then(|i| i.tracer.as_ref()) {
            tracer.export_jsonl(w)?;
        }
        Ok(())
    }

    /// Point-in-time copy of the registry (empty when disabled).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner
            .as_ref()
            .map_or_else(|| Metrics::default().snapshot(), |i| i.metrics.snapshot())
    }

    /// Opens a hierarchical profiling span attributed to `stage` on the
    /// current thread. The returned RAII guard closes it; disabled
    /// handles hand back an inert guard.
    #[inline]
    pub fn span(&self, stage: Stage) -> SpanGuard {
        match &self.inner {
            Some(i) => Profiler::enter(&i.profiler, span::SpanKey::Stage(stage)),
            None => SpanGuard::noop(),
        }
    }

    /// Opens a per-rule profiling span on the current thread, nested
    /// under whatever stage span is active (the symbolic prover uses
    /// this to attribute proof time rule by rule under `Stage::Prove`).
    #[inline]
    pub fn rule_span(&self, rule: u16) -> SpanGuard {
        match &self.inner {
            Some(i) => Profiler::enter(
                &i.profiler,
                span::SpanKey::Rule {
                    rule,
                    phase: RulePhase::Explore,
                },
            ),
            None => SpanGuard::noop(),
        }
    }

    /// Books one optimizer invocation's profile under the current
    /// thread's span stack, counting `invocations` (see
    /// [`Profiler::flush_optimize`]).
    #[inline]
    pub fn flush_profile(&self, sample: &ProfileSample, invocations: u64) {
        if let Some(i) = &self.inner {
            i.profiler.flush_optimize(sample, invocations);
        }
    }

    /// Snapshot of the aggregated span/rule-cost profile (empty when
    /// disabled).
    pub fn profile_section(&self, rule_names: &[String]) -> ProfileSection {
        self.inner
            .as_ref()
            .map_or_else(ProfileSection::default, |i| i.profiler.section(rule_names))
    }

    /// The worker-pool counters parallel stages record into (`None`
    /// when disabled): hand it to `par_map`.
    #[inline]
    pub fn pool_stats(&self) -> Option<&PoolStats> {
        self.inner.as_ref().map(|i| &i.pool)
    }

    /// Builds the aggregate report from the current registry state,
    /// including the trace, profile and pool sections this handle owns;
    /// the caller fills the cache and wall sections it owns.
    pub fn run_report(&self, rule_names: &[String]) -> RunReport {
        let mut report = RunReport::from_snapshot(&self.metrics_snapshot(), rule_names);
        report.pool = self
            .pool_stats()
            .map(PoolStats::snapshot)
            .unwrap_or_default();
        let stats = self.trace_stats();
        report.trace = TraceSection {
            recorded: stats.recorded,
            dropped: stats.dropped,
        };
        report.profile = self.profile_section(rule_names);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert!(!t.tracing());
        t.incr(Counter::GenTrials);
        t.observe(Hist::GenTrialsToHit, 3);
        t.record_rule_set([1, 2, 3]);
        t.event(|| unreachable!("event closures must not run when disabled"));
        assert_eq!(t.counter(Counter::GenTrials), 0);
        assert_eq!(t.trace_stats(), TraceStats::default());
        let snap = t.metrics_snapshot();
        assert!(snap.rule_firings.is_empty());
        let mut buf = Vec::new();
        t.export_trace(&mut buf).unwrap();
        assert!(buf.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::enabled();
        let u = t.clone();
        u.incr(Counter::GenTrials);
        t.add(Counter::GenTrials, 2);
        assert_eq!(t.counter(Counter::GenTrials), 3);
        u.event(|| Event::CacheLookup {
            fingerprint: 9,
            hit: false,
        });
        assert_eq!(t.trace_stats().recorded, 1);
    }

    #[test]
    fn metrics_only_skips_the_tracer() {
        let t = Telemetry::metrics_only();
        assert!(t.is_enabled());
        assert!(!t.tracing());
        t.event(|| unreachable!("no tracer attached"));
        t.incr(Counter::OptInvocations);
        assert_eq!(t.counter(Counter::OptInvocations), 1);
    }

    #[test]
    fn run_report_carries_registry_contents() {
        let t = Telemetry::enabled();
        t.add(Counter::OptInvocations, 4);
        t.record_rule_set([0, 1]);
        t.record_rule_set([0]);
        let names = vec!["A".to_string(), "B".to_string()];
        let r = t.run_report(&names);
        assert_eq!(r.invocations(), 4);
        assert_eq!(r.rule_firings.get("A"), Some(&2));
        assert_eq!(r.rule_firings.get("B"), Some(&1));
    }

    #[test]
    fn run_report_pool_section_counts_this_handle_only() {
        let (a, b) = (Telemetry::metrics_only(), Telemetry::metrics_only());
        let items = [0u8; 8];
        ruletest_common::par_map(2, a.pool_stats(), &items, |_, &v| v);
        ruletest_common::par_map(1, b.pool_stats(), &items[..3], |_, &v| v);
        assert_eq!(a.run_report(&[]).pool.tasks, 8);
        assert_eq!(b.run_report(&[]).pool.tasks, 3);
        assert!(Telemetry::disabled().pool_stats().is_none());
    }
}
