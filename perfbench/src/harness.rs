//! Measurement primitives shared by the workloads and the layer probes:
//! order statistics, a macro loop for seconds-long iterations, a
//! calibrated micro loop for nanosecond-scale probes, zero-dependency
//! readers for process CPU time and peak RSS, and the benchmark's own
//! in-memory span log.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Order statistics of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// The `p`-quantile (0..=1) of ascending `sorted`, linearly interpolated
/// between the two closest ranks.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        n: sorted.len(),
        min: sorted[0],
        q1: quantile(&sorted, 0.25),
        median: quantile(&sorted, 0.5),
        q3: quantile(&sorted, 0.75),
    }
}

/// Macro mode: calls `iteration(i)` until at least `min_iters` calls were
/// made and `budget` has elapsed, and returns the sample of each call:
/// what the call measured of its own timed region. The caller runs its
/// warm-up iteration itself, because the warm-up belongs to set-up.
pub fn macro_loop<T, E>(
    min_iters: usize,
    budget: Duration,
    mut iteration: impl FnMut(usize) -> Result<T, E>,
) -> Result<Vec<T>, E> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_iters || start.elapsed() < budget {
        samples.push(iteration(samples.len())?);
    }
    Ok(samples)
}

/// A fixed piece of work that uses no code of the repository (integer
/// mixing, hashing into a map, a sort, formatting): what it costs says how
/// fast this machine is right now, whatever the repository's code does.
fn reference_kernel(keys: &mut Vec<u64>, counts: &mut HashMap<u64, u64>) -> u64 {
    keys.clear();
    counts.clear();
    let mut x = 88_172_645_463_325_252u64;
    let mut acc = 0u64;
    for i in 0..1_500_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.wrapping_mul(i | 1));
    }
    for _ in 0..60_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        keys.push(x);
        *counts.entry(x % 40_000).or_insert(0) += 1;
    }
    keys.sort_unstable();
    let text: usize = keys
        .iter()
        .step_by(16)
        .map(|k| format!("{k:x}").len())
        .sum();
    acc ^ keys[keys.len() / 2] ^ counts.len() as u64 ^ text as u64
}

/// Seconds one [`reference_kernel`] call takes on an otherwise idle core
/// of the box the baseline was measured on. It only fixes the scale of the
/// time metrics (a run at that speed reports the seconds it measured);
/// every comparison is between values divided by the same constant.
const NOMINAL_KERNEL_S: f64 = 0.0045;

/// Gauge calls count towards a timed region's slowdown when they were
/// made within this many seconds of it.
const GAUGE_REACH_S: f64 = 1.0;

/// The machine's speed over the course of a run. The benchmark's box is a
/// few cores of a shared host whose speed changes by tens of percent for
/// seconds to minutes at a time; the gauge calls a fixed kernel between the
/// timed regions, and a region's time is divided by how much slower than
/// nominal the kernel ran around it.
pub struct SpeedGauge {
    origin: Instant,
    /// `(seconds since origin, seconds taken)` of every kernel call.
    calls: Vec<(f64, f64)>,
    keys: Vec<u64>,
    counts: HashMap<u64, u64>,
}

impl SpeedGauge {
    pub fn new(origin: Instant) -> SpeedGauge {
        SpeedGauge {
            origin,
            calls: Vec::new(),
            keys: Vec::new(),
            counts: HashMap::new(),
        }
    }

    /// Seconds since the gauge's origin, the clock of [`Self::slowdown`].
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Calls the kernel until `span` seconds have passed, at least once.
    pub fn sample_for(&mut self, span: f64) {
        let begin = Instant::now();
        loop {
            let at = self.now();
            let call = Instant::now();
            black_box(reference_kernel(&mut self.keys, &mut self.counts));
            self.calls.push((at, call.elapsed().as_secs_f64()));
            if begin.elapsed().as_secs_f64() >= span {
                return;
            }
        }
    }

    /// How much slower than nominal the kernel ran around the region
    /// `from..to` (gauge clock): the mean of the calls made up to
    /// [`GAUGE_REACH_S`] before or after it. The caller samples right after
    /// every region it asks about.
    pub fn slowdown(&self, from: f64, to: f64) -> f64 {
        let near: Vec<f64> = self
            .calls
            .iter()
            .filter(|(at, _)| from - GAUGE_REACH_S <= *at && *at <= to + GAUGE_REACH_S)
            .map(|(_, seconds)| *seconds)
            .collect();
        assert!(!near.is_empty(), "no gauge call near {from:.3}..{to:.3} s");
        near.iter().sum::<f64>() / near.len() as f64 / NOMINAL_KERNEL_S
    }
}

/// Desired wall-clock duration of one micro-loop sample, and of all the
/// samples of one probe (which get fewer when one call alone is long).
const TARGET_SAMPLE: Duration = Duration::from_millis(5);
const TARGET_PROBE: Duration = Duration::from_millis(60);
const MICRO_SAMPLES: std::ops::RangeInclusive<u128> = 3..=9;

/// Micro mode: calibrates an iteration count so one sample lasts about
/// [`TARGET_SAMPLE`] (the calibration passes double as warm-up), measures
/// 3 to 9 samples, and returns the median nanoseconds per call. A `smoke`
/// loop times a single call: it checks that the probe runs, not its speed.
pub fn micro_ns<R>(smoke: bool, mut f: impl FnMut() -> R) -> f64 {
    if smoke {
        let t = Instant::now();
        black_box(f());
        return t.elapsed().as_nanos() as f64;
    }
    let mut iters = 1u64;
    let sample = loop {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = t.elapsed();
        if elapsed >= TARGET_SAMPLE || iters >= 1 << 24 {
            break elapsed;
        }
        let scale = TARGET_SAMPLE.as_nanos() / elapsed.as_nanos().max(1) + 1;
        iters = (iters * scale.min(64) as u64).min(1 << 24);
    };
    let count = (TARGET_PROBE.as_nanos() / sample.as_nanos().max(1))
        .clamp(*MICRO_SAMPLES.start(), *MICRO_SAMPLES.end());
    let samples: Vec<f64> = (0..count)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    summarize(&samples).median
}

/// Linux reports process times in `USER_HZ` ticks, which the ABI fixes at
/// 100 on every architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may itself contain spaces and parentheses,
/// so fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in kB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// User + system CPU seconds this process has used so far.
pub fn cpu_seconds() -> std::io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    parse_cpu_ticks(&stat)
        .map(|t| t as f64 / TICKS_PER_SECOND)
        .ok_or_else(|| std::io::Error::other("unparseable /proc/self/stat"))
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))
}

/// One recorded span. `parent` indexes into the log; spans of one
/// iteration share `iteration`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iteration: u32,
}

/// Per-name totals over a span log.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    pub count: u64,
    pub wall_ns: u64,
    /// Wall time minus the part covered by direct children.
    pub self_ns: u64,
}

/// The benchmark's own spans, opened in the benchmark's files around each
/// call into a layer. Kept in memory and written out after the run; a
/// disabled log (untraced runs) records nothing.
pub struct SpanLog {
    enabled: Cell<bool>,
    origin: Instant,
    iteration: Cell<u32>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            enabled: Cell::new(false),
            origin: Instant::now(),
            iteration: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }
}

impl SpanLog {
    /// Switches recording on or off and tags subsequent spans with
    /// `iteration`.
    pub fn start_iteration(&self, enabled: bool, iteration: u32) {
        self.enabled.set(enabled);
        self.iteration.set(iteration);
    }

    /// Runs `f` with recording off (untimed work inside a traced run).
    pub fn suspended<R>(&self, f: impl FnOnce() -> R) -> R {
        let was = self.enabled.replace(false);
        let result = f();
        self.enabled.set(was);
        result
    }

    /// Runs `f` inside a span named `name` (a child of the innermost open
    /// span).
    pub fn scope<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                iteration: self.iteration.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let result = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        result
    }

    /// Wall and self time per span name, over every recorded iteration.
    pub fn totals(&self) -> std::collections::BTreeMap<&'static str, SpanTotal> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut totals = std::collections::BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let wall = s.end_ns - s.start_ns;
            let t: &mut SpanTotal = totals.entry(s.name).or_default();
            t.count += 1;
            t.wall_ns += wall;
            t.self_ns += wall.saturating_sub(child);
        }
        totals
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// One JSON object per span: `id`, `parent` (an id or null), `name`,
    /// `iteration`, `start_ns`, `end_ns` (both since the log was created).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"iteration\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.iteration, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.min, s.q1, s.median, s.q3), (5, 1.0, 2.0, 3.0, 4.0));
        let s = summarize(&[1.0, 2.0, 3.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 4.75));
        let s = summarize(&[7.0]);
        assert_eq!((s.min, s.q1, s.median, s.q3), (7.0, 7.0, 7.0, 7.0));
    }

    #[test]
    fn slowdown_reads_the_calls_around_a_region() {
        let mut gauge = SpeedGauge::new(Instant::now());
        gauge.sample_for(0.0);
        assert_eq!(gauge.calls.len(), 1, "a zero span still samples once");
        assert!(gauge.slowdown(0.0, 0.0) > 0.0);
        gauge.calls = vec![
            (0.0, NOMINAL_KERNEL_S),
            (9.5, 2.0 * NOMINAL_KERNEL_S),
            (12.5, 4.0 * NOMINAL_KERNEL_S),
            (30.0, NOMINAL_KERNEL_S),
        ];
        assert_eq!(gauge.slowdown(10.0, 12.0), 3.0);
        assert_eq!(gauge.slowdown(0.5, 1.0), 1.0);
    }

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (a b) c) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    137 21 0 0 20 0 3 0 123456 1000000 500 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(158));
        assert_eq!(parse_cpu_ticks("4242 (x) S 1 2"), None);
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tbench\nVmPeak:\t  200000 kB\nVmHWM:\t  101376 kB\nVmRSS:\t 9 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(101_376));
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\n"), None);
    }

    #[test]
    fn proc_readers_work_on_this_process() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn macro_loop_honours_both_the_count_and_the_budget() {
        let by_count = macro_loop::<f64, ()>(3, Duration::ZERO, |i| Ok(i as f64)).unwrap();
        assert_eq!(by_count, [0.0, 1.0, 2.0]);
        let by_budget = macro_loop::<f64, ()>(1, Duration::from_millis(20), |_| {
            std::thread::sleep(Duration::from_millis(5));
            Ok(0.005)
        })
        .unwrap();
        assert!(by_budget.len() >= 2, "{by_budget:?}");
        assert_eq!(
            macro_loop::<f64, _>(1, Duration::ZERO, |_| Err("boom")),
            Err("boom")
        );
    }

    #[test]
    fn micro_loop_reports_a_positive_time() {
        let mut n = 0u64;
        for smoke in [false, true] {
            let ns = micro_ns(smoke, || {
                n = n.wrapping_add(1);
                n
            });
            assert!(ns > 0.0);
        }
    }

    #[test]
    fn span_self_time_excludes_children() {
        let log = SpanLog::default();
        log.scope("ignored", || ());
        assert_eq!(log.len(), 0, "a disabled log records nothing");
        log.start_iteration(true, 7);
        log.scope("outer", || {
            log.scope("inner", || std::thread::sleep(Duration::from_millis(2)));
            log.scope("inner", || ());
        });
        let totals = log.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!((outer.count, inner.count), (1, 2));
        assert_eq!(outer.self_ns, outer.wall_ns - inner.wall_ns);
        assert_eq!(inner.self_ns, inner.wall_ns);
        let spans = log.spans.borrow();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.iteration == 7));
    }
}
