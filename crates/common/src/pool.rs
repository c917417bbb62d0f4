//! Hand-rolled parallel execution primitives (no external dependencies).
//!
//! The campaign loop — per-rule query generation, bipartite-graph edge
//! probing, and `Plan(q)` vs `Plan(q, ¬R)` correctness executions — is
//! embarrassingly parallel *across targets/queries* while each item's
//! computation stays a pure function of its inputs. One primitive covers
//! it: [`par_map`], a scoped, work-stealing parallel map built on
//! `std::thread::scope` and an atomic item counter. Results come back
//! **in item order**, so a campaign's output is byte-identical for any
//! thread count (determinism is delegated to the per-item seeds; see
//! [`Parallelism`]).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Worker-pool counters: [`par_map`] adds to the one it is handed. A
/// campaign's telemetry owns one, so its run report's pool section
/// counts that campaign's parallel stages and nothing else.
#[derive(Debug, Default)]
pub struct PoolStats {
    par_calls: AtomicU64,
    tasks: AtomicU64,
    workers: AtomicU64,
    steals: AtomicU64,
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
}

/// A point-in-time copy of [`PoolStats`]: the run report's pool section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolSection {
    /// `par_map` invocations that ran on more than one worker.
    pub par_calls: u64,
    /// Items executed across all calls (including sequential ones).
    pub tasks: u64,
    /// Workers launched across all calls.
    pub workers: u64,
    /// Items a worker claimed beyond its even share of a call — the
    /// imbalance the stealing cursor absorbed.
    pub steals: u64,
    /// Worker time spent inside item closures.
    pub busy_ns: u64,
    /// Worker lifetime spent outside item closures (claiming, waiting).
    pub idle_ns: u64,
}

crate::wire_record!(PoolSection {
    "par_calls" => par_calls,
    "tasks" => tasks,
    "workers" => workers,
    "steals" => steals,
    "busy_ns" => busy_ns,
    "idle_ns" => idle_ns,
} + { "utilization" => utilization });

impl PoolSection {
    /// Fraction of worker wall time spent doing work.
    pub fn utilization(&self) -> f64 {
        let total = self.busy_ns + self.idle_ns;
        if total == 0 {
            0.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }
}

impl PoolStats {
    pub fn snapshot(&self) -> PoolSection {
        let get = |n: &AtomicU64| n.load(Ordering::Relaxed);
        PoolSection {
            par_calls: get(&self.par_calls),
            tasks: get(&self.tasks),
            workers: get(&self.workers),
            steals: get(&self.steals),
            busy_ns: get(&self.busy_ns),
            idle_ns: get(&self.idle_ns),
        }
    }

    fn record_call(&self, workers: u64) {
        self.par_calls.fetch_add(1, Ordering::Relaxed);
        self.workers.fetch_add(workers, Ordering::Relaxed);
    }

    fn record_worker(&self, tasks: u64, fair_share: u64, busy_ns: u64, lifetime_ns: u64) {
        self.tasks.fetch_add(tasks, Ordering::Relaxed);
        self.steals
            .fetch_add(tasks.saturating_sub(fair_share), Ordering::Relaxed);
        self.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
        self.idle_ns
            .fetch_add(lifetime_ns.saturating_sub(busy_ns), Ordering::Relaxed);
    }
}

/// Campaign-level parallelism configuration.
///
/// `seed` is the campaign master seed: parallel stages derive each item's
/// RNG stream from `(seed, item index)` only, never from scheduling order,
/// which is what makes results reproducible at any `threads` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker threads for parallel stages (1 = fully sequential).
    pub threads: usize,
    /// Master seed parallel stages derive per-item streams from.
    pub seed: u64,
}

impl Default for Parallelism {
    fn default() -> Self {
        Self {
            threads: thread::available_parallelism().map_or(1, |n| n.get()),
            seed: 42,
        }
    }
}

impl Parallelism {
    /// Sequential execution (the reference the determinism tests compare
    /// against).
    pub fn single() -> Self {
        Self {
            threads: 1,
            ..Self::default()
        }
    }

    /// `threads` workers with the default seed.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            ..Self::default()
        }
    }
}

/// Applies `f` to every item on up to `threads` workers and returns the
/// results **in item order**, recording into `stats` when given one.
///
/// Work distribution is a shared atomic cursor (item-granularity
/// stealing): an idle worker grabs the next unclaimed index, so uneven
/// item costs balance automatically. If `f` panics on any item, all
/// workers finish their in-flight items, and the panic resumes on the
/// caller thread (lowest failing index wins — also deterministic).
pub fn par_map<T, R, F>(threads: usize, stats: Option<&PoolStats>, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        if let Some(stats) = stats {
            stats.tasks.fetch_add(items.len() as u64, Ordering::Relaxed);
        }
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<thread::Result<R>>> = Vec::new();
    slots.resize_with(items.len(), || None);
    let slots = Mutex::new(slots);
    if let Some(stats) = stats {
        stats.record_call(threads as u64);
    }
    // Even share per worker; anything a worker executes beyond this is
    // imbalance the stealing cursor moved to it ("steals" in the stats).
    let fair_share = (items.len() as u64).div_ceil(threads as u64);

    thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let born = stats.map(|_| std::time::Instant::now());
                let mut tasks = 0u64;
                let mut busy_ns = 0u64;
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let t0 = born.map(|_| std::time::Instant::now());
                    let out = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
                    if let Some(t0) = t0 {
                        busy_ns += t0.elapsed().as_nanos() as u64;
                        tasks += 1;
                    }
                    slots.lock().expect("pool slots poisoned").as_mut_slice()[i] = Some(out);
                }
                if let (Some(stats), Some(born)) = (stats, born) {
                    let lifetime_ns = born.elapsed().as_nanos() as u64;
                    stats.record_worker(tasks, fair_share, busy_ns, lifetime_ns);
                }
            });
        }
    });

    let slots = slots.into_inner().expect("pool slots poisoned");
    let mut out = Vec::with_capacity(items.len());
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.unwrap_or_else(|| panic!("par_map item {i} was never executed")) {
            Ok(r) => out.push(r),
            Err(payload) => resume_unwind(payload),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 4, 8] {
            let out = par_map(threads, None, &items, |i, &v| {
                assert_eq!(i as u64, v);
                v * v
            });
            let expected: Vec<u64> = items.iter().map(|v| v * v).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(8, None, &empty, |_, &v| v).is_empty());
        assert_eq!(par_map(8, None, &[7u32], |_, &v| v + 1), vec![8]);
    }

    #[test]
    fn par_map_actually_uses_multiple_threads() {
        let items: Vec<u32> = (0..64).collect();
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        par_map(4, None, &items, |_, _| {
            let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            thread::sleep(Duration::from_millis(2));
            concurrent.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "no overlap observed across 64 sleeping items"
        );
    }

    #[test]
    fn par_map_propagates_panics_without_deadlock() {
        let items: Vec<u32> = (0..32).collect();
        let executed = Arc::new(AtomicU64::new(0));
        let executed_in = Arc::clone(&executed);
        let result = std::panic::catch_unwind(move || {
            par_map(4, None, &items, |i, _| {
                executed_in.fetch_add(1, Ordering::Relaxed);
                if i == 5 {
                    panic!("item 5 exploded");
                }
                i
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .unwrap_or_default();
        assert!(msg.contains("item 5 exploded"), "payload: {msg}");
        // The panic did not stop the cursor: every item was claimed.
        assert_eq!(executed.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn pool_stats_count_exactly_what_their_calls_ran() {
        let stats = PoolStats::default();
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(4, Some(&stats), &items, |_, &v| {
            thread::sleep(Duration::from_micros(200));
            v + 1
        });
        assert_eq!(out.len(), 64);
        let s = stats.snapshot();
        assert_eq!((s.par_calls, s.workers, s.tasks), (1, 4, 64));
        assert!(s.steals <= 64 - 16, "at most everything past one share");
        assert!(s.busy_ns > 0, "busy time accrues");
        // The sequential path counts its tasks and no call.
        par_map(1, Some(&stats), &items, |_, &v| v);
        let s = stats.snapshot();
        assert_eq!((s.par_calls, s.workers, s.tasks), (1, 4, 128));
        // A call handed no sink records nowhere.
        par_map(4, None, &items, |_, &v| v);
        assert_eq!(stats.snapshot(), s);
    }

    #[test]
    fn parallelism_config_defaults() {
        assert_eq!(Parallelism::single().threads, 1);
        assert_eq!(Parallelism::with_threads(0).threads, 1);
        assert!(Parallelism::default().threads >= 1);
        assert_eq!(Parallelism::default().seed, 42);
    }
}
