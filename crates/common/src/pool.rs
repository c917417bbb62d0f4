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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Process-global worker-pool statistics, collected by [`par_map`] when
/// enabled and read back into campaign run reports.
///
/// The collector lives here (not in the telemetry crate) so `common`
/// keeps zero dependencies in either direction; it is a handful of
/// atomics, costs one relaxed load per `par_map` call when disabled, and
/// aggregates across every parallel stage in the process.
pub mod poolstats {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static PAR_CALLS: AtomicU64 = AtomicU64::new(0);
    static TASKS: AtomicU64 = AtomicU64::new(0);
    static WORKERS: AtomicU64 = AtomicU64::new(0);
    static STEALS: AtomicU64 = AtomicU64::new(0);
    static BUSY_NS: AtomicU64 = AtomicU64::new(0);
    static IDLE_NS: AtomicU64 = AtomicU64::new(0);

    /// A point-in-time copy of the pool counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct PoolSnapshot {
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
        /// Worker lifetime spent outside item closures.
        pub idle_ns: u64,
    }

    pub fn enable() {
        ENABLED.store(true, Ordering::Relaxed);
    }

    pub fn disable() {
        ENABLED.store(false, Ordering::Relaxed);
    }

    pub(super) fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    pub fn snapshot() -> PoolSnapshot {
        PoolSnapshot {
            par_calls: PAR_CALLS.load(Ordering::Relaxed),
            tasks: TASKS.load(Ordering::Relaxed),
            workers: WORKERS.load(Ordering::Relaxed),
            steals: STEALS.load(Ordering::Relaxed),
            busy_ns: BUSY_NS.load(Ordering::Relaxed),
            idle_ns: IDLE_NS.load(Ordering::Relaxed),
        }
    }

    pub(super) fn record_sequential(tasks: u64) {
        TASKS.fetch_add(tasks, Ordering::Relaxed);
    }

    pub(super) fn record_call(workers: u64) {
        PAR_CALLS.fetch_add(1, Ordering::Relaxed);
        WORKERS.fetch_add(workers, Ordering::Relaxed);
    }

    pub(super) fn record_worker(tasks: u64, fair_share: u64, busy_ns: u64, lifetime_ns: u64) {
        TASKS.fetch_add(tasks, Ordering::Relaxed);
        STEALS.fetch_add(tasks.saturating_sub(fair_share), Ordering::Relaxed);
        BUSY_NS.fetch_add(busy_ns, Ordering::Relaxed);
        IDLE_NS.fetch_add(lifetime_ns.saturating_sub(busy_ns), Ordering::Relaxed);
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
/// results **in item order**.
///
/// Work distribution is a shared atomic cursor (item-granularity
/// stealing): an idle worker grabs the next unclaimed index, so uneven
/// item costs balance automatically. If `f` panics on any item, all
/// workers finish their in-flight items, and the panic resumes on the
/// caller thread (lowest failing index wins — also deterministic).
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len());
    let stats = poolstats::enabled();
    if threads <= 1 {
        if stats {
            poolstats::record_sequential(items.len() as u64);
        }
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<thread::Result<R>>> = Vec::new();
    slots.resize_with(items.len(), || None);
    let slots = Mutex::new(slots);
    if stats {
        poolstats::record_call(threads as u64);
    }
    // Even share per worker; anything a worker executes beyond this is
    // imbalance the stealing cursor moved to it ("steals" in the stats).
    let fair_share = (items.len() as u64).div_ceil(threads as u64);

    thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let born = stats.then(std::time::Instant::now);
                let mut tasks = 0u64;
                let mut busy_ns = 0u64;
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let t0 = stats.then(std::time::Instant::now);
                    let out = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
                    if let Some(t0) = t0 {
                        busy_ns += t0.elapsed().as_nanos() as u64;
                        tasks += 1;
                    }
                    slots.lock().expect("pool slots poisoned").as_mut_slice()[i] = Some(out);
                }
                if let Some(born) = born {
                    let lifetime_ns = born.elapsed().as_nanos() as u64;
                    poolstats::record_worker(tasks, fair_share, busy_ns, lifetime_ns);
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

/// Like [`par_map`] but for fallible item functions: returns the first
/// error by item order, or all results.
pub fn try_par_map<T, R, E, F>(threads: usize, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let results = par_map(threads, items, f);
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 4, 8] {
            let out = par_map(threads, &items, |i, &v| {
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
        assert!(par_map(8, &empty, |_, &v| v).is_empty());
        assert_eq!(par_map(8, &[7u32], |_, &v| v + 1), vec![8]);
    }

    #[test]
    fn par_map_actually_uses_multiple_threads() {
        let items: Vec<u32> = (0..64).collect();
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        par_map(4, &items, |_, _| {
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
            par_map(4, &items, |i, _| {
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
    fn try_par_map_returns_first_error_by_index() {
        let items: Vec<u32> = (0..100).collect();
        let r: Result<Vec<u32>, String> = try_par_map(4, &items, |i, &v| {
            if i == 41 || i == 97 {
                Err(format!("bad {i}"))
            } else {
                Ok(v)
            }
        });
        assert_eq!(r.unwrap_err(), "bad 41");
    }

    #[test]
    fn poolstats_collects_when_enabled() {
        // Global counters: other tests in this binary may run par_map
        // concurrently, so assert growth, not exact totals.
        poolstats::enable();
        let before = poolstats::snapshot();
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(4, &items, |_, &v| {
            thread::sleep(Duration::from_micros(200));
            v + 1
        });
        assert_eq!(out.len(), 64);
        let after = poolstats::snapshot();
        assert!(after.tasks >= before.tasks + 64, "tasks counted");
        assert!(after.par_calls > before.par_calls, "call counted");
        assert!(after.workers >= before.workers + 4, "workers counted");
        assert!(after.busy_ns > before.busy_ns, "busy time accrues");
        // Sequential path counts tasks too.
        let seq_before = poolstats::snapshot();
        par_map(1, &items, |_, &v| v);
        assert!(poolstats::snapshot().tasks >= seq_before.tasks + 64);
    }

    #[test]
    fn parallelism_config_defaults() {
        assert_eq!(Parallelism::single().threads, 1);
        assert_eq!(Parallelism::with_threads(0).threads, 1);
        assert!(Parallelism::default().threads >= 1);
        assert_eq!(Parallelism::default().seed, 42);
    }
}
