//! What the benchmark's database costs in requested bytes: the peak while
//! `tpch_database` builds scale 256 (140,045 rows) and what stays live
//! afterwards, under ceilings about 10 % above what ISSUE 21 measured.
//!
//! Bytes requested from the allocator are exact and repeat from run to run,
//! unlike the resident set the benchmark reads (which also depends on what
//! the allocator keeps after a free), so a change that re-grows the database
//! fails here rather than in a benchmark's noise. This is the binary's only
//! test: the counters are process-wide, fed by the test's thread alone.

use ruletest_storage::{tpch_database, TpchConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

const BUILD_PEAK_CEILING: usize = 36_000_000; // measured 32,839,935 (was 81,368,464)
const RESIDENT_CEILING: usize = 33_000_000; // measured 29,997,583 (was 51,259,919)

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the test's thread only: the harness's own thread allocates
    /// (its output buffers) whenever it likes and must not be counted.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

fn resized(from: usize, to: usize) {
    if COUNTED.with(Cell::get) {
        let live = LIVE.load(Relaxed) + to - from;
        LIVE.store(live, Relaxed);
        PEAK.fetch_max(live, Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            resized(0, layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        resized(layout.size(), 0);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            resized(layout.size(), new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Builds the database; returns it with the build's peak and the bytes it
/// leaves live, both over what was live before.
fn measured_build(config: &TpchConfig) -> (ruletest_storage::Database, usize, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let db = tpch_database(config).unwrap();
    let peak = PEAK.load(Relaxed) - before;
    let resident = LIVE.load(Relaxed) - before;
    (db, peak, resident)
}

#[test]
fn scale_256_database_stays_under_its_byte_ceilings() {
    COUNTED.with(|c| c.set(true));
    let config = TpchConfig::scaled(1, 256);
    let (db, peak, resident) = measured_build(&config);
    println!(
        "scale 256, {} rows: build peak {peak} B, resident {resident} B",
        db.total_rows()
    );
    assert!(peak <= BUILD_PEAK_CEILING, "build peak {peak} B");
    assert!(resident <= RESIDENT_CEILING, "resident {resident} B");

    let before_drop = LIVE.load(Relaxed);
    drop(db);
    assert_eq!(
        before_drop - LIVE.load(Relaxed),
        resident,
        "drop frees it all"
    );
    let (_db, second_peak, second_resident) = measured_build(&config);
    assert_eq!((second_peak, second_resident), (peak, resident));
}
