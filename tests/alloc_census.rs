//! Allocation census: how many heap allocations one WME change costs
//! inside `Matcher::process`, for sequential Rete and for the
//! node-parallel engine on one thread, on the deterministic vt stream.
//!
//! Two threads contend in `malloc`/`free` long before they contend on a
//! node lock (on a bulk batch a second thread doubles the time spent in
//! the allocator for the same number of calls), so the engine's
//! allocation count is its scaling budget. This test pins both counts
//! so that a change which starts allocating per task, per phase or per
//! token twice shows up as a number, not as a slower benchmark.
//!
//! Own test binary: the counting `#[global_allocator]` must not be
//! shared with other tests. Only the test's own thread is counted, and
//! only while the `process` call is running.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use psm::core::{ParallelOptions, ParallelReteMatcher};
use psm::ops5::Matcher;
use psm::rete::ReteMatcher;
use psm::workloads::{GeneratedWorkload, Preset, WorkloadDriver};

struct Counting;

thread_local! {
    /// `Some(n)` while this thread is inside a counted region.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

// SAFETY: defers to `System` for every operation; the bookkeeping is a
// `const`-initialised thread-local `Cell` with no destructor, which
// neither allocates nor can be observed torn.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get().map(|n| n + 1)));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get().map(|n| n + 1)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARMUP: u64 = 100;
const CYCLES: u64 = 400;

/// Steady-state allocations (including reallocations) per WME change
/// inside `process`, after `WARMUP` cycles have sized every reusable
/// buffer.
fn allocs_per_change<M: Matcher>(workload: &GeneratedWorkload, mut matcher: M) -> f64 {
    let mut driver = WorkloadDriver::new(workload.clone(), 0x5EED);
    driver.init(&mut matcher);
    let (mut allocs, mut changes) = (0u64, 0u64);
    for cycle in 0..WARMUP + CYCLES {
        let batch = driver.next_batch();
        ALLOCS.with(|c| c.set(Some(0)));
        let delta = matcher.process(driver.working_memory(), &batch);
        let counted = ALLOCS.with(|c| c.take()).expect("still counting");
        drop(delta);
        driver.commit_batch(&batch);
        if cycle >= WARMUP {
            allocs += counted;
            changes += batch.len() as u64;
        }
    }
    allocs as f64 / changes as f64
}

#[test]
fn allocations_per_wme_change_are_pinned() {
    let workload = GeneratedWorkload::generate(Preset::Vt.spec()).expect("vt generates");
    let seq = allocs_per_change(
        &workload,
        ReteMatcher::compile(&workload.program).expect("compiles"),
    );
    let options = ParallelOptions {
        threads: 1,
        share: true,
    };
    let par = allocs_per_change(
        &workload,
        ParallelReteMatcher::compile(&workload.program, options).expect("compiles"),
    );
    println!("allocations per WME change: sequential {seq:.2}, engine (1 thread) {par:.2}");
    // Measured 14.83 and 13.71 (the parent commit: 19.85 and 33.71);
    // the ceilings sit 5 % above so a std hash-map growth change does
    // not trip them, a per-task or per-token allocation does.
    assert!(
        seq <= 15.6,
        "sequential Rete: {seq:.2} allocations per change"
    );
    assert!(
        par <= 14.4,
        "engine, 1 thread: {par:.2} allocations per change"
    );
}
