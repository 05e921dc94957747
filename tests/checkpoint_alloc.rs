//! Checkpoint memory guard: how many heap bytes one checkpointing
//! `Supervisor::process` call requests, in bytes and as a multiple of
//! the `PSMC` image it ships, on the full vt stream with a
//! `ReplicationStore` attached.
//!
//! The durable stack's peak RSS is its binding constraint (5 % in
//! `BENCHMARK.json`), and what sets it is the transient buffers of a
//! checkpoint cycle on top of the standing state: every image-sized
//! buffer a checkpoint allocates is ~390 KB on this stream. A checkpoint
//! needs two of them — the matcher's snapshot, sized from the one before
//! it, and the `PSMC` image built from it, sized before it is written —
//! and the working-memory image; the rest of the measured three and a
//! half is the conflict list, where the snapshot's sections lie, the gap
//! list and block index of one diff, and its ops.
//! This test pins that count so that a change which serialises an image
//! twice, decodes one to look at it, or rebuilds a matcher to snapshot
//! it shows up as a number — and the bytes themselves, so that a change
//! which only shrinks the image is not read as one that allocates more.
//!
//! The other seven cycles in eight are pinned too, in bytes: a plain
//! supervised cycle clones each asserted WME once (into its WAL entry)
//! and encodes the entry once (into the open segment), and a second copy
//! of either is a few hundred bytes that nothing else would notice.
//!
//! Own test binary: the counting `#[global_allocator]` must not be
//! shared with other tests. Only the test's own thread is counted (vt
//! batches never wake the engine's helper), and only while the
//! `process` call is running.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use psm::fault::{ReplicationConfig, ReplicationStore, Supervisor, SupervisorConfig};
use psm::ops5::Matcher;
use psm::workloads::{GeneratedWorkload, Preset, WorkloadDriver};

struct Counting;

thread_local! {
    /// `Some(bytes)` while this thread is inside a counted region.
    static BYTES: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count(bytes: usize) {
    BYTES.with(|c| c.set(c.get().map(|n| n + bytes as u64)));
}

// SAFETY: defers to `System` for every operation; the bookkeeping is a
// `const`-initialised thread-local `Cell` with no destructor, which
// neither allocates nor can be observed torn.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growth only: a doubling buffer is charged its final size.
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARMUP: u64 = 64;
const CYCLES: u64 = 128;

#[test]
fn a_checkpoint_cycle_requests_a_pinned_multiple_of_its_image() {
    let workload = GeneratedWorkload::generate(Preset::Vt.spec()).expect("vt generates");
    let config = SupervisorConfig {
        threads: 2,
        ..SupervisorConfig::default()
    };
    let mut sup = Supervisor::new(&workload.program, config).expect("compiles");
    sup.attach_replication(Arc::new(
        ReplicationStore::new(ReplicationConfig::default()),
    ));
    let mut driver = WorkloadDriver::new(workload, 0x5EED);
    driver.init(&mut sup);

    let (mut worst, mut sum, mut checkpoints) = (0.0f64, 0.0f64, 0u32);
    let (mut worst_bytes, mut sum_bytes, mut sum_image) = (0u64, 0u64, 0u64);
    let (mut plain_bytes, mut plain_cycles, mut plain_changes) = (0u64, 0u64, 0u64);
    for cycle in 0..WARMUP + CYCLES {
        let batch = driver.next_batch();
        let before = sup.report().checkpoints;
        BYTES.with(|c| c.set(Some(0)));
        let delta = sup.process(driver.working_memory(), &batch);
        let requested = BYTES.with(|c| c.take()).expect("still counting");
        drop(delta);
        driver.commit_batch(&batch);
        if cycle >= WARMUP && sup.report().checkpoints > before {
            let image = sup.last_checkpoint().to_bytes().len();
            let ratio = requested as f64 / image as f64;
            worst = worst.max(ratio);
            sum += ratio;
            worst_bytes = worst_bytes.max(requested);
            sum_bytes += requested;
            sum_image += image as u64;
            checkpoints += 1;
        } else if cycle >= WARMUP {
            plain_bytes += requested;
            plain_cycles += 1;
            plain_changes += batch.len() as u64;
        }
    }
    assert_eq!(checkpoints, (CYCLES / 8) as u32, "every eighth cycle");
    let mean = sum / f64::from(checkpoints);
    let (mean_bytes, mean_image) = (
        sum_bytes / u64::from(checkpoints),
        sum_image / u64::from(checkpoints),
    );
    println!(
        "heap bytes requested per checkpoint cycle: mean {mean_bytes}, worst {worst_bytes} \
         (PSMC image: mean {mean_image}); in images: mean {mean:.2}, worst {worst:.2}"
    );
    // The bytes are the budget: measured mean 1 362 881, worst 1 514 378,
    // which is the ceiling — the figure may not rise. (Before a snapshot
    // copied its unchanged sections into a buffer sized up front and the
    // diff indexed only the gaps between them: mean 2 141 301, worst
    // 2 274 493.)
    assert!(
        worst_bytes <= 1_514_378,
        "a checkpoint cycle requested {worst_bytes} heap bytes"
    );
    // The multiple says how many image-sized buffers that is: measured
    // mean 3.48, worst 3.83 of a 391 256-byte image (before: mean 5.47,
    // worst 5.81 of the same image); the ceiling sits 5 % above.
    assert!(
        worst <= 4.02,
        "a checkpoint cycle requested {worst:.2} images' worth of heap"
    );

    let per_cycle = plain_bytes / plain_cycles;
    println!(
        "heap bytes requested per plain supervised cycle: {per_cycle} \
         ({} per WME change)",
        plain_bytes / plain_changes
    );
    // Measured 7 576 per cycle, 1 397 per change (with a shadow working
    // memory, a second conflict set and a decoded open segment kept in
    // step: 10 463 and 1 930); the ceiling sits 5 % above.
    assert!(
        per_cycle <= 7_955,
        "a plain supervised cycle requested {per_cycle} heap bytes"
    );
}
