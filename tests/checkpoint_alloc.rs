//! Checkpoint memory guard: how many heap bytes one checkpointing
//! `Supervisor::process` call requests, in bytes and as a multiple of
//! the `PSMC` image it ships, on the full vt stream with a
//! `ReplicationStore` attached — and what the store's publisher thread
//! requests to push that checkpoint onto the chain.
//!
//! The durable stack's peak RSS is its binding constraint (5 % in
//! `BENCHMARK.json`), and what sets it is the transient buffers of a
//! checkpoint cycle on top of the standing state: every image-sized
//! buffer a checkpoint allocates is ~390 KB on this stream. A checkpoint
//! needs one of them on the matching thread — the `PSMC` image's buffer,
//! allocated at its size for the store's publisher to write the image
//! into — and little else: the rest of the measured 1.06 is mostly the
//! room for the runs the image's assembly copies. The matcher's changed
//! sections, the working memory's changes and the conflict set's are
//! made into one of two sets of buffers that are reused, and no part's
//! whole image is written on this thread.
//! This test pins that count so that a change which serialises an image
//! twice, decodes one to look at it, or rebuilds a matcher to snapshot
//! it shows up as a number — and the bytes themselves, so that a change
//! which only shrinks the image is not read as one that allocates more.
//!
//! The publisher runs on a heap of its own (a second thread gets its own
//! malloc arena), and whatever it allocates and frees push after push
//! that heap keeps as resident pages the main one does not give back.
//! So a push in steady state may allocate the `PSMD` artifact it stores
//! and nothing else: the gap list, block index and op list of the diff
//! are kept between pushes, the `PSMD` buffer is sized before it is
//! written, and literal runs go from the image into it with no `Vec` in
//! between. Counted here in calls as well as bytes — it used to take
//! about a thousand calls a push.
//!
//! The other seven cycles in eight are pinned too, in bytes: a plain
//! supervised cycle clones each asserted WME once (into its WAL entry)
//! and encodes the entry once (into the open segment), and a second copy
//! of either is a few hundred bytes that nothing else would notice.
//!
//! Own test binary: the counting `#[global_allocator]` must not be
//! shared with other tests. The test's own thread is counted while the
//! `process` call is running; every other thread — the publisher alone,
//! vt batches never wake the engine's helper — is counted all the time,
//! and read once `stats()` has waited for the push.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use psm::fault::{ReplicationConfig, ReplicationStore, Supervisor, SupervisorConfig};
use psm::ops5::Matcher;
use psm::workloads::{GeneratedWorkload, Preset, WorkloadDriver};

struct Counting;

thread_local! {
    /// `Some(bytes)` while this thread is inside a counted region.
    static BYTES: Cell<Option<u64>> = const { Cell::new(None) };
    /// Set on the test's thread, whose requests go to `BYTES`.
    static MATCHING: Cell<bool> = const { Cell::new(false) };
}

/// Bytes and calls requested by every thread but the test's.
static ELSEWHERE: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)];

fn count(bytes: usize) {
    if MATCHING.with(Cell::get) {
        BYTES.with(|c| c.set(c.get().map(|n| n + bytes as u64)));
    } else {
        ELSEWHERE[0].fetch_add(bytes as u64, Ordering::Relaxed);
        ELSEWHERE[1].fetch_add(1, Ordering::Relaxed);
    }
}

fn elsewhere() -> [u64; 2] {
    [0, 1].map(|i| ELSEWHERE[i].load(Ordering::Relaxed))
}

// SAFETY: defers to `System` for every operation; the bookkeeping is
// `const`-initialised thread-local `Cell`s with no destructor and two
// atomics, which neither allocate nor can be observed torn.
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
    MATCHING.with(|c| c.set(true));
    let mut sup = Supervisor::new(&workload.program, config).expect("compiles");
    let store = Arc::new(ReplicationStore::new(ReplicationConfig::default()));
    sup.attach_replication(Arc::clone(&store));
    let mut driver = WorkloadDriver::new(workload, 0x5EED);
    driver.init(&mut sup);

    let (mut worst, mut sum, mut checkpoints) = (0.0f64, 0.0f64, 0u32);
    let (mut worst_bytes, mut sum_bytes, mut sum_image) = (0u64, 0u64, 0u64);
    let (mut plain_bytes, mut plain_cycles, mut plain_changes) = (0u64, 0u64, 0u64);
    // Per push that stored a delta: what the publisher requested beyond
    // the artifact, in bytes and calls, at worst.
    let (mut push_extra, mut push_calls, mut deltas) = (0u64, 0u64, 0u64);
    for cycle in 0..WARMUP + CYCLES {
        let batch = driver.next_batch();
        let before = sup.report().checkpoints;
        let (stored, published) = (store.stats(), elsewhere());
        BYTES.with(|c| c.set(Some(0)));
        let delta = sup.process(driver.working_memory(), &batch);
        let requested = BYTES.with(|c| c.take()).expect("still counting");
        drop(delta);
        driver.commit_batch(&batch);
        let artifact = store.stats().delta_bytes - stored.delta_bytes;
        if cycle >= WARMUP && artifact > 0 {
            let [bytes, calls] = elsewhere();
            push_extra = push_extra.max((bytes - published[0]).saturating_sub(artifact));
            push_calls = push_calls.max(calls - published[1]);
            deltas += 1;
        }
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
    // The bytes are the budget: measured mean 413 690, worst 541 993;
    // the ceiling sits a third above the worst. (With the working-memory
    // image and the conflict list made whole on this thread: mean
    // 506 571, worst 634 272; with the matcher's
    // snapshot and the `PSMC` image both written on this thread: mean
    // 840 172, worst 860 195, and 1 025 527 / 1 103 774 before the
    // working-memory image was copied from the last one; with the chain
    // push on this thread as well — the gap list, block index and ops of
    // a diff, the `PSMD` written through a doubling buffer: mean
    // 1 362 881, worst 1 514 378.)
    assert!(
        worst_bytes <= 722_657,
        "a checkpoint cycle requested {worst_bytes} heap bytes"
    );
    // The multiple says how many image-sized buffers that is: measured
    // mean 1.06, worst 1.40 of a 391 256-byte image (1.29 / 1.64 with
    // the working-memory image and the conflict list made here, 2.15 /
    // 2.16 with the snapshot written here as well, 3.48 / 3.83 with the
    // push too); the ceiling sits a third above the worst.
    assert!(
        worst <= 1.87,
        "a checkpoint cycle requested {worst:.2} images' worth of heap"
    );

    println!(
        "publisher, worst of {deltas} pushes that stored a delta: {push_calls} allocator \
         calls, {push_extra} bytes beyond the artifact"
    );
    // Measured 2 calls and no byte beyond the artifact: the `PSMD`
    // buffer, grown to its final size from the 64-byte seed the matching
    // thread allocated (so that it stays on that thread's heap), and the
    // `Arc` that shares it with readers. (With a fresh index, gap list and op
    // list per diff, a doubling `PSMD` buffer and a `Vec` per literal
    // run, a push took 840–1 460 calls, median 1 090, and 310–455 KB.)
    // A diff larger than every one before it may grow what the chain
    // keeps; none of these is.
    assert_eq!(deltas, CYCLES / 8 - CYCLES / 64, "seven pushes in eight");
    assert!(
        push_calls <= 2 && push_extra == 0,
        "a push requested {push_calls} allocations, {push_extra} bytes beyond its artifact"
    );

    let per_cycle = plain_bytes / plain_cycles;
    println!(
        "heap bytes requested per plain supervised cycle: {per_cycle} \
         ({} per WME change)",
        plain_bytes / plain_changes
    );
    // Measured 3 687 per cycle, 680 per change (with the engine filing
    // each WME into a private right memory of every successor node and
    // cloning it into a store of its own: 6 473 and 1 194 on the same
    // host, ceiling 7 955 from a reading of 7 576; with a shadow working
    // memory, a second conflict set and a decoded open segment kept in
    // step besides: 10 463 and 1 930); the ceiling sits 5 % above.
    assert!(
        per_cycle <= 3_871,
        "a plain supervised cycle requested {per_cycle} heap bytes"
    );
}
