//! A snapshot that costs what changed is the snapshot it always was:
//! on the vt stream, small and full size, a matcher snapshotted every one
//! to three cycles — each image copying the sections of the memories
//! that did not change out of the image before it — returns, byte for
//! byte, what a twin fed the same batches encodes from nothing; every
//! range it says it took over is those bytes of the previous image; most
//! bytes are taken over; and a matcher restored from an image encodes
//! that image again, with nothing to take over. The same holds of the
//! node-parallel engine's matcher when the engine files bulk batches
//! between its phases.

use std::sync::Arc;

use psm::core::ParallelReteMatcher;
use psm::obs::Rng64;
use psm::ops5::{MatchDelta, Matcher, WmeId, WorkingMemory};
use psm::rete::{Network, ReteMatcher, ReteSnapshot};
use psm::workloads::{GeneratedWorkload, Preset, WorkloadDriver, WorkloadSpec};

/// Feeds two matchers the same changes.
struct Both<'a>(&'a mut ReteMatcher, &'a mut ReteMatcher);

impl Matcher for Both<'_> {
    fn add_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
        self.1.add_wme(wm, id);
        self.0.add_wme(wm, id)
    }
    fn remove_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
        self.1.remove_wme(wm, id);
        self.0.remove_wme(wm, id)
    }
    fn algorithm_name(&self) -> &'static str {
        "both"
    }
}

/// Checks `next` against the image before it and returns how many of
/// its bytes it took over.
fn reused(previous: &ReteSnapshot, next: &ReteSnapshot) -> usize {
    let (mut old_at, mut new_at) = (0, 0);
    for &(old, new, len) in next.unchanged() {
        assert!(len > 0 && old >= old_at && new >= new_at, "in image order");
        assert_eq!(
            previous.as_bytes()[old..old + len],
            next.as_bytes()[new..new + len],
            "range {old} -> {new}, {len} bytes"
        );
        (old_at, new_at) = (old + len, new + len);
    }
    next.unchanged().iter().map(|&(_, _, len)| len).sum()
}

/// Runs `rounds` snapshots 1–3 cycles apart and returns the share of
/// image bytes that were copied.
fn reuse_share(spec: WorkloadSpec, rounds: usize) -> f64 {
    let workload = GeneratedWorkload::generate(spec).expect("vt generates");
    let mut driver = WorkloadDriver::new(workload, 0x5EED);
    let mut live = ReteMatcher::compile(&driver.workload().program).expect("compiles");
    let mut twin = ReteMatcher::from_network(live.network().clone());
    driver.init(&mut Both(&mut live, &mut twin));

    let mut previous = live.snapshot();
    assert!(previous.unchanged().is_empty(), "nothing to take over yet");
    let (memories, non_empty) = live.memory_sections();
    assert_eq!(previous.encoded_sections(), memories);
    assert!(0 < non_empty && non_empty < memories);

    let mut rng = Rng64::new(0x5EC7);
    let (mut copied, mut total) = (0, 0);
    for round in 0..rounds {
        for _ in 0..rng.gen_range(1..=3u32) {
            let batch = driver.next_batch();
            Both(&mut live, &mut twin).process(driver.working_memory(), &batch);
            driver.commit_batch(&batch);
        }
        let next = live.snapshot();
        let (fresh, parts) = twin.snapshot_parts();
        assert_eq!(next.as_bytes(), fresh.as_bytes(), "round {round}");
        assert!(fresh.unchanged().is_empty() && fresh.encoded_sections() == memories);
        assert_eq!(
            parts.entries + parts.links + parts.heads + parts.rest,
            fresh.len()
        );
        copied += reused(&previous, &next);
        total += next.len();
        assert!(next.encoded_sections() < memories / 4, "round {round}");

        if round % 16 == 0 {
            // Nothing changed: everything but the counters is one copy.
            let again = live.snapshot();
            assert_eq!(again, next);
            assert_eq!((again.unchanged().len(), again.encoded_sections()), (1, 0));
            assert_eq!(reused(&next, &again), next.len() - again.unchanged()[0].1);

            let restored = ReteMatcher::restore(live.network().clone(), &next).expect("restores");
            let first = restored.snapshot();
            assert_eq!(first.as_bytes(), next.as_bytes(), "round {round}");
            assert!(first.unchanged().is_empty());
        }
        previous = next;
    }
    copied as f64 / total as f64
}

#[test]
fn a_reusing_snapshot_is_the_fresh_one_on_small_vt() {
    let share = reuse_share(Preset::Vt.spec_small(), 120);
    println!("small vt: {:.1} % of image bytes copied", 100.0 * share);
    assert!(share > 0.75, "{share}");
}

#[test]
fn a_reusing_snapshot_is_the_fresh_one_on_full_size_vt() {
    let share = reuse_share(Preset::Vt.spec(), 60);
    println!("full-size vt: {:.1} % of image bytes copied", 100.0 * share);
    assert!(share > 0.75, "{share}");
}

/// The engine files a batch of 1 024 changes or more between its phases,
/// through the sequential matcher's filers, which must mark every memory
/// they change: a 2-thread engine fed bulk batches of the vt stream
/// snapshots its matcher after every batch, every range an image takes
/// over is the previous image's bytes, and every third image is the one
/// the matcher encodes from nothing.
#[test]
fn a_reusing_snapshot_is_the_fresh_one_through_the_engines_filers() {
    const ROUNDS: u64 = 12;
    let workload = GeneratedWorkload::generate(Preset::Vt.spec_small()).expect("vt generates");
    let mut driver = WorkloadDriver::new(workload, 0xF11E);
    let network = Network::compile(&driver.workload().program).expect("compiles");
    let mut engine = ParallelReteMatcher::from_network(Arc::new(network), 2);
    driver.init(&mut engine);
    let mut previous = engine.rete().snapshot();
    let (mut copied, mut total) = (0, 0);
    for round in 0..ROUNDS {
        let mut batch = Vec::new();
        while batch.len() < 1024 {
            batch.extend(driver.next_batch());
        }
        engine.process(driver.working_memory(), &batch);
        driver.commit_batch(&batch);
        let next = engine.rete().snapshot();
        copied += reused(&previous, &next);
        total += next.len();
        if round % 3 == 0 {
            let fresh = engine.rete().snapshot_parts().0;
            assert_eq!(next.as_bytes(), fresh.as_bytes(), "round {round}");
        }
        previous = next;
    }
    assert_eq!(
        engine.stats().phased_batches,
        ROUNDS,
        "every bulk batch in phases"
    );
    println!(
        "engine, small vt: {:.1} % of image bytes copied",
        100.0 * copied as f64 / total as f64
    );
    assert!(copied > 0, "sections no bulk batch touched are copied");
}
