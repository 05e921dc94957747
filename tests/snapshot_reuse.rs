//! An image that costs what changed is the image it always was: on the
//! vt stream, small and full size, a matcher whose changed sections are
//! encoded every one to three cycles ([`ReteMatcher::encode_changes`])
//! and assembled onto the image before ([`ImageUpdate::assemble`]) —
//! each image copying the sections of the memories that did not change
//! out of the one before it — makes, byte for byte, what a twin fed the
//! same batches encodes from nothing; every range it says it took over is
//! those bytes of the previous image; most bytes are taken over; and a
//! matcher restored from an image encodes that image again, with nothing
//! to take over. The same holds of the node-parallel engine's matcher
//! when the engine files bulk batches between its phases, and of a
//! matcher whose snapshots are read between its updates.

use std::sync::Arc;

use psm::core::ParallelReteMatcher;
use psm::obs::Rng64;
use psm::ops5::{MatchDelta, Matcher, WmeId, WorkingMemory};
use psm::rete::{ImageUpdate, Network, ReteMatcher, ReteSnapshot, SectionTable};
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

/// The image a checkpoint keeps, with its table: what the next update is
/// assembled onto.
#[derive(Default)]
struct Kept {
    update: ImageUpdate,
    table: SectionTable,
    image: Arc<Vec<u8>>,
}

impl Kept {
    /// `m`'s next update assembled onto the kept image, kept in its
    /// place: a snapshot of it, with the runs it copied as its
    /// `unchanged()`.
    fn next(&mut self, m: &ReteMatcher) -> ReteSnapshot {
        m.encode_changes(&mut self.update);
        let mut out = Vec::with_capacity(self.update.image_len());
        let written = self.update.assemble(&self.image, &mut self.table, &mut out);
        self.image = Arc::new(out);
        ReteSnapshot::within(Arc::clone(&self.image), 0, &written)
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

/// Runs `rounds` updates 1–3 cycles apart and returns the share of
/// image bytes that were copied.
fn reuse_share(spec: WorkloadSpec, rounds: usize) -> f64 {
    let workload = GeneratedWorkload::generate(spec).expect("vt generates");
    let mut driver = WorkloadDriver::new(workload, 0x5EED);
    let mut live = ReteMatcher::compile(&driver.workload().program).expect("compiles");
    let mut twin = ReteMatcher::from_network(live.network().clone());
    driver.init(&mut Both(&mut live, &mut twin));

    let mut kept = Kept::default();
    let mut previous = kept.next(&live);
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
        let next = kept.next(&live);
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
            let again = kept.next(&live);
            assert_eq!(again, next);
            assert_eq!((again.unchanged().len(), again.encoded_sections()), (1, 0));
            assert_eq!(reused(&next, &again), next.len() - again.unchanged()[0].1);

            let restored = ReteMatcher::restore(live.network().clone(), &next).expect("restores");
            let first = Kept::default().next(&restored);
            assert_eq!(first.as_bytes(), next.as_bytes(), "round {round}");
            assert!(first.unchanged().is_empty());
            assert_eq!(restored.snapshot(), first);
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
/// takes an update of its matcher after every batch, every range an
/// image takes over is the previous image's bytes, and every third image
/// is the one the matcher encodes from nothing.
#[test]
fn a_reusing_snapshot_is_the_fresh_one_through_the_engines_filers() {
    const ROUNDS: u64 = 12;
    let workload = GeneratedWorkload::generate(Preset::Vt.spec_small()).expect("vt generates");
    let mut driver = WorkloadDriver::new(workload, 0xF11E);
    let network = Network::compile(&driver.workload().program).expect("compiles");
    let mut engine = ParallelReteMatcher::from_network(Arc::new(network), 2);
    driver.init(&mut engine);
    let mut kept = Kept::default();
    let mut previous = kept.next(engine.rete());
    let (mut copied, mut total) = (0, 0);
    for round in 0..ROUNDS {
        let mut batch = Vec::new();
        while batch.len() < 1024 {
            batch.extend(driver.next_batch());
        }
        engine.process(driver.working_memory(), &batch);
        driver.commit_batch(&batch);
        let next = kept.next(engine.rete());
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

/// A snapshot reads nothing an update keeps: a matcher whose snapshots
/// are read between its updates — none, one or several between two —
/// makes each update byte-identical to a twin's that no reader touched,
/// its copied runs and encoded sections the same.
#[test]
fn a_readers_snapshot_between_updates_leaves_the_next_update_as_it_was() {
    let workload = GeneratedWorkload::generate(Preset::Vt.spec_small()).expect("vt generates");
    let mut driver = WorkloadDriver::new(workload, 0x5EAD);
    let mut read = ReteMatcher::compile(&driver.workload().program).expect("compiles");
    let mut twin = ReteMatcher::from_network(read.network().clone());
    driver.init(&mut Both(&mut read, &mut twin));
    let (mut kept_read, mut kept_twin) = (Kept::default(), Kept::default());
    let mut rng = Rng64::new(0x8EAD);
    let mut reads = 0;
    for round in 0..40 {
        if round > 0 {
            for _ in 0..rng.gen_range(0..=2u32) {
                // Only `read` is read: a snapshot of the twin would be
                // the reader it must not have.
                reads += usize::from(!read.snapshot().is_empty());
            }
        }
        let (next, alone) = (kept_read.next(&read), kept_twin.next(&twin));
        assert_eq!(next.as_bytes(), alone.as_bytes(), "round {round}");
        assert_eq!(next.unchanged(), alone.unchanged(), "round {round}");
        assert_eq!(next.encoded_sections(), alone.encoded_sections());
        assert!(round == 0 || !next.unchanged().is_empty(), "round {round}");
        for _ in 0..rng.gen_range(1..=3u32) {
            let batch = driver.next_batch();
            Both(&mut read, &mut twin).process(driver.working_memory(), &batch);
            driver.commit_batch(&batch);
        }
    }
    assert!(reads > 20, "{reads} snapshots read");
}
