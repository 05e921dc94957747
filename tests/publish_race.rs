//! The replication store pushes a checkpoint onto its chain on a thread
//! of its own. Three things that must not have changed for that:
//!
//! 1. **The bytes.** Artifact for artifact and segment for segment, a
//!    supervised stream through the store yields what a
//!    [`CheckpointChain`] pushed by hand on the same checkpoints and a
//!    [`SegmentedWal`] sealed and collected at the same cycles yield.
//! 2. **What a reader sees.** Whatever manifest a reader is served while
//!    the primary publishes, the artifacts it names bring a fresh
//!    standby to the primary's committed state — or are gone because the
//!    chain re-anchored or the segment was collected, and stay gone.
//! 3. **A kill right after the hand-off.** A primary killed in the cycle
//!    after a checkpoint (and the one after that) has handed the store a
//!    checkpoint the publisher may still be pushing; the standby waits
//!    for it like any reader and promotes to the never-faulted state.
//!
//! Own test binary, run in a loop by the `failover-smoke` CI job: the
//! second contract depends on how the threads fall, and one pass proves
//! little.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use psm::fault::{
    CheckpointChain, FailoverPair, FaultPlan, ReplicationConfig, ReplicationStore, SegmentedWal,
    StandbyReplica, Supervisor, SupervisorConfig, Tier, WalChange, WalEntry,
};
use psm::ops5::{Change, MatchDelta, Matcher, WmeId, WorkingMemory};
use psm::rete::{Network, ReteMatcher};
use psm::telemetry::client::Json;
use psm::telemetry::replicate::ReplicaSource;
use psm::workloads::{GeneratedWorkload, Preset, WorkloadDriver};

fn vt_small() -> GeneratedWorkload {
    GeneratedWorkload::generate(Preset::Vt.spec_small()).expect("vt generates")
}

fn config() -> SupervisorConfig {
    SupervisorConfig {
        threads: 2,
        ..SupervisorConfig::default()
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let step = |h: u64, b: &u8| (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, step)
}

/// The `key` of every row of the manifest's `rows`, in order.
fn listed(manifest: &Json, rows: &str, key: &str) -> Vec<u64> {
    let rows = manifest.get(rows).expect("listed").items();
    rows.iter()
        .map(|row| row.get(key).and_then(Json::as_u64).expect("a number"))
        .collect()
}

/// A supervisor publishing into a store, and beside it the chain and the
/// segmented log made by hand of what it commits; after every cycle the
/// store must serve exactly what they hold.
struct Mirrored {
    sup: Supervisor,
    store: Arc<ReplicationStore>,
    chain: CheckpointChain,
    wal: SegmentedWal,
    /// Every checkpoint id pushed so far, pruned ones included.
    pushed: Vec<u64>,
    cycle: u64,
}

impl Mirrored {
    fn new(workload: &GeneratedWorkload, replication: ReplicationConfig) -> Self {
        let mut sup = Supervisor::new(&workload.program, config()).expect("compiles");
        let store = Arc::new(ReplicationStore::new(replication));
        sup.attach_replication(Arc::clone(&store));
        Mirrored {
            chain: CheckpointChain::new(sup.last_checkpoint(), replication.anchor_every),
            wal: SegmentedWal::new(replication.max_segment_bytes),
            pushed: vec![0],
            cycle: 0,
            sup,
            store,
        }
    }

    fn assert_store_is_the_mirror(&self, checkpointed: bool) {
        let cycle = self.cycle;
        // Every id, so that a pruned artifact is seen to be gone — at a
        // checkpoint; in between the chain does not move.
        let ids = match checkpointed {
            true => &self.pushed[..],
            false => &self.pushed[self.pushed.len() - 1..],
        };
        for &id in ids {
            assert_eq!(
                self.store.checkpoint(id),
                self.chain.artifact_bytes(id),
                "cycle {cycle}: artifact {id}"
            );
        }
        let newest = self.wal.manifest().last().map_or(0, |row| row.seq);
        let seqs = match checkpointed {
            true => 0..=newest,
            false => newest.saturating_sub(2)..=newest,
        };
        for seq in seqs {
            assert_eq!(
                self.store.wal_segment(seq),
                self.wal.segment_bytes(seq),
                "cycle {cycle}: segment {seq}"
            );
        }

        let stats = self.store.stats();
        let (full, delta) = (self.chain.full_stats(), self.chain.delta_stats());
        assert_eq!((stats.full_bytes, stats.full_count), full);
        assert_eq!((stats.delta_bytes, stats.delta_count), delta);
        assert_eq!(stats.segments, self.wal.segments());
        assert_eq!(stats.wal_bytes, self.wal.total_bytes());
        assert_eq!(stats.segments_gced, self.wal.gc_dropped());
        assert_eq!(stats.primary_cycle, cycle);

        let manifest = self.store.manifest().expect("anchored at attach");
        let manifest = Json::parse(&manifest).expect("the manifest parses");
        let artifacts: Vec<u64> = self.chain.artifacts().iter().map(|a| a.cycle).collect();
        assert_eq!(
            listed(&manifest, "checkpoints", "id"),
            artifacts,
            "cycle {cycle}"
        );
        let segments: Vec<u64> = self.wal.manifest().iter().map(|row| row.seq).collect();
        assert_eq!(
            listed(&manifest, "segments", "seq"),
            segments,
            "cycle {cycle}"
        );
    }
}

impl Matcher for Mirrored {
    fn add_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
        self.process(wm, &[Change::Add(id)])
    }

    fn remove_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
        self.process(wm, &[Change::Remove(id)])
    }

    fn process(&mut self, wm: &WorkingMemory, changes: &[Change]) -> MatchDelta {
        let logged = |change: &Change| match *change {
            Change::Add(id) => WalChange::Add(wm.get(id).expect("live").clone(), id),
            Change::Remove(id) => WalChange::Remove(id),
        };
        let entry = WalEntry {
            cycle: self.cycle,
            changes: changes.iter().map(logged).collect(),
        };
        let before = self.sup.report().checkpoints;
        let delta = self.sup.process(wm, changes);
        self.wal.append(&entry);
        self.cycle += 1;
        let checkpointed = self.sup.report().checkpoints > before;
        if checkpointed {
            let cp = self.sup.last_checkpoint();
            assert_eq!(cp.cycle, self.cycle);
            self.chain.push(cp);
            self.pushed.push(cp.cycle);
            self.wal.seal();
            self.wal.gc_covered(cp.cycle);
        }
        self.assert_store_is_the_mirror(checkpointed);
        delta
    }

    fn algorithm_name(&self) -> &'static str {
        "mirrored"
    }
}

#[test]
fn the_store_serves_the_bytes_of_a_chain_pushed_by_hand() {
    let workload = vt_small();
    for replication in [
        ReplicationConfig::default(),
        // Rotation inside a checkpoint interval, and every other push
        // an anchor.
        ReplicationConfig {
            max_segment_bytes: 256,
            anchor_every: 2,
        },
    ] {
        let mut mirrored = Mirrored::new(&workload, replication);
        let mut driver = WorkloadDriver::new(workload.clone(), 0x5EED);
        driver.init(&mut mirrored);
        while mirrored.pushed.len() <= 200 {
            let batch = driver.next_batch();
            mirrored.process(driver.working_memory(), &batch);
            driver.commit_batch(&batch);
        }
        let stats = mirrored.store.stats();
        assert!(stats.full_count >= 25 && stats.delta_count >= 100);
        assert!(stats.segments_gced >= 200, "{stats:?}");
    }
}

/// One manifest and the artifacts it named, as a reader fetched them
/// right after: a source that never changes, for a standby to base
/// itself on.
struct Frozen {
    manifest: String,
    checkpoints: BTreeMap<u64, Vec<u8>>,
    segments: BTreeMap<u64, Vec<u8>>,
}

impl ReplicaSource for Frozen {
    fn manifest(&self) -> Option<String> {
        Some(self.manifest.clone())
    }
    fn checkpoint(&self, id: u64) -> Option<Vec<u8>> {
        self.checkpoints.get(&id).cloned()
    }
    fn wal_segment(&self, seq: u64) -> Option<Vec<u8>> {
        self.segments.get(&seq).cloned()
    }
}

/// One reader's round: a manifest, everything it names, and — when all
/// of it was still there — a fresh standby brought up on exactly that.
/// Returns whether a standby was verified; when an artifact was gone,
/// checks instead that it stays gone.
fn read_and_verify(
    store: &ReplicationStore,
    workload: &GeneratedWorkload,
    network: &Arc<Network>,
    committed: &[u64],
) -> bool {
    let Some(raw) = store.manifest() else {
        return false;
    };
    let manifest = Json::parse(&raw).expect("the manifest parses");
    let primary_cycle = manifest.get("primary_cycle").and_then(Json::as_u64);
    let primary_cycle = primary_cycle.expect("a frontier");
    let ids = listed(&manifest, "checkpoints", "id");
    let seqs = listed(&manifest, "segments", "seq");
    let checkpoints: Vec<_> = ids.iter().map(|&id| (id, store.checkpoint(id))).collect();
    let segments: Vec<_> = seqs
        .iter()
        .map(|&seq| (seq, store.wal_segment(seq)))
        .collect();

    let gone = |fetched: &[(u64, Option<Vec<u8>>)]| -> Vec<u64> {
        let missing = fetched.iter().filter(|(_, bytes)| bytes.is_none());
        missing.map(|(name, _)| *name).collect()
    };
    let (gone_ids, gone_seqs) = (gone(&checkpoints), gone(&segments));
    if !gone_ids.is_empty() || !gone_seqs.is_empty() {
        // Only a re-anchor prunes an artifact and only a newer
        // checkpoint collects a segment; neither comes back.
        let later = store.manifest().expect("still anchored");
        let later = Json::parse(&later).expect("the manifest parses");
        let still = listed(&later, "checkpoints", "id");
        assert!(
            gone_ids.iter().all(|id| !still.contains(id)),
            "artifacts {gone_ids:?} of {ids:?} missing, yet {still:?} advertised after"
        );
        assert!(gone_ids.is_empty() || still[0] > *gone_ids.last().expect("some"));
        let still = listed(&later, "segments", "seq");
        assert!(
            gone_seqs.iter().all(|seq| !still.contains(seq)),
            "segments {gone_seqs:?} of {seqs:?} missing, yet {still:?} advertised after"
        );
        return false;
    }

    let whole = |fetched: Vec<(u64, Option<Vec<u8>>)>| -> BTreeMap<u64, Vec<u8>> {
        let whole = fetched
            .into_iter()
            .map(|(name, bytes)| (name, bytes.expect("checked")));
        whole.collect()
    };
    let frozen = Frozen {
        manifest: raw,
        checkpoints: whole(checkpoints),
        segments: whole(segments),
    };
    let mut standby = StandbyReplica::new(&workload.program, network.clone(), Arc::new(frozen));
    let status = standby.poll().expect("a frozen source is reachable");
    assert!(status.rebased, "based on the chain of {ids:?}");
    assert_eq!(status.lag, 0, "manifest at {primary_cycle}: {status:?}");
    // The open segment may have grown between the manifest and its
    // fetch: the standby is then ahead of the manifest, never behind.
    assert!(status.applied_cycle >= primary_cycle);
    let mut promoted = standby.promote(config()).expect("warm");
    assert_eq!(
        fnv1a(promoted.committed_snapshot().as_bytes()),
        committed[status.applied_cycle as usize],
        "standby at {} off the manifest at {primary_cycle}",
        status.applied_cycle
    );
    true
}

#[test]
fn every_manifest_served_while_publishing_bases_a_standby() {
    const ROUNDS: u64 = 40;
    const CYCLES_PER_ROUND: u64 = 64;
    let workload = vt_small();
    let mut sup = Supervisor::new(&workload.program, config()).expect("compiles");
    let network = sup.network().clone();

    // `committed[k]`: the matcher's state after `k` supervised cycles
    // (one per initial WME, then one per batch), from a run nothing
    // else touches.
    let committed: Vec<u64> = {
        let mut twin = ReteMatcher::from_network(network.clone());
        let mut driver = WorkloadDriver::new(workload.clone(), 0x5EED);
        let mut states = vec![fnv1a(twin.snapshot().as_bytes())];
        struct Recording<'a>(&'a mut ReteMatcher, &'a mut Vec<u64>);
        impl Matcher for Recording<'_> {
            fn add_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
                let delta = self.0.add_wme(wm, id);
                self.1.push(fnv1a(self.0.snapshot().as_bytes()));
                delta
            }
            fn remove_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
                unreachable!("the load only adds ({wm:p}, {id:?})")
            }
            fn algorithm_name(&self) -> &'static str {
                "recording"
            }
        }
        driver.init(&mut Recording(&mut twin, &mut states));
        for _ in 0..ROUNDS * CYCLES_PER_ROUND {
            let batch = driver.next_batch();
            twin.process(driver.working_memory(), &batch);
            driver.commit_batch(&batch);
            states.push(fnv1a(twin.snapshot().as_bytes()));
        }
        states
    };

    let store = Arc::new(ReplicationStore::new(ReplicationConfig::default()));
    sup.attach_replication(Arc::clone(&store));
    let (verified, done) = (AtomicU64::new(0), AtomicBool::new(false));
    thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = 0u64;
                    while !done.load(Ordering::SeqCst) {
                        if read_and_verify(&store, &workload, &network, &committed) {
                            mine += 1;
                            verified.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    mine
                })
            })
            .collect();

        // The writer never waits inside a round; between rounds it lets
        // the readers finish a round of theirs, so that reads fall all
        // over the stream however much slower a standby's rebase is
        // than a cycle. A reader that panics ends the wait too.
        let mut driver = WorkloadDriver::new(workload.clone(), 0x5EED);
        driver.init(&mut sup);
        for _ in 0..ROUNDS {
            let seen = verified.load(Ordering::SeqCst);
            for _ in 0..CYCLES_PER_ROUND {
                let batch = driver.next_batch();
                sup.process(driver.working_memory(), &batch);
                driver.commit_batch(&batch);
            }
            while verified.load(Ordering::SeqCst) == seen
                && !readers.iter().any(|reader| reader.is_finished())
            {
                thread::yield_now();
            }
        }
        done.store(true, Ordering::SeqCst);
        let each: Vec<u64> = readers
            .into_iter()
            .map(|reader| reader.join().expect("a reader's assertion failed"))
            .collect();
        assert!(each.iter().sum::<u64>() >= ROUNDS, "{each:?}");
    });

    assert_eq!(sup.tier(), Tier::Parallel);
    assert!(read_and_verify(&store, &workload, &network, &committed));
    assert_eq!(
        fnv1a(sup.committed_snapshot().as_bytes()),
        *committed.last().expect("states")
    );
    assert_eq!(store.stats().primary_cycle as usize, committed.len() - 1);
}

#[test]
fn a_kill_right_after_a_checkpoint_promotes_to_the_same_state() {
    const CYCLES: u64 = 21;
    let workload = vt_small();
    let total = workload.spec.wm_size as u64 + CYCLES;

    let mut reference = ReteMatcher::compile(&workload.program).expect("compiles");
    let mut driver = WorkloadDriver::new(workload.clone(), 0x5EED);
    driver.init(&mut reference);
    driver.run_cycles(&mut reference, CYCLES);
    let expected = reference.snapshot();
    let expected_wm = driver.working_memory().snapshot_bytes();

    // The checkpoint that ends cycle `8k - 1` is handed to the store in
    // that cycle; cycle `8k` is the first the publisher may still be
    // pushing it in.
    let kills = (1..total / 8).flat_map(|k| [8 * k, 8 * k + 1]);
    for kill_at in kills.filter(|&kill_at| kill_at < total) {
        let plan = Arc::new(FaultPlan::new(kill_at).with_primary_kill(kill_at));
        let replication = ReplicationConfig::default();
        let mut pair = FailoverPair::new(&workload.program, config(), replication, Some(plan))
            .expect("compiles");
        let mut driver = WorkloadDriver::new(workload.clone(), 0x5EED);
        driver.init(&mut pair);
        driver.run_cycles(&mut pair, CYCLES);

        let report = pair.report();
        assert_eq!(report.promoted_at, Some(kill_at));
        assert_eq!(report.lag_at_promotion, 0, "kill at {kill_at}");
        assert_eq!(pair.tier(), Tier::Promoted, "kill at {kill_at}");
        let promoted = pair.active();
        assert_eq!(
            promoted.committed_snapshot().as_bytes(),
            expected.as_bytes(),
            "kill at {kill_at}"
        );
        assert_eq!(
            promoted.committed_wm_bytes(),
            expected_wm,
            "kill at {kill_at}"
        );
    }
}
