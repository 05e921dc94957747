//! # psm-fault — fault injection, checkpoint/recovery, degradation
//!
//! The paper's machine (§5) is a 32–64-processor shared-memory
//! multiprocessor; at that component count, processor loss, bus
//! faults, and software failures inside the match engine stop being
//! hypothetical. This crate adds the robustness layer the paper leaves
//! implicit, built from three pieces:
//!
//! * **[`FaultPlan`]** — a deterministic, seeded fault schedule
//!   spanning the real parallel engine (dropped tasks, worker panics,
//!   poisoned locks via [`psm_core::FaultInjector`]), supervisor-level
//!   transient faults, and the §6 discrete-event simulator's machine
//!   faults (processor kills, bus stalls via [`psm_sim::SimFaults`]).
//!   Same seed ⇒ same faults, every run, every platform.
//! * **[`Checkpoint`] + [`Wal`]** — versioned byte-level snapshots of
//!   working memory, Rete memories, and conflict set, plus a
//!   write-ahead log of committed change batches. The supervisor
//!   keeps the committed state warm, once: a working memory and a
//!   conflict set beside the live matcher, which is the committed one,
//!   so a checkpoint costs the matching thread an encoding of the
//!   memories that changed; the image is written out from the last one
//!   by whoever keeps it (the replication store's publisher).
//!   Restore snapshot + replay tail is the cold path, for when the live
//!   memories are suspect or not the sequential image (an engine fault,
//!   a batch run in phases) and for when nothing warm exists. Either
//!   way the pre-fault state is reproduced
//!   *byte-for-byte* (same WME ids, same time tags, same memory
//!   contents) — asserted, not assumed, by the tests.
//! * **[`Supervisor`]** — a drop-in [`ops5::Matcher`] that runs the
//!   matcher ladder parallel → sequential → naive with per-cycle
//!   deadlines, bounded retry-with-backoff on transient faults,
//!   committed-state recovery on engine faults, and monotonic graceful
//!   degradation. Every fault, retry, fallback, and recovery is
//!   counted in a [`FaultReport`] and published to `psm-obs`.
//!
//! On top of those sits the replication plane:
//!
//! * **[`CheckpointChain`]** — delta checkpoints (`PSMD`): each
//!   checkpoint is stored as a block-level binary diff against its
//!   parent (told by the matcher which ranges it copied, and
//!   believing none of it unverified), with periodic full-snapshot
//!   anchors, and every link CRC-validated so a chain replays back to
//!   the exact (byte-equal) full checkpoint.
//! * **[`SegmentedWal`]** — the WAL split into bounded, CRC-framed
//!   segments (`PSML` v2) with a manifest; torn tails truncate to the
//!   longest valid prefix on open, and segments fully covered by a
//!   checkpoint are garbage-collected.
//! * **[`ReplicationStore`] + [`StandbyReplica`] + [`FailoverPair`]**
//!   — a primary publishes chain + segments (optionally over
//!   `psm-telemetry`'s `/replicate/*` endpoints), the chain push on a
//!   publisher thread of the store's own; a pull-based standby
//!   streams them into warm state and can be promoted to a live
//!   [`Supervisor`] after a fail-stop primary kill, byte-exactly.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod checkpoint;
pub mod delta;
mod placement;
pub mod plan;
pub mod replica;
pub mod segment;
pub mod supervisor;
pub mod wal;

pub use checkpoint::{Checkpoint, CheckpointImage, ConflictMarks, ConflictUpdate, Draft, Updates};
pub use delta::{ChainArtifact, CheckpointChain, DeltaCheckpoint};
pub use plan::{CycleFault, EngineFault, FaultPlan};
pub use replica::{
    FailoverPair, FailoverReport, ReplicaStatus, ReplicationConfig, ReplicationStats,
    ReplicationStore, StandbyReplica,
};
pub use segment::{crc32, SegmentMeta, SegmentedWal, WalSegment};
pub use supervisor::{FaultReport, RecoveryDrill, Supervisor, SupervisorConfig, Tier};
pub use wal::{Wal, WalChange, WalEntry};

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::Arc;

    use ops5::{Change, Matcher};
    use psm_core::FaultAction;
    use rete::ReteMatcher;
    use workloads::{GeneratedWorkload, Preset, WorkloadDriver};

    use super::*;

    /// Wraps a matcher so every delta folds into a conflict-set
    /// accumulator — the reference against which the supervisor's
    /// recovered conflict set is compared.
    struct Collecting<'a> {
        inner: &'a mut ReteMatcher,
        conflict: &'a mut std::collections::HashSet<ops5::Instantiation>,
    }

    impl Collecting<'_> {
        fn fold(&mut self, d: ops5::MatchDelta) -> ops5::MatchDelta {
            for i in &d.removed {
                self.conflict.remove(i);
            }
            for i in &d.added {
                self.conflict.insert(i.clone());
            }
            d
        }
    }

    impl Matcher for Collecting<'_> {
        fn add_wme(&mut self, wm: &ops5::WorkingMemory, id: ops5::WmeId) -> ops5::MatchDelta {
            let d = self.inner.add_wme(wm, id);
            self.fold(d)
        }
        fn remove_wme(&mut self, wm: &ops5::WorkingMemory, id: ops5::WmeId) -> ops5::MatchDelta {
            let d = self.inner.remove_wme(wm, id);
            self.fold(d)
        }
        fn algorithm_name(&self) -> &'static str {
            "collecting"
        }
    }

    fn drive_reference(
        workload: &GeneratedWorkload,
        seed: u64,
        cycles: u64,
        network: &Arc<rete::Network>,
    ) -> (ReteMatcher, Vec<ops5::Instantiation>) {
        let mut driver = WorkloadDriver::new(workload.clone(), seed);
        let mut matcher = ReteMatcher::from_network(network.clone());
        let mut conflict = std::collections::HashSet::new();
        let mut collecting = Collecting {
            inner: &mut matcher,
            conflict: &mut conflict,
        };
        driver.init(&mut collecting);
        for _ in 0..cycles {
            let batch = driver.next_batch();
            let delta = collecting.inner.process(driver.working_memory(), &batch);
            collecting.fold(delta);
            driver.commit_batch(&batch);
        }
        let mut sorted: Vec<_> = conflict.into_iter().collect();
        sorted.sort_by(|a, b| (a.production, &a.wmes).cmp(&(b.production, &b.wmes)));
        (matcher, sorted)
    }

    fn run_supervised(
        workload: &GeneratedWorkload,
        seed: u64,
        cycles: u64,
        plan: Option<Arc<FaultPlan>>,
        config: SupervisorConfig,
    ) -> Supervisor {
        let mut driver = WorkloadDriver::new(workload.clone(), seed);
        let mut sup = Supervisor::new(&workload.program, config).expect("compiles");
        sup.set_fault_plan(plan);
        driver.init(&mut sup);
        for _ in 0..cycles {
            let batch = driver.next_batch();
            sup.process(driver.working_memory(), &batch);
            driver.commit_batch(&batch);
        }
        sup
    }

    fn small_workload() -> GeneratedWorkload {
        GeneratedWorkload::generate(Preset::EpSoar.spec_small()).expect("generates")
    }

    fn fast_config() -> SupervisorConfig {
        SupervisorConfig {
            threads: 2,
            backoff: std::time::Duration::from_micros(10),
            checkpoint_every: 4,
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn fault_free_supervision_matches_the_reference_byte_for_byte() {
        let w = small_workload();
        let mut sup = run_supervised(&w, 11, 10, None, fast_config());
        assert_eq!(sup.tier(), Tier::Parallel, "nothing degraded");
        let (reference, conflict) = drive_reference(&w, 11, 10, &sup.network().clone());
        assert_eq!(sup.conflict_set(), conflict);
        assert_eq!(
            sup.committed_snapshot().as_bytes(),
            reference.snapshot().as_bytes(),
            "checkpoint + WAL replay reproduces the live sequential state"
        );
        assert!(sup.report().checkpoints >= 1, "checkpoint_every=4 fired");
    }

    #[test]
    fn engine_fault_recovers_to_the_fault_free_state() {
        let w = small_workload();
        for action in [
            FaultAction::DropTask,
            FaultAction::PanicWorker,
            FaultAction::PoisonLock,
        ] {
            // Init adds run one batch each; batch k runs phases 2k-1
            // (remove) and 2k (add). Phase 10 = the add phase of the
            // 5th batch, which always has at least one task.
            let plan = Arc::new(FaultPlan::new(5).with_engine_fault(10, 0, action));
            let mut sup = run_supervised(&w, 11, 10, Some(plan), fast_config());
            let report = sup.report();
            assert_eq!(sup.tier(), Tier::Sequential, "{action:?} degrades");
            assert!(report.engine_faults >= 1, "{action:?} fired");
            assert_eq!(report.recoveries, 1);
            assert_eq!(report.fallbacks, 1);
            assert_eq!(
                report.worker_respawns, 0,
                "{action:?}: the batch is small, so the caller (worker 0) \
                 draws the fault and no pool thread dies"
            );
            let (reference, conflict) = drive_reference(&w, 11, 10, &sup.network().clone());
            assert_eq!(sup.conflict_set(), conflict, "{action:?}");
            assert_eq!(
                sup.committed_snapshot().as_bytes(),
                reference.snapshot().as_bytes(),
                "{action:?}: recovery is byte-exact"
            );
        }
    }

    /// Every checkpoint's working-memory image, copied from the one
    /// before but for the slots that changed, is the committed working
    /// memory's image from nothing — on the vt stream, through an engine
    /// fault's cold path and a fall to the naive tier.
    #[test]
    fn every_copied_wm_image_is_the_image_from_nothing() {
        let w = GeneratedWorkload::generate(Preset::Vt.spec_small()).expect("generates");
        let plan = FaultPlan::new(5)
            .with_engine_fault(10, 0, FaultAction::DropTask)
            .with_cycle_fault(60, 6);
        let mut driver = WorkloadDriver::new(w.clone(), 0x5EED);
        let mut sup = Supervisor::new(&w.program, fast_config()).expect("compiles");
        sup.set_fault_plan(Some(Arc::new(plan)));
        driver.init(&mut sup);
        let mut taken = 0;
        for cycle in 0..120 {
            let batch = driver.next_batch();
            let before = sup.report().checkpoints;
            sup.process(driver.working_memory(), &batch);
            driver.commit_batch(&batch);
            if sup.report().checkpoints > before {
                taken += 1;
                assert_eq!(
                    sup.last_checkpoint().wm[..],
                    sup.committed_wm_bytes(),
                    "cycle {cycle} ({:?})",
                    sup.tier()
                );
            }
        }
        let report = sup.report();
        assert_eq!((report.recoveries, report.fallbacks), (1, 2), "{report:?}");
        assert_eq!(sup.tier(), Tier::Naive);
        assert_eq!(taken, 30, "a checkpoint every four cycles");
    }

    /// Feeds two supervisors — one publishing into a store, one with no
    /// store — and a never-faulted twin matcher the small vt stream, the
    /// batch at `bulk` grown past 1 024 changes, a committed snapshot and
    /// the last checkpoint read between two checkpoints before
    /// `readers_until`. At every checkpoint the image the store's
    /// publisher wrote, each part from its counterpart in the image
    /// before, must be the `PSMC` image of an encode from nothing — the
    /// twin's [`ReteMatcher::snapshot_parts`] with the committed working
    /// memory and conflict set — part by part, and the supervisor with no
    /// store, which writes its images itself, must write the same bytes.
    /// Returns the first supervisor's report and tier, how many readers
    /// and images were checked, and how many conflict-set entries were
    /// changed more than once between two checkpoints.
    fn assert_every_written_image(
        plan: FaultPlan,
        bulk: u64,
        readers_until: u64,
        cycles: u64,
    ) -> (FaultReport, Tier, usize, usize, usize) {
        struct All<'a>(&'a mut Supervisor, &'a mut Supervisor, &'a mut ReteMatcher);
        impl Matcher for All<'_> {
            fn add_wme(&mut self, wm: &ops5::WorkingMemory, id: ops5::WmeId) -> ops5::MatchDelta {
                self.process(wm, &[Change::Add(id)])
            }
            fn remove_wme(
                &mut self,
                wm: &ops5::WorkingMemory,
                id: ops5::WmeId,
            ) -> ops5::MatchDelta {
                self.process(wm, &[Change::Remove(id)])
            }
            fn process(&mut self, wm: &ops5::WorkingMemory, batch: &[Change]) -> ops5::MatchDelta {
                self.2.process(wm, batch);
                self.1.process(wm, batch);
                self.0.process(wm, batch)
            }
            fn algorithm_name(&self) -> &'static str {
                "all"
            }
        }
        let w = GeneratedWorkload::generate(Preset::Vt.spec_small()).expect("generates");
        let plan = Some(Arc::new(plan));
        let store = Arc::new(ReplicationStore::new(ReplicationConfig::default()));
        let mut sup = Supervisor::new(&w.program, fast_config()).expect("compiles");
        sup.set_fault_plan(plan.clone());
        sup.attach_replication(Arc::clone(&store));
        let mut alone = Supervisor::new(&w.program, fast_config()).expect("compiles");
        alone.set_fault_plan(plan);
        let mut reference = ReteMatcher::from_network(sup.network().clone());
        let mut driver = WorkloadDriver::new(w.clone(), 0x5EED);
        driver.init(&mut All(&mut sup, &mut alone, &mut reference));
        let (mut readers, mut checked) = (0, 0);
        // Changes per conflict-set entry since the last checkpoint, and
        // how many entries were changed more than once in one interval.
        let (mut changed, mut repeated) = (HashMap::new(), 0);
        while sup.cycles() < w.spec.wm_size as u64 + cycles {
            let mut batch = driver.next_batch();
            while sup.cycles() == bulk && batch.len() < 1024 {
                batch.extend(driver.next_batch());
            }
            let before = sup.report().checkpoints;
            let delta =
                All(&mut sup, &mut alone, &mut reference).process(driver.working_memory(), &batch);
            driver.commit_batch(&batch);
            for inst in delta.removed.into_iter().chain(delta.added) {
                *changed.entry(inst).or_insert(0) += 1;
            }
            if sup.report().checkpoints == before {
                if sup.cycles() % 4 == 2 && sup.cycles() < readers_until {
                    assert_eq!(sup.committed_snapshot(), reference.snapshot());
                    let last = sup.last_checkpoint().cycle;
                    assert_eq!(alone.last_checkpoint().cycle, last);
                    readers += 1;
                }
                continue;
            }
            repeated += changed.drain().filter(|&(_, n)| n > 1).count();
            let cp = Checkpoint {
                cycle: sup.cycles(),
                wm: sup.committed_wm_bytes(),
                rete: reference.snapshot_parts().0,
                conflict: Checkpoint::encode_conflict(&sup.conflict_set()),
            };
            let from_nothing = cp.to_bytes();
            let at = format!("cycle {} ({:?})", sup.cycles(), sup.tier());
            assert!(
                store.last_image().bytes()[..] == from_nothing[..],
                "{at}: the written image"
            );
            assert!(
                alone.last_checkpoint().to_bytes() == from_nothing,
                "{at}: written with no store"
            );
            let written = sup.last_checkpoint();
            assert!(written.wm == cp.wm, "{at}: the working-memory image");
            assert!(written.conflict == cp.conflict, "{at}: the conflict list");
            assert_eq!(written, &cp, "{at}: the view of it");
            checked += 1;
        }
        assert_eq!(alone.report(), sup.report());
        assert_eq!(alone.tier(), sup.tier());
        (sup.report(), sup.tier(), readers, checked, repeated)
    }

    /// [`assert_every_written_image`] at the parallel tier, through
    /// committed snapshots taken between checkpoints and a bulk batch the
    /// engine runs in phases, which sends the image through the cold
    /// path.
    #[test]
    fn a_written_image_is_the_image_from_nothing_through_readers_and_phases() {
        let init = Preset::Vt.spec_small().wm_size as u64;
        let (report, tier, readers, checked, repeated) =
            assert_every_written_image(FaultPlan::new(3), init + 40, u64::MAX, 80);
        assert_eq!(tier, Tier::Parallel);
        assert!(
            report.wal_replayed > 0,
            "the phased batch took the cold path"
        );
        assert_eq!((readers, checked), (20, 20), "readers, checkpoints");
        assert!(repeated > 0, "an entry changed twice between checkpoints");
    }

    /// [`assert_every_written_image`] through an engine fault's cold path
    /// and a fall to the naive tier, with a reader between checkpoints
    /// before the fault.
    #[test]
    fn a_written_image_is_the_image_from_nothing_through_faults() {
        let init = Preset::Vt.spec_small().wm_size as u64;
        // Batch `k` runs phases `2k + 1` and `2k + 2`.
        let (fault, fall) = (init + 20, init + 50);
        let plan = FaultPlan::new(3)
            .with_engine_fault(2 * fault + 2, 0, FaultAction::DropTask)
            .with_cycle_fault(fall, 6);
        let (report, tier, readers, checked, _) =
            assert_every_written_image(plan, u64::MAX, fault, 80);
        assert_eq!((report.recoveries, report.fallbacks), (1, 2), "{report:?}");
        assert_eq!(tier, Tier::Naive);
        assert_eq!((readers, checked), (5, 20), "readers, checkpoints");
    }

    /// A conflict-set entry that leaves the set and comes back — an
    /// instantiation blocked by a negated condition and unblocked — is
    /// listed as the set holds it at every checkpoint, whether it went
    /// and came back inside one interval or across two, with a store
    /// and without.
    #[test]
    fn an_entry_that_leaves_and_comes_back_is_listed_as_the_set_holds_it() {
        let program = ops5::parse_program("(p r (a ^x <v>) -(b ^x <v>) --> (halt))").unwrap();
        let symbol = |name| program.symbols.lookup(name).expect("interned");
        let wme =
            |class, x| ops5::Wme::new(symbol(class), vec![(symbol("x"), ops5::Value::Int(x))]);
        let config = SupervisorConfig {
            checkpoint_every: 3,
            ..fast_config()
        };
        let mut sup = Supervisor::new(&program, config).expect("compiles");
        let mut alone = Supervisor::new(&program, config).expect("compiles");
        let store = Arc::new(ReplicationStore::new(ReplicationConfig::default()));
        sup.attach_replication(Arc::clone(&store));
        let mut wm = ops5::WorkingMemory::new();
        let (mut blockers, mut sizes) = (Vec::new(), Vec::new());
        // Two entries, then a blocker in and out, over and over: three
        // cycles to an interval, so an entry goes and comes back inside
        // one interval, and across two.
        let steps = [("a", 1), ("a", 2), ("b", 1), ("-", 0), ("b", 1), ("-", 0)]
            .into_iter()
            .chain([("b", 2), ("-", 0), ("b", 2), ("-", 0), ("b", 1), ("-", 0)]);
        for (class, x) in steps {
            let change = match class {
                "-" => Change::Remove(blockers.pop().expect("a blocker in")),
                _ => {
                    let (id, _) = wm.add(wme(class, x));
                    if class == "b" {
                        blockers.push(id);
                    }
                    Change::Add(id)
                }
            };
            let checkpoints = sup.report().checkpoints;
            for s in [&mut sup, &mut alone] {
                s.process(&wm, &[change]);
            }
            if let Change::Remove(id) = change {
                wm.remove(id);
            }
            sizes.push(sup.conflict_set().len());
            if sup.report().checkpoints > checkpoints {
                let list = Checkpoint::encode_conflict(&sup.conflict_set());
                for s in [&sup, &alone] {
                    let written = s.last_checkpoint();
                    assert_eq!(written.conflict, list, "after {sizes:?}");
                    assert_eq!(written.wm, s.committed_wm_bytes(), "after {sizes:?}");
                }
                assert_eq!(
                    store.last_image().bytes()[..],
                    alone.last_checkpoint().to_bytes()
                );
            }
        }
        assert_eq!(
            sizes,
            [1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2],
            "entries went and came back"
        );
        assert_eq!(sup.report().checkpoints, 4, "genesis aside");
    }

    #[test]
    fn transient_faults_retry_then_degrade_to_naive() {
        let w = small_workload();
        // Cycle 3: 2 fails → retries absorb them at the parallel tier.
        // Cycle 5: 6 fails → exhausts retries twice → parallel →
        // sequential → naive.
        let plan = Arc::new(
            FaultPlan::new(0)
                .with_cycle_fault(3, 2)
                .with_cycle_fault(5, 6),
        );
        let mut sup = run_supervised(&w, 11, 8, Some(plan), fast_config());
        let report = sup.report();
        assert_eq!(sup.tier(), Tier::Naive);
        assert!(
            report.transient_faults >= 8 - 2,
            "naive floor stops the count"
        );
        assert!(report.retries >= 4);
        assert_eq!(report.fallbacks, 2, "two tier drops");
        assert_eq!(report.recoveries, 0, "no engine fault, no recovery");
        let (reference, conflict) = drive_reference(&w, 11, 8, &sup.network().clone());
        assert_eq!(sup.conflict_set(), conflict, "naive tier still exact");
        assert_eq!(
            sup.committed_snapshot().as_bytes(),
            reference.snapshot().as_bytes(),
            "WAL replay covers batches matched by the naive tier too"
        );
    }

    #[test]
    fn same_seed_same_faults_same_recovered_state() {
        let w = small_workload();
        let mk = || {
            let plan = Arc::new(FaultPlan::randomized(77, 40, 0.3));
            run_supervised(&w, 13, 12, Some(plan), fast_config())
        };
        let mut a = mk();
        let mut b = mk();
        // Poison-recovery counts depend on which worker touched the
        // poisoned lock first, so they are the one timing-dependent
        // counter; everything else must match exactly.
        let normalize = |mut r: FaultReport| {
            r.poison_recoveries = 0;
            r
        };
        assert_eq!(
            normalize(a.report()),
            normalize(b.report()),
            "identical fault schedule"
        );
        assert_eq!(a.tier(), b.tier());
        assert_eq!(a.conflict_set(), b.conflict_set());
        assert_eq!(
            a.committed_snapshot().as_bytes(),
            b.committed_snapshot().as_bytes()
        );
        assert_eq!(a.committed_wm_bytes(), b.committed_wm_bytes());
    }

    /// The cold path: decode the last checkpoint, replay the whole WAL.
    fn cold_snapshot(sup: &Supervisor) -> rete::ReteSnapshot {
        let network = sup.network().clone();
        let mut cold =
            supervisor::WarmState::restore(network, sup.last_checkpoint()).expect("decodes");
        for entry in sup.wal().entries() {
            cold.replay(entry);
        }
        cold.matcher.snapshot()
    }

    /// Drives `sup` and a never-faulted sequential matcher in lockstep
    /// and, after every cycle, holds the committed snapshot (the live
    /// matcher's, or the naive tier's rebuilt one) against the cold
    /// path and the reference, and a
    /// chain fed every new checkpoint against that checkpoint. `sup`
    /// may be a [`FailoverPair`]; `active` names the live supervisor.
    fn assert_committed_state_every_cycle<M: Matcher>(
        workload: &GeneratedWorkload,
        mut sup: M,
        active: impl Fn(&mut M) -> &mut Supervisor,
        cycles: u64,
        what: &str,
    ) -> M {
        let network = active(&mut sup).network().clone();
        let mut reference = ReteMatcher::from_network(network);
        let mut driver = WorkloadDriver::new(workload.clone(), 0x5EED);
        let mut twin = WorkloadDriver::new(workload.clone(), 0x5EED);
        driver.init(&mut sup);
        twin.init(&mut reference);
        let mut chain = CheckpointChain::new(active(&mut sup).last_checkpoint(), 2);
        let (mut fulls, mut deltas) = (0, 0);
        for cycle in 0..cycles {
            let batch = driver.next_batch();
            sup.process(driver.working_memory(), &batch);
            driver.commit_batch(&batch);
            let batch = twin.next_batch();
            reference.process(twin.working_memory(), &batch);
            twin.commit_batch(&batch);

            let sup = active(&mut sup);
            let committed = sup.committed_snapshot();
            assert_eq!(
                committed.as_bytes(),
                cold_snapshot(sup).as_bytes(),
                "{what}, cycle {cycle}: warm state equals checkpoint + replay"
            );
            assert_eq!(
                committed.as_bytes(),
                reference.snapshot().as_bytes(),
                "{what}, cycle {cycle}: warm state equals the never-faulted run"
            );
            let cp = sup.last_checkpoint();
            if cp.cycle != chain.artifacts().last().expect("anchor").cycle {
                if chain.push(cp).is_full() {
                    fulls += 1;
                } else {
                    deltas += 1;
                }
                assert_eq!(chain.restore_tip().as_ref(), Ok(cp), "{what}: replayed");
                assert_eq!(chain.tip().as_ref(), Ok(cp), "{what}: tip image");
            }
        }
        assert!(fulls > 0 && deltas > 0, "{what}: both kinds of push seen");
        sup
    }

    #[test]
    fn the_committed_state_equals_the_cold_path_on_every_preset() {
        for (i, preset) in Preset::all().iter().enumerate() {
            let w = GeneratedWorkload::generate(preset.spec_small()).expect("generates");
            let horizon = w.spec.wm_size as u64 + 20;
            let chaos = Arc::new(FaultPlan::randomized(0xC4A05 + i as u64, horizon, 0.1));
            for plan in [None, Some(chaos)] {
                let what = format!("{} (plan: {})", preset.name(), plan.is_some());
                let mut sup = Supervisor::new(&w.program, fast_config()).expect("compiles");
                sup.set_fault_plan(plan.clone());
                let sup = assert_committed_state_every_cycle(&w, sup, |s| s, 20, &what);
                if plan.is_none() {
                    assert_eq!(
                        sup.tier(),
                        Tier::Parallel,
                        "{what}: the engine's own matcher was read"
                    );
                }
            }
        }
    }

    #[test]
    fn recovery_replays_the_tail_since_the_last_checkpoint_once() {
        let w = small_workload();
        let init = w.spec.wm_size as u64;
        // Batch k (0-based supervised cycle k) runs phases 2k+1, 2k+2:
        // the fault lands in the add phase of the 7th post-init cycle,
        // three entries past a checkpoint (`checkpoint_every: 4`).
        let fault_cycle = (init + 6).next_multiple_of(4) + 3;
        let plan =
            FaultPlan::new(1).with_engine_fault(2 * fault_cycle + 2, 0, FaultAction::PanicWorker);
        let mut sup = Supervisor::new(&w.program, fast_config()).expect("compiles");
        sup.set_fault_plan(Some(Arc::new(plan)));
        let mut driver = WorkloadDriver::new(w.clone(), 11);
        driver.init(&mut sup);
        while sup.cycles() < fault_cycle - 1 {
            let batch = driver.next_batch();
            sup.process(driver.working_memory(), &batch);
            driver.commit_batch(&batch);
        }
        // Two of the three tail entries are committed. Looking at the
        // committed state reads the engine's own matcher.
        sup.committed_snapshot();
        assert_eq!(sup.report().wal_replayed, 0, "nothing to replay");
        while sup.cycles() <= fault_cycle {
            let batch = driver.next_batch();
            sup.process(driver.working_memory(), &batch);
            driver.commit_batch(&batch);
        }
        let report = sup.report();
        assert_eq!((sup.tier(), report.recoveries), (Tier::Sequential, 1));
        assert_eq!(
            report.wal_replayed, 3,
            "the cold path replayed the three entries since the checkpoint, once"
        );
        let (reference, conflict) = drive_reference(&w, 11, fault_cycle + 1 - init, sup.network());
        assert_eq!(sup.conflict_set(), conflict);
        assert_eq!(
            sup.committed_snapshot().as_bytes(),
            reference.snapshot().as_bytes()
        );
    }

    /// Feeds `feed` a stream that crosses the engine's phase threshold
    /// both ways: 1 100 WMEs asserted four at a time, 1 100 more in one
    /// batch, 30 small batches retracting and asserting, then the whole
    /// working memory retracted in one batch.
    fn bulk_stream(w: &GeneratedWorkload, mut feed: impl FnMut(&ops5::WorkingMemory, &[Change])) {
        let mut wm = ops5::WorkingMemory::new();
        let mut rng = psm_obs::Rng64::new(7);
        let adds = |wm: &mut ops5::WorkingMemory, n: usize, rng: &mut psm_obs::Rng64| {
            let add = |_| Change::Add(wm.add(w.gen_wme(rng)).0);
            (0..n).map(add).collect::<Vec<_>>()
        };
        for _ in 0..275 {
            let batch = adds(&mut wm, 4, &mut rng);
            feed(&wm, &batch);
        }
        let bulk = adds(&mut wm, 1100, &mut rng);
        feed(&wm, &bulk);
        for k in 0..30 {
            let live: Vec<_> = wm.iter().map(|(id, _, _)| id).collect();
            let mut batch = vec![Change::Remove(live[(k * 37) % live.len()])];
            batch.extend(adds(&mut wm, 2, &mut rng));
            feed(&wm, &batch);
            wm.remove(batch[0].wme());
        }
        let all: Vec<Change> = wm.iter().map(|(id, _, _)| Change::Remove(id)).collect();
        feed(&wm, &all);
    }

    #[test]
    fn a_phased_batch_leaves_every_checkpoint_equal_to_the_reference() {
        let w = small_workload();
        let run = || {
            let mut sup = Supervisor::new(&w.program, fast_config()).expect("compiles");
            let mut reference = ReteMatcher::from_network(sup.network().clone());
            let mut images = Vec::new();
            bulk_stream(&w, |wm, batch| {
                sup.process(wm, batch);
                reference.process(wm, batch);
                if sup.last_checkpoint().cycle == sup.cycles() {
                    let image = sup.last_checkpoint().rete.clone();
                    assert_eq!(
                        image.as_bytes(),
                        reference.snapshot().as_bytes(),
                        "cycle {}: the checkpoint's image is the reference's",
                        sup.cycles()
                    );
                    images.push(image);
                }
            });
            assert_eq!(sup.tier(), Tier::Parallel, "nothing degraded");
            assert!(
                sup.report().wal_replayed > 0,
                "the phased batches sent the image through the cold path"
            );
            assert_eq!(
                sup.committed_snapshot().as_bytes(),
                reference.snapshot().as_bytes()
            );
            images
        };
        let images = run();
        assert_eq!(images.len(), 307 / 4, "a checkpoint every fourth batch");
        assert!(images == run(), "twin runs checkpoint the same bytes");
    }

    #[test]
    fn a_vt_stream_at_the_parallel_tier_replays_nothing() {
        let w = GeneratedWorkload::generate(Preset::Vt.spec_small()).expect("generates");
        let mut sup = run_supervised(&w, 11, 40, None, fast_config());
        let report = sup.report();
        assert_eq!(sup.tier(), Tier::Parallel);
        assert!(report.checkpoints > 10, "checkpoints were taken");
        assert_eq!(report.wal_replayed, 0, "the engine's matcher is the image");
        let (reference, conflict) = drive_reference(&w, 11, 40, &sup.network().clone());
        assert_eq!(sup.conflict_set(), conflict);
        assert_eq!(
            sup.committed_snapshot().as_bytes(),
            reference.snapshot().as_bytes()
        );
    }

    #[test]
    fn the_naive_tier_keeps_checkpointing_from_a_rebuilt_committed_state() {
        let w = small_workload();
        let init = w.spec.wm_size as u64;
        // Six failed attempts exhaust the retry budget twice: parallel
        // → sequential → naive within the second post-init cycle.
        let plan = Arc::new(FaultPlan::new(0).with_cycle_fault(init + 1, 6));
        let mut sup = Supervisor::new(&w.program, fast_config()).expect("compiles");
        sup.set_fault_plan(Some(plan));
        let mut sup = assert_committed_state_every_cycle(&w, sup, |s| s, 20, "naive");
        assert_eq!(sup.tier(), Tier::Naive);
        assert_eq!(
            sup.last_checkpoint().cycle,
            (init + 20) / 4 * 4,
            "checkpoints kept coming at the naive tier"
        );
        // Cold once (on entering the tier), warm ever after: an idle
        // look at the committed state replays nothing.
        let replayed = sup.report().wal_replayed;
        sup.committed_snapshot();
        assert_eq!(sup.report().wal_replayed, replayed);
    }

    #[test]
    fn a_promoted_standby_never_replays_and_stays_exact() {
        let w = small_workload();
        let kill_at = w.spec.wm_size as u64 + 5;
        let plan = Arc::new(FaultPlan::new(0).with_primary_kill(kill_at));
        let replication = ReplicationConfig::default();
        let pair = FailoverPair::new(&w.program, fast_config(), replication, Some(plan))
            .expect("compiles");
        let mut pair =
            assert_committed_state_every_cycle(&w, pair, FailoverPair::active, 20, "promoted");
        assert_eq!(pair.tier(), Tier::Promoted);
        assert_eq!(
            pair.active().report().wal_replayed,
            0,
            "the live matcher is the committed state: nothing is ever replayed"
        );
    }

    /// Drives `sup` through three clean batches, checks it is at the
    /// tier under test, then lets the driver assert a batch into its
    /// working memory that is never handed to `process`. The next
    /// supervised batch must refuse to run.
    fn mutate_behind_the_supervisor<M: Matcher>(
        w: &GeneratedWorkload,
        mut sup: M,
        tier: impl Fn(&M) -> Tier,
        expected: Tier,
    ) {
        let asserts =
            |batch: &[ops5::Change]| batch.iter().any(|c| matches!(c, ops5::Change::Add(_)));
        let mut driver = WorkloadDriver::new(w.clone(), 11);
        driver.init(&mut sup);
        for _ in 0..3 {
            let batch = driver.next_batch();
            sup.process(driver.working_memory(), &batch);
            driver.commit_batch(&batch);
        }
        assert_eq!(tier(&sup), expected, "the tier under test was reached");
        let stray = driver.next_batch();
        driver.commit_batch(&stray);
        let batch = driver.next_batch();
        assert!(asserts(&stray) && asserts(&batch), "both batches assert");
        sup.process(driver.working_memory(), &batch);
    }

    #[test]
    #[should_panic(expected = "out of sync")]
    fn a_stray_assertion_is_caught_by_the_next_batch_at_the_parallel_tier() {
        let w = small_workload();
        let sup = Supervisor::new(&w.program, fast_config()).expect("compiles");
        mutate_behind_the_supervisor(&w, sup, Supervisor::tier, Tier::Parallel);
    }

    #[test]
    #[should_panic(expected = "out of sync")]
    fn a_stray_assertion_is_caught_by_the_next_batch_at_the_sequential_tier() {
        let w = small_workload();
        // Three failed attempts exhaust the retry budget once: the first
        // post-init cycle leaves the parallel tier.
        let plan = FaultPlan::new(0).with_cycle_fault(w.spec.wm_size as u64, 3);
        let mut sup = Supervisor::new(&w.program, fast_config()).expect("compiles");
        sup.set_fault_plan(Some(Arc::new(plan)));
        mutate_behind_the_supervisor(&w, sup, Supervisor::tier, Tier::Sequential);
    }

    #[test]
    #[should_panic(expected = "out of sync")]
    fn a_stray_assertion_is_caught_by_the_next_batch_on_a_promoted_standby() {
        let w = small_workload();
        let plan = FaultPlan::new(0).with_primary_kill(w.spec.wm_size as u64 + 1);
        let replication = ReplicationConfig::default();
        let pair = FailoverPair::new(&w.program, fast_config(), replication, Some(Arc::new(plan)))
            .expect("compiles");
        mutate_behind_the_supervisor(&w, pair, FailoverPair::tier, Tier::Promoted);
    }

    #[test]
    fn gauges_stay_at_the_committed_frontier() {
        let w = small_workload();
        let obs = Arc::new(psm_obs::Obs::new(64));
        let mut sup = Supervisor::new(&w.program, fast_config()).expect("compiles");
        sup.attach_obs(obs.clone());
        let mut driver = WorkloadDriver::new(w.clone(), 11);
        driver.init(&mut sup);
        for _ in 0..6 {
            let batch = driver.next_batch();
            sup.process(driver.working_memory(), &batch);
            driver.commit_batch(&batch);
            let gauges = obs.metrics.snapshot().gauges;
            assert_eq!(gauges["fault.wal_entries"], sup.wal().len() as i64);
            assert_eq!(
                gauges["fault.conflict_size"],
                sup.conflict_set().len() as i64
            );
        }
        assert_eq!(sup.tier(), Tier::Parallel);
        let counters = obs.metrics.snapshot().counters;
        assert_eq!(counters["fault.checkpoints"], sup.report().checkpoints);
        assert_eq!(counters["fault.fallbacks"], 0);
    }

    #[test]
    fn deadline_miss_degrades_but_keeps_the_delta() {
        let w = small_workload();
        let config = SupervisorConfig {
            deadline: std::time::Duration::ZERO, // every cycle misses
            ..fast_config()
        };
        let mut sup = run_supervised(&w, 11, 6, None, config);
        let report = sup.report();
        assert!(report.deadline_misses >= 1);
        assert_eq!(sup.tier(), Tier::Sequential, "left the parallel tier");
        assert_eq!(report.recoveries, 0, "no state was corrupt");
        assert_eq!(
            report.wal_replayed, 0,
            "the engine's matcher was handed over"
        );
        let (reference, conflict) = drive_reference(&w, 11, 6, &sup.network().clone());
        assert_eq!(sup.conflict_set(), conflict);
        assert_eq!(
            sup.committed_snapshot().as_bytes(),
            reference.snapshot().as_bytes()
        );
    }
}
