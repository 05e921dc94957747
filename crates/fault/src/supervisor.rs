//! The supervised match cycle: detection, recovery, degradation.
//!
//! [`Supervisor`] wraps the whole matcher ladder behind the ordinary
//! [`ops5::Matcher`] trait, so the workload driver and interpreter use
//! it unchanged. Internally it runs one of three tiers:
//!
//! 1. **Parallel** — the real multicore [`psm_core::ParallelReteMatcher`]
//!    (fastest, and the only tier the fault plane can corrupt);
//! 2. **Sequential** — the reference [`rete::ReteMatcher`];
//! 3. **Naive** — the stateless [`baselines::NaiveMatcher`] (slowest,
//!    nothing to corrupt: it re-derives the conflict set from live
//!    working memory every cycle).
//!
//! Every committed batch is appended to a [`Wal`]; every
//! `checkpoint_every` cycles the committed state is captured as a
//! [`Checkpoint`]. The committed state itself is kept, not re-derived:
//! beside the parallel engine the supervisor holds one standing
//! *committed mirror* — working memory, a sequential [`ReteMatcher`] and
//! the conflict set, the same triple a warm standby holds — that
//! starts empty at genesis and is advanced lazily, by replaying the WAL
//! entries it has not seen yet, whenever a checkpoint or
//! [`Supervisor::committed_snapshot`] needs it. Each entry is therefore
//! replayed once, and a checkpoint costs the WAL tail plus one snapshot
//! of the mirror. When the parallel engine reports an injected fault
//! (dropped task, worker panic, poisoned lock — see
//! [`psm_core::FaultInjector`]) the possibly-corrupt delta is
//! discarded, the engine is retired, and the supervisor **recovers**:
//! the mirror (which only ever saw committed batches, sequentially) is
//! brought to the WAL frontier and *promoted* to be the live sequential
//! matcher, which then re-runs the interrupted batch. Because replay
//! reproduces the exact pre-fault state (same WME ids, same time tags,
//! same memories), the recovered matcher's snapshot is byte-identical
//! to a never-faulted run — the tests assert exactly that. Restoring a
//! matcher from checkpoint *bytes* is left to the places that have no
//! warm state: a standby basing itself on the shipped chain,
//! [`Supervisor::recovery_drill`], and the naive tier's first
//! checkpoint (its mirror starts from the last checkpoint, since the
//! sequential matcher it degraded from is not trusted).
//!
//! Transient cycle-level faults (from the [`FaultPlan`]) are retried
//! with bounded, jittered backoff (the jitter is seeded from the fault
//! plan so chaos runs stay reproducible — a fixed backoff can lockstep
//! with a periodic fault source); past `max_retries` the supervisor
//! degrades one tier. A per-cycle deadline miss likewise degrades out
//! of the parallel tier, but keeps the (valid) delta. Degradation is
//! monotonic: parallel → sequential → naive, never back up.
//!
//! A fourth tier exists only after failover: [`Tier::Promoted`] is a
//! warm standby ([`crate::StandbyReplica`]) that took over after a
//! primary kill. It runs the sequential matcher it warmed from the
//! replicated checkpoint chain + WAL segments, and degrades to naive
//! like the sequential tier does. When a [`crate::ReplicationStore`]
//! is attached, every committed batch and every checkpoint is
//! published to it synchronously, which is what makes the standby's
//! catch-up byte-exact.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use baselines::NaiveMatcher;
use ops5::{
    Change, CodecError, Error, Instantiation, MatchDelta, Matcher, Program, Wme, WmeId,
    WorkingMemory, WriteSanitizer,
};
use psm_core::{FaultInjector, ParallelReteMatcher};
use psm_obs::{Obs, Rng64};
use rete::{Network, ReteMatcher, ReteSnapshot};

use crate::checkpoint::Checkpoint;
use crate::plan::FaultPlan;
use crate::replica::ReplicationStore;
use crate::wal::{Wal, WalChange, WalEntry};

/// The active matcher tier, ordered fastest-and-most-fragile first.
/// `Promoted` is declared last so the numeric gauge values of the
/// original ladder stay stable (0/1/2); it behaves like `Sequential`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Node-activation-parallel Rete on real threads.
    Parallel,
    /// Sequential Rete (the reference implementation).
    Sequential,
    /// The stateless naive matcher: nothing saved, nothing to corrupt.
    Naive,
    /// A promoted warm standby: sequential Rete warmed from replicated
    /// checkpoints + WAL segments after a primary kill.
    Promoted,
}

impl Tier {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Parallel => "parallel",
            Tier::Sequential => "sequential",
            Tier::Naive => "naive",
            Tier::Promoted => "promoted",
        }
    }

    /// True for the tiers backed by a live sequential [`ReteMatcher`]
    /// (their snapshot *is* the committed state).
    fn sequential_backed(self) -> bool {
        matches!(self, Tier::Sequential | Tier::Promoted)
    }
}

/// Supervision policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Worker threads for the parallel tier.
    pub threads: usize,
    /// Per-cycle deadline; an attempt exceeding it counts a miss and
    /// degrades out of the parallel tier. The default is effectively
    /// "off" for test-sized workloads.
    pub deadline: Duration,
    /// Transient-fault retries per cycle before degrading a tier.
    pub max_retries: u32,
    /// Base backoff between retries (doubles per attempt, capped at
    /// 8×).
    pub backoff: Duration,
    /// Cycles between checkpoints (the WAL is truncated at each).
    pub checkpoint_every: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            threads: 4,
            deadline: Duration::from_secs(30),
            max_retries: 2,
            backoff: Duration::from_micros(200),
            checkpoint_every: 8,
        }
    }
}

/// Counters describing everything the supervisor survived.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Faults the parallel engine actually injected (dropped tasks,
    /// worker panics, lock poisonings).
    pub engine_faults: u64,
    /// Transient cycle-level faults observed.
    pub transient_faults: u64,
    /// Retry attempts performed.
    pub retries: u64,
    /// Tier degradations (parallel→sequential, sequential→naive).
    pub fallbacks: u64,
    /// Recoveries performed after engine faults (the committed mirror
    /// promoted to live matcher).
    pub recoveries: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// WAL entries replayed into the committed mirror (before
    /// checkpoints, recoveries and committed-state reads; each entry
    /// once).
    pub wal_replayed: u64,
    /// Cycles whose match attempt exceeded the deadline.
    pub deadline_misses: u64,
    /// Poisoned locks transparently recovered inside the engine.
    pub poison_recoveries: u64,
    /// Helper threads the engine's pool replaced after a panic
    /// (injected or genuine). A fault drawn by the calling thread —
    /// worker 0, which drains small batches alone — kills no thread and
    /// does not count here.
    pub worker_respawns: u64,
}

/// What a [`Supervisor::recovery_drill`] measured: the wall-clock cost
/// of rebuilding the committed state from the last checkpoint plus WAL
/// replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryDrill {
    /// Wall-clock time for restore + replay + snapshot.
    pub elapsed: Duration,
    /// WAL entries replayed during the drill.
    pub wal_replayed: u64,
    /// Size of the rebuilt sequential snapshot, in bytes.
    pub snapshot_bytes: usize,
}

/// Committed state held warm: working memory, the sequential matcher
/// fed exactly the committed batches, and the conflict set they leave.
/// The supervisor's committed mirror and a standby's replayed state are
/// both one of these, advanced by [`WarmState::replay`].
pub(crate) struct WarmState {
    pub(crate) wm: WorkingMemory,
    pub(crate) matcher: ReteMatcher,
    pub(crate) conflict: HashSet<Instantiation>,
}

impl WarmState {
    /// The state before any batch.
    fn empty(network: Arc<Network>) -> Self {
        WarmState {
            wm: WorkingMemory::new(),
            matcher: ReteMatcher::from_network(network),
            conflict: HashSet::new(),
        }
    }

    /// Decodes `cp` — the cold path, for when nothing warm exists.
    pub(crate) fn restore(network: Arc<Network>, cp: &Checkpoint) -> Result<Self, CodecError> {
        Ok(WarmState {
            matcher: ReteMatcher::restore(network, &cp.rete)?,
            wm: WorkingMemory::restore_snapshot(&cp.wm)?,
            conflict: cp.conflict.iter().cloned().collect(),
        })
    }

    /// Commits one logged batch.
    pub(crate) fn replay(&mut self, entry: &WalEntry) {
        let delta = replay_entry(&mut self.wm, &mut self.matcher, entry);
        apply_delta(&mut self.conflict, &delta);
    }
}

/// The supervised matcher. See the module docs for the protocol.
pub struct Supervisor {
    program: Program,
    network: Arc<Network>,
    config: SupervisorConfig,
    plan: Option<Arc<FaultPlan>>,
    obs: Option<Arc<Obs>>,
    tier: Tier,
    parallel: Option<ParallelReteMatcher>,
    sequential: Option<ReteMatcher>,
    naive: Option<NaiveMatcher>,
    /// Replica of the caller's working memory, synced from the change
    /// stream; checkpoints snapshot this, so it must see every
    /// mutation (which it does as long as all mutations flow through
    /// `process`, as the driver and interpreter guarantee).
    shadow: WorkingMemory,
    conflict: HashSet<Instantiation>,
    checkpoint: Checkpoint,
    wal: Wal,
    /// The committed mirror: present at the tiers whose live matcher
    /// is not itself the committed state (parallel from genesis, naive
    /// from its first checkpoint), behind the WAL frontier by the
    /// entries from `mirror_applied` on.
    mirror: Option<WarmState>,
    /// How many of `wal`'s entries the mirror has replayed.
    mirror_applied: usize,
    cycle: u64,
    report: FaultReport,
    /// Debug write-set sanitizer; see [`Supervisor::attach_sanitizer`].
    sanitizer: Option<Arc<WriteSanitizer>>,
    /// Retry-backoff jitter, re-seeded from the fault plan so chaos
    /// runs stay reproducible.
    jitter: Rng64,
    /// Replication sink; see [`Supervisor::attach_replication`].
    replication: Option<Arc<ReplicationStore>>,
}

impl Supervisor {
    /// Compiles `program` and starts supervision at the parallel tier
    /// with a genesis checkpoint.
    pub fn new(program: &Program, config: SupervisorConfig) -> Result<Self, Error> {
        let network = Arc::new(Network::compile(program)?);
        let parallel = ParallelReteMatcher::from_network(network.clone(), config.threads);
        let mirror = WarmState::empty(network.clone());
        let genesis = mirror.matcher.snapshot();
        Ok(Supervisor {
            program: program.clone(),
            network,
            config,
            plan: None,
            obs: None,
            tier: Tier::Parallel,
            parallel: Some(parallel),
            sequential: None,
            naive: None,
            shadow: WorkingMemory::new(),
            conflict: HashSet::new(),
            checkpoint: Checkpoint::genesis(genesis),
            wal: Wal::new(),
            mirror: Some(mirror),
            mirror_applied: 0,
            cycle: 0,
            report: FaultReport::default(),
            sanitizer: None,
            jitter: Rng64::new(0),
            replication: None,
        })
    }

    /// Builds a supervisor directly on warm state — the promotion path
    /// out of [`crate::StandbyReplica`]. Starts at [`Tier::Promoted`]
    /// with the warm sequential matcher live, a checkpoint snapshotted
    /// from the warm state (so local recovery has a base), and the
    /// supervised cycle counter continuing at `cycle`.
    pub(crate) fn from_warm(
        program: &Program,
        network: Arc<Network>,
        config: SupervisorConfig,
        warm: WarmState,
        cycle: u64,
    ) -> Self {
        let WarmState {
            wm,
            matcher,
            conflict,
        } = warm;
        let checkpoint = Checkpoint {
            cycle,
            wm: wm.snapshot_bytes(),
            rete: matcher.snapshot(),
            conflict: sorted(&conflict),
        };
        Supervisor {
            program: program.clone(),
            network,
            config,
            plan: None,
            obs: None,
            tier: Tier::Promoted,
            parallel: None,
            sequential: Some(matcher),
            naive: None,
            shadow: wm,
            conflict,
            checkpoint,
            wal: Wal::new(),
            mirror: None,
            mirror_applied: 0,
            cycle,
            report: FaultReport::default(),
            sanitizer: None,
            jitter: Rng64::new(0),
            replication: None,
        }
    }

    /// Attaches a debug [`WriteSanitizer`]: every supervised batch is
    /// checked against the firing production's static write set before
    /// the attempt loop runs, so the check holds across retries, tier
    /// falls, and recovery replays. Share the same `Arc` with the
    /// interpreter's `attach_sanitizer` — it owns the firing context;
    /// batches seen outside a firing are not checked.
    pub fn attach_sanitizer(&mut self, sanitizer: Arc<WriteSanitizer>) {
        self.sanitizer = Some(sanitizer);
    }

    /// Installs (or clears) the fault plan. Engine faults reach the
    /// parallel matcher through its injector hook, and the retry
    /// jitter re-seeds from the plan's seed so equal plans produce
    /// equal backoff schedules.
    pub fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        if let Some(p) = &mut self.parallel {
            p.set_fault_injector(plan.clone().map(|p| p as Arc<dyn FaultInjector>));
        }
        self.jitter = Rng64::new(plan.as_ref().map_or(0, |p| p.seed));
        self.plan = plan;
    }

    /// Attaches a replication sink: the current checkpoint is
    /// published immediately as the chain's anchor, and from here on
    /// every committed batch and every checkpoint is published
    /// synchronously — a standby pulling the store can always catch up
    /// to the committed frontier, byte-exactly.
    pub fn attach_replication(&mut self, store: Arc<ReplicationStore>) {
        store.publish_checkpoint(&self.checkpoint);
        for entry in self.wal.entries() {
            store.publish_entry(entry);
        }
        self.replication = Some(store);
    }

    /// Attaches an observability handle; fault/retry/fallback/recovery
    /// counters are published under `fault.*`, and the parallel tier's
    /// engine counters under `engine.*`.
    pub fn attach_obs(&mut self, obs: Arc<Obs>) {
        if let Some(p) = &mut self.parallel {
            p.attach_obs(obs.clone());
        }
        if let Some(m) = &mut self.sequential {
            m.attach_obs(obs.clone());
        }
        self.obs = Some(obs);
    }

    /// The compiled network (shared with every Rete tier; reference
    /// runs for byte-for-byte audits should build on this).
    pub fn network(&self) -> &Arc<Network> {
        &self.network
    }

    /// The currently active tier.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// The conflict set, sorted canonically.
    pub fn conflict_set(&self) -> Vec<Instantiation> {
        sorted(&self.conflict)
    }

    /// Fault counters so far (includes the live engine's poison-
    /// recovery count).
    pub fn report(&self) -> FaultReport {
        let mut r = self.report;
        if let Some(p) = &self.parallel {
            r.poison_recoveries += p.poison_recoveries();
            r.worker_respawns += p.pool_stats().respawns;
        }
        r
    }

    /// Supervised cycles processed.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// WAL entries accumulated since the last checkpoint.
    pub fn wal_len(&self) -> usize {
        self.wal.len()
    }

    /// The live WAL (entries since the last checkpoint).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Times a full checkpoint-restore + WAL-replay rebuild without
    /// mutating supervisor state — the recovery-cost probe behind the
    /// `fault_report` bench's recovery-time column.
    pub fn recovery_drill(&self) -> RecoveryDrill {
        let started = Instant::now();
        let mut cold = self.cold_restore();
        for entry in self.wal.entries() {
            cold.replay(entry);
        }
        let snapshot_bytes = cold.matcher.snapshot().as_bytes().len();
        RecoveryDrill {
            elapsed: started.elapsed(),
            wal_replayed: self.wal.len() as u64,
            snapshot_bytes,
        }
    }

    /// The last checkpoint (its `cycle` field says how much of history
    /// it covers).
    pub fn last_checkpoint(&self) -> &Checkpoint {
        &self.checkpoint
    }

    /// A sequential-Rete snapshot of the committed state: the live
    /// matcher's at the sequential tiers, otherwise the committed
    /// mirror's once it has replayed the WAL entries it had not seen.
    /// Byte-identical to the snapshot of a fault-free [`ReteMatcher`]
    /// on [`Supervisor::network`] fed the same batches — the
    /// recovery-exactness audit hangs off this.
    pub fn committed_snapshot(&mut self) -> ReteSnapshot {
        self.committed_matcher().snapshot()
    }

    /// A canonical snapshot of the shadow working memory.
    pub fn committed_wm_bytes(&self) -> Vec<u8> {
        self.shadow.snapshot_bytes()
    }

    fn count(&self, name: &str) {
        if let Some(obs) = &self.obs {
            obs.metrics.counter(name).inc();
        }
    }

    fn emit(&self, name: &str, tier: Tier, cycle: u64) {
        if let Some(obs) = &self.obs {
            obs.events.emit(
                name,
                &[
                    ("tier", tier.name().into()),
                    ("cycle", (cycle as i64).into()),
                ],
            );
        }
    }

    /// Decodes the last checkpoint into warm state (nothing replayed
    /// yet).
    fn cold_restore(&self) -> WarmState {
        WarmState::restore(self.network.clone(), &self.checkpoint)
            .expect("the checkpoint was taken by this supervisor on this network")
    }

    /// Brings the committed mirror to the WAL frontier: replays the
    /// entries it has not seen (each is counted in `wal_replayed` here,
    /// once), starting from the last checkpoint when there is no mirror
    /// yet.
    fn advance_mirror(&mut self) -> &WarmState {
        if self.mirror.is_none() {
            self.mirror = Some(self.cold_restore());
            self.mirror_applied = 0;
        }
        let mirror = self.mirror.as_mut().expect("just ensured");
        let tail = &self.wal.entries()[self.mirror_applied..];
        for entry in tail {
            mirror.replay(entry);
        }
        self.report.wal_replayed += tail.len() as u64;
        self.mirror_applied = self.wal.len();
        debug_assert_eq!(
            mirror.conflict, self.conflict,
            "replay must reproduce the committed conflict set"
        );
        mirror
    }

    /// The sequential matcher holding the committed state.
    fn committed_matcher(&mut self) -> &ReteMatcher {
        if self.tier.sequential_backed() {
            self.sequential.as_ref().expect("sequential tier")
        } else {
            &self.advance_mirror().matcher
        }
    }

    /// Retires the parallel engine (folding its counters into the
    /// report) and promotes the committed mirror to live matcher.
    fn fall_back_to_sequential(&mut self, recovery: bool) {
        if let Some(p) = self.parallel.take() {
            self.report.poison_recoveries += p.poison_recoveries();
            self.report.worker_respawns += p.pool_stats().respawns;
        }
        self.advance_mirror();
        let mut m = self.mirror.take().expect("just advanced").matcher;
        // Keep the telemetry plane alive across degradation: the
        // promoted matcher inherits the flight recorder and per-node
        // profiler, so `/profile` and `/explain` keep answering at the
        // sequential tier.
        if let Some(obs) = &self.obs {
            m.attach_obs(obs.clone());
        }
        self.sequential = Some(m);
        self.tier = Tier::Sequential;
        self.report.fallbacks += 1;
        self.count("fault.fallbacks");
        if recovery {
            self.report.recoveries += 1;
            self.count("fault.recoveries");
        }
    }

    /// Degrades sequential → naive: the naive matcher re-derives all
    /// state from live WMEs, so it is seeded with the committed
    /// working memory (everything live in the shadow except the
    /// current batch's assertions).
    fn fall_back_to_naive(&mut self, batch_adds: &HashSet<WmeId>) {
        self.sequential = None;
        let mut naive = NaiveMatcher::new(&self.program);
        let live: Vec<WmeId> = self
            .shadow
            .iter()
            .map(|(id, _, _)| id)
            .filter(|id| !batch_adds.contains(id))
            .collect();
        let changes: Vec<Change> = live.into_iter().map(Change::Add).collect();
        let mut seeded = naive.process(&self.shadow, &changes);
        seeded.canonicalize();
        debug_assert_eq!(
            seeded.added,
            self.conflict_set(),
            "the naive matcher re-derives the committed conflict set"
        );
        self.naive = Some(naive);
        self.tier = Tier::Naive;
        self.report.fallbacks += 1;
        self.count("fault.fallbacks");
    }

    fn degrade_one_tier(&mut self, batch_adds: &HashSet<WmeId>, cycle: u64) {
        match self.tier {
            Tier::Parallel => {
                self.emit("fault.fallback", Tier::Sequential, cycle);
                self.fall_back_to_sequential(false);
            }
            Tier::Sequential | Tier::Promoted => {
                self.emit("fault.fallback", Tier::Naive, cycle);
                self.fall_back_to_naive(batch_adds);
            }
            Tier::Naive => {} // Already at the floor; keep trying.
        }
    }

    /// One match attempt on the active tier. `Err(n)` means the
    /// parallel engine reported `n` injected faults (or panicked) and
    /// its delta was discarded.
    fn try_match(&mut self, wm: &WorkingMemory, changes: &[Change]) -> Result<MatchDelta, u64> {
        match self.tier {
            Tier::Parallel => {
                let m = self.parallel.as_mut().expect("parallel tier has an engine");
                let outcome = catch_unwind(AssertUnwindSafe(|| m.process(wm, changes)));
                let faults = m.take_faults();
                match outcome {
                    Ok(delta) if faults == 0 => Ok(delta),
                    Ok(_) => Err(faults),
                    Err(_) => Err(faults.max(1)),
                }
            }
            Tier::Sequential | Tier::Promoted => Ok(self
                .sequential
                .as_mut()
                .expect("sequential tier has a matcher")
                .process(wm, changes)),
            Tier::Naive => Ok(self
                .naive
                .as_mut()
                .expect("naive tier has a matcher")
                .process(wm, changes)),
        }
    }

    fn take_checkpoint(&mut self) {
        // The §3.1 state-saving bet restated for fault tolerance: the
        // committed state is kept (live matcher or mirror) because
        // re-deriving it costs a restore plus a full replay; what a
        // checkpoint pays is the WAL tail and one snapshot.
        let rete = self.committed_matcher().snapshot();
        self.checkpoint = Checkpoint {
            cycle: self.cycle,
            wm: self.shadow.snapshot_bytes(),
            rete,
            conflict: self.conflict_set(),
        };
        self.wal.clear();
        self.mirror_applied = 0;
        self.report.checkpoints += 1;
        self.count("fault.checkpoints");
        if let Some(store) = &self.replication {
            store.publish_checkpoint(&self.checkpoint);
        }
    }

    fn publish_gauges(&self) {
        if let Some(obs) = &self.obs {
            obs.metrics
                .gauge("fault.wal_entries")
                .set(self.wal.len() as i64);
            obs.metrics.gauge("fault.tier").set(self.tier as i64);
            obs.metrics
                .gauge("fault.conflict_size")
                .set(self.conflict.len() as i64);
            obs.metrics
                .gauge("fault.worker_respawns")
                .set(self.report().worker_respawns as i64);
        }
    }

    fn supervised_process(&mut self, wm: &WorkingMemory, changes: &[Change]) -> MatchDelta {
        if let Some(s) = &self.sanitizer {
            s.check_batch(wm, changes);
        }
        let cycle = self.cycle;
        self.cycle += 1;

        // Log the batch and sync the shadow's assertions (in id order,
        // so the shadow hands out the same handles the caller got).
        let mut entry = WalEntry {
            cycle,
            changes: Vec::with_capacity(changes.len()),
        };
        for &c in changes {
            entry.changes.push(match c {
                Change::Add(id) => {
                    let wme = wm
                        .get(id)
                        .expect("Add changes must be live in the working memory")
                        .clone();
                    WalChange::Add(wme, id)
                }
                Change::Remove(id) => WalChange::Remove(id),
            });
        }
        let mut adds: Vec<(WmeId, Wme)> = entry
            .changes
            .iter()
            .filter_map(|c| match c {
                WalChange::Add(w, id) => Some((*id, w.clone())),
                WalChange::Remove(_) => None,
            })
            .collect();
        adds.sort_by_key(|(id, _)| id.index());
        let batch_adds: HashSet<WmeId> = adds.iter().map(|(id, _)| *id).collect();
        for (id, wme) in adds {
            let (sid, _) = self.shadow.add(wme);
            assert_eq!(
                sid, id,
                "supervisor shadow out of sync: every working-memory \
                 mutation must flow through the supervisor"
            );
        }

        // Attempt loop: planned transient faults, engine faults, and
        // deadline misses all funnel through here.
        let planned_fails = self.plan.as_ref().map_or(0, |p| p.fails_for_cycle(cycle));
        let mut failed = 0u32;
        let mut deadline_degrade = false;
        let mut deadline_missed = false;
        let delta = loop {
            if failed < planned_fails && self.tier != Tier::Naive {
                // A planned transient fault burns this attempt.
                failed += 1;
                self.report.transient_faults += 1;
                self.count("fault.transient");
                if failed > self.config.max_retries {
                    self.degrade_one_tier(&batch_adds, cycle);
                } else {
                    self.report.retries += 1;
                    self.count("fault.retries");
                    // Exponential backoff with ±50% jitter, drawn from
                    // the plan-seeded RNG so equal plans sleep equally.
                    let factor = 1u32 << (failed - 1).min(3);
                    let jittered =
                        (self.config.backoff * factor).mul_f64(0.5 + self.jitter.gen_f64());
                    thread::sleep(jittered);
                }
                continue;
            }
            let started = Instant::now();
            match self.try_match(wm, changes) {
                Ok(delta) => {
                    if started.elapsed() > self.config.deadline {
                        self.report.deadline_misses += 1;
                        self.count("fault.deadline_misses");
                        deadline_missed = true;
                        // The delta is valid — keep it — but the tier
                        // missed its budget; leave the parallel engine
                        // after this batch commits.
                        deadline_degrade = self.tier == Tier::Parallel;
                    }
                    break delta;
                }
                Err(faults) => {
                    // The engine's state is suspect: discard the delta,
                    // recover from checkpoint + WAL, re-run the batch
                    // sequentially. Degradation is permanent.
                    self.report.engine_faults += faults;
                    self.count("fault.engine");
                    self.emit("fault.recovery", self.tier, cycle);
                    self.fall_back_to_sequential(true);
                }
            }
        };

        // Commit: conflict set, WAL, shadow retractions.
        apply_delta(&mut self.conflict, &delta);
        let removes: Vec<WmeId> = entry
            .changes
            .iter()
            .filter_map(|c| match c {
                WalChange::Remove(id) => Some(*id),
                WalChange::Add(..) => None,
            })
            .collect();
        if let Some(store) = &self.replication {
            store.publish_entry(&entry);
        }
        self.wal.push(entry);
        for id in removes {
            self.shadow.remove(id);
        }
        if deadline_degrade && self.tier == Tier::Parallel {
            self.emit("fault.fallback", Tier::Sequential, cycle);
            self.fall_back_to_sequential(false);
        }
        if (cycle + 1).is_multiple_of(self.config.checkpoint_every.max(1)) {
            self.take_checkpoint();
        }
        if let Some(obs) = &self.obs {
            // /healthz reads this: whether the most recent batch blew
            // its match deadline (1) or met it (0).
            obs.metrics
                .gauge("fault.last_cycle_deadline_miss")
                .set(i64::from(deadline_missed));
        }
        self.publish_gauges();
        delta
    }
}

impl Matcher for Supervisor {
    fn add_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
        self.supervised_process(wm, &[Change::Add(id)])
    }

    fn remove_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
        self.supervised_process(wm, &[Change::Remove(id)])
    }

    fn process(&mut self, wm: &WorkingMemory, changes: &[Change]) -> MatchDelta {
        self.supervised_process(wm, changes)
    }

    fn algorithm_name(&self) -> &'static str {
        "supervised-parallel-rete"
    }
}

/// Replays one WAL entry: re-assert the logged WMEs (asserting id
/// continuity), run the matcher with the original change order, then
/// retract — exactly the live protocol.
fn replay_entry<M: Matcher>(
    wm: &mut WorkingMemory,
    matcher: &mut M,
    entry: &WalEntry,
) -> MatchDelta {
    let mut adds: Vec<(WmeId, &Wme)> = entry
        .changes
        .iter()
        .filter_map(|c| match c {
            WalChange::Add(w, id) => Some((*id, w)),
            WalChange::Remove(_) => None,
        })
        .collect();
    adds.sort_by_key(|(id, _)| id.index());
    for (id, wme) in adds {
        let (rid, _) = wm.add(wme.clone());
        assert_eq!(rid, id, "WAL replay must reproduce original WME ids");
    }
    let changes: Vec<Change> = entry.changes.iter().map(|c| c.as_change()).collect();
    let delta = matcher.process(wm, &changes);
    for c in &entry.changes {
        if let WalChange::Remove(id) = c {
            wm.remove(*id);
        }
    }
    delta
}

/// A conflict set in canonical order.
fn sorted(conflict: &HashSet<Instantiation>) -> Vec<Instantiation> {
    let mut v: Vec<Instantiation> = conflict.iter().cloned().collect();
    v.sort_by(|a, b| (a.production, &a.wmes).cmp(&(b.production, &b.wmes)));
    v
}

/// Applies a delta to a conflict-set accumulator.
fn apply_delta(conflict: &mut HashSet<Instantiation>, delta: &MatchDelta) {
    for inst in &delta.removed {
        conflict.remove(inst);
    }
    for inst in &delta.added {
        conflict.insert(inst.clone());
    }
}
