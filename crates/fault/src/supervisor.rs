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
//! [`Checkpoint`]. The committed state itself is kept, not re-derived,
//! and kept **once**: one `WarmState` — working memory, a sequential
//! [`ReteMatcher`] and the conflict set, the same triple a warm standby
//! holds — plus a count of how many of the WAL's entries it holds. What
//! it is depends on the tier:
//!
//! * **parallel** — it starts empty at genesis and *trails* the WAL
//!   frontier: the engine matches the batch, the batch is logged, and
//!   the committed state takes it up lazily, by replaying the entries it
//!   has not seen, whenever a checkpoint or a reader
//!   ([`Supervisor::committed_snapshot`], [`Supervisor::conflict_set`],
//!   [`Supervisor::committed_wm_bytes`]) needs it. Each entry is
//!   replayed once, and a checkpoint costs the WAL tail plus a
//!   snapshot of the memories the tail changed (the matcher copies the
//!   rest from its last image, and the chain diffs only around the
//!   copies).
//! * **sequential / promoted** — its matcher *is* the live matcher:
//!   matching a batch is `WarmState::replay` of the batch's entry into
//!   it (its own working memory, the same ids), so it sits at the
//!   frontier and nothing is ever replayed lazily.
//! * **naive** — the fall drops it, because the sequential matcher that
//!   kept it is the one being degraded from; the next read rebuilds it
//!   from the last checkpoint (the cold path), after which it trails
//!   the frontier as at the parallel tier.
//!
//! There is one way a sequential matcher consumes a committed batch —
//! `WarmState::replay` — at every tier, on a standby and in
//! [`Supervisor::recovery_drill`]. When the parallel engine reports an
//! injected fault (dropped task, worker panic, poisoned lock — see
//! [`psm_core::FaultInjector`]) the possibly-corrupt delta is discarded,
//! the engine is retired, and the supervisor **recovers**: the committed
//! state (which only ever saw committed batches, sequentially) is
//! brought to the WAL frontier and from then on matches live, starting
//! with the interrupted batch. Because replay reproduces the exact
//! pre-fault state (same WME ids, same time tags, same memories), the
//! recovered matcher's snapshot is byte-identical to a never-faulted
//! run — the tests assert exactly that. Restoring a matcher from
//! checkpoint *bytes* is left to the places that have no warm state: a
//! standby basing itself on the shipped chain,
//! [`Supervisor::recovery_drill`], and the naive tier's first read.
//!
//! The supervisor holds no second copy of the caller's working memory to
//! notice a mutation that went around it; ids are dense and never
//! reused, so it tracks the next one and refuses a batch whose
//! assertions do not continue from it — in the cycle it happens, not at
//! the lazy replay that would trip over it later.
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
//! is attached, every committed batch is published to it in the cycle
//! that commits it, and every checkpoint is handed to it in the cycle
//! that takes it: the store seals the WAL segment there and then and
//! pushes the checkpoint onto its chain on a thread of its own, and its
//! reads wait for that push — which is what makes the standby's
//! catch-up byte-exact whenever it looks.

use std::collections::BTreeSet;
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
use psm_obs::{Counter, Gauge, Obs, Rng64};
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
    /// Recoveries performed after engine faults (the committed state's
    /// matcher made the live one).
    pub recoveries: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// WAL entries the committed state caught up on lazily (before
    /// checkpoints, recoveries and committed-state reads; each entry
    /// once). A batch the sequential tiers commit as they match it is
    /// not a replay.
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
/// The supervisor's committed state and a standby's replayed state are
/// both one of these, advanced by [`WarmState::replay`].
pub(crate) struct WarmState {
    pub(crate) wm: WorkingMemory,
    pub(crate) matcher: ReteMatcher,
    /// In canonical order — by production, then WMEs — which is the
    /// order a checkpoint lists it in.
    pub(crate) conflict: BTreeSet<Instantiation>,
}

impl WarmState {
    /// The state before any batch.
    fn empty(network: Arc<Network>) -> Self {
        WarmState {
            wm: WorkingMemory::new(),
            matcher: ReteMatcher::from_network(network),
            conflict: BTreeSet::new(),
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

    /// The state as a checkpoint covering `cycle` committed cycles.
    fn checkpoint(&self, cycle: u64) -> Checkpoint {
        Checkpoint {
            cycle,
            wm: self.wm.snapshot_bytes(),
            rete: self.matcher.snapshot(),
            conflict: self.conflict.iter().cloned().collect(),
        }
    }

    /// Commits one logged batch and returns what it did to the conflict
    /// set: re-assert the logged WMEs (asserting id continuity), run the
    /// matcher with the original change order, then retract — exactly
    /// the live protocol.
    pub(crate) fn replay(&mut self, entry: &WalEntry) -> MatchDelta {
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
            let (rid, _) = self.wm.add(wme.clone());
            assert_eq!(rid, id, "WAL replay must reproduce original WME ids");
        }
        let changes: Vec<Change> = entry.changes.iter().map(WalChange::as_change).collect();
        let delta = self.matcher.process(&self.wm, &changes);
        for c in &entry.changes {
            if let WalChange::Remove(id) = c {
                self.wm.remove(*id);
            }
        }
        for inst in &delta.removed {
            self.conflict.remove(inst);
        }
        for inst in &delta.added {
            self.conflict.insert(inst.clone());
        }
        delta
    }
}

/// `fault.*` counters, in the order of [`FaultMetrics::counters`].
const COUNTERS: [&str; 7] = [
    "fault.engine",
    "fault.transient",
    "fault.retries",
    "fault.fallbacks",
    "fault.recoveries",
    "fault.checkpoints",
    "fault.deadline_misses",
];

/// `fault.*` gauges, in the order [`Supervisor::publish_gauges`] sets
/// them.
const GAUGES: [&str; 6] = [
    "fault.wal_entries",
    "fault.tier",
    "fault.conflict_size",
    "fault.worker_respawns",
    "fault.last_cycle_deadline_miss",
    "fault.checkpoint_publish_wait_us",
];

/// The attached [`Obs`] plus the registry handles the supervisor
/// publishes into, resolved once at attach time (see `EngineMetrics` in
/// [`psm_core`]: a lookup by name is a mutex plus a `String`
/// allocation, and six gauges are set on every cycle).
struct FaultMetrics {
    obs: Arc<Obs>,
    counters: [Arc<Counter>; 7],
    gauges: [Arc<Gauge>; 6],
}

/// The supervised matcher. See the module docs for the protocol.
pub struct Supervisor {
    program: Program,
    network: Arc<Network>,
    config: SupervisorConfig,
    plan: Option<Arc<FaultPlan>>,
    obs: Option<FaultMetrics>,
    tier: Tier,
    parallel: Option<ParallelReteMatcher>,
    naive: Option<NaiveMatcher>,
    /// The committed state, held once. At the sequential tiers its
    /// matcher is the live one and it sits at the WAL frontier; at the
    /// parallel and naive tiers it trails the frontier by the entries
    /// from `applied` on until [`Supervisor::advance`] catches it up.
    /// `None` only at the naive tier before the first read since the
    /// fall (the matcher degraded from is not trusted, so the state is
    /// rebuilt from the last checkpoint).
    committed: Option<WarmState>,
    /// How many of `wal`'s entries `committed` holds.
    applied: usize,
    /// The id the caller's working memory hands out next, as far as the
    /// supervisor has been told: ids are dense and never reused, so a
    /// batch whose assertions do not continue from here means a
    /// mutation went around `process`.
    next_id: usize,
    /// Size of the conflict set at the WAL frontier, kept from the exact
    /// deltas (the set itself lives in `committed`, which may trail).
    conflict_size: usize,
    /// Shared with the replication store while it pushes it.
    checkpoint: Arc<Checkpoint>,
    /// How long [`ReplicationStore::publish_checkpoint`] has made this
    /// thread wait for the checkpoint before, all told.
    publish_wait: Duration,
    wal: Wal,
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
        let committed = WarmState::empty(network.clone());
        let genesis = committed.matcher.snapshot();
        Ok(Supervisor {
            program: program.clone(),
            network,
            config,
            plan: None,
            obs: None,
            tier: Tier::Parallel,
            parallel: Some(parallel),
            naive: None,
            committed: Some(committed),
            applied: 0,
            next_id: 0,
            conflict_size: 0,
            checkpoint: Arc::new(Checkpoint::genesis(genesis)),
            publish_wait: Duration::ZERO,
            wal: Wal::new(),
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
        Supervisor {
            program: program.clone(),
            network,
            config,
            plan: None,
            obs: None,
            tier: Tier::Promoted,
            parallel: None,
            naive: None,
            applied: 0,
            next_id: warm.wm.next_id().index(),
            conflict_size: warm.conflict.len(),
            checkpoint: Arc::new(warm.checkpoint(cycle)),
            publish_wait: Duration::ZERO,
            committed: Some(warm),
            wal: Wal::new(),
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
    /// every committed batch and every checkpoint is published as it is
    /// committed or taken. The store pushes a checkpoint onto its chain
    /// on its own thread and makes its readers wait for the push, so a
    /// standby pulling the store can always catch up to the committed
    /// frontier, byte-exactly.
    pub fn attach_replication(&mut self, store: Arc<ReplicationStore>) {
        self.publish_wait += store.publish_checkpoint(Arc::clone(&self.checkpoint));
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
        if let (Tier::Sequential | Tier::Promoted, Some(c)) = (self.tier, &mut self.committed) {
            c.matcher.attach_obs(obs.clone());
        }
        self.obs = Some(FaultMetrics {
            counters: COUNTERS.map(|name| obs.metrics.counter(name)),
            gauges: GAUGES.map(|name| obs.metrics.gauge(name)),
            obs,
        });
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

    /// The committed conflict set, sorted canonically.
    pub fn conflict_set(&mut self) -> Vec<Instantiation> {
        self.advance().conflict.iter().cloned().collect()
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

    /// A sequential-Rete snapshot of the committed state, once it has
    /// caught up on the WAL entries it had not seen (none at the
    /// sequential tiers, where its matcher is the live one).
    /// Byte-identical to the snapshot of a fault-free [`ReteMatcher`]
    /// on [`Supervisor::network`] fed the same batches — the
    /// recovery-exactness audit hangs off this.
    pub fn committed_snapshot(&mut self) -> ReteSnapshot {
        self.advance().matcher.snapshot()
    }

    /// A canonical snapshot of the committed working memory.
    pub fn committed_wm_bytes(&mut self) -> Vec<u8> {
        self.advance().wm.snapshot_bytes()
    }

    /// Bumps one of [`COUNTERS`] (off the per-cycle path: faults,
    /// retries, fallbacks and checkpoints only).
    fn count(&self, name: &str) {
        if let Some(m) = &self.obs {
            let i = COUNTERS.iter().position(|n| *n == name);
            m.counters[i.expect("a `fault.*` counter")].inc();
        }
    }

    fn emit(&self, name: &str, tier: Tier, cycle: u64) {
        if let Some(FaultMetrics { obs, .. }) = &self.obs {
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

    /// Brings the committed state to the WAL frontier: replays the
    /// entries it does not hold yet (each is counted in `wal_replayed`
    /// here, once), starting from the last checkpoint when the naive
    /// tier dropped it.
    fn advance(&mut self) -> &WarmState {
        if self.committed.is_none() {
            self.committed = Some(self.cold_restore());
        }
        let committed = self.committed.as_mut().expect("just ensured");
        let tail = &self.wal.entries()[self.applied..];
        for entry in tail {
            committed.replay(entry);
        }
        self.report.wal_replayed += tail.len() as u64;
        self.applied = self.wal.len();
        debug_assert_eq!(
            committed.conflict.len(),
            self.conflict_size,
            "replay must reproduce the conflict set the live deltas were counted from"
        );
        committed
    }

    /// Retires the parallel engine (folding its counters into the
    /// report) and makes the committed state's matcher the live one.
    fn fall_back_to_sequential(&mut self, recovery: bool) {
        if let Some(p) = self.parallel.take() {
            self.report.poison_recoveries += p.poison_recoveries();
            self.report.worker_respawns += p.pool_stats().respawns;
        }
        self.advance();
        // Keep the telemetry plane alive across degradation: the
        // matcher going live inherits the flight recorder and per-node
        // profiler, so `/profile` and `/explain` keep answering at the
        // sequential tier.
        if let (Some(m), Some(c)) = (&self.obs, &mut self.committed) {
            c.matcher.attach_obs(m.obs.clone());
        }
        self.tier = Tier::Sequential;
        self.report.fallbacks += 1;
        self.count("fault.fallbacks");
        if recovery {
            self.report.recoveries += 1;
            self.count("fault.recoveries");
        }
    }

    /// Degrades sequential → naive: the naive matcher re-derives all
    /// state from live WMEs, so it is seeded with the committed working
    /// memory (the batch under way is not in it yet). The committed
    /// state is then dropped — the matcher that kept it is the one
    /// being degraded from — and the next read rebuilds it from the
    /// last checkpoint.
    fn fall_back_to_naive(&mut self) {
        let committed = self.committed.take().expect("sequential tier");
        self.applied = 0;
        let mut naive = NaiveMatcher::new(&self.program);
        let changes: Vec<Change> = committed
            .wm
            .iter()
            .map(|(id, _, _)| Change::Add(id))
            .collect();
        let mut seeded = naive.process(&committed.wm, &changes);
        seeded.canonicalize();
        debug_assert!(
            seeded.added.iter().eq(&committed.conflict),
            "the naive matcher re-derives the committed conflict set"
        );
        self.naive = Some(naive);
        self.tier = Tier::Naive;
        self.report.fallbacks += 1;
        self.count("fault.fallbacks");
    }

    fn degrade_one_tier(&mut self, cycle: u64) {
        match self.tier {
            Tier::Parallel => {
                self.emit("fault.fallback", Tier::Sequential, cycle);
                self.fall_back_to_sequential(false);
            }
            Tier::Sequential | Tier::Promoted => {
                self.emit("fault.fallback", Tier::Naive, cycle);
                self.fall_back_to_naive();
            }
            Tier::Naive => {} // Already at the floor; keep trying.
        }
    }

    /// One match attempt at `entry`, the batch `changes` of `wm`, on the
    /// active tier. `Err(n)` means the parallel engine reported `n`
    /// injected faults (or panicked) and its delta was discarded.
    fn try_match(
        &mut self,
        wm: &WorkingMemory,
        changes: &[Change],
        entry: &WalEntry,
    ) -> Result<MatchDelta, u64> {
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
            Tier::Sequential | Tier::Promoted => {
                // Matching the batch *is* committing it to the one
                // state there is (own working memory, same ids); the
                // attempt cannot fail, and the entry joins the WAL
                // before anything reads `applied` again.
                self.applied += 1;
                let committed = self.committed.as_mut().expect("sequential tier");
                Ok(committed.replay(entry))
            }
            Tier::Naive => Ok(self
                .naive
                .as_mut()
                .expect("naive tier has a matcher")
                .process(wm, changes)),
        }
    }

    fn take_checkpoint(&mut self) {
        // The §3.1 state-saving bet restated for fault tolerance: the
        // committed state is kept because re-deriving it costs a
        // restore plus a full replay; what a checkpoint pays is the WAL
        // tail and a snapshot of what the tail changed.
        let cycle = self.cycle;
        self.checkpoint = Arc::new(self.advance().checkpoint(cycle));
        self.wal.clear();
        self.applied = 0;
        self.report.checkpoints += 1;
        self.count("fault.checkpoints");
        if let Some(store) = &self.replication {
            self.publish_wait += store.publish_checkpoint(Arc::clone(&self.checkpoint));
        }
    }

    /// `deadline_missed`: whether the batch just committed blew its
    /// match deadline (`/healthz` reads it).
    fn publish_gauges(&self, deadline_missed: bool) {
        if let Some(m) = &self.obs {
            let values = [
                self.wal.len() as i64,
                self.tier as i64,
                self.conflict_size as i64,
                self.report().worker_respawns as i64,
                i64::from(deadline_missed),
                self.publish_wait.as_micros() as i64,
            ];
            for (gauge, value) in m.gauges.iter().zip(values) {
                gauge.set(value);
            }
        }
    }

    fn supervised_process(&mut self, wm: &WorkingMemory, changes: &[Change]) -> MatchDelta {
        if let Some(s) = &self.sanitizer {
            s.check_batch(wm, changes);
        }
        let cycle = self.cycle;
        self.cycle += 1;

        // Log the batch, checking that its assertions (in id order)
        // take up exactly where the last ones the supervisor saw left
        // off — the one thing replay cannot repair later.
        let mut entry = WalEntry {
            cycle,
            changes: Vec::with_capacity(changes.len()),
        };
        let mut asserted = Vec::new();
        for &c in changes {
            entry.changes.push(match c {
                Change::Add(id) => {
                    let wme = wm
                        .get(id)
                        .expect("Add changes must be live in the working memory")
                        .clone();
                    asserted.push(id.index());
                    WalChange::Add(wme, id)
                }
                Change::Remove(id) => WalChange::Remove(id),
            });
        }
        asserted.sort_unstable();
        let expected = self.next_id..self.next_id + asserted.len();
        assert!(
            asserted.iter().copied().eq(expected.clone()),
            "supervisor out of sync with the caller's working memory \
             (batch asserts ids {asserted:?}, next are {expected:?}): every \
             working-memory mutation must flow through the supervisor"
        );
        self.next_id = expected.end;

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
                    self.degrade_one_tier(cycle);
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
            match self.try_match(wm, changes, &entry) {
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
                    // bring the committed state to the WAL frontier and
                    // re-run the batch on it. Degradation is permanent.
                    self.report.engine_faults += faults;
                    self.count("fault.engine");
                    self.emit("fault.recovery", self.tier, cycle);
                    self.fall_back_to_sequential(true);
                }
            }
        };

        // Commit: the batch joins the log (and the store). Unless the
        // committed state matched it itself just now, it takes the
        // batch up when it is next read.
        self.conflict_size = self.conflict_size + delta.added.len() - delta.removed.len();
        if let Some(store) = &self.replication {
            store.publish_entry(&entry);
        }
        self.wal.push(entry);
        if deadline_degrade && self.tier == Tier::Parallel {
            self.emit("fault.fallback", Tier::Sequential, cycle);
            self.fall_back_to_sequential(false);
        }
        if (cycle + 1).is_multiple_of(self.config.checkpoint_every.max(1)) {
            self.take_checkpoint();
        }
        self.publish_gauges(deadline_missed);
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
