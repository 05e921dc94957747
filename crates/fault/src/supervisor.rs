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
//! [`Checkpoint`]. The committed state is kept once, at the WAL frontier,
//! at every tier: a working memory and a conflict set that each batch
//! enters by the one commit step (its logged WMEs in, its retractions
//! out, its delta into the set), and the live matcher — the engine's own
//! [`ReteMatcher`] at the parallel tier, lent out for
//! [`Supervisor::committed_snapshot`] and checkpoints and taken by value
//! when a deadline miss drops the pool. A checkpoint replays nothing.
//!
//! Where the live memories are not the image a sequential matcher fed
//! the same batches would hold, the cold path rebuilds them: the last
//! checkpoint's bytes, the WAL tail replayed (`WarmState::replay`, the
//! commit step with the matcher run inside it, as on a standby), the
//! matcher handed back to the engine or made the live one. That is after
//! an injected engine fault ([`psm_core::FaultInjector`]), on the loop
//! or in phases — the delta is discarded and the rebuilt matcher runs
//! the interrupted batch — and, before the next reader of the image,
//! after a batch the engine ran in phases
//! ([`psm_core::ParallelStats::phased_batches`]), whose workers file the
//! right entries in schedule order. The naive tier runs no Rete: its
//! first read rebuilds the committed matcher, later reads catch it up.
//! Replay reproduces the exact state (same WME ids, time tags and
//! memories), so every way is byte-identical to a never-faulted run.
//!
//! The supervisor holds no second copy of the caller's working memory to
//! notice a mutation that went around it; ids are dense and never
//! reused, so it tracks the next one and refuses a batch whose
//! assertions do not continue from it — in the cycle it happens, not at
//! a replay that would trip over it later.
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
//! that takes it: the store seals the WAL segment there and then, and on
//! a thread of its own writes the checkpoint's image out and pushes it
//! onto its chain; its reads wait for that push — which is what makes
//! the standby's catch-up byte-exact whenever it looks.
//!
//! A checkpoint costs the matching thread what changed since the last
//! one and nothing else: the matcher's changed sections
//! ([`rete::ReteMatcher::encode_changes`]), the working memory's slots
//! retracted and appended, and the conflict-set entries that went out or
//! came in — both noted as the commit step makes them, so listing them
//! walks neither the working memory nor the set — and a buffer for the
//! image, allocated and handed over unwritten ([`Draft`]). The image is
//! written from the last one, each part from its counterpart — on the
//! store's publisher, or here when no store is attached — and that
//! image is the one copy of the last checkpoint: the supervisor keeps no
//! decoded one, and [`Supervisor::last_checkpoint`] is a view of the
//! image, made when a reader asks. The matcher tracks its changed
//! sections for the checkpoints alone: [`Supervisor::committed_snapshot`]
//! encodes it from nothing and changes nothing the next checkpoint reads.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use baselines::NaiveMatcher;
use ops5::{
    Change, CodecError, Error, Instantiation, MatchDelta, Matcher, Program, WmMarks, Wme, WmeId,
    WorkingMemory, WriteSanitizer,
};
use psm_core::{FaultInjector, ParallelReteMatcher};
use psm_obs::{Counter, Gauge, Obs, Rng64};
use rete::{Network, ReteMatcher, ReteSnapshot};

use crate::checkpoint::{Checkpoint, CheckpointImage, ConflictMarks, Draft, Updates};
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
    /// WAL entries replayed into a rebuilt committed matcher, by the
    /// cold path and by the naive tier's catch-up. A batch the live
    /// matcher matched is not a replay: a healthy Rete tier keeps this
    /// at 0.
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

/// The working memory and the conflict set the committed batches leave.
#[derive(Default)]
pub(crate) struct Committed {
    pub(crate) wm: WorkingMemory,
    /// In canonical order — by production, then WMEs — which is the
    /// order a checkpoint lists it in.
    pub(crate) conflict: BTreeSet<Instantiation>,
    /// What changed in each since the last checkpoint taken of this
    /// state, noted as the commit step makes the changes: the next
    /// checkpoint hands over those alone. Before the first checkpoint,
    /// and on a standby, which takes none, nothing is noted.
    wm_marks: WmMarks,
    conflict_marks: ConflictMarks,
}

impl Committed {
    /// The commit step, the one every tier takes: re-asserts the logged
    /// WMEs in id order (asserting each gets the id it was logged with),
    /// takes the batch's delta from `matched` — given the working memory
    /// as the live protocol has it then — retracts the logged
    /// retractions and folds the delta into the conflict set.
    fn commit(
        &mut self,
        entry: &WalEntry,
        matched: impl FnOnce(&WorkingMemory) -> MatchDelta,
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
            let (rid, _) = self.wm.add(wme.clone());
            assert_eq!(rid, id, "WAL replay must reproduce original WME ids");
        }
        let delta = matched(&self.wm);
        for c in &entry.changes {
            if let WalChange::Remove(id) = c {
                if let Some(wme) = self.wm.remove(*id) {
                    self.wm_marks.retract(*id, &wme);
                }
            }
        }
        self.conflict_marks.fold(&mut self.conflict, &delta);
        delta
    }

    /// The state, with `updates` holding the committed matcher's changed
    /// sections, as the draft of a checkpoint covering `cycle` committed
    /// cycles: the working memory's and the conflict set's changes since
    /// the last one are added to the updates, and the marks emptied.
    fn draft(&mut self, cycle: u64, mut updates: Updates) -> Draft {
        self.wm.encode_changes(&mut self.wm_marks, &mut updates.wm);
        self.conflict_marks
            .take(&self.conflict, &mut updates.conflict);
        Draft::new(cycle, updates)
    }
}

/// Committed state with a sequential matcher of its own, fed exactly the
/// committed batches: what the cold path rebuilds and a standby holds,
/// advanced by [`WarmState::replay`].
pub(crate) struct WarmState {
    pub(crate) committed: Committed,
    pub(crate) matcher: ReteMatcher,
}

impl WarmState {
    /// Decodes `cp` — the cold path, for when nothing warm exists.
    pub(crate) fn restore(network: Arc<Network>, cp: &Checkpoint) -> Result<Self, CodecError> {
        Ok(WarmState {
            matcher: ReteMatcher::restore(network, &cp.rete)?,
            committed: Committed {
                wm: WorkingMemory::restore_snapshot(&cp.wm)?,
                conflict: cp.conflict_list()?.into_iter().collect(),
                ..Committed::default()
            },
        })
    }

    /// Commits one logged batch, the matcher running it in the original
    /// change order, and returns what it did to the conflict set.
    pub(crate) fn replay(&mut self, entry: &WalEntry) -> MatchDelta {
        let changes: Vec<Change> = entry.changes.iter().map(WalChange::as_change).collect();
        let matcher = &mut self.matcher;
        self.committed
            .commit(entry, |wm| matcher.process(wm, &changes))
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
    /// The engine's [`psm_core::ParallelStats::phased_batches`] when its
    /// memories last were the committed image.
    image_at: u64,
    /// The sequential and promoted tiers' matcher.
    rete: Option<ReteMatcher>,
    naive: Option<NaiveMatcher>,
    /// At the naive tier, what the first read after the fall rebuilt,
    /// and the cycles it covers.
    rebuilt: Option<(WarmState, u64)>,
    /// The working memory and conflict set at the WAL frontier.
    committed: Committed,
    /// The id the caller's working memory hands out next, as far as the
    /// supervisor has been told: ids are dense and never reused, so a
    /// batch whose assertions do not continue from here means a
    /// mutation went around `process`.
    next_id: usize,
    /// The last checkpoint's image, which the next is written from, while
    /// no store is attached; an attached store keeps it.
    last: Option<CheckpointImage>,
    /// The last checkpoint, once a reader asked for it: a view of its
    /// image.
    checkpoint: OnceLock<Checkpoint>,
    /// A checkpoint's changes are made into two sets of updates in turn,
    /// one of which the store may still be reading: the other.
    spare: Option<Updates>,
    /// How long [`ReplicationStore::publish_draft`] has made this thread
    /// wait for the checkpoint before, all told.
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
        let genesis = Supervisor::at(
            program,
            network,
            config,
            Tier::Parallel,
            Committed::default(),
            (parallel.rete(), 0),
        );
        Ok(Supervisor {
            parallel: Some(parallel),
            ..genesis
        })
    }

    /// Builds a supervisor directly on warm state — the promotion path
    /// out of [`crate::StandbyReplica`]. Starts at [`Tier::Promoted`]
    /// with the warm sequential matcher live, a checkpoint taken of the
    /// warm state (so local recovery has a base), and the supervised
    /// cycle counter continuing at `cycle`.
    pub(crate) fn from_warm(
        program: &Program,
        network: Arc<Network>,
        config: SupervisorConfig,
        warm: WarmState,
        cycle: u64,
    ) -> Self {
        let next_id = warm.committed.wm.next_id().index();
        let promoted = Supervisor::at(
            program,
            network,
            config,
            Tier::Promoted,
            warm.committed,
            (&warm.matcher, cycle),
        );
        Supervisor {
            rete: Some(warm.matcher),
            next_id,
            cycle,
            ..promoted
        }
    }

    /// A supervisor at `tier` on `committed`, with a checkpoint of it and
    /// of `matcher` covering `cycle` cycles written out, no matcher, and
    /// no history, for the constructors to fill in.
    fn at(
        program: &Program,
        network: Arc<Network>,
        config: SupervisorConfig,
        tier: Tier,
        mut committed: Committed,
        (matcher, cycle): (&ReteMatcher, u64),
    ) -> Self {
        let mut updates = Updates::default();
        matcher.encode_changes(&mut updates.rete);
        let (last, spare) = committed.draft(cycle, updates).write(None);
        Supervisor {
            program: program.clone(),
            network,
            config,
            plan: None,
            obs: None,
            tier,
            parallel: None,
            image_at: 0,
            rete: None,
            naive: None,
            rebuilt: None,
            committed,
            next_id: 0,
            last: Some(last),
            checkpoint: OnceLock::new(),
            spare: Some(spare),
            publish_wait: Duration::ZERO,
            wal: Wal::new(),
            cycle: 0,
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
        let last = match (self.last.take(), &self.replication) {
            (Some(last), _) => last,
            (None, Some(other)) => other.last_image(),
            (None, None) => unreachable!("the last image is kept by the supervisor or its store"),
        };
        self.publish_wait += store.publish_image(last);
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
        if let Some(m) = &mut self.rete {
            m.attach_obs(obs.clone());
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
    pub fn conflict_set(&self) -> Vec<Instantiation> {
        self.committed.conflict.iter().cloned().collect()
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
        let cold = self.rebuild();
        let snapshot_bytes = cold.matcher.snapshot().as_bytes().len();
        RecoveryDrill {
            elapsed: started.elapsed(),
            wal_replayed: self.wal.len() as u64,
            snapshot_bytes,
        }
    }

    /// The last checkpoint (its `cycle` field says how much of history
    /// it covers). Its matcher image is a view of the image written out,
    /// which an attached store writes on its own thread: the first read
    /// after a checkpoint waits for that, as the store's reads do.
    pub fn last_checkpoint(&self) -> &Checkpoint {
        self.checkpoint
            .get_or_init(|| match (&self.last, &self.replication) {
                (Some(last), _) => last.checkpoint(),
                (None, Some(store)) => store.last_checkpoint(),
                (None, None) => {
                    unreachable!("the last image is kept by the supervisor or its store")
                }
            })
    }

    /// A sequential-Rete snapshot of the committed matcher.
    /// Byte-identical to the snapshot of a fault-free [`ReteMatcher`]
    /// on [`Supervisor::network`] fed the same batches — the
    /// recovery-exactness audit hangs off this.
    pub fn committed_snapshot(&mut self) -> ReteSnapshot {
        self.committed_matcher().snapshot()
    }

    /// A canonical snapshot of the committed working memory.
    pub fn committed_wm_bytes(&self) -> Vec<u8> {
        self.committed.wm.snapshot_bytes()
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

    /// The cold path: the last checkpoint decoded and the WAL replayed
    /// into it.
    fn rebuild(&self) -> WarmState {
        let mut cold = WarmState::restore(self.network.clone(), self.last_checkpoint())
            .expect("the checkpoint was taken by this supervisor on this network");
        for entry in self.wal.entries() {
            cold.replay(entry);
        }
        cold
    }

    /// [`Supervisor::rebuild`], counted, with the obs handle attached to
    /// the rebuilt matcher.
    fn cold_path(&mut self) -> ReteMatcher {
        let mut matcher = self.rebuild().matcher;
        self.report.wal_replayed += self.wal.len() as u64;
        if let Some(m) = &self.obs {
            matcher.attach_obs(m.obs.clone());
        }
        matcher
    }

    /// Whether the engine ran a batch in phases since its memories last
    /// were the committed image.
    fn engine_off_image(&self) -> bool {
        let engine = self.parallel.as_ref().expect("parallel tier has an engine");
        engine.stats().phased_batches != self.image_at
    }

    /// The committed matcher, at the WAL frontier: the live one, after
    /// the cold path if the engine ran a batch in phases since its
    /// memories last were the image; at the naive tier, the rebuilt one,
    /// caught up.
    fn committed_matcher(&mut self) -> &ReteMatcher {
        match self.tier {
            Tier::Parallel => {
                if self.engine_off_image() {
                    let matcher = self.cold_path();
                    let engine = self.parallel.as_mut().expect("parallel tier");
                    engine.adopt(matcher);
                    self.image_at = engine.stats().phased_batches;
                }
                self.parallel.as_ref().expect("parallel tier").rete()
            }
            Tier::Sequential | Tier::Promoted => self.rete.as_ref().expect("sequential tier"),
            Tier::Naive => {
                if self.rebuilt.is_none() {
                    let cp = self.last_checkpoint();
                    let cold = WarmState::restore(self.network.clone(), cp);
                    let cold = cold.expect("this supervisor took the checkpoint");
                    self.rebuilt = Some((cold, cp.cycle));
                }
                let (warm, covered) = self.rebuilt.as_mut().expect("rebuilt if it was not");
                let entries = self.wal.entries();
                let tail = &entries[entries.partition_point(|entry| entry.cycle < *covered)..];
                for entry in tail {
                    warm.replay(entry);
                }
                self.report.wal_replayed += tail.len() as u64;
                *covered = self.cycle;
                &warm.matcher
            }
        }
    }

    /// Retires the parallel engine (folding its counters into the
    /// report) and makes the committed matcher the live one: the
    /// engine's own when its memories are the image, else the cold
    /// path's — always after an engine fault (`recovery`).
    fn fall_back_to_sequential(&mut self, recovery: bool) {
        let matcher = (recovery || self.engine_off_image()).then(|| self.cold_path());
        let engine = self.parallel.take().expect("parallel tier has an engine");
        self.report.poison_recoveries += engine.poison_recoveries();
        self.report.worker_respawns += engine.pool_stats().respawns;
        // Either matcher carries the telemetry plane, so `/profile` and
        // `/explain` keep answering at the sequential tier.
        self.rete = Some(matcher.unwrap_or_else(|| engine.into_rete()));
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
    /// memory (the batch under way is not in it yet). The sequential
    /// matcher is dropped — it is the one being degraded from — and the
    /// next read rebuilds the committed matcher on the cold path.
    fn fall_back_to_naive(&mut self) {
        self.rete = None;
        let mut naive = NaiveMatcher::new(&self.program);
        let wm = &self.committed.wm;
        let changes: Vec<Change> = wm.iter().map(|(id, _, _)| Change::Add(id)).collect();
        let mut seeded = naive.process(wm, &changes);
        seeded.canonicalize();
        debug_assert!(
            seeded.added.iter().eq(&self.committed.conflict),
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

    /// One match attempt at the batch `changes` of `wm` on the active
    /// tier. `Err(n)` means the parallel engine reported `n` injected
    /// faults (or panicked) and its delta was discarded.
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
            Tier::Sequential | Tier::Promoted => {
                let m = self.rete.as_mut().expect("sequential tier has a matcher");
                Ok(m.process(wm, changes))
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
        // committed state is kept because re-deriving it costs a restore
        // plus a replay; a checkpoint pays for what changed, in all three
        // parts. The image is written out from the last one elsewhere: on
        // the store's publisher, or here when no store is attached.
        let mut updates = self.spare.take().unwrap_or_default();
        self.committed_matcher().encode_changes(&mut updates.rete);
        let draft = self.committed.draft(self.cycle, updates);
        self.checkpoint = OnceLock::new();
        self.wal.clear();
        self.report.checkpoints += 1;
        self.count("fault.checkpoints");
        match &self.replication {
            Some(store) => {
                let (waited, spare) = store.publish_draft(draft);
                self.publish_wait += waited;
                self.spare = spare;
            }
            None => {
                let (last, spare) = draft.write(self.last.as_mut());
                self.last = Some(last);
                self.spare = Some(spare);
            }
        }
    }

    /// `deadline_missed`: whether the batch just committed blew its
    /// match deadline (`/healthz` reads it).
    fn publish_gauges(&self, deadline_missed: bool) {
        if let Some(m) = &self.obs {
            let values = [
                self.wal.len() as i64,
                self.tier as i64,
                self.committed.conflict.len() as i64,
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
                    // rebuild the committed matcher on the cold path and
                    // re-run the batch on it. Degradation is permanent.
                    self.report.engine_faults += faults;
                    self.count("fault.engine");
                    self.emit("fault.recovery", self.tier, cycle);
                    self.fall_back_to_sequential(true);
                }
            }
        };

        // Commit: the batch joins the committed state, the log and the
        // store.
        let delta = self.committed.commit(&entry, |_| delta);
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
