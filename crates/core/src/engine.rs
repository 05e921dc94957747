//! The node-activation-parallel Rete engine.
//!
//! See the crate docs for the consistency protocol. The engine is the
//! sequential [`ReteMatcher`] — its memories and its activation loop —
//! plus a [`WorkerPool`]. A batch too small to repay the phases (fewer
//! than [`PHASE_CHANGES`] changes) runs through the sequential matcher
//! on the calling thread, so it costs what the sequential matcher
//! costs, whatever the thread count. A larger batch runs in two
//! barrier-separated phases (retractions, then assertions) across the
//! pool, on one thread too; within a phase, activations bound for the
//! same node are grouped into one task (batched change propagation:
//! dispatch and flight tracing are paid once per node per phase
//! fragment, not once per WME change).
//!
//! **Memories.** Both paths read and write the same memories: the
//! sequential matcher's one [`rete::Memory`] per alpha node, per beta
//! memory and per negative node. In a phase only the caller writes them,
//! and only between phases: a batch's assertions are filed into the
//! alpha memories at the start of the add phase and its retractions
//! unfiled at the end of the remove phase, and what a phase's tasks list
//! for the beta and negative memories is filed when the phase ends.
//! During a phase they are plain shared data ([`rete::Memories`]), and a
//! task writes nothing shared but its worker's deque. An activation
//! scans the one chain its own key selects, the same candidates the
//! sequential matcher scans — or, for a join under a negative node whose
//! memory has no chain of the join's key, the whole memory.
//!
//! **Delta rules.** In a phase every two-input node reads its token
//! memory as the phase found it (L) and its alpha memory as the phase
//! leaves it (R′): the phase's assertions are filed before it starts,
//! and its retractions are hidden by the phase stamp each changed WME
//! carries. A join follows Δ(L⋈R) = ΔL⋈R′ + L⋈ΔR. A negative node, whose
//! output is L ▷ R (the tokens of L no WME of R matches, c(t) = 0),
//! follows Δ(L ▷ R) = ΔL ▷ R′ − {t ∈ L : c_R(t) = 0 < c_R′(t)} + {t ∈ L :
//! c_R(t) > 0 = c_R′(t)}: a left activation of either sign counts its
//! token's matches in R′, passes the token on when there are none and
//! lists it with the count for filing; the node's right activations of
//! a phase, one task, add up each entry's count change and emit the
//! entries whose count leaves or reaches zero. A join under a negative
//! node reads that node's unblocked entries; a join under the top token
//! reads the top token. Each pair is then made or retracted exactly
//! once, in whatever order the tasks run and whatever mix of signs comes
//! down the left input. A node whose token memory holds nothing it
//! reads when the phase starts gets no seed task (its right activations
//! would scan nothing), and a join gets no left task while its alpha
//! memory is empty: it would scan nothing and file nothing.
//!
//! **Scheduling.** A phase's tasks are drained by a work-first
//! [`WorkerPool`] — the software analogue of the paper's hardware task
//! scheduler. The thread that calls [`Matcher::process`] is worker 0 and
//! starts draining at once; the seeds are dealt over every worker's
//! deque and the `threads − 1` parked helpers are woken, and join if
//! they arrive before the phase is drained. Every worker pops its own
//! deque LIFO (locality) and steals FIFO from peers when it runs dry.
//! Deques, per-worker scratch, the per-node task grouping and the
//! payload buffers all live as long as the matcher, so a steady-state
//! phase neither hashes nor allocates to dispatch.
//!
//! Every worker keeps [`WorkerStats`] counters (tasks, steals, idle
//! spins, queue depth, lock wait) that are merged after each phase —
//! a batch on the sequential loop dispatches no task and counts its
//! time as worker 0's — and optionally published to an attached
//! [`psm_obs::Obs`] registry; timing counters (`lock_wait_ns`,
//! `exec_ns`) are only collected once
//! [`ParallelReteMatcher::enable_timing`] or the obs detail toggle
//! turns them on, keeping the default hot path free of clock reads.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use psm_obs::metrics::{Counter, Gauge};
use psm_obs::{NodeDelta, NodeProfiler, Obs, ProfileKind};

use ops5::{
    Change, Error, FxHashMap, Instantiation, MatchDelta, Matcher, Program, WmeId, WorkingMemory,
};
use rete::kernel::{self, FlightStage, Work};
use rete::network::NodeKind;
use rete::{
    ActivationKind, AlphaId, CompileOptions, Memories, NegEntry, Network, NodeId, NodeSpec,
    ReteMatcher, Sign, Token,
};

use crate::pool::{lock, PanicPayload, PoolStats, WorkerPool};
use crate::topology::{LeftInput, ParallelTopology};

/// Configuration for the parallel engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelOptions {
    /// Worker threads (the paper's processor count). Clamped to ≥ 1.
    pub threads: usize,
    /// Compile the network with node sharing (default true).
    pub share: bool,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            share: true,
        }
    }
}

/// Work counters aggregated across workers and batches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Change batches processed.
    pub batches: u64,
    /// Working-memory changes processed.
    pub changes: u64,
    /// Node-activation tasks executed in phases: one task carries every
    /// payload bound for its node in that phase fragment.
    pub tasks: u64,
    /// Node activations of the batches run through the sequential
    /// matcher's loop, which dispatches no task.
    pub loop_activations: u64,
    /// Batches run in phases across the pool; the rest ran on the
    /// sequential loop. A phase files what its tasks list in the order
    /// the workers listed it, so after one the memories hold the
    /// sequential matcher's entries, not its image.
    pub phased_batches: u64,
    /// Join-test evaluations.
    pub join_tests: u64,
    /// Opposite-memory entries scanned.
    pub pairs_scanned: u64,
    /// Constant (alpha) tests evaluated during ingest.
    pub constant_tests: u64,
}

/// Per-worker scheduler counters, accumulated across phases.
///
/// Counter fields are always collected (plain integer adds on
/// thread-local scratch); the `*_ns` timing fields stay zero unless
/// timing is enabled via [`ParallelReteMatcher::enable_timing`] or an
/// attached [`Obs`] handle with the detail toggle on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Node-activation tasks this worker executed.
    pub tasks: u64,
    /// Tasks taken from another worker's deque.
    pub steals: u64,
    /// Peer deques probed for work (successful or not).
    pub steal_attempts: u64,
    /// Empty polls (no task anywhere while a peer still held work).
    pub idle_spins: u64,
    /// High-water mark of this worker's local deque.
    pub max_queue_depth: u64,
    /// Nanoseconds spent waiting on deque locks — pops, steals and
    /// pushes of a phase (timing mode only).
    pub lock_wait_ns: u64,
    /// Nanoseconds spent executing tasks (timing mode only).
    pub exec_ns: u64,
}

impl WorkerStats {
    /// Folds `other` into `self` (counters add, high-water maxes).
    pub fn merge(&mut self, other: &WorkerStats) {
        self.tasks += other.tasks;
        self.steals += other.steals;
        self.steal_attempts += other.steal_attempts;
        self.idle_spins += other.idle_spins;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.lock_wait_ns += other.lock_wait_ns;
        self.exec_ns += other.exec_ns;
    }
}

/// What a [`FaultInjector`] tells a worker to do with the task it is
/// about to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultAction {
    /// Execute normally.
    #[default]
    None,
    /// Silently discard the task (its subtree of activations is lost —
    /// the state corruption a lost message on the paper's shared bus
    /// would cause).
    DropTask,
    /// Panic before touching any node state (a worker dying cleanly).
    PanicWorker,
    /// Acquire the drawing worker's deque lock, then panic while holding
    /// it (poisons the mutex; exercises the poison-recovering lock path).
    PoisonLock,
}

/// Deterministic fault-injection hook for the work-stealing loop.
///
/// Consulted once per task, keyed by the engine's monotonically
/// increasing phase sequence number and a per-phase global task sequence
/// number. Because the *set* of tasks a phase executes is
/// schedule-independent (the consistency protocol makes task outcomes
/// commutative), a plan keyed on `(phase, seq)` fires deterministically
/// across runs even though *which worker* draws the poisoned task races.
/// A batch on the sequential matcher keeps the coordinates: its
/// retractions are the tasks of the batch's remove phase and its
/// assertions those of its add phase, numbered in batch order, all on
/// worker 0. Every change's action is drawn before any change runs: a
/// task dropped there drops its change, and a panic there runs none of
/// the batch.
///
/// Implemented by `psm_fault::FaultPlan`; the engine only knows the
/// trait so the dependency points outward.
pub trait FaultInjector: Send + Sync {
    /// Decides the fate of task number `seq` of phase `phase`, about to
    /// run on worker `worker`.
    fn on_task(&self, phase: u64, seq: u64, worker: usize) -> FaultAction;
}

/// Counts and carries out `action`, drawn for a task about to run,
/// returning whether to run it. A worker panic panics; a poisoned lock
/// panics holding `deque`, the drawing worker's, before any task state
/// is touched — the deque's value stays consistent, which is what
/// [`relock`] relies on.
fn inject(
    action: FaultAction,
    faults: &AtomicU64,
    deque: &Mutex<VecDeque<Task>>,
    recovered: &AtomicU64,
) -> bool {
    if action != FaultAction::None {
        faults.fetch_add(1, Ordering::Relaxed);
    }
    match action {
        FaultAction::None => true,
        FaultAction::DropTask => false,
        FaultAction::PanicWorker => panic!("injected fault: worker panic"),
        FaultAction::PoisonLock => {
            let _held = relock(deque, recovered, None);
            panic!("injected fault: lock poison")
        }
    }
}

/// Locks `m`, recovering (rather than panicking) if a previous holder
/// panicked: a deque is poisoned only by an injected fault that panics
/// holding it without touching it, so a poisoned guard still protects a
/// consistent value. Every recovery is counted, once — the poison is
/// cleared — so supervisors can see how often the pool survived a
/// poisoned lock. The wait is added to `waited`, when given.
fn relock<'a, T>(
    m: &'a Mutex<T>,
    recovered: &AtomicU64,
    waited: Option<&mut u64>,
) -> MutexGuard<'a, T> {
    let clock = waited.map(|waited| (waited, Instant::now()));
    let guard = m.lock().unwrap_or_else(|poisoned| {
        recovered.fetch_add(1, Ordering::Relaxed);
        m.clear_poison();
        poisoned.into_inner()
    });
    if let Some((waited, t0)) = clock {
        *waited += t0.elapsed().as_nanos() as u64;
    }
    guard
}

/// [`relock`] through exclusive access, so without an atomic unless `m`
/// is poisoned, and counting the recovery only when `recovered` is
/// given: a panicking task leaves the engine's own scratch consistent,
/// so poison there is ignored.
fn reclaim<'a, T>(m: &'a mut Mutex<T>, recovered: Option<&AtomicU64>) -> &'a mut T {
    if let Some(recovered) = recovered.filter(|_| m.is_poisoned()) {
        recovered.fetch_add(1, Ordering::Relaxed);
        m.clear_poison();
    }
    m.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// A pending node activation: the whole batch of payloads bound for one
/// node in this phase fragment. Grouping amortizes dispatch and flight
/// tracing across the batch instead of paying them per WME change
/// (DESIGN.md §17); a node's right activations of a phase are one task,
/// which the anti-join delta rule relies on (module docs).
#[derive(Debug)]
struct Task {
    node: NodeId,
    items: Vec<Item>,
}

#[derive(Debug)]
enum Payload {
    Right(WmeId),
    Left(Token),
}

/// One signed activation bound for a node.
type Item = (Payload, Sign);

/// Order-preserving grouping of seed activations by destination node:
/// the builder behind batched change propagation. Payloads for the same
/// node coalesce into one [`Task`] in first-seen node order, so a
/// phase's task count scales with the touched-node set, not the change
/// count. Dense and persistent: a node-indexed position table instead
/// of a per-batch hash map, emptied (not freed) when the phase takes
/// its tasks.
struct TaskGroups {
    /// Node index → position of its task in `tasks`, or [`NO_TASK`].
    pos: Vec<u32>,
    tasks: Vec<Task>,
}

const NO_TASK: u32 = u32::MAX;

impl TaskGroups {
    fn new(nodes: usize) -> Self {
        TaskGroups {
            pos: vec![NO_TASK; nodes],
            tasks: Vec::new(),
        }
    }

    /// Adds one payload for `node`, opening the node's task with one
    /// of `local`'s recycled buffers on first sight.
    fn push(&mut self, node: NodeId, payload: Payload, sign: Sign, local: &mut WorkerLocal) {
        let pos = &mut self.pos[node.index()];
        if *pos == NO_TASK {
            *pos = self.tasks.len() as u32;
            let items = local.buffer();
            self.tasks.push(Task { node, items });
        }
        self.tasks[*pos as usize].items.push((payload, sign));
    }

    /// Takes the tasks in first-seen node order; the groups are empty
    /// again once the iterator is exhausted.
    fn drain(&mut self) -> impl Iterator<Item = Task> + '_ {
        // One task per node.
        let own = |(at, task): (usize, &Task)| self.pos[task.node.index()] as usize == at;
        debug_assert!(self.tasks.iter().enumerate().all(own));
        let pos = &mut self.pos;
        self.tasks
            .drain(..)
            .inspect(|task| pos[task.node.index()] = NO_TASK)
    }

    /// Drops the tasks of the nodes `idle` picks, handing their
    /// buffers back to `local`.
    fn prune(&mut self, local: &mut WorkerLocal, mut idle: impl FnMut(NodeId) -> bool) {
        let TaskGroups { pos, tasks } = self;
        let mut kept = 0;
        tasks.retain_mut(|task| {
            if !idle(task.node) {
                pos[task.node.index()] = kept;
                kept += 1;
                return true;
            }
            pos[task.node.index()] = NO_TASK;
            task.items.clear();
            local.recycle(std::mem::take(&mut task.items));
            false
        });
    }
}

/// What the tasks of one phase share: the network and the memories,
/// which nothing writes during a phase, and the phase's coordinates.
struct PhaseCx<'a> {
    /// The caller's working memory: every WME a task reads, by the
    /// matcher contract.
    wm: &'a WorkingMemory,
    /// The phase's number, which the WMEs it changes are stamped with.
    seq: u64,
    /// The add phase (else the remove phase).
    adding: bool,
    network: &'a Network,
    topo: &'a ParallelTopology,
    memories: Memories<'a>,
    stamps: &'a [u64],
    /// Node slots of the attached profiler (0: off, or none attached).
    prof_slots: usize,
    /// The attached profiler, while it records per-node latency.
    latency: Option<&'a NodeProfiler>,
    /// Collect lock-wait and exec timing.
    timing: bool,
    fault: Option<&'a dyn FaultInjector>,
    /// The matcher's count of injected faults.
    faults: &'a AtomicU64,
}

/// How a worker reaches the one shared thing it writes during a phase:
/// its own deque, through its lock.
struct Reach<'a> {
    queue: &'a Mutex<VecDeque<Task>>,
    /// Tasks queued or running.
    pending: &'a AtomicUsize,
    recovered: &'a AtomicU64,
    timing: bool,
    /// Nanoseconds waited for `queue` by pushes (timing mode only),
    /// until the worker takes them into its [`WorkerStats`].
    waited: u64,
}

impl Reach<'_> {
    /// This worker's deque, with `spawned` more tasks counted pending.
    fn queue(&mut self, spawned: usize) -> MutexGuard<'_, VecDeque<Task>> {
        self.pending.fetch_add(spawned, Ordering::AcqRel);
        let waited = self.timing.then_some(&mut self.waited);
        relock(self.queue, self.recovered, waited)
    }
}

/// Per-worker scratch. Lives as long as the matcher; the counters are
/// merged into the matcher's totals and zeroed after each phase.
#[derive(Default)]
struct WorkerLocal {
    delta: MatchDelta,
    join_tests: u64,
    pairs_scanned: u64,
    worker: WorkerStats,
    /// Per-node profiler deltas, accumulated locally during the phase
    /// and flushed into `Obs::profile` once at the merge barrier — the
    /// same cold-path discipline as the per-worker counters. Empty
    /// unless the attached `Obs` has profile capacity.
    prof: FxHashMap<u32, (ProfileKind, NodeDelta)>,
    /// Activations of nodes past that capacity this phase: counted, not
    /// accumulated, and flushed as one number.
    prof_overflow: u64,
    /// Flight records staged during the phase and published at the same
    /// barrier; stages nothing unless the attached `Obs` has flight
    /// capacity.
    flight: FlightStage,
    /// Scratch for the tokens one `exec` emits; empty between tasks.
    emitted: Vec<(Token, Sign)>,
    /// Scratch for the entries a negative node's right activations hit,
    /// by position, once per hit; empty between tasks.
    hits: Vec<u32>,
    /// What this phase's tasks list for the caller to file when the
    /// phase ends, each with the node whose memory it goes to: the
    /// tokens joins emitted toward a beta memory; the tokens negative
    /// nodes received, with their counts in R′; and the count changes
    /// of negative entries, by position.
    filings: Vec<(NodeId, Token, Sign)>,
    negatives: Vec<(NodeId, NegEntry, Sign)>,
    recounts: Vec<(NodeId, u32, i32)>,
    /// Drained payload buffers awaiting reuse by the next task this
    /// worker builds (worker 0's also serve the seed grouping), and
    /// their capacities summed.
    free: Vec<Vec<Item>>,
    free_items: usize,
}

/// Most payload-buffer capacity a worker keeps for reuse, in bytes,
/// whatever bulk batch went through: 16 Ki items of 32 B (a token in
/// place, or a WME id, and a sign). The deepest phase of the vt stream
/// held 402 buffers of at most 16 items at once (seed tasks plus
/// queued children; 1000 cycles of `Preset::Vt.spec()`, when every
/// batch ran in phases), 201 KiB if every one were full — the free list
/// itself peaked at 1 646 items, 51 KiB — so such a stream never returns
/// a buffer to the allocator.
const FREE_BYTES: usize = 512 * 1024;

impl WorkerLocal {
    /// Keeps the emptied buffer of an executed task for reuse.
    fn recycle(&mut self, items: Vec<Item>) {
        debug_assert!(items.is_empty());
        let kept = self.free_items + items.capacity();
        if kept * std::mem::size_of::<Item>() <= FREE_BYTES {
            self.free_items += items.capacity();
            self.free.push(items);
        }
    }

    /// A buffer for the next task this worker builds.
    fn buffer(&mut self) -> Vec<Item> {
        let items = self.free.pop().unwrap_or_default();
        self.free_items -= items.capacity();
        items
    }
}

/// Changes a batch must carry before it runs in phases across the pool,
/// at any thread count; a shorter one runs through the sequential
/// matcher on the calling thread. The decision is taken before any
/// work, on what the batch is. Swept by `examples/parallel_speedup`'s
/// batch sweep (vt, 4 400 fresh WMEs asserted and retracted n at a
/// time; 2-vCPU guest, three runs of best-of-five with the phases
/// forced at every n): against the loop, phases on two threads cost
/// +39–67 % per change at n = 64, +18–24 % at 256 and −7…+11 % at
/// 512–768, and save 4–6 % at 1 024, 22–36 % at 2 200 and 47–49 % at
/// 4 400; on one thread they save 1–10 % at 1 024 and more above. A
/// parked helper runs ~45 µs after its notify (p50; 108 µs p90), and
/// a phase's grouped tasks repay their dispatch only when many
/// payloads share a node. Every preset stream's batches hold 2–9
/// changes (36 in the parallel-firings variants), so no benchmark
/// workload runs a phase (DESIGN.md §12).
const PHASE_CHANGES: usize = 1024;

/// The additive [`WorkerStats`] fields, in the order [`Series`]
/// publishes them.
const COUNTERS: [&str; 6] = [
    "tasks",
    "steals",
    "steal_attempts",
    "idle_spins",
    "exec_ns",
    "lock_wait_ns",
];

/// Engine-wide gauges, in the order [`ParallelReteMatcher::publish`]
/// sets them.
const GAUGES: [&str; 6] = [
    "engine.faults_injected",
    "engine.lock_poison_recovered",
    "engine.pool.spawned",
    "engine.pool.respawns",
    "engine.pool.live",
    "engine.pool.helper_wakes",
];

/// Registry handles for one [`WorkerStats`]-shaped series: the
/// [`COUNTERS`] plus the queue-depth high-water gauge.
struct Series([Arc<Counter>; 6], Arc<Gauge>);

impl Series {
    /// Resolves `<prefix><field><labels>` for every field.
    fn resolve(obs: &Obs, prefix: &str, labels: &str) -> Self {
        let name = |field| format!("{prefix}{field}{labels}");
        Series(
            COUNTERS.map(|field| obs.metrics.counter(&name(field))),
            obs.metrics.gauge(&name("max_queue_depth")),
        )
    }

    fn publish(&self, w: &WorkerStats) {
        let values = [
            w.tasks,
            w.steals,
            w.steal_attempts,
            w.idle_spins,
            w.exec_ns,
            w.lock_wait_ns,
        ];
        for (counter, value) in self.0.iter().zip(values) {
            counter.add(value);
        }
        self.1.fetch_max(w.max_queue_depth as i64);
    }
}

/// The attached [`Obs`] with every `engine.*` handle the phase epilogue
/// publishes into, resolved once at attach time: a registry lookup is a
/// mutex plus a `String` allocation, which is too much to pay eighteen
/// times on every phase.
struct EngineMetrics {
    obs: Arc<Obs>,
    /// `engine.<field>`: all workers folded.
    total: Series,
    /// `engine.worker.<field>{worker="N"}`, for the live exporter; the
    /// `{...}` suffix is the telemetry label convention (psm-telemetry
    /// parses it back out when rendering exposition format).
    workers: Vec<Series>,
    gauges: [Arc<Gauge>; 6],
}

/// What running a batch in phases needs beyond the sequential
/// matcher's state. Built on the first batch that does, so an engine
/// whose batches are all short holds the sequential matcher's state,
/// the pool and nothing else.
struct Phases {
    topo: ParallelTopology,
    /// Per WME id: the phase it last changed in (0: none — the stamp
    /// of a WME whose assertion and retraction one batch netted out).
    stamps: Vec<u64>,
    /// The batch's alpha-memory filings, applied between phases:
    /// assertions at the start of the add phase, retractions at the end
    /// of the remove phase.
    inserts: Vec<(AlphaId, WmeId)>,
    unlinks: Vec<(AlphaId, WmeId)>,
    /// Seed activations of the batch being processed, per phase.
    removes: TaskGroups,
    adds: TaskGroups,
    /// The alpha memories the changed WME being seeded passes.
    alphas: Vec<AlphaId>,
}

impl Phases {
    fn new(network: &Network) -> Self {
        let topo = ParallelTopology::from_network(network);
        let nodes = network.nodes.len();
        Phases {
            topo,
            stamps: Vec::new(),
            inserts: Vec::new(),
            unlinks: Vec::new(),
            removes: TaskGroups::new(nodes),
            adds: TaskGroups::new(nodes),
            alphas: Vec::new(),
        }
    }
}

/// The parallel Rete matcher (node-activation granularity).
///
/// # Examples
///
/// ```
/// use ops5::{parse_program, parse_wme, Interpreter};
/// use psm_core::{ParallelOptions, ParallelReteMatcher};
///
/// # fn main() -> Result<(), ops5::Error> {
/// let program = parse_program("(p r (a ^x <v>) (b ^x <v>) --> (remove 1))")?;
/// let matcher = ParallelReteMatcher::compile(
///     &program,
///     ParallelOptions { threads: 2, share: true },
/// )?;
/// let mut interp = Interpreter::new(program, matcher);
/// let mut syms = interp.program().symbols.clone();
/// interp.insert(parse_wme("(a ^x 1)", &mut syms)?);
/// interp.insert(parse_wme("(b ^x 1)", &mut syms)?);
/// assert_eq!(interp.run(10)?, 1);
/// # Ok(())
/// # }
/// ```
pub struct ParallelReteMatcher {
    /// The state — every memory — and the loop a short batch runs
    /// through. In a phase, only the caller writes it, and only between
    /// phases.
    rete: ReteMatcher,
    /// What the phases need beyond it, from the first batch that ran in
    /// phases on.
    phases: Option<Phases>,
    threads: usize,
    /// The worker pool: the caller plus `threads − 1` helpers. Created
    /// lazily on the first non-empty batch (a matcher that never runs
    /// costs no threads), then reused for every subsequent phase and
    /// joined on drop. `None` only before first use — `drain_phase`
    /// takes it out while a phase borrows `self` and always puts it back.
    pool: Option<WorkerPool>,
    /// Pool lifetime counters, mirrored here so they survive pool
    /// hand-offs and stay readable without a pool (pre-first-phase).
    pool_stats: PoolStats,
    /// One task deque per worker; empty between phases.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// One scratch block per worker. Worker `me` holds `locals[me]` for
    /// as long as it is inside a phase, so the lock is never contended;
    /// it exists to hand `&mut` scratch through the shared phase job.
    locals: Vec<Mutex<WorkerLocal>>,
    /// Batches and changes, and the tasks, join tests and pairs of the
    /// phases (the sequential loop counts its own work).
    stats: ParallelStats,
    /// Per-worker counters accumulated across all phases.
    worker_totals: Vec<WorkerStats>,
    /// [`ParallelReteMatcher::enable_timing`] was called.
    timing_enabled: bool,
    /// Collect lock-wait / exec timing during the current batch: on
    /// request or while the attached obs handle's detail toggle is on
    /// (off by default; clock reads on the hot path are not free).
    timing: bool,
    /// Optional metrics sink; counters are published per phase (cold
    /// path), never per task.
    obs: Option<EngineMetrics>,
    /// Optional fault-injection hook consulted once per task.
    fault: Option<Arc<dyn FaultInjector>>,
    /// Monotonic phase counter (two phases per processed batch), the
    /// coarse coordinate of the fault-injection plane.
    phase_seq: u64,
    /// Faults injected since the last [`ParallelReteMatcher::take_faults`].
    /// Non-zero means node state may be corrupt (dropped subtrees).
    injected_faults: AtomicU64,
    /// Poisoned-lock recoveries performed by [`relock`] and
    /// [`reclaim`].
    poison_recovered: AtomicU64,
    /// Debug write-set sanitizer; see
    /// [`ParallelReteMatcher::attach_sanitizer`].
    sanitizer: Option<Arc<ops5::effects::WriteSanitizer>>,
}

impl std::fmt::Debug for ParallelReteMatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelReteMatcher")
            .field("threads", &self.threads)
            .field("nodes", &self.network().nodes.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl ParallelReteMatcher {
    /// Compiles `program` into a parallel matcher.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Semantic`] for LHS constructs the Rete compiler
    /// rejects.
    pub fn compile(program: &Program, options: ParallelOptions) -> Result<Self, Error> {
        let network = Arc::new(Network::compile_with(
            program,
            CompileOptions {
                share: options.share,
            },
        )?);
        Ok(Self::from_network(network, options.threads))
    }

    /// Builds the matcher over an already-compiled network.
    pub fn from_network(network: Arc<Network>, threads: usize) -> Self {
        let threads = threads.max(1);
        ParallelReteMatcher {
            rete: ReteMatcher::from_network(network),
            phases: None,
            threads,
            pool: None,
            pool_stats: PoolStats::default(),
            deques: (0..threads).map(|_| Mutex::default()).collect(),
            locals: (0..threads).map(|_| Mutex::default()).collect(),
            stats: ParallelStats::default(),
            worker_totals: vec![WorkerStats::default(); threads],
            timing_enabled: false,
            timing: false,
            obs: None,
            fault: None,
            phase_seq: 0,
            injected_faults: AtomicU64::new(0),
            poison_recovered: AtomicU64::new(0),
            sanitizer: None,
        }
    }

    /// Attaches (or clears) a fault-injection hook. With a hook
    /// attached, worker panics are contained, whichever worker draws
    /// them (the calling thread included): the rest of a phase still
    /// drains, while a batch on the sequential loop runs none of its
    /// changes; the panic is counted, and the caller observes it through
    /// [`ParallelReteMatcher::take_faults`] instead of an unwind.
    /// Without a hook, unexpected panics propagate.
    pub fn set_fault_injector(&mut self, injector: Option<Arc<dyn FaultInjector>>) {
        self.fault = injector;
    }

    /// Returns the number of faults injected (tasks dropped, workers
    /// panicked, locks poisoned) since the last call, resetting the
    /// count. Non-zero means this matcher's state can no longer be
    /// trusted and must be rebuilt or recovered from a checkpoint.
    pub fn take_faults(&mut self) -> u64 {
        self.injected_faults.swap(0, Ordering::Relaxed)
    }

    /// Total poisoned-lock recoveries performed so far (cumulative).
    pub fn poison_recoveries(&self) -> u64 {
        self.poison_recovered.load(Ordering::Relaxed)
    }

    /// The compiled network.
    pub fn network(&self) -> &Arc<Network> {
        self.rete.network()
    }

    /// The sequential matcher whose memories the engine runs on. While
    /// every batch so far ran on the loop (no
    /// [`ParallelStats::phased_batches`]), it is the matcher a
    /// [`ReteMatcher`] fed the same batches would be, byte for byte.
    pub fn rete(&self) -> &ReteMatcher {
        &self.rete
    }

    /// Joins the pool and keeps the sequential matcher.
    pub fn into_rete(self) -> ReteMatcher {
        self.rete
    }

    /// Runs on `rete`'s memories from here on, in place of the engine's
    /// own: a matcher on the same network, rebuilt elsewhere (its work
    /// counters come with it). The attached obs handle is attached to
    /// it, and what the phases derived from the old memories is dropped.
    pub fn adopt(&mut self, mut rete: ReteMatcher) {
        assert!(
            Arc::ptr_eq(rete.network(), self.network()),
            "an adopted matcher runs on the engine's network"
        );
        if let Some(m) = &self.obs {
            rete.attach_obs(Arc::clone(&m.obs));
        }
        self.rete = rete;
        self.phases = None;
    }

    /// Work counters so far, of the phases and the sequential loop
    /// together.
    pub fn stats(&self) -> ParallelStats {
        let alone = self.rete.stats();
        ParallelStats {
            loop_activations: alone.node_activations(),
            join_tests: self.stats.join_tests + alone.join_tests,
            pairs_scanned: self.stats.pairs_scanned + alone.pairs_scanned,
            constant_tests: self.stats.constant_tests + alone.constant_tests,
            ..self.stats
        }
    }

    /// Worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Worker-pool lifetime counters: helper threads spawned
    /// (== `threads − 1` on a healthy run, however many batches
    /// executed), dead helpers respawned after injected or genuine
    /// panics, live helper threads, and phases that woke parked
    /// helpers. All zeros before the first non-empty batch (the pool is
    /// lazy).
    pub fn pool_stats(&self) -> PoolStats {
        match &self.pool {
            Some(pool) => pool.stats(),
            None => self.pool_stats,
        }
    }

    /// Per-worker scheduler counters accumulated so far (one entry per
    /// worker thread).
    pub fn worker_stats(&self) -> &[WorkerStats] {
        &self.worker_totals
    }

    /// All worker counters folded into one.
    pub fn worker_totals_merged(&self) -> WorkerStats {
        let mut total = WorkerStats::default();
        for w in &self.worker_totals {
            total.merge(w);
        }
        total
    }

    /// Enables lock-wait and task-execution timing (adds two clock
    /// reads per task, and per batch on the sequential loop; off by
    /// default).
    pub fn enable_timing(&mut self) {
        self.timing_enabled = true;
    }

    /// Attaches an observability handle. Worker counters are published
    /// into its registry after every phase and every batch on the
    /// sequential loop (`engine.*` metrics), a per-phase event is
    /// emitted when the ring is enabled, and the handle's detail toggle
    /// drives timing collection. The flight ring and the per-node
    /// profiler see both paths alike.
    pub fn attach_obs(&mut self, obs: Arc<Obs>) {
        self.rete.attach_obs(Arc::clone(&obs));
        let worker = |me| Series::resolve(&obs, "engine.worker.", &format!("{{worker=\"{me}\"}}"));
        for local in &mut self.locals {
            reclaim(local, None).flight.attach(&obs.flight);
        }
        self.obs = Some(EngineMetrics {
            total: Series::resolve(&obs, "engine.", ""),
            workers: (0..self.threads).map(worker).collect(),
            gauges: GAUGES.map(|name| obs.metrics.gauge(name)),
            obs,
        });
    }

    /// Attaches a debug [`ops5::effects::WriteSanitizer`]: every change
    /// batch handed to [`Matcher::process`] during a firing is checked
    /// against the firing production's static write set before it is
    /// matched. Share the same `Arc` with the interpreter's
    /// `attach_sanitizer` — it owns the firing context; batches seen
    /// outside a firing are not checked.
    pub fn attach_sanitizer(&mut self, sanitizer: Arc<ops5::effects::WriteSanitizer>) {
        self.sanitizer = Some(sanitizer);
    }

    /// Tokens resident in the beta and the negative memories, excluding
    /// the permanent dummy-top seeds. Zero once the working memory has
    /// been emptied — the state-purge invariant shared with the
    /// sequential matcher.
    pub fn resident_tokens(&self) -> usize {
        let memories = self.rete.memories();
        let negatives = self.network().iter();
        let negatives = negatives.filter(|(_, spec)| spec.kind == NodeKind::Negative);
        let entries = negatives.flat_map(|(node, _)| memories.negative(node).entries());
        let tops = entries.filter(|entry| entry.token.is_empty()).count();
        self.rete.resident_tokens() - tops
    }

    /// Runs a short batch through the sequential matcher's
    /// [`Matcher::process`], on the calling thread: worker 0's time, and
    /// no task. With a fault injector attached, the injector first
    /// decides every change at the coordinates the phases would give it
    /// (see [`FaultInjector`]); the changes it keeps then run as one
    /// batch. A panic is contained before any change has run, and a
    /// deque it poisoned recovered.
    fn run_alone(&mut self, wm: &WorkingMemory, changes: &[Change]) -> MatchDelta {
        let phases = [self.phase_seq + 1, self.phase_seq + 2];
        self.phase_seq += 2;
        let started = self.timing.then(Instant::now);
        let delta = match self.fault.as_deref() {
            None => self.rete.process(wm, changes),
            Some(fault) => {
                let (faults, recovered) = (&self.injected_faults, &self.poison_recovered);
                let mut seqs = [0; 2];
                let mut run = |change: &&Change| {
                    let phase = usize::from(change.is_add());
                    let action = fault.on_task(phases[phase], seqs[phase], 0);
                    seqs[phase] += 1;
                    inject(action, faults, &self.deques[0], recovered)
                };
                let kept = changes.iter().filter(&mut run).copied();
                match catch_unwind(AssertUnwindSafe(|| kept.collect::<Vec<_>>())) {
                    Ok(kept) => self.rete.process(wm, &kept),
                    Err(_) => {
                        reclaim(&mut self.deques[0], Some(&self.poison_recovered));
                        MatchDelta::new()
                    }
                }
            }
        };
        let worker = WorkerStats {
            exec_ns: started.map_or(0, |t0| t0.elapsed().as_nanos() as u64),
            ..WorkerStats::default()
        };
        self.worker_totals[0].merge(&worker);
        if let Some(m) = &self.obs {
            m.workers[0].publish(&worker);
        }
        self.publish("batch", &worker);
        delta
    }

    /// Stamps the batch's WMEs with the phase that changes them, lists
    /// the alpha memories each change files or unfiles for the phases to
    /// apply, and groups its right activations per phase and per node
    /// (removes into `self.removes`, adds into `self.adds`). A WME the
    /// batch both asserts and retracts nets to nothing here: it is
    /// stamped 0, seeds nothing and stays filed as it was.
    fn seed(&mut self, wm: &WorkingMemory, changes: &[Change]) {
        self.stats.phased_batches += 1;
        let (remove, add) = (self.phase_seq + 1, self.phase_seq + 2);
        let phases = self
            .phases
            .get_or_insert_with(|| Phases::new(self.rete.network()));
        let stamps = &mut phases.stamps;
        let ids = changes.iter().map(|change| change.wme().index() + 1);
        let top = ids.max().unwrap_or(0);
        if stamps.len() < top {
            stamps.resize(top, 0);
        }
        for change in changes {
            if let Change::Add(id) = *change {
                stamps[id.index()] = add;
            }
        }
        for change in changes {
            if let Change::Remove(id) = *change {
                let stamp = &mut stamps[id.index()];
                *stamp = if *stamp == add { 0 } else { remove };
            }
        }
        let local = reclaim(&mut self.locals[0], None);
        let network = self.rete.network();
        for change in changes {
            let (id, sign, phase) = match *change {
                Change::Remove(id) => (id, Sign::Minus, remove),
                Change::Add(id) => (id, Sign::Plus, add),
            };
            if phases.stamps[id.index()] != phase {
                continue;
            }
            let (out, filings) = match sign {
                Sign::Minus => (&mut phases.removes, &mut phases.unlinks),
                Sign::Plus => (&mut phases.adds, &mut phases.inserts),
            };
            let wme = wm
                .get(id)
                .expect("matcher contract: changed WME resolvable");
            let matched = &mut phases.alphas;
            self.stats.constant_tests += network.alpha.matching_into(wme, matched);
            for &alpha in matched.iter() {
                filings.push((alpha, id));
                for &succ in &network.alpha_successors[alpha.index()] {
                    out.push(succ, Payload::Right(id), sign, local);
                }
            }
        }
    }

    /// Runs one phase with the memory changes around it: the batch's
    /// assertions are filed into the alpha memories before the add phase
    /// drains, and what the phase's tasks listed for the beta and
    /// negative memories after it has, as are the batch's retractions
    /// after the remove phase — on every way out, so that a genuine panic
    /// re-raised from either phase leaves none of them, nor the add
    /// phase, pending for the next batch.
    fn run_phase(&mut self, wm: &WorkingMemory, sign: Sign) -> MatchDelta {
        self.phase_seq += 1;
        let phases = self.phases.as_mut().expect("a seeded batch");
        if sign.is_plus() {
            for (alpha, id) in phases.inserts.drain(..) {
                self.rete.file_wme(alpha, id, Sign::Plus, wm);
            }
        }
        let (delta, panicked) = self.drain_phase(wm, sign);
        self.file_tokens(wm);
        let phases = self.phases.as_mut().expect("a seeded batch");
        if !sign.is_plus() {
            for (alpha, id) in phases.unlinks.drain(..) {
                self.rete.file_wme(alpha, id, Sign::Minus, wm);
            }
        }
        if let Some(payload) = panicked {
            // Leave nothing of this batch behind: neither scratch (merged
            // and cleared) nor the add phase that will not run.
            phases.adds.drain().for_each(drop);
            phases.inserts.clear();
            resume_unwind(payload);
        }
        delta
    }

    /// Files what the phase's tasks listed: first the negative entries'
    /// count changes, by position — positions are the ones the phase
    /// found, until something is inserted or removed — then every plus,
    /// then every minus. A memory is a multiset, so that nets each token
    /// out — one the phase made and retracted again is inserted and
    /// removed — and every minus finds its token, in whatever order the
    /// workers listed the two. The entries of one token in a negative
    /// memory all hold its count in R′ by then, whichever a minus takes.
    fn file_tokens(&mut self, wm: &WorkingMemory) {
        let rete = &mut self.rete;
        for local in &mut self.locals {
            for (node, at, moved) in reclaim(local, None).recounts.drain(..) {
                rete.recount(node, at as usize, moved);
            }
        }
        for local in &mut self.locals {
            let local = reclaim(local, None);
            for (node, token, _) in local.filings.iter().filter(|f| f.2.is_plus()) {
                rete.file_token(*node, token, Sign::Plus, wm);
            }
            for (node, entry, _) in local.negatives.iter().filter(|f| f.2.is_plus()) {
                rete.file_negative(*node, &entry.token, entry.count, Sign::Plus, wm);
            }
        }
        for local in &mut self.locals {
            let local = reclaim(local, None);
            for (node, token, sign) in local.filings.drain(..) {
                if !sign.is_plus() {
                    rete.file_token(node, &token, sign, wm);
                }
            }
            for (node, entry, sign) in local.negatives.drain(..) {
                if !sign.is_plus() {
                    rete.file_negative(node, &entry.token, entry.count, sign, wm);
                }
            }
        }
    }

    /// Drains the seed tasks grouped in `removes` or `adds` (and their
    /// descendants) across the worker pool, returning the merged signed
    /// delta and the payload of a genuine panic to re-raise.
    ///
    /// The seeds of a node whose token memory holds nothing it reads —
    /// no entry, or for a join under a negative node no unblocked one —
    /// are not dispatched: they would scan nothing and change nothing,
    /// and the memory does not change before the phase ends.
    /// Scheduling: the seeds are dealt round-robin over all deques and
    /// the parked helpers woken; the calling thread is worker 0 and
    /// starts draining at once. Spawned children go to the spawning
    /// worker's own deque, popped LIFO for locality; a worker whose
    /// deque runs dry steals FIFO from a peer (oldest first — classic
    /// work stealing, on `std::sync` only). The phase is over when the
    /// caller finds no task anywhere and `pending == 0` (nothing queued
    /// or in flight), and the pool has seen every helper that entered
    /// leave: that is the whole remove→add barrier.
    fn drain_phase(
        &mut self,
        wm: &WorkingMemory,
        sign: Sign,
    ) -> (MatchDelta, Option<PanicPayload>) {
        let (threads, phase_seq) = (self.threads, self.phase_seq);
        let phases = self.phases.as_mut().expect("a seeded batch");
        let (label, seeds) = match sign {
            Sign::Minus => ("remove", &mut phases.removes),
            Sign::Plus => ("add", &mut phases.adds),
        };
        let (topo, stamps) = (&phases.topo, &phases.stamps);
        let (network, memories) = (self.rete.network(), self.rete.memories());
        seeds.prune(reclaim(&mut self.locals[0], None), |node| {
            let join = network.node(node).kind == NodeKind::Join;
            match topo.left[node.index()] {
                LeftInput::Beta(at) => memories.beta(at).entries().is_empty(),
                // A join reads only the unblocked entries.
                LeftInput::Negative(at) => {
                    let mut entries = memories.negative(at).entries().iter();
                    !entries.any(|entry| !join || entry.count == 0)
                }
                LeftInput::Top | LeftInput::None => false,
            }
        });
        if seeds.tasks.is_empty() {
            return (MatchDelta::new(), None);
        }
        let pending = AtomicUsize::new(seeds.tasks.len());
        for (i, task) in seeds.drain().enumerate() {
            reclaim(&mut self.deques[i % threads], Some(&self.poison_recovered)).push_back(task);
        }
        let timing = self.timing;
        // Per-node latency rides the existing per-task timing clock
        // reads, so it costs nothing extra beyond the histogram add;
        // like the span layer it waits for the detail toggle.
        let profile = self.obs.as_ref().map(|m| &m.obs.profile);
        let detail = self.obs.as_ref().is_some_and(|m| m.obs.detail());
        let cx = PhaseCx {
            wm,
            seq: phase_seq,
            adding: sign.is_plus(),
            network,
            topo,
            memories,
            stamps,
            prof_slots: profile.map_or(0, NodeProfiler::capacity),
            latency: profile.filter(|p| timing && detail && p.enabled()),
            timing,
            fault: self.fault.as_deref(),
            faults: &self.injected_faults,
        };
        // Created lazily on the first non-empty batch.
        let mut pool = self.pool.take().unwrap_or_else(|| WorkerPool::new(threads));
        // A panic (injected, or a genuine bug) costs the task it struck
        // and, on a helper, the thread: the other workers — and the
        // caller, whose copy of the job is re-entered — drain the rest
        // (the `PendingGuard` keeps `pending` honest), and the pool
        // respawns dead helpers after the phase, handing back the
        // payloads. With a fault injector attached the panic is
        // contained and surfaced through `take_faults`, whoever drew it;
        // without one it propagates, once the epilogue has run.
        let (deques, locals) = (&self.deques, &self.locals);
        let recovered = &self.poison_recovered;
        let task_seq = AtomicU64::new(0);
        let job = |me: usize| {
            let local = &mut *lock(&locals[me]);
            let mut reach = Reach {
                queue: &deques[me],
                pending: &pending,
                recovered,
                timing,
                waited: 0,
            };
            let deque = |at: usize, waited: &mut u64| {
                relock(&deques[at], recovered, timing.then_some(waited))
            };
            loop {
                let mut next = deque(me, &mut local.worker.lock_wait_ns).pop_back();
                if next.is_none() {
                    for k in 1..threads {
                        let victim = (me + k) % threads;
                        local.worker.steal_attempts += 1;
                        let stolen = deque(victim, &mut local.worker.lock_wait_ns).pop_front();
                        if let Some(t) = stolen {
                            local.worker.steals += 1;
                            next = Some(t);
                            break;
                        }
                    }
                }
                let Some(task) = next else {
                    // Pops (including a probe of every peer) came up
                    // empty. `pending` counts queued plus in-flight
                    // tasks, so zero here means the phase is fully
                    // drained; otherwise a peer is still executing
                    // and may yet spawn children.
                    if pending.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    local.worker.idle_spins += 1;
                    std::thread::yield_now();
                    continue;
                };
                // Decrement on drop so a panicking task cannot leave
                // siblings spinning forever.
                let _guard = PendingGuard(&pending);
                let seq = || task_seq.fetch_add(1, Ordering::Relaxed);
                cx.run(task, me, seq, local, &mut reach);
                local.worker.lock_wait_ns += std::mem::take(&mut reach.waited);
            }
        };
        let dead = pool.run(&job);
        self.pool_stats = pool.stats();
        self.pool = Some(pool);
        for (me, _) in &dead {
            // What a worker that panicked staged stops mid-task: drop
            // its provenance of this phase rather than publish part.
            reclaim(&mut self.locals[*me], None).flight.clear();
        }
        let mut delta = MatchDelta::new();
        let mut phase_total = WorkerStats::default();
        for (me, local) in self.locals.iter_mut().enumerate() {
            let local = reclaim(local, None);
            if delta.is_empty() {
                delta = std::mem::take(&mut local.delta);
            } else {
                delta.merge(std::mem::take(&mut local.delta));
            }
            self.stats.join_tests += std::mem::take(&mut local.join_tests);
            self.stats.pairs_scanned += std::mem::take(&mut local.pairs_scanned);
            let worker = std::mem::take(&mut local.worker);
            self.stats.tasks += worker.tasks;
            self.worker_totals[me].merge(&worker);
            phase_total.merge(&worker);
            if let Some(m) = &self.obs {
                // Flush the worker's flight records and per-node
                // profile deltas — once per phase, never per task.
                local.flight.publish(&m.obs.flight);
                for (node, (kind, d)) in local.prof.drain() {
                    m.obs.profile.add(node, kind, &d);
                }
                let overflow = std::mem::take(&mut local.prof_overflow);
                m.obs.profile.add_overflow(overflow);
                m.workers[me].publish(&worker);
            }
        }
        self.publish(label, &phase_total);
        let genuine = dead.into_iter().next().filter(|_| self.fault.is_none());
        (delta, genuine.map(|(_, payload)| payload))
    }

    /// Publishes what a phase, or a batch on the sequential loop
    /// (`label`), did across all workers, the engine-wide gauges and an
    /// `engine.phase` event to the attached `Obs`.
    fn publish(&self, label: &'static str, total: &WorkerStats) {
        let Some(m) = &self.obs else { return };
        m.total.publish(total);
        let p = self.pool_stats();
        let faults = self.injected_faults.load(Ordering::Relaxed);
        let poison = self.poison_recovered.load(Ordering::Relaxed);
        let values = [
            faults,
            poison,
            p.spawned,
            p.respawns,
            p.live as u64,
            p.helper_wakes,
        ];
        for (gauge, value) in m.gauges.iter().zip(values) {
            gauge.set(value as i64);
        }
        // Checked here as well as inside `emit`: building the fields
        // allocates the label.
        if m.obs.events.enabled() {
            m.obs.events.emit(
                "engine.phase",
                &[
                    ("kind", label.into()),
                    ("tasks", total.tasks.into()),
                    ("steals", total.steals.into()),
                    ("idle_spins", total.idle_spins.into()),
                ],
            );
        }
    }
}

impl PhaseCx<'_> {
    /// Runs `task`, drawn by worker `me`: first what the attached fault
    /// injector decides for it (`seq` numbers it within the phase, in
    /// draw order), then [`PhaseCx::exec`], timed when the phase is.
    fn run(
        &self,
        task: Task,
        me: usize,
        seq: impl FnOnce() -> u64,
        local: &mut WorkerLocal,
        reach: &mut Reach,
    ) {
        if let Some(fault) = self.fault {
            let action = fault.on_task(self.seq, seq(), me);
            if !inject(action, self.faults, reach.queue, reach.recovered) {
                return;
            }
        }
        let started = self.timing.then(Instant::now);
        let node = task.node.index() as u32;
        self.exec(task, local, reach);
        if let Some(t0) = started {
            let ns = t0.elapsed().as_nanos() as u64;
            local.worker.exec_ns += ns;
            if let Some(profile) = self.latency {
                profile.record_latency(node, ns);
            }
        }
    }

    /// Executes one grouped activation — every payload bound for the
    /// node this phase fragment — under the delta rules (module docs).
    /// Then lists what it emitted and received for the memories they are
    /// filed into, and spawns the child tasks that receive its tokens
    /// (see [`PhaseCx::spawn`]).
    fn exec(&self, task: Task, local: &mut WorkerLocal, reach: &mut Reach) {
        let Task {
            node: node_id,
            mut items,
        } = task;
        let at = node_id.index();
        debug_assert!(
            self.topo.active[at],
            "only active (two-input/terminal) nodes receive activations"
        );
        local.worker.tasks += 1;
        let spec = self.network.node(node_id);
        let node = at as u32;
        let left = self.topo.left[at];
        let resolve = |id| self.wm.get(id);
        let changed = |id| {
            self.wm
                .get(id)
                .expect("matcher contract: changed WME resolvable")
        };
        // Tokens emitted toward the children, in per-item order. Signs
        // ride along because a negative node inverts the sign of what it
        // forwards.
        let mut emitted = std::mem::take(&mut local.emitted);
        let mut hits = std::mem::take(&mut local.hits);
        let seeds = matches!(items.first(), Some((Payload::Right(_), _)));
        for (payload, sign) in items.drain(..) {
            let right_side = matches!(payload, Payload::Right(_));
            debug_assert_eq!(right_side, seeds, "a task is a node's seeds or tokens");
            // The same activation vocabulary as the sequential matcher,
            // so flight records and `/profile` rows name nodes
            // identically across both runtimes.
            let kind = ActivationKind::of(spec.kind, right_side);
            let wme = match &payload {
                Payload::Right(id) => Some(*id),
                Payload::Left(_) => None,
            };
            local.flight.activation(kind, node_id, wme);
            let emitted_before = emitted.len();
            // A right activation scans the token memory as the phase
            // found it for its WME's key; a left one the alpha memory as
            // the phase leaves it for its token's.
            let work = match (spec.kind, payload, left) {
                (NodeKind::Join, Payload::Right(wme_id), _) => {
                    let wme = changed(wme_id);
                    let probe = self.memories.token_slot(node_id);
                    let probe = probe.map(|slot| (slot, kernel::right_key(&spec.key, wme)));
                    let extend = |token: &Token| emitted.push((token.extended(wme_id), sign));
                    let tests = &spec.tests;
                    match left {
                        LeftInput::Top => {
                            kernel::scan_tokens(tests, [&Token::top()], wme, resolve, extend)
                        }
                        LeftInput::Beta(memory) => {
                            let candidates = self.memories.beta(memory).candidates(probe);
                            kernel::scan_tokens(tests, candidates, wme, resolve, extend)
                        }
                        LeftInput::Negative(memory) => {
                            let entries = self.memories.negative(memory).candidates(probe);
                            let unblocked = entries.filter(|entry| entry.count == 0);
                            let candidates = unblocked.map(|entry| &entry.token);
                            kernel::scan_tokens(tests, candidates, wme, resolve, extend)
                        }
                        LeftInput::None => unreachable!("a join without a left input"),
                    }
                }
                (NodeKind::Join, Payload::Left(token), _) => {
                    let key = kernel::left_key(&spec.key, &token, resolve);
                    let extend = |wme_id| emitted.push((token.extended(wme_id), sign));
                    let candidates = self.right_wmes(spec, node_id, key);
                    kernel::scan_wmes(&spec.tests, &token, candidates, resolve, extend)
                }
                (NodeKind::Negative, Payload::Right(wme_id), LeftInput::Negative(memory)) => {
                    let wme = changed(wme_id);
                    let probe = self.memories.token_slot(node_id);
                    let probe = probe.map(|slot| (slot, kernel::right_key(&spec.key, wme)));
                    let candidates = self.memories.negative(memory).walk(probe);
                    let hit = |(at, _): (usize, &NegEntry)| hits.push(at as u32);
                    kernel::scan_tokens(&spec.tests, candidates, wme, resolve, hit)
                }
                (NodeKind::Negative, Payload::Left(token), LeftInput::Negative(memory)) => {
                    // Either sign alike: the token passes when nothing
                    // in R′ matches it.
                    let key = kernel::left_key(&spec.key, &token, resolve);
                    let mut count = 0;
                    let tally = |_| count += 1;
                    let candidates = self.right_wmes(spec, node_id, key);
                    let work = kernel::scan_wmes(&spec.tests, &token, candidates, resolve, tally);
                    if count == 0 {
                        emitted.push((token.clone(), sign));
                    }
                    local
                        .negatives
                        .push((memory, NegEntry { token, count }, sign));
                    work
                }
                (NodeKind::Terminal, Payload::Left(token), _) => {
                    let inst = Instantiation::new(
                        self.topo.terminal_production[at].expect("terminal has production"),
                        token.into_wmes(),
                    );
                    local.delta.apply(inst, sign.is_plus());
                    Work::default()
                }
                (node_kind, ..) => unreachable!("{kind:?} activation of a {node_kind:?} node"),
            };
            local.join_tests += work.tests as u64;
            local.pairs_scanned += work.scanned as u64;
            if at < self.prof_slots {
                // One profiler delta per payload, so grouped execution
                // reports the same per-activation rows as per-change
                // dispatch did; terminals emit conflict-set changes
                // instead of tokens.
                let tokens_out = if kind == ActivationKind::Terminal {
                    1
                } else {
                    (emitted.len() - emitted_before) as u64
                };
                let (_, d) = local
                    .prof
                    .entry(node)
                    .or_insert((kind.profile_kind().0, NodeDelta::default()));
                d.record(right_side, work.scanned as u64, tokens_out);
            } else if self.prof_slots > 0 {
                local.prof_overflow += 1;
            }
        }
        local.recycle(items);
        if let (LeftInput::Negative(memory), false) = (left, hits.is_empty()) {
            let flips = self.recount(memory, &mut hits, &mut emitted, &mut local.recounts);
            if let Some((_, d)) = local.prof.get_mut(&node) {
                d.tokens_out += flips;
            }
        }
        local.hits = hits;
        if !emitted.is_empty() {
            if let Some(memory) = self.topo.output_memory[at] {
                let filed = emitted
                    .iter()
                    .map(|(token, sign)| (memory, token.clone(), *sign));
                local.filings.extend(filed);
            }
            self.spawn(&self.topo.token_children[at], &mut emitted, local, reach);
        }
        emitted.clear();
        local.emitted = emitted;
    }

    /// The end of a negative node's right activations of a phase, whose
    /// scans hit the entries at `hits` of its memory (that of node
    /// `memory`) once per matching WME: adds up each entry's count
    /// change, lists it for the caller to file, and emits the entries
    /// whose count leaves zero in the add phase (blocked: a minus) or
    /// reaches it in the remove phase (unblocked: a plus). Returns how
    /// many it emitted; `hits` is left empty.
    fn recount(
        &self,
        memory: NodeId,
        hits: &mut Vec<u32>,
        emitted: &mut Vec<(Token, Sign)>,
        recounts: &mut Vec<(NodeId, u32, i32)>,
    ) -> u64 {
        let entries = self.memories.negative(memory).entries();
        let step = if self.adding { 1 } else { -1 };
        let before = emitted.len();
        hits.sort_unstable();
        for run in hits.chunk_by(|a, b| a == b) {
            let (at, moved) = (run[0], step * run.len() as i32);
            let entry = &entries[at as usize];
            if let Some(sign) = kernel::flip(entry.count, moved) {
                emitted.push((entry.token.clone(), sign));
            }
            recounts.push((memory, at, moved));
        }
        hits.clear();
        (emitted.len() - before) as u64
    }

    /// Queues one task per child in `children` that receives tokens on
    /// the executing worker's own deque, each carrying the whole
    /// emission batch in per-item order (a token clone copies three
    /// words; the last child takes the tokens themselves). A join whose
    /// alpha memory is empty receives none: it would scan nothing and
    /// file nothing, its memory being filed by the caller.
    fn spawn(
        &self,
        children: &[NodeId],
        emitted: &mut Vec<(Token, Sign)>,
        local: &mut WorkerLocal,
        reach: &mut Reach,
    ) {
        let receives = |child: &&NodeId| {
            let spec = self.network.node(**child);
            let alpha = || self.memories.alpha(spec.alpha.expect("a join has alpha"));
            spec.kind != NodeKind::Join || !alpha().entries().is_empty()
        };
        let mut rest = children.iter().filter(receives).count();
        if rest == 0 {
            return;
        }
        let mut queue = reach.queue(rest);
        for &child in children.iter().filter(receives) {
            rest -= 1;
            let mut items = local.buffer();
            if rest == 0 {
                items.extend(emitted.drain(..).map(|(t, s)| (Payload::Left(t), s)));
            } else {
                items.extend(emitted.iter().map(|(t, s)| (Payload::Left(t.clone()), *s)));
            }
            queue.push_back(Task { node: child, items });
        }
        let depth = &mut local.worker.max_queue_depth;
        *depth = (*depth).max(queue.len() as u64);
    }

    /// The WMEs a left activation of `node` with index key `key`
    /// scans: R′, the chain of its key in its alpha memory (all of it for
    /// a node without one) as the phase leaves it — without, in the
    /// remove phase, the WMEs the phase retracts.
    fn right_wmes(
        &self,
        spec: &NodeSpec,
        node: NodeId,
        key: Option<u32>,
    ) -> impl Iterator<Item = WmeId> + '_ {
        let alpha = self
            .memories
            .alpha(spec.alpha.expect("two-input node has alpha"));
        let probe = self.memories.alpha_slot(node).map(|slot| (slot, key));
        let (stamps, phase, hide) = (self.stamps, self.seq, !self.adding);
        let visible = move |id: &WmeId| !hide || stamps[id.index()] != phase;
        alpha.candidates(probe).copied().filter(visible)
    }
}

/// Decrements the phase's pending-task counter on drop, including during
/// unwinding, so a panicking activation cannot hang the worker pool.
struct PendingGuard<'a>(&'a AtomicUsize);

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Matcher for ParallelReteMatcher {
    fn add_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
        self.process(wm, &[Change::Add(id)])
    }

    fn remove_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
        self.process(wm, &[Change::Remove(id)])
    }

    /// Processes a whole firing's batch: through the sequential loop
    /// when it is short, else retractions in parallel, a barrier, then
    /// assertions in parallel (DESIGN.md §6).
    fn process(&mut self, wm: &WorkingMemory, changes: &[Change]) -> MatchDelta {
        if let Some(s) = &self.sanitizer {
            s.check_batch(wm, changes);
        }
        self.stats.batches += 1;
        self.stats.changes += changes.len() as u64;
        self.timing = self.timing_enabled || self.obs.as_ref().is_some_and(|m| m.obs.detail());
        if !changes.is_empty() && self.pool.is_none() {
            self.pool = Some(WorkerPool::new(self.threads));
        }
        if changes.len() < PHASE_CHANGES {
            return self.run_alone(wm, changes);
        }
        self.seed(wm, changes);
        let mut delta = self.run_phase(wm, Sign::Minus);
        delta.merge(self.run_phase(wm, Sign::Plus));
        delta
    }

    fn algorithm_name(&self) -> &'static str {
        "parallel-rete"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::{parse_program, parse_wme, SymbolTable};
    use psm_obs::Rng64;

    fn parallel(src: &str, threads: usize) -> (ops5::Program, ParallelReteMatcher) {
        let program = parse_program(src).unwrap();
        let m = ParallelReteMatcher::compile(
            &program,
            ParallelOptions {
                threads,
                share: true,
            },
        )
        .unwrap();
        (program, m)
    }

    /// Fires a fixed action at one `(phase, seq)` coordinate.
    struct OneShot {
        phase: u64,
        seq: u64,
        action: FaultAction,
    }

    impl FaultInjector for OneShot {
        fn on_task(&self, phase: u64, seq: u64, _worker: usize) -> FaultAction {
            if phase == self.phase && seq == self.seq {
                self.action
            } else {
                FaultAction::None
            }
        }
    }

    #[test]
    fn injected_panic_is_contained_and_counted() {
        for action in [
            FaultAction::PanicWorker,
            FaultAction::PoisonLock,
            FaultAction::DropTask,
        ] {
            let (program, mut m) = parallel("(p r (a ^x 1) --> (remove 1))", 2);
            let mut wm = WorkingMemory::new();
            let mut syms = program.symbols.clone();
            let (id, _) = wm.add(parse_wme("(a ^x 1)", &mut syms).unwrap());
            // Phase 2 is the "add" phase of the first batch; seq 0 is
            // its first task.
            m.set_fault_injector(Some(Arc::new(OneShot {
                phase: 2,
                seq: 0,
                action,
            })));
            let _ = m.process(&wm, &[Change::Add(id)]);
            assert_eq!(m.take_faults(), 1, "{action:?} counted");
            assert_eq!(m.take_faults(), 0, "count resets");
            if action == FaultAction::PoisonLock {
                // The caller drew the task and poisoned its own deque,
                // which its next pop recovered, once.
                assert_eq!(m.poison_recoveries(), 1);
            }
        }
    }

    #[test]
    fn unexpected_panic_still_propagates_without_injector() {
        // A sanity check that containment is gated on the injector: with
        // one attached, even repeated faults never unwind into the caller.
        let (program, mut m) = parallel("(p r (a ^x 1) --> (remove 1))", 3);
        let mut wm = WorkingMemory::new();
        let mut syms = program.symbols.clone();
        m.set_fault_injector(Some(Arc::new(OneShot {
            phase: 2,
            seq: 0,
            action: FaultAction::PanicWorker,
        })));
        let (id, _) = wm.add(parse_wme("(a ^x 1)", &mut syms).unwrap());
        let _ = m.process(&wm, &[Change::Add(id)]);
        assert_eq!(m.take_faults(), 1);
    }

    /// Adds `n` WMEs cycling through `classes` as one batch (x drawn
    /// from 0..3 so every join finds partners).
    fn add_batch(
        wm: &mut WorkingMemory,
        syms: &mut SymbolTable,
        classes: &[&str],
        n: usize,
    ) -> Vec<Change> {
        (0..n)
            .map(|i| {
                let lit = format!("({} ^x {})", classes[i % classes.len()], i % 3);
                Change::Add(wm.add(parse_wme(&lit, syms).unwrap()).0)
            })
            .collect()
    }

    #[test]
    fn vt_sized_batches_are_drained_by_the_caller_without_a_wake() {
        // What defines scheduler health on a small batch: nobody is
        // woken for microseconds of work. A batch under the phase
        // threshold runs on the caller's sequential loop, so no task is
        // dispatched and no helper shown one.
        use workloads::{GeneratedWorkload, Preset, WorkloadDriver};
        let workload = GeneratedWorkload::generate(Preset::Vt.spec_small()).unwrap();
        let options = ParallelOptions {
            threads: 2,
            share: true,
        };
        let mut m = ParallelReteMatcher::compile(&workload.program, options).unwrap();
        let mut driver = WorkloadDriver::new(workload, 3);
        driver.init(&mut m);
        driver.run_cycles(&mut m, 40);
        assert_eq!(m.pool_stats().helper_wakes, 0, "no futex wake");
        let s = m.stats();
        assert!(s.loop_activations > 0, "the caller ran it all");
        let w = m.worker_totals_merged();
        assert_eq!(
            s.tasks + w.tasks + w.steals + w.steal_attempts + w.idle_spins,
            0,
            "no task dispatched, no peer probed"
        );
    }

    #[test]
    fn small_batches_after_a_bulk_batch_stay_on_the_caller() {
        // A bulk batch leaves the helper awake and polling; the stream
        // that follows at once (the bulk WM retracted four WMEs at a
        // time) must not keep it there. Small phases are never shown to
        // helpers, so worker 1's counters — steal attempts and idle
        // spins included: it does not even enter — stand still.
        use workloads::{GeneratedWorkload, Preset};
        let mut spec = Preset::Vt.spec_small();
        spec.wm_size *= 4;
        let workload = GeneratedWorkload::generate(spec).unwrap();
        let options = ParallelOptions {
            threads: 2,
            share: true,
        };
        let mut m = ParallelReteMatcher::compile(&workload.program, options).unwrap();
        let mut wm = WorkingMemory::new();
        let adds: Vec<Change> = workload
            .initial_wm(&mut Rng64::new(7))
            .into_iter()
            .map(|wme| Change::Add(wm.add(wme).0))
            .collect();
        let removes: Vec<Change> = adds.iter().map(|c| Change::Remove(c.wme())).collect();
        let _ = m.process(&wm, &adds);
        let (helper, wakes) = (m.worker_stats()[1], m.pool_stats().helper_wakes);
        for small in removes.chunks(4) {
            let _ = m.process(&wm, small);
        }
        assert_eq!(m.resident_tokens(), 0);
        assert_eq!(m.worker_stats()[1], helper, "helper kept awake");
        assert_eq!(m.pool_stats().helper_wakes, wakes);
    }

    #[test]
    fn pool_spawns_helpers_once_per_matcher_lifetime() {
        for threads in [1, 3] {
            let (program, mut m) = parallel(EQ_PROGRAM, threads);
            assert_eq!(m.pool_stats(), crate::PoolStats::default(), "pool is lazy");
            let mut wm = WorkingMemory::new();
            let mut syms = program.symbols.clone();
            for x in 0..8 {
                let (id, _) = wm.add(parse_wme(&format!("(a ^x {x})"), &mut syms).unwrap());
                let _ = m.add_wme(&wm, id);
            }
            let s = m.pool_stats();
            assert_eq!(s.spawned as usize, threads - 1, "the caller is worker 0");
            assert_eq!(s.live, threads - 1);
            assert_eq!((s.respawns, s.helper_wakes), (0, 0));
            assert_eq!(m.stats().batches, 8, "many batches ran on that one crew");
        }
    }

    #[test]
    fn fault_drawn_by_the_caller_is_contained_and_kills_no_thread() {
        for action in [FaultAction::PanicWorker, FaultAction::PoisonLock] {
            let (program, mut m) = parallel(EQ_PROGRAM, 2);
            let mut wm = WorkingMemory::new();
            let mut syms = program.symbols.clone();
            // Phase 2 = the "add" phase of the first batch; the batch is
            // small, so the caller draws seq 0.
            m.set_fault_injector(Some(Arc::new(OneShot {
                phase: 2,
                seq: 0,
                action,
            })));
            let (id, _) = wm.add(parse_wme("(a ^x 1)", &mut syms).unwrap());
            let _ = m.process(&wm, &[Change::Add(id)]); // no unwind
            assert_eq!(m.take_faults(), 1, "{action:?} counted like any other");
            for x in 2..6 {
                let (id, _) = wm.add(parse_wme(&format!("(b ^x {x})"), &mut syms).unwrap());
                let _ = m.add_wme(&wm, id);
            }
            assert_eq!(m.take_faults(), 0, "one-shot plan fired exactly once");
            let s = m.pool_stats();
            assert_eq!((s.spawned, s.respawns, s.live), (1, 0, 1), "{action:?}");
        }
    }

    /// Panics the first task worker 1 draws; worker 0 waits inside its
    /// own draw until that has happened, so the helper — not the
    /// scheduler — decides who dies.
    #[derive(Default)]
    struct KillHelperOnce(std::sync::atomic::AtomicBool);

    impl FaultInjector for KillHelperOnce {
        fn on_task(&self, _phase: u64, _seq: u64, worker: usize) -> FaultAction {
            if worker == 1 && !self.0.swap(true, Ordering::SeqCst) {
                return FaultAction::PanicWorker;
            }
            while !self.0.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            FaultAction::None
        }
    }

    #[test]
    fn dead_helper_is_respawned_under_its_index_and_pool_survives() {
        let (program, mut m) = parallel(EQ_PROGRAM, 2);
        let mut wm = WorkingMemory::new();
        let mut syms = program.symbols.clone();
        m.set_fault_injector(Some(Arc::new(KillHelperOnce::default())));
        // A batch large enough to wake the helper and to keep the
        // caller busy until it arrives (3 072 changes: a phased batch
        // of 192 let the caller finish first and steal the respawned
        // helper's seeds before it ran one); half the seed tasks are
        // dealt to its deque. Into an empty matcher only
        // first-CE nodes have a left memory to scan, so two classes
        // that each head a rule make two seed tasks (`a b c` made one,
        // and worker 0 would wait on it for a helper that never draws).
        let bulk = add_batch(&mut wm, &mut syms, &["a", "goal"], 3 * 1024);
        let _ = m.process(&wm, &bulk);
        assert_eq!(m.take_faults(), 1);
        let s = m.pool_stats();
        assert_eq!(s.respawns, 1, "the dead helper was replaced");
        assert_eq!(s.spawned, 2, "1 initial + 1 respawn");
        assert_eq!(s.live, 1, "no thread leak");
        // The replacement answers to index 1 and the pool keeps going.
        let more = add_batch(&mut wm, &mut syms, &["a", "goal"], 3 * 1024);
        let _ = m.process(&wm, &more);
        assert_eq!(m.take_faults(), 0);
        assert!(m.worker_stats()[1].tasks > 0, "worker 1 executed tasks");
        assert_eq!(m.pool_stats().live, 1);
    }

    #[test]
    fn genuine_panic_propagates_without_an_injector() {
        // A right activation of a terminal cannot come out of a
        // compiled network; seeding one by hand stands in for an engine
        // bug. With no injector attached it must unwind to the caller,
        // after the rest of the phase drained. The self-join's memory
        // and the negative node's hold the token the doomed phase
        // retracts, the latter with the count of the blocker it retracts.
        let src = "(p r (a ^x 1) --> (remove 1)) (p s (a ^x <v>) (a ^x <v>) --> (remove 1)) \
                   (p t (a ^x <v>) - (b ^x <v>) --> (remove 1))";
        let (program, mut m) = parallel(src, 2);
        let mut seq = ReteMatcher::compile(&program).unwrap();
        let mut wm = WorkingMemory::new();
        let mut syms = program.symbols.clone();
        let mut add = |m: &mut ParallelReteMatcher, seq: &mut ReteMatcher, lit| {
            let (id, _) = wm.add(parse_wme(lit, &mut syms).unwrap());
            let _ = (m.add_wme(&wm, id), seq.add_wme(&wm, id));
            id
        };
        let id = add(&mut m, &mut seq, "(a ^x 1)");
        let blocker = add(&mut m, &mut seq, "(b ^x 1)");
        let terminal = (0..m.network().nodes.len() as u32)
            .map(NodeId)
            .find(|&n| m.network().node(n).kind == NodeKind::Terminal)
            .unwrap();
        // The doomed phase also carries real retractions, so it leaves a
        // removal in its worker's scratch delta when it unwinds; and the
        // batch an assertion, filed only if the add phase runs.
        let (doomed, _) = wm.add(parse_wme("(a ^x 1)", &mut syms).unwrap());
        let batch = [
            Change::Remove(id),
            Change::Remove(blocker),
            Change::Add(doomed),
        ];
        m.seed(&wm, &batch);
        let _ = (seq.remove_wme(&wm, id), seq.remove_wme(&wm, blocker));
        let local = &mut WorkerLocal::default();
        let phases = m.phases.as_mut().unwrap();
        phases
            .removes
            .push(terminal, Payload::Right(id), Sign::Minus, local);
        phases
            .adds
            .push(terminal, Payload::Right(id), Sign::Plus, local);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run_phase(&wm, Sign::Minus);
        }));
        assert!(unwound.is_err());
        assert_eq!(m.take_faults(), 0, "not an injected fault");
        // The retractions were applied on the way out, to the alpha, the
        // beta and the negative memories, the assertion dropped with its
        // phase; nothing listed for filing is left.
        let drained = |m: &mut ParallelReteMatcher| {
            m.locals
                .iter_mut()
                .map(|local| reclaim(local, None))
                .all(|l| l.filings.is_empty() && l.negatives.is_empty() && l.recounts.is_empty())
        };
        for id in [id, blocker, doomed] {
            wm.remove(id);
        }
        audit_alpha(&m, &wm, &[]);
        audit_memories(&m, &seq);
        assert!(drained(&mut m));
        // The add phase that never ran is dropped, not replayed into
        // the next batch that runs in phases.
        let tasks = m.stats().tasks;
        assert!(process_phased(&mut m, &wm, &[], false).is_empty());
        assert_eq!(m.stats().tasks, tasks);
        audit_alpha(&m, &wm, &[]);
        audit_memories(&m, &seq);
        // Nor does the unwound phase's half-built delta leak into the
        // next non-empty one.
        let (next, _) = wm.add(parse_wme("(a ^x 1)", &mut syms).unwrap());
        let (mut d, mut d_seq) = (m.add_wme(&wm, next), seq.add_wme(&wm, next));
        d.canonicalize();
        d_seq.canonicalize();
        assert_eq!(d, d_seq, "stale removal merged");
        audit_alpha(&m, &wm, &[next]);
        audit_memories(&m, &seq);
        assert_eq!(
            m.resident_tokens(),
            2,
            "[next] in the self-join's and the negative memory"
        );

        // And from the add phase: a doomed terminal task beside a real
        // assertion, whose tokens are filed on the way out.
        let (more, _) = wm.add(parse_wme("(a ^x 1)", &mut syms).unwrap());
        m.seed(&wm, &[Change::Add(more)]);
        let _ = seq.add_wme(&wm, more);
        let phases = m.phases.as_mut().unwrap();
        phases
            .adds
            .push(terminal, Payload::Right(more), Sign::Plus, local);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run_phase(&wm, Sign::Minus);
            m.run_phase(&wm, Sign::Plus);
        }));
        assert!(unwound.is_err());
        audit_alpha(&m, &wm, &[next, more]);
        audit_memories(&m, &seq);
        assert!(drained(&mut m));
    }

    /// Holds every alpha memory of `m` to what it should hold when `live`
    /// are the WMEs of `wm` asserted and not retracted: sound chains
    /// ([`Memory::audit`]), and as entries exactly the live WMEs its
    /// alpha node passes.
    fn audit_alpha(m: &ParallelReteMatcher, wm: &WorkingMemory, live: &[WmeId]) {
        let mut want = vec![Vec::new(); m.network().alpha.len()];
        let mut passed = Vec::new();
        for &id in live {
            let wme = wm.get(id).expect("a live WME");
            m.network().alpha.matching_into(wme, &mut passed);
            for alpha in &passed {
                want[alpha.index()].push(id);
            }
        }
        for (i, mut want) in want.into_iter().enumerate() {
            let memory = m.rete.memories().alpha(AlphaId(i as u32));
            assert!(memory.audit().is_ok(), "alpha memory {i}");
            let mut held = memory.entries().to_vec();
            held.sort_unstable();
            want.sort_unstable();
            assert_eq!(held, want, "alpha memory {i}");
        }
    }

    /// The nodes of `m`'s network of `kind`.
    fn nodes_of(m: &ParallelReteMatcher, kind: NodeKind) -> Vec<NodeId> {
        let nodes = m.network().iter().filter(|(_, spec)| spec.kind == kind);
        nodes.map(|(node, _)| node).collect()
    }

    /// Holds every beta and negative memory of `m` to the sequential
    /// matcher's memory of the same node, which has seen the same
    /// batches: sound chains ([`Memory::audit`]) and the same multiset
    /// of tokens, with the same match counts in a negative memory.
    fn audit_memories(m: &ParallelReteMatcher, seq: &ReteMatcher) {
        fn sorted<T>(
            memory: &rete::Memory<T>,
            row: impl Fn(&T) -> (Vec<WmeId>, u32),
        ) -> Vec<(Vec<WmeId>, u32)> {
            assert!(memory.audit().is_ok());
            let mut rows: Vec<_> = memory.entries().iter().map(row).collect();
            rows.sort_unstable();
            rows
        }
        let token = |t: &Token| (t.wmes().to_vec(), 0);
        let entry = |e: &NegEntry| (e.token.wmes().to_vec(), e.count);
        let memories = m.rete.memories();
        for node in nodes_of(m, NodeKind::BetaMemory) {
            let want = seq.beta_memory(node).expect("a beta-memory node");
            let (got, want) = (sorted(memories.beta(node), token), sorted(want, token));
            assert_eq!(got, want, "beta memory {node:?}");
        }
        for node in nodes_of(m, NodeKind::Negative) {
            let want = seq.negative_memory(node).expect("a negative node");
            let (got, want) = (sorted(memories.negative(node), entry), sorted(want, entry));
            assert_eq!(got, want, "negative memory {node:?}");
        }
    }

    /// [`Matcher::process`] through the phases, whatever the batch's size
    /// and the thread count, with each phase's seed tasks dealt in their
    /// first-seen order or, `reversed`, the reverse — on one thread, the
    /// order the caller's LIFO deque runs them in is reversed too.
    fn process_phased(
        m: &mut ParallelReteMatcher,
        wm: &WorkingMemory,
        batch: &[Change],
        reversed: bool,
    ) -> MatchDelta {
        m.seed(wm, batch);
        let phases = m.phases.as_mut().expect("seeded");
        for seeds in [&mut phases.removes, &mut phases.adds]
            .into_iter()
            .filter(|_| reversed)
        {
            seeds.tasks.reverse();
            for (at, task) in seeds.tasks.iter().enumerate() {
                seeds.pos[task.node.index()] = at as u32;
            }
        }
        let mut delta = m.run_phase(wm, Sign::Minus);
        delta.merge(m.run_phase(wm, Sign::Plus));
        delta
    }

    /// An engine that runs every batch in phases, for the drivers that
    /// take a [`Matcher`].
    struct Phased(ParallelReteMatcher);

    impl Matcher for Phased {
        fn add_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
            self.process(wm, &[Change::Add(id)])
        }

        fn remove_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
            self.process(wm, &[Change::Remove(id)])
        }

        fn process(&mut self, wm: &WorkingMemory, changes: &[Change]) -> MatchDelta {
            process_phased(&mut self.0, wm, changes, false)
        }

        fn algorithm_name(&self) -> &'static str {
            "parallel-rete-phased"
        }
    }

    /// The phases' work on the stream whose sequential work
    /// `tests/kernel_work.rs` pins (vt small, seed `0x5EED`, 200
    /// cycles), every batch in phases on one thread: an edit that
    /// changes how many tasks the phases run, or how many candidates
    /// they scan and test, fails here. The values are those the
    /// one-thread engine was pinned to while it ran every batch in
    /// phases — re-pinned three times on the way (`tasks` 18 745, then
    /// 11 260, then 9 334 with 572 join tests and 2 762 pairs): a task
    /// carries all of a node's payloads of a phase, and a join under a
    /// negative node probes that node's chain, which the sequential
    /// matcher then still scanned whole.
    #[test]
    fn one_thread_phase_work_is_pinned() {
        use workloads::{GeneratedWorkload, Preset, WorkloadDriver};
        let workload = GeneratedWorkload::generate(Preset::Vt.spec_small()).unwrap();
        let options = ParallelOptions {
            threads: 1,
            share: true,
        };
        let engine = ParallelReteMatcher::compile(&workload.program, options).unwrap();
        let mut m = Phased(engine);
        let mut driver = WorkloadDriver::new(workload, 0x5EED);
        driver.init(&mut m);
        driver.run_cycles(&mut m, 200);
        let s = m.0.stats();
        assert_eq!(s.loop_activations, 0);
        assert_eq!(
            (s.join_tests, s.pairs_scanned, s.tasks),
            (591, 2781, 8951),
            "phase work moved: {s:?}"
        );
    }

    /// The `/explain` and `/snapshot` `flight` bodies of
    /// `tests/flight_pins.rs`'s blocks-world run, every batch in phases
    /// on one thread: the bytes the one-thread engine served while it
    /// ran every batch in phases, pinned there and re-recorded three
    /// times (when a node with an empty left memory stopped getting a
    /// seed task — 11 of 55 records gone — and when joins began to read
    /// the beta memories, then the negative ones). A pin that moves
    /// means the phases record other activations, or in another order.
    #[test]
    fn one_thread_phases_serve_the_pinned_flight_bodies() {
        use ops5::{parse_wmes, Interpreter};
        use psm_telemetry::{http::Request, route};
        let fnv1a = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        };
        let assets = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets");
        let read = |file| std::fs::read_to_string(format!("{assets}/{file}")).unwrap();
        let mut program = parse_program(&read("blocks.ops")).unwrap();
        let initial = parse_wmes(&read("blocks.wm"), &mut program.symbols).unwrap();
        let obs = Arc::new(Obs::with_flight(1024, 8192));
        let options = ParallelOptions {
            threads: 1,
            share: true,
        };
        let mut engine = ParallelReteMatcher::compile(&program, options).unwrap();
        engine.attach_obs(Arc::clone(&obs));
        let mut interp = Interpreter::new(program, Phased(engine));
        interp.attach_obs(Arc::clone(&obs));
        interp.insert_all(initial);
        assert_eq!(interp.run(10_000).unwrap(), 2);
        let get = |path: &str, query: &[(&str, &str)]| {
            let query = query.iter().map(|(k, v)| (k.to_string(), v.to_string()));
            let req = Request {
                method: "GET".to_string(),
                path: path.to_string(),
                query: query.collect(),
            };
            let resp = route(&obs, &req);
            assert_eq!(resp.status, 200, "{path}");
            resp.body
        };
        let snapshot = get("/snapshot", &[]);
        let flight = snapshot.find("\"flight\":").unwrap();
        let profile = snapshot.find(",\"profile\":").unwrap();
        let bodies = [
            get("/explain", &[("rule", "put-on")]),
            get("/explain", &[("cycle", "1")]),
            get("/explain", &[("cycle", "2")]),
            snapshot[flight..profile].to_string(),
        ];
        assert_eq!(
            bodies.map(|body| fnv1a(body.as_bytes())),
            [
                0x037f_2765_a330_1857,
                0x1146_7f0d_9bfd_fe0b,
                0xe8ae_678c_4f31_3826,
                0x5b88_6a94_c41f_fcc7,
            ]
        );
    }

    #[test]
    fn single_ce_roundtrip() {
        let (program, mut m) = parallel("(p r (a ^x 1) --> (remove 1))", 2);
        let mut wm = WorkingMemory::new();
        let mut syms = program.symbols.clone();
        let (id, _) = wm.add(parse_wme("(a ^x 1)", &mut syms).unwrap());
        let d = m.add_wme(&wm, id);
        assert_eq!(d.added.len(), 1);
        let d = m.remove_wme(&wm, id);
        assert_eq!(d.removed.len(), 1);
    }

    #[test]
    fn batch_remove_then_add_order() {
        // A modify arrives as [Remove(old), Add(new)] in one batch.
        let (program, mut m) = parallel("(p r (c ^on yes) --> (modify 1 ^on no))", 4);
        let mut wm = WorkingMemory::new();
        let mut syms = program.symbols.clone();
        let (old, _) = wm.add(parse_wme("(c ^on yes)", &mut syms).unwrap());
        let d = m.add_wme(&wm, old);
        assert_eq!(d.added.len(), 1);
        let (new, _) = wm.add(parse_wme("(c ^on no)", &mut syms).unwrap());
        let d = m.process(&wm, &[Change::Remove(old), Change::Add(new)]);
        wm.remove(old);
        assert_eq!(d.removed.len(), 1);
        assert!(d.added.is_empty());
    }

    #[test]
    fn negative_first_ce() {
        let (program, mut m) = parallel("(p r - (blocker) (a ^x 1) --> (remove 2))", 2);
        let mut wm = WorkingMemory::new();
        let mut syms = program.symbols.clone();
        let (a, _) = wm.add(parse_wme("(a ^x 1)", &mut syms).unwrap());
        let d = m.add_wme(&wm, a);
        assert_eq!(d.added.len(), 1, "top token passes the leading negation");
        let (b, _) = wm.add(parse_wme("(blocker)", &mut syms).unwrap());
        let d = m.add_wme(&wm, b);
        assert_eq!(d.removed.len(), 1);
    }

    /// The main correctness property: for any change sequence and any
    /// thread count, the parallel engine's (canonicalized) deltas equal
    /// the sequential Rete matcher's.
    fn equivalence_run(src: &str, seed: u64, steps: usize, threads: usize) {
        let program = parse_program(src).unwrap();
        let mut seq = ReteMatcher::compile(&program).unwrap();
        let mut par = ParallelReteMatcher::compile(
            &program,
            ParallelOptions {
                threads,
                share: true,
            },
        )
        .unwrap();
        let mut rng = Rng64::new(seed);
        let mut syms: SymbolTable = program.symbols.clone();
        let classes = ["a", "b", "c", "goal", "veto"];
        let mut wm = WorkingMemory::new();
        let mut live: Vec<WmeId> = Vec::new();

        for step in 0..steps {
            // Build a batch of 1-6 changes, removes before adds.
            let n_removes = if live.is_empty() {
                0
            } else {
                rng.gen_range(0..=live.len().min(2))
            };
            let n_adds = rng.gen_range(1..=4usize);
            let mut batch = Vec::new();
            for _ in 0..n_removes {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                batch.push(Change::Remove(id));
            }
            for _ in 0..n_adds {
                let class = classes[rng.gen_range(0..classes.len())];
                let x = rng.gen_range(0..3i32);
                let wme = parse_wme(&format!("({class} ^x {x})"), &mut syms).unwrap();
                let (id, _) = wm.add(wme);
                live.push(id);
                batch.push(Change::Add(id));
            }
            let mut d_seq = seq.process(&wm, &batch);
            let mut d_par = par.process(&wm, &batch);
            for c in &batch {
                if let Change::Remove(id) = c {
                    wm.remove(*id);
                }
            }
            d_seq.canonicalize();
            d_par.canonicalize();
            assert_eq!(
                d_seq, d_par,
                "divergence at step {step} (threads={threads}, seed={seed})"
            );
        }
    }

    /// `lead` opens with a negation: a negative node under the top
    /// token, which holds it from the start.
    const EQ_PROGRAM: &str = r#"
        (p pair (a ^x <v>) (b ^x <v>) --> (remove 1))
        (p triple (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (remove 1))
        (p guarded (goal ^x <v>) - (veto ^x <v>) --> (remove 1))
        (p neg-mid (a ^x <v>) - (veto ^x <v>) (c ^x <v>) --> (remove 1))
        (p self (a ^x <v>) (a ^x <v>) --> (remove 1))
        (p lead - (veto ^x 2) (c ^x <v>) --> (remove 2))
    "#;

    #[test]
    fn equivalent_to_sequential_one_thread() {
        equivalence_run(EQ_PROGRAM, 11, 60, 1);
    }

    #[test]
    fn equivalent_to_sequential_four_threads() {
        for seed in 0..4 {
            equivalence_run(EQ_PROGRAM, 100 + seed, 60, 4);
        }
    }

    #[test]
    fn equivalent_to_sequential_eight_threads() {
        for seed in 0..3 {
            equivalence_run(EQ_PROGRAM, 200 + seed, 50, 8);
        }
    }

    /// The other scheduling path: a batch big enough to deal its seeds
    /// over every deque and wake the helpers, against the sequential
    /// matcher — 4× the vt-small initial WM as one add batch, then all
    /// of it as one remove batch.
    #[test]
    fn bulk_batches_equivalent_to_sequential() {
        use workloads::{GeneratedWorkload, Preset};
        let mut spec = Preset::Vt.spec_small();
        spec.wm_size *= 4;
        let workload = GeneratedWorkload::generate(spec).unwrap();
        let mut wm = WorkingMemory::new();
        let adds: Vec<Change> = workload
            .initial_wm(&mut Rng64::new(7))
            .into_iter()
            .map(|wme| Change::Add(wm.add(wme).0))
            .collect();
        let removes: Vec<Change> = adds.iter().map(|c| Change::Remove(c.wme())).collect();
        let mut seq = ReteMatcher::compile(&workload.program).unwrap();
        let mut expected = [seq.process(&wm, &adds), seq.process(&wm, &removes)];
        expected.iter_mut().for_each(MatchDelta::canonicalize);
        // The memories as the add batch leaves them, for the engines'.
        let mut grown = ReteMatcher::compile(&workload.program).unwrap();
        let _ = grown.process(&wm, &adds);
        assert!(!expected[0].is_empty(), "the bulk batch matches something");
        for threads in [1, 2, 8] {
            let options = ParallelOptions {
                threads,
                share: true,
            };
            let mut par = ParallelReteMatcher::compile(&workload.program, options).unwrap();
            for (batch, want) in [&adds, &removes].into_iter().zip(&expected) {
                let mut got = par.process(&wm, batch);
                got.canonicalize();
                assert_eq!(&got, want, "threads={threads}");
                if batch == &adds {
                    audit_memories(&par, &grown);
                }
            }
            assert_eq!(par.resident_tokens(), 0, "threads={threads}");
            // Seeds dealt over every deque were run by a helper or
            // stolen back by the caller: the bulk path was taken.
            let spread = par.worker_stats()[1..].iter().any(|w| w.tasks > 0)
                || par.worker_totals_merged().steals > 0;
            assert_eq!(spread, threads > 1, "threads={threads}");
        }
    }

    #[test]
    fn state_fully_purged_when_wm_emptied() {
        let (program, mut m) = parallel(EQ_PROGRAM, 4);
        let mut seq = ReteMatcher::compile(&program).unwrap();
        let mut wm = WorkingMemory::new();
        let mut syms = program.symbols.clone();
        let mut ids = Vec::new();
        for class in ["a", "b", "c", "goal", "veto"] {
            for x in 0..3 {
                let (id, _) = wm.add(parse_wme(&format!("({class} ^x {x})"), &mut syms).unwrap());
                m.add_wme(&wm, id);
                seq.add_wme(&wm, id);
                ids.push(id);
                // The sequential matcher's memories of the same nodes,
                // the top token of `lead`'s negation aside.
                assert_eq!(m.resident_tokens(), seq.resident_tokens() - 1);
            }
        }
        assert!(m.resident_tokens() > 0, "state built up");
        for id in ids {
            m.remove_wme(&wm, id);
            wm.remove(id);
        }
        assert_eq!(m.resident_tokens(), 0, "all token state purged");
        // Nor a WME or a token, or the head of a chain: the negative
        // memories hold only the top tokens they were built with.
        let memories = m.rete.memories();
        for alpha in 0..m.network().alpha.len() as u32 {
            let memory = memories.alpha(AlphaId(alpha));
            assert!(memory.entries().is_empty());
            assert_eq!(memory.chains(), 0);
        }
        let betas = nodes_of(&m, NodeKind::BetaMemory);
        assert_eq!(betas.len(), 3, "below the `a`, `a`-`b` and `goal` joins");
        for memory in betas.into_iter().map(|node| memories.beta(node)) {
            assert!(memory.entries().is_empty());
            assert_eq!(memory.chains(), 0);
            assert_eq!(memory.audit(), Ok(0));
        }
        let negatives = nodes_of(&m, NodeKind::Negative);
        let negatives: Vec<_> = negatives
            .into_iter()
            .map(|n| memories.negative(n))
            .collect();
        let tops: Vec<_> = negatives.iter().map(|memory| memory.entries()).collect();
        let top = NegEntry {
            token: Token::top(),
            count: 0,
        };
        assert_eq!(tops, [&[][..], &[], &[top]], "`lead` holds the top token");
        for memory in negatives {
            assert_eq!(memory.chains(), 0);
            assert_eq!(memory.audit(), Ok(0));
        }
    }

    /// A self-join, and a join below a mid-LHS negation that reads the
    /// same alpha memory: a new `a` reaches the second CE's node both as
    /// its own right seed and inside the token the first CE's node makes
    /// of it.
    const SELF_JOIN: &str = r#"
        (p self (a ^x <v>) (a ^x <v>) --> (halt))
        (p mid (a ^x <v>) - (b ^x <v>) (a ^x <v>) --> (halt))
    "#;

    /// Whether, among `records`, some node ran a right activation before
    /// its first left one, and some node a left one before its first
    /// right one.
    fn seed_orders(records: &[psm_obs::FlightRecord]) -> [bool; 2] {
        let mut first: FxHashMap<u32, [Option<usize>; 2]> = FxHashMap::default();
        for (at, record) in records.iter().enumerate() {
            if let psm_obs::FlightKind::Activation { node, kind, .. } = record.kind {
                let side = match kind {
                    "join-R" => 0,
                    "join-L" => 1,
                    _ => continue,
                };
                first.entry(node).or_default()[side].get_or_insert(at);
            }
        }
        let order = |[right, left]: [Option<usize>; 2]| Some((right?, left?));
        let orders: Vec<_> = first.into_values().filter_map(order).collect();
        [
            orders.iter().any(|(right, left)| right < left),
            orders.iter().any(|(right, left)| left < right),
        ]
    }

    /// What a left activation sees of the alpha memories (R′), on one
    /// thread, with every node's seeds run before and after the tokens
    /// that carry their WME (first-seen and reversed seed order),
    /// through adds, removes, a negation that blocks and unblocks
    /// mid-LHS, a batch that retracts and asserts at once, and back to
    /// empty — each batch's delta the sequential matcher's, each memory
    /// sound and holding what the sequential matcher's does.
    #[test]
    fn visibility_rule_meets_every_pair_once_in_either_seed_order() {
        let program = parse_program(SELF_JOIN).unwrap();
        let mut syms = program.symbols.clone();
        let mut wm = WorkingMemory::new();
        let mut seq = ReteMatcher::compile(&program).unwrap();
        let mut engines = [parallel(SELF_JOIN, 1).1, parallel(SELF_JOIN, 1).1];
        let obs = [(); 2].map(|_| Arc::new(Obs::with_flight(16, 8192)));
        for (m, obs) in engines.iter_mut().zip(&obs) {
            m.attach_obs(Arc::clone(obs));
        }
        let mut add = |lit: &str| wm.add(parse_wme(lit, &mut syms).unwrap()).0;
        let [a9, w1, b1, w2, b2] =
            ["(a ^x 9)", "(a ^x 1)", "(b ^x 1)", "(a ^x 1)", "(b ^x 1)"].map(&mut add);
        let w3 = add("(a ^x 9)");
        use Change::{Add, Remove};
        let batches = [
            vec![Add(a9)],
            vec![Add(w1)],
            vec![Add(b1)],
            vec![Remove(b1), Add(w2)],
            vec![Remove(w1)],
            vec![Add(b2), Remove(w2)],
            vec![Remove(b2), Add(w3), Remove(a9)],
            vec![Remove(w3)],
        ];
        let mut orders = [[false; 2]; 2];
        let mut live = Vec::new();
        for (step, batch) in batches.iter().enumerate() {
            let mut want = seq.process(&wm, batch);
            want.canonicalize();
            for (reversed, m) in engines.iter_mut().enumerate() {
                let before = obs[reversed].flight.len();
                let mut got = process_phased(m, &wm, batch, reversed == 1);
                got.canonicalize();
                assert_eq!(got, want, "step {step}, reversed seeds: {}", reversed == 1);
                let records = obs[reversed].flight.records();
                let seen = seed_orders(&records[before..]);
                for (order, seen) in orders[reversed].iter_mut().zip(seen) {
                    *order |= seen;
                }
            }
            for change in batch {
                match *change {
                    Add(id) => live.push(id),
                    Remove(id) => live.retain(|&w| w != id),
                }
            }
            for m in &engines {
                audit_alpha(m, &wm, &live);
                audit_memories(m, &seq);
            }
        }
        // Between them, the two seed orders ran some node's seeds before
        // a token carrying their WME arrived, and some node's after.
        let seen = [0, 1].map(|order| orders[0][order] || orders[1][order]);
        assert_eq!(seen, [true; 2], "{orders:?}");
        assert!(engines.iter().all(|m| m.resident_tokens() == 0));

        // The same rule where the phases are shared: a bulk batch that
        // wakes the helpers, and all of it retracted again.
        let mut wm = WorkingMemory::new();
        let mut syms = program.symbols.clone();
        let mut lits: Vec<String> = (0..3).map(|x| format!("(a ^x {x})")).collect();
        // Enough changes to run in phases.
        let bulk = PHASE_CHANGES;
        lits.extend((0..bulk).map(|i| format!("({} ^x {})", ["a", "a", "b"][i % 3], i % 40)));
        let ids: Vec<WmeId> = lits
            .iter()
            .map(|lit| wm.add(parse_wme(lit, &mut syms).unwrap()).0)
            .collect();
        let (first, rest) = ids.split_at(3);
        let batches = [
            first.iter().copied().map(Add).collect::<Vec<_>>(),
            rest.iter().copied().map(Add).collect(),
            rest.iter().copied().map(Remove).collect(),
            first.iter().copied().map(Remove).collect(),
        ];
        let mut seq = ReteMatcher::compile(&program).unwrap();
        let want = batches.clone().map(|batch| {
            let mut delta = seq.process(&wm, &batch);
            delta.canonicalize();
            delta
        });
        for threads in [2, 8] {
            let (_, mut m) = parallel(SELF_JOIN, threads);
            for (step, (batch, want)) in batches.iter().zip(&want).enumerate() {
                let mut got = m.process(&wm, batch);
                got.canonicalize();
                assert_eq!(&got, want, "threads {threads}, step {step}");
            }
            // Seeds dealt over every deque were run by a helper or
            // stolen back by the caller: the bulk path was taken.
            let spread = m.worker_stats()[1..].iter().any(|w| w.tasks > 0)
                || m.worker_totals_merged().steals > 0;
            assert!(spread, "threads {threads}");
            assert_eq!(m.resident_tokens(), 0);
            audit_alpha(&m, &wm, &[]);
        }
    }

    /// Batches that assert a WME and retract it again, or retract a live
    /// one and assert it again, in phases against the sequential matcher
    /// at 1, 2 and 8 threads: such a WME seeds nothing and stays filed
    /// as it was, and every alpha memory holds the live WMEs it passes.
    #[test]
    fn a_wme_asserted_and_retracted_in_one_batch_nets_out() {
        let program = parse_program(EQ_PROGRAM).unwrap();
        let classes = ["a", "b", "c", "goal", "veto"];
        for threads in [1, 2, 8] {
            let mut seq = ReteMatcher::compile(&program).unwrap();
            let (_, mut par) = parallel(EQ_PROGRAM, threads);
            let mut rng = Rng64::new(0xAD0 + threads as u64);
            let mut syms = program.symbols.clone();
            let mut wm = WorkingMemory::new();
            let mut live: Vec<WmeId> = Vec::new();
            let mut netted = [0; 2];
            for step in 0..80 {
                let (mut batch, mut gone) = (Vec::new(), Vec::new());
                if !live.is_empty() && rng.gen_bool(0.5) {
                    let id = live.swap_remove(rng.gen_range(0..live.len()));
                    batch.push(Change::Remove(id));
                    gone.push(id);
                }
                if !live.is_empty() && rng.gen_bool(0.3) {
                    let id = live[rng.gen_range(0..live.len())];
                    batch.extend([Change::Remove(id), Change::Add(id)]);
                    netted[0] += 1;
                }
                for _ in 0..rng.gen_range(1..=4usize) {
                    let class = classes[rng.gen_range(0..classes.len())];
                    let x = rng.gen_range(0..3i32);
                    let wme = parse_wme(&format!("({class} ^x {x})"), &mut syms).unwrap();
                    let (id, _) = wm.add(wme);
                    batch.push(Change::Add(id));
                    if rng.gen_bool(0.4) {
                        batch.push(Change::Remove(id));
                        gone.push(id);
                        netted[1] += 1;
                    } else {
                        live.push(id);
                    }
                }
                let mut want = seq.process(&wm, &batch);
                let mut got = process_phased(&mut par, &wm, &batch, false);
                want.canonicalize();
                got.canonicalize();
                assert_eq!(got, want, "threads {threads}, step {step}");
                for id in gone {
                    wm.remove(id);
                }
                audit_alpha(&par, &wm, &live);
                audit_memories(&par, &seq);
            }
            assert!(netted.iter().all(|&n| n > 5), "{netted:?}");
        }
    }

    /// Joins that read beta memories under the delta rule, and
    /// negative nodes under the anti-join rule. `self` joins one alpha
    /// memory with itself. `chain` has three positive CEs and a negation
    /// between the first two: its second join reads the negative node's
    /// memory, its last the memory below that join. `guard` has a join
    /// whose memory only a negative node reads, which the engine does
    /// not keep. These three share the first join and its memory.
    /// `twice` chains two negations mid-LHS: the second one's left input
    /// is the first, and a join reads the second.
    const DELTA_RULE: &str = r#"
        (p self (a ^x <v>) (a ^x <v>) --> (halt))
        (p chain (a ^x <v>) - (n ^x <v>) (b ^x <v>) (c ^x <v>) --> (halt))
        (p guard (a ^x <v>) (b ^x <v>) - (n ^x <v>) --> (halt))
        (p twice (b ^x <v>) - (n ^x <v>) - (c ^x <v>) (a ^x <v>) --> (halt))
    "#;

    /// A batch of random retractions of `live` WMEs and assertions of
    /// new ones over the classes of [`DELTA_RULE`], with `^x` below
    /// `values`; `live` and `wm` follow (retracted WMEs stay in `wm` for
    /// the caller to drop after the batch). At least one change.
    fn delta_batch(
        rng: &mut Rng64,
        wm: &mut WorkingMemory,
        syms: &mut SymbolTable,
        live: &mut Vec<WmeId>,
        values: i64,
    ) -> Vec<Change> {
        let mut batch = Vec::new();
        for _ in 0..rng.gen_range(0..=live.len().min(3)) {
            batch.push(Change::Remove(
                live.swap_remove(rng.gen_range(0..live.len())),
            ));
        }
        for _ in 0..rng.gen_range(usize::from(batch.is_empty())..=3) {
            let id = delta_wme(rng, wm, syms, &["a", "b", "c", "n", "a", "b", "c"], values);
            live.push(id);
            batch.push(Change::Add(id));
        }
        batch
    }

    /// A new WME of a class drawn from `classes`, in `wm`.
    fn delta_wme(
        rng: &mut Rng64,
        wm: &mut WorkingMemory,
        syms: &mut SymbolTable,
        classes: &[&str],
        values: i64,
    ) -> WmeId {
        let class = classes[rng.gen_range(0..classes.len())];
        let x = rng.gen_range(0..values);
        wm.add(parse_wme(&format!("({class} ^x {x})"), syms).unwrap())
            .0
    }

    /// Drops the WMEs `batch` retracted from `wm`, as a caller does once
    /// every matcher has seen the batch.
    fn commit(wm: &mut WorkingMemory, batch: &[Change]) {
        for change in batch {
            if let Change::Remove(id) = *change {
                wm.remove(id);
            }
        }
    }

    /// The delta rule on one thread, each batch fed with its seed tasks
    /// first-seen and reversed, so that a join's seeds run before and
    /// after the tokens its parent makes in the same phase: batches that
    /// assert and retract WMEs on both inputs of one join at once — the
    /// self-join's one alpha memory, or the `b` tokens and the `c` WMEs
    /// of the chain's last join — while the negations block and unblock
    /// above them, and at the end everything retracted at once. Each
    /// batch's delta is the sequential matcher's and each beta and
    /// negative memory holds what the sequential matcher's memory of its
    /// node holds.
    #[test]
    fn shared_beta_delta_rule_meets_every_pair_once_in_either_seed_order() {
        let program = parse_program(DELTA_RULE).unwrap();
        let mut syms = program.symbols.clone();
        let mut wm = WorkingMemory::new();
        let mut seq = ReteMatcher::compile(&program).unwrap();
        let mut engines = [parallel(DELTA_RULE, 1).1, parallel(DELTA_RULE, 1).1];
        let mut rng = Rng64::new(0xDE17A);
        let mut live = Vec::new();
        let steps = if cfg!(miri) { 40 } else { 400 };
        let mut both = [0; 2];
        for step in 0..=steps {
            let batch = if step == steps {
                live.drain(..).map(Change::Remove).collect()
            } else {
                delta_batch(&mut rng, &mut wm, &mut syms, &mut live, 2)
            };
            let classes: Vec<_> = (batch.iter())
                .map(|change| wm.get(change.wme()).unwrap().class())
                .collect();
            let [a, b, c] = ["a", "b", "c"].map(|class| {
                let class = syms.intern(class);
                classes.iter().filter(|&&of| of == class).count()
            });
            both[0] += usize::from(a >= 2);
            both[1] += usize::from(b > 0 && c > 0);
            let mut want = seq.process(&wm, &batch);
            want.canonicalize();
            for (reversed, m) in engines.iter_mut().enumerate() {
                let mut got = process_phased(m, &wm, &batch, reversed == 1);
                got.canonicalize();
                assert_eq!(got, want, "step {step}, reversed seeds: {}", reversed == 1);
                audit_memories(m, &seq);
            }
            commit(&mut wm, &batch);
        }
        assert!(both.iter().all(|&n| n > steps / 10), "{both:?}");
        assert_eq!(seq.resident_tokens(), 0);
        assert!(engines.iter().all(|m| m.resident_tokens() == 0));
    }

    /// After every batch, at 1, 2 and 8 threads, each beta and negative
    /// memory of the engine holds the multiset of tokens (and counts)
    /// the sequential matcher's memory of the same node holds, and its
    /// chains are sound: random small batches, which run through the
    /// sequential matcher, then a bulk batch that wakes the helpers, and
    /// all of it retracted again.
    #[test]
    fn shared_beta_memories_hold_what_the_sequential_ones_do() {
        let program = parse_program(DELTA_RULE).unwrap();
        // Every other bulk WME is an `a` (all but one in eight under
        // Miri), whose top join always takes its seed: enough seeds to
        // wake the helpers, whatever else the memories hold.
        let (steps, bulk, every) = if cfg!(miri) {
            (20, 1200, 8)
        } else {
            (150, 4000, 2)
        };
        for threads in [1, 2, 8] {
            let mut seq = ReteMatcher::compile(&program).unwrap();
            let (_, mut par) = parallel(DELTA_RULE, threads);
            let mut rng = Rng64::new(0xB37A + threads as u64);
            let mut syms = program.symbols.clone();
            let mut wm = WorkingMemory::new();
            let mut live = Vec::new();
            for step in 0..steps + 2 {
                let batch: Vec<Change> = if step < steps {
                    delta_batch(&mut rng, &mut wm, &mut syms, &mut live, 3)
                } else if step == steps {
                    let classes = |i| match i % every == every - 1 {
                        true => &["b", "c", "n"][..],
                        false => &["a"],
                    };
                    let new: Vec<WmeId> = (0..bulk)
                        .map(|i| delta_wme(&mut rng, &mut wm, &mut syms, classes(i), 400))
                        .collect();
                    live.extend(&new);
                    new.into_iter().map(Change::Add).collect()
                } else {
                    live.drain(..).map(Change::Remove).collect()
                };
                let mut want = seq.process(&wm, &batch);
                let mut got = par.process(&wm, &batch);
                want.canonicalize();
                got.canonicalize();
                assert_eq!(got, want, "threads {threads}, step {step}");
                audit_memories(&par, &seq);
                commit(&mut wm, &batch);
            }
            // Seeds dealt over every deque were run by a helper or
            // stolen back by the caller: the bulk path was taken.
            let spread = par.worker_stats()[1..].iter().any(|w| w.tasks > 0)
                || par.worker_totals_merged().steals > 0;
            assert_eq!(spread, threads > 1, "threads {threads}");
            assert_eq!(par.resident_tokens(), 0);
        }
    }

    /// Negations under the anti-join delta rule. `twice` chains two of
    /// them mid-LHS, so that the second one receives a token in the same
    /// phase its own right input blocks or unblocks it: the first blocks
    /// a token in the add phase (a minus arrives at the second) and
    /// unblocks one in the remove phase (a plus). `lead` opens with one,
    /// whose memory holds the top token. `skew` reads the first negation
    /// of `twice` by a key the negative memory has no chain of, so its
    /// join scans that memory whole.
    const NEGATION: &str = r#"
        (p twice (a ^x <v> ^y <w>) - (n ^x <v>) - (m ^x <v>) (c ^x <v>) --> (halt))
        (p lead - (m ^x 1) (c ^x <v>) --> (halt))
        (p skew (a ^x <v> ^y <w>) - (n ^x <v>) (c ^x <w>) --> (halt))
    "#;

    /// A new WME of a class of [`NEGATION`], with `^x` (and an `a`'s
    /// `^y`) below `values`.
    fn negation_wme(
        rng: &mut Rng64,
        wm: &mut WorkingMemory,
        syms: &mut SymbolTable,
        values: i64,
    ) -> WmeId {
        let class = ["a", "n", "m", "c"][rng.gen_range(0..4usize)];
        let mut x = || rng.gen_range(0..values);
        let lit = match class {
            "a" => format!("(a ^x {} ^y {})", x(), x()),
            _ => format!("({class} ^x {})", x()),
        };
        wm.add(parse_wme(&lit, syms).unwrap()).0
    }

    /// Which of the four cases of a negation that flips in the phase its
    /// left token moves in `batch` holds, for some value: an `a` and an
    /// `n` of one `^x` both asserted (the token arrives at the first
    /// negation as it is blocked) or both retracted (it leaves as it is
    /// unblocked), an `n` and an `m` both asserted (the token leaves the
    /// second negation as it is blocked) or both retracted (it arrives
    /// as it is unblocked).
    fn flips(wm: &WorkingMemory, syms: &mut SymbolTable, batch: &[Change]) -> [bool; 4] {
        let [x, a, n, m] = ["x", "a", "n", "m"].map(|name| syms.intern(name));
        let of = |class, add| -> Vec<_> {
            let changes = batch.iter().filter(|change| change.is_add() == add);
            let wmes = changes.map(|change| wm.get(change.wme()).unwrap());
            let wmes = wmes.filter(|wme| wme.class() == class);
            wmes.map(|wme| wme.get(x)).collect()
        };
        let both = |first, second, add| {
            let second = of(second, add);
            of(first, add).iter().any(|value| second.contains(value))
        };
        [
            both(a, n, true),
            both(a, n, false),
            both(n, m, true),
            both(n, m, false),
        ]
    }

    /// The anti-join delta rule, against the sequential matcher after
    /// every batch: in phases on one thread with each batch's seed tasks
    /// first-seen and reversed, so that a negative node's right seeds run
    /// before and after the tokens its left input sends it in the same
    /// phase; in phases at 2 threads, the helper woken for every phase;
    /// and at 2 and 8 threads as `process` runs it — small batches on
    /// the sequential loop and bulk batches in phases that wake the
    /// helpers, over the memories the small ones left. Every batch's
    /// delta is the sequential matcher's, and each negative memory holds
    /// the sequential one's tokens with the same counts. Each of the
    /// four cases of [`flips`] is met in both seed orders and in the bulk
    /// batches.
    #[test]
    fn negative_delta_rule_meets_every_flip_once_in_either_seed_order() {
        let program = parse_program(NEGATION).unwrap();
        let (steps, bulk) = if cfg!(miri) { (60, 1200) } else { (600, 3000) };
        let mut syms = program.symbols.clone();
        let mut wm = WorkingMemory::new();
        let mut seq = ReteMatcher::compile(&program).unwrap();
        let mut engines = [1, 1, 2, 2, 8].map(|threads| parallel(NEGATION, threads).1);
        let mut rng = Rng64::new(0xA471);
        let mut live = Vec::new();
        let mut met = [0; 4];
        for step in 0..steps + 3 {
            let mut batch = Vec::new();
            if step < steps {
                for _ in 0..rng.gen_range(0..=live.len().min(3)) {
                    let id = live.swap_remove(rng.gen_range(0..live.len()));
                    batch.push(Change::Remove(id));
                }
                for _ in 0..rng.gen_range(usize::from(batch.is_empty())..=4) {
                    batch.push(Change::Add(negation_wme(&mut rng, &mut wm, &mut syms, 2)));
                }
            } else {
                // Bulk: half of what is live retracted and as much
                // asserted, twice, then everything retracted.
                let leaving = if step == steps + 2 {
                    live.len()
                } else {
                    live.len() / 2
                };
                for id in live.drain(..leaving) {
                    batch.push(Change::Remove(id));
                }
                for _ in 0..if step == steps + 2 { 0 } else { bulk } {
                    batch.push(Change::Add(negation_wme(&mut rng, &mut wm, &mut syms, 60)));
                }
            }
            live.extend(batch.iter().filter(|c| c.is_add()).map(|c| c.wme()));
            let cases = flips(&wm, &mut syms, &batch);
            for (met, case) in met.iter_mut().zip(cases) {
                *met += usize::from(case && step < steps);
            }
            let (adds, removes) = ([cases[0], cases[2]], [cases[1], cases[3]]);
            assert!(
                step < steps || step == steps + 2 || adds == [true; 2],
                "step {step}"
            );
            assert!(step <= steps || removes == [true; 2], "step {step}");
            let mut want = seq.process(&wm, &batch);
            want.canonicalize();
            for (at, m) in engines.iter_mut().enumerate() {
                let mut got = match at {
                    0..=2 => process_phased(m, &wm, &batch, at == 1),
                    _ => m.process(&wm, &batch),
                };
                got.canonicalize();
                assert_eq!(got, want, "step {step}, engine {at}");
                audit_memories(m, &seq);
            }
            commit(&mut wm, &batch);
        }
        assert!(met.iter().all(|&n| n > steps / 40), "{met:?}");
        for m in &engines[3..] {
            // Seeds dealt over every deque were run by a helper or
            // stolen back by the caller: the bulk path was taken.
            let spread = m.worker_stats()[1..].iter().any(|w| w.tasks > 0)
                || m.worker_totals_merged().steals > 0;
            assert!(spread, "threads {}", m.threads());
        }
        assert!(engines.iter().all(|m| m.resident_tokens() == 0));
    }

    #[test]
    fn engine_is_send() {
        // The matcher crosses thread boundaries in user code (e.g. a
        // driver thread); guard the auto-traits.
        fn assert_send<T: Send>() {}
        assert_send::<ParallelReteMatcher>();
        assert_send::<crate::ProductionParallelMatcher>();
    }

    #[test]
    fn thread_count_clamped_to_one() {
        let program = parse_program("(p r (a ^x 1) --> (halt))").unwrap();
        let m = ParallelReteMatcher::compile(
            &program,
            ParallelOptions {
                threads: 0,
                share: true,
            },
        )
        .unwrap();
        assert_eq!(m.threads(), 1);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (program, mut m) = parallel("(p r (a ^x 1) --> (halt))", 2);
        let wm = WorkingMemory::new();
        let d = m.process(&wm, &[]);
        assert!(d.is_empty());
        assert_eq!(m.stats().batches, 1);
        let _ = program;
    }

    #[test]
    fn stats_accumulate() {
        let (program, mut m) = parallel("(p r (a ^x <v>) (b ^x <v>) --> (remove 1))", 2);
        let mut wm = WorkingMemory::new();
        let mut syms = program.symbols.clone();
        let (a, _) = wm.add(parse_wme("(a ^x 1)", &mut syms).unwrap());
        let (b, _) = wm.add(parse_wme("(b ^x 1)", &mut syms).unwrap());
        m.process(&wm, &[Change::Add(a), Change::Add(b)]);
        let s = m.stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.changes, 2);
        assert_eq!(s.tasks, 0, "a short batch dispatches no task");
        assert!(s.loop_activations >= 2);
        assert!(s.constant_tests > 0);
        // In phases a task is one node's payloads of a phase: the two
        // retractions seed the right inputs of two joins.
        process_phased(&mut m, &wm, &[Change::Remove(a), Change::Remove(b)], false);
        let t = m.stats();
        assert_eq!(t.loop_activations, s.loop_activations);
        assert!(t.tasks >= 2);
        assert!(t.join_tests > s.join_tests);
    }

    #[test]
    fn unshared_compile_matches_too() {
        let program = parse_program(EQ_PROGRAM).unwrap();
        let mut seq = ReteMatcher::compile(&program).unwrap();
        let mut par = ParallelReteMatcher::compile(
            &program,
            ParallelOptions {
                threads: 4,
                share: false,
            },
        )
        .unwrap();
        let mut wm = WorkingMemory::new();
        let mut syms = program.symbols.clone();
        for lit in [
            "(a ^x 1)",
            "(b ^x 1)",
            "(c ^x 1)",
            "(goal ^x 1)",
            "(veto ^x 1)",
        ] {
            let (id, _) = wm.add(parse_wme(lit, &mut syms).unwrap());
            let mut d1 = seq.add_wme(&wm, id);
            let mut d2 = par.add_wme(&wm, id);
            d1.canonicalize();
            d2.canonicalize();
            assert_eq!(d1, d2);
        }
    }

    /// Sticky-timing regression: the obs detail toggle used to latch
    /// per-task clock reads on for the matcher's lifetime.
    #[test]
    fn timing_stops_when_detail_is_switched_off() {
        let (program, mut m) = parallel(EQ_PROGRAM, 2);
        let obs = Arc::new(Obs::new(16));
        m.attach_obs(Arc::clone(&obs));
        let mut wm = WorkingMemory::new();
        let mut syms = program.symbols.clone();
        let mut exec_ns_after_add = |m: &mut ParallelReteMatcher, lit: &str| {
            let (id, _) = wm.add(parse_wme(lit, &mut syms).unwrap());
            m.process(&wm, &[Change::Add(id)]);
            m.worker_totals_merged().exec_ns
        };
        assert_eq!(exec_ns_after_add(&mut m, "(a ^x 0)"), 0, "off by default");
        obs.set_detail(true);
        let timed = exec_ns_after_add(&mut m, "(a ^x 1)");
        assert!(timed > 0, "detail turns task timing on");
        obs.set_detail(false);
        assert_eq!(
            exec_ns_after_add(&mut m, "(a ^x 2)"),
            timed,
            "and off again"
        );
        m.enable_timing();
        assert!(exec_ns_after_add(&mut m, "(a ^x 3)") > timed);
    }

    #[test]
    fn per_node_profiler_collects_in_parallel() {
        let (program, mut m) = parallel("(p r (a ^x <v>) (b ^x <v>) --> (remove 1))", 2);
        let mut seq = ReteMatcher::compile(&program).unwrap();
        let obs = Arc::new(Obs::with_profile(16, 64, 64));
        let seq_obs = Arc::new(Obs::with_profile(16, 64, 64));
        m.attach_obs(Arc::clone(&obs));
        seq.attach_obs(Arc::clone(&seq_obs));
        let mut wm = WorkingMemory::new();
        let mut syms = program.symbols.clone();
        for lit in ["(a ^x 1)", "(a ^x 2)", "(b ^x 1)"] {
            let (id, _) = wm.add(parse_wme(lit, &mut syms).unwrap());
            m.process(&wm, &[Change::Add(id)]);
            seq.process(&wm, &[Change::Add(id)]);
        }
        let snap = obs.profile.snapshot();
        assert_eq!(snap.overflow, 0);
        let joins: Vec<_> = snap.rows.iter().filter(|r| r.kind == "join").collect();
        assert_eq!(joins.len(), 2, "two join nodes touched");
        // Top join: both `a`s pass straight through the dummy token.
        let top = joins.iter().find(|r| r.right == 2).expect("top join");
        assert_eq!(top.pairs, 2);
        assert_eq!(top.tokens_out, 2);
        assert!((top.selectivity - 1.0).abs() < 1e-12);
        // The b-join: one right activation probing its value chain,
        // which holds exactly the one `^x 1` token (the `^x 2` token
        // lives on a different chain and is never scanned). The `a`
        // tokens were filed into the memory it reads and made no left
        // activation of it, its alpha memory being empty — as in the
        // sequential matcher.
        let b = joins.iter().find(|r| r.right == 1).expect("b join");
        let seq_snap = seq_obs.profile.snapshot();
        let seq_b = seq_snap.rows.iter().find(|r| r.node == b.node);
        assert_eq!(b.left, seq_b.expect("b join, sequential").left);
        assert_eq!(b.pairs, 1);
        assert_eq!(b.tokens_out, 1);
        assert!((b.selectivity - 1.0).abs() < 1e-12);
        let term = snap
            .rows
            .iter()
            .find(|r| r.kind == "term")
            .expect("terminal row");
        assert_eq!(term.tokens_out, 1);
        // Flight records use the same activation labels as the
        // sequential matcher, so `/explain` and `/profile` agree.
        let flight_json: String = obs
            .flight
            .explain_cycle(0)
            .iter()
            .map(|r| r.to_json())
            .collect();
        assert!(
            flight_json.contains("join-R"),
            "unified labels: {flight_json}"
        );
        assert!(!flight_json.contains("parallel-right"));
    }

    #[test]
    fn parallel_profiler_off_costs_nothing() {
        let (program, mut m) = parallel("(p r (a ^x <v>) (b ^x <v>) --> (remove 1))", 2);
        let obs = Arc::new(Obs::with_flight(16, 16));
        m.attach_obs(Arc::clone(&obs));
        let mut wm = WorkingMemory::new();
        let mut syms = program.symbols.clone();
        let (id, _) = wm.add(parse_wme("(a ^x 1)", &mut syms).unwrap());
        m.process(&wm, &[Change::Add(id)]);
        assert!(!obs.profile.enabled());
        assert_eq!(obs.profile.snapshot().retained, 0);
    }

    #[test]
    fn nodes_past_profiler_capacity_are_counted_not_accumulated() {
        // The same three batches under a profiler with room for every
        // node and under one with a single slot.
        let run = |slots: usize| {
            let (program, mut m) = parallel("(p r (a ^x <v>) (b ^x <v>) --> (remove 1))", 1);
            let obs = Arc::new(Obs::with_profile(16, 0, slots));
            m.attach_obs(Arc::clone(&obs));
            let mut wm = WorkingMemory::new();
            let mut syms = program.symbols.clone();
            for lit in ["(a ^x 1)", "(a ^x 2)", "(b ^x 1)"] {
                let (id, _) = wm.add(parse_wme(lit, &mut syms).unwrap());
                m.process(&wm, &[Change::Add(id)]);
            }
            obs.profile.snapshot()
        };
        let (all, one) = (run(64), run(1));
        let activations = |snap: &psm_obs::ProfileSnapshot| -> u64 {
            snap.rows.iter().map(|r| r.tokens_in).sum()
        };
        assert_eq!(all.overflow, 0);
        assert!(one.rows.iter().all(|r| r.node == 0));
        assert!(one.overflow > 0);
        assert_eq!(activations(&one) + one.overflow, activations(&all));
    }

    /// A fault drawn on the sequential loop, at the third of four
    /// changes of a short batch run by `process`: every change's action
    /// is drawn before any change runs, so a panic — or a poisoned
    /// deque — runs none of the batch and publishes nothing, and a
    /// dropped task drops its change alone.
    #[test]
    fn a_fault_on_the_sequential_loop_runs_none_of_its_batch() {
        let src = "(p r (a ^x <v>) (b ^x <v>) --> (remove 1)) \
                   (p s (b ^x <v>) - (c ^x <v>) --> (remove 1))";
        for action in [
            FaultAction::PanicWorker,
            FaultAction::PoisonLock,
            FaultAction::DropTask,
        ] {
            let (program, mut m) = parallel(src, 2);
            let mut seq = ReteMatcher::compile(&program).unwrap();
            let obs = Arc::new(Obs::with_flight(16, 256));
            m.attach_obs(Arc::clone(&obs));
            let mut wm = WorkingMemory::new();
            let mut syms = program.symbols.clone();
            let first = add_batch(&mut wm, &mut syms, &["a", "c"], 2);
            let _ = (m.process(&wm, &first), seq.process(&wm, &first));
            let before = obs.flight.len();
            // Phase 4 is the add phase of the second batch; seq 2 is its
            // third assertion.
            m.set_fault_injector(Some(Arc::new(OneShot {
                phase: 4,
                seq: 2,
                action,
            })));
            let batch = add_batch(&mut wm, &mut syms, &["a", "b"], 4);
            let mut got = m.process(&wm, &batch);
            assert_eq!(m.take_faults(), 1, "{action:?}");
            let ran = match action {
                FaultAction::DropTask => [&batch[..2], &batch[3..]].concat(),
                _ => Vec::new(),
            };
            let mut want = seq.process(&wm, &ran);
            got.canonicalize();
            want.canonicalize();
            assert_eq!(got, want, "{action:?}");
            let live: Vec<WmeId> = first.iter().chain(&ran).map(|c| c.wme()).collect();
            audit_alpha(&m, &wm, &live);
            audit_memories(&m, &seq);
            let published = obs.flight.len() > before;
            assert_eq!(published, action == FaultAction::DropTask, "{action:?}");
            let recovered = u64::from(action == FaultAction::PoisonLock);
            assert_eq!(m.poison_recoveries(), recovered, "{action:?}");
        }
    }

    #[test]
    fn a_panicking_worker_publishes_none_of_its_phase() {
        let (program, mut m) = parallel("(p r (a ^x <v>) (b ^x <v>) --> (remove 1))", 1);
        let obs = Arc::new(Obs::with_flight(16, 64));
        m.attach_obs(Arc::clone(&obs));
        let mut wm = WorkingMemory::new();
        let mut syms = program.symbols.clone();
        let (a, _) = wm.add(parse_wme("(a ^x 1)", &mut syms).unwrap());
        m.process(&wm, &[Change::Add(a)]);
        let before = obs.flight.len();
        assert!(before > 0, "a phase publishes at its barrier");
        // Phase 4 is the add phase of the second batch, run in phases.
        // Its first task (the b-join) runs and stages its activation; the
        // panic strikes as the worker draws the terminal task it spawned.
        m.set_fault_injector(Some(Arc::new(OneShot {
            phase: 4,
            seq: 1,
            action: FaultAction::PanicWorker,
        })));
        let (b, _) = wm.add(parse_wme("(b ^x 1)", &mut syms).unwrap());
        let _ = process_phased(&mut m, &wm, &[Change::Add(b)], false);
        assert_eq!(m.take_faults(), 1);
        assert_eq!(obs.flight.len(), before, "half a phase is not published");
        // The next phase publishes again, from an empty batch.
        m.set_fault_injector(None);
        let (b2, _) = wm.add(parse_wme("(b ^x 1)", &mut syms).unwrap());
        m.process(&wm, &[Change::Add(b2)]);
        let records = obs.flight.records();
        assert!(records.len() > before);
        let wme_of = |r: &psm_obs::FlightRecord| r.kind.wmes().first().copied();
        assert!(
            records[before..]
                .iter()
                .all(|r| wme_of(r) != Some(b.index() as u32)),
            "nothing staged before the panic leaks into a later publish"
        );
    }
}
