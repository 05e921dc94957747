//! The node-activation-parallel Rete engine.
//!
//! See the crate docs for the consistency protocol. The engine executes
//! each change batch in two barrier-separated phases (retractions, then
//! assertions); within a phase, activations bound for the same node are
//! grouped into one task (batched change propagation: dispatch, flight
//! tracing, and the per-node lock are paid once per node per phase
//! fragment, not once per WME change).
//!
//! **Memories.** The engine keeps the sequential matcher's state where
//! the sequential matcher keeps it: one [`rete::Memory`] per alpha node
//! and one per beta memory a join reads, built by the same
//! [`alpha_memories`] and [`beta_memories`] with the same key slots.
//! Only the caller writes them, and only between phases: a batch's
//! assertions are filed into the alpha memories at the start of the add
//! phase and its retractions unfiled at the end of the remove phase, and
//! the tokens a phase's joins emit are filed into their beta memories
//! when the phase ends. During a phase they are plain shared data.
//! Negative nodes, and joins whose left input is a negative node or the
//! top token, keep a private left memory instead (a `Side`: signed
//! presence, each entry held once, in buckets by its index key's
//! fingerprint), guarded by the node's lock. Either way an activation
//! scans the one chain or bucket its own key selects, the same
//! candidates the sequential matcher scans.
//!
//! **Visibility.** A join under a beta memory follows the join delta
//! rule for signed changes, Δ(L⋈R) = ΔL⋈R′ + L⋈ΔR. Its right activation
//! scans the beta memory as the phase found it (L). Its left activation
//! scans the alpha memory as the phase leaves it (R′): the phase's
//! assertions are filed before it starts, and its retractions are hidden
//! by the phase stamp each changed WME carries. Each pair is then made or
//! retracted exactly once, in whatever order the tasks run and whatever
//! mix of signs comes down the left input. A node with a private left
//! memory sees its alpha memory as a private right memory would have
//! held it: each such node records the phase its right seeds last ran
//! in, and a left activation in phase *p* skips an entry stamped *p*
//! when, in the add phase, the node's seeds have not run yet, or, in the
//! remove phase, they have. A node whose left input holds nothing when
//! the phase starts gets no seed task (its right activations would scan
//! nothing); one with a private left memory then counts as seeded from
//! the start. A join under a beta memory gets no left task while its
//! alpha memory is empty: it would scan nothing and file nothing.
//!
//! **Scheduling.** Tasks are drained by a work-first [`WorkerPool`] —
//! the software analogue of the paper's hardware task scheduler. The thread
//! that calls [`Matcher::process`] is worker 0 and starts draining at
//! once; `threads − 1` helper threads stay parked and are woken only for
//! a phase whose seed backlog repays a futex wake. Every worker pops its
//! own deque LIFO (locality) and steals FIFO from peers when it runs
//! dry. A phase that wakes nobody is drained by the caller through
//! `&mut self`: no node lock, no deque lock and no atomic. Deques,
//! per-worker scratch, the per-node task grouping and the payload
//! buffers all live as long as the matcher, so a steady-state phase
//! neither hashes nor allocates to dispatch.
//!
//! Every worker keeps [`WorkerStats`] counters (tasks, steals, idle
//! spins, queue depth, lock wait) that are merged after each phase and
//! optionally published to an attached [`psm_obs::Obs`] registry;
//! timing counters (`lock_wait_ns`, `exec_ns`) are only collected once
//! [`ParallelReteMatcher::enable_timing`] or the obs detail toggle
//! turns them on, keeping the default hot path free of clock reads.

use std::borrow::Borrow;
use std::cell::Cell;
use std::collections::VecDeque;
use std::hash::Hash;
use std::ops::DerefMut;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use psm_obs::metrics::{Counter, Gauge};
use psm_obs::{NodeDelta, NodeProfiler, Obs, ProfileKind};

use ops5::{
    Change, Error, FxHashMap, Instantiation, MatchDelta, Matcher, Program, WmeId, WorkingMemory,
};
use rete::kernel::{self, FlightStage, Work};
use rete::memory::{alpha_memories, beta_memories};
use rete::network::NodeKind;
use rete::{
    ActivationKind, AlphaId, Bucket, CompileOptions, Memory, MemoryStrategy, Network, NodeId,
    NodeSpec, Sign, Token,
};

use crate::pool::{lock, PanicPayload, PoolStats, WorkerPool};
use crate::topology::ParallelTopology;

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
    /// Grouped node-activation tasks executed (one task carries every
    /// payload bound for its node in that phase fragment).
    pub tasks: u64,
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
    /// Nanoseconds spent waiting on node locks (timing mode only).
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
    /// Acquire the node lock, then panic while holding it (poisons the
    /// mutex; exercises the poison-recovering lock path).
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
///
/// Implemented by `psm_fault::FaultPlan`; the engine only knows the
/// trait so the dependency points outward.
pub trait FaultInjector: Send + Sync {
    /// Decides the fate of task number `seq` of phase `phase`, about to
    /// run on worker `worker`.
    fn on_task(&self, phase: u64, seq: u64, worker: usize) -> FaultAction;
}

/// Locks `m`, recovering (rather than panicking) if a previous holder
/// panicked: the protected node state is only mutated *after* all
/// injected panic points, so a poisoned guard still protects a
/// consistent value. Every recovery is counted so supervisors can see
/// how often the pool survived a poisoned lock.
fn relock<'a, T>(m: &'a Mutex<T>, recovered: &AtomicU64) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poisoned| {
        recovered.fetch_add(1, Ordering::Relaxed);
        poisoned.into_inner()
    })
}

/// [`lock`] (poison ignored and not counted as a recovery: a panicking
/// task leaves the engine's own scratch consistent) through exclusive
/// access, so without an atomic.
fn unlocked<T>(m: &mut Mutex<T>) -> &mut T {
    m.get_mut()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A pending node activation: the whole batch of payloads bound for one
/// node in this phase fragment, executed under a single lock
/// acquisition. Grouping amortizes dispatch, flight tracing, and the
/// per-node mutex across the batch instead of paying them per WME
/// change (DESIGN.md §17).
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
    /// Payloads pushed since the tasks were last taken: the phase's
    /// seed backlog.
    payloads: usize,
}

const NO_TASK: u32 = u32::MAX;

impl TaskGroups {
    fn new(nodes: usize) -> Self {
        TaskGroups {
            pos: vec![NO_TASK; nodes],
            tasks: Vec::new(),
            payloads: 0,
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
        self.payloads += 1;
    }

    /// Takes the tasks in first-seen node order; the groups are empty
    /// again once the iterator is exhausted.
    fn drain(&mut self) -> impl Iterator<Item = Task> + '_ {
        self.payloads = 0;
        let pos = &mut self.pos;
        self.tasks
            .drain(..)
            .inspect(|task| pos[task.node.index()] = NO_TASK)
    }

    /// Drops the tasks of the nodes `idle` picks, handing their
    /// buffers back to `local`.
    fn prune(&mut self, local: &mut WorkerLocal, mut idle: impl FnMut(NodeId) -> bool) {
        let TaskGroups {
            pos,
            tasks,
            payloads,
        } = self;
        tasks.retain_mut(|task| {
            if !idle(task.node) {
                return true;
            }
            pos[task.node.index()] = NO_TASK;
            *payloads -= task.items.len();
            task.items.clear();
            local.recycle(std::mem::take(&mut task.items));
            false
        });
    }
}

/// One entry of a node's left memory.
#[derive(Debug, Default)]
struct Entry {
    /// Signed presence (−1 debt, 0 absent, 1 present): a debt-tolerant
    /// multiset, so a retraction that overtakes its assertion nets out.
    presence: i32,
    /// Negative-node entries only: net count of matching alpha-memory
    /// WMEs. A `Cell` because a right activation adjusts it on the
    /// tokens it is scanning.
    count: Cell<i32>,
}

impl Entry {
    /// Applies one signed arrival, returning the presence it leaves and
    /// the match count.
    fn step(&mut self, sign: Sign) -> (i32, i32) {
        self.presence += sign.delta();
        (self.presence, self.count.get())
    }
}

/// An item with its entry, as a small bucket files it.
#[derive(Debug)]
struct Filed<K> {
    item: K,
    entry: Entry,
}

/// A present entry lent to an opposite-side scan: the kernel reads the
/// item, the hit reads or adjusts the entry.
struct Candidate<'a, K> {
    item: &'a K,
    entry: &'a Entry,
}

impl Borrow<Token> for Candidate<'_, Token> {
    fn borrow(&self) -> &Token {
        self.item
    }
}

/// Entries found by item.
type ByItem<K> = FxHashMap<K, Entry>;

/// Applies one signed arrival of `item` to `entries`, dropping an entry
/// whose presence nets to zero; returns what [`Entry::step`] does.
fn step_by_item<K: Clone + Eq + Hash>(entries: &mut ByItem<K>, item: &K, sign: Sign) -> (i32, i32) {
    use std::collections::hash_map::Entry as Slot;
    match entries.entry(item.clone()) {
        Slot::Vacant(slot) => slot.insert(Entry::default()).step(sign),
        Slot::Occupied(mut slot) => {
            let stepped = slot.get_mut().step(sign);
            if stepped.0 == 0 {
                slot.remove();
            }
            stepped
        }
    }
}

/// The entries of one key fingerprint.
#[derive(Debug)]
enum Filing<K> {
    /// At most [`FEW`]: an arrival finds its item by looking at them.
    Few(Bucket<Filed<K>>),
    /// More, until the bucket drains: found by item. Boxed, so that a
    /// bucket of one is no wider for it.
    Many(Box<ByItem<K>>),
}

impl<K> Filing<K> {
    /// The entries held in a row.
    fn few(&self) -> &[Filed<K>] {
        match self {
            Filing::Few(bucket) => bucket.as_slice(),
            Filing::Many(_) => &[],
        }
    }

    /// The entries found by item.
    fn many(&self) -> Option<&ByItem<K>> {
        match self {
            Filing::Few(_) => None,
            Filing::Many(by_item) => Some(&**by_item),
        }
    }
}

/// Entries a bucket holds in a row. The bound is for the rule whose
/// join key takes few values, so that a bucket is a cross product: with
/// every arrival linear in its bucket, the bulk batches of this crate's
/// unit tests — 116 k tokens under each of three keys — took 186 s
/// instead of 1.2. Where it sits matters little (one-thread engine, a
/// three-CE rule whose second join holds 4 to 144 tokens a key, each WME
/// added and retracted alone): 4, 16, 64 and no bound at all time alike
/// up to 64 entries a bucket, and at 144 no bound costs 25 %. No preset
/// stream fills a row: vt's buckets hold one to three entries.
const FEW: usize = 16;

/// The private left (token) memory of a negative node, or of a join
/// whose left input is a negative node or the top token (a join under a
/// beta memory reads that): signed presence, each entry held once, so
/// that a minus arriving before its plus leaves a debt the plus cancels
/// (a negative node's outputs can arrive in either order within a
/// phase). On a node with an index key ([`rete::NodeSpec::key`],
/// every equality test it has, read through [`kernel::left_key`] and
/// probed by [`kernel::right_key`] — the same keying as the sequential
/// matcher's hashed memories, so both runtimes probe identical candidate
/// sets) an entry lives in the bucket of its key's fingerprint, whatever
/// its presence: an arrival is one probe, a debt is in its bucket and is
/// skipped by [`Side::candidates`], and a bucket that drains is pruned.
/// What has no key is held by item instead: every entry of a node
/// without one, which scans all that are present, and on a keyed node
/// the unkeyable ones (attribute absent: the equality test can never
/// hold), which no probe can reach.
///
/// Not a [`rete::Memory`]: that finds an entry to remove by walking its
/// chain, and a bucket here can be a cross product thousands of tokens
/// long (see [`FEW`]).
#[derive(Debug)]
struct Side<K> {
    by_item: ByItem<K>,
    buckets: FxHashMap<u32, Filing<K>>,
}

impl<K> Default for Side<K> {
    fn default() -> Self {
        Side {
            by_item: FxHashMap::default(),
            buckets: FxHashMap::default(),
        }
    }
}

impl<K: Clone + Eq + Hash> Side<K> {
    /// Whether the side holds no entry, present or owed.
    fn is_empty(&self) -> bool {
        self.by_item.is_empty() && self.buckets.is_empty()
    }

    /// Applies one signed arrival of `item`, filed under `key`.
    ///
    /// Returns the entry's match count when presence made a net
    /// transition — absent to present under `Plus`, present to absent
    /// under `Minus` — which are the only arrivals that scan the
    /// opposite side; `None` when the arrival merely netted against a
    /// debt or a duplicate. Entries whose presence nets to zero are
    /// dropped.
    fn arrive(&mut self, item: &K, sign: Sign, key: Option<u32>) -> Option<i32> {
        use std::collections::hash_map::Entry as Slot;
        // The item's first arrival, to file in a row.
        let first = || {
            let (item, mut entry) = (item.clone(), Entry::default());
            let stepped = entry.step(sign);
            (Filed { item, entry }, stepped)
        };
        let (presence, count) = match key.map(|key| self.buckets.entry(key)) {
            None => step_by_item(&mut self.by_item, item, sign),
            Some(Slot::Vacant(slot)) => {
                let (filed, stepped) = first();
                slot.insert(Filing::Few(Bucket::One(filed)));
                stepped
            }
            Some(Slot::Occupied(mut slot)) => {
                let (stepped, drained) = match slot.get_mut() {
                    Filing::Many(by_item) => {
                        let stepped = step_by_item(by_item, item, sign);
                        (stepped, by_item.is_empty())
                    }
                    Filing::Few(bucket) => {
                        match bucket.as_slice().iter().position(|f| f.item == *item) {
                            Some(at) => {
                                let stepped = bucket.as_mut_slice()[at].entry.step(sign);
                                let left = stepped.0 == 0 && bucket.swap_remove(at).is_none();
                                (stepped, left)
                            }
                            None if bucket.as_slice().len() < FEW => {
                                let (filed, stepped) = first();
                                bucket.push(filed);
                                (stepped, false)
                            }
                            None => {
                                let few = std::mem::replace(bucket, Bucket::Many(Vec::new()));
                                let few = few.into_vec().into_iter();
                                let mut by_item: ByItem<K> =
                                    few.map(|f| (f.item, f.entry)).collect();
                                let stepped = step_by_item(&mut by_item, item, sign);
                                slot.insert(Filing::Many(Box::new(by_item)));
                                (stepped, false)
                            }
                        }
                    }
                };
                if drained {
                    slot.remove();
                }
                stepped
            }
        };
        (presence == i32::from(sign.is_plus())).then_some(count)
    }

    /// The entry of `item`, filed under `key`.
    fn entry(&self, item: &K, key: Option<u32>) -> Option<&Entry> {
        let Some(key) = key else {
            return self.by_item.get(item);
        };
        let filing = self.buckets.get(&key)?;
        let filed = filing.few().iter().find(|f| f.item == *item);
        let by_item = || filing.many()?.get(item);
        filed.map(|f| &f.entry).or_else(by_item)
    }

    /// The present entries an opposite-side activation with key
    /// `key` must scan: that key's bucket on a `keyed` node (nothing
    /// when the arrival itself is unkeyable), every present entry
    /// otherwise.
    fn candidates(&self, keyed: bool, key: Option<u32>) -> impl Iterator<Item = Candidate<'_, K>> {
        let filing = key.and_then(|key| self.buckets.get(&key));
        let few = filing.map_or(&[][..], Filing::few);
        let many = filing.and_then(Filing::many);
        let by_item = many.into_iter().chain((!keyed).then_some(&self.by_item));
        few.iter()
            .map(|f| (&f.item, &f.entry))
            .chain(by_item.flatten())
            .filter(|(_, entry)| entry.presence > 0)
            .map(|(item, entry)| Candidate { item, entry })
    }

    /// Every entry, present or owed.
    fn entries(&self) -> impl Iterator<Item = (&K, &Entry)> {
        let few = self.buckets.values().flat_map(Filing::few);
        let by_item = self.buckets.values().filter_map(Filing::many);
        few.map(|f| (&f.item, &f.entry))
            .chain(by_item.chain([&self.by_item]).flatten())
    }
}

/// Lock-protected state of one node: the private left memory of a node
/// that keeps one, and the phase its right seeds last ran in (the
/// visibility rule, module docs). A join under a beta memory and a
/// terminal hold an empty slot, whose lock a task of theirs takes only
/// to inject a poisoned-lock fault.
#[derive(Debug, Default)]
struct NodeSlot {
    left: Side<Token>,
    seeded: u64,
}

/// The key slots a node's activations probe: a left activation its
/// alpha memory's, a right activation of a join under a beta memory
/// that memory's; `None` for a node without an index key (it scans
/// them all).
#[derive(Debug, Clone, Copy)]
struct Probe {
    right: Option<usize>,
    left: Option<usize>,
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
    alpha: &'a [Memory<WmeId>],
    beta: &'a [Memory<Token>],
    probes: &'a [Probe],
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

/// How a worker reaches what it writes during a phase besides its own
/// scratch: the node slots and its own deque. While helpers may run,
/// through their locks ([`Locked`]); while the caller drains a phase
/// alone, through `&mut` ([`Alone`]), so with no lock and no atomic.
trait Reach {
    /// The slot of node `at` (lock wait timed into `worker` when the
    /// phase is timed).
    fn slot(&mut self, at: usize, worker: &mut WorkerStats) -> impl DerefMut<Target = NodeSlot>;

    /// Panics holding the lock of node `at`'s slot: an injected
    /// poisoned lock.
    fn poison(&mut self, at: usize) -> !;

    /// This worker's deque, with `spawned` more tasks counted pending.
    fn queue(&mut self, spawned: usize) -> impl DerefMut<Target = VecDeque<Task>>;
}

/// [`Reach`] in a phase the helpers share.
struct Locked<'a> {
    states: &'a [Mutex<NodeSlot>],
    queue: &'a Mutex<VecDeque<Task>>,
    /// Tasks queued or running.
    pending: &'a AtomicUsize,
    recovered: &'a AtomicU64,
    timing: bool,
}

impl Reach for Locked<'_> {
    fn slot(&mut self, at: usize, worker: &mut WorkerStats) -> impl DerefMut<Target = NodeSlot> {
        let mutex = &self.states[at];
        if !self.timing {
            return relock(mutex, self.recovered);
        }
        let t0 = Instant::now();
        let guard = relock(mutex, self.recovered);
        worker.lock_wait_ns += t0.elapsed().as_nanos() as u64;
        guard
    }

    fn poison(&mut self, at: usize) -> ! {
        let _held = relock(&self.states[at], self.recovered);
        panic!("injected fault: lock poison");
    }

    fn queue(&mut self, spawned: usize) -> impl DerefMut<Target = VecDeque<Task>> {
        self.pending.fetch_add(spawned, Ordering::AcqRel);
        relock(self.queue, self.recovered)
    }
}

/// [`Reach`] in a phase the caller drains alone: its deque holds every
/// task that is pending.
struct Alone<'a> {
    states: &'a mut [Mutex<NodeSlot>],
    queue: &'a mut VecDeque<Task>,
    recovered: &'a AtomicU64,
}

impl Reach for Alone<'_> {
    fn slot(&mut self, at: usize, _: &mut WorkerStats) -> impl DerefMut<Target = NodeSlot> {
        // What `relock` does, through `&mut`: a poisoned slot is
        // recovered and counted.
        let recovered = self.recovered;
        self.states[at].get_mut().unwrap_or_else(|poisoned| {
            recovered.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        })
    }

    fn poison(&mut self, at: usize) -> ! {
        let _held = lock(&self.states[at]);
        panic!("injected fault: lock poison");
    }

    fn queue(&mut self, _: usize) -> impl DerefMut<Target = VecDeque<Task>> {
        &mut *self.queue
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
    /// The tokens this phase's joins emitted toward a beta memory, with
    /// the memory's position: filed by the caller when the phase ends.
    filings: Vec<(u32, Token, Sign)>,
    /// Drained payload buffers awaiting reuse by the next task this
    /// worker builds (worker 0's also serve the seed grouping), and
    /// their capacities summed.
    free: Vec<Vec<Item>>,
    free_items: usize,
}

/// Most payload-buffer capacity a worker keeps for reuse, in bytes,
/// whatever bulk batch went through: 16 Ki items of 32 B (a token in
/// place, or a WME id, and a sign). The deepest phase of the vt stream
/// holds 402 buffers of at most 16 items at once (seed tasks plus
/// queued children; 1000 cycles of `Preset::Vt.spec()`), 201 KiB if
/// every one were full — the free list itself peaks at 1 646 items,
/// 51 KiB — so that stream never returns a buffer to the allocator.
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

/// Seed payloads dispatched in a phase from which it wakes the parked
/// helpers; the payloads of nodes with an empty left input are not
/// dispatched and do not count. On the 2-CPU reference host a notify
/// costs the caller 10 µs and the helper is running 45 µs (p50; 108 µs
/// p90) after it, while a seed payload stood for ~0.45 µs of phase work
/// when every node's seeds were dispatched (vt stream: 26 payloads per
/// change, 143 per batch, 65 µs per batch). A vt-sized phase is over
/// before a parked helper arrives: waking on every phase took
/// `vt-stream-par2` from 72.2 k to 54.0 k changes/s (p50 64.6 → 85.6 µs,
/// 4 of 4 pairs). The vt stream now dispatches 12.1 of its 26.3 payloads
/// per change, 129 at most in a phase (1000 cycles, seed 10). At 1024
/// payloads the phase is ~0.46 ms of work and the wake a tenth of it —
/// extrapolated, not swept: no benchmark workload seeds a phase that
/// large yet (DESIGN.md §12). A phase under the threshold is drained by
/// the caller alone and takes no lock, which made small phases cheaper
/// again; the threshold was not re-derived for that.
const WAKE_BACKLOG: usize = 1024;

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

/// Engine-wide gauges, in the order `run_phase` sets them.
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
    network: Arc<Network>,
    topo: ParallelTopology,
    states: Vec<Mutex<NodeSlot>>,
    /// One per alpha node, shared by the two-input nodes it feeds;
    /// written between phases only.
    alpha: Vec<Memory<WmeId>>,
    /// One per beta memory a join reads (`topo.memories`), shared by the
    /// joins under it; written between phases only.
    beta: Vec<Memory<Token>>,
    /// Per node: the key slots its activations probe.
    probes: Vec<Probe>,
    /// Per WME id: the phase it last changed in (0: none — the stamp
    /// of a WME whose assertion and retraction one batch netted out).
    stamps: Vec<u64>,
    /// The batch's alpha-memory filings, applied between phases:
    /// assertions at the start of the add phase, retractions at the end
    /// of the remove phase.
    inserts: Vec<(AlphaId, WmeId)>,
    unlinks: Vec<(AlphaId, WmeId)>,
    threads: usize,
    /// The worker pool: the caller plus `threads − 1` helpers. Created
    /// lazily on the first non-empty phase (a matcher that never runs
    /// costs no threads), then reused for every subsequent phase and
    /// joined on drop. `None` only before first use — `run_phase` takes
    /// it out while a phase borrows `self` and always puts it back.
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
    /// Seed activations of the batch being processed, per phase.
    removes: TaskGroups,
    adds: TaskGroups,
    stats: ParallelStats,
    /// Per-worker counters accumulated across all phases.
    worker_totals: Vec<WorkerStats>,
    /// [`ParallelReteMatcher::enable_timing`] was called.
    timing_enabled: bool,
    /// Collect lock-wait / exec timing during the current batch: on
    /// request or while the attached obs handle's detail toggle is on
    /// (off by default; clock reads on the hot path are not free).
    timing: bool,
    /// Reusable alpha-match buffer for seeding.
    alpha_buf: Vec<AlphaId>,
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
    /// Poisoned-lock recoveries performed by [`relock`].
    poison_recovered: AtomicU64,
    /// Debug write-set sanitizer; see
    /// [`ParallelReteMatcher::attach_sanitizer`].
    sanitizer: Option<Arc<ops5::effects::WriteSanitizer>>,
}

impl std::fmt::Debug for ParallelReteMatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelReteMatcher")
            .field("threads", &self.threads)
            .field("nodes", &self.states.len())
            .field("stats", &self.stats)
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
        let topo = ParallelTopology::from_network(&network);
        // Each node whose left input passes the dummy top token holds
        // its own copy in its private left memory. It is held by item:
        // such a node has no earlier positive CEs and therefore no
        // equality test to key on.
        let states = kernel::top_token_inputs(&network)
            .into_iter()
            .map(|holds_top| {
                let mut slot = NodeSlot::default();
                if holds_top {
                    let present = Entry {
                        presence: 1,
                        count: Cell::new(0),
                    };
                    slot.left.by_item.insert(Token::top(), present);
                }
                Mutex::new(slot)
            })
            .collect();
        let alpha = alpha_memories(&network, MemoryStrategy::Hashed);
        let kept = |(node, _): &(NodeId, _)| topo.memories.binary_search(node).is_ok();
        let betas = beta_memories(&network, MemoryStrategy::Hashed).filter(kept);
        let beta: Vec<_> = betas.map(|(_, memory)| memory).collect();
        let probe = |(spec, left): (&NodeSpec, &Option<u32>)| Probe {
            right: spec.alpha.and_then(|at| alpha[at.index()].probe_slot(spec)),
            left: left.and_then(|at| beta[at as usize].probe_slot(spec)),
        };
        let probes = network
            .nodes
            .iter()
            .zip(&topo.left_memory)
            .map(probe)
            .collect();
        let threads = threads.max(1);
        let nodes = network.nodes.len();
        ParallelReteMatcher {
            topo,
            states,
            alpha,
            beta,
            probes,
            stamps: Vec::new(),
            inserts: Vec::new(),
            unlinks: Vec::new(),
            threads,
            pool: None,
            pool_stats: PoolStats::default(),
            deques: (0..threads).map(|_| Mutex::default()).collect(),
            locals: (0..threads).map(|_| Mutex::default()).collect(),
            removes: TaskGroups::new(nodes),
            adds: TaskGroups::new(nodes),
            stats: ParallelStats::default(),
            worker_totals: vec![WorkerStats::default(); threads],
            timing_enabled: false,
            timing: false,
            alpha_buf: Vec::new(),
            obs: None,
            fault: None,
            phase_seq: 0,
            injected_faults: AtomicU64::new(0),
            poison_recovered: AtomicU64::new(0),
            network,
            sanitizer: None,
        }
    }

    /// Attaches (or clears) a fault-injection hook. With a hook
    /// attached, worker panics are contained, whichever worker draws
    /// them (the calling thread included): the rest of the phase still
    /// drains, the panic is counted, and the caller observes it through
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
        &self.network
    }

    /// Work counters so far.
    pub fn stats(&self) -> ParallelStats {
        self.stats
    }

    /// Worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Worker-pool lifetime counters: helper threads spawned
    /// (== `threads − 1` on a healthy run, however many phases
    /// executed), dead helpers respawned after injected or genuine
    /// panics, live helper threads, and phases that woke parked
    /// helpers. All zeros before the first non-empty phase (the pool is
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
    /// reads per task; off by default).
    pub fn enable_timing(&mut self) {
        self.timing_enabled = true;
    }

    /// Attaches an observability handle. Worker counters are published
    /// into its registry after every phase (`engine.*` metrics), a
    /// per-phase event is emitted when the ring is enabled, and the
    /// handle's detail toggle drives timing collection.
    pub fn attach_obs(&mut self, obs: Arc<Obs>) {
        let worker = |me| Series::resolve(&obs, "engine.worker.", &format!("{{worker=\"{me}\"}}"));
        for local in &mut self.locals {
            unlocked(local).flight.attach(&obs.flight);
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
    /// against the firing production's static write set before the
    /// parallel phases run. Share the same `Arc` with the interpreter's
    /// `attach_sanitizer` — it owns the firing context; batches seen
    /// outside a firing are not checked.
    pub fn attach_sanitizer(&mut self, sanitizer: Arc<ops5::effects::WriteSanitizer>) {
        self.sanitizer = Some(sanitizer);
    }

    /// Tokens resident in the beta memories and the private left
    /// memories, excluding the permanent dummy-top seeds: a token in a
    /// beta memory counts once, however many joins read it. Zero once
    /// the working memory has been emptied — the state-purge invariant
    /// shared with the sequential matcher.
    pub fn resident_tokens(&self) -> usize {
        let filed: usize = self.beta.iter().map(|memory| memory.entries().len()).sum();
        let private = self.states.iter().map(|slot| {
            let slot = relock(slot, &self.poison_recovered);
            let present = |(t, e): &(&Token, &Entry)| e.presence > 0 && !t.is_empty();
            slot.left.entries().filter(present).count()
        });
        filed + private.sum::<usize>()
    }

    /// Stamps the batch's WMEs with the phase that changes them, lists
    /// the alpha memories each change files or unfiles for the phases to
    /// apply, and groups its right activations per phase and per node
    /// (removes into `self.removes`, adds into `self.adds`). A WME the
    /// batch both asserts and retracts nets to nothing here: it is
    /// stamped 0, seeds nothing and stays filed as it was.
    fn seed(&mut self, wm: &WorkingMemory, changes: &[Change]) {
        let (remove, add) = (self.phase_seq + 1, self.phase_seq + 2);
        let ids = changes.iter().map(|change| change.wme().index() + 1);
        let top = ids.max().unwrap_or(0);
        if self.stamps.len() < top {
            self.stamps.resize(top, 0);
        }
        for change in changes {
            if let Change::Add(id) = *change {
                self.stamps[id.index()] = add;
            }
        }
        for change in changes {
            if let Change::Remove(id) = *change {
                let stamp = &mut self.stamps[id.index()];
                *stamp = if *stamp == add { 0 } else { remove };
            }
        }
        let local = unlocked(&mut self.locals[0]);
        for change in changes {
            let (id, sign, phase) = match *change {
                Change::Remove(id) => (id, Sign::Minus, remove),
                Change::Add(id) => (id, Sign::Plus, add),
            };
            if self.stamps[id.index()] != phase {
                continue;
            }
            let (out, filings) = match sign {
                Sign::Minus => (&mut self.removes, &mut self.unlinks),
                Sign::Plus => (&mut self.adds, &mut self.inserts),
            };
            let wme = wm
                .get(id)
                .expect("matcher contract: changed WME resolvable");
            self.stats.constant_tests += self.network.alpha.matching_into(wme, &mut self.alpha_buf);
            for &alpha in &self.alpha_buf {
                filings.push((alpha, id));
                for &succ in &self.network.alpha_successors[alpha.index()] {
                    out.push(succ, Payload::Right(id), sign, local);
                }
            }
        }
    }

    /// Runs one phase with the memory changes around it: the batch's
    /// assertions are filed into the alpha memories before the add phase
    /// drains, and the tokens a phase emitted toward a beta memory after
    /// it has, as are the batch's retractions after the remove phase —
    /// on every way out, so that a genuine panic re-raised from either
    /// phase leaves none of them, nor the add phase, pending for the
    /// next batch.
    fn run_phase(&mut self, wm: &WorkingMemory, sign: Sign) -> MatchDelta {
        self.phase_seq += 1;
        if sign.is_plus() {
            for (alpha, id) in self.inserts.drain(..) {
                self.alpha[alpha.index()].insert_wme(id, wm);
            }
        }
        let (delta, panicked) = self.drain_phase(wm, sign);
        self.file_tokens(wm);
        if !sign.is_plus() {
            for (alpha, id) in self.unlinks.drain(..) {
                self.alpha[alpha.index()].remove_wme(id, wm);
            }
        }
        if let Some(payload) = panicked {
            // Leave nothing of this batch behind: neither scratch (merged
            // and cleared) nor the add phase that will not run.
            self.adds.drain().for_each(drop);
            self.inserts.clear();
            resume_unwind(payload);
        }
        delta
    }

    /// Files the tokens the phase's joins emitted toward a beta memory:
    /// every plus first, then every minus. A memory is a multiset, so
    /// that nets each token out — one the phase made and retracted
    /// again is inserted and removed — and every minus finds its token,
    /// in whatever order the workers emitted the two.
    fn file_tokens(&mut self, wm: &WorkingMemory) {
        for local in &mut self.locals {
            for (memory, token, sign) in &unlocked(local).filings {
                if sign.is_plus() {
                    self.beta[*memory as usize].insert_token(token.clone(), wm);
                }
            }
        }
        for local in &mut self.locals {
            for (memory, token, sign) in unlocked(local).filings.drain(..) {
                if !sign.is_plus() {
                    self.beta[memory as usize].remove_token(&token, wm);
                }
            }
        }
    }

    /// Drains the seed tasks grouped in `removes` or `adds` (and their
    /// descendants) across the worker pool, returning the merged signed
    /// delta and the payload of a genuine panic to re-raise.
    ///
    /// The seeds of a node whose left input holds no entry, present or
    /// owed, are not dispatched — they would scan nothing and change
    /// nothing. For a join under a beta memory that is exact, because the
    /// memory does not change before the phase ends; a node with a
    /// private left memory counts as seeded from the start of the phase.
    /// Scheduling: the calling thread is worker 0 and starts draining at
    /// once. A small phase (seed backlog under [`WAKE_BACKLOG`]) wakes
    /// nobody: the caller drains it alone through `&mut self`, its own
    /// deque holding every pending task. A large one deals the seeds
    /// round-robin over all deques and wakes the parked helpers, which
    /// join if they arrive before the phase is drained. Spawned children
    /// go to the spawning worker's own deque, popped LIFO for locality; a
    /// worker whose deque runs dry steals FIFO from a peer (oldest first —
    /// classic work stealing, on `std::sync` only). The phase is over
    /// when the caller finds no task anywhere and `pending == 0`
    /// (nothing queued or in flight), and the pool has seen every helper
    /// that entered leave: that is the whole remove→add barrier.
    fn drain_phase(
        &mut self,
        wm: &WorkingMemory,
        sign: Sign,
    ) -> (MatchDelta, Option<PanicPayload>) {
        let (threads, phase_seq) = (self.threads, self.phase_seq);
        let (label, seeds) = match sign {
            Sign::Minus => ("remove", &mut self.removes),
            Sign::Plus => ("add", &mut self.adds),
        };
        let (states, network, topo, beta) =
            (&mut self.states, &self.network, &self.topo, &self.beta);
        seeds.prune(unlocked(&mut self.locals[0]), |node| {
            if let Some(memory) = topo.left_memory[node.index()] {
                return beta[memory as usize].entries().is_empty();
            }
            let slot = unlocked(&mut states[node.index()]);
            let two_input = matches!(network.node(node).kind, NodeKind::Join | NodeKind::Negative);
            let idle = two_input && slot.left.is_empty();
            if idle {
                slot.seeded = phase_seq;
            }
            idle
        });
        if seeds.tasks.is_empty() {
            return (MatchDelta::new(), None);
        }
        let wake = threads > 1 && seeds.payloads >= WAKE_BACKLOG;
        // A phase that wakes nobody runs on worker 0 alone.
        let workers = if wake { threads } else { 1 };
        let pending = AtomicUsize::new(seeds.tasks.len());
        for (i, task) in seeds.drain().enumerate() {
            unlocked(&mut self.deques[i % workers]).push_back(task);
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
            network: &self.network,
            topo: &self.topo,
            alpha: &self.alpha,
            beta: &self.beta,
            probes: &self.probes,
            stamps: &self.stamps,
            prof_slots: profile.map_or(0, NodeProfiler::capacity),
            latency: profile.filter(|p| timing && detail && p.enabled()),
            timing,
            fault: self.fault.as_deref(),
            faults: &self.injected_faults,
        };
        // Created lazily on the first non-empty phase.
        let mut pool = self.pool.take().unwrap_or_else(|| WorkerPool::new(threads));
        // A panic (injected, or a genuine bug) costs the task it struck
        // and, on a helper, the thread: the other workers — and the
        // caller, whose copy of the job is re-entered — drain the rest
        // (the `PendingGuard` keeps `pending` honest), and the pool
        // respawns dead helpers after the phase, handing back the
        // payloads. With a fault injector attached the panic is
        // contained and surfaced through `take_faults`, whoever drew it;
        // without one it propagates, once the epilogue has run.
        let dead = if wake {
            let (states, deques, locals) = (&self.states, &self.deques, &self.locals);
            let recovered = &self.poison_recovered;
            let task_seq = AtomicU64::new(0);
            let job = |me: usize| {
                let local = &mut *lock(&locals[me]);
                let mut reach = Locked {
                    states,
                    queue: &deques[me],
                    pending: &pending,
                    recovered,
                    timing,
                };
                loop {
                    let mut next = relock(&deques[me], recovered).pop_back();
                    if next.is_none() {
                        for k in 1..workers {
                            let victim = (me + k) % workers;
                            local.worker.steal_attempts += 1;
                            if let Some(t) = relock(&deques[victim], recovered).pop_front() {
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
                }
            };
            pool.run(true, &job)
        } else {
            let local = unlocked(&mut self.locals[0]);
            let mut reach = Alone {
                states: &mut self.states,
                queue: unlocked(&mut self.deques[0]),
                recovered: &self.poison_recovered,
            };
            let mut task_seq = 0;
            let mut dead = Vec::new();
            let mut drain = || {
                while let Some(task) = reach.queue.pop_back() {
                    let seq = || {
                        task_seq += 1;
                        task_seq - 1
                    };
                    cx.run(task, 0, seq, local, &mut reach);
                }
            };
            // The caller's "respawn", as in `WorkerPool::run`.
            while let Err(payload) = catch_unwind(AssertUnwindSafe(&mut drain)) {
                dead.push((0, payload));
            }
            dead
        };
        self.pool_stats = pool.stats();
        self.pool = Some(pool);
        for (me, _) in &dead {
            // What a worker that panicked staged stops mid-task: drop
            // its provenance of this phase rather than publish part.
            unlocked(&mut self.locals[*me]).flight.clear();
        }
        let mut delta = MatchDelta::new();
        let mut phase_total = WorkerStats::default();
        for (me, local) in self.locals[..workers].iter_mut().enumerate() {
            let local = unlocked(local);
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
        if let Some(m) = &self.obs {
            m.total.publish(&phase_total);
            let p = self.pool_stats;
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
            // Checked here as well as inside `emit`: building the
            // fields allocates the label.
            if m.obs.events.enabled() {
                m.obs.events.emit(
                    "engine.phase",
                    &[
                        ("kind", label.into()),
                        ("tasks", phase_total.tasks.into()),
                        ("steals", phase_total.steals.into()),
                        ("idle_spins", phase_total.idle_spins.into()),
                    ],
                );
            }
        }
        let genuine = dead.into_iter().next().filter(|_| self.fault.is_none());
        (delta, genuine.map(|(_, payload)| payload))
    }
}

impl PhaseCx<'_> {
    /// Runs `task`, drawn by worker `me`: first what the attached fault
    /// injector decides for it (`seq` numbers it within the phase, in
    /// draw order), then [`PhaseCx::exec`], timed when the phase is.
    fn run<R: Reach>(
        &self,
        task: Task,
        me: usize,
        seq: impl FnOnce() -> u64,
        local: &mut WorkerLocal,
        reach: &mut R,
    ) {
        let action = match self.fault {
            Some(f) => f.on_task(self.seq, seq(), me),
            None => FaultAction::None,
        };
        match action {
            FaultAction::DropTask => {
                self.faults.fetch_add(1, Ordering::Relaxed);
                return;
            }
            FaultAction::PanicWorker => {
                self.faults.fetch_add(1, Ordering::Relaxed);
                panic!("injected fault: worker panic");
            }
            FaultAction::None | FaultAction::PoisonLock => {}
        }
        let started = self.timing.then(Instant::now);
        let node = task.node.index() as u32;
        self.exec(task, local, action == FaultAction::PoisonLock, reach);
        if let Some(t0) = started {
            let ns = t0.elapsed().as_nanos() as u64;
            local.worker.exec_ns += ns;
            if let Some(profile) = self.latency {
                profile.record_latency(node, ns);
            }
        }
    }

    /// Executes one grouped activation — every payload bound for the
    /// node this phase fragment — holding the node's slot throughout
    /// when it keeps a private left memory. Then lists the tokens it
    /// emitted for the beta memory they are filed into, and spawns the
    /// child tasks that receive them (see [`PhaseCx::spawn`]).
    fn exec<R: Reach>(&self, task: Task, local: &mut WorkerLocal, poison: bool, reach: &mut R) {
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
        if poison {
            // Panic holding the node lock, before any mutation: the mutex
            // is poisoned but guards a still-consistent value, which is
            // exactly what `relock` relies on.
            self.faults.fetch_add(1, Ordering::Relaxed);
            reach.poison(at);
        }
        let spec = self.network.node(node_id);
        let node = at as u32;
        let keyed = !spec.key.is_empty();
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
        // A join under a beta memory reads it as the phase found it;
        // every other two-input node keeps a left memory of its own.
        let memory = self.topo.left_memory[at].map(|memory| &self.beta[memory as usize]);
        let private = memory.is_none() && spec.kind != NodeKind::Terminal;
        let mut slot = private.then(|| reach.slot(at, &mut local.worker));
        // The visibility rule (module docs): what a left activation hides.
        let hide = match slot.as_deref_mut() {
            Some(NodeSlot { seeded, .. }) => {
                if let Some((Payload::Right(_), _)) = items.first() {
                    // The node's seeds: a left activation from here on
                    // sees the WMEs this phase changes as they are after
                    // it.
                    *seeded = self.seq;
                }
                (*seeded == self.seq) != self.adding
            }
            // R′: the alpha memory without this phase's retractions.
            None => !self.adding,
        };
        for (payload, sign) in items.drain(..) {
            let right_side = matches!(payload, Payload::Right(_));
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
            // A right activation scans the left input for its WME's key.
            // A left one applies the arrival to a private left memory
            // (presence and index) and then — only on a net presence
            // transition, or always under a beta memory — scans the
            // alpha memory's chain for its key.
            let work = match (spec.kind, payload) {
                (NodeKind::Join, Payload::Right(wme_id)) => {
                    let wme = changed(wme_id);
                    let key = kernel::right_key(&spec.key, wme);
                    let extend = |token: &Token| emitted.push((token.extended(wme_id), sign));
                    match (memory, slot.as_deref()) {
                        (Some(memory), _) => {
                            let probe = self.probes[at].left.map(|slot| (slot, key));
                            let candidates = memory.candidates(probe);
                            kernel::scan_tokens(&spec.tests, candidates, wme, resolve, extend)
                        }
                        (None, Some(NodeSlot { left, .. })) => {
                            let candidates = left.candidates(keyed, key).map(|c| c.item);
                            kernel::scan_tokens(&spec.tests, candidates, wme, resolve, extend)
                        }
                        (None, None) => unreachable!("a join without a left input"),
                    }
                }
                (NodeKind::Join, Payload::Left(token)) => {
                    let key = kernel::left_key(&spec.key, &token, resolve);
                    // An arrival that only nets against a debt or a
                    // duplicate in a private left memory scans nothing.
                    let arrive = |slot: &mut NodeSlot| slot.left.arrive(&token, sign, key);
                    if slot
                        .as_deref_mut()
                        .is_some_and(|slot| arrive(slot).is_none())
                    {
                        Work::default()
                    } else {
                        let extend = |wme_id| emitted.push((token.extended(wme_id), sign));
                        let candidates = self.right_wmes(spec, at, key, hide);
                        kernel::scan_wmes(&spec.tests, &token, candidates, resolve, extend)
                    }
                }
                (NodeKind::Negative, Payload::Right(wme_id)) => {
                    let wme = changed(wme_id);
                    let key = kernel::right_key(&spec.key, wme);
                    // Count adjustment is unconditional (every signed
                    // right activation shifts the match counts of the
                    // tokens it joins with).
                    let recount = |Candidate { item, entry }: Candidate<Token>| {
                        let count = &entry.count;
                        let was_blocked = count.get() >= 1;
                        count.set(count.get() + sign.delta());
                        if was_blocked != (count.get() >= 1) {
                            // Becoming blocked retracts; unblocking
                            // asserts.
                            emitted.push((item.clone(), sign.invert()));
                        }
                    };
                    let left = &slot.as_deref().expect("a negative node's slot").left;
                    let candidates = left.candidates(keyed, key);
                    kernel::scan_tokens(&spec.tests, candidates, wme, resolve, recount)
                }
                (NodeKind::Negative, Payload::Left(token)) => {
                    let key = kernel::left_key(&spec.key, &token, resolve);
                    let left = &mut slot.as_deref_mut().expect("a negative node's slot").left;
                    match (left.arrive(&token, sign, key), sign) {
                        // A debt was cancelled, or a deletion raced
                        // ahead and left one; net nothing happened.
                        (None, _) => Work::default(),
                        (Some(count), Sign::Minus) => {
                            if count <= 0 {
                                emitted.push((token, Sign::Minus));
                            }
                            Work::default()
                        }
                        (Some(_), Sign::Plus) => {
                            // Fresh net insert: count current matches.
                            let mut count = 0i32;
                            let tally = |_| count += 1;
                            let candidates = self.right_wmes(spec, at, key, hide);
                            let work =
                                kernel::scan_wmes(&spec.tests, &token, candidates, resolve, tally);
                            let entry = left.entry(&token, key).expect("just arrived");
                            entry.count.set(count);
                            if count <= 0 {
                                emitted.push((token, Sign::Plus));
                            }
                            work
                        }
                    }
                }
                (NodeKind::Terminal, Payload::Left(token)) => {
                    let inst = Instantiation::new(
                        self.topo.terminal_production[at].expect("terminal has production"),
                        token.into_wmes(),
                    );
                    local.delta.apply(inst, sign.is_plus());
                    Work::default()
                }
                (node_kind, _) => unreachable!("{kind:?} activation of a {node_kind:?} node"),
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
        drop(slot);
        local.recycle(items);
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

    /// Queues one task per child in `children` that receives tokens on
    /// the executing worker's own deque, each carrying the whole
    /// emission batch in per-item order (a token clone copies three
    /// words; the last child takes the tokens themselves). A join under a
    /// beta memory whose alpha memory is empty receives none: it would
    /// scan nothing and file nothing, and its memory is filed by the
    /// caller.
    fn spawn<R: Reach>(
        &self,
        children: &[NodeId],
        emitted: &mut Vec<(Token, Sign)>,
        local: &mut WorkerLocal,
        reach: &mut R,
    ) {
        let receives = |child: &&NodeId| {
            let spec = self.network.node(**child);
            let alpha = || &self.alpha[spec.alpha.expect("a join has alpha").index()];
            self.topo.left_memory[child.index()].is_none() || !alpha().entries().is_empty()
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

    /// The WMEs a left activation of node `at` with index key `key`
    /// scans: the chain of its key in its alpha memory (all of it for a
    /// node without one), less — when `hide` — the WMEs this phase
    /// changes.
    fn right_wmes(
        &self,
        spec: &NodeSpec,
        at: usize,
        key: Option<u32>,
        hide: bool,
    ) -> impl Iterator<Item = WmeId> + '_ {
        let alpha = &self.alpha[spec.alpha.expect("two-input node has alpha").index()];
        let probe = self.probes[at].right.map(|slot| (slot, key));
        let (stamps, phase) = (self.stamps, self.seq);
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

    /// Processes a whole firing's batch: retractions in parallel, a
    /// barrier, then assertions in parallel (DESIGN.md §6).
    fn process(&mut self, wm: &WorkingMemory, changes: &[Change]) -> MatchDelta {
        if let Some(s) = &self.sanitizer {
            s.check_batch(wm, changes);
        }
        self.stats.batches += 1;
        self.stats.changes += changes.len() as u64;
        self.seed(wm, changes);
        self.timing = self.timing_enabled || self.obs.as_ref().is_some_and(|m| m.obs.detail());
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
    use rete::ReteMatcher;

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
                // The poisoned node lock must stay usable.
                let _ = m.resident_tokens();
                assert!(m.poison_recoveries() > 0);
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
        // woken for microseconds of work. A phase under the wake
        // threshold is never shown to the helpers, so the caller
        // executes every task of the vt stream.
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
        let workers = m.worker_stats();
        assert!(workers[0].tasks > 0);
        assert_eq!(workers[0].tasks, m.stats().tasks, "the caller ran it all");
        let w = workers[0];
        assert_eq!(
            w.steals + w.steal_attempts + w.idle_spins,
            0,
            "no peer probed"
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
        // A backlog large enough to wake the helper; half the seed
        // tasks are dealt to its deque. Into an empty matcher only
        // first-CE nodes have a left memory to scan, so two classes
        // that each head a rule make two seed tasks (`a b c` made one,
        // and worker 0 would wait on it for a helper that never draws).
        let bulk = add_batch(&mut wm, &mut syms, &["a", "goal"], 3 * WAKE_BACKLOG);
        let _ = m.process(&wm, &bulk);
        assert_eq!(m.take_faults(), 1);
        let s = m.pool_stats();
        assert_eq!(s.respawns, 1, "the dead helper was replaced");
        assert_eq!(s.spawned, 2, "1 initial + 1 respawn");
        assert_eq!(s.live, 1, "no thread leak");
        // The replacement answers to index 1 and the pool keeps going.
        let more = add_batch(&mut wm, &mut syms, &["a", "goal"], 3 * WAKE_BACKLOG);
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
        // holds the token the doomed phase retracts.
        let src = "(p r (a ^x 1) --> (remove 1)) (p s (a ^x <v>) (a ^x <v>) --> (remove 1))";
        let (program, mut m) = parallel(src, 2);
        let mut seq = ReteMatcher::compile(&program).unwrap();
        let mut wm = WorkingMemory::new();
        let mut syms = program.symbols.clone();
        let (id, _) = wm.add(parse_wme("(a ^x 1)", &mut syms).unwrap());
        let _ = m.add_wme(&wm, id);
        let _ = seq.add_wme(&wm, id);
        let terminal = (0..m.network.nodes.len() as u32)
            .map(NodeId)
            .find(|&n| m.network.node(n).kind == NodeKind::Terminal)
            .unwrap();
        // The doomed phase also carries a real retraction, so it leaves
        // a removal in its worker's scratch delta when it unwinds; and
        // the batch an assertion, filed only if the add phase runs.
        let (doomed, _) = wm.add(parse_wme("(a ^x 1)", &mut syms).unwrap());
        m.seed(&wm, &[Change::Remove(id), Change::Add(doomed)]);
        let _ = seq.remove_wme(&wm, id);
        let local = &mut WorkerLocal::default();
        m.removes
            .push(terminal, Payload::Right(id), Sign::Minus, local);
        m.adds.push(terminal, Payload::Right(id), Sign::Plus, local);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run_phase(&wm, Sign::Minus);
        }));
        assert!(unwound.is_err());
        assert_eq!(m.take_faults(), 0, "not an injected fault");
        // The retraction was applied on the way out, to the alpha and
        // the beta memories, the assertion dropped with its phase.
        wm.remove(id);
        wm.remove(doomed);
        audit_alpha(&m, &wm, &[]);
        audit_beta(&m, &seq);
        assert!(m.locals.iter_mut().all(|l| unlocked(l).filings.is_empty()));
        // The add phase that never ran is dropped, not replayed into
        // the next batch.
        let tasks = m.stats().tasks;
        assert!(m.process(&wm, &[]).is_empty());
        assert_eq!(m.stats().tasks, tasks);
        audit_alpha(&m, &wm, &[]);
        audit_beta(&m, &seq);
        // Nor does the unwound phase's half-built delta leak into the
        // next non-empty one.
        let (next, _) = wm.add(parse_wme("(a ^x 1)", &mut syms).unwrap());
        let (mut d, mut d_seq) = (m.add_wme(&wm, next), seq.add_wme(&wm, next));
        d.canonicalize();
        d_seq.canonicalize();
        assert_eq!(d, d_seq, "stale removal merged");
        audit_alpha(&m, &wm, &[next]);
        audit_beta(&m, &seq);
        assert_eq!(m.resident_tokens(), 1, "[next] in the self-join's memory");

        // And from the add phase: a doomed terminal task beside a real
        // assertion, whose token is filed on the way out.
        let (more, _) = wm.add(parse_wme("(a ^x 1)", &mut syms).unwrap());
        m.seed(&wm, &[Change::Add(more)]);
        let _ = seq.add_wme(&wm, more);
        m.adds
            .push(terminal, Payload::Right(more), Sign::Plus, local);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run_phase(&wm, Sign::Minus);
            m.run_phase(&wm, Sign::Plus);
        }));
        assert!(unwound.is_err());
        audit_alpha(&m, &wm, &[next, more]);
        audit_beta(&m, &seq);
        assert!(m.locals.iter_mut().all(|l| unlocked(l).filings.is_empty()));
    }

    /// Holds every alpha memory of `m` to what it should hold when `live`
    /// are the WMEs of `wm` asserted and not retracted: sound chains
    /// ([`Memory::audit`]), and as entries exactly the live WMEs its
    /// alpha node passes.
    fn audit_alpha(m: &ParallelReteMatcher, wm: &WorkingMemory, live: &[WmeId]) {
        let mut want = vec![Vec::new(); m.alpha.len()];
        let mut passed = Vec::new();
        for &id in live {
            let wme = wm.get(id).expect("a live WME");
            m.network.alpha.matching_into(wme, &mut passed);
            for alpha in &passed {
                want[alpha.index()].push(id);
            }
        }
        for (i, (memory, mut want)) in m.alpha.iter().zip(want).enumerate() {
            assert!(memory.audit().is_ok(), "alpha memory {i}");
            let mut held = memory.entries().to_vec();
            held.sort_unstable();
            want.sort_unstable();
            assert_eq!(held, want, "alpha memory {i}");
        }
    }

    /// Holds every beta memory of `m` to the sequential matcher's memory
    /// of the same node, which has seen the same batches: sound chains
    /// ([`Memory::audit`]) and the same multiset of tokens.
    fn audit_beta(m: &ParallelReteMatcher, seq: &ReteMatcher) {
        let sorted = |memory: &Memory<Token>| {
            let mut held: Vec<Vec<WmeId>> =
                memory.entries().iter().map(|t| t.wmes().to_vec()).collect();
            held.sort_unstable();
            held
        };
        assert_eq!(m.beta.len(), m.topo.memories.len());
        for (memory, &node) in m.beta.iter().zip(&m.topo.memories) {
            assert!(memory.audit().is_ok(), "beta memory {node:?}");
            let want = seq.beta_memory(node).expect("a beta-memory node");
            assert_eq!(sorted(memory), sorted(want), "beta memory {node:?}");
        }
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

    const EQ_PROGRAM: &str = r#"
        (p pair (a ^x <v>) (b ^x <v>) --> (remove 1))
        (p triple (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (remove 1))
        (p guarded (goal ^x <v>) - (veto ^x <v>) --> (remove 1))
        (p neg-mid (a ^x <v>) - (veto ^x <v>) (c ^x <v>) --> (remove 1))
        (p self (a ^x <v>) (a ^x <v>) --> (remove 1))
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
        let mut wm = WorkingMemory::new();
        let mut syms = program.symbols.clone();
        let mut ids = Vec::new();
        for class in ["a", "b", "c", "goal", "veto"] {
            for x in 0..3 {
                let (id, _) = wm.add(parse_wme(&format!("({class} ^x {x})"), &mut syms).unwrap());
                m.add_wme(&wm, id);
                ids.push(id);
                if ids.len() == 1 {
                    // The first `a` is one token in the memory below the
                    // `a` join — counted once, though the `b` and self
                    // joins read it and made no copy — plus the copies
                    // the negative node below it and the join below that
                    // keep of their own.
                    assert_eq!(m.resident_tokens(), 3);
                }
            }
        }
        assert!(m.resident_tokens() > 0, "state built up");
        for id in ids {
            m.remove_wme(&wm, id);
            wm.remove(id);
        }
        assert_eq!(m.resident_tokens(), 0, "all token state purged");
        // Nor is a debt or a drained bucket left anywhere: only the top
        // tokens the matcher was built with.
        for slot in &m.states {
            let left = &lock(slot).left;
            assert!(left.buckets.is_empty());
            assert!(left.by_item.keys().all(Token::is_empty));
        }
        // Nor a WME or a token, or the head of a chain.
        for memory in &m.alpha {
            assert!(memory.entries().is_empty());
            assert_eq!(memory.chains(), 0);
        }
        assert_eq!(m.beta.len(), 2, "below the `a` join and the `a`-`b` join");
        for memory in &m.beta {
            assert!(memory.entries().is_empty());
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

    /// [`Matcher::process`], with each phase's seed tasks dealt in the
    /// reverse of their first-seen order — on one thread, the order the
    /// caller's LIFO deque runs them in is reversed too.
    fn process_reversed(
        m: &mut ParallelReteMatcher,
        wm: &WorkingMemory,
        batch: &[Change],
    ) -> MatchDelta {
        m.seed(wm, batch);
        for seeds in [&mut m.removes, &mut m.adds] {
            seeds.tasks.reverse();
            for (at, task) in seeds.tasks.iter().enumerate() {
                seeds.pos[task.node.index()] = at as u32;
            }
        }
        let mut delta = m.run_phase(wm, Sign::Minus);
        delta.merge(m.run_phase(wm, Sign::Plus));
        delta
    }

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

    /// The visibility rule on one thread, with every node's seeds run
    /// before and after the tokens that carry their WME (first-seen and
    /// reversed seed order), through adds, removes, a negation that
    /// blocks and unblocks mid-LHS, a batch that retracts and asserts
    /// at once, and back to empty — each batch's delta the sequential
    /// matcher's, each alpha memory sound.
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
                let mut got = if reversed == 1 {
                    process_reversed(m, &wm, batch)
                } else {
                    m.process(&wm, batch)
                };
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
            engines.iter().for_each(|m| audit_alpha(m, &wm, &live));
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
        // Seven payloads per three WMEs: enough of them to wake.
        let bulk = if cfg!(miri) { 480 } else { 1200 };
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
            for memory in &m.alpha {
                assert!(memory.entries().is_empty() && memory.chains() == 0);
            }
        }
    }

    /// Batches that assert a WME and retract it again, or retract a live
    /// one and assert it again, against the sequential matcher at 1, 2
    /// and 8 threads: such a WME seeds nothing and stays filed as it
    /// was, and every alpha memory holds the live WMEs it passes.
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
                let mut got = par.process(&wm, &batch);
                want.canonicalize();
                got.canonicalize();
                assert_eq!(got, want, "threads {threads}, step {step}");
                for id in gone {
                    wm.remove(id);
                }
                audit_alpha(&par, &wm, &live);
            }
            assert!(netted.iter().all(|&n| n > 5), "{netted:?}");
        }
    }

    /// Joins that read beta memories under the delta rule. `self` joins
    /// one alpha memory with itself. `chain` has three positive CEs and a
    /// negation between the first two: its last join reads the memory
    /// below a join whose left input is the negative node. `guard` has a
    /// join whose memory only a negative node reads, which the engine
    /// does not keep. All three share the first join and its memory.
    const DELTA_RULE: &str = r#"
        (p self (a ^x <v>) (a ^x <v>) --> (halt))
        (p chain (a ^x <v>) - (n ^x <v>) (b ^x <v>) (c ^x <v>) --> (halt))
        (p guard (a ^x <v>) (b ^x <v>) - (n ^x <v>) --> (halt))
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
    /// of the chain's last join — while the negation blocks and unblocks
    /// above them, and at the end everything retracted at once. Each
    /// batch's delta is the sequential matcher's and each beta memory
    /// holds what the sequential matcher's memory of its node holds.
    #[test]
    fn shared_beta_delta_rule_meets_every_pair_once_in_either_seed_order() {
        let program = parse_program(DELTA_RULE).unwrap();
        let mut syms = program.symbols.clone();
        let mut wm = WorkingMemory::new();
        let mut seq = ReteMatcher::compile(&program).unwrap();
        let mut engines = [parallel(DELTA_RULE, 1).1, parallel(DELTA_RULE, 1).1];
        assert_eq!(
            engines[0].beta.len(),
            2,
            "below the `a` join and the `b` join"
        );
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
                let mut got = if reversed == 1 {
                    process_reversed(m, &wm, &batch)
                } else {
                    m.process(&wm, &batch)
                };
                got.canonicalize();
                assert_eq!(got, want, "step {step}, reversed seeds: {}", reversed == 1);
                audit_beta(m, &seq);
            }
            commit(&mut wm, &batch);
        }
        assert!(both.iter().all(|&n| n > steps / 10), "{both:?}");
        assert_eq!(seq.resident_tokens(), 0);
        assert!(engines.iter().all(|m| m.resident_tokens() == 0));
    }

    /// After every batch, at 1, 2 and 8 threads, each beta memory of the
    /// engine holds the multiset of tokens the sequential matcher's
    /// memory of the same node holds, and its chains are sound: random
    /// small batches, which the caller drains alone, then a bulk batch
    /// that wakes the helpers, and all of it retracted again.
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
                audit_beta(&par, &seq);
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

    /// A side against a map from item to signed presence, on a node
    /// with an index key and on one without: pluses, minuses, minuses
    /// that overtake their plus, duplicates, items that share a key and
    /// items that have none.
    /// The large form rides in values a bucket's own layout leaves
    /// unused: it widens no map slot of the common, small bucket.
    #[test]
    fn a_large_bucket_costs_small_ones_nothing() {
        use std::mem::size_of;
        assert_eq!(
            size_of::<Filing<Token>>(),
            size_of::<Bucket<Filed<Token>>>()
        );
        assert_eq!(size_of::<Filed<Token>>(), 32);
    }

    #[test]
    fn side_follows_a_model_of_signed_presences() {
        const ITEMS: u32 = 96;
        const KEYS: u32 = 4;
        for keyed in [false, true] {
            // Two thirds of the items share key 0, more than a bucket
            // holds in a row; the other keys stay small.
            let key_of = |item: u32| {
                let key = if item < 64 { 0 } else { 1 + item % (KEYS - 1) };
                (keyed && !item.is_multiple_of(7)).then_some(key)
            };
            let mut rng = Rng64::new(0x51DE + u64::from(keyed));
            let mut side: Side<u32> = Side::default();
            let mut model: FxHashMap<u32, i32> = FxHashMap::default();
            let mut reached = [false; 5];
            for step in 0..if cfg!(miri) { 300 } else { 20_000 } {
                let item = rng.gen_range(0..ITEMS);
                let before = model.get(&item).copied().unwrap_or(0);
                // Presences wander over −2 ..= 2.
                let sign = match (before, rng.gen_bool(0.5)) {
                    (2, _) | (-1..=1, false) => Sign::Minus,
                    _ => Sign::Plus,
                };
                let after = before + sign.delta();
                reached[(after + 2) as usize] = true;
                let at = format!("keyed {keyed}, step {step}, item {item}: {before} to {after}");
                let crossed = side.arrive(&item, sign, key_of(item));
                // An entry's count is set once it is present and read
                // back as it leaves.
                let count = match (before, after) {
                    (0, 1) => Some(0),
                    (1, 0) => Some(item as i32 + 1),
                    _ => None,
                };
                assert_eq!(crossed, count, "{at}");
                if count == Some(0) {
                    let entry = side.entry(&item, key_of(item)).expect("present");
                    entry.count.set(item as i32 + 1);
                }
                match after {
                    0 => drop(model.remove(&item)),
                    _ => drop(model.insert(item, after)),
                }
                for item in 0..ITEMS {
                    let entry = side.entry(&item, key_of(item));
                    assert_eq!(entry.map(|e| e.presence), model.get(&item).copied(), "{at}");
                }
                assert_eq!(side.entries().count(), model.len(), "{at}: held once");
                let present = |key: Option<u32>| {
                    let of_key = |(&item, &presence): (&u32, &i32)| {
                        (presence > 0 && (!keyed || key_of(item) == key)).then_some(item)
                    };
                    let mut want: Vec<u32> = model.iter().filter_map(of_key).collect();
                    want.sort_unstable();
                    want
                };
                let candidates = |key: Option<u32>| {
                    let mut got: Vec<u32> = side.candidates(keyed, key).map(|c| *c.item).collect();
                    got.sort_unstable();
                    got
                };
                if keyed {
                    assert!(candidates(None).is_empty(), "{at}: unkeyable, unreachable");
                    for key in (0..KEYS).map(Some) {
                        assert_eq!(candidates(key), present(key), "{at}: {key:?}");
                    }
                } else {
                    assert_eq!(candidates(None), present(None), "{at}");
                }
            }
            assert_eq!(reached, [true; 5], "every presence of −2 ..= 2");
            if keyed {
                assert!(matches!(side.buckets[&0], Filing::Many(_)));
                assert!(matches!(side.buckets[&1], Filing::Few(_)));
            }
            for (item, presence) in model {
                let settle = if presence > 0 {
                    Sign::Minus
                } else {
                    Sign::Plus
                };
                for _ in 0..presence.abs() {
                    side.arrive(&item, settle, key_of(item));
                }
            }
            assert!(side.by_item.is_empty(), "keyed {keyed}: no entry");
            assert!(side.buckets.is_empty(), "keyed {keyed}: no bucket");
        }
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
        assert!(s.tasks >= 2);
        assert!(s.constant_tests > 0);
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
        // Phase 4 is the add phase of the second batch. Its first task
        // (the b-join) runs and stages its activation; the panic strikes
        // as the worker draws the terminal task it spawned.
        m.set_fault_injector(Some(Arc::new(OneShot {
            phase: 4,
            seq: 1,
            action: FaultAction::PanicWorker,
        })));
        let (b, _) = wm.add(parse_wme("(b ^x 1)", &mut syms).unwrap());
        let _ = m.process(&wm, &[Change::Add(b)]);
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
