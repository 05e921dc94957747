//! The sequential Rete runtime: memories, node activations, and the
//! [`ops5::Matcher`] implementation.
//!
//! Activations are processed from an explicit FIFO task queue rather
//! than by recursion. This makes the unit of work — one node activation —
//! explicit and identical to what the paper's parallel implementation
//! schedules onto processors, and it gives the trace builder natural
//! parent/child dependency edges.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use ops5::{Change, Error, Instantiation, MatchDelta, Matcher, Program, Wme, WmeId, WorkingMemory};
use psm_obs::{NodeDelta, Obs, ProfileKind};

use crate::alpha::AlphaId;
use crate::kernel::{self, ActivationKind, FlightStage, Sign, Work};
use crate::memory::{alpha_memories, beta_memories, negative_memories, Memory, NegEntry};
use crate::network::{CompileOptions, Network, NodeId, NodeKind, NodeSpec};
use crate::profile::MatchProfile;
use crate::snapshot::Marks;
use crate::stats::MatchStats;
use crate::token::Token;
use crate::trace::{Trace, TraceBuilder};

/// How alpha and beta memories are organized.
///
/// The 1986 OPS5 interpreters used linear lists; Gupta's parallel design
/// hashed memories so concurrent activations rarely touch the same
/// bucket. Under `Hashed` — the production default — every memory an
/// equality join probes gets a key slot for it (DESIGN.md §17), so an
/// activation of a node with equality join tests walks one chain
/// instead of the whole memory. `Linear` builds the same memories with
/// no slots: the memory-organization ablation of DESIGN.md §6 (what the
/// paper-era captured traces model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryStrategy {
    /// Linear lists (paper-era ablation baseline).
    Linear,
    /// `(attribute, value)`-indexed alpha and beta memories (default).
    #[default]
    Hashed,
}

/// Mutable state of one beta node.
#[derive(Debug, Clone)]
pub(crate) enum NodeState {
    /// Beta memory: resident tokens, with one key slot per distinct
    /// list of key parts a downstream equality join probes by.
    Mem(Memory<Token>),
    /// Negative node: tokens with their right-match counts, with one key
    /// slot for the node's own index key.
    Neg(Memory<NegEntry>),
    /// Join and terminal nodes carry no state.
    Stateless,
}

/// How a two-input node with an index key reaches the one chain an
/// activation can match in each input's memory, resolved once in
/// [`ReteMatcher::with_memory`].
#[derive(Debug, Clone, Copy)]
struct Probe {
    /// The alpha memory's slot a left activation probes.
    right: usize,
    /// The token memory's slot a right activation probes — the parent
    /// beta memory's or negative node's for a join, its own for a
    /// negative node; `None` when the parent has no slot of the join's
    /// key parts, and the join scans it whole.
    left: Option<usize>,
}

/// A pending node activation.
#[derive(Debug)]
struct Task {
    node: NodeId,
    payload: Payload,
    sign: Sign,
    /// Trace id of the spawning activation.
    parent: Option<u32>,
}

#[derive(Debug)]
enum Payload {
    /// Right activation: a WME arriving from an alpha memory.
    Right(WmeId),
    /// Left activation: a token arriving from upstream.
    Left(Token),
}

/// Reusable per-change scratch buffers. Taken out of the matcher at the
/// start of each change and put back (drained, capacity kept) at the
/// end, so steady-state change processing allocates nothing for queue,
/// alpha-match or output bookkeeping.
#[derive(Debug, Default)]
struct Scratch {
    queue: VecDeque<Task>,
    deferred: Vec<Task>,
    alphas: Vec<AlphaId>,
    /// What one two-input activation sends downstream; empty between
    /// activations.
    out: Vec<Token>,
    /// The positions a negative node's right activation hits, whose
    /// counts move after its scan; empty between activations.
    hits: Vec<usize>,
}

/// The sequential Rete matcher.
///
/// This is the paper's "best known uniprocessor implementation" against
/// which *true speed-up* is defined (Section 6, footnote 2), and the
/// state and the one-thread loop of `psm_core`'s node-parallel engine:
/// the engine runs a batch too small to wake a helper through
/// [`Matcher::process`], and a bulk batch in phases that read
/// [`ReteMatcher::memories`] and file between phases.
#[derive(Debug)]
pub struct ReteMatcher {
    network: Arc<Network>,
    /// The dummy top token, the one left-input "memory entry" of every
    /// first-CE join.
    top: Token,
    pub(crate) alpha_mems: Vec<Memory<WmeId>>,
    pub(crate) memory: MemoryStrategy,
    /// Per node; `None` for a node without an index key, and for every
    /// node under [`MemoryStrategy::Linear`].
    probes: Vec<Option<Probe>>,
    pub(crate) states: Vec<NodeState>,
    pub(crate) stats: MatchStats,
    tracer: Option<TraceBuilder>,
    /// Per-node / per-kind activation timing; `None` (free) unless
    /// [`ReteMatcher::enable_profiling`] was called.
    profile: Option<Box<MatchProfile>>,
    /// Flight-recorder sink; see [`ReteMatcher::attach_obs`].
    obs: Option<Arc<Obs>>,
    /// Provenance staged for `obs.flight` and published at the end of
    /// each [`Matcher`] call; stages nothing unless the attached `Obs`
    /// has flight capacity.
    flight: FlightStage,
    /// Matcher-local per-node profile accumulators, one per network
    /// node the attached profiler has a slot for, flushed into
    /// `obs.profile` at the end of each [`Matcher`] call. Empty unless
    /// the attached `Obs` has profile capacity, so `is_empty` doubles
    /// as the hot-path enabled check. Activations accumulate with
    /// plain adds here instead of paying one atomic RMW per counter per
    /// activation.
    prof_local: Vec<(ProfileKind, NodeDelta)>,
    /// Nodes with unflushed deltas (`tokens_in > 0`), so the flush
    /// walks only touched slots, not the whole network.
    prof_touched: Vec<u32>,
    /// Unflushed activations of nodes past the profiler's capacity:
    /// counted, not accumulated, and added to its `overflow` once per
    /// flush.
    prof_overflow: u64,
    /// Debug write-set sanitizer; see [`ReteMatcher::attach_sanitizer`].
    sanitizer: Option<Arc<ops5::effects::WriteSanitizer>>,
    /// Reusable per-change buffers; see [`Scratch`].
    scratch: Scratch,
    /// `stats.phantom_removes` already published to the attached obs
    /// counter, so each flush adds only the delta.
    phantom_published: u64,
    /// The memories changed since [`ReteMatcher::encode_changes`] last
    /// ran, and each section's encoded length.
    pub(crate) marks: Marks,
}

/// The memories of a [`ReteMatcher`] — one per alpha node, per beta
/// memory and per negative node — to read from several threads at once:
/// what the parallel engine's tasks read during a phase, while nothing
/// writes them.
#[derive(Debug, Clone, Copy)]
pub struct Memories<'a> {
    alpha: &'a [Memory<WmeId>],
    states: &'a [NodeState],
    probes: &'a [Option<Probe>],
}

impl<'a> Memories<'a> {
    /// Alpha memory `alpha`.
    pub fn alpha(self, alpha: AlphaId) -> &'a Memory<WmeId> {
        &self.alpha[alpha.index()]
    }

    /// The memory of `node`, a beta-memory node.
    pub fn beta(self, node: NodeId) -> &'a Memory<Token> {
        match &self.states[node.index()] {
            NodeState::Mem(memory) => memory,
            _ => unreachable!("beta memory state"),
        }
    }

    /// The memory of `node`, a negative node.
    pub fn negative(self, node: NodeId) -> &'a Memory<NegEntry> {
        match &self.states[node.index()] {
            NodeState::Neg(memory) => memory,
            _ => unreachable!("negative state"),
        }
    }

    /// The key slot of its alpha memory a left activation of `node`
    /// probes: `None` for a node without an index key, which scans the
    /// memory whole.
    pub fn alpha_slot(self, node: NodeId) -> Option<usize> {
        Some(self.probes[node.index()]?.right)
    }

    /// The key slot of its token memory a right activation of `node`
    /// probes — the parent's for a join, its own for a negative node:
    /// `None` for a node without an index key, and for a parent with no
    /// slot of the join's key parts, which it scans whole.
    pub fn token_slot(self, node: NodeId) -> Option<usize> {
        self.probes[node.index()]?.left
    }
}

impl ReteMatcher {
    /// Compiles `program` and builds a matcher (sharing on).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Semantic`] for LHS constructs the compiler
    /// rejects (predicate on a never-bound variable).
    pub fn compile(program: &Program) -> Result<Self, Error> {
        Ok(Self::from_network(Arc::new(Network::compile(program)?)))
    }

    /// Compiles with explicit options.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Semantic`] as for [`ReteMatcher::compile`].
    pub fn compile_with(program: &Program, options: CompileOptions) -> Result<Self, Error> {
        Ok(Self::from_network(Arc::new(Network::compile_with(
            program, options,
        )?)))
    }

    /// Compiles with hashed memories — the default; kept as an explicit
    /// spelling for ablation drivers (see [`MemoryStrategy`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Semantic`] as for [`ReteMatcher::compile`].
    pub fn compile_hashed(program: &Program) -> Result<Self, Error> {
        Self::compile(program)
    }

    /// Compiles with linear (unindexed) memories — the paper-era
    /// ablation baseline (see [`MemoryStrategy`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Semantic`] as for [`ReteMatcher::compile`].
    pub fn compile_linear(program: &Program) -> Result<Self, Error> {
        let network = Arc::new(Network::compile(program)?);
        Ok(Self::with_memory(network, MemoryStrategy::Linear))
    }

    /// Builds a matcher over an already-compiled network.
    pub fn from_network(network: Arc<Network>) -> Self {
        Self::with_memory(network, MemoryStrategy::default())
    }

    /// Builds a matcher whose memories are organized by `memory`: the
    /// strategy decides how many key slots each memory gets, and
    /// nothing after that looks at it.
    pub(crate) fn with_memory(network: Arc<Network>, memory: MemoryStrategy) -> Self {
        let keyed = |spec: &&NodeSpec| memory == MemoryStrategy::Hashed && !spec.key.is_empty();
        let alpha_mems = alpha_memories(&network, memory);
        let states: Vec<_> = {
            let mut betas = beta_memories(&network, memory).map(|(_, memory)| memory);
            let mut negatives = negative_memories(&network, memory).map(|(_, memory)| memory);
            let state = |spec: &NodeSpec| match spec.kind {
                NodeKind::BetaMemory => NodeState::Mem(betas.next().expect("in node order")),
                NodeKind::Negative => NodeState::Neg(negatives.next().expect("in node order")),
                NodeKind::Join | NodeKind::Terminal => NodeState::Stateless,
            };
            network.nodes.iter().map(state).collect()
        };
        let probe = |spec: &NodeSpec| Probe {
            right: alpha_mems[spec.alpha.expect("two-input node has alpha").index()]
                .probe_slot(spec)
                .expect("alpha memory has a slot per probing successor"),
            left: match (spec.kind, spec.left.map(|left| &states[left.index()])) {
                (NodeKind::Negative, _) => Some(0),
                (_, Some(NodeState::Mem(parent))) => parent.probe_slot(spec),
                (_, Some(NodeState::Neg(parent))) => parent.probe_slot(spec),
                _ => None,
            },
        };
        let probes = network
            .nodes
            .iter()
            .map(|spec| Some(spec).filter(keyed).map(probe))
            .collect();
        ReteMatcher {
            top: Token::top(),
            alpha_mems,
            memory,
            probes,
            states,
            network,
            stats: MatchStats::default(),
            tracer: None,
            profile: None,
            obs: None,
            flight: FlightStage::default(),
            prof_local: Vec::new(),
            prof_touched: Vec::new(),
            prof_overflow: 0,
            sanitizer: None,
            phantom_published: 0,
            scratch: Scratch::default(),
            marks: Marks::default(),
        }
    }

    /// Attaches a debug [`ops5::effects::WriteSanitizer`]: every change
    /// batch handed to [`Matcher::process`] during a firing is checked
    /// against the firing production's static write set. Share the same
    /// `Arc` with the interpreter's `attach_sanitizer` — the interpreter
    /// owns the firing context this check keys on; batches seen outside
    /// a firing are not checked.
    pub fn attach_sanitizer(&mut self, sanitizer: Arc<ops5::effects::WriteSanitizer>) {
        self.sanitizer = Some(sanitizer);
    }

    /// Attaches an observability handle. When its flight recorder has
    /// capacity, the matcher records the network end of the causal
    /// chain — node activations and token births/deaths — so
    /// [`psm_obs::FlightRecorder::explain_firing`] can trace a firing
    /// back through the network. The records are staged matcher-locally
    /// and published once per [`Matcher`] call, so a reader lags by at
    /// most one batch. Costs one branch per activation when the
    /// recorder is off.
    pub fn attach_obs(&mut self, obs: Arc<Obs>) {
        self.flight.attach(&obs.flight);
        let slots = self.network.nodes.len().min(obs.profile.capacity());
        self.prof_local = vec![(ProfileKind::Other, NodeDelta::default()); slots];
        self.prof_touched.clear();
        self.prof_overflow = 0;
        self.obs = Some(obs);
    }

    /// The one sink every beta-node activation reports through: folds it
    /// into [`MatchStats`], the matcher-local profile deltas and the
    /// trace, and returns its trace id (the parent of whatever it
    /// spawned).
    ///
    /// The profile deltas are a no-op (one branch on an empty vec)
    /// unless the attached `Obs` handle was built with profile
    /// capacity, and plain non-atomic adds otherwise;
    /// [`flush_profile`](Self::flush_profile) pays the atomics once per
    /// touched node per batch.
    #[inline]
    fn observe(
        &mut self,
        kind: ActivationKind,
        node: NodeId,
        parent: Option<u32>,
        work: Work,
        outputs: u32,
    ) -> Option<u32> {
        let stats = &mut self.stats;
        stats.join_tests += work.tests as u64;
        stats.pairs_scanned += work.scanned as u64;
        match kind {
            ActivationKind::JoinRight | ActivationKind::NegativeRight => {
                stats.right_activations += 1
            }
            ActivationKind::JoinLeft | ActivationKind::NegativeLeft => stats.left_activations += 1,
            ActivationKind::BetaMem => stats.beta_mem_ops += 1,
            ActivationKind::Terminal => stats.conflict_changes += 1,
            ActivationKind::ConstantTest | ActivationKind::AlphaMem => {
                unreachable!("alpha-side activations are recorded while seeding")
            }
        }
        if matches!(kind, ActivationKind::JoinRight | ActivationKind::JoinLeft) {
            stats.tokens_created += outputs as u64;
        }
        if let Some(entry) = self.prof_local.get_mut(node.index()) {
            let (pk, right) = kind.profile_kind();
            if entry.1.tokens_in == 0 {
                self.prof_touched.push(node.0);
            }
            entry.0 = pk;
            entry.1.record(right, work.scanned as u64, outputs as u64);
        } else if !self.prof_local.is_empty() {
            self.prof_overflow += 1;
        }
        self.trace_record(parent, kind, node.0, work.tests, work.scanned, outputs)
    }

    /// Hands what this [`Matcher`] call staged to the attached `Obs` —
    /// flight records, profile deltas, counters — so concurrent
    /// `/explain` and `/profile` readers lag by at most one batch.
    fn flush_obs(&mut self) {
        if let Some(obs) = &self.obs {
            self.flight.publish(&obs.flight);
        }
        self.flush_profile();
        self.flush_metrics();
    }

    /// Flushes the matcher-local profile deltas into the attached
    /// [`NodeProfiler`](psm_obs::NodeProfiler).
    fn flush_profile(&mut self) {
        let Some(obs) = &self.obs else { return };
        for &node in &self.prof_touched {
            let entry = &mut self.prof_local[node as usize];
            // This matcher is the profiler's only writer (the parallel
            // engine has its own per-worker flush into a separate Obs
            // attachment path), so the cheap non-RMW fold is safe.
            obs.profile.add_single_writer(node, entry.0, &entry.1);
            entry.1 = NodeDelta::default();
        }
        self.prof_touched.clear();
        obs.profile
            .add_overflow(std::mem::take(&mut self.prof_overflow));
    }

    /// Publishes the `rete.token.phantom_removes` counter delta to the
    /// attached obs registry — once per [`Matcher`] call, and only when
    /// the count moved (healthy runs never pay the registry lock).
    fn flush_metrics(&mut self) {
        if self.stats.phantom_removes == self.phantom_published {
            return;
        }
        let delta = self.stats.phantom_removes - self.phantom_published;
        self.phantom_published = self.stats.phantom_removes;
        if let Some(obs) = &self.obs {
            obs.metrics.counter("rete.token.phantom_removes").add(delta);
        }
    }

    /// The compiled network.
    pub fn network(&self) -> &Arc<Network> {
        &self.network
    }

    /// Work counters so far.
    pub fn stats(&self) -> MatchStats {
        self.stats
    }

    /// Starts recording a node-activation trace (discarding any previous
    /// recording).
    pub fn enable_tracing(&mut self) {
        self.tracer = Some(TraceBuilder::new());
    }

    /// Starts per-kind activation-time profiling (discarding any
    /// previous profile). Adds two clock reads per activation; leave
    /// off for pure throughput runs.
    pub fn enable_profiling(&mut self) {
        self.profile = Some(Box::default());
    }

    /// The activation-time profile recorded so far (if profiling is
    /// enabled).
    pub fn profile(&self) -> Option<&MatchProfile> {
        self.profile.as_deref()
    }

    /// Stops tracing and returns the recorded trace (empty if tracing was
    /// never enabled).
    pub fn take_trace(&mut self) -> Trace {
        self.tracer
            .take()
            .map(TraceBuilder::finish)
            .unwrap_or_default()
    }

    /// Total WME entries resident across all alpha memories.
    pub fn resident_alpha_entries(&self) -> usize {
        self.alpha_mems.iter().map(|m| m.entries.len()).sum()
    }

    /// One count per memory — alpha, beta, negative — summed.
    fn sum_memories(
        &self,
        alpha: impl Fn(&Memory<WmeId>) -> usize,
        beta: impl Fn(&Memory<Token>) -> usize,
        negative: impl Fn(&Memory<NegEntry>) -> usize,
    ) -> usize {
        let nodes = self.states.iter().map(|s| match s {
            NodeState::Mem(memory) => beta(memory),
            NodeState::Neg(memory) => negative(memory),
            NodeState::Stateless => 0,
        });
        self.alpha_mems.iter().map(alpha).sum::<usize>() + nodes.sum::<usize>()
    }

    /// Total entries filed on key chains, once per slot they are filed
    /// under (alpha `(attr, value)` chains, beta `(pos, attr, value)`
    /// chains and the negative nodes' own key-value chains).
    ///
    /// Under [`MemoryStrategy::Hashed`] this must track residency: after
    /// a full assert/retract churn cycle it returns to its baseline. A
    /// value that keeps growing while `resident_tokens` and
    /// `resident_alpha_entries` are flat is a stale-index leak.
    pub fn resident_index_entries(&self) -> usize {
        self.sum_memories(Memory::filed, Memory::filed, Memory::filed)
    }

    /// Number of key chains currently resident (alpha + beta, negative
    /// nodes included).
    ///
    /// A chain that drains is dropped on removal, so this also returns
    /// to its baseline after a churn cycle instead of growing with the
    /// number of distinct values ever seen.
    pub fn resident_index_buckets(&self) -> usize {
        self.sum_memories(Memory::chains, Memory::chains, Memory::chains)
    }

    /// How many memories — alpha, beta, negative: each one section of a
    /// [`ReteMatcher::snapshot`] image — the matcher has, and how many of
    /// them hold an entry.
    pub fn memory_sections(&self) -> (usize, usize) {
        fn holds<T>(memory: &Memory<T>) -> usize {
            usize::from(!memory.entries.is_empty())
        }
        let all = self.sum_memories(|_| 1, |_| 1, |_| 1);
        (all, self.sum_memories(holds, holds, holds))
    }

    /// Total tokens resident across beta memories and negative nodes.
    pub fn resident_tokens(&self) -> usize {
        self.sum_memories(|_| 0, |m| m.entries.len(), |m| m.entries.len())
    }

    fn trace_record(
        &mut self,
        parent: Option<u32>,
        kind: ActivationKind,
        node: u32,
        tests: u32,
        scanned: u32,
        outputs: u32,
    ) -> Option<u32> {
        self.tracer
            .as_mut()
            .map(|t| t.record(parent, kind, node, tests, scanned, outputs))
    }

    /// Processes one WME change, accumulating conflict-set changes.
    fn process_change(
        &mut self,
        wm: &WorkingMemory,
        id: WmeId,
        sign: Sign,
        delta: &mut MatchDelta,
    ) {
        let wme = wm
            .get(id)
            .expect("matcher contract: changed WME must be resolvable");
        self.stats.changes += 1;
        if sign.is_plus() {
            self.stats.inserts += 1;
        }
        if let Some(t) = self.tracer.as_mut() {
            t.begin_change(sign.is_plus());
        }

        let net = Arc::clone(&self.network);
        let mut scratch = std::mem::take(&mut self.scratch);
        let alphas = &mut scratch.alphas;
        let const_tests = net.alpha.matching_into(wme, alphas);
        self.stats.constant_tests += const_tests;
        let const_act = self.trace_record(
            None,
            ActivationKind::ConstantTest,
            0,
            const_tests as u32,
            0,
            alphas.len() as u32,
        );
        if self.tracer.is_some() {
            let affected = net.affected_productions(alphas);
            if let Some(t) = self.tracer.as_mut() {
                t.set_affected(affected);
            }
        }

        let seed_started = self.profile.is_some().then(Instant::now);
        let queue = &mut scratch.queue;
        debug_assert!(queue.is_empty() && scratch.deferred.is_empty());
        // Right activations of negative nodes are deferred behind all
        // other right activations of the same change. A negative node
        // mutates its match counts synchronously inside its task, but a
        // join whose left input is that negative node must see the
        // *pre-change* left state (beta memories get this for free: their
        // updates ride the queue behind every seed). Otherwise the
        // conjugate-pair accounting breaks: a WME removal that unblocks a
        // token would make the join emit a minus for a pair that was
        // blocked — hence never built — while the WME was live.
        let deferred = &mut scratch.deferred;
        for &alpha in alphas.iter() {
            self.file_wme(alpha, id, sign, wm);
            self.stats.alpha_mem_ops += 1;
            let successors = &net.alpha_successors[alpha.index()];
            let am_act = self.trace_record(
                const_act,
                ActivationKind::AlphaMem,
                alpha.0,
                0,
                0,
                successors.len() as u32,
            );
            for &succ in successors {
                let task = Task {
                    node: succ,
                    payload: Payload::Right(id),
                    sign,
                    parent: am_act,
                };
                if net.node(succ).kind == NodeKind::Negative {
                    deferred.push(task);
                } else if !self.left_input_is_empty(net.node(succ).left) {
                    // A right activation whose left input holds no
                    // tokens scans nothing and mutates nothing; seeds
                    // all run before any same-change memory update (the
                    // queue is FIFO and updates ride behind every
                    // seed), so the emptiness seen here is exactly what
                    // the activation would see. Skipping it only saves
                    // the dispatch.
                    queue.push_back(task);
                }
            }
        }
        queue.extend(deferred.drain(..));

        if let Some(t0) = seed_started {
            let ns = t0.elapsed().as_nanos() as u64;
            if let Some(p) = self.profile.as_mut() {
                p.record(ActivationKind::ConstantTest, ns);
            }
        }
        // Per-activation latency needs two clock reads, so the obs
        // profiler's histograms wait for the detail toggle on top of
        // profile capacity (its counters are recorded inside the
        // branches of `run_task`, always on with capacity).
        let obs_latency = self
            .obs
            .as_ref()
            .is_some_and(|o| o.profile.enabled() && o.detail());
        let timed = self.profile.is_some() || obs_latency;
        while let Some(task) = scratch.queue.pop_front() {
            let right_side = matches!(task.payload, Payload::Right(_));
            let kind = ActivationKind::of(net.node(task.node).kind, right_side);
            let wme = match task.payload {
                Payload::Right(id) => Some(id),
                Payload::Left(_) => None,
            };
            self.flight.activation(kind, task.node, wme);
            let node = task.node.0;
            let started = timed.then(Instant::now);
            self.run_task(&net, wm, task, kind, &mut scratch, delta);
            if let Some(t0) = started {
                let ns = t0.elapsed().as_nanos() as u64;
                if let Some(p) = self.profile.as_mut() {
                    p.record(kind, ns);
                }
                if obs_latency {
                    if let Some(obs) = &self.obs {
                        obs.profile.record_latency(node, ns);
                    }
                }
            }
        }
        self.scratch = scratch;
    }

    /// True when a two-input node's left input can produce no tokens: a
    /// beta memory with no resident tokens, or a negative node with no
    /// entries at all. The dummy top input always yields its one token.
    fn left_input_is_empty(&self, left: Option<NodeId>) -> bool {
        match left {
            None => false,
            Some(id) => match &self.states[id.index()] {
                NodeState::Mem(memory) => memory.entries.is_empty(),
                NodeState::Neg(memory) => memory.entries.is_empty(),
                NodeState::Stateless => false,
            },
        }
    }

    /// Executes one activation: the node's own memory update, or a
    /// two-input scan, then routing of whatever it produced.
    fn run_task(
        &mut self,
        net: &Network,
        wm: &WorkingMemory,
        task: Task,
        kind: ActivationKind,
        scratch: &mut Scratch,
        delta: &mut MatchDelta,
    ) {
        let spec = net.node(task.node);
        match (spec.kind, task.payload) {
            (NodeKind::BetaMemory, Payload::Left(token)) => {
                self.update_beta_memory(task.node, &token, task.sign, wm);
                let outputs = spec.children.len() as u32;
                let act = self.observe(kind, task.node, task.parent, Work::default(), outputs);
                self.enqueue_children(net, spec, token, task.sign, act, &mut scratch.queue);
            }
            (NodeKind::Terminal, Payload::Left(token)) => {
                self.observe(kind, task.node, task.parent, Work::default(), 1);
                let inst = Instantiation::new(
                    spec.production.expect("terminal has production"),
                    token.into_wmes(),
                );
                delta.apply(inst, task.sign.is_plus());
            }
            (NodeKind::Join | NodeKind::Negative, payload) => {
                let (work, sign) = self.two_input(spec, task.node, payload, task.sign, wm, scratch);
                let Scratch { queue, out, .. } = scratch;
                let act = self.observe(kind, task.node, task.parent, work, out.len() as u32);
                for token in out.drain(..) {
                    self.flight.token(task.node, &token, sign);
                    self.enqueue_children(net, spec, token, sign, act, queue);
                }
            }
            (kind, Payload::Right(_)) => unreachable!("right activation of a {kind:?} node"),
        }
    }

    /// Runs one join or negative activation as a kernel scan over this
    /// matcher's memories, pushing the tokens to send downstream onto
    /// `scratch.out` and returning the scan's work and their sign.
    fn two_input(
        &mut self,
        spec: &NodeSpec,
        node: NodeId,
        payload: Payload,
        sign: Sign,
        wm: &WorkingMemory,
        scratch: &mut Scratch,
    ) -> (Work, Sign) {
        let Scratch { out, hits, .. } = scratch;
        let resolve = |id| wm.get(id);
        match (spec.kind, payload) {
            (NodeKind::Join, Payload::Right(wme_id)) => {
                let wme = wm.get(wme_id).expect("live wme");
                let tests = &spec.tests;
                let extend = |token: &Token| out.push(token.extended(wme_id));
                // The left input: the dummy top token, or a beta memory
                // or a negative node's unblocked tokens — only the chain
                // `wme` can match, when the node has an index key.
                let probe = self.left_probe(spec, node, wme);
                let work = match spec.left.map(|left| &self.states[left.index()]) {
                    None => kernel::scan_tokens(tests, [&self.top], wme, resolve, extend),
                    Some(NodeState::Mem(memory)) => {
                        let candidates = memory.candidates(probe);
                        kernel::scan_tokens(tests, candidates, wme, resolve, extend)
                    }
                    Some(NodeState::Neg(memory)) => {
                        // Sent on in arrival order, as a scan of the
                        // whole memory would send them.
                        let unblocked = memory.walk(probe).filter(|(_, e)| e.count == 0);
                        let hit = |(at, _): (usize, &NegEntry)| hits.push(at);
                        let work = kernel::scan_tokens(tests, unblocked, wme, resolve, hit);
                        hits.sort_unstable();
                        let tokens = hits.drain(..).map(|at| &memory.entries()[at].token);
                        out.extend(tokens.map(|token| token.extended(wme_id)));
                        work
                    }
                    Some(NodeState::Stateless) => unreachable!("left input must hold tokens"),
                };
                (work, sign)
            }
            (NodeKind::Join, Payload::Left(token)) => {
                let candidates = self.right_wmes(spec, node, &token, wm);
                let extend = |wme_id| out.push(token.extended(wme_id));
                let work = kernel::scan_wmes(&spec.tests, &token, candidates, resolve, extend);
                (work, sign)
            }
            (NodeKind::Negative, Payload::Right(wme_id)) => {
                let wme = wm.get(wme_id).expect("live wme");
                let probe = self.left_probe(spec, node, wme);
                let memory = self.negative_memory(node).expect("negative state");
                let hit = |(at, _): (usize, &NegEntry)| hits.push(at);
                let work = kernel::scan_tokens(&spec.tests, memory.walk(probe), wme, resolve, hit);
                // The counts move once the scan is over.
                if !hits.is_empty() {
                    self.mark_node(node);
                }
                let memory = self.neg_memory(node);
                for at in hits.drain(..) {
                    let before = memory.recount(at, sign.delta());
                    if kernel::flip(before, sign.delta()).is_some() {
                        out.push(memory.entries()[at].token.clone());
                    }
                }
                // A new right match retracts instantiations; a removed
                // one re-asserts them: the propagated sign is inverted.
                (work, sign.invert())
            }
            (NodeKind::Negative, Payload::Left(token)) => {
                let (work, count) = match sign {
                    Sign::Plus => {
                        let mut count = 0u32;
                        let candidates = self.right_wmes(spec, node, &token, wm);
                        let tally = |_| count += 1;
                        let work =
                            kernel::scan_wmes(&spec.tests, &token, candidates, resolve, tally);
                        (work, count)
                    }
                    Sign::Minus => (Work::default(), 0),
                };
                if self.update_negative_memory(node, &token, count, sign, wm) == Some(0) {
                    out.push(token);
                }
                (work, sign)
            }
            (kind, _) => unreachable!("{kind:?} is not a two-input node"),
        }
    }

    fn neg_memory(&mut self, node: NodeId) -> &mut Memory<NegEntry> {
        match &mut self.states[node.index()] {
            NodeState::Neg(memory) => memory,
            _ => unreachable!("negative state"),
        }
    }

    /// Marks the memory of `node`, a beta-memory or negative node,
    /// changed since the last snapshot.
    #[inline]
    fn mark_node(&mut self, node: NodeId) {
        let section = self.alpha_mems.len() + node.index();
        match &mut self.states[node.index()] {
            NodeState::Mem(memory) => self.marks.mark(memory, section),
            NodeState::Neg(memory) => self.marks.mark(memory, section),
            NodeState::Stateless => unreachable!("a stateless node has no memory"),
        }
    }

    /// Inserts `token` into (or deletes it from) the beta memory `node`.
    #[inline]
    fn update_beta_memory(&mut self, node: NodeId, token: &Token, sign: Sign, wm: &WorkingMemory) {
        let NodeState::Mem(memory) = &mut self.states[node.index()] else {
            unreachable!("beta memory state")
        };
        match sign {
            Sign::Plus => {
                memory.insert_token(token.clone(), wm);
                self.stats.token_added();
            }
            // Counted (not just debug-asserted) so chaos and failover
            // suites can gate on zero.
            Sign::Minus if !memory.remove_token(token, wm) => {
                self.stats.phantom_removes += 1;
                return;
            }
            Sign::Minus => self.stats.token_removed(),
        }
        self.mark_node(node);
    }

    /// Files `token` with `count` matches into (or one entry of it out
    /// of) the memory of the negative node `node`, returning the count
    /// of the entry filed or unfiled: `None` for a phantom remove.
    fn update_negative_memory(
        &mut self,
        node: NodeId,
        token: &Token,
        count: u32,
        sign: Sign,
        wm: &WorkingMemory,
    ) -> Option<u32> {
        let NodeState::Neg(memory) = &mut self.states[node.index()] else {
            unreachable!("negative state")
        };
        let filed = match sign {
            Sign::Plus => {
                memory.insert_token(token.clone(), count, wm);
                self.stats.token_added();
                count
            }
            Sign::Minus => {
                let Some(count) = memory.remove_token(token, wm) else {
                    self.stats.phantom_removes += 1;
                    return None;
                };
                self.stats.token_removed();
                count
            }
        };
        self.mark_node(node);
        Some(filed)
    }

    /// Files `token` into (or one of it out of) the beta memory `node`,
    /// as a token activation of the node does: the parallel engine's
    /// filing between phases.
    pub fn file_token(&mut self, node: NodeId, token: &Token, sign: Sign, wm: &WorkingMemory) {
        self.update_beta_memory(node, token, sign, wm);
    }

    /// Files `token` with `count` matches into the memory of the
    /// negative node `node`, or one entry of it out: the parallel
    /// engine's filing between phases.
    pub fn file_negative(
        &mut self,
        node: NodeId,
        token: &Token,
        count: u32,
        sign: Sign,
        wm: &WorkingMemory,
    ) {
        self.update_negative_memory(node, token, count, sign, wm);
    }

    /// Moves the match count of entry `at` of the negative node `node`
    /// by `delta`: the parallel engine's filing between phases.
    pub fn recount(&mut self, node: NodeId, at: usize, delta: i32) {
        self.neg_memory(node).recount(at, delta);
        self.mark_node(node);
    }

    /// Files `id` into (or out of) alpha memory `alpha`, as a change
    /// does: also the parallel engine's filing between phases.
    #[inline]
    pub fn file_wme(&mut self, alpha: AlphaId, id: WmeId, sign: Sign, wm: &WorkingMemory) {
        let memory = &mut self.alpha_mems[alpha.index()];
        let changed = match sign {
            Sign::Plus => {
                memory.insert_wme(id, wm);
                true
            }
            Sign::Minus => memory.remove_wme(id, wm),
        };
        if changed {
            self.marks.mark(memory, alpha.index());
        }
    }

    /// Every memory of the matcher, to read from several threads at
    /// once.
    pub fn memories(&self) -> Memories<'_> {
        Memories {
            alpha: &self.alpha_mems,
            states: &self.states,
            probes: &self.probes,
        }
    }

    /// The beta memory of `node`, a beta-memory node (`None` for any
    /// other node).
    pub fn beta_memory(&self, node: NodeId) -> Option<&Memory<Token>> {
        match &self.states[node.index()] {
            NodeState::Mem(memory) => Some(memory),
            _ => None,
        }
    }

    /// The memory of `node`, a negative node (`None` for any other
    /// node).
    pub fn negative_memory(&self, node: NodeId) -> Option<&Memory<NegEntry>> {
        match &self.states[node.index()] {
            NodeState::Neg(memory) => Some(memory),
            _ => None,
        }
    }

    /// What a *right* activation of `node` probes the token memory on
    /// its left with: the slot its index key reads and `wme`'s key, or
    /// `None` (scan it whole) for a node without one, and for a memory
    /// with no slot of its parts.
    fn left_probe(&self, spec: &NodeSpec, node: NodeId, wme: &Wme) -> Option<(usize, Option<u32>)> {
        let probe = self.probes[node.index()]?;
        Some((probe.left?, kernel::right_key(&spec.key, wme)))
    }

    /// The candidate WMEs of a *left* activation of `node`: its alpha
    /// memory, or only the chain `token` can match when the node has an
    /// index key.
    fn right_wmes<'a>(
        &'a self,
        spec: &NodeSpec,
        node: NodeId,
        token: &Token,
        wm: &WorkingMemory,
    ) -> impl Iterator<Item = WmeId> + 'a {
        let alpha = spec.alpha.expect("two-input node has alpha").index();
        let probe = self.probes[node.index()];
        let key = || kernel::left_key(&spec.key, token, |id| wm.get(id));
        let probe = probe.map(|p| (p.right, key()));
        self.alpha_mems[alpha].candidates(probe).copied()
    }

    /// Left-activates the children of `spec` with `token`.
    ///
    /// A left activation of a *join* whose alpha memory is empty scans
    /// nothing and mutates nothing, so it is not enqueued at all. Alpha
    /// memories only change in the seed phase, before the queue drains,
    /// so the emptiness seen here is what the activation would see.
    /// Negative children always run — they record the token.
    fn enqueue_children(
        &self,
        net: &Network,
        spec: &NodeSpec,
        token: Token,
        sign: Sign,
        parent: Option<u32>,
        queue: &mut VecDeque<Task>,
    ) {
        for &child in &spec.children {
            let child_spec = net.node(child);
            if child_spec.kind == NodeKind::Join {
                let alpha = child_spec.alpha.expect("join has alpha");
                if self.alpha_mems[alpha.index()].entries.is_empty() {
                    continue;
                }
            }
            queue.push_back(Task {
                node: child,
                payload: Payload::Left(token.clone()),
                sign,
                parent,
            });
        }
    }
}

impl Matcher for ReteMatcher {
    fn add_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
        let mut delta = MatchDelta::new();
        self.process_change(wm, id, Sign::Plus, &mut delta);
        self.flush_obs();
        delta
    }

    fn remove_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
        let mut delta = MatchDelta::new();
        self.process_change(wm, id, Sign::Minus, &mut delta);
        self.flush_obs();
        delta
    }

    fn process(&mut self, wm: &WorkingMemory, changes: &[Change]) -> MatchDelta {
        if let Some(s) = &self.sanitizer {
            s.check_batch(wm, changes);
        }
        if let Some(t) = self.tracer.as_mut() {
            t.begin_cycle();
        }
        let mut delta = MatchDelta::new();
        for &change in changes {
            match change {
                Change::Add(id) => self.process_change(wm, id, Sign::Plus, &mut delta),
                Change::Remove(id) => self.process_change(wm, id, Sign::Minus, &mut delta),
            }
        }
        if let Some(t) = self.tracer.as_mut() {
            t.end_cycle();
        }
        self.flush_obs();
        delta
    }

    fn algorithm_name(&self) -> &'static str {
        "rete"
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ops5::{parse_program, parse_wme, Interpreter, SymbolTable};
    use psm_obs::Rng64;

    fn setup(src: &str) -> (ops5::Program, ReteMatcher, WorkingMemory, SymbolTable) {
        let program = parse_program(src).unwrap();
        let matcher = ReteMatcher::compile(&program).unwrap();
        let syms = program.symbols.clone();
        (program, matcher, WorkingMemory::new(), syms)
    }

    fn add(
        m: &mut ReteMatcher,
        wm: &mut WorkingMemory,
        syms: &mut SymbolTable,
        lit: &str,
    ) -> (WmeId, MatchDelta) {
        let wme = parse_wme(lit, syms).unwrap();
        let (id, _) = wm.add(wme);
        let delta = m.add_wme(wm, id);
        (id, delta)
    }

    fn remove(m: &mut ReteMatcher, wm: &mut WorkingMemory, id: WmeId) -> MatchDelta {
        let delta = m.remove_wme(wm, id);
        wm.remove(id);
        delta
    }

    #[test]
    fn single_ce_add_and_remove() {
        let (_p, mut m, mut wm, mut syms) = setup("(p r (block ^color red) --> (remove 1))");
        let (id, delta) = add(&mut m, &mut wm, &mut syms, "(block ^color red)");
        assert_eq!(delta.added.len(), 1);
        assert_eq!(delta.added[0].wmes, vec![id]);
        let (_, delta2) = add(&mut m, &mut wm, &mut syms, "(block ^color blue)");
        assert!(delta2.is_empty());
        let delta3 = remove(&mut m, &mut wm, id);
        assert_eq!(delta3.removed.len(), 1);
        assert_eq!(m.resident_tokens(), 0);
    }

    #[test]
    fn two_ce_join_with_binding() {
        let (_p, mut m, mut wm, mut syms) =
            setup("(p r (goal ^color <c>) (block ^color <c>) --> (remove 2))");
        let (g, d) = add(&mut m, &mut wm, &mut syms, "(goal ^color red)");
        assert!(d.is_empty());
        let (b1, d) = add(&mut m, &mut wm, &mut syms, "(block ^color red)");
        assert_eq!(d.added.len(), 1);
        assert_eq!(d.added[0].wmes, vec![g, b1]);
        let (_b2, d) = add(&mut m, &mut wm, &mut syms, "(block ^color blue)");
        assert!(d.is_empty(), "binding mismatch");
        // A second goal joins with the existing red block.
        let (g2, d) = add(&mut m, &mut wm, &mut syms, "(goal ^color red)");
        assert_eq!(d.added.len(), 1);
        assert_eq!(d.added[0].wmes, vec![g2, b1]);
        // Removing the block retracts both instantiations.
        let d = remove(&mut m, &mut wm, b1);
        assert_eq!(d.removed.len(), 2);
    }

    #[test]
    fn three_ce_chain_builds_and_unbuilds() {
        let (_p, mut m, mut wm, mut syms) =
            setup("(p r (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (remove 1))");
        let (ia, _) = add(&mut m, &mut wm, &mut syms, "(a ^x 1)");
        let (_ib, _) = add(&mut m, &mut wm, &mut syms, "(b ^x 1)");
        let (_ic, d) = add(&mut m, &mut wm, &mut syms, "(c ^x 1)");
        assert_eq!(d.added.len(), 1);
        assert!(m.resident_tokens() > 0);
        let d = remove(&mut m, &mut wm, ia);
        assert_eq!(d.removed.len(), 1);
        assert_eq!(m.resident_tokens(), 0, "all partial state purged");
    }

    #[test]
    fn out_of_order_arrival_still_matches() {
        let (_p, mut m, mut wm, mut syms) = setup("(p r (a ^x <v>) (b ^x <v>) --> (remove 1))");
        // Right-CE WME arrives before the left one.
        let (_b, d) = add(&mut m, &mut wm, &mut syms, "(b ^x 3)");
        assert!(d.is_empty());
        let (_a, d) = add(&mut m, &mut wm, &mut syms, "(a ^x 3)");
        assert_eq!(d.added.len(), 1, "left activation scans alpha memory");
    }

    #[test]
    fn same_wme_matching_two_ces() {
        // One WME can satisfy both CEs (they test the same class).
        let (_p, mut m, mut wm, mut syms) = setup("(p r (n ^v <a>) (n ^v <a>) --> (remove 1))");
        let (w1, d) = add(&mut m, &mut wm, &mut syms, "(n ^v 5)");
        // (w1, w1) is a legitimate OPS5 instantiation.
        assert_eq!(d.added.len(), 1);
        assert_eq!(d.added[0].wmes, vec![w1, w1]);
        let (w2, d) = add(&mut m, &mut wm, &mut syms, "(n ^v 5)");
        // New pairs: (w1,w2), (w2,w1), (w2,w2).
        assert_eq!(d.added.len(), 3);
        let d = remove(&mut m, &mut wm, w2);
        assert_eq!(d.removed.len(), 3);
    }

    #[test]
    fn negated_ce_lifecycle() {
        let (_p, mut m, mut wm, mut syms) =
            setup("(p r (goal ^g 1) - (blocker ^g 1) --> (remove 1))");
        let (_g, d) = add(&mut m, &mut wm, &mut syms, "(goal ^g 1)");
        assert_eq!(d.added.len(), 1, "no blocker yet");
        let (bl, d) = add(&mut m, &mut wm, &mut syms, "(blocker ^g 1)");
        assert_eq!(d.removed.len(), 1, "blocker retracts the instantiation");
        let (bl2, d) = add(&mut m, &mut wm, &mut syms, "(blocker ^g 1)");
        assert!(d.is_empty(), "second blocker changes nothing");
        let d = remove(&mut m, &mut wm, bl);
        assert!(d.is_empty(), "one blocker still present");
        let d = remove(&mut m, &mut wm, bl2);
        assert_eq!(d.added.len(), 1, "last blocker gone, rule satisfied again");
    }

    #[test]
    fn negated_ce_with_join_variable() {
        let (_p, mut m, mut wm, mut syms) =
            setup("(p r (goal ^color <c>) - (block ^color <c>) --> (remove 1))");
        let (_g, d) = add(&mut m, &mut wm, &mut syms, "(goal ^color red)");
        assert_eq!(d.added.len(), 1);
        let (_b, d) = add(&mut m, &mut wm, &mut syms, "(block ^color blue)");
        assert!(d.is_empty(), "different binding does not block");
        let (br, d) = add(&mut m, &mut wm, &mut syms, "(block ^color red)");
        assert_eq!(d.removed.len(), 1);
        let d = remove(&mut m, &mut wm, br);
        assert_eq!(d.added.len(), 1);
    }

    /// Conjugate-pair regression: one WME right-activates both a
    /// negative node and the join directly downstream of it (the negated
    /// CE and the next positive CE test the same class). The join's
    /// right activation must see the negative node's *pre-change* left
    /// state; seeing the post-flip state makes it build or delete pairs
    /// that never existed on the other side of the change.
    #[test]
    fn shared_class_negative_and_join_stay_consistent() {
        let (_p, mut m, mut wm, mut syms) =
            setup("(p r (a ^x <v>) - (b ^block <v>) (b ^val <v>) --> (remove 1))");
        let (ia, d) = add(&mut m, &mut wm, &mut syms, "(a ^x 1)");
        assert!(d.is_empty(), "no (b ^val 1) yet");
        // One WME that both blocks the negative CE and satisfies the
        // positive one: the block and the join flip in the same change.
        let (w1, d) = add(&mut m, &mut wm, &mut syms, "(b ^block 1 ^val 1)");
        assert!(d.is_empty(), "blocks itself: net nothing");
        let d = remove(&mut m, &mut wm, w1);
        assert!(d.is_empty(), "unblock and candidate loss cancel");
        // Sanity: a pure candidate fires, a pure blocker retracts it.
        let (_c, d) = add(&mut m, &mut wm, &mut syms, "(b ^val 1)");
        assert_eq!(d.added.len(), 1);
        let (bl, d) = add(&mut m, &mut wm, &mut syms, "(b ^block 1)");
        assert_eq!(d.removed.len(), 1);
        let d = remove(&mut m, &mut wm, bl);
        assert_eq!(d.added.len(), 1);
        let d = remove(&mut m, &mut wm, ia);
        assert_eq!(d.removed.len(), 1);
        assert_eq!(m.resident_tokens(), 0);
    }

    #[test]
    fn negative_then_positive_ce() {
        let (_p, mut m, mut wm, mut syms) =
            setup("(p r (s ^v <x>) - (no ^v <x>) (t ^v <x>) --> (remove 1))");
        let (_s, _) = add(&mut m, &mut wm, &mut syms, "(s ^v 1)");
        let (_t, d) = add(&mut m, &mut wm, &mut syms, "(t ^v 1)");
        assert_eq!(d.added.len(), 1);
        // Blocking the middle negative retracts downstream state.
        let (no, d) = add(&mut m, &mut wm, &mut syms, "(no ^v 1)");
        assert_eq!(d.removed.len(), 1);
        let d = remove(&mut m, &mut wm, no);
        assert_eq!(d.added.len(), 1);
    }

    #[test]
    fn negated_first_ce() {
        let (_p, mut m, mut wm, mut syms) = setup("(p r - (blocker) (a ^x 1) --> (remove 2))");
        let (a, d) = add(&mut m, &mut wm, &mut syms, "(a ^x 1)");
        assert_eq!(d.added.len(), 1, "top token passes the leading negation");
        assert_eq!(d.added[0].wmes, vec![a]);
        let (bl, d) = add(&mut m, &mut wm, &mut syms, "(blocker)");
        assert_eq!(d.removed.len(), 1);
        let d = remove(&mut m, &mut wm, bl);
        assert_eq!(d.added.len(), 1);
    }

    #[test]
    fn chain_of_leading_negatives() {
        let (_p, mut m, mut wm, mut syms) = setup("(p r - (b1) - (b2) (a ^x 1) --> (remove 3))");
        let (_a, d) = add(&mut m, &mut wm, &mut syms, "(a ^x 1)");
        assert_eq!(d.added.len(), 1);
        let (b2, d) = add(&mut m, &mut wm, &mut syms, "(b2)");
        assert_eq!(d.removed.len(), 1);
        let (b1, d) = add(&mut m, &mut wm, &mut syms, "(b1)");
        assert!(d.is_empty(), "already blocked by b2");
        let d = remove(&mut m, &mut wm, b2);
        assert!(d.is_empty(), "still blocked by b1");
        let d = remove(&mut m, &mut wm, b1);
        assert_eq!(d.added.len(), 1);
    }

    #[test]
    fn predicate_join_tests() {
        let (_p, mut m, mut wm, mut syms) = setup("(p r (lo ^v <x>) (hi ^v > <x>) --> (remove 1))");
        add(&mut m, &mut wm, &mut syms, "(lo ^v 10)");
        let (_h1, d) = add(&mut m, &mut wm, &mut syms, "(hi ^v 5)");
        assert!(d.is_empty());
        let (_h2, d) = add(&mut m, &mut wm, &mut syms, "(hi ^v 15)");
        assert_eq!(d.added.len(), 1);
    }

    #[test]
    fn shared_network_keeps_productions_independent() {
        let (_p, mut m, mut wm, mut syms) = setup(
            r#"
            (p a (g ^t x) (h ^u <v>) (i ^w <v>) --> (remove 1))
            (p b (g ^t x) (h ^u <v>) (j ^w <v>) --> (remove 1))
            "#,
        );
        add(&mut m, &mut wm, &mut syms, "(g ^t x)");
        add(&mut m, &mut wm, &mut syms, "(h ^u 9)");
        let (_i, d) = add(&mut m, &mut wm, &mut syms, "(i ^w 9)");
        assert_eq!(d.added.len(), 1);
        assert_eq!(d.added[0].production, ops5::ProductionId(0));
        let (_j, d) = add(&mut m, &mut wm, &mut syms, "(j ^w 9)");
        assert_eq!(d.added.len(), 1);
        assert_eq!(d.added[0].production, ops5::ProductionId(1));
    }

    #[test]
    fn modify_converges_when_condition_cleared() {
        // The modify falsifies the rule's own condition: exactly one
        // firing, and the batch delta nets to "old instantiation removed,
        // nothing added".
        let (program, matcher, _wm, _syms) = setup("(p r (c ^on yes) --> (modify 1 ^on no))");
        let mut interp = Interpreter::new(program, matcher);
        let mut syms = interp.program().symbols.clone();
        interp.insert(parse_wme("(c ^on yes)", &mut syms).unwrap());
        let fired = interp.run(10).unwrap();
        assert_eq!(fired, 1);
        assert!(interp.conflict_set().is_empty());
    }

    #[test]
    fn self_renewing_modify_loops_like_ops5() {
        // A modify that keeps the rule satisfied creates a fresh WME
        // (fresh time tag), so refraction never kicks in — OPS5 loops.
        let (program, matcher, _wm, _syms) = setup("(p r (c ^on yes ^n <n>) --> (modify 1 ^n 0))");
        let mut interp = Interpreter::new(program, matcher);
        let mut syms = interp.program().symbols.clone();
        interp.insert(parse_wme("(c ^on yes ^n 5)", &mut syms).unwrap());
        let fired = interp.run(10).unwrap();
        assert_eq!(fired, 10, "hits the cycle limit");
        assert_eq!(interp.working_memory().len(), 1, "one WME at a time");
    }

    #[test]
    fn end_to_end_paper_program() {
        let (program, matcher, _wm, _syms) = setup(
            r#"
            (p find-colored-blk
               (goal ^type find-blk ^color <c>)
               (block ^id <i> ^color <c> ^selected no)
               -->
               (modify 2 ^selected yes))
            "#,
        );
        let mut interp = Interpreter::new(program, matcher);
        let mut syms = interp.program().symbols.clone();
        interp.insert(parse_wme("(goal ^type find-blk ^color red)", &mut syms).unwrap());
        for i in 0..5 {
            let color = if i % 2 == 0 { "red" } else { "blue" };
            interp.insert(
                parse_wme(
                    &format!("(block ^id {i} ^color {color} ^selected no)"),
                    &mut syms,
                )
                .unwrap(),
            );
        }
        let fired = interp.run(100).unwrap();
        assert_eq!(fired, 3, "three red blocks get selected");
        let stats = interp.matcher().stats();
        assert!(stats.node_activations() > 0);
        assert!(stats.changes > 0);
    }

    #[test]
    fn tracing_captures_activations_and_affected() {
        let (_p, mut m, mut wm, mut syms) = setup("(p r (a ^x <v>) (b ^x <v>) --> (remove 1))");
        m.enable_tracing();
        add(&mut m, &mut wm, &mut syms, "(a ^x 1)");
        add(&mut m, &mut wm, &mut syms, "(b ^x 1)");
        let trace = m.take_trace();
        assert_eq!(trace.total_changes(), 2);
        assert!(trace.total_activations() >= 4);
        let first = &trace.cycles[0].changes[0];
        assert_eq!(first.affected_productions, vec![ops5::ProductionId(0)]);
        assert!(first.is_add);
        // Every parent id refers to an earlier record.
        for c in trace.cycles.iter().flat_map(|c| &c.changes) {
            for a in &c.activations {
                if let Some(p) = a.parent {
                    assert!(p < a.id);
                }
            }
        }
    }

    #[test]
    fn stats_accumulate() {
        let (_p, mut m, mut wm, mut syms) = setup("(p r (a ^x <v>) (b ^x <v>) --> (remove 1))");
        add(&mut m, &mut wm, &mut syms, "(a ^x 1)");
        add(&mut m, &mut wm, &mut syms, "(b ^x 1)");
        let s = m.stats();
        assert_eq!(s.changes, 2);
        assert_eq!(s.inserts, 2);
        assert!(s.constant_tests > 0);
        assert!(s.right_activations >= 2);
        assert_eq!(s.conflict_changes, 1);
        assert!(s.peak_tokens >= 1);
    }

    #[test]
    fn same_type_predicate_joins() {
        let (_p, mut m, mut wm, mut syms) = setup("(p r (a ^x <v>) (b ^y <=> <v>) --> (remove 1))");
        add(&mut m, &mut wm, &mut syms, "(a ^x 5)");
        let (_b1, d) = add(&mut m, &mut wm, &mut syms, "(b ^y red)");
        assert!(d.is_empty(), "symbol is not same-type as integer");
        let (_b2, d) = add(&mut m, &mut wm, &mut syms, "(b ^y 99)");
        assert_eq!(d.added.len(), 1, "integer is same-type as integer");
    }

    #[test]
    fn disjunction_tests_share_alpha_nodes() {
        let program = parse_program(
            r#"
            (p a (c ^x << red blue >>) --> (remove 1))
            (p b (c ^x << red blue >>) --> (remove 1))
            "#,
        )
        .unwrap();
        let m = ReteMatcher::compile(&program).unwrap();
        assert_eq!(m.network().stats.alpha_nodes, 1, "disjunction shared");
    }

    #[test]
    fn conjunction_with_variable_predicate_joins() {
        let (_p, mut m, mut wm, mut syms) =
            setup("(p r (lo ^v <x>) (mid ^v { > <x> < 100 }) --> (remove 1))");
        add(&mut m, &mut wm, &mut syms, "(lo ^v 10)");
        let (_a, d) = add(&mut m, &mut wm, &mut syms, "(mid ^v 5)");
        assert!(d.is_empty(), "fails > <x>");
        let (_b, d) = add(&mut m, &mut wm, &mut syms, "(mid ^v 150)");
        assert!(d.is_empty(), "fails < 100");
        let (_c, d) = add(&mut m, &mut wm, &mut syms, "(mid ^v 50)");
        assert_eq!(d.added.len(), 1);
    }

    #[test]
    fn hashed_memories_match_linear_with_fewer_scans() {
        let program = parse_program(
            r#"
            (p pair (a ^x <v>) (b ^x <v>) --> (remove 1))
            (p guarded (goal ^x <v>) - (veto ^x <v>) --> (remove 1))
            "#,
        )
        .unwrap();
        let mut linear = ReteMatcher::compile_linear(&program).unwrap();
        let mut hashed = ReteMatcher::compile(&program).unwrap();
        assert_eq!(linear.memory, MemoryStrategy::Linear);
        assert_eq!(hashed.memory, MemoryStrategy::Hashed, "the default");
        let mut wm = WorkingMemory::new();
        let mut syms = program.symbols.clone();
        let mut ids = Vec::new();
        // Many b's with diverse x values: the linear matcher scans them
        // all on each `a` left activation; hashed probes one bucket.
        for i in 0..20 {
            let (id, _) = wm.add(parse_wme(&format!("(b ^x {i})"), &mut syms).unwrap());
            ids.push(id);
            let mut d1 = linear.add_wme(&wm, id);
            let mut d2 = hashed.add_wme(&wm, id);
            d1.canonicalize();
            d2.canonicalize();
            assert_eq!(d1, d2);
        }
        for lit in ["(a ^x 3)", "(goal ^x 1)", "(veto ^x 1)", "(a ^x 19)"] {
            let (id, _) = wm.add(parse_wme(lit, &mut syms).unwrap());
            ids.push(id);
            let mut d1 = linear.add_wme(&wm, id);
            let mut d2 = hashed.add_wme(&wm, id);
            d1.canonicalize();
            d2.canonicalize();
            assert_eq!(d1, d2, "at {lit}");
        }
        // Removals agree too.
        for id in ids {
            let mut d1 = linear.remove_wme(&wm, id);
            let mut d2 = hashed.remove_wme(&wm, id);
            wm.remove(id);
            d1.canonicalize();
            d2.canonicalize();
            assert_eq!(d1, d2);
        }
        assert!(
            hashed.stats().pairs_scanned < linear.stats().pairs_scanned,
            "hashed {} vs linear {}",
            hashed.stats().pairs_scanned,
            linear.stats().pairs_scanned
        );
    }

    /// Transitive closure (`workloads::programs::TRANSITIVE_CLOSURE`):
    /// `tc-extend` ends in a negative node below a two-CE join, keyed on
    /// one of its two variables.
    pub(crate) const CLOSURE: &str = r#"
        (p tc-init (edge ^from <a> ^to <b>) - (reach ^from <a> ^to <b>)
           --> (make reach ^from <a> ^to <b>))
        (p tc-extend (reach ^from <a> ^to <b>) (edge ^from <b> ^to <c>)
           - (reach ^from <a> ^to <c>)
           --> (make reach ^from <a> ^to <c>))"#;

    /// A seeded churn of the closure program's working memory over a
    /// twelve-node graph: `edge` and `reach` facts are asserted two steps
    /// in three and a random live one retracted otherwise, then all are
    /// retracted. The negative memories grow to hundreds of entries,
    /// lose entries from the middle (so others are swap-moved) and see
    /// their match counts rise above one and fall back through zero.
    /// `feed` gets every change under the matcher contract: an added
    /// WME is already in `wm`, a removed one still is.
    pub(crate) fn closure_churn(
        program: &Program,
        seed: u64,
        steps: usize,
        mut feed: impl FnMut(&WorkingMemory, Change),
    ) {
        let mut rng = Rng64::new(seed);
        let mut syms = program.symbols.clone();
        let mut wm = WorkingMemory::new();
        let mut live: Vec<WmeId> = Vec::new();
        for _ in 0..steps {
            if live.is_empty() || rng.gen_range(0..3u32) > 0 {
                let class = if rng.gen_bool(0.3) { "edge" } else { "reach" };
                let (a, b) = (rng.gen_range(0..12i64), rng.gen_range(0..12i64));
                let wme = parse_wme(&format!("({class} ^from {a} ^to {b})"), &mut syms).unwrap();
                let (id, _) = wm.add(wme);
                live.push(id);
                feed(&wm, Change::Add(id));
            } else {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                feed(&wm, Change::Remove(id));
                wm.remove(id);
            }
        }
        for id in live {
            feed(&wm, Change::Remove(id));
            wm.remove(id);
        }
    }

    /// Steps of [`closure_churn`] a test can afford (the Miri job runs
    /// this crate's unit tests).
    pub(crate) const CHURN_STEPS: usize = if cfg!(miri) { 150 } else { 900 };

    #[test]
    fn bucketed_negative_memories_match_linear_under_churn() {
        let program = parse_program(CLOSURE).unwrap();
        let mut linear = ReteMatcher::compile_linear(&program).unwrap();
        let mut hashed = ReteMatcher::compile(&program).unwrap();
        let mut peak = 0;
        closure_churn(&program, 0xC105, CHURN_STEPS, |wm, change| {
            let mut d1 = linear.process(wm, &[change]);
            let mut d2 = hashed.process(wm, &[change]);
            d1.canonicalize();
            d2.canonicalize();
            assert_eq!(d1, d2, "at {change:?}");
            assert_eq!(hashed.resident_tokens(), linear.resident_tokens());
            peak = peak.max(hashed.resident_index_entries());
        });
        assert!(peak > CHURN_STEPS / 3, "index peaked at {peak} entries");
        assert!(
            hashed.stats().pairs_scanned * 2 < linear.stats().pairs_scanned,
            "hashed {} vs linear {}",
            hashed.stats().pairs_scanned,
            linear.stats().pairs_scanned
        );
        for m in [&hashed, &linear] {
            assert_eq!(m.resident_tokens(), 0);
            assert_eq!(m.resident_index_entries(), 0);
            assert_eq!(m.resident_index_buckets(), 0);
            assert_eq!(m.stats().phantom_removes, 0);
        }
    }

    #[test]
    fn hashed_beta_memory_speeds_right_activations() {
        // Big left memory (many goal x block partial matches), then a
        // right activation on the final CE: linear scans every token,
        // hashed probes one bucket.
        let src = "(p r (g ^x <v>) (h ^x <v>) (i ^x <v>) --> (remove 1))";
        let (program, _m, mut wm, mut syms) = setup(src);
        let mut lin = ReteMatcher::compile_linear(&program).unwrap();
        let program2 = parse_program(src).unwrap();
        let mut hsh = ReteMatcher::compile_hashed(&program2).unwrap();

        let feed = |m: &mut ReteMatcher, wm: &mut WorkingMemory, syms: &mut SymbolTable| {
            for v in 0..15 {
                for lit in [format!("(g ^x {v})"), format!("(h ^x {v})")] {
                    let wme = parse_wme(&lit, syms).unwrap();
                    let (id, _) = wm.add(wme);
                    m.add_wme(wm, id);
                }
            }
            // One right activation on the last CE.
            let wme = parse_wme("(i ^x 7)", syms).unwrap();
            let (id, _) = wm.add(wme);
            m.add_wme(wm, id)
        };
        let mut d1 = feed(&mut lin, &mut wm, &mut syms);
        let mut wm2 = WorkingMemory::new();
        let mut syms2 = program2.symbols.clone();
        let mut d2 = feed(&mut hsh, &mut wm2, &mut syms2);
        d1.canonicalize();
        d2.canonicalize();
        assert_eq!(d1.added.len(), 1);
        assert_eq!(d1, d2);
        assert!(
            hsh.stats().pairs_scanned * 2 < lin.stats().pairs_scanned,
            "hashed {} vs linear {}",
            hsh.stats().pairs_scanned,
            lin.stats().pairs_scanned
        );
    }

    /// A join under a negative node probes that node's chain of the
    /// join's key, as a join under a beta memory probes its parent's:
    /// only the chain's unblocked tokens are scanned. They are sent on
    /// in arrival order — the order a scan of the whole memory sends
    /// them in, which a join whose key parts are not the negative
    /// node's still makes.
    #[test]
    fn a_join_under_a_negative_node_probes_its_chain() {
        for (src, chained) in [
            (
                "(p r (a ^x <v> ^y <w>) - (b ^x <v>) (c ^x <v>) --> (halt))",
                true,
            ),
            (
                "(p r (a ^x <v> ^y <w>) - (b ^x <v>) (c ^y <w>) --> (halt))",
                false,
            ),
        ] {
            let program = parse_program(src).unwrap();
            let mut linear = ReteMatcher::compile_linear(&program).unwrap();
            let mut hashed = ReteMatcher::compile(&program).unwrap();
            let network = hashed.network().clone();
            let under_negative = |spec: &NodeSpec| {
                let left = spec.left.map(|left| network.node(left).kind);
                spec.kind == NodeKind::Join && left == Some(NodeKind::Negative)
            };
            let join = network.iter().find(|(_, spec)| under_negative(spec));
            let join = join.expect("a join under the negative node").0;
            assert_eq!(hashed.memories().token_slot(join).is_some(), chained);
            let mut wm = WorkingMemory::new();
            let mut syms = program.symbols.clone();
            // The delta, and the pairs the hashed matcher scanned for it.
            let mut feed = |lit: &str| {
                let (id, _) = wm.add(parse_wme(lit, &mut syms).unwrap());
                let before = hashed.stats().pairs_scanned;
                let delta = hashed.add_wme(&wm, id);
                assert_eq!(delta, linear.add_wme(&wm, id), "{src}: {lit}, raw order");
                (delta, hashed.stats().pairs_scanned - before)
            };
            // Unblocked tokens at positions 0, 2 and 4 on the chain of
            // x = 1 and at 3 on x = 3; the one at 1, on x = 2, blocked.
            for lit in [
                "(a ^x 1 ^y 1)",
                "(a ^x 2 ^y 1)",
                "(a ^x 1 ^y 1)",
                "(a ^x 3 ^y 1)",
                "(a ^x 1 ^y 1)",
                "(b ^x 2)",
            ] {
                feed(lit);
            }
            let (delta, scanned) = feed("(c ^x 1 ^y 1)");
            let sent: Vec<usize> = delta.added.iter().map(|i| i.wmes[0].index()).collect();
            if chained {
                assert_eq!(scanned, 3, "the chain of x = 1, whole");
                assert_eq!(sent, [0, 2, 4], "arrival order, not the chain's");
            } else {
                assert_eq!(scanned, 4, "every unblocked token");
                assert_eq!(sent, [0, 2, 3, 4]);
            }
        }
    }

    #[test]
    fn unshared_network_produces_same_matches() {
        let program = parse_program(
            r#"
            (p a (g ^t x) (h ^u <v>) --> (remove 1))
            (p b (g ^t x) (h ^u <v>) --> (remove 2))
            "#,
        )
        .unwrap();
        let mut shared = ReteMatcher::compile(&program).unwrap();
        let mut unshared =
            ReteMatcher::compile_with(&program, CompileOptions { share: false }).unwrap();
        let mut wm = WorkingMemory::new();
        let mut syms = program.symbols.clone();
        for lit in ["(g ^t x)", "(h ^u 1)", "(h ^u 2)"] {
            let wme = parse_wme(lit, &mut syms).unwrap();
            let (id, _) = wm.add(wme);
            let mut d1 = shared.add_wme(&wm, id);
            let mut d2 = unshared.add_wme(&wm, id);
            d1.canonicalize();
            d2.canonicalize();
            assert_eq!(d1, d2);
        }
        // Sharing does strictly less constant-test work.
        assert!(shared.stats().constant_tests <= unshared.stats().constant_tests);
    }

    #[test]
    fn per_node_profiler_measures_selectivity() {
        // Hand-built two-join chain: three CEs sharing one variable.
        let (_p, mut m, mut wm, mut syms) =
            setup("(p r (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (remove 1))");
        let obs = Arc::new(Obs::with_profile(16, 0, 64));
        m.attach_obs(Arc::clone(&obs));
        add(&mut m, &mut wm, &mut syms, "(a ^x 1)");
        add(&mut m, &mut wm, &mut syms, "(a ^x 2)");
        add(&mut m, &mut wm, &mut syms, "(b ^x 1)");
        let (_, d) = add(&mut m, &mut wm, &mut syms, "(c ^x 1)");
        assert_eq!(d.added.len(), 1);
        let snap = obs.profile.snapshot();
        let joins: Vec<u32> = m
            .network()
            .iter()
            .filter(|(_, s)| s.kind == NodeKind::Join)
            .map(|(id, _)| id.0)
            .collect();
        assert_eq!(joins.len(), 3);
        let row = |node: u32| {
            snap.rows
                .iter()
                .find(|r| r.node == node)
                .unwrap_or_else(|| panic!("node {node} missing from profile"))
        };
        // Top join: every `a` passes the dummy-top token through.
        assert_eq!(row(joins[0]).kind, "join");
        assert_eq!(row(joins[0]).right, 2);
        assert_eq!(row(joins[0]).pairs, 2);
        assert_eq!(row(joins[0]).tokens_out, 2);
        assert!((row(joins[0]).selectivity - 1.0).abs() < 1e-12);
        // The b-join: the two tokens produced by the `a` inserts would
        // left-activate it, but its alpha memory is empty at that point
        // and empty-input activations are skipped at dispatch, so only
        // the one right activation runs. Under the hashed default it
        // probes the left memory's `(0, x, 1)` bucket, so only the one
        // matching token is scanned.
        assert_eq!(row(joins[1]).left, 0);
        assert_eq!(row(joins[1]).right, 1);
        assert_eq!(row(joins[1]).pairs, 1);
        assert_eq!(row(joins[1]).tokens_out, 1);
        assert!((row(joins[1]).selectivity - 1.0).abs() < 1e-12);
        // The c-join: the single surviving token meets the single c WME.
        assert_eq!(row(joins[2]).pairs, 1);
        assert_eq!(row(joins[2]).tokens_out, 1);
        assert!((row(joins[2]).selectivity - 1.0).abs() < 1e-12);
        // Counters are on, but latency histograms wait for the detail
        // toggle.
        assert_eq!(row(joins[1]).latency.count, 0);
        obs.set_detail(true);
        add(&mut m, &mut wm, &mut syms, "(b ^x 2)");
        let snap = obs.profile.snapshot();
        assert!(
            snap.rows.iter().any(|r| r.latency.count > 0),
            "detail toggle enables latency recording"
        );
    }

    /// Stale-view regression (ISSUE 10): the `Matcher` contract only
    /// guarantees the *changed* WME is resolvable, not every WME a
    /// resident entry's key was read from. A memory stores no key
    /// beside an entry, so when the caller's view has dropped such a
    /// WME (divergent replica / crash-recovery edge), a minus finds the
    /// entry — and the links that file it, and the entry swap-moved
    /// into its place — by identity, and unfiles it from exactly the
    /// chains it was filed on. Failing that, the chain entry survives
    /// the retraction (a phantom join candidate) and the index grows
    /// without bound under churn.
    #[test]
    fn minus_unfiles_without_the_callers_wm_view() {
        struct Case {
            memory: &'static str,
            src: &'static str,
            adds: &'static [&'static str],
            /// The audits' baseline is read after this many adds.
            baseline_after: usize,
            /// Dropped from the caller's view behind the matcher's back.
            hidden: usize,
            retracted: &'static [usize],
            instantiations_removed: usize,
            /// `(index entries, chains)` left over the baseline.
            left: (usize, usize),
        }
        let cases = [
            // `d` probes M3 (the memory after the c-join) on `(1, q)` —
            // a key living on the *b* WME — while the c-join's own test
            // only touches position 0. Retracting `c` therefore reaches
            // M3 without ever needing `b` to be resolvable.
            Case {
                memory: "beta",
                src: "(p r (a ^u <x>) (b ^q <y>) (c ^u <x>) (d ^q <y>) --> (remove 1))",
                adds: &["(a ^u 1)", "(b ^q 7)", "(c ^u 1)"],
                baseline_after: 2,
                hidden: 1,
                retracted: &[2],
                instantiations_removed: 0,
                left: (0, 0),
            },
            // The negative node is keyed on `(0, x)`, a value on the
            // `a` WMEs; retracting `b` reaches it without needing them.
            // Only the x = 2 token was unblocked.
            Case {
                memory: "negative",
                src: "(p r (a ^x <v>) (b ^y <w>) - (c ^x <v>) --> (remove 1))",
                adds: &["(a ^x 1)", "(a ^x 2)", "(b ^y 7)", "(c ^x 1)"],
                baseline_after: 2,
                hidden: 0,
                retracted: &[2, 3],
                instantiations_removed: 1,
                left: (0, 0),
            },
            // Retracting the older `b` swap-moves the hidden one, which
            // heads their chain, into its place: the head follows it.
            Case {
                memory: "alpha",
                src: "(p r (a ^x <v>) (b ^x <v>) --> (remove 1))",
                adds: &["(b ^x 1)", "(b ^x 1)"],
                baseline_after: 0,
                hidden: 1,
                retracted: &[0],
                instantiations_removed: 0,
                left: (1, 1),
            },
        ];
        for case in cases {
            let (_p, mut m, mut wm, mut syms) = setup(case.src);
            let audits = |m: &ReteMatcher| (m.resident_index_entries(), m.resident_index_buckets());
            let mut baseline = audits(&m);
            let mut ids = Vec::new();
            for (i, lit) in case.adds.iter().enumerate() {
                ids.push(add(&mut m, &mut wm, &mut syms, lit).0);
                if i + 1 == case.baseline_after {
                    baseline = audits(&m);
                }
            }
            assert!(audits(&m) > baseline, "{}: nothing filed", case.memory);
            wm.remove(ids[case.hidden]);
            let mut removed = 0;
            for &i in case.retracted {
                removed += m.process(&wm, &[Change::Remove(ids[i])]).removed.len();
                wm.remove(ids[i]);
            }
            assert_eq!(removed, case.instantiations_removed, "{}", case.memory);
            let left = (baseline.0 + case.left.0, baseline.1 + case.left.1);
            assert_eq!(audits(&m), left, "{}: not unfiled", case.memory);
            assert_eq!(m.stats().phantom_removes, 0, "{}", case.memory);
        }
    }

    /// Empty buckets are pruned on removal: a full assert/retract churn
    /// cycle returns both the entry count and the bucket (key) count to
    /// baseline instead of growing with every distinct value ever seen.
    #[test]
    fn index_buckets_prune_to_baseline_after_churn() {
        for src in [
            "(p r (a ^x <v>) (b ^x <v>) --> (remove 1))",
            // The negative node's own buckets: three rounds of tokens
            // filed, blocked, freed and unfiled.
            "(p r (a ^x <v>) - (b ^x <v>) --> (remove 1))",
        ] {
            let (_p, mut m, mut wm, mut syms) = setup(src);
            assert_eq!(m.resident_index_entries(), 0);
            assert_eq!(m.resident_index_buckets(), 0);
            for round in 0..3 {
                let mut ids = Vec::new();
                for i in 0..10 {
                    let v = round * 100 + i; // fresh values every round
                    let (id, _) = add(&mut m, &mut wm, &mut syms, &format!("(a ^x {v})"));
                    ids.push(id);
                    let (id, _) = add(&mut m, &mut wm, &mut syms, &format!("(b ^x {v})"));
                    ids.push(id);
                }
                assert!(m.resident_index_buckets() > 0);
                for id in ids {
                    remove(&mut m, &mut wm, id);
                }
                assert_eq!(m.resident_index_entries(), 0, "round {round}: {src}");
                assert_eq!(m.resident_index_buckets(), 0, "round {round}: {src}");
            }
            assert_eq!(m.resident_alpha_entries(), 0);
            assert_eq!(m.resident_tokens(), 0);
            assert_eq!(m.stats().phantom_removes, 0);
        }
    }

    /// Deleting a token absent from a memory is counted (not just
    /// debug-asserted) and published as `rete.token.phantom_removes`.
    #[test]
    fn phantom_removes_are_counted_and_published() {
        let (_p, mut m, mut wm, mut syms) = setup("(p r (a ^x <v>) (b ^x <v>) --> (remove 1))");
        let obs = Arc::new(Obs::new(16));
        m.attach_obs(Arc::clone(&obs));
        let (ia, _) = add(&mut m, &mut wm, &mut syms, "(a ^x 1)");
        let d = m.remove_wme(&wm, ia);
        assert!(d.is_empty());
        assert_eq!(m.stats().phantom_removes, 0);
        // A duplicate retraction (API misuse / divergent caller) now
        // reaches a beta memory that no longer holds the token.
        let d = m.remove_wme(&wm, ia);
        assert!(d.is_empty());
        assert_eq!(m.stats().phantom_removes, 1);
        assert_eq!(
            obs.metrics.counter("rete.token.phantom_removes").get(),
            1,
            "counter published on flush"
        );
    }

    #[test]
    fn profiler_off_records_nothing() {
        let (_p, mut m, mut wm, mut syms) = setup("(p r (a ^x <v>) (b ^x <v>) --> (remove 1))");
        // Flight capacity but no profile capacity: the profiler stays
        // off even though obs is attached.
        let obs = Arc::new(Obs::with_flight(16, 64));
        m.attach_obs(Arc::clone(&obs));
        add(&mut m, &mut wm, &mut syms, "(a ^x 1)");
        add(&mut m, &mut wm, &mut syms, "(b ^x 1)");
        assert!(!obs.profile.enabled());
        assert_eq!(obs.profile.snapshot().retained, 0);
        assert_eq!(obs.profile.overflow(), 0);
    }

    #[test]
    fn nodes_past_profiler_capacity_are_counted_not_accumulated() {
        let (_p, mut m, mut wm, mut syms) =
            setup("(p r (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (remove 1))");
        let slots = 2;
        assert!(m.network().nodes.len() > slots);
        let obs = Arc::new(Obs::with_profile(16, 0, slots));
        m.attach_obs(Arc::clone(&obs));
        assert_eq!(m.prof_local.len(), slots, "no accumulator past capacity");
        let before = m.stats();
        add(&mut m, &mut wm, &mut syms, "(a ^x 1)");
        add(&mut m, &mut wm, &mut syms, "(b ^x 1)");
        add(&mut m, &mut wm, &mut syms, "(c ^x 1)");
        let stats = m.stats();
        let activations = |s: MatchStats| {
            s.right_activations + s.left_activations + s.beta_mem_ops + s.conflict_changes
        };
        let snap = obs.profile.snapshot();
        let profiled: u64 = snap.rows.iter().map(|r| r.tokens_in).sum();
        assert!(snap.rows.iter().all(|r| (r.node as usize) < slots));
        assert!(profiled > 0 && snap.overflow > 0);
        // Every activation lands in a slot or in `overflow`, one for one.
        assert_eq!(
            profiled + snap.overflow,
            activations(stats) - activations(before)
        );
    }

    #[test]
    fn flight_records_are_published_once_per_matcher_call() {
        let (_p, mut m, mut wm, mut syms) = setup("(p r (a ^x <v>) (b ^x <v>) --> (remove 1))");
        let obs = Arc::new(Obs::with_flight(16, 64));
        m.attach_obs(Arc::clone(&obs));
        let (a, _) = add(&mut m, &mut wm, &mut syms, "(a ^x 1)");
        let after_a = obs.flight.len();
        assert!(after_a > 0, "add_wme published what it staged");
        let (b, _) = add(&mut m, &mut wm, &mut syms, "(b ^x 1)");
        let after_b = obs.flight.len();
        assert!(after_b > after_a);
        m.process(&wm, &[Change::Remove(a), Change::Remove(b)]);
        let records = obs.flight.records();
        assert!(records.len() > after_b, "process published what it staged");
        assert!(records.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        let deaths = records
            .iter()
            .filter(|r| matches!(r.kind, psm_obs::FlightKind::TokenDeath { .. }));
        assert!(deaths.count() > 0);
        // Re-attaching to a recorder that is off stops the staging.
        m.attach_obs(Arc::new(Obs::new(16)));
        m.process(&wm, &[Change::Add(a)]);
        assert_eq!(obs.flight.len(), records.len());
    }
}
