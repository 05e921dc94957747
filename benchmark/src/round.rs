//! One round: one configuration (input, stack, size, seed) run once in
//! a fresh process, from program text to the last cycle.
//!
//! The round times set-up phase by phase, then every cycle
//! individually, and hands back raw samples, running checksums of its
//! outputs, counters and `VmHWM`. It measures each layer from outside:
//! public calls wrapped in clock pairs (or spans when traced) and
//! counters the crates already export. Nothing here reduces or judges;
//! `protocol` does that over many rounds.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ops5::{
    parse_program, Change, CycleOutcome, Instantiation, Interpreter, MatchDelta, Matcher, Program,
    Value, Wme, WmeId, WorkingMemory,
};
use psm_core::{ParallelOptions, ParallelReteMatcher};
use psm_fault::{
    ReplicationConfig, ReplicationStore, Supervisor, SupervisorConfig, Tier, WalSegment,
};
use psm_obs::{Obs, Phase, Rng64, Sampler};
use psm_telemetry::{client, TelemetryConfig, TelemetryServer};
use rete::{ActivationKind, MatchStats, NetworkStats, ReteMatcher};
use workloads::{programs, GeneratedWorkload, Preset, WorkloadDriver};

use crate::estimator::{at_rank, median};
use crate::trace::{chrome_json, self_times, timed, Timed, Tracer};

/// Cycles between running-checksum marks.
pub const MARK_EVERY: usize = 100;

/// Change-stream (and, through the driver's single RNG, initial-WM)
/// seed of the `vt` stream; `--seed` is XOR-ed in.
const STREAM_SEED: u64 = 0xBA5E;
/// Initial-WM seed of the acting preset.
const WM_SEED: u64 = 0x5EED;
/// Closure graph seed.
const GRAPH_SEED: u64 = 0x6A4F;

/// What is fed to the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// `Preset::Vt.spec()` driven by a `WorkloadDriver` change stream.
    Vt,
    /// `Preset::Vt.spec_acting()` fired by the interpreter.
    VtActing,
    /// `programs::TRANSITIVE_CLOSURE` over a seeded random digraph.
    Closure,
}

/// Which stack runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// Sequential Rete, default (hashed) join memories.
    Seq,
    /// Sequential Rete, linear join memories.
    Linear,
    /// `ParallelReteMatcher`, one worker.
    Par1,
    /// `ParallelReteMatcher`, two workers.
    Par2,
    /// `Supervisor` (two workers) with a `ReplicationStore` attached.
    Durable,
    /// Sequential Rete with the telemetry plane live.
    Telemetry,
}

macro_rules! named_enum {
    ($ty:ident { $($variant:ident => $name:literal),+ $(,)? }) => {
        impl $ty {
            /// The name used on the command line.
            pub fn name(self) -> &'static str {
                match self { $($ty::$variant => $name),+ }
            }
            /// Parses a command-line name.
            pub fn parse(s: &str) -> Option<$ty> {
                match s { $($name => Some($ty::$variant),)+ _ => None }
            }
        }
    };
}
named_enum!(Input { Vt => "vt", VtActing => "vt-acting", Closure => "closure" });
named_enum!(Stack {
    Seq => "seq", Linear => "linear", Par1 => "par1", Par2 => "par2",
    Durable => "durable", Telemetry => "telemetry",
});

/// Everything that determines a round's operation sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundSpec {
    /// The input.
    pub input: Input,
    /// The stack.
    pub stack: Stack,
    /// Cycles to run (`vt`, `vt-acting`) or graph nodes (`closure`,
    /// which always runs to quiescence; edges = 2 × nodes).
    pub size: usize,
    /// Workload seed.
    pub seed: u64,
    /// Record spans and turn the crates' own profilers on.
    pub traced: bool,
    /// Where a traced round writes its Chrome trace, if anywhere.
    pub trace_out: Option<String>,
}

/// One named number a round reports besides its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// Metric name (a `per_layer` name of `BENCHMARK.json`).
    pub name: String,
    /// The value.
    pub value: f64,
    /// A counter that must repeat bit-for-bit for a given seed.
    pub exact: bool,
}

/// What a round hands back.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundResult {
    /// Set-up phases in order: parse, compile, attach (telemetry start
    /// or `attach_replication`), initial-WM load; nanoseconds.
    pub setup_ns: [u64; 4],
    /// Latency of every cycle, nanoseconds.
    pub cycle_ns: Vec<u64>,
    /// WM changes processed in the measured window.
    pub changes: u64,
    /// Running output checksum after every [`MARK_EVERY`] cycles, and
    /// after the last.
    pub marks: Vec<u64>,
    /// Checksum of the final output (the last running checksum, or the
    /// derived `reach` relation for `closure`).
    pub output: u64,
    /// Cycles that failed.
    pub failed: u64,
    /// `closure` only: the run ended in `Quiescent`.
    pub quiescent: bool,
    /// `VmHWM` at exit, KiB.
    pub rss_kb: u64,
    /// Counters and, when traced, per-layer times.
    pub readings: Vec<Reading>,
}

impl RoundResult {
    /// Total set-up time, nanoseconds.
    pub fn setup_total_ns(&self) -> u64 {
        self.setup_ns.iter().sum()
    }

    fn push(&mut self, name: &str, value: f64, exact: bool) {
        self.readings.push(Reading {
            name: name.to_string(),
            value,
            exact,
        });
    }

    /// The reading called `name`, if reported.
    pub fn reading(&self, name: &str) -> Option<f64> {
        self.readings
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.value)
    }
}

/// Order-sensitive 64-bit checksum (FNV-1a over words with an extra
/// fold, so swapped neighbours and shifted boundaries both show).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum(u64);

impl Default for Checksum {
    fn default() -> Self {
        Checksum(0xcbf2_9ce4_8422_2325)
    }
}

impl Checksum {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        self.0 ^= self.0 >> 29;
    }

    /// Folds one instantiation in.
    pub fn instantiation(&mut self, inst: &Instantiation) {
        self.word(inst.production.0 as u64);
        self.word(inst.wmes.len() as u64);
        for w in &inst.wmes {
            self.word(w.index() as u64);
        }
    }

    /// Folds one conflict-set delta in, canonicalised first so every
    /// matcher and every parallel schedule yields the same words.
    pub fn delta(&mut self, mut delta: MatchDelta) {
        delta.canonicalize();
        self.word(delta.added.len() as u64);
        for inst in &delta.added {
            self.instantiation(inst);
        }
        self.word(delta.removed.len() as u64);
        for inst in &delta.removed {
            self.instantiation(inst);
        }
    }

    /// Checksum of a sorted relation.
    pub fn of_pairs(pairs: &BTreeSet<(i64, i64)>) -> u64 {
        let mut c = Checksum::default();
        for &(a, b) in pairs {
            c.word(a as u64);
            c.word(b as u64);
        }
        c.0
    }

    /// The checksum so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// The `vt` workload (or its acting variant). The program seed is part
/// of the workload definition; only streams and initial WM vary with
/// `--seed`.
pub fn vt_workload(acting: bool) -> GeneratedWorkload {
    let spec = if acting {
        Preset::Vt.spec_acting()
    } else {
        Preset::Vt.spec()
    };
    GeneratedWorkload::generate(spec).expect("preset generates")
}

/// The change-stream driver for `seed`.
pub fn vt_driver(seed: u64) -> WorkloadDriver {
    WorkloadDriver::new(vt_workload(false), STREAM_SEED ^ seed)
}

/// A seeded random strongly connected digraph: a random Hamiltonian
/// cycle plus one random chord per node (`2 × nodes` distinct edges, no
/// self-loops). Strong connectivity pins the closure at `nodes²` pairs
/// for every seed; a uniform random edge set of the same density put
/// 5.4 k – 7.6 k pairs under 100 nodes, and throughput with it.
pub fn closure_edges(seed: u64, nodes: usize) -> Vec<(i64, i64)> {
    let mut rng = Rng64::new(GRAPH_SEED ^ seed);
    let n = nodes.max(3);
    let mut order: Vec<i64> = (0..n as i64).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut edges: Vec<(i64, i64)> = (0..n).map(|i| (order[i], order[(i + 1) % n])).collect();
    let mut seen: BTreeSet<(i64, i64)> = edges.iter().copied().collect();
    for from in 0..n as i64 {
        loop {
            let to = rng.gen_range(0..n as i64);
            if to != from && seen.insert((from, to)) {
                edges.push((from, to));
                break;
            }
        }
    }
    edges
}

/// The program as OPS5 text, printed once (untimed) so that parsing it
/// back can be timed as the first set-up phase.
fn program_text(program: &Program) -> String {
    program
        .productions
        .iter()
        .map(|p| format!("{}\n", p.display(&program.symbols)))
        .collect()
}

/// Times the parse of `text`; the result is only checked, the run uses
/// the program the input generator built (same symbol ids as its WMEs).
fn timed_parse(tracer: Option<&Tracer>, text: &str, productions: usize) -> u64 {
    let (parsed, ns) = timed(tracer, "setup.parse", || parse_program(text));
    let parsed = parsed.expect("printed program parses back");
    assert_eq!(parsed.productions.len(), productions, "reparse lost rules");
    ns
}

/// The matcher of a stack, behind one `Matcher` so the cycle loop is
/// the same for all of them.
enum StackMatcher {
    Rete(ReteMatcher),
    Par(ParallelReteMatcher),
    Durable(Box<Supervisor>),
}

impl StackMatcher {
    fn build(stack: Stack, program: &Program) -> StackMatcher {
        let par = |threads| {
            let options = ParallelOptions {
                threads,
                share: true,
            };
            ParallelReteMatcher::compile(program, options).expect("compiles")
        };
        match stack {
            Stack::Seq | Stack::Telemetry => {
                StackMatcher::Rete(ReteMatcher::compile(program).expect("compiles"))
            }
            Stack::Linear => {
                StackMatcher::Rete(ReteMatcher::compile_linear(program).expect("compiles"))
            }
            Stack::Par1 => StackMatcher::Par(par(1)),
            Stack::Par2 => StackMatcher::Par(par(2)),
            Stack::Durable => {
                let config = SupervisorConfig {
                    threads: 2,
                    ..SupervisorConfig::default()
                };
                StackMatcher::Durable(Box::new(
                    Supervisor::new(program, config).expect("compiles"),
                ))
            }
        }
    }

    fn as_dyn(&mut self) -> &mut dyn Matcher {
        match self {
            StackMatcher::Rete(m) => m,
            StackMatcher::Par(m) => m,
            StackMatcher::Durable(m) => m.as_mut(),
        }
    }

    fn network_stats(&self) -> NetworkStats {
        match self {
            StackMatcher::Rete(m) => m.network().stats,
            StackMatcher::Par(m) => m.network().stats,
            StackMatcher::Durable(m) => m.network().stats,
        }
    }

    /// Work counters so far, whatever the stack exports (the supervisor
    /// exports none of its tiers').
    fn work(&self) -> Work {
        match self {
            StackMatcher::Rete(m) => Work::from_rete(&m.stats(), m.resident_index_entries()),
            StackMatcher::Par(m) => {
                let s = m.stats();
                let mut work = Work::default();
                work.flows[0] = s.constant_tests;
                work.flows[2] = s.join_tests;
                work.flows[3] = s.pairs_scanned;
                work.flows[7] = s.tasks;
                work
            }
            StackMatcher::Durable(_) => Work::default(),
        }
    }
}

impl Matcher for StackMatcher {
    fn add_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
        self.as_dyn().add_wme(wm, id)
    }
    fn remove_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
        self.as_dyn().remove_wme(wm, id)
    }
    fn process(&mut self, wm: &WorkingMemory, changes: &[Change]) -> MatchDelta {
        self.as_dyn().process(wm, changes)
    }
    fn algorithm_name(&self) -> &'static str {
        "stack"
    }
}

/// Cumulative work counters in one shape for every stack.
#[derive(Debug, Clone, Copy, Default)]
struct Work {
    /// Counters that only grow, in this order: constant tests, node
    /// activations, join tests, pairs scanned, tokens created,
    /// conflict-set changes, phantom removes, parallel tasks.
    flows: [u64; 8],
    peak_tokens: u64,
    resident_index_entries: u64,
}

impl Work {
    fn from_rete(s: &MatchStats, resident_index_entries: usize) -> Work {
        Work {
            flows: [
                s.constant_tests,
                s.node_activations(),
                s.join_tests,
                s.pairs_scanned,
                s.tokens_created,
                s.conflict_changes,
                s.phantom_removes,
                0,
            ],
            peak_tokens: s.peak_tokens,
            resident_index_entries: resident_index_entries as u64,
        }
    }

    /// The work done since `base`: flows as differences, levels (peak
    /// tokens, resident entries) as they stand.
    fn since(&self, base: &Work) -> Work {
        Work {
            flows: std::array::from_fn(|i| self.flows[i] - base.flows[i]),
            ..*self
        }
    }

    /// Folds the window of another episode in: flows add, levels max.
    fn merge(&mut self, other: &Work) {
        for (mine, theirs) in self.flows.iter_mut().zip(other.flows) {
            *mine += theirs;
        }
        self.peak_tokens = self.peak_tokens.max(other.peak_tokens);
        self.resident_index_entries = self
            .resident_index_entries
            .max(other.resident_index_entries);
    }

    /// Reports this window of work, done over `changes` WM changes in
    /// `match_ns`, into `out`. A counter the stack does not export
    /// reads 0.
    fn report(&self, changes: u64, match_ns: u64, exact: bool, out: &mut RoundResult) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let [constant_tests, activations, join_tests, pairs, tokens, conflict, phantom, tasks] =
            self.flows;
        let counters = [
            (
                "rete.alpha.constant_tests_per_change",
                ratio(constant_tests, changes),
            ),
            (
                "rete.runtime.activations_per_change",
                ratio(activations, changes),
            ),
            (
                "rete.runtime.join_tests_per_change",
                ratio(join_tests, changes),
            ),
            (
                "rete.runtime.pairs_scanned_per_change",
                ratio(pairs, changes),
            ),
            ("rete.runtime.join_hit_ratio", ratio(tokens, pairs)),
            (
                "rete.runtime.conflict_changes_per_change",
                ratio(conflict, changes),
            ),
            ("rete.runtime.tokens_peak", self.peak_tokens as f64),
            (
                "rete.runtime.resident_index_entries",
                self.resident_index_entries as f64,
            ),
            ("rete.runtime.phantom_removes", phantom as f64),
        ];
        for (name, value) in counters {
            out.push(name, value, exact);
        }
        let timings = [
            ("psm_core.engine.tasks_per_change", ratio(tasks, changes)),
            ("rete.runtime.match_ns_per_change", ratio(match_ns, changes)),
            (
                "rete.runtime.match_ns_per_activation",
                ratio(match_ns, activations),
            ),
        ];
        for (name, value) in timings {
            out.push(name, value, false);
        }
    }
}

fn report_network(stats: &NetworkStats, out: &mut RoundResult) {
    out.push("rete.network.alpha_nodes", stats.alpha_nodes as f64, true);
    out.push("rete.network.joins", stats.joins as f64, true);
    out.push(
        "rete.network.join_sharing_ratio",
        stats.join_sharing_ratio(),
        true,
    );
}

/// Nanoseconds per group of `ActivationKind`s (alpha, join, negative,
/// beta memory, terminal) from the matcher's own profiler, if on.
fn kind_ns(matcher: &ReteMatcher) -> Option<[f64; 5]> {
    use ActivationKind::*;
    let profile = matcher.profile()?;
    let ns = |kinds: &[ActivationKind]| -> f64 {
        kinds
            .iter()
            .map(|k| profile.kind_snapshot(*k).sum as f64)
            .sum()
    };
    Some([
        ns(&[ConstantTest, AlphaMem]),
        ns(&[JoinRight, JoinLeft]),
        ns(&[NegativeRight, NegativeLeft]),
        ns(&[BetaMem]),
        ns(&[Terminal]),
    ])
}

/// The per-kind times as shares of their sum.
fn report_kind_shares(ns: [f64; 5], out: &mut RoundResult) {
    let names = [
        "rete.alpha.time_share",
        "rete.runtime.join_time_share",
        "rete.runtime.negative_time_share",
        "rete.runtime.betamem_time_share",
        "rete.runtime.terminal_time_share",
    ];
    let total: f64 = ns.iter().sum();
    for (name, part) in names.into_iter().zip(ns) {
        out.push(name, part / total.max(1.0), false);
    }
}

/// The cycle-time split from this round's spans (match is the
/// `matcher.process` spans, all of which lie inside cycles; select and
/// act are carved out of the cycles' self time by the interpreter's own
/// phase totals) and the set-up phases as rates.
fn report_spans(tracer: &Tracer, text_bytes: usize, phases_ns: [u64; 3], out: &mut RoundResult) {
    let layers = self_times(&tracer.spans());
    let of = |name: &str| layers.get(name).copied().unwrap_or_default();
    let (cycle_ns, match_ns) = (of("cycle").total_ns, of("matcher.process").total_ns);
    let [_, select_ns, act_ns] = phases_ns;
    let unattributed = of("cycle").self_ns.saturating_sub(select_ns + act_ns);
    let split = [
        ("match.share", "trace.match_ns", match_ns),
        ("ops5.conflict.select_share", "trace.select_ns", select_ns),
        ("ops5.interp.act_share", "trace.act_ns", act_ns),
        (
            "ops5.interp.unattributed_share",
            "trace.unattributed_ns",
            unattributed,
        ),
    ];
    out.push("trace.cycle_wall_ns", cycle_ns as f64, false);
    for (share, total, ns) in split {
        out.push(share, ns as f64 / cycle_ns.max(1) as f64, false);
        out.push(total, ns as f64, false);
    }
    let [parse_ns, compile_ns, _, load_ns] = out.setup_ns;
    out.push(
        "ops5.parser.parse_mb_per_s",
        text_bytes as f64 / 1e6 / (parse_ns.max(1) as f64 / 1e9),
        false,
    );
    out.push("rete.network.compile_s", compile_ns as f64 / 1e9, false);
    out.push("load.initial_wm_s", load_ns as f64 / 1e9, false);
}

/// The live telemetry plane of the `telemetry` stack.
struct Plane {
    obs: Arc<Obs>,
    server: TelemetryServer,
    sampler: Sampler,
}

impl Plane {
    fn start(matcher: &mut ReteMatcher) -> Plane {
        let obs = Arc::new(Obs::with_history(1024, 4096, 4096, 64));
        matcher.attach_obs(Arc::clone(&obs));
        let server = TelemetryServer::start(Arc::clone(&obs), &TelemetryConfig::default())
            .expect("telemetry listener binds on localhost");
        let sampler = Sampler::start(Arc::clone(&obs), Duration::from_millis(5));
        Plane {
            obs,
            server,
            sampler,
        }
    }

    /// Ten `/metrics` GETs over the real socket: median latency and
    /// body size.
    fn scrape(&self, out: &mut RoundResult) {
        let addr = self.server.local_addr();
        let mut ms = Vec::new();
        let mut bytes = 0usize;
        for _ in 0..10 {
            let start = Instant::now();
            match client::http_get(addr, "/metrics", Duration::from_secs(5)) {
                Ok((200, body)) => {
                    ms.push(start.elapsed().as_secs_f64() * 1e3);
                    bytes = body.len();
                }
                other => panic!("/metrics scrape failed: {other:?}"),
            }
        }
        out.push("psm_telemetry.scrape_metrics_p50_ms", median(&ms), false);
        out.push("psm_telemetry.metrics_bytes", bytes as f64, false);
    }

    fn stop(self) {
        self.sampler.stop();
        self.server.shutdown();
    }
}

/// `vt` stream through one of the matcher stacks: one cycle is one
/// `Matcher::process` batch; batch synthesis and commit are untimed.
fn stream_round(spec: &RoundSpec, tracer: Option<&Tracer>) -> RoundResult {
    let mut out = RoundResult::default();
    let mut driver = vt_driver(spec.seed);
    let text = program_text(&driver.workload().program);
    let productions = driver.workload().program.productions.len();
    out.setup_ns[0] = timed_parse(tracer, &text, productions);

    let (mut stack, compile_ns) = timed(tracer, "setup.compile", || {
        StackMatcher::build(spec.stack, &driver.workload().program)
    });
    out.setup_ns[1] = compile_ns;
    let mut plane = None;
    let mut store = None;
    let ((), attach_ns) = timed(tracer, "setup.attach", || match &mut stack {
        StackMatcher::Rete(m) if spec.stack == Stack::Telemetry => plane = Some(Plane::start(m)),
        StackMatcher::Durable(sup) => {
            let s = Arc::new(ReplicationStore::new(ReplicationConfig::default()));
            sup.attach_replication(Arc::clone(&s));
            store = Some(s);
        }
        _ => {}
    });
    out.setup_ns[2] = attach_ns;
    let mut matcher = Timed::new(stack);
    let ((), load_ns) = timed(tracer, "setup.load", || driver.init(&mut matcher));
    out.setup_ns[3] = load_ns;
    matcher.trace_into(tracer);

    if spec.traced {
        match &mut matcher.inner {
            StackMatcher::Rete(m) => m.enable_profiling(),
            StackMatcher::Par(m) => m.enable_timing(),
            StackMatcher::Durable(_) => {}
        }
    }
    let base = matcher.inner.work();
    let base_faults = match &matcher.inner {
        StackMatcher::Durable(sup) => Some(sup.report()),
        _ => None,
    };

    let mut sum = Checksum::default();
    let mut checkpoint_cycle = Vec::new();
    let mut checkpoints_seen = base_faults.map_or(0, |r| r.checkpoints);
    let (mut wal_bytes, mut wal_changes) = (0u64, 0u64);
    for cycle in 0..spec.size {
        let batch = driver.next_batch();
        if let Some(t) = tracer {
            t.set_cycle(cycle as u32 + 1);
        }
        let (delta, ns) = timed(tracer, "cycle", || {
            matcher.process(driver.working_memory(), &batch)
        });
        driver.commit_batch(&batch);
        out.cycle_ns.push(ns);
        out.changes += batch.len() as u64;
        sum.delta(delta);
        if let (StackMatcher::Durable(sup), Some(before)) = (&matcher.inner, &base_faults) {
            let now = sup.report();
            let checkpointed = now.checkpoints > checkpoints_seen;
            checkpoints_seen = now.checkpoints;
            checkpoint_cycle.push(checkpointed);
            // The WAL is cut at a checkpoint, so the entry of this
            // cycle is visible only on the other seven in eight.
            if let (false, Some(entry)) = (checkpointed, sup.wal().entries().last()) {
                wal_bytes += WalSegment::framed_len(entry) as u64;
                wal_changes += batch.len() as u64;
            }
            let degraded = sup.tier() != Tier::Parallel
                || now.fallbacks > before.fallbacks
                || now.deadline_misses > before.deadline_misses;
            out.failed += u64::from(degraded);
        }
        if (cycle + 1) % MARK_EVERY == 0 {
            out.marks.push(sum.value());
        }
    }
    out.output = sum.value();
    out.marks.push(out.output);

    let match_ns: u64 = out.cycle_ns.iter().sum();
    let exact = matches!(matcher.inner, StackMatcher::Rete(_));
    report_network(&matcher.inner.network_stats(), &mut out);
    let changes = out.changes;
    matcher
        .inner
        .work()
        .since(&base)
        .report(changes, match_ns, exact, &mut out);
    if let Some(t) = tracer {
        report_spans(t, text.len(), [0; 3], &mut out);
    }
    match &matcher.inner {
        StackMatcher::Rete(m) => {
            if let Some(ns) = kind_ns(m) {
                report_kind_shares(ns, &mut out);
            }
        }
        StackMatcher::Par(m) if spec.traced => {
            let w = m.worker_totals_merged();
            let polls = (w.tasks + w.idle_spins).max(1) as f64;
            out.push(
                "psm_core.engine.nominal_concurrency",
                w.exec_ns as f64 / match_ns.max(1) as f64,
                false,
            );
            out.push(
                "psm_core.engine.lock_wait_share",
                w.lock_wait_ns as f64 / (w.exec_ns + w.lock_wait_ns).max(1) as f64,
                false,
            );
            out.push(
                "psm_core.pool.steals_per_task",
                w.steals as f64 / w.tasks.max(1) as f64,
                false,
            );
            out.push(
                "psm_core.pool.idle_share",
                w.idle_spins as f64 / polls,
                false,
            );
        }
        StackMatcher::Par(_) => {}
        StackMatcher::Durable(sup) => {
            let before = base_faults.expect("durable stack has a baseline report");
            let store = store.as_deref().expect("durable stack has a store");
            let wal = (wal_bytes, wal_changes);
            report_durable(
                sup,
                &before,
                store,
                &checkpoint_cycle,
                wal,
                spec.traced,
                &mut out,
            );
        }
    }
    if let Some(plane) = plane {
        let records = plane.obs.flight.len() as u64 + plane.obs.flight.dropped();
        out.push(
            "psm_obs.flight.records_per_change",
            records as f64 / out.changes.max(1) as f64,
            false,
        );
        if spec.traced {
            plane.scrape(&mut out);
        }
        plane.stop();
    }
    out
}

/// Durability layer readings: artifact sizes from the replication
/// store, checkpoint cost from cycles classified from outside.
fn report_durable(
    sup: &Supervisor,
    before: &psm_fault::FaultReport,
    store: &ReplicationStore,
    checkpoint_cycle: &[bool],
    (wal_bytes, wal_changes): (u64, u64),
    traced: bool,
    out: &mut RoundResult,
) {
    let now = sup.report();
    let stats = store.stats();
    let full_mean = stats.full_bytes as f64 / stats.full_count.max(1) as f64;
    let delta_mean = stats.delta_bytes as f64 / stats.delta_count.max(1) as f64;
    let checkpoints = (now.checkpoints - before.checkpoints).max(1) as f64;
    out.push("psm_fault.checkpoint.bytes_mean", full_mean, true);
    out.push("psm_fault.delta.bytes_mean", delta_mean, true);
    out.push(
        "psm_fault.delta.compression_x",
        full_mean / delta_mean.max(1.0),
        true,
    );
    out.push(
        "psm_fault.segment.wal_bytes_per_change",
        wal_bytes as f64 / wal_changes.max(1) as f64,
        true,
    );
    out.push(
        "psm_fault.supervisor.wal_replayed_per_checkpoint",
        (now.wal_replayed - before.wal_replayed) as f64 / checkpoints,
        true,
    );
    out.push("psm_fault.supervisor.fallbacks", now.fallbacks as f64, true);
    let split = |want: bool| -> Vec<u64> {
        let cycles = out.cycle_ns.iter().zip(checkpoint_cycle);
        cycles.filter(|c| *c.1 == want).map(|c| *c.0).collect()
    };
    let (plain, checkpointed) = (split(false), split(true));
    let median_ns = |v: &[u64]| at_rank(v, v.len().div_ceil(2));
    let plain_p50 = median_ns(&plain);
    // What checkpoint cycles cost beyond a plain cycle's match.
    let extra: u64 = checkpointed
        .iter()
        .map(|ns| ns.saturating_sub(plain_p50))
        .sum();
    let total: u64 = out.cycle_ns.iter().sum();
    out.push(
        "psm_fault.supervisor.plain_cycle_p50_us",
        plain_p50 as f64 / 1e3,
        false,
    );
    out.push(
        "psm_fault.supervisor.checkpoint_cycle_p50_us",
        median_ns(&checkpointed) as f64 / 1e3,
        false,
    );
    out.push(
        "psm_fault.supervisor.checkpoint_time_share",
        extra as f64 / total.max(1) as f64,
        false,
    );
    if traced {
        out.push(
            "psm_fault.supervisor.recovery_drill_ms",
            sup.recovery_drill().elapsed.as_secs_f64() * 1e3,
            false,
        );
    }
}

/// Firings per episode of `vt-acting`.
pub const EPISODE_FIRINGS: usize = 50;

/// The initial working memories of the episodes of a `vt-acting` round
/// of `size` firings. The acting preset settles within a few firings
/// into one self-retriggering rule, and which one depends on the
/// initial WM: single 10 000-firing runs differ 2.6× between seeds (one
/// seed in twenty explodes the conflict set), and even fifty 200-firing
/// episodes leave the tail latency, which is then the slowest episode,
/// 18 % apart between seeds. A round therefore plays two hundred short
/// episodes, each a fresh interpreter on its own seeded WM, so that
/// every seed exercises many rules and the tail spans several episodes.
pub fn acting_episodes(
    workload: &GeneratedWorkload,
    size: usize,
    seed: u64,
) -> impl Iterator<Item = Vec<Wme>> + '_ {
    (0..(size / EPISODE_FIRINGS).max(1) as u64).map(move |k| {
        let sub = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        workload.initial_wm(&mut Rng64::new(WM_SEED ^ seed ^ sub))
    })
}

/// The real recognize–act loop: `Interpreter` over sequential Rete,
/// one cycle is one `Interpreter::cycle` (select, act, match).
/// `closure` is one episode run to quiescence; `vt-acting` is many
/// episodes of [`EPISODE_FIRINGS`]. Only the first episode's set-up is
/// the workload's set-up; later ones (on the network compiled once)
/// are input preparation, untimed like the stream driver's batch
/// synthesis.
fn interp_round(spec: &RoundSpec, tracer: Option<&Tracer>) -> RoundResult {
    let mut out = RoundResult::default();
    let closure = spec.input == Input::Closure;
    let acting = (!closure).then(|| vt_workload(true));
    type Episodes<'a> = Box<dyn Iterator<Item = Vec<Wme>> + 'a>;
    let (program, text, episodes, limit): (_, _, Episodes, _) = match &acting {
        None => {
            let edges = closure_edges(spec.seed, spec.size);
            let (program, wmes) = programs::transitive_closure(&edges).expect("closure parses");
            let text = programs::TRANSITIVE_CLOSURE.to_string();
            (program, text, Box::new(std::iter::once(wmes)), usize::MAX)
        }
        Some(workload) => (
            workload.program.clone(),
            program_text(&workload.program),
            Box::new(acting_episodes(workload, spec.size, spec.seed)),
            EPISODE_FIRINGS,
        ),
    };
    out.setup_ns[0] = timed_parse(tracer, &text, program.productions.len());

    let (first, compile_ns) = timed(tracer, "setup.compile", || {
        ReteMatcher::compile(&program).expect("compiles")
    });
    out.setup_ns[1] = compile_ns;
    let network = Arc::clone(first.network());
    report_network(&network.stats, &mut out);
    let mut first = Some(first);

    let mut sum = Checksum::default();
    let mut work = Work::default();
    let (mut phases, mut kinds) = ([0u64; 3], [0f64; 5]);
    let (mut candidates, mut size_peak) = (0u64, 0usize);
    for wmes in episodes {
        let is_first = first.is_some();
        let setup_tracer = tracer.filter(|_| is_first);
        let rete = first
            .take()
            .unwrap_or_else(|| ReteMatcher::from_network(Arc::clone(&network)));
        let mut interp = Interpreter::new(program.clone(), Timed::new(rete));
        let (_, load_ns) = timed(setup_tracer, "setup.load", || interp.insert_all(wmes));
        if is_first {
            out.setup_ns[3] = load_ns;
        }
        interp.matcher_mut().trace_into(tracer);
        if spec.traced {
            interp.enable_phase_profiling();
            interp.matcher_mut().inner.enable_profiling();
        }
        let rete_work = |i: &Interpreter<Timed<ReteMatcher>>| {
            let m = &i.matcher().inner;
            Work::from_rete(&m.stats(), m.resident_index_entries())
        };
        let base = rete_work(&interp);
        let base_changes = interp.stats().wme_changes;

        for _ in 0..limit {
            let size = interp.conflict_set().len();
            if let Some(t) = tracer {
                t.set_cycle(out.cycle_ns.len() as u32 + 1);
            }
            let (outcome, ns) = timed(tracer, "cycle", || interp.cycle());
            match outcome {
                Ok(CycleOutcome::Fired(inst)) => sum.instantiation(&inst),
                Ok(CycleOutcome::Quiescent) => {
                    out.quiescent = true;
                    break;
                }
                Ok(CycleOutcome::Halted) => break,
                Err(_) => out.failed += 1,
            }
            out.cycle_ns.push(ns);
            candidates += size as u64;
            size_peak = size_peak.max(size);
            if out.cycle_ns.len() % MARK_EVERY == 0 {
                out.marks.push(sum.value());
            }
        }
        out.changes += interp.stats().wme_changes - base_changes;
        work.merge(&rete_work(&interp).since(&base));
        if let Some(p) = interp.phase_profile() {
            for (total, ns) in phases.iter_mut().zip(p.totals_ns()) {
                *total += ns;
            }
        }
        if let Some(ns) = kind_ns(&interp.matcher().inner) {
            for (total, ns) in kinds.iter_mut().zip(ns) {
                *total += ns;
            }
        }
        if closure {
            out.output = Checksum::of_pairs(&reach_relation(&interp));
        }
    }
    out.marks.push(sum.value());
    if !closure {
        out.output = sum.value();
    }

    let cycles = out.cycle_ns.len().max(1) as f64;
    let cycle_total: u64 = out.cycle_ns.iter().sum();
    let changes = out.changes;
    work.report(changes, phases[Phase::Match as usize], true, &mut out);
    out.push("ops5.conflict.size_mean", candidates as f64 / cycles, true);
    out.push("ops5.conflict.size_peak", size_peak as f64, true);
    out.push(
        "ops5.interp.changes_per_firing",
        changes as f64 / cycles,
        true,
    );
    out.push(
        "ops5.interp.firings_per_s",
        cycles / (cycle_total.max(1) as f64 / 1e9),
        false,
    );
    if let Some(t) = tracer {
        report_spans(t, text.len(), phases, &mut out);
        out.push(
            "ops5.conflict.select_ns_per_candidate",
            phases[Phase::Select as usize] as f64 / candidates.max(1) as f64,
            false,
        );
        report_kind_shares(kinds, &mut out);
    }
    out
}

/// The `reach` relation in the interpreter's final working memory.
fn reach_relation<M: Matcher>(interp: &Interpreter<M>) -> BTreeSet<(i64, i64)> {
    let symbols = &interp.program().symbols;
    let (Some(reach), Some(from), Some(to)) = (
        symbols.lookup("reach"),
        symbols.lookup("from"),
        symbols.lookup("to"),
    ) else {
        return BTreeSet::new();
    };
    interp
        .working_memory()
        .by_class(reach)
        .filter_map(|(_, w)| match (w.get(from), w.get(to)) {
            (Some(Value::Int(a)), Some(Value::Int(b))) => Some((a, b)),
            _ => None,
        })
        .collect()
}

fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Runs the round described by `spec` in this process.
pub fn run_round(spec: &RoundSpec) -> RoundResult {
    let tracer = spec.traced.then(Tracer::default);
    let mut out = match spec.input {
        Input::Vt => stream_round(spec, tracer.as_ref()),
        Input::VtActing | Input::Closure => interp_round(spec, tracer.as_ref()),
    };
    if let (Some(t), Some(path)) = (&tracer, &spec.trace_out) {
        let name = format!("psmbench {} {}", spec.input.name(), spec.stack.name());
        std::fs::write(path, chrome_json(&name, &t.spans()))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    }
    out.rss_kb = vm_hwm_kb();
    out
}

impl RoundSpec {
    /// The child-process arguments that reproduce this spec.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "round".to_string(),
            "--input".into(),
            self.input.name().into(),
            "--stack".into(),
            self.stack.name().into(),
            "--size".into(),
            self.size.to_string(),
            "--seed".into(),
            self.seed.to_string(),
            "--traced".into(),
            u8::from(self.traced).to_string(),
        ];
        if let Some(path) = &self.trace_out {
            args.push("--trace-out".into());
            args.push(path.clone());
        }
        args
    }

    /// Parses the flags written by [`RoundSpec::to_args`] (without the
    /// leading `round`).
    pub fn from_args(args: &[String]) -> Result<RoundSpec, String> {
        let flag = |name: &str| -> Result<&str, String> {
            crate::flag_value(args, name).ok_or_else(|| format!("round: missing {name}"))
        };
        let number = |name: &str| -> Result<u64, String> {
            flag(name)?
                .parse()
                .map_err(|_| format!("round: {name} is not a whole number"))
        };
        Ok(RoundSpec {
            input: Input::parse(flag("--input")?).ok_or("round: unknown --input")?,
            stack: Stack::parse(flag("--stack")?).ok_or("round: unknown --stack")?,
            size: number("--size")? as usize,
            seed: number("--seed")?,
            traced: number("--traced")? != 0,
            trace_out: crate::flag_value(args, "--trace-out").map(str::to_string),
        })
    }
}

impl RoundResult {
    /// Line-oriented text form, parent ← child over stdout.
    pub fn to_text(&self) -> String {
        let join = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(" ");
        let mut s = String::new();
        s.push_str(&format!("setup_ns {}\n", join(&self.setup_ns)));
        s.push_str(&format!("cycle_ns {}\n", join(&self.cycle_ns)));
        s.push_str(&format!("marks {}\n", join(&self.marks)));
        s.push_str(&format!(
            "totals {} {} {} {} {}\n",
            self.changes,
            self.output,
            self.failed,
            u8::from(self.quiescent),
            self.rss_kb
        ));
        for r in &self.readings {
            let tag = if r.exact { "exact" } else { "measured" };
            s.push_str(&format!("{tag} {} {}\n", r.name, r.value));
        }
        s
    }

    /// Parses [`RoundResult::to_text`].
    pub fn from_text(text: &str) -> Result<RoundResult, String> {
        let mut out = RoundResult::default();
        let numbers = |rest: &str| -> Result<Vec<u64>, String> {
            rest.split_whitespace()
                .map(|t| t.parse().map_err(|_| format!("bad number {t:?}")))
                .collect()
        };
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "setup_ns" => {
                    out.setup_ns = numbers(rest)?
                        .try_into()
                        .map_err(|_| "setup_ns needs four phases")?
                }
                "cycle_ns" => out.cycle_ns = numbers(rest)?,
                "marks" => out.marks = numbers(rest)?,
                "totals" => {
                    let [changes, output, failed, quiescent, rss_kb]: [u64; 5] = numbers(rest)?
                        .try_into()
                        .map_err(|_| "totals needs five fields")?;
                    out.changes = changes;
                    out.output = output;
                    out.failed = failed;
                    out.quiescent = quiescent != 0;
                    out.rss_kb = rss_kb;
                }
                "exact" | "measured" => {
                    let (name, value) = rest.split_once(' ').ok_or("reading needs a value")?;
                    let value = value.parse().map_err(|_| format!("bad value {value:?}"))?;
                    out.push(name, value, key == "exact");
                }
                "" => {}
                other => return Err(format!("unknown line {other:?}")),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_text_round_trips() {
        let mut r = RoundResult {
            setup_ns: [1, 2, 0, 4],
            cycle_ns: vec![10, 20, 30],
            changes: 17,
            marks: vec![u64::MAX, 5],
            output: 99,
            failed: 1,
            quiescent: true,
            rss_kb: 4096,
            readings: Vec::new(),
        };
        r.push("rete.network.joins", 12.0, true);
        r.push("match.share", 0.123456789012, false);
        assert_eq!(RoundResult::from_text(&r.to_text()), Ok(r.clone()));
        assert_eq!(r.reading("match.share"), Some(0.123456789012));
        assert_eq!(r.setup_total_ns(), 7);
        assert!(RoundResult::from_text("bogus 1").is_err());
    }

    #[test]
    fn spec_args_round_trip() {
        let spec = RoundSpec {
            input: Input::VtActing,
            stack: Stack::Par2,
            size: 250,
            seed: 7,
            traced: true,
            trace_out: Some("out/t.json".into()),
        };
        let args = spec.to_args();
        assert_eq!(args[0], "round");
        assert_eq!(RoundSpec::from_args(&args[1..]), Ok(spec));
        assert!(RoundSpec::from_args(&["--input".into(), "nope".into()]).is_err());
    }

    #[test]
    fn checksum_sees_order_and_boundaries() {
        let word = |ws: &[u64]| {
            let mut c = Checksum::default();
            ws.iter().for_each(|w| c.word(*w));
            c.value()
        };
        assert_ne!(word(&[1, 2]), word(&[2, 1]));
        assert_ne!(word(&[1, 2]), word(&[1, 2, 0]));
        assert_eq!(word(&[3, 4]), word(&[3, 4]));
    }

    #[test]
    fn closure_graph_is_seeded_simple_and_strongly_connected() {
        let a = closure_edges(1, 50);
        assert_eq!(a, closure_edges(1, 50));
        assert_ne!(a, closure_edges(2, 50));
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|(x, y)| x != y && (0..50).contains(x)));
        assert_eq!(a.iter().collect::<BTreeSet<_>>().len(), 100);
        // Strongly connected, so every seed derives all 50² pairs.
        assert_eq!(crate::verify::reachability(&a).len(), 2500);
    }
}
