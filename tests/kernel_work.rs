//! Pins the work the two-input-node kernel does, and the order the
//! interpreter fires in, on fixed inputs.
//!
//! The matchers' outputs are covered by the equivalence suites; this
//! pins their *effort*: a kernel edit that changes how many candidates
//! are scanned or tests evaluated fails here, not just in a benchmark
//! counter. The engine runs a stream of short batches through the
//! sequential matcher's loop, so it is held to the sequential
//! constants. The firing-order pins are the cross-commit
//! half of the benchmark's `marks`, which only ever compare rounds of
//! one binary.

use std::collections::{BTreeSet, HashMap};

use psm::baselines::NaiveMatcher;
use psm::core::{ParallelOptions, ParallelReteMatcher};
use psm::obs::Rng64;
use psm::ops5::{
    parse_program, parse_wme, Change, Instantiation, Interpreter, MatchDelta, Matcher, Program,
    Value, Wme, WorkingMemory,
};
use psm::rete::kernel::fingerprint;
use psm::rete::ReteMatcher;
use psm::workloads::{programs, GeneratedWorkload, Preset, WorkloadDriver};

const SEED: u64 = 0x5EED;
const CYCLES: u64 = 200;

fn driver() -> WorkloadDriver {
    let workload = GeneratedWorkload::generate(Preset::Vt.spec_small()).unwrap();
    WorkloadDriver::new(workload, SEED)
}

#[test]
fn sequential_work_is_pinned() {
    let mut driver = driver();
    let mut matcher = ReteMatcher::compile(&driver.workload().program).unwrap();
    driver.init(&mut matcher);
    driver.run_cycles(&mut matcher, CYCLES);
    let s = matcher.stats();
    // Re-pinned once, when negative nodes' own token memories were
    // bucketed by their index key: a negative right activation scans one
    // bucket instead of the whole memory, so `join_tests` and
    // `pairs_scanned` both fell by the 1949 pairs whose first equality
    // test used to fail (4477 / 6667 before). The activation flow —
    // `conflict_changes`, `node_activations` — is the same.
    // Re-pinned once more when a join under a negative node began to
    // probe that node's chain instead of filtering its whole memory for
    // unblocked tokens: (2528, 4718) before. The tokens it sends on, and
    // so every memory and delta downstream, are the same, in the same
    // order.
    assert_eq!(
        (
            s.join_tests,
            s.pairs_scanned,
            s.conflict_changes,
            s.node_activations()
        ),
        (578, 2768, 202, 18139),
        "sequential work moved: {s:?}"
    );
    assert_eq!(s.phantom_removes, 0);
}

#[test]
fn one_thread_parallel_work_is_pinned() {
    let mut driver = driver();
    let options = ParallelOptions {
        threads: 1,
        share: true,
    };
    let mut matcher = ParallelReteMatcher::compile(&driver.workload().program, options).unwrap();
    driver.init(&mut matcher);
    driver.run_cycles(&mut matcher, CYCLES);
    let s = matcher.stats();
    // Every batch of the stream is shorter than the engine's phase
    // threshold, so it runs through the sequential matcher's own loop
    // and dispatches no task: the work is the sequential work pinned
    // above — join tests, pairs scanned and node activations. What the
    // phases do on this stream, (591, 2781, 8951) join tests, pairs and
    // tasks, is pinned by `engine::tests::one_thread_phase_work_is_pinned`.
    // Re-pinned with the sequential pin above, from (2528, 4718), when a
    // join under a negative node began to probe that node's chain.
    assert_eq!(
        (s.join_tests, s.pairs_scanned, s.loop_activations, s.tasks),
        (578, 2768, 18139, 0),
        "parallel work moved: {s:?}"
    );
}

/// The `closure` workload's input (`benchmark/src/round.rs`): a seeded
/// random Hamiltonian cycle plus one random chord per node, so the
/// closure is `nodes²` pairs whatever the seed.
fn closure_edges(seed: u64, nodes: usize) -> Vec<(i64, i64)> {
    let mut rng = Rng64::new(0x6A4F ^ seed);
    let mut order: Vec<i64> = (0..nodes as i64).collect();
    for i in (1..nodes).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut edges: Vec<(i64, i64)> = (0..nodes)
        .map(|i| (order[i], order[(i + 1) % nodes]))
        .collect();
    let mut seen: BTreeSet<(i64, i64)> = edges.iter().copied().collect();
    for from in 0..nodes as i64 {
        loop {
            let to = rng.gen_range(0..nodes as i64);
            if to != from && seen.insert((from, to)) {
                edges.push((from, to));
                break;
            }
        }
    }
    edges
}

/// Transitive closure of the seed-0 graph of `nodes` nodes, run to
/// quiescence with the firing log on.
fn closed(nodes: usize) -> Interpreter<ReteMatcher> {
    closed_by(nodes, |program| ReteMatcher::compile(program).unwrap())
}

fn closed_by<M: Matcher>(nodes: usize, compile: impl FnOnce(&Program) -> M) -> Interpreter<M> {
    let (program, wmes) = programs::transitive_closure(&closure_edges(0, nodes)).unwrap();
    let matcher = compile(&program);
    let mut interp = Interpreter::new(program, matcher);
    interp.enable_firing_log();
    interp.insert_all(wmes);
    interp.run(u64::MAX).unwrap();
    assert_eq!(interp.stats().firings, (nodes * nodes) as u64);
    interp
}

/// What the paper promises of a state-saving matcher (§3.1): the work
/// of a change does not grow with what is resident. Closure is
/// insert-only and its negative memory grows to `nodes²` entries; both
/// variables of `tc-extend`'s negated CE are bound, so a chain of its
/// two-part key holds the one token a `reach` WME can block — not the
/// `nodes` tokens sharing its `^from` (81 pairs a change at 40 nodes
/// while the key was the first equality test alone), let alone the
/// whole memory (6 643 at 80 nodes before negative memories were
/// bucketed). Neither a wider graph nor the other runtime moves it.
#[test]
fn closure_scans_per_change_stay_linear_in_the_graph() {
    let interp = closed(40);
    let s = interp.matcher().stats();
    // Re-pinned once, when a node's index key became every equality
    // test it has (136 080 pairs and 265 600 join tests before): the
    // pairs no longer scanned are exactly the ones whose second
    // equality test failed, so the activation flow is the same.
    assert_eq!(
        (s.pairs_scanned, s.join_tests, s.changes),
        (8_160, 9_760, 1_680),
        "{s:?}"
    );
    assert_eq!((s.tokens_created, s.conflict_changes), (4_880, 3_550));
    assert_eq!(s.phantom_removes, 0);
    let small = closed(20).matcher().stats();
    for s in [small, s] {
        assert!(s.pairs_scanned <= 6 * s.changes, "{s:?}");
    }

    // No psmbench workload runs a node with two equality tests through
    // the engine: both runtimes key it through the same two readers, so
    // they scan the same candidates.
    let options = ParallelOptions {
        threads: 1,
        share: true,
    };
    let parallel = closed_by(40, |program| {
        ParallelReteMatcher::compile(program, options).unwrap()
    });
    let p = parallel.matcher().stats();
    assert_eq!(
        (p.pairs_scanned, p.join_tests),
        (s.pairs_scanned, s.join_tests),
        "{p:?}"
    );
}

/// FNV-1a over the fired instantiations, in order.
fn fnv(hash: &mut u64, log: &[Instantiation]) {
    let mut word = |w: u64| {
        for byte in w.to_le_bytes() {
            *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for inst in log {
        word(u64::from(inst.production.0));
        word(inst.wmes.len() as u64);
        for id in &inst.wmes {
            word(id.index() as u64);
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The interpreter fires the same instantiations in the same order: the
/// hashes were recorded at the commit before negative memories were
/// bucketed, on the inputs of the two `Interpreter` workloads of
/// `BENCHMARK.json` (seed 0). A change to conflict resolution, or to
/// what the matcher reports, that moves them changed behaviour.
#[test]
fn firing_order_is_pinned() {
    let mut hash = FNV_OFFSET;
    fnv(&mut hash, closed(80).firing_log());
    assert_eq!(hash, 0xf475_7a86_47ff_f98d, "closure firing order moved");

    // The first six `vt-acting` episodes: fifty firings each, a fresh
    // interpreter on its own seeded working memory.
    let workload = GeneratedWorkload::generate(Preset::Vt.spec_acting()).unwrap();
    let mut hash = FNV_OFFSET;
    let mut fired = 0;
    for k in 0..6u64 {
        let sub = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let wmes: Vec<Wme> = workload.initial_wm(&mut Rng64::new(0x5EED ^ sub));
        let matcher = ReteMatcher::compile(&workload.program).unwrap();
        let mut interp = Interpreter::new(workload.program.clone(), matcher);
        interp.enable_firing_log();
        interp.insert_all(wmes);
        fired += interp.run(50).unwrap();
        fnv(&mut hash, interp.firing_log());
    }
    assert_eq!(fired, 300);
    assert_eq!(hash, 0xee53_f28c_5df3_192d, "vt-acting firing order moved");
}

/// Two unequal `(from, to)` tuples with one fingerprint, by birthday
/// search: some 10⁵ draws against 32 bits.
fn colliding_tuples() -> [(i64, i64); 2] {
    let key = |(a, c): (i64, i64)| fingerprint([a, c].map(|v| Some(Value::Int(v))));
    let mut rng = Rng64::new(0xB1D7);
    let mut seen: HashMap<u32, (i64, i64)> = HashMap::new();
    loop {
        let tuple = (rng.gen_range(0..1i64 << 20), rng.gen_range(0..1i64 << 20));
        match seen.insert(key(tuple).expect("both parts readable"), tuple) {
            Some(other) if other != tuple => return [other, tuple],
            _ => {}
        }
    }
}

/// A `tc-extend`-shaped rule over `first` and `second` as its `(<a>,
/// <c>)` bindings: a token for each, a blocking `reach` WME for each, a
/// second token for `first`, and `first`'s blocker retracted. Returns
/// the conflict-set stream and the matcher that produced it.
fn blocked_and_unblocked<M: Matcher>(
    matcher: impl FnOnce(&Program) -> M,
    [first, second]: [(i64, i64); 2],
) -> (Vec<MatchDelta>, M) {
    let src = "(p extend (reach ^from <a> ^to <b>) (edge ^from <b> ^to <c>)
                 - (reach ^from <a> ^to <c>) --> (halt))";
    let mut program = parse_program(src).unwrap();
    let mut matcher = matcher(&program);
    let mut wm = WorkingMemory::new();
    let mut stream = Vec::new();
    // Way points no tuple value can equal, so nothing else joins.
    let (via_first, via_second) = (-1, -2);
    let lits = [
        format!("(reach ^from {} ^to {via_first})", first.0),
        format!("(edge ^from {via_first} ^to {})", first.1),
        format!("(reach ^from {} ^to {via_second})", second.0),
        format!("(edge ^from {via_second} ^to {})", second.1),
        format!("(reach ^from {} ^to {})", first.0, first.1),
        format!("(reach ^from {} ^to {})", second.0, second.1),
        format!("(edge ^from {via_first} ^to {})", first.1),
    ];
    let mut ids = Vec::new();
    for lit in lits {
        let (id, _) = wm.add(parse_wme(&lit, &mut program.symbols).unwrap());
        stream.push(matcher.process(&wm, &[Change::Add(id)]));
        ids.push(id);
    }
    stream.push(matcher.process(&wm, &[Change::Remove(ids[4])]));
    wm.remove(ids[4]);
    for delta in &mut stream {
        delta.canonicalize();
    }
    (stream, matcher)
}

/// Unequal key tuples that share a fingerprint share a chain, and every
/// candidate on it still goes through the join tests: a collision costs
/// the pairs it puts in front of an activation and never a match.
#[test]
fn a_fingerprint_collision_costs_scanned_pairs_never_a_match() {
    let colliding = colliding_tuples();
    assert_ne!(colliding[0], colliding[1]);
    // The same shape over two tuples that share nothing.
    let apart = [colliding[0], (colliding[1].0, colliding[1].1 + 1)];

    let rete = |program: &Program| ReteMatcher::compile(program).unwrap();
    let (stream, matcher) = blocked_and_unblocked(rete, colliding);
    let (control, control_matcher) = blocked_and_unblocked(rete, apart);
    let naive = |tuples| blocked_and_unblocked(NaiveMatcher::new, tuples).0;
    assert_eq!(stream, naive(colliding));
    assert_eq!(control, naive(apart));
    let changes = |stream: &[MatchDelta]| -> Vec<_> {
        let sizes = |d: &MatchDelta| (d.added.len(), d.removed.len());
        stream.iter().map(sizes).collect()
    };
    let expected = [
        (0, 0),
        (1, 0),
        (0, 0),
        (1, 0),
        (0, 1),
        (0, 1),
        (0, 0),
        (2, 0),
    ];
    assert_eq!(changes(&stream), expected);
    assert_eq!(changes(&control), expected);

    // Apart, every chain holds exactly what its probe matches, so every
    // scanned pair is a hit: one per token a join emits (7 built, 1
    // retracted), one per token a `reach` WME blocks or unblocks (4)
    // and one for the blocker the second `first` token arrives to find.
    let control_work = control_matcher.stats();
    assert_eq!(
        (control_work.pairs_scanned, control_work.tokens_created),
        (13, 8)
    );
    // Colliding, four activations meet one entry of the other tuple
    // each: either blocker the other's token, the second `first` token
    // the other's blocker, and the retraction the other's token again.
    let work = matcher.stats();
    assert_eq!((work.pairs_scanned, work.tokens_created), (13 + 4, 8));

    // The engine probes the same candidates through the same readers.
    let options = ParallelOptions {
        threads: 1,
        share: true,
    };
    let engine = |program: &Program| ParallelReteMatcher::compile(program, options).unwrap();
    let (parallel, engine) = blocked_and_unblocked(engine, colliding);
    assert_eq!(parallel, stream);
    assert_eq!(engine.stats().pairs_scanned, work.pairs_scanned);
}
