//! Pins the work the two-input-node kernel does, and the order the
//! interpreter fires in, on fixed inputs.
//!
//! The matchers' outputs are covered by the equivalence suites; this
//! pins their *effort*. The one-thread parallel constants were recorded
//! at the commit before `rete::kernel` existed (both engines still
//! carrying their own join loops), so a kernel edit that changes how
//! many candidates are scanned or tests evaluated fails here, not just
//! in a benchmark counter. The firing-order pins are the cross-commit
//! half of the benchmark's `marks`, which only ever compare rounds of
//! one binary.

use std::collections::BTreeSet;

use psm::core::{ParallelOptions, ParallelReteMatcher};
use psm::obs::Rng64;
use psm::ops5::{Instantiation, Interpreter, Wme};
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
    assert_eq!(
        (
            s.join_tests,
            s.pairs_scanned,
            s.conflict_changes,
            s.node_activations()
        ),
        (2528, 4718, 202, 18139),
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
    assert_eq!(
        (s.join_tests, s.pairs_scanned, s.tasks),
        (572, 2762, 18745),
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
    let (program, wmes) = programs::transitive_closure(&closure_edges(0, nodes)).unwrap();
    let matcher = ReteMatcher::compile(&program).unwrap();
    let mut interp = Interpreter::new(program, matcher);
    interp.enable_firing_log();
    interp.insert_all(wmes);
    interp.run(u64::MAX).unwrap();
    assert_eq!(interp.stats().firings, (nodes * nodes) as u64);
    interp
}

/// An unbucketed token memory cannot come back unnoticed: closure is
/// insert-only and its negative memories grow to `nodes²` entries, so a
/// full scan per right activation makes pairs per change quadratic in
/// the node count (6 643 at 80 nodes before the negative memories were
/// bucketed), while one bucket holds at most `nodes` entries.
#[test]
fn closure_scans_per_change_stay_linear_in_the_graph() {
    const NODES: u64 = 40;
    let interp = closed(NODES as usize);
    let s = interp.matcher().stats();
    assert_eq!((s.pairs_scanned, s.changes), (136_080, 1680), "{s:?}");
    assert!(s.pairs_scanned / s.changes <= 4 * NODES);
    assert_eq!(s.phantom_removes, 0);
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
