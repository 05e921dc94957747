//! Pins the work the two-input-node kernel does on a fixed input.
//!
//! The matchers' outputs are covered by the equivalence suites; this
//! pins their *effort*. The constants were recorded at the commit before
//! `rete::kernel` existed (both engines still carrying their own join
//! loops), so a kernel edit that changes how many candidates are
//! scanned or tests evaluated fails here, not just in a benchmark
//! counter.

use psm::core::{ParallelOptions, ParallelReteMatcher};
use psm::rete::ReteMatcher;
use psm::workloads::{GeneratedWorkload, Preset, WorkloadDriver};

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
    assert_eq!(
        (
            s.join_tests,
            s.pairs_scanned,
            s.conflict_changes,
            s.node_activations()
        ),
        (4477, 6667, 202, 18139),
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
