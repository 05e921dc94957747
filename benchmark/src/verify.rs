//! Independent references the rounds' outputs are checked against.
//!
//! Each reference computes the same function a different way: TREAT
//! (alpha memories only, joins recomputed per change) for the `vt`
//! stream and, under the interpreter, for `vt-acting`; a plain
//! breadth-first search for `closure`. References run once per
//! invocation in the parent, untimed except where noted. (The naive
//! matcher would be the more independent oracle for `vt-acting`, but it
//! rematches all 330 rules on every one of the ~1700 WM changes of the
//! load and the prefix, which takes minutes.)

use std::collections::BTreeSet;
use std::time::Instant;

use baselines::TreatMatcher;
use ops5::{CycleOutcome, Interpreter, Matcher};

use crate::round::{
    acting_episodes, closure_edges, vt_driver, vt_workload, Checksum, Input, EPISODE_FIRINGS,
    MARK_EVERY,
};

/// Cycles of the `vt` stream the TREAT oracle covers.
const STREAM_PREFIX: usize = 500;
/// Firings of `vt-acting` the TREAT-under-interpreter oracle covers.
const ACTING_PREFIX: usize = 300;

/// What the rounds must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// Index into a round's `marks` the checksum is compared with;
    /// `None` compares the round's final `output` instead.
    pub mark: Option<usize>,
    /// Cycles the reference covers.
    pub cycles: usize,
    /// The reference checksum.
    pub checksum: u64,
    /// Time the reference matcher spent matching, nanoseconds (the
    /// TREAT side of `baselines.treat.slowdown_x`; 0 elsewhere).
    pub match_ns: u64,
}

/// The longest prefix ending on a mark of a `size`-cycle run not above
/// `want`, with the index of the mark taken at its end.
fn prefix(size: usize, want: usize) -> (usize, usize) {
    if size < MARK_EVERY {
        return (size, 0);
    }
    let cycles = want.min(size) / MARK_EVERY * MARK_EVERY;
    (
        cycles.max(MARK_EVERY),
        cycles.max(MARK_EVERY) / MARK_EVERY - 1,
    )
}

/// Computes the reference for `input` at `size` and `seed`. With
/// `corrupt` the checksum is deliberately wrong, to prove that a
/// verification failure is seen and counted.
pub fn reference(input: Input, size: usize, seed: u64, corrupt: bool) -> Reference {
    let mut r = match input {
        Input::Vt => stream_reference(size, seed),
        Input::VtActing => acting_reference(size, seed),
        Input::Closure => closure_reference(size, seed),
    };
    if corrupt {
        r.checksum ^= 1;
    }
    r
}

fn stream_reference(size: usize, seed: u64) -> Reference {
    let (cycles, mark) = prefix(size, STREAM_PREFIX);
    let mut driver = vt_driver(seed);
    let mut treat = TreatMatcher::compile(&driver.workload().program).expect("compiles");
    driver.init(&mut treat);
    let mut sum = Checksum::default();
    let mut match_ns = 0;
    for _ in 0..cycles {
        let batch = driver.next_batch();
        let start = Instant::now();
        let delta = treat.process(driver.working_memory(), &batch);
        match_ns += start.elapsed().as_nanos() as u64;
        driver.commit_batch(&batch);
        sum.delta(delta);
    }
    Reference {
        mark: Some(mark),
        cycles,
        checksum: sum.value(),
        match_ns,
    }
}

/// The first episodes of `vt-acting`, fired by the interpreter over
/// TREAT.
fn acting_reference(size: usize, seed: u64) -> Reference {
    let (cycles, mark) = prefix(size, ACTING_PREFIX);
    let workload = vt_workload(true);
    let mut sum = Checksum::default();
    let mut fired = 0;
    for wmes in acting_episodes(&workload, size, seed) {
        let treat = TreatMatcher::compile(&workload.program).expect("compiles");
        let mut interp = Interpreter::new(workload.program.clone(), treat);
        interp.insert_all(wmes);
        for _ in 0..EPISODE_FIRINGS.min(cycles - fired) {
            match interp.cycle() {
                Ok(CycleOutcome::Fired(inst)) => sum.instantiation(&inst),
                _ => break,
            }
            fired += 1;
        }
        if fired == cycles {
            break;
        }
    }
    Reference {
        mark: Some(mark),
        cycles,
        checksum: sum.value(),
        match_ns: 0,
    }
}

/// All pairs joined by a path of one or more edges.
pub fn reachability(edges: &[(i64, i64)]) -> BTreeSet<(i64, i64)> {
    let mut pairs = BTreeSet::new();
    let sources: BTreeSet<i64> = edges.iter().map(|e| e.0).collect();
    for &source in &sources {
        let mut frontier = vec![source];
        while let Some(node) = frontier.pop() {
            for &(_, next) in edges.iter().filter(|e| e.0 == node) {
                if pairs.insert((source, next)) {
                    frontier.push(next);
                }
            }
        }
    }
    pairs
}

fn closure_reference(nodes: usize, seed: u64) -> Reference {
    let pairs = reachability(&closure_edges(seed, nodes));
    Reference {
        mark: None,
        cycles: pairs.len(),
        checksum: Checksum::of_pairs(&pairs),
        match_ns: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_is_whole_segments_within_the_run() {
        assert_eq!(prefix(6000, 500), (500, 4));
        assert_eq!(prefix(1000, 500), (500, 4));
        assert_eq!(prefix(250, 500), (200, 1));
        assert_eq!(prefix(150, 300), (100, 0));
        assert_eq!(prefix(40, 300), (40, 0));
    }

    #[test]
    fn reachability_follows_paths_and_cycles() {
        let r = reachability(&[(1, 2), (2, 3), (3, 1), (3, 4)]);
        // 1, 2 and 3 sit on a cycle: each reaches all four nodes,
        // itself included; 4 reaches nothing.
        assert_eq!(r.len(), 12);
        assert!(r.contains(&(1, 1)) && r.contains(&(2, 4)));
        assert!(!r.iter().any(|p| p.0 == 4));
        assert!(reachability(&[]).is_empty());
    }

    #[test]
    fn corruption_changes_the_checksum() {
        let good = reference(Input::Closure, 20, 3, false);
        let bad = reference(Input::Closure, 20, 3, true);
        assert_ne!(good.checksum, bad.checksum);
        assert_eq!(good.cycles, bad.cycles);
    }
}
