//! Seeded chaos property: under a randomized fault plan, the supervised
//! engine converges to the fault-free state on every workload preset.
//!
//! For each preset this drives the [`psm::fault::Supervisor`] through a
//! change stream while a seeded [`psm::fault::FaultPlan`] injects worker
//! panics, dropped tasks, poisoned locks, and transient cycle faults,
//! then asserts the robustness contract:
//!
//! 1. **Convergence** — the recovered conflict set equals the one a
//!    never-faulted sequential Rete produces on the same stream.
//! 2. **Byte-exact recovery** — checkpoint + WAL replay rebuilds Rete
//!    memories identical (same bytes: same WME ids, time tags, token
//!    contents) to the fault-free matcher's snapshot.
//! 3. **Determinism** — the same plan seed yields the same fault
//!    schedule, the same degradation tier, and the same recovered state
//!    across two independent runs.
//! 4. **Clean drain** — retracting every WME from the recovered state
//!    leaves zero resident tokens (the `conjugate_properties` leak
//!    check, applied to a post-recovery matcher).

use std::sync::Arc;

use psm::fault::{FaultPlan, FaultReport, Supervisor, SupervisorConfig};
use psm::ops5::{Change, Instantiation, Matcher, WmeId, WorkingMemory};
use psm::rete::{Network, ReteMatcher};
use psm::workloads::{GeneratedWorkload, Preset, WorkloadDriver};

/// Folds matcher deltas into a conflict-set accumulator so the
/// reference run tracks the same state the supervisor maintains.
struct Collecting<'a> {
    inner: &'a mut ReteMatcher,
    conflict: &'a mut std::collections::HashSet<Instantiation>,
}

impl Collecting<'_> {
    fn fold(&mut self, d: psm::ops5::MatchDelta) {
        for i in &d.removed {
            self.conflict.remove(i);
        }
        for i in &d.added {
            self.conflict.insert(i.clone());
        }
    }
}

impl Matcher for Collecting<'_> {
    fn add_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> psm::ops5::MatchDelta {
        let d = self.inner.add_wme(wm, id);
        self.fold(d.clone());
        d
    }
    fn remove_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> psm::ops5::MatchDelta {
        let d = self.inner.remove_wme(wm, id);
        self.fold(d.clone());
        d
    }
    fn algorithm_name(&self) -> &'static str {
        "collecting"
    }
}

/// Fault-free sequential reference: same network, same driver seed,
/// same cycle count. Returns the matcher (for its snapshot) and the
/// sorted conflict set.
fn drive_reference(
    workload: &GeneratedWorkload,
    seed: u64,
    cycles: u64,
    network: &Arc<Network>,
) -> (ReteMatcher, Vec<Instantiation>) {
    let mut driver = WorkloadDriver::new(workload.clone(), seed);
    let mut matcher = ReteMatcher::from_network(network.clone());
    let mut conflict = std::collections::HashSet::new();
    let mut collecting = Collecting {
        inner: &mut matcher,
        conflict: &mut conflict,
    };
    driver.init(&mut collecting);
    for _ in 0..cycles {
        let batch = driver.next_batch();
        let delta = collecting.inner.process(driver.working_memory(), &batch);
        collecting.fold(delta);
        driver.commit_batch(&batch);
    }
    let mut sorted: Vec<_> = conflict.into_iter().collect();
    sorted.sort_by(|a, b| (a.production, &a.wmes).cmp(&(b.production, &b.wmes)));
    (matcher, sorted)
}

fn run_supervised(
    workload: &GeneratedWorkload,
    seed: u64,
    cycles: u64,
    plan: Arc<FaultPlan>,
) -> Supervisor {
    let config = SupervisorConfig {
        threads: 2,
        backoff: std::time::Duration::from_micros(10),
        checkpoint_every: 4,
        ..SupervisorConfig::default()
    };
    let mut driver = WorkloadDriver::new(workload.clone(), seed);
    let mut sup = Supervisor::new(&workload.program, config).expect("program compiles");
    sup.set_fault_plan(Some(plan));
    driver.init(&mut sup);
    for _ in 0..cycles {
        let batch = driver.next_batch();
        sup.process(driver.working_memory(), &batch);
        driver.commit_batch(&batch);
    }
    sup
}

/// Which worker first touches a poisoned lock is a thread race; every
/// other counter in the report is deterministic.
fn normalize(mut r: FaultReport) -> FaultReport {
    r.poison_recoveries = 0;
    r
}

/// Retracts every WME from the recovered state and asserts the matcher
/// holds zero resident tokens afterwards.
fn drain_recovered(sup: &mut Supervisor, preset: Preset) {
    let snapshot = sup.committed_snapshot();
    let mut matcher =
        ReteMatcher::restore(sup.network().clone(), &snapshot).expect("snapshot restores");
    let mut wm = WorkingMemory::restore_snapshot(&sup.committed_wm_bytes()).expect("wm restores");
    let ids: Vec<WmeId> = wm.iter().map(|(id, _, _)| id).collect();
    for chunk in ids.chunks(4) {
        let batch: Vec<Change> = chunk.iter().map(|&id| Change::Remove(id)).collect();
        matcher.process(&wm, &batch);
        for &id in chunk {
            wm.remove(id);
        }
    }
    assert_eq!(
        matcher.resident_tokens(),
        0,
        "{}: tokens leaked after draining the recovered state",
        preset.name()
    );
}

fn chaos_roundtrip(preset: Preset, plan_seed: u64, driver_seed: u64, cycles: u64) {
    let workload = GeneratedWorkload::generate(preset.spec_small()).expect("workload generates");
    let plan = Arc::new(FaultPlan::randomized(plan_seed, 64, 0.25));

    let mut sup = run_supervised(&workload, driver_seed, cycles, plan.clone());
    let mut twin = run_supervised(&workload, driver_seed, cycles, plan);

    // (3) determinism: same seed, same schedule, same outcome.
    assert_eq!(
        normalize(sup.report()),
        normalize(twin.report()),
        "{}: fault schedule must be deterministic",
        preset.name()
    );
    assert_eq!(sup.tier(), twin.tier(), "{}", preset.name());
    assert_eq!(sup.conflict_set(), twin.conflict_set(), "{}", preset.name());
    assert_eq!(
        sup.committed_snapshot().as_bytes(),
        twin.committed_snapshot().as_bytes(),
        "{}: recovered state must be deterministic",
        preset.name()
    );

    // (1) + (2) convergence to the fault-free reference, byte-for-byte.
    let (reference, conflict) = drive_reference(&workload, driver_seed, cycles, sup.network());
    assert_eq!(
        sup.conflict_set(),
        conflict,
        "{}: recovered conflict set diverged from fault-free run",
        preset.name()
    );
    assert_eq!(
        sup.committed_snapshot().as_bytes(),
        reference.snapshot().as_bytes(),
        "{}: checkpoint + WAL replay must be byte-exact",
        preset.name()
    );

    // (4) drain the recovered state to zero resident tokens.
    drain_recovered(&mut sup, preset);
}

#[test]
fn chaos_recovery_converges_on_every_preset() {
    for (i, preset) in Preset::all().iter().enumerate() {
        // Fixed seeds (CI chaos job depends on them): a distinct fault
        // schedule and change stream per preset.
        chaos_roundtrip(*preset, 0xC4A05 + i as u64, 0x5EED + i as u64, 10);
    }
}

#[test]
fn panic_worker_mid_phase_recovers_and_pool_survives() {
    use psm::core::{FaultAction, ParallelOptions, ParallelReteMatcher};

    let preset = Preset::EpSoar;
    let workload = GeneratedWorkload::generate(preset.spec_small()).expect("workload generates");
    // A targeted plan: kill exactly one worker mid-phase (phase 10 is
    // the add phase of the 5th batch; seq 0 is its first task). The
    // batch is small, so nobody is woken for it and the worker that
    // draws the kill is the calling thread itself, worker 0.
    let plan = Arc::new(FaultPlan::new(5).with_engine_fault(10, 0, FaultAction::PanicWorker));

    // Supervised: the kill degrades to the sequential tier and the
    // checkpoint + WAL recovery is byte-exact against the fault-free
    // reference — who drew the kill changes nothing about parity.
    let mut sup = run_supervised(&workload, 11, 10, plan.clone());
    let report = sup.report();
    assert!(report.engine_faults >= 1, "the planned kill fired");
    assert_eq!(
        report.worker_respawns, 0,
        "a kill drawn by the caller costs the task, not a thread"
    );
    let (reference, conflict) = drive_reference(&workload, 11, 10, sup.network());
    assert_eq!(sup.conflict_set(), conflict);
    assert_eq!(
        sup.committed_snapshot().as_bytes(),
        reference.snapshot().as_bytes(),
        "recovery after a mid-phase worker kill is byte-exact"
    );
    drain_recovered(&mut sup, preset);

    // Engine-level survival: the same plan on a raw parallel matcher.
    // The kill is contained (no unwind out of `process`) and counted,
    // its short batch runs none of its changes, and the pool keeps
    // matching for >= 3 subsequent batches with its one helper still
    // parked.
    let threads = 2;
    let mut m = ParallelReteMatcher::compile(
        &workload.program,
        ParallelOptions {
            threads,
            share: true,
        },
    )
    .expect("program compiles");
    m.set_fault_injector(Some(plan));
    let mut driver = WorkloadDriver::new(workload, 11);
    driver.init(&mut m);
    for _ in 0..8 {
        let batch = driver.next_batch();
        m.process(driver.working_memory(), &batch);
        driver.commit_batch(&batch);
    }
    assert_eq!(m.take_faults(), 1, "exactly the one planned kill");
    let s = m.pool_stats();
    assert_eq!(s.respawns, 0, "no thread died");
    assert_eq!(s.live, threads - 1, "the caller is worker 0 (no leak)");
    assert_eq!(s.spawned as usize, threads - 1, "helpers spawn once");
    assert_eq!(s.helper_wakes, 0, "small batches wake nobody");
}

#[test]
fn chaos_recovery_survives_a_hostile_fault_rate() {
    // One preset, much denser faults: every other cycle draws a fault.
    let preset = Preset::EpSoar;
    let workload = GeneratedWorkload::generate(preset.spec_small()).expect("workload generates");
    let plan = Arc::new(FaultPlan::randomized(0xBAD, 64, 0.5));
    let mut sup = run_supervised(&workload, 0x5EED, 12, plan);
    let (reference, conflict) = drive_reference(&workload, 0x5EED, 12, sup.network());
    assert_eq!(sup.conflict_set(), conflict);
    assert_eq!(
        sup.committed_snapshot().as_bytes(),
        reference.snapshot().as_bytes()
    );
    drain_recovered(&mut sup, preset);
}

/// Small batches before the bulk one: its supervised cycle.
const BULK: u64 = 60;

/// Feeds `feed` a stream with one batch the engine runs in phases:
/// `BULK` batches asserting four WMEs each, then 1 100 WMEs asserted
/// in one batch, then twelve small batches each retracting one WME and
/// asserting two.
fn bulk_stream(workload: &GeneratedWorkload, mut feed: impl FnMut(&WorkingMemory, &[Change])) {
    let mut wm = WorkingMemory::new();
    let mut rng = psm::obs::Rng64::new(0xB01C);
    let adds = |wm: &mut WorkingMemory, n: usize, rng: &mut psm::obs::Rng64| {
        let add = |_| Change::Add(wm.add(workload.gen_wme(rng)).0);
        (0..n).map(add).collect::<Vec<_>>()
    };
    for _ in 0..BULK {
        let batch = adds(&mut wm, 4, &mut rng);
        feed(&wm, &batch);
    }
    let bulk = adds(&mut wm, 1100, &mut rng);
    feed(&wm, &bulk);
    for k in 0..12 {
        let live: Vec<WmeId> = wm.iter().map(|(id, _, _)| id).collect();
        let mut batch = vec![Change::Remove(live[(k * 97) % live.len()])];
        batch.extend(adds(&mut wm, 2, &mut rng));
        feed(&wm, &batch);
        wm.remove(batch[0].wme());
    }
}

#[test]
fn an_engine_fault_inside_a_phased_bulk_batch_recovers_byte_exactly() {
    use psm::core::FaultAction;

    let preset = Preset::EpSoar;
    let workload = GeneratedWorkload::generate(preset.spec_small()).expect("workload generates");
    // Batch k runs phases 2k+1 (retractions) and 2k+2 (assertions): the
    // fault drops the first task of the bulk batch's add phase. A
    // dropped task kills no thread, so the report is the same whichever
    // of the two workers drew it.
    let plan =
        Arc::new(FaultPlan::new(3).with_engine_fault(2 * BULK + 2, 0, FaultAction::DropTask));
    let run = || {
        let config = SupervisorConfig {
            threads: 2,
            backoff: std::time::Duration::from_micros(10),
            checkpoint_every: 4,
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(&workload.program, config).expect("program compiles");
        sup.set_fault_plan(Some(plan.clone()));
        bulk_stream(&workload, |wm, batch| {
            sup.process(wm, batch);
        });
        sup
    };
    let mut sup = run();
    let mut twin = run();
    let report = sup.report();
    assert_eq!(report.engine_faults, 1, "the planned drop fired");
    assert_eq!(report.recoveries, 1);
    assert_eq!(normalize(report), normalize(twin.report()), "deterministic");
    assert_eq!(
        sup.committed_snapshot().as_bytes(),
        twin.committed_snapshot().as_bytes(),
        "twin runs recover the same bytes"
    );

    let mut reference = ReteMatcher::from_network(sup.network().clone());
    let mut conflict = std::collections::HashSet::new();
    bulk_stream(&workload, |wm, batch| {
        let delta = reference.process(wm, batch);
        Collecting {
            inner: &mut reference,
            conflict: &mut conflict,
        }
        .fold(delta);
    });
    let mut conflict: Vec<_> = conflict.into_iter().collect();
    conflict.sort_by(|a, b| (a.production, &a.wmes).cmp(&(b.production, &b.wmes)));
    assert_eq!(sup.conflict_set(), conflict, "converged");
    assert_eq!(
        sup.committed_snapshot().as_bytes(),
        reference.snapshot().as_bytes(),
        "recovery from a fault in the phases is byte-exact"
    );
    drain_recovered(&mut sup, preset);
}
