//! Runs the same workload through the sequential Rete, the
//! node-activation-parallel engine, and the production-parallel engine,
//! reporting wall-clock match times (the paper's VAX-11/784 experiment,
//! on whatever cores this machine has) — first as a stream of small
//! batches, which the engine runs through the sequential matcher on its
//! calling thread, then as one bulk batch, which it runs in phases and
//! wakes the helper threads for, then as batches of sizes on both sides
//! of the engine's phase threshold.
//!
//! ```sh
//! cargo run --release --example parallel_speedup
//! ```

use std::time::Instant;

use psm::core::{ParallelOptions, ParallelReteMatcher, ProductionParallelMatcher};
use psm::obs::Rng64;
use psm::ops5::{Change, Matcher, WorkingMemory};
use psm::rete::ReteMatcher;
use psm::workloads::{GeneratedWorkload, Preset, WorkloadDriver};

fn time_matcher<M: Matcher>(workload: &GeneratedWorkload, matcher: &mut M, cycles: u64) -> f64 {
    let mut driver = WorkloadDriver::new(workload.clone(), 42);
    driver.init(matcher);
    driver.run_cycles(matcher, cycles).match_time.as_secs_f64()
}

/// The bulk-batch row: 4× the vt initial working memory (4400 WMEs)
/// asserted as one batch, then retracted as one batch. Best of five per
/// stack; for the engine also Σ task execution time and Σ deque-lock
/// wait over all workers (`enable_timing`), which is where a second
/// thread's cost shows when wall time does not halve.
fn bulk_batch() -> Result<(), psm::ops5::Error> {
    let mut spec = Preset::Vt.spec();
    spec.wm_size *= 4;
    let workload = GeneratedWorkload::generate(spec)?;
    let mut wm = WorkingMemory::new();
    let adds: Vec<Change> = workload
        .initial_wm(&mut Rng64::new(7))
        .into_iter()
        .map(|wme| Change::Add(wm.add(wme).0))
        .collect();
    let removes: Vec<Change> = adds.iter().map(|c| Change::Remove(c.wme())).collect();
    let both = |m: &mut dyn Matcher| {
        let started = Instant::now();
        m.process(&wm, &adds);
        m.process(&wm, &removes);
        started.elapsed().as_secs_f64() * 1e3
    };
    println!(
        "\nbulk batch: {} adds in one batch, then {} removes in one batch (vt, best of 5)",
        adds.len(),
        removes.len()
    );
    let mut t_seq = f64::INFINITY;
    for _ in 0..5 {
        t_seq = t_seq.min(both(&mut ReteMatcher::compile(&workload.program)?));
    }
    println!("sequential rete:          {t_seq:8.2} ms  (baseline)");
    for threads in [1, 2] {
        let (mut best, mut exec_ms, mut lock_ms, mut wakes) = (f64::INFINITY, 0.0, 0.0, 0);
        for _ in 0..5 {
            let options = ParallelOptions {
                threads,
                share: true,
            };
            let mut par = ParallelReteMatcher::compile(&workload.program, options)?;
            par.enable_timing();
            let t = both(&mut par);
            if t < best {
                let w = par.worker_totals_merged();
                best = t;
                exec_ms = w.exec_ns as f64 / 1e6;
                lock_ms = w.lock_wait_ns as f64 / 1e6;
                wakes = par.pool_stats().helper_wakes;
            }
        }
        println!(
            "node-parallel ({threads} threads): {best:8.2} ms  (speedup {:.2}x; \
             sum exec {exec_ms:.1} ms, sum lock wait {lock_ms:.1} ms, helper wakes {wakes})",
            t_seq / best
        );
    }
    Ok(())
}

/// The batch-size sweep: on the vt initial working memory, 4400 fresh
/// WMEs asserted `size` at a time and each batch retracted again at
/// once, for every `size` in `SIZES`. Microseconds per change, best of
/// three per stack, and the helper wakes of a two-thread run — where
/// the engine's columns leave the sequential one is where it starts to
/// run a batch in phases.
fn batch_sweep() -> Result<(), psm::ops5::Error> {
    const SIZES: [usize; 9] = [8, 16, 32, 64, 128, 256, 512, 1024, 4400];
    let workload = GeneratedWorkload::generate(Preset::Vt.spec())?;
    let mut wm = WorkingMemory::new();
    let base: Vec<Change> = workload
        .initial_wm(&mut Rng64::new(7))
        .into_iter()
        .map(|wme| Change::Add(wm.add(wme).0))
        .collect();
    let fresh: Vec<_> = (0..4)
        .flat_map(|k| workload.initial_wm(&mut Rng64::new(100 + k)))
        .map(|wme| wm.add(wme).0)
        .collect();
    let per_change = |m: &mut dyn Matcher, size: usize| {
        // Loaded in short batches, which wake nobody.
        for load in base.chunks(8) {
            m.process(&wm, load);
        }
        let started = Instant::now();
        for chunk in fresh.chunks(size) {
            let adds: Vec<Change> = chunk.iter().map(|&id| Change::Add(id)).collect();
            let removes: Vec<Change> = chunk.iter().map(|&id| Change::Remove(id)).collect();
            m.process(&wm, &adds);
            m.process(&wm, &removes);
        }
        started.elapsed().as_secs_f64() * 1e6 / (2 * fresh.len()) as f64
    };
    println!(
        "\nbatch sweep: {} fresh WMEs asserted and retracted in batches of n (vt, µs per change, best of 3)",
        fresh.len()
    );
    println!(
        "{:>6}  {:>10}  {:>10}  {:>10}  {:>6}",
        "n", "sequential", "1 thread", "2 threads", "wakes"
    );
    for size in SIZES {
        let mut best = [f64::INFINITY; 3];
        let mut wakes = 0;
        for _ in 0..3 {
            let mut seq = ReteMatcher::compile(&workload.program)?;
            best[0] = best[0].min(per_change(&mut seq, size));
            for threads in [1, 2] {
                let options = ParallelOptions {
                    threads,
                    share: true,
                };
                let mut par = ParallelReteMatcher::compile(&workload.program, options)?;
                best[threads] = best[threads].min(per_change(&mut par, size));
                wakes = par.pool_stats().helper_wakes;
            }
        }
        let [seq, one, two] = best;
        println!("{size:>6}  {seq:>10.2}  {one:>10.2}  {two:>10.2}  {wakes:>6}");
    }
    Ok(())
}

fn main() -> Result<(), psm::ops5::Error> {
    let cycles = 150;
    let workload = GeneratedWorkload::generate(Preset::Daa.spec_small())?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload: {}  ({} cores available)",
        workload.spec.name, cores
    );

    let mut seq = ReteMatcher::compile(&workload.program)?;
    let t_seq = time_matcher(&workload, &mut seq, cycles);
    println!(
        "sequential rete:          {:8.2} ms  (baseline)",
        t_seq * 1e3
    );

    for threads in [1, 2, cores.max(2)] {
        let mut par = ParallelReteMatcher::compile(
            &workload.program,
            ParallelOptions {
                threads,
                share: true,
            },
        )?;
        let t = time_matcher(&workload, &mut par, cycles);
        println!(
            "node-parallel ({threads} threads): {:8.2} ms  (speedup {:.2}x)",
            t * 1e3,
            t_seq / t
        );
    }

    let mut pp = ProductionParallelMatcher::compile(&workload.program, cores.max(2))?;
    let t = time_matcher(&workload, &mut pp, cycles);
    println!(
        "production-parallel:      {:8.2} ms  (speedup {:.2}x, imbalance {:.2})",
        t * 1e3,
        t_seq / t,
        pp.imbalance()
    );
    bulk_batch()?;
    batch_sweep()?;
    println!(
        "\nNote: with ~50-100-instruction tasks, software scheduling overhead eats much of\n\
         the gain — exactly the paper's argument for a hardware task scheduler (§5). The\n\
         engine therefore runs a batch in phases, waking its helper threads, only from\n\
         1024 changes on (the bulk row; the sweep shows where phases start to pay); a\n\
         stream of small batches runs through the sequential matcher on the calling thread."
    );
    Ok(())
}
