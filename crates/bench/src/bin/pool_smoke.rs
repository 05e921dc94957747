//! Pool smoke gate: the work-first worker pool must come up, match,
//! and tear down cleanly at every supported width on every preset.
//!
//! For each `threads` in {2, 8, 32} and every workload preset this
//! compiles a [`ParallelReteMatcher`] on a working memory of
//! [`BULK_WM`] WMEs, drives it through a batch stream plus one bulk
//! batch — the whole working memory retracted at once, past the
//! engine's 1 024-change phase threshold — so both scheduling paths run
//! (the caller alone, and seeds dealt over every deque with the helpers
//! woken), and asserts the pool lifecycle contract:
//!
//! * no worker panics escape (`take_faults() == 0` with no plan set);
//! * the pool spawns exactly `threads − 1` helpers for the matcher's
//!   whole lifetime (`spawned == threads − 1`, `respawns == 0`) — the
//!   calling thread is worker 0;
//! * every helper is still live at the end (`live == threads − 1`);
//! * the small batches of the stream woke nobody (`helper_wakes == 0`
//!   before the bulk batch), and the bulk batch woke the helpers
//!   (`helper_wakes > 0` after it);
//! * dropping the matcher joins the crew: the process thread count
//!   (from `/proc/self/status`) returns to its pre-run level, so a
//!   deadlocked or leaked helper fails the gate instead of lingering.
//!
//! Deadlocks are caught by the CI job's step timeout: a helper stuck
//! in the enter/close protocol or the drain loop hangs this binary.
//!
//! ```sh
//! cargo run --release -p psm-bench --bin pool_smoke
//! ```

use ops5::{Change, Matcher};
use psm_bench::print_table;
use psm_core::{ParallelOptions, ParallelReteMatcher};
use workloads::{GeneratedWorkload, Preset, WorkloadDriver};

const WIDTHS: [usize; 3] = [2, 8, 32];
const CYCLES: u64 = 12;
/// Initial working memory of every preset: enough that the bulk
/// retraction, after `CYCLES` batches of drift, still holds more than
/// the 1 024 changes from which the engine runs a batch in phases.
const BULK_WM: usize = 1200;

/// Current thread count of this process, from `/proc/self/status`.
/// Returns `None` off Linux (the join check is then skipped; the
/// lifecycle asserts still run).
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Waits briefly for the process thread count to drop back to
/// `baseline`: `Drop` joins the crew synchronously, but the kernel may
/// report an exiting thread for a moment after `join` returns.
fn settled_thread_count(baseline: usize) -> Option<usize> {
    let mut now = process_threads()?;
    for _ in 0..50 {
        if now <= baseline {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        now = process_threads()?;
    }
    Some(now)
}

fn smoke(preset: Preset, threads: usize) -> Vec<String> {
    let mut spec = preset.spec_small();
    spec.wm_size = BULK_WM;
    let workload = GeneratedWorkload::generate(spec).expect("workload generates");
    let baseline = process_threads();

    let mut matcher = ParallelReteMatcher::compile(
        &workload.program,
        ParallelOptions {
            threads,
            ..ParallelOptions::default()
        },
    )
    .expect("program compiles");
    let mut driver = WorkloadDriver::new(workload, 0x5E0C + threads as u64);
    driver.init(&mut matcher);
    driver.run_cycles(&mut matcher, CYCLES);
    assert_eq!(
        matcher.pool_stats().helper_wakes,
        0,
        "{} t{threads}: a small batch woke the helpers",
        preset.name()
    );
    // One bulk batch: retract the whole working memory at once.
    let bulk: Vec<Change> = driver
        .working_memory()
        .iter()
        .map(|(id, _, _)| Change::Remove(id))
        .collect();
    assert!(
        bulk.len() >= 1024,
        "{} t{threads}: the bulk batch holds {} changes, under the phase threshold",
        preset.name(),
        bulk.len()
    );
    // A phase wakes only helpers that are parked, and a helper parks
    // once the host first runs it, which a loaded host (a build beside
    // this run) can put off past the stream: give it the time.
    std::thread::sleep(std::time::Duration::from_millis(50));
    matcher.process(driver.working_memory(), &bulk);
    assert_eq!(
        matcher.stats().phased_batches,
        1,
        "{} t{threads}: the bulk batch ran on the loop",
        preset.name()
    );
    assert!(
        matcher.pool_stats().helper_wakes > 0,
        "{} t{threads}: the bulk batch woke no helper",
        preset.name()
    );
    assert_eq!(
        matcher.resident_tokens(),
        0,
        "{} t{threads}: tokens left after retracting everything",
        preset.name()
    );

    assert_eq!(
        matcher.take_faults(),
        0,
        "{} t{threads}: a worker panicked with no fault plan set",
        preset.name()
    );
    let stats = matcher.pool_stats();
    assert_eq!(
        stats.spawned,
        threads as u64 - 1,
        "{} t{threads}: pool must spawn exactly once per helper per matcher lifetime",
        preset.name()
    );
    assert_eq!(
        stats.respawns,
        0,
        "{} t{threads}: no worker died, so nothing should have been respawned",
        preset.name()
    );
    assert_eq!(
        stats.live,
        threads - 1,
        "{} t{threads}: every helper must still be live (the caller is worker 0)",
        preset.name()
    );
    let total = matcher.worker_totals_merged();

    drop(matcher);
    let joined = match baseline {
        Some(before) => {
            let after = settled_thread_count(before).unwrap_or(usize::MAX);
            assert!(
                after <= before,
                "{} t{threads}: {} thread(s) leaked past drop (before {before}, after {after})",
                preset.name(),
                after - before
            );
            "yes".to_string()
        }
        None => "n/a".to_string(),
    };

    vec![
        preset.name().to_string(),
        threads.to_string(),
        total.tasks.to_string(),
        total.steals.to_string(),
        stats.helper_wakes.to_string(),
        stats.spawned.to_string(),
        stats.live.to_string(),
        joined,
    ]
}

fn main() {
    let mut rows = Vec::new();
    for &threads in &WIDTHS {
        for preset in Preset::all() {
            rows.push(smoke(preset, threads));
        }
    }
    print_table(
        &format!("pool smoke: {CYCLES} cycles per preset, widths {WIDTHS:?}"),
        &[
            "system", "threads", "tasks", "steals", "wakes", "spawned", "live", "joined",
        ],
        &rows,
    );
    println!(
        "\nall {} runs clean: spawn count == threads - 1 per matcher lifetime, \
         no wake on small batches, a wake on the bulk batch, no panics, no leaked threads.",
        rows.len()
    );
}
