//! Fault-injection report: how the paper's 32-processor machine and the
//! real supervised engine degrade under injected faults.
//!
//! Three experiments, all fully seeded (same seeds every run):
//!
//! * **Kill sweep** — replay each preset's trace on the §6
//!   32-processor PSM while 1..=8 of the processors fail-stop at the
//!   half-makespan barrier. Reports surviving concurrency and true
//!   speed-up against the fault-free §6 baseline; the paper's
//!   concurrency numbers assume all 32 stay up.
//! * **Supervisor chaos** — run the real parallel engine under a
//!   randomized [`psm_fault::FaultPlan`] (worker panics, dropped tasks,
//!   poisoned locks, transient faults) and report the
//!   [`psm_fault::FaultReport`] counters plus the tier each preset
//!   finished on. Every run is verified against the fault-free
//!   conflict set before it is reported.
//!
//! * **Checkpoint cost** — a fault-free supervised run of the full vt
//!   stream with a replication store attached, every cycle timed from
//!   outside and split into checkpoint cycles and plain ones. The run
//!   fails (exit 1) when a checkpoint cycle's median exceeds
//!   [`MAX_CHECKPOINT_RATIO`] plain cycles. The store's publisher times
//!   itself on its own thread in that run: how long it writes each image
//!   (the matcher's unchanged sections copied from the tip's) and pushes
//!   it (checksum, diff against the tip, `PSMD`), summed, which gives the
//!   share of the run's checkpoint interval it is busy for; beside it,
//!   how often the matching thread had to wait for it. The same stream
//!   is then taken through the matching thread's steps of a checkpoint
//!   by hand, each step timed — it matches the batches, folds each
//!   batch's delta into the conflict set noting the working memory's and
//!   the set's changes, encodes the matcher's changed sections, lists
//!   the working memory's and the conflict set's changes, allocates the
//!   `PSMC` image's buffer and hands the draft to a store. The store's
//!   publisher writes every part of the image from the chain tip's, which
//!   its "PSMC image written" counts. A third run of the stream,
//!   through a supervisor with no store and timed nowhere, takes a
//!   census of the image's sections — how many there are, how many were
//!   encoded and how many bytes were copied instead — and times the
//!   CRC-32 of each image.
//!
//! * **Checkpoint after-effect** — what a checkpoint costs the cycles
//!   after it: the same stream through a supervisor with checkpoints
//!   every 8 cycles and through one with none, runs of the two
//!   interleaved, each cycle's minimum over its runs, summed over the
//!   cycles that are plain in both. The excess of the first sum over
//!   the second is the cache the checkpoint evicted being refilled
//!   (a checkpoint cycle is left out of both sums); the first cycle
//!   after a checkpoint pays most of it. Beside it, the heap bytes the
//!   matching thread requests in a checkpoint cycle.
//!
//! * **`PSMR` image census** — the bytes of the matcher snapshot every
//!   checkpoint serialises, diffs and checksums, by part (entries,
//!   chain links, chain heads, the rest) and the heads' bytes per
//!   chain, on the full-size vt stream after 1000 cycles and on the
//!   closed 80-node `closure` graph.
//!
//! Artifacts written to `--out DIR` (default `results/`):
//!
//! * `fault_report.json` — all five experiments, machine-readable.
//! * `ep-soar.faulted.trace.json` — Chrome trace of a faulted DES run
//!   (4 processors killed + a bus stall), fault marks included.
//!
//! ```sh
//! cargo run --release -p psm-bench --bin fault_report -- --small
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use std::time::Instant;

use ops5::{Change, Instantiation, MatchDelta, Matcher, WmMarks, WmeId, WorkingMemory};
use psm_bench::{capture, f, print_table, CliOptions};
use psm_fault::{
    crc32, ConflictMarks, Draft, FaultPlan, ReplicationConfig, ReplicationStore, Supervisor,
    SupervisorConfig, Updates,
};
use psm_obs::json::{number, push_escaped};
use psm_sim::{
    simulate_psm_faulted, simulate_psm_faulted_timeline, simulate_psm_timeline, CostModel, PsmSpec,
    SimFaults, SimResult,
};
use rete::ReteMatcher;
use workloads::{programs, GeneratedWorkload, Preset, WorkloadDriver};

/// Counts the heap bytes the calling thread requests while
/// [`requested`] runs; defers to the system allocator for everything.
struct Counting;

thread_local! {
    /// `Some(bytes)` while this thread is being counted.
    static REQUESTED: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count(bytes: usize) {
    REQUESTED.with(|c| c.set(c.get().map(|n| n + bytes as u64)));
}

// SAFETY: defers to `System` for every operation; the bookkeeping is a
// `const`-initialised thread-local `Cell` with no destructor, which
// neither allocates nor can be observed torn.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growth only: a doubling buffer is charged its final size.
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f()`, and the heap bytes this thread requested while it ran.
fn requested<T>(f: impl FnOnce() -> T) -> (T, u64) {
    REQUESTED.with(|c| c.set(Some(0)));
    let out = f();
    (out, REQUESTED.with(Cell::take).expect("still counting"))
}

const MAX_KILLS: usize = 8;
/// Ceiling on checkpoint-cycle median / plain-cycle median on the vt
/// stream: a third above the 2.98 measured (median of ten runs, 2.7–3.5;
/// 2.97 in ten more of builds with fixed code alignment) with a
/// checkpoint that costs the matching thread the sections of the
/// memories that changed, each written in bulk into a buffer it reuses,
/// the working memory's and the conflict set's changes — noted as each
/// batch is committed, listed at the checkpoint with no pass over either
/// — and an unwritten buffer for the `PSMC` image, and leaves the
/// image's writing — every part from its counterpart in the last image —
/// and the chain push, its CRC folded with carry-less multiplies, to the
/// store's publisher. (3.5, 3.1–4.5, the same day with the
/// working-memory image and the conflict list made whole on the
/// matching thread; 4.1, 3.7–4.6, an earlier day with the matcher's
/// snapshot and the `PSMC` serialisation there as well.) With the push
/// on the matching thread too, or on a host that gives the two threads
/// one core, the ratio read 16–21 with the table-driven CRC: rerun on
/// such a host before believing a trip.
const MAX_CHECKPOINT_RATIO: f64 = 4.0;

fn out_dir() -> String {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "results".to_string())
}

struct KillSweep {
    preset: &'static str,
    baseline: SimResult,
    /// `faulted[k-1]` = result with `k` processors killed mid-run.
    faulted: Vec<SimResult>,
}

struct ChaosRun {
    preset: &'static str,
    tier: &'static str,
    report: psm_fault::FaultReport,
    conflict_matches_fault_free: bool,
    /// Wall-clock microseconds for a checkpoint-restore + WAL-replay
    /// drill on the final state.
    recovery_us: u128,
    /// WAL entries that drill replayed.
    recovery_replayed: u64,
    /// Mean size of a full (`PSMC`) checkpoint artifact, bytes.
    full_bytes_mean: u64,
    /// Mean size of a delta (`PSMD`) checkpoint artifact, bytes.
    delta_bytes_mean: u64,
    /// full_bytes_mean / delta_bytes_mean (0 when no deltas shipped).
    delta_ratio: f64,
}

struct CheckpointCost {
    cycles: usize,
    checkpoints: usize,
    plain_cycle_p50_us: f64,
    checkpoint_cycle_p50_us: f64,
    /// Checkpoints that found the one before them still being pushed,
    /// and how long the matching thread waited for those in all.
    publish_waits: u64,
    publish_wait_us: f64,
    /// Mean microseconds per checkpoint the store's publisher spent on
    /// each of [`PUBLISHER_STEPS`], as it timed them.
    publisher_us: [f64; 2],
    /// Wall-clock microseconds of the timed cycles, over the checkpoints
    /// taken in them: the run's checkpoint interval.
    interval_us: f64,
}

impl CheckpointCost {
    fn ratio(&self) -> f64 {
        self.checkpoint_cycle_p50_us / self.plain_cycle_p50_us
    }

    /// The share of a checkpoint interval the publisher is busy for.
    fn publisher_busy_share(&self) -> f64 {
        self.publisher_us.iter().sum::<f64>() / self.interval_us
    }
}

/// The matching thread's steps of a checkpoint, in the order it takes
/// them.
const MATCHING_STEPS: [&str; 6] = [
    "live matching of the 8 batches",
    "conflict set folded, WM and conflict changes noted (8 commits)",
    "changed sections (PSMR update)",
    "WM and conflict changes listed",
    "draft: PSMC buffer allocated",
    "publish: hand-off",
];
/// The publisher's steps of a checkpoint, as the store times them.
const PUBLISHER_STEPS: [&str; 2] = ["PSMC image written", "chain push (CRC, diff, PSMD)"];

/// [`checkpoint_steps`]: medians over the checkpoints.
struct CheckpointSteps {
    checkpoints: usize,
    /// Median microseconds of each of [`MATCHING_STEPS`].
    step_us: [f64; 6],
    /// Memories (one image section each) and how many hold an entry, at
    /// the end of the run.
    sections: (usize, usize),
}

/// [`section_census`]: over the stream's checkpoints, the load's left
/// out.
struct SectionCensus {
    checkpoints: usize,
    /// Per checkpoint: sections encoded, image bytes, bytes encoded,
    /// bytes copied, runs copied.
    per_checkpoint: [f64; 5],
    /// Median microseconds of the CRC-32 of a checkpoint's `PSMC` image.
    crc_us: f64,
}

const CENSUS: [&str; 5] = [
    "sections_encoded",
    "image_bytes",
    "bytes_encoded",
    "bytes_copied",
    "runs_copied",
];

/// Folds matcher deltas into a conflict-set accumulator so the
/// reference run tracks the same state the supervisor maintains.
struct Collecting<'a> {
    inner: &'a mut ReteMatcher,
    conflict: &'a mut HashSet<Instantiation>,
}

impl Collecting<'_> {
    fn fold(&mut self, d: MatchDelta) {
        for i in &d.removed {
            self.conflict.remove(i);
        }
        for i in &d.added {
            self.conflict.insert(i.clone());
        }
    }
}

impl Matcher for Collecting<'_> {
    fn add_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
        let d = self.inner.add_wme(wm, id);
        self.fold(d.clone());
        d
    }
    fn remove_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
        let d = self.inner.remove_wme(wm, id);
        self.fold(d.clone());
        d
    }
    fn algorithm_name(&self) -> &'static str {
        "collecting"
    }
}

fn main() {
    // Injected worker panics are caught and recovered by the
    // supervisor; keep their default-hook backtraces out of the report.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        if msg.contains("injected fault") || msg.contains("scoped thread panicked") {
            return;
        }
        default_hook(info);
    }));

    let opts = CliOptions::parse(80);
    let out = out_dir();
    let cost = CostModel::default();
    let spec = PsmSpec::paper_32();

    // ---- DES kill sweep -------------------------------------------
    let mut sweeps = Vec::new();
    for preset in Preset::all() {
        let c = capture(preset, opts.variant(), opts.cycles, true);
        let (baseline, _) = simulate_psm_timeline(&c.trace, &cost, &spec);
        let half_us = baseline.makespan_s * 1e6 / 2.0;
        let mut faulted = Vec::new();
        for k in 1..=MAX_KILLS {
            let faults = SimFaults::kill_last_n(k, spec.processors, half_us);
            faulted.push(simulate_psm_faulted(&c.trace, &cost, &spec, &faults));
        }
        sweeps.push(KillSweep {
            preset: preset.name(),
            baseline,
            faulted,
        });

        // One exported faulted schedule, with fault marks visible.
        if preset == Preset::EpSoar {
            let faults = SimFaults::kill_last_n(4, spec.processors, half_us)
                .stall(half_us / 2.0, half_us / 8.0);
            let (_, timeline) = simulate_psm_faulted_timeline(&c.trace, &cost, &spec, &faults);
            let json = timeline
                .to_chrome(1, &format!("psm-32 faulted {}", preset.name()))
                .to_json();
            let path = format!("{out}/{}.faulted.trace.json", preset.name());
            if std::fs::create_dir_all(&out).is_ok() && std::fs::write(&path, json).is_ok() {
                println!("wrote {path}");
            }
        }
    }

    let show = [0usize, 1, 2, 4, 8];
    let headers: Vec<String> = std::iter::once("system".to_string())
        .chain(show.iter().map(|k| format!("conc k={k}")))
        .chain(show.iter().map(|k| format!("speedup k={k}")))
        .collect();
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for s in &sweeps {
        let at = |k: usize| -> &SimResult {
            if k == 0 {
                &s.baseline
            } else {
                &s.faulted[k - 1]
            }
        };
        let mut row = vec![s.preset.to_string()];
        row.extend(show.iter().map(|&k| f(at(k).concurrency, 2)));
        row.extend(show.iter().map(|&k| f(at(k).true_speedup, 2)));
        rows.push(row);
    }
    print_table(
        "graceful degradation: S6 machine with k of 32 processors killed at half-makespan",
        &headers,
        &rows,
    );
    println!(
        "\nkilled processors fail-stop at a cycle barrier; survivors absorb their \
         share, so speed-up degrades roughly with (32-k)/32 plus barrier variance."
    );

    // ---- supervisor chaos summary ---------------------------------
    let mut chaos = Vec::new();
    for (i, preset) in Preset::all().into_iter().enumerate() {
        chaos.push(chaos_run(preset, 0xC4A05 + i as u64));
    }
    let mut rows = Vec::new();
    for c in &chaos {
        let r = &c.report;
        rows.push(vec![
            c.preset.to_string(),
            c.tier.to_string(),
            r.engine_faults.to_string(),
            r.transient_faults.to_string(),
            r.retries.to_string(),
            r.fallbacks.to_string(),
            r.recoveries.to_string(),
            r.checkpoints.to_string(),
            r.wal_replayed.to_string(),
            format!("{} us", c.recovery_us),
            format!("{:.1}", c.full_bytes_mean as f64 / 1024.0),
            format!("{:.1}", c.delta_bytes_mean as f64 / 1024.0),
            f(c.delta_ratio, 1),
            if c.conflict_matches_fault_free {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    print_table(
        "supervised engine under a seeded chaos plan (rate 0.25, 12 cycles)",
        &[
            "system",
            "final tier",
            "engine flt",
            "transient",
            "retries",
            "fallbacks",
            "recoveries",
            "checkpts",
            "wal replay",
            "recovery",
            "full KiB",
            "delta KiB",
            "ratio",
            "exact",
        ],
        &rows,
    );
    println!(
        "\n\"exact\" = recovered conflict set and Rete snapshot are byte-identical \
         to a never-faulted sequential run on the same stream.\n\
         \"recovery\" = wall-clock for a checkpoint-restore + WAL-replay drill; \
         \"full\"/\"delta\" = mean shipped checkpoint artifact sizes (PSMC vs PSMD), \
         \"ratio\" = full/delta."
    );

    // ---- checkpoint cost ------------------------------------------
    let cost = checkpoint_cost(400);
    println!(
        "\ncheckpoint cost on the vt stream ({} cycles, {} checkpoints, replication attached): \
         plain cycle p50 {:.0} us, checkpoint cycle p50 {:.0} us, ratio {:.1} (ceiling {}); \
         publish_waits {}, publish_wait_us {:.0}",
        cost.cycles,
        cost.checkpoints,
        cost.plain_cycle_p50_us,
        cost.checkpoint_cycle_p50_us,
        cost.ratio(),
        MAX_CHECKPOINT_RATIO,
        cost.publish_waits,
        cost.publish_wait_us
    );

    let steps = checkpoint_steps(400);
    let census = section_census(400);
    let matching = MATCHING_STEPS.iter().zip(steps.step_us);
    let mut rows: Vec<Vec<String>> = matching
        .map(|(step, us)| vec!["matching thread".into(), step.to_string(), f(us, 0)])
        .collect();
    for (step, us) in PUBLISHER_STEPS.iter().zip(cost.publisher_us) {
        rows.push(vec!["publisher (mean)".into(), step.to_string(), f(us, 0)]);
    }
    rows.push(vec![
        "publisher".into(),
        "  of which CRC-32 of the image".into(),
        f(census.crc_us, 0),
    ]);
    print_table(
        "a checkpoint step by step: the matching thread's by hand on the same stream (median us \
         per checkpoint), the publisher's as it timed them in the run above",
        &["thread", "step", "us"],
        &rows,
    );
    println!(
        "\nthe publisher is busy {:.0} % of a checkpoint interval ({:.0} of {:.0} us: the run's \
         wall-clock time over its checkpoints)",
        100.0 * cost.publisher_busy_share(),
        cost.publisher_us.iter().sum::<f64>(),
        cost.interval_us
    );
    let [encoded, image, bytes_encoded, bytes_copied, runs] = census.per_checkpoint;
    println!(
        "\nsection census over {} checkpoints: {} memory sections, {} non-empty; per checkpoint \
         {encoded:.0} encoded, {bytes_encoded:.0} bytes of a {image:.0}-byte image, the other \
         {bytes_copied:.0} copied in {runs:.0} runs",
        census.checkpoints, steps.sections.0, steps.sections.1
    );

    // ---- checkpoint after-effect -----------------------------------
    let after = after_effect(1000, if opts.small { 4 } else { 8 });
    print_table(
        &format!(
            "what a checkpoint costs the cycles after it: vt stream, {} cycles, minimum of {} \
             interleaved runs a cycle",
            after.cycles, after.runs
        ),
        &["", "us"],
        &[
            vec![
                format!(
                    "plain-cycle sum, checkpoints every 8 ({} cycles)",
                    after.plain_cycles
                ),
                f(after.sum_with_us, 0),
            ],
            vec![
                "plain-cycle sum, no checkpoints".into(),
                f(after.sum_without_us, 0),
            ],
            vec![
                format!(
                    "first cycle after a checkpoint, excess ({} cycles)",
                    after.first_after
                ),
                f(after.first_after_excess_us, 1),
            ],
            vec![
                "checkpoint cycle, excess".into(),
                f(after.checkpoint_excess_us, 1),
            ],
        ],
    );
    println!(
        "\nplain cycles pay {:.1} % more with checkpoints than without; the matching thread \
         requests {:.0} heap bytes in a checkpoint cycle ({:.0} in a plain one)",
        100.0 * after.excess(),
        after.checkpoint_bytes,
        after.plain_bytes
    );

    // ---- PSMR image census ---------------------------------------
    let images = image_census();
    let share = |n: usize, of: usize| format!("{n} ({:.0}%)", 100.0 * n as f64 / of as f64);
    let rows: Vec<Vec<String>> = images
        .iter()
        .zip(V4_HEAD_BYTES_PER_CHAIN)
        .map(|((state, image), v4)| {
            let [parts @ .., chains] = image;
            let per_chain = parts[3] as f64 / *chains as f64;
            let parts = parts.iter().map(|&n| share(n, parts[0]));
            let heads = [chains.to_string(), format!("{per_chain:.2} (v4: {v4})")];
            std::iter::once(state.to_string())
                .chain(parts)
                .chain(heads)
                .collect()
        })
        .collect();
    print_table(
        "PSMR image by part (what every checkpoint serialises, diffs and checksums)",
        &[
            "state",
            "bytes",
            "entries",
            "links",
            "heads",
            "rest",
            "chains",
            "heads B/chain",
        ],
        &rows,
    );

    write_json(
        &out,
        &sweeps,
        &chaos,
        &cost,
        (&steps, &census),
        &after,
        &images,
    );
    if cost.ratio() > MAX_CHECKPOINT_RATIO {
        eprintln!("FAIL: a checkpoint cycle costs more than {MAX_CHECKPOINT_RATIO} plain cycles");
        std::process::exit(1);
    }
}

/// Times every supervised cycle of a fault-free full-size vt run with
/// a replication store attached, from outside, and splits the cycles
/// by whether they took a checkpoint.
fn checkpoint_cost(cycles: usize) -> CheckpointCost {
    let workload = GeneratedWorkload::generate(Preset::Vt.spec()).expect("workload generates");
    let config = SupervisorConfig {
        threads: 2,
        ..SupervisorConfig::default()
    };
    let mut sup = Supervisor::new(&workload.program, config).expect("program compiles");
    let store = Arc::new(ReplicationStore::new(ReplicationConfig::default()));
    sup.attach_replication(Arc::clone(&store));
    let mut driver = WorkloadDriver::new(workload, 0x5EED);
    driver.init(&mut sup);
    // The load is 1 100 one-WME cycles, a checkpoint every 300 us or so
    // against a push of up to 700: some of its publishes wait, and are
    // not the stream's.
    let loaded = store.stats();
    let (mut plain, mut checkpointed) = (Vec::new(), Vec::new());
    let run = Instant::now();
    for _ in 0..cycles {
        let batch = driver.next_batch();
        let before = sup.report().checkpoints;
        let started = std::time::Instant::now();
        sup.process(driver.working_memory(), &batch);
        let us = started.elapsed().as_secs_f64() * 1e6;
        driver.commit_batch(&batch);
        if sup.report().checkpoints > before {
            checkpointed.push(us);
        } else {
            plain.push(us);
        }
    }
    let run_us = run.elapsed().as_secs_f64() * 1e6;
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let stats = store.stats();
    let checkpoints = checkpointed.len();
    let per_checkpoint_us = |ns: u64, before: u64| (ns - before) as f64 / 1e3 / checkpoints as f64;
    CheckpointCost {
        cycles,
        checkpoints,
        plain_cycle_p50_us: median(&mut plain),
        checkpoint_cycle_p50_us: median(&mut checkpointed),
        publish_waits: stats.publish_waits - loaded.publish_waits,
        publish_wait_us: (stats.publish_wait_ns - loaded.publish_wait_ns) as f64 / 1e3,
        publisher_us: [
            per_checkpoint_us(stats.publisher_write_ns, loaded.publisher_write_ns),
            per_checkpoint_us(stats.publisher_push_ns, loaded.publisher_push_ns),
        ],
        interval_us: run_us / checkpoints as f64,
    }
}

/// `f()`, and the microseconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = std::hint::black_box(f());
    (out, started.elapsed().as_secs_f64() * 1e6)
}

/// Takes the vt stream of [`checkpoint_cost`] through what a checkpoint
/// costs the matching thread, every eighth cycle, with the pieces a
/// [`Supervisor`] makes it of — the working memory's and the conflict
/// set's changes noted as each batch is committed, a sequential matcher's
/// changed sections, those changes listed, a draft published into a
/// [`ReplicationStore`] — timing each.
fn checkpoint_steps(cycles: usize) -> CheckpointSteps {
    let workload = GeneratedWorkload::generate(Preset::Vt.spec()).expect("workload generates");
    let mut driver = WorkloadDriver::new(workload, 0x5EED);
    let mut matcher = ReteMatcher::compile(&driver.workload().program).expect("program compiles");
    let mut conflict = BTreeSet::new();
    {
        let mut hashed = HashSet::new();
        let mut collecting = Collecting {
            inner: &mut matcher,
            conflict: &mut hashed,
        };
        driver.init(&mut collecting);
        conflict.extend(hashed);
    }
    // The marks a supervisor notes its committed state's changes in, and
    // the updates, which each publish hands back once the draft before
    // is written.
    let (mut wm_marks, mut conflict_marks) = (WmMarks::default(), ConflictMarks::default());
    let mut spare = Some(Updates::default());
    let store = ReplicationStore::new(ReplicationConfig::default());
    let mut steps: [Vec<f64>; 6] = Default::default();
    let (mut matching_us, mut noting_us) = (0.0, 0.0);
    for cycle in 0..=cycles as u64 {
        if cycle > 0 {
            let batch = driver.next_batch();
            let wm = driver.working_memory();
            let (delta, match_us) = timed(|| matcher.process(wm, &batch));
            matching_us += match_us;
            let ((), noted_us) = timed(|| {
                for change in &batch {
                    if let Change::Remove(id) = *change {
                        wm_marks.retract(id, wm.get(id).expect("retracted by the commit"));
                    }
                }
                conflict_marks.fold(&mut conflict, &delta);
            });
            noting_us += noted_us;
            driver.commit_batch(&batch);
            if cycle % 8 != 0 {
                continue;
            }
        }
        let mut updates = spare.take().unwrap_or_default();
        let ((), changes_us) = timed(|| matcher.encode_changes(&mut updates.rete));
        let wm = driver.working_memory();
        let ((), listed_us) = timed(|| {
            wm.encode_changes(&mut wm_marks, &mut updates.wm);
            conflict_marks.take(&conflict, &mut updates.conflict);
        });
        let (draft, draft_us) = timed(|| Draft::new(cycle, updates));
        let ((_, back), publish_us) = timed(|| store.publish_draft(draft));
        spare = back;
        // The publisher has the other core to itself meanwhile, as it
        // has under a supervisor matching the next batch.
        store.stats();
        let times = [
            matching_us,
            noting_us,
            changes_us,
            listed_us,
            draft_us,
            publish_us,
        ];
        (matching_us, noting_us) = (0.0, 0.0);
        if cycle > 0 {
            for (step, us) in steps.iter_mut().zip(times) {
                step.push(us);
            }
        }
    }
    CheckpointSteps {
        checkpoints: steps[0].len(),
        step_us: steps.map(|mut us| {
            us.sort_by(f64::total_cmp);
            us[us.len() / 2]
        }),
        sections: matcher.memory_sections(),
    }
}

/// Runs the vt stream of [`checkpoint_cost`] through a supervisor with
/// no store, which writes each checkpoint's image itself, timing no
/// cycle: after each checkpoint of the stream, how its matcher image was
/// written — sections encoded, bytes and runs copied — and how long a
/// CRC-32 of its `PSMC` image takes.
fn section_census(cycles: usize) -> SectionCensus {
    let workload = GeneratedWorkload::generate(Preset::Vt.spec()).expect("workload generates");
    let config = SupervisorConfig {
        threads: 1,
        ..SupervisorConfig::default()
    };
    let mut sup = Supervisor::new(&workload.program, config).expect("program compiles");
    let mut driver = WorkloadDriver::new(workload, 0x5EED);
    driver.init(&mut sup);
    let (mut census, mut crc_us) = ([0.0; 5], Vec::new());
    for _ in 0..cycles {
        let batch = driver.next_batch();
        let before = sup.report().checkpoints;
        sup.process(driver.working_memory(), &batch);
        driver.commit_batch(&batch);
        if sup.report().checkpoints == before {
            continue;
        }
        let cp = sup.last_checkpoint();
        let image = cp.to_bytes();
        crc_us.push(timed(|| crc32(&image)).1);
        let rete = &cp.rete;
        let copied: usize = rete.unchanged().iter().map(|&(_, _, len)| len).sum();
        let counts = [
            rete.encoded_sections(),
            rete.len(),
            rete.len() - copied,
            copied,
            rete.unchanged().len(),
        ];
        for (sum, n) in census.iter_mut().zip(counts) {
            *sum += n as f64;
        }
    }
    let checkpoints = crc_us.len();
    crc_us.sort_by(f64::total_cmp);
    SectionCensus {
        checkpoints,
        per_checkpoint: census.map(|sum| sum / checkpoints as f64),
        crc_us: crc_us[checkpoints / 2],
    }
}

/// [`after_effect`]: sums of per-cycle minima, and what the matching
/// thread requested.
struct AfterEffect {
    cycles: usize,
    runs: usize,
    /// Cycles plain in both configurations, and the first cycles after
    /// a checkpoint among them.
    plain_cycles: usize,
    first_after: usize,
    /// Sums over the plain cycles of each cycle's minimum, with
    /// checkpoints every 8 cycles and with none, in microseconds.
    sum_with_us: f64,
    sum_without_us: f64,
    /// Mean over the first cycles after a checkpoint of their minimum's
    /// excess over the twin's, in microseconds.
    first_after_excess_us: f64,
    /// Mean over the checkpoint cycles of the excess over the twin's.
    checkpoint_excess_us: f64,
    /// Mean heap bytes the matching thread requested in a checkpoint
    /// cycle, and in a plain one.
    checkpoint_bytes: f64,
    plain_bytes: f64,
}

impl AfterEffect {
    /// The plain cycles' excess over the twin's, as a share of the
    /// twin's.
    fn excess(&self) -> f64 {
        self.sum_with_us / self.sum_without_us - 1.0
    }
}

/// Runs the full-size vt stream `runs` times through a 2-thread
/// supervisor with a replication store attached and checkpoints every 8
/// cycles, and `runs` times through its twin with none, alternating,
/// timing each of `cycles` cycles after the load from outside.
fn after_effect(cycles: usize, runs: usize) -> AfterEffect {
    let workload = GeneratedWorkload::generate(Preset::Vt.spec()).expect("workload generates");
    // Per configuration, each cycle's minimum; with checkpoints, which
    // cycles took one and what the matching thread requested.
    let mut minimum = [vec![f64::INFINITY; cycles], vec![f64::INFINITY; cycles]];
    let mut checkpointed = vec![false; cycles];
    let (mut checkpoint_bytes, mut plain_bytes) = (Vec::new(), Vec::new());
    for run in 0..2 * runs {
        let with = run % 2 == 0;
        let config = SupervisorConfig {
            threads: 2,
            checkpoint_every: if with { 8 } else { u64::MAX },
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(&workload.program, config).expect("program compiles");
        let store = Arc::new(ReplicationStore::new(ReplicationConfig::default()));
        sup.attach_replication(Arc::clone(&store));
        let mut driver = WorkloadDriver::new(workload.clone(), 0x5EED);
        driver.init(&mut sup);
        store.stats();
        for (k, least) in minimum[usize::from(!with)].iter_mut().enumerate() {
            let batch = driver.next_batch();
            let before = sup.report().checkpoints;
            let started = Instant::now();
            let (delta, bytes) = requested(|| sup.process(driver.working_memory(), &batch));
            let us = started.elapsed().as_secs_f64() * 1e6;
            drop(delta);
            driver.commit_batch(&batch);
            *least = least.min(us);
            if with {
                checkpointed[k] = sup.report().checkpoints > before;
                match checkpointed[k] {
                    true => checkpoint_bytes.push(bytes as f64),
                    false => plain_bytes.push(bytes as f64),
                }
            }
        }
        drop(sup);
    }
    let [with, without] = &minimum;
    let plain = (0..cycles).filter(|&k| !checkpointed[k]);
    let first_after: Vec<usize> = plain
        .clone()
        .filter(|&k| k > 0 && checkpointed[k - 1])
        .collect();
    let excess = |ks: &mut dyn Iterator<Item = usize>| {
        let ks: Vec<usize> = ks.collect();
        ks.iter().map(|&k| with[k] - without[k]).sum::<f64>() / ks.len().max(1) as f64
    };
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    AfterEffect {
        cycles,
        runs,
        plain_cycles: plain.clone().count(),
        first_after: first_after.len(),
        sum_with_us: plain.clone().map(|k| with[k]).sum(),
        sum_without_us: plain.map(|k| without[k]).sum(),
        first_after_excess_us: excess(&mut first_after.iter().copied()),
        checkpoint_excess_us: excess(&mut (0..cycles).filter(|&k| checkpointed[k])),
        checkpoint_bytes: mean(&checkpoint_bytes),
        plain_bytes: mean(&plain_bytes),
    }
}

/// What a chain head cost in the two censused images under `PSMR` v4,
/// which wrote its key as a tagged value (a head was 9 or 13 bytes; v5
/// writes the key's fingerprint and a head is 8): 202 292 bytes for
/// 14 136 chains on vt, 5 220 for 400 on `closure` — where v5 keys the
/// negated CE on both its variables and has 12 960 more chains to write.
const V4_HEAD_BYTES_PER_CHAIN: [f64; 2] = [14.31, 13.05];

/// The `PSMR` image of a sequential matcher — byte for byte the one a
/// supervisor commits on the same stream — as `[bytes, entries, links,
/// heads, rest, chains]`: the full-size vt stream after 1000 cycles, and
/// `closure` run to quiescence on a strongly connected 80-node digraph
/// of out-degree 2 (the benchmark workload's shape; the image's size
/// does not depend on which such graph).
fn image_census() -> Vec<(&'static str, [usize; 6])> {
    let workload = GeneratedWorkload::generate(Preset::Vt.spec()).expect("workload generates");
    let mut driver = WorkloadDriver::new(workload, 0x5EED);
    let mut vt = ReteMatcher::compile(&driver.workload().program).expect("program compiles");
    driver.init(&mut vt);
    driver.run_cycles(&mut vt, 1000);

    let ring = (0..80).flat_map(|i| [(i, (i + 1) % 80), (i, (i + 7) % 80)]);
    let edges: Vec<(i64, i64)> = ring.collect();
    let (program, wmes) = programs::transitive_closure(&edges).expect("closure parses");
    let matcher = ReteMatcher::compile(&program).expect("program compiles");
    let mut closure = ops5::Interpreter::new(program, matcher);
    closure.insert_all(wmes);
    closure.run(u64::MAX).expect("closure runs");

    let states = [
        ("vt, 1000 cycles", &vt),
        ("closure, 80 nodes", closure.matcher()),
    ];
    let census = states.map(|(state, matcher)| {
        let (image, p) = matcher.snapshot_parts();
        let chains = matcher.resident_index_buckets();
        let parts = [image.len(), p.entries, p.links, p.heads, p.rest, chains];
        (state, parts)
    });
    census.into()
}

/// Runs one preset under a randomized fault plan and verifies the
/// recovered state against a fault-free sequential run.
fn chaos_run(preset: Preset, plan_seed: u64) -> ChaosRun {
    let workload = GeneratedWorkload::generate(preset.spec_small()).expect("workload generates");
    let plan = Arc::new(FaultPlan::randomized(plan_seed, 64, 0.25));
    let config = SupervisorConfig {
        threads: 4,
        backoff: std::time::Duration::from_micros(10),
        checkpoint_every: 4,
        ..SupervisorConfig::default()
    };
    let cycles = 12;

    let mut driver = WorkloadDriver::new(workload.clone(), 0x5EED);
    let mut sup = Supervisor::new(&workload.program, config).expect("program compiles");
    sup.set_fault_plan(Some(plan));
    let store = Arc::new(ReplicationStore::new(ReplicationConfig::default()));
    sup.attach_replication(store.clone());
    driver.init(&mut sup);
    for _ in 0..cycles {
        let batch = driver.next_batch();
        sup.process(driver.working_memory(), &batch);
        driver.commit_batch(&batch);
    }
    let drill = sup.recovery_drill();
    let stats = store.stats();

    // Fault-free reference on the same compiled network.
    let mut rdriver = WorkloadDriver::new(workload, 0x5EED);
    let mut reference = ReteMatcher::from_network(sup.network().clone());
    let mut conflict = HashSet::new();
    {
        let mut r = Collecting {
            inner: &mut reference,
            conflict: &mut conflict,
        };
        rdriver.init(&mut r);
        for _ in 0..cycles {
            let batch = rdriver.next_batch();
            let d = r.inner.process(rdriver.working_memory(), &batch);
            r.fold(d);
            rdriver.commit_batch(&batch);
        }
    }
    let mut sorted: Vec<_> = conflict.into_iter().collect();
    sorted.sort_by(|a, b| (a.production, &a.wmes).cmp(&(b.production, &b.wmes)));
    let exact = sup.conflict_set() == sorted
        && sup.committed_snapshot().as_bytes() == reference.snapshot().as_bytes();

    let full_bytes_mean = stats.full_bytes.checked_div(stats.full_count).unwrap_or(0);
    let delta_bytes_mean = stats
        .delta_bytes
        .checked_div(stats.delta_count)
        .unwrap_or(0);
    ChaosRun {
        preset: preset.name(),
        tier: sup.tier().name(),
        report: sup.report(),
        conflict_matches_fault_free: exact,
        recovery_us: drill.elapsed.as_micros(),
        recovery_replayed: drill.wal_replayed,
        full_bytes_mean,
        delta_bytes_mean,
        delta_ratio: if delta_bytes_mean == 0 {
            0.0
        } else {
            full_bytes_mean as f64 / delta_bytes_mean as f64
        },
    }
}

fn sim_json(r: &SimResult) -> String {
    format!(
        "{{\"concurrency\":{},\"true_speedup\":{},\"makespan_s\":{},\"bus_utilization\":{}}}",
        number(r.concurrency),
        number(r.true_speedup),
        number(r.makespan_s),
        number(r.bus_utilization)
    )
}

/// Appends `"name":value` pairs, comma-separated.
fn push_fields<'a>(j: &mut String, fields: impl IntoIterator<Item = (&'a str, f64)>) {
    for (i, (name, value)) in fields.into_iter().enumerate() {
        j.push_str(if i > 0 { "," } else { "" });
        push_escaped(j, name);
        j.push_str(&format!(":{}", number(value)));
    }
}

fn write_json(
    out: &str,
    sweeps: &[KillSweep],
    chaos: &[ChaosRun],
    cost: &CheckpointCost,
    (steps, census): (&CheckpointSteps, &SectionCensus),
    after: &AfterEffect,
    images: &[(&'static str, [usize; 6])],
) {
    let mut j = String::from("{\"kill_sweep\":[");
    for (i, s) in sweeps.iter().enumerate() {
        if i > 0 {
            j.push(',');
        }
        j.push_str("{\"preset\":");
        push_escaped(&mut j, s.preset);
        j.push_str(",\"baseline\":");
        j.push_str(&sim_json(&s.baseline));
        j.push_str(",\"killed\":[");
        for (k, r) in s.faulted.iter().enumerate() {
            if k > 0 {
                j.push(',');
            }
            j.push_str(&format!("{{\"k\":{},\"result\":{}}}", k + 1, sim_json(r)));
        }
        j.push_str("]}");
    }
    j.push_str("],\"chaos\":[");
    for (i, c) in chaos.iter().enumerate() {
        if i > 0 {
            j.push(',');
        }
        let r = &c.report;
        j.push_str("{\"preset\":");
        push_escaped(&mut j, c.preset);
        j.push_str(",\"final_tier\":");
        push_escaped(&mut j, c.tier);
        j.push_str(&format!(
            ",\"engine_faults\":{},\"transient_faults\":{},\"retries\":{},\"fallbacks\":{},\
             \"recoveries\":{},\"checkpoints\":{},\"wal_replayed\":{},\"deadline_misses\":{},\
             \"worker_respawns\":{},\"recovery_us\":{},\"recovery_replayed\":{},\
             \"full_checkpoint_bytes_mean\":{},\"delta_checkpoint_bytes_mean\":{},\
             \"delta_ratio\":{},\"exact\":{}}}",
            r.engine_faults,
            r.transient_faults,
            r.retries,
            r.fallbacks,
            r.recoveries,
            r.checkpoints,
            r.wal_replayed,
            r.deadline_misses,
            r.worker_respawns,
            c.recovery_us,
            c.recovery_replayed,
            c.full_bytes_mean,
            c.delta_bytes_mean,
            number(c.delta_ratio),
            c.conflict_matches_fault_free
        ));
    }
    j.push_str(&format!(
        "],\"checkpoint_cost\":{{\"preset\":\"vt\",\"cycles\":{},\"checkpoints\":{},\
         \"plain_cycle_p50_us\":{},\"checkpoint_cycle_p50_us\":{},\"ratio\":{},\
         \"max_ratio\":{},\"publish_waits\":{},\"publish_wait_us\":{},\
         \"publisher_busy_share\":{},\"checkpoint_interval_us\":{},\"publisher_mean_us\":{{",
        cost.cycles,
        cost.checkpoints,
        number(cost.plain_cycle_p50_us),
        number(cost.checkpoint_cycle_p50_us),
        number(cost.ratio()),
        number(MAX_CHECKPOINT_RATIO),
        cost.publish_waits,
        number(cost.publish_wait_us),
        number(cost.publisher_busy_share()),
        number(cost.interval_us)
    ));
    push_fields(&mut j, PUBLISHER_STEPS.into_iter().zip(cost.publisher_us));
    j.push_str("},\"matching_step_p50_us\":{");
    push_fields(&mut j, MATCHING_STEPS.into_iter().zip(steps.step_us));
    j.push_str("},");
    j.push_str(&format!(
        "\"matching_step_checkpoints\":{},\"crc32_image_p50_us\":{},\
         \"sections\":{{\"checkpoints\":{},\"memories\":{},\"non_empty\":{}",
        steps.checkpoints,
        number(census.crc_us),
        census.checkpoints,
        steps.sections.0,
        steps.sections.1
    ));
    for (name, mean) in CENSUS.iter().zip(census.per_checkpoint) {
        j.push_str(&format!(",\"{name}_mean\":{}", number(mean)));
    }
    j.push_str(&format!(
        "}}}},\"checkpoint_after_effect\":{{\"preset\":\"vt\",\"cycles\":{},\"runs\":{},\
         \"plain_cycles\":{},\"plain_sum_with_us\":{},\"plain_sum_without_us\":{},\
         \"plain_excess\":{},\"first_after\":{},\"first_after_excess_us\":{},\
         \"checkpoint_excess_us\":{},\"matching_bytes_per_checkpoint_cycle\":{},\
         \"matching_bytes_per_plain_cycle\":{}}}",
        after.cycles,
        after.runs,
        after.plain_cycles,
        number(after.sum_with_us),
        number(after.sum_without_us),
        number(after.excess()),
        after.first_after,
        number(after.first_after_excess_us),
        number(after.checkpoint_excess_us),
        number(after.checkpoint_bytes),
        number(after.plain_bytes)
    ));
    j.push_str(",\"psmr_image\":[");
    for (i, (state, image)) in images.iter().enumerate() {
        j.push_str(if i > 0 { ",{\"state\":" } else { "{\"state\":" });
        push_escaped(&mut j, state);
        for (name, n) in ["bytes", "entries", "links", "heads", "rest", "chains"]
            .iter()
            .zip(image)
        {
            j.push_str(&format!(",\"{name}\":{n}"));
        }
        j.push('}');
    }
    j.push_str("]}");
    let path = format!("{out}/fault_report.json");
    if std::fs::create_dir_all(out).is_ok() && std::fs::write(&path, j).is_ok() {
        println!("\nwrote {path}");
    }
}
