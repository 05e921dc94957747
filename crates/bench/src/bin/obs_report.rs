//! Observability report: the §6 loss-factor decomposition driven by the
//! instrumentation stack, plus exported artifacts.
//!
//! For every preset this binary captures a trace, replays it on the
//! paper's 32-processor machine, and decomposes the lost factor
//! (nominal concurrency / true speed-up; the paper measures
//! 15.92 / 8.25 = 1.93) into its §6.3 sources:
//!
//! * **work inflation** — instructions added by the parallel
//!   implementation (reduced node sharing),
//! * **bus contention** — the memory-contention slowdown factor,
//! * **scheduling** — hardware task-scheduler overhead per activation,
//! * **variance (idle)** — processors idling at cycle barriers and on
//!   dependency chains (this one costs concurrency, not lost factor).
//!
//! Artifacts written to `--out DIR` (default `results/`):
//!
//! * `<preset>.trace.json` — Chrome `trace_event` schedule of the
//!   simulated 32-processor run (loads in Perfetto / `chrome://tracing`),
//! * `blocks.events.jsonl` — structured event log from a real
//!   interpreter run of `assets/blocks.ops` with full observability on.
//!
//! ```sh
//! cargo run --release -p psm-bench --bin obs_report -- --small
//! ```

use std::sync::Arc;
use std::time::Instant;

use ops5::{parse_program, parse_wmes, Interpreter};
use psm_bench::{capture, f, print_table, CliOptions};
use psm_core::{ParallelOptions, ParallelReteMatcher};
use psm_obs::{Obs, Phase};
use psm_sim::{simulate_psm_timeline, CostModel, PsmSpec};
use rete::ReteMatcher;
use workloads::{Preset, WorkloadDriver};

/// The eight node-activation kinds, in pipeline order.
const KINDS: [rete::ActivationKind; 8] = rete::ActivationKind::ALL;

/// Aggregates a trace into per-kind activation and work (primitive
/// test) shares — the measured per-phase cost profile of the match.
fn kind_breakdown(name: &str, trace: &rete::Trace) -> (Vec<String>, Vec<String>) {
    let mut count = [0u64; 8];
    let mut tests = [0u64; 8];
    for cycle in &trace.cycles {
        for change in &cycle.changes {
            for a in &change.activations {
                let i = KINDS.iter().position(|k| *k == a.kind).unwrap();
                count[i] += 1;
                tests[i] += a.tests as u64;
            }
        }
    }
    let total_count: u64 = count.iter().sum();
    let total_tests: u64 = tests.iter().sum();
    let pct = |v: u64, total: u64| {
        if total > 0 {
            f(100.0 * v as f64 / total as f64, 1)
        } else {
            "-".to_string()
        }
    };
    let mut kinds = vec![name.to_string()];
    kinds.extend(count.iter().map(|&c| pct(c, total_count)));
    let mut works = vec![name.to_string()];
    works.extend(tests.iter().map(|&t| pct(t, total_tests)));
    (kinds, works)
}

fn out_dir() -> String {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "results".to_string())
}

fn main() {
    let opts = CliOptions::parse(120);
    let out = out_dir();
    let cost = CostModel::default();
    let spec = PsmSpec::paper_32();

    // ---- §6 loss-factor decomposition across the presets ----------
    let headers = [
        "system",
        "concurrency",
        "true speedup",
        "lost factor",
        "inflation x",
        "contention x",
        "sched +",
        "idle %",
    ];
    let mut rows = Vec::new();
    let mut sums = [0.0f64; 7];
    let mut exported = Vec::new();
    let mut kind_rows = Vec::new();
    let mut work_rows = Vec::new();
    for preset in Preset::all() {
        let c = capture(preset, opts.variant(), opts.cycles, true);
        let (kinds, works) = kind_breakdown(preset.name(), &c.trace);
        kind_rows.push(kinds);
        work_rows.push(works);
        let (r, timeline) = simulate_psm_timeline(&c.trace, &cost, &spec);

        // lost = busy/serial = inflation * contention + sched/serial:
        // every busy microsecond is either inflated-and-stalled real
        // work or scheduling overhead.
        let serial_s = r.true_speedup * r.makespan_s;
        let contention = 1.0 / (1.0 - r.bus_utilization);
        let sched_share = if serial_s > 0.0 {
            r.sched_overhead_s / serial_s
        } else {
            0.0
        };
        let idle_pct = 100.0 * (1.0 - r.concurrency / r.processors as f64);
        let recomposed = spec.work_inflation * contention + sched_share;
        assert!(
            (recomposed - r.lost_factor()).abs() < 1e-6,
            "decomposition must recompose: {} vs {}",
            recomposed,
            r.lost_factor()
        );

        rows.push(vec![
            preset.name().to_string(),
            f(r.concurrency, 2),
            f(r.true_speedup, 2),
            f(r.lost_factor(), 2),
            f(spec.work_inflation, 2),
            f(contention, 2),
            f(sched_share, 2),
            f(idle_pct, 1),
        ]);
        for (i, v) in [
            r.concurrency,
            r.true_speedup,
            r.lost_factor(),
            spec.work_inflation,
            contention,
            sched_share,
            idle_pct,
        ]
        .into_iter()
        .enumerate()
        {
            sums[i] += v;
        }

        // Export the simulated schedule as a Chrome trace.
        let trace_json = timeline
            .to_chrome(1, &format!("psm-32 {}", preset.name()))
            .to_json();
        let path = format!("{out}/{}.trace.json", preset.name());
        if std::fs::create_dir_all(&out).is_ok() && std::fs::write(&path, trace_json).is_ok() {
            exported.push(path);
        }
    }
    let n = Preset::all().len() as f64;
    let mut mean = vec!["MEAN".to_string()];
    mean.extend(sums.iter().map(|s| f(s / n, 2)));
    rows.push(mean);
    rows.push(vec![
        "paper".into(),
        "15.92".into(),
        "8.25".into(),
        "1.93".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    print_table(
        "S6 loss-factor decomposition @ P=32, 2 MIPS, hardware scheduler",
        &headers,
        &rows,
    );
    opts.maybe_write_csv("obs_report", &headers, &rows);
    println!(
        "\nlost factor = inflation x contention + sched (checked per row); \
         idle % is the variance loss (costs concurrency, not lost factor)."
    );
    for p in &exported {
        println!("wrote {p}");
    }

    // ---- per-phase (node-kind) cost profile across presets --------
    let kind_headers: Vec<&str> = std::iter::once("system")
        .chain(KINDS.iter().map(|k| k.label()))
        .collect();
    print_table(
        "match-phase profile: % of node activations by kind",
        &kind_headers,
        &kind_rows,
    );
    print_table(
        "match-phase profile: % of primitive tests (work) by kind",
        &kind_headers,
        &work_rows,
    );
    println!(
        "\ntwo-input right activations carry most of the work — the paper's \
         \u{a7}4 case for node-level parallelism over production-level."
    );

    // ---- real blocks-world run with full observability ------------
    blocks_world_section(&out);

    // ---- parallel engine worker counters --------------------------
    engine_section();

    // ---- counters-only overhead check -----------------------------
    overhead_section(opts.cycles.max(60));
}

/// Runs `assets/blocks.ops` to quiescence with phase spans, per-node
/// profiling, and the event ring all enabled, then reports what each
/// layer saw.
fn blocks_world_section(out: &str) {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let (Ok(src), Ok(wm_src)) = (
        std::fs::read_to_string(format!("{root}/assets/blocks.ops")),
        std::fs::read_to_string(format!("{root}/assets/blocks.wm")),
    ) else {
        println!("\n(blocks assets not found; skipping interpreter section)");
        return;
    };
    let mut program = parse_program(&src).expect("blocks.ops parses");
    let initial = parse_wmes(&wm_src, &mut program.symbols).expect("blocks.wm parses");
    let mut matcher = ReteMatcher::compile(&program).expect("blocks compiles");
    // The per-node profiler with latency detail on: what `/profile`
    // serves from a live engine.
    let node_obs = Arc::new(Obs::with_profile(0, 0, matcher.network().nodes.len()));
    node_obs.set_detail(true);
    matcher.attach_obs(node_obs.clone());
    let mut interp = Interpreter::new(program, matcher);
    interp.enable_phase_profiling();
    interp.enable_firing_log();
    interp.insert_all(initial);
    let fired = interp.run(10_000).expect("blocks runs");

    let phases = interp.phase_profile().expect("profiling enabled");
    let mut rows = Vec::new();
    for phase in Phase::ALL {
        let s = phases.snapshot(phase);
        rows.push(vec![
            phase.name().to_string(),
            s.count.to_string(),
            f(s.sum as f64 / 1e3, 1),
            f(s.mean(), 0),
            f(s.quantile_bound(0.99) as f64, 0),
        ]);
    }
    print_table(
        "blocks-world phase profile (real run)",
        &["phase", "spans", "total us", "mean ns", "p99 <= ns"],
        &rows,
    );

    let mut hot = node_obs.profile.snapshot().rows;
    hot.sort_by_key(|r| (std::cmp::Reverse(r.latency.sum), r.node));
    let mut rows = Vec::new();
    for r in hot.iter().take(5) {
        rows.push(vec![
            r.node.to_string(),
            r.latency.count.to_string(),
            f(r.latency.sum as f64 / 1e3, 1),
        ]);
    }
    print_table(
        "blocks-world top-5 hot nodes",
        &["node", "activations", "total us"],
        &rows,
    );

    // Structured events: one per firing, exported as JSONL.
    let obs = Obs::new(4096);
    obs.set_detail(true);
    for (i, inst) in interp.firing_log().iter().enumerate() {
        let name = &interp.program().production(inst.production).name;
        obs.events.emit(
            "firing",
            &[
                ("cycle", (i as u64).into()),
                ("production", name.as_str().into()),
                ("wmes", (inst.wmes.len() as u64).into()),
            ],
        );
    }
    let path = format!("{out}/blocks.events.jsonl");
    if std::fs::create_dir_all(out).is_ok() && std::fs::write(&path, obs.events.to_jsonl()).is_ok()
    {
        println!("\n{fired} firings; wrote {path}");
    }
}

/// Runs the node-parallel engine over a small preset with the obs layer
/// attached and prints the per-worker work-stealing counters.
fn engine_section() {
    let spec = Preset::EpSoar.spec_small();
    let workload = workloads::GeneratedWorkload::generate(spec).expect("workload generates");
    let mut matcher = ParallelReteMatcher::compile(
        &workload.program,
        ParallelOptions {
            threads: 4,
            ..ParallelOptions::default()
        },
    )
    .expect("engine compiles");
    let obs = Arc::new(Obs::new(1024));
    matcher.attach_obs(Arc::clone(&obs));
    matcher.enable_timing();
    let mut driver = WorkloadDriver::new(workload, 0xD1CE);
    driver.init(&mut matcher);
    driver.run_cycles(&mut matcher, 40);

    let mut rows = Vec::new();
    for (i, w) in matcher.worker_stats().iter().enumerate() {
        rows.push(vec![
            i.to_string(),
            w.tasks.to_string(),
            w.steals.to_string(),
            w.steal_attempts.to_string(),
            w.idle_spins.to_string(),
            w.max_queue_depth.to_string(),
            f(w.lock_wait_ns as f64 / 1e3, 1),
            f(w.exec_ns as f64 / 1e3, 1),
        ]);
    }
    let total = matcher.worker_totals_merged();
    rows.push(vec![
        "ALL".into(),
        total.tasks.to_string(),
        total.steals.to_string(),
        total.steal_attempts.to_string(),
        total.idle_spins.to_string(),
        total.max_queue_depth.to_string(),
        f(total.lock_wait_ns as f64 / 1e3, 1),
        f(total.exec_ns as f64 / 1e3, 1),
    ]);
    print_table(
        "parallel engine per-worker counters (ep-soar small, 4 threads, 40 cycles)",
        &[
            "worker",
            "tasks",
            "steals",
            "attempts",
            "idle spins",
            "max depth",
            "lock wait us",
            "exec us",
        ],
        &rows,
    );
    let pool = matcher.pool_stats();
    println!(
        "\npool: {} helper threads spawned once for the matcher's lifetime \
         ({} respawns, {} live, {} phases woke them); the caller is worker 0",
        pool.spawned, pool.respawns, pool.live, pool.helper_wakes
    );
    println!("\nmetrics registry snapshot:");
    for line in obs.metrics.snapshot().to_text().lines() {
        println!("  {line}");
    }
}

/// Measures the counters-only observability overhead: the same
/// workload run with and without the obs registry attached (timing and
/// detail layers off). The acceptance bar is <= 5%.
fn overhead_section(cycles: u64) {
    let spec = Preset::EpSoar.spec_small();
    let workload = workloads::GeneratedWorkload::generate(spec).expect("workload generates");
    let options = ParallelOptions {
        threads: 2,
        ..ParallelOptions::default()
    };

    let run_once = |attach: bool| -> f64 {
        let mut matcher =
            ParallelReteMatcher::compile(&workload.program, options).expect("compiles");
        if attach {
            matcher.attach_obs(Arc::new(Obs::new(256)));
        }
        let mut driver = WorkloadDriver::new(workload.clone(), 0xBEEF);
        driver.init(&mut matcher);
        let start = Instant::now();
        driver.run_cycles(&mut matcher, cycles);
        start.elapsed().as_secs_f64()
    };

    // Warm up caches and the thread machinery, then interleave the two
    // configurations so drift hits both equally; compare best-of-5.
    run_once(false);
    run_once(true);
    let mut before = f64::INFINITY;
    let mut after = f64::INFINITY;
    for _ in 0..5 {
        before = before.min(run_once(false));
        after = after.min(run_once(true));
    }
    let overhead = if before > 0.0 {
        100.0 * (after - before) / before
    } else {
        0.0
    };
    println!(
        "\ncounters-only overhead (ep-soar small, {cycles} cycles, best of 5): \
         {:.1} ms bare vs {:.1} ms with obs attached = {overhead:+.1}% (bar: <= 5%)",
        before * 1e3,
        after * 1e3
    );
}
