//! Performance baseline: tier-1 preset throughput and per-phase
//! latency quantiles, written to `results/bench_baseline.json` so
//! future PRs have a perf trajectory to compare against (and CI can
//! archive it as an artifact).
//!
//! Each preset runs `--cycles` driver batches through the sequential
//! Rete matcher. Per-batch latencies land in `psm-obs` histograms:
//! `act` is batch synthesis (the driver playing the firing's RHS),
//! `match` is `Matcher::process`, `select` is batch commit (conflict
//! resolution is trivial in driver runs). The report also measures the
//! telemetry-plane on/off delta — the same preset run bare vs with a
//! live `/metrics` listener, a provenance ring, and registry counters —
//! backing the "near-zero overhead when off" claim in DESIGN.md.
//!
//! ```sh
//! cargo run --release -p psm-bench --bin bench_baseline -- --small
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use ops5::{parse_program, parse_wmes, Interpreter, Matcher};
use psm_bench::trajectory::{
    append_history, fingerprint, git_commit, measure_reps, read_history, rust_lines, unix_now,
    write_trajectory_artifact, PresetTrack, TrajectoryRecord,
};
use psm_bench::{f, print_table, CliOptions, Variant};
use psm_core::{ParallelOptions, ParallelReteMatcher, WorkerStats};
use psm_obs::{HistogramSnapshot, Obs, Sampler};
use psm_telemetry::{TelemetryConfig, TelemetryServer};
use rete::ReteMatcher;
use workloads::{GeneratedWorkload, Preset, WorkloadDriver};

/// Interleaved per-preset reps recorded into the history record; the
/// `perf_gate` binary re-measures the same count so the paired
/// comparison in `psm_analyze::regress` lines rank against rank.
const PERF_GATE_REPS: usize = 7;

fn out_dir() -> String {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "results".to_string())
}

struct PresetBaseline {
    name: &'static str,
    cycles: u64,
    wme_changes: u64,
    elapsed_s: f64,
    wme_changes_per_sec: f64,
    /// Same workload and change stream through the linear-scan
    /// ablation (`ReteMatcher::compile_linear`); the headline number
    /// above uses the hashed production default.
    linear_wme_changes_per_sec: f64,
    firings_per_sec: f64,
    phases: Vec<(&'static str, HistogramSnapshot)>,
}

/// Runs one preset, recording per-phase latencies into `obs`. With
/// `linear` the matcher is the linear-scan ablation; otherwise the
/// hashed production default.
fn run_preset(preset: Preset, variant: Variant, cycles: u64, linear: bool) -> PresetBaseline {
    let spec = match variant {
        Variant::Small => preset.spec_small(),
        _ => preset.spec(),
    };
    let workload = GeneratedWorkload::generate(spec).expect("workload generates");
    let mut matcher = if linear {
        ReteMatcher::compile_linear(&workload.program).expect("compiles")
    } else {
        ReteMatcher::compile(&workload.program).expect("compiles")
    };
    let obs = Obs::new(0);
    let mut driver = WorkloadDriver::new(workload, 0xBA5E);
    driver.init(&mut matcher);

    let act = obs.metrics.histogram("phase.act_ns");
    let match_h = obs.metrics.histogram("phase.match_ns");
    let select = obs.metrics.histogram("phase.select_ns");
    let mut wme_changes = 0u64;
    let mut ran = 0u64;
    let started = Instant::now();
    for _ in 0..cycles {
        let t0 = Instant::now();
        let batch = driver.next_batch();
        act.record(t0.elapsed().as_nanos() as u64);
        if batch.is_empty() {
            break;
        }
        let t0 = Instant::now();
        matcher.process(driver.working_memory(), &batch);
        match_h.record(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        driver.commit_batch(&batch);
        select.record(t0.elapsed().as_nanos() as u64);
        wme_changes += batch.len() as u64;
        ran += 1;
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    let snap = obs.metrics.snapshot();
    let phase = |k: &str| snap.histograms.get(k).cloned().unwrap_or_default();
    PresetBaseline {
        name: preset.name(),
        cycles: ran,
        wme_changes,
        elapsed_s,
        wme_changes_per_sec: wme_changes as f64 / elapsed_s.max(1e-12),
        linear_wme_changes_per_sec: 0.0,
        // Each driver batch models one firing's change batch.
        firings_per_sec: ran as f64 / elapsed_s.max(1e-12),
        phases: vec![
            ("match", phase("phase.match_ns")),
            ("select", phase("phase.select_ns")),
            ("act", phase("phase.act_ns")),
        ],
    }
}

/// Scheduler health of the work-first parallel engine on the
/// blocks-world program and the vt-small stream (small batches — the
/// regime every workload we run lives in).
struct EngineBaseline {
    threads: usize,
    iterations: usize,
    per_worker: Vec<WorkerStats>,
    /// Helper threads spawned by the last matcher over its whole
    /// lifetime (must equal `threads − 1`: the caller is worker 0).
    spawned_per_matcher: u64,
    respawns: u64,
    helper_wakes: u64,
    live: usize,
    elapsed_s: f64,
    /// 1-thread engine time over sequential Rete time, per program.
    one_thread_overhead: [(&'static str, f64); 2],
}

impl EngineBaseline {
    fn totals(&self) -> WorkerStats {
        let mut t = WorkerStats::default();
        for w in &self.per_worker {
            t.merge(w);
        }
        t
    }

    /// Idle polls as a share of all poll outcomes (tasks + idle).
    fn idle_share(&self) -> f64 {
        let t = self.totals();
        t.idle_spins as f64 / (t.tasks + t.idle_spins).max(1) as f64
    }
}

/// Ceiling on what the engine's data structures and dispatch may cost
/// on one thread, relative to sequential Rete on the same input. The
/// scheduler itself must cost nothing there (no thread is crossed);
/// measured 1.5–1.8× on both programs (best of 15, 2-CPU host).
const ONE_THREAD_OVERHEAD_CEILING: f64 = 2.0;

/// Runs blocks-world to quiescence on the matcher `build` compiles;
/// the seconds cover loading the working memory and the run.
fn run_blocks<M: Matcher>(build: impl Fn(&ops5::Program) -> M) -> (Interpreter<M>, f64) {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let src = std::fs::read_to_string(format!("{root}/assets/blocks.ops")).expect("blocks.ops");
    let wm_src = std::fs::read_to_string(format!("{root}/assets/blocks.wm")).expect("blocks.wm");
    let mut program = parse_program(&src).expect("blocks parses");
    let initial = parse_wmes(&wm_src, &mut program.symbols).expect("wmes parse");
    let matcher = build(&program);
    let mut interp = Interpreter::new(program, matcher);
    let started = Instant::now();
    interp.insert_all(initial);
    interp.run(10_000).expect("runs to quiescence");
    let elapsed_s = started.elapsed().as_secs_f64();
    (interp, elapsed_s)
}

fn engine_with(threads: usize) -> impl Fn(&ops5::Program) -> ParallelReteMatcher {
    move |program| {
        let options = ParallelOptions {
            threads,
            share: true,
        };
        ParallelReteMatcher::compile(program, options).expect("compiles")
    }
}

/// Match time of 600 vt-small driver cycles on `matcher`.
fn vt_small_match_s<M: Matcher>(workload: &GeneratedWorkload, mut matcher: M) -> f64 {
    let mut driver = WorkloadDriver::new(workload.clone(), 0xBA5E);
    driver.init(&mut matcher);
    driver
        .run_cycles(&mut matcher, 600)
        .match_time
        .as_secs_f64()
}

/// Runs the parallel engine on the blocks-world program and asserts
/// what defines scheduler health under the work-first pool: helpers
/// spawn once per matcher lifetime and none leaks or dies, nothing is
/// injected or escapes, and on one thread the engine stays within
/// [`ONE_THREAD_OVERHEAD_CEILING`] of sequential Rete. Who executed how
/// many tasks is reported, not gated — on batches this small the right
/// answer is "the caller, all of them". Panics on violation so the CI
/// bench job gates on it.
fn run_parallel_engine(threads: usize, iterations: usize) -> EngineBaseline {
    let mut per_worker = vec![WorkerStats::default(); threads];
    let (mut spawned_per_matcher, mut respawns, mut helper_wakes, mut live) = (0, 0, 0, 0);
    let started = Instant::now();
    for _ in 0..iterations {
        let (mut interp, _) = run_blocks(engine_with(threads));
        let m = interp.matcher_mut();
        for (t, w) in per_worker.iter_mut().zip(m.worker_stats()) {
            t.merge(w);
        }
        assert_eq!(m.take_faults(), 0, "nothing was injected");
        let pool = m.pool_stats();
        assert_eq!(
            pool.spawned,
            threads as u64 - 1,
            "one spawn per helper per matcher lifetime; the caller is worker 0"
        );
        assert_eq!(pool.live, threads - 1, "no leaked or missing helper");
        spawned_per_matcher = pool.spawned;
        respawns += pool.respawns;
        helper_wakes += pool.helper_wakes;
        live = pool.live;
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    assert_eq!(respawns, 0, "no worker died in a fault-free run");

    // Best of 15, alternated so both sides see the same machine.
    let workload = GeneratedWorkload::generate(Preset::Vt.spec_small()).expect("vt generates");
    let mut best = [[f64::INFINITY; 2]; 2];
    for _ in 0..15 {
        let blocks_par = run_blocks(engine_with(1)).1;
        let blocks_seq = run_blocks(|p| ReteMatcher::compile(p).expect("compiles")).1;
        let vt_par = vt_small_match_s(&workload, engine_with(1)(&workload.program));
        let vt_seq = vt_small_match_s(
            &workload,
            ReteMatcher::compile(&workload.program).expect("compiles"),
        );
        for (b, t) in best
            .iter_mut()
            .zip([[blocks_par, blocks_seq], [vt_par, vt_seq]])
        {
            *b = [b[0].min(t[0]), b[1].min(t[1])];
        }
    }
    let one_thread_overhead = [
        ("blocks-world", best[0][0] / best[0][1]),
        ("vt-small", best[1][0] / best[1][1]),
    ];
    for (program, x) in one_thread_overhead {
        assert!(
            x <= ONE_THREAD_OVERHEAD_CEILING,
            "1-thread engine is {x:.2}x sequential Rete on {program} \
             (ceiling {ONE_THREAD_OVERHEAD_CEILING})"
        );
    }
    EngineBaseline {
        threads,
        iterations,
        per_worker,
        spawned_per_matcher,
        respawns,
        helper_wakes,
        live,
        elapsed_s,
        one_thread_overhead,
    }
}

/// Ceiling for the telemetry plane's overhead on the bare matcher
/// (percent): a live listener plus a 4096-record flight ring that every
/// WME change files ~35 records into. Reached on vt-small: 4–5 % by
/// per-cycle quiet time (~0.1 µs on a 2.2 µs change; 35–43 % while
/// every record took the ring's lock), which this gate's
/// lower-quartile-of-nine reads as −1…+1 % on a busy host (30–36 %
/// before). ROADMAP's ≤ 5 % is therefore met without headroom on this
/// preset, and the gate sits where the measurement plus the profiler
/// gate's kind of headroom puts it.
const TELEMETRY_OVERHEAD_CEILING_PCT: f64 = 8.0;

/// Ceiling for the per-node join profiler's marginal overhead on a
/// telemetry-on run (percent). The profiler is meant to stay on in
/// production, so its cost over the rest of the plane must stay small.
const PROFILER_OVERHEAD_CEILING_PCT: f64 = 3.0;

/// Ceiling for the history-ring sampler's marginal overhead on a fully
/// instrumented run (percent). Sampling happens on a background thread
/// off the hot path; at a 5 ms cadence its cost must stay in the noise.
const SAMPLER_OVERHEAD_CEILING_PCT: f64 = 1.0;

/// Measured overheads on one preset:
///
/// * telemetry plane on vs off — bare matcher vs live listener +
///   flight ring + per-batch histogram records,
/// * per-node join profiler on vs the same telemetry-on run with
///   profiling disabled (capacity 0) — the marginal cost of keeping
///   the profiler always on,
/// * history-ring sampler on vs the same profiled run without a ring —
///   the marginal cost of 5 ms-cadence time-series sampling.
///
/// Returns `(off_s, on_s, delta_pct, prof_s, prof_delta_pct,
/// sampled_s, sampler_delta_pct)`.
#[allow(clippy::type_complexity)]
fn overhead_delta(cycles: u64) -> (f64, f64, f64, f64, f64, f64, f64) {
    #[derive(Clone, Copy, PartialEq)]
    enum Config {
        Bare,
        Telemetry,
        Profiled,
        Sampled,
    }
    let spec = Preset::Vt.spec_small();
    let workload = GeneratedWorkload::generate(spec).expect("workload generates");

    let run_once = |config: Config| -> f64 {
        let mut matcher = ReteMatcher::compile(&workload.program).expect("compiles");
        let (_plane, sampler) = if config == Config::Bare {
            (None, None)
        } else {
            let (profile, history) = match config {
                Config::Bare | Config::Telemetry => (0, 0),
                Config::Profiled => (4096, 0),
                Config::Sampled => (4096, 64),
            };
            let obs = Arc::new(Obs::with_history(1024, 4096, profile, history));
            matcher.attach_obs(Arc::clone(&obs));
            let plane = TelemetryServer::start(Arc::clone(&obs), &TelemetryConfig::default())
                .expect("listener binds");
            let sampler =
                (config == Config::Sampled).then(|| Sampler::start(obs, Duration::from_millis(5)));
            (Some(plane), sampler)
        };
        let mut driver = WorkloadDriver::new(workload.clone(), 0xFEED);
        driver.init(&mut matcher);
        let started = Instant::now();
        driver.run_cycles(&mut matcher, cycles);
        let elapsed = started.elapsed().as_secs_f64();
        if let Some(s) = sampler {
            s.stop();
        }
        elapsed
    };

    // Warm up, then measure the three configurations back-to-back per
    // repetition: adjacent runs see the same machine conditions, so
    // slow drift (thermal, noisy neighbours) cancels inside each pair
    // instead of landing on whichever configuration ran during the bad
    // stretch. Deltas are summarized by the *lower quartile* of the
    // per-rep deltas: scheduler noise is additive per run, so the low
    // quantile is the cleanest pairing, while a real overhead
    // regression shifts the whole distribution and still trips the
    // gate. (The median flakes on shared runners — noise spikes in a
    // few reps drag it past a per-cent-scale ceiling.)
    run_once(Config::Bare);
    run_once(Config::Profiled);
    let pct = |base: f64, with: f64| {
        if base > 0.0 {
            100.0 * (with - base) / base
        } else {
            0.0
        }
    };
    let quartile = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 4]
    };
    let median = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let (mut offs, mut ons, mut profs, mut sampleds) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut tel_deltas, mut prof_deltas, mut sampler_deltas) =
        (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..9 {
        let off = run_once(Config::Bare);
        let on = run_once(Config::Telemetry);
        let prof = run_once(Config::Profiled);
        let sampled = run_once(Config::Sampled);
        tel_deltas.push(pct(off, on));
        prof_deltas.push(pct(on, prof));
        sampler_deltas.push(pct(prof, sampled));
        offs.push(off);
        ons.push(on);
        profs.push(prof);
        sampleds.push(sampled);
    }
    (
        median(offs),
        median(ons),
        quartile(tel_deltas),
        median(profs),
        quartile(prof_deltas),
        median(sampleds),
        quartile(sampler_deltas),
    )
}

fn phase_json(out: &mut String, phases: &[(&'static str, HistogramSnapshot)]) {
    out.push('{');
    for (i, (name, h)) in phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{name}\":{{\"count\":{},\"p50_ns\":{},\"p99_ns\":{},\"mean_ns\":{}}}",
            h.count,
            h.quantile_bound(0.5),
            h.quantile_bound(0.99),
            h.sum.checked_div(h.count).unwrap_or(0),
        ));
    }
    out.push('}');
}

fn main() {
    let opts = CliOptions::parse(200);
    let out = out_dir();
    let variant = opts.variant();

    let mut rows = Vec::new();
    let mut baselines = Vec::new();
    for preset in Preset::all() {
        // Headline run: hashed join memories (the production default),
        // then the linear-scan ablation on the same workload/stream.
        let mut b = run_preset(preset, variant, opts.cycles, false);
        let lin = run_preset(preset, variant, opts.cycles, true);
        b.linear_wme_changes_per_sec = lin.wme_changes_per_sec;
        rows.push(vec![
            b.name.to_string(),
            b.cycles.to_string(),
            f(b.wme_changes_per_sec, 0),
            f(b.linear_wme_changes_per_sec, 0),
            f(
                b.wme_changes_per_sec / b.linear_wme_changes_per_sec.max(1e-12),
                2,
            ),
            f(b.firings_per_sec, 0),
            b.phases[0].1.quantile_bound(0.5).to_string(),
            b.phases[0].1.quantile_bound(0.99).to_string(),
        ]);
        baselines.push(b);
    }
    print_table(
        &format!(
            "bench_baseline: sequential Rete (hashed default vs linear ablation), {} presets, {} cycles",
            if matches!(variant, Variant::Small) {
                "small"
            } else {
                "full"
            },
            opts.cycles
        ),
        &[
            "system",
            "cycles",
            "hashed/s",
            "linear/s",
            "speedup",
            "firings/s",
            "match p50 ns",
            "match p99 ns",
        ],
        &rows,
    );
    let rust_lines = rust_lines();
    println!("rust_lines: {rust_lines} (non-blank lines of *.rs under crates/*/src and src/)");

    let engine = run_parallel_engine(4, 30);
    let totals = engine.totals();
    println!(
        "\nparallel engine (blocks-world, {} threads, {} iterations): \
         tasks {} ({} on the caller), steals {}, idle share {}, \
         helper spawns/matcher {} (respawns {}, wakes {}); \
         1-thread engine vs sequential: {} {}x, {} {}x (ceiling {}x)",
        engine.threads,
        engine.iterations,
        totals.tasks,
        engine.per_worker[0].tasks,
        totals.steals,
        f(engine.idle_share(), 4),
        engine.spawned_per_matcher,
        engine.respawns,
        engine.helper_wakes,
        engine.one_thread_overhead[0].0,
        f(engine.one_thread_overhead[0].1, 2),
        engine.one_thread_overhead[1].0,
        f(engine.one_thread_overhead[1].1, 2),
        ONE_THREAD_OVERHEAD_CEILING,
    );

    // Overhead runs need windows long enough (~100 ms) that scheduler
    // jitter stays small against the per-cent deltas being gated.
    let (off_s, on_s, delta_pct, prof_s, prof_delta_pct, sampled_s, sampler_delta_pct) =
        overhead_delta(opts.cycles.clamp(2400, 4800));
    println!(
        "\ntelemetry overhead (vt small): off {} s, on {} s, delta {}% (ceiling {}%)",
        f(off_s, 4),
        f(on_s, 4),
        f(delta_pct, 2),
        TELEMETRY_OVERHEAD_CEILING_PCT
    );
    println!(
        "profiler overhead (vt small, telemetry on): base {} s, profiled {} s, delta {}% (ceiling {}%)",
        f(on_s, 4),
        f(prof_s, 4),
        f(prof_delta_pct, 2),
        PROFILER_OVERHEAD_CEILING_PCT
    );
    println!(
        "sampler overhead (vt small, 5 ms cadence): base {} s, sampled {} s, delta {}% (ceiling {}%)",
        f(prof_s, 4),
        f(sampled_s, 4),
        f(sampler_delta_pct, 2),
        SAMPLER_OVERHEAD_CEILING_PCT
    );
    if delta_pct > TELEMETRY_OVERHEAD_CEILING_PCT {
        eprintln!(
            "bench_baseline: telemetry overhead {}% above ceiling {}%",
            f(delta_pct, 2),
            TELEMETRY_OVERHEAD_CEILING_PCT
        );
        std::process::exit(1);
    }
    if prof_delta_pct > PROFILER_OVERHEAD_CEILING_PCT {
        eprintln!(
            "bench_baseline: profiler overhead {}% above ceiling {}%",
            f(prof_delta_pct, 2),
            PROFILER_OVERHEAD_CEILING_PCT
        );
        std::process::exit(1);
    }
    if sampler_delta_pct > SAMPLER_OVERHEAD_CEILING_PCT {
        eprintln!(
            "bench_baseline: history-ring sampler overhead {}% above ceiling {}%",
            f(sampler_delta_pct, 2),
            SAMPLER_OVERHEAD_CEILING_PCT
        );
        std::process::exit(1);
    }

    let mut json = String::from("{\"bench\":\"bench_baseline\",\"variant\":\"");
    json.push_str(if matches!(variant, Variant::Small) {
        "small"
    } else {
        "full"
    });
    json.push_str(&format!("\",\"cycles\":{},\"presets\":{{", opts.cycles));
    for (i, b) in baselines.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "\"{}\":{{\"cycles\":{},\"wme_changes\":{},\"elapsed_s\":{},\"wme_changes_per_sec\":{},\"linear_wme_changes_per_sec\":{},\"firings_per_sec\":{},\"phases\":",
            b.name,
            b.cycles,
            b.wme_changes,
            psm_obs::json::number(b.elapsed_s),
            psm_obs::json::number(b.wme_changes_per_sec),
            psm_obs::json::number(b.linear_wme_changes_per_sec),
            psm_obs::json::number(b.firings_per_sec),
        ));
        phase_json(&mut json, &b.phases);
        json.push('}');
    }
    json.push_str(&format!(
        "}},\"engine\":{{\"program\":\"blocks-world\",\"threads\":{},\"iterations\":{},\
         \"tasks\":{},\"steals\":{},\"steal_attempts\":{},\"idle_spins\":{},\
         \"idle_share\":{},\"spawned_per_matcher\":{},\"respawns\":{},\
         \"helper_wakes\":{},\"live\":{},\"elapsed_s\":{},\
         \"one_thread_overhead_x\":{{\"blocks-world\":{},\"vt-small\":{},\"ceiling\":{}}},\
         \"per_worker\":[",
        engine.threads,
        engine.iterations,
        totals.tasks,
        totals.steals,
        totals.steal_attempts,
        totals.idle_spins,
        psm_obs::json::number(engine.idle_share()),
        engine.spawned_per_matcher,
        engine.respawns,
        engine.helper_wakes,
        engine.live,
        psm_obs::json::number(engine.elapsed_s),
        psm_obs::json::number(engine.one_thread_overhead[0].1),
        psm_obs::json::number(engine.one_thread_overhead[1].1),
        psm_obs::json::number(ONE_THREAD_OVERHEAD_CEILING),
    ));
    for (i, w) in engine.per_worker.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"worker\":{i},\"tasks\":{},\"steals\":{},\"steal_attempts\":{},\"idle_spins\":{}}}",
            w.tasks, w.steals, w.steal_attempts, w.idle_spins
        ));
    }
    json.push_str(&format!(
        "]}},\"telemetry_overhead\":{{\"off_s\":{},\"on_s\":{},\"delta_pct\":{},\
         \"ceiling_pct\":{}}},\
         \"profiler_overhead\":{{\"base_s\":{},\"profiled_s\":{},\"delta_pct\":{},\
         \"ceiling_pct\":{}}},\"sampler_overhead\":{{\"base_s\":{},\"sampled_s\":{},\
         \"delta_pct\":{},\"ceiling_pct\":{}}}}}",
        psm_obs::json::number(off_s),
        psm_obs::json::number(on_s),
        psm_obs::json::number(delta_pct),
        psm_obs::json::number(TELEMETRY_OVERHEAD_CEILING_PCT),
        psm_obs::json::number(on_s),
        psm_obs::json::number(prof_s),
        psm_obs::json::number(prof_delta_pct),
        psm_obs::json::number(PROFILER_OVERHEAD_CEILING_PCT),
        psm_obs::json::number(prof_s),
        psm_obs::json::number(sampled_s),
        psm_obs::json::number(sampler_delta_pct),
        psm_obs::json::number(SAMPLER_OVERHEAD_CEILING_PCT)
    ));

    let path = format!("{out}/bench_baseline.json");
    if std::fs::create_dir_all(&out).is_ok() && std::fs::write(&path, &json).is_ok() {
        println!("wrote {path}");
    } else {
        eprintln!("could not write {path}");
        std::process::exit(1);
    }

    // Trajectory: interleaved per-rep samples for the regression gate,
    // appended as one fingerprinted JSONL record, plus the BENCH_10
    // artifact summarizing the whole history.
    let rep_cycles = opts.cycles.clamp(600, 2400);
    let tracks = measure_reps(&Preset::all(), variant, rep_cycles, PERF_GATE_REPS);
    let presets_json: Vec<PresetTrack> = tracks
        .into_iter()
        .map(|(name, reps_s)| {
            let b = baselines.iter().find(|b| b.name == name);
            PresetTrack {
                name,
                wme_changes_per_sec: b.map(|b| b.wme_changes_per_sec).unwrap_or(0.0),
                linear_wme_changes_per_sec: b.map(|b| b.linear_wme_changes_per_sec).unwrap_or(0.0),
                match_p50_ns: b.map(|b| b.phases[0].1.quantile_bound(0.5)).unwrap_or(0),
                match_p99_ns: b.map(|b| b.phases[0].1.quantile_bound(0.99)).unwrap_or(0),
                reps_s,
            }
        })
        .collect();
    let record = TrajectoryRecord {
        ts: unix_now(),
        commit: git_commit(),
        variant: if matches!(variant, Variant::Small) {
            "small".to_string()
        } else {
            "full".to_string()
        },
        rep_cycles,
        fingerprint: fingerprint(),
        presets: presets_json,
        idle_share: engine.idle_share(),
        telemetry_overhead_pct: delta_pct,
        profiler_overhead_pct: prof_delta_pct,
        sampler_overhead_pct: sampler_delta_pct,
        rust_lines,
    };
    let history_path = format!("{out}/bench_history.jsonl");
    match append_history(&history_path, &record) {
        Ok(()) => println!("appended {history_path} (commit {})", record.commit),
        Err(e) => {
            eprintln!("could not append {history_path}: {e}");
            std::process::exit(1);
        }
    }
    let artifact_path = format!("{out}/BENCH_10.json");
    let history = read_history(&history_path);
    match write_trajectory_artifact(&artifact_path, &history) {
        Ok(()) => println!("wrote {artifact_path} ({} records)", history.len()),
        Err(e) => {
            eprintln!("could not write {artifact_path}: {e}");
            std::process::exit(1);
        }
    }
}
