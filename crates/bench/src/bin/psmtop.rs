//! `psmtop` — a `top`-style terminal dashboard for a running engine,
//! fed entirely by the telemetry plane's `/snapshot` endpoint.
//!
//! Each frame polls `/snapshot`, diffs counters against the previous
//! frame, and renders:
//!
//! * per-worker busy / steal / idle shares (from
//!   `engine.worker.*{worker="N"}` counter deltas),
//! * per-phase latency p50/p99 (reconstructed
//!   [`HistogramSnapshot`]s, windowed between frames when possible),
//! * conflict-set depth and working-memory size gauges,
//! * a live §6 estimate: nominal concurrency ≈ (exec + lock-wait) /
//!   wall, true concurrency ≈ exec / wall, loss factor = their ratio —
//!   the paper's 15.92 / 8.25 = 1.93 decomposition, computed on the
//!   fly. When a DES run has published `sim.*{system=…}` gauges those
//!   exact figures are shown too,
//! * a hot-nodes panel (from `/profile`): the top-8 Rete nodes by
//!   pairs-compared share in the current window, with their measured
//!   join selectivity,
//! * sparkline trends (from `/timeseries`, when the target runs a
//!   history ring + sampler): cycle throughput, worker idle share, and
//!   replica lag per sampling window.
//!
//! ```sh
//! psmtop --demo                      # self-contained: in-process engine + server
//! psmtop --addr 127.0.0.1:9184      # attach to an existing listener
//! psmtop --addr … --once            # one frame, no ANSI clear (CI-friendly)
//! ```
//!
//! `--once` is the headless mode: it polls twice, `--interval-ms`
//! apart, and renders the single *windowed* frame to plain stdout —
//! deltas and shares are over that window, not process lifetime — so
//! CI and `telemetry_smoke` capture a meaningful dashboard without a
//! TTY loop.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use psm_obs::{HistogramSnapshot, Obs, Sampler, HIST_BUCKETS};
use psm_telemetry::client::{http_get, Json};
use psm_telemetry::{TelemetryConfig, TelemetryServer};

struct Options {
    addr: Option<String>,
    interval: Duration,
    once: bool,
    demo: bool,
    frames: Option<u64>,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    Options {
        addr: value("--addr"),
        interval: Duration::from_millis(
            value("--interval-ms")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1000),
        ),
        once: args.iter().any(|a| a == "--once"),
        demo: args.iter().any(|a| a == "--demo"),
        frames: value("--frames").and_then(|v| v.parse().ok()),
    }
}

/// One `/profile` row, keyed by node id in [`Frame::prof_rows`].
struct ProfRow {
    kind: String,
    pairs: u64,
    selectivity: f64,
}

/// One polled `/snapshot` (+ `/profile`), flattened for diffing.
struct Frame {
    at: Instant,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    hists: BTreeMap<String, HistogramSnapshot>,
    prof_rows: BTreeMap<u64, ProfRow>,
    prof_retained: u64,
    prof_overflow: u64,
    prof_enabled: bool,
}

fn parse_frame(body: &str) -> Option<Frame> {
    let j = Json::parse(body)?;
    let m = j.get("metrics")?;
    let mut counters = BTreeMap::new();
    for (k, v) in m.get("counters")?.members() {
        counters.insert(k.clone(), v.as_u64().unwrap_or(0));
    }
    let mut gauges = BTreeMap::new();
    for (k, v) in m.get("gauges")?.members() {
        gauges.insert(k.clone(), v.as_f64().unwrap_or(0.0) as i64);
    }
    let mut hists = BTreeMap::new();
    for (k, v) in m.get("histograms")?.members() {
        let mut h = HistogramSnapshot {
            count: v.get("count").and_then(Json::as_u64).unwrap_or(0),
            sum: v.get("sum").and_then(Json::as_u64).unwrap_or(0),
            ..HistogramSnapshot::default()
        };
        for pair in v.get("buckets").map(Json::items).unwrap_or(&[]) {
            let (Some(i), Some(c)) = (
                pair.idx(0).and_then(Json::as_u64),
                pair.idx(1).and_then(Json::as_u64),
            ) else {
                continue;
            };
            if (i as usize) < HIST_BUCKETS {
                h.buckets[i as usize] = c;
            }
        }
        hists.insert(k.clone(), h);
    }
    Some(Frame {
        at: Instant::now(),
        counters,
        gauges,
        hists,
        prof_rows: BTreeMap::new(),
        prof_retained: 0,
        prof_overflow: 0,
        prof_enabled: false,
    })
}

/// Folds a polled `/profile` body into the frame (no-op on parse
/// failure — the panel simply stays empty).
fn parse_profile(body: &str, frame: &mut Frame) {
    let Some(j) = Json::parse(body) else { return };
    frame.prof_enabled = j.get("capacity").and_then(Json::as_u64).unwrap_or(0) > 0;
    frame.prof_retained = j.get("retained").and_then(Json::as_u64).unwrap_or(0);
    frame.prof_overflow = j.get("overflow").and_then(Json::as_u64).unwrap_or(0);
    for row in j.get("rows").map(Json::items).unwrap_or(&[]) {
        let Some(node) = row.get("node").and_then(Json::as_u64) else {
            continue;
        };
        frame.prof_rows.insert(
            node,
            ProfRow {
                kind: row
                    .get("kind")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                pairs: row.get("pairs").and_then(Json::as_u64).unwrap_or(0),
                selectivity: row.get("selectivity").and_then(Json::as_f64).unwrap_or(0.0),
            },
        );
    }
}

/// Workers present in the registry, from `engine.worker.tasks{worker=…}`.
fn worker_ids(frame: &Frame) -> Vec<String> {
    let mut ids: Vec<String> = frame
        .counters
        .keys()
        .filter_map(|k| {
            k.strip_prefix("engine.worker.tasks{worker=\"")
                .and_then(|rest| rest.strip_suffix("\"}"))
                .map(str::to_string)
        })
        .collect();
    ids.sort_by_key(|id| id.parse::<u64>().unwrap_or(u64::MAX));
    ids
}

fn worker_counter(frame: &Frame, metric: &str, worker: &str) -> u64 {
    frame
        .counters
        .get(&format!("engine.worker.{metric}{{worker=\"{worker}\"}}"))
        .copied()
        .unwrap_or(0)
}

/// `cur - prev` for one worker counter (0 on first frame or reset).
fn wdelta(prev: Option<&Frame>, cur: &Frame, metric: &str, worker: &str) -> u64 {
    let now = worker_counter(cur, metric, worker);
    let before = prev.map_or(0, |p| worker_counter(p, metric, worker));
    now.saturating_sub(before)
}

/// The latency histogram for `key` windowed to the current frame when a
/// previous frame exists (so quantiles track *recent* behaviour), else
/// cumulative.
fn windowed(prev: Option<&Frame>, cur: &Frame, key: &str) -> HistogramSnapshot {
    let now = cur.hists.get(key).cloned().unwrap_or_default();
    let Some(before) = prev.and_then(|p| p.hists.get(key)) else {
        return now;
    };
    if before.count > now.count {
        return now; // engine restarted; window is meaningless
    }
    let mut h = HistogramSnapshot {
        count: now.count - before.count,
        sum: now.sum.wrapping_sub(before.sum),
        ..HistogramSnapshot::default()
    };
    for i in 0..HIST_BUCKETS {
        h.buckets[i] = now.buckets[i].saturating_sub(before.buckets[i]);
    }
    h
}

/// Eight-level unicode sparkline over `vals`, scaled to their max.
fn sparkline(vals: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = vals.iter().copied().fold(0.0f64, f64::max);
    vals.iter()
        .map(|v| {
            if max <= 0.0 {
                BARS[0]
            } else {
                BARS[(((v / max) * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Sums matching `/timeseries` series per timestamp. A counter family
/// (`engine.worker.tasks{worker=…}`) comes back as one series per
/// label; the sampler stamps them all with the same `t_ms`, so summing
/// by timestamp re-aggregates the family. Counter points are already
/// per-window deltas, so the result reads as a rate series.
fn summed_series(j: &Json, family: &str) -> Vec<(u64, f64)> {
    let mut by_t: BTreeMap<u64, f64> = BTreeMap::new();
    for s in j.get("series").map(Json::items).unwrap_or(&[]) {
        let Some(n) = s.get("name").and_then(Json::as_str) else {
            continue;
        };
        let matches = n == family || (n.starts_with(family) && n[family.len()..].starts_with('{'));
        if !matches {
            continue;
        }
        for p in s.get("points").map(Json::items).unwrap_or(&[]) {
            let (Some(t), Some(v)) = (
                p.idx(0).and_then(Json::as_u64),
                p.idx(1).and_then(Json::as_f64),
            ) else {
                continue;
            };
            *by_t.entry(t).or_insert(0.0) += v;
        }
    }
    by_t.into_iter().collect()
}

fn trend_row(out: &mut String, label: &str, vals: &[f64], cur: String) {
    out.push_str(&format!("{label:<12} {}  cur {cur}\n", sparkline(vals)));
}

/// Builds the sparkline block from a `/timeseries` response, or `None`
/// when the target has no history ring (or nothing to show yet).
fn trends_block(body: &str) -> Option<String> {
    let j = Json::parse(body)?;
    if j.get("enabled").and_then(Json::as_bool) != Some(true) {
        return None;
    }
    let interval_ms = j.get("interval_ms").and_then(Json::as_u64).unwrap_or(0);
    let firings = summed_series(&j, "interp.firings");
    let tasks = summed_series(&j, "engine.worker.tasks");
    let idles = summed_series(&j, "engine.worker.idle_spins");
    let lag = summed_series(&j, "replica.lag");

    let mut out = format!("\ntrends (per {interval_ms} ms sampling window)\n");
    let mut any = false;
    // Cycle throughput: interpreter firings when an Interpreter runs,
    // else worker task completions (driver-based runs).
    let thr = if firings.iter().any(|(_, v)| *v > 0.0) {
        &firings
    } else {
        &tasks
    };
    if !thr.is_empty() {
        let vals: Vec<f64> = thr.iter().map(|(_, v)| *v).collect();
        let cur = vals.last().copied().unwrap_or(0.0);
        trend_row(&mut out, "cycles/win", &vals, format!("{cur:.0}"));
        any = true;
    }
    if !idles.is_empty() {
        let tmap: BTreeMap<u64, f64> = tasks.iter().copied().collect();
        let vals: Vec<f64> = idles
            .iter()
            .map(|(t, idle)| {
                let tk = tmap.get(t).copied().unwrap_or(0.0);
                if idle + tk > 0.0 {
                    idle / (idle + tk)
                } else {
                    0.0
                }
            })
            .collect();
        let cur = vals.last().copied().unwrap_or(0.0);
        trend_row(&mut out, "idle share", &vals, format!("{cur:.3}"));
        any = true;
    }
    if !lag.is_empty() {
        let vals: Vec<f64> = lag.iter().map(|(_, v)| *v).collect();
        let cur = vals.last().copied().unwrap_or(0.0);
        trend_row(&mut out, "replica lag", &vals, format!("{cur:.0}"));
        any = true;
    }
    any.then_some(out)
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn render(prev: Option<&Frame>, cur: &Frame, addr: &str, clear: bool, trends: Option<&str>) {
    let mut out = String::new();
    if clear {
        out.push_str("\x1b[2J\x1b[H");
    }
    let wall_ns = prev
        .map(|p| cur.at.duration_since(p.at).as_nanos() as u64)
        .unwrap_or(0);
    out.push_str(&format!(
        "psmtop — {addr}  (window {:.1}s)\n\n",
        wall_ns as f64 / 1e9
    ));

    // Per-worker activity.
    let workers = worker_ids(cur);
    if workers.is_empty() {
        out.push_str("workers: none reported yet (no parallel run in registry)\n");
    } else {
        // Pool lifecycle gauges: helpers are spawned once per matcher
        // lifetime, so a healthy engine shows `spawned` flat at
        // threads - 1 while batches keep flowing; respawns only move
        // when a helper died, wakes only on bulk batches.
        let pool = |name: &str| cur.gauges.get(&format!("engine.pool.{name}")).copied();
        if let (Some(spawned), Some(live)) = (pool("spawned"), pool("live")) {
            out.push_str(&format!(
                "pool: {live} helpers live / {spawned} spawned this matcher, \
                 {} respawns, {} wakes\n\n",
                pool("respawns").unwrap_or(0),
                pool("helper_wakes").unwrap_or(0)
            ));
        }
        out.push_str("worker     tasks   steals  attempts     busy%    lock%    idle-spins\n");
        let mut exec_total = 0u64;
        let mut lock_total = 0u64;
        for w in &workers {
            let tasks = wdelta(prev, cur, "tasks", w);
            let steals = wdelta(prev, cur, "steals", w);
            let attempts = wdelta(prev, cur, "steal_attempts", w);
            let exec = wdelta(prev, cur, "exec_ns", w);
            let lock = wdelta(prev, cur, "lock_wait_ns", w);
            let spins = wdelta(prev, cur, "idle_spins", w);
            exec_total += exec;
            lock_total += lock;
            let share = |ns: u64| {
                if wall_ns > 0 {
                    format!("{:7.1}%", 100.0 * ns as f64 / wall_ns as f64)
                } else {
                    "      -".to_string()
                }
            };
            out.push_str(&format!(
                "{w:>6}  {tasks:>8}  {steals:>7}  {attempts:>8}  {}  {}  {spins:>12}\n",
                share(exec),
                share(lock)
            ));
        }
        // Live §6 estimate: lock-wait is work the nominal machine counts
        // but the true speed-up loses.
        if wall_ns > 0 && exec_total > 0 {
            let true_c = exec_total as f64 / wall_ns as f64;
            let nominal = (exec_total + lock_total) as f64 / wall_ns as f64;
            out.push_str(&format!(
                "\nlive §6 estimate: nominal concurrency {:.2}, true {:.2}, loss factor {:.2}\n",
                nominal,
                true_c,
                if true_c > 0.0 { nominal / true_c } else { 0.0 }
            ));
        }
    }

    // DES-published exact §6 figures, when a sim run shares the registry.
    let sims: Vec<(String, i64)> = cur
        .gauges
        .iter()
        .filter_map(|(k, v)| {
            k.strip_prefix("sim.concurrency_milli{system=\"")
                .and_then(|rest| rest.strip_suffix("\"}"))
                .map(|sys| (sys.to_string(), *v))
        })
        .collect();
    for (sys, conc) in &sims {
        let g = |name: &str| {
            cur.gauges
                .get(&format!("{name}{{system=\"{sys}\"}}"))
                .copied()
                .unwrap_or(0)
        };
        out.push_str(&format!(
            "sim[{sys}]: concurrency {:.2}, true speed-up {:.2}, loss factor {:.2}\n",
            *conc as f64 / 1e3,
            g("sim.true_speedup_milli") as f64 / 1e3,
            g("sim.lost_factor_milli") as f64 / 1e3,
        ));
    }

    // Per-phase latency quantiles.
    out.push_str("\nphase       spans       p50       p99      mean\n");
    for (label, key) in [
        ("match", "phase.match_ns"),
        ("select", "phase.select_ns"),
        ("act", "phase.act_ns"),
    ] {
        let h = windowed(prev, cur, key);
        let mean = h.sum.checked_div(h.count).unwrap_or(0);
        out.push_str(&format!(
            "{label:<9} {:>7}  {:>8}  {:>8}  {:>8}\n",
            h.count,
            fmt_ns(h.quantile_bound(0.5)),
            fmt_ns(h.quantile_bound(0.99)),
            fmt_ns(mean)
        ));
    }

    // Hot nodes: top-8 by pairs-compared share, windowed against the
    // previous frame when one exists so the ranking tracks *current*
    // match effort, not lifetime totals.
    if cur.prof_enabled {
        let deltas: Vec<(u64, u64, &ProfRow)> = cur
            .prof_rows
            .iter()
            .map(|(&node, row)| {
                let before = prev
                    .and_then(|p| p.prof_rows.get(&node))
                    .map_or(0, |r| r.pairs);
                (node, row.pairs.saturating_sub(before), row)
            })
            .collect();
        let total: u64 = deltas.iter().map(|(_, d, _)| *d).sum();
        let mut top = deltas;
        top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out.push_str(&format!(
            "\nhot nodes (by pairs compared, {} tracked, {} overflowed)\n",
            cur.prof_retained, cur.prof_overflow
        ));
        out.push_str("node     kind   pairs/win   share     jsel\n");
        for (node, delta, row) in top.iter().take(8) {
            if *delta == 0 && total > 0 {
                break;
            }
            let share = if total > 0 {
                format!("{:5.1}%", 100.0 * *delta as f64 / total as f64)
            } else {
                "     -".to_string()
            };
            out.push_str(&format!(
                "{node:>6}  {:>5}  {delta:>9}  {share}  {:.4}\n",
                row.kind, row.selectivity
            ));
        }
    }

    // Sparkline trends from the history ring, when the target has one.
    if let Some(t) = trends {
        out.push_str(t);
    }

    // Engine state gauges.
    let gauge = |k: &str| cur.gauges.get(k).copied();
    let depth = gauge("interp.conflict_size").or_else(|| gauge("fault.conflict_size"));
    out.push_str(&format!(
        "\nconflict-set depth {}   wm size {}   firings {}   degradation tier {}\n",
        depth.map_or("-".to_string(), |v| v.to_string()),
        gauge("interp.wm_size").map_or("-".to_string(), |v| v.to_string()),
        cur.counters.get("interp.firings").copied().unwrap_or(0),
        gauge("fault.tier").map_or("-".to_string(), |v| v.to_string()),
    ));
    print!("{out}");
    use std::io::Write;
    let _ = std::io::stdout().flush();
}

/// `--demo`: a self-contained live target — a 4-thread parallel engine
/// churning preset cycles in a background thread, publishing into an
/// in-process telemetry server with a history ring sampled at 200 ms
/// (so the sparkline panel has data).
fn spawn_demo() -> (TelemetryServer, Sampler, SocketAddr) {
    use psm_core::{ParallelOptions, ParallelReteMatcher};
    use workloads::{GeneratedWorkload, Preset, WorkloadDriver};

    let obs = Arc::new(Obs::with_history(4096, 16_384, 4096, 64));
    let server = TelemetryServer::start(Arc::clone(&obs), &TelemetryConfig::default())
        .expect("demo listener binds");
    let sampler = Sampler::start(Arc::clone(&obs), Duration::from_millis(200));
    let addr = server.local_addr();
    std::thread::Builder::new()
        .name("psmtop-demo".to_string())
        .spawn(move || {
            let mut seed = 0xD0D0u64;
            loop {
                let workload = GeneratedWorkload::generate(Preset::EpSoar.spec_small())
                    .expect("workload generates");
                let mut matcher = ParallelReteMatcher::compile(
                    &workload.program,
                    ParallelOptions {
                        threads: 4,
                        ..ParallelOptions::default()
                    },
                )
                .expect("engine compiles");
                matcher.attach_obs(Arc::clone(&obs));
                matcher.enable_timing();
                let mut driver = WorkloadDriver::new(workload, seed);
                driver.init(&mut matcher);
                driver.run_cycles(&mut matcher, 200);
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
        })
        .expect("demo thread spawns");
    (server, sampler, addr)
}

fn main() {
    let opts = parse_args();
    let (_demo_server, _demo_sampler, addr) = if opts.demo {
        let (server, sampler, addr) = spawn_demo();
        (Some(server), Some(sampler), addr.to_string())
    } else {
        match &opts.addr {
            Some(a) => (None, None, a.clone()),
            None => {
                eprintln!("usage: psmtop --addr HOST:PORT | --demo  [--interval-ms N] [--once] [--frames N]");
                std::process::exit(2);
            }
        }
    };
    let sock: SocketAddr = match addr.parse() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("psmtop: bad --addr {addr}: {e}");
            std::process::exit(2);
        }
    };

    let mut prev: Option<Frame> = None;
    let mut shown = 0u64;
    if opts.once {
        // Headless mode: take a silent warm frame, wait one interval,
        // and render the second poll windowed against it — a single
        // meaningful frame instead of process-lifetime totals.
        if let Ok((200, body)) = http_get(sock, "/snapshot", Duration::from_secs(5)) {
            if let Some(mut warm) = parse_frame(&body) {
                if let Ok((200, p)) = http_get(sock, "/profile", Duration::from_secs(5)) {
                    parse_profile(&p, &mut warm);
                }
                prev = Some(warm);
            }
        }
        std::thread::sleep(opts.interval);
    }
    loop {
        let frame = match http_get(sock, "/snapshot", Duration::from_secs(5)) {
            Ok((200, body)) => parse_frame(&body),
            Ok((status, _)) => {
                eprintln!("psmtop: /snapshot returned {status}");
                None
            }
            Err(e) => {
                eprintln!("psmtop: {addr}: {e}");
                None
            }
        };
        if let Some(mut cur) = frame {
            if let Ok((200, body)) = http_get(sock, "/profile", Duration::from_secs(5)) {
                parse_profile(&body, &mut cur);
            }
            let trends = http_get(
                sock,
                "/timeseries?metric=interp.firings,engine.worker.tasks,\
                 engine.worker.idle_spins,replica.lag&window=24",
                Duration::from_secs(5),
            )
            .ok()
            .filter(|(status, _)| *status == 200)
            .and_then(|(_, body)| trends_block(&body));
            render(
                prev.as_ref(),
                &cur,
                &addr,
                !opts.once && shown > 0,
                trends.as_deref(),
            );
            prev = Some(cur);
            shown += 1;
        } else if opts.once {
            std::process::exit(1);
        }
        if opts.once || opts.frames.is_some_and(|n| shown >= n) {
            break;
        }
        std::thread::sleep(opts.interval);
    }
}
