//! Perf-trajectory plumbing: fingerprinted history records in
//! `results/bench_history.jsonl`, interleaved per-rep measurement for
//! the statistical regression gate, and the `BENCH_10.json` trajectory
//! artifact.
//!
//! A *record* is one `bench_baseline` run: git commit, machine
//! fingerprint, per-preset throughput plus the per-rep elapsed samples
//! the `perf_gate` binary later pairs against (see
//! `psm_analyze::regress`). Records append as JSONL — one line per
//! run, never rewritten — so the file is a trajectory, not a snapshot.
//!
//! Rep measurement is **interleaved**: rep *i* runs every preset once
//! before rep *i+1* starts, so slow machine drift (thermal, noisy
//! neighbours) lands evenly across presets instead of on whichever
//! preset happened to run last. The `PSM_PERF_SLOWDOWN` env knob
//! (float multiplier > 1) busy-spins each measured window up to
//! `multiplier ×` its real elapsed time — the CI self-test that proves
//! the gate trips on a genuine slowdown.

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use psm_telemetry::client::Json;
use rete::ReteMatcher;
use workloads::{GeneratedWorkload, Preset, WorkloadDriver};

use crate::Variant;

/// Machine identity attached to every history record. `perf_gate`
/// warns-instead-of-fails when the baseline was recorded on different
/// hardware, so cross-host comparisons can't produce false regressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism` at record time.
    pub cpus: usize,
    /// CPU model string from `/proc/cpuinfo` (`"unknown"` elsewhere).
    pub model: String,
}

/// Reads the current machine's fingerprint.
pub fn fingerprint() -> Fingerprint {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':').map(|(_, v)| v.trim().to_string()))
        })
        .filter(|m| !m.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    Fingerprint { cpus, model }
}

/// The current git commit: `git rev-parse HEAD`, falling back to
/// `GITHUB_SHA`, then `"unknown"`.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .or_else(|| std::env::var("GITHUB_SHA").ok())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Non-blank lines of `*.rs` under the workspace's `crates/*/src` and
/// `src/` — ROADMAP's "least code" aim as a number on the trajectory,
/// beside throughput. Counted in the source tree this binary was built
/// from; 0 when that tree is gone.
pub fn rust_lines() -> u64 {
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut dirs = vec![root.join("src")];
    let crates = std::fs::read_dir(root.join("crates"));
    for krate in crates.into_iter().flatten().flatten() {
        dirs.push(krate.path().join("src"));
    }
    let mut lines = 0;
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(path).unwrap_or_default();
                lines += text.lines().filter(|l| !l.trim().is_empty()).count() as u64;
            }
        }
    }
    lines
}

/// The `PSM_PERF_SLOWDOWN` multiplier (1.0 when unset, non-numeric, or
/// ≤ 1). Values above 1 make every measured rep busy-spin to
/// `multiplier ×` its real elapsed time — the seeded-slowdown self-test.
pub fn slowdown_multiplier() -> f64 {
    std::env::var("PSM_PERF_SLOWDOWN")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|m| *m > 1.0)
        .unwrap_or(1.0)
}

/// One preset's samples inside a [`TrajectoryRecord`].
#[derive(Debug, Clone)]
pub struct PresetTrack {
    /// Preset display name (`vt`, `ep-soar`, …).
    pub name: String,
    /// Headline throughput from the single instrumented run (hashed
    /// join memories — the production default).
    pub wme_changes_per_sec: f64,
    /// Throughput of the linear-scan ablation on the same workload
    /// (`ReteMatcher::compile_linear`). Zero in records written before
    /// the ablation column existed.
    pub linear_wme_changes_per_sec: f64,
    /// Match-phase p50 from the instrumented run, nanoseconds.
    pub match_p50_ns: u64,
    /// Match-phase p99 from the instrumented run, nanoseconds.
    pub match_p99_ns: u64,
    /// Interleaved per-rep elapsed seconds — what `perf_gate` pairs.
    pub reps_s: Vec<f64>,
}

/// One `bench_baseline` run, as appended to `bench_history.jsonl`.
#[derive(Debug, Clone)]
pub struct TrajectoryRecord {
    /// Unix seconds at record time.
    pub ts: u64,
    /// Git commit the run measured.
    pub commit: String,
    /// `"small"` or `"full"` — records only compare within a variant.
    pub variant: String,
    /// Driver cycles per measured rep window.
    pub rep_cycles: u64,
    /// Machine identity.
    pub fingerprint: Fingerprint,
    /// Per-preset throughput + rep samples.
    pub presets: Vec<PresetTrack>,
    /// Parallel-engine idle share from the scheduler-health run.
    pub idle_share: f64,
    /// Telemetry-plane on/off delta, percent.
    pub telemetry_overhead_pct: f64,
    /// Per-node profiler marginal overhead, percent.
    pub profiler_overhead_pct: f64,
    /// History-ring sampler marginal overhead, percent.
    pub sampler_overhead_pct: f64,
    /// [`rust_lines`] of the measured tree. Zero in records written
    /// before the column existed; `perf_gate` does not read it.
    pub rust_lines: u64,
}

impl TrajectoryRecord {
    /// The record as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        use psm_obs::json::{number, push_escaped};
        let mut out = String::with_capacity(1024);
        out.push_str(&format!("{{\"ts\":{},\"commit\":", self.ts));
        push_escaped(&mut out, &self.commit);
        out.push_str(&format!(
            ",\"variant\":\"{}\",\"rep_cycles\":{},\"fingerprint\":{{\"cpus\":{},\"model\":",
            self.variant, self.rep_cycles, self.fingerprint.cpus
        ));
        push_escaped(&mut out, &self.fingerprint.model);
        out.push_str("},\"presets\":[");
        for (i, p) in self.presets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_escaped(&mut out, &p.name);
            out.push_str(&format!(
                ",\"wme_changes_per_sec\":{},\"linear_wme_changes_per_sec\":{},\
                 \"match_p50_ns\":{},\"match_p99_ns\":{},\"reps_s\":[",
                number(p.wme_changes_per_sec),
                number(p.linear_wme_changes_per_sec),
                p.match_p50_ns,
                p.match_p99_ns
            ));
            for (j, r) in p.reps_s.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&number(*r));
            }
            out.push_str("]}");
        }
        out.push_str(&format!(
            "],\"engine\":{{\"idle_share\":{}}},\"overhead\":{{\"telemetry_pct\":{},\
             \"profiler_pct\":{},\"sampler_pct\":{}}},\"rust_lines\":{}}}",
            number(self.idle_share),
            number(self.telemetry_overhead_pct),
            number(self.profiler_overhead_pct),
            number(self.sampler_overhead_pct),
            self.rust_lines,
        ));
        out
    }

    /// Parses one JSONL line back into a record. Returns `None` on any
    /// shape mismatch (corrupt lines are skipped, never fatal).
    pub fn from_json(line: &str) -> Option<TrajectoryRecord> {
        let j = Json::parse(line)?;
        let fp = j.get("fingerprint")?;
        let mut presets = Vec::new();
        for p in j.get("presets")?.items() {
            let reps_s = p
                .get("reps_s")?
                .items()
                .iter()
                .filter_map(|r| r.as_f64())
                .collect();
            presets.push(PresetTrack {
                name: p.get("name")?.as_str()?.to_string(),
                wme_changes_per_sec: p.get("wme_changes_per_sec")?.as_f64()?,
                // Absent in pre-ablation records: parse as zero, never
                // reject the line.
                linear_wme_changes_per_sec: p
                    .get("linear_wme_changes_per_sec")
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0),
                match_p50_ns: p.get("match_p50_ns")?.as_u64()?,
                match_p99_ns: p.get("match_p99_ns")?.as_u64()?,
                reps_s,
            });
        }
        Some(TrajectoryRecord {
            ts: j.get("ts")?.as_u64()?,
            commit: j.get("commit")?.as_str()?.to_string(),
            variant: j.get("variant")?.as_str()?.to_string(),
            rep_cycles: j.get("rep_cycles")?.as_u64()?,
            fingerprint: Fingerprint {
                cpus: fp.get("cpus")?.as_u64()? as usize,
                model: fp.get("model")?.as_str()?.to_string(),
            },
            presets,
            idle_share: j.get("engine")?.get("idle_share")?.as_f64()?,
            telemetry_overhead_pct: j.get("overhead")?.get("telemetry_pct")?.as_f64()?,
            profiler_overhead_pct: j.get("overhead")?.get("profiler_pct")?.as_f64()?,
            sampler_overhead_pct: j.get("overhead")?.get("sampler_pct")?.as_f64()?,
            rust_lines: j.get("rust_lines").and_then(Json::as_u64).unwrap_or(0),
        })
    }
}

/// Unix seconds now.
pub fn unix_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Appends `record` as one line to the JSONL history at `path`,
/// creating parent directories as needed.
pub fn append_history(path: &str, record: &TrajectoryRecord) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{}", record.to_json())
}

/// Reads every parseable record from the JSONL history at `path`
/// (oldest first). A missing file is an empty history, not an error.
pub fn read_history(path: &str) -> Vec<TrajectoryRecord> {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(TrajectoryRecord::from_json)
        .collect()
}

/// Measures `reps` interleaved elapsed-time samples for each preset:
/// rep *i* runs every preset once (fresh matcher, same generated
/// workload, setup excluded from the window) before rep *i+1*. One
/// warm-up sweep is discarded. Honors [`slowdown_multiplier`].
pub fn measure_reps(
    presets: &[Preset],
    variant: Variant,
    cycles: u64,
    reps: usize,
) -> Vec<(String, Vec<f64>)> {
    let workloads: Vec<GeneratedWorkload> = presets
        .iter()
        .map(|p| {
            let spec = match variant {
                Variant::Small => p.spec_small(),
                _ => p.spec(),
            };
            GeneratedWorkload::generate(spec).expect("workload generates")
        })
        .collect();
    let mult = slowdown_multiplier();
    let run_once = |w: &GeneratedWorkload| -> f64 {
        let mut matcher = ReteMatcher::compile(&w.program).expect("compiles");
        let mut driver = WorkloadDriver::new(w.clone(), 0xBA5E);
        driver.init(&mut matcher);
        let started = Instant::now();
        driver.run_cycles(&mut matcher, cycles);
        if mult > 1.0 {
            // The self-test slowdown: stretch the measured window to
            // `mult ×` its real length with a busy spin, as a hot-path
            // regression would.
            let target = Duration::from_secs_f64(started.elapsed().as_secs_f64() * mult);
            while started.elapsed() < target {
                std::hint::spin_loop();
            }
        }
        started.elapsed().as_secs_f64()
    };
    for w in &workloads {
        run_once(w);
    }
    let mut out: Vec<(String, Vec<f64>)> = presets
        .iter()
        .map(|p| (p.name().to_string(), Vec::with_capacity(reps)))
        .collect();
    for _ in 0..reps {
        for (i, w) in workloads.iter().enumerate() {
            out[i].1.push(run_once(w));
        }
    }
    out
}

/// Writes the `BENCH_10.json` trajectory artifact: per-record summaries
/// (oldest first) plus the latest record in full.
pub fn write_trajectory_artifact(path: &str, records: &[TrajectoryRecord]) -> std::io::Result<()> {
    use psm_obs::json::{number, push_escaped};
    let mut out = String::from("{\"bench\":\"BENCH_10\",\"kind\":\"perf-trajectory\",\"records\":");
    out.push_str(&records.len().to_string());
    out.push_str(",\"trajectory\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"ts\":{},\"commit\":", r.ts));
        push_escaped(&mut out, &r.commit);
        out.push_str(&format!(
            ",\"variant\":\"{}\",\"wme_changes_per_sec\":{{",
            r.variant
        ));
        for (j, p) in r.presets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_escaped(&mut out, &p.name);
            out.push(':');
            out.push_str(&number(p.wme_changes_per_sec));
        }
        out.push_str(&format!(
            "}},\"idle_share\":{},\"sampler_pct\":{}}}",
            number(r.idle_share),
            number(r.sampler_overhead_pct)
        ));
    }
    out.push_str("],\"latest\":");
    match records.last() {
        Some(r) => out.push_str(&r.to_json()),
        None => out.push_str("null"),
    }
    out.push('}');
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> TrajectoryRecord {
        TrajectoryRecord {
            ts: 1_723_100_000,
            commit: "abcdef0123".to_string(),
            variant: "small".to_string(),
            rep_cycles: 1200,
            fingerprint: Fingerprint {
                cpus: 8,
                model: "Example CPU @ 3.0GHz".to_string(),
            },
            presets: vec![PresetTrack {
                name: "vt".to_string(),
                wme_changes_per_sec: 123456.5,
                linear_wme_changes_per_sec: 23456.25,
                match_p50_ns: 2048,
                match_p99_ns: 65536,
                reps_s: vec![0.101, 0.099, 0.1],
            }],
            idle_share: 0.0015,
            telemetry_overhead_pct: 0.4,
            profiler_overhead_pct: 1.1,
            sampler_overhead_pct: 0.2,
            rust_lines: 43_210,
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = sample_record();
        let line = r.to_json();
        let back = TrajectoryRecord::from_json(&line).expect("parses");
        assert_eq!(back.commit, r.commit);
        assert_eq!(back.fingerprint, r.fingerprint);
        assert_eq!(back.presets.len(), 1);
        assert_eq!(back.presets[0].reps_s, r.presets[0].reps_s);
        assert_eq!(back.rep_cycles, 1200);
        assert_eq!(back.sampler_overhead_pct, 0.2);
        assert_eq!(back.presets[0].linear_wme_changes_per_sec, 23456.25);
        assert_eq!(back.rust_lines, 43_210);
    }

    #[test]
    fn rust_lines_counts_the_tree_it_was_built_from() {
        let own = include_str!("trajectory.rs");
        let own = own.lines().filter(|l| !l.trim().is_empty()).count() as u64;
        assert!(
            rust_lines() > 20 * own,
            "this file is a small part of the workspace"
        );
    }

    #[test]
    fn pre_ablation_records_parse_with_zero_linear_throughput() {
        let r = sample_record();
        // Simulate a record written before the linear ablation column
        // existed by stripping the field from the serialized line.
        let line = r
            .to_json()
            .replace("\"linear_wme_changes_per_sec\":23456.25,", "")
            .replace(",\"rust_lines\":43210", "");
        let back = TrajectoryRecord::from_json(&line).expect("old shape still parses");
        assert_eq!(back.presets[0].linear_wme_changes_per_sec, 0.0);
        assert_eq!(back.rust_lines, 0, "absent in records before the column");
        assert_eq!(back.presets[0].wme_changes_per_sec, 123456.5);
    }

    #[test]
    fn history_appends_and_reads_back_skipping_garbage() {
        let dir = std::env::temp_dir().join(format!("psm-traj-{}", std::process::id()));
        let path = dir.join("hist.jsonl");
        let path = path.to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);
        assert!(read_history(&path).is_empty(), "missing file = empty");
        append_history(&path, &sample_record()).unwrap();
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            writeln!(f, "not json at all").unwrap();
        }
        let mut second = sample_record();
        second.commit = "fedcba".to_string();
        append_history(&path, &second).unwrap();
        let records = read_history(&path);
        assert_eq!(records.len(), 2, "garbage line skipped");
        assert_eq!(records[1].commit, "fedcba");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_and_commit_are_nonempty() {
        let fp = fingerprint();
        assert!(fp.cpus >= 1);
        assert!(!fp.model.is_empty());
        assert!(!git_commit().is_empty());
    }

    #[test]
    fn slowdown_multiplier_defaults_to_one() {
        // The env knob is absent under `cargo test`.
        assert_eq!(slowdown_multiplier(), 1.0);
    }

    #[test]
    fn interleaved_reps_measure_every_preset() {
        let tracks = measure_reps(&[Preset::EpSoar], Variant::Small, 5, 2);
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracks[0].0, "ep-soar");
        assert_eq!(tracks[0].1.len(), 2);
        assert!(tracks[0].1.iter().all(|s| *s > 0.0));
    }

    #[test]
    fn trajectory_artifact_contains_summary_and_latest() {
        let dir = std::env::temp_dir().join(format!("psm-traj-art-{}", std::process::id()));
        let path = dir.join("BENCH_10.json");
        let path = path.to_str().unwrap().to_string();
        write_trajectory_artifact(&path, &[sample_record()]).unwrap();
        let j = Json::parse(&std::fs::read_to_string(&path).unwrap()).expect("valid json");
        assert_eq!(j.get("bench").and_then(|b| b.as_str()), Some("BENCH_10"));
        assert_eq!(j.get("records").and_then(|r| r.as_u64()), Some(1));
        assert_eq!(j.get("trajectory").map(|t| t.items().len()), Some(1));
        assert!(j.get("latest").and_then(|l| l.get("presets")).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
