//! The measurement protocol: which rounds to run, in what order, and
//! how their raw samples become the reported metrics.
//!
//! Rounds are fresh child processes of this binary, one at a time,
//! round-robin over the jobs so that slow stretches of the host spread
//! over all of them. Rounds of one job are operation-identical (their
//! output checksums are compared before anything else), which is what
//! licenses the quiet-time estimator of [`crate::estimator`].

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

use crate::estimator::{
    at_rank, median, quartiles, quiet_cycles_ns, quiet_time_ns, tail_rank, Quartiles, SEGMENT,
};
use crate::metrics::{Workload, END_TO_END, PER_LAYER};
use crate::report::json_object;
use crate::round::{Input, RoundResult, RoundSpec, Stack};
use crate::verify::{reference, Reference};

/// Options shared by every subcommand.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Quarter-size workloads (for CI wiring; still verified).
    pub quick: bool,
    /// Test only: corrupt the references so verification must fail.
    pub corrupt: bool,
}

/// When to stop launching rounds.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many passes over the jobs.
    Rounds(usize),
    /// Once this many seconds have passed (at least two passes).
    Seconds(f64),
}

/// One configuration to run rounds of.
#[derive(Debug, Clone)]
pub struct Job {
    /// The workload it belongs to.
    pub workload: &'static Workload,
    /// `"main"`, `"traced"`, or the stack name of a comparison run.
    pub label: &'static str,
    /// What the child runs.
    pub spec: RoundSpec,
}

impl Options {
    fn spec(&self, w: &Workload, stack: Stack, traced: bool) -> RoundSpec {
        let size = match (self.quick, w.input) {
            (false, _) => w.size,
            // Closure work grows with the square of the node count.
            (true, Input::Closure) => w.size / 2,
            (true, _) => w.size / 4,
        };
        RoundSpec {
            input: w.input,
            stack,
            size,
            seed: self.seed,
            traced,
            trace_out: None,
        }
    }

    /// The untraced job of `w`: the only source of end-to-end numbers.
    pub fn main_job(&self, w: &'static Workload) -> Job {
        Job {
            workload: w,
            label: "main",
            spec: self.spec(w, w.stack, false),
        }
    }

    /// The jobs of the traced pass of `w`: the traced run, the same run
    /// untraced (their difference is the tracing overhead), and the
    /// other stacks the layer ratios compare against, all on the same
    /// input, size and seed.
    pub fn traced_jobs(&self, w: &'static Workload, out_dir: &str) -> Vec<Job> {
        let mut traced = self.spec(w, w.stack, true);
        traced.trace_out = Some(format!("{out_dir}/trace-{}.json", w.name));
        let mut jobs = vec![
            Job {
                workload: w,
                label: "traced",
                spec: traced,
            },
            self.main_job(w),
        ];
        let others: &[Stack] = match (w.input, w.stack) {
            (Input::Vt, Stack::Seq) => &[Stack::Linear],
            (Input::Vt, Stack::Par2) => &[Stack::Seq, Stack::Par1],
            (Input::Vt, Stack::Durable) => &[Stack::Par2],
            (Input::Vt, Stack::Telemetry) => &[Stack::Seq],
            _ => &[],
        };
        for &stack in others {
            jobs.push(Job {
                workload: w,
                label: stack.name(),
                spec: self.spec(w, stack, false),
            });
        }
        jobs
    }

    /// The reference the rounds of `w` are checked against.
    pub fn reference(&self, w: &Workload) -> Reference {
        let size = self.spec(w, w.stack, false).size;
        reference(w.input, size, self.seed, self.corrupt)
    }
}

fn spawn_round(spec: &RoundSpec) -> Result<RoundResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let output = Command::new(exe)
        .args(spec.to_args())
        .output()
        .map_err(|e| format!("cannot start a round: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "round {:?} failed ({}): {}",
            spec.to_args(),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    RoundResult::from_text(&String::from_utf8_lossy(&output.stdout))
}

/// Runs rounds of `jobs` round-robin until `stop`; returns the rounds
/// of each job, in job order.
pub fn collect(jobs: &[Job], stop: Stop) -> Result<Vec<Vec<RoundResult>>, String> {
    let started = Instant::now();
    let mut rounds: Vec<Vec<RoundResult>> = vec![Vec::new(); jobs.len()];
    for pass in 0.. {
        let done = match stop {
            Stop::Rounds(n) => pass >= n.max(1),
            Stop::Seconds(s) => pass >= 2 && started.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
        for (job, out) in jobs.iter().zip(&mut rounds) {
            let mut spec = job.spec.clone();
            if pass > 0 {
                // One span file per workload is enough.
                spec.trace_out = None;
            }
            out.push(spawn_round(&spec)?);
        }
    }
    Ok(rounds)
}

/// Verification verdict over all rounds of one workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// Cycles attempted, over all rounds.
    pub attempted: u64,
    /// Cycles failed: the round's own failures, plus every cycle of a
    /// round whose output check failed.
    pub failed: u64,
    /// What went wrong, for the log.
    pub problems: Vec<String>,
}

/// Checks every round of a workload (all jobs share input, size and
/// seed, so all must produce the same outputs) against each other and
/// against the independent reference.
pub fn verify(w: &Workload, jobs: &[Job], rounds: &[Vec<RoundResult>], r: &Reference) -> Verdict {
    let mut v = Verdict::default();
    let first = rounds.iter().flatten().next();
    for (job, round) in jobs
        .iter()
        .zip(rounds)
        .flat_map(|(j, rs)| rs.iter().map(move |r| (j, r)))
    {
        let cycles = round.cycle_ns.len() as u64;
        v.attempted += cycles.max(1);
        let mut bad = Vec::new();
        if first.is_some_and(|f| f.marks != round.marks || f.output != round.output) {
            bad.push("outputs differ between rounds".to_string());
        }
        let seen = match r.mark {
            Some(i) => round.marks.get(i).copied(),
            None => Some(round.output),
        };
        if seen != Some(r.checksum) {
            bad.push(format!(
                "output differs from the reference over {} cycles",
                r.cycles
            ));
        }
        if w.input == Input::Closure && !round.quiescent {
            bad.push("run did not reach quiescence".to_string());
        }
        if bad.is_empty() {
            v.failed += round.failed;
        } else {
            v.failed += cycles.max(1);
        }
        if round.failed > 0 {
            bad.push(format!("{} cycles failed", round.failed));
        }
        for b in bad {
            v.problems.push(format!("{} [{}]: {b}", w.name, job.label));
        }
    }
    v
}

/// A reported value with the spread of the per-round values beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reported {
    /// The value reported (quiet-time estimate, or minimum/median over
    /// rounds as the metric defines).
    pub value: f64,
    /// Median, quartiles and count of the same quantity per round.
    pub rounds: Quartiles,
}

/// The end-to-end metrics of one workload, in [`END_TO_END`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    /// One per [`END_TO_END`] entry.
    pub values: Vec<Reported>,
    /// Cycles per round.
    pub cycles: usize,
    /// Effective tail percentile (0.99 when the run has ≥ 1000 cycles).
    pub tail: f64,
}

fn views(rounds: &[RoundResult]) -> Vec<&[u64]> {
    rounds.iter().map(|r| r.cycle_ns.as_slice()).collect()
}

/// Quiet time of the whole loop of a job, nanoseconds; 0 if its rounds
/// are not operation-identical (verification reports that).
pub fn quiet_ns(rounds: &[RoundResult]) -> u64 {
    let v = views(rounds);
    if v.windows(2).any(|p| p[0].len() != p[1].len()) {
        return 0;
    }
    quiet_time_ns(&v, SEGMENT)
}

/// Reduces the untraced rounds of a workload to its end-to-end metrics.
pub fn end_to_end(rounds: &[RoundResult]) -> EndToEnd {
    let cycles = rounds.first().map_or(0, |r| r.cycle_ns.len());
    let rank = tail_rank(cycles, 0.99);
    let per_round =
        |f: &dyn Fn(&RoundResult) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let at_rank = |ns: &[u64], rank: usize| at_rank(ns, rank) as f64 / 1e3;
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);

    let setup = per_round(&|r| r.setup_total_ns() as f64 / 1e9);
    let rate =
        per_round(&|r| r.changes as f64 / (r.cycle_ns.iter().sum::<u64>().max(1) as f64 / 1e9));
    let p50 = per_round(&|r| at_rank(&r.cycle_ns, r.cycle_ns.len().div_ceil(2)));
    let tail = per_round(&|r| at_rank(&r.cycle_ns, rank));
    let rss = per_round(&|r| r.rss_kb as f64 / 1024.0);

    let quiet = quiet_ns(rounds).max(1) as f64 / 1e9;
    let same_length = rounds.iter().all(|r| r.cycle_ns.len() == cycles);
    let quiet_cycles = if same_length {
        quiet_cycles_ns(&views(rounds))
    } else {
        Vec::new()
    };
    let changes = rounds.first().map_or(0, |r| r.changes) as f64;
    let reported = [
        min(&setup),
        changes / quiet,
        at_rank(&quiet_cycles, cycles.div_ceil(2)),
        at_rank(&quiet_cycles, rank),
        median(&rss),
    ];
    let spreads = [&setup, &rate, &p50, &tail, &rss];
    EndToEnd {
        values: reported
            .iter()
            .zip(spreads)
            .map(|(value, per_round)| Reported {
                value: *value,
                rounds: quartiles(per_round),
            })
            .collect(),
        cycles,
        tail: rank as f64 / cycles.max(1) as f64,
    }
}

/// One per-layer value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerValue {
    /// The value (0 when the workload does not exercise the layer).
    pub value: f64,
    /// Repeats bit-for-bit for a given seed.
    pub exact: bool,
}

/// The traced pass of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Layers {
    /// One per [`PER_LAYER`] entry.
    pub values: Vec<LayerValue>,
    /// Cycle wall time of the traced pass and its split into match,
    /// select, act and unattributed self times, nanoseconds (median
    /// over traced rounds; the four parts sum to the first).
    pub cycle_split_ns: [f64; 5],
    /// Exact counters that differed between rounds (must be empty).
    pub unstable: Vec<String>,
}

/// Reduces the rounds of a traced pass (`jobs` as built by
/// [`Options::traced_jobs`]) to the per-layer metrics.
pub fn layers(jobs: &[Job], rounds: &[Vec<RoundResult>], r: &Reference) -> Layers {
    let by_label: BTreeMap<&str, &[RoundResult]> = jobs
        .iter()
        .zip(rounds)
        .map(|(j, rs)| (j.label, rs.as_slice()))
        .collect();
    let of = |label: &str| by_label.get(label).copied().unwrap_or(&[]);
    let quiet = |label: &str| quiet_ns(of(label)) as f64;
    let ratio = |a: f64, b: f64| if a > 0.0 && b > 0.0 { a / b } else { 0.0 };
    let (traced, main) = (of("traced"), of("main"));
    let measured = |name: &str| -> f64 {
        let v: Vec<f64> = traced.iter().filter_map(|r| r.reading(name)).collect();
        median(&v)
    };

    let stack = jobs.first().map(|j| j.workload.stack);
    let mut derived: BTreeMap<&str, f64> = BTreeMap::new();
    derived.insert(
        "trace.overhead_pct",
        100.0 * (ratio(quiet("traced"), quiet("main")) - 1.0),
    );
    match stack {
        Some(Stack::Seq) => {
            derived.insert(
                "rete.runtime.linear_vs_hashed_x",
                ratio(quiet("linear"), quiet("main")),
            );
            // TREAT ran the oracle prefix anyway; Rete's side is the
            // quiet time of the same cycles.
            if r.match_ns > 0 && main.iter().all(|m| m.cycle_ns.len() >= r.cycles) {
                let prefix: Vec<&[u64]> = main.iter().map(|m| &m.cycle_ns[..r.cycles]).collect();
                derived.insert(
                    "baselines.treat.slowdown_x",
                    ratio(r.match_ns as f64, quiet_time_ns(&prefix, SEGMENT) as f64),
                );
            }
        }
        Some(Stack::Par2) => {
            let true_speedup = ratio(quiet("seq"), quiet("main"));
            derived.insert(
                "psm_core.engine.par1_overhead_x",
                ratio(quiet("par1"), quiet("seq")),
            );
            derived.insert(
                "psm_core.engine.par2_speedup_x",
                ratio(quiet("par1"), quiet("main")),
            );
            derived.insert("psm_core.engine.true_speedup_x", true_speedup);
            derived.insert(
                "psm_core.engine.loss_factor",
                ratio(
                    measured("psm_core.engine.nominal_concurrency"),
                    true_speedup,
                ),
            );
        }
        Some(Stack::Durable) => {
            derived.insert(
                "psm_fault.supervisor.overhead_x",
                ratio(quiet("main"), quiet("par2")),
            );
        }
        Some(Stack::Telemetry) => {
            derived.insert(
                "psm_obs.telemetry_overhead_pct",
                100.0 * (ratio(quiet("main"), quiet("seq")) - 1.0),
            );
        }
        _ => {}
    }

    // Exact counters come from any round of the workload's own stack
    // and must agree on all of them.
    let own: Vec<&RoundResult> = traced.iter().chain(main).collect();
    let mut unstable = Vec::new();
    let values = PER_LAYER
        .iter()
        .map(|m| {
            if let Some(v) = derived.get(m.name) {
                return LayerValue {
                    value: *v,
                    exact: false,
                };
            }
            let exact: Vec<f64> = own
                .iter()
                .flat_map(|r| r.readings.iter())
                .filter(|x| x.exact && x.name == m.name)
                .map(|x| x.value)
                .collect();
            match exact.first() {
                Some(first) => {
                    if exact.iter().any(|v| v != first) {
                        unstable.push(m.name.to_string());
                    }
                    LayerValue {
                        value: *first,
                        exact: true,
                    }
                }
                None => LayerValue {
                    value: measured(m.name),
                    exact: false,
                },
            }
        })
        .collect();
    Layers {
        values,
        cycle_split_ns: [
            "trace.cycle_wall_ns",
            "trace.match_ns",
            "trace.select_ns",
            "trace.act_ns",
            "trace.unattributed_ns",
        ]
        .map(measured),
        unstable,
    }
}

/// The driver's result line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(v: &Verdict, metrics: &[(&str, f64, &str)]) -> String {
    use psm_obs::json::{escape, number};
    let metrics = metrics.iter().map(|(name, value, unit)| {
        let body = json_object([("value", number(*value)), ("unit", escape(unit))]);
        (*name, body)
    });
    json_object([
        ("correct", (v.failed == 0).to_string()),
        ("attempted", v.attempted.max(1).to_string()),
        ("failed", v.failed.to_string()),
        ("metrics", json_object(metrics)),
    ])
}

/// `(name, value, unit)` triples of an end-to-end reduction.
pub fn end_to_end_metrics(e: &EndToEnd) -> Vec<(&'static str, f64, &'static str)> {
    END_TO_END
        .iter()
        .zip(&e.values)
        .map(|(m, v)| (m.name, v.value, m.unit))
        .collect()
}

/// `(name, value, unit)` triples of a traced pass.
pub fn layer_metrics(l: &Layers) -> Vec<(&'static str, f64, &'static str)> {
    PER_LAYER
        .iter()
        .zip(&l.values)
        .map(|(m, v)| (m.name, v.value, m.unit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    fn round(cycle_ns: Vec<u64>, changes: u64, setup: u64, rss_kb: u64) -> RoundResult {
        RoundResult {
            setup_ns: [setup, 0, 0, 0],
            marks: vec![1, 2],
            output: 2,
            cycle_ns,
            changes,
            rss_kb,
            ..RoundResult::default()
        }
    }

    #[test]
    fn end_to_end_uses_quiet_time_and_per_cycle_minima() {
        // 200 cycles of 1 µs; each round is noisy in a different
        // segment, so quiet time is the clean 200 µs.
        let mut a = vec![1000u64; 200];
        let mut b = a.clone();
        a[10] = 500_000;
        b[150] = 900_000;
        let e = end_to_end(&[
            round(a, 400, 3_000_000, 2048),
            round(b, 400, 2_000_000, 4096),
        ]);
        let by_name: BTreeMap<_, _> = end_to_end_metrics(&e)
            .into_iter()
            .map(|(n, v, _)| (n, v))
            .collect();
        assert_eq!(by_name["setup_s"], 0.002);
        assert_eq!(by_name["wme_changes_per_s"], 400.0 / 200e-6);
        assert_eq!(by_name["cycle_p50_us"], 1.0);
        assert_eq!(by_name["cycle_p99_us"], 1.0);
        assert_eq!(by_name["peak_rss_mb"], 3.0);
        assert_eq!(e.cycles, 200);
        // 200 cycles cannot carry p99 with ten samples beyond: p95.
        assert!((e.tail - 0.95).abs() < 1e-12);
        assert_eq!(e.values[0].rounds.n, 2);
    }

    #[test]
    fn verify_counts_every_cycle_of_a_wrong_run_as_failed() {
        let w = &WORKLOADS[0];
        let opts = Options {
            seed: 0,
            quick: true,
            corrupt: false,
        };
        let jobs = vec![opts.main_job(w)];
        let good = round(vec![5; 100], 10, 1, 1);
        let reference = Reference {
            mark: Some(0),
            cycles: 100,
            checksum: 1,
            match_ns: 0,
        };
        let ok = verify(w, &jobs, &[vec![good.clone(), good.clone()]], &reference);
        assert_eq!((ok.attempted, ok.failed), (200, 0));
        assert!(ok.problems.is_empty());

        let wrong = Reference {
            checksum: 7,
            ..reference
        };
        let bad = verify(w, &jobs, &[vec![good.clone(), good.clone()]], &wrong);
        assert_eq!((bad.attempted, bad.failed), (200, 200));

        let mut diverged = good.clone();
        diverged.marks[1] = 99;
        diverged.failed = 3;
        let mixed = verify(w, &jobs, &[vec![good, diverged]], &reference);
        assert_eq!((mixed.attempted, mixed.failed), (200, 100));
        assert_eq!(mixed.problems.len(), 2);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let v = Verdict {
            attempted: 10,
            failed: 0,
            problems: vec![],
        };
        let line = result_json(&v, &[("setup_s", 0.25, "s"), ("x", 3.0, "1/s")]);
        let j = psm_telemetry::client::Json::parse(&line).expect("parses");
        let keys: Vec<&str> = j.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("correct").and_then(|c| c.as_bool()), Some(true));
        let m = j.get("metrics").unwrap();
        assert_eq!(m.members().len(), 2);
        assert_eq!(
            m.get("setup_s")
                .and_then(|s| s.get("value"))
                .and_then(|v| v.as_f64()),
            Some(0.25)
        );
        assert_eq!(
            m.get("x")
                .and_then(|s| s.get("unit"))
                .and_then(|v| v.as_str()),
            Some("1/s")
        );
    }

    #[test]
    fn traced_jobs_compare_against_the_right_stacks() {
        let opts = Options {
            seed: 1,
            quick: false,
            corrupt: false,
        };
        let labels = |name: &str| -> Vec<&str> {
            let w = crate::metrics::workload(name).unwrap();
            opts.traced_jobs(w, "out").iter().map(|j| j.label).collect()
        };
        assert_eq!(labels("vt-stream"), ["traced", "main", "linear"]);
        assert_eq!(labels("vt-stream-par2"), ["traced", "main", "seq", "par1"]);
        assert_eq!(labels("vt-stream-durable"), ["traced", "main", "par2"]);
        assert_eq!(labels("vt-stream-telemetry"), ["traced", "main", "seq"]);
        assert_eq!(labels("closure"), ["traced", "main"]);
        let w = crate::metrics::workload("vt-stream-par2").unwrap();
        let jobs = opts.traced_jobs(w, "out");
        assert!(jobs.iter().all(|j| j.spec.size == 1000 && j.spec.seed == 1));
        assert_eq!(
            jobs[0].spec.trace_out.as_deref(),
            Some("out/trace-vt-stream-par2.json")
        );
    }
}
