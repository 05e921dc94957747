//! `psmbench` — one end-to-end, layer-attributed benchmark of the
//! recognize–act loop across the four stacks of this repository
//! (sequential Rete, the node-parallel engine, the supervised durable
//! stack, and the telemetry-on configuration). See `README.md` beside
//! this package for the workloads, the metrics and the protocol.
//!
//! ```text
//! psmbench run   [--workload W] [--seed S] [--seconds T | --rounds R]
//!                [--trace 0|1] [--quick] [--out DIR]
//! psmbench aa    [--seed S] [--rounds R] [--quick] [--out DIR]
//! psmbench round --input I --stack K --size N --seed S --traced 0|1
//! ```
//!
//! With `--workload`, `run` measures that workload only — end to end
//! with `--trace 0`, per layer with `--trace 1` — and ends its output
//! with one JSON result line. Without it, `run` measures all six
//! workloads both ways, prints the tables and writes `out/*.json`.
//! `aa` does that twice and compares the two sets. `round` is the
//! child process every measurement is made in.

mod estimator;
mod metrics;
mod protocol;
mod report;
mod round;
mod trace;
mod verify;

use std::process::ExitCode;

use metrics::{Better, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use protocol::{
    collect, end_to_end, end_to_end_metrics, layer_metrics, layers, result_json, verify, EndToEnd,
    Job, Layers, Options, Stop, Verdict,
};
use round::{Input, RoundResult, RoundSpec};

const USAGE: &str = "usage: psmbench run [--workload W] [--seed S] [--seconds T | --rounds R] \
[--trace 0|1] [--quick] [--out DIR]\n       psmbench aa [--seed S] [--rounds R] [--quick] [--out DIR]";

/// The value following flag `name` in `args`.
pub fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parsed command line of `run` and `aa`.
struct Cli {
    opts: Options,
    workload: Option<&'static Workload>,
    seconds: Option<f64>,
    rounds: Option<usize>,
    traced: bool,
    out: String,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            opts: Options {
                seed: 0,
                quick: false,
                corrupt: false,
            },
            workload: None,
            seconds: None,
            rounds: None,
            traced: false,
            out: concat!(env!("CARGO_MANIFEST_DIR"), "/out").to_string(),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--quick" => cli.opts.quick = true,
                // Test only: proves a failed verification is counted.
                "--corrupt-reference" => cli.opts.corrupt = true,
                "--seed" => cli.opts.seed = parse(flag, value()?)?,
                "--seconds" => cli.seconds = Some(parse(flag, value()?)?),
                "--rounds" => cli.rounds = Some(parse(flag, value()?)?),
                "--trace" => cli.traced = parse::<u8>(flag, value()?)? != 0,
                "--out" => cli.out = value()?.clone(),
                "--workload" => {
                    let name = value()?;
                    let w = metrics::workload(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?;
                    cli.workload = Some(w);
                }
                other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
            }
        }
        Ok(cli)
    }

    /// When to stop a pass: `--seconds`, else `--rounds`, else the
    /// default round count of the pass.
    fn stop(&self, default_rounds: usize) -> Stop {
        match (self.seconds, self.rounds) {
            (Some(s), _) => Stop::Seconds(s),
            (None, Some(r)) => Stop::Rounds(r),
            (None, None) => Stop::Rounds(if self.opts.quick { 2 } else { default_rounds }),
        }
    }
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot read {value:?}"))
}

/// Everything one protocol execution measured.
#[derive(Default)]
struct Measured {
    end_to_end: Vec<(&'static Workload, EndToEnd, Verdict)>,
    layers: Vec<(&'static Workload, Layers, Verdict)>,
}

/// Splits `rounds` (in job order) back into per-workload groups.
fn by_workload<'a>(
    jobs: &'a [Job],
    rounds: &'a [Vec<RoundResult>],
    w: &'static Workload,
) -> (&'a [Job], &'a [Vec<RoundResult>]) {
    let start = jobs
        .iter()
        .position(|j| j.workload.name == w.name)
        .unwrap_or(0);
    let len = jobs[start..]
        .iter()
        .take_while(|j| j.workload.name == w.name)
        .count();
    (&jobs[start..start + len], &rounds[start..start + len])
}

/// The `vt` stream workloads must agree on the prefix they share.
fn check_shared_prefix(
    measured: &mut [(&'static Workload, EndToEnd, Verdict)],
    marks: &[Vec<u64>],
) {
    let vt: Vec<usize> = (0..measured.len())
        .filter(|i| measured[*i].0.input == Input::Vt)
        .collect();
    let Some(&first) = vt.first() else { return };
    let first_name = measured[first].0.name;
    for &i in &vt[1..] {
        // The last mark closes a possibly ragged segment; skip it.
        let shared = marks[first].len().min(marks[i].len()).saturating_sub(1);
        if marks[first][..shared] != marks[i][..shared] {
            let (w, _, verdict) = &mut measured[i];
            verdict.failed = verdict.attempted;
            verdict.problems.push(format!(
                "{}: output differs from {first_name} on their shared prefix",
                w.name
            ));
        }
    }
}

/// Runs the untraced pass (`passes.0`) and the traced pass
/// (`passes.1`) over `workloads`; a pass given `None` is skipped.
fn measure(
    workloads: &[&'static Workload],
    cli: &Cli,
    passes: (Option<Stop>, Option<Stop>),
) -> Result<Measured, String> {
    let references: Vec<_> = workloads.iter().map(|w| cli.opts.reference(w)).collect();
    let mut measured = Measured::default();
    if let Some(stop) = passes.0 {
        let jobs: Vec<Job> = workloads.iter().map(|w| cli.opts.main_job(w)).collect();
        let rounds = collect(&jobs, stop)?;
        let mut marks = Vec::new();
        for (w, r) in workloads.iter().zip(&references) {
            let (jobs, rounds) = by_workload(&jobs, &rounds, w);
            let verdict = verify(w, jobs, rounds, r);
            marks.push(rounds[0].first().map_or(Vec::new(), |r| r.marks.clone()));
            measured
                .end_to_end
                .push((w, end_to_end(&rounds[0]), verdict));
        }
        if workloads.len() == WORKLOADS.len() {
            check_shared_prefix(&mut measured.end_to_end, &marks);
        }
    }
    if let Some(stop) = passes.1 {
        std::fs::create_dir_all(&cli.out).map_err(|e| format!("cannot create {}: {e}", cli.out))?;
        let jobs: Vec<Job> = workloads
            .iter()
            .flat_map(|w| cli.opts.traced_jobs(w, &cli.out))
            .collect();
        let rounds = collect(&jobs, stop)?;
        for (w, r) in workloads.iter().zip(&references) {
            let (jobs, rounds) = by_workload(&jobs, &rounds, w);
            let mut verdict = verify(w, jobs, rounds, r);
            let l = layers(jobs, rounds, r);
            for name in &l.unstable {
                verdict.failed = verdict.attempted;
                verdict.problems.push(format!(
                    "{}: exact counter {name} differs between rounds",
                    w.name
                ));
            }
            measured.layers.push((w, l, verdict));
        }
    }
    Ok(measured)
}

fn print_problems<'a>(verdicts: impl Iterator<Item = &'a Verdict>) -> bool {
    let mut any = false;
    for problem in verdicts.flat_map(|v| &v.problems) {
        eprintln!("psmbench: FAILED {problem}");
        any = true;
    }
    any
}

fn print_end_to_end(measured: &Measured) {
    let rows: Vec<Vec<String>> = measured
        .end_to_end
        .iter()
        .flat_map(|(w, e, v)| report::end_to_end_rows(w, e, v))
        .collect();
    report::print_table(
        "end-to-end metrics (value: quiet-time estimate; beside it the per-round spread)",
        &report::END_TO_END_HEADERS,
        &rows,
    );
}

fn write_layers(cli: &Cli, measured: &Measured) -> Result<(), String> {
    let all: Vec<(&Workload, Layers)> = measured
        .layers
        .iter()
        .map(|(w, l, _)| (*w, l.clone()))
        .collect();
    report::print_layers(&all);
    let path = format!("{}/layers.json", cli.out);
    std::fs::write(&path, report::layers_json(&all))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("\nwrote {path} and {}/trace-<workload>.json", cli.out);
    Ok(())
}

/// `run --workload W`: one workload, one pass, one result line.
fn run_one(w: &'static Workload, cli: &Cli) -> Result<ExitCode, String> {
    if cli.traced {
        let measured = measure(&[w], cli, (None, Some(cli.stop(3))))?;
        write_layers(cli, &measured)?;
        let (_, l, verdict) = &measured.layers[0];
        print_problems([verdict].into_iter());
        println!("{}", result_json(verdict, &layer_metrics(l)));
    } else {
        let measured = measure(&[w], cli, (Some(cli.stop(12)), None))?;
        print_end_to_end(&measured);
        let (_, e, verdict) = &measured.end_to_end[0];
        print_problems([verdict].into_iter());
        println!("{}", result_json(verdict, &end_to_end_metrics(e)));
    }
    Ok(ExitCode::SUCCESS)
}

/// `run`: all workloads, both passes, tables and files.
fn run_all(cli: &Cli) -> Result<(Measured, bool), String> {
    let workloads: Vec<&'static Workload> = WORKLOADS.iter().collect();
    report::print_workloads();
    let measured = measure(&workloads, cli, (Some(cli.stop(12)), Some(cli.stop(3))))?;
    print_end_to_end(&measured);
    write_layers(cli, &measured)?;
    let path = format!("{}/end_to_end.json", cli.out);
    std::fs::write(&path, report::end_to_end_json(&measured.end_to_end))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path}");
    let failed = print_problems(
        measured
            .end_to_end
            .iter()
            .map(|m| &m.2)
            .chain(measured.layers.iter().map(|m| &m.2)),
    );
    Ok((measured, failed))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let cli = Cli::parse(args)?;
    match cli.workload {
        Some(w) => run_one(w, &cli),
        None => {
            let (_, failed) = run_all(&cli)?;
            Ok(if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
    }
}

/// `aa`: the whole protocol twice on the same binary and seed; every
/// end-to-end metric must repeat within its bound and every exact
/// counter bit for bit.
fn cmd_aa(args: &[String]) -> Result<ExitCode, String> {
    let cli = Cli::parse(args)?;
    println!("#### set A");
    let (a, failed_a) = run_all(&cli)?;
    println!("\n#### set B");
    let (b, failed_b) = run_all(&cli)?;

    let mut violations = 0;
    let mut rows = Vec::new();
    for ((w, ea, _), (_, eb, _)) in a.end_to_end.iter().zip(&b.end_to_end) {
        for ((m, va), vb) in END_TO_END.iter().zip(&ea.values).zip(&eb.values) {
            let worse = match m.better {
                Better::Lower => vb.value / va.value - 1.0,
                Better::Higher => va.value / vb.value - 1.0,
            };
            let gap = worse.abs();
            let ok = gap <= m.bound;
            violations += usize::from(!ok);
            rows.push(vec![
                w.name.to_string(),
                m.name.to_string(),
                report::sig(va.value),
                report::sig(vb.value),
                format!("{:.2}%", gap * 100.0),
                format!("{:.0}%", m.bound * 100.0),
                if ok { "ok" } else { "ABOVE BOUND" }.to_string(),
            ]);
        }
    }
    report::print_table(
        "A/A: two sets of runs of the same code",
        &["workload", "metric", "A", "B", "gap", "bound", ""],
        &rows,
    );
    let mut exact = 0;
    for ((w, la, _), (_, lb, _)) in a.layers.iter().zip(&b.layers) {
        for ((m, va), vb) in PER_LAYER.iter().zip(&la.values).zip(&lb.values) {
            if va.exact || vb.exact {
                exact += 1;
                if va != vb {
                    violations += 1;
                    println!(
                        "exact counter differs: {} {} A={} B={}",
                        w.name, m.name, va.value, vb.value
                    );
                }
            }
        }
    }
    println!("\n{exact} exact counters compared between the sets");
    if violations > 0 || failed_a || failed_b {
        println!("A/A FAILED: {violations} violations");
        return Ok(ExitCode::FAILURE);
    }
    println!("A/A passed: every end-to-end metric within its bound, every exact counter identical");
    Ok(ExitCode::SUCCESS)
}

fn cmd_round(args: &[String]) -> Result<ExitCode, String> {
    let spec = RoundSpec::from_args(args)?;
    print!("{}", round::run_round(&spec).to_text());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("round") => cmd_round(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("aa") => cmd_aa(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("psmbench: {message}");
        ExitCode::from(2)
    })
}
