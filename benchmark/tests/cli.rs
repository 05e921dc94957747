//! End-to-end checks of the `psmbench` binary on quarter-size
//! workloads: determinism of rounds, the shape of the result line
//! against `BENCHMARK.json`, the traced pass's files, and that a failed
//! verification is seen.

use std::collections::BTreeSet;
use std::process::Command;

use psm_telemetry::client::Json;

fn psmbench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_psmbench"))
        .args(args)
        .output()
        .expect("psmbench starts");
    assert!(
        out.status.success(),
        "psmbench {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The lines of a round's output that must repeat for a given seed:
/// checksums, exact counters, and the totals without the RSS field.
fn repeatable(round: &str) -> Vec<String> {
    round
        .lines()
        .filter_map(|l| {
            if l.starts_with("marks ") || l.starts_with("exact ") {
                Some(l.to_string())
            } else {
                l.strip_prefix("totals ")
                    .map(|t| t.rsplit_once(' ').expect("totals has fields").0.to_string())
            }
        })
        .collect()
}

fn round(input: &str, stack: &str, size: &str, seed: &str) -> String {
    psmbench(&[
        "round", "--input", input, "--stack", stack, "--size", size, "--seed", seed, "--traced",
        "0",
    ])
}

#[test]
fn same_seed_repeats_and_another_seed_does_not() {
    for (input, stack, size) in [
        ("vt", "seq", "150"),
        ("vt", "par2", "150"),
        ("vt-acting", "seq", "150"),
        ("closure", "seq", "30"),
    ] {
        let a = repeatable(&round(input, stack, size, "1"));
        let b = repeatable(&round(input, stack, size, "1"));
        let c = repeatable(&round(input, stack, size, "2"));
        assert!(
            a.iter().any(|l| l.starts_with("marks ")),
            "{input}: no marks"
        );
        assert_eq!(
            a, b,
            "{input}/{stack}: same seed, different outputs or counters"
        );
        let marks = |v: &[String]| v.iter().find(|l| l.starts_with("marks ")).cloned();
        assert_ne!(
            marks(&a),
            marks(&c),
            "{input}/{stack}: seed does not reach the stream"
        );
    }
    // Every stack computes the same function of the stream.
    let marks = |stack: &str| {
        repeatable(&round("vt", stack, "150", "1"))
            .into_iter()
            .find(|l| l.starts_with("marks "))
    };
    let seq = marks("seq");
    for stack in ["linear", "par1", "par2", "durable", "telemetry"] {
        assert_eq!(marks(stack), seq, "{stack} disagrees with seq");
    }
}

fn benchmark_names(key: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json is JSON");
    json.get(key)
        .expect(key)
        .items()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn result_line(stdout: &str) -> Json {
    let last = stdout.lines().last().expect("some output");
    let json = Json::parse(last).expect("the last line is JSON");
    let keys: Vec<&str> = json.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    json
}

fn metric_names(result: &Json) -> BTreeSet<String> {
    let metrics = result.get("metrics").expect("metrics").members();
    for (name, m) in metrics {
        let keys: Vec<&str> = m.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["value", "unit"], "{name}");
        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
    }
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn result_lines_carry_exactly_the_metrics_of_benchmark_json() {
    let out = concat!(env!("CARGO_TARGET_TMPDIR"), "/result-lines");
    for workload in ["closure", "vt-stream-par2"] {
        let run = |trace: &str| {
            psmbench(&[
                "run",
                "--workload",
                workload,
                "--quick",
                "--rounds",
                "2",
                "--seed",
                "3",
                "--trace",
                trace,
                "--out",
                out,
            ])
        };
        let untraced = result_line(&run("0"));
        assert_eq!(untraced.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(untraced.get("failed").and_then(Json::as_u64), Some(0));
        assert!(untraced.get("attempted").and_then(Json::as_u64) >= Some(1));
        assert_eq!(metric_names(&untraced), benchmark_names("end_to_end"));
        for (name, m) in untraced.get("metrics").unwrap().members() {
            let v = m.get("value").and_then(Json::as_f64).unwrap();
            assert!(v > 0.0, "{workload} {name} must never read 0, got {v}");
        }

        let traced = result_line(&run("1"));
        assert_eq!(traced.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(metric_names(&traced), benchmark_names("per_layer"));
    }
}

#[test]
fn traced_pass_writes_spans_and_a_reconciled_layer_table() {
    let out = concat!(env!("CARGO_TARGET_TMPDIR"), "/traced-pass");
    let stdout = psmbench(&[
        "run",
        "--workload",
        "closure",
        "--quick",
        "--rounds",
        "1",
        "--trace",
        "1",
        "--out",
        out,
    ]);
    let value = |name: &str| {
        result_line(&stdout)
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    // Closure is the match-bound workload, and the shares are a
    // partition of the cycle.
    assert!(
        value("match.share") > 0.5,
        "match.share {}",
        value("match.share")
    );
    let shares = value("match.share")
        + value("ops5.conflict.select_share")
        + value("ops5.interp.act_share")
        + value("ops5.interp.unattributed_share");
    assert!((shares - 1.0).abs() < 1e-6, "shares sum to {shares}");
    assert_eq!(value("psm_fault.supervisor.checkpoint_time_share"), 0.0);
    assert_eq!(value("psm_obs.telemetry_overhead_pct"), 0.0);

    let read = |file: &str| {
        let text = std::fs::read_to_string(format!("{out}/{file}")).expect(file);
        Json::parse(&text).unwrap_or_else(|| panic!("{file} is not JSON"))
    };
    let layers = read("layers.json");
    let closure = layers.get("closure").expect("closure entry");
    let ns = |key: &str| closure.get(key).and_then(Json::as_f64).expect(key);
    let parts = ns("match_ns") + ns("select_ns") + ns("act_ns") + ns("unattributed_ns");
    assert!(ns("cycle_wall_ns") > 0.0);
    assert!(
        (parts - ns("cycle_wall_ns")).abs() <= 4.0,
        "self times {parts} do not sum to the wall {}",
        ns("cycle_wall_ns")
    );
    let exact = closure
        .get("metrics")
        .and_then(|m| m.get("rete.network.joins"))
        .expect("joins");
    assert_eq!(exact.get("exact").and_then(Json::as_bool), Some(true));

    let trace = read("trace-closure.json");
    let events = trace.get("traceEvents").expect("traceEvents").items();
    let named = |name: &str| {
        events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .count()
    };
    assert_eq!(named("setup.parse"), 1);
    assert_eq!(named("setup.compile"), 1);
    assert_eq!(named("setup.load"), 1);
    // One match per firing; the last cycle finds nothing to fire.
    assert!(named("cycle") > 100);
    assert_eq!(named("matcher.process") + 1, named("cycle"));
}

#[test]
fn a_corrupted_reference_fails_verification() {
    let out = concat!(env!("CARGO_TARGET_TMPDIR"), "/corrupt");
    for workload in ["closure", "vt-stream", "vt-acting"] {
        let stdout = psmbench(&[
            "run",
            "--workload",
            workload,
            "--quick",
            "--rounds",
            "1",
            "--trace",
            "0",
            "--corrupt-reference",
            "--out",
            out,
        ]);
        let result = result_line(&stdout);
        assert_eq!(
            result.get("correct").and_then(Json::as_bool),
            Some(false),
            "{workload}"
        );
        let failed = result.get("failed").and_then(Json::as_u64).unwrap();
        let attempted = result.get("attempted").and_then(Json::as_u64).unwrap();
        assert!(
            failed > 0 && failed == attempted,
            "{workload}: {failed} of {attempted}"
        );
    }
}
