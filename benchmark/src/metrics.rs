//! The names every later performance claim is made in: workloads,
//! end-to-end metrics with their regression bounds, per-layer metrics.
//! `BENCHMARK.json` at the repository root states the same tables for
//! the driver; a test keeps the two identical.

use crate::round::{Input, Stack};

/// One benchmark workload: an input, the stack it runs through, how
/// much of it, and why it is here.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// What is fed to the program.
    pub input: Input,
    /// Which stack runs it.
    pub stack: Stack,
    /// Cycles (or, for `closure`, graph nodes).
    pub size: usize,
    /// Why it is in the set.
    pub why: &'static str,
}

/// The six workloads.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "vt-stream",
        input: Input::Vt,
        stack: Stack::Seq,
        size: 3000,
        why: "Sequential Rete on the 1322-rule vt change stream: match is all the work; wide alpha net, many small join memories with 45% removes, where linear memories still beat hashed",
    },
    Workload {
        name: "vt-stream-par2",
        input: Input::Vt,
        stack: Stack::Par2,
        size: 1000,
        why: "Same stream through the 2-thread node-parallel engine and pool: with vt-stream gives the paper's true speed-up; a sequential-only gain must not move it",
    },
    Workload {
        name: "vt-stream-durable",
        input: Input::Vt,
        stack: Stack::Durable,
        size: 300,
        why: "Same stream through the Supervisor with replication: writes beside reads (WAL v1+v2, PSMC/PSMD checkpoints every 8 cycles); its tail is the checkpoint cycle",
    },
    Workload {
        name: "vt-stream-telemetry",
        input: Input::Vt,
        stack: Stack::Telemetry,
        size: 3000,
        why: "vt-stream with Obs history, a live TelemetryServer and a 5 ms Sampler attached: identical match work, so any difference from vt-stream is the cost of watching",
    },
    Workload {
        name: "vt-acting",
        input: Input::VtActing,
        stack: Stack::Seq,
        size: 10_000,
        why: "Interpreter firing the acting vt preset in 200 seeded episodes with a conflict set of hundreds: select is half the cycle, so a matcher gain moves it by at most its share",
    },
    Workload {
        name: "closure",
        input: Input::Closure,
        stack: Stack::Seq,
        size: 80,
        why: "Interpreter running transitive closure of a seeded strongly connected 80-node/160-edge digraph to quiescence: match dominates and join memories grow to thousands of insert-only entries",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric: name, unit, direction, and for end-to-end metrics the
/// relative worsening that counts as a regression (0 for layer
/// metrics, which carry no bound).
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the baseline.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    e2e(name, unit, better, 0.0)
}

/// The end-to-end metrics, the same on every workload. The failure
/// rate is not among them because a metric may never read 0; it is the
/// `failed` / `attempted` pair of every result line instead.
///
/// The timing bounds are the contract's widest, not the issue's 0.10:
/// over ten seeds on the reference host the quartiles of the timings
/// lie 3–11 % apart (widest on the 2-thread workload, whose speed
/// halves while the host leaves the VM one physical CPU), and a bound
/// has to clear that with room or the gate trips on the host, not on
/// the change. Memory repeats within 1.4 %.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("wme_changes_per_s", "1/s", Better::Higher, 0.25),
    e2e("cycle_p50_us", "us", Better::Lower, 0.25),
    e2e("cycle_p99_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.05),
];

use Better::{Higher, Lower};

/// The per-layer metrics, grouped by the module they watch. A workload
/// that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [Metric; 58] = [
    // Set-up: moves setup_s on every workload.
    layer("ops5.parser.parse_mb_per_s", "MB/s", Higher),
    layer("rete.network.compile_s", "s", Lower),
    layer("rete.network.alpha_nodes", "count", Lower),
    layer("rete.network.joins", "count", Lower),
    layer("rete.network.join_sharing_ratio", "share", Higher),
    layer("load.initial_wm_s", "s", Lower),
    // The cycle split: moves vt-acting (select, act) and closure (match).
    layer("match.share", "share", Lower),
    layer("ops5.conflict.select_share", "share", Lower),
    layer("ops5.interp.act_share", "share", Lower),
    layer("ops5.interp.unattributed_share", "share", Lower),
    layer("ops5.conflict.size_mean", "count", Lower),
    layer("ops5.conflict.size_peak", "count", Lower),
    layer("ops5.conflict.select_ns_per_candidate", "ns", Lower),
    layer("ops5.interp.changes_per_firing", "count", Lower),
    layer("ops5.interp.firings_per_s", "1/s", Higher),
    // The match: moves vt-stream and closure, carried into vt-stream-*.
    layer("rete.alpha.constant_tests_per_change", "count", Lower),
    layer("rete.runtime.activations_per_change", "count", Lower),
    layer("rete.runtime.join_tests_per_change", "count", Lower),
    layer("rete.runtime.pairs_scanned_per_change", "count", Lower),
    layer("rete.runtime.join_hit_ratio", "share", Higher),
    layer("rete.runtime.conflict_changes_per_change", "count", Lower),
    layer("rete.runtime.tokens_peak", "count", Lower),
    layer("rete.runtime.resident_index_entries", "count", Lower),
    layer("rete.runtime.phantom_removes", "count", Lower),
    layer("rete.runtime.match_ns_per_change", "ns", Lower),
    layer("rete.runtime.match_ns_per_activation", "ns", Lower),
    layer("rete.alpha.time_share", "share", Lower),
    layer("rete.runtime.join_time_share", "share", Lower),
    layer("rete.runtime.negative_time_share", "share", Lower),
    layer("rete.runtime.betamem_time_share", "share", Lower),
    layer("rete.runtime.terminal_time_share", "share", Lower),
    layer("rete.runtime.linear_vs_hashed_x", "x", Higher),
    // The parallel engine and pool: moves vt-stream-par2 (and -durable).
    layer("psm_core.engine.par1_overhead_x", "x", Lower),
    layer("psm_core.engine.par2_speedup_x", "x", Higher),
    layer("psm_core.engine.true_speedup_x", "x", Higher),
    layer("psm_core.engine.nominal_concurrency", "x", Higher),
    layer("psm_core.engine.loss_factor", "x", Lower),
    layer("psm_core.engine.lock_wait_share", "share", Lower),
    layer("psm_core.engine.tasks_per_change", "count", Lower),
    layer("psm_core.pool.steals_per_task", "share", Lower),
    layer("psm_core.pool.idle_share", "share", Lower),
    // Durability: moves vt-stream-durable only.
    layer("psm_fault.supervisor.overhead_x", "x", Lower),
    layer("psm_fault.supervisor.plain_cycle_p50_us", "us", Lower),
    layer("psm_fault.supervisor.checkpoint_cycle_p50_us", "us", Lower),
    layer("psm_fault.supervisor.checkpoint_time_share", "share", Lower),
    layer(
        "psm_fault.supervisor.wal_replayed_per_checkpoint",
        "count",
        Lower,
    ),
    layer("psm_fault.supervisor.fallbacks", "count", Lower),
    layer("psm_fault.supervisor.recovery_drill_ms", "ms", Lower),
    layer("psm_fault.checkpoint.bytes_mean", "B", Lower),
    layer("psm_fault.delta.bytes_mean", "B", Lower),
    layer("psm_fault.delta.compression_x", "x", Higher),
    layer("psm_fault.segment.wal_bytes_per_change", "B", Lower),
    // Watching: moves vt-stream-telemetry only.
    layer("psm_obs.telemetry_overhead_pct", "%", Lower),
    layer("psm_obs.flight.records_per_change", "count", Lower),
    layer("psm_telemetry.scrape_metrics_p50_ms", "ms", Lower),
    layer("psm_telemetry.metrics_bytes", "B", Lower),
    // Moves nothing end to end.
    layer("baselines.treat.slowdown_x", "x", Higher),
    layer("trace.overhead_pct", "%", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use psm_telemetry::client::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json is JSON")
    }

    fn text<'a>(j: &'a Json, key: &str) -> &'a str {
        j.get(key).and_then(Json::as_str).unwrap_or("")
    }

    #[test]
    fn benchmark_json_states_the_same_tables() {
        let j = benchmark_json();
        let workloads = j.get("workloads").expect("workloads").items();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (spec, ours) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(spec, "name"), ours.name);
            assert_eq!(text(spec, "why"), ours.why);
            assert!(ours.why.len() <= 200, "{} why too long", ours.name);
        }
        let check = |key: &str, ours: &[Metric], bounded: bool| {
            let listed = j.get(key).expect(key).items();
            assert_eq!(listed.len(), ours.len(), "{key} count");
            for (spec, m) in listed.iter().zip(ours) {
                assert_eq!(text(spec, "name"), m.name);
                assert_eq!(text(spec, "unit"), m.unit, "{}", m.name);
                assert_eq!(text(spec, "better"), m.better.name(), "{}", m.name);
                let bound = spec.get("bound").and_then(Json::as_f64);
                assert_eq!(bound, bounded.then_some(m.bound), "{}", m.name);
                assert_eq!(spec.members().len(), if bounded { 4 } else { 3 });
            }
        };
        check("end_to_end", &END_TO_END, true);
        check("per_layer", &PER_LAYER, false);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS.iter().map(|w| w.name) {
            assert!(ok_name(name) && seen.insert(name), "{name}");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{} unit {:?}", m.name, m.unit);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }
}
