//! # psm-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see `DESIGN.md` §4 for the
//! experiment index) plus micro-benchmark targets under `benches/` on
//! the in-repo [`microbench`] harness (`cargo bench -p psm-bench`). This
//! library holds the shared plumbing: workload capture, table
//! formatting, and the standard simulation sweep.
//!
//! Binaries (run with `cargo run --release -p psm-bench --bin <name>`):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `sec2_uniprocessor_ladder` | §2.2 interpreter speeds |
//! | `sec3_state_saving` | §3.1 state-saving cost model |
//! | `sec4_production_parallelism` | §4 granularity comparison |
//! | `fig6_1_concurrency` | Figure 6-1 |
//! | `fig6_2_speed` | Figure 6-2 |
//! | `sec6_headline` | §6 headline numbers |
//! | `table7_architectures` | §7 comparison table |
//! | `sec8_sensitivity` | §8 sensitivity analysis |
//! | `real_speedup` | real-multicore validation (VAX-11/784 stand-in) |
//!
//! All binaries accept `--small` to run quarter-scale presets, and
//! `--cycles N` to change the traced cycle count.

use std::sync::Arc;

use rete::{CompileOptions, MatchStats, Network, Trace};
use workloads::{capture_trace_with, GeneratedWorkload, Preset, WorkloadSpec};

pub mod trajectory;

/// A captured workload run ready for simulation.
pub struct Captured {
    /// The workload (program + distributions).
    pub workload: GeneratedWorkload,
    /// Node-activation trace (setup excluded).
    pub trace: Trace,
    /// Aggregate match statistics over the traced portion.
    pub stats: MatchStats,
    /// The compiled network the trace ran on.
    pub network: Arc<Network>,
}

/// Which variant of a preset to capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The full-size preset.
    Standard,
    /// Full-size with 4x change batches (the figures' "parallel
    /// firings" series).
    ParallelFirings,
    /// Quarter-scale for quick runs.
    Small,
}

/// Captures `cycles` of a preset run. `share=false` networks attribute
/// every node to one production, as required by the §4/§7 analyses.
pub fn capture(preset: Preset, variant: Variant, cycles: u64, share: bool) -> Captured {
    let spec = match variant {
        Variant::Standard => preset.spec(),
        Variant::ParallelFirings => preset.spec_parallel_firings(),
        Variant::Small => preset.spec_small(),
    };
    capture_spec(spec, cycles, share)
}

/// Captures `cycles` of an arbitrary spec.
pub fn capture_spec(spec: WorkloadSpec, cycles: u64, share: bool) -> Captured {
    let workload = GeneratedWorkload::generate(spec).expect("workload generates");
    let (trace, stats, network) =
        capture_trace_with(&workload, cycles, 0xC0FFEE, CompileOptions { share })
            .expect("trace capture succeeds");
    Captured {
        workload,
        trace,
        stats,
        network,
    }
}

/// Simple monospace table printer for experiment binaries.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Command-line options shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Use quarter-scale presets.
    pub small: bool,
    /// Cycles to trace.
    pub cycles: u64,
    /// Directory to also write tables to as CSV (from `--csv <dir>`).
    pub csv_dir: Option<String>,
}

impl CliOptions {
    /// Parses `--small`, `--cycles N` and `--csv DIR` from
    /// `std::env::args`.
    pub fn parse(default_cycles: u64) -> Self {
        let args: Vec<String> = std::env::args().collect();
        let small = args.iter().any(|a| a == "--small");
        let cycles = args
            .iter()
            .position(|a| a == "--cycles")
            .and_then(|i| args.get(i + 1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(default_cycles);
        let csv_dir = args
            .iter()
            .position(|a| a == "--csv")
            .and_then(|i| args.get(i + 1))
            .cloned();
        CliOptions {
            small,
            cycles,
            csv_dir,
        }
    }

    /// Writes `rows` to `<csv_dir>/<name>.csv` when `--csv` was given.
    /// Errors are reported to stderr, never fatal (the stdout table is
    /// the primary artifact).
    pub fn maybe_write_csv(&self, name: &str, headers: &[&str], rows: &[Vec<String>]) {
        let Some(dir) = &self.csv_dir else { return };
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(dir)?;
            let mut out = String::new();
            out.push_str(&headers.join(","));
            out.push('\n');
            for row in rows {
                out.push_str(&row.join(","));
                out.push('\n');
            }
            std::fs::write(format!("{dir}/{name}.csv"), out)
        };
        if let Err(e) = write() {
            eprintln!("could not write {name}.csv: {e}");
        }
    }

    /// The standard/small variant choice implied by the flags.
    pub fn variant(&self) -> Variant {
        if self.small {
            Variant::Small
        } else {
            Variant::Standard
        }
    }
}

/// Formats a float with the given precision.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Minimal micro-benchmark runner for the `benches/` targets
/// (`harness = false`, no external crates). Each sample runs a fresh
/// `setup()` state through `routine`, timing only the routine; the
/// summary line reports median / min / mean over the samples.
pub mod microbench {
    use std::time::Instant;

    /// One measured series (all values in nanoseconds).
    #[derive(Debug, Clone)]
    pub struct Samples {
        /// Benchmark label (`group/name`).
        pub label: String,
        /// Per-sample routine times, nanoseconds.
        pub ns: Vec<u64>,
    }

    impl Samples {
        /// Median sample time in nanoseconds.
        pub fn median_ns(&self) -> u64 {
            let mut v = self.ns.clone();
            v.sort_unstable();
            v.get(v.len() / 2).copied().unwrap_or(0)
        }

        /// Fastest sample in nanoseconds.
        pub fn min_ns(&self) -> u64 {
            self.ns.iter().copied().min().unwrap_or(0)
        }

        /// Mean sample time in nanoseconds.
        pub fn mean_ns(&self) -> f64 {
            if self.ns.is_empty() {
                0.0
            } else {
                self.ns.iter().sum::<u64>() as f64 / self.ns.len() as f64
            }
        }

        fn print(&self) {
            let ms = |ns: f64| ns / 1e6;
            println!(
                "{:<44} median {:>9.3} ms  min {:>9.3} ms  mean {:>9.3} ms  ({} samples)",
                self.label,
                ms(self.median_ns() as f64),
                ms(self.min_ns() as f64),
                ms(self.mean_ns()),
                self.ns.len()
            );
        }
    }

    /// Times `samples` runs of `routine` over fresh `setup()` states
    /// (the `iter_batched` pattern): setup excluded, one extra warm-up
    /// run discarded.
    pub fn bench_batched<T, R>(
        group: &str,
        name: &str,
        samples: usize,
        mut setup: impl FnMut() -> T,
        mut routine: impl FnMut(T) -> R,
    ) -> Samples {
        std::hint::black_box(routine(setup()));
        let mut ns = Vec::with_capacity(samples);
        for _ in 0..samples {
            let state = setup();
            let start = Instant::now();
            let out = routine(state);
            ns.push(start.elapsed().as_nanos() as u64);
            std::hint::black_box(out);
        }
        let s = Samples {
            label: format!("{group}/{name}"),
            ns,
        };
        s.print();
        s
    }

    /// Times `samples` runs of a setup-free routine.
    pub fn bench<R>(
        group: &str,
        name: &str,
        samples: usize,
        mut routine: impl FnMut() -> R,
    ) -> Samples {
        bench_batched(group, name, samples, || (), |()| routine())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_small_preset_end_to_end() {
        let c = capture(Preset::EpSoar, Variant::Small, 10, true);
        assert_eq!(c.trace.cycles.len(), 10);
        assert!(c.stats.changes > 0);
        assert!(c.network.stats.terminals > 0);
    }

    #[test]
    fn unshared_capture_has_owned_nodes() {
        let c = capture(Preset::EpSoar, Variant::Small, 5, false);
        // Every two-input node knows its production.
        for spec in &c.network.nodes {
            if matches!(
                spec.kind,
                rete::network::NodeKind::Join | rete::network::NodeKind::Negative
            ) {
                assert!(spec.production.is_some());
            }
        }
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert_eq!(f(1.23456, 2), "1.23");
    }
}
