//! Profiler-driven calibration of the static cost model.
//!
//! The [`crate::cost`] model predicts each join's selectivity from
//! program text alone, and the cross-check harness shows those
//! predictions can be off by 4–24× on the synthetic presets — the join
//! attributes' *runtime* value distribution is invisible statically.
//! This module closes the loop with the per-node profiler
//! ([`psm_obs::NodeProfiler`]): run a seeded workload, read the
//! measured `tokens_out / pairs_compared` ratio off every two-input
//! node, and feed it back into [`CostParams`] as per-`(production, CE)`
//! overrides.
//!
//! Validation is a *split-sample* holdout on the same live run: after a
//! warmup window (the initial bulk load and memory ramp-up, whose
//! selectivities are unrepresentative of steady state), the run
//! continues for `2 × cycles` batches chopped into alternating blocks —
//! even blocks teach, odd blocks validate. The reported `after_error`
//! is the drift between the calibrated selectivity and the holdout
//! sample's independent measurement. Interleaving makes both samples
//! cover the same span of the run: the generated workloads' selectivity
//! drifts slowly as working-memory composition evolves, and a
//! back-to-back split would charge that environmental drift to the
//! estimator (a live deployment handles slow drift by re-calibrating
//! continuously, which is the point of an always-on profiler). Two
//! further guards keep the estimates honest statistics rather than
//! noise:
//!
//! * **Shrinkage** — the learned value is a conjugate Gamma-prior
//!   blend `(tokens_out + a) / (pairs + a/prior)` with the static
//!   prediction as the prior mean and [`PRIOR_EVENTS`] pseudo-events of
//!   strength, so a join that emitted two tokens barely moves off the
//!   model while a join that emitted thousands is essentially pure
//!   measurement. The information content of a selectivity estimate is
//!   its *event* (output-token) count, not its pair count: at
//!   `jsel ≈ 0.01`, a hundred pair comparisons carry roughly one
//!   event's worth of signal.
//! * **Sampling floor** — for the same reason, the headline drift
//!   bound is taken over joins with at least [`MIN_CALIBRATION_EVENTS`]
//!   output tokens in *both* windows (`sampled` in the report); a
//!   selectivity whose measurement is one or two Poisson arrivals
//!   cannot be certified to any factor. Under-sampled joins are still
//!   reported and still calibrated (shrinkage keeps them near the
//!   prior), just not gated.
//!
//! The same profile snapshot also exports as folded stacks
//! (`production;node;node… weight`) consumable by standard flamegraph
//! tooling — see [`folded_stacks`].

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use ops5::{Matcher, Program};
use psm_obs::{json, Obs, ProfileSnapshot};
use rete::network::NodeKind;
use rete::{Network, ReteMatcher};
use workloads::{GeneratedWorkload, WorkloadDriver, WorkloadSpec};

use crate::cost::{predicted_join_selectivities, CostParams};
use crate::crosscheck::params_from_spec;

/// Pseudo-event mass of the static prior in the shrinkage blend: a
/// join's calibrated selectivity is
/// `(tokens_out + PRIOR_EVENTS) / (pairs + PRIOR_EVENTS / predicted)`
/// — a conjugate Gamma prior centred on the static prediction.
pub const PRIOR_EVENTS: f64 = 2.0;

/// Minimum output tokens (in both the calibration and the validation
/// sample) for a join to count toward the gated drift bound. A Poisson
/// estimate from `n` events has a relative standard error of
/// `1/√n`; the gate takes a *max* over hundreds of joins, so the
/// per-join error must be small enough that the extreme-value tail
/// stays inside the bound. 64 events puts the split-sample log-ratio
/// σ at ≈ 0.18, whose ~3.4σ extreme over ~400 joins is ≈ 1.8×.
pub const MIN_CALIBRATION_EVENTS: u64 = 64;

/// Batches per interleave block: even blocks feed the calibration
/// sample, odd blocks the validation sample.
const WINDOW_BLOCK: u64 = 8;

/// One join's calibration record: what the static model predicted, what
/// the profiler measured, and how far both sit from an independent
/// validation run.
#[derive(Debug, Clone)]
pub struct JoinCalibration {
    /// Production index (in [`ops5::ProductionId`] order).
    pub production: usize,
    /// Production name.
    pub production_name: String,
    /// CE index within the production (full-CE order, negations
    /// included) — together with `production` this is the
    /// [`CostParams::join_selectivity_overrides`] key.
    pub ce: usize,
    /// The two-input node compiled for this CE.
    pub node: u32,
    /// Node kind label (always `"join"` — negative nodes are not
    /// calibrated), matching the profiler's and flight recorder's
    /// naming.
    pub kind: &'static str,
    /// Pairs compared at this node during the calibration window.
    pub pairs: u64,
    /// Pairs compared during the validation (holdout) window.
    pub val_pairs: u64,
    /// True when both windows cleared [`MIN_CALIBRATION_EVENTS`] — the
    /// joins the drift gate is taken over.
    pub sampled: bool,
    /// The static model's predicted join selectivity.
    pub predicted: f64,
    /// Shrinkage-blended selectivity learned from the calibration
    /// window — the override value.
    pub calibrated: f64,
    /// Raw measured selectivity over the validation window.
    pub validated: f64,
    /// `max(predicted/validated, validated/predicted)` — the static
    /// model's error factor (≥ 1).
    pub before_error: f64,
    /// Same ratio for the calibrated value — the residual drift after
    /// learning (≥ 1).
    pub after_error: f64,
}

impl JoinCalibration {
    /// Renders the record as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"production\":");
        let _ = write!(out, "{}", self.production);
        out.push_str(",\"name\":");
        json::push_escaped(&mut out, &self.production_name);
        let _ = write!(out, ",\"ce\":{},\"node\":{}", self.ce, self.node);
        out.push_str(",\"kind\":");
        json::push_escaped(&mut out, self.kind);
        let _ = write!(
            out,
            ",\"pairs\":{},\"val_pairs\":{},\"sampled\":{}",
            self.pairs, self.val_pairs, self.sampled
        );
        let _ = write!(out, ",\"predicted\":{}", json::number(self.predicted));
        let _ = write!(out, ",\"calibrated\":{}", json::number(self.calibrated));
        let _ = write!(out, ",\"validated\":{}", json::number(self.validated));
        let _ = write!(out, ",\"before_error\":{}", json::number(self.before_error));
        let _ = write!(out, ",\"after_error\":{}", json::number(self.after_error));
        out.push('}');
        out
    }
}

/// A workload's full calibration result: per-join records plus the
/// folded-stack export of the calibration run's profile.
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    /// Workload name.
    pub name: String,
    /// Batches driven per window (the run is `3 × cycles` total:
    /// warmup, calibration, validation).
    pub cycles: u64,
    /// Seed of the run.
    pub seed: u64,
    /// Per-join calibration records, in production then CE order. Joins
    /// never activated in one of the two windows are omitted (no
    /// meaningful ratio).
    pub joins: Vec<JoinCalibration>,
    /// Folded stacks (`production;node;… weight`) of the calibration
    /// run, ready for flamegraph tooling.
    pub folded: String,
}

impl CalibrationReport {
    /// Largest static-model error factor across well-sampled joins
    /// (1.0 when no join qualified).
    pub fn max_before_error(&self) -> f64 {
        self.joins
            .iter()
            .filter(|j| j.sampled)
            .map(|j| j.before_error)
            .fold(1.0, f64::max)
    }

    /// Largest residual drift of the calibrated selectivities across
    /// well-sampled joins (1.0 when no join qualified).
    pub fn max_after_error(&self) -> f64 {
        self.joins
            .iter()
            .filter(|j| j.sampled)
            .map(|j| j.after_error)
            .fold(1.0, f64::max)
    }

    /// Number of joins clearing the [`MIN_CALIBRATION_EVENTS`] floor in
    /// both windows.
    pub fn sampled_joins(&self) -> usize {
        self.joins.iter().filter(|j| j.sampled).count()
    }

    /// Applies the learned selectivities on top of `base`, returning
    /// calibrated [`CostParams`] ready for [`crate::analyze_cost`].
    pub fn apply(&self, mut base: CostParams) -> CostParams {
        for j in &self.joins {
            base.join_selectivity_overrides
                .insert((j.production, j.ce), j.calibrated);
        }
        base
    }

    /// Renders the report as a JSON object — the `CalibratedCostParams`
    /// artifact `psmprof` writes to `results/calibration.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"workload\":");
        json::push_escaped(&mut out, &self.name);
        let _ = write!(
            out,
            ",\"cycles\":{},\"seed\":{},\"min_events\":{MIN_CALIBRATION_EVENTS},\
             \"sampled_joins\":{}",
            self.cycles,
            self.seed,
            self.sampled_joins()
        );
        let _ = write!(
            out,
            ",\"max_before_error\":{},\"max_after_error\":{}",
            json::number(self.max_before_error()),
            json::number(self.max_after_error())
        );
        out.push_str(",\"joins\":[");
        for (i, j) in self.joins.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&j.to_json());
        }
        out.push_str("]}");
        out
    }
}

/// Shrinkage estimate of a join's selectivity: measurement blended
/// with the static prior, the prior carrying [`PRIOR_EVENTS`]
/// pseudo-events (posterior mean of a Gamma prior with mean `prior`).
fn shrunk_jsel(tokens_out: u64, pairs: u64, prior: f64) -> f64 {
    let prior = prior.max(1e-9);
    (tokens_out as f64 + PRIOR_EVENTS) / (pairs as f64 + PRIOR_EVENTS / prior)
}

/// Raw measured selectivity with a floor that keeps error ratios
/// finite: a node that emitted zero tokens over `pairs` comparisons is
/// estimated at half a token, not zero.
fn raw_jsel(tokens_out: u64, pairs: u64) -> f64 {
    (tokens_out as f64).max(0.5) / (pairs as f64).max(1.0)
}

/// Ratio of the larger value to the smaller (≥ 1).
fn error_factor(a: f64, b: f64) -> f64 {
    let (a, b) = (a.max(1e-9), b.max(1e-9));
    (a / b).max(b / a)
}

/// Per-node `(tokens_out, pairs)` accumulated from one interleaved
/// sample of the run.
type SampleCounts = HashMap<u32, (u64, u64)>;

/// Per-node `(tokens_out, pairs)` counter delta between two snapshots
/// of the same profiler.
fn window_counts(later: &ProfileSnapshot, earlier: &ProfileSnapshot) -> SampleCounts {
    let base: SampleCounts = earlier
        .rows
        .iter()
        .map(|r| (r.node, (r.tokens_out, r.pairs)))
        .collect();
    later
        .rows
        .iter()
        .map(|r| {
            let (out0, pairs0) = base.get(&r.node).copied().unwrap_or((0, 0));
            (r.node, (r.tokens_out - out0, r.pairs - pairs0))
        })
        .collect()
}

/// Compiles `workload` and profiles it under a per-node profiler sized
/// to the network: a warmup window of `cycles` batches (discarded),
/// then `2 × cycles` batches in alternating [`WINDOW_BLOCK`]-sized
/// blocks accumulated into the calibration and validation samples.
/// Returns both samples, the final (cumulative) snapshot, and the
/// network.
fn interleaved_profile(
    workload: &GeneratedWorkload,
    cycles: u64,
    seed: u64,
) -> Result<(SampleCounts, SampleCounts, ProfileSnapshot, Arc<Network>), ops5::Error> {
    let mut matcher = ReteMatcher::compile(&workload.program)?;
    let network = Arc::clone(matcher.network());
    let capacity = network.iter().count();
    let obs = Arc::new(Obs::with_profile(0, 0, capacity));
    matcher.attach_obs(Arc::clone(&obs));
    let mut driver = WorkloadDriver::new(workload.clone(), seed);
    driver.init(&mut matcher);
    let mut run_batch = |matcher: &mut ReteMatcher| {
        let batch = driver.next_batch();
        matcher.process(driver.working_memory(), &batch);
        driver.commit_batch(&batch);
    };
    for _ in 0..cycles {
        run_batch(&mut matcher);
    }
    let mut prev = obs.profile.snapshot();
    let mut cal = SampleCounts::new();
    let mut val = SampleCounts::new();
    let mut remaining = 2 * cycles;
    let mut block = 0u64;
    while remaining > 0 {
        for _ in 0..WINDOW_BLOCK.min(remaining) {
            run_batch(&mut matcher);
        }
        remaining -= WINDOW_BLOCK.min(remaining);
        let snap = obs.profile.snapshot();
        let sample = if block.is_multiple_of(2) {
            &mut cal
        } else {
            &mut val
        };
        for (node, (out, pairs)) in window_counts(&snap, &prev) {
            let e = sample.entry(node).or_insert((0, 0));
            e.0 += out;
            e.1 += pairs;
        }
        prev = snap;
        block += 1;
    }
    Ok((cal, val, prev, network))
}

/// Calibrates the cost model for one generated workload: after a
/// warmup window of `cycles` batches (bulk load and memory ramp-up),
/// learns measured join selectivities from the even interleave blocks
/// of the next `2 × cycles` batches, then validates them against the
/// odd blocks' independent sample, reporting per-join drift before and
/// after calibration.
///
/// # Errors
///
/// Returns [`ops5::Error`] if generation or compilation fails.
pub fn calibrate_workload(
    spec: WorkloadSpec,
    cycles: u64,
    seed: u64,
) -> Result<CalibrationReport, ops5::Error> {
    let name = spec.name.clone();
    let workload = GeneratedWorkload::generate(spec)?;
    let params = params_from_spec(&workload.spec, &workload.program);
    let (cal_rows, val_rows, full, network) = interleaved_profile(&workload, cycles, seed)?;
    let predicted = predicted_join_selectivities(&workload.program, &network, &params);

    let mut joins = Vec::new();
    for p in &workload.program.productions {
        for (ce, node_id) in network.production_chain(p.id).iter().enumerate() {
            // Only positive joins: a negative node's token flow is not
            // a pair-pass ratio (empty-memory left activations emit
            // without comparing), and the cost model never consumes a
            // negated CE's jsel.
            let kind = match network.node(*node_id).kind {
                NodeKind::Join => "join",
                _ => continue,
            };
            let node = node_id.index() as u32;
            let (Some(&(c_out, c_pairs)), Some(&(v_out, v_pairs))) =
                (cal_rows.get(&node), val_rows.get(&node))
            else {
                continue;
            };
            if c_pairs == 0 || v_pairs == 0 {
                continue;
            }
            let pred = predicted[p.id.index()][ce];
            let calibrated = shrunk_jsel(c_out, c_pairs, pred);
            let validated = raw_jsel(v_out, v_pairs);
            joins.push(JoinCalibration {
                production: p.id.index(),
                production_name: p.name.clone(),
                ce,
                node,
                kind,
                pairs: c_pairs,
                val_pairs: v_pairs,
                sampled: c_out >= MIN_CALIBRATION_EVENTS && v_out >= MIN_CALIBRATION_EVENTS,
                predicted: pred,
                calibrated,
                validated,
                before_error: error_factor(pred, validated),
                after_error: error_factor(calibrated, validated),
            });
        }
    }

    // Folded stacks cover the whole run (warmup + both windows) — the
    // profile a flamegraph of the workload should show.
    let folded = folded_stacks(&workload.program, &network, &full);
    Ok(CalibrationReport {
        name,
        cycles,
        seed,
        joins,
        folded,
    })
}

fn frame_label(kind: NodeKind, node: u32) -> String {
    let k = match kind {
        NodeKind::Join => "join",
        NodeKind::Negative => "neg",
        NodeKind::BetaMemory => "bmem",
        NodeKind::Terminal => "term",
    };
    format!("{k}:{node}")
}

/// Exports a profile snapshot as folded stacks: one line per
/// `production → beta-chain prefix → node` with the node's measured
/// work (`pairs_compared + tokens_in`, divided by how many productions
/// share it) as the sample count. The output is the `.folded` format
/// standard flamegraph tools consume directly.
pub fn folded_stacks(program: &Program, network: &Network, snap: &ProfileSnapshot) -> String {
    let use_counts = network.node_use_counts();
    let rows: HashMap<u32, (u64, u64)> = snap
        .rows
        .iter()
        .map(|r| (r.node, (r.pairs, r.tokens_in)))
        .collect();
    let weight_of = |node: u32| -> u64 {
        let Some(&(pairs, tokens_in)) = rows.get(&node) else {
            return 0;
        };
        let uses = use_counts[node as usize].max(1) as u64;
        (pairs + tokens_in) / uses
    };
    let mut out = String::new();
    for p in &program.productions {
        // Folded frames are ';'- and ' '-delimited; keep names clean.
        let mut stack = p.name.replace([';', ' '], "_");
        let chain: Vec<rete::NodeId> = network
            .production_chain(p.id)
            .iter()
            .copied()
            .chain(std::iter::once(network.terminal(p.id)))
            .collect();
        for node_id in chain {
            let node = node_id.index() as u32;
            let _ = write!(stack, ";{}", frame_label(network.node(node_id).kind, node));
            let weight = weight_of(node);
            if weight > 0 {
                let _ = writeln!(out, "{stack} {weight}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::parse_program;
    use psm_obs::{NodeDelta, NodeProfiler, ProfileKind};
    use workloads::Preset;

    #[test]
    fn calibration_shrinks_validated_drift() {
        let report = calibrate_workload(Preset::Vt.spec_small(), 450, 11).unwrap();
        assert!(!report.joins.is_empty(), "vt has active joins");
        assert!(report.sampled_joins() > 0, "vt has well-sampled joins");
        // Learned values must track the holdout window at least as well
        // as the static prior does.
        assert!(
            report.max_after_error() <= report.max_before_error(),
            "after {} vs before {}",
            report.max_after_error(),
            report.max_before_error()
        );
        // Every record's ratios are well-formed.
        for j in &report.joins {
            assert!(j.before_error >= 1.0 && j.after_error >= 1.0);
            assert!(j.pairs > 0 && j.val_pairs > 0);
        }
        // The JSON artifact is non-trivial and self-describing.
        let json = report.to_json();
        assert!(json.contains("\"workload\":\"vt-small\""));
        assert!(json.contains("\"joins\":["));
        assert!(json.contains("\"after_error\":"));
    }

    #[test]
    fn applied_overrides_change_the_model() {
        let report = calibrate_workload(Preset::Vt.spec_small(), 30, 5).unwrap();
        let workload = GeneratedWorkload::generate(Preset::Vt.spec_small()).unwrap();
        let network = rete::Network::compile(&workload.program).unwrap();
        let base = params_from_spec(&workload.spec, &workload.program);
        let calibrated = report.apply(base.clone());
        assert_eq!(
            calibrated.join_selectivity_overrides.len(),
            report.joins.len()
        );
        let before = predicted_join_selectivities(&workload.program, &network, &base);
        let after = predicted_join_selectivities(&workload.program, &network, &calibrated);
        for j in &report.joins {
            assert_eq!(after[j.production][j.ce], j.calibrated);
        }
        // At least one join actually moved (otherwise the static model
        // was already exact, which the crosscheck harness rules out).
        assert!(report
            .joins
            .iter()
            .any(|j| (before[j.production][j.ce] - j.calibrated).abs() > 1e-12));
    }

    #[test]
    fn folded_stacks_golden() {
        let src = "(p hot (a ^x <v>) (b ^x <v>) --> (halt))\n\
                   (p cold (c ^y 1) --> (halt))";
        let program = parse_program(src).unwrap();
        let network = Network::compile(&program).unwrap();
        let hot = program.productions[0].id;
        let cold = program.productions[1].id;
        let hot_chain = network.production_chain(hot);
        let cold_chain = network.production_chain(cold);
        assert_eq!(hot_chain.len(), 2);
        assert_eq!(cold_chain.len(), 1);

        // Hand-populated profile: hot's two joins compared 6 and 3
        // pairs over 2 and 1 input tokens; cold's join compared 1 pair.
        let prof = NodeProfiler::new(network.iter().count());
        let j = |i: usize| hot_chain[i].index() as u32;
        let one = |right, pairs, tokens_out| {
            let mut d = NodeDelta::default();
            d.record(right, pairs, tokens_out);
            d
        };
        prof.add(j(0), ProfileKind::Join, &one(true, 6, 2));
        prof.add(j(1), ProfileKind::Join, &one(false, 3, 1));
        let terminal = network.terminal(hot).index() as u32;
        prof.add(terminal, ProfileKind::Terminal, &one(false, 0, 1));
        let cold_join = cold_chain[0].index() as u32;
        prof.add(cold_join, ProfileKind::Join, &one(true, 1, 1));
        let snap = prof.snapshot();

        let folded = folded_stacks(&program, &network, &snap);
        let expected = format!(
            "hot;join:{a} 7\nhot;join:{a};join:{b} 4\n\
             hot;join:{a};join:{b};term:{t} 1\ncold;join:{c} 2\n",
            a = j(0),
            b = j(1),
            t = network.terminal(hot).index(),
            c = cold_chain[0].index()
        );
        assert_eq!(folded, expected);
    }
}
