//! `psm-obs` — the observability layer for the parallel production
//! system, with **zero external dependencies**.
//!
//! The paper's §6 headline is a *loss* story: nominal concurrency of
//! ~15.92 collapses to a true speed-up of ~8.25, the missing 1.93×
//! split between memory contention, scheduler overhead, and
//! task-size variance. Seeing where that factor goes requires
//! instrumentation at three layers — the match network, the software
//! task pool, and the simulated machine — all of which this crate
//! serves:
//!
//! - [`metrics`] — a registry of named atomic counters, gauges, and
//!   log2-bucketed histograms. Recording is lock-free ([`Counter`]
//!   and [`Histogram`] are plain atomics) and snapshots are
//!   mergeable, so per-worker metrics combine without locks on the
//!   hot path.
//! - [`span`] — RAII span timers feeding per-phase (match / select /
//!   act) and per-node-kind histograms.
//! - [`events`] — a bounded structured-event ring buffer with JSONL
//!   export, disabled by default and toggled at runtime.
//! - [`chrome`] — a Chrome `trace_event`-format JSON exporter, so a
//!   simulated 32-processor schedule renders directly in
//!   Perfetto / `chrome://tracing`.
//! - [`rng`] — a seeded SplitMix64 PRNG used by workload generators
//!   and randomized tests, replacing the external `rand` crate so
//!   the workspace builds fully offline.
//!
//! Everything here is cheap by default: counters are single relaxed
//! atomic adds, histograms are one atomic add into a fixed bucket
//! array, and the event/span layer does nothing until enabled.

pub mod chrome;
pub mod events;
pub mod flight;
pub mod history;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod rng;
pub mod span;

pub use chrome::{ChromeEvent, ChromeTrace};
pub use events::{Event, EventRing, FieldValue};
pub use flight::{
    Explanation, FlightBatch, FlightKind, FlightLabel, FlightRecord, FlightRecorder, FlightRule,
    DEFAULT_MAX_CYCLES,
};
pub use history::{HistPoint, HistoryRing, Point, Sampler, Series, SeriesKind};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry, HIST_BUCKETS,
};
pub use profile::{NodeDelta, NodeProfiler, ProfileKind, ProfileRow, ProfileSnapshot};
pub use rng::Rng64;
pub use span::{Phase, PhaseProfile, SpanTimer};

use std::sync::atomic::{AtomicBool, Ordering};

/// One shared observability handle: a metrics [`Registry`], an
/// [`EventRing`], a causal [`FlightRecorder`], and a detail toggle
/// gating the more expensive span / event layer. Clone an `Arc<Obs>`
/// into every worker.
#[derive(Debug)]
pub struct Obs {
    /// Named counters / gauges / histograms.
    pub metrics: Registry,
    /// Bounded structured-event buffer (disabled until
    /// [`Obs::set_detail`]).
    pub events: EventRing,
    /// Causal provenance ring (capacity 0 — permanently off — unless
    /// built via [`Obs::with_flight`]). Unlike the event ring, the
    /// flight recorder is *always on* once given capacity: it does not
    /// wait for the detail toggle, so `explain` queries work on a
    /// production run without enabling the expensive span layer.
    pub flight: FlightRecorder,
    /// Per-node join profiler (capacity 0 — permanently off — unless
    /// built via [`Obs::with_profile`]). Like the flight recorder it
    /// is always on once given capacity; only its latency histograms
    /// additionally wait for the detail toggle.
    pub profile: NodeProfiler,
    /// Metric time-series ring (capacity 0 — permanently off — unless
    /// built via [`Obs::with_history`]). Nothing samples it by itself:
    /// start a [`Sampler`] (or call [`HistoryRing::sample`]) to feed
    /// it on a cadence.
    pub history: HistoryRing,
    detail: AtomicBool,
}

impl Obs {
    /// A fresh handle with an event ring of `ring_capacity` slots and
    /// the flight recorder off. Counters are always live; the
    /// span/event layer starts off.
    pub fn new(ring_capacity: usize) -> Self {
        Self::with_flight(ring_capacity, 0)
    }

    /// A handle whose flight recorder retains `flight_capacity`
    /// provenance records (0 = off).
    pub fn with_flight(ring_capacity: usize, flight_capacity: usize) -> Self {
        Self::with_profile(ring_capacity, flight_capacity, 0)
    }

    /// A handle with the per-node profiler sized for `profile_capacity`
    /// network nodes on top of the event ring and flight recorder
    /// (either may still be 0 = off).
    pub fn with_profile(
        ring_capacity: usize,
        flight_capacity: usize,
        profile_capacity: usize,
    ) -> Self {
        Self::with_history(ring_capacity, flight_capacity, profile_capacity, 0)
    }

    /// A handle with the metric time-series ring retaining
    /// `history_windows` sampling windows per series on top of the
    /// event ring, flight recorder, and profiler (any may be 0 = off).
    pub fn with_history(
        ring_capacity: usize,
        flight_capacity: usize,
        profile_capacity: usize,
        history_windows: usize,
    ) -> Self {
        Obs {
            metrics: Registry::new(),
            events: EventRing::new(ring_capacity),
            flight: FlightRecorder::new(flight_capacity),
            profile: NodeProfiler::new(profile_capacity),
            history: HistoryRing::new(history_windows),
            detail: AtomicBool::new(false),
        }
    }

    /// Turns the detailed (span + event) layer on or off at runtime.
    pub fn set_detail(&self, on: bool) {
        self.detail.store(on, Ordering::Relaxed);
        self.events.set_enabled(on);
    }

    /// Whether the detailed layer is currently on.
    pub fn detail(&self) -> bool {
        self.detail.load(Ordering::Relaxed)
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detail_toggle_gates_events() {
        let obs = Obs::default();
        obs.events.emit("dropped", &[]);
        assert_eq!(obs.events.len(), 0);
        obs.set_detail(true);
        assert!(obs.detail());
        obs.events.emit("kept", &[]);
        assert_eq!(obs.events.len(), 1);
        obs.set_detail(false);
        obs.events.emit("dropped-again", &[]);
        assert_eq!(obs.events.len(), 1);
    }
}
