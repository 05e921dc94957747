//! RAII span timers.
//!
//! A [`SpanTimer`] measures the wall time between its construction and
//! drop and records it (in nanoseconds) into a [`Histogram`]. A
//! disabled timer ([`SpanTimer::disabled`]) costs one branch at drop,
//! so instrumented code can create one unconditionally:
//!
//! ```
//! use psm_obs::{Histogram, SpanTimer};
//! let hist = Histogram::default();
//! {
//!     let _span = SpanTimer::start(&hist);
//!     // ... timed work ...
//! }
//! assert_eq!(hist.count(), 1);
//! ```

use std::time::Instant;

use crate::metrics::{Histogram, HistogramSnapshot};

/// Times a scope and records the elapsed nanoseconds on drop.
#[derive(Debug)]
pub struct SpanTimer<'a> {
    hist: Option<&'a Histogram>,
    start: Instant,
}

impl<'a> SpanTimer<'a> {
    /// A live timer recording into `hist` when dropped.
    #[inline]
    pub fn start(hist: &'a Histogram) -> Self {
        SpanTimer {
            hist: Some(hist),
            start: Instant::now(),
        }
    }

    /// A live timer only if `enabled`; otherwise a no-op timer.
    #[inline]
    pub fn start_if(enabled: bool, hist: &'a Histogram) -> Self {
        if enabled {
            Self::start(hist)
        } else {
            Self::disabled()
        }
    }

    /// A timer that records nothing.
    #[inline]
    pub fn disabled() -> Self {
        SpanTimer {
            hist: None,
            start: Instant::now(),
        }
    }

    /// Nanoseconds elapsed so far.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

impl Drop for SpanTimer<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(h) = self.hist {
            h.record(self.start.elapsed().as_nanos() as u64);
        }
    }
}

/// The three phases of the recognize–act cycle (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Match: compute conflict-set changes from WM changes.
    Match,
    /// Conflict resolution: keep the conflict set, pick the next
    /// instantiation.
    Select,
    /// Act: execute the RHS, producing the next WM change batch.
    Act,
}

impl Phase {
    /// All phases in cycle order.
    pub const ALL: [Phase; 3] = [Phase::Match, Phase::Select, Phase::Act];

    /// Lower-case phase name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Match => "match",
            Phase::Select => "select",
            Phase::Act => "act",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Match => 0,
            Phase::Select => 1,
            Phase::Act => 2,
        }
    }
}

/// Per-phase latency histograms (nanoseconds per phase sample).
///
/// A phase may be sampled more than once a cycle — the OPS5 interpreter
/// records select twice, the pick and the conflict-set update after the
/// match — so a histogram's count is samples, not cycles. Samples never
/// overlap: [`PhaseProfile::totals_ns`] adds up to the time spent in
/// phases.
#[derive(Debug, Default)]
pub struct PhaseProfile {
    hists: [Histogram; 3],
}

impl PhaseProfile {
    /// A profile with empty histograms.
    pub fn new() -> Self {
        PhaseProfile::default()
    }

    /// An RAII timer for `phase`.
    #[inline]
    pub fn span(&self, phase: Phase) -> SpanTimer<'_> {
        SpanTimer::start(&self.hists[phase.index()])
    }

    /// The histogram for `phase`.
    pub fn histogram(&self, phase: Phase) -> &Histogram {
        &self.hists[phase.index()]
    }

    /// Snapshot of one phase.
    pub fn snapshot(&self, phase: Phase) -> HistogramSnapshot {
        self.hists[phase.index()].snapshot()
    }

    /// Total nanoseconds recorded per phase, in [`Phase::ALL`] order.
    pub fn totals_ns(&self) -> [u64; 3] {
        std::array::from_fn(|i| self.hists[i].snapshot().sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        let h = Histogram::default();
        {
            let _s = SpanTimer::start(&h);
        }
        {
            let _s = SpanTimer::start_if(false, &h);
        }
        {
            let _s = SpanTimer::disabled();
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn phase_profile_routes_to_the_right_histogram() {
        let p = PhaseProfile::new();
        {
            let _m = p.span(Phase::Match);
            let _a = p.span(Phase::Act);
        }
        assert_eq!(p.snapshot(Phase::Match).count, 1);
        assert_eq!(p.snapshot(Phase::Select).count, 0);
        assert_eq!(p.snapshot(Phase::Act).count, 1);
        assert_eq!(Phase::Match.name(), "match");
    }
}
