//! Per-kind activation-time profiling for the sequential matcher.
//!
//! Off by default: [`crate::ReteMatcher::enable_profiling`] allocates a
//! [`MatchProfile`] and from then on every node activation is timed
//! (two clock reads per activation) and recorded into a
//! per-[`ActivationKind`] log2 histogram from `psm-obs` — the split of
//! match time by layer the paper's §3 cost model asks for. *Which nodes*
//! dominate is the per-node profiler's question
//! ([`psm_obs::NodeProfiler`], whose latency histograms carry each
//! node's activation count and total time).

use psm_obs::{Histogram, HistogramSnapshot};

use crate::kernel::ActivationKind;

/// Activation-time profile: one latency histogram per kind.
#[derive(Debug)]
pub struct MatchProfile {
    kinds: [Histogram; ActivationKind::ALL.len()],
}

impl Default for MatchProfile {
    fn default() -> Self {
        MatchProfile {
            kinds: std::array::from_fn(|_| Histogram::default()),
        }
    }
}

impl MatchProfile {
    /// Records one activation of kind `kind` taking `ns`.
    #[inline]
    pub fn record(&mut self, kind: ActivationKind, ns: u64) {
        self.kinds[kind as usize].record(ns);
    }

    /// Snapshot of the latency histogram for `kind`.
    pub fn kind_snapshot(&self, kind: ActivationKind) -> HistogramSnapshot {
        self.kinds[kind as usize].snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activations_land_in_their_kind() {
        let mut p = MatchProfile::default();
        p.record(ActivationKind::JoinRight, 10);
        p.record(ActivationKind::JoinRight, 100);
        p.record(ActivationKind::BetaMem, 50);
        let joins = p.kind_snapshot(ActivationKind::JoinRight);
        assert_eq!((joins.count, joins.sum), (2, 110));
        assert_eq!(p.kind_snapshot(ActivationKind::BetaMem).sum, 50);
        assert_eq!(p.kind_snapshot(ActivationKind::NegativeLeft).count, 0);
    }

    #[test]
    fn kinds_cover_every_discriminant() {
        for (i, k) in ActivationKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
    }
}
