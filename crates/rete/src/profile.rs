//! Per-node and per-kind activation-time profiling for the sequential
//! matcher.
//!
//! Off by default: [`crate::ReteMatcher::enable_profiling`] allocates a
//! [`MatchProfile`] and from then on every node activation is timed
//! (two clock reads per activation) and recorded into a per-node total
//! and a per-[`ActivationKind`] log2 histogram from `psm-obs`. The
//! top-K query answers the question the paper's §3 cost model asks of
//! real data: *which* nodes dominate match time.

use psm_obs::{Histogram, HistogramSnapshot};

use crate::kernel::ActivationKind;

/// Accumulated cost of one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCost {
    /// Activations executed at this node.
    pub count: u64,
    /// Total nanoseconds spent in them.
    pub total_ns: u64,
}

/// One row of [`MatchProfile::hot_nodes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotNode {
    /// Beta-network node id.
    pub node: u32,
    /// Activations executed at this node.
    pub count: u64,
    /// Total nanoseconds spent in them.
    pub total_ns: u64,
}

/// Activation-time profile: per-node totals plus per-kind histograms.
#[derive(Debug)]
pub struct MatchProfile {
    kinds: [Histogram; ActivationKind::ALL.len()],
    nodes: Vec<NodeCost>,
}

impl MatchProfile {
    /// An empty profile sized for `n_nodes` beta-network nodes.
    pub fn new(n_nodes: usize) -> Self {
        MatchProfile {
            kinds: std::array::from_fn(|_| Histogram::default()),
            nodes: vec![NodeCost::default(); n_nodes],
        }
    }

    /// Records one activation of `node` with kind `kind` taking `ns`.
    #[inline]
    pub fn record(&mut self, kind: ActivationKind, node: u32, ns: u64) {
        self.kinds[kind as usize].record(ns);
        if let Some(slot) = self.nodes.get_mut(node as usize) {
            slot.count += 1;
            slot.total_ns += ns;
        }
    }

    /// Snapshot of the latency histogram for `kind`.
    pub fn kind_snapshot(&self, kind: ActivationKind) -> HistogramSnapshot {
        self.kinds[kind as usize].snapshot()
    }

    /// Per-node accumulated costs, indexed by node id.
    pub fn node_costs(&self) -> &[NodeCost] {
        &self.nodes
    }

    /// The `k` nodes with the largest total activation time,
    /// descending.
    pub fn hot_nodes(&self, k: usize) -> Vec<HotNode> {
        let mut rows: Vec<HotNode> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, c)| c.count > 0)
            .map(|(i, c)| HotNode {
                node: i as u32,
                count: c.count,
                total_ns: c.total_ns,
            })
            .collect();
        rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.node.cmp(&b.node)));
        rows.truncate(k);
        rows
    }

    /// Total nanoseconds across all recorded activations.
    pub fn total_ns(&self) -> u64 {
        self.nodes.iter().map(|c| c.total_ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_nodes_sorted_and_truncated() {
        let mut p = MatchProfile::new(4);
        p.record(ActivationKind::JoinRight, 0, 10);
        p.record(ActivationKind::JoinRight, 2, 100);
        p.record(ActivationKind::BetaMem, 2, 50);
        p.record(ActivationKind::Terminal, 3, 5);
        let hot = p.hot_nodes(2);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].node, 2);
        assert_eq!(hot[0].count, 2);
        assert_eq!(hot[0].total_ns, 150);
        assert_eq!(hot[1].node, 0);
        assert_eq!(p.total_ns(), 165);
        assert_eq!(p.kind_snapshot(ActivationKind::JoinRight).count, 2);
        assert_eq!(p.kind_snapshot(ActivationKind::NegativeLeft).count, 0);
    }

    #[test]
    fn out_of_range_node_still_counts_kind() {
        let mut p = MatchProfile::new(1);
        p.record(ActivationKind::ConstantTest, 99, 7);
        assert_eq!(p.kind_snapshot(ActivationKind::ConstantTest).count, 1);
        assert_eq!(p.total_ns(), 0);
    }

    #[test]
    fn kinds_cover_every_discriminant() {
        for (i, k) in ActivationKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
    }
}
