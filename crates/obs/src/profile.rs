//! Per-node join profiler — the continuous measurement plane under the
//! cost model.
//!
//! The paper's §3–4 analysis runs on per-node quantities: join
//! activations, tokens compared, selectivity, and the cross-production
//! skew that caps speed-up. The rest of `psm-obs` measures per-phase
//! and per-worker aggregates; this module measures the network itself.
//! Each beta-network node gets a fixed slot of relaxed atomic counters
//! (left/right activations, tokens in/out, pairs compared) plus a
//! coarse log2 latency histogram, so the runtime can answer "which
//! join burns the cycles, and what is its *measured* selectivity?"
//! while it runs.
//!
//! Gating follows the flight-recorder discipline: a profiler built
//! with capacity 0 is permanently off, never allocates a slot, and a
//! would-be record costs one relaxed load ([`NodeProfiler::enabled`]).
//! An enabled profiler records with a handful of relaxed atomic adds —
//! no locks, no allocation — so it can stay on in production. Latency
//! histograms are one step more expensive (two clock reads per
//! activation), so callers additionally gate them behind the
//! [`Obs::set_detail`](crate::Obs::set_detail) toggle, same as the
//! span layer.
//!
//! Nodes are keyed by their dense network index. Ids at or past the
//! capacity are not silently merged into a junk slot: they count into
//! [`NodeProfiler::overflow`] so `/snapshot` can report truncation.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::json;
use crate::metrics::{Histogram, HistogramSnapshot};

/// What kind of network node a profile slot describes. This is the
/// *node* taxonomy (a join node, not a "join-R" activation): the
/// per-activation side lands in the left/right counters instead, and
/// the label doubles as the `kind` metric label on the
/// `profile.node.*` families.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProfileKind {
    /// A two-input (positive) join node.
    Join,
    /// A negated-condition join node.
    Negative,
    /// A beta memory.
    BetaMem,
    /// A production terminal.
    Terminal,
    /// Anything else (alpha constant tests, alpha memories).
    Other,
}

/// All kinds, in discriminant order (the order `from_u8` decodes).
pub const PROFILE_KINDS: [ProfileKind; 5] = [
    ProfileKind::Join,
    ProfileKind::Negative,
    ProfileKind::BetaMem,
    ProfileKind::Terminal,
    ProfileKind::Other,
];

impl ProfileKind {
    /// Short label used in `/profile` JSON, metric families, and
    /// folded stacks.
    pub fn label(self) -> &'static str {
        match self {
            ProfileKind::Join => "join",
            ProfileKind::Negative => "neg",
            ProfileKind::BetaMem => "bmem",
            ProfileKind::Terminal => "term",
            ProfileKind::Other => "other",
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            ProfileKind::Join => 0,
            ProfileKind::Negative => 1,
            ProfileKind::BetaMem => 2,
            ProfileKind::Terminal => 3,
            ProfileKind::Other => 4,
        }
    }

    fn from_u8(v: u8) -> Option<ProfileKind> {
        PROFILE_KINDS.get(v as usize).copied()
    }
}

/// A batch of per-node counter increments, accumulated locally by a
/// parallel worker during a phase and flushed once with
/// [`NodeProfiler::add`] — the cold-path pattern the engine already
/// uses for its per-worker counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeDelta {
    /// Left (token-side) activations.
    pub left: u64,
    /// Right (WME-side) activations.
    pub right: u64,
    /// Input items consumed (one per activation, either side).
    pub tokens_in: u64,
    /// Tokens emitted downstream (or conflict-set changes, for
    /// terminals).
    pub tokens_out: u64,
    /// Opposite-memory pairs compared while computing the activation.
    pub pairs: u64,
}

impl NodeDelta {
    /// Folds one activation into the batch.
    #[inline]
    pub fn record(&mut self, right: bool, pairs: u64, tokens_out: u64) {
        if right {
            self.right += 1;
        } else {
            self.left += 1;
        }
        self.tokens_in += 1;
        self.tokens_out += tokens_out;
        self.pairs += pairs;
    }
}

/// One node's slot of relaxed atomics. Latency histograms live in a
/// separate parallel vector ([`NodeProfiler::latencies`]): keeping the
/// counter slots ~48 bytes packs two per cache line, so a batch flush
/// walking many touched nodes stays in cache instead of striding over
/// histogram-sized gaps.
#[derive(Debug)]
struct Slot {
    /// `u8::MAX` until the first record fixes the node kind.
    kind: AtomicU8,
    left: AtomicU64,
    right: AtomicU64,
    tokens_in: AtomicU64,
    tokens_out: AtomicU64,
    pairs: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            kind: AtomicU8::new(u8::MAX),
            left: AtomicU64::new(0),
            right: AtomicU64::new(0),
            tokens_in: AtomicU64::new(0),
            tokens_out: AtomicU64::new(0),
            pairs: AtomicU64::new(0),
        }
    }

    fn touched(&self) -> bool {
        self.kind.load(Ordering::Relaxed) != u8::MAX
    }
}

/// The per-node profiler: `capacity` slots of atomic counters, one per
/// network node index. Capacity 0 is permanently off and allocation
/// free. Shared freely across threads (`&self` everywhere, all relaxed
/// atomics).
#[derive(Debug)]
pub struct NodeProfiler {
    capacity: usize,
    slots: Vec<Slot>,
    /// Per-node latency histograms, parallel to `slots` (see the
    /// [`Slot`] layout note).
    latencies: Vec<Histogram>,
    overflow: AtomicU64,
}

impl NodeProfiler {
    /// A profiler with `capacity` node slots; 0 disables it outright
    /// (no slot vector is allocated).
    pub fn new(capacity: usize) -> NodeProfiler {
        NodeProfiler {
            capacity,
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            latencies: (0..capacity).map(|_| Histogram::default()).collect(),
            overflow: AtomicU64::new(0),
        }
    }

    /// Whether recording does anything. The disabled check is the
    /// entire cost of a would-be record on a capacity-0 profiler.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Number of node slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records incremented for nodes at or past capacity (dropped, not
    /// merged): one per [`add`](NodeProfiler::add) aimed at such a
    /// node, plus whatever writers that bound their own accumulators
    /// by the capacity report through
    /// [`add_overflow`](NodeProfiler::add_overflow).
    pub fn overflow(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    /// Counts `activations` of nodes at or past capacity that a writer
    /// dropped without accumulating them — once per batch, instead of
    /// flushing a delta per such node only for it to land here.
    pub fn add_overflow(&self, activations: u64) {
        if activations > 0 && self.enabled() {
            self.overflow.fetch_add(activations, Ordering::Relaxed);
        }
    }

    /// Number of slots that have recorded at least one activation.
    pub fn retained(&self) -> usize {
        self.slots.iter().filter(|s| s.touched()).count()
    }

    fn slot(&self, node: u32) -> Option<&Slot> {
        let s = self.slots.get(node as usize);
        if s.is_none() && self.enabled() {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        }
        s
    }

    /// Flushes a worker-local [`NodeDelta`] batch into `node`'s slot —
    /// the parallel engine's once-per-phase cold path. A no-op unless
    /// [`enabled`](NodeProfiler::enabled).
    pub fn add(&self, node: u32, kind: ProfileKind, d: &NodeDelta) {
        if !self.enabled() {
            return;
        }
        let Some(s) = self.slot(node) else { return };
        s.kind.store(kind.as_u8(), Ordering::Relaxed);
        s.left.fetch_add(d.left, Ordering::Relaxed);
        s.right.fetch_add(d.right, Ordering::Relaxed);
        s.tokens_in.fetch_add(d.tokens_in, Ordering::Relaxed);
        s.tokens_out.fetch_add(d.tokens_out, Ordering::Relaxed);
        s.pairs.fetch_add(d.pairs, Ordering::Relaxed);
    }

    /// Single-writer variant of [`add`](NodeProfiler::add): folds the
    /// batch in with relaxed load + store pairs instead of atomic RMWs
    /// (an uncontended `fetch_add` still pays a locked instruction;
    /// this does not). Correct only while the caller is the sole
    /// thread *writing* the profiler — concurrent [`snapshot`] readers
    /// are fine, they already tolerate relaxed tearing between
    /// counters. The sequential matcher's per-batch flush is the
    /// intended caller; parallel workers must keep using `add`.
    ///
    /// [`snapshot`]: NodeProfiler::snapshot
    pub fn add_single_writer(&self, node: u32, kind: ProfileKind, d: &NodeDelta) {
        if !self.enabled() {
            return;
        }
        let Some(s) = self.slot(node) else { return };
        s.kind.store(kind.as_u8(), Ordering::Relaxed);
        let bump =
            |c: &AtomicU64, v: u64| c.store(c.load(Ordering::Relaxed) + v, Ordering::Relaxed);
        bump(&s.left, d.left);
        bump(&s.right, d.right);
        bump(&s.tokens_in, d.tokens_in);
        bump(&s.tokens_out, d.tokens_out);
        bump(&s.pairs, d.pairs);
    }

    /// Records one activation's latency into `node`'s coarse log2
    /// histogram. Callers gate this behind the detail toggle — the two
    /// clock reads around an activation cost more than the counters do.
    #[inline]
    pub fn record_latency(&self, node: u32, ns: u64) {
        if !self.enabled() {
            return;
        }
        if let Some(h) = self.latencies.get(node as usize) {
            h.record(ns);
        }
    }

    /// A point-in-time copy of every touched slot, sorted hottest
    /// first (pairs compared, then input volume).
    pub fn snapshot(&self) -> ProfileSnapshot {
        let mut rows: Vec<ProfileRow> = Vec::new();
        for (i, s) in self.slots.iter().enumerate() {
            let kind = ProfileKind::from_u8(s.kind.load(Ordering::Relaxed));
            let Some(kind) = kind else { continue };
            let pairs = s.pairs.load(Ordering::Relaxed);
            let tokens_out = s.tokens_out.load(Ordering::Relaxed);
            rows.push(ProfileRow {
                node: i as u32,
                kind: kind.label(),
                left: s.left.load(Ordering::Relaxed),
                right: s.right.load(Ordering::Relaxed),
                tokens_in: s.tokens_in.load(Ordering::Relaxed),
                tokens_out,
                pairs,
                selectivity: if pairs > 0 {
                    tokens_out as f64 / pairs as f64
                } else {
                    0.0
                },
                latency: self.latencies[i].snapshot(),
            });
        }
        rows.sort_by(|a, b| {
            b.pairs
                .cmp(&a.pairs)
                .then(b.tokens_in.cmp(&a.tokens_in))
                .then(a.node.cmp(&b.node))
        });
        ProfileSnapshot {
            capacity: self.capacity,
            retained: rows.len(),
            overflow: self.overflow(),
            rows,
        }
    }
}

/// One node's profile, as captured by [`NodeProfiler::snapshot`].
#[derive(Clone, Debug)]
pub struct ProfileRow {
    /// Dense network node index.
    pub node: u32,
    /// [`ProfileKind::label`] of the node.
    pub kind: &'static str,
    /// Left (token-side) activations.
    pub left: u64,
    /// Right (WME-side) activations.
    pub right: u64,
    /// Input items consumed.
    pub tokens_in: u64,
    /// Tokens emitted (conflict-set changes for terminals).
    pub tokens_out: u64,
    /// Opposite-memory pairs compared.
    pub pairs: u64,
    /// Measured join selectivity: `tokens_out / pairs` (0 when no
    /// pairs were compared).
    pub selectivity: f64,
    /// Coarse activation-latency histogram (nanoseconds); empty unless
    /// the detail toggle was on.
    pub latency: HistogramSnapshot,
}

impl ProfileRow {
    /// The row as a JSON object. Latency is summarized (count / mean /
    /// p50 / p99) rather than dumped bucket-by-bucket: `/profile` is a
    /// polling endpoint and the full buckets are already on `/metrics`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(192);
        out.push_str("{\"node\":");
        out.push_str(&self.node.to_string());
        out.push_str(",\"kind\":");
        json::push_escaped(&mut out, self.kind);
        out.push_str(",\"left\":");
        out.push_str(&self.left.to_string());
        out.push_str(",\"right\":");
        out.push_str(&self.right.to_string());
        out.push_str(",\"tokens_in\":");
        out.push_str(&self.tokens_in.to_string());
        out.push_str(",\"tokens_out\":");
        out.push_str(&self.tokens_out.to_string());
        out.push_str(",\"pairs\":");
        out.push_str(&self.pairs.to_string());
        out.push_str(",\"selectivity\":");
        out.push_str(&json::number(self.selectivity));
        out.push_str(",\"lat_count\":");
        out.push_str(&self.latency.count.to_string());
        out.push_str(",\"lat_mean_ns\":");
        out.push_str(&json::number(self.latency.mean()));
        out.push_str(",\"lat_p50_ns\":");
        out.push_str(&self.latency.quantile_bound(0.5).to_string());
        out.push_str(",\"lat_p99_ns\":");
        out.push_str(&self.latency.quantile_bound(0.99).to_string());
        out.push('}');
        out
    }
}

/// Everything `/profile` serves: capacity / retention / overflow status
/// plus the touched rows, hottest first.
#[derive(Clone, Debug)]
pub struct ProfileSnapshot {
    /// Node slots the profiler was built with (0 = profiling off).
    pub capacity: usize,
    /// Slots that recorded at least one activation.
    pub retained: usize,
    /// Records dropped because the node index was past capacity.
    pub overflow: u64,
    /// Touched rows, sorted by pairs compared descending.
    pub rows: Vec<ProfileRow>,
}

impl ProfileSnapshot {
    /// Total pairs compared across all rows (the denominator for
    /// hot-node share).
    pub fn total_pairs(&self) -> u64 {
        self.rows.iter().map(|r| r.pairs).sum()
    }

    /// The snapshot as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 192 * self.rows.len());
        out.push_str("{\"capacity\":");
        out.push_str(&self.capacity.to_string());
        out.push_str(",\"retained\":");
        out.push_str(&self.retained.to_string());
        out.push_str(",\"overflow\":");
        out.push_str(&self.overflow.to_string());
        out.push_str(",\"total_pairs\":");
        out.push_str(&self.total_pairs().to_string());
        out.push_str(",\"rows\":[");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_json());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One activation as a batch of its own.
    fn one(right: bool, pairs: u64, tokens_out: u64) -> NodeDelta {
        let mut d = NodeDelta::default();
        d.record(right, pairs, tokens_out);
        d
    }

    #[test]
    fn capacity_zero_is_off_and_allocation_free() {
        let p = NodeProfiler::new(0);
        assert!(!p.enabled());
        assert_eq!(p.slots.capacity(), 0, "no slot vector behind capacity 0");
        p.add(3, ProfileKind::Join, &one(true, 10, 2));
        p.record_latency(3, 500);
        p.add_single_writer(3, ProfileKind::Join, &NodeDelta::default());
        p.add_overflow(3);
        assert_eq!(
            p.overflow(),
            0,
            "disabled profiler does not even count overflow"
        );
        let snap = p.snapshot();
        assert_eq!(snap.capacity, 0);
        assert_eq!(snap.retained, 0);
        assert!(snap.rows.is_empty());
    }

    #[test]
    fn records_and_sorts_hottest_first() {
        let p = NodeProfiler::new(8);
        assert!(p.enabled());
        // Node 2: a join scanning 4 pairs per right activation, half pass.
        p.add(2, ProfileKind::Join, &one(true, 4, 2));
        p.add(2, ProfileKind::Join, &one(true, 4, 2));
        // Node 5: a colder join.
        p.add(5, ProfileKind::Join, &one(false, 1, 1));
        // Node 7: terminal.
        p.add(7, ProfileKind::Terminal, &one(false, 0, 1));
        let snap = p.snapshot();
        assert_eq!(snap.retained, 3);
        assert_eq!(snap.rows[0].node, 2, "hottest (most pairs) first");
        assert_eq!(snap.rows[0].right, 2);
        assert_eq!(snap.rows[0].left, 0);
        assert_eq!(snap.rows[0].pairs, 8);
        assert_eq!(snap.rows[0].tokens_out, 4);
        assert!((snap.rows[0].selectivity - 0.5).abs() < 1e-12);
        assert_eq!(snap.rows[0].kind, "join");
        let term = snap.rows.iter().find(|r| r.node == 7).unwrap();
        assert_eq!(term.kind, "term");
        assert_eq!(term.selectivity, 0.0, "no pairs, no selectivity");
    }

    #[test]
    fn overflow_counts_out_of_range_nodes() {
        let p = NodeProfiler::new(2);
        p.add(0, ProfileKind::Join, &one(true, 1, 0));
        p.add(9, ProfileKind::Join, &one(true, 1, 0));
        p.add(11, ProfileKind::Join, &NodeDelta::default());
        assert_eq!(p.overflow(), 2);
        assert_eq!(p.snapshot().retained, 1);
    }

    #[test]
    fn single_writer_add_matches_atomic_add() {
        let a = NodeProfiler::new(4);
        let b = NodeProfiler::new(4);
        let d = NodeDelta {
            left: 3,
            right: 2,
            tokens_in: 5,
            tokens_out: 4,
            pairs: 17,
        };
        a.add(2, ProfileKind::Join, &d);
        a.add(2, ProfileKind::Join, &d);
        b.add_single_writer(2, ProfileKind::Join, &d);
        b.add_single_writer(2, ProfileKind::Join, &d);
        let (ra, rb) = (a.snapshot().rows, b.snapshot().rows);
        assert_eq!(ra[0].left, rb[0].left);
        assert_eq!(ra[0].right, rb[0].right);
        assert_eq!(ra[0].tokens_in, rb[0].tokens_in);
        assert_eq!(ra[0].tokens_out, rb[0].tokens_out);
        assert_eq!(ra[0].pairs, rb[0].pairs);
        assert_eq!(ra[0].kind, "join");
        // Out-of-range nodes still count into overflow.
        b.add_single_writer(9, ProfileKind::Join, &d);
        assert_eq!(b.overflow(), 1);
        b.add_overflow(5);
        assert_eq!(b.overflow(), 6);
    }

    #[test]
    fn bulk_add_matches_singles() {
        let a = NodeProfiler::new(4);
        let b = NodeProfiler::new(4);
        let mut d = NodeDelta::default();
        for i in 0..5u64 {
            a.add(1, ProfileKind::Negative, &one(i % 2 == 0, 3, 1));
            d.record(i % 2 == 0, 3, 1);
        }
        b.add(1, ProfileKind::Negative, &d);
        let (ra, rb) = (a.snapshot().rows, b.snapshot().rows);
        assert_eq!(ra[0].left, rb[0].left);
        assert_eq!(ra[0].right, rb[0].right);
        assert_eq!(ra[0].tokens_in, rb[0].tokens_in);
        assert_eq!(ra[0].tokens_out, rb[0].tokens_out);
        assert_eq!(ra[0].pairs, rb[0].pairs);
    }

    #[test]
    fn latency_lands_in_histogram() {
        let p = NodeProfiler::new(2);
        p.add(0, ProfileKind::Join, &one(true, 1, 1));
        p.record_latency(0, 1000);
        p.record_latency(0, 2000);
        let snap = p.snapshot();
        assert_eq!(snap.rows[0].latency.count, 2);
        assert_eq!(snap.rows[0].latency.sum, 3000);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let p = NodeProfiler::new(2);
        p.add(0, ProfileKind::Join, &one(true, 4, 1));
        let j = p.snapshot().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"selectivity\":0.25"));
        assert!(j.contains("\"kind\":\"join\""));
        assert!(j.contains("\"total_pairs\":4"));
    }
}
