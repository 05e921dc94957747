//! Warm-standby replication: shipping checkpoints and WAL segments
//! from a primary supervisor to a pull-based replica, and promoting
//! the replica to live matcher when the primary is killed.
//!
//! Three pieces:
//!
//! * [`ReplicationStore`] — the primary-side artifact store. The
//!   supervisor publishes every committed [`WalEntry`] into a
//!   [`SegmentedWal`] and every checkpoint into a [`CheckpointChain`]
//!   (full anchors + `PSMD` deltas); the store garbage-collects WAL
//!   segments once a checkpoint covers them and serves everything
//!   through [`psm_telemetry::replicate::ReplicaSource`], so it plugs
//!   straight into the telemetry listener's `/replicate/*` endpoints.
//! * [`StandbyReplica`] — the standby-side pull loop. Each
//!   [`StandbyReplica::poll`] reads the manifest, (re-)bases itself on
//!   the checkpoint chain when behind or gapped, replays WAL segments
//!   to a warm sequential state, and reports replication lag (also as
//!   `replica.*` gauges). Because replay uses the same entry protocol
//!   as local recovery, the warm state is byte-identical to the
//!   primary's committed state at the applied frontier.
//! * [`FailoverPair`] — primary + standby behind one
//!   [`ops5::Matcher`]. Driven by [`FaultPlan::primary_kill`], it
//!   kills the primary at a planned cycle (that batch never reaches
//!   it), lets the standby catch up from the store, and promotes it —
//!   the fourth rung of the degradation ladder
//!   ([`crate::Tier::Promoted`]). The chaos suite asserts the promoted
//!   run equals a never-faulted run byte-for-byte.

use std::sync::{Arc, Mutex, MutexGuard};

use ops5::{Change, Error, MatchDelta, Matcher, Program, WmeId, WorkingMemory};
use psm_obs::Obs;
use psm_telemetry::client::Json;
use psm_telemetry::replicate::ReplicaSource;
use rete::Network;

use crate::checkpoint::Checkpoint;
use crate::delta::{ChainArtifact, CheckpointChain, DeltaCheckpoint};
use crate::plan::FaultPlan;
use crate::segment::{SegmentedWal, WalSegment};
use crate::supervisor::{Supervisor, SupervisorConfig, Tier, WarmState};
use crate::wal::WalEntry;

/// Sizing knobs for the primary-side artifact store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// WAL segment rotation bound, bytes of framed entries.
    pub max_segment_bytes: usize,
    /// Checkpoints between full-snapshot anchors (the rest ship as
    /// deltas).
    pub anchor_every: u64,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            max_segment_bytes: 16 * 1024,
            anchor_every: 8,
        }
    }
}

/// Cumulative artifact accounting, for reports and the size gates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Bytes of full-checkpoint (`PSMC`) artifacts stored.
    pub full_bytes: u64,
    /// Full-checkpoint artifacts stored.
    pub full_count: u64,
    /// Bytes of delta (`PSMD`) artifacts stored.
    pub delta_bytes: u64,
    /// Delta artifacts stored.
    pub delta_count: u64,
    /// Live WAL segments (sealed + open).
    pub segments: usize,
    /// Bytes across live WAL segments.
    pub wal_bytes: usize,
    /// WAL segments dropped by coverage GC.
    pub segments_gced: u64,
    /// Committed cycles published by the primary.
    pub primary_cycle: u64,
}

struct StoreInner {
    chain: Option<CheckpointChain>,
    wal: SegmentedWal,
    primary_cycle: u64,
}

/// The primary-side replication store. Thread-safe: the supervisor
/// publishes from the match loop while telemetry workers serve reads.
pub struct ReplicationStore {
    config: ReplicationConfig,
    inner: Mutex<StoreInner>,
}

impl std::fmt::Debug for ReplicationStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicationStore")
            .field("config", &self.config)
            .finish()
    }
}

impl ReplicationStore {
    /// An empty store.
    pub fn new(config: ReplicationConfig) -> Self {
        ReplicationStore {
            inner: Mutex::new(StoreInner {
                chain: None,
                wal: SegmentedWal::new(config.max_segment_bytes),
                primary_cycle: 0,
            }),
            config,
        }
    }

    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        // A panic while publishing leaves consistent-enough state for
        // read-only standbys; don't cascade the poison.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publishes one committed batch (called by the supervisor for
    /// every entry it appends to its local WAL).
    pub fn publish_entry(&self, entry: &WalEntry) {
        let mut inner = self.lock();
        inner.wal.append(entry);
        inner.primary_cycle = inner.primary_cycle.max(entry.cycle + 1);
    }

    /// Publishes a checkpoint: pushes it onto the chain (anchor or
    /// delta per [`ReplicationConfig::anchor_every`]), seals the open
    /// WAL segment, and garbage-collects covered segments. Returns the
    /// stored artifact descriptor.
    pub fn publish_checkpoint(&self, cp: &Checkpoint) -> ChainArtifact {
        let anchor_every = self.config.anchor_every;
        let mut inner = self.lock();
        inner.primary_cycle = inner.primary_cycle.max(cp.cycle);
        let artifact = match &mut inner.chain {
            Some(chain) => chain.push(cp),
            None => {
                let chain = inner.chain.insert(CheckpointChain::new(cp, anchor_every));
                chain.artifacts()[0]
            }
        };
        inner.wal.seal();
        inner.wal.gc_covered(cp.cycle);
        artifact
    }

    /// The stored artifact `id` as the chain holds it; the lock is
    /// released on return.
    fn shared_checkpoint(&self, id: u64) -> Option<Arc<Vec<u8>>> {
        self.lock().chain.as_ref()?.artifact(id)
    }

    /// Artifact accounting so far.
    pub fn stats(&self) -> ReplicationStats {
        let inner = self.lock();
        let (full_bytes, full_count, delta_bytes, delta_count) = match &inner.chain {
            Some(chain) => {
                let (fb, fc) = chain.full_stats();
                let (db, dc) = chain.delta_stats();
                (fb, fc, db, dc)
            }
            None => (0, 0, 0, 0),
        };
        ReplicationStats {
            full_bytes,
            full_count,
            delta_bytes,
            delta_count,
            segments: inner.wal.segments(),
            wal_bytes: inner.wal.total_bytes(),
            segments_gced: inner.wal.gc_dropped(),
            primary_cycle: inner.primary_cycle,
        }
    }
}

impl ReplicaSource for ReplicationStore {
    fn manifest(&self) -> Option<String> {
        let inner = self.lock();
        let chain = inner.chain.as_ref()?;
        let mut out = String::with_capacity(512);
        out.push_str("{\"primary_cycle\":");
        out.push_str(&inner.primary_cycle.to_string());
        out.push_str(",\"checkpoints\":[");
        for (i, a) in chain.artifacts().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":");
            out.push_str(&a.cycle.to_string());
            out.push_str(",\"parent\":");
            match a.parent {
                Some(p) => out.push_str(&p.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(",\"bytes\":");
            out.push_str(&a.bytes.to_string());
            out.push_str(",\"crc\":");
            out.push_str(&a.crc.to_string());
            out.push('}');
        }
        out.push_str("],\"segments\":[");
        for (i, m) in inner.wal.manifest().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"seq\":");
            out.push_str(&m.seq.to_string());
            out.push_str(",\"first_cycle\":");
            out.push_str(&m.first_cycle.to_string());
            out.push_str(",\"last_cycle\":");
            out.push_str(&m.last_cycle.to_string());
            out.push_str(",\"entries\":");
            out.push_str(&m.entries.to_string());
            out.push_str(",\"bytes\":");
            out.push_str(&m.bytes.to_string());
            out.push_str(",\"crc\":");
            out.push_str(&m.crc.to_string());
            out.push_str(",\"open\":");
            out.push_str(if m.open { "true" } else { "false" });
            out.push('}');
        }
        out.push_str("]}");
        Some(out)
    }

    fn checkpoint(&self, id: u64) -> Option<Vec<u8>> {
        // An anchor is hundreds of kilobytes: copied with the lock
        // released, so that the matching thread can publish meanwhile.
        let shared = self.shared_checkpoint(id)?;
        Some(shared.to_vec())
    }

    fn wal_segment(&self, seq: u64) -> Option<Vec<u8>> {
        self.lock().wal.segment_bytes(seq)
    }
}

/// One poll's outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Next cycle the replica would apply (everything below is warm).
    pub applied_cycle: u64,
    /// The primary's committed frontier per the manifest.
    pub primary_cycle: u64,
    /// `primary_cycle - applied_cycle`.
    pub lag: u64,
    /// True when this poll re-based from the checkpoint chain.
    pub rebased: bool,
}

/// A pull-based warm standby. See the module docs for the protocol.
pub struct StandbyReplica {
    program: Program,
    network: Arc<Network>,
    source: Arc<dyn ReplicaSource>,
    obs: Option<Arc<Obs>>,
    state: Option<WarmState>,
    applied_cycle: u64,
    base_checkpoint: u64,
    polls: u64,
    rebases: u64,
    segments_fetched: u64,
    bytes_fetched: u64,
    lag: u64,
}

impl std::fmt::Debug for StandbyReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StandbyReplica")
            .field("applied_cycle", &self.applied_cycle)
            .field("lag", &self.lag)
            .field("polls", &self.polls)
            .finish()
    }
}

impl StandbyReplica {
    /// A cold standby reading from `source`. `network` must be the
    /// primary's compiled network (same program), or restored
    /// checkpoints will not fit.
    pub fn new(program: &Program, network: Arc<Network>, source: Arc<dyn ReplicaSource>) -> Self {
        StandbyReplica {
            program: program.clone(),
            network,
            source,
            obs: None,
            state: None,
            applied_cycle: 0,
            base_checkpoint: 0,
            polls: 0,
            rebases: 0,
            segments_fetched: 0,
            bytes_fetched: 0,
            lag: 0,
        }
    }

    /// Attaches an observability handle; poll outcomes publish
    /// `replica.*` gauges.
    pub fn attach_obs(&mut self, obs: Arc<Obs>) {
        self.obs = Some(obs);
    }

    /// Replication lag (cycles) as of the last poll.
    pub fn lag(&self) -> u64 {
        self.lag
    }

    /// Next cycle the replica would apply.
    pub fn applied_cycle(&self) -> u64 {
        self.applied_cycle
    }

    /// Polls performed.
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// Chain re-bases performed (initial base included).
    pub fn rebases(&self) -> u64 {
        self.rebases
    }

    /// Fetches the manifest's checkpoint chain and restores it to a
    /// warm state. Returns `false` when any artifact is missing or
    /// invalid (the next poll retries).
    fn rebase(&mut self, manifest: &Json) -> bool {
        let rows = manifest
            .get("checkpoints")
            .map(Json::items)
            .unwrap_or_default();
        let mut cp: Option<Checkpoint> = None;
        for row in rows {
            let Some(id) = row.get("id").and_then(Json::as_u64) else {
                return false;
            };
            let Some(bytes) = self.source.checkpoint(id) else {
                return false;
            };
            self.bytes_fetched += bytes.len() as u64;
            let is_full = matches!(row.get("parent"), Some(Json::Null) | None);
            cp = if is_full {
                Checkpoint::from_bytes(&bytes).ok()
            } else {
                let Some(parent) = cp else { return false };
                DeltaCheckpoint::from_bytes(&bytes)
                    .ok()
                    .and_then(|d| d.apply(&parent).ok())
            };
            if cp.is_none() {
                return false;
            }
        }
        let Some(cp) = cp else { return false };
        let Ok(state) = WarmState::restore(self.network.clone(), &cp) else {
            return false;
        };
        self.state = Some(state);
        self.applied_cycle = cp.cycle;
        self.base_checkpoint = cp.cycle;
        self.rebases += 1;
        true
    }

    /// One pull round: manifest → (re-)base if needed → segment
    /// replay. Returns `None` when the source is unreachable or the
    /// manifest is unparseable; partial progress is kept either way.
    pub fn poll(&mut self) -> Option<ReplicaStatus> {
        self.polls += 1;
        let manifest_raw = self.source.manifest()?;
        let manifest = Json::parse(&manifest_raw)?;
        let primary_cycle = manifest.get("primary_cycle")?.as_u64()?;

        // (Re-)base from the checkpoint chain when cold, or when GC
        // dropped segments we still need: either the oldest surviving
        // entry starts past our frontier, or no segments survive at all
        // and the chain tip is ahead of us (the last checkpoint covered
        // the whole log). Coverage GC only ever drops a prefix of the
        // cycle stream, so surviving segments are contiguous and the
        // rebase target is always at or past the applied frontier.
        let segments = manifest
            .get("segments")
            .map(Json::items)
            .unwrap_or_default();
        let oldest = segments
            .iter()
            .filter(|s| s.get("entries").and_then(Json::as_u64).unwrap_or(0) > 0)
            .filter_map(|s| s.get("first_cycle").and_then(Json::as_u64))
            .min();
        let tip_checkpoint = manifest
            .get("checkpoints")
            .map(Json::items)
            .unwrap_or_default()
            .last()
            .and_then(|c| c.get("id"))
            .and_then(Json::as_u64);
        let gapped = match oldest {
            Some(first) => first > self.applied_cycle,
            None => tip_checkpoint.is_some_and(|tip| tip > self.applied_cycle),
        };
        let mut rebased = false;
        if self.state.is_none() || gapped {
            rebased = self.rebase(&manifest);
            self.state.as_ref()?;
        }

        // Replay every segment that can extend the frontier.
        if let Some(state) = &mut self.state {
            for seg in segments {
                let last = seg.get("last_cycle").and_then(Json::as_u64).unwrap_or(0);
                let entries = seg.get("entries").and_then(Json::as_u64).unwrap_or(0);
                if entries == 0 || last < self.applied_cycle {
                    continue;
                }
                let Some(seq) = seg.get("seq").and_then(Json::as_u64) else {
                    continue;
                };
                let Some(bytes) = self.source.wal_segment(seq) else {
                    continue;
                };
                self.segments_fetched += 1;
                self.bytes_fetched += bytes.len() as u64;
                let Ok((segment, _)) = WalSegment::from_bytes_lossy(&bytes) else {
                    continue;
                };
                for entry in &segment.entries {
                    if entry.cycle < self.applied_cycle {
                        continue;
                    }
                    if entry.cycle > self.applied_cycle {
                        break; // gap inside a torn segment; retry later
                    }
                    state.replay(entry);
                    self.applied_cycle = entry.cycle + 1;
                }
            }
        }

        self.lag = primary_cycle.saturating_sub(self.applied_cycle);
        if let Some(obs) = &self.obs {
            obs.metrics.gauge("replica.lag").set(self.lag as i64);
            obs.metrics
                .gauge("replica.applied_cycle")
                .set(self.applied_cycle as i64);
            obs.metrics.gauge("replica.polls").set(self.polls as i64);
            obs.metrics
                .gauge("replica.segments_fetched")
                .set(self.segments_fetched as i64);
            obs.metrics
                .gauge("replica.bytes_fetched")
                .set(self.bytes_fetched as i64);
            obs.metrics
                .gauge("replica.rebases")
                .set(self.rebases as i64);
        }
        Some(ReplicaStatus {
            applied_cycle: self.applied_cycle,
            primary_cycle,
            lag: self.lag,
            rebased,
        })
    }

    /// Promotes the warm state to a live supervised matcher at
    /// [`Tier::Promoted`]. The standby should be caught up first
    /// ([`StandbyReplica::poll`] until [`StandbyReplica::lag`] is 0);
    /// any remaining lag is lost work, exactly like the paper's §6
    /// fail-stop model.
    ///
    /// # Errors
    ///
    /// [`ops5::Error`] when the standby never warmed (no successful
    /// poll), in which case promotion has nothing to promote.
    pub fn promote(mut self, config: SupervisorConfig) -> Result<Supervisor, Error> {
        let state = self
            .state
            .take()
            .ok_or_else(|| Error::runtime("standby replica has no warm state to promote"))?;
        if let Some(obs) = &self.obs {
            obs.metrics.counter("replica.promotions").inc();
        }
        let mut sup = Supervisor::from_warm(
            &self.program,
            self.network.clone(),
            config,
            state,
            self.applied_cycle,
        );
        if let Some(obs) = self.obs {
            sup.attach_obs(obs);
        }
        Ok(sup)
    }
}

/// Counters describing one failover run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailoverReport {
    /// The supervised cycle at which the primary was killed and the
    /// standby promoted.
    pub promoted_at: Option<u64>,
    /// Replication lag at promotion time, after the final catch-up
    /// poll (cycles of lost work; 0 when the store was fully shipped).
    pub lag_at_promotion: u64,
    /// Standby polls performed (background + catch-up).
    pub polls: u64,
    /// Chain re-bases the standby performed.
    pub rebases: u64,
}

/// A primary supervisor and a warm standby behind one [`Matcher`],
/// with promotion driven by [`FaultPlan::primary_kill`].
pub struct FailoverPair {
    primary: Option<Supervisor>,
    standby: Option<StandbyReplica>,
    promoted: Option<Supervisor>,
    store: Arc<ReplicationStore>,
    config: SupervisorConfig,
    kill_at: Option<u64>,
    poll_every: u64,
    cycle: u64,
    report: FailoverReport,
}

impl std::fmt::Debug for FailoverPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailoverPair")
            .field("cycle", &self.cycle)
            .field("kill_at", &self.kill_at)
            .field("promoted", &self.promoted.is_some())
            .finish()
    }
}

impl FailoverPair {
    /// A pair with an in-memory store shared directly between primary
    /// and standby. The plan's engine/cycle faults apply to the
    /// primary as usual; [`FaultPlan::primary_kill`] schedules the
    /// failover.
    ///
    /// # Errors
    ///
    /// Propagates program compilation failures.
    pub fn new(
        program: &Program,
        config: SupervisorConfig,
        replication: ReplicationConfig,
        plan: Option<Arc<FaultPlan>>,
    ) -> Result<Self, Error> {
        let store = Arc::new(ReplicationStore::new(replication));
        let source: Arc<dyn ReplicaSource> = store.clone();
        Self::with_source(program, config, plan, store, source)
    }

    /// A pair whose standby pulls through `source` (e.g. an
    /// [`psm_telemetry::replicate::HttpReplicaSource`] pointed at a
    /// listener serving `store`), while the primary publishes into
    /// `store`. This is how the smoke job exercises the real HTTP
    /// plane.
    ///
    /// # Errors
    ///
    /// Propagates program compilation failures.
    pub fn with_source(
        program: &Program,
        config: SupervisorConfig,
        plan: Option<Arc<FaultPlan>>,
        store: Arc<ReplicationStore>,
        source: Arc<dyn ReplicaSource>,
    ) -> Result<Self, Error> {
        let mut primary = Supervisor::new(program, config)?;
        let kill_at = plan.as_ref().and_then(|p| p.primary_kill);
        primary.set_fault_plan(plan);
        primary.attach_replication(store.clone());
        let standby = StandbyReplica::new(program, primary.network().clone(), source);
        Ok(FailoverPair {
            primary: Some(primary),
            standby: Some(standby),
            promoted: None,
            store,
            config,
            kill_at,
            poll_every: 4,
            cycle: 0,
            report: FailoverReport::default(),
        })
    }

    /// Sets how many supervised cycles pass between background standby
    /// polls (default 4).
    pub fn set_poll_every(&mut self, every: u64) {
        self.poll_every = every.max(1);
    }

    /// Attaches observability to the primary and the standby
    /// (`fault.*`, `engine.*`, `replica.*`).
    pub fn attach_obs(&mut self, obs: Arc<Obs>) {
        if let Some(p) = &mut self.primary {
            p.attach_obs(obs.clone());
        }
        if let Some(s) = &mut self.standby {
            s.attach_obs(obs);
        }
    }

    /// The shared artifact store (for stats and for serving over
    /// HTTP).
    pub fn store(&self) -> &Arc<ReplicationStore> {
        &self.store
    }

    /// The failover counters so far.
    pub fn report(&self) -> FailoverReport {
        let mut r = self.report;
        if let Some(s) = &self.standby {
            r.polls = s.polls();
            r.rebases = s.rebases();
        }
        r
    }

    /// The live supervisor: the promoted standby once failover
    /// happened, the primary before.
    pub fn active(&mut self) -> &mut Supervisor {
        if let Some(p) = self.promoted.as_mut() {
            return p;
        }
        self.primary
            .as_mut()
            .expect("primary alive until promotion")
    }

    /// The live tier ([`Tier::Promoted`] after failover).
    pub fn tier(&self) -> Tier {
        match (&self.promoted, &self.primary) {
            (Some(p), _) => p.tier(),
            (None, Some(p)) => p.tier(),
            (None, None) => unreachable!("either primary or promoted is live"),
        }
    }

    fn kill_and_promote(&mut self, cycle: u64) {
        // The primary dies without processing this batch: drop it.
        // Everything it committed is already in the store.
        self.primary = None;
        let mut standby = self
            .standby
            .take()
            .expect("standby present until promotion");
        // Final catch-up: pull until the shipped frontier is drained
        // (a couple of retries absorb transient transport hiccups).
        let mut status = None;
        for _ in 0..3 {
            status = standby.poll();
            if status.is_some_and(|s| s.lag == 0) {
                break;
            }
        }
        self.report.polls = standby.polls();
        self.report.rebases = standby.rebases();
        self.report.lag_at_promotion = status.map_or(u64::MAX, |s| s.lag);
        self.report.promoted_at = Some(cycle);
        let promoted = standby
            .promote(self.config)
            .expect("standby warmed by catch-up poll");
        self.promoted = Some(promoted);
    }

    fn failover_process(&mut self, wm: &WorkingMemory, changes: &[Change]) -> MatchDelta {
        let cycle = self.cycle;
        self.cycle += 1;
        if self.promoted.is_none() && self.kill_at == Some(cycle) {
            self.kill_and_promote(cycle);
        }
        if self.promoted.is_none() {
            if let Some(s) = &mut self.standby {
                if cycle.is_multiple_of(self.poll_every) {
                    s.poll();
                }
            }
        }
        self.active().process(wm, changes)
    }
}

impl Matcher for FailoverPair {
    fn add_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
        self.failover_process(wm, &[Change::Add(id)])
    }

    fn remove_wme(&mut self, wm: &WorkingMemory, id: WmeId) -> MatchDelta {
        self.failover_process(wm, &[Change::Remove(id)])
    }

    fn process(&mut self, wm: &WorkingMemory, changes: &[Change]) -> MatchDelta {
        self.failover_process(wm, changes)
    }

    fn algorithm_name(&self) -> &'static str {
        "failover-pair"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rete::ReteSnapshot;

    /// `checkpoint` — a replica's `GET /replicate/checkpoint/<id>` — holds
    /// the artifact it copies, not the store: the matching thread
    /// publishes meanwhile, and the reader's bytes stay whole when that
    /// prunes the artifact from the chain.
    #[test]
    fn a_reader_holding_an_artifact_does_not_block_a_publish() {
        let store = ReplicationStore::new(ReplicationConfig {
            anchor_every: 1,
            ..ReplicationConfig::default()
        });
        let genesis = Checkpoint::genesis(ReteSnapshot::from_bytes(vec![7; 4096]));
        store.publish_checkpoint(&genesis);
        let held = store.shared_checkpoint(0).expect("the anchor");
        assert!(store.inner.try_lock().is_ok(), "held without the lock");

        store.publish_entry(&WalEntry {
            cycle: 0,
            changes: Vec::new(),
        });
        let next = Checkpoint {
            cycle: 1,
            ..Checkpoint::genesis(ReteSnapshot::from_bytes(vec![9; 4096]))
        };
        assert!(store.publish_checkpoint(&next).is_full());
        assert_eq!(store.checkpoint(0), None, "re-anchored and pruned");
        assert_eq!(*held, genesis.to_bytes());
        assert_eq!(store.checkpoint(1), Some(next.to_bytes()));
    }
}
