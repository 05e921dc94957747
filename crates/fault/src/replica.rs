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
//!   An entry is in the store when `publish_entry` returns. A
//!   checkpoint is *handed* to the store as a [`Draft`] when
//!   `publish_draft` returns — the segment boundary it draws is in place
//!   — and written out (its `PSMC` image assembled from the tip's) and
//!   pushed onto the chain (CRC-32, diff against the tip, `PSMD`) by one
//!   publisher thread the store owns, so that the matching thread's
//!   checkpoint cycle pays for neither; segments are collected after
//!   the push, at most one checkpoint is in flight, and every read
//!   waits for it, so no reader can tell.
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

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ops5::{Change, Error, MatchDelta, Matcher, Program, WmeId, WorkingMemory};
use psm_obs::Obs;
use psm_telemetry::client::Json;
use psm_telemetry::replicate::ReplicaSource;
use rete::Network;

use crate::checkpoint::{Checkpoint, CheckpointImage, Draft, Updates};
use crate::delta::{replay, CheckpointChain};
use crate::placement;
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
    /// Checkpoint publishes that found the one before them still being
    /// pushed and waited for it.
    pub publish_waits: u64,
    /// How long those publishes waited in all — time the publishing
    /// (matching) thread stood still — in nanoseconds.
    pub publish_wait_ns: u64,
    /// How long the publisher spent writing the `PSMC` images of the
    /// drafts it was handed, in nanoseconds, summed, timed on its own
    /// thread.
    pub publisher_write_ns: u64,
    /// How long it spent pushing them onto the chain (CRC, diff, `PSMD`)
    /// and collecting the segments they cover, the same way.
    pub publisher_push_ns: u64,
}

/// The shipped WAL and the committed frontier: what
/// [`ReplicationStore::publish_entry`] moves.
struct Log {
    wal: SegmentedWal,
    primary_cycle: u64,
}

/// A checkpoint on its way to the chain, as the thread that took it
/// drafted it.
struct Job {
    draft: Draft,
    /// The core the hand-off was made on, for the publisher to stay off
    /// (see [`crate::placement`]).
    core: Option<usize>,
}

/// Where the one checkpoint that may be in flight is.
enum Push {
    /// Nowhere: every checkpoint published is in the chain.
    Idle,
    /// Handed over, not yet taken up by the publisher.
    Handed(Box<Job>),
    /// Being pushed.
    Running,
    /// A push panicked, with this payload until a caller has been
    /// failed with it. The publisher is gone and the chain has stopped
    /// growing, so every later call fails too.
    Died(Option<Box<dyn Any + Send>>),
}

/// What the publisher and its callers tell each other, under one lock
/// and [`Shared::turn`].
struct Handoff {
    push: Push,
    /// The store is being dropped: the publisher leaves once nothing is
    /// handed to it.
    closing: bool,
    /// [`ReplicationStats::publish_waits`] and
    /// [`ReplicationStats::publish_wait_ns`].
    waits: u64,
    wait_ns: u64,
    /// [`ReplicationStats::publisher_write_ns`] and
    /// [`ReplicationStats::publisher_push_ns`].
    write_ns: u64,
    push_ns: u64,
    /// The updates of the last draft written, for the publishing thread
    /// to reuse.
    spare: Option<Updates>,
}

/// The chain and the image it was last pushed, which the next draft is
/// written from.
struct Chained {
    chain: CheckpointChain,
    last: CheckpointImage,
}

/// The store's state, shared with its publisher thread. Lock order:
/// `chain`, then `log`; `handoff` is held with neither.
struct Shared {
    config: ReplicationConfig,
    log: Mutex<Log>,
    /// Behind its own lock, which the publisher holds for the whole of a
    /// push: `publish_entry` takes `log` alone and never waits for one.
    chain: Mutex<Option<Chained>>,
    handoff: Mutex<Handoff>,
    /// Notified on every change of `handoff`.
    turn: Condvar,
}

impl Shared {
    /// A poisoned `chain` or `log` means a publish panicked half-way
    /// through an update, and there is no telling what a standby would
    /// read: the failure is passed on, not papered over.
    fn log(&self) -> MutexGuard<'_, Log> {
        self.log.lock().expect("a publish panicked inside the log")
    }

    fn chain(&self) -> MutexGuard<'_, Option<Chained>> {
        (self.chain.lock()).expect("a checkpoint push panicked inside the chain")
    }

    /// Every update of a `Handoff` is one assignment, so it is whole
    /// whoever panicked while holding it.
    fn handoff(&self) -> MutexGuard<'_, Handoff> {
        self.handoff.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until no checkpoint is in flight.
    ///
    /// # Panics
    ///
    /// With the payload of the push that killed the publisher, on the
    /// first call after it; with a message saying so on every later one.
    fn idle(&self) -> MutexGuard<'_, Handoff> {
        let mut handoff = self.handoff();
        loop {
            match &mut handoff.push {
                Push::Idle => return handoff,
                Push::Died(payload) => {
                    let payload = payload.take();
                    drop(handoff);
                    match payload {
                        Some(payload) => resume_unwind(payload),
                        None => {
                            panic!("the replication publisher died: a checkpoint push panicked")
                        }
                    }
                }
                Push::Handed(_) | Push::Running => {
                    handoff = (self.turn.wait(handoff)).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// The publisher thread: pushes what it is handed, one checkpoint at
    /// a time, until the store closes or a push panics.
    fn publish(&self) {
        loop {
            let mut handoff = self.handoff();
            let job = loop {
                match std::mem::replace(&mut handoff.push, Push::Running) {
                    Push::Handed(job) => break job,
                    waiting => handoff.push = waiting,
                }
                if handoff.closing {
                    return;
                }
                handoff = (self.turn.wait(handoff)).unwrap_or_else(PoisonError::into_inner);
            };
            drop(handoff);
            let outcome = catch_unwind(AssertUnwindSafe(|| self.push(*job)));
            let died = outcome.is_err();
            let mut handoff = self.handoff();
            handoff.push = match outcome {
                Ok((spare, [write, push])) => {
                    handoff.spare = Some(spare);
                    handoff.write_ns += write.as_nanos() as u64;
                    handoff.push_ns += push.as_nanos() as u64;
                    Push::Idle
                }
                Err(payload) => Push::Died(Some(payload)),
            };
            drop(handoff);
            self.turn.notify_all();
            if died {
                return;
            }
        }
    }

    /// One push: the draft is written out from the image pushed before
    /// it and appended to the chain. Returns the draft's updates, to be
    /// reused, and how long the writing and the append took.
    fn push(&self, Job { draft, core }: Job) -> (Updates, [Duration; 2]) {
        if let Some(core) = core {
            placement::leave_core(core);
        }
        let mut chained = self.chain();
        let started = Instant::now();
        let (written, spare) = draft.write(chained.as_mut().map(|c| &mut c.last));
        let wrote = started.elapsed();
        self.append(&mut chained, written);
        (spare, [wrote, started.elapsed() - wrote])
    }

    /// Makes `written` the chain's next image — an anchor or a delta per
    /// [`ReplicationConfig::anchor_every`], the anchor on a store that
    /// has none — and only then drops the segments it covers, so the
    /// chain a reader finds and the segments beside it always reach the
    /// committed frontier.
    fn append(&self, chained: &mut Option<Chained>, mut written: CheckpointImage) {
        let cycle = written.cycle();
        match chained {
            Some(Chained { chain, last }) => {
                chain.push_image(&mut written);
                *last = written;
            }
            None => {
                let chain = CheckpointChain::anchored(&written, self.config.anchor_every);
                *chained = Some(Chained {
                    chain,
                    last: written,
                });
            }
        }
        self.log().wal.gc_covered(cycle);
    }

    /// Draws the segment boundary of a checkpoint covering `cycle` and
    /// waits until none is in flight: the first half of every publish.
    /// Returns the lock and how long it waited, counted.
    fn seal(&self, cycle: u64) -> (MutexGuard<'_, Handoff>, Duration) {
        {
            let mut log = self.log();
            log.primary_cycle = log.primary_cycle.max(cycle);
            log.wal.seal();
        }
        let handoff = self.handoff();
        if matches!(handoff.push, Push::Idle) {
            return (handoff, Duration::ZERO);
        }
        drop(handoff);
        let started = Instant::now();
        let mut handoff = self.idle();
        let waited = started.elapsed();
        handoff.waits += 1;
        handoff.wait_ns += waited.as_nanos() as u64;
        (handoff, waited)
    }
}

/// The primary-side replication store. Thread-safe: the supervisor
/// publishes from the match loop while telemetry workers serve reads.
///
/// A checkpoint is written out and pushed onto the chain — its `PSMC`
/// image written from the tip's, checksummed, diffed against the tip,
/// encoded as `PSMD` — by a publisher thread the store owns, not by the
/// thread that publishes it; see [`ReplicationStore::publish_draft`].
pub struct ReplicationStore {
    shared: Arc<Shared>,
    /// `Some` until the store is dropped.
    publisher: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ReplicationStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicationStore")
            .field("config", &self.shared.config)
            .finish()
    }
}

impl ReplicationStore {
    /// An empty store, its publisher waiting.
    pub fn new(config: ReplicationConfig) -> Self {
        let shared = Arc::new(Shared {
            config,
            log: Mutex::new(Log {
                wal: SegmentedWal::new(config.max_segment_bytes),
                primary_cycle: 0,
            }),
            chain: Mutex::new(None),
            handoff: Mutex::new(Handoff {
                push: Push::Idle,
                closing: false,
                waits: 0,
                wait_ns: 0,
                write_ns: 0,
                push_ns: 0,
                spare: None,
            }),
            turn: Condvar::new(),
        });
        let publisher = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("psm-checkpoint-publisher".into())
                .spawn(move || shared.publish())
                .expect("spawn the checkpoint publisher thread")
        };
        ReplicationStore {
            shared,
            publisher: Some(publisher),
        }
    }

    /// Publishes one committed batch (called by the supervisor for
    /// every entry it appends to its local WAL).
    pub fn publish_entry(&self, entry: &WalEntry) {
        let mut log = self.shared.log();
        log.wal.append(entry);
        log.primary_cycle = log.primary_cycle.max(entry.cycle + 1);
    }

    /// Publishes a checkpoint, drafted — the one way a checkpoint reaches
    /// a store. On the calling thread, what must stay in order with
    /// [`ReplicationStore::publish_entry`] — the frontier advances and the
    /// open WAL segment is sealed — and the draft is handed over; the
    /// publisher thread writes its `PSMC` image into the buffer the draft
    /// brought (each part from its counterpart in the image pushed last,
    /// see [`Draft::write`]), pushes it onto the chain and
    /// collects the segments it covers, timing the writing and the push
    /// ([`ReplicationStats::publisher_write_ns`],
    /// [`ReplicationStats::publisher_push_ns`]). The draft's buffers were
    /// allocated by the calling thread, so they live on its heap, where
    /// they are freed when the chain retires them.
    ///
    /// One checkpoint may be in flight. A publish that finds the one
    /// before it still being pushed waits for it — a bounded lag, not a
    /// queue — and returns how long it waited, with the updates of the
    /// draft before, written out and free to be reused; every read
    /// waits the same way, so a read that starts after this call
    /// returned finds the checkpoint in the chain.
    ///
    /// # Panics
    ///
    /// When an earlier push panicked, with that push's payload (see
    /// [`ReplicationStore::stats`] for the reads).
    pub fn publish_draft(&self, draft: Draft) -> (Duration, Option<Updates>) {
        let (mut handoff, waited) = self.shared.seal(draft.cycle());
        let core = placement::current_core();
        let spare = handoff.spare.take();
        handoff.push = Push::Handed(Box::new(Job { draft, core }));
        drop(handoff);
        self.shared.turn.notify_all();
        (waited, spare)
    }

    /// Makes `written` — an image its publisher wrote itself, with no
    /// store attached — the chain's next image: its anchor on a store
    /// that has none. Written on the calling thread, as a publish that
    /// waited returns. Returns how long it waited.
    pub(crate) fn publish_image(&self, written: CheckpointImage) -> Duration {
        let (handoff, waited) = self.shared.seal(written.cycle());
        drop(handoff);
        self.shared.append(&mut self.shared.chain(), written);
        waited
    }

    /// The image pushed last, once the checkpoint in flight (if any) is
    /// in the chain.
    ///
    /// # Panics
    ///
    /// When nothing was published, and as [`ReplicationStore::stats`].
    pub(crate) fn last_image(&self) -> CheckpointImage {
        drop(self.shared.idle());
        let chained = self.shared.chain();
        chained
            .as_ref()
            .expect("a checkpoint was published")
            .last
            .clone()
    }

    /// [`CheckpointImage::checkpoint`] of the image pushed last, once
    /// the checkpoint in flight (if any) is in the chain.
    ///
    /// # Panics
    ///
    /// As [`ReplicationStore::last_image`].
    pub(crate) fn last_checkpoint(&self) -> Checkpoint {
        drop(self.shared.idle());
        let chained = self.shared.chain();
        chained
            .as_ref()
            .expect("a checkpoint was published")
            .last
            .checkpoint()
    }

    /// The stored artifact `id` as the chain holds it; the lock is
    /// released on return.
    fn shared_checkpoint(&self, id: u64) -> Option<Arc<Vec<u8>>> {
        drop(self.shared.idle());
        self.shared.chain().as_ref()?.chain.artifact(id)
    }

    /// Artifact accounting so far, once the checkpoint in flight (if
    /// any) is in the chain.
    ///
    /// # Panics
    ///
    /// This and every other read — [`ReplicaSource::manifest`],
    /// [`ReplicaSource::checkpoint`], [`ReplicaSource::wal_segment`] —
    /// when a push panicked: with its payload if no call has been failed
    /// with it yet. A chain that has stopped growing is never served as
    /// if it had not.
    pub fn stats(&self) -> ReplicationStats {
        let handed = {
            let handoff = self.shared.idle();
            ReplicationStats {
                publish_waits: handoff.waits,
                publish_wait_ns: handoff.wait_ns,
                publisher_write_ns: handoff.write_ns,
                publisher_push_ns: handoff.push_ns,
                ..ReplicationStats::default()
            }
        };
        let chained = self.shared.chain();
        let log = self.shared.log();
        let (full_bytes, full_count, delta_bytes, delta_count) = match &*chained {
            Some(Chained { chain, .. }) => {
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
            segments: log.wal.segments(),
            wal_bytes: log.wal.total_bytes(),
            segments_gced: log.wal.gc_dropped(),
            primary_cycle: log.primary_cycle,
            ..handed
        }
    }
}

impl Drop for ReplicationStore {
    /// Lets the publisher finish the checkpoint it was handed, then
    /// joins it.
    fn drop(&mut self) {
        self.shared.handoff().closing = true;
        self.shared.turn.notify_all();
        if let Some(publisher) = self.publisher.take() {
            // The thread catches a push's panic itself and reports it
            // through `Push::Died`; there is nothing to re-raise here,
            // and a `Drop` may not panic.
            let _ = publisher.join();
        }
    }
}

impl ReplicaSource for ReplicationStore {
    fn manifest(&self) -> Option<String> {
        drop(self.shared.idle());
        let chained = self.shared.chain();
        let log = self.shared.log();
        let chain = &chained.as_ref()?.chain;
        let mut out = String::with_capacity(512);
        out.push_str("{\"primary_cycle\":");
        out.push_str(&log.primary_cycle.to_string());
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
        for (i, m) in log.wal.manifest().iter().enumerate() {
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
        // released, so that the publisher can push meanwhile.
        let shared = self.shared_checkpoint(id)?;
        Some(shared.to_vec())
    }

    fn wal_segment(&self, seq: u64) -> Option<Vec<u8>> {
        drop(self.shared.idle());
        self.shared.log().wal.segment_bytes(seq)
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

    /// Fetches the manifest's checkpoint chain, replays it on its images
    /// as [`CheckpointChain::restore_tip`] does — each delta applied to
    /// the image before, one decode at the end — and restores the result
    /// to a warm state. Returns `false` when any artifact is missing or
    /// invalid (the next poll retries).
    fn rebase(&mut self, manifest: &Json) -> bool {
        let rows = manifest
            .get("checkpoints")
            .map(Json::items)
            .unwrap_or_default();
        let (mut anchor, mut deltas) = (None, Vec::new());
        for row in rows {
            let Some(id) = row.get("id").and_then(Json::as_u64) else {
                return false;
            };
            let Some(bytes) = self.source.checkpoint(id) else {
                return false;
            };
            self.bytes_fetched += bytes.len() as u64;
            if matches!(row.get("parent"), Some(Json::Null) | None) {
                anchor = Some((id, bytes));
                deltas.clear();
            } else if anchor.is_some() {
                deltas.push(bytes);
            } else {
                return false;
            }
        }
        let Some((cycle, anchor)) = anchor else {
            return false;
        };
        let Ok(cp) = replay(cycle, &anchor, deltas.iter().map(|bytes| &bytes[..])) else {
            return false;
        };
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
    use rete::ReteMatcher;

    /// A draft of a checkpoint covering `cycle` cycles — a fresh tiny
    /// matcher's first update and a working memory's, both whole, the
    /// working memory of 64 WMEs of `fill`, about 2 KiB — and the `PSMC`
    /// image it is written as.
    fn draft(cycle: u64, fill: u8) -> (Draft, Vec<u8>) {
        let program = ops5::parse_program("(p r (a ^x <v>) --> (halt))").unwrap();
        let matcher = ReteMatcher::compile(&program).unwrap();
        let mut wm = WorkingMemory::new();
        for _ in 0..64 {
            let (a, x) = (ops5::SymbolId::from_index(0), ops5::SymbolId::from_index(1));
            wm.add(ops5::Wme::new(
                a,
                vec![(x, ops5::Value::Int(i64::from(fill)))],
            ));
        }
        let mut updates = Updates::default();
        matcher.encode_changes(&mut updates.rete);
        wm.encode_changes(&mut ops5::WmMarks::default(), &mut updates.wm);
        let conflict = std::collections::BTreeSet::new();
        (crate::ConflictMarks::default()).take(&conflict, &mut updates.conflict);
        let cp = Checkpoint {
            cycle,
            wm: wm.snapshot_bytes(),
            rete: matcher.snapshot(),
            conflict: Checkpoint::encode_conflict(&[]),
        };
        (Draft::new(cycle, updates), cp.to_bytes())
    }

    /// `checkpoint` — a replica's `GET /replicate/checkpoint/<id>` — holds
    /// the artifact it copies, not the store: the publisher pushes
    /// meanwhile, and the reader's bytes stay whole when that prunes the
    /// artifact from the chain.
    #[test]
    fn a_reader_holding_an_artifact_does_not_block_a_publish() {
        let store = ReplicationStore::new(ReplicationConfig {
            anchor_every: 1,
            ..ReplicationConfig::default()
        });
        let (genesis, genesis_image) = draft(0, 7);
        store.publish_draft(genesis);
        let held = store.shared_checkpoint(0).expect("the anchor");
        assert!(
            store.shared.chain.try_lock().is_ok(),
            "held without the lock"
        );

        store.publish_entry(&WalEntry {
            cycle: 0,
            changes: Vec::new(),
        });
        let (next, next_image) = draft(1, 9);
        store.publish_draft(next);
        assert_eq!(
            store.stats().full_count,
            2,
            "the second one is an anchor too"
        );
        assert_eq!(store.checkpoint(0), None, "re-anchored and pruned");
        assert_eq!(*held, genesis_image);
        assert_eq!(store.checkpoint(1), Some(next_image));
    }

    /// A push that panics — here the chain refusing a checkpoint that is
    /// not newer than its tip — kills the publisher, and the store says
    /// so: the next call, publish or read, panics on the calling thread
    /// with the push's own payload, every call after it with a message
    /// that names the cause, and dropping the store still returns.
    #[test]
    fn a_push_that_panics_fails_the_next_call_with_its_payload() {
        let message = |panic: Box<dyn Any + Send>| match panic.downcast::<String>() {
            Ok(formatted) => *formatted,
            Err(panic) => String::from(*panic.downcast::<&str>().expect("a literal")),
        };
        for read in [false, true] {
            let store = ReplicationStore::new(ReplicationConfig::default());
            store.publish_draft(draft(8, 1).0);
            assert_eq!(store.stats().full_count, 1);
            store.publish_draft(draft(8, 2).0);
            let next = catch_unwind(AssertUnwindSafe(|| match read {
                true => drop(store.manifest()),
                false => drop(store.publish_draft(draft(16, 3).0)),
            }));
            assert_eq!(
                message(next.expect_err("the push's panic resurfaces")),
                "checkpoint 8 pushed onto a chain whose tip is 8",
                "read: {read}"
            );
            let stats = catch_unwind(AssertUnwindSafe(|| store.stats()));
            let later = message(stats.expect_err("and the store stays failed"));
            assert!(later.contains("publisher died"), "{later}");
            let publish = || store.publish_draft(draft(24, 4).0);
            assert!(catch_unwind(AssertUnwindSafe(publish)).is_err());
            drop(store);
        }
    }

    /// Back-pressure is counted: a publish that finds the checkpoint
    /// before it in flight waits for it, and the store says how often
    /// and for how long — and how long its publisher wrote and pushed.
    /// The chain's lock stands in for a slow push.
    #[test]
    fn a_publish_behind_one_in_flight_waits_and_is_counted() {
        let store = ReplicationStore::new(ReplicationConfig::default());
        assert_eq!(store.publish_draft(draft(0, 1).0).0, Duration::ZERO);
        assert_eq!(store.stats().publish_waits, 0);

        let chain = store.shared.chain();
        store.publish_draft(draft(8, 2).0);
        thread::scope(|scope| {
            let third = scope.spawn(|| store.publish_draft(draft(16, 3).0).0);
            // The second checkpoint cannot be pushed while this thread
            // holds the chain, so the third is waiting — or about to —
            // whenever the lock is let go.
            thread::sleep(Duration::from_millis(20));
            drop(chain);
            let waited = third.join().expect("publishes");
            let stats = store.stats();
            assert_eq!(stats.publish_waits, 1);
            assert_eq!(stats.publish_wait_ns, waited.as_nanos() as u64);
            assert!(waited > Duration::ZERO);
            assert_eq!((stats.full_count, stats.delta_count), (1, 2));
            assert!(stats.publisher_write_ns > 0 && stats.publisher_push_ns > 0);
        });
    }
}
