//! The causal flight recorder: a bounded ring of provenance records
//! linking working-memory changes to the firings they caused.
//!
//! The paper's runtime questions — *why did this cycle stall?*, *why
//! did rule X fire?* — need the causal chain
//!
//! > WME change → node activations → token births/deaths →
//! > conflict-set insert → firing
//!
//! available **while the engine runs**, without stopping the matcher
//! or replaying a trace. The [`FlightRecorder`] keeps the most recent
//! `capacity` links of that chain in a fixed-size ring and answers
//! [`FlightRecorder::explain_firing`] / [`FlightRecorder::explain_cycle`]
//! queries from it.
//!
//! Cost discipline: a writer never touches the recorder per record. It
//! owns a [`FlightBatch`] — fixed-width records plus a flat run of id
//! words, both keeping their capacity from one call to the next — fills
//! it with plain stores, and hands it to [`FlightRecorder::publish`]
//! once per match batch: one lock, one cycle stamp, one segment update,
//! one bulk append, one bulk eviction. A reader therefore lags a writer
//! by at most one batch, as `/profile` does. The ring stores the same
//! compact records; [`FlightRecord`] and [`FlightKind`] are what a
//! reader *decodes* from it. A recorder built with capacity 0 is
//! permanently off: writers cache [`FlightRecorder::enabled`] when they
//! attach and stage nothing.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::json;

/// What one provenance record witnesses.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightKind {
    /// A working-memory change entered the match network.
    WmeChange {
        /// Raw WME id.
        wme: u32,
        /// The WME's time tag (0 if unknown at the recording site).
        time_tag: u64,
        /// Assert (`true`) or retract (`false`).
        is_add: bool,
    },
    /// A match node executed one activation.
    Activation {
        /// Network node index.
        node: u32,
        /// Activation kind label (e.g. `join-right`).
        kind: &'static str,
        /// The WME that triggered the activation (right activations)
        /// or the newest WME of the arriving token (left activations).
        wme: Option<u32>,
    },
    /// A token (partial instantiation) came into existence.
    TokenBirth {
        /// Node whose output the token is.
        node: u32,
        /// The WME ids the token binds, in CE order.
        wmes: Vec<u32>,
    },
    /// A token was retracted.
    TokenDeath {
        /// Node whose output the token was.
        node: u32,
        /// The WME ids the token bound.
        wmes: Vec<u32>,
    },
    /// An instantiation entered the conflict set.
    ConflictInsert {
        /// Production name.
        rule: String,
        /// Matched WME ids, in CE order.
        wmes: Vec<u32>,
        /// The matched WMEs' time tags, aligned with `wmes`.
        time_tags: Vec<u64>,
    },
    /// An instantiation left the conflict set (retracted, not fired).
    ConflictRemove {
        /// Production name.
        rule: String,
        /// Matched WME ids.
        wmes: Vec<u32>,
    },
    /// A production fired.
    Firing {
        /// Production name.
        rule: String,
        /// Matched WME ids, in CE order.
        wmes: Vec<u32>,
        /// The matched WMEs' time tags, aligned with `wmes`.
        time_tags: Vec<u64>,
    },
}

impl FlightKind {
    /// Short label for rendering.
    pub fn label(&self) -> &'static str {
        match self {
            FlightKind::WmeChange { .. } => "wme-change",
            FlightKind::Activation { .. } => "activation",
            FlightKind::TokenBirth { .. } => "token-birth",
            FlightKind::TokenDeath { .. } => "token-death",
            FlightKind::ConflictInsert { .. } => "conflict-insert",
            FlightKind::ConflictRemove { .. } => "conflict-remove",
            FlightKind::Firing { .. } => "firing",
        }
    }

    /// The WME ids this record touches (empty for kinds without any).
    pub fn wmes(&self) -> &[u32] {
        match self {
            FlightKind::WmeChange { wme, .. } => std::slice::from_ref(wme),
            FlightKind::Activation { wme, .. } => {
                wme.as_ref().map(std::slice::from_ref).unwrap_or(&[])
            }
            FlightKind::TokenBirth { wmes, .. }
            | FlightKind::TokenDeath { wmes, .. }
            | FlightKind::ConflictInsert { wmes, .. }
            | FlightKind::ConflictRemove { wmes, .. }
            | FlightKind::Firing { wmes, .. } => wmes,
        }
    }
}

/// One entry of the provenance ring.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Monotonic sequence number (never reused, survives eviction).
    pub seq: u64,
    /// The recognize–act cycle the record belongs to (see
    /// [`FlightRecorder::set_cycle`]).
    pub cycle: u64,
    /// The witnessed event.
    pub kind: FlightKind,
}

impl FlightRecord {
    /// The record as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"cycle\":");
        out.push_str(&self.cycle.to_string());
        out.push_str(",\"kind\":");
        json::push_escaped(&mut out, self.kind.label());
        match &self.kind {
            FlightKind::WmeChange {
                wme,
                time_tag,
                is_add,
            } => {
                out.push_str(&format!(
                    ",\"wme\":{wme},\"time_tag\":{time_tag},\"is_add\":{is_add}"
                ));
            }
            FlightKind::Activation { node, kind, wme } => {
                out.push_str(&format!(",\"node\":{node},\"node_kind\":"));
                json::push_escaped(&mut out, kind);
                if let Some(w) = wme {
                    out.push_str(&format!(",\"wme\":{w}"));
                }
            }
            FlightKind::TokenBirth { node, wmes } | FlightKind::TokenDeath { node, wmes } => {
                out.push_str(&format!(",\"node\":{node},\"wmes\":{}", ids_json(wmes)));
            }
            FlightKind::ConflictRemove { rule, wmes } => {
                out.push_str(",\"rule\":");
                json::push_escaped(&mut out, rule);
                out.push_str(&format!(",\"wmes\":{}", ids_json(wmes)));
            }
            FlightKind::ConflictInsert {
                rule,
                wmes,
                time_tags,
            }
            | FlightKind::Firing {
                rule,
                wmes,
                time_tags,
            } => {
                out.push_str(",\"rule\":");
                json::push_escaped(&mut out, rule);
                out.push_str(&format!(
                    ",\"wmes\":{},\"time_tags\":{}",
                    ids_json(wmes),
                    tags_json(time_tags)
                ));
            }
        }
        out.push('}');
        out
    }
}

fn ids_json(ids: &[u32]) -> String {
    let mut out = String::from("[");
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&id.to_string());
    }
    out.push(']');
    out
}

fn tags_json(tags: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, t) in tags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&t.to_string());
    }
    out.push(']');
    out
}

/// The causal chain justifying one firing, assembled from the ring.
#[derive(Debug, Clone, Default)]
pub struct Explanation {
    /// The firing itself.
    pub firing: Option<FlightRecord>,
    /// The conflict-set insert that scheduled it.
    pub conflict_insert: Option<FlightRecord>,
    /// The WME changes among the firing's matched WMEs still in the
    /// ring.
    pub wme_changes: Vec<FlightRecord>,
    /// Node activations triggered by those WMEs.
    pub activations: Vec<FlightRecord>,
    /// Token births/deaths binding a subset of the firing's WMEs.
    pub tokens: Vec<FlightRecord>,
}

impl Explanation {
    /// The time tags that justified the firing (empty if the firing
    /// fell out of the ring).
    pub fn time_tags(&self) -> Vec<u64> {
        match &self.firing {
            Some(FlightRecord {
                kind: FlightKind::Firing { time_tags, .. },
                ..
            }) => time_tags.clone(),
            _ => Vec::new(),
        }
    }

    /// All records in causal (sequence) order.
    pub fn records(&self) -> Vec<&FlightRecord> {
        let mut all: Vec<&FlightRecord> = self
            .wme_changes
            .iter()
            .chain(self.activations.iter())
            .chain(self.tokens.iter())
            .chain(self.conflict_insert.iter())
            .chain(self.firing.iter())
            .collect();
        all.sort_by_key(|r| r.seq);
        all
    }

    /// JSON rendering: `{"found":…,"time_tags":[…],"records":[…]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"found\":");
        out.push_str(if self.firing.is_some() {
            "true"
        } else {
            "false"
        });
        out.push_str(",\"time_tags\":[");
        for (i, t) in self.time_tags().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.to_string());
        }
        out.push_str("],\"records\":[");
        for (i, r) in self.records().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_json());
        }
        out.push_str("]}");
        out
    }

    /// Human-readable rendering, one record per line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for r in self.records() {
            out.push_str(&format!(
                "[cycle {:>4} seq {:>6}] {}\n",
                r.cycle,
                r.seq,
                r.to_json()
            ));
        }
        if self.firing.is_none() {
            out.push_str("(no matching firing in the flight ring)\n");
        }
        out
    }
}

/// A recorder's handle for a production name it has interned
/// ([`FlightRecorder::rule`]); valid for that recorder only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRule(u32);

/// A recorder's handle for an activation-kind label it has interned
/// ([`FlightRecorder::label`]); valid for that recorder only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightLabel(u16);

/// Which [`FlightKind`] a [`Slot`] encodes.
#[derive(Debug, Clone, Copy)]
enum Tag {
    WmeChange,
    Activation,
    TokenBirth,
    TokenDeath,
    ConflictInsert,
    ConflictRemove,
    Firing,
}

/// One fixed-width record, in a batch and in the ring alike. Neither
/// `seq` nor `cycle` is stored: a record's sequence number is the ring's
/// base plus its position and its cycle is its segment's.
///
/// | tag | `flag` | `label` | `node` | `arg` | id words |
/// |---|---|---|---|---|---|
/// | `WmeChange` | is_add | – | wme | 2 | time tag, low word first |
/// | `Activation` | has wme | kind label | node | the wme | none |
/// | `TokenBirth`/`Death` | – | – | node | n | n wme ids |
/// | `ConflictInsert`/`Remove`, `Firing` | – | – | rule | 1 + n + 2 t | n, n wme ids, t time tags |
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: Tag,
    flag: bool,
    label: u16,
    node: u32,
    arg: u32,
}

impl Slot {
    /// Id words this record owns.
    fn words(&self) -> usize {
        match self.tag {
            Tag::Activation => 0,
            _ => self.arg as usize,
        }
    }
}

/// Records staged by one writer between two [`FlightRecorder::publish`]
/// calls. Staging is plain stores into two vectors that keep their
/// capacity across calls, so a warmed-up writer neither locks nor
/// allocates per record.
#[derive(Debug, Default)]
pub struct FlightBatch {
    slots: Vec<Slot>,
    words: Vec<u32>,
}

impl FlightBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records staged and not yet published.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Discards the staged records (capacity stays).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.words.clear();
    }

    #[inline]
    fn push(&mut self, tag: Tag, flag: bool, label: u16, node: u32, arg: usize) {
        debug_assert!(u32::try_from(arg).is_ok(), "a record's ids fit a u32 count");
        self.slots.push(Slot {
            tag,
            flag,
            label,
            node,
            arg: arg as u32,
        });
    }

    /// Stages a [`FlightKind::WmeChange`].
    #[inline]
    pub fn wme_change(&mut self, wme: u32, time_tag: u64, is_add: bool) {
        self.words.extend(tag_words(time_tag));
        self.push(Tag::WmeChange, is_add, 0, wme, 2);
    }

    /// Stages a [`FlightKind::Activation`].
    #[inline]
    pub fn activation(&mut self, node: u32, kind: FlightLabel, wme: Option<u32>) {
        let arg = wme.unwrap_or(0) as usize;
        self.push(Tag::Activation, wme.is_some(), kind.0, node, arg);
    }

    /// Stages a [`FlightKind::TokenBirth`] (`born`) or
    /// [`FlightKind::TokenDeath`] of the token binding `wmes`.
    #[inline]
    pub fn token(&mut self, node: u32, born: bool, wmes: impl IntoIterator<Item = u32>) {
        let start = self.words.len();
        self.words.extend(wmes);
        let tag = if born {
            Tag::TokenBirth
        } else {
            Tag::TokenDeath
        };
        self.push(tag, false, 0, node, self.words.len() - start);
    }

    /// Stages a [`FlightKind::ConflictInsert`].
    pub fn conflict_insert(
        &mut self,
        rule: FlightRule,
        wmes: impl IntoIterator<Item = u32>,
        time_tags: impl IntoIterator<Item = u64>,
    ) {
        self.instantiation(Tag::ConflictInsert, rule, wmes, time_tags);
    }

    /// Stages a [`FlightKind::ConflictRemove`].
    pub fn conflict_remove(&mut self, rule: FlightRule, wmes: impl IntoIterator<Item = u32>) {
        self.instantiation(Tag::ConflictRemove, rule, wmes, []);
    }

    /// Stages a [`FlightKind::Firing`].
    pub fn firing(
        &mut self,
        rule: FlightRule,
        wmes: impl IntoIterator<Item = u32>,
        time_tags: impl IntoIterator<Item = u64>,
    ) {
        self.instantiation(Tag::Firing, rule, wmes, time_tags);
    }

    fn instantiation(
        &mut self,
        tag: Tag,
        rule: FlightRule,
        wmes: impl IntoIterator<Item = u32>,
        time_tags: impl IntoIterator<Item = u64>,
    ) {
        let start = self.words.len();
        self.words.push(0);
        self.words.extend(wmes);
        self.words[start] = (self.words.len() - start - 1) as u32;
        self.words.extend(time_tags.into_iter().flat_map(tag_words));
        self.push(tag, false, 0, rule.0, self.words.len() - start);
    }
}

/// A time tag as two id words, low word first.
fn tag_words(time_tag: u64) -> [u32; 2] {
    [time_tag as u32, (time_tag >> 32) as u32]
}

/// A run of consecutive ring records sharing one cycle stamp.
#[derive(Debug, Clone, Copy)]
struct Segment {
    cycle: u64,
    records: usize,
    words: usize,
}

/// Everything behind the recorder's lock: two deques addressed by
/// position (records, and the id words they own in the same order), the
/// per-cycle segment index eviction and decoding walk, and the intern
/// tables the records point into.
#[derive(Debug, Default)]
struct FlightRing {
    slots: VecDeque<Slot>,
    words: VecDeque<u32>,
    /// Oldest first. Every retained record belongs to exactly one
    /// segment; consecutive records with the same cycle stamp share one
    /// (so a non-monotonic cycle clock — e.g. two runs sharing an `Obs`
    /// — just opens a new segment).
    segments: VecDeque<Segment>,
    /// Sequence number of `slots[0]`: the records evicted so far.
    base: u64,
    evicted_cycles: u64,
    rules: Vec<String>,
    rule_ids: HashMap<String, u32>,
    labels: Vec<&'static str>,
}

impl FlightRing {
    /// Appends `batch` under cycle stamp `cycle`, making room first:
    /// whole oldest cycles while either budget is exceeded, then — only
    /// when the one remaining cycle alone overflows the ring — that
    /// cycle's oldest records, resident ones before the batch's own.
    fn append(&mut self, cycle: u64, capacity: usize, max_cycles: usize, batch: &FlightBatch) {
        let (records, words) = (batch.slots.len(), batch.words.len());
        match self.segments.back_mut() {
            Some(seg) if seg.cycle == cycle => {
                seg.records += records;
                seg.words += words;
            }
            _ => self.segments.push_back(Segment {
                cycle,
                records,
                words,
            }),
        }
        let mut total = self.slots.len() + records;
        while self.segments.len() > 1 && (total > capacity || self.segments.len() > max_cycles) {
            // Never the segment being appended to, so all of it is
            // resident.
            let seg = self.segments.pop_front().expect("checked non-empty");
            self.slots.drain(..seg.records);
            self.words.drain(..seg.words);
            self.base += seg.records as u64;
            self.evicted_cycles += 1;
            total -= seg.records;
        }
        let over = total.saturating_sub(capacity);
        let resident = over.min(self.slots.len());
        let skipped = over - resident;
        let resident_words: usize = self.slots.drain(..resident).map(|s| s.words()).sum();
        self.words.drain(..resident_words);
        let skipped_words: usize = batch.slots[..skipped].iter().map(Slot::words).sum();
        if over > 0 {
            let seg = self.segments.front_mut().expect("records imply a segment");
            seg.records -= over;
            seg.words -= resident_words + skipped_words;
            self.base += over as u64;
        }
        self.slots.extend(&batch.slots[skipped..]);
        self.words.extend(&batch.words[skipped_words..]);
    }

    /// Decodes the records of every segment whose cycle `wanted`
    /// accepts, oldest first.
    fn decode(&self, wanted: impl Fn(u64) -> bool) -> Vec<FlightRecord> {
        let mut out = Vec::new();
        // Position of the segment's first record and first id word.
        let (mut first, mut first_word) = (0, 0);
        for seg in &self.segments {
            if wanted(seg.cycle) {
                let mut word = first_word;
                for (i, slot) in self.slots.range(first..first + seg.records).enumerate() {
                    let ids = self.words.range(word..word + slot.words()).copied();
                    word += slot.words();
                    out.push(FlightRecord {
                        seq: self.base + (first + i) as u64,
                        cycle: seg.cycle,
                        kind: self.kind(slot, ids.collect()),
                    });
                }
            }
            first += seg.records;
            first_word += seg.words;
        }
        out
    }

    /// The event `slot` encodes, given the id words it owns.
    fn kind(&self, slot: &Slot, ids: Vec<u32>) -> FlightKind {
        let instantiation = |ids: Vec<u32>| {
            let n = ids[0] as usize;
            let tags = ids[1 + n..].chunks_exact(2).map(|w| time_tag(w[0], w[1]));
            let time_tags = tags.collect();
            let rule = self.rules[slot.node as usize].clone();
            (rule, ids[1..=n].to_vec(), time_tags)
        };
        match slot.tag {
            Tag::WmeChange => FlightKind::WmeChange {
                wme: slot.node,
                time_tag: time_tag(ids[0], ids[1]),
                is_add: slot.flag,
            },
            Tag::Activation => FlightKind::Activation {
                node: slot.node,
                kind: self.labels[slot.label as usize],
                wme: slot.flag.then_some(slot.arg),
            },
            Tag::TokenBirth => FlightKind::TokenBirth {
                node: slot.node,
                wmes: ids,
            },
            Tag::TokenDeath => FlightKind::TokenDeath {
                node: slot.node,
                wmes: ids,
            },
            Tag::ConflictInsert => {
                let (rule, wmes, time_tags) = instantiation(ids);
                FlightKind::ConflictInsert {
                    rule,
                    wmes,
                    time_tags,
                }
            }
            Tag::ConflictRemove => {
                let (rule, wmes, _) = instantiation(ids);
                FlightKind::ConflictRemove { rule, wmes }
            }
            Tag::Firing => {
                let (rule, wmes, time_tags) = instantiation(ids);
                FlightKind::Firing {
                    rule,
                    wmes,
                    time_tags,
                }
            }
        }
    }
}

/// The time tag two id words hold, low word first.
fn time_tag(low: u32, high: u32) -> u64 {
    u64::from(high) << 32 | u64::from(low)
}

/// Fixed-size ring of provenance records with **per-cycle eviction**:
/// when space is needed, the oldest *whole* cycle segment is dropped
/// (never a cycle's tail), so a cycle is either fully retained or fully
/// gone and `explain_cycle` can never return a half-evicted chain on
/// long runs. Two budgets apply: `capacity` bounds retained records
/// (memory), and `max_cycles` bounds retained distinct cycles
/// (staleness). If a single cycle alone overflows the whole ring,
/// eviction falls back to per-record within that cycle — the only case
/// a partial cycle can be observed.
///
/// Records arrive a [`FlightBatch`] at a time through
/// [`FlightRecorder::publish`]; sequence numbers and cycle stamps are
/// assigned there, under the lock, so ring order and sequence order
/// agree whatever the number of publishing threads.
///
/// Capacity 0 disables the recorder permanently: publishing only clears
/// the batch and queries return nothing.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<FlightRing>,
    capacity: usize,
    max_cycles: usize,
    cycle: AtomicU64,
}

/// Default bound on distinct recognize–act cycles the ring retains.
pub const DEFAULT_MAX_CYCLES: usize = 64;

impl FlightRecorder {
    /// A recorder retaining at most `capacity` records (0 = disabled)
    /// across at most [`DEFAULT_MAX_CYCLES`] distinct cycles.
    pub fn new(capacity: usize) -> Self {
        Self::with_max_cycles(capacity, DEFAULT_MAX_CYCLES)
    }

    /// A recorder retaining at most `capacity` records spanning at most
    /// `max_cycles` distinct recognize–act cycles (clamped to ≥ 1).
    pub fn with_max_cycles(capacity: usize, max_cycles: usize) -> Self {
        FlightRecorder {
            ring: Mutex::new(FlightRing {
                slots: VecDeque::with_capacity(capacity.min(4096)),
                ..FlightRing::default()
            }),
            capacity,
            max_cycles: max_cycles.max(1),
            cycle: AtomicU64::new(0),
        }
    }

    fn ring(&self) -> MutexGuard<'_, FlightRing> {
        self.ring
            .lock()
            .expect("no holder of the flight ring's lock panics")
    }

    /// Whether records are being retained. Writers cache this when they
    /// attach, so the disabled path stages nothing.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The bound on distinct cycles retained at once.
    pub fn max_cycles(&self) -> usize {
        self.max_cycles
    }

    /// Distinct cycle segments currently retained.
    pub fn retained_cycles(&self) -> usize {
        self.ring().segments.len()
    }

    /// Whole cycle segments evicted so far (each eviction removed every
    /// record of one cycle at once).
    pub fn evicted_cycles(&self) -> u64 {
        self.ring().evicted_cycles
    }

    /// Stamps subsequently *published* records with recognize–act cycle
    /// `n`.
    pub fn set_cycle(&self, n: u64) {
        self.cycle.store(n, Ordering::Relaxed);
    }

    /// The current cycle stamp.
    pub fn cycle(&self) -> u64 {
        self.cycle.load(Ordering::Relaxed)
    }

    /// Interns production name `name`, once per recorder, and returns
    /// the handle [`FlightBatch`] records carry in its place. Resolve
    /// handles when attaching, not per record: this takes the lock.
    pub fn rule(&self, name: &str) -> FlightRule {
        let mut ring = self.ring();
        if let Some(&id) = ring.rule_ids.get(name) {
            return FlightRule(id);
        }
        let id = u32::try_from(ring.rules.len()).expect("fewer than 2^32 rule names");
        ring.rules.push(name.to_string());
        ring.rule_ids.insert(name.to_string(), id);
        FlightRule(id)
    }

    /// Interns activation-kind label `label` (as [`FlightRecorder::rule`]
    /// does names).
    pub fn label(&self, label: &'static str) -> FlightLabel {
        let mut ring = self.ring();
        let known = ring.labels.iter().position(|&l| l == label);
        let at = known.unwrap_or_else(|| {
            ring.labels.push(label);
            ring.labels.len() - 1
        });
        FlightLabel(u16::try_from(at).expect("fewer than 2^16 activation labels"))
    }

    /// Appends everything staged in `batch`, in order, and leaves it
    /// empty: the records take the next sequence numbers and the
    /// current cycle stamp, and the oldest **whole cycles** are evicted
    /// while either budget (records or distinct cycles) is exceeded —
    /// single records only when one cycle alone overflows the entire
    /// ring.
    pub fn publish(&self, batch: &mut FlightBatch) {
        if batch.is_empty() {
            return;
        }
        if self.enabled() {
            let mut ring = self.ring();
            let cycle = self.cycle.load(Ordering::Relaxed);
            ring.append(cycle, self.capacity, self.max_cycles, batch);
        }
        batch.clear();
    }

    /// Files one record: a batch of one through
    /// [`FlightRecorder::publish`]. For callers off the hot path; a
    /// matcher stages into its own [`FlightBatch`].
    pub fn record(&self, kind: FlightKind) {
        if !self.enabled() {
            return;
        }
        let mut batch = FlightBatch::new();
        self.stage(&mut batch, &kind);
        self.publish(&mut batch);
    }

    /// Stages `kind` into `batch`, interning what it names.
    fn stage(&self, batch: &mut FlightBatch, kind: &FlightKind) {
        let wmes = kind.wmes().iter().copied();
        match kind {
            FlightKind::WmeChange {
                wme,
                time_tag,
                is_add,
            } => batch.wme_change(*wme, *time_tag, *is_add),
            FlightKind::Activation { node, kind, wme } => {
                batch.activation(*node, self.label(kind), *wme)
            }
            FlightKind::TokenBirth { node, .. } => batch.token(*node, true, wmes),
            FlightKind::TokenDeath { node, .. } => batch.token(*node, false, wmes),
            FlightKind::ConflictInsert {
                rule, time_tags, ..
            } => batch.conflict_insert(self.rule(rule), wmes, time_tags.iter().copied()),
            FlightKind::ConflictRemove { rule, .. } => batch.conflict_remove(self.rule(rule), wmes),
            FlightKind::Firing {
                rule, time_tags, ..
            } => batch.firing(self.rule(rule), wmes, time_tags.iter().copied()),
        }
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.ring().slots.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring().base
    }

    /// A snapshot of the retained records, oldest first.
    pub fn records(&self) -> Vec<FlightRecord> {
        self.ring().decode(|_| true)
    }

    /// All retained records of recognize–act cycle `n`.
    pub fn explain_cycle(&self, n: u64) -> Vec<FlightRecord> {
        self.ring().decode(|cycle| cycle == n)
    }

    /// Reconstructs the causal chain behind the `instance`-th retained
    /// firing of `rule` (0-based, oldest first). Returns a default
    /// (empty) [`Explanation`] if no such firing is in the ring.
    ///
    /// The chain is assembled by WME overlap: WME changes for the
    /// firing's matched ids, activations those WMEs triggered, and
    /// token births/deaths binding a subset of the matched ids — all
    /// at sequence numbers up to the firing's.
    pub fn explain_firing(&self, rule: &str, instance: usize) -> Explanation {
        let records = self.records();
        let firing = records
            .iter()
            .filter(|r| matches!(&r.kind, FlightKind::Firing { rule: rl, .. } if rl == rule))
            .nth(instance)
            .cloned();
        let Some(firing) = firing else {
            return Explanation::default();
        };
        let fired_wmes: Vec<u32> = firing.kind.wmes().to_vec();
        let subset = |ws: &[u32]| !ws.is_empty() && ws.iter().all(|w| fired_wmes.contains(w));
        let mut ex = Explanation {
            firing: Some(firing.clone()),
            ..Explanation::default()
        };
        for r in records.iter().filter(|r| r.seq <= firing.seq) {
            match &r.kind {
                FlightKind::WmeChange { wme, .. } if fired_wmes.contains(wme) => {
                    ex.wme_changes.push(r.clone());
                }
                FlightKind::Activation { wme: Some(w), .. } if fired_wmes.contains(w) => {
                    ex.activations.push(r.clone());
                }
                FlightKind::TokenBirth { wmes, .. } | FlightKind::TokenDeath { wmes, .. }
                    if subset(wmes) =>
                {
                    ex.tokens.push(r.clone());
                }
                FlightKind::ConflictInsert { rule: rl, wmes, .. }
                    if rl == rule && *wmes == fired_wmes =>
                {
                    // The latest insert at or before the firing wins.
                    ex.conflict_insert = Some(r.clone());
                }
                _ => {}
            }
        }
        ex
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;
    use std::sync::Barrier;

    fn firing(rule: &str, wmes: Vec<u32>, tags: Vec<u64>) -> FlightKind {
        FlightKind::Firing {
            rule: rule.into(),
            wmes,
            time_tags: tags,
        }
    }

    #[test]
    fn zero_capacity_is_permanently_off() {
        let fr = FlightRecorder::new(0);
        assert!(!fr.enabled());
        fr.record(firing("r", vec![1], vec![1]));
        assert!(fr.is_empty());
        assert!(fr.explain_firing("r", 0).firing.is_none());
        assert!(fr.explain_cycle(0).is_empty());
    }

    #[test]
    fn ring_caps_and_counts_drops() {
        let fr = FlightRecorder::new(2);
        for i in 0..5u32 {
            fr.record(FlightKind::WmeChange {
                wme: i,
                time_tag: i as u64,
                is_add: true,
            });
        }
        assert_eq!(fr.len(), 2);
        assert_eq!(fr.dropped(), 3);
        let recs = fr.records();
        assert_eq!(recs[0].kind.wmes(), &[3]);
        assert_eq!(recs[1].seq, 4);
        // All five records shared cycle 0: the per-record fallback ran,
        // no whole-cycle eviction happened.
        assert_eq!(fr.retained_cycles(), 1);
        assert_eq!(fr.evicted_cycles(), 0);
    }

    fn change(wme: u32) -> FlightKind {
        FlightKind::WmeChange {
            wme,
            time_tag: wme as u64,
            is_add: true,
        }
    }

    #[test]
    fn eviction_drops_whole_cycles_never_tails() {
        let fr = FlightRecorder::new(10);
        for cycle in 1..=3u64 {
            fr.set_cycle(cycle);
            for i in 0..4 {
                fr.record(change((cycle * 10 + i) as u32));
            }
        }
        // 12 records over capacity 10: the whole of cycle 1 went, not
        // just its two oldest records.
        assert_eq!(fr.len(), 8);
        assert_eq!(fr.dropped(), 4);
        assert_eq!(fr.evicted_cycles(), 1);
        assert_eq!(fr.retained_cycles(), 2);
        assert!(fr.explain_cycle(1).is_empty(), "cycle 1 fully evicted");
        assert_eq!(fr.explain_cycle(2).len(), 4, "cycle 2 fully retained");
        assert_eq!(fr.explain_cycle(3).len(), 4);
    }

    #[test]
    fn max_cycles_bounds_staleness() {
        let fr = FlightRecorder::with_max_cycles(1000, 2);
        assert_eq!(fr.max_cycles(), 2);
        for cycle in 1..=5u64 {
            fr.set_cycle(cycle);
            fr.record(change(cycle as u32));
            fr.record(change(cycle as u32 + 100));
        }
        // Plenty of record capacity, but only the last 2 cycles stay.
        assert_eq!(fr.retained_cycles(), 2);
        assert_eq!(fr.evicted_cycles(), 3);
        assert!(fr.explain_cycle(3).is_empty());
        assert_eq!(fr.explain_cycle(4).len(), 2);
        assert_eq!(fr.explain_cycle(5).len(), 2);
    }

    #[test]
    fn non_monotonic_cycles_open_fresh_segments() {
        // Two runs sharing one recorder restart the cycle clock; the
        // second run's cycle 1 must not merge into the first run's.
        let fr = FlightRecorder::new(100);
        fr.set_cycle(1);
        fr.record(change(1));
        fr.set_cycle(2);
        fr.record(change(2));
        fr.set_cycle(1);
        fr.record(change(3));
        assert_eq!(fr.retained_cycles(), 3, "cycle 1 appears as two runs");
        assert_eq!(fr.explain_cycle(1).len(), 2, "queries still see both");
    }

    #[test]
    fn explain_firing_assembles_causal_chain() {
        let fr = FlightRecorder::new(64);
        fr.set_cycle(7);
        fr.record(FlightKind::WmeChange {
            wme: 10,
            time_tag: 3,
            is_add: true,
        });
        fr.record(FlightKind::WmeChange {
            wme: 99,
            time_tag: 4,
            is_add: true,
        }); // unrelated
        fr.record(FlightKind::Activation {
            node: 5,
            kind: "join-right",
            wme: Some(10),
        });
        fr.record(FlightKind::TokenBirth {
            node: 5,
            wmes: vec![10, 11],
        }); // 11 not matched -> excluded
        fr.record(FlightKind::TokenBirth {
            node: 6,
            wmes: vec![10],
        });
        fr.record(FlightKind::ConflictInsert {
            rule: "r".into(),
            wmes: vec![10],
            time_tags: vec![3],
        });
        fr.set_cycle(8);
        fr.record(firing("r", vec![10], vec![3]));

        let ex = fr.explain_firing("r", 0);
        assert_eq!(ex.time_tags(), vec![3]);
        assert_eq!(ex.wme_changes.len(), 1);
        assert_eq!(ex.activations.len(), 1);
        assert_eq!(ex.tokens.len(), 1, "superset token excluded");
        assert!(ex.conflict_insert.is_some());
        let order: Vec<u64> = ex.records().iter().map(|r| r.seq).collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]));
        assert!(ex.to_json().contains("\"found\":true"));
        assert!(ex.to_text().contains("firing"));

        // Second instance does not exist.
        assert!(fr.explain_firing("r", 1).firing.is_none());
        assert!(fr.explain_firing("other", 0).firing.is_none());
        // Cycle query separates the firing from its match work.
        assert_eq!(fr.explain_cycle(8).len(), 1);
        assert_eq!(fr.explain_cycle(7).len(), 6);
    }

    #[test]
    fn record_json_shapes() {
        let r = FlightRecord {
            seq: 1,
            cycle: 2,
            kind: FlightKind::ConflictInsert {
                rule: "a\"b".into(),
                wmes: vec![1, 2],
                time_tags: vec![5, 6],
            },
        };
        let j = r.to_json();
        assert!(j.contains("\"rule\":\"a\\\"b\""));
        assert!(j.contains("\"wmes\":[1,2]"));
        assert!(j.contains("\"time_tags\":[5,6]"));
        let act = FlightRecord {
            seq: 0,
            cycle: 0,
            kind: FlightKind::Activation {
                node: 3,
                kind: "join-left",
                wme: None,
            },
        };
        assert!(!act.to_json().contains("\"wme\""));
    }

    #[test]
    fn a_ring_record_is_twelve_bytes() {
        // Against ~90 for a `FlightRecord`, before the heap `Vec` every
        // token record carried.
        assert_eq!(std::mem::size_of::<Slot>(), 12);
        assert!(std::mem::size_of::<FlightRecord>() >= 80);
    }

    /// The ring's word deque holds exactly the id words of the records
    /// it retains, segment by segment.
    fn assert_words_drained_with_records(fr: &FlightRecorder) {
        let ring = fr.ring();
        let (mut at, mut words) = (0, 0);
        for seg in &ring.segments {
            let owned: usize = ring
                .slots
                .range(at..at + seg.records)
                .map(Slot::words)
                .sum();
            assert_eq!(owned, seg.words, "segment of cycle {}", seg.cycle);
            at += seg.records;
            words += seg.words;
        }
        assert_eq!(at, ring.slots.len());
        assert_eq!(words, ring.words.len());
    }

    /// The documented eviction rule applied one record at a time to
    /// plain `FlightRecord`s: whole oldest cycles first, single records
    /// only when one cycle alone overflows the ring.
    struct Model {
        capacity: usize,
        max_cycles: usize,
        records: Vec<FlightRecord>,
        segments: Vec<(u64, usize)>,
        cycle: u64,
        seq: u64,
        dropped: u64,
        evicted_cycles: u64,
    }

    impl Model {
        fn record(&mut self, kind: FlightKind) {
            match self.segments.last_mut() {
                Some((c, n)) if *c == self.cycle => *n += 1,
                _ => self.segments.push((self.cycle, 1)),
            }
            self.records.push(FlightRecord {
                seq: self.seq,
                cycle: self.cycle,
                kind,
            });
            self.seq += 1;
            while self.segments.len() > 1
                && (self.records.len() > self.capacity || self.segments.len() > self.max_cycles)
            {
                let (_, n) = self.segments.remove(0);
                self.records.drain(..n);
                self.dropped += n as u64;
                self.evicted_cycles += 1;
            }
            while self.records.len() > self.capacity {
                self.records.remove(0);
                self.segments[0].1 -= 1;
                self.dropped += 1;
            }
        }
    }

    fn random_kind(rng: &mut Rng64) -> FlightKind {
        const RULES: [&str; 4] = ["put-on", "done", "a\"b", ""];
        const LABELS: [&str; 4] = ["join-R", "join-L", "neg-R", "term"];
        let node = rng.next_u32();
        let rule = rng.choose(&RULES).to_string();
        let len = *rng.choose(&[0, 1, 2, 3, 7, 64]);
        let wmes: Vec<u32> = (0..len).map(|_| rng.next_u32()).collect();
        // Any width up to the full 64 bits, and not always aligned.
        let tags = if rng.gen_bool(0.9) { len } else { len / 2 };
        let time_tags: Vec<u64> = (0..tags)
            .map(|_| rng.next_u64() >> rng.gen_range(0..64u32))
            .collect();
        match rng.gen_range(0..7u32) {
            0 => FlightKind::WmeChange {
                wme: node,
                time_tag: rng.next_u64() >> rng.gen_range(0..64u32),
                is_add: rng.gen_bool(0.5),
            },
            1 => FlightKind::Activation {
                node,
                kind: LABELS[rng.gen_range(0..LABELS.len())],
                wme: rng.gen_bool(0.5).then(|| rng.next_u32()),
            },
            2 => FlightKind::TokenBirth { node, wmes },
            3 => FlightKind::TokenDeath { node, wmes },
            4 => FlightKind::ConflictInsert {
                rule,
                wmes,
                time_tags,
            },
            5 => FlightKind::ConflictRemove { rule, wmes },
            _ => FlightKind::Firing {
                rule,
                wmes,
                time_tags,
            },
        }
    }

    #[test]
    fn ring_matches_the_per_record_model() {
        let (seeds, steps) = if cfg!(miri) { (2, 40) } else { (12, 400) };
        for seed in 0..seeds {
            let mut rng = Rng64::new(0xF11E + seed);
            let capacity = *rng.choose(&[1, 2, 5, 16, 40]);
            let max_cycles = *rng.choose(&[1, 2, 3, 64]);
            let fr = FlightRecorder::with_max_cycles(capacity, max_cycles);
            let mut model = Model {
                capacity,
                max_cycles,
                records: Vec::new(),
                segments: Vec::new(),
                cycle: 0,
                seq: 0,
                dropped: 0,
                evicted_cycles: 0,
            };
            let mut batch = FlightBatch::new();
            for step in 0..steps {
                match rng.gen_range(0..10u32) {
                    0..=2 => {
                        let kind = random_kind(&mut rng);
                        fr.record(kind.clone());
                        model.record(kind);
                    }
                    3..=6 => {
                        // Empty, small, and larger than the whole ring.
                        let size = match rng.gen_range(0..8u32) {
                            0 => 0,
                            1 => capacity + rng.gen_range(1..=capacity),
                            _ => rng.gen_range(1..=capacity.min(8)),
                        };
                        for _ in 0..size {
                            let kind = random_kind(&mut rng);
                            fr.stage(&mut batch, &kind);
                            model.record(kind);
                        }
                        assert_eq!(batch.len(), size);
                        fr.publish(&mut batch);
                        assert!(batch.is_empty(), "publish drains the batch");
                    }
                    7..=8 => model.cycle += 1,
                    _ => model.cycle = rng.gen_range(0..4u64),
                }
                fr.set_cycle(model.cycle);

                let context = format!("seed {seed} step {step}");
                let records = fr.records();
                assert_eq!(records, model.records, "{context}");
                assert_eq!(fr.len(), model.records.len(), "{context}");
                assert_eq!(fr.dropped(), model.dropped, "{context}");
                assert_eq!(fr.retained_cycles(), model.segments.len(), "{context}");
                assert_eq!(fr.evicted_cycles(), model.evicted_cycles, "{context}");
                for cycle in [model.cycle, rng.gen_range(0..4u64)] {
                    let wanted = model.records.iter().filter(|r| r.cycle == cycle);
                    let wanted: Vec<FlightRecord> = wanted.cloned().collect();
                    assert_eq!(fr.explain_cycle(cycle), wanted, "{context} cycle {cycle}");
                }
                let json = |rs: &[FlightRecord]| rs.iter().map(FlightRecord::to_json).collect();
                let (got, wanted): (Vec<_>, Vec<_>) = (json(&records), json(&model.records));
                assert_eq!(got, wanted, "{context}");
                assert_words_drained_with_records(&fr);
            }
        }
    }

    #[test]
    fn racing_publishers_keep_ring_order_and_sequence_order_agreed() {
        let (batches, capacity) = if cfg!(miri) { (12, 32) } else { (2000, 512) };
        let fr = FlightRecorder::new(capacity);
        let start = Barrier::new(2);
        let publisher = |me: u32| {
            let (fr, start) = (&fr, &start);
            move || {
                let mut rng = Rng64::new(u64::from(me));
                let mut batch = FlightBatch::new();
                let mut staged = 0;
                start.wait();
                for round in 0..batches {
                    for _ in 0..rng.gen_range(1..=9u32) {
                        batch.token(me, true, [round, staged as u32]);
                        staged += 1;
                    }
                    if rng.gen_bool(0.1) {
                        fr.set_cycle(u64::from(round));
                    }
                    fr.publish(&mut batch);
                }
                staged
            }
        };
        let staged: u64 = std::thread::scope(|s| {
            let handles = [s.spawn(publisher(0)), s.spawn(publisher(1))];
            handles
                .map(|h| h.join().expect("publisher finishes"))
                .iter()
                .sum()
        });
        let records = fr.records();
        assert_eq!(records.len(), fr.len());
        assert_eq!(fr.len() as u64 + fr.dropped(), staged);
        assert_eq!(records[0].seq, fr.dropped());
        assert_eq!(records.last().expect("ring is full").seq, staged - 1);
        assert!(
            records.windows(2).all(|w| w[0].seq + 1 == w[1].seq),
            "ring order is sequence order, without gaps"
        );
        // Each publisher's own records stay in the order it staged them.
        for me in 0..2 {
            let own = records.iter().filter_map(|r| match &r.kind {
                FlightKind::TokenBirth { node, wmes } if *node == me => Some(wmes[1]),
                _ => None,
            });
            let own: Vec<u32> = own.collect();
            assert!(own.windows(2).all(|w| w[0] + 1 == w[1]), "publisher {me}");
        }
        assert_words_drained_with_records(&fr);
    }
}
