//! Versioned checkpoint/restore of a live [`ReteMatcher`].
//!
//! The paper's §3.1 argument for state-saving algorithms — incremental
//! match state is ~20× cheaper to keep than to re-derive — is also the
//! argument for being able to *snapshot* that state: when a worker dies
//! mid-cycle, restoring a snapshot and replaying the change tail is far
//! cheaper than rebuilding the network state from the whole working
//! memory. This module serializes everything dynamic in a matcher — the
//! work counters and every memory (alpha, beta, negative) as it is:
//! entries once, the chain links threaded through them, the chain heads
//! — into a canonical byte stream.
//!
//! The encoding is deterministic, so two matchers in identical logical
//! states produce identical bytes: entries and links are written as they
//! are, and each slot's chain heads in ascending key order — the order
//! their table holds them in whatever its history (the `heads` module),
//! so no slot is sorted. `psm-fault` leans on this: its recovery
//! audit compares the snapshot of a restored-and-replayed matcher
//! byte-for-byte against the snapshot of a matcher that lived through
//! the same changes.
//!
//! A checkpoint's image costs what changed since the one before it (the
//! same §3.1 argument once more). An image is a header with the work
//! counters, then one section per alpha memory and per node, and every
//! site of the matcher that files, unfiles or recounts a memory lists its
//! section the first time it changes after an update (`Marks`). A
//! checkpoint's image is made in two halves:
//!
//! 1. [`ReteMatcher::encode_changes`], on the matcher's thread, encodes
//!    the header and the listed sections alone, in image order, into an
//!    [`ImageUpdate`] that is reused from one image to the next. It
//!    keeps each section's last encoded length, so it knows how long the
//!    image will be without looking at the rest of it.
//! 2. [`ImageUpdate::assemble`] needs only the image before and its
//!    [`SectionTable`], not the matcher, and runs wherever they are kept
//!    — for a supervisor's checkpoint, on the replication store's
//!    publisher. It lays the listed sections between the runs of
//!    sections copied from the image before, each run in one piece, and
//!    re-bases the table.
//!
//! The bytes are those of an encode from nothing, which is what
//! [`ReteMatcher::snapshot`] is: every section, into a buffer sized from
//! the memories beforehand, with nothing read or changed of what
//! [`ReteMatcher::encode_changes`] keeps — so nothing that reads an image
//! can tell, and a reader's snapshot leaves the next update as it was.
//!
//! A section is written at memory speed: its entries in one sized write,
//! its links in another, and each slot's heads straight from the slot's
//! buckets with no branch per bucket (`Heads::encode`). The writer that
//! took them a `u32` at a time is kept in the tests, as the oracle the
//! bulk writer's bytes are held to.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use ops5::{ByteReader, ByteWriter, CodecError, WmeId};

use crate::heads::Heads;
use crate::memory::{Memory, NegEntry, Slot};
use crate::network::Network;
use crate::runtime::{MemoryStrategy, NodeState, ReteMatcher};
use crate::stats::MatchStats;
use crate::token::Token;

const MAGIC: [u8; 4] = *b"PSMR";
// v2: `phantom_removes` joined the stats block.
// v3: negative-node memories carry their key-value chains.
// v4: every memory is one section — slot count, entries, the links
// threaded through them, each slot's chain heads — so no token or WME id
// is written twice; counts and token lengths are `u32`.
// v5: a chain head is keyed by the 32-bit fingerprint of the node's
// whole index key, not by the value of its first equality test.
const VERSION: u32 = 5;

/// The bytes before the first section: magic and version, node and
/// alpha-memory counts, the memory-strategy tag and the 14 work
/// counters.
const HEAD: usize = 8 + 8 + 8 + 1 + 8 * 14;

/// A serialized matcher state (see the module docs). Two snapshots are
/// equal when their bytes are.
#[derive(Debug, Clone)]
pub struct ReteSnapshot {
    /// Shared, not copied, with the checkpoint image it is a part of
    /// ([`ReteSnapshot::within`]).
    bytes: Arc<Vec<u8>>,
    /// The image is `bytes[at..at + len]`.
    at: usize,
    len: usize,
    unchanged: Vec<(usize, usize, usize)>,
    encoded: usize,
}

impl PartialEq for ReteSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for ReteSnapshot {}

impl ReteSnapshot {
    /// The raw snapshot bytes (stable, versioned format).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[self.at..self.at + self.len]
    }

    /// Wraps raw bytes previously produced by [`ReteMatcher::snapshot`]
    /// (e.g. read back from a checkpoint file). Validated on restore.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        ReteSnapshot {
            len: bytes.len(),
            bytes: Arc::new(bytes),
            at: 0,
            unchanged: Vec::new(),
            encoded: 0,
        }
    }

    /// The image that starts at `at` of `bytes`, written as `written`
    /// says: shared with whatever else holds `bytes` — the checkpoint
    /// image an assembly wrote it into — not copied out of it.
    pub fn within(bytes: Arc<Vec<u8>>, at: usize, written: &Assembly) -> Self {
        assert!(at + written.len <= bytes.len(), "the image lies in `bytes`");
        ReteSnapshot {
            bytes,
            at,
            len: written.len,
            unchanged: written.unchanged.clone(),
            encoded: written.encoded,
        }
    }

    /// The ranges this image shares with the image its assembly copied
    /// from ([`ReteSnapshot::within`]), as `(offset there, offset here,
    /// length)` in image order: the runs of sections that were copied,
    /// not encoded. Empty for [`ReteMatcher::snapshot`], which copies
    /// nothing, and for wrapped bytes. A hint for whoever diffs the two
    /// images, and only that — no part of the image, and true of no
    /// other pair.
    pub fn unchanged(&self) -> &[(usize, usize, usize)] {
        &self.unchanged
    }

    /// How many memories were encoded for this image rather than copied
    /// (of [`ReteMatcher::memory_sections`]; none for wrapped bytes).
    pub fn encoded_sections(&self) -> usize {
        self.encoded
    }

    /// Snapshot size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the snapshot holds no bytes (never produced by
    /// [`ReteMatcher::snapshot`]).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// How an image was written ([`ImageUpdate::assemble`]): its length,
/// the runs of it copied from the image before, and how many memories
/// were encoded for it — what [`ReteSnapshot::within`] makes a snapshot
/// of.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Assembly {
    len: usize,
    unchanged: Vec<(usize, usize, usize)>,
    encoded: usize,
}

impl Assembly {
    /// How `snapshot` says it was written.
    pub fn of(snapshot: &ReteSnapshot) -> Self {
        Assembly {
            len: snapshot.len,
            unchanged: snapshot.unchanged.clone(),
            encoded: snapshot.encoded,
        }
    }

    /// The image's length in bytes.
    pub fn image_len(&self) -> usize {
        self.len
    }

    /// [`ReteSnapshot::unchanged`] of the image.
    pub fn unchanged(&self) -> &[(usize, usize, usize)] {
        &self.unchanged
    }
}

/// Where each section of an image starts, and where the image ends:
/// what [`ImageUpdate::assemble`] finds the unchanged sections by. Kept
/// beside the image, and re-based by each assembly onto the next.
#[derive(Debug, Clone, Default)]
pub struct SectionTable {
    /// Section `i` is `bounds[i]..bounds[i + 1]` of the image.
    bounds: Vec<usize>,
}

impl SectionTable {
    /// The table of a whole update's image, whose sections are all
    /// listed: they start after the header and each ends where it is
    /// listed to.
    fn fill(&mut self, listed: &[(u32, usize)]) {
        self.bounds.clear();
        self.bounds.push(HEAD);
        self.bounds.extend(listed.iter().map(|&(_, end)| end));
    }
}

/// A matcher's next image as its header and the sections that changed
/// since its last one ([`ReteMatcher::encode_changes`]), to be assembled
/// with the unchanged ones ([`ImageUpdate::assemble`]). Reused from one
/// image to the next, it keeps its buffers.
#[derive(Debug, Clone, Default)]
pub struct ImageUpdate {
    /// The header and the work counters, then each listed section, in
    /// image order.
    bytes: Vec<u8>,
    /// Each listed section, and where its bytes end in `bytes`.
    listed: Vec<(u32, usize)>,
    /// Sections in the image.
    sections: usize,
    /// The image's length.
    len: usize,
    /// Every section is listed: `bytes` are the image, which needs no
    /// image before it.
    whole: bool,
    encoded: usize,
    /// Room for the runs an assembly copies, one more than the sections
    /// listed, made by the thread that encodes: an assembly allocates
    /// nothing.
    runs: Vec<(usize, usize, usize)>,
}

impl ImageUpdate {
    /// The length of the image the update makes.
    pub fn image_len(&self) -> usize {
        self.len
    }

    /// Appends the image to `out`: the header, then the listed sections
    /// in image order and between them the runs of unchanged ones, each
    /// copied from `base` in one piece. `base` is the image `table` is
    /// the table of — the one made by this matcher's previous update —
    /// and is not read for a whole update. `table` is
    /// re-based onto the new image. Returns how it was written, the
    /// copied runs as offsets into `base` and into the new image (which
    /// starts where `out` ended).
    ///
    /// # Panics
    ///
    /// When the update is not whole and `table` is not one of an image of
    /// as many sections.
    pub fn assemble(
        &mut self,
        base: &[u8],
        table: &mut SectionTable,
        out: &mut Vec<u8>,
    ) -> Assembly {
        let written = |unchanged| Assembly {
            len: self.len,
            unchanged,
            encoded: self.encoded,
        };
        if self.whole {
            out.extend_from_slice(&self.bytes);
            table.fill(&self.listed);
            return written(Vec::new());
        }
        let bounds = &mut table.bounds;
        assert_eq!(
            bounds.len(),
            self.sections + 1,
            "an update assembled onto the image of another matcher"
        );
        let start = out.len();
        let mut unchanged = std::mem::take(&mut self.runs);
        out.extend_from_slice(&self.bytes[..HEAD]);
        // Sections `..next` are in the image, `bounds[next..]` still the
        // base's; the end of the image comes last.
        let (mut next, mut from) = (0, HEAD);
        let end = (self.sections as u32, self.bytes.len());
        for &(i, to) in self.listed.iter().chain([&end]) {
            let i = i as usize;
            if next < i {
                let (a, b) = (bounds[next], bounds[i]);
                let here = out.len() - start;
                unchanged.push((a, here, b - a));
                out.extend_from_slice(&base[a..b]);
                let shift = here.wrapping_sub(a);
                for bound in &mut bounds[next..i] {
                    *bound = bound.wrapping_add(shift);
                }
            }
            bounds[i] = out.len() - start;
            out.extend_from_slice(&self.bytes[from..to]);
            (next, from) = (i + 1, to);
        }
        debug_assert_eq!(out.len() - start, self.len, "sized before it was written");
        written(unchanged)
    }
}

/// Writes `entries` in one sized write of `u32`s: `len` of them for
/// each entry, its `words`.
fn encode_words<'a, T, W>(
    w: &mut ByteWriter,
    entries: &'a [T],
    len: impl Fn(&T) -> usize,
    words: impl Fn(&'a T) -> W,
) where
    W: Iterator<Item = u32>,
{
    let total = entries.iter().map(len).sum::<usize>();
    let mut out = w.zeroed(4 * total).chunks_exact_mut(4);
    for entry in entries {
        // The entry's words lead the zip: the run is not drawn from
        // once they end.
        for (v, word) in words(entry).zip(&mut out) {
            word.copy_from_slice(&v.to_le_bytes());
        }
    }
}

/// A token's words: its length, then its WME ids.
fn token_words(token: &Token) -> impl Iterator<Item = u32> + '_ {
    let ids = token.wmes().iter().map(|id| id.index() as u32);
    std::iter::once(token.len() as u32).chain(ids)
}

/// Writes tokens, each as its length and its WME ids.
pub(crate) fn encode_tokens(w: &mut ByteWriter, tokens: &[Token]) {
    encode_words(w, tokens, |token| 1 + token.len(), token_words);
}

pub(crate) fn decode_token(r: &mut ByteReader<'_>) -> Result<Token, CodecError> {
    let n = r.u32()? as usize;
    let mut wmes = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        wmes.push(WmeId::from_index(r.u32()? as usize));
    }
    Ok(Token::from_wmes(wmes))
}

/// The work counters, in image order.
fn stat_fields(s: &mut MatchStats) -> [&mut u64; 14] {
    [
        &mut s.changes,
        &mut s.inserts,
        &mut s.constant_tests,
        &mut s.alpha_mem_ops,
        &mut s.right_activations,
        &mut s.left_activations,
        &mut s.join_tests,
        &mut s.pairs_scanned,
        &mut s.beta_mem_ops,
        &mut s.tokens_created,
        &mut s.conflict_changes,
        &mut s.peak_tokens,
        &mut s.live_tokens,
        &mut s.phantom_removes,
    ]
}

/// Where the bytes of a `PSMR` image go, summed over its memories.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImageParts {
    /// The entries themselves: WME ids, tokens, match counts.
    pub entries: usize,
    /// The chain links threaded through them.
    pub links: usize,
    /// The chain heads and their key fingerprints.
    pub heads: usize,
    /// Everything else: header, work counters, per-memory counts.
    pub rest: usize,
}

/// Writes one memory: slot count, entries (all of them through
/// `entries`), links as they are and — with the links, the index as it
/// is: a restored matcher walks each chain in the order this one does —
/// each slot's heads in ascending key order, as the slot's table holds
/// them. Each part is one sized write, and each slot's heads another.
pub(crate) fn encode_memory<T>(
    w: &mut ByteWriter,
    memory: &Memory<T>,
    parts: &mut ImageParts,
    entries: impl Fn(&mut ByteWriter, &[T]),
) {
    w.u32(memory.slots.len() as u32);
    w.u32(memory.entries.len() as u32);
    let start = w.len();
    entries(w, &memory.entries);
    parts.entries += w.len() - start;
    let start = w.len();
    w.u32s(memory.links.iter().copied());
    parts.links += w.len() - start;
    let start = w.len();
    for heads in memory.heads.iter() {
        heads.encode(w);
    }
    parts.heads += w.len() - start;
}

/// How many bytes [`encode_memory`] writes for `memory`, each entry
/// taking `entry` bytes.
fn memory_len<T>(memory: &Memory<T>, entry: impl Fn(&T) -> usize) -> usize {
    let heads: usize = memory.heads.iter().map(|heads| 4 + 8 * heads.len()).sum();
    let entries: usize = memory.entries.iter().map(entry).sum();
    4 + 4 + entries + 4 * memory.links.len() + heads
}

/// Reads a memory of the given `slots`, rejecting a slot count that is
/// not theirs, a slot whose heads do not strictly ascend by key (each
/// slot's table is then built in one pass, however its keys cluster)
/// and parts that fail [`Memory::audit`].
pub(crate) fn decode_memory<T>(
    r: &mut ByteReader<'_>,
    slots: &[Slot],
    item: impl Fn(&mut ByteReader<'_>) -> Result<T, CodecError>,
) -> Result<Memory<T>, CodecError> {
    let k = slots.len();
    if r.u32()? as usize != k {
        return Err(CodecError::Invalid("memory's slots do not fit its node"));
    }
    let n = r.u32()? as usize;
    let mut entries = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        entries.push(item(r)?);
    }
    let mut links = Vec::new();
    r.u32s(n.saturating_mul(k), &mut links)?;
    let (mut heads, mut pairs) = (Vec::with_capacity(k), Vec::new());
    for _ in 0..k {
        pairs.clear();
        for _ in 0..r.u32()? {
            let (key, head) = (r.u32()?, r.u32()?);
            if head as usize >= n {
                return Err(CodecError::Invalid("chain link out of place"));
            }
            pairs.push((key, head));
        }
        let slot = Heads::from_ascending(&pairs);
        heads.push(slot.ok_or(CodecError::Invalid("chain heads out of key order"))?);
    }
    let mut memory = Memory::new(slots.to_vec());
    (memory.entries, memory.links, memory.heads) = (entries, links, heads.into());
    memory.audit().map_err(CodecError::Invalid)?;
    Ok(memory)
}

fn encode_wmes(w: &mut ByteWriter, ids: &[WmeId]) {
    w.u32s(ids.iter().map(|id| id.index() as u32));
}

fn decode_wme(r: &mut ByteReader<'_>) -> Result<WmeId, CodecError> {
    Ok(WmeId::from_index(r.u32()? as usize))
}

/// Writes negative entries, each as its token and its match count.
fn encode_negatives(w: &mut ByteWriter, entries: &[NegEntry]) {
    encode_words(
        w,
        entries,
        |entry| 2 + entry.token.len(),
        |entry| token_words(&entry.token).chain([entry.count]),
    );
}

fn decode_negative(r: &mut ByteReader<'_>) -> Result<NegEntry, CodecError> {
    let token = decode_token(r)?;
    Ok(NegEntry {
        token,
        count: r.u32()?,
    })
}

/// Which sections changed since [`ReteMatcher::encode_changes`] last
/// ran, and how long each section is.
///
/// Every update opens a new epoch. A matcher site that files, unfiles or
/// recounts a memory marks it ([`Marks::mark`]): the first mark in an
/// epoch stamps the memory with the epoch and lists its section, so the
/// list holds each changed section once and grows with what changed,
/// not with what is resident. An update takes the list
/// ([`Marks::drain`]) and opens the next epoch. The epoch is 64 bits
/// wide so that it never comes round to a memory's stale stamp.
#[derive(Debug, Default)]
pub(crate) struct Marks {
    epoch: Cell<u64>,
    touched: RefCell<Vec<u32>>,
    /// Whether an update was taken: until one is, the next lists every
    /// section.
    taken: Cell<bool>,
    /// Each section's length when an update last encoded it, and their
    /// sum. A section no update lists has not changed since, so its
    /// bytes in the last update's image are that long.
    lens: RefCell<Vec<u32>>,
    body: Cell<usize>,
}

impl Marks {
    /// Notes that `memory`, section `section` of the image, changed.
    #[inline]
    pub(crate) fn mark<T>(&mut self, memory: &mut Memory<T>, section: usize) {
        let epoch = self.epoch.get();
        if memory.epoch != epoch {
            memory.epoch = epoch;
            self.touched.get_mut().push(section as u32);
        }
    }

    /// Hands `image` the sections marked since the last update, in image
    /// order — `None` for the first update, which writes every section —
    /// then opens a new epoch with none marked.
    fn drain<R>(&self, image: impl FnOnce(Option<&[u32]>) -> R) -> R {
        let mut touched = self.touched.borrow_mut();
        touched.sort_unstable();
        debug_assert!(touched.windows(2).all(|w| w[0] < w[1]), "listed once");
        let out = image(self.taken.replace(true).then_some(&touched[..]));
        touched.clear();
        self.epoch.set(self.epoch.get() + 1);
        out
    }
}

impl ReteMatcher {
    /// Serializes all dynamic matcher state into a versioned snapshot:
    /// every section encoded from nothing into a buffer sized first (see
    /// the module docs). It reads and changes nothing that
    /// [`ReteMatcher::encode_changes`] keeps.
    ///
    /// The compiled network is *not* included — it is static and cheap
    /// to recompile — so [`ReteMatcher::restore`] needs the same
    /// [`Network`] the snapshot was taken against.
    pub fn snapshot(&self) -> ReteSnapshot {
        self.snapshot_parts().0
    }

    /// [`ReteMatcher::snapshot`], with where its bytes went.
    pub fn snapshot_parts(&self) -> (ReteSnapshot, ImageParts) {
        let sections = self.alpha_mems.len() + self.states.len();
        let len = HEAD + (0..sections).map(|i| self.section_len(i)).sum::<usize>();
        let mut w = ByteWriter::over(Vec::with_capacity(len));
        self.encode_head(&mut w);
        let mut parts = ImageParts::default();
        let encoded = (0..sections)
            .filter(|&i| self.encode_section(&mut w, i, &mut parts))
            .count();
        let bytes = w.finish();
        debug_assert_eq!(bytes.len(), len, "sized before it was written");
        parts.rest = len - parts.entries - parts.links - parts.heads;
        let snapshot = ReteSnapshot {
            bytes: Arc::new(bytes),
            at: 0,
            len,
            unchanged: Vec::new(),
            encoded,
        };
        (snapshot, parts)
    }

    /// The first half of an image (see the module docs): the header and
    /// the sections that changed since the last call — every section on
    /// the first, into a buffer sized beforehand — encoded into
    /// `update`, whose buffers are reused, and how long the image is.
    /// [`ImageUpdate::assemble`] makes the image of it, given the image
    /// the last call's update made and its table.
    pub fn encode_changes(&self, update: &mut ImageUpdate) {
        let sections = self.alpha_mems.len() + self.states.len();
        update.listed.clear();
        update.sections = sections;
        update.encoded = 0;
        let mut bytes = std::mem::take(&mut update.bytes);
        bytes.clear();
        self.marks.drain(|listed| {
            let mut lens = self.marks.lens.borrow_mut();
            update.whole = listed.is_none();
            if update.whole {
                lens.clear();
                lens.extend((0..sections).map(|i| self.section_len(i) as u32));
                self.marks
                    .body
                    .set(lens.iter().map(|&len| len as usize).sum());
                bytes.reserve_exact(HEAD + self.marks.body.get());
            }
            let mut w = ByteWriter::over(bytes);
            self.encode_head(&mut w);
            let mut body = self.marks.body.get();
            let mut encode = |i: usize| {
                let start = w.len();
                let memory = self.encode_section(&mut w, i, &mut ImageParts::default());
                update.encoded += usize::from(memory);
                let len = w.len() - start;
                debug_assert!(listed.is_some() || len == lens[i] as usize, "sized right");
                body = body - lens[i] as usize + len;
                lens[i] = len as u32;
                update.listed.push((i as u32, w.len()));
            };
            match listed {
                Some(listed) => listed.iter().for_each(|&i| encode(i as usize)),
                None => (0..sections).for_each(encode),
            }
            self.marks.body.set(body);
            update.bytes = w.finish();
        });
        update.len = HEAD + self.marks.body.get();
        update.runs = match update.whole {
            true => Vec::new(),
            false => Vec::with_capacity(update.listed.len() + 1),
        };
    }

    /// Writes the header: magic and version, node and alpha-memory
    /// counts, the memory-strategy tag and the work counters.
    fn encode_head(&self, w: &mut ByteWriter) {
        w.bytes(&MAGIC);
        w.u32(VERSION);
        w.usize(self.network().nodes.len());
        w.usize(self.alpha_mems.len());
        w.u8(match self.memory {
            MemoryStrategy::Linear => 0,
            MemoryStrategy::Hashed => 1,
        });
        for field in stat_fields(&mut self.stats.clone()) {
            w.u64(*field);
        }
        debug_assert_eq!(w.len(), HEAD);
    }

    /// Writes section `i`: alpha memory `i`, or past the alpha memories
    /// a node's state. Returns whether the section is a memory.
    fn encode_section(&self, w: &mut ByteWriter, i: usize, parts: &mut ImageParts) -> bool {
        let Some(node) = i.checked_sub(self.alpha_mems.len()) else {
            encode_memory(w, &self.alpha_mems[i], parts, encode_wmes);
            return true;
        };
        match &self.states[node] {
            NodeState::Mem(memory) => {
                w.u8(0);
                encode_memory(w, memory, parts, encode_tokens);
            }
            NodeState::Neg(memory) => {
                w.u8(1);
                encode_memory(w, memory, parts, encode_negatives);
            }
            NodeState::Stateless => {
                w.u8(2);
                return false;
            }
        }
        true
    }

    /// How many bytes [`ReteMatcher::encode_section`] writes for
    /// section `i`.
    fn section_len(&self, i: usize) -> usize {
        let Some(node) = i.checked_sub(self.alpha_mems.len()) else {
            return memory_len(&self.alpha_mems[i], |_| 4);
        };
        1 + match &self.states[node] {
            NodeState::Mem(memory) => memory_len(memory, |token| 4 * (1 + token.len())),
            NodeState::Neg(memory) => memory_len(memory, |entry| 4 * (2 + entry.token.len())),
            NodeState::Stateless => 0,
        }
    }

    /// Rebuilds a matcher from `snapshot` over `network`.
    ///
    /// `network` must be (structurally) the network the snapshot was
    /// taken against: node and alpha-memory counts, each node's kind of
    /// state and each memory's slot count are checked, and so is every
    /// chain link.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on bad magic/version, malformed data, or a
    /// network whose shape does not match the snapshot.
    pub fn restore(network: Arc<Network>, snapshot: &ReteSnapshot) -> Result<Self, CodecError> {
        let (mut r, version) = ByteReader::with_header(snapshot.as_bytes(), MAGIC)?;
        if version != VERSION {
            return Err(CodecError::BadVersion {
                supported: VERSION,
                found: version,
            });
        }
        let nodes = r.usize()?;
        let alphas = r.usize()?;
        if nodes != network.nodes.len() || alphas != network.alpha.len() {
            return Err(CodecError::Invalid("snapshot does not match this network"));
        }
        let memory = match r.u8()? {
            0 => MemoryStrategy::Linear,
            1 => MemoryStrategy::Hashed,
            _ => return Err(CodecError::Invalid("bad memory-strategy tag")),
        };
        // Built empty first: its memories say what slots the image's
        // must have.
        let mut matcher = ReteMatcher::with_memory(network, memory);
        for field in stat_fields(&mut matcher.stats) {
            *field = r.u64()?;
        }
        for memory in &mut matcher.alpha_mems {
            *memory = decode_memory(&mut r, &memory.slots, decode_wme)?;
        }
        for state in &mut matcher.states {
            match (state, r.u8()?) {
                (NodeState::Mem(memory), 0) => {
                    *memory = decode_memory(&mut r, &memory.slots, decode_token)?;
                }
                (NodeState::Neg(memory), 1) => {
                    *memory = decode_memory(&mut r, &memory.slots, decode_negative)?;
                }
                (NodeState::Stateless, 2) => {}
                _ => return Err(CodecError::Invalid("node state does not fit its node")),
            }
        }
        if !r.is_done() {
            return Err(CodecError::Invalid("trailing bytes after snapshot"));
        }
        Ok(matcher)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::{parse_program, parse_wme, Change, Matcher, SymbolTable, WorkingMemory};

    const SRC: &str = "(p r1 (a ^x <v>) - (b ^y <v>) (c ^z <v>) --> (halt))\n\
                       (p r2 (a ^x <v>) (c ^z <v>) --> (remove 1))";

    /// The image a checkpoint keeps, with its table: what the next
    /// update is assembled onto.
    #[derive(Default)]
    struct Kept {
        update: ImageUpdate,
        table: SectionTable,
        image: Arc<Vec<u8>>,
    }

    impl Kept {
        /// `m`'s next update assembled onto the kept image into a buffer
        /// of its size, kept in its place: a snapshot of it, with the
        /// runs it copied as its `unchanged()`.
        fn next(&mut self, m: &ReteMatcher) -> ReteSnapshot {
            m.encode_changes(&mut self.update);
            let mut out = Vec::with_capacity(self.update.image_len());
            let written = self.update.assemble(&self.image, &mut self.table, &mut out);
            self.image = Arc::new(out);
            ReteSnapshot::within(Arc::clone(&self.image), 0, &written)
        }
    }

    fn build_state(
        hashed: bool,
    ) -> (
        ReteMatcher,
        WorkingMemory,
        SymbolTable,
        Vec<ops5::WmeId>,
        ops5::Program,
    ) {
        let program = parse_program(SRC).unwrap();
        let mut m = if hashed {
            ReteMatcher::compile_hashed(&program).unwrap()
        } else {
            ReteMatcher::compile_linear(&program).unwrap()
        };
        let mut wm = WorkingMemory::new();
        let mut syms = program.symbols.clone();
        let mut ids = Vec::new();
        for src in ["(a ^x 1)", "(c ^z 1)", "(b ^y 2)", "(a ^x 2)", "(c ^z 2)"] {
            let (id, _) = wm.add(parse_wme(src, &mut syms).unwrap());
            m.process(&wm, &[Change::Add(id)]);
            ids.push(id);
        }
        (m, wm, syms, ids, program)
    }

    #[test]
    fn roundtrip_preserves_state_and_future_behavior() {
        for hashed in [false, true] {
            let (mut live, mut wm, mut syms, _ids, _program) = build_state(hashed);
            let snap = live.snapshot();
            let mut restored = ReteMatcher::restore(live.network().clone(), &snap).unwrap();
            assert_eq!(restored.resident_tokens(), live.resident_tokens());
            assert_eq!(restored.stats(), live.stats());
            assert_eq!(
                restored.snapshot().as_bytes(),
                snap.as_bytes(),
                "snapshot of a restored matcher is byte-identical"
            );

            // Both matchers process the same future change identically.
            let (id, _) = wm.add(parse_wme("(b ^y 1)", &mut syms).unwrap());
            let mut d1 = live.process(&wm, &[Change::Add(id)]);
            let mut d2 = restored.process(&wm, &[Change::Add(id)]);
            d1.canonicalize();
            d2.canonicalize();
            assert_eq!(d1, d2);
            assert_eq!(
                restored.snapshot().as_bytes(),
                live.snapshot().as_bytes(),
                "states stay byte-identical after further changes"
            );
        }
    }

    /// The same on a state only removals produce: memories hundreds of
    /// entries long whose chains were unlinked from the middle and
    /// repointed at swap-moved entries. The restored matcher
    /// scans them in the lived-through order, so from then on it emits
    /// the same deltas in the same order and re-encodes to the same bytes.
    #[test]
    fn roundtrip_preserves_bucketed_negative_memories_through_churn() {
        use crate::runtime::tests::{closure_churn, CHURN_STEPS, CLOSURE};
        let program = parse_program(CLOSURE).unwrap();
        let mut live = ReteMatcher::compile(&program).unwrap();
        let mut restored: Option<ReteMatcher> = None;
        let mut step = 0;
        closure_churn(&program, 0x5EED, CHURN_STEPS, |wm, change| {
            step += 1;
            let delta = live.process(wm, &[change]);
            if let Some(restored) = &mut restored {
                assert_eq!(restored.process(wm, &[change]), delta, "step {step}");
            }
            if step == CHURN_STEPS * 2 / 3 {
                let snap = live.snapshot();
                assert!(
                    live.resident_index_buckets() > 12,
                    "negative buckets in the image"
                );
                let back = ReteMatcher::restore(live.network().clone(), &snap).unwrap();
                assert_eq!(back.snapshot().as_bytes(), snap.as_bytes());
                assert_eq!(back.resident_index_entries(), live.resident_index_entries());
                restored = Some(back);
            }
            if step % 64 == 0 || step == CHURN_STEPS {
                if let Some(restored) = &restored {
                    assert_eq!(
                        restored.snapshot().as_bytes(),
                        live.snapshot().as_bytes(),
                        "step {step}"
                    );
                }
            }
        });
        let restored = restored.expect("snapshot step reached");
        assert_eq!(restored.snapshot().as_bytes(), live.snapshot().as_bytes());
        assert_eq!(restored.resident_tokens(), 0);
        assert_eq!(restored.resident_index_buckets(), 0);
    }

    /// The section writer as it was before its parts were bulk writes,
    /// one `u32` at a time, each slot's heads through [`Heads::iter`]:
    /// the oracle [`encode_memory`] is held to.
    fn reference_memory<T>(
        w: &mut ByteWriter,
        memory: &Memory<T>,
        parts: &mut ImageParts,
        item: impl Fn(&mut ByteWriter, &T),
    ) {
        w.u32(memory.slots.len() as u32);
        w.u32(memory.entries.len() as u32);
        let start = w.len();
        for entry in &memory.entries {
            item(w, entry);
        }
        parts.entries += w.len() - start;
        let start = w.len();
        for &link in &memory.links {
            w.u32(link);
        }
        parts.links += w.len() - start;
        let start = w.len();
        for heads in memory.heads.iter() {
            w.u32(heads.len() as u32);
            for (key, head) in heads.iter() {
                w.u32(key);
                w.u32(head);
            }
        }
        parts.heads += w.len() - start;
    }

    fn reference_token(w: &mut ByteWriter, token: &Token) {
        w.u32(token.len() as u32);
        for &id in token.wmes() {
            w.u32(id.index() as u32);
        }
    }

    /// Holds `memory`'s section, written by [`encode_memory`] after a
    /// byte already in the writer, to [`reference_memory`]'s: the same
    /// bytes, the same parts. Returns whether a slot's heads table
    /// overflowed its window.
    fn assert_encodes_as_reference<T>(
        memory: &Memory<T>,
        entries: impl Fn(&mut ByteWriter, &[T]),
        item: impl Fn(&mut ByteWriter, &T),
        at: &str,
    ) -> bool {
        let mut written = [(); 2].map(|_| (ByteWriter::new(), ImageParts::default()));
        for (w, _) in &mut written {
            w.u8(0xA5);
        }
        let [(mut bulk, mut bulk_parts), (mut single, mut single_parts)] = written;
        encode_memory(&mut bulk, memory, &mut bulk_parts, entries);
        reference_memory(&mut single, memory, &mut single_parts, item);
        assert_eq!(bulk_parts, single_parts, "{at}: parts");
        assert_eq!(bulk.finish(), single.finish(), "{at}: bytes");
        memory.heads.iter().any(Heads::overflowed)
    }

    /// A key for slot `slot` of an entry whose words are `words`, drawn
    /// so that slots share chains, spread keys grow a table, keys at the
    /// top of the range pile into its last home bucket and past it, and
    /// some entries are on no chain of a slot.
    fn oracle_key(words: &[u32], slot: &[crate::kernel::KeyPart]) -> Option<u32> {
        let mut h = 0xCBF2_9CE4_8422_2325u64 ^ slot.len() as u64;
        for &word in words {
            h = (h ^ u64::from(word)).wrapping_mul(0x0100_0000_01B3);
        }
        let pick = (h >> 40) as u32;
        match h % 8 {
            0 => None,
            1 | 2 => Some(pick % 5),
            3 | 4 => Some(u32::MAX - pick % 24),
            _ => Some(pick.wrapping_mul(0x9E37_79B9)),
        }
    }

    /// [`encode_memory`] writes the bytes and parts of the per-`u32`
    /// writer it replaced, for alpha, beta and negative memories of 0–3
    /// key slots, empty, filled through seeded inserts and removes with
    /// tokens of 0–9 WME ids — in place and spilled — until the heads
    /// tables have grown and overflowed their window, and drained back
    /// to empty.
    #[test]
    fn bulk_sections_are_the_per_word_writers_bytes() {
        use crate::kernel::KeyPart;
        use ops5::SymbolId;
        use psm_obs::Rng64;
        let steps = if cfg!(miri) { 40 } else { 700 };
        let mut overflowed = [false; 3];
        for k in 0..=3usize {
            let slots: Vec<Slot> = (0..k)
                .map(|s| (0..=s).map(|p| (s, SymbolId::from_index(p))).collect())
                .collect();
            let mut rng = Rng64::new(0x0B17 + k as u64);
            let token = |rng: &mut Rng64| {
                let n = rng.gen_range(0..10usize);
                let ids = (0..n).map(|_| WmeId::from_index(rng.gen_range(0..5_000usize)));
                Token::from_wmes(ids.collect())
            };
            let words = |token: &Token| -> Vec<u32> {
                token.wmes().iter().map(|id| id.index() as u32).collect()
            };
            let mut alpha: Memory<WmeId> = Memory::new(slots.clone());
            let mut beta: Memory<Token> = Memory::new(slots.clone());
            let mut negative: Memory<NegEntry> = Memory::new(slots.clone());
            let alpha_key = |id: &WmeId, slot: &[KeyPart]| oracle_key(&[id.index() as u32], slot);
            let token_key = |token: &Token, slot: &[KeyPart]| oracle_key(&words(token), slot);
            for step in 0..2 * steps {
                let at = format!("{k} slots, step {step}");
                // Fill for the first half, drain for the second.
                let insert = step < steps && rng.gen_range(0..4u32) > 0;
                if insert {
                    let id = WmeId::from_index(rng.gen_range(0..5_000usize));
                    alpha.insert(id, alpha_key);
                    beta.insert(token(&mut rng), token_key);
                    let (token, count) = (token(&mut rng), rng.gen_range(0..4u32));
                    negative.insert(NegEntry { token, count }, token_key);
                } else {
                    if !alpha.entries.is_empty() {
                        let id = alpha.entries[rng.gen_range(0..alpha.entries.len())];
                        assert_eq!(alpha.remove(&id, alpha_key), Some(id), "{at}");
                    }
                    if !beta.entries.is_empty() {
                        let t = beta.entries[rng.gen_range(0..beta.entries.len())].clone();
                        assert!(beta.remove(&t, token_key).is_some(), "{at}");
                    }
                    if !negative.entries.is_empty() {
                        let i = rng.gen_range(0..negative.entries.len());
                        let t = negative.entries[i].token.clone();
                        assert!(negative.remove(&t, token_key).is_some(), "{at}");
                    }
                }
                let reference_wme = |w: &mut ByteWriter, id: &WmeId| w.u32(id.index() as u32);
                let reference_negative = |w: &mut ByteWriter, entry: &NegEntry| {
                    reference_token(w, &entry.token);
                    w.u32(entry.count);
                };
                let alpha_at = format!("{at}, alpha");
                overflowed[0] |=
                    assert_encodes_as_reference(&alpha, encode_wmes, reference_wme, &alpha_at);
                let beta_at = format!("{at}, beta");
                overflowed[1] |=
                    assert_encodes_as_reference(&beta, encode_tokens, reference_token, &beta_at);
                let negative_at = format!("{at}, negative");
                overflowed[2] |= assert_encodes_as_reference(
                    &negative,
                    encode_negatives,
                    reference_negative,
                    &negative_at,
                );
            }
            assert!(
                alpha.entries.is_empty() && beta.entries.is_empty(),
                "{k}: drained"
            );
            assert!(negative.entries.is_empty(), "{k}: drained");
            assert_eq!(alpha.chains() + beta.chains() + negative.chains(), 0);
        }
        if !cfg!(miri) {
            assert_eq!(overflowed, [true; 3], "a table past its window");
        }
    }

    /// Each slot's heads in `memory`, as its image lists them.
    fn listed_heads<T>(
        memory: &Memory<T>,
        entries: impl Fn(&mut ByteWriter, &[T]),
    ) -> Vec<Vec<(u32, u32)>> {
        let (mut w, mut parts) = (ByteWriter::new(), ImageParts::default());
        encode_memory(&mut w, memory, &mut parts, entries);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes[bytes.len() - parts.heads..]);
        let mut slots = Vec::new();
        while !r.is_done() {
            let n = r.u32().unwrap();
            slots.push(
                (0..n)
                    .map(|_| (r.u32().unwrap(), r.u32().unwrap()))
                    .collect(),
            );
        }
        slots
    }

    /// [`listed_heads`] of every memory of `m`, in image order.
    fn every_listed_head(m: &ReteMatcher) -> Vec<Vec<(u32, u32)>> {
        let alpha = m
            .alpha_mems
            .iter()
            .flat_map(|memory| listed_heads(memory, encode_wmes));
        let nodes = m.states.iter().flat_map(|state| match state {
            NodeState::Mem(memory) => listed_heads(memory, encode_tokens),
            NodeState::Neg(memory) => listed_heads(memory, encode_negatives),
            NodeState::Stateless => Vec::new(),
        });
        alpha.chain(nodes).collect()
    }

    /// Each slot's heads are listed in ascending key order, so the image
    /// of a matcher whose head tables filled through a churn and drained
    /// through three quarters of its retractions is the image of one
    /// restored from it, whose tables were filled once, in image order —
    /// though the live tables are still sized for the churn's peak.
    #[test]
    fn heads_are_listed_by_key_whatever_the_tables_history() {
        use crate::runtime::tests::{closure_churn, CHURN_STEPS, CLOSURE};
        let program = parse_program(CLOSURE).unwrap();
        let mut live = ReteMatcher::compile(&program).unwrap();
        let mut changes = 0;
        closure_churn(&program, 0x5EED, CHURN_STEPS, |_, _| changes += 1);
        let stop = CHURN_STEPS + (changes - CHURN_STEPS) * 3 / 4;
        let mut step = 0;
        closure_churn(&program, 0x5EED, CHURN_STEPS, |wm, change| {
            step += 1;
            if step <= stop {
                live.process(wm, &[change]);
            }
        });
        let snap = live.snapshot();
        let restored = ReteMatcher::restore(live.network().clone(), &snap).unwrap();
        assert_eq!(restored.snapshot(), snap);
        let buckets = |m: &ReteMatcher| -> Vec<usize> {
            let alpha = m.alpha_mems.iter().flat_map(|memory| memory.heads.iter());
            let nodes = m.states.iter().flat_map(|state| match state {
                NodeState::Mem(memory) => &memory.heads[..],
                NodeState::Neg(memory) => &memory.heads[..],
                NodeState::Stateless => &[],
            });
            alpha.chain(nodes).map(Heads::buckets).collect()
        };
        assert_ne!(buckets(&live), buckets(&restored), "other histories");
        let listed = every_listed_head(&live);
        assert_eq!(listed, every_listed_head(&restored));
        assert!(
            listed.iter().any(|slot| slot.len() > 1),
            "some slot lists two"
        );
        for slot in &listed {
            let keys = slot.iter().map(|&(key, _)| key);
            assert!(keys.clone().zip(keys.skip(1)).all(|(a, b)| a < b));
        }
    }

    /// A negative node's right activation moves a match count and
    /// nothing else: no token enters or leaves a memory, so neither
    /// `insert` nor `remove` of the node's memory runs. Its section must
    /// still be written again.
    #[test]
    fn a_match_count_alone_makes_a_section_dirty() {
        let program = parse_program("(p r (a ^x <v>) - (b ^x <v>) --> (halt))").unwrap();
        let mut live = ReteMatcher::compile(&program).unwrap();
        let mut fresh = ReteMatcher::from_network(live.network().clone());
        let mut wm = WorkingMemory::new();
        let mut syms = program.symbols.clone();
        let mut kept = Kept::default();
        let mut previous = kept.next(&live);
        // The token arrives; one blocker retracts the instantiation, a
        // second changes no conflict set, and each leaving undoes that.
        let mut blockers = Vec::new();
        for (step, src) in ["(a ^x 1)", "(b ^x 1)", "(b ^x 1)", "-", "-"]
            .into_iter()
            .enumerate()
        {
            let change = match src {
                "-" => Change::Remove(blockers.pop().expect("a blocker")),
                _ => Change::Add(wm.add(parse_wme(src, &mut syms).unwrap()).0),
            };
            let delta = live.process(&wm, &[change]);
            assert_eq!(fresh.process(&wm, &[change]), delta);
            assert_eq!(delta.is_empty(), matches!(step, 2 | 3), "step {step}");
            match change {
                Change::Add(id) if step > 0 => blockers.push(id),
                Change::Add(_) => {}
                Change::Remove(id) => drop(wm.remove(id)),
            }
            let next = kept.next(&live);
            assert_eq!(next.as_bytes(), fresh.snapshot_parts().0.as_bytes());
            assert_ne!(next, previous, "step {step}");
            assert!(!next.unchanged().is_empty(), "step {step}: the rest copied");
            previous = next;
        }
        assert_eq!(kept.next(&live), previous);
    }

    /// Each filer the parallel engine calls between its phases marks
    /// the one memory it changed, and nothing when it changed nothing.
    #[test]
    fn a_single_filing_encodes_one_section_and_a_phantom_remove_none() {
        use crate::kernel::Sign;
        use crate::network::NodeKind;
        let program = parse_program("(p r (a ^x <v>) (c ^y <v>) - (b ^x <v>) --> (halt))").unwrap();
        let mut m = ReteMatcher::compile(&program).unwrap();
        let network = m.network().clone();
        let node = |kind| {
            network
                .iter()
                .find(|(_, spec)| spec.kind == kind)
                .unwrap()
                .0
        };
        let (beta, negative) = (node(NodeKind::BetaMemory), node(NodeKind::Negative));
        let alpha = network.node(node(NodeKind::Join)).alpha.unwrap();
        let mut wm = WorkingMemory::new();
        let mut syms = program.symbols.clone();
        let mut wme = |src| wm.add(parse_wme(src, &mut syms).unwrap()).0;
        let (a, c, stray) = (wme("(a ^x 1)"), wme("(c ^y 1)"), wme("(a ^x 2)"));
        let (one, two) = (Token::from_wmes(vec![a]), Token::from_wmes(vec![a, c]));
        let (stray_one, stray_two) = (
            Token::from_wmes(vec![stray]),
            Token::from_wmes(vec![stray, c]),
        );
        let mut kept = Kept::default();
        kept.next(&m);
        type Filing<'a> = Box<dyn Fn(&mut ReteMatcher) + 'a>;
        let filings: [(&str, usize, Filing); 8] = [
            (
                "file_wme",
                1,
                Box::new(|m| m.file_wme(alpha, a, Sign::Plus, &wm)),
            ),
            (
                "file_token",
                1,
                Box::new(|m| m.file_token(beta, &one, Sign::Plus, &wm)),
            ),
            (
                "file_negative",
                1,
                Box::new(|m| m.file_negative(negative, &two, 0, Sign::Plus, &wm)),
            ),
            ("recount", 1, Box::new(|m| m.recount(negative, 0, 1))),
            (
                "phantom file_wme",
                0,
                Box::new(|m| m.file_wme(alpha, stray, Sign::Minus, &wm)),
            ),
            (
                "phantom file_token",
                0,
                Box::new(|m| m.file_token(beta, &stray_one, Sign::Minus, &wm)),
            ),
            (
                "phantom file_negative",
                0,
                Box::new(|m| m.file_negative(negative, &stray_two, 0, Sign::Minus, &wm)),
            ),
            (
                "unfile_negative",
                1,
                Box::new(|m| m.file_negative(negative, &two, 0, Sign::Minus, &wm)),
            ),
        ];
        for (what, sections, filing) in filings {
            filing(&mut m);
            let next = kept.next(&m);
            assert_eq!(next.encoded_sections(), sections, "{what}");
            assert_eq!(next.as_bytes(), m.snapshot_parts().0.as_bytes(), "{what}");
        }
        assert_eq!(m.stats().phantom_removes, 2, "alpha memories count none");
    }

    /// An image written from nothing — every snapshot, a matcher's first
    /// update, a restored matcher's first snapshot — is written into a
    /// buffer sized for it beforehand and never grown: its capacity is
    /// its length. So is every update's image after the first, each
    /// assembled into a buffer of its size.
    #[test]
    fn an_image_is_written_into_a_buffer_of_its_size() {
        use crate::runtime::tests::{closure_churn, CHURN_STEPS, CLOSURE};
        let program = parse_program(CLOSURE).unwrap();
        let mut live = ReteMatcher::compile(&program).unwrap();
        let exact = |snapshot: &ReteSnapshot, what: &str| {
            assert_eq!(snapshot.bytes.capacity(), snapshot.len(), "{what}");
            assert_eq!(
                (snapshot.at, snapshot.bytes.len()),
                (0, snapshot.len()),
                "{what}"
            );
        };
        let mut kept = Kept::default();
        exact(&live.snapshot(), "empty, snapshot");
        exact(&kept.next(&live), "empty, first update");
        assert!(kept.update.whole, "the first update lists every section");
        assert_eq!(kept.update.bytes.capacity(), kept.update.image_len());
        let mut step = 0;
        closure_churn(&program, 0xB0F, CHURN_STEPS, |wm, change| {
            step += 1;
            live.process(wm, &[change]);
            if step % 97 == 0 {
                exact(&kept.next(&live), &format!("step {step}, update"));
                let (fresh, _) = live.snapshot_parts();
                exact(&fresh, &format!("step {step}, from nothing"));
                let restored = ReteMatcher::restore(live.network().clone(), &fresh).unwrap();
                let first = restored.snapshot();
                exact(&first, &format!("step {step}, restored"));
                assert_eq!(first, fresh);
            }
        });
        assert!(step > 97 * 4, "{step} steps");
    }

    /// A snapshot reads nothing the updates keep: on a churn, updates
    /// assembled onto the image and table their caller keeps, with
    /// snapshots taken between them in every interleaving, are each the
    /// image a twin fed the same changes encodes from nothing, and most
    /// updates leave sections to copy.
    #[test]
    fn snapshots_between_updates_leave_no_update_stale() {
        use crate::runtime::tests::{closure_churn, CHURN_STEPS, CLOSURE};
        let program = parse_program(CLOSURE).unwrap();
        let mut live = ReteMatcher::compile(&program).unwrap();
        let mut twin = ReteMatcher::from_network(live.network().clone());
        let mut kept = Kept::default();
        kept.next(&live);
        assert!(kept.update.whole, "the first update lists every section");
        let (mut step, mut assembled, mut partial) = (0, 0, 0);
        closure_churn(&program, 0x7A4E, CHURN_STEPS, |wm, change| {
            step += 1;
            live.process(wm, &[change]);
            twin.process(wm, &[change]);
            let fresh = || twin.snapshot_parts().0;
            // A snapshot on two steps in three, an update on every
            // fifth: runs of each with none of the other between.
            if step % 3 != 0 {
                assert_eq!(live.snapshot(), fresh(), "step {step}: snapshot");
            }
            if step % 5 == 0 {
                let previous = Arc::clone(&kept.image);
                let next = kept.next(&live);
                assert_eq!(next, fresh(), "step {step}: update");
                for &(old, new, len) in next.unchanged() {
                    let copied = &next.as_bytes()[new..new + len];
                    assert_eq!(previous[old..old + len], *copied, "step {step}");
                }
                partial += usize::from(!next.unchanged().is_empty());
                assert!(!kept.update.whole);
                assembled += 1;
            }
        });
        assert!(
            assembled > 100 && partial > assembled / 2,
            "{partial} of {assembled}"
        );
    }

    /// Two tokens on the one chain of a negative node; the image ends
    /// with that chain's head and the terminal's one-byte state.
    fn negative_bucket_image() -> (ReteMatcher, Vec<u8>) {
        let program = parse_program("(p r (a ^x <v>) - (b ^x <v>) --> (halt))").unwrap();
        let mut m = ReteMatcher::compile(&program).unwrap();
        let mut wm = WorkingMemory::new();
        let mut syms = program.symbols.clone();
        for _ in 0..2 {
            let (id, _) = wm.add(parse_wme("(a ^x 1)", &mut syms).unwrap());
            m.process(&wm, &[Change::Add(id)]);
        }
        let bytes = m.snapshot().as_bytes().to_vec();
        let tail = bytes.len() - 5;
        assert_eq!(bytes[tail..], [1, 0, 0, 0, 2], "entry 1 heads the chain");
        (m, bytes)
    }

    #[test]
    fn restore_rejects_a_chain_link_out_of_place() {
        let (m, bytes) = negative_bucket_image();
        let head = bytes.len() - 5;
        // Outside the memory, then inside it but at an entry the other
        // entry's `next` already names.
        for bad in [2u8, 0] {
            let mut bytes = bytes.clone();
            bytes[head] = bad;
            let restored =
                ReteMatcher::restore(m.network().clone(), &ReteSnapshot::from_bytes(bytes));
            assert!(
                matches!(restored, Err(CodecError::Invalid(_))),
                "head {bad}"
            );
        }
    }

    #[test]
    fn restore_rejects_a_version_4_image() {
        let (m, mut bytes) = negative_bucket_image();
        bytes[4..8].copy_from_slice(&4u32.to_le_bytes());
        assert_eq!(
            ReteMatcher::restore(m.network().clone(), &ReteSnapshot::from_bytes(bytes)).err(),
            Some(CodecError::BadVersion {
                supported: 5,
                found: 4
            })
        );
    }

    /// Node and alpha-memory counts alone do not make a network the
    /// image's: each pair below agrees on both (6 nodes, 3 alpha
    /// memories). An accepted image used to panic the next `process`
    /// (`unreachable: negative state`), or leave a keyed memory without
    /// the chains its joins probe.
    #[test]
    fn restore_rejects_a_network_of_the_same_size_and_another_shape() {
        let r2 = "(p r2 (c ^x <v>) --> (halt))";
        let join = format!("(p r1 (a ^x <v>) (b ^x <v>) --> (halt)) {r2}");
        // The second node's state is a negative memory, not none.
        let negative = format!("(p r1 (a ^x <v>) - (b ^x <v>) --> (halt)) {r2}");
        // No equality test: the memories have no key slot.
        let unkeyed = format!("(p r1 (a ^x <v>) (b ^x > <v>) --> (halt)) {r2}");
        let image = ReteMatcher::compile(&parse_program(&join).unwrap())
            .unwrap()
            .snapshot();
        for other in [negative, unkeyed] {
            let network = Arc::new(Network::compile(&parse_program(&other).unwrap()).unwrap());
            assert_eq!((network.nodes.len(), network.alpha.len()), (6, 3));
            assert!(
                matches!(
                    ReteMatcher::restore(network, &image),
                    Err(CodecError::Invalid(_))
                ),
                "{other}"
            );
        }
    }

    #[test]
    fn restore_rejects_mismatched_network() {
        let (live, ..) = build_state(false);
        let snap = live.snapshot();
        let other = parse_program("(p q (z ^w 1) --> (halt))").unwrap();
        let network = Arc::new(Network::compile(&other).unwrap());
        assert!(matches!(
            ReteMatcher::restore(network, &snap),
            Err(CodecError::Invalid(_))
        ));
    }
}
