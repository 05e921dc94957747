//! Delta checkpoints: `PSMD`, a binary diff between two `PSMC` images.
//!
//! Full checkpoints scale with working-memory size, so checkpointing
//! every few cycles on a large preset writes the same hundreds of
//! kilobytes over and over (Hiperfact's observation: the fact store is
//! the throughput-critical persistent structure, and delta encoding
//! against it is what makes frequent persistence affordable). A
//! [`DeltaCheckpoint`] instead stores only what changed since the
//! parent checkpoint, as a greedy block-match diff over the canonical
//! `PSMC` byte encoding:
//!
//! * ranges the writer of the child image says it took over unchanged
//!   (a matcher copies the sections of memories that did not change:
//!   [`rete::ReteSnapshot::unchanged`]) are compared with the parent's
//!   bytes and, where they hold, become [`DiffOp::Copy`] ranges
//!   outright; a hint that does not hold is dropped, so a wrong one
//!   costs time, never a wrong delta;
//! * what lies between two such ranges — a *gap*; with no hints, the
//!   whole image — is diffed against what lay between them in the
//!   parent: the common prefix and suffix first, then the parent's side
//!   is indexed in [`BLOCK`]-byte aligned blocks, by a word-wise 64-bit
//!   hash of each (a hit is verified against the bytes, the first of
//!   equal blocks wins);
//! * the child's side is scanned byte-by-byte, emitting
//!   [`DiffOp::Copy`] ranges (extended past the block while bytes keep
//!   matching, rsync-style, so insertions that shift later content
//!   still re-align) and literal [`DiffOp::Insert`] runs between them;
//! * the artifact records the parent's and the reconstructed child's
//!   CRC-32, so applying a delta to the wrong parent — or a corrupt
//!   delta to the right one — fails loudly instead of producing a
//!   plausible wrong state. That pair of CRCs is the chain-validity
//!   check.
//!
//! [`CheckpointChain`] strings deltas behind periodic full-snapshot
//! anchors: every `anchor_every`-th checkpoint is stored whole (and
//! prunes everything older), the rest as deltas against their
//! predecessor. The chain works on serialised images throughout — a
//! push takes an image written already ([`crate::Draft::write`]),
//! checksums it once and diffs it against the tip *image*, taking the
//! runs the image was written copying out of the tip's as they are — so
//! its cost follows what changed, not the number of times the store is
//! looked at; it keeps the gap list, block
//! index and op list of one diff for the next, and writes literal runs
//! straight from the new image into a `PSMD` buffer sized beforehand, so
//! a push allocates the artifact it stores and, once warm, nothing else.
//! [`CheckpointChain::restore_tip`] re-derives the latest checkpoint
//! purely from stored artifacts — the tests assert it is byte-identical
//! to the live one.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use ops5::{ByteReader, ByteWriter, CodecError, FxHashMap};

use crate::checkpoint::{Checkpoint, CheckpointImage};
use crate::segment::crc32;

const MAGIC: [u8; 4] = *b"PSMD";
const VERSION: u32 = 1;
/// Diff granularity: parent blocks are indexed at this alignment.
const BLOCK: usize = 32;

/// One diff instruction over the parent image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffOp {
    /// Copy `len` bytes from parent offset `off`.
    Copy {
        /// Byte offset into the parent image.
        off: usize,
        /// Bytes to copy.
        len: usize,
    },
    /// Emit literal bytes present only in the child.
    Insert(Vec<u8>),
}

/// A [`DiffOp`] as a diff finds it and a `PSMD` writes it: the literal
/// bytes stay where they are, in the child image (or in the op that owns
/// them), until they are written out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpRef<'a> {
    Copy { off: usize, len: usize },
    Insert(&'a [u8]),
}

impl DiffOp {
    fn as_ref(&self) -> OpRef<'_> {
        match self {
            DiffOp::Copy { off, len } => OpRef::Copy {
                off: *off,
                len: *len,
            },
            DiffOp::Insert(bytes) => OpRef::Insert(bytes),
        }
    }
}

/// One step of a diff under way: [`OpRef`] with the literal run named by
/// where it lies in the child image, so that the list of them borrows
/// nothing and can be kept from one diff to the next.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Span {
    Copy { off: usize, len: usize },
    Insert(Range<usize>),
}

impl Span {
    fn over<'a>(&self, new: &'a [u8]) -> OpRef<'a> {
        match self {
            Span::Copy { off, len } => OpRef::Copy {
                off: *off,
                len: *len,
            },
            Span::Insert(run) => OpRef::Insert(&new[run.clone()]),
        }
    }
}

/// Hash of one [`BLOCK`], a word at a time. Only an index key: every
/// hit is verified against the bytes, so a collision costs a missed
/// match, never a wrong copy. The fold after each multiply is what
/// keeps collisions out of real images: a `PSMC` image is mostly small
/// little-endian integers at odd offsets, so blocks often differ only
/// in the top bytes of a word, which a multiply alone never carries
/// down.
fn block_hash(block: &[u8]) -> u64 {
    let mut h = 0u64;
    for w in block.chunks_exact(8) {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
        h = (h ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
        h ^= h >> 32;
    }
    h
}

/// Length of the common prefix of `a` and `b`, compared a word at a
/// time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + 8 <= n {
        let x = u64::from_le_bytes(a[i..i + 8].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
        if x != y {
            return i + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Length of the common suffix of `a` and `b`, compared a word at a
/// time.
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[a.len() - n..], &b[b.len() - n..]);
    let mut i = 0;
    while i + 8 <= n {
        let x = u64::from_le_bytes(a[n - i - 8..n - i].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(b[n - i - 8..n - i].try_into().expect("8 bytes"));
        if x != y {
            return i + ((x ^ y).leading_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n && a[n - i - 1] == b[n - i - 1] {
        i += 1;
    }
    i
}

/// Appends a copy of `old[off..off + len]`, as part of the copy before
/// it when it carries on where that one ended.
fn push_copy(ops: &mut Vec<Span>, off: usize, len: usize) {
    match ops.last_mut() {
        _ if len == 0 => {}
        Some(Span::Copy {
            off: prev_off,
            len: prev_len,
        }) if *prev_off + *prev_len == off => *prev_len += len,
        _ => ops.push(Span::Copy { off, len }),
    }
}

/// Where the blocks of `old` that a search may match are, by key. Most
/// positions of `new` hold no block of `old`; `seen`, one bit per value
/// of a key's top 18 bits and small enough to stay in L1, says so
/// without a look at `at`.
#[derive(Debug, Clone)]
struct BlockIndex {
    seen: Vec<u64>,
    at: FxHashMap<u64, usize>,
}

impl Default for BlockIndex {
    fn default() -> Self {
        BlockIndex {
            seen: vec![0; 1 << 12],
            at: FxHashMap::default(),
        }
    }
}

impl BlockIndex {
    /// Empties the index, keeping its tables, with room for `blocks`.
    fn reset(&mut self, blocks: usize) {
        self.seen.fill(0);
        self.at.clear();
        self.at.reserve(blocks);
    }

    fn bit(key: u64) -> (usize, u64) {
        ((key >> 52) as usize, 1 << ((key >> 46) & 63))
    }

    /// The first of equal blocks wins; ties don't matter for
    /// correctness.
    fn insert(&mut self, key: u64, off: usize) {
        let (word, bit) = Self::bit(key);
        self.seen[word] |= bit;
        self.at.entry(key).or_insert(off);
    }

    fn get(&self, key: u64) -> Option<usize> {
        let (word, bit) = Self::bit(key);
        if self.seen[word] & bit == 0 {
            return None;
        }
        self.at.get(&key).copied()
    }
}

/// What lies between two verified hints (or an end of the images), with
/// the hint that follows it.
#[derive(Debug, Clone)]
struct Gap {
    /// Where the gap starts in `old`.
    from: usize,
    /// Its two sides, less the prefix and the suffix they share.
    old: Range<usize>,
    new: Range<usize>,
    /// Where the hint after it ends in `old`.
    to: usize,
}

impl Gap {
    /// Whether a block search can find anything in the gap.
    fn searchable(&self) -> bool {
        self.old.len() >= BLOCK && self.new.len() >= BLOCK
    }

    /// The [`BLOCK`]-aligned blocks of `old` inside the gap.
    fn blocks(&self) -> impl Iterator<Item = usize> {
        let first = self.old.start.next_multiple_of(BLOCK);
        (first..(self.old.end + 1).saturating_sub(BLOCK)).step_by(BLOCK)
    }

    /// Keeps the blocks of one gap apart from every other's in the one
    /// index.
    fn salt(nth: usize) -> u64 {
        (nth as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// Greedy block-match diff from `old` to `new`: [`diff_hinted`] with
/// nothing known.
///
/// Not minimal — past the common prefix and suffix, matches only start
/// at [`BLOCK`]-aligned offsets of `old` — but linear-ish,
/// deterministic, and small whenever most of `new` already exists in
/// `old`, which is exactly the checkpoint workload.
pub fn diff(old: &[u8], new: &[u8]) -> Vec<DiffOp> {
    diff_hinted(old, new, &[])
}

/// [`diff`], told where to look: each `(offset in old, offset in new,
/// length)` of `unchanged` claims those bytes of `new` are those bytes
/// of `old`.
///
/// A claim is believed only after comparing the bytes, and only if it
/// lies inside both images and after the claim before it in both; any
/// other is dropped. Whatever `unchanged` holds, applying the result to
/// `old` gives `new`.
pub fn diff_hinted(old: &[u8], new: &[u8], unchanged: &[(usize, usize, usize)]) -> Vec<DiffOp> {
    let mut differ = Differ::default();
    let spans = differ.diff(old, new, unchanged.iter().copied(), false);
    let owned = spans.iter().map(|span| match span.over(new) {
        OpRef::Copy { off, len } => DiffOp::Copy { off, len },
        OpRef::Insert(bytes) => DiffOp::Insert(bytes.to_vec()),
    });
    owned.collect()
}

/// The working storage of [`diff_hinted`] — gap list, block index, op
/// list — kept by whoever diffs again and again
/// ([`CheckpointChain::push`]), so that a diff allocates only while it
/// is larger than every diff before it.
#[derive(Debug, Clone, Default)]
struct Differ {
    gaps: Vec<Gap>,
    index: BlockIndex,
    ops: Vec<Span>,
}

impl Differ {
    /// [`diff_hinted`], the ops left as [`Span`]s of `new`; `copied`
    /// says the hints are ranges `new` was written copying out of `old`
    /// itself, whose bytes need no comparing.
    fn diff(
        &mut self,
        old: &[u8],
        new: &[u8],
        unchanged: impl Iterator<Item = (usize, usize, usize)>,
        copied: bool,
    ) -> &[Span] {
        let Differ { gaps, index, ops } = self;
        // The images' ends are one more (empty) range that holds, so that
        // what follows the last hint is a gap like the rest.
        let end = (old.len(), new.len(), 0);
        let hints = unchanged.filter(|hint| hint.2 > 0).chain([end]);
        gaps.clear();
        let (mut old_at, mut new_at) = (0, 0);
        for (o, n, len) in hints {
            let ends = o.checked_add(len).zip(n.checked_add(len));
            let inside = ends.is_some_and(|(o, n)| o <= old.len() && n <= new.len());
            let holds = || copied || old[o..o + len] == new[n..n + len];
            if !inside || o < old_at || n < new_at || !holds() {
                continue;
            }
            let (a, b) = (&old[old_at..o], &new[new_at..n]);
            let prefix = common_prefix(a, b);
            let suffix = common_suffix(&a[prefix..], &b[prefix..]);
            gaps.push(Gap {
                from: old_at,
                old: old_at + prefix..o - suffix,
                new: new_at + prefix..n - suffix,
                to: o + len,
            });
            (old_at, new_at) = (o + len, n + len);
        }

        // One index for every gap's blocks, built once: a block is filed
        // under its hash and its gap.
        let searchable = || gaps.iter().enumerate().filter(|(_, gap)| gap.searchable());
        index.reset(searchable().map(|(_, gap)| gap.old.len() / BLOCK).sum());
        for (nth, gap) in searchable() {
            for off in gap.blocks() {
                index.insert(block_hash(&old[off..off + BLOCK]) ^ Gap::salt(nth), off);
            }
        }

        ops.clear();
        for (nth, gap) in gaps.iter().enumerate() {
            push_copy(ops, gap.from, gap.old.start - gap.from);
            // `new[literal..i]` is the literal run not yet emitted.
            let (mut literal, mut i) = (gap.new.start, gap.new.start);
            while gap.searchable() && i + BLOCK <= gap.new.end {
                let block = &new[i..i + BLOCK];
                let off = match index.get(block_hash(block) ^ Gap::salt(nth)) {
                    Some(off)
                        if gap.old.start <= off
                            && off + BLOCK <= gap.old.end
                            && old[off..off + BLOCK] == *block =>
                    {
                        off
                    }
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                if literal < i {
                    ops.push(Span::Insert(literal..i));
                }
                // Extend the match past the block boundary.
                let rest = (&old[off + BLOCK..gap.old.end], &new[i + BLOCK..gap.new.end]);
                let len = BLOCK + common_prefix(rest.0, rest.1);
                push_copy(ops, off, len);
                i += len;
                literal = i;
            }
            if literal < gap.new.end {
                ops.push(Span::Insert(literal..gap.new.end));
            }
            // The shared suffix, and the hint it runs into.
            push_copy(ops, gap.old.end, gap.to - gap.old.end);
        }
        ops
    }
}

/// Replays `ops` against `old`, producing the child image.
///
/// # Errors
///
/// [`CodecError::Invalid`] when a copy range overruns the parent.
pub fn apply(old: &[u8], ops: &[DiffOp]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    for op in ops {
        match op {
            DiffOp::Copy { off, len } => {
                let end = off
                    .checked_add(*len)
                    .ok_or(CodecError::Invalid("delta copy range overflows"))?;
                if end > old.len() {
                    return Err(CodecError::Invalid("delta copy range overruns parent"));
                }
                out.extend_from_slice(&old[*off..end]);
            }
            DiffOp::Insert(bytes) => out.extend_from_slice(bytes),
        }
    }
    Ok(out)
}

/// A delta checkpoint: everything needed to rebuild the child `PSMC`
/// image given its parent's bytes, plus the CRC pair that validates
/// the chain link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaCheckpoint {
    /// The child checkpoint's cycle (doubles as its artifact id).
    pub cycle: u64,
    /// The parent checkpoint's cycle.
    pub parent: u64,
    /// CRC-32 of the parent's full `PSMC` bytes.
    pub parent_crc: u32,
    /// CRC-32 of the reconstructed child's full `PSMC` bytes.
    pub result_crc: u32,
    /// The diff script, parent → child.
    pub ops: Vec<DiffOp>,
}

/// The buffers a checkpoint's `PSMC` image and `PSMD` artifact are
/// written into, allocated — at the image's size and the artifact's seed
/// size, not written — by the thread whose heap they are to live on:
/// the matching thread, which makes the [`crate::Draft`] they travel in.
///
/// A buffer lives in the malloc arena of the thread that allocated it,
/// and one grown by `realloc` stays there whoever grows it. A chain
/// pushed by a thread of its own ([`crate::ReplicationStore`]'s
/// publisher) would otherwise hold every image and stored delta on that
/// thread's heap, which grows by them, while the heap that used to hold
/// them shrinks by less. The publisher writes the image into its buffer
/// and grows the seed to the artifact; nothing but where the bytes live
/// depends on who allocated them.
#[derive(Debug)]
pub(crate) struct Serialised {
    pub(crate) image: Arc<Vec<u8>>,
    pub(crate) delta: Vec<u8>,
}

impl Serialised {
    /// Room for an image of `len` bytes, and a `PSMD` buffer not yet
    /// grown.
    pub(crate) fn reserve(len: usize) -> Self {
        Serialised {
            image: Arc::new(Vec::with_capacity(len)),
            delta: Vec::with_capacity(64),
        }
    }
}

/// A `PSMC` image in a chain, plus the two facts chain links are made
/// of: the cycle it commits and the CRC-32 of its bytes. Building one
/// is the only place an image is checksummed.
#[derive(Debug, Clone)]
struct Image {
    cycle: u64,
    crc: u32,
    /// Shared, not copied, with the [`CheckpointImage`] it was pushed as,
    /// and between anchor and tip while they are the same image.
    bytes: Arc<Vec<u8>>,
    /// Where the matcher's `PSMR` image starts in `bytes`.
    rete_at: usize,
}

impl Image {
    fn new(written: &CheckpointImage) -> Image {
        Image {
            cycle: written.cycle(),
            crc: crc32(written.bytes()),
            bytes: Arc::clone(written.bytes()),
            rete_at: written.rete_at(),
        }
    }

    /// `unchanged` — what this image's `PSMR` part was written copying
    /// out of the image before it, which is `old` when the image was
    /// written from the chain's tip — as offsets into the two `PSMC`
    /// images: hints either way, for [`Differ::diff`].
    fn hints<'a>(
        &self,
        old: &Image,
        unchanged: &'a [(usize, usize, usize)],
    ) -> impl Iterator<Item = (usize, usize, usize)> + 'a {
        let (old_at, new_at) = (old.rete_at, self.rete_at);
        let in_images = move |&(o, n, len): &(usize, usize, usize)| {
            (o.saturating_add(old_at), n.saturating_add(new_at), len)
        };
        unchanged.iter().map(in_images)
    }
}

/// Serialises a `PSMD` v1 artifact — `(child, parent)` cycles, `(parent,
/// result)` CRCs, the ops — into the empty `buf`, grown once, to its
/// final size.
fn write_delta<'a>(
    (cycle, parent): (u64, u64),
    (parent_crc, result_crc): (u32, u32),
    ops: impl ExactSizeIterator<Item = OpRef<'a>> + Clone,
    mut buf: Vec<u8>,
) -> Vec<u8> {
    let op_len = |op| match op {
        OpRef::Copy { .. } => 1 + 8 + 8,
        OpRef::Insert(bytes) => 1 + 8 + bytes.len(),
    };
    let len = 8 + 8 + 8 + 4 + 4 + 8 + ops.clone().map(op_len).sum::<usize>();
    debug_assert!(buf.is_empty(), "a seed, not a used buffer");
    buf.reserve_exact(len);
    let mut w = ByteWriter::over(buf);
    w.bytes(&MAGIC);
    w.u32(VERSION);
    w.u64(cycle);
    w.u64(parent);
    w.u32(parent_crc);
    w.u32(result_crc);
    w.usize(ops.len());
    for op in ops {
        match op {
            OpRef::Copy { off, len } => {
                w.u8(0);
                w.usize(off);
                w.usize(len);
            }
            OpRef::Insert(bytes) => {
                w.u8(1);
                w.usize(bytes.len());
                w.bytes(bytes);
            }
        }
    }
    debug_assert_eq!(w.len(), len, "sized before it was written");
    w.finish()
}

impl DeltaCheckpoint {
    /// Diffs `next` against `prev` (both as full checkpoints).
    pub fn encode(prev: &Checkpoint, next: &Checkpoint) -> DeltaCheckpoint {
        let written = CheckpointImage::of(next);
        let (old, new) = (Image::new(&CheckpointImage::of(prev)), Image::new(&written));
        let unchanged: Vec<_> = new.hints(&old, written.unchanged()).collect();
        DeltaCheckpoint {
            cycle: new.cycle,
            parent: old.cycle,
            parent_crc: old.crc,
            result_crc: new.crc,
            ops: diff_hinted(&old.bytes, &new.bytes, &unchanged),
        }
    }

    /// Rebuilds the child checkpoint from its parent, enforcing both
    /// chain-validity CRCs.
    ///
    /// # Errors
    ///
    /// [`CodecError::Invalid`] when `prev` is not the recorded parent
    /// (cycle or CRC mismatch) or the reconstruction's CRC disagrees
    /// with the recorded result; any [`CodecError`] from decoding the
    /// reconstructed image.
    pub fn apply(&self, prev: &Checkpoint) -> Result<Checkpoint, CodecError> {
        Checkpoint::from_bytes(&self.apply_image(prev.cycle, &prev.to_bytes())?)
    }

    /// [`DeltaCheckpoint::apply`] on serialised images: parent `PSMC`
    /// bytes in, child `PSMC` bytes out, same three checks.
    fn apply_image(&self, parent: u64, old: &[u8]) -> Result<Vec<u8>, CodecError> {
        if parent != self.parent {
            return Err(CodecError::Invalid("delta applied to wrong parent cycle"));
        }
        if crc32(old) != self.parent_crc {
            return Err(CodecError::Invalid("delta parent CRC mismatch"));
        }
        let new = apply(old, &self.ops)?;
        if crc32(&new) != self.result_crc {
            return Err(CodecError::Invalid("delta result CRC mismatch"));
        }
        Ok(new)
    }

    /// Serializes the delta (`PSMD` v1).
    pub fn to_bytes(&self) -> Vec<u8> {
        write_delta(
            (self.cycle, self.parent),
            (self.parent_crc, self.result_crc),
            self.ops.iter().map(DiffOp::as_ref),
            Vec::new(),
        )
    }

    /// Deserializes a delta produced by [`DeltaCheckpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on a bad header, truncation, an unknown op tag,
    /// or trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<DeltaCheckpoint, CodecError> {
        let (mut r, version) = ByteReader::with_header(bytes, MAGIC)?;
        if version != VERSION {
            return Err(CodecError::BadVersion {
                supported: VERSION,
                found: version,
            });
        }
        let cycle = r.u64()?;
        let parent = r.u64()?;
        let parent_crc = r.u32()?;
        let result_crc = r.u32()?;
        let n = r.usize()?;
        let mut ops = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            ops.push(match r.u8()? {
                0 => DiffOp::Copy {
                    off: r.usize()?,
                    len: r.usize()?,
                },
                1 => {
                    let m = r.usize()?;
                    DiffOp::Insert(r.bytes(m)?.to_vec())
                }
                _ => return Err(CodecError::Invalid("unknown delta op tag")),
            });
        }
        if !r.is_done() {
            return Err(CodecError::Invalid("trailing bytes after delta"));
        }
        Ok(DeltaCheckpoint {
            cycle,
            parent,
            parent_crc,
            result_crc,
            ops,
        })
    }
}

/// Replays a chain on serialised images: the `PSMD` artifacts `deltas`,
/// in order, onto the `PSMC` image `anchor` of checkpoint `cycle`, each
/// with its parent cycle and both CRCs checked, and decodes the last
/// image once.
///
/// # Errors
///
/// Any [`CodecError`] from a corrupt artifact, a failed chain link or
/// the final decode.
pub(crate) fn replay<'a>(
    mut cycle: u64,
    anchor: &[u8],
    deltas: impl IntoIterator<Item = &'a [u8]>,
) -> Result<Checkpoint, CodecError> {
    let mut image = Cow::Borrowed(anchor);
    for bytes in deltas {
        let delta = DeltaCheckpoint::from_bytes(bytes)?;
        image = Cow::Owned(delta.apply_image(cycle, &image)?);
        cycle = delta.cycle;
    }
    Checkpoint::from_bytes(&image)
}

/// One stored artifact in a chain, as advertised to replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainArtifact {
    /// Checkpoint cycle (the artifact id).
    pub cycle: u64,
    /// Parent cycle for deltas; `None` for full anchors.
    pub parent: Option<u64>,
    /// Serialized artifact size in bytes.
    pub bytes: usize,
    /// CRC-32 of the serialized artifact.
    pub crc: u32,
}

impl ChainArtifact {
    /// True for full-snapshot anchors.
    pub fn is_full(&self) -> bool {
        self.parent.is_none()
    }
}

/// A delta chain: one full anchor plus the deltas committed since.
///
/// Everything is held in shipped form — the anchor and the tip as
/// `PSMC` images (one buffer while they coincide), each delta as its
/// `PSMD` bytes — next to the [`ChainArtifact`] recorded when it was
/// pushed, so reading the manifest or an artifact serialises and
/// checksums nothing, and a push checksums the new image exactly once.
/// Decoded checkpoints exist only on demand
/// ([`CheckpointChain::tip`], [`CheckpointChain::restore_tip`]).
///
/// The chain keeps the working storage of its diffs between pushes and
/// writes each `PSMD` into a buffer sized beforehand, so a push in
/// steady state allocates the artifact it stores and nothing else —
/// which is what lets the thread that pushes
/// ([`crate::ReplicationStore`]'s publisher) run on a heap of its own
/// without that heap growing.
#[derive(Debug, Clone)]
pub struct CheckpointChain {
    anchor_every: u64,
    anchor: Image,
    tip: Image,
    differ: Differ,
    /// `PSMD` bytes of the deltas since the anchor, oldest first.
    deltas: Vec<Arc<Vec<u8>>>,
    /// The anchor's descriptor, then one per entry of `deltas`.
    artifacts: Vec<ChainArtifact>,
    pushed: u64,
    full_bytes: u64,
    delta_bytes: u64,
    full_count: u64,
    delta_count: u64,
}

impl CheckpointChain {
    /// Starts a chain anchored at `genesis`, re-anchoring with a full
    /// snapshot every `anchor_every` pushes (the pushes in between
    /// store deltas).
    pub fn new(genesis: &Checkpoint, anchor_every: u64) -> Self {
        Self::anchored(&CheckpointImage::of(genesis), anchor_every)
    }

    /// [`CheckpointChain::new`] on an image written already.
    pub fn anchored(genesis: &CheckpointImage, anchor_every: u64) -> Self {
        let image = Image::new(genesis);
        let mut chain = CheckpointChain {
            anchor_every: anchor_every.max(1),
            anchor: image.clone(),
            tip: image,
            differ: Differ::default(),
            deltas: Vec::new(),
            artifacts: Vec::new(),
            pushed: 0,
            full_bytes: 0,
            delta_bytes: 0,
            full_count: 0,
            delta_count: 0,
        };
        chain.anchor_at_tip();
        chain
    }

    /// Makes the tip the anchor (sharing its buffer) and prunes the
    /// chain behind it.
    fn anchor_at_tip(&mut self) -> ChainArtifact {
        self.anchor = self.tip.clone();
        let artifact = ChainArtifact {
            cycle: self.anchor.cycle,
            parent: None,
            bytes: self.anchor.bytes.len(),
            crc: self.anchor.crc,
        };
        self.full_bytes += artifact.bytes as u64;
        self.full_count += 1;
        self.deltas.clear();
        self.artifacts.clear();
        self.artifacts.push(artifact);
        artifact
    }

    /// Appends `cp`, storing either a new full anchor (pruning the old
    /// chain) or a delta against the current tip. Returns the artifact
    /// descriptor of what was stored.
    ///
    /// # Panics
    ///
    /// When `cp` does not commit more cycles than the tip: a cycle is
    /// an artifact's id, and a chain lists them in order.
    pub fn push(&mut self, cp: &Checkpoint) -> ChainArtifact {
        self.push_image(&mut CheckpointImage::of(cp))
    }

    /// [`CheckpointChain::push`] of an image written already
    /// ([`Draft::write`]), the delta written into the buffer that came
    /// with it, and its hints the runs its matcher image was written
    /// copying — taken as they are when it was written from the tip's
    /// own image, compared with the tip's bytes first when not.
    ///
    /// # Panics
    ///
    /// As [`CheckpointChain::push`].
    pub fn push_image(&mut self, written: &mut CheckpointImage) -> ChainArtifact {
        assert!(
            written.cycle() > self.tip.cycle,
            "checkpoint {} pushed onto a chain whose tip is {}",
            written.cycle(),
            self.tip.cycle
        );
        self.pushed += 1;
        let image = Image::new(written);
        if self.pushed.is_multiple_of(self.anchor_every) {
            self.tip = image;
            return self.anchor_at_tip();
        }
        let old = &self.tip;
        let hints = image.hints(old, written.unchanged());
        let copied = written.written_from(&old.bytes);
        let spans = self.differ.diff(&old.bytes, &image.bytes, hints, copied);
        let bytes = write_delta(
            (image.cycle, old.cycle),
            (old.crc, image.crc),
            spans.iter().map(|span| span.over(&image.bytes)),
            written.take_delta(),
        );
        let artifact = ChainArtifact {
            cycle: image.cycle,
            parent: Some(old.cycle),
            bytes: bytes.len(),
            crc: crc32(&bytes),
        };
        self.delta_bytes += artifact.bytes as u64;
        self.delta_count += 1;
        self.deltas.push(Arc::new(bytes));
        self.artifacts.push(artifact);
        self.tip = image;
        artifact
    }

    /// The latest checkpoint, decoded from the tip image.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] from decoding the image (none for an image
    /// this chain serialised itself).
    pub fn tip(&self) -> Result<Checkpoint, CodecError> {
        Checkpoint::from_bytes(&self.tip.bytes)
    }

    /// The anchor's cycle.
    pub fn anchor_cycle(&self) -> u64 {
        self.anchor.cycle
    }

    /// Serialized artifact bytes for checkpoint `cycle`: the anchor's
    /// `PSMC` bytes or a stored delta's `PSMD` bytes.
    pub fn artifact_bytes(&self, cycle: u64) -> Option<Vec<u8>> {
        self.artifact(cycle).map(|bytes| bytes.to_vec())
    }

    /// [`CheckpointChain::artifact_bytes`] as the chain holds them, for
    /// a reader that must not copy while it keeps the chain from moving.
    pub(crate) fn artifact(&self, cycle: u64) -> Option<Arc<Vec<u8>>> {
        match self.artifacts.iter().position(|a| a.cycle == cycle)? {
            0 => Some(Arc::clone(&self.anchor.bytes)),
            k => Some(Arc::clone(&self.deltas[k - 1])),
        }
    }

    /// Descriptors for the anchor plus every stored delta, in replay
    /// order, as recorded when each was pushed.
    pub fn artifacts(&self) -> &[ChainArtifact] {
        &self.artifacts
    }

    /// Rebuilds the tip purely from stored artifacts: start from the
    /// anchor image, apply each delta with its CRC pair enforced, then
    /// decode.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] from a corrupt anchor or a failed chain link.
    pub fn restore_tip(&self) -> Result<Checkpoint, CodecError> {
        let deltas = self.deltas.iter().map(|bytes| &bytes[..]);
        replay(self.anchor.cycle, &self.anchor.bytes, deltas)
    }

    /// Cumulative (bytes, count) of full-anchor artifacts stored.
    pub fn full_stats(&self) -> (u64, u64) {
        (self.full_bytes, self.full_count)
    }

    /// Cumulative (bytes, count) of delta artifacts stored.
    pub fn delta_stats(&self) -> (u64, u64) {
        (self.delta_bytes, self.delta_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::{Instantiation, ProductionId, WmeId, WorkingMemory};
    use psm_obs::Rng64;
    use rete::ReteSnapshot;

    fn cp(cycle: u64, seed: u8, insts: usize) -> Checkpoint {
        // Synthetic but realistic shape: a few hundred bytes of
        // pseudo-state plus a conflict set.
        let rete: Vec<u8> = (0..600u32).map(|i| (i as u8).wrapping_add(seed)).collect();
        Checkpoint {
            cycle,
            wm: WorkingMemory::new().snapshot_bytes(),
            rete: ReteSnapshot::from_bytes(rete),
            conflict: Checkpoint::encode_conflict(
                &(0..insts)
                    .map(|i| Instantiation::new(ProductionId(i as u32), vec![WmeId::from_index(i)]))
                    .collect::<Vec<_>>(),
            ),
        }
    }

    fn literal_bytes(ops: &[DiffOp]) -> usize {
        ops.iter()
            .map(|op| match op {
                DiffOp::Insert(b) => b.len(),
                DiffOp::Copy { .. } => 0,
            })
            .sum()
    }

    #[test]
    fn diff_apply_roundtrips() {
        let old: Vec<u8> = (0..500u32).map(|i| i as u8).collect();
        // Insert in the middle, mutate a byte, append a tail: the diff
        // must re-align after each disturbance.
        let mut new = old.clone();
        new.insert(100, 0xAA);
        new[300] ^= 0x55;
        new.extend_from_slice(&[1, 2, 3, 4, 5]);
        let ops = diff(&old, &new);
        assert_eq!(apply(&old, &ops).unwrap(), new);
        let literal = literal_bytes(&ops);
        assert!(
            literal < 150,
            "small edits stay small: {literal} literal bytes"
        );
        assert_eq!(apply(&[], &diff(&[], &[])).unwrap(), Vec::<u8>::new());
    }

    /// One random edit of `new`; returns the literal bytes it may cost
    /// the diff. An edit leaves at most one more run of parent bytes
    /// behind (a block move, being a delete and an insert of parent
    /// content, at most three), and a run costs under `2 * BLOCK`
    /// literal bytes: up to `BLOCK - 1` until its first aligned parent
    /// block, or all of it when it is too short to hold one.
    fn edit(new: &mut Vec<u8>, rng: &mut Rng64) -> usize {
        let at = rng.gen_range(0..=new.len());
        let end = (at + rng.gen_range(1..=40usize)).min(new.len());
        match rng.gen_range(0..4u8) {
            0 => {
                let fresh: Vec<u8> = (at..at + 40).map(|_| rng.next_u64() as u8).collect();
                new.splice(at..at, fresh);
                40 + 2 * BLOCK
            }
            1 => {
                new.drain(at..end);
                2 * BLOCK
            }
            2 => {
                for b in &mut new[at..end] {
                    *b = rng.next_u64() as u8;
                }
                (end - at) + 2 * BLOCK
            }
            _ => {
                let end = (at + rng.gen_range(1..=200usize)).min(new.len());
                let moved: Vec<u8> = new.drain(at..end).collect();
                let to = rng.gen_range(0..=new.len());
                new.splice(to..to, moved);
                4 * BLOCK
            }
        }
    }

    #[test]
    fn diff_roundtrips_random_edits_and_stays_small() {
        let mut rng = Rng64::new(0xD1FF);
        for case in 0..600 {
            // Lengths around and off the block grid, empty included.
            let len = match case % 6 {
                0 => 0,
                1 => rng.gen_range(1..2 * BLOCK),
                2 => BLOCK * rng.gen_range(1..40usize),
                _ => rng.gen_range(0..3000usize),
            };
            // Every other parent is built from three motifs, one of them
            // a constant block, so equal aligned blocks (index ties)
            // are everywhere and a match regularly lands on an earlier
            // twin of the block it came from.
            let repetitive = case % 2 == 1;
            let motifs: [Vec<u8>; 3] = [
                vec![rng.next_u64() as u8; BLOCK],
                (0..BLOCK).map(|_| rng.next_u64() as u8).collect(),
                (0..BLOCK + 8).map(|_| rng.next_u64() as u8).collect(),
            ];
            let mut old: Vec<u8> = Vec::with_capacity(len + 2 * BLOCK);
            while old.len() < len {
                if repetitive {
                    old.extend_from_slice(&motifs[rng.gen_range(0..3usize)]);
                } else {
                    old.push(rng.next_u64() as u8);
                }
            }
            old.truncate(len);

            let mut new = old.clone();
            // The allowance of the parent's own first run (a parent
            // shorter than a block is all literal).
            let mut allowance = 2 * BLOCK;
            for _ in 0..rng.gen_range(0..=4u32) {
                allowance += edit(&mut new, &mut rng);
            }
            if case % 12 == 0 {
                new.clear();
            }

            let ops = diff(&old, &new);
            assert_eq!(apply(&old, &ops).unwrap(), new, "case {case}");
            assert_eq!(diff(&old, &new), ops, "case {case}: deterministic");
            let literal = literal_bytes(&ops);
            // With twins a match may follow the wrong one and stop
            // early, once per twin rather than once per edit, so the
            // bound is only claimed where blocks are unique.
            if !repetitive {
                assert!(
                    literal <= allowance,
                    "case {case}: {literal} literal bytes, allowance {allowance}"
                );
            }
        }
    }

    /// Image pairs built the way consecutive checkpoints are — runs the
    /// child took over from the parent, shifted by whatever was inserted
    /// or dropped before them, with edited stretches in between — and
    /// the true list of those runs as the hint. True or not, a hint list
    /// never changes what applying the delta gives; true, it never costs
    /// more literal bytes than no hints by over a block per hint (a gap
    /// is searched by itself, so a block of the parent that straddles a
    /// hinted range's edge is out of reach).
    #[test]
    fn hinted_diff_roundtrips_whatever_the_hints() {
        let mut rng = Rng64::new(0x41D7);
        let fresh = |rng: &mut Rng64, n: usize| -> Vec<u8> {
            (0..n).map(|_| rng.next_u64() as u8).collect()
        };
        for case in 0..400 {
            let (mut old, mut new, mut truth) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..rng.gen_range(0..8u32) {
                let n = rng.gen_range(1..200usize);
                match rng.gen_range(0..4u8) {
                    0 => new.extend(fresh(&mut rng, n)),
                    1 => old.extend(fresh(&mut rng, n)),
                    2 => {
                        let stretch = fresh(&mut rng, n);
                        old.extend(&stretch);
                        let mut edited = stretch;
                        for _ in 0..rng.gen_range(1..4u32) {
                            edited[rng.gen_range(0..n)] ^= 0x5A;
                        }
                        new.extend(edited);
                    }
                    _ => {}
                }
                let n = rng.gen_range(1..300usize);
                let run = fresh(&mut rng, n);
                truth.push((old.len(), new.len(), run.len()));
                old.extend(&run);
                new.extend(&run);
            }
            if case % 3 == 0 {
                new.extend(fresh(&mut rng, 50));
            }

            let plain = diff(&old, &new);
            assert_eq!(apply(&old, &plain).unwrap(), new, "case {case}");
            let hinted = diff_hinted(&old, &new, &truth);
            assert_eq!(apply(&old, &hinted).unwrap(), new, "case {case}");
            let allowance = literal_bytes(&plain) + BLOCK * truth.len();
            let literal = literal_bytes(&hinted);
            assert!(literal <= allowance, "case {case}: {literal} > {allowance}");
            for &(o, _, len) in &truth {
                let covered = |op: &DiffOp| match *op {
                    DiffOp::Copy { off, len: n } => off <= o && o + len <= off + n,
                    DiffOp::Insert(_) => false,
                };
                assert!(hinted.iter().any(covered), "case {case}: run at {o} copied");
            }

            for lie in 0..12 {
                let mut hints = truth.clone();
                let at = rng.gen_range(0..=hints.len());
                let some = |rng: &mut Rng64, n: usize| rng.gen_range(0..n + 40);
                match lie % 6 {
                    // Shifted, stretched or short of what it names.
                    0 if !hints.is_empty() => {
                        let (o, n, len) = &mut hints[at % truth.len()];
                        match rng.gen_range(0..3u8) {
                            0 => *o += rng.gen_range(1..9usize),
                            1 => *n += rng.gen_range(1..9usize),
                            _ => *len += rng.gen_range(1..400usize),
                        }
                    }
                    // Said twice, overlapping itself.
                    1 if !hints.is_empty() => {
                        let (o, n, len) = hints[at % truth.len()];
                        hints.insert(at, (o + len / 2, n + len / 2, len - len / 2));
                    }
                    2 => hints.reverse(),
                    3 => hints.insert(
                        at,
                        (some(&mut rng, old.len()), some(&mut rng, new.len()), 0),
                    ),
                    4 => {
                        let huge = [usize::MAX, usize::MAX - 7, old.len() + 1];
                        let o = huge[rng.gen_range(0..3usize)];
                        hints.insert(at, (o, some(&mut rng, new.len()), huge[lie % 3]));
                        hints.push((0, usize::MAX, 1));
                    }
                    _ => {
                        for _ in 0..rng.gen_range(1..6u32) {
                            let (o, n) = (some(&mut rng, old.len()), some(&mut rng, new.len()));
                            hints.insert(at, (o, n, rng.gen_range(0..300usize)));
                        }
                    }
                }
                let ops = diff_hinted(&old, &new, &hints);
                assert_eq!(apply(&old, &ops).unwrap(), new, "case {case}, lie {lie}");
            }
        }
    }

    #[test]
    fn apply_rejects_bad_ranges() {
        let err = apply(&[0; 8], &[DiffOp::Copy { off: 4, len: 8 }]);
        assert!(err.is_err());
        let err = apply(
            &[0; 8],
            &[DiffOp::Copy {
                off: usize::MAX,
                len: 2,
            }],
        );
        assert!(err.is_err());
    }

    #[test]
    fn delta_roundtrips_and_validates_the_chain() {
        let a = cp(4, 1, 3);
        let b = cp(8, 2, 5);
        let d = DeltaCheckpoint::encode(&a, &b);
        assert_eq!(d.apply(&a).unwrap(), b);
        let back = DeltaCheckpoint::from_bytes(&d.to_bytes()).unwrap();
        assert_eq!(back, d);

        // Wrong parent: cycle mismatch, then CRC mismatch.
        let c = cp(6, 3, 3);
        assert!(d.apply(&c).is_err(), "wrong parent cycle");
        let mut imposter = cp(4, 9, 3);
        imposter.cycle = 4;
        assert!(d.apply(&imposter).is_err(), "wrong parent bytes");

        // Tampered delta: result CRC catches it.
        let mut tampered = d.clone();
        if let Some(DiffOp::Insert(bytes)) = tampered
            .ops
            .iter_mut()
            .find(|op| matches!(op, DiffOp::Insert(_)))
        {
            bytes[0] ^= 0xFF;
            assert!(tampered.apply(&a).is_err(), "result CRC mismatch");
        }
    }

    #[test]
    fn delta_rejects_corrupt_bytes() {
        let d = DeltaCheckpoint::encode(&cp(0, 1, 1), &cp(4, 2, 2));
        let bytes = d.to_bytes();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(DeltaCheckpoint::from_bytes(&bad).is_err(), "bad magic");
        let mut bad = bytes.clone();
        bad.truncate(bad.len() - 1);
        assert!(DeltaCheckpoint::from_bytes(&bad).is_err(), "eof");
        let mut bad = bytes;
        bad.push(0);
        assert!(DeltaCheckpoint::from_bytes(&bad).is_err(), "trailing");
        // An insert whose length field claims more than the buffer
        // holds fails before anything is allocated for it.
        let d = DeltaCheckpoint {
            ops: vec![DiffOp::Insert(vec![7; 3])],
            ..d
        };
        let mut bad = d.to_bytes();
        let len_at = bad.len() - 3 - 8;
        bad[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            DeltaCheckpoint::from_bytes(&bad),
            Err(CodecError::UnexpectedEof),
            "insert length beyond the buffer"
        );
    }

    #[test]
    fn chain_anchors_prunes_and_restores() {
        let genesis = cp(0, 0, 0);
        let mut chain = CheckpointChain::new(&genesis, 4);
        let mut arts = Vec::new();
        for k in 1..=6u64 {
            arts.push(chain.push(&cp(k * 4, k as u8, k as usize)));
        }
        // Push 4 re-anchored; pushes 5 and 6 are deltas on top of it.
        assert!(arts[3].is_full());
        assert!(arts[0].parent.is_some() && arts[4].parent.is_some());
        assert_eq!(chain.anchor_cycle(), 16);
        assert_eq!(chain.artifacts().len(), 3, "anchor + two deltas");
        assert_eq!(chain.artifacts()[1..], arts[4..], "recorded at push");
        for a in chain.artifacts() {
            let bytes = chain.artifact_bytes(a.cycle).expect("advertised");
            assert_eq!((a.bytes, a.crc), (bytes.len(), crc32(&bytes)));
        }
        assert_eq!(chain.restore_tip().unwrap(), cp(24, 6, 6));
        assert_eq!(chain.tip().unwrap(), cp(24, 6, 6));
        assert!(chain.artifact_bytes(16).is_some());
        assert!(chain.artifact_bytes(24).is_some());
        assert!(
            chain.artifact_bytes(8).is_none(),
            "pre-anchor artifacts pruned"
        );
        let (fb, fc) = chain.full_stats();
        let (db, dc) = chain.delta_stats();
        assert_eq!(fc, 2, "genesis + re-anchor");
        assert_eq!(dc, 5, "pushes 1-3 and 5-6 stored as deltas");
        assert!(fb > 0 && db > 0);
    }
}
