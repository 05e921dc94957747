//! Versioned whole-engine checkpoints.
//!
//! A [`Checkpoint`] captures everything needed to resume matching from
//! a committed cycle: the working memory image (with future-id
//! continuity), the sequential Rete matcher's dynamic state (alpha and
//! beta memories, negation counts, statistics — see
//! [`rete::ReteSnapshot`]), and the conflict set. Cold recovery restores
//! the checkpoint and replays the WAL tail; because all three are
//! canonical byte encodings, "recovered exactly" is checkable with `==`
//! on bytes.
//!
//! Each part is held as the bytes the checkpoint's image lists it in,
//! so serialising one copies three blobs; only the cold path reads the
//! conflict list back ([`Checkpoint::conflict_list`]).
//!
//! A supervisor does not build a [`Checkpoint`] to take one. Its
//! matching thread makes a [`Draft`] of what each part changed by since
//! the last checkpoint ([`Updates`]): the working memory's slots
//! retracted and its slots appended, encoded ([`ops5::WmUpdate`]), the
//! matcher's changed sections ([`rete::ImageUpdate`]) and the
//! conflict-set entries that went out or came in, in the order they did
//! ([`ConflictUpdate`]) — each noted as the commit step made it
//! ([`ops5::WmMarks`], [`ConflictMarks`]), so no part is walked whole —
//! with a buffer for the image allocated but not written.
//! [`Draft::write`] writes the `PSMC` image into that buffer, each part
//! from its counterpart in the last image written
//! ([`CheckpointImage`]): the working memory's slots copied in runs
//! between the retracted ones, the matcher's unchanged sections copied,
//! the changed conflict entries merged into the last list. That runs on
//! the replication store's publisher when a store is attached, so every
//! pass over a whole part is the publisher's. The image written is the
//! one copy of the checkpoint: [`CheckpointImage::checkpoint`] is a view
//! of it, made for the readers that ask. Drafts are all a store is
//! handed; a decoded [`Checkpoint`] joins a chain pushed by hand through
//! [`Checkpoint::to_bytes`], the reference writer whose bytes every
//! written image equals. A part's update from nothing is its writer from
//! nothing — [`WorkingMemory::snapshot_bytes`],
//! [`Checkpoint::encode_conflict`] — so each part has one writer.
//!
//! Serialized under magic `PSMC`, version 1.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::{Arc, Weak};

use ops5::{
    ByteReader, ByteWriter, CodecError, Instantiation, MatchDelta, ProductionId, WmUpdate, WmeId,
    WorkingMemory,
};
use rete::{Assembly, ImageUpdate, ReteSnapshot, SectionTable};

use crate::delta::Serialised;

const MAGIC: [u8; 4] = *b"PSMC";
const VERSION: u32 = 1;

/// A committed-state checkpoint: working memory + Rete state +
/// conflict set as of the end of `cycle`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Number of supervised cycles committed into this checkpoint
    /// (the next batch to run is cycle `cycle`).
    pub cycle: u64,
    /// Canonical [`WorkingMemory::snapshot_bytes`] image.
    pub wm: Vec<u8>,
    /// The sequential matcher's state snapshot.
    pub rete: ReteSnapshot,
    /// The conflict set in canonical order, as the image lists it
    /// ([`Checkpoint::encode_conflict`]).
    pub conflict: Vec<u8>,
}

impl Checkpoint {
    /// The genesis checkpoint: empty working memory, a fresh matcher's
    /// snapshot, empty conflict set.
    pub fn genesis(rete: ReteSnapshot) -> Self {
        Checkpoint {
            cycle: 0,
            wm: WorkingMemory::new().snapshot_bytes(),
            rete,
            conflict: Self::encode_conflict(&[]),
        }
    }

    /// The bytes of a conflict set listed in canonical order — by
    /// production, then WMEs, as a `BTreeSet` iterates — for
    /// [`Checkpoint::conflict`]: the count, then each instantiation's
    /// production, WME count and WME ids. The list of an update from
    /// nothing ([`ConflictUpdate::merge`]), written in the order given.
    pub fn encode_conflict<'a>(list: impl IntoIterator<Item = &'a Instantiation>) -> Vec<u8> {
        let mut update = ConflictUpdate::default();
        update.list(list);
        let mut out = Vec::with_capacity(update.list_len());
        update.merge(&[], &mut out);
        out
    }

    /// Decodes [`Checkpoint::conflict`]: the conflict set, for the cold
    /// path.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on a list that is malformed, out of
    /// canonical order or followed by anything.
    pub fn conflict_list(&self) -> Result<Vec<Instantiation>, CodecError> {
        let mut r = ByteReader::new(&self.conflict);
        let mut list = Vec::new();
        read_conflict(&mut r, |production, wmes| {
            list.push(Instantiation::new(production, wmes.to_vec()));
        })?;
        if !r.is_done() {
            return Err(CodecError::Invalid("trailing bytes after conflict list"));
        }
        Ok(list)
    }

    /// Where [`Checkpoint::to_bytes`] puts the first byte of `rete`:
    /// after the header, the cycle, the length-prefixed working memory
    /// and its own length.
    pub(crate) fn rete_at(&self) -> usize {
        8 + 8 + 8 + self.wm.len() + 8
    }

    /// How many bytes [`Checkpoint::to_bytes`] writes.
    pub(crate) fn encoded_len(&self) -> usize {
        self.rete_at() + self.rete.len() + self.conflict.len()
    }

    /// Serializes the checkpoint (`PSMC` v1).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_header(MAGIC, VERSION);
        w.reserve(self.encoded_len() - w.len());
        w.u64(self.cycle);
        for blob in [&self.wm[..], self.rete.as_bytes()] {
            w.usize(blob.len());
            w.bytes(blob);
        }
        w.bytes(&self.conflict);
        w.finish()
    }

    /// Deserializes a checkpoint produced by [`Checkpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on bad magic or version, and on an image
    /// that is cut short, has bytes past its end or lists its conflict
    /// set out of canonical order.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CodecError> {
        let (mut r, version) = ByteReader::with_header(bytes, MAGIC)?;
        if version != VERSION {
            return Err(CodecError::BadVersion {
                supported: VERSION,
                found: version,
            });
        }
        let cycle = r.u64()?;
        let read_blob = |r: &mut ByteReader<'_>| -> Result<Vec<u8>, CodecError> {
            let n = r.usize()?;
            Ok(r.bytes(n)?.to_vec())
        };
        let wm = read_blob(&mut r)?;
        let rete = ReteSnapshot::from_bytes(read_blob(&mut r)?);
        let conflict = &bytes[bytes.len() - r.remaining()..];
        read_conflict(&mut r, |_, _| {})?;
        if !r.is_done() {
            return Err(CodecError::Invalid("trailing bytes after checkpoint"));
        }
        Ok(Checkpoint {
            cycle,
            wm,
            rete,
            conflict: conflict.to_vec(),
        })
    }
}

/// Where a `PSMC` image's working-memory image starts: after the
/// header, the cycle and the image's length.
const WM_AT: usize = 8 + 8 + 8;

/// What a checkpoint's three parts changed by since the last one, each
/// made on the thread that took it and written out by [`Draft::write`].
/// Reused from one checkpoint to the next, they keep their buffers.
#[derive(Debug, Clone, Default)]
pub struct Updates {
    /// The working memory's ([`WorkingMemory::encode_changes`]).
    pub wm: WmUpdate,
    /// The matcher's changed sections ([`rete::ReteMatcher::encode_changes`]).
    pub rete: ImageUpdate,
    /// The conflict set's ([`ConflictMarks::take`]).
    pub conflict: ConflictUpdate,
}

/// A checkpoint on its way to being written: what its three parts
/// changed by since the last one ([`Updates`]), and the buffers its
/// `PSMC` image and `PSMD` artifact are to be written into, allocated at
/// their sizes — not written — by the thread that made the draft
/// (`delta::Serialised` says why).
#[derive(Debug)]
pub struct Draft {
    cycle: u64,
    updates: Updates,
    bytes: Serialised,
}

impl Draft {
    /// A checkpoint covering `cycle` committed cycles, made of `updates`.
    pub fn new(cycle: u64, updates: Updates) -> Draft {
        let parts = [
            updates.wm.image_len(),
            updates.rete.image_len(),
            updates.conflict.list_len(),
        ];
        Draft {
            cycle,
            updates,
            bytes: Serialised::reserve(WM_AT + 8 + parts.iter().sum::<usize>()),
        }
    }

    /// The cycles the checkpoint covers.
    pub(crate) fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Writes the `PSMC` image into the buffer the draft brought, with no
    /// other, each part from its counterpart in `last`: the header, the
    /// cycle, the working-memory image — its slots copied in runs between
    /// the retracted ones, then the slots appended — the matcher image —
    /// its changed sections between runs of unchanged ones — and the
    /// conflict list, the entries that changed merged into it. Returns
    /// the image, and the draft's updates to be reused.
    ///
    /// # Panics
    ///
    /// When a part of the draft is not whole and `last` is not the image
    /// written from the draft before it.
    pub fn write(self, last: Option<&mut CheckpointImage>) -> (CheckpointImage, Updates) {
        let Draft {
            cycle,
            mut updates,
            bytes: Serialised { mut image, delta },
        } = self;
        let buf = Arc::get_mut(&mut image).expect("a buffer of the draft's own");
        debug_assert!(buf.is_empty(), "not written before");
        let mut w = ByteWriter::over(std::mem::take(buf));
        w.bytes(&MAGIC);
        w.u32(VERSION);
        w.u64(cycle);
        w.usize(updates.wm.image_len());
        let mut out = w.finish();
        let (bases, mut wm_starts, mut table, from) = match last {
            Some(last) => {
                let wm_starts = std::mem::take(&mut last.wm_starts);
                let table = std::mem::take(&mut last.table);
                let from = Arc::downgrade(&last.image);
                (last.parts(), wm_starts, table, from)
            }
            None => (
                [&[][..]; 3],
                Vec::new(),
                SectionTable::default(),
                Weak::new(),
            ),
        };
        updates.wm.assemble(bases[0], &mut wm_starts, &mut out);
        out.extend_from_slice(&(updates.rete.image_len() as u64).to_le_bytes());
        let rete_at = out.len();
        let rete = updates.rete.assemble(bases[1], &mut table, &mut out);
        updates.conflict.merge(bases[2], &mut out);
        debug_assert_eq!(out.len(), out.capacity(), "sized before it was written");
        *Arc::get_mut(&mut image).expect("still the draft's own") = out;
        let written = CheckpointImage {
            cycle,
            image,
            wm_starts,
            rete_at,
            rete,
            table,
            from,
            delta,
        };
        (written, updates)
    }
}

/// A checkpoint written out by [`Draft::write`]: its `PSMC` image, where
/// its working-memory slots and matcher sections lie in it and how its
/// matcher image was written — what the next checkpoint's image is
/// written from.
#[derive(Debug, Clone)]
pub struct CheckpointImage {
    cycle: u64,
    /// The `PSMC` image.
    image: Arc<Vec<u8>>,
    /// Where each slot of its working-memory image starts in that image.
    wm_starts: Vec<u32>,
    /// Where the matcher image starts in `image`, and how it was written.
    rete_at: usize,
    rete: Assembly,
    table: SectionTable,
    /// The image the matcher image's unchanged runs were copied out of,
    /// when they were: identity, not a reference that keeps it.
    from: Weak<Vec<u8>>,
    /// The seed of the `PSMD` artifact a chain push of the image writes,
    /// allocated with it.
    delta: Vec<u8>,
}

impl CheckpointImage {
    /// `cp` written by [`Checkpoint::to_bytes`], with the runs its
    /// matcher image says it copied as the hints of a diff against the
    /// image before: how a decoded checkpoint joins a chain.
    pub(crate) fn of(cp: &Checkpoint) -> CheckpointImage {
        CheckpointImage {
            cycle: cp.cycle,
            image: Arc::new(cp.to_bytes()),
            wm_starts: Vec::new(),
            rete_at: cp.rete_at(),
            rete: Assembly::of(&cp.rete),
            table: SectionTable::default(),
            from: Weak::new(),
            delta: Vec::new(),
        }
    }

    /// The cycles the checkpoint covers.
    pub(crate) fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The `PSMC` image: [`Checkpoint::to_bytes`] of
    /// [`CheckpointImage::checkpoint`].
    pub fn bytes(&self) -> &Arc<Vec<u8>> {
        &self.image
    }

    /// The image's three parts: the working-memory image, the matcher
    /// image and the conflict list.
    fn parts(&self) -> [&[u8]; 3] {
        let conflict_at = self.rete_at + self.rete.image_len();
        [
            &self.image[WM_AT..self.rete_at - 8],
            &self.image[self.rete_at..conflict_at],
            &self.image[conflict_at..],
        ]
    }

    /// The checkpoint, its matcher image a part of this image rather
    /// than a copy, with the runs it was written copying as its
    /// [`ReteSnapshot::unchanged`].
    pub fn checkpoint(&self) -> Checkpoint {
        let [wm, _, conflict] = self.parts();
        Checkpoint {
            cycle: self.cycle,
            wm: wm.to_vec(),
            rete: ReteSnapshot::within(Arc::clone(&self.image), self.rete_at, &self.rete),
            conflict: conflict.to_vec(),
        }
    }

    /// Where the matcher image starts in the `PSMC` image.
    pub(crate) fn rete_at(&self) -> usize {
        self.rete_at
    }

    /// [`ReteSnapshot::unchanged`] of the matcher image.
    pub(crate) fn unchanged(&self) -> &[(usize, usize, usize)] {
        self.rete.unchanged()
    }

    /// Whether the matcher image's unchanged runs were copied out of
    /// `image` by this image's own writing.
    pub(crate) fn written_from(&self, image: &Arc<Vec<u8>>) -> bool {
        std::ptr::eq(self.from.as_ptr(), Arc::as_ptr(image))
    }

    /// The seed of the image's `PSMD` artifact.
    pub(crate) fn take_delta(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.delta)
    }
}

/// A conflict list's next version as the entries that changed since the
/// last one ([`ConflictMarks::take`]), to be merged into it
/// ([`ConflictUpdate::merge`]). Reused from one list to the next, it
/// keeps its buffers.
#[derive(Debug, Clone, Default)]
pub struct ConflictUpdate {
    /// Each entry noted, as a list writes it: production, WME count, WME
    /// ids.
    entries: Vec<u8>,
    /// Each change noted, in the order made; once merged, each entry once,
    /// in canonical order, as its last change left it.
    noted: Vec<Noted>,
    /// The list's entry count and length in bytes.
    count: usize,
    len: usize,
    /// No list before it: every entry is noted, in list order.
    whole: bool,
}

impl ConflictUpdate {
    /// The length of the list the update makes.
    pub fn list_len(&self) -> usize {
        self.len
    }

    /// Notes that the set holds `inst`, or no longer does.
    fn note(&mut self, inst: &Instantiation, present: bool) {
        let at = u32::try_from(self.entries.len()).expect("noted entries under 4 GiB");
        self.noted.push(Noted {
            production: inst.production.0,
            first: inst.wmes.first().map(|id| id.index() as u64),
            at,
            present,
        });
        let mut w = ByteWriter::over(std::mem::take(&mut self.entries));
        w.u32(inst.production.0);
        w.usize(inst.wmes.len());
        for id in &inst.wmes {
            w.usize(id.index());
        }
        self.entries = w.finish();
    }

    /// Makes this the update of a list of `list`, whole, in the order
    /// given.
    fn list<'a>(&mut self, list: impl IntoIterator<Item = &'a Instantiation>) {
        self.entries.clear();
        self.noted.clear();
        for inst in list {
            self.note(inst, true);
        }
        self.count = self.noted.len();
        self.len = 8 + self.entries.len();
        self.whole = true;
    }

    /// Sorts the entries noted into canonical order, each once, as its
    /// last change left it.
    fn settle(&mut self) {
        let entry = |noted: &Noted| entry_at(&self.entries, noted.at as usize);
        let key = |noted: &Noted| (noted.production, noted.first);
        self.noted.sort_unstable_by(|a, b| {
            let order = key(a)
                .cmp(&key(b))
                .then_with(|| entry_order(entry(a), entry(b)));
            order.then(a.at.cmp(&b.at))
        });
        self.noted.dedup_by(|later, kept| {
            let same = key(later) == key(kept) && entry(later) == entry(kept);
            if same {
                *kept = *later;
            }
            same
        });
    }

    /// Appends the list to `out`: the count, then the entries of `base`
    /// — the list before, not read for a whole update — with each entry
    /// noted merged in at its place, in or out as its last change left
    /// it. The changes are put in canonical order here, on the thread
    /// that writes the list, not on the one that noted them.
    ///
    /// # Panics
    ///
    /// When the list is not as long as the update says: `base` was not
    /// the list the changes were noted against.
    pub fn merge(&mut self, base: &[u8], out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&(self.count as u64).to_le_bytes());
        let base = match self.whole {
            true => &[][..],
            false => {
                self.settle();
                &base[8..]
            }
        };
        // `base[..copied]` is written or left out; `at` is the next entry
        // not yet compared.
        let (mut copied, mut at) = (0, 0);
        for noted in &self.noted {
            let entry = entry_at(&self.entries, noted.at as usize);
            let mut same = false;
            while at < base.len() {
                let old = entry_at(base, at);
                match entry_order(old, entry) {
                    Ordering::Less => at += old.len(),
                    order => {
                        same = order == Ordering::Equal;
                        break;
                    }
                }
            }
            out.extend_from_slice(&base[copied..at]);
            if same {
                at += entry.len();
            }
            copied = at;
            if noted.present {
                out.extend_from_slice(entry);
            }
        }
        out.extend_from_slice(&base[copied..]);
        assert_eq!(
            out.len() - start,
            self.len,
            "a list as long as its update said"
        );
    }
}

/// A change to a conflict set, noted: the entry's production and first
/// WME id, which order most entries, where the entry is in
/// [`ConflictUpdate`]'s bytes, and whether the set holds it after the
/// change.
#[derive(Debug, Clone, Copy)]
struct Noted {
    production: u32,
    first: Option<u64>,
    at: u32,
    present: bool,
}

/// The entry of a list this module wrote that starts at `at` of it: its
/// production, WME count and WME ids.
fn entry_at(list: &[u8], at: usize) -> &[u8] {
    let count = u64::from_le_bytes(list[at + 4..at + 12].try_into().expect("8 bytes"));
    &list[at..at + 12 + 8 * count as usize]
}

/// The canonical order of two entries — by production, then WME ids —
/// as [`Instantiation`]s order.
fn entry_order(a: &[u8], b: &[u8]) -> Ordering {
    fn production(entry: &[u8]) -> u32 {
        u32::from_le_bytes(entry[..4].try_into().expect("4 bytes"))
    }
    fn ids(entry: &[u8]) -> impl Iterator<Item = u64> + '_ {
        let id = |id: &[u8]| u64::from_le_bytes(id.try_into().expect("8 bytes"));
        entry[12..].chunks_exact(8).map(id)
    }
    (production(a).cmp(&production(b))).then_with(|| ids(a).cmp(ids(b)))
}

/// A conflict set's changes since its list was last drafted, noted as
/// they are made ([`ConflictMarks::fold`]), and the list's length as the
/// set stands. Before the first draft it notes nothing, and the first
/// draft lists every entry.
#[derive(Debug, Clone, Default)]
pub struct ConflictMarks {
    /// A list was drafted, which the next is merged into.
    drafted: bool,
    /// The bytes the set's entries take in a list, once drafted.
    entries_len: usize,
    noted: ConflictUpdate,
}

impl ConflictMarks {
    /// Folds `delta` into `set` — its removals, then its additions —
    /// noting each entry that goes out or comes in. A noted change
    /// copies the entry's ids into a buffer that keeps its room.
    pub fn fold(&mut self, set: &mut BTreeSet<Instantiation>, delta: &MatchDelta) {
        let len = |inst: &Instantiation| 12 + 8 * inst.wmes.len();
        for inst in &delta.removed {
            if set.remove(inst) && self.drafted {
                self.entries_len -= len(inst);
                self.noted.note(inst, false);
            }
        }
        for inst in &delta.added {
            if set.insert(inst.clone()) && self.drafted {
                self.entries_len += len(inst);
                self.noted.note(inst, true);
            }
        }
    }

    /// The changes noted since the last draft, in the order made, into
    /// `update` — every entry of `set`, before the first draft — and the
    /// list's count and length: no pass over the set or the changes. The
    /// marks are emptied, and noted from here on.
    pub fn take(&mut self, set: &BTreeSet<Instantiation>, update: &mut ConflictUpdate) {
        if !self.drafted {
            update.list(set);
            self.entries_len = update.len - 8;
            self.drafted = true;
            return;
        }
        std::mem::swap(&mut self.noted, update);
        self.noted.entries.clear();
        self.noted.noted.clear();
        update.count = set.len();
        update.len = 8 + self.entries_len;
        update.whole = false;
    }
}

/// Reads a conflict list, handing `each` instantiation's production and
/// WMEs, and rejects one out of canonical order or naming a WME id no
/// working memory hands out.
fn read_conflict(
    r: &mut ByteReader<'_>,
    mut each: impl FnMut(ProductionId, &[WmeId]),
) -> Result<(), CodecError> {
    let (mut last, mut next) = ((ProductionId(0), Vec::new()), Vec::new());
    for i in 0..r.usize()? {
        let production = ProductionId(r.u32()?);
        next.clear();
        for _ in 0..r.usize()? {
            let id =
                u32::try_from(r.u64()?).map_err(|_| CodecError::Invalid("WME id overflows"))?;
            next.push(WmeId::from_index(id as usize));
        }
        if i > 0 && (production, &next[..]) <= (last.0, &last.1[..]) {
            return Err(CodecError::Invalid("conflict list out of canonical order"));
        }
        each(production, &next);
        last.0 = production;
        std::mem::swap(&mut last.1, &mut next);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_roundtrips_through_bytes() {
        let cp = Checkpoint {
            cycle: 17,
            wm: WorkingMemory::new().snapshot_bytes(),
            rete: ReteSnapshot::from_bytes(vec![1, 2, 3, 4]),
            conflict: Checkpoint::encode_conflict(&[Instantiation::new(
                ProductionId(3),
                vec![WmeId::from_index(0), WmeId::from_index(9)],
            )]),
        };
        let bytes = cp.to_bytes();
        assert_eq!(bytes[cp.rete_at()..][..4], [1, 2, 3, 4]);
        let back = Checkpoint::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back, cp);
    }

    #[test]
    fn checkpoint_rejects_corruption() {
        let cp = Checkpoint::genesis(ReteSnapshot::from_bytes(Vec::new()));
        let mut bytes = cp.to_bytes();
        bytes[5] = 0xFF;
        assert!(Checkpoint::from_bytes(&bytes).is_err(), "bad version");
        let mut bytes = cp.to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(Checkpoint::from_bytes(&bytes).is_err(), "eof");
        // The working-memory blob's length field sits right after the
        // header and the cycle; a huge value must fail before anything
        // is allocated for it.
        let mut bytes = cp.to_bytes();
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            Checkpoint::from_bytes(&bytes),
            Err(CodecError::UnexpectedEof),
            "blob length beyond the buffer"
        );
    }

    fn inst(production: u32, ids: &[usize]) -> Instantiation {
        let wmes = ids.iter().map(|&i| WmeId::from_index(i)).collect();
        Instantiation::new(ProductionId(production), wmes)
    }

    /// Takes `marks`' changes to `set` into `update` and merges them into
    /// `last`, which must make the list of `set` from nothing; returns it.
    fn merged(
        marks: &mut ConflictMarks,
        set: &BTreeSet<Instantiation>,
        update: &mut ConflictUpdate,
        last: &[u8],
    ) -> Vec<u8> {
        marks.take(set, update);
        let mut list = Vec::with_capacity(update.list_len());
        update.merge(last, &mut list);
        assert_eq!(list, Checkpoint::encode_conflict(set));
        assert_eq!(list.len(), list.capacity(), "sized");
        list
    }

    /// A list merged from the entries that changed is the list from
    /// nothing: from and to an empty list, with the first and the last
    /// entry gone, with every entry gone, with entries touched more than
    /// once in an interval — added and removed then added back, removed
    /// and added then removed again, added and removed having never been
    /// listed — and with entries that order apart only past their first
    /// byte (productions and WME ids above 255, one id list a prefix of
    /// another).
    #[test]
    fn a_merged_conflict_list_is_the_list_from_nothing() {
        let (mut set, mut marks) = (BTreeSet::new(), ConflictMarks::default());
        let mut update = ConflictUpdate::default();
        let delta = |added: &[Instantiation], removed: &[Instantiation]| MatchDelta {
            added: added.to_vec(),
            removed: removed.to_vec(),
        };
        let mut last = merged(&mut marks, &set, &mut update, &[]);
        assert_eq!(
            last,
            Checkpoint::encode_conflict(&[]),
            "empty, from nothing"
        );
        last = merged(&mut marks, &set, &mut update, &last);
        let (a, b, c) = (inst(1, &[1]), inst(1, &[1, 2]), inst(1, &[256]));
        let (d, e, f) = (inst(256, &[2]), inst(300, &[1, 2, 3]), inst(2, &[70_000]));
        let every = [&a, &b, &c, &d, &e, &f].map(Clone::clone);
        // Empty to full, each entry after the first.
        marks.fold(&mut set, &delta(&every, &[]));
        last = merged(&mut marks, &set, &mut update, &last);
        assert_eq!(set.len(), 6);
        // The first and the last entry gone.
        let (first, end) = (set.first().cloned().unwrap(), set.last().cloned().unwrap());
        marks.fold(&mut set, &delta(&[], &[first, end]));
        last = merged(&mut marks, &set, &mut update, &last);
        // Touched more than once: `b` out and back, `c` out, back and
        // out again, `g` in and out having never been listed, `a` in
        // again and out, `e` back.
        let g = inst(0, &[9]);
        for (added, removed) in [
            (vec![g.clone()], vec![b.clone(), c.clone()]),
            (vec![b.clone(), c.clone(), a.clone()], vec![g.clone()]),
            (vec![e.clone()], vec![c.clone(), a.clone()]),
        ] {
            marks.fold(&mut set, &delta(&added, &removed));
        }
        last = merged(&mut marks, &set, &mut update, &last);
        assert!(set.contains(&b) && set.contains(&e) && !set.contains(&c));
        // Every entry gone, then nothing, then one back.
        marks.fold(&mut set, &delta(&[], &every));
        last = merged(&mut marks, &set, &mut update, &last);
        assert_eq!(last, Checkpoint::encode_conflict(&[]), "every entry gone");
        last = merged(&mut marks, &set, &mut update, &last);
        marks.fold(&mut set, &delta(std::slice::from_ref(&f), &[]));
        merged(&mut marks, &set, &mut update, &last);
    }

    /// Seeded churn over a small set of entries, several changes between
    /// two lists: each list merged from the last is the list from
    /// nothing, whichever of two updates it is taken into.
    #[test]
    fn seeded_churn_merges_into_the_list_from_nothing() {
        use psm_obs::Rng64;
        let mut rng = Rng64::new(0xC0F1);
        let pool: Vec<Instantiation> = (0..40)
            .map(|i| inst(i % 3 * 200, &[i as usize % 7 * 100, i as usize]))
            .collect();
        let (mut set, mut marks) = (BTreeSet::new(), ConflictMarks::default());
        let mut updates = [ConflictUpdate::default(), ConflictUpdate::default()];
        let mut last = merged(&mut marks, &set, &mut updates[0], &[]);
        let lists = if cfg!(miri) { 10 } else { 400 };
        for list in 0..lists {
            for _ in 0..rng.gen_range(0..6u32) {
                let mut delta = MatchDelta::default();
                for _ in 0..rng.gen_range(0..4u32) {
                    let entry = rng.choose(&pool).clone();
                    match rng.gen_bool(0.5) {
                        true => delta.added.push(entry),
                        false => delta.removed.push(entry),
                    }
                }
                marks.fold(&mut set, &delta);
            }
            last = merged(&mut marks, &set, &mut updates[list % 2], &last);
        }
    }

    /// A checkpoint whose conflict list holds three instantiations, one
    /// with a WME id past 16 bits and one of a production past 8.
    fn pinned() -> Checkpoint {
        let inst = |production, ids: &[usize]| {
            let wmes = ids.iter().map(|&i| WmeId::from_index(i)).collect();
            Instantiation::new(ProductionId(production), wmes)
        };
        let list = [inst(2, &[4]), inst(3, &[0, 9]), inst(300, &[70_000, 1, 65])];
        Checkpoint {
            cycle: 40,
            wm: WorkingMemory::new().snapshot_bytes(),
            rete: ReteSnapshot::from_bytes(vec![7; 5]),
            conflict: Checkpoint::encode_conflict(&list),
        }
    }

    /// [`pinned`]'s image, recorded when a checkpoint held its conflict
    /// set as a list of instantiations and serialised them one by one.
    #[rustfmt::skip]
    const PINNED: [u8; 153] = [
        // Header, cycle 40, the empty working memory's 24-byte image.
        80, 83, 77, 67, 1, 0, 0, 0, 40, 0, 0, 0, 0, 0, 0, 0,
        24, 0, 0, 0, 0, 0, 0, 0, 80, 83, 77, 87, 1, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        // The five-byte matcher image.
        5, 0, 0, 0, 0, 0, 0, 0, 7, 7, 7, 7, 7,
        // The conflict list: three instantiations, then each one's
        // production, WME count and WME ids.
        3, 0, 0, 0, 0, 0, 0, 0,
        2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0,
        3, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        9, 0, 0, 0, 0, 0, 0, 0,
        44, 1, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 112, 17, 1, 0, 0, 0, 0, 0,
        1, 0, 0, 0, 0, 0, 0, 0, 65, 0, 0, 0, 0, 0, 0, 0,
    ];

    #[test]
    fn a_fixed_checkpoint_keeps_its_recorded_bytes() {
        let cp = pinned();
        let bytes = cp.to_bytes();
        assert_eq!(bytes, PINNED);
        assert_eq!(bytes.len(), cp.encoded_len());
        assert_eq!(bytes[bytes.len() - cp.conflict.len()..], cp.conflict[..]);
        let back = Checkpoint::from_bytes(&bytes).expect("decodes");
        assert_eq!(back, cp);
        let list = back.conflict_list().expect("a sound list");
        assert_eq!(Checkpoint::encode_conflict(&list), cp.conflict);
        let genesis = Checkpoint::genesis(ReteSnapshot::from_bytes(Vec::new()));
        assert_eq!(genesis.conflict_list(), Ok(Vec::new()));
    }

    /// Every cut of [`pinned`]'s image fails to decode, and so does
    /// every byte of its conflict list flipped where it is a count, a
    /// length or the high half of a WME id (which the decoder once cut
    /// to 32 bits, reading the id it was flipped from). A flipped
    /// production or low half of an id is another list, which the image
    /// carries no checksum to tell from this one (the chain's CRC-32
    /// does): it decodes only when it is still in canonical order, and
    /// then to the list those bytes encode. Nothing panics.
    #[test]
    fn a_damaged_conflict_list_fails_to_decode_or_says_what_it_holds() {
        let cp = pinned();
        let bytes = cp.to_bytes();
        for len in 0..bytes.len() {
            assert!(
                Checkpoint::from_bytes(&bytes[..len]).is_err(),
                "cut at {len}"
            );
        }
        let at = bytes.len() - cp.conflict.len();
        // Offsets in the list of the counts, lengths and WME ids.
        let counts = [0..8, 12..20, 32..40, 60..68];
        let ids = [20, 40, 48, 68, 76, 84];
        let mut decoded = 0;
        for i in 0..cp.conflict.len() {
            let mut bad = bytes.clone();
            bad[at + i] ^= 0xFF;
            let must_fail = counts.iter().any(|count| count.contains(&i))
                || ids.iter().any(|&id| (id + 4..id + 8).contains(&i));
            match Checkpoint::from_bytes(&bad) {
                Err(_) => {}
                Ok(back) => {
                    assert!(!must_fail, "byte {i} flipped decodes");
                    let list = back.conflict_list().expect("a decoded list is sound");
                    assert_ne!(Ok(&list), cp.conflict_list().as_ref(), "byte {i}");
                    assert_eq!(Checkpoint::encode_conflict(&list), bad[at..], "byte {i}");
                    decoded += 1;
                }
            }
        }
        assert!(decoded < cp.conflict.len() / 2, "{decoded} decoded");
    }
}
