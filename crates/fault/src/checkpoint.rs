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
//! so serialising one copies three blobs: the conflict set as well, which
//! a supervisor writes straight from its ordered set
//! ([`Checkpoint::encode_conflict`]) and only the cold path reads back
//! ([`Checkpoint::conflict_list`]).
//!
//! A supervisor does not build a [`Checkpoint`] to take one. Its
//! matching thread makes a [`Draft`] — the working-memory image, the
//! conflict list and the matcher's changed sections
//! ([`rete::ImageUpdate`]), with a buffer for the image allocated but not
//! written — and [`Draft::write`] writes the `PSMC` image into that
//! buffer, taking the matcher's unchanged sections from the last image
//! written ([`CheckpointImage`]). That runs on the replication store's
//! publisher when a store is attached. The image written is the one copy
//! of the checkpoint: [`CheckpointImage::checkpoint`] is a view of it,
//! made for the readers that ask. Drafts are all a store is handed; a
//! decoded [`Checkpoint`] joins a chain pushed by hand through
//! [`Checkpoint::to_bytes`], the reference writer whose bytes every
//! written image equals.
//!
//! Serialized under magic `PSMC`, version 1.

use std::sync::{Arc, Weak};

use ops5::{ByteReader, ByteWriter, CodecError, Instantiation, ProductionId, WmeId, WorkingMemory};
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
    /// Canonical [`WorkingMemory::snapshot_bytes`] image, shared with
    /// the supervisor that keeps it to copy the next one from
    /// ([`ops5::WmImage`]).
    pub wm: Arc<Vec<u8>>,
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
            wm: Arc::new(WorkingMemory::new().snapshot_bytes()),
            rete,
            conflict: Self::encode_conflict(&[]),
        }
    }

    /// The bytes of a conflict set listed in canonical order — by
    /// production, then WMEs, as a `BTreeSet` iterates — for
    /// [`Checkpoint::conflict`]: the count, then each instantiation's
    /// production, WME count and WME ids.
    pub fn encode_conflict<'a, I>(list: I) -> Vec<u8>
    where
        I: IntoIterator<Item = &'a Instantiation>,
        I::IntoIter: ExactSizeIterator + Clone,
    {
        let list = list.into_iter();
        let entries = list.clone().map(|inst| 12 + 8 * inst.wmes.len());
        let mut w = ByteWriter::new();
        w.reserve(8 + entries.sum::<usize>());
        w.usize(list.len());
        for inst in list {
            w.u32(inst.production.0);
            w.usize(inst.wmes.len());
            for id in &inst.wmes {
                w.usize(id.index());
            }
        }
        w.finish()
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
        let wm = Arc::new(read_blob(&mut r)?);
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

/// A checkpoint on its way to being written: its working-memory image
/// and conflict list, its matcher image as the sections that changed,
/// and the buffers its `PSMC` image and `PSMD` artifact are to be written
/// into, allocated at their sizes — not written — by the thread that
/// made the draft (`delta::Serialised` says why).
#[derive(Debug)]
pub struct Draft {
    cycle: u64,
    wm: Arc<Vec<u8>>,
    rete: ImageUpdate,
    conflict: Vec<u8>,
    bytes: Serialised,
}

impl Draft {
    /// A checkpoint covering `cycle` committed cycles: the working-memory
    /// image `wm`, the matcher's changed sections `rete` and the conflict
    /// list `conflict` ([`Checkpoint::encode_conflict`]).
    pub fn new(cycle: u64, wm: Arc<Vec<u8>>, rete: ImageUpdate, conflict: Vec<u8>) -> Draft {
        let len = 32 + wm.len() + rete.image_len() + conflict.len();
        Draft {
            cycle,
            wm,
            rete,
            conflict,
            bytes: Serialised::reserve(len),
        }
    }

    /// The cycles the checkpoint covers.
    pub(crate) fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Writes the `PSMC` image into the buffer the draft brought, with no
    /// other: the header, the cycle, the working-memory image, the
    /// matcher image — its changed sections between runs of unchanged
    /// ones copied from `last` — and the conflict list. Returns the
    /// image, and the draft's image update to be reused.
    ///
    /// # Panics
    ///
    /// When the draft lists some of its matcher's sections only and
    /// `last` is not the image written from that matcher's previous
    /// update.
    pub fn write(self, last: Option<&mut CheckpointImage>) -> (CheckpointImage, ImageUpdate) {
        let Draft {
            cycle,
            wm,
            mut rete,
            conflict,
            bytes: Serialised { mut image, delta },
        } = self;
        let buf = Arc::get_mut(&mut image).expect("a buffer of the draft's own");
        debug_assert!(buf.is_empty(), "not written before");
        let mut w = ByteWriter::over(std::mem::take(buf));
        w.bytes(&MAGIC);
        w.u32(VERSION);
        w.u64(cycle);
        w.usize(wm.len());
        w.bytes(&wm);
        w.usize(rete.image_len());
        let rete_at = w.len();
        let mut out = w.finish();
        let (base, mut table, from) = match last {
            Some(last) => {
                let base = &last.image[last.rete_at..][..last.rete.image_len()];
                (
                    base,
                    std::mem::take(&mut last.table),
                    Arc::downgrade(&last.image),
                )
            }
            None => (&[][..], SectionTable::default(), Weak::new()),
        };
        let written = rete.assemble(base, &mut table, &mut out);
        out.extend_from_slice(&conflict);
        debug_assert_eq!(out.len(), out.capacity(), "sized before it was written");
        *Arc::get_mut(&mut image).expect("still the draft's own") = out;
        let written = CheckpointImage {
            cycle,
            image,
            wm,
            rete_at,
            rete: written,
            table,
            from,
            delta,
        };
        (written, rete)
    }
}

/// A checkpoint written out by [`Draft::write`]: its `PSMC` image, how
/// its matcher image was written and where that image's sections lie —
/// what the next checkpoint's image is written from.
#[derive(Debug, Clone)]
pub struct CheckpointImage {
    cycle: u64,
    /// The `PSMC` image.
    image: Arc<Vec<u8>>,
    /// Its working-memory part, shared with whoever copies the next one
    /// from it ([`ops5::WmImage`]).
    wm: Arc<Vec<u8>>,
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
            wm: Arc::clone(&cp.wm),
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

    /// The checkpoint, its matcher image a part of this image rather
    /// than a copy, with the runs it was written copying as its
    /// [`ReteSnapshot::unchanged`].
    pub fn checkpoint(&self) -> Checkpoint {
        let conflict_at = self.rete_at + self.rete.image_len();
        Checkpoint {
            cycle: self.cycle,
            wm: Arc::clone(&self.wm),
            rete: ReteSnapshot::within(Arc::clone(&self.image), self.rete_at, &self.rete),
            conflict: self.image[conflict_at..].to_vec(),
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
            wm: Arc::new(WorkingMemory::new().snapshot_bytes()),
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
            wm: Arc::new(WorkingMemory::new().snapshot_bytes()),
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
