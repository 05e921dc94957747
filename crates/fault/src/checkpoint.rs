//! Versioned whole-engine checkpoints.
//!
//! A [`Checkpoint`] captures everything needed to resume matching from
//! a committed cycle: the working memory image (with future-id
//! continuity), the sequential Rete matcher's dynamic state (alpha and
//! beta memories, negation counts, statistics — see
//! [`rete::ReteSnapshot`]), and the conflict set. Cold recovery restores
//! the checkpoint and replays the WAL tail; because both sub-snapshots
//! are canonical byte encodings, "recovered exactly" is checkable with
//! `==` on bytes.
//!
//! Serialized under magic `PSMC`, version 1.

use ops5::{ByteReader, ByteWriter, CodecError, Instantiation, ProductionId, WmeId, WorkingMemory};
use rete::ReteSnapshot;

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
    /// The conflict set, sorted canonically.
    pub conflict: Vec<Instantiation>,
}

impl Checkpoint {
    /// The genesis checkpoint: empty working memory, a fresh matcher's
    /// snapshot, empty conflict set.
    pub fn genesis(rete: ReteSnapshot) -> Self {
        Checkpoint {
            cycle: 0,
            wm: WorkingMemory::new().snapshot_bytes(),
            rete,
            conflict: Vec::new(),
        }
    }

    /// Where [`Checkpoint::to_bytes`] puts the first byte of `rete`:
    /// after the header, the cycle, the length-prefixed working memory
    /// and its own length.
    pub(crate) fn rete_at(&self) -> usize {
        8 + 8 + 8 + self.wm.len() + 8
    }

    /// How many bytes [`Checkpoint::to_bytes`] writes.
    pub(crate) fn encoded_len(&self) -> usize {
        let conflict = self.conflict.iter().map(|inst| 12 + 8 * inst.wmes.len());
        self.rete_at() + self.rete.len() + 8 + conflict.sum::<usize>()
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
        w.usize(self.conflict.len());
        for inst in &self.conflict {
            w.u32(inst.production.0);
            w.usize(inst.wmes.len());
            for id in &inst.wmes {
                w.usize(id.index());
            }
        }
        w.finish()
    }

    /// Deserializes a checkpoint produced by [`Checkpoint::to_bytes`].
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
        let n = r.usize()?;
        let mut conflict = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let production = ProductionId(r.u32()?);
            let m = r.usize()?;
            let mut wmes = Vec::with_capacity(m.min(1 << 10));
            for _ in 0..m {
                wmes.push(WmeId::from_index(r.usize()?));
            }
            conflict.push(Instantiation::new(production, wmes));
        }
        if !r.is_done() {
            return Err(CodecError::Invalid("trailing bytes after checkpoint"));
        }
        Ok(Checkpoint {
            cycle,
            wm,
            rete,
            conflict,
        })
    }
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
            conflict: vec![Instantiation::new(
                ProductionId(3),
                vec![WmeId::from_index(0), WmeId::from_index(9)],
            )],
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
}
