//! The write-ahead log of committed working-memory change batches.
//!
//! Recovery in this crate is *snapshot + replay*: restore the last
//! checkpoint, then re-apply the WAL tail. For that to reproduce the
//! exact pre-fault state, each entry must carry everything replay
//! needs: the asserted WMEs **with their original ids** (so replayed
//! `WorkingMemory::add` calls hand out the same handles) and the
//! retraction ids, in the original change order. This mirrors the §3.1
//! observation that state-saving algorithms only pay off if saved state
//! can be re-derived exactly.
//!
//! [`Wal`] itself is never serialized: it is the in-memory tail since
//! the last checkpoint, which the supervisor's cold path replays. What goes to a standby is the same entries, encoded once by
//! [`encode_entry`] into the CRC frames of a [`crate::segment`] segment.

use ops5::{ByteReader, ByteWriter, Change, CodecError, Wme, WmeId};

/// One logged working-memory change, in original batch order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalChange {
    /// An assertion: the WME's contents plus the id the working memory
    /// assigned it (replay asserts the same id comes back).
    Add(Wme, WmeId),
    /// A retraction by id (the WME's contents live in an earlier
    /// `Add`, possibly in the checkpoint's working-memory image).
    Remove(WmeId),
}

impl WalChange {
    /// The [`ops5::Change`] this entry replays as.
    pub fn as_change(&self) -> Change {
        match self {
            WalChange::Add(_, id) => Change::Add(*id),
            WalChange::Remove(id) => Change::Remove(*id),
        }
    }
}

/// One committed batch: the supervised cycle index plus its changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalEntry {
    /// Supervised cycle the batch belongs to.
    pub cycle: u64,
    /// The batch's changes in original order.
    pub changes: Vec<WalChange>,
}

/// An in-memory write-ahead log, truncated at every checkpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Wal {
    entries: Vec<WalEntry>,
}

impl Wal {
    /// An empty log.
    pub fn new() -> Self {
        Wal::default()
    }

    /// Appends a committed batch.
    pub fn push(&mut self, entry: WalEntry) {
        self.entries.push(entry);
    }

    /// The committed batches since the last checkpoint, oldest first.
    pub fn entries(&self) -> &[WalEntry] {
        &self.entries
    }

    /// Number of logged batches.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no batches are logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all entries (called after a checkpoint captures them).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Encodes one [`WalEntry`] (cycle, then tagged changes) into `w` — the
/// payload of one CRC-framed record of a [`crate::segment::WalSegment`].
pub fn encode_entry(w: &mut ByteWriter, entry: &WalEntry) {
    w.u64(entry.cycle);
    w.usize(entry.changes.len());
    for change in &entry.changes {
        match change {
            WalChange::Add(wme, id) => {
                w.u8(0);
                wme.encode(w);
                w.usize(id.index());
            }
            WalChange::Remove(id) => {
                w.u8(1);
                w.usize(id.index());
            }
        }
    }
}

/// Decodes one [`WalEntry`] written by [`encode_entry`].
///
/// # Errors
///
/// Returns [`CodecError`] on truncated data or an unknown change tag.
pub fn decode_entry(r: &mut ByteReader<'_>) -> Result<WalEntry, CodecError> {
    let cycle = r.u64()?;
    let m = r.usize()?;
    let mut changes = Vec::with_capacity(m.min(1 << 16));
    for _ in 0..m {
        changes.push(match r.u8()? {
            0 => {
                let wme = Wme::decode(r)?;
                WalChange::Add(wme, WmeId::from_index(r.usize()?))
            }
            1 => WalChange::Remove(WmeId::from_index(r.usize()?)),
            _ => return Err(CodecError::Invalid("unknown WAL change tag")),
        });
    }
    Ok(WalEntry { cycle, changes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::{SymbolTable, Value};

    #[test]
    fn an_entry_roundtrips_and_replays_as_the_changes_it_logged() {
        let mut syms = SymbolTable::new();
        let class = syms.intern("goal");
        let attr = syms.intern("status");
        let val = syms.intern("active");
        let wme = Wme::new(class, vec![(attr, Value::Sym(val))]);
        let entry = WalEntry {
            cycle: 1,
            changes: vec![
                WalChange::Remove(WmeId::from_index(0)),
                WalChange::Add(wme, WmeId::from_index(1)),
            ],
        };
        let mut w = ByteWriter::new();
        encode_entry(&mut w, &entry);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        let back = decode_entry(&mut r).expect("roundtrip");
        assert!(r.is_done());
        assert_eq!(back, entry);
        let changes: Vec<Change> = back.changes.iter().map(WalChange::as_change).collect();
        assert_eq!(
            changes,
            [
                Change::Remove(WmeId::from_index(0)),
                Change::Add(WmeId::from_index(1))
            ]
        );
    }
}
