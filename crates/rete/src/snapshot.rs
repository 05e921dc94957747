//! Versioned checkpoint/restore of a live [`ReteMatcher`].
//!
//! The paper's §3.1 argument for state-saving algorithms — incremental
//! match state is ~20× cheaper to keep than to re-derive — is also the
//! argument for being able to *snapshot* that state: when a worker dies
//! mid-cycle, restoring a snapshot and replaying the change tail is far
//! cheaper than rebuilding the network state from the whole working
//! memory. This module serializes everything dynamic in a matcher —
//! alpha memories (and hash indexes), beta-memory tokens, negative-node
//! counts and key-value buckets, and the work counters — into a
//! canonical byte stream.
//!
//! The encoding is deterministic (hash-map keys are emitted in sorted
//! order), so two matchers in identical logical states produce identical
//! bytes. `psm-fault` leans on this: its recovery audit compares the
//! snapshot of a restored-and-replayed matcher byte-for-byte against the
//! snapshot of a matcher that lived through the same changes.

use std::cell::Cell;
use std::sync::Arc;

use ops5::{ByteReader, ByteWriter, CodecError, FxHashMap, SymbolId, Value, WmeId};

use crate::kernel::Bucket;
use crate::network::Network;
use crate::runtime::{MemoryStrategy, NegEntry, NegMemory, NodeState, ReteMatcher, NIL};
use crate::stats::MatchStats;
use crate::token::Token;

const MAGIC: [u8; 4] = *b"PSMR";
// v2: `phantom_removes` joined the stats block, and beta-memory entries
// carry their captured hash-index key values (parallel to the tokens).
// v3: negative-node memories carry their key-value buckets (a `next`
// link per entry and the bucket heads).
const VERSION: u32 = 3;

/// A serialized matcher state (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReteSnapshot {
    bytes: Vec<u8>,
}

impl ReteSnapshot {
    /// The raw snapshot bytes (stable, versioned format).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Wraps raw bytes previously produced by [`ReteMatcher::snapshot`]
    /// (e.g. read back from a checkpoint file). Validated on restore.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        ReteSnapshot { bytes }
    }

    /// Snapshot size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the snapshot holds no bytes (never produced by
    /// [`ReteMatcher::snapshot`]).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

fn encode_token(w: &mut ByteWriter, token: &Token) {
    w.usize(token.len());
    for &id in token.wmes() {
        w.u32(id.index() as u32);
    }
}

fn decode_token(r: &mut ByteReader<'_>) -> Result<Token, CodecError> {
    let n = r.usize()?;
    let mut wmes = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        wmes.push(WmeId::from_index(r.u32()? as usize));
    }
    Ok(Token::from_wmes(wmes))
}

fn encode_stats(w: &mut ByteWriter, s: &MatchStats) {
    for v in [
        s.changes,
        s.inserts,
        s.constant_tests,
        s.alpha_mem_ops,
        s.right_activations,
        s.left_activations,
        s.join_tests,
        s.pairs_scanned,
        s.beta_mem_ops,
        s.tokens_created,
        s.conflict_changes,
        s.peak_tokens,
        s.live_tokens,
        s.phantom_removes,
    ] {
        w.u64(v);
    }
}

fn decode_stats(r: &mut ByteReader<'_>) -> Result<MatchStats, CodecError> {
    let mut s = MatchStats::default();
    for field in [
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
    ] {
        *field = r.u64()?;
    }
    Ok(s)
}

fn encode_captured_keys(w: &mut ByteWriter, keys: &[Option<Value>]) {
    w.usize(keys.len());
    for key in keys {
        match key {
            Some(v) => {
                w.u8(1);
                v.encode(w);
            }
            None => w.u8(0),
        }
    }
}

fn decode_captured_keys(r: &mut ByteReader<'_>) -> Result<Box<[Option<Value>]>, CodecError> {
    let n = r.usize()?;
    let mut keys = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        keys.push(match r.u8()? {
            0 => None,
            1 => Some(Value::decode(r)?),
            _ => return Err(CodecError::Invalid("bad captured-key tag")),
        });
    }
    Ok(keys.into_boxed_slice())
}

/// Decodes a negative node's memory. A link (a bucket head or an
/// entry's `next`) must name an entry of the memory, and no entry may
/// be named twice: chains then neither leave the memory, nor merge, nor
/// loop back into themselves.
fn decode_negative(r: &mut ByteReader<'_>) -> Result<NegMemory, CodecError> {
    let n = r.usize()?;
    let mut memory = NegMemory::default();
    memory.entries.reserve(n.min(1 << 20));
    let mut links = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let token = decode_token(r)?;
        let count = Cell::new(r.u32()?);
        let next = r.u32()?;
        links.extend((next != NIL).then_some(next));
        memory.entries.push(NegEntry { token, count, next });
    }
    for _ in 0..r.usize()? {
        let key = Value::decode(r)?;
        let head = r.u32()?;
        links.push(head);
        if memory.heads.insert(key, head).is_some() {
            return Err(CodecError::Invalid("repeated negative bucket"));
        }
    }
    let mut named = vec![false; memory.entries.len()];
    for at in links {
        match named.get_mut(at as usize) {
            Some(seen) if !*seen => *seen = true,
            _ => return Err(CodecError::Invalid("negative bucket link out of place")),
        }
    }
    Ok(memory)
}

impl ReteMatcher {
    /// Serializes all dynamic matcher state into a versioned snapshot.
    ///
    /// The compiled network is *not* included — it is static and cheap
    /// to recompile — so [`ReteMatcher::restore`] needs the same
    /// [`Network`] the snapshot was taken against.
    pub fn snapshot(&self) -> ReteSnapshot {
        let mut w = ByteWriter::with_header(MAGIC, VERSION);
        w.usize(self.network().nodes.len());
        w.usize(self.alpha_mems.len());
        w.u8(match self.memory {
            MemoryStrategy::Linear => 0,
            MemoryStrategy::Hashed => 1,
        });
        encode_stats(&mut w, &self.stats);

        for mem in &self.alpha_mems {
            w.usize(mem.len());
            for &id in mem {
                w.u32(id.index() as u32);
            }
        }
        for index in &self.alpha_index {
            let mut keys: Vec<&(SymbolId, Value)> = index.keys().collect();
            keys.sort_unstable();
            w.usize(keys.len());
            for key in keys {
                w.u32(key.0.index() as u32);
                key.1.encode(&mut w);
                let bucket = &index[key];
                w.usize(bucket.as_slice().len());
                for &id in bucket.as_slice() {
                    w.u32(id.index() as u32);
                }
            }
        }
        let mut heads: Vec<(Value, u32)> = Vec::new();
        for (node, state) in self.states.iter().enumerate() {
            match state {
                NodeState::Mem {
                    tokens,
                    keys,
                    index,
                } => {
                    w.u8(0);
                    w.usize(tokens.len());
                    for t in tokens {
                        encode_token(&mut w, t);
                    }
                    // Captured insert-time key values, one fixed-width
                    // chunk per token (none under the linear strategy;
                    // the runtime stores them flattened).
                    let width = self.mem_keys[node].len();
                    let chunks = keys.len().checked_div(width).unwrap_or(0);
                    w.usize(chunks);
                    for chunk in keys.chunks_exact(width.max(1)).take(chunks) {
                        encode_captured_keys(&mut w, chunk);
                    }
                    let mut keys: Vec<&(usize, SymbolId, Value)> = index.keys().collect();
                    keys.sort_unstable();
                    w.usize(keys.len());
                    for key in keys {
                        w.usize(key.0);
                        w.u32(key.1.index() as u32);
                        key.2.encode(&mut w);
                        let bucket = &index[key];
                        w.usize(bucket.as_slice().len());
                        for t in bucket.as_slice() {
                            encode_token(&mut w, t);
                        }
                    }
                }
                NodeState::Neg(memory) => {
                    w.u8(1);
                    w.usize(memory.entries.len());
                    for e in &memory.entries {
                        encode_token(&mut w, &e.token);
                        w.u32(e.count.get());
                        w.u32(e.next);
                    }
                    // With the entries' `next` links, the index as it
                    // is: a restored matcher scans each bucket in the
                    // order this one does.
                    heads.clear();
                    heads.extend(memory.heads.iter().map(|(&key, &at)| (key, at)));
                    heads.sort_unstable();
                    w.usize(heads.len());
                    for &(key, head) in &heads {
                        key.encode(&mut w);
                        w.u32(head);
                    }
                }
                NodeState::Stateless => w.u8(2),
            }
        }
        ReteSnapshot { bytes: w.finish() }
    }

    /// Rebuilds a matcher from `snapshot` over `network`.
    ///
    /// `network` must be (structurally) the network the snapshot was
    /// taken against; node and alpha-memory counts are checked.
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
        let stats = decode_stats(&mut r)?;

        let mut alpha_mems = Vec::with_capacity(alphas);
        for _ in 0..alphas {
            let n = r.usize()?;
            let mut mem = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                mem.push(WmeId::from_index(r.u32()? as usize));
            }
            alpha_mems.push(mem);
        }
        let mut alpha_index = Vec::with_capacity(alphas);
        for _ in 0..alphas {
            let keys = r.usize()?;
            let mut index: FxHashMap<(SymbolId, Value), Bucket<WmeId>> = FxHashMap::default();
            for _ in 0..keys {
                let sym = SymbolId::from_index(r.u32()? as usize);
                let value = Value::decode(&mut r)?;
                let len = r.usize()?;
                let mut bucket = Vec::with_capacity(len.min(1 << 20));
                for _ in 0..len {
                    bucket.push(WmeId::from_index(r.u32()? as usize));
                }
                if let Some(bucket) = Bucket::from_vec(bucket) {
                    index.insert((sym, value), bucket);
                }
            }
            alpha_index.push(index);
        }
        let mut states = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            states.push(match r.u8()? {
                0 => {
                    let n = r.usize()?;
                    let mut tokens = Vec::with_capacity(n.min(1 << 20));
                    for _ in 0..n {
                        tokens.push(decode_token(&mut r)?);
                    }
                    let nk = r.usize()?;
                    if nk != 0 && nk != n {
                        return Err(CodecError::Invalid("captured keys not parallel to tokens"));
                    }
                    // Flatten the per-token chunks into the runtime's
                    // flat parallel layout; all chunks of one node must
                    // share a width.
                    let mut captured: Vec<Option<Value>> = Vec::new();
                    let mut width: Option<usize> = None;
                    for _ in 0..nk {
                        let chunk = decode_captured_keys(&mut r)?;
                        if *width.get_or_insert(chunk.len()) != chunk.len() {
                            return Err(CodecError::Invalid("ragged captured-key chunks"));
                        }
                        captured.extend(chunk.iter().cloned());
                    }
                    let keys = r.usize()?;
                    let mut index: FxHashMap<(usize, SymbolId, Value), Bucket<Token>> =
                        FxHashMap::default();
                    for _ in 0..keys {
                        let pos = r.usize()?;
                        let sym = SymbolId::from_index(r.u32()? as usize);
                        let value = Value::decode(&mut r)?;
                        let len = r.usize()?;
                        let mut bucket = Vec::with_capacity(len.min(1 << 20));
                        for _ in 0..len {
                            bucket.push(decode_token(&mut r)?);
                        }
                        if let Some(bucket) = Bucket::from_vec(bucket) {
                            index.insert((pos, sym, value), bucket);
                        }
                    }
                    NodeState::Mem {
                        tokens,
                        keys: captured,
                        index,
                    }
                }
                1 => NodeState::Neg(decode_negative(&mut r)?),
                2 => NodeState::Stateless,
                _ => return Err(CodecError::Invalid("bad node-state tag")),
            });
        }
        if !r.is_done() {
            return Err(CodecError::Invalid("trailing bytes after snapshot"));
        }

        let mut matcher = ReteMatcher::from_network(network);
        matcher.alpha_mems = alpha_mems;
        matcher.alpha_index = alpha_index;
        matcher.memory = memory;
        matcher.states = states;
        matcher.stats = stats;
        Ok(matcher)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::{parse_program, parse_wme, Change, Matcher, SymbolTable, WorkingMemory};

    const SRC: &str = "(p r1 (a ^x <v>) - (b ^y <v>) (c ^z <v>) --> (halt))\n\
                       (p r2 (a ^x <v>) (c ^z <v>) --> (remove 1))";

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

    /// The same on a state only removals produce: negative memories
    /// hundreds of entries long whose chains were unlinked from the
    /// middle and repointed at swap-moved entries. The restored matcher
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

    /// Two tokens in the one bucket of a negative node; the image ends
    /// with that bucket's head and the terminal's one-byte state.
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
    fn restore_rejects_a_negative_bucket_link_out_of_place() {
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
    fn restore_rejects_a_version_2_image() {
        let (m, mut bytes) = negative_bucket_image();
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            ReteMatcher::restore(m.network().clone(), &ReteSnapshot::from_bytes(bytes)).err(),
            Some(CodecError::BadVersion {
                supported: 3,
                found: 2
            })
        );
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

    #[test]
    fn restore_rejects_corrupt_bytes() {
        let (live, ..) = build_state(false);
        let mut bytes = live.snapshot().as_bytes().to_vec();
        bytes.truncate(bytes.len() / 2);
        assert!(
            ReteMatcher::restore(live.network().clone(), &ReteSnapshot::from_bytes(bytes)).is_err()
        );
    }
}
