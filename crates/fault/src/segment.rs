//! Bounded, CRC-framed WAL segments with a manifest and coverage GC.
//!
//! The in-memory [`crate::Wal`] is truncated at every checkpoint, which
//! is right for local recovery but useless for replication: a standby
//! that missed a truncation can never catch up. This module keeps the
//! *shipped* form of the log instead — an append-only sequence of
//! [`WalSegment`]s, each bounded in size and independently decodable:
//!
//! * every segment starts with the `PSML` magic at **version 2** and
//!   its sequence number;
//! * every entry is framed as `[len u32][crc32 u32][payload]`, where
//!   the payload is [`encode_entry`]'s;
//! * there is deliberately **no entry count** in the header, so a
//!   segment torn mid-write decodes to its longest valid frame prefix
//!   ([`WalSegment::from_bytes_lossy`]) instead of failing whole;
//! * a [`SegmentedWal`] rotates the open segment past a byte bound,
//!   reports a [`SegmentMeta`] manifest, and garbage-collects sealed
//!   segments once a checkpoint covers their last cycle. It holds every
//!   segment, the open one included, as the bytes it ships: an entry is
//!   encoded once, when it is appended.
//!
//! The CRC is plain IEEE CRC-32 ([`crc32`]), hand-rolled because the
//! workspace is zero-dependency. Where the CPU has carry-less multiplies,
//! every input of 64 bytes or more is folded 64 bytes a step: checkpoint
//! images, sealed segments, and every WAL frame payload of the vt stream
//! (72 bytes for a load cycle's one change, 137–276 for a stream cycle's
//! changes). Inputs under 64
//! bytes, other targets and Miri take the tables, eight bytes a step.

use ops5::{ByteReader, ByteWriter, CodecError};

use crate::wal::{decode_entry, encode_entry, WalEntry};

const MAGIC: [u8; 4] = *b"PSML";
const VERSION: u32 = 2;
/// Magic + version + sequence number.
const HEADER_BYTES: usize = 4 + 4 + 8;
/// Length + CRC preceding every frame payload.
const FRAME_OVERHEAD: usize = 4 + 4;
/// Frames larger than this are treated as corruption, not allocation
/// requests.
const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// IEEE CRC-32 step for one byte: the reflected polynomial
/// `0xEDB88320` applied bit by bit. The tables are built from it at
/// compile time and the tests keep it as the oracle.
const fn crc32_byte(mut crc: u32) -> u32 {
    let mut bit = 0;
    while bit < 8 {
        let mask = (crc & 1).wrapping_neg();
        crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        bit += 1;
    }
    crc
}

/// Slicing-by-8 tables: `CRC_TABLES[k][b]` is the CRC register after
/// byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        t[0][b] = crc32_byte(b as u32);
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// IEEE CRC-32 (reflected polynomial `0xEDB88320`): 64 bytes a step by
/// carry-less multiplication where the CPU has it and the input holds
/// the 64 bytes the fold starts from, else eight bytes a step
/// (slicing-by-8). The value is the same either way.
pub fn crc32(bytes: &[u8]) -> u32 {
    let crc = 0xFFFF_FFFF;
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if bytes.len() >= fold::MIN_BYTES && fold::detected() {
        // SAFETY: `fold::update` needs `pclmulqdq` and `sse4.1`, and
        // `fold::detected` just found both on this CPU.
        return !unsafe { fold::update(crc, bytes) };
    }
    !crc32_tables(crc, bytes)
}

/// Runs the CRC register `crc` over `bytes`, eight bytes per step.
fn crc32_tables(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 by folding with carry-less multiplication: Gopal et al., "Fast
/// CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction"
/// (Intel, 2009), with the constants for the reflected polynomial.
///
/// Four 128-bit lanes take 64 bytes a step: each lane is multiplied by
/// x^(512 ± 32) mod P (K1, K2) and the next 16 bytes are xored in, which
/// leaves the remainder mod P unchanged. The lanes then fold into one
/// (x^(128 ± 32) mod P: K3, K4), 16 bytes at a time from there; the
/// 128 bits left shrink to 64 (K4, K5), and a Barrett reduction (P′, μ)
/// takes those to the 32-bit register. The tables run the tail of fewer
/// than 16 bytes.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod fold {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// What [`update`] loads before its first fold: four 16-byte lanes.
    /// It is the only bound on the fold: measured, the fold already runs
    /// 2.3–2.7× faster than the tables at 64–120 bytes
    /// (`tests::crc32_paths_by_length`), so only shorter inputs take the
    /// tables.
    pub(super) const MIN_BYTES: usize = 64;

    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    /// P′, the polynomial with its x^32 term, reflected.
    const P: i64 = 0x1_DB71_0641;
    /// μ = ⌊x^64 / P⌋, reflected.
    const MU: i64 = 0x1_F701_1641;

    /// Whether this CPU has what [`update`] is compiled to use.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Runs the CRC register `crc` over `bytes`, at least 64 of them.
    ///
    /// # Safety
    ///
    /// Call it only where [`detected`] holds: it is compiled to use
    /// `pclmulqdq` and `sse4.1`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(crc: u32, bytes: &[u8]) -> u32 {
        let mut blocks = bytes.chunks_exact(16);
        let mut next = || {
            let block = blocks.next().expect("at least 64 bytes");
            // SAFETY: `block` is 16 readable bytes, and the load asks for
            // no alignment; SSE2 is part of x86_64.
            unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>()) }
        };
        let mut lanes = [next(), next(), next(), next()];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut left = bytes.len() / 16 - 4;
        while left >= 4 {
            for lane in &mut lanes {
                *lane = fold_into(*lane, next(), k1k2);
            }
            left -= 4;
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = lanes[0];
        for lane in &lanes[1..] {
            x = fold_into(x, *lane, k3k4);
        }
        for _ in 0..left {
            x = fold_into(x, next(), k3k4);
        }
        // 128 bits to 64: the low half times K4 into the high half, then
        // the low 32 bits times K5 into the rest.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P′, and the
        // register is the high 32 bits of R ^ T2 (reflected).
        let pu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::crc32_tables(crc, blocks.remainder())
    }

    /// `lane` times the key pair `keys`, its halves each by one key,
    /// xored into `block`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(lane: __m128i, block: __m128i, keys: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128(lane, keys, 0x00);
        let high = _mm_clmulepi64_si128(lane, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(block, low), high)
    }
}

/// The bytes every segment starts with.
fn segment_header(seq: u64) -> Vec<u8> {
    let mut w = ByteWriter::with_header(MAGIC, VERSION);
    w.u64(seq);
    w.finish()
}

/// Appends `entry` to `out` as one `[len][crc32][payload]` frame.
fn push_frame(out: &mut Vec<u8>, entry: &WalEntry) {
    let mut payload = ByteWriter::new();
    encode_entry(&mut payload, entry);
    let payload = payload.finish();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
}

/// One bounded run of WAL entries, identified by a sequence number.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalSegment {
    /// Position in the segment sequence (0-based, monotonic).
    pub seq: u64,
    /// Entries in append order.
    pub entries: Vec<WalEntry>,
}

/// What [`WalSegment::from_bytes_lossy`] salvaged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentOpenStats {
    /// Entries recovered (the longest valid frame prefix).
    pub recovered: usize,
    /// Trailing bytes dropped as a torn or corrupt tail (0 for a
    /// clean segment).
    pub truncated_bytes: usize,
}

impl WalSegment {
    /// An empty segment with the given sequence number.
    pub fn new(seq: u64) -> Self {
        WalSegment {
            seq,
            entries: Vec::new(),
        }
    }

    /// Serializes the segment: `PSML` v2 header, then one CRC frame
    /// per entry.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = segment_header(self.seq);
        for entry in &self.entries {
            push_frame(&mut out, entry);
        }
        out
    }

    /// The serialized size of `entry` inside a segment, frame overhead
    /// included.
    pub fn framed_len(entry: &WalEntry) -> usize {
        let mut payload = ByteWriter::new();
        encode_entry(&mut payload, entry);
        FRAME_OVERHEAD + payload.len()
    }

    /// Decodes a segment, salvaging the longest valid frame prefix.
    ///
    /// A frame whose length field overruns the buffer, whose CRC does
    /// not match, or whose payload does not decode as a [`WalEntry`]
    /// ends the segment there: everything before it is returned,
    /// everything from it on is counted as `truncated_bytes`. This is
    /// the torn-tail contract — a partially shipped or
    /// partially written segment is usable up to its last complete
    /// frame and never panics.
    ///
    /// # Errors
    ///
    /// Only the header is load-bearing: a bad magic, version, or a
    /// buffer too short to hold the header returns [`CodecError`]
    /// (nothing is salvageable without knowing which segment this is).
    pub fn from_bytes_lossy(bytes: &[u8]) -> Result<(WalSegment, SegmentOpenStats), CodecError> {
        let (mut r, version) = ByteReader::with_header(bytes, MAGIC)?;
        if version != VERSION {
            return Err(CodecError::BadVersion {
                supported: VERSION,
                found: version,
            });
        }
        let seq = r.u64()?;
        let mut segment = WalSegment::new(seq);
        let mut consumed = HEADER_BYTES;
        loop {
            let tail = &bytes[consumed..];
            if tail.is_empty() {
                break;
            }
            if tail.len() < FRAME_OVERHEAD {
                break; // torn mid-frame-header
            }
            let len = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
            let crc = u32::from_le_bytes([tail[4], tail[5], tail[6], tail[7]]);
            if len > MAX_FRAME_BYTES || tail.len() < FRAME_OVERHEAD + len as usize {
                break; // torn mid-payload or corrupt length
            }
            let payload = &tail[FRAME_OVERHEAD..FRAME_OVERHEAD + len as usize];
            if crc32(payload) != crc {
                break; // corrupt payload or frame header
            }
            let mut pr = ByteReader::new(payload);
            let Ok(entry) = decode_entry(&mut pr) else {
                break; // CRC collided with garbage; still refuse it
            };
            if !pr.is_done() {
                break;
            }
            segment.entries.push(entry);
            consumed += FRAME_OVERHEAD + len as usize;
        }
        let stats = SegmentOpenStats {
            recovered: segment.entries.len(),
            truncated_bytes: bytes.len() - consumed,
        };
        Ok((segment, stats))
    }

    /// First logged cycle, if any.
    pub fn first_cycle(&self) -> Option<u64> {
        self.entries.first().map(|e| e.cycle)
    }

    /// Last logged cycle, if any.
    pub fn last_cycle(&self) -> Option<u64> {
        self.entries.last().map(|e| e.cycle)
    }
}

/// Manifest row describing one segment (sealed or open).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Segment sequence number.
    pub seq: u64,
    /// First cycle logged in the segment (`u64::MAX` when empty).
    pub first_cycle: u64,
    /// Last cycle logged in the segment (0 when empty).
    pub last_cycle: u64,
    /// Entries in the segment.
    pub entries: usize,
    /// Serialized size in bytes.
    pub bytes: usize,
    /// CRC-32 of the serialized segment.
    pub crc: u32,
    /// True while the segment is still the append target (its bytes
    /// may grow between two manifest reads).
    pub open: bool,
}

impl SegmentMeta {
    /// The row of segment `seq` before its first entry.
    fn empty(seq: u64) -> Self {
        SegmentMeta {
            seq,
            first_cycle: u64::MAX,
            last_cycle: 0,
            entries: 0,
            bytes: 0,
            crc: 0,
            open: true,
        }
    }

    /// The row with its size and CRC read off the segment's `bytes`.
    fn over(self, bytes: &[u8], open: bool) -> Self {
        SegmentMeta {
            bytes: bytes.len(),
            crc: crc32(bytes),
            open,
            ..self
        }
    }
}

/// The shipped WAL: sealed segments plus one open append target.
///
/// Unlike [`crate::Wal`], nothing here is truncated at a checkpoint;
/// sealed segments are only dropped by [`SegmentedWal::gc_covered`]
/// once a checkpoint's cycle strictly exceeds their last cycle.
#[derive(Debug, Clone)]
pub struct SegmentedWal {
    max_segment_bytes: usize,
    sealed: Vec<(SegmentMeta, Vec<u8>)>,
    /// The open segment as it would ship right now: header, then one
    /// frame per appended entry.
    open: Vec<u8>,
    /// The open segment's cycle range and entry count, kept as entries
    /// arrive; its size and CRC are read off `open` when a row is.
    open_meta: SegmentMeta,
    gc_dropped: u64,
}

impl SegmentedWal {
    /// An empty log rotating segments past `max_segment_bytes` of
    /// encoded entries (header excluded; a single oversized entry
    /// still fits alone in its segment).
    pub fn new(max_segment_bytes: usize) -> Self {
        SegmentedWal {
            max_segment_bytes: max_segment_bytes.max(1),
            sealed: Vec::new(),
            open: segment_header(0),
            open_meta: SegmentMeta::empty(0),
            gc_dropped: 0,
        }
    }

    /// Appends one committed entry, rotating first if the open segment
    /// is already at its bound.
    pub fn append(&mut self, entry: &WalEntry) {
        if self.open.len() - HEADER_BYTES >= self.max_segment_bytes {
            self.seal();
        }
        push_frame(&mut self.open, entry);
        let meta = &mut self.open_meta;
        if meta.entries == 0 {
            meta.first_cycle = entry.cycle;
        }
        meta.last_cycle = entry.cycle;
        meta.entries += 1;
    }

    /// Seals the open segment (no-op when empty) and starts the next.
    pub fn seal(&mut self) {
        if self.open_meta.entries == 0 {
            return;
        }
        let next = self.open_meta.seq + 1;
        let bytes = std::mem::replace(&mut self.open, segment_header(next));
        let meta = std::mem::replace(&mut self.open_meta, SegmentMeta::empty(next));
        self.sealed.push((meta.over(&bytes, false), bytes));
    }

    /// Drops sealed segments fully covered by a checkpoint at `cycle`
    /// (their `last_cycle < cycle`). Returns how many were dropped.
    pub fn gc_covered(&mut self, cycle: u64) -> usize {
        let before = self.sealed.len();
        self.sealed
            .retain(|(meta, _)| meta.entries == 0 || meta.last_cycle >= cycle);
        let dropped = before - self.sealed.len();
        self.gc_dropped += dropped as u64;
        dropped
    }

    /// Live segments: the sealed ones, plus the open one once it holds
    /// an entry.
    pub fn segments(&self) -> usize {
        self.sealed.len() + usize::from(self.open_meta.entries > 0)
    }

    /// Manifest rows for every live segment, sealed first, open last.
    pub fn manifest(&self) -> Vec<SegmentMeta> {
        let mut rows: Vec<SegmentMeta> = self.sealed.iter().map(|(m, _)| *m).collect();
        if self.open_meta.entries > 0 {
            rows.push(self.open_meta.over(&self.open, true));
        }
        rows
    }

    /// Serialized bytes of segment `seq` (the open segment at its
    /// current frontier).
    pub fn segment_bytes(&self, seq: u64) -> Option<Vec<u8>> {
        if let Some((_, bytes)) = self.sealed.iter().find(|(m, _)| m.seq == seq) {
            return Some(bytes.clone());
        }
        (seq == self.open_meta.seq && self.open_meta.entries > 0).then(|| self.open.clone())
    }

    /// Total serialized bytes across live segments (the open one's
    /// header excluded, as in the rotation bound).
    pub fn total_bytes(&self) -> usize {
        let sealed: usize = self.sealed.iter().map(|(m, _)| m.bytes).sum();
        sealed + self.open.len() - HEADER_BYTES
    }

    /// Segments dropped by GC over the log's lifetime.
    pub fn gc_dropped(&self) -> u64 {
        self.gc_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalChange;
    use ops5::{SymbolTable, Value, Wme, WmeId};

    fn entry(cycle: u64, syms: &mut SymbolTable) -> WalEntry {
        let class = syms.intern("goal");
        let attr = syms.intern("n");
        let wme = Wme::new(class, vec![(attr, Value::Int(cycle as i64))]);
        WalEntry {
            cycle,
            changes: vec![
                WalChange::Add(wme, WmeId::from_index(cycle as usize)),
                WalChange::Remove(WmeId::from_index(cycle as usize)),
            ],
        }
    }

    /// The bit-at-a-time routine every stored CRC was written with.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        !bytes
            .iter()
            .fold(0xFFFF_FFFFu32, |crc, &b| crc32_byte(crc ^ u32::from(b)))
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_tables_equal_the_bitwise_oracle() {
        let mut rng = psm_obs::Rng64::new(0xC2C);
        let buf: Vec<u8> = (0..1 << 20).map(|_| rng.next_u64() as u8).collect();
        // Every length around the 8-byte step, at every alignment.
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start}, len {len}");
            }
        }
        assert_eq!(crc32(&buf), crc32_bitwise(&buf), "1 MiB");
        assert_eq!(crc32_bitwise(b""), 0);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    /// The fold of this CPU, when it has the features the fold needs.
    fn detected_fold() -> Option<fn(&[u8]) -> u32> {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if fold::detected() {
            // SAFETY: `fold::update` needs `pclmulqdq` and `sse4.1`, and
            // `fold::detected` just found both on this CPU.
            return Some(|s| !unsafe { fold::update(0xFFFF_FFFF, s) });
        }
        None
    }

    /// `crc32`, the fold on its own from the 64 bytes it needs, and the
    /// tables, against the bit-at-a-time oracle: every length to 1 KiB
    /// from every start within a 16-byte load, then 1 MiB.
    #[test]
    fn crc32_fold_and_tables_equal_the_bitwise_oracle() {
        let mut rng = psm_obs::Rng64::new(0xF01D);
        let buf: Vec<u8> = (0..1 << 20).map(|_| rng.next_u64() as u8).collect();
        let fold = detected_fold();
        let check = |s: &[u8], what: &str| {
            let want = crc32_bitwise(s);
            assert_eq!(crc32(s), want, "{what}");
            assert_eq!(!crc32_tables(0xFFFF_FFFF, s), want, "tables, {what}");
            if let Some(fold) = fold.filter(|_| s.len() >= 64) {
                assert_eq!(fold(s), want, "fold, {what}");
            }
        };
        for start in 0..16 {
            for len in 0..=1024 {
                check(
                    &buf[start..start + len],
                    &format!("start {start}, len {len}"),
                );
            }
        }
        check(&buf, "1 MiB");
        check(b"123456789", "check value");
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// Nanoseconds per call of the tables and of the fold by input
    /// length, each the best of nine rounds with the two paths
    /// interleaved: the measurement behind `fold::MIN_BYTES`. A timing,
    /// not a check, so it runs only when asked:
    /// `cargo test --release -p psm-fault --lib crc32_paths_by_length -- --ignored --nocapture`.
    #[test]
    #[ignore = "a timing: run it with --ignored --nocapture"]
    fn crc32_paths_by_length() {
        use std::hint::black_box;
        use std::time::Instant;
        let Some(fold) = detected_fold() else {
            println!("no pclmulqdq + sse4.1 here: crc32 is the tables alone");
            return;
        };
        let tables = |s: &[u8]| !crc32_tables(0xFFFF_FFFF, s);
        let mut rng = psm_obs::Rng64::new(0x7153);
        let buf: Vec<u8> = (0..8192).map(|_| rng.next_u64() as u8).collect();
        const CALLS: usize = 20_000;
        let ns_per_call = |f: &dyn Fn(&[u8]) -> u32, len: usize| {
            let t = Instant::now();
            let mut acc = 0;
            for _ in 0..CALLS {
                // Each call starts where the last one's value says, so
                // the calls run one after another, as a frame's does.
                let start = acc as usize % 16;
                acc ^= f(black_box(&buf[start..start + len]));
            }
            black_box(acc);
            t.elapsed().as_nanos() as f64 / CALLS as f64
        };
        println!(
            "{:>6} {:>10} {:>10} {:>8}",
            "bytes", "tables ns", "fold ns", "ratio"
        );
        let lengths = (64..=320).step_by(8).chain([384, 512, 1024, 4096]);
        for len in lengths {
            let (mut t_ns, mut f_ns) = (f64::MAX, f64::MAX);
            for _ in 0..9 {
                t_ns = t_ns.min(ns_per_call(&tables, len));
                f_ns = f_ns.min(ns_per_call(&fold, len));
            }
            println!("{len:>6} {t_ns:>10.1} {f_ns:>10.1} {:>8.2}", t_ns / f_ns);
        }
    }

    #[test]
    fn segment_roundtrips_cleanly() {
        let mut syms = SymbolTable::new();
        let mut seg = WalSegment::new(7);
        for c in 0..5 {
            seg.entries.push(entry(c, &mut syms));
        }
        let bytes = seg.to_bytes();
        let (back, stats) = WalSegment::from_bytes_lossy(&bytes).expect("decodes");
        assert_eq!(back, seg);
        assert_eq!(stats.recovered, 5);
        assert_eq!(stats.truncated_bytes, 0);
        assert_eq!(back.first_cycle(), Some(0));
        assert_eq!(back.last_cycle(), Some(4));
    }

    #[test]
    fn torn_tail_truncates_to_last_complete_frame() {
        let mut syms = SymbolTable::new();
        let mut seg = WalSegment::new(0);
        for c in 0..4 {
            seg.entries.push(entry(c, &mut syms));
        }
        let bytes = seg.to_bytes();
        // Chop off the last 3 bytes: the final frame is torn.
        let torn = &bytes[..bytes.len() - 3];
        let (back, stats) = WalSegment::from_bytes_lossy(torn).expect("header intact");
        assert_eq!(back.entries, seg.entries[..3]);
        assert_eq!(stats.recovered, 3);
        assert!(stats.truncated_bytes > 0);
    }

    #[test]
    fn corrupt_frame_ends_the_prefix() {
        let mut syms = SymbolTable::new();
        let mut seg = WalSegment::new(0);
        for c in 0..4 {
            seg.entries.push(entry(c, &mut syms));
        }
        let mut bytes = seg.to_bytes();
        // Flip a byte inside the second frame's payload.
        let first_frame = FRAME_OVERHEAD + {
            let mut w = ByteWriter::new();
            encode_entry(&mut w, &seg.entries[0]);
            w.len()
        };
        let target = HEADER_BYTES + first_frame + FRAME_OVERHEAD + 2;
        bytes[target] ^= 0xFF;
        let (back, stats) = WalSegment::from_bytes_lossy(&bytes).expect("header intact");
        assert_eq!(back.entries, seg.entries[..1], "prefix before the flip");
        assert!(stats.truncated_bytes > 0);
    }

    #[test]
    fn bad_header_is_an_error() {
        let seg = WalSegment::new(0);
        let mut bytes = seg.to_bytes();
        bytes[0] = b'X';
        assert!(WalSegment::from_bytes_lossy(&bytes).is_err());
        assert!(WalSegment::from_bytes_lossy(&bytes[..6]).is_err());
    }

    /// Reference model of a [`SegmentedWal`]: every segment as the
    /// entries appended to it, the open one last (possibly empty).
    struct Model {
        max: usize,
        segments: Vec<WalSegment>,
    }

    impl Model {
        fn open(&self) -> &WalSegment {
            self.segments.last().expect("always an open segment")
        }

        fn seal(&mut self) {
            if !self.open().entries.is_empty() {
                let next = WalSegment::new(self.open().seq + 1);
                self.segments.push(next);
            }
        }

        fn append(&mut self, entry: WalEntry) {
            let framed: usize = self.open().entries.iter().map(WalSegment::framed_len).sum();
            if framed >= self.max {
                self.seal();
            }
            self.segments.last_mut().unwrap().entries.push(entry);
        }

        fn gc_covered(&mut self, cycle: u64) -> usize {
            let before = self.segments.len();
            let open = self.segments.pop().unwrap();
            self.segments.retain(|s| s.last_cycle() >= Some(cycle));
            self.segments.push(open);
            before - self.segments.len()
        }

        /// Everything the log serves must be derivable from the entries
        /// alone, through [`WalSegment::to_bytes`].
        fn check(&self, wal: &SegmentedWal, what: &str) {
            let live: Vec<&WalSegment> = self
                .segments
                .iter()
                .filter(|s| !s.entries.is_empty())
                .collect();
            let manifest = wal.manifest();
            assert_eq!(manifest.len(), live.len(), "{what}: live segments");
            assert_eq!(
                wal.segments(),
                live.len(),
                "{what}: counted without a manifest"
            );
            let mut total = 0;
            for (seg, row) in live.iter().zip(&manifest) {
                let open = seg.seq == self.open().seq;
                let bytes = wal.segment_bytes(seg.seq).expect("advertised");
                assert_eq!(bytes, seg.to_bytes(), "{what}: segment {} bytes", seg.seq);
                let expected = SegmentMeta {
                    seq: seg.seq,
                    first_cycle: seg.first_cycle().unwrap(),
                    last_cycle: seg.last_cycle().unwrap(),
                    entries: seg.entries.len(),
                    bytes: bytes.len(),
                    crc: crc32(&bytes),
                    open,
                };
                assert_eq!(*row, expected, "{what}: segment {} row", seg.seq);
                let (back, stats) = WalSegment::from_bytes_lossy(&bytes).expect("decodes");
                assert_eq!(back, **seg, "{what}: segment {} decodes", seg.seq);
                assert_eq!((stats.recovered, stats.truncated_bytes), (row.entries, 0));
                total += bytes.len() - if open { HEADER_BYTES } else { 0 };
            }
            assert_eq!(wal.total_bytes(), total, "{what}: total bytes");
            let first_live = live.first().map_or(self.open().seq, |s| s.seq);
            for gone in 0..first_live {
                assert!(wal.segment_bytes(gone).is_none(), "{what}: {gone} dropped");
            }
        }
    }

    #[test]
    fn a_segmented_wal_serves_the_bytes_of_the_entries_it_was_given() {
        let mut syms = SymbolTable::new();
        let class = syms.intern("item");
        let attr = syms.intern("n");
        let (mut rotated, mut dropped) = (0, 0);
        for seed in 0..64u64 {
            let mut rng = psm_obs::Rng64::new(0x5E6 ^ seed);
            let max = rng.gen_range(1..600u64) as usize;
            let mut wal = SegmentedWal::new(max);
            let mut model = Model {
                max,
                segments: vec![WalSegment::new(0)],
            };
            let (mut cycle, mut next_id) = (0u64, 0usize);
            for step in 0..rng.gen_range(1..80u32) {
                match rng.gen_range(0..10u32) {
                    0 => {
                        wal.seal();
                        model.seal();
                    }
                    1 => {
                        let at = rng.gen_range(0..cycle + 2);
                        let n = wal.gc_covered(at);
                        assert_eq!(n, model.gc_covered(at));
                        dropped += n;
                    }
                    _ => {
                        let mut changes = Vec::new();
                        for _ in 0..rng.gen_range(0..5u32) {
                            let value = Value::Int(rng.next_u64() as i64);
                            let wme = Wme::new(class, vec![(attr, value)]);
                            changes.push(WalChange::Add(wme, WmeId::from_index(next_id)));
                            next_id += 1;
                        }
                        if rng.gen_bool(0.4) {
                            let id = rng.gen_range(0..next_id as u64 + 1) as usize;
                            changes.push(WalChange::Remove(WmeId::from_index(id)));
                        }
                        let entry = WalEntry { cycle, changes };
                        wal.append(&entry);
                        model.append(entry);
                        cycle += rng.gen_range(1..4u64);
                    }
                }
                model.check(&wal, &format!("seed {seed}, step {step}"));
            }
            rotated += model.open().seq;
        }
        assert!(rotated > 64 && dropped > 64, "rotation and GC both ran");
    }

    #[test]
    fn rotation_manifest_and_gc() {
        let mut syms = SymbolTable::new();
        let mut wal = SegmentedWal::new(64); // tiny bound: ~1 entry per segment
        for c in 0..6 {
            wal.append(&entry(c, &mut syms));
        }
        let manifest = wal.manifest();
        assert!(manifest.len() > 1, "tiny bound forces rotation");
        let seqs: Vec<u64> = manifest.iter().map(|m| m.seq).collect();
        assert_eq!(seqs, (0..manifest.len() as u64).collect::<Vec<_>>());
        assert!(manifest.last().unwrap().open);
        assert_eq!(manifest.iter().map(|m| m.entries).sum::<usize>(), 6);

        // Every advertised segment decodes and matches its CRC.
        for m in &manifest {
            let bytes = wal.segment_bytes(m.seq).expect("advertised");
            assert_eq!(crc32(&bytes), m.crc);
            let (seg, stats) = WalSegment::from_bytes_lossy(&bytes).expect("decodes");
            assert_eq!(seg.entries.len(), m.entries);
            assert_eq!(stats.truncated_bytes, 0);
        }

        // A checkpoint at cycle 4 covers segments whose last cycle < 4.
        wal.seal();
        let dropped = wal.gc_covered(4);
        assert!(dropped >= 1);
        assert_eq!(dropped as u64, wal.gc_dropped());
        for m in wal.manifest() {
            assert!(m.last_cycle >= 4 || m.entries == 0);
        }
        assert!(wal.segment_bytes(0).is_none(), "covered segment dropped");
    }
}
