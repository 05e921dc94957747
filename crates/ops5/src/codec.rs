//! A tiny self-describing binary codec for snapshots and write-ahead
//! logs.
//!
//! The workspace is intentionally zero-dependency, so checkpoint files
//! (`psm-fault`) and Rete state snapshots (`rete::snapshot`) share this
//! hand-rolled little-endian format instead of serde. Every top-level
//! artifact starts with a four-byte magic and a `u32` version so stale
//! files fail loudly instead of deserializing garbage.
//!
//! Encoding is canonical: writers must emit collections in a
//! deterministic order (sorted keys for hash maps), which makes
//! byte-for-byte comparison of two snapshots a valid state-equality
//! check — the property the recovery audit in `psm-fault` relies on.

use std::fmt;

/// Why a decode failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    UnexpectedEof,
    /// Magic bytes did not match the expected artifact type.
    BadMagic {
        /// The magic the reader expected.
        expected: [u8; 4],
        /// The magic actually found.
        found: [u8; 4],
    },
    /// The artifact version is not one this build can read.
    BadVersion {
        /// Highest version this build understands.
        supported: u32,
        /// Version found in the artifact.
        found: u32,
    },
    /// A structurally invalid value (bad enum tag, length overflow, …).
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of snapshot data"),
            CodecError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            CodecError::BadVersion { supported, found } => write!(
                f,
                "unsupported snapshot version {found} (this build reads <= {supported})"
            ),
            CodecError::Invalid(what) => write!(f, "invalid snapshot data: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Little-endian binary writer over a growable buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer that starts with `magic` and `version`.
    pub fn with_header(magic: [u8; 4], version: u32) -> Self {
        let mut w = Self::new();
        w.buf.extend_from_slice(&magic);
        w.u32(version);
        w
    }

    /// Creates a writer that appends to `buf` — one reserved at its final
    /// size, or one to recycle.
    pub fn over(buf: Vec<u8>) -> Self {
        ByteWriter { buf }
    }

    /// Makes room for `additional` more bytes, so that writing them does
    /// not grow the buffer by doubling.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i32`.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64` (lengths, indices).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes `bytes` verbatim (no length prefix; pair with
    /// [`ByteWriter::usize`] when the reader cannot know the length).
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes each of `vs` as a `u32`, in one sized write: the buffer
    /// grows once, by four bytes for each value the iterator says it
    /// holds, and the values are laid into that.
    pub fn u32s<I>(&mut self, vs: I)
    where
        I: IntoIterator<Item = u32>,
        I::IntoIter: ExactSizeIterator,
    {
        let vs = vs.into_iter();
        let out = self.zeroed(4 * vs.len());
        for (v, word) in vs.zip(out.chunks_exact_mut(4)) {
            word.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends `n` zero bytes and lends them out to be written over: a
    /// sized write whose values the caller lays in itself.
    pub fn zeroed(&mut self, n: usize) -> &mut [u8] {
        let start = self.buf.len();
        self.buf.resize(start + n, 0);
        &mut self.buf[start..]
    }

    /// Drops every byte past the first `len` (of a [`ByteWriter::zeroed`]
    /// run the caller wrote less of than it asked for).
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }
}

/// Little-endian binary reader over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Creates a reader, checking the four-byte `magic` and returning
    /// the version that follows it.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadMagic`] on mismatch, [`CodecError::UnexpectedEof`]
    /// if the buffer is shorter than the header.
    pub fn with_header(buf: &'a [u8], magic: [u8; 4]) -> Result<(Self, u32), CodecError> {
        let mut r = Self::new(buf);
        let found = r.bytes4()?;
        if found != magic {
            return Err(CodecError::BadMagic {
                expected: magic,
                found,
            });
        }
        let version = r.u32()?;
        Ok((r, version))
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the reader consumed the entire buffer.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads the next `n` bytes verbatim, borrowed from the buffer.
    /// The length is checked against [`ByteReader::remaining`] first,
    /// so a corrupt length field is an error here and never an
    /// allocation request further up.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] when fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn bytes4(&mut self) -> Result<[u8; 4], CodecError> {
        let b = self.bytes(4)?;
        Ok([b[0], b[1], b[2], b[3]])
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads `n` `u32`s onto the end of `out`, in one pass. `n` is
    /// checked against [`ByteReader::remaining`] before `out` grows, so
    /// a corrupt count is an error and never an allocation request.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] when fewer than `4 × n` bytes
    /// remain; `out` is then as it was.
    pub fn u32s(&mut self, n: usize, out: &mut Vec<u32>) -> Result<(), CodecError> {
        let bytes = self.bytes(n.checked_mul(4).ok_or(CodecError::UnexpectedEof)?)?;
        let words = bytes.chunks_exact(4);
        out.extend(words.map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])));
        Ok(())
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.u64()? as i64)
    }

    /// Reads an `i32`.
    pub fn i32(&mut self) -> Result<i32, CodecError> {
        Ok(self.u32()? as i32)
    }

    /// Reads a `usize` written by [`ByteWriter::usize`], rejecting
    /// lengths that cannot fit (or that exceed the remaining buffer, a
    /// cheap corruption guard for collection lengths).
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError::Invalid("length overflows usize"))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.usize()?;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid("non-UTF-8 string"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = ByteWriter::with_header(*b"TEST", 3);
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.i64(-42);
        w.i32(-1);
        w.str("hello");
        let bytes = w.finish();

        let (mut r, version) = ByteReader::with_header(&bytes, *b"TEST").unwrap();
        assert_eq!(version, 3);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.i32().unwrap(), -1);
        assert_eq!(r.str().unwrap(), "hello");
        assert!(r.is_done());
    }

    #[test]
    fn bad_magic_and_eof_are_reported() {
        let w = ByteWriter::with_header(*b"AAAA", 1);
        let bytes = w.finish();
        assert!(matches!(
            ByteReader::with_header(&bytes, *b"BBBB"),
            Err(CodecError::BadMagic { .. })
        ));
        let (mut r, _) = ByteReader::with_header(&bytes, *b"AAAA").unwrap();
        assert_eq!(r.u8(), Err(CodecError::UnexpectedEof));
    }

    /// A bulk write is the per-value writes' bytes: little-endian,
    /// appended after whatever the writer holds, nothing for no values;
    /// and the bulk read gives the values back, refusing a count the
    /// buffer cannot hold before taking anything.
    #[test]
    fn bulk_u32s_are_the_single_writes() {
        let lengths: &[usize] = if cfg!(miri) {
            &[0, 1, 5]
        } else {
            &[0, 1, 2, 7, 64, 1000]
        };
        for &n in lengths {
            let vs: Vec<u32> = (0..n as u32)
                .map(|i| i.wrapping_mul(0x9E37_79B9) ^ 0xFF)
                .collect();
            for prefix in [&[][..], &[0xAB][..], &[1, 2, 3][..]] {
                let (mut bulk, mut single) = (ByteWriter::new(), ByteWriter::new());
                bulk.bytes(prefix);
                single.bytes(prefix);
                bulk.u32s(vs.iter().copied());
                for &v in &vs {
                    single.u32(v);
                }
                let bytes = bulk.finish();
                assert_eq!(bytes, single.finish(), "{n} after {prefix:?}");
                assert_eq!(&bytes[..prefix.len()], prefix);
                let mut r = ByteReader::new(&bytes);
                r.bytes(prefix.len()).unwrap();
                let mut back = vec![7];
                assert_eq!(r.u32s(n + 1, &mut back), Err(CodecError::UnexpectedEof));
                assert_eq!(back, [7], "nothing read on a short buffer");
                r.u32s(n, &mut back).unwrap();
                assert_eq!(back[1..], vs[..]);
                assert!(r.is_done());
            }
        }
        let mut w = ByteWriter::new();
        w.u32s([0x0102_0304]);
        assert_eq!(w.finish(), [4, 3, 2, 1], "little-endian");
        let mut r = ByteReader::new(&[]);
        assert_eq!(
            r.u32s(usize::MAX, &mut Vec::new()),
            Err(CodecError::UnexpectedEof)
        );
    }

    /// A zeroed run is appended, written over, and cut back.
    #[test]
    fn a_zeroed_run_is_written_over_and_truncated() {
        let mut w = ByteWriter::new();
        w.u8(9);
        assert!(w.zeroed(0).is_empty());
        let run = w.zeroed(4);
        assert_eq!(run, [0; 4]);
        run[..2].copy_from_slice(&[5, 6]);
        w.truncate(3);
        assert_eq!(w.finish(), [9, 5, 6]);
    }

    #[test]
    fn raw_bytes_roundtrip_and_are_bounded_by_the_buffer() {
        let mut w = ByteWriter::new();
        w.usize(3);
        w.bytes(&[9, 8, 7]);
        w.u8(1);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        let n = r.usize().unwrap();
        assert_eq!(r.bytes(n).unwrap(), &[9, 8, 7]);
        assert_eq!(r.bytes(usize::MAX), Err(CodecError::UnexpectedEof));
        assert_eq!(r.bytes(2), Err(CodecError::UnexpectedEof));
        assert_eq!(r.bytes(0).unwrap(), &[] as &[u8]);
        assert_eq!(r.bytes(1).unwrap(), &[1]);
        assert!(r.is_done());
    }
}
