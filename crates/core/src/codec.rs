//! A minimal binary codec: one format, stated by field class.
//!
//! Coin bindings must cross trust boundaries as bytes (they are stored in
//! the DHT and compared bit-for-bit by the broker), and the allowed
//! dependency set contains no serde *format* crate. Each message type
//! writes and reads its fields in a fixed order, and every field is of one
//! class, as wide as the value it carries: a one-byte tag, a bare
//! fixed-width value, and a varint — a minimal LEB128 number, seven bits
//! a byte, low group first — which carries every `u64`, a big integer's
//! length (its big-endian magnitude follows), a blob's length and a list
//! count (DESIGN.md §10 has the table). A seq of 1 is one byte; a 512-bit
//! key is its 64 bytes behind a one-byte length.
//!
//! No field has a second encoding: a flag is 0 or 1, a varint has no
//! trailing zero group, an integer has no leading zero byte, a length
//! above its class's cap (`u16` for an integer, `u32` for a blob or a
//! count) or the bytes left is refused. A writer asserts what its class
//! cannot frame — it never truncates — and no decoded value can trip such
//! an assertion.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};

use whopay_num::BigUint;
use whopay_obs::Metrics;

/// Encoding buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that reuses `buf`'s capacity: the buffer is cleared and
    /// written from the start, so steady-state encoding through a recycled
    /// buffer performs no heap allocation. Recover the buffer with
    /// [`Writer::finish`].
    pub fn with_buf(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Writer { buf }
    }

    /// Appends a one-byte tag: a kind, an enum discriminant.
    pub fn tag(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a boolean or presence flag as the tag 0 or 1.
    pub fn flag(&mut self, v: bool) -> &mut Self {
        self.tag(u8::from(v))
    }

    /// Appends a 64-bit quantity as a varint: one byte below 128, ten at
    /// most.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        // One and two bytes — a seq, a count, a key's length, a tick's
        // counters — go in without the loop.
        match v {
            0..0x80 => self.buf.push(v as u8),
            0x80..0x4000 => self.buf.extend_from_slice(&[v as u8 | 0x80, (v >> 7) as u8]),
            _ => self.u64_wide(v),
        }
        self
    }

    #[inline(never)]
    fn u64_wide(&mut self, mut v: u64) {
        let mut encoded = [0u8; MAX_VARINT_LEN];
        let mut len = 0;
        while v >= 0x80 {
            encoded[len] = v as u8 | 0x80;
            v >>= 7;
            len += 1;
        }
        encoded[len] = v as u8;
        self.buf.extend_from_slice(&encoded[..=len]);
    }

    /// Appends a fixed-width value bare — a 32-byte id, nonce or digest,
    /// or a fixed-shape run of fields assembled on the stack, which goes
    /// in with one copy instead of one growth check per field.
    pub fn fixed<const N: usize>(&mut self, v: &[u8; N]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a list's item count as a varint, asserted to fit a `u32`.
    pub fn count(&mut self, n: usize) -> &mut Self {
        let n = u32::try_from(n).expect("a list or blob frames at most u32::MAX");
        self.u64(n.into())
    }

    /// Appends a variable-length blob behind its varint length (asserted
    /// to fit a `u32`).
    pub fn blob(&mut self, b: &[u8]) -> &mut Self {
        self.count(b.len());
        self.buf.extend_from_slice(b);
        self
    }

    /// Appends a big integer: its varint length (asserted to fit a
    /// `u16`), then the minimal big-endian magnitude, streamed from the
    /// limbs — no temporary byte-vector per field.
    pub fn int(&mut self, v: &BigUint) -> &mut Self {
        let len = u16::try_from(v.be_len()).expect("an integer frames at most u16::MAX bytes");
        self.u64(len.into());
        v.extend_be_bytes(&mut self.buf);
        self
    }

    /// Finishes, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// The longest varint: ten groups of seven bits cover a `u64`.
const MAX_VARINT_LEN: usize = 10;

// --- pooled encode buffers ---

thread_local! {
    /// Per-thread free list of recycled wire buffers.
    static BUF_POOL: std::cell::RefCell<Vec<Vec<u8>>> = const { std::cell::RefCell::new(Vec::new()) };
    /// Fresh-allocation count: pool misses that had to create a buffer.
    static WIRE_ALLOC: Cell<u64> = const { Cell::new(0) };
    /// Total bytes carried through pooled buffers (recorded at release).
    static WIRE_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Buffers kept per thread; beyond this, released buffers are dropped.
const POOL_DEPTH: usize = 8;

/// A wire buffer borrowed from the thread-local pool; dereferences to
/// `Vec<u8>` and returns to the pool on drop. The buffer arrives empty
/// but keeps the capacity of its previous life, so steady-state
/// encode/decode cycles allocate nothing.
#[derive(Debug)]
pub struct PooledBuf {
    buf: Vec<u8>,
}

/// Takes a cleared, capacity-retaining buffer from the thread-local pool
/// (allocating a fresh one — and counting it under `wire.alloc` — only
/// when the pool is empty).
pub fn pooled() -> PooledBuf {
    let buf = BUF_POOL.with(|pool| pool.borrow_mut().pop()).unwrap_or_else(|| {
        WIRE_ALLOC.with(|c| c.set(c.get() + 1));
        Vec::new()
    });
    PooledBuf { buf }
}

impl Deref for PooledBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        WIRE_BYTES.with(|c| c.set(c.get() + self.buf.len() as u64));
        let buf = std::mem::take(&mut self.buf);
        BUF_POOL.with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < POOL_DEPTH {
                let mut buf = buf;
                buf.clear();
                pool.push(buf);
            }
        });
    }
}

/// Fresh buffer allocations on this thread's wire path (pool misses).
pub fn wire_alloc_count() -> u64 {
    WIRE_ALLOC.with(Cell::get)
}

/// Bytes carried through this thread's pooled wire buffers.
pub fn wire_bytes_count() -> u64 {
    WIRE_BYTES.with(Cell::get)
}

/// Exports this thread's wire-path counters into a metrics registry as
/// `wire.alloc` / `wire.bytes` (one-shot add, mirroring
/// `Network::export_breakdown`).
pub fn export_wire_metrics(metrics: &Metrics) {
    metrics.counter("wire.alloc").add(wire_alloc_count());
    metrics.counter("wire.bytes").add(wire_bytes_count());
}

/// Decoding error: the input was truncated or malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError;

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("truncated or malformed encoding")
    }
}

impl std::error::Error for DecodeError {}

/// Decoding cursor.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Reads a one-byte tag.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] if nothing remains.
    pub fn tag(&mut self) -> Result<u8, DecodeError> {
        Ok(self.raw::<1>()?[0])
    }

    /// Reads a boolean or presence flag.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation and on any tag but 0 and 1.
    pub fn flag(&mut self) -> Result<bool, DecodeError> {
        match self.tag()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError),
        }
    }

    /// Reads a 64-bit quantity.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on a varint cut short or with a second encoding.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.varint(u64::MAX)
    }

    /// Reads a varint no greater than `cap`: the one varint reader.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on a varint cut short, on one with a trailing zero
    /// group — `80 00` for 0 — or bits past 64, and on a value above
    /// `cap`.
    #[inline]
    fn varint(&mut self, cap: u64) -> Result<u64, DecodeError> {
        // One and two bytes without the loop, as the writer writes them:
        // a tick's ack is two such counters on a round trip of ~300 ns,
        // which the loop alone made 10 % slower (EXPERIMENTS.md, PR 46).
        // A second byte of 0 is a trailing zero group, left to the loop
        // to refuse.
        let v = match *self.buf {
            [low @ 0..0x80, ref rest @ ..] => {
                self.buf = rest;
                u64::from(low)
            }
            [low, high @ 1..0x80, ref rest @ ..] => {
                self.buf = rest;
                u64::from(low & 0x7f) | u64::from(high) << 7
            }
            _ => return self.varint_wide(cap),
        };
        if v > cap {
            return Err(DecodeError);
        }
        Ok(v)
    }

    #[inline(never)]
    fn varint_wide(&mut self, cap: u64) -> Result<u64, DecodeError> {
        let mut v = 0;
        for (i, &byte) in self.buf.iter().take(MAX_VARINT_LEN).enumerate() {
            v |= u64::from(byte & 0x7f) << (7 * i);
            if byte < 0x80 {
                // The last group carries bits: nonzero unless it is the
                // only one, and at most the one bit a tenth group has.
                let minimal = (byte != 0 || i == 0) && (i < MAX_VARINT_LEN - 1 || byte <= 1);
                if !minimal || v > cap {
                    return Err(DecodeError);
                }
                self.buf = &self.buf[i + 1..];
                return Ok(v);
            }
        }
        Err(DecodeError)
    }

    /// Reads the next `N` bytes as they are (the counterpart of
    /// [`Writer::fixed`]).
    ///
    /// # Errors
    ///
    /// [`DecodeError`] if fewer than `N` bytes remain.
    pub fn raw<const N: usize>(&mut self) -> Result<&'a [u8; N], DecodeError> {
        let (head, rest) = self.buf.split_first_chunk::<N>().ok_or(DecodeError)?;
        self.buf = rest;
        Ok(head)
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self.buf.split_at_checked(len).ok_or(DecodeError)?;
        self.buf = rest;
        Ok(head)
    }

    /// Reads a blob.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation and on a length above `u32::MAX`.
    pub fn blob(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.varint(u32::MAX.into())?;
        self.take(len as usize)
    }

    /// Whether the bytes left are a strict prefix of a blob: its length
    /// cut short by the end of the input, or whole and promising more
    /// bytes than follow it. Reads nothing.
    pub(crate) fn blob_is_cut(&self) -> bool {
        let mut r = Reader { buf: self.buf };
        match r.varint(u32::MAX.into()) {
            Ok(len) => len > r.buf.len() as u64,
            // At most four groups, each promising another: a `u32`
            // length cut short.
            Err(DecodeError) => self.buf.len() < 5 && self.buf.iter().all(|b| b & 0x80 != 0),
        }
    }

    /// Reads a big integer as its big-endian magnitude, where it lies:
    /// the one integer reader.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation, on a length above `u16::MAX` and on
    /// a leading zero byte — an integer has one encoding.
    pub fn int(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.varint(u16::MAX.into())?;
        match self.take(len as usize)? {
            [0, ..] => Err(DecodeError),
            be => Ok(be),
        }
    }

    /// Reads the count prefix of a list whose items each encode to at
    /// least `min_item` bytes, so the caller may reserve room for that
    /// many items before reading the first.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation, on a count above `cap` or
    /// `u32::MAX`, and on a count the bytes that are left could not hold.
    pub fn count(&mut self, cap: usize, min_item: usize) -> Result<usize, DecodeError> {
        let n = self.varint(u32::MAX.into())? as usize;
        if n > cap || n > self.buf.len() / min_item {
            return Err(DecodeError);
        }
        Ok(n)
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Asserts the input is fully consumed.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] if trailing bytes remain (rejects padded forgeries).
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(DecodeError)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_field_of_every_class() {
        let mut w = Writer::new();
        w.tag(7).flag(true).u64(9).fixed(&[3; 32]).blob(b"hello").int(&BigUint::from(1u128 << 100));
        let enc = w.finish();
        // Tag, flag, a one-byte varint, 32 bytes bare, a blob and a
        // 13-byte integer each behind a one-byte length.
        assert_eq!(enc.len(), 1 + 1 + 1 + 32 + (1 + 5) + (1 + 13));

        let mut r = Reader::new(&enc);
        assert_eq!(r.tag().unwrap(), 7);
        assert!(r.flag().unwrap());
        assert_eq!(r.u64().unwrap(), 9);
        assert_eq!(r.raw::<32>().unwrap(), &[3; 32]);
        assert_eq!(r.blob().unwrap(), b"hello");
        assert_eq!(r.int().unwrap(), BigUint::from(1u128 << 100).to_be_bytes());
        r.finish().unwrap();
    }

    #[test]
    fn truncation_detected() {
        let mut w = Writer::new();
        w.blob(b"abc");
        let mut enc = w.finish();
        enc.pop();
        assert_eq!(Reader::new(&enc).blob(), Err(DecodeError));
        assert_eq!(Reader::new(&enc[..1]).blob(), Err(DecodeError));
        assert_eq!(Reader::new(&[2, 1]).int(), Err(DecodeError));
        // A varint whose last group still promises another.
        assert_eq!(Reader::new(&[0x80]).u64(), Err(DecodeError));
        assert_eq!(Reader::new(&[0xff; 9]).u64(), Err(DecodeError));
        assert_eq!(Reader::new(&[0x80]).blob(), Err(DecodeError));
        assert_eq!(Reader::new(&[]).u64(), Err(DecodeError));
        assert_eq!(Reader::new(&[]).tag(), Err(DecodeError));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = Writer::new();
        w.u64(1);
        let mut enc = w.finish();
        enc.push(0xff);
        let mut r = Reader::new(&enc);
        r.u64().unwrap();
        assert_eq!(r.finish(), Err(DecodeError));
    }

    #[test]
    fn absurd_length_prefix_is_rejected() {
        // u32::MAX as a length or a count: more than the bytes left.
        let max = [0xff, 0xff, 0xff, 0xff, 0x0f];
        assert_eq!(Reader::new(&max).blob(), Err(DecodeError));
        assert_eq!(Reader::new(&max).count(usize::MAX, 1), Err(DecodeError));
        // u16::MAX as an integer's length.
        assert_eq!(Reader::new(&[0xff, 0xff, 0x03]).int(), Err(DecodeError));
    }

    #[test]
    fn a_field_has_one_encoding() {
        // A padded integer and a flag that is neither 0 nor 1 are refused.
        assert_eq!(Reader::new(&[3, 0, 0, 9]).int(), Err(DecodeError));
        assert_eq!(Reader::new(&[1, 0]).int(), Err(DecodeError));
        assert_eq!(Reader::new(&[1, 9]).int(), Ok(&[9][..]));
        assert_eq!(Reader::new(&[0]).int(), Ok(&[][..]));
        assert_eq!(Reader::new(&[2]).flag(), Err(DecodeError));
        // A varint with a trailing zero group — 0 and 1 as two bytes, a
        // padded integer length, blob length and count — is refused.
        assert_eq!(Reader::new(&[0x80, 0x00]).u64(), Err(DecodeError));
        assert_eq!(Reader::new(&[0x81, 0x00]).u64(), Err(DecodeError));
        assert_eq!(Reader::new(&[0x81, 0x00, 9]).int(), Err(DecodeError));
        assert_eq!(Reader::new(&[0x80, 0x00]).blob(), Err(DecodeError));
        assert_eq!(Reader::new(&[0x80, 0x00]).count(1, 1), Err(DecodeError));
        // Ten groups carry 70 bits: the tenth may hold only bit 63, and
        // an eleventh group is never read.
        let mut ten = [0xff; 10];
        ten[9] = 0x01;
        assert_eq!(Reader::new(&ten).u64(), Ok(u64::MAX));
        ten[9] = 0x02;
        assert_eq!(Reader::new(&ten).u64(), Err(DecodeError));
        assert_eq!(Reader::new(&[[0x80; 10].as_slice(), &[0x01]].concat()).u64(), Err(DecodeError));
        // Above its class's cap: an integer's length past u16::MAX, a
        // blob's length or a count past u32::MAX.
        let int_len = [0x80, 0x80, 0x04];
        assert_eq!(Reader::new(&int_len).u64(), Ok(1 << 16));
        assert_eq!(Reader::new(&int_len).int(), Err(DecodeError));
        let blob_len = [0x80, 0x80, 0x80, 0x80, 0x10];
        assert_eq!(Reader::new(&blob_len).u64(), Ok(1 << 32));
        assert_eq!(Reader::new(&blob_len).blob(), Err(DecodeError));
        assert_eq!(Reader::new(&blob_len).count(usize::MAX, 1), Err(DecodeError));
    }

    #[test]
    fn a_varint_is_as_wide_as_its_value() {
        for (v, len) in [
            (0, 1),
            (127, 1),
            (128, 2),
            ((1 << 14) - 1, 2),
            (1 << 14, 3),
            (u64::from(u32::MAX), 5),
            (1 << 63, 10),
            (u64::MAX, 10),
        ] {
            let mut w = Writer::new();
            w.u64(v);
            let enc = w.finish();
            assert_eq!(enc.len(), len, "{v}");
            let mut r = Reader::new(&enc);
            assert_eq!(r.u64(), Ok(v));
            r.finish().unwrap();
        }
        let mut w = Writer::new();
        w.u64(300);
        assert_eq!(w.finish(), [0xac, 0x02], "low group first");
    }

    #[test]
    fn a_cut_blob_is_told_from_a_malformed_one() {
        let mut w = Writer::new();
        w.blob(&[7; 200]);
        let enc = w.finish();
        assert!(!Reader::new(&enc).blob_is_cut());
        for cut in 1..enc.len() {
            assert!(Reader::new(&enc[..cut]).blob_is_cut(), "{cut}");
        }
        assert!(Reader::new(&[0xff; 4]).blob_is_cut());
        for malformed in [&[0x80, 0x00][..], &[0xff; 5], &[0x80, 0x80, 0x80, 0x80, 0x10]] {
            assert!(!Reader::new(malformed).blob_is_cut(), "{malformed:?}");
        }
    }

    #[test]
    #[should_panic(expected = "u16::MAX")]
    fn an_integer_too_long_for_its_class_is_never_truncated() {
        Writer::new().int(&(BigUint::one() << (8 * usize::from(u16::MAX))));
    }

    #[test]
    fn with_buf_reuses_capacity_and_encodes_identically() {
        let mut w = Writer::new();
        w.u64(7).blob(b"hello").int(&BigUint::from(1u128 << 100));
        let fresh = w.finish();

        let recycled = Vec::with_capacity(256);
        let cap = recycled.capacity();
        let ptr = recycled.as_ptr();
        let mut w = Writer::with_buf(recycled);
        w.u64(7).blob(b"hello").int(&BigUint::from(1u128 << 100));
        let reused = w.finish();
        assert_eq!(reused, fresh);
        assert_eq!(reused.capacity(), cap);
        assert_eq!(reused.as_ptr(), ptr, "no reallocation for a fitting buffer");
    }

    #[test]
    fn streamed_int_matches_tempvec_encoding() {
        for v in [BigUint::zero(), BigUint::from(1u64), BigUint::from(u64::MAX), BigUint::one() << 300]
        {
            let mut w = Writer::new();
            w.int(&v);
            let be = v.to_be_bytes();
            let mut len = Writer::new();
            len.u64(be.len() as u64);
            assert_eq!(w.finish(), [len.finish(), be].concat());
        }
    }

    #[test]
    fn pool_recycles_buffers_on_this_thread() {
        // Run on a dedicated thread so other tests' pool traffic can't
        // perturb the counters (both are thread-local).
        std::thread::spawn(|| {
            let misses0 = wire_alloc_count();
            let ptr = {
                let mut b = pooled();
                b.extend_from_slice(&[1, 2, 3]);
                b.as_ptr()
            };
            assert_eq!(wire_alloc_count(), misses0 + 1);
            assert_eq!(wire_bytes_count(), 3);
            let b = pooled();
            assert!(b.is_empty(), "recycled buffers arrive cleared");
            assert_eq!(b.as_ptr(), ptr, "same allocation came back");
            assert_eq!(wire_alloc_count(), misses0 + 1, "second take is a pool hit");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn wire_metrics_export_under_expected_names() {
        std::thread::spawn(|| {
            drop(pooled());
            let metrics = Metrics::new();
            export_wire_metrics(&metrics);
            let report = metrics.report();
            assert!(report.counters.contains_key("wire.alloc"));
            assert!(report.counters.contains_key("wire.bytes"));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn zero_is_encodable() {
        let mut w = Writer::new();
        w.int(&BigUint::zero());
        let enc = w.finish();
        let mut r = Reader::new(&enc);
        assert!(r.int().unwrap().is_empty());
        r.finish().unwrap();
    }
}
