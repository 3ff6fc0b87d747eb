//! A minimal binary codec: one format, stated by field class.
//!
//! Coin bindings must cross trust boundaries as bytes (they are stored in
//! the DHT and compared bit-for-bit by the broker), and the allowed
//! dependency set contains no serde *format* crate. Each message type
//! writes and reads its fields in a fixed order, and every field is of one
//! class, as wide as what it carries: a one-byte tag, a `u64`, a bare
//! fixed-width value, a big integer behind a `u16` length, a blob behind
//! a `u32` length, a `u32` list count (DESIGN.md §10 has the table).
//!
//! No field has a second encoding: a flag is 0 or 1, an integer has no
//! leading zero byte, a length the bytes left cannot hold is refused. A
//! writer asserts what its class cannot frame — it never truncates — and
//! no decoded value can trip such an assertion.

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

    /// Appends a 64-bit quantity (big-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a fixed-width value bare — a 32-byte id, nonce or digest,
    /// or a fixed-shape run of fields assembled on the stack, which goes
    /// in with one copy instead of one growth check per field.
    pub fn fixed<const N: usize>(&mut self, v: &[u8; N]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a list's item count, asserted to fit its `u32`.
    pub fn count(&mut self, n: usize) -> &mut Self {
        let n = u32::try_from(n).expect("a list or blob frames at most u32::MAX");
        self.buf.extend_from_slice(&n.to_be_bytes());
        self
    }

    /// Appends a variable-length blob behind its `u32` length (asserted
    /// to fit).
    pub fn blob(&mut self, b: &[u8]) -> &mut Self {
        self.count(b.len());
        self.buf.extend_from_slice(b);
        self
    }

    /// Appends a big integer: a `u16` length (asserted to fit), then the
    /// minimal big-endian magnitude, streamed from the limbs — no
    /// temporary byte-vector per field.
    pub fn int(&mut self, v: &BigUint) -> &mut Self {
        let len = u16::try_from(v.be_len()).expect("an integer frames at most u16::MAX bytes");
        self.buf.extend_from_slice(&len.to_be_bytes());
        v.extend_be_bytes(&mut self.buf);
        self
    }

    /// Finishes, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

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
    /// [`DecodeError`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(*self.raw()?))
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
    /// [`DecodeError`] on truncation.
    pub fn blob(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = u32::from_be_bytes(*self.raw()?);
        self.take(len as usize)
    }

    /// Reads a big integer as its big-endian magnitude, where it lies:
    /// the one integer reader.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation and on a leading zero byte — an
    /// integer has one encoding.
    pub fn int(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = u16::from_be_bytes(*self.raw()?);
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
    /// [`DecodeError`] on truncation, on a count above `cap`, and on a
    /// count the bytes that are left could not hold.
    pub fn count(&mut self, cap: usize, min_item: usize) -> Result<usize, DecodeError> {
        let n = u32::from_be_bytes(*self.raw()?) as usize;
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
        assert_eq!(enc.len(), 1 + 1 + 8 + 32 + (4 + 5) + (2 + 13));

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
        assert_eq!(Reader::new(&enc[..3]).blob(), Err(DecodeError));
        assert_eq!(Reader::new(&[0, 2, 1]).int(), Err(DecodeError));
        assert_eq!(Reader::new(&[0; 7]).u64(), Err(DecodeError));
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
        assert_eq!(Reader::new(&[0xff; 4]).blob(), Err(DecodeError));
        assert_eq!(Reader::new(&[0xff; 2]).int(), Err(DecodeError));
        assert_eq!(Reader::new(&[0xff; 4]).count(usize::MAX, 1), Err(DecodeError));
    }

    #[test]
    fn a_field_has_one_encoding() {
        // A padded integer and a flag that is neither 0 nor 1 are refused.
        assert_eq!(Reader::new(&[0, 3, 0, 0, 9]).int(), Err(DecodeError));
        assert_eq!(Reader::new(&[0, 1, 0]).int(), Err(DecodeError));
        assert_eq!(Reader::new(&[0, 1, 9]).int(), Ok(&[9][..]));
        assert_eq!(Reader::new(&[0, 0]).int(), Ok(&[][..]));
        assert_eq!(Reader::new(&[2]).flag(), Err(DecodeError));
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
            assert_eq!(w.finish(), [&(be.len() as u16).to_be_bytes()[..], &be].concat());
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
