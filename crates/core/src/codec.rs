//! A minimal, self-describing binary codec.
//!
//! Coin bindings must cross trust boundaries as bytes (they are stored in
//! the DHT and compared bit-for-bit by the broker), and the allowed
//! dependency set contains no serde *format* crate. This module provides
//! the small length-prefixed encoding the protocol needs: `u64`s,
//! byte strings, and big integers, written and read in a fixed field
//! order by each message type.

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

    /// Appends a fixed-width u64 (big-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
        self
    }

    /// Appends a big integer (length-prefixed big-endian magnitude),
    /// streaming the limbs directly into the buffer — no temporary
    /// byte-vector per field.
    pub fn int(&mut self, v: &BigUint) -> &mut Self {
        self.u64(v.be_len() as u64);
        v.extend_be_bytes(&mut self.buf);
        self
    }

    /// Appends already-encoded bytes verbatim: a fixed-shape run of
    /// fields assembled on the stack goes in with one copy instead of
    /// one growth check per field.
    pub fn raw(&mut self, encoded: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(encoded);
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

    /// Reads a fixed-width u64.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        if self.buf.len() < 8 {
            return Err(DecodeError);
        }
        let (head, rest) = self.buf.split_at(8);
        self.buf = rest;
        Ok(u64::from_be_bytes(head.try_into().expect("eight bytes")))
    }

    /// Reads the next `N` bytes as they are (the counterpart of
    /// [`Writer::raw`]).
    ///
    /// # Errors
    ///
    /// [`DecodeError`] if fewer than `N` bytes remain.
    pub fn raw<const N: usize>(&mut self) -> Result<&'a [u8; N], DecodeError> {
        let (head, rest) = self.buf.split_first_chunk::<N>().ok_or(DecodeError)?;
        self.buf = rest;
        Ok(head)
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u64()? as usize;
        if self.buf.len() < len {
            return Err(DecodeError);
        }
        let (head, rest) = self.buf.split_at(len);
        self.buf = rest;
        Ok(head)
    }

    /// Reads a big integer.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation.
    pub fn int(&mut self) -> Result<BigUint, DecodeError> {
        Ok(BigUint::from_be_bytes(self.bytes()?))
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
        let n = self.u64()?;
        if n > cap as u64 || n > (self.buf.len() / min_item) as u64 {
            return Err(DecodeError);
        }
        Ok(n as usize)
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
    fn round_trips_mixed_fields() {
        let mut w = Writer::new();
        w.u64(7).bytes(b"hello").int(&BigUint::from(1u128 << 100)).u64(0);
        let enc = w.finish();

        let mut r = Reader::new(&enc);
        assert_eq!(r.u64().unwrap(), 7);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.int().unwrap(), BigUint::from(1u128 << 100));
        assert_eq!(r.u64().unwrap(), 0);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_detected() {
        let mut w = Writer::new();
        w.bytes(b"abc");
        let mut enc = w.finish();
        enc.pop();
        let mut r = Reader::new(&enc);
        assert_eq!(r.bytes(), Err(DecodeError));
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
        let mut enc = Vec::new();
        enc.extend_from_slice(&u64::MAX.to_be_bytes());
        let mut r = Reader::new(&enc);
        assert_eq!(r.bytes(), Err(DecodeError));
    }

    #[test]
    fn with_buf_reuses_capacity_and_encodes_identically() {
        let mut w = Writer::new();
        w.u64(7).bytes(b"hello").int(&BigUint::from(1u128 << 100));
        let fresh = w.finish();

        let recycled = Vec::with_capacity(256);
        let cap = recycled.capacity();
        let ptr = recycled.as_ptr();
        let mut w = Writer::with_buf(recycled);
        w.u64(7).bytes(b"hello").int(&BigUint::from(1u128 << 100));
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
            let mut expect = Writer::new();
            expect.bytes(&v.to_be_bytes());
            assert_eq!(w.finish(), expect.finish());
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
        assert!(r.int().unwrap().is_zero());
        r.finish().unwrap();
    }
}
