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
//!
//! Every record that crosses a trust boundary as bytes — a wire message's
//! parts, a journal entry's — is declared once, in the record table at
//! the end of this module: one line per field naming its class. From it
//! come the record's writer, its borrowed `*Ref` view with `parse`, the
//! materialiser that builds the owned value, and `MIN_WIRE_LEN`, the sum
//! of its fields' least sizes. [`crate::wire`] and [`crate::view`] add
//! only the tag dispatch between records, and the journal and the ledger
//! call the same functions.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};

use whopay_crypto::dsa::{DsaPublicKey, DsaSignature};
use whopay_crypto::elgamal::ElGamalCiphertext;
use whopay_crypto::group_sig::GroupSignature;
use whopay_crypto::payword::Payword;
use whopay_net::Handle;
use whopay_num::BigUint;
use whopay_obs::Metrics;

use crate::broker::FraudCase;
use crate::coin::{Binding, BindingSigner, MintedCoin, OwnerTag, PublicBindingState};
use crate::ledger::{BindingProof, CoinLeaf, SignedRoot};
use crate::merkle::InclusionProof;
use crate::messages::{
    CoinGrant, DepositReceipt, DepositRequest, PaymentInvite, PurchaseRequest, RenewalRequest,
    TransferRequest,
};
use crate::micropay::{ChainCommitment, RedemptionReceipt};
use crate::types::{ChainId, CoinId, PeerId, Timestamp};
use crate::wire::{MAX_WIRE_CHECKPOINTS, MAX_WIRE_SIBLINGS};

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
        // infallible: a frame in memory holding 2^32 items or bytes would exceed 4 GiB
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
        // infallible: every integer written is a residue mod p or q, far below 65 535 bytes
        let len = u16::try_from(v.be_len()).expect("an integer frames at most u16::MAX bytes");
        self.u64(len.into());
        v.extend_be_bytes(&mut self.buf);
        self
    }

    /// Appends an optional value: a presence flag, then the value if there
    /// is one.
    pub(crate) fn opt<T>(&mut self, v: Option<&T>, put: impl FnOnce(&mut Writer, &T)) -> &mut Self {
        self.flag(v.is_some());
        if let Some(v) = v {
            put(self, v);
        }
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
fn wire_alloc_count() -> u64 {
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

/// Reads a count-prefixed list of at most `cap` items, each at least
/// `min_item` bytes on the wire: nothing is reserved for a count the
/// bytes that are left could not hold.
// Inlined with `ResponseView::parse_inner` (see there): left to the
// compiler it stays out of line and takes the tick-ack reader with it.
#[inline(always)]
pub(crate) fn parse_list<'a, T>(
    r: &mut Reader<'a>,
    cap: usize,
    min_item: usize,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    let n = r.count(cap, min_item)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(item(r)?);
    }
    Ok(items)
}

// --- the record table ---

/// A big integer still sitting in the wire buffer: the minimal big-endian
/// magnitude — a padded one does not parse — so equality and hashing are
/// canonical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntRef<'a> {
    be: &'a [u8],
}

impl<'a> IntRef<'a> {
    pub(crate) fn parse(r: &mut Reader<'a>) -> Result<Self, DecodeError> {
        Ok(IntRef { be: r.int()? })
    }

    /// The canonical big-endian magnitude (empty for zero).
    pub fn be_bytes(&self) -> &'a [u8] {
        self.be
    }

    /// Materializes the owned integer (the only allocating operation).
    pub fn to_biguint(&self) -> BigUint {
        BigUint::from_be_bytes(self.be)
    }
}

/// One field class, by aspect: the type a `*Ref` holds (`[ty]`), its
/// reader (`[parse r]`, a `Result`), its writer (`[put w, v]`, handed a
/// reference to the owned value), its materialiser (`[to x]`, handed the
/// borrowed value) and its least encoded size (`[min]`).
///
/// - `int`: a big integer, an [`IntRef`]; owned a `BigUint`; 1 byte least
///   (zero: an empty magnitude behind its one-byte length).
/// - `u64`, `u64(T)`: a varint, bare or as the newtype `T`; 1.
/// - `flag`: a `bool`; 1.
/// - `fixed(32)`, `fixed(T)`: 32 bytes bare, as they are or as the newtype
///   `T`; 32.
/// - `str`: UTF-8 text behind its length, a `&str`; owned a `String`; 1.
/// - `rec(R)`, `sig`, `gsig`: the record `R` of this table, a
///   [`SigRef`], a [`GroupSigRef`]; `R::MIN_WIRE_LEN`.
/// - `opt(class)`: a presence flag, then the value; 1.
/// - `list(cap, class)`: a count of at most `cap`, then the items; 1.
/// - `with(T, parse, put, min)`: an owned `T` read and written by the two
///   functions named; `min`.
/// - `of_coin(minted)`: the binding a grant or a deposit carries, less the
///   coin key its field `minted` states; a binding's least less a key's.
macro_rules! class {
    ($aspect:tt sig) => { class!($aspect rec(SigRef)) };
    ($aspect:tt gsig) => { class!($aspect rec(GroupSigRef)) };
    ([ty] int) => { IntRef<'a> };
    ([parse $r:ident] int) => { IntRef::parse($r) };
    ([put $w:ident, $v:expr] int) => { $w.int($v) };
    ([to $x:expr] int) => { $x.to_biguint() };
    ([ty] u64) => { u64 };
    ([parse $r:ident] u64) => { $r.u64() };
    ([put $w:ident, $v:expr] u64) => { $w.u64(*$v) };
    ([ty] u64($t:ident)) => { $t };
    ([parse $r:ident] u64($t:ident)) => { $r.u64().map($t) };
    ([put $w:ident, $v:expr] u64($t:ident)) => { $w.u64($v.0) };
    ([ty] flag) => { bool };
    ([parse $r:ident] flag) => { $r.flag() };
    ([put $w:ident, $v:expr] flag) => { $w.flag(*$v) };
    ([ty] fixed(32)) => { [u8; 32] };
    ([parse $r:ident] fixed(32)) => { $r.raw().copied() };
    ([put $w:ident, $v:expr] fixed(32)) => { $w.fixed($v) };
    ([ty] fixed($t:ident)) => { $t };
    ([parse $r:ident] fixed($t:ident)) => { $r.raw().map(|v| $t(*v)) };
    ([put $w:ident, $v:expr] fixed($t:ident)) => { $w.fixed(&$v.0) };
    ([min] fixed($($_:tt)*)) => { 32 };
    ([ty] str) => { &'a str };
    ([parse $r:ident] str) => {
        $r.blob().and_then(|b| std::str::from_utf8(b).map_err(|_| DecodeError))
    };
    ([put $w:ident, $v:expr] str) => { $w.blob($v.as_bytes()) };
    ([to $x:expr] str) => { $x.to_owned() };
    ([ty] rec($t:ident)) => { $t<'a> };
    ([parse $r:ident] rec($t:ident)) => { $t::parse($r) };
    ([put $w:ident, $v:expr] rec($t:ident)) => { $t::put($w, $v) };
    ([to $x:expr] rec($t:ident)) => { $x.materialize() };
    ([min] rec($t:ident)) => { $t::MIN_WIRE_LEN };
    ([ty] opt($($c:tt)+)) => { Option<class!([ty] $($c)+)> };
    ([parse $r:ident] opt($($c:tt)+)) => {
        $r.flag().and_then(|some| some.then(|| class!([parse $r] $($c)+)).transpose())
    };
    ([put $w:ident, $v:expr] opt($($c:tt)+)) => {
        $w.opt($v.as_ref(), |w, v| _ = class!([put w, v] $($c)+))
    };
    ([to $x:expr] opt($($c:tt)+)) => { $x.map(|x| class!([to x] $($c)+)) };
    ([ty] list($cap:expr, $($c:tt)+)) => { Vec<class!([ty] $($c)+)> };
    ([parse $r:ident] list($cap:expr, $($c:tt)+)) => {
        parse_list($r, $cap, class!([min] $($c)+), |r| class!([parse r] $($c)+))
    };
    ([put $w:ident, $v:expr] list($cap:expr, $($c:tt)+)) => {{
        $w.count($v.len());
        for v in $v {
            class!([put $w, v] $($c)+);
        }
    }};
    ([to $x:expr] list($cap:expr, $($c:tt)+)) => {
        $x.into_iter().map(|x| class!([to x] $($c)+)).collect()
    };
    ([ty] with($t:ty, $parse:ident, $put:ident, $min:expr)) => { $t };
    ([parse $r:ident] with($t:ty, $parse:ident, $put:ident, $min:expr)) => { $parse($r) };
    ([put $w:ident, $v:expr] with($t:ty, $parse:ident, $put:ident, $min:expr)) => { $put($w, $v) };
    ([min] with($t:ty, $parse:ident, $put:ident, $min:expr)) => { $min };
    ([ty] of_coin($minted:ident)) => { BindingRef<'a> };
    ([parse $r:ident] of_coin($minted:ident)) => { BindingRef::parse_of_coin($r, $minted.coin_pk) };
    ([put $w:ident, $v:expr] of_coin($minted:ident)) => { put_binding_of_coin($w, $v) };
    ([to $x:expr] of_coin($minted:ident)) => { $x.materialize() };
    ([min] of_coin($minted:ident)) => { BindingRef::MIN_WIRE_LEN - class!([min] int) };
    // The classes not named above materialize to what they borrow, and
    // take one byte at least.
    ([to $x:expr] $($c:tt)+) => { $x };
    ([min] $($c:tt)+) => { 1 };
}

/// Declares the records, one row per field — `name: class, "doc";` —
/// in one of three forms:
///
/// - `struct R<'a> { rows } fn to_x() -> T;` — a view of `T`, whose
///   public fields are the rows, each written from `&value.name`
///   (`-> T, into_x;` adds the materialiser that takes the view by value);
/// - `struct R<'a> { rows with accessors } fn put(v: V); fn to_x() -> T {
///   constructor }` — a view of a `T` of another shape: the writer is
///   handed `v`, a row `name: class = accessor` is written from the
///   accessor (a reference), and the constructor builds `T` from the
///   fields by name;
/// - `impl T { rows }` — an owned record, parsed as it is.
///
/// Each gets `parse`, `put` and `MIN_WIRE_LEN`; a view also its struct and
/// the materialiser.
macro_rules! records {
    () => {};
    (
        @ref $(#[$m:meta])* $vis:vis $name:ident {
            $($f:ident: $c:ident $(($($a:tt)*))? = $get:expr $(, $doc:literal)?;)*
        }
        ($v:ident: $vty:ty) $to:ident $($into:ident)? -> $owned:ty $make:block
    ) => {
        $(#[$m])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        $vis struct $name<'a> {
            $($(#[doc = $doc])? pub $f: class!([ty] $c $(($($a)*))?),)*
        }

        impl<'a> $name<'a> {
            // Read where a list of the record is, and by the minimum test.
            #[allow(dead_code)]
            pub(crate) const MIN_WIRE_LEN: usize = 0 $(+ class!([min] $c $(($($a)*))?))*;

            pub(crate) fn parse(r: &mut Reader<'a>) -> Result<Self, DecodeError> {
                $(let $f = class!([parse r] $c $(($($a)*))?)?;)*
                Ok($name { $($f),* })
            }

            pub(crate) fn put(w: &mut Writer, $v: $vty) {
                $(class!([put w, $get] $c $(($($a)*))?);)*
            }

            fn materialize(self) -> $owned {
                let $name { $($f),* } = self;
                $(let $f = class!([to $f] $c $(($($a)*))?);)*
                $make
            }

            #[doc = concat!("Materializes the owned `", stringify!($owned), "`.")]
            pub fn $to(&self) -> $owned {
                self.clone().materialize()
            }

            $(
                #[doc = concat!("Materializes the owned `", stringify!($owned), "`, handing over")]
                /// what the view owns instead of copying it.
                pub fn $into(self) -> $owned {
                    self.materialize()
                }
            )?
        }
    };
    (
        $(#[$m:meta])* $vis:vis struct $name:ident<'a> {
            $($f:ident: $c:ident $(($($a:tt)*))? $(, $doc:literal)?;)*
        }
        fn $to:ident() -> $owned:ident $(, $into:ident)?; $($rest:tt)*
    ) => {
        records!(@ref $(#[$m])* $vis $name { $($f: $c $(($($a)*))? = &v.$f $(, $doc)?;)* }
            (v: &$owned) $to $($into)? -> $owned { $owned { $($f),* } });
        records!($($rest)*);
    };
    (
        $(#[$m:meta])* $vis:vis struct $name:ident<'a> {
            $($f:ident: $c:ident $(($($a:tt)*))? = $get:expr $(, $doc:literal)?;)*
        }
        fn put($v:ident: $vty:ty); fn $to:ident() -> $owned:ty $make:block $($rest:tt)*
    ) => {
        records!(@ref $(#[$m])* $vis $name { $($f: $c $(($($a)*))? = $get $(, $doc)?;)* }
            ($v: $vty) $to -> $owned $make);
        records!($($rest)*);
    };
    (impl $name:ident { $($f:ident: $c:ident $(($($a:tt)*))?;)* } $($rest:tt)*) => {
        impl $name {
            // Read where a list of the record is, and by the minimum test.
            #[allow(dead_code)]
            pub(crate) const MIN_WIRE_LEN: usize = 0 $(+ class!([min] $c $(($($a)*))?))*;

            pub(crate) fn parse(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                $(let $f = class!([parse r] $c $(($($a)*))?)?;)*
                Ok($name { $($f),* })
            }

            pub(crate) fn put(w: &mut Writer, v: &Self) {
                $(class!([put w, &v.$f] $c $(($($a)*))?);)*
            }
        }
        records!($($rest)*);
    };
}

records! {
    /// A DSA signature by reference.
    #[derive(Copy)]
    pub struct SigRef<'a> {
        r: int = sig.r(), "`r` component.";
        s: int = sig.s(), "`s` component.";
    }
    fn put(sig: &DsaSignature);
    fn to_sig() -> DsaSignature { DsaSignature::from_parts(r, s) }

    /// A group signature by reference.
    #[derive(Copy)]
    pub struct GroupSigRef<'a> {
        c1: int = gsig.ciphertext().c1(), "ElGamal ciphertext component `c1`.";
        c2: int = gsig.ciphertext().c2(), "ElGamal ciphertext component `c2`.";
        challenge: int = gsig.challenge_scalar(), "Fiat–Shamir challenge scalar.";
        z_r: int = gsig.z_r(), "Response scalar for the encryption randomness.";
        z_x: int = gsig.z_x(), "Response scalar for the member secret.";
    }
    fn put(gsig: &GroupSignature);
    fn to_gsig() -> GroupSignature {
        GroupSignature::from_parts(ElGamalCiphertext::from_parts(c1, c2), challenge, z_r, z_x)
    }

    /// A minted coin by reference. The owner tag is held owned — it contains
    /// no big integers, only a peer id or a fixed-width handle.
    #[derive(Copy)]
    pub struct MintedRef<'a> {
        owner: with(OwnerTag, parse_owner_tag, put_owner_tag, 1) = m.owner(),
            "Owner tag (cheap; no heap fields).";
        coin_pk: int = m.coin_pk(), "The coin public key `pkC`.";
        broker_sig: sig = m.broker_sig(), "The broker's mint signature.";
    }
    fn put(m: &MintedCoin);
    fn to_minted() -> MintedCoin { MintedCoin::from_parts(owner, coin_pk, broker_sig) }

    /// A binding by reference.
    #[derive(Copy)]
    pub struct BindingRef<'a> {
        coin_pk: int = b.coin_pk(), "The coin this binding is about.";
        holder_pk: int = b.holder_pk(), "The current holder key.";
        seq: u64 = &b.seq(), "Sequence number.";
        expires: u64(Timestamp) = &b.expires(), "Expiration date.";
        signer: with(BindingSigner, parse_signer, put_signer, 1) = &b.signer(),
            "Who signed it.";
        sig: sig = b.raw_sig(), "The binding signature.";
    }
    fn put(b: &Binding);
    fn to_binding() -> Binding { Binding::from_parts(coin_pk, holder_pk, seq, expires, signer, sig) }

    /// A payment invite by reference.
    #[derive(Copy)]
    pub struct InviteRef<'a> {
        holder_pk: int, "Fresh holder public key.";
        nonce: fixed(32), "Challenge nonce.";
        group_sig: gsig, "The payee's group signature.";
    }
    fn to_invite() -> PaymentInvite;

    /// A deposit request by reference.
    #[derive(Copy)]
    pub struct DepositRef<'a> {
        minted: rec(MintedRef), "The broker-signed coin.";
        binding: of_coin(minted), "The holder's current binding.";
        holder_sig: sig, "The holder's relinquishment signature.";
        group_sig: gsig, "The holder's group signature.";
    }
    fn to_deposit() -> DepositRequest;

    /// A transfer request by reference.
    #[derive(Copy)]
    pub struct TransferRef<'a> {
        current: rec(BindingRef), "The holder's current binding.";
        new_holder_pk: int, "The payee's fresh holder key.";
        nonce: fixed(32), "The payee's challenge nonce.";
        holder_sig: sig, "The holder's signature.";
        group_sig: gsig, "The holder's group signature.";
    }
    fn to_transfer() -> TransferRequest;

    /// A renewal request by reference.
    #[derive(Copy)]
    pub struct RenewalRef<'a> {
        current: rec(BindingRef), "The holder's current binding.";
        holder_sig: sig, "The holder's signature.";
        group_sig: gsig, "The holder's group signature.";
    }
    fn to_renewal() -> RenewalRequest;

    /// A coin grant by reference.
    #[derive(Copy)]
    pub struct GrantRef<'a> {
        minted: rec(MintedRef), "The broker-signed coin.";
        binding: of_coin(minted), "The new binding.";
        ownership_proof: sig, "The ownership proof.";
    }
    fn to_grant() -> CoinGrant;

    /// A chain commitment by reference. Every field is fixed-width (digests
    /// and counters) except the group signature, which stays borrowed; the
    /// checkpoint digests are collected into a length-capped vector like the
    /// other item lists.
    pub struct CommitmentRef<'a> {
        root: fixed(32), "PayWord chain root `w_0`.";
        capacity: u64, "Units the chain can carry.";
        checkpoint_every: u64, "Checkpoint interval `k`.";
        checkpoints: list(MAX_WIRE_CHECKPOINTS, fixed(32)), "Digests of every k-th link.";
        group_sig: gsig, "The payer's group signature.";
    }
    fn to_commitment() -> ChainCommitment, into_commitment;

    /// The public state of a downtime binding by reference: its holder key
    /// stays borrowed.
    #[derive(Copy)]
    pub struct PublicStateRef<'a> {
        holder_pk: int, "Current holder key.";
        seq: u64, "Current sequence number.";
        expires: u64(Timestamp), "Current expiration date.";
    }
    fn to_state() -> PublicBindingState;

    /// A committed coin leaf by reference: only the downtime binding's
    /// holder key is a big integer, and it stays borrowed.
    #[derive(Copy)]
    pub struct CoinLeafRef<'a> {
        coin: fixed(CoinId), "The committed coin.";
        deposited: flag, "Whether the coin has been redeemed.";
        binding: opt(rec(PublicStateRef)), "Public downtime-binding state.";
        aux: fixed(32), "Digest of the leaf's non-public fields.";
    }
    fn to_leaf() -> CoinLeaf;

    /// A binding proof by reference: the leaf's holder key and the root
    /// signature stay borrowed; the sibling path is a length-capped digest
    /// vector like the other item lists.
    pub struct ProofRef<'a> {
        leaf: rec(CoinLeafRef) = &p.leaf, "The committed coin leaf.";
        leaves: u64 = &p.proof.leaves, "Total leaves in the committed tree.";
        index: u64 = &p.proof.index, "The proven leaf's index.";
        siblings: list(MAX_WIRE_SIBLINGS, fixed(32)) = &p.proof.siblings,
            "Sibling hashes, leaf level first.";
        root: fixed(32) = &p.root.root, "The committed root.";
        root_seq: u64 = &p.root.seq, "The root's mutation sequence number.";
        root_sig: sig = &p.root.sig, "Broker signature over `(root, seq)`.";
    }
    fn put(p: &BindingProof);
    fn to_proof() -> BindingProof {
        let proof = InclusionProof { leaves, index, siblings };
        BindingProof { leaf, proof, root: SignedRoot { root, seq: root_seq, sig: root_sig } }
    }

    impl DepositReceipt {
        coin: fixed(CoinId);
        value: u64;
    }

    impl RedemptionReceipt {
        chain: fixed(ChainId);
        credited: u64;
        total: u64;
    }

    /// A purchase as the journal keeps it: each proof behind a presence
    /// flag (a purchase frame states its one proof behind a tag instead).
    pub(crate) struct PurchaseRef<'a> {
        owner: with(OwnerTag, parse_owner_tag, put_owner_tag, 1);
        coin_pk: int;
        identity_sig: opt(sig);
        group_sig: opt(gsig);
    }
    fn to_purchase() -> PurchaseRequest;

    /// A fraud case by reference.
    pub(crate) struct FraudRef<'a> {
        coin: fixed(CoinId);
        description: str;
        group_sigs: list(usize::MAX, gsig);
    }
    fn to_fraud() -> FraudCase;

    /// A registered peer and its identity key: a journal's registration and
    /// a checkpoint's peer record.
    pub(crate) struct PeerRef<'a> {
        peer: u64(PeerId) = &p.0;
        key: int = p.1.element();
    }
    fn put(p: (PeerId, &DsaPublicKey));
    fn to_peer() -> (PeerId, DsaPublicKey) {
        // member: a registered identity key, replayed from the broker's own
        // journal; it was handed to `register_peer`, not read off a request.
        (peer, DsaPublicKey::from_element(key))
    }
}

// --- the classes and parts the table does not state as a field list ---

impl<'a> BindingRef<'a> {
    /// Reads the binding a grant or a deposit carries after its minted
    /// coin: everything but the coin key, which is `coin_pk`, the minted
    /// coin's.
    fn parse_of_coin(r: &mut Reader<'a>, coin_pk: IntRef<'a>) -> Result<Self, DecodeError> {
        Ok(BindingRef {
            coin_pk,
            holder_pk: IntRef::parse(r)?,
            seq: r.u64()?,
            expires: Timestamp(r.u64()?),
            signer: parse_signer(r)?,
            sig: SigRef::parse(r)?,
        })
    }
}

/// A binding without its coin key, for a grant or a deposit: the minted
/// coin written just before it states the key, and the reader takes it
/// from there — a binding of another coin than the minted one has no
/// encoding.
fn put_binding_of_coin(w: &mut Writer, b: &Binding) {
    w.int(b.holder_pk()).u64(b.seq()).u64(b.expires().0);
    put_signer(w, &b.signer());
    SigRef::put(w, b.raw_sig());
}

impl CommitmentRef<'_> {
    /// The chain's id (and shard routing key): its root digest.
    pub fn chain_id(&self) -> ChainId {
        ChainId(self.root)
    }
}

pub(crate) fn parse_owner_tag(r: &mut Reader<'_>) -> Result<OwnerTag, DecodeError> {
    match r.tag()? {
        0 => Ok(OwnerTag::Identified(PeerId(r.u64()?))),
        1 => Ok(OwnerTag::Anonymous),
        2 => Ok(OwnerTag::AnonymousWithHandle(Handle(r.blob()?.try_into().map_err(|_| DecodeError)?))),
        _ => Err(DecodeError),
    }
}

pub(crate) fn put_owner_tag(w: &mut Writer, tag: &OwnerTag) {
    match tag {
        OwnerTag::Identified(p) => _ = w.tag(0).u64(p.0),
        OwnerTag::Anonymous => _ = w.tag(1),
        OwnerTag::AnonymousWithHandle(h) => _ = w.tag(2).blob(&h.0),
    }
}

fn parse_signer(r: &mut Reader<'_>) -> Result<BindingSigner, DecodeError> {
    match r.tag()? {
        0 => Ok(BindingSigner::CoinKey),
        1 => Ok(BindingSigner::Broker),
        _ => Err(DecodeError),
    }
}

fn put_signer(w: &mut Writer, signer: &BindingSigner) {
    w.tag(match signer {
        BindingSigner::CoinKey => 0,
        BindingSigner::Broker => 1,
    });
}

/// Encoded size of a payword: its index as 8 big-endian bytes, then the
/// 32-byte word — one fixed-width field, not a varint, so that a batch of
/// up to 4096 parses at a fixed stride.
pub(crate) const PAYWORD_WIRE_LEN: usize = 40;

/// Reads a payword's fixed 40-byte field: the big-endian index, the word.
pub(crate) fn parse_payword(r: &mut Reader<'_>) -> Result<Payword, DecodeError> {
    let encoded = r.raw::<PAYWORD_WIRE_LEN>()?;
    // infallible: a 40-byte array has 8 bytes to split off
    let (index, word) = encoded.split_first_chunk::<8>().expect("40 >= 8");
    // infallible: 32 bytes remain after the 8-byte index
    Ok(Payword { index: u64::from_be_bytes(*index), word: word.try_into().expect("32 bytes remain") })
}

pub(crate) fn put_payword(w: &mut Writer, p: &Payword) {
    // Assembled first: one copy per payword.
    let mut encoded = [0u8; PAYWORD_WIRE_LEN];
    encoded[..8].copy_from_slice(&p.index.to_be_bytes());
    encoded[8..].copy_from_slice(&p.word);
    w.fixed(&encoded);
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

    /// Every record's least value — zero integers and varints, the
    /// smallest tag, empty lists — encodes to its `MIN_WIRE_LEN`, reads
    /// back whole, and less its last byte is refused.
    #[test]
    fn every_records_least_value_encodes_to_its_minimum() {
        fn least(
            name: &str,
            min: usize,
            put: impl FnOnce(&mut Writer),
            parse: impl Fn(&mut Reader<'_>) -> Result<(), DecodeError>,
        ) {
            let mut w = Writer::new();
            put(&mut w);
            let enc = w.finish();
            assert_eq!(enc.len(), min, "{name}");
            let mut r = Reader::new(&enc);
            parse(&mut r).unwrap_or_else(|_| panic!("{name} reads back"));
            r.finish().unwrap();
            assert_eq!(parse(&mut Reader::new(&enc[..min - 1])), Err(DecodeError), "{name}");
        }
        macro_rules! least {
            ($($record:ident: $value:expr;)*) => {$(
                least(stringify!($record), $record::MIN_WIRE_LEN, |w| $record::put(w, $value), |r| {
                    $record::parse(r).map(drop)
                });
            )*};
        }

        let zero = BigUint::zero;
        let sig = DsaSignature::from_parts(zero(), zero());
        let gsig = GroupSignature::from_parts(
            ElGamalCiphertext::from_parts(zero(), zero()),
            zero(),
            zero(),
            zero(),
        );
        let minted = MintedCoin::from_parts(OwnerTag::Anonymous, zero(), sig.clone());
        let binding =
            Binding::from_parts(zero(), zero(), 0, Timestamp(0), BindingSigner::CoinKey, sig.clone());
        let leaf = CoinLeaf { coin: CoinId([0; 32]), deposited: false, binding: None, aux: [0; 32] };
        let root = SignedRoot { root: [0; 32], seq: 0, sig: sig.clone() };
        let proof = InclusionProof { leaves: 0, index: 0, siblings: Vec::new() };
        let commitment = ChainCommitment {
            root: [0; 32],
            capacity: 0,
            checkpoint_every: 0,
            checkpoints: Vec::new(),
            group_sig: gsig.clone(),
        };
        let (holder_sig, group_sig) = (sig.clone(), gsig.clone());
        least! {
            SigRef: &sig;
            GroupSigRef: &gsig;
            MintedRef: &minted;
            BindingRef: &binding;
            InviteRef: &PaymentInvite { holder_pk: zero(), nonce: [0; 32], group_sig: gsig.clone() };
            DepositRef: &DepositRequest {
                minted: minted.clone(),
                binding: binding.clone(),
                holder_sig: holder_sig.clone(),
                group_sig: group_sig.clone(),
            };
            TransferRef: &TransferRequest {
                current: binding.clone(),
                new_holder_pk: zero(),
                nonce: [0; 32],
                holder_sig: holder_sig.clone(),
                group_sig: group_sig.clone(),
            };
            RenewalRef: &RenewalRequest { current: binding.clone(), holder_sig, group_sig };
            GrantRef: &CoinGrant { minted, binding, ownership_proof: sig.clone() };
            CommitmentRef: &commitment;
            PublicStateRef: &PublicBindingState { holder_pk: zero(), seq: 0, expires: Timestamp(0) };
            CoinLeafRef: &leaf;
            ProofRef: &BindingProof { leaf, proof, root };
            DepositReceipt: &DepositReceipt { coin: CoinId([0; 32]), value: 0 };
            RedemptionReceipt: &RedemptionReceipt { chain: ChainId([0; 32]), credited: 0, total: 0 };
            PurchaseRef: &PurchaseRequest {
                owner: OwnerTag::Anonymous,
                coin_pk: zero(),
                identity_sig: None,
                group_sig: None,
            };
            FraudRef: &FraudCase { coin: CoinId([0; 32]), description: String::new(), group_sigs: Vec::new() };
            PeerRef: (PeerId(0), &DsaPublicKey::from_element(zero()));
        }
    }
}
