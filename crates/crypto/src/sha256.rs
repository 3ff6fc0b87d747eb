//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Used throughout the WhoPay reproduction for message digests, Fiat–Shamir
//! challenges, DHT keys, and PayWord hash chains.
//!
//! On x86-64 hosts with the SHA extensions the compression function runs
//! on the `SHA256RNDS2`/`SHA256MSG*` instructions (runtime-detected, with
//! the portable implementation as the fallback and differential oracle).
//! The broker's Merkle-committed state ledger hashes a handful of small
//! blocks per committed mutation, so compression throughput is directly
//! the price of tamper evidence (`ledger.*` rows of `benchmark/`).
//!
//! [`Sha256::digest`] additionally picks its kernel from the input
//! length it already sees: a 32-byte input — every PayWord chain link —
//! is one block whose padding words and initial state are constants, so
//! it runs with no staging block and no state round trip through memory;
//! any other length runs one loop that keeps the working state packed in
//! registers across blocks.

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; 32];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] =
    [0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use whopay_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), Sha256::digest(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, len: 0, buf: [0; 64], buf_len: 0 }
    }

    /// One-shot digest of `data`.
    ///
    /// Compresses straight from the input slice — no block buffer, no
    /// length bookkeeping — so the small hashes the Merkle ledger and
    /// PayWord chains live on pay only the compression function itself.
    /// On the hardware path a 32-byte input takes the fixed-shape
    /// one-block kernel and every other length the packed multi-block
    /// loop (see the module docs); the result is the same on every path.
    #[inline]
    pub fn digest(data: &[u8]) -> Digest {
        #[cfg(target_arch = "x86_64")]
        if ni::available() {
            // SAFETY: `ni::available()` just confirmed the cpu features
            // both kernels are compiled for.
            return unsafe {
                match <&[u8; 32]>::try_from(data) {
                    Ok(word) => ni::digest32(word),
                    Err(_) => ni::digest(data),
                }
            };
        }
        Self::digest_portable(data)
    }

    /// [`Sha256::digest`] on the portable compression function: the
    /// fallback for hosts without the SHA extensions and the oracle the
    /// differential suite holds the hardware kernels to.
    fn digest_portable(data: &[u8]) -> Digest {
        let mut state = H0;
        let mut blocks = data.chunks_exact(64);
        for block in blocks.by_ref() {
            Self::compress_portable_state(&mut state, block.try_into().expect("64-byte chunk"));
        }
        let (tail, used) = padded_tail(blocks.remainder(), data.len());
        for block in tail[..used].chunks_exact(64) {
            Self::compress_portable_state(&mut state, block.try_into().expect("64-byte chunk"));
        }
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Absorbs more input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = data.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            self.compress(block.try_into().unwrap());
            data = rest;
        }
        if !data.is_empty() {
            // Reached only with an empty buffer (either never filled or
            // just flushed), so this starts a fresh partial block.
            debug_assert_eq!(self.buf_len, 0);
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Pads and returns the digest, consuming the hasher state.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length —
        // written straight into the block buffer (one or two compressions,
        // never a byte-at-a-time loop).
        let mut block = self.buf;
        block[self.buf_len] = 0x80;
        if self.buf_len < 56 {
            block[self.buf_len + 1..56].fill(0);
        } else {
            block[self.buf_len + 1..].fill(0);
            self.compress(&block);
            block = [0; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        Self::compress_state(&mut self.state, block);
    }

    /// One compression round, dispatching to the hardware path when the
    /// host has it.
    fn compress_state(state: &mut [u32; 8], block: &[u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if ni::available() {
            // SAFETY: `ni::available()` checked the cpu features the
            // intrinsics require.
            unsafe { ni::compress(state, block) };
            return;
        }
        Self::compress_portable_state(state, block);
    }

    #[cfg(test)]
    fn compress_portable(&mut self, block: &[u8; 64]) {
        Self::compress_portable_state(&mut self.state, block);
    }

    fn compress_portable_state(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The final one or two blocks of a one-shot digest: the input's last
/// partial block `rem`, the `0x80` marker, zeros, and the 64-bit
/// big-endian bit length of the whole `total_len`-byte input. Returns
/// the buffer and how many of its bytes (64 or 128) are in use.
fn padded_tail(rem: &[u8], total_len: usize) -> ([u8; 128], usize) {
    debug_assert!(rem.len() < 64);
    let mut tail = [0u8; 128];
    tail[..rem.len()].copy_from_slice(rem);
    tail[rem.len()] = 0x80;
    let used = if rem.len() < 56 { 64 } else { 128 };
    tail[used - 8..used].copy_from_slice(&(total_len as u64).wrapping_mul(8).to_be_bytes());
    (tail, used)
}

/// The x86-64 SHA-extensions compression path.
///
/// Lane bookkeeping follows the canonical `SHA256RNDS2` layout: the
/// working state lives in two vectors packed as `ABEF` / `CDGH`, the
/// message schedule advances four words at a time through
/// `SHA256MSG1`/`SHA256MSG2`, and each four-round group feeds the low
/// then high halves of `w + K` to `SHA256RNDS2`.
///
/// Every function here is a safe `#[target_feature]` function: calling
/// one from code compiled without those features is the `unsafe` step,
/// and its condition is [`available`]. Inside, the only `unsafe` left is
/// the unaligned vector loads and stores, each through a reference whose
/// type bounds it.
#[cfg(target_arch = "x86_64")]
mod ni {
    use core::arch::x86_64::*;

    use super::{padded_tail, Digest, H0, K};

    /// Whether the host supports every instruction this path issues
    /// (`is_x86_feature_detected!` caches, so this is a load + test).
    #[inline]
    pub fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3")
    }

    /// The working state packed the way `SHA256RNDS2` wants it.
    #[derive(Clone, Copy)]
    struct Packed {
        abef: __m128i,
        cdgh: __m128i,
    }

    /// Four 32-bit lanes, lowest first.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn lanes(w: [u32; 4]) -> __m128i {
        _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32)
    }

    /// Sixteen bytes of input as four little-endian lanes of big-endian
    /// words (`pshufb` by the byte-reversing mask; the swap is its own
    /// inverse, so the same function turns state lanes into digest
    /// bytes).
    #[inline]
    #[target_feature(enable = "ssse3,sse2")]
    fn swap_bytes(v: __m128i) -> __m128i {
        _mm_shuffle_epi8(v, _mm_set_epi64x(0x0c0d_0e0f_0809_0a0bu64 as i64, 0x0405_0607_0001_0203))
    }

    #[inline]
    #[target_feature(enable = "ssse3,sse2")]
    fn load_words(bytes: &[u8; 16]) -> __m128i {
        // SAFETY: an unaligned 16-byte load through a reference to
        // exactly 16 readable bytes.
        swap_bytes(unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) })
    }

    /// The initial hash state, packed: two constants, no memory round
    /// trip.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn packed_h0() -> Packed {
        let [a, b, c, d, e, f, g, h] = H0;
        Packed { abef: lanes([f, e, b, a]), cdgh: lanes([h, g, d, c]) }
    }

    /// Packs `[a,b,c,d]`, `[e,f,g,h]` lanes into `ABEF` / `CDGH`.
    #[inline]
    #[target_feature(enable = "sse4.1,ssse3,sse2")]
    fn pack(dcba: __m128i, hgfe: __m128i) -> Packed {
        let badc = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        Packed { abef: _mm_alignr_epi8(badc, efgh, 8), cdgh: _mm_blend_epi16(efgh, badc, 0xF0) }
    }

    /// Unpacks `ABEF` / `CDGH` back to `[a,b,c,d]`, `[e,f,g,h]` lanes.
    #[inline]
    #[target_feature(enable = "sse4.1,ssse3,sse2")]
    fn unpack(p: Packed) -> (__m128i, __m128i) {
        let feba = _mm_shuffle_epi32(p.abef, 0x1B);
        let dchg = _mm_shuffle_epi32(p.cdgh, 0xB1);
        (_mm_blend_epi16(feba, dchg, 0xF0), _mm_alignr_epi8(dchg, feba, 8))
    }

    /// The big-endian digest bytes of a packed final state, straight
    /// from the registers.
    #[inline]
    #[target_feature(enable = "sse4.1,ssse3,sse2")]
    fn digest_bytes(p: Packed) -> Digest {
        let (dcba, hgfe) = unpack(p);
        let mut out = [0u8; 32];
        let (front, back) = out.split_at_mut(16);
        // SAFETY: two unaligned 16-byte stores, each into a 16-byte half
        // of `out`.
        unsafe {
            _mm_storeu_si128(front.as_mut_ptr().cast(), swap_bytes(dcba));
            _mm_storeu_si128(back.as_mut_ptr().cast(), swap_bytes(hgfe));
        }
        out
    }

    /// The sixteen message words of one block as four vectors.
    #[inline]
    #[target_feature(enable = "ssse3,sse2")]
    fn load_block(block: &[u8; 64]) -> [__m128i; 4] {
        let (chunks, []) = block.as_chunks::<16>() else { unreachable!("64 = 4 × 16") };
        [load_words(&chunks[0]), load_words(&chunks[1]), load_words(&chunks[2]), load_words(&chunks[3])]
    }

    /// One compression: sixty-four rounds over the block whose message
    /// words are `msgs`, plus the feed-forward addition.
    ///
    /// Sixteen four-round groups. Groups 0-3 consume the block; groups
    /// 4-15 extend the schedule: w[g] = msg2(msg1(w[g-4], w[g-3]) +
    /// alignr(w[g-1], w[g-2], 4), w[g-1]), all mod-4 in `msgs`.
    #[inline]
    #[target_feature(enable = "sha,sse4.1,ssse3,sse2")]
    fn rounds(state: Packed, mut msgs: [__m128i; 4]) -> Packed {
        let Packed { mut abef, mut cdgh } = state;
        // Spelled out per group so every `msgs` index is a constant and
        // the schedule stays in registers (as a loop it round-trips the
        // stack through variable indices).
        macro_rules! four_rounds {
            ($($g:literal)*) => {$({
                const G: usize = $g;
                if G >= 4 {
                    let shifted = _mm_alignr_epi8(msgs[(G + 3) % 4], msgs[(G + 2) % 4], 4);
                    let fed = _mm_sha256msg1_epu32(msgs[G % 4], msgs[(G + 1) % 4]);
                    msgs[G % 4] = _mm_sha256msg2_epu32(_mm_add_epi32(fed, shifted), msgs[(G + 3) % 4]);
                }
                let k = lanes([K[4 * G], K[4 * G + 1], K[4 * G + 2], K[4 * G + 3]]);
                let wk = _mm_add_epi32(msgs[G % 4], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
            })*};
        }
        four_rounds!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
        Packed { abef: _mm_add_epi32(abef, state.abef), cdgh: _mm_add_epi32(cdgh, state.cdgh) }
    }

    /// Runs one compression round on `state` (the streaming hasher's
    /// path: its state lives in memory between calls).
    #[target_feature(enable = "sha,sse4.1,ssse3,sse2")]
    pub fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let [a, b, c, d, e, f, g, h] = *state;
        let (dcba, hgfe) =
            unpack(rounds(pack(lanes([a, b, c, d]), lanes([e, f, g, h])), load_block(block)));
        let (front, back) = state.split_at_mut(4);
        // SAFETY: two unaligned 16-byte stores, each into four `u32`s.
        unsafe {
            _mm_storeu_si128(front.as_mut_ptr().cast(), dcba);
            _mm_storeu_si128(back.as_mut_ptr().cast(), hgfe);
        }
    }

    /// One-shot digest of any input: the state stays packed in registers
    /// from `H0` through every block, padding included.
    #[target_feature(enable = "sha,sse4.1,ssse3,sse2")]
    pub fn digest(data: &[u8]) -> Digest {
        let mut state = packed_h0();
        let (blocks, rem) = data.as_chunks::<64>();
        for block in blocks {
            state = rounds(state, load_block(block));
        }
        let (tail, used) = padded_tail(rem, data.len());
        for block in tail[..used].as_chunks::<64>().0 {
            state = rounds(state, load_block(block));
        }
        digest_bytes(state)
    }

    /// One-shot digest of exactly 32 bytes — a PayWord link, a Merkle
    /// child, a key. The input is half of the single block; the other
    /// half (the `0x80` marker, zeros, and the bit length 256) is two
    /// constant vectors, and so is the initial state.
    #[target_feature(enable = "sha,sse4.1,ssse3,sse2")]
    pub fn digest32(word: &[u8; 32]) -> Digest {
        let (halves, []) = word.as_chunks::<16>() else { unreachable!("32 = 2 × 16") };
        let marker = lanes([0x8000_0000, 0, 0, 0]);
        let bit_len = lanes([0, 0, 0, 256]);
        digest_bytes(rounds(
            packed_h0(),
            [load_words(&halves[0]), load_words(&halves[1]), marker, bit_len],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &Digest) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_string_vector() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(&Sha256::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// The FIPS 180-4 four-block vector: the packed multi-block loop
    /// carries its state across three full blocks and two of padding.
    #[test]
    fn four_block_vector() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                    hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hex(&Sha256::digest(msg)),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    /// Known answers at exactly 32 bytes — the fixed-shape kernel's only
    /// input length (values from an independent implementation).
    #[test]
    fn thirty_two_byte_vectors() {
        assert_eq!(
            hex(&Sha256::digest(&[0u8; 32])),
            "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925"
        );
        let counting: [u8; 32] = core::array::from_fn(|i| i as u8);
        assert_eq!(
            hex(&Sha256::digest(&counting)),
            "630dcd2966c4336691125448bbb25b4ff412a49c732db2c8abc1b8581bd710dd"
        );
    }

    fn splitmix(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Every way this module can hash `data`, each of which must give
    /// `digest_portable`'s answer: the dispatching one-shot, the streaming
    /// hasher split at `split`, a streaming hasher forced onto the
    /// portable compression, and — where the host has them — both
    /// hardware kernels called directly, so the multi-block loop also
    /// sees 32-byte inputs the dispatcher would route to the fixed one.
    fn assert_all_paths_agree(data: &[u8], split: usize) {
        let expect = Sha256::digest_portable(data);
        assert_eq!(Sha256::digest(data), expect, "one-shot, len {}", data.len());

        let mut streamed = Sha256::new();
        streamed.update(&data[..split]);
        streamed.update(&data[split..]);
        assert_eq!(streamed.finalize(), expect, "streaming, len {} split {split}", data.len());

        let mut portable = Sha256::new();
        let mut blocks = data.chunks_exact(64);
        for block in blocks.by_ref() {
            portable.compress_portable(block.try_into().unwrap());
        }
        let (tail, used) = padded_tail(blocks.remainder(), data.len());
        for block in tail[..used].chunks_exact(64) {
            portable.compress_portable(block.try_into().unwrap());
        }
        let words: Vec<u8> = portable.state.iter().flat_map(|w| w.to_be_bytes()).collect();
        assert_eq!(words, expect, "portable compression, len {}", data.len());

        #[cfg(target_arch = "x86_64")]
        if ni::available() {
            // SAFETY: `ni::available()` was just checked.
            unsafe {
                assert_eq!(ni::digest(data), expect, "multi-block kernel, len {}", data.len());
                if let Ok(word) = <&[u8; 32]>::try_from(data) {
                    assert_eq!(ni::digest32(word), expect, "fixed-shape kernel");
                }
            }
        }
    }

    /// Differential suite, lengths: every input length from empty through
    /// three blocks and a bit, so each padding shape (one tail block, two
    /// tail blocks, exact block multiples, the 32-byte special case) is
    /// hit on every path.
    #[test]
    fn all_paths_agree_at_every_length_to_200() {
        let mut next = splitmix(0x5EED_0001);
        let data: Vec<u8> = (0..200).map(|_| next() as u8).collect();
        for len in 0..=200 {
            for split in [0, len / 3, len / 2, len] {
                assert_all_paths_agree(&data[..len], split);
            }
        }
    }

    /// Differential suite, values: ten thousand random PayWord-sized
    /// inputs through the fixed-shape kernel against every other path.
    #[test]
    fn all_paths_agree_on_10k_random_32_byte_inputs() {
        let mut next = splitmix(0x5EED_0002);
        for _ in 0..10_000 {
            let mut word = [0u8; 32];
            for chunk in word.chunks_mut(8) {
                chunk.copy_from_slice(&next().to_le_bytes());
            }
            assert_all_paths_agree(&word, 17);
        }
    }

    /// Differential check on the streaming path: the SHA-extensions
    /// compression and the portable one must walk identical state
    /// sequences over random chained blocks. (The NIST vectors above pin
    /// whichever path the host dispatches to; this pins the two paths to
    /// each other.)
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hardware_and_portable_compress_agree() {
        if !ni::available() {
            return;
        }
        let mut next = splitmix(0x9E37_79B9_7F4A_7C15);
        let mut portable = Sha256::new();
        let mut state_hw = H0;
        for trial in 0..256 {
            let mut block = [0u8; 64];
            for chunk in block.chunks_mut(8) {
                chunk.copy_from_slice(&next().to_le_bytes());
            }
            portable.compress_portable(&block);
            // SAFETY: `ni::available()` was checked above.
            unsafe { ni::compress(&mut state_hw, &block) };
            assert_eq!(portable.state, state_hw, "diverged at block {trial}");
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        let expect = Sha256::digest(&data);
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 200, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }
}
