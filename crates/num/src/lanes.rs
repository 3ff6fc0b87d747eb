//! Eight exponentiation chains per instruction stream: Montgomery
//! arithmetic on AVX-512 IFMA, one residue per 64-bit lane.
//!
//! A membership-and-power chain ([`crate::SchnorrGroup::pow_member_each`])
//! is the same shape whatever element it walks: the squarings of
//! `x^(16^i)` and a handful of bucket products. Eight such chains
//! therefore fit the eight lanes of a `zmm` register and run as one — no
//! lane ever meets another, so each is the exact computation of its own
//! element.
//!
//! **Representation.** Residues are held in radix 2⁵² — the width
//! `vpmadd52{lo,hi}uq` multiplies — as ten limbs, enough for a
//! 512-bit modulus `p`, in Montgomery form with `R = 2⁵²⁰`. Limb `j` of
//! the eight residues shares one vector. Because `R > 4p`, the product of
//! two inputs below `2p` is again below `2p`
//! (`(ab + yp)/R < (4p² + Rp)/R < 2p`), so nothing is ever subtracted
//! inside a chain: residues live in `[0, 2p)` and are brought below `p`
//! once, on the way out.
//!
//! **Kernels.** `mont_mul` scans `b` limb by limb: 20 fused
//! multiply-adds for `a·bᵢ` (low and high halves), the quotient digit
//! `y = lo52(tᵢ·k₀)`, 20 more for `y·p`, and limb `i` is retired into
//! limb `i + 1`. Accumulators are 64 bits wide and take fewer than
//! forty-four 52-bit terms each, so they cannot overflow and carries
//! are propagated once, at the end. `mont_sqr` accumulates the 45 cross
//! products once, doubles them, adds the diagonal and reduces: 320
//! multiply-adds against 410.
//!
//! **The walk** is [`crate::MontgomeryRing::pow_each`]'s right-to-left
//! 2⁴-ary bucket method. One exponent is *shared* — the same in every
//! lane, as the group order is in a membership test — so its buckets are
//! plain vectors and an empty one costs nothing. Each further exponent is
//! per lane: a lane's digit picks the bucket its power is multiplied into
//! (digit 0 a dump bucket that is never read), so a step is one select,
//! one product and one deposit whatever the digits are.
//!
//! The engine exists only where the host has `avx512ifma`
//! ([`LaneRing::new`] is the one place that asks), and only for moduli of
//! at most 512 bits.

use core::arch::x86_64::__m512i;

use crate::montgomery::{exp_digit, neg_inv_word};
use crate::{BigUint, Powers};

/// Residues per call: the 64-bit lanes of a `zmm` register.
pub const LANES: usize = 8;

/// 52-bit limbs per residue.
const LIMBS: usize = 10;

/// Bits per limb.
const LIMB_BITS: usize = 52;

/// Widest modulus the engine takes, in bits: `R = 2^(52·LIMBS)` must
/// exceed `4p`.
pub const MAX_MODULUS_BITS: usize = LIMBS * LIMB_BITS - 2;

const LIMB_MASK: u64 = (1 << LIMB_BITS) - 1;

/// Digit width of the bucket walk.
const K: usize = 4;

/// Buckets per exponent, the dump bucket of digit 0 included.
const BUCKETS: usize = 1 << K;

/// Eight residues in registers: limb `j` of each in vector `j`.
type Lanes = [__m512i; LIMBS];

/// Eight residues in memory, laid out as [`Lanes`].
type Slab = [[u64; LANES]; LIMBS];

/// One residue as 52-bit limbs, little-endian.
type Limbs = [u64; LIMBS];

/// The lane engine's context for one odd modulus.
#[derive(Debug, Clone)]
pub struct LaneRing {
    modulus: BigUint,
    p: Limbs,
    /// `-p⁻¹ mod 2⁵²`.
    k0: u64,
    /// `R² mod p`: a product with it puts a residue in Montgomery form.
    r2: Limbs,
    /// `R mod p`: one in Montgomery form.
    one: Limbs,
}

impl LaneRing {
    /// The context for `modulus`, or `None` when the engine cannot run:
    /// the host lacks `avx512ifma`, or the modulus is even, below 3 or
    /// wider than [`MAX_MODULUS_BITS`].
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if !(is_x86_feature_detected!("avx512ifma") && is_x86_feature_detected!("avx512f")) {
            return None;
        }
        if modulus.is_even() || modulus.bits() < 2 || modulus.bits() > MAX_MODULUS_BITS {
            return None;
        }
        let r = BigUint::one() << (LIMBS * LIMB_BITS);
        Some(LaneRing {
            modulus: modulus.clone(),
            p: split(modulus),
            // The low 52 bits of `-p⁻¹ mod 2^64` are `-p⁻¹ mod 2^52`.
            k0: neg_inv_word(modulus.limbs()[0]) & LIMB_MASK,
            r2: split(&((&r * &r) % modulus)),
            one: split(&(&r % modulus)),
        })
    }

    /// `(base^shared, [base^e for e in exps])` for every `(base, exps)` in
    /// `items`, eight items to a call of the kernel (a last, partial call
    /// pads with ones). `shared` rides the same squaring chain in every
    /// lane. Every base must already be reduced mod the modulus; `0^0 = 1`.
    pub fn pow_each(&self, shared: &BigUint, items: &[Powers<'_>]) -> Vec<(BigUint, Vec<BigUint>)> {
        let mut out = Vec::with_capacity(items.len());
        for chunk in items.chunks(LANES) {
            assert!(chunk.iter().all(|(base, _)| *base < &self.modulus), "bases are reduced");
            // SAFETY: a `LaneRing` exists only on a host where `new`
            // detected the features `pow_chunk` is compiled for.
            out.extend(unsafe { ifma::pow_chunk(self, shared, chunk) });
        }
        out
    }

    /// The Montgomery products `aᵢ·bᵢ·R⁻¹`, each below `2p` and congruent
    /// mod `p`, for inputs below `2p`; `R` is [`LaneRing::radix`]. The
    /// surface the kernel is differentially tested through.
    pub fn mont_mul(&self, a: &[BigUint], b: &[BigUint]) -> Vec<BigUint> {
        assert_eq!(a.len(), b.len(), "one factor of each kind per product");
        let chunks = a.chunks(LANES).zip(b.chunks(LANES));
        let products = chunks.flat_map(|(a, b)| {
            // SAFETY: as in `pow_each`.
            let product = unsafe { ifma::mul_slabs(self, &self.slab(a), &self.slab(b)) };
            (0..a.len()).map(move |l| join(&product, l))
        });
        products.collect()
    }

    /// [`LaneRing::mont_mul`] of every input with itself, through the
    /// squaring kernel.
    pub fn mont_sqr(&self, a: &[BigUint]) -> Vec<BigUint> {
        let squares = a.chunks(LANES).flat_map(|a| {
            // SAFETY: as in `pow_each`.
            let square = unsafe { ifma::sqr_slab(self, &self.slab(a)) };
            (0..a.len()).map(move |l| join(&square, l))
        });
        squares.collect()
    }

    /// The Montgomery radix `R = 2⁵²⁰`.
    pub fn radix() -> BigUint {
        BigUint::one() << (LIMBS * LIMB_BITS)
    }

    /// Up to eight residues below `2p` as a slab, missing lanes zero.
    fn slab(&self, residues: &[BigUint]) -> Slab {
        let mut slab = [[0u64; LANES]; LIMBS];
        for (l, residue) in residues.iter().enumerate() {
            assert!(residue < &(&self.modulus << 1), "lane inputs are below 2p");
            put(&mut slab, l, &split(residue));
        }
        slab
    }

    /// Lane `l` of `slab`, a residue below `2p`, as the integer below `p`.
    fn canonical(&self, slab: &Slab, l: usize) -> BigUint {
        let x = join(slab, l);
        if x < self.modulus {
            x
        } else {
            &x - &self.modulus
        }
    }
}

/// `x`, below `2^(52·LIMBS)`, as 52-bit limbs.
fn split(x: &BigUint) -> Limbs {
    debug_assert!(x.bits() <= LIMBS * LIMB_BITS);
    let words = x.limbs();
    let word = |i: usize| words.get(i).copied().unwrap_or(0);
    std::array::from_fn(|j| {
        let (at, shift) = (j * LIMB_BITS / 64, j * LIMB_BITS % 64);
        let low = word(at) >> shift;
        let high = if shift + LIMB_BITS > 64 { word(at + 1) << (64 - shift) } else { 0 };
        (low | high) & LIMB_MASK
    })
}

/// Lane `l` of `slab` (normalised limbs) as an integer.
fn join(slab: &Slab, l: usize) -> BigUint {
    let mut words = vec![0u64; (LIMBS * LIMB_BITS).div_ceil(64)];
    for (j, row) in slab.iter().enumerate() {
        let (at, shift) = (j * LIMB_BITS / 64, j * LIMB_BITS % 64);
        words[at] |= row[l] << shift;
        if shift + LIMB_BITS > 64 {
            words[at + 1] |= row[l] >> (64 - shift);
        }
    }
    BigUint::from_limbs(words)
}

/// Writes `limbs` into lane `l` of `slab`.
fn put(slab: &mut Slab, l: usize, limbs: &Limbs) {
    for (row, &limb) in slab.iter_mut().zip(limbs) {
        row[l] = limb;
    }
}

/// `limbs` in every lane.
fn broadcast(limbs: &Limbs) -> Slab {
    limbs.map(|limb| [limb; LANES])
}

/// The `i`-th 4-bit digit of `e`, little-endian.
fn digit(e: &BigUint, i: usize) -> u8 {
    exp_digit(e, i, K) as u8
}

/// The kernels. Every function is a safe `#[target_feature]` function:
/// entering one from code compiled without the features is the `unsafe`
/// step ([`LaneRing`]'s methods take it, on the strength of
/// [`LaneRing::new`]'s detection). Inside, the only `unsafe` is where a
/// register meets memory — [`load`] and [`store`], each through a
/// reference to exactly one vector's worth of words.
mod ifma {
    use core::arch::x86_64::*;

    use super::{
        broadcast, digit, put, split, LaneRing, Lanes, Limbs, Slab, BUCKETS, K, LANES, LIMBS, LIMB_MASK,
    };
    use crate::{BigUint, Powers};

    /// What every product needs of the modulus, in registers.
    #[derive(Clone, Copy)]
    struct Modulus {
        p: Lanes,
        k0: __m512i,
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load(row: &[u64; LANES]) -> __m512i {
        // SAFETY: an unaligned 64-byte load through a reference to
        // exactly 64 readable bytes.
        unsafe { _mm512_loadu_si512(row.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store(row: &mut [u64; LANES], v: __m512i) {
        // SAFETY: an unaligned 64-byte store through a reference to
        // exactly 64 writable bytes.
        unsafe { _mm512_storeu_si512(row.as_mut_ptr().cast(), v) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load_slab(slab: &Slab) -> Lanes {
        std::array::from_fn(|j| load(&slab[j]))
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store_slab(lanes: &Lanes) -> Slab {
        let mut slab = [[0u64; LANES]; LIMBS];
        for (row, &v) in slab.iter_mut().zip(lanes) {
            store(row, v);
        }
        slab
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn every_lane(limbs: &Limbs) -> Lanes {
        limbs.map(|limb| _mm512_set1_epi64(limb as i64))
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn modulus_of(ring: &LaneRing) -> Modulus {
        Modulus { p: every_lane(&ring.p), k0: _mm512_set1_epi64(ring.k0 as i64) }
    }

    /// Propagates carries through accumulators whose value fits
    /// `52·LIMBS` bits, leaving normalised limbs.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn normalise(acc: &[__m512i]) -> Lanes {
        let mask = _mm512_set1_epi64(LIMB_MASK as i64);
        let mut carry = _mm512_setzero_si512();
        std::array::from_fn(|j| {
            let t = _mm512_add_epi64(acc[j], carry);
            carry = _mm512_srli_epi64::<52>(t);
            _mm512_and_si512(t, mask)
        })
    }

    /// Runs `$body` once per limb with `$i` a constant, in order. The
    /// accumulators stay in registers only where every index into them is
    /// a constant; the squaring's loops the compiler unrolls by itself,
    /// the product's outer loop — forty-one multiply-adds a turn — it does
    /// not, and then keeps them in memory.
    macro_rules! for_each_limb {
        ($i:ident, $body:block) => {
            for_each_limb!(@at $i, $body, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
        };
        (@at $i:ident, $body:block, $($at:literal),*) => {{
            const _: () = assert!(LIMBS == 10);
            $({
                const $i: usize = $at;
                $body
            })*
        }};
    }

    /// One step of Montgomery reduction on the double-width accumulators
    /// `t`: adds the multiple `y·p·2^(52i)` that makes limb `i` vanish,
    /// and carries what is left of it into limb `i + 1`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn reduce_limb(t: &mut [__m512i; 2 * LIMBS], i: usize, m: &Modulus) {
        // The multiply reads the low 52 bits of t[i] only.
        let y = _mm512_madd52lo_epu64(_mm512_setzero_si512(), t[i], m.k0);
        for j in 0..LIMBS {
            t[i + j] = _mm512_madd52lo_epu64(t[i + j], m.p[j], y);
            t[i + j + 1] = _mm512_madd52hi_epu64(t[i + j + 1], m.p[j], y);
        }
        t[i + 1] = _mm512_add_epi64(t[i + 1], _mm512_srli_epi64::<52>(t[i]));
    }

    /// `a·b·R⁻¹`, below `2p` and congruent mod `p`, for `a, b < 2p` in
    /// normalised limbs: the rows `a·bᵢ`, each followed by the reduction
    /// step that retires limb `i`, so that eleven accumulators are live
    /// at a time.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mont_mul(a: &Lanes, b: &Lanes, m: &Modulus) -> Lanes {
        let mut t = [_mm512_setzero_si512(); 2 * LIMBS];
        for_each_limb!(I, {
            for j in 0..LIMBS {
                t[I + j] = _mm512_madd52lo_epu64(t[I + j], a[j], b[I]);
                t[I + j + 1] = _mm512_madd52hi_epu64(t[I + j + 1], a[j], b[I]);
            }
            reduce_limb(&mut t, I, m);
        });
        normalise(&t[LIMBS..])
    }

    /// `a·a·R⁻¹` as [`mont_mul`] would give it: each cross product once,
    /// doubled, then the diagonal, then the ten reduction steps.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mont_sqr(a: &Lanes, m: &Modulus) -> Lanes {
        let mut t = [_mm512_setzero_si512(); 2 * LIMBS];
        for i in 0..LIMBS {
            for j in i + 1..LIMBS {
                t[i + j] = _mm512_madd52lo_epu64(t[i + j], a[i], a[j]);
                t[i + j + 1] = _mm512_madd52hi_epu64(t[i + j + 1], a[i], a[j]);
            }
        }
        for tk in &mut t {
            *tk = _mm512_add_epi64(*tk, *tk);
        }
        for i in 0..LIMBS {
            t[2 * i] = _mm512_madd52lo_epu64(t[2 * i], a[i], a[i]);
            t[2 * i + 1] = _mm512_madd52hi_epu64(t[2 * i + 1], a[i], a[i]);
        }
        for i in 0..LIMBS {
            reduce_limb(&mut t, i, m);
        }
        normalise(&t[LIMBS..])
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn mul_slabs(ring: &LaneRing, a: &Slab, b: &Slab) -> Slab {
        store_slab(&mont_mul(&load_slab(a), &load_slab(b), &modulus_of(ring)))
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn sqr_slab(ring: &LaneRing, a: &Slab) -> Slab {
        store_slab(&mont_sqr(&load_slab(a), &modulus_of(ring)))
    }

    /// The residues `buckets[digits[l]]` holds for each lane `l`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn select(buckets: &[Slab; BUCKETS], digits: &[u8; LANES]) -> Lanes {
        std::array::from_fn(|j| {
            let row: [u64; LANES] = std::array::from_fn(|l| buckets[digits[l] as usize][j][l]);
            load(&row)
        })
    }

    /// Writes lane `l` of `value` to lane `l` of `buckets[digits[l]]`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn deposit(buckets: &mut [Slab; BUCKETS], digits: &[u8; LANES], value: &Lanes) {
        let value = store_slab(value);
        for (j, row) in value.iter().enumerate() {
            for (l, &limb) in row.iter().enumerate() {
                buckets[digits[l] as usize][j][l] = limb;
            }
        }
    }

    /// `∏ bucket_d^d` over the buckets `d = 15 .. 1` that hold something:
    /// after visiting buckets `d..` the running product is `∏_{j ≥ d}
    /// bucket_j`, and folding it into the total once per step contributes
    /// bucket `j` exactly `j` times. `None` is the empty product.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn sweep(bucket: impl Fn(usize) -> Option<Lanes>, m: &Modulus) -> Option<Lanes> {
        let (mut running, mut total): (Option<Lanes>, Option<Lanes>) = (None, None);
        for d in (1..BUCKETS).rev() {
            if let Some(b) = bucket(d) {
                running = Some(running.map_or(b, |r| mont_mul(&r, &b, m)));
            }
            if let Some(r) = running {
                total = Some(total.map_or(r, |t| mont_mul(&t, &r, m)));
            }
        }
        total
    }

    /// [`LaneRing::pow_each`] for at most eight items.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn pow_chunk(
        ring: &LaneRing,
        shared: &BigUint,
        items: &[Powers<'_>],
    ) -> Vec<(BigUint, Vec<BigUint>)> {
        debug_assert!(items.len() <= LANES);
        let m = modulus_of(ring);
        let one = every_lane(&ring.one);
        let slots = items.iter().map(|(_, exps)| exps.len()).max().unwrap_or(0);
        let bits = items.iter().flat_map(|(_, exps)| exps.iter()).map(|e| e.bits()).max();
        let steps = bits.unwrap_or(0).max(shared.bits()).div_ceil(K);
        // digits[s * steps + i][l]: digit i of lane l's exponent s, zero
        // where the lane has none.
        let mut digits = vec![[0u8; LANES]; slots * steps];
        let mut bases = broadcast(&ring.one);
        for (l, (base, exps)) in items.iter().enumerate() {
            put(&mut bases, l, &split(base));
            for (s, e) in exps.iter().enumerate() {
                for (i, at) in digits[s * steps..][..steps].iter_mut().enumerate() {
                    at[l] = digit(e, i);
                }
            }
        }
        // Lanes without an item walk R mod p, a residue like any other.
        let mut power = mont_mul(&load_slab(&bases), &every_lane(&ring.r2), &m);
        let mut shared_buckets = [None::<Lanes>; BUCKETS];
        let mut buckets = vec![[broadcast(&ring.one); BUCKETS]; slots];
        for i in 0..steps {
            if i > 0 {
                for _ in 0..K {
                    power = mont_sqr(&power, &m);
                }
            }
            let d = digit(shared, i) as usize;
            if d != 0 {
                shared_buckets[d] = Some(shared_buckets[d].map_or(power, |b| mont_mul(&b, &power, &m)));
            }
            for (s, buckets) in buckets.iter_mut().enumerate() {
                let digits = &digits[s * steps + i];
                if *digits != [0; LANES] {
                    let product = mont_mul(&select(buckets, digits), &power, &m);
                    deposit(buckets, digits, &product);
                }
            }
        }
        // Out of Montgomery form: a product with the integer 1.
        let mut unit = [0u64; LIMBS];
        unit[0] = 1;
        let unit = every_lane(&unit);
        let plain = |total: Option<Lanes>| store_slab(&mont_mul(&total.unwrap_or(one), &unit, &m));
        let shared_power = plain(sweep(|d| shared_buckets[d], &m));
        let powers: Vec<Slab> =
            buckets.iter().map(|buckets| plain(sweep(|d| Some(load_slab(&buckets[d])), &m))).collect();
        items
            .iter()
            .enumerate()
            .map(|(l, (_, exps))| {
                let own = powers[..exps.len()].iter().map(|slab| ring.canonical(slab, l)).collect();
                (ring.canonical(&shared_power, l), own)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limbs_round_trip() {
        let mut rng = crate::test_rng(0x1A);
        for bits in [1usize, 52, 53, 104, 511, 512, 513, 520] {
            let x = BigUint::random_bits(&mut rng, bits);
            let mut slab = [[0u64; LANES]; LIMBS];
            put(&mut slab, 3, &split(&x));
            assert_eq!(join(&slab, 3), x, "{bits} bits");
            assert!(split(&x).iter().all(|&limb| limb <= LIMB_MASK));
        }
    }

    #[test]
    fn digits_read_little_endian() {
        let e = BigUint::from(0x1234_5678_9ABC_DEF0u64) << 64;
        assert_eq!(
            (16..32).map(|i| digit(&e, i)).collect::<Vec<_>>(),
            [0, 0xF, 0xE, 0xD, 0xC, 0xB, 0xA, 9, 8, 7, 6, 5, 4, 3, 2, 1]
        );
        assert_eq!(digit(&e, 0), 0);
        assert_eq!(digit(&e, 99), 0);
    }
}
