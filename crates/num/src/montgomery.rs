//! Montgomery-form modular arithmetic (FIOS) and fixed-base tables.
//!
//! This module is the fast path under [`crate::ModRing`]: for an odd
//! modulus `m` of `n` limbs it keeps residues in Montgomery form
//! (`aR mod m` with `R = 2^(64n)`), where a modular multiplication is a
//! single FIOS (finely integrated operand scanning) pass — two
//! schoolbook-sized multiplications fused with the reduction and **no
//! division**. Conversion in and out of Montgomery form costs one
//! multiplication each and is amortized across a whole exponentiation.
//!
//! At the limb counts the protocol runs on
//! ([`MontgomeryRing::FIXED_WIDTHS`]: a 160-bit `q`, a 512- or 1024-bit
//! `p`) products go through fixed-width kernels, and every squaring in an
//! exponentiation chain through a dedicated squaring that computes each
//! cross product once. Other widths use the dynamic-width multiply, which
//! is also the reference the fixed kernels are differentially tested
//! against.
//!
//! Exponentiation uses fixed windows (width chosen from the exponent
//! size, up to 5 bits); [`MontgomeryRing::pow_each`] raises one base to
//! any number of exponents over a single squaring chain; and
//! [`FixedBaseTable`] is a Lim–Lee comb over a fixed base (the group
//! generator, a long-lived key), so that a full exponentiation costs only
//! `ceil(bits/8)` multiplications and a handful of squarings. Window and
//! fixed-base tables are one flat limb vector each.
//!
//! Everything here is variable-time; like the rest of this crate it
//! reproduces the paper's performance envelope and is not hardened
//! against timing side channels.

use std::cmp::Ordering;

#[cfg(target_arch = "x86_64")]
use crate::lanes::{LaneComb, LaneRing};
use crate::{kernels, limbs, BigUint};

/// Montgomery multiplication context for a fixed odd modulus.
///
/// Residues handled by the raw `mont_*` methods are fixed-width
/// little-endian limb vectors of [`MontgomeryRing::num_limbs`] limbs in
/// Montgomery form. The [`MontgomeryRing::pow`] family accepts and
/// returns ordinary [`BigUint`] values and hides the conversions.
///
/// # Examples
///
/// ```
/// use whopay_num::{montgomery::MontgomeryRing, BigUint};
///
/// let m = BigUint::from(97u64);
/// let ring = MontgomeryRing::new(&m).expect("odd modulus");
/// let r = ring.pow(&BigUint::from(5u64), &BigUint::from(96u64));
/// assert!(r.is_one()); // Fermat
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MontgomeryRing {
    /// Modulus, fixed width `n`, top limb nonzero.
    m: Vec<u64>,
    /// `-m^{-1} mod 2^64` (the FIOS per-iteration quotient factor).
    n0inv: u64,
    /// `R^2 mod m`, the to-Montgomery conversion factor.
    r2: Vec<u64>,
    /// `R mod m`, i.e. `1` in Montgomery form.
    one: Vec<u64>,
}

/// Borrows a residue as the `[u64; N]` a fixed-width kernel takes.
fn fixed<const N: usize>(x: &[u64]) -> &[u64; N] {
    x.try_into().expect("residue as wide as the modulus")
}

/// Mutable counterpart of [`fixed`].
fn fixed_mut<const N: usize>(x: &mut [u64]) -> &mut [u64; N] {
    x.try_into().expect("residue as wide as the modulus")
}

impl MontgomeryRing {
    /// Modulus limb counts with fixed-width multiply and squaring kernels:
    /// a 160-bit subgroup order and 512- / 1024-bit element moduli.
    pub const FIXED_WIDTHS: [usize; 3] = [3, 8, 16];

    /// Builds a context for `modulus`, or `None` when `modulus` is even
    /// or smaller than 3 (Montgomery reduction requires `gcd(m, R) = 1`).
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.is_even() || modulus.bits() < 2 {
            return None;
        }
        let m = modulus.limbs().to_vec();
        let n = m.len();
        let n0inv = neg_inv_word(m[0]);
        let r = BigUint::one() << (64 * n);
        let one = pad(&(&r % modulus), n);
        let r2 = pad(&((&r * &r) % modulus), n);
        Some(MontgomeryRing { m, n0inv, r2, one })
    }

    /// Width of the fixed-size residue representation, in limbs.
    pub fn num_limbs(&self) -> usize {
        self.m.len()
    }

    /// The modulus as a [`BigUint`].
    pub fn modulus(&self) -> BigUint {
        BigUint::from_limbs(self.m.clone())
    }

    /// Converts `a` (must already be reduced mod `m`) to Montgomery form.
    pub fn to_mont(&self, a: &BigUint) -> Vec<u64> {
        debug_assert!(limbs::cmp(a.limbs(), &self.m) == Ordering::Less);
        self.mont_mul(&pad(a, self.m.len()), &self.r2)
    }

    /// Converts a Montgomery-form residue back to an ordinary integer.
    pub fn from_mont(&self, a: &[u64]) -> BigUint {
        let mut unit = vec![0u64; self.m.len()];
        unit[0] = 1;
        BigUint::from_limbs(self.mont_mul(a, &unit))
    }

    /// `1` in Montgomery form (`R mod m`).
    pub fn mont_one(&self) -> &[u64] {
        &self.one
    }

    /// Montgomery product `a * b * R^{-1} mod m` as a fresh vector.
    pub fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.m.len()];
        self.mul_into(a, b, &mut out);
        out
    }

    /// Montgomery square `a * a * R^{-1} mod m` as a fresh vector (the
    /// dedicated squaring kernel at a fixed width, the multiply otherwise).
    pub fn mont_sqr(&self, a: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.m.len()];
        self.sqr_into(a, &mut out);
        out
    }

    /// [`MontgomeryRing::mont_mul`] through the dynamic-width kernel
    /// whatever the modulus width — the reference the fixed-width kernels
    /// are differentially tested against.
    pub fn mont_mul_dynamic(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.m.len()];
        kernels::mul(a, b, &self.m, self.n0inv, &mut out);
        out
    }

    /// Writes the Montgomery product of `a` and `b` into `out`; all three
    /// are `n` limbs.
    fn mul_into(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        let (m, n0inv) = (&self.m[..], self.n0inv);
        match m.len() {
            3 => kernels::mul_fixed::<3>(fixed(a), fixed(b), fixed(m), n0inv, fixed_mut(out)),
            8 => kernels::mul_fixed::<8>(fixed(a), fixed(b), fixed(m), n0inv, fixed_mut(out)),
            16 => kernels::mul_fixed::<16>(fixed(a), fixed(b), fixed(m), n0inv, fixed_mut(out)),
            _ => kernels::mul(a, b, m, n0inv, out),
        }
    }

    /// Writes the Montgomery square of `a` into `out`.
    fn sqr_into(&self, a: &[u64], out: &mut [u64]) {
        let (m, n0inv) = (&self.m[..], self.n0inv);
        match m.len() {
            3 => kernels::sqr_fixed::<3>(fixed(a), fixed(m), n0inv, fixed_mut(out)),
            8 => kernels::sqr_fixed::<8>(fixed(a), fixed(m), n0inv, fixed_mut(out)),
            16 => kernels::sqr_fixed::<16>(fixed(a), fixed(m), n0inv, fixed_mut(out)),
            _ => kernels::mul(a, a, m, n0inv, out),
        }
    }

    /// `table[dst] = table[a] * table[b]` on a flat table of `n`-limb
    /// Montgomery residues; `dst` must lie after both factors.
    fn mul_entries(&self, table: &mut [u64], dst: usize, a: usize, b: usize) {
        let n = self.m.len();
        let (done, rest) = table.split_at_mut(dst * n);
        self.mul_into(entry(done, a, n), entry(done, b, n), &mut rest[..n]);
    }

    /// Appends `base^1 .. base^count` (Montgomery form, `n` limbs each) to
    /// the flat `table`.
    fn push_powers(&self, table: &mut Vec<u64>, base: &[u64], count: usize) {
        let n = self.m.len();
        let start = table.len();
        table.extend_from_slice(base);
        table.resize(start + count * n, 0);
        for j in 1..count {
            self.mul_entries(&mut table[start..], j, j - 1, 0);
        }
    }

    /// `(a * b) mod m` on ordinary integers (both must be reduced).
    ///
    /// Costs three Montgomery multiplications (two conversions plus the
    /// product), so it only pays off inside exponentiations; exposed for
    /// differential testing against [`crate::ModRing::mul`].
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.from_mont(&self.mont_mul(&self.to_mont(a), &self.to_mont(b)))
    }

    /// Widest modulus, in limbs, [`MontgomeryRing::inv`] handles: the
    /// binary algorithm's bit-at-a-time rounds lose to Euclid's divisions
    /// beyond it.
    pub(crate) const INV_MAX_LIMBS: usize = 4;

    /// `a⁻¹ mod m` on ordinary integers by the fixed-width binary extended
    /// Euclidean algorithm, `None` when `gcd(a, m) ≠ 1`. `a` must already
    /// be reduced, and the modulus at most
    /// [`MontgomeryRing::INV_MAX_LIMBS`] wide.
    pub(crate) fn inv(&self, a: &BigUint) -> Option<BigUint> {
        fn run<const N: usize>(ring: &MontgomeryRing, a: &BigUint) -> Option<BigUint> {
            let a: [u64; N] = pad(a, N).try_into().expect("padded to N limbs");
            kernels::inv_fixed(&a, fixed(&ring.m), ring.n0inv).map(|x| BigUint::from_limbs(x.to_vec()))
        }
        if a.is_zero() {
            return None;
        }
        match self.m.len() {
            1 => run::<1>(self, a),
            2 => run::<2>(self, a),
            3 => run::<3>(self, a),
            4 => run::<4>(self, a),
            n => panic!("fixed-width inverse of a {n}-limb modulus"),
        }
    }

    /// `base^exp mod m` by fixed-window exponentiation in Montgomery form.
    ///
    /// `base` must already be reduced mod `m`. `0^0 = 1`.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let ebits = exp.bits();
        let n = self.m.len();
        let k = window_size(ebits);
        // table[(j - 1) * n ..] = base^j in Montgomery form, j = 1 .. 2^k - 1.
        let mut table = Vec::new();
        self.push_powers(&mut table, &self.to_mont(base), (1usize << k) - 1);
        let mut acc = Chain::new(self);
        for i in (0..ebits.div_ceil(k)).rev() {
            acc.sqr_times(k);
            let d = exp_digit(exp, i, k);
            if d != 0 {
                acc.mul(entry(&table, d - 1, n));
            }
        }
        acc.finish()
    }

    /// `base^e mod m` for every `e` in `exps` over one shared squaring
    /// chain (Yao's right-to-left 2⁴-ary method): the powers
    /// `base^(16^i)` are computed once, each exponent drops the current
    /// power into the bucket of its `i`-th digit, and a suffix sweep per
    /// exponent turns its buckets into `∏ bucket_d^d`. Each 160-bit
    /// exponent adds ≈52 products to the 156 squarings they share: two
    /// cost ≈260 and three ≈312, against ≈214 for every
    /// [`MontgomeryRing::pow`] chain of its own.
    ///
    /// `base` must already be reduced mod `m`. `0^0 = 1`.
    pub fn pow_each(&self, base: &BigUint, exps: &[&BigUint]) -> Vec<BigUint> {
        const K: usize = 4;
        const SPAN: usize = (1 << K) - 1;
        let n = self.m.len();
        // buckets[(s * SPAN + d - 1) * n ..] = ∏ base^(16^i) over the digit
        // positions i where exponent s has digit d; bit d of filled[s]
        // says whether that bucket holds anything yet.
        let mut buckets = vec![0u64; exps.len() * SPAN * n];
        let mut filled = vec![0u32; exps.len()];
        let mut power = Chain::new(self);
        power.mul(&self.to_mont(base));
        let mut tmp = vec![0u64; n];
        let bits = exps.iter().map(|e| e.bits()).max().unwrap_or(0);
        for i in 0..bits.div_ceil(K) {
            if i > 0 {
                power.sqr_times(K);
            }
            for (s, e) in exps.iter().enumerate() {
                let d = exp_digit(e, i, K);
                if d == 0 {
                    continue;
                }
                let bucket = &mut buckets[(s * SPAN + d - 1) * n..][..n];
                if filled[s] & 1 << d == 0 {
                    bucket.copy_from_slice(&power.cur);
                    filled[s] |= 1 << d;
                } else {
                    self.mul_into(bucket, &power.cur, &mut tmp);
                    bucket.copy_from_slice(&tmp);
                }
            }
        }
        // Suffix sweep: after visiting buckets d.. the running product
        // holds ∏_{j ≥ d} bucket_j, and folding it into the total once per
        // step contributes bucket_j exactly j times.
        let sweep = |s: usize| {
            let mut running = Chain::new(self);
            let mut total = Chain::new(self);
            for d in (1..=SPAN).rev() {
                if filled[s] & 1 << d != 0 {
                    running.mul(entry(&buckets, s * SPAN + d - 1, n));
                }
                if running.started {
                    total.mul(&running.cur);
                }
            }
            total.finish()
        };
        (0..exps.len()).map(sweep).collect()
    }

    /// Simultaneous `g1^e1 * g2^e2 mod m` with interleaved 2-bit windows:
    /// one shared squaring chain and a 16-entry table of joint products.
    ///
    /// Both bases must already be reduced mod `m`.
    pub fn pow2(&self, g1: &BigUint, e1: &BigUint, g2: &BigUint, e2: &BigUint) -> BigUint {
        let n = self.m.len();
        // joint[(i + 4*j) * n ..] = g1^i * g2^j in Montgomery form (i, j in 0..4).
        let mut joint = vec![0u64; 16 * n];
        joint[..n].copy_from_slice(&self.one);
        joint[n..2 * n].copy_from_slice(&self.to_mont(g1));
        joint[4 * n..5 * n].copy_from_slice(&self.to_mont(g2));
        for i in 2..4 {
            self.mul_entries(&mut joint, i, i - 1, 1);
        }
        for j in 1..4 {
            if j > 1 {
                self.mul_entries(&mut joint, 4 * j, 4 * (j - 1), 4);
            }
            for i in 1..4 {
                self.mul_entries(&mut joint, 4 * j + i, i, 4 * j);
            }
        }
        let mut acc = Chain::new(self);
        for i in (0..e1.bits().max(e2.bits()).div_ceil(2)).rev() {
            acc.sqr_times(2);
            let d = exp_digit(e1, i, 2) + 4 * exp_digit(e2, i, 2);
            if d != 0 {
                acc.mul(entry(&joint, d, n));
            }
        }
        acc.finish()
    }
}

/// A running Montgomery-form product: `1` until the first factor arrives
/// (so leading squarings and the first multiplication are free), then
/// `cur`, with `tmp` receiving each kernel result before the swap.
struct Chain<'r> {
    ring: &'r MontgomeryRing,
    cur: Vec<u64>,
    tmp: Vec<u64>,
    started: bool,
}

impl<'r> Chain<'r> {
    fn new(ring: &'r MontgomeryRing) -> Self {
        let n = ring.m.len();
        Chain { ring, cur: vec![0u64; n], tmp: vec![0u64; n], started: false }
    }

    fn mul(&mut self, b: &[u64]) {
        if self.started {
            self.ring.mul_into(&self.cur, b, &mut self.tmp);
            std::mem::swap(&mut self.cur, &mut self.tmp);
        } else {
            self.cur.copy_from_slice(b);
            self.started = true;
        }
    }

    /// Squares the product `times` times.
    fn sqr_times(&mut self, times: usize) {
        if self.started {
            for _ in 0..times {
                self.ring.sqr_into(&self.cur, &mut self.tmp);
                std::mem::swap(&mut self.cur, &mut self.tmp);
            }
        }
    }

    /// The product as an ordinary integer.
    fn finish(self) -> BigUint {
        if self.started {
            self.ring.from_mont(&self.cur)
        } else {
            BigUint::one() % &self.ring.modulus()
        }
    }
}

/// Fixed-window width for an exponent of `bits` bits, balancing the
/// `2^k - 2` table-build multiplications against the `bits/k` saved ones.
fn window_size(bits: usize) -> usize {
    if bits >= 512 {
        5
    } else if bits >= 128 {
        4
    } else if bits >= 24 {
        3
    } else {
        1
    }
}

/// `-m0⁻¹ mod 2^64` for odd `m0`, by Newton–Hensel inversion: each step
/// doubles the number of correct low bits, and `x = m0` seeds 3 of them.
pub(crate) fn neg_inv_word(m0: u64) -> u64 {
    let mut inv = m0;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
    }
    debug_assert_eq!(m0.wrapping_mul(inv), 1);
    inv.wrapping_neg()
}

/// The `i`-th `k`-bit digit of `e` (little-endian digit order), `k ≤ 8`.
pub(crate) fn exp_digit(e: &BigUint, i: usize, k: usize) -> usize {
    let limbs = e.limbs();
    let (limb, shift) = (i * k / 64, i * k % 64);
    let mut d = limbs.get(limb).map_or(0, |l| l >> shift);
    if shift + k > 64 {
        // The digit straddles a limb boundary (only when k ∤ 64).
        d |= limbs.get(limb + 1).map_or(0, |l| l << (64 - shift));
    }
    (d & ((1 << k) - 1)) as usize
}

/// Entry `i` of a flat table of `n`-limb residues.
fn entry(table: &[u64], i: usize, n: usize) -> &[u64] {
    &table[i * n..][..n]
}

/// Fixed-width copy of `x` padded to `n` limbs.
fn pad(x: &BigUint, n: usize) -> Vec<u64> {
    let mut v = x.limbs().to_vec();
    debug_assert!(v.len() <= n);
    v.resize(n, 0);
    v
}

/// A Lim–Lee comb over one fixed base `g`.
///
/// The exponent is cut into [`FixedBaseTable::ROWS`] rows of `a = v·b`
/// bits and every row into `v` blocks of `b` bits. For block `j` and
/// every non-empty set `u` of rows the table holds
/// `∏_{i ∈ u} g^(2^(i·a + j·b))`, so one entry carries one bit of each
/// row at once: `g^e` is `b − 1` squarings and at most `v·b = ⌈bits/8⌉`
/// multiplications — 29 products for a 160-bit exponent at `v = 2`, 24 at
/// `v = 4`, where a table of 4-bit digits with no squarings paid 40.
/// Memory is `v · 255` residues in one flat vector: 31.9 KiB at `v = 2`
/// and 63.8 KiB at `v = 4` over a 512-bit modulus, twice that over 1024
/// bits. Building costs one squaring chain over the whole exponent range
/// plus 247 multiplications per block (≈ 650 / ≈ 1 150 products).
///
/// The shape follows from how long the base lives and is picked by the
/// constructor: [`FixedBaseTable::for_generator`] spends the memory of
/// four blocks once per group, [`FixedBaseTable::for_key`] keeps the many
/// per-key tables at two.
///
/// Where many exponents of one base are wanted at once, the lane engine
/// walks them eight to a call through the same table in its own radix
/// ([`FixedBaseTable::lanes`], built on first use: 80 KiB at `v = 4`,
/// 40 KiB at `v = 2`, whatever the modulus up to the engine's 518 bits).
#[derive(Debug, Clone)]
pub struct FixedBaseTable {
    /// Blocks per row (`v`).
    pub(crate) blocks: usize,
    /// Bits per block (`b`).
    pub(crate) block_bits: usize,
    /// `table[(j * SPAN + u - 1) * n ..] = ∏_{i ∈ u} g^(2^(i·a + j·b))` in
    /// Montgomery form, `n` limbs per entry; bit `i` of `u` selects row `i`.
    table: Vec<u64>,
    /// The table as the lane engine reads it.
    #[cfg(target_arch = "x86_64")]
    lanes: std::sync::OnceLock<LaneComb>,
}

impl FixedBaseTable {
    /// Rows of the comb (`h`): bits of the exponent one table entry covers.
    pub const ROWS: usize = 8;

    /// Entries per block: the non-empty subsets of the rows.
    const SPAN: usize = (1 << Self::ROWS) - 1;

    /// The table for a base that lives as long as its group (the
    /// generator): four blocks, covering exponents up to `max_bits` bits.
    ///
    /// `base` must already be reduced mod the ring's modulus.
    pub fn for_generator(ring: &MontgomeryRing, base: &BigUint, max_bits: usize) -> Self {
        Self::build(ring, base, max_bits, 4)
    }

    /// The table for a base that lives as long as one key: two blocks,
    /// covering exponents up to `max_bits` bits.
    ///
    /// `base` must already be reduced mod the ring's modulus.
    pub fn for_key(ring: &MontgomeryRing, base: &BigUint, max_bits: usize) -> Self {
        Self::build(ring, base, max_bits, 2)
    }

    fn build(ring: &MontgomeryRing, base: &BigUint, max_bits: usize, blocks: usize) -> Self {
        let n = ring.num_limbs();
        let block_bits = max_bits.div_ceil(Self::ROWS).div_ceil(blocks).max(1);
        let mut table = vec![0u64; blocks * Self::SPAN * n];
        // Row i of block j is g^(2^((i·v + j)·b)): one squaring chain
        // visits them in that order, b squarings apart.
        let mut cur = Chain::new(ring);
        cur.mul(&ring.to_mont(base));
        for step in 0..Self::ROWS * blocks {
            if step > 0 {
                cur.sqr_times(block_bits);
            }
            let (i, j) = (step / blocks, step % blocks);
            table[(j * Self::SPAN + (1 << i) - 1) * n..][..n].copy_from_slice(&cur.cur);
        }
        // Every other set of rows is its lowest row times the rest.
        for block in table.chunks_exact_mut(Self::SPAN * n) {
            for u in (1..=Self::SPAN).filter(|u| !u.is_power_of_two()) {
                let lowest = 1 << u.trailing_zeros();
                ring.mul_entries(block, u - 1, (u ^ lowest) - 1, lowest - 1);
            }
        }
        FixedBaseTable {
            blocks,
            block_bits,
            table,
            #[cfg(target_arch = "x86_64")]
            lanes: std::sync::OnceLock::new(),
        }
    }

    /// Largest exponent bit-length this table covers.
    pub fn max_bits(&self) -> usize {
        Self::ROWS * self.blocks * self.block_bits
    }

    /// Every entry as stored — in `ring`'s Montgomery form — block by block
    /// and, within a block, by the set of rows `u = 1 ..= 255` it stands
    /// for.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn entries(&self, ring: &MontgomeryRing) -> impl Iterator<Item = BigUint> + '_ {
        self.table.chunks_exact(ring.num_limbs()).map(|entry| BigUint::from_limbs(entry.to_vec()))
    }

    /// This table as the lane engine reads it, built on first use; `ring`
    /// and `mont` are the lane and scalar contexts of the modulus the
    /// table was built over.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn lanes(&self, ring: &LaneRing, mont: &MontgomeryRing) -> &LaneComb {
        self.lanes.get_or_init(|| LaneComb::new(ring, mont, self))
    }

    /// `base^e mod m`, or `None` when `e` is too large for the table
    /// (callers fall back to a generic exponentiation).
    pub fn pow(&self, ring: &MontgomeryRing, e: &BigUint) -> Option<BigUint> {
        if e.bits() > self.max_bits() {
            return None;
        }
        let n = ring.num_limbs();
        let row_bits = self.blocks * self.block_bits;
        let mut acc = Chain::new(ring);
        for k in (0..self.block_bits).rev() {
            acc.sqr_times(1);
            for j in 0..self.blocks {
                let column = j * self.block_bits + k;
                let u =
                    (0..Self::ROWS).fold(0, |u, i| u | usize::from(e.bit(i * row_bits + column)) << i);
                if u != 0 {
                    acc.mul(entry(&self.table, j * Self::SPAN + u - 1, n));
                }
            }
        }
        Some(acc.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModRing;
    use rand::Rng;

    fn odd_modulus(rng: &mut impl Rng, bits: usize) -> BigUint {
        loop {
            let m = BigUint::random_bits(rng, bits);
            if m.is_odd() && m.bits() >= 2 {
                return m;
            }
        }
    }

    #[test]
    fn round_trip_through_montgomery_form() {
        let mut rng = crate::test_rng(0xA0);
        for bits in [3usize, 64, 65, 192, 1024] {
            let m = odd_modulus(&mut rng, bits);
            let ring = MontgomeryRing::new(&m).unwrap();
            for _ in 0..10 {
                let a = BigUint::random_below(&mut rng, &m);
                assert_eq!(ring.from_mont(&ring.to_mont(&a)), a);
            }
        }
    }

    #[test]
    fn rejects_even_moduli() {
        assert!(MontgomeryRing::new(&BigUint::from(10u64)).is_none());
        assert!(MontgomeryRing::new(&BigUint::from(2u64)).is_none());
        assert!(MontgomeryRing::new(&BigUint::one()).is_none());
    }

    #[test]
    fn smallest_modulus_works() {
        let ring = MontgomeryRing::new(&BigUint::from(3u64)).unwrap();
        assert_eq!(ring.pow(&BigUint::from(2u64), &BigUint::from(5u64)).to_u64(), Some(2));
        assert_eq!(ring.mul(&BigUint::from(2u64), &BigUint::from(2u64)).to_u64(), Some(1));
    }

    #[test]
    fn mul_matches_plain_reduction() {
        let mut rng = crate::test_rng(0xA1);
        for bits in [64usize, 120, 512] {
            let m = odd_modulus(&mut rng, bits);
            let ring = MontgomeryRing::new(&m).unwrap();
            for _ in 0..20 {
                let a = BigUint::random_below(&mut rng, &m);
                let b = BigUint::random_below(&mut rng, &m);
                assert_eq!(ring.mul(&a, &b), (&a * &b) % &m);
            }
        }
    }

    #[test]
    fn fixed_base_table_matches_pow() {
        let mut rng = crate::test_rng(0xA2);
        let m = odd_modulus(&mut rng, 384);
        let mring = ModRing::new(m.clone());
        let mont = mring.montgomery().unwrap();
        let g = BigUint::random_below(&mut rng, &m);
        for table in
            [FixedBaseTable::for_generator(mont, &g, 160), FixedBaseTable::for_key(mont, &g, 160)]
        {
            for _ in 0..10 {
                let e = BigUint::random_bits(&mut rng, 160);
                assert_eq!(table.pow(mont, &e).unwrap(), mring.pow(&g, &e));
            }
            assert!(table.pow(mont, &e_too_big()).is_none());
            assert!(table.pow(mont, &BigUint::zero()).unwrap().is_one());
        }
    }

    fn e_too_big() -> BigUint {
        BigUint::one() << 200
    }
}
