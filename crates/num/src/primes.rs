//! Primality testing and generation of primes and DSA/Schnorr-group
//! parameters.
//!
//! WhoPay's cryptography runs over Schnorr groups: the unique subgroup of
//! order `q` (prime) of `Z_p*` where `p = kq + 1` is prime. The paper's
//! microbenchmarks (Table 2) use DSA with a 1024-bit `p` and 160-bit `q`;
//! [`SchnorrGroup::generate`] produces parameters of any such shape.

use std::sync::{Arc, OnceLock};

use rand::Rng;

#[cfg(target_arch = "x86_64")]
use crate::lanes::LaneRing;
use crate::montgomery::FixedBaseTable;
use crate::{BigUint, ModRing, Powers};

/// Small primes used for fast trial-division screening of candidates.
const SMALL_PRIMES: [u64; 46] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197,
    199,
];

/// Number of Miller–Rabin rounds; 2^-128 error bound for random candidates.
const MILLER_RABIN_ROUNDS: usize = 40;

/// Probabilistic primality test (trial division + Miller–Rabin).
///
/// Returns `false` for 0 and 1. The error probability for composite inputs
/// is at most `4^-rounds` with the default of 40 rounds.
///
/// # Examples
///
/// ```
/// use whopay_num::{primes, BigUint};
///
/// assert!(primes::is_probable_prime(&BigUint::from(104729u64), &mut rand::rng()));
/// assert!(!primes::is_probable_prime(&BigUint::from(104730u64), &mut rand::rng()));
/// ```
pub fn is_probable_prime<R: Rng + ?Sized>(n: &BigUint, rng: &mut R) -> bool {
    let two = BigUint::from(2u64);
    if n < &two {
        return false;
    }
    for &p in &SMALL_PRIMES {
        let p = BigUint::from(p);
        if *n == p {
            return true;
        }
        if (n % &p).is_zero() {
            return false;
        }
    }
    miller_rabin(n, MILLER_RABIN_ROUNDS, rng)
}

/// Raw Miller–Rabin with `rounds` random bases. Assumes `n` is odd and has
/// already survived trial division.
fn miller_rabin<R: Rng + ?Sized>(n: &BigUint, rounds: usize, rng: &mut R) -> bool {
    let one = BigUint::one();
    let n_minus_1 = n - &one;
    // Write n-1 = d * 2^s with d odd.
    let s = trailing_zeros(&n_minus_1);
    let d = &n_minus_1 >> s;
    let ring = ModRing::new(n.clone());
    let two = BigUint::from(2u64);
    let bound = n - &two; // bases in [2, n-2]

    'witness: for _ in 0..rounds {
        let a = BigUint::random_range(rng, &two, &bound);
        let mut x = ring.pow(&a, &d);
        if x.is_one() || x == n_minus_1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = ring.sqr(&x);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Number of trailing zero bits (`n` must be nonzero).
fn trailing_zeros(n: &BigUint) -> usize {
    debug_assert!(!n.is_zero());
    let limbs = n.limbs();
    let mut zeros = 0;
    for &limb in limbs {
        if limb == 0 {
            zeros += 64;
        } else {
            return zeros + limb.trailing_zeros() as usize;
        }
    }
    zeros
}

/// Generates a random probable prime with exactly `bits` bits.
///
/// # Panics
///
/// Panics if `bits < 2`.
pub fn gen_prime<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> BigUint {
    assert!(bits >= 2, "need at least 2 bits for a prime");
    loop {
        let mut candidate = BigUint::random_bits(rng, bits);
        if candidate.is_even() {
            candidate += &BigUint::one();
            if candidate.bits() != bits {
                continue; // overflowed to bits+1 (candidate was all ones)
            }
        }
        if is_probable_prime(&candidate, rng) {
            return candidate;
        }
    }
}

/// A Schnorr group: the order-`q` subgroup of `Z_p*`.
///
/// `p` and `q` are prime with `q | p - 1`, and `g` generates the subgroup
/// of order `q`. This is the algebraic setting for DSA, Schnorr signatures,
/// ElGamal, and the WhoPay group-signature scheme.
///
/// # Examples
///
/// ```
/// use whopay_num::primes::SchnorrGroup;
///
/// let group = SchnorrGroup::generate(256, 160, &mut rand::rng());
/// assert!(group.is_element(group.generator()));
/// ```
#[derive(Debug, Clone)]
pub struct SchnorrGroup {
    p: BigUint,
    q: BigUint,
    g: BigUint,
    /// Lazily built, shared across clones: the element/scalar rings (with
    /// their Montgomery contexts) and the fixed-base table for `g`.
    cache: Arc<GroupCache>,
}

/// Per-group lazy caches. Clones of a [`SchnorrGroup`] share one instance,
/// so the generator table is built at most once per set of parameters.
#[derive(Debug, Default)]
struct GroupCache {
    elem_ring: OnceLock<ModRing>,
    scalar_ring: OnceLock<ModRing>,
    g_table: OnceLock<FixedBaseTable>,
    /// The lane engine's context, `None` where it cannot run.
    #[cfg(target_arch = "x86_64")]
    lanes: OnceLock<Option<LaneRing>>,
}

impl PartialEq for SchnorrGroup {
    fn eq(&self, other: &Self) -> bool {
        // Caches are derived state; identity is (p, q, g).
        self.p == other.p && self.q == other.q && self.g == other.g
    }
}

impl Eq for SchnorrGroup {}

impl SchnorrGroup {
    /// Internal constructor attaching an empty cache.
    fn from_validated(p: BigUint, q: BigUint, g: BigUint) -> Self {
        SchnorrGroup { p, q, g, cache: Arc::new(GroupCache::default()) }
    }
    /// Generates fresh parameters with a `p_bits`-bit modulus and a
    /// `q_bits`-bit subgroup order (e.g. 1024/160 for classic DSA).
    ///
    /// # Panics
    ///
    /// Panics if `q_bits + 2 > p_bits` or `q_bits < 2`.
    pub fn generate<R: Rng + ?Sized>(p_bits: usize, q_bits: usize, rng: &mut R) -> Self {
        assert!(q_bits >= 2 && q_bits + 2 <= p_bits, "invalid parameter sizes");
        let one = BigUint::one();
        let q = gen_prime(q_bits, rng);
        loop {
            // Pick p = q * m + 1 with the right bit length, m even so p is odd.
            let m_bits = p_bits - q_bits;
            let m = BigUint::random_bits(rng, m_bits);
            let m = if m.is_odd() { &m + &one } else { m };
            let p = &q * &m + &one;
            if p.bits() != p_bits || !is_probable_prime(&p, rng) {
                continue;
            }
            // Find a generator of the order-q subgroup: h^((p-1)/q) != 1.
            let ring = ModRing::new(p.clone());
            let exp = (&p - &one) / &q;
            let h_bound = &p - &one;
            let two = BigUint::from(2u64);
            loop {
                let h = BigUint::random_range(rng, &two, &h_bound);
                let g = ring.pow(&h, &exp);
                if !g.is_one() {
                    debug_assert!(ring.pow(&g, &q).is_one());
                    return SchnorrGroup::from_validated(p, q, g);
                }
            }
        }
    }

    /// Constructs a group from existing parameters, validating the algebra.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated property if `p`/`q` are not
    /// prime, `q` does not divide `p - 1`, or `g` does not generate an
    /// order-`q` subgroup.
    pub fn from_parts<R: Rng + ?Sized>(
        p: BigUint,
        q: BigUint,
        g: BigUint,
        rng: &mut R,
    ) -> Result<Self, &'static str> {
        if !is_probable_prime(&p, rng) {
            return Err("p is not prime");
        }
        if !is_probable_prime(&q, rng) {
            return Err("q is not prime");
        }
        let one = BigUint::one();
        if !((&p - &one) % &q).is_zero() {
            return Err("q does not divide p - 1");
        }
        let ring = ModRing::new(p.clone());
        if g <= one || g >= p || !ring.pow(&g, &q).is_one() || g.is_one() {
            return Err("g does not generate an order-q subgroup");
        }
        Ok(SchnorrGroup::from_validated(p, q, g))
    }

    /// The prime modulus `p`.
    pub fn modulus(&self) -> &BigUint {
        &self.p
    }

    /// The prime subgroup order `q`.
    pub fn order(&self) -> &BigUint {
        &self.q
    }

    /// The subgroup generator `g`.
    pub fn generator(&self) -> &BigUint {
        &self.g
    }

    /// Ring of integers mod `p` (group element arithmetic), built once
    /// per group and shared across clones.
    pub fn elem_ring(&self) -> &ModRing {
        self.cache.elem_ring.get_or_init(|| ModRing::new(self.p.clone()))
    }

    /// Ring of integers mod `q` (exponent arithmetic), built once per
    /// group and shared across clones.
    pub fn scalar_ring(&self) -> &ModRing {
        self.cache.scalar_ring.get_or_init(|| ModRing::new(self.q.clone()))
    }

    /// `g^e mod p`.
    ///
    /// Scalars up to `q`'s bit length hit a lazily built fixed-base comb
    /// (one multiplication per eight exponent bits and a few squarings);
    /// larger exponents fall back to generic windowed exponentiation.
    pub fn pow_g(&self, e: &BigUint) -> BigUint {
        match self.g_table() {
            Some(table) => self.pow_table(table, &self.g, e),
            None => self.elem_ring().pow(&self.g, e),
        }
    }

    /// [`SchnorrGroup::pow_g`] of every `e` in `exps`, index-aligned,
    /// through [`SchnorrGroup::pow_table_many`]: the exponents the
    /// generator's comb covers go eight to a lane call where the host has
    /// the engine.
    pub fn pow_g_many(&self, exps: &[&BigUint]) -> Vec<BigUint> {
        match self.g_table() {
            Some(table) => self.pow_table_many(table, &self.g, exps),
            None => exps.iter().map(|e| self.pow_g(e)).collect(),
        }
    }

    /// The generator's four-block comb, built on first use and shared
    /// across clones; `None` where the modulus has no Montgomery form.
    fn g_table(&self) -> Option<&FixedBaseTable> {
        let mont = self.elem_ring().montgomery()?;
        Some(
            self.cache
                .g_table
                .get_or_init(|| FixedBaseTable::for_generator(mont, &self.g, self.q.bits())),
        )
    }

    /// `base^e mod p` off `table`, the comb of `base` over this group's
    /// modulus, or by windowed exponentiation where `e` is too wide for
    /// it.
    fn pow_table(&self, table: &FixedBaseTable, base: &BigUint, e: &BigUint) -> BigUint {
        let ring = self.elem_ring();
        let mont = ring.montgomery().expect("a comb table is built over a Montgomery ring");
        table.pow(mont, e).unwrap_or_else(|| ring.pow(base, e))
    }

    /// `base^e mod p` for every `e` in `exps`, index-aligned, `table` the
    /// comb of `base` over this group's modulus. The exponents the table
    /// covers are spread the way [`SchnorrGroup::lane_plan`] spreads
    /// chains — eight to a call of the lane engine's comb
    /// ([`SchnorrGroup::pow_table_lanes`]), a last call only if it carries
    /// [`SchnorrGroup::LANE_MIN`] — and every other exponent, and all of
    /// them on a host without the engine, goes through
    /// [`FixedBaseTable::pow`] alone (windowed exponentiation where it is
    /// too wide for the table). Each power is exactly what that gives.
    pub fn pow_table_many(
        &self,
        table: &FixedBaseTable,
        base: &BigUint,
        exps: &[&BigUint],
    ) -> Vec<BigUint> {
        let mut out = vec![None; exps.len()];
        #[cfg(target_arch = "x86_64")]
        {
            let fits: Vec<usize> =
                (0..exps.len()).filter(|&i| exps[i].bits() <= table.max_bits()).collect();
            let (_, in_lanes) = self.lane_plan(fits.len());
            if in_lanes > 0 {
                let ring = self.lane_ring().expect("the plan put exponents in lanes");
                let lanes = &fits[..in_lanes];
                let picked: Vec<&BigUint> = lanes.iter().map(|&i| exps[i]).collect();
                for (&i, power) in lanes.iter().zip(self.pow_table_lanes(ring, table, base, &picked)) {
                    out[i] = Some(power);
                }
            }
        }
        let done = exps.iter().zip(out);
        done.map(|(e, power)| power.unwrap_or_else(|| self.pow_table(table, base, e))).collect()
    }

    /// [`SchnorrGroup::pow_table_many`] with every exponent the table
    /// covers in a lane of `ring`, however few there are, and only the
    /// wider ones walked alone: the comb's other engine, and the surface
    /// the differential suite enters it through.
    #[cfg(target_arch = "x86_64")]
    pub fn pow_table_lanes(
        &self,
        ring: &LaneRing,
        table: &FixedBaseTable,
        base: &BigUint,
        exps: &[&BigUint],
    ) -> Vec<BigUint> {
        let mont = self.elem_ring().montgomery().expect("a comb table is built over a Montgomery ring");
        let fits: Vec<usize> =
            (0..exps.len()).filter(|&i| exps[i].bits() <= table.max_bits()).collect();
        let picked: Vec<&BigUint> = fits.iter().map(|&i| exps[i]).collect();
        let mut out = vec![None; exps.len()];
        for (&i, power) in fits.iter().zip(ring.pow_comb(table.lanes(ring, mont), &picked)) {
            out[i] = Some(power);
        }
        let done = exps.iter().zip(out);
        done.map(|(e, power)| power.unwrap_or_else(|| self.pow_table(table, base, e))).collect()
    }

    /// Tests subgroup membership: `x in <g>` iff `x != 0` and `x^q = 1`.
    pub fn is_element(&self, x: &BigUint) -> bool {
        !x.is_zero() && x < &self.p && self.elem_ring().pow(x, &self.q).is_one()
    }

    /// `x^e mod p` for every `e` in `exps` iff `x` is a subgroup member
    /// (`0 < x < p` and `x^q = 1`), else `None`:
    /// [`SchnorrGroup::is_element`] and the powers a verifier wants from
    /// the same untrusted element, over one shared squaring chain
    /// ([`ModRing::pow_each`], with `q` as one more exponent).
    pub fn pow_member_each(&self, x: &BigUint, exps: &[&BigUint]) -> Option<Vec<BigUint>> {
        if x.is_zero() || x >= &self.p {
            return None;
        }
        let with_q: Vec<&BigUint> = exps.iter().copied().chain([&self.q]).collect();
        let mut powers = self.elem_ring().pow_each(x, &with_q);
        powers.pop().is_some_and(|x_q| x_q.is_one()).then_some(powers)
    }

    /// `x^e mod p` iff `x` is a subgroup member:
    /// [`SchnorrGroup::pow_member_each`] for one exponent.
    pub fn pow_member(&self, x: &BigUint, e: &BigUint) -> Option<BigUint> {
        self.pow_member_each(x, &[e])?.pop()
    }

    /// [`SchnorrGroup::pow_member_each`] for every `(x, exps)` in `items`
    /// (no exponents: [`SchnorrGroup::is_element`]), index-aligned. The
    /// chains are independent and the same shape, so where the host and
    /// the modulus allow ([`SchnorrGroup::lane_ring`]) they walk eight to
    /// a lane call, as [`SchnorrGroup::lane_plan`] spreads them; every
    /// other chain is walked by `pow_member_each` itself. Each verdict and
    /// power is exactly what `pow_member_each` gives for that item alone.
    pub fn pow_member_many(&self, items: &[Powers<'_>]) -> Vec<Option<Vec<BigUint>>> {
        let (_, in_lanes) = self.lane_plan(items.len());
        // Most exponents first: a lane call costs what its busiest lane
        // does, and the chains left to walk alone are the cheapest.
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(items[i].1.len()));
        let (lanes, alone) = order.split_at(in_lanes);
        let mut out = vec![None; items.len()];
        #[cfg(target_arch = "x86_64")]
        if !lanes.is_empty() {
            let ring = self.lane_ring().expect("the plan put chains in lanes");
            let picked: Vec<Powers<'_>> = lanes.iter().map(|&i| items[i]).collect();
            for (&i, powers) in lanes.iter().zip(self.pow_member_lanes(ring, &picked)) {
                out[i] = powers;
            }
        }
        for &i in alone {
            out[i] = self.pow_member_each(items[i].0, items[i].1);
        }
        out
    }

    /// Chains a lane call must carry before it is made: a call costs the
    /// same however many of its eight lanes are filled — about two lone
    /// chains on the host this was measured on (25.8 against 12.6 µs,
    /// p50 of 300, 512/160 group), and a lone chain run just after it
    /// slows by 2 % at most — so three chains are the first that one call
    /// walks for less than they cost alone (25.8 against 37.8 µs).
    /// `cargo run --release -p whopay-num --example lane_cost` prints
    /// these figures for the host it runs on (EXPERIMENTS.md, "PR 38").
    /// Comb powers are spread by the same rule.
    ///
    /// Three is what lets a lone request that owes three chains — a
    /// holder key and both halves of a group signature — walk them in one
    /// call. Two was tried when the slowdown after a lane call was 14 %,
    /// and dropped (EXPERIMENTS.md, "Lone requests in lanes, measured and
    /// dropped").
    pub const LANE_MIN: usize = 3;

    /// How [`SchnorrGroup::pow_member_many`] spreads `chains` chains (and
    /// [`SchnorrGroup::pow_table_many`] as many comb powers): the lane
    /// calls it makes and the chains that ride them — full calls of
    /// eight, and a last partial one if it carries
    /// [`SchnorrGroup::LANE_MIN`]. `(0, 0)` without a lane engine.
    pub fn lane_plan(&self, chains: usize) -> (usize, usize) {
        #[cfg(target_arch = "x86_64")]
        if chains >= Self::LANE_MIN && self.lane_ring().is_some() {
            let lanes = crate::lanes::LANES;
            let filled = if chains % lanes < Self::LANE_MIN { chains - chains % lanes } else { chains };
            return (filled.div_ceil(lanes), filled);
        }
        (0, 0)
    }

    /// The lane engine's context for this group's modulus, built on first
    /// use and shared across clones; `None` where the engine cannot run
    /// (see [`LaneRing::new`]).
    #[cfg(target_arch = "x86_64")]
    pub fn lane_ring(&self) -> Option<&LaneRing> {
        self.cache.lanes.get_or_init(|| LaneRing::new(&self.p)).as_ref()
    }

    /// [`SchnorrGroup::pow_member_many`] with every chain in a lane of
    /// `ring`, however few there are: one of its two engines, and the
    /// surface the differential suite enters it through.
    #[cfg(target_arch = "x86_64")]
    pub fn pow_member_lanes(&self, ring: &LaneRing, items: &[Powers<'_>]) -> Vec<Option<Vec<BigUint>>> {
        let units: Vec<usize> =
            (0..items.len()).filter(|&i| !items[i].0.is_zero() && items[i].0 < &self.p).collect();
        let picked: Vec<Powers<'_>> = units.iter().map(|&i| items[i]).collect();
        let mut out = vec![None; items.len()];
        for (&i, (x_q, powers)) in units.iter().zip(ring.pow_each(&self.q, &picked)) {
            out[i] = x_q.is_one().then_some(powers);
        }
        out
    }

    /// Samples a uniformly random exponent in `[1, q)` (a private scalar).
    pub fn random_scalar<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        BigUint::random_range(rng, &BigUint::one(), &self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes_recognized() {
        let mut rng = crate::test_rng(1);
        for p in [2u64, 3, 5, 7, 11, 13, 9973, 104_729] {
            assert!(is_probable_prime(&BigUint::from(p), &mut rng), "{p}");
        }
        for c in [0u64, 1, 4, 9, 15, 9975, 104_730, 561, 41041] {
            // 561 and 41041 are Carmichael numbers.
            assert!(!is_probable_prime(&BigUint::from(c), &mut rng), "{c}");
        }
    }

    #[test]
    fn gen_prime_has_requested_bits() {
        let mut rng = crate::test_rng(2);
        for bits in [8usize, 32, 64, 96] {
            let p = gen_prime(bits, &mut rng);
            assert_eq!(p.bits(), bits);
            assert!(is_probable_prime(&p, &mut rng));
        }
    }

    #[test]
    fn schnorr_group_algebra_holds() {
        let mut rng = crate::test_rng(3);
        let group = SchnorrGroup::generate(192, 96, &mut rng);
        let one = BigUint::one();
        assert!(((group.modulus() - &one) % group.order()).is_zero());
        assert!(group.is_element(group.generator()));
        assert!(!group.generator().is_one());
        // Generated elements stay in the subgroup.
        let x = group.random_scalar(&mut rng);
        let y = group.pow_g(&x);
        assert!(group.is_element(&y));
        // p itself (≡ 0) and 1 behave correctly.
        assert!(!group.is_element(&BigUint::zero()));
        assert!(group.is_element(&one)); // identity is in every subgroup
    }

    #[test]
    fn from_parts_rejects_bad_parameters() {
        let mut rng = crate::test_rng(4);
        let group = SchnorrGroup::generate(128, 64, &mut rng);
        let p = group.modulus().clone();
        let q = group.order().clone();
        let g = group.generator().clone();
        assert!(SchnorrGroup::from_parts(p.clone(), q.clone(), g.clone(), &mut rng).is_ok());
        assert!(SchnorrGroup::from_parts(&p + &BigUint::one(), q.clone(), g.clone(), &mut rng).is_err());
        assert!(SchnorrGroup::from_parts(p.clone(), &q + &BigUint::one(), g.clone(), &mut rng).is_err());
        assert!(SchnorrGroup::from_parts(p.clone(), q.clone(), BigUint::one(), &mut rng).is_err());
    }

    #[test]
    fn scalar_sampling_in_range() {
        let mut rng = crate::test_rng(5);
        let group = SchnorrGroup::generate(128, 64, &mut rng);
        for _ in 0..50 {
            let s = group.random_scalar(&mut rng);
            assert!(!s.is_zero() && &s < group.order());
        }
    }
}
