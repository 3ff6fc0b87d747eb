//! Modular arithmetic in `Z/mZ` via a reusable ring context.

use crate::montgomery::MontgomeryRing;
use crate::BigUint;

/// A modular-arithmetic context for a fixed modulus.
///
/// Construct one `ModRing` per modulus and reuse it: all operations reduce
/// their result into `[0, m)`. Inputs are reduced on entry, so callers may
/// pass unreduced values.
///
/// For odd moduli the ring carries a [`MontgomeryRing`] and routes the
/// `pow` family through Montgomery-form fixed-window exponentiation; even
/// moduli fall back to the division-based `*_naive` reference
/// implementations, which stay public as the differential-testing oracle.
///
/// # Examples
///
/// ```
/// use whopay_num::{BigUint, ModRing};
///
/// let ring = ModRing::new(BigUint::from(97u64));
/// let a = BigUint::from(95u64);
/// let b = BigUint::from(5u64);
/// assert_eq!(ring.add(&a, &b), BigUint::from(3u64));
/// assert_eq!(ring.pow(&b, &BigUint::from(96u64)), BigUint::from(1u64)); // Fermat
/// ```
#[derive(Debug, Clone)]
pub struct ModRing {
    modulus: BigUint,
    mont: Option<MontgomeryRing>,
}

impl PartialEq for ModRing {
    fn eq(&self, other: &Self) -> bool {
        // The Montgomery context is a pure function of the modulus.
        self.modulus == other.modulus
    }
}

impl Eq for ModRing {}

impl ModRing {
    /// Creates a ring modulo `modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero or one (the trivial rings are never what
    /// protocol code wants and almost always indicate a bug).
    pub fn new(modulus: BigUint) -> Self {
        assert!(modulus > BigUint::one(), "modulus must be at least 2");
        let mont = MontgomeryRing::new(&modulus);
        ModRing { modulus, mont }
    }

    /// The modulus `m`.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// The Montgomery fast-path context (`None` for even moduli).
    pub fn montgomery(&self) -> Option<&MontgomeryRing> {
        self.mont.as_ref()
    }

    /// Reduces `a` into `[0, m)`.
    pub fn reduce(&self, a: &BigUint) -> BigUint {
        if a < &self.modulus {
            a.clone()
        } else {
            a % &self.modulus
        }
    }

    /// `(a + b) mod m`.
    pub fn add(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let mut s = self.reduce(a) + self.reduce(b);
        if s >= self.modulus {
            s -= &self.modulus;
        }
        s
    }

    /// `(a - b) mod m`.
    pub fn sub(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let a = self.reduce(a);
        let b = self.reduce(b);
        if a >= b {
            a - b
        } else {
            a + &self.modulus - b
        }
    }

    /// `(-a) mod m`.
    pub fn neg(&self, a: &BigUint) -> BigUint {
        let a = self.reduce(a);
        if a.is_zero() {
            a
        } else {
            &self.modulus - &a
        }
    }

    /// `(a * b) mod m`.
    ///
    /// Reduction is by Knuth division; a naive (full-product) Barrett
    /// variant was benchmarked and measured ~20% *slower* at 1024 bits —
    /// it costs three schoolbook multiplications against division's
    /// effective two — so the simpler code stays.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        (self.reduce(a) * self.reduce(b)) % &self.modulus
    }

    /// `a² mod m`.
    pub fn sqr(&self, a: &BigUint) -> BigUint {
        let a = self.reduce(a);
        (&a * &a) % &self.modulus
    }

    /// `a^e mod m`.
    ///
    /// Odd moduli take the Montgomery fixed-window fast path; even moduli
    /// fall back to [`ModRing::pow_naive`]. `0^0` is defined as `1`,
    /// matching the usual convention.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        match &self.mont {
            Some(mont) => mont.pow(&self.reduce(base), exp),
            None => self.pow_naive(base, exp),
        }
    }

    /// `a^e mod m` by left-to-right binary exponentiation with division-
    /// based reduction — the reference implementation the Montgomery fast
    /// path is differentially tested against.
    pub fn pow_naive(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let base = self.reduce(base);
        if exp.is_zero() {
            return BigUint::one() % &self.modulus;
        }
        let mut acc = base.clone();
        for i in (0..exp.bits() - 1).rev() {
            acc = self.sqr(&acc);
            if exp.bit(i) {
                acc = self.mul(&acc, &base);
            }
        }
        acc
    }

    /// Simultaneous `g1^e1 * g2^e2 mod m`, roughly the cost of a single
    /// exponentiation. Heavily used by signature verification.
    ///
    /// Odd moduli use interleaved 2-bit-window Montgomery exponentiation;
    /// even moduli fall back to [`ModRing::pow2_naive`].
    pub fn pow2(&self, g1: &BigUint, e1: &BigUint, g2: &BigUint, e2: &BigUint) -> BigUint {
        match &self.mont {
            Some(mont) => mont.pow2(&self.reduce(g1), e1, &self.reduce(g2), e2),
            None => self.pow2_naive(g1, e1, g2, e2),
        }
    }

    /// Simultaneous `g1^e1 * g2^e2 mod m` by bit-at-a-time Shamir's trick —
    /// the reference implementation for differential tests.
    pub fn pow2_naive(&self, g1: &BigUint, e1: &BigUint, g2: &BigUint, e2: &BigUint) -> BigUint {
        let g1 = self.reduce(g1);
        let g2 = self.reduce(g2);
        let g12 = self.mul(&g1, &g2);
        let bits = e1.bits().max(e2.bits());
        let mut acc = BigUint::one() % &self.modulus;
        for i in (0..bits).rev() {
            acc = self.sqr(&acc);
            match (e1.bit(i), e2.bit(i)) {
                (true, true) => acc = self.mul(&acc, &g12),
                (true, false) => acc = self.mul(&acc, &g1),
                (false, true) => acc = self.mul(&acc, &g2),
                (false, false) => {}
            }
        }
        acc
    }

    /// `base^e mod m` for every `e` in `exps` — one base, one shared
    /// squaring chain ([`MontgomeryRing::pow_each`]); even moduli fall back
    /// to a [`ModRing::pow_naive`] call per exponent. The
    /// subgroup-membership test `x^q = 1` rides along with the powers a
    /// verifier needs anyway.
    pub fn pow_each(&self, base: &BigUint, exps: &[&BigUint]) -> Vec<BigUint> {
        match &self.mont {
            Some(mont) => mont.pow_each(&self.reduce(base), exps),
            None => exps.iter().map(|e| self.pow_naive(base, e)).collect(),
        }
    }

    /// Modular inverse: returns `x` with `a * x ≡ 1 (mod m)`, or `None` if
    /// `gcd(a, m) != 1`.
    ///
    /// Odd moduli of at most four limbs — the 160-bit scalar ring, where
    /// every DSA signature and verification spends an inversion — run the
    /// binary extended Euclidean algorithm on fixed-width limbs, with no
    /// allocation in the loop; everything else takes
    /// [`ModRing::inv_euclid`].
    pub fn inv(&self, a: &BigUint) -> Option<BigUint> {
        match &self.mont {
            Some(mont) if mont.num_limbs() <= MontgomeryRing::INV_MAX_LIMBS => {
                mont.inv(&self.reduce(a))
            }
            _ => self.inv_euclid(a),
        }
    }

    /// Inverts every `x` in `xs` with one ring inversion (Montgomery's
    /// trick: prefix products forward, one inverse, peeled off
    /// backwards), or `None` when any of them is not invertible. Each
    /// value after the first costs three multiplications.
    pub fn inv_each(&self, xs: &[&BigUint]) -> Option<Vec<BigUint>> {
        let Some((first, rest)) = xs.split_first() else {
            return Some(Vec::new());
        };
        // prefix[i] = x_0 · … · x_i.
        let mut prefix = Vec::with_capacity(xs.len());
        prefix.push(self.reduce(first));
        for x in rest {
            let next = self.mul(&prefix[prefix.len() - 1], x);
            prefix.push(next);
        }
        let mut inv = self.inv(&prefix[xs.len() - 1])?;
        let mut out = vec![BigUint::zero(); xs.len()];
        for i in (1..xs.len()).rev() {
            out[i] = self.mul(&inv, &prefix[i - 1]);
            inv = self.mul(&inv, xs[i]);
        }
        out[0] = inv;
        Some(out)
    }

    /// [`ModRing::inv`] by the extended Euclidean algorithm with a
    /// sign-tracked Bézout coefficient, whatever the modulus — the path of
    /// wide and even moduli, and the reference the fixed-width inverse is
    /// differentially tested against.
    pub fn inv_euclid(&self, a: &BigUint) -> Option<BigUint> {
        let a = self.reduce(a);
        if a.is_zero() {
            return None;
        }
        // Invariant: old_r = old_s * a (mod m), r = s * a (mod m),
        // with s coefficients tracked as (magnitude, negative?).
        let mut old_r = a;
        let mut r = self.modulus.clone();
        let mut old_s = (BigUint::one(), false);
        let mut s = (BigUint::zero(), false);
        while !r.is_zero() {
            let (q, rem) = old_r.div_rem(&r);
            old_r = std::mem::replace(&mut r, rem);
            // new_s = old_s - q * s  (signed arithmetic)
            let qs = &q * &s.0;
            let new_s = match (old_s.1, s.1) {
                // old_s - q*s where signs match: magnitude subtraction.
                (false, false) => {
                    if old_s.0 >= qs {
                        (&old_s.0 - &qs, false)
                    } else {
                        (&qs - &old_s.0, true)
                    }
                }
                (true, true) => {
                    if old_s.0 >= qs {
                        (&old_s.0 - &qs, true)
                    } else {
                        (&qs - &old_s.0, false)
                    }
                }
                // Opposite signs: magnitudes add.
                (false, true) => (&old_s.0 + &qs, false),
                (true, false) => (&old_s.0 + &qs, true),
            };
            old_s = std::mem::replace(&mut s, new_s);
        }
        if !old_r.is_one() {
            return None;
        }
        let (mag, neg) = old_s;
        let mag = mag % &self.modulus;
        Some(if neg && !mag.is_zero() { &self.modulus - &mag } else { mag })
    }

    /// Uniformly random ring element in `[0, m)`.
    pub fn random<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        BigUint::random_below(rng, &self.modulus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(m: u64) -> ModRing {
        ModRing::new(BigUint::from(m))
    }

    #[test]
    fn add_sub_wrap() {
        let r = ring(13);
        assert_eq!(r.add(&BigUint::from(9u64), &BigUint::from(9u64)).to_u64(), Some(5));
        assert_eq!(r.sub(&BigUint::from(3u64), &BigUint::from(9u64)).to_u64(), Some(7));
        assert_eq!(r.neg(&BigUint::from(3u64)).to_u64(), Some(10));
        assert_eq!(r.neg(&BigUint::zero()).to_u64(), Some(0));
    }

    #[test]
    fn reduces_unreduced_inputs() {
        let r = ring(13);
        assert_eq!(
            r.mul(&BigUint::from(100u64), &BigUint::from(100u64)).to_u64(),
            Some((100 * 100) % 13)
        );
    }

    #[test]
    fn pow_matches_naive() {
        let r = ring(1_000_003);
        let b = BigUint::from(7u64);
        let mut naive = 1u64;
        for e in 0..50u64 {
            assert_eq!(r.pow(&b, &BigUint::from(e)).to_u64(), Some(naive), "exponent {e}");
            naive = naive * 7 % 1_000_003;
        }
    }

    #[test]
    fn pow_zero_exponent_is_one() {
        let r = ring(97);
        assert!(r.pow(&BigUint::zero(), &BigUint::zero()).is_one());
    }

    #[test]
    fn pow2_matches_separate_pows() {
        let r = ring(1_000_003);
        let g1 = BigUint::from(5u64);
        let g2 = BigUint::from(11u64);
        let e1 = BigUint::from(123_456u64);
        let e2 = BigUint::from(654_321u64);
        let combined = r.pow2(&g1, &e1, &g2, &e2);
        let separate = r.mul(&r.pow(&g1, &e1), &r.pow(&g2, &e2));
        assert_eq!(combined, separate);
    }

    #[test]
    fn inverse_round_trips() {
        let r = ring(10_007); // prime
        for a in [1u64, 2, 3, 5000, 10_006] {
            let a = BigUint::from(a);
            let inv = r.inv(&a).expect("invertible");
            assert!(r.mul(&a, &inv).is_one());
        }
    }

    #[test]
    fn inverse_of_noncoprime_is_none() {
        let r = ring(12);
        assert_eq!(r.inv(&BigUint::from(4u64)), None);
        assert_eq!(r.inv(&BigUint::zero()), None);
        assert!(r.inv(&BigUint::from(5u64)).is_some());
    }

    #[test]
    fn fermat_little_theorem_on_big_prime() {
        // 2^61 - 1 is a Mersenne prime.
        let p = (BigUint::one() << 61) - BigUint::one();
        let r = ModRing::new(p.clone());
        let a = BigUint::from(123_456_789u64);
        assert!(r.pow(&a, &(&p - &BigUint::one())).is_one());
    }
}
