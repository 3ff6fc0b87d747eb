//! Differential tests for the Montgomery/fixed-window arithmetic backbone.
//!
//! Every fast path — FIOS Montgomery multiplication, fixed-window
//! exponentiation, the interleaved `pow2` multi-exponentiation, the
//! one-base-two-exponent `pow_dual`, and the fixed-base table — is checked
//! against the naive division-based
//! square-and-multiply reference (`ModRing::pow_naive` / `pow2_naive`) over
//! random odd moduli from one limb up to ~1100 bits, plus the degenerate
//! inputs the window logic has to get right: zero exponents, bases at or
//! above the modulus, zero bases, and the smallest odd modulus.

use proptest::prelude::*;
use whopay_num::{BigUint, FixedBaseTable, ModRing, MontgomeryRing};

/// Strategy: a random odd modulus >= 3 spanning 1..=17 limbs (64–1088 bits).
fn odd_modulus() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u64>(), 1..18).prop_map(|mut limbs| {
        let last = limbs.len() - 1;
        if limbs[last] == 0 {
            limbs[last] = 1;
        }
        limbs[0] |= 1;
        if limbs.len() == 1 && limbs[0] == 1 {
            limbs[0] = 3;
        }
        BigUint::from_limbs(limbs)
    })
}

/// Strategy: a small odd modulus (1..=4 limbs) where full-width naive
/// exponentiation stays cheap.
fn small_odd_modulus() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u64>(), 1..5).prop_map(|mut limbs| {
        let last = limbs.len() - 1;
        if limbs[last] == 0 {
            limbs[last] = 1;
        }
        limbs[0] |= 1;
        if limbs.len() == 1 && limbs[0] == 1 {
            limbs[0] = 3;
        }
        BigUint::from_limbs(limbs)
    })
}

/// Strategy: arbitrary value up to 18 limbs, possibly >= the modulus.
fn value() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u64>(), 0..19).prop_map(BigUint::from_limbs)
}

/// Strategy: exponent up to 3 limbs (192 bits) — wide enough to exercise
/// every window width the splitter picks, small enough that the naive
/// reference stays fast against 1088-bit moduli.
fn exponent() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u64>(), 0..4).prop_map(BigUint::from_limbs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mont_mul_matches_division(a in value(), b in value(), m in odd_modulus()) {
        let mont = MontgomeryRing::new(&m).expect("odd modulus");
        let (ra, rb) = (&a % &m, &b % &m);
        prop_assert_eq!(mont.mul(&ra, &rb), (&ra * &rb) % &m);
    }

    #[test]
    fn mont_round_trip(a in value(), m in odd_modulus()) {
        let mont = MontgomeryRing::new(&m).expect("odd modulus");
        let r = &a % &m;
        prop_assert_eq!(mont.from_mont(&mont.to_mont(&r)), r);
    }

    #[test]
    fn mont_pow_matches_naive(a in value(), e in exponent(), m in odd_modulus()) {
        let mont = MontgomeryRing::new(&m).expect("odd modulus");
        let ring = ModRing::new(m.clone());
        prop_assert_eq!(mont.pow(&(&a % &m), &e), ring.pow_naive(&a, &e));
    }

    #[test]
    fn windowed_pow_matches_naive_full_width(a in value(), e in value(), m in small_odd_modulus()) {
        // Full-width exponents (up to 1152 bits) against small moduli: the
        // widest windows the splitter ever picks.
        let ring = ModRing::new(m);
        prop_assert_eq!(ring.pow(&a, &e), ring.pow_naive(&a, &e));
    }

    #[test]
    fn windowed_pow2_matches_naive(
        g1 in value(), e1 in exponent(), g2 in value(), e2 in exponent(), m in odd_modulus()
    ) {
        let ring = ModRing::new(m);
        prop_assert_eq!(ring.pow2(&g1, &e1, &g2, &e2), ring.pow2_naive(&g1, &e1, &g2, &e2));
    }

    #[test]
    fn pow_dual_matches_two_pows(a in value(), e1 in exponent(), e2 in exponent(), m in odd_modulus()) {
        // `exponent()` yields 0..=3 limbs, so zero, one-limb and
        // unequal-length exponent pairs all occur.
        let mont = MontgomeryRing::new(&m).expect("odd modulus");
        let base = &a % &m;
        prop_assert_eq!(mont.pow_dual(&base, &e1, &e2), (mont.pow(&base, &e1), mont.pow(&base, &e2)));
        let ring = ModRing::new(m);
        prop_assert_eq!(ring.pow_dual(&a, &e1, &e2), (ring.pow_naive(&a, &e1), ring.pow_naive(&a, &e2)));
    }

    #[test]
    fn fixed_base_table_matches_pow(base in value(), e in exponent(), m in odd_modulus()) {
        let mont = MontgomeryRing::new(&m).expect("odd modulus");
        let b = &base % &m;
        let table = FixedBaseTable::new(&mont, &b, 192, FixedBaseTable::WINDOW);
        let got = table.pow(&mont, &e).expect("exponent within table width");
        prop_assert_eq!(got, mont.pow(&b, &e));
    }

    #[test]
    fn fixed_base_table_declines_oversized_exponents(m in small_odd_modulus()) {
        let mont = MontgomeryRing::new(&m).expect("odd modulus");
        let table = FixedBaseTable::new(&mont, &BigUint::from(2u64), 64, FixedBaseTable::WINDOW);
        let too_wide = BigUint::one() << 200;
        prop_assert_eq!(table.pow(&mont, &too_wide), None);
    }
}

/// The inputs that break sloppy window splitting, collected deterministically.
#[test]
fn edge_cases_match_naive() {
    let moduli = [
        BigUint::from(3u64),
        BigUint::from(5u64),
        BigUint::from(u64::MAX), // 2^64 - 1, odd, exactly one limb
        (BigUint::one() << 1087) + BigUint::from(0x1234_5677u64), // large odd
    ];
    let one = BigUint::one();
    for m in &moduli {
        let ring = ModRing::new(m.clone());
        let mont = MontgomeryRing::new(m).expect("odd modulus");
        let bases = [
            BigUint::zero(),
            one.clone(),
            m.clone(),                       // base == modulus reduces to zero
            m + &one,                        // base > modulus
            (m << 3) + &BigUint::from(7u64), // far above the modulus
        ];
        let exps = [
            BigUint::zero(),
            one.clone(),
            BigUint::from(2u64),
            BigUint::from(0xFFFF_FFFF_FFFF_FFFFu64),
            BigUint::one() << 160,
        ];
        for base in &bases {
            for exp in &exps {
                let want = ring.pow_naive(base, exp);
                assert_eq!(ring.pow(base, exp), want, "pow base={base} exp={exp} m={m}");
                assert_eq!(mont.pow(&(base % m), exp), want, "mont base={base} exp={exp} m={m}");
                // Paired with every other edge exponent, in both slots.
                for other in &exps {
                    let pair = (want.clone(), ring.pow_naive(base, other));
                    assert_eq!(ring.pow_dual(base, exp, other), pair, "dual base={base} m={m}");
                }
            }
        }
        // exp == 0 must yield 1 even when the base is 0 (the crypto layer's
        // convention, matching the naive reference).
        assert_eq!(ring.pow(&BigUint::zero(), &BigUint::zero()), ring.reduce(&one));
    }
}
