//! Differential tests for the Montgomery/fixed-window arithmetic backbone.
//!
//! Every fast path — FIOS Montgomery multiplication, fixed-window
//! exponentiation, the interleaved `pow2` multi-exponentiation, the
//! one-base-many-exponents `pow_each`, and the fixed-base comb in both of
//! its shapes — is checked against the naive division-based
//! square-and-multiply reference (`ModRing::pow_naive` / `pow2_naive`) over
//! random odd moduli from one limb up to ~1100 bits, plus the degenerate
//! inputs the window logic has to get right: zero exponents, bases at or
//! above the modulus, zero bases, and the smallest odd modulus. The
//! fixed-width inverse is checked against the extended Euclid it replaced.

use proptest::prelude::*;
use rand::SeedableRng;
use whopay_num::{BigUint, FixedBaseTable, ModRing, MontgomeryRing, SchnorrGroup};

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
    fn pow_each_matches_separate_pows(
        a in value(),
        exps in proptest::collection::vec(exponent(), 5..6),
        m in odd_modulus(),
    ) {
        // `exponent()` yields 0..=3 limbs, so zero, one-limb and
        // unequal-length exponents all occur side by side.
        let mont = MontgomeryRing::new(&m).expect("odd modulus");
        let ring = ModRing::new(m.clone());
        let base = &a % &m;
        for n in [1usize, 2, 3, 5] {
            let exps: Vec<&BigUint> = exps[..n].iter().collect();
            let want: Vec<BigUint> = exps.iter().map(|e| ring.pow_naive(&a, e)).collect();
            prop_assert_eq!(&mont.pow_each(&base, &exps), &want, "n={}", n);
            prop_assert_eq!(&ring.pow_each(&a, &exps), &want, "n={}", n);
        }
        prop_assert_eq!(
            ring.pow_dual(&a, &exps[0], &exps[1]),
            (ring.pow_naive(&a, &exps[0]), ring.pow_naive(&a, &exps[1]))
        );
        prop_assert_eq!(mont.pow_each(&base, &[]), Vec::<BigUint>::new());
    }

    #[test]
    fn fixed_base_comb_matches_naive(
        base in value(),
        e in exponent(),
        m in odd_modulus(),
        max_bits in 1usize..200,
    ) {
        let mont = MontgomeryRing::new(&m).expect("odd modulus");
        let ring = ModRing::new(m.clone());
        let b = &base % &m;
        let one = BigUint::one();
        for table in both_shapes(&mont, &b, max_bits) {
            let covered = table.max_bits();
            prop_assert!(covered >= max_bits);
            // Random within range, the two smallest, every covered bit set.
            let widest = (&one << covered) - &one;
            for e in [&e % &(&widest + &one), BigUint::zero(), one.clone(), widest] {
                prop_assert_eq!(table.pow(&mont, &e), Some(ring.pow_naive(&b, &e)), "e={}", e);
            }
            prop_assert_eq!(table.pow(&mont, &(&one << covered)), None);
        }
    }

    #[test]
    fn fixed_base_comb_declines_oversized_exponents(m in small_odd_modulus()) {
        let mont = MontgomeryRing::new(&m).expect("odd modulus");
        for table in both_shapes(&mont, &BigUint::from(2u64), 64) {
            let too_wide = BigUint::one() << 200;
            prop_assert_eq!(table.pow(&mont, &too_wide), None);
        }
    }

    #[test]
    fn fixed_width_inverse_matches_euclid(a in value(), m in small_odd_modulus()) {
        let ring = ModRing::new(m.clone());
        let got = ring.inv(&a);
        prop_assert_eq!(&got, &ring.inv_euclid(&a));
        if let Some(x) = got {
            prop_assert!(ring.mul(&a, &x).is_one());
        }
        // A product of two odd factors: multiples of either have no inverse.
        // (Up to three limbs of `m` keep the product on the fixed-width side.)
        let composite = ModRing::new(&m * &BigUint::from(0xFFFF_FFFBu64));
        let multiple = &m * &(&a % &BigUint::from(0xFFFF_FFFBu64));
        prop_assert_eq!(composite.inv(&multiple), None);
        prop_assert_eq!(composite.inv(&a), composite.inv_euclid(&a));
    }

    #[test]
    fn shared_inversion_matches_one_at_a_time(
        xs in proptest::collection::vec(value(), 0..6),
        m in small_odd_modulus(),
    ) {
        let ring = ModRing::new(m);
        let refs: Vec<&BigUint> = xs.iter().collect();
        let each: Option<Vec<BigUint>> = xs.iter().map(|x| ring.inv(x)).collect();
        prop_assert_eq!(ring.inv_each(&refs), each);
    }
}

/// The comb in every shape shipped.
fn both_shapes(mont: &MontgomeryRing, base: &BigUint, max_bits: usize) -> [FixedBaseTable; 2] {
    [FixedBaseTable::for_generator(mont, base, max_bits), FixedBaseTable::for_key(mont, base, max_bits)]
}

#[test]
fn fixed_base_comb_on_a_schnorr_group() {
    // The shapes the protocol builds: exponents up to q's width, q − 1
    // (the inverse of the base) among them.
    let group = SchnorrGroup::generate(192, 96, &mut rand::rngs::StdRng::seed_from_u64(0xC0B));
    let ring = group.elem_ring();
    let mont = ring.montgomery().expect("odd modulus");
    let (g, q) = (group.generator(), group.order());
    let one = BigUint::one();
    for table in both_shapes(mont, g, q.bits()) {
        assert_eq!(table.max_bits(), 96);
        for e in [BigUint::zero(), one.clone(), q - &one, q.clone(), (&one << 96) - &one] {
            assert_eq!(table.pow(mont, &e), Some(ring.pow_naive(g, &e)), "e={e}");
        }
        assert!(ring.mul(&table.pow(mont, &(q - &one)).unwrap(), g).is_one());
        assert_eq!(table.pow(mont, &(&one << 96)), None);
    }
}

#[test]
fn inverse_edge_cases() {
    let one = BigUint::one();
    for m in [
        BigUint::from(3u64),
        BigUint::from(u64::MAX), // 3·5·17·257·641·65537·6700417
        (BigUint::one() << 160) + BigUint::from(7u64), // three limbs, top limb 2^32
        (BigUint::one() << 255) + BigUint::from(0x15u64), // four limbs, top bit set
        (BigUint::one() << 256) + BigUint::one(), // five limbs: Euclid's side of the gate
    ] {
        let ring = ModRing::new(m.clone());
        assert_eq!(ring.inv(&BigUint::zero()), None, "m={m}");
        assert_eq!(ring.inv(&m), None, "m={m}");
        assert_eq!(ring.inv(&one), Some(one.clone()), "m={m}");
        assert_eq!(ring.inv(&(&m + &one)), Some(one.clone()), "m={m}");
        // (m − 1)² = 1.
        assert_eq!(ring.inv(&(&m - &one)), Some(&m - &one), "m={m}");
        for a in [2u64, 3, 0xFFFF_FFFF, 1 << 63] {
            let a = BigUint::from(a);
            assert_eq!(ring.inv(&a), ring.inv_euclid(&a), "a={a} m={m}");
        }
    }
    let ring = ModRing::new(BigUint::from(u64::MAX));
    assert_eq!(ring.inv(&BigUint::from(641u64 * 3)), None);
    assert!(ring.inv(&BigUint::from(641u64 * 3 + 1)).is_some());
    assert!(ring.inv_each(&[&BigUint::from(2u64), &BigUint::from(641u64)]).is_none());
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
                // Beside every other edge exponent, in both slots, and
                // beside itself.
                for other in &exps {
                    let powers = vec![want.clone(), ring.pow_naive(base, other), want.clone()];
                    assert_eq!(ring.pow_each(base, &[exp, other, exp]), powers, "base={base} m={m}");
                }
            }
        }
        // exp == 0 must yield 1 even when the base is 0 (the crypto layer's
        // convention, matching the naive reference).
        assert_eq!(ring.pow(&BigUint::zero(), &BigUint::zero()), ring.reduce(&one));
    }
}
