//! Differential tests for the fixed-width Montgomery kernels and the fused
//! membership-and-power chain.
//!
//! At every limb count with a fixed-width kernel
//! ([`MontgomeryRing::FIXED_WIDTHS`]) the multiply and the dedicated
//! squaring must agree with the dynamic-width multiply on random residues
//! and on the values where a carry or the final subtraction is most likely
//! to go wrong: `0`, `1`, `m − 1` and `R mod m`. One limb either side of
//! each width checks the dispatch itself. `SchnorrGroup::pow_member_each`
//! must be exactly `is_element(x).then(|| pow(x, e))` for one exponent,
//! and the same over every exponent at once.

use proptest::prelude::*;
use rand::SeedableRng;
use whopay_num::{BigUint, MontgomeryRing, SchnorrGroup};

/// An odd modulus of exactly `n` limbs; `dense` sets the top bit, as in a
/// 512- or 1024-bit prime, so residues can have theirs set too.
fn modulus_of(mut limbs: Vec<u64>, n: usize, dense: bool) -> BigUint {
    limbs.truncate(n);
    limbs[0] |= 1;
    limbs[n - 1] |= if dense { 1 << 63 } else { 1 };
    BigUint::from_limbs(limbs)
}

fn padded(x: &BigUint, n: usize) -> Vec<u64> {
    let mut v = x.limbs().to_vec();
    v.resize(n, 0);
    v
}

/// Fixed kernels vs. the dynamic reference on every pair from `residues`.
fn assert_kernels_agree(mont: &MontgomeryRing, residues: &[Vec<u64>]) {
    for a in residues {
        let want_sqr = mont.mont_mul_dynamic(a, a);
        assert_eq!(mont.mont_sqr(a), want_sqr, "sqr a={a:x?}");
        for b in residues {
            assert_eq!(mont.mont_mul(a, b), mont.mont_mul_dynamic(a, b), "mul a={a:x?} b={b:x?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fixed_width_kernels_match_dynamic_width(
        raw_m in proptest::collection::vec(any::<u64>(), 17..18),
        raw_a in proptest::collection::vec(any::<u64>(), 17..18),
        raw_b in proptest::collection::vec(any::<u64>(), 17..18),
        dense in any::<bool>(),
    ) {
        for width in MontgomeryRing::FIXED_WIDTHS {
            for n in [width - 1, width, width + 1] {
                let m = modulus_of(raw_m.clone(), n, dense);
                let mont = MontgomeryRing::new(&m).expect("odd modulus");
                prop_assert_eq!(mont.num_limbs(), n);
                let one = BigUint::one();
                let residues = [
                    padded(&(&BigUint::from_limbs(raw_a.clone()) % &m), n),
                    padded(&(&BigUint::from_limbs(raw_b.clone()) % &m), n),
                    padded(&BigUint::zero(), n),
                    padded(&one, n),
                    padded(&(&m - &one), n),
                    mont.mont_one().to_vec(), // R mod m
                ];
                assert_kernels_agree(&mont, &residues);
            }
        }
    }

    #[test]
    fn squaring_chains_match_multiplication_chains(
        raw_m in proptest::collection::vec(any::<u64>(), 16..17),
        raw_a in proptest::collection::vec(any::<u64>(), 16..17),
    ) {
        // Feeding each result back in walks the kernels through residues
        // no sampler would pick (and through the final-subtraction branch).
        for width in MontgomeryRing::FIXED_WIDTHS {
            let m = modulus_of(raw_m.clone(), width, true);
            let mont = MontgomeryRing::new(&m).expect("odd modulus");
            let mut x = padded(&(&BigUint::from_limbs(raw_a.clone()) % &m), width);
            for _ in 0..64 {
                let next = mont.mont_sqr(&x);
                prop_assert_eq!(&next, &mont.mont_mul_dynamic(&x, &x));
                x = next;
            }
        }
    }
}

fn test_group() -> SchnorrGroup {
    SchnorrGroup::generate(192, 96, &mut rand::rngs::StdRng::seed_from_u64(0x90E))
}

/// `pow_member_each` for one exponent.
fn pow_member(group: &SchnorrGroup, x: &BigUint, e: &BigUint) -> Option<BigUint> {
    group.pow_member_each(x, &[e])?.pop()
}

/// The specification one-exponent `pow_member_each` must match.
fn pow_member_spec(group: &SchnorrGroup, x: &BigUint, e: &BigUint) -> Option<BigUint> {
    group.is_element(x).then(|| group.elem_ring().pow(x, e))
}

/// The specification `pow_member_each` must match.
fn pow_member_each_spec(group: &SchnorrGroup, x: &BigUint, exps: &[&BigUint]) -> Option<Vec<BigUint>> {
    group.is_element(x).then(|| exps.iter().map(|e| group.elem_ring().pow(x, e)).collect())
}

#[test]
fn pow_member_on_the_boundary_values() {
    let group = test_group();
    let p = group.modulus();
    let one = BigUint::one();
    let exps = [BigUint::zero(), one.clone(), group.order() - &one, group.order().clone()];
    let order_two = p - &one; // (p - 1)^2 = 1, and q is odd: not a member
    assert!(!group.is_element(&order_two));
    for e in &exps {
        for x in [BigUint::zero(), p.clone(), p + &one, p + group.generator(), order_two.clone()] {
            assert_eq!(pow_member(&group, &x, e), None, "x={x} e={e}");
        }
        for x in [one.clone(), group.generator().clone()] {
            assert_eq!(pow_member(&group, &x, e), Some(group.elem_ring().pow(&x, e)), "x={x} e={e}");
        }
    }
    // The slice form over all of them at once, and over none (membership alone).
    let all: Vec<&BigUint> = exps.iter().collect();
    for x in [BigUint::zero(), p.clone(), p + &one, order_two, one.clone(), group.generator().clone()] {
        assert_eq!(group.pow_member_each(&x, &all), pow_member_each_spec(&group, &x, &all), "x={x}");
        assert_eq!(group.pow_member_each(&x, &[]), group.is_element(&x).then(Vec::new), "x={x}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pow_member_is_is_element_then_pow(
        raw_x in proptest::collection::vec(any::<u64>(), 4..5),
        raw_e in proptest::collection::vec(any::<u64>(), 0..3),
        k in any::<u64>(),
        twist in any::<bool>(),
    ) {
        let group = test_group();
        let e = BigUint::from_limbs(raw_e);
        // A random value (almost surely a non-member, possibly >= p) ...
        let x = BigUint::from_limbs(raw_x);
        prop_assert_eq!(pow_member(&group, &x, &e), pow_member_spec(&group, &x, &e));
        // ... a member g^k, and that member times the order-2 element.
        let member = group.pow_g(&BigUint::from(k));
        let got = pow_member(&group, &member, &e);
        prop_assert_eq!(&got, &pow_member_spec(&group, &member, &e));
        prop_assert!(got.is_some());
        if twist {
            let twisted = group.elem_ring().neg(&member);
            prop_assert_eq!(pow_member(&group, &twisted, &e), None);
            prop_assert_eq!(pow_member_spec(&group, &twisted, &e), None);
        }
    }

    #[test]
    fn pow_member_each_is_is_element_then_every_pow(
        raw_x in proptest::collection::vec(any::<u64>(), 4..5),
        raw_exps in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..3), 0..5),
        k in any::<u64>(),
    ) {
        let group = test_group();
        let exps: Vec<BigUint> = raw_exps.into_iter().map(BigUint::from_limbs).collect();
        let exps: Vec<&BigUint> = exps.iter().collect();
        let member = group.pow_g(&BigUint::from(k));
        let twisted = group.elem_ring().neg(&member);
        for x in [BigUint::from_limbs(raw_x), member, twisted] {
            prop_assert_eq!(group.pow_member_each(&x, &exps), pow_member_each_spec(&group, &x, &exps));
        }
    }
}
