//! Shared fixtures for tests, examples, and benchmarks.
//!
//! Protocol tests across the workspace need Schnorr-group parameters;
//! generating them is by far the slowest part of a test, so this module
//! generates small (insecure, fast) parameters once per process and shares
//! them. Production-strength parameters come from
//! [`SchnorrGroup::generate`] with 1024/160 or larger.

use std::sync::OnceLock;

use rand::{Rng, SeedableRng};
use whopay_num::{BigUint, SchnorrGroup};

use crate::elgamal::ElGamalCiphertext;
use crate::group_sig::{self, GroupPublicKey, GroupSignature};

/// A deterministic RNG for reproducible tests and simulations.
pub fn test_rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// A process-wide cached 192/96-bit Schnorr group.
///
/// Far too small to be secure; exactly right for exercising protocol logic
/// quickly and deterministically.
pub fn tiny_group() -> &'static SchnorrGroup {
    static GROUP: OnceLock<SchnorrGroup> = OnceLock::new();
    GROUP.get_or_init(|| SchnorrGroup::generate(192, 96, &mut test_rng(0xC0FFEE)))
}

/// A process-wide cached 512/160-bit Schnorr group: big enough that element
/// encodings look realistic, still fast to generate.
pub fn small_group() -> &'static SchnorrGroup {
    static GROUP: OnceLock<SchnorrGroup> = OnceLock::new();
    GROUP.get_or_init(|| SchnorrGroup::generate(512, 160, &mut test_rng(0xBEEF)))
}

/// An element of `Z_p*` of order exactly `d`, if there is one (`d`
/// divides `p − 1`). For `d` prime to `q` it lies outside the order-`q`
/// subgroup.
pub fn element_of_order(group: &SchnorrGroup, d: u64) -> Option<BigUint> {
    let elem = group.elem_ring();
    let p_minus_1 = group.modulus() - &BigUint::one();
    let big_d = BigUint::from(d);
    if d < 2 || !(&p_minus_1 % &big_d).is_zero() {
        return None;
    }
    let exact = |eta: &BigUint| {
        (1..d).filter(|k| d.is_multiple_of(*k)).all(|k| !elem.pow(eta, &BigUint::from(k)).is_one())
    };
    (2u64..50).map(|h| elem.pow(&BigUint::from(h), &(&p_minus_1 / &big_d))).find(exact)
}

/// An element of `Z_p*` outside the order-`q` subgroup whose order is
/// small: `−1`, or (`odd`) an element of the smallest odd order below
/// 1000 that divides the cofactor `(p − 1)/q` — `−1` again if none does.
pub fn small_order_element(group: &SchnorrGroup, odd: bool) -> BigUint {
    let odd_order = || (3u64..1000).step_by(2).find_map(|d| element_of_order(group, d));
    odd.then(odd_order).flatten().unwrap_or_else(|| group.elem_ring().neg(&BigUint::one()))
}

/// A group signature over `message` by a signer who multiplied the halves
/// of their own escrow ciphertext by `twists` — elements of small order,
/// outside the order-`q` subgroup — and redrew their randomness until
/// `twist^(−e mod q) = 1` for both, so that `c₁^(−e)` and `c₂^(−e)` come
/// out as if nothing had been twisted and both verification equations
/// hold. The one thing wrong with it is that a half is no subgroup
/// member: [`GroupPublicKey::verify`] refuses it, a verifier that skipped
/// a half's membership check would not. With both twists `1` it is an
/// ordinary signature by an unregistered key.
pub fn twisted_group_signature<R: Rng + ?Sized>(
    group: &SchnorrGroup,
    gpk: &GroupPublicKey,
    message: &[u8],
    twists: [&BigUint; 2],
    rng: &mut R,
) -> GroupSignature {
    let (elem, scalar) = (group.elem_ring(), group.scalar_ring());
    let judge = gpk.judge_key();
    let x = group.random_scalar(rng);
    loop {
        let (r, rho_r, rho_x) =
            (group.random_scalar(rng), group.random_scalar(rng), group.random_scalar(rng));
        let ct = judge.encrypt_with(group, &group.pow_g(&x), &r);
        let ct =
            ElGamalCiphertext::from_parts(elem.mul(ct.c1(), twists[0]), elem.mul(ct.c2(), twists[1]));
        let a1 = group.pow_g(&rho_r);
        let a2 = elem.mul(&group.pow_g(&rho_x), &judge.pow(group, &rho_r));
        let e = group_sig::challenge(group, gpk, &ct, &a1, &a2, message);
        if twists.iter().all(|twist| elem.pow(twist, &scalar.neg(&e)).is_one()) {
            let z_r = scalar.add(&rho_r, &scalar.mul(&e, &r));
            let z_x = scalar.add(&rho_x, &scalar.mul(&e, &x));
            return GroupSignature::from_parts(ct, e, z_r, z_x);
        }
    }
}
