//! ElGamal encryption over a [`SchnorrGroup`].
//!
//! The WhoPay group-signature scheme ([`crate::group_sig`]) encrypts the
//! signer's member key under the judge's ElGamal key so that only the judge
//! can recover the signer identity.

use std::sync::Arc;

use rand::Rng;
use whopay_num::{BigUint, SchnorrGroup};

use crate::accel::KeyAccel;

/// An ElGamal public key `y = g^x mod p`.
///
/// Like [`crate::dsa::DsaPublicKey`], carries a lazily built per-key
/// fixed-base table shared across clones — the judge key is raised to a
/// fresh exponent in every group signature and every verification.
/// Equality and hashing consider only `y`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ElGamalPublicKey {
    y: BigUint,
    accel: Arc<KeyAccel>,
}

/// An ElGamal key pair. Its `Debug` prints the public half only.
#[derive(Clone, PartialEq, Eq)]
pub struct ElGamalKeyPair {
    x: BigUint,
    public: ElGamalPublicKey,
}

impl std::fmt::Debug for ElGamalKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElGamalKeyPair").field("public", &self.public).finish_non_exhaustive()
    }
}

/// An ElGamal ciphertext `(c1, c2) = (g^r, m·y^r)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ElGamalCiphertext {
    c1: BigUint,
    c2: BigUint,
}

impl ElGamalPublicKey {
    /// The group element `y`.
    pub fn element(&self) -> &BigUint {
        &self.y
    }

    /// Constructs a key from a raw group element (caller validates
    /// membership for untrusted inputs).
    pub fn from_element(y: BigUint) -> Self {
        ElGamalPublicKey { y, accel: Arc::default() }
    }

    /// `y^e mod p`: from the per-key table once the key is hot, a plain
    /// exponentiation before that.
    pub fn pow(&self, group: &SchnorrGroup, e: &BigUint) -> BigUint {
        self.accel.pow(group, &self.y, e).unwrap_or_else(|| group.elem_ring().pow(&self.y, e))
    }

    /// [`ElGamalPublicKey::pow`] of every `e` in `exps`, index-aligned,
    /// and whether the key's table served them — then eight to a lane
    /// call of its comb where the host has the engine
    /// ([`SchnorrGroup::pow_table_many`]).
    pub fn pow_many(&self, group: &SchnorrGroup, exps: &[&BigUint]) -> (Vec<BigUint>, bool) {
        match self.accel.pow_many(group, &self.y, exps) {
            Some(powers) => (powers, true),
            None => (exps.iter().map(|e| group.elem_ring().pow(&self.y, e)).collect(), false),
        }
    }

    /// Encrypts a group element `m` (must be in the order-`q` subgroup for
    /// semantic security; callers encrypt public keys, which are).
    ///
    /// ```
    /// # use whopay_num::SchnorrGroup;
    /// # use whopay_crypto::elgamal::ElGamalKeyPair;
    /// # let mut rng = rand::rng();
    /// # let group = SchnorrGroup::generate(192, 96, &mut rng);
    /// let kp = ElGamalKeyPair::generate(&group, &mut rng);
    /// let m = group.pow_g(&group.random_scalar(&mut rng));
    /// let ct = kp.public().encrypt(&group, &m, &mut rng);
    /// assert_eq!(kp.decrypt(&group, &ct), m);
    /// ```
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        group: &SchnorrGroup,
        m: &BigUint,
        rng: &mut R,
    ) -> ElGamalCiphertext {
        self.encrypt_with(group, m, &group.random_scalar(rng))
    }

    /// Encrypts with caller-chosen randomness `r` (needed by the
    /// group-signature proof, which must prove knowledge of `r`).
    pub fn encrypt_with(&self, group: &SchnorrGroup, m: &BigUint, r: &BigUint) -> ElGamalCiphertext {
        let elem = group.elem_ring();
        ElGamalCiphertext { c1: group.pow_g(r), c2: elem.mul(m, &self.pow(group, r)) }
    }
}

impl ElGamalKeyPair {
    /// Generates a fresh key pair.
    pub fn generate<R: Rng + ?Sized>(group: &SchnorrGroup, rng: &mut R) -> Self {
        let x = group.random_scalar(rng);
        let y = group.pow_g(&x);
        ElGamalKeyPair { x, public: ElGamalPublicKey::from_element(y) }
    }

    /// Reconstructs a key pair from the secret scalar (used after Shamir
    /// recovery of the judge master key).
    pub fn from_secret(group: &SchnorrGroup, x: BigUint) -> Self {
        let y = group.pow_g(&x);
        ElGamalKeyPair { x, public: ElGamalPublicKey::from_element(y) }
    }

    /// The public half.
    pub fn public(&self) -> &ElGamalPublicKey {
        &self.public
    }

    /// The secret scalar.
    pub fn secret(&self) -> &BigUint {
        &self.x
    }

    /// Decrypts a ciphertext: `m = c2 · (c1^x)^{-1}`.
    pub fn decrypt(&self, group: &SchnorrGroup, ct: &ElGamalCiphertext) -> BigUint {
        let elem = group.elem_ring();
        let shared = elem.pow(&ct.c1, &self.x);
        let inv = elem.inv(&shared).expect("group element is invertible mod prime p");
        elem.mul(&ct.c2, &inv)
    }
}

impl ElGamalCiphertext {
    /// First component `g^r`.
    pub fn c1(&self) -> &BigUint {
        &self.c1
    }

    /// Second component `m·y^r`.
    pub fn c2(&self) -> &BigUint {
        &self.c2
    }

    /// Constructs a ciphertext from raw components (e.g. deserialized).
    pub fn from_parts(c1: BigUint, c2: BigUint) -> Self {
        ElGamalCiphertext { c1, c2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{test_group, test_rng};

    #[test]
    fn encrypt_decrypt_round_trip() {
        let mut rng = test_rng(20);
        let group = test_group();
        let kp = ElGamalKeyPair::generate(&group, &mut rng);
        for _ in 0..5 {
            let m = group.pow_g(&group.random_scalar(&mut rng));
            let ct = kp.public().encrypt(&group, &m, &mut rng);
            assert_eq!(kp.decrypt(&group, &ct), m);
        }
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let mut rng = test_rng(21);
        let group = test_group();
        let kp = ElGamalKeyPair::generate(&group, &mut rng);
        let m = group.pow_g(&group.random_scalar(&mut rng));
        let ct1 = kp.public().encrypt(&group, &m, &mut rng);
        let ct2 = kp.public().encrypt(&group, &m, &mut rng);
        assert_ne!(ct1, ct2);
        assert_eq!(kp.decrypt(&group, &ct1), kp.decrypt(&group, &ct2));
    }

    #[test]
    fn wrong_key_decrypts_to_garbage() {
        let mut rng = test_rng(22);
        let group = test_group();
        let kp1 = ElGamalKeyPair::generate(&group, &mut rng);
        let kp2 = ElGamalKeyPair::generate(&group, &mut rng);
        let m = group.pow_g(&group.random_scalar(&mut rng));
        let ct = kp1.public().encrypt(&group, &m, &mut rng);
        assert_ne!(kp2.decrypt(&group, &ct), m);
    }

    #[test]
    fn homomorphic_multiplication() {
        // ElGamal is multiplicatively homomorphic; pinning this documents
        // (and tests) the algebra the group-signature proof relies on.
        let mut rng = test_rng(23);
        let group = test_group();
        let elem = group.elem_ring();
        let kp = ElGamalKeyPair::generate(&group, &mut rng);
        let m1 = group.pow_g(&group.random_scalar(&mut rng));
        let m2 = group.pow_g(&group.random_scalar(&mut rng));
        let ct1 = kp.public().encrypt(&group, &m1, &mut rng);
        let ct2 = kp.public().encrypt(&group, &m2, &mut rng);
        let prod =
            ElGamalCiphertext::from_parts(elem.mul(ct1.c1(), ct2.c1()), elem.mul(ct1.c2(), ct2.c2()));
        assert_eq!(kp.decrypt(&group, &prod), elem.mul(&m1, &m2));
    }

    #[test]
    fn from_secret_matches_generate() {
        let mut rng = test_rng(24);
        let group = test_group();
        let kp = ElGamalKeyPair::generate(&group, &mut rng);
        let rebuilt = ElGamalKeyPair::from_secret(&group, kp.secret().clone());
        assert_eq!(rebuilt.public(), kp.public());
    }
}
