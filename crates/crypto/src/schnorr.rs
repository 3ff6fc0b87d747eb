//! Schnorr signatures over a [`SchnorrGroup`].
//!
//! WhoPay represents coins as public keys; the *coin key* signatures that
//! prove holdership are plain discrete-log signatures. We provide Schnorr
//! alongside DSA because the group-signature construction
//! ([`crate::group_sig`]) is itself a Schnorr-style proof, and because the
//! ablation benches compare the two.

use std::sync::Arc;

use rand::Rng;
use whopay_num::{BigUint, SchnorrGroup};

use crate::accel::KeyAccel;
use crate::hashio::Transcript;

/// Domain label binding Schnorr challenges to this scheme.
const DOMAIN: &str = "whopay/schnorr/v1";

/// A Schnorr verifying key `y = g^x mod p`.
///
/// Like [`crate::dsa::DsaPublicKey`], carries a lazily built per-key
/// fixed-base table shared across clones; equality and hashing consider
/// only `y`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SchnorrPublicKey {
    y: BigUint,
    accel: Arc<KeyAccel>,
}

/// A Schnorr signing key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchnorrKeyPair {
    x: BigUint,
    public: SchnorrPublicKey,
}

/// A Schnorr signature `(e, s)` with `e = H(g^k || m)` and `s = k + x·e`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SchnorrSignature {
    e: BigUint,
    s: BigUint,
}

impl SchnorrSignature {
    /// The challenge component `e`.
    pub fn e(&self) -> &BigUint {
        &self.e
    }

    /// The response component `s`.
    pub fn s(&self) -> &BigUint {
        &self.s
    }

    /// Reassembles a signature from its components. Invalid components
    /// simply fail verification.
    pub fn from_parts(e: BigUint, s: BigUint) -> Self {
        SchnorrSignature { e, s }
    }
}

impl SchnorrPublicKey {
    /// The group element `y`.
    pub fn element(&self) -> &BigUint {
        &self.y
    }

    /// Constructs a key from a raw group element (caller validates
    /// membership for untrusted inputs).
    pub fn from_element(y: BigUint) -> Self {
        SchnorrPublicKey { y, accel: Arc::default() }
    }

    /// Verifies `sig` over `message`.
    ///
    /// ```
    /// # use whopay_num::SchnorrGroup;
    /// # use whopay_crypto::schnorr::SchnorrKeyPair;
    /// # let mut rng = rand::rng();
    /// # let group = SchnorrGroup::generate(192, 96, &mut rng);
    /// let kp = SchnorrKeyPair::generate(&group, &mut rng);
    /// let sig = kp.sign(&group, b"bind coin", &mut rng);
    /// assert!(kp.public().verify(&group, b"bind coin", &sig));
    /// ```
    pub fn verify(&self, group: &SchnorrGroup, message: &[u8], sig: &SchnorrSignature) -> bool {
        let q = group.order();
        if &sig.e >= q || &sig.s >= q {
            return false;
        }
        // R' = g^s * y^{-e}; accept iff H(R' || m) == e.
        let elem = group.elem_ring();
        let scalar = group.scalar_ring();
        let neg_e = scalar.neg(&sig.e);
        let r = match self.accel.pow(group, &self.y, &neg_e) {
            Some(y_e) => elem.mul(&group.pow_g(&sig.s), &y_e),
            None => elem.pow2(group.generator(), &sig.s, &self.y, &neg_e),
        };
        challenge(group, &self.y, &r, message) == sig.e
    }
}

impl SchnorrKeyPair {
    /// Generates a fresh key pair.
    pub fn generate<R: Rng + ?Sized>(group: &SchnorrGroup, rng: &mut R) -> Self {
        let x = group.random_scalar(rng);
        let y = group.pow_g(&x);
        SchnorrKeyPair { x, public: SchnorrPublicKey::from_element(y) }
    }

    /// The verifying half.
    pub fn public(&self) -> &SchnorrPublicKey {
        &self.public
    }

    /// The secret scalar.
    pub fn secret(&self) -> &BigUint {
        &self.x
    }

    /// Signs `message`.
    pub fn sign<R: Rng + ?Sized>(
        &self,
        group: &SchnorrGroup,
        message: &[u8],
        rng: &mut R,
    ) -> SchnorrSignature {
        let scalar = group.scalar_ring();
        let k = group.random_scalar(rng);
        let r = group.pow_g(&k);
        let e = challenge(group, &self.public.y, &r, message);
        let s = scalar.add(&k, &scalar.mul(&self.x, &e));
        SchnorrSignature { e, s }
    }
}

/// Fiat–Shamir challenge `H(params || y || R || m) mod q`.
fn challenge(group: &SchnorrGroup, y: &BigUint, r: &BigUint, message: &[u8]) -> BigUint {
    Transcript::new(DOMAIN)
        .int(group.modulus())
        .int(y)
        .int(r)
        .bytes(message)
        .finish_scalar(group.order())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{test_group, test_rng};

    #[test]
    fn sign_verify_round_trip() {
        let mut rng = test_rng(10);
        let group = test_group();
        let kp = SchnorrKeyPair::generate(&group, &mut rng);
        let sig = kp.sign(&group, b"coin binding", &mut rng);
        assert!(kp.public().verify(&group, b"coin binding", &sig));
        assert!(!kp.public().verify(&group, b"forged", &sig));
    }

    #[test]
    fn rejects_wrong_key() {
        let mut rng = test_rng(11);
        let group = test_group();
        let kp1 = SchnorrKeyPair::generate(&group, &mut rng);
        let kp2 = SchnorrKeyPair::generate(&group, &mut rng);
        let sig = kp1.sign(&group, b"m", &mut rng);
        assert!(!kp2.public().verify(&group, b"m", &sig));
    }

    #[test]
    fn signature_components_bound_by_q() {
        let mut rng = test_rng(12);
        let group = test_group();
        let kp = SchnorrKeyPair::generate(&group, &mut rng);
        let sig = kp.sign(&group, b"m", &mut rng);
        let bad = SchnorrSignature::from_parts(group.order().clone(), sig.s.clone());
        assert!(!kp.public().verify(&group, b"m", &bad));
    }

    #[test]
    fn key_binding_prevents_cross_key_replay() {
        // The challenge includes y, so the same (e, s) cannot verify under a
        // different key even when messages collide.
        let mut rng = test_rng(13);
        let group = test_group();
        let kp1 = SchnorrKeyPair::generate(&group, &mut rng);
        let kp2 = SchnorrKeyPair::generate(&group, &mut rng);
        let sig = kp1.sign(&group, b"m", &mut rng);
        assert!(kp1.public().verify(&group, b"m", &sig));
        assert!(!kp2.public().verify(&group, b"m", &sig));
    }
}
