//! DSA signatures (FIPS 186 style) over a [`SchnorrGroup`].
//!
//! This is the "regular signature" scheme of the WhoPay paper: Table 2
//! benchmarks DSA with a 1024-bit modulus. Brokers, coin owners, and coin
//! holders all sign with DSA keys; group signatures (see
//! [`crate::group_sig`]) are layered on top for fairness.

use std::sync::Arc;

use rand::Rng;
use whopay_num::{BigUint, Powers, SchnorrGroup};

use crate::accel::KeyAccel;
use crate::hashio::Transcript;

/// Domain label binding DSA digests to this scheme.
const DOMAIN: &str = "whopay/dsa/v1";

/// A DSA verifying key: `y = g^x mod p`.
///
/// Carries a lazily built per-key fixed-base table (shared across clones)
/// that kicks in once the key has verified a few signatures — see
/// [`crate::accel`]. Equality and hashing consider only `y`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DsaPublicKey {
    y: BigUint,
    accel: Arc<KeyAccel>,
}

/// A DSA signing key (the secret scalar `x`, plus the public half).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsaKeyPair {
    x: BigUint,
    public: DsaPublicKey,
}

/// A DSA signature `(r, s)`: the two scalars, nothing else, so two
/// signatures are equal exactly when they are the same bits.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DsaSignature {
    r: BigUint,
    s: BigUint,
}

impl DsaSignature {
    /// The `r` component.
    pub fn r(&self) -> &BigUint {
        &self.r
    }

    /// The `s` component.
    pub fn s(&self) -> &BigUint {
        &self.s
    }

    /// Reassembles a signature from its components (e.g. after wire
    /// decoding). Invalid components simply fail verification.
    pub fn from_parts(r: BigUint, s: BigUint) -> Self {
        DsaSignature { r, s }
    }
}

impl DsaPublicKey {
    /// The group element `y`.
    pub fn element(&self) -> &BigUint {
        &self.y
    }

    /// Constructs a key from a raw group element.
    ///
    /// The caller is responsible for having validated membership (e.g. via
    /// [`SchnorrGroup::is_element`]) when the element came from the network.
    pub fn from_element(y: BigUint) -> Self {
        DsaPublicKey { y, accel: Arc::default() }
    }

    /// Verifies `sig` over `message` (with optional context binding).
    ///
    /// ```
    /// # use whopay_num::SchnorrGroup;
    /// # use whopay_crypto::dsa::DsaKeyPair;
    /// # let mut rng = rand::rng();
    /// # let group = SchnorrGroup::generate(192, 96, &mut rng);
    /// let kp = DsaKeyPair::generate(&group, &mut rng);
    /// let sig = kp.sign(&group, b"pay 1 coin", &mut rng);
    /// assert!(kp.public().verify(&group, b"pay 1 coin", &sig));
    /// assert!(!kp.public().verify(&group, b"pay 2 coins", &sig));
    /// ```
    pub fn verify(&self, group: &SchnorrGroup, message: &[u8], sig: &DsaSignature) -> bool {
        DsaCheck::each(group, &[(message, sig)])[0]
            .as_ref()
            .is_some_and(|check| self.passes(group, check))
    }

    /// Whether this key satisfies `check`: [`DsaPublicKey::verify`] with
    /// the inversion already paid, so a caller holding signatures under
    /// several keys can share one ([`DsaCheck::each`]).
    pub fn passes(&self, group: &SchnorrGroup, check: &DsaCheck) -> bool {
        // Hot keys compute y^u2 from the per-key table and g^u1 from the
        // group's generator table; cold keys share one pow2 squaring chain.
        match self.accel.pow(group, &self.y, &check.u2) {
            Some(y_u2) => check.holds_for(group, &y_u2),
            None => {
                let v = group.elem_ring().pow2(group.generator(), &check.u1, &self.y, &check.u2);
                v % group.order() == check.r
            }
        }
    }

    /// Verifies `sig` over `message` under the untrusted element `y`:
    /// exactly `group.is_element(y) && from_element(y).verify(..)`, with
    /// the membership chain `y^q` shared with the `y^u2` the verification
    /// needs ([`SchnorrGroup::pow_member`]) and `g^u1` taken from the
    /// generator table. This is how a key that arrived in a message (a
    /// holder key, a coin key) is checked.
    pub fn verify_member(
        group: &SchnorrGroup,
        y: &BigUint,
        message: &[u8],
        sig: &DsaSignature,
    ) -> bool {
        Self::verify_member_each(group, y, &[(message, sig)])[0]
    }

    /// [`DsaPublicKey::verify_member`] for every `(message, signature)` in
    /// `claims` under the one untrusted element `y`: one squaring chain
    /// over `y` yields the membership power `y^q` and every `y^u2`, and
    /// one inversion every `s⁻¹`. The verdicts are exactly those of
    /// verifying each claim on its own.
    pub fn verify_member_each(
        group: &SchnorrGroup,
        y: &BigUint,
        claims: &[(&[u8], &DsaSignature)],
    ) -> Vec<bool> {
        let checks = DsaCheck::each(group, claims);
        if checks.iter().all(Option::is_none) {
            // Out-of-range signatures are rejected without touching `y`.
            return vec![false; claims.len()];
        }
        Self::member_passes_each(group, y, &checks).unwrap_or_else(|| vec![false; claims.len()])
    }

    /// Whether the untrusted element `y` is a subgroup member, and if so
    /// which of `checks` it satisfies (`None` entries — out-of-range
    /// signatures — never pass): `None` iff `group.is_element(y)` is
    /// false. One squaring chain over `y` carries `q` and every `u2`
    /// ([`SchnorrGroup::pow_member_each`]), so the membership verdict is
    /// exact and comes with the signature verdicts instead of before them.
    pub fn member_passes_each(
        group: &SchnorrGroup,
        y: &BigUint,
        checks: &[Option<DsaCheck>],
    ) -> Option<Vec<bool>> {
        let powers = group.pow_member_each(y, &DsaCheck::key_exponents(checks))?;
        Some(DsaCheck::verdicts(group, checks, powers))
    }

    /// [`DsaPublicKey::member_passes_each`] for every untrusted element
    /// and the claims made under it, index-aligned; an element with no
    /// claims is only asked whether it is a member. One inversion serves
    /// every signature and the chains walk together
    /// ([`SchnorrGroup::pow_member_many`]) — each verdict is exactly what
    /// [`DsaPublicKey::verify_member`] gives that element and claim alone.
    pub fn verify_member_many(
        group: &SchnorrGroup,
        keys: &[MemberClaims<'_>],
    ) -> Vec<Option<Vec<bool>>> {
        let claims: Vec<(&[u8], &DsaSignature)> =
            keys.iter().flat_map(|(_, claims)| claims.iter().copied()).collect();
        let mut checks = DsaCheck::each(group, &claims).into_iter();
        let checks: Vec<Vec<Option<DsaCheck>>> =
            keys.iter().map(|(_, claims)| checks.by_ref().take(claims.len()).collect()).collect();
        let exps: Vec<Vec<&BigUint>> = checks.iter().map(|c| DsaCheck::key_exponents(c)).collect();
        let chains: Vec<Powers<'_>> =
            keys.iter().zip(&exps).map(|((y, _), exps)| (*y, &exps[..])).collect();
        let powers = group.pow_member_many(&chains);
        powers.into_iter().zip(&checks).map(|(p, c)| Some(DsaCheck::verdicts(group, c, p?))).collect()
    }
}

/// One untrusted key element and the `(message, signature)` claims made
/// under it: an item of [`DsaPublicKey::verify_member_many`].
pub type MemberClaims<'a> = (&'a BigUint, &'a [(&'a [u8], &'a DsaSignature)]);

/// What one signature asks of its key: `(g^u1 · y^u2 mod p) mod q = r`,
/// with `(u1, u2) = (h·s⁻¹, r·s⁻¹)` already computed.
#[derive(Debug, Clone)]
pub struct DsaCheck {
    u1: BigUint,
    u2: BigUint,
    r: BigUint,
}

impl DsaCheck {
    /// The check of every `(message, signature)` in `claims`, `None`
    /// where `(r, s)` is out of range. All the `s` are inverted by one
    /// ring inversion (Montgomery's trick), whichever keys the claims are
    /// made under.
    pub fn each(group: &SchnorrGroup, claims: &[(&[u8], &DsaSignature)]) -> Vec<Option<DsaCheck>> {
        let q = group.order();
        let scalar = group.scalar_ring();
        let in_range =
            |sig: &DsaSignature| !sig.r.is_zero() && &sig.r < q && !sig.s.is_zero() && &sig.s < q;
        let s_values: Vec<&BigUint> =
            claims.iter().filter(|(_, sig)| in_range(sig)).map(|(_, sig)| &sig.s).collect();
        let mut inverses = scalar
            .inv_each(&s_values)
            .expect("nonzero residues of a prime modulus are invertible")
            .into_iter();
        claims
            .iter()
            .map(|(message, sig)| {
                let w = in_range(sig).then(|| inverses.next().expect("one inverse per in-range s"))?;
                Some(DsaCheck {
                    u1: scalar.mul(&hash_message(group, message), &w),
                    u2: scalar.mul(&sig.r, &w),
                    r: sig.r.clone(),
                })
            })
            .collect()
    }

    /// The exponents the key behind `checks` is raised to: `u2` of every
    /// in-range signature.
    fn key_exponents(checks: &[Option<DsaCheck>]) -> Vec<&BigUint> {
        checks.iter().flatten().map(|check| &check.u2).collect()
    }

    /// The verdict of every check in `checks` under the key whose
    /// [`DsaCheck::key_exponents`] powers are `powers`.
    fn verdicts(group: &SchnorrGroup, checks: &[Option<DsaCheck>], powers: Vec<BigUint>) -> Vec<bool> {
        let mut powers = powers.into_iter();
        let verdict = |check: &Option<DsaCheck>| {
            check.as_ref().is_some_and(|check| {
                check.holds_for(group, &powers.next().expect("one power per in-range check"))
            })
        };
        checks.iter().map(verdict).collect()
    }

    /// Evaluates the check given `y^u2`, with `g^u1` from the generator
    /// table.
    fn holds_for(&self, group: &SchnorrGroup, y_u2: &BigUint) -> bool {
        group.elem_ring().mul(&group.pow_g(&self.u1), y_u2) % group.order() == self.r
    }
}

impl DsaKeyPair {
    /// Generates a fresh key pair.
    pub fn generate<R: Rng + ?Sized>(group: &SchnorrGroup, rng: &mut R) -> Self {
        let x = group.random_scalar(rng);
        let y = group.pow_g(&x);
        DsaKeyPair { x, public: DsaPublicKey::from_element(y) }
    }

    /// The verifying half.
    pub fn public(&self) -> &DsaPublicKey {
        &self.public
    }

    /// The secret scalar (exposed for the group-signature construction and
    /// for challenge–response ownership proofs).
    pub fn secret(&self) -> &BigUint {
        &self.x
    }

    /// Signs `message`.
    pub fn sign<R: Rng + ?Sized>(
        &self,
        group: &SchnorrGroup,
        message: &[u8],
        rng: &mut R,
    ) -> DsaSignature {
        let [sig] = self.sign_each(group, [message], rng);
        sig
    }

    /// Signs every message, in order, with one shared inversion of the
    /// nonces `k` (Montgomery's trick). The signatures and the draws from
    /// `rng` are exactly those of calling [`DsaKeyPair::sign`] on each
    /// message in turn.
    pub fn sign_each<R: Rng + ?Sized, const N: usize>(
        &self,
        group: &SchnorrGroup,
        messages: [&[u8]; N],
        rng: &mut R,
    ) -> [DsaSignature; N] {
        let q = group.order();
        let scalar = group.scalar_ring();
        // (k, r, h + x·r) per message.
        let drawn = messages.map(|message| {
            let h = hash_message(group, message);
            loop {
                let k = group.random_scalar(rng);
                let r = group.pow_g(&k) % q;
                if r.is_zero() {
                    continue;
                }
                // s = k^-1 (h + x r) mod q is zero exactly when h + x r is:
                // redraw before any later message draws its nonce.
                let t = scalar.add(&h, &scalar.mul(&self.x, &r));
                if t.is_zero() {
                    continue;
                }
                return (k, r, t);
            }
        });
        let nonces = drawn.each_ref().map(|(k, ..)| k);
        let mut inverses =
            scalar.inv_each(&nonces).expect("k in [1, q) over prime q is invertible").into_iter();
        drawn.map(|(_, r, t)| {
            let k_inv = inverses.next().expect("one inverse per nonce");
            DsaSignature { r, s: scalar.mul(&k_inv, &t) }
        })
    }
}

/// Hashes a message to a scalar, domain-bound to DSA and these parameters.
fn hash_message(group: &SchnorrGroup, message: &[u8]) -> BigUint {
    Transcript::new(DOMAIN)
        .int(group.modulus())
        .int(group.order())
        .bytes(message)
        .finish_scalar(group.order())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{test_group, test_rng};

    #[test]
    fn sign_verify_round_trip() {
        let mut rng = test_rng(1);
        let group = test_group();
        let kp = DsaKeyPair::generate(&group, &mut rng);
        let sig = kp.sign(&group, b"message", &mut rng);
        assert!(kp.public().verify(&group, b"message", &sig));
    }

    #[test]
    fn rejects_wrong_message() {
        let mut rng = test_rng(2);
        let group = test_group();
        let kp = DsaKeyPair::generate(&group, &mut rng);
        let sig = kp.sign(&group, b"message", &mut rng);
        assert!(!kp.public().verify(&group, b"other", &sig));
    }

    #[test]
    fn rejects_wrong_key() {
        let mut rng = test_rng(3);
        let group = test_group();
        let kp1 = DsaKeyPair::generate(&group, &mut rng);
        let kp2 = DsaKeyPair::generate(&group, &mut rng);
        let sig = kp1.sign(&group, b"message", &mut rng);
        assert!(!kp2.public().verify(&group, b"message", &sig));
    }

    #[test]
    fn rejects_out_of_range_components() {
        let mut rng = test_rng(4);
        let group = test_group();
        let kp = DsaKeyPair::generate(&group, &mut rng);
        let sig = kp.sign(&group, b"message", &mut rng);
        let zero_r = DsaSignature::from_parts(BigUint::zero(), sig.s.clone());
        let zero_s = DsaSignature::from_parts(sig.r.clone(), BigUint::zero());
        let big_r = DsaSignature::from_parts(group.order().clone(), sig.s.clone());
        assert!(!kp.public().verify(&group, b"message", &zero_r));
        assert!(!kp.public().verify(&group, b"message", &zero_s));
        assert!(!kp.public().verify(&group, b"message", &big_r));
    }

    #[test]
    fn signatures_are_randomized() {
        let mut rng = test_rng(5);
        let group = test_group();
        let kp = DsaKeyPair::generate(&group, &mut rng);
        let s1 = kp.sign(&group, b"m", &mut rng);
        let s2 = kp.sign(&group, b"m", &mut rng);
        assert_ne!(s1, s2);
        assert!(kp.public().verify(&group, b"m", &s1));
        assert!(kp.public().verify(&group, b"m", &s2));
    }
}
