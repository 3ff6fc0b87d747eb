//! Group signatures: anonymous, unlinkable signatures that a designated
//! *judge* can open.
//!
//! The WhoPay paper (§3.2) assumes a Chaum–van Heyst style group-signature
//! scheme: every user registers with the judge and receives a group private
//! key; anyone can check a group signature against the master public key
//! without learning who signed; the judge, holding the master private key,
//! can identify the signer.
//!
//! # Construction
//!
//! We instantiate that interface with a concrete scheme over a Schnorr
//! group:
//!
//! * The judge holds an ElGamal master key pair `(x_J, y_J)`.
//! * Member `i` holds a discrete-log key pair `(x_i, y_i = g^{x_i})` and
//!   registers `y_i` (bound to its real identity) with the judge.
//! * To sign message `m`, the member picks fresh `r`, encrypts its own key
//!   `(c1, c2) = (g^r, y_i · y_J^r)`, and attaches a Fiat–Shamir proof of
//!   knowledge of `(x_i, r)` such that `c1 = g^r` and `c2 = g^{x_i}·y_J^r`
//!   (a conjunctive Schnorr representation proof bound to `m`).
//! * Anyone verifies the proof against `y_J`; nothing in the signature
//!   identifies the member, and fresh `r` makes signatures unlinkable.
//! * The judge opens by decrypting: `y_i = c2 / c1^{x_J}`, then looks up
//!   the registered identity.
//!
//! Membership of the encrypted key is enforced at *open* time: a signature
//! produced under an unregistered key verifies, but opening it yields
//! [`OpenOutcome::Unregistered`]: the fraud is detected, but it names no
//! one, short of the paper's detect-and-punish security model (§4.3).
//! DESIGN.md discusses this substitution.

use std::collections::HashMap;

use rand::Rng;
use whopay_num::{BigUint, SchnorrGroup};

use crate::coupon::GroupCoupon;
use crate::elgamal::{ElGamalCiphertext, ElGamalKeyPair, ElGamalPublicKey};
use crate::hashio::Transcript;

/// Domain label for the Fiat–Shamir challenge.
const DOMAIN: &str = "whopay/group-sig/v1";

/// The group master *public* key, distributed to every verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupPublicKey {
    judge: ElGamalPublicKey,
}

/// A member's group private key (the paper's `gk_U`). Its `Debug`
/// prints the member element only.
#[derive(Clone, PartialEq, Eq)]
pub struct GroupMemberKey {
    x: BigUint,
    y: BigUint,
}

impl std::fmt::Debug for GroupMemberKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupMemberKey").field("y", &self.y).finish_non_exhaustive()
    }
}

/// A group signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSignature {
    /// ElGamal encryption of the signer's member key under the judge key.
    ct: ElGamalCiphertext,
    /// Fiat–Shamir challenge.
    e: BigUint,
    /// Response for the encryption randomness `r`.
    z_r: BigUint,
    /// Response for the member secret `x_i`.
    z_x: BigUint,
}

impl GroupSignature {
    /// The identity-escrow ciphertext.
    pub fn ciphertext(&self) -> &ElGamalCiphertext {
        &self.ct
    }

    /// The Fiat–Shamir challenge.
    pub fn challenge_scalar(&self) -> &BigUint {
        &self.e
    }

    /// The response for the encryption randomness.
    pub fn z_r(&self) -> &BigUint {
        &self.z_r
    }

    /// The response for the member secret.
    pub fn z_x(&self) -> &BigUint {
        &self.z_x
    }

    /// Reassembles a signature from its components (e.g. after wire
    /// decoding). Invalid components simply fail verification.
    pub fn from_parts(ct: ElGamalCiphertext, e: BigUint, z_r: BigUint, z_x: BigUint) -> Self {
        GroupSignature { ct, e, z_r, z_x }
    }

    /// Whether the challenge and both responses are reduced mod `q`.
    pub(crate) fn in_range(&self, group: &SchnorrGroup) -> bool {
        let q = group.order();
        &self.e < q && &self.z_r < q && &self.z_x < q
    }
}

/// Result of the judge opening a signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpenOutcome<I> {
    /// The signer is the registered member with this identity.
    Member(I),
    /// The signature verifies but the signing key was never registered:
    /// detected fraud that names no one (the key itself is the evidence).
    Unregistered(BigUint),
}

/// The judge: issues member keys, keeps the identity registry, and opens
/// signatures. Generic over the application's identity type `I`.
///
/// # Examples
///
/// ```
/// use whopay_num::SchnorrGroup;
/// use whopay_crypto::group_sig::{GroupManager, OpenOutcome};
///
/// let mut rng = rand::rng();
/// let group = SchnorrGroup::generate(192, 96, &mut rng);
/// let mut judge = GroupManager::new(group.clone(), &mut rng);
/// let alice = judge.enroll("alice", &mut rng);
///
/// let sig = alice.sign(&group, judge.public_key(), b"transfer coin", &mut rng);
/// assert!(judge.public_key().verify(&group, b"transfer coin", &sig));
/// assert_eq!(judge.open(&sig), OpenOutcome::Member(&"alice"));
/// ```
///
/// Its `Debug` prints the group, the public key and the member count:
/// the master secret opens every signature.
#[derive(Clone)]
pub struct GroupManager<I> {
    group: SchnorrGroup,
    master: ElGamalKeyPair,
    public: GroupPublicKey,
    /// Registered member keys, keyed by the canonical bytes of `y_i`.
    registry: HashMap<Vec<u8>, I>,
}

impl<I> std::fmt::Debug for GroupManager<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupManager")
            .field("group", &self.group)
            .field("public", &self.public)
            .field("members", &self.registry.len())
            .finish_non_exhaustive()
    }
}

impl GroupPublicKey {
    /// The underlying judge ElGamal key.
    pub fn judge_key(&self) -> &ElGamalPublicKey {
        &self.judge
    }

    /// Verifies a group signature over `message`.
    ///
    /// A `true` result means: *some* holder of a discrete-log key produced
    /// this signature and encrypted that key to the judge; it says nothing
    /// about who. Combine with [`GroupManager::open`] for attribution.
    ///
    /// A one-signature call of [`crate::batch::verify_many`]: an
    /// out-of-range signature costs no chain, the membership of `c1` and
    /// `c2` rides the chains that raise them to `-e`, `g`'s two powers come
    /// from its comb and `y_J`'s from its table.
    pub fn verify(&self, group: &SchnorrGroup, message: &[u8], sig: &GroupSignature) -> bool {
        crate::batch::verify_many(group, &[], Some((self, &[(message, sig)]))).group_sigs[0]
    }

    /// Whether `sig`, in range, with `fixed = [g^{z_r}, g^{z_x},
    /// y_J^{z_r}]` and both ciphertext halves proven members and raised to
    /// `-e` (`halves_e`), answers its own challenge.
    pub(crate) fn accepts(
        &self,
        group: &SchnorrGroup,
        message: &[u8],
        sig: &GroupSignature,
        fixed: &[BigUint; 3],
        halves_e: [&BigUint; 2],
    ) -> bool {
        let elem = group.elem_ring();
        let [g_z_r, g_z_x, y_j_z_r] = fixed;
        // a1' = g^{z_r} · c1^{-e}
        let a1 = elem.mul(g_z_r, halves_e[0]);
        // a2' = g^{z_x} · y_J^{z_r} · c2^{-e}
        let a2 = elem.mul(&elem.mul(g_z_x, y_j_z_r), halves_e[1]);
        challenge(group, self, &sig.ct, &a1, &a2, message) == sig.e
    }
}

impl GroupMemberKey {
    /// The member's verification element `y_i = g^{x_i}` (what the judge
    /// registers; never appears in signatures).
    pub fn member_element(&self) -> &BigUint {
        &self.y
    }

    /// Generates a member key *without* enrolling it — used by tests and by
    /// fraud scenarios exercising unregistered signers.
    pub fn generate_unregistered<R: Rng + ?Sized>(group: &SchnorrGroup, rng: &mut R) -> Self {
        let x = group.random_scalar(rng);
        let y = group.pow_g(&x);
        GroupMemberKey { x, y }
    }

    /// Produces an anonymous group signature over `message`:
    /// [`GroupMemberKey::sign_with`] a fresh coupon.
    pub fn sign<R: Rng + ?Sized>(
        &self,
        group: &SchnorrGroup,
        gpk: &GroupPublicKey,
        message: &[u8],
        rng: &mut R,
    ) -> GroupSignature {
        self.sign_with(group, gpk, message, GroupCoupon::draw(group, gpk, rng))
    }

    /// The group signature over `message` that `coupon`, made under
    /// `gpk`'s judge key, pays for: the escrow `(g^r, y_i·y_J^r)`, the
    /// commitments `g^ρ_r` and `g^ρ_x·y_J^ρ_r`, and the responses.
    pub fn sign_with(
        &self,
        group: &SchnorrGroup,
        gpk: &GroupPublicKey,
        message: &[u8],
        coupon: GroupCoupon,
    ) -> GroupSignature {
        let elem = group.elem_ring();
        let scalar = group.scalar_ring();
        let GroupCoupon { r, rho_r, rho_x, g_r, g_rho_r, g_rho_x, y_r, y_rho_r } = coupon;
        let ct = ElGamalCiphertext::from_parts(g_r, elem.mul(&self.y, &y_r));

        // Commitments for the conjunctive representation proof.
        let a1 = g_rho_r;
        let a2 = elem.mul(&g_rho_x, &y_rho_r);

        let e = challenge(group, gpk, &ct, &a1, &a2, message);
        let z_r = scalar.add(&rho_r, &scalar.mul(&e, &r));
        let z_x = scalar.add(&rho_x, &scalar.mul(&e, &self.x));
        GroupSignature { ct, e, z_r, z_x }
    }
}

impl<I> GroupManager<I> {
    /// Creates a judge with a fresh master key pair.
    pub fn new<R: Rng + ?Sized>(group: SchnorrGroup, rng: &mut R) -> Self {
        let master = ElGamalKeyPair::generate(&group, rng);
        let public = GroupPublicKey { judge: master.public().clone() };
        GroupManager { group, master, public, registry: HashMap::new() }
    }

    /// Reconstructs a judge from a recovered master secret (see
    /// [`crate::shamir`] for splitting it across N judges, as §3.2 of the
    /// paper suggests). The registry starts empty.
    pub fn from_master_secret(group: SchnorrGroup, x: BigUint) -> Self {
        let master = ElGamalKeyPair::from_secret(&group, x);
        let public = GroupPublicKey { judge: master.public().clone() };
        GroupManager { group, master, public, registry: HashMap::new() }
    }

    /// The master public key to distribute to verifiers.
    pub fn public_key(&self) -> &GroupPublicKey {
        &self.public
    }

    /// The master secret scalar (for Shamir splitting).
    pub fn master_secret(&self) -> &BigUint {
        self.master.secret()
    }

    /// The group parameters.
    pub fn group(&self) -> &SchnorrGroup {
        &self.group
    }

    /// Number of enrolled members.
    pub fn member_count(&self) -> usize {
        self.registry.len()
    }

    /// Enrolls a new member: generates a group private key, records the
    /// identity against it, and hands the key to the member.
    pub fn enroll<R: Rng + ?Sized>(&mut self, identity: I, rng: &mut R) -> GroupMemberKey {
        let key = GroupMemberKey::generate_unregistered(&self.group, rng);
        self.registry.insert(key.y.to_be_bytes(), identity);
        key
    }

    /// Registers an externally generated member element (the member keeps
    /// its own secret; the judge only needs `y_i`).
    pub fn register_element(&mut self, y: &BigUint, identity: I) {
        self.registry.insert(y.to_be_bytes(), identity);
    }

    /// The registered `(member element, identity)` pairs in ascending
    /// element order — the public registry a replicated judge needs
    /// alongside the master-key shares, the same list whatever the map's
    /// hash seed.
    pub fn registry_pairs(&self) -> Vec<(BigUint, I)>
    where
        I: Clone,
    {
        let mut pairs: Vec<_> =
            self.registry.iter().map(|(k, v)| (BigUint::from_be_bytes(k), v.clone())).collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        pairs
    }

    /// Opens a signature, recovering the signer.
    ///
    /// The caller should have verified the signature first; opening an
    /// invalid signature yields a meaningless element.
    pub fn open(&self, sig: &GroupSignature) -> OpenOutcome<&I> {
        let y = self.master.decrypt(&self.group, &sig.ct);
        match self.registry.get(&y.to_be_bytes()) {
            Some(identity) => OpenOutcome::Member(identity),
            None => OpenOutcome::Unregistered(y),
        }
    }
}

/// Fiat–Shamir challenge binding statement, commitments, and message.
pub(crate) fn challenge(
    group: &SchnorrGroup,
    gpk: &GroupPublicKey,
    ct: &ElGamalCiphertext,
    a1: &BigUint,
    a2: &BigUint,
    message: &[u8],
) -> BigUint {
    Transcript::new(DOMAIN)
        .int(group.modulus())
        .int(gpk.judge.element())
        .int(ct.c1())
        .int(ct.c2())
        .int(a1)
        .int(a2)
        .bytes(message)
        .finish_scalar(group.order())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{test_group, test_rng};

    fn setup() -> (SchnorrGroup, GroupManager<String>) {
        let mut rng = test_rng(30);
        let group = test_group();
        let judge = GroupManager::new(group.clone(), &mut rng);
        (group, judge)
    }

    #[test]
    fn sign_verify_open_round_trip() {
        let (group, mut judge) = setup();
        let mut rng = test_rng(31);
        let alice = judge.enroll("alice".to_string(), &mut rng);
        let sig = alice.sign(&group, judge.public_key(), b"msg", &mut rng);
        assert!(judge.public_key().verify(&group, b"msg", &sig));
        assert_eq!(judge.open(&sig), OpenOutcome::Member(&"alice".to_string()));
    }

    #[test]
    fn verification_rejects_tampered_message() {
        let (group, mut judge) = setup();
        let mut rng = test_rng(32);
        let alice = judge.enroll("alice".to_string(), &mut rng);
        let sig = alice.sign(&group, judge.public_key(), b"msg", &mut rng);
        assert!(!judge.public_key().verify(&group, b"other", &sig));
    }

    #[test]
    fn signatures_are_unlinkable_ciphertexts() {
        // Two signatures by the same member share no components.
        let (group, mut judge) = setup();
        let mut rng = test_rng(33);
        let alice = judge.enroll("alice".to_string(), &mut rng);
        let s1 = alice.sign(&group, judge.public_key(), b"m", &mut rng);
        let s2 = alice.sign(&group, judge.public_key(), b"m", &mut rng);
        assert_ne!(s1.ct, s2.ct);
        assert_ne!(s1.e, s2.e);
        // Both still open to alice.
        assert_eq!(judge.open(&s1), judge.open(&s2));
    }

    #[test]
    fn open_distinguishes_members() {
        let (group, mut judge) = setup();
        let mut rng = test_rng(34);
        let alice = judge.enroll("alice".to_string(), &mut rng);
        let bob = judge.enroll("bob".to_string(), &mut rng);
        let sa = alice.sign(&group, judge.public_key(), b"m", &mut rng);
        let sb = bob.sign(&group, judge.public_key(), b"m", &mut rng);
        assert_eq!(judge.open(&sa), OpenOutcome::Member(&"alice".to_string()));
        assert_eq!(judge.open(&sb), OpenOutcome::Member(&"bob".to_string()));
    }

    #[test]
    fn unregistered_signer_is_detected_at_open() {
        let (group, judge) = setup();
        let mut rng = test_rng(35);
        let rogue = GroupMemberKey::generate_unregistered(&group, &mut rng);
        let sig = rogue.sign(&group, judge.public_key(), b"m", &mut rng);
        // Verifies (sound proof of key knowledge)…
        assert!(judge.public_key().verify(&group, b"m", &sig));
        // …but the judge identifies it as a non-member, with evidence.
        match judge.open(&sig) {
            OpenOutcome::Unregistered(y) => assert_eq!(&y, rogue.member_element()),
            other => panic!("expected Unregistered, got {other:?}"),
        }
    }

    #[test]
    fn forged_responses_fail_verification() {
        let (group, mut judge) = setup();
        let mut rng = test_rng(36);
        let alice = judge.enroll("alice".to_string(), &mut rng);
        let mut sig = alice.sign(&group, judge.public_key(), b"m", &mut rng);
        sig.z_x = group.scalar_ring().add(&sig.z_x, &BigUint::one());
        assert!(!judge.public_key().verify(&group, b"m", &sig));
    }

    #[test]
    fn judge_rebuilt_from_master_secret_can_open() {
        let (group, mut judge) = setup();
        let mut rng = test_rng(37);
        let alice = judge.enroll("alice".to_string(), &mut rng);
        let sig = alice.sign(&group, judge.public_key(), b"m", &mut rng);

        let mut judge2: GroupManager<String> =
            GroupManager::from_master_secret(group.clone(), judge.master_secret().clone());
        judge2.register_element(alice.member_element(), "alice".to_string());
        assert_eq!(judge2.public_key(), judge.public_key());
        assert_eq!(judge2.open(&sig), OpenOutcome::Member(&"alice".to_string()));
    }

    /// Two managers built from one seed list one registry, in ascending
    /// element order, whatever each map's hash seed.
    #[test]
    fn registry_pairs_are_a_function_of_the_seed() {
        let registry = || {
            let (_, mut judge) = setup();
            let mut rng = test_rng(38);
            for member in 0..16 {
                judge.enroll(format!("member {member}"), &mut rng);
            }
            judge.registry_pairs()
        };
        let (a, b) = (registry(), registry());
        assert_eq!(a.len(), 16);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0), "ascending element order");
    }
}
