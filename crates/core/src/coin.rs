//! WhoPay coins and bindings.
//!
//! "The first major difference of WhoPay from PPay is that coins are
//! identified by public keys, rather than serial numbers." (§4.1)
//!
//! A [`MintedCoin`] is the broker-signed coin public key (with the owner
//! identity in the clear in the basic scheme, or absent/behind an i3
//! handle in the owner-anonymous extension, §5.2). A [`Binding`] is the
//! owner's statement "coin `pkC` is now represented by holder key `pkH`",
//! with a sequence number and expiration date, signed by the coin's own
//! key (or by the broker during owner downtime).

use whopay_crypto::dsa::{DsaPublicKey, DsaSignature};
use whopay_crypto::hashio::Transcript;
use whopay_net::Handle;
use whopay_num::{BigUint, SchnorrGroup};

use crate::codec::{DecodeError, PublicStateRef, Reader, Writer};
use crate::sigcache::{self, SigCache};
use crate::types::{CoinId, PeerId, Timestamp};

/// How a coin names its owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OwnerTag {
    /// Basic WhoPay: the owner's identity is in the coin (`C = {U, pkC}skB`).
    Identified(PeerId),
    /// Owner-anonymous extension: no owner information at all
    /// (`C = {pkC}skB`); the owner is reached out-of-band.
    Anonymous,
    /// Owner-anonymous with an i3 indirection handle
    /// (`C = {h, pkC}skB`): payers message the handle.
    AnonymousWithHandle(Handle),
}

/// The broker-signed coin: the root of a coin's chain of custody.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MintedCoin {
    owner: OwnerTag,
    coin_pk: BigUint,
    broker_sig: DsaSignature,
}

impl MintedCoin {
    /// Canonical bytes the broker signs at mint time.
    pub fn signed_bytes(owner: &OwnerTag, coin_pk: &BigUint) -> Vec<u8> {
        let t = Transcript::new("whopay/coin/v1");
        let t = match owner {
            OwnerTag::Identified(peer) => t.u64(0).u64(peer.0),
            OwnerTag::Anonymous => t.u64(1).u64(0),
            OwnerTag::AnonymousWithHandle(h) => t.u64(2).bytes(&h.0),
        };
        t.int(coin_pk).finish().to_vec()
    }

    /// Assembles a coin (broker side).
    pub fn from_parts(owner: OwnerTag, coin_pk: BigUint, broker_sig: DsaSignature) -> Self {
        MintedCoin { owner, coin_pk, broker_sig }
    }

    /// The owner tag.
    pub fn owner(&self) -> &OwnerTag {
        &self.owner
    }

    /// The coin public key `pkC` — the coin's identity.
    pub fn coin_pk(&self) -> &BigUint {
        &self.coin_pk
    }

    /// The coin's stable id (hash of `pkC`).
    pub fn id(&self) -> CoinId {
        CoinId::from_pk(&self.coin_pk)
    }

    /// The broker's mint signature (for wire encoding).
    pub fn broker_sig(&self) -> &DsaSignature {
        &self.broker_sig
    }

    /// Verifies the broker's mint signature and that `pkC` is a valid
    /// group element.
    pub fn verify(&self, group: &SchnorrGroup, broker: &DsaPublicKey) -> bool {
        group.is_element(&self.coin_pk)
            && broker.verify(group, &Self::signed_bytes(&self.owner, &self.coin_pk), &self.broker_sig)
    }

    /// [`MintedCoin::verify`] through a verdict cache: every hop of a
    /// transfer chain and every deposit re-checks the same mint signature,
    /// so repeats become hash lookups.
    pub fn verify_cached(&self, group: &SchnorrGroup, broker: &DsaPublicKey, cache: &SigCache) -> bool {
        cache.verify_with(self.mint_cache_key(group, broker), || self.verify(group, broker))
    }

    /// The cache key for this coin's mint signature — exposed so the
    /// broker can prime the cache at mint time.
    pub fn mint_cache_key(
        &self,
        group: &SchnorrGroup,
        broker: &DsaPublicKey,
    ) -> whopay_crypto::sha256::Digest {
        let msg = Self::signed_bytes(&self.owner, &self.coin_pk);
        sigcache::cache_key(group, broker.element(), &msg, &self.broker_sig)
    }
}

/// Who signed a binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindingSigner {
    /// The coin's own key (normal operation; only the owner knows `skC`).
    CoinKey,
    /// The broker (downtime transfers/renewals).
    Broker,
}

/// `Coin = {C, pkH, seq, exp_date}` — the owner's signed statement of who
/// holds the coin now.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    coin_pk: BigUint,
    holder_pk: BigUint,
    seq: u64,
    expires: Timestamp,
    signer: BindingSigner,
    sig: DsaSignature,
}

impl Binding {
    /// Canonical bytes the signer commits to.
    pub fn signed_bytes(
        coin_pk: &BigUint,
        holder_pk: &BigUint,
        seq: u64,
        expires: Timestamp,
        signer: BindingSigner,
    ) -> Vec<u8> {
        let tag = match signer {
            BindingSigner::CoinKey => 0u64,
            BindingSigner::Broker => 1u64,
        };
        Transcript::new("whopay/binding/v1")
            .int(coin_pk)
            .int(holder_pk)
            .u64(seq)
            .u64(expires.0)
            .u64(tag)
            .finish()
            .to_vec()
    }

    /// Assembles a binding from parts.
    pub fn from_parts(
        coin_pk: BigUint,
        holder_pk: BigUint,
        seq: u64,
        expires: Timestamp,
        signer: BindingSigner,
        sig: DsaSignature,
    ) -> Self {
        Binding { coin_pk, holder_pk, seq, expires, signer, sig }
    }

    /// The coin this binding is about.
    pub fn coin_pk(&self) -> &BigUint {
        &self.coin_pk
    }

    /// The coin's stable id.
    pub fn coin_id(&self) -> CoinId {
        CoinId::from_pk(&self.coin_pk)
    }

    /// The current holder's public key (a pseudonym, not an identity).
    pub fn holder_pk(&self) -> &BigUint {
        &self.holder_pk
    }

    /// The sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The expiration date.
    pub fn expires(&self) -> Timestamp {
        self.expires
    }

    /// Who signed this binding.
    pub fn signer(&self) -> BindingSigner {
        self.signer
    }

    /// The raw signature (for wire encoding).
    pub fn raw_sig(&self) -> &DsaSignature {
        &self.sig
    }

    /// Whether the binding is expired at `now`.
    pub fn is_expired(&self, now: Timestamp) -> bool {
        !now.is_before(self.expires)
    }

    /// Verifies the signature: under the coin key itself for
    /// [`BindingSigner::CoinKey`], under the broker key for
    /// [`BindingSigner::Broker`].
    pub fn verify(&self, group: &SchnorrGroup, broker: &DsaPublicKey) -> bool {
        let msg =
            Self::signed_bytes(&self.coin_pk, &self.holder_pk, self.seq, self.expires, self.signer);
        match self.signer {
            BindingSigner::CoinKey => {
                DsaPublicKey::verify_member(group, &self.coin_pk, &msg, &self.sig)
            }
            BindingSigner::Broker => broker.verify(group, &msg, &self.sig),
        }
    }

    /// [`Binding::verify`] through a verdict cache.
    pub fn verify_cached(&self, group: &SchnorrGroup, broker: &DsaPublicKey, cache: &SigCache) -> bool {
        cache.verify_with(self.cache_key(group, broker), || self.verify(group, broker))
    }

    /// The element this binding's signature is checked under — the coin
    /// key or the broker key, matching [`Binding::verify`] — and the bytes
    /// it covers.
    pub fn signed_claim<'a>(&'a self, broker: &'a DsaPublicKey) -> (&'a BigUint, Vec<u8>) {
        let msg =
            Self::signed_bytes(&self.coin_pk, &self.holder_pk, self.seq, self.expires, self.signer);
        let signer = match self.signer {
            BindingSigner::CoinKey => &self.coin_pk,
            BindingSigner::Broker => broker.element(),
        };
        (signer, msg)
    }

    /// The cache key of this binding's signature.
    pub fn cache_key(
        &self,
        group: &SchnorrGroup,
        broker: &DsaPublicKey,
    ) -> whopay_crypto::sha256::Digest {
        let (signer, msg) = self.signed_claim(broker);
        sigcache::cache_key(group, signer, &msg, &self.sig)
    }

    /// The *public state* of the binding: `(holder_pk, seq, expires)`.
    pub fn public_state(&self) -> PublicBindingState {
        PublicBindingState { holder_pk: self.holder_pk.clone(), seq: self.seq, expires: self.expires }
    }

    /// Encodes the binding's [`Binding::public_state`] as the DHT record
    /// value — the record table's `PublicStateRef` (the record's own
    /// signature provides integrity, so the binding signature is not
    /// duplicated).
    pub fn public_state_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        PublicStateRef::put(&mut w, &self.public_state());
        w.finish()
    }

    /// Decodes public state produced by [`Binding::public_state_bytes`].
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncated or trailing bytes.
    pub fn decode_public_state(bytes: &[u8]) -> Result<PublicBindingState, DecodeError> {
        let mut r = Reader::new(bytes);
        let state = PublicStateRef::parse(&mut r)?;
        r.finish()?;
        Ok(state.to_state())
    }
}

/// The owner-independent view of a binding, as published in the DHT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublicBindingState {
    /// Current holder key.
    pub holder_pk: BigUint,
    /// Current sequence number.
    pub seq: u64,
    /// Current expiration date.
    pub expires: Timestamp,
}

/// Verifiable evidence of an owner double-spending a coin: two valid
/// bindings for the same coin and sequence number naming different
/// holders. Only the holder of `skC` (the owner) can create such a pair,
/// so the evidence is self-incriminating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoubleSpendEvidence {
    /// First conflicting binding.
    pub a: Binding,
    /// Second conflicting binding.
    pub b: Binding,
}

impl DoubleSpendEvidence {
    /// Checks the evidence: both bindings verify, same coin, same seq,
    /// different holder keys.
    pub fn verify(&self, group: &SchnorrGroup, broker: &DsaPublicKey) -> bool {
        self.a.coin_pk == self.b.coin_pk
            && self.a.seq == self.b.seq
            && self.a.holder_pk != self.b.holder_pk
            && self.a.verify(group, broker)
            && self.b.verify(group, broker)
    }

    /// [`DoubleSpendEvidence::verify`] through a verdict cache. The same
    /// evidence pair is typically examined three times — by the victim, the
    /// broker, and the judge — and each binding may already be cached from
    /// the payment that surfaced it.
    pub fn verify_cached(&self, group: &SchnorrGroup, broker: &DsaPublicKey, cache: &SigCache) -> bool {
        self.a.coin_pk == self.b.coin_pk
            && self.a.seq == self.b.seq
            && self.a.holder_pk != self.b.holder_pk
            && self.a.verify_cached(group, broker, cache)
            && self.b.verify_cached(group, broker, cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whopay_crypto::dsa::DsaKeyPair;
    use whopay_crypto::testing::{test_rng, tiny_group};

    fn mint(owner: OwnerTag, seed: u64) -> (MintedCoin, DsaKeyPair, DsaKeyPair) {
        let group = tiny_group();
        let mut rng = test_rng(seed);
        let broker = DsaKeyPair::generate(group, &mut rng);
        let coin_keys = DsaKeyPair::generate(group, &mut rng);
        let pk = coin_keys.public().element().clone();
        let sig = broker.sign(group, &MintedCoin::signed_bytes(&owner, &pk), &mut rng);
        (MintedCoin::from_parts(owner, pk, sig), coin_keys, broker)
    }

    #[test]
    fn minted_coin_verifies_in_all_owner_modes() {
        let group = tiny_group();
        let mut rng = test_rng(1);
        for owner in [
            OwnerTag::Identified(PeerId(5)),
            OwnerTag::Anonymous,
            OwnerTag::AnonymousWithHandle(Handle::random(&mut rng)),
        ] {
            let (coin, _, broker) = mint(owner, 100);
            assert!(coin.verify(group, broker.public()), "{owner:?}");
        }
    }

    #[test]
    fn minted_coin_owner_tag_is_authenticated() {
        let group = tiny_group();
        let (coin, _, broker) = mint(OwnerTag::Identified(PeerId(1)), 2);
        let forged = MintedCoin::from_parts(
            OwnerTag::Identified(PeerId(2)),
            coin.coin_pk().clone(),
            coin.broker_sig.clone(),
        );
        assert!(!forged.verify(group, broker.public()));
        // Removing the owner tag also breaks the signature.
        let anonymized = MintedCoin::from_parts(
            OwnerTag::Anonymous,
            coin.coin_pk().clone(),
            coin.broker_sig.clone(),
        );
        assert!(!anonymized.verify(group, broker.public()));
    }

    #[test]
    fn binding_signed_by_coin_key_verifies() {
        let group = tiny_group();
        let mut rng = test_rng(3);
        let (coin, coin_keys, broker) = mint(OwnerTag::Anonymous, 3);
        let holder = DsaKeyPair::generate(group, &mut rng);
        let msg = Binding::signed_bytes(
            coin.coin_pk(),
            holder.public().element(),
            1,
            Timestamp(1000),
            BindingSigner::CoinKey,
        );
        let sig = coin_keys.sign(group, &msg, &mut rng);
        let binding = Binding::from_parts(
            coin.coin_pk().clone(),
            holder.public().element().clone(),
            1,
            Timestamp(1000),
            BindingSigner::CoinKey,
            sig,
        );
        assert!(binding.verify(group, broker.public()));
        assert!(!binding.is_expired(Timestamp(999)));
        assert!(binding.is_expired(Timestamp(1000)));
    }

    #[test]
    fn binding_signer_role_not_interchangeable() {
        let group = tiny_group();
        let mut rng = test_rng(4);
        let (coin, coin_keys, broker) = mint(OwnerTag::Anonymous, 4);
        let holder = DsaKeyPair::generate(group, &mut rng);
        let msg = Binding::signed_bytes(
            coin.coin_pk(),
            holder.public().element(),
            1,
            Timestamp(1000),
            BindingSigner::CoinKey,
        );
        let sig = coin_keys.sign(group, &msg, &mut rng);
        let as_broker = Binding::from_parts(
            coin.coin_pk().clone(),
            holder.public().element().clone(),
            1,
            Timestamp(1000),
            BindingSigner::Broker,
            sig,
        );
        assert!(!as_broker.verify(group, broker.public()));
    }

    #[test]
    fn public_state_round_trips() {
        let group = tiny_group();
        let mut rng = test_rng(5);
        let (coin, coin_keys, _) = mint(OwnerTag::Anonymous, 5);
        let holder = DsaKeyPair::generate(group, &mut rng);
        let msg = Binding::signed_bytes(
            coin.coin_pk(),
            holder.public().element(),
            7,
            Timestamp(555),
            BindingSigner::CoinKey,
        );
        let sig = coin_keys.sign(group, &msg, &mut rng);
        let binding = Binding::from_parts(
            coin.coin_pk().clone(),
            holder.public().element().clone(),
            7,
            Timestamp(555),
            BindingSigner::CoinKey,
            sig,
        );
        let bytes = binding.public_state_bytes();
        let state = Binding::decode_public_state(&bytes).unwrap();
        assert_eq!(state.holder_pk, *binding.holder_pk());
        assert_eq!(state.seq, 7);
        assert_eq!(state.expires, Timestamp(555));
        // The record table's `PublicStateRef`: the holder key behind its
        // length (24 bytes), seq 7 and expiry 555 as varints.
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "18184dd1e19623d7777250004fd434e4ec2e5c289361938a2d07ab04");
        let trailing = [&bytes[..], &[0]].concat();
        assert_eq!(Binding::decode_public_state(&trailing), Err(DecodeError));
        assert_eq!(Binding::decode_public_state(&bytes[..bytes.len() - 1]), Err(DecodeError));
    }

    #[test]
    fn double_spend_evidence_verifies_only_for_real_conflicts() {
        let group = tiny_group();
        let mut rng = test_rng(6);
        let (coin, coin_keys, broker) = mint(OwnerTag::Anonymous, 6);
        let h1 = DsaKeyPair::generate(group, &mut rng);
        let h2 = DsaKeyPair::generate(group, &mut rng);
        let make = |holder_pk: &BigUint, seq: u64, rng: &mut rand::rngs::StdRng| {
            let msg = Binding::signed_bytes(
                coin.coin_pk(),
                holder_pk,
                seq,
                Timestamp(1000),
                BindingSigner::CoinKey,
            );
            let sig = coin_keys.sign(group, &msg, rng);
            Binding::from_parts(
                coin.coin_pk().clone(),
                holder_pk.clone(),
                seq,
                Timestamp(1000),
                BindingSigner::CoinKey,
                sig,
            )
        };
        let b1 = make(h1.public().element(), 3, &mut rng);
        let b2 = make(h2.public().element(), 3, &mut rng);
        let b3 = make(h2.public().element(), 4, &mut rng);

        assert!(DoubleSpendEvidence { a: b1.clone(), b: b2.clone() }.verify(group, broker.public()));
        // Different seq: a legitimate transfer chain, not a double spend.
        assert!(!DoubleSpendEvidence { a: b1.clone(), b: b3 }.verify(group, broker.public()));
        // Same binding twice is not a conflict.
        assert!(!DoubleSpendEvidence { a: b1.clone(), b: b1 }.verify(group, broker.public()));
    }
}
