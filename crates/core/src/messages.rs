//! WhoPay protocol messages.
//!
//! Each message carries exactly the signatures §4.2 prescribes: coin-key
//! signatures prove holdership/ownership, group signatures provide
//! fairness (judge-openable anonymity). The canonical signed bytes for
//! every message are defined here so signer and verifier cannot drift.

use whopay_crypto::dsa::{DsaCheck, DsaKeyPair, DsaPublicKey, DsaSignature};
use whopay_crypto::group_sig::{GroupMemberKey, GroupPublicKey, GroupSignature};
use whopay_crypto::hashio::Transcript;
use whopay_num::{BigUint, SchnorrGroup};

use crate::coin::{Binding, BindingSigner, MintedCoin, OwnerTag};
use crate::sigcache::SigCache;
use crate::types::PeerId;

/// A payment nonce: freshness challenge from payee to payer.
pub type Nonce = [u8; 32];

/// Payee-side secret state for one incoming payment: the fresh holder key
/// pair ("V generates a random public/private key pair, keeps the private
/// key secret") and the challenge nonce.
#[derive(Debug)]
pub struct ReceiveSession {
    /// The fresh holder key pair; its public half is in the invite.
    pub holder_keys: DsaKeyPair,
    /// Challenge nonce the payer must answer.
    pub nonce: Nonce,
}

/// The payee's opening message for an issue or transfer: the fresh holder
/// public key, a challenge nonce, and a group signature (so the payee
/// stays anonymous but accountable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaymentInvite {
    /// Fresh holder public key `pkC_payee`.
    pub holder_pk: BigUint,
    /// Challenge nonce for the ownership proof.
    pub nonce: Nonce,
    /// Payee's group signature over the invite.
    pub group_sig: GroupSignature,
}

impl PaymentInvite {
    /// Canonical bytes the payee group-signs.
    pub fn signed_bytes(holder_pk: &BigUint, nonce: &Nonce) -> Vec<u8> {
        Transcript::new("whopay/invite/v1").int(holder_pk).bytes(nonce).finish().to_vec()
    }

    /// Builds an invite (and the matching secret session).
    pub fn create<R: rand::Rng + ?Sized>(
        group: &SchnorrGroup,
        gpk: &GroupPublicKey,
        gk: &GroupMemberKey,
        rng: &mut R,
    ) -> (PaymentInvite, ReceiveSession) {
        let holder_keys = DsaKeyPair::generate(group, rng);
        let mut nonce = [0u8; 32];
        rng.fill_bytes(&mut nonce);
        let holder_pk = holder_keys.public().element().clone();
        let group_sig = gk.sign(group, gpk, &Self::signed_bytes(&holder_pk, &nonce), rng);
        (PaymentInvite { holder_pk, nonce, group_sig }, ReceiveSession { holder_keys, nonce })
    }

    /// Verifies the payee's group signature.
    pub fn verify(&self, group: &SchnorrGroup, gpk: &GroupPublicKey) -> bool {
        gpk.verify(group, &Self::signed_bytes(&self.holder_pk, &self.nonce), &self.group_sig)
    }
}

/// What the payer hands the payee: the broker-signed coin, the fresh
/// binding naming the payee's holder key, and the answer to the payee's
/// ownership challenge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoinGrant {
    /// The broker-signed coin.
    pub minted: MintedCoin,
    /// The new binding (owner- or broker-signed).
    pub binding: Binding,
    /// Challenge response: signature over the nonce and new holder key by
    /// the same key that signed the binding.
    pub ownership_proof: DsaSignature,
}

impl CoinGrant {
    /// Canonical bytes for the ownership challenge response.
    pub fn proof_bytes(coin_pk: &BigUint, holder_pk: &BigUint, nonce: &Nonce) -> Vec<u8> {
        Transcript::new("whopay/ownership-proof/v1")
            .int(coin_pk)
            .int(holder_pk)
            .bytes(nonce)
            .finish()
            .to_vec()
    }

    /// Verifies the challenge response against whichever key signed the
    /// binding (coin key in normal operation, broker during downtime). A
    /// coin key is untrusted input: its subgroup membership is part of the
    /// verdict.
    pub fn verify_proof(&self, group: &SchnorrGroup, broker: &DsaPublicKey, nonce: &Nonce) -> bool {
        let msg = Self::proof_bytes(self.minted.coin_pk(), self.binding.holder_pk(), nonce);
        match self.binding.signer() {
            BindingSigner::CoinKey => {
                DsaPublicKey::verify_member(group, self.minted.coin_pk(), &msg, &self.ownership_proof)
            }
            BindingSigner::Broker => broker.verify(group, &msg, &self.ownership_proof),
        }
    }

    /// Everything a payee checks about a grant's signatures:
    /// [`MintedCoin::verify_cached`], then [`Binding::verify_cached`] and
    /// that the binding is about the minted coin, then
    /// [`CoinGrant::verify_proof`] — the same verdicts, cache keys, cache
    /// lookups and insertions, in the same order.
    ///
    /// A coin-key-signed binding about the minted coin is the normal case,
    /// and there the fresh coin key is what all three lean on: the mint
    /// needs its membership, the binding and the proof are signed under
    /// it. They share one squaring chain over `pkC`
    /// ([`DsaPublicKey::member_passes_each`]: `pkC^q` computed in full,
    /// `pkC^u2` for each signature) and one inversion for the three `s⁻¹`.
    pub fn verify_cached(
        &self,
        group: &SchnorrGroup,
        broker: &DsaPublicKey,
        nonce: &Nonce,
        cache: &SigCache,
    ) -> GrantVerdicts {
        const REFUSED: GrantVerdicts = GrantVerdicts { custody: false, proof: false };
        let coin_pk = self.minted.coin_pk();
        if self.binding.signer() != BindingSigner::CoinKey || self.binding.coin_pk() != coin_pk {
            // Nothing under the coin key to share a chain with.
            let custody = self.minted.verify_cached(group, broker, cache)
                && self.binding.verify_cached(group, broker, cache)
                && self.binding.coin_pk() == coin_pk;
            return GrantVerdicts {
                custody,
                proof: custody && self.verify_proof(group, broker, nonce),
            };
        }
        let mint_key = self.minted.mint_cache_key(group, broker);
        let minted_cached = cache.lookup(&mint_key);
        if minted_cached == Some(false) {
            return REFUSED;
        }
        // The binding's lookup counts only once the mint is known good.
        let binding_key = self.binding.cache_key(group, broker);
        let binding_cached = cache.peek(&binding_key);

        let mint_msg = MintedCoin::signed_bytes(self.minted.owner(), coin_pk);
        let binding_msg = Binding::signed_bytes(
            coin_pk,
            self.binding.holder_pk(),
            self.binding.seq(),
            self.binding.expires(),
            BindingSigner::CoinKey,
        );
        let proof_msg = Self::proof_bytes(coin_pk, self.binding.holder_pk(), nonce);
        let [mint_check, binding_check, proof_check]: [Option<DsaCheck>; 3] = DsaCheck::each(
            group,
            &[
                (&mint_msg, self.minted.broker_sig()),
                (&binding_msg, self.binding.raw_sig()),
                (&proof_msg, &self.ownership_proof),
            ],
        )
        .try_into()
        .expect("one check per claim");
        // The broker's half of the mint first: both its tables are hot, and
        // a coin it never signed is refused before any chain over `pkC`.
        if minted_cached.is_none() && !mint_check.is_some_and(|check| broker.passes(group, &check)) {
            cache.prime(mint_key, false);
            return REFUSED;
        }
        let under_coin_key = [binding_check.filter(|_| binding_cached.is_none()), proof_check];
        let passes = DsaPublicKey::member_passes_each(group, coin_pk, &under_coin_key);
        if minted_cached.is_none() {
            cache.prime(mint_key, passes.is_some());
            if passes.is_none() {
                return REFUSED;
            }
        }
        let passes = passes.unwrap_or_else(|| vec![false; 2]);
        let binding = cache.lookup(&binding_key).unwrap_or_else(|| {
            // A verdict that was there to peek at and is gone now was
            // rotated out by the mint's insertion: verify it after all.
            let valid = match binding_cached {
                None => passes[0],
                Some(_) => self.binding.verify(group, broker),
            };
            cache.prime(binding_key, valid);
            valid
        });
        GrantVerdicts { custody: binding, proof: binding && passes[1] }
    }
}

/// What [`CoinGrant::verify_cached`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantVerdicts {
    /// The mint signature and the binding both verify and name the same
    /// coin: the chain of custody from the broker to the new holder key.
    pub custody: bool,
    /// Custody holds and the ownership challenge was answered by the key
    /// that signed the binding.
    pub proof: bool,
}

/// A holder's request to move a coin to a new holder key — sent to the
/// coin owner, or to the broker when the owner is offline.
///
/// "The transfer request is signed with both `skCV` and V's group private
/// key `gkV`, with the first to prove V's holdership of the coin and the
/// second to help ensure the fairness of the system." (§4.2)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferRequest {
    /// The binding under which the requester currently holds the coin.
    pub current: Binding,
    /// The payee's fresh holder key.
    pub new_holder_pk: BigUint,
    /// The payee's challenge nonce (forwarded so the owner can answer it).
    pub nonce: Nonce,
    /// Signature by the *current holder key* `skCV`.
    pub holder_sig: DsaSignature,
    /// The requester's group signature.
    pub group_sig: GroupSignature,
}

impl TransferRequest {
    /// Canonical bytes both signatures cover.
    pub fn signed_bytes(current: &Binding, new_holder_pk: &BigUint, nonce: &Nonce) -> Vec<u8> {
        Transcript::new("whopay/transfer/v1")
            .int(current.coin_pk())
            .int(current.holder_pk())
            .u64(current.seq())
            .int(new_holder_pk)
            .bytes(nonce)
            .finish()
            .to_vec()
    }

    /// Verifies both the holdership signature and the group signature.
    pub fn verify(&self, group: &SchnorrGroup, gpk: &GroupPublicKey) -> bool {
        let msg = Self::signed_bytes(&self.current, &self.new_holder_pk, &self.nonce);
        DsaPublicKey::verify_member(group, self.current.holder_pk(), &msg, &self.holder_sig)
            && gpk.verify(group, &msg, &self.group_sig)
    }
}

/// A holder's request to extend a coin's expiration date.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenewalRequest {
    /// The binding being renewed.
    pub current: Binding,
    /// Signature by the current holder key.
    pub holder_sig: DsaSignature,
    /// The requester's group signature.
    pub group_sig: GroupSignature,
}

impl RenewalRequest {
    /// Canonical bytes both signatures cover.
    pub fn signed_bytes(current: &Binding) -> Vec<u8> {
        Transcript::new("whopay/renewal/v1")
            .int(current.coin_pk())
            .int(current.holder_pk())
            .u64(current.seq())
            .u64(current.expires().0)
            .finish()
            .to_vec()
    }

    /// Verifies both signatures.
    pub fn verify(&self, group: &SchnorrGroup, gpk: &GroupPublicKey) -> bool {
        let msg = Self::signed_bytes(&self.current);
        DsaPublicKey::verify_member(group, self.current.holder_pk(), &msg, &self.holder_sig)
            && gpk.verify(group, &msg, &self.group_sig)
    }
}

/// A holder's request to redeem a coin at the broker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepositRequest {
    /// The broker-signed coin being redeemed.
    pub minted: MintedCoin,
    /// The binding proving current holdership.
    pub binding: Binding,
    /// Signature by the current holder key.
    pub holder_sig: DsaSignature,
    /// The depositor's group signature (the broker never learns who
    /// deposited).
    pub group_sig: GroupSignature,
}

impl DepositRequest {
    /// Canonical bytes both signatures cover.
    pub fn signed_bytes(binding: &Binding) -> Vec<u8> {
        Transcript::new("whopay/deposit/v1")
            .int(binding.coin_pk())
            .int(binding.holder_pk())
            .u64(binding.seq())
            .finish()
            .to_vec()
    }

    /// Verifies both signatures.
    pub fn verify(&self, group: &SchnorrGroup, gpk: &GroupPublicKey) -> bool {
        let msg = Self::signed_bytes(&self.binding);
        DsaPublicKey::verify_member(group, self.binding.holder_pk(), &msg, &self.holder_sig)
            && gpk.verify(group, &msg, &self.group_sig)
    }

    /// The verdict-cache key of the holder signature.
    pub fn holder_cache_key(&self, group: &SchnorrGroup) -> whopay_crypto::sha256::Digest {
        let holder_key = DsaPublicKey::from_element(self.binding.holder_pk().clone());
        crate::sigcache::cache_key(
            group,
            &holder_key,
            &Self::signed_bytes(&self.binding),
            &self.holder_sig,
        )
    }

    /// [`DepositRequest::verify`] with the holder-key half answered
    /// through a verdict cache (group signatures use a different scheme
    /// and always verify directly), under
    /// [`DepositRequest::holder_cache_key`] — the entry the broker's
    /// deposit path looks up too.
    pub fn verify_cached(
        &self,
        group: &SchnorrGroup,
        gpk: &GroupPublicKey,
        cache: &crate::sigcache::SigCache,
    ) -> bool {
        let msg = Self::signed_bytes(&self.binding);
        cache.verify_with(self.holder_cache_key(group), || {
            DsaPublicKey::verify_member(group, self.binding.holder_pk(), &msg, &self.holder_sig)
        }) && gpk.verify(group, &msg, &self.group_sig)
    }
}

/// A request to buy a coin from the broker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PurchaseRequest {
    /// How the minted coin should name its owner.
    pub owner: OwnerTag,
    /// The freshly generated coin public key `pkC`.
    pub coin_pk: BigUint,
    /// For identified purchases: the buyer's identity signature binding
    /// `(peer, coin_pk)`. Anonymous purchases group-sign instead.
    pub identity_sig: Option<DsaSignature>,
    /// For anonymous purchases: group signature over the request.
    pub group_sig: Option<GroupSignature>,
}

impl PurchaseRequest {
    /// Canonical bytes the buyer signs.
    pub fn signed_bytes(owner: &OwnerTag, coin_pk: &BigUint) -> Vec<u8> {
        let t = Transcript::new("whopay/purchase/v1");
        let t = match owner {
            OwnerTag::Identified(PeerId(p)) => t.u64(0).u64(*p),
            OwnerTag::Anonymous => t.u64(1).u64(0),
            OwnerTag::AnonymousWithHandle(h) => t.u64(2).bytes(&h.0),
        };
        t.int(coin_pk).finish().to_vec()
    }
}

/// The broker's receipt for a successful deposit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepositReceipt {
    /// The redeemed coin.
    pub coin: crate::types::CoinId,
    /// Credited value (coins are unit-valued, as in the paper's model).
    pub value: u64,
}
