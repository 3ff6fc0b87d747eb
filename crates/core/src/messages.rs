//! WhoPay protocol messages.
//!
//! Each message carries exactly the signatures §4.2 prescribes: coin-key
//! signatures prove holdership/ownership, group signatures provide
//! fairness (judge-openable anonymity). The canonical signed bytes for
//! every message are defined here so signer and verifier cannot drift.

use whopay_crypto::dsa::{DsaKeyPair, DsaPublicKey, DsaSignature};
use whopay_crypto::group_sig::{GroupMemberKey, GroupPublicKey, GroupSignature};
use whopay_crypto::hashio::Transcript;
use whopay_num::{BigUint, SchnorrGroup};

use crate::coin::{Binding, BindingSigner, MintedCoin, OwnerTag};
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
    /// binding (coin key in normal operation, broker during downtime).
    pub fn verify_proof(&self, group: &SchnorrGroup, broker: &DsaPublicKey, nonce: &Nonce) -> bool {
        let msg = Self::proof_bytes(self.minted.coin_pk(), self.binding.holder_pk(), nonce);
        match self.binding.signer() {
            BindingSigner::CoinKey => DsaPublicKey::from_element(self.minted.coin_pk().clone()).verify(
                group,
                &msg,
                &self.ownership_proof,
            ),
            BindingSigner::Broker => broker.verify(group, &msg, &self.ownership_proof),
        }
    }
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
