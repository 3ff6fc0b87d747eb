//! A WhoPay peer: coin owner, coin holder, payer, and payee.
//!
//! Peers play two distinct roles (§4.2):
//!
//! * as **coin owners** they mint-purchase coins, *issue* them, and manage
//!   transfers and renewals of the coins they issued;
//! * as **coin holders** they receive coins under fresh pseudonymous
//!   holder keys and spend them by transfer or deposit, signing with the
//!   holder key (to prove holdership) and their group key (for fairness),
//!   never with their identity key.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rand::Rng;
use whopay_crypto::batch;
use whopay_crypto::coupon::CouponPool;
use whopay_crypto::dsa::{DsaKeyPair, DsaPublicKey, DsaSignature};
use whopay_crypto::group_sig::{GroupMemberKey, GroupPublicKey, GroupSignature};
use whopay_net::Handle;
use whopay_num::{BigUint, SchnorrGroup};

use crate::coin::{Binding, BindingSigner, MintedCoin, OwnerTag, PublicBindingState};
use crate::error::CoreError;
use crate::messages::{
    CoinGrant, Nonce, PaymentInvite, PurchaseRequest, ReceiveSession, RenewalRequest, TransferRequest,
};
use crate::params::SystemParams;
use crate::sigcache::SigCache;
use crate::types::{CoinId, PeerId, Timestamp};

/// Owner-side state for one coin this peer owns.
#[derive(Debug)]
pub struct OwnedCoin {
    /// The broker-signed coin.
    pub minted: MintedCoin,
    /// The coin key pair (`skC` proves ownership and signs bindings).
    pub coin_keys: DsaKeyPair,
    /// The authoritative current binding.
    pub binding: Binding,
    /// Whether the coin has been issued (bound to someone else's holder
    /// key) or is still self-held and spendable by *issue*.
    pub issued: bool,
    /// The last mutating op served for this coin — the replay memo that
    /// lets re-delivered issue/transfer/renewal requests get the original
    /// answer instead of a `StaleBinding` rejection (see
    /// [`crate::replay`]).
    pub last_served: Option<crate::replay::ServedOp>,
}

/// Holder-side state for one coin in this peer's wallet.
#[derive(Debug)]
pub struct HeldCoin {
    /// The broker-signed coin.
    pub minted: MintedCoin,
    /// The binding naming our holder key.
    pub binding: Binding,
    /// The holder key pair (its secret is what "holding the coin" means).
    pub holder_keys: DsaKeyPair,
}

/// In-flight state between creating a purchase request and receiving the
/// minted coin.
#[derive(Debug)]
pub struct PendingPurchase {
    coin_keys: DsaKeyPair,
    owner: OwnerTag,
}

/// A WhoPay peer.
///
/// See the crate-level docs for a full payment walkthrough.
#[derive(Debug)]
pub struct Peer {
    id: PeerId,
    params: SystemParams,
    broker_pk: DsaPublicKey,
    gpk: GroupPublicKey,
    user_keys: DsaKeyPair,
    group_key: GroupMemberKey,
    owned: HashMap<CoinId, OwnedCoin>,
    wallet: HashMap<CoinId, HeldCoin>,
    /// Verdict cache for the broker-signed material this peer re-checks.
    sig_cache: Arc<SigCache>,
    /// The nonces, fresh keys and group-signature randomness every
    /// signature and key this peer makes after [`Peer::new`] draws from.
    coupons: Mutex<CouponPool>,
}

impl Peer {
    /// Creates a peer with fresh identity keys. `group_key` comes from
    /// enrolling with the judge.
    pub fn new<R: Rng + ?Sized>(
        id: PeerId,
        params: SystemParams,
        broker_pk: DsaPublicKey,
        gpk: GroupPublicKey,
        group_key: GroupMemberKey,
        rng: &mut R,
    ) -> Self {
        let user_keys = DsaKeyPair::generate(params.group(), rng);
        Peer {
            id,
            params,
            broker_pk,
            gpk,
            user_keys,
            group_key,
            owned: HashMap::new(),
            wallet: HashMap::new(),
            sig_cache: Arc::new(SigCache::default()),
            coupons: Mutex::default(),
        }
    }

    /// This peer's signature-verdict cache.
    pub fn sig_cache(&self) -> &Arc<SigCache> {
        &self.sig_cache
    }

    /// Shares a verdict cache (e.g. one per simulated host, or one wired
    /// to a metrics registry via [`SigCache::with_metrics`]).
    pub fn use_sig_cache(&mut self, cache: Arc<SigCache>) {
        self.sig_cache = cache;
    }

    /// This peer's registered identity.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// This peer's identity public key (registered with the broker).
    pub fn public_key(&self) -> &DsaPublicKey {
        self.user_keys.public()
    }

    /// System parameters.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// Coins this peer owns, in [`CoinId`] order.
    pub fn owned_coins(&self) -> impl Iterator<Item = (&CoinId, &OwnedCoin)> {
        let mut coins: Vec<_> = self.owned.iter().collect();
        coins.sort_unstable_by_key(|(id, _)| **id);
        coins.into_iter()
    }

    /// Coins this peer owns and can still *issue* (self-held), in
    /// [`CoinId`] order.
    pub fn unissued_coins(&self) -> Vec<CoinId> {
        sorted(self.owned.iter().filter(|(_, c)| !c.issued).map(|(id, _)| *id).collect())
    }

    /// Coins in this peer's wallet (held, spendable by transfer/deposit),
    /// in [`CoinId`] order.
    pub fn held_coins(&self) -> Vec<CoinId> {
        sorted(self.wallet.keys().copied().collect())
    }

    /// Immutable view of a held coin.
    pub fn held_coin(&self, id: &CoinId) -> Option<&HeldCoin> {
        self.wallet.get(id)
    }

    /// Immutable view of an owned coin.
    pub fn owned_coin(&self, id: &CoinId) -> Option<&OwnedCoin> {
        self.owned.get(id)
    }

    // --- purchase ---

    /// Step 1 of a purchase: generate the coin key pair and build the
    /// request. `owner` selects the basic scheme
    /// ([`OwnerTag::Identified`]) or the §5.2 owner-anonymous variants.
    pub fn create_purchase_request<R: Rng + ?Sized>(
        &self,
        owner_mode: PurchaseMode,
        rng: &mut R,
    ) -> (PurchaseRequest, PendingPurchase) {
        let group = self.params.group();
        let mut coupons = pool(&self.coupons);
        let coin_keys = coupons.generate(group, rng);
        let coin_pk = coin_keys.public().element().clone();
        let owner = match owner_mode {
            PurchaseMode::Identified => OwnerTag::Identified(self.id),
            PurchaseMode::Anonymous => OwnerTag::Anonymous,
            PurchaseMode::AnonymousWithHandle(h) => OwnerTag::AnonymousWithHandle(h),
        };
        let msg = PurchaseRequest::signed_bytes(&owner, &coin_pk);
        let (identity_sig, group_sig) = match owner {
            OwnerTag::Identified(_) => (Some(coupons.sign(&self.user_keys, group, &msg, rng)), None),
            _ => (None, Some(coupons.group_sign(&self.group_key, group, &self.gpk, &msg, rng))),
        };
        (
            PurchaseRequest { owner, coin_pk, identity_sig, group_sig },
            PendingPurchase { coin_keys, owner },
        )
    }

    /// Step 2: verify the broker's mint signature and take ownership.
    /// The initial binding is self-held at sequence 0.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadSignature`] if the minted coin does not verify or
    /// does not match the pending request.
    pub fn complete_purchase<R: Rng + ?Sized>(
        &mut self,
        minted: MintedCoin,
        pending: PendingPurchase,
        now: Timestamp,
        rng: &mut R,
    ) -> Result<CoinId, CoreError> {
        self.check_minted(&minted, &pending)?;
        let id = minted.id();
        let binding = Self::sign_binding(
            &self.params,
            &self.coupons,
            &pending.coin_keys,
            minted.coin_pk().clone(), // self-held: bound to the coin key itself
            0,
            now,
            rng,
        );
        self.owned.insert(
            id,
            OwnedCoin {
                minted,
                coin_keys: pending.coin_keys,
                binding,
                issued: false,
                last_served: None,
            },
        );
        Ok(id)
    }

    /// Checks that `minted` answers `pending`: the coin key this peer
    /// generated, its owner tag, and the broker's signature.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadSignature`] if it does not.
    pub(crate) fn check_minted(
        &self,
        minted: &MintedCoin,
        pending: &PendingPurchase,
    ) -> Result<(), CoreError> {
        let group = self.params.group();
        // Compared first, `pkC` is the key this peer generated — a group
        // element by construction — so of `MintedCoin::verify` only the
        // broker's signature is left to check, filed under the same key.
        if minted.coin_pk() != pending.coin_keys.public().element()
            || minted.owner() != &pending.owner
            || !self.sig_cache.verify_with(minted.mint_cache_key(group, &self.broker_pk), || {
                let msg = MintedCoin::signed_bytes(minted.owner(), minted.coin_pk());
                self.broker_pk.verify(group, &msg, minted.broker_sig())
            })
        {
            return Err(CoreError::BadSignature);
        }
        Ok(())
    }

    /// Held coins whose binding expires at or before `deadline` — what a
    /// rejoining peer must renew (the catch-up step of the simulation's
    /// renewal model), in [`CoinId`] order.
    pub fn coins_needing_renewal(&self, deadline: Timestamp) -> Vec<CoinId> {
        sorted(
            self.wallet
                .iter()
                .filter(|(_, held)| !deadline.is_before(held.binding.expires()))
                .map(|(id, _)| *id)
                .collect(),
        )
    }

    // --- receiving payments (payee side) ---

    /// Opens a receive session: fresh holder key, nonce, group-signed
    /// invite. Hand the invite to the payer; keep the session secret.
    pub fn begin_receive<R: Rng + ?Sized>(&self, rng: &mut R) -> (PaymentInvite, ReceiveSession) {
        PaymentInvite::create(
            self.params.group(),
            &self.gpk,
            &self.group_key,
            &mut pool(&self.coupons),
            rng,
        )
    }

    /// Accepts a granted coin into the wallet after full verification:
    /// broker mint signature, binding signature, holder-key match,
    /// expiry, and the ownership challenge response.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadSignature`], [`CoreError::HolderKeyMismatch`],
    /// [`CoreError::Expired`], or [`CoreError::BadOwnershipProof`].
    pub fn accept_grant(
        &mut self,
        grant: CoinGrant,
        session: ReceiveSession,
        now: Timestamp,
    ) -> Result<CoinId, CoreError> {
        let verdicts =
            grant.verify_cached(self.params.group(), &self.broker_pk, &session.nonce, &self.sig_cache);
        if !verdicts.custody {
            return Err(CoreError::BadSignature);
        }
        if grant.binding.holder_pk() != session.holder_keys.public().element() {
            return Err(CoreError::HolderKeyMismatch);
        }
        if grant.binding.is_expired(now) {
            return Err(CoreError::Expired { expired_at: grant.binding.expires() });
        }
        if !verdicts.proof {
            return Err(CoreError::BadOwnershipProof);
        }
        let id = grant.minted.id();
        self.wallet.insert(
            id,
            HeldCoin { minted: grant.minted, binding: grant.binding, holder_keys: session.holder_keys },
        );
        Ok(id)
    }

    // --- spending (payer side) ---

    /// Issues a self-held owned coin to the payee described by `invite`.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotOwner`] / [`CoreError::NotHolder`] if this peer
    /// cannot issue the coin; [`CoreError::BadGroupSignature`] if the
    /// invite fails verification.
    pub fn issue_coin<R: Rng + ?Sized>(
        &mut self,
        coin: CoinId,
        invite: &PaymentInvite,
        now: Timestamp,
        rng: &mut R,
    ) -> Result<CoinGrant, CoreError> {
        let group = self.params.group().clone();
        if !invite.verify(&group, &self.gpk) {
            return Err(CoreError::BadGroupSignature);
        }
        let owned = self.owned.get_mut(&coin).ok_or(CoreError::NotOwner(coin))?;
        if owned.issued {
            // Exactly the issue we already served: a retried or duplicated
            // delivery. Return the original grant instead of NotHolder.
            if let Some(grant) = owned
                .last_served
                .as_ref()
                .and_then(|s| s.replay_issue(&invite.holder_pk, &invite.nonce))
            {
                return Ok(grant.clone());
            }
            return Err(CoreError::NotHolder(coin));
        }
        let (binding, ownership_proof) = Self::sign_rebinding(
            &self.params,
            &self.coupons,
            owned,
            &invite.holder_pk,
            &invite.nonce,
            now,
            rng,
        );
        owned.binding = binding.clone();
        owned.issued = true;
        let grant = CoinGrant { minted: owned.minted.clone(), binding, ownership_proof };
        owned.last_served = Some(crate::replay::ServedOp::Issue {
            holder_pk: invite.holder_pk.clone(),
            nonce: invite.nonce,
            grant: grant.clone(),
        });
        Ok(grant)
    }

    /// Builds a transfer request for a held coin toward `invite`'s holder
    /// key. The coin stays in the wallet until
    /// [`Peer::complete_transfer`] confirms the owner/broker accepted —
    /// a dishonest peer could of course call this twice; that is exactly
    /// the double spend the system detects.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotHolder`] if the coin is not in the wallet,
    /// [`CoreError::BadGroupSignature`] if the invite is invalid.
    pub fn request_transfer<R: Rng + ?Sized>(
        &self,
        coin: CoinId,
        invite: &PaymentInvite,
        rng: &mut R,
    ) -> Result<TransferRequest, CoreError> {
        let group = self.params.group();
        if !invite.verify(group, &self.gpk) {
            return Err(CoreError::BadGroupSignature);
        }
        let held = self.wallet.get(&coin).ok_or(CoreError::NotHolder(coin))?;
        let mut coupons = pool(&self.coupons);
        let msg = TransferRequest::signed_bytes(&held.binding, &invite.holder_pk, &invite.nonce);
        Ok(TransferRequest {
            current: held.binding.clone(),
            new_holder_pk: invite.holder_pk.clone(),
            nonce: invite.nonce,
            holder_sig: coupons.sign(&held.holder_keys, group, &msg, rng),
            group_sig: coupons.group_sign(&self.group_key, group, &self.gpk, &msg, rng),
        })
    }

    /// Drops a held coin after its transfer was granted downstream.
    pub fn complete_transfer(&mut self, coin: CoinId) {
        self.wallet.remove(&coin);
    }

    /// Builds a renewal request for a held coin.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotHolder`] if the coin is not in the wallet.
    pub fn request_renewal<R: Rng + ?Sized>(
        &self,
        coin: CoinId,
        rng: &mut R,
    ) -> Result<RenewalRequest, CoreError> {
        let group = self.params.group();
        let held = self.wallet.get(&coin).ok_or(CoreError::NotHolder(coin))?;
        let mut coupons = pool(&self.coupons);
        let msg = RenewalRequest::signed_bytes(&held.binding);
        Ok(RenewalRequest {
            current: held.binding.clone(),
            holder_sig: coupons.sign(&held.holder_keys, group, &msg, rng),
            group_sig: coupons.group_sign(&self.group_key, group, &self.gpk, &msg, rng),
        })
    }

    /// Applies a renewed binding to a held coin after verifying it: same
    /// coin, same holder key, strictly higher sequence number, valid
    /// signature.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotHolder`], [`CoreError::BadSignature`],
    /// [`CoreError::HolderKeyMismatch`], or [`CoreError::StaleBinding`].
    pub fn apply_renewal(&mut self, coin: CoinId, renewed: Binding) -> Result<(), CoreError> {
        let group = self.params.group();
        let held = self.wallet.get_mut(&coin).ok_or(CoreError::NotHolder(coin))?;
        if !renewed.verify_cached(group, &self.broker_pk, &self.sig_cache)
            || renewed.coin_pk() != held.binding.coin_pk()
        {
            return Err(CoreError::BadSignature);
        }
        if renewed.holder_pk() != held.holder_keys.public().element() {
            return Err(CoreError::HolderKeyMismatch);
        }
        if renewed.seq() <= held.binding.seq() {
            return Err(CoreError::StaleBinding {
                expected_seq: held.binding.seq() + 1,
                presented_seq: renewed.seq(),
            });
        }
        held.binding = renewed;
        Ok(())
    }

    /// Builds a deposit request for a held coin. The coin stays in the
    /// wallet until [`Peer::complete_deposit`].
    ///
    /// # Errors
    ///
    /// [`CoreError::NotHolder`] if the coin is not in the wallet.
    pub fn request_deposit<R: Rng + ?Sized>(
        &self,
        coin: CoinId,
        rng: &mut R,
    ) -> Result<crate::messages::DepositRequest, CoreError> {
        let group = self.params.group();
        let held = self.wallet.get(&coin).ok_or(CoreError::NotHolder(coin))?;
        let mut coupons = pool(&self.coupons);
        let msg = crate::messages::DepositRequest::signed_bytes(&held.binding);
        Ok(crate::messages::DepositRequest {
            minted: held.minted.clone(),
            binding: held.binding.clone(),
            holder_sig: coupons.sign(&held.holder_keys, group, &msg, rng),
            group_sig: coupons.group_sign(&self.group_key, group, &self.gpk, &msg, rng),
        })
    }

    /// Drops a held coin after the broker accepted its deposit.
    pub fn complete_deposit(&mut self, coin: CoinId) {
        self.wallet.remove(&coin);
    }

    // --- owner-side handling of holder requests ---

    /// Handles a transfer request for a coin this peer owns: verifies the
    /// request against the authoritative binding, rebinds the coin to the
    /// new holder key, and answers the payee's ownership challenge.
    ///
    /// A request whose binding does not match the authoritative record is
    /// rejected with [`CoreError::StaleBinding`] — the owner-side defence
    /// against double spending.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotOwner`], [`CoreError::StaleBinding`],
    /// [`CoreError::BadSignature`], [`CoreError::BadGroupSignature`].
    pub fn handle_transfer<R: Rng + ?Sized>(
        &mut self,
        request: TransferRequest,
        now: Timestamp,
        rng: &mut R,
    ) -> Result<CoinGrant, CoreError> {
        let group = self.params.group().clone();
        let coin = request.current.coin_id();
        let owned = self.owned.get_mut(&coin).ok_or(CoreError::NotOwner(coin))?;
        // Exactly the transfer we already served: a retried or duplicated
        // delivery. Return the original grant without re-rebinding.
        if let Some(grant) = owned.last_served.as_ref().and_then(|s| s.replay_transfer(&request)) {
            return Ok(grant.clone());
        }
        if request.current.seq() != owned.binding.seq()
            || request.current.holder_pk() != owned.binding.holder_pk()
        {
            return Err(CoreError::StaleBinding {
                expected_seq: owned.binding.seq(),
                presented_seq: request.current.seq(),
            });
        }
        let msg =
            TransferRequest::signed_bytes(&request.current, &request.new_holder_pk, &request.nonce);
        // The holder key came with an invite: its membership is part of the
        // check, as at the broker.
        Self::check_holder_request(
            &group,
            &self.gpk,
            request.current.holder_pk(),
            &msg,
            &request.holder_sig,
            &request.group_sig,
        )?;
        let (binding, ownership_proof) = Self::sign_rebinding(
            &self.params,
            &self.coupons,
            owned,
            &request.new_holder_pk,
            &request.nonce,
            now,
            rng,
        );
        owned.binding = binding.clone();
        owned.issued = true;
        let minted = owned.minted.clone();
        let grant = CoinGrant { minted, binding, ownership_proof };
        owned.last_served = Some(crate::replay::ServedOp::Transfer { request, grant: grant.clone() });
        Ok(grant)
    }

    /// Handles a renewal request for a coin this peer owns: verifies,
    /// bumps the sequence number, and extends the expiration date.
    ///
    /// # Errors
    ///
    /// As [`Peer::handle_transfer`].
    pub fn handle_renewal<R: Rng + ?Sized>(
        &mut self,
        request: RenewalRequest,
        now: Timestamp,
        rng: &mut R,
    ) -> Result<Binding, CoreError> {
        let group = self.params.group().clone();
        let coin = request.current.coin_id();
        let owned = self.owned.get_mut(&coin).ok_or(CoreError::NotOwner(coin))?;
        // Exactly the renewal we already served: return the original
        // renewed binding.
        if let Some(binding) = owned.last_served.as_ref().and_then(|s| s.replay_renewal(&request)) {
            return Ok(binding.clone());
        }
        if request.current.seq() != owned.binding.seq()
            || request.current.holder_pk() != owned.binding.holder_pk()
        {
            return Err(CoreError::StaleBinding {
                expected_seq: owned.binding.seq(),
                presented_seq: request.current.seq(),
            });
        }
        let msg = RenewalRequest::signed_bytes(&request.current);
        Self::check_holder_request(
            &group,
            &self.gpk,
            request.current.holder_pk(),
            &msg,
            &request.holder_sig,
            &request.group_sig,
        )?;
        let seq = owned.binding.seq() + 1;
        let binding = Self::sign_binding(
            &self.params,
            &self.coupons,
            &owned.coin_keys,
            owned.binding.holder_pk().clone(),
            seq,
            now,
            rng,
        );
        owned.binding = binding.clone();
        owned.last_served = Some(crate::replay::ServedOp::Renewal {
            request: request.clone(),
            binding: binding.clone(),
        });
        Ok(binding)
    }

    /// Collapses a layered coin (§7): the owner verifies the whole layer
    /// chain as relinquishment evidence, then rebinds the coin directly
    /// to the chain's final holder — turning an offline chain back into a
    /// normal online binding.
    ///
    /// # Errors
    ///
    /// Chain verification errors from [`crate::layered::LayeredCoin::verify`];
    /// [`CoreError::StaleBinding`] if the chain's base is not this owner's
    /// current binding; signature failures as in
    /// [`Peer::handle_transfer`].
    pub fn handle_layered_collapse<R: Rng + ?Sized>(
        &mut self,
        layered: &crate::layered::LayeredCoin,
        request: TransferRequest,
        max_layers: usize,
        now: Timestamp,
        rng: &mut R,
    ) -> Result<CoinGrant, CoreError> {
        let group = self.params.group().clone();
        layered.verify(&group, &self.broker_pk, &self.gpk, max_layers)?;
        let coin = request.current.coin_id();
        let owned = self.owned.get_mut(&coin).ok_or(CoreError::NotOwner(coin))?;
        if request.current != owned.binding || layered.base_binding() != &owned.binding {
            return Err(CoreError::StaleBinding {
                expected_seq: owned.binding.seq(),
                presented_seq: request.current.seq(),
            });
        }
        if request.new_holder_pk != *layered.current_holder_pk() {
            return Err(CoreError::HolderKeyMismatch);
        }
        let msg =
            TransferRequest::signed_bytes(&request.current, &request.new_holder_pk, &request.nonce);
        // The chain's final holder signs; the verified layer chain stands
        // in for the base holder's signature. The last layer's key came
        // with the coin and no layer's check vouches for it.
        let final_holder = layered.current_holder_pk();
        Self::check_holder_request(
            &group,
            &self.gpk,
            final_holder,
            &msg,
            &request.holder_sig,
            &request.group_sig,
        )?;
        let (binding, ownership_proof) = Self::sign_rebinding(
            &self.params,
            &self.coupons,
            owned,
            &request.new_holder_pk,
            &request.nonce,
            now,
            rng,
        );
        owned.binding = binding.clone();
        owned.issued = true;
        let minted = owned.minted.clone();
        Ok(CoinGrant { minted, binding, ownership_proof })
    }

    // --- synchronization ---

    /// Adopts a broker-signed binding for an owned coin (proactive sync
    /// after downtime). Only newer bindings are applied. The binding this
    /// owner already holds is not verified again: a broker-signed binding
    /// is only ever stored here, after its signature verified.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotOwner`], [`CoreError::BadSignature`].
    pub fn adopt_broker_binding(&mut self, binding: Binding) -> Result<bool, CoreError> {
        let coin = binding.coin_id();
        let owned = self.owned.get_mut(&coin).ok_or(CoreError::NotOwner(coin))?;
        if binding.signer() != BindingSigner::Broker {
            return Err(CoreError::BadSignature);
        }
        if binding == owned.binding {
            return Ok(false);
        }
        if !binding.verify_cached(self.params.group(), &self.broker_pk, &self.sig_cache) {
            return Err(CoreError::BadSignature);
        }
        if binding.seq() <= owned.binding.seq() {
            return Ok(false);
        }
        owned.issued = true;
        owned.binding = binding;
        Ok(true)
    }

    /// Lazy synchronization (§5.2): adopts the *public* binding state read
    /// from the DHT if it is newer than the local record, re-signing it
    /// with the coin key. Returns whether an update was applied.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotOwner`] if this peer does not own the coin.
    pub fn adopt_public_state<R: Rng + ?Sized>(
        &mut self,
        coin: CoinId,
        state: &PublicBindingState,
        rng: &mut R,
    ) -> Result<bool, CoreError> {
        let params = self.params.clone();
        let owned = self.owned.get_mut(&coin).ok_or(CoreError::NotOwner(coin))?;
        if state.seq <= owned.binding.seq() {
            return Ok(false);
        }
        let msg = Binding::signed_bytes(
            owned.minted.coin_pk(),
            &state.holder_pk,
            state.seq,
            state.expires,
            BindingSigner::CoinKey,
        );
        let sig = pool(&self.coupons).sign(&owned.coin_keys, params.group(), &msg, rng);
        owned.binding = Binding::from_parts(
            owned.minted.coin_pk().clone(),
            state.holder_pk.clone(),
            state.seq,
            state.expires,
            BindingSigner::CoinKey,
            sig,
        );
        owned.issued = true;
        Ok(true)
    }

    /// Signs a challenge with the identity key — the challenge–response
    /// step of proactive synchronization ("it identifies itself to the
    /// broker and proves its claimed identity", §4.2).
    pub fn sign_identity_challenge<R: Rng + ?Sized>(
        &self,
        challenge: &[u8],
        rng: &mut R,
    ) -> DsaSignature {
        pool(&self.coupons).sign(&self.user_keys, self.params.group(), challenge, rng)
    }

    /// Signs a proof of coin ownership over `challenge` (used by the
    /// anonymous-coin sync protocol, where the broker cannot map coins to
    /// owners and the peer must prove each claim).
    ///
    /// # Errors
    ///
    /// [`CoreError::NotOwner`] if this peer does not own the coin.
    pub fn prove_ownership<R: Rng + ?Sized>(
        &self,
        coin: CoinId,
        challenge: &[u8],
        rng: &mut R,
    ) -> Result<DsaSignature, CoreError> {
        let owned = self.owned.get(&coin).ok_or(CoreError::NotOwner(coin))?;
        Ok(pool(&self.coupons).sign(&owned.coin_keys, self.params.group(), challenge, rng))
    }

    /// The i3 handles of owned coins minted with
    /// [`OwnerTag::AnonymousWithHandle`], for trigger registration, in
    /// [`CoinId`] order.
    pub fn coin_handles(&self) -> Vec<(CoinId, Handle)> {
        sorted(
            self.owned
                .iter()
                .filter_map(|(id, c)| match c.minted.owner() {
                    OwnerTag::AnonymousWithHandle(h) => Some((*id, *h)),
                    _ => None,
                })
                .collect(),
        )
    }

    // --- helpers ---

    /// A holder request's two signatures over `msg`: the holder's under
    /// `holder_pk`, membership included, and the group signature — three
    /// chains, walked in one [`batch::verify_many`] call. The holder's
    /// signature is refused first, as when each was checked alone.
    fn check_holder_request(
        group: &SchnorrGroup,
        gpk: &GroupPublicKey,
        holder_pk: &BigUint,
        msg: &[u8],
        holder_sig: &DsaSignature,
        group_sig: &GroupSignature,
    ) -> Result<(), CoreError> {
        let (claims, group_claims) = ([(msg, holder_sig)], [(msg, group_sig)]);
        let verdicts =
            batch::verify_many(group, &[(holder_pk, &claims[..])], Some((gpk, &group_claims)));
        if !matches!(verdicts.keys[..], [Some(ref passed)] if passed[..] == [true]) {
            return Err(CoreError::BadSignature);
        }
        if !verdicts.group_sigs[0] {
            return Err(CoreError::BadGroupSignature);
        }
        Ok(())
    }

    /// The owner's two coin-key signatures of an issue or transfer — the
    /// next binding, naming `holder_pk`, and the answer to the payee's
    /// ownership challenge — signed together so they share one inversion.
    fn sign_rebinding<R: Rng + ?Sized>(
        params: &SystemParams,
        coupons: &Mutex<CouponPool>,
        owned: &OwnedCoin,
        holder_pk: &BigUint,
        nonce: &Nonce,
        now: Timestamp,
        rng: &mut R,
    ) -> (Binding, DsaSignature) {
        let coin_pk = owned.minted.coin_pk();
        let seq = owned.binding.seq() + 1;
        let expires = now.plus(params.renewal_period_secs());
        let binding_msg =
            Binding::signed_bytes(coin_pk, holder_pk, seq, expires, BindingSigner::CoinKey);
        let proof_msg = CoinGrant::proof_bytes(coin_pk, holder_pk, nonce);
        let [sig, proof] =
            pool(coupons).sign_each(&owned.coin_keys, params.group(), [&binding_msg, &proof_msg], rng);
        let binding = Binding::from_parts(
            coin_pk.clone(),
            holder_pk.clone(),
            seq,
            expires,
            BindingSigner::CoinKey,
            sig,
        );
        (binding, proof)
    }

    /// The coin key's binding of its coin to `holder_pk` at `seq`,
    /// expiring a renewal period after `now`.
    fn sign_binding<R: Rng + ?Sized>(
        params: &SystemParams,
        coupons: &Mutex<CouponPool>,
        coin_keys: &DsaKeyPair,
        holder_pk: BigUint,
        seq: u64,
        now: Timestamp,
        rng: &mut R,
    ) -> Binding {
        let coin_pk = coin_keys.public().element().clone();
        let expires = now.plus(params.renewal_period_secs());
        let msg = Binding::signed_bytes(&coin_pk, &holder_pk, seq, expires, BindingSigner::CoinKey);
        let sig = pool(coupons).sign(coin_keys, params.group(), &msg, rng);
        Binding::from_parts(coin_pk, holder_pk, seq, expires, BindingSigner::CoinKey, sig)
    }
}

/// A peer's coupon pool, locked. A signer that panicked left the pool
/// whole: every coupon in it is unspent.
fn pool(coupons: &Mutex<CouponPool>) -> MutexGuard<'_, CouponPool> {
    coupons.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `items` in ascending order: lists read off the coin maps come back in
/// an order that does not depend on the process's hash seed.
fn sorted<T: Ord>(mut items: Vec<T>) -> Vec<T> {
    items.sort_unstable();
    items
}

/// How a peer wants its purchased coin to name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PurchaseMode {
    /// Basic WhoPay: owner identity in the coin.
    Identified,
    /// §5.2 extension: no owner information.
    Anonymous,
    /// §5.2 extension: owner reachable via an i3 handle.
    AnonymousWithHandle(Handle),
}
