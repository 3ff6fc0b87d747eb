//! Verdict parity for the protocol messages that check a key they carry.
//!
//! Transfer, renewal and deposit requests verify a holdership signature
//! under the holder key named in the binding they present, and a binding
//! verifies under its own coin key; both keys arrive off the wire. Each
//! `verify` must return exactly what the spelled-out check
//! `is_element(key) && from_element(key).verify(..) && gpk.verify(..)`
//! returns — on honest messages, on ordinary forgeries, and on the crafted
//! case where the signer publishes the non-member `−y` and signs so the
//! plain DSA equation holds under it, which only the membership check
//! rejects. The owner serving those transfers and renewals
//! (`Peer::handle_transfer` / `handle_renewal`) must refuse exactly the
//! same ones.
//!
//! `Peer::accept_grant` checks a grant's three signatures over one chain
//! on the coin key; it must refuse exactly what the three separate checks
//! it replaced refused, with the same error, the same wallet and the same
//! verdict-cache traffic.
//!
//! The checks of keys that arrive with a coin — a grant's coin key
//! (`Peer::accept_grant`), a published record's subject
//! (`SignedRecord::verify`), a layered coin's relinquishing keys
//! (`LayeredCoin::verify`) — and `verify_dsa_each` must refuse an item
//! whose key is a real key multiplied by an element of order 2, 3 or 4,
//! the signature made so that membership is the only thing wrong with it.

use std::sync::Arc;

use whopay_core::layered::{Layer, LayeredCoin};
use whopay_core::sigcache::SigCache;
use whopay_core::{
    Binding, BindingSigner, Broker, CoinGrant, CoinId, CoreError, DepositRequest, Judge, MintedCoin,
    OwnerTag, PaymentInvite, Peer, PeerId, PurchaseMode, ReceiveSession, RenewalRequest, SystemParams,
    Timestamp, TransferRequest,
};
use whopay_crypto::batch::{verify_dsa_each, DsaBatchItem};
use whopay_crypto::dsa::{DsaKeyPair, DsaPublicKey, DsaSignature};
use whopay_crypto::group_sig::{GroupMemberKey, GroupPublicKey};
use whopay_crypto::testing::{element_of_order, small_group, test_rng, tiny_group};
use whopay_dht::{SignedRecord, Writer};
use whopay_num::{BigUint, SchnorrGroup};

struct World {
    group: SchnorrGroup,
    gpk: GroupPublicKey,
    member: GroupMemberKey,
    broker: DsaKeyPair,
    coin: DsaKeyPair,
    holder: DsaKeyPair,
    rng: rand::rngs::StdRng,
}

fn world(seed: u64) -> World {
    world_over(tiny_group(), seed)
}

fn world_over(group: &SchnorrGroup, seed: u64) -> World {
    let mut rng = test_rng(seed);
    let group = group.clone();
    let mut judge = Judge::new(group.clone(), &mut rng);
    let member = judge.enroll(PeerId(1), &mut rng);
    World {
        gpk: judge.public_key().clone(),
        member,
        broker: DsaKeyPair::generate(&group, &mut rng),
        coin: DsaKeyPair::generate(&group, &mut rng),
        holder: DsaKeyPair::generate(&group, &mut rng),
        group,
        rng,
    }
}

/// The holder keys a request is rebuilt around: the honest one, then
/// non-members a dropped membership check would let through or choke on.
fn holder_key_cases(w: &mut World) -> Vec<(&'static str, BigUint)> {
    let p = w.group.modulus().clone();
    let y = w.holder.public().element().clone();
    vec![
        ("honest", y.clone()),
        ("twisted", w.group.elem_ring().neg(&y)),
        ("zero", BigUint::zero()),
        ("modulus", p.clone()),
        ("above modulus", &p + &y),
        ("order two", &p - &BigUint::one()),
        ("random", BigUint::random_below(&mut w.rng, &p)),
    ]
}

/// The check as every call site spelled it before `verify_member`.
fn spec(w: &World, key: &BigUint, msg: &[u8], holder_sig: &DsaSignature) -> bool {
    w.group.is_element(key) && DsaPublicKey::from_element(key.clone()).verify(&w.group, msg, holder_sig)
}

/// A binding naming `holder_pk`; its own signature is not what the
/// request-level checks look at.
fn binding_to(w: &mut World, holder_pk: &BigUint, signer: BindingSigner) -> Binding {
    let coin_pk = w.coin.public().element().clone();
    let msg = Binding::signed_bytes(&coin_pk, holder_pk, 3, Timestamp(500), signer);
    let sig = w.coin.sign(&w.group, &msg, &mut w.rng);
    Binding::from_parts(coin_pk, holder_pk.clone(), 3, Timestamp(500), signer, sig)
}

#[test]
fn requests_verify_exactly_when_the_spelled_out_check_does() {
    let mut w = world(0xA11CE);
    let mut accepted = 0;
    let mut only_membership_rejected = 0;
    for round in 0..24 {
        for (label, key) in holder_key_cases(&mut w) {
            let current = binding_to(&mut w, &key, BindingSigner::CoinKey);
            let new_holder = w.group.pow_g(&w.group.random_scalar(&mut w.rng));
            let nonce = [round as u8; 32];

            // Every message is signed by the real holder secret over the
            // bytes that name `key`, so under the twisted key the plain
            // equation holds whenever u2 is even.
            let msg = TransferRequest::signed_bytes(&current, &new_holder, &nonce);
            let holder_sig = w.holder.sign(&w.group, &msg, &mut w.rng);
            let group_sig = w.member.sign(&w.group, &w.gpk, &msg, &mut w.rng);
            let want = spec(&w, &key, &msg, &holder_sig);
            let transfer = TransferRequest {
                current: current.clone(),
                new_holder_pk: new_holder.clone(),
                nonce,
                holder_sig: holder_sig.clone(),
                group_sig: group_sig.clone(),
            };
            assert_eq!(transfer.verify(&w.group, &w.gpk), want, "transfer, {label} key");
            assert_eq!(want, label == "honest", "spec verdict, {label} key");
            accepted += want as usize;
            if label == "twisted" {
                let plain = DsaPublicKey::from_element(key.clone());
                only_membership_rejected += plain.verify(&w.group, &msg, &holder_sig) as usize;
            }
            // Ordinary forgeries on top: another nonce, a foreign group signature.
            let replayed = TransferRequest { nonce: [0xEE; 32], ..transfer.clone() };
            assert!(!replayed.verify(&w.group, &w.gpk), "replayed transfer, {label} key");

            let msg = RenewalRequest::signed_bytes(&current);
            let holder_sig = w.holder.sign(&w.group, &msg, &mut w.rng);
            let group_sig = w.member.sign(&w.group, &w.gpk, &msg, &mut w.rng);
            let want = spec(&w, &key, &msg, &holder_sig);
            let renewal = RenewalRequest { current: current.clone(), holder_sig, group_sig };
            assert_eq!(renewal.verify(&w.group, &w.gpk), want, "renewal, {label} key");
            let foreign = RenewalRequest { group_sig: transfer.group_sig.clone(), ..renewal.clone() };
            assert!(!foreign.verify(&w.group, &w.gpk), "renewal with a transfer's group signature");

            let owner = OwnerTag::Anonymous;
            let mint_msg = MintedCoin::signed_bytes(&owner, current.coin_pk());
            let minted = MintedCoin::from_parts(
                owner,
                current.coin_pk().clone(),
                w.broker.sign(&w.group, &mint_msg, &mut w.rng),
            );
            let msg = DepositRequest::signed_bytes(&current);
            let holder_sig = w.holder.sign(&w.group, &msg, &mut w.rng);
            let group_sig = w.member.sign(&w.group, &w.gpk, &msg, &mut w.rng);
            let want = spec(&w, &key, &msg, &holder_sig);
            let deposit = DepositRequest { minted, binding: current, holder_sig, group_sig };
            assert_eq!(deposit.verify(&w.group, &w.gpk), want, "deposit, {label} key");
            // Through the verdict cache: a miss computes it, a hit repeats it.
            let cache = SigCache::new(16);
            for pass in ["miss", "hit"] {
                assert_eq!(
                    deposit.verify_cached(&w.group, &w.gpk, &cache),
                    want,
                    "cached deposit ({pass}), {label} key"
                );
            }
        }
    }
    assert_eq!(accepted, 24, "exactly the honest transfers verify");
    assert!(only_membership_rejected > 0, "some twisted-key signatures satisfy the plain equation");
}

/// The owner serves a holder's transfer and renewal under the holder key
/// of the binding it issued, a key that came in a payee's invite. It must
/// refuse exactly what the spelled-out check refuses: an owner that
/// checked the plain equation alone served the holder of the twisted key
/// `−y` whenever `u2` was even.
#[test]
fn the_owner_serves_holder_requests_exactly_when_the_spelled_out_check_does() {
    let mut w = world(0x0317E5);
    let params = SystemParams::new(w.group.clone());
    let mut broker = Broker::new(params.clone(), w.gpk.clone(), &mut w.rng);
    let (gpk, member) = (w.gpk.clone(), w.member.clone());
    let mut owner = Peer::new(PeerId(2), params, broker.public_key().clone(), gpk, member, &mut w.rng);
    broker.register_peer(PeerId(2), owner.public_key().clone());
    let mut plainly_valid = 0;
    for round in 0..24u8 {
        for (label, key) in holder_key_cases(&mut w) {
            for renew in [false, true] {
                // A fresh coin, issued to an invite naming `key` that the
                // payee group-signed.
                let (purchase, pending) =
                    owner.create_purchase_request(PurchaseMode::Identified, &mut w.rng);
                let minted = broker.handle_purchase(&purchase, &mut w.rng).expect("registered owner");
                let coin = owner.complete_purchase(minted, pending, NOW, &mut w.rng).expect("minted");
                let nonce = [round; 32];
                let invite_msg = PaymentInvite::signed_bytes(&key, &nonce);
                let group_sig = w.member.sign(&w.group, &w.gpk, &invite_msg, &mut w.rng);
                let invite = PaymentInvite { holder_pk: key.clone(), nonce, group_sig };
                let current = owner.issue_coin(coin, &invite, NOW, &mut w.rng).expect("issued").binding;
                assert_eq!(current.holder_pk(), &key);
                // Signed with the secret of `y`, whatever key the binding names.
                let msg = match renew {
                    true => RenewalRequest::signed_bytes(&current),
                    false => TransferRequest::signed_bytes(&current, &key, &nonce),
                };
                let holder_sig = w.holder.sign(&w.group, &msg, &mut w.rng);
                let group_sig = w.member.sign(&w.group, &w.gpk, &msg, &mut w.rng);
                let want = spec(&w, &key, &msg, &holder_sig);
                assert_eq!(want, label == "honest", "spec verdict, {label} key");
                let served = if renew {
                    let request = RenewalRequest { current, holder_sig: holder_sig.clone(), group_sig };
                    assert_eq!(request.verify(&w.group, &w.gpk), want, "renewal, {label} key");
                    owner.handle_renewal(request, NOW, &mut w.rng).map(|_| ())
                } else {
                    let (new_holder_pk, holder_sig) = (key.clone(), holder_sig.clone());
                    let request =
                        TransferRequest { current, new_holder_pk, nonce, holder_sig, group_sig };
                    assert_eq!(request.verify(&w.group, &w.gpk), want, "transfer, {label} key");
                    owner.handle_transfer(request, NOW, &mut w.rng).map(|_| ())
                };
                let verdict = if want { Ok(()) } else { Err(CoreError::BadSignature) };
                assert_eq!(served, verdict, "owner, {label} key, renewal {renew}");
                if label == "twisted" {
                    let plain = DsaPublicKey::from_element(key.clone());
                    plainly_valid += plain.verify(&w.group, &msg, &holder_sig) as usize;
                }
            }
        }
    }
    assert!(plainly_valid > 0, "some twisted-key holder signatures satisfy the plain equation");
}

/// The owner collapsing a layered coin checks the final holder's signature
/// under the key the coin's last layer names, a key that came with the coin
/// and that no layer's check vouches for. An owner that checked the plain
/// equation alone rebound the coin to `y`'s holder when the last layer
/// named the twisted `p − y` and `u2` was even.
#[test]
fn the_owner_collapses_a_layered_coin_only_to_a_member_final_holder() {
    let mut w = world(0xC0114E5);
    let group = w.group.clone();
    let params = SystemParams::new(group.clone());
    let mut broker = Broker::new(params.clone(), w.gpk.clone(), &mut w.rng);
    let (gpk, member) = (w.gpk.clone(), w.member.clone());
    let mut owner =
        Peer::new(PeerId(2), params, broker.public_key().clone(), gpk.clone(), member, &mut w.rng);
    broker.register_peer(PeerId(2), owner.public_key().clone());
    let payee = payee(&mut w);
    for round in 0..8u8 {
        for twisted in [false, true] {
            let (purchase, pending) =
                owner.create_purchase_request(PurchaseMode::Identified, &mut w.rng);
            let minted = broker.handle_purchase(&purchase, &mut w.rng).expect("registered owner");
            let coin = owner.complete_purchase(minted, pending, NOW, &mut w.rng).expect("minted");
            let (invite, session) = payee.begin_receive(&mut w.rng);
            let mut layered =
                LayeredCoin::new(owner.issue_coin(coin, &invite, NOW, &mut w.rng).expect("issued"));
            let y = w.holder.public().element().clone();
            let last_pk = if twisted { group.elem_ring().neg(&y) } else { y };
            layered
                .add_layer(
                    &group,
                    &gpk,
                    &session.holder_keys,
                    &w.member,
                    last_pk.clone(),
                    4,
                    &mut w.rng,
                )
                .expect("the session's key holds the coin");
            // Signed with the secret of `y`, so that under `p − y` the plain
            // equation holds and membership is all that is wrong.
            let nonce = [round; 32];
            let current = layered.base_binding().clone();
            let msg = TransferRequest::signed_bytes(&current, &last_pk, &nonce);
            let request = until_plainly_valid(&group, &last_pk, || {
                let holder_sig = w.holder.sign(&group, &msg, &mut w.rng);
                let group_sig = w.member.sign(&group, &gpk, &msg, &mut w.rng);
                let (current, new_holder_pk) = (current.clone(), last_pk.clone());
                let request = TransferRequest {
                    current,
                    new_holder_pk,
                    nonce,
                    holder_sig: holder_sig.clone(),
                    group_sig,
                };
                (request, msg.clone(), holder_sig)
            });
            let served =
                owner.handle_layered_collapse(&layered, request, 4, NOW, &mut w.rng).map(|_| ());
            let want = if twisted { Err(CoreError::BadSignature) } else { Ok(()) };
            assert_eq!(served, want, "round {round}, twisted final holder {twisted}");
        }
    }
}

#[test]
fn coin_key_bindings_verify_exactly_when_the_spelled_out_check_does() {
    let mut w = world(0xB0B);
    let broker_pk = w.broker.public().clone();
    let holder_pk = w.holder.public().element().clone();
    let p = w.group.modulus().clone();
    let y = w.coin.public().element().clone();
    let mut only_membership_rejected = 0;
    for seq in 0..48u64 {
        let twisted = w.group.elem_ring().neg(&y);
        let random = BigUint::random_below(&mut w.rng, &p);
        for (label, coin_pk) in [
            ("honest", y.clone()),
            ("twisted", twisted),
            ("zero", BigUint::zero()),
            ("modulus", p.clone()),
            ("random", random),
        ] {
            // Signed by the real coin secret over bytes naming `coin_pk`.
            let msg = Binding::signed_bytes(
                &coin_pk,
                &holder_pk,
                seq,
                Timestamp(900),
                BindingSigner::CoinKey,
            );
            let sig = w.coin.sign(&w.group, &msg, &mut w.rng);
            let want = spec(&w, &coin_pk, &msg, &sig);
            assert_eq!(want, label == "honest", "spec verdict, {label} coin key");
            if label == "twisted" {
                let plain = DsaPublicKey::from_element(coin_pk.clone());
                only_membership_rejected += plain.verify(&w.group, &msg, &sig) as usize;
            }
            let binding = Binding::from_parts(
                coin_pk,
                holder_pk.clone(),
                seq,
                Timestamp(900),
                BindingSigner::CoinKey,
                sig.clone(),
            );
            assert_eq!(binding.verify(&w.group, &broker_pk), want, "binding, {label} coin key");
            let cache = SigCache::new(16);
            assert_eq!(binding.verify_cached(&w.group, &broker_pk, &cache), want, "cached, {label}");
            assert_eq!(binding.verify_cached(&w.group, &broker_pk, &cache), want, "cache hit, {label}");
            // The same bytes claimed as broker-signed check against the
            // broker key, which never signed them.
            let relabelled = Binding::from_parts(
                binding.coin_pk().clone(),
                holder_pk.clone(),
                seq,
                Timestamp(900),
                BindingSigner::Broker,
                sig,
            );
            assert!(!relabelled.verify(&w.group, &broker_pk), "relabelled, {label}");
        }
    }
    assert!(only_membership_rejected > 0, "some twisted-key bindings satisfy the plain equation");
}

/// `Peer::accept_grant` as it stood before the three checks shared a
/// chain: mint, binding and proof each verified on its own, the proof
/// under the coin key taken as given.
fn accept_grant_spec(
    w: &World,
    cache: &SigCache,
    grant: &CoinGrant,
    session: &ReceiveSession,
    now: Timestamp,
) -> Result<CoinId, CoreError> {
    let (group, broker) = (&w.group, w.broker.public());
    if !grant.minted.verify_cached(group, broker, cache) {
        return Err(CoreError::BadSignature);
    }
    if !grant.binding.verify_cached(group, broker, cache)
        || grant.binding.coin_pk() != grant.minted.coin_pk()
    {
        return Err(CoreError::BadSignature);
    }
    if grant.binding.holder_pk() != session.holder_keys.public().element() {
        return Err(CoreError::HolderKeyMismatch);
    }
    if grant.binding.is_expired(now) {
        return Err(CoreError::Expired { expired_at: grant.binding.expires() });
    }
    let msg = CoinGrant::proof_bytes(grant.minted.coin_pk(), grant.binding.holder_pk(), &session.nonce);
    let proven =
        match grant.binding.signer() {
            BindingSigner::CoinKey => DsaPublicKey::from_element(grant.minted.coin_pk().clone())
                .verify(group, &msg, &grant.ownership_proof),
            BindingSigner::Broker => broker.verify(group, &msg, &grant.ownership_proof),
        };
    if !proven {
        return Err(CoreError::BadOwnershipProof);
    }
    Ok(grant.minted.id())
}

/// Who signs what in a grant built by [`grant_with`], and under which
/// names.
struct GrantPlan {
    /// The coin key the mint names.
    minted_pk: BigUint,
    /// The coin key the binding names.
    binding_pk: BigUint,
    signer: BindingSigner,
    /// The holder key the binding names (`None`: the session's).
    holder_pk: Option<BigUint>,
    expires: Timestamp,
    forge_mint: bool,
    forge_binding: bool,
    forge_proof: bool,
}

/// A grant following `plan`, every signature made with the real secrets
/// (the coin's, or the broker's for a downtime binding) over the bytes
/// that name the plan's keys — so under the twisted key `−y` the plain
/// equations hold whenever `u2` is even — and then forged where asked by
/// signing other bytes.
fn grant_with(w: &mut World, plan: &GrantPlan, session: &ReceiveSession) -> CoinGrant {
    let group = w.group.clone();
    let owner = OwnerTag::Identified(PeerId(7));
    let forged = |msg: Vec<u8>, forge: bool| if forge { [msg, vec![0xF0]].concat() } else { msg };
    let mint_msg = forged(MintedCoin::signed_bytes(&owner, &plan.minted_pk), plan.forge_mint);
    let minted = MintedCoin::from_parts(
        owner,
        plan.minted_pk.clone(),
        w.broker.sign(&group, &mint_msg, &mut w.rng),
    );
    let holder_pk =
        plan.holder_pk.clone().unwrap_or_else(|| session.holder_keys.public().element().clone());
    let signing_key = match plan.signer {
        BindingSigner::CoinKey => w.coin.clone(),
        BindingSigner::Broker => w.broker.clone(),
    };
    let binding_msg = forged(
        Binding::signed_bytes(&plan.binding_pk, &holder_pk, 4, plan.expires, plan.signer),
        plan.forge_binding,
    );
    let binding = Binding::from_parts(
        plan.binding_pk.clone(),
        holder_pk.clone(),
        4,
        plan.expires,
        plan.signer,
        signing_key.sign(&group, &binding_msg, &mut w.rng),
    );
    let proof_msg =
        forged(CoinGrant::proof_bytes(&plan.minted_pk, &holder_pk, &session.nonce), plan.forge_proof);
    let ownership_proof = signing_key.sign(&group, &proof_msg, &mut w.rng);
    CoinGrant { minted, binding, ownership_proof }
}

fn payee(w: &mut World) -> Peer {
    let params = SystemParams::new(w.group.clone());
    Peer::new(PeerId(1), params, w.broker.public().clone(), w.gpk.clone(), w.member.clone(), &mut w.rng)
}

fn session(w: &mut World, round: u8) -> ReceiveSession {
    ReceiveSession { holder_keys: DsaKeyPair::generate(&w.group, &mut w.rng), nonce: [round; 32] }
}

/// The same session again (`ReceiveSession` is deliberately not `Clone`).
fn again(session: &ReceiveSession) -> ReceiveSession {
    ReceiveSession { holder_keys: session.holder_keys.clone(), nonce: session.nonce }
}

fn traffic(cache: &SigCache) -> (u64, u64, u64, usize) {
    (cache.hits(), cache.misses(), cache.evictions(), cache.len())
}

const NOW: Timestamp = Timestamp(100);

/// An honest coin-key-signed grant of the coin `pk`, to the session's key.
fn honest(pk: &BigUint) -> GrantPlan {
    GrantPlan {
        minted_pk: pk.clone(),
        binding_pk: pk.clone(),
        signer: BindingSigner::CoinKey,
        holder_pk: None,
        expires: Timestamp(900),
        forge_mint: false,
        forge_binding: false,
        forge_proof: false,
    }
}

/// Every way a grant can be wrong, one at a time, and the honest one.
fn grant_cases(w: &mut World) -> Vec<(&'static str, GrantPlan, Result<(), CoreError>)> {
    let p = w.group.modulus().clone();
    let y = w.coin.public().element().clone();
    let other = w.group.pow_g(&w.group.random_scalar(&mut w.rng));
    let bad_sig = Err(CoreError::BadSignature);
    vec![
        ("honest", honest(&y), Ok(())),
        ("downtime", GrantPlan { signer: BindingSigner::Broker, ..honest(&y) }, Ok(())),
        ("forged mint", GrantPlan { forge_mint: true, ..honest(&y) }, bad_sig.clone()),
        ("forged binding", GrantPlan { forge_binding: true, ..honest(&y) }, bad_sig.clone()),
        (
            "forged downtime binding",
            GrantPlan { signer: BindingSigner::Broker, forge_binding: true, ..honest(&y) },
            bad_sig.clone(),
        ),
        (
            "forged proof",
            GrantPlan { forge_proof: true, ..honest(&y) },
            Err(CoreError::BadOwnershipProof),
        ),
        (
            "forged downtime proof",
            GrantPlan { signer: BindingSigner::Broker, forge_proof: true, ..honest(&y) },
            Err(CoreError::BadOwnershipProof),
        ),
        ("twisted coin key", honest(&w.group.elem_ring().neg(&y)), bad_sig.clone()),
        ("zero coin key", honest(&BigUint::zero()), bad_sig.clone()),
        ("coin key = p", honest(&p), bad_sig.clone()),
        ("coin key above p", honest(&(&p + &y)), bad_sig.clone()),
        ("order-two coin key", honest(&(&p - &BigUint::one())), bad_sig.clone()),
        (
            "binding about another coin",
            GrantPlan { binding_pk: other.clone(), ..honest(&y) },
            bad_sig.clone(),
        ),
        ("mint of another coin", GrantPlan { minted_pk: other.clone(), ..honest(&y) }, bad_sig.clone()),
        (
            "wrong holder key",
            GrantPlan { holder_pk: Some(other), ..honest(&y) },
            Err(CoreError::HolderKeyMismatch),
        ),
        (
            "expired",
            GrantPlan { expires: Timestamp(100), ..honest(&y) },
            Err(CoreError::Expired { expired_at: Timestamp(100) }),
        ),
        (
            "expired with a forged proof",
            GrantPlan { expires: Timestamp(50), forge_proof: true, ..honest(&y) },
            Err(CoreError::Expired { expired_at: Timestamp(50) }),
        ),
        (
            "wrong holder key on a forged binding",
            GrantPlan { holder_pk: Some(y.clone()), forge_binding: true, ..honest(&y) },
            bad_sig,
        ),
    ]
}

#[test]
fn accept_grant_refuses_exactly_what_the_three_separate_checks_refused() {
    let mut w = world(0xACCE97);
    let mut only_membership_rejected = 0;
    for round in 0..12u8 {
        for (label, plan, want) in grant_cases(&mut w) {
            let session = session(&mut w, round);
            let grant = grant_with(&mut w, &plan, &session);
            if label == "twisted coin key" {
                // The case the membership power decides alone.
                let plain = DsaPublicKey::from_element(plan.binding_pk.clone());
                let (_, msg) = grant.binding.signed_claim(w.broker.public());
                only_membership_rejected +=
                    plain.verify(&w.group, &msg, grant.binding.raw_sig()) as usize;
            }
            // A cold cache, the same grant again on the warm one, and a
            // cache so small every insertion rotates a generation out.
            for capacity in [64, 2] {
                let mut peer = payee(&mut w);
                let (cache, spec_cache) = (Arc::new(SigCache::new(capacity)), SigCache::new(capacity));
                peer.use_sig_cache(cache.clone());
                for pass in ["cold", "warm"] {
                    let got = peer.accept_grant(grant.clone(), again(&session), NOW);
                    let spec = accept_grant_spec(&w, &spec_cache, &grant, &session, NOW);
                    assert_eq!(got, spec, "{label}, {pass}, capacity {capacity}");
                    assert_eq!(got.clone().map(|_| ()), want, "{label}, {pass}");
                    assert_eq!(
                        traffic(&cache),
                        traffic(&spec_cache),
                        "{label}, {pass}, capacity {capacity}"
                    );
                    assert_eq!(
                        peer.held_coins(),
                        got.into_iter().collect::<Vec<_>>(),
                        "{label}, {pass}"
                    );
                }
            }
        }
    }
    assert!(only_membership_rejected > 0, "some twisted-key bindings satisfy the plain equation");
}

/// Cached verdicts enter in every combination: the mint's, the
/// binding's, both, and a binding verdict the mint's own insertion
/// rotates out between the moment it is seen and the moment it is used.
#[test]
fn accept_grant_uses_cached_verdicts_exactly_as_the_separate_checks_did() {
    let mut w = world(0xCAC4ED);
    let broker_pk = w.broker.public().clone();
    for round in 0..6u8 {
        for (label, plan, want) in grant_cases(&mut w) {
            let session = session(&mut w, round);
            let grant = grant_with(&mut w, &plan, &session);
            for (warm_mint, warm_binding, capacity) in [
                (true, false, 64),
                (false, true, 64),
                (true, true, 64),
                (false, true, 2),
                (true, true, 2),
            ] {
                let mut peer = payee(&mut w);
                let (cache, spec_cache) = (Arc::new(SigCache::new(capacity)), SigCache::new(capacity));
                peer.use_sig_cache(cache.clone());
                for cache in [&*cache, &spec_cache] {
                    if warm_binding {
                        grant.binding.verify_cached(&w.group, &broker_pk, cache);
                    }
                    if warm_mint {
                        grant.minted.verify_cached(&w.group, &broker_pk, cache);
                    }
                    if capacity == 2 {
                        // Fill the young generation: the next insertion
                        // drops whatever the old one holds.
                        cache.prime([round; 32], true);
                    }
                }
                let got = peer.accept_grant(grant.clone(), again(&session), NOW);
                let spec = accept_grant_spec(&w, &spec_cache, &grant, &session, NOW);
                let setting =
                    format!("{label}, mint {warm_mint}, binding {warm_binding}, capacity {capacity}");
                assert_eq!(got, spec, "{setting}");
                assert_eq!(got.map(|_| ()), want, "{setting}");
                assert_eq!(traffic(&cache), traffic(&spec_cache), "{setting}");
            }
        }
    }
}

/// `CoinGrant::verify_proof` stands on its own: a proof under a coin key
/// that is no group element is refused without anyone having checked the
/// mint first.
#[test]
fn verify_proof_checks_the_coin_key_it_verifies_under() {
    let mut w = world(0x9400F);
    let broker_pk = w.broker.public().clone();
    let mut plain_accepts = 0;
    for round in 0..32u8 {
        let session = session(&mut w, round);
        let y = w.coin.public().element().clone();
        for (coin_pk, member) in [(y.clone(), true), (w.group.elem_ring().neg(&y), false)] {
            let grant = grant_with(&mut w, &honest(&coin_pk), &session);
            assert_eq!(grant.verify_proof(&w.group, &broker_pk, &session.nonce), member);
            assert!(!grant.verify_proof(&w.group, &broker_pk, &[0xEE; 32]));
            if !member {
                let msg = CoinGrant::proof_bytes(&coin_pk, grant.binding.holder_pk(), &session.nonce);
                plain_accepts +=
                    DsaPublicKey::from_element(coin_pk).verify(&w.group, &msg, &grant.ownership_proof)
                        as usize;
            }
        }
    }
    assert!(plain_accepts > 0, "some twisted-key proofs satisfy the plain equation");
}

/// Items checked under a twisted key in each of the sweeps below.
const TWISTED: usize = 16;

/// The world of the twisted-key sweeps — over the 512/160 group, whose
/// cofactor 2, 3 and 4 all divide — and an element of each order.
fn twisting_world(seed: u64) -> (World, [BigUint; 3]) {
    let w = world_over(small_group(), seed);
    let etas = [2, 3, 4].map(|d| element_of_order(&w.group, d).expect("d divides the cofactor"));
    assert!(etas.iter().all(|eta| !w.group.is_element(eta)));
    (w, etas)
}

/// `make()` again and again until the signature it returns over `msg`
/// satisfies the plain DSA equation under `key` — for a signature by the
/// secret of `y` under the key `y·eta`, until `eta^u2 = 1` — so that the
/// membership of `key` is the only thing left to refuse it for.
fn until_plainly_valid<T>(
    group: &SchnorrGroup,
    key: &BigUint,
    mut make: impl FnMut() -> (T, Vec<u8>, DsaSignature),
) -> T {
    let plain = DsaPublicKey::from_element(key.clone());
    loop {
        let (made, msg, sig) = make();
        if plain.verify(group, &msg, &sig) {
            return made;
        }
    }
}

#[test]
fn accept_grant_refuses_every_twisted_coin_key() {
    let (mut w, etas) = twisting_world(0x7A157ED);
    let broker_pk = w.broker.public().clone();
    let mut grants = Vec::new();
    let mut twisted_at = Vec::new();
    for i in 0..2 * TWISTED {
        w.coin = DsaKeyPair::generate(&w.group, &mut w.rng);
        let y = w.coin.public().element().clone();
        let session = session(&mut w, i as u8);
        let grant = if i % 2 == 0 {
            grant_with(&mut w, &honest(&y), &session)
        } else {
            twisted_at.push(i);
            let coin_pk = w.group.elem_ring().mul(&y, &etas[i / 2 % 3]);
            assert!(!w.group.is_element(&coin_pk));
            let group = w.group.clone();
            until_plainly_valid(&group, &coin_pk, || {
                let grant = grant_with(&mut w, &honest(&coin_pk), &session);
                let (_, msg) = grant.binding.signed_claim(&broker_pk);
                let sig = grant.binding.raw_sig().clone();
                (grant, msg, sig)
            })
        };
        grants.push((grant, session));
    }
    assert_eq!(twisted_at.len(), TWISTED);
    let mut peer = payee(&mut w);
    let mut accepted = Vec::new();
    for (i, (grant, session)) in grants.into_iter().enumerate() {
        let result = peer.accept_grant(grant, session, NOW);
        match twisted_at.contains(&i) {
            true => assert_eq!(result, Err(CoreError::BadSignature), "grant {i}"),
            false => accepted.push(result.unwrap_or_else(|e| panic!("grant {i}: {e:?}"))),
        }
    }
    accepted.sort();
    assert_eq!(peer.held_coins(), accepted);
    assert_eq!(accepted.len(), TWISTED);
}

#[test]
fn record_verify_refuses_every_twisted_subject() {
    let (mut w, etas) = twisting_world(0x5B1EC7);
    let group = w.group.clone();
    let broker_pk = w.broker.public().clone();
    let mut records = Vec::new();
    for i in 0..TWISTED as u64 {
        let keys = DsaKeyPair::generate(&group, &mut w.rng);
        let y = keys.public().element().clone();
        let record = |subject: &BigUint, writer: Writer, w: &mut World| {
            let value = vec![i as u8; 5];
            let msg = SignedRecord::signed_bytes(subject, &value, i, writer);
            let signer = if writer == Writer::Subject { &keys } else { &w.broker };
            let signature = signer.sign(&group, &msg, &mut w.rng);
            let record =
                SignedRecord { subject: subject.clone(), value, version: i, writer, signature };
            (record.clone(), msg, record.signature)
        };
        let twisted = group.elem_ring().mul(&y, &etas[i as usize % 3]);
        records
            .push(until_plainly_valid(&group, &twisted, || record(&twisted, Writer::Subject, &mut w)));
        // Next to it: the same subject written honestly, and by the broker.
        records.push(record(&y, Writer::Subject, &mut w).0);
        records.push(record(&y, Writer::Broker, &mut w).0);
    }
    let want: Vec<bool> = records.iter().map(|r| r.verify(&group, &broker_pk)).collect();
    assert_eq!(want, [false, true, true].repeat(TWISTED));
}

#[test]
fn layered_verify_refuses_every_twisted_relinquishing_key() {
    let (mut w, etas) = twisting_world(0x1A7E2ED);
    let group = w.group.clone();
    let (broker_pk, gpk) = (w.broker.public().clone(), w.gpk.clone());
    for i in 0..2 * TWISTED {
        w.coin = DsaKeyPair::generate(&group, &mut w.rng);
        let coin_pk = w.coin.public().element().clone();
        let session = session(&mut w, i as u8);
        let mut layered = LayeredCoin::new(grant_with(&mut w, &honest(&coin_pk), &session));
        // The first hop hands the coin to a middle key — twisted in every
        // other coin — and the second is signed for with the real secret
        // behind it.
        let middle = DsaKeyPair::generate(&group, &mut w.rng);
        let twist = (i % 2 == 1).then(|| &etas[i / 2 % 3]);
        let middle_pk = match twist {
            Some(eta) => group.elem_ring().mul(middle.public().element(), eta),
            None => middle.public().element().clone(),
        };
        layered
            .add_layer(&group, &gpk, &session.holder_keys, &w.member, middle_pk.clone(), 4, &mut w.rng)
            .expect("the session's key holds the coin");
        let last_pk = DsaKeyPair::generate(&group, &mut w.rng).public().element().clone();
        let msg = Layer::signed_bytes(&coin_pk, layered.base.binding.seq(), 1, &last_pk);
        let group_sig = w.member.sign(&group, &gpk, &msg, &mut w.rng);
        layered.layers.push(until_plainly_valid(&group, &middle_pk, || {
            let relinquish_sig = middle.sign(&group, &msg, &mut w.rng);
            let layer = Layer {
                new_holder_pk: last_pk.clone(),
                relinquish_sig: relinquish_sig.clone(),
                group_sig: group_sig.clone(),
            };
            (layer, msg.clone(), relinquish_sig)
        }));
        let want = twist.map_or(Ok(()), |_| Err(CoreError::BadSignature));
        assert_eq!(layered.verify(&group, &broker_pk, &gpk, 4), want, "coin {i}");
    }
}

/// `verify_dsa_each` against `verify_member` item by item: 1 to 17 items
/// (an empty batch too) under one key, three keys and a key each, with
/// forgeries and with keys that are no members — zero, `p`, a random
/// element, a real key twisted — signed for where anybody can.
#[test]
fn verify_dsa_each_gives_each_item_the_verdict_of_verify_member() {
    let (mut w, etas) = twisting_world(0xEAC4);
    let group = w.group.clone();
    assert!(verify_dsa_each(&group, &[]).is_empty());
    let (mut accepted, mut refused, mut membership_alone) = (0, 0, 0);
    for n in 1..=17usize {
        for keys in [1, 3, n] {
            let pairs: Vec<DsaKeyPair> =
                (0..keys).map(|_| DsaKeyPair::generate(&group, &mut w.rng)).collect();
            let items: Vec<DsaBatchItem> = (0..n)
                .map(|i| {
                    let pair = &pairs[i % keys];
                    let y = pair.public().element();
                    let mut message = format!("{n} items, {keys} keys, item {i}").into_bytes();
                    let sig = pair.sign(&group, &message, &mut w.rng);
                    let key = match (n + keys + i) % 9 {
                        0 => BigUint::zero(),
                        1 => group.modulus().clone(),
                        2 => BigUint::random_below(&mut w.rng, group.modulus()),
                        3 => group.elem_ring().mul(y, &etas[i % 3]),
                        4 => {
                            message.push(0xA5);
                            y.clone()
                        }
                        _ => y.clone(),
                    };
                    DsaBatchItem { key: DsaPublicKey::from_element(key), message, sig }
                })
                .collect();
            let want: Vec<bool> = items
                .iter()
                .map(|it| DsaPublicKey::verify_member(&group, it.key.element(), &it.message, &it.sig))
                .collect();
            assert_eq!(verify_dsa_each(&group, &items), want, "{n} items under {keys} keys");
            for (item, ok) in items.iter().zip(&want) {
                accepted += *ok as usize;
                refused += !*ok as usize;
                membership_alone += (!ok && item.key.verify(&group, &item.message, &item.sig)) as usize;
            }
        }
    }
    assert!(accepted > 100 && refused > 100, "both verdicts must occur ({accepted} / {refused})");
    assert!(membership_alone > 3, "{membership_alone} items refused for their key's membership alone");
}
