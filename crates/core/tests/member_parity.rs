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
//! rejects.

use whopay_core::sigcache::SigCache;
use whopay_core::{
    Binding, BindingSigner, DepositRequest, Judge, MintedCoin, OwnerTag, PeerId, RenewalRequest,
    Timestamp, TransferRequest,
};
use whopay_crypto::dsa::{DsaKeyPair, DsaPublicKey, DsaSignature};
use whopay_crypto::group_sig::{GroupMemberKey, GroupPublicKey};
use whopay_crypto::testing::{test_rng, tiny_group};
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
    let mut rng = test_rng(seed);
    let group = tiny_group().clone();
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
