//! Proactive sync (§4): an owner adopts the broker's downtime bindings.
//!
//! [`Peer::adopt_broker_binding`] refuses a binding not signed by the
//! broker, then skips the binding it already holds — a broker-signed
//! binding reaches an owned coin only through this function, after its
//! signature verified — and only then verifies. These tests pin that a
//! repeated sync costs no verification, that everything new is still
//! verified, and that the error classes are unchanged. The broker's sync
//! answer is a function of its state: two brokers built from one seed
//! answer with the same bytes.

use whopay_core::wire::Response;
use whopay_core::{
    Binding, BindingSigner, Broker, CoinId, CoreError, Judge, Peer, PeerId, PurchaseMode, SystemParams,
    Timestamp,
};
use whopay_crypto::dsa::DsaSignature;
use whopay_crypto::testing::{test_rng, tiny_group};
use whopay_num::BigUint;

struct World {
    params: SystemParams,
    broker: Broker,
    peers: Vec<Peer>,
    rng: rand::rngs::StdRng,
}

fn world(seed: u64) -> World {
    let mut rng = test_rng(seed);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let mut broker = Broker::new(params.clone(), judge.public_key().clone(), &mut rng);
    let peers = (0..4u64)
        .map(|i| {
            let gk = judge.enroll(PeerId(i), &mut rng);
            let peer = Peer::new(
                PeerId(i),
                params.clone(),
                broker.public_key().clone(),
                judge.public_key().clone(),
                gk,
                &mut rng,
            );
            broker.register_peer(PeerId(i), peer.public_key().clone());
            peer
        })
        .collect();
    World { params, broker, peers, rng }
}

/// Peer 0 buys a coin and issues it to peer 1.
fn issued_coin(w: &mut World) -> CoinId {
    let now = Timestamp(0);
    let (req, pending) = w.peers[0].create_purchase_request(PurchaseMode::Identified, &mut w.rng);
    let minted = w.broker.handle_purchase(&req, &mut w.rng).unwrap();
    let coin = w.peers[0].complete_purchase(minted, pending, now, &mut w.rng).unwrap();
    let (invite, session) = w.peers[1].begin_receive(&mut w.rng);
    let grant = w.peers[0].issue_coin(coin, &invite, now, &mut w.rng).unwrap();
    w.peers[1].accept_grant(grant, session, now).unwrap();
    coin
}

/// `holder` pays `payee` with `coin` through the broker while the owner
/// is away.
fn downtime_transfer(w: &mut World, coin: CoinId, holder: usize, payee: usize) {
    let (invite, session) = w.peers[payee].begin_receive(&mut w.rng);
    let req = w.peers[holder].request_transfer(coin, &invite, &mut w.rng).unwrap();
    let grant = w.broker.handle_downtime_transfer(&req, Timestamp(10), &mut w.rng).unwrap();
    w.peers[payee].accept_grant(grant, session, Timestamp(10)).unwrap();
    w.peers[holder].complete_transfer(coin);
}

/// The broker's answer to peer 0's sync.
fn sync_answer(w: &mut World) -> Vec<Binding> {
    let challenge = b"sync-challenge";
    let response = w.peers[0].sign_identity_challenge(challenge, &mut w.rng);
    w.broker.sync_for_owner(PeerId(0), challenge, &response).unwrap()
}

/// Peer 0 syncs and adopts what the broker holds: how many it adopted.
fn sync(w: &mut World) -> usize {
    let mut adopted = 0;
    for binding in sync_answer(w) {
        adopted += usize::from(w.peers[0].adopt_broker_binding(binding).unwrap());
    }
    adopted
}

fn cache_traffic(peer: &Peer) -> (u64, u64) {
    (peer.sig_cache().hits(), peer.sig_cache().misses())
}

fn with_sig(binding: &Binding, sig: DsaSignature) -> Binding {
    Binding::from_parts(
        binding.coin_pk().clone(),
        binding.holder_pk().clone(),
        binding.seq(),
        binding.expires(),
        binding.signer(),
        sig,
    )
}

#[test]
fn a_second_sync_adopts_nothing_and_verifies_nothing() {
    let mut w = world(0x5A0C_0001);
    let coins: Vec<CoinId> = (0..3).map(|_| issued_coin(&mut w)).collect();
    for &coin in &coins {
        downtime_transfer(&mut w, coin, 1, 2);
    }
    let before = cache_traffic(&w.peers[0]);
    assert_eq!(sync(&mut w), 3);
    let after_first = cache_traffic(&w.peers[0]);
    assert_eq!(after_first.1, before.1 + 3, "each new binding verified once");

    assert_eq!(sync(&mut w), 0);
    assert_eq!(cache_traffic(&w.peers[0]), after_first, "the held bindings are not checked again");
}

#[test]
fn a_newer_broker_binding_is_still_verified_and_adopted() {
    let mut w = world(0x5A0C_0002);
    let coin = issued_coin(&mut w);
    downtime_transfer(&mut w, coin, 1, 2);
    assert_eq!(sync(&mut w), 1);
    let held = w.peers[0].owned_coin(&coin).unwrap().binding.clone();

    downtime_transfer(&mut w, coin, 2, 3);
    let before = cache_traffic(&w.peers[0]);
    assert_eq!(sync(&mut w), 1);
    assert_eq!(cache_traffic(&w.peers[0]).1, before.1 + 1, "the newer binding was verified");
    let adopted = &w.peers[0].owned_coin(&coin).unwrap().binding;
    assert!(adopted.seq() > held.seq());
    assert_eq!(adopted.signer(), BindingSigner::Broker);
}

#[test]
fn a_held_binding_with_other_signature_bytes_is_bad_signature() {
    let mut w = world(0x5A0C_0003);
    let coin = issued_coin(&mut w);
    downtime_transfer(&mut w, coin, 1, 2);
    assert_eq!(sync(&mut w), 1);
    let held = w.peers[0].owned_coin(&coin).unwrap().binding.clone();
    assert_eq!(held.signer(), BindingSigner::Broker);

    let sig = held.raw_sig();
    let one = BigUint::one();
    for forged in [
        with_sig(&held, DsaSignature::from_parts(sig.r() + &one, sig.s().clone())),
        with_sig(&held, DsaSignature::from_parts(sig.r().clone(), sig.s() + &one)),
    ] {
        assert_eq!(w.peers[0].adopt_broker_binding(forged), Err(CoreError::BadSignature));
    }
    assert_eq!(w.peers[0].owned_coin(&coin).unwrap().binding, held);
}

#[test]
fn a_coin_key_binding_equal_to_the_held_one_is_bad_signature() {
    let mut w = world(0x5A0C_0004);
    let coin = issued_coin(&mut w);
    let held = w.peers[0].owned_coin(&coin).unwrap().binding.clone();
    assert_eq!(held.signer(), BindingSigner::CoinKey, "the owner's own binding");
    assert_eq!(w.peers[0].adopt_broker_binding(held), Err(CoreError::BadSignature));
}

#[test]
fn sync_answers_are_a_function_of_the_seed() {
    // Two brokers built and driven from one seed hold the same state; a
    // sync must list the owner's bindings in the same order on both, so
    // that a fault plan corrupting a fixed offset of the reply hits the
    // same binding on every run.
    let answer = || {
        let mut w = world(0x5A0C_0005);
        for _ in 0..12 {
            let coin = issued_coin(&mut w);
            downtime_transfer(&mut w, coin, 1, 2);
        }
        let bindings = sync_answer(&mut w);
        assert_eq!(bindings.len(), 12);
        let group = w.params.group().clone();
        assert!(bindings.iter().all(|b| b.verify(&group, w.broker.public_key())));
        Response::Bindings(bindings).encode()
    };
    assert!(answer() == answer(), "two brokers built from one seed answered one sync differently");
}
