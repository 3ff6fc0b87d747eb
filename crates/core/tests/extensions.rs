//! Tests for the §5 extensions: real-time double-spending detection over
//! the DHT, issuer anonymity (coin shops, owner-anonymous coins, i3
//! indirection, lazy sync), and the §7 layered-coin offline transfer.

use whopay_core::{
    dsd, layered::LayeredCoin, Broker, CoinShop, CoreError, Journal, Judge, Peer, PeerId, PurchaseMode,
    SystemParams, Timestamp,
};
use whopay_crypto::dsa::DsaKeyPair;
use whopay_crypto::testing::{test_rng, tiny_group};
use whopay_dht::{Dht, DhtConfig, RingId};
use whopay_net::{Handle, IndirectionLayer, Network};

struct World {
    params: SystemParams,
    judge: Judge,
    broker: Broker,
    peers: Vec<Peer>,
    rng: rand::rngs::StdRng,
}

fn world(n: usize, seed: u64) -> World {
    let mut rng = test_rng(seed);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let mut broker = Broker::new(params.clone(), judge.public_key().clone(), &mut rng);
    let peers: Vec<Peer> = (0..n)
        .map(|i| {
            let id = PeerId(i as u64);
            let gk = judge.enroll(id, &mut rng);
            let peer = Peer::new(
                id,
                params.clone(),
                broker.public_key().clone(),
                judge.public_key().clone(),
                gk,
                &mut rng,
            );
            broker.register_peer(id, peer.public_key().clone());
            peer
        })
        .collect();
    World { params, judge, broker, peers, rng }
}

fn dht_for(w: &World, nodes: usize, rng: &mut rand::rngs::StdRng) -> (Dht, RingId) {
    let mut dht =
        Dht::new(w.params.group().clone(), w.broker.public_key().clone(), DhtConfig::default());
    for _ in 0..nodes {
        dht.join(RingId::random(rng));
    }
    let entry = dht.node_ids()[0];
    (dht, entry)
}

#[test]
fn payee_rejects_grant_until_public_binding_updated() {
    let mut w = world(3, 20);
    let mut rng = test_rng(200);
    let (mut dht, entry) = dht_for(&w, 12, &mut rng);
    let t0 = Timestamp(0);

    let (req, pending) = w.peers[0].create_purchase_request(PurchaseMode::Identified, &mut w.rng);
    let minted = w.broker.handle_purchase(&req, &mut w.rng).unwrap();
    let coin = w.peers[0].complete_purchase(minted, pending, t0, &mut w.rng).unwrap();

    // Owner issues to peer 1 but "forgets" to publish the new binding.
    let (invite, _session) = w.peers[1].begin_receive(&mut w.rng);
    let grant = w.peers[0].issue_coin(coin, &invite, t0, &mut w.rng).unwrap();
    assert_eq!(
        dsd::verify_grant_published(&mut dht, entry, &grant),
        Err(CoreError::PublicBindingMissing),
        "no public binding yet"
    );

    // After publication the check passes and the payee accepts.
    dsd::publish_owner_binding(&w.peers[0], coin, &mut dht, entry, &mut w.rng).unwrap();
    dsd::verify_grant_published(&mut dht, entry, &grant).unwrap();
}

#[test]
fn stale_published_binding_fails_the_payee_check() {
    let mut w = world(3, 21);
    let mut rng = test_rng(210);
    let (mut dht, entry) = dht_for(&w, 12, &mut rng);
    let t0 = Timestamp(0);

    let (req, pending) = w.peers[0].create_purchase_request(PurchaseMode::Identified, &mut w.rng);
    let minted = w.broker.handle_purchase(&req, &mut w.rng).unwrap();
    let coin = w.peers[0].complete_purchase(minted, pending, t0, &mut w.rng).unwrap();
    // Publish the *initial* (seq 0) binding.
    dsd::publish_owner_binding(&w.peers[0], coin, &mut dht, entry, &mut w.rng).unwrap();

    // Issue (seq 1) but never publish the update: payee check fails.
    let (invite, _session) = w.peers[1].begin_receive(&mut w.rng);
    let grant = w.peers[0].issue_coin(coin, &invite, t0, &mut w.rng).unwrap();
    assert_eq!(
        dsd::verify_grant_published(&mut dht, entry, &grant),
        Err(CoreError::PublicBindingMismatch)
    );
}

#[test]
fn holder_monitor_raises_double_spend_alarm_in_real_time() {
    let mut w = world(4, 22);
    let mut rng = test_rng(220);
    let (mut dht, entry) = dht_for(&w, 12, &mut rng);
    let t0 = Timestamp(0);

    let (req, pending) = w.peers[0].create_purchase_request(PurchaseMode::Identified, &mut w.rng);
    let minted = w.broker.handle_purchase(&req, &mut w.rng).unwrap();
    let coin = w.peers[0].complete_purchase(minted, pending, t0, &mut w.rng).unwrap();
    dsd::publish_owner_binding(&w.peers[0], coin, &mut dht, entry, &mut w.rng).unwrap();

    // Issue to peer 1; owner publishes; peer 1 starts monitoring.
    let (invite, session) = w.peers[1].begin_receive(&mut w.rng);
    let grant = w.peers[0].issue_coin(coin, &invite, t0, &mut w.rng).unwrap();
    dsd::publish_owner_binding(&w.peers[0], coin, &mut dht, entry, &mut w.rng).unwrap();
    dsd::verify_grant_published(&mut dht, entry, &grant).unwrap();
    let held_seq = grant.binding.seq();
    let coin_pk = grant.minted.coin_pk().clone();
    w.peers[1].accept_grant(grant, session, t0).unwrap();

    let mut monitor = dsd::HoldingMonitor::new();
    monitor.watch(&mut dht, coin, &coin_pk, held_seq);
    assert!(monitor.poll(&mut dht).is_empty(), "no alarm while honest");

    // The owner double-spends: while peer 1 still holds the coin, the
    // dishonest owner signs a conflicting binding (it knows skC, so the
    // DHT's access control accepts the write) naming a fresh holder key,
    // and publishes it — e.g. to convince peer 2 to accept the same coin.
    let conflicting = {
        use whopay_dht::{SignedRecord, Writer};
        let fresh_holder = DsaKeyPair::generate(w.params.group(), &mut w.rng);
        let owned = w.peers[0].owned_coin(&coin).unwrap();
        // Public state bytes: (holder_pk, seq, expires) in codec format.
        let mut value = whopay_core::codec::Writer::new();
        value.int(fresh_holder.public().element()).u64(held_seq + 1).u64(1000);
        let value = value.finish();
        let msg = SignedRecord::signed_bytes(&coin_pk, &value, held_seq + 1, Writer::Subject);
        SignedRecord {
            subject: coin_pk.clone(),
            value,
            version: held_seq + 1,
            writer: Writer::Subject,
            signature: owned.coin_keys.sign(w.params.group(), &msg, &mut w.rng),
        }
    };
    dht.put(entry, conflicting).unwrap();

    // Peer 1's monitor sees the coin move out from under it — real-time
    // detection, long before any deposit-time audit would fire.
    let alarms = monitor.poll(&mut dht);
    assert_eq!(alarms.len(), 1);
    assert_eq!(alarms[0].coin, coin);
    assert!(alarms[0].observed_seq > alarms[0].held_seq);
}

#[test]
fn lazy_sync_adopts_newer_public_state() {
    let mut w = world(3, 23);
    let mut rng = test_rng(230);
    let (mut dht, entry) = dht_for(&w, 8, &mut rng);
    let t0 = Timestamp(0);

    let (req, pending) = w.peers[0].create_purchase_request(PurchaseMode::Identified, &mut w.rng);
    let minted = w.broker.handle_purchase(&req, &mut w.rng).unwrap();
    let coin = w.peers[0].complete_purchase(minted, pending, t0, &mut w.rng).unwrap();
    w_issue(&mut w, 0, 1, coin, t0);

    // Owner goes offline; holder 1 transfers to 2 via the broker, and the
    // broker publishes the new binding to the public list.
    let (invite2, session2) = w.peers[2].begin_receive(&mut w.rng);
    let treq = w.peers[1].request_transfer(coin, &invite2, &mut w.rng).unwrap();
    let grant = w.broker.handle_downtime_transfer(&treq, Timestamp(5), &mut w.rng).unwrap();
    w.broker.publish_binding(&grant.binding, &mut dht, entry, &mut rng).unwrap();
    w.peers[2].accept_grant(grant, session2, Timestamp(5)).unwrap();
    w.peers[1].complete_transfer(coin);

    // Owner rejoins but does NOT contact the broker. When the next
    // request arrives it lazily checks the public binding and adopts it.
    let coin_pk = w.peers[0].owned_coin(&coin).unwrap().minted.coin_pk().clone();
    let state = dsd::read_public_state(&mut dht, entry, &coin_pk).unwrap();
    assert!(w.peers[0].adopt_public_state(coin, &state, &mut w.rng).unwrap());

    // Now the owner can serve peer 2's renewal with up-to-date state.
    let renew = w.peers[2].request_renewal(coin, &mut w.rng).unwrap();
    let renewed = w.peers[0].handle_renewal(renew, Timestamp(10), &mut w.rng).unwrap();
    w.peers[2].apply_renewal(coin, renewed).unwrap();
}

#[test]
fn recovered_broker_republishes_its_downtime_bindings() {
    let mut w = world(3, 25);
    let mut rng = test_rng(250);
    let (mut dht, entry) = dht_for(&w, 8, &mut rng);
    let t0 = Timestamp(0);
    w.broker.enable_journal();

    // Two coins, each moved from holder 1 to holder 2 through the broker
    // while their owner is offline: the broker stores both new bindings.
    let grants: Vec<_> = (0..2)
        .map(|_| {
            let (req, pending) =
                w.peers[0].create_purchase_request(PurchaseMode::Identified, &mut w.rng);
            let minted = w.broker.handle_purchase(&req, &mut w.rng).unwrap();
            let coin = w.peers[0].complete_purchase(minted, pending, t0, &mut w.rng).unwrap();
            w_issue(&mut w, 0, 1, coin, t0);
            let (invite, session) = w.peers[2].begin_receive(&mut w.rng);
            let treq = w.peers[1].request_transfer(coin, &invite, &mut w.rng).unwrap();
            let grant = w.broker.handle_downtime_transfer(&treq, Timestamp(5), &mut w.rng).unwrap();
            w.peers[2].accept_grant(grant.clone(), session, Timestamp(5)).unwrap();
            w.peers[1].complete_transfer(coin);
            (coin, grant)
        })
        .collect();

    // The second coin's binding reaches the public list, and then its
    // owner comes back, adopts it and serves a renewal: the list now holds
    // an owner-signed record newer than the binding the broker stores.
    let (coin, grant) = &grants[1];
    w.broker.publish_binding(&grant.binding, &mut dht, entry, &mut rng).unwrap();
    let state = dsd::read_public_state(&mut dht, entry, grant.minted.coin_pk()).unwrap();
    assert!(w.peers[0].adopt_public_state(*coin, &state, &mut w.rng).unwrap());
    let renew = w.peers[2].request_renewal(*coin, &mut w.rng).unwrap();
    let renewed = w.peers[0].handle_renewal(renew, Timestamp(10), &mut w.rng).unwrap();
    w.peers[2].apply_renewal(*coin, renewed).unwrap();
    dsd::publish_owner_binding(&w.peers[0], *coin, &mut dht, entry, &mut w.rng).unwrap();
    let newer = dsd::read_public_state(&mut dht, entry, grant.minted.coin_pk()).unwrap();
    assert_eq!(newer.seq, grant.binding.seq() + 1);

    // The broker crashes and comes back from its journal bytes.
    let journal = Journal::from_bytes(&w.broker.journal().unwrap().to_bytes()).unwrap();
    let gpk = w.judge.public_key().clone();
    let recovered = Broker::recover(w.params.clone(), gpk, w.broker.export_keys(), &journal);
    assert!(recovered.audit().ok(), "{:?}", recovered.audit().violations());

    // Onto an empty public list every stored binding goes, and a payee's
    // §5.1 check of the grants the crashed broker handed out passes.
    let (mut empty, first) = dht_for(&w, 8, &mut rng);
    assert_eq!(recovered.republish_downtime_bindings(&mut empty, first, &mut rng), 2);
    for (_, grant) in &grants {
        dsd::verify_grant_published(&mut empty, first, grant).unwrap();
    }

    // On the list that outlived the crash the owner's newer record stays:
    // that binding is skipped, not an error, and the other one published.
    assert_eq!(recovered.republish_downtime_bindings(&mut dht, entry, &mut rng), 1);
    dsd::verify_grant_published(&mut dht, entry, &grants[0].1).unwrap();
    assert_eq!(dsd::read_public_state(&mut dht, entry, grant.minted.coin_pk()).unwrap(), newer);
}

fn w_issue(w: &mut World, owner: usize, payee: usize, coin: whopay_core::CoinId, now: Timestamp) {
    let (invite, session) = w.peers[payee].begin_receive(&mut w.rng);
    let grant = w.peers[owner].issue_coin(coin, &invite, now, &mut w.rng).unwrap();
    w.peers[payee].accept_grant(grant, session, now).unwrap();
}

#[test]
fn coin_shop_sells_anonymously() {
    let mut w = world(3, 24);
    let t0 = Timestamp(0);

    // Peer 0 becomes a coin shop; it stocks 3 coins from the broker.
    let shop_peer = w.peers.remove(0);
    let mut shop = CoinShop::new(shop_peer, 1);
    shop.stock_up(&mut w.broker, 3, t0, &mut w.rng).unwrap();
    assert_eq!(shop.stock(), 3);

    // Peer 1 (now index 0) buys a coin from the shop via the anonymous
    // issue procedure: the shop never learns who bought.
    let (invite, session) = w.peers[0].begin_receive(&mut w.rng);
    let (grant, fee) = shop.sell_coin(&invite, t0, &mut w.rng).unwrap();
    assert_eq!(fee, 1);
    let coin = w.peers[0].accept_grant(grant, session, t0).unwrap();
    assert_eq!(shop.stock(), 2);
    assert_eq!(shop.earnings(), 1);

    // The buyer spends by transfer (via the shop as owner) — anonymous.
    let (invite2, session2) = w.peers[1].begin_receive(&mut w.rng);
    let treq = w.peers[0].request_transfer(coin, &invite2, &mut w.rng).unwrap();
    let grant2 = shop.peer.handle_transfer(treq, t0, &mut w.rng).unwrap();
    w.peers[1].accept_grant(grant2, session2, t0).unwrap();
    w.peers[0].complete_transfer(coin);

    // Empty shop refuses to sell.
    shop.sell_coin(&w.peers[0].begin_receive(&mut w.rng).0, t0, &mut w.rng).unwrap();
    shop.sell_coin(&w.peers[0].begin_receive(&mut w.rng).0, t0, &mut w.rng).unwrap();
    assert!(shop.sell_coin(&w.peers[0].begin_receive(&mut w.rng).0, t0, &mut w.rng).is_err());
}

#[test]
fn i3_handles_reach_anonymous_owners() {
    let mut w = world(2, 25);
    let t0 = Timestamp(0);
    let mut net = Network::new();
    let mut i3 = IndirectionLayer::new();

    // The owner registers an endpoint that would serve transfer requests.
    let owner_ep = net.register("anonymous-owner", |req: &[u8]| {
        let mut v = b"grant:".to_vec();
        v.extend_from_slice(req);
        v
    });
    let payer_ep = net.register("payer", |_: &[u8]| Vec::new());

    // Purchase an owner-anonymous coin with a fresh handle; register the
    // trigger.
    let handle = Handle::random(&mut w.rng);
    let (req, pending) =
        w.peers[0].create_purchase_request(PurchaseMode::AnonymousWithHandle(handle), &mut w.rng);
    let minted = w.broker.handle_purchase(&req, &mut w.rng).unwrap();
    let coin = w.peers[0].complete_purchase(minted, pending, t0, &mut w.rng).unwrap();
    for (cid, h) in w.peers[0].coin_handles() {
        assert_eq!(cid, coin);
        i3.register_trigger(h, owner_ep);
    }

    // The payer reaches the owner through the handle without learning the
    // endpoint, and the relay hop is accounted.
    let resp = i3.request_via(&mut net, payer_ep, handle, b"transfer-req".to_vec()).unwrap();
    assert_eq!(resp, b"grant:transfer-req");
    assert_eq!(net.relay_hops(), 2);

    // Owner goes offline: handle reports unreachable, so the payer falls
    // back to the broker (the downtime path).
    net.set_online(owner_ep, false);
    assert!(!i3.is_reachable(&net, handle));
}

#[test]
fn layered_coin_chain_verifies_and_caps_depth() {
    let mut w = world(4, 26);
    let t0 = Timestamp(0);
    let max_layers = 3;

    // Owner issues to peer 1; owner then goes offline, and the coin
    // travels 1 → 2 → 3 by layering instead of via the broker.
    let (req, pending) = w.peers[0].create_purchase_request(PurchaseMode::Identified, &mut w.rng);
    let minted = w.broker.handle_purchase(&req, &mut w.rng).unwrap();
    let coin = w.peers[0].complete_purchase(minted, pending, t0, &mut w.rng).unwrap();

    let (invite, session) = w.peers[1].begin_receive(&mut w.rng);
    let grant = w.peers[0].issue_coin(coin, &invite, t0, &mut w.rng).unwrap();
    let holder1_keys = session.holder_keys;
    let mut layered = LayeredCoin::new(grant);

    // Hop 1 → 2.
    let group = w.params.group().clone();
    let gpk = w.judge.public_key().clone();
    let h2 = DsaKeyPair::generate(&group, &mut w.rng);
    let gk1 = w.judge.enroll(PeerId(101), &mut w.rng);
    layered
        .add_layer(
            &group,
            &gpk,
            &holder1_keys,
            &gk1,
            h2.public().element().clone(),
            max_layers,
            &mut w.rng,
        )
        .unwrap();
    // Hop 2 → 3.
    let h3 = DsaKeyPair::generate(&group, &mut w.rng);
    let gk2 = w.judge.enroll(PeerId(102), &mut w.rng);
    layered
        .add_layer(&group, &gpk, &h2, &gk2, h3.public().element().clone(), max_layers, &mut w.rng)
        .unwrap();

    layered.verify(&group, w.broker.public_key(), &gpk, max_layers).unwrap();
    assert_eq!(layered.depth(), 2);
    assert_eq!(layered.current_holder_pk(), h3.public().element());

    // A non-holder cannot extend the chain.
    let mallory = DsaKeyPair::generate(&group, &mut w.rng);
    let err = layered
        .add_layer(
            &group,
            &gpk,
            &mallory,
            &gk2,
            mallory.public().element().clone(),
            max_layers,
            &mut w.rng,
        )
        .unwrap_err();
    assert_eq!(err, CoreError::HolderKeyMismatch);

    // Depth cap enforced.
    let h4 = DsaKeyPair::generate(&group, &mut w.rng);
    layered
        .add_layer(&group, &gpk, &h3, &gk2, h4.public().element().clone(), max_layers, &mut w.rng)
        .unwrap();
    let h5 = DsaKeyPair::generate(&group, &mut w.rng);
    let err = layered
        .add_layer(&group, &gpk, &h4, &gk2, h5.public().element().clone(), max_layers, &mut w.rng)
        .unwrap_err();
    assert_eq!(err, CoreError::TooManyLayers { max: max_layers });

    // Tampering with a layer breaks verification.
    let mut tampered = layered.clone();
    tampered.layers[1].new_holder_pk = mallory.public().element().clone();
    assert!(tampered.verify(&group, w.broker.public_key(), &gpk, max_layers).is_err());
}

#[test]
fn layered_chain_collapses_back_through_the_owner() {
    // A coin travels offline through two layers, then the owner comes
    // back online and the final holder collapses the chain into a normal
    // binding — and can then spend the coin through the standard flow.
    let mut w = world(3, 27);
    let t0 = Timestamp(0);
    let max_layers = 4;
    let group = w.params.group().clone();
    let gpk = w.judge.public_key().clone();

    let (req, pending) = w.peers[0].create_purchase_request(PurchaseMode::Identified, &mut w.rng);
    let minted = w.broker.handle_purchase(&req, &mut w.rng).unwrap();
    let coin = w.peers[0].complete_purchase(minted, pending, t0, &mut w.rng).unwrap();

    let (invite, session) = w.peers[1].begin_receive(&mut w.rng);
    let grant = w.peers[0].issue_coin(coin, &invite, t0, &mut w.rng).unwrap();
    let mut layered = LayeredCoin::new(grant);
    let holder1 = session.holder_keys;

    // Offline hops 1 → a → b.
    let gk_a = w.judge.enroll(PeerId(201), &mut w.rng);
    let key_a = DsaKeyPair::generate(&group, &mut w.rng);
    layered
        .add_layer(
            &group,
            &gpk,
            &holder1,
            &gk_a,
            key_a.public().element().clone(),
            max_layers,
            &mut w.rng,
        )
        .unwrap();
    let gk_b = w.judge.enroll(PeerId(202), &mut w.rng);
    let key_b = DsaKeyPair::generate(&group, &mut w.rng);
    layered
        .add_layer(
            &group,
            &gpk,
            &key_a,
            &gk_b,
            key_b.public().element().clone(),
            max_layers,
            &mut w.rng,
        )
        .unwrap();

    // Owner returns; final holder collapses the chain.
    let mut nonce = [0u8; 32];
    rand::Rng::fill_bytes(&mut w.rng, &mut nonce);
    let collapse = layered.collapse_request(&group, &gpk, &key_b, &gk_b, nonce, &mut w.rng).unwrap();
    let grant2 = w.peers[0]
        .handle_layered_collapse(&layered, collapse, max_layers, Timestamp(10), &mut w.rng)
        .unwrap();
    assert_eq!(grant2.binding.holder_pk(), key_b.public().element());
    assert_eq!(grant2.binding.seq(), layered.base_binding().seq() + 1);

    // A replayed collapse is stale.
    let mut nonce2 = [0u8; 32];
    rand::Rng::fill_bytes(&mut w.rng, &mut nonce2);
    let replay = layered.collapse_request(&group, &gpk, &key_b, &gk_b, nonce2, &mut w.rng).unwrap();
    let err = w.peers[0]
        .handle_layered_collapse(&layered, replay, max_layers, Timestamp(11), &mut w.rng)
        .unwrap_err();
    assert!(matches!(err, CoreError::StaleBinding { .. }));

    // A non-final holder cannot collapse.
    let mut nonce3 = [0u8; 32];
    rand::Rng::fill_bytes(&mut w.rng, &mut nonce3);
    assert!(matches!(
        layered.collapse_request(&group, &gpk, &key_a, &gk_a, nonce3, &mut w.rng),
        Err(CoreError::HolderKeyMismatch)
    ));
}
