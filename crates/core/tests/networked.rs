//! The WhoPay protocol over the wire: entities behind byte endpoints on
//! the simulated network, with every message encoded, decoded, and
//! counted.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use whopay_core::service::{
    attach_client, attach_peer, attach_shard_endpoints, clock, deposit_via, deposit_via_obs,
    deposit_via_retry, purchase_via, request_issue_via, request_renewal_via, request_transfer_via,
    send_invite, shared_clock, sync_via, CallError, SharedClock,
};
use whopay_core::wire::{Request, Response};
use whopay_core::{
    CoinId, CoreError, DepositReceipt, DepositRequest, Judge, Peer, PeerId, PurchaseMode,
    ShardedBroker, SystemParams, Timestamp,
};
use whopay_crypto::testing::{test_rng, tiny_group};
use whopay_net::{FaultInjector, FaultKind, FaultPlan, Network, RetryPolicy};
use whopay_obs::Obs;

struct NetWorld {
    net: Network,
    broker: Arc<ShardedBroker>,
    broker_ep: whopay_net::EndpointId,
    owner: Rc<RefCell<Peer>>,
    owner_ep: whopay_net::EndpointId,
    payer: Peer,
    payer_ep: whopay_net::EndpointId,
    payee: Peer,
    payee_ep: whopay_net::EndpointId,
    clk: whopay_core::service::Clock,
    /// The broker's clock (its endpoint may serve from a worker thread).
    sclk: SharedClock,
    rng: rand::rngs::StdRng,
}

fn networld(seed: u64) -> NetWorld {
    let mut rng = test_rng(seed);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let broker = Arc::new(ShardedBroker::new(params.clone(), judge.public_key().clone(), 1, &mut rng));
    let mk = |id: u64, judge: &mut Judge, broker: &ShardedBroker, rng: &mut rand::rngs::StdRng| {
        let gk = judge.enroll(PeerId(id), rng);
        let p = Peer::new(
            PeerId(id),
            params.clone(),
            broker.public_key().clone(),
            judge.public_key().clone(),
            gk,
            rng,
        );
        broker.register_peer(PeerId(id), p.public_key().clone());
        p
    };
    let owner = mk(0, &mut judge, &broker, &mut rng);
    let payer = mk(1, &mut judge, &broker, &mut rng);
    let payee = mk(2, &mut judge, &broker, &mut rng);

    let mut net = Network::new();
    let clk = clock(Timestamp(0));
    let sclk = shared_clock(Timestamp(0));
    let broker_ep = attach_shard_endpoints(&mut net, broker.clone(), sclk.clone(), 1000 + seed)[0];
    let owner = Rc::new(RefCell::new(owner));
    let owner_ep = attach_peer(&mut net, owner.clone(), clk.clone(), 2000 + seed);
    let payer_ep = attach_client(&mut net, "payer");
    let payee_ep = attach_client(&mut net, "payee");
    NetWorld {
        net,
        broker,
        broker_ep,
        owner,
        owner_ep,
        payer,
        payer_ep,
        payee,
        payee_ep,
        clk,
        sclk,
        rng,
    }
}

#[test]
fn full_lifecycle_over_the_wire() {
    let mut w = networld(1);
    let now = Timestamp(0);

    // Owner purchases over the network.
    let coin = {
        let mut owner = w.owner.borrow_mut();
        purchase_via(
            &mut w.net,
            w.owner_ep,
            w.broker_ep,
            &mut owner,
            PurchaseMode::Identified,
            now,
            &mut w.rng,
        )
        .expect("networked purchase")
    };

    // Payer buys the coin from the owner by issue (invite travels
    // payee→payer→owner as real bytes).
    let (invite, session) = w.payer.begin_receive(&mut w.rng);
    let grant = request_issue_via(&mut w.net, w.payer_ep, w.owner_ep, coin, &invite).unwrap();
    w.payer.accept_grant(grant, session, now).unwrap();

    // Payer pays payee by transfer via the owner's endpoint.
    let (invite2, session2) = w.payee.begin_receive(&mut w.rng);
    send_invite(&mut w.net, w.payee_ep, w.payer_ep, &invite2).unwrap();
    let treq = w.payer.request_transfer(coin, &invite2, &mut w.rng).unwrap();
    let grant2 = request_transfer_via(&mut w.net, w.payer_ep, w.owner_ep, treq, false).unwrap();
    w.payee.accept_grant(grant2, session2, now).unwrap();
    w.payer.complete_transfer(coin);

    // Payee renews via the owner, then deposits at the broker.
    w.clk.set(Timestamp(100));
    w.sclk.store(100, Ordering::SeqCst);
    let rreq = w.payee.request_renewal(coin, &mut w.rng).unwrap();
    let renewed = request_renewal_via(&mut w.net, w.payee_ep, w.owner_ep, rreq, false).unwrap();
    w.payee.apply_renewal(coin, renewed).unwrap();

    let dreq = w.payee.request_deposit(coin, &mut w.rng).unwrap();
    let receipt = deposit_via(&mut w.net, w.payee_ep, w.broker_ep, dreq).unwrap();
    w.payee.complete_deposit(coin);
    assert_eq!(receipt.coin, coin);

    // Every leg was counted.
    let stats = w.net.stats();
    assert!(stats.messages >= 12, "messages {}", stats.messages);
    assert!(stats.bytes > 1000, "bytes {}", stats.bytes);
    assert!(w.net.endpoint_stats(w.broker_ep).messages >= 4);
}

#[test]
fn downtime_path_over_the_wire() {
    let mut w = networld(2);
    let now = Timestamp(0);
    let coin = {
        let mut owner = w.owner.borrow_mut();
        purchase_via(
            &mut w.net,
            w.owner_ep,
            w.broker_ep,
            &mut owner,
            PurchaseMode::Identified,
            now,
            &mut w.rng,
        )
        .unwrap()
    };
    let (invite, session) = w.payer.begin_receive(&mut w.rng);
    let grant = request_issue_via(&mut w.net, w.payer_ep, w.owner_ep, coin, &invite).unwrap();
    w.payer.accept_grant(grant, session, now).unwrap();

    // Owner goes offline: direct transfer fails at the *network* layer,
    // the payer falls back to the broker's downtime path.
    w.net.set_online(w.owner_ep, false);
    let (invite2, session2) = w.payee.begin_receive(&mut w.rng);
    let treq = w.payer.request_transfer(coin, &invite2, &mut w.rng).unwrap();
    let direct = request_transfer_via(&mut w.net, w.payer_ep, w.owner_ep, treq.clone(), false);
    assert!(matches!(direct, Err(CallError::Network(_))), "owner unreachable");
    let grant2 = request_transfer_via(&mut w.net, w.payer_ep, w.broker_ep, treq, true).unwrap();
    w.payee.accept_grant(grant2, session2, now).unwrap();
    w.payer.complete_transfer(coin);

    // Owner rejoins and syncs over the wire; exactly one binding adopted.
    w.net.set_online(w.owner_ep, true);
    let adopted = {
        let mut owner = w.owner.borrow_mut();
        sync_via(&mut w.net, w.owner_ep, w.broker_ep, &mut owner, &mut w.rng).unwrap()
    };
    assert_eq!(adopted, 1);

    // And the owner serves the next renewal correctly.
    let rreq = w.payee.request_renewal(coin, &mut w.rng).unwrap();
    let renewed = request_renewal_via(&mut w.net, w.payee_ep, w.owner_ep, rreq, false).unwrap();
    w.payee.apply_renewal(coin, renewed).unwrap();
}

#[test]
fn remote_rejections_surface_as_remote_errors() {
    let mut w = networld(3);
    let now = Timestamp(0);
    let coin = {
        let mut owner = w.owner.borrow_mut();
        purchase_via(
            &mut w.net,
            w.owner_ep,
            w.broker_ep,
            &mut owner,
            PurchaseMode::Identified,
            now,
            &mut w.rng,
        )
        .unwrap()
    };
    let (invite, session) = w.payer.begin_receive(&mut w.rng);
    let grant = request_issue_via(&mut w.net, w.payer_ep, w.owner_ep, coin, &invite).unwrap();
    w.payer.accept_grant(grant, session, now).unwrap();

    // Re-requesting the same issue is refused remotely (already issued).
    let (invite2, _s2) = w.payee.begin_receive(&mut w.rng);
    let second = request_issue_via(&mut w.net, w.payee_ep, w.owner_ep, coin, &invite2);
    assert!(matches!(second, Err(CallError::Remote(_))), "{second:?}");

    // Garbage on the wire is answered with a decode error, not a crash.
    let raw = w.net.request(w.payer_ep, w.broker_ep, vec![0xde, 0xad]).unwrap();
    let resp = whopay_core::wire::Response::decode(&raw).unwrap();
    assert!(matches!(resp, whopay_core::wire::Response::Error(_)));
}

/// Drives a fresh coin to the payer, who is ready to deposit it.
fn coin_ready_to_deposit(w: &mut NetWorld) -> (CoinId, DepositRequest) {
    let now = Timestamp(0);
    let coin = {
        let mut owner = w.owner.borrow_mut();
        let mode = PurchaseMode::Identified;
        purchase_via(&mut w.net, w.owner_ep, w.broker_ep, &mut owner, mode, now, &mut w.rng).unwrap()
    };
    let (invite, session) = w.payer.begin_receive(&mut w.rng);
    let grant = request_issue_via(&mut w.net, w.payer_ep, w.owner_ep, coin, &invite).unwrap();
    w.payer.accept_grant(grant, session, now).unwrap();
    let request = w.payer.request_deposit(coin, &mut w.rng).unwrap();
    (coin, request)
}

fn is_corrupted_response<T: std::fmt::Debug>(result: &Result<T, CallError>) -> bool {
    matches!(result, Err(CallError::Protocol(CoreError::Malformed)))
}

#[test]
fn a_receipt_for_another_coin_is_refused_on_every_call_path() {
    let mut w = networld(4);
    let (coin, request) = coin_ready_to_deposit(&mut w);
    let other = CoinId([9; 32]);
    assert_ne!(coin, other);
    // An endpoint that answers any deposit with a receipt naming `other`.
    // Receipts carry no signature, so the coin they name is all a client
    // can check.
    let liar = w.net.register("liar", move |bytes| {
        assert!(matches!(Request::decode(bytes), Ok(Request::Deposit(_))));
        Response::Receipt(DepositReceipt { coin: other, value: 1 }).encode()
    });

    let plain = deposit_via(&mut w.net, w.payer_ep, liar, request.clone());
    assert!(is_corrupted_response(&plain), "plain call: {plain:?}");
    let traced = deposit_via_obs(&mut w.net, w.payer_ep, liar, request.clone(), &Obs::disabled());
    assert!(is_corrupted_response(&traced), "obs call: {traced:?}");
    let policy = RetryPolicy::new(3);
    let obs = Obs::disabled();
    let retried = deposit_via_retry(&mut w.net, w.payer_ep, liar, request, &policy, &mut w.rng, &obs);
    assert!(is_corrupted_response(&retried), "retried call: {retried:?}");
    assert_eq!(policy.stats().attempts, 3, "a corrupted response is worth a resend");
}

#[test]
fn a_receipt_corrupted_in_flight_is_refused_and_the_resend_collects_the_replay() {
    let mut w = networld(5);
    let (coin, request) = coin_ready_to_deposit(&mut w);
    // Corrupt every payer→broker delivery, under a seed whose first draw
    // flips a bit of the *response* inside the receipt's coin id (frame
    // layout: kind byte, 32 id bytes, value).
    let rates = whopay_net::FaultRates { corrupt: 1.0, ..Default::default() };
    let plan = FaultPlan::new().link(w.payer_ep, w.broker_ep, rates);
    let receipt_len = Response::Receipt(DepositReceipt { coin, value: 1 }).encode().len() as u64;
    let seed = (0..u64::MAX)
        .find(|&seed| {
            let fate = FaultInjector::new(plan.clone(), seed).decide(w.payer_ep, w.broker_ep, None);
            matches!(fate, Some(FaultKind::Corrupt { in_request: false, bit })
                if (1..33).contains(&(bit % (receipt_len * 8) / 8)))
        })
        .expect("some seed corrupts the coin id");
    w.net.install_faults(FaultInjector::new(plan, seed));

    let damaged = deposit_via(&mut w.net, w.payer_ep, w.broker_ep, request.clone());
    assert!(is_corrupted_response(&damaged), "{damaged:?}");
    assert_eq!(w.broker.stats().deposits, 1, "the deposit itself applied");

    // The intact resend is answered from the replay memo: credited once.
    w.net.clear_faults();
    let receipt = deposit_via(&mut w.net, w.payer_ep, w.broker_ep, request).unwrap();
    assert_eq!(receipt.coin, coin);
    assert_eq!(w.broker.stats().deposits, 1);
    assert_eq!(w.broker.stats().replays, 1);
}

/// One owner sync on a four-shard broker is one sync: verified, counted
/// and journalled once, however many shards contribute bindings.
#[test]
fn a_sync_on_a_sharded_broker_is_verified_counted_and_journalled_once() {
    const SHARDS: usize = 4;
    let mut rng = test_rng(0x5C4D);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let gpk = judge.public_key().clone();
    let sharded = Arc::new(ShardedBroker::new(params.clone(), gpk.clone(), SHARDS, &mut rng));
    let mut mk = |id: u64, rng: &mut rand::rngs::StdRng| {
        let gk = judge.enroll(PeerId(id), rng);
        Peer::new(PeerId(id), params.clone(), sharded.public_key().clone(), gpk.clone(), gk, rng)
    };
    let (mut owner, mut payer, mut payee) = (mk(0, &mut rng), mk(1, &mut rng), mk(2, &mut rng));
    // Claims the owner's id under a key the broker never registered.
    let mut impostor = mk(0, &mut rng);
    for peer in [&owner, &payer, &payee] {
        sharded.register_peer(peer.id(), peer.public_key().clone());
    }

    // Six of the owner's coins change hands through the broker while the
    // owner is away, leaving a downtime binding on each coin's shard.
    let now = Timestamp(0);
    let mut held = Vec::new();
    for _ in 0..6 {
        let (request, pending) = owner.create_purchase_request(PurchaseMode::Identified, &mut rng);
        let minted = sharded.handle_purchase(&request, &mut rng).expect("purchase");
        let coin = owner.complete_purchase(minted, pending, now, &mut rng).expect("own coin");
        let (invite, session) = payer.begin_receive(&mut rng);
        let grant = owner.issue_coin(coin, &invite, now, &mut rng).expect("issue");
        payer.accept_grant(grant, session, now).expect("grant");
        let (invite, session) = payee.begin_receive(&mut rng);
        let transfer = payer.request_transfer(coin, &invite, &mut rng).expect("payer holds");
        let grant = sharded.handle_downtime_transfer(&transfer, now, &mut rng).expect("downtime");
        held.push(grant.binding.clone());
        payee.accept_grant(grant, session, now).expect("grant");
    }
    let shard_of = |binding: &whopay_core::coin::Binding| sharded.shard_of_coin(&binding.coin_id());
    let spanned: std::collections::BTreeSet<usize> = held.iter().map(shard_of).collect();
    assert!(spanned.len() >= 2, "bindings must span shards: {spanned:?}");

    sharded.enable_journals();
    let journalled = || -> usize {
        (0..SHARDS).map(|i| sharded.lock_shard(i).journal().expect("journalling").len()).sum()
    };
    let mut net = Network::new();
    let eps = attach_shard_endpoints(&mut net, sharded.clone(), shared_clock(now), 7);
    let owner_ep = attach_client(&mut net, "owner");
    let (stats, entries) = (sharded.stats(), journalled());

    // The wire answer: every shard's bindings, in shard order.
    let challenge = vec![9u8; 32];
    let response = owner.sign_identity_challenge(&challenge, &mut rng);
    let frame = Request::Sync { peer: owner.id(), challenge, response }.encode();
    let reply = net.request(owner_ep, eps[1], frame).expect("delivered");
    let Response::Bindings(bindings) = Response::decode(&reply).expect("decodes") else {
        panic!("a sync is answered with bindings")
    };
    assert!(bindings.windows(2).all(|pair| shard_of(&pair[0]) <= shard_of(&pair[1])), "shard order");
    let by_coin = |bindings: &[whopay_core::coin::Binding]| {
        let mut sorted = bindings.to_vec();
        sorted.sort_by_key(|binding| binding.coin_id());
        sorted
    };
    assert_eq!(by_coin(&bindings), by_coin(&held));
    assert_eq!(sharded.stats().syncs, stats.syncs + 1, "one sync, counted once");
    assert_eq!(journalled(), entries + 1, "one sync, journalled once");

    // The client call: the same, and every binding adopted.
    let adopted = sync_via(&mut net, owner_ep, eps[2], &mut owner, &mut rng).expect("sync");
    assert_eq!(adopted, held.len());
    assert_eq!(sharded.stats().syncs, stats.syncs + 2);
    assert_eq!(journalled(), entries + 2);

    // A forged sync is one rejection and no sync.
    let refused = sync_via(&mut net, owner_ep, eps[3], &mut impostor, &mut rng);
    assert!(matches!(refused, Err(CallError::Remote(_))), "{refused:?}");
    let after = sharded.stats();
    assert_eq!((after.rejections, after.syncs), (stats.rejections + 1, stats.syncs + 2));
    assert_eq!(journalled(), entries + 3, "the rejection is journalled once too");
    assert!(sharded.audit_ok());
}
