//! Workspace-spanning integration tests: the full WhoPay system wired
//! together across crates — protocol + DHT + indirection + evaluation —
//! exercising the end-to-end claims of the paper rather than any single
//! module.

use whopay::core::{
    dsd, Broker, Judge, Peer, PeerId, PurchaseMode, RevealedIdentity, SystemParams, Timestamp,
};
use whopay::crypto::testing;
use whopay::dht::{Dht, DhtConfig, RingId};
use whopay::eval::{config::SimConfig, loadsim, MicroWeights, Policy, SyncStrategy};
use whopay::net::{Handle, IndirectionLayer, Network};
use whopay::obs::Obs;

struct System {
    params: SystemParams,
    judge: Judge,
    broker: Broker,
    peers: Vec<Peer>,
    dht: Dht,
    entry: RingId,
    rng: rand::rngs::StdRng,
}

fn system(n: usize, seed: u64) -> System {
    let mut rng = testing::test_rng(seed);
    let params = SystemParams::new(testing::tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let mut broker = Broker::new(params.clone(), judge.public_key().clone(), &mut rng);
    let peers: Vec<Peer> = (0..n as u64)
        .map(|i| {
            let gk = judge.enroll(PeerId(i), &mut rng);
            let p = Peer::new(
                PeerId(i),
                params.clone(),
                broker.public_key().clone(),
                judge.public_key().clone(),
                gk,
                &mut rng,
            );
            broker.register_peer(PeerId(i), p.public_key().clone());
            p
        })
        .collect();
    let mut dht = Dht::new(params.group().clone(), broker.public_key().clone(), DhtConfig::default());
    for _ in 0..16 {
        dht.join(RingId::random(&mut rng));
    }
    let entry = dht.node_ids()[0];
    System { params, judge, broker, peers, dht, entry, rng }
}

#[test]
fn payment_chain_with_continuous_public_publication() {
    // A coin hops through five peers; the owner publishes every rebinding
    // and every payee checks the public list before accepting — the full
    // §5.1 discipline, across protocol and DHT crates.
    let mut s = system(6, 1);
    let now = Timestamp(0);

    let (req, pending) = s.peers[0].create_purchase_request(PurchaseMode::Identified, &mut s.rng);
    let minted = s.broker.handle_purchase(&req, &mut s.rng).unwrap();
    let coin = s.peers[0].complete_purchase(minted, pending, now, &mut s.rng).unwrap();
    dsd::publish_owner_binding(&s.peers[0], coin, &mut s.dht, s.entry, &mut s.rng, &Obs::disabled())
        .unwrap();

    // Issue to peer 1.
    let (invite, session) = s.peers[1].begin_receive(&mut s.rng);
    let grant = s.peers[0].issue_coin(coin, &invite, now, &mut s.rng).unwrap();
    dsd::publish_owner_binding(&s.peers[0], coin, &mut s.dht, s.entry, &mut s.rng, &Obs::disabled())
        .unwrap();
    dsd::verify_grant_published(&mut s.dht, s.entry, &grant, &Obs::disabled()).unwrap();
    s.peers[1].accept_grant(grant, session, now).unwrap();

    // Transfer 1 → 2 → 3 → 4, publishing and checking at each hop.
    for hop in 1..4usize {
        let t = Timestamp(hop as u64 * 100);
        let (invite, session) = s.peers[hop + 1].begin_receive(&mut s.rng);
        let treq = s.peers[hop].request_transfer(coin, &invite, &mut s.rng).unwrap();
        let grant = s.peers[0].handle_transfer(treq, t, &mut s.rng).unwrap();
        dsd::publish_owner_binding(
            &s.peers[0],
            coin,
            &mut s.dht,
            s.entry,
            &mut s.rng,
            &Obs::disabled(),
        )
        .unwrap();
        dsd::verify_grant_published(&mut s.dht, s.entry, &grant, &Obs::disabled()).unwrap();
        s.peers[hop + 1].accept_grant(grant, session, t).unwrap();
        s.peers[hop].complete_transfer(coin);
    }

    // Final holder deposits; the ledger closes cleanly.
    let dep = s.peers[4].request_deposit(coin, &mut s.rng).unwrap();
    s.broker.handle_deposit(&dep, Timestamp(500)).unwrap();
    s.peers[4].complete_deposit(coin);
    assert!(!s.broker.is_circulating(&coin));
    assert_eq!(s.broker.fraud_cases().len(), 0);
    assert!(s.dht.stats().puts >= 5, "every rebinding was published");
}

#[test]
fn downtime_path_keeps_public_list_current_via_broker_writes() {
    // Owner offline: the broker both serves the transfer and updates the
    // public binding list, so real-time detection keeps working (§5.1).
    let mut s = system(3, 2);
    let now = Timestamp(0);
    let (req, pending) = s.peers[0].create_purchase_request(PurchaseMode::Identified, &mut s.rng);
    let minted = s.broker.handle_purchase(&req, &mut s.rng).unwrap();
    let coin = s.peers[0].complete_purchase(minted, pending, now, &mut s.rng).unwrap();
    let (invite, session) = s.peers[1].begin_receive(&mut s.rng);
    let grant = s.peers[0].issue_coin(coin, &invite, now, &mut s.rng).unwrap();
    s.peers[1].accept_grant(grant, session, now).unwrap();
    dsd::publish_owner_binding(&s.peers[0], coin, &mut s.dht, s.entry, &mut s.rng, &Obs::disabled())
        .unwrap();

    // Owner goes dark; holder 1 pays holder 2 via the broker.
    let (invite2, session2) = s.peers[2].begin_receive(&mut s.rng);
    let treq = s.peers[1].request_transfer(coin, &invite2, &mut s.rng).unwrap();
    let grant2 = s.broker.handle_downtime_transfer(&treq, Timestamp(10), &mut s.rng).unwrap();
    s.broker.publish_binding(&grant2.binding, &mut s.dht, s.entry, &mut s.rng).unwrap();
    dsd::verify_grant_published(&mut s.dht, s.entry, &grant2, &Obs::disabled()).unwrap();
    s.peers[2].accept_grant(grant2, session2, Timestamp(10)).unwrap();
    s.peers[1].complete_transfer(coin);

    // Owner returns and lazily adopts the public state; subsequent
    // owner-side handling works.
    let coin_pk = s.peers[0].owned_coin(&coin).unwrap().minted.coin_pk().clone();
    let state = dsd::read_public_state(&mut s.dht, s.entry, &coin_pk).unwrap();
    assert!(s.peers[0].adopt_public_state(coin, &state, &mut s.rng).unwrap());
    let rreq = s.peers[2].request_renewal(coin, &mut s.rng).unwrap();
    let renewed = s.peers[0].handle_renewal(rreq, Timestamp(20), &mut s.rng).unwrap();
    s.peers[2].apply_renewal(coin, renewed).unwrap();
}

#[test]
fn owner_anonymous_coins_route_via_i3_and_fall_back_to_broker() {
    // §5.2 approach 3, wired through the indirection layer: the payer
    // reaches the owner by handle only; when the trigger goes dark it
    // detects unreachability and uses the broker instead.
    let mut s = system(3, 3);
    let now = Timestamp(0);
    let mut net = Network::new();
    let mut i3 = IndirectionLayer::new();

    let handle = Handle::random(&mut s.rng);
    let (req, pending) =
        s.peers[0].create_purchase_request(PurchaseMode::AnonymousWithHandle(handle), &mut s.rng);
    let minted = s.broker.handle_purchase(&req, &mut s.rng).unwrap();
    let coin = s.peers[0].complete_purchase(minted, pending, now, &mut s.rng).unwrap();

    // Register the owner's trigger (the endpoint handler is a stand-in for
    // the owner's request loop; core protocol objects stay sans-IO).
    let owner_ep = net.register("owner", |req: &[u8]| req.to_vec());
    let payer_ep = net.register("payer", |_: &[u8]| Vec::new());
    i3.register_trigger(handle, owner_ep);
    assert!(i3.is_reachable(&net, handle));
    let echoed = i3.request_via(&mut net, payer_ep, handle, b"transfer?".to_vec()).unwrap();
    assert_eq!(echoed, b"transfer?");

    // Issue to peer 1 while reachable.
    let (invite, session) = s.peers[1].begin_receive(&mut s.rng);
    let grant = s.peers[0].issue_coin(coin, &invite, now, &mut s.rng).unwrap();
    s.peers[1].accept_grant(grant, session, now).unwrap();

    // Trigger goes dark → payer detects and uses the downtime path.
    net.set_online(owner_ep, false);
    assert!(!i3.is_reachable(&net, handle));
    let (invite2, session2) = s.peers[2].begin_receive(&mut s.rng);
    let treq = s.peers[1].request_transfer(coin, &invite2, &mut s.rng).unwrap();
    let grant2 = s.broker.handle_downtime_transfer(&treq, Timestamp(5), &mut s.rng).unwrap();
    s.peers[2].accept_grant(grant2, session2, Timestamp(5)).unwrap();
    s.peers[1].complete_transfer(coin);
}

#[test]
fn fraud_pipeline_broker_judge_quorum() {
    // Deposit fraud flows from broker detection through a Shamir-rebuilt
    // judge quorum to an identified culprit — the full fairness pipeline.
    let mut s = system(2, 4);
    let now = Timestamp(0);
    let (req, pending) = s.peers[0].create_purchase_request(PurchaseMode::Identified, &mut s.rng);
    let minted = s.broker.handle_purchase(&req, &mut s.rng).unwrap();
    let coin = s.peers[0].complete_purchase(minted, pending, now, &mut s.rng).unwrap();
    let (invite, session) = s.peers[1].begin_receive(&mut s.rng);
    let grant = s.peers[0].issue_coin(coin, &invite, now, &mut s.rng).unwrap();
    s.peers[1].accept_grant(grant, session, now).unwrap();
    let dep = s.peers[1].request_deposit(coin, &mut s.rng).unwrap();
    s.broker.handle_deposit(&dep, now).unwrap();
    // A freshly signed second deposit is fraud; an identical resend would
    // only be an idempotent replay.
    let dep2 = s.peers[1].request_deposit(coin, &mut s.rng).unwrap();
    assert!(s.broker.handle_deposit(&dep2, now).is_err());

    let shares = s.judge.split_master(2, 3, &mut s.rng);
    let registry = s.judge.export_registry();
    let quorum = Judge::from_shares(s.params.group().clone(), &shares[1..3], 2, registry).unwrap();
    let parties = quorum.reveal_parties(&s.broker.fraud_cases()[0]);
    assert_eq!(parties, vec![RevealedIdentity::Peer(PeerId(1))]);
}

#[test]
fn evaluation_simulator_agrees_with_protocol_economics() {
    // The op-count simulator and the real protocol agree on the headline:
    // most load stays on peers, lazy sync lowers broker involvement.
    let base = SimConfig::small_test(Policy::I, SyncStrategy::Proactive, 11);
    let pro = loadsim::run(&base);
    let lazy = loadsim::run(&SimConfig::small_test(Policy::I, SyncStrategy::Lazy, 11));
    let w = MicroWeights::TABLE3;
    assert!(pro.broker_cpu_share(w) < 0.5);
    assert!(lazy.broker_cpu(w) < pro.broker_cpu(w));
    // Payments completed should be identical (same seed, same workload).
    assert_eq!(pro.payments, lazy.payments);
}
