//! The downtime protocol under churn: the owner's availability follows
//! the paper's alternating-renewal on/off process (§6.1) while a coin
//! ping-pongs between two trading peers.
//!
//! When the churn process has the owner offline, transfers and renewals
//! route to the broker's downtime path; when the owner returns, it
//! proactively synchronizes and must adopt the broker-served bindings
//! (only *newer* ones — the [`Peer::adopt_broker_binding`] rule), after
//! which it serves requests again with the up-to-date binding.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use whopay::core::service::{
    attach_client, attach_peer, attach_shard_endpoints, clock, request_renewal_via,
    request_transfer_via, shared_clock, sync_via,
};
use whopay::core::{Judge, Peer, PeerId, PurchaseMode, ShardedBroker, SystemParams, Timestamp};
use whopay::crypto::testing::{test_rng, tiny_group};
use whopay::net::Network;
use whopay::sim::{churn::ChurnProcess, SimTime};

const ROUNDS: u64 = 24;

#[test]
fn downtime_protocol_under_churn() {
    let seed = 0xD07E;
    let mut rng = test_rng(seed);
    // The availability process draws from its own stream so the protocol's
    // signature randomness cannot shift the on/off schedule.
    let mut churn_rng = test_rng(seed ^ 0xA1FA);

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
    let mut traders = [mk(1, &mut judge, &broker, &mut rng), mk(2, &mut judge, &broker, &mut rng)];

    let mut net = Network::new();
    let clk = clock(Timestamp(0));
    let sclk = shared_clock(Timestamp(0));
    let broker_ep = attach_shard_endpoints(&mut net, broker.clone(), sclk.clone(), 1000 + seed)[0];
    let owner = Rc::new(RefCell::new(owner));
    let owner_ep = attach_peer(&mut net, owner.clone(), clk.clone(), 2000 + seed);
    let trader_eps = [attach_client(&mut net, "trader-1"), attach_client(&mut net, "trader-2")];

    // Owner availability: µ = ν = 2h, α = 0.5 — long offline windows are
    // guaranteed across 24 half-hour-spaced rounds.
    let mut churn = ChurnProcess::start(SimTime::from_hours(2), SimTime::from_hours(2), &mut churn_rng);

    // The owner buys a coin and issues it to trader 0 while guaranteed
    // online (the churn schedule only applies from the trading rounds on).
    let t0 = Timestamp(0);
    let coin = {
        let mut o = owner.borrow_mut();
        let (req, pending) = o.create_purchase_request(PurchaseMode::Identified, &mut rng);
        let minted = broker.handle_purchase(&req, &mut rng).unwrap();
        let coin = o.complete_purchase(minted, pending, t0, &mut rng).unwrap();
        let (invite, session) = traders[0].begin_receive(&mut rng);
        let grant = o.issue_coin(coin, &invite, t0, &mut rng).unwrap();
        traders[0].accept_grant(grant, session, t0).unwrap();
        coin
    };

    let mut holder = 0usize;
    let mut owner_online = true;
    let mut downtime_ops_since_sync = 0u32;
    let mut owner_served = 0u32;
    let mut offline_windows = 0u32;

    for round in 0..ROUNDS {
        let t = SimTime::from_mins((round + 1) * 30);
        let now = Timestamp(t.as_millis());
        clk.set(now);
        sclk.store(now.0, Ordering::SeqCst);

        // Drive the owner's endpoint from the churn process.
        let online = churn.advance_to(t, &mut churn_rng);
        if online != owner_online {
            net.set_online(owner_ep, online);
            if !online {
                offline_windows += 1;
            }
            if online && downtime_ops_since_sync > 0 {
                // Owner returns: proactive synchronization adopts every
                // binding the broker served in its absence…
                let adopted = {
                    let mut o = owner.borrow_mut();
                    sync_via(&mut net, owner_ep, broker_ep, &mut o, &mut rng).unwrap()
                };
                assert!(adopted >= 1, "returning owner must adopt the downtime binding");
                // …and re-syncing adopts nothing: the broker's binding is
                // no longer newer (the adopt_broker_binding seq rule).
                let again = {
                    let mut o = owner.borrow_mut();
                    sync_via(&mut net, owner_ep, broker_ep, &mut o, &mut rng).unwrap()
                };
                assert_eq!(again, 0, "second sync must be a no-op");
                downtime_ops_since_sync = 0;
            }
            owner_online = online;
        }

        let (target_ep, downtime) = if owner_online { (owner_ep, false) } else { (broker_ep, true) };
        if (round + 1) % 4 == 0 {
            // Renewal round: the current holder refreshes its binding.
            let rreq = traders[holder].request_renewal(coin, &mut rng).unwrap();
            let renewed =
                request_renewal_via(&mut net, trader_eps[holder], target_ep, rreq, downtime).unwrap();
            traders[holder].apply_renewal(coin, renewed).unwrap();
        } else {
            // Transfer round: the coin hops to the other trader (fresh
            // holder keys per hop, so ping-pong is a real chain).
            let next = 1 - holder;
            let (invite, session) = traders[next].begin_receive(&mut rng);
            let treq = traders[holder].request_transfer(coin, &invite, &mut rng).unwrap();
            let grant =
                request_transfer_via(&mut net, trader_eps[holder], target_ep, treq, downtime).unwrap();
            let (a, b) = traders.split_at_mut(1);
            let next_peer = if next == 0 { &mut a[0] } else { &mut b[0] };
            next_peer.accept_grant(grant, session, now).unwrap();
            traders[holder].complete_transfer(coin);
            holder = next;
        }
        if owner_online {
            owner_served += 1;
        } else {
            downtime_ops_since_sync += 1;
        }
    }

    // The schedule produced genuine offline windows, the broker stood in
    // for the owner during them, and the owner served ops when online.
    let stats = broker.stats();
    assert!(offline_windows >= 1, "churn produced no offline window");
    assert!(stats.downtime_transfers >= 1, "no downtime transfers: {stats:?}");
    assert!(stats.downtime_renewals >= 1, "no downtime renewals: {stats:?}");
    assert!(owner_served >= 1, "owner never served while online");
    assert!(stats.syncs >= 2, "owner never synchronized: {stats:?}");

    // Binding sync on return: the owner's authoritative record has caught
    // up with the whole chain — its binding seq equals the holder's.
    let expected_seq = traders[holder].held_coin(&coin).unwrap().binding.seq();
    let o = owner.borrow();
    let owned = o.owned_coin(&coin).unwrap();
    assert_eq!(
        owned.binding.seq(),
        expected_seq,
        "owner binding must track the chain after sync/serving"
    );

    // And the coin still deposits cleanly at the end of the chain (at the
    // last round's clock, inside the binding's validity window).
    let dreq = traders[holder].request_deposit(coin, &mut rng).unwrap();
    let receipt = broker.handle_deposit(&dreq, Timestamp(SimTime::from_mins(ROUNDS * 30).as_millis()));
    assert_eq!(receipt.unwrap().coin, coin);
}
