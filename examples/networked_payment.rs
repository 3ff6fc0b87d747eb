//! WhoPay over the wire: entities behind byte endpoints on the simulated
//! network, with every protocol message encoded, decoded, and counted.
//!
//! The protocol objects are sans-IO; `whopay::core::service` puts the
//! broker and a coin owner behind `whopay::net` endpoints. This example
//! runs a payment end to end over that network, then prints the measured
//! traffic — the concrete counterpart of the paper's per-operation
//! communication cost model (§6.2).
//!
//! Run with: `cargo run --release --example networked_payment`

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use whopay::core::service::{
    attach_client, attach_peer, attach_shard_endpoints, clock, deposit_via, purchase_via,
    request_issue_via, request_transfer_via, send_invite, shared_clock,
};
use whopay::core::{Judge, Peer, PeerId, PurchaseMode, ShardedBroker, SystemParams, Timestamp};
use whopay::crypto::testing;
use whopay::net::Network;
use whopay::obs::Obs;

fn main() {
    let mut rng = testing::test_rng(31);
    let params = SystemParams::new(testing::tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    // The broker is a `ShardedBroker`; unpartitioned, it has one shard.
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
    let mut payer = mk(1, &mut judge, &broker, &mut rng);
    let mut payee = mk(2, &mut judge, &broker, &mut rng);

    // Wire everything to the network.
    let mut net = Network::new();
    let clk = clock(Timestamp(0));
    let broker_ep = attach_shard_endpoints(&mut net, broker, shared_clock(Timestamp(0)), 1)[0];
    let owner = Rc::new(RefCell::new(owner));
    let owner_ep = attach_peer(&mut net, owner.clone(), clk.clone(), 2);
    let payer_ep = attach_client(&mut net, "payer");
    let payee_ep = attach_client(&mut net, "payee");
    println!("network up: {} endpoints\n", net.endpoint_count());

    let now = Timestamp(0);

    // The owner buys a coin from the broker — two wire messages.
    let coin = {
        let mut o = owner.borrow_mut();
        purchase_via(&mut net, owner_ep, broker_ep, &mut o, PurchaseMode::Identified, now, &mut rng)
            .expect("purchase over the wire")
    };
    println!("owner bought {coin} over the wire ({})", net.stats());

    // Payer buys it from the owner (issue), then pays payee (transfer via
    // the owner's endpoint).
    let (invite, session) = payer.begin_receive(&mut rng);
    send_invite(&mut net, payer_ep, owner_ep, &invite, &Obs::disabled()).unwrap();
    let grant = request_issue_via(&mut net, payer_ep, owner_ep, coin, &invite).unwrap();
    payer.accept_grant(grant, session, now).unwrap();
    println!("payer holds the coin after a networked issue ({})", net.stats());

    let (invite2, session2) = payee.begin_receive(&mut rng);
    send_invite(&mut net, payee_ep, payer_ep, &invite2, &Obs::disabled()).unwrap();
    let treq = payer.request_transfer(coin, &invite2, &mut rng).unwrap();
    let grant2 = request_transfer_via(&mut net, payer_ep, owner_ep, treq, false).unwrap();
    payee.accept_grant(grant2, session2, now).unwrap();
    payer.complete_transfer(coin);
    println!("payee holds the coin after a networked transfer ({})", net.stats());

    // Owner drops offline mid-run; the payee's deposit still works (the
    // broker endpoint is up), and a direct renewal attempt fails cleanly.
    net.set_online(owner_ep, false);
    let rreq = payee.request_renewal(coin, &mut rng).unwrap();
    let direct =
        whopay::core::service::request_renewal_via(&mut net, payee_ep, owner_ep, rreq.clone(), false);
    println!("renewal with owner offline: {}", direct.unwrap_err());
    let renewed = whopay::core::service::request_renewal_via(&mut net, payee_ep, broker_ep, rreq, true)
        .expect("downtime renewal via broker");
    payee.apply_renewal(coin, renewed).unwrap();

    let dreq = payee.request_deposit(coin, &mut rng).unwrap();
    let receipt = deposit_via(&mut net, payee_ep, broker_ep, dreq).unwrap();
    payee.complete_deposit(coin);
    println!("deposited {} for {} unit(s)\n", receipt.coin, receipt.value);

    println!("total wire traffic:       {}", net.stats());
    println!("broker endpoint traffic:  {}", net.endpoint_stats(broker_ep));
    println!("owner endpoint traffic:   {}", net.endpoint_stats(owner_ep));
}
