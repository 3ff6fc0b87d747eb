//! Ablation: measured wire traffic per protocol operation.
//!
//! The paper's communication model (§6.2) assigns each coarse operation a
//! message count derived "from the protocol specification alone". Our
//! reproduction runs the actual protocol over a byte-accounted network
//! (`whopay_core::service` + `whopay_net`), so we can *measure* messages
//! and bytes per operation and compare with the model constants in
//! `whopay_eval::cost`.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use whopay_core::service::{
    attach_client, attach_peer, attach_shard_endpoints, clock, deposit_via, purchase_via,
    request_issue_via, request_renewal_via, request_transfer_via, send_invite, shared_clock, sync_via,
};
use whopay_core::{Judge, Peer, PeerId, PurchaseMode, ShardedBroker, SystemParams, Timestamp};
use whopay_crypto::testing::{test_rng, tiny_group};
use whopay_eval::cost::{broker_messages, peer_messages};
use whopay_eval::Op;
use whopay_net::Network;
use whopay_obs::Obs;

fn main() {
    let mut rng = test_rng(0xAB1A);
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
    let owner_obj = mk(0, &mut judge, &broker, &mut rng);
    let mut payer = mk(1, &mut judge, &broker, &mut rng);
    let mut payee = mk(2, &mut judge, &broker, &mut rng);

    let mut net = Network::new();
    let clk = clock(Timestamp(0));
    let broker_ep = attach_shard_endpoints(&mut net, broker, shared_clock(Timestamp(0)), 1)[0];
    let owner = Rc::new(RefCell::new(owner_obj));
    let owner_ep = attach_peer(&mut net, owner.clone(), clk.clone(), 2);
    let payer_ep = attach_client(&mut net, "payer");
    let payee_ep = attach_client(&mut net, "payee");
    let now = Timestamp(0);

    println!(
        "{:<22}{:>10}{:>10}{:>14}{:>16}",
        "operation", "messages", "bytes", "model (peer)", "model (broker)"
    );
    let report = |label: &str, op: Op, net: &mut Network| {
        let s = net.stats();
        println!(
            "{label:<22}{:>10}{:>10}{:>14}{:>16}",
            s.messages,
            s.bytes,
            peer_messages(op),
            broker_messages(op)
        );
        net.reset_stats();
    };

    // Purchase.
    net.reset_stats();
    let coin = {
        let mut o = owner.borrow_mut();
        purchase_via(&mut net, owner_ep, broker_ep, &mut o, PurchaseMode::Identified, now, &mut rng)
            .unwrap()
    };
    report("purchase", Op::Purchase, &mut net);

    // Issue (invite + grant).
    let (invite, session) = payer.begin_receive(&mut rng);
    send_invite(&mut net, payer_ep, owner_ep, &invite, &Obs::disabled()).unwrap();
    let grant = request_issue_via(&mut net, payer_ep, owner_ep, coin, &invite).unwrap();
    payer.accept_grant(grant, session, now).unwrap();
    report("issue", Op::Issue, &mut net);

    // Transfer via owner (invite + request + grant).
    let (invite2, session2) = payee.begin_receive(&mut rng);
    send_invite(&mut net, payee_ep, payer_ep, &invite2, &Obs::disabled()).unwrap();
    let treq = payer.request_transfer(coin, &invite2, &mut rng).unwrap();
    let grant2 = request_transfer_via(&mut net, payer_ep, owner_ep, treq, false).unwrap();
    payee.accept_grant(grant2, session2, now).unwrap();
    payer.complete_transfer(coin);
    report("transfer", Op::Transfer, &mut net);

    // Renewal via owner.
    let rreq = payee.request_renewal(coin, &mut rng).unwrap();
    let renewed = request_renewal_via(&mut net, payee_ep, owner_ep, rreq, false).unwrap();
    payee.apply_renewal(coin, renewed).unwrap();
    report("renewal", Op::Renewal, &mut net);

    // Downtime transfer via broker (owner offline).
    net.set_online(owner_ep, false);
    let (invite3, session3) = payer.begin_receive(&mut rng);
    send_invite(&mut net, payer_ep, payee_ep, &invite3, &Obs::disabled()).unwrap();
    let treq2 = payee.request_transfer(coin, &invite3, &mut rng).unwrap();
    let grant3 = request_transfer_via(&mut net, payee_ep, broker_ep, treq2, true).unwrap();
    payer.accept_grant(grant3, session3, now).unwrap();
    payee.complete_transfer(coin);
    report("downtime transfer", Op::DowntimeTransfer, &mut net);

    // Downtime renewal via broker.
    let rreq2 = payer.request_renewal(coin, &mut rng).unwrap();
    let renewed2 = request_renewal_via(&mut net, payer_ep, broker_ep, rreq2, true).unwrap();
    payer.apply_renewal(coin, renewed2).unwrap();
    report("downtime renewal", Op::DowntimeRenewal, &mut net);

    // Sync on rejoin.
    net.set_online(owner_ep, true);
    {
        let mut o = owner.borrow_mut();
        sync_via(&mut net, owner_ep, broker_ep, &mut o, &mut rng).unwrap();
    }
    report("sync", Op::Sync, &mut net);

    // Deposit.
    let dreq = payer.request_deposit(coin, &mut rng).unwrap();
    deposit_via(&mut net, payer_ep, broker_ep, dreq).unwrap();
    payer.complete_deposit(coin);
    report("deposit", Op::Deposit, &mut net);

    println!(
        "\n(model columns: the §6.2-style constants used by the load simulator; \
         measured counts include request+response legs and invite delivery)"
    );
}
