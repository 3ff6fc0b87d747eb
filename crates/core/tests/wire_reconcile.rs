//! Reconciliation: the scratch-buffer wire path must be accounted
//! *identically* across every ledger — the network's global
//! `TrafficStats`, the per-kind classifier breakdown, the
//! transport-level `NetRequest` observability events, and the codec
//! pool's byte odometer all describe the same bytes of the same
//! protocol run.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use whopay_core::service::{
    attach_client, attach_peer, attach_shard_endpoints, clock, deposit_via, install_wire_classifier,
    purchase_via, request_issue_via, request_renewal_via, request_transfer_via, send_invite,
    shared_clock, sync_via,
};
use whopay_core::{codec, Judge, Peer, PeerId, PurchaseMode, ShardedBroker, SystemParams, Timestamp};
use whopay_crypto::testing::{test_rng, tiny_group};
use whopay_net::Network;
use whopay_obs::{MemoryRecorder, Metrics, Obs, OpKind, Outcome, Tracer};

#[test]
fn scratch_path_reconciles_stats_breakdown_events_and_pool_bytes() {
    let mut rng = test_rng(77);
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
    let mut payer = mk(1, &mut judge, &broker, &mut rng);
    let mut payee = mk(2, &mut judge, &broker, &mut rng);

    let recorder = Arc::new(MemoryRecorder::new());
    let mut net = Network::new();
    net.set_obs(Obs::with_tracer(Tracer::new(recorder.clone())));
    install_wire_classifier(&mut net);

    let clk = clock(Timestamp(0));
    let sclk = shared_clock(Timestamp(0));
    let broker_ep = attach_shard_endpoints(&mut net, broker, sclk.clone(), 11)[0];
    let owner = Rc::new(RefCell::new(owner));
    let owner_ep = attach_peer(&mut net, owner.clone(), clk.clone(), 12);
    let payer_ep = attach_client(&mut net, "payer");
    let payee_ep = attach_client(&mut net, "payee");

    // Pool counters are thread-local and cumulative: measure the delta.
    let pool_bytes_before = codec::wire_bytes_count();

    // A full coin lifecycle: purchase, invite, issue, transfer, renewal,
    // deposit, sync — every wire kind the classifier distinguishes on the
    // non-downtime path.
    let now = Timestamp(0);
    let coin = {
        let mut o = owner.borrow_mut();
        purchase_via(&mut net, owner_ep, broker_ep, &mut o, PurchaseMode::Identified, now, &mut rng)
            .expect("purchase")
    };
    let (invite, session) = payer.begin_receive(&mut rng);
    let grant = request_issue_via(&mut net, payer_ep, owner_ep, coin, &invite).expect("issue");
    payer.accept_grant(grant, session, now).expect("grant accepted");

    let (invite2, session2) = payee.begin_receive(&mut rng);
    send_invite(&mut net, payee_ep, payer_ep, &invite2).expect("invite delivery");
    let treq = payer.request_transfer(coin, &invite2, &mut rng).expect("transfer request");
    let grant2 = request_transfer_via(&mut net, payer_ep, owner_ep, treq, false).expect("transfer");
    payee.accept_grant(grant2, session2, now).expect("transfer accepted");
    payer.complete_transfer(coin);

    clk.set(Timestamp(100));
    sclk.store(100, Ordering::SeqCst);
    let rreq = payee.request_renewal(coin, &mut rng).expect("renewal request");
    let renewed = request_renewal_via(&mut net, payee_ep, owner_ep, rreq, false).expect("renewal");
    payee.apply_renewal(coin, renewed).expect("renewal applied");

    let dreq = payee.request_deposit(coin, &mut rng).expect("deposit request");
    deposit_via(&mut net, payee_ep, broker_ep, dreq).expect("deposit");
    payee.complete_deposit(coin);

    {
        let mut o = owner.borrow_mut();
        sync_via(&mut net, owner_ep, broker_ep, &mut o, &mut rng).expect("sync");
    }

    let stats = net.stats();
    let pool_bytes = codec::wire_bytes_count() - pool_bytes_before;
    assert!(stats.messages >= 14, "messages {}", stats.messages);

    // 1. The per-kind breakdown covers exactly the global stats, and every
    //    exercised operation shows up under its wire_kind label.
    assert_eq!(net.breakdown().total(), stats, "classifier must see every scratch-path delivery");
    for kind in ["purchase", "issue", "transfer", "renewal", "deposit", "sync"] {
        assert!(net.breakdown().get(kind).messages > 0, "missing breakdown kind {kind}");
    }

    // 2. Transport events describe the same traffic: each delivery is one
    //    NetRequest event carrying 2 messages and the request+response
    //    bytes, tagged with the same kind the breakdown counted.
    let events = recorder.take();
    let delivered: Vec<_> =
        events.iter().filter(|e| e.op == OpKind::NetRequest && e.outcome == Outcome::Ok).collect();
    assert_eq!(delivered.len() as u64 * 2, stats.messages, "one event per round trip");
    assert_eq!(delivered.iter().map(|e| e.messages).sum::<u64>(), stats.messages);
    assert_eq!(delivered.iter().map(|e| e.bytes).sum::<u64>(), stats.bytes);
    for e in &delivered {
        let kind = e.detail.as_deref().expect("classified delivery carries its kind");
        assert!(net.breakdown().get(kind).messages > 0, "event kind {kind} missing from breakdown");
    }

    // 3. Every exchange above rode pooled buffers (request out, response
    //    back), so the pool's byte odometer equals the traffic ledger.
    assert_eq!(pool_bytes, stats.bytes, "pooled-buffer bytes must equal TrafficStats bytes");

    // 4. The exported counters re-tell the same totals under the
    //    dashboard names.
    let metrics = Metrics::new();
    net.export_breakdown(&metrics);
    codec::export_wire_metrics(&metrics);
    let report = metrics.report();
    let sum_of = |suffix: &str| {
        report
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("net.") && k.ends_with(suffix))
            .map(|(_, v)| *v)
            .sum::<u64>()
    };
    assert_eq!(sum_of(".messages"), stats.messages);
    assert_eq!(sum_of(".bytes"), stats.bytes);
    assert!(report.counters["wire.bytes"] >= pool_bytes);
}
