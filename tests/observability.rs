//! End-to-end observability: protocol runs over the wire with tracing
//! and metrics attached, and the per-operation report reconciles exactly
//! with the transport's own `TrafficStats` accounting. Observing a run
//! changes no byte on the wire, and a trace ends at the endpoint: nothing
//! a client draws reaches the served side.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use whopay::core::micropay::{MicropayHost, MicropaySender};
use whopay::core::service::{
    attach_client, attach_micropay_host_obs, attach_peer_obs, attach_shard_endpoints_obs,
    binding_proof_via_obs, clock, deposit_via_obs, install_wire_classifier, open_chain_via_obs,
    purchase_via_obs, redeem_chain_via_obs, request_issue_via_obs, request_renewal_via_obs,
    request_transfer_via_obs, send_invite, shared_clock, sync_via_obs, tick_batch_via_obs,
    tick_via_obs, SharedClock,
};
use whopay::core::{
    dsd, Broker, ChainId, Judge, Peer, PeerId, PurchaseMode, ShardedBroker, SystemParams, Timestamp,
};
use whopay::crypto::payword::Payword;
use whopay::crypto::testing::{test_rng, tiny_group};
use whopay::dht::{Dht, DhtConfig, RingId};
use whopay::net::{EndpointId, Network, TrafficBreakdown, TrafficStats};
use whopay::obs::{
    chrome_trace, FlightRecorder, JsonLinesRecorder, MemoryRecorder, Metrics, Obs, OpKind, Recorder,
    Role, Tracer,
};

struct NetWorld {
    net: Network,
    broker_ep: whopay::net::EndpointId,
    owner: Rc<RefCell<Peer>>,
    owner_ep: whopay::net::EndpointId,
    payer: Peer,
    payer_ep: whopay::net::EndpointId,
    payee: Peer,
    payee_ep: whopay::net::EndpointId,
    clk: whopay::core::service::Clock,
    /// The broker's clock.
    sclk: SharedClock,
    rng: rand::rngs::StdRng,
}

/// The networked fixture of `whopay-core`'s wire tests, with observability
/// contexts attached: `server_obs` feeds the broker/owner dispatch spans,
/// and the wire classifier populates the per-kind traffic breakdown.
fn networld(seed: u64, server_obs: Obs) -> NetWorld {
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
    install_wire_classifier(&mut net);
    let clk = clock(Timestamp(0));
    let sclk = shared_clock(Timestamp(0));
    let broker_ep =
        attach_shard_endpoints_obs(&mut net, broker, sclk.clone(), 1000 + seed, server_obs.clone())[0];
    let owner = Rc::new(RefCell::new(owner));
    let owner_ep = attach_peer_obs(&mut net, owner.clone(), clk.clone(), 2000 + seed, server_obs);
    let payer_ep = attach_client(&mut net, "payer");
    let payee_ep = attach_client(&mut net, "payee");
    NetWorld { net, broker_ep, owner, owner_ep, payer, payer_ep, payee, payee_ep, clk, sclk, rng }
}

/// Runs one full coin lifecycle (purchase, issue, invite, transfer,
/// renewal, deposit, sync) with `obs` attached to every client call.
fn run_lifecycle(w: &mut NetWorld, obs: &Obs) {
    let now = Timestamp(0);
    let coin = {
        let mut owner = w.owner.borrow_mut();
        purchase_via_obs(
            &mut w.net,
            w.owner_ep,
            w.broker_ep,
            &mut owner,
            PurchaseMode::Identified,
            now,
            &mut w.rng,
            obs,
        )
        .expect("networked purchase")
    };

    let (invite, session) = w.payer.begin_receive(&mut w.rng);
    let grant = request_issue_via_obs(&mut w.net, w.payer_ep, w.owner_ep, coin, &invite, obs).unwrap();
    w.payer.accept_grant(grant, session, now).unwrap();

    let (invite2, session2) = w.payee.begin_receive(&mut w.rng);
    send_invite(&mut w.net, w.payee_ep, w.payer_ep, &invite2, obs).unwrap();
    let treq = w.payer.request_transfer(coin, &invite2, &mut w.rng).unwrap();
    let grant2 =
        request_transfer_via_obs(&mut w.net, w.payer_ep, w.owner_ep, treq, false, obs).unwrap();
    w.payee.accept_grant(grant2, session2, now).unwrap();
    w.payer.complete_transfer(coin);

    w.clk.set(Timestamp(100));
    w.sclk.store(100, Ordering::SeqCst);
    let rreq = w.payee.request_renewal(coin, &mut w.rng).unwrap();
    let renewed =
        request_renewal_via_obs(&mut w.net, w.payee_ep, w.owner_ep, rreq, false, obs).unwrap();
    w.payee.apply_renewal(coin, renewed).unwrap();

    let dreq = w.payee.request_deposit(coin, &mut w.rng).unwrap();
    deposit_via_obs(&mut w.net, w.payee_ep, w.broker_ep, dreq, obs).unwrap();
    w.payee.complete_deposit(coin);

    {
        let mut owner = w.owner.borrow_mut();
        sync_via_obs(&mut w.net, w.owner_ep, w.broker_ep, &mut owner, &mut w.rng, obs)
            .expect("networked sync");
    }
}

#[test]
fn client_spans_reconcile_exactly_with_traffic_stats() {
    let mut w = networld(1, Obs::disabled());
    let metrics = Arc::new(Metrics::new());
    let recorder = Arc::new(MemoryRecorder::new());
    let obs = Obs::new(Tracer::new(recorder.clone()), metrics.clone());

    run_lifecycle(&mut w, &obs);

    // Every message and byte the network counted is attributed to
    // exactly one client span — the totals match TrafficStats exactly.
    let stats = w.net.stats();
    let report = metrics.report();
    assert_eq!(report.total_messages(), stats.messages, "message totals reconcile");
    assert_eq!(report.total_bytes(), stats.bytes, "byte totals reconcile");

    // The per-kind breakdown (fed by the wire classifier) covers the same
    // traffic.
    let breakdown_total = w.net.breakdown().total();
    assert_eq!(breakdown_total.messages, stats.messages);
    assert_eq!(breakdown_total.bytes, stats.bytes);

    // One event per protocol operation, each a 2-message exchange.
    let events = recorder.events();
    assert_eq!(events.len() as u64 * 2, stats.messages);
    for ev in &events {
        assert_eq!(ev.messages, 2, "{:?} is one request/response exchange", ev.op);
        assert!(ev.bytes > 0, "{:?} carried payload bytes", ev.op);
        assert!(ev.duration.is_some(), "{:?} was timed", ev.op);
    }

    // Per-operation counts: the lifecycle performs each op exactly once.
    for (role, op) in [
        (Role::Broker, OpKind::Purchase),
        (Role::Peer, OpKind::Issue),
        (Role::Client, OpKind::Other), // the invite
        (Role::Peer, OpKind::Transfer),
        (Role::Peer, OpKind::Renewal),
        (Role::Broker, OpKind::Deposit),
        (Role::Broker, OpKind::Sync),
    ] {
        let row = metrics.op_snapshot(role, op);
        assert_eq!(row.count, 1, "{role:?}/{op:?} count");
        assert_eq!(row.errors, 0, "{role:?}/{op:?} errors");
    }

    // The rendered table mentions the protocol operations.
    let table = report.render_table();
    assert!(table.contains("purchase") && table.contains("transfer"), "table:\n{table}");
}

#[test]
fn server_dispatch_spans_count_operations_without_traffic() {
    let server_metrics = Arc::new(Metrics::new());
    let mut w = networld(2, Obs::with_metrics(server_metrics.clone()));
    let client_obs = Obs::disabled();

    run_lifecycle(&mut w, &client_obs);

    // The broker and the owner each saw their operations once...
    for (role, op) in [
        (Role::Broker, OpKind::Purchase),
        (Role::Peer, OpKind::Issue),
        (Role::Peer, OpKind::Transfer),
        (Role::Peer, OpKind::Renewal),
        (Role::Broker, OpKind::Deposit),
        (Role::Broker, OpKind::Sync),
    ] {
        let row = server_metrics.op_snapshot(role, op);
        assert_eq!(row.count, 1, "{role:?}/{op:?} dispatched once");
        // ...with no traffic attached: the client side owns the byte
        // accounting, so mixing both registries can never double-count.
        assert_eq!(row.messages, 0, "{role:?}/{op:?} server span carries no traffic");
        assert_eq!(row.bytes, 0);
    }
}

#[test]
fn rejected_requests_surface_as_failed_spans() {
    let server_metrics = Arc::new(Metrics::new());
    let mut w = networld(3, Obs::with_metrics(server_metrics.clone()));
    let client_metrics = Arc::new(Metrics::new());
    let client_obs = Obs::with_metrics(client_metrics.clone());

    // Depositing a coin the payee never held: the broker rejects it.
    let coin = {
        let mut owner = w.owner.borrow_mut();
        purchase_via_obs(
            &mut w.net,
            w.owner_ep,
            w.broker_ep,
            &mut owner,
            PurchaseMode::Identified,
            Timestamp(0),
            &mut w.rng,
            &client_obs,
        )
        .expect("networked purchase")
    };
    let _ = coin;
    let bogus = w.payee.request_deposit(coin, &mut w.rng);
    // The payee never held the coin, so the request may fail locally; if
    // it somehow builds, the broker must reject it remotely.
    if let Ok(dreq) = bogus {
        let res = deposit_via_obs(&mut w.net, w.payee_ep, w.broker_ep, dreq, &client_obs);
        assert!(res.is_err(), "broker must reject a deposit of an unheld coin");
        let client_row = client_metrics.op_snapshot(Role::Broker, OpKind::Deposit);
        assert_eq!(client_row.count, 1);
        assert_eq!(client_row.errors, 1, "client span marked failed");
        let server_row = server_metrics.op_snapshot(Role::Broker, OpKind::Deposit);
        assert_eq!(server_row.errors, 1, "server span marked failed");
        // Failed exchanges still carried their traffic.
        let report = client_metrics.report();
        assert_eq!(report.total_messages(), w.net.stats().messages);
        assert_eq!(report.total_bytes(), w.net.stats().bytes);
    }
}

#[test]
fn dsd_checks_and_alarms_reach_the_registry() {
    let mut rng = test_rng(40);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let mut broker = Broker::new(params.clone(), judge.public_key().clone(), &mut rng);
    let gk = judge.enroll(PeerId(0), &mut rng);
    let mut owner = Peer::new(
        PeerId(0),
        params.clone(),
        broker.public_key().clone(),
        judge.public_key().clone(),
        gk,
        &mut rng,
    );
    broker.register_peer(PeerId(0), owner.public_key().clone());
    let gk1 = judge.enroll(PeerId(1), &mut rng);
    let mut payee = Peer::new(
        PeerId(1),
        params.clone(),
        broker.public_key().clone(),
        judge.public_key().clone(),
        gk1,
        &mut rng,
    );
    broker.register_peer(PeerId(1), payee.public_key().clone());

    let mut dht = Dht::new(params.group().clone(), broker.public_key().clone(), DhtConfig::default());
    let dht_metrics = Arc::new(Metrics::new());
    dht.set_obs(Obs::with_metrics(dht_metrics.clone()));
    for _ in 0..8 {
        dht.join(RingId::random(&mut rng));
    }
    let entry = dht.node_ids()[0];

    let dsd_metrics = Arc::new(Metrics::new());
    let obs = Obs::with_metrics(dsd_metrics.clone());

    let t0 = Timestamp(0);
    let (req, pending) = owner.create_purchase_request(PurchaseMode::Identified, &mut rng);
    let minted = broker.handle_purchase(&req, &mut rng).unwrap();
    let coin = owner.complete_purchase(minted, pending, t0, &mut rng).unwrap();

    let (invite, session) = payee.begin_receive(&mut rng);
    let grant = owner.issue_coin(coin, &invite, t0, &mut rng).unwrap();

    // Verify before publication fails; after publication it passes.
    assert!(dsd::verify_grant_published(&mut dht, entry, &grant, &obs).is_err());
    dsd::publish_owner_binding(&owner, coin, &mut dht, entry, &mut rng, &obs).unwrap();
    dsd::verify_grant_published(&mut dht, entry, &grant, &obs).unwrap();

    let held_seq = grant.binding.seq();
    let coin_pk = grant.minted.coin_pk().clone();
    payee.accept_grant(grant, session, t0).unwrap();

    let mut monitor = dsd::HoldingMonitor::new();
    monitor.watch(&mut dht, coin, &coin_pk, held_seq);
    assert!(monitor.poll(&mut dht, &obs).is_empty(), "no alarm while honest");

    // The owner republishes a newer binding while the payee still holds
    // the coin: the monitor raises an alarm and records the event.
    let (invite2, _s2) = payee.begin_receive(&mut rng);
    // Owner no longer owns the coin after issuing; re-check by publishing
    // via a renewal path instead: bump the held binding through the owner.
    let _ = invite2;
    let rreq = payee.request_renewal(coin, &mut rng).unwrap();
    let renewed = owner.handle_renewal(rreq, t0, &mut rng).unwrap();
    let new_seq = renewed.seq();
    payee.apply_renewal(coin, renewed).unwrap();
    dsd::publish_owner_binding(&owner, coin, &mut dht, entry, &mut rng, &obs).unwrap();
    let alarms = monitor.poll(&mut dht, &obs);
    assert_eq!(alarms.len(), 1, "renewal past the held seq raises an alarm");
    assert!(new_seq > held_seq);

    // DSD spans landed in the registry.
    let publishes = dsd_metrics.op_snapshot(Role::Peer, OpKind::DsdPublish);
    assert_eq!(publishes.count, 2);
    assert_eq!(publishes.errors, 0);
    let verifies = dsd_metrics.op_snapshot(Role::Peer, OpKind::DsdVerify);
    assert_eq!(verifies.count, 2);
    assert_eq!(verifies.errors, 1, "pre-publication verify failed");
    let alarms_row = dsd_metrics.op_snapshot(Role::Peer, OpKind::DsdAlarm);
    assert_eq!(alarms_row.count, 1);
    assert_eq!(alarms_row.errors, 1, "alarms are failure events");

    // And the DHT's own registry mirrors its stats.
    let stats = dht.stats();
    assert_eq!(dht_metrics.op_snapshot(Role::DhtNode, OpKind::DhtGet).count, stats.gets);
    assert_eq!(dht_metrics.op_snapshot(Role::DhtNode, OpKind::DhtNotify).count, stats.notifications);
    assert_eq!(dht_metrics.counter("dht.lookup_hops").get(), stats.lookup_hops);
}

#[test]
fn jsonl_recorder_streams_protocol_events() {
    let recorder = Arc::new(JsonLinesRecorder::new(Vec::new()));
    let obs = Obs::with_tracer(Tracer::new(recorder.clone()));
    let mut w = networld(5, Obs::disabled());

    run_lifecycle(&mut w, &obs);

    assert!(recorder.enabled());
    drop(obs); // release the tracer's clone of the recorder
    let sink = Arc::try_unwrap(recorder).expect("sole owner").into_inner();
    let text = String::from_utf8(sink).expect("valid UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len() as u64 * 2, w.net.stats().messages, "one line per exchange");
    for line in lines {
        assert!(line.starts_with("{\"role\":\"") && line.ends_with('}'), "JSON object: {line}");
        assert!(line.contains("\"op\":\"") && line.contains("\"outcome\":\""), "{line}");
        assert!(line.contains("\"messages\":2"), "exchange traffic recorded: {line}");
    }
}

/// The streaming host's registry view of a PayWord stream: the tick
/// counters count what was acked, refusals count as rejections, and the
/// `micropay.tick_verify_hashes` samples add up to the receiver's own
/// hash counter over every acked verification — while a traced tick
/// still parents the host's dispatch span under the caller's.
#[test]
fn streaming_host_metrics_reconcile_with_the_receivers_hash_counter() {
    let mut rng = test_rng(7);
    let group = tiny_group().clone();
    let mut judge = Judge::new(group.clone(), &mut rng);
    let gpk = judge.public_key().clone();
    let gk = judge.enroll(PeerId(1), &mut rng);

    let host_metrics = Arc::new(Metrics::new());
    let host_events = Arc::new(MemoryRecorder::new());
    let host_obs = Obs::new(Tracer::new(host_events.clone()), host_metrics.clone());
    let client_events = Arc::new(MemoryRecorder::new());
    let client_obs = Obs::with_tracer(Tracer::new(client_events.clone()));

    let mut net = Network::new();
    let host = Rc::new(RefCell::new(MicropayHost::new(group.clone(), gpk.clone(), 64)));
    let host_ep = attach_micropay_host_obs(&mut net, host.clone(), host_obs);
    let me = attach_client(&mut net, "payer");
    let (mut sender, commitment) = MicropaySender::open(&group, &gpk, &gk, 256, 8, &mut rng);
    let chain = open_chain_via_obs(&mut net, me, host_ep, commitment, &client_obs).expect("open");

    // Acked traffic: ten single ticks, one 20-unit gap (checkpointed skip),
    // a batch of six, the same batch again, and a stale single tick.
    let mut acked_ticks = 0u64;
    let mut acked_dispatches = 0u64;
    let first = sender.pay(1).unwrap();
    assert_eq!(tick_via_obs(&mut net, me, host_ep, chain, first, &client_obs).unwrap(), (1, 1));
    for total in 2..=10u64 {
        let word = sender.pay(1).unwrap();
        assert_eq!(tick_via_obs(&mut net, me, host_ep, chain, word, &client_obs).unwrap(), (1, total));
    }
    let gap = sender.pay(20).unwrap();
    assert_eq!(tick_via_obs(&mut net, me, host_ep, chain, gap, &client_obs).unwrap(), (20, 30));
    let batch: Vec<Payword> = (0..6).map(|_| sender.pay(3).unwrap()).collect();
    for gained in [18, 0] {
        let acked = tick_batch_via_obs(&mut net, me, host_ep, chain, batch.clone(), &client_obs);
        assert_eq!(acked.unwrap(), (gained, 48));
    }
    assert_eq!(tick_via_obs(&mut net, me, host_ep, chain, first, &client_obs).unwrap(), (0, 48));
    acked_ticks += 10 + 1 + 6 + 6 + 1;
    acked_dispatches += 10 + 1 + 2 + 1;

    let hashes = host.borrow().receiver(&chain).unwrap().hashes();
    let samples = host_metrics.histogram("micropay.tick_verify_hashes");
    assert_eq!(samples.sum_nanos(), hashes, "histogram total = the receiver's hash counter");
    assert_eq!(samples.count(), acked_dispatches);
    assert!((11..48).contains(&hashes), "skip-verification, not a walk: {hashes} hashes");

    // Refusals: forged, over capacity, unknown chain. Each is a rejection
    // and a failed span, none is a tick or a histogram sample — the
    // forged word's hash work shows on the receiver alone.
    let forged = Payword { index: 60, word: [0xAB; 32] };
    let over = Payword { index: 257, word: first.word };
    assert!(tick_via_obs(&mut net, me, host_ep, chain, forged, &client_obs).is_err());
    assert!(tick_via_obs(&mut net, me, host_ep, chain, over, &client_obs).is_err());
    assert!(tick_via_obs(&mut net, me, host_ep, ChainId([9; 32]), first, &client_obs).is_err());
    assert_eq!(samples.sum_nanos(), hashes);
    assert!(host.borrow().receiver(&chain).unwrap().hashes() > hashes);

    let report = host_metrics.report();
    assert_eq!(report.counters.get("micropay.opens").copied(), Some(1));
    assert_eq!(report.counters.get("micropay.ticks").copied(), Some(acked_ticks));
    assert_eq!(report.counters.get("micropay.units").copied(), Some(48));
    assert_eq!(report.counters.get("micropay.rejections").copied(), Some(3));
    let row = host_metrics.op_snapshot(Role::Peer, OpKind::MicropayTick);
    assert_eq!((row.count, row.errors), (acked_dispatches + 3, 3));

    // Every traced exchange: the host's dispatch span is the root of a
    // trace of its own. A trace ends at the endpoint, so nothing the
    // caller drew reaches the served side.
    let calls = client_events.events();
    let dispatches = host_events.events();
    assert_eq!(calls.len(), dispatches.len());
    for (call, dispatch) in calls.iter().zip(&dispatches) {
        let (caller, served) = (call.trace.unwrap(), dispatch.trace.unwrap());
        assert_eq!(served.parent_span_id, 0, "a served span is a root");
        assert_ne!(served.trace_id, caller.trace_id);
        assert_ne!(served.span_id, caller.span_id);
        assert_eq!(dispatch.op, call.op);
        assert_eq!(dispatch.messages, 0, "server spans carry no traffic");
        assert_eq!(call.messages, 2);
    }
    let batches: Vec<_> = dispatches.iter().filter_map(|e| e.batch).collect();
    assert_eq!(batches, [6, 6]);
    let refused: Vec<_> = dispatches.iter().filter_map(|e| e.detail.clone()).collect();
    assert_eq!(refused.len(), 3);
    assert_eq!(refused[0], whopay::core::CoreError::BadSignature.to_string());
}

/// Every frame the relays carried: each request with the reply it got.
type Carried = Rc<RefCell<Vec<(Vec<u8>, Vec<u8>)>>>;

/// All the wire shows of one run: the global, per-endpoint and per-kind
/// counts, and every frame a server was sent and answered with.
struct Wire {
    stats: TrafficStats,
    endpoints: Vec<TrafficStats>,
    breakdown: TrafficBreakdown,
    carried: Vec<(Vec<u8>, Vec<u8>)>,
}

/// What observes a run: the clients' recorder, and the flight recorder of
/// the served side (every shard, peer and micropay-host endpoint, and the
/// network's own delivery events).
#[derive(Default)]
struct Observers {
    client: Arc<MemoryRecorder>,
    served: Arc<FlightRecorder>,
}

/// One seeded history on a 4-shard broker over the network: purchase →
/// issue → transfer → renewal → deposit of one coin; a downtime transfer
/// of a second coin, its binding proof and the owner's sync; open → tick
/// → tick batch → redeem of a PayWord chain. Each server sits behind a
/// relay that records what it carried. With `observers`, a tracer and a
/// metrics registry ride on every endpoint, every client call and the
/// network; without, every context is disabled.
fn history(observers: Option<&Observers>) -> Wire {
    const SHARDS: usize = 4;
    let traced =
        |recorder: Arc<dyn Recorder>| Obs::new(Tracer::new(recorder), Arc::new(Metrics::new()));
    let (obs, served_obs) = match observers {
        Some(o) => (traced(o.client.clone()), traced(o.served.clone())),
        None => (Obs::disabled(), Obs::disabled()),
    };
    let mut rng = test_rng(0x0B5E);
    let params = SystemParams::new(tiny_group().clone());
    let group = params.group().clone();
    let mut judge = Judge::new(group.clone(), &mut rng);
    let gpk = judge.public_key().clone();
    let broker = Arc::new(ShardedBroker::new(params.clone(), gpk.clone(), SHARDS, &mut rng));
    let mut peer = |id: u64, rng: &mut rand::rngs::StdRng| {
        let gk = judge.enroll(PeerId(id), rng);
        let p =
            Peer::new(PeerId(id), params.clone(), broker.public_key().clone(), gpk.clone(), gk, rng);
        broker.register_peer(PeerId(id), p.public_key().clone());
        p
    };
    let (owner, mut payer, mut payee) = (peer(0, &mut rng), peer(1, &mut rng), peer(2, &mut rng));
    let sender_key = judge.enroll(PeerId(3), &mut rng);

    let mut net = Network::new();
    install_wire_classifier(&mut net);
    net.set_obs(served_obs.clone());
    let (clk, sclk) = (clock(Timestamp(0)), shared_clock(Timestamp(0)));
    let mut ids =
        attach_shard_endpoints_obs(&mut net, broker.clone(), sclk.clone(), 7, served_obs.clone());
    let owner = Rc::new(RefCell::new(owner));
    ids.push(attach_peer_obs(&mut net, owner.clone(), clk.clone(), 8, served_obs.clone()));
    let host = Rc::new(RefCell::new(MicropayHost::new(group.clone(), gpk.clone(), 16)));
    ids.push(attach_micropay_host_obs(&mut net, host.clone(), served_obs));
    let carried = Carried::default();
    let relays: Vec<EndpointId> = ids
        .clone()
        .into_iter()
        .map(|server| {
            let src = attach_client(&mut net, "relay-src");
            let carried = carried.clone();
            ids.push(src);
            net.register_writer("relay", move |net, request, out| {
                net.request_into(src, server, request, out).expect("the relay reaches its server");
                carried.borrow_mut().push((request.to_vec(), out.clone()));
            })
        })
        .collect();
    ids.extend(&relays);
    let (shard_eps, owner_ep, host_ep) = (&relays[..SHARDS], relays[SHARDS], relays[SHARDS + 1]);
    let [owner_me, payer_me, payee_me, sender_me, host_me] =
        ["owner", "payer", "payee", "sender", "host"].map(|name| attach_client(&mut net, name));
    ids.extend([owner_me, payer_me, payee_me, sender_me, host_me]);
    let shard_of = |coin| shard_eps[broker.shard_of_coin(&coin)];

    let now = Timestamp(0);
    let buy = |net: &mut Network, rng: &mut rand::rngs::StdRng| {
        let mut owner = owner.borrow_mut();
        let mode = PurchaseMode::Identified;
        purchase_via_obs(net, owner_me, shard_eps[0], &mut owner, mode, now, rng, &obs).expect("buy")
    };
    let coin = buy(&mut net, &mut rng);
    let (invite, session) = payer.begin_receive(&mut rng);
    let grant = request_issue_via_obs(&mut net, payer_me, owner_ep, coin, &invite, &obs).unwrap();
    payer.accept_grant(grant, session, now).unwrap();
    let (invite, session) = payee.begin_receive(&mut rng);
    let request = payer.request_transfer(coin, &invite, &mut rng).unwrap();
    let grant = request_transfer_via_obs(&mut net, payer_me, owner_ep, request, false, &obs).unwrap();
    payee.accept_grant(grant, session, now).unwrap();
    payer.complete_transfer(coin);
    clk.set(Timestamp(100));
    sclk.store(100, Ordering::SeqCst);
    let request = payee.request_renewal(coin, &mut rng).unwrap();
    let renewed = request_renewal_via_obs(&mut net, payee_me, owner_ep, request, false, &obs).unwrap();
    payee.apply_renewal(coin, renewed).unwrap();
    let request = payee.request_deposit(coin, &mut rng).unwrap();
    deposit_via_obs(&mut net, payee_me, shard_of(coin), request, &obs).unwrap();
    payee.complete_deposit(coin);

    let coin = buy(&mut net, &mut rng);
    let (invite, session) = payer.begin_receive(&mut rng);
    let grant = request_issue_via_obs(&mut net, payer_me, owner_ep, coin, &invite, &obs).unwrap();
    payer.accept_grant(grant, session, now).unwrap();
    let (invite, session) = payee.begin_receive(&mut rng);
    let request = payer.request_transfer(coin, &invite, &mut rng).unwrap();
    let grant = request_transfer_via_obs(&mut net, payer_me, shard_of(coin), request, true, &obs)
        .expect("downtime transfer");
    payee.accept_grant(grant, session, now).unwrap();
    payer.complete_transfer(coin);
    binding_proof_via_obs(&mut net, payee_me, shard_of(coin), coin, &obs).expect("proof");
    sync_via_obs(&mut net, owner_me, shard_eps[1], &mut owner.borrow_mut(), &mut rng, &obs)
        .expect("sync");

    let (mut sender, commitment) = MicropaySender::open(&group, &gpk, &sender_key, 64, 8, &mut rng);
    let chain = open_chain_via_obs(&mut net, sender_me, host_ep, commitment, &obs).expect("open");
    let word = sender.pay(1).unwrap();
    assert_eq!(tick_via_obs(&mut net, sender_me, host_ep, chain, word, &obs).unwrap(), (1, 1));
    let batch: Vec<Payword> = (0..4).map(|_| sender.pay(2).unwrap()).collect();
    let acked = tick_batch_via_obs(&mut net, sender_me, host_ep, chain, batch, &obs);
    assert_eq!(acked.unwrap(), (8, 9));
    let request = host.borrow().receiver(&chain).expect("open chain").redeem_request();
    let receipt = redeem_chain_via_obs(&mut net, host_me, shard_eps[2], request, &obs).unwrap();
    assert_eq!(receipt.total, 9);

    let carried = carried.take();
    Wire {
        stats: net.stats(),
        endpoints: ids.iter().map(|&id| net.endpoint_stats(id)).collect(),
        breakdown: net.breakdown().clone(),
        carried,
    }
}

/// Tracing and metrics on every endpoint, every client call and the
/// network leave the wire as it is without them: the same global,
/// per-endpoint and per-kind counts, and every request and response the
/// same bytes.
#[test]
fn observing_a_run_changes_no_byte_on_the_wire() {
    let observers = Observers::default();
    let plain = history(None);
    let observed = history(Some(&observers));
    assert!(!observers.client.events().is_empty() && !observers.served.is_empty(), "observed");
    assert_eq!(observed.stats, plain.stats, "global traffic");
    assert_eq!(observed.endpoints, plain.endpoints, "per-endpoint traffic");
    assert_eq!(observed.breakdown, plain.breakdown, "per-kind traffic");
    assert_eq!(observed.carried.len(), plain.carried.len(), "exchanges carried");
    for (i, (seen, unseen)) in observed.carried.iter().zip(&plain.carried).enumerate() {
        assert_eq!(seen.0, unseen.0, "request {i}");
        assert_eq!(seen.1, unseen.1, "response {i}");
    }
}

/// A trace ends at the endpoint. No id a traced client drew — trace,
/// span or parent — appears in a served-side event, the flight dump or
/// the Chrome trace of a traced 4-shard broker, peer and micropay host,
/// and every served span is a root: a broker cannot invert the ids it
/// sees to group one client's requests.
#[test]
fn no_id_the_client_drew_reaches_the_served_side() {
    let observers = Observers::default();
    history(Some(&observers));
    let drawn: BTreeSet<u64> = observers
        .client
        .events()
        .iter()
        .filter_map(|event| event.trace)
        .flat_map(|t| [t.trace_id, t.span_id, t.parent_span_id])
        .filter(|&id| id != 0)
        .collect();
    assert_eq!(drawn.len(), 2 * 14, "each of the 14 calls drew a trace id and a span id");

    let served = observers.served.snapshot();
    let dispatched = served.iter().filter(|event| event.trace.is_some());
    assert!(served.iter().any(|event| event.role == Role::Broker && event.trace.is_some()));
    for event in dispatched {
        let t = event.trace.unwrap();
        assert_eq!(t.parent_span_id, 0, "a served span is a root: {event:?}");
        assert!(!drawn.contains(&t.trace_id) && !drawn.contains(&t.span_id), "{event:?}");
    }
    let exports = [observers.served.dump_jsonl(), chrome_trace(&served)];
    for id in &drawn {
        let hex = format!("{id:016x}");
        assert!(exports.iter().all(|export| !export.contains(&hex)), "{hex} reached the served side");
    }
}
