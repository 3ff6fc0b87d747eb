//! Retried calls through `service::retry`: every operation the retry
//! entry point serves, resent after its first reply is lost or damaged.
//!
//! Each case puts a relaying endpoint in front of the real server. The
//! relay records every request frame it forwards, which is what the
//! server saw, and can damage a reply on its way back. A resend is safe
//! only because it is the byte-identical request the server's replay
//! memo answers, so each case asserts the frames, the server's books and
//! the policy's counters.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use whopay_core::micropay::{MicropayHost, MicropaySender};
use whopay_core::service::{
    self, attach_client, attach_micropay_host, attach_peer, attach_shard_endpoints, clock,
    open_chain_via, purchase_via, request_issue_via, request_transfer_via, retry, shared_clock,
    tick_via, Clock, SharedClock,
};
use whopay_core::wire::Response;
use whopay_core::{Judge, Peer, PeerId, PurchaseMode, ShardedBroker, SystemParams, Timestamp};
use whopay_crypto::group_sig::{GroupMemberKey, GroupPublicKey};
use whopay_crypto::testing::{test_rng, tiny_group};
use whopay_net::{
    EndpointId, FaultInjector, FaultKind, FaultPlan, FaultRates, Network, RetryPolicy, RetryStats,
};
use whopay_obs::{MemoryRecorder, Obs, Tracer};

/// The frames a relay forwarded, in order.
type Frames = Rc<RefCell<Vec<Vec<u8>>>>;

struct World {
    net: Network,
    params: SystemParams,
    broker: Arc<ShardedBroker>,
    broker_ep: EndpointId,
    owner: Rc<RefCell<Peer>>,
    owner_ep: EndpointId,
    host: Rc<RefCell<MicropayHost>>,
    host_ep: EndpointId,
    payer: Peer,
    payee: Peer,
    gpk: GroupPublicKey,
    /// The member key a micropayment sender signs its chain with.
    sender_key: GroupMemberKey,
    client: EndpointId,
    clk: Clock,
    sclk: SharedClock,
    policy: RetryPolicy,
    rng: rand::rngs::StdRng,
    /// What the relay of the call under test forwarded to its server.
    frames: Frames,
    /// What the call under test is observed with.
    obs: Obs,
}

fn world(seed: u64) -> World {
    let mut rng = test_rng(seed);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let gpk = judge.public_key().clone();
    let broker = Arc::new(ShardedBroker::new(params.clone(), gpk.clone(), 1, &mut rng));
    let mut mk = |id: u64, rng: &mut rand::rngs::StdRng| {
        let gk = judge.enroll(PeerId(id), rng);
        let p =
            Peer::new(PeerId(id), params.clone(), broker.public_key().clone(), gpk.clone(), gk, rng);
        broker.register_peer(PeerId(id), p.public_key().clone());
        p
    };
    let (owner, payer, payee) = (mk(0, &mut rng), mk(1, &mut rng), mk(2, &mut rng));
    let sender_key = judge.enroll(PeerId(3), &mut rng);

    let mut net = Network::new();
    let clk = clock(Timestamp(0));
    let sclk = shared_clock(Timestamp(0));
    let broker_ep = attach_shard_endpoints(&mut net, broker.clone(), sclk.clone(), 1000 + seed)[0];
    let owner = Rc::new(RefCell::new(owner));
    let owner_ep = attach_peer(&mut net, owner.clone(), clk.clone(), 2000 + seed);
    let host = Rc::new(RefCell::new(MicropayHost::new(params.group().clone(), gpk.clone(), 16)));
    let host_ep = attach_micropay_host(&mut net, host.clone());
    let client = attach_client(&mut net, "client");
    World {
        net,
        params,
        broker,
        broker_ep,
        owner,
        owner_ep,
        host,
        host_ep,
        payer,
        payee,
        gpk,
        sender_key,
        client,
        clk,
        sclk,
        policy: RetryPolicy::new(4),
        rng,
        frames: Frames::default(),
        obs: Obs::disabled(),
    }
}

impl World {
    /// Registers a relay in front of `server` that records each request
    /// frame it forwards and, when `damage_first_reply`, flips the last
    /// bit of the first reply it carries back.
    fn relay(&mut self, server: EndpointId, damage_first_reply: bool) -> EndpointId {
        let src = attach_client(&mut self.net, "relay-src");
        let frames = self.frames.clone();
        self.net.register_writer("relay", move |net, request, out| {
            frames.borrow_mut().push(request.to_vec());
            net.request_into(src, server, request, out).expect("relay reaches the server");
            if damage_first_reply && frames.borrow().len() == 1 {
                *out.last_mut().expect("a reply") ^= 1;
                assert!(Response::decode(out).is_ok(), "the damaged reply still decodes");
            }
        })
    }

    /// A relay in front of `server` whose first delivery times out: the
    /// request is delivered and applied, its reply lost. Nothing after it
    /// is faulted (the relay's own hop to the server is delivery 1, the
    /// resend delivery 2).
    fn relay_losing_first_reply(&mut self, server: EndpointId) -> EndpointId {
        let relay = self.relay(server, false);
        let rates = FaultRates { timeout: 0.5, ..FaultRates::default() };
        let plan = FaultPlan::new().link(self.client, relay, rates);
        let seed = (0..u64::MAX)
            .find(|&seed| {
                let mut injector = FaultInjector::new(plan.clone(), seed);
                injector.decide_event(0, self.client, relay, None) == Some(FaultKind::Timeout)
                    && injector.decide_event(2, self.client, relay, None).is_none()
            })
            .expect("some seed times out only the first attempt");
        self.net.install_faults(FaultInjector::new(plan, seed));
        relay
    }

    /// The call under test was made twice, with the identical bytes, and
    /// once only as far as the policy is concerned.
    fn assert_resent_once(&mut self, op: &str) {
        let frames = self.frames.borrow();
        assert_eq!(frames.len(), 2, "{op}: the server saw two frames");
        assert_eq!(frames[0], frames[1], "{op}: the resend is byte-identical");
        let stats = self.policy.stats();
        let expect = RetryStats { calls: 1, attempts: 2, retries: 1, successes: 1, ..stats };
        assert_eq!(stats, expect, "{op}: one call, retried once");
    }

    fn set_now(&mut self, now: u64) {
        self.clk.set(Timestamp(now));
        self.sclk.store(now, Ordering::SeqCst);
    }

    /// A coin the owner bought over the wire, fault-free.
    fn bought(&mut self) -> whopay_core::CoinId {
        let mut owner = self.owner.borrow_mut();
        purchase_via(
            &mut self.net,
            self.client,
            self.broker_ep,
            &mut owner,
            PurchaseMode::Identified,
            Timestamp(0),
            &mut self.rng,
        )
        .expect("purchase")
    }

    /// A coin the payer holds, issued to it by its owner.
    fn held_by_payer(&mut self) -> whopay_core::CoinId {
        let coin = self.bought();
        let (invite, session) = self.payer.begin_receive(&mut self.rng);
        let grant =
            request_issue_via(&mut self.net, self.client, self.owner_ep, coin, &invite).unwrap();
        self.payer.accept_grant(grant, session, Timestamp(0)).expect("payer accepts");
        coin
    }

    /// A coin the payee holds, transferred to it by the payer.
    fn held_by_payee(&mut self) -> whopay_core::CoinId {
        let coin = self.held_by_payer();
        let (invite, session) = self.payee.begin_receive(&mut self.rng);
        let request = self.payer.request_transfer(coin, &invite, &mut self.rng).unwrap();
        let grant =
            request_transfer_via(&mut self.net, self.client, self.owner_ep, request, false).unwrap();
        self.payee.accept_grant(grant, session, Timestamp(0)).expect("payee accepts");
        self.payer.complete_transfer(coin);
        coin
    }

    fn owner_seq(&self, coin: &whopay_core::CoinId) -> u64 {
        self.owner.borrow().owned_coin(coin).expect("owner owns the coin").binding.seq()
    }
}

fn purchase(w: &mut World) {
    let relay = w.relay_losing_first_reply(w.broker_ep);
    let coin = {
        let mut owner = w.owner.borrow_mut();
        let purchase = service::purchase(&mut owner, PurchaseMode::Identified, Timestamp(0));
        retry(&mut w.net, w.client, relay, purchase, &w.policy, &mut w.rng, &w.obs)
            .expect("retried purchase")
    };
    assert!(w.owner.borrow().owned_coin(&coin).is_some(), "the owner holds the coin");
    assert_eq!((w.broker.stats().purchases, w.broker.stats().replays), (1, 1), "minted once");
}

fn issue(w: &mut World) {
    let coin = w.bought();
    let (invite, session) = w.payer.begin_receive(&mut w.rng);
    let relay = w.relay_losing_first_reply(w.owner_ep);
    let issue = service::issue(coin, &invite);
    let grant = retry(&mut w.net, w.client, relay, issue, &w.policy, &mut w.rng, &w.obs)
        .expect("retried issue");
    w.payer.accept_grant(grant, session, Timestamp(0)).expect("payer accepts the replayed grant");
    assert_eq!(w.owner_seq(&coin), 1, "issued once");
}

fn transfer(w: &mut World) {
    let coin = w.held_by_payer();
    let (invite, session) = w.payee.begin_receive(&mut w.rng);
    let request = w.payer.request_transfer(coin, &invite, &mut w.rng).unwrap();
    let relay = w.relay_losing_first_reply(w.owner_ep);
    let transfer = service::transfer(request, false);
    let grant = retry(&mut w.net, w.client, relay, transfer, &w.policy, &mut w.rng, &w.obs)
        .expect("retried transfer");
    w.payee.accept_grant(grant, session, Timestamp(0)).expect("payee accepts the replayed grant");
    assert_eq!(w.owner_seq(&coin), 2, "transferred once");
}

fn renewal(w: &mut World) {
    let coin = w.held_by_payee();
    w.set_now(100);
    let request = w.payee.request_renewal(coin, &mut w.rng).unwrap();
    let relay = w.relay_losing_first_reply(w.owner_ep);
    let renewal = service::renewal(request, false);
    let renewed = retry(&mut w.net, w.client, relay, renewal, &w.policy, &mut w.rng, &w.obs)
        .expect("retried renewal");
    w.payee.apply_renewal(coin, renewed).expect("payee applies the replayed binding");
    assert_eq!(w.owner_seq(&coin), 3, "renewed once");
}

fn deposit(w: &mut World) {
    let coin = w.held_by_payer();
    let request = w.payer.request_deposit(coin, &mut w.rng).unwrap();
    let relay = w.relay_losing_first_reply(w.broker_ep);
    let deposit = service::deposit(request);
    let receipt = retry(&mut w.net, w.client, relay, deposit, &w.policy, &mut w.rng, &w.obs)
        .expect("retried deposit");
    assert_eq!(receipt.coin, coin);
    assert_eq!((w.broker.stats().deposits, w.broker.stats().replays), (1, 1), "credited once");
}

fn binding_proof(w: &mut World) {
    let coin = w.bought();
    let before = w.broker.stats();
    let relay = w.relay_losing_first_reply(w.broker_ep);
    let proof = service::binding_proof(coin);
    let proof = retry(&mut w.net, w.client, relay, proof, &w.policy, &mut w.rng, &w.obs)
        .expect("retried proof");
    assert_eq!(proof.leaf.coin, coin);
    proof.verify(w.params.group(), w.broker.public_key()).expect("proof verifies");
    assert_eq!(w.broker.stats(), before, "a proof is read-only");
}

/// A chain the sender commits to, and the sender that pays down it.
fn chain(w: &mut World) -> (MicropaySender, whopay_core::micropay::ChainCommitment) {
    MicropaySender::open(w.params.group(), &w.gpk, &w.sender_key, 64, 8, &mut w.rng)
}

fn open_chain(w: &mut World) {
    let (_, commitment) = chain(w);
    let relay = w.relay_losing_first_reply(w.host_ep);
    let open = service::open_chain(commitment.clone());
    let id =
        retry(&mut w.net, w.client, relay, open, &w.policy, &mut w.rng, &w.obs).expect("retried open");
    assert_eq!(id, commitment.chain_id());
    assert_eq!(w.host.borrow().receiver(&id).expect("open chain").total(), 0, "opened once");
}

fn redeem_chain(w: &mut World) {
    let (mut sender, commitment) = chain(w);
    let id = open_chain_via(&mut w.net, w.client, w.host_ep, commitment).expect("open");
    for _ in 0..20 {
        let word = sender.pay(1).expect("within capacity");
        tick_via(&mut w.net, w.client, w.host_ep, id, word).expect("tick");
    }
    let request = w.host.borrow().receiver(&id).expect("open chain").redeem_request();
    let relay = w.relay_losing_first_reply(w.broker_ep);
    let redeem = service::redeem_chain(request);
    let receipt = retry(&mut w.net, w.client, relay, redeem, &w.policy, &mut w.rng, &w.obs)
        .expect("retried redemption");
    assert_eq!((receipt.chain, receipt.total), (id, 20));
    let stats = w.broker.stats();
    assert_eq!((stats.redemptions, stats.replays), (1, 1), "redeemed once");
    assert_eq!(w.broker.settled_micropay_value(), 20, "settled once");
}

/// Each operation is made by an untraced client and by a traced one.
/// Traced, each attempt is a span, the resend a child of the attempt it
/// replaces; either way the server sees the byte-identical frame twice,
/// because no trace context rides on a request.
#[test]
fn every_operation_is_applied_once_when_its_first_reply_times_out() {
    type Case = (&'static str, fn(&mut World));
    let cases: [Case; 8] = [
        ("purchase", purchase),
        ("issue", issue),
        ("transfer", transfer),
        ("renewal", renewal),
        ("deposit", deposit),
        ("binding proof", binding_proof),
        ("open chain", open_chain),
        ("redeem chain", redeem_chain),
    ];
    for (i, (op, case)) in cases.into_iter().enumerate() {
        let recorder = Arc::new(MemoryRecorder::new());
        for obs in [Obs::disabled(), Obs::with_tracer(Tracer::new(recorder.clone()))] {
            let mut w = world(0x5E7 + i as u64);
            w.obs = obs;
            case(&mut w);
            w.assert_resent_once(op);
            let injector = w.net.clear_faults().expect("faults installed");
            let kinds: Vec<_> = injector.history().iter().map(|fault| fault.kind).collect();
            assert_eq!(kinds, [FaultKind::Timeout], "{op}: only the first attempt timed out");
            let attempts = recorder.take();
            assert_eq!(attempts.len(), if w.obs.enabled() { 2 } else { 0 }, "{op}: spans");
            if let [first, resend] = &attempts[..] {
                let (first_ctx, resend_ctx) = (first.trace.unwrap(), resend.trace.unwrap());
                assert_eq!(resend_ctx.parent_span_id, first_ctx.span_id, "{op}: resend replaces first");
                assert_eq!(resend.retry.map(|r| (r.attempt, r.after)), Some((1, "timed out")), "{op}");
            }
        }
    }
}

/// The broker mints, and the `Minted` reply comes back with its last bit
/// flipped: it still decodes, but the broker's signature no longer
/// verifies. The purchase is checked inside the attempt, so the intact
/// request is resent and answered from the broker's replay memo, and the
/// coin the broker minted reaches the wallet.
#[test]
fn a_purchase_whose_minted_reply_is_damaged_is_resent_and_keeps_its_coin() {
    let mut w = world(0xD1);
    let relay = w.relay(w.broker_ep, true);
    let coin = {
        let mut owner = w.owner.borrow_mut();
        let purchase = service::purchase(&mut owner, PurchaseMode::Identified, Timestamp(0));
        retry(&mut w.net, w.client, relay, purchase, &w.policy, &mut w.rng, &w.obs)
    };
    let coin = coin.expect("the resend collects the minted coin");
    assert!(w.owner.borrow().owned_coin(&coin).is_some(), "the owner holds the coin");
    assert_eq!(w.broker.stats().purchases, 1, "the broker minted exactly one coin");
    assert_eq!(w.policy.stats().retries, 1, "one resend");
    w.assert_resent_once("damaged purchase");
}
