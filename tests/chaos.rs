//! Chaos harness: full coin lifecycles under a seeded fault schedule.
//!
//! The network drops, duplicates, corrupts, and times out deliveries
//! (each at a few percent), severs one link for a partition window, and
//! the broker crashes and recovers from its journal mid-run. Clients go
//! through the retry-wrapped service helpers, so every resend is the
//! byte-identical request the server-side replay memos key on.
//!
//! Invariants checked:
//! * **Value is conserved** — every minted coin is either deposited
//!   exactly once or still circulating; broker-side counters agree with
//!   the client-side ledger.
//! * **No double deposits** — zero fraud cases: idempotent replays are
//!   answered from memos, never double-applied.
//! * **Crash recovery is exact** — [`Broker::recover`] replays the
//!   journal (round-tripped through bytes) to a broker whose snapshot
//!   and stats equal the pre-crash broker field by field.
//! * **Every accepted payment is eventually depositable** — after the
//!   fault injector is removed, every coin a payee accepted (and every
//!   coin stranded with the payer by an abandoned transfer) deposits.
//!
//! The default seed is pinned; override with `WHOPAY_CHAOS_SEED=n` to
//! explore other schedules.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use whopay::core::micropay::{MicropayHost, MicropaySender};
use whopay::core::service::{
    self, attach_client, attach_micropay_host, attach_peer, attach_shard_endpoints,
    attach_shard_endpoints_obs, clock, install_wire_classifier, redeem_chain_via, retry, shared_clock,
    surface_recovery_violations, tick_via, SharedClock,
};
use whopay::core::wire::{Request, Response};
use whopay::core::{
    dsd, shard_of_chain, Broker, CoinId, DepositRequest, Invariant, Journal, JournalOp, Judge, Peer,
    PeerId, PurchaseMode, ShardedBroker, StateRecord, SystemParams, Timestamp,
};
use whopay::crypto::dsa::DsaKeyPair;
use whopay::crypto::group_sig::GroupPublicKey;
use whopay::crypto::testing::{test_rng, tiny_group};
use whopay::dht::{Dht, DhtConfig, RingId};
use whopay::net::{
    EndpointId, FaultInjector, FaultPlan, FaultRates, Network, RetryPolicy, TamperInjector, TamperPlan,
    TamperTarget,
};
use whopay::obs::{install_panic_hook, FlightRecorder, Obs, Outcome, Tracer};

const LIFECYCLES: u64 = 24;
const CHECKPOINT_AT: u64 = 5;
const CRASH_AT: u64 = 11;

fn chaos_seed() -> u64 {
    std::env::var("WHOPAY_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC4A05)
}

struct ChaosWorld {
    net: Network,
    /// One shard: this run's broker is not partitioned.
    broker: Arc<ShardedBroker>,
    broker_ep: EndpointId,
    owner: Rc<RefCell<Peer>>,
    owner_ep: EndpointId,
    payer: Peer,
    payer_ep: EndpointId,
    payee: Peer,
    payee_ep: EndpointId,
    clk: whopay::core::service::Clock,
    /// The broker's clock.
    sclk: SharedClock,
    rng: rand::rngs::StdRng,
}

fn chaos_world(seed: u64) -> ChaosWorld {
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
    broker.enable_journals();

    let mut net = Network::new();
    install_wire_classifier(&mut net);
    let clk = clock(Timestamp(0));
    let sclk = shared_clock(Timestamp(0));
    let broker_ep = attach_shard_endpoints(&mut net, broker.clone(), sclk.clone(), 1000 + seed)[0];
    let owner = Rc::new(RefCell::new(owner));
    let owner_ep = attach_peer(&mut net, owner.clone(), clk.clone(), 2000 + seed);
    let payer_ep = attach_client(&mut net, "payer");
    let payee_ep = attach_client(&mut net, "payee");

    // The fault schedule: every delivery is at risk, and the payee–broker
    // link (the deposit path) is severed for one delivery window.
    let plan = FaultPlan::new()
        .with_default(FaultRates { drop: 0.02, duplicate: 0.02, corrupt: 0.02, timeout: 0.02 })
        .partition(payee_ep, broker_ep, 40, 80);
    net.install_faults(FaultInjector::new(plan, seed ^ 0xFA17));

    ChaosWorld {
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

/// Which entity ended up holding a coin the run could not deposit yet.
#[allow(clippy::large_enum_variant)]
enum Stranded {
    /// The payee holds it (deposit abandoned — the original request is
    /// kept so the drain resends the identical bytes).
    Payee(CoinId, DepositRequest),
    /// The payer holds it (transfer or acceptance abandoned).
    Payer(CoinId),
}

#[test]
fn lifecycles_under_faults_conserve_value() {
    let seed = chaos_seed();
    let mut w = chaos_world(seed);
    let policy = RetryPolicy::new(8).backoff(10, 1_000).budget(100_000);
    // Clients run traced: every retry attempt chains under its failed
    // predecessor in the flight recorder, and if any assertion below
    // trips, the panic hook dumps the recorded run for the post-mortem.
    let flight = std::sync::Arc::new(FlightRecorder::new());
    install_panic_hook(&flight);
    let obs = Obs::with_tracer(Tracer::new(flight.clone()));

    let mut deposited: Vec<CoinId> = Vec::new();
    let mut stranded: Vec<Stranded> = Vec::new();

    for i in 0..LIFECYCLES {
        let now = Timestamp(100 * i);
        w.clk.set(now);
        w.sclk.store(now.0, Ordering::SeqCst);

        // Purchase: owner buys a coin from the broker.
        let coin = {
            let mut owner = w.owner.borrow_mut();
            match retry(
                &mut w.net,
                w.owner_ep,
                w.broker_ep,
                service::purchase(&mut owner, PurchaseMode::Identified, now),
                &policy,
                &mut w.rng,
                &obs,
            ) {
                Ok(coin) => coin,
                // An abandoned purchase may still have minted server-side;
                // conservation is asserted from broker state below.
                Err(_) => continue,
            }
        };

        // Issue: owner pays the payer.
        let (invite, session) = w.payer.begin_receive(&mut w.rng);
        let grant = match retry(
            &mut w.net,
            w.payer_ep,
            w.owner_ep,
            service::issue(coin, &invite),
            &policy,
            &mut w.rng,
            &obs,
        ) {
            Ok(grant) => grant,
            Err(_) => continue,
        };
        if w.payer.accept_grant(grant, session, now).is_err() {
            continue;
        }

        // Transfer: payer pays the payee via the owner.
        let (invite2, session2) = w.payee.begin_receive(&mut w.rng);
        let treq = w.payer.request_transfer(coin, &invite2, &mut w.rng).expect("payer holds");
        let transferred = match retry(
            &mut w.net,
            w.payer_ep,
            w.owner_ep,
            service::transfer(treq, false),
            &policy,
            &mut w.rng,
            &obs,
        ) {
            Ok(grant2) => w.payee.accept_grant(grant2, session2, now).is_ok(),
            Err(_) => false,
        };
        if !transferred {
            // The payer never relinquished: its binding still deposits.
            stranded.push(Stranded::Payer(coin));
            continue;
        }
        w.payer.complete_transfer(coin);

        // Every third lifecycle the payee renews before depositing.
        if i % 3 == 2 {
            let rreq = w.payee.request_renewal(coin, &mut w.rng).expect("payee holds");
            if let Ok(renewed) = retry(
                &mut w.net,
                w.payee_ep,
                w.owner_ep,
                service::renewal(rreq, false),
                &policy,
                &mut w.rng,
                &obs,
            ) {
                let _ = w.payee.apply_renewal(coin, renewed);
            }
        }

        // Deposit: built once so an abandoned attempt can be drained with
        // the identical bytes (and answered from the replay memo if the
        // broker already applied it).
        let dreq = w.payee.request_deposit(coin, &mut w.rng).expect("payee holds");
        match retry(
            &mut w.net,
            w.payee_ep,
            w.broker_ep,
            service::deposit(dreq.clone()),
            &policy,
            &mut w.rng,
            &obs,
        ) {
            Ok(receipt) => {
                assert_eq!(receipt.coin, coin);
                w.payee.complete_deposit(coin);
                deposited.push(coin);
            }
            Err(_) => stranded.push(Stranded::Payee(coin, dreq)),
        }

        if i == CHECKPOINT_AT {
            w.broker.checkpoint_journals();
            assert_eq!(
                w.broker.lock_shard(0).journal().unwrap().len(),
                1,
                "checkpoint folds the journal to one entry"
            );
        }
        if i == CRASH_AT {
            crash_and_recover_shard(&w.broker, 0);
        }
    }

    // The schedule really injected faults, and the retry layer really
    // absorbed some of them.
    let injector = w.net.clear_faults().expect("injector installed");
    let fstats = injector.stats();
    assert!(fstats.total() > 0, "no faults injected: {fstats:?}");
    assert!(fstats.partitions > 0, "partition window never hit: {fstats:?}");
    assert!(policy.stats().retries > 0, "no retries exercised: {:?}", policy.stats());

    // Fault-free drain: every accepted payment is eventually depositable.
    let now = Timestamp(100 * LIFECYCLES);
    w.clk.set(now);
    w.sclk.store(now.0, Ordering::SeqCst);
    for s in stranded {
        match s {
            Stranded::Payee(coin, dreq) => {
                let receipt = retry(
                    &mut w.net,
                    w.payee_ep,
                    w.broker_ep,
                    service::deposit(dreq),
                    &policy,
                    &mut w.rng,
                    &obs,
                )
                .expect("drained payee deposit");
                assert_eq!(receipt.coin, coin);
                w.payee.complete_deposit(coin);
                deposited.push(coin);
            }
            Stranded::Payer(coin) => {
                let dreq = w.payer.request_deposit(coin, &mut w.rng).expect("payer holds");
                let receipt = retry(
                    &mut w.net,
                    w.payer_ep,
                    w.broker_ep,
                    service::deposit(dreq),
                    &policy,
                    &mut w.rng,
                    &obs,
                )
                .expect("drained payer deposit");
                assert_eq!(receipt.coin, coin);
                w.payer.complete_deposit(coin);
                deposited.push(coin);
            }
        }
    }

    // Value conservation, from the broker's own books: every minted coin
    // is deposited exactly once or still circulating, the deposited set
    // matches the client-side ledger, and no fraud case was raised (the
    // only re-presentations were idempotent replays).
    let broker = w.broker.lock_shard(0);
    let stats = broker.stats();
    let coins: Vec<_> = broker
        .snapshot()
        .into_iter()
        .filter_map(|record| match record {
            StateRecord::Coin(coin) => Some(coin),
            _ => None,
        })
        .collect();
    let deposited_broker = coins.iter().filter(|s| s.deposited()).count();
    assert_eq!(coins.len() as u64, stats.purchases, "every mint has a record");
    assert_eq!(deposited_broker, deposited.len(), "broker and client ledgers agree");
    assert_eq!(stats.deposits as usize, deposited.len(), "each coin credited exactly once");
    let mut unique = deposited.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), deposited.len(), "no coin deposited twice");
    assert!(broker.fraud_cases().is_empty(), "replays must not raise fraud: {:?}", {
        broker.fraud_cases()
    });
    for coin in &deposited {
        assert!(!broker.is_circulating(coin), "deposited coin still circulating");
    }

    // The always-on auditor watched every committed mutation (including
    // the journal replay during the mid-run crash) and agrees.
    let audit = broker.audit();
    assert!(audit.ok(), "invariant auditor flagged violations: {:?}", audit.violations());
    assert_eq!(audit.minted(), stats.purchases, "auditor saw every mint");
    assert_eq!(audit.deposited(), stats.deposits, "auditor saw every deposit");

    // The traced run left a usable flight record: at least one retried
    // attempt chains under a failed predecessor span.
    let events = flight.snapshot();
    let retried = events.iter().find(|e| e.retry.is_some()).expect("faulted run records retries");
    let trace = retried.trace.expect("retried spans are traced");
    assert!(
        events.iter().any(|e| e.trace.is_some_and(|t| t.span_id == trace.parent_span_id)),
        "retry attempt's failed predecessor is in the flight record"
    );
}

// ---------------------------------------------------------------------------
// Sharded-broker chaos: the same lifecycle storm against a broker whose
// coin state is split across shards, including a mid-run crash of one
// shard and an injected cross-shard commit loss.
// ---------------------------------------------------------------------------

const SHARDS: usize = 3;
const CRASH_SHARD: usize = 1;

struct ShardedWorld {
    net: Network,
    sharded: Arc<ShardedBroker>,
    shard_eps: Vec<EndpointId>,
    owner: Rc<RefCell<Peer>>,
    owner_ep: EndpointId,
    payer: Peer,
    payer_ep: EndpointId,
    payee: Peer,
    payee_ep: EndpointId,
    clk: whopay::core::service::Clock,
    sclk: SharedClock,
    rng: rand::rngs::StdRng,
}

fn sharded_world(seed: u64, shards: usize) -> ShardedWorld {
    let mut rng = test_rng(seed);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let sharded =
        Arc::new(ShardedBroker::new(params.clone(), judge.public_key().clone(), shards, &mut rng));
    let mk = |id: u64, judge: &mut Judge, rng: &mut rand::rngs::StdRng| {
        let gk = judge.enroll(PeerId(id), rng);
        let p = Peer::new(
            PeerId(id),
            params.clone(),
            sharded.public_key().clone(),
            judge.public_key().clone(),
            gk,
            rng,
        );
        sharded.register_peer(PeerId(id), p.public_key().clone());
        p
    };
    let owner = mk(0, &mut judge, &mut rng);
    let payer = mk(1, &mut judge, &mut rng);
    let payee = mk(2, &mut judge, &mut rng);
    sharded.enable_journals();

    let mut net = Network::new();
    install_wire_classifier(&mut net);
    let clk = clock(Timestamp(0));
    let sclk = shared_clock(Timestamp(0));
    let shard_eps = attach_shard_endpoints(&mut net, sharded.clone(), sclk.clone(), 1000 + seed);
    let owner = Rc::new(RefCell::new(owner));
    let owner_ep = attach_peer(&mut net, owner.clone(), clk.clone(), 2000 + seed);
    let payer_ep = attach_client(&mut net, "payer");
    let payee_ep = attach_client(&mut net, "payee");

    // Same storm as the single-broker run; the severed link covers the
    // deposit path to shard 0.
    let plan = FaultPlan::new()
        .with_default(FaultRates { drop: 0.02, duplicate: 0.02, corrupt: 0.02, timeout: 0.02 })
        .partition(payee_ep, shard_eps[0], 40, 80);
    net.install_faults(FaultInjector::new(plan, seed ^ 0xFA17));

    ShardedWorld {
        net,
        sharded,
        shard_eps,
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

/// Crash one shard and rebuild it in place from its journal, asserting
/// the recovered shard equals the pre-crash shard field by field while
/// the other shards keep serving untouched.
fn crash_and_recover_shard(sharded: &ShardedBroker, s: usize) {
    let (pre_snapshot, pre_stats) = {
        let b = sharded.lock_shard(s);
        (b.snapshot(), b.stats())
    };
    let bytes = sharded.journal_bytes(s).expect("journalling enabled");
    let journal = Journal::from_bytes(&bytes).expect("shard journal decodes");
    sharded.recover_shard(s, &journal);
    let b = sharded.lock_shard(s);
    assert_eq!(b.snapshot(), pre_snapshot, "shard {s} recovery reconverges exactly");
    assert_eq!(b.stats(), pre_stats, "shard {s} counters survive recovery");
    assert_eq!(b.sig_cache().len(), 0, "shard recovery re-primes lazily, not during replay");
}

#[test]
fn sharded_lifecycles_survive_faults_and_shard_crash() {
    let seed = chaos_seed();
    let mut w = sharded_world(seed, SHARDS);
    let policy = RetryPolicy::new(8).backoff(10, 1_000).budget(100_000);
    let obs = Obs::disabled();

    let mut deposited: Vec<CoinId> = Vec::new();
    let mut stranded: Vec<Stranded> = Vec::new();

    for i in 0..LIFECYCLES {
        let now = Timestamp(100 * i);
        w.clk.set(now);
        w.sclk.store(now.0, Ordering::SeqCst);

        // Purchase: any shard endpoint accepts it — the router inside
        // the sharded broker locks the owning shard either way.
        let purchase_ep = w.shard_eps[(i as usize) % SHARDS];
        let coin = {
            let mut owner = w.owner.borrow_mut();
            match retry(
                &mut w.net,
                w.owner_ep,
                purchase_ep,
                service::purchase(&mut owner, PurchaseMode::Identified, now),
                &policy,
                &mut w.rng,
                &obs,
            ) {
                Ok(coin) => coin,
                Err(_) => continue,
            }
        };

        let (invite, session) = w.payer.begin_receive(&mut w.rng);
        let grant = match retry(
            &mut w.net,
            w.payer_ep,
            w.owner_ep,
            service::issue(coin, &invite),
            &policy,
            &mut w.rng,
            &obs,
        ) {
            Ok(grant) => grant,
            Err(_) => continue,
        };
        if w.payer.accept_grant(grant, session, now).is_err() {
            continue;
        }

        let (invite2, session2) = w.payee.begin_receive(&mut w.rng);
        let treq = w.payer.request_transfer(coin, &invite2, &mut w.rng).expect("payer holds");
        let transferred = match retry(
            &mut w.net,
            w.payer_ep,
            w.owner_ep,
            service::transfer(treq, false),
            &policy,
            &mut w.rng,
            &obs,
        ) {
            Ok(grant2) => w.payee.accept_grant(grant2, session2, now).is_ok(),
            Err(_) => false,
        };
        if !transferred {
            stranded.push(Stranded::Payer(coin));
            continue;
        }
        w.payer.complete_transfer(coin);

        // Deposit on the coin's *owning* shard endpoint: the router keeps
        // the request on an uncontended lock and the replay memo local.
        let dep_ep = w.shard_eps[w.sharded.shard_of_coin(&coin)];
        let dreq = w.payee.request_deposit(coin, &mut w.rng).expect("payee holds");
        match retry(
            &mut w.net,
            w.payee_ep,
            dep_ep,
            service::deposit(dreq.clone()),
            &policy,
            &mut w.rng,
            &obs,
        ) {
            Ok(receipt) => {
                assert_eq!(receipt.coin, coin);
                w.payee.complete_deposit(coin);
                deposited.push(coin);
            }
            Err(_) => stranded.push(Stranded::Payee(coin, dreq)),
        }

        if i == CHECKPOINT_AT {
            w.sharded.checkpoint_journals();
        }
        if i == CRASH_AT {
            crash_and_recover_shard(&w.sharded, CRASH_SHARD);
        }
    }

    let injector = w.net.clear_faults().expect("injector installed");
    let fstats = injector.stats();
    assert!(fstats.total() > 0, "no faults injected: {fstats:?}");
    assert!(policy.stats().retries > 0, "no retries exercised: {:?}", policy.stats());

    // Fault-free drain, routed by owning shard.
    let now = Timestamp(100 * LIFECYCLES);
    w.clk.set(now);
    w.sclk.store(now.0, Ordering::SeqCst);
    for s in stranded {
        match s {
            Stranded::Payee(coin, dreq) => {
                let dep_ep = w.shard_eps[w.sharded.shard_of_coin(&coin)];
                let receipt = retry(
                    &mut w.net,
                    w.payee_ep,
                    dep_ep,
                    service::deposit(dreq),
                    &policy,
                    &mut w.rng,
                    &obs,
                )
                .expect("drained payee deposit");
                assert_eq!(receipt.coin, coin);
                w.payee.complete_deposit(coin);
                deposited.push(coin);
            }
            Stranded::Payer(coin) => {
                let dep_ep = w.shard_eps[w.sharded.shard_of_coin(&coin)];
                let dreq = w.payer.request_deposit(coin, &mut w.rng).expect("payer holds");
                let receipt = retry(
                    &mut w.net,
                    w.payer_ep,
                    dep_ep,
                    service::deposit(dreq),
                    &policy,
                    &mut w.rng,
                    &obs,
                )
                .expect("drained payer deposit");
                assert_eq!(receipt.coin, coin);
                w.payer.complete_deposit(coin);
                deposited.push(coin);
            }
        }
    }

    // Value conservation across every shard's books: minted coins are
    // deposited exactly once or still circulating, no shard raised a
    // fraud case, and the aggregated auditors agree.
    let stats = w.sharded.stats();
    assert_eq!(stats.deposits as usize, deposited.len(), "each coin credited exactly once");
    let mut unique = deposited.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), deposited.len(), "no coin deposited twice");
    assert_eq!(w.sharded.total_minted(), stats.purchases, "auditors saw every mint");
    assert_eq!(w.sharded.total_deposited(), stats.deposits, "auditors saw every deposit");
    assert!(w.sharded.audit_ok(), "violations: {:?}", w.sharded.violations());
    for i in 0..SHARDS {
        let shard = w.sharded.lock_shard(i);
        assert!(shard.fraud_cases().is_empty(), "shard {i} raised fraud: {:?}", shard.fraud_cases());
    }
    for coin in &deposited {
        let shard = w.sharded.lock_shard(w.sharded.shard_of_coin(coin));
        assert!(!shard.is_circulating(coin), "deposited coin still circulating");
    }
    // The run genuinely exercised the sharding: the coin-key hash spread
    // traffic over more than one shard.
    let shards_touched: std::collections::BTreeSet<usize> =
        deposited.iter().map(|c| w.sharded.shard_of_coin(c)).collect();
    assert!(shards_touched.len() >= 2, "coins all hashed to one shard: {shards_touched:?}");
}

/// A four-shard journalling broker and a holder whose wallet has eight
/// coins in it, spread over at least two shards by the coin-id hash.
fn wallet_spanning_shards(seed: u64) -> (Arc<ShardedBroker>, Peer, Vec<CoinId>, rand::rngs::StdRng) {
    let mut rng = test_rng(seed);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let sharded = Arc::new(ShardedBroker::new(params.clone(), judge.public_key().clone(), 4, &mut rng));
    sharded.enable_journals();
    let mk = |id: u64, judge: &mut Judge, rng: &mut rand::rngs::StdRng| {
        let gk = judge.enroll(PeerId(id), rng);
        let p = Peer::new(
            PeerId(id),
            params.clone(),
            sharded.public_key().clone(),
            judge.public_key().clone(),
            gk,
            rng,
        );
        sharded.register_peer(PeerId(id), p.public_key().clone());
        p
    };
    let mut owner = mk(1, &mut judge, &mut rng);
    let mut holder = mk(2, &mut judge, &mut rng);

    let now = Timestamp(0);
    let coins: Vec<CoinId> = (0..8)
        .map(|_| {
            let (req, pending) = owner.create_purchase_request(PurchaseMode::Identified, &mut rng);
            let minted = sharded.handle_purchase(&req, &mut rng).unwrap();
            let coin = owner.complete_purchase(minted, pending, now, &mut rng).unwrap();
            let (invite, session) = holder.begin_receive(&mut rng);
            let grant = owner.issue_coin(coin, &invite, now, &mut rng).unwrap();
            holder.accept_grant(grant, session, now).unwrap();
            coin
        })
        .collect();
    let shards_touched: std::collections::BTreeSet<usize> =
        coins.iter().map(|c| sharded.shard_of_coin(c)).collect();
    assert!(shards_touched.len() >= 2, "coins must span shards: {shards_touched:?}");
    (sharded, holder, coins, rng)
}

#[test]
fn eight_deposits_spanning_shards_settle_in_one_drain_cycle() {
    // A holder with many coins to redeem submits one `Deposit` per coin,
    // each to its owning shard's endpoint, and drains once: every shard
    // prepares its own group, whatever the drain's worker count.
    for threads in [1, 2] {
        let seed = chaos_seed() ^ 0x10_57;
        let (sharded, holder, coins, mut rng) = wallet_spanning_shards(seed);
        let mut net = Network::new();
        net.set_drain_threads(threads);
        let shard_eps =
            attach_shard_endpoints(&mut net, sharded.clone(), shared_clock(Timestamp(0)), seed);
        let holder_ep = attach_client(&mut net, "holder");

        for &coin in &coins {
            let request = Request::Deposit(holder.request_deposit(coin, &mut rng).unwrap());
            net.submit(holder_ep, shard_eps[sharded.shard_of_coin(&coin)], request.encode());
        }
        let deliveries = net.drain();
        assert_eq!(deliveries.len(), coins.len());
        for (delivery, coin) in deliveries.into_iter().zip(&coins) {
            let reply = delivery.result.expect("no faults installed");
            match Response::decode(&reply).expect("reply decodes") {
                Response::Receipt(receipt) => assert_eq!(receipt.coin, *coin),
                other => panic!("{threads} drain thread(s): deposit answered {other:?}"),
            }
        }
        assert_eq!(sharded.stats().deposits, coins.len() as u64, "every deposit applied");
        assert_eq!(sharded.stats().rejections, 0);
        assert!(sharded.audit_ok(), "violations: {:?}", sharded.violations());
        for coin in &coins {
            let shard = sharded.lock_shard(sharded.shard_of_coin(coin));
            assert!(!shard.is_circulating(coin), "deposited coin still circulating");
        }
    }
}

#[test]
fn a_shard_violation_surfaces_once_and_dumps_flight() {
    let seed = chaos_seed() ^ 0x10_57;
    let (sharded, _holder, coins, _rng) = wallet_spanning_shards(seed);

    let mut net = Network::new();
    install_wire_classifier(&mut net);
    let flight = std::sync::Arc::new(FlightRecorder::new());
    let obs = Obs::with_tracer(Tracer::new(flight.clone()));
    let sclk = shared_clock(Timestamp(0));
    let shard_eps = attach_shard_endpoints_obs(&mut net, sharded.clone(), sclk, seed, obs.clone());
    let holder_ep = attach_client(&mut net, "holder");
    let surfaced = |flight: &FlightRecorder| -> Vec<String> {
        flight
            .snapshot()
            .iter()
            .filter(|e| e.outcome == Outcome::Error)
            .filter_map(|e| e.detail.clone())
            .filter(|d| d.contains("state_commitment"))
            .collect()
    };
    let mut dispatch_on = |ep: EndpointId| {
        let _ = whopay_core::service::binding_proof_via_obs(&mut net, holder_ep, ep, coins[0], &obs);
    };

    dispatch_on(shard_eps[0]);
    assert_eq!(surfaced(&flight).len(), 0, "a clean broker surfaces nothing");

    // A shard crashes and comes back from a journal whose last committed
    // root was tampered with: its own auditor records the mismatch during
    // replay and re-joins the shared violation count.
    let crash_with_forged_root = |shard: usize| {
        let bytes = sharded.journal_bytes(shard).expect("journalling enabled");
        let journal = Journal::from_bytes(&bytes).expect("shard journal decodes");
        let mut tampered = Journal::new();
        for mut entry in journal.entries().iter().cloned() {
            if Some(entry.seq) == journal.last_seq() {
                entry.root[0] ^= 1;
            }
            tampered.append(entry);
        }
        sharded.recover_shard(shard, &tampered);
    };
    // The higher-numbered shard first, then a lower one: the shards'
    // violations in shard order are not the order they were recorded in.
    let touched: std::collections::BTreeSet<usize> =
        coins.iter().map(|c| sharded.shard_of_coin(c)).collect();
    let (low, high) = (*touched.first().unwrap(), *touched.last().unwrap());
    crash_with_forged_root(high);
    let violations = sharded.violations();
    assert_eq!(violations.len(), 1, "one tampered entry, one violation: {violations:?}");
    assert_eq!(violations[0].invariant, Invariant::StateCommitment);
    assert!(!sharded.audit_ok(), "audit must fail after a forged journal");

    // The next dispatch — on another shard's endpoint — surfaces it as a
    // failed event, and the flight recorder holds the dump material.
    dispatch_on(shard_eps[(high + 1) % shard_eps.len()]);
    assert_eq!(surfaced(&flight).len(), 1, "violation event missing from flight record");

    crash_with_forged_root(low);
    let violations = sharded.violations();
    assert_eq!(violations.len(), 2, "{violations:?}");
    assert_ne!(violations[0].detail, violations[1].detail, "the two shards' violations differ");
    dispatch_on(shard_eps[high]);
    assert_eq!(surfaced(&flight).len(), 2, "the second violation surfaced");

    // Later dispatches, on any shard's endpoint, surface neither again,
    // and what surfaced is each violation once.
    for &ep in &shard_eps {
        dispatch_on(ep);
    }
    let mut got = surfaced(&flight);
    let mut want: Vec<String> = violations
        .iter()
        .map(|v| format!("invariant violation: {} ({})", v.invariant.label(), v.detail))
        .collect();
    got.sort();
    want.sort();
    assert_eq!(got, want, "each violation surfaced exactly once");
}

// ---------------------------------------------------------------------------
// Streaming-micropay chaos: a PayWord stream over the same faulty wire —
// ticks resent byte-identically until they land, periodic redemption at
// the sharded broker, and a mid-stream crash+recovery of the shard that
// owns the chain.
// ---------------------------------------------------------------------------

const STREAM_CAPACITY: u64 = 96;
const STREAM_EVERY: u64 = 8;
const STREAM_SETTLE: u64 = 16;
const STREAM_CRASH_AT: u64 = 40;

#[test]
fn streaming_micropay_survives_faults_and_mid_stream_shard_crash() {
    let seed = chaos_seed() ^ 0x571C;
    let mut rng = test_rng(seed);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let gpk = judge.public_key().clone();
    let sharded = Arc::new(ShardedBroker::new(params.clone(), gpk.clone(), SHARDS, &mut rng));
    sharded.enable_journals();
    let policy = RetryPolicy::new(8).backoff(10, 1_000).budget(100_000);
    let obs = Obs::disabled();

    let mut net = Network::new();
    install_wire_classifier(&mut net);
    let sclk = shared_clock(Timestamp(0));
    let shard_eps = attach_shard_endpoints(&mut net, sharded.clone(), sclk, 1000 + seed);
    let host =
        Rc::new(RefCell::new(MicropayHost::new(params.group().clone(), gpk.clone(), STREAM_SETTLE)));
    let host_ep = attach_micropay_host(&mut net, host.clone());
    let sender_ep = attach_client(&mut net, "stream-sender");
    let relay_ep = attach_client(&mut net, "relay");

    // Full fault rates on every link, plus a severed tick path for one
    // delivery window — the stream must ride it out by resending.
    let plan = FaultPlan::new()
        .with_default(FaultRates { drop: 0.02, duplicate: 0.02, corrupt: 0.02, timeout: 0.02 })
        .partition(sender_ep, host_ep, 40, 80);
    net.install_faults(FaultInjector::new(plan, seed ^ 0xFA17));

    // The sender opens a group-signed chain with the relay over the wire;
    // re-sending the identical commitment is answered idempotently.
    let gk = judge.enroll(PeerId(9), &mut rng);
    let (mut sender, commitment) =
        MicropaySender::open(params.group(), &gpk, &gk, STREAM_CAPACITY, STREAM_EVERY, &mut rng);
    let chain = retry(
        &mut net,
        sender_ep,
        host_ep,
        service::open_chain(commitment.clone()),
        &policy,
        &mut rng,
        &obs,
    )
    .expect("chain opens under faults");
    let reopened =
        retry(&mut net, sender_ep, host_ep, service::open_chain(commitment), &policy, &mut rng, &obs)
            .expect("replayed open answered");
    assert_eq!(reopened, chain, "open is idempotent");

    let owning = shard_of_chain(&chain, SHARDS);
    let redeem_ep = shard_eps[owning];

    let mut tick_resends = 0u64;
    let mut redemptions = 0u64;
    let mut crashed = false;

    for i in 0..STREAM_CAPACITY {
        // Ticks are idempotent (a duplicate credits zero), so the sender
        // resends the *same* payword until the relay acknowledges it.
        let word = sender.pay(1).expect("within capacity");
        let mut acked = false;
        for attempt in 0..200 {
            // The ack itself crosses the faulty wire, so a "successful"
            // reply may be garbage; the loop trusts only the relay's own
            // books (which the sender would learn via the next good ack).
            let _ = tick_via(&mut net, sender_ep, host_ep, chain, word);
            if host.borrow().receiver(&chain).expect("open chain").total() == i + 1 {
                tick_resends += attempt;
                acked = true;
                break;
            }
        }
        assert!(acked, "tick {i} never landed after 200 resends");

        // Periodic settlement: once the relay's unsettled balance crosses
        // the threshold it redeems at the chain's owning shard, and a
        // byte-identical re-presentation is answered from the replay memo
        // without re-crediting.
        if host.borrow().receiver(&chain).expect("open chain").settlement_due() {
            let request = host.borrow().receiver(&chain).expect("open chain").redeem_request();
            // The retry helper resends on retryable verdicts; the outer
            // loop additionally absorbs corruption in *either* direction:
            // a garbled request can draw a fatal verdict (a flipped index
            // byte reads as stale), and a garbled receipt must not be
            // trusted — only a receipt matching the frontier this request
            // provably advances to is accepted. Replay memos make every
            // resend safe.
            let expect_total = request.payword.index;
            let mut landed = None;
            for _ in 0..16 {
                match retry(
                    &mut net,
                    relay_ep,
                    redeem_ep,
                    service::redeem_chain(request.clone()),
                    &policy,
                    &mut rng,
                    &obs,
                ) {
                    Ok(r) if r.chain == chain && r.total == expect_total => {
                        landed = Some(r);
                        break;
                    }
                    _ => continue,
                }
            }
            let receipt = landed.expect("redemption lands under faults");
            host.borrow_mut()
                .receiver_mut(&chain)
                .expect("open chain")
                .mark_settled_upto(receipt.total);
            redemptions += 1;

            let commits_before = sharded.stats().redemptions;
            let mut replayed = None;
            for _ in 0..16 {
                match retry(
                    &mut net,
                    relay_ep,
                    redeem_ep,
                    service::redeem_chain(request.clone()),
                    &policy,
                    &mut rng,
                    &obs,
                ) {
                    Ok(r) if r == receipt => {
                        replayed = Some(r);
                        break;
                    }
                    _ => continue,
                }
            }
            assert!(replayed.is_some(), "replay answered with the original receipt");
            assert_eq!(
                sharded.stats().redemptions,
                commits_before,
                "replay must not redeem the chain twice"
            );
        }

        // Mid-stream, after value has settled, the owning shard crashes
        // and rebuilds from its journal — bit-identically, per the
        // snapshot equality inside the helper.
        if i == STREAM_CRASH_AT {
            assert!(redemptions > 0, "crash must land after at least one redemption");
            crash_and_recover_shard(&sharded, owning);
            crashed = true;
        }
    }

    // The storm really hit: faults were injected, the partition window
    // passed over the tick path, and resends absorbed the damage.
    let injector = net.clear_faults().expect("injector installed");
    let fstats = injector.stats();
    assert!(fstats.total() > 0, "no faults injected: {fstats:?}");
    assert!(fstats.partitions > 0, "partition window never hit: {fstats:?}");
    assert!(tick_resends > 0, "no tick was ever resent");
    assert!(crashed, "the mid-stream crash never ran");

    // Fault-free drain: the tail of the stream settles.
    let outstanding = host.borrow().receiver(&chain).expect("open chain").outstanding();
    if outstanding > 0 {
        let request = host.borrow().receiver(&chain).expect("open chain").redeem_request();
        let receipt = redeem_chain_via(&mut net, relay_ep, redeem_ep, request)
            .expect("final fault-free redemption");
        host.borrow_mut().receiver_mut(&chain).expect("open chain").mark_settled_upto(receipt.total);
        redemptions += 1;
    }

    // Value conservation, end to end: every unit the sender released was
    // credited at the relay exactly once and settled at the broker
    // exactly once — across drops, duplicates, corruption, a partition,
    // and a shard crash.
    let host_ref = host.borrow();
    let receiver = host_ref.receiver(&chain).expect("open chain");
    assert_eq!(receiver.total(), STREAM_CAPACITY, "every tick credited at the relay");
    assert_eq!(receiver.outstanding(), 0, "no unsettled value left");
    assert_eq!(
        sharded.settled_micropay_value(),
        STREAM_CAPACITY,
        "broker books equal the sender's spend"
    );
    assert_eq!(
        sharded.lock_shard(owning).chain_settled(&chain),
        Some(STREAM_CAPACITY),
        "the owning shard holds the whole settled frontier"
    );
    let stats = sharded.stats();
    assert_eq!(stats.redemptions, redemptions, "each frontier advance committed exactly once");
    assert!(stats.replays > 0, "replay memos never answered a duplicate");
    assert!(sharded.audit_ok(), "violations: {:?}", sharded.violations());
}

#[test]
fn same_seed_same_outcome() {
    // The whole chaotic run is deterministic in its seed: broker books,
    // fault history, and retry counters all replay exactly.
    fn run(seed: u64) -> (u64, u64, u64, u64) {
        let mut w = chaos_world(seed);
        let policy = RetryPolicy::new(6).backoff(10, 500).budget(50_000);
        let obs = Obs::disabled();
        let mut ok = 0u64;
        for i in 0..8 {
            let now = Timestamp(100 * i);
            w.clk.set(now);
            w.sclk.store(now.0, Ordering::SeqCst);
            let mut owner = w.owner.borrow_mut();
            if retry(
                &mut w.net,
                w.owner_ep,
                w.broker_ep,
                service::purchase(&mut owner, PurchaseMode::Identified, now),
                &policy,
                &mut w.rng,
                &obs,
            )
            .is_ok()
            {
                ok += 1;
            }
        }
        let stats = w.broker.stats();
        (ok, stats.purchases, w.net.fault_stats().decisions, policy.stats().attempts)
    }
    assert_eq!(run(7), run(7));
    assert_eq!(run(8), run(8));
}

// ---------------------------------------------------------------------------
// Adversarial corruption chaos: a seeded TamperInjector bit-rots the
// broker's durable artifacts — journal frames, the embedded checkpoint
// snapshot, DHT-served binding records — and the tamper-evidence
// machinery must catch every single injection (strict decode rejection,
// a recovered-seq shortfall against the out-of-band `(root, seq)`
// commitment, a StateCommitment violation from replay verification, or
// a proof-checked lookup failure), while an identically-seeded clean run
// raises nothing at all.
// ---------------------------------------------------------------------------

/// The durable leftovers of a crashed journalling broker, plus what the
/// operator keeps out of band (keys, the last `(root, seq)`), plus the
/// pre-crash snapshot the clean control reconverges to.
struct DurableWorld {
    params: SystemParams,
    gpk: GroupPublicKey,
    keys: DsaKeyPair,
    journal_bytes: Vec<u8>,
    last_seq: u64,
    snapshot: Vec<StateRecord>,
}

/// Runs a journalling broker through enough lifecycle to leave a journal
/// with a mid-stream checkpoint *and* a live tail, then "crashes" it by
/// keeping only its durable bytes.
fn durable_world(seed: u64) -> DurableWorld {
    let mut rng = test_rng(seed);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let gpk = judge.public_key().clone();
    let mut broker = Broker::new(params.clone(), gpk.clone(), &mut rng);
    broker.enable_journal();
    let mk = |id: u64, judge: &mut Judge, broker: &mut Broker, rng: &mut rand::rngs::StdRng| {
        let gk = judge.enroll(PeerId(id), rng);
        let p =
            Peer::new(PeerId(id), params.clone(), broker.public_key().clone(), gpk.clone(), gk, rng);
        broker.register_peer(PeerId(id), p.public_key().clone());
        p
    };
    let mut owner = mk(1, &mut judge, &mut broker, &mut rng);
    let mut holder = mk(2, &mut judge, &mut broker, &mut rng);
    let now = Timestamp(0);
    let coins: Vec<CoinId> = (0..6u64)
        .map(|i| {
            let (req, pending) = owner.create_purchase_request(PurchaseMode::Identified, &mut rng);
            let minted = broker.handle_purchase(&req, &mut rng).unwrap();
            let coin = owner.complete_purchase(minted, pending, now, &mut rng).unwrap();
            let (invite, session) = holder.begin_receive(&mut rng);
            let grant = owner.issue_coin(coin, &invite, now, &mut rng).unwrap();
            holder.accept_grant(grant, session, now).unwrap();
            if i == 3 {
                broker.checkpoint_journal();
            }
            coin
        })
        .collect();
    let dep = holder.request_deposit(coins[0], &mut rng).unwrap();
    broker.handle_deposit(&dep, now).unwrap();
    let journal = broker.journal().expect("journalling enabled");
    assert!(journal.len() > 1, "journal must keep a live tail after the checkpoint");
    let (_, last_seq) = broker.committed_root().expect("ledger is on");
    DurableWorld {
        params,
        gpk,
        keys: broker.export_keys(),
        journal_bytes: journal.to_bytes(),
        last_seq,
        snapshot: broker.snapshot(),
    }
}

/// Byte spans of each journal frame (a blob: its varint length, then the
/// entry), in entry order.
fn frame_spans(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::new();
    let mut r = whopay_core::codec::Reader::new(bytes);
    while r.remaining() > 0 {
        let start = bytes.len() - r.remaining();
        r.blob().expect("journal is well framed");
        spans.push(start..bytes.len() - r.remaining());
    }
    spans
}

/// Walks the tamper injector over every journal frame: checkpoint frames
/// draw from the snapshot stream, ordinary entries from the journal
/// stream. Returns the (possibly corrupted) bytes.
fn tamper_journal(w: &DurableWorld, inj: &mut TamperInjector) -> Vec<u8> {
    let journal = Journal::from_bytes(&w.journal_bytes).expect("clean journal decodes");
    let mut bytes = w.journal_bytes.clone();
    for (i, span) in frame_spans(&w.journal_bytes).into_iter().enumerate() {
        let target = match journal.entries()[i].op {
            JournalOp::Checkpoint { .. } => TamperTarget::Snapshot,
            _ => TamperTarget::Journal,
        };
        inj.tamper(target, i as u64, &mut bytes[span]);
    }
    bytes
}

#[test]
fn adversarial_journal_corruption_is_always_detected_with_flight_dumps() {
    let seed = chaos_seed() ^ 0x7A3B;
    let w = durable_world(seed);

    // Clean control: an identically-seeded zero-rate sweep leaves the
    // bytes untouched, recovery reconverges exactly, and nothing — not
    // one violation, not one failed event — is raised. Zero false alarms.
    {
        let mut inj = TamperInjector::new(TamperPlan::new(), seed);
        let bytes = tamper_journal(&w, &mut inj);
        assert_eq!(inj.injected(), 0, "zero-rate plan must not tamper");
        assert_eq!(bytes, w.journal_bytes);
        let flight = Arc::new(FlightRecorder::new());
        let obs = Obs::with_tracer(Tracer::new(flight.clone()));
        let (clean, dropped) = Journal::from_bytes_tolerant(&bytes).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(clean.last_seq(), Some(w.last_seq));
        let recovered = Broker::recover(w.params.clone(), w.gpk.clone(), w.keys.clone(), &clean);
        assert_eq!(surface_recovery_violations(&recovered, &obs), 0, "clean-run false alarm");
        assert_eq!(recovered.snapshot(), w.snapshot, "clean recovery reconverges exactly");
        assert!(
            flight.snapshot().iter().all(|e| e.outcome != Outcome::Error),
            "clean run left failure events in the flight record"
        );
    }

    // Adversarial sweep: every variant whose injector fired must be
    // detected by *some* layer — and when the detector is replay root
    // verification, the violation must surface into the flight recorder.
    let mut corrupted_runs = 0usize;
    let mut detected_by = [0usize; 3]; // [decode, seq shortfall, root mismatch]
    for variant in 0..24u64 {
        let plan = TamperPlan { journal: 0.35, snapshot: 0.6, record: 0.0 };
        let mut inj = TamperInjector::new(plan, seed ^ (variant << 8));
        let bytes = tamper_journal(&w, &mut inj);
        if inj.injected() == 0 {
            continue;
        }
        corrupted_runs += 1;
        let flight = Arc::new(FlightRecorder::new());
        let obs = Obs::with_tracer(Tracer::new(flight.clone()));
        let detected = match Journal::from_bytes_tolerant(&bytes) {
            Err(_) => {
                detected_by[0] += 1;
                true
            }
            Ok((journal, dropped)) => {
                if dropped > 0 || journal.last_seq() != Some(w.last_seq) {
                    detected_by[1] += 1;
                    true
                } else {
                    let recovered =
                        Broker::recover(w.params.clone(), w.gpk.clone(), w.keys.clone(), &journal);
                    let surfaced = surface_recovery_violations(&recovered, &obs);
                    let flagged = recovered
                        .audit()
                        .violations()
                        .iter()
                        .any(|v| v.invariant == Invariant::StateCommitment);
                    if flagged {
                        detected_by[2] += 1;
                        assert!(surfaced > 0, "violations must surface as events");
                        let events = flight.snapshot();
                        assert!(
                            events.iter().any(|e| e.outcome == Outcome::Error
                                && e.detail.as_deref().is_some_and(|d| d.contains("state_commitment"))),
                            "variant {variant}: state_commitment event missing from flight record"
                        );
                        true
                    } else {
                        // Nothing alarmed: the only acceptable outcome is
                        // bit-identical reconvergence, and a run with
                        // injections must not get here at all.
                        assert_eq!(
                            recovered.snapshot(),
                            w.snapshot,
                            "variant {variant}: recovery silently diverged"
                        );
                        false
                    }
                }
            }
        };
        assert!(
            detected,
            "variant {variant}: {} injected tampers left no trace (history: {:?})",
            inj.injected(),
            inj.history()
        );
    }
    assert!(corrupted_runs >= 12, "plan must corrupt most variants, got {corrupted_runs}");
    assert_eq!(
        detected_by.iter().sum::<usize>(),
        corrupted_runs,
        "every corrupted run detected exactly once: {detected_by:?}"
    );
    assert!(
        detected_by[2] >= 1,
        "at least one variant must survive decoding and be caught by root verification: {detected_by:?}"
    );
}

#[test]
fn adversarial_record_corruption_is_always_detected_and_clean_lookups_pass() {
    let seed = chaos_seed() ^ 0x0D47;
    let mut rng = test_rng(seed);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let mut broker = Broker::new(params.clone(), judge.public_key().clone(), &mut rng);
    let mk = |id: u64, judge: &mut Judge, broker: &mut Broker, rng: &mut rand::rngs::StdRng| {
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
    let mut owner = mk(0, &mut judge, &mut broker, &mut rng);
    let mut payer = mk(1, &mut judge, &mut broker, &mut rng);
    let mut payee = mk(2, &mut judge, &mut broker, &mut rng);
    let mut dht = Dht::new(params.group().clone(), broker.public_key().clone(), DhtConfig::default());
    for _ in 0..16 {
        dht.join(RingId::random(&mut rng));
    }
    let entry = dht.node_ids()[0];

    // One coin driven to a broker-committed downtime rebinding, so the
    // proof's leaf carries the committed binding the freshness and
    // equality checks anchor on.
    let now = Timestamp(0);
    let (req, pending) = owner.create_purchase_request(PurchaseMode::Identified, &mut rng);
    let minted = broker.handle_purchase(&req, &mut rng).unwrap();
    let coin = owner.complete_purchase(minted, pending, now, &mut rng).unwrap();
    let (invite, session) = payer.begin_receive(&mut rng);
    let grant = owner.issue_coin(coin, &invite, now, &mut rng).unwrap();
    payer.accept_grant(grant, session, now).unwrap();
    dsd::publish_owner_binding(&owner, coin, &mut dht, entry, &mut rng, &Obs::disabled()).unwrap();
    let (invite2, session2) = payee.begin_receive(&mut rng);
    let treq = payer.request_transfer(coin, &invite2, &mut rng).unwrap();
    let grant2 = broker.handle_downtime_transfer(&treq, Timestamp(10), &mut rng).unwrap();
    broker.publish_binding(&grant2.binding, &mut dht, entry, &mut rng).unwrap();
    payee.accept_grant(grant2, session2, Timestamp(10)).unwrap();
    payer.complete_transfer(coin);

    let coin_pk = owner.owned_coin(&coin).unwrap().minted.coin_pk().clone();
    let proof = broker.binding_proof(&coin, &mut rng).expect("ledger is on by default");
    let committed = proof.leaf.binding.clone().expect("downtime rebinding committed");
    let honest = dht.get(entry, dsd::binding_key(&coin_pk)).expect("record published");

    // A storm of lookups against a node that bit-rots a fraction of the
    // records it serves. Detection must reconcile *exactly* with the
    // injector's ground-truth history: every tampered serve fails the
    // proof check (and leaves a failed DsdVerify event in the flight
    // record), every clean serve returns the committed state.
    let plan = TamperPlan { journal: 0.0, snapshot: 0.0, record: 0.25 };
    let mut inj = TamperInjector::new(plan, seed);
    let flight = Arc::new(FlightRecorder::new());
    let obs = Obs::with_tracer(Tracer::new(flight.clone()));
    let mut tampered_serves = 0usize;
    let mut clean_serves = 0usize;
    for lookup in 0..48u64 {
        let mut served = honest.clone();
        let hit = inj.tamper(TamperTarget::Record, lookup, &mut served.value).is_some();
        dht.inject_byzantine_record(served);
        let result = dsd::read_public_state_verified(
            &mut dht,
            entry,
            &coin_pk,
            &proof,
            params.group(),
            broker.public_key(),
            &obs,
        );
        if hit {
            tampered_serves += 1;
            assert!(result.is_err(), "lookup {lookup}: corrupted record accepted as state");
        } else {
            clean_serves += 1;
            let state = result.expect("clean serve must verify");
            assert_eq!(state, committed, "lookup {lookup}: clean serve returns committed state");
        }
    }
    assert_eq!(tampered_serves, inj.injected(), "detections reconcile with injector history");
    assert!(tampered_serves >= 5, "storm must actually tamper: {tampered_serves}");
    assert!(clean_serves >= 5, "storm must leave clean serves: {clean_serves}");
    let failures = flight.snapshot().iter().filter(|e| e.outcome == Outcome::Error).count();
    assert_eq!(
        failures, tampered_serves,
        "failed DsdVerify events reconcile one-to-one with injected tampers"
    );

    // The schedule is pure state: an identically-seeded injector re-draws
    // the exact same tamper history, so the run is replayable bit for bit.
    let mut replay = TamperInjector::new(plan, seed);
    for lookup in 0..48u64 {
        let mut buf = honest.value.clone();
        replay.tamper(TamperTarget::Record, lookup, &mut buf);
    }
    assert_eq!(replay.history(), inj.history());
}
