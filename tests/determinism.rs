//! Every output is a function of the seed, across processes.
//!
//! The test re-runs its own binary twice as child processes. Each child
//! has its own `RandomState`, so a `HashMap` or `HashSet` iterated into
//! an output hashes differently in the two. Each child prints one
//! `artefact <name> <sha256>` line per artefact, and the parent names
//! every artefact whose digest differs between them.
//!
//! Scenario 1 is a seeded history on a 4-shard [`ShardedBroker`] with
//! journals on, over a [`Network`]: purchase, a coin-shop sale, issue,
//! transfer, renewal, deposit and a double deposit; downtime transfer and
//! renewal, a binding proof and the owner's sync; open, tick, tick batch
//! and redeem of a PayWord chain. Then a pass of lifecycles under a 2 %
//! [`FaultPlan`], and the recovery of one shard from its journal bytes.
//! Its artefacts are every request and response frame of the fault-free
//! part, the fault pass's outcomes and counters, each shard's journal
//! bytes, ledger `(root, seq)` and snapshot, the auditors' violations,
//! the judge's registry export and `reveal_parties` of every fraud case.
//!
//! Scenario 2 runs `loadsim::run` on `SimConfig::small_test` for each
//! [`Policy`] × [`SyncStrategy`], and one `run_stream`. Each result's
//! `Debug` output is an artefact.
//!
//! Not yet covered:
//! * the examples, because a test cannot re-enter cargo to build and run
//!   them;
//! * the observability exports (flight dumps, Prometheus text, Chrome
//!   traces, JSON lines), because they carry wall-clock durations and
//!   ids drawn per process; comparing them needs a form with both
//!   removed.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::process::Command;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use whopay::core::micropay::{MicropayHost, MicropaySender};
use whopay::core::service::{
    self, attach_client, attach_micropay_host, attach_peer, attach_shard_endpoints, binding_proof_via,
    clock, deposit_via, install_wire_classifier, open_chain_via, purchase_via, redeem_chain_via,
    request_issue_via, request_renewal_via, request_transfer_via, retry, shared_clock, sync_via,
    tick_batch_via, tick_via, CallError,
};
use whopay::core::{
    CoinShop, CoreError, Journal, Judge, Peer, PeerId, PurchaseMode, ShardedBroker, SystemParams,
    Timestamp,
};
use whopay::crypto::payword::Payword;
use whopay::crypto::sha256::Sha256;
use whopay::crypto::testing::{test_rng, tiny_group};
use whopay::eval::{loadsim, run_stream, Policy, SimConfig, StreamConfig, SyncStrategy};
use whopay::net::{EndpointId, FaultInjector, FaultPlan, FaultRates, Network, RetryPolicy};
use whopay::obs::Obs;

/// Set in a child's environment: the child prints its artefacts.
const CHILD: &str = "WHOPAY_DETERMINISM_CHILD";

/// The one test, re-run by name in each child.
const TEST: &str = "every_artefact_is_a_function_of_the_seed_across_processes";

/// Named outputs of one process, in the order they were made.
type Artefacts = Vec<(String, Vec<u8>)>;

fn put(out: &mut Artefacts, name: impl Into<String>, bytes: impl Into<Vec<u8>>) {
    out.push((name.into(), bytes.into()));
}

fn put_debug(out: &mut Artefacts, name: impl Into<String>, value: &impl std::fmt::Debug) {
    put(out, name, format!("{value:?}"));
}

#[test]
fn every_artefact_is_a_function_of_the_seed_across_processes() {
    if std::env::var_os(CHILD).is_some() {
        let mut out = Artefacts::new();
        sharded_history(&mut out);
        simulations(&mut out);
        for (name, bytes) in out {
            let digest: String = Sha256::digest(&bytes).iter().map(|b| format!("{b:02x}")).collect();
            println!("artefact {name} {digest}");
        }
        return;
    }
    let (first, second) = (child(), child());
    for name in ["response.000", "journal.3", "fraud.0.revealed", "stream"] {
        assert!(first.contains_key(name), "no artefact {name} among {:?}", first.keys());
    }
    let differing: Vec<&String> = first
        .keys()
        .chain(second.keys().filter(|name| !first.contains_key(*name)))
        .filter(|name| first.get(*name) != second.get(*name))
        .collect();
    assert!(differing.is_empty(), "artefacts that differ between two processes: {differing:?}");
}

/// Runs this test's binary as a child and reads its artefact lines.
fn child() -> BTreeMap<String, String> {
    let exe = std::env::current_exe().expect("the test binary's path");
    let output = Command::new(exe)
        .args([TEST, "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD, "1")
        .output()
        .expect("the child starts");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "the child failed:\n{stdout}{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let mut artefacts = BTreeMap::new();
    // The harness may print its `test <name> ... ` before the first line.
    for line in stdout.lines().filter_map(|line| line.split_once("artefact ").map(|(_, rest)| rest)) {
        let (name, digest) = line.split_once(' ').expect("a name and a digest");
        assert!(artefacts.insert(name.to_string(), digest.to_string()).is_none(), "{name} twice");
    }
    artefacts
}

/// Scenario 1: the seeded 4-shard history over the network.
fn sharded_history(out: &mut Artefacts) {
    const SHARDS: usize = 4;
    const STOCK: usize = 6;
    let mut rng = test_rng(0xDE7E);
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
    let mut shop = CoinShop::new(peer(3, &mut rng), 1);
    let sender_key = judge.enroll(PeerId(4), &mut rng);
    broker.enable_journals();

    // Every server sits behind a relay that records what it carried.
    let mut net = Network::new();
    install_wire_classifier(&mut net);
    let (clk, sclk) = (clock(Timestamp(0)), shared_clock(Timestamp(0)));
    let mut servers = attach_shard_endpoints(&mut net, broker.clone(), sclk.clone(), 7);
    let owner = Rc::new(RefCell::new(owner));
    servers.push(attach_peer(&mut net, owner.clone(), clk.clone(), 8));
    let host = Rc::new(RefCell::new(MicropayHost::new(group.clone(), gpk.clone(), 16)));
    servers.push(attach_micropay_host(&mut net, host.clone()));
    let carried = Rc::new(RefCell::new(Vec::<(Vec<u8>, Vec<u8>)>::new()));
    let relays: Vec<EndpointId> = servers
        .iter()
        .map(|&server| {
            let src = attach_client(&mut net, "relay-src");
            let carried = carried.clone();
            net.register_writer("relay", move |net, request, out| {
                net.request_into(src, server, request, out).expect("the relay reaches its server");
                carried.borrow_mut().push((request.to_vec(), out.clone()));
            })
        })
        .collect();
    let (shard_eps, owner_ep, host_ep) = (&relays[..SHARDS], relays[SHARDS], relays[SHARDS + 1]);
    let [owner_me, payer_me, payee_me, shop_me, sender_me, host_me] =
        ["owner", "payer", "payee", "shop", "sender", "host"].map(|name| attach_client(&mut net, name));
    let shard_of = |coin| shard_eps[broker.shard_of_coin(&coin)];
    let now = Timestamp(0);
    let buy = |net: &mut Network, rng: &mut rand::rngs::StdRng| {
        let owner = &mut owner.borrow_mut();
        purchase_via(net, owner_me, shard_eps[0], owner, PurchaseMode::Identified, now, rng).unwrap()
    };

    // Issue, transfer, renewal, deposit, and a second deposit.
    let coin = buy(&mut net, &mut rng);
    let (invite, session) = payer.begin_receive(&mut rng);
    let grant = request_issue_via(&mut net, payer_me, owner_ep, coin, &invite).unwrap();
    payer.accept_grant(grant, session, now).unwrap();
    let (invite, session) = payee.begin_receive(&mut rng);
    let request = payer.request_transfer(coin, &invite, &mut rng).unwrap();
    let grant = request_transfer_via(&mut net, payer_me, owner_ep, request, false).unwrap();
    payee.accept_grant(grant, session, now).unwrap();
    payer.complete_transfer(coin);
    clk.set(Timestamp(100));
    sclk.store(100, Ordering::SeqCst);
    let request = payee.request_renewal(coin, &mut rng).unwrap();
    let renewed = request_renewal_via(&mut net, payee_me, owner_ep, request, false).unwrap();
    payee.apply_renewal(coin, renewed).unwrap();
    let first = payee.request_deposit(coin, &mut rng).unwrap();
    let second = payee.request_deposit(coin, &mut rng).unwrap();
    deposit_via(&mut net, payee_me, shard_of(coin), first).unwrap();
    let refused = deposit_via(&mut net, payee_me, shard_of(coin), second).unwrap_err();
    assert!(matches!(refused, CallError::Remote(e) if e == CoreError::DoubleSpend(coin).to_string()));
    payee.complete_deposit(coin);

    // Downtime transfer and renewal, a binding proof, the owner's sync.
    let coin = buy(&mut net, &mut rng);
    let (invite, session) = payer.begin_receive(&mut rng);
    let grant = request_issue_via(&mut net, payer_me, owner_ep, coin, &invite).unwrap();
    payer.accept_grant(grant, session, now).unwrap();
    let (invite, session) = payee.begin_receive(&mut rng);
    let request = payer.request_transfer(coin, &invite, &mut rng).unwrap();
    let grant = request_transfer_via(&mut net, payer_me, shard_of(coin), request, true).unwrap();
    payee.accept_grant(grant, session, now).unwrap();
    payer.complete_transfer(coin);
    let request = payee.request_renewal(coin, &mut rng).unwrap();
    let renewed = request_renewal_via(&mut net, payee_me, shard_of(coin), request, true).unwrap();
    payee.apply_renewal(coin, renewed).unwrap();
    binding_proof_via(&mut net, payee_me, shard_of(coin), coin).unwrap();
    sync_via(&mut net, owner_me, shard_eps[1], &mut owner.borrow_mut(), &mut rng).unwrap();

    // A coin shop stocks up, then sells its whole stock; the payer
    // deposits the first coin it bought.
    for i in 0..STOCK {
        let ep = shard_eps[i % SHARDS];
        purchase_via(&mut net, shop_me, ep, &mut shop.peer, PurchaseMode::Identified, now, &mut rng)
            .unwrap();
    }
    let sold: Vec<_> = (0..STOCK)
        .map(|_| {
            let (invite, session) = payer.begin_receive(&mut rng);
            let (grant, _fee) = shop.sell_coin(&invite, now, &mut rng).unwrap();
            let coin = grant.minted.id();
            payer.accept_grant(grant, session, now).unwrap();
            coin
        })
        .collect();
    put_debug(out, "shop.sales", &sold);
    let request = payer.request_deposit(sold[0], &mut rng).unwrap();
    deposit_via(&mut net, payer_me, shard_of(sold[0]), request).unwrap();
    payer.complete_deposit(sold[0]);

    // Open, tick, tick batch, redeem.
    let (mut sender, commitment) = MicropaySender::open(&group, &gpk, &sender_key, 64, 8, &mut rng);
    let chain = open_chain_via(&mut net, sender_me, host_ep, commitment).unwrap();
    tick_via(&mut net, sender_me, host_ep, chain, sender.pay(1).unwrap()).unwrap();
    let batch: Vec<Payword> = (0..4).map(|_| sender.pay(2).unwrap()).collect();
    tick_batch_via(&mut net, sender_me, host_ep, chain, batch).unwrap();
    let request = host.borrow().receiver(&chain).expect("open chain").redeem_request();
    redeem_chain_via(&mut net, host_me, shard_eps[2], request).unwrap();

    for (i, (request, response)) in carried.take().into_iter().enumerate() {
        put(out, format!("request.{i:03}"), request);
        put(out, format!("response.{i:03}"), response);
    }

    // Lifecycles under a 2 % fault plan, straight to the servers (a relay
    // would fail on a fault between it and its server).
    let (shard_servers, owner_server) = (&servers[..SHARDS], servers[SHARDS]);
    net.install_faults(FaultInjector::new(
        FaultPlan::new().with_default(FaultRates::uniform(0.02)),
        0xFA,
    ));
    let policy = RetryPolicy::new(8).backoff(10, 1_000).budget(100_000);
    let obs = Obs::disabled();
    let mut outcomes = Vec::new();
    for i in 0..64u64 {
        let now = Timestamp(200 + 10 * i);
        clk.set(now);
        sclk.store(now.0, Ordering::SeqCst);
        let ep = shard_servers[i as usize % SHARDS];
        let bought = retry(
            &mut net,
            owner_me,
            ep,
            service::purchase(&mut owner.borrow_mut(), PurchaseMode::Identified, now),
            &policy,
            &mut rng,
            &obs,
        );
        let Ok(coin) = bought else {
            outcomes.push(format!("purchase {bought:?}"));
            continue;
        };
        let (invite, session) = payer.begin_receive(&mut rng);
        let issued = retry(
            &mut net,
            payer_me,
            owner_server,
            service::issue(coin, &invite),
            &policy,
            &mut rng,
            &obs,
        );
        let accepted = issued
            .map_err(|e| e.to_string())
            .and_then(|grant| payer.accept_grant(grant, session, now).map_err(|e| e.to_string()));
        outcomes.push(format!("issue {accepted:?}"));
        if accepted.is_err() {
            continue;
        }
        let request = payer.request_deposit(coin, &mut rng).unwrap();
        let ep = shard_servers[broker.shard_of_coin(&coin)];
        let deposited =
            retry(&mut net, payer_me, ep, service::deposit(request), &policy, &mut rng, &obs);
        outcomes.push(format!("deposit {deposited:?}"));
        if deposited.is_ok() {
            payer.complete_deposit(coin);
        }
    }
    let injector = net.clear_faults().expect("faults installed");
    assert!(injector.stats().total() > 0 && policy.stats().retries > 0, "the faults bit nowhere");
    put_debug(out, "faults.outcomes", &outcomes);
    put_debug(out, "faults.stats", &injector.stats());
    put_debug(out, "faults.retries", &policy.stats());

    // One shard crashes and is rebuilt from its journal bytes.
    let bytes = broker.journal_bytes(1).expect("journals on");
    broker.recover_shard(1, &Journal::from_bytes(&bytes).expect("the journal decodes"));

    let mut cases = Vec::new();
    for s in 0..SHARDS {
        put(out, format!("journal.{s}"), broker.journal_bytes(s).expect("journals on"));
        let shard = broker.lock_shard(s);
        let ledger = shard.ledger().expect("ledgers are on");
        put_debug(out, format!("ledger.{s}"), &(ledger.root(), ledger.seq()));
        put_debug(out, format!("snapshot.{s}"), &shard.snapshot());
        cases.extend(shard.fraud_cases().iter().cloned());
    }
    assert_eq!(cases.len(), 1, "the double deposit is the one fraud case");
    put_debug(out, "violations", &broker.violations());
    put_debug(out, "registry", &judge.export_registry());
    for (i, case) in cases.iter().enumerate() {
        put_debug(out, format!("fraud.{i}.revealed"), &judge.reveal_parties(case));
    }
}

/// Scenario 2: the load simulator under every policy and sync strategy,
/// and the streaming simulator.
fn simulations(out: &mut Artefacts) {
    for policy in [Policy::I, Policy::IIa, Policy::IIb, Policy::III] {
        for sync in [SyncStrategy::Proactive, SyncStrategy::Lazy] {
            let result = loadsim::run(&SimConfig::small_test(policy, sync, 0x5EED));
            put_debug(out, format!("loadsim.{policy:?}.{sync:?}"), &result);
        }
    }
    put_debug(out, "stream", &run_stream(&StreamConfig::small_test(0x5EED)));
}
