//! Concurrency stress: WhoPay entities shared across threads.
//!
//! A deployment serves many peers at once, so `Broker` and `Peer` must be
//! `Send` (they are: plain owned data, no interior mutability) and behave
//! correctly under lock-based sharing. This test runs many payment chains
//! in parallel against one broker and one owner and checks global
//! conservation afterwards: every minted coin is either still circulating
//! or deposited exactly once, and no double spend slips through the
//! races.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use whopay_core::service::{
    attach_client, attach_shard_endpoints, binding_proof_via, purchase_via, shared_clock,
};
use whopay_core::{
    Broker, CoreError, Judge, Peer, PeerId, PurchaseMode, ShardedBroker, SystemParams, Timestamp,
};
use whopay_crypto::testing::{test_rng, tiny_group};

#[test]
fn entities_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Broker>();
    assert_send::<Peer>();
    assert_send::<Judge>();
}

#[test]
fn parallel_payment_chains_conserve_coins() {
    const THREADS: usize = 8;
    const COINS_PER_THREAD: usize = 5;

    let mut rng = test_rng(0xC0C0);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let broker = Broker::new(params.clone(), judge.public_key().clone(), &mut rng);
    let broker = Arc::new(Mutex::new(broker));

    // One owner/payer/payee triple per thread, all registered up front.
    let mut triples = Vec::new();
    for t in 0..THREADS as u64 {
        let mut mk = |id: u64, rng: &mut rand::rngs::StdRng| {
            let gk = judge.enroll(PeerId(id), rng);
            let p = Peer::new(
                PeerId(id),
                params.clone(),
                broker.lock().unwrap().public_key().clone(),
                judge.public_key().clone(),
                gk,
                rng,
            );
            broker.lock().unwrap().register_peer(PeerId(id), p.public_key().clone());
            p
        };
        let owner = mk(3 * t, &mut rng);
        let payer = mk(3 * t + 1, &mut rng);
        let payee = mk(3 * t + 2, &mut rng);
        triples.push((owner, payer, payee));
    }

    let deposited: Arc<Mutex<Vec<whopay_core::CoinId>>> = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|scope| {
        for (t, (mut owner, mut payer, mut payee)) in triples.into_iter().enumerate() {
            let broker = broker.clone();
            let deposited = deposited.clone();
            scope.spawn(move || {
                let mut rng = test_rng(0xFEED + t as u64);
                let now = Timestamp(0);
                for _ in 0..COINS_PER_THREAD {
                    // purchase (locks broker briefly)
                    let (req, pending) =
                        owner.create_purchase_request(PurchaseMode::Identified, &mut rng);
                    let minted = broker.lock().unwrap().handle_purchase(&req, &mut rng).unwrap();
                    let coin = owner.complete_purchase(minted, pending, now, &mut rng).unwrap();

                    // issue owner -> payer (pure peer-to-peer, no lock)
                    let (invite, session) = payer.begin_receive(&mut rng);
                    let grant = owner.issue_coin(coin, &invite, now, &mut rng).unwrap();
                    payer.accept_grant(grant, session, now).unwrap();

                    // transfer payer -> payee via owner
                    let (invite2, session2) = payee.begin_receive(&mut rng);
                    let treq = payer.request_transfer(coin, &invite2, &mut rng).unwrap();
                    let grant2 = owner.handle_transfer(treq, now, &mut rng).unwrap();
                    payee.accept_grant(grant2, session2, now).unwrap();
                    payer.complete_transfer(coin);

                    // deposit (locks broker)
                    let dep = payee.request_deposit(coin, &mut rng).unwrap();
                    let receipt = broker.lock().unwrap().handle_deposit(&dep, now).unwrap();
                    assert_eq!(receipt.coin, coin);

                    // the identical request re-delivered is an idempotent
                    // replay: same receipt, no double credit
                    let replayed = broker.lock().unwrap().handle_deposit(&dep, now).unwrap();
                    assert_eq!(replayed, receipt);

                    // a *distinct* re-deposit of the same coin must still
                    // fail even under concurrency
                    let dep2 = payee.request_deposit(coin, &mut rng).unwrap();
                    assert_ne!(dep2, dep, "fresh signatures make a distinct request");
                    let err = broker.lock().unwrap().handle_deposit(&dep2, now).unwrap_err();
                    assert_eq!(err, CoreError::DoubleSpend(coin));
                    payee.complete_deposit(coin);
                    deposited.lock().unwrap().push(coin);
                }
            });
        }
    });

    // Conservation: exactly THREADS * COINS_PER_THREAD distinct coins were
    // deposited; each triggered exactly one fraud case from the distinct
    // re-deposit (the identical replay is answered from the memo instead).
    let mut coins = deposited.lock().unwrap().clone();
    let total = coins.len();
    coins.sort();
    coins.dedup();
    assert_eq!(total, THREADS * COINS_PER_THREAD);
    assert_eq!(coins.len(), total, "all coins distinct");
    let broker = broker.lock().unwrap();
    let stats = broker.stats();
    assert_eq!(stats.purchases as usize, total);
    assert_eq!(stats.deposits as usize, total);
    assert_eq!(stats.replays as usize, total, "one memo replay per coin");
    assert_eq!(broker.fraud_cases().len(), total, "one replay caught per coin");
    for coin in &coins {
        assert!(!broker.is_circulating(coin));
    }
}

/// A shard endpoint's dispatch touches only the shard that owns the
/// request: the per-dispatch violation check reads a shared atomic count
/// instead of locking every shard, so a request for shard *i* completes
/// while another thread sits on every other shard's lock.
#[test]
fn shard_dispatch_completes_while_other_shards_are_locked() {
    let mut rng = test_rng(0x5A4D);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let sharded = Arc::new(ShardedBroker::new(params.clone(), judge.public_key().clone(), 4, &mut rng));
    let gk = judge.enroll(PeerId(1), &mut rng);
    let mut buyer = Peer::new(
        PeerId(1),
        params,
        sharded.public_key().clone(),
        judge.public_key().clone(),
        gk,
        &mut rng,
    );
    sharded.register_peer(PeerId(1), buyer.public_key().clone());

    let mut net = whopay_net::Network::new();
    let now = Timestamp(0);
    let shard_eps = attach_shard_endpoints(&mut net, sharded.clone(), shared_clock(now), 7);
    let client = attach_client(&mut net, "buyer");
    let coin = purchase_via(
        &mut net,
        client,
        shard_eps[0],
        &mut buyer,
        PurchaseMode::Identified,
        now,
        &mut rng,
    )
    .expect("purchase");
    let owner = sharded.shard_of_coin(&coin);

    let (held_tx, held_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let shards = &sharded;
    std::thread::scope(|scope| {
        let helper = scope.spawn(move || {
            let _others: Vec<_> = (0..shards.shard_count())
                .filter(|&j| j != owner)
                .map(|j| shards.lock_shard(j))
                .collect();
            held_tx.send(()).expect("main thread waits for the locks");
            // `true` only if the dispatch finished while the locks were held.
            done_rx.recv_timeout(Duration::from_secs(20)).is_ok()
        });
        held_rx.recv().expect("helper takes the locks");
        let proof = binding_proof_via(&mut net, client, shard_eps[owner], coin);
        done_tx.send(()).expect("helper waits for the dispatch");
        assert!(helper.join().expect("helper thread"), "dispatch waited for another shard's lock");
        assert_eq!(proof.expect("proof from the unlocked shard").leaf.coin, coin);
    });
    assert!(sharded.audit_ok());
}
