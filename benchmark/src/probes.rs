//! Isolated probes: direct, repeated calls into one layer's public
//! functions, for what cannot be split from outside a `shard.handle_*`
//! span (signature work, sig-cache, ledger, journal, auditor) and for the
//! fixed costs under every workload (`num`, `net`).
//!
//! A probe's inputs come from a small populated fixture — 256 coins run
//! through purchase, issue, downtime transfer and downtime renewal, so
//! every structure holds what a workload would put in it — and its figure
//! is read like every other latency here (`stats::window_latency`).

use std::collections::BTreeMap;
use std::time::Instant;

use rand::Rng;
use whopay_core::audit::Auditor;
use whopay_core::ledger::SignedRoot;
use whopay_core::micropay::{MicropayHost, MicropaySender};
use whopay_core::sigcache::SigCache;
use whopay_core::view::RequestView;
use whopay_core::wire::Request;
use whopay_core::{CoinId, Journal, StateLedger};
use whopay_crypto::batch::{verify_dsa_each, DsaBatchItem};
use whopay_crypto::dsa::{DsaKeyPair, DsaPublicKey};
use whopay_crypto::payword::{PaywordChain, PaywordReceiver};
use whopay_crypto::sha256::Sha256;
use whopay_net::Network;

use crate::recover;
use crate::stats::window_latency;
use crate::world::Serve;

/// Coins the probe fixture holds.
const FIXTURE_COINS: usize = 256;

/// Time of one call of `f` in ns: `samples` timings of `inner`
/// back-to-back calls each. Results pass through `black_box` so that the
/// measured work is not optimised away.
fn probe<T>(samples: usize, inner: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut per_call = Vec::with_capacity(samples);
    for _ in 0..samples {
        let started = Instant::now();
        for _ in 0..inner {
            std::hint::black_box(f());
        }
        per_call.push(started.elapsed().as_nanos() as f64 / inner as f64);
    }
    // Timings are microseconds long: sixteen in a row are a window.
    window_latency(&per_call, per_call.len() / 16)
}

/// Every probe's figure by metric name, in the metric's unit.
/// `frame_bytes` is the workload's mean frame size, for the net probes.
pub fn run(frame_bytes: usize) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let mut f = recover::build(&Serve::Plain);
    let coins: Vec<CoinId> = (0..FIXTURE_COINS)
        .map(|i| {
            recover::populate_coin(&mut f, (i % 8, (i + 1) % 8, (i + 2) % 8))
                .expect("probe fixture populates")
        })
        .collect();
    let group = f.world.group().clone();
    let mut rng = whopay_crypto::testing::test_rng(0x9120BE);

    // --- num ---
    let ring = group.elem_ring();
    let base = group.pow_g(&group.random_scalar(&mut rng));
    let exp = group.random_scalar(&mut rng);
    m.insert("num.modexp_us", probe(1000, 1, || ring.pow(&base, &exp)) / 1e3);

    // --- crypto ---
    let keys = DsaKeyPair::generate(&group, &mut rng);
    let msg = b"whopay benchmark probe message: sixty-four bytes of signed data.";
    let sig = keys.sign(&group, msg, &mut rng);
    m.insert("crypto.dsa_sign_us", probe(1000, 1, || keys.sign(&group, msg, &mut rng)) / 1e3);
    // One key verifying over and over builds a table for itself (the
    // broker's and the peers' identity keys); the holder and coin keys of
    // the protocol are fresh for every coin and never do.
    m.insert(
        "crypto.dsa_verify_hot_us",
        probe(1000, 1, || keys.public().verify(&group, msg, &sig)) / 1e3,
    );
    let fresh: Vec<_> = (0..250)
        .map(|_| {
            let keys = DsaKeyPair::generate(&group, &mut rng);
            (keys.public().element().clone(), keys.sign(&group, msg, &mut rng))
        })
        .collect();
    let mut next = 0;
    m.insert(
        "crypto.dsa_verify_us",
        probe(1000, 1, || {
            next = (next + 1) % fresh.len();
            let (element, sig) = &fresh[next];
            DsaPublicKey::from_element(element.clone()).verify(&group, msg, sig)
        }) / 1e3,
    );
    let member = f.world.enroll(900);
    let gpk = f.world.gpk.clone();
    let gsig = member.sign(&group, &gpk, msg, &mut rng);
    m.insert("crypto.gsig_sign_us", probe(400, 1, || member.sign(&group, &gpk, msg, &mut rng)) / 1e3);
    m.insert("crypto.gsig_verify_us", probe(400, 1, || gpk.verify(&group, msg, &gsig)) / 1e3);
    let batch: Vec<DsaBatchItem> = (0..64u8)
        .map(|i| {
            let message = [msg.as_slice(), &[i]].concat();
            let sig = keys.sign(&group, &message, &mut rng);
            DsaBatchItem { key: keys.public().clone(), message, sig }
        })
        .collect();
    m.insert(
        "crypto.batch_verify_us_per_sig",
        probe(20, 1, || assert!(verify_dsa_each(&group, &batch).iter().all(|&ok| ok))) / 1e3 / 64.0,
    );
    let block = [0x5au8; 32];
    m.insert("crypto.sha256_ns", probe(1000, 64, || Sha256::digest(std::hint::black_box(&block))));
    let mut chain = PaywordChain::generate(1 << 16, &mut rng);
    let mut receiver = PaywordReceiver::new(chain.root());
    m.insert(
        "crypto.payword_verify_ns",
        probe(1000, 64, || {
            let word = chain.spend(1).expect("64k links cover 64k calls");
            assert_eq!(receiver.receive(word), Some(1));
        }),
    );

    // --- core.sigcache ---
    // A quarter of the default capacity, so that nothing is evicted.
    let cache = SigCache::default();
    let cache_keys: Vec<[u8; 32]> = (0..1024u32).map(|i| Sha256::digest(&i.to_le_bytes())).collect();
    cache_keys.iter().for_each(|k| cache.prime(*k, true));
    let mut next = 0;
    m.insert(
        "sigcache.lookup_ns",
        probe(1000, 64, || {
            next = (next + 1) % cache_keys.len();
            assert_eq!(cache.lookup(&cache_keys[next]), Some(true));
        }),
    );

    // --- core.ledger: a ledger with the fixture's coins as leaves ---
    let broker_keys = f.world.sharded.export_keys();
    let mut ledger = StateLedger::new();
    let held: Vec<_> = coins
        .iter()
        .enumerate()
        .map(|(i, coin)| {
            let held = f.peers[(i + 2) % 8].held_coin(coin).expect("second holder holds the coin");
            (*coin, held.minted.clone(), held.binding.clone())
        })
        .collect();
    for (coin, minted, binding) in &held {
        ledger.upsert_coin(*coin, minted, Some(binding), false, None);
    }
    let mut next = 0;
    m.insert(
        "ledger.upsert_ns",
        probe(1000, 16, || {
            next = (next + 1) % held.len();
            let (coin, minted, binding) = &held[next];
            // Alternating the deposited flag changes the leaf every time.
            ledger.upsert_coin(*coin, minted, Some(binding), next % 2 == 0, None);
        }),
    );
    m.insert(
        "ledger.prove_ns",
        probe(1000, 16, || {
            next = (next + 1) % held.len();
            ledger.prove_coin(&held[next].0);
        }),
    );
    m.insert(
        "ledger.sign_root_us",
        probe(1000, 1, || {
            SignedRoot::sign(&group, &broker_keys, ledger.root(), ledger.seq(), &mut rng)
        }) / 1e3,
    );
    let proof = f.world.sharded.binding_proof(&coins[0], &mut rng).expect("fixture coin is known");
    let broker_pk = f.world.sharded.public_key().clone();
    m.insert(
        "ledger.proof_verify_us",
        probe(1000, 1, || assert!(proof.verify(&group, &broker_pk).is_ok())) / 1e3,
    );

    // --- core.journal: shard 0's journal of the fixture ---
    let journal = f.world.sharded.lock_shard(0).journal().expect("journals are on").clone();
    let entries = journal.len() as f64;
    let mut sink = Journal::new();
    let mut pending = Vec::new();
    m.insert(
        "journal.append_ns",
        probe(200, 1, || {
            // Cloning the entries is the caller's cost, not append's.
            // The refill, once per journal length, lands in one sample,
            // which the quartile read ignores.
            if pending.is_empty() {
                pending = journal.entries().to_vec();
                sink = Journal::new();
            }
            sink.append(pending.pop().expect("refilled above"));
        }),
    );
    let bytes = journal.to_bytes();
    m.insert("journal.to_bytes_ns_per_entry", probe(100, 1, || journal.to_bytes()) / entries);
    m.insert(
        "journal.parse_ns_per_entry",
        probe(100, 1, || Journal::from_bytes_tolerant(&bytes)) / entries,
    );
    m.insert(
        "journal.replay_ns_per_entry",
        probe(40, 1, || f.world.sharded.recover_shard(0, &journal)) / entries,
    );

    // --- core.audit: the three calls a coin's life makes ---
    let mut auditor = Auditor::new();
    let mut serial = 0u64;
    m.insert(
        "audit.on_commit_ns",
        probe(1000, 16, || {
            serial += 1;
            let coin = CoinId(Sha256::digest(&serial.to_le_bytes()));
            auditor.on_mint(coin);
            auditor.on_binding(coin, 1);
            auditor.on_deposit(coin);
        }) / 3.0,
    );
    assert!(auditor.ok());

    // --- core.shard: the router, on a deposit frame ---
    let holder = &f.peers[2];
    let deposit =
        Request::Deposit(holder.request_deposit(coins[0], &mut rng).expect("holder 2 holds coin 0"));
    let frame = deposit.encode();
    let view = RequestView::parse(&frame).expect("own encoding parses");
    m.insert("shard.route_ns", probe(1000, 16, || f.world.sharded.shard_for(&view)));

    // --- net: an echo endpoint at the workload's mean frame size ---
    let mut net = Network::new();
    net.set_drain_threads(1);
    let echo = net
        .register_writer("echo", |_net, bytes: &[u8], out: &mut Vec<u8>| out.extend_from_slice(bytes));
    let echo_parallel = net.register_parallel("echo-parallel", |bytes: &[u8], out: &mut Vec<u8>| {
        out.extend_from_slice(bytes)
    });
    let client = net.register_writer("client", |_net, _bytes: &[u8], _out: &mut Vec<u8>| {});
    let mut payload = vec![0u8; frame_bytes.max(1)];
    rng.fill_bytes(&mut payload);
    let mut response = Vec::new();
    m.insert(
        "net.round_trip_ns",
        probe(1000, 16, || {
            net.request_into(client, echo, &payload, &mut response).expect("echo is online")
        }),
    );
    m.insert(
        "net.queue_ns_per_event",
        probe(200, 1, || {
            for _ in 0..64 {
                net.submit(client, echo_parallel, payload.clone());
            }
            assert_eq!(net.drain().len(), 64);
        }) / 64.0,
    );

    // --- core.micropay: direct calls, no net or codec ---
    let mut chain_rng = whopay_crypto::testing::test_rng(0x711C);
    let mut opened = Vec::new();
    m.insert(
        "micropay.open_us",
        probe(40, 1, || {
            opened.push(MicropaySender::open(&group, &gpk, &member, 16_384, 64, &mut chain_rng));
        }) / 1e3,
    );
    let mut host = MicropayHost::new(group.clone(), gpk.clone(), 16_384);
    let mut to_accept = opened.iter();
    m.insert(
        "micropay.accept_us",
        probe(40, 1, || {
            host.open(&to_accept.next().expect("as many as were opened").1)
                .expect("own commitment verifies");
        }) / 1e3,
    );
    let (mut sender, commitment) = opened.swap_remove(0);
    let chain_id = commitment.chain_id();
    m.insert(
        "micropay.tick_ns",
        probe(128, 64, || {
            let word = sender.pay(1).expect("8k of 16k links");
            host.tick(chain_id, word).expect("own tick verifies");
        }),
    );
    m.insert(
        "micropay.tick_batch_ns_per_tick",
        probe(64, 1, || {
            let words: Vec<_> = (0..64).map(|_| sender.pay(1).expect("4k more links")).collect();
            host.tick_batch(chain_id, &words).expect("own batch verifies");
        }) / 64.0,
    );

    // --- checkpointing folds every shard's journal; last, it mutates ---
    let started = Instant::now();
    f.world.sharded.checkpoint_journals();
    m.insert("journal.checkpoint_ms", started.elapsed().as_secs_f64() * 1e3);
    m
}
