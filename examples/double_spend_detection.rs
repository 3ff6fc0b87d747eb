//! Real-time double-spending detection (§5.1), end to end.
//!
//! A dishonest coin owner tries to spend the same coin twice. The public
//! binding list — a Chord DHT where only the coin key (or the broker) can
//! write each coin's record — catches it twice over:
//!
//! 1. the *payee check*: the second payee refuses payment because the
//!    public binding does not match the grant it was offered;
//! 2. the *holder monitor*: the honest holder is notified the moment its
//!    coin's public binding moves, and reports the conflicting bindings
//!    (self-incriminating evidence only the owner could have signed).
//!
//! Run with: `cargo run --release --example double_spend_detection`

use whopay::core::{dsd, Broker, Judge, Peer, PeerId, PurchaseMode, SystemParams, Timestamp};
use whopay::crypto::dsa::DsaKeyPair;
use whopay::crypto::testing;
use whopay::dht::{Dht, DhtConfig, RingId, SignedRecord, Writer};
use whopay::obs::Obs;

fn main() {
    let mut rng = testing::test_rng(1337);
    let params = SystemParams::new(testing::tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let mut broker = Broker::new(params.clone(), judge.public_key().clone(), &mut rng);

    let mut peers: Vec<Peer> = (0..3u64)
        .map(|i| {
            let gk = judge.enroll(PeerId(i), &mut rng);
            let p = Peer::new(
                PeerId(i),
                params.clone(),
                broker.public_key().clone(),
                judge.public_key().clone(),
                gk,
                &mut rng,
            );
            broker.register_peer(PeerId(i), p.public_key().clone());
            p
        })
        .collect();

    // The trusted DHT infrastructure: 16 nodes, 3x replication.
    let mut dht = Dht::new(params.group().clone(), broker.public_key().clone(), DhtConfig::default());
    for _ in 0..16 {
        dht.join(RingId::random(&mut rng));
    }
    let entry = dht.node_ids()[0];
    println!("DHT ready: {} nodes, replication 3\n", dht.node_count());

    let now = Timestamp(0);

    // Mallory (peer 0) buys a coin and publishes its initial binding.
    let (req, pending) = peers[0].create_purchase_request(PurchaseMode::Identified, &mut rng);
    let minted = broker.handle_purchase(&req, &mut rng).unwrap();
    let coin = peers[0].complete_purchase(minted, pending, now, &mut rng).unwrap();
    dsd::publish_owner_binding(&peers[0], coin, &mut dht, entry, &mut rng, &Obs::disabled()).unwrap();
    println!("mallory owns {coin}; initial binding published");

    // She issues it to honest Bob (peer 1), publishing faithfully — Bob
    // verifies the public binding before accepting, then monitors it.
    let (invite, session) = peers[1].begin_receive(&mut rng);
    let grant = peers[0].issue_coin(coin, &invite, now, &mut rng).unwrap();
    dsd::publish_owner_binding(&peers[0], coin, &mut dht, entry, &mut rng, &Obs::disabled()).unwrap();
    dsd::verify_grant_published(&mut dht, entry, &grant, &Obs::disabled())
        .expect("public binding matches");
    let held_seq = grant.binding.seq();
    let coin_pk = grant.minted.coin_pk().clone();
    peers[1].accept_grant(grant, session, now).unwrap();

    let mut monitor = dsd::HoldingMonitor::new();
    monitor.watch(&mut dht, coin, &coin_pk, held_seq);
    println!("bob accepted the coin (seq {held_seq}) and is monitoring its public binding\n");

    // Mallory now double-spends: she signs a *conflicting* binding for a
    // fabricated holder key (she knows the coin's private key, so the DHT
    // must accept her write) hoping to pay Carol with the same coin.
    let fake_holder = DsaKeyPair::generate(params.group(), &mut rng);
    let conflicting = {
        let owned = peers[0].owned_coin(&coin).unwrap();
        let mut value = whopay::core::codec::Writer::new();
        value.int(fake_holder.public().element()).u64(held_seq + 1).u64(999_999);
        let value = value.finish();
        let msg = SignedRecord::signed_bytes(&coin_pk, &value, held_seq + 1, Writer::Subject);
        SignedRecord {
            subject: coin_pk.clone(),
            value,
            version: held_seq + 1,
            writer: Writer::Subject,
            signature: owned.coin_keys.sign(params.group(), &msg, &mut rng),
        }
    };
    dht.put(entry, conflicting).unwrap();
    println!("mallory published a conflicting binding (seq {})…", held_seq + 1);

    // Detection 1: Bob's monitor fires immediately.
    let alarms = monitor.poll(&mut dht, &Obs::disabled());
    assert_eq!(alarms.len(), 1);
    println!(
        "ALARM: bob's coin {} moved from seq {} to seq {} while he holds it",
        alarms[0].coin, alarms[0].held_seq, alarms[0].observed_seq
    );

    // Detection 2: Carol, offered the *original* grant replayed by some
    // accomplice, checks the public list and refuses.
    let (invite_c, _session_c) = peers[2].begin_receive(&mut rng);
    let replay = peers[0].owned_coin(&coin).unwrap();
    let _ = (&invite_c, replay);
    let stale_check = dsd::read_public_state(&mut dht, entry, &coin_pk).unwrap();
    assert!(stale_check.seq > held_seq);
    println!(
        "carol's payee check sees seq {} ≠ offered seq {} → payment refused",
        stale_check.seq, held_seq
    );

    // Bob reports the fraud; the broker records it and the judge can be
    // called in. Mallory's coin ownership is on the coin itself, so she is
    // identified without any group-signature opening.
    broker.report_fraud(coin, format!("public binding conflict at seq {}", held_seq + 1), Vec::new());
    println!("\nfraud recorded against the coin's owner: {:?}", peers[0].id());
    assert_eq!(broker.fraud_cases().len(), 1);

    // Negative control: a non-owner cannot tamper with the public list at
    // all — the DHT's access control rejects the write.
    let mallory2 = DsaKeyPair::generate(params.group(), &mut rng);
    let forged = {
        let mut value = whopay::core::codec::Writer::new();
        value.int(mallory2.public().element()).u64(held_seq + 2).u64(999_999);
        let value = value.finish();
        let msg = SignedRecord::signed_bytes(&coin_pk, &value, held_seq + 2, Writer::Subject);
        SignedRecord {
            subject: coin_pk.clone(),
            value,
            version: held_seq + 2,
            writer: Writer::Subject,
            signature: mallory2.sign(params.group(), &msg, &mut rng),
        }
    };
    let err = dht.put(entry, forged).unwrap_err();
    println!("outsider write to the coin's binding rejected by the DHT: {err}");
    println!("\nDHT stats: {:?}", dht.stats());
}
