//! Byzantine-DHT regression: binding lookups verified against the
//! broker's Merkle commitment survive nodes that serve stale or forged
//! records.
//!
//! The DSD trusts whichever node serves a binding record. An honest
//! cluster validates writes (signature + monotonic version), but a
//! *Byzantine* node skips validation and serves whatever it likes:
//! yesterday's record (a stale replay hiding a rebinding), a record
//! signed by an attacker instead of the coin key, or bit-rotted bytes.
//! [`dsd::read_public_state_verified`] closes this hole: the payee
//! fetches a [`BindingProof`] from the broker — the committed coin leaf,
//! a Merkle path, and a signed `(root, seq)` — and checks the served
//! record against it before trusting a word of it.
//!
//! Each test pins one attack: the honest path succeeds (including
//! fetching the proof over a 2%-fault network with retries), a stale
//! replay raises [`CoreError::StaleBinding`], a forged owner raises
//! [`CoreError::BadSignature`], an equivocation at the committed
//! sequence raises [`CoreError::PublicBindingMismatch`], a proof for the
//! wrong coin raises [`CoreError::BadProof`], and tampered record bytes
//! never verify. Where the plain [`dsd::read_public_state`] would have
//! accepted the hostile record, the test says so — that contrast is the
//! point of the proof-checked path.

use std::sync::Arc;

use whopay::core::codec::Writer as WireWriter;
use whopay::core::service::{
    self, attach_client, attach_shard_endpoints, install_wire_classifier, retry, shared_clock,
};
use whopay::core::{
    dsd, CoreError, Judge, Peer, PeerId, PurchaseMode, ShardedBroker, SystemParams, Timestamp,
};
use whopay::crypto::dsa::DsaKeyPair;
use whopay::crypto::testing::{test_rng, tiny_group};
use whopay::dht::{Dht, DhtConfig, RingId, SignedRecord, Writer};
use whopay::net::{
    FaultInjector, FaultPlan, FaultRates, Network, RetryPolicy, TamperInjector, TamperPlan,
    TamperTarget,
};
use whopay::num::BigUint;
use whopay::obs::Obs;

struct World {
    params: SystemParams,
    /// One shard: the broker is not partitioned here.
    broker: Arc<ShardedBroker>,
    peers: Vec<Peer>,
    dht: Dht,
    entry: RingId,
    rng: rand::rngs::StdRng,
}

fn world(seed: u64) -> World {
    let mut rng = test_rng(seed);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let broker = Arc::new(ShardedBroker::new(params.clone(), judge.public_key().clone(), 1, &mut rng));
    let peers: Vec<Peer> = (0..3u64)
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
    let mut dht = Dht::new(params.group().clone(), broker.public_key().clone(), DhtConfig::default());
    for _ in 0..16 {
        dht.join(RingId::random(&mut rng));
    }
    let entry = dht.node_ids()[0];
    World { params, broker, peers, dht, entry, rng }
}

/// Drives one coin to a broker-committed downtime binding: peer 0 mints
/// and issues to peer 1, publishes the owner binding, then peer 1 pays
/// peer 2 through the broker's downtime path (owner dark) and the broker
/// publishes the rebinding. Afterwards the broker's committed leaf for
/// the coin carries `Some(binding)` — the anchor every freshness check
/// in this file verifies against. Returns the coin and its public key.
fn coin_with_committed_binding(w: &mut World) -> (whopay::core::types::CoinId, BigUint) {
    let now = Timestamp(0);
    let (req, pending) = w.peers[0].create_purchase_request(PurchaseMode::Identified, &mut w.rng);
    let minted = w.broker.handle_purchase(&req, &mut w.rng).unwrap();
    let coin = w.peers[0].complete_purchase(minted, pending, now, &mut w.rng).unwrap();
    let (invite, session) = w.peers[1].begin_receive(&mut w.rng);
    let grant = w.peers[0].issue_coin(coin, &invite, now, &mut w.rng).unwrap();
    w.peers[1].accept_grant(grant, session, now).unwrap();
    dsd::publish_owner_binding(&w.peers[0], coin, &mut w.dht, w.entry, &mut w.rng, &Obs::disabled())
        .unwrap();

    // Owner goes dark; the broker serves the transfer and publishes the
    // rebinding itself, committing it to the ledger as it goes.
    let (invite2, session2) = w.peers[2].begin_receive(&mut w.rng);
    let treq = w.peers[1].request_transfer(coin, &invite2, &mut w.rng).unwrap();
    let grant2 = w.broker.handle_downtime_transfer(&treq, Timestamp(10), &mut w.rng).unwrap();
    w.broker.lock_shard(0).publish_binding(&grant2.binding, &mut w.dht, w.entry, &mut w.rng).unwrap();
    w.peers[2].accept_grant(grant2, session2, Timestamp(10)).unwrap();
    w.peers[1].complete_transfer(coin);

    let coin_pk = w.peers[0].owned_coin(&coin).unwrap().minted.coin_pk().clone();
    (coin, coin_pk)
}

/// Builds a hostile record over `value` at `version`, signed by `keys`
/// as the subject — the shape a Byzantine node serves when the signing
/// key is wrong (forgery) or the content lies (equivocation).
fn subject_record(
    w: &mut World,
    coin_pk: &BigUint,
    value: Vec<u8>,
    version: u64,
    keys: &DsaKeyPair,
) -> SignedRecord {
    let msg = SignedRecord::signed_bytes(coin_pk, &value, version, Writer::Subject);
    SignedRecord {
        subject: coin_pk.clone(),
        value,
        version,
        writer: Writer::Subject,
        signature: keys.sign(w.params.group(), &msg, &mut w.rng),
    }
}

#[test]
fn honest_lookup_verifies_against_the_committed_leaf() {
    let mut w = world(0xB12A_0001);
    let (coin, coin_pk) = coin_with_committed_binding(&mut w);

    let proof = w.broker.binding_proof(&coin, &mut w.rng).expect("ledger is on by default");
    proof.verify(w.params.group(), w.broker.public_key()).expect("fresh proof verifies");
    let committed = proof.leaf.binding.clone().expect("downtime path left a committed binding");

    // The honest cluster serves the broker's own rebinding; the verified
    // read accepts it and it matches the committed leaf exactly.
    let state = dsd::read_public_state_verified(
        &mut w.dht,
        w.entry,
        &coin_pk,
        &proof,
        w.params.group(),
        w.broker.public_key(),
        &Obs::disabled(),
    )
    .expect("honest record passes the commitment check");
    assert_eq!(state, committed, "served state is the committed state");
    assert_eq!(state.seq, committed.seq);
}

#[test]
fn proof_fetch_over_a_faulty_network_succeeds_with_retries() {
    // The payee does not need a clean channel to the broker to get its
    // anchor: under a 2% drop/duplicate/corrupt/timeout storm the retry
    // loop still lands a proof, and the proof still verifies.
    let mut w = world(0xB12A_0002);
    let (coin, coin_pk) = coin_with_committed_binding(&mut w);

    let mut net = Network::new();
    install_wire_classifier(&mut net);
    let broker_ep =
        attach_shard_endpoints(&mut net, w.broker.clone(), shared_clock(Timestamp(20)), 77)[0];
    let payee_ep = attach_client(&mut net, "payee");
    let plan = FaultPlan::new().with_default(FaultRates {
        drop: 0.02,
        duplicate: 0.02,
        corrupt: 0.02,
        timeout: 0.02,
    });
    net.install_faults(FaultInjector::new(plan, 0xB12A ^ 0xFA17));

    let policy = RetryPolicy::new(8).backoff(10, 1_000).budget(100_000);
    let proof = retry(
        &mut net,
        payee_ep,
        broker_ep,
        service::binding_proof(coin),
        &policy,
        &mut w.rng,
        &Obs::disabled(),
    )
    .expect("retries beat a 2% fault storm");
    assert_eq!(proof.leaf.coin, coin);
    proof.verify(w.params.group(), w.broker.public_key()).expect("network-fetched proof verifies");

    let state = dsd::read_public_state_verified(
        &mut w.dht,
        w.entry,
        &coin_pk,
        &proof,
        w.params.group(),
        w.broker.public_key(),
        &Obs::disabled(),
    )
    .expect("verified lookup with a network-fetched proof");
    assert_eq!(Some(state), proof.leaf.binding);
}

#[test]
fn stale_replay_is_rejected_where_plain_read_accepts_it() {
    let mut w = world(0xB12A_0003);

    // Capture the owner's published record *before* the downtime
    // rebinding — a perfectly signed, perfectly decodable record that is
    // simply out of date once the broker commits the transfer.
    let now = Timestamp(0);
    let (req, pending) = w.peers[0].create_purchase_request(PurchaseMode::Identified, &mut w.rng);
    let minted = w.broker.handle_purchase(&req, &mut w.rng).unwrap();
    let coin = w.peers[0].complete_purchase(minted, pending, now, &mut w.rng).unwrap();
    let (invite, session) = w.peers[1].begin_receive(&mut w.rng);
    let grant = w.peers[0].issue_coin(coin, &invite, now, &mut w.rng).unwrap();
    w.peers[1].accept_grant(grant, session, now).unwrap();
    dsd::publish_owner_binding(&w.peers[0], coin, &mut w.dht, w.entry, &mut w.rng, &Obs::disabled())
        .unwrap();
    let coin_pk = w.peers[0].owned_coin(&coin).unwrap().minted.coin_pk().clone();
    let stale = w.dht.get(w.entry, dsd::binding_key(&coin_pk)).expect("owner record published");

    let (invite2, session2) = w.peers[2].begin_receive(&mut w.rng);
    let treq = w.peers[1].request_transfer(coin, &invite2, &mut w.rng).unwrap();
    let grant2 = w.broker.handle_downtime_transfer(&treq, Timestamp(10), &mut w.rng).unwrap();
    w.broker.lock_shard(0).publish_binding(&grant2.binding, &mut w.dht, w.entry, &mut w.rng).unwrap();
    w.peers[2].accept_grant(grant2, session2, Timestamp(10)).unwrap();
    w.peers[1].complete_transfer(coin);

    let proof = w.broker.binding_proof(&coin, &mut w.rng).unwrap();
    let committed = proof.leaf.binding.clone().expect("rebinding was committed");
    assert!(stale.version < committed.seq, "the captured record predates the rebinding");

    // A Byzantine node replays the stale record. Its signature is
    // genuine and its version monotone from an empty store, so even an
    // *honest* fresh cluster accepts and serves it...
    let mut byz =
        Dht::new(w.params.group().clone(), w.broker.public_key().clone(), DhtConfig::default());
    byz.join(RingId::random(&mut w.rng));
    let byz_entry = byz.node_ids()[0];
    byz.put(byz_entry, stale.clone()).expect("a valid old record re-enters an empty cluster");

    // ...and the unverified read trusts it: the payee would hand the
    // coin to a holder the broker already rebound away from.
    let replayed = dsd::read_public_state(&mut byz, byz_entry, &coin_pk).unwrap();
    assert_eq!(replayed.seq, stale.version, "plain read accepts the replay");

    // The proof-checked read catches the replay by sequence.
    let err = dsd::read_public_state_verified(
        &mut byz,
        byz_entry,
        &coin_pk,
        &proof,
        w.params.group(),
        w.broker.public_key(),
        &Obs::disabled(),
    )
    .unwrap_err();
    match err {
        CoreError::StaleBinding { expected_seq, presented_seq } => {
            assert_eq!(expected_seq, committed.seq);
            assert_eq!(presented_seq, stale.version);
        }
        other => panic!("stale replay misclassified as {other:?}"),
    }
}

#[test]
fn forged_owner_is_rejected_where_plain_decode_accepts_it() {
    let mut w = world(0xB12A_0004);
    let (coin, coin_pk) = coin_with_committed_binding(&mut w);
    let proof = w.broker.binding_proof(&coin, &mut w.rng).unwrap();
    let committed = proof.leaf.binding.clone().unwrap();

    // The attacker names itself holder at a sequence *past* the
    // commitment, so the freshness check alone cannot object — only the
    // coin-key signature stands between the forgery and acceptance.
    let attacker = DsaKeyPair::generate(w.params.group(), &mut w.rng);
    let forged_seq = committed.seq + 1;
    let value = {
        let mut wr = WireWriter::new();
        wr.int(attacker.public().element()).u64(forged_seq).u64(committed.expires.0);
        wr.finish()
    };
    let forged = subject_record(&mut w, &coin_pk, value, forged_seq, &attacker);

    // Honest storage refuses the write outright — the forgery can only
    // reach a payee through a node that skips validation.
    assert!(w.dht.put(w.entry, forged.clone()).is_err(), "honest cluster rejects the forgery");

    // A Byzantine node plants it anyway, and the unverified read through
    // the *real* lookup path swallows the lie whole: the payload decodes
    // cleanly and names the attacker as holder.
    w.dht.inject_byzantine_record(forged);
    let lie = dsd::read_public_state(&mut w.dht, w.entry, &coin_pk).unwrap();
    assert_eq!(&lie.holder_pk, attacker.public().element(), "plain read accepts the forgery");

    // The proof-checked read over the same cluster rejects it.
    let err = dsd::read_public_state_verified(
        &mut w.dht,
        w.entry,
        &coin_pk,
        &proof,
        w.params.group(),
        w.broker.public_key(),
        &Obs::disabled(),
    )
    .unwrap_err();
    assert!(matches!(err, CoreError::BadSignature), "forged owner detected as {err:?}");
}

#[test]
fn equivocation_at_the_committed_sequence_is_rejected() {
    let mut w = world(0xB12A_0005);
    let (coin, coin_pk) = coin_with_committed_binding(&mut w);
    let proof = w.broker.binding_proof(&coin, &mut w.rng).unwrap();
    let committed = proof.leaf.binding.clone().unwrap();

    // The *coin key itself* signs a record at exactly the committed
    // sequence but naming a different holder — an equivocating owner
    // telling one payee one story and the ledger another. The signature
    // and version both check out; only leaf equality catches the fork.
    let coin_keys = w.peers[0].owned_coin(&coin).unwrap().coin_keys.clone();
    let other = DsaKeyPair::generate(w.params.group(), &mut w.rng);
    let value = {
        let mut wr = WireWriter::new();
        wr.int(other.public().element()).u64(committed.seq).u64(committed.expires.0);
        wr.finish()
    };
    let fork = subject_record(&mut w, &coin_pk, value, committed.seq, &coin_keys);
    assert!(fork.verify(w.params.group(), w.broker.public_key()), "the fork is genuinely signed");

    w.dht.inject_byzantine_record(fork);
    let err = dsd::read_public_state_verified(
        &mut w.dht,
        w.entry,
        &coin_pk,
        &proof,
        w.params.group(),
        w.broker.public_key(),
        &Obs::disabled(),
    )
    .unwrap_err();
    assert!(matches!(err, CoreError::PublicBindingMismatch), "equivocation detected as {err:?}");
}

#[test]
fn proof_for_a_different_coin_proves_nothing() {
    let mut w = world(0xB12A_0006);
    let (coin, coin_pk) = coin_with_committed_binding(&mut w);

    // Mint a second, unrelated coin and take *its* (valid!) proof.
    let now = Timestamp(0);
    let (req, pending) = w.peers[0].create_purchase_request(PurchaseMode::Identified, &mut w.rng);
    let minted = w.broker.handle_purchase(&req, &mut w.rng).unwrap();
    let other_coin = w.peers[0].complete_purchase(minted, pending, now, &mut w.rng).unwrap();
    assert_ne!(coin, other_coin);
    let wrong_proof = w.broker.binding_proof(&other_coin, &mut w.rng).unwrap();
    wrong_proof.verify(w.params.group(), w.broker.public_key()).expect("valid for its own coin");

    // A Byzantine node pairing coin A's record with coin B's proof must
    // not launder the record past verification.
    let record = w.dht.get(w.entry, dsd::binding_key(&coin_pk)).unwrap();
    let err =
        dsd::verify_published_record(&record, &wrong_proof, w.params.group(), w.broker.public_key())
            .unwrap_err();
    assert!(matches!(err, CoreError::BadProof), "cross-coin proof detected as {err:?}");
}

#[test]
fn tampered_record_bytes_never_verify() {
    let mut w = world(0xB12A_0007);
    let (coin, coin_pk) = coin_with_committed_binding(&mut w);
    let proof = w.broker.binding_proof(&coin, &mut w.rng).unwrap();
    let honest = w.dht.get(w.entry, dsd::binding_key(&coin_pk)).unwrap();

    // Deterministically bit-rot the record's value bytes at a spread of
    // keyed positions — a Byzantine (or merely broken) node serving
    // corrupted storage. The record's signature covers the value, so
    // every flip must surface as a rejection, never as state.
    let mut inj = TamperInjector::new(TamperPlan::new(), 0xB12A_0007);
    for object in 0..32u64 {
        let mut hostile = honest.clone();
        let bit = inj.force(TamperTarget::Record, object, &mut hostile.value).expect("non-empty value");
        w.dht.inject_byzantine_record(hostile);
        let result = dsd::read_public_state_verified(
            &mut w.dht,
            w.entry,
            &coin_pk,
            &proof,
            w.params.group(),
            w.broker.public_key(),
            &Obs::disabled(),
        );
        match result {
            Err(
                CoreError::BadSignature
                | CoreError::Malformed
                | CoreError::StaleBinding { .. }
                | CoreError::PublicBindingMismatch,
            ) => {}
            Err(other) => panic!("bit {bit}: unexpected rejection {other:?}"),
            Ok(state) => panic!("bit {bit}: tampered record verified as {state:?}"),
        }
    }
    assert_eq!(inj.injected(), 32, "every probe flipped a bit");
    // Restoring the honest record restores acceptance — the rejections
    // above were the flips' doing, not a broken fixture.
    w.dht.inject_byzantine_record(honest);
    dsd::read_public_state_verified(
        &mut w.dht,
        w.entry,
        &coin_pk,
        &proof,
        w.params.group(),
        w.broker.public_key(),
        &Obs::disabled(),
    )
    .expect("honest record still verifies");
}
