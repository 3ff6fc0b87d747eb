//! A verifier checks each signed root once, and nothing else once.
//!
//! [`SignedRoot::verify`] remembers, per thread, the roots whose broker
//! signature it accepted, so a payee checking many proofs against one
//! root pays for the signature once. These tests pin what the memo must
//! not change: after a root is accepted, a root that differs from it in
//! any input of the verdict — sequence number, root bytes, either half of
//! the signature, the broker key, the group — is still refused; a proof
//! on an accepted root still walks its Merkle path on every call; a
//! forged root is refused every time it is asked; and an accepted root
//! vouches for no record the DSD serves beside it.

use whopay_core::dsd;
use whopay_core::{
    BindingProof, Broker, CoinId, CoreError, Judge, Peer, PeerId, PurchaseMode, SignedRoot,
    SystemParams, Timestamp,
};
use whopay_crypto::dsa::{DsaKeyPair, DsaSignature};
use whopay_crypto::testing::{small_group, test_rng, tiny_group};
use whopay_dht::{SignedRecord, Writer};
use whopay_num::BigUint;

struct World {
    params: SystemParams,
    broker: Broker,
    peers: Vec<Peer>,
    rng: rand::rngs::StdRng,
}

fn world(seed: u64) -> World {
    let mut rng = test_rng(seed);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let mut broker = Broker::new(params.clone(), judge.public_key().clone(), &mut rng);
    let peers = (0..3u64)
        .map(|i| {
            let gk = judge.enroll(PeerId(i), &mut rng);
            let peer = Peer::new(
                PeerId(i),
                params.clone(),
                broker.public_key().clone(),
                judge.public_key().clone(),
                gk,
                &mut rng,
            );
            broker.register_peer(PeerId(i), peer.public_key().clone());
            peer
        })
        .collect();
    World { params, broker, peers, rng }
}

/// Peer 0 buys a coin and issues it to peer 1, who pays peer 2 through
/// the broker's downtime path: the coin's committed leaf then carries a
/// broker-held binding. Returns the coin and its public key.
fn committed_coin(w: &mut World) -> (CoinId, BigUint) {
    let now = Timestamp(0);
    let (req, pending) = w.peers[0].create_purchase_request(PurchaseMode::Identified, &mut w.rng);
    let minted = w.broker.handle_purchase(&req, &mut w.rng).unwrap();
    let coin = w.peers[0].complete_purchase(minted, pending, now, &mut w.rng).unwrap();
    let (invite, session) = w.peers[1].begin_receive(&mut w.rng);
    let grant = w.peers[0].issue_coin(coin, &invite, now, &mut w.rng).unwrap();
    w.peers[1].accept_grant(grant, session, now).unwrap();
    let (invite, session) = w.peers[2].begin_receive(&mut w.rng);
    let treq = w.peers[1].request_transfer(coin, &invite, &mut w.rng).unwrap();
    let grant = w.broker.handle_downtime_transfer(&treq, Timestamp(10), &mut w.rng).unwrap();
    w.peers[2].accept_grant(grant, session, Timestamp(10)).unwrap();
    w.peers[1].complete_transfer(coin);
    let coin_pk = w.peers[0].owned_coin(&coin).unwrap().minted.coin_pk().clone();
    (coin, coin_pk)
}

/// A fresh world's proof for its committed coin, its root accepted once.
fn accepted_proof(seed: u64) -> (World, BindingProof) {
    let mut w = world(seed);
    let (coin, _) = committed_coin(&mut w);
    let proof = w.broker.binding_proof(&coin, &mut w.rng).expect("the ledger is on by default");
    assert_eq!(proof.verify(w.params.group(), w.broker.public_key()), Ok(()));
    (w, proof)
}

fn bumped(x: &BigUint) -> BigUint {
    x + &BigUint::one()
}

#[test]
fn an_accepted_root_still_refuses_every_changed_input() {
    let (w, proof) = accepted_proof(0x3E30_0001);
    let (group, broker_pk) = (w.params.group(), w.broker.public_key());
    let accepted = &proof.root;
    assert!(accepted.verify(group, broker_pk), "accepted again, from the memo");

    let sig = &accepted.sig;
    let variants: [(&str, SignedRoot); 4] = [
        ("seq + 1", SignedRoot { seq: accepted.seq + 1, ..accepted.clone() }),
        ("root bit", {
            let mut root = accepted.root;
            root[7] ^= 0x10;
            SignedRoot { root, ..accepted.clone() }
        }),
        (
            "r",
            SignedRoot {
                sig: DsaSignature::from_parts(bumped(sig.r()), sig.s().clone()),
                ..accepted.clone()
            },
        ),
        (
            "s",
            SignedRoot {
                sig: DsaSignature::from_parts(sig.r().clone(), bumped(sig.s())),
                ..accepted.clone()
            },
        ),
    ];
    for (what, variant) in &variants {
        for _ in 0..2 {
            assert!(!variant.verify(group, broker_pk), "{what}: refused");
            let tampered = BindingProof { root: variant.clone(), ..proof.clone() };
            assert_eq!(tampered.verify(group, broker_pk), Err(CoreError::BadSignature), "{what}");
        }
    }

    let mut rng = test_rng(0x3E30_00FF);
    let other_broker = DsaKeyPair::generate(group, &mut rng);
    assert!(!accepted.verify(group, other_broker.public()), "another broker key");
    assert_eq!(proof.verify(group, other_broker.public()), Err(CoreError::BadSignature));
    assert!(!accepted.verify(small_group(), broker_pk), "another group");
    assert_eq!(proof.verify(small_group(), broker_pk), Err(CoreError::BadSignature));

    // None of the refusals displaced the accepted root's verdict.
    assert_eq!(proof.verify(group, broker_pk), Ok(()));
}

#[test]
fn a_proof_on_an_accepted_root_still_checks_its_path() {
    let (w, proof) = accepted_proof(0x3E30_0002);
    let (group, broker_pk) = (w.params.group(), w.broker.public_key());
    assert!(!proof.proof.siblings.is_empty(), "a path with siblings to tamper with");

    let mut tampered = Vec::new();
    let mut p = proof.clone();
    p.leaf.deposited = !p.leaf.deposited;
    tampered.push(("leaf deposited flag", p));
    let mut p = proof.clone();
    p.leaf.aux[0] ^= 1;
    tampered.push(("leaf aux", p));
    let mut p = proof.clone();
    p.leaf.binding.as_mut().expect("a committed downtime binding").seq += 1;
    tampered.push(("leaf binding", p));
    let mut p = proof.clone();
    p.proof.siblings[0][31] ^= 0x80;
    tampered.push(("sibling", p));
    let mut p = proof.clone();
    p.proof.index ^= 1;
    tampered.push(("index", p));
    let mut p = proof.clone();
    p.proof.leaves += 1;
    tampered.push(("leaves", p));
    for (what, p) in &tampered {
        for _ in 0..2 {
            assert_eq!(p.verify(group, broker_pk), Err(CoreError::BadProof), "{what}");
        }
    }
    assert_eq!(proof.verify(group, broker_pk), Ok(()));
}

#[test]
fn a_forged_root_is_refused_every_time() {
    let mut w = world(0x3E30_0003);
    let (coin, _) = committed_coin(&mut w);
    let proof = w.broker.binding_proof(&coin, &mut w.rng).unwrap();
    let (group, broker_pk) = (w.params.group(), w.broker.public_key());
    // Asked before the genuine root is ever accepted, and again after.
    let forged = SignedRoot { seq: proof.root.seq + 1, ..proof.root.clone() };
    for _ in 0..2 {
        assert!(!forged.verify(group, broker_pk));
    }
    assert_eq!(proof.verify(group, broker_pk), Ok(()));
    for _ in 0..2 {
        assert!(!forged.verify(group, broker_pk));
        let p = BindingProof { root: forged.clone(), ..proof.clone() };
        assert_eq!(p.verify(group, broker_pk), Err(CoreError::BadSignature));
    }
}

#[test]
fn an_accepted_root_vouches_for_no_forged_record() {
    let (mut w, proof) = accepted_proof(0x3E30_0004);
    let committed = proof.leaf.binding.clone().expect("a committed downtime binding");
    let coin_pk = w.peers[0].owned_coin(&proof.leaf.coin).unwrap().minted.coin_pk().clone();

    // An attacker names itself holder past the committed sequence and
    // signs the record with its own key instead of the coin key.
    let attacker = DsaKeyPair::generate(w.params.group(), &mut w.rng);
    let version = committed.seq + 1;
    let value = {
        let mut wr = whopay_core::codec::Writer::new();
        wr.int(attacker.public().element()).u64(version).u64(committed.expires.0);
        wr.finish()
    };
    let msg = SignedRecord::signed_bytes(&coin_pk, &value, version, Writer::Subject);
    let forged = SignedRecord {
        subject: coin_pk.clone(),
        value,
        version,
        writer: Writer::Subject,
        signature: attacker.sign(w.params.group(), &msg, &mut w.rng),
    };
    for _ in 0..2 {
        let verdict =
            dsd::verify_published_record(&forged, &proof, w.params.group(), w.broker.public_key());
        assert_eq!(verdict, Err(CoreError::BadSignature));
    }
}
