//! What the broker signs, verifies and counts — once each.
//!
//! * A committed `(root, seq)` is signed once, however many proofs are
//!   served against it, and never outlives the state it commits to.
//! * A deposit presenting, bit for bit, the binding the broker itself
//!   signed and stored verifies no binding; one that differs is verified.
//! * Every refusal, whichever handler and whichever reason, bumps
//!   `BrokerStats::rejections` exactly once and survives recovery.
//! * A deposited coin is spent on the downtime path too: no binding it
//!   ever had buys a transfer or a renewal again.

use whopay_core::micropay::MicropaySender;
use whopay_core::{
    Binding, Broker, CoinId, CoreError, DepositRequest, Journal, Judge, MintedCoin, OwnerTag, Peer,
    PeerId, PurchaseMode, PurchaseRequest, RedeemChainRequest, ShardedBroker, SystemParams, Timestamp,
    TransferRequest,
};
use whopay_crypto::dsa::DsaSignature;
use whopay_crypto::group_sig::GroupPublicKey;
use whopay_crypto::payword::Payword;
use whopay_crypto::testing::{test_rng, tiny_group};
use whopay_num::BigUint;

const NOW: Timestamp = Timestamp(0);

struct World {
    params: SystemParams,
    gpk: GroupPublicKey,
    judge: Judge,
    broker: Broker,
    /// Peers 0..3 are registered; peer 3 is not.
    peers: Vec<Peer>,
    rng: rand::rngs::StdRng,
}

fn world(seed: u64) -> World {
    let mut rng = test_rng(seed);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let gpk = judge.public_key().clone();
    let mut broker = Broker::new(params.clone(), gpk.clone(), &mut rng);
    broker.enable_journal();
    let peers = (0..4u64)
        .map(|id| {
            let gk = judge.enroll(PeerId(id), &mut rng);
            let peer = Peer::new(
                PeerId(id),
                params.clone(),
                broker.public_key().clone(),
                gpk.clone(),
                gk,
                &mut rng,
            );
            if id < 3 {
                broker.register_peer(PeerId(id), peer.public_key().clone());
            }
            peer
        })
        .collect();
    World { params, gpk, judge, broker, peers, rng }
}

impl World {
    /// Peer 0 buys a coin and issues it to peer 1.
    fn coin_held_by_peer_1(&mut self) -> CoinId {
        let (request, pending) =
            self.peers[0].create_purchase_request(PurchaseMode::Identified, &mut self.rng);
        let minted = self.broker.handle_purchase(&request, &mut self.rng).expect("purchase");
        let coin =
            self.peers[0].complete_purchase(minted, pending, NOW, &mut self.rng).expect("own coin");
        let (invite, session) = self.peers[1].begin_receive(&mut self.rng);
        let grant = self.peers[0].issue_coin(coin, &invite, NOW, &mut self.rng).expect("issue");
        self.peers[1].accept_grant(grant, session, NOW).expect("issued grant");
        coin
    }

    /// `from` hands `coin` to `to` through the broker's downtime path.
    fn downtime_transfer(&mut self, coin: CoinId, from: usize, to: usize) -> TransferRequest {
        let (invite, session) = self.peers[to].begin_receive(&mut self.rng);
        let request = self.peers[from].request_transfer(coin, &invite, &mut self.rng).expect("holder");
        let grant = self
            .broker
            .handle_downtime_transfer(&request, NOW, &mut self.rng)
            .expect("downtime transfer");
        self.peers[to].accept_grant(grant, session, NOW).expect("broker grant");
        self.peers[from].complete_transfer(coin);
        request
    }
}

fn tampered(sig: &DsaSignature) -> DsaSignature {
    DsaSignature::from_parts(sig.r().clone(), sig.s() + &BigUint::one())
}

#[test]
fn a_committed_root_is_signed_once_and_never_outlives_its_state() {
    let mut w = world(0x51C0);
    let a = w.coin_held_by_peer_1();
    let b = w.coin_held_by_peer_1();
    let group = w.params.group().clone();
    let pk = w.broker.public_key().clone();

    // Between two commits: one signature, whichever coin is asked about,
    // and no further draw from the caller's generator.
    let first = w.broker.binding_proof(&a, &mut w.rng).expect("known coin");
    let mut untouched = test_rng(1);
    let second = w.broker.binding_proof(&b, &mut untouched).expect("known coin");
    let third = w.broker.signed_root(&mut untouched).expect("ledger on");
    assert_eq!(rand::Rng::next_u64(&mut untouched), rand::Rng::next_u64(&mut test_rng(1)));
    assert_eq!(first.root, second.root);
    assert_eq!(first.root, third);
    first.verify(&group, &pk).expect("proof a");
    second.verify(&group, &pk).expect("proof b");

    // The first proof after any mutation carries a new one: a served
    // request, a refused one, a registration, a checkpoint, the ledger
    // switching off and on.
    let mut last = first.root;
    type Mutation = fn(&mut World, CoinId);
    let mutations: [(&str, Mutation); 5] = [
        ("served request", |w, a| drop(w.downtime_transfer(a, 1, 2))),
        ("refused request", |w, _| {
            let _ = w.broker.sync_for_owner(PeerId(77), b"challenge", &tampered_any());
        }),
        ("registration", |w, _| {
            let key = w.peers[3].public_key().clone();
            w.broker.register_peer(PeerId(3), key)
        }),
        ("checkpoint", |w, _| w.broker.checkpoint_journal()),
        ("ledger switch", |w, _| {
            w.broker.set_ledger_enabled(false);
            assert!(w.broker.signed_root(&mut w.rng).is_none());
            w.broker.set_ledger_enabled(true);
        }),
    ];
    for (what, mutate) in mutations {
        mutate(&mut w, a);
        let proof = w.broker.binding_proof(&b, &mut w.rng).expect("known coin");
        assert_ne!(proof.root, last, "after a {what}");
        if what != "ledger switch" {
            // (With the ledger re-based the sequence restarts; the proof
            // is still good.)
            assert!(proof.root.seq > last.seq, "after a {what}");
        }
        proof.verify(&group, &pk).expect("fresh proof");
        assert_eq!(w.broker.binding_proof(&a, &mut w.rng).expect("known coin").root, proof.root);
        last = proof.root;
    }
}

/// Some well-formed signature (never valid for what it is presented with).
fn tampered_any() -> DsaSignature {
    DsaSignature::from_parts(BigUint::from(5u64), BigUint::from(7u64))
}

#[test]
fn a_recovered_shard_never_serves_a_pre_crash_signature() {
    let mut rng = test_rng(0x5A4D);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let gpk = judge.public_key().clone();
    let sharded = ShardedBroker::new(params.clone(), gpk.clone(), 2, &mut rng);
    sharded.enable_journals();
    let gk = judge.enroll(PeerId(1), &mut rng);
    let mut peer =
        Peer::new(PeerId(1), params.clone(), sharded.public_key().clone(), gpk, gk, &mut rng);
    sharded.register_peer(PeerId(1), peer.public_key().clone());
    let (request, pending) = peer.create_purchase_request(PurchaseMode::Identified, &mut rng);
    let minted = sharded.handle_purchase(&request, &mut rng).expect("purchase");
    let coin = peer.complete_purchase(minted, pending, NOW, &mut rng).expect("own coin");
    let shard = sharded.shard_of_coin(&coin);

    let before = sharded.binding_proof(&coin, &mut rng).expect("known coin");
    assert_eq!(sharded.binding_proof(&coin, &mut rng).expect("known coin").root, before.root);
    let journal =
        Journal::from_bytes(&sharded.journal_bytes(shard).expect("journalling")).expect("decodes");
    sharded.recover_shard(shard, &journal);
    let after = sharded.binding_proof(&coin, &mut rng).expect("recovered coin");
    assert_ne!(after.root, before.root);
    assert_ne!(after.root.sig, before.root.sig);
    after.verify(params.group(), sharded.public_key()).expect("recovered proof");
    assert!(sharded.audit_ok());
}

#[test]
fn a_deposit_presenting_the_stored_binding_verifies_no_binding() {
    let mut w = world(0xDE90);
    let coin = w.coin_held_by_peer_1();
    w.downtime_transfer(coin, 1, 2);
    let deposit = w.peers[2].request_deposit(coin, &mut w.rng).expect("holder");
    let (hits, misses) = (w.broker.sig_cache().hits(), w.broker.sig_cache().misses());

    // Same fields, another signature: not the stored binding, so it is
    // verified — and refused, at the cost of exactly that verification.
    let b = &deposit.binding;
    let resigned = Binding::from_parts(
        b.coin_pk().clone(),
        b.holder_pk().clone(),
        b.seq(),
        b.expires(),
        b.signer(),
        tampered(b.raw_sig()),
    );
    let forged = DepositRequest { binding: resigned, ..deposit.clone() };
    assert!(matches!(w.broker.handle_deposit(&forged, NOW), Err(CoreError::BadSignature)));
    let cache = w.broker.sig_cache();
    assert_eq!((cache.hits(), cache.misses()), (hits + 1, misses + 1), "mint hit, binding miss");

    // The stored binding itself: the mint signature hits, the holder
    // signature is the only thing verified.
    w.broker.handle_deposit(&deposit, NOW).expect("deposit");
    let cache = w.broker.sig_cache();
    assert_eq!((cache.hits(), cache.misses()), (hits + 2, misses + 2), "mint hit, holder miss");
    assert!(w.broker.audit().ok());
}

#[test]
fn every_refusal_counts_once_and_survives_recovery() {
    let mut w = world(0x4EF5);
    let group = w.params.group().clone();
    let gpk = w.gpk.clone();
    let coin = w.coin_held_by_peer_1();
    let stale = w.downtime_transfer(coin, 1, 2);
    let spent = w.coin_held_by_peer_1();
    let spent_deposit = w.peers[1].request_deposit(spent, &mut w.rng).expect("holder");
    w.broker.handle_deposit(&spent_deposit, NOW).expect("first deposit");
    let again = w.peers[1].request_deposit(spent, &mut w.rng).expect("still in the wallet");

    let deposit = w.peers[2].request_deposit(coin, &mut w.rng).expect("holder");
    let renewal = w.peers[2].request_renewal(coin, &mut w.rng).expect("holder");
    let (invite, _) = w.peers[1].begin_receive(&mut w.rng);
    let transfer = w.peers[2].request_transfer(coin, &invite, &mut w.rng).expect("holder");
    let foreign_gsig = renewal.group_sig.clone();
    let ghost_pk = group.pow_g(&group.random_scalar(&mut w.rng));
    let ghost = DepositRequest {
        minted: MintedCoin::from_parts(
            OwnerTag::Anonymous,
            ghost_pk,
            deposit.minted.broker_sig().clone(),
        ),
        ..deposit.clone()
    };
    let (purchase, _) = w.peers[0].create_purchase_request(PurchaseMode::Identified, &mut w.rng);
    let (anonymous, _) = w.peers[0].create_purchase_request(PurchaseMode::Anonymous, &mut w.rng);
    let (stranger, _) = w.peers[3].create_purchase_request(PurchaseMode::Identified, &mut w.rng);
    let challenge = b"sync challenge".to_vec();
    let response = w.peers[0].sign_identity_challenge(&challenge, &mut w.rng);

    let gk = w.judge.enroll(PeerId(50), &mut w.rng);
    let (mut sender, commitment) = MicropaySender::open(&group, &gpk, &gk, 32, 4, &mut w.rng);
    let w10 = (0..10).map(|_| sender.pay(1).expect("capacity")).last().expect("ten paywords");
    w.broker
        .handle_redeem_chain(&RedeemChainRequest { commitment: commitment.clone(), payword: w10 })
        .expect("first redemption");
    let redeem = |commitment: &whopay_core::ChainCommitment, index, word| RedeemChainRequest {
        commitment: commitment.clone(),
        payword: Payword { index, word },
    };
    let mut wider = commitment.clone();
    wider.capacity = 64;
    let (_, mut unsigned) = MicropaySender::open(&group, &gpk, &gk, 32, 4, &mut w.rng);
    unsigned.capacity = 48;

    type Case = (&'static str, Box<dyn FnOnce(&mut World) -> Option<CoreError>>);
    let cases: Vec<Case> = vec![
        ("purchase: key outside the subgroup", {
            let request = PurchaseRequest { coin_pk: BigUint::zero(), ..purchase.clone() };
            Box::new(move |w| w.broker.handle_purchase(&request, &mut w.rng).err())
        }),
        ("purchase: unknown peer", {
            Box::new(move |w| w.broker.handle_purchase(&stranger, &mut w.rng).err())
        }),
        ("purchase: identity signature missing", {
            let request = PurchaseRequest { identity_sig: None, ..purchase.clone() };
            Box::new(move |w| w.broker.handle_purchase(&request, &mut w.rng).err())
        }),
        ("purchase: identity signature forged", {
            let request = PurchaseRequest {
                identity_sig: purchase.identity_sig.as_ref().map(tampered),
                ..purchase
            };
            Box::new(move |w| w.broker.handle_purchase(&request, &mut w.rng).err())
        }),
        ("purchase: group signature missing", {
            let request = PurchaseRequest { group_sig: None, ..anonymous.clone() };
            Box::new(move |w| w.broker.handle_purchase(&request, &mut w.rng).err())
        }),
        ("purchase: group signature forged", {
            let request = PurchaseRequest { group_sig: Some(foreign_gsig.clone()), ..anonymous };
            Box::new(move |w| w.broker.handle_purchase(&request, &mut w.rng).err())
        }),
        ("deposit: unknown coin", Box::new(move |w| w.broker.handle_deposit(&ghost, NOW).err())),
        ("deposit: holder signature forged", {
            let request =
                DepositRequest { holder_sig: tampered(&deposit.holder_sig), ..deposit.clone() };
            Box::new(move |w| w.broker.handle_deposit(&request, NOW).err())
        }),
        ("deposit: expired", {
            let request = deposit.clone();
            Box::new(move |w| w.broker.handle_deposit(&request, request.binding.expires()).err())
        }),
        ("deposit: twice", Box::new(move |w| w.broker.handle_deposit(&again, NOW).err())),
        ("transfer: stale binding", {
            let request = TransferRequest { nonce: [9; 32], ..stale };
            Box::new(move |w| w.broker.handle_downtime_transfer(&request, NOW, &mut w.rng).err())
        }),
        ("transfer: group signature forged", {
            let request = TransferRequest { group_sig: foreign_gsig, ..transfer };
            Box::new(move |w| w.broker.handle_downtime_transfer(&request, NOW, &mut w.rng).err())
        }),
        ("renewal: holder signature forged", {
            let request =
                whopay_core::RenewalRequest { holder_sig: tampered(&renewal.holder_sig), ..renewal };
            Box::new(move |w| w.broker.handle_downtime_renewal(&request, NOW, &mut w.rng).err())
        }),
        ("sync: unknown peer", {
            let (challenge, response) = (challenge.clone(), response.clone());
            Box::new(move |w| w.broker.sync_for_owner(PeerId(77), &challenge, &response).err())
        }),
        ("sync: signature forged", {
            Box::new(move |w| {
                w.broker.sync_for_owner(PeerId(0), &challenge, &tampered(&response)).err()
            })
        }),
        ("anonymous sync: unknown coin", {
            Box::new(move |w| {
                w.broker.sync_anonymous_coin(&BigUint::from(4u64), b"c", &tampered_any()).err()
            })
        }),
        ("anonymous sync: signature forged", {
            let coin_pk = deposit.minted.coin_pk().clone();
            Box::new(move |w| w.broker.sync_anonymous_coin(&coin_pk, b"c", &tampered_any()).err())
        }),
        ("redeem: commitment altered", {
            let request = redeem(&wider, 12, [1; 32]);
            Box::new(move |w| w.broker.handle_redeem_chain(&request).err())
        }),
        ("redeem: commitment signature broken", {
            let request = redeem(&unsigned, 1, [1; 32]);
            Box::new(move |w| w.broker.handle_redeem_chain(&request).err())
        }),
        ("redeem: past capacity", {
            let request = redeem(&commitment, 33, [1; 32]);
            Box::new(move |w| w.broker.handle_redeem_chain(&request).err())
        }),
        ("redeem: behind the frontier", {
            let request = redeem(&commitment, 10, [1; 32]);
            Box::new(move |w| w.broker.handle_redeem_chain(&request).err())
        }),
        ("redeem: payword forged", {
            let request = redeem(&commitment, 12, [1; 32]);
            Box::new(move |w| w.broker.handle_redeem_chain(&request).err())
        }),
    ];

    let mut kinds = std::collections::HashSet::new();
    for (what, refuse) in cases {
        let before = w.broker.stats();
        let journalled = w.broker.journal().expect("journalling").len();
        let err = refuse(&mut w).unwrap_or_else(|| panic!("{what}: served"));
        let after = w.broker.stats();
        assert_eq!(after.rejections, before.rejections + 1, "{what}: {err}");
        assert_eq!(
            whopay_core::BrokerStats { rejections: before.rejections, ..after },
            before,
            "{what}: nothing else moves"
        );
        assert_eq!(w.broker.journal().expect("journalling").len(), journalled + 1, "{what}");
        kinds.insert(std::mem::discriminant(&err));
    }
    assert_eq!(kinds.len(), 10, "every kind of refusal a handler returns was exercised");

    let journal =
        Journal::from_bytes(&w.broker.journal().expect("journalling").to_bytes()).expect("decodes");
    let recovered = Broker::recover(w.params.clone(), w.gpk.clone(), w.broker.export_keys(), &journal);
    assert_eq!(recovered.stats(), w.broker.stats());
    assert_eq!(recovered.snapshot(), w.broker.snapshot());
    assert!(recovered.audit().ok());
}

#[test]
fn a_deposited_coin_is_dead_on_the_downtime_path_too() {
    let mut w = world(0xDEAD);
    let coin = w.coin_held_by_peer_1();
    // Peer 1 signs twice more for the owner-signed binding it is about to
    // transfer away; peer 2 ends up with a broker-signed one, and signs
    // for it three times over.
    let (invite, _) = w.peers[3].begin_receive(&mut w.rng);
    let old_renewal = w.peers[1].request_renewal(coin, &mut w.rng).expect("holder");
    let old_transfer = w.peers[1].request_transfer(coin, &invite, &mut w.rng).expect("holder");
    w.downtime_transfer(coin, 1, 2);
    let deposit = w.peers[2].request_deposit(coin, &mut w.rng).expect("holder");
    let renewal = w.peers[2].request_renewal(coin, &mut w.rng).expect("holder");
    let transfer = w.peers[2].request_transfer(coin, &invite, &mut w.rng).expect("holder");

    // While the coin circulates the stored binding keeps the old one out.
    let stale = w.broker.handle_downtime_transfer(&old_transfer, NOW, &mut w.rng);
    assert!(matches!(stale, Err(CoreError::StaleBinding { .. })), "{stale:?}");
    w.broker.handle_deposit(&deposit, NOW).expect("deposit");
    assert!(!w.broker.is_circulating(&coin));

    // The deposit cleared the stored binding and took over the replay
    // memo, so every binding the coin ever had would pass for flavor one:
    // the owner-signed one peer 1 gave up, and the one that was deposited.
    let served = w.broker.stats();
    let spent = Some(CoreError::DoubleSpend(coin));
    assert_eq!(w.broker.handle_downtime_transfer(&old_transfer, NOW, &mut w.rng).err(), spent);
    assert_eq!(w.broker.handle_downtime_renewal(&old_renewal, NOW, &mut w.rng).err(), spent);
    assert_eq!(w.broker.handle_downtime_transfer(&transfer, NOW, &mut w.rng).err(), spent);
    assert_eq!(w.broker.handle_downtime_renewal(&renewal, NOW, &mut w.rng).err(), spent);
    // A forged one is a bad request, not evidence against anybody.
    let forged = TransferRequest { holder_sig: tampered(&transfer.holder_sig), ..transfer };
    assert_eq!(
        w.broker.handle_downtime_transfer(&forged, NOW, &mut w.rng).err(),
        Some(CoreError::BadSignature)
    );

    // Refused and counted, nothing issued, and each refusal filed with
    // the group signature of whoever asked.
    let stats = w.broker.stats();
    assert_eq!(whopay_core::BrokerStats { rejections: served.rejections + 5, ..served }, stats);
    let snapshot = w.broker.snapshot();
    let (_, record) = snapshot.coins.iter().find(|(id, _)| *id == coin).expect("known coin");
    assert!(record.deposited && record.downtime_binding.is_none());
    let cases = w.broker.fraud_cases();
    assert_eq!(cases.len(), 4);
    assert!(cases.iter().all(|case| case.coin == coin));
    let asked_by: Vec<PeerId> = cases
        .iter()
        .map(|case| match w.judge.reveal_parties(case)[..] {
            [whopay_core::RevealedIdentity::Peer(peer)] => peer,
            ref other => panic!("one enrolled requester per case, not {other:?}"),
        })
        .collect();
    assert_eq!(asked_by, [PeerId(1), PeerId(1), PeerId(2), PeerId(2)]);

    let journal =
        Journal::from_bytes(&w.broker.journal().expect("journalling").to_bytes()).expect("decodes");
    let recovered = Broker::recover(w.params.clone(), w.gpk.clone(), w.broker.export_keys(), &journal);
    assert_eq!(recovered.stats(), stats);
    assert_eq!(recovered.snapshot(), snapshot);
    // Replay recomputes every entry's `(root, seq)` — a mismatch is an
    // audit violation — and checkpoints once on top.
    let seq = |broker: &Broker| broker.committed_root().expect("ledger on").1;
    assert_eq!(seq(&recovered), seq(&w.broker) + 1);
    assert!(recovered.audit().ok() && w.broker.audit().ok());
}
