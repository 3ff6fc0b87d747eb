//! End-to-end WhoPay protocol tests: the full coin lifecycle of §4.2,
//! downtime operations, synchronization, and every fraud path the paper's
//! security analysis (§4.3) relies on.

use whopay_core::{
    Broker, CoreError, Judge, Peer, PeerId, PurchaseMode, RevealedIdentity, SystemParams, Timestamp,
};
use whopay_crypto::group_sig::GroupMemberKey;
use whopay_crypto::testing::{test_rng, tiny_group};

pub struct World {
    pub params: SystemParams,
    pub judge: Judge,
    pub broker: Broker,
    pub peers: Vec<Peer>,
    pub rng: rand::rngs::StdRng,
}

impl World {
    pub fn new(n: usize, seed: u64) -> World {
        let mut rng = test_rng(seed);
        let params = SystemParams::new(tiny_group().clone());
        let mut judge = Judge::new(params.group().clone(), &mut rng);
        let mut broker = Broker::new(params.clone(), judge.public_key().clone(), &mut rng);
        let peers: Vec<Peer> = (0..n)
            .map(|i| {
                let id = PeerId(i as u64);
                let gk = judge.enroll(id, &mut rng);
                let peer = Peer::new(
                    id,
                    params.clone(),
                    broker.public_key().clone(),
                    judge.public_key().clone(),
                    gk,
                    &mut rng,
                );
                broker.register_peer(id, peer.public_key().clone());
                peer
            })
            .collect();
        World { params, judge, broker, peers, rng }
    }

    /// Peer `buyer` purchases one coin at `now`.
    pub fn buy(&mut self, buyer: usize, mode: PurchaseMode, now: Timestamp) -> whopay_core::CoinId {
        let (req, pending) = self.peers[buyer].create_purchase_request(mode, &mut self.rng);
        let minted = self.broker.handle_purchase(&req, &mut self.rng).unwrap();
        self.peers[buyer].complete_purchase(minted, pending, now, &mut self.rng).unwrap()
    }

    /// `owner` issues `coin` to `payee`.
    pub fn issue(&mut self, owner: usize, payee: usize, coin: whopay_core::CoinId, now: Timestamp) {
        let (invite, session) = self.peers[payee].begin_receive(&mut self.rng);
        let grant = self.peers[owner].issue_coin(coin, &invite, now, &mut self.rng).unwrap();
        self.peers[payee].accept_grant(grant, session, now).unwrap();
    }

    /// `holder` transfers `coin` to `payee` via its owner `owner`.
    pub fn transfer(
        &mut self,
        holder: usize,
        owner: usize,
        payee: usize,
        coin: whopay_core::CoinId,
        now: Timestamp,
    ) {
        let (invite, session) = self.peers[payee].begin_receive(&mut self.rng);
        let req = self.peers[holder].request_transfer(coin, &invite, &mut self.rng).unwrap();
        let grant = self.peers[owner].handle_transfer(req, now, &mut self.rng).unwrap();
        self.peers[payee].accept_grant(grant, session, now).unwrap();
        self.peers[holder].complete_transfer(coin);
    }
}

#[test]
fn full_lifecycle_purchase_issue_transfer_renew_deposit() {
    let mut w = World::new(4, 1);
    let t0 = Timestamp(0);
    let coin = w.buy(0, PurchaseMode::Identified, t0);

    // Issue to peer 1, transfer to 2 via owner 0, transfer to 3.
    w.issue(0, 1, coin, t0);
    w.transfer(1, 0, 2, coin, Timestamp(100));
    w.transfer(2, 0, 3, coin, Timestamp(200));

    // Peer 3 renews via the owner.
    let req = w.peers[3].request_renewal(coin, &mut w.rng).unwrap();
    let renewed = w.peers[0].handle_renewal(req, Timestamp(300), &mut w.rng).unwrap();
    w.peers[3].apply_renewal(coin, renewed).unwrap();

    // Peer 3 deposits.
    let dep = w.peers[3].request_deposit(coin, &mut w.rng).unwrap();
    let receipt = w.broker.handle_deposit(&dep, Timestamp(400)).unwrap();
    w.peers[3].complete_deposit(coin);
    assert_eq!(receipt.coin, coin);
    assert_eq!(w.broker.stats().deposits, 1);
    assert!(!w.broker.is_circulating(&coin));
}

#[test]
fn anonymity_holder_keys_are_fresh_pseudonyms() {
    // Nothing in a transfer identifies the payee: the binding names a
    // fresh random key each hop, never a peer identity.
    let mut w = World::new(3, 2);
    let t0 = Timestamp(0);
    let coin = w.buy(0, PurchaseMode::Identified, t0);

    let (invite1, session1) = w.peers[1].begin_receive(&mut w.rng);
    let grant1 = w.peers[0].issue_coin(coin, &invite1, t0, &mut w.rng).unwrap();
    let holder_pk_1 = grant1.binding.holder_pk().clone();
    w.peers[1].accept_grant(grant1, session1, t0).unwrap();

    let (invite2, session2) = w.peers[2].begin_receive(&mut w.rng);
    let req = w.peers[1].request_transfer(coin, &invite2, &mut w.rng).unwrap();
    let grant2 = w.peers[0].handle_transfer(req, t0, &mut w.rng).unwrap();
    let holder_pk_2 = grant2.binding.holder_pk().clone();
    w.peers[2].accept_grant(grant2, session2, t0).unwrap();

    assert_ne!(holder_pk_1, holder_pk_2, "fresh holder key per hop");
    // Neither holder key equals any peer's identity key.
    for p in &w.peers {
        assert_ne!(&holder_pk_1, p.public_key().element());
        assert_ne!(&holder_pk_2, p.public_key().element());
    }
}

#[test]
fn double_spend_by_holder_rejected_by_owner() {
    // Holder 1 transfers the coin to 2, then replays the old binding
    // toward 3. The owner's authoritative record catches the replay.
    let mut w = World::new(4, 3);
    let t0 = Timestamp(0);
    let coin = w.buy(0, PurchaseMode::Identified, t0);
    w.issue(0, 1, coin, t0);

    let (invite2, _s2) = w.peers[2].begin_receive(&mut w.rng);
    let req2 = w.peers[1].request_transfer(coin, &invite2, &mut w.rng).unwrap();
    w.peers[0].handle_transfer(req2, t0, &mut w.rng).unwrap();
    // Note: peer 1 has not called complete_transfer — it still has the
    // stale binding and tries to spend it again.
    let (invite3, _s3) = w.peers[3].begin_receive(&mut w.rng);
    let req3 = w.peers[1].request_transfer(coin, &invite3, &mut w.rng).unwrap();
    let err = w.peers[0].handle_transfer(req3, t0, &mut w.rng).unwrap_err();
    assert!(matches!(err, CoreError::StaleBinding { .. }), "{err:?}");
}

#[test]
fn double_deposit_detected_and_judge_reveals_depositor() {
    let mut w = World::new(2, 4);
    let t0 = Timestamp(0);
    let coin = w.buy(0, PurchaseMode::Identified, t0);
    w.issue(0, 1, coin, t0);

    let dep = w.peers[1].request_deposit(coin, &mut w.rng).unwrap();
    let receipt = w.broker.handle_deposit(&dep, t0).unwrap();
    // Re-delivering the *identical* request is an idempotent replay: the
    // broker answers from its memo instead of raising fraud.
    assert_eq!(w.broker.handle_deposit(&dep, t0).unwrap(), receipt);
    // A freshly signed second deposit of the same coin is the real double
    // deposit.
    let dep2 = w.peers[1].request_deposit(coin, &mut w.rng).unwrap();
    let err = w.broker.handle_deposit(&dep2, t0).unwrap_err();
    assert_eq!(err, CoreError::DoubleSpend(coin));

    // Fairness: the broker refers the case; the judge opens the group
    // signature and identifies peer 1 — and only the involved party.
    let cases = w.broker.fraud_cases();
    assert_eq!(cases.len(), 1);
    let revealed = w.judge.reveal_parties(&cases[0]);
    assert_eq!(revealed, vec![RevealedIdentity::Peer(PeerId(1))]);
}

/// A defect, pinned as it stands: a group signature proves knowledge of
/// some key, not membership, so an enrolled peer that signs with a group
/// key it made itself passes the owner's and the broker's checks, double
/// deposits, and the judge, opening the filed case, names no one. Once
/// membership is checked at verify time, the deposits are refused as
/// `BadGroupSignature` instead.
#[test]
fn an_unregistered_group_key_double_spends_and_the_judge_names_no_one() {
    let mut w = World::new(1, 16);
    let id = PeerId(1);
    let registered = w.judge.enroll(id, &mut w.rng);
    let rogue = GroupMemberKey::generate_unregistered(w.params.group(), &mut w.rng);
    assert!(w
        .judge
        .export_registry()
        .iter()
        .any(|(y, who)| y == registered.member_element() && *who == id));
    assert!(w.judge.export_registry().iter().all(|(y, _)| y != rogue.member_element()));
    let peer = Peer::new(
        id,
        w.params.clone(),
        w.broker.public_key().clone(),
        w.judge.public_key().clone(),
        rogue,
        &mut w.rng,
    );
    w.broker.register_peer(id, peer.public_key().clone());
    w.peers.push(peer);

    let t0 = Timestamp(0);
    let coin = w.buy(0, PurchaseMode::Identified, t0);
    w.issue(0, 1, coin, t0);
    let dep = w.peers[1].request_deposit(coin, &mut w.rng).unwrap();
    w.broker.handle_deposit(&dep, t0).unwrap();
    let dep2 = w.peers[1].request_deposit(coin, &mut w.rng).unwrap();
    assert_eq!(w.broker.handle_deposit(&dep2, t0).unwrap_err(), CoreError::DoubleSpend(coin));

    let cases = w.broker.fraud_cases();
    assert_eq!(cases.len(), 1);
    assert_eq!(w.judge.reveal_parties(&cases[0]), vec![RevealedIdentity::Unregistered]);
}

#[test]
fn forged_transfer_request_rejected() {
    // Peer 2 (who never held the coin) forges a transfer request with its
    // own keys: holder signature cannot verify under the bound holder key.
    let mut w = World::new(3, 5);
    let t0 = Timestamp(0);
    let coin = w.buy(0, PurchaseMode::Identified, t0);
    w.issue(0, 1, coin, t0);

    // Build a forged request: peer 2 crafts an invite-to-self and signs
    // with an unrelated key by pretending to be the holder.
    let binding = {
        let held = w.peers[1].held_coin(&coin).unwrap();
        held.binding.clone()
    };
    let (invite, _s) = w.peers[2].begin_receive(&mut w.rng);
    let msg = whopay_core::TransferRequest::signed_bytes(&binding, &invite.holder_pk, &invite.nonce);
    let forged = whopay_core::TransferRequest {
        current: binding,
        new_holder_pk: invite.holder_pk.clone(),
        nonce: invite.nonce,
        // Signed with peer 2's identity key, not the holder key.
        holder_sig: {
            let group = w.params.group().clone();
            let keypair = whopay_crypto::dsa::DsaKeyPair::generate(&group, &mut w.rng);
            keypair.sign(&group, &msg, &mut w.rng)
        },
        group_sig: {
            // A valid group signature alone must not be enough.
            let held_req = w.peers[2].request_renewal(coin, &mut w.rng);
            assert!(held_req.is_err()); // peer 2 holds nothing
            let gk = w.judge.enroll(PeerId(99), &mut w.rng);
            gk.sign(w.params.group(), w.judge.public_key(), &msg, &mut w.rng)
        },
    };
    let err = w.peers[0].handle_transfer(forged, t0, &mut w.rng).unwrap_err();
    assert_eq!(err, CoreError::BadSignature);
}

#[test]
fn expired_binding_rejected_at_deposit_and_acceptance() {
    let mut w = World::new(2, 6);
    let t0 = Timestamp(0);
    let coin = w.buy(0, PurchaseMode::Identified, t0);
    w.issue(0, 1, coin, t0);

    let expiry = Timestamp(w.params.renewal_period_secs());
    // Deposit after expiry fails.
    let dep = w.peers[1].request_deposit(coin, &mut w.rng).unwrap();
    let err = w.broker.handle_deposit(&dep, expiry.plus(1)).unwrap_err();
    assert!(matches!(err, CoreError::Expired { .. }));

    // A grant whose binding is already expired is not accepted either.
    let coin2 = w.buy(0, PurchaseMode::Identified, t0);
    let (invite, session) = w.peers[1].begin_receive(&mut w.rng);
    let grant = w.peers[0].issue_coin(coin2, &invite, t0, &mut w.rng).unwrap();
    let err = w.peers[1].accept_grant(grant, session, expiry.plus(1)).unwrap_err();
    assert!(matches!(err, CoreError::Expired { .. }));
}

#[test]
fn downtime_transfer_renewal_and_proactive_sync() {
    let mut w = World::new(4, 7);
    let t0 = Timestamp(0);
    let coin = w.buy(0, PurchaseMode::Identified, t0);
    w.issue(0, 1, coin, t0);

    // Owner 0 is offline; holder 1 transfers to 2 via the broker
    // (flavor one: broker verifies the coin-key-signed binding).
    let (invite2, session2) = w.peers[2].begin_receive(&mut w.rng);
    let req = w.peers[1].request_transfer(coin, &invite2, &mut w.rng).unwrap();
    let grant = w.broker.handle_downtime_transfer(&req, Timestamp(10), &mut w.rng).unwrap();
    w.peers[2].accept_grant(grant, session2, Timestamp(10)).unwrap();
    w.peers[1].complete_transfer(coin);

    // Holder 2 renews via the broker (flavor two: bit-by-bit comparison
    // against stored broker state).
    let renew = w.peers[2].request_renewal(coin, &mut w.rng).unwrap();
    let renewed = w.broker.handle_downtime_renewal(&renew, Timestamp(20), &mut w.rng).unwrap();
    w.peers[2].apply_renewal(coin, renewed).unwrap();

    // Owner rejoins and proactively syncs: challenge-response, then the
    // broker hands over (and clears) its downtime bindings.
    let challenge = b"sync-challenge-1";
    let response = w.peers[0].sign_identity_challenge(challenge, &mut w.rng);
    let bindings = w.broker.sync_for_owner(PeerId(0), challenge, &response).unwrap();
    assert_eq!(bindings.len(), 1);
    assert!(w.peers[0].adopt_broker_binding(bindings[0].clone()).unwrap());

    // After sync the owner handles the next operation with correct state.
    let (invite3, session3) = w.peers[3].begin_receive(&mut w.rng);
    let req3 = w.peers[2].request_transfer(coin, &invite3, &mut w.rng).unwrap();
    let grant3 = w.peers[0].handle_transfer(req3, Timestamp(30), &mut w.rng).unwrap();
    w.peers[3].accept_grant(grant3, session3, Timestamp(30)).unwrap();
    w.peers[2].complete_transfer(coin);
}

#[test]
fn downtime_replay_rejected_by_bit_comparison() {
    let mut w = World::new(4, 8);
    let t0 = Timestamp(0);
    let coin = w.buy(0, PurchaseMode::Identified, t0);
    w.issue(0, 1, coin, t0);

    let (invite2, _s2) = w.peers[2].begin_receive(&mut w.rng);
    let req = w.peers[1].request_transfer(coin, &invite2, &mut w.rng).unwrap();
    w.broker.handle_downtime_transfer(&req, t0, &mut w.rng).unwrap();

    // Replay: peer 1 presents the same (now stale) binding again.
    let (invite3, _s3) = w.peers[3].begin_receive(&mut w.rng);
    let replay = w.peers[1].request_transfer(coin, &invite3, &mut w.rng).unwrap();
    let err = w.broker.handle_downtime_transfer(&replay, t0, &mut w.rng).unwrap_err();
    assert!(matches!(err, CoreError::StaleBinding { .. }));
}

#[test]
fn anonymous_coins_work_end_to_end_with_anonymous_sync() {
    let mut w = World::new(3, 9);
    let t0 = Timestamp(0);
    // §5.2 approach 3: no owner identity in the coin at all.
    let coin = w.buy(0, PurchaseMode::Anonymous, t0);
    {
        let owned = w.peers[0].owned_coin(&coin).unwrap();
        assert_eq!(owned.minted.owner(), &whopay_core::OwnerTag::Anonymous);
    }
    w.issue(0, 1, coin, t0);
    w.transfer(1, 0, 2, coin, Timestamp(5));

    // Downtime renewal through the broker while owner is away.
    let renew = w.peers[2].request_renewal(coin, &mut w.rng).unwrap();
    let renewed = w.broker.handle_downtime_renewal(&renew, Timestamp(10), &mut w.rng).unwrap();
    w.peers[2].apply_renewal(coin, renewed).unwrap();

    // Anonymous sync: the broker cannot map the coin to an owner, so the
    // owner proves coin ownership per coin with the coin key.
    let challenge = b"anon-sync";
    let proof = w.peers[0].prove_ownership(coin, challenge, &mut w.rng).unwrap();
    let coin_pk = w.peers[0].owned_coin(&coin).unwrap().minted.coin_pk().clone();
    let binding = w.broker.sync_anonymous_coin(&coin_pk, challenge, &proof).unwrap().unwrap();
    assert!(w.peers[0].adopt_broker_binding(binding).unwrap());
}

#[test]
fn deposit_of_unknown_coin_rejected() {
    let mut w = World::new(2, 10);
    let t0 = Timestamp(0);
    let coin = w.buy(0, PurchaseMode::Identified, t0);
    w.issue(0, 1, coin, t0);
    let mut dep = w.peers[1].request_deposit(coin, &mut w.rng).unwrap();
    // Mutate the minted coin to an unknown key.
    let other = World::new(1, 11);
    let _ = other;
    dep.minted = {
        // A coin minted by a different broker: unknown here.
        let mut w2 = World::new(1, 12);
        let c2 = w2.buy(0, PurchaseMode::Identified, t0);
        w2.peers[0].owned_coin(&c2).unwrap().minted.clone()
    };
    let err = w.broker.handle_deposit(&dep, t0).unwrap_err();
    assert!(matches!(err, CoreError::NotCirculating(_)));
}

#[test]
fn judge_quorum_reconstruction_via_shamir() {
    let mut w = World::new(2, 13);
    let t0 = Timestamp(0);
    let coin = w.buy(0, PurchaseMode::Identified, t0);
    w.issue(0, 1, coin, t0);
    let dep = w.peers[1].request_deposit(coin, &mut w.rng).unwrap();
    w.broker.handle_deposit(&dep, t0).unwrap();
    // Provoke a fraud case with a freshly signed second deposit (the
    // identical request would be answered from the replay memo).
    let dep2 = w.peers[1].request_deposit(coin, &mut w.rng).unwrap();
    let _ = w.broker.handle_deposit(&dep2, t0);

    // Split the judge key 3-of-5, rebuild from shares 1, 3, 4.
    let shares = w.judge.split_master(3, 5, &mut w.rng);
    let registry = w.judge.export_registry();
    let picked = vec![shares[0].clone(), shares[2].clone(), shares[3].clone()];
    let judge2 = Judge::from_shares(w.params.group().clone(), &picked, 3, registry).unwrap();
    assert_eq!(judge2.public_key(), w.judge.public_key());
    let revealed = judge2.reveal_parties(&w.broker.fraud_cases()[0]);
    assert_eq!(revealed, vec![RevealedIdentity::Peer(PeerId(1))]);

    // Too few shares fail.
    assert!(Judge::from_shares(w.params.group().clone(), &shares[..2], 3, Vec::new()).is_err());
}

#[test]
fn stats_track_broker_operations() {
    let mut w = World::new(3, 14);
    let t0 = Timestamp(0);
    let c1 = w.buy(0, PurchaseMode::Identified, t0);
    let _c2 = w.buy(1, PurchaseMode::Identified, t0);
    w.issue(0, 1, c1, t0);
    let (invite, _s) = w.peers[2].begin_receive(&mut w.rng);
    let req = w.peers[1].request_transfer(c1, &invite, &mut w.rng).unwrap();
    w.broker.handle_downtime_transfer(&req, t0, &mut w.rng).unwrap();
    let s = w.broker.stats();
    assert_eq!(s.purchases, 2);
    assert_eq!(s.downtime_transfers, 1);
    assert_eq!(s.deposits, 0);
}

#[test]
fn repeated_purchases_mint_distinct_coins() {
    let mut w = World::new(1, 15);
    let t0 = Timestamp(0);
    let mut coins = Vec::new();
    for _ in 0..5 {
        let (req, pending) = w.peers[0].create_purchase_request(PurchaseMode::Identified, &mut w.rng);
        let minted = w.broker.handle_purchase(&req, &mut w.rng).unwrap();
        coins.push(w.peers[0].complete_purchase(minted, pending, t0, &mut w.rng).unwrap());
    }
    coins.sort();
    coins.dedup();
    assert_eq!(coins.len(), 5, "all coins distinct");
    assert_eq!(w.peers[0].unissued_coins().len(), 5);
    assert_eq!(w.broker.stats().purchases, 5);
}

#[test]
fn coins_needing_renewal_tracks_expiry() {
    let mut w = World::new(2, 16);
    let t0 = Timestamp(0);
    let coin = w.buy(0, PurchaseMode::Identified, t0);
    w.issue(0, 1, coin, t0);
    let period = w.params.renewal_period_secs();
    assert!(w.peers[1].coins_needing_renewal(Timestamp(period - 1)).is_empty());
    assert_eq!(w.peers[1].coins_needing_renewal(Timestamp(period)), vec![coin]);

    // Renewing pushes the deadline out.
    let req = w.peers[1].request_renewal(coin, &mut w.rng).unwrap();
    let renewed = w.peers[0].handle_renewal(req, Timestamp(100), &mut w.rng).unwrap();
    w.peers[1].apply_renewal(coin, renewed).unwrap();
    assert!(w.peers[1].coins_needing_renewal(Timestamp(period)).is_empty());
    assert_eq!(w.peers[1].coins_needing_renewal(Timestamp(period + 100)), vec![coin]);
}
