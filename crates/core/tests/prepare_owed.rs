//! What `Broker::prepare` owes, pinned on one fixed history.
//!
//! `prepare_equiv.rs` holds every verdict to per-request service, and so
//! cannot see a `prepare` that owes too much or too little: only the lane
//! work moves. This history takes one broker through five drain cycles —
//! identified, anonymous and refused purchases; deposits presenting a
//! coin-key-signed binding, the stored one bit for bit and a newer one that
//! supersedes it; downtime transfers and renewals of both flavours, one of
//! them superseding; replays, a request delivered twice in one cycle, a
//! stale binding, a coin nobody minted, a double deposit and deposited
//! coins spent down the downtime path; a cycle of one, as a synchronous
//! request is prepared — and sums what each cycle's `prepare` reports. Which requests owe nothing is the same on
//! every host; what was settled, in how many lane and comb calls, is pinned
//! where the host has the lane engine.
//!
//! `prepare` walks each request's checks as its handler does, so it owes
//! nothing the handler will not ask: a deposit refused as stale after its
//! binding check owes no signature after it.

use whopay_core::wire::{Request, Response};
use whopay_core::{
    Broker, BrokerStats, CoinGrant, CoinId, CoreError, DepositRequest, Judge, MintedCoin, OwnerTag,
    Peer, PeerId, PendingPurchase, PrepareReport, PurchaseMode, PurchaseRequest, ReceiveSession,
    SystemParams, Timestamp, TransferRequest, Upcoming,
};
use whopay_crypto::dsa::DsaSignature;
use whopay_crypto::testing::{test_rng, tiny_group};
use whopay_num::BigUint;

const NOW: Timestamp = Timestamp(0);

struct World {
    broker: Broker,
    /// Peers 0..3 are registered; peer 3 is not.
    peers: Vec<Peer>,
    rng: rand::rngs::StdRng,
    /// Every cycle's `prepare` report, summed.
    report: PrepareReport,
}

fn tampered(sig: &DsaSignature) -> DsaSignature {
    DsaSignature::from_parts(sig.r().clone(), sig.s() + &BigUint::one())
}

fn minted(answer: &Result<Response, CoreError>) -> MintedCoin {
    match answer {
        Ok(Response::Minted(minted)) => minted.clone(),
        other => panic!("not a mint: {other:?}"),
    }
}

fn granted(answer: &Result<Response, CoreError>) -> CoinGrant {
    match answer {
        Ok(Response::Grant(grant)) => (**grant).clone(),
        other => panic!("not a grant: {other:?}"),
    }
}

impl World {
    fn new() -> World {
        let mut rng = test_rng(0x0BED);
        let params = SystemParams::new(tiny_group().clone());
        let mut judge = Judge::new(params.group().clone(), &mut rng);
        let gpk = judge.public_key().clone();
        let mut broker = Broker::new(params.clone(), gpk.clone(), &mut rng);
        let peers = (0..4u64)
            .map(|id| {
                let gk = judge.enroll(PeerId(id), &mut rng);
                let pk = broker.public_key().clone();
                let peer = Peer::new(PeerId(id), params.clone(), pk, gpk.clone(), gk, &mut rng);
                if id < 3 {
                    broker.register_peer(PeerId(id), peer.public_key().clone());
                }
                peer
            })
            .collect();
        World { broker, peers, rng, report: PrepareReport::default() }
    }

    /// One drain cycle: `prepare` over all of `requests`, then each served
    /// in order.
    fn cycle(&mut self, requests: &[Request]) -> Vec<Result<Response, CoreError>> {
        let upcoming: Vec<Upcoming<'_>> = requests.iter().filter_map(Upcoming::of).collect();
        assert_eq!(upcoming.len(), requests.len());
        let r = self.broker.prepare(&upcoming);
        let sum = &mut self.report;
        sum.settled += r.settled;
        sum.skipped += r.skipped;
        sum.lane_calls += r.lane_calls;
        sum.lanes_filled += r.lanes_filled;
        sum.comb_calls += r.comb_calls;
        sum.comb_filled += r.comb_filled;
        requests.iter().map(|request| self.serve(request)).collect()
    }

    fn serve(&mut self, request: &Request) -> Result<Response, CoreError> {
        let (broker, rng) = (&mut self.broker, &mut self.rng);
        match request {
            Request::Purchase(request) => broker.handle_purchase(request, rng).map(Response::Minted),
            Request::Deposit(request) => broker.handle_deposit(request, NOW).map(Response::Receipt),
            Request::Transfer { request, .. } => broker
                .handle_downtime_transfer(request, NOW, rng)
                .map(|grant| Response::Grant(Box::new(grant))),
            Request::Renewal { request, .. } => {
                broker.handle_downtime_renewal(request, NOW, rng).map(Response::Binding)
            }
            other => panic!("not in this history: {other:?}"),
        }
    }

    fn purchase(&mut self, buyer: usize, mode: PurchaseMode) -> (PurchaseRequest, PendingPurchase) {
        self.peers[buyer].create_purchase_request(mode, &mut self.rng)
    }

    /// `owner` issues `coin` to `holder`, peer to peer.
    fn issue(&mut self, coin: CoinId, owner: usize, holder: usize) {
        let (invite, session) = self.peers[holder].begin_receive(&mut self.rng);
        let grant = self.peers[owner].issue_coin(coin, &invite, NOW, &mut self.rng).expect("issue");
        self.peers[holder].accept_grant(grant, session, NOW).expect("issued grant");
    }

    /// `from`'s request to hand `coin` to `to`, and `to`'s session for it.
    fn transfer(&mut self, coin: CoinId, from: usize, to: usize) -> (TransferRequest, ReceiveSession) {
        let (invite, session) = self.peers[to].begin_receive(&mut self.rng);
        let request = self.peers[from].request_transfer(coin, &invite, &mut self.rng).expect("holder");
        (request, session)
    }

    fn downtime(request: &TransferRequest) -> Request {
        Request::Transfer { request: request.clone(), downtime: true }
    }

    fn renewal(&mut self, coin: CoinId, holder: usize) -> whopay_core::RenewalRequest {
        self.peers[holder].request_renewal(coin, &mut self.rng).expect("holder")
    }

    fn deposit(&mut self, coin: CoinId, holder: usize) -> DepositRequest {
        self.peers[holder].request_deposit(coin, &mut self.rng).expect("holder")
    }

    /// `to` takes `coin` from `from` with the grant `answer` carries.
    fn moved(
        &mut self,
        coin: CoinId,
        from: usize,
        to: usize,
        answer: &Result<Response, CoreError>,
        s: ReceiveSession,
    ) {
        self.peers[to].accept_grant(granted(answer), s, NOW).expect("grant");
        self.peers[from].complete_transfer(coin);
    }

    /// The owner of `coin` is back: it adopts the broker's binding and
    /// serves `from`'s transfer to `to` itself, so the next binding the
    /// broker sees is newer and coin-key-signed.
    fn owner_serves(&mut self, coin: CoinId, owner: usize, from: usize, to: usize) {
        let held = self.peers[from].held_coin(&coin).expect("held").binding.clone();
        assert_eq!(self.peers[owner].adopt_broker_binding(held), Ok(true));
        let (request, session) = self.transfer(coin, from, to);
        let grant = self.peers[owner].handle_transfer(request, NOW, &mut self.rng).expect("owner");
        self.peers[to].accept_grant(grant, session, NOW).expect("owner grant");
        self.peers[from].complete_transfer(coin);
    }
}

#[test]
fn prepare_owes_what_it_owed_on_a_pinned_history() {
    let mut w = World::new();
    use PurchaseMode::{Anonymous, Identified};

    // Cycle 1: six purchases served; an unregistered buyer, a forged
    // identity signature and a coin key outside the subgroup refused.
    let buys = [
        (0, Identified),
        (0, Identified),
        (1, Identified),
        (2, Identified),
        (0, Anonymous),
        (1, Anonymous),
    ];
    let mut bought: Vec<(usize, PurchaseRequest, PendingPurchase)> = buys
        .into_iter()
        .map(|(buyer, mode)| {
            let (request, pending) = w.purchase(buyer, mode);
            (buyer, request, pending)
        })
        .collect();
    let mut requests: Vec<Request> =
        bought.iter().map(|(_, request, _)| Request::Purchase(request.clone())).collect();
    let (stranger, _) = w.purchase(3, Identified);
    let (mut forged, _) = w.purchase(2, Identified);
    forged.identity_sig = forged.identity_sig.as_ref().map(tampered);
    let zero = PurchaseRequest { coin_pk: BigUint::zero(), ..bought[0].1.clone() };
    let first_purchase = bought[0].1.clone();
    requests.extend([stranger, forged, zero].map(Request::Purchase));
    let answers = w.cycle(&requests);
    assert!(answers[6..].iter().all(Result::is_err), "{answers:?}");
    let mut coins = Vec::new();
    for (at, (buyer, _, pending)) in bought.drain(..).enumerate() {
        let coin = w.peers[buyer].complete_purchase(minted(&answers[at]), pending, NOW, &mut w.rng);
        coins.push(coin.expect("own coin"));
    }
    let [a, b, c, d, e, f] = coins[..] else { unreachable!() };
    for (coin, owner, holder) in [(a, 0, 1), (b, 0, 2), (c, 1, 2), (d, 2, 0), (e, 0, 3), (f, 1, 3)] {
        w.issue(coin, owner, holder);
    }

    // Cycle 2: flavour one of both downtime requests, a deposit under a
    // coin-key-signed binding, a transfer delivered twice, a purchase
    // delivered again, and a deposit of a coin nobody minted.
    let (a_to_2, a_session) = w.transfer(a, 1, 2);
    let b_renewal = w.renewal(b, 2);
    let (e_to_1, e_session) = w.transfer(e, 3, 1);
    let f_renewal = w.renewal(f, 3);
    let c_deposit = w.deposit(c, 2);
    let c_again = w.deposit(c, 2);
    let (d_to_1, d_session) = w.transfer(d, 0, 1);
    let ghost_pk = tiny_group().pow_g(&tiny_group().random_scalar(&mut w.rng));
    let ghost = DepositRequest {
        minted: MintedCoin::from_parts(
            OwnerTag::Anonymous,
            ghost_pk,
            c_deposit.minted.broker_sig().clone(),
        ),
        ..c_deposit.clone()
    };
    let answers = w.cycle(&[
        Request::Purchase(first_purchase),
        World::downtime(&a_to_2),
        Request::Renewal { request: b_renewal, downtime: true },
        World::downtime(&e_to_1),
        Request::Renewal { request: f_renewal, downtime: true },
        Request::Deposit(c_deposit.clone()),
        World::downtime(&d_to_1),
        World::downtime(&d_to_1),
        Request::Deposit(ghost),
    ]);
    assert!(answers[..8].iter().all(Result::is_ok), "{answers:?}");
    assert!(matches!(answers[8], Err(CoreError::NotCirculating(_))), "{:?}", answers[8]);
    let answers = &answers[1..];
    w.moved(a, 1, 2, &answers[0], a_session);
    let Ok(Response::Binding(renewed)) = &answers[1] else { panic!("{:?}", answers[1]) };
    w.peers[2].apply_renewal(b, renewed.clone()).expect("renewed");
    w.moved(e, 3, 1, &answers[2], e_session);
    let Ok(Response::Binding(renewed)) = &answers[3] else { panic!("{:?}", answers[3]) };
    w.peers[3].apply_renewal(f, renewed.clone()).expect("renewed");
    w.peers[2].complete_deposit(c);
    assert_eq!(answers[5], answers[6], "the second delivery is a replay");
    w.moved(d, 0, 1, &answers[5], d_session);
    w.owner_serves(e, 0, 1, 2);
    w.owner_serves(f, 1, 3, 0);

    // Cycle 3: flavour two and a deposit of the stored binding bit for bit,
    // a deposit and a renewal superseding the stored binding, a stale
    // binding, a double deposit, a deposit delivered again, a forged holder
    // signature and a transplanted group signature.
    let (a_to_1, a_session) = w.transfer(a, 2, 1);
    let b_deposit = w.deposit(b, 2);
    let e_deposit = w.deposit(e, 2);
    let f_renewal = w.renewal(f, 0);
    let stale = TransferRequest { nonce: [9; 32], ..a_to_2 };
    let mut d_forged = w.renewal(d, 1);
    d_forged.holder_sig = tampered(&d_forged.holder_sig);
    let (mut transplanted, _) = w.purchase(2, Anonymous);
    transplanted.group_sig = Some(d_forged.group_sig.clone());
    let answers = w.cycle(&[
        World::downtime(&a_to_1),
        Request::Deposit(b_deposit),
        Request::Deposit(e_deposit),
        Request::Renewal { request: f_renewal, downtime: true },
        World::downtime(&stale),
        Request::Deposit(c_again),
        Request::Deposit(c_deposit),
        Request::Renewal { request: d_forged, downtime: true },
        Request::Purchase(transplanted),
    ]);
    let refusals: Vec<Option<&CoreError>> =
        answers.iter().map(|answer| answer.as_ref().err()).collect();
    assert_eq!(
        refusals,
        [
            None,
            None,
            None,
            None,
            Some(&CoreError::StaleBinding { expected_seq: 3, presented_seq: 1 }),
            Some(&CoreError::DoubleSpend(c)),
            None,
            Some(&CoreError::BadSignature),
            Some(&CoreError::BadGroupSignature),
        ]
    );
    w.moved(a, 2, 1, &answers[0], a_session);

    // Cycle 4: a cycle of one — a downtime renewal under the binding the
    // broker signed in cycle 3, presented bit for bit, so it owes its
    // holder signature (one chain) and its group signature (two): one lane
    // call's worth.
    let a_renewal = w.renewal(a, 1);
    let answers = w.cycle(&[Request::Renewal { request: a_renewal, downtime: true }]);
    assert!(answers[0].is_ok(), "{answers:?}");

    // Cycle 5: the deposited coins down the downtime path, under the
    // broker-signed binding and the coin-key-signed one they were
    // deposited with.
    let b_renewal = w.renewal(b, 2);
    let (e_to_0, _) = w.transfer(e, 2, 0);
    let answers =
        w.cycle(&[Request::Renewal { request: b_renewal, downtime: true }, World::downtime(&e_to_0)]);
    assert_eq!(answers, [Err(CoreError::DoubleSpend(b)), Err(CoreError::DoubleSpend(e))]);

    assert_eq!(
        w.broker.stats(),
        BrokerStats {
            purchases: 6,
            deposits: 3,
            downtime_transfers: 4,
            downtime_renewals: 4,
            syncs: 0,
            rejections: 10,
            replays: 3,
            redemptions: 0,
        }
    );
    // A coin nobody minted, a stale binding and a deposit delivered again
    // owe nothing. The cycle of one is walked like any other group.
    //
    // Against a `prepare` that skipped a group of one and made a lane call
    // from four chains up (59 settled, 4 skipped, 10 lane calls filling
    // 74 lanes, 11 comb calls filling 78):
    // * `skipped` 4 → 3: cycle 4's renewal owes its two signatures;
    // * `settled` 59 → 61: their two verdicts;
    // * `lane_calls` 10 → 12, `lanes_filled` 74 → 80: cycle 4's three
    //   chains ride one call, and cycle 1's 19 chains — the coin key and
    //   identity signature of six identified purchases (four served, one
    //   forged, one with the zero key), the unregistered buyer's coin key,
    //   and two anonymous purchases' coin key and two halves each — fill a
    //   third call with the three past sixteen, which walked alone under
    //   four;
    // * `comb_calls` 11 → 12, `comb_filled` 78 → 81: cycle 4's three
    //   fixed-base powers (`g^u1` of the holder signature, `g^z_r` and
    //   `g^z_x` of the group signature) fill one comb call; its one judge-key
    //   power stays alone. Every other cycle's chain and comb counts leave
    //   a remainder past eight other than three, so their plans are as they
    //   were.
    assert_eq!(w.report.skipped, 3, "{:?}", w.report);
    if tiny_group().lane_plan(8).0 > 0 {
        assert_eq!(
            w.report,
            PrepareReport {
                settled: 61,
                skipped: 3,
                lane_calls: 12,
                lanes_filled: 80,
                comb_calls: 12,
                comb_filled: 81,
            }
        );
    }
}

#[test]
fn a_deposit_refused_as_stale_owes_no_signature() {
    let mut w = World::new();
    let (request, pending) = w.purchase(0, PurchaseMode::Identified);
    let answers = w.cycle(&[Request::Purchase(request)]);
    let coin = w.peers[0].complete_purchase(minted(&answers[0]), pending, NOW, &mut w.rng);
    let coin = coin.expect("own coin");
    w.issue(coin, 0, 1);
    let (to_2, _) = w.transfer(coin, 1, 2);
    assert!(w.cycle(&[World::downtime(&to_2)])[0].is_ok());
    // Peer 1 deposits the coin-key-signed binding it transferred away,
    // next to a deposit of a coin nobody minted, which owes nothing.
    let stale = w.deposit(coin, 1);
    let ghost_pk = tiny_group().pow_g(&tiny_group().random_scalar(&mut w.rng));
    let minted =
        MintedCoin::from_parts(OwnerTag::Anonymous, ghost_pk, stale.minted.broker_sig().clone());
    let ghost = DepositRequest { minted, ..stale.clone() };
    w.report = PrepareReport::default();
    let answers = w.cycle(&[Request::Deposit(stale), Request::Deposit(ghost)]);
    assert_eq!(answers[0], Err(CoreError::StaleBinding { expected_seq: 2, presented_seq: 1 }));
    // The broker cached the binding's verdict when it served the transfer,
    // so the stale deposit owes nothing either.
    assert_eq!(w.report, PrepareReport { skipped: 2, ..PrepareReport::default() });
}
