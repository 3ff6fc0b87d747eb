//! What more than one test file builds.

// Each test file that declares this module uses only part of it.
#![allow(dead_code)]

use whopay_core::micropay::MicropaySender;
use whopay_core::view::RequestView;
use whopay_core::wire::{Request, Response};
use whopay_core::{
    Broker, Judge, Peer, PeerId, PurchaseMode, RedeemChainRequest, SystemParams, Timestamp,
};
use whopay_crypto::testing::{small_group, test_rng};

/// One real frame of every request and every response kind, from a short
/// run over the 512/160 group.
pub fn frames() -> (Vec<Request>, Vec<Response>) {
    let mut rng = test_rng(0xF1C6);
    let params = SystemParams::new(small_group().clone());
    let group = params.group().clone();
    let mut judge = Judge::new(group.clone(), &mut rng);
    let gpk = judge.public_key().clone();
    let mut broker = Broker::new(params.clone(), gpk.clone(), &mut rng);
    let mut mk = |id: u64, rng: &mut rand::rngs::StdRng| {
        let gk = judge.enroll(PeerId(id), rng);
        let p =
            Peer::new(PeerId(id), params.clone(), broker.public_key().clone(), gpk.clone(), gk, rng);
        broker.register_peer(PeerId(id), p.public_key().clone());
        p
    };
    let (mut owner, mut holder, mut payee) = (mk(0, &mut rng), mk(1, &mut rng), mk(2, &mut rng));
    let streamer = judge.enroll(PeerId(3), &mut rng);
    let now = Timestamp(0);

    let (purchase, pending) = owner.create_purchase_request(PurchaseMode::Identified, &mut rng);
    let minted = broker.handle_purchase(&purchase, &mut rng).expect("purchase");
    let coin = owner.complete_purchase(minted.clone(), pending, now, &mut rng).expect("minted");
    let (invite, session) = holder.begin_receive(&mut rng);
    let issued = owner.issue_coin(coin, &invite, now, &mut rng).expect("issue");
    holder.accept_grant(issued.clone(), session, now).expect("grant");
    let (invite2, session) = payee.begin_receive(&mut rng);
    let transfer = holder.request_transfer(coin, &invite2, &mut rng).expect("transfer request");
    let grant = broker.handle_downtime_transfer(&transfer, now, &mut rng).expect("transfer");
    payee.accept_grant(grant.clone(), session, now).expect("downtime grant");
    let proof = broker.binding_proof(&coin, &mut rng).expect("committed coin");
    let renewal = payee.request_renewal(coin, &mut rng).expect("renewal request");
    let renewed = broker.handle_downtime_renewal(&renewal, Timestamp(1), &mut rng).expect("renewal");
    payee.apply_renewal(coin, renewed.clone()).expect("renewed");
    let challenge = vec![0x5C; 32];
    let response = owner.sign_identity_challenge(&challenge, &mut rng);
    let held = broker.sync_for_owner(PeerId(0), &challenge, &response).expect("sync");
    let deposit = payee.request_deposit(coin, &mut rng).expect("deposit request");
    let receipt = broker.handle_deposit(&deposit, Timestamp(2)).expect("deposit");
    let (mut sender, commitment) = MicropaySender::open(&group, &gpk, &streamer, 40, 5, &mut rng);
    let chain = commitment.chain_id();
    let paywords: Vec<_> = (0..7).map(|_| sender.pay(1).unwrap()).collect();
    let payword = paywords[6];
    let redeem = RedeemChainRequest { commitment: commitment.clone(), payword };
    let redeemed = broker.handle_redeem_chain(&redeem).expect("redeem");

    let requests = vec![
        Request::Purchase(purchase),
        Request::Issue { coin, invite },
        Request::Transfer { request: transfer, downtime: true },
        Request::Renewal { request: renewal, downtime: false },
        Request::Deposit(deposit),
        Request::Sync { peer: PeerId(0), challenge, response },
        Request::OpenChain(commitment),
        Request::Tick { chain, payword },
        Request::TickBatch { chain, paywords },
        Request::RedeemChain(redeem),
        Request::BindingProof { coin },
    ];
    let responses = vec![
        Response::Minted(minted),
        Response::Grant(Box::new(grant)),
        Response::Binding(renewed),
        Response::Receipt(receipt),
        Response::Bindings(held),
        Response::Error("stale binding".into()),
        Response::ChainAccepted(chain),
        Response::TickAck { gained: 1, total: 7 },
        Response::Redeemed(redeemed),
        Response::Proof(Box::new(proof)),
    ];
    (requests, responses)
}

/// The message-kind label of a parsed request, as `wire_kind` labels its
/// bytes.
pub fn view_kind(view: &RequestView<'_>) -> &'static str {
    match view {
        RequestView::Purchase { .. } => "purchase",
        RequestView::Issue { .. } => "issue",
        RequestView::Transfer { downtime: false, .. } => "transfer",
        RequestView::Transfer { downtime: true, .. } => "downtime_transfer",
        RequestView::Renewal { downtime: false, .. } => "renewal",
        RequestView::Renewal { downtime: true, .. } => "downtime_renewal",
        RequestView::Deposit(_) => "deposit",
        RequestView::Sync { .. } => "sync",
        RequestView::OpenChain(_) => "micropay_open",
        RequestView::Tick { .. } => "micropay_tick",
        RequestView::TickBatch { .. } => "micropay_tick_batch",
        RequestView::RedeemChain { .. } => "micropay_redeem",
        RequestView::BindingProof { .. } => "binding_proof",
    }
}
