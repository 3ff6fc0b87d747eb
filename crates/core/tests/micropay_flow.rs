//! Streaming micropayments end to end: commitment open, hash-tick
//! streaming, and incremental broker redemption — over the wire, through
//! the sharded broker, and across a crash/recovery cycle.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use whopay_core::micropay::MicropaySender;
use whopay_core::service::{
    attach_client, attach_micropay_host, attach_shard_endpoints, open_chain_via, redeem_chain_via,
    shared_clock, tick_batch_via, tick_via, CallError,
};
use whopay_core::{
    Broker, Journal, Judge, MicropayHost, PeerId, RedeemChainRequest, ShardedBroker, SystemParams,
};
use whopay_crypto::group_sig::GroupMemberKey;
use whopay_crypto::payword::Payword;
use whopay_crypto::testing::{test_rng, tiny_group};
use whopay_net::Network;

fn world(seed: u64) -> (SystemParams, Judge, Broker, GroupMemberKey, rand::rngs::StdRng) {
    let mut rng = test_rng(seed);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let broker = Broker::new(params.clone(), judge.public_key().clone(), &mut rng);
    let gk = judge.enroll(PeerId(1), &mut rng);
    (params, judge, broker, gk, rng)
}

#[test]
fn streaming_session_over_the_wire() {
    let (params, judge, broker, gk, mut rng) = world(80);
    let group = params.group().clone();
    let gpk = judge.public_key().clone();

    let mut net = Network::new();
    let clk = shared_clock(whopay_core::Timestamp(0));
    let broker = Arc::new(ShardedBroker::with_keys(params, gpk.clone(), broker.export_keys(), 1));
    let broker_ep = attach_shard_endpoints(&mut net, broker.clone(), clk, 9001)[0];
    let host = Rc::new(RefCell::new(MicropayHost::new(group.clone(), gpk.clone(), 8)));
    let host_ep = attach_micropay_host(&mut net, host.clone());
    let payer_ep = attach_client(&mut net, "payer");

    let (mut sender, commitment) = MicropaySender::open(&group, &gpk, &gk, 64, 8, &mut rng);
    let chain = open_chain_via(&mut net, payer_ep, host_ep, commitment.clone()).expect("open");
    // Re-opening the identical commitment is idempotent.
    assert_eq!(open_chain_via(&mut net, payer_ep, host_ep, commitment).unwrap(), chain);

    // Stream single ticks, then a batch.
    for i in 1..=5u64 {
        let pw = sender.pay(1).unwrap();
        let (gained, total) = tick_via(&mut net, payer_ep, host_ep, chain, pw).expect("tick");
        assert_eq!((gained, total), (1, i));
    }
    let batch: Vec<Payword> = (0..6).map(|_| sender.pay(2).unwrap()).collect();
    let (gained, total) =
        tick_batch_via(&mut net, payer_ep, host_ep, chain, batch.clone()).expect("batch");
    assert_eq!((gained, total), (12, 17));
    // Redelivering the same batch gains nothing (idempotent ticks).
    let (gained, total) = tick_batch_via(&mut net, payer_ep, host_ep, chain, batch).unwrap();
    assert_eq!((gained, total), (0, 17));

    // The payee redeems the due value at the broker.
    let request = host.borrow().receiver(&chain).unwrap().redeem_request();
    let receipt = redeem_chain_via(&mut net, payer_ep, broker_ep, request.clone()).expect("redeem");
    assert_eq!((receipt.chain, receipt.credited, receipt.total), (chain, 17, 17));
    host.borrow_mut().receiver_mut(&chain).unwrap().mark_settled_upto(receipt.total);

    // A byte-identical re-redemption is served from the replay memo.
    let again = redeem_chain_via(&mut net, payer_ep, broker_ep, request).unwrap();
    assert_eq!(again, receipt);
    assert_eq!(broker.stats().replays, 1);
    assert_eq!(broker.stats().redemptions, 1);

    // More streaming, then an *incremental* redemption: only the delta
    // since the settled frontier is credited.
    for _ in 0..7 {
        let pw = sender.pay(1).unwrap();
        tick_via(&mut net, payer_ep, host_ep, chain, pw).unwrap();
    }
    let request = host.borrow().receiver(&chain).unwrap().redeem_request();
    let receipt = redeem_chain_via(&mut net, payer_ep, broker_ep, request).unwrap();
    assert_eq!((receipt.credited, receipt.total), (7, 24));
    assert_eq!(broker.settled_micropay_value(), 24);
    assert!(broker.audit_ok());
}

#[test]
fn redemption_rejects_stale_forged_and_mismatched_requests() {
    let (params, judge, mut broker, gk, mut rng) = world(81);
    let group = params.group().clone();
    let gpk = judge.public_key().clone();

    let (mut sender, commitment) = MicropaySender::open(&group, &gpk, &gk, 32, 4, &mut rng);
    let w10 = (0..10).map(|_| sender.pay(1).unwrap()).last().unwrap();
    let receipt = broker
        .handle_redeem_chain(&RedeemChainRequest { commitment: commitment.clone(), payword: w10 })
        .expect("first redemption");
    assert_eq!(receipt.credited, 10);

    // Stale: a lower (non-identical) payword does not advance the frontier.
    let stale = broker.handle_redeem_chain(&RedeemChainRequest {
        commitment: commitment.clone(),
        payword: Payword { index: 10, word: [0xAA; 32] },
    });
    assert!(matches!(stale, Err(whopay_core::CoreError::StaleBinding { .. })));

    // Forged: a fresh index with a garbage word fails hash verification.
    let forged = broker.handle_redeem_chain(&RedeemChainRequest {
        commitment: commitment.clone(),
        payword: Payword { index: 12, word: [0xAB; 32] },
    });
    assert!(matches!(forged, Err(whopay_core::CoreError::BadSignature)));

    // Over capacity: rejected before any hashing.
    let over = broker.handle_redeem_chain(&RedeemChainRequest {
        commitment: commitment.clone(),
        payword: Payword { index: 33, word: [0xAC; 32] },
    });
    assert!(matches!(over, Err(whopay_core::CoreError::ChainOverCapacity { .. })));

    // Mismatched: the same chain id under altered commitment parameters.
    let mut tampered = commitment.clone();
    tampered.capacity = 64;
    // The chain id *is* the root, so the tampered commitment collides
    // with the stored record and must be refused, not re-verified.
    let mismatch =
        broker.handle_redeem_chain(&RedeemChainRequest { commitment: tampered, payword: w10 });
    assert!(matches!(mismatch, Err(whopay_core::CoreError::ChainMismatch(_))));

    // None of the rejections committed anything.
    assert_eq!(broker.settled_micropay_value(), 10);
    assert!(broker.audit().ok());
}

#[test]
fn recovery_rebuilds_chain_state_bit_identically() {
    let (params, judge, mut broker, gk, mut rng) = world(82);
    let group = params.group().clone();
    let gpk = judge.public_key().clone();
    broker.enable_journal();

    let (mut sender, commitment) = MicropaySender::open(&group, &gpk, &gk, 40, 5, &mut rng);
    let w7 = (0..7).map(|_| sender.pay(1).unwrap()).last().unwrap();
    let request = RedeemChainRequest { commitment: commitment.clone(), payword: w7 };
    broker.handle_redeem_chain(&request).expect("redeem");
    // Fold into a checkpoint so recovery exercises the chains section,
    // then append one more redemption so the journal tail replays too.
    broker.checkpoint_journal();
    let w12 = (0..5).map(|_| sender.pay(1).unwrap()).last().unwrap();
    broker
        .handle_redeem_chain(&RedeemChainRequest { commitment: commitment.clone(), payword: w12 })
        .expect("tail redeem");

    let bytes = broker.journal().unwrap().to_bytes();
    let journal = Journal::from_bytes(&bytes).expect("journal decodes");
    let recovered = Broker::recover(params.clone(), gpk.clone(), broker.export_keys(), &journal);

    assert_eq!(recovered.snapshot(), broker.snapshot());
    assert_eq!(recovered.stats(), broker.stats());
    assert_eq!(recovered.chain_settled(&commitment.chain_id()), Some(12));
    assert!(recovered.audit().ok());

    // The recovered broker keeps serving: replays answer from the memo,
    // and the settled frontier carried over (a re-redemption of the old
    // total is stale, not double-credited).
    let mut recovered = recovered;
    let replay = recovered
        .handle_redeem_chain(&RedeemChainRequest { commitment: commitment.clone(), payword: w12 });
    assert_eq!(replay.unwrap().total, 12);
    let stale = recovered.handle_redeem_chain(&request);
    assert!(matches!(stale, Err(whopay_core::CoreError::StaleBinding { .. })));
    let w20 = (0..8).map(|_| sender.pay(1).unwrap()).last().unwrap();
    let receipt = recovered
        .handle_redeem_chain(&RedeemChainRequest { commitment, payword: w20 })
        .expect("post-recovery redeem");
    assert_eq!((receipt.credited, receipt.total), (8, 20));
    assert!(recovered.audit().ok());
}

#[test]
fn sharded_broker_routes_redemptions_by_chain_id() {
    let mut rng = test_rng(83);
    let params = SystemParams::new(tiny_group().clone());
    let mut judge = Judge::new(params.group().clone(), &mut rng);
    let group = params.group().clone();
    let gpk = judge.public_key().clone();
    let sharded = ShardedBroker::new(params, gpk.clone(), 4, &mut rng);
    let gk = judge.enroll(PeerId(1), &mut rng);

    // Several chains land on (statistically) several shards.
    let mut expected = 0;
    for _ in 0..6 {
        let (mut sender, commitment) = MicropaySender::open(&group, &gpk, &gk, 16, 4, &mut rng);
        let shard = whopay_core::shard_of_chain(&commitment.chain_id(), 4);
        let best = (0..5).map(|_| sender.pay(1).unwrap()).last().unwrap();
        let receipt = sharded
            .handle_redeem_chain(&RedeemChainRequest { commitment: commitment.clone(), payword: best })
            .expect("sharded redeem");
        assert_eq!(receipt.credited, 5);
        expected += 5;
        // The owning shard holds the record; others never saw the chain.
        assert_eq!(sharded.lock_shard(shard).chain_settled(&commitment.chain_id()), Some(5));
    }
    assert_eq!(sharded.stats().redemptions, 6);
    assert_eq!(sharded.settled_micropay_value(), expected);
    assert!(sharded.audit_ok());
}

#[test]
fn call_error_classifies_redemption_rejections_as_fatal() {
    // State-shaped redemption rejections (stale frontier, unknown chain,
    // over capacity) must not be retried — a resend cannot change them.
    for err in [
        whopay_core::CoreError::StaleBinding { expected_seq: 5, presented_seq: 3 },
        whopay_core::CoreError::ChainOverCapacity { capacity: 8, presented: 9 },
        whopay_core::CoreError::ChainMismatch(whopay_core::ChainId([7; 32])),
        whopay_core::CoreError::UnknownChain(whopay_core::ChainId([7; 32])),
    ] {
        let call = CallError::Remote(err.to_string());
        assert_eq!(whopay_net::Classify::class(&call), whopay_net::ErrorClass::Fatal);
    }
    // Verification-shaped rejections stay retryable (in-flight corruption).
    let call = CallError::Remote(whopay_core::CoreError::BadSignature.to_string());
    assert_eq!(whopay_net::Classify::class(&call), whopay_net::ErrorClass::Retryable);
}

#[test]
fn host_answers_every_tick_outcome_with_the_owned_encoders_bytes() {
    // The host endpoint writes acks and refusals straight into the reply
    // buffer; whatever it writes must be the frame `Response::encode`
    // builds for the same outcome, byte for byte.
    use whopay_core::wire::{Request, Response};
    use whopay_core::{ChainId, CoreError};

    let (params, judge, _broker, gk, mut rng) = world(85);
    let group = params.group().clone();
    let gpk = judge.public_key().clone();
    let mut net = Network::new();
    let host = Rc::new(RefCell::new(MicropayHost::new(group.clone(), gpk.clone(), 8)));
    let host_ep = attach_micropay_host(&mut net, host.clone());
    let payer_ep = attach_client(&mut net, "payer");
    let (mut sender, commitment) = MicropaySender::open(&group, &gpk, &gk, 32, 4, &mut rng);
    let chain = open_chain_via(&mut net, payer_ep, host_ep, commitment).unwrap();

    let mut reply = Vec::new();
    let mut ask = |net: &mut Network, frame: &[u8]| {
        net.request_into(payer_ep, host_ep, frame, &mut reply).unwrap();
        reply.clone()
    };
    let tick = |chain, payword| Request::Tick { chain, payword }.encode();
    let ack = |gained, total| Response::TickAck { gained, total }.encode();
    let refusal = |e: CoreError| Response::Error(e.to_string()).encode();

    let p1 = sender.pay(2).unwrap();
    let p2 = sender.pay(3).unwrap();
    assert_eq!(ask(&mut net, &tick(chain, p2)), ack(5, 5));
    // Stale and duplicate ticks are idempotent acks of nothing.
    assert_eq!(ask(&mut net, &tick(chain, p1)), ack(0, 5), "stale");
    assert_eq!(ask(&mut net, &tick(chain, p2)), ack(0, 5), "duplicate");
    let over = Payword { index: 33, word: p2.word };
    assert_eq!(
        ask(&mut net, &tick(chain, over)),
        refusal(CoreError::ChainOverCapacity { capacity: 32, presented: 33 })
    );
    let unknown = ChainId([9; 32]);
    assert_eq!(ask(&mut net, &tick(unknown, p2)), refusal(CoreError::UnknownChain(unknown)));
    let forged = Payword { index: 9, word: [0xAB; 32] };
    assert_eq!(ask(&mut net, &tick(chain, forged)), refusal(CoreError::BadSignature));

    // Batches: the same shapes, plus a batch that gains nothing.
    let batch: Vec<Payword> = (0..3).map(|_| sender.pay(1).unwrap()).collect();
    let frame = Request::TickBatch { chain, paywords: batch.clone() }.encode();
    assert_eq!(ask(&mut net, &frame), ack(3, 8));
    assert_eq!(ask(&mut net, &frame), ack(0, 8), "replayed batch");
    let frame = Request::TickBatch { chain, paywords: vec![forged, over] }.encode();
    assert_eq!(ask(&mut net, &frame), ack(0, 8), "a batch skips what it cannot verify");
    let frame = Request::TickBatch { chain: unknown, paywords: batch }.encode();
    assert_eq!(ask(&mut net, &frame), refusal(CoreError::UnknownChain(unknown)));

    // Not a frame at all, and a frame for someone else.
    assert_eq!(ask(&mut net, b"\x00\x01garbage"), refusal(CoreError::Malformed));
    let elsewhere = Request::BindingProof { coin: whopay_core::CoinId([1; 32]) }.encode();
    assert_eq!(
        ask(&mut net, &elsewhere),
        Response::Error("request not handled by a micropayment host".into()).encode()
    );

    // The client calls read those frames back as the same outcomes.
    assert_eq!(tick_via(&mut net, payer_ep, host_ep, chain, p1).unwrap(), (0, 8));
    match tick_via(&mut net, payer_ep, host_ep, chain, forged) {
        Err(CallError::Remote(msg)) => assert_eq!(msg, CoreError::BadSignature.to_string()),
        other => panic!("forged tick: {other:?}"),
    }
    match tick_batch_via(&mut net, payer_ep, host_ep, unknown, vec![p1]) {
        Err(CallError::Remote(msg)) => assert_eq!(msg, CoreError::UnknownChain(unknown).to_string()),
        other => panic!("unknown chain: {other:?}"),
    }
}
