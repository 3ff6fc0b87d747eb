//! Fuzz-style property tests for the wire layer: arbitrary bytes never
//! panic the decoder — through the owned entries, through the views,
//! and through a shard endpoint's `prepare`, down to the lane calls that
//! walk whatever group elements the damaged frames carry — and
//! encode/decode is the identity on the encodable space. The mutation
//! arms start from real frames of a small protocol run and grow them up
//! to 4 KiB.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use rand::rngs::StdRng;
use whopay_core::micropay::MicropaySender;
use whopay_core::service::{
    attach_client, attach_shard_endpoints, attach_shard_endpoints_obs, shared_clock,
};
use whopay_core::view::{RequestView, ResponseView};
use whopay_core::wire::{wire_kind, Request, Response};
use whopay_core::{
    CoinId, CoreError, DepositReceipt, Judge, Peer, PeerId, PurchaseMode, PurchaseRequest,
    RedeemChainRequest, ShardedBroker, SystemParams, Timestamp,
};
use whopay_crypto::testing::{test_rng, tiny_group};
use whopay_net::Network;
use whopay_num::BigUint;

/// A broker of two shards with one coin in circulation, and one real
/// frame of every request and response kind from the run that put it
/// there.
struct Seeds {
    sharded: Arc<ShardedBroker>,
    coin: CoinId,
    requests: Vec<Vec<u8>>,
    responses: Vec<Vec<u8>>,
}

fn seeds() -> Seeds {
    let mut rng = test_rng(0xF022);
    let params = SystemParams::new(tiny_group().clone());
    let group = params.group().clone();
    let mut judge = Judge::new(group.clone(), &mut rng);
    let gpk = judge.public_key().clone();
    let sharded = Arc::new(ShardedBroker::new(params.clone(), gpk.clone(), 2, &mut rng));
    let mut mk = |id: u64| {
        let gk = judge.enroll(PeerId(id), &mut rng);
        let p = Peer::new(
            PeerId(id),
            params.clone(),
            sharded.public_key().clone(),
            gpk.clone(),
            gk,
            &mut rng,
        );
        sharded.register_peer(PeerId(id), p.public_key().clone());
        p
    };
    let (mut owner, mut holder) = (mk(0), mk(1));
    let payer_key = judge.enroll(PeerId(2), &mut rng);
    let now = Timestamp(0);

    let (purchase, pending) = owner.create_purchase_request(PurchaseMode::Identified, &mut rng);
    let minted = sharded.handle_purchase(&purchase, &mut rng).unwrap();
    let coin = owner.complete_purchase(minted.clone(), pending, now, &mut rng).unwrap();
    let (invite, session) = holder.begin_receive(&mut rng);
    let grant = owner.issue_coin(coin, &invite, now, &mut rng).unwrap();
    holder.accept_grant(grant.clone(), session, now).unwrap();
    let (invite2, _) = owner.begin_receive(&mut rng);
    let transfer = holder.request_transfer(coin, &invite2, &mut rng).unwrap();
    let renewal = holder.request_renewal(coin, &mut rng).unwrap();
    let deposit = holder.request_deposit(coin, &mut rng).unwrap();
    let challenge = vec![7u8; 32];
    let response = owner.sign_identity_challenge(&challenge, &mut rng);
    let (mut sender, commitment) = MicropaySender::open(&group, &gpk, &payer_key, 32, 4, &mut rng);
    let chain = commitment.chain_id();
    let paywords: Vec<_> = (0..5).map(|_| sender.pay(1).unwrap()).collect();
    let payword = paywords[4];
    let proof = sharded.binding_proof(&coin, &mut rng).unwrap();
    let receipt = DepositReceipt { coin, value: 1 };

    let requests = [
        Request::Purchase(purchase),
        Request::Issue { coin, invite },
        Request::Transfer { request: transfer, downtime: true },
        Request::Renewal { request: renewal, downtime: true },
        Request::Deposit(deposit),
        Request::Sync { peer: PeerId(0), challenge, response },
        Request::OpenChain(commitment.clone()),
        Request::Tick { chain, payword },
        Request::TickBatch { chain, paywords },
        Request::RedeemChain(RedeemChainRequest { commitment, payword }),
        Request::BindingProof { coin },
    ];
    let responses = [
        Response::Minted(minted),
        Response::Binding(grant.binding.clone()),
        Response::Bindings(vec![grant.binding.clone(), grant.binding.clone()]),
        Response::Grant(Box::new(grant)),
        Response::Receipt(receipt),
        Response::Error("stale binding".into()),
        Response::ChainAccepted(chain),
        Response::TickAck { gained: 1, total: 5 },
        Response::Proof(Box::new(proof)),
    ];
    Seeds {
        sharded,
        coin,
        requests: requests.iter().map(Request::encode).collect(),
        responses: responses.iter().map(Response::encode).collect(),
    }
}

/// One damaged copy of a frame: bytes overwritten, then the frame cut or
/// grown with a tail, up to 4 KiB.
#[derive(Debug, Clone)]
struct Damage {
    pick: prop::sample::Index,
    pokes: Vec<(prop::sample::Index, u8)>,
    cut: Option<prop::sample::Index>,
    tail: Vec<u8>,
}

impl Damage {
    fn apply(&self, frames: &[Vec<u8>]) -> Vec<u8> {
        let mut frame = frames[self.pick.index(frames.len())].clone();
        for (at, byte) in &self.pokes {
            let i = at.index(frame.len());
            frame[i] = *byte;
        }
        if let Some(cut) = &self.cut {
            frame.truncate(cut.index(frame.len()));
        }
        frame.extend_from_slice(&self.tail);
        frame.truncate(4096);
        frame
    }
}

impl Arbitrary for Damage {
    fn arbitrary(rng: &mut StdRng) -> Self {
        let pokes = (0..u8::arbitrary(rng) % 4)
            .map(|_| (prop::sample::Index::arbitrary(rng), u8::arbitrary(rng)))
            .collect();
        let cut = bool::arbitrary(rng).then(|| prop::sample::Index::arbitrary(rng));
        // Half the frames keep their length, so overwritten bytes are
        // the only damage.
        let tail_len = if bool::arbitrary(rng) { 0 } else { u16::arbitrary(rng) % 4096 };
        let tail = (0..tail_len).map(|_| u8::arbitrary(rng)).collect();
        Damage { pick: prop::sample::Index::arbitrary(rng), pokes, cut, tail }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_panic_request_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Either a clean decode or a clean Malformed error; no panics,
        // no absurd allocations.
        match Request::decode(&bytes) {
            Ok(_) | Err(CoreError::Malformed) => {}
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    #[test]
    fn random_bytes_never_panic_response_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        match Response::decode(&bytes) {
            Ok(_) | Err(CoreError::Malformed) => {}
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    #[test]
    fn truncations_of_valid_frames_never_panic(cut in any::<prop::sample::Index>()) {
        // Take a real frame and cut it anywhere.
        let frame = Response::Error("some remote failure description".into()).encode();
        let i = cut.index(frame.len());
        match Response::decode(&frame[..i]) {
            Ok(_) | Err(CoreError::Malformed) => {}
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    #[test]
    fn random_bytes_never_panic_the_views(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        match RequestView::parse(&bytes) {
            Ok(view) => {
                prop_assert_eq!(view.kind(), wire_kind(&bytes));
                view.to_owned_request();
            }
            Err(e) => prop_assert_eq!(e, CoreError::Malformed),
        }
        match ResponseView::parse(&bytes) {
            Ok(view) => drop(view.to_owned_response()),
            Err(e) => prop_assert_eq!(e, CoreError::Malformed),
        }
    }

    #[test]
    fn damaged_real_frames_never_panic_the_views(damage in any::<Damage>()) {
        static SEEDS: OnceLock<Seeds> = OnceLock::new();
        let seeds = SEEDS.get_or_init(seeds);
        let frame = damage.apply(&seeds.requests);
        match RequestView::parse(&frame) {
            Ok(view) => {
                prop_assert_eq!(view.kind(), wire_kind(&frame));
                view.to_owned_request();
            }
            Err(e) => prop_assert_eq!(e, CoreError::Malformed),
        }
        let frame = damage.apply(&seeds.responses);
        match ResponseView::parse(&frame) {
            Ok(view) => drop(view.to_owned_response()),
            Err(e) => prop_assert_eq!(e, CoreError::Malformed),
        }
    }

    #[test]
    fn tick_batches_parse_exactly_when_count_and_paywords_agree(
        n in 0u32..90,
        lie in any::<u32>(),
        mode in 0u8..4,
        poke in any::<prop::sample::Index>(),
    ) {
        // `n` well-formed paywords under a count prefix that is honest
        // (mode 0), one too many (1) or arbitrary (2), or honest over a
        // batch one of whose paywords has lost a byte (3).
        let declared = match mode {
            1 => n + 1,
            2 => lie,
            _ => n,
        };
        let mut frame = vec![9];
        frame.extend_from_slice(&[0xC4; 32]);
        frame.extend_from_slice(&declared.to_be_bytes());
        let body = frame.len();
        for i in 0..n {
            frame.extend_from_slice(&u64::from(i).to_be_bytes());
            frame.extend_from_slice(&[i as u8; 32]);
        }
        let damaged = mode == 3 && n > 0;
        if damaged {
            frame.remove(body + poke.index(n as usize) * 40 + 15);
        }
        match RequestView::parse(&frame) {
            Ok(RequestView::TickBatch { paywords, .. }) => {
                prop_assert!(declared == n && !damaged);
                prop_assert_eq!(paywords.len() as u32, n);
                whopay_core::view::recycle_paywords(paywords);
            }
            Ok(other) => prop_assert!(false, "a tick batch parsed as {other:?}"),
            Err(e) => {
                prop_assert!(declared != n || damaged);
                prop_assert_eq!(e, CoreError::Malformed);
            }
        }
    }

    #[test]
    fn prepare_never_panics_on_groups_of_damaged_frames(
        group in proptest::collection::vec(any::<Damage>(), 2..12),
    ) {
        // A drain cycle hands each shard endpoint its group up front, and
        // the endpoint parses it under the shard lock before serving:
        // whatever the bytes, every request gets an answer that parses.
        let seeds = seeds();
        let mut net = Network::new();
        let eps = attach_shard_endpoints(&mut net, seeds.sharded, shared_clock(Timestamp(0)), 5);
        let client = attach_client(&mut net, "client");
        for (i, damage) in group.iter().enumerate() {
            net.submit(client, eps[i % 2], damage.apply(&seeds.requests));
        }
        let deliveries = net.drain();
        prop_assert_eq!(deliveries.len(), group.len());
        for delivery in deliveries {
            let reply = delivery.result.expect("no faults installed");
            prop_assert!(ResponseView::parse(&reply).is_ok(), "unparseable reply {reply:?}");
        }
    }

    #[test]
    fn sync_request_round_trips(peer in any::<u64>(), challenge in proptest::collection::vec(any::<u8>(), 0..64), r in any::<u64>(), s in any::<u64>()) {
        let req = Request::Sync {
            peer: PeerId(peer),
            challenge: challenge.clone(),
            response: whopay_crypto::dsa::DsaSignature::from_parts(
                BigUint::from(r),
                BigUint::from(s),
            ),
        };
        match Request::decode(&req.encode()).unwrap() {
            Request::Sync { peer: p2, challenge: c2, response } => {
                prop_assert_eq!(p2, PeerId(peer));
                prop_assert_eq!(c2, challenge);
                prop_assert_eq!(response.r(), &BigUint::from(r));
                prop_assert_eq!(response.s(), &BigUint::from(s));
            }
            other => prop_assert!(false, "wrong variant {other:?}"),
        }
    }

    #[test]
    fn error_response_round_trips_any_string(msg in "\\PC{0,100}") {
        let resp = Response::Error(msg.clone());
        match Response::decode(&resp.encode()).unwrap() {
            Response::Error(e) => prop_assert_eq!(e, msg),
            other => prop_assert!(false, "wrong variant {other:?}"),
        }
    }

    #[test]
    fn purchase_request_tag_space_is_closed(owner_kind in 0u64..3, pk in any::<u64>()) {
        // Encode each owner mode and ensure the decoder inverts it.
        let owner = match owner_kind {
            0 => whopay_core::OwnerTag::Identified(PeerId(7)),
            1 => whopay_core::OwnerTag::Anonymous,
            _ => whopay_core::OwnerTag::AnonymousWithHandle(whopay_net::Handle([3u8; 32])),
        };
        let req = Request::Purchase(PurchaseRequest {
            owner,
            coin_pk: BigUint::from(pk),
            identity_sig: None,
            group_sig: None,
        });
        match Request::decode(&req.encode()).unwrap() {
            Request::Purchase(p) => {
                prop_assert_eq!(p.owner, owner);
                prop_assert_eq!(p.coin_pk, BigUint::from(pk));
            }
            other => prop_assert!(false, "wrong variant {other:?}"),
        }
    }
}

/// The requests a shard settles in lanes — holder and group signatures of
/// a transfer, a renewal and a deposit, a purchased key — with a few bytes
/// overwritten and nothing cut, so that most frames still parse and what
/// is damaged is a key, a ciphertext half or a scalar. Sent to the coin's
/// own shard eight and more at a time, they must reach the lane engine
/// (where the host has one) and come back as answers that parse.
#[test]
fn prepare_walks_damaged_group_elements_through_the_lanes() {
    use whopay_obs::{Metrics, Obs};

    let mut rng = test_rng(0x1A7E_F022);
    let metrics = Arc::new(Metrics::new());
    let mut on_the_wire = 0;
    for _ in 0..48 {
        let seeds = seeds();
        // Purchase, transfer, renewal, deposit: what `prepare` walks.
        let walked: Vec<Vec<u8>> = [0, 2, 3, 4].map(|kind| seeds.requests[kind].clone()).into();
        let owner = seeds.sharded.shard_of_coin(&seeds.coin);
        let mut net = Network::new();
        let obs = Obs::with_metrics(metrics.clone());
        let eps =
            attach_shard_endpoints_obs(&mut net, seeds.sharded, shared_clock(Timestamp(0)), 5, obs);
        let client = attach_client(&mut net, "client");
        let group = 8 + usize::arbitrary(&mut rng) % 9;
        for _ in 0..group {
            let damage = Damage { cut: None, tail: Vec::new(), ..Damage::arbitrary(&mut rng) };
            net.submit(client, eps[owner], damage.apply(&walked));
        }
        let deliveries = net.drain();
        assert_eq!(deliveries.len(), group);
        for delivery in deliveries {
            let reply = delivery.result.expect("no faults installed");
            assert!(ResponseView::parse(&reply).is_ok(), "unparseable reply {reply:?}");
        }
        on_the_wire += group;
    }
    let filled = metrics.report().counters.get("broker.prepare.lanes_filled").copied().unwrap_or(0);
    if tiny_group().lane_plan(8).0 == 0 {
        // Past the harness's capture: a run that could not reach the
        // engine must not pass silently.
        use std::io::Write;
        let note = "wire_fuzz: no avx512ifma on this host, prepare's lane calls were NOT exercised";
        writeln!(std::io::stderr(), "{note}").expect("stderr");
        assert_eq!(filled, 0);
    } else {
        assert!(filled as usize > on_the_wire, "{filled} chains in lanes for {on_the_wire} frames");
    }
}

/// Every kind byte that is not assigned — in the request space, the
/// response space and the journal's op space; 6 in the first two and 1, 2,
/// 3 and 7 in the third are retired, never reused — is `Malformed` to
/// every decoder, alone or in front of the body of a real frame, and a
/// live shard endpoint answers it with an error frame without any handler
/// seeing a request.
#[test]
fn every_unassigned_kind_byte_is_malformed_everywhere() {
    use whopay_core::{BrokerStats, Journal, JournalEntry, JournalOp};

    let seeds = seeds();
    let assigned_request = |kind: u8| kind <= 11 && kind != 6;
    let assigned_response = |kind: u8| kind <= 10 && kind != 6;
    let assigned_op = |kind: u8| matches!(kind, 0 | 4 | 5 | 6 | 8);
    let with_kind = |frame: &[u8], kind: u8| [&[kind][..], &frame[1..]].concat();

    // A registration and a bare counter bump, and where their op kinds lie:
    // ahead of a peer id and a key behind its two-byte length, and last.
    let key = seeds.sharded.public_key().clone();
    let key_len = key.element().be_len();
    let entry = |op| JournalEntry { seq: 1, stats: BrokerStats::default(), root: [7; 32], op };
    let ops = [JournalOp::Register { peer: PeerId(3), key }, JournalOp::Counters];
    let journals = ops.map(|op| {
        let mut journal = Journal::new();
        journal.append(entry(op));
        journal.to_bytes()
    });
    let op_kind_at = [journals[0].len() - key_len - 2 - 8 - 1, journals[1].len() - 1];
    assert_eq!((journals[0][op_kind_at[0]], journals[1][op_kind_at[1]]), (0, 5));
    assert!(journals.iter().all(|journal| Journal::from_bytes(journal).is_ok()));

    let mut unassigned = Vec::new();
    for kind in 0..=u8::MAX {
        let bare = [kind];
        if !assigned_request(kind) {
            for frame in std::iter::once(&bare[..]).chain(seeds.requests.iter().map(Vec::as_slice)) {
                let frame = with_kind(frame, kind);
                assert_eq!(Request::decode(&frame).unwrap_err(), CoreError::Malformed, "{kind}");
                assert_eq!(RequestView::parse(&frame).unwrap_err(), CoreError::Malformed, "{kind}");
                assert_eq!(wire_kind(&frame), "malformed", "{kind}");
            }
            unassigned.push(with_kind(&seeds.requests[4], kind));
            unassigned.push(bare.to_vec());
        }
        if !assigned_response(kind) {
            for frame in std::iter::once(&bare[..]).chain(seeds.responses.iter().map(Vec::as_slice)) {
                let frame = with_kind(frame, kind);
                assert_eq!(Response::decode(&frame).unwrap_err(), CoreError::Malformed, "{kind}");
                assert_eq!(ResponseView::parse(&frame).unwrap_err(), CoreError::Malformed, "{kind}");
            }
        }
        if !assigned_op(kind) {
            for (journal, at) in journals.iter().zip(op_kind_at) {
                let mut journal = journal.clone();
                journal[at] = kind;
                assert_eq!(
                    Journal::from_bytes(&journal).unwrap_err(),
                    CoreError::Malformed,
                    "op {kind}"
                );
                assert_eq!(Journal::from_bytes_tolerant(&journal).unwrap_err(), CoreError::Malformed);
            }
        }
    }

    let mut net = Network::new();
    let eps = attach_shard_endpoints(&mut net, seeds.sharded.clone(), shared_clock(Timestamp(0)), 5);
    let client = attach_client(&mut net, "client");
    let before = seeds.sharded.stats();
    for frame in unassigned {
        let reply = net.request(client, eps[0], frame).expect("no faults installed");
        assert!(matches!(Response::decode(&reply), Ok(Response::Error(_))), "{reply:?}");
    }
    assert_eq!(seeds.sharded.stats(), before, "a frame that does not parse reaches no handler");
    assert!(seeds
        .sharded
        .lock_shard(seeds.sharded.shard_of_coin(&seeds.coin))
        .is_circulating(&seeds.coin));
}
