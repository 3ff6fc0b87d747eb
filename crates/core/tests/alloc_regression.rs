//! Allocation-count regression test for the wire fast path.
//!
//! Pins the number of heap allocations one broker-bound transfer request
//! costs at the wire layer (encode → deliver → classify/dispatch-parse →
//! respond → receive), comparing the legacy owned path (fresh `Vec` per
//! encode, full `BigUint` materialization per decode) against the
//! zero-copy path (pooled buffers, `encode_into`, borrowed views). The
//! handlers are broker-shaped stubs returning a canned grant so the
//! measurement isolates wire-layer costs from signature arithmetic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use whopay_core::codec;
use whopay_core::coin::{Binding, BindingSigner, MintedCoin, OwnerTag};
use whopay_core::messages::{CoinGrant, TransferRequest};
use whopay_core::view::{RequestView, ResponseView};
use whopay_core::wire::{wire_kind, Request, Response};
use whopay_core::{PeerId, Timestamp};
use whopay_crypto::dsa::DsaSignature;
use whopay_crypto::elgamal::ElGamalCiphertext;
use whopay_crypto::group_sig::GroupSignature;
use whopay_net::Network;
use whopay_num::BigUint;
use whopay_obs::TraceContext;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    ALLOC_BYTES.with(|c| c.set(c.get() + bytes as u64));
}

// Counts allocation *events* (fresh allocations and growth reallocations)
// and the bytes they asked for, on the calling thread. `Cell<u64>` has no
// destructor and the thread locals are const-initialized, so the
// bookkeeping itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn alloc_bytes() -> u64 {
    ALLOC_BYTES.with(Cell::get)
}

fn int(seed: u64) -> BigUint {
    // A few limbs wide, like real group elements relative to the codec.
    (BigUint::from(seed | 1) << 192) + BigUint::from(seed.wrapping_mul(0x9E37_79B9))
}

fn sig(seed: u64) -> DsaSignature {
    DsaSignature::from_parts(int(seed), int(seed + 1))
}

fn gsig(seed: u64) -> GroupSignature {
    GroupSignature::from_parts(
        ElGamalCiphertext::from_parts(int(seed), int(seed + 1)),
        int(seed + 2),
        int(seed + 3),
        int(seed + 4),
    )
}

fn binding(seed: u64) -> Binding {
    Binding::from_parts(
        int(seed),
        int(seed + 1),
        3,
        Timestamp(90),
        BindingSigner::CoinKey,
        sig(seed + 2),
    )
}

fn transfer_request() -> Request {
    Request::Transfer {
        request: TransferRequest {
            current: binding(10),
            new_holder_pk: int(20),
            nonce: [7; 32],
            holder_sig: sig(21),
            group_sig: gsig(23),
        },
        downtime: true,
    }
}

fn grant_response() -> Response {
    Response::Grant(Box::new(CoinGrant {
        minted: MintedCoin::from_parts(OwnerTag::Identified(PeerId(1)), int(30), sig(31)),
        binding: binding(33),
        ownership_proof: sig(36),
    }))
}

#[test]
fn fast_wire_path_allocates_at_least_5x_less_than_legacy() {
    const ITERS: u64 = 200;

    let request = transfer_request();

    // Legacy: owned decode in the handler, fresh response Vec, fresh
    // request Vec per call, owned decode at the client.
    let mut legacy_net = Network::new();
    legacy_net.set_classifier(wire_kind);
    let legacy_resp = grant_response();
    let server = legacy_net.register_with_net("broker", move |_net, bytes| {
        let decoded = Request::decode(bytes).expect("valid frame");
        assert!(matches!(decoded, Request::Transfer { downtime: true, .. }));
        legacy_resp.encode()
    });
    let client = legacy_net.register("client", |_: &[u8]| Vec::new());

    let legacy_roundtrip = |net: &mut Network| {
        let bytes = request.encode();
        let resp = net.request(client, server, bytes).unwrap();
        let decoded = Response::decode(&resp).unwrap();
        assert!(matches!(decoded, Response::Grant(_)));
    };
    legacy_roundtrip(&mut legacy_net); // warm-up
    let before = allocs();
    for _ in 0..ITERS {
        legacy_roundtrip(&mut legacy_net);
    }
    let legacy = allocs() - before;

    // Fast: pooled request/response buffers, in-place encoding, borrowed
    // view parsing on both sides.
    let mut fast_net = Network::new();
    fast_net.set_classifier(wire_kind);
    let fast_resp = grant_response();
    let server = fast_net.register_writer("broker", move |_net, bytes, out| {
        // Mirror the production dispatch: strip any trace trailer first.
        // With tracing disabled no trailer exists, and the split itself
        // must stay allocation-free.
        let (payload, caller) = TraceContext::split(bytes);
        assert!(caller.is_none(), "disabled tracing must leave frames untagged");
        let view = RequestView::parse(payload).expect("valid frame");
        assert!(matches!(view, RequestView::Transfer { downtime: true, .. }));
        assert_eq!(view.kind(), "downtime_transfer");
        fast_resp.encode_into(out);
    });
    let client = fast_net.register_writer("client", |_net, _bytes, _out| {});

    let fast_roundtrip = |net: &mut Network| {
        let mut req_buf = codec::pooled();
        request.encode_into(&mut req_buf);
        let mut resp_buf = codec::pooled();
        net.request_into(client, server, &req_buf, &mut resp_buf).unwrap();
        let view = ResponseView::parse(&resp_buf).unwrap();
        assert!(matches!(view, ResponseView::Grant { .. }));
    };
    for _ in 0..4 {
        fast_roundtrip(&mut fast_net); // warm-up: fill the buffer pool
    }
    let before = allocs();
    for _ in 0..ITERS {
        fast_roundtrip(&mut fast_net);
    }
    let fast = allocs() - before;

    // Identical verdict bytes on both paths.
    let legacy_bytes = legacy_net.request(client, server, request.encode()).unwrap();
    let mut fast_bytes = Vec::new();
    fast_net.request_into(client, server, &request.encode(), &mut fast_bytes).unwrap();
    assert_eq!(legacy_bytes, fast_bytes);

    assert!(
        fast * 5 <= legacy,
        "fast path must allocate at least 5x less: fast={fast} legacy={legacy} over {ITERS} requests"
    );
    assert!(
        fast / ITERS < 2,
        "steady-state fast path should be (near) allocation-free per request: {fast} allocations over {ITERS} requests"
    );
}

#[test]
fn a_disabled_obs_instruments_a_prepared_group_without_allocating() {
    // What a shard endpoint does around each group it prepares: ask for
    // the registry (its four `broker.prepare*` probes exist only when
    // there is one) and wrap the work in one labelled span. With
    // observability disabled none of it may reach the allocator.
    use whopay_obs::{Obs, OpKind, Role};

    let obs = Obs::disabled();
    let parent = TraceContext::root();
    let before = allocs();
    for shard in 0..200u16 {
        assert!(obs.metrics().is_none());
        let mut span = match shard % 2 {
            0 => obs.span(Role::Broker, OpKind::Other),
            _ => obs.child_span(Role::Broker, OpKind::Other, &parent),
        };
        span.set_detail("prepare");
        span.set_shard(shard);
        span.set_batch(16);
        assert!(span.context().is_none());
        span.finish();
    }
    assert_eq!(allocs() - before, 0);
}

#[test]
fn a_steady_state_tick_or_batch_allocates_nothing_on_either_side() {
    // A streamed payment is one hash plus two small frames: with
    // observability disabled neither the caller (`tick_via`,
    // `tick_batch_via`) nor the host endpoint may reach the allocator once
    // the buffer pool and the batch scratch are warm. Both sides run on
    // this thread, so one counter sees them both.
    use std::cell::RefCell;
    use std::rc::Rc;

    use whopay_core::micropay::{MicropayHost, MicropaySender};
    use whopay_core::service::{
        attach_client, attach_micropay_host, open_chain_via, tick_batch_via, tick_via,
    };
    use whopay_crypto::group_sig::GroupManager;
    use whopay_crypto::payword::Payword;
    use whopay_crypto::testing::{test_rng, tiny_group};

    const TICKS: u64 = 200;
    const BATCHES: usize = 20;
    const BATCH: usize = 16;

    let mut rng = test_rng(90);
    let group = tiny_group().clone();
    let mut judge: GroupManager<u64> = GroupManager::new(group.clone(), &mut rng);
    let gk = judge.enroll(1, &mut rng);
    let gpk = judge.public_key().clone();
    let mut net = Network::new();
    let host = Rc::new(RefCell::new(MicropayHost::new(group.clone(), gpk.clone(), 1 << 20)));
    let host_ep = attach_micropay_host(&mut net, host);
    let me = attach_client(&mut net, "payer");
    let (mut sender, commitment) = MicropaySender::open(&group, &gpk, &gk, 1024, 8, &mut rng);
    let chain = open_chain_via(&mut net, me, host_ep, commitment).unwrap();

    // The caller owns each batch's vector; build them all up front so the
    // measured region sees only what the exchange itself does.
    let next_batch = |sender: &mut MicropaySender| -> Vec<Payword> {
        (0..BATCH).map(|_| sender.pay(1).unwrap()).collect()
    };
    for _ in 0..4 {
        let word = sender.pay(1).unwrap();
        tick_via(&mut net, me, host_ep, chain, word).unwrap(); // warm-up: fill the buffer pool
    }
    let warm = next_batch(&mut sender);
    tick_batch_via(&mut net, me, host_ep, chain, warm).unwrap(); // and the batch scratch

    let before = allocs();
    let mut total = sender.spent();
    for _ in 0..TICKS {
        let word = sender.pay(1).unwrap();
        total += 1;
        assert_eq!(tick_via(&mut net, me, host_ep, chain, word).unwrap(), (1, total));
    }
    assert_eq!(allocs() - before, 0, "single ticks");

    let batches: Vec<Vec<Payword>> = (0..BATCHES).map(|_| next_batch(&mut sender)).collect();
    let stale = batches[0].clone();
    let before = allocs();
    for batch in batches {
        total += BATCH as u64;
        assert_eq!(tick_batch_via(&mut net, me, host_ep, chain, batch).unwrap(), (BATCH as u64, total));
    }
    // A replayed batch gains nothing and costs no allocation either.
    assert_eq!(tick_batch_via(&mut net, me, host_ep, chain, stale).unwrap(), (0, total));
    assert_eq!(allocs() - before, 0, "batched ticks");
}

#[test]
fn a_count_prefix_the_frame_cannot_hold_is_refused_before_reserving() {
    // Every list on the wire is reserved from its count prefix. A frame of
    // a few dozen bytes promising the cap's worth of items must be refused
    // on the arithmetic alone — remaining bytes / least encoded item size
    // — not after reserving 4 096 bindings or 65 536 checkpoints (2 MiB)
    // for it.
    use whopay_core::codec::Writer;
    use whopay_core::CoreError;

    let list = |tag: u8, count: u32| {
        let mut w = Writer::new();
        w.tag(tag).count(count as usize);
        w.finish()
    };
    let commitment = |tag: u8| {
        let mut w = Writer::new();
        w.tag(tag).fixed(&[7; 32]).u64(1 << 20).u64(16).count(1 << 16);
        w.finish()
    };
    let tick_batch = {
        let mut w = Writer::new();
        w.tag(9).fixed(&[7; 32]).count(4096);
        w.finish()
    };
    let proof = {
        // A leaf with no downtime binding, width, index, the count.
        let mut w = Writer::new();
        w.tag(10).fixed(&[7; 32]).flag(false).flag(false).fixed(&[8; 32]).u64(9).u64(3).count(64);
        w.finish()
    };
    for (what, frame) in
        [("tick batch", tick_batch), ("open chain", commitment(7)), ("redeem chain", commitment(10))]
    {
        let before = alloc_bytes();
        assert_eq!(RequestView::parse(&frame).unwrap_err(), CoreError::Malformed, "{what}");
        assert_eq!(Request::decode(&frame).unwrap_err(), CoreError::Malformed, "{what}");
        assert!(alloc_bytes() - before < 4096, "{what}: {} bytes", alloc_bytes() - before);
    }
    for (what, frame) in [("bindings", list(4, 4096)), ("proof", proof)] {
        let before = alloc_bytes();
        assert_eq!(ResponseView::parse(&frame).unwrap_err(), CoreError::Malformed, "{what}");
        assert_eq!(Response::decode(&frame).unwrap_err(), CoreError::Malformed, "{what}");
        assert!(alloc_bytes() - before < 4096, "{what}: {} bytes", alloc_bytes() - before);
    }
    // The journal's lists likewise: one frame of a few hundred bytes — a
    // checkpoint promising 65 536 peers, coins (896 B each in memory),
    // fraud cases or chains, and a fraud case promising as many group
    // signatures — is refused on what is left of the frame.
    let journal_frame = |op: &[u8]| {
        let mut entry = Writer::new();
        // seq, eight counters, the root, then the op's fields.
        for field in [1].iter().chain(&[0; 8]) {
            entry.u64(*field);
        }
        entry.fixed(&[7; 32]);
        let mut w = Writer::new();
        w.blob(&[&entry.finish(), op].concat());
        w.finish()
    };
    let n = 1 << 16;
    // A checkpoint (op 6) whose list of peers, coins, fraud cases or
    // chains follows the empty lists before it.
    let checkpoint = |empty_lists: usize| {
        let mut w = Writer::new();
        w.tag(6);
        for _ in 0..empty_lists {
            w.count(0);
        }
        w.count(n);
        w.finish()
    };
    // A fraud case (op 4): a coin id, an empty description, the count.
    let fraud_sigs = {
        let mut w = Writer::new();
        w.tag(4).fixed(&[0; 32]).blob(&[]).count(n);
        w.finish()
    };
    let frames = [checkpoint(0), checkpoint(1), checkpoint(2), checkpoint(3), fraud_sigs];
    for (i, op) in frames.into_iter().enumerate() {
        let frame = journal_frame(&op);
        let before = alloc_bytes();
        assert_eq!(whopay_core::Journal::from_bytes(&frame).unwrap_err(), CoreError::Malformed);
        assert!(alloc_bytes() - before < 4096, "journal list {i}: {} bytes", alloc_bytes() - before);
    }
}

#[test]
fn a_malformed_tick_batch_hands_the_recycled_payword_vector_back() {
    use whopay_core::types::ChainId;
    use whopay_core::view::recycle_paywords;
    use whopay_crypto::payword::Payword;

    let chain = ChainId([3; 32]);
    let paywords: Vec<Payword> = (0..16).map(|i| Payword { index: i, word: [i as u8; 32] }).collect();
    let good = Request::TickBatch { chain, paywords }.encode();
    // The same batch a byte short and a byte too long: refused before,
    // and after, filling the vector.
    let bad_word = &good[..good.len() - 1];
    let mut trailing = good.clone();
    trailing.push(0);

    // Warm this thread's scratch vector.
    let Ok(RequestView::TickBatch { paywords, .. }) = RequestView::parse(&good) else {
        panic!("a valid batch parses")
    };
    recycle_paywords(paywords);

    let before = allocs();
    for frame in [bad_word, &trailing, bad_word] {
        assert!(RequestView::parse(frame).is_err());
    }
    let Ok(RequestView::TickBatch { paywords, .. }) = RequestView::parse(&good) else {
        panic!("a valid batch parses")
    };
    assert_eq!(paywords.len(), 16);
    assert_eq!(allocs() - before, 0, "the scratch vector survived three refusals");
}
