//! Machine-readable wire-path benchmark: emits `BENCH_wire.json`
//! comparing the allocating calls (`encode` into a fresh `Vec`,
//! `Network::request`, and `decode` — the view parser followed by
//! `to_owned`, so every `BigUint` is materialized) against the zero-copy
//! calls (pooled buffers, `encode_into`, a borrowed `RequestView` that
//! is only classified, `Network::request_into`) on the transfer hot
//! path. There is one decoder; the rows differ in what the caller asks
//! of it.
//!
//! Three sections: codec micro-costs (encode/decode), a full dispatch
//! round trip over the in-process network, and allocation events per
//! request measured with a counting global allocator. The tracked
//! acceptance bars are `round_trip.speedup >= 2` and
//! `allocations.ratio >= 5`; `scripts/bench.sh` regenerates the file and
//! README.md quotes it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

use rand::Rng;
use whopay_bench::time_it;
use whopay_core::codec;
use whopay_core::coin::{Binding, BindingSigner, MintedCoin, OwnerTag};
use whopay_core::messages::{CoinGrant, TransferRequest};
use whopay_core::view::{RequestView, ResponseView};
use whopay_core::wire::{wire_kind, Request, Response};
use whopay_core::{PeerId, Timestamp};
use whopay_crypto::dsa::DsaSignature;
use whopay_crypto::elgamal::ElGamalCiphertext;
use whopay_crypto::group_sig::GroupSignature;
use whopay_crypto::testing::test_rng;
use whopay_net::Network;
use whopay_num::BigUint;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
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

/// A 512-bit-magnitude integer, the size of a bench-group element.
fn int(rng: &mut impl Rng) -> BigUint {
    let mut be = [0u8; 64];
    rng.fill_bytes(&mut be);
    be[0] |= 0x80;
    BigUint::from_be_bytes(&be)
}

fn sig(rng: &mut impl Rng) -> DsaSignature {
    DsaSignature::from_parts(int(rng), int(rng))
}

fn gsig(rng: &mut impl Rng) -> GroupSignature {
    GroupSignature::from_parts(
        ElGamalCiphertext::from_parts(int(rng), int(rng)),
        int(rng),
        int(rng),
        int(rng),
    )
}

fn binding(rng: &mut impl Rng) -> Binding {
    Binding::from_parts(int(rng), int(rng), 3, Timestamp(90), BindingSigner::CoinKey, sig(rng))
}

fn transfer_request(rng: &mut impl Rng) -> Request {
    Request::Transfer {
        request: TransferRequest {
            current: binding(rng),
            new_holder_pk: int(rng),
            nonce: [7; 32],
            holder_sig: sig(rng),
            group_sig: gsig(rng),
        },
        downtime: true,
    }
}

fn grant_response(rng: &mut impl Rng) -> Response {
    Response::Grant(Box::new(CoinGrant {
        minted: MintedCoin::from_parts(OwnerTag::Identified(PeerId(1)), int(rng), sig(rng)),
        binding: binding(rng),
        ownership_proof: sig(rng),
    }))
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_wire.json".to_string());
    const ITERS: u32 = 20_000;
    let mut rng = test_rng(0x31BE);
    let request = transfer_request(&mut rng);
    let response = grant_response(&mut rng);
    let frame = request.encode();
    let resp_frame = response.encode();

    // Codec micro-costs.
    let encode_fresh = time_it(ITERS, || {
        std::hint::black_box(request.encode());
    });
    let mut reuse = Vec::with_capacity(frame.len());
    let encode_pooled = time_it(ITERS, || {
        request.encode_into(&mut reuse);
        std::hint::black_box(reuse.len());
    });
    assert_eq!(reuse, frame, "buffer-reusing encoder must be byte-identical");
    let parse_to_owned = time_it(ITERS, || {
        std::hint::black_box(Request::decode(&frame).unwrap());
    });
    let view_parse = time_it(ITERS, || {
        let view = RequestView::parse(&frame).unwrap();
        std::hint::black_box(view.kind());
    });
    assert_eq!(Request::decode(&frame).unwrap(), request, "parse + to_owned inverts encode");

    // Dispatch round trips: client encodes a transfer, the network
    // delivers and classifies it, a broker-shaped stub parses it and
    // answers with a grant, the client decodes the grant. `legacy` is the
    // allocating, materializing way to make each of those calls.
    let mut legacy_net = Network::new();
    legacy_net.set_classifier(wire_kind);
    let legacy_resp = response.clone();
    let legacy_server = legacy_net.register_with_net("broker", move |_net, bytes| {
        let decoded = Request::decode(bytes).expect("valid frame");
        assert!(matches!(decoded, Request::Transfer { downtime: true, .. }));
        legacy_resp.encode()
    });
    let legacy_client = legacy_net.register("client", |_: &[u8]| Vec::new());
    let legacy_rt = time_it(ITERS, || {
        let bytes = request.encode();
        let resp = legacy_net.request(legacy_client, legacy_server, bytes).unwrap();
        let decoded = Response::decode(&resp).unwrap();
        assert!(matches!(decoded, Response::Grant(_)));
    });

    let mut fast_net = Network::new();
    fast_net.set_classifier(wire_kind);
    let fast_resp = response.clone();
    let fast_server = fast_net.register_writer("broker", move |_net, bytes, out| {
        let view = RequestView::parse(bytes).expect("valid frame");
        assert!(matches!(view, RequestView::Transfer { downtime: true, .. }));
        fast_resp.encode_into(out);
    });
    let fast_client = fast_net.register_writer("client", |_net, _bytes, _out| {});
    let fast_roundtrip = |net: &mut Network| {
        let mut req_buf = codec::pooled();
        request.encode_into(&mut req_buf);
        let mut resp_buf = codec::pooled();
        net.request_into(fast_client, fast_server, &req_buf, &mut resp_buf).unwrap();
        let view = ResponseView::parse(&resp_buf).unwrap();
        assert!(matches!(view, ResponseView::Grant { .. }));
    };
    for _ in 0..8 {
        fast_roundtrip(&mut fast_net); // fill the buffer pool
    }
    let fast_rt = time_it(ITERS, || fast_roundtrip(&mut fast_net));

    // Allocation events per request on each path.
    const ALLOC_ITERS: u64 = 500;
    let before = allocs();
    for _ in 0..ALLOC_ITERS {
        let bytes = request.encode();
        let resp = legacy_net.request(legacy_client, legacy_server, bytes).unwrap();
        let _ = Response::decode(&resp).unwrap();
    }
    let legacy_allocs = allocs() - before;
    let before = allocs();
    for _ in 0..ALLOC_ITERS {
        fast_roundtrip(&mut fast_net);
    }
    let fast_allocs = allocs() - before;

    let speedup =
        |base: std::time::Duration, fast: std::time::Duration| base.as_secs_f64() / fast.as_secs_f64();
    let per_sec = |d: std::time::Duration| 1.0 / d.as_secs_f64();
    let alloc_ratio = legacy_allocs as f64 / (fast_allocs.max(1)) as f64;

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"generated_by\": \"crates/bench/src/bin/bench_wire_json.rs\",").unwrap();
    writeln!(json, "  \"host_cpus\": {},", std::thread::available_parallelism().map_or(1, |n| n.get()))
        .unwrap();
    writeln!(json, "  \"ifma\": {},", whopay_bench::bench_group().lane_plan(8).0 > 0).unwrap();
    writeln!(json, "  \"workload\": \"downtime transfer request (512-bit magnitudes) answered with a coin grant\",").unwrap();
    writeln!(
        json,
        "  \"frame_bytes\": {{ \"request\": {}, \"response\": {} }},",
        frame.len(),
        resp_frame.len()
    )
    .unwrap();
    writeln!(json, "  \"encode\": {{").unwrap();
    writeln!(json, "    \"fresh_vec_ns\": {},", encode_fresh.as_nanos()).unwrap();
    writeln!(json, "    \"reused_buffer_ns\": {},", encode_pooled.as_nanos()).unwrap();
    writeln!(json, "    \"speedup\": {:.2}", speedup(encode_fresh, encode_pooled)).unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"decode\": {{").unwrap();
    writeln!(json, "    \"parse_to_owned_ns\": {},", parse_to_owned.as_nanos()).unwrap();
    writeln!(json, "    \"view_parse_ns\": {},", view_parse.as_nanos()).unwrap();
    writeln!(json, "    \"speedup\": {:.2}", speedup(parse_to_owned, view_parse)).unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"round_trip\": {{").unwrap();
    writeln!(json, "    \"legacy_ns\": {},", legacy_rt.as_nanos()).unwrap();
    writeln!(json, "    \"fast_ns\": {},", fast_rt.as_nanos()).unwrap();
    writeln!(json, "    \"legacy_per_sec\": {:.0},", per_sec(legacy_rt)).unwrap();
    writeln!(json, "    \"fast_per_sec\": {:.0},", per_sec(fast_rt)).unwrap();
    writeln!(json, "    \"speedup\": {:.2}", speedup(legacy_rt, fast_rt)).unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"allocations\": {{").unwrap();
    writeln!(json, "    \"requests\": {ALLOC_ITERS},").unwrap();
    writeln!(json, "    \"legacy_per_request\": {:.1},", legacy_allocs as f64 / ALLOC_ITERS as f64)
        .unwrap();
    writeln!(json, "    \"fast_per_request\": {:.1},", fast_allocs as f64 / ALLOC_ITERS as f64)
        .unwrap();
    writeln!(json, "    \"ratio\": {alloc_ratio:.1}").unwrap();
    writeln!(json, "  }}").unwrap();
    writeln!(json, "}}").unwrap();

    std::fs::write(&out_path, &json).expect("write BENCH_wire.json");
    println!("wrote {out_path}:\n{json}");

    assert!(
        speedup(legacy_rt, fast_rt) >= 2.0,
        "tracked bar: round-trip speedup >= 2x (got {:.2})",
        speedup(legacy_rt, fast_rt)
    );
    assert!(alloc_ratio >= 5.0, "tracked bar: allocation ratio >= 5x (got {alloc_ratio:.1})");
}
