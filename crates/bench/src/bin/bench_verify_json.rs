//! Machine-readable verification benchmark: emits `BENCH_verify.json`
//! comparing per-signature and chained deposit verification at the
//! 512-bit bench security level.
//!
//! The workload is the broker's deposit-flood shape: a [`BindingChain`]
//! holding `len` deposits, each contributing three DSA checks (mint
//! signature, binding signature, holder signature). The per-signature
//! baseline runs the exact serial semantics the chain replaces — per
//! item, a subgroup-membership check and a signature verification, fused
//! into one `verify_member` chain where both concern the same key. The
//! chain walks the `verify_member` checks together, one exact chain per
//! key, and verifies the mint signatures as the baseline does.
//!
//! A second table, `groups`, is the shape a broker shard settles per
//! drain cycle: `n` signatures, each under its own cold key, as `n`
//! `verify_member` calls against one `verify_member_many` (`lanes`) —
//! every key's membership-and-power chain walked exactly, eight to a lane
//! call.
//!
//! A third table, `group_sigs`: `n` group signatures through
//! `GroupPublicKey::verify` one at a time against `verify_each`, whose
//! `2n` chains ride lanes from four chains up. On a host without
//! `avx512ifma` (`"ifma": false`) every lane column runs the serial
//! engine and reads as its serial neighbour.
//! `scripts/bench.sh` invokes this after the crypto bench; EXPERIMENTS.md
//! records the tracked speedups.

use std::fmt::Write as _;
use std::time::Duration;

use whopay_bench::{bench_group, time_it};
use whopay_core::BindingChain;
use whopay_crypto::batch::DsaBatchItem;
use whopay_crypto::dsa::{DsaKeyPair, DsaPublicKey, DsaSignature, MemberClaims};
use whopay_crypto::group_sig::{GroupManager, GroupSignature};
use whopay_crypto::testing::test_rng;
use whopay_num::{BigUint, SchnorrGroup};

/// Deposit counts settled together (the "chain lengths").
const CHAIN_LENS: [usize; 3] = [4, 16, 64];
/// Signatures a shard settles together in one drain cycle.
const GROUP_SIZES: [usize; 3] = [4, 16, 64];
/// Group signatures verified together.
const GROUP_SIG_COUNTS: [usize; 5] = [1, 2, 4, 16, 64];

/// One deposit's worth of verification work, as plain data.
struct Item {
    key: DsaPublicKey,
    message: Vec<u8>,
    sig: whopay_crypto::dsa::DsaSignature,
    element: BigUint,
}

/// Builds `len` deposits: broker-signed mint, coin-signed binding, and
/// holder-signed relinquishment per coin.
fn build_items(group: &SchnorrGroup, broker: &DsaKeyPair, len: usize, seed: u64) -> Vec<Item> {
    let mut rng = test_rng(seed);
    let mut items = Vec::with_capacity(len * 3);
    for i in 0..len {
        let coin = DsaKeyPair::generate(group, &mut rng);
        let holder = DsaKeyPair::generate(group, &mut rng);
        let coin_pk = coin.public().element().clone();
        let mint_msg = format!("bench/mint/{i}").into_bytes();
        let bind_msg = format!("bench/binding/{i}").into_bytes();
        let hold_msg = format!("bench/holder/{i}").into_bytes();
        items.push(Item {
            key: broker.public().clone(),
            message: mint_msg.clone(),
            sig: broker.sign(group, &mint_msg, &mut rng),
            element: coin_pk.clone(),
        });
        items.push(Item {
            key: coin.public().clone(),
            message: bind_msg.clone(),
            sig: coin.sign(group, &bind_msg, &mut rng),
            element: coin_pk,
        });
        items.push(Item {
            key: holder.public().clone(),
            message: hold_msg.clone(),
            sig: holder.sign(group, &hold_msg, &mut rng),
            element: holder.public().element().clone(),
        });
    }
    items
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_verify.json".to_string());
    let group = bench_group();
    let mut rng = test_rng(0xDE9051);
    let broker = DsaKeyPair::generate(group, &mut rng);

    let mut rows = Vec::new();
    for &len in &CHAIN_LENS {
        let iters = (64 / len).max(2) as u32;
        let items = build_items(group, &broker, len, 0x5EED ^ len as u64);
        let mut chain = BindingChain::new(group.clone(), broker.public().clone());
        for it in &items {
            chain.push_signature(
                it.key.clone(),
                it.message.clone(),
                it.sig.clone(),
                Some(it.element.clone()),
            );
        }

        // Per-signature baseline: the serial semantics the chain replaces.
        // A signature under the very key whose membership is in question
        // takes the fused `verify_member` the serial call sites use; the
        // mint signature (broker key, coin-key membership) has no chain
        // to share.
        let serial = time_it(iters, || {
            for it in &items {
                assert!(if it.key.element() == &it.element {
                    DsaPublicKey::verify_member(group, &it.element, &it.message, &it.sig)
                } else {
                    group.is_element(&it.element) && it.key.verify(group, &it.message, &it.sig)
                });
            }
        });

        let batched = time_it(iters, || assert!(chain.verify_batch(None)));
        rows.push((len, items.len(), serial, batched));
    }

    // Drain-cycle groups: n holder signatures, each key cold.
    let mut groups = Vec::new();
    for &n in &GROUP_SIZES {
        let iters = (256 / n).max(4) as u32;
        let mut rng = test_rng(0x6A0B ^ n as u64);
        let items: Vec<DsaBatchItem> = (0..n)
            .map(|i| {
                let key = DsaKeyPair::generate(group, &mut rng);
                let message = format!("bench/group/{i}").into_bytes();
                let sig = key.sign(group, &message, &mut rng);
                DsaBatchItem { key: key.public().clone(), message, sig }
            })
            .collect();
        let serial = time_it(iters, || {
            for it in &items {
                assert!(DsaPublicKey::verify_member(group, it.key.element(), &it.message, &it.sig));
            }
        });
        let claims: Vec<[(&[u8], &DsaSignature); 1]> =
            items.iter().map(|it| [(&it.message[..], &it.sig)]).collect();
        let keys: Vec<MemberClaims<'_>> =
            items.iter().zip(&claims).map(|(it, claim)| (it.key.element(), &claim[..])).collect();
        let lanes = time_it(iters, || {
            let verdicts = DsaPublicKey::verify_member_many(group, &keys);
            assert!(verdicts.iter().all(|v| v.as_deref() == Some(&[true][..])));
        });
        groups.push((n, serial, lanes));
    }

    // Group signatures: one at a time against all their chains at once.
    let mut judge = GroupManager::new(group.clone(), &mut rng);
    let member = judge.enroll((), &mut rng);
    let gpk = judge.public_key();
    let mut group_sigs = Vec::new();
    for &n in &GROUP_SIG_COUNTS {
        let iters = (256 / n).max(4) as u32;
        let signed: Vec<(Vec<u8>, GroupSignature)> = (0..n)
            .map(|i| {
                let message = format!("bench/group-sig/{i}").into_bytes();
                let sig = member.sign(group, gpk, &message, &mut rng);
                (message, sig)
            })
            .collect();
        let claims: Vec<(&[u8], &GroupSignature)> = signed.iter().map(|(m, s)| (&m[..], s)).collect();
        let serial = time_it(iters, || assert!(claims.iter().all(|(m, s)| gpk.verify(group, m, s))));
        let each = time_it(iters, || assert!(gpk.verify_each(group, &claims).iter().all(|&ok| ok)));
        group_sigs.push((n, serial, each));
    }

    let speedup = |base: Duration, d: Duration| base.as_secs_f64() / d.as_secs_f64();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"generated_by\": \"crates/bench/src/bin/bench_verify_json.rs\",").unwrap();
    writeln!(json, "  \"group\": \"512/160\",").unwrap();
    writeln!(json, "  \"host_cpus\": {host_cpus},").unwrap();
    writeln!(json, "  \"ifma\": {},", group.lane_plan(8).0 > 0).unwrap();
    writeln!(json, "  \"chains\": [").unwrap();
    for (i, (len, sigs, serial, batched)) in rows.iter().enumerate() {
        writeln!(
            json,
            "    {{ \"len\": {len}, \"signatures\": {sigs}, \"per_signature_ns\": {}, \
             \"batched_ns\": {}, \"batched_speedup\": {:.2} }}{}",
            serial.as_nanos(),
            batched.as_nanos(),
            speedup(*serial, *batched),
            if i + 1 < rows.len() { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"groups\": [").unwrap();
    for (i, (n, serial, lanes)) in groups.iter().enumerate() {
        writeln!(
            json,
            "    {{ \"n\": {n}, \"verify_member_ns_per_sig\": {}, \"lanes_ns_per_sig\": {}, \
             \"lanes_speedup\": {:.2} }}{}",
            serial.as_nanos() / *n as u128,
            lanes.as_nanos() / *n as u128,
            speedup(*serial, *lanes),
            if i + 1 < groups.len() { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"group_sigs\": [").unwrap();
    for (i, (n, serial, each)) in group_sigs.iter().enumerate() {
        writeln!(
            json,
            "    {{ \"n\": {n}, \"verify_ns_per_sig\": {}, \"verify_each_ns_per_sig\": {}, \
             \"verify_each_speedup\": {:.2} }}{}",
            serial.as_nanos() / *n as u128,
            each.as_nanos() / *n as u128,
            speedup(*serial, *each),
            if i + 1 < group_sigs.len() { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();

    std::fs::write(&out_path, &json).expect("write BENCH_verify.json");
    println!("wrote {out_path}:\n{json}");
}
