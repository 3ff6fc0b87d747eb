//! Machine-readable verification benchmark: emits `BENCH_verify.json`
//! comparing per-signature, batched (1 thread), and batched+parallel
//! deposit-chain verification at the 512-bit bench security level.
//!
//! The workload is the broker's deposit-flood shape: a [`BindingChain`]
//! holding `len` deposits, each contributing three DSA checks (mint
//! signature, binding signature, holder signature) with the coin's
//! membership test shared between the first two. The per-signature
//! baseline runs the exact serial semantics the chain replaces — per
//! item, a subgroup-membership check and a signature verification, fused
//! into one `verify_member` chain where both concern the same key.
//!
//! A second table, `groups`, is the shape a broker shard settles per
//! drain cycle: `n` signatures, each under its own cold key, against `n`
//! `verify_member` calls. Five ways: `members` — the keys are proven
//! members already (a minted coin's key, a holder key a renewal verified
//! under) and one reduced-exponent combination settles the signatures;
//! `proven` — each key is first proven by `is_element`; `merged` — the
//! membership rides in the combination on the key's own base, which the
//! peers' chain verification does and the broker does not (DESIGN.md §9);
//! `lanes` — `verify_member_many`, every key's membership-and-power chain
//! walked exactly, eight to a lane call, which is what a shard does for a
//! holder key nothing vouches for yet; `lane_proven` — the keys proven by
//! `pow_member_many`, then the `members` combination. Plus the cost of
//! finding one forgery among the `members` claims.
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
use whopay_core::{BindingChain, VerifyPool};
use whopay_crypto::batch::{verify_dsa_members, verify_dsa_with_elements, DsaBatchItem};
use whopay_crypto::dsa::{DsaKeyPair, DsaPublicKey, DsaSignature, MemberClaims};
use whopay_crypto::group_sig::{GroupManager, GroupSignature};
use whopay_crypto::testing::test_rng;
use whopay_num::{BigUint, Powers, SchnorrGroup};

/// Deposit counts settled together (the "chain lengths").
const CHAIN_LENS: [usize; 3] = [4, 16, 64];
/// Pool widths for the parallel rows.
const THREADS: [usize; 4] = [1, 2, 4, 8];
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

        // Batched (and batched+parallel) through the chain.
        let mut by_threads: Vec<(usize, Duration)> = Vec::new();
        for &t in &THREADS {
            let pool = VerifyPool::new(t);
            let d = time_it(iters, || {
                assert!(chain.verify_each(None, &pool).iter().all(|&ok| ok));
            });
            by_threads.push((t, d));
        }
        rows.push((len, items.len(), serial, by_threads));
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
        let elements: Vec<BigUint> = items.iter().map(|it| it.key.element().clone()).collect();
        let serial = time_it(iters, || {
            for it in &items {
                assert!(DsaPublicKey::verify_member(group, it.key.element(), &it.message, &it.sig));
            }
        });
        let all_hold = |settled: whopay_crypto::batch::BatchOutcome| {
            assert!(settled.combined_checks == 1 && settled.signatures.iter().all(|&ok| ok));
        };
        let members = time_it(iters, || all_hold(verify_dsa_members(group, &items)));
        let proven = time_it(iters, || {
            assert!(elements.iter().all(|x| group.is_element(x)));
            all_hold(verify_dsa_members(group, &items));
        });
        let merged = time_it(iters, || all_hold(verify_dsa_with_elements(group, &items, &elements)));
        let claims: Vec<[(&[u8], &DsaSignature); 1]> =
            items.iter().map(|it| [(&it.message[..], &it.sig)]).collect();
        let keys: Vec<MemberClaims<'_>> =
            items.iter().zip(&claims).map(|(it, claim)| (it.key.element(), &claim[..])).collect();
        let lanes = time_it(iters, || {
            let verdicts = DsaPublicKey::verify_member_many(group, &keys);
            assert!(verdicts.iter().all(|v| v.as_deref() == Some(&[true][..])));
        });
        let bare: Vec<Powers<'_>> = elements.iter().map(|x| (x, &[][..])).collect();
        let lane_proven = time_it(iters, || {
            assert!(group.pow_member_many(&bare).iter().all(Option::is_some));
            all_hold(verify_dsa_members(group, &items));
        });
        let mut forged = items.clone();
        forged[n / 3].message.push(0xA5);
        let one_forgery = time_it(iters, || {
            let settled = verify_dsa_members(group, &forged);
            assert_eq!(settled.signatures.iter().filter(|&&ok| !ok).count(), 1);
        });
        groups.push((n, serial, [members, proven, merged, lanes, lane_proven, one_forgery]));
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
    for (row_idx, (len, sigs, serial, by_threads)) in rows.iter().enumerate() {
        writeln!(json, "    {{").unwrap();
        writeln!(json, "      \"len\": {len},").unwrap();
        writeln!(json, "      \"signatures\": {sigs},").unwrap();
        writeln!(json, "      \"per_signature_ns\": {},", serial.as_nanos()).unwrap();
        for (i, (t, d)) in by_threads.iter().enumerate() {
            let label = if *t == 1 { "batched".to_string() } else { format!("batched_parallel_{t}t") };
            // A multi-thread row timed on a single-CPU host says nothing
            // about parallel speedup; mark it so downstream tooling never
            // treats the (serialized) number as evidence.
            let unproven = if *t > 1 && host_cpus == 1 {
                format!(", \"{label}_unproven\": true")
            } else {
                String::new()
            };
            writeln!(
                json,
                "      \"{label}_ns\": {}, \"{label}_speedup\": {:.2}{unproven}{}",
                d.as_nanos(),
                speedup(*serial, *d),
                if i + 1 < by_threads.len() { "," } else { "" }
            )
            .unwrap();
        }
        writeln!(json, "    }}{}", if row_idx + 1 < rows.len() { "," } else { "" }).unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"groups\": [").unwrap();
    for (i, (n, serial, [members, proven, merged, lanes, lane_proven, one_forgery])) in
        groups.iter().enumerate()
    {
        let per_sig = |d: &Duration| d.as_nanos() / *n as u128;
        write!(json, "    {{ \"n\": {n}, \"verify_member_ns_per_sig\": {}", per_sig(serial)).unwrap();
        for (label, d) in [
            ("members_batch", members),
            ("proven_batch", proven),
            ("merged_batch", merged),
            ("lanes", lanes),
            ("lane_proven_batch", lane_proven),
        ] {
            write!(
                json,
                ", \"{label}_ns_per_sig\": {}, \"{label}_speedup\": {:.2}",
                per_sig(d),
                speedup(*serial, *d)
            )
            .unwrap();
        }
        writeln!(
            json,
            ", \"one_forgery_ns_per_sig\": {} }}{}",
            per_sig(one_forgery),
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
