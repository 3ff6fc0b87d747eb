//! What a lane call costs against the chains it stands in for, on the
//! host this runs on: the figures `SchnorrGroup::LANE_MIN` is set from.
//!
//! ```text
//! cargo run --release -p whopay-num --example lane_cost
//! ```
//!
//! A chain here is what a verifier owes an untrusted key: its membership
//! power and one more exponent over one squaring chain
//! (`SchnorrGroup::pow_member_each`), in the benchmark's 512/160 group.
//! Each figure is the p50 of `ROUNDS` timed rounds, each block warmed up
//! first:
//!
//! * a lone chain, walked with no lane call near it;
//! * a lane call carrying 1 chain, and one carrying 3;
//! * 3 chains walked alone, one after another;
//! * a lone chain walked right after a lane call — the price the next
//!   scalar step pays for the lower clock of 512-bit instructions.
//!
//! A lane call pays where it costs less than the chains it carries would
//! alone plus what it makes the next scalar chain lose; the last line
//! says where that is for 1..=8 chains. On a host without the lane engine
//! only the scalar figures are printed.
//!
//! Before them come the fixed-base figures a signer's coupon pool rests
//! on (`whopay_crypto::coupon`: a refill raises eight exponents at a
//! time), printed on any host:
//!
//! * one lone `pow_g`, and eight `pow_g` one after another;
//! * one `pow_g_many` of eight — one lane call of the generator's comb,
//!   or eight lone powers where there is no lane engine;
//! * a key comb of the judge key's shape (`FixedBaseTable::for_key`, the
//!   table a hot key builds): eight exponents walked alone, and the same
//!   eight through `pow_table_many`.
//!
//! And before those, what `SchnorrGroup::generate` spends most of its
//! time on: the forty Miller–Rabin powers `a^d mod p` that confirm a
//! 512-bit prime (the group's `p`), walked one by one and in five lane
//! calls — `primes::is_probable_prime` raises its first base alone and the
//! other 39 in lanes.

use std::hint::black_box;
use std::time::Instant;

use rand::SeedableRng;
use whopay_num::{BigUint, FixedBaseTable, ModRing, SchnorrGroup};

/// Timed rounds per figure.
const ROUNDS: usize = 300;
/// Untimed rounds before each block.
const WARM_UP: usize = 30;
/// The benchmark's group seed (`bench_group()`).
const GROUP_SEED: u64 = 0xBE4C4;

/// The p50 over `ROUNDS` of what `timed` returns, in µs; `timed` runs its
/// own untimed set-up and returns the seconds of the part that counts.
fn p50(mut timed: impl FnMut() -> f64) -> f64 {
    (0..WARM_UP).for_each(|_| {
        timed();
    });
    let mut samples: Vec<f64> = (0..ROUNDS).map(|_| timed()).collect();
    samples.sort_by(f64::total_cmp);
    samples[ROUNDS / 2] * 1e6
}

/// [`p50`] of `f` timed alone, its result kept from the optimiser.
fn p50_of<T>(mut f: impl FnMut() -> T) -> f64 {
    p50(|| {
        seconds(|| {
            black_box(f());
        })
    })
}

fn seconds(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(GROUP_SEED);
    let group = SchnorrGroup::generate(512, 160, &mut rng);
    let keys: Vec<BigUint> = (0..3).map(|_| group.pow_g(&group.random_scalar(&mut rng))).collect();
    let exps: Vec<BigUint> = (0..3).map(|_| group.random_scalar(&mut rng)).collect();
    miller_rabin_figures(&group, &mut rng);
    comb_figures(&group, &mut rng);
    let chain = |i: usize| {
        let powers = group.pow_member_each(&keys[i], &[&exps[i]]);
        assert!(powers.is_some(), "a key is a member");
    };

    let lone = p50(|| seconds(|| chain(0)));
    let three_alone = p50(|| seconds(|| (0..3).for_each(chain)));
    println!("lone chain                      p50 {lone:8.2} us");
    println!("3 chains walked alone           p50 {three_alone:8.2} us");

    #[cfg(target_arch = "x86_64")]
    if let Some(ring) = group.lane_ring() {
        let lane_call = |n: usize| {
            let exps: Vec<[&BigUint; 1]> = exps[..n].iter().map(|e| [e]).collect();
            let items: Vec<(&BigUint, &[&BigUint])> =
                keys[..n].iter().zip(&exps).map(|(x, e)| (x, &e[..])).collect();
            let powers = group.pow_member_lanes(ring, &items);
            assert!(powers.iter().all(Option::is_some), "every key is a member");
        };
        let call_1 = p50(|| seconds(|| lane_call(1)));
        let call_3 = p50(|| seconds(|| lane_call(3)));
        let after = p50(|| {
            lane_call(3);
            seconds(|| chain(0))
        });
        println!("lane call carrying 1 chain      p50 {call_1:8.2} us");
        println!("lane call carrying 3 chains     p50 {call_3:8.2} us");
        println!("lone chain after a lane call    p50 {after:8.2} us");
        // A call costs about the same whatever it carries (up to eight):
        // it pays from the first n whose chains alone cost more than the
        // call and the next scalar chain's slowdown together.
        let call = call_1.max(call_3);
        let pays_from = (1..=8).find(|&n| n as f64 * lone > call + (after - lone).max(0.0));
        match pays_from {
            Some(n) => println!("a lane call pays from {n} chains up on this host"),
            None => println!("a lane call does not pay on this host at 8 chains or fewer"),
        }
        return;
    }
    println!("no lane engine on this host: every chain walks alone");
}

/// Forty Miller–Rabin powers over the group's `p`: `a^d` for forty random
/// bases, `p − 1 = d·2^s` with `d` odd, one by one and in lanes.
fn miller_rabin_figures(group: &SchnorrGroup, rng: &mut impl rand::Rng) {
    let p = group.modulus();
    let p_minus_1 = p - &BigUint::one();
    let d = &p_minus_1 >> (0..).find(|&i| p_minus_1.bit(i)).expect("p > 1");
    let bases: Vec<BigUint> = (0..40).map(|_| BigUint::random_below(rng, p)).collect();
    let ring = ModRing::new(p.clone());
    let alone = p50_of(|| bases.iter().map(|a| ring.pow(a, &d)).collect::<Vec<_>>());
    println!("40 Miller-Rabin powers alone    p50 {alone:8.2} us");
    #[cfg(target_arch = "x86_64")]
    if let Some(lanes) = whopay_num::lanes::LaneRing::new(p) {
        let items: Vec<(&BigUint, &[&BigUint])> = bases.iter().map(|a| (a, &[][..])).collect();
        let laned = p50_of(|| lanes.pow_each(&d, &items));
        println!("40 Miller-Rabin powers in lanes p50 {laned:8.2} us ({:.2}x)", laned / alone);
    }
}

/// The fixed-base figures: lone generator powers against one
/// `pow_g_many` of eight, and a key comb's eight powers alone against
/// one `pow_table_many` call.
fn comb_figures(group: &SchnorrGroup, rng: &mut impl rand::Rng) {
    let exps: Vec<BigUint> = (0..8).map(|_| group.random_scalar(rng)).collect();
    let exps: Vec<&BigUint> = exps.iter().collect();
    let lone = p50_of(|| group.pow_g(exps[0]));
    let eight_alone = p50_of(|| exps.iter().map(|e| group.pow_g(e)).collect::<Vec<_>>());
    let eight_many = p50_of(|| group.pow_g_many(&exps));
    println!("lone pow_g                      p50 {lone:8.2} us");
    println!("8 pow_g, one after another      p50 {eight_alone:8.2} us");
    println!("pow_g_many of 8                 p50 {eight_many:8.2} us");

    let mont = group.elem_ring().montgomery().expect("an odd modulus has a Montgomery form");
    let key = group.pow_g(&group.random_scalar(rng));
    let table = FixedBaseTable::for_key(mont, &key, group.order().bits());
    let key_alone = p50_of(|| exps.iter().map(|e| table.pow(mont, e)).collect::<Vec<_>>());
    let key_many = p50_of(|| group.pow_table_many(&table, &key, &exps));
    println!("key comb: 8 powers alone        p50 {key_alone:8.2} us");
    println!("key comb: pow_table_many of 8   p50 {key_many:8.2} us");
    println!(
        "a refill's eight powers cost {:.2}x (generator) and {:.2}x (key) of eight alone",
        eight_many / eight_alone,
        key_many / key_alone
    );
}
