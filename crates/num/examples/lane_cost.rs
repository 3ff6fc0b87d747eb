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

use std::time::Instant;

use rand::SeedableRng;
use whopay_num::{BigUint, SchnorrGroup};

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
