//! Differential tests for primality testing and group generation.
//!
//! `primes::is_probable_prime` screens with a one-limb remainder and
//! raises rounds two to forty of Miller–Rabin together — in lanes where
//! the host has the engine and the candidate fits it, one by one
//! elsewhere. The round-by-round test it replaces is kept here as the
//! oracle ([`oracle`]): on the same seed both give the same verdict on
//! every candidate, and leave the rng where the oracle leaves it, or —
//! for a composite that passes a random base — where drawing all forty
//! bases leaves it. The candidates are random odd numbers at 64–600 bits
//! (past the lane engine's widest modulus, so both engines are
//! entered), known primes, Carmichael numbers and strong pseudoprimes.
//!
//! The groups every test and the benchmark build are pinned by digest:
//! a change that moves a single draw of `SchnorrGroup::generate` moves
//! them.

use std::io::Write;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use whopay_num::primes::{self, SchnorrGroup};
use whopay_num::{BigUint, ModRing};

/// Miller–Rabin rounds of `is_probable_prime`.
const ROUNDS: usize = 40;

/// The primes trial division screens with, in its order.
const SMALL_PRIMES: [u64; 46] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197,
    199,
];

/// The round-by-round test: trial division by `BigUint` remainders, then
/// one base drawn and tested per round, stopping at the first witness.
/// Returns the verdict and the number of bases drawn.
fn oracle(n: &BigUint, rng: &mut impl Rng) -> (bool, usize) {
    let (one, two) = (BigUint::one(), BigUint::from(2u64));
    if n < &two {
        return (false, 0);
    }
    for p in SMALL_PRIMES.map(BigUint::from) {
        if *n == p {
            return (true, 0);
        }
        if (n % &p).is_zero() {
            return (false, 0);
        }
    }
    let n_minus_1 = n - &one;
    let s = (0..).find(|&i| n_minus_1.bit(i)).expect("n - 1 is nonzero");
    let d = &n_minus_1 >> s;
    let ring = ModRing::new(n.clone());
    let bound = n - &two;
    'witness: for round in 1..=ROUNDS {
        let mut x = ring.pow(&BigUint::random_range(rng, &two, &bound), &d);
        if x.is_one() || x == n_minus_1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = ring.sqr(&x);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return (false, round);
    }
    (true, ROUNDS)
}

/// Says once, past the harness's capture, which engine raises the later
/// rounds of a candidate the lane engine fits, so a suite that could only
/// check the one-by-one loop never passes silently.
fn say_engine() {
    static SAID: std::sync::Once = std::sync::Once::new();
    SAID.call_once(|| {
        #[cfg(target_arch = "x86_64")]
        let lanes = whopay_num::lanes::LaneRing::new(&BigUint::from(211u64)).is_some();
        #[cfg(not(target_arch = "x86_64"))]
        let lanes = false;
        let which = match lanes {
            true => "avx512ifma lanes up to 518 bits, one by one above",
            false => "one by one only: no lane engine on this host, the lane path was NOT exercised",
        };
        writeln!(std::io::stderr(), "primes_diff: engine under test: {which}").expect("stderr");
    });
}

/// `is_probable_prime(n)` against the oracle on seed `seed`: the same
/// verdict, and the rng left where the oracle leaves it when `n` is prime
/// or fails before its second base, else where forty draws leave it.
fn check(n: &BigUint, seed: u64) {
    say_engine();
    let mut rng = StdRng::seed_from_u64(seed);
    let verdict = primes::is_probable_prime(n, &mut rng);
    let (want, drawn) = oracle(n, &mut StdRng::seed_from_u64(seed));
    assert_eq!(verdict, want, "verdict on {n} (seed {seed})");
    let drawn = if want || drawn <= 1 { drawn } else { ROUNDS };
    let mut replay = StdRng::seed_from_u64(seed);
    let two = BigUint::from(2u64);
    for _ in 0..drawn {
        BigUint::random_range(&mut replay, &two, &(n - &two));
    }
    assert_eq!(rng, replay, "rng position after {n} (seed {seed}, {drawn} bases)");
}

/// Random odd candidates at 64–600 bits: almost all are screened out or
/// fail their first base, and those that reach Miller–Rabin cross the
/// lane engine's widest modulus (518 bits).
#[test]
fn random_odd_candidates_get_the_oracles_verdict_and_draws() {
    let mut rng = StdRng::seed_from_u64(0x0DD);
    let widths =
        [64, 65, 96, 127, 128, 160, 192, 255, 256, 320, 384, 448, 511, 512, 517, 518, 519, 600];
    for bits in widths {
        for i in 0..24 {
            let n = BigUint::random_bits(&mut rng, bits);
            let n = if n.is_even() { &n + &BigUint::one() } else { n };
            check(&n, bits as u64 * 1000 + i);
        }
    }
}

/// Primes `gen_prime` finds at 64–600 bits, a few fixed ones, and every
/// number below 2¹⁶ that trial division leaves to Miller–Rabin or decides
/// (0, 1, the screening primes themselves).
#[test]
fn primes_and_small_numbers_get_the_oracles_verdict_and_draws() {
    let mut rng = StdRng::seed_from_u64(0x9219);
    for bits in [64, 128, 160, 256, 512, 518, 519, 600] {
        check(&primes::gen_prime(bits, &mut rng), bits as u64);
    }
    let mersenne = |k: usize| (BigUint::one() << k) - &BigUint::one();
    for (i, p) in [mersenne(61), mersenne(89), mersenne(127), mersenne(521), BigUint::from(104_729u64)]
        .iter()
        .enumerate()
    {
        check(p, i as u64);
    }
    for n in (0..1u64 << 16).step_by(7) {
        check(&BigUint::from(n), n);
    }
}

/// Carmichael numbers (a small one trial division screens, and Chernick
/// ones `(6k+1)(12k+1)(18k+1)` whose factors are all past 199) and strong
/// pseudoprimes to the first several prime bases, each on many seeds: a
/// random base often passes, so some seeds fail only at a later round and
/// draw all forty bases.
#[test]
fn pseudoprimes_get_the_oracles_verdict_on_every_seed() {
    let chernick = |k: u64| (6 * k + 1) * (12 * k + 1) * (18 * k + 1);
    let hard: Vec<BigUint> = [
        "561",
        "41041",
        &chernick(35).to_string(),
        &chernick(45).to_string(),
        "3215031751",
        "3825123056546413051",
        "318665857834031151167461",
        "3317044064679887385961981",
    ]
    .iter()
    .map(|s| s.parse().expect("decimal"))
    .collect();
    for n in &hard {
        for seed in 0..64 {
            check(n, seed);
        }
    }
}

/// 64-bit FNV-1a over `p`, `q` and `g` in hex, colon-separated.
fn digest(group: &SchnorrGroup) -> u64 {
    let text = [group.modulus(), group.order(), group.generator()].map(BigUint::to_hex).join(":");
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The groups the tests and the benchmark build: the benchmark's (512/160,
/// seed 0xBE4C4), `tiny_group` (192/96, 0xC0FFEE), `small_group` (512/160,
/// 0xBEEF) and Table 2's 1024/160 one (0x7AB1E2), each from a `StdRng`
/// seeded with its seed.
#[test]
fn the_groups_are_pinned() {
    let pinned = [
        (512, 160, 0xBE4C4, 0xda66_b0c5_1e0f_7ff5),
        (192, 96, 0xC0FFEE, 0x2ce7_5cbe_2724_1bf8),
        (512, 160, 0xBEEF, 0x518c_43eb_38db_e072),
        (1024, 160, 0x7AB1E2, 0xae67_b3e1_3139_7c22),
    ];
    for (p_bits, q_bits, seed, want) in pinned {
        let group = SchnorrGroup::generate(p_bits, q_bits, &mut StdRng::seed_from_u64(seed));
        let got = digest(&group);
        assert_eq!(got, want, "{p_bits}/{q_bits} group of seed {seed:#x}: {got:#x}");
    }
}

/// `gen_prime` finds what a loop over the oracle finds on 30 seeded
/// (seed, width) pairs: the same prime, after the same draws.
#[test]
fn gen_prime_finds_the_oracles_prime() {
    for seed in 0..30u64 {
        let bits = [64, 96, 160, 192, 256, 352, 512, 544][seed as usize % 8];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut want_rng = StdRng::seed_from_u64(seed);
        let want = loop {
            let c = BigUint::random_bits(&mut want_rng, bits);
            let c = if c.is_even() { &c + &BigUint::one() } else { c };
            if c.bits() == bits && oracle(&c, &mut want_rng).0 {
                break c;
            }
        };
        assert_eq!(primes::gen_prime(bits, &mut rng), want, "seed {seed}, {bits} bits");
        assert_eq!(rng, want_rng, "seed {seed}: rng position");
    }
}
