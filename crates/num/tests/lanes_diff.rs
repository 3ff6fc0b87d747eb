//! Differential tests for the AVX-512 IFMA lane engine.
//!
//! `SchnorrGroup::pow_member_many` has two engines: eight chains to a
//! lane call (`pow_member_lanes`), and a loop over `pow_member_each`.
//! Both are entered directly here, so nothing has to be switched: at
//! every occupancy from one chain to two calls and a lane, over elements
//! inside and outside the subgroup (0, 1, `p − 1`, `p`, `p + 7`, random
//! values, members twisted by an element of order 2, 3 and 4) and 0 to 3
//! exponents each (0, 1, `q − 1`, `q`, wider than `q`, random), they must
//! agree item for item — and so must the dispatching call. The comb has
//! two engines the same way (`pow_table_lanes`, and `FixedBaseTable::pow`
//! one exponent at a time): in both table shapes, at every occupancy,
//! over 0, 1, `q − 1`, the widest exponent a table covers, one bit wider
//! and random ones, they and `pow_table_many` / `pow_g_many` agree with
//! the plain power. The Montgomery
//! product and squaring are held to `ModRing::mul` on inputs up to
//! `2p − 1`, over the group's prime and over arbitrary odd moduli up to
//! the engine's width; a wider modulus gets no engine at all.
//!
//! On a host without `avx512ifma` there is no lane engine to test: the
//! suite says so on stderr and checks only that the dispatching call is
//! the loop.
#![cfg(target_arch = "x86_64")]

use std::io::Write;
use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use whopay_num::lanes::{LaneRing, LANES, MAX_MODULUS_BITS};
use whopay_num::{BigUint, FixedBaseTable, ModRing, Powers, SchnorrGroup};

/// The benchmark's 512/160 group; its cofactor `(p − 1)/q` holds `4·9`,
/// so `Z_p*` has elements of order 2, 3 and 4.
fn group() -> &'static SchnorrGroup {
    static GROUP: OnceLock<SchnorrGroup> = OnceLock::new();
    GROUP.get_or_init(|| SchnorrGroup::generate(512, 160, &mut StdRng::seed_from_u64(0xBE4C4)))
}

/// The group's lane engine, `None` on a host that has none. Which it is
/// goes to stderr once per run, past the harness's capture, so a suite
/// that could only check the serial engine never passes silently.
fn engine() -> Option<&'static LaneRing> {
    static SAID: std::sync::Once = std::sync::Once::new();
    let ring = group().lane_ring();
    SAID.call_once(|| {
        let which = match ring {
            Some(_) => "avx512ifma lanes, eight chains to a call",
            None => "serial only: no avx512ifma on this host, the lane kernels were NOT exercised",
        };
        writeln!(std::io::stderr(), "lanes_diff: engine under test: {which}").expect("stderr");
    });
    ring
}

/// An element of exact order `d` (2, 3 or 4) in `Z_p*`.
fn of_order(d: u64, rng: &mut impl Rng) -> BigUint {
    let (group, one) = (group(), BigUint::one());
    let ring = group.elem_ring();
    let (cofactor, rest) = (group.modulus() - &one).div_rem(&BigUint::from(d));
    assert!(rest.is_zero(), "{d} divides p - 1");
    loop {
        let h = ring.pow(&BigUint::random_range(rng, &one, group.modulus()), &cofactor);
        // Order divides d; for d = 4 rule out 1 and 2, for a prime d only 1.
        if !ring.pow(&h, &BigUint::from(d / 2 + d % 2)).is_one() {
            return h;
        }
    }
}

fn element(kind: usize, rng: &mut impl Rng) -> BigUint {
    let (group, one) = (group(), BigUint::one());
    let p = group.modulus();
    let member = group.pow_g(&group.random_scalar(rng));
    match kind % 10 {
        0 => BigUint::zero(),
        1 => one,
        2 => p - &one,
        3 => p.clone(),
        4 => p + &BigUint::from(7u64),
        5 => BigUint::random_below(rng, p),
        6 => group.elem_ring().mul(&member, &of_order(2, rng)),
        7 => group.elem_ring().mul(&member, &of_order(3, rng)),
        8 => group.elem_ring().mul(&member, &of_order(4, rng)),
        _ => member,
    }
}

fn exponent(kind: usize, rng: &mut impl Rng) -> BigUint {
    let (q, one) = (group().order(), BigUint::one());
    match kind % 7 {
        0 => BigUint::zero(),
        1 => one,
        2 => q - &one,
        3 => q.clone(),
        4 => BigUint::random_bits(rng, 200),
        5 => BigUint::random_bits(rng, 64),
        _ => BigUint::random_below(rng, q),
    }
}

/// `n` chains, each an element and 0 to 3 exponents.
fn chains(n: usize, rng: &mut StdRng) -> Vec<(BigUint, Vec<BigUint>)> {
    (0..n)
        .map(|_| {
            let x = element(rng.random_range(0..10), rng);
            let exps = (0..rng.random_range(0..4)).map(|_| exponent(rng.random_range(0..7), rng));
            (x, exps.collect())
        })
        .collect()
}

/// Runs `check` over `owned` borrowed the way `pow_member_many` takes it.
fn with_items<T>(owned: &[(BigUint, Vec<BigUint>)], check: impl FnOnce(&[Powers<'_>]) -> T) -> T {
    let exps: Vec<Vec<&BigUint>> = owned.iter().map(|(_, exps)| exps.iter().collect()).collect();
    let items: Vec<Powers<'_>> = owned.iter().zip(&exps).map(|((x, _), exps)| (x, &exps[..])).collect();
    check(&items)
}

fn serial(items: &[Powers<'_>]) -> Vec<Option<Vec<BigUint>>> {
    items.iter().map(|(x, exps)| group().pow_member_each(x, exps)).collect()
}

#[test]
fn every_element_kind_meets_every_exponent_kind_in_a_lane() {
    let ring = engine();
    let mut rng = StdRng::seed_from_u64(0x1A7E5);
    for e_kind in 0..7 {
        let owned: Vec<(BigUint, Vec<BigUint>)> = (0..10)
            .map(|x_kind| (element(x_kind, &mut rng), vec![exponent(e_kind, &mut rng)]))
            .collect();
        with_items(&owned, |items| {
            let want = serial(items);
            // Members answer, everything else is refused.
            for (kind, verdict) in want.iter().enumerate() {
                assert_eq!(verdict.is_some(), matches!(kind, 1 | 9), "element kind {kind}");
            }
            assert_eq!(group().pow_member_many(items), want, "dispatch, exponent kind {e_kind}");
            if let Some(ring) = ring {
                assert_eq!(group().pow_member_lanes(ring, items), want, "exponent kind {e_kind}");
            }
        });
    }
}

#[test]
fn no_items_and_no_exponents() {
    let ring = engine();
    let mut rng = StdRng::seed_from_u64(0x1A7E6);
    assert!(group().pow_member_many(&[]).is_empty());
    let xs: Vec<BigUint> = (0..10).map(|kind| element(kind, &mut rng)).collect();
    let items: Vec<Powers<'_>> = xs.iter().map(|x| (x, &[][..])).collect();
    let want: Vec<Option<Vec<BigUint>>> =
        xs.iter().map(|x| group().is_element(x).then(Vec::new)).collect();
    assert_eq!(group().pow_member_many(&items), want);
    if let Some(ring) = ring {
        assert!(group().pow_member_lanes(ring, &[]).is_empty());
        assert_eq!(group().pow_member_lanes(ring, &items), want);
    }
}

#[test]
fn a_modulus_too_wide_for_ten_limbs_takes_the_scalar_engine() {
    let mut rng = StdRng::seed_from_u64(0x1A7E7);
    let wide = (BigUint::one() << MAX_MODULUS_BITS) + BigUint::one();
    assert!(LaneRing::new(&wide).is_none());
    assert!(LaneRing::new(&(BigUint::one() << 64)).is_none(), "even modulus");
    let group = SchnorrGroup::generate(MAX_MODULUS_BITS + 1, 96, &mut rng);
    assert!(group.lane_ring().is_none());
    assert_eq!(group.lane_plan(64), (0, 0));
    let xs: Vec<BigUint> = (0..9)
        .map(|i| match i % 3 {
            0 => group.pow_g(&group.random_scalar(&mut rng)),
            1 => group.elem_ring().neg(&group.pow_g(&group.random_scalar(&mut rng))),
            _ => BigUint::random_below(&mut rng, group.modulus()),
        })
        .collect();
    let e = group.random_scalar(&mut rng);
    let exps = [&e];
    let items: Vec<Powers<'_>> = xs.iter().map(|x| (x, &exps[..])).collect();
    let want: Vec<_> = xs.iter().map(|x| group.pow_member_each(x, &exps)).collect();
    assert_eq!(group.pow_member_many(&items), want);
    assert_eq!(want.iter().filter(|v| v.is_some()).count(), 3);
    let exps = [&e; 9];
    assert_eq!(group.pow_g_many(&exps), vec![group.pow_g(&e); 9]);
}

/// No call under `LANE_MIN` chains, one call from `LANE_MIN` to eight,
/// and past each multiple of eight a last call only once it carries
/// `LANE_MIN` more: the chains short of that walk alone.
#[test]
fn the_plan_fills_whole_calls_and_a_last_one_from_lane_min_chains_up() {
    if engine().is_none() {
        return assert_eq!(group().lane_plan(64), (0, 0));
    }
    let min = SchnorrGroup::LANE_MIN;
    assert!((1..LANES).contains(&min), "a last call carries fewer than eight");
    for n in 0..=20 {
        let (whole, over) = (n / LANES, n % LANES);
        let want = match over >= min {
            true => (whole + 1, n),
            false => (whole, n - over),
        };
        assert_eq!(group().lane_plan(n), want, "{n} chains");
    }
    assert_eq!(group().lane_plan(min - 1), (0, 0));
    assert_eq!(group().lane_plan(min), (1, min));
    assert_eq!(group().lane_plan(LANES + min - 1), (1, LANES));
}

/// An exponent for a comb covering `max_bits` bits: 0, 1, `q − 1`, the
/// widest it covers, one bit wider (the scalar fallback's), or random.
fn comb_exponent(kind: usize, max_bits: usize, rng: &mut impl Rng) -> BigUint {
    let (q, one) = (group().order(), BigUint::one());
    match kind % 6 {
        0 => BigUint::zero(),
        1 => one,
        2 => q - &one,
        3 => (&one << max_bits) - &one,
        4 => one << max_bits,
        _ => BigUint::random_below(rng, q),
    }
}

/// The comb in lanes is the scalar comb: over the generator's four-block
/// table and a key's two-block one, at every occupancy from one exponent
/// to two calls and a lane, with every exponent kind in every lane — the
/// dispatching calls, `pow_g_many` included, and (where the host has the
/// engine) the forced one, each power equal to `FixedBaseTable::pow`'s,
/// or to the plain power for the exponent too wide for the table.
#[test]
fn the_comb_in_lanes_is_the_scalar_comb_at_every_occupancy_in_both_shapes() {
    let (ring, group) = (engine(), group());
    let (elem, mut rng) = (group.elem_ring(), StdRng::seed_from_u64(0xC0B8));
    let mont = elem.montgomery().expect("odd modulus");
    let key = group.pow_g(&group.random_scalar(&mut rng));
    let q_bits = group.order().bits();
    let shapes = [
        (
            "generator",
            FixedBaseTable::for_generator(mont, group.generator(), q_bits),
            group.generator(),
        ),
        ("key", FixedBaseTable::for_key(mont, &key, q_bits), &key),
    ];
    for (shape, table, base) in &shapes {
        for n in 1..=2 * LANES + 1 {
            for shift in 0..6 {
                let owned: Vec<BigUint> =
                    (0..n).map(|i| comb_exponent(i + shift, table.max_bits(), &mut rng)).collect();
                let exps: Vec<&BigUint> = owned.iter().collect();
                let want: Vec<BigUint> = exps
                    .iter()
                    .map(|e| {
                        let plain = elem.pow(base, e);
                        let combed = table.pow(mont, e);
                        assert_eq!(combed.is_none(), e.bits() > table.max_bits(), "{shape}: {e}");
                        assert_eq!(combed.as_ref().unwrap_or(&plain), &plain, "{shape}: {e}");
                        plain
                    })
                    .collect();
                let at = format!("{shape}, {n} exponents, shift {shift}");
                assert_eq!(group.pow_table_many(table, base, &exps), want, "dispatch, {at}");
                if *shape == "generator" {
                    assert_eq!(group.pow_g_many(&exps), want, "pow_g_many, {at}");
                }
                if let Some(ring) = ring {
                    assert_eq!(group.pow_table_lanes(ring, table, base, &exps), want, "{at}");
                }
            }
        }
    }
    assert!(group.pow_g_many(&[]).is_empty());
}

/// Residues that stress carries and the `[0, 2p)` range, then random ones.
fn residues(p: &BigUint, raw: &[Vec<u64>]) -> Vec<BigUint> {
    let (one, two_p) = (BigUint::one(), p << 1);
    let mut all = vec![
        BigUint::zero(),
        one.clone(),
        p - &one,
        p.clone(),
        p + &one,
        &two_p - &one,
        &LaneRing::radix() % p,
        &(BigUint::one() << 52) % &two_p,
    ];
    all.extend(raw.iter().map(|limbs| &BigUint::from_limbs(limbs.clone()) % &two_p));
    all
}

/// `got` is the Montgomery product of `a` and `b`: below `2p`, and
/// `got·R ≡ a·b (mod p)`.
fn assert_mont_product(ring: &ModRing, got: &BigUint, a: &BigUint, b: &BigUint) {
    let p = ring.modulus();
    assert!(got < &(p << 1), "product {got} of {a} and {b} not below 2p");
    let r = &LaneRing::radix() % p;
    assert_eq!(ring.mul(&(got % p), &r), ring.mul(&(a % p), &(b % p)), "a={a} b={b} p={p}");
}

fn assert_kernels_match(p: &BigUint, raw: &[Vec<u64>]) {
    let Some(lanes) = LaneRing::new(p) else { return };
    let ring = ModRing::new(p.clone());
    let residues = residues(p, raw);
    // Every ordered pair, so each value meets each other in both operand
    // positions and in every lane position.
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for x in &residues {
        for y in &residues {
            a.push(x.clone());
            b.push(y.clone());
        }
    }
    for ((got, a), b) in lanes.mont_mul(&a, &b).iter().zip(&a).zip(&b) {
        assert_mont_product(&ring, got, a, b);
    }
    for (got, a) in lanes.mont_sqr(&residues).iter().zip(&residues) {
        assert_mont_product(&ring, got, a, a);
    }
    // Fed back in, the kernels walk residues no sampler would pick.
    let mut x = residues[residues.len() - LANES..].to_vec();
    for _ in 0..32 {
        let next = lanes.mont_sqr(&x);
        for ((got, a), via_mul) in next.iter().zip(&x).zip(lanes.mont_mul(&x, &x)) {
            assert_mont_product(&ring, got, a, a);
            assert_eq!(got % p, &via_mul % p);
        }
        x = next;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lane_engine_matches_the_serial_walk_at_every_occupancy(seed in any::<u64>()) {
        let ring = engine();
        let mut rng = StdRng::seed_from_u64(seed);
        for n in 1..=2 * LANES + 1 {
            let owned = chains(n, &mut rng);
            with_items(&owned, |items| {
                let want = serial(items);
                assert_eq!(group().pow_member_many(items), want, "dispatch, {n} chains");
                if let Some(ring) = ring {
                    assert_eq!(group().pow_member_lanes(ring, items), want, "{n} chains");
                }
            });
        }
    }

    #[test]
    fn product_and_squaring_match_modring_mul(
        raw in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 9..10), 8..9),
        raw_m in proptest::collection::vec(any::<u64>(), 9..10),
        bits in 2usize..MAX_MODULUS_BITS + 1,
    ) {
        if engine().is_none() {
            return Ok(());
        }
        assert_kernels_match(group().modulus(), &raw);
        // An arbitrary odd modulus of exactly `bits` bits.
        let m = (&BigUint::from_limbs(raw_m) % &(BigUint::one() << (bits - 1)))
            + (BigUint::one() << (bits - 1));
        let m = if m.is_even() { &m + &BigUint::one() } else { m };
        if m.bits() == bits {
            assert_kernels_match(&m, &raw);
        }
    }
}
