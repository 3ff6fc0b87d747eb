//! Exactness sweep for verifying many group signatures at once.
//!
//! Nothing is ever combined: `batch::verify_many` given group signatures
//! alone walks both ciphertext halves of every signature down a chain of
//! their own, eight
//! to a lane call where the host has the engine, and must give `verify`'s
//! verdict signature by signature — in particular on the one kind of
//! signature a verifier that skipped a half's membership check would
//! accept. `batch::verify_many`, which takes DSA claims and group
//! signatures in one call and puts their fixed-base powers through the
//! combs eight to a lane call, must give every claim of a mixed group its
//! lone verifier's verdict at every mix that crosses the comb plan's
//! boundaries. (The DSA side on its own, `verify_dsa_each` against
//! `verify_member`, is swept in `whopay-core`'s `member_parity.rs`.)

use rand::RngExt;
use whopay_crypto::batch::verify_many;
use whopay_crypto::dsa::{DsaKeyPair, DsaPublicKey, DsaSignature};
use whopay_crypto::elgamal::ElGamalCiphertext;
use whopay_crypto::group_sig::{GroupManager, GroupPublicKey, GroupSignature};
use whopay_crypto::testing::{
    small_group, small_order_element, test_rng, tiny_group, twisted_group_signature,
};
use whopay_num::{BigUint, SchnorrGroup};

/// Group-signature verification with the two membership checks left
/// out: what `verify_many` would be if it skipped them.
fn equations_hold(
    group: &SchnorrGroup,
    gpk: &GroupPublicKey,
    message: &[u8],
    sig: &GroupSignature,
) -> bool {
    let (elem, q) = (group.elem_ring(), group.order());
    if sig.challenge_scalar() >= q || sig.z_r() >= q || sig.z_x() >= q {
        return false;
    }
    let (c1, c2) = (sig.ciphertext().c1(), sig.ciphertext().c2());
    let y_j = gpk.judge_key().element();
    let neg_e = group.scalar_ring().neg(sig.challenge_scalar());
    let a1 = elem.mul(&group.pow_g(sig.z_r()), &elem.pow(c1, &neg_e));
    let a2 =
        elem.mul(&elem.mul(&group.pow_g(sig.z_x()), &elem.pow(y_j, sig.z_r())), &elem.pow(c2, &neg_e));
    let challenge = whopay_crypto::hashio::Transcript::new("whopay/group-sig/v1")
        .int(group.modulus())
        .int(y_j)
        .int(c1)
        .int(c2)
        .int(&a1)
        .int(&a2)
        .bytes(message)
        .finish_scalar(q);
    &challenge == sig.challenge_scalar()
}

/// One way a group signature over `message` can be damaged, by `mode`;
/// `None` where the damage is to present it with another message.
fn damaged_gsig(
    group: &SchnorrGroup,
    gpk: &GroupPublicKey,
    message: &[u8],
    sig: GroupSignature,
    mode: usize,
    rng: &mut rand::rngs::StdRng,
) -> Option<GroupSignature> {
    let (p, q) = (group.modulus(), group.order());
    let (elem, one) = (group.elem_ring(), BigUint::one());
    let (c1, c2) = (sig.ciphertext().c1().clone(), sig.ciphertext().c2().clone());
    let (e, z_r, z_x) = (sig.challenge_scalar().clone(), sig.z_r().clone(), sig.z_x().clone());
    let with_ct = |c1: BigUint, c2: BigUint| {
        GroupSignature::from_parts(
            ElGamalCiphertext::from_parts(c1, c2),
            e.clone(),
            z_r.clone(),
            z_x.clone(),
        )
    };
    let (minus_one, odd) = (small_order_element(group, false), small_order_element(group, true));
    Some(match mode % 16 {
        0..=3 => sig,
        4 => return None,
        // Forged responses, and scalars out of range (congruent ones too).
        5 => GroupSignature::from_parts(sig.ciphertext().clone(), e, &z_r + &one, z_x),
        6 => GroupSignature::from_parts(
            sig.ciphertext().clone(),
            e,
            z_r,
            group.scalar_ring().add(&z_x, &one),
        ),
        7 => GroupSignature::from_parts(sig.ciphertext().clone(), &e + q, z_r, z_x),
        8 => GroupSignature::from_parts(sig.ciphertext().clone(), e, &z_r + q, z_x),
        // A half that is no unit, or no member.
        9 => with_ct(BigUint::zero(), c2),
        10 => with_ct(c1, p.clone()),
        11 => with_ct(BigUint::random_below(rng, p), c2),
        12 => with_ct(c1, elem.neg(&c2)),
        13 => with_ct(&c1 + p, c2),
        // A half twisted by its own signer: only membership is wrong.
        14 => twisted_group_signature(group, gpk, message, [&minus_one, &one], rng),
        _ => twisted_group_signature(group, gpk, message, [&one, &odd], rng),
    })
}

#[test]
fn verify_many_gives_the_verdict_of_verify_signature_by_signature() {
    for (group, rounds) in [(tiny_group(), 40), (small_group(), 6)] {
        let mut rng = test_rng(0x6E5C);
        let mut judge = GroupManager::new(group.clone(), &mut rng);
        let members: Vec<_> = (0..3).map(|i| judge.enroll(i, &mut rng)).collect();
        let gpk = judge.public_key();
        let (mut accepted, mut refused, mut membership_alone) = (0, 0, 0);
        for round in 0..rounds {
            // One signature to two full lane calls and a chain.
            for n in (1..=9).chain([16, 17]) {
                let claims: Vec<(Vec<u8>, GroupSignature)> = (0..n)
                    .map(|i| {
                        let message = format!("round {round} claim {i} of {n}").into_bytes();
                        let sig = members[i % 3].sign(group, gpk, &message, &mut rng);
                        let mode = rng.random_range(0..16usize);
                        match damaged_gsig(group, gpk, &message, sig.clone(), mode, &mut rng) {
                            Some(damaged) => (message, damaged),
                            None => (b"another message".to_vec(), sig),
                        }
                    })
                    .collect();
                let claims: Vec<(&[u8], &GroupSignature)> =
                    claims.iter().map(|(m, s)| (&m[..], s)).collect();
                let want: Vec<bool> = claims.iter().map(|(m, s)| gpk.verify(group, m, s)).collect();
                let got = verify_many(group, &[], Some((gpk, &claims))).group_sigs;
                assert_eq!(got, want, "round {round}, {n} claims");
                for ((message, sig), ok) in claims.iter().zip(&want) {
                    membership_alone += (!ok && equations_hold(group, gpk, message, sig)) as usize;
                }
                accepted += want.iter().filter(|&&ok| ok).count();
                refused += want.iter().filter(|&&ok| !ok).count();
            }
        }
        assert!(accepted > 40 && refused > 40, "both verdicts must occur ({accepted} / {refused})");
        assert!(
            membership_alone > 5,
            "{membership_alone} signatures wrong in a half's membership alone"
        );
    }
}

/// A DSA key and the claims under it, owned.
type OwnedKey = (BigUint, Vec<(Vec<u8>, DsaSignature)>);

/// A key of one of `kind`'s sorts — a member, twisted by `−1`, zero,
/// above `p`, random — with zero to two claims under it, each valid, over
/// other bytes or out of range; under the twisted key, one claim is made
/// so that the plain equation holds and only membership refuses it.
fn dsa_key(group: &SchnorrGroup, kind: usize, rng: &mut rand::rngs::StdRng) -> OwnedKey {
    let (p, q) = (group.modulus(), group.order());
    let kp = DsaKeyPair::generate(group, rng);
    let y = kp.public().element().clone();
    let key = match kind % 6 {
        0 | 1 => y.clone(),
        2 => group.elem_ring().neg(&y),
        3 => BigUint::zero(),
        4 => p + &y,
        _ => BigUint::random_below(rng, p),
    };
    let mut claims: Vec<(Vec<u8>, DsaSignature)> = (0..rng.random_range(0..3usize))
        .map(|j| {
            let msg = format!("kind {kind} claim {j}").into_bytes();
            let sig = kp.sign(group, &msg, rng);
            match rng.random_range(0..5usize) {
                0..=2 => (msg, sig),
                3 => (b"other bytes".to_vec(), sig),
                _ => (msg, DsaSignature::from_parts(sig.r() + q, sig.s().clone())),
            }
        })
        .collect();
    if kind % 6 == 2 {
        let plain = DsaPublicKey::from_element(key.clone());
        let msg = b"valid under the twisted key".to_vec();
        let sig = loop {
            let sig = kp.sign(group, &msg, rng);
            if plain.verify(group, &msg, &sig) {
                break sig;
            }
        };
        claims.push((msg, sig));
    }
    (key, claims)
}

/// Whether `sig` owes its fixed-base powers: in range, both halves members.
fn gsig_open(group: &SchnorrGroup, sig: &GroupSignature) -> bool {
    let q = group.order();
    let (c1, c2) = (sig.ciphertext().c1(), sig.ciphertext().c2());
    sig.challenge_scalar() < q
        && sig.z_r() < q
        && sig.z_x() < q
        && group.is_element(c1)
        && group.is_element(c2)
}

/// DSA claims and group signatures in one `verify_many` call, as a drain
/// cycle hands them over, at every mix of zero to nine keys and zero to
/// nine group signatures — so that the fixed-base powers they owe (`g^u1`
/// per claim under a member key; `g^z_r`, `g^z_x` and `y_J^z_r` per
/// signature with member halves) cross every boundary of the comb's lane
/// plan. Every verdict is its lone verifier's, damaged and self-twisted
/// inputs included; `verify_many` given keys alone or group signatures
/// alone gives their half; and the comb calls reported are the plan's for
/// those powers.
#[test]
fn verify_many_gives_every_claim_of_a_mixed_group_its_lone_verdict() {
    for (group, rounds) in [(tiny_group(), 2), (small_group(), 1)] {
        let mut rng = test_rng(0x313ED);
        let mut judge = GroupManager::new(group.clone(), &mut rng);
        let members: Vec<_> = (0..3).map(|i| judge.enroll(i, &mut rng)).collect();
        let gpk = judge.public_key();
        // Hot from here on: the judge key's powers come off its comb.
        let sig = members[0].sign(group, gpk, b"warm", &mut rng);
        assert!((0..5).all(|_| gpk.verify(group, b"warm", &sig)));
        let (mut accepted, mut refused, mut combed) = (0, 0, 0);
        for round in 0..rounds {
            for (n_keys, n_sigs) in (0..=9).flat_map(|k| (0..=9).map(move |s| (k, s))) {
                let owned_keys: Vec<OwnedKey> =
                    (0..n_keys).map(|i| dsa_key(group, i + round + n_sigs, &mut rng)).collect();
                let owned_sigs: Vec<(Vec<u8>, GroupSignature)> = (0..n_sigs)
                    .map(|i| {
                        let message = format!("{round}: {n_keys} keys, signature {i} of {n_sigs}");
                        let message = message.into_bytes();
                        let sig = members[i % 3].sign(group, gpk, &message, &mut rng);
                        let mode = rng.random_range(0..16usize);
                        match damaged_gsig(group, gpk, &message, sig.clone(), mode, &mut rng) {
                            Some(damaged) => (message, damaged),
                            None => (b"another message".to_vec(), sig),
                        }
                    })
                    .collect();
                let claims: Vec<Vec<(&[u8], &DsaSignature)>> = owned_keys
                    .iter()
                    .map(|(_, claims)| claims.iter().map(|(m, s)| (&m[..], s)).collect())
                    .collect();
                let keys: Vec<_> =
                    owned_keys.iter().zip(&claims).map(|((y, _), c)| (y, &c[..])).collect();
                let sigs: Vec<(&[u8], &GroupSignature)> =
                    owned_sigs.iter().map(|(m, s)| (&m[..], s)).collect();
                let want_keys: Vec<Option<Vec<bool>>> = keys
                    .iter()
                    .map(|(y, claims)| {
                        let each =
                            claims.iter().map(|(m, s)| DsaPublicKey::verify_member(group, y, m, s));
                        group.is_element(y).then(|| each.collect())
                    })
                    .collect();
                let want_sigs: Vec<bool> = sigs.iter().map(|(m, s)| gpk.verify(group, m, s)).collect();
                let at = format!("round {round}, {n_keys} keys, {n_sigs} group signatures");
                let got = verify_many(group, &keys, Some((gpk, &sigs)));
                assert_eq!(got.keys, want_keys, "{at}");
                assert_eq!(got.group_sigs, want_sigs, "{at}");
                assert_eq!(verify_many(group, &keys, None).keys, want_keys, "{at}");
                assert_eq!(verify_many(group, &[], Some((gpk, &sigs))).group_sigs, want_sigs, "{at}");
                // The powers owed, and the plan's calls for them.
                let scalar = |x: &BigUint| !x.is_zero() && x < group.order();
                let in_range = |s: &DsaSignature| scalar(s.r()) && scalar(s.s());
                let u1s = keys.iter().filter(|(y, _)| group.is_element(y));
                let u1s =
                    u1s.flat_map(|(_, claims)| claims.iter().filter(|(_, s)| in_range(s))).count();
                let open = sigs.iter().filter(|(_, s)| gsig_open(group, s)).count();
                let (g_plan, judge_plan) = (group.lane_plan(u1s + 2 * open), group.lane_plan(open));
                assert_eq!(got.comb_calls, g_plan.0 + judge_plan.0, "{at}");
                assert_eq!(got.comb_filled, g_plan.1 + judge_plan.1, "{at}");
                combed += got.comb_filled;
                let verdicts = want_keys.iter().flatten().flatten().chain(&want_sigs);
                let accepted_here = verdicts.clone().filter(|&&ok| ok).count();
                accepted += accepted_here;
                refused += verdicts.count() - accepted_here;
            }
        }
        assert!(accepted > 100 && refused > 100, "both verdicts must occur ({accepted} / {refused})");
        if group.lane_plan(8).0 > 0 {
            assert!(combed > 100, "{combed} fixed-base powers in lanes");
        }
    }
}

/// The signature only the membership chains can refuse: its signer
/// twisted a half of their own escrow ciphertext by an element of small
/// order and redrew until both equations held all the same. In every
/// lane of a full call, next to honest signatures, it is refused and
/// nothing else moves.
#[test]
fn a_half_twisted_by_its_own_signer_is_refused_in_whichever_lane_it_rides() {
    let group = tiny_group();
    let mut rng = test_rng(0x7715_6516);
    let mut judge = GroupManager::new(group.clone(), &mut rng);
    let member = judge.enroll((), &mut rng);
    let gpk = judge.public_key();
    let one = BigUint::one();
    // The helper signs properly when it does not twist.
    let plain = twisted_group_signature(group, gpk, b"plain", [&one, &one], &mut rng);
    assert!(gpk.verify(group, b"plain", &plain) && equations_hold(group, gpk, b"plain", &plain));
    for twist in &[small_order_element(group, false), small_order_element(group, true)] {
        assert!(!group.is_element(twist));
        for at in 0..8 {
            let mut claims: Vec<(Vec<u8>, GroupSignature)> = (0..4)
                .map(|i| {
                    let message = format!("honest {at}/{i}").into_bytes();
                    let sig = member.sign(group, gpk, &message, &mut rng);
                    (message, sig)
                })
                .collect();
            // Lane `at` of the one call these eight chains make.
            let halves = if at % 2 == 0 { [twist, &one] } else { [&one, twist] };
            let message = format!("twisted {at}").into_bytes();
            let sig = twisted_group_signature(group, gpk, &message, halves, &mut rng);
            assert!(equations_hold(group, gpk, &message, &sig));
            assert!(!gpk.verify(group, &message, &sig));
            claims.insert(at / 2, (message, sig));
            let claims: Vec<(&[u8], &GroupSignature)> =
                claims.iter().map(|(m, s)| (&m[..], s)).collect();
            let want: Vec<bool> = (0..5).map(|i| i != at / 2).collect();
            assert_eq!(verify_many(group, &[], Some((gpk, &claims))).group_sigs, want, "lane {at}");
        }
    }
}
