//! Verdict parity for the fused membership-and-verify paths.
//!
//! `DsaPublicKey::verify_member` must be exactly
//! `group.is_element(y) && DsaPublicKey::from_element(y).verify(..)`, and
//! `GroupPublicKey::verify` (two `pow_member` chains plus three table
//! exponentiations) must agree with the two-chain verifier it replaced —
//! standalone `is_element` on `c1` and `c2`, then the multi-exponentiations
//! — kept here as a test-local reference. The inputs are the ones where a
//! dropped or weakened membership check would show: keys and ciphertext
//! halves multiplied by the order-2 element `p − 1`, `0`, `p`, and random
//! non-members. `DsaPublicKey::verify_member_each` (every claim under one
//! key over one chain and one inversion) must give the verdict of
//! `verify_member` on each claim, `DsaPublicKey::verify_member_many` (many
//! keys, their chains walked together) the same for every key and claim,
//! and `DsaKeyPair::sign_each` the signatures and the draws of `sign` on
//! each message.

use rand::RngExt;
use whopay_crypto::dsa::{DsaKeyPair, DsaPublicKey, DsaSignature};
use whopay_crypto::elgamal::ElGamalCiphertext;
use whopay_crypto::group_sig::{GroupManager, GroupPublicKey, GroupSignature};
use whopay_crypto::testing::{small_group, test_rng, tiny_group};
use whopay_crypto::Transcript;
use whopay_num::{BigUint, SchnorrGroup};

/// What `verify_member` replaced at every call site.
fn dsa_spec(group: &SchnorrGroup, y: &BigUint, message: &[u8], sig: &DsaSignature) -> bool {
    group.is_element(y) && DsaPublicKey::from_element(y.clone()).verify(group, message, sig)
}

fn assert_dsa_parity(
    group: &SchnorrGroup,
    y: &BigUint,
    message: &[u8],
    sig: &DsaSignature,
    want: bool,
) {
    assert_eq!(dsa_spec(group, y, message, sig), want, "spec verdict for y={y}");
    assert_eq!(DsaPublicKey::verify_member(group, y, message, sig), want, "verify_member for y={y}");
}

#[test]
fn verify_member_matches_is_element_and_verify() {
    let group = tiny_group();
    let (p, q) = (group.modulus(), group.order());
    let one = BigUint::one();
    let mut rng = test_rng(0x3E3B);
    for round in 0..40 {
        let kp = DsaKeyPair::generate(group, &mut rng);
        let y = kp.public().element();
        let msg = format!("message {round}").into_bytes();
        let sig = kp.sign(group, &msg, &mut rng);

        assert_dsa_parity(group, y, &msg, &sig, true);
        assert_dsa_parity(group, y, b"another message", &sig, false);
        // Out-of-range (r, s): rejected before the key is looked at.
        for (r, s) in [
            (BigUint::zero(), sig.s().clone()),
            (sig.r().clone(), BigUint::zero()),
            (q.clone(), sig.s().clone()),
            (sig.r().clone(), q.clone()),
            (sig.r() + q, sig.s().clone()),
        ] {
            assert_dsa_parity(group, y, &msg, &DsaSignature::from_parts(r, s), false);
        }
        // Non-member keys: out of range, order 2·q, and a random residue
        // (a member with probability q/p — decided by the spec).
        for bad in [BigUint::zero(), p.clone(), p + y, group.elem_ring().neg(y), p - &one] {
            assert_dsa_parity(group, &bad, &msg, &sig, false);
        }
        let random = BigUint::random_below(&mut rng, p);
        assert_eq!(
            DsaPublicKey::verify_member(group, &random, &msg, &sig),
            dsa_spec(group, &random, &msg, &sig)
        );
    }
}

/// The membership half is load-bearing: a signer who knows `x` can publish
/// the non-member `−y` and retry until `u2 = r/s` is even, at which point
/// `(−y)^u2 = y^u2` and the plain verification equation holds.
#[test]
fn verify_member_rejects_a_signature_plain_verify_accepts_under_a_twisted_key() {
    let group = tiny_group();
    let mut rng = test_rng(0x7715);
    let kp = DsaKeyPair::generate(group, &mut rng);
    let twisted = group.elem_ring().neg(kp.public().element());
    assert!(!group.is_element(&twisted));
    let plain = DsaPublicKey::from_element(twisted.clone());
    let mut accepted_by_plain = 0;
    for i in 0..64 {
        let msg = format!("crafted {i}").into_bytes();
        let sig = kp.sign(group, &msg, &mut rng);
        accepted_by_plain += plain.verify(group, &msg, &sig) as usize;
        assert!(!DsaPublicKey::verify_member(group, &twisted, &msg, &sig));
    }
    assert!(accepted_by_plain > 0, "about half the signatures have an even u2");
}

#[test]
fn verify_member_each_matches_verify_member_on_every_claim() {
    let group = tiny_group();
    let (p, q) = (group.modulus(), group.order());
    let mut rng = test_rng(0xEAC4);
    let (mut accepted, mut refused) = (0, 0);
    for round in 0..60 {
        let kp = DsaKeyPair::generate(group, &mut rng);
        let other = DsaKeyPair::generate(group, &mut rng);
        let y = kp.public().element().clone();
        // Zero to four claims, each valid, over other bytes, by another
        // key, or out of range in r or in s.
        let claims: Vec<(Vec<u8>, DsaSignature)> = (0..rng.random_range(0..5usize))
            .map(|i| {
                let msg = format!("claim {round}/{i}").into_bytes();
                let sig = kp.sign(group, &msg, &mut rng);
                match rng.random_range(0..8usize) {
                    0..=2 => (msg, sig),
                    3 => (b"other bytes".to_vec(), sig),
                    4 => (msg.clone(), other.sign(group, &msg, &mut rng)),
                    5 => (msg, DsaSignature::from_parts(sig.r() + q, sig.s().clone())),
                    6 => (msg, DsaSignature::from_parts(sig.r().clone(), BigUint::zero())),
                    _ => (msg, DsaSignature::from_parts(BigUint::zero(), q.clone())),
                }
            })
            .collect();
        let claims: Vec<(&[u8], &DsaSignature)> = claims.iter().map(|(m, s)| (&m[..], s)).collect();
        let keys = [
            y.clone(),
            group.elem_ring().neg(&y),
            BigUint::zero(),
            p.clone(),
            p + &y,
            p - &BigUint::one(),
            BigUint::random_below(&mut rng, p),
        ];
        for key in &keys {
            let want: Vec<bool> =
                claims.iter().map(|(m, s)| DsaPublicKey::verify_member(group, key, m, s)).collect();
            let spec: Vec<bool> = claims.iter().map(|(m, s)| dsa_spec(group, key, m, s)).collect();
            assert_eq!(want, spec, "key {key}");
            assert_eq!(DsaPublicKey::verify_member_each(group, key, &claims), want, "key {key}");
            accepted += want.iter().filter(|&&ok| ok).count();
            refused += want.iter().filter(|&&ok| !ok).count();
        }
    }
    assert!(accepted > 20 && refused > 200, "both verdicts must occur ({accepted} / {refused})");
}

/// A message and a signature over it (or not).
type OwnedClaim = (Vec<u8>, DsaSignature);

#[test]
fn verify_member_many_matches_verify_member_on_every_key_and_claim() {
    let mut rng = test_rng(0x3A27);
    for (group, rounds) in [(tiny_group(), 12), (small_group(), 2)] {
        let (p, q) = (group.modulus(), group.order());
        let (mut members, mut strangers) = (0, 0);
        for round in 0..rounds {
            // One key to two full lane calls and a chain.
            for n in (1..=9).chain([16, 17]) {
                // Each key a member, twisted, no unit or random, under zero
                // to two claims, valid, over other bytes or out of range.
                let keys: Vec<(BigUint, Vec<OwnedClaim>)> = (0..n)
                    .map(|i| {
                        let kp = DsaKeyPair::generate(group, &mut rng);
                        let y = kp.public().element().clone();
                        let claims = (0..rng.random_range(0..3usize)).map(|j| {
                            let msg = format!("key {round}/{i} claim {j}").into_bytes();
                            let sig = kp.sign(group, &msg, &mut rng);
                            match rng.random_range(0..5usize) {
                                0..=2 => (msg, sig),
                                3 => (b"other bytes".to_vec(), sig),
                                _ => (msg, DsaSignature::from_parts(sig.r() + q, sig.s().clone())),
                            }
                        });
                        let claims = claims.collect();
                        let key = match rng.random_range(0..8usize) {
                            0..=3 => y,
                            4 => group.elem_ring().neg(&y),
                            5 => BigUint::zero(),
                            6 => p + &y,
                            _ => BigUint::random_below(&mut rng, p),
                        };
                        (key, claims)
                    })
                    .collect();
                let claims: Vec<Vec<(&[u8], &DsaSignature)>> = keys
                    .iter()
                    .map(|(_, claims)| claims.iter().map(|(m, s)| (&m[..], s)).collect())
                    .collect();
                let items: Vec<_> = keys.iter().zip(&claims).map(|((y, _), c)| (y, &c[..])).collect();
                let got = DsaPublicKey::verify_member_many(group, &items);
                for ((y, claims), got) in items.iter().zip(&got) {
                    assert_eq!(got.is_some(), group.is_element(y), "key {y}");
                    let want: Vec<bool> = claims
                        .iter()
                        .map(|(m, s)| DsaPublicKey::verify_member(group, y, m, s))
                        .collect();
                    assert_eq!(got.clone().unwrap_or(vec![false; claims.len()]), want, "key {y}");
                    members += got.is_some() as usize;
                    strangers += got.is_none() as usize;
                }
            }
        }
        assert!(members > 20 && strangers > 20, "both verdicts must occur ({members} / {strangers})");
    }
}

#[test]
fn sign_each_is_sign_on_each_message_in_turn() {
    let group = tiny_group();
    let mut rng = test_rng(0x516E);
    let kp = DsaKeyPair::generate(group, &mut rng);
    for round in 0..20u64 {
        let (a, b, c) = (format!("first {round}"), format!("second {round}"), format!("third {round}"));
        let messages = [a.as_bytes(), b.as_bytes(), c.as_bytes()];
        let (mut one_by_one, mut together) = (test_rng(round), test_rng(round));
        let want = messages.map(|m| kp.sign(group, m, &mut one_by_one));
        let got = kp.sign_each(group, messages, &mut together);
        for ((want, got), message) in want.iter().zip(&got).zip(messages) {
            assert_eq!(want, got);
            assert!(kp.public().verify(group, message, got));
        }
        // The same number of draws, too.
        assert_eq!(one_by_one.random::<u64>(), together.random::<u64>());
    }
}

/// The group-signature verifier as it was before the fused chains: two
/// standalone membership exponentiations, then `g^{z_r}·c1^{-e}` and
/// `g^{z_x}·y_J^{z_r}·c2^{-e}` from scratch. No per-key table anywhere.
fn two_chain_verify(
    group: &SchnorrGroup,
    gpk: &GroupPublicKey,
    message: &[u8],
    sig: &GroupSignature,
) -> bool {
    let q = group.order();
    if sig.challenge_scalar() >= q || sig.z_r() >= q || sig.z_x() >= q {
        return false;
    }
    let (c1, c2) = (sig.ciphertext().c1(), sig.ciphertext().c2());
    if !group.is_element(c1) || !group.is_element(c2) {
        return false;
    }
    let elem = group.elem_ring();
    let y_j = gpk.judge_key().element();
    let neg_e = group.scalar_ring().neg(sig.challenge_scalar());
    let a1 = elem.pow2(group.generator(), sig.z_r(), c1, &neg_e);
    let a2 = elem.mul(&elem.pow2(group.generator(), sig.z_x(), y_j, sig.z_r()), &elem.pow(c2, &neg_e));
    let challenge = Transcript::new("whopay/group-sig/v1")
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

fn with_ciphertext(sig: &GroupSignature, c1: BigUint, c2: BigUint) -> GroupSignature {
    GroupSignature::from_parts(
        ElGamalCiphertext::from_parts(c1, c2),
        sig.challenge_scalar().clone(),
        sig.z_r().clone(),
        sig.z_x().clone(),
    )
}

#[test]
fn group_verify_rejects_ciphertexts_outside_the_subgroup() {
    let group = tiny_group();
    let p = group.modulus();
    let elem = group.elem_ring();
    let mut rng = test_rng(0x6516);
    let mut judge = GroupManager::new(group.clone(), &mut rng);
    let member = judge.enroll("m", &mut rng);
    let gpk = judge.public_key();
    for i in 0..32 {
        let msg = format!("escrow {i}").into_bytes();
        let sig = member.sign(group, gpk, &msg, &mut rng);
        assert!(gpk.verify(group, &msg, &sig));
        let (c1, c2) = (sig.ciphertext().c1().clone(), sig.ciphertext().c2().clone());
        // The challenge hash binds c1 and c2, so none of these could pass;
        // what is pinned here is that the fused chains report a non-member
        // exactly where the standalone `is_element` did (with an even -e
        // the order-2 factor cancels out of c^{-e}, so only the x^q half
        // of the chain can tell).
        let tampered = [
            with_ciphertext(&sig, elem.neg(&c1), c2.clone()),
            with_ciphertext(&sig, c1.clone(), elem.neg(&c2)),
            with_ciphertext(&sig, elem.neg(&c1), elem.neg(&c2)),
            with_ciphertext(&sig, BigUint::zero(), c2.clone()),
            with_ciphertext(&sig, c1.clone(), BigUint::zero()),
            with_ciphertext(&sig, p.clone(), c2.clone()),
            with_ciphertext(&sig, c1.clone(), p.clone()),
            with_ciphertext(&sig, p + &c1, c2.clone()),
        ];
        for bad in &tampered {
            assert!(!gpk.verify(group, &msg, bad), "accepted {bad:?}");
            assert!(!two_chain_verify(group, gpk, &msg, bad));
        }
    }
}

#[test]
fn group_verify_agrees_with_the_two_chain_verifier() {
    let group = tiny_group();
    let (p, q) = (group.modulus(), group.order());
    let elem = group.elem_ring();
    let scalar = group.scalar_ring();
    let one = BigUint::one();
    let mut rng = test_rng(0x2C4A);
    let mut judge = GroupManager::new(group.clone(), &mut rng);
    let members: Vec<_> = (0..3).map(|i| judge.enroll(i, &mut rng)).collect();
    let gpk = judge.public_key();
    let mut accepted = 0;
    for i in 0..200 {
        let msg = format!("sig {i}").into_bytes();
        let sig = members[i % members.len()].sign(group, gpk, &msg, &mut rng);
        let (c1, c2) = (sig.ciphertext().c1().clone(), sig.ciphertext().c2().clone());
        let (e, z_r, z_x) = (sig.challenge_scalar().clone(), sig.z_r().clone(), sig.z_x().clone());
        let ct = sig.ciphertext().clone();
        let mut checked_msg = msg.clone();
        let candidate = match rng.random_range(0..10usize) {
            0..=2 => sig,
            3 => {
                checked_msg.push(0x5A);
                sig
            }
            4 => GroupSignature::from_parts(ct, e, scalar.add(&z_r, &one), z_x),
            5 => GroupSignature::from_parts(ct, e, z_r, scalar.add(&z_x, &one)),
            6 => GroupSignature::from_parts(ct, q.clone(), z_r, z_x),
            7 => with_ciphertext(&sig, elem.neg(&c1), c2),
            8 => with_ciphertext(&sig, c1, BigUint::random_below(&mut rng, p)),
            _ => with_ciphertext(&sig, elem.mul(&c1, group.generator()), c2),
        };
        let want = two_chain_verify(group, gpk, &checked_msg, &candidate);
        assert_eq!(gpk.verify(group, &checked_msg, &candidate), want, "case {i}: {candidate:?}");
        accepted += want as usize;
    }
    assert!(accepted > 20 && accepted < 180, "both verdicts must occur ({accepted} accepted)");
}

#[test]
fn judge_key_table_cold_and_hot_paths_agree() {
    let group = tiny_group();
    let mut rng = test_rng(0x401D);
    let mut judge = GroupManager::new(group.clone(), &mut rng);
    let member = judge.enroll((), &mut rng);
    // A fresh clone-family of the judge key: its table builds after a few
    // uses, so the first round runs cold and the rest hot.
    let gpk = judge.public_key();
    let y_j = gpk.judge_key().element().clone();
    for round in 0..8 {
        let e = group.random_scalar(&mut rng);
        assert_eq!(gpk.judge_key().pow(group, &e), group.elem_ring().pow(&y_j, &e), "round {round}");
        let msg = format!("round {round}").into_bytes();
        let sig = member.sign(group, gpk, &msg, &mut rng);
        assert!(gpk.verify(group, &msg, &sig), "round {round}");
        assert!(two_chain_verify(group, gpk, &msg, &sig), "round {round}");
        assert!(!gpk.verify(group, b"something else", &sig), "round {round}");
        assert_eq!(judge.open(&sig), whopay_crypto::OpenOutcome::Member(&()));
    }
    // Hot for the tiny group, the key must still answer correctly — from
    // scratch — when used with different parameters.
    let other = small_group();
    let e = other.random_scalar(&mut rng);
    assert_eq!(gpk.judge_key().pow(other, &e), other.elem_ring().pow(&y_j, &e));
}
