//! Soundness sweep for randomized batch verification: across many random
//! batches, the all-valid case accepts every item, and a single forgery —
//! whatever form it takes — makes the batch path reject exactly the
//! forged item, agreeing index-by-index with serial verification.
//!
//! Group signatures are never combined: `GroupPublicKey::verify_each`
//! walks both ciphertext halves of every signature down a chain of their
//! own, eight to a lane call where the host has the engine, and must give
//! `verify`'s verdict signature by signature — in particular on the one
//! kind of signature a verifier that skipped a half's membership check
//! would accept.

use rand::RngExt;
use whopay_crypto::batch::{
    verify_dsa_each, verify_dsa_members, verify_dsa_with_elements, verify_schnorr_each,
};
use whopay_crypto::dsa::{DsaKeyPair, DsaSignature};
use whopay_crypto::elgamal::ElGamalCiphertext;
use whopay_crypto::group_sig::{GroupManager, GroupPublicKey, GroupSignature};
use whopay_crypto::schnorr::SchnorrKeyPair;
use whopay_crypto::testing::{
    small_group, small_order_element, test_rng, tiny_group, twisted_group_signature,
};
use whopay_crypto::{DsaBatchItem, SchnorrBatchItem};
use whopay_num::{BigUint, SchnorrGroup};

/// The ways one DSA item can be forged.
fn forge_dsa(item: &mut DsaBatchItem, mode: usize, decoy: &DsaKeyPair) {
    match mode {
        // A different message than the one signed.
        0 => item.message.push(0xA5),
        // A signature transplanted from an unrelated key.
        1 => item.key = decoy.public().clone(),
        // A tampered s component (witness kept, claiming consistency).
        2 => {
            item.sig = DsaSignature::from_parts_with_witness(
                item.sig.r().clone(),
                item.sig.s() + &BigUint::one(),
                item.sig.witness().cloned(),
            )
        }
        // A fabricated witness over an otherwise broken r.
        _ => {
            item.sig = DsaSignature::from_parts_with_witness(
                item.sig.r() + &BigUint::one(),
                item.sig.s().clone(),
                item.sig.witness().cloned(),
            )
        }
    }
}

#[test]
fn dsa_batches_accept_all_valid_and_reject_single_forgeries() {
    let group = tiny_group();
    let mut rng = test_rng(0xbadc0de);
    let keys: Vec<DsaKeyPair> = (0..4).map(|_| DsaKeyPair::generate(group, &mut rng)).collect();
    let decoy = DsaKeyPair::generate(group, &mut rng);
    for batch_no in 0..100u64 {
        let n = rng.random_range(2..13usize);
        let items: Vec<DsaBatchItem> = (0..n)
            .map(|i| {
                let key = &keys[rng.random_range(0..keys.len())];
                let message = format!("batch {batch_no} item {i}").into_bytes();
                let sig = key.sign(group, &message, &mut rng);
                assert!(sig.witness().is_some(), "signing must produce a witness");
                DsaBatchItem { key: key.public().clone(), message, sig }
            })
            .collect();
        // All valid: every verdict true.
        assert_eq!(verify_dsa_each(group, &items), vec![true; n], "batch {batch_no}");
        // One forgery: exactly the forged index flips, matching serial.
        let mut forged = items.clone();
        let victim = rng.random_range(0..n);
        forge_dsa(&mut forged[victim], batch_no as usize % 4, &decoy);
        let verdicts = verify_dsa_each(group, &forged);
        let serial: Vec<bool> =
            forged.iter().map(|it| it.key.verify(group, &it.message, &it.sig)).collect();
        assert_eq!(verdicts, serial, "batch {batch_no} victim {victim}");
        // Every key here is a subgroup member: the reduced-exponent form
        // says the same.
        assert_eq!(verify_dsa_members(group, &forged).signatures, serial, "batch {batch_no}");
        assert!(!verdicts[victim], "batch {batch_no}: forgery at {victim} must reject");
        for (i, ok) in verdicts.iter().enumerate() {
            assert_eq!(*ok, i != victim, "batch {batch_no} index {i}");
        }
    }
}

#[test]
fn schnorr_batches_accept_all_valid_and_reject_single_forgeries() {
    let group = tiny_group();
    let mut rng = test_rng(0x5c40);
    let keys: Vec<SchnorrKeyPair> = (0..4).map(|_| SchnorrKeyPair::generate(group, &mut rng)).collect();
    for batch_no in 0..100u64 {
        let n = rng.random_range(2..13usize);
        let mut items: Vec<SchnorrBatchItem> = (0..n)
            .map(|i| {
                let key = &keys[rng.random_range(0..keys.len())];
                let message = format!("schnorr batch {batch_no} item {i}").into_bytes();
                let sig = key.sign(group, &message, &mut rng);
                SchnorrBatchItem { key: key.public().clone(), message, sig }
            })
            .collect();
        assert_eq!(verify_schnorr_each(group, &items), vec![true; n], "batch {batch_no}");
        let victim = rng.random_range(0..n);
        items[victim].message.push(0x5A);
        let verdicts = verify_schnorr_each(group, &items);
        for (i, ok) in verdicts.iter().enumerate() {
            assert_eq!(*ok, i != victim, "batch {batch_no} index {i}");
        }
    }
}

/// `n` valid items, item `i` under `keys[i % keys.len()]`.
fn valid_items(n: usize, keys: &[DsaKeyPair], rng: &mut rand::rngs::StdRng) -> Vec<DsaBatchItem> {
    let group = tiny_group();
    (0..n)
        .map(|i| {
            let key = &keys[i % keys.len()];
            let message = format!("merged item {i}").into_bytes();
            let sig = key.sign(group, &message, rng);
            DsaBatchItem { key: key.public().clone(), message, sig }
        })
        .collect()
}

/// What serial verification says about the same obligations.
fn serial(items: &[DsaBatchItem], elements: &[BigUint]) -> (Vec<bool>, Vec<bool>) {
    let group = tiny_group();
    (
        items.iter().map(|it| it.key.verify(group, &it.message, &it.sig)).collect(),
        elements.iter().map(|x| group.is_element(x)).collect(),
    )
}

#[test]
fn merged_bases_settle_in_one_check_and_pinpoint_what_fails() {
    let group = tiny_group();
    let mut rng = test_rng(0x3e26ed);
    let keys: Vec<DsaKeyPair> = (0..3).map(|_| DsaKeyPair::generate(group, &mut rng)).collect();
    // Twelve items under three keys (every key repeats), the membership
    // of two of those keys owed as well (key = membership element), one
    // element that signs nothing, and one of the keys' elements owed twice.
    let items = valid_items(12, &keys, &mut rng);
    let lone = group.pow_g(&group.random_scalar(&mut rng));
    let elements = vec![
        keys[0].public().element().clone(),
        keys[2].public().element().clone(),
        lone,
        keys[0].public().element().clone(),
    ];
    let settled = verify_dsa_with_elements(group, &items, &elements);
    assert_eq!((settled.signatures, settled.elements), (vec![true; 12], vec![true; 4]));
    assert_eq!((settled.combined_checks, settled.serial_checks), (1, 0));

    // A forgery under a repeated key whose membership is owed too: the
    // other claims on that base, and the membership riding on it, stand.
    let decoy = DsaKeyPair::generate(group, &mut rng);
    for mode in 0..4 {
        let mut forged = items.clone();
        forge_dsa(&mut forged[6], mode, &decoy);
        let settled = verify_dsa_with_elements(group, &forged, &elements);
        assert_eq!((settled.signatures, settled.elements), serial(&forged, &elements), "mode {mode}");
    }

    // Non-members among the elements, one of them a key that signs: each
    // gets the serial verdict and nothing else moves.
    let p = group.modulus();
    let stray = loop {
        let x = BigUint::random_below(&mut rng, p);
        if !x.is_zero() && !group.is_element(&x) {
            break x;
        }
    };
    let mut bad_elements = elements.clone();
    bad_elements.extend([BigUint::zero(), p.clone(), p + &elements[2], stray.clone()]);
    let mut with_stray_key = items.clone();
    with_stray_key[1].key = whopay_crypto::dsa::DsaPublicKey::from_element(stray);
    let settled = verify_dsa_with_elements(group, &with_stray_key, &bad_elements);
    assert_eq!(settled.elements, [vec![true; 4], vec![false; 4]].concat());
    assert_eq!((settled.signatures, settled.elements), serial(&with_stray_key, &bad_elements));
}

#[test]
fn forgeries_are_bisected_out_in_logarithmically_many_checks() {
    let group = tiny_group();
    let mut rng = test_rng(0xb15ec7);
    let n = 64usize;
    let keys: Vec<DsaKeyPair> = (0..n).map(|_| DsaKeyPair::generate(group, &mut rng)).collect();
    let decoy = DsaKeyPair::generate(group, &mut rng);
    let elements: Vec<BigUint> = keys.iter().map(|k| k.public().element().clone()).collect();
    for k in [1usize, 2, 5] {
        for round in 0..8 {
            let mut items = valid_items(n, &keys, &mut rng);
            let mut victims = Vec::new();
            while victims.len() < k {
                let v = rng.random_range(0..n);
                if !victims.contains(&v) {
                    victims.push(v);
                }
            }
            for (j, &v) in victims.iter().enumerate() {
                forge_dsa(&mut items[v], (round + j) % 4, &decoy);
            }
            // Signatures alone: the bound on combined checks is the issue's.
            let settled = verify_dsa_with_elements(group, &items, &[]);
            let want: Vec<bool> = (0..n).map(|i| !victims.contains(&i)).collect();
            assert_eq!(settled.signatures, want, "k {k} round {round}");
            let log_n = n.next_power_of_two().trailing_zeros() as usize;
            assert!(
                settled.combined_checks <= k * log_n + 1,
                "k {k} round {round}: {} combined checks",
                settled.combined_checks
            );
            assert!(
                settled.serial_checks <= 2 * k,
                "k {k} round {round}: {} serial",
                settled.serial_checks
            );
            // Under proven members (exponents reduced mod q): the same
            // verdicts from the same evaluations.
            assert_eq!(verify_dsa_members(group, &items), settled, "k {k} round {round}");
            // With every key's membership owed as well, twice the
            // obligations: one more level, the same verdicts.
            let settled = verify_dsa_with_elements(group, &items, &elements);
            assert_eq!((settled.signatures, settled.elements), (want, vec![true; n]));
            assert!(settled.combined_checks <= k * (log_n + 1) + 1);
        }
    }
}

/// The signer publishes `−y` and signs with the real secret. `−1` has
/// order two, outside the order-`q` subgroup, so serial verification
/// always refuses the key; a random linear combination sees an order-two
/// component only through the parity of one exponent, so each
/// combination the key's *membership* takes part in refuses it with
/// probability one half (DESIGN.md §9, small-subgroup caveat) — which is
/// why the broker never combines a membership check and proves a key with
/// `is_element` before combining anything under it. What is pinned here,
/// for the callers that do fold membership in: the merged exponent
/// `Σ b·z + q·z′` is taken over the integers (were it reduced mod `q`, no
/// combination could ever refuse the key), a refusal never lands on
/// anything but the twisted key, and honest items in the same batch come
/// out true either way.
#[test]
fn a_twisted_key_is_refused_through_its_integer_exponent() {
    let group = tiny_group();
    let mut rng = test_rng(0x7f157ed);
    let honest: Vec<DsaKeyPair> = (0..5).map(|_| DsaKeyPair::generate(group, &mut rng)).collect();
    let signer = DsaKeyPair::generate(group, &mut rng);
    let twisted = group.elem_ring().neg(signer.public().element());
    assert!(!group.is_element(&twisted));
    let mut refused = 0;
    for round in 0..64 {
        let mut items = valid_items(5, &honest, &mut rng);
        let message = format!("twisted {round}").into_bytes();
        let sig = signer.sign(group, &message, &mut rng);
        items.push(DsaBatchItem {
            key: whopay_crypto::dsa::DsaPublicKey::from_element(twisted.clone()),
            message,
            sig,
        });
        let mut elements: Vec<BigUint> = honest.iter().map(|k| k.public().element().clone()).collect();
        elements.push(twisted.clone());
        let settled = verify_dsa_with_elements(group, &items, &elements);
        assert_eq!(settled.signatures[..5], [true; 5], "round {round}");
        assert_eq!(settled.elements[..5], [true; 5], "round {round}");
        refused += !settled.elements[5] as usize;
    }
    assert!((8..=56).contains(&refused), "{refused} of 64 batches refused the twisted key");
}

/// A key that is no unit of `Z_p` — zero, or `p` itself — makes every
/// product it enters zero, and `0 == 0` says nothing: were such a claim
/// combined, the half of a bisection derived by cross-multiplication
/// would come out `(0, 0)` and be accepted unevaluated, forgeries and
/// all. Such a claim never joins; the forgery next to it is found
/// wherever it sits.
#[test]
fn a_key_that_is_no_unit_cannot_launder_a_forgery() {
    let group = tiny_group();
    let mut rng = test_rng(0x2e40);
    let keys: Vec<DsaKeyPair> = (0..8).map(|_| DsaKeyPair::generate(group, &mut rng)).collect();
    let honest = valid_items(8, &keys, &mut rng);
    for null_key in [BigUint::zero(), group.modulus().clone()] {
        for null_at in 0..8 {
            for forged_at in (0..8).filter(|&at| at != null_at) {
                // A well-formed signature (witness and all) under the null
                // key, and a forgery that keeps its witness consistent.
                let mut items = honest.clone();
                items[null_at].key = whopay_crypto::dsa::DsaPublicKey::from_element(null_key.clone());
                items[forged_at].sig = DsaSignature::from_parts_with_witness(
                    items[forged_at].sig.r().clone(),
                    items[forged_at].sig.s() + &BigUint::one(),
                    items[forged_at].sig.witness().cloned(),
                );
                let want: Vec<bool> = (0..8).map(|i| i != null_at && i != forged_at).collect();
                assert_eq!(serial(&items, &[]).0, want);
                let settled = verify_dsa_with_elements(group, &items, &[]);
                assert_eq!(settled.signatures, want, "null at {null_at}, forged at {forged_at}");
                assert_eq!(verify_dsa_members(group, &items).signatures, want);
                // The same with every key's membership owed as well.
                let elements: Vec<BigUint> = items.iter().map(|it| it.key.element().clone()).collect();
                let settled = verify_dsa_with_elements(group, &items, &elements);
                let members: Vec<bool> = (0..8).map(|i| i != null_at).collect();
                assert_eq!((settled.signatures, settled.elements), (want, members));
            }
        }
    }
}

/// The DSA digest of `message`, as `whopay_crypto::dsa` computes it.
fn dsa_digest(message: &[u8]) -> BigUint {
    let group = tiny_group();
    whopay_crypto::hashio::Transcript::new("whopay/dsa/v1")
        .int(group.modulus())
        .int(group.order())
        .bytes(message)
        .finish_scalar(group.order())
}

/// A signature by `key` over `message` whose witness is `R·twist` instead
/// of `R = g^k`, with `(r, s)` made to match it: `r = R·twist mod q`,
/// `s = k⁻¹(h + x·r)`. Only the holder of `x` can make one.
fn sign_with_twisted_witness(
    key: &DsaKeyPair,
    message: &[u8],
    twist: &BigUint,
    rng: &mut rand::rngs::StdRng,
) -> DsaSignature {
    let group = tiny_group();
    let scalar = group.scalar_ring();
    loop {
        let k = group.random_scalar(rng);
        let witness = group.elem_ring().mul(&group.pow_g(&k), twist);
        let r = &witness % group.order();
        let s = scalar.mul(
            &scalar.inv(&k).expect("k is a unit"),
            &scalar.add(&dsa_digest(message), &scalar.mul(key.secret(), &r)),
        );
        if !r.is_zero() && !s.is_zero() {
            return DsaSignature::from_parts_with_witness(r, s, Some(witness));
        }
    }
}

/// What a combination cannot see (DESIGN.md §9): a signer who multiplies
/// the witness of their *own* signature by `−1` and derives `(r, s)` from
/// the product has made something serial verification always refuses —
/// it recomputes `g^k`, whose residue is not `r` — while the claim
/// `g^a·y^b = R` is off by an order-two factor only, which a combination
/// sees through the parity of one coefficient. Pinned here: only that
/// signature's verdict ever differs from the serial one, and it takes the
/// signing key to get there.
#[test]
fn a_twisted_witness_is_accepted_half_the_time_and_moves_nothing_else() {
    let group = tiny_group();
    let mut rng = test_rng(0x7715ed);
    let honest: Vec<DsaKeyPair> = (0..5).map(|_| DsaKeyPair::generate(group, &mut rng)).collect();
    let signer = DsaKeyPair::generate(group, &mut rng);
    let one = BigUint::one();
    let minus_one = group.elem_ring().neg(&one);
    // The helper signs properly when it does not twist.
    let plain = sign_with_twisted_witness(&signer, b"plain", &one, &mut rng);
    assert!(signer.public().verify(group, b"plain", &plain));
    let mut accepted = 0;
    for round in 0..64 {
        let mut items = valid_items(5, &honest, &mut rng);
        let message = format!("twisted witness {round}").into_bytes();
        let sig = sign_with_twisted_witness(&signer, &message, &minus_one, &mut rng);
        assert!(!signer.public().verify(group, &message, &sig));
        items.push(DsaBatchItem { key: signer.public().clone(), message, sig });
        let settled = verify_dsa_with_elements(group, &items, &[]);
        assert_eq!(settled.signatures[..5], [true; 5], "round {round}");
        accepted += settled.signatures[5] as usize;
    }
    assert!((8..=56).contains(&accepted), "{accepted} of 64 twisted witnesses accepted");
}

/// Group-signature verification with the two membership checks left
/// out: what `verify_each` would be if it skipped them.
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
fn verify_each_gives_the_verdict_of_verify_signature_by_signature() {
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
                assert_eq!(gpk.verify_each(group, &claims), want, "round {round}, {n} claims");
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
            assert_eq!(gpk.verify_each(group, &claims), want, "lane {at}");
        }
    }
}
