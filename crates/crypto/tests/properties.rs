//! Property-based tests for the cryptographic schemes.
//!
//! Strategy: fixed (cached) group parameters, randomized keys, messages,
//! and tampering — checking completeness (honest flows verify) and
//! soundness (any tampering breaks verification) across the input space.

use proptest::prelude::*;
use rand::SeedableRng;
use whopay_crypto::dsa::DsaKeyPair;
use whopay_crypto::elgamal::ElGamalKeyPair;
use whopay_crypto::group_sig::{GroupManager, OpenOutcome};
use whopay_crypto::payword::{PaywordChain, PaywordReceiver};
use whopay_crypto::sha256::Sha256;
use whopay_crypto::testing::tiny_group;
use whopay_crypto::{shamir, Transcript};
use whopay_num::BigUint;

fn rng_from(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dsa_completeness(seed in any::<u64>(), msg in proptest::collection::vec(any::<u8>(), 0..256)) {
        let group = tiny_group();
        let mut rng = rng_from(seed);
        let kp = DsaKeyPair::generate(group, &mut rng);
        let sig = kp.sign(group, &msg, &mut rng);
        prop_assert!(kp.public().verify(group, &msg, &sig));
    }

    #[test]
    fn dsa_rejects_any_message_tweak(seed in any::<u64>(), msg in proptest::collection::vec(any::<u8>(), 1..128), flip in 0usize..128) {
        let group = tiny_group();
        let mut rng = rng_from(seed);
        let kp = DsaKeyPair::generate(group, &mut rng);
        let sig = kp.sign(group, &msg, &mut rng);
        let mut tampered = msg.clone();
        let i = flip % tampered.len();
        tampered[i] ^= 1;
        prop_assert!(!kp.public().verify(group, &tampered, &sig));
    }

    #[test]
    fn elgamal_round_trip_random_subgroup_elements(seed in any::<u64>()) {
        let group = tiny_group();
        let mut rng = rng_from(seed);
        let kp = ElGamalKeyPair::generate(group, &mut rng);
        let m = group.pow_g(&group.random_scalar(&mut rng));
        let ct = kp.public().encrypt(group, &m, &mut rng);
        prop_assert_eq!(kp.decrypt(group, &ct), m);
    }

    #[test]
    fn group_sig_complete_and_opens_to_signer(seed in any::<u64>(), msg in proptest::collection::vec(any::<u8>(), 0..128), who in 0usize..4) {
        let group = tiny_group();
        let mut rng = rng_from(seed);
        let mut judge: GroupManager<usize> = GroupManager::new(group.clone(), &mut rng);
        let members: Vec<_> = (0..4).map(|i| judge.enroll(i, &mut rng)).collect();
        let sig = members[who].sign(group, judge.public_key(), &msg, &mut rng);
        prop_assert!(judge.public_key().verify(group, &msg, &sig));
        prop_assert_eq!(judge.open(&sig), OpenOutcome::Member(&who));
    }

    #[test]
    fn group_sig_rejects_cross_message_replay(seed in any::<u64>(), m1 in proptest::collection::vec(any::<u8>(), 1..64), m2 in proptest::collection::vec(any::<u8>(), 1..64)) {
        prop_assume!(m1 != m2);
        let group = tiny_group();
        let mut rng = rng_from(seed);
        let mut judge: GroupManager<u8> = GroupManager::new(group.clone(), &mut rng);
        let member = judge.enroll(1, &mut rng);
        let sig = member.sign(group, judge.public_key(), &m1, &mut rng);
        prop_assert!(!judge.public_key().verify(group, &m2, &sig));
    }

    #[test]
    fn shamir_any_quorum_recovers(seed in any::<u64>(), secret in any::<u64>(), k in 1usize..5, extra in 0usize..4) {
        let n = k + extra;
        let q = tiny_group().order().clone();
        let mut rng = rng_from(seed);
        let secret = BigUint::from(secret);
        let shares = shamir::split(&secret, k, n, &q, &mut rng);
        // Take the *last* k shares (any k must do).
        let picked = &shares[n - k..];
        prop_assert_eq!(shamir::recover(picked, k, &q).unwrap(), &secret % &q);
    }

    #[test]
    fn payword_chain_any_spend_pattern(seed in any::<u64>(), spends in proptest::collection::vec(1u64..5, 1..10)) {
        let mut rng = rng_from(seed);
        let total: u64 = spends.iter().sum();
        let mut chain = PaywordChain::generate(total as usize, &mut rng);
        let mut recv = PaywordReceiver::new(chain.root());
        for &units in &spends {
            let pw = chain.spend(units).unwrap();
            prop_assert_eq!(recv.receive(pw), Some(units));
        }
        prop_assert_eq!(recv.best().index, total);
        prop_assert!(chain.spend(1).is_none());
    }

    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512), split in any::<prop::sample::Index>()) {
        let i = if data.is_empty() { 0 } else { split.index(data.len()) };
        let mut h = Sha256::new();
        h.update(&data[..i]);
        h.update(&data[i..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn transcript_injective_under_item_split(a in proptest::collection::vec(any::<u8>(), 0..32), b in proptest::collection::vec(any::<u8>(), 0..32)) {
        // (a, b) and (a ++ b, ε) must hash differently unless identical splits.
        let h1 = Transcript::new("t").bytes(&a).bytes(&b).finish();
        let joined: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        let h2 = Transcript::new("t").bytes(&joined).bytes(&[]).finish();
        if !b.is_empty() {
            prop_assert_ne!(h1, h2);
        } else {
            prop_assert_eq!(h1, h2);
        }
    }
}
