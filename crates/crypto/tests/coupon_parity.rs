//! A coupon pool changes when a signer's powers are taken, not what it
//! signs.
//!
//! A fresh [`CouponPool`] refills eight coupons of a kind from the
//! caller's rng, in the order sequential draws would make them, so its
//! first eight DSA signatures, keys and group signatures are byte for
//! byte those of eight rng-taking calls on a clone of that rng. Past a
//! refill every signature still verifies, opens to its signer and spends
//! a nonce of its own. That a coupon cannot be cloned is the
//! `compile_fail` example in `whopay_crypto::coupon`'s module docs.

use std::collections::HashSet;

use whopay_crypto::coupon::REFILL;
use whopay_crypto::dsa::{DsaKeyPair, DsaPublicKey};
use whopay_crypto::group_sig::{GroupManager, OpenOutcome};
use whopay_crypto::testing::{small_group, test_rng, tiny_group};
use whopay_crypto::CouponPool;

fn messages(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("message {i}").into_bytes()).collect()
}

#[test]
fn a_fresh_pools_first_dsa_signatures_and_keys_are_sequential_draws() {
    for group in [tiny_group(), small_group()] {
        let keys = DsaKeyPair::generate(group, &mut test_rng(0xC0_01));
        let messages = messages(REFILL);
        let (mut pooled, mut sequential) = (test_rng(0xC0_02), test_rng(0xC0_02));
        let mut pool = CouponPool::new();
        for message in &messages {
            let want = keys.sign(group, message, &mut sequential);
            assert_eq!(pool.sign(&keys, group, message, &mut pooled), want);
        }
        let (mut pooled, mut sequential) = (test_rng(0xC0_03), test_rng(0xC0_03));
        let mut pool = CouponPool::new();
        for _ in 0..REFILL {
            let want = DsaKeyPair::generate(group, &mut sequential);
            assert_eq!(pool.generate(group, &mut pooled), want);
        }
        // A pair of signatures sharing one inversion, too.
        let (mut pooled, mut sequential) = (test_rng(0xC0_04), test_rng(0xC0_04));
        let mut pool = CouponPool::new();
        for pair in messages.chunks(2) {
            let pair = [&pair[0][..], &pair[1][..]];
            let want = keys.sign_each(group, pair, &mut sequential);
            assert_eq!(pool.sign_each(&keys, group, pair, &mut pooled), want);
        }
    }
}

#[test]
fn a_fresh_pools_first_group_signatures_are_sequential_draws() {
    for group in [tiny_group(), small_group()] {
        let mut rng = test_rng(0xC0_05);
        let mut judge = GroupManager::new(group.clone(), &mut rng);
        let alice = judge.enroll("alice", &mut rng);
        let gpk = judge.public_key();
        let (mut pooled, mut sequential) = (test_rng(0xC0_06), test_rng(0xC0_06));
        let mut pool = CouponPool::new();
        for message in messages(REFILL) {
            let want = alice.sign(group, gpk, &message, &mut sequential);
            assert_eq!(pool.group_sign(&alice, group, gpk, &message, &mut pooled), want);
        }
    }
}

#[test]
fn across_a_refill_every_signature_verifies_opens_and_has_its_own_nonce() {
    const SIGNATURES: usize = 2 * REFILL + 1;
    for group in [tiny_group(), small_group()] {
        let mut rng = test_rng(0xC0_07);
        let mut judge = GroupManager::new(group.clone(), &mut rng);
        let members = [judge.enroll("alice", &mut rng), judge.enroll("bob", &mut rng)];
        let gpk = judge.public_key().clone();
        let keys = DsaKeyPair::generate(group, &mut rng);
        let mut pool = CouponPool::new();
        let (mut dsa_nonces, mut escrows) = (HashSet::new(), HashSet::new());
        for (i, message) in messages(SIGNATURES).iter().enumerate() {
            let sig = pool.sign(&keys, group, message, &mut rng);
            assert!(DsaPublicKey::verify_member(group, keys.public().element(), message, &sig));
            assert!(dsa_nonces.insert(sig.r().clone()), "signature {i} reuses a nonce");

            let signer = i % 2;
            let gsig = pool.group_sign(&members[signer], group, &gpk, message, &mut rng);
            assert!(gpk.verify(group, message, &gsig), "group signature {i}");
            let name = ["alice", "bob"][signer];
            assert_eq!(judge.open(&gsig), OpenOutcome::Member(&name));
            // c1 = g^r: distinct escrows are distinct nonces r.
            assert!(escrows.insert(gsig.ciphertext().c1().clone()), "group signature {i} reuses r");
        }
        // Two refills of each kind spent, and one coupon of the third.
        assert_eq!(pool.counts(), (REFILL - 1, REFILL - 1));
    }
}
