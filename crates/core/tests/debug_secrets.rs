//! No secret scalar reaches `Debug`.
//!
//! A leaked DSA nonce gives away the key it signed with, a leaked group
//! `r` opens the signature, and the judge's master secret opens them all;
//! a peer's coupon pool holds unspent nonces of both kinds. So the key
//! pairs, the judge and the peer print public parts only, and a pool its
//! counts. Every scalar here comes off one recording rng, and the test
//! renders every scalar that rng could have made — one per starting word
//! of what it handed out — the way `BigUint`'s `Debug` renders it.

use rand::{Rng, SeedableRng};
use whopay_core::{Broker, Judge, Peer, PeerId, PurchaseMode, SystemParams, Timestamp};
use whopay_crypto::elgamal::ElGamalKeyPair;
use whopay_crypto::testing::tiny_group;
use whopay_num::{BigUint, SchnorrGroup};

/// An rng that remembers every word it hands out.
struct Recording {
    inner: rand::rngs::StdRng,
    words: Vec<u64>,
}

impl Rng for Recording {
    fn next_u64(&mut self) -> u64 {
        let word = self.inner.next_u64();
        self.words.push(word);
        word
    }
}

/// Hands out recorded words, then zeros.
struct Replay<'a>(std::slice::Iter<'a, u64>);

impl Rng for Replay<'_> {
    fn next_u64(&mut self) -> u64 {
        self.0.next().copied().unwrap_or(0)
    }
}

/// Every scalar `group.random_scalar` could have drawn from `words`,
/// starting at any one of them.
fn drawable(group: &SchnorrGroup, words: &[u64]) -> Vec<BigUint> {
    (0..words.len()).map(|i| group.random_scalar(&mut Replay(words[i..].iter()))).collect()
}

#[test]
fn no_secret_scalar_reaches_debug() {
    let mut rng = Recording { inner: rand::rngs::StdRng::seed_from_u64(0xDEB6), words: Vec::new() };
    let params = SystemParams::new(tiny_group().clone());
    let group = params.group().clone();
    let mut judge = Judge::new(group.clone(), &mut rng);
    let mut broker = Broker::new(params.clone(), judge.public_key().clone(), &mut rng);
    let mut peers: Vec<Peer> = (0..3)
        .map(|i| {
            let gk = judge.enroll(PeerId(i), &mut rng);
            let peer = Peer::new(
                PeerId(i),
                params.clone(),
                broker.public_key().clone(),
                judge.public_key().clone(),
                gk,
                &mut rng,
            );
            broker.register_peer(PeerId(i), peer.public_key().clone());
            peer
        })
        .collect();
    let member = judge.enroll(PeerId(9), &mut rng);
    let elgamal = ElGamalKeyPair::generate(&group, &mut rng);

    // Purchase, issue, then a transfer request: every pool has spent some
    // coupons and holds the rest.
    let now = Timestamp(0);
    let (request, pending) = peers[0].create_purchase_request(PurchaseMode::Identified, &mut rng);
    let minted = broker.handle_purchase(&request, &mut rng).expect("purchase");
    let coin = peers[0].complete_purchase(minted, pending, now, &mut rng).expect("minted");
    let (invite, session) = peers[1].begin_receive(&mut rng);
    let grant = peers[0].issue_coin(coin, &invite, now, &mut rng).expect("issue");
    peers[1].accept_grant(grant, session, now).expect("grant");
    let (invite, session) = peers[2].begin_receive(&mut rng);
    peers[1].request_transfer(coin, &invite, &mut rng).expect("transfer request");

    let held = peers[1].held_coin(&coin).expect("held");
    let owned = peers[0].owned_coin(&coin).expect("owned");
    let printed = format!(
        "{peers:?} {judge:?} {member:?} {elgamal:?} {:?} {:?} {:?}",
        held.holder_keys, owned.coin_keys, session.holder_keys
    );

    let secrets = drawable(&group, &rng.words);
    // The rendering covers the secrets it must: keys the pools made.
    for key in [&held.holder_keys, &owned.coin_keys, &session.holder_keys] {
        assert!(secrets.contains(key.secret()), "a pool-made key is among the drawable scalars");
    }
    assert!(secrets.contains(elgamal.secret()));
    for (i, secret) in secrets.iter().enumerate() {
        assert!(!printed.contains(&format!("{secret:?}")), "scalar drawn at word {i} is printed");
    }
    // The payer's pool printed its counts: it holds unspent coupons.
    assert!(printed.contains("CouponPool { dsa: 6, group: 6 }"), "{printed}");
}
