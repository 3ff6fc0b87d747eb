//! Coupons: the offline half of online/offline signing (Even, Goldreich
//! and Micali; FIPS 186's precomputed `(k, g^k)`).
//!
//! Everything a signature spends before it sees its message — its fresh
//! scalars and their fixed-base powers — can be made ahead of time, and
//! then made eight at a time: one lane call of a comb
//! ([`SchnorrGroup::pow_g_many`], [`crate::ElGamalPublicKey::pow_many`]) raises
//! eight exponents for about twice what one costs alone. A coupon is
//! that precomputed half:
//!
//! * a [`DsaCoupon`] is `(k, g^k)` — a DSA nonce, or the secret and
//!   public halves of a fresh key pair;
//! * a [`GroupCoupon`] is `(r, ρ_r, ρ_x)` with `g^r`, `g^ρ_r`, `g^ρ_x`,
//!   `y_J^r` and `y_J^ρ_r` — the escrow randomness and proof commitments
//!   of one group signature under the judge key `y_J`.
//!
//! [`DsaKeyPair::sign_each_from`], [`DsaKeyPair::from_coupon`] and
//! [`GroupMemberKey::sign_with`] spend coupons; their rng-taking twins
//! draw one fresh coupon per use, with the draws and bytes they always
//! had. A [`CouponPool`] holds the coupons a signer made and has not
//! spent, and refills [`REFILL`] of a kind from the caller's rng when it
//! runs dry, in the order sequential draws would have made them.
//!
//! A coupon is single-use secret material: its `k` gives away the key a
//! signature was made with, its `r` opens a group signature. So it is
//! neither `Clone` nor `Copy`, it is spent by value, and its `Debug`
//! prints no scalar. It is never journalled or sent.
//!
//! ```compile_fail
//! # use whopay_crypto::{coupon::DsaCoupon, testing};
//! let group = testing::tiny_group();
//! let coupon = DsaCoupon::draw(group, &mut testing::test_rng(1));
//! let twice = coupon.clone(); // a coupon cannot be cloned
//! ```

use std::fmt;

use rand::Rng;
use whopay_num::{BigUint, SchnorrGroup};

use crate::dsa::{DsaKeyPair, DsaSignature};
use crate::group_sig::{GroupMemberKey, GroupPublicKey, GroupSignature};

/// Coupons a pool makes per refill: the lane width, so that a refill's
/// powers fill whole lane calls.
pub const REFILL: usize = 8;

#[cfg(target_arch = "x86_64")]
const _: () = assert!(REFILL == whopay_num::lanes::LANES);

/// A DSA coupon: a scalar `k` in `[1, q)` and `g^k`.
pub struct DsaCoupon {
    pub(crate) k: BigUint,
    pub(crate) g_k: BigUint,
}

/// A group-signature coupon: the escrow randomness `r`, the commitment
/// scalars `ρ_r` and `ρ_x`, and the five fixed-base powers a signature
/// over any message needs of them.
pub struct GroupCoupon {
    pub(crate) r: BigUint,
    pub(crate) rho_r: BigUint,
    pub(crate) rho_x: BigUint,
    pub(crate) g_r: BigUint,
    pub(crate) g_rho_r: BigUint,
    pub(crate) g_rho_x: BigUint,
    pub(crate) y_r: BigUint,
    pub(crate) y_rho_r: BigUint,
}

impl DsaCoupon {
    /// One fresh coupon: one scalar from `rng`, one comb power.
    pub fn draw<R: Rng + ?Sized>(group: &SchnorrGroup, rng: &mut R) -> Self {
        let k = group.random_scalar(rng);
        let g_k = group.pow_g(&k);
        DsaCoupon { k, g_k }
    }

    /// `n` fresh coupons, the scalars drawn in order, their powers taken
    /// in one [`SchnorrGroup::pow_g_many`] call: exactly `n` calls of
    /// [`DsaCoupon::draw`].
    fn draw_many<R: Rng + ?Sized>(group: &SchnorrGroup, n: usize, rng: &mut R) -> Vec<Self> {
        let ks: Vec<BigUint> = (0..n).map(|_| group.random_scalar(rng)).collect();
        let powers = group.pow_g_many(&ks.iter().collect::<Vec<_>>());
        ks.into_iter().zip(powers).map(|(k, g_k)| DsaCoupon { k, g_k }).collect()
    }
}

impl GroupCoupon {
    /// One fresh coupon under `gpk`'s judge key: `r`, `ρ_r`, `ρ_x` from
    /// `rng` in that order, three generator powers and two judge-key
    /// powers.
    pub fn draw<R: Rng + ?Sized>(group: &SchnorrGroup, gpk: &GroupPublicKey, rng: &mut R) -> Self {
        let judge = gpk.judge_key();
        let [r, rho_r, rho_x] = std::array::from_fn(|_| group.random_scalar(rng));
        GroupCoupon {
            g_r: group.pow_g(&r),
            g_rho_r: group.pow_g(&rho_r),
            g_rho_x: group.pow_g(&rho_x),
            y_r: judge.pow(group, &r),
            y_rho_r: judge.pow(group, &rho_r),
            r,
            rho_r,
            rho_x,
        }
    }

    /// `n` fresh coupons under `gpk`'s judge key, the `3n` scalars drawn
    /// as `n` calls of [`GroupCoupon::draw`] would draw them, the `3n`
    /// generator powers in one [`SchnorrGroup::pow_g_many`] call and the
    /// `2n` judge-key powers in one [`crate::ElGamalPublicKey::pow_many`]
    /// call.
    fn draw_many<R: Rng + ?Sized>(
        group: &SchnorrGroup,
        gpk: &GroupPublicKey,
        n: usize,
        rng: &mut R,
    ) -> Vec<Self> {
        let scalars: Vec<[BigUint; 3]> =
            (0..n).map(|_| std::array::from_fn(|_| group.random_scalar(rng))).collect();
        let g_exps: Vec<&BigUint> = scalars.iter().flatten().collect();
        let y_exps: Vec<&BigUint> = scalars.iter().flat_map(|[r, rho_r, _]| [r, rho_r]).collect();
        let mut g = group.pow_g_many(&g_exps).into_iter();
        let mut y = gpk.judge_key().pow_many(group, &y_exps).0.into_iter();
        scalars
            .into_iter()
            .map(|[r, rho_r, rho_x]| {
                let [g_r, g_rho_r, g_rho_x] =
                    std::array::from_fn(|_| g.next().expect("three generator powers a coupon"));
                let [y_r, y_rho_r] =
                    std::array::from_fn(|_| y.next().expect("two judge-key powers a coupon"));
                GroupCoupon { r, rho_r, rho_x, g_r, g_rho_r, g_rho_x, y_r, y_rho_r }
            })
            .collect()
    }
}

/// A signer's unspent coupons of both kinds. It starts empty; a draw
/// from an empty side refills [`REFILL`] coupons of that kind from the
/// caller's rng — a DSA refill's 8 powers in one
/// [`SchnorrGroup::pow_g_many`] call, a group refill's 24 generator
/// powers in another and its 16 judge-key powers in one
/// [`crate::ElGamalPublicKey::pow_many`] call — and hands them out in the
/// order they were drawn. So the first
/// [`REFILL`] signatures or keys a fresh pool yields are those of as
/// many sequential rng-taking calls on the same rng.
///
/// The group side holds coupons for one judge key: a pool serves one
/// [`GroupPublicKey`] for its whole life.
#[derive(Default)]
pub struct CouponPool {
    /// Unspent DSA coupons, the next one last.
    dsa: Vec<DsaCoupon>,
    /// Unspent group coupons, the next one last.
    group: Vec<GroupCoupon>,
}

impl CouponPool {
    /// An empty pool.
    pub fn new() -> Self {
        CouponPool::default()
    }

    /// How many unspent `(dsa, group)` coupons the pool holds.
    pub fn counts(&self) -> (usize, usize) {
        (self.dsa.len(), self.group.len())
    }

    /// The next DSA coupon, refilling first if there is none.
    fn dsa<R: Rng + ?Sized>(&mut self, group: &SchnorrGroup, rng: &mut R) -> DsaCoupon {
        if self.dsa.is_empty() {
            self.dsa = DsaCoupon::draw_many(group, REFILL, rng);
            self.dsa.reverse();
        }
        self.dsa.pop().expect("a refill makes coupons")
    }

    /// The next group coupon under `gpk`'s judge key, refilling first if
    /// there is none.
    fn group_coupon<R: Rng + ?Sized>(
        &mut self,
        group: &SchnorrGroup,
        gpk: &GroupPublicKey,
        rng: &mut R,
    ) -> GroupCoupon {
        if self.group.is_empty() {
            self.group = GroupCoupon::draw_many(group, gpk, REFILL, rng);
            self.group.reverse();
        }
        self.group.pop().expect("a refill makes coupons")
    }

    /// A fresh key pair from the pool: [`DsaKeyPair::generate`]'s twin.
    pub fn generate<R: Rng + ?Sized>(&mut self, group: &SchnorrGroup, rng: &mut R) -> DsaKeyPair {
        DsaKeyPair::from_coupon(self.dsa(group, rng))
    }

    /// `keys`' signatures of `messages`, nonces from the pool:
    /// [`DsaKeyPair::sign_each`]'s twin.
    pub fn sign_each<R: Rng + ?Sized, const N: usize>(
        &mut self,
        keys: &DsaKeyPair,
        group: &SchnorrGroup,
        messages: [&[u8]; N],
        rng: &mut R,
    ) -> [DsaSignature; N] {
        keys.sign_each_from(group, messages, || self.dsa(group, rng))
    }

    /// `keys`' signature of `message`, its nonce from the pool:
    /// [`DsaKeyPair::sign`]'s twin.
    pub fn sign<R: Rng + ?Sized>(
        &mut self,
        keys: &DsaKeyPair,
        group: &SchnorrGroup,
        message: &[u8],
        rng: &mut R,
    ) -> DsaSignature {
        let [sig] = self.sign_each(keys, group, [message], rng);
        sig
    }

    /// `key`'s group signature of `message` under `gpk`, its coupon from
    /// the pool: [`GroupMemberKey::sign`]'s twin.
    pub fn group_sign<R: Rng + ?Sized>(
        &mut self,
        key: &GroupMemberKey,
        group: &SchnorrGroup,
        gpk: &GroupPublicKey,
        message: &[u8],
        rng: &mut R,
    ) -> GroupSignature {
        let coupon = self.group_coupon(group, gpk, rng);
        key.sign_with(group, gpk, message, coupon)
    }
}

impl fmt::Debug for DsaCoupon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("DsaCoupon { .. }")
    }
}

impl fmt::Debug for GroupCoupon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("GroupCoupon { .. }")
    }
}

/// Counts only: the coupons are secrets.
impl fmt::Debug for CouponPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (dsa, group) = self.counts();
        f.debug_struct("CouponPool").field("dsa", &dsa).field("group", &group).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group_sig::GroupManager;
    use crate::testutil::{test_group, test_rng};

    #[test]
    fn a_batch_is_the_draws_one_at_a_time() {
        let group = test_group();
        let judge: GroupManager<u8> = GroupManager::new(group.clone(), &mut test_rng(60));
        let gpk = judge.public_key();
        let (mut alone, mut batched) = (test_rng(61), test_rng(61));
        let want: Vec<_> = (0..REFILL).map(|_| DsaCoupon::draw(&group, &mut alone)).collect();
        let got = DsaCoupon::draw_many(&group, REFILL, &mut batched);
        for (want, got) in want.iter().zip(&got) {
            assert_eq!((&want.k, &want.g_k), (&got.k, &got.g_k));
        }
        let want: Vec<_> = (0..REFILL).map(|_| GroupCoupon::draw(&group, gpk, &mut alone)).collect();
        let got = GroupCoupon::draw_many(&group, gpk, REFILL, &mut batched);
        for (want, got) in want.iter().zip(&got) {
            let fields = |c: &GroupCoupon| {
                [&c.r, &c.rho_r, &c.rho_x, &c.g_r, &c.g_rho_r, &c.g_rho_x, &c.y_r, &c.y_rho_r]
                    .map(Clone::clone)
            };
            assert_eq!(fields(want), fields(got));
        }
        assert_eq!(rand::RngExt::random::<u64>(&mut alone), rand::RngExt::random::<u64>(&mut batched));
    }

    #[test]
    fn a_pool_prints_its_counts_and_no_scalar() {
        let group = test_group();
        let judge: GroupManager<u8> = GroupManager::new(group.clone(), &mut test_rng(62));
        let mut pool = CouponPool::new();
        let mut rng = test_rng(63);
        let (dsa, coupon) =
            (pool.dsa(&group, &mut rng), pool.group_coupon(&group, judge.public_key(), &mut rng));
        let printed = format!("{pool:?} {dsa:?} {coupon:?}");
        assert_eq!(printed, "CouponPool { dsa: 7, group: 7 } DsaCoupon { .. } GroupCoupon { .. }");
    }
}
