//! Per-key fixed-base acceleration for repeated signature verification.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use whopay_num::{BigUint, FixedBaseTable, SchnorrGroup};

/// Exponentiations a key must serve cold before its table is built: rent
/// until the rent paid equals the price. Building the two-block comb is
/// ≈ 650 products, mostly multiplications; a use from it saves ≈ 190,
/// mostly squarings (29 against a cold chain's ≈ 215). Measured, the
/// table has paid for itself after 4.2 uses at 1024 bits
/// (`cargo bench --bench modexp`: `comb_key_build` / (`pow_160bit_exp` −
/// `comb_key_pow`) = 236 / (66.4 − 10.5) µs) and 4.3 at 512
/// (54.7 / (15.4 − 2.6) µs). Long-lived keys clear this within a few
/// protocol exchanges; a key decoded from a single message never does, and
/// a key dropped right after its table was built has cost about twice
/// what never building would have.
const HOT_THRESHOLD: u32 = 4;

/// Lazily built fixed-base table for one public-key element.
///
/// Long-lived keys — the broker key checks every coin a peer receives, the
/// judge key is raised to a fresh exponent by every group signature and
/// every group verification — pay hundreds of Montgomery multiplications
/// per `y^u` from scratch. A fixed-base comb ([`FixedBaseTable::for_key`])
/// trades a one-time build for one multiplication per eight exponent bits
/// afterwards. The threshold keeps the build cost off one-shot keys (a
/// holder key decoded from one transfer message), so it is only spent
/// where it amortizes.
///
/// Public keys are group-agnostic, so the cache remembers which modulus the
/// table was built for and declines to serve a different group.
#[derive(Debug, Default)]
pub(crate) struct KeyAccel {
    uses: AtomicU32,
    table: OnceLock<(BigUint, FixedBaseTable)>,
}

/// The table is derived from the key and never part of its identity: key
/// types derive `PartialEq` / `Hash` over their element and this.
impl PartialEq for KeyAccel {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for KeyAccel {}

impl std::hash::Hash for KeyAccel {
    fn hash<H: std::hash::Hasher>(&self, _: &mut H) {}
}

impl KeyAccel {
    /// `y^e mod p` through the cached table once the key is hot; `None`
    /// means "not hot yet" or "table inapplicable" and the caller should
    /// take its ordinary from-scratch path.
    ///
    /// Racing threads may each count a use or each build the table; both
    /// are harmless (the `OnceLock` keeps exactly one table).
    pub fn pow(&self, group: &SchnorrGroup, y: &BigUint, e: &BigUint) -> Option<BigUint> {
        if self.table.get().is_none() {
            // Only counted while cold, so the counter cannot wrap.
            if self.uses.fetch_add(1, Ordering::Relaxed) < HOT_THRESHOLD {
                return None;
            }
        }
        let mont = group.elem_ring().montgomery()?;
        let (modulus, table) = self.table.get_or_init(|| {
            let base = group.elem_ring().reduce(y);
            let table = FixedBaseTable::for_key(mont, &base, group.order().bits());
            (group.modulus().clone(), table)
        });
        if modulus != group.modulus() {
            return None;
        }
        table.pow(mont, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{test_group, test_rng};

    #[test]
    fn matches_plain_pow_after_warmup() {
        let mut rng = test_rng(40);
        let group = test_group();
        let x = group.random_scalar(&mut rng);
        let y = group.pow_g(&x);
        let accel = KeyAccel::default();
        let e = group.random_scalar(&mut rng);
        for i in 0..8 {
            let got = accel.pow(&group, &y, &e);
            if i < HOT_THRESHOLD {
                assert!(got.is_none(), "table must stay cold at use {i}");
            } else {
                assert_eq!(got, Some(group.elem_ring().pow(&y, &e)));
            }
        }
    }

    #[test]
    fn declines_foreign_group() {
        let mut rng = test_rng(41);
        let group = test_group();
        let other = SchnorrGroup::generate(160, 96, &mut rng);
        let y = group.pow_g(&group.random_scalar(&mut rng));
        let accel = KeyAccel::default();
        let e = group.random_scalar(&mut rng);
        while accel.pow(&group, &y, &e).is_none() {}
        // Hot for `group`, but the table must not answer for `other`.
        assert!(accel.pow(&other, &y, &e).is_none());
    }
}
