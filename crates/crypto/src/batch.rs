//! Randomized batch verification for DSA and Schnorr signatures.
//!
//! Both schemes reduce to the same per-signature claim over a
//! [`SchnorrGroup`]: there is a commitment `R = g^k mod p` (the *witness*,
//! carried by [`DsaSignature::witness`]/[`SchnorrSignature::witness`]) such
//! that
//!
//! ```text
//!   g^aᵢ · yᵢ^bᵢ ≡ Rᵢ  (mod p)
//! ```
//!
//! with `(a, b) = (u₁, u₂) = (h·s⁻¹, r·s⁻¹)` for DSA (plus the cheap check
//! `Rᵢ mod q = rᵢ`) and `(a, b) = (s, −e mod q)` for Schnorr (plus the
//! cheap check `e = H(y ‖ R ‖ m)`). Verifying `n` such claims one at a
//! time costs `n` double-exponentiations. Instead we draw *small* random
//! coefficients `zᵢ` of [`LAMBDA_BITS`] bits and check the single random
//! linear combination
//!
//! ```text
//!   g^(Σ zᵢ·aᵢ) · ∏ yᵢ^(zᵢ·bᵢ)  ≡  ∏ Rᵢ^zᵢ   (mod p)
//! ```
//!
//! which one fixed-base exponentiation plus two multi-exponentiations
//! ([`whopay_num::ModRing::multi_pow`]) evaluate — the right-hand side is
//! especially cheap because its exponents are only `λ` bits. If any single
//! claim is false the combination survives with probability at most
//! `2^(−λ)` over the choice of `zᵢ` (standard small-exponent batch
//! analysis; see DESIGN.md §9 for the bound and for the small-subgroup
//! caveat inherited from working in `Z_p*` rather than a prime-order
//! group). The coefficients are derived Fiat–Shamir-style from a hash of
//! the whole batch, so verification stays deterministic and needs no RNG.
//!
//! Three things keep the combination cheap for the small groups a broker
//! shard sees per drain cycle:
//!
//! * **Merged bases.** Claims under one key share one base, and a key
//!   whose subgroup membership is owed too carries that obligation on
//!   the *same* base, under the integer exponent `Σ b·z + q·z′`.
//! * **One inversion.** Every DSA claim needs `s⁻¹ mod q`; the whole
//!   batch shares a single inversion (Montgomery's trick).
//! * **Bisection.** A failing combination is split in halves, reusing
//!   the coefficients and deriving one half from the other, so `k`
//!   forgeries among `n` cost `≤ k·⌈log₂ n⌉ + 1` evaluations plus at
//!   most `2k` serial checks.
//!
//! **What an acceptance means.** The `2^(−λ)` bound is about the
//! order-`q` subgroup. `Z_p*` also has the subgroup of order
//! `m = (p − 1)/q`, and a random combination sees a component of small
//! order `d | m` only through one exponent mod `d`: a key `−y`, or a
//! witness `−R` that the signer derived `(r, s)` from, gets past a
//! combination with probability `1/d`. Neither forges anything — making
//! one takes the signing key — but both are things serial verification
//! refuses. So a caller that needs *exact* verdicts proves a key a
//! subgroup member ([`SchnorrGroup::is_element`]) before combining
//! claims under it and does not fold membership obligations in (the
//! broker's drain-cycle path, DESIGN.md §9); what then remains is the
//! witness, which only a `q`-bit exponentiation per signature — the cost
//! batching exists to avoid — could pin down. Keys and witnesses that
//! are not units of `Z_p` (zero, `p` or more) never join a combination:
//! a zero factor would make both sides zero and every equation true.
//!
//! **Failure never lies:** a combined check can only ever *accept* a
//! subset. Whatever it cannot accept — an item without a witness (it
//! crossed the wire in the compact format), or the single obligation
//! bisection narrows a failure down to — is settled by ordinary
//! per-signature verification, so the verdicts are always the ground truth
//! a caller would have computed serially. Batching is purely a fast path
//! for the all-valid case, which dominates honest workloads (drain
//! cycles, deposit floods, chain re-verification, DSD sweeps).

use std::collections::HashMap;

use whopay_num::{BigUint, SchnorrGroup};

use crate::dsa::{self, DsaPublicKey, DsaSignature};
use crate::hashio::Transcript;
use crate::schnorr::{self, SchnorrPublicKey, SchnorrSignature};

/// Bit length of the random batch coefficients; soundness is `2^(-λ)`.
pub const LAMBDA_BITS: usize = 64;

/// Smallest batch worth combining: a single item gains nothing over the
/// per-signature path.
pub const MIN_BATCH: usize = 2;

/// Domain label for the Fiat–Shamir coefficient transcript.
const DOMAIN: &str = "whopay/batch/v1";

/// One DSA verification job as plain owned data (so jobs can cross thread
/// boundaries — see `whopay-core`'s verify pool).
#[derive(Debug, Clone)]
pub struct DsaBatchItem {
    /// Verifying key.
    pub key: DsaPublicKey,
    /// Canonical signed bytes.
    pub message: Vec<u8>,
    /// The signature, ideally witness-carrying.
    pub sig: DsaSignature,
}

/// One Schnorr verification job as plain owned data.
#[derive(Debug, Clone)]
pub struct SchnorrBatchItem {
    /// Verifying key.
    pub key: SchnorrPublicKey,
    /// Canonical signed bytes.
    pub message: Vec<u8>,
    /// The signature, ideally witness-carrying.
    pub sig: SchnorrSignature,
}

/// The verdicts of one settled batch and what settling it cost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Signature verdicts, index-aligned with the items.
    pub signatures: Vec<bool>,
    /// Membership verdicts, index-aligned with the elements.
    pub elements: Vec<bool>,
    /// Random linear combinations evaluated (1 for an all-valid batch).
    pub combined_checks: usize,
    /// Obligations settled by ordinary per-item verification.
    pub serial_checks: usize,
}

/// A normalized claim `g^a · y^b == r (mod p)`.
struct GroupClaim {
    y: BigUint,
    a: BigUint,
    b: BigUint,
    r: BigUint,
}

/// Verifies every DSA item, using one randomized batch check over the
/// items that carry witnesses; the rest (and whatever a failing check is
/// narrowed down to) take per-signature verification. The verdict vector
/// is index-aligned with `items` and identical to what serial
/// verification would produce.
pub fn verify_dsa_each(group: &SchnorrGroup, items: &[DsaBatchItem]) -> Vec<bool> {
    verify_dsa_with_elements(group, items, &[]).signatures
}

/// [`verify_dsa_each`] with subgroup-membership obligations folded into
/// the same combined check: alongside the signature claims, each
/// `x ∈ elements` contributes the claim `x^q ≡ 1 (mod p)` under the
/// exponent `q·zⱼ` — a *full integer*, since `x`'s order is exactly what
/// is in question — on the base it shares with any signature claims
/// under `x`, instead of costing a standalone `q`-bit exponentiation.
/// The verdicts are index-aligned with `items` and `elements` and
/// identical to serial [`DsaPublicKey::verify`] /
/// [`SchnorrGroup::is_element`] results.
pub fn verify_dsa_with_elements(
    group: &SchnorrGroup,
    items: &[DsaBatchItem],
    elements: &[BigUint],
) -> BatchOutcome {
    settle_dsa(group, items, elements, false)
}

/// [`verify_dsa_each`] for items whose keys the caller has *proven*
/// members of the order-`q` subgroup (by [`SchnorrGroup::is_element`], or
/// because it made or vetted them itself). Under such keys a combined
/// check is exact up to the witnesses (see the module docs), and a key's
/// exponent `Σ b·z` can be reduced mod `q` — a third off the left-hand
/// side's work. The verdicts are those of serial [`DsaPublicKey::verify`].
pub fn verify_dsa_members(group: &SchnorrGroup, items: &[DsaBatchItem]) -> BatchOutcome {
    settle_dsa(group, items, &[], true)
}

/// Normalizes DSA items into claims (one shared inversion) and settles
/// them; `members` as in [`Settling::members`].
fn settle_dsa(
    group: &SchnorrGroup,
    items: &[DsaBatchItem],
    elements: &[BigUint],
    members: bool,
) -> BatchOutcome {
    let scalar = group.scalar_ring();
    let joinable: Vec<bool> = items.iter().map(|it| dsa_joinable(group, it)).collect();
    let s_values: Vec<&BigUint> =
        items.iter().zip(&joinable).filter(|(_, &ok)| ok).map(|(it, _)| it.sig.s()).collect();
    let mut inverses = scalar
        .inv_each(&s_values)
        .expect("nonzero residues of a prime modulus are invertible")
        .into_iter();
    let claims = items
        .iter()
        .zip(&joinable)
        .map(|(it, &ok)| {
            let w = ok.then(|| inverses.next().expect("one inverse per joinable item"))?;
            let h = dsa::hash_message(group, &it.message);
            Some(GroupClaim {
                y: it.key.element().clone(),
                a: scalar.mul(&h, &w),
                b: scalar.mul(it.sig.r(), &w),
                r: it.sig.witness().expect("joinable items carry a witness").clone(),
            })
        })
        .collect();
    settle(group, claims, elements, members, |i| {
        items[i].key.verify(group, &items[i].message, &items[i].sig)
    })
}

/// Batch-verifies DSA items, `true` iff every signature is valid.
pub fn verify_dsa_all(group: &SchnorrGroup, items: &[DsaBatchItem]) -> bool {
    verify_dsa_each(group, items).into_iter().all(|ok| ok)
}

/// Verifies every Schnorr item; same contract as [`verify_dsa_each`].
pub fn verify_schnorr_each(group: &SchnorrGroup, items: &[SchnorrBatchItem]) -> Vec<bool> {
    let claims = items.iter().map(|it| schnorr_claim(group, it)).collect();
    settle(group, claims, &[], false, |i| items[i].key.verify(group, &items[i].message, &items[i].sig))
        .signatures
}

/// Batch-verifies Schnorr items, `true` iff every signature is valid.
pub fn verify_schnorr_all(group: &SchnorrGroup, items: &[SchnorrBatchItem]) -> bool {
    verify_schnorr_each(group, items).into_iter().all(|ok| ok)
}

/// Whether `x` is a unit of `Z_p` in canonical form, `0 < x < p`. Only
/// such values are ever a base of a combination: a side of a combination
/// is then a product of units, never zero, which is what lets bisection
/// derive one half's sides from the other's.
fn is_unit(group: &SchnorrGroup, x: &BigUint) -> bool {
    !x.is_zero() && x < group.modulus()
}

/// Whether a DSA item can join a batch: its key is a unit, its signature
/// carries a witness and the cheap consistency checks hold. Anything else
/// is left to the per-item path, which assigns the verdict.
fn dsa_joinable(group: &SchnorrGroup, item: &DsaBatchItem) -> bool {
    let (q, sig) = (group.order(), &item.sig);
    let Some(big_r) = sig.witness() else { return false };
    let in_range = |x: &BigUint| !x.is_zero() && x < q;
    is_unit(group, item.key.element())
        && in_range(sig.r())
        && in_range(sig.s())
        && is_unit(group, big_r)
        && &(big_r % q) == sig.r()
}

/// Normalizes one Schnorr item into a group claim; the challenge-hash
/// equation is checked here (it is cheap), leaving only the group
/// equation `g^s · y^{-e} == R` for the combined check.
fn schnorr_claim(group: &SchnorrGroup, item: &SchnorrBatchItem) -> Option<GroupClaim> {
    let q = group.order();
    let sig = &item.sig;
    let big_r = sig.witness()?;
    if sig.e() >= q || sig.s() >= q {
        return None;
    }
    if !is_unit(group, big_r) || !is_unit(group, item.key.element()) {
        return None;
    }
    if &schnorr::challenge(group, item.key.element(), big_r, &item.message) != sig.e() {
        return None;
    }
    let scalar = group.scalar_ring();
    Some(GroupClaim {
        y: item.key.element().clone(),
        a: sig.s().clone(),
        b: scalar.neg(sig.e()),
        r: big_r.clone(),
    })
}

/// Settles `claims.len()` signature obligations and `elements.len()`
/// membership obligations. Obligation `i < claims.len()` is signature `i`
/// (`None` when it cannot join a combination); obligation
/// `claims.len() + j` is the membership of `elements[j]`.
fn settle(
    group: &SchnorrGroup,
    claims: Vec<Option<GroupClaim>>,
    elements: &[BigUint],
    members: bool,
    serial_signature: impl Fn(usize) -> bool,
) -> BatchOutcome {
    let n = claims.len();
    // Out-of-range elements are no members and never enter a combination.
    let mut live: Vec<usize> = (0..n)
        .filter(|&i| claims[i].is_some())
        .chain((0..elements.len()).filter(|&j| is_unit(group, &elements[j])).map(|j| n + j))
        .collect();
    // A key's obligations stay adjacent, so halving a failing
    // combination keeps them on one merged base.
    let mut first_seen: HashMap<&BigUint, usize> = HashMap::with_capacity(live.len());
    live.sort_by_cached_key(|&id| {
        let y = match id.checked_sub(n) {
            None => &claims[id].as_ref().expect("live claims are joinable").y,
            Some(j) => &elements[j],
        };
        let next = first_seen.len();
        *first_seen.entry(y).or_insert(next)
    });
    let mut settling = Settling {
        group,
        claims: &claims,
        elements,
        members,
        zs: coefficients(group, &claims, elements, &live),
        serial_signature,
        verdicts: vec![false; n + elements.len()],
        combined_checks: 0,
        serial_checks: 0,
    };
    if live.len() >= MIN_BATCH {
        let sides = settling.combine(&live);
        settling.bisect(&live, sides);
    } else {
        live.iter().for_each(|&id| settling.serial(id));
    }
    (0..n).filter(|&i| claims[i].is_none()).for_each(|i| settling.serial(i));
    let Settling { mut verdicts, combined_checks, serial_checks, .. } = settling;
    let elements = verdicts.split_off(n);
    BatchOutcome { signatures: verdicts, elements, combined_checks, serial_checks }
}

/// One batch being settled: its obligations, their coefficients, and the
/// verdicts and costs so far.
struct Settling<'a, F> {
    group: &'a SchnorrGroup,
    claims: &'a [Option<GroupClaim>],
    elements: &'a [BigUint],
    /// Every claim's key is a proven subgroup member (and no membership
    /// is owed), so `y^e = y^(e mod q)` and exponents are kept reduced.
    members: bool,
    /// Coefficient per obligation id (zero for obligations never combined).
    zs: Vec<BigUint>,
    serial_signature: F,
    verdicts: Vec<bool>,
    combined_checks: usize,
    serial_checks: usize,
}

impl<F: Fn(usize) -> bool> Settling<'_, F> {
    /// Settles one obligation by ordinary verification.
    fn serial(&mut self, id: usize) {
        self.serial_checks += 1;
        self.verdicts[id] = match id.checked_sub(self.claims.len()) {
            None => (self.serial_signature)(id),
            Some(j) => self.group.is_element(&self.elements[j]),
        };
    }

    /// Settles `ids`, whose combination has the two `sides`: accepted
    /// whole when they agree, otherwise halved. Only the first half is
    /// evaluated — a combination is the product of its halves', so the
    /// second half's sides follow by cross-multiplication — and a failing
    /// pair or single obligation is settled serially, so `k` forgeries
    /// among `n` cost at most `k·⌈log₂ n⌉ + 1` evaluations.
    ///
    /// Cross-multiplying by the first half's sides says something about
    /// the second half only while those sides are invertible. Every base
    /// is a unit (see [`is_unit`]), so they are; should one ever be zero
    /// all the same, the second half is evaluated on its own rather than
    /// waved through on `0 == 0`.
    fn bisect(&mut self, ids: &[usize], (lhs, rhs): (BigUint, BigUint)) {
        if lhs == rhs && !lhs.is_zero() {
            return ids.iter().for_each(|&id| self.verdicts[id] = true);
        }
        if ids.len() <= 2 {
            return ids.iter().for_each(|&id| self.serial(id));
        }
        let (first, second) = ids.split_at(ids.len().div_ceil(2));
        let (first_lhs, first_rhs) = self.combine(first);
        let second_sides = if first_lhs.is_zero() || first_rhs.is_zero() {
            self.combine(second)
        } else {
            let elem = self.group.elem_ring();
            (elem.mul(&lhs, &first_rhs), elem.mul(&rhs, &first_lhs))
        };
        self.bisect(first, (first_lhs, first_rhs));
        self.bisect(second, second_sides);
    }

    /// Evaluates both sides of the random linear combination over the
    /// obligations in `ids`:
    /// `g^(Σ a·z) · ∏ y^(Σ b·z + q·Σ z′)` and `∏ R^z`. Every distinct key
    /// is one base, and unless the keys are proven members its exponent
    /// is an integer, never reduced mod `q`: the signature terms then
    /// mean exactly `(y^b)^z` whatever `y`'s order, an order-`q` key's
    /// membership term contributes exactly `1` and anything else a
    /// residue the random coefficient makes overwhelmingly unlikely to
    /// cancel. Either way the sides of a union are exactly the products
    /// of its parts' sides.
    fn combine(&mut self, ids: &[usize]) -> (BigUint, BigUint) {
        self.combined_checks += 1;
        let scalar = self.group.scalar_ring();
        let elem = self.group.elem_ring();
        let q = self.group.order();
        let mut a_sum = BigUint::zero();
        let mut lhs: Vec<(BigUint, BigUint)> = Vec::with_capacity(ids.len());
        let mut base_of: HashMap<&BigUint, usize> = HashMap::with_capacity(ids.len());
        let mut rhs = Vec::with_capacity(ids.len());
        for &id in ids {
            let z = &self.zs[id];
            let (y, exponent) = match id.checked_sub(self.claims.len()) {
                None => {
                    let claim = self.claims[id].as_ref().expect("only joinable claims are combined");
                    a_sum = scalar.add(&a_sum, &scalar.mul(&claim.a, z));
                    rhs.push((claim.r.clone(), z.clone()));
                    (&claim.y, if self.members { scalar.mul(&claim.b, z) } else { &claim.b * z })
                }
                Some(j) => (&self.elements[j], q * z),
            };
            match base_of.get(y) {
                Some(&at) if self.members => lhs[at].1 = scalar.add(&lhs[at].1, &exponent),
                Some(&at) => lhs[at].1 = &lhs[at].1 + &exponent,
                None => {
                    base_of.insert(y, lhs.len());
                    lhs.push((y.clone(), exponent));
                }
            }
        }
        (elem.mul(&self.group.pow_g(&a_sum), &elem.multi_pow(&lhs)), elem.multi_pow(&rhs))
    }
}

/// Derives one coefficient per live obligation from a Fiat–Shamir
/// transcript over the whole batch: an adversary must commit to every
/// signature, witness and element before learning any coefficient, and
/// the sub-combinations bisection evaluates reuse these same values.
fn coefficients(
    group: &SchnorrGroup,
    claims: &[Option<GroupClaim>],
    elements: &[BigUint],
    live: &[usize],
) -> Vec<BigUint> {
    let mut t = Transcript::new(DOMAIN).int(group.modulus()).int(group.order()).int(group.generator());
    for &id in live {
        t = match id.checked_sub(claims.len()) {
            None => {
                let claim = claims[id].as_ref().expect("live claims are joinable");
                t.u64(0).int(&claim.y).int(&claim.a).int(&claim.b).int(&claim.r)
            }
            Some(j) => t.u64(1).int(&elements[j]),
        };
    }
    let seed = t.finish();
    let mut zs = vec![BigUint::zero(); claims.len() + elements.len()];
    for &id in live {
        let d = Transcript::new("whopay/batch/coeff/v1").bytes(&seed).u64(id as u64).finish();
        let z = u64::from_le_bytes(d[..8].try_into().expect("8-byte prefix"));
        zs[id] = BigUint::from(z.max(1));
    }
    zs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsa::DsaKeyPair;
    use crate::schnorr::SchnorrKeyPair;
    use crate::testutil::{test_group, test_rng};

    fn dsa_items(n: usize, seed: u64) -> (SchnorrGroup, Vec<DsaBatchItem>) {
        let mut rng = test_rng(seed);
        let group = test_group();
        let items = (0..n)
            .map(|i| {
                let kp = DsaKeyPair::generate(&group, &mut rng);
                let message = format!("deposit #{i}").into_bytes();
                let sig = kp.sign(&group, &message, &mut rng);
                DsaBatchItem { key: kp.public().clone(), message, sig }
            })
            .collect();
        (group, items)
    }

    #[test]
    fn all_valid_dsa_batch_accepts() {
        let (group, items) = dsa_items(8, 20);
        assert!(items.iter().all(|it| it.sig.witness().is_some()));
        assert_eq!(verify_dsa_each(&group, &items), vec![true; 8]);
        assert!(verify_dsa_all(&group, &items));
    }

    #[test]
    fn forged_dsa_item_is_pinpointed() {
        let (group, mut items) = dsa_items(6, 21);
        items[3].message = b"tampered".to_vec();
        let verdicts = verify_dsa_each(&group, &items);
        let expect: Vec<bool> = (0..6).map(|i| i != 3).collect();
        assert_eq!(verdicts, expect);
        assert!(!verify_dsa_all(&group, &items));
    }

    #[test]
    fn bogus_witness_cannot_rescue_invalid_sig() {
        let (group, mut items) = dsa_items(4, 22);
        // Replace one signature with the witness of a *different* valid
        // signature: cheap checks or the combined equation must catch it.
        let donor = items[0].sig.clone();
        items[2].sig = DsaSignature::from_parts_with_witness(
            items[2].sig.r().clone(),
            items[2].sig.s().clone(),
            donor.witness().cloned(),
        );
        items[2].message = b"rebound".to_vec();
        let verdicts = verify_dsa_each(&group, &items);
        assert!(!verdicts[2]);
        assert!(verdicts[0] && verdicts[1] && verdicts[3]);
    }

    #[test]
    fn witness_free_items_fall_back_and_still_verify() {
        let (group, mut items) = dsa_items(4, 23);
        for it in &mut items {
            it.sig = DsaSignature::from_parts(it.sig.r().clone(), it.sig.s().clone());
        }
        assert_eq!(verify_dsa_each(&group, &items), vec![true; 4]);
    }

    #[test]
    fn all_valid_schnorr_batch_accepts_and_forgery_rejects() {
        let mut rng = test_rng(24);
        let group = test_group();
        let mut items: Vec<SchnorrBatchItem> = (0..6)
            .map(|i| {
                let kp = SchnorrKeyPair::generate(&group, &mut rng);
                let message = format!("binding #{i}").into_bytes();
                let sig = kp.sign(&group, &message, &mut rng);
                SchnorrBatchItem { key: kp.public().clone(), message, sig }
            })
            .collect();
        assert_eq!(verify_schnorr_each(&group, &items), vec![true; 6]);
        assert!(verify_schnorr_all(&group, &items));
        items[1].message = b"tampered".to_vec();
        let verdicts = verify_schnorr_each(&group, &items);
        assert!(!verdicts[1]);
        assert_eq!(verdicts.iter().filter(|&&ok| ok).count(), 5);
    }

    #[test]
    fn empty_and_singleton_batches() {
        let (group, items) = dsa_items(1, 25);
        assert!(verify_dsa_each(&group, &[]).is_empty());
        assert_eq!(verify_dsa_each(&group, &items), vec![true]);
    }
}
