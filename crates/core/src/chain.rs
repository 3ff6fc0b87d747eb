//! Chain-level batched verification of mint and binding signatures.
//!
//! A transfer chain, a layered coin, or a flood of deposits all reduce to
//! the same shape: many DSA signatures under a handful of keys (the
//! broker's key plus one coin key per coin), where the common case is
//! *everything valid*. [`BindingChain`] collects those checks as plain
//! data and settles them in one pass:
//!
//! 1. verdicts already known to the [`SigCache`] are taken as-is
//!    (exact hit/miss counters keep the cache accounting honest);
//! 2. group-membership checks (`pkC ∈ ⟨g⟩`, a full `q`-bit
//!    exponentiation buried inside [`Binding::verify`]) are deduplicated —
//!    a chain of 64 bindings over one coin pays for **one** membership
//!    check instead of 64;
//! 3. the remaining signatures go through randomized batch verification
//!    ([`whopay_crypto::batch`]) fanned across a [`VerifyPool`], and the
//!    resulting verdicts are primed back into the cache.
//!
//! Verdicts are always the exact ground truth serial verification would
//! produce: the batch layer settles per signature whatever a combined
//! check cannot accept (a missing witness, or the obligation a failing
//! check is bisected down to).

use whopay_crypto::batch::{self, BatchOutcome, DsaBatchItem};
use whopay_crypto::dsa::{DsaPublicKey, DsaSignature};
use whopay_crypto::sha256::Digest;
use whopay_num::{BigUint, SchnorrGroup};

use crate::coin::{Binding, BindingSigner, MintedCoin};
use crate::sigcache::{self, SigCache};
use crate::vpool::VerifyPool;

/// One queued check: a DSA verification job plus the group-membership
/// obligation [`Binding::verify`]/[`MintedCoin::verify`] would perform.
#[derive(Debug, Clone)]
struct Job {
    item: DsaBatchItem,
    cache_key: Digest,
    /// Element whose membership in ⟨g⟩ the full verdict requires, if any.
    element: Option<BigUint>,
}

/// A batch of mint/binding signature checks sharing one group and broker.
///
/// Push the checks in any order, then settle them with
/// [`BindingChain::verify_each`] (index-aligned verdicts) or
/// [`BindingChain::verify_batch`] (single all-valid bit).
#[derive(Debug, Clone)]
pub struct BindingChain {
    group: SchnorrGroup,
    broker: DsaPublicKey,
    jobs: Vec<Job>,
}

impl BindingChain {
    /// An empty chain over `group` with the broker's verifying key.
    pub fn new(group: SchnorrGroup, broker: DsaPublicKey) -> Self {
        BindingChain { group, broker, jobs: Vec::new() }
    }

    /// Number of queued checks.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether any checks are queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Queues the broker's mint signature on `coin` (the semantics of
    /// [`MintedCoin::verify`], including the `pkC` membership check).
    pub fn push_minted(&mut self, coin: &MintedCoin) {
        let message = MintedCoin::signed_bytes(coin.owner(), coin.coin_pk());
        let cache_key = sigcache::cache_key(&self.group, &self.broker, &message, coin.broker_sig());
        self.jobs.push(Job {
            item: DsaBatchItem { key: self.broker.clone(), message, sig: coin.broker_sig().clone() },
            cache_key,
            element: Some(coin.coin_pk().clone()),
        });
    }

    /// Queues a binding signature (the semantics of [`Binding::verify`]:
    /// under the coin key itself for [`BindingSigner::CoinKey`] — with the
    /// membership check — or under the broker key for downtime bindings).
    pub fn push_binding(&mut self, binding: &Binding) {
        let (signer, message) = binding.signed_claim(&self.broker);
        let element = match binding.signer() {
            BindingSigner::CoinKey => Some(binding.coin_pk().clone()),
            BindingSigner::Broker => None,
        };
        self.push_signature(signer, message, binding.raw_sig().clone(), element);
    }

    /// Queues an arbitrary DSA check, optionally guarded by a membership
    /// check on `require_element` (e.g. a layered coin's relinquish
    /// signature under an intermediate holder key).
    pub fn push_signature(
        &mut self,
        signer: DsaPublicKey,
        message: Vec<u8>,
        sig: DsaSignature,
        require_element: Option<BigUint>,
    ) {
        let cache_key = sigcache::cache_key(&self.group, &signer, &message, &sig);
        self.jobs.push(Job {
            item: DsaBatchItem { key: signer, message, sig },
            cache_key,
            element: require_element,
        });
    }

    /// Settles every queued check and returns index-aligned verdicts,
    /// identical to what the corresponding serial `verify` calls would
    /// produce. Known verdicts come from `cache` (and fresh ones are
    /// primed back into it); the rest are batch-verified across `pool`,
    /// one combined check per pool chunk.
    pub fn verify_each(&self, cache: Option<&SigCache>, pool: &VerifyPool) -> Vec<bool> {
        let n = self.jobs.len();
        let mut verdicts: Vec<Option<bool>> = match cache {
            Some(cache) => self.jobs.iter().map(|j| cache.lookup(&j.cache_key)).collect(),
            None => vec![None; n],
        };
        let miss_idx: Vec<usize> = (0..n).filter(|&i| verdicts[i].is_none()).collect();
        let miss_jobs: Vec<&Job> = miss_idx.iter().map(|&i| &self.jobs[i]).collect();
        let settled = pool.map_chunks(&miss_jobs, |chunk| settle_jobs(&self.group, chunk));
        for (verdict, &i) in settled.into_iter().zip(&miss_idx) {
            if let Some(cache) = cache {
                cache.prime(self.jobs[i].cache_key, verdict);
            }
            verdicts[i] = Some(verdict);
        }
        verdicts.into_iter().map(|v| v.expect("all verdicts settled")).collect()
    }

    /// Settles, with one combined check, the queued checks that owe no
    /// membership and that `cache` holds no verdict for, and returns each
    /// one's cache key and verdict plus what the settlement cost. Queuing
    /// a check without a membership obligation says its key is a *proven*
    /// subgroup member — the only keys a combined check is exact under
    /// (DESIGN.md §9) — so a check that still owes one is left out, and
    /// stays with the caller. The cache itself is only peeked: no counter
    /// moves and nothing is primed — the caller owns the verdicts. Fewer
    /// than [`batch::MIN_BATCH`] such checks settle nothing.
    pub fn settle_unknown(&self, cache: &SigCache) -> (Vec<(Digest, bool)>, BatchOutcome) {
        let unknown: Vec<&Job> = self
            .jobs
            .iter()
            .filter(|job| job.element.is_none() && cache.peek(&job.cache_key).is_none())
            .collect();
        if unknown.len() < batch::MIN_BATCH {
            return (Vec::new(), BatchOutcome::default());
        }
        let items: Vec<DsaBatchItem> = unknown.iter().map(|job| job.item.clone()).collect();
        let settled = batch::verify_dsa_members(&self.group, &items);
        (
            unknown.iter().map(|job| job.cache_key).zip(settled.signatures.iter().copied()).collect(),
            settled,
        )
    }

    /// Settles every queued check, `true` iff all of them hold.
    pub fn verify_batch(&self, cache: Option<&SigCache>, pool: &VerifyPool) -> bool {
        self.verify_each(cache, pool).into_iter().all(|ok| ok)
    }
}

/// Settles `jobs` with one combined check and returns their verdicts
/// (signature and, where owed, membership).
/// Membership obligations are deduplicated first — chains share a coin
/// key, so that is typically one element in all — and ride in the
/// combined check on the base of the key they vouch for instead of
/// costing standalone `q`-bit exponentiations.
fn settle_jobs(group: &SchnorrGroup, jobs: &[&Job]) -> Vec<bool> {
    let mut elements: Vec<BigUint> = Vec::new();
    let element_of: Vec<Option<usize>> = jobs
        .iter()
        .map(|job| {
            let el = job.element.as_ref()?;
            Some(elements.iter().position(|e| e == el).unwrap_or_else(|| {
                elements.push(el.clone());
                elements.len() - 1
            }))
        })
        .collect();
    let items: Vec<DsaBatchItem> = jobs.iter().map(|j| j.item.clone()).collect();
    let settled = batch::verify_dsa_with_elements(group, &items, &elements);
    settled
        .signatures
        .iter()
        .zip(&element_of)
        .map(|(&ok, el)| ok && el.is_none_or(|i| settled.elements[i]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Timestamp;
    use whopay_crypto::dsa::DsaKeyPair;
    use whopay_crypto::testing::{test_rng, tiny_group};

    struct Fixture {
        group: SchnorrGroup,
        broker_key: DsaPublicKey,
        minted: MintedCoin,
        bindings: Vec<Binding>,
    }

    fn fixture(hops: usize, seed: u64) -> Fixture {
        let group = tiny_group().clone();
        let mut rng = test_rng(seed);
        let broker = DsaKeyPair::generate(&group, &mut rng);
        let coin_keys = DsaKeyPair::generate(&group, &mut rng);
        let pk = coin_keys.public().element().clone();
        let owner = crate::coin::OwnerTag::Anonymous;
        let mint_sig = broker.sign(&group, &MintedCoin::signed_bytes(&owner, &pk), &mut rng);
        let minted = MintedCoin::from_parts(owner, pk.clone(), mint_sig);
        let bindings = (0..hops)
            .map(|i| {
                let holder = DsaKeyPair::generate(&group, &mut rng);
                let msg = Binding::signed_bytes(
                    &pk,
                    holder.public().element(),
                    i as u64 + 1,
                    Timestamp(1000),
                    BindingSigner::CoinKey,
                );
                let sig = coin_keys.sign(&group, &msg, &mut rng);
                Binding::from_parts(
                    pk.clone(),
                    holder.public().element().clone(),
                    i as u64 + 1,
                    Timestamp(1000),
                    BindingSigner::CoinKey,
                    sig,
                )
            })
            .collect();
        Fixture { group, broker_key: broker.public().clone(), minted, bindings }
    }

    fn chain_of(fx: &Fixture) -> BindingChain {
        let mut chain = BindingChain::new(fx.group.clone(), fx.broker_key.clone());
        chain.push_minted(&fx.minted);
        for b in &fx.bindings {
            chain.push_binding(b);
        }
        chain
    }

    #[test]
    fn verdicts_match_serial_verification_at_any_thread_count() {
        let fx = fixture(6, 31);
        let chain = chain_of(&fx);
        let mut expect = vec![fx.minted.verify(&fx.group, &fx.broker_key)];
        expect.extend(fx.bindings.iter().map(|b| b.verify(&fx.group, &fx.broker_key)));
        for threads in [1usize, 2, 4] {
            let pool = VerifyPool::new(threads);
            assert_eq!(chain.verify_each(None, &pool), expect, "threads={threads}");
            assert!(chain.verify_batch(None, &pool));
        }
    }

    #[test]
    fn tampered_binding_is_pinpointed() {
        let fx = fixture(5, 32);
        let mut chain = BindingChain::new(fx.group.clone(), fx.broker_key.clone());
        chain.push_minted(&fx.minted);
        for (i, b) in fx.bindings.iter().enumerate() {
            if i == 2 {
                // Same signature, different claimed seq: invalid.
                let forged = Binding::from_parts(
                    b.coin_pk().clone(),
                    b.holder_pk().clone(),
                    b.seq() + 7,
                    b.expires(),
                    b.signer(),
                    b.raw_sig().clone(),
                );
                chain.push_binding(&forged);
            } else {
                chain.push_binding(b);
            }
        }
        let pool = VerifyPool::new(3);
        let verdicts = chain.verify_each(None, &pool);
        let expect: Vec<bool> = (0..6).map(|i| i != 3).collect();
        assert_eq!(verdicts, expect);
        assert!(!chain.verify_batch(None, &pool));
    }

    #[test]
    fn cache_is_primed_and_then_hit() {
        let fx = fixture(4, 33);
        let chain = chain_of(&fx);
        let cache = SigCache::new(64);
        let pool = VerifyPool::serial();
        assert!(chain.verify_batch(Some(&cache), &pool));
        assert_eq!((cache.hits(), cache.misses()), (0, 5));
        // Second pass: everything answered from the cache.
        assert!(chain.verify_batch(Some(&cache), &pool));
        assert_eq!((cache.hits(), cache.misses()), (5, 5));
    }

    #[test]
    fn cached_verdicts_agree_with_verify_cached() {
        let fx = fixture(3, 34);
        let chain = chain_of(&fx);
        let cache = SigCache::new(64);
        chain.verify_each(Some(&cache), &VerifyPool::new(2));
        // The verdicts the batch primed must satisfy the per-item cached
        // verifiers without recomputation.
        let before = cache.misses();
        assert!(fx.minted.verify_cached(&fx.group, &fx.broker_key, &cache));
        for b in &fx.bindings {
            assert!(b.verify_cached(&fx.group, &fx.broker_key, &cache));
        }
        assert_eq!(cache.misses(), before, "no new misses");
    }

    #[test]
    fn empty_chain_verifies_trivially() {
        let chain = BindingChain::new(tiny_group().clone(), fixture(0, 35).broker_key.clone());
        assert!(chain.is_empty());
        assert!(chain.verify_batch(None, &VerifyPool::new(4)));
    }
}
